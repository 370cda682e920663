"""Command-line front end: run scenarios, emit reports.

Exit codes: 0 when every executed check passes, 1 on any check failure,
2 on unusable input (parse or validation errors).  Reports are written
in a canonical line-oriented `key value` form with no timestamps, so
identical inputs produce byte-identical files; wall-clock timings only
appear in the human summary on stdout.  A closed stdout ends the summary
or the `--list` output but not the run: the report is still written, with
the checks' exit code.  A report that cannot be opened, written or closed
is unusable output, exit 2.
"""

from __future__ import annotations

import argparse
import sys
import time
from collections import Counter
from contextlib import nullcontext, suppress

from .checks import DEFAULT_SEED, Settings, run_scenario_checks, validate_settings
from .errors import ParseError, RhamcheckError
from .scenarios import Scenario, builtin_description, builtin_names, load_builtin
from .simplex_forms import DEFAULT_QUAD_ORDER

EXIT_PASS = 0
EXIT_CHECK_FAILURE = 1
EXIT_USAGE = 2


def build_parser():
    parser = argparse.ArgumentParser(
        prog="rhamcheck",
        description="verify comparison maps between algebraic forms and singular cochains",
    )
    parser.add_argument("--scenario", action="append", default=[], metavar="PATH",
                        help="run a scenario file (repeatable)")
    parser.add_argument("--builtin", action="append", default=[], metavar="NAME",
                        help="run a builtin scenario; 'all' runs the whole corpus")
    parser.add_argument("--check", metavar="NAME,...",
                        help="only run checks matching these names or kinds")
    parser.add_argument("--max-weight", type=int, metavar="N",
                        help="override the weight cutoff of cohomology truncations")
    parser.add_argument("--quad-order", type=int, default=DEFAULT_QUAD_ORDER, metavar="K",
                        help="Gauss-Legendre order for the numeric lane (default %(default)s)")
    parser.add_argument("--tolerance", type=float, metavar="X",
                        help="override every check tolerance; a check that sets none uses 10 "
                             "times its estimate |Q_k - Q_{k+4}|, the gap between quadrature "
                             "orders k and k+4: a heuristic, not a bound")
    parser.add_argument("--report", metavar="PATH", help="write the canonical report here")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED, metavar="N",
                        help="seed for randomized property checks (default %(default)s)")
    parser.add_argument("--list", action="store_true", help="list the builtin corpus and exit")
    return parser


def list_builtins():
    """Print the builtin catalog, each with its header's description."""
    for name in builtin_names():
        print("%-20s %s" % (name, builtin_description(name)))


def to_stdout(write):
    """Call write(), which prints to stdout, and flush.  If stdout's reader has
    gone, stop there and close stdout, so the exit flush cannot fail."""
    try:
        write()
        sys.stdout.flush()
    except BrokenPipeError:
        with suppress(BrokenPipeError):
            sys.stdout.close()


def tally(runs):
    """How many checks of the runs have each status: pass, fail or skip."""
    return Counter(result.status for _, results, _ in runs for result in results)


def report_lines(runs, settings):
    """Canonical, timing-free serialization of a set of scenario runs."""
    lines = []
    lines.append("format_version 1")
    lines.append("seed %d" % settings.seed)
    lines.append("quad_order %d" % settings.quad_order)
    if settings.max_weight is not None:
        lines.append("max_weight %d" % settings.max_weight)
    if settings.tolerance is not None:
        lines.append("tolerance %r" % settings.tolerance)
    lines.append("scenarios %d" % len(runs))
    for scenario, results, _elapsed in runs:
        lines.append("scenario %s" % scenario.name)
        lines.append("scenario.%s.checks %d" % (scenario.name, len(results)))
        for result in results:
            prefix = "check.%s.%s" % (scenario.name, result.name)
            lines.append("%s.kind %s" % (prefix, result.kind))
            lines.append("%s.status %s" % (prefix, result.status))
            if result.message:
                lines.append("%s.reason %s" % (prefix, result.message))
            for key, value in result.details:
                lines.append("%s.%s %s" % (prefix, key, value))
    totals = tally(runs)
    for key in ("pass", "fail", "skip"):
        lines.append("summary.%s %d" % (key, totals[key]))
    return lines


def human_summary(runs):
    for scenario, results, elapsed in runs:
        print("%s (%.2fs)" % (scenario.name, elapsed))
        for result in results:
            line = "  [%-4s] %-22s %s" % (result.status, result.name, result.kind)
            if result.status != "pass":
                line += "  -- %s" % result.message
            print(line)
    totals = tally(runs)
    print("total: %d pass, %d fail, %d skip" % (totals["pass"], totals["fail"], totals["skip"]))


def run_scenario(scenario, settings, check_filter=None):
    """Run one scenario; returns (results, elapsed seconds)."""
    start = time.monotonic()
    results = run_scenario_checks(scenario, settings, check_filter)
    return results, time.monotonic() - start


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.list:
        to_stdout(list_builtins)
        return EXIT_PASS
    selected = []
    for name in args.builtin:
        if name == "all":
            selected.extend(builtin_names())
        else:
            selected.append(name)
    if not selected and not args.scenario:
        parser.print_usage(sys.stderr)
        sys.stderr.write("rhamcheck: nothing to run; use --builtin, --scenario, or --list\n")
        return EXIT_USAGE
    settings = Settings(
        quad_order=args.quad_order,
        max_weight=args.max_weight,
        tolerance=args.tolerance,
        seed=args.seed,
    )
    check_filter = set(args.check.split(",")) if args.check is not None else None
    runs = []
    try:
        scenarios = [load_builtin(name) for name in selected]
        for path in args.scenario:
            with open(path, "r", encoding="utf-8") as handle:
                try:
                    text = handle.read()
                except UnicodeDecodeError as exc:
                    raise ParseError("%s: not UTF-8 text: %s" % (path, exc)) from None
            scenarios.append(Scenario(text, source=path))
        validate_settings(settings, scenarios, check_filter)
        # opened before the first check runs, so a path it cannot write is refused up front
        report = open(args.report, "w", encoding="utf-8") if args.report else nullcontext()
    except (RhamcheckError, OSError) as exc:
        sys.stderr.write("rhamcheck: %s\n" % exc)
        return EXIT_USAGE
    with report:
        for scenario in scenarios:
            # run_check turns a check's RhamcheckError into a failed result
            runs.append((scenario, *run_scenario(scenario, settings, check_filter)))
        to_stdout(lambda: human_summary(runs))
        if args.report:
            try:
                with report:  # closed here, so a failed flush is caught too
                    report.write("\n".join(report_lines(runs, settings)) + "\n")
            except OSError as exc:
                sys.stderr.write("rhamcheck: %s: %s\n" % (args.report, exc))
                return EXIT_USAGE
    return EXIT_CHECK_FAILURE if tally(runs)["fail"] else EXIT_PASS


if __name__ == "__main__":
    sys.exit(main())
