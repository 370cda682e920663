"""End-to-end and per-layer benchmark of rhamcheck.

    python3 benchmarks/run.py --workload {corpus,periods,cohomology,all}
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout; the program is imported from `src/`
(and run from there for `corpus`), nothing needs installing.  One
caller drives the program in a closed loop: a task starts only after
the previous verdict is in.  Whole passes of seeded tasks run until
`--seconds` have passed.

With `--trace 0` the last line of stdout is one JSON object with the
end-to-end metrics.  Task times are CPU seconds rescaled by a reference
loop timed before every task on the same core, so that the shared
host's changes of speed cancel (see REFERENCE_UNIT_S).  With `--trace 1`
the same passes run once untraced and once traced, and the object holds
the per-layer metrics and the tracing overhead.  The line before it
records the environment and the failures seen.  `--workload all` runs
every workload and prints a table.  See README.md beside this file.
"""

import argparse
import gc
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
GOLDEN = HERE / "golden_report.txt"
sys.path.insert(0, str(HERE))

import spans  # noqa: E402
import workloads  # noqa: E402

WORKLOADS = ("corpus", "periods", "cohomology")
END_TO_END = (
    ("task_p50_norm_s", "s"),
    ("task_p90_norm_s", "s"),
    ("pass_share", "share"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)
SETUP_SAMPLES = {"corpus": 3, "periods": 5, "cohomology": 5}
# Nominal seconds per pass on a 2-core machine.  They only fix how many
# passes a traced run makes (so its counts repeat exactly), never a result.
NOMINAL_PASS_S = {"corpus": 3.3, "periods": 5.5, "cohomology": 3.3}
CLI = "import sys; from rhamcheck.cli import main; sys.exit(main())"
CPUS = sorted(os.sched_getaffinity(0))  # before main() pins the process to CPUS[0]

# Host speed.  On a shared host the speed of identical work drifts by tens
# of percent over minutes, in CPU time as in wall time.  So the benchmark
# keeps itself and its children on one core, and between tasks it times
# `reference_loop`, a fixed piece of benchmark-owned Python, on that core.
# A task's reference time is the mean of the samples just before and just
# after it, per unit.  Normalised times are CPU seconds at the speed at
# which one unit takes REFERENCE_UNIT_S (about the speed of a loaded 2-core
# Xeon VM).  A task much shorter than the host's phases of speed is scaled
# by its own reference.  A corpus task is 3 s of the same work, long enough
# for the host to change speed within it, so there a percentile of the CPU
# times is scaled by the same percentile of the references instead: slow
# tasks and slow references rank alike.  A slower program still reads
# slower; a slower host does not.  The samples take about 3% of a run (5%
# for corpus, whose few samples must be longer).  `setup_s` is set-up CPU
# time scaled by the median of samples taken after each set-up.
REFERENCE_UNIT_S = 1e-3
REFERENCE_UNITS = {"corpus": 150, "periods": 3, "cohomology": 1}
SETUP_REFERENCE_UNITS = 100
QUANTILE_MATCHED = {"corpus"}


def reference_loop(units):
    """CPU seconds per unit of fixed integer, dict and Fraction work, GC held off."""
    enabled = gc.isenabled()
    gc.disable()
    start = time.process_time()
    for _ in range(units):
        x, counts = 0, {}
        for i in range(1, 1400):
            x = (x * 1000003 + i * i) % 1000000007
            x ^= i << 7
            counts[i % 97] = counts.get(i % 97, 0) + i
        total = Fraction(0)
        for i in range(1, 120):
            total += Fraction(i, i * i + 1)
    elapsed = time.process_time() - start
    if enabled:
        gc.enable()
    return elapsed / units


class Record:
    __slots__ = ("task", "latency", "cpu", "verdict", "reference")

    def __init__(self, task, latency, cpu, verdict, reference=None):
        self.task = task
        self.latency = latency  # wall seconds
        self.cpu = cpu  # CPU seconds of the process that ran the task
        self.verdict = verdict
        self.reference = reference  # reference_loop seconds per unit around the task

    @property
    def ok(self):
        return self.verdict is None

    @property
    def expected_failure(self):
        known = self.task.known_defect
        return not self.ok and known is not None and self.verdict == known[1]


# ---------------------------------------------------------------------------
# task runners: each returns (wall seconds, CPU seconds, verdict or None)


class InProcessRunner:
    def __init__(self, seed):
        from rhamcheck.checks import Settings, run_scenario_checks
        from rhamcheck.scenarios import Scenario
        from rhamcheck.simplex_forms import DEFAULT_QUAD_ORDER

        origin = Path(sys.modules["rhamcheck"].__file__).resolve().parent
        if origin != SRC / "rhamcheck":
            raise SystemExit("run.py: rhamcheck imported from %s, not %s" % (origin, SRC))
        self.seed = seed
        self.settings = Settings
        self.run_checks = run_scenario_checks
        self.scenario = Scenario
        self.default_order = DEFAULT_QUAD_ORDER

    def __call__(self, task):
        settings = self.settings(quad_order=task.oracle.get("order", self.default_order),
                                 seed=self.seed)
        gc.collect()  # earlier tasks' garbage is not this task's cost
        start, cpu_start = time.perf_counter(), time.process_time()
        try:
            results = self.run_checks(self.scenario(task.text, source=task.label), settings)
        except Exception as exc:  # a task that raises is a failed task; the run goes on
            return (time.perf_counter() - start, time.process_time() - cpu_start,
                    "raised:%s" % type(exc).__name__)
        latency, cpu = time.perf_counter() - start, time.process_time() - cpu_start
        return latency, cpu, workloads.judge_checks(task, results)


class CorpusRunner:
    """Each task is one fresh `rhamcheck` process writing a report."""

    def __init__(self, trace_dir=None):
        self.golden = GOLDEN.read_text(encoding="utf-8")
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.trace_dir = trace_dir
        self.peak_rss_kb = 0
        self.summaries = []

    def __call__(self, task):
        report = WORK / "corpus_report.txt"
        if report.exists():
            report.unlink()
        if self.trace_dir is None:
            cmd = [sys.executable, "-c", CLI]
        else:
            out = self.trace_dir / ("task%d.json" % len(self.summaries))
            cmd = [sys.executable, str(HERE / "traced_cli.py"), str(out)]
        cmd += task.argv + ["--report", str(report)]
        start = time.perf_counter()
        with open(WORK / "corpus_stdout.txt", "wb") as log:
            proc = subprocess.Popen(cmd, stdout=log, stderr=subprocess.STDOUT, env=self.env,
                                    cwd=str(ROOT))
            _, status, usage = os.wait4(proc.pid, 0)
        latency = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.peak_rss_kb = max(self.peak_rss_kb, usage.ru_maxrss)
        if self.trace_dir is not None and out.exists():
            self.summaries.append(json.loads(out.read_text())["summary"])
        text = report.read_text(encoding="utf-8") if report.exists() else ""
        cpu = usage.ru_utime + usage.ru_stime
        return latency, cpu, workloads.judge_report(task, proc.returncode, text, self.golden)


def make_runner(workload, seed, trace_dir=None):
    if workload == "corpus":
        return CorpusRunner(trace_dir)
    return InProcessRunner(seed)


# ---------------------------------------------------------------------------
# set-up


def cpu_used():
    """CPU seconds of this process and of its children waited for, so far."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def setup(workload, seed, sample=0, cpu_start=0.0):
    """Import, generate the first pass, run one untimed warm-up task.

    Returns (runner, CPU seconds since cpu_start, or since the process
    started, interpreter start-up and imports included).
    """
    runner = make_runner(workload, seed)
    workloads.PASSES[workload](seed, 0)
    runner(workloads.WARMUPS[workload](seed, sample))
    return runner, cpu_used() - cpu_start


def setup_samples(workload, seed, first):
    """Set-up CPU times, `first` plus fresh processes (or warm-ups for corpus),
    each followed by a reference sample."""
    samples, references = [first], [reference_loop(SETUP_REFERENCE_UNITS)]
    for sample in range(1, SETUP_SAMPLES[workload]):
        if workload == "corpus":
            samples.append(setup(workload, seed, sample, cpu_used())[1])
        else:
            cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe", str(sample),
                   "--workload", workload, "--seed", str(seed)]
            out = subprocess.run(cmd, capture_output=True, text=True, cwd=str(ROOT), check=True)
            samples.append(json.loads(out.stdout.splitlines()[-1])["setup_cpu_s"])
        references.append(reference_loop(SETUP_REFERENCE_UNITS))
    return samples, references


# ---------------------------------------------------------------------------
# measurement


def nearest_rank(values, q):
    keys = sorted(values)
    return keys[max(0, math.ceil(q * len(keys)) - 1)]


def percentile(records, times, q, fallback):
    """Nearest-rank percentile of `times`; failed tasks rank above every success.

    A failed task counts as infinitely slow, so fixing it can only lower
    a percentile.  If the rank lands on a failure the value is `fallback`.
    """
    value = nearest_rank([t if r.ok else math.inf for r, t in zip(records, times)], q)
    return fallback if math.isinf(value) else value


def normalised_percentile(records, q, matched):
    """Percentile q of task CPU time at reference speed; see REFERENCE_UNIT_S."""
    if matched:
        cpu = [r.cpu for r in records]
        scale = REFERENCE_UNIT_S / nearest_rank([r.reference for r in records], q)
        return percentile(records, cpu, q, sum(cpu)) * scale
    times = [r.cpu * REFERENCE_UNIT_S / r.reference for r in records]
    return percentile(records, times, q, sum(times))


def timed_passes(workload, seed, seconds, runner):
    records = []
    passes = 0
    units = REFERENCE_UNITS[workload]
    start = time.perf_counter()
    before = reference_loop(units)
    while passes == 0 or time.perf_counter() - start < seconds:
        for task in workloads.PASSES[workload](seed, passes):
            latency, cpu, verdict = runner(task)
            after = reference_loop(units)
            records.append(Record(task, latency, cpu, verdict, reference=(before + after) / 2))
            before = after
        passes += 1
    return records, passes, time.perf_counter() - start


def end_to_end(workload, seed, seconds):
    runner, first = setup(workload, seed)
    samples, setup_refs = setup_samples(workload, seed, first)
    records, passes, wall = timed_passes(workload, seed, seconds, runner)
    walls = [r.latency for r in records]
    if workload == "corpus":
        rss_kb = runner.peak_rss_kb
    else:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    values = {
        "task_p50_norm_s": normalised_percentile(records, 0.5, workload in QUANTILE_MATCHED),
        "task_p90_norm_s": normalised_percentile(records, 0.9, workload in QUANTILE_MATCHED),
        "pass_share": sum(r.ok for r in records) / len(records),
        "setup_s": statistics.median(samples) * REFERENCE_UNIT_S / statistics.median(setup_refs),
        "peak_rss_mb": rss_kb / 1024.0,
    }
    extra = {
        "passes": passes,
        "measured_s": wall,
        "setup_cpu_s": samples,
        "setup_reference_unit_s": setup_refs,
        "task_p50_wall_s": percentile(records, walls, 0.5, wall),
        "task_p90_wall_s": percentile(records, walls, 0.9, wall),
        "task_p50_cpu_s": percentile(records, [r.cpu for r in records], 0.5, wall),
        "reference_unit_s": statistics.median(r.reference for r in records),
    }
    return records, values, dict(END_TO_END), extra


def per_layer(workload, seed, seconds):
    """Per-layer totals and tracing overhead.

    Each task runs untraced, then traced, in turn, so that drift in the
    machine's speed stays out of the overhead.  The number of passes
    depends only on `seconds`, so the counts repeat exactly for a seed.
    """
    passes = max(1, int(seconds // (2 * NOMINAL_PASS_S[workload])))
    tasks = [t for p in range(passes) for t in workloads.PASSES[workload](seed, p)]
    trace_dir = WORK / ("trace-%s-%d" % (workload, seed))
    trace_dir.mkdir(parents=True, exist_ok=True)
    for old in trace_dir.glob("*.json"):
        old.unlink()
    untraced_runner, _ = setup(workload, seed)
    traced_runner = make_runner(workload, seed, trace_dir)
    tracer = spans.Tracer()
    records = []
    untraced = 0.0
    for task in tasks:
        start = time.perf_counter()
        untraced_runner(task)
        untraced += time.perf_counter() - start
        # corpus children trace themselves (traced_cli.py)
        uninstall = spans.install(tracer) if workload != "corpus" else None
        try:
            tracer.begin("bench.task")
            records.append(Record(task, *traced_runner(task)))
            tracer.end()
        finally:
            if uninstall is not None:
                uninstall()
    traced = sum(e - s for s, e, p in zip(tracer.starts, tracer.ends, tracer.parents) if p < 0)
    summary = tracer.summary()
    if workload == "corpus":
        summary = spans.merge([summary] + traced_runner.summaries)
    (trace_dir / "parent.json").write_text(
        json.dumps({"summary": summary, "spans": tracer.spans()}))
    values = spans.layer_metrics(summary)
    values.update({
        "trace.wall_s": traced,
        "trace.untraced_wall_s": untraced,
        "trace.overhead_s": traced - untraced,
        "trace.tasks": len(tasks),
    })
    extra = {"passes": passes, "measured_s": traced + untraced, "spans_dir": str(trace_dir)}
    return records, values, dict(spans.PER_LAYER_METRICS), extra


# ---------------------------------------------------------------------------
# reporting


def git_commit():
    """The checked-out commit, read from .git without running git; None outside a repo."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[len("ref: "):]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def environment(workload, seed, seconds, trace, records, extra):
    known = {}
    unexpected = []
    for r in records:
        if r.expected_failure:
            label = "%s [%s]" % (r.task.label, r.task.known_defect[0])
            known[label] = known.get(label, 0) + 1
        elif not r.ok:
            unexpected.append("%s: %s" % (r.task.label, r.verdict))
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "tasks": len(records),
        "nproc": len(CPUS),
        "pinned_cpu": CPUS[0],
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "commit": git_commit(),
        "known_defect_failures": known,
        "unexpected_failures": unexpected[:20],
        **extra,
    }


def run_one(workload, seed, seconds, trace):
    if trace:
        records, values, units, extra = per_layer(workload, seed, seconds)
    else:
        records, values, units, extra = end_to_end(workload, seed, seconds)
    env = environment(workload, seed, seconds, trace, records, extra)
    (WORK / ("tasks-%s-%d-trace%d.json" % (workload, seed, trace))).write_text(json.dumps(
        [[r.task.label, r.latency, r.cpu, r.reference, r.verdict] for r in records]))
    failed = sum(1 for r in records if not r.ok and not r.expected_failure)
    print(json.dumps({"environment": env}))
    result = {
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result))


def run_all(seed, seconds, trace):
    """Every workload in its own process; a table, then one JSON object per workload."""
    table = {}
    for workload in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
        out = subprocess.run(cmd, capture_output=True, text=True, cwd=str(ROOT), check=True)
        table[workload] = json.loads(out.stdout.splitlines()[-1])
    for workload, result in table.items():
        print("%s: %d tasks, correct=%s, failed=%d" % (
            workload, result["attempted"], result["correct"], result["failed"]))
        for name, metric in result["metrics"].items():
            print("  %-44s %14.6g %s" % (name, metric["value"], metric["unit"]))
    print(json.dumps(table))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=50)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", type=int, metavar="SAMPLE", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (SRC / "rhamcheck" / "__init__.py").is_file():
        sys.stderr.write("run.py: no rhamcheck sources under %s\n" % SRC)
        return 2
    sys.path.insert(0, str(SRC))
    os.sched_setaffinity(0, {CPUS[0]})  # see REFERENCE_UNIT_S
    if args.workload == "all":
        run_all(args.seed, args.seconds, args.trace)
        return 0
    WORK.mkdir(exist_ok=True)
    if args.setup_probe is not None:
        _, seconds = setup(args.workload, args.seed, args.setup_probe)
        print(json.dumps({"setup_cpu_s": seconds}))
        return 0
    run_one(args.workload, args.seed, args.seconds, args.trace)
    return 0


if __name__ == "__main__":
    sys.exit(main())
