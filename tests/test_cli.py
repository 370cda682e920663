"""Scenario parsing, the check runner, exit codes, and report determinism."""

import contextlib
import errno
import importlib
import io
import os
import pkgutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest

import rhamcheck
from rhamcheck import checks, cli
from rhamcheck.checks import CHECK_KINDS, Settings, run_scenario_checks, validate_settings
from rhamcheck.cli import main, report_lines, run_scenario
from rhamcheck.comparison import period
from rhamcheck.errors import DimensionMismatch, ParseError, ValidationError
from rhamcheck.formtext import parse_polynomial
from rhamcheck.scenarios import (
    BOUNDARY,
    CHAIN,
    CHECK_KEYS,
    COMPLEX,
    COUNT,
    COUNTS,
    FLAG,
    FORM,
    FORMS,
    MAX_WEIGHT,
    NUM_VARS,
    RANDOM_COUNT,
    RANDOM_DEGREE,
    RANDOM_DIM,
    REQUIRED,
    SECTION_KEYS,
    SIMPLEX,
    SIMPLICES,
    VERDICT,
    WEIGHT,
    Scenario,
    _dim,
    _number,
    _text,
    _tolerance,
    builtin_description,
    builtin_names,
    builtin_text,
    load_builtin,
)
from rhamcheck.simplicial import Cochain, standard_simplex

MINIMAL = """
format_version 1
name tiny

[algebra]
variables x
relation x^2 - 1

[form e]
degree 0
expr (1 + x)/2

[simplex pt]
dim 0
lane exact
component 1

[family pts]
simplices pt

[chain z]
family pts
degree 0
term 1 pt

[check p]
kind pairing
form e
chain z
expect 1
tolerance 0
"""


def test_scenario_parse_and_run():
    scenario = Scenario(MINIMAL)
    assert scenario.name == "tiny"
    assert set(scenario.forms) == {"e"}
    results = run_scenario_checks(scenario, Settings())
    assert [r.status for r in results] == ["pass"]


def test_scenario_requires_format_version():
    with pytest.raises(ParseError):
        Scenario("name x\n")


def test_scenario_undefined_form_named():
    bad = MINIMAL.replace("form e\nchain z", "form ghost\nchain z")
    with pytest.raises(ValidationError) as err:
        Scenario(bad)
    assert "ghost" in str(err.value)


def test_scenario_lane_consistency():
    bad = MINIMAL.replace("lane exact", "lane numeric")
    with pytest.raises(ValidationError):
        Scenario(bad)


CIRCLE_FORM = """
format_version 1
name circle_form

[algebra]
variables x y
relation x^2 + y^2 - 1

[form omega]
degree {degree}
expr {expr}
"""


def test_scenario_degree_decides_degree_of_zero_form():
    scenario = Scenario(CIRCLE_FORM.format(degree=1, expr="0"))
    omega = scenario.forms["omega"]
    assert omega.is_zero()
    assert omega.degree == 1


def test_scenario_rejects_nonzero_form_of_other_degree(tmp_path):
    text = CIRCLE_FORM.format(degree=2, expr="x*dy")
    with pytest.raises(ValidationError) as err:
        Scenario(text)
    assert "omega" in str(err.value)
    path = tmp_path / "wrong_degree.scn"
    path.write_text(text)
    assert main(["--scenario", str(path)]) == 2


@pytest.mark.parametrize("degree", ["-1", "one"])
def test_scenario_rejects_malformed_form_degree(tmp_path, degree):
    path = tmp_path / "bad_degree.scn"
    path.write_text(CIRCLE_FORM.format(degree=degree, expr="0"))
    assert main(["--scenario", str(path)]) == 2


SIMPLICIAL_CHECK = "\n[check h]\nkind simplicial_cohomology\ncomplex {}\ndims 1\n"
COHOMOLOGY_CHECK = "\n[check h]\nkind cohomology\ndegree {}\nmax_weight {}\n"


@pytest.mark.parametrize(
    "old, new, section",
    [
        ("format_version 1", "format_version one", "format_version"),
        ("dim 0", "dim zero", "simplex pt"),
        ("family pts\ndegree 0", "family pts\ndegree x", "chain z"),
        ("term 1 pt", "term one pt", "chain z"),
        ("tolerance 0\n", "tolerance 0\n" + SIMPLICIAL_CHECK.format("deltax"), "check h"),
        ("tolerance 0\n", "tolerance 0\n" + SIMPLICIAL_CHECK.format("boundary2.5"), "check h"),
        ("tolerance 0\n", "tolerance 0\n" + SIMPLICIAL_CHECK.format("boundary0"), "check h"),
        ("tolerance 0\n", "tolerance 0\n" + COHOMOLOGY_CHECK.format("one", 4), "check h"),
        ("tolerance 0\n", "tolerance 0\n" + COHOMOLOGY_CHECK.format(2, 1), "check h"),
    ],
    ids=["format_version", "dim", "degree", "term", "delta", "boundary", "boundary0",
         "cohomology_degree", "weight_below_degree"],
)
def test_scenario_rejects_malformed_integer(tmp_path, old, new, section):
    assert old in MINIMAL
    text = MINIMAL.replace(old, new)
    with pytest.raises(ParseError) as err:
        Scenario(text)
    assert section in str(err.value)
    path = tmp_path / "bad_integer.scn"
    path.write_text(text)
    assert main(["--scenario", str(path)]) == 2


def test_builtins_catalog():
    names = builtin_names()
    assert len(names) >= 8
    assert {"two_points", "interval", "circle", "circle_x_points", "torus",
            "sphere", "tau_witness", "boundary_extension"} <= set(names)
    for name in names:
        assert builtin_text(name).startswith("format_version 1")


GOLDEN = Path(__file__).resolve().parent.parent / "benchmarks" / "golden_report.txt"


def check_report_lines(path):
    """The lines of a report about each check, check.<scenario>.<name> -> lines."""
    checks = {}
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        if line.startswith("check."):
            checks.setdefault(".".join(line.split()[0].split(".")[:3]), []).append(line)
    return checks


def clear_value_memos():
    """Empty every bounded memo of the package.  The unbounded ones,
    standard_simplex and boundary_complex, stay: cochains compare complexes
    by identity, so they hold objects, not values."""
    for info in pkgutil.iter_modules(rhamcheck.__path__):
        module = importlib.import_module("rhamcheck." + info.name)
        for value in vars(module).values():
            if hasattr(value, "cache_clear") and value.cache_info().maxsize is not None:
                value.cache_clear()


def test_warm_memos_change_no_report_line(tmp_path, capsys):
    """The memos live as long as the process: a cold run, a cold run in which
    the later scenarios warm them first, and a run after another report every
    check as the golden file does."""
    golden = check_report_lines(GOLDEN)
    backwards = [arg for name in reversed(builtin_names()) for arg in ("--builtin", name)]
    for i, args in enumerate([["--builtin", "all"], backwards, ["--builtin", "all"]]):
        if i < 2:
            clear_value_memos()
        report = tmp_path / ("report%d.txt" % i)
        assert main(args + ["--report", str(report)]) == 0
        assert check_report_lines(report) == golden
    capsys.readouterr()


@pytest.mark.parametrize("name", ["two_points", "interval", "sphere", "tau_witness"])
def test_fast_builtins_pass(name):
    scenario = load_builtin(name)
    results, _ = run_scenario(scenario, Settings())
    assert all(r.status == "pass" for r in results), [
        (r.name, r.message) for r in results if r.status != "pass"
    ]


def test_check_filter_skips_with_reason():
    scenario = load_builtin("circle")
    results = run_scenario_checks(scenario, Settings(), check_filter={"pairing"})
    statuses = {r.name: r.status for r in results}
    assert statuses["pairing_loop"] == "pass"
    skipped = [r for r in results if r.status == "skip"]
    assert skipped and all(r.message for r in skipped)


def test_cli_exit_codes(tmp_path):
    assert main(["--list"]) == 0
    assert main(["--builtin", "two_points"]) == 0
    bad = tmp_path / "bad.scn"
    bad.write_text(MINIMAL.replace("form e\nchain z", "form ghost\nchain z"))
    assert main(["--scenario", str(bad)]) == 2
    assert main([]) == 2
    assert main(["--builtin", "no_such_builtin"]) == 2


def python_env():
    """The environment in which a fresh interpreter imports this rhamcheck."""
    src = str(Path(rhamcheck.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path)


def run_python(*args):
    """A fresh interpreter on `args` that imports this rhamcheck; check=True."""
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env=python_env(), timeout=120, check=True)


def test_python_dash_m_runs_the_cli():
    run = run_python("-m", "rhamcheck", "--list")
    assert [line.split()[0] for line in run.stdout.splitlines()] == list(builtin_names())


def test_list_prints_each_builtin_with_its_header_description(capsys):
    assert main(["--list"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == len(builtin_names())
    for line, name in zip(lines, builtin_names()):
        header = next(row for row in builtin_text(name).splitlines()
                      if row.startswith("description "))
        assert line.split(None, 1) == [name, header[len("description "):]]


def test_list_reads_the_descriptions_without_building_a_scenario(capsys, monkeypatch):
    """`--list` reads each header alone: the descriptions are those of the built
    scenarios, and no Scenario, with its algebra and simplices, is made."""
    built = {name: load_builtin(name).description for name in builtin_names()}
    assert {name: builtin_description(name) for name in builtin_names()} == built

    def refuse(self, *args, **kwargs):
        raise AssertionError("--list built a Scenario")

    monkeypatch.setattr(Scenario, "__init__", refuse)
    assert main(["--list"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(None, 1) for line in lines] == [[name, built[name]] for name in built]


def test_cli_check_failure_exit(tmp_path):
    failing = MINIMAL.replace("expect 1", "expect 2")
    path = tmp_path / "failing.scn"
    path.write_text(failing)
    assert main(["--scenario", str(path)]) == 1


def test_check_that_raises_at_run_time_fails_with_exit_1(tmp_path, capsys):
    """On the line (1 + x)/2 is not closed, which only running the
    multiplicativity check finds: the raise is that check's failure, not
    unusable input."""
    path = tmp_path / "raising.scn"
    fixtures = MINIMAL[:MINIMAL.index("[check p]")].replace("relation x^2 - 1\n", "")
    path.write_text(fixtures + "[check p]\nkind multiplicativity\nform1 e\nform2 e\nchain z\n"
                    "expect 1\n")
    assert main(["--scenario", str(path)]) == 1
    out, err = capsys.readouterr()
    assert out.splitlines()[1:] == [
        "  [fail] p                      multiplicativity  -- "
        "NotClosedForm: multiplicativity needs closed forms",
        "total: 0 pass, 1 fail, 0 skip",
    ]
    assert err == ""


def test_report_deterministic(tmp_path):
    settings = Settings()
    runs = []
    for name in ("two_points", "sphere"):
        scenario = load_builtin(name)
        results, elapsed = run_scenario(scenario, settings)
        runs.append((scenario, results, elapsed))
    first = report_lines(runs, settings)
    runs2 = []
    for name in ("two_points", "sphere"):
        scenario = load_builtin(name)
        results, elapsed = run_scenario(scenario, settings)
        runs2.append((scenario, results, elapsed))
    second = report_lines(runs2, settings)
    assert first == second
    assert "summary.fail 0" in first
    # no wall-clock timings leak into the canonical report
    assert not any("elapsed" in line or "time" in line.split()[0] for line in first)


def test_stdout_and_report_count_one_tally(tmp_path, capsys):
    """A pass, a fail and a skip: each status line on stdout, its total line
    and the report's summary lines agree."""
    path = tmp_path / "mixed.scn"
    path.write_text(MINIMAL + "\n[check q]\nkind pairing\nform e\nchain z\nexpect 2\n"
                    "tolerance 0\n\n[check r]\nkind simplicial_cohomology\ncomplex delta1\n"
                    "dims 1\n")
    report = tmp_path / "report.txt"
    assert main(["--scenario", str(path), "--check", "p,q", "--report", str(report)]) == 1
    assert capsys.readouterr().out.splitlines()[1:] == [
        "  [pass] p                      pairing",
        "  [fail] q                      pairing  -- pairing 1 missed 2 by more than 0.0",
        "  [skip] r                      simplicial_cohomology  -- filtered out by --check",
        "total: 1 pass, 1 fail, 1 skip",
    ]
    assert report.read_text().splitlines()[-3:] == ["summary.pass 1", "summary.fail 1",
                                                    "summary.skip 1"]


def test_failure_reasons_render_values_as_the_details_do(tmp_path, capsys):
    """A failed expectation prints its values through render_value, on stdout
    and in the report's reason line, as the detail lines beside it print them."""
    text = builtin_text("two_points")
    section = text[text.index("[check mult_minus]"):]
    path = tmp_path / "failing.scn"
    path.write_text(text.replace(section, section.replace("expect 0", "expect 2", 1)))
    report = tmp_path / "report.txt"
    assert main(["--scenario", str(path), "--check", "mult_minus", "--report", str(report)]) == 1
    reason = "pairing 0 missed 2 by more than 0.0"
    assert "  [fail] mult_minus             multiplicativity  -- " + reason in (
        capsys.readouterr().out.splitlines())
    lines = report.read_text(encoding="utf-8").splitlines()
    assert "check.two_points.mult_minus.reason " + reason in lines
    assert {"check.two_points.mult_minus.lhs 0",
            "check.two_points.mult_minus.expect 2"} <= set(lines)


HYPERBOLA = """
format_version 1
name hyperbola

[algebra]
variables x y
relation x*y - 1

[form xdy]
degree 1
expr x*dy

[simplex arc]
dim 1
lane numeric
component 2 - t1^2
component 1/(2 - t1^2)

[family branch]
simplices arc

[chain z]
family branch
degree 1
term 1 arc

[check pairing]
kind pairing
form xdy
chain z
expect 0.6931471805599453
tolerance 1e-9
"""


def test_pairing_over_a_denominator_negative_on_the_simplex_passes(tmp_path, capsys):
    """x dy pulls back to 2 t1/(2 - t1^2) dt1, whose integral is ln 2; `ratio`
    stores 1/(2 - t1^2) as -1/(t1^2 - 2), negative on the simplex, which its
    negative's certificate admits."""
    path = tmp_path / "hyperbola.scn"
    path.write_text(HYPERBOLA)
    report = tmp_path / "report.txt"
    assert main(["--scenario", str(path), "--report", str(report)]) == 0
    assert "  [pass] pairing                pairing" in capsys.readouterr().out.splitlines()
    lines = report.read_text(encoding="utf-8").splitlines()
    value = next(line for line in lines if line.startswith("check.hyperbola.pairing.value "))
    assert abs(float(value.split()[1]) - 0.6931471805599453) <= 1e-9


class ClosedPipe(io.StringIO):
    """A stdout whose reader has gone."""

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


@pytest.mark.parametrize("failing", [False, True])
def test_closed_stdout_ends_the_summary_not_the_run(tmp_path, monkeypatch, failing):
    """The report is still written, and the exit code is the checks' own."""
    report = tmp_path / "report.txt"
    if failing:
        path = tmp_path / "failing.scn"
        path.write_text(MINIMAL.replace("expect 1", "expect 2"))
        args = ["--scenario", str(path)]
    else:
        args = ["--builtin", "all"]
    monkeypatch.setattr(sys, "stdout", ClosedPipe())
    assert main(args + ["--report", str(report)]) == int(failing)
    if failing:
        assert "summary.fail 1" in report.read_text(encoding="utf-8").splitlines()
    else:
        assert report.read_text(encoding="utf-8") == GOLDEN.read_text(encoding="utf-8")


@pytest.mark.parametrize("listing, buffered", [(False, True), (False, False), (True, True),
                                               (True, False)],
                         ids=["True", "False", "list-True", "list-False"])
def test_stdout_closed_before_the_first_write_exits_quietly(tmp_path, listing, buffered):
    """No traceback, no "Exception ignored" at exit, and exit code 0, not 1 or 120,
    for the summary and for `--list`; buffered, the write fails only when the
    output is flushed."""
    report = tmp_path / "report.txt"
    args = ["--list"] if listing else ["--builtin", "all", "--report", str(report)]
    env = python_env()
    env.pop("PYTHONUNBUFFERED", None)
    if not buffered:
        env["PYTHONUNBUFFERED"] = "1"
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        run = subprocess.run([sys.executable, "-m", "rhamcheck", *args],
                             stdout=write_end, stderr=subprocess.PIPE, text=True, env=env,
                             timeout=120)
    finally:
        os.close(write_end)
    assert (run.returncode, run.stderr) == (0, "")
    if not listing:
        assert report.read_text(encoding="utf-8") == GOLDEN.read_text(encoding="utf-8")


class FullDisk(io.StringIO):
    """A report file on a full disk: `fails` ("write" or "close") raises ENOSPC.
    A failed close still closes the file, as a real one does."""

    def __init__(self, fails):
        super().__init__()
        self.fails = fails

    def write(self, text):
        if self.fails == "write":
            raise OSError(errno.ENOSPC, "No space left on device")
        return super().write(text)

    def close(self):
        if not self.closed:
            super().close()
            if self.fails == "close":
                raise OSError(errno.ENOSPC, "No space left on device")


@pytest.mark.parametrize("fails", ["write", "close"])
def test_report_that_cannot_be_written_exits_2(monkeypatch, capsys, fails):
    """The checks ran and the summary was printed; the report is unusable output."""
    monkeypatch.setattr(cli, "open", lambda path, mode, encoding: FullDisk(fails), raising=False)
    assert main(["--builtin", "two_points", "--report", "full.txt"]) == 2
    captured = capsys.readouterr()
    assert "total: 5 pass, 0 fail, 0 skip" in captured.out
    assert captured.err == ("rhamcheck: full.txt: [Errno %d] No space left on device\n"
                            % errno.ENOSPC)


def test_cli_writes_report(tmp_path):
    report = tmp_path / "report.txt"
    assert main(["--builtin", "two_points", "--report", str(report)]) == 0
    text = report.read_text()
    assert text.startswith("format_version 1")
    assert "check.two_points.h0.status pass" in text
    assert "seed" in text


@pytest.mark.parametrize("where", ["directory", "missing_parent"])
def test_unwritable_report_path_exits_2(tmp_path, capsys, where):
    report = tmp_path if where == "directory" else tmp_path / "no_such_dir" / "report.txt"
    assert main(["--builtin", "two_points", "--report", str(report)]) == 2
    captured = capsys.readouterr()
    # the path is refused before the first check runs
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("rhamcheck: ") and str(report) in lines[0], lines


def test_coboundary_pairing_needs_a_boundary_complex(tmp_path):
    text = MINIMAL + "\n[check c]\nkind coboundary_pairing\ncomplex delta3\n"
    with pytest.raises(ValidationError) as err:
        Scenario(text)
    assert "boundary" in str(err.value)
    path = tmp_path / "coboundary.scn"
    path.write_text(text)
    assert main(["--scenario", str(path)]) == 2
    results = run_scenario_checks(Scenario(text.replace("delta3", "boundary3")), Settings())
    assert [r.status for r in results] == ["pass", "pass"]


LINE = """
format_version 1
name line

[algebra]
variables x

[form f]
degree 0
expr x

[form one]
degree 0
expr 1

[form w]
degree 1
expr dx

[simplex s]
dim 1
component t1

[simplex pt]
dim 0
component 0

[family seg]
simplices s

[family pts]
simplices pt

[chain z]
family seg
degree 1
term 1 s

[chain p]
family pts
degree 0
term 1 pt

[check c]
kind {}
{}
"""


@pytest.mark.parametrize(
    "kind, wrong, right",
    [
        ("idempotent_table", "forms f\nsimplices s", "forms w\nsimplices s"),
        ("chain_map", "form w\nsimplex s", "form f\nsimplex s"),
        ("pairing", "form f\nchain z\nexpect 1", "form w\nchain z\nexpect 1"),
        ("multiplicativity", "form1 one\nform2 w\nchain p", "form1 one\nform2 one\nchain p"),
    ],
    ids=["idempotent_table", "chain_map", "pairing", "multiplicativity"],
)
def test_scenario_rejects_form_degree_mismatch(tmp_path, kind, wrong, right):
    text = LINE.format(kind, wrong)
    with pytest.raises(ValidationError) as err:
        Scenario(text)
    assert "check c" in str(err.value) and "degree" in str(err.value)
    path = tmp_path / "degrees.scn"
    path.write_text(text)
    assert main(["--scenario", str(path)]) == 2
    scenario = Scenario(LINE.format(kind, right))
    assert [r.status for r in run_scenario_checks(scenario, Settings())] == ["pass"]
    with pytest.raises(DimensionMismatch):
        period(scenario.forms["f"], scenario.simplices["s"])


@pytest.mark.parametrize(
    "argv, line",
    [
        (["--builtin", "interval", "--max-weight", "-1"], None),
        (["--builtin", "interval", "--max-weight", "0"], None),
        (["--builtin", "interval", "--max-weight", "17"], "rhamcheck: --max-weight 17 is above 16"),
        (["--builtin", "tau_witness", "--max-weight", "1000000"],
         "rhamcheck: --max-weight 1000000 is above 16"),
        (["--builtin", "tau_witness", "--max-weight", "0"], None),
        (["--builtin", "two_points", "--quad-order", "0"], None),
        (["--builtin", "two_points", "--quad-order", "-3"], None),
        (["--builtin", "two_points", "--quad-order", "100000"], None),
        (["--builtin", "two_points", "--tolerance", "-0.5"], None),
        (["--builtin", "two_points", "--tolerance", "nan"], None),
        (["--builtin", "two_points", "--tolerance", "inf"],
         "rhamcheck: --tolerance inf is not a finite non-negative number"),
        (["--builtin", "two_points", "--tolerance", "1e400"],
         "rhamcheck: --tolerance inf is not a finite non-negative number"),
        (["--builtin", "two_points", "--check", "no_such_check"],
         "rhamcheck: --check 'no_such_check' matches no check"),
        (["--builtin", "two_points", "--check", "h0,no_such_check"],
         "rhamcheck: --check 'no_such_check' matches no check"),
        (["--builtin", "two_points", "--check", ""], "rhamcheck: --check '' matches no check"),
        (["--builtin", "two_points", "--check", "h0,,x"],
         "rhamcheck: --check '', 'x' matches no check"),
    ],
    ids=["weight<0", "weight<degree", "weight_too_large", "weight_far_too_large", "weight<dim",
         "quad0", "quad<0", "quad_too_large", "tol<0",
         "tol_nan", "tol_inf", "tol_overflow", "check", "check_part", "check_empty", "check_empty_part"],
)
def test_out_of_range_flags_exit_2(capsys, argv, line):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("rhamcheck: "), lines
    if line is not None:
        assert lines[0] == line


def test_max_weight_zero_is_honoured():
    scenario = load_builtin("two_points")
    results = run_scenario_checks(scenario, Settings(max_weight=0), check_filter={"h0"})
    h0 = [r for r in results if r.name == "h0"][0]
    # at weight 0 only the constants are left, so H^0 has dimension 1, not 2
    assert ("max_weight", "0") in h0.details and ("dimension", "1") in h0.details
    assert h0.status == "fail"


CIRCLE_CLASS = """
format_version 1
name circle_class

[algebra]
variables x y
relation x^2 + y^2 - 1

[form omega]
degree 1
expr x^3*dy - y^3*dx

[check h]
kind cohomology
degree 1
max_weight {}
class_nonzero omega
"""


@pytest.mark.parametrize(
    "max_weight, flags, cutoff",
    [("2", [], 2), ("5", ["--max-weight", "3"], 3)],
    ids=["scenario", "flag"],
)
def test_class_of_a_form_above_the_cutoff_is_refused(tmp_path, capsys, max_weight, flags,
                                                     cutoff):
    path = tmp_path / "circle.scn"
    path.write_text(CIRCLE_CLASS.format(max_weight))
    assert main(["--scenario", str(path)] + flags) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "rhamcheck: check h: class_nonzero: form omega has weight 4, above max_weight %d"
        % cutoff
    ]
    # at the form's own weight the class is read and is nonzero
    path.write_text(CIRCLE_CLASS.format("5"))
    assert main(["--scenario", str(path), "--max-weight", "4"]) == 0


def test_class_above_the_scenario_cutoff_is_refused_whatever_the_flags(tmp_path, capsys):
    path = tmp_path / "circle.scn"
    path.write_text(CIRCLE_CLASS.format("2"))
    assert main(["--scenario", str(path), "--max-weight", "4"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "rhamcheck: check h: class_nonzero: form omega has weight 4, above max_weight 2"
    ]


def test_class_above_the_cutoff_is_refused_when_the_scenario_loads():
    """In-process callers of run_scenario_checks get no validate_settings pass."""
    with pytest.raises(ValidationError) as caught:
        Scenario(CIRCLE_CLASS.format("2"))
    assert str(caught.value) == (
        "check h: class_nonzero: form omega has weight 4, above max_weight 2"
    )
    (result,) = run_scenario_checks(Scenario(CIRCLE_CLASS.format("4")), Settings())
    assert result.status == "pass"


def test_console_output_follows_redirected_stdout():
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        assert main(["--list"]) == 0
        assert main(["--builtin", "two_points"]) == 0
    text = buffer.getvalue()
    assert "two_points" in text and "total: 5 pass, 0 fail, 0 skip" in text


# One check over LINE per kind, with its required keys only: the loader
# fills in every default through the key's own type.
REQUIRED_KEYS = {
    "validate": {"simplices": "s"},
    "cohomology": {"degree": "0"},
    "poincare": {},
    "chain_map": {"form": "f", "simplex": "s"},
    "chain_map_random": {},
    "naturality_random": {},
    "pairing": {"form": "w", "chain": "z"},
    "multiplicativity": {"form1": "one", "form2": "one", "chain": "p"},
    "idempotent_table": {"forms": "w", "simplices": "s"},
    "tau_witness": {"dim": "2", "alpha": "t1", "beta": "dt1"},
    "tau_chain_map": {},
    "tau_cohomology": {"complex": "boundary2"},
    "aw_laws": {},
    "extension": {"complex": "boundary2"},
    "simplicial_cohomology": {"complex": "boundary2", "dims": "1 1"},
    "coboundary_pairing": {"complex": "boundary3"},
}

# A malformed, out-of-range or undefined value for each key type.
MALFORMED = {
    COUNT: "-3",
    _dim: "11",
    RANDOM_DIM: "0",
    RANDOM_DEGREE: "-3",
    RANDOM_COUNT: "101",
    NUM_VARS: "5",
    FLAG: "yes",
    VERDICT: "valdi",
    _tolerance: "abc",
    _number: "pi",
    FORM: "ghost",
    FORMS: "w ghost",
    SIMPLEX: "ghost",
    SIMPLICES: "s ghost",
    CHAIN: "ghost",
    COMPLEX: "cube3",
    BOUNDARY: "delta2",
    COUNTS: "1 x",
    WEIGHT: "17",
    _text: "t1 +",
}


def _check_text(kind, keys):
    return LINE.format(kind, "\n".join("%s %s" % kv for kv in keys.items()))


def _refusal(tmp_path, capsys, text):
    """The stderr lines of a CLI run of `text`, which must exit 2."""
    path = tmp_path / "check.scn"
    path.write_text(text)
    assert main(["--scenario", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    return captured.err.splitlines()


def test_scenario_file_that_is_not_utf8_exits_2(tmp_path, capsys):
    path = tmp_path / "latin1.scn"
    path.write_bytes(b"format_version 1\nname caf\xe9\xff\n")
    assert main(["--scenario", str(path)]) == 2
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert captured.out == "" and len(lines) == 1, lines
    assert lines[0].startswith("rhamcheck: %s: not UTF-8 text" % path), lines


def test_check_keys_cover_every_kind():
    assert set(CHECK_KEYS) == set(CHECK_KINDS) == set(REQUIRED_KEYS)
    for kind, keys in CHECK_KEYS.items():
        required = {key for key, (_, default) in keys.items() if default is REQUIRED}
        assert set(REQUIRED_KEYS[kind]) == required, kind
        check = Scenario(_check_text(kind, REQUIRED_KEYS[kind])).checks[0]
        assert set(check.params) == set(keys)
    # defaults are parsed by the key's type, like values from the file
    aw = Scenario(_check_text("aw_laws", {})).checks[0]
    assert aw.params == {"complex": standard_simplex(3), "count": 30}


@pytest.mark.parametrize(
    "kind, key",
    [(kind, key) for kind, keys in REQUIRED_KEYS.items() for key in keys],
    ids=["%s-%s" % (kind, key) for kind, keys in REQUIRED_KEYS.items() for key in keys],
)
def test_check_refuses_missing_required_key(tmp_path, capsys, kind, key):
    keys = {k: v for k, v in REQUIRED_KEYS[kind].items() if k != key}
    lines = _refusal(tmp_path, capsys, _check_text(kind, keys))
    assert lines == ["rhamcheck: check c: %s: missing required key" % key]


@pytest.mark.parametrize(
    "kind, key",
    [(kind, key) for kind, keys in CHECK_KEYS.items() for key in keys],
    ids=["%s-%s" % (kind, key) for kind, keys in CHECK_KEYS.items() for key in keys],
)
def test_check_refuses_malformed_value(tmp_path, capsys, kind, key):
    parse, _ = CHECK_KEYS[kind][key]
    keys = dict(REQUIRED_KEYS[kind], **{key: MALFORMED[parse]})
    lines = _refusal(tmp_path, capsys, _check_text(kind, keys))
    assert len(lines) == 1 and lines[0].startswith("rhamcheck: check c: %s: " % key), lines


@pytest.mark.parametrize(
    "text, message",
    [
        (_check_text("pairing", {"form": "w", "chain": "z", "tolerence": "1e-30"}),
         "tolerence: unknown key for kind pairing"),
        (_check_text("chain_map_random", {"num_vars": "5"}), "num_vars: '5' is not one of 1|2|3"),
        (_check_text("chain_map_random", {"count": "-3"}), "count: -3 is below 0"),
        (_check_text("extension", {"complex": "delta2"}),
         "complex: delta2 is not a boundary complex"),
        (_check_text("tau_witness", {"dim": "2", "alpha": "t1 +", "beta": "dt1"}), "alpha: "),
        (_check_text("cohomology", {"degree": "2", "max_weight": "1"}),
         "max_weight: 1 is below degree 2"),
        (_check_text("cohomology", {"degree": "1", "max_weight": "1000000"}),
         "max_weight: 1000000 is above 16"),
        (_check_text("tau_cohomology", {"complex": "boundary3", "max_weight": "17"}),
         "max_weight: 17 is above 16"),
        (_check_text("torsion", {}), "kind: unknown kind 'torsion'"),
        (LINE.format("", "").replace("kind \n", ""), "kind: missing required key"),
        (_check_text("simplicial_cohomology", {"complex": "boundary2", "dims": "1 1 0"}),
         "dims: 3 degrees, but boundary2 has cohomology only in degrees 0..1"),
        (_check_text("coboundary_pairing", {"complex": "boundary1"}),
         "complex: the cycle of boundary1 has degree 0"),
        (_check_text("aw_laws", {"complex": "delta0"}), "complex: delta0 has only vertices"),
        (_check_text("aw_laws", {"complex": "boundary1"}), "complex: boundary1 has only vertices"),
        (_check_text("aw_laws", {"complex": "delta99999999999"}),
         "complex: delta99999999999 is above delta10"),
        (_check_text("tau_witness", {"dim": "14", "alpha": "t1", "beta": "dt1"}),
         "dim: 14 is above 10"),
        (_check_text("tau_cohomology", {"complex": "boundary4", "max_weight": "2"}),
         "max_weight: 2 is below 3, the degree of the top class of boundary4"),
        (_check_text("tau_cohomology", {"complex": "boundary5"}),
         "max_weight: 3 is below 4, the degree of the top class of boundary5"),
        # the class is read off the stratum of the check's degree, which the form
        # does not fit: this ended in a ValueError traceback
        (_check_text("cohomology", {"degree": "0", "class_nonzero": "w"}),
         "class_nonzero: form w has degree 1, but the check has degree 0"),
        # the truncation is taken in the scenario's algebra: this ended in an
        # AttributeError traceback
        ("format_version 1\nname noalg\n\n[check c]\nkind cohomology\ndegree 0\n",
         "declared without an [algebra] section"),
        # random sizes that ran for minutes: each is bounded now
        (_check_text("poincare", {"max_dim": "40", "max_degree": "6"}), "max_dim: 40 is above 10"),
        (_check_text("poincare", {"max_degree": "40"}), "max_degree: 40 is above 8"),
        (_check_text("tau_chain_map", {"max_dim": "16"}), "max_dim: 16 is above 10"),
        (_check_text("extension", {"complex": "boundary3", "count": "8",
                                   "max_coeff_degree": "40"}),
         "max_coeff_degree: 40 is above 8"),
        (_check_text("tau_chain_map", {"count": "500"}), "count: 500 is above 100"),
        (_check_text("extension", {"complex": "boundary3", "count": "101"}),
         "count: 101 is above 100"),
    ],
    ids=["typo", "num_vars", "count", "extension_delta", "tau_witness", "weight",
         "weight_too_large", "tau_weight_too_large", "kind",
         "no_kind", "dims_above_dimension", "coboundary_of_degree_0", "aw_laws_on_delta0",
         "aw_laws_on_boundary1", "complex_too_large", "tau_witness_dim_too_large",
         "tau_boundary4_below_its_top_degree", "tau_boundary5_at_the_default_weight",
         "class_of_another_degree", "cohomology_without_algebra", "poincare_dim_too_large",
         "poincare_degree_too_large", "tau_chain_map_dim_too_large",
         "extension_degree_too_large", "tau_chain_map_count_too_large",
         "extension_count_too_large"],
)
def test_check_refusal_names_check_and_key(tmp_path, capsys, text, message):
    lines = _refusal(tmp_path, capsys, text)
    assert len(lines) == 1 and lines[0].startswith("rhamcheck: check c: " + message), lines


def test_max_weight_at_its_bound_is_accepted():
    scenario = Scenario(_check_text("tau_cohomology", {"complex": "boundary3",
                                                       "max_weight": str(MAX_WEIGHT)}))
    assert scenario.checks[0].params["max_weight"] == MAX_WEIGHT == 16
    validate_settings(Settings(max_weight=MAX_WEIGHT), [scenario])


@pytest.mark.parametrize("complex_, max_weight",
                         [("delta3", 1), ("boundary3", 2), ("boundary4", 3)])
def test_tau_cohomology_loads_at_any_cutoff_its_top_class_allows(complex_, max_weight):
    """On delta<k> every degree above 0 has H = 0, so a low cutoff is right there;
    boundary<k> needs a cutoff of at least k - 1, its top degree."""
    text = _check_text("tau_cohomology", {"complex": complex_, "max_weight": str(max_weight)})
    assert [r.status for r in run_scenario_checks(Scenario(text), Settings())] == ["pass"]


def _run_scenario_text(tmp_path, capsys, text, flags):
    path = tmp_path / "cutoff.scn"
    path.write_text(text)
    code = main(["--scenario", str(path)] + flags)
    captured = capsys.readouterr()
    return code, captured.err.splitlines()


@pytest.mark.parametrize(
    "text, above, cutoff, refusal",
    [
        (_check_text("tau_cohomology", {"complex": "delta3", "max_weight": "{}"}), 3, 1, None),
        (_check_text("tau_cohomology", {"complex": "boundary4", "max_weight": "{}"}), 3, 2,
         "check c: {key}: 2 is below 3, the degree of the top class of boundary4"),
        (_check_text("cohomology", {"degree": "2", "max_weight": "{}"}), 4, 1,
         "check c: {key}: 1 is below degree 2"),
        (CIRCLE_CLASS, 4, 2, "check h: class_nonzero: form omega has weight 4, above max_weight 2"),
    ],
    ids=["delta3_at_1", "boundary4_at_2", "degree_2_at_1", "class_weight_4_at_2"],
)
def test_cutoff_gets_one_verdict_from_the_file_and_the_flag(tmp_path, capsys, text, above,
                                                            cutoff, refusal):
    """A cutoff given as the check's max_weight and as --max-weight (over a file
    whose max_weight is high enough) is accepted or refused alike."""
    from_file = _run_scenario_text(tmp_path, capsys, text.format(cutoff), [])
    from_flag = _run_scenario_text(tmp_path, capsys, text.format(above),
                                   ["--max-weight", str(cutoff)])
    if refusal is None:
        assert from_file == from_flag == (0, [])
    else:
        assert from_file == (2, ["rhamcheck: " + refusal.format(key="max_weight")])
        assert from_flag == (2, ["rhamcheck: " + refusal.format(key="--max-weight")])


# One section of each SECTION_KEYS kind, as label -> {key: [text per line]};
# the section tests below edit one key of one section.
SECTIONS = {
    "header": {"format_version": ["1"], "name": ["sections"], "description": ["one of each"]},
    "algebra": {"variables": ["x"], "relation": ["x^2 - 1"]},
    "form e": {"degree": ["0"], "expr": ["(1 + x)/2"]},
    "simplex pt": {"dim": ["0"], "lane": ["exact"], "component": ["1"]},
    "family pts": {"simplices": ["pt"]},
    "chain z": {"family": ["pts"], "degree": ["0"], "term": ["1 pt"]},
}

# A malformed, out-of-range or undefined value for each section key that
# can have one: a description is any text, and a form's degree has its
# own test_scenario_rejects_malformed_form_degree.
SECTION_MALFORMED = {
    ("header", "format_version"): "2",
    ("header", "name"): "two words",
    ("algebra", "variables"): "x x",
    ("algebra", "relation"): "dx",
    ("form e", "expr"): "1/0",
    ("simplex pt", "dim"): "-1",
    ("simplex pt", "lane"): "fast",
    ("simplex pt", "component"): "1/0",
    ("family pts", "simplices"): "ghost",
    ("chain z", "family"): "ghost",
    ("chain z", "degree"): "-1",
    ("chain z", "term"): "one pt",
}

SECTION_KEY_CASES = [(label, key) for label, keys in SECTIONS.items() for key in keys]


def _sections_text(edits=(), extra=""):
    """SECTIONS as scenario text, each {(label, key): texts} of `edits` setting
    a key's lines (None drops the key), with `extra` appended."""
    edits = dict(edits)
    lines = []
    for label, keys in SECTIONS.items():
        if label != "header":
            lines += ["", "[%s]" % label]
        keys = dict(keys, **{key: texts for (at, key), texts in edits.items() if at == label})
        lines += ["%s %s" % (key, text) for key, texts in keys.items() if texts for text in texts]
    return "\n".join(lines) + "\n" + extra


def _one_refusal(tmp_path, capsys, text):
    lines = _refusal(tmp_path, capsys, text)
    assert len(lines) == 1, lines
    return lines[0]


def test_section_keys_cover_every_section():
    assert list(SECTION_KEYS) == [label.split()[0] for label in SECTIONS]
    for label, keys in SECTIONS.items():
        assert set(keys) == set(SECTION_KEYS[label.split()[0]]), label
    assert set(SECTION_MALFORMED) == set(SECTION_KEY_CASES) - {("header", "description"),
                                                                ("form e", "degree")}
    scenario = Scenario(_sections_text())
    assert scenario.name == "sections" and scenario.description == "one of each"
    assert scenario.chains["z"].coeffs == {"pt": 1}


@pytest.mark.parametrize(
    "label, key",
    [(label, key) for label, key in SECTION_KEY_CASES
     if SECTION_KEYS[label.split()[0]][key][1] is REQUIRED],
    ids=lambda value: value.replace(" ", "_"),
)
def test_section_refuses_missing_required_key(tmp_path, capsys, label, key):
    line = _one_refusal(tmp_path, capsys, _sections_text({(label, key): None}))
    assert line == "rhamcheck: %s: %s: missing required key" % (label, key)


@pytest.mark.parametrize("label, key", sorted(SECTION_MALFORMED),
                         ids=lambda value: value.replace(" ", "_"))
def test_section_refuses_malformed_value(tmp_path, capsys, label, key):
    text = _sections_text({(label, key): [SECTION_MALFORMED[label, key]]})
    line = _one_refusal(tmp_path, capsys, text)
    assert line.startswith("rhamcheck: %s: %s: " % (label, key)), line


@pytest.mark.parametrize("label", list(SECTIONS), ids=lambda value: value.replace(" ", "_"))
def test_section_refuses_unknown_key(tmp_path, capsys, label):
    line = _one_refusal(tmp_path, capsys, _sections_text({(label, "colour"): ["blue"]}))
    assert line == "rhamcheck: %s: colour: unknown key for %s" % (label, label.split()[0])


@pytest.mark.parametrize(
    "label, key",
    [(label, key) for label, key in SECTION_KEY_CASES
     if not getattr(SECTION_KEYS[label.split()[0]][key][0], "repeats", False)],
    ids=lambda value: value.replace(" ", "_"),
)
def test_section_refuses_repeated_single_valued_key(tmp_path, capsys, label, key):
    text = _sections_text({(label, key): SECTIONS[label][key] * 2})
    line = _one_refusal(tmp_path, capsys, text)
    assert line == "rhamcheck: %s: %s: given 2 times" % (label, key)


@pytest.mark.parametrize("label", [label for label in SECTIONS if label != "header"] + ["check c"],
                         ids=lambda value: value.replace(" ", "_"))
def test_section_refuses_second_section_of_one_name(tmp_path, capsys, label):
    # the header is every line before the first section, so it has no second
    second = "\n[%s]\n" % label + "".join(
        "%s %s\n" % (key, text) for key, texts in SECTIONS.get(label, {}).items() for text in texts)
    check = "\n[check c]\nkind aw_laws\ncount 1\n"
    line = _one_refusal(tmp_path, capsys, _sections_text(extra=check + second))
    assert line.endswith(": %s: second section of that name" % label), line


# Refusals beyond one bad key each; the tests above already take the other
# inputs that used to load or end in a traceback (`colour blue`, two `expr`
# lines, two [form e] or [check c] sections, `dim -1`, `variables x x`,
# `expr 1/0`, `component 1/0`, `relation dx`).
@pytest.mark.parametrize(
    "text, message",
    [
        (_sections_text({("form e", "degre"): ["2"]}), "form e: degre: unknown key for form"),
        (_sections_text({("family pts", "simplex"): ["pt"]}),
         "family pts: simplex: unknown key for family"),
        (_sections_text({("simplex pt", "component"): ["dt1"], ("simplex pt", "dim"): ["1"]}),
         "simplex pt: component: 'dt1' is a 1-form, not a scalar"),
        (_sections_text({("simplex pt", "component"): ["1", "0"]}),
         "simplex pt: component: expected 1 components, got 2"),
        (_sections_text({("algebra", "relation"): ["0"]}),
         "algebra: relation: zero ideal generator"),
        (_sections_text({("algebra", "variables"): ["x y"], ("algebra", "relation"): ["x/y"],
                         ("simplex pt", "component"): ["1", "1"]}),
         "algebra: relation: rational coefficient x/(y)"),
        (_sections_text({("chain z", "degree"): ["1"]}),
         "chain z: term: family pts has no 1-simplex 'pt'"),
        (_sections_text({("simplex pt", "component"): ["2"]}),
         "family pts: simplices: generator 0 leaves residual 3 on pt"),
        (_sections_text({("simplex pt", "dim"): ["14"]}), "simplex pt: dim: 14 is above 10"),
        # these two ended in a RecursionError and a ValueError traceback
        (_sections_text({("form e", "expr"): ["(" * 300 + "x" + ")" * 300]}),
         "form e: expr: parentheses nested deeper than 100"),
        (_sections_text({("algebra", "relation"): ["2²*x - 1"]}),
         "algebra: relation: unexpected character '²' in '2²*x - 1'"),
        (_sections_text({("form e", "expr"): ["x/(1 + x^2)"]}),
         "form e: expr: rational coefficient x/(x^2 + 1) in a polynomial-only context"),
        # these two held the loader for 5.4 s and 2.0 s
        (_sections_text({("algebra", "variables"): ["x y"], ("algebra", "relation"): ["(1+x+y)^150"],
                         ("simplex pt", "component"): ["1", "1"]}),
         "algebra: relation: power of degree 150 is above 64 in '(1+x+y)^150'"),
        (_sections_text({("form e", "expr"): ["(1+x)^2000"]}),
         "form e: expr: power of degree 2000 is above 64 in '(1+x)^2000'"),
        # these two loaded: no text could name 1x, and dx in a form meant the variable
        (_sections_text({("algebra", "variables"): ["x 1x"]}),
         "algebra: variables: '1x' is not a name in form text"),
        (_sections_text({("algebra", "variables"): ["x dx"]}),
         "algebra: variables: 'dx' would read as the differential of 'x'"),
        (_sections_text({("algebra", "relation"): [""]}),
         "algebra: relation: text ends where a value is expected in ''"),
    ],
    ids=["degre", "family_simplex", "component_form", "component_count", "relation_zero",
         "relation_fraction", "term_dimension", "off_variety_member", "simplex_dim_too_large",
         "nested_300_deep", "superscript_digit", "form_fraction", "power_150", "power_2000",
         "variable_not_a_name", "variable_beside_its_differential", "relation_empty"],
)
def test_section_refusal_names_section_and_key(tmp_path, capsys, text, message):
    line = _one_refusal(tmp_path, capsys, text)
    assert line.startswith("rhamcheck: ") and message in line, line


FACE_TERM_SCENARIO = """format_version 1
name face_term

[algebra]
variables x y
relation x^2 + y^2 - 1

[form x]
degree 0
expr x

[simplex arc0]
dim 1
lane numeric
component (1 - t1^2)/(1 + t1^2)
component 2*t1/(1 + t1^2)

[family loop]
simplices arc0

[chain z]
family loop
degree 0
term 1 arc0/0

[check pairing]
kind pairing
form x
chain z
"""


def test_chain_term_naming_a_generated_face_is_refused(tmp_path, capsys):
    """`arc0/0` is a face of the listed arc0, named in the order faces are
    closed; a chain may name only the simplices its family lists."""
    line = _one_refusal(tmp_path, capsys, FACE_TERM_SCENARIO)
    assert line.startswith("rhamcheck: ") and line.endswith(
        "chain z: term: 'arc0/0' is not a simplex listed in family loop"), line


def test_relation_of_1000_terms_loads_and_its_check_passes():
    """Sums are folded in a loop: at 1,000 terms the reader used to recurse
    past Python's limit."""
    relation = " + ".join(["x"] * 999) + " - 999"
    text = _sections_text({("algebra", "relation"): [relation]},
                          extra="\n[check v]\nkind validate\nsimplices pt\n")
    scenario = Scenario(text)
    assert scenario.algebra.ideal_generators == [parse_polynomial("999*x - 999", ("x",))]
    assert [r.status for r in run_scenario_checks(scenario, Settings())] == ["pass"]


def test_quotient_relation_loads_as_its_polynomial():
    text = _sections_text({("algebra", "relation"): ["(x^2 - 1)/(x - 1)"],
                           ("simplex pt", "component"): ["-1"]})
    scenario = Scenario(text)
    assert scenario.algebra.ideal_generators == [parse_polynomial("x + 1", ("x",))]
    assert scenario.simplices["pt"].validate() == []


def nonzero(*args, **kwargs):
    """A stand-in for a defect or residual that is not zero."""
    return SimpleNamespace(is_zero=lambda: False)


# kind, its keys, the function of `checks` its property calls -> a stand-in
# that fails, the sampler that makes each draw and how often a draw calls it,
# the failure message (from the first draw's sample) and the details after count
FAILING_DRAWS = [
    ("poincare", "", "homotopy_defect", nonzero, "_random_poly_form", 1,
     lambda sample: "contraction identity failed on %s" % sample, [("max_defect", "nonzero")]),
    ("chain_map_random", "", "chain_map_residual", lambda *args: (Fraction(1, 2), 0),
     "_random_simplex", 1, lambda sample: "nonzero Stokes residual 1/2", [("residual", "nonzero")]),
    ("naturality_random", "", "naturality_residual", nonzero, "_random_simplex", 1,
     lambda sample: "naturality residual nonzero", [("residual", "nonzero")]),
    ("tau_chain_map", "", "coboundary", lambda cochain: object(), "_random_poly_form", 1,
     lambda sample: "integration map failed to be a chain map", []),
    ("aw_laws", "complex delta2", "unit_cochain", lambda K: Cochain(K, 0, {}), "_random_cochain",
     3, lambda sample: "unit law failed",
     [("witness_a", "indicator (0,)"), ("witness_b", "indicator (0, 1)"),
      ("witness_simplex", "(0, 1)")]),
    ("extension", "complex boundary2", "pullback_delta", lambda face, form: object(),
     "_random_poly_form", 1, lambda sample: "extension does not restrict to facet 0",
     [("dimension", "2")]),
    ("coboundary_pairing", "complex boundary3", "pair", lambda cochain, chain: 1,
     "_random_cochain", 1, lambda sample: "coboundary paired nonzero against a cycle",
     [("cycle_degree", "2")]),
]


@pytest.mark.parametrize("kind, keys, name, failing, sampler, per_draw, message, after",
                         FAILING_DRAWS, ids=[case[0] for case in FAILING_DRAWS])
def test_random_check_stops_at_its_first_failing_draw(monkeypatch, kind, keys, name, failing,
                                                      sampler, per_draw, message, after):
    """A property that fails on the first draw fails the check with its message,
    draws nothing more, and still records count before the kind's own details."""
    samples, draw = [], getattr(checks, sampler)

    def spy(*args, **kwargs):
        samples.append(draw(*args, **kwargs))
        return samples[-1]

    monkeypatch.setattr(checks, sampler, spy)
    monkeypatch.setattr(checks, name, failing)
    text = "format_version 1\nname failing\n\n[check c]\nkind %s\ncount 5\n%s\n" % (kind, keys)
    [result] = run_scenario_checks(Scenario(text), Settings())
    assert (result.status, result.message) == ("fail", message(samples[0]))
    assert len(samples) == per_draw
    assert result.details == [("count", "5")] + after
