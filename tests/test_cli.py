"""Scenario parsing, the check runner, exit codes, and report determinism."""

import pytest

from rhamcheck.checks import Settings, run_scenario_checks
from rhamcheck.cli import main, report_lines, run_scenario
from rhamcheck.errors import ParseError, ValidationError
from rhamcheck.scenarios import Scenario, builtin_names, builtin_text, load_builtin

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
    ],
    ids=["format_version", "dim", "degree", "term", "delta", "boundary", "boundary0"],
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


def test_cli_check_failure_exit(tmp_path):
    failing = MINIMAL.replace("expect 1", "expect 2")
    path = tmp_path / "failing.scn"
    path.write_text(failing)
    assert main(["--scenario", str(path)]) == 1


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


def test_cli_writes_report(tmp_path):
    report = tmp_path / "report.txt"
    assert main(["--builtin", "two_points", "--report", str(report)]) == 0
    text = report.read_text()
    assert text.startswith("format_version 1")
    assert "check.two_points.h0.status pass" in text
    assert "seed" in text
