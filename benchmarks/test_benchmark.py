"""Checks of the benchmark itself: seeded inputs, oracles and span arithmetic.

    PYTHONPATH=src python -m pytest -q benchmarks
"""

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import run  # noqa: E402
import spans  # noqa: E402
import workloads as W  # noqa: E402
from rhamcheck.checks import CheckResult, Settings, run_scenario_checks  # noqa: E402
from rhamcheck.cli import main as cli_main  # noqa: E402
from rhamcheck.scenarios import Scenario  # noqa: E402


def _snapshot(tasks):
    return [(t.label, t.text, t.argv, t.oracle) for t in tasks]


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_same_seed_same_tasks(workload):
    make = W.PASSES[workload]
    assert _snapshot(make(7, 1)) == _snapshot(make(7, 1))
    assert _snapshot(make(7, 1)) != _snapshot(make(8, 1))
    assert _snapshot(make(7, 1)) != _snapshot(make(7, 2))


def _verdict(task):
    settings = Settings(quad_order=task.oracle.get("order", 16))
    try:
        results = run_scenario_checks(Scenario(task.text), settings)
    except Exception as exc:
        return "raised:%s" % type(exc).__name__
    return W.judge_checks(task, results)


def _rng(tag):
    return W.pass_rng("test", 3, tag)


SMALL_TASKS = {
    "loop_pairing": lambda: W.circle_loop_task(_rng(0), "t", 8, 1, False),
    "loop_mult": lambda: W.circle_loop_task(_rng(0), "t", 32, 2, True),
    "circle_points": lambda: W.circle_points_task(_rng(1), "t", 16, 1, 1),
    "patch1": lambda: W.torus_patch_task(_rng(2), "t", 1, 8),
    "torus_cycle": lambda: W.torus_cycle_task(_rng(3), "t", 8),
    "derham": lambda: W.derham_task(_rng(4), "ellipse", 1, 3),
    "family": lambda: W.family_task("boundary2", 2),
}


@pytest.mark.parametrize("kind", sorted(SMALL_TASKS))
def test_oracle_agrees_with_program(kind):
    assert _verdict(SMALL_TASKS[kind]()) is None


@pytest.mark.parametrize("label", ["cohomology:sphere:h1:w5", "families:delta3:w2"])
def test_known_defects_fail_as_listed_or_pass(label):
    task = next(t for t in W.cohomology_pass(3, 0) if t.label == label)
    assert _verdict(task) in (None, W.KNOWN_DEFECTS[label][1])


def test_oracle_rejects_wrong_answers():
    task = W.circle_loop_task(_rng(0), "t", 16, 0, False)
    result = CheckResult("q", "pairing")
    result.detail(task.oracle["key"], task.oracle["exact"] + 1e-3)
    assert W.judge_checks(task, [result]).startswith("oracle:")
    result = CheckResult("h", "cohomology")
    result.detail("dimension", 2)
    assert W.judge_checks(W.derham_task(_rng(4), "ellipse", 1, 3), [result]).startswith("oracle:")


def test_corpus_default_seed_matches_golden(tmp_path):
    task = W.corpus_pass(1, 0)[0]
    assert task.oracle["golden"]
    report = tmp_path / "report.txt"
    code = cli_main(task.argv + ["--report", str(report)])
    golden = (HERE / "golden_report.txt").read_text(encoding="utf-8")
    assert W.judge_report(task, code, report.read_text(encoding="utf-8"), golden) is None
    assert W.judge_report(task, code, golden.replace("pass", "fail", 1), golden) is not None


def test_self_times_fake_clock():
    ticks = iter([0.0, 1.0, 2.0, 4.0, 5.0, 9.0])
    tracer = spans.Tracer(clock=lambda: next(ticks))
    tracer.begin("root")  # 0
    tracer.begin("a")  # 1
    tracer.end()  # 2
    tracer.begin("b")  # 4
    tracer.end()  # 5
    tracer.end()  # 9
    assert tracer.self_times() == [7.0, 1.0, 1.0]
    sums = tracer.summary()["sums"]
    assert sums["root.busy_s"] == 9.0 and sums["root.self_s"] == 7.0 and sums["a.calls"] == 1


def test_traced_task_self_times_add_up():
    import rhamcheck.comparison as comparison
    import rhamcheck.simplex_forms as simplex_forms

    original = simplex_forms.integrate_numeric
    tracer = spans.Tracer()
    uninstall = spans.install(tracer)
    try:
        assert comparison.integrate_numeric is simplex_forms.integrate_numeric is not original
        tracer.begin("bench.trace")
        assert _verdict(W.circle_loop_task(_rng(0), "t", 8, 0, False)) is None
        tracer.end()
    finally:
        uninstall()
    assert comparison.integrate_numeric is simplex_forms.integrate_numeric is original
    own = tracer.self_times()
    for start, end, self_s in zip(tracer.starts, tracer.ends, own):
        assert -1e-12 <= self_s <= end - start + 1e-12
    wall = tracer.ends[0] - tracer.starts[0]
    assert sum(own) == pytest.approx(wall, rel=1e-9, abs=1e-9)
    metrics = spans.layer_metrics(tracer.summary())
    assert metrics["checks.run_check.calls"] == 1
    assert metrics["simplex_forms.integrate_numeric.calls"] > 0
    assert metrics["ratfunc.certify_denominator.distinct"] > 0


def test_normalised_percentiles_cancel_host_speed():
    task = W.family_task("boundary2", 1)
    unit = run.REFERENCE_UNIT_S / 1e-3
    # one task's work on a host that runs at three speeds in turn
    cpus, refs = (0.1, 0.3, 0.2), (1e-3, 3e-3, 2e-3)
    records = [run.Record(task, 0.0, c, None, reference=r) for c, r in zip(cpus, refs)]
    for matched in (True, False):
        for q in (1 / 3, 0.5, 0.9):
            assert run.normalised_percentile(records, q, matched) == pytest.approx(0.1 * unit)
    records[1].verdict = "raised:AssertionError"  # ranks above every success
    assert run.normalised_percentile(records, 0.9, True) == pytest.approx(0.6 * unit / 3)
    assert run.normalised_percentile(records, 0.9, False) == pytest.approx((0.1 + 0.1 + 0.1) * unit)
    # tasks of different sizes, scaled one by one
    records = [run.Record(task, 0.0, c, None, reference=r)
               for c, r in ((0.1, 1e-3), (0.6, 3e-3), (0.2, 2e-3))]
    assert run.normalised_percentile(records, 0.9, False) == pytest.approx(0.2 * unit)


def test_reference_loop_leaves_gc_as_it_was():
    import gc

    assert gc.isenabled()
    assert run.reference_loop(1) > 0
    assert gc.isenabled()


def test_benchmark_json_lists_the_emitted_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == spans.PER_LAYER_METRICS
    assert {w["name"] for w in spec["workloads"]} <= set(run.WORKLOADS)
