"""Span tracing of rhamcheck's layers, from outside the program.

`install` rebinds each traced entry point in every `rhamcheck` module
that binds the name (a function imported into three modules is wrapped
in all three), and wraps methods and constructors on their class.  The
only private entry traced is `derham._WeightStratum`, the stratum build,
which has no public entry.  Spans (name, start, end, parent) stay in
memory; `summary` folds them into per-layer totals, and the caller
writes spans and totals out when the run ends.

A span's self time is its duration minus the time covered by its child
spans.  Calls are strictly nested on one thread, so the children of a
span are disjoint and the self times of all spans add up to the
duration of the root span.
"""

from __future__ import annotations

import importlib
import sys
import time


class Tracer:
    """Records nested spans and per-layer counters in memory."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names = []  # span name per span
        self.starts = []
        self.ends = []
        self.parents = []  # index of the parent span, -1 for a root
        self._stack = []
        self.sums = {}
        self.maxes = {}
        self.sets = {}

    def begin(self, name):
        self.names.append(name)
        self.starts.append(self.clock())
        self.ends.append(None)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self._stack.append(len(self.names) - 1)

    def end(self):
        index = self._stack.pop()
        self.ends[index] = self.clock()

    def add(self, key, value=1):
        self.sums[key] = self.sums.get(key, 0) + value

    def high(self, key, value):
        if value > self.maxes.get(key, value - 1):
            self.maxes[key] = value

    def distinct(self, key, item):
        self.sets.setdefault(key, set()).add(item)

    def self_times(self):
        """Per span: duration minus the durations of its direct children."""
        covered = [0.0] * len(self.names)
        for i, parent in enumerate(self.parents):
            if parent >= 0:
                covered[parent] += self.ends[i] - self.starts[i]
        return [self.ends[i] - self.starts[i] - covered[i] for i in range(len(self.names))]

    def summary(self):
        """Per-name calls, busy and self time, plus the counters; JSON-ready."""
        sums = dict(self.sums)
        for name, start, end, own in zip(self.names, self.starts, self.ends, self.self_times()):
            sums[name + ".calls"] = sums.get(name + ".calls", 0) + 1
            sums[name + ".busy_s"] = sums.get(name + ".busy_s", 0.0) + (end - start)
            sums[name + ".self_s"] = sums.get(name + ".self_s", 0.0) + own
        return {
            "sums": sums,
            "maxes": dict(self.maxes),
            "sets": {k: sorted(v) for k, v in self.sets.items()},
        }

    def spans(self):
        return [
            [n, s, e, p]
            for n, s, e, p in zip(self.names, self.starts, self.ends, self.parents)
        ]


def merge(summaries):
    out = {"sums": {}, "maxes": {}, "sets": {}}
    for s in summaries:
        for k, v in s["sums"].items():
            out["sums"][k] = out["sums"].get(k, 0) + v
        for k, v in s["maxes"].items():
            out["maxes"][k] = max(out["maxes"].get(k, v), v)
        for k, v in s["sets"].items():
            out["sets"][k] = sorted(set(out["sets"].get(k, [])) | set(v))
    return out


# ---------------------------------------------------------------------------
# counters taken at the traced entries: hook(tracer, args, kwargs, result)


def _denominator(tracer, args, kwargs, result):
    den = args[0].den
    tracer.distinct("ratfunc.certify_denominator.distinct",
                    repr((den.variables, sorted(den.terms.items()))))


def _nodes(tracer, args, kwargs, result):
    from rhamcheck.simplex_forms import DEFAULT_QUAD_ORDER

    alpha = args[0]
    order = args[1] if len(args) > 1 else kwargs.get("order", DEFAULT_QUAD_ORDER)
    if alpha.n > 0:
        tracer.add("simplex_forms.integrate_numeric.nodes",
                   order ** alpha.n + (order + 4) ** alpha.n)


def _family_size(tracer, args, kwargs, result):
    tracer.add("comparison.SingularFamily.simplices", len(args[0].simplex_of))


def _stratum_size(tracer, args, kwargs, result):
    tracer.add("derham.stratum.size", args[0].size)


def _elimination(tracer, rows, cols):
    """Record one elimination: its path (dense or sparse) and its size."""
    from rhamcheck.linalg import DENSE_LIMIT

    tracer.add("linalg.eliminations")
    if not (rows < DENSE_LIMIT and cols < DENSE_LIMIT):
        tracer.add("linalg.sparse_eliminations")
    tracer.high("linalg.max_dim", max(rows, cols))


def _kernel(tracer, args, kwargs, result):
    _elimination(tracer, args[0].rows, args[0].cols)


def _solve(tracer, args, kwargs, result):
    _elimination(tracer, args[0].rows, args[0].cols + 1)  # solve eliminates [A | b]
    if result is None:
        tracer.add("linalg.solve.none")


# (span name, module, attribute path, counter hook)
TRACE_POINTS = (
    ("checks.run_check", "rhamcheck.checks", "run_check", None),
    ("scenarios.Scenario", "rhamcheck.scenarios", "Scenario.__init__", None),
    ("comparison.SingularFamily", "rhamcheck.comparison", "SingularFamily.__init__", _family_size),
    ("comparison.ParamSimplex.validate", "rhamcheck.comparison", "ParamSimplex.validate", None),
    ("comparison.pullback_form", "rhamcheck.comparison", "pullback_form", None),
    ("ratfunc.certify_denominator", "rhamcheck.ratfunc", "RationalFunc.certify_denominator",
     _denominator),
    ("simplex_forms.integrate_numeric", "rhamcheck.simplex_forms", "integrate_numeric", _nodes),
    ("simplex_forms.integrate_exact", "rhamcheck.simplex_forms", "integrate_exact", None),
    ("simplex_forms.pullback_delta", "rhamcheck.simplex_forms", "pullback_delta", None),
    ("simplex_forms.FamilyComplex", "rhamcheck.simplex_forms", "FamilyComplex.__init__", None),
    ("simplicial.aw_cup", "rhamcheck.simplicial", "aw_cup", None),
    ("simplicial.simplicial_cohomology", "rhamcheck.simplicial", "simplicial_cohomology", None),
    ("poly.normal_form", "rhamcheck.poly", "normal_form", None),
    ("poly.groebner_basis", "rhamcheck.poly", "groebner_basis", None),
    ("derham.FpAlgebra", "rhamcheck.derham", "FpAlgebra.__init__", None),
    ("derham.stratum", "rhamcheck.derham", "_WeightStratum.__init__", _stratum_size),
    ("derham.truncated_cohomology", "rhamcheck.derham", "truncated_cohomology", None),
    ("linalg.kernel_image", "rhamcheck.linalg", "kernel_image", _kernel),
    ("linalg.kernel_image_of_columns", "rhamcheck.linalg", "kernel_image_of_columns", _kernel),
    ("linalg.solve", "rhamcheck.linalg", "solve", _solve),
)

# Per-layer metrics as (name, unit); BENCHMARK.json lists the same.
_STATS = {
    "checks.run_check": ("calls", "busy_s"),
    "scenarios.Scenario": ("calls", "self_s"),
    "comparison.SingularFamily": ("calls", "self_s", "simplices"),
    "comparison.ParamSimplex.validate": ("calls", "self_s"),
    "comparison.pullback_form": ("calls", "self_s"),
    "ratfunc.certify_denominator": ("calls", "self_s", "distinct"),
    "simplex_forms.integrate_numeric": ("calls", "self_s", "nodes"),
    "simplex_forms.integrate_exact": ("calls", "self_s"),
    "simplex_forms.pullback_delta": ("calls", "self_s"),
    "simplex_forms.FamilyComplex": ("calls", "self_s"),
    "simplicial.aw_cup": ("calls", "self_s"),
    "simplicial.simplicial_cohomology": ("calls", "self_s"),
    "poly.normal_form": ("calls", "self_s"),
    "poly.groebner_basis": ("calls", "self_s"),
    "derham.FpAlgebra": ("calls", "self_s"),
    "derham.stratum": ("calls", "self_s", "size"),
    "derham.truncated_cohomology": ("calls", "busy_s"),
    "linalg.kernel_image": ("calls", "self_s"),
    "linalg.kernel_image_of_columns": ("calls", "self_s"),
    "linalg.solve": ("calls", "self_s", "none"),
}
_UNITS = {"calls": "count", "busy_s": "s", "self_s": "s", "simplices": "count",
          "distinct": "count", "nodes": "count", "size": "count", "none": "count"}
PER_LAYER_METRICS = [
    ("%s.%s" % (prefix, stat), _UNITS[stat]) for prefix, stats in _STATS.items() for stat in stats
] + [
    ("linalg.sparse_share", "share"),
    ("linalg.max_dim", "count"),
    ("trace.wall_s", "s"),
    ("trace.untraced_wall_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.tasks", "count"),
]


def layer_metrics(summary):
    """Per-layer metric values (all of PER_LAYER_METRICS but the trace.* ones)."""
    sums, maxes, sets = summary["sums"], summary["maxes"], summary["sets"]
    out = {}
    for name, _ in PER_LAYER_METRICS:
        if name.startswith("trace."):
            continue
        if name.endswith(".distinct"):
            out[name] = len(sets.get(name, ()))
        elif name == "linalg.sparse_share":
            total = sums.get("linalg.eliminations", 0)
            out[name] = sums.get("linalg.sparse_eliminations", 0) / total if total else 0.0
        elif name == "linalg.max_dim":
            out[name] = maxes.get(name, 0)
        else:
            out[name] = sums.get(name, 0)
    return out


# ---------------------------------------------------------------------------
# rebinding


def _resolve(module_name, path):
    owner = importlib.import_module(module_name)
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


def _wrap(tracer, name, fn, hook):
    def traced(*args, **kwargs):
        tracer.begin(name)
        try:
            result = fn(*args, **kwargs)
            if hook is not None:
                hook(tracer, args, kwargs, result)
            return result
        finally:
            tracer.end()

    traced.__wrapped__ = fn
    traced.__name__ = getattr(fn, "__name__", name)
    return traced


def install(tracer):
    """Wrap every trace point; returns a function that restores the originals."""
    for module_name in ("rhamcheck", "rhamcheck.checks", "rhamcheck.cli"):
        importlib.import_module(module_name)
    restore = []
    for name, module_name, path, hook in TRACE_POINTS:
        owner, attr = _resolve(module_name, path)
        original = owner.__dict__[attr]
        wrapper = _wrap(tracer, name, original, hook)
        if isinstance(owner, type):
            restore.append((owner, attr, original))
            setattr(owner, attr, wrapper)
            continue
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "rhamcheck" or mod_name.startswith("rhamcheck.")):
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    restore.append((module, key, original))
                    setattr(module, key, wrapper)

    def uninstall():
        for owner, attr, original in reversed(restore):
            setattr(owner, attr, original)

    return uninstall
