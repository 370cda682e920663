"""Seeded tasks, their oracles and the known-defect table.

A task is one verification question, taken from scenario text to a
checked verdict.  Every task is generated here from the workload seed
and a pass index; the program only ever sees the generated text (or,
for `corpus`, a command line).  Oracles are the benchmark's own: closed
forms for periods, known Betti numbers for cohomology, and a golden
report captured from the program for the corpus.

A task fails when it raises, when its check reports `fail`, or when its
answer disagrees with the oracle.  Some failures are known defects of
the program; `KNOWN_DEFECTS` lists them with the way they fail, so a run
can tell an expected failure from a new one.  Known-defect failures are
counted and reported, never dropped.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

DEFAULT_SEED = 902214  # the CLI's default --seed; the golden report uses it
QUAD_ORDERS = (8, 16, 32)
CORPUS_CHECKS = 29

# Relative accuracy by quadrature order, for both the oracle and the
# tolerances written into the scenario.  The worst relative errors seen on
# these inputs are about 3e-7 (order 8), 1e-13 (16) and 3e-16 (32).
PERIOD_REL_TOL = {8: 1e-5, 16: 1e-9, 32: 1e-9}

DEFECT_1 = "defect 1: sparse-path kernel is wrong, class_of raises NotACocycle"
DEFECT_2 = "defect 2: sparse-path solve rejects a solvable system, FamilyComplex asserts"

# (task label) -> (defect, how the task fails at the seed commit)
KNOWN_DEFECTS = {
    "cohomology:torus:h1:w4": (DEFECT_1, "check_fail:NotACocycle"),
    "cohomology:torus:h1:w5": (DEFECT_1, "check_fail:NotACocycle"),
    "cohomology:sphere:h1:w5": (DEFECT_1, "check_fail:NotACocycle"),
    "families:boundary3:w3": (DEFECT_2, "raised:AssertionError"),
    "families:delta3:w2": (DEFECT_2, "raised:AssertionError"),
    "families:delta3:w3": (DEFECT_2, "raised:AssertionError"),
}


class Task:
    """One verification question and the oracle that judges its answer."""

    __slots__ = ("label", "text", "argv", "oracle")

    def __init__(self, label, text=None, argv=None, oracle=None):
        self.label = label
        self.text = text
        self.argv = argv
        self.oracle = oracle or {}

    @property
    def known_defect(self):
        return KNOWN_DEFECTS.get(self.label)


def pass_rng(workload, seed, pass_index):
    return random.Random("%s:%d:%d" % (workload, seed, pass_index))


def fmt(q):
    q = Fraction(q)
    return str(q.numerator) if q.denominator == 1 else "%d/%d" % (q.numerator, q.denominator)


def _rational(rng, lo, hi, max_den=12):
    """A rational in [lo, hi] with a small seeded denominator."""
    den = rng.randint(5, max_den)
    lo_num = math.ceil(lo * den)
    hi_num = math.floor(hi * den)
    return Fraction(rng.randint(lo_num, hi_num), den)


# ---------------------------------------------------------------------------
# circle geometry: half-tangent arcs, rotated by quarter turns


def arc_components(k, a, b, param):
    """Components of the quarter-turn-k rotated arc u -> circle, u in [a, b].

    u = a + (b - a) * param; the unrotated arc has angle 2*atan(u).
    """
    u = "(%s + %s*(%s))" % (fmt(a), fmt(b - a), param)
    den = "(1 + %s^2)" % u
    c = "(1 - %s^2)/%s" % (u, den)
    s = "2*%s/%s" % (u, den)
    return [(c, s), ("-" + s, c), ("-" + c, "-" + s), (s, "-" + c)][k % 4]


def arc_angle(a, b):
    return 2.0 * (math.atan(float(b)) - math.atan(float(a)))


def seeded_loop(rng, extra_breaks):
    """Arcs (k, a, b) of a closed loop: four seeded arcs, some split further.

    Arc k runs over u in [a_k, (1 + a_{k+1})/(1 - a_{k+1})], so its end
    is exactly the start of arc k + 1 (atan identity); the loop closes
    with total angle 2*pi.
    """
    starts = [_rational(rng, -Fraction(1, 3), Fraction(1, 3)) for _ in range(4)]
    arcs = []
    for k in range(4):
        a = starts[k]
        nxt = starts[(k + 1) % 4]
        arcs.append((k, a, (1 + nxt) / (1 - nxt)))
    for _ in range(extra_breaks):
        i = rng.randrange(len(arcs))
        k, a, b = arcs[i]
        mid = a + (b - a) * Fraction(rng.randint(1, 7), 8)
        arcs[i : i + 1] = [(k, a, mid), (k, mid, b)]
    return arcs


def _interval_breaks(rng, m):
    """m + 1 increasing rational breakpoints in [0, 1]."""
    den = rng.randint(m + 4, 12)
    nums = sorted(rng.sample(range(den + 1), m + 1))
    return [Fraction(n, den) for n in nums]


# ---------------------------------------------------------------------------
# periods: the numeric lane


def _header(name, variables, relations, forms):
    lines = ["format_version 1", "name %s" % name, "", "[algebra]"]
    lines.append("variables " + " ".join(variables))
    lines += ["relation " + r for r in relations]
    for fname, degree, expr in forms:
        lines += ["", "[form %s]" % fname, "degree %d" % degree, "expr %s" % expr]
    return lines


def _simplex(lines, name, dim, comps):
    lines += ["", "[simplex %s]" % name, "dim %d" % dim, "lane numeric"]
    lines += ["component %s" % c for c in comps]


def _chain(lines, name, family, degree, terms):
    lines += ["", "[chain %s]" % name, "family %s" % family, "degree %d" % degree]
    lines += ["term %d %s" % (c, s) for s, c in terms]


def _check(lines, name, params):
    lines += ["", "[check %s]" % name]
    lines += ["%s %s" % kv for kv in params]


def period_tol(exact, order):
    return PERIOD_REL_TOL[order] * max(1.0, abs(exact))


def _period_task(label, lines, check, value_key, exact, order):
    tol = period_tol(exact, order)
    oracle = {"check": check, "key": value_key, "exact": exact, "tol": tol, "order": order}
    return Task(label, text="\n".join(lines) + "\n", oracle=oracle)


TORUS_FORMS = [
    ("omega1", 1, "x*dy - y*dx"),
    ("omega2", 1, "z*dw - w*dz"),
    ("omega12", 2, "(x*dy - y*dx)*(z*dw - w*dz)"),
]
TORUS_RELATIONS = ["x^2 + y^2 - 1", "z^2 + w^2 - 1"]


def _torus_triangles(lines, arcs1, arcs2):
    """Triangulate the product of two arc sequences; returns chain terms.

    Square (i, j) splits into triangle a (signed +1) and b (signed -1),
    the orientation of the fixture's fundamental cycle.
    """
    terms = []
    for i, (k1, a1, b1) in enumerate(arcs1):
        for j, (k2, a2, b2) in enumerate(arcs2):
            for kind, sign, p1, p2 in (("a", 1, "t1 + t2", "t2"), ("b", -1, "t2", "t1 + t2")):
                name = "tri_%s_%d_%d" % (kind, i, j)
                comps = list(arc_components(k1, a1, b1, p1)) + list(arc_components(k2, a2, b2, p2))
                _simplex(lines, name, 2, comps)
                terms.append((name, sign))
    lines += ["", "[family grid]", "simplices " + " ".join(n for n, _ in terms)]
    return terms


def torus_patch_task(rng, tag, m, order):
    """<omega1 ^ omega2, m x m patch> = dtheta1 * dtheta2."""
    k1, k2 = rng.randrange(4), rng.randrange(4)
    br1, br2 = _interval_breaks(rng, m), _interval_breaks(rng, m)
    arcs1 = [(k1, br1[i], br1[i + 1]) for i in range(m)]
    arcs2 = [(k2, br2[i], br2[i + 1]) for i in range(m)]
    lines = _header("patch_%s" % tag, ("x", "y", "z", "w"), TORUS_RELATIONS, TORUS_FORMS)
    terms = _torus_triangles(lines, arcs1, arcs2)
    _chain(lines, "z", "grid", 2, terms)
    exact = arc_angle(br1[0], br1[-1]) * arc_angle(br2[0], br2[-1])
    _check(lines, "patch", [("kind", "pairing"), ("form", "omega12"), ("chain", "z"),
                            ("expect", repr(exact)), ("tolerance", repr(period_tol(exact, order)))])
    return _period_task("periods:patch%d" % m, lines, "patch", "value", exact, order)


def torus_cycle_task(rng, tag, order):
    """<xi(omega1) u xi(omega2), fundamental cycle> = (2 pi)^2."""
    arcs1, arcs2 = seeded_loop(rng, 0), seeded_loop(rng, 0)
    lines = _header("torus_%s" % tag, ("x", "y", "z", "w"), TORUS_RELATIONS, TORUS_FORMS)
    terms = _torus_triangles(lines, arcs1, arcs2)
    _chain(lines, "z", "grid", 2, terms)
    exact = (2.0 * math.pi) ** 2
    _check(lines, "flagship", [("kind", "multiplicativity"), ("form1", "omega1"),
                               ("form2", "omega2"), ("chain", "z"), ("expect", repr(exact)),
                               ("expect_tolerance", repr(period_tol(exact, order))),
                               ("tolerance", repr(period_tol(exact, order)))])
    return _period_task("periods:torus_cycle", lines, "flagship", "lhs", exact, order)


def circle_loop_task(rng, tag, order, extra_breaks, multiplicative):
    """Pairing or multiplicativity on a seeded loop traversed `winding` times."""
    arcs = seeded_loop(rng, extra_breaks)
    winding = rng.choice((-2, -1, 1, 2, 3))
    forms = [("one", 0, "x^2 + y^2"), ("omega", 1, "x*dy - y*dx")]
    lines = _header("loop_%s" % tag, ("x", "y"), ["x^2 + y^2 - 1"], forms)
    names = []
    for i, (k, a, b) in enumerate(arcs):
        names.append("arc%d" % i)
        _simplex(lines, names[-1], 1, arc_components(k, a, b, "t1"))
    lines += ["", "[family loop]", "simplices " + " ".join(names)]
    _chain(lines, "z", "loop", 1, [(n, winding) for n in names])
    exact = 2.0 * math.pi * winding
    tol = period_tol(exact, order)
    if not multiplicative:
        _check(lines, "q", [("kind", "pairing"), ("form", "omega"), ("chain", "z"),
                            ("expect", repr(exact)), ("tolerance", repr(tol))])
        return _period_task("periods:loop_pairing", lines, "q", "value", exact, order)
    _check(lines, "q", [("kind", "multiplicativity"), ("form1", "one"), ("form2", "omega"),
                        ("chain", "z"), ("expect", repr(exact)),
                        ("expect_tolerance", repr(tol)), ("tolerance", repr(tol))])
    return _period_task("periods:loop_mult", lines, "q", "lhs", exact, order)


def circle_points_task(rng, tag, order, extra_breaks, level):
    """<xi(s) u xi(omega), z_level> = 2 pi * winding at s = 1, 0 at s = 0."""
    arcs = seeded_loop(rng, extra_breaks)
    winding = rng.choice((-1, 1, 2))
    forms = [("s_idem", 0, "s"), ("omega", 1, "x*dy - y*dx")]
    lines = _header("cxp_%s" % tag, ("x", "y", "s"), ["x^2 + y^2 - 1", "s^2 - s"], forms)
    names = []
    for lev in (1, 0):
        for i, (k, a, b) in enumerate(arcs):
            names.append("arc%d_s%d" % (i, lev))
            _simplex(lines, names[-1], 1, list(arc_components(k, a, b, "t1")) + [str(lev)])
    lines += ["", "[family loops]", "simplices " + " ".join(names)]
    mine = [n for n in names if n.endswith("_s%d" % level)]
    _chain(lines, "z", "loops", 1, [(n, winding) for n in mine])
    exact = 2.0 * math.pi * winding * level
    tol = period_tol(exact, order)
    _check(lines, "q", [("kind", "multiplicativity"), ("form1", "s_idem"), ("form2", "omega"),
                        ("chain", "z"), ("expect", repr(exact)),
                        ("expect_tolerance", repr(tol)), ("tolerance", repr(tol))])
    return _period_task("periods:circle_points", lines, "q", "lhs", exact, order)


def _each_order(make):
    return [lambda rng, tag, order=order: make(rng, tag, order) for order in QUAD_ORDERS]


# The make-up of every pass is fixed, so that every seed and every run
# length sees the same mix of kinds, sizes and orders; the seed draws the
# geometry.  Each entry makes one task from (rng, tag).
PERIODS_PASS = (
    _each_order(lambda rng, tag, order: circle_loop_task(rng, tag, order, 1, False))
    + _each_order(lambda rng, tag, order: circle_loop_task(rng, tag, order, 3, True))
    + _each_order(lambda rng, tag, order: circle_points_task(rng, tag, order, 0, 1))
    + _each_order(lambda rng, tag, order: circle_points_task(rng, tag, order, 2, 0))
    + _each_order(lambda rng, tag, order: circle_points_task(rng, tag, order, 1, 1))
    + _each_order(lambda rng, tag, order: torus_patch_task(rng, tag, 1, order)) * 2
)
# Heavier tasks: (maker, one task every this many passes).  They start
# with the first pass, so every run holds each kind, and cycle through
# the orders from pass to pass.
PERIODS_PERIODIC = (
    (lambda rng, tag, order: torus_patch_task(rng, tag, 2, order), 2),
    (lambda rng, tag, order: torus_patch_task(rng, tag, 3, order), 3),
    (torus_cycle_task, 4),
)


def periods_pass(seed, pass_index):
    rng = pass_rng("periods", seed, pass_index)
    tasks = [make(rng, "%d_%d" % (pass_index, i)) for i, make in enumerate(PERIODS_PASS)]
    for i, (make, every) in enumerate(PERIODS_PERIODIC):
        if pass_index % every == 0:
            order = QUAD_ORDERS[(pass_index // every) % len(QUAD_ORDERS)]
            tasks.append(make(rng, "%d_p%d" % (pass_index, i), order))
    rng.shuffle(tasks)
    return tasks


def periods_warmup(seed, sample):
    return circle_loop_task(pass_rng("periods-warmup", seed, sample), "warmup", 16, 0, False)


# ---------------------------------------------------------------------------
# cohomology: the exact lane

# name -> (variables, relation templates over scale factors c0.., Betti numbers,
#          weight of the lowest generator per nonzero Betti degree)
VARIETIES = {
    "ellipse": (("x", "y"), ["{0}*x^2 + {1}*y^2 - 1"], (1, 1, 0), {0: 0, 1: 2}),
    "hyperbola": (("x", "y"), ["{0}*x*y - 1"], (1, 1, 0), {0: 0, 1: 2}),
    "sphere": (("x", "y", "z"), ["{0}*x^2 + {1}*y^2 + {2}*z^2 - 1"], (1, 0, 1, 0), {0: 0, 2: 3}),
    "torus": (("x", "y", "z", "w"), ["{0}*x^2 + {1}*y^2 - 1", "{2}*z^2 + {3}*w^2 - 1"],
              (1, 2, 1, 0, 0), {0: 0, 1: 2, 2: 4}),
    "points": (("x",), ["{0}*x^2 - 1"], (2, 0), {0: 1}),
    "plane": (("x", "y"), [], (1, 0, 0), {0: 0}),
}
MAX_WEIGHT = 5

# simplicial Betti numbers of the complexes behind FamilyComplex tasks
COMPLEX_BETTI = {
    "boundary2": (1, 1),
    "boundary3": (1, 0, 1),
    "delta2": (1, 0, 0),
    "delta3": (1, 0, 0, 0),
}
MAX_FAMILY_WEIGHT = 3


def min_weight(variety, p):
    """Lowest cutoff at which the oracle applies: generator weight + 1.

    A degree-p group with no generators uses weight p, the least weight
    a p-form can have.
    """
    return VARIETIES[variety][3].get(p, p) + 1


def family_weights(complex_name):
    """Cutoffs 1..3, from the top degree with a class: a q-form has weight >= q."""
    top = max(q for q, b in enumerate(COMPLEX_BETTI[complex_name]) if b)
    return range(max(1, top), MAX_FAMILY_WEIGHT + 1)


def _scales(rng, count):
    """Seeded positive rational rescalings x -> x / a, as coefficients 1 / a^2."""
    out = []
    for _ in range(count):
        a = Fraction(rng.randint(1, 9), rng.randint(1, 9))
        out.append(fmt(1 / (a * a)))
    return out


def derham_task(rng, variety, p, weight):
    variables, templates, betti, _ = VARIETIES[variety]
    scales = _scales(rng, 4)
    relations = [t.format(*scales) for t in templates]
    lines = _header("%s_h%d_w%d" % (variety, p, weight), variables, relations, [])
    _check(lines, "h", [("kind", "cohomology"), ("degree", str(p)),
                        ("max_weight", str(weight)), ("expect_dim", str(betti[p]))])
    return Task("cohomology:%s:h%d:w%d" % (variety, p, weight), text="\n".join(lines) + "\n",
                oracle={"dimension": betti[p]})


def family_task(complex_name, weight):
    lines = ["format_version 1", "name family_%s_w%d" % (complex_name, weight)]
    _check(lines, "tau", [("kind", "tau_cohomology"), ("complex", complex_name),
                          ("max_weight", str(weight))])
    return Task("families:%s:w%d" % (complex_name, weight), text="\n".join(lines) + "\n",
                oracle={"dims": COMPLEX_BETTI[complex_name]})


def cohomology_pass(seed, pass_index):
    rng = pass_rng("cohomology", seed, pass_index)
    tasks = []
    for variety, (variables, _, betti, _) in VARIETIES.items():
        for p in range(len(betti)):
            for weight in range(min_weight(variety, p), MAX_WEIGHT + 1):
                tasks.append(derham_task(rng, variety, p, weight))
    for complex_name in COMPLEX_BETTI:
        for weight in family_weights(complex_name):
            tasks.append(family_task(complex_name, weight))
    rng.shuffle(tasks)
    return tasks


def cohomology_warmup(seed, sample):
    return derham_task(pass_rng("cohomology-warmup", seed, sample), "ellipse", 1, 3)


# ---------------------------------------------------------------------------
# corpus: the whole builtin corpus, one fresh process per task


def corpus_pass(seed, pass_index):
    """One `--builtin all` run; pass 0 runs at the default seed against the golden report."""
    if pass_index == 0:
        task_seed = DEFAULT_SEED
    else:
        task_seed = pass_rng("corpus", seed, pass_index).randrange(1, 2**31)
    argv = ["--builtin", "all", "--seed", str(task_seed)]
    return [Task("corpus:seed%d" % task_seed, argv=argv,
                 oracle={"checks": CORPUS_CHECKS, "golden": task_seed == DEFAULT_SEED})]


def corpus_warmup(seed, sample):
    task_seed = pass_rng("corpus-warmup", seed, sample).randrange(1, 2**31)
    return Task("corpus:seed%d" % task_seed, argv=["--builtin", "all", "--seed", str(task_seed)],
                oracle={"checks": CORPUS_CHECKS, "golden": False})


# Warm-up tasks take (seed, set-up sample index); no two share their inputs.
PASSES = {"corpus": corpus_pass, "periods": periods_pass, "cohomology": cohomology_pass}
WARMUPS = {"corpus": corpus_warmup, "periods": periods_warmup, "cohomology": cohomology_warmup}


# ---------------------------------------------------------------------------
# judging


def _detail(result, key):
    for k, v in result.details:
        if k == key:
            return v
    return None


def judge_checks(task, results):
    """None when the check results answer the task correctly, else the reason."""
    if len(results) != 1:
        return "expected one check result, got %d" % len(results)
    result = results[0]
    if result.status != "pass":
        reason = result.message.split(":")[0] if result.message else result.status
        return "check_fail:%s" % reason
    oracle = task.oracle
    if "exact" in oracle:
        got = float(_detail(result, oracle["key"]))
        if not abs(got - oracle["exact"]) <= oracle["tol"]:
            return "oracle: %s = %r, closed form %r" % (oracle["key"], got, oracle["exact"])
    elif "dimension" in oracle:
        got = int(_detail(result, "dimension"))
        if got != oracle["dimension"]:
            return "oracle: dimension %d, Betti number %d" % (got, oracle["dimension"])
    else:
        for q, expect in enumerate(oracle["dims"]):
            got = _detail(result, "dim_forms_%d" % q)
            if got is None or int(got) != expect:
                return "oracle: H^%d of families %s, simplicial %d" % (q, got, expect)
    return None


def judge_report(task, exit_code, report_text, golden_text):
    """None when a corpus run answers correctly, else the reason."""
    if exit_code != 0:
        return "exit_code:%d" % exit_code
    summary = {}
    for line in report_text.splitlines():
        key, _, value = line.partition(" ")
        if key.startswith("summary."):
            summary[key[len("summary."):]] = int(value)
    if summary != {"pass": task.oracle["checks"], "fail": 0, "skip": 0}:
        return "oracle: summary %r" % (summary,)
    if task.oracle["golden"] and report_text != golden_text:
        return "oracle: report differs from the golden report"
    return None
