"""Acceptance suite: one test per criterion, printed pass/fail, pinned tolerances.

Every tolerance is fixed here, not calibrated later.  Exact-lane
criteria compare Fractions for literal equality; numeric-lane criteria
use the stated absolute tolerances.  Each criterion also carries a
wall-clock budget.
"""

import math
import random
import time
from fractions import Fraction

from rhamcheck.checks import _random_algebraic_form, _random_poly_form, _random_simplex
from rhamcheck.cli import main
from rhamcheck.comparison import (
    ParamSimplex,
    SingularFamily,
    chain_map_residual,
    multiplicativity_check,
    naturality_residual,
    period,
    period_cochain,
)
from rhamcheck.derham import (
    FpAlgebra,
    parse_algebraic_form,
    truncated_cohomology,
)
from rhamcheck.scenarios import load_builtin
from rhamcheck.simplex_forms import (
    FamilyComplex,
    FormsFamily,
    extend_from_boundary,
    homotopy_defect,
    parse_poly_form,
    pullback_delta,
    to_cochain,
    wedge as wedge_simplex,
)
from rhamcheck.simplicial import (
    Chain,
    Cochain,
    DeltaMorphism,
    aw_cup,
    boundary_complex,
    coboundary,
    pair,
    simplicial_cohomology,
    standard_simplex,
    unit_cochain,
)


def criterion(number, label, ok, elapsed, budget):
    status = "PASS" if ok and elapsed < budget else "FAIL"
    print(
        "ACCEPTANCE %2d %-28s %s (%.2fs < %ds)"
        % (number, label, status, elapsed, budget)
    )
    assert ok, "criterion %d (%s) failed" % (number, label)
    assert elapsed < budget, "criterion %d exceeded its %ds budget" % (number, budget)


def test_criterion_1_two_points():
    start = time.monotonic()
    ok = True
    algebra = load_builtin("two_points").algebra
    for cutoff in (2, 3, 4):
        ok = ok and truncated_cohomology(algebra, 0, cutoff).dimension == 2
    ok = ok and truncated_cohomology(algebra, 0, 3).stabilized
    ok = ok and truncated_cohomology(algebra, 1, 4).dimension == 0
    plus = ParamSimplex(0, algebra, ["1"], name="plus")
    minus = ParamSimplex(0, algebra, ["-1"], name="minus")
    e_plus = parse_algebraic_form("(1 + x)/2", algebra)
    e_minus = parse_algebraic_form("(1 - x)/2", algebra)
    table = [
        [period(f, s)[0] for s in (plus, minus)] for f in (e_plus, e_minus)
    ]
    ok = ok and table == [[1, 0], [0, 1]]
    family = SingularFamily([plus, minus])
    for name, expected in (("plus", 1), ("minus", 0)):
        lhs, rhs, _ = multiplicativity_check(e_plus, e_plus, Chain(family, 0, {name: 1}))
        ok = ok and lhs == rhs == expected and isinstance(lhs, Fraction)
    criterion(1, "two points", ok, time.monotonic() - start, 1)


def test_criterion_2_poincare_lemma():
    start = time.monotonic()
    ok = True
    line = FpAlgebra(("x",), [])
    for cutoff in range(1, 9):
        ok = ok and truncated_cohomology(line, 1, cutoff).dimension == 0
    rng = random.Random(20257)
    for _ in range(50):
        n = rng.randint(1, 3)
        degree = rng.randint(0, n)
        alpha = _random_poly_form(rng, n, degree, 6)
        ok = ok and homotopy_defect(alpha).is_zero()
    criterion(2, "contraction identities", ok, time.monotonic() - start, 5)


def test_criterion_3_stokes_chain_map():
    start = time.monotonic()
    ok = True
    rng = random.Random(33311)
    algebra = FpAlgebra(("x", "y"), [])
    for _ in range(50):
        p = rng.randint(0, 1)
        sigma = _random_simplex(rng, algebra, p + 1, 2)
        omega = _random_algebraic_form(rng, algebra, p, 2)
        residual, _ = chain_map_residual(omega, sigma)
        ok = ok and residual == 0
    circle = load_builtin("circle").algebra
    sweep = ParamSimplex(
        2,
        circle,
        ["(1 - (t1 + t2)^2)/(1 + (t1 + t2)^2)", "2*(t1 + t2)/(1 + (t1 + t2)^2)"],
    )
    omega = parse_algebraic_form("x*dy - y*dx", circle)
    residual, _ = chain_map_residual(omega, sweep, order=16)
    ok = ok and abs(residual) < 1e-10
    criterion(3, "Stokes residuals", ok, time.monotonic() - start, 10)


def test_criterion_4_naturality():
    start = time.monotonic()
    ok = True
    rng = random.Random(44904)
    algebra = FpAlgebra(("x", "y"), [])
    for _ in range(30):
        n = rng.randint(1, 3)
        m = rng.randint(0, n)
        h = DeltaMorphism(m, n, sorted(rng.randint(0, n) for _ in range(m + 1)))
        sigma = _random_simplex(rng, algebra, n, 2)
        omega = _random_algebraic_form(rng, algebra, rng.randint(0, 2), 2)
        ok = ok and naturality_residual(sigma, h, omega).is_zero()
    criterion(4, "naturality", ok, time.monotonic() - start, 5)


def test_criterion_5_circle_pairing():
    start = time.monotonic()
    circle = load_builtin("circle")
    family, cycle = circle.families["loop"], circle.chains["z"]
    omega = parse_algebraic_form("x*dy - y*dx", family.target)
    cochain, _ = period_cochain(omega, family, order=16)
    value = pair(cochain, cycle)
    ok = abs(value - 2 * math.pi) < 1e-8
    criterion(5, "circle pairing 2*pi", ok, time.monotonic() - start, 5)


def test_criterion_6_mixed_multiplicativity():
    start = time.monotonic()
    scenario = load_builtin("circle_x_points")
    family, z1, z0 = scenario.families["loops"], scenario.chains["z1"], scenario.chains["z0"]
    algebra = family.target
    s_form = parse_algebraic_form("s", algebra)
    omega = parse_algebraic_form("x*dy - y*dx", algebra)
    lhs1, rhs1, _ = multiplicativity_check(s_form, omega, z1, order=16)
    lhs0, rhs0, _ = multiplicativity_check(s_form, omega, z0, order=16)
    ok = (
        abs(lhs1 - rhs1) < 1e-8
        and abs(lhs1 - 2 * math.pi) < 1e-8
        and abs(lhs0 - rhs0) < 1e-8
        and abs(lhs0) < 1e-8
        and abs(rhs0) < 1e-8
    )
    criterion(6, "mixed-degree product", ok, time.monotonic() - start, 10)


def test_criterion_7_torus_flagship():
    start = time.monotonic()
    torus = load_builtin("torus")
    family, cycle = torus.families["grid"], torus.chains["z"]
    algebra = family.target
    omega1 = parse_algebraic_form("x*dy - y*dx", algebra)
    omega2 = parse_algebraic_form("z*dw - w*dz", algebra)
    lhs, rhs, _ = multiplicativity_check(omega1, omega2, cycle, order=16)
    ok = abs(lhs - rhs) < 1e-6 and abs(lhs - 39.4784176) < 1e-4
    criterion(7, "torus top-degree product", ok, time.monotonic() - start, 60)


def test_criterion_8_integration_map_behavior():
    start = time.monotonic()
    # cochain-level witness on the triangle
    alpha = parse_poly_form("t1", 2)
    beta = parse_poly_form("dt1", 2)
    lhs = to_cochain(wedge_simplex(alpha, beta))
    rhs = aw_cup(to_cochain(alpha), to_cochain(beta))
    ok = lhs != rhs
    # on the boundary circle the induced map on cohomology is an isomorphism
    # in degrees 0 and 1, and multiplicative on every product of classes
    K = boundary_complex(2)
    fc3 = FamilyComplex(K, 3)
    fc2 = FamilyComplex(K, 2)
    dims = [fc3.cohomology_dimension(q) for q in range(2)]
    stabilized = dims == [fc2.cohomology_dimension(q) for q in range(2)]
    simplicial_dims = [simplicial_cohomology(K, q).dimension for q in range(2)]
    ok = ok and dims == simplicial_dims == [1, 1] and stabilized
    reps = {q: fc3.representatives(q) for q in range(2)}
    sc = {q: simplicial_cohomology(K, q) for q in range(2)}
    for q in range(2):
        for family in reps[q]:
            coords = sc[q].class_of(family.to_cochain())
            ok = ok and any(c != 0 for c in coords)
    for q1 in range(2):
        for q2 in range(2):
            if q1 + q2 > K.dimension:
                continue
            for F in reps[q1]:
                for G in reps[q2]:
                    left = sc[q1 + q2].class_of(F.wedge(G).to_cochain())
                    right = sc[q1 + q2].class_of(
                        aw_cup(F.to_cochain(), G.to_cochain())
                    )
                    ok = ok and left == right
    criterion(8, "integration map", ok, time.monotonic() - start, 10)


def test_criterion_9_aw_algebra_laws():
    start = time.monotonic()
    ok = True
    K = standard_simplex(3)
    rng = random.Random(99123)
    one = unit_cochain(K)
    for _ in range(30):
        p = rng.randint(0, 1)
        q = rng.randint(0, 1)
        a = Cochain(K, p, {s: Fraction(rng.randint(-5, 5)) for s in K.n_simplices(p)})
        b = Cochain(K, q, {s: Fraction(rng.randint(-5, 5)) for s in K.n_simplices(q)})
        c = Cochain(
            K,
            3 - p - q,
            {s: Fraction(rng.randint(-5, 5)) for s in K.n_simplices(3 - p - q)},
        )
        ok = ok and aw_cup(aw_cup(a, b), c) == aw_cup(a, aw_cup(b, c))
        ok = ok and aw_cup(one, a) == a and aw_cup(a, one) == a
        leibniz_rhs = aw_cup(coboundary(a), b) + aw_cup(a, coboundary(b)).scale(
            (-1) ** p
        )
        ok = ok and coboundary(aw_cup(a, b)) == leibniz_rhs
    a = Cochain(K, 1, {(0, 1): Fraction(1)})
    b = Cochain(K, 1, {(1, 2): Fraction(1)})
    ab, ba = aw_cup(a, b), aw_cup(b, a)
    ok = ok and ab != ba and ab != ba.scale(-1)
    criterion(9, "AW algebra laws", ok, time.monotonic() - start, 2)


def test_criterion_10_boundary_extension():
    start = time.monotonic()
    ok = True
    rng = random.Random(101011)
    for n in (2, 3):
        K = boundary_complex(n)
        for _ in range(20):
            q = rng.randint(0, n - 1)
            source = _random_poly_form(rng, n, q, 2)
            family = FormsFamily.from_top_form(K, source)
            extended = extend_from_boundary(family)
            for i in range(n + 1):
                restricted = pullback_delta(DeltaMorphism.face(n, i), extended)
                facet = tuple(v for v in range(n + 1) if v != i)
                ok = ok and restricted == family.assignment[facet]
    criterion(10, "boundary extension", ok, time.monotonic() - start, 5)


def test_criterion_11_determinism(tmp_path):
    start = time.monotonic()
    first = tmp_path / "report_a.txt"
    second = tmp_path / "report_b.txt"
    code1 = main(["--builtin", "all", "--report", str(first)])
    code2 = main(["--builtin", "all", "--report", str(second)])
    ok = code1 == 0 and code2 == 0 and first.read_bytes() == second.read_bytes()
    criterion(11, "byte-identical reports", ok, time.monotonic() - start, 120)
