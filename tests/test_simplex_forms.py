"""Forms on simplices: algebra, pullback, integration, contraction, families."""

import math
import random
from fractions import Fraction
from itertools import combinations, product

import mpmath
import numpy as np
import pytest
import sympy
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from rhamcheck import checks, ratfunc, simplex_forms
from rhamcheck.checks import (Settings, _random_algebraic_form, _random_poly, _random_poly_form,
                              run_scenario_checks)
from rhamcheck.comparison import pullback_form
from rhamcheck.errors import (
    DenominatorVanishes,
    DimensionMismatch,
    IncompatibleFamily,
    NonPolynomialCoefficient,
    NotTopDegree,
)
from rhamcheck.exterior import d_monomial
from rhamcheck.formtext import parse_polynomial
from rhamcheck.linalg import CohomologyPair, Echelon, Matrix, kernel_image
from rhamcheck.poly import Polynomial, drl_key
from rhamcheck.ratfunc import RationalFunc, _positive_on_simplex, parts, ratio
from rhamcheck.scenarios import Scenario, load_builtin
from rhamcheck.simplex_forms import (
    FamilyComplex,
    FormsFamily,
    PolyForm,
    cone_homotopy,
    differential,
    extend_from_boundary,
    homotopy_defect,
    integrate_exact,
    integrate_numeric,
    parse_poly_form,
    pullback_delta,
    simplex_variables,
    to_cochain,
    wedge,
    MAX_QUAD_ORDER,
    QUAD_CROSS_CHECK_STEP,
    _barycentric_basis,
    _coface_table,
    _duffy_points,
    _gauss_legendre,
    _quad_value,
    _rule_value,
    _whitney_basis,
)
from rhamcheck.simplicial import (
    Cochain,
    DeltaMorphism,
    _coboundary_matrix,
    boundary_complex,
    coboundary,
    simplicial_cohomology,
    standard_simplex,
)
from test_cli import run_python


def random_delta_morphism(rng, m, n):
    values = sorted(rng.randint(0, n) for _ in range(m + 1))
    return DeltaMorphism(m, n, values)


def test_parse_and_basic_identities():
    dt1 = parse_poly_form("dt1", 2)
    assert wedge(dt1, dt1).is_zero()
    f = parse_poly_form("t1*t2", 2)
    assert differential(f) == parse_poly_form("t2*dt1 + t1*dt2", 2)
    with pytest.raises(DimensionMismatch):
        wedge(dt1, parse_poly_form("dt1", 1))


def test_leibniz_exact():
    rng = random.Random(2)
    for _ in range(30):
        n = rng.randint(1, 3)
        p = rng.randint(0, n)
        alpha = _random_poly_form(rng, n, p, 3)
        beta = _random_poly_form(rng, n, rng.randint(0, n - p), 3)
        lhs = differential(wedge(alpha, beta))
        rhs = wedge(differential(alpha), beta) + wedge(
            alpha, differential(beta)
        ).scale((-1) ** p)
        assert lhs == rhs
        assert differential(differential(alpha)).is_zero()


def test_pullback_identity_and_vertex():
    alpha = parse_poly_form("t1^2 * dt1", 1)
    assert pullback_delta(DeltaMorphism(1, 1, (0, 1)), alpha) == alpha
    # vertex 1 of the interval: the 0-form t1 evaluates to 1
    f = parse_poly_form("t1", 1)
    at_v1 = pullback_delta(DeltaMorphism(0, 1, (1,)), f)
    assert at_v1.vertex_value() == 1
    at_v0 = pullback_delta(DeltaMorphism(0, 1, (0,)), f)
    assert at_v0.vertex_value() == 0


def test_pullback_functorial():
    rng = random.Random(3)
    for _ in range(20):
        n = rng.randint(1, 3)
        m = rng.randint(0, n)
        k = rng.randint(0, m)
        h = random_delta_morphism(rng, m, n)
        g = random_delta_morphism(rng, k, m)
        alpha = _random_poly_form(rng, n, rng.randint(0, n), 3)
        both = pullback_delta(g, pullback_delta(h, alpha))
        # h after g: [k] -> [m] -> [n]
        composed = pullback_delta(DeltaMorphism(k, n, [h.values[v] for v in g.values]), alpha)
        assert both == composed


def minor_pullback(vertex_map, alpha, m):
    """Reference pullback along the affine map of a vertex map, by Jacobian minors.

    With u_0 = 1 - sum t and u_k = t_k, the map sends s_j to the sum of
    the u_k over the preimage of vertex j, so ds_j/dt_k is
    [v_k = j] - [v_0 = j]; a term c dx_S pulls back to
    c(s) * sum_T det(ds_S/dt_T) dt_T.
    """
    n, variables = alpha.n, simplex_variables(m)
    jac = [[int(vertex_map[k + 1] == j) - int(vertex_map[0] == j) for k in range(m)]
           for j in range(1, n + 1)]
    subs = [sum((Polynomial.variable(variables, k).scale(jac[j][k]) for k in range(m)),
                Polynomial.constant(variables, int(vertex_map[0] == j + 1)))
            for j in range(n)]
    terms = {}
    for S, c in alpha.terms.items():
        c_sub = c.substitute(subs) if n else Polynomial.constant(variables, c.eval_fraction(()))
        for T in combinations(range(m), alpha.degree):
            det = int(sympy.Matrix([[jac[j][i] for i in T] for j in S]).det())
            if det:
                value = c_sub.scale(det)
                terms[T] = terms[T] + value if T in terms else value
    return PolyForm(m, alpha.degree, terms)


@settings(max_examples=80, derandomize=True, deadline=None)
@given(seed=st.integers(0, 2**32), n=st.integers(0, 3), m=st.integers(0, 3))
def test_pullback_delta_matches_jacobian_minors(seed, n, m):
    # weakly increasing vertex maps: faces, degeneracies and their composites
    rng = random.Random(seed)
    h = random_delta_morphism(rng, m, n)
    alpha = _random_poly_form(rng, n, rng.randint(0, n), 3)
    assert pullback_delta(h, alpha) == minor_pullback(h.values, alpha, m)


def assert_lanes(form):
    """Every coefficient is a Polynomial or a RationalFunc that `ratio` could return."""
    for c in form.terms.values() if isinstance(form, PolyForm) else [form]:
        if isinstance(c, RationalFunc):
            assert not c.den.is_constant() and c.den.leading_term()[1] == 1, c
            assert c.num.divide_exact(c.den) is None, c
        else:
            assert isinstance(c, Polynomial), c


FORM_TEXTS = ("2/(1 + t1^2) * dt1", "(1 + t1^2)/(1 + t1^2) * dt1", "(1 - t1^2)/3 * dt1",
              "(t1^2 - 1)/(t1 - 1) + 1/(2*t1 + 2)", "t1/(1 + t1^2) - t1/(1 + t1^2)")


LANE_SCENARIOS = [load_builtin(name) for name in ("circle", "circle_x_points", "torus")]


@settings(max_examples=10, derandomize=True, deadline=None)
@given(seed=st.integers(0, 2**32))
def test_no_rational_func_has_a_constant_denominator(seed):
    rng = random.Random(seed)
    for text in FORM_TEXTS:
        alpha = parse_poly_form(text, 1)
        assert_lanes(alpha)
        assert_lanes(differential(alpha))
        assert_lanes(wedge(alpha, parse_poly_form(rng.choice(FORM_TEXTS), 1)))
    # circle_x_points mixes rational arc components with a constant third one
    for scenario in LANE_SCENARIOS:
        algebra = scenario.algebra
        for sigma in rng.sample(sorted(scenario.simplices.values(), key=repr), 3):
            for c in sigma.components:
                assert_lanes(c)
            for f in algebra.ideal_generators:
                assert_lanes(sigma.substitute(f))
            assert_lanes(sigma.substitute(_random_poly(rng, algebra.variables, 2)))
            h = random_delta_morphism(rng, rng.randint(0, sigma.n), sigma.n)
            for c in sigma.compose_delta(h).components:
                assert_lanes(c)
            if sigma.validate():
                continue
            for degree in range(sigma.n + 1):
                pulled = pullback_form(sigma, _random_algebraic_form(rng, algebra, degree, 2))
                assert_lanes(pulled)
                assert_lanes(differential(pulled))
                assert_lanes(pullback_delta(h, pulled))
                assert_lanes(wedge(pulled, pulled))


def test_integrate_exact_values():
    assert integrate_exact(parse_poly_form("dt1", 1)) == 1
    assert integrate_exact(parse_poly_form("dt1^dt2", 2)) == Fraction(1, 2)
    assert integrate_exact(parse_poly_form("t1*t2*dt1^dt2", 2)) == Fraction(1, 24)
    # iterated symbolic integration oracle for a mixed monomial:
    # int_{t2=0}^{1} int_{t1=0}^{1-t2} t1^2 t2 dt1 dt2 = 1/3 * B(4, 2) aggregated
    assert integrate_exact(parse_poly_form("t1^2*t2*dt1^dt2", 2)) == Fraction(
        math.factorial(2) * math.factorial(1), math.factorial(2 + 3)
    )
    with pytest.raises(NotTopDegree):
        integrate_exact(parse_poly_form("dt1", 2))
    with pytest.raises(NonPolynomialCoefficient):
        integrate_exact(parse_poly_form("1/(1 + t1^2) * dt1", 1))


def test_integrate_numeric_matches_exact():
    rng = random.Random(5)
    for _ in range(20):
        n = rng.randint(1, 2)
        alpha = _random_poly_form(rng, n, n, 3)
        exact = float(integrate_exact(alpha))
        value, estimate = integrate_numeric(alpha, order=12)
        assert abs(value - exact) < 1e-12


def test_integrate_numeric_arctan_oracle():
    # int_0^1 2/(1+t^2) dt = pi/2
    alpha = parse_poly_form("2/(1 + t1^2) * dt1", 1)
    value, estimate = integrate_numeric(alpha, order=16)
    assert abs(value - math.pi / 2) < 1e-10
    assert estimate < 1e-12


def test_integrate_numeric_interval():
    value, _ = integrate_numeric(parse_poly_form("dt1", 1), order=4)
    assert abs(value - 1.0) < 1e-14


def test_denominator_certificate():
    good = parse_poly_form("1/(1 + t1^2) * dt1", 1)
    value, _ = integrate_numeric(good, order=8)
    assert abs(value - math.atan(1.0)) < 1e-10
    bad = parse_poly_form("1/(1 - 3*t1) * dt1", 1)
    with pytest.raises(DenominatorVanishes):
        integrate_numeric(bad, order=8)


def scalar_quad_value(coeff, n, order):
    """The per-node reference: Duffy nodes one at a time, Python ** powers."""
    raw_x, raw_w = np.polynomial.legendre.leggauss(order)
    nodes = [(float(x) + 1.0) / 2.0 for x in raw_x]
    weights = [float(w) / 2.0 for w in raw_w]

    def value(poly, point):
        total = 0.0
        for e in sorted(poly.terms, key=drl_key):
            v = float(poly.terms[e])
            for x, k in zip(point, e):
                if k == 1:
                    v *= x
                elif k:
                    v *= x**k
            total += v
        return total

    num, den = parts(coeff)
    pieces = []
    for combo in product(range(order), repeat=n):
        point, weight, scale, jac = [], 1.0, 1.0, 1.0
        for i in combo:
            weight *= weights[i]
            point.append(nodes[i] * scale)
            jac *= scale
            scale *= 1.0 - nodes[i]
        den_value = value(den, point)
        assert den_value != 0.0
        pieces.append(weight * jac * (value(num, point) / den_value))
    return math.fsum(pieces)


@pytest.mark.parametrize("n", [1, 2, 3])
@settings(max_examples=15, derandomize=True, deadline=None)
@given(seed=st.integers(0, 2**32), order=st.integers(1, 24))
def test_vectorized_quadrature_matches_scalar_loop_bit_for_bit(n, seed, order):
    rng = random.Random(seed)
    variables = simplex_variables(n)
    while True:
        num = sum((_random_poly(rng, variables, 5) for _ in range(3)), Polynomial.zero(variables))
        q = _random_poly(rng, variables, 2)
        den = Polynomial.constant(variables, rng.randint(1, 4)) + q * q
        coeff = ratio(num, den)
        try:
            if isinstance(coeff, RationalFunc):
                coeff.certify_denominator()
            break
        except DenominatorVanishes:
            continue
    alpha = PolyForm(n, n, {tuple(range(n)): coeff})
    expected = scalar_quad_value(coeff, n, order) if alpha.terms else 0.0
    assert _quad_value(alpha, order) == expected


@settings(max_examples=30, derandomize=True, deadline=None)
@given(seed=st.integers(0, 2**32), n=st.integers(1, 3), order=st.integers(1, 12))
def test_rule_evaluates_every_node_in_the_scalar_order(seed, n, order):
    """Per node and bit for bit: each term c * x_1**k_1 * ... multiplied left
    to right, the terms summed in drl order from 0.0.  The fsum above can
    absorb a last-bit change at one node, and its integer coefficients are
    mostly powers of two, on which the order of the products never shows."""
    rng = random.Random(seed)
    variables = simplex_variables(n)
    poly = Polynomial(variables, {tuple(rng.randint(0, 4) for _ in range(n)):
                                  Fraction(rng.randint(-9, 9), rng.randint(1, 7)) for _ in range(8)})
    rule = _duffy_points(n, order)
    expected = []
    for point in zip(*rule.coords):
        total = 0.0
        for e in sorted(poly.terms, key=drl_key):
            v = float(poly.terms[e])
            for x, k in zip(point, e):
                if k:
                    v *= x**k
            total += v
        expected.append(total)
    assert rule.evaluate(poly) == expected


def test_integrate_numeric_matches_exact_on_the_tetrahedron():
    rng = random.Random(11)
    for order in (8, 12, 16):
        for _ in range(10):
            alpha = _random_poly_form(rng, 3, 3, 5)
            value, estimate = integrate_numeric(alpha, order=order)
            assert abs(value - float(integrate_exact(alpha))) < 1e-12
            assert estimate < 1e-12


def test_quadrature_rule_is_built_once_and_checks_zero_denominators():
    assert _duffy_points(2, 7) is _duffy_points(2, 7)
    # the one Gauss-Legendre node of order 1 is t1 = 1/2, where 2*t1 - 1
    # vanishes; the memo keeps no failure, so every call raises
    cached = _rule_value.cache_info().currsize
    for _ in range(3):
        with pytest.raises(ZeroDivisionError):
            _quad_value(parse_poly_form("1/(2*t1 - 1) * dt1", 1), 1)
    assert _rule_value.cache_info().currsize == cached


TABLE_ORDERS = range(1, MAX_QUAD_ORDER + QUAD_CROSS_CHECK_STEP + 1)


def mp_gauss_legendre(order):
    """(nodes, weights) of the order-point Gauss-Legendre rule at 50 digits, by
    Newton's method on P_order from the asymptotic start cos(pi (i - 1/4) / (order + 1/2));
    the middle root of an odd order is 0."""
    with mpmath.workdps(50):
        nodes, weights = [], []
        for i in range(1, order + 1):
            x = mpmath.cos(mpmath.pi * (i - mpmath.mpf(1) / 4) / (order + mpmath.mpf(1) / 2))
            x = mpmath.mpf(0) if 2 * i == order + 1 else x
            for _ in range(100):
                p, q = x, mpmath.mpf(1)  # P_k and P_{k-1} by Bonnet's recurrence
                for k in range(1, order):
                    p, q = ((2 * k + 1) * x * p - k * q) / (k + 1), p
                dp = order * (x * p - q) / (x * x - 1)
                step = p / dp
                x -= step
                if abs(step) < mpmath.mpf(10) ** -45:
                    break
            nodes.append(-x)
            weights.append(2 / ((1 - x * x) * dp * dp))
        return nodes, weights


@pytest.mark.parametrize("order", TABLE_ORDERS)
def test_gauss_legendre_table_is_numpys_rule(order):
    """The table holds numpy's leggauss bit for bit, which the golden report
    pins; it is symmetric and integrates x^(2j) exactly for 2j < 2 * order.
    Against the true rule its nodes are within 4 ulp, but numpy's weights
    are not: they are off by up to 5.7e-15, 26,500 ulp of the smallest
    weight at order 66, so the moments miss by up to 1.3e-14 at order 68."""
    nodes, weights = _gauss_legendre(order)
    raw_x, raw_w = np.polynomial.legendre.leggauss(order)
    assert [x.hex() for x in nodes] == [x.hex() for x in raw_x.tolist()]
    assert [w.hex() for w in weights] == [w.hex() for w in raw_w.tolist()]
    assert nodes == [-x for x in reversed(nodes)] and weights == weights[::-1]
    true_nodes, true_weights = mp_gauss_legendre(order)
    for got, true in zip(nodes, true_nodes):
        assert abs(got - float(true)) <= 4 * math.ulp(float(true)), (got, true)
    for got, true in zip(weights, true_weights):
        assert abs(got - true) < 1e-14, (got, true)
    for j in range(order):
        assert abs(math.fsum(w * x ** (2 * j) for x, w in zip(nodes, weights)) - 2 / (2 * j + 1)) < 2e-14


def test_gauss_legendre_table_covers_exactly_the_orders_in_use():
    for order in (0, TABLE_ORDERS[-1] + 1):
        with pytest.raises(ValueError):
            _gauss_legendre(order)


def test_quadrature_value_is_memoised_per_integrand():
    """The same integrand, from a form built anew, is evaluated once per order,
    to the value an uncached evaluation gives."""
    text = "(1 + t1*t2)/(3 + t1^2 + t2) * dt1^dt2"
    value = integrate_numeric(parse_poly_form(text, 2))
    before = _rule_value.cache_info()
    assert integrate_numeric(parse_poly_form(text, 2)) == value
    after = _rule_value.cache_info()
    assert (after.hits - before.hits, after.misses - before.misses) == (2, 0)
    num, den = parts(parse_poly_form(text, 2).terms[(0, 1)])
    assert _rule_value.__wrapped__(num, den, 2, 16) == value[0]


def test_certificate_runs_once_per_denominator_and_power_bound(monkeypatch):
    runs = []

    def counting(poly, power_bound):
        runs.append((str(poly), power_bound))
        return _positive_on_simplex(poly, power_bound)

    monkeypatch.setattr(ratfunc, "_positive_on_simplex", counting)
    ratfunc._has_certificate.cache_clear()
    try:
        for _ in range(3):
            # a fresh RationalFunc each time: the cache is keyed on the denominator
            parse_poly_form("1/(1 + t1^2) * dt1", 1).terms[(0,)].certify_denominator()
            parse_poly_form("t1/(1 + t1^2) * dt1", 1).terms[(0,)].certify_denominator()
        assert runs == [("t1^2 + 1", 6)]
        bad = parse_poly_form("1/(1 - 2*t1) * dt1", 1).terms[(0,)]
        for _ in range(3):
            with pytest.raises(DenominatorVanishes):
                bad.certify_denominator()
        # a miss tries the denominator, then its negative, once
        assert runs[1:] == [("t1 - 1/2", 6), ("-t1 + 1/2", 6)]
        # t1^2 + (1 - t1)^2 needs one Polya step: certified at bound 1, not at 0
        tight = parse_poly_form("1/(1 - 2*t1 + 2*t1^2) * dt1", 1).terms[(0,)].den
        assert ratfunc._has_certificate(tight, 1)
        for _ in range(2):
            assert not ratfunc._has_certificate(tight, 0)
        assert ratfunc._has_certificate(tight, 1)
        assert [bound for _, bound in runs[3:]] == [1, 0, 0]
    finally:
        ratfunc._has_certificate.cache_clear()


def test_a_denominator_negative_on_the_simplex_is_certified():
    """`ratio` stores 1/(2 - t1^2) as -1/(t1^2 - 2); the certificate of
    2 - t1^2 proves that t1^2 - 2 has no zero on [0, 1] either."""
    alpha = parse_poly_form("1/(2 - t1^2) * dt1", 1)
    assert str(alpha.terms[(0,)].den) == "t1^2 - 2"
    value, estimate = integrate_numeric(alpha)
    assert abs(value - math.log(1 + math.sqrt(2)) / math.sqrt(2)) <= estimate
    for text in ("1/(t1 - 1/2) * dt1", "1/(1/2 - t1) * dt1"):
        with pytest.raises(DenominatorVanishes):
            integrate_numeric(parse_poly_form(text, 1))


def polya_by_sympy(poly, power_bound):
    """Polya's test, independently in sympy: with t_i = u_i and s = u0 + ... + un = 1,
    f is the form sum of c_e u^e s^(D - |e|) of degree D in u; certified when s^r
    times it has every monomial of degree D + r, each with a positive coefficient,
    for some r."""
    if poly.is_zero():
        return False
    u = sympy.symbols("u0:%d" % (len(poly.variables) + 1))
    s = sum(u)
    degree = poly.total_degree()
    form = sympy.Poly(sum(sympy.Rational(c.numerator, c.denominator)
                          * sympy.prod(x**k for x, k in zip(u[1:], e)) * s**(degree - sum(e))
                          for e, c in poly.terms.items()), *u)
    for r in range(power_bound + 1):
        power = form * sympy.Poly(s**r, *u)
        monomials = [m for m in product(range(degree + r + 1), repeat=len(u))
                     if sum(m) == degree + r]
        if all(power.nth(*m) > 0 for m in monomials):
            return True
    return False


@st.composite
def small_denominators(draw):
    """Nonzero polynomials in t1 or t1, t2 of degree <= 3, small integer coefficients."""
    variables = simplex_variables(draw(st.integers(1, 2)))
    exponents = [e for e in product(range(4), repeat=len(variables)) if sum(e) <= 3]
    terms = draw(st.dictionaries(st.sampled_from(exponents), st.integers(-3, 3), max_size=5))
    poly = Polynomial(variables, terms) + draw(st.integers(0, 12))
    assume(not poly.is_zero())
    return poly


def _poly(text, n):
    return parse_polynomial(text, simplex_variables(n))


# (1 + t1^2)^3 and the 2-D one are the denominators `--builtin all` certifies
@settings(max_examples=40, derandomize=True, deadline=None)
@given(small_denominators(), st.integers(0, 6))
@example(_poly("(1 + t1^2)^3", 1), 6)
@example(_poly("(1 + t2^2)^3 * (1 + (t1 + t2)^2)^3", 2), 6)
@example(_poly("(t1 - 1/2)^2", 1), 6)
@example(_poly("t1^2 - t1 + 1/4 + 1/100", 1), 6)
@example(_poly("t1^2 - t1 + 1/4 + 1/100", 1), 24)
def test_certificate_matches_sympy_polya_oracle(den, power_bound):
    assert _positive_on_simplex(den, power_bound) == polya_by_sympy(den, power_bound)


def test_certificate_examples_have_the_expected_verdicts():
    """The oracle's pinned examples: certified, refused though it vanishes at 1/2,
    and refused though positive, for want of a higher power."""
    assert _positive_on_simplex(_poly("(1 + t1^2)^3", 1), 6)
    assert _positive_on_simplex(_poly("(1 + t2^2)^3 * (1 + (t1 + t2)^2)^3", 2), 6)
    assert not _positive_on_simplex(_poly("(t1 - 1/2)^2", 1), 24)
    for bound in (6, 24):
        assert not _positive_on_simplex(_poly("t1^2 - t1 + 1/4 + 1/100", 1), bound)


KERNELS =(ratfunc._product, ratfunc._partial, ratfunc._substitute, ratfunc._sum)


def unmemoized_sum(f, g):
    """f + g of a RationalFunc f and a Polynomial or RationalFunc g, by the
    branches of `RationalFunc.__add__` in their order, without the memo."""
    if not isinstance(g, RationalFunc):
        return f if g.is_zero() else ratio(f.num + g * f.den, f.den)
    quot = g.den.divide_exact(f.den)
    if quot is not None:
        return ratio(f.num * quot + g.num, g.den)
    quot = f.den.divide_exact(g.den)
    if quot is not None:
        return ratio(f.num + g.num * quot, f.den)
    return ratio(f.num * g.den + g.num * f.den, f.den * g.den)


def representation(value):
    """The exact representation of a `ratio` result: its type, and the terms of its
    numerator and denominator with their coefficient types."""
    return type(value).__name__, [sorted((e, c, type(c).__name__) for e, c in p.terms.items())
                                  for p in parts(value)]


def outcome(compute):
    try:
        return representation(compute())
    except ZeroDivisionError:
        return "ZeroDivisionError"


def random_rational(rng, variables):
    """A RationalFunc num/den of random polynomials, as `ratio` normalizes it."""
    while True:
        num, den = _random_poly(rng, variables, 2), _random_poly(rng, variables, 2)
        if not den.is_zero():
            value = ratio(num, den)
            if isinstance(value, RationalFunc):
                return value


@settings(max_examples=80, derandomize=True, deadline=None)
@given(seed=st.integers(0, 2**32), n=st.integers(1, 3), m=st.integers(0, 3))
def test_rational_kernels_match_the_unmemoized_arithmetic(seed, n, m):
    rng = random.Random(seed)
    variables = simplex_variables(n)
    f, g = random_rational(rng, variables), random_rational(rng, variables)
    p = _random_poly(rng, variables, 2)
    values = tuple(_random_poly(rng, simplex_variables(m), 1) for _ in range(n))
    cases = [
        (lambda: f * g, lambda: ratio(f.num * g.num, f.den * g.den)),
        (lambda: f * p, lambda: ratio(f.num * p, f.den)),
        (lambda: p * f, lambda: ratio(f.num * p, f.den)),
        (lambda: f + g, lambda: unmemoized_sum(f, g)),
        (lambda: f + p, lambda: unmemoized_sum(f, p)),
        (lambda: p + f, lambda: unmemoized_sum(f, p)),
        # one denominator divides the other, either way round
        (lambda: f + f * f, lambda: unmemoized_sum(f, f * f)),
        (lambda: f * f + f, lambda: unmemoized_sum(f * f, f)),
        (lambda: f.substitute(list(values)),
         lambda: ratio(f.num.substitute(values), f.den.substitute(values))),
    ]
    for i in range(n):
        cases.append((lambda i=i: f.partial(i),
                      lambda i=i: ratio(f.num.partial(i) * f.den - f.num * f.den.partial(i),
                                        f.den * f.den)))
    for memoized, reference in cases:
        expected = outcome(reference)
        assert outcome(memoized) == expected
        if expected != "ZeroDivisionError":
            # a repeated call is served from the cache
            assert memoized() is memoized()


def test_rational_kernels_key_on_the_representation_not_the_value():
    T = simplex_variables(1)
    a, b = Polynomial(T, {(0,): 1}), Polynomial(T, {(2,): 1, (0,): 1})
    q = Polynomial(T, {(1,): 1, (0,): 1})
    g = ratio(Polynomial(T, {(1,): 1}), Polynomial(T, {(1,): 1, (0,): 2}))
    lean, padded = ratio(a, b), ratio(a * q, b * q)
    assert lean == padded and lean.num != padded.num
    flip = (Polynomial(T, {(0,): 1, (1,): -1}),)
    calls = [
        (lambda f: f * g, lambda f: ratio(f.num * g.num, f.den * g.den)),
        (lambda f: f.partial(0),
         lambda f: ratio(f.num.partial(0) * f.den - f.num * f.den.partial(0), f.den * f.den)),
        (lambda f: f.substitute(flip),
         lambda f: ratio(f.num.substitute(flip), f.den.substitute(flip))),
        (lambda f: f + g, lambda f: unmemoized_sum(f, g)),
    ]
    for kernel, (memoized, reference) in zip(KERNELS, calls):
        kernel.cache_clear()
        results = [memoized(f) for f in (lean, padded)]
        assert kernel.cache_info().currsize == 2
        assert results[0] == results[1]
        assert representation(results[0]) != representation(results[1])
        for f, result in zip((lean, padded), results):
            assert representation(result) == representation(reference(f))
            assert memoized(RationalFunc(f.num, f.den)) is result


def test_rational_kernels_are_bounded_by_the_module_constant():
    for kernel in KERNELS:
        size = ratfunc.SUM_CACHE_SIZE if kernel is ratfunc._sum else ratfunc.RATIONAL_CACHE_SIZE
        assert kernel.cache_info().maxsize == size


def test_trusted_form_constructor_drops_cancelled_terms():
    alpha = parse_poly_form("t1*dt1 + 1/(1 + t1^2)*dt2", 2)
    beta = parse_poly_form("-t1*dt1 - 1/(1 + t1^2)*dt2 + dt2", 2)
    one = Polynomial.constant(simplex_variables(2), 1)
    assert (alpha + beta).terms == {(1,): one}
    assert (alpha - alpha).terms == {}
    terms = {(0,): Polynomial.zero(simplex_variables(2)), (1,): one}
    assert PolyForm._of(2, 1, terms).terms == PolyForm(2, 1, terms).terms == {(1,): one}


def test_builtin_run_never_imports_numpy():
    """`python -m rhamcheck --builtin all` in a fresh interpreter (the test
    process has numpy loaded) passes without ever looking numpy up."""
    run = run_python("-c", "import runpy, sys\n"
                     "tried = []\n"
                     "class Watch:\n"
                     "    def find_spec(self, name, path=None, target=None):\n"
                     "        tried.extend([name] if name.split('.')[0] == 'numpy' else [])\n"
                     "sys.meta_path.insert(0, Watch())\n"
                     "sys.argv = ['rhamcheck', '--builtin', 'all']\n"
                     "try:\n"
                     "    runpy.run_module('rhamcheck', run_name='__main__')\n"
                     "except SystemExit as exit:\n"
                     "    code = exit.code\n"
                     "print(code, tried, 'numpy' in sys.modules, file=sys.stderr)")
    assert "total: 29 pass, 0 fail" in run.stdout
    assert run.stderr.split() == ["0", "[]", "False"]


def test_cone_homotopy_interval():
    assert cone_homotopy(parse_poly_form("dt1", 1)) == parse_poly_form("t1", 1)


def test_cone_homotopy_identity():
    rng = random.Random(7)
    for _ in range(50):
        n = rng.randint(1, 3)
        degree = rng.randint(0, n)
        alpha = _random_poly_form(rng, n, degree, max_coeff_degree=6)
        assert homotopy_defect(alpha).is_zero()


def test_closed_forms_are_exact_up_to_constants():
    # for closed alpha the contraction gives alpha - (vertex-0 value) = d(kappa alpha)
    rng = random.Random(19)
    for _ in range(20):
        n = rng.randint(1, 3)
        degree = rng.randint(0, n - 1)
        alpha = differential(_random_poly_form(rng, n, degree, 4))
        assert differential(alpha).is_zero()
        recovered = differential(cone_homotopy(alpha))
        assert recovered == alpha
    f = parse_poly_form("t1^2 + 3", 2)  # closed 0-form only if constant; use d-route
    closed0 = PolyForm.constant(2, Fraction(7, 2))
    assert differential(cone_homotopy(closed0)) + PolyForm.constant(
        2, closed0.vertex_value()
    ) == closed0


def test_poly_form_text_round_trip():
    rng = random.Random(23)
    for _ in range(10):
        n = rng.randint(1, 3)
        alpha = _random_poly_form(rng, n, rng.randint(0, n), 3)
        assert parse_poly_form(str(alpha), n) == alpha
    rational = parse_poly_form("2/(1 + t1^2) * dt1", 1)
    assert parse_poly_form(str(rational), 1) == rational


def test_cone_homotopy_constant():
    c = PolyForm.constant(2, Fraction(5))
    assert cone_homotopy(c).is_zero()
    assert homotopy_defect(c).is_zero()
    with pytest.raises(NonPolynomialCoefficient):
        cone_homotopy(parse_poly_form("1/(1 + t1^2) * dt1", 1))


def test_to_cochain_values():
    one = PolyForm.constant(1, 1)
    tau_one = to_cochain(one)
    assert all(v == 1 for v in tau_one.values.values())
    dt = parse_poly_form("dt1", 1)
    tau_dt = to_cochain(dt)
    assert tau_dt.values[(0, 1)] == 1


def test_to_cochain_is_chain_map():
    rng = random.Random(9)
    for _ in range(30):
        n = rng.randint(1, 3)
        degree = rng.randint(0, n - 1)
        alpha = _random_poly_form(rng, n, degree, 3)
        lhs = to_cochain(differential(alpha))
        rhs = coboundary(to_cochain(alpha))
        assert lhs == rhs


def test_tau_not_multiplicative_at_cochain_level():
    # alpha = t1 (0-form), beta = dt1 on the triangle: on the edge (0,1)
    # tau(alpha ^ beta) = 1/2 while (tau alpha u tau beta) = 0 there
    alpha = parse_poly_form("t1", 2)
    beta = parse_poly_form("dt1", 2)
    lhs = to_cochain(wedge(alpha, beta))
    from rhamcheck.simplicial import aw_cup

    rhs = aw_cup(to_cochain(alpha), to_cochain(beta))
    assert lhs.values[(0, 1)] == Fraction(1, 2)
    assert rhs.values[(0, 1)] == 0
    assert lhs != rhs


def test_naturality_of_to_cochain():
    rng = random.Random(11)
    for _ in range(15):
        n = rng.randint(1, 3)
        m = rng.randint(0, n)
        h = random_delta_morphism(rng, m, n)
        degree = rng.randint(0, m)
        alpha = _random_poly_form(rng, n, degree, 3)
        Km = standard_simplex(m)
        lhs = to_cochain(pullback_delta(h, alpha))
        tau_big = to_cochain(alpha)
        # restriction along h: value on an m-simplex is the value on its image
        for simplex in Km.n_simplices(degree):
            image = tuple(h.values[v] for v in simplex)
            if len(set(image)) < len(image):
                assert lhs.values[simplex] == 0
            else:
                assert lhs.values[simplex] == tau_big.values[image]


def family_defects(family):
    """What a FormsFamily's callers must not give: a simplex of the complex with no
    form, a form of the wrong dimension or of the wrong degree (but zero), and a
    face i of s where the pullback of s's form differs from the face's form."""
    K, found = family.complex, []
    for d, ids in K.simplices.items():
        for s in ids:
            form = family.assignment.get(s)
            if form is None or form.n != d or (form.degree != family.degree
                                               and not form.is_zero()):
                found.append(("form", s))
                continue
            for i in range(d + 1) if d else ():
                face = family.assignment.get(K.face(s, i))
                if face is not None and pullback_delta(DeltaMorphism.face(d, i), form) != face:
                    found.append(("face", s, i))
    return found


def test_forms_family_compatibility_checked():
    K = standard_simplex(1)
    good = FormsFamily.from_top_form(K, parse_poly_form("t1", 1))
    assert family_defects(good) == []
    bad = dict(good.assignment)
    bad[(0,)] = PolyForm.constant(0, Fraction(7))
    assert family_defects(FormsFamily(K, 0, bad)) == [("face", (0, 1), 1)]
    del bad[(1,)]
    bad[(0,)] = PolyForm.constant(1, Fraction(0))
    assert family_defects(FormsFamily(K, 0, bad)) == [("form", (0,)), ("form", (1,)),
                                                      ("face", (0, 1), 1)]
    # t1 is zero at vertex 0, where any degree is right, and 1 at vertex 1
    assert family_defects(FormsFamily(K, 1, good.assignment)) == [("form", (1,)),
                                                                  ("form", (0, 1))]


def test_extension_interval_interpolates():
    bc = boundary_complex(1)
    a, b = Fraction(3), Fraction(-2)
    family = FormsFamily(
        bc, 0, {(0,): PolyForm.constant(0, a), (1,): PolyForm.constant(0, b)}
    )
    extended = extend_from_boundary(family)
    assert extended == parse_poly_form("3 - 5*t1", 1)


def test_extension_zero_family():
    bc = boundary_complex(2)
    zero = {s: PolyForm.zero(len(s) - 1, 1) for ids in bc.simplices.values() for s in ids}
    family = FormsFamily(bc, 1, zero)
    extended = extend_from_boundary(family)
    for i in range(3):
        assert pullback_delta(DeltaMorphism.face(2, i), extended).is_zero()


@pytest.mark.parametrize("n", [2, 3])
def test_extension_round_trip(n):
    rng = random.Random(13 + n)
    bc = boundary_complex(n)
    for _ in range(20):
        q = rng.randint(0, n - 1)
        source = _random_poly_form(rng, n, q, max_coeff_degree=2)
        family = FormsFamily.from_top_form(bc, source)
        extended = extend_from_boundary(family)
        for i in range(n + 1):
            restricted = pullback_delta(DeltaMorphism.face(n, i), extended)
            facet = tuple(v for v in range(n + 1) if v != i)
            assert restricted == family.assignment[facet]


def coefficient_degree(form):
    return max([0] + [c.total_degree() for c in form.polynomial_terms().values()])


@pytest.mark.parametrize("n", [2, 3, 4])
def test_extension_has_the_least_degree(n):
    """A compatible family of coefficient degree r <= 3 on the boundary of Delta^n
    extends to a form of coefficient degree <= max(1, r) restricting to every facet."""
    rng = random.Random(59 + n)
    bc = boundary_complex(n)
    for _ in range(12):
        q = rng.randint(0, n - 1)
        source = _random_poly_form(rng, n, q, max_coeff_degree=rng.randint(0, 3))
        family = FormsFamily.from_top_form(bc, source)
        r = max(coefficient_degree(family.assignment[s]) for s in bc.n_simplices(n - 1))
        extended = extend_from_boundary(family)
        assert coefficient_degree(extended) <= max(1, r)
        for i in range(n + 1):
            restricted = pullback_delta(DeltaMorphism.face(n, i), extended)
            assert restricted == family.assignment[DeltaMorphism.face(n, i).values]


def test_extension_refuses_facets_that_disagree():
    """lambda_0 lambda_1 on the facet (0, 1, 2) of the boundary of Delta^3 and zero
    elsewhere: the facets (0, 1, 2) and (0, 1, 3) disagree on their edge (0, 1)."""
    bc = boundary_complex(3)
    assignment = {s: PolyForm.zero(len(s) - 1, 0) for ids in bc.simplices.values() for s in ids}
    assignment[(0, 1, 2)] = parse_poly_form("t1 * (1 - t1 - t2)", 2)
    family = FormsFamily(bc, 0, assignment)
    assert family_defects(family) == [("face", (0, 1, 2), 2)]
    with pytest.raises(IncompatibleFamily):
        extend_from_boundary(family)


def test_family_complex_dimensions_match_simplicial():
    cases = [(standard_simplex(2), 3), (boundary_complex(2), 3)]
    for K in (standard_simplex(3), boundary_complex(3), boundary_complex(4)):
        cases += [(K, N) for N in range(K.dimension, 5)]
    for K, N in cases:
        fc = FamilyComplex(K, weight_cutoff=N)
        for q in range(K.dimension + 1):
            assert fc.cohomology_dimension(q) == simplicial_cohomology(K, q).dimension


# ---------------------------------------------------------------------------
# the family basis against the face-compatibility constraints

COMPLEXES = {"delta%d" % n: standard_simplex(n) for n in range(4)}
COMPLEXES.update({"boundary%d" % n: boundary_complex(n) for n in range(1, 5)})


def pairwise_cofaces(faces, simplices):
    """The coface table by testing every pair: the reference for `_coface_table`."""
    return {f: [s for s in simplices if set(f) <= set(s)] for f in faces}


@pytest.mark.parametrize("name", sorted(COMPLEXES))
def test_coface_table_matches_the_pairwise_test(name):
    K = COMPLEXES[name]
    got = _coface_table(K.dim_of, K.dim_of)
    expected = pairwise_cofaces(K.dim_of, K.dim_of)
    assert got == expected and list(got) == list(expected)
    if name.startswith("boundary"):
        # the facets-plus-top table that the boundary extension builds
        n = K.dimension + 1
        written = K.n_simplices(n - 1) + (tuple(range(n + 1)),)
        got = _coface_table(K.dim_of, written)
        expected = pairwise_cofaces(K.dim_of, written)
        assert got == expected and list(got) == list(expected)


def constraint_columns(K, N, q):
    """The face-compatibility constraints on all local monomial q-forms of weight <= N.

    One column per t^e dt_S on a simplex, keyed (simplex, e, S); one row per
    (simplex, face index, monomial form on the face), holding pullback to the
    face minus the face's own coordinate.  The compatible families are the
    kernel.
    """
    r = N - q
    columns = {}
    for d, ids in K.simplices.items():
        monos = [e for e in product(range(r + 1), repeat=d) if sum(e) <= r]
        for s in ids:
            for S in combinations(range(d), q):
                for e in monos:
                    columns[(s, e, S)] = {}
    for (s, e, S), column in columns.items():
        d = K.dim_of[s]
        form = PolyForm(d, q, {S: Polynomial(simplex_variables(d), {e: 1})})
        for i in range(d + 1) if d else ():
            for T, c in pullback_delta(DeltaMorphism.face(d, i), form).terms.items():
                for ee, value in c.terms.items():
                    column[(s, i, ee, T)] = column.get((s, i, ee, T), 0) + value
    for d, ids in K.simplices.items():
        for s in ids:
            for i in range(d + 1) if d else ():
                face = K.face(s, i)
                for (t, e, S), column in columns.items():
                    if t == face:
                        column[(s, i, e, S)] = column.get((s, i, e, S), 0) - 1
    return columns


def full_table_basis(K, N, q):
    """The families of degree q at cutoff N as `FamilyComplex` wrote them before its
    basis became an echelon on the maximal simplices: the Arnold-Falk-Winther
    families (r >= 1) or the Whitney forms of a cocycle basis (r = 0), written on
    every simplex of K."""
    cofaces = _coface_table(K.dim_of, K.dim_of)
    r = N - q
    if r < 0:
        return []
    if r == 0:
        return _whitney_basis(K, cofaces, q)
    return _barycentric_basis(cofaces, q, r)


def written_family(K, family, q):
    """The FormsFamily of the forms a family writes on every simplex of K."""
    terms = {s: {} for s in K.dim_of}
    for (_, s, e, S), c in family.items():
        terms[s].setdefault(S, {})[e] = c
    assignment = {}
    for s, by_set in terms.items():
        d = K.dim_of[s]
        assignment[s] = PolyForm(d, q, {S: Polynomial(simplex_variables(d), monos)
                                        for S, monos in by_set.items()})
    return FormsFamily(K, q, assignment)


def reference_dimensions(K, N):
    """dim H^q of the family complex at cutoff N, q = 0..dim K, built the old way:
    the families of `full_table_basis`, each image under d solved on a tracked
    echelon of the next degree's families.  The reference for the one build at
    N, which reads the dimensions at N - 1 from a prefix of its basis."""
    bases = [full_table_basis(K, N, q) for q in range(K.dimension + 2)]
    d = []
    for q in range(K.dimension + 1):
        echelon = Echelon(bases[q + 1], track=True)
        columns = []
        for family in bases[q]:
            image = {}
            for (_, s, e, S), c in family.items():
                for m, de, T in d_monomial(e, S):
                    key = (sum(de), s, de, T)
                    image[key] = image.get(key, 0) + m * c
            rest, coords = echelon.reduce(image)
            assert not rest
            columns.append(coords)
        d.append(Matrix(len(bases[q + 1]), columns))
    return [CohomologyPair(d[q - 1] if q else Matrix(len(bases[0]), []), d[q]).dimension
            for q in range(K.dimension + 1)]


@pytest.mark.parametrize("name", sorted(COMPLEXES))
def test_family_basis_spans_the_compatible_families(name):
    K = COMPLEXES[name]
    for N in range(5):
        for q in range(K.dimension + 2):
            columns = constraint_columns(K, N, q)
            nullity = len(columns) - len(Echelon(columns.values()).rows)
            basis = full_table_basis(K, N, q)
            assert len(basis) == len(Echelon(basis).rows) == nullity, (N, q)
            for family in basis:
                residual = {}
                for key, c in family.items():
                    for row, value in columns[key[1:]].items():
                        residual[row] = residual.get(row, 0) + c * value
                assert not any(residual.values()), (N, q, family)
                assert family_defects(written_family(K, family, q)) == []


@pytest.mark.parametrize("name", sorted(COMPLEXES))
def test_family_basis_counts_per_face(name):
    """For r >= 1, C(r-1, dim f - q) * C(r+q, q) families attach to each face f:
    each family lives exactly on the simplices containing its face."""
    K = COMPLEXES[name]
    simplices = [s for ids in K.simplices.values() for s in ids]
    for N in range(1, 5):
        for q in range(min(N - 1, K.dimension) + 1):
            r = N - q
            counts = dict.fromkeys(simplices, 0)
            for family in full_table_basis(K, N, q):
                support = {s for _, s, _, _ in family}
                face = min(support, key=len)
                assert support == {s for s in simplices if set(face) <= set(s)}
                counts[face] += 1
            for f in simplices:
                d = len(f) - 1
                expected = math.comb(r - 1, d - q) * math.comb(r + q, q) if d >= q else 0
                assert counts[f] == expected, (N, q, f)


@pytest.mark.parametrize("name", ["delta2", "delta3", "boundary2", "boundary3"])
def test_whitney_families_integrate_to_their_cocycles(name):
    """At r = 0 the families are the Whitney forms W(z) of a cocycle basis, and the
    integration map sends each back to its cocycle: Psi(Lambda(z)) = z."""
    K = COMPLEXES[name]
    for q in range(K.dimension + 1):
        basis = _whitney_basis(K, _coface_table(K.dim_of, K.dim_of), q)
        cocycles, _, _ = kernel_image(_coboundary_matrix(K, q))
        assert len(basis) == len(cocycles)
        for family, z in zip(basis, cocycles):
            forms = written_family(K, family, q)
            assert all(c.total_degree() == 0 for form in forms.assignment.values()
                       for c in form.terms.values())
            values = {K.n_simplices(q)[j]: v for j, v in z.items()}
            assert forms.to_cochain() == Cochain(K, q, values)
            assert all(isinstance(v, Fraction) for v in forms.to_cochain().values.values())


@pytest.mark.parametrize("name", sorted(COMPLEXES))
def test_family_basis_is_the_sorted_echelon_on_the_maximal_simplices(name):
    """In each degree the basis is the reduced echelon basis of the families written
    on the maximal simplices, sorted by pivot, and its families of weight <= N - 1,
    a prefix, are the basis at N - 1; each representative's FormsFamily is compatible."""
    K = COMPLEXES[name]
    maximal = {s for s in K.dim_of if not any(set(s) < set(t) for t in K.dim_of)}

    def sorted_echelon(N, q):
        rows = Echelon({key: c for key, c in family.items() if key[1] in maximal}
                       for family in full_table_basis(K, N, q)).rows
        return [rows[pivot] for pivot in sorted(rows)]

    for N in range(5):
        fc = FamilyComplex(K, N)
        for q in range(K.dimension + 2):
            basis = [{key: Fraction(c, scale) for key, c in family.items()}
                     for family, scale in fc._rows[q]]
            assert basis == sorted_echelon(N, q), (N, q)
            below = sorted_echelon(N - 1, q)
            assert basis[:len(below)] == below, (N, q)
            assert all(max(family)[0] >= N - q for family in basis[len(below):]), (N, q)
        for q in range(K.dimension + 1):
            assert all(family_defects(rep) == [] for rep in fc.representatives(q))


@pytest.mark.parametrize("name", sorted(COMPLEXES))
def test_one_build_gives_the_dimensions_at_both_cutoffs(name):
    """dim H^q at N, and at N - 1 from the prefix of the same build, equal those of
    separate builds the old way; `stabilized`, which also asks every representative
    at N to lie in the prefix, agrees with the dimensions on these complexes."""
    K = COMPLEXES[name]
    degrees = range(K.dimension + 1)
    for N in range(1, 5):
        fc = FamilyComplex(K, N)
        at_n, below = reference_dimensions(K, N), reference_dimensions(K, N - 1)
        assert [fc.cohomology_dimension(q) for q in degrees] == at_n, N
        prefixes = [(fc._prefix.get(q - 1, 0), fc._prefix[q]) for q in degrees]
        assert [fc._pairs[q].prefix_dimension(*prefixes[q]) for q in degrees] == below, N
        assert [fc.stabilized(q) for q in degrees] == [a == b for a, b in zip(at_n, below)], N


def test_tau_cohomology_builds_one_family_complex(monkeypatch):
    built = []

    class Counted(FamilyComplex):
        def __init__(self, complex_, weight_cutoff):
            built.append((complex_.name, weight_cutoff))
            super().__init__(complex_, weight_cutoff)

    monkeypatch.setattr(checks, "FamilyComplex", Counted)
    text = ("format_version 1\nname one\n\n[check tau]\nkind tau_cohomology\n"
            "complex boundary3\nmax_weight 3\n")
    (result,) = run_scenario_checks(Scenario(text), Settings())
    assert result.status == "pass"
    assert ("stabilized", "true") in result.details
    assert built == [("boundary3", 3)]


def test_family_complex_makes_no_pullback_and_no_constraint_kernel(monkeypatch):
    """The basis is written down face by face: no pullback_delta, and the only
    kernel is the simplicial coboundary's, at r = 0."""
    pullbacks, kernels = [], []
    monkeypatch.setattr(simplex_forms, "pullback_delta",
                        lambda *args: pullbacks.append(args))
    kernel = simplex_forms.kernel_image
    monkeypatch.setattr(simplex_forms, "kernel_image",
                        lambda m: kernels.append(m) or kernel(m))
    K = boundary_complex(3)
    for N in (1, 2, 3):
        fc = FamilyComplex(K, N)
        (matrix,) = kernels
        expected = _coboundary_matrix(K, N)
        assert (matrix.rows, matrix.columns) == (expected.rows, expected.columns)
        kernels.clear()
    assert [fc.cohomology_dimension(q) for q in range(3)] == [1, 0, 1]
    FamilyComplex(K, 4)
    assert pullbacks == [] and kernels == []
