"""Forms on simplices: algebra, pullback, integration, contraction, families."""

import math
import random
from fractions import Fraction
from itertools import combinations, product

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from rhamcheck import ratfunc, simplex_forms
from rhamcheck.checks import _random_algebraic_form, _random_poly, _random_poly_form
from rhamcheck.comparison import pullback_form
from rhamcheck.errors import (
    DenominatorVanishes,
    DimensionMismatch,
    IncompatibleFamily,
    NonPolynomialCoefficient,
    NotTopDegree,
)
from rhamcheck.linalg import Echelon, kernel_image
from rhamcheck.poly import Polynomial, drl_key
from rhamcheck.ratfunc import RationalFunc, _positive_on_simplex, parts, ratio
from rhamcheck.scenarios import load_builtin
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
    _coface_table,
    _duffy_points,
    _quad_value,
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
    assert pullback_delta(DeltaMorphism.identity(1), alpha) == alpha
    # vertex 1 of the interval: the 0-form t1 evaluates to 1
    f = parse_poly_form("t1", 1)
    at_v1 = pullback_delta(DeltaMorphism(0, 1, (1,)), f)
    assert at_v1.vertex_value(0) == 1
    at_v0 = pullback_delta(DeltaMorphism(0, 1, (0,)), f)
    assert at_v0.vertex_value(0) == 0


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
        composed = pullback_delta(h.compose(g), alpha)
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
            if not sigma.validate():
                continue
            for degree in range(sigma.n + 1):
                pulled = pullback_form(sigma, _random_algebraic_form(rng, algebra, degree))
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
    # the one Gauss-Legendre node of order 1 is t1 = 1/2, where 2*t1 - 1 vanishes
    with pytest.raises(ZeroDivisionError):
        _quad_value(parse_poly_form("1/(2*t1 - 1) * dt1", 1), 1)


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
        assert len(runs) == 2
        # t1^2 + (1 - t1)^2 needs one Polya step: certified at bound 1, not at 0
        tight = parse_poly_form("1/(1 - 2*t1 + 2*t1^2) * dt1", 1).terms[(0,)]
        assert tight.certify_denominator(power_bound=1)
        for _ in range(2):
            with pytest.raises(DenominatorVanishes):
                tight.certify_denominator(power_bound=0)
        assert tight.certify_denominator(power_bound=1)
        assert [bound for _, bound in runs[2:]] == [1, 0]
    finally:
        ratfunc._has_certificate.cache_clear()


KERNELS = (ratfunc._product, ratfunc._partial, ratfunc._substitute)


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
        assert kernel.cache_info().maxsize == ratfunc.RATIONAL_CACHE_SIZE


def test_trusted_form_constructor_drops_cancelled_terms():
    alpha = parse_poly_form("t1*dt1 + 1/(1 + t1^2)*dt2", 2)
    beta = parse_poly_form("-t1*dt1 - 1/(1 + t1^2)*dt2 + dt2", 2)
    one = Polynomial.constant(simplex_variables(2), 1)
    assert (alpha + beta).terms == {(1,): one}
    assert (alpha - alpha).terms == {}
    terms = {(0,): Polynomial.zero(simplex_variables(2)), (1,): one}
    assert PolyForm._of(2, 1, terms).terms == PolyForm(2, 1, terms).terms == {(1,): one}


def test_only_quadrature_imports_numpy():
    # a fresh interpreter: the test session itself has numpy loaded
    run = run_python("-c", "import sys, rhamcheck.cli\n"
                     "before = 'numpy' in sys.modules\n"
                     "from rhamcheck.simplex_forms import integrate_numeric, parse_poly_form\n"
                     "integrate_numeric(parse_poly_form('1/(1 + t1^2) * dt1', 1))\n"
                     "print(before, 'numpy' in sys.modules)")
    assert run.stdout.split() == ["False", "True"]


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
        2, closed0.vertex_value(0)
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


def test_forms_family_compatibility_checked():
    K = standard_simplex(1)
    good = FormsFamily.from_top_form(K, parse_poly_form("t1", 1))
    FormsFamily(K, 0, good.assignment)  # does not raise
    bad = dict(good.assignment)
    bad[(0,)] = PolyForm.constant(0, Fraction(7))
    with pytest.raises(IncompatibleFamily):
        FormsFamily(K, 0, bad)


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
    full = standard_simplex(n)
    for _ in range(20):
        q = rng.randint(0, n - 1)
        source = _random_poly_form(rng, n, q, max_coeff_degree=2)
        family = FormsFamily.restricted_to(FormsFamily.from_top_form(full, source), bc)
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
    full = standard_simplex(n)
    for _ in range(12):
        q = rng.randint(0, n - 1)
        source = _random_poly_form(rng, n, q, max_coeff_degree=rng.randint(0, 3))
        family = FormsFamily.restricted_to(FormsFamily.from_top_form(full, source), bc)
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
    with pytest.raises(IncompatibleFamily):
        FormsFamily(bc, 0, assignment)
    family = FormsFamily(bc, 0, assignment, check=False)
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


@pytest.mark.parametrize("name", sorted(COMPLEXES))
def test_family_basis_spans_the_compatible_families(name):
    K = COMPLEXES[name]
    for N in range(5):
        fc = FamilyComplex(K, N)
        for q in range(K.dimension + 2):
            columns = constraint_columns(K, N, q)
            nullity = len(columns) - len(Echelon(columns.values()).rows)
            basis = fc._family_basis[q]
            assert len(basis) == len(Echelon(basis).rows) == nullity, (N, q)
            for family in basis:
                residual = {}
                for key, c in family.items():
                    for row, value in columns[key].items():
                        residual[row] = residual.get(row, 0) + c * value
                assert not any(residual.values()), (N, q, family)
                FormsFamily(K, q, fc._materialize(family, q).assignment, check=True)


@pytest.mark.parametrize("name", sorted(COMPLEXES))
def test_family_basis_counts_per_face(name):
    """For r >= 1, C(r-1, dim f - q) * C(r+q, q) families attach to each face f:
    each family lives exactly on the simplices containing its face."""
    K = COMPLEXES[name]
    simplices = [s for ids in K.simplices.values() for s in ids]
    for N in range(1, 5):
        fc = FamilyComplex(K, N)
        for q in range(min(N - 1, K.dimension) + 1):
            r = N - q
            counts = dict.fromkeys(simplices, 0)
            for family in fc._family_basis[q]:
                support = {s for s, _, _ in family}
                face = min(support, key=len)
                assert support == {s for s in simplices if set(face) <= set(s)}
                counts[face] += 1
            for f in simplices:
                d = len(f) - 1
                expected = math.comb(r - 1, d - q) * math.comb(r + q, q) if d >= q else 0
                assert counts[f] == expected, (N, q, f)


@pytest.mark.parametrize("name", ["delta2", "delta3", "boundary2", "boundary3"])
def test_whitney_families_integrate_to_their_cocycles(name):
    """At r = 0 the basis is the Whitney forms W(z) of a cocycle basis, and the
    integration map sends each back to its cocycle: Psi(Lambda(z)) = z."""
    K = COMPLEXES[name]
    for q in range(K.dimension + 1):
        fc = FamilyComplex(K, q)
        cocycles, _, _ = kernel_image(_coboundary_matrix(K, q))
        assert len(fc._family_basis[q]) == len(cocycles)
        for family, z in zip(fc._family_basis[q], cocycles):
            forms = fc._materialize(family, q)
            assert all(c.total_degree() == 0 for form in forms.assignment.values()
                       for c in form.terms.values())
            values = {K.n_simplices(q)[j]: v for j, v in z.items()}
            assert forms.to_cochain() == Cochain(K, q, values)
            assert all(isinstance(v, Fraction) for v in forms.to_cochain().values.values())


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
