"""Pullback of algebraic forms along simplices, periods, and the residual suite."""

import math
import random
from fractions import Fraction
from itertools import combinations

import pytest

from rhamcheck.comparison import (
    ParamSimplex,
    SingularFamily,
    chain_map_residual,
    multiplicativity_check,
    naturality_residual,
    period,
    period_cochain,
    pullback_form,
)
from rhamcheck.derham import AlgebraicForm, FpAlgebra, parse_algebraic_form, wedge
from rhamcheck.errors import InvalidSimplex, NotACycle, NotClosedForm
from rhamcheck.formtext import parse_polynomial
from rhamcheck.poly import Polynomial
from rhamcheck.scenarios import load_builtin
from rhamcheck.simplex_forms import parse_poly_form, simplex_variables, to_cochain
from rhamcheck.simplicial import DeltaMorphism, aw_cup, is_cycle, pair


def free_algebra(nvars=2):
    names = ("x", "y", "z")[:nvars]
    return FpAlgebra(names, [])


def random_polynomial_simplex(rng, algebra, n, max_degree=2):
    variables = simplex_variables(n)
    comps = []
    for _ in range(algebra.nvars):
        terms = {}
        for _ in range(rng.randint(1, 3)):
            e = [0] * n
            if n:
                for _ in range(rng.randint(0, max_degree)):
                    e[rng.randrange(n)] += 1
            terms[tuple(e)] = Fraction(rng.randint(-3, 3))
        comps.append(Polynomial(variables, terms))
    return ParamSimplex(n, algebra, comps)


def random_algebraic_form(rng, algebra, degree, max_coeff_degree=2):
    terms = {}
    for S in combinations(range(algebra.nvars), degree):
        if rng.random() < 0.8:
            coeff = {}
            for _ in range(rng.randint(1, 3)):
                e = [0] * algebra.nvars
                for _ in range(rng.randint(0, max_coeff_degree)):
                    e[rng.randrange(algebra.nvars)] += 1
                coeff[tuple(e)] = Fraction(rng.randint(-3, 3))
            terms[S] = Polynomial(algebra.variables, coeff)
    return AlgebraicForm(algebra, degree, terms)


def test_validate_simplex_examples():
    algebra = load_builtin("circle").algebra
    const = ParamSimplex(0, algebra, ["1", "0"])
    assert const.validate().valid
    arc = ParamSimplex(1, algebra, ["(1 - t1^2)/(1 + t1^2)", "2*t1/(1 + t1^2)"])
    assert arc.validate().valid
    with pytest.raises(InvalidSimplex):
        ParamSimplex(1, algebra, ["t1", "t1"])
    bad = ParamSimplex(1, algebra, ["t1", "t1"], check=False)
    cert = bad.validate()
    assert not cert.valid
    # residual 2 t^2 - 1 after clearing denominators
    j, residual = cert.residuals[0]
    assert j == 0
    assert residual == parse_polynomial("2*t1^2 - 1", ("t1",))


def test_pullback_constant_simplex_kills_positive_degree():
    rng = random.Random(1)
    algebra = load_builtin("circle").algebra
    const = ParamSimplex(0, algebra, ["1", "0"])
    omega = parse_algebraic_form("x*dy - y*dx", algebra)
    assert pullback_form(const, omega).is_zero()


def test_pullback_circle_arc_winding_form():
    algebra = load_builtin("circle").algebra
    arc = ParamSimplex(1, algebra, ["(1 - t1^2)/(1 + t1^2)", "2*t1/(1 + t1^2)"])
    omega = parse_algebraic_form("x*dy - y*dx", algebra)
    pulled = pullback_form(arc, omega)
    assert pulled == parse_poly_form("2/(1 + t1^2) * dt1", 1)


def test_pullback_is_dg_morphism():
    rng = random.Random(3)
    algebra = free_algebra(2)
    from rhamcheck.derham import differential
    from rhamcheck.simplex_forms import differential as d_simplex
    from rhamcheck.simplex_forms import wedge as wedge_simplex

    for _ in range(30):
        n = rng.randint(1, 2)
        sigma = random_polynomial_simplex(rng, algebra, n)
        p = rng.randint(0, 1)
        omega1 = random_algebraic_form(rng, algebra, p)
        omega2 = random_algebraic_form(rng, algebra, rng.randint(0, 1))
        lhs = pullback_form(sigma, wedge(omega1, omega2))
        rhs = wedge_simplex(pullback_form(sigma, omega1), pullback_form(sigma, omega2))
        assert lhs == rhs
        assert pullback_form(sigma, differential(omega1)) == d_simplex(
            pullback_form(sigma, omega1)
        )


def test_period_idempotents_two_points():
    algebra = load_builtin("two_points").algebra
    plus = ParamSimplex(0, algebra, ["1"], name="at_plus")
    minus = ParamSimplex(0, algebra, ["-1"], name="at_minus")
    e_plus = parse_algebraic_form("(1 + x)/2", algebra)
    e_minus = parse_algebraic_form("(1 - x)/2", algebra)
    table = {}
    for fname, form in (("e+", e_plus), ("e-", e_minus)):
        for sname, simplex in (("+", plus), ("-", minus)):
            value, _ = period(form, simplex)
            table[(fname, sname)] = value
    assert table == {
        ("e+", "+"): 1,
        ("e+", "-"): 0,
        ("e-", "+"): 0,
        ("e-", "-"): 1,
    }


def test_period_circle_arc_quarter_turn():
    algebra = load_builtin("circle").algebra
    arc = ParamSimplex(1, algebra, ["(1 - t1^2)/(1 + t1^2)", "2*t1/(1 + t1^2)"])
    omega = parse_algebraic_form("x*dy - y*dx", algebra)
    value, estimate = period(omega, arc, order=16)
    assert abs(value - math.pi / 2) < 1e-10
    assert estimate < 1e-12


def xi_consistency_defect(omega, sigma):
    """The direct period minus the value at the identity simplex of the
    cochain of the pulled-back form; the two routes agree on both lanes."""
    direct, _ = period(omega, sigma)
    cochain = to_cochain(pullback_form(sigma, omega))
    return direct - cochain.values[tuple(range(sigma.n + 1))]


def test_xi_consistency_both_routes():
    rng = random.Random(5)
    algebra = free_algebra(2)
    for _ in range(10):
        n = rng.randint(0, 2)
        sigma = random_polynomial_simplex(rng, algebra, n)
        omega = random_algebraic_form(rng, algebra, n)
        assert xi_consistency_defect(omega, sigma) == 0
    # numeric lane too
    circle = load_builtin("circle").algebra
    arc = ParamSimplex(1, circle, ["(1 - t1^2)/(1 + t1^2)", "2*t1/(1 + t1^2)"])
    omega = parse_algebraic_form("x*dy - y*dx", circle)
    assert abs(xi_consistency_defect(omega, arc)) < 1e-12


def test_chain_map_residual_exact_lane():
    rng = random.Random(7)
    algebra = free_algebra(2)
    for _ in range(50):
        p = rng.randint(0, 1)
        sigma = random_polynomial_simplex(rng, algebra, p + 1)
        omega = random_algebraic_form(rng, algebra, p)
        residual, estimate = chain_map_residual(omega, sigma)
        assert residual == 0
        assert estimate == 0


def test_chain_map_residual_numeric_circle():
    algebra = load_builtin("circle").algebra
    # a 2-simplex sweeping a varying arc of the circle
    sigma = ParamSimplex(
        2,
        algebra,
        [
            "(1 - (t1 + t2)^2)/(1 + (t1 + t2)^2)",
            "2*(t1 + t2)/(1 + (t1 + t2)^2)",
        ],
    )
    omega = parse_algebraic_form("x*dy - y*dx", algebra)
    residual, estimate = chain_map_residual(omega, sigma, order=16)
    assert abs(residual) < 1e-10


def test_naturality_random_triples():
    rng = random.Random(9)
    algebra = free_algebra(2)
    for _ in range(30):
        n = rng.randint(1, 3)
        m = rng.randint(0, n)
        values = sorted(rng.randint(0, n) for _ in range(m + 1))
        h = DeltaMorphism(m, n, values)
        sigma = random_polynomial_simplex(rng, algebra, n)
        omega = random_algebraic_form(rng, algebra, rng.randint(0, 2))
        assert naturality_residual(sigma, h, omega).is_zero()


def test_naturality_identity_and_vertex():
    algebra = load_builtin("circle").algebra
    arc = ParamSimplex(1, algebra, ["(1 - t1^2)/(1 + t1^2)", "2*t1/(1 + t1^2)"])
    omega = parse_algebraic_form("x*dy - y*dx", algebra)
    assert naturality_residual(arc, DeltaMorphism.identity(1), omega).is_zero()
    vertex = DeltaMorphism(0, 1, (1,))
    assert naturality_residual(arc, vertex, omega).is_zero()


def test_singular_family_closes_loop():
    circle = load_builtin("circle")
    family, cycle = circle.families["loop"], circle.chains["z"]
    assert is_cycle(cycle)
    # four arcs and four distinct endpoint vertices after dedup
    assert len(family.names(1)) == 4
    assert len(family.names(0)) == 4


def test_circle_pairing_two_pi():
    circle = load_builtin("circle")
    family, cycle = circle.families["loop"], circle.chains["z"]
    omega = parse_algebraic_form("x*dy - y*dx", family.target)
    cochain, estimates = period_cochain(omega, family, order=16)
    value = pair(cochain, cycle)
    assert abs(value - 2 * math.pi) < 1e-8


def test_multiplicativity_exact_two_points():
    algebra = load_builtin("two_points").algebra
    plus = ParamSimplex(0, algebra, ["1"], name="plus")
    minus = ParamSimplex(0, algebra, ["-1"], name="minus")
    family = SingularFamily([plus, minus])
    e_plus = parse_algebraic_form("(1 + x)/2", algebra)
    for z_name, expected in (("plus", 1), ("minus", 0)):
        z = family.chain(0, {z_name: 1})
        lhs, rhs, estimate = multiplicativity_check(e_plus, e_plus, family, z)
        assert lhs == rhs == expected
        assert estimate == 0


def test_multiplicativity_rejects_bad_input():
    algebra = load_builtin("two_points").algebra
    plus = ParamSimplex(0, algebra, ["1"], name="plus")
    family = SingularFamily([plus])
    e_plus = parse_algebraic_form("(1 + x)/2", algebra)
    x_form = parse_algebraic_form("x", algebra)
    z = family.chain(0, {"plus": 1})
    # x is closed here (Omega^1 = 0), so closedness cannot fail; exercise
    # the cycle check instead on a 1-chain that is not a cycle
    loop_family = load_builtin("circle").families["loop"]
    omega = parse_algebraic_form("x*dy - y*dx", loop_family.target)
    not_cycle = loop_family.chain(1, {"arc0": 1})
    with pytest.raises(NotACycle):
        multiplicativity_check(omega, omega, loop_family, not_cycle)


def test_multiplicativity_mixed_degree_circle_times_points():
    scenario = load_builtin("circle_x_points")
    family, z1, z0 = scenario.families["loops"], scenario.chains["z1"], scenario.chains["z0"]
    algebra = family.target
    s_form = parse_algebraic_form("s", algebra)
    omega = parse_algebraic_form("x*dy - y*dx", algebra)
    lhs, rhs, estimate = multiplicativity_check(s_form, omega, family, z1, order=16)
    assert abs(lhs - 2 * math.pi) < 1e-8
    assert abs(lhs - rhs) < 1e-8
    lhs0, rhs0, _ = multiplicativity_check(s_form, omega, family, z0, order=16)
    assert abs(lhs0) < 1e-8
    assert abs(rhs0) < 1e-8


def test_singular_aw_leibniz_numeric_lane():
    # a family with a genuine 2-simplex: one quarter-arc sweep triangle
    from rhamcheck.simplicial import Cochain, coboundary as delta

    algebra = load_builtin("circle").algebra
    omega = parse_algebraic_form("x*dy - y*dx", algebra)
    sweep = ParamSimplex(
        2,
        algebra,
        [
            "(1 - (t1 + t2)^2)/(1 + (t1 + t2)^2)",
            "2*(t1 + t2)/(1 + (t1 + t2)^2)",
        ],
        name="sweep",
    )
    closed_family = SingularFamily([sweep])
    xi_omega, _ = period_cochain(omega, closed_family, order=16)
    for seed in range(5):
        rng = random.Random(seed)
        b = Cochain(
            closed_family.complex,
            0,
            {s: float(rng.randint(-3, 3)) for s in closed_family.complex.n_simplices(0)},
        )
        lhs = delta(aw_cup(b, xi_omega))
        rhs = aw_cup(delta(b), xi_omega) + aw_cup(b, delta(xi_omega))
        for s in lhs.values:
            assert abs(lhs.values[s] - rhs.values[s]) < 1e-10


def test_multiplicativity_rejects_non_closed_form():
    algebra = free_algebra(2)
    sigma = ParamSimplex(1, algebra, ["t1", "t1^2"], name="curve")
    family = SingularFamily([sigma])
    z = family.chain(0, {family.names(0)[0]: 1})
    with pytest.raises(NotClosedForm):
        multiplicativity_check(
            parse_algebraic_form("x", algebra),
            parse_algebraic_form("y", algebra),
            family,
            z,
        )


def test_multiplicativity_torus_flagship():
    torus = load_builtin("torus")
    family, cycle = torus.families["grid"], torus.chains["z"]
    assert is_cycle(cycle)
    algebra = family.target
    omega1 = parse_algebraic_form("x*dy - y*dx", algebra)
    omega2 = parse_algebraic_form("z*dw - w*dz", algebra)
    lhs, rhs, estimate = multiplicativity_check(omega1, omega2, family, cycle, order=16)
    assert abs(lhs - (2 * math.pi) ** 2) < 1e-4
    assert abs(lhs - rhs) < 1e-6


def test_faces_of_a_valid_simplex_are_not_validated_again(monkeypatch):
    """Only the scenario's own simplices substitute the ideal generators."""
    calls = []
    substitute = ParamSimplex.substitute

    def counting(self, f):
        calls.append((self.name, f))
        return substitute(self, f)

    monkeypatch.setattr(ParamSimplex, "substitute", counting)
    torus = load_builtin("torus")
    family, cycle = torus.families["grid"], torus.chains["z"]
    generators = family.target.ideal_generators
    omega1 = parse_algebraic_form("x*dy - y*dx", family.target)
    omega2 = parse_algebraic_form("z*dw - w*dz", family.target)
    multiplicativity_check(omega1, omega2, family, cycle, order=8)
    validated = [name for name, f in calls if f in generators]
    given = [name for name in family.simplex_of if "/" not in name]
    assert len(given) == 32 and len(family.simplex_of) > len(given)
    assert sorted(validated) == sorted(given * len(generators))


def test_face_of_an_invalid_simplex_still_raises():
    algebra = load_builtin("circle").algebra
    x = parse_algebraic_form("x", algebra)
    unchecked = ParamSimplex(1, algebra, ["t1", "t1"], check=False)
    with pytest.raises(InvalidSimplex):
        pullback_form(unchecked.face(0), x)
    assert not unchecked.validate()
    for i in (0, 1):
        with pytest.raises(InvalidSimplex):
            pullback_form(unchecked.face(i), x)
