"""Kähler forms: presentation, wedge, differential, reduction, cohomology."""

import random
from fractions import Fraction

import pytest

from rhamcheck.derham import (
    AlgebraicForm,
    FpAlgebra,
    KaehlerPresentation,
    differential,
    parse_algebraic_form,
    reduce_form,
    truncated_cohomology,
    wedge,
)
from rhamcheck.errors import AlgebraMismatch
from rhamcheck.formtext import parse_polynomial
from rhamcheck.poly import Polynomial


def free_xy():
    return FpAlgebra(("x", "y"), [])


def two_points():
    return FpAlgebra(("x",), ["x^2 - 1"])


def circle():
    return FpAlgebra(("x", "y"), ["x^2 + y^2 - 1"])


def random_form(rng, algebra, degree, max_coeff_degree=3):
    from itertools import combinations

    terms = {}
    for S in combinations(range(algebra.nvars), degree):
        if rng.random() < 0.7:
            coeff = {}
            for _ in range(rng.randint(1, 3)):
                e = [0] * algebra.nvars
                for _ in range(rng.randint(0, max_coeff_degree)):
                    e[rng.randrange(algebra.nvars)] += 1
                coeff[tuple(e)] = Fraction(rng.randint(-4, 4))
            terms[S] = Polynomial(algebra.variables, coeff)
    return AlgebraicForm(algebra, degree, terms)


def test_kaehler_presentation_free_algebra():
    pres = KaehlerPresentation(FpAlgebra(("x",), []))
    assert pres.generator_labels == ("dx",)
    assert pres.relation_matrix == []


def test_kaehler_presentation_two_points():
    B = two_points()
    pres = KaehlerPresentation(B)
    assert pres.relation_matrix == [[parse_polynomial("2*x", B.variables)]]
    # x is a unit mod (x^2 - 1), so dx dies in the quotient
    dx = AlgebraicForm(B, 1, {(0,): parse_polynomial("1", B.variables)})
    assert dx.is_zero()


def test_kaehler_presentation_circle():
    B = circle()
    pres = KaehlerPresentation(B)
    assert pres.relation_matrix == [
        [parse_polynomial("2*x", B.variables), parse_polynomial("2*y", B.variables)]
    ]
    rel = pres.relation_forms()[0]
    assert reduce_form(rel).is_zero()


def test_wedge_examples():
    B = free_xy()
    dx = parse_algebraic_form("dx", B)
    assert wedge(dx, dx).is_zero()
    xdy = parse_algebraic_form("x*dy", B)
    ydx = parse_algebraic_form("y*dx", B)
    assert wedge(xdy, ydx) == parse_algebraic_form("-x*y*dx^dy", B)


def test_wedge_graded_commutativity():
    rng = random.Random(5)
    B = FpAlgebra(("x", "y", "z"), [])
    for _ in range(30):
        p = rng.randint(0, 2)
        q = rng.randint(0, 2)
        w1 = random_form(rng, B, p)
        w2 = random_form(rng, B, q)
        lhs = wedge(w1, w2)
        rhs = wedge(w2, w1).scale((-1) ** (p * q))
        assert lhs == rhs


def test_wedge_rejects_algebra_mismatch():
    with pytest.raises(AlgebraMismatch):
        wedge(
            parse_algebraic_form("dx", free_xy()),
            parse_algebraic_form("dx", circle()),
        )


def test_differential_examples():
    B = free_xy()
    assert differential(parse_algebraic_form("x^2", B)) == parse_algebraic_form(
        "2*x*dx", B
    )
    omega = parse_algebraic_form("x*dy - y*dx", B)
    assert differential(omega) == parse_algebraic_form("2*dx^dy", B)


def test_differential_squared_vanishes():
    rng = random.Random(9)
    for B in (free_xy(), circle(), two_points()):
        for _ in range(50 // 3 + 1):
            omega = random_form(rng, B, rng.randint(0, min(1, B.nvars - 1)))
            assert differential(differential(omega)).is_zero()


def test_leibniz_rule():
    rng = random.Random(21)
    for B in (free_xy(), circle()):
        for _ in range(15):
            p = rng.randint(0, 1)
            w1 = random_form(rng, B, p, max_coeff_degree=2)
            w2 = random_form(rng, B, rng.randint(0, 1), max_coeff_degree=2)
            lhs = differential(wedge(w1, w2))
            rhs = wedge(differential(w1), w2) + wedge(w1, differential(w2)).scale(
                (-1) ** p
            )
            assert lhs == rhs


def test_circle_closed_one_form():
    B = circle()
    omega = parse_algebraic_form("x*dy - y*dx", B)
    # 2 dx^dy lies in the relation submodule: x*(2x dxdy) + y*(2y dxdy) = 2 dxdy
    assert differential(omega).is_zero()


def test_reduce_form_examples():
    B = two_points()
    omega = AlgebraicForm(B, 1, {(0,): parse_polynomial("x^2", B.variables)}, reduce=False)
    assert reduce_form(omega).is_zero()
    assert reduce_form(AlgebraicForm.zero(B, 1)).is_zero()


def test_reduce_form_kills_relation_multiples():
    rng = random.Random(33)
    B = circle()
    pres = KaehlerPresentation(B)
    rel = pres.relation_forms()[0]
    for _ in range(10):
        base = random_form(rng, B, 1, max_coeff_degree=2)
        f = B.nf(
            Polynomial(B.variables, {(rng.randint(0, 1), rng.randint(0, 1)): Fraction(rng.randint(-3, 3))})
        )
        noise = wedge(AlgebraicForm(B, 0, {(): f}), rel)
        cutoff = max(base.weight(), noise.weight(), rel.weight())
        lhs = reduce_form(base + noise, cutoff=cutoff)
        rhs = reduce_form(base, cutoff=cutoff)
        assert lhs == rhs


def test_reduce_form_idempotent_and_linear():
    rng = random.Random(41)
    B = circle()
    for _ in range(10):
        f = random_form(rng, B, 1, max_coeff_degree=2)
        g = random_form(rng, B, 1, max_coeff_degree=2)
        cutoff = max(f.weight(), g.weight())
        rf = reduce_form(f, cutoff=cutoff)
        assert reduce_form(rf, cutoff=cutoff) == rf
        a, b = Fraction(2), Fraction(-3, 2)
        combo = reduce_form(f.scale(a) + g.scale(b), cutoff=cutoff)
        assert combo == reduce_form(f, cutoff=cutoff).scale(a) + reduce_form(
            g, cutoff=cutoff
        ).scale(b)


def test_truncated_cohomology_polynomial_line():
    B = FpAlgebra(("x",), [])
    for n in range(2, 9):
        h0 = truncated_cohomology(B, 0, n)
        assert h0.dimension == 1
        h1 = truncated_cohomology(B, 1, n)
        assert h1.dimension == 0
    assert truncated_cohomology(B, 0, 8).stabilized


def test_truncated_cohomology_two_points():
    B = two_points()
    h0 = truncated_cohomology(B, 0, 4)
    assert h0.dimension == 2
    assert h0.stabilized
    reps = {str(r) for r in h0.representatives}
    assert reps == {"1", "x"}
    h1 = truncated_cohomology(B, 1, 4)
    assert h1.dimension == 0
    # stabilization already at cutoff 2
    assert truncated_cohomology(B, 0, 2).dimension == 2


def test_truncated_cohomology_circle_class():
    B = circle()
    omega = parse_algebraic_form("x*dy - y*dx", B)
    h1 = truncated_cohomology(B, 1, 4)
    assert h1.dimension >= 1
    assert differential(omega).is_zero()
    coords = h1.class_of(omega)
    assert any(c != 0 for c in coords)


def test_form_text_round_trip():
    B = circle()
    rng = random.Random(77)
    for _ in range(10):
        omega = random_form(rng, B, rng.randint(0, 2))
        assert parse_algebraic_form(str(omega), B) == omega


def test_zero_forms_of_any_degree_round_trip():
    B = circle()
    zero1 = AlgebraicForm.zero(B, 1)
    assert str(zero1) == "0"
    assert parse_algebraic_form(str(zero1), B) == zero1
    # every 2-form on the circle is zero: dx^dy = (x^2 + y^2)*dx^dy = 0
    top = parse_algebraic_form("(1 + x*y)*dx^dy", B)
    assert top.is_zero() and top.degree == 2
    assert parse_algebraic_form(str(top), B) == top


def test_parse_gives_a_zero_value_the_requested_degree():
    B = circle()
    assert parse_algebraic_form("0", B, degree=1).degree == 1
    assert parse_algebraic_form("x*dy - x*dy", B, degree=2).degree == 2
    assert parse_algebraic_form("dx^dy", B, degree=1).degree == 1
    # a nonzero value keeps the degree its text gives
    assert parse_algebraic_form("x*dy", B, degree=2).degree == 1


def test_zero_of_any_degree_is_additive_identity():
    B = free_xy()
    omega = parse_algebraic_form("x*dx^dy", B)
    assert omega.degree == 2 and not omega.is_zero()
    zero1 = AlgebraicForm.zero(B, 1)
    assert zero1 + omega == omega
    assert omega + zero1 == omega
    assert (zero1 + omega).degree == 2
    assert (omega - zero1).degree == 2


def test_zero_rule_reaches_no_further_than_zero():
    B = free_xy()
    assert AlgebraicForm.zero(B, 1) != parse_algebraic_form("dx", B)
    assert parse_algebraic_form("dx", B) != AlgebraicForm.zero(B, 1)
    assert AlgebraicForm.zero(circle(), 1) != AlgebraicForm.zero(B, 1)
    assert AlgebraicForm.zero(circle(), 0) != AlgebraicForm.zero(B, 2)
    with pytest.raises(ValueError):
        parse_algebraic_form("dx", B) + parse_algebraic_form("dx^dy", B)
    with pytest.raises(ValueError):
        parse_algebraic_form("x", B) + parse_algebraic_form("y*dx", B)


def test_truncation_consistency_when_stabilized():
    B = two_points()
    h = truncated_cohomology(B, 0, 4)
    assert h.stabilized
    prev = truncated_cohomology(B, 0, 3)
    for i, rep in enumerate(prev.representatives):
        coords = h.class_of(rep)
        expected = [Fraction(0)] * h.dimension
        expected[i] = Fraction(1)
        assert coords == expected
