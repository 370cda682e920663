"""Polynomial arithmetic, Groebner bases, normal forms, text syntax."""

import random
from fractions import Fraction

import pytest

from rhamcheck.errors import ParseError, ResourceBudgetExceeded
from rhamcheck.formtext import parse_polynomial
from rhamcheck.poly import Polynomial, drl_key, groebner_basis, normal_form

XY = ("x", "y")


def P(text, variables=XY):
    return parse_polynomial(text, variables)


def random_poly(rng, variables, max_degree=3, max_terms=4):
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        e = [0] * len(variables)
        for _ in range(rng.randint(0, max_degree)):
            e[rng.randrange(len(variables))] += 1
        terms[tuple(e)] = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
    return Polynomial(variables, terms)


def test_degrevlex_order_is_degree_compatible():
    # x^2*z < x*y^2 in degrevlex while both have degree 3
    assert drl_key((2, 0, 1)) < drl_key((1, 2, 0))
    assert drl_key((0, 0, 2)) > drl_key((1, 0, 0))


def test_parse_roundtrip_and_arithmetic():
    f = P("x^2 + y^2 - 1")
    assert f.terms == {(2, 0): 1, (0, 2): 1, (0, 0): -1}
    g = P("(1 - x^2)/2")
    assert g.terms == {(0, 0): Fraction(1, 2), (2, 0): Fraction(-1, 2)}
    assert P(str(f)) == f
    assert P("x*y - x*y").is_zero()
    assert (P("x + y") * P("x - y")) == P("x^2 - y^2")
    assert P("x")**3 == P("x^3")


def test_parse_rejects_garbage():
    with pytest.raises(ParseError):
        P("x +")
    with pytest.raises(ParseError):
        P("z")
    with pytest.raises(ParseError):
        P("x / y")
    with pytest.raises(ParseError):
        P("x ^ y")


def test_partial_derivative():
    f = P("x^3 + x*y^2 - 7")
    assert f.partial(0) == P("3*x^2 + y^2")
    assert f.partial(1) == P("2*x*y")


def test_substitute_composition():
    f = P("x^2 + y")
    t = ("t1",)
    values = [parse_polynomial("t1 + 1", t), parse_polynomial("2*t1", t)]
    assert f.substitute(values) == parse_polynomial("t1^2 + 4*t1 + 1", t)


def test_divide_exact():
    num = P("x^4 - 1", ("x",))
    den = P("x^2 + 1", ("x",))
    assert num.divide_exact(den) == P("x^2 - 1", ("x",))
    assert P("x^2 + 1", ("x",)).divide_exact(P("x", ("x",))) is None


def test_groebner_single_generator_is_its_own_basis():
    f = P("x^2 - 1", ("x",))
    assert groebner_basis([f]) == [f]
    g = P("x^2 + y^2 - 1")
    assert groebner_basis([g]) == [g]


def test_groebner_point_ideal():
    # {x*y - 1, x^2 - x}: S-polynomial work by hand gives the point (1, 1),
    # so the reduced basis must contain x - 1 and y - 1.
    basis = groebner_basis([P("x*y - 1"), P("x^2 - x")])
    assert P("x - 1") in basis
    assert P("y - 1") in basis
    assert normal_form(P("x*y - 1"), basis).is_zero()


def test_groebner_budget():
    with pytest.raises(ResourceBudgetExceeded):
        groebner_basis([P("x*y - 1"), P("x^2 - x")], pair_budget=0)


def test_normal_form_examples():
    one_var = ("x",)
    basis = [P("x^2 - 1", one_var)]
    assert normal_form(P("x^2", one_var), basis) == P("1", one_var)
    # x^3 + x -> x + x = 2x after two reduction steps
    assert normal_form(P("x^3 + x", one_var), basis) == P("2*x", one_var)


def test_normal_form_kills_ideal_members():
    rng = random.Random(7)
    gens = [P("x^2 + y^2 - 1"), P("x*y")]
    basis = groebner_basis(gens)
    for _ in range(20):
        f = sum(
            (random_poly(rng, XY) * g for g in gens),
            Polynomial.zero(XY),
        )
        assert normal_form(f, basis).is_zero()


def test_normal_form_idempotent_linear_multiplicative():
    rng = random.Random(11)
    basis = groebner_basis([P("x^2 + y^2 - 1")])
    for _ in range(15):
        f = random_poly(rng, XY)
        g = random_poly(rng, XY)
        nf = lambda h: normal_form(h, basis)
        assert nf(nf(f)) == nf(f)
        a, b = Fraction(3, 2), Fraction(-2, 5)
        assert nf(f.scale(a) + g.scale(b)) == nf(f).scale(a) + nf(g).scale(b)
        assert nf(f * g) == nf(nf(f) * nf(g))


def test_normal_form_degree_bound():
    rng = random.Random(13)
    basis = groebner_basis([P("x^2 + y^2 - 1"), P("x*y - 1")])
    for _ in range(25):
        f = random_poly(rng, XY, max_degree=5)
        if f.is_zero():
            continue
        r = normal_form(f, basis)
        assert r.total_degree() <= f.total_degree()
