"""Polynomial arithmetic, Groebner bases, normal forms, text syntax."""

import math
import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from rhamcheck import derham, poly
from rhamcheck.derham import FpAlgebra, parse_algebraic_form
from rhamcheck.errors import ParseError, ResourceBudgetExceeded
from rhamcheck.formtext import parse_polynomial
from rhamcheck.poly import (Polynomial, _add_shifted, _quotient, _term_key, drl_key,
                            groebner_basis, monomial_div, monomial_divides, normal_form,
                            reduce_vector)
from rhamcheck.simplex_forms import parse_poly_form
from test_derham import ORACLE_ALGEBRAS

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


@pytest.mark.parametrize("k", [0, 1, 2, 3, 5, 8, 15, 16, 17, 32])
def test_power_squares_floor_log2_k_times(monkeypatch, k):
    """`__pow__` equals repeated multiplication and squares only while bits
    of k remain: ^16 used to compute base^32 and throw it away."""
    base = P("1 + 2*x - y")
    repeated = P("1")
    for _ in range(k):
        repeated = repeated * base
    squarings = []
    multiply = Polynomial.__mul__

    def counting(a, b):
        squarings.append(a is b)
        return multiply(a, b)

    monkeypatch.setattr(Polynomial, "__mul__", counting)
    assert base**k == repeated
    assert sum(squarings) == (k.bit_length() - 1 if k else 0)


def test_trusted_and_checked_constructors_agree_on_equality_and_hash():
    terms = {(2, 0): 1, (0, 1): Fraction(-1, 2), (1, 1): Fraction(4, 2), (0, 0): 0}
    checked = Polynomial(XY, terms)
    trusted = Polynomial._of(XY, dict(reversed(list(terms.items()))))
    assert checked == trusted and hash(checked) == hash(trusted)
    assert hash(trusted) == hash(Polynomial(XY, checked.terms))


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


def test_groebner_budget(monkeypatch):
    monkeypatch.setattr(poly, "DEFAULT_PAIR_BUDGET", 0)
    with pytest.raises(ResourceBudgetExceeded):
        groebner_basis([P("x*y - 1"), P("x^2 - x")])


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


def test_division_by_an_integer_constant_is_exact():
    third = Fraction(1, 3)
    omega = parse_algebraic_form("x/3 * dx", FpAlgebra(("x",), []))
    assert omega.terms[(0,)].terms == {(1,): third}
    alpha = parse_poly_form("(1 - t1^2)/3 * dt1", 1)
    num = alpha.terms[(0,)]
    assert isinstance(num, Polynomial)
    assert num.terms == {(0,): third, (2,): -third}
    assert all(type(c) is Fraction for c in num.terms.values())


# ---------------------------------------------------------------------------
# sympy as an independent oracle for the exact kernel

NAMES = ("x", "y", "z")
TARGET = ("t1", "t2", "t3")
COEFFICIENTS = st.one_of(
    st.integers(-6, 6),
    st.fractions(min_value=-3, max_value=3, max_denominator=5),
)


def polynomials(variables, max_degree=3, max_terms=4, nonzero=False):
    exponents = st.tuples(*[st.integers(0, max_degree)] * len(variables)).filter(
        lambda e: sum(e) <= max_degree
    )
    terms = st.dictionaries(exponents, COEFFICIENTS, min_size=int(nonzero), max_size=max_terms)
    polys = terms.map(lambda t: Polynomial(variables, t))
    return polys.filter(lambda p: not p.is_zero()) if nonzero else polys


@st.composite
def polynomial_tuples(draw, count, max_degree=3, max_terms=4, nonzero=False):
    variables = NAMES[: draw(st.integers(1, 3))]
    poly = polynomials(variables, max_degree, max_terms, nonzero)
    return variables, [draw(poly) for _ in range(count)]


def assert_stored_form(poly):
    """Every coefficient is a nonzero int or a Fraction with denominator > 1."""
    for c in poly.terms.values():
        assert type(c) is int or (type(c) is Fraction and c.denominator > 1), repr(c)
        assert c != 0


def to_sympy(poly, symbols):
    terms = {e: sympy.Rational(c.numerator, c.denominator) for e, c in poly.terms.items()}
    return sympy.Poly.from_dict(terms, *symbols, domain="QQ")


def sympy_terms(expr, symbols):
    poly = sympy.Poly(expr, *symbols, domain="QQ")
    return {e: Fraction(int(c.p), int(c.q)) for e, c in poly.as_dict().items() if c}


def agrees(poly, expr, symbols):
    assert_stored_form(poly)
    return poly.terms == sympy_terms(expr, symbols)


ORACLE = settings(max_examples=60, derandomize=True, deadline=None)


@ORACLE
@given(polynomial_tuples(2), st.integers(0, 3))
def test_arithmetic_matches_sympy(drawn, n):
    variables, (f, g) = drawn
    symbols = sympy.symbols(variables)
    F, G = to_sympy(f, symbols), to_sympy(g, symbols)
    assert agrees(f + g, F + G, symbols)
    assert agrees(f - g, F - G, symbols)
    assert agrees(-f, -F, symbols)
    assert agrees(f * g, F * G, symbols)
    assert agrees(f**n, F**n, symbols)
    assert agrees(f.scale(Fraction(3, 2)), F * sympy.Rational(3, 2), symbols)
    for i, s in enumerate(symbols):
        assert agrees(f.partial(i), F.diff(s), symbols)
    if not f.is_zero():
        assert agrees(f.monic(), F * (1 / F.LC(order="grevlex")), symbols)


@ORACLE
@given(polynomial_tuples(1), st.data())
def test_substitute_matches_sympy(drawn, data):
    variables, (f,) = drawn
    target = TARGET[: data.draw(st.integers(1, 3))]
    values = [data.draw(polynomials(target, max_degree=2, max_terms=3)) for _ in variables]
    symbols, target_symbols = sympy.symbols(variables), sympy.symbols(target)
    expr = f.substitute(values)
    composed = to_sympy(f, symbols).as_expr().xreplace(
        {s: to_sympy(v, target_symbols).as_expr() for s, v in zip(symbols, values)}
    )
    assert expr.variables == target
    assert agrees(expr, sympy.expand(composed), target_symbols)


def per_call_substitute(f, values):
    """f(values) with the powers of each value built afresh in the call, from
    one: `Polynomial.substitute` before its powers were memoised."""
    target = values[0].variables
    one = Polynomial.constant(target, 1)
    powers = [{0: one} for _ in values]
    result = {}
    for e, c in sorted(f.terms.items()):
        term = None
        for i, k in enumerate(e):
            if k == 0:
                continue
            if k not in powers[i]:
                kk = max(j for j in powers[i] if j <= k)
                acc = powers[i][kk]
                while kk < k:
                    acc = acc * values[i]
                    kk += 1
                    powers[i][kk] = acc
            term = powers[i][k] if term is None else term * powers[i][k]
        poly._add_multiple(result, one.terms if term is None else term.terms, c)
    return Polynomial._of(target, result)


def ordered_representation(p):
    """Variables and terms in stored order, with the type of each coefficient."""
    return p.variables, [(e, c, type(c).__name__) for e, c in p.terms.items()]


@settings(max_examples=150, derandomize=True, deadline=None)
@given(polynomial_tuples(1, max_degree=6, max_terms=6), st.data())
def test_substitute_powers_match_the_per_call_loop(drawn, data):
    variables, (f,) = drawn
    target = TARGET[: data.draw(st.integers(1, 3))]
    values = [data.draw(polynomials(target, max_degree=2, max_terms=3)) for _ in variables]
    expected = ordered_representation(per_call_substitute(f, values))
    for _ in range(2):  # the second call is served from the memo
        assert ordered_representation(f.substitute(values)) == expected


def test_substitute_powers_are_memoised_and_bounded():
    t = ("t1", "t2")
    base = Polynomial(t, {(0, 1): Fraction(1, 3), (1, 0): 2, (0, 0): -1})
    one = Polynomial.constant(t, 1)
    # the memo's first power is the value itself, which the per-call loop made as one * value
    assert ordered_representation(one * base) == ordered_representation(base)
    poly._power.cache_clear()
    x3 = Polynomial(("x",), {(3,): 1})
    first = x3.substitute([base])
    assert x3.substitute([base]) == first and first == base**3
    assert poly._power.cache_info().hits == 1 and poly._power.cache_info().currsize == 1
    assert poly._power.cache_info().maxsize == poly.POWER_CACHE_SIZE
    # `**` squares, and on this base its terms come out in another order
    skew, x6 = Polynomial(("t1",), {(2,): 2, (0,): -1, (1,): -1}), Polynomial(("x",), {(6,): 1})
    expected = ordered_representation(per_call_substitute(x6, [skew]))
    assert ordered_representation(x6.substitute([skew])) == expected
    assert ordered_representation(skew**6) != expected and skew**6 == x6.substitute([skew])
    # a power past formtext's bound on literal exponents is built in a loop
    high = Polynomial(("x",), {(200,): 1}).substitute([Polynomial(("t1",), {(1,): 1, (0,): 1})])
    assert high.terms[(100,)] == math.comb(200, 100)
    with pytest.raises(ValueError):
        Polynomial(XY, {(1, 1): 1}).substitute([base, Polynomial(("t1",), {(1,): 1})])


@ORACLE
@given(polynomial_tuples(2))
def test_divide_exact_matches_sympy(drawn):
    variables, (f, g) = drawn
    if g.is_zero():
        with pytest.raises(ZeroDivisionError):
            f.divide_exact(g)
        return
    symbols = sympy.symbols(variables)
    F, G = to_sympy(f, symbols), to_sympy(g, symbols)
    quotient = (f * g).divide_exact(g)
    assert quotient is not None and agrees(quotient, F, symbols)
    num, den = sympy.fraction(sympy.cancel(F.as_expr() / G.as_expr()))
    result = f.divide_exact(g)
    if den.is_number:
        assert result is not None and agrees(result, num / den, symbols)
    else:
        assert result is None


@ORACLE
@given(
    polynomial_tuples(3, max_degree=2, max_terms=3, nonzero=True),
    polynomials(NAMES, max_degree=4),
)
def test_groebner_and_normal_form_match_sympy(drawn, probe):
    variables, gens = drawn
    symbols = sympy.symbols(variables)
    exprs = [to_sympy(g, symbols).as_expr() for g in gens]
    basis = groebner_basis(gens)
    oracle = sympy.groebner(exprs, *symbols, order="grevlex", domain="QQ")
    for g in basis:
        assert_stored_form(g)
    assert sorted(sorted(g.terms.items()) for g in basis) == sorted(
        sorted(sympy_terms(e, symbols).items()) for e in oracle.exprs
    )
    f = Polynomial(variables, {e[: len(variables)]: c for e, c in probe.terms.items()})
    _, r = sympy.reduced(to_sympy(f, symbols).as_expr(), oracle.exprs, *symbols, order="grevlex")
    assert agrees(normal_form(f, basis), r, symbols)


# ---------------------------------------------------------------------------
# heap-ordered division against the scan it replaced


def scan_reduce_vector(vec, divisors):
    """Division as `reduce_vector` made it before it kept a heap, kept as the
    reference: each step scans every term left for the largest."""
    h = dict(vec)
    rem = {}
    while h:
        term = max(h, key=_term_key)
        m, S = term
        c = h[term]
        for lead, terms in divisors.get(S, ()):
            if monomial_divides(lead, m):
                _add_shifted(h, terms, -c, monomial_div(m, lead))
                break
        else:
            rem[term] = c
            del h[term]
    return rem


def typed(vec):
    """A vector's terms in order, each with its coefficient's type."""
    return [(t, c, type(c)) for t, c in vec.items()]


MODULE_COEFFICIENTS = st.one_of(
    st.integers(-6, 6),
    st.fractions(min_value=-3, max_value=3, max_denominator=5),
    st.builds(Fraction, st.integers(-4, 4)),  # integral values stored as Fractions
).filter(bool)


@st.composite
def module_divisions(draw):
    """(vector, monic divisors per leading position) over positions of one length."""
    nvars = draw(st.integers(1, 3))
    positions = draw(st.sampled_from([[()], [(0,), (1,), (2,)], [(0, 1), (0, 2), (1, 2)]]))
    terms = st.tuples(st.tuples(*[st.integers(0, 3)] * nvars), st.sampled_from(positions))
    vectors = st.dictionaries(terms, MODULE_COEFFICIENTS, max_size=8)
    divisors = {}
    for vec in draw(st.lists(vectors.filter(bool), max_size=5)):
        m, S = lead = max(vec, key=_term_key)
        divisors.setdefault(S, []).append(
            (m, {t: _quotient(c, vec[lead]) for t, c in vec.items()}))
    return draw(vectors), divisors


@settings(max_examples=200, derandomize=True, deadline=None)
@given(module_divisions())
def test_heap_division_matches_the_scan(drawn):
    """The same remainder, in value, in coefficient type and in term order,
    and the input left as it was."""
    vec, divisors = drawn
    kept = dict(vec)
    assert typed(reduce_vector(vec, divisors)) == typed(scan_reduce_vector(vec, divisors))
    assert vec == kept


@pytest.mark.parametrize("name", sorted(ORACLE_ALGEBRAS))
def test_module_bases_are_the_same_with_the_scan(name, monkeypatch):
    """`buchberger` divides with `reduce_vector`; every G_p is the same, with
    the same coefficient types, when it divides by the scan."""
    def bases():
        algebra = ORACLE_ALGEBRAS[name]()
        return [{S: [(m, typed(vec)) for m, vec in elements]
                 for S, elements in derham._module_groebner(algebra, p).items()}
                for p in range(algebra.nvars + 1)]

    fast = bases()
    monkeypatch.setattr(poly, "reduce_vector", scan_reduce_vector)
    assert bases() == fast
