"""The exterior-algebra kernel: sign rules against an oracle, and the three
form types (algebraic forms, simplex forms, form text) agreeing term by term."""

import random
from fractions import Fraction
from itertools import combinations

import sympy
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy.combinatorics import Permutation

from rhamcheck.derham import AlgebraicForm, FpAlgebra, parse_algebraic_form
from rhamcheck.derham import differential as d_algebraic
from rhamcheck.derham import wedge as wedge_algebraic
from rhamcheck.exterior import d_monomial, insert_index, merge_sign
from rhamcheck.poly import Polynomial
from rhamcheck.simplex_forms import PolyForm, parse_poly_form, simplex_variables
from rhamcheck.simplex_forms import differential as d_simplex
from rhamcheck.simplex_forms import wedge as wedge_simplex


def sorting_sign(sequence):
    """Sign of the permutation that sorts a sequence of distinct indices."""
    ranks = sorted(sequence)
    return Permutation([ranks.index(x) for x in sequence]).signature()


def subsets(n):
    return [S for p in range(n + 1) for S in combinations(range(n), p)]


def test_merge_sign_and_insert_index_match_permutation_signature():
    for S1 in subsets(5):
        for S2 in subsets(5):
            if set(S1) & set(S2):
                continue
            assert merge_sign(S1, S2) == sorting_sign(S1 + S2), (S1, S2)
        for i in range(5):
            sign, T = insert_index(i, S1)
            if i in S1:
                assert (sign, T) == (0, None)
            else:
                assert (sign, T) == (sorting_sign((i,) + S1), tuple(sorted(S1 + (i,))))


def random_terms(rng, n, degree):
    variables = simplex_variables(n)
    terms = {}
    for S in combinations(range(n), degree):
        if rng.random() < 0.7:
            coeff = {}
            for _ in range(rng.randint(1, 3)):
                e = [0] * n
                for _ in range(rng.randint(0, 3)):
                    e[rng.randrange(n)] += 1
                coeff[tuple(e)] = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
            terms[S] = Polynomial(variables, coeff)
    return terms


def d_text(form):
    """d of a PolyForm as form text: partials by sympy, signs left to the parser."""
    names = simplex_variables(form.n)
    symbols = sympy.symbols(names)
    parts = []
    for S, c in form.terms.items():
        expr = sympy.sympify(str(c).replace("^", "**"), locals=dict(zip(names, symbols)))
        for i, t in enumerate(symbols):
            dc = sympy.expand(sympy.diff(expr, t))
            if dc != 0:
                dts = "^".join("dt%d" % (j + 1) for j in (i,) + S)
                parts.append("(%s)*%s" % (str(dc).replace("**", "^"), dts))
    return " + ".join(parts) or "0"


@settings(max_examples=40, derandomize=True, deadline=None)
@given(st.integers(0, 2**32), st.integers(1, 4))
def test_form_types_agree_on_wedge_and_d(seed, n):
    rng = random.Random(seed)
    algebra = FpAlgebra(simplex_variables(n), [])
    p1, p2 = rng.randint(0, n), rng.randint(0, n)
    t1, t2 = random_terms(rng, n, p1), random_terms(rng, n, p2)
    a1, a2 = AlgebraicForm(algebra, p1, t1), AlgebraicForm(algebra, p2, t2)
    f1, f2 = PolyForm(n, p1, t1), PolyForm(n, p2, t2)

    wedge = wedge_algebraic(a1, a2).terms
    assert wedge_simplex(f1, f2).polynomial_terms() == wedge
    text = "(%s)*(%s)" % (f1, f2)
    assert parse_poly_form(text, n).polynomial_terms() == wedge

    d = d_algebraic(a1).terms
    assert d_simplex(f1).polynomial_terms() == d
    assert parse_poly_form(d_text(f1), n).polynomial_terms() == d

    # one printer: each type reads back what it prints
    assert parse_algebraic_form(str(a1), algebra) == a1
    assert parse_poly_form(str(f1), n) == f1


def d_monomial_triples(e, S):
    """The generator `d_monomial` was before its memo: d(x^e dx_S) term by term."""
    for i, k in enumerate(e):
        if k:
            sign, T = insert_index(i, S)
            if sign:
                yield sign * k, e[:i] + (k - 1,) + e[i + 1 :], T


@settings(deadline=None, max_examples=200, derandomize=True)
@given(data=st.data(), n=st.integers(1, 6))
def test_memoised_d_monomial_is_the_generator_s_triples(data, n):
    e = tuple(data.draw(st.lists(st.integers(0, 4), min_size=n, max_size=n)))
    S = tuple(sorted(data.draw(st.sets(st.integers(0, n - 1)))))
    first = d_monomial(e, S)
    assert isinstance(first, tuple)
    assert first == tuple(d_monomial_triples(e, S))
    assert d_monomial(e, S) is first
