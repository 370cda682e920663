"""Kähler forms: presentation, wedge, differential, reduction, cohomology."""

import random
from fractions import Fraction
from itertools import combinations, product

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from rhamcheck import derham, poly
from rhamcheck.derham import (
    AlgebraicForm,
    FpAlgebra,
    differential,
    parse_algebraic_form,
    truncated_cohomology,
    wedge,
)
from rhamcheck.errors import AlgebraMismatch, ResourceBudgetExceeded
from rhamcheck.exterior import d_monomial, d_terms
from rhamcheck.formtext import parse_polynomial
from rhamcheck.linalg import CohomologyPair, Echelon
from rhamcheck.poly import (Polynomial, _add_shifted, _term_key, groebner_basis, monomial_div,
                            monomial_divides, monomial_lcm, normal_form, reduce_vector)
from test_linalg import from_rows


def free_xy():
    return FpAlgebra(("x", "y"), [])


def two_points():
    return FpAlgebra(("x",), ["x^2 - 1"])


def circle():
    return FpAlgebra(("x", "y"), ["x^2 + y^2 - 1"])


def relation_form(algebra):
    """df = sum_i df/dx_i dx_i of the first generator, not reduced."""
    f = algebra.ideal_generators[0]
    return AlgebraicForm(algebra, 1, d_terms({(): f}, algebra.nvars), reduce=False)


def random_form(rng, algebra, degree, max_coeff_degree=3, reduce=True):
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
    return AlgebraicForm(algebra, degree, terms, reduce=reduce)


def test_kaehler_presentation_free_algebra():
    B = FpAlgebra(("x",), [])
    assert B._module(1).divisors == {}
    # no relations: every term x^k dx is standard
    stratum = derham._WeightStratum(B, 1, 3)
    assert B._module(1).basis[: stratum.size] == [((k,), (0,)) for k in range(3)]


def test_kaehler_presentation_two_points():
    B = two_points()
    # x * (2x dx) = 2 dx mod (x^2 - 1), so dx itself lies in the relations
    assert B._module(1).divisors == {(0,): [((0,), {((0,), (0,)): 1})]}
    dx = AlgebraicForm(B, 1, {(0,): parse_polynomial("1", B.variables)})
    assert dx.is_zero()


def test_kaehler_presentation_circle():
    B = circle()
    # df / 2 = x dx + y dy, monic at its leading term x dx
    assert ((1, 0), {((1, 0), (0,)): 1, ((0, 1), (1,)): 1}) in B._module(1).divisors[(0,)]
    assert AlgebraicForm(B, 1, relation_form(B).terms).is_zero()


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
    assert AlgebraicForm(B, 1, {(0,): parse_polynomial("x^2", B.variables)}).is_zero()
    assert AlgebraicForm.zero(B, 1).is_zero()


def test_reduce_form_kills_relation_multiples():
    rng = random.Random(33)
    B = circle()
    rel = relation_form(B)
    for _ in range(10):
        base = random_form(rng, B, 1, max_coeff_degree=2)
        f = normal_form(
            Polynomial(B.variables, {(rng.randint(0, 1), rng.randint(0, 1)): Fraction(rng.randint(-3, 3))}),
            groebner_basis(B.ideal_generators),
        )
        noise = wedge_raw(AlgebraicForm(B, 0, {(): f}), rel)
        assert AlgebraicForm(B, 1, (base + noise).terms) == base


def test_reduce_form_idempotent_and_linear():
    rng = random.Random(41)
    B = circle()
    for _ in range(10):
        f = random_form(rng, B, 1, max_coeff_degree=2, reduce=False)
        g = random_form(rng, B, 1, max_coeff_degree=2, reduce=False)
        rf = AlgebraicForm(B, 1, f.terms)
        assert AlgebraicForm(B, 1, rf.terms) == rf
        a, b = Fraction(2), Fraction(-3, 2)
        combo = AlgebraicForm(B, 1, (f.scale(a) + g.scale(b)).terms)
        assert combo == rf.scale(a) + AlgebraicForm(B, 1, g.terms).scale(b)


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


# ---------------------------------------------------------------------------
# the module Groebner basis against sympy's module membership

RESCALED = {
    "ellipse": (("x", "y"), ["{0}*x^2 + {1}*y^2 - 1"]),
    "hyperbola": (("x", "y"), ["{0}*x*y - 1"]),
    "sphere": (("x", "y", "z"), ["{0}*x^2 + {1}*y^2 + {2}*z^2 - 1"]),
    "torus": (("x", "y", "z", "w"), ["{0}*x^2 + {1}*y^2 - 1", "{2}*z^2 + {3}*w^2 - 1"]),
    "points": (("x",), ["{0}*x^2 - 1"]),
    "plane": (("x", "y"), []),
}


def rescaled(name, seed):
    """The variety with each x -> x/a for a seeded rational a, as coefficients 1/a^2."""
    rng = random.Random(seed)
    variables, templates = RESCALED[name]
    scales = [Fraction(rng.randint(1, 9), rng.randint(1, 9)) ** -2 for _ in range(4)]
    return FpAlgebra(variables, [t.format(*("(%s)" % s for s in scales)) for t in templates])


# rescaled varieties, two non-homogeneous ones, the curve of known defect 1, and a
# complete intersection whose Groebner basis needs its tails reduced
ORACLE_ALGEBRAS = {
    "ellipse": lambda: rescaled("ellipse", 7),
    "sphere": lambda: rescaled("sphere", 7),
    "torus": lambda: rescaled("torus", 7),
    "xyz": lambda: FpAlgebra(("x", "y", "z"), ["x*y*z - 1"]),
    "cubic": lambda: FpAlgebra(("x", "y"), ["x^2 + x*y - y^3 + 1"]),
    "defect_curve": lambda: FpAlgebra(("x", "y"), ["x^2*y^2 - x - y"]),
    "space_curve": lambda: FpAlgebra(("x", "y", "z"), ["x^2 + y^2 + z^2 - 1", "x*y - z"]),
}


def sympy_term(e, c, symbols):
    return sympy.Rational(c) * sympy.Mul(*(s**k for s, k in zip(symbols, e)))


def sympy_poly(poly, symbols):
    return sum(sympy_term(e, c, symbols) for e, c in poly.terms.items())


def relation_module(algebra, p):
    """M_p = I*F_p + dI ^ F_(p-1) as a sympy submodule, with its positions and symbols."""
    symbols = sympy.symbols(algebra.variables)
    positions = list(combinations(range(algebra.nvars), p))
    gens = []
    for f in algebra.ideal_generators:
        for S in positions:
            gens.append([sympy_poly(f, symbols) if T == S else 0 for T in positions])
        for T in combinations(range(algebra.nvars), p - 1) if p else ():
            terms = d_terms({T: f}, algebra.nvars)
            gens.append([sympy_poly(terms[S], symbols) if S in terms else 0 for S in positions])
    gens = [g for g in gens if any(c != 0 for c in g)]
    ring = sympy.QQ.old_poly_ring(*symbols)
    return ring.free_module(len(positions)).submodule(*gens), positions, symbols


def sympy_vector(vec, positions, symbols):
    """A module vector {(monomial, S): c} as a list of sympy polynomials."""
    return [sum(sympy_term(e, c, symbols) for (e, T), c in vec.items() if T == S)
            for S in positions]


def groebner_elements(algebra, p):
    return [(S, lead, vec) for S, elements in algebra._module(p).divisors.items()
            for lead, vec in elements]


def test_defect_curve_reads_every_relation():
    """Known defect 1: a relation of low weight built only from generators of high weight."""
    B = FpAlgebra(("x", "y"), ["x^2*y^2 - x - y"])
    assert [truncated_cohomology(B, 1, n).dimension for n in (2, 3, 4, 5)] == [1, 2, 3, 3]
    assert parse_algebraic_form("dx^dy", B, degree=2).is_zero()
    x, y = sympy.symbols("x y")
    f = x**2 * y**2 - x - y
    module = sympy.QQ.old_poly_ring(x, y).free_module(1).submodule([f], [-f.diff(y)], [f.diff(x)])
    assert module.contains([1])


@pytest.mark.parametrize("name", sorted(ORACLE_ALGEBRAS))
def test_groebner_elements_lie_in_the_relation_module(name):
    algebra = ORACLE_ALGEBRAS[name]()
    for p in range(algebra.nvars + 1):
        module, positions, symbols = relation_module(algebra, p)
        for _, _, vec in groebner_elements(algebra, p):
            assert module.contains(sympy_vector(vec, positions, symbols))


@pytest.mark.parametrize("name", sorted(ORACLE_ALGEBRAS))
def test_groebner_basis_is_reduced_and_closed_under_s_pairs(name):
    algebra = ORACLE_ALGEBRAS[name]()
    for p in range(algebra.nvars + 1):
        divisors = algebra._module(p).divisors
        elements = groebner_elements(algebra, p)
        for S, lead, vec in elements:
            assert max(vec, key=_term_key) == (lead, S) and vec[(lead, S)] == 1
            # reduced: no other term of an element is divisible by any leading term
            for (e, T), _ in vec.items():
                assert not any(monomial_divides(other, e) for other, _ in divisors.get(T, ())
                               if (e, T) != (lead, S))
        for (S, lead1, vec1), (T, lead2, vec2) in combinations(elements, 2):
            if S != T:
                continue
            lcm = monomial_lcm(lead1, lead2)
            s_vector = {}
            _add_shifted(s_vector, vec1, 1, monomial_div(lcm, lead1))
            _add_shifted(s_vector, vec2, -1, monomial_div(lcm, lead2))
            assert reduce_vector(s_vector, divisors) == {}


@pytest.mark.parametrize("name", sorted(ORACLE_ALGEBRAS))
def test_degree_zero_module_basis_is_the_ideal_basis(name):
    """G_0, the basis of I*F_0, is the ideal's Groebner basis at the one position ()."""
    algebra = ORACLE_ALGEBRAS[name]()
    module = sorted(sorted(vec.items()) for _, vec in algebra._module(0).divisors[()])
    ideal = sorted(sorted(((e, ()), c) for e, c in g.terms.items())
                   for g in groebner_basis(algebra.ideal_generators))
    assert module == ideal


@pytest.mark.parametrize("name", sorted(ORACLE_ALGEBRAS))
def test_ideal_basis_is_computed_once(name, monkeypatch):
    """The ideal's Groebner basis, which is G_0, takes one `buchberger` run."""
    calls = []
    run = poly.buchberger

    def counting_run(*args):
        calls.append(args)
        return run(*args)

    monkeypatch.setattr(poly, "buchberger", counting_run)
    monkeypatch.setattr(derham, "buchberger", counting_run)
    algebra = ORACLE_ALGEBRAS[name]()
    algebra._module(0)
    algebra.standard_layer(3)
    assert len(calls) == 1


@settings(max_examples=25, derandomize=True, deadline=None)
@given(st.sampled_from(sorted(ORACLE_ALGEBRAS)), st.integers(0, 2**32))
def test_degree_zero_reduction_matches_sympy(name, seed):
    """A 0-form reduces to sympy's remainder modulo sympy's Groebner basis of I."""
    algebra = ORACLE_ALGEBRAS[name]()
    zero = Polynomial.zero(algebra.variables)
    f = random_form(random.Random(seed), algebra, 0, max_coeff_degree=4, reduce=False).terms
    f = f.get((), zero)
    symbols = sympy.symbols(algebra.variables)
    oracle = sympy.groebner([sympy_poly(g, symbols) for g in algebra.ideal_generators], *symbols,
                            order="grevlex", domain="QQ")
    _, r = sympy.reduced(sympy_poly(f, symbols), oracle.exprs, *symbols, order="grevlex")
    reduced = AlgebraicForm(algebra, 0, {(): f}).terms.get((), zero)
    assert sympy.expand(sympy_poly(reduced, symbols) - r) == 0


@st.composite
def forms_near_the_relations(draw):
    """(algebra, form): a combination of relation generators, plus maybe a random form."""
    algebra = ORACLE_ALGEBRAS[draw(st.sampled_from(sorted(ORACLE_ALGEBRAS)))]()
    p = draw(st.integers(1, min(2, algebra.nvars)))
    rng = random.Random(draw(st.integers(0, 2**32)))
    form = AlgebraicForm.zero(algebra, p)
    for f in algebra.ideal_generators:
        for T in combinations(range(algebra.nvars), p - 1):
            generator = AlgebraicForm(algebra, p, d_terms({T: f}, algebra.nvars), reduce=False)
            form = form + wedge_raw(random_form(rng, algebra, 0, max_coeff_degree=2), generator)
    if draw(st.booleans()):
        form = form + random_form(rng, algebra, p, max_coeff_degree=2, reduce=False)
    return algebra, form


def wedge_raw(function, form):
    """function * form, with coefficients only normalised, not reduced."""
    c = function.terms.get((), Polynomial.zero(form.variables))
    return AlgebraicForm(form.algebra, form.degree,
                         {S: c * coeff for S, coeff in form.terms.items()}, reduce=False)


@settings(max_examples=25, derandomize=True, deadline=None)
@given(forms_near_the_relations())
def test_normal_form_vanishes_exactly_on_the_relation_module(case):
    algebra, form = case
    module, positions, symbols = relation_module(algebra, form.degree)
    vec = {(e, S): c for S, poly in form.terms.items() for e, c in poly.terms.items()}
    in_module = module.contains(sympy_vector(vec, positions, symbols))
    assert AlgebraicForm(algebra, form.degree, form.terms).is_zero() == in_module


@pytest.mark.parametrize("name", sorted(ORACLE_ALGEBRAS))
def test_stratum_below_is_a_prefix_of_the_stratum_above(name):
    """Each stratum is the standard terms of weight <= N in term order, built on a
    fresh algebra, and the one at N - 1 is a prefix of the one at N."""
    make = ORACLE_ALGEBRAS[name]
    for p in range(1, make().nvars + 1):
        below = None
        for n_cutoff in range(p, 6):
            algebra = make()
            stratum = derham._WeightStratum(algebra, p, n_cutoff)
            module = algebra._module(p)
            terms = [(e, S) for e in product(range(n_cutoff - p + 1), repeat=algebra.nvars)
                     if sum(e) <= n_cutoff - p
                     for S in combinations(range(algebra.nvars), p)
                     if not any(monomial_divides(lead, e) for lead, _ in module.divisors.get(S, ()))]
            basis = module.basis[: stratum.size]
            assert basis == sorted(terms, key=_term_key)
            if below is not None:
                assert basis[: len(below)] == below
            below = basis


def quotient_terms(algebra, p, n_cutoff):
    """The terms (m, S) of weight <= N whose monomial is standard for the ideal, in term order."""
    monomials = [e for e in product(range(n_cutoff - p + 1), repeat=algebra.nvars)
                 if sum(e) <= n_cutoff - p and algebra.is_standard(e)]
    return sorted(((m, S) for m in monomials for S in combinations(range(algebra.nvars), p)),
                  key=_term_key)


def wide_margin(algebra):
    """A margin past which the from-scratch echelon reaches every relation of weight
    <= N, for each oracle algebra at each cutoff compared; one more than the highest
    generator degree is too small for the defect curve."""
    return 2 * max(f.total_degree() for f in algebra.ideal_generators)


def reference_relations(algebra, p, n_cutoff, margin):
    """(terms, relation rows) of the stratum, built from scratch by Gauss-Jordan.

    Every generator m * df_j ^ dx_T up to weight N + margin, m a standard
    monomial of the ideal, goes into one reduced echelon over the terms of
    weight <= N + margin; the rows with pivot inside the weight <= N prefix
    span the relations of the stratum that this margin reaches.  `margin`
    None is `wide_margin`.
    """
    extended = n_cutoff + (wide_margin(algebra) if margin is None else margin)
    terms = quotient_terms(algebra, p, extended)
    index = {t: i for i, t in enumerate(terms)}
    size = sum(1 for m, _ in terms if sum(m) + p <= n_cutoff)
    echelon = Echelon()
    ideal_basis = groebner_basis(algebra.ideal_generators)
    for f in algebra.ideal_generators:
        cap = extended - p - (f.total_degree() - 1)
        relations = [d_terms({T: f}, algebra.nvars)
                     for T in combinations(range(algebra.nvars), p - 1)]
        for m in product(range(max(cap, -1) + 1), repeat=algebra.nvars):
            if sum(m) > cap or not algebra.is_standard(m):
                continue
            mono = Polynomial(algebra.variables, {m: 1})
            for relation in relations:
                vec = {}
                for S, partial in relation.items():
                    for e, c in normal_form(mono * partial, ideal_basis).terms.items():
                        vec[index[(e, S)]] = c
                if vec:
                    echelon.add(vec)
    return terms[:size], {pivot: row for pivot, row in echelon.rows.items() if pivot < size}


def stratum_relations(algebra, p, n_cutoff):
    """The stratum's relations as reduced echelon rows over `quotient_terms`:
    t - NF(t) for each term t of weight <= N that is not standard for G_p."""
    derham._WeightStratum(algebra, p, n_cutoff)
    module = algebra._module(p)
    terms = quotient_terms(algebra, p, n_cutoff)
    index = {t: i for i, t in enumerate(terms)}
    rows = {}
    for t in terms:
        if t not in module.index:
            remainder = reduce_vector({t: 1}, module.divisors)
            rows[index[t]] = {index[s]: -c for s, c in remainder.items()}
            rows[index[t]][index[t]] = 1
    return rows


def check_against_reference(algebra, p, n_cutoff, margin, rows):
    """At the wide margin the reference echelon equals the stratum's relations and
    its non-pivot terms are the stratum's basis; at a smaller one it lies in their span."""
    terms, reference = reference_relations(algebra, p, n_cutoff, margin)
    if margin is None:
        assert rows == reference
        stratum = derham._WeightStratum(algebra, p, n_cutoff)
        assert algebra._module(p).basis[: stratum.size] == [
            t for i, t in enumerate(terms) if i not in reference]
    else:
        span = Echelon(rows.values())
        assert all(not span.reduce(row)[0] for row in reference.values())


def oracle_top(algebra):
    return 5 if algebra.nvars <= 2 else 4


@pytest.mark.parametrize("margin", [None, 0, 1])
@pytest.mark.parametrize("name", sorted(ORACLE_ALGEBRAS))
def test_relations_match_a_build_from_scratch(name, margin):
    """Also with margins too small to catch every relation, where the
    from-scratch rows span only part of the stratum's relations."""
    algebra = ORACLE_ALGEBRAS[name]()
    for p in range(1, algebra.nvars + 1):
        for n_cutoff in range(p, oracle_top(algebra) + 1):
            rows = stratum_relations(algebra, p, n_cutoff)
            check_against_reference(algebra, p, n_cutoff, margin, rows)


@pytest.mark.parametrize("margin", [None, 0])
@pytest.mark.parametrize("name", sorted(ORACLE_ALGEBRAS))
def test_relations_do_not_depend_on_the_order_of_cutoffs(name, margin, monkeypatch):
    """G_p is built once per (algebra, p), whatever cutoffs are requested, in any
    order; each stratum's relations are those of a fresh algebra and agree with
    the from-scratch echelon at `margin`."""
    builds = []
    build = derham._module_groebner

    def counting_build(algebra, p):
        builds.append((id(algebra), p))
        return build(algebra, p)

    monkeypatch.setattr(derham, "_module_groebner", counting_build)
    make = ORACLE_ALGEBRAS[name]
    top = oracle_top(make())
    cutoffs = [(p, n) for p in range(1, 3) for n in range(p, top + 1)]
    increasing, decreasing = make(), make()
    relations = []
    for algebra, order in ((increasing, cutoffs), (decreasing, cutoffs[::-1])):
        rows = {}
        for p, n_cutoff in order:
            if n_cutoff > p:
                truncated_cohomology(algebra, p, n_cutoff)
            random_form(random.Random(n_cutoff), algebra, p, max_coeff_degree=2)
            rows[(p, n_cutoff)] = stratum_relations(algebra, p, n_cutoff)
        relations.append(rows)
    up, down = relations
    assert sorted(builds) == sorted(set(builds))
    fresh = {key: stratum_relations(make(), *key) for key in cutoffs}
    assert up == down == fresh
    for key in cutoffs:
        check_against_reference(increasing, *key, margin, up[key])
    for p in range(increasing.nvars + 1):
        fresh = make()
        assert increasing._module(p).divisors == decreasing._module(p).divisors
        assert increasing._module(p).divisors == fresh._module(p).divisors
        assert increasing._module(p).basis == decreasing._module(p).basis


def test_module_buchberger_stops_at_the_pair_budget(monkeypatch):
    monkeypatch.setattr(poly, "DEFAULT_PAIR_BUDGET", 2)
    torus = rescaled("torus", 5)
    with pytest.raises(ResourceBudgetExceeded):
        truncated_cohomology(torus, 1, 3)


# ---------------------------------------------------------------------------
# truncated cohomology against the Betti numbers of the complex points

# name -> (Betti numbers, weight of the lowest generator per nonzero Betti degree)
BETTI = {
    "ellipse": ((1, 1, 0), {0: 0, 1: 2}),
    "hyperbola": ((1, 1, 0), {0: 0, 1: 2}),
    "sphere": ((1, 0, 1, 0), {0: 0, 2: 3}),
    "torus": ((1, 2, 1, 0, 0), {0: 0, 1: 2, 2: 4}),
    "points": ((2, 0), {0: 1}),
    "plane": ((1, 0, 0), {0: 0}),
}
BETTI_CASES = [(name, seed, p, n_cutoff)
               for name, (betti, lowest) in sorted(BETTI.items())
               for seed in (3, 19)
               for p in range(len(betti))
               for n_cutoff in range(lowest.get(p, p) + 1, 6)]


@pytest.mark.parametrize("name, seed, p, n_cutoff", BETTI_CASES)
def test_truncated_cohomology_reads_the_betti_numbers(name, seed, p, n_cutoff):
    h = truncated_cohomology(rescaled(name, seed), p, n_cutoff)
    assert h.dimension == BETTI[name][0][p]
    for i, rep in enumerate(h.representatives):
        assert h.class_of(rep) == [Fraction(int(i == k)) for k in range(h.dimension)]


# ---------------------------------------------------------------------------
# `stabilized` and the representatives against the lift from cutoff N - 1


def lifted_reference(algebra, p, n_cutoff):
    """The lift check truncated cohomology used to make, kept as a reference:
    (stabilized, representative forms, class_of).

    At equal dimensions the representatives at N - 1, padded with zeros, are
    lifted to N; the truncation is stabilized when their classes at N are
    independent, and then they are the representatives.  class_of solves the
    class at N on the classes of the representatives.
    """
    pair, stratum, _ = derham._truncated_pair(algebra, p, n_cutoff)
    vectors, stabilized = pair.representatives, False
    if n_cutoff > p:
        prev_pair, _, _ = derham._truncated_pair(algebra, p, n_cutoff - 1)
        if prev_pair.dimension == pair.dimension:
            # a vector at N - 1 is one at N, padded with zeros
            lifted = prev_pair.representatives
            coords = [dict(enumerate(pair.class_of(v))) for v in lifted]
            if len(Echelon(coords).rows) == len(lifted):
                stabilized, vectors = True, lifted
    # the representatives' classes are independent, so echelon input k is representative k
    echelon = Echelon([dict(enumerate(pair.class_of(v))) for v in vectors], track=True)

    def class_of(form):
        vec = stratum.vector_of(form)
        rest, coords = echelon.reduce(dict(enumerate(pair.class_of(vec))))
        assert not rest
        return [coords.get(k, Fraction(0)) for k in range(len(vectors))]

    return stabilized, [stratum.form_of(v) for v in vectors], class_of


@pytest.mark.parametrize("name, seed, p, n_cutoff", BETTI_CASES + [
    ("defect_curve", None, p, n_cutoff) for n_cutoff in range(2, 7) for p in range(3)])
def test_one_representative_basis_matches_the_lift(name, seed, p, n_cutoff):
    algebra = ORACLE_ALGEBRAS[name]() if seed is None else rescaled(name, seed)
    h = truncated_cohomology(algebra, p, n_cutoff)
    stabilized, representatives, class_of = lifted_reference(algebra, p, n_cutoff)
    assert h.stabilized == stabilized
    assert h.representatives == representatives
    for rep in representatives:
        assert h.class_of(rep) == class_of(rep)


# the algebras of the weight-filtration probe: rescaled ones, a circle, and the rest
# of ORACLE_ALGEBRAS
PREFIX_ALGEBRAS = dict(
    {"%s-%d" % (name, seed): (lambda name=name, seed=seed: rescaled(name, seed))
     for name in sorted(BETTI) for seed in (3, 19)},
    circle=lambda: FpAlgebra(("x", "y"), ["x^2 + y^2 - 1"]),
    **{name: make for name, make in ORACLE_ALGEBRAS.items()
       if name in ("xyz", "cubic", "defect_curve", "space_curve")},
)


def pair_below_reference(algebra, p, n_cutoff):
    """The second pair truncated cohomology used to build: (dimension at
    N - 1, stabilized) from a separate pair at N - 1."""
    pair, _, _ = derham._truncated_pair(algebra, p, n_cutoff)
    prev_pair, prev_stratum, _ = derham._truncated_pair(algebra, p, n_cutoff - 1)
    stabilized = prev_pair.dimension == pair.dimension and all(
        max(v) < prev_stratum.size for v in pair.representatives)
    return prev_pair.dimension, stabilized


@pytest.mark.parametrize("name", sorted(PREFIX_ALGEBRAS))
def test_the_cutoff_below_is_read_from_the_pair_at_the_cutoff(name):
    """At every p and N <= 6, the dimension at N - 1 from the pair at N, and
    `stabilized`, equal those of a separately built pair at N - 1."""
    algebra = PREFIX_ALGEBRAS[name]()
    for p in range(algebra.nvars + 1):
        for n_cutoff in range(p + 1, 7):
            pair, _, below = derham._truncated_pair(algebra, p, n_cutoff)
            dimension, stabilized = pair_below_reference(algebra, p, n_cutoff)
            assert pair.prefix_dimension(*below) == dimension
            assert truncated_cohomology(algebra, p, n_cutoff).stabilized == stabilized


class _StubStratum:
    def __init__(self, size):
        self.size = size

    def form_of(self, vec):
        return tuple(vec.get(i, 0) for i in range(self.size))


@pytest.mark.parametrize("hit, stabilized", [(0, False), (1, True)])
def test_stabilized_needs_the_representatives_below_the_cutoff(monkeypatch, hit, stabilized):
    """At N - 1 one free cocycle e0; at N a new coordinate e1 and a boundary on
    e_hit.  Both cutoffs have dimension 1, but when the boundary kills e0 the
    class at N is e1, which no cocycle at N - 1 reaches."""
    below = CohomologyPair(from_rows([[]]), from_rows([], 1))
    pair = CohomologyPair(from_rows([[int(i == hit)] for i in range(2)]), from_rows([], 2))
    # the pair at N - 1 is the first column of d_next and no column of d_prev
    monkeypatch.setattr(derham, "_truncated_pair",
                        lambda algebra, p, n_cutoff: (pair, _StubStratum(2), (0, 1)))
    h = truncated_cohomology(None, 0, 1)
    assert below.dimension == pair.prefix_dimension(0, 1) == h.dimension == 1
    assert h.representatives == [(Fraction(hit), Fraction(1 - hit))]
    assert h.stabilized == stabilized


# ---------------------------------------------------------------------------
# a module's zero-quotient rule and term table


def face_ring(n):
    """The boundary of Delta^n in its hyperplane: the t_i sum to 1 and their product is 0."""
    variables = tuple("t%d" % i for i in range(n + 1))
    return FpAlgebra(variables, [" + ".join(variables) + " - 1", "*".join(variables)])


# the oracle algebras, the benchmark's varieties at two seeds, and algebras with
# units in G_1: ds = 0 beside a curve or a plane, and Omega^1 = 0 on `empty`,
# which has no real point.  Omega^1 of the line y = x = z holds no unit e_S,
# only dy - dx and dz - dx: unit leads with tails.
RULE_ALGEBRAS = dict(
    ORACLE_ALGEBRAS,
    **PREFIX_ALGEBRAS,
    circle_x_points=lambda: FpAlgebra(("x", "y", "s"), ["x^2 + y^2 - 1", "s^2 - s"]),
    plane_x_points=lambda: FpAlgebra(("x", "y", "s"), ["s^2 - s"]),
    empty=lambda: FpAlgebra(("x", "y"), ["x^2 + 1", "y - 1"]),
    line=lambda: FpAlgebra(("x", "y", "z"), ["y - x", "z - x"]),
    boundary2=lambda: face_ring(2),
    boundary3=lambda: face_ring(3),
)


def plain_groebner(algebra, p):
    """G_p from `poly.buchberger` alone, with the generators df ^ dx_T written
    as the term vectors of the polynomial forms `d_terms` makes."""
    n = algebra.nvars
    ideal = poly.buchberger([poly.term_vector({(): g}) for g in algebra.ideal_generators])
    if p == 0:
        return ideal
    seeds = [{(e, S): c for (e, _), c in vec.items()}
             for S in combinations(range(n), p) for _, vec in ideal.get((), [])]
    generators = [poly.term_vector(d_terms({T: f}, n)) for f in algebra.ideal_generators
                  for T in combinations(range(n), p - 1)]
    return poly.buchberger(generators, seeds)


@pytest.mark.parametrize("name", sorted(RULE_ALGEBRAS))
def test_each_module_basis_built_after_the_one_below_is_buchbergers(name):
    """Built in degree order, so that G_p may come from G_(p-1) by the
    zero-quotient rule, every G_p equals the one `buchberger` computes."""
    algebra = RULE_ALGEBRAS[name]()
    for p in range(algebra.nvars + 1):
        assert algebra._module(p).divisors == plain_groebner(algebra, p)


@pytest.mark.parametrize("name, p, n_cutoff, built", [
    ("torus", 3, 4, [0, 2]),  # G_2 holds e_01 and e_23, so G_3 and G_4 are units
    ("circle_x_points", 2, 3, [0, 1, 2]),  # ds = 0, but dx ^ dy is no unit's wedge
    ("empty", 1, 2, [0, 1]),  # Omega^1 = 0
    ("line", 1, 2, [0, 1, 2]),  # unit leads with tails are not units
])
def test_buchberger_runs_only_where_the_rule_cannot_give_the_basis(monkeypatch, name, p,
                                                                   n_cutoff, built):
    """The degrees whose G_p a cohomology check of degree p at cutoff N builds
    with `buchberger`: G_0 with the algebra, then G_(p-1), G_p and G_(p+1)
    in that order, each but the first maybe by the rule."""
    building, runs = [], []
    build, run = derham._module_groebner, derham.buchberger

    def tracked_build(algebra, degree):
        building.append(degree)
        try:
            return build(algebra, degree)
        finally:
            building.pop()

    def tracked_run(*args):
        runs.append(building[-1])
        return run(*args)

    monkeypatch.setattr(derham, "_module_groebner", tracked_build)
    monkeypatch.setattr(derham, "buchberger", tracked_run)
    algebra = rescaled("torus", 7) if name == "torus" else RULE_ALGEBRAS[name]()
    truncated_cohomology(algebra, p, n_cutoff)
    assert runs == built


@pytest.mark.parametrize("name", sorted(ORACLE_ALGEBRAS))
def test_d_columns_are_the_normal_forms_of_d(name):
    """Each column of d, summed from the target's term table, is `reduce_vector`
    of d(basis[k]) in basis indices, with each coefficient stored as `poly`
    stores it: an int when integral."""
    algebra = ORACLE_ALGEBRAS[name]()
    top = oracle_top(algebra)
    for p in range(min(algebra.nvars, top)):
        source = derham._WeightStratum(algebra, p, top)
        target = derham._WeightStratum(algebra, p + 1, top)
        for k, (m, S) in enumerate(source.module.basis[: source.size]):
            image = reduce_vector({(dm, T): c for c, dm, T in d_monomial(m, S)},
                                  target.module.divisors)
            expected = {target.module.index[t]: poly._coefficient(c) for t, c in image.items()}
            column = source.module.d_column(k)
            assert column == expected
            assert {i: type(c) for i, c in column.items()} == {
                i: type(c) for i, c in expected.items()}


@pytest.mark.parametrize("name", sorted(ORACLE_ALGEBRAS))
def test_each_term_is_divided_once_per_module(name, monkeypatch):
    """Over the cohomology pairs of every degree and cutoff, G_p divides each
    non-standard term once, by itself, and no standard term."""
    divided = []
    run = derham.reduce_vector

    def counting_run(vec, divisors):
        divided.append((id(divisors), tuple(vec)))
        return run(vec, divisors)

    monkeypatch.setattr(derham, "reduce_vector", counting_run)
    algebra = ORACLE_ALGEBRAS[name]()
    for n_cutoff in range(oracle_top(algebra) + 1):
        for p in range(min(algebra.nvars, n_cutoff) + 1):
            truncated_cohomology(algebra, p, n_cutoff)
    modules = {id(module.divisors): module for module in algebra._modules.values()}
    assert divided and len(divided) == len(set(divided))
    assert all(len(terms) == 1 and terms[0] not in modules[key].index for key, terms in divided)


def torus_d_columns(seed):
    """Every d column of a rescaled torus, degrees 0..3 at cutoff 5."""
    algebra = rescaled("torus", seed)
    for p in range(algebra.nvars):
        source = derham._WeightStratum(algebra, p, 5)
        target = derham._WeightStratum(algebra, p + 1, 5)
        source.differential_matrix(target)


def test_a_second_algebra_in_the_same_variables_reuses_every_d_monomial():
    """d of a term depends on the term alone, so the d columns of a second
    rescaled torus, and its generators dI ^ F_(p-1), are read from the memo
    the first one filled: none of them misses."""
    assert rescaled("torus", 7) != rescaled("torus", 8)
    d_monomial.cache_clear()
    torus_d_columns(7)
    misses = d_monomial.cache_info().misses
    assert misses > 0
    torus_d_columns(8)
    assert d_monomial.cache_info().misses == misses


@pytest.mark.parametrize("name", sorted(ORACLE_ALGEBRAS))
def test_standard_terms_are_those_no_lead_of_g_p_divides(name):
    """Testing a G_0-standard monomial against G_p's own leads alone gives the
    basis that testing every monomial against all of G_p gives."""
    algebra = ORACLE_ALGEBRAS[name]()
    top = oracle_top(algebra)
    for p in range(algebra.nvars + 1):
        module = derham._WeightStratum(algebra, p, top).module
        expected = []
        for w in range(p, top + 1):
            monomials = sorted({e for e in product(range(w - p + 1), repeat=algebra.nvars)
                                if sum(e) == w - p}, key=poly.drl_key)
            expected += [(m, S) for m in monomials for S in combinations(range(algebra.nvars), p)
                         if not any(monomial_divides(lead, m)
                                    for lead, _ in module.divisors.get(S, ()))]
            assert module.basis[:module.ends[w]] == expected, (p, w)


@pytest.mark.parametrize("name", sorted(ORACLE_ALGEBRAS))
def test_representatives_are_written_when_read(name):
    """`representatives` is built on first reading, and equals the forms of the
    pair's representative vectors, as the eager build wrote them; `class_of`
    gives each its unit vector before and after the reading."""
    algebra = ORACLE_ALGEBRAS[name]()
    for p in range(algebra.nvars + 1):
        for n_cutoff in range(p, oracle_top(algebra) + 1):
            h = truncated_cohomology(algebra, p, n_cutoff)
            assert "representatives" not in vars(h)
            eager = [h._stratum.form_of(v) for v in h._pair.representatives]
            units = [[int(i == k) for i in range(h.dimension)] for k in range(h.dimension)]
            assert [h.class_of(form) for form in eager] == units
            assert h.representatives == eager
            assert h.representatives is h.representatives
            assert [h.class_of(form) for form in h.representatives] == units
            assert all(differential(form).is_zero() for form in h.representatives)
