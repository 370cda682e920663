"""Kähler forms: presentation, wedge, differential, reduction, cohomology."""

import random
from fractions import Fraction
from itertools import combinations, product

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from rhamcheck import derham
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
from rhamcheck.exterior import d_terms
from rhamcheck.formtext import parse_polynomial
from rhamcheck.linalg import Echelon
from rhamcheck.poly import Polynomial, drl_key


def free_xy():
    return FpAlgebra(("x", "y"), [])


def two_points():
    return FpAlgebra(("x",), ["x^2 - 1"])


def circle():
    return FpAlgebra(("x", "y"), ["x^2 + y^2 - 1"])


def random_form(rng, algebra, degree, max_coeff_degree=3):
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


# ---------------------------------------------------------------------------
# the relation build against a from-scratch oracle

RESCALED = {
    "ellipse": (("x", "y"), ["{0}*x^2 + {1}*y^2 - 1"]),
    "sphere": (("x", "y", "z"), ["{0}*x^2 + {1}*y^2 + {2}*z^2 - 1"]),
    "torus": (("x", "y", "z", "w"), ["{0}*x^2 + {1}*y^2 - 1", "{2}*z^2 + {3}*w^2 - 1"]),
}


def rescaled(name, seed):
    """The variety with each x -> x/a for a seeded rational a, as coefficients 1/a^2."""
    rng = random.Random(seed)
    variables, templates = RESCALED[name]
    scales = [Fraction(rng.randint(1, 9), rng.randint(1, 9)) ** -2 for _ in range(4)]
    return FpAlgebra(variables, [t.format(*("(%s)" % s for s in scales)) for t in templates])


def reference_relations(algebra, p, n_cutoff):
    """(basis, relation rows) of the stratum, built from scratch by Gauss-Jordan.

    Every generator m * df_j ^ dx_T up to weight N + margin goes into one
    reduced echelon over the basis of weight <= N + margin; the rows with
    pivot inside the weight <= N prefix are the relations of the stratum.
    """
    extended = n_cutoff + algebra.relation_margin

    def standard(max_degree):
        monomials = [e for e in product(range(max_degree + 1), repeat=algebra.nvars)
                     if sum(e) <= max_degree and algebra.is_standard(e)]
        return sorted(monomials, key=lambda e: (sum(e), drl_key(e)))

    index_sets = list(combinations(range(algebra.nvars), p))
    ext_basis = sorted(((m, S) for m in standard(max(extended - p, 0)) for S in index_sets),
                       key=lambda b: (sum(b[0]) + p, drl_key(b[0]), b[1]))
    ext_index = {b: i for i, b in enumerate(ext_basis)}
    size = sum(1 for m, _ in ext_basis if sum(m) + p <= n_cutoff)
    echelon = Echelon()
    if p >= 1:
        for f in algebra.ideal_generators:
            dcap = extended - p - (f.total_degree() - 1)
            if dcap < 0:
                continue
            relations = [
                {S: algebra.nf(c) for S, c in d_terms({T: f}, algebra.nvars).items()}
                for T in combinations(range(algebra.nvars), p - 1)
            ]
            for m in standard(dcap):
                mono = Polynomial(algebra.variables, {m: 1})
                for relation in relations:
                    vec = {}
                    for S, partial in relation.items():
                        for e, c in algebra.nf(mono * partial).terms.items():
                            vec[ext_index[(e, S)]] = c
                    if vec:
                        echelon.add(vec)
    rows = Echelon(row for pivot, row in echelon.rows.items() if pivot < size).rows
    return ext_basis[:size], rows


@settings(max_examples=12, derandomize=True, deadline=None)
@given(st.sampled_from(sorted(RESCALED)), st.integers(0, 2**32), st.integers(2, 4))
def test_memoised_multiples_match_sympy(name, seed, n_cutoff):
    algebra = rescaled(name, seed)
    algebra._stratum(1, n_cutoff)
    symbols = sympy.symbols(algebra.variables)
    gens = [sympy.sympify(str(f), locals=dict(zip(algebra.variables, symbols)))
            for f in algebra.ideal_generators]
    basis = sympy.groebner(gens, *symbols, order="grevlex", domain="QQ").exprs
    assert algebra._multiples
    for (j, i, m), value in algebra._multiples.items():
        multiple = sympy.Mul(*(s**k for s, k in zip(symbols, m))) * sympy.diff(gens[j], symbols[i])
        _, r = sympy.reduced(sympy.expand(multiple), basis, *symbols, order="grevlex")
        expect = sympy.Poly(r, *symbols, domain="QQ").as_dict() if r != 0 else {}
        assert value.terms == {e: Fraction(int(c.p), int(c.q)) for e, c in expect.items()}


# rescaled varieties, and two whose relations of low weight in degree 2
# come partly from generators above weight N + 1
ORACLE_ALGEBRAS = {
    "ellipse": (lambda: rescaled("ellipse", 7), 5),
    "sphere": (lambda: rescaled("sphere", 7), 4),
    "torus": (lambda: rescaled("torus", 7), 4),
    "xyz": (lambda: FpAlgebra(("x", "y", "z"), ["x*y*z - 1"]), 4),
    "cubic": (lambda: FpAlgebra(("x", "y"), ["x^2 + x*y - y^3 + 1"]), 5),
}


@pytest.mark.parametrize("margin", [None, 0, 1])
@pytest.mark.parametrize("name", sorted(ORACLE_ALGEBRAS))
def test_relations_match_a_build_from_scratch(name, margin):
    """Also with margins too small to catch every relation, where the rows
    of a stratum differ from those of the relations grown further."""
    make, top = ORACLE_ALGEBRAS[name]
    algebra = make()
    if margin is not None:
        algebra.relation_margin = margin
    for p in range(1, algebra.nvars + 1):
        for n_cutoff in range(p, top + 1):
            stratum = algebra._stratum(p, n_cutoff)
            basis, rows = reference_relations(algebra, p, n_cutoff)
            assert (stratum.size, stratum.basis) == (len(basis), basis)
            assert stratum.relations.rows == rows


@pytest.mark.parametrize("margin", [None, 0])
@pytest.mark.parametrize("name", sorted(ORACLE_ALGEBRAS))
def test_relations_do_not_depend_on_the_order_of_cutoffs(name, margin):
    make, top = ORACLE_ALGEBRAS[name]
    cutoffs = [(p, n) for p in range(1, 3) for n in range(p, top + 1)]
    increasing, decreasing = make(), make()
    for algebra in (increasing, decreasing):
        algebra.relation_margin = margin if margin is not None else algebra.relation_margin
    up = {key: increasing._stratum(*key).relations.rows for key in cutoffs}
    down = {key: decreasing._stratum(*key).relations.rows for key in reversed(cutoffs)}
    fresh = {}
    for key in cutoffs:
        algebra = make()
        algebra.relation_margin = increasing.relation_margin
        fresh[key] = algebra._stratum(*key).relations.rows
    assert up == down == fresh


def test_each_multiple_and_generator_is_built_once(monkeypatch):
    """One normal form per (j, i, m) multiple, one insertion per generator (j, m, T)."""
    normal_forms, requested, inserted = [], set(), []
    building = []
    nf, multiple, insert = FpAlgebra.nf, FpAlgebra.multiple, derham.insert_forward
    stratum_init = derham._WeightStratum.__init__

    def counting_nf(self, f):
        if building:
            normal_forms.append(f)
        return nf(self, f)

    def recording_multiple(self, j, i, m):
        requested.add((j, i, m))
        return multiple(self, j, i, m)

    def counting_insert(rows, vec):
        inserted.append(vec)
        return insert(rows, vec)

    def flagged_init(self, *args):
        building.append(True)
        try:
            stratum_init(self, *args)
        finally:
            building.pop()

    monkeypatch.setattr(FpAlgebra, "nf", counting_nf)
    monkeypatch.setattr(FpAlgebra, "multiple", recording_multiple)
    monkeypatch.setattr(derham, "insert_forward", counting_insert)
    monkeypatch.setattr(derham._WeightStratum, "__init__", flagged_init)
    torus = rescaled("torus", 5)
    truncated_cohomology(torus, 1, 4)
    assert len(normal_forms) == len(requested) > 0
    # relation sets of degrees 1 and 2 reach weight 4 + margin; every
    # generator m * df_j ^ dx_T up to it goes in once
    top = 4 + torus.relation_margin
    generators = sum(
        len(list(combinations(range(4), p - 1)))
        * sum(1 for d in range(top - p - f.total_degree() + 2) for _ in torus.standard_layer(d))
        for p in (1, 2)
        for f in torus.ideal_generators
    )
    assert len(inserted) == generators
    for n_cutoff in (2, 3, 4):
        truncated_cohomology(torus, 1, n_cutoff)
        reduce_form(random_form(random.Random(n_cutoff), torus, 2, max_coeff_degree=2))
    assert len(normal_forms) == len(requested)
    assert len(inserted) == generators
