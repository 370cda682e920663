"""Simplicial sets, AW cup product, chains, and simplicial cohomology."""

import random
from fractions import Fraction
from math import comb

import pytest

from rhamcheck.errors import ComplexMismatch, DegreeMismatch
from rhamcheck.simplicial import (
    Chain,
    Cochain,
    DeltaMorphism,
    FiniteSimplicialSet,
    _coboundary_matrix,
    aw_cup,
    boundary,
    boundary_complex,
    coboundary,
    fundamental_boundary_cycle,
    is_cycle,
    pair,
    simplicial_cohomology,
    standard_simplex,
    unit_cochain,
    unnormalized_cohomology_dimension,
    weak_simplices,
)


def random_cochain(rng, K, p):
    return Cochain(
        K, p, {s: Fraction(rng.randint(-5, 5)) for s in K.n_simplices(p)}
    )


def test_delta_morphism_constructors():
    f = DeltaMorphism.face(2, 1)
    assert f.values == (0, 2)
    assert f == DeltaMorphism(1, 2, (0, 2)) != DeltaMorphism(1, 2, (1, 2))
    with pytest.raises(ValueError):
        DeltaMorphism(1, 1, (1, 0))


def test_standard_simplex_counts():
    d0 = standard_simplex(0)
    assert d0.n_simplices(0) == ((0,),)
    assert d0.dimension == 0
    d2 = standard_simplex(2)
    assert len(d2.n_simplices(0)) == 3
    assert len(d2.n_simplices(1)) == 3
    assert len(d2.n_simplices(2)) == 1
    for n in range(5):
        K = standard_simplex(n)
        for k in range(n + 1):
            assert len(K.n_simplices(k)) == comb(n + 1, k + 1)


def test_boundary_complex_euler_characteristic():
    b2 = boundary_complex(2)
    assert len(b2.n_simplices(0)) == 3
    assert len(b2.n_simplices(1)) == 3
    assert b2.n_simplices(2) == ()
    chi = 3 - 3
    assert chi == 0


def test_coboundary_vertex_indicator():
    K = standard_simplex(1)
    c = Cochain(K, 0, {(0,): Fraction(1)})
    dc = coboundary(c)
    # (delta c)(01) = c(1) - c(0) = -1
    assert dc.values[(0, 1)] == -1
    assert coboundary(unit_cochain(K)) == Cochain(K, 1)


def test_coboundary_squared_zero():
    rng = random.Random(4)
    K = standard_simplex(3)
    for _ in range(30):
        c = random_cochain(rng, K, rng.randint(0, 1))
        assert coboundary(coboundary(c)) == Cochain(K, c.degree + 2)


def test_aw_cup_unit_and_front_back():
    rng = random.Random(5)
    K = standard_simplex(2)
    one = unit_cochain(K)
    for p in range(3):
        b = random_cochain(rng, K, p)
        assert aw_cup(one, b) == b
        assert aw_cup(b, one) == b
    a = random_cochain(rng, K, 0)
    b = random_cochain(rng, K, 1)
    cup = aw_cup(a, b)
    assert cup.values[(0, 1)] == a.values[(0,)] * b.values[(0, 1)]


def test_aw_cup_associative_and_leibniz():
    rng = random.Random(6)
    K = standard_simplex(3)
    for _ in range(20):
        p, q = rng.randint(0, 1), rng.randint(0, 1)
        a = random_cochain(rng, K, p)
        b = random_cochain(rng, K, q)
        c = random_cochain(rng, K, rng.randint(0, 3 - p - q))
        assert aw_cup(aw_cup(a, b), c) == aw_cup(a, aw_cup(b, c))
        lhs = coboundary(aw_cup(a, b))
        rhs = aw_cup(coboundary(a), b) + aw_cup(a, coboundary(b)).scale((-1) ** p)
        assert lhs == rhs


def test_aw_cup_noncommutative_witness():
    K = standard_simplex(2)
    a = Cochain(K, 1, {(0, 1): Fraction(1)})
    b = Cochain(K, 1, {(1, 2): Fraction(1)})
    ab = aw_cup(a, b)
    ba = aw_cup(b, a)
    assert ab.values[(0, 1, 2)] == 1
    assert ba.values[(0, 1, 2)] == 0
    assert ab != ba and ab != ba.scale(-1)


def test_aw_cup_rejects_mismatch():
    with pytest.raises(ComplexMismatch):
        aw_cup(unit_cochain(standard_simplex(1)), unit_cochain(standard_simplex(2)))


def test_boundary_and_cycles():
    K = boundary_complex(2)
    e = Chain(K, 1, {(0, 1): 1})
    de = boundary(e)
    assert de.coeffs == {(1,): 1, (0,): -1}
    loop = Chain(K, 1, {(0, 1): 1, (1, 2): 1, (0, 2): -1})
    assert is_cycle(loop)
    z = fundamental_boundary_cycle(3)
    assert is_cycle(z)


def test_pairing_adjoint_to_boundary():
    rng = random.Random(8)
    K = boundary_complex(2)
    loop = Chain(K, 1, {(0, 1): 1, (1, 2): 1, (0, 2): -1})
    for _ in range(10):
        c = random_cochain(rng, K, 0)
        assert pair(coboundary(c), loop) == 0
    # general adjunction on a non-cycle
    chain = Chain(K, 1, {(0, 1): 2, (1, 2): -3})
    for _ in range(10):
        c = random_cochain(rng, K, 0)
        assert pair(coboundary(c), chain) == pair(c, boundary(chain))
    with pytest.raises(DegreeMismatch):
        pair(random_cochain(rng, K, 0), chain)


def test_simplicial_cohomology_dimensions():
    d2 = standard_simplex(2)
    assert simplicial_cohomology(d2, 0).dimension == 1
    assert simplicial_cohomology(d2, 1).dimension == 0
    assert simplicial_cohomology(d2, 2).dimension == 0
    b2 = boundary_complex(2)
    assert simplicial_cohomology(b2, 0).dimension == 1
    assert simplicial_cohomology(b2, 1).dimension == 1
    b3 = boundary_complex(3)
    assert simplicial_cohomology(b3, 0).dimension == 1
    assert simplicial_cohomology(b3, 1).dimension == 0
    assert simplicial_cohomology(b3, 2).dimension == 1


def test_cohomology_degree_above_dimension_rejected():
    with pytest.raises(ValueError):
        simplicial_cohomology(standard_simplex(1), 2)


def test_unnormalized_matches_normalized_on_small_complexes():
    for K in (standard_simplex(2), boundary_complex(2)):
        for p in range(K.dimension + 1):
            normalized = simplicial_cohomology(K, p).dimension
            assert unnormalized_cohomology_dimension(K, p) == normalized
    # degenerate simplices exist and are seen by the weak complex
    assert len(weak_simplices(standard_simplex(1), 1)) == 3


def test_cohomology_of_a_loop_drops_the_cancelled_coboundary_entry():
    """One vertex v and one edge e with both faces v: (delta c)(e) = c(v) - c(v)
    cancels, so the coboundary has no entry, and H^0 = H^1 = Q with H^1 spanned
    by e -> 1."""
    loop = FiniteSimplicialSet("loop", {0: ["v"], 1: ["e"]}, {("e", 0): "v", ("e", 1): "v"})
    assert _coboundary_matrix(loop, 0).columns == [{}]
    h = [simplicial_cohomology(loop, p) for p in range(2)]
    assert [x.dimension for x in h] == [1, 1]
    assert h[1].representatives == [Cochain(loop, 1, {"e": Fraction(1)})]
