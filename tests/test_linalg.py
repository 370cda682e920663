"""Exact kernels, images, and cohomology of composable pairs."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import QQ
from sympy.polys.matrices import DomainMatrix

from rhamcheck.derham import truncated_cohomology
from rhamcheck.errors import CompositionNonzero, NotACocycle
from rhamcheck.fixtures import torus_algebra
from rhamcheck.linalg import Echelon, SparseMatrix, cohomology_pair, kernel_image, solve
from rhamcheck.simplex_forms import FamilyComplex
from rhamcheck.simplicial import boundary_complex


def random_matrix(rng, rows, cols, density=0.6):
    entries = {}
    for i in range(rows):
        for j in range(cols):
            if rng.random() < density:
                entries[(i, j)] = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
    return SparseMatrix(rows, cols, entries)


def test_identity_has_trivial_kernel():
    kernel, image, rank = kernel_image(SparseMatrix.identity(2))
    assert kernel == []
    assert rank == 2
    assert image == [[1, 0], [0, 1]]


def test_one_by_two_row():
    m = SparseMatrix.from_rows([[1, 1]])
    kernel, _, rank = kernel_image(m)
    assert rank == 1
    assert len(kernel) == 1
    v = kernel[0]
    # forced by dimension: the kernel is spanned by (1, -1)
    assert v[0] == -v[1] != 0


@pytest.mark.parametrize("seed", range(5))
def test_kernel_vectors_multiply_back_to_zero(seed):
    rng = random.Random(seed)
    m = random_matrix(rng, 6, 6)
    kernel, image, rank = kernel_image(m)
    assert rank + len(kernel) == 6
    for v in kernel:
        assert m.mul_vec(v) == [0] * 6
    # image vectors really are columns of m, hence in the column space
    for w in image:
        assert solve(m, w) is not None


def test_sparse_path_matches_dense():
    # force the sparse fraction-free path with a wide matrix
    rng = random.Random(3)
    wide = random_matrix(rng, 5, 70, density=0.15)
    kernel, _, rank = kernel_image(wide)
    assert rank + len(kernel) == 70
    for v in kernel[:10]:
        assert wide.mul_vec(v) == [0] * 5


def test_cohomology_zero_maps():
    z = SparseMatrix.zero(3, 0)
    z2 = SparseMatrix.zero(0, 3)
    h = cohomology_pair(z, z2)
    assert h.dimension == 3


def test_cohomology_boundary_circle():
    # simplicial cochain complex of the 3-vertex circle in degree 1:
    # delta0: C^0 -> C^1 for edges (01), (02), (12)
    d0 = SparseMatrix.from_rows([[-1, 1, 0], [-1, 0, 1], [0, -1, 1]])
    d1 = SparseMatrix.zero(0, 3)
    h = cohomology_pair(d0, d1)
    assert h.dimension == 1


def test_cohomology_exact_sequence_is_trivial():
    # im(d_prev) = ker(d_next): H = 0
    d_prev = SparseMatrix.from_rows([[1], [0]])
    d_next = SparseMatrix.from_rows([[0, 1]])
    h = cohomology_pair(d_prev, d_next)
    assert h.dimension == 0


def test_composition_checked():
    d_prev = SparseMatrix.identity(2)
    d_next = SparseMatrix.identity(2)
    with pytest.raises(CompositionNonzero):
        cohomology_pair(d_prev, d_next)


def test_class_of_unit_coordinates_and_coboundary_invariance():
    rng = random.Random(17)
    # d_prev maps a 2-dim space into a 4-dim space; d_next kills everything
    d_prev = SparseMatrix.from_rows([[1, 0], [1, 1], [0, 0], [0, 0]])
    d_next = SparseMatrix.zero(0, 4)
    h = cohomology_pair(d_prev, d_next)
    assert h.dimension == 2
    for i, rep in enumerate(h.representatives):
        coords, witness = h.class_of(rep)
        expected = [Fraction(0)] * h.dimension
        expected[i] = Fraction(1)
        assert coords == expected
        assert witness == [0, 0]
        assert all(v == 0 for v in h.d_next.mul_vec(rep))
    for _ in range(10):
        c = [Fraction(rng.randint(-4, 4)) for _ in range(4)]
        w = [Fraction(rng.randint(-4, 4)) for _ in range(2)]
        shifted = [a + b for a, b in zip(c, d_prev.mul_vec(w))]
        coords1, _ = h.class_of(c)
        coords2, _ = h.class_of(shifted)
        assert coords1 == coords2


def test_class_of_rejects_non_cocycle():
    d_prev = SparseMatrix.zero(2, 0)
    d_next = SparseMatrix.from_rows([[1, 0]])
    h = cohomology_pair(d_prev, d_next)
    with pytest.raises(NotACocycle):
        h.class_of([Fraction(1), Fraction(0)])


def test_class_of_reconstructs_vector():
    rng = random.Random(23)
    # 80x70 is big and sparse enough to catch elimination faults small matrices miss
    for rows, cols, density in ((5, 3, 0.8), (80, 70, 0.05)):
        d_prev = random_matrix(rng, rows, cols, density=density)
        # d_next = 0 so every vector is a cocycle
        d_next = SparseMatrix.zero(0, rows)
        h = cohomology_pair(d_prev, d_next)
        for _ in range(10):
            c = [Fraction(rng.randint(-5, 5)) for _ in range(rows)]
            coords, witness = h.class_of(c)
            rebuilt = [Fraction(0)] * rows
            for a, rep in zip(coords, h.representatives):
                rebuilt = [r + a * x for r, x in zip(rebuilt, rep)]
            rebuilt = [r + x for r, x in zip(rebuilt, d_prev.mul_vec(witness))]
            assert rebuilt == c


@pytest.mark.parametrize("seed", range(3))
def test_echelon_is_canonical_and_tracks_coordinates(seed):
    rng = random.Random(seed)
    vectors = [
        {j: Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for j in rng.sample(range(12), 4)}
        for _ in range(9)
    ]
    echelon = Echelon(track=True)
    independent = [v for v in vectors if echelon.add(v)[0]]
    # the reduced basis of a span does not depend on the order vectors arrive in
    assert echelon.rows == Echelon(reversed(vectors)).rows
    for pivot, row in echelon.rows.items():
        assert max(row) == pivot and row[pivot] == 1
        assert all(j == pivot or j not in echelon.rows for j in row)
    probe = {j: Fraction(rng.randint(-3, 3)) for j in range(12)}
    rest, coords = echelon.reduce(probe)
    assert not set(rest) & set(echelon.rows)
    rebuilt = dict(rest)
    for k, c in coords.items():
        for j, v in independent[k].items():
            rebuilt[j] = rebuilt.get(j, 0) + c * v
    assert {j: v for j, v in rebuilt.items() if v} == {j: v for j, v in probe.items() if v}


def oracle_rank(matrix, extra_column=None):
    """Rank from sympy's DomainMatrix over QQ, optionally of [matrix | extra_column]."""
    cols = matrix.cols
    rows = {}
    for (i, j), value in matrix.entries.items():
        rows.setdefault(i, {})[j] = QQ(value.numerator, value.denominator)
    if extra_column is not None:
        cols += 1
        for i, value in enumerate(extra_column):
            if value:
                rows.setdefault(i, {})[matrix.cols] = QQ(value.numerator, value.denominator)
    return DomainMatrix(rows, (matrix.rows, cols), QQ).rank()


@settings(deadline=None, max_examples=9, derandomize=True)
@given(
    rows=st.integers(1, 90),
    cols=st.integers(1, 90),
    density=st.floats(0.02, 0.6),
    seed=st.integers(0, 2**32),
)
def test_elimination_matches_sympy_oracle(rows, cols, density, seed):
    rng = random.Random(seed)
    m = random_matrix(rng, rows, cols, density)
    rank = oracle_rank(m)
    kernel, image, got_rank = kernel_image(m)
    assert got_rank == len(image) == rank
    assert len(kernel) == cols - rank
    for v in kernel:
        assert not any(m.mul_vec(v))
    x0 = [Fraction(rng.randint(-3, 3)) for _ in range(cols)]
    b = m.mul_vec(x0)
    x = solve(m, b)
    assert x is not None and m.mul_vec(x) == b
    b = [Fraction(rng.randint(-3, 3)) for _ in range(rows)]
    x = solve(m, b)
    if oracle_rank(m, b) > rank:
        assert x is None
    else:
        assert x is not None and m.mul_vec(x) == b


def test_solve_never_pivots_on_the_right_hand_side():
    # column 0 all ones, column 1 all ones but row 0: x = (1, -1) solves A x = e0
    entries = {(i, 0): 1 for i in range(70)}
    entries.update({(i, 1): 1 for i in range(1, 70)})
    m = SparseMatrix(70, 2, entries)
    assert solve(m, [Fraction(1)] + [Fraction(0)] * 69) == [1, -1]


def test_torus_first_cohomology_at_weight_four():
    h = truncated_cohomology(torus_algebra(), 1, 4)
    assert h.dimension == 2
    assert h.stabilized


def test_family_complex_on_boundary_of_tetrahedron_at_weight_three():
    fc = FamilyComplex(boundary_complex(3), 3)
    assert [fc.cohomology_dimension(q) for q in range(3)] == [1, 0, 1]
