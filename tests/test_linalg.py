"""Exact kernels, images, and cohomology of composable pairs."""

import importlib
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from sympy import QQ
from sympy.polys.matrices import DomainMatrix

from rhamcheck import linalg, simplex_forms
from rhamcheck.checks import Settings, run_scenario_checks
from rhamcheck.derham import truncated_cohomology
from rhamcheck.errors import CompositionNonzero, NotACocycle
from rhamcheck.exterior import d_monomial
from rhamcheck.linalg import CohomologyPair, Echelon, Matrix, kernel_image, solve
from rhamcheck.scenarios import Scenario, load_builtin
from rhamcheck.simplex_forms import FamilyComplex, extend_from_boundary
from rhamcheck.simplicial import boundary_complex, standard_simplex


def _axpy(target, scale, source):
    """target += scale * source on sparse dicts, dropping cancelled entries."""
    for j, v in source.items():
        nv = target.get(j, 0) + scale * v
        if nv:
            target[j] = nv
        else:
            target.pop(j, None)


class FractionEchelon:
    """The reference engine for `Echelon`: the same reduced echelon basis with
    every row operation done in Fractions.

    Each row is kept with entry 1 at its pivot, its largest index, and with
    no entry at any other pivot; with `track`, with its combination of the
    numbered independent inputs.  `modulo` vectors are added first, unnumbered.
    It has the entry points `CohomologyPair` and `_eliminate` use too:
    `independent_modulo`, `_reduce`, which gives scale 1, and `_insert`,
    which makes a reduced remainder a row, and `scaled_rows`, each row at
    scale 1, which `FamilyComplex` reads.
    """

    def __init__(self, vectors=(), track=False, modulo=()):
        self.rows = {}
        self._combos = {}  # pivot -> combination; all empty without `track`
        self._track = False
        self._inputs = 0
        self.independent_modulo = [i for i, vec in enumerate(modulo) if self.add(vec)[0]]
        self._track = track
        for vec in vectors:
            self.add(vec)

    def _reduce(self, vec):
        """(out, coords, 1) with vec = out + sum of coords[k] * vector k."""
        out = {j: v for j, v in vec.items() if v}
        coords = {}
        for pivot in [j for j in out if j in self.rows]:
            coeff = out[pivot]
            _axpy(out, -coeff, self.rows[pivot])
            _axpy(coords, coeff, self._combos[pivot])
        return out, coords, 1

    def _insert(self, out, coords, scale):
        """Make the reduced remainder out = scale * input - sum of coords[k] *
        vector k a row."""
        if not out:
            return
        pivot = max(out)
        inv = Fraction(1) / out[pivot]
        row = {j: v * inv for j, v in out.items()}
        combo = {}
        if self._track:
            combo = {k: -v * inv for k, v in coords.items()}
            combo[self._inputs] = scale * inv
            self._inputs += 1
        for other_pivot, other in self.rows.items():
            coeff = other.get(pivot)
            if coeff:
                _axpy(other, -coeff, row)
                _axpy(self._combos[other_pivot], -coeff, combo)
        self.rows[pivot] = row
        self._combos[pivot] = combo

    @property
    def scaled_rows(self):
        return {pivot: (row, 1) for pivot, row in self.rows.items()}

    def reduce(self, vec):
        red, coords, _ = self._reduce(vec)
        return red, coords

    def add(self, vec):
        red, coords, scale = self._reduce(vec)
        self._insert(red, coords, scale)
        return red, coords


def from_rows(rows_list, cols=None):
    """The matrix with these rows, in column form; `cols` is the width when there is no row."""
    if rows_list:
        cols = len(rows_list[0])
    columns = [{i: Fraction(row[j]) for i, row in enumerate(rows_list) if row[j]}
               for j in range(cols)]
    return Matrix(len(rows_list), columns)


def apply(matrix, vec):
    """matrix * vec for a sparse vec, as a dense list."""
    out = [Fraction(0)] * matrix.rows
    for j, v in vec.items():
        for i, a in matrix.columns[j].items():
            out[i] += a * v
    return out


def random_matrix(rng, rows, cols, density=0.6):
    return from_rows([[Fraction(rng.randint(-6, 6), rng.randint(1, 4)) if rng.random() < density
                       else 0 for _ in range(cols)] for _ in range(rows)], cols)


def test_identity_has_trivial_kernel():
    kernel, image, rank = kernel_image(from_rows([[1, 0], [0, 1]]))
    assert kernel == []
    assert rank == 2
    assert image == [{0: 1}, {1: 1}]


def test_one_by_two_row():
    m = from_rows([[1, 1]])
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
        assert apply(m, v) == [0] * 6
    # image vectors really are columns of m, hence in the column space
    for w in image:
        assert solve(m, w) is not None


@pytest.mark.parametrize("rows, cols, density", [(6, 9, 0.6), (5, 70, 0.15), (80, 70, 0.05)])
def test_kernel_vector_ends_at_its_own_column(rows, cols, density):
    """Each kernel vector is 1 at its dependent column and zero above it, and
    the columns increase; truncated cohomology relies on this order to keep
    the kernel of a prefix of the columns inside that prefix."""
    m = random_matrix(random.Random(rows * cols), rows, cols, density=density)
    kernel, _, _ = kernel_image(m)
    ends = [max(j for j, v in vec.items() if v) for vec in kernel]
    assert all(vec[j] == 1 for vec, j in zip(kernel, ends))
    assert ends == sorted(set(ends)) and len(ends) == cols - len(Echelon(m.columns).rows)


def test_sparse_path_matches_dense():
    # force the sparse fraction-free path with a wide matrix
    rng = random.Random(3)
    wide = random_matrix(rng, 5, 70, density=0.15)
    kernel, _, rank = kernel_image(wide)
    assert rank + len(kernel) == 70
    for v in kernel[:10]:
        assert apply(wide, v) == [0] * 5


def test_cohomology_zero_maps():
    z = from_rows([[], [], []])
    z2 = from_rows([], 3)
    h = CohomologyPair(z, z2)
    assert h.dimension == 3


def test_cohomology_boundary_circle():
    # simplicial cochain complex of the 3-vertex circle in degree 1:
    # delta0: C^0 -> C^1 for edges (01), (02), (12)
    d0 = from_rows([[-1, 1, 0], [-1, 0, 1], [0, -1, 1]])
    d1 = from_rows([], 3)
    h = CohomologyPair(d0, d1)
    assert h.dimension == 1


def test_cohomology_exact_sequence_is_trivial():
    # im(d_prev) = ker(d_next): H = 0
    d_prev = from_rows([[1], [0]])
    d_next = from_rows([[0, 1]])
    h = CohomologyPair(d_prev, d_next)
    assert h.dimension == 0


def test_composition_checked():
    d_prev = from_rows([[1, 0], [0, 1]])
    d_next = from_rows([[1, 0], [0, 1]])
    with pytest.raises(CompositionNonzero):
        CohomologyPair(d_prev, d_next)


def test_class_of_unit_coordinates_and_coboundary_invariance():
    rng = random.Random(17)
    # d_prev maps a 2-dim space into a 4-dim space; d_next kills everything
    d_prev = from_rows([[1, 0], [1, 1], [0, 0], [0, 0]])
    d_next = from_rows([], 4)
    h = CohomologyPair(d_prev, d_next)
    assert h.dimension == 2
    for i, rep in enumerate(h.representatives):
        expected = [Fraction(0)] * h.dimension
        expected[i] = Fraction(1)
        assert h.class_of(rep) == expected
        assert not any(apply(d_next, rep))
    for _ in range(10):
        c = [Fraction(rng.randint(-4, 4)) for _ in range(4)]
        w = [Fraction(rng.randint(-4, 4)) for _ in range(2)]
        shifted = [a + b for a, b in zip(c, apply(d_prev, dict(enumerate(w))))]
        assert h.class_of(dict(enumerate(c))) == h.class_of(dict(enumerate(shifted)))


def test_class_of_rejects_non_cocycle():
    d_prev = from_rows([[], []])
    d_next = from_rows([[1, 0]])
    h = CohomologyPair(d_prev, d_next)
    with pytest.raises(NotACocycle):
        h.class_of({0: Fraction(1)})


def test_class_of_reconstructs_vector():
    rng = random.Random(23)
    # 80x70 is big and sparse enough to catch elimination faults small matrices miss
    for rows, cols, density in ((5, 3, 0.8), (80, 70, 0.05)):
        d_prev = random_matrix(rng, rows, cols, density=density)
        # d_next = 0 so every vector is a cocycle
        d_next = from_rows([], rows)
        h = CohomologyPair(d_prev, d_next)
        for _ in range(10):
            c = {i: Fraction(rng.randint(-5, 5)) for i in range(rows)}
            residual = dict(c)
            for a, rep in zip(h.class_of(c), h.representatives):
                for j, x in rep.items():
                    residual[j] -= a * x
            # c - sum(coords * reps) is a boundary: the image of d_prev reduces it to nothing
            assert Echelon(d_prev.columns).reduce(residual)[0] == {}


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
    for j, column in enumerate(matrix.columns):
        for i, value in column.items():
            rows.setdefault(i, {})[j] = QQ(value.numerator, value.denominator)
    if extra_column is not None:
        cols += 1
        for i, value in enumerate(extra_column):
            if value:
                rows.setdefault(i, {})[matrix.cols] = QQ(value.numerator, value.denominator)
    return DomainMatrix(rows, (matrix.rows, cols), QQ).rank()


# The examples pin the sizes covered, which the derandomized draws do not
# (they are seeded from the test's source): the largest dense case, square
# shapes either side of 64, where elimination once switched from a dense to
# a sparse path, and thin ones.
@settings(deadline=None, max_examples=25, derandomize=True)
@given(
    rows=st.integers(1, 90),
    cols=st.integers(1, 90),
    density=st.floats(0.02, 0.6),
    seed=st.integers(0, 2**32),
)
@example(rows=90, cols=90, density=0.6, seed=1)
@example(rows=63, cols=63, density=0.1, seed=2)
@example(rows=64, cols=63, density=0.1, seed=3)
@example(rows=5, cols=80, density=0.5, seed=4)
@example(rows=80, cols=5, density=0.5, seed=5)
def test_elimination_matches_sympy_oracle(rows, cols, density, seed):
    rng = random.Random(seed)
    m = random_matrix(rng, rows, cols, density)
    rank = oracle_rank(m)
    kernel, image, got_rank = kernel_image(m)
    assert got_rank == len(image) == rank
    assert len(kernel) == cols - rank
    for v in kernel:
        assert not any(apply(m, v))
    x0 = [Fraction(rng.randint(-3, 3)) for _ in range(cols)]
    b = apply(m, dict(enumerate(x0)))
    x = solve(m, dict(enumerate(b)))
    assert x is not None and apply(m, x) == b
    b = [Fraction(rng.randint(-3, 3)) for _ in range(rows)]
    x = solve(m, dict(enumerate(b)))
    if oracle_rank(m, b) > rank:
        assert x is None
    else:
        assert x is not None and apply(m, x) == b


def test_solve_never_pivots_on_the_right_hand_side():
    # column 0 all ones, column 1 all ones but row 0: x = (1, -1) solves A x = e0
    m = from_rows([[1, int(i > 0)] for i in range(70)])
    assert solve(m, {0: Fraction(1)}) == {0: 1, 1: -1}


def test_torus_first_cohomology_at_weight_four():
    h = truncated_cohomology(load_builtin("torus").algebra, 1, 4)
    assert h.dimension == 2
    assert h.stabilized


def test_family_complex_on_boundary_of_tetrahedron_at_weight_three():
    fc = FamilyComplex(boundary_complex(3), 3)
    assert [fc.cohomology_dimension(q) for q in range(3)] == [1, 0, 1]


def test_linalg_leaves_its_input_columns_as_they_were():
    """Producers hand in columns they keep cached, so nothing here may change one."""
    rng = random.Random(29)
    d_prev = random_matrix(rng, 12, 7, density=0.3)
    d_next = from_rows([], 12)
    kept = [dict(column) for column in d_prev.columns]
    h = CohomologyPair(d_prev, d_next)
    kernel_image(d_prev)
    solve(d_prev, {0: Fraction(1)})
    for rep in h.representatives:
        h.class_of(rep)
    assert d_prev.columns == kept


def test_benchmark_tracer_still_reads_the_matrix_shapes(monkeypatch):
    """The benchmark's tracer hooks kernel_image, kernel_image_of_columns and solve
    by name and reads the integer .rows and .cols of their first argument; a
    family complex at r = 0 reaches kernel_image through its Whitney basis."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "benchmarks"))
    spans = importlib.import_module("spans")
    text = ("format_version 1\nname traced\n\n[check tau]\nkind tau_cohomology\n"
            "complex boundary2\nmax_weight 1\n")
    tracer = spans.Tracer()
    uninstall = spans.install(tracer)
    try:
        tracer.begin("bench.trace")
        results = run_scenario_checks(Scenario(text), Settings())
        tracer.end()
    finally:
        uninstall()
    assert [r.status for r in results] == ["pass"]
    metrics = spans.layer_metrics(tracer.summary())
    assert metrics["linalg.kernel_image.calls"] > 0
    assert metrics["linalg.max_dim"] > 0


# ---------------------------------------------------------------------------
# the fraction-free Echelon against the Fraction reference


ENTRIES = st.one_of(
    st.integers(-9, 9),
    st.builds(Fraction, st.integers(-9, 9), st.integers(1, 12)),
    st.just(Fraction(0)),
)
VECTORS = st.dictionaries(st.integers(0, 11), ENTRIES, max_size=6)


@settings(deadline=None, max_examples=150, derandomize=True)
@given(
    track=st.booleans(),
    modulo=st.lists(VECTORS, max_size=3),
    steps=st.lists(st.tuples(st.sampled_from(["add", "reduce"]), VECTORS), max_size=16),
)
@example(track=True, modulo=[], steps=[("add", {0: 2, 3: Fraction(1, 3), 5: 0}),
                                       ("add", {3: Fraction(-5, 6), 5: 4}),
                                       ("reduce", {0: 1, 3: 1, 5: 1})])
def test_echelon_matches_the_fraction_engine(track, modulo, steps):
    """The same calls on both engines give the same rows, remainders and
    coordinates as Fractions, with integer entries, mixed denominators and
    explicit zeros in the inputs."""
    fast = Echelon(track=track, modulo=modulo)
    reference = FractionEchelon(track=track, modulo=modulo)
    for op, vec in steps:
        kept = dict(vec)
        assert getattr(fast, op)(vec) == getattr(reference, op)(vec)
        assert vec == kept
        assert len(fast.rows) == len(reference.rows)
        assert dict(fast.rows) == reference.rows
    assert fast.independent_modulo == reference.independent_modulo


def family_outputs(name, weight):
    """Dimensions, representatives' cochains and their extensions (on a
    boundary complex) of the family complex, per degree."""
    k = int(name[-1])
    complex_ = standard_simplex(k) if name.startswith("delta") else boundary_complex(k)
    fc = FamilyComplex(complex_, weight)
    out = []
    for q in range(complex_.dimension + 1):
        reps = fc.representatives(q)
        out.append((fc.cohomology_dimension(q), [rep.to_cochain().values for rep in reps]))
        if name.startswith("boundary") and k >= 2:
            extensions = [extend_from_boundary(rep) for rep in reps]
            out.append([{S: p.terms for S, p in e.terms.items()} for e in extensions])
    return out


@pytest.mark.parametrize("name", ["delta0", "delta1", "delta2", "delta3",
                                  "boundary1", "boundary2", "boundary3", "boundary4"])
def test_family_complex_is_the_same_on_the_fraction_engine(name, monkeypatch):
    simplex_forms._boundary_basis.cache_clear()
    fast = [family_outputs(name, weight) for weight in range(4)]
    monkeypatch.setattr(linalg, "Echelon", FractionEchelon)
    monkeypatch.setattr(simplex_forms, "Echelon", FractionEchelon)
    simplex_forms._boundary_basis.cache_clear()
    try:
        reference = [family_outputs(name, weight) for weight in range(4)]
    finally:
        simplex_forms._boundary_basis.cache_clear()
    assert fast == reference


def fraction_row_complex(fc):
    """(d matrices, pivots, prefixes) of a family complex built the way it was
    before its integer rows: from `Echelon.rows`, d of each Fraction row read at
    the next degree's pivots."""
    top = fc.complex.dimension
    echelons = {q: Echelon(fc._spanning_families(q)) for q in range(top + 2)}
    bases, pivots, prefixes = {}, {}, {}
    for q, echelon in echelons.items():
        rows = echelon.rows
        bases[q] = [rows[pivot] for pivot in sorted(rows)]
        pivots[q] = {pivot: k for k, pivot in enumerate(sorted(rows))}
        prefixes[q] = sum(pivot < (fc.weight_cutoff - q,) for pivot in rows)
    matrices = {}
    for q in range(top + 1):
        columns = []
        for family in bases[q]:
            image = {}
            for (_, s, e, S), c in family.items():
                for m, de, T in d_monomial(e, S):
                    key = (sum(de), s, de, T)
                    image[key] = image.get(key, 0) + m * c
            assert echelons[q + 1].reduce(image)[0] == {}
            columns.append({pivots[q + 1][key]: c for key, c in image.items()
                            if c and key in pivots[q + 1]})
        matrices[q] = (len(pivots[q + 1]), columns)
    return matrices, pivots, prefixes


class DoubledRowsEchelon(Echelon):
    """`Echelon` handing out each row at twice its scale: the same rows, which
    the family complexes here would otherwise all read at scale 1."""

    @property
    def scaled_rows(self):
        return {pivot: ({j: 2 * v for j, v in vec.items()}, 2 * scale)
                for pivot, (vec, scale) in super().scaled_rows.items()}


@pytest.mark.parametrize("name", ["delta0", "delta1", "delta2", "delta3",
                                  "boundary1", "boundary2", "boundary3", "boundary4"])
def test_family_complex_on_integer_rows_matches_its_fraction_rows(name, monkeypatch):
    """d taken on each row's integer vector, over its scale, gives the same
    matrices, as Fractions, as d of the row read in Fractions; and the pivots
    and the weight <= N - 1 prefixes are the same.  With every row handed out
    at twice its scale, the matrices and the representatives do not change."""
    k = int(name[-1])
    complex_ = standard_simplex(k) if name.startswith("delta") else boundary_complex(k)
    for weight in range(4):
        built = []
        for engine in (Echelon, DoubledRowsEchelon):
            monkeypatch.setattr(simplex_forms, "Echelon", engine)
            fc = FamilyComplex(complex_, weight)
            matrices, pivots, prefixes = fraction_row_complex(fc)
            assert {q: (m.rows, m.columns) for q, m in fc._d_matrices.items()} == matrices
            assert all(isinstance(c, Fraction) for m in fc._d_matrices.values()
                       for column in m.columns for c in column.values())
            assert fc._pivots == pivots
            assert fc._prefix == prefixes
            built.append([[rep.to_cochain().values for rep in fc.representatives(q)]
                          for q in range(complex_.dimension + 1)])
        assert built[0] == built[1]


# ---------------------------------------------------------------------------
# CohomologyPair against the pair it replaced


def apply_sparse(matrix, vec):
    """matrix * vec, as a sparse vector."""
    out = {}
    for j, v in vec.items():
        _axpy(out, v, matrix.columns[j])
    return out


class ReferencePair:
    """`CohomologyPair` as it was before its rank identity and its integer
    kernel, kept as the reference, on `FractionEchelon`: d_next . d_prev is
    multiplied out, and each Fraction kernel vector is reduced against the
    boundaries and the earlier representatives."""

    def __init__(self, d_prev, d_next):
        if any(apply_sparse(d_next, col) for col in d_prev.columns):
            raise CompositionNonzero("d_next . d_prev != 0")
        self.d_next = d_next
        echelon, independent, kernel = FractionEchelon(track=True), [], []
        for j, col in enumerate(d_next.columns):
            red, coords = echelon.add(col)
            if red:
                independent.append(j)
            else:
                vec = {independent[k]: -c for k, c in coords.items()}
                vec[j] = Fraction(1)
                kernel.append(vec)
        self._reps = FractionEchelon(track=True, modulo=d_prev.columns)
        self.representatives = []
        for vec in kernel:
            red, _ = self._reps.reduce(vec)
            if red:
                self._reps.add(red)
                self.representatives.append(red)
        self.dimension = len(self.representatives)

    def class_of(self, vec):
        if apply_sparse(self.d_next, vec):
            raise NotACocycle("class_of on a vector with nonzero coboundary")
        rest, coords = self._reps.reduce(vec)
        assert not rest
        return [coords.get(i, Fraction(0)) for i in range(self.dimension)]


def random_pair(rng):
    """A random composable pair: d_prev's columns are combinations of d_next's
    kernel vectors, ordered by their last row, and some pairs get one entry
    added, which mostly makes d_next . d_prev nonzero."""
    rows, cols = rng.randint(0, 6), rng.randint(1, 9)
    d_next = random_matrix(rng, rows, cols, density=rng.choice([0.2, 0.5]))
    kernel = ReferencePair(Matrix(cols, []), d_next).representatives
    columns = []
    for _ in range(rng.randint(0, 6)):
        col = {}
        for vec in rng.sample(kernel, rng.randint(0, len(kernel))):
            _axpy(col, Fraction(rng.randint(-3, 3), rng.randint(1, 2)), vec)
        columns.append(col)
    if columns and rng.random() < 0.3:
        col = rng.choice(columns)
        j = rng.randrange(cols)
        col[j] = col.get(j, 0) + 1
        if not col[j]:
            del col[j]
    columns.sort(key=lambda col: max(col, default=-1))
    return Matrix(cols, columns), d_next


@pytest.mark.parametrize("seed", range(120))
def test_cohomology_pair_matches_the_reference_pair(seed):
    """CompositionNonzero exactly when the product is nonzero; otherwise the
    same dimension, representatives and class_of, and each prefix pair's
    dimension read from the whole one."""
    rng = random.Random(seed)
    d_prev, d_next = random_pair(rng)
    if any(apply_sparse(d_next, col) for col in d_prev.columns):
        with pytest.raises(CompositionNonzero):
            CohomologyPair(d_prev, d_next)
        return
    h, reference = CohomologyPair(d_prev, d_next), ReferencePair(d_prev, d_next)
    assert h.dimension == reference.dimension
    assert h.representatives == reference.representatives
    cocycles = ReferencePair(Matrix(d_next.cols, []), d_next).representatives
    for _ in range(5):
        vec = {}
        for source in cocycles + d_prev.columns:
            _axpy(vec, Fraction(rng.randint(-3, 3), rng.randint(1, 3)), source)
        assert h.class_of(vec) == reference.class_of(vec)
    # the first cols coordinates and the d_prev columns supported on them make a pair
    for cols in range(d_next.cols + 1):
        prev_cols = sum(1 for col in d_prev.columns if max(col, default=-1) < cols)
        below = ReferencePair(Matrix(cols, d_prev.columns[:prev_cols]),
                              Matrix(d_next.rows, d_next.columns[:cols]))
        assert h.prefix_dimension(prev_cols, cols) == below.dimension
        # stabilized: equal dimensions, and the prefix's classes span H
        rank = len(Echelon(dict(enumerate(reference.class_of(v)))
                           for v in below.representatives).rows)
        assert h.stabilized(prev_cols, cols) == (below.dimension == rank == h.dimension)


def test_stabilized_needs_every_representative_in_the_prefix():
    """d_prev = [c -> a], d_next = 0 on <a, b>.  The prefix (0, 1), on <a>, has
    dimension 1, as H = <a, b> / <a> does, but H's one representative is b, which
    the prefix does not reach; the whole pair, (1, 2), is stabilized."""
    h = CohomologyPair(from_rows([[1], [0]]), from_rows([], 2))
    assert h.representatives == [{1: Fraction(1)}]
    assert h.prefix_dimension(0, 1) == h.dimension == 1
    assert not h.stabilized(0, 1)
    assert h.stabilized(1, 2)


def test_random_pairs_reach_both_outcomes():
    """The seeds above cover nonzero compositions and nonzero cohomology."""
    outcomes = set()
    for seed in range(120):
        d_prev, d_next = random_pair(random.Random(seed))
        if any(apply_sparse(d_next, col) for col in d_prev.columns):
            outcomes.add("nonzero")
        else:
            outcomes.add(ReferencePair(d_prev, d_next).dimension > 0)
    assert outcomes == {"nonzero", True, False}
