"""Exact sparse linear algebra over the rationals.

Everything downstream (de Rham truncations, simplicial cohomology, the
forms-family complexes) funnels through two operations: kernel/image
bases of a single map, and the cohomology of a composable pair.  All
vectors are exact Fractions; there is no floating-point path here.

One elimination engine serves them all: `Echelon`, the reduced echelon
basis of a growing span of sparse vectors.  A map's columns are inserted
in order; a column that reduces to zero is a combination of the earlier
independent columns, which gives one kernel vector, and the independent
columns are the image.  Since the reduced basis of a span is unique,
every result is canonical whatever the sparsity of the input.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import CompositionNonzero, NotACocycle

DENSE_LIMIT = 64  # read only by the benchmark tracer (benchmarks/spans.py) to label sizes


class SparseMatrix:
    """Immutable sparse rational matrix; entries keyed by (row, col)."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows, cols, entries):
        self.rows = rows
        self.cols = cols
        clean = {}
        for (i, j), value in entries.items():
            value = Fraction(value)
            if value == 0:
                continue
            if not (0 <= i < rows and 0 <= j < cols):
                raise ValueError("entry (%d, %d) out of range" % (i, j))
            clean[(i, j)] = value
        self.entries = clean

    @classmethod
    def zero(cls, rows, cols):
        return cls(rows, cols, {})

    @classmethod
    def identity(cls, n):
        return cls(n, n, {(i, i): Fraction(1) for i in range(n)})

    @classmethod
    def from_rows(cls, rows_list):
        rows = len(rows_list)
        cols = len(rows_list[0]) if rows else 0
        entries = {}
        for i, row in enumerate(rows_list):
            for j, value in enumerate(row):
                if value:
                    entries[(i, j)] = Fraction(value)
        return cls(rows, cols, entries)

    @classmethod
    def from_columns(cls, columns, rows):
        entries = {}
        for j, col in enumerate(columns):
            for i, value in enumerate(col):
                if value:
                    entries[(i, j)] = Fraction(value)
        return cls(rows, len(columns), entries)

    def columns(self):
        """The entries grouped by column: one dict row -> value per column."""
        cols = [{} for _ in range(self.cols)]
        for (i, j), value in self.entries.items():
            cols[j][i] = value
        return cols

    def mul_vec(self, vec):
        if len(vec) != self.cols:
            raise ValueError("vector length mismatch")
        out = [Fraction(0)] * self.rows
        for (i, j), value in self.entries.items():
            if vec[j]:
                out[i] += value * vec[j]
        return out

    def matmul(self, other):
        if self.cols != other.rows:
            raise ValueError("shape mismatch in matmul")
        by_row = {}
        for (i, k), value in self.entries.items():
            by_row.setdefault(i, []).append((k, value))
        by_col = {}
        for (k, j), value in other.entries.items():
            by_col.setdefault(k, []).append((j, value))
        entries = {}
        for i, row in by_row.items():
            for k, a in row:
                for j, b in by_col.get(k, ()):
                    key = (i, j)
                    entries[key] = entries.get(key, Fraction(0)) + a * b
        return SparseMatrix(self.rows, other.cols, entries)

    def is_zero(self):
        return not self.entries

    def hstack(self, other):
        if self.rows != other.rows:
            raise ValueError("row count mismatch in hstack")
        entries = dict(self.entries)
        for (i, j), value in other.entries.items():
            entries[(i, j + self.cols)] = value
        return SparseMatrix(self.rows, self.cols + other.cols, entries)


def dense_vector(sparse, length):
    """The list of length `length` with the entries of a dict index -> value."""
    vec = [Fraction(0)] * length
    for j, v in sparse.items():
        vec[j] = v
    return vec


def _axpy(target, scale, source):
    """target += scale * source on sparse dicts, dropping cancelled entries."""
    for j, v in source.items():
        nv = target.get(j, 0) + scale * v
        if nv:
            target[j] = nv
        else:
            target.pop(j, None)


class Echelon:
    """The reduced echelon basis of the span of the vectors added so far.

    `rows` maps each pivot to its row, a sparse dict index -> Fraction.
    A row's pivot is its largest index and its entry there is 1, and no
    other row has an entry at that pivot.  So the rows are the unique
    reduced basis of their span, whatever order vectors arrive in, and
    reduction leaves the unique remainder that vanishes at every pivot.

    With `track`, each row also keeps its combination of the independent
    vectors added so far, numbered 0, 1, ... in the order they were
    added; `reduce` then returns the coordinates of what it removed on
    those vectors.  Vectors may be dicts or dense lists.
    """

    def __init__(self, vectors=(), track=False):
        self.rows = {}
        self._combos = {} if track else None
        for vec in vectors:
            self.add(vec)

    def reduce(self, vec):
        """(remainder, coords) with vec = remainder + sum of coords[k] * vector k."""
        items = vec.items() if isinstance(vec, dict) else enumerate(vec)
        out = {j: v for j, v in items if v}
        coords = {}
        # a row has no entry at any other pivot, so the pivots hit are
        # exactly those present at the start, in any order
        for pivot in [j for j in out if j in self.rows]:
            coeff = out[pivot]
            _axpy(out, -coeff, self.rows[pivot])
            if self._combos is not None:
                _axpy(coords, coeff, self._combos[pivot])
        return out, coords

    def add(self, vec):
        """Insert vec; returns its reduction as `reduce` gives it.

        An empty remainder means vec lies in the span and nothing changed;
        otherwise vec becomes independent vector number len(rows) - 1.
        """
        red, coords = self.reduce(vec)
        if not red:
            return red, coords
        pivot = max(red)
        inv = Fraction(1) / red[pivot]
        row = {j: v * inv for j, v in red.items()}
        combo = None
        if self._combos is not None:
            combo = {k: -v * inv for k, v in coords.items()}
            combo[len(self.rows)] = inv
        for other_pivot, other in self.rows.items():
            coeff = other.get(pivot)
            if coeff:
                _axpy(other, -coeff, row)
                if combo is not None:
                    _axpy(self._combos[other_pivot], -coeff, combo)
        self.rows[pivot] = row
        if combo is not None:
            self._combos[pivot] = combo
        return red, coords


def _eliminate(columns, track):
    """Insert the columns in order: (echelon, independent columns, dependent).

    `dependent` lists (column, coords) for each column in the span of the
    earlier ones, its coords taken on the independent columns.
    """
    echelon = Echelon(track=track)
    independent = []
    dependent = []
    for j, col in enumerate(columns):
        red, coords = echelon.add(col)
        if red:
            independent.append(j)
        else:
            dependent.append((j, coords))
    return echelon, independent, dependent


def kernel_image(matrix):
    """Exact kernel basis, column-space basis, and rank of a matrix.

    One kernel vector per column in the span of the earlier columns: 1
    there, minus its coordinates on the earlier independent columns.
    The image basis is the independent columns themselves.
    """
    columns = matrix.columns()
    _, independent, dependent = _eliminate(columns, track=True)
    kernel = []
    for j, coords in dependent:
        vec = dense_vector({independent[k]: -c for k, c in coords.items()}, matrix.cols)
        vec[j] = Fraction(1)
        kernel.append(vec)
    image = [dense_vector(columns[j], matrix.rows) for j in independent]
    return kernel, image, len(independent)


def kernel_image_of_columns(matrix):
    """(column-space basis, independent column indices, rank) of a matrix."""
    columns = matrix.columns()
    _, independent, _ = _eliminate(columns, track=False)
    image = [dense_vector(columns[j], matrix.rows) for j in independent]
    return image, independent, len(independent)


def solve(matrix, rhs):
    """One exact solution of matrix * x = rhs, or None if inconsistent.

    The solution is zero off the independent columns.
    """
    echelon, independent, _ = _eliminate(matrix.columns(), track=True)
    rest, coords = echelon.reduce(rhs)
    if rest:
        return None
    return dense_vector({independent[k]: c for k, c in coords.items()}, matrix.cols)


class CohomologyPair:
    """H = ker(d_next) / im(d_prev) for a composable pair of maps.

    `representatives` are cocycles extending a basis of the image to a
    basis of the kernel; `class_of` returns (coordinates, witness) with
    cocycle = sum(coords * representatives) + d_prev * witness, exactly.
    """

    def __init__(self, d_prev, d_next):
        if d_prev.rows != d_next.cols:
            raise ValueError("d_prev codomain != d_next domain")
        composite = d_next.matmul(d_prev)
        if not composite.is_zero():
            raise CompositionNonzero("d_next . d_prev != 0")
        self.d_prev = d_prev
        self.d_next = d_next
        self.space_dim = d_prev.rows
        kernel, _, _ = kernel_image(d_next)
        self._boundaries, self._boundary_cols, _ = _eliminate(d_prev.columns(), track=True)
        # each representative is a kernel vector reduced against the
        # boundaries and the earlier representatives; adding the reduced
        # vector itself makes echelon input k representative k
        self._reps = Echelon(track=True)
        reps = []
        for vec in kernel:
            red, _ = self._reps.reduce(self._boundaries.reduce(vec)[0])
            if red:
                self._reps.add(red)
                reps.append(dense_vector(red, self.space_dim))
        self.representatives = reps
        self.dimension = len(reps)

    def is_cocycle(self, vec):
        return all(v == 0 for v in self.d_next.mul_vec(vec))

    def class_of(self, vec):
        """Coordinates of a cocycle in the representative basis, plus witness."""
        if len(vec) != self.space_dim:
            raise ValueError("vector length mismatch")
        if not self.is_cocycle(vec):
            raise NotACocycle("class_of on a vector with nonzero coboundary")
        work, boundary_coords = self._boundaries.reduce(vec)
        rest, coords = self._reps.reduce(work)
        if rest:
            raise NotACocycle("cocycle not spanned by representatives and boundaries")
        witness = {self._boundary_cols[k]: c for k, c in boundary_coords.items()}
        witness = dense_vector(witness, self.d_prev.cols)
        return [coords.get(i, Fraction(0)) for i in range(self.dimension)], witness


def cohomology_pair(d_prev, d_next):
    """Convenience wrapper returning the CohomologyPair object."""
    return CohomologyPair(d_prev, d_next)
