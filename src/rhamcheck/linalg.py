"""Exact sparse linear algebra over the rationals.

Everything downstream (de Rham truncations, simplicial cohomology, the
forms-family complexes) funnels through two operations: kernel/image
bases of a single map, and the cohomology of a composable pair.  All
values are exact Fractions; there is no floating-point path here.

A vector is a sparse dict index -> nonzero Fraction.  A matrix is a
`Matrix`: its row count and the list of its columns, each a vector
row -> entry.  Nothing here mutates an input vector or column, so a
matrix may share columns its producer keeps cached.

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


class Matrix:
    """A `rows`-high matrix as the list of its columns, vectors row -> entry."""

    __slots__ = ("rows", "columns")

    def __init__(self, rows, columns):
        self.rows = rows
        self.columns = columns

    @property
    def cols(self):
        return len(self.columns)


def _apply(matrix, vec):
    """matrix * vec, as a vector."""
    out = {}
    for j, v in vec.items():
        _axpy(out, v, matrix.columns[j])
    return out


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

    Vectors are sparse dicts index -> Fraction; a zero entry in an input
    is dropped.  `rows` maps each pivot to its row, a vector.  A row's
    pivot is its largest index and its entry there is 1, and no other
    row has an entry at that pivot.  So the rows are the unique reduced
    basis of their span, whatever order vectors arrive in, and reduction
    leaves the unique remainder that vanishes at every pivot.

    With `track`, each row also keeps its combination of the independent
    vectors added so far, numbered 0, 1, ... in the order they were
    added; `reduce` then returns the coordinates of what it removed on
    those vectors.  Inputs are copied, never changed.
    """

    def __init__(self, vectors=(), track=False):
        self.rows = {}
        self._combos = {} if track else None
        for vec in vectors:
            self.add(vec)

    def reduce(self, vec):
        """(remainder, coords) with vec = remainder + sum of coords[k] * vector k."""
        out = {j: v for j, v in vec.items() if v}
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
    _, independent, dependent = _eliminate(matrix.columns, track=True)
    kernel = []
    for j, coords in dependent:
        vec = {independent[k]: -c for k, c in coords.items()}
        vec[j] = Fraction(1)
        kernel.append(vec)
    return kernel, [matrix.columns[j] for j in independent], len(independent)


def kernel_image_of_columns(matrix):
    """(column-space basis, independent column indices, rank) of a matrix."""
    _, independent, _ = _eliminate(matrix.columns, track=False)
    return [matrix.columns[j] for j in independent], independent, len(independent)


def solve(matrix, rhs):
    """One exact solution of matrix * x = rhs, or None if inconsistent.

    The solution is zero off the independent columns.
    """
    echelon, independent, _ = _eliminate(matrix.columns, track=True)
    rest, coords = echelon.reduce(rhs)
    if rest:
        return None
    return {independent[k]: c for k, c in coords.items()}


class CohomologyPair:
    """H = ker(d_next) / im(d_prev) for a composable pair of maps.

    `representatives` are cocycles extending a basis of the image to a
    basis of the kernel; `class_of` returns the coordinates with
    cocycle - sum(coords * representatives) in the image of d_prev.
    """

    def __init__(self, d_prev, d_next):
        if d_prev.rows != d_next.cols:
            raise ValueError("d_prev codomain != d_next domain")
        if any(_apply(d_next, col) for col in d_prev.columns):
            raise CompositionNonzero("d_next . d_prev != 0")
        self.d_next = d_next
        self.space_dim = d_prev.rows
        kernel, _, _ = kernel_image(d_next)
        self._boundaries = Echelon(d_prev.columns)
        # each representative is a kernel vector reduced against the
        # boundaries and the earlier representatives; adding the reduced
        # vector itself makes echelon input k representative k
        self._reps = Echelon(track=True)
        reps = []
        for vec in kernel:
            red, _ = self._reps.reduce(self._boundaries.reduce(vec)[0])
            if red:
                self._reps.add(red)
                reps.append(red)
        self.representatives = reps
        self.dimension = len(reps)

    def is_cocycle(self, vec):
        return not _apply(self.d_next, vec)

    def class_of(self, vec):
        """Coordinates of a cocycle in the representative basis."""
        if not all(0 <= j < self.space_dim for j in vec):
            raise ValueError("vector index out of range")
        if not self.is_cocycle(vec):
            raise NotACocycle("class_of on a vector with nonzero coboundary")
        rest, coords = self._reps.reduce(self._boundaries.reduce(vec)[0])
        if rest:
            raise NotACocycle("cocycle not spanned by representatives and boundaries")
        return [coords.get(i, Fraction(0)) for i in range(self.dimension)]
