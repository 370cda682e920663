"""Exact sparse linear algebra over the rationals.

Everything downstream (de Rham truncations, simplicial cohomology, the
forms-family complexes) funnels through two operations: kernel/image
bases of a single map, and the cohomology of a composable pair.  All
results are exact Fractions; there is no floating-point path here.

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

`Echelon` eliminates without fractions.  Each input is scaled to an
integer vector once, on entry; its rows are primitive integer vectors
and their combinations share each row's integer scale.  The routines
below stay on those integer vectors, with their scales, from the
elimination to the kernel and the representatives: a Fraction is made
only for a public result, a kernel vector, a solution, a
representative, a class, or a row read through `Echelon.rows`; a caller
that wants the integer rows reads `Echelon.scaled_rows`.

`CohomologyPair` checks d_next . d_prev = 0 by a rank identity, not by
multiplying the maps out.  With the boundaries inserted first, every
kernel vector either lies in their span or adds a representative, so
rank(im d_prev) + #representatives >= dim ker d_next, with equality
exactly when the image lies in the kernel.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from math import gcd, lcm

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
    """target += scale * source on sparse dicts, dropping cancelled entries;
    on Fractions for `_apply`, on integers inside `Echelon`."""
    for j, v in source.items():
        nv = target.get(j, 0) + scale * v
        if nv:
            target[j] = nv
        else:
            target.pop(j, None)


def _integral(vec):
    """(integer vector, scale) with vec = integer vector / scale; zeros dropped."""
    scale = lcm(*[v.denominator for v in vec.values()])
    return {j: v.numerator * (scale // v.denominator) for j, v in vec.items() if v}, scale


def _fractions(vec, scale):
    """The integer vector vec / scale, in Fractions."""
    return {j: Fraction(v, scale) for j, v in vec.items()}


def _divide(vecs, pivot_entry):
    """Divide the integer vectors by their common content, signed so that
    pivot_entry, an entry of the first, becomes positive."""
    g = gcd(*[v for vec in vecs for v in vec.values()])
    if pivot_entry < 0:
        g = -g
    if g != 1:
        for vec in vecs:
            for j, v in vec.items():
                vec[j] = v // g


class Echelon:
    """The reduced echelon basis of the span of the vectors added so far.

    Vectors are sparse dicts index -> Fraction (or int); a zero entry in
    an input is dropped.  A row's pivot is its largest index, and no
    other row has an entry at that pivot.  `rows`, made on reading, is the
    dict pivot -> row with entry 1 at its pivot: the unique reduced basis of
    the span, whatever order vectors arrive in.  Reduction leaves the
    unique remainder that vanishes at every pivot.

    With `track`, each row also keeps its combination of the independent
    vectors added so far, numbered 0, 1, ... in the order they were
    added; `reduce` then returns the coordinates of what it removed on
    those vectors.  The `modulo` vectors are added first and get no
    number: the coordinates are then taken modulo their span, and
    `independent_modulo` lists the indices of those outside the span of
    the earlier ones.  Inputs are copied, never changed.

    Inside, the arithmetic is fraction-free, after Bareiss (Math. Comp.
    22, 1968).  Each row is an integer vector with a positive pivot
    entry, kept with its integer combination, the two divided by their
    common content: the row read through `rows` is that vector over its
    pivot entry, and its combination is over the same entry.  An input
    is scaled to integers once, an entry at a new pivot is cleared by
    a * row - b * new row, and a remainder and its coordinates become
    Fractions only when `reduce` or `add` returns them, and the rows only
    when `rows` is read.
    """

    def __init__(self, vectors=(), track=False, modulo=()):
        self._rows = {}
        self._combos = {}  # pivot -> combination; all empty without `track`
        self._track = False
        self._inputs = 0
        self.independent_modulo, _ = _eliminate(modulo, self)
        self._track = track
        _eliminate(vectors, self)

    @property
    def rows(self):
        return {pivot: _fractions(vec, scale) for pivot, (vec, scale) in self.scaled_rows.items()}

    @property
    def scaled_rows(self):
        """pivot -> (vector, scale), the row being vector / scale: here the
        primitive integer row over its pivot entry.  The vectors are the
        engine's own, to be read, not changed, and a later `add` may change them."""
        return {pivot: (row, row[pivot]) for pivot, row in self._rows.items()}

    def _reduce(self, vec):
        """(out, coords, scale): integer vectors with vec = (out + sum of
        coords[k] * vector k) / scale, out vanishing at every pivot."""
        out, scale = _integral(vec)
        # a row has no entry at any other pivot, so the pivots hit are
        # exactly those present at the start, in any order
        hit = [j for j in out if j in self._rows]
        coords = {}
        if not hit:
            return out, coords, scale
        # scale once so that every row's multiple is an integer
        common = lcm(*[self._rows[pivot][pivot] for pivot in hit])
        if common != 1:
            out = {j: v * common for j, v in out.items()}
            scale *= common
        for pivot in hit:
            row = self._rows[pivot]
            coeff = out[pivot] // row[pivot]
            _axpy(out, -coeff, row)
            _axpy(coords, coeff, self._combos[pivot])
        return out, coords, scale

    def _insert(self, out, coords, scale):
        """Make the reduced remainder `out` of the next input a row."""
        if not out:
            return
        pivot = max(out)
        combo = {}
        if self._track:
            # out = scale * input - sum of coords[k] * vector k
            combo = {k: -c for k, c in coords.items()}
            combo[self._inputs] = scale
            self._inputs += 1
        _divide((out, combo), out[pivot])
        lead = out[pivot]
        for other_pivot, other in self._rows.items():
            coeff = other.get(pivot)
            if coeff:
                g = gcd(lead, coeff)
                a, b = lead // g, coeff // g
                other_combo = self._combos[other_pivot]
                for vec, new in ((other, out), (other_combo, combo)):
                    for j in vec:
                        vec[j] *= a
                    _axpy(vec, -b, new)
                _divide((other, other_combo), other[other_pivot])
        self._rows[pivot] = out
        self._combos[pivot] = combo

    def reduce(self, vec):
        """(remainder, coords) with vec = remainder + sum of coords[k] * vector k."""
        out, coords, scale = self._reduce(vec)
        return _fractions(out, scale), _fractions(coords, scale)

    def add(self, vec):
        """Insert vec; returns its reduction as `reduce` gives it.

        An empty remainder means vec lies in the span and nothing changed;
        otherwise vec becomes the next numbered independent vector.
        """
        out, coords, scale = self._reduce(vec)
        red = _fractions(out, scale), _fractions(coords, scale)  # before _insert divides out
        self._insert(out, coords, scale)
        return red


def _eliminate(columns, echelon):
    """Insert the columns into `echelon` in order: (independent, dependent).

    `independent` lists the columns outside the span of the earlier ones.
    `dependent` lists (column, coords, scale) for the others, on integers:
    the column is the sum of coords[k] * independent column k over scale,
    with coords on the echelon's numbered vectors when it tracks them.
    """
    independent = []
    dependent = []
    for j, col in enumerate(columns):
        out, coords, scale = echelon._reduce(col)
        if out:
            independent.append(j)
            echelon._insert(out, coords, scale)
        else:
            dependent.append((j, coords, scale))
    return independent, dependent


def _kernel_vector(independent, j, coords, scale):
    """scale times the kernel vector of dependent column j: scale at j, minus
    its coords on the independent columns."""
    vec = {independent[k]: -c for k, c in coords.items()}
    vec[j] = scale
    return vec


def kernel_image(matrix):
    """Exact kernel basis, column-space basis, and rank of a matrix.

    One kernel vector per column in the span of the earlier columns: 1
    there, minus its coordinates on the earlier independent columns.
    The image basis is the independent columns themselves.
    """
    independent, dependent = _eliminate(matrix.columns, Echelon(track=True))
    kernel = [_fractions(_kernel_vector(independent, j, coords, scale), scale)
              for j, coords, scale in dependent]
    return kernel, [matrix.columns[j] for j in independent], len(independent)


def kernel_image_of_columns(matrix):
    """(column-space basis, independent column indices, rank) of a matrix."""
    independent, _ = _eliminate(matrix.columns, Echelon())
    return [matrix.columns[j] for j in independent], independent, len(independent)


def solve(matrix, rhs):
    """One exact solution of matrix * x = rhs, or None if inconsistent.

    The solution is zero off the independent columns.
    """
    echelon = Echelon(track=True)
    independent, _ = _eliminate(matrix.columns, echelon)
    rest, coords = echelon.reduce(rhs)
    if rest:
        return None
    return {independent[k]: c for k, c in coords.items()}


class CohomologyPair:
    """H = ker(d_next) / im(d_prev) for a composable pair of maps.

    `representatives` are cocycles extending a basis of the image to a
    basis of the kernel; `class_of` returns the coordinates with
    cocycle - sum(coords * representatives) in the image of d_prev.

    The columns of both maps are eliminated in order, so the pair of
    their first columns is read from the same elimination:
    `prefix_dimension` counts the kernel columns of d_next and the
    independent columns of d_prev among them, and `stabilized` says
    whether that pair's H maps isomorphically onto this one.
    """

    def __init__(self, d_prev, d_next):
        if d_prev.rows != d_next.cols:
            raise ValueError("d_prev codomain != d_next domain")
        self.d_next = d_next
        self.space_dim = d_prev.rows
        cocycle_columns, kernel = _eliminate(d_next.columns, Echelon(track=True))
        self._kernel_columns = [j for j, _, _ in kernel]
        # one echelon holds the boundaries, unnumbered, and the
        # representatives: each is a kernel vector reduced against the
        # boundaries and the earlier representatives, and inserting the
        # reduced vector itself makes echelon input k representative k
        self._reps = Echelon(track=True, modulo=d_prev.columns)
        self._boundary_columns = self._reps.independent_modulo
        reps = []
        for j, coords, scale in kernel:
            out, _, reduced_scale = self._reps._reduce(
                _kernel_vector(cocycle_columns, j, coords, scale))
            if out:
                scale *= reduced_scale
                reps.append(_fractions(out, scale))  # before _insert divides out
                self._reps._insert(out, {}, scale)
        # the span of boundaries and cocycles is the kernel exactly when
        # every boundary is a cocycle, that is when d_next . d_prev = 0
        if len(self._boundary_columns) + len(reps) != len(kernel):
            raise CompositionNonzero("d_next . d_prev != 0")
        self.representatives = reps
        self.dimension = len(reps)

    def prefix_dimension(self, prev_cols, cols):
        """dim H of the pair made of the first prev_cols columns of d_prev and
        the first cols columns of d_next, when those make a pair.

        A prefix of columns has the kernel vectors of its dependent columns
        and the rank of its independent ones.
        """
        return (bisect_left(self._kernel_columns, cols)
                - bisect_left(self._boundary_columns, prev_cols))

    def stabilized(self, prev_cols, cols):
        """Whether H of the prefix pair of `prefix_dimension` maps isomorphically
        onto H: the dimensions agree and every representative lies in the first
        `cols` coordinates, so the map, induced by the inclusion, is onto."""
        return (self.prefix_dimension(prev_cols, cols) == self.dimension
                and all(max(v) < cols for v in self.representatives))

    def is_cocycle(self, vec):
        return not _apply(self.d_next, vec)

    def class_of(self, vec):
        """Coordinates of a cocycle in the representative basis."""
        if not all(0 <= j < self.space_dim for j in vec):
            raise ValueError("vector index out of range")
        if not self.is_cocycle(vec):
            raise NotACocycle("class_of on a vector with nonzero coboundary")
        rest, coords = self._reps.reduce(vec)
        if rest:
            raise NotACocycle("cocycle not spanned by representatives and boundaries")
        return [coords.get(i, Fraction(0)) for i in range(self.dimension)]
