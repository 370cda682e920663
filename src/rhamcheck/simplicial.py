"""Finite simplicial sets, cochains with the Alexander-Whitney product,
chains with the boundary operator, and simplicial cohomology.

Simplicial sets are stored by their nondegenerate skeleton with face
incidence tables; the standard simplex and its boundary use strictly
increasing vertex tuples as simplex ids, with face i dropping the i-th
vertex.  Cochains take values in exact Fractions (or floats on the
numeric lane); cohomology is computed on these nondegenerate-supported
(normalized) cochains via the exact linear algebra kernel.

Front/back convention, fixed project-wide: the front p-face keeps
vertices 0..p, the back q-face keeps vertices p..p+q.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import combinations, combinations_with_replacement

from .errors import ComplexMismatch, DegreeMismatch
from .linalg import CohomologyPair, Matrix


class DeltaMorphism:
    """A weakly increasing map [m] -> [n] in the simplex category."""

    __slots__ = ("source", "target", "values")

    def __init__(self, source, target, values):
        values = tuple(values)
        if len(values) != source + 1:
            raise ValueError("value list must have source+1 entries")
        if any(not 0 <= v <= target for v in values):
            raise ValueError("values out of range")
        if any(values[i] > values[i + 1] for i in range(len(values) - 1)):
            raise ValueError("values must be weakly increasing")
        self.source = source
        self.target = target
        self.values = values

    @classmethod
    def face(cls, n, i):
        """The injection [n-1] -> [n] skipping i."""
        return cls(n - 1, n, tuple(v for v in range(n + 1) if v != i))

    def __eq__(self, other):
        return (
            isinstance(other, DeltaMorphism)
            and (self.source, self.target, self.values)
            == (other.source, other.target, other.values)
        )

    def __repr__(self):
        return "[%d]->[%d]%r" % (self.source, self.target, list(self.values))


class FiniteSimplicialSet:
    """Nondegenerate simplices per dimension plus face incidence tables."""

    def __init__(self, name, simplices, faces):
        self.name = name
        self.simplices = {d: tuple(ids) for d, ids in sorted(simplices.items()) if ids}
        self.faces = dict(faces)
        self.dim_of = {}
        for d, ids in self.simplices.items():
            for s in ids:
                self.dim_of[s] = d
        self._validate()

    @property
    def dimension(self):
        return max(self.simplices) if self.simplices else -1

    def _validate(self):
        for d, ids in self.simplices.items():
            if d == 0:
                continue
            for s in ids:
                for i in range(d + 1):
                    if (s, i) not in self.faces:
                        raise ValueError("missing face (%r, %d)" % (s, i))
                    if self.dim_of.get(self.faces[(s, i)]) != d - 1:
                        raise ValueError("face of %r has wrong dimension" % (s,))
                # simplicial identity d_i d_j = d_{j-1} d_i for i < j, d >= 2
                if d >= 2:
                    for i in range(d + 1):
                        for j in range(i + 1, d + 1):
                            left = self.face(self.face(s, j), i)
                            right = self.face(self.face(s, i), j - 1)
                            if left != right:
                                raise ValueError(
                                    "simplicial identity fails on %r (%d, %d)" % (s, i, j)
                                )

    def face(self, simplex, i):
        return self.faces[(simplex, i)]

    def front_face(self, simplex, p):
        """The face keeping vertices 0..p (drop the top vertex repeatedly)."""
        d = self.dim_of[simplex]
        while d > p:
            simplex = self.face(simplex, d)
            d -= 1
        return simplex

    def back_face(self, simplex, q):
        """The face keeping the last q+1 vertices (drop vertex 0 repeatedly)."""
        d = self.dim_of[simplex]
        while d > q:
            simplex = self.face(simplex, 0)
            d -= 1
        return simplex

    def n_simplices(self, d):
        return self.simplices.get(d, ())

    def __repr__(self):
        counts = ", ".join("%d:%d" % (d, len(v)) for d, v in self.simplices.items())
        return "FiniteSimplicialSet(%s; %s)" % (self.name, counts)


def _tuple_complex(name, tuples):
    simplices = {}
    faces = {}
    for t in tuples:
        simplices.setdefault(len(t) - 1, []).append(t)
    for d, ids in simplices.items():
        ids.sort()
        if d == 0:
            continue
        for s in ids:
            for i in range(d + 1):
                faces[(s, i)] = s[:i] + s[i + 1 :]
    return FiniteSimplicialSet(name, simplices, faces)


@lru_cache(maxsize=None)
def standard_simplex(n):
    """Delta[n]: nondegenerate k-simplices are the (k+1)-subsets of 0..n.

    Memoized so repeated calls share one object; cochain arithmetic
    checks complexes by identity.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    tuples = []
    for k in range(n + 1):
        tuples.extend(combinations(range(n + 1), k + 1))
    return _tuple_complex("delta%d" % n, tuples)


@lru_cache(maxsize=None)
def boundary_complex(n):
    """The boundary of Delta[n]: everything except the top cell."""
    if n < 1:
        raise ValueError("boundary needs n >= 1")
    tuples = []
    for k in range(n):
        tuples.extend(combinations(range(n + 1), k + 1))
    return _tuple_complex("boundary%d" % n, tuples)


class Cochain:
    """A degree-p cochain: a value on every p-simplex of its complex."""

    __slots__ = ("complex", "degree", "values")

    def __init__(self, complex_, degree, values=None):
        self.complex = complex_
        self.degree = degree
        sims = complex_.n_simplices(degree)
        given = dict(values or {})
        unknown = set(given) - set(sims)
        if unknown:
            raise ValueError("values on unknown simplices: %r" % sorted(unknown))
        self.values = {s: given.get(s, Fraction(0)) for s in sims}

    def _check(self, other):
        if self.complex is not other.complex:
            raise ComplexMismatch("cochains on different complexes")

    def __add__(self, other):
        self._check(other)
        if self.degree != other.degree:
            raise DegreeMismatch("cochain degrees differ")
        return Cochain(
            self.complex,
            self.degree,
            {s: v + other.values[s] for s, v in self.values.items()},
        )

    def scale(self, scalar):
        return Cochain(
            self.complex, self.degree, {s: v * scalar for s, v in self.values.items()}
        )

    def __eq__(self, other):
        return (
            isinstance(other, Cochain)
            and self.complex is other.complex
            and self.degree == other.degree
            and self.values == other.values
        )

    def __repr__(self):
        body = ", ".join("%r: %s" % (s, v) for s, v in sorted(self.values.items()))
        return "Cochain(%d; %s)" % (self.degree, body)


def unit_cochain(complex_):
    """The coaugmentation: the constant 1 in degree zero."""
    return Cochain(complex_, 0, {s: Fraction(1) for s in complex_.n_simplices(0)})


def coboundary(cochain):
    """(delta c)(s) = sum_i (-1)^i c(face_i s)."""
    complex_ = cochain.complex
    degree = cochain.degree + 1
    values = {}
    for s in complex_.n_simplices(degree):
        total = 0
        for i in range(degree + 1):
            term = cochain.values[complex_.face(s, i)]
            total = total + (term if i % 2 == 0 else -term)
        values[s] = total
    return Cochain(complex_, degree, values)


def aw_cup(a, b):
    """Alexander-Whitney product: (a u b)(s) = a(front) * b(back)."""
    a._check(b)
    complex_ = a.complex
    degree = a.degree + b.degree
    values = {}
    for s in complex_.n_simplices(degree):
        front = complex_.front_face(s, a.degree)
        back = complex_.back_face(s, b.degree)
        values[s] = a.values[front] * b.values[back]
    return Cochain(complex_, degree, values)


class Chain:
    """A formal integer combination of simplices of one dimension."""

    __slots__ = ("complex", "degree", "coeffs")

    def __init__(self, complex_, degree, coeffs):
        self.complex = complex_
        self.degree = degree
        clean = {}
        for s, c in coeffs.items():
            if s not in complex_.n_simplices(degree):
                raise ValueError("chain on unknown simplex %r" % (s,))
            if c:
                clean[s] = c
        self.coeffs = clean

    def is_zero(self):
        return not self.coeffs

    def __repr__(self):
        body = " + ".join("%d*%r" % (c, s) for s, c in sorted(self.coeffs.items()))
        return "Chain(%s)" % (body or "0")


def boundary(chain):
    """Boundary operator: d(s) = sum_i (-1)^i face_i(s)."""
    complex_ = chain.complex
    if chain.degree == 0:
        return Chain(complex_, -1, {})
    coeffs = {}
    for s, c in chain.coeffs.items():
        for i in range(chain.degree + 1):
            f = complex_.face(s, i)
            coeffs[f] = coeffs.get(f, 0) + c * ((-1) ** i)
    return Chain(complex_, chain.degree - 1, coeffs)


def is_cycle(chain):
    return boundary(chain).is_zero()


def pair(cochain, chain):
    """Evaluation pairing; bilinear, with pair(delta c, z) = pair(c, dz)."""
    if cochain.complex is not chain.complex:
        raise ComplexMismatch("pairing across complexes")
    if cochain.degree != chain.degree:
        raise DegreeMismatch(
            "pairing degree %d cochain against degree %d chain"
            % (cochain.degree, chain.degree)
        )
    total = 0
    for s in sorted(chain.coeffs):
        total = total + chain.coeffs[s] * cochain.values[s]
    return total


def fundamental_boundary_cycle(n):
    """The (n-1)-cycle sum_i (-1)^i facet_i on the boundary of Delta[n]."""
    complex_ = boundary_complex(n)
    top = tuple(range(n + 1))
    coeffs = {}
    for i in range(n + 1):
        coeffs[top[:i] + top[i + 1 :]] = (-1) ** i
    return Chain(complex_, n - 1, coeffs)


class SimplicialCohomology:
    """H^p of the normalized cochain complex, with class membership."""

    def __init__(self, complex_, p):
        if p > complex_.dimension:
            raise ValueError("degree above the dimension bound")
        self.complex = complex_
        self.p = p
        sims = complex_.n_simplices(p)
        self._index = {s: i for i, s in enumerate(sims)}
        d_prev = _coboundary_matrix(complex_, p - 1) if p >= 1 else Matrix(len(sims), [])
        self._pair = CohomologyPair(d_prev, _coboundary_matrix(complex_, p))
        self.dimension = self._pair.dimension
        self.representatives = [
            Cochain(complex_, p, {sims[i]: v for i, v in rep.items()})
            for rep in self._pair.representatives
        ]

    def class_of(self, cochain):
        return self._pair.class_of(
            {self._index[s]: v for s, v in cochain.values.items() if v})


def _alternating_faces(target, source, faces):
    """Matrix of sum_k (-1)^k face k, from functions on `source` to functions on
    `target`; `faces(s)` lists the faces of s in order.  Cancelled entries are dropped."""
    index = {s: j for j, s in enumerate(source)}
    columns = [{} for _ in source]
    for i, s in enumerate(target):
        for k, f in enumerate(faces(s)):
            column = columns[index[f]]
            column[i] = column.get(i, 0) + (-1) ** k
    return Matrix(len(target), [{i: Fraction(v) for i, v in column.items() if v}
                                for column in columns])


def _coboundary_matrix(complex_, p):
    """Matrix of delta: C^p -> C^{p+1} on nondegenerate simplices."""
    return _alternating_faces(complex_.n_simplices(p + 1), complex_.n_simplices(p),
                              lambda s: [complex_.face(s, k) for k in range(p + 2)])


def simplicial_cohomology(complex_, p):
    return SimplicialCohomology(complex_, p)


# ---------------------------------------------------------------------------
# the unnormalized comparison


def weak_simplices(complex_, k):
    """All k-simplices including degenerate ones, for vertex-tuple complexes.

    A (possibly degenerate) k-simplex is a weakly increasing vertex tuple
    whose support is a simplex of the complex.
    """
    vertices = [t[0] for t in complex_.n_simplices(0)]
    stored = set()
    for ids in complex_.simplices.values():
        stored.update(ids)
    out = []
    for t in combinations_with_replacement(sorted(vertices), k + 1):
        support = tuple(sorted(set(t)))
        if support in stored:
            out.append(t)
    return out


def unnormalized_cohomology_dimension(complex_, p):
    """H^p computed on all (weak) simplices, degenerate ones included."""
    def faces(s):
        return [s[:k] + s[k + 1 :] for k in range(len(s))]

    source = weak_simplices(complex_, p)
    if p >= 1:
        d_prev = _alternating_faces(source, weak_simplices(complex_, p - 1), faces)
    else:
        d_prev = Matrix(len(source), [])
    d_next = _alternating_faces(weak_simplices(complex_, p + 1), source, faces)
    return CohomologyPair(d_prev, d_next).dimension
