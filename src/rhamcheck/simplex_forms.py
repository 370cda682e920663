"""Polynomial and rational differential forms on standard simplices.

The standard n-simplex carries affine coordinates t1..tn with the
barycentric coordinate of vertex 0 eliminated (t0 = 1 - sum t_i), so
vertex 0 sits at the origin and vertex k at the k-th unit vector.
Forms are dictionaries from index sets to coefficients; coefficients
are rational functions whose denominators need a positivity certificate
before quadrature (polynomials are the exact lane).

This module supplies the dg-algebra operations, cosimplicial pullback,
exact and Gauss-Legendre/Duffy integration, the cone contraction to
vertex 0, the integration map onto simplicial cochains, families of
forms over a simplicial set, and extension of a compatible boundary
family into the interior.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import factorial, fsum

import numpy as np

from .errors import (
    DimensionMismatch,
    IncompatibleFamily,
    NonPolynomialCoefficient,
    NotTopDegree,
)
from .formtext import eval_form_ast, insert_index, merge_sign
from .linalg import Echelon, SparseMatrix, cohomology_pair, kernel_image, solve
from .poly import Polynomial, parse_ast
from .ratfunc import RationalFunc
from .simplicial import Cochain, DeltaMorphism, standard_simplex

DEFAULT_QUAD_ORDER = 16
QUAD_CROSS_CHECK_STEP = 4


def simplex_variables(n):
    return tuple("t%d" % (i + 1) for i in range(n))


class PolyForm:
    """A differential form on the standard n-simplex."""

    __slots__ = ("n", "degree", "terms")

    def __init__(self, n, degree, terms):
        self.n = n
        self.degree = degree
        variables = simplex_variables(n)
        clean = {}
        for S, coeff in terms.items():
            S = tuple(S)
            if len(S) != degree or list(S) != sorted(set(S)):
                raise ValueError("bad index set %r for degree %d" % (S, degree))
            if any(not 0 <= i < n for i in S):
                raise ValueError("index set out of range for dimension %d" % n)
            if isinstance(coeff, Polynomial):
                coeff = RationalFunc(coeff)
            elif not isinstance(coeff, RationalFunc):
                coeff = RationalFunc.constant(variables, coeff)
            if coeff.variables != variables:
                raise ValueError("coefficient over wrong variables")
            if not coeff.is_zero():
                clean[S] = coeff
        self.terms = clean

    @classmethod
    def zero(cls, n, degree=0):
        return cls(n, degree, {})

    @classmethod
    def constant(cls, n, value):
        return cls(n, 0, {(): RationalFunc.constant(simplex_variables(n), value)})

    def is_zero(self):
        return not self.terms

    def is_polynomial(self):
        return all(c.is_polynomial() for c in self.terms.values())

    def polynomial_terms(self):
        """terms with Polynomial coefficients; raises on the rational lane."""
        out = {}
        for S, c in self.terms.items():
            p = c.as_polynomial()
            if p is None:
                raise NonPolynomialCoefficient("coefficient %s is not polynomial" % c)
            out[S] = p
        return out

    def coefficient_degree(self):
        degs = [c.num.total_degree() for c in self.terms.values()]
        return max(degs) if degs else -1

    def _check(self, other):
        if self.n != other.n:
            raise DimensionMismatch("forms on simplices of different dimension")

    def __add__(self, other):
        self._check(other)
        if self.degree != other.degree and self.terms and other.terms:
            raise ValueError("cannot add forms of different degree")
        terms = dict(self.terms)
        for S, c in other.terms.items():
            terms[S] = terms[S] + c if S in terms else c
        degree = self.degree if self.terms or not other.terms else other.degree
        return PolyForm(self.n, degree, terms)

    def __sub__(self, other):
        return self + other.scale(-1)

    def __neg__(self):
        return self.scale(-1)

    def scale(self, scalar):
        return PolyForm(
            self.n, self.degree, {S: c.scale(scalar) for S, c in self.terms.items()}
        )

    def __eq__(self, other):
        if not isinstance(other, PolyForm):
            return NotImplemented
        if self.n != other.n:
            return False
        if set(self.terms) != set(other.terms):
            return False
        return all(self.terms[S] == other.terms[S] for S in self.terms)

    def vertex_value(self, vertex=0):
        """Value of a degree-0 form at a vertex (exact lane)."""
        if self.degree != 0:
            raise ValueError("vertex_value needs a degree-0 form")
        if not self.terms:
            return Fraction(0)
        point = [Fraction(0)] * self.n
        if vertex > 0:
            point[vertex - 1] = Fraction(1)
        return self.terms[()].eval_fraction(point)

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for S in sorted(self.terms):
            c = self.terms[S]
            dt = "^".join("dt%d" % (i + 1) for i in S)
            text = str(c)
            needs_parens = ("+" in text[1:]) or ("-" in text[1:]) or "/" in text
            if not S:
                parts.append(text)
            elif text == "1":
                parts.append(dt)
            elif text == "-1":
                parts.append("-" + dt)
            else:
                parts.append(("(%s)*%s" if needs_parens else "%s*%s") % (text, dt))
        return " + ".join(parts).replace("+ -", "- ")

    __repr__ = __str__


def parse_poly_form(text, n):
    """Parse form text in t1..tn, e.g. '2/(1 + t1^2) * dt1'."""
    degree, terms = eval_form_ast(parse_ast(text), simplex_variables(n), rational=True)
    return PolyForm(n, degree, terms)


def wedge(alpha, beta):
    """Graded-commutative wedge product."""
    alpha._check(beta)
    terms = {}
    for S1, c1 in alpha.terms.items():
        for S2, c2 in beta.terms.items():
            if set(S1) & set(S2):
                continue
            sign = merge_sign(S1, S2)
            S = tuple(sorted(S1 + S2))
            value = (c1 * c2).scale(sign)
            terms[S] = terms[S] + value if S in terms else value
    return PolyForm(alpha.n, alpha.degree + beta.degree, terms)


def differential(alpha):
    """Exterior differential; quotient rule on rational coefficients."""
    terms = {}
    for S, c in alpha.terms.items():
        for i in range(alpha.n):
            dc = c.partial(i)
            if dc.is_zero():
                continue
            sign, T = insert_index(i, S)
            if sign == 0:
                continue
            value = dc.scale(sign)
            terms[T] = terms[T] + value if T in terms else value
    return PolyForm(alpha.n, alpha.degree + 1, terms)


# ---------------------------------------------------------------------------
# cosimplicial structure


def _affine_substitution(vertex_map, m, n):
    """Polynomials s_1..s_n over t1..tm for the affine map of a vertex map.

    vertex_map sends vertex i of the m-simplex to vertex vertex_map[i] of
    the n-simplex; barycentric u_j pulls back to the sum of the u_i over
    the preimage, which this rewrites in affine coordinates.
    """
    variables = simplex_variables(m)
    one = Polynomial.constant(variables, 1)
    t0 = one
    for i in range(m):
        t0 = t0 - Polynomial.variable(variables, i)
    subs = []
    for j in range(1, n + 1):
        s = Polynomial.zero(variables)
        for i, v in enumerate(vertex_map):
            if v != j:
                continue
            s = s + (t0 if i == 0 else Polynomial.variable(variables, i - 1))
        subs.append(s)
    return subs


def _linear_part(subs, m):
    """Constant Jacobian entries c[j][i] = d(s_j)/d(t_i) of an affine map."""
    out = []
    for s in subs:
        row = []
        for i in range(m):
            p = s.partial(i)
            row.append(p.constant_value() if not p.is_zero() else Fraction(0))
        out.append(row)
    return out


def _det(matrix):
    size = len(matrix)
    if size == 0:
        return Fraction(1)
    if size == 1:
        return matrix[0][0]
    total = Fraction(0)
    for j in range(size):
        if matrix[0][j] == 0:
            continue
        minor = [row[:j] + row[j + 1 :] for row in matrix[1:]]
        total += (-1) ** j * matrix[0][j] * _det(minor)
    return total


def pullback_affine(vertex_map, alpha, m):
    """Pull back along the affine map of an arbitrary vertex map."""
    n = alpha.n
    if len(vertex_map) != m + 1 or any(not 0 <= v <= n for v in vertex_map):
        raise ValueError("bad vertex map")
    if n == 0:
        # constants on the point pull back to constants
        variables = simplex_variables(m)
        terms = {
            S: RationalFunc.constant(variables, c.eval_fraction(()))
            for S, c in alpha.terms.items()
        }
        return PolyForm(m, alpha.degree, terms)
    subs = _affine_substitution(vertex_map, m, n)
    jac = _linear_part(subs, m)
    terms = {}
    for S, c in alpha.terms.items():
        c_sub = c.substitute(subs)
        if c_sub.is_zero():
            continue
        for T in combinations(range(m), alpha.degree):
            minor = [[jac[j][i] for i in T] for j in S]
            det = _det(minor)
            if det == 0:
                continue
            value = c_sub.scale(det)
            terms[T] = terms[T] + value if T in terms else value
    return PolyForm(m, alpha.degree, terms)


def pullback_delta(h, alpha):
    """Pull back along the affine map induced by a Delta morphism."""
    if h.target != alpha.n:
        raise DimensionMismatch("morphism target != form dimension")
    return pullback_affine(h.values, alpha, h.source)


# ---------------------------------------------------------------------------
# integration


def integrate_exact(alpha):
    """Exact integral of a top-degree polynomial form.

    Uses the closed form  int_simplex t^e dt = (prod e_i!) / (n + |e|)!
    with the orientation dt1^...^dtn positive.
    """
    n = alpha.n
    if alpha.degree != n:
        raise NotTopDegree("degree %d form on a %d-simplex" % (alpha.degree, n))
    if n == 0:
        coeff = alpha.terms.get((), None)
        if coeff is None:
            return Fraction(0)
        return coeff.eval_fraction(())
    coeff = alpha.terms.get(tuple(range(n)))
    if coeff is None:
        return Fraction(0)
    poly = coeff.as_polynomial()
    if poly is None:
        raise NonPolynomialCoefficient("exact integration needs polynomial input")
    total = Fraction(0)
    for e, c in poly.terms.items():
        num = 1
        for k in e:
            num *= factorial(k)
        total += c * Fraction(num, factorial(n + sum(e)))
    return total


_gauss_cache = {}


def _gauss_nodes(order):
    if order not in _gauss_cache:
        raw_x, raw_w = np.polynomial.legendre.leggauss(order)
        nodes = [(float(x) + 1.0) / 2.0 for x in raw_x]
        weights = [float(w) / 2.0 for w in raw_w]
        _gauss_cache[order] = (nodes, weights)
    return _gauss_cache[order]


def _duffy_points(n, order):
    """Duffy-transformed tensor Gauss-Legendre nodes and weights."""
    nodes, weights = _gauss_nodes(order)
    points = []

    def rec(prefix_x, prefix_w):
        depth = len(prefix_x)
        if depth == n:
            t = []
            scale = 1.0
            jac = 1.0
            for i, x in enumerate(prefix_x):
                t.append(x * scale)
                jac *= scale
                scale *= 1.0 - x
            points.append((tuple(t), prefix_w * jac))
            return
        for x, w in zip(nodes, weights):
            rec(prefix_x + (x,), prefix_w * w)

    rec((), 1.0)
    return points


def _quad_value(alpha, order):
    n = alpha.n
    coeff = alpha.terms.get(tuple(range(n)))
    if coeff is None:
        return 0.0
    pieces = []
    for point, weight in _duffy_points(n, order):
        pieces.append(weight * coeff.eval_float(point))
    return fsum(pieces)


def integrate_numeric(alpha, order=DEFAULT_QUAD_ORDER):
    """(value, error estimate) for a top-degree form by quadrature.

    Tensor-product Gauss-Legendre of the given order mapped through the
    Duffy transform; the estimate is the difference against the rule
    four orders higher.  Denominators must carry a positivity
    certificate, otherwise DenominatorVanishes propagates.
    """
    n = alpha.n
    if alpha.degree != n:
        raise NotTopDegree("degree %d form on a %d-simplex" % (alpha.degree, n))
    for c in alpha.terms.values():
        c.certify_denominator()
    if n == 0:
        coeff = alpha.terms.get(())
        value = 0.0 if coeff is None else coeff.eval_float(())
        return value, 0.0
    value = _quad_value(alpha, order)
    check = _quad_value(alpha, order + QUAD_CROSS_CHECK_STEP)
    return value, abs(value - check)


def integrate(alpha, order=DEFAULT_QUAD_ORDER):
    """Exact value on the polynomial lane, (float, estimate) otherwise."""
    if alpha.is_polynomial():
        return integrate_exact(alpha), Fraction(0)
    return integrate_numeric(alpha, order)


# ---------------------------------------------------------------------------
# cone contraction to vertex 0


def cone_homotopy(alpha):
    """The contraction kappa with d kappa + kappa d = id - (vertex-0 value).

    For a monomial term t^e dt_{i_1..i_p} the cone over vertex 0 gives
    kappa = sum_a (-1)^(a-1) t_{i_a} t^e / (p + |e|) dt_{S minus i_a}.
    Polynomial coefficients only.
    """
    if alpha.degree == 0:
        return PolyForm.zero(alpha.n, 0)
    p = alpha.degree
    variables = simplex_variables(alpha.n)
    terms = {}
    for S, c in alpha.polynomial_terms().items():
        for e, value in c.terms.items():
            scaled = Fraction(value, p + sum(e))
            for a, i in enumerate(S):
                T = S[:a] + S[a + 1 :]
                bumped = list(e)
                bumped[i] += 1
                mono = Polynomial(variables, {tuple(bumped): scaled * ((-1) ** a)})
                contrib = RationalFunc(mono)
                terms[T] = terms[T] + contrib if T in terms else contrib
    return PolyForm(alpha.n, p - 1, {S: c for S, c in terms.items() if not c.is_zero()})


def homotopy_defect(alpha):
    """d(kappa alpha) + kappa(d alpha) - alpha + epsilon(alpha(vertex 0)).

    Identically zero for polynomial forms; exposed so tests and scenario
    checks can assert the Poincare contraction exactly.
    """
    result = differential(cone_homotopy(alpha)) + cone_homotopy(differential(alpha))
    result = result - alpha
    if alpha.degree == 0:
        result = result + PolyForm.constant(alpha.n, alpha.vertex_value(0))
    return result


# ---------------------------------------------------------------------------
# restriction to simplicial cochains


def to_cochain(alpha, order=DEFAULT_QUAD_ORDER, complex_=None):
    """Integrate a degree-p form over the p-simplices of Delta[n].

    The value on a p-simplex (an increasing vertex tuple) is the
    integral of the pullback along the affine simplex it spans; the
    exact lane is used when every pulled-back coefficient is polynomial.
    """
    K = complex_ if complex_ is not None else standard_simplex(alpha.n)
    values = {}
    for simplex in K.n_simplices(alpha.degree):
        h = DeltaMorphism(alpha.degree, alpha.n, simplex)
        pulled = pullback_delta(h, alpha)
        if pulled.is_polynomial():
            values[simplex] = integrate_exact(pulled)
        else:
            values[simplex], _ = integrate_numeric(pulled, order)
    return Cochain(K, alpha.degree, values)


# ---------------------------------------------------------------------------
# families of forms over a simplicial set


class FormsFamily:
    """A simplicial assignment of degree-q forms, one per simplex of K."""

    def __init__(self, complex_, degree, assignment, check=True):
        self.complex = complex_
        self.degree = degree
        full = {}
        for d, ids in complex_.simplices.items():
            for s in ids:
                if s in assignment:
                    form = assignment[s]
                    if form.n != d:
                        raise ValueError("form on %r has wrong dimension" % (s,))
                    if form.degree != degree and not form.is_zero():
                        raise ValueError("form on %r has wrong degree" % (s,))
                    full[s] = form
                elif d < degree:
                    full[s] = PolyForm.zero(d, degree)
                else:
                    raise ValueError("no form assigned to simplex %r" % (s,))
        self.assignment = full
        if check:
            self._check_compatibility()

    def _check_compatibility(self):
        for d, ids in self.complex.simplices.items():
            if d == 0:
                continue
            for s in ids:
                form = self.assignment[s]
                for i in range(d + 1):
                    face = self.complex.face(s, i)
                    pulled = pullback_delta(DeltaMorphism.face(d, i), form)
                    if pulled != self.assignment[face]:
                        raise IncompatibleFamily(
                            "family not compatible at face %d of %r" % (i, s)
                        )

    def __getitem__(self, simplex):
        return self.assignment[simplex]

    def wedge(self, other):
        assignment = {
            s: wedge(f, other.assignment[s]) for s, f in self.assignment.items()
        }
        return FormsFamily(
            self.complex, self.degree + other.degree, assignment, check=False
        )

    def differential(self):
        assignment = {s: differential(f) for s, f in self.assignment.items()}
        return FormsFamily(self.complex, self.degree + 1, assignment, check=False)

    def to_cochain(self, order=DEFAULT_QUAD_ORDER):
        values = {}
        for s in self.complex.n_simplices(self.degree):
            form = self.assignment[s]
            if form.is_polynomial():
                values[s] = integrate_exact(form)
            else:
                values[s], _ = integrate_numeric(form, order)
        return Cochain(self.complex, self.degree, values)

    @classmethod
    def from_top_form(cls, complex_, alpha):
        """The family of all pullbacks of a form on the top simplex of Delta[n].

        Only valid for the full standard simplex, where every simplex is a
        face of the top one.
        """
        top_dim = complex_.dimension
        (top,) = complex_.n_simplices(top_dim)
        assignment = {}
        for d, ids in complex_.simplices.items():
            for s in ids:
                h = DeltaMorphism(d, top_dim, s)
                assignment[s] = pullback_delta(h, alpha)
        return cls(complex_, alpha.degree, assignment, check=False)

    @classmethod
    def restricted_to(cls, family, subcomplex):
        assignment = {}
        for d, ids in subcomplex.simplices.items():
            for s in ids:
                assignment[s] = family.assignment[s]
        return cls(subcomplex, family.degree, assignment, check=False)


# ---------------------------------------------------------------------------
# extension of a compatible boundary family


def extend_from_boundary(family, n=None):
    """A polynomial form on Delta^n restricting to a compatible boundary family.

    Facets are handled in order; the first n corrections are pulled back
    along vertex collapses onto already-fixed data, and the final facet
    is extended by the cone over the opposite vertex, cleared of the
    radial denominators by a power of the cone parameter.
    """
    if n is None:
        n = family.complex.dimension + 1
    q = family.degree
    top = tuple(range(n + 1))
    phi = PolyForm.zero(n, q)
    for i in range(n + 1):
        facet = top[:i] + top[i + 1 :]
        target = family.assignment[facet]
        gamma = target - pullback_delta(DeltaMorphism.face(n, i), phi)
        if gamma.is_zero():
            continue
        if not gamma.is_polynomial():
            raise NonPolynomialCoefficient("boundary extension is polynomial-only")
        if i < n:
            # collapse vertex i onto vertex n, then read off facet coordinates
            vmap = tuple(
                (n - 1) if k == i else (k if k < i else k - 1) for k in range(n + 1)
            )
            correction = pullback_affine(vmap, gamma, n)
        else:
            correction = _radial_extension(gamma, n)
        phi = phi + correction
    return phi


class FamilyComplex:
    """The complex of polynomial form families over K, weight-truncated.

    Families of q-forms with coefficient degree + q <= N form a finite
    dimensional space (the kernel of the face-compatibility constraints);
    the simplexwise differential preserves both the compatibility and the
    weight, so cohomology is computed degree by degree with the exact
    linear algebra kernel.
    """

    def __init__(self, complex_, weight_cutoff):
        self.complex = complex_
        self.weight_cutoff = weight_cutoff
        top = complex_.dimension
        self._locals = {}
        self._family_basis = {}
        for q in range(top + 2):
            basis = self._local_basis(q)
            self._locals[q] = basis
            if not basis:
                self._family_basis[q] = []
                continue
            constraints = self._constraint_matrix(q)
            kernel, _, _ = kernel_image(constraints)
            self._family_basis[q] = kernel
        self._d_matrices = {}
        for q in range(top + 1):
            self._d_matrices[q] = self._differential_matrix(q)
        self._pairs = {}
        for q in range(top + 1):
            d_prev = (
                self._d_matrices[q - 1]
                if q >= 1
                else SparseMatrix.zero(len(self._family_basis[q]), 0)
            )
            self._pairs[q] = cohomology_pair(d_prev, self._d_matrices[q])

    def _local_basis(self, q):
        basis = []
        for d in sorted(self.complex.simplices):
            if q > d:
                continue
            cap = self.weight_cutoff - q
            if cap < 0:
                continue
            monos = _monomials_up_to(d, cap)
            for s in self.complex.simplices[d]:
                for S in combinations(range(d), q):
                    for e in monos:
                        basis.append((s, e, S))
        return basis

    def _constraint_matrix(self, q):
        basis = self._locals[q]
        by_simplex = {}
        for col, (s, e, S) in enumerate(basis):
            by_simplex.setdefault(s, []).append((col, e, S))
        entries = {}
        row_count = 0
        for d in sorted(self.complex.simplices):
            if d == 0:
                continue
            for s in self.complex.simplices[d]:
                for i in range(d + 1):
                    face = self.complex.face(s, i)
                    row_index = {}

                    def row_for(key):
                        if key not in row_index:
                            row_index[key] = row_count + len(row_index)
                        return row_index[key]

                    for col, e, S in by_simplex.get(s, ()):
                        form = PolyForm(
                            d,
                            q,
                            {S: RationalFunc(Polynomial(simplex_variables(d), {e: Fraction(1)}))},
                        )
                        pulled = pullback_delta(DeltaMorphism.face(d, i), form)
                        for T, c in pulled.terms.items():
                            poly = c.as_polynomial()
                            for ee, value in poly.terms.items():
                                r = row_for((ee, T))
                                entries[(r, col)] = entries.get((r, col), Fraction(0)) + value
                    for col, e, S in by_simplex.get(face, ()):
                        r = row_for((e, S))
                        entries[(r, col)] = entries.get((r, col), Fraction(0)) - 1
                    row_count += len(row_index)
        return SparseMatrix(row_count, len(basis), entries)

    def _differential_matrix(self, q):
        """Matrix of d in degree q, from the family basis to the next one."""
        source = self._family_basis[q]
        target = self._family_basis.get(q + 1, [])
        # a kernel basis is independent, so echelon input k is target[k]
        echelon = Echelon(target, track=True)
        entries = {}
        for col, vec in enumerate(source):
            rest, coords = echelon.reduce(self._apply_d(vec, q))
            if rest:
                raise AssertionError("differential left the family space")
            entries.update(((k, col), c) for k, c in coords.items())
        return SparseMatrix(len(target), len(source), entries)

    def _apply_d(self, vec, q):
        up_index = {b: i for i, b in enumerate(self._locals.get(q + 1, []))}
        out = [Fraction(0)] * len(up_index)
        for coeff, (s, e, S) in zip(vec, self._locals[q]):
            if not coeff:
                continue
            d = self.complex.dim_of[s]
            for i in range(d):
                k = e[i]
                if k == 0:
                    continue
                sign, T = insert_index(i, S)
                if sign == 0:
                    continue
                de = e[:i] + (k - 1,) + e[i + 1 :]
                out[up_index[(s, de, T)]] += coeff * sign * k
        return out

    def cohomology_dimension(self, q):
        return self._pairs[q].dimension

    def representatives(self, q):
        return [self._materialize(vec, q) for vec in self._rep_vectors(q)]

    def _rep_vectors(self, q):
        basis_matrix = SparseMatrix.from_columns(
            self._family_basis[q], len(self._locals[q])
        )
        return [basis_matrix.mul_vec(v) for v in self._pairs[q].representatives]

    def _materialize(self, local_vec, q):
        assignment = {}
        for value, (s, e, S) in zip(local_vec, self._locals[q]):
            if not value:
                continue
            d = self.complex.dim_of[s]
            form = assignment.get(s, PolyForm.zero(d, q))
            mono = Polynomial(simplex_variables(d), {e: value})
            form = form + PolyForm(d, q, {S: RationalFunc(mono)})
            assignment[s] = form
        for d, ids in self.complex.simplices.items():
            for s in ids:
                assignment.setdefault(s, PolyForm.zero(d, q))
        return FormsFamily(self.complex, q, assignment, check=False)

    def class_of(self, family):
        """Class coordinates of a closed family in degree q."""
        q = family.degree
        local = [Fraction(0)] * len(self._locals[q])
        index = {b: i for i, b in enumerate(self._locals[q])}
        for s, form in family.assignment.items():
            for S, c in form.terms.items():
                poly = c.as_polynomial()
                if poly is None:
                    raise NonPolynomialCoefficient("family class needs polynomials")
                for e, value in poly.terms.items():
                    local[index[(s, e, S)]] += value
        coords = solve(SparseMatrix.from_columns(self._family_basis[q], len(local)), local)
        if coords is None:
            raise ValueError("family does not fit the truncated family space")
        cls, _ = self._pairs[q].class_of(coords)
        return cls


def _monomials_up_to(nvars, max_degree):
    out = [(0,) * nvars]
    current = list(out)
    for _ in range(max_degree):
        nxt = set()
        for e in current:
            for i in range(nvars):
                nxt.add(e[:i] + (e[i] + 1,) + e[i + 1 :])
        current = sorted(nxt)
        out.extend(current)
    return out


def _radial_extension(gamma, n):
    """Extend a form on the facet opposite vertex n by the cone over it.

    gamma lives on Delta^{n-1} = {u_n = 0} and must pull back to zero on
    every facet of that facet; the radial pullback t'_j = t_j / s with
    s = 1 - t_n is cleared to a polynomial by multiplying with s^D.
    """
    variables = simplex_variables(n)
    q = gamma.degree
    s = Polynomial.constant(variables, 1) - Polynomial.variable(variables, n - 1)
    coeff_degree = max(0, gamma.coefficient_degree())
    power = coeff_degree + 2 * q + 1
    terms = {}
    for S, c in gamma.polynomial_terms().items():
        # homogenized coefficient:  c(t/s) * s^coeff_degree  is polynomial
        c_hom = Polynomial.zero(variables)
        for e, value in c.terms.items():
            mono = Polynomial(
                variables, {tuple(e) + (0,): value}
            )  # same monomial in t1..t_{n-1}
            c_hom = c_hom + mono * s ** (coeff_degree - sum(e))
        # each dt'_j clears to (s dt_j + t_j dt_n) with one s^2 each
        expansion = {(): Polynomial.constant(variables, 1)}
        for j in S:
            tj = Polynomial.variable(variables, j)
            new_expansion = {}
            for T, poly in expansion.items():
                for idx, factor in ((j, s), (n - 1, tj)):
                    if idx in T:
                        continue
                    sign = merge_sign(T, (idx,))
                    U = tuple(sorted(T + (idx,)))
                    value = poly * factor
                    if sign < 0:
                        value = -value
                    new_expansion[U] = new_expansion.get(U, Polynomial.zero(variables)) + value
            expansion = {T: p for T, p in new_expansion.items() if not p.is_zero()}
        slack = power - coeff_degree - 2 * q
        front = c_hom * s**slack
        for T, poly in expansion.items():
            contrib = RationalFunc(front * poly)
            terms[T] = terms[T] + contrib if T in terms else contrib
    return PolyForm(n, q, {T: c for T, c in terms.items() if not c.is_zero()})
