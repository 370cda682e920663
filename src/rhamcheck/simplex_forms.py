"""Polynomial and rational differential forms on standard simplices.

The standard n-simplex carries affine coordinates t1..tn with the
barycentric coordinate of vertex 0 eliminated (t0 = 1 - sum t_i), so
vertex 0 sits at the origin and vertex k at the k-th unit vector.
Forms are dictionaries from index sets to coefficients.  A coefficient
is a Polynomial (the exact lane) or a RationalFunc, whose denominator is
not constant and needs a positivity certificate before quadrature.

This module supplies the dg-algebra operations, cosimplicial pullback,
exact and Gauss-Legendre/Duffy integration, the cone contraction to
vertex 0, the integration map onto simplicial cochains, families of
forms over a simplicial set, and extension of a compatible boundary
family into the interior.  `FormsFamily.from_top_form` pulls a form on
Delta^n back onto every simplex of any subcomplex of Delta[n], such as
Delta[n] itself or its boundary.  Families and the extension share one
barycentric engine, the Arnold-Falk-Winther basis lambda^alpha
dlambda_sigma, each form written down as one expression on the cofaces
of its face that fix a family: the maximal simplices of a complex, the
facets of a boundary.  Whitney forms span the families of weight q.

Quadrature is pure Python on gauss_legendre.txt, numpy's `leggauss`
rules pinned as float.hex: the report's printed digits follow their last
bits, which differ from the correctly rounded rule's and across LAPACKs.
"""

from __future__ import annotations

import os
from bisect import bisect_left
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, combinations_with_replacement, islice, product, repeat
from math import factorial, fsum, prod
from operator import add, mul

from .errors import (
    DimensionMismatch,
    IncompatibleFamily,
    NonPolynomialCoefficient,
    NotTopDegree,
)
from .exterior import (ExteriorForm, check_index_set, d_monomial, d_terms, insert_index,
                       wedge_terms)
from .formtext import eval_form
from .linalg import CohomologyPair, Echelon, Matrix, kernel_image
from .poly import Polynomial, drl_key, term_vector, vector_terms
from .ratfunc import RationalFunc, parts
from .simplicial import (Cochain, DeltaMorphism, _coboundary_matrix, boundary_complex,
                         standard_simplex)

DEFAULT_QUAD_ORDER = 16
QUAD_CROSS_CHECK_STEP = 4
# Order 32 already meets double-precision rounding on the corpus, so a
# higher rule buys nothing; the cap keeps a rule's order^n nodes on the
# n-simplex small, and the table holds orders 1..MAX_QUAD_ORDER + QUAD_CROSS_CHECK_STEP.
MAX_QUAD_ORDER = 64
GAUSS_LEGENDRE_TABLE = os.path.join(os.path.dirname(__file__), "gauss_legendre.txt")
QUAD_RULE_CACHE_SIZE = 32  # 1-D rules and (n, order) Duffy rules kept; a run uses a handful
QUAD_VALUE_CACHE_SIZE = 256  # (num, den, n, order) integrands kept; `--builtin all` has 6
AFFINE_MAP_CACHE_SIZE = 256  # affine maps, barycentric expansions, variable tuples; small simplices


@lru_cache(maxsize=AFFINE_MAP_CACHE_SIZE)
def simplex_variables(n):
    return tuple("t%d" % (i + 1) for i in range(n))


class PolyForm(ExteriorForm):
    """A differential form on the standard n-simplex."""

    __slots__ = ("n", "degree", "terms")

    def __init__(self, n, degree, terms):
        self.n = n
        self.degree = degree
        variables = simplex_variables(n)
        clean = {}
        for S, coeff in terms.items():
            S = check_index_set(S, degree, n)
            if not isinstance(coeff, (Polynomial, RationalFunc)):
                coeff = Polynomial.constant(variables, coeff)
            if coeff.variables != variables:
                raise ValueError("coefficient over wrong variables")
            if not coeff.is_zero():
                clean[S] = coeff
        self.terms = clean

    @classmethod
    def _of(cls, n, degree, terms):
        """Trusted constructor for results of this module's arithmetic.

        The keys are index sets valid for the degree and the values
        Polynomial or RationalFunc over t1..tn; only zeros are dropped,
        as `Polynomial._of` does.
        """
        form = object.__new__(cls)
        form.n = n
        form.degree = degree
        form.terms = {S: c for S, c in terms.items() if not c.is_zero()}
        return form

    @classmethod
    def zero(cls, n, degree=0):
        return cls(n, degree, {})

    @classmethod
    def constant(cls, n, value):
        return cls(n, 0, {(): Polynomial.constant(simplex_variables(n), value)})

    @property
    def variables(self):
        return simplex_variables(self.n)

    def is_polynomial(self):
        return all(isinstance(c, Polynomial) for c in self.terms.values())

    def polynomial_terms(self):
        """terms, whose coefficients are all Polynomial; raises on the rational lane."""
        if not self.is_polynomial():
            raise NonPolynomialCoefficient("form %s is not polynomial" % self)
        return self.terms

    def _check(self, other):
        if self.n != other.n:
            raise DimensionMismatch("forms on simplices of different dimension")

    def _make(self, degree, terms):
        return PolyForm._of(self.n, degree, terms)

    def __eq__(self, other):
        if not isinstance(other, PolyForm):
            return NotImplemented
        return self.n == other.n and self.terms == other.terms

    def vertex_value(self):
        """Value of a degree-0 form at vertex 0, the origin (exact lane)."""
        if self.degree != 0:
            raise ValueError("vertex_value needs a degree-0 form")
        if not self.terms:
            return Fraction(0)
        return self.terms[()].eval_fraction([Fraction(0)] * self.n)


def parse_poly_form(text, n):
    """Parse form text in t1..tn, e.g. '2/(1 + t1^2) * dt1'."""
    return PolyForm(n, *eval_form(text, simplex_variables(n)))


def wedge(alpha, beta):
    """Graded-commutative wedge product."""
    alpha._check(beta)
    return PolyForm._of(alpha.n, alpha.degree + beta.degree, wedge_terms(alpha.terms, beta.terms))


def differential(alpha):
    """Exterior differential; quotient rule on rational coefficients."""
    return PolyForm._of(alpha.n, alpha.degree + 1, d_terms(alpha.terms, alpha.n))


# ---------------------------------------------------------------------------
# cosimplicial structure


def pull_back(terms, degree, n, substitute, differentials):
    """The substitution morphism x_i -> s_i, dx_i -> ds_i on a form's terms.

    `substitute(c)` is the coefficient c with the s_i put in, over the
    coordinates of the n-simplex, and `differentials[i]` is the 1-form
    ds_i there; the pullback of the form is the sum over its terms of
    substitute(c) ^ ds_{i_1} ^ ... ^ ds_{i_p}.
    """
    result = PolyForm._of(n, degree, {})
    for S, coeff in terms.items():
        term = PolyForm._of(n, 0, {(): substitute(coeff)})
        for i in S:
            term = wedge(term, differentials[i])
        result = result + term
    return result


@lru_cache(maxsize=AFFINE_MAP_CACHE_SIZE)
def affine_map(vertex_map, m, n):
    """(substitute, differentials) of the affine map of a vertex map.

    vertex_map (a tuple) sends vertex i of the m-simplex to vertex
    vertex_map[i] of the n-simplex; barycentric u_j pulls back to the
    sum of the u_i over the preimage, which this rewrites in affine
    coordinates s_1..s_n over t1..tm.  The pair is what `pull_back`
    takes: `substitute` puts the s_j into a coefficient in t1..tn.
    """
    variables = simplex_variables(m)
    if n == 0:
        # a scalar on the point is a constant, which substitute() cannot move
        return (lambda c: Polynomial.constant(variables, c.eval_fraction(()))), ()
    t0 = Polynomial.constant(variables, 1)
    for i in range(m):
        t0 = t0 - Polynomial.variable(variables, i)
    subs = []
    for j in range(1, n + 1):
        s = Polynomial.zero(variables)
        for i, v in enumerate(vertex_map):
            if v == j:
                s = s + (t0 if i == 0 else Polynomial.variable(variables, i - 1))
        subs.append(s)
    differentials = tuple(differential(PolyForm(m, 0, {(): s})) for s in subs)
    return (lambda c: c.substitute(subs)), differentials


def pullback_delta(h, alpha):
    """Pull back along the affine map induced by a Delta morphism."""
    if h.target != alpha.n:
        raise DimensionMismatch("morphism target != form dimension")
    return pull_back(alpha.terms, alpha.degree, h.source, *affine_map(h.values, h.source, alpha.n))


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
    coeff = alpha.terms.get(tuple(range(n)))
    if coeff is None:
        return Fraction(0)
    if not isinstance(coeff, Polynomial):
        raise NonPolynomialCoefficient("exact integration needs polynomial input")
    total = Fraction(0)
    for e, c in coeff.terms.items():
        total += c * Fraction(prod(map(factorial, e)), factorial(n + sum(e)))
    return total


class _QuadRule:
    """Nodes and weights of one quadrature rule, with the powers x**k drawn so far."""

    __slots__ = ("coords", "weights", "_powers")

    def __init__(self, coords, weights):
        self.coords = coords  # one list per simplex coordinate
        self.weights = weights
        self._powers = {}

    def _power(self, i, k):
        if (i, k) not in self._powers:
            self._powers[i, k] = [x**k for x in self.coords[i]]
        return self._powers[i, k]

    def evaluate(self, poly):
        """Values of a Polynomial at every node, summed term by term in drl
        order from 0.0; a term is c * x_i**k_i * ..., multiplied left to right."""
        total = [0.0] * len(self.weights)
        for e in sorted(poly.terms, key=drl_key):
            c = float(poly.terms[e])
            f = [self._power(i, k) for i, k in enumerate(e) if k]
            # one comprehension for the common terms: a third faster than chained map
            if len(f) == 1:
                total = [t + c * a for t, a in zip(total, *f)]
            elif len(f) == 2:
                total = [t + c * a * b for t, a, b in zip(total, *f)]
            else:
                term = repeat(c, len(total))
                for g in f:
                    term = map(mul, term, g)
                total = list(map(add, total, term))
        return total


@lru_cache(maxsize=QUAD_RULE_CACHE_SIZE)
def _gauss_legendre(order):
    """(nodes, weights) of numpy's leggauss(order) on [-1, 1], bit for bit.

    Line `order` of the table holds the nonnegative nodes, ascending, then
    their weights, as float.hex; numpy's rules are exactly symmetric."""
    if not 1 <= order <= MAX_QUAD_ORDER + QUAD_CROSS_CHECK_STEP:
        raise ValueError("no Gauss-Legendre rule of order %d in the table" % order)
    with open(GAUSS_LEGENDRE_TABLE) as table:
        half = [float.fromhex(v) for v in next(islice(table, order - 1, None)).split()]
    nodes, weights = half[:len(half) // 2], half[len(half) // 2:]
    return [-x for x in nodes[::-1][:order // 2]] + nodes, weights[::-1][:order // 2] + weights


@lru_cache(maxsize=QUAD_RULE_CACHE_SIZE)
def _duffy_points(n, order):
    """Duffy-transformed tensor Gauss-Legendre rule on the n-simplex.

    The tensor node (x_1..x_n) maps to t_i = x_i * prod_{j<i} (1 - x_j),
    with Jacobian prod_i prod_{j<i} (1 - x_j); n = 0 is one node of
    weight 1.  Nodes run in numpy's meshgrid "ij" order raveled in C order,
    and each product is taken in the order numpy's arrays took it.
    """
    raw_x, raw_w = _gauss_legendre(order)
    xs, ws = [(x + 1.0) / 2.0 for x in raw_x], [w / 2.0 for w in raw_w]
    coords, weights = [[] for _ in range(n)], []
    for node in product(range(order), repeat=n):
        weight = jac = scale = 1.0
        for coord, j in zip(coords, node):
            weight *= ws[j]
            coord.append(xs[j] * scale)
            jac *= scale
            scale *= 1.0 - xs[j]
        weights.append(weight * jac)
    return _QuadRule(coords, weights)


def _quad_value(alpha, order):
    coeff = alpha.terms.get(tuple(range(alpha.n)))
    if coeff is None:
        return 0.0
    return _rule_value(*parts(coeff), alpha.n, order)


@lru_cache(maxsize=QUAD_VALUE_CACHE_SIZE)
def _rule_value(num, den, n, order):
    """The order-`order` Duffy rule's value of num/den on the n-simplex.
    Memoised: the simplices of a run pull back to a few integrands."""
    rule = _duffy_points(n, order)
    den = rule.evaluate(den)
    if not all(den):
        raise ZeroDivisionError("denominator vanished at quadrature node")
    return fsum([w * (a / b) for w, a, b in zip(rule.weights, rule.evaluate(num), den)])


def integrate_numeric(alpha, order=DEFAULT_QUAD_ORDER):
    """(value, error estimate) for a top-degree form by quadrature.

    Tensor-product Gauss-Legendre of the given order mapped through the
    Duffy transform.  The estimate is |Q_k - Q_{k+4}|, the difference
    against the rule four orders higher: a heuristic, not a bound.
    Denominators must carry a positivity certificate, otherwise
    DenominatorVanishes propagates.
    """
    n = alpha.n
    if alpha.degree != n:
        raise NotTopDegree("degree %d form on a %d-simplex" % (alpha.degree, n))
    for c in alpha.terms.values():
        if isinstance(c, RationalFunc):
            c.certify_denominator()
    value = _quad_value(alpha, order)
    check = _quad_value(alpha, order + QUAD_CROSS_CHECK_STEP)
    return value, abs(value - check)


def integrate(alpha, order=DEFAULT_QUAD_ORDER):
    """(value, error estimate) of a top-degree form: exact (Fraction, 0) when
    every coefficient is polynomial, quadrature of the given order otherwise."""
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
    vec = {}
    for (e, S), value in term_vector(alpha.polynomial_terms()).items():
        scaled = Fraction(value, p + sum(e))
        for a, i in enumerate(S):
            term = (e[:i] + (e[i] + 1,) + e[i + 1 :], S[:a] + S[a + 1 :])
            vec[term] = vec.get(term, 0) + scaled * (-1) ** a
    return PolyForm(alpha.n, p - 1, vector_terms(vec, simplex_variables(alpha.n)))


def homotopy_defect(alpha):
    """d(kappa alpha) + kappa(d alpha) - alpha + epsilon(alpha(vertex 0)).

    Identically zero for polynomial forms; exposed so tests and scenario
    checks can assert the Poincare contraction exactly.
    """
    result = differential(cone_homotopy(alpha)) + cone_homotopy(differential(alpha))
    result = result - alpha
    if alpha.degree == 0:
        result = result + PolyForm.constant(alpha.n, alpha.vertex_value())
    return result


# ---------------------------------------------------------------------------
# restriction to simplicial cochains


def to_cochain(alpha, order=DEFAULT_QUAD_ORDER):
    """Integrate a degree-p form over the p-simplices of Delta[n].

    The value on a p-simplex (an increasing vertex tuple) is the
    integral of the pullback along the affine simplex it spans; the
    exact lane is used when every pulled-back coefficient is polynomial.
    """
    K = standard_simplex(alpha.n)
    values = {}
    for simplex in K.n_simplices(alpha.degree):
        h = DeltaMorphism(alpha.degree, alpha.n, simplex)
        values[simplex], _ = integrate(pullback_delta(h, alpha), order)
    return Cochain(K, alpha.degree, values)


# ---------------------------------------------------------------------------
# families of forms over a simplicial set


class FormsFamily:
    """A simplicial assignment of degree-q forms, stored as given: the caller
    gives every simplex s of K, of dimension d, a form of degree q on Delta^d
    (zero where d < q), compatible on faces: the pullback of the form on s
    along face i of Delta^d is the form on the i-th face of s."""

    def __init__(self, complex_, degree, assignment):
        self.complex = complex_
        self.degree = degree
        self.assignment = assignment

    def wedge(self, other):
        assignment = {
            s: wedge(f, other.assignment[s]) for s, f in self.assignment.items()
        }
        return FormsFamily(self.complex, self.degree + other.degree, assignment)

    def to_cochain(self):
        values = {s: integrate(self.assignment[s])[0]
                  for s in self.complex.n_simplices(self.degree)}
        return Cochain(self.complex, self.degree, values)

    @classmethod
    def from_top_form(cls, complex_, alpha):
        """The family of the pullbacks of a form on Delta^n onto every simplex of
        `complex_`, a subcomplex of Delta[n] such as Delta[n] itself or its boundary."""
        assignment = {s: pullback_delta(DeltaMorphism(d, alpha.n, s), alpha)
                      for d, ids in complex_.simplices.items() for s in ids}
        return cls(complex_, alpha.degree, assignment)


# ---------------------------------------------------------------------------
# barycentric forms: the Arnold-Falk-Winther basis


def _coface_table(faces, simplices):
    """{f: the simplices containing f, in the order of `simplices`} for each of `faces`,
    in their order; all are increasing vertex tuples, so a simplex's faces are its
    `combinations`."""
    table = {f: [] for f in faces}
    for s in simplices:
        for k in range(1, len(s) + 1):
            for f in combinations(s, k):
                if f in table:
                    table[f].append(s)
    return table


def _barycentric_basis(cofaces, q, r):
    """The Arnold-Falk-Winther basis of P_r Lambda^q(K), r >= 1 (Acta Numerica 15,
    2006, sec. 3-4), as families (coefficient degree, simplex, exponent, index set)
    -> coefficient.

    Per face f of dimension >= q: lambda^alpha dlambda_sigma with |alpha| = r,
    sigma a q-subset of f, supp(alpha) u sigma = f and alpha zero below
    min(f - sigma).  Its trace vanishes on the faces not containing f, so its
    family is one expression on each simplex in cofaces[f]; the keys of
    `cofaces` are the simplices of K, dimension by dimension.
    """
    basis = []
    for f in cofaces:
        # alpha is positive on the dim f + 1 - q vertices of f - sigma, so dim f < q + r
        if not q <= len(f) - 1 < q + r:
            continue
        for sigma in combinations(f, q):
            rest = tuple(v for v in f if v not in sigma)
            free = [v for v in f if v >= rest[0]]
            for extra in combinations_with_replacement(free, r - len(rest)):
                basis.append(_add_barycentric({}, cofaces, 1, rest + extra, sigma, f))
    return basis


def _whitney_basis(complex_, cofaces, q):
    """The families of weight q: q! sum_s z(s) sum_i (-1)^i lambda_{s_i} dlambda_{s - s_i}
    for a basis of q-cocycles z, on the simplices that `cofaces` lists; on each
    simplex the degree-1 terms cancel, leaving a constant form."""
    kernel, _, _ = kernel_image(_coboundary_matrix(complex_, q))
    simplices = complex_.n_simplices(q)
    basis = []
    for z in kernel:
        family = {}
        for j, value in sorted(z.items()):
            s = simplices[j]
            for i, v in enumerate(s):
                scale = factorial(q) * (-1) ** i * value
                _add_barycentric(family, cofaces, scale, (v,), s[:i] + s[i + 1 :], s)
        basis.append({key: c for key, c in family.items() if c})
    return basis


def _add_barycentric(family, cofaces, scale, alpha, sigma, face):
    """family += scale * lambda^alpha dlambda_sigma on each simplex in cofaces[face],
    for alpha a tuple of vertices with repetition; returns family."""
    for s in cofaces[face]:
        local = _barycentric_terms(
            tuple(alpha.count(v) for v in s), tuple(s.index(v) for v in sigma)
        )
        for (e, S), c in local:
            key = (sum(e), s, e, S)
            family[key] = family.get(key, 0) + scale * c
    return family


@lru_cache(maxsize=AFFINE_MAP_CACHE_SIZE)
def _barycentric_terms(alpha, sigma):
    """lambda^alpha dlambda_sigma on the d-simplex as ((exponent, index set), coefficient)
    pairs, for the exponents alpha of lambda_0..lambda_d and increasing vertex positions
    sigma; a tuple, because the cache hands it to every caller."""
    d = len(alpha) - 1
    # dlambda_v = dt_v for v >= 1, and dlambda_0 = -(dt_1 + ... + dt_d) leads sigma
    rest = tuple(v - 1 for v in sigma if v)
    if sigma[:1] == (0,):
        forms = [(-sign, S) for sign, S in (insert_index(i, rest) for i in range(d)) if sign]
    else:
        forms = [(1, rest)]
    # lambda^alpha = t^(alpha_1..alpha_d) (1 - t_1 - ... - t_d)^alpha_0, multinomially
    terms = []
    for k in product(range(alpha[0] + 1), repeat=d):
        m = sum(k)
        if m <= alpha[0]:
            c = factorial(alpha[0]) // (factorial(alpha[0] - m) * prod(map(factorial, k)))
            e = tuple(a + b for a, b in zip(k, alpha[1:]))
            terms.extend(((e, S), (-1) ** m * sign * c) for sign, S in forms)
    return tuple(terms)


class FamilyComplex:
    """The complex of polynomial form families over K, weight-truncated.

    K's simplices are increasing vertex tuples.  The compatible families of
    q-forms with coefficient degree + q <= N are P_r Lambda^q(K), r = N - q.
    A family is fixed by its forms on the maximal simplices of K, so it is
    written on those alone, as a sparse dict (coefficient degree, simplex,
    exponent, index set) -> coefficient of t^e dt_S there; `representatives`
    pull each form back onto the other simplices.

    The families are spanned by `_barycentric_basis` on the coface table of
    the maximal simplices for r >= 1, the engine `extend_from_boundary`
    shares, and by the Whitney forms of a basis of the q-cocycles for r = 0.
    The basis in degree q is the reduced echelon basis of that span, sorted
    by pivot, a row's largest key.  A key leads with its coefficient degree,
    so the families of weight <= N - 1 are the rows whose pivot has
    coefficient degree < r: a prefix of the basis, and `stabilized` is the
    N - 1 rule of `CohomologyPair.stabilized`, which `TruncatedCohomology`
    applies too, on the pair at N and those prefixes.  Each row
    is 1 at its pivot and 0 at the others, so the coordinates of a family in
    the basis are its entries at the pivots.  The differential keeps
    compatibility and weight, so cohomology is computed degree by degree
    with the exact linear algebra.

    A row is kept as its echelon holds it, `Echelon.scaled_rows`: a
    primitive integer vector over its pivot entry.  d is taken, and checked
    to stay in the next family space, on those integers, and an entry of
    the matrix of d is one Fraction, the image's entry at a pivot over the
    row's pivot entry.  `representatives` divides by the pivot entry once
    per coordinate, so no row is ever written in Fractions.
    """

    def __init__(self, complex_, weight_cutoff):
        self.complex = complex_
        self.weight_cutoff = weight_cutoff
        top = complex_.dimension
        faces = set(complex_.faces.values())
        self._maximal = [s for s in complex_.dim_of if s not in faces]
        self._cofaces = _coface_table(complex_.dim_of, self._maximal)
        self._echelons = {q: Echelon(self._spanning_families(q)) for q in range(top + 2)}
        self._rows, self._pivots, self._prefix = {}, {}, {}
        for q, echelon in self._echelons.items():
            rows = echelon.scaled_rows
            pivots = sorted(rows)
            self._rows[q] = [rows[pivot] for pivot in pivots]
            self._pivots[q] = {pivot: k for k, pivot in enumerate(pivots)}
            self._prefix[q] = bisect_left(pivots, (weight_cutoff - q,))
        self._d_matrices = {q: self._differential_matrix(q) for q in range(top + 1)}
        self._pairs = {}
        for q in range(top + 1):
            d_prev = self._d_matrices[q - 1] if q >= 1 else Matrix(len(self._rows[q]), [])
            self._pairs[q] = CohomologyPair(d_prev, self._d_matrices[q])

    def _spanning_families(self, q):
        r = self.weight_cutoff - q
        if r < 0:
            return []
        if r == 0:
            return _whitney_basis(self.complex, self._cofaces, q)
        return _barycentric_basis(self._cofaces, q, r)

    def _differential_matrix(self, q):
        """Matrix of d in degree q, from the family basis to the next one: d of
        each row's vector, reduced against the next echelon and read at its
        pivots over the row's scale."""
        target, pivots = self._echelons[q + 1], self._pivots[q + 1]
        columns = []
        for family, scale in self._rows[q]:
            image = {}
            for (_, s, e, S), c in family.items():
                for m, de, T in d_monomial(e, S):
                    key = (sum(de), s, de, T)
                    image[key] = image.get(key, 0) + m * c
            rest, _ = target.reduce(image)
            if rest:
                raise AssertionError("differential left the family space")
            columns.append({pivots[key]: Fraction(c, scale)
                            for key, c in image.items() if c and key in pivots})
        return Matrix(len(pivots), columns)

    def cohomology_dimension(self, q):
        return self._pairs[q].dimension

    def stabilized(self, q):
        """Whether H^q at cutoff N - 1 -> H^q at N is an isomorphism, read from the
        pair at N on the weight <= N - 1 prefixes of the bases in degrees q - 1 and q."""
        return self._pairs[q].stabilized(self._prefix.get(q - 1, 0), self._prefix[q])

    def representatives(self, q):
        reps = []
        for vec in self._pairs[q].representatives:
            combo = {}
            for k, coeff in sorted(vec.items()):
                family, scale = self._rows[q][k]
                coeff /= scale
                for key, c in family.items():
                    combo[key] = combo.get(key, 0) + coeff * c
            reps.append(self._materialize(combo, q))
        return reps

    def _materialize(self, family, q):
        """The FormsFamily of a family: its forms on the maximal simplices, and on
        each other simplex the pullback from the first maximal simplex containing it."""
        vectors = {s: {} for s in self._maximal}
        for (_, s, e, S), c in family.items():
            vectors[s][(e, S)] = c
        forms = {}
        for s, vec in vectors.items():
            d = self.complex.dim_of[s]
            forms[s] = PolyForm(d, q, vector_terms(vec, simplex_variables(d)))
        assignment = {}
        for f, (s, *_) in self._cofaces.items():
            inclusion = DeltaMorphism(len(f) - 1, len(s) - 1, [s.index(v) for v in f])
            assignment[f] = forms[s] if f == s else pullback_delta(inclusion, forms[s])
        return FormsFamily(self.complex, q, assignment)


# ---------------------------------------------------------------------------
# extension of a compatible boundary family


@lru_cache(maxsize=AFFINE_MAP_CACHE_SIZE)
def _boundary_basis(n, q, r):
    """The basis of P_r Lambda^q on the boundary of Delta^n, written on the facets,
    which fix a boundary family, and on Delta^n: an echelon of the facet terms,
    whose input k is basis form k, and each basis form's terms on Delta^n."""
    top = tuple(range(n + 1))
    boundary = boundary_complex(n)
    written = boundary.n_simplices(n - 1) + (top,)
    cofaces = _coface_table(boundary.dim_of, written)
    echelon, on_top = Echelon(track=True), []
    for family in _barycentric_basis(cofaces, q, r):
        echelon.add({key: c for key, c in family.items() if key[1] != top})
        on_top.append({(e, S): c for (_, s, e, S), c in family.items() if s == top})
    return echelon, on_top


def extend_from_boundary(family):
    """The least-degree polynomial form on Delta^n restricting to a boundary family.

    The facet forms, of coefficient degree <= r = max(1, their highest), are
    solved against `_barycentric_basis` of the boundary, as `FamilyComplex`
    builds it; a basis form is one expression on every coface of its face,
    so the same coordinates on its terms on Delta^n give the extension.
    Raises IncompatibleFamily when facets disagree on a shared face.
    """
    n = family.complex.dimension + 1
    facet_terms = {}
    for s in boundary_complex(n).n_simplices(n - 1):
        for (e, S), c in term_vector(family.assignment[s].polynomial_terms()).items():
            facet_terms[(sum(e), s, e, S)] = c
    r = max([1] + [degree for degree, _, _, _ in facet_terms])
    echelon, on_top = _boundary_basis(n, family.degree, r)
    rest, coords = echelon.reduce(facet_terms)
    if rest:
        raise IncompatibleFamily("boundary family's facets disagree on a shared face")
    vec = {}
    for k, coeff in coords.items():
        for term, c in on_top[k].items():
            vec[term] = vec.get(term, 0) + coeff * c
    return PolyForm(n, family.degree, vector_terms(vec, simplex_variables(n)))
