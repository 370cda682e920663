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
family into the interior.  Families and the extension share one
barycentric engine, the Arnold-Falk-Winther basis lambda^alpha
dlambda_sigma, each form written down as one expression on every
coface of its face; Whitney forms span the families of weight q.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import combinations, combinations_with_replacement, product
from math import factorial, fsum, prod

from .errors import (
    DimensionMismatch,
    IncompatibleFamily,
    NonPolynomialCoefficient,
    NotTopDegree,
)
from .exterior import ExteriorForm, check_index_set, d_monomial, d_terms, wedge_terms
from .formtext import eval_form
from .linalg import CohomologyPair, Echelon, Matrix, kernel_image
from .poly import Polynomial, drl_key
from .ratfunc import RationalFunc, parts
from .simplicial import (Cochain, DeltaMorphism, _coboundary_matrix, boundary_complex,
                         standard_simplex)

DEFAULT_QUAD_ORDER = 16
QUAD_CROSS_CHECK_STEP = 4
# Order 32 already meets double-precision rounding on the corpus, so a
# higher rule buys nothing; the cap keeps the rule and its node arrays
# (order^n nodes on the n-simplex) allocatable.
MAX_QUAD_ORDER = 64
QUAD_RULE_CACHE_SIZE = 32  # (n, order) rules kept; a run uses a handful
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
    if n == 0:
        coeff = alpha.terms.get((), None)
        if coeff is None:
            return Fraction(0)
        return coeff.eval_fraction(())
    coeff = alpha.terms.get(tuple(range(n)))
    if coeff is None:
        return Fraction(0)
    if not isinstance(coeff, Polynomial):
        raise NonPolynomialCoefficient("exact integration needs polynomial input")
    total = Fraction(0)
    for e, c in coeff.terms.items():
        num = 1
        for k in e:
            num *= factorial(k)
        total += c * Fraction(num, factorial(n + sum(e)))
    return total


class _QuadRule:
    """Nodes and weights of one quadrature rule, with the powers x**k drawn so far."""

    __slots__ = ("coords", "weights", "_powers")

    def __init__(self, coords, weights):
        self.coords = coords  # one array per simplex coordinate
        self.weights = weights
        self._powers = {}

    def _power(self, i, k):
        # Python's pow on each node: numpy's power differs in the last bit
        # on some nodes, which would move printed digits
        if (i, k) not in self._powers:
            import numpy as np  # only quadrature needs numpy; the exact lane never loads it

            self._powers[i, k] = np.array([x**k for x in self.coords[i].tolist()])
        return self._powers[i, k]

    def evaluate(self, poly):
        """Values of a Polynomial at every node, summed term by term in drl order."""
        import numpy as np  # only quadrature needs numpy; the exact lane never loads it

        total = np.zeros(len(self.weights))
        for e in sorted(poly.terms, key=drl_key):
            v = np.full(len(self.weights), float(poly.terms[e]))
            for i, k in enumerate(e):
                if k:
                    v = v * self._power(i, k)
            total += v
        return total


@lru_cache(maxsize=QUAD_RULE_CACHE_SIZE)
def _duffy_points(n, order):
    """Duffy-transformed tensor Gauss-Legendre rule on the n-simplex.

    The tensor node (x_1..x_n) maps to t_i = x_i * prod_{j<i} (1 - x_j),
    with Jacobian prod_i prod_{j<i} (1 - x_j); n = 0 is one node of
    weight 1.
    """
    import numpy as np  # only quadrature needs numpy; the exact lane never loads it

    raw_x, raw_w = np.polynomial.legendre.leggauss(order)
    grids = zip(
        np.meshgrid(*[(raw_x + 1.0) / 2.0] * n, indexing="ij"),
        np.meshgrid(*[raw_w / 2.0] * n, indexing="ij"),
    )
    weight, jac, scale = np.ones(order**n), np.ones(order**n), np.ones(order**n)
    coords = []
    for x, w in grids:
        x = x.ravel()
        weight = weight * w.ravel()
        coords.append(x * scale)
        jac = jac * scale
        scale = scale * (1.0 - x)
    return _QuadRule(coords, weight * jac)


def _quad_value(alpha, order):
    coeff = alpha.terms.get(tuple(range(alpha.n)))
    if coeff is None:
        return 0.0
    rule = _duffy_points(alpha.n, order)
    num, den = parts(coeff)
    den = rule.evaluate(den)
    if not den.all():
        raise ZeroDivisionError("denominator vanished at quadrature node")
    return fsum((rule.weights * (rule.evaluate(num) / den)).tolist())


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
                terms[T] = terms[T] + mono if T in terms else mono
    return PolyForm(alpha.n, p - 1, terms)


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

    def wedge(self, other):
        assignment = {
            s: wedge(f, other.assignment[s]) for s, f in self.assignment.items()
        }
        return FormsFamily(
            self.complex, self.degree + other.degree, assignment, check=False
        )

    def to_cochain(self, order=DEFAULT_QUAD_ORDER):
        values = {s: integrate(self.assignment[s], order)[0]
                  for s in self.complex.n_simplices(self.degree)}
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
    2006, sec. 3-4), as families (simplex, exponent, index set) -> coefficient.

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


def _add_barycentric(family, cofaces, scale, alpha, sigma, face):
    """family += scale * lambda^alpha dlambda_sigma on each simplex in cofaces[face],
    for alpha a tuple of vertices with repetition; returns family."""
    for s in cofaces[face]:
        local = _barycentric_terms(
            tuple(alpha.count(v) for v in s), tuple(s.index(v) for v in sigma)
        )
        for (e, S), c in local:
            family[(s, e, S)] = family.get((s, e, S), 0) + scale * c
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
        forms = [((-1) ** (1 + sum(j < i for j in rest)), tuple(sorted(rest + (i,))))
                 for i in range(d) if i not in rest]
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
    q-forms with coefficient degree + q <= N are P_r Lambda^q(K), r = N - q;
    a family is a sparse dict (simplex, exponent, index set) -> coefficient
    of t^e dt_S there.  For r >= 1 the basis is `_barycentric_basis` on the
    coface table of K, the engine `extend_from_boundary` shares; for r = 0
    it is the Whitney forms of a basis of the q-cocycles.  The differential
    keeps compatibility and weight, so cohomology is computed degree by
    degree with the exact linear algebra.
    """

    def __init__(self, complex_, weight_cutoff):
        self.complex = complex_
        self.weight_cutoff = weight_cutoff
        top = complex_.dimension
        self._cofaces = _coface_table(complex_.dim_of, complex_.dim_of)
        self._family_basis = {q: self._basis(q) for q in range(top + 2)}
        self._d_matrices = {q: self._differential_matrix(q) for q in range(top + 1)}
        self._pairs = {}
        for q in range(top + 1):
            d_prev = self._d_matrices[q - 1] if q >= 1 else Matrix(len(self._family_basis[q]), [])
            self._pairs[q] = CohomologyPair(d_prev, self._d_matrices[q])

    def _basis(self, q):
        r = self.weight_cutoff - q
        if r < 0:
            return []
        if r == 0:
            return self._whitney_basis(q)
        return _barycentric_basis(self._cofaces, q, r)

    def _whitney_basis(self, q):
        """q! sum_s z(s) sum_i (-1)^i lambda_{s_i} dlambda_{s - s_i} for a basis of cocycles
        z; on each simplex the degree-1 terms cancel, leaving a constant form."""
        kernel, _, _ = kernel_image(_coboundary_matrix(self.complex, q))
        simplices = self.complex.n_simplices(q)
        basis = []
        for z in kernel:
            family = {}
            for j, value in sorted(z.items()):
                s = simplices[j]
                for i, v in enumerate(s):
                    scale = factorial(q) * (-1) ** i * value
                    _add_barycentric(family, self._cofaces, scale, (v,), s[:i] + s[i + 1 :], s)
            basis.append({key: c for key, c in family.items() if c})
        return basis

    def _differential_matrix(self, q):
        """Matrix of d in degree q, from the family basis to the next one."""
        source = self._family_basis[q]
        target = self._family_basis[q + 1]
        # the basis is independent, so echelon input k is target[k]
        echelon = Echelon(target, track=True)
        columns = []
        for family in source:
            image = {}
            for (s, e, S), c in family.items():
                for m, de, T in d_monomial(e, S):
                    image[(s, de, T)] = image.get((s, de, T), 0) + m * c
            rest, coords = echelon.reduce(image)
            if rest:
                raise AssertionError("differential left the family space")
            columns.append(coords)
        return Matrix(len(target), columns)

    def cohomology_dimension(self, q):
        return self._pairs[q].dimension

    def representatives(self, q):
        reps = []
        for vec in self._pairs[q].representatives:
            combo = {}
            for k, coeff in sorted(vec.items()):
                for key, c in self._family_basis[q][k].items():
                    combo[key] = combo.get(key, 0) + coeff * c
            reps.append(self._materialize(combo, q))
        return reps

    def _materialize(self, family, q):
        terms = {s: {} for s in self._cofaces}
        for (s, e, S), c in family.items():
            terms[s].setdefault(S, {})[e] = c
        assignment = {}
        for s, by_set in terms.items():
            variables = simplex_variables(self.complex.dim_of[s])
            by_set = {S: Polynomial(variables, monos) for S, monos in by_set.items()}
            assignment[s] = PolyForm(self.complex.dim_of[s], q, by_set)
        return FormsFamily(self.complex, q, assignment, check=False)


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
        echelon.add({key: c for key, c in family.items() if key[0] != top})
        on_top.append({(e, S): c for (s, e, S), c in family.items() if s == top})
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
        for S, poly in family.assignment[s].polynomial_terms().items():
            facet_terms.update(((s, e, S), c) for e, c in poly.terms.items())
    r = max([1] + [sum(e) for _, e, _ in facet_terms])
    echelon, on_top = _boundary_basis(n, family.degree, r)
    rest, coords = echelon.reduce(facet_terms)
    if rest:
        raise IncompatibleFamily("boundary family's facets disagree on a shared face")
    terms = {}
    for k, coeff in coords.items():
        for (e, S), c in on_top[k].items():
            monos = terms.setdefault(S, {})
            monos[e] = monos.get(e, 0) + coeff * c
    variables = simplex_variables(n)
    return PolyForm(n, family.degree, {S: Polynomial(variables, m) for S, m in terms.items()})
