"""The comparison engine between algebraic forms and singular cochains.

A parametrized simplex is a tuple of rational functions on a standard
simplex whose components satisfy the defining ideal of a variety
exactly (an on-variety certificate, checked by clearing denominators).
Pulling an algebraic form back along such a simplex gives a form on the
simplex; integrating it gives the period pairing with singular chains.

Two lanes run side by side: polynomial simplices with exact rational
outputs and zero-tolerance assertions, and rational simplices evaluated
by certified quadrature.  The verification suite lives here as residual
computations: the chain-map (Stokes) residual, the naturality residual
under simplex-category morphisms, and the cohomology-level
multiplicativity residual obtained by pairing against explicit cycles.
"""

from __future__ import annotations

from fractions import Fraction

from .derham import differential as d_algebraic, wedge as wedge_algebraic
from .errors import (
    AlgebraMismatch,
    DimensionMismatch,
    InvalidSimplex,
    NotACycle,
    NotClosedForm,
    ValidationError,
)
from .formtext import eval_scalar
from .poly import Polynomial
from .ratfunc import RationalFunc, parts
from .simplex_forms import (
    DEFAULT_QUAD_ORDER,
    PolyForm,
    affine_map,
    differential as d_simplex,
    integrate_exact,
    integrate_numeric,
    pull_back,
    pullback_delta,
    simplex_variables,
)
from .simplicial import (
    Chain,
    Cochain,
    DeltaMorphism,
    FiniteSimplicialSet,
    aw_cup,
    is_cycle,
    pair,
)


class SimplexCertificate:
    """Outcome of the on-variety check: valid, or a nonzero residual."""

    def __init__(self, valid, residuals):
        self.valid = valid
        self.residuals = residuals  # list of (generator index, residual Polynomial)

    def __bool__(self):
        return self.valid


class ParamSimplex:
    """A rational-map singular simplex into the real points of an FpAlgebra,
    one component per variable."""

    def __init__(self, n, target, components, name=None, check=True):
        self.n = n
        self.target = target
        variables = simplex_variables(n)
        comps = []
        for c in components:
            if isinstance(c, str):
                c = eval_scalar(c, variables)
            elif not isinstance(c, (Polynomial, RationalFunc)):
                c = Polynomial.constant(variables, c)
            if c.variables != variables:
                raise ValueError("component over wrong variables")
            comps.append(c)
        if len(comps) != target.nvars:
            raise ValidationError("expected %d components, got %d" % (target.nvars, len(comps)))
        self.components = tuple(comps)
        self.name = name
        self._validated = None
        self._powers = None
        self._dcomp = None
        if check:
            self.ensure_valid()

    @property
    def lane(self):
        return "exact" if all(isinstance(c, Polynomial) for c in self.components) else "numeric"

    def validate(self):
        """Exact on-variety check: each generator vanishes after substitution."""
        if self._validated is not None:
            return self._validated
        residuals = []
        for j, f in enumerate(self.target.ideal_generators):
            value = self.substitute(f)
            if not value.is_zero():
                residuals.append((j, parts(value)[0]))
        self._validated = SimplexCertificate(not residuals, residuals)
        return self._validated

    def ensure_valid(self):
        cert = self.validate()
        if not cert:
            j, res = cert.residuals[0]
            raise InvalidSimplex(
                "generator %d leaves residual %s on %s"
                % (j, res, self.name or "simplex")
            )

    def face(self, i):
        """Restriction along the i-th face inclusion."""
        return self.compose_delta(DeltaMorphism.face(self.n, i))

    def compose_delta(self, h):
        """Precompose with the affine map of a simplex-category morphism."""
        if h.target != self.n:
            raise ValueError("morphism target does not match simplex dimension")
        substitute, _ = affine_map(h.values, h.source, self.n)
        comps = [substitute(c) for c in self.components]
        composed = ParamSimplex(h.source, self.target, comps, check=False)
        if self._validated:
            # f(sigma o h) = f(sigma) o h = 0: a valid simplex has valid faces
            composed._validated = self._validated
        return composed

    def component_powers(self, index, k):
        """sigma_index ** k by repeated multiplication, cached."""
        if self._powers is None:
            one = Polynomial.constant(simplex_variables(self.n), 1)
            self._powers = [[one] for _ in self.components]
        powers = self._powers[index]
        while len(powers) <= k:
            powers.append(powers[-1] * self.components[index])
        return powers[k]

    def substitute(self, f):
        """f(sigma_1, ..., sigma_m) on the simplex: a Polynomial, or a
        RationalFunc where a denominator is left."""
        variables = simplex_variables(self.n)
        total = Polynomial.zero(variables)
        for e, c in sorted(f.terms.items()):
            piece = Polynomial.constant(variables, c)
            for i, k in enumerate(e):
                if k:
                    piece = piece * self.component_powers(i, k)
            total = total + piece
        return total

    def component_differentials(self):
        """The 1-forms d(sigma_i) on the simplex, cached."""
        if self._dcomp is None:
            self._dcomp = [d_simplex(PolyForm(self.n, 0, {(): c})) for c in self.components]
        return self._dcomp

    def key(self):
        """Canonical description used to identify equal simplices."""
        return (
            self.n,
            tuple(
                tuple(tuple(sorted(p.terms.items())) for p in parts(c)) for c in self.components
            ),
        )

    def __repr__(self):
        return "ParamSimplex(%s: Delta^%d -> %r)" % (
            self.name or "?",
            self.n,
            self.target,
        )


def pullback_form(sigma, omega):
    """The substitution morphism x_i -> sigma_i, dx_i -> d sigma_i.

    A dg-algebra morphism, well defined on the quotient because the
    simplex kills the ideal; raises InvalidSimplex otherwise.
    """
    if omega.algebra != sigma.target:
        raise AlgebraMismatch("form and simplex over different algebras")
    sigma.ensure_valid()
    return pull_back(omega.terms, omega.degree, sigma.n, sigma.substitute,
                     sigma.component_differentials())


def period(omega, sigma, order=DEFAULT_QUAD_ORDER):
    """(value, error estimate) of the integral of the pulled-back form.

    Defined for a degree-p form on a p-simplex; exact (Fraction, 0) on
    the polynomial lane, quadrature on the rational lane.
    """
    if omega.degree != sigma.n:
        raise DimensionMismatch(
            "degree %d form against a %d-simplex" % (omega.degree, sigma.n)
        )
    pulled = pullback_form(sigma, omega)
    if pulled.is_polynomial():
        return integrate_exact(pulled), Fraction(0)
    return integrate_numeric(pulled, order)


class SingularFamily:
    """A finite family of parametrized simplices closed under faces.

    Faces are computed symbolically and identified by exact equality of
    their components, so shared edges collapse to a single simplex; the
    resulting face table forms an honest finite simplicial set on which
    cochains, chains, and the Alexander-Whitney product all make sense.
    """

    def __init__(self, simplices):
        named = []
        for idx, sigma in enumerate(simplices):
            if sigma.name is None:
                sigma.name = "s%d" % idx
            named.append(sigma)
        if not named:
            raise ValueError("empty family")
        self.target = named[0].target
        for sigma in named:
            if sigma.target is not self.target:
                raise ValueError("family simplices target different varieties")
            sigma.ensure_valid()
        self.simplex_of = {}
        faces = {}
        by_dim = {}
        by_key = {}

        def register(sigma):
            key = sigma.key()
            if key in by_key:
                return by_key[key]
            name = sigma.name
            if name in self.simplex_of:
                name = "%s'" % name
                sigma.name = name
            self.simplex_of[name] = sigma
            by_dim.setdefault(sigma.n, []).append(name)
            by_key[key] = name
            return name

        queue = []
        for sigma in named:
            queue.append(register(sigma))
        while queue:
            name = queue.pop(0)
            sigma = self.simplex_of[name]
            if sigma.n == 0:
                continue
            for i in range(sigma.n + 1):
                face_simplex = sigma.face(i)
                face_simplex.name = "%s/%d" % (name, i)
                known = register(face_simplex)
                if known == face_simplex.name:
                    queue.append(known)
                faces[(name, i)] = known
        simplices_by_dim = {d: tuple(sorted(v)) for d, v in by_dim.items()}
        self.complex = FiniteSimplicialSet("singular", simplices_by_dim, faces)

    def simplex(self, name):
        return self.simplex_of[name]

    def names(self, dim):
        return self.complex.n_simplices(dim)

    def chain(self, degree, coeffs):
        return Chain(self.complex, degree, coeffs)

    def __repr__(self):
        return "SingularFamily(%r)" % (self.complex,)


def period_cochain(omega, family, order=DEFAULT_QUAD_ORDER):
    """Evaluate the period of a degree-p form on every p-simplex.

    Returns (Cochain, dict of quadrature error estimates by simplex).
    """
    values = {}
    estimates = {}
    for name in family.names(omega.degree):
        value, estimate = period(omega, family.simplex(name), order)
        values[name] = value
        estimates[name] = estimate
    return Cochain(family.complex, omega.degree, values), estimates


def chain_map_residual(omega, sigma, order=DEFAULT_QUAD_ORDER):
    """xi(d omega)(sigma) - sum_i (-1)^i xi(omega)(face_i sigma).

    Stokes' theorem on the simplex says this vanishes; the exact lane
    must give literally zero, the numeric lane reports magnitude and an
    error estimate.
    """
    d_omega = d_algebraic(omega)
    lhs, lhs_est = period(d_omega, sigma, order)
    rhs = 0
    est = lhs_est
    for i in range(sigma.n + 1):
        value, face_est = period(omega, sigma.face(i), order)
        rhs = rhs + ((-1) ** i) * value
        est = est + face_est
    return lhs - rhs, est


def naturality_residual(sigma, h, omega):
    """pullback_form(sigma . h, omega) - h^* pullback_form(sigma, omega).

    Exactly zero because substitution commutes with affine
    reparametrization; returned as a form for symbolic comparison.
    """
    left = pullback_form(sigma.compose_delta(h), omega)
    right = pullback_delta(h, pullback_form(sigma, omega))
    return left - right


def multiplicativity_check(omega1, omega2, family, chain, order=DEFAULT_QUAD_ORDER):
    """Cohomology-level multiplicativity, tested by pairing with a cycle.

    lhs = <xi(omega1 ^ omega2), z>, rhs = <xi(omega1) u xi(omega2), z>;
    the difference is a coboundary paired against a cycle, so the
    theorem predicts a zero residual.  Returns (lhs, rhs, estimate).
    """
    if not is_cycle(chain):
        raise NotACycle("multiplicativity needs a cycle")
    for omega in (omega1, omega2):
        if not d_algebraic(omega).is_zero():
            raise NotClosedForm("multiplicativity needs closed forms")
    product = wedge_algebraic(omega1, omega2)
    lhs_cochain, lhs_est = period_cochain(product, family, order)
    a, a_est = period_cochain(omega1, family, order)
    b, b_est = period_cochain(omega2, family, order)
    rhs_cochain = aw_cup(a, b)
    lhs = pair(lhs_cochain, chain)
    rhs = pair(rhs_cochain, chain)
    estimate = chain_estimate(lhs_est, chain) + _cup_estimate(a, b, a_est, b_est, chain)
    return lhs, rhs, estimate


def chain_estimate(estimates, chain):
    """The error estimate of a pairing: sum of |coefficient| * estimate over the chain."""
    total = 0.0
    for name, coeff in sorted(chain.coeffs.items()):
        total += abs(coeff) * float(estimates.get(name, 0))
    return total


def _cup_estimate(a, b, a_est, b_est, chain):
    complex_ = chain.complex
    total = 0.0
    for name, coeff in sorted(chain.coeffs.items()):
        front = complex_.front_face(name, a.degree)
        back = complex_.back_face(name, b.degree)
        fa = float(a_est.get(front, 0))
        fb = float(b_est.get(back, 0))
        total += abs(coeff) * (
            fa * abs(float(b.values[back])) + fb * abs(float(a.values[front])) + fa * fb
        )
    return total
