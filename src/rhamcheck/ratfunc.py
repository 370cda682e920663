"""Rational functions on a simplex, with a positivity certificate.

A scalar on a simplex is a Polynomial when its denominator is constant,
and a RationalFunc, a pair of polynomials num/den in the affine simplex
coordinates t1..tn, only when it is not: the type is the lane, exact
or numeric.  `ratio` is the one constructor that decides.  It
normalizes without gcd machinery: it cancels an exact division, makes
the denominator monic, and returns a Polynomial when the denominator
comes out constant.  All RationalFunc arithmetic that can change the
denominator returns through it, and Polynomial arithmetic hands mixed
operands to RationalFunc.
Equality is decided by cross-multiplication.

Products, partial derivatives and substitutions are memoised
(`_product`, `_partial`, `_substitute`, each an lru_cache of
RATIONAL_CACHE_SIZE entries), because the simplices of a run pull back
along a few arc maps and so repeat the same algebra many times.  The
caches are keyed on the (num, den) polynomials of the representation,
not on the value: a*q/(b*q) and a/b are equal RationalFuncs, but `ratio`
does not reduce them to one representation, and the two can integrate
to different last bits, so they keep separate entries.  A cached result is
handed to every caller; that is safe because nothing changes a
Polynomial or a RationalFunc after construction.

Denominators are admitted for quadrature when they pass a Polya-style
certificate: rewritten in barycentric coordinates and multiplied by a
power of (u0+...+un), every monomial of the right degree must appear
with a strictly positive coefficient.  That is sufficient for strict
positivity on the closed simplex.  Verdicts are cached per denominator
and power bound, since the faces of a family share few denominators.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import combinations_with_replacement
from math import comb

from .errors import DenominatorVanishes
from .poly import Polynomial

CERTIFICATE_POWER_BOUND = 6
CERTIFICATE_CACHE_SIZE = 256
RATIONAL_CACHE_SIZE = 1024  # operand tuples kept per kernel; `--builtin all` uses at most 130


def ratio(num, den):
    """num/den, normalized: a Polynomial when den divides num exactly or is
    constant, otherwise a RationalFunc with a monic denominator."""
    if den.is_zero():
        raise ZeroDivisionError("rational function with zero denominator")
    if num.variables != den.variables:
        raise ValueError("numerator and denominator over different variables")
    if num.is_zero():
        return num
    if den.is_constant():
        return num.scale(Fraction(1, den.constant_value()))
    quot = num.divide_exact(den)
    if quot is not None:
        return quot
    _, lc = den.leading_term()
    if lc != 1:
        num, den = num.scale(Fraction(1, lc)), den.scale(Fraction(1, lc))
    return RationalFunc(num, den)


def parts(value):
    """(numerator, denominator) of a Polynomial or a RationalFunc."""
    if isinstance(value, RationalFunc):
        return value.num, value.den
    return value, Polynomial.constant(value.variables, 1)


class RationalFunc:
    """num/den with a denominator that is not constant; built by `ratio`,
    which keeps num and den over one variable tuple and den monic.

    Immutable by convention: nothing assigns to `num` or `den` after
    construction, which the memoised kernels below rely on.
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den):
        self.num = num
        self.den = den

    @property
    def variables(self):
        return self.num.variables

    def is_zero(self):
        return self.num.is_zero()

    def __add__(self, other):
        if not isinstance(other, RationalFunc):
            if isinstance(other, Polynomial) and other.is_zero():
                return self
            return ratio(self.num + other * self.den, self.den)
        # denominators are usually powers of the same factors; dividing one
        # into the other keeps sums from blowing up quadratically
        quot = other.den.divide_exact(self.den)
        if quot is not None:
            return ratio(self.num * quot + other.num, other.den)
        quot = self.den.divide_exact(other.den)
        if quot is not None:
            return ratio(self.num + other.num * quot, self.den)
        return ratio(self.num * other.den + other.num * self.den, self.den * other.den)

    __radd__ = __add__

    def __neg__(self):
        return RationalFunc(-self.num, self.den)

    def __mul__(self, other):
        if isinstance(other, RationalFunc):
            return _product(self.num, self.den, other.num, other.den)
        if isinstance(other, Polynomial):
            return _product(self.num, self.den, other, None)
        return ratio(self.num * other, self.den)

    __rmul__ = __mul__

    def __pow__(self, n):
        return ratio(self.num**n, self.den**n)

    def scale(self, scalar):
        if scalar == 0:
            return Polynomial.zero(self.variables)
        return RationalFunc(self.num.scale(scalar), self.den)

    def __eq__(self, other):
        if not isinstance(other, RationalFunc):
            return NotImplemented
        return (self.num * other.den) == (other.num * self.den)

    def partial(self, index):
        """Quotient rule derivative with respect to variable `index`."""
        return _partial(self.num, self.den, index)

    def substitute(self, values):
        """Substitute polynomials for the variables (e.g. affine maps)."""
        return _substitute(self.num, self.den, tuple(values))

    def eval_fraction(self, point):
        den = self.den.eval_fraction(point)
        if den == 0:
            raise ZeroDivisionError("denominator vanished at evaluation point")
        return self.num.eval_fraction(point) / den

    def certify_denominator(self, power_bound=CERTIFICATE_POWER_BOUND):
        """Check the positivity certificate; raises DenominatorVanishes."""
        if not _has_certificate(self.den, power_bound):
            raise DenominatorVanishes(
                "no positivity certificate for denominator %s" % self.den
            )
        return True

    def __str__(self):
        num = str(self.num)
        if len(self.num.terms) > 1:
            num = "(%s)" % num
        return "%s/(%s)" % (num, self.den)

    __repr__ = __str__


@lru_cache(maxsize=RATIONAL_CACHE_SIZE)
def _product(num, den, other_num, other_den):
    """(num/den) * (other_num/other_den), normalized; other_den is None for a
    polynomial factor."""
    if other_den is None:
        return ratio(num * other_num, den)
    return ratio(num * other_num, den * other_den)


@lru_cache(maxsize=RATIONAL_CACHE_SIZE)
def _partial(num, den, index):
    """d(num/den)/dt_index by the quotient rule, normalized."""
    return ratio(num.partial(index) * den - num * den.partial(index), den * den)


@lru_cache(maxsize=RATIONAL_CACHE_SIZE)
def _substitute(num, den, values):
    """num/den with the tuple of Polynomials `values` put in for the variables."""
    return ratio(num.substitute(values), den.substitute(values))


def _barycentric_homogenization(poly):
    """Coefficients of the degree-D homogenization in u0..un, t_i = u_i."""
    n = len(poly.variables)
    degree = poly.total_degree()
    out = {}
    for e, c in poly.terms.items():
        deficit = degree - sum(e)
        # multiply by (u0 + ... + un)^deficit and collect monomials in u
        for combo in combinations_with_replacement(range(n + 1), deficit):
            mult = _multinomial(combo, n + 1)
            u = [0] * (n + 1)
            u[1:] = list(e)
            for i in combo:
                u[i] += 1
            key = tuple(u)
            out[key] = out.get(key, Fraction(0)) + c * mult
    return degree, {k: v for k, v in out.items() if v}


def _multinomial(combo, nslots):
    counts = [0] * nslots
    for i in combo:
        counts[i] += 1
    total = len(combo)
    value = 1
    remaining = total
    for c in counts:
        value *= comb(remaining, c)
        remaining -= c
    return value


@lru_cache(maxsize=CERTIFICATE_CACHE_SIZE)
def _has_certificate(den, power_bound):
    """Memoized certificate verdict; a Polynomial hashes on its variables and terms."""
    return _positive_on_simplex(den, power_bound)


def _positive_on_simplex(poly, power_bound):
    """Polya certificate: (sum u)^r * hom(poly) has full positive support."""
    nvars = len(poly.variables)
    degree, hom = _barycentric_homogenization(poly)
    if not hom:
        return False
    for r in range(power_bound + 1):
        if r > 0:
            bumped = {}
            for u, c in hom.items():
                for i in range(nvars + 1):
                    key = u[:i] + (u[i] + 1,) + u[i + 1 :]
                    bumped[key] = bumped.get(key, Fraction(0)) + c
            hom = {k: v for k, v in bumped.items() if v}
            degree += 1
        expected = _count_monomials(nvars + 1, degree)
        if len(hom) == expected and all(c > 0 for c in hom.values()):
            return True
    return False


def _count_monomials(nslots, degree):
    return comb(degree + nslots - 1, nslots - 1)
