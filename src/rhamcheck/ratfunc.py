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

Sums, products, partial derivatives and substitutions are memoised
(`_sum`, an lru_cache of SUM_CACHE_SIZE entries, and `_product`,
`_partial`, `_substitute`, each of RATIONAL_CACHE_SIZE), because the
simplices of a run pull back along a few arc maps and so repeat the same
algebra many times (unmemoised, `--builtin all` makes 660 sums of only 50
operand tuples).  The caches are keyed on the (num, den) polynomials of
the representation, not on the value: a*q/(b*q) and a/b are equal
RationalFuncs, but `ratio` does not reduce them to one representation,
and the two can integrate to different last bits, so they keep separate
entries.  A cached result is handed to every caller; that is safe
because nothing changes a Polynomial or a RationalFunc after construction.

Denominators are admitted for quadrature when they, or their negatives,
pass a Polya-style certificate: rewritten in barycentric coordinates and
multiplied by a power of (u0+...+un), every monomial of the right degree
must appear with a strictly positive coefficient.  That is sufficient for
strict positivity on the closed simplex, so the denominator has no zero
there.  Both steps are Polynomial arithmetic in u0..un.  Verdicts are
cached per denominator and power bound, since the faces of a family share
few denominators.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb

from .errors import DenominatorVanishes
from .poly import Polynomial

CERTIFICATE_POWER_BOUND = 6
CERTIFICATE_CACHE_SIZE = 256
RATIONAL_CACHE_SIZE = 1024  # operand tuples per kernel; `--builtin all` uses 130, 20 and 32
SUM_CACHE_SIZE = 128  # `--builtin all` uses 38


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
        if isinstance(other, RationalFunc):
            return _sum(self.num, self.den, other.num, other.den)
        if isinstance(other, Polynomial):
            return self if other.is_zero() else _sum(self.num, self.den, other, None)
        return ratio(self.num + other * self.den, self.den)

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

    def certify_denominator(self):
        """Check the positivity certificate; raises DenominatorVanishes."""
        if not _has_certificate(self.den, CERTIFICATE_POWER_BOUND):
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


@lru_cache(maxsize=SUM_CACHE_SIZE)
def _sum(num, den, other_num, other_den):
    """(num/den) + (other_num/other_den), normalized; other_den is None for a
    polynomial summand."""
    if other_den is None:
        return ratio(num + other_num * den, den)
    # denominators are usually powers of the same factors; dividing one
    # into the other keeps sums from blowing up quadratically
    quot = other_den.divide_exact(den)
    if quot is not None:
        return ratio(num * quot + other_num, other_den)
    quot = den.divide_exact(other_den)
    if quot is not None:
        return ratio(num + other_num * quot, den)
    return ratio(num * other_den + other_num * den, den * other_den)


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


def _barycentric_homogenization(poly, degree):
    """poly as a form of degree `degree`, at least its total degree, in u0..un, with
    t_i = u_i and s = u0 + ... + un = 1: by Horner's rule in s, the parts P_k of poly
    of degree k give (...(P_0 s + P_1) s + ...) s + P_degree, P_k = 0 above poly's."""
    u = tuple("u%d" % i for i in range(len(poly.variables) + 1))
    total = sum((Polynomial.variable(u, i) for i in range(len(u))), Polynomial.zero(u))
    hom = Polynomial.zero(u)
    for k in range(degree + 1):
        part = {(0,) + e: c for e, c in poly.terms.items() if sum(e) == k}
        hom = hom * total + Polynomial(u, part)
    return hom


@lru_cache(maxsize=CERTIFICATE_CACHE_SIZE)
def _has_certificate(den, power_bound):
    """Memoized verdict: den, or failing that -den, has a certificate (`ratio` stores
    1/(2 - t1^2) as -1/(t1^2 - 2)); a Polynomial hashes on its variables and terms."""
    return _positive_on_simplex(den, power_bound) or _positive_on_simplex(-den, power_bound)


def _positive_on_simplex(poly, power_bound):
    """Polya certificate: for some r <= power_bound, poly as a form of degree D + r in
    u0..un has all comb(D + r + n, n) monomials, each with a positive coefficient."""
    if poly.is_zero():
        return False
    degree, n = poly.total_degree(), len(poly.variables)
    hom = _barycentric_homogenization(poly, degree)
    total = _barycentric_homogenization(Polynomial.constant(poly.variables, 1), 1)  # u0 + ... + un
    for r in range(power_bound + 1):
        if r > 0:
            hom = hom * total
        if len(hom.terms) == comb(degree + r + n, n) and all(c > 0 for c in hom.terms.values()):
            return True
    return False
