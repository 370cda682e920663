"""Multivariate polynomial arithmetic over exact rationals.

Polynomials are stored as a dictionary from exponent vectors to exact
coefficients, under a fixed degree-reverse-lexicographic term order.
A stored coefficient is never zero and never a float: it is an int when
its value is integral and a Fraction with denominator > 1 otherwise, so
the common integer case pays no gcd.  `int / int` is a float, so every
division of coefficients goes through Fraction (`_quotient`).

On top of the arithmetic this module holds the program's one Groebner
engine.  It works on vectors (monomial, position) -> coefficient of a
free module, ordered term over position: `reduce_vector` divides and
`buchberger` computes reduced bases of submodules; `term_vector` and
`vector_terms` turn a form's terms, position -> Polynomial, into its
vector and back.  A polynomial is a vector at the one position (), and
`groebner_basis` and `normal_form` are the engine there.  Expression
text is read by `formtext`, which builds its values with this arithmetic.

The order is degree-compatible, so reduction never raises total degree;
the truncated de Rham machinery relies on that.
"""

from __future__ import annotations

import heapq
from fractions import Fraction
from functools import lru_cache
from numbers import Number
from operator import add, le, neg, sub

from .errors import ResourceBudgetExceeded

DEFAULT_PAIR_BUDGET = 20000
POWER_CACHE_SIZE = 256  # (base, k) pairs of `substitute`; `--builtin all` uses 35


def drl_key(expts):
    """Sort key for degrevlex: bigger key means bigger monomial."""
    return (sum(expts), tuple(map(neg, reversed(expts))))


def monomial_mul(a, b):
    return tuple(map(add, a, b))


def monomial_divides(a, b):
    """True iff monomial a divides monomial b."""
    return all(map(le, a, b))


def monomial_div(a, b):
    return tuple(map(sub, a, b))


def monomial_lcm(a, b):
    return tuple(max(x, y) for x, y in zip(a, b))


def _coefficient(value):
    """The stored form of an exact scalar: int if integral, else Fraction."""
    if type(value) not in (int, Fraction):
        value = Fraction(value)
    return value.numerator if value.denominator == 1 else value


def _quotient(a, b):
    """Exact a / b of two coefficients; `int / int` would be a float."""
    if b == 1:
        return a
    q = Fraction(a, b)
    return q.numerator if q.denominator == 1 else q


def _add_multiple(terms, poly_terms, coeff, shift=None):
    """terms += coeff * x^shift * poly, in place; cancelled terms are dropped."""
    for e, c in poly_terms.items():
        if shift is not None:
            e = monomial_mul(e, shift)
        v = terms.get(e, 0) + coeff * c
        if v:
            terms[e] = v
        else:
            del terms[e]


class Polynomial:
    """An exact multivariate polynomial over a fixed ordered variable tuple.

    Immutable by convention: nothing assigns to `variables` or `terms`, or
    changes the `terms` dict, after construction.  The cached leading term
    and hash, and the kernels memoised on Polynomial keys (`_power` and
    `ratfunc`'s), rely on that.
    """

    __slots__ = ("variables", "terms", "_lead", "_hash")

    def __init__(self, variables, terms):
        self.variables = tuple(variables)
        clean = {}
        nvars = len(self.variables)
        for expts, coeff in terms.items():
            coeff = _coefficient(coeff)
            if coeff == 0:
                continue
            if len(expts) != nvars:
                raise ValueError("exponent vector length != number of variables")
            clean[tuple(expts)] = coeff
        self.terms = clean
        self._lead = None
        self._hash = None

    @classmethod
    def _of(cls, variables, terms):
        """Trusted constructor for results of this module's arithmetic.

        `variables` is already a tuple, the keys are exponent tuples of its
        length and the values exact; only zeros are dropped and integral
        Fractions demoted to int.
        """
        poly = object.__new__(cls)
        poly.variables = variables
        poly.terms = {
            e: c.numerator if type(c) is Fraction and c.denominator == 1 else c
            for e, c in terms.items()
            if c
        }
        poly._lead = None
        poly._hash = None
        return poly

    @classmethod
    def zero(cls, variables):
        return cls._of(tuple(variables), {})

    @classmethod
    def constant(cls, variables, value):
        variables = tuple(variables)
        return cls._of(variables, {(0,) * len(variables): _coefficient(value)})

    @classmethod
    def variable(cls, variables, index):
        variables = tuple(variables)
        expts = [0] * len(variables)
        expts[index] = 1
        return cls._of(variables, {tuple(expts): 1})

    def is_zero(self):
        return not self.terms

    def is_constant(self):
        return all(sum(e) == 0 for e in self.terms)

    def constant_value(self):
        if self.is_zero():
            return 0
        if not self.is_constant():
            raise ValueError("not a constant polynomial")
        return next(iter(self.terms.values()))

    def total_degree(self):
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def leading_term(self):
        """(exponents, coefficient) of the degrevlex-largest term.

        Cached on first use: no code changes `terms` after construction.
        """
        if self._lead is None:
            expts = max(self.terms, key=drl_key)
            self._lead = expts, self.terms[expts]
        return self._lead

    def __eq__(self, other):
        return (
            isinstance(other, Polynomial)
            and self.variables == other.variables
            and self.terms == other.terms
        )

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.variables, frozenset(self.terms.items())))
        return self._hash

    def _check(self, other):
        if self.variables != other.variables:
            raise ValueError("polynomials over different variable tuples")

    def __add__(self, other):
        if not isinstance(other, Polynomial):
            if not isinstance(other, Number):
                return NotImplemented  # a RationalFunc adds itself
            other = Polynomial.constant(self.variables, other)
        self._check(other)
        terms = dict(self.terms)
        for e, c in other.terms.items():
            terms[e] = terms.get(e, 0) + c
        return Polynomial._of(self.variables, terms)

    __radd__ = __add__

    def __neg__(self):
        return Polynomial._of(self.variables, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, Polynomial):
            return self.scale(other) if isinstance(other, Number) else NotImplemented
        self._check(other)
        terms = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = monomial_mul(e1, e2)
                terms[e] = terms.get(e, 0) + c1 * c2
        return Polynomial._of(self.variables, terms)

    def __rmul__(self, other):
        return self.scale(other)

    def scale(self, scalar):
        scalar = _coefficient(scalar)
        if scalar == 0:
            return Polynomial.zero(self.variables)
        return Polynomial._of(self.variables, {e: c * scalar for e, c in self.terms.items()})

    def __pow__(self, n):
        if n < 0:
            raise ValueError("negative power")
        result = Polynomial.constant(self.variables, 1)
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def monic(self):
        if self.is_zero():
            return self
        _, lc = self.leading_term()
        return self.scale(_quotient(1, lc))

    def partial(self, index):
        """Termwise partial derivative with respect to variable `index`."""
        terms = {}
        for e, c in self.terms.items():
            k = e[index]
            if k == 0:
                continue
            de = list(e)
            de[index] = k - 1
            de = tuple(de)
            terms[de] = terms.get(de, 0) + c * k
        return Polynomial._of(self.variables, terms)

    def substitute(self, values):
        """Substitute values[i] (a Polynomial) for variable i.  The powers
        values[i]**k come from `_power`, memoised across calls."""
        if len(values) != len(self.variables):
            raise ValueError("substitution arity mismatch")
        if not values:
            return self
        target_vars = values[0].variables
        if any(v.variables != target_vars for v in values):
            raise ValueError("polynomials over different variable tuples")
        one = Polynomial.constant(target_vars, 1)
        result = {}
        for e, c in sorted(self.terms.items()):
            term = None
            for i, k in enumerate(e):
                if k:
                    power = _power(values[i], k)
                    term = power if term is None else term * power
            _add_multiple(result, one.terms if term is None else term.terms, c)
        return Polynomial._of(target_vars, result)

    def eval_fraction(self, point):
        """Exact evaluation at a tuple of Fractions."""
        total = Fraction(0)
        for e, c in self.terms.items():
            v = c
            for x, k in zip(point, e):
                if k:
                    v *= Fraction(x) ** k
            total += v
        return total

    def divide_exact(self, divisor):
        """Quotient self/divisor if the division is exact, else None."""
        if divisor.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        self._check(divisor)
        lead_e, lead_c = divisor.leading_term()
        rem = dict(self.terms)
        quot = {}
        while rem:
            re = max(rem, key=drl_key)
            if not monomial_divides(lead_e, re):
                return None
            shift = monomial_div(re, lead_e)
            quot[shift] = fac = _quotient(rem[re], lead_c)
            _add_multiple(rem, divisor.terms, -fac, shift)
        return Polynomial._of(self.variables, quot)

    def sorted_terms(self):
        """Terms in descending degrevlex order."""
        return sorted(self.terms.items(), key=lambda item: drl_key(item[0]), reverse=True)

    def __str__(self):
        if self.is_zero():
            return "0"
        parts = []
        for e, c in self.sorted_terms():
            factors = []
            for name, k in zip(self.variables, e):
                if k == 1:
                    factors.append(name)
                elif k:
                    factors.append("%s^%d" % (name, k))
            if not factors:
                body = _fmt_fraction(abs(c))
            elif abs(c) == 1:
                body = "*".join(factors)
            else:
                body = _fmt_fraction(abs(c)) + "*" + "*".join(factors)
            if not parts:
                parts.append(body if c > 0 else "-" + body)
            else:
                parts.append(("+ " if c > 0 else "- ") + body)
        return " ".join(parts)

    __repr__ = __str__


@lru_cache(maxsize=POWER_CACHE_SIZE)
def _power(base, k):
    """base**k as ((base * base) * base) ..., left to right, where `**` squares
    and may order the terms otherwise; a loop, since products of substituted
    polynomials take k past formtext's MAX_POWER_DEGREE."""
    power = base
    for _ in range(k - 1):
        power = power * base
    return power


def _fmt_fraction(q):
    if q.denominator == 1:
        return str(q.numerator)
    return "%d/%d" % (q.numerator, q.denominator)


# ---------------------------------------------------------------------------
# division and Buchberger, on vectors (monomial, position) -> coefficient


def term_vector(terms):
    """A form's terms, position S -> Polynomial, as the vector (monomial, S) -> coefficient."""
    return {(e, S): c for S, poly in terms.items() for e, c in poly.terms.items()}


def vector_terms(vec, variables):
    """The inverse of `term_vector`: position S -> Polynomial over the tuple
    `variables`, each monomial in the order the vector lists it."""
    by_position = {}
    for (e, S), c in vec.items():
        by_position.setdefault(S, {})[e] = c
    return {S: Polynomial._of(variables, t) for S, t in by_position.items()}


def _term_key(term):
    """Sort key of the term order: degrevlex on the monomial, then the position."""
    return drl_key(term[0]), term[1]


def _heap_key(term):
    """Min-heap key of a term: the least key is the largest term.

    It negates `_term_key` entry by entry, which reverses its order since
    the positions of one vector are tuples of one length.
    """
    m, S = term
    return -sum(m), m[::-1], tuple(map(neg, S))


def _add_shifted(vec, terms, coeff, shift):
    """vec += coeff * x^shift * terms, in place; cancelled terms are dropped."""
    for (e, S), c in terms.items():
        key = (monomial_mul(e, shift), S)
        v = vec.get(key, 0) + coeff * c
        if v:
            vec[key] = v
        else:
            del vec[key]


def reduce_vector(vec, divisors):
    """Remainder of vec under division by monic vectors, listed per leading position.

    `divisors` maps a position to (leading monomial, vector) pairs whose
    leading term sits there with coefficient 1.  When they are a Groebner
    basis the remainder is the unique normal form, supported on the terms
    no leading term divides; it vanishes exactly on the submodule.

    The terms left to divide are taken from a heap, largest first.  A
    division step only adds terms below the one it removes, as the order
    is a module order, so a term leaves the heap for good once taken; a
    cancelled term stays in the heap and is skipped when it comes up.
    """
    h = dict(vec)
    heap = [(_heap_key(term), term) for term in h]
    heapq.heapify(heap)
    rem = {}
    while heap:
        term = heapq.heappop(heap)[1]
        c = h.pop(term, None)
        if c is None:
            continue  # cancelled, or a second entry of a term already taken
        m, S = term
        for lead, terms in divisors.get(S, ()):
            if monomial_divides(lead, m):
                # h -= c * x^shift * terms, pushing the terms new to h
                shift, coeff = monomial_div(m, lead), -c
                for (e, T), a in terms.items():
                    key = (monomial_mul(e, shift), T)
                    if key == term:
                        continue  # the lead, with coefficient 1, cancels c
                    v = h.get(key)
                    if v is None:
                        h[key] = coeff * a
                        heapq.heappush(heap, (_heap_key(key), key))
                    else:
                        v += coeff * a
                        if v:
                            h[key] = v
                        else:
                            del h[key]
                break
        else:
            rem[term] = c
    return rem


def buchberger(generators, seeds=()):
    """Reduced Groebner basis of the submodule that seeds and generators span.

    Both are lists of vectors; the basis comes back per leading position
    as (leading monomial, monic vector) pairs.  `seeds` must be the
    reduced Groebner basis of an ideal, placed at every position, so pairs
    of two seeds are skipped.  Each generator is reduced before it is
    inserted.  Pairs are taken from a heap, lowest lcm term first, only
    between leads at the same position.  A pair is dropped when its
    S-vector has a representation below the lcm, by
    - the chain criterion: a third lead k at the position divides the lcm
      and the pairs (i, k), (j, k) are treated; S(i, j) is a combination
      of S(i, k) and S(j, k) with monomial factors;
    - the product criterion: the two leads are coprime, and one element is
      a seed a*e_S or both lie at one position.  With g = LT(g) + g', the
      S-vector is (a - LT(a))*g - sum_T g'_T*(a*e_T), each a*e_T a seed,
      or (f - LT(f))*g - g'*f.  Otherwise g' may reach other positions.
    A pair the product criterion drops counts as treated.  Raises
    ResourceBudgetExceeded past DEFAULT_PAIR_BUDGET pairs queued or
    popped; pairs dropped by the product criterion are never queued.
    """
    budget = DEFAULT_PAIR_BUDGET
    basis, leads, divisors = [], [], {}
    at = {}  # position -> indices of the elements that lead there
    pairs, done = [], set()  # a heap of (lcm term key, i, j, lcm), and the pairs treated
    n_seeds = len(seeds)
    single = []  # per element: whether every term lies at its lead's position

    def append(vec):
        (m, S) = lead = max(vec, key=_term_key)
        vec = {t: _quotient(c, vec[lead]) for t, c in vec.items()}
        new = len(basis)
        single.append(all(T == S for _, T in vec))
        for k in at.get(S, ()) if new >= n_seeds else ():
            lcm = monomial_lcm(leads[k][0], m)
            if lcm == monomial_mul(leads[k][0], m) and (k < n_seeds or single[k] and single[new]):
                done.add((k, new))  # product criterion
            else:
                heapq.heappush(pairs, (_term_key((lcm, S)), k, new, lcm))
        basis.append(vec)
        leads.append((m, S))
        at.setdefault(S, []).append(new)
        divisors.setdefault(S, []).append((m, vec))

    def insert(vec):
        vec = reduce_vector(vec, divisors)
        if vec:
            append(vec)

    for vec in seeds:
        append(vec)
    for vec in generators:
        insert(vec)

    def treated(i, k):
        return max(i, k) < n_seeds or (min(i, k), max(i, k)) in done

    processed = 0
    while pairs:
        processed += 1
        if processed > budget or len(pairs) > budget:
            raise ResourceBudgetExceeded("Groebner pair queue exceeded budget of %d" % budget)
        (_, S), i, j, lcm = heapq.heappop(pairs)
        done.add((i, j))
        if any(k != i and k != j and monomial_divides(leads[k][0], lcm)
               and treated(i, k) and treated(j, k) for k in at[S]):
            continue  # chain criterion
        s_vector = {}
        _add_shifted(s_vector, basis[i], 1, monomial_div(lcm, leads[i][0]))
        _add_shifted(s_vector, basis[j], -1, monomial_div(lcm, leads[j][0]))
        insert(s_vector)

    # minimalise, then tail-reduce: the unique reduced basis.  No two leads
    # are equal, as each element was reduced by the earlier ones; a tail
    # term is below its own lead, so no element reduces its own tail.
    kept = {S: [(leads[k][0], basis[k]) for k in indices
                if not any(k2 != k and monomial_divides(leads[k2][0], leads[k][0])
                           for k2 in indices)]
            for S, indices in at.items()}
    reduced = {}
    for S, elements in kept.items():
        for m, vec in elements:
            tail = reduce_vector({t: c for t, c in vec.items() if t != (m, S)}, kept)
            tail[(m, S)] = 1
            reduced.setdefault(S, []).append((m, tail))
    for vec in generators:
        if reduce_vector(vec, reduced):
            raise AssertionError("input generator does not reduce to zero: %s" % vec)
    return reduced


def normal_form(f, basis):
    """Remainder of f under multivariate division by `basis`.

    When `basis` is a Groebner basis the remainder is the unique normal
    form; it vanishes exactly when f lies in the ideal.  Degrevlex is
    degree-compatible, so the remainder never has larger total degree
    than f.
    """
    if any(g.variables != f.variables for g in basis):
        raise ValueError("polynomials over different variable tuples")
    divisors = {(): [(g.leading_term()[0], term_vector({(): g.monic()}))
                     for g in basis if not g.is_zero()]}
    rem = reduce_vector(term_vector({(): f}), divisors)
    return vector_terms(rem, f.variables).get((), Polynomial.zero(f.variables))


def groebner_basis(generators):
    """Reduced degrevlex Groebner basis of the ideal the generators span.

    `buchberger` at the one position (), in increasing order of leading
    monomial; desk-scale ideals only.
    """
    gens = list(generators)
    if any(g.is_zero() for g in gens):
        raise ValueError("zero generator handed to groebner_basis")
    if any(g.variables != gens[0].variables for g in gens):
        raise ValueError("polynomials over different variable tuples")
    reduced = buchberger([term_vector({(): g}) for g in gens])
    return [vector_terms(vec, gens[0].variables)[()]
            for _, vec in sorted(reduced.get((), ()), key=lambda item: drl_key(item[0]))]
