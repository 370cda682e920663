"""Expression text: one reader that parses and evaluates as it goes.

Relations, forms and simplex components are text in one grammar, with
spaces between tokens ignored:

    expr   := term (('+' | '-') term)*
    term   := signed (('*' | '/') signed)*
    signed := ('+' | '-')* power
    power  := atom ('^' atom)*            (right-associative)
    atom   := integer | name | '(' expr ')'

An integer is decimal digits; a name (a letter or '_', then letters,
digits or '_') is a variable or `d<variable>`, its basis differential.
`^` wedges forms and raises a scalar to a literal integer, bare or in
parentheses, within MAX_POWER_DEGREE and MAX_POWER_TERMS; `*` mixes
scalars into forms:

    x^2 + y^2 - 1      x*dy - y*dx      2/(1 + t1^2) * dt1      t1^(2) * dt1^dt2

A coefficient is a Polynomial, or a RationalFunc where a division leaves
a denominator that is not constant (see `ratfunc.ratio`).  Each rule
folds in a loop; only parentheses recurse, at most MAX_NESTING deep.  A
fault of the value is carried as its ParseError until the text has
parsed, so malformed text is refused first, then the first fault in
evaluation order.  Every refusal of expression text is raised here.

The reader builds few objects.  A monomial c*x^e, a number or a product
of variables, is the pair (e, c) under `*`, `/`, `^` and signs, exponent
by exponent; a literal integer is an int until an operator takes it, and
no folded value is an int, so `x^(6/3)` is refused like `x^(1+1)`.  A run
of `+` and `-` terms that are monomials or Polynomials folds into one
terms dict, in the order and with the coefficient types that adding them
pairwise gives: a term that cancels is dropped, and comes back last.  A
monomial meets anything else as a Polynomial, and a form or a
RationalFunc is added pairwise.  So `25/81*x^2 + 49/64*y^2 - 1` builds
one Polynomial.

Reads are memoised per (text, variables) (`_read`), since a run reads the
same texts many times: the torus's 128 simplex components are 8 texts.
`eval_form` hands each caller a fresh terms dict.  A refusal is not
cached; it is raised again, with the same message, on every call.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb

from .errors import ParseError
from .exterior import ExteriorForm, wedge_terms
from .poly import Polynomial, monomial_mul
from .ratfunc import parts, ratio

# Each level of parentheses takes five stack frames, so 100 levels stay
# well inside Python's default limit of 1,000; the corpus nests 2 deep.
MAX_NESTING = 100
# A literal power base^k of degree D = k * deg(base) in the n variables of
# its base may have C(n + D, n) terms; past these bounds it is refused, so
# a short text cannot hold the loader (at the bounds it takes under 0.5 s;
# (1+x)^2000 took 2 s and (1+x+y)^150 5 s).  The corpus raises to degree 2.
MAX_POWER_DEGREE = 64
MAX_POWER_TERMS = 5000
READ_CACHE_SIZE = 64  # (text, variables) reads kept; `--builtin all` makes 32


class _FormValue(ExteriorForm):
    """Intermediate value: homogeneous form as dict S -> coefficient."""

    __slots__ = ("variables", "degree", "terms")

    def __init__(self, variables, degree, terms):
        self.variables = variables
        self.degree = degree
        self.terms = {S: c for S, c in terms.items() if not c.is_zero()}

    def _make(self, degree, terms):
        return _FormValue(self.variables, degree, terms)


def _promote(value):
    return value if isinstance(value, _FormValue) else _FormValue(value.variables, 0, {(): value})


def _is_monomial(value):
    """Whether value is a monomial: a literal int, or a pair (exponents, coefficient)."""
    return type(value) is tuple or type(value) is int


def _is_scalar(value):
    """Whether value is a monomial or a Polynomial, the summands a sum folds."""
    return _is_monomial(value) or isinstance(value, Polynomial)


def _tokens(text):
    """The (kind, value) tokens of text, kind 'num', 'name' or the operator."""
    tokens, i, n = [], 0, len(text)
    while i < n:
        ch, j = text[i], i + 1
        if ch.isdecimal():
            while j < n and text[j].isdecimal():
                j += 1
            try:
                tokens.append(("num", int(text[i:j])))
            except ValueError:  # more digits than int() converts
                raise ParseError("integer of %d digits is too long in %r" % (j - i, text)) from None
        elif ch.isalpha() or ch == "_":
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("name", text[i:j]))
        elif ch in "+-*/^()":
            tokens.append((ch, ch))
        elif not ch.isspace():
            raise ParseError("unexpected character %r in %r" % (ch, text))
        i = j
    return tokens


def is_name(word):
    """Whether form text reads word as one name."""
    try:
        return _tokens(word) == [("name", word)]
    except ParseError:
        return False


class _Reader:
    """Reads one text by the grammar above, evaluating each rule as it matches.
    A literal integer stays an int until an operator takes it, so that `^`
    can tell a literal exponent from any other value."""

    def __init__(self, text, variables):
        self.text, self.variables, self.depth = text, variables, 0
        self.constant = (0,) * len(variables)  # the exponents of a number's one term
        self.tokens = iter(_tokens(text))
        self.next = next(self.tokens, (None, None))  # the lookahead token

    def read(self):
        value = self._expr()
        if self.next[0] is not None:
            raise ParseError("trailing input in %r" % self.text)
        if isinstance(value, ParseError):
            raise value
        return _promote(self._lift(value))

    def _take(self):
        token, self.next = self.next, next(self.tokens, (None, None))
        return token

    def _monomial(self, value):
        """A monomial as its pair (exponents, coefficient)."""
        return (self.constant, value) if type(value) is int else value

    def _lift(self, value):
        """A monomial as a Polynomial; any other value as it is."""
        if not _is_monomial(value):
            return value
        e, c = self._monomial(value)
        return Polynomial._of(self.variables, {e: c})

    def _expr(self):
        """A run of terms that are monomials or Polynomials is folded into one
        terms dict in place, in the order and with the cancellations of adding
        them pairwise; a form, a RationalFunc or a fault is added pairwise."""
        value, terms = self._term(), None  # terms: the folded sum, while there is one
        while self.next[0] in ("+", "-"):
            sign = -1 if self._take()[0] == "-" else 1
            term = self._term()
            if _is_scalar(term) and (terms is not None or _is_scalar(value)):
                if terms is None:
                    terms = {}
                    self._fold(terms, value, 1)
                self._fold(terms, term, sign)
                continue
            if terms is not None:
                value, terms = Polynomial._of(self.variables, terms), None
            if not isinstance(value, ParseError):
                value = term if isinstance(term, ParseError) else self._add(value, term, sign)
        return value if terms is None else Polynomial._of(self.variables, terms)

    def _fold(self, terms, value, sign):
        """terms += sign * value, a monomial or a Polynomial; a cancelled term is dropped."""
        items = value.terms.items() if isinstance(value, Polynomial) else (self._monomial(value),)
        for e, c in items:
            if e in terms:
                c = terms[e] + c if sign > 0 else terms[e] - c
                if c:
                    terms[e] = c
                else:
                    del terms[e]
            elif c:
                terms[e] = c if sign > 0 else -c

    def _add(self, a, b, sign):
        """a + sign * b where a or b is a form or a RationalFunc."""
        a, b = self._lift(a), self._lift(b)
        if isinstance(a, _FormValue) or isinstance(b, _FormValue):
            a, b = _promote(a), _promote(b)
        try:
            return a + (b if sign > 0 else b.scale(-1))
        except ValueError as exc:
            return ParseError(str(exc))

    def _term(self):
        value = self._signed()
        while self.next[0] in ("*", "/"):
            op, factor = self._take()[0], self._signed()
            if not isinstance(value, ParseError):
                value = factor if isinstance(factor, ParseError) else \
                    (self._multiply if op == "*" else self._over)(value, factor)
        return value

    def _multiply(self, a, b):
        if _is_monomial(a) and _is_monomial(b):
            (ea, ca), (eb, cb) = self._monomial(a), self._monomial(b)
            return monomial_mul(ea, eb), ca * cb
        a, b = self._lift(a), self._lift(b)
        if isinstance(a, _FormValue) and isinstance(b, _FormValue):
            return a._make(a.degree + b.degree, wedge_terms(a.terms, b.terms))
        if isinstance(a, _FormValue):
            return a._make(a.degree, {S: c * b for S, c in a.terms.items()})
        if isinstance(b, _FormValue):
            return b._make(b.degree, {S: a * c for S, c in b.terms.items()})
        return a * b

    def _over(self, a, b):
        if isinstance(b, _FormValue):
            return ParseError("cannot divide by a form")
        if _is_monomial(b):
            e, c = self._monomial(b)
            if not any(e):  # b is a number
                if not c:
                    return ParseError("division by zero")
                if not _is_monomial(a):
                    return a.scale(Fraction(1, c))
                e, ca = self._monomial(a)
                return e, Fraction(ca, c)
        a, b = self._lift(a), self._lift(b)
        if b.is_zero():
            return ParseError("division by zero")
        if isinstance(b, Polynomial) and b.is_constant():
            return a.scale(Fraction(1, b.constant_value()))
        if isinstance(a, _FormValue):
            return a._make(a.degree, {S: self._over(c, b) for S, c in a.terms.items()})
        (an, ad), (bn, bd) = parts(a), parts(b)
        return ratio(an * bd, ad * bn)

    def _signed(self):
        minuses = 0
        while self.next[0] in ("+", "-"):
            minuses += self._take()[0] == "-"
        value = self._power()
        if minuses and not isinstance(value, ParseError):
            if _is_monomial(value):  # a signed literal is no longer one
                e, c = self._monomial(value)
                value = e, -c if minuses % 2 else c
            elif minuses % 2:
                value = -value
        return value

    def _power(self):
        """Leading forms wedge the value of the rest, which must be a form;
        a scalar takes one literal exponent and evaluates no other."""
        atoms = [self._atom()]
        if self.next[0] != "^":
            return atoms[0]
        while self.next[0] == "^":
            self._take()
            atoms.append(self._atom())
        k = next((i for i, a in enumerate(atoms) if not isinstance(a, _FormValue)), len(atoms))
        forms, rest = atoms[:k], atoms[k:]
        if not rest:
            value = forms.pop()
        elif len(rest) == 1 or isinstance(rest[0], ParseError):
            value = rest[0]
        elif len(rest) == 2 and type(rest[1]) is int:
            value = self._literal_power(rest[0], rest[1])
        else:
            value = ParseError("exponent must be a literal integer")
        if forms and not isinstance(value, (_FormValue, ParseError)):
            value = ParseError("'^' after a form must wedge another form")
        while forms and isinstance(value, _FormValue):
            value = self._multiply(forms.pop(), value)
        return value

    def _literal_power(self, base, k):
        """base^k, a monomial if base is one."""
        if _is_monomial(base):
            e, c = self._monomial(base)
            exponents = [e] if c else []  # the exponents of its Polynomial
        else:
            exponents = [e for p in parts(base) for e in p.terms]
        degree = k * max(map(sum, exponents), default=0)
        if degree > MAX_POWER_DEGREE:
            return ParseError("power of degree %d is above %d in %r" % (degree, MAX_POWER_DEGREE, self.text))
        terms = comb(sum(map(any, zip(*exponents))) + degree, degree)
        if terms > MAX_POWER_TERMS:
            return ParseError("power of up to %d terms is above %d in %r" % (terms, MAX_POWER_TERMS, self.text))
        return (tuple([k * i for i in e]), c ** k) if _is_monomial(base) else base ** k

    def _atom(self):
        kind, value = self._take()
        if kind == "num":
            return value
        if kind == "name":
            names = self.variables
            if value in names:
                unit = [0] * len(names)
                unit[names.index(value)] = 1
                return tuple(unit), 1
            if value.startswith("d") and value[1:] in names:
                return _FormValue(names, 1, {(names.index(value[1:]),): Polynomial.constant(names, 1)})
            return ParseError("unknown name %r in form text" % value)
        if kind is None:
            raise ParseError("text ends where a value is expected in %r" % self.text)
        if kind != "(":
            raise ParseError("unexpected token %r in %r" % (value, self.text))
        if self.depth == MAX_NESTING:
            raise ParseError("parentheses nested deeper than %d in %r" % (MAX_NESTING, self.text))
        self.depth += 1
        value = self._expr()
        self.depth -= 1
        if self._take()[0] != ")":
            raise ParseError("unbalanced parentheses in %r" % self.text)
        return value


def _polynomial_only(c):
    if not isinstance(c, Polynomial):
        raise ParseError("rational coefficient %s in a polynomial-only context" % c)
    return c


@lru_cache(maxsize=READ_CACHE_SIZE)
def _read(text, variables):
    value = _Reader(text, variables).read()
    return value.degree, value.terms


def eval_form(text, variables, polynomial=False):
    """(degree, terms S -> coefficient) of form text over the variables, in a
    fresh dict; with `polynomial`, a coefficient that is no Polynomial is refused."""
    degree, terms = _read(text, tuple(variables))
    for c in terms.values() if polynomial else ():
        _polynomial_only(c)
    return degree, dict(terms)


def eval_scalar(text, variables, noun="scalar"):
    """The Polynomial or RationalFunc value of text, refused if a k-form, k > 0."""
    degree, terms = eval_form(text, variables)
    if degree != 0:
        raise ParseError("%r is a %d-form, not a %s" % (text, degree, noun))
    return terms.get((), Polynomial.zero(variables))


def parse_polynomial(text, variables):
    """The Polynomial value of scalar text, e.g. 'x^2 + y^2 - 1'.  Division must
    be exact: '(x^2 - 1)/(x - 1)' reads as x + 1, and 'x/y' is refused."""
    return _polynomial_only(eval_scalar(text, variables, "polynomial"))
