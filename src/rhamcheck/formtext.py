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
from .poly import Polynomial
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


def _add(a, b, sign):
    if isinstance(a, _FormValue) or isinstance(b, _FormValue):
        a, b = _promote(a), _promote(b)
    try:
        return a + b.scale(sign)
    except ValueError as exc:
        return ParseError(str(exc))


def _multiply(a, b):
    if isinstance(a, _FormValue) and isinstance(b, _FormValue):
        return a._make(a.degree + b.degree, wedge_terms(a.terms, b.terms))
    if isinstance(a, _FormValue):
        return a._make(a.degree, {S: c * b for S, c in a.terms.items()})
    if isinstance(b, _FormValue):
        return b._make(b.degree, {S: a * c for S, c in b.terms.items()})
    return a * b


def _over(a, b):
    if isinstance(b, _FormValue):
        return ParseError("cannot divide by a form")
    if b.is_zero():
        return ParseError("division by zero")
    if isinstance(b, Polynomial) and b.is_constant():
        return a.scale(Fraction(1, b.constant_value()))
    if isinstance(a, _FormValue):
        return a._make(a.degree, {S: _over(c, b) for S, c in a.terms.items()})
    (an, ad), (bn, bd) = parts(a), parts(b)
    return ratio(an * bd, ad * bn)


_OPERATIONS = {"+": lambda a, b: _add(a, b, 1), "-": lambda a, b: _add(a, b, -1),
               "*": _multiply, "/": _over}


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


class _Reader:
    """Reads one text by the grammar above, evaluating each rule as it matches.
    A literal integer stays an int until an operator takes it, so that `^`
    can tell a literal exponent from any other value."""

    def __init__(self, text, variables):
        self.text, self.variables, self.depth = text, variables, 0
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

    def _lift(self, value):
        return Polynomial.constant(self.variables, value) if type(value) is int else value

    def _apply(self, op, a, b):
        fault = next((v for v in (a, b) if isinstance(v, ParseError)), None)
        return fault or _OPERATIONS[op](self._lift(a), self._lift(b))

    def _expr(self):
        value = self._term()
        while self.next[0] in ("+", "-"):
            value = self._apply(self._take()[0], value, self._term())
        return value

    def _term(self):
        value = self._signed()
        while self.next[0] in ("*", "/"):
            value = self._apply(self._take()[0], value, self._signed())
        return value

    def _signed(self):
        minuses = 0
        while self.next[0] in ("+", "-"):
            minuses += self._take()[0] == "-"
        value = self._power()
        if minuses and not isinstance(value, ParseError):
            value = -self._lift(value) if minuses % 2 else self._lift(value)
        return value

    def _power(self):
        """Leading forms wedge the value of the rest, which must be a form;
        a scalar takes one literal exponent and evaluates no other."""
        atoms = [self._atom()]
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
            value = self._literal_power(self._lift(rest[0]), rest[1])
        else:
            value = ParseError("exponent must be a literal integer")
        if forms and not isinstance(value, (_FormValue, ParseError)):
            value = ParseError("'^' after a form must wedge another form")
        while forms and isinstance(value, _FormValue):
            value = _multiply(forms.pop(), value)
        return value

    def _literal_power(self, base, k):
        exponents = [e for p in parts(base) for e in p.terms]
        degree = k * max(map(sum, exponents), default=0)
        if degree > MAX_POWER_DEGREE:
            return ParseError("power of degree %d is above %d in %r" % (degree, MAX_POWER_DEGREE, self.text))
        terms = comb(sum(map(any, zip(*exponents))) + degree, degree)
        if terms > MAX_POWER_TERMS:
            return ParseError("power of up to %d terms is above %d in %r" % (terms, MAX_POWER_TERMS, self.text))
        return base ** k

    def _atom(self):
        kind, value = self._take()
        if kind == "num":
            return value
        if kind == "name":
            names = self.variables
            if value in names:
                return Polynomial.variable(names, names.index(value))
            if value.startswith("d") and value[1:] in names:
                return _FormValue(names, 1, {(names.index(value[1:]),): self._lift(1)})
            return ParseError("unknown name %r in form text" % value)
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
