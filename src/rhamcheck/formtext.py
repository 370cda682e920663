"""Evaluation of expression text: polynomials, rational functions and forms.

All scenario text goes through one evaluator over the expression grammar
of `poly.parse_ast`.  A name `d<var>` is read as the basis differential
of a declared variable, `^` between differentials is the wedge, and `*`
mixes scalars into forms:

    x^2 + y^2 - 1      x*dy - y*dx      2/(1 + t1^2) * dt1      t1*t2 * dt1^dt2
"""

from __future__ import annotations

from fractions import Fraction

from .errors import ParseError
from .exterior import ExteriorForm, wedge_terms
from .poly import Polynomial, parse_ast
from .ratfunc import RationalFunc


class _FormValue(ExteriorForm):
    """Intermediate value: homogeneous form as dict S -> RationalFunc."""

    __slots__ = ("variables", "degree", "terms")

    def __init__(self, variables, degree, terms):
        self.variables = variables
        self.degree = degree
        self.terms = {S: c for S, c in terms.items() if not c.is_zero()}

    def _make(self, degree, terms):
        return _FormValue(self.variables, degree, terms)


def _wedge(a, b):
    return a._make(a.degree + b.degree, wedge_terms(a.terms, b.terms))


def _eval(node, variables):
    """Scalars stay Polynomial, the cheaper type, until a division needs a
    RationalFunc; form coefficients are always RationalFunc."""
    kind = node[0]
    if kind == "num":
        return Polynomial.constant(variables, node[1])
    if kind == "var":
        name = node[1]
        if name in variables:
            return Polynomial.variable(variables, variables.index(name))
        if name.startswith("d") and name[1:] in variables:
            idx = variables.index(name[1:])
            return _FormValue(variables, 1, {(idx,): RationalFunc.constant(variables, 1)})
        raise ParseError("unknown name %r in form text" % name)
    if kind == "neg":
        return -_eval(node[1], variables)
    a = _eval(node[1], variables)
    if kind == "^":
        if isinstance(a, _FormValue):
            right = _eval(node[2], variables)
            if not isinstance(right, _FormValue):
                raise ParseError("'^' after a form must wedge another form")
            return _wedge(a, right)
        exponent = node[2]
        if exponent[0] != "num":
            raise ParseError("exponent must be a literal integer")
        return a ** exponent[1]
    b = _eval(node[2], variables)
    forms = isinstance(a, _FormValue), isinstance(b, _FormValue)
    if kind in ("+", "-"):
        if any(forms):
            a, b = _promote(a, variables), _promote(b, variables)
        elif not isinstance(a, type(b)):
            a, b = _rational(a), _rational(b)
        try:
            return a + b.scale(1 if kind == "+" else -1)
        except ValueError as exc:
            raise ParseError(str(exc)) from None
    if kind == "*":
        if all(forms):
            return _wedge(a, b)
        if forms[0]:
            return a._make(a.degree, {S: c * _rational(b) for S, c in a.terms.items()})
        if forms[1]:
            return b._make(b.degree, {S: _rational(a) * c for S, c in b.terms.items()})
        return a * b if isinstance(a, type(b)) else _rational(a) * _rational(b)
    if kind == "/":
        if forms[1]:
            raise ParseError("cannot divide by a form")
        if b.is_zero():
            raise ParseError("division by zero")
        if forms[0]:
            return a._make(a.degree, {S: c / b for S, c in a.terms.items()})
        if isinstance(b, Polynomial) and b.is_constant():
            return a.scale(Fraction(1, b.constant_value()))
        return _rational(a) / b
    raise ParseError("bad expression node %r" % (node,))


def _rational(value):
    return RationalFunc(value) if isinstance(value, Polynomial) else value


def _promote(value, variables):
    if isinstance(value, _FormValue):
        return value
    return _FormValue(variables, 0, {(): _rational(value)})


def eval_form_ast(node, variables, rational=True):
    """Evaluate parsed form text to (degree, terms dict S -> coefficient).

    With rational=False the coefficients must be polynomial and come back
    as Polynomial values; otherwise they are RationalFunc.
    """
    variables = tuple(variables)
    value = _promote(_eval(node, variables), variables)
    if rational:
        return value.degree, dict(value.terms)
    terms = {}
    for S, c in value.terms.items():
        poly = c.as_polynomial()
        if poly is None:
            raise ParseError("rational coefficient %s in a polynomial-only context" % c)
        terms[S] = poly
    return value.degree, terms


def parse_polynomial(text, variables):
    """Parse scalar text with polynomial value, e.g. 'x^2 + y^2 - 1'.

    Division is allowed where it is exact, so '(x^2 - 1)/(x - 1)' reads
    as x + 1; a form of degree >= 1 or a proper fraction is refused.
    """
    degree, terms = eval_form_ast(parse_ast(text), variables, rational=False)
    if degree != 0:
        raise ParseError("%r is a %d-form, not a polynomial" % (text, degree))
    return terms.get((), Polynomial.zero(variables))
