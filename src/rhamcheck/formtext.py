"""Evaluation of expression text: polynomials, rational functions and forms.

All scenario text goes through one evaluator over the expression grammar
of `poly.parse_ast`.  A name `d<var>` is read as the basis differential
of a declared variable, `^` between differentials is the wedge, and `*`
mixes scalars into forms:

    x^2 + y^2 - 1      x*dy - y*dx      2/(1 + t1^2) * dt1      t1*t2 * dt1^dt2

A scalar or form coefficient is a Polynomial, or a RationalFunc where a
division leaves a denominator that is not constant (see `ratfunc.ratio`).
"""

from __future__ import annotations

from fractions import Fraction

from .errors import ParseError
from .exterior import ExteriorForm, wedge_terms
from .poly import Polynomial, parse_ast
from .ratfunc import parts, ratio


class _FormValue(ExteriorForm):
    """Intermediate value: homogeneous form as dict S -> coefficient."""

    __slots__ = ("variables", "degree", "terms")

    def __init__(self, variables, degree, terms):
        self.variables = variables
        self.degree = degree
        self.terms = {S: c for S, c in terms.items() if not c.is_zero()}

    def _make(self, degree, terms):
        return _FormValue(self.variables, degree, terms)


def _wedge(a, b):
    return a._make(a.degree + b.degree, wedge_terms(a.terms, b.terms))


def _divide(a, b):
    (an, ad), (bn, bd) = parts(a), parts(b)
    return ratio(an * bd, ad * bn)


def _eval(node, variables):
    kind = node[0]
    if kind == "num":
        return Polynomial.constant(variables, node[1])
    if kind == "var":
        name = node[1]
        if name in variables:
            return Polynomial.variable(variables, variables.index(name))
        if name.startswith("d") and name[1:] in variables:
            idx = variables.index(name[1:])
            return _FormValue(variables, 1, {(idx,): Polynomial.constant(variables, 1)})
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
        try:
            return a + b.scale(1 if kind == "+" else -1)
        except ValueError as exc:
            raise ParseError(str(exc)) from None
    if kind == "*":
        if all(forms):
            return _wedge(a, b)
        if forms[0]:
            return a._make(a.degree, {S: c * b for S, c in a.terms.items()})
        if forms[1]:
            return b._make(b.degree, {S: a * c for S, c in b.terms.items()})
        return a * b
    if kind == "/":
        if forms[1]:
            raise ParseError("cannot divide by a form")
        if b.is_zero():
            raise ParseError("division by zero")
        if isinstance(b, Polynomial) and b.is_constant():
            return a.scale(Fraction(1, b.constant_value()))
        if forms[0]:
            return a._make(a.degree, {S: _divide(c, b) for S, c in a.terms.items()})
        return _divide(a, b)
    raise ParseError("bad expression node %r" % (node,))


def _promote(value, variables):
    if isinstance(value, _FormValue):
        return value
    return _FormValue(variables, 0, {(): value})


def eval_form_ast(node, variables):
    """Evaluate parsed form text to (degree, terms dict S -> coefficient)."""
    variables = tuple(variables)
    value = _promote(_eval(node, variables), variables)
    return value.degree, dict(value.terms)


def parse_polynomial(text, variables):
    """Parse scalar text with polynomial value, e.g. 'x^2 + y^2 - 1'.

    Division is allowed where it is exact, so '(x^2 - 1)/(x - 1)' reads
    as x + 1; a form of degree >= 1 or a proper fraction is refused.
    """
    degree, terms = eval_form_ast(parse_ast(text), variables)
    if degree != 0:
        raise ParseError("%r is a %d-form, not a polynomial" % (text, degree))
    value = terms.get((), Polynomial.zero(variables))
    if not isinstance(value, Polynomial):
        raise ParseError("rational coefficient %s in a polynomial-only context" % value)
    return value
