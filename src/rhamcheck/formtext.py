"""Evaluation of differential-form text.

Form text reuses the polynomial expression grammar; a name `d<var>` is
read as the basis differential of a declared variable, `^` between
differentials is the wedge, and `*` mixes scalars into forms:

    x*dy - y*dx        2/(1 + t1^2) * dt1        t1*t2 * dt1^dt2
"""

from __future__ import annotations

from .errors import ParseError
from .exterior import ExteriorForm, wedge_terms
from .poly import Polynomial
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
    kind = node[0]
    if kind == "num":
        return RationalFunc.constant(variables, node[1])
    if kind == "var":
        name = node[1]
        if name in variables:
            return RationalFunc(Polynomial.variable(variables, variables.index(name)))
        if name.startswith("d") and name[1:] in variables:
            idx = variables.index(name[1:])
            return _FormValue(variables, 1, {(idx,): RationalFunc.constant(variables, 1)})
        raise ParseError("unknown name %r in form text" % name)
    if kind == "neg":
        return -_eval(node[1], variables)
    if kind in ("+", "-"):
        a = _eval(node[1], variables)
        b = _eval(node[2], variables)
        if isinstance(a, _FormValue) or isinstance(b, _FormValue):
            a = _promote(a, variables)
            b = _promote(b, variables)
        try:
            return a + b.scale(1 if kind == "+" else -1)
        except ValueError as exc:
            raise ParseError(str(exc)) from None
    if kind == "^":
        left = _eval(node[1], variables)
        if isinstance(left, _FormValue):
            right = _eval(node[2], variables)
            if not isinstance(right, _FormValue):
                raise ParseError("'^' after a form must wedge another form")
            return _wedge(left, right)
        exponent = node[2]
        if exponent[0] != "num":
            raise ParseError("exponent must be a literal integer")
        return left ** exponent[1]
    if kind == "*":
        a = _eval(node[1], variables)
        b = _eval(node[2], variables)
        if isinstance(a, _FormValue) and isinstance(b, _FormValue):
            return _wedge(a, b)
        if isinstance(a, _FormValue):
            return a._make(a.degree, {S: c * b for S, c in a.terms.items()})
        if isinstance(b, _FormValue):
            return b._make(b.degree, {S: a * c for S, c in b.terms.items()})
        return a * b
    if kind == "/":
        a = _eval(node[1], variables)
        b = _eval(node[2], variables)
        if isinstance(b, _FormValue):
            raise ParseError("cannot divide by a form")
        if isinstance(a, _FormValue):
            return a._make(a.degree, {S: c / b for S, c in a.terms.items()})
        return a / b
    raise ParseError("bad expression node %r" % (node,))


def _promote(value, variables):
    if isinstance(value, _FormValue):
        return value
    return _FormValue(variables, 0, {(): value})


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
