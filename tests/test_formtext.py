"""The expression reader of `formtext`, against values built by direct arithmetic."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rhamcheck.errors import ParseError
from rhamcheck.formtext import MAX_NESTING, eval_form, parse_polynomial
from rhamcheck.poly import Polynomial
from rhamcheck.ratfunc import parts, ratio
from rhamcheck.simplex_forms import PolyForm, simplex_variables, wedge

# The reader reads over NAMES; the oracle builds PolyForms on the
# 3-simplex, whose third variable t3 stands for x.
NAMES = ("t1", "t2", "x")
N = 3
T = simplex_variables(N)

# Precedence of a text's outermost rule: an operand whose rule binds
# looser than its place needs is parenthesized.
SUM, PRODUCT, SIGNED, POWER, ATOM = range(5)


def scalar(coefficient):
    return PolyForm(N, 0, {(): coefficient})


ONE = scalar(Polynomial.constant(T, 1))


def variable(i):
    return scalar(Polynomial.variable(T, i))


def differential(i):
    return PolyForm(N, 1, {(i,): 1})


def power(base, k):
    value = ONE
    for _ in range(k):
        value = wedge(value, base)
    return value


def quotient(a, b):
    """a / b for a 0-form b, or the reader's refusal when b is zero."""
    if b.is_zero():
        return "division by zero"
    num, den = parts(b.terms[()])
    return wedge(a, scalar(ratio(den, num)))


def combine(op, a, b):
    """op(a, b), or the first refusal among a, b and op, as the reader reports it."""
    for value in (a, b):
        if isinstance(value, str):
            return value
    return op(a, b)


def wrap(case, level):
    text, prec, _ = case
    return text if prec >= level else "(%s)" % text


@st.composite
def cases(draw, degree=None, depth=3):
    """(text, precedence, value) of random form text of `degree`: its value is
    a PolyForm computed alongside the text, or the message of its refusal."""
    if degree is None:
        degree = draw(st.integers(0, 2))
    leaves = {0: ["literal", "variable"], 1: ["differential"]}.get(degree, [])
    compound = ["sum", "product", "negation", "plus", "parentheses", "quotient"]
    compound += ["power"] if degree == 0 else ["wedge"]
    if depth <= 0:
        kinds = leaves or ["product", "wedge"]  # split into two smaller degrees
    else:
        kinds = leaves + compound
    kind = draw(st.sampled_from(kinds))

    def sub(d):
        return cases(d, depth - 1)

    if kind == "literal":
        k = draw(st.integers(0, 12))
        return str(k), ATOM, scalar(Polynomial.constant(T, k))
    if kind == "variable":
        i = draw(st.integers(0, N - 1))
        return NAMES[i], ATOM, variable(i)
    if kind == "differential":
        i = draw(st.integers(0, N - 1))
        return "d" + NAMES[i], ATOM, differential(i)
    if kind in ("product", "wedge"):
        least = 1 if kind == "wedge" or depth <= 0 else 0
        p = draw(st.integers(least, degree - least)) if degree >= 2 * least else None
        if p is None:  # no split into two forms of degree >= 1
            return draw(cases(degree, depth - 1))
        a, b = draw(sub(p)), draw(sub(degree - p))
        if kind == "wedge":
            return wrap(a, ATOM) + "^" + wrap(b, POWER), POWER, combine(wedge, a[2], b[2])
        return wrap(a, PRODUCT) + draw(st.sampled_from(["*", " * "])) + wrap(b, SIGNED), \
            PRODUCT, combine(wedge, a[2], b[2])
    if kind == "sum":
        a, b = draw(sub(degree)), draw(sub(degree))
        op = draw(st.sampled_from(["+", " + ", "-", " - "]))
        value = combine((lambda u, v: u + v) if "+" in op else (lambda u, v: u - v), a[2], b[2])
        return wrap(a, SUM) + op + wrap(b, PRODUCT), SUM, value
    if kind == "negation":
        a = draw(sub(degree))
        return "-" + wrap(a, SIGNED), SIGNED, a[2] if isinstance(a[2], str) else -a[2]
    if kind == "plus":
        a = draw(sub(degree))
        return "+" + wrap(a, SIGNED), SIGNED, a[2]
    if kind == "parentheses":
        a = draw(sub(degree))
        return "(%s)" % a[0], ATOM, a[2]
    if kind == "quotient":
        a, b = draw(sub(degree)), draw(sub(0))
        return wrap(a, PRODUCT) + "/" + wrap(b, SIGNED), PRODUCT, combine(quotient, a[2], b[2])
    a, k = draw(sub(0)), draw(st.integers(0, 3))
    exponent = draw(st.sampled_from(["%d", "(%d)", "((%d))", "(+%d)"])) % k
    value = a[2] if isinstance(a[2], str) else power(a[2], k)
    return wrap(a, ATOM) + "^" + exponent, POWER, value


def over_t(c):
    """A coefficient over NAMES as the same function over T."""
    num, den = parts(c)
    return ratio(Polynomial(T, num.terms), Polynomial(T, den.terms))


def same_value(a, b):
    (an, ad), (bn, bd) = parts(a), parts(b)
    return an * bd == bn * ad


T1, T2, X = (variable(i) for i in range(N))
DT1, DT2 = differential(0), differential(1)
EXPONENT_REFUSAL = "exponent must be a literal integer"


@settings(max_examples=300, derandomize=True, deadline=None)
@given(cases())
@example(("t1^(2)", POWER, power(T1, 2)))
@example(("t1^((2))", POWER, power(T1, 2)))
@example(("t1^(+2)", POWER, power(T1, 2)))
@example(("-t1^2", SIGNED, -power(T1, 2)))
@example(("dt1^dt2^dt1", POWER, wedge(DT1, wedge(DT2, DT1))))
@example(("2/(1 + t1^2)*dt1", PRODUCT,
          wedge(quotient(scalar(Polynomial.constant(T, 2)), ONE + power(T1, 2)), DT1)))
@example(("x^2^3", POWER, EXPONENT_REFUSAL))
@example(("t1^(1+1)", POWER, EXPONENT_REFUSAL))
def test_reader_matches_direct_arithmetic(case):
    text, _, expected = case
    if isinstance(expected, str):
        with pytest.raises(ParseError) as err:
            eval_form(text, NAMES)
        assert str(err.value) == expected
        return
    degree, terms = eval_form(text, NAMES)
    assert degree == expected.degree, text
    assert set(terms) == set(expected.terms), text
    for S, c in terms.items():
        assert same_value(over_t(c), expected.terms[S]), (text, S)


def test_parentheses_nest_up_to_the_module_constant():
    deepest = "(" * MAX_NESTING + "x" + ")" * MAX_NESTING
    assert parse_polynomial(deepest, ("x",)) == parse_polynomial("x", ("x",))
    with pytest.raises(ParseError, match="parentheses nested deeper than %d" % MAX_NESTING):
        parse_polynomial("(" + deepest + ")", ("x",))


@pytest.mark.parametrize("text, message", [
    ("2²", "unexpected character '²' in '2²'"),
    ("x²", "unknown name 'x²' in form text"),
    ("1" * 5000, "integer of 5000 digits is too long"),
    ("x + foo + )", "unexpected token ')' in 'x + foo + )'"),
    ("foo^(x^y)", "unknown name 'foo' in form text"),
    ("foo + 1/0", "unknown name 'foo' in form text"),
    ("x^(--2)", EXPONENT_REFUSAL),
    ("x^foo", EXPONENT_REFUSAL),
    ("dx^x^y", EXPONENT_REFUSAL),
    ("dx^x^2", "'^' after a form must wedge another form"),
])
def test_reader_refuses_with_the_first_fault(text, message):
    """Malformed text is refused before a fault of its value, and of those
    the first in evaluation order; the exponent of a scalar is not evaluated."""
    with pytest.raises(ParseError) as err:
        eval_form(text, ("x", "y"))
    assert str(err.value).startswith(message)
