"""The expression reader of `formtext`, against values built by direct arithmetic."""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rhamcheck import formtext
from rhamcheck.errors import ParseError
from rhamcheck.formtext import (MAX_NESTING, MAX_POWER_DEGREE, MAX_POWER_TERMS, _Reader,
                                eval_form, parse_polynomial)
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


def literal(k):
    return scalar(Polynomial.constant(T, k))


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
# numbers fold under * and / until they meet a variable, never into a literal exponent
@example(("x^(6/3)", POWER, EXPONENT_REFUSAL))
@example(("x^(2*3)", POWER, EXPONENT_REFUSAL))
@example(("2/(3/4)*x", PRODUCT, wedge(quotient(literal(2), quotient(literal(3), literal(4))), X)))
@example(("-(2/3)*x^2", PRODUCT, wedge(-quotient(literal(2), literal(3)), power(X, 2))))
@example(("x/2/3", PRODUCT, quotient(quotient(X, literal(2)), literal(3))))
@example(("2^3*x", PRODUCT, wedge(power(literal(2), 3), X)))
@example(("1/0*x", PRODUCT, "division by zero"))
# a folded sum: x cancels and comes back
@example(("x + t1 - x + x", SUM, X + T1 - X + X))
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


def test_literal_powers_are_bounded_by_degree_and_by_terms():
    """A power's term bound C(n + D, n) counts the n variables of its base
    only, so x^64 loads over many variables.  (1 + x + y + z + w)^16 took
    22 s while `Polynomial.__pow__` squared once more than it used."""
    names = ("x", "y", "z", "w")
    assert len(parse_polynomial("x^%d" % MAX_POWER_DEGREE, names).terms) == 1
    assert len(parse_polynomial("(1 + x + y + z + w)^16", names).terms) == 4845 <= MAX_POWER_TERMS
    with pytest.raises(ParseError, match="power of up to 5985 terms is above %d" % MAX_POWER_TERMS):
        parse_polynomial("(1 + x + y + z + w)^17", names)
    with pytest.raises(ParseError, match="power of degree 70 is above"):
        eval_form("(1/(1 + x^7))^10 * dx", names)


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
    # a short text held the loader for seconds: 5.4 s and 2.0 s
    ("(1+x+y)^150", "power of degree 150 is above %d in '(1+x+y)^150'" % MAX_POWER_DEGREE),
    ("(1+x)^2000", "power of degree 2000 is above %d" % MAX_POWER_DEGREE),
    ("x^(%d)" % (MAX_POWER_DEGREE + 1), "power of degree %d is above" % (MAX_POWER_DEGREE + 1)),
    ("x^%d + foo" % MAX_POWER_DEGREE, "unknown name 'foo' in form text"),
    ("(1+x+y)^99 + foo", "power of degree 99 is above"),
    ("x +", "text ends where a value is expected in 'x +'"),
    ("2/", "text ends where a value is expected in '2/'"),
    ("-", "text ends where a value is expected in '-'"),
    ("", "text ends where a value is expected in ''"),
    ("x^(", "text ends where a value is expected in 'x^('"),
])
def test_reader_refuses_with_the_first_fault(text, message):
    """Malformed text is refused before a fault of its value, and of those
    the first in evaluation order; the exponent of a scalar is not evaluated."""
    with pytest.raises(ParseError) as err:
        eval_form(text, ("x", "y"))
    assert str(err.value).startswith(message)


def read_representation(degree, terms):
    """Degree and terms in stored order, each coefficient as its type and the
    ordered terms, with coefficient types, of its numerator and denominator."""
    return degree, [(S, type(c).__name__,
                     [[(e, v, type(v).__name__) for e, v in p.terms.items()] for p in parts(c)])
                    for S, c in terms.items()]


def test_reads_are_memoised_per_text_and_variables():
    text = "2/(1 + t1^2)*dt1 + t1*x*dx - t2^3/(1 + x^2)*dt2"
    formtext._read.cache_clear()
    fresh = _Reader(text, NAMES).read()
    expected = read_representation(fresh.degree, fresh.terms)
    first = eval_form(text, list(NAMES))
    assert read_representation(*first) == expected
    # a caller that changes its terms dict does not change the next read
    first[1].clear()
    assert read_representation(*eval_form(text, NAMES)) == expected
    info = formtext._read.cache_info()
    assert (info.hits, info.currsize, info.maxsize) == (1, 1, formtext.READ_CACHE_SIZE)
    # other variables are another read
    reordered = eval_form(text, ("x", "t1", "t2"))[1]
    assert {c.variables for c in reordered.values()} == {("x", "t1", "t2")}
    assert formtext._read.cache_info().currsize == 2
    # the polynomial check runs on every call, after the cache
    assert eval_form("1/(1 + x)", ("x",))[0] == 0
    for _ in range(2):
        with pytest.raises(ParseError, match="rational coefficient"):
            eval_form("1/(1 + x)", ("x",), polynomial=True)


def test_refused_reads_raise_every_time_and_are_not_cached():
    formtext._read.cache_clear()
    messages = []
    for _ in range(2):
        with pytest.raises(ParseError) as err:
            eval_form("x + foo + 1/0", ("x",))
        messages.append(str(err.value))
    assert messages == ["unknown name 'foo' in form text"] * 2
    assert formtext._read.cache_info().currsize == 0


# (text, variables) -> read_representation, for the relation shapes of the
# benchmark's exact-lane varieties and a simplex component of the corpus
PINNED_READS = {
    ("25/81*x^2 + 49/64*y^2 - 1", ("x", "y")):
        (0, [((), "Polynomial", [[((2, 0), Fraction(25, 81), "Fraction"),
                                  ((0, 2), Fraction(49, 64), "Fraction"), ((0, 0), -1, "int")],
                                 [((0, 0), 1, "int")]])]),
    ("4*x*y - 1", ("x", "y")):
        (0, [((), "Polynomial", [[((1, 1), 4, "int"), ((0, 0), -1, "int")], [((0, 0), 1, "int")]])]),
    ("4/9*x^2 + y^2 + 9/49*z^2 - 1", ("x", "y", "z")):
        (0, [((), "Polynomial", [[((2, 0, 0), Fraction(4, 9), "Fraction"), ((0, 2, 0), 1, "int"),
                                  ((0, 0, 2), Fraction(9, 49), "Fraction"), ((0, 0, 0), -1, "int")],
                                 [((0, 0, 0), 1, "int")]])]),
    ("1/4*z^2 + 16/9*w^2 - 1", ("x", "y", "z", "w")):
        (0, [((), "Polynomial", [[((0, 0, 2, 0), Fraction(1, 4), "Fraction"),
                                  ((0, 0, 0, 2), Fraction(16, 9), "Fraction"),
                                  ((0, 0, 0, 0), -1, "int")], [((0, 0, 0, 0), 1, "int")]])]),
    ("(1 - t1^2)/(1 + t1^2)", ("t1",)):
        (0, [((), "RationalFunc", [[((0,), 1, "int"), ((2,), -1, "int")],
                                   [((0,), 1, "int"), ((2,), 1, "int")]])]),
    # a term that cancels and comes back is stored last; 2/2 is stored as an int
    ("x + y - x + 2/2*x", ("x", "y")):
        (0, [((), "Polynomial", [[((0, 1), 1, "int"), ((1, 0), 1, "int")], [((0, 0), 1, "int")]])]),
    ("1/2*x*dx + 1/2*x*dx - 2*dy", ("x", "y")):
        (1, [((0,), "Polynomial", [[((1, 0), 1, "int")], [((0, 0), 1, "int")]]),
             ((1,), "Polynomial", [[((0, 0), -2, "int")], [((0, 0), 1, "int")]])]),
}


@pytest.mark.parametrize("text, variables", list(PINNED_READS))
def test_reads_keep_their_stored_order_and_coefficient_types(text, variables):
    value = _Reader(text, variables).read()
    assert read_representation(value.degree, value.terms) == PINNED_READS[text, variables]


# Polynomial objects made reading each relation: one, its folded sum of
# monomials; with an object per token the ellipse took 23
RELATION_BUILDS = [("25/81*x^2 + 49/64*y^2 - 1", ("x", "y"), 1),
                   ("4/9*x^2 + 1/4*y^2 + 9/49*z^2 - 1", ("x", "y", "z"), 1),
                   ("1/4*x^2 + 16/9*y^2 - 1", ("x", "y", "z", "w"), 1),
                   ("4*z^2 + 9/25*w^2 - 1", ("x", "y", "z", "w"), 1)]


@pytest.mark.parametrize("text, variables, bound", RELATION_BUILDS)
def test_relation_reads_build_few_polynomials(monkeypatch, text, variables, bound):
    built = []
    make = Polynomial._of.__func__

    def counted(cls, *args):
        built.append(args)
        return make(cls, *args)

    monkeypatch.setattr(Polynomial, "_of", classmethod(counted))
    _Reader(text, variables).read()
    assert len(built) <= bound
