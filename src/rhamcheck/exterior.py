"""The exterior-algebra rules shared by every form type.

A homogeneous form of degree p is a dict from index sets to
coefficients: the key S = (i_1 < ... < i_p) stands for the basis element
dx_{i_1} ^ ... ^ dx_{i_p}.  The functions here apply the sign rules of
the wedge product and the differential to such dicts.  They need of a
coefficient only `+`, `*`, `scale`, `is_zero` and `partial`, so the
same code serves Polynomial coefficients (algebraic forms) and the
Polynomial or RationalFunc coefficients of forms on simplices and of
form text, mixed in one form.
"""

from __future__ import annotations


def insert_index(i, S):
    """(sign, S u {i}) for dx_i ^ dx_S; sign 0 when i already occurs."""
    if i in S:
        return 0, None
    pos = sum(1 for s in S if s < i)
    return (-1) ** pos, tuple(sorted(S + (i,)))


def merge_sign(S1, S2):
    """Sign of sorting the concatenation of two disjoint sorted index sets."""
    inversions = sum(1 for a in S1 for b in S2 if a > b)
    return (-1) ** inversions


def check_index_set(S, degree, nvars):
    """S as a tuple; ValueError unless it is `degree` increasing indices below nvars."""
    S = tuple(S)
    if len(S) != degree or list(S) != sorted(set(S)):
        raise ValueError("bad index set %r for degree %d" % (S, degree))
    if any(not 0 <= i < nvars for i in S):
        raise ValueError("index set %r out of range for %d variables" % (S, nvars))
    return S


def _accumulate(out, S, value):
    out[S] = out[S] + value if S in out else value


def _nonzero(terms):
    return {S: c for S, c in terms.items() if not c.is_zero()}


def wedge_terms(terms1, terms2):
    """Terms of the wedge product of two forms given by their terms."""
    out = {}
    for S1, c1 in terms1.items():
        for S2, c2 in terms2.items():
            if set(S1) & set(S2):
                continue
            _accumulate(out, tuple(sorted(S1 + S2)), (c1 * c2).scale(merge_sign(S1, S2)))
    return _nonzero(out)


def d_terms(terms, nvars):
    """Terms of d(sum_S c_S dx_S) = sum_S sum_i dc_S/dx_i dx_i ^ dx_S."""
    out = {}
    for S, c in terms.items():
        for i in range(nvars):
            if i in S:
                continue
            dc = c.partial(i)
            if not dc.is_zero():
                sign, T = insert_index(i, S)
                _accumulate(out, T, dc.scale(sign))
    return _nonzero(out)


def d_monomial(e, S):
    """d(x^e dx_S) as (coefficient, exponents, index set) triples."""
    for i, k in enumerate(e):
        if k:
            sign, T = insert_index(i, S)
            if sign:
                yield sign * k, e[:i] + (k - 1,) + e[i + 1 :], T


def format_terms(terms, variables):
    """Form text for the terms, in the syntax that form text parses."""
    if not terms:
        return "0"
    parts = []
    for S in sorted(terms):
        dx = "^".join("d" + variables[i] for i in S)
        text = str(terms[S])
        if not S:
            parts.append(text)
        elif text == "1":
            parts.append(dx)
        elif text == "-1":
            parts.append("-" + dx)
        elif "+" in text[1:] or "-" in text[1:] or "/" in text:
            parts.append("(%s)*%s" % (text, dx))
        else:
            parts.append("%s*%s" % (text, dx))
    return " + ".join(parts).replace("+ -", "- ")


class ExteriorForm:
    """Linear structure shared by the form types.

    A subclass holds `degree`, `terms` and `variables`, and supplies
    `_make(degree, terms)`, which builds a form over the same space.  It
    may override `_check(other)` to raise unless `other` lives there too.
    Zero forms carry their degree only as a label: a zero summand is the
    identity of `+` for a form of any degree.

    Wedge and d are module functions of each form type, not methods
    here, so that algebraic forms always come back reduced.
    """

    __slots__ = ()

    def _check(self, other):
        pass

    def is_zero(self):
        return not self.terms

    def __add__(self, other):
        self._check(other)
        if self.degree != other.degree and self.terms and other.terms:
            raise ValueError("cannot add forms of different degree")
        terms = dict(self.terms)
        for S, c in other.terms.items():
            _accumulate(terms, S, c)
        degree = self.degree if self.terms or not other.terms else other.degree
        return self._make(degree, terms)

    def __sub__(self, other):
        return self + other.scale(-1)

    def __neg__(self):
        return self.scale(-1)

    def scale(self, scalar):
        return self._make(self.degree, {S: c.scale(scalar) for S, c in self.terms.items()})

    def __str__(self):
        return format_terms(self.terms, self.variables)

    __repr__ = __str__
