"""Algebraic differential forms of a finitely presented rational algebra.

For B = Q[x1..xm]/I the module of degree-p forms is presented as the
free module on the dx_S (|S| = p) with polynomial coefficients, modulo
two layers of relations: coefficients are taken modulo I (Groebner
normal forms), and the submodule generated by the df_j is eliminated by
exact linear algebra, stratified by weight.  The weight of a term is
coefficient degree + form degree; the differential preserves it and
degrevlex normal forms never raise it, so forms of weight <= N are an
honest subcomplex and truncated cohomology makes sense.

Truncated dimensions are evidence, not theorems: a `stabilized` flag
records whether two consecutive cutoffs agree.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations

from .errors import AlgebraMismatch, NotACocycle, ParseError, ValidationError
from .exterior import ExteriorForm, check_index_set, d_monomial, d_terms, wedge_terms
from .formtext import eval_form_ast, parse_polynomial
from .linalg import CohomologyPair, Echelon, SparseMatrix, dense_vector, kernel_image, solve
from .poly import Polynomial, drl_key, groebner_basis, monomial_divides, normal_form, parse_ast


class FpAlgebra:
    """A finitely presented commutative algebra with a normal-form oracle."""

    def __init__(self, variables, ideal_generators, pair_budget=None):
        self.variables = tuple(variables)
        gens = []
        for g in ideal_generators:
            if isinstance(g, str):
                g = parse_polynomial(g, self.variables)
            if g.is_zero():
                raise ValidationError("zero ideal generator")
            gens.append(g)
        self.ideal_generators = gens
        kwargs = {} if pair_budget is None else {"pair_budget": pair_budget}
        self.groebner = groebner_basis(gens, **kwargs) if gens else []
        for g in gens:
            if not normal_form(g, self.groebner).is_zero():
                raise AssertionError("Groebner basis does not reduce generator %s" % g)
        self._lead_monomials = [g.leading_term()[0] for g in self.groebner]
        self._std_cache = {}
        self._stratum_cache = {}
        # margin of extra enumeration weight when intersecting the relation
        # submodule with a weight stratum; see _stratum
        degs = [g.total_degree() for g in gens]
        self.relation_margin = (max(degs) + 1) if degs else 1

    @property
    def nvars(self):
        return len(self.variables)

    def nf(self, f):
        return normal_form(f, self.groebner)

    def is_standard(self, monomial):
        return not any(monomial_divides(lm, monomial) for lm in self._lead_monomials)

    def standard_monomials(self, max_degree):
        """Monomials of degree <= max_degree outside the leading-term ideal."""
        if max_degree in self._std_cache:
            return self._std_cache[max_degree]
        out = []
        current = [(0,) * self.nvars]
        out.extend(current)
        for _ in range(max_degree):
            nxt = set()
            for e in current:
                for i in range(self.nvars):
                    bumped = e[:i] + (e[i] + 1,) + e[i + 1 :]
                    if self.is_standard(bumped):
                        nxt.add(bumped)
            current = sorted(nxt)
            out.extend(current)
        out.sort(key=lambda e: (sum(e), drl_key(e)))
        self._std_cache[max_degree] = out
        return out

    def __eq__(self, other):
        return (
            isinstance(other, FpAlgebra)
            and self.variables == other.variables
            and self.ideal_generators == other.ideal_generators
        )

    def __hash__(self):
        return hash((self.variables, tuple(self.ideal_generators)))

    def __repr__(self):
        if not self.ideal_generators:
            return "Q[%s]" % ", ".join(self.variables)
        return "Q[%s]/(%s)" % (
            ", ".join(self.variables),
            ", ".join(str(g) for g in self.ideal_generators),
        )

    def _stratum(self, p, n_cutoff):
        key = (p, n_cutoff)
        if key not in self._stratum_cache:
            self._stratum_cache[key] = _WeightStratum(self, p, n_cutoff)
        return self._stratum_cache[key]


class KaehlerPresentation:
    """Conormal presentation of the degree-one forms of an algebra.

    One row per ideal generator f_j; entry (j, i) is nf(df_j/dx_i), so
    row j spells out the relation sum_i nf(df_j/dx_i) dx_i = 0.
    """

    def __init__(self, algebra):
        self.algebra = algebra
        self.generator_labels = tuple("d" + v for v in algebra.variables)
        self.relation_matrix = [
            [algebra.nf(f.partial(i)) for i in range(algebra.nvars)]
            for f in algebra.ideal_generators
        ]

    def relation_forms(self):
        """Each relation row as a degree-one AlgebraicForm (not reduced)."""
        forms = []
        for row in self.relation_matrix:
            terms = {(i,): c for i, c in enumerate(row) if not c.is_zero()}
            forms.append(AlgebraicForm(self.algebra, 1, terms, reduce=False))
        return forms


class AlgebraicForm(ExteriorForm):
    """A degree-p form: map from strictly increasing index sets to coefficients.

    Construction normalizes coefficients; `reduce=True` (the default)
    additionally eliminates the relation submodule, yielding the
    canonical representative at the form's own weight cutoff.

    The graded algebra has a single zero, so a zero form carries its
    degree only as a label: zero forms over one algebra compare equal
    whatever their degree, and a zero summand is the identity of `+`
    for a form of any degree.  This is the rule `PolyForm` follows.
    """

    __slots__ = ("algebra", "degree", "terms")

    def __init__(self, algebra, degree, terms, reduce=True):
        self.algebra = algebra
        self.degree = degree
        clean = {}
        for S, coeff in terms.items():
            S = check_index_set(S, degree, algebra.nvars)
            coeff = algebra.nf(coeff)
            if not coeff.is_zero():
                clean[S] = coeff
        self.terms = clean
        if reduce and degree >= 1 and algebra.ideal_generators and clean:
            reduced = reduce_form(self)
            self.terms = reduced.terms

    @classmethod
    def zero(cls, algebra, degree):
        return cls(algebra, degree, {})

    @property
    def variables(self):
        return self.algebra.variables

    def weight(self):
        if not self.terms:
            return self.degree
        return max(c.total_degree() for c in self.terms.values()) + self.degree

    def _check(self, other):
        if self.algebra != other.algebra:
            raise AlgebraMismatch("forms over different algebras")

    def _make(self, degree, terms):
        return AlgebraicForm(self.algebra, degree, terms, reduce=False)

    def __eq__(self, other):
        return (
            isinstance(other, AlgebraicForm)
            and self.algebra == other.algebra
            and self.terms == other.terms
        )


def wedge(omega1, omega2):
    """Graded-commutative product; the result is reduced."""
    omega1._check(omega2)
    return AlgebraicForm(
        omega1.algebra, omega1.degree + omega2.degree, wedge_terms(omega1.terms, omega2.terms)
    )


def differential(omega):
    """d(c dx_S) = sum_i dc/dx_i dx_i ^ dx_S, reduced."""
    return AlgebraicForm(omega.algebra, omega.degree + 1, d_terms(omega.terms, omega.algebra.nvars))


class _WeightStratum:
    """Basis and relation echelon for degree-p forms of weight <= N.

    Basis vectors are (standard monomial, index set) pairs ordered by
    (weight, monomial, index set).  The relation submodule is spanned by
    nf-images of m * df_j ^ dx_T; generators are enumerated up to an
    extra weight margin and then intersected with the stratum, so that a
    low-weight combination of high-weight generators is still caught.
    """

    def __init__(self, algebra, p, n_cutoff):
        if n_cutoff < p:
            raise ValueError("weight cutoff below form degree")
        self.algebra = algebra
        self.p = p
        self.n_cutoff = n_cutoff
        margin = algebra.relation_margin
        extended = n_cutoff + margin
        index_sets = list(combinations(range(algebra.nvars), p))
        monos_ext = algebra.standard_monomials(max(extended - p, 0))
        self.ext_basis = []
        for m in monos_ext:
            for S in index_sets:
                self.ext_basis.append((m, S))
        self.ext_basis.sort(key=lambda b: (sum(b[0]) + p, drl_key(b[0]), b[1]))
        self.ext_index = {b: i for i, b in enumerate(self.ext_basis)}
        self.size_ext = len(self.ext_basis)
        # stratum proper: the weight <= N prefix
        self.size = sum(1 for m, _ in self.ext_basis if sum(m) + p <= n_cutoff)
        self.basis = self.ext_basis[: self.size]
        self.index = {b: i for i, b in enumerate(self.basis)}
        self._build_relations(extended)

    def _build_relations(self, extended):
        algebra = self.algebra
        p = self.p
        echelon = Echelon()
        if p >= 1:
            sub_sets = list(combinations(range(algebra.nvars), p - 1))
            for j, f in enumerate(algebra.ideal_generators):
                dcap = extended - p - (f.total_degree() - 1)
                if dcap < 0:
                    continue
                # df_j ^ dx_T = d(f_j dx_T), coefficients in normal form
                relations = [
                    {S: algebra.nf(c) for S, c in d_terms({T: f}, algebra.nvars).items()}
                    for T in sub_sets
                ]
                for m in algebra.standard_monomials(dcap):
                    mono = Polynomial(algebra.variables, {m: Fraction(1)})
                    for relation in relations:
                        vec = {}
                        for S, partial in relation.items():
                            for e, c in algebra.nf(mono * partial).terms.items():
                                idx = self.ext_index.get((e, S))
                                if idx is None:
                                    raise AssertionError(
                                        "relation generator escaped the extended stratum"
                                    )
                                vec[idx] = c
                        if vec:
                            echelon.add(vec)
        # intersect with the stratum: the rows lying entirely in the prefix,
        # those whose pivot (their largest index) is below the stratum size
        self.relations = Echelon(row for pivot, row in echelon.rows.items() if pivot < self.size)

    def vector_of(self, omega):
        """Coordinates of a (coefficient-normalized) form in this stratum."""
        vec = {}
        for S, c in omega.terms.items():
            for e, coeff in c.terms.items():
                idx = self.index.get((e, S))
                if idx is None:
                    raise ValueError("form does not fit in the weight stratum")
                vec[idx] = vec.get(idx, Fraction(0)) + coeff
        return vec

    def form_of(self, vec):
        terms = {}
        items = vec.items() if isinstance(vec, dict) else enumerate(vec)
        for idx, coeff in items:
            if not coeff:
                continue
            m, S = self.ext_basis[idx]
            poly = Polynomial(self.algebra.variables, {m: coeff})
            if S in terms:
                terms[S] = terms[S] + poly
            else:
                terms[S] = poly
        return AlgebraicForm(self.algebra, self.p, terms, reduce=False)

    def differential_matrix(self, target):
        """Matrix of the termwise differential into the degree p+1 stratum."""
        entries = {}
        for col, (m, S) in enumerate(self.basis):
            for coeff, dm, T in d_monomial(m, S):
                row = target.index[(dm, T)]
                entries[(row, col)] = entries.get((row, col), Fraction(0)) + coeff
        return SparseMatrix(target.size, self.size, entries)

    def relation_matrix(self):
        rows = [row for _, row in sorted(self.relations.rows.items())]
        entries = {(i, j): v for j, row in enumerate(rows) for i, v in row.items()}
        return SparseMatrix(self.size, len(rows), entries)


def reduce_form(omega, cutoff=None):
    """Canonical representative of a raw form expansion.

    Coefficients are put in Groebner normal form; the relation submodule
    is then eliminated against the weight stratum at `cutoff` (default:
    the form's own weight).  Idempotent and, at a fixed cutoff, linear.
    """
    algebra = omega.algebra
    if omega.degree == 0 or not algebra.ideal_generators:
        return AlgebraicForm(algebra, omega.degree, omega.terms, reduce=False)
    normalized = AlgebraicForm(algebra, omega.degree, omega.terms, reduce=False)
    if normalized.is_zero():
        return normalized
    n_cutoff = cutoff if cutoff is not None else normalized.weight()
    stratum = algebra._stratum(omega.degree, n_cutoff)
    vec = stratum.vector_of(normalized)
    return stratum.form_of(stratum.relations.reduce(vec)[0])


class TruncatedCohomology:
    """H^p of the weight-truncated de Rham complex at a fixed cutoff."""

    def __init__(self, algebra, p, n_cutoff):
        if n_cutoff < p:
            raise ValueError("cutoff must be at least the degree")
        self.algebra = algebra
        self.p = p
        self.n_cutoff = n_cutoff
        self._pair, self._stratum = _truncated_pair(algebra, p, n_cutoff)
        self.dimension = self._pair.dimension
        reps = [self._stratum.form_of(v) for v in self._pair.representatives]
        self.stabilized = False
        if n_cutoff > p:
            prev_pair, prev_stratum = _truncated_pair(algebra, p, n_cutoff - 1)
            if prev_pair.dimension == self.dimension and self.dimension >= 0:
                lifted = [prev_stratum.form_of(v) for v in prev_pair.representatives]
                coord_rows = []
                ok = True
                for form in lifted:
                    try:
                        coords, _ = self._class_in_pair(form)
                    except NotACocycle:
                        ok = False
                        break
                    coord_rows.append(coords)
                if ok and _invertible(coord_rows):
                    self.stabilized = True
                    reps = lifted
        self.representatives = reps
        self._rep_coords = [self._class_in_pair(r)[0] for r in reps]

    def _class_in_pair(self, form):
        vec = self._stratum.vector_of(
            AlgebraicForm(self.algebra, self.p, form.terms, reduce=False)
        )
        return self._pair.class_of(dense_vector(vec, self._stratum.size))

    def class_of(self, form):
        """Coordinates of a closed form in the returned representative basis."""
        inner, _ = self._class_in_pair(form)
        if self.dimension == 0:
            return []
        matrix = SparseMatrix.from_columns(self._rep_coords, len(inner))
        coords = solve(matrix, inner)
        if coords is None:
            raise AssertionError("representative basis failed to span a class")
        return coords


def _truncated_pair(algebra, p, n_cutoff):
    stratum = algebra._stratum(p, n_cutoff)
    up = algebra._stratum(p + 1, n_cutoff) if n_cutoff >= p + 1 else None
    if p >= 1 and n_cutoff >= p:
        down = algebra._stratum(p - 1, n_cutoff)
        d_prev = down.differential_matrix(stratum)
    else:
        d_prev = SparseMatrix.zero(stratum.size, 0)
    d_prev = d_prev.hstack(stratum.relation_matrix())
    if up is None or up.size == 0:
        d_next = SparseMatrix.zero(0, stratum.size)
    else:
        entries = {}
        for j, col in enumerate(stratum.differential_matrix(up).columns()):
            rest, _ = up.relations.reduce(col)
            entries.update(((i, j), v) for i, v in rest.items())
        d_next = SparseMatrix(up.size, stratum.size, entries)
    return CohomologyPair(d_prev, d_next), stratum


def _invertible(rows):
    if not rows:
        return True
    n = len(rows)
    if any(len(r) != n for r in rows):
        return False
    _, _, rank = kernel_image(SparseMatrix.from_rows(rows))
    return rank == n


def truncated_cohomology(algebra, p, n_cutoff):
    """(dimension, representatives, stabilized) plus class membership."""
    return TruncatedCohomology(algebra, p, n_cutoff)


def parse_algebraic_form(text, algebra, degree=None):
    """Parse form text like 'x*dy - y*dx' over the algebra's variables.

    Text does not fix the degree of a zero value ("0" reads as degree 0,
    and `str` prints every zero form as "0"), so when the parsed form
    reduces to zero it comes back as the zero form of `degree`, if given.
    A nonzero form keeps its parsed degree; comparing that with a
    declared degree is the caller's job.
    """
    parsed_degree, terms = eval_form_ast(parse_ast(text), algebra.variables)
    for c in terms.values():
        if not isinstance(c, Polynomial):
            raise ParseError("rational coefficient %s in a polynomial-only context" % c)
    form = AlgebraicForm(algebra, parsed_degree, terms)
    if degree is not None and form.is_zero():
        return AlgebraicForm.zero(algebra, degree)
    return form
