"""Algebraic differential forms of a finitely presented rational algebra.

For B = Q[x1..xm]/I the module of degree-p forms is presented as the
free module on the dx_S (|S| = p) with polynomial coefficients, modulo
two layers of relations: coefficients are taken modulo I (Groebner
normal forms), and the submodule generated by the df_j is eliminated by
exact linear algebra, stratified by weight.  The weight of a term is
coefficient degree + form degree; the differential preserves it and
degrevlex normal forms never raise it, so forms of weight <= N are an
honest subcomplex and truncated cohomology makes sense.

Each degree's relations are built once per algebra: the normal forms
nf(x^m * df_j/dx_i) are memoised, and the generators m * df_j ^ dx_T go
weight layer by weight layer into one forward-only echelon, whose rows
never change.  The stratum of weight <= N reads off the rows inserted up
to weight N + margin with pivot inside it; they span the relations of
the stratum (see `_WeightStratum`), so every cutoff gets the rows of a
build from scratch, whatever was requested before it.

Truncated dimensions are evidence, not theorems: a `stabilized` flag
records whether two consecutive cutoffs agree.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations

from .errors import AlgebraMismatch, NotACocycle, ParseError, ValidationError
from .exterior import ExteriorForm, check_index_set, d_monomial, d_terms, insert_index, wedge_terms
from .formtext import eval_form_ast, parse_polynomial
from .linalg import (CohomologyPair, Echelon, SparseMatrix, dense_vector, insert_forward,
                     kernel_image, solve)
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
        self._std_layers = [[(0,) * self.nvars]]
        self._multiples = {}
        self._relation_sets = {}
        self._stratum_cache = {}
        # margin of extra enumeration weight when intersecting the relation
        # submodule with a weight stratum; see _WeightStratum
        degs = [g.total_degree() for g in gens]
        self.relation_margin = (max(degs) + 1) if degs else 1

    @property
    def nvars(self):
        return len(self.variables)

    def nf(self, f):
        return normal_form(f, self.groebner)

    def is_standard(self, monomial):
        return not any(monomial_divides(lm, monomial) for lm in self._lead_monomials)

    def standard_layer(self, degree):
        """Standard monomials of exactly `degree`, in degrevlex order, each
        layer from the one below (a divisor of a standard monomial is standard)."""
        layers = self._std_layers
        while len(layers) <= degree:
            bumped = {e[:i] + (e[i] + 1,) + e[i + 1 :]
                      for e in layers[-1] for i in range(self.nvars)}
            layers.append(sorted(filter(self.is_standard, bumped), key=drl_key))
        return layers[degree]

    def multiple(self, j, i, m):
        """nf(x^m * df_j/dx_i), memoised; built as nf(x_k * nf(x^(m - e_k) *
        df_j/dx_i)), since a normal form is unique modulo the ideal."""
        key = (j, i, m)
        if key not in self._multiples:
            k = next((k for k, e in enumerate(m) if e), None)
            if k is None:
                value = self.nf(self.ideal_generators[j].partial(i))
            else:
                lower = self.multiple(j, i, m[:k] + (m[k] - 1,) + m[k + 1 :])
                value = self.nf(Polynomial.variable(self.variables, k) * lower)
            self._multiples[key] = value
        return self._multiples[key]

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


class _DegreeRelations:
    """The relation generators of degree-p forms, grown one weight layer at a time.

    Layer w appends the (standard monomial, index set) pairs of weight w
    to `basis`, ordered by monomial in degrevlex, then index set; then
    it inserts each generator m * df_j ^ dx_T of weight w into the
    forward-only echelon `rows` (its normal form has weight <= w).
    `ends[w]` is (basis size, rows inserted) once layer w is in.
    """

    def __init__(self, algebra, p):
        self.algebra = algebra
        self.p = p
        self.basis = []
        self.index = {}
        self.rows = {}
        self.pivots = []  # in the order the rows were inserted
        self.ends = {}
        self._level = p - 1
        self._index_sets = list(combinations(range(algebra.nvars), p))
        self._sub_sets = list(combinations(range(algebra.nvars), p - 1)) if p else []

    def grow(self, level):
        algebra, p = self.algebra, self.p
        zero = (0,) * algebra.nvars
        while self._level < level:
            self._level = w = self._level + 1
            for m in algebra.standard_layer(w - p):
                for S in self._index_sets:
                    self.index[(m, S)] = len(self.basis)
                    self.basis.append((m, S))
            for j, f in enumerate(algebra.ideal_generators):
                degree = w - p - f.total_degree() + 1
                if degree < 0:
                    continue
                # m * df_j ^ dx_T = sum_i m * df_j/dx_i dx_i ^ dx_T, as (i, sign, S) per T
                partials = [i for i in range(algebra.nvars)
                            if not algebra.multiple(j, i, zero).is_zero()]
                wedges = [[(i,) + insert_index(i, T) for i in partials if i not in T]
                          for T in self._sub_sets]
                for m in algebra.standard_layer(degree):
                    for terms in wedges:
                        vec = {}
                        for i, sign, S in terms:
                            for e, c in algebra.multiple(j, i, m).terms.items():
                                vec[self.index[(e, S)]] = sign * c
                        pivot = insert_forward(self.rows, vec)
                        if pivot is not None:
                            self.pivots.append(pivot)
            self.ends[w] = (len(self.basis), len(self.pivots))


class _WeightStratum:
    """Basis and relation echelon for degree-p forms of weight <= N.

    The basis is the weight <= N prefix of the degree's basis.  The
    relation submodule is spanned by the nf-images of m * df_j ^ dx_T;
    generators up to weight N + margin are intersected with the stratum,
    so that a low-weight combination of high-weight generators is caught.

    Exactness: the rows of the degree's echelon inserted up to layer
    N + margin are an echelon basis of those generators' span, since a
    forward-only row never changes.  Where each row's pivot is its
    largest index, a vector of the span is a combination of the rows
    with pivot at most its own largest index; so span ∩ prefix is
    spanned by the rows with pivot < size.  `relations` is their reduced
    echelon basis, which is unique.
    """

    def __init__(self, algebra, p, n_cutoff):
        if n_cutoff < p:
            raise ValueError("weight cutoff below form degree")
        self.algebra = algebra
        self.p = p
        extended = n_cutoff + algebra.relation_margin
        if p not in algebra._relation_sets:
            algebra._relation_sets[p] = _DegreeRelations(algebra, p)
        degree_relations = algebra._relation_sets[p]
        degree_relations.grow(extended)
        self.size = degree_relations.ends[n_cutoff][0]
        self.basis = degree_relations.basis[: self.size]
        self.index = degree_relations.index  # of the whole grown basis: check idx < size
        inserted = degree_relations.pivots[: degree_relations.ends[extended][1]]
        self.relations = Echelon(
            degree_relations.rows[pivot] for pivot in sorted(inserted) if pivot < self.size
        )

    def vector_of(self, omega):
        """Coordinates of a (coefficient-normalized) form in this stratum."""
        vec = {}
        for S, c in omega.terms.items():
            for e, coeff in c.terms.items():
                idx = self.index.get((e, S), self.size)
                if idx >= self.size:
                    raise ValueError("form does not fit in the weight stratum")
                vec[idx] = vec.get(idx, Fraction(0)) + coeff
        return vec

    def form_of(self, vec):
        terms = {}
        items = vec.items() if isinstance(vec, dict) else enumerate(vec)
        for idx, coeff in items:
            if not coeff:
                continue
            m, S = self.basis[idx]
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
            if prev_pair.dimension == self.dimension:
                lifted = [prev_stratum.form_of(v) for v in prev_pair.representatives]
                try:
                    coord_rows = [self._class_in_pair(form)[0] for form in lifted]
                except NotACocycle:
                    coord_rows = None
                if coord_rows is not None and _invertible(coord_rows):
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
    """Whether the square matrix of these rows has full rank."""
    return not rows or kernel_image(SparseMatrix.from_rows(rows))[2] == len(rows)


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
