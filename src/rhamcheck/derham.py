"""Algebraic differential forms of a finitely presented rational algebra.

For B = Q[x1..xm]/I the degree-p forms are F_p / M_p: F_p is free on the
dx_S (|S| = p) over Q[x1..xm], and M_p = I*F_p + dI ^ F_(p-1).  Each
degree has one reduced Groebner basis G_p of M_p, built once per algebra
by the Groebner engine that `poly` shares with the ideal I (an ideal is a
submodule of F_0 with one position), which skips S-pairs by Buchberger's
chain and product criteria.  Its terms (m, S) are ordered
term-over-position, degrevlex on m and then S; a form's module normal
form is its unique remainder on the standard terms, those no leading
term of G_p divides, and vanishes exactly on M_p.

A degree whose forms all vanish needs no Buchberger run.  By the
zero-quotient rule, when G_(p-1) holds the unit e_S itself for a face S
of every p-subset T, then e_T = ±e_S ^ dx_i lies in M_(p-1) ^ F_1 ⊆ M_p,
so M_p = F_p and G_p is the units e_T.  A cohomology pair builds its
strata in degree order, so that the rule sees G_(p-1): it gives the
torus its Omega^3 and Omega^4, the circle times two points its Omega^3,
and an algebra whose Omega^1 vanishes, such as Q[x, y]/(x^2 + 1, y - 1),
every degree above 1.

A standard term (m, S) has m standard for G_0, since M_p contains
I*e_S.  So the basis is grown from the algebra's standard monomials
alone, and each candidate (m, S) is tested only against G_p's own leads
at S, those that are not leads of G_0: a lead of G_0 cannot divide m.

A normal form is linear, so each degree keeps a table from a term
(m, S) to its normal form in basis indices, and a column of d is the
sum of the table's columns over the terms of its image: G_p divides
each non-standard term once per algebra.

The weight of a term is deg m + p, and d preserves it.  The order is
degree-compatible, so reduction never raises weight and an element of
M_p of weight <= N reduces to zero within weight N.  So the standard
terms of weight <= N are a basis of the truncated quotient
F_p^(<=N) / (M_p ∩ F_p^(<=N)), and those of weight <= N - 1 a prefix of
them.  No relation is sought among generators up to a margin above N:
G_p is exact at every weight.

Truncated dimensions are evidence, not theorems: a `stabilized` flag,
the rule `linalg.CohomologyPair.stabilized` that `FamilyComplex` shares,
records that H^p has the same dimension at cutoffs N - 1 and N and that
every representative at N already lies in the stratum at N - 1, so that
H^(N-1) -> H^N is an isomorphism.  The dimension at N - 1 is read from
the pair at N, with no second pair: the strata are prefixes and d keeps
weight, so the maps at N - 1 are the first columns of those at N, the
columns of weight <= N - 1, and the elimination at N, which takes the
columns in order, gives their kernel and rank too (after Edelsbrunner,
Letscher and Zomorodian, Discrete Comput. Geom. 28, 2002).
"""

from __future__ import annotations

from functools import cached_property
from itertools import combinations

from .errors import AlgebraMismatch, ValidationError
from .exterior import ExteriorForm, check_index_set, d_monomial, d_terms, wedge_terms
from .formtext import eval_form, parse_polynomial
from .linalg import CohomologyPair, Matrix
from .poly import (_coefficient, buchberger, drl_key, monomial_divides, reduce_vector,
                   term_vector, vector_terms)


class FpAlgebra:
    """A finitely presented commutative algebra with a normal-form oracle."""

    def __init__(self, variables, ideal_generators):
        self.variables = tuple(variables)
        gens = []
        for g in ideal_generators:
            if isinstance(g, str):
                g = parse_polynomial(g, self.variables)
            if g.is_zero():
                raise ValidationError("zero ideal generator")
            gens.append(g)
        self.ideal_generators = gens
        self._std_layers = [[(0,) * self.nvars]]
        self._modules = {}
        # G_0, the basis of I*F_0, is the ideal's reduced Groebner basis at position ()
        self._ideal_basis = self._module(0).divisors.get((), [])

    @property
    def nvars(self):
        return len(self.variables)

    def is_standard(self, monomial):
        return not any(monomial_divides(lm, monomial) for lm, _ in self._ideal_basis)

    def standard_layer(self, degree):
        """Standard monomials of exactly `degree`, in degrevlex order, each
        layer from the one below (a divisor of a standard monomial is standard)."""
        layers = self._std_layers
        while len(layers) <= degree:
            bumped = {e[:i] + (e[i] + 1,) + e[i + 1 :]
                      for e in layers[-1] for i in range(self.nvars)}
            layers.append(sorted(filter(self.is_standard, bumped), key=drl_key))
        return layers[degree]

    def _module(self, p):
        """The degree-p forms as a `_FormModule`, built on first use."""
        if p not in self._modules:
            self._modules[p] = _FormModule(self, p)
        return self._modules[p]

    def __eq__(self, other):
        return (
            isinstance(other, FpAlgebra)
            and self.variables == other.variables
            and self.ideal_generators == other.ideal_generators
        )

    def __repr__(self):
        if not self.ideal_generators:
            return "Q[%s]" % ", ".join(self.variables)
        return "Q[%s]/(%s)" % (
            ", ".join(self.variables),
            ", ".join(str(g) for g in self.ideal_generators),
        )


def _module_groebner(algebra, p):
    """Reduced Groebner basis of M_p = I*F_p + dI ^ F_(p-1), per leading position.

    It is the units e_T when G_(p-1) is built and holds the unit e_S, with
    no tail, for a face S of every position T (the module docstring's
    rule).  Otherwise `poly.buchberger`, the ideal's engine, computes it:
    G_0 is I's basis at the one position (); above, the seeds are G_0 at
    each position, whose pairs need no S-vector, and the df_j ^ dx_T.
    """
    n = algebra.nvars
    if p == 0:
        return buchberger([term_vector({(): g}) for g in algebra.ideal_generators])
    positions = list(combinations(range(n), p))
    below = algebra._modules.get(p - 1)
    one = (0,) * n
    if below is not None and all(
            any(below.divisors.get(S) == [(one, {(one, S): 1})] for S in combinations(T, p - 1))
            for T in positions):
        return {T: [(one, {(one, T): 1})] for T in positions}
    seeds = [{(e, S): c for (e, _), c in vec.items()}
             for S in positions for _, vec in algebra._ideal_basis]
    # d(c x^e dx_T) puts each variable of e at its own position, so no two terms meet
    generators = [{(de, U): _coefficient(k * c) for e, c in f.terms.items()
                   for k, de, U in d_monomial(e, T)}
                  for f in algebra.ideal_generators
                  for T in combinations(range(n), p - 1)]
    return buchberger(generators, seeds)


class _FormModule:
    """The degree-p forms F_p / M_p of an algebra, on the standard terms of G_p.

    `divisors` is G_p per leading position: the units e_T alone when the
    zero-quotient rule gave it.  `basis` lists the standard terms weight
    layer by weight layer, each layer in term order, so the terms of
    weight <= N are the prefix `basis[:ends[N]]` and indices never change
    as the basis grows.  The table behind `term_column` holds the normal
    form of each term (monomial, position) met so far in basis indices, a
    standard term being its own index, so G_p divides each non-standard
    term once.  `d_column(k)` memoises the normal form of d(basis[k]) in
    the degree p + 1 module, the sum of that module's term columns over
    the terms of d(basis[k]).  Coefficients are stored as `poly` stores
    them: an int when integral.
    """

    def __init__(self, algebra, p):
        self.algebra = algebra
        self.p = p
        self.divisors = _module_groebner(algebra, p)
        self.basis = []
        self.index = {}
        self.ends = {}
        self._table = {}
        self._columns = []
        # G_p's own leads per position, those not of G_0 (G_p itself at p = 0)
        ideal = algebra._ideal_basis if p else self.divisors.get((), ())
        ideal_leads = {lead for lead, _ in ideal}
        self._own_leads = [(S, [lead for lead, _ in self.divisors.get(S, ())
                                if lead not in ideal_leads])
                           for S in combinations(range(algebra.nvars), p)]

    def grow(self, level):
        """Append the standard terms of every weight up to `level`: each standard
        monomial m of the algebra with each S that no own lead at S divides."""
        for w in range(self.p + len(self.ends), level + 1):
            for m in self.algebra.standard_layer(w - self.p):
                for S, leads in self._own_leads:
                    if not any(monomial_divides(lead, m) for lead in leads):
                        self.index[(m, S)] = len(self.basis)
                        self.basis.append((m, S))
            self.ends[w] = len(self.basis)

    def reduce_terms(self, terms):
        """The normal form of a form given by its terms S -> Polynomial."""
        return vector_terms(reduce_vector(term_vector(terms), self.divisors),
                            self.algebra.variables)

    def term_column(self, term):
        """Normal form of one term (monomial, position) as {basis index: coefficient}.
        The basis must be grown to the term's weight, which reduction never raises."""
        column = self._table.get(term)
        if column is None:
            if term in self.index:
                column = {self.index[term]: 1}
            else:
                image = reduce_vector({term: 1}, self.divisors)
                column = {self.index[t]: _coefficient(c) for t, c in image.items()}
            self._table[term] = column
        return column

    def d_column(self, k):
        """Normal form of d(basis[k]) as {index in the degree p + 1 basis: coefficient}.

        That basis must be grown to the weight of basis[k], which d keeps.
        """
        target = self.algebra._module(self.p + 1)
        while len(self._columns) <= k:
            m, S = self.basis[len(self._columns)]
            column = {}
            for c, dm, T in d_monomial(m, S):
                for i, a in target.term_column((dm, T)).items():
                    column[i] = column.get(i, 0) + c * a
            self._columns.append({i: _coefficient(v) for i, v in column.items() if v})
        return self._columns[k]


class AlgebraicForm(ExteriorForm):
    """A degree-p form: map from strictly increasing index sets to coefficients.

    `reduce=True` (the default) takes the module normal form, the
    canonical representative of the form's class in F_p / M_p: reduced by
    the whole Groebner basis G_p, I*e_S elements included, it lies on
    standard terms, is zero exactly when the form lies in M_p, is
    idempotent and linear, and never raises weight.  `reduce=False` keeps
    the nonzero terms as given, for callers that already hold a normal
    form: `_make` adds and scales them, `_WeightStratum.form_of` writes
    standard terms.  So every form is its normal form.

    The graded algebra has a single zero, so a zero form carries its
    degree only as a label: zero forms over one algebra compare equal
    whatever their degree, and a zero summand is the identity of `+`
    for a form of any degree.  This is the rule `PolyForm` follows.
    """

    __slots__ = ("algebra", "degree", "terms")

    def __init__(self, algebra, degree, terms, reduce=True):
        self.algebra = algebra
        self.degree = degree
        terms = {check_index_set(S, degree, algebra.nvars): c for S, c in terms.items()}
        if reduce and terms:
            self.terms = algebra._module(degree).reduce_terms(terms)
        else:
            self.terms = {S: c for S, c in terms.items() if not c.is_zero()}

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
    """The degree-p forms of weight <= N: the standard terms of G_p up to N.

    Since the term order compares weight first, these terms are a basis
    of F_p^(<=N) / (M_p ∩ F_p^(<=N)): a relation of weight <= N has its
    leading term among the non-standard terms and reduces to zero within
    the weight.  The basis is a prefix of the degree's shared basis, so a
    vector at cutoff N - 1 is one at N, padded with zeros.
    """

    def __init__(self, algebra, p, n_cutoff):
        if n_cutoff < p:
            raise ValueError("weight cutoff below form degree")
        self.module = algebra._module(p)
        self.module.grow(n_cutoff)
        self.size = self.module.ends[n_cutoff]

    def vector_of(self, omega):
        """Coordinates of a form, a normal form, in this stratum."""
        vec = {}
        for term, coeff in term_vector(omega.terms).items():
            idx = self.module.index.get(term, self.size)
            if idx >= self.size:
                raise ValueError("form does not fit in the weight stratum")
            vec[idx] = coeff
        return vec

    def form_of(self, vec):
        terms = vector_terms({self.module.basis[idx]: c for idx, c in sorted(vec.items())},
                             self.module.algebra.variables)
        return AlgebraicForm(self.module.algebra, self.module.p, terms, reduce=False)

    def differential_matrix(self, target):
        """Matrix of d into the degree p+1 stratum, on normal forms."""
        return Matrix(target.size, [self.module.d_column(col) for col in range(self.size)])


class TruncatedCohomology:
    """H^p of the weight-truncated de Rham complex at a fixed cutoff N.

    `representatives` and `class_of` are those of the one `CohomologyPair`
    at N; the representatives are written as forms when first read.
    `stabilized` is the pair's `stabilized` on the columns of weight
    <= N - 1, the N - 1 sizes of the strata of degrees p - 1 and p:
    H^p has the same dimension at N - 1 and at N and every representative
    at N is zero beyond the N - 1 prefix, so H^(N-1) -> H^N is an
    isomorphism.
    """

    def __init__(self, algebra, p, n_cutoff):
        if n_cutoff < p:
            raise ValueError("cutoff must be at least the degree")
        self._pair, self._stratum, (prev_cols, cols) = _truncated_pair(algebra, p, n_cutoff)
        self.dimension = self._pair.dimension
        self.stabilized = n_cutoff > p and self._pair.stabilized(prev_cols, cols)

    @cached_property
    def representatives(self):
        return [self._stratum.form_of(v) for v in self._pair.representatives]

    def class_of(self, form):
        """Coordinates of a closed form in the representative basis."""
        return self._pair.class_of(self._stratum.vector_of(form))


def _truncated_pair(algebra, p, n_cutoff):
    """(pair, stratum, below) of degree p at cutoff N.  `below` holds the
    numbers of columns of d_prev and of d_next of weight <= N - 1, whose
    prefixes make the pair at N - 1."""
    # in degree order, so that G_p may come from G_(p-1) by the zero-quotient rule
    source = _WeightStratum(algebra, p - 1, n_cutoff) if p >= 1 else None
    stratum = _WeightStratum(algebra, p, n_cutoff)
    cols = stratum.module.ends.get(n_cutoff - 1, 0)
    if source is not None:
        d_prev, prev_cols = source.differential_matrix(stratum), source.module.ends[n_cutoff - 1]
    else:
        d_prev, prev_cols = Matrix(stratum.size, []), 0
    if n_cutoff >= p + 1:
        d_next = stratum.differential_matrix(_WeightStratum(algebra, p + 1, n_cutoff))
    else:
        d_next = Matrix(0, [{}] * stratum.size)
    return CohomologyPair(d_prev, d_next), stratum, (prev_cols, cols)


def truncated_cohomology(algebra, p, n_cutoff):
    """The `TruncatedCohomology` of degree p at cutoff N: its dimension,
    representatives, `stabilized` flag and `class_of`."""
    return TruncatedCohomology(algebra, p, n_cutoff)


def parse_algebraic_form(text, algebra, degree=None):
    """Parse form text like 'x*dy - y*dx' over the algebra's variables.

    Text does not fix the degree of a zero value ("0" reads as degree 0,
    and `str` prints every zero form as "0"), so when the parsed form
    reduces to zero it comes back as the zero form of `degree`, if given.
    A nonzero form keeps its parsed degree; comparing that with a
    declared degree is the caller's job.
    """
    form = AlgebraicForm(algebra, *eval_form(text, algebra.variables, polynomial=True))
    if degree is not None and form.is_zero():
        return AlgebraicForm.zero(algebra, degree)
    return form
