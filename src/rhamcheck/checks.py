"""Executable checks: the bridge between scenario files and the library.

Each check kind maps, in CHECK_KINDS, to one runner
`runner(scenario, check, settings, result)`.  `run_check` makes the
CheckResult and hands it in; the runner records detail key/value pairs
and failures on it and returns nothing.  A RhamcheckError out of a
runner becomes a fresh record with no details and the error as its
reason.  Details are rendered canonically (deterministic across runs
for fixed seed and quadrature order, so reports are byte-identical).

The randomized kinds run their draws through `_trials`.  It seeds one
rng from --seed and the check's name, so a check draws the same samples
whatever else the scenario holds, and calls the runner's trial(rng) once
per draw, `count` times.  A trial returns None when its property holds
and the failure message when it does not; the first failure ends the
loop.  `count` is recorded either way, before the runner's own details.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from itertools import combinations

from .comparison import (
    ParamSimplex,
    chain_estimate,
    chain_map_residual,
    multiplicativity_check,
    naturality_residual,
    period,
    period_cochain,
)
from .derham import AlgebraicForm, FpAlgebra, differential as d_algebraic, truncated_cohomology
from .errors import RhamcheckError, ValidationError
from .linalg import Echelon
from .poly import Polynomial
from .scenarios import MAX_WEIGHT, check_rng_seed, validate_cutoff
from .simplex_forms import (
    FamilyComplex,
    FormsFamily,
    MAX_QUAD_ORDER,
    PolyForm,
    differential as d_simplex,
    extend_from_boundary,
    homotopy_defect,
    pullback_delta,
    simplex_variables,
    to_cochain,
    wedge as wedge_simplex,
)
from .simplicial import (
    Cochain,
    DeltaMorphism,
    aw_cup,
    coboundary,
    fundamental_boundary_cycle,
    pair,
    simplicial_cohomology,
    standard_simplex,
    unit_cochain,
)

DEFAULT_SEED = 902214


class Settings:
    def __init__(self, quad_order=16, max_weight=None, tolerance=None, seed=DEFAULT_SEED):
        self.quad_order = quad_order
        self.max_weight = max_weight
        self.tolerance = tolerance
        self.seed = seed


class CheckResult:
    def __init__(self, name, kind):
        self.name = name
        self.kind = kind
        self.status = "pass"
        self.details = []
        self.message = ""

    def detail(self, key, value):
        self.details.append((key, render_value(value)))

    def fail(self, message):
        self.status = "fail"
        if not self.message:
            self.message = message

    def skip(self, message):
        self.status = "skip"
        self.message = message


def render_value(value):
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, Fraction):
        if value.denominator == 1:
            return str(value.numerator)
        return "%d/%d" % (value.numerator, value.denominator)
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _tolerance(check, settings, estimate):
    if settings.tolerance is not None:
        return settings.tolerance
    if check.params["tolerance"] is not None:
        return check.params["tolerance"]
    return 10.0 * float(estimate)


def _max_weight(check, settings):
    if settings.max_weight is not None:
        return settings.max_weight
    return check.params["max_weight"]


def _within(value, target, tolerance):
    return abs(float(value) - float(target)) <= float(tolerance) + 1e-300


# ---------------------------------------------------------------------------
# samplers for the randomized checks


def _random_poly(rng, variables, max_degree):
    terms = {}
    nvars = len(variables)
    for _ in range(rng.randint(1, 3)):
        e = [0] * nvars
        if nvars:
            for _ in range(rng.randint(0, max_degree)):
                e[rng.randrange(nvars)] += 1
        terms[tuple(e)] = Fraction(rng.randint(-4, 4))
    return Polynomial(variables, terms)


def _random_terms(rng, variables, degree, share, max_coeff_degree):
    """Form terms: each index set of `degree` variables, with chance `share`,
    gets a random coefficient, kept if nonzero."""
    terms = {}
    for S in combinations(range(len(variables)), degree):
        if rng.random() < share:
            poly = _random_poly(rng, variables, max_coeff_degree)
            if not poly.is_zero():
                terms[S] = poly
    return terms


def _random_poly_form(rng, n, degree, max_coeff_degree):
    terms = _random_terms(rng, simplex_variables(n), degree, 0.75, max_coeff_degree)
    return PolyForm(n, degree, terms)


def _random_algebraic_form(rng, algebra, degree, max_coeff_degree=2):
    terms = _random_terms(rng, algebra.variables, degree, 0.8, max_coeff_degree)
    return AlgebraicForm(algebra, degree, terms)


def _random_simplex(rng, algebra, n, max_degree=2):
    variables = simplex_variables(n)
    comps = [_random_poly(rng, variables, max_degree) for _ in range(algebra.nvars)]
    return ParamSimplex(n, algebra, comps)


def _random_cochain(rng, complex_, p):
    return Cochain(
        complex_, p, {s: Fraction(rng.randint(-5, 5)) for s in complex_.n_simplices(p)}
    )


def _trials(check, settings, result, trial):
    """Call trial(rng) `count` times on the check's own rng, up to the first
    failure message it returns, and record `count`."""
    rng = random.Random(check_rng_seed(settings.seed, check.name))
    for _ in range(check.params["count"]):
        message = trial(rng)
        if message is not None:
            result.fail(message)
            break
    result.detail("count", check.params["count"])


# ---------------------------------------------------------------------------
# check implementations


def check_validate(scenario, check, settings, result):
    expect = check.params["expect"]
    for sname in check.params["simplices"]:
        cert = scenario.simplices[sname].validate()
        result.detail("%s.valid" % sname, cert.valid)
        if cert.valid != (expect == "valid"):
            result.fail("simplex %s: expected %s" % (sname, expect))
        if not cert.valid:
            j, residual = cert.residuals[0]
            result.detail("%s.residual" % sname, residual)


def check_cohomology(scenario, check, settings, result):
    p = check.params
    degree = p["degree"]
    cutoff = _max_weight(check, settings)
    h = truncated_cohomology(scenario.algebra, degree, cutoff)
    result.detail("degree", degree)
    result.detail("max_weight", cutoff)
    result.detail("dimension", h.dimension)
    result.detail("stabilized", h.stabilized)
    if p["expect_dim"] is not None and h.dimension != p["expect_dim"]:
        result.fail("dimension %d != expected %d" % (h.dimension, p["expect_dim"]))
    if p["expect_min_dim"] is not None and h.dimension < p["expect_min_dim"]:
        result.fail("dimension %d below %d" % (h.dimension, p["expect_min_dim"]))
    if p["expect_stabilized"] and not h.stabilized:
        result.fail("truncation did not stabilize at cutoff %d" % cutoff)
    if p["class_nonzero"] is not None:
        form = scenario.forms[p["class_nonzero"]]
        if not d_algebraic(form).is_zero():
            result.fail("form %s is not closed" % p["class_nonzero"])
        else:
            coords = h.class_of(form)
            nonzero = any(c != 0 for c in coords)
            result.detail("class_coordinates", " ".join(render_value(c) for c in coords))
            if not nonzero:
                result.fail("class of %s vanishes" % p["class_nonzero"])


def check_poincare(scenario, check, settings, result):
    def trial(rng):
        n = rng.randint(1, check.params["max_dim"])
        degree = rng.randint(0, n)
        alpha = _random_poly_form(rng, n, degree, check.params["max_degree"])
        defect = homotopy_defect(alpha)
        if not defect.is_zero():
            return "contraction identity failed on %s" % alpha

    _trials(check, settings, result, trial)
    result.detail("max_defect", 0 if result.status == "pass" else "nonzero")


def check_chain_map(scenario, check, settings, result):
    form = scenario.forms[check.params["form"]]
    simplex = scenario.simplices[check.params["simplex"]]
    residual, estimate = chain_map_residual(form, simplex, settings.quad_order)
    result.detail("residual", residual)
    result.detail("estimate", estimate)
    if simplex.lane == "exact":
        if residual != 0:
            result.fail("exact-lane residual %s" % residual)
    else:
        tol = _tolerance(check, settings, estimate)
        result.detail("tolerance", tol)
        if not _within(residual, 0, tol):
            result.fail("residual %r above tolerance %r" % (residual, tol))


def check_chain_map_random(scenario, check, settings, result):
    num_vars = check.params["num_vars"]
    algebra = FpAlgebra(("x", "y", "z")[:num_vars], [])

    def trial(rng):
        p = rng.randint(0, num_vars - 1)
        sigma = _random_simplex(rng, algebra, p + 1)
        omega = _random_algebraic_form(rng, algebra, p)
        residual, _ = chain_map_residual(omega, sigma)
        if residual != 0:
            return "nonzero Stokes residual %s" % residual

    _trials(check, settings, result, trial)
    result.detail("residual", 0 if result.status == "pass" else "nonzero")


def check_naturality_random(scenario, check, settings, result):
    num_vars = check.params["num_vars"]
    algebra = FpAlgebra(("x", "y", "z")[:num_vars], [])

    def trial(rng):
        n = rng.randint(1, 3)
        m = rng.randint(0, n)
        h = DeltaMorphism(m, n, sorted(rng.randint(0, n) for _ in range(m + 1)))
        sigma = _random_simplex(rng, algebra, n)
        omega = _random_algebraic_form(rng, algebra, rng.randint(0, min(2, num_vars)))
        if not naturality_residual(sigma, h, omega).is_zero():
            return "naturality residual nonzero"

    _trials(check, settings, result, trial)
    result.detail("residual", 0 if result.status == "pass" else "nonzero")


def check_pairing(scenario, check, settings, result):
    form = scenario.forms[check.params["form"]]
    chain = scenario.chains[check.params["chain"]]
    family = scenario.chain_family[check.params["chain"]]
    cochain, estimates = period_cochain(form, family, settings.quad_order)
    value = pair(cochain, chain)
    estimate = chain_estimate(estimates, chain)
    result.detail("value", value)
    result.detail("estimate", estimate)
    if check.params["expect"] is not None:
        target = check.params["expect"]
        tol = _tolerance(check, settings, estimate)
        result.detail("expect", target)
        result.detail("tolerance", tol)
        if not _within(value, target, tol):
            result.fail("pairing %r missed %r by more than %r" % (value, target, tol))


def check_multiplicativity(scenario, check, settings, result):
    form1 = scenario.forms[check.params["form1"]]
    form2 = scenario.forms[check.params["form2"]]
    chain = scenario.chains[check.params["chain"]]
    family = scenario.chain_family[check.params["chain"]]
    lhs, rhs, estimate = multiplicativity_check(
        form1, form2, family, chain, settings.quad_order
    )
    residual = lhs - rhs
    result.detail("lhs", lhs)
    result.detail("rhs", rhs)
    result.detail("residual", residual)
    result.detail("estimate", estimate)
    tol = _tolerance(check, settings, estimate)
    result.detail("tolerance", tol)
    if isinstance(residual, Fraction) and float(tol) == 0.0:
        if residual != 0:
            result.fail("exact residual %s" % residual)
    elif not _within(residual, 0, tol):
        result.fail("residual %r above tolerance %r" % (residual, tol))
    if check.params["expect"] is not None:
        target = check.params["expect"]
        expect_tol = check.params["expect_tolerance"]
        expect_tol = tol if expect_tol is None else expect_tol
        result.detail("expect", target)
        result.detail("expect_tolerance", expect_tol)
        if not _within(lhs, target, expect_tol):
            result.fail("pairing %r missed %r by more than %r" % (lhs, target, expect_tol))


def check_idempotent_table(scenario, check, settings, result):
    for i, fname in enumerate(check.params["forms"]):
        for j, sname in enumerate(check.params["simplices"]):
            value, _ = period(
                scenario.forms[fname], scenario.simplices[sname], settings.quad_order
            )
            result.detail("%s@%s" % (fname, sname), value)
            expected = Fraction(1 if i == j else 0)
            if value != expected:
                result.fail("table entry (%s, %s) = %s, expected %s" % (fname, sname, value, expected))


def check_tau_witness(scenario, check, settings, result):
    alpha, beta = check.params["alpha"], check.params["beta"]
    lhs = to_cochain(wedge_simplex(alpha, beta), order=settings.quad_order)
    rhs = aw_cup(
        to_cochain(alpha, order=settings.quad_order),
        to_cochain(beta, order=settings.quad_order),
    )
    witness = None
    for s in sorted(lhs.values):
        if lhs.values[s] != rhs.values[s]:
            witness = s
            break
    if witness is None:
        result.fail("no inequality witness; integration looked multiplicative")
    else:
        result.detail("witness_simplex", witness)
        result.detail("wedge_then_integrate", lhs.values[witness])
        result.detail("integrate_then_cup", rhs.values[witness])


def check_tau_chain_map(scenario, check, settings, result):
    def trial(rng):
        n = rng.randint(1, check.params["max_dim"])
        degree = rng.randint(0, n - 1)
        alpha = _random_poly_form(rng, n, degree, 3)
        if to_cochain(d_simplex(alpha)) != coboundary(to_cochain(alpha)):
            return "integration map failed to be a chain map"

    _trials(check, settings, result, trial)


def check_tau_cohomology(scenario, check, settings, result):
    K = check.params["complex"]
    cutoff = _max_weight(check, settings)
    fc = FamilyComplex(K, cutoff)
    prev = FamilyComplex(K, cutoff - 1) if cutoff > 1 else None
    stabilized = prev is not None and all(
        fc.cohomology_dimension(q) == prev.cohomology_dimension(q)
        for q in range(K.dimension + 1)
    )
    result.detail("max_weight", cutoff)
    result.detail("stabilized", stabilized)
    simplicial = {}
    for q in range(K.dimension + 1):
        sc = simplicial_cohomology(K, q)
        simplicial[q] = sc
        dim_forms = fc.cohomology_dimension(q)
        result.detail("dim_forms_%d" % q, dim_forms)
        result.detail("dim_simplicial_%d" % q, sc.dimension)
        if dim_forms != sc.dimension:
            result.fail("degree %d: %d != %d" % (q, dim_forms, sc.dimension))
    if result.status == "fail":
        return
    # the integration map must induce an isomorphism degree by degree
    reps = {q: fc.representatives(q) for q in range(K.dimension + 1)}
    for q, sc in simplicial.items():
        if sc.dimension == 0:
            continue
        rows = [sc.class_of(family.to_cochain()) for family in reps[q]]
        rank = len(Echelon(dict(enumerate(row)) for row in rows).rows)
        result.detail("rank_%d" % q, rank)
        if rank != sc.dimension:
            result.fail("degree %d: induced map is not an isomorphism" % q)
    # multiplicativity on all products of computed classes
    products = 0
    for q1, fam1 in reps.items():
        for q2, fam2 in reps.items():
            if q1 + q2 > K.dimension:
                continue
            sc = simplicial[q1 + q2]
            for F in fam1:
                for G in fam2:
                    lhs_coords = sc.class_of(F.wedge(G).to_cochain())
                    rhs_coords = sc.class_of(aw_cup(F.to_cochain(), G.to_cochain()))
                    products += 1
                    if lhs_coords != rhs_coords:
                        result.fail(
                            "class of wedge != cup of classes in degrees (%d, %d)"
                            % (q1, q2)
                        )
    result.detail("products_checked", products)


def check_aw_laws(scenario, check, settings, result):
    K = check.params["complex"]
    top = K.dimension
    one = unit_cochain(K)

    def trial(rng):
        p = rng.randint(0, max(0, top - 1))
        q = rng.randint(0, max(0, top - p - 1))
        r = rng.randint(0, max(0, top - p - q))
        a = _random_cochain(rng, K, p)
        b = _random_cochain(rng, K, q)
        c = _random_cochain(rng, K, r)
        if aw_cup(aw_cup(a, b), c) != aw_cup(a, aw_cup(b, c)):
            return "associativity failed"
        if aw_cup(one, a) != a or aw_cup(a, one) != a:
            return "unit law failed"
        lhs = coboundary(aw_cup(a, b))
        rhs = aw_cup(coboundary(a), b) + aw_cup(a, coboundary(b)).scale((-1) ** p)
        if lhs != rhs:
            return "Leibniz failed"

    _trials(check, settings, result, trial)
    witness = _noncommutative_witness(K)
    if witness is None:
        result.fail("no non-commutativity witness found")
    else:
        s1, s2, top_simplex = witness
        result.detail("witness_a", "indicator %s" % (s1,))
        result.detail("witness_b", "indicator %s" % (s2,))
        result.detail("witness_simplex", top_simplex)


def _noncommutative_witness(K):
    """Search small indicator cochains with a u b != +-(b u a)."""
    for p in range(K.dimension + 1):
        for q in range(K.dimension + 1 - p):
            for s1 in K.n_simplices(p):
                for s2 in K.n_simplices(q):
                    a = Cochain(K, p, {s1: Fraction(1)})
                    b = Cochain(K, q, {s2: Fraction(1)})
                    ab = aw_cup(a, b)
                    ba = aw_cup(b, a)
                    if ab != ba and ab != ba.scale(-1):
                        for s in K.n_simplices(p + q):
                            if ab.values[s] != ba.values[s]:
                                return s1, s2, s
    return None


def check_extension(scenario, check, settings, result):
    K = check.params["complex"]
    n = K.dimension + 1
    full = standard_simplex(n)

    def trial(rng):
        q = rng.randint(0, n - 1)
        source = _random_poly_form(rng, n, q, check.params["max_coeff_degree"])
        family = FormsFamily.restricted_to(FormsFamily.from_top_form(full, source), K)
        extended = extend_from_boundary(family)
        for i in range(n + 1):
            restricted = pullback_delta(DeltaMorphism.face(n, i), extended)
            facet = tuple(v for v in range(n + 1) if v != i)
            if restricted != family.assignment[facet]:
                return "extension does not restrict to facet %d" % i

    _trials(check, settings, result, trial)
    result.detail("dimension", n)


def check_simplicial_cohomology(scenario, check, settings, result):
    K = check.params["complex"]
    for q, expect in enumerate(check.params["dims"]):
        got = simplicial_cohomology(K, q).dimension
        result.detail("h%d" % q, got)
        if got != expect:
            result.fail("H^%d has dimension %d, expected %d" % (q, got, expect))


def check_coboundary_pairing(scenario, check, settings, result):
    n = check.params["complex"].dimension + 1
    cycle = fundamental_boundary_cycle(n)
    K = cycle.complex

    def trial(rng):
        c = _random_cochain(rng, K, n - 2)
        if pair(coboundary(c), cycle) != 0:
            return "coboundary paired nonzero against a cycle"

    _trials(check, settings, result, trial)
    result.detail("cycle_degree", n - 1)


CHECK_KINDS = {
    "validate": check_validate,
    "cohomology": check_cohomology,
    "poincare": check_poincare,
    "chain_map": check_chain_map,
    "chain_map_random": check_chain_map_random,
    "naturality_random": check_naturality_random,
    "pairing": check_pairing,
    "multiplicativity": check_multiplicativity,
    "idempotent_table": check_idempotent_table,
    "tau_witness": check_tau_witness,
    "tau_chain_map": check_tau_chain_map,
    "tau_cohomology": check_tau_cohomology,
    "aw_laws": check_aw_laws,
    "extension": check_extension,
    "simplicial_cohomology": check_simplicial_cohomology,
    "coboundary_pairing": check_coboundary_pairing,
}


def run_check(scenario, check, settings):
    result = CheckResult(check.name, check.kind)
    try:
        CHECK_KINDS[check.kind](scenario, check, settings, result)
    except RhamcheckError as exc:
        result = CheckResult(check.name, check.kind)
        result.fail("%s: %s" % (type(exc).__name__, exc))
    return result


def validate_settings(settings, scenarios, check_filter=None):
    """Raise ValidationError for settings that the selected checks cannot honour."""
    if settings.quad_order < 1:
        raise ValidationError("--quad-order %d is below 1" % settings.quad_order)
    if settings.quad_order > MAX_QUAD_ORDER:
        raise ValidationError("--quad-order %d is above %d" % (settings.quad_order, MAX_QUAD_ORDER))
    if settings.max_weight is not None and settings.max_weight < 0:
        raise ValidationError("--max-weight %d is below 0" % settings.max_weight)
    if settings.max_weight is not None and settings.max_weight > MAX_WEIGHT:
        raise ValidationError("--max-weight %d is above %d" % (settings.max_weight, MAX_WEIGHT))
    if settings.tolerance is not None and not 0 <= settings.tolerance < math.inf:
        raise ValidationError("--tolerance %r is not a finite non-negative number"
                              % settings.tolerance)
    matched = set()
    for scenario in scenarios:
        for check in scenario.checks:
            if check_filter and not check_filter & {check.name, check.kind}:
                continue
            matched |= {check.name, check.kind}
            if settings.max_weight is not None:
                validate_cutoff("check %s" % check.name, check.kind, check.params,
                                scenario.forms, "--max-weight", settings.max_weight)
    unmatched = sorted(check_filter - matched) if check_filter else []
    if unmatched:
        names = ", ".join("'%s'" % name for name in unmatched)
        raise ValidationError("--check %s matches no check" % names)


def run_scenario_checks(scenario, settings, check_filter=None):
    """Run every check, honoring the filter with explicit skip records."""
    results = []
    for check in scenario.checks:
        if check_filter and check.name not in check_filter and check.kind not in check_filter:
            result = CheckResult(check.name, check.kind)
            result.skip("filtered out by --check")
            results.append(result)
            continue
        results.append(run_check(scenario, check, settings))
    return results
