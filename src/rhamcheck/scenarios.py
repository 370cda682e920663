"""Scenario files: fixtures plus a list of checks, in a plain-text format.

A scenario is parsed from line-oriented text with nested sections:

    format_version 1
    name circle

    [algebra]
    variables x y
    relation x^2 + y^2 - 1

    [form omega]
    degree 1
    expr x*dy - y*dx

    [simplex arc0]
    dim 1
    lane numeric
    component (1 - t1^2)/(1 + t1^2)
    component 2*t1/(1 + t1^2)

    [family loop]
    simplices arc0 arc1 arc2 arc3

    [chain z]
    family loop
    degree 1
    term 1 arc0

    [check pairing_loop]
    kind pairing
    form omega
    chain z
    expect 6.283185307179586
    tolerance 1e-8

Every section is read through one key table: SECTION_KEYS for the
header (the lines before the first section) and the fixture sections,
CHECK_KEYS for each check kind.  A table gives each key its type and its
default.  Only `relation`, `component` and `term` lines repeat, and the
lines of a check's list keys (`simplices`, `forms`, `dims`) continue one
another; any other key given twice, an unknown key, a missing required
key, a malformed value, an undeclared name and a second section of the
same kind and name are refused, naming the section and the key.
Sections are built in dependency order, whatever their order in the
file, and all expression text is evaluated by `formtext`.

Families close themselves under faces symbolically, and a generated
face name depends on the order of that closure, so a chain may name
only the simplices its family lists; any other name is refused.

The builtin corpus is scenario text too.  The builtins that generate
their simplices and chains (circle, circle_x_points, torus) write every
section, keys in the order given, through one writer, `_section`.
"""

from __future__ import annotations

import math
import zlib
from collections import namedtuple
from fractions import Fraction

from .comparison import ParamSimplex, SingularFamily
from .derham import FpAlgebra, parse_algebraic_form
from .errors import ParseError, RhamcheckError, ValidationError
from .formtext import is_name
from .simplex_forms import parse_poly_form
from .simplicial import Chain, boundary_complex, standard_simplex

# params maps each CHECK_KEYS key of the kind to its parsed value
CheckSpec = namedtuple("CheckSpec", "name kind params")

UNNAMED = ("header", "algebra")  # the sections that take no name
# The largest k of delta<k> and boundary<k>, and the largest dim of a
# [simplex], a tau_witness or a random check.  Loading lists all
# 2^(k+1) - 1 faces of delta<k> up front: k = 10 is 2,047 faces, far above
# the delta3 and boundary3 of the corpus; each further step doubles it.
MAX_COMPLEX_K = 10
# The largest weight cutoff, of a max_weight key or of --max-weight.  The
# strata and family bases grow fast with it: FamilyComplex(boundary3, w)
# takes 0.5 s at w = 10, 2.6 s at w = 14 and 5 s at w = 16 (CPU time on
# one core), where the corpus uses at most 6.
MAX_WEIGHT = 16
# The largest max_degree of poincare and max_coeff_degree of extension (the
# corpus uses 6 and 2).  Eight extension draws at degree 8 take 0.7 s on
# boundary3, 27 s or more on boundary4 (CPU time on one core).
MAX_RANDOM_DEGREE = 8
# The largest count of a random check (the corpus draws at most 50).  At
# count 100 each kind takes under 0.6 s with its other keys at their
# defaults.  With them at their bounds tau_chain_map (max_dim 10) takes
# 46 s, aw_laws on delta10 2.8 s and poincare 1.1 s (CPU time on one core,
# process start included); extension grows with its complex, as above.
MAX_RANDOM_COUNT = 100


class Scenario:
    """Parsed fixtures: algebra, forms, simplices, families, chains, checks."""

    def __init__(self, text, source="<string>"):
        self.source = source
        self._sections = _sections(text, source)
        self._build()

    def _load(self, where, keys, raw, owner):
        """Parse one section's lines through its key table to {key: value}."""
        for key in raw:
            if key not in keys:
                raise ParseError("%s: %s: unknown key for %s" % (where, key, owner))
        params = {}
        for key, (parse, default) in keys.items():
            lines = raw.get(key, default)
            if lines is REQUIRED:
                raise ParseError("%s: %s: missing required key" % (where, key))
            if lines is None:
                params[key] = None
                continue
            if isinstance(lines, str):
                lines = [lines]
            if not getattr(parse, "repeats", False):
                if len(lines) > 1:
                    raise ParseError("%s: %s: given %d times" % (where, key, len(lines)))
                lines = lines[0]
            params[key] = parse(self, lines, "%s: %s" % (where, key))
        return params

    # -- building, in dependency order ---------------------------------------

    def _build(self):
        self.algebra = None
        self.forms, self.simplices, self.families = {}, {}, {}
        self.chains, self._listed = {}, {}
        for kind, keys in SECTION_KEYS.items():
            for name, raw in self._sections[kind].items():
                where = _label(kind, name)
                # one method per section kind: _build_header, _build_algebra, ...
                getattr(self, "_build_" + kind)(name, where, self._load(where, keys, raw, kind))
        self.checks = [self._load_check(name, raw) for name, raw in self._sections["check"].items()]

    def _build_header(self, name, where, p):
        self.name, self.description = p["name"], p["description"]

    def _build_algebra(self, name, where, p):
        self.algebra = _evaluate("%s: relation" % where, FpAlgebra, p["variables"], p["relation"])

    def _needs_algebra(self, where):
        if self.algebra is None:
            raise ValidationError("%s: declared without an [algebra] section" % where)
        return self.algebra

    def _build_form(self, name, where, p):
        algebra, degree = self._needs_algebra(where), p["degree"]
        form = _evaluate("%s: expr" % where, parse_algebraic_form, p["expr"], algebra, degree)
        if degree is not None and degree != form.degree:
            raise ValidationError("%s: degree: declared %d but expr has degree %d"
                                  % (where, degree, form.degree))
        self.forms[name] = form

    def _build_simplex(self, name, where, p):
        algebra = self._needs_algebra(where)
        simplex = _evaluate("%s: component" % where, ParamSimplex, p["dim"], algebra,
                            p["component"], name=name)
        if p["lane"] is not None and p["lane"] != simplex.lane:
            raise ValidationError("%s: lane: declared %s but the components are %s"
                                  % (where, p["lane"], simplex.lane))
        self.simplices[name] = simplex

    def _build_family(self, name, where, p):
        members = [self.simplices[s] for s in p["simplices"]]
        self.families[name] = _evaluate("%s: simplices" % where, SingularFamily, members)
        self._listed[name] = p["simplices"]

    def _build_chain(self, name, where, p):
        family, degree = self.families[p["family"]], p["degree"]
        terms = {}
        for coeff, sname in p["term"]:
            if sname not in self._listed[p["family"]]:
                raise ValidationError("%s: term: %r is not a simplex listed in family %s"
                                      % (where, sname, p["family"]))
            if sname not in family.n_simplices(degree):
                raise ValidationError("%s: term: family %s has no %d-simplex %r"
                                      % (where, p["family"], degree, sname))
            terms[sname] = terms.get(sname, 0) + coeff
        self.chains[name] = Chain(family, degree, terms)

    def _load_check(self, name, raw):
        """Look the check's kind up, then parse its keys through CHECK_KEYS."""
        where = "check %s" % name
        head = {"kind": raw.pop("kind")} if "kind" in raw else {}
        kind = self._load(where, {"kind": (_kind, REQUIRED)}, head, "check")["kind"]
        params = self._load(where, CHECK_KEYS[kind], raw, "kind %s" % kind)
        self._validate_degrees(kind, params, where)
        return CheckSpec(name, kind, params)

    def _validate_degrees(self, kind, p, where):
        """Refuse values that cannot meet; parse tau_witness forms on Delta^dim."""
        forms, simplices, chains = self.forms, self.simplices, self.chains
        if kind == "cohomology":
            self._needs_algebra(where)
        if kind in ("cohomology", "tau_cohomology"):
            validate_cutoff(where, kind, p, forms, "max_weight", p["max_weight"])
        elif kind == "tau_witness":
            for key in ("alpha", "beta"):
                p[key] = _evaluate("%s: %s" % (where, key), parse_poly_form, p[key], p["dim"])
        elif kind == "idempotent_table":
            for fname in p["forms"]:
                for sname in p["simplices"]:
                    _match_degree(where, "form %s" % fname, forms[fname].degree,
                                  "simplex %s" % sname, simplices[sname].n)
        elif kind == "chain_map":
            _match_degree(where, "d of form %s" % p["form"], forms[p["form"]].degree + 1,
                          "simplex %s" % p["simplex"], simplices[p["simplex"]].n)
        elif kind == "pairing":
            _match_degree(where, "form %s" % p["form"], forms[p["form"]].degree,
                          "chain %s" % p["chain"], chains[p["chain"]].degree)
        elif kind == "multiplicativity":
            _match_degree(where, "%s ^ %s" % (p["form1"], p["form2"]),
                          forms[p["form1"]].degree + forms[p["form2"]].degree,
                          "chain %s" % p["chain"], chains[p["chain"]].degree)
        elif kind == "simplicial_cohomology" and len(p["dims"]) > p["complex"].dimension + 1:
            raise ValidationError("%s: dims: %d degrees, but %s has cohomology only in degrees "
                                  "0..%d" % (where, len(p["dims"]), p["complex"].name,
                                             p["complex"].dimension))
        elif kind == "aw_laws" and p["complex"].dimension < 1:
            raise ValidationError("%s: complex: %s has only vertices, where the cup product "
                                  "commutes; aw_laws needs dimension >= 1"
                                  % (where, p["complex"].name))
        elif kind == "coboundary_pairing" and p["complex"].dimension < 1:
            raise ValidationError("%s: complex: the cycle of %s has degree 0, which no "
                                  "coboundary reaches; use boundary<k>, k >= 2"
                                  % (where, p["complex"].name))


def _sections(text, source):
    """Group the lines by section: kind -> name -> {key: [text per line]}."""
    sections = {kind: {} for kind in list(SECTION_KEYS) + ["check"]}
    section = sections["header"][None] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("["):
            header = line[1:-1].split() if line.endswith("]") else None
            if not header:
                raise ParseError("%s:%d: malformed section header %r" % (source, lineno, line))
            kind, names = header[0], header[1:]
            if kind not in sections or kind == "header":
                raise ParseError("%s:%d: unknown section %r" % (source, lineno, kind))
            named = kind not in UNNAMED
            if len(names) != int(named):
                raise ParseError("%s:%d: section %r takes %s"
                                 % (source, lineno, kind, "one name" if named else "no name"))
            name = names[0] if names else None
            if name in sections[kind]:
                raise ParseError("%s:%d: %s: second section of that name"
                                 % (source, lineno, _label(kind, name)))
            section = sections[kind][name] = {}
            continue
        key, _, rest = line.partition(" ")
        section.setdefault(key, []).append(rest.strip())
    return sections


def validate_cutoff(where, kind, p, forms, key, cutoff):
    """Refuse a weight cutoff, from the check's `key`, that a cohomology check cannot use.

    The check's `max_weight` and `--max-weight` both come through here.
    The class of `class_nonzero` is read off the stratum, which holds forms
    of the check's degree and of weight <= cutoff.  The top class of
    boundary<k> has degree k - 1, and a family complex at a lower cutoff
    has no forms there; on delta<k> every degree above 0 has H = 0, so any
    cutoff is right.
    """
    if kind == "cohomology":
        if cutoff < p["degree"]:
            raise ParseError("%s: %s: %d is below degree %d" % (where, key, cutoff, p["degree"]))
        name = p["class_nonzero"]
        form = None if name is None else forms[name]
        if form is not None and form.weight() > cutoff:
            raise ValidationError("%s: class_nonzero: form %s has weight %d, above max_weight %d"
                                  % (where, name, form.weight(), cutoff))
        if form is not None and form.degree != p["degree"]:
            raise ValidationError("%s: class_nonzero: form %s has degree %d, but the check has "
                                  "degree %d" % (where, name, form.degree, p["degree"]))
    elif kind == "tau_cohomology":
        K = p["complex"]
        if K.name.startswith("boundary") and cutoff < K.dimension:
            raise ValidationError("%s: %s: %d is below %d, the degree of the top class of %s"
                                  % (where, key, cutoff, K.dimension, K.name))


def _label(kind, name):
    return kind if name is None else "%s %s" % (kind, name)


def _evaluate(where, build, *args, **kwargs):
    """build(*args, **kwargs), with `where` prefixed to the message of its error."""
    try:
        return build(*args, **kwargs)
    except RhamcheckError as exc:
        raise type(exc)("%s: %s" % (where, exc)) from None


def _match_degree(where, what, degree, target, dim):
    if degree != dim:
        raise ValidationError(
            "%s: %s has degree %d but %s has dimension %d" % (where, what, degree, target, dim)
        )


def check_rng_seed(seed, check_name):
    """Deterministic per-check seed derivation (process-hash independent)."""
    return (seed * 1000003 + zlib.crc32(check_name.encode("utf-8"))) % (2**31)


# ---------------------------------------------------------------------------
# key types: parse(scenario, text, where) -> value, `where` naming the
# section and the key for messages


def _integer(text, what):
    """int(text), or a ParseError naming `what` when text is no integer."""
    try:
        return int(text)
    except ValueError:
        raise ParseError("%s: %r is not an integer" % (what, text)) from None


def _at_least(least, most=None):
    """An integer >= least, and <= most if given."""
    def parse(scenario, text, where):
        value = _integer(text, where)
        if value < least:
            raise ParseError("%s: %d is below %d" % (where, value, least))
        if most is not None and value > most:
            raise ParseError("%s: %d is above %d" % (where, value, most))
        return value
    return parse


def _choice(**options):
    """One of the given words, parsed to its value."""
    def parse(scenario, text, where):
        if text not in options:
            raise ParseError("%s: %r is not one of %s" % (where, text, "|".join(options)))
        return options[text]
    return parse


def _listed(item):
    """A non-empty list of values of type `item`."""
    def parse(scenario, text, where):
        if not text.split():
            raise ParseError("%s: lists nothing" % where)
        return [item(scenario, word, where) for word in text.split()]
    return parse


def _each(item):
    """A key that repeats: one value of type `item` per line, as a list."""
    def parse(scenario, lines, where):
        return [item(scenario, text, where) for text in lines]
    parse.repeats = True
    return parse


def _continued(item):
    """A key whose repeated lines continue one value of type `item`."""
    def parse(scenario, lines, where):
        return item(scenario, " ".join(lines), where)
    parse.repeats = True
    return parse


def _ref(table):
    """The name of a form, simplex, family or chain that the scenario declares."""
    def parse(scenario, text, where):
        if text not in getattr(scenario, table):
            raise ValidationError("%s: undefined name %r" % (where, text))
        return text
    return parse


def _complex(*kinds):
    """The complex delta<k>, k >= 0, or boundary<k>, k >= 1, if of the given kinds."""
    def parse(scenario, text, where):
        for kind, least, build in (("delta", 0, standard_simplex), ("boundary", 1, boundary_complex)):
            if text.startswith(kind):
                k = _at_least(least)(scenario, text[len(kind) :], "%s: %s" % (where, text))
                if k > MAX_COMPLEX_K:
                    raise ParseError("%s: %s is above %s%d" % (where, text, kind, MAX_COMPLEX_K))
                if kind not in kinds:
                    raise ValidationError("%s: %s is not a %s complex" % (where, text, kinds[0]))
                return build(k)
        raise ValidationError("%s: unknown complex %r" % (where, text))
    return parse


def _number(scenario, text, where):
    """A finite number: a decimal or exponent as a float, an integer or p/q as a Fraction."""
    try:
        value = float(text) if any(c in text for c in ".eE") else Fraction(text)
        if math.isfinite(value):  # raises OverflowError for a Fraction beyond floats
            return value
    except (ValueError, ZeroDivisionError, OverflowError):
        pass
    raise ParseError("%s: %r is not a finite number" % (where, text))


def _tolerance(scenario, text, where):
    value = float(_number(scenario, text, where))
    if value < 0:
        raise ParseError("%s: %r is below 0" % (where, text))
    return value


def _text(scenario, text, where):
    """Kept as text, to be evaluated once the section's other keys are parsed."""
    return text


def _word(scenario, text, where):
    """A single word."""
    if len(text.split()) != 1:
        raise ParseError("%s: %r is not one word" % (where, text))
    return text


def _names(scenario, text, where):
    """Distinct names that form text reads as themselves, at least one: no
    word outside its name rule, and no d<v> beside a variable v."""
    names = text.split()
    if not names or len(set(names)) != len(names):
        raise ParseError("%s: %r is not a list of distinct names" % (where, text))
    for name in names:
        if not is_name(name):
            raise ParseError("%s: %r is not a name in form text" % (where, name))
        if name[:1] == "d" and name[1:] in names:
            raise ParseError("%s: %r would read as the differential of %r" % (where, name, name[1:]))
    return tuple(names)


def _term(scenario, text, where):
    """`<integer> <simplex>`: one term of a chain."""
    words = text.split()
    if len(words) != 2:
        raise ParseError("%s: %r is not '<integer> <simplex>'" % (where, text))
    return _integer(words[0], where), words[1]


def _kind(scenario, text, where):
    if text not in CHECK_KEYS:
        raise ValidationError("%s: unknown kind %r" % (where, text))
    return text


REQUIRED = object()
COUNT, _dim = _at_least(0), _at_least(0, MAX_COMPLEX_K)
RANDOM_DIM, RANDOM_DEGREE = _at_least(1, MAX_COMPLEX_K), _at_least(0, MAX_RANDOM_DEGREE)
RANDOM_COUNT = _at_least(0, MAX_RANDOM_COUNT)
WEIGHT = _at_least(0, MAX_WEIGHT)
NUM_VARS = _choice(**{"1": 1, "2": 2, "3": 3})
FLAG = _choice(true=True, false=False)
VERDICT = _choice(valid="valid", violation="violation")
FORM, SIMPLEX, CHAIN = _ref("forms"), _ref("simplices"), _ref("chains")
COUNTS, FORMS, SIMPLICES = (_continued(_listed(item)) for item in (COUNT, FORM, SIMPLEX))
COMPLEX, BOUNDARY = _complex("delta", "boundary"), _complex("boundary")

# kind -> {key: (type, default)}.  A type parses a key's text, given the
# scenario and `where` ("<section>: <key>") for messages.  A default is
# REQUIRED, None (the key may be left out and reads None) or text to parse;
# a repeating key reads a list of lines, its default a list too.
# SECTION_KEYS is in dependency order: each section refers to earlier ones.
SECTION_KEYS = {
    "header": {"format_version": (_choice(**{"1": 1}), REQUIRED), "name": (_word, REQUIRED),
               "description": (_text, "")},
    "algebra": {"variables": (_names, REQUIRED), "relation": (_each(_text), [])},
    "form": {"degree": (COUNT, None), "expr": (_text, REQUIRED)},
    "simplex": {"dim": (_dim, REQUIRED), "component": (_each(_text), REQUIRED),
                "lane": (_choice(exact="exact", numeric="numeric"), None)},
    "family": {"simplices": (_listed(SIMPLEX), REQUIRED)},
    "chain": {"family": (_ref("families"), REQUIRED), "degree": (COUNT, REQUIRED),
              "term": (_each(_term), [])},
}

CHECK_KEYS = {
    "validate": {"simplices": (SIMPLICES, REQUIRED), "expect": (VERDICT, "valid")},
    "cohomology": {"degree": (COUNT, REQUIRED), "max_weight": (WEIGHT, "4"),
                   "expect_dim": (COUNT, None), "expect_min_dim": (COUNT, None),
                   "expect_stabilized": (FLAG, "false"), "class_nonzero": (FORM, None)},
    "poincare": {"count": (RANDOM_COUNT, "50"), "max_dim": (RANDOM_DIM, "3"),
                 "max_degree": (RANDOM_DEGREE, "6")},
    "chain_map": {"form": (FORM, REQUIRED), "simplex": (SIMPLEX, REQUIRED),
                  "tolerance": (_tolerance, None)},
    "chain_map_random": {"count": (RANDOM_COUNT, "50"), "num_vars": (NUM_VARS, "2")},
    "naturality_random": {"count": (RANDOM_COUNT, "30"), "num_vars": (NUM_VARS, "2")},
    "pairing": {"form": (FORM, REQUIRED), "chain": (CHAIN, REQUIRED),
                "expect": (_number, None), "tolerance": (_tolerance, None)},
    "multiplicativity": {"form1": (FORM, REQUIRED), "form2": (FORM, REQUIRED),
                         "chain": (CHAIN, REQUIRED), "expect": (_number, None),
                         "expect_tolerance": (_tolerance, None), "tolerance": (_tolerance, None)},
    "idempotent_table": {"forms": (FORMS, REQUIRED), "simplices": (SIMPLICES, REQUIRED)},
    "tau_witness": {"dim": (_dim, REQUIRED), "alpha": (_text, REQUIRED), "beta": (_text, REQUIRED)},
    "tau_chain_map": {"count": (RANDOM_COUNT, "30"), "max_dim": (RANDOM_DIM, "3")},
    "tau_cohomology": {"complex": (COMPLEX, REQUIRED), "max_weight": (WEIGHT, "3")},
    "aw_laws": {"complex": (COMPLEX, "delta3"), "count": (RANDOM_COUNT, "30")},
    "extension": {"complex": (BOUNDARY, REQUIRED), "count": (RANDOM_COUNT, "20"),
                  "max_coeff_degree": (RANDOM_DEGREE, "2")},
    "simplicial_cohomology": {"complex": (COMPLEX, REQUIRED), "dims": (COUNTS, REQUIRED)},
    "coboundary_pairing": {"complex": (BOUNDARY, REQUIRED), "count": (RANDOM_COUNT, "20")},
}


# ---------------------------------------------------------------------------
# builtin corpus
#
# Nonconstant polynomial maps into a compact variety like the circle do
# not exist, so the circle is covered by four rational quarter arcs via
# the half-tangent parametrization
#
#     arc(u) = ((1 - u^2)/(1 + u^2), 2u/(1 + u^2)),
#
# rotated by multiples of a quarter turn.  Each arc carries angle pi/2
# against the winding form x dy - y dx; four of them close up into a loop
# with total period 2 pi, and products of two loops triangulate the torus
# into 32 rational triangles.


def arc_component_texts(k, u):
    """Component strings of the k-th quarter arc at parameter expression u."""
    u = "(%s)" % u
    den = "(1 + %s^2)" % u
    cos_like = "(1 - %s^2)/%s" % (u, den)
    sin_like = "2*%s/%s" % (u, den)
    k = k % 4
    if k == 0:
        return [cos_like, sin_like]
    if k == 1:
        return ["-%s" % sin_like, cos_like]
    if k == 2:
        return ["-%s" % cos_like, "-%s" % sin_like]
    return [sin_like, "-%s" % cos_like]


def torus_triangle_components(i, j, kind):
    """Components of one triangle of the 32-triangle torus triangulation.

    Each grid square (i, j) splits along its diagonal into triangle 'a'
    (vertices at (i,j), (i+1,j), (i+1,j+1)) and triangle 'b' (vertices
    at (i,j), (i,j+1), (i+1,j+1)); the fundamental cycle is the sum of
    the a-triangles minus the b-triangles.
    """
    if kind == "a":
        first, second = "t1 + t2", "t2"
    else:
        first, second = "t2", "t1 + t2"
    return arc_component_texts(i, first) + arc_component_texts(j, second)


def _two_points_text():
    return """
format_version 1
name two_points
description Two real points: idempotent classes, exact multiplicativity

[algebra]
variables x
relation x^2 - 1

[form eplus]
degree 0
expr (1 + x)/2

[form eminus]
degree 0
expr (1 - x)/2

[simplex at_plus]
dim 0
lane exact
component 1

[simplex at_minus]
dim 0
lane exact
component -1

[family points]
simplices at_plus at_minus

[chain zplus]
family points
degree 0
term 1 at_plus

[chain zminus]
family points
degree 0
term 1 at_minus

[check h0]
kind cohomology
degree 0
max_weight 4
expect_dim 2
expect_stabilized true

[check h1]
kind cohomology
degree 1
max_weight 4
expect_dim 0

[check idempotents]
kind idempotent_table
forms eplus eminus
simplices at_plus at_minus

[check mult_plus]
kind multiplicativity
form1 eplus
form2 eplus
chain zplus
expect 1
tolerance 0

[check mult_minus]
kind multiplicativity
form1 eplus
form2 eplus
chain zminus
expect 0
tolerance 0
"""


def _interval_text():
    return """
format_version 1
name interval
description The affine line: algebraic and simplex-side contractions

[algebra]
variables x

[check h0]
kind cohomology
degree 0
max_weight 6
expect_dim 1
expect_stabilized true

[check h1]
kind cohomology
degree 1
max_weight 6
expect_dim 0
expect_stabilized true

[check contraction]
kind poincare
max_dim 3
max_degree 6
count 50
"""


def _section(lines, header, **keys):
    """Append `[header]` after a blank line, then one `key value` line per
    key; a list value gives one line per item, as a repeated key reads."""
    lines += ["", "[%s]" % header]
    for key, value in keys.items():
        for item in value if isinstance(value, list) else [value]:
            lines.append("%s %s" % (key, item))


def _circle_text():
    lines = ["format_version 1", "name circle",
             "description Rational circle: winding class, Stokes residuals, 2*pi pairing"]
    _section(lines, "algebra", variables="x y", relation="x^2 + y^2 - 1")
    _section(lines, "form omega", degree=1, expr="x*dy - y*dx")
    arcs = ["arc%d" % k for k in range(4)]
    for k, name in enumerate(arcs):
        _section(lines, "simplex " + name, dim=1, lane="numeric",
                 component=arc_component_texts(k, "t1"))
    _section(lines, "simplex sweep", dim=2, lane="numeric",
             component=arc_component_texts(0, "t1 + t2"))
    _section(lines, "simplex off_variety", dim=1, lane="exact", component=["t1", "t1"])
    _section(lines, "family loop", simplices=" ".join(arcs))
    _section(lines, "chain z", family="loop", degree=1, term=["1 " + name for name in arcs])
    for name, simplices, expect in (("arcs_valid", arcs + ["sweep"], "valid"),
                                    ("off_variety", ["off_variety"], "violation")):
        _section(lines, "check " + name, kind="validate", simplices=" ".join(simplices),
                 expect=expect)
    _section(lines, "check h1_class", kind="cohomology", degree=1, max_weight=4,
             expect_min_dim=1, class_nonzero="omega")
    _section(lines, "check stokes_exact", kind="chain_map_random", count=50, num_vars=2)
    _section(lines, "check stokes_arc", kind="chain_map", form="omega", simplex="sweep",
             tolerance="1e-10")
    _section(lines, "check natural", kind="naturality_random", count=30, num_vars=2)
    _section(lines, "check pairing_loop", kind="pairing", form="omega", chain="z",
             expect="6.283185307179586", tolerance="1e-8")
    return "\n".join(lines)


def _circle_x_points_text():
    lines = ["format_version 1", "name circle_x_points",
             "description Circle times two points: mixed-degree multiplicativity"]
    _section(lines, "algebra", variables="x y s", relation=["x^2 + y^2 - 1", "s^2 - s"])
    _section(lines, "form s_idem", degree=0, expr="s")
    _section(lines, "form omega", degree=1, expr="x*dy - y*dx")
    for level in (1, 0):
        for k in range(4):
            _section(lines, "simplex arc%d_s%d" % (k, level), dim=1, lane="numeric",
                     component=arc_component_texts(k, "t1") + [level])
    names = " ".join("arc%d_s%d" % (k, level) for level in (1, 0) for k in range(4))
    _section(lines, "family loops", simplices=names)
    for level in (1, 0):
        _section(lines, "chain z%d" % level, family="loops", degree=1,
                 term=["1 arc%d_s%d" % (k, level) for k in range(4)])
    _section(lines, "check valid", kind="validate", simplices=names, expect="valid")
    for level, expect in ((1, "6.283185307179586"), (0, 0)):
        _section(lines, "check mult_s%d" % level, kind="multiplicativity", form1="s_idem",
                 form2="omega", chain="z%d" % level, expect=expect, expect_tolerance="1e-8",
                 tolerance="1e-8")
    return "\n".join(lines)


def _torus_text():
    lines = ["format_version 1", "name torus",
             "description Torus: top-degree multiplicativity over a 32-triangle cycle"]
    _section(lines, "algebra", variables="x y z w",
             relation=["x^2 + y^2 - 1", "z^2 + w^2 - 1"])
    _section(lines, "form omega1", degree=1, expr="x*dy - y*dx")
    _section(lines, "form omega2", degree=1, expr="z*dw - w*dz")
    names = []
    for i in range(4):
        for j in range(4):
            for kind, sign in (("a", 1), ("b", -1)):
                names.append(("tri_%s_%d_%d" % (kind, i, j), sign))
                _section(lines, "simplex " + names[-1][0], dim=2, lane="numeric",
                         component=torus_triangle_components(i, j, kind))
    _section(lines, "family grid", simplices=" ".join(name for name, _ in names))
    _section(lines, "chain z", family="grid", degree=2,
             term=["%d %s" % (sign, name) for name, sign in names])
    _section(lines, "check flagship", kind="multiplicativity", form1="omega1", form2="omega2",
             chain="z", expect="39.4784176", expect_tolerance="1e-4", tolerance="1e-6")
    return "\n".join(lines)


def _sphere_text():
    return """
format_version 1
name sphere
description Boundary of the tetrahedron: Betti numbers and cochain algebra laws

[check betti]
kind simplicial_cohomology
complex boundary3
dims 1 0 1

[check betti_circle]
kind simplicial_cohomology
complex boundary2
dims 1 1

[check aw]
kind aw_laws
complex delta3
count 30

[check pair_coboundary]
kind coboundary_pairing
complex boundary3
count 20
"""


def _tau_witness_text():
    return """
format_version 1
name tau_witness
description Integration to cochains: not multiplicative on cochains, multiplicative on cohomology

[check witness]
kind tau_witness
dim 2
alpha t1
beta dt1

[check chain_map]
kind tau_chain_map
count 30
max_dim 3

[check cohomology_circle]
kind tau_cohomology
complex boundary2
max_weight 3

[check cohomology_triangle]
kind tau_cohomology
complex delta2
max_weight 3
"""


def _boundary_extension_text():
    return """
format_version 1
name boundary_extension
description Extendability of compatible boundary families

[check roundtrip2]
kind extension
complex boundary2
count 20
max_coeff_degree 2

[check roundtrip3]
kind extension
complex boundary3
count 8
max_coeff_degree 2
"""


BUILTIN_BUILDERS = {
    "two_points": _two_points_text,
    "interval": _interval_text,
    "circle": _circle_text,
    "circle_x_points": _circle_x_points_text,
    "torus": _torus_text,
    "sphere": _sphere_text,
    "tau_witness": _tau_witness_text,
    "boundary_extension": _boundary_extension_text,
}


def builtin_names():
    return list(BUILTIN_BUILDERS)


def builtin_text(name):
    if name not in BUILTIN_BUILDERS:
        raise ValidationError("unknown builtin %r" % name)
    return BUILTIN_BUILDERS[name]().strip() + "\n"


def builtin_description(name):
    """The description in a builtin's header, read without building the scenario."""
    return _sections(builtin_text(name), "builtin:%s" % name)["header"][None]["description"][0]


def load_builtin(name):
    return Scenario(builtin_text(name), source="builtin:%s" % name)
