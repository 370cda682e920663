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

Families close themselves under faces symbolically, so chains may refer
to the named top simplices only.  CHECK_KEYS lists each check kind's keys,
their types and defaults; a check is parsed through it when the scenario
loads, and an unknown kind or key, a missing required key, a malformed
value or an undeclared name is refused naming the check and the key.
"""

from __future__ import annotations

import math
import zlib
from collections import namedtuple
from fractions import Fraction

from .comparison import ParamSimplex, SingularFamily, VarietyPresentation
from .derham import FpAlgebra, parse_algebraic_form
from .errors import ParseError, ValidationError
from .simplex_forms import parse_poly_form
from .simplicial import boundary_complex, standard_simplex

FORMAT_VERSION = 1


# params maps each CHECK_KEYS key of the kind to its parsed value
CheckSpec = namedtuple("CheckSpec", "name kind params")


class Scenario:
    """Parsed fixtures: algebra, forms, simplices, families, chains, checks."""

    def __init__(self, text, source="<string>"):
        self.source = source
        self.name = None
        self.description = ""
        self.format_version = None
        self._algebra_lines = []
        self._form_lines = {}
        self._simplex_lines = {}
        self._family_lines = {}
        self._chain_lines = {}
        self._check_lines = []
        self._parse(text)
        self._build()

    # -- parsing ------------------------------------------------------------

    def _parse(self, text):
        section = None
        section_name = None
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if line.startswith("["):
                if not line.endswith("]"):
                    raise ParseError("%s:%d: unterminated section header" % (self.source, lineno))
                header = line[1:-1].split()
                if not header:
                    raise ParseError("%s:%d: empty section header" % (self.source, lineno))
                kind = header[0]
                section_name = header[1] if len(header) > 1 else None
                if kind == "algebra":
                    section = self._algebra_lines
                elif kind == "form":
                    section = self._form_lines.setdefault(self._need_name(kind, section_name, lineno), [])
                elif kind == "simplex":
                    section = self._simplex_lines.setdefault(self._need_name(kind, section_name, lineno), [])
                elif kind == "family":
                    section = self._family_lines.setdefault(self._need_name(kind, section_name, lineno), [])
                elif kind == "chain":
                    section = self._chain_lines.setdefault(self._need_name(kind, section_name, lineno), [])
                elif kind == "check":
                    section = {}
                    self._check_lines.append((self._need_name(kind, section_name, lineno), section))
                else:
                    raise ParseError("%s:%d: unknown section %r" % (self.source, lineno, kind))
                continue
            key, _, rest = line.partition(" ")
            rest = rest.strip()
            if section is None:
                if key == "format_version":
                    where = "%s:%d: format_version" % (self.source, lineno)
                    self.format_version = _integer(rest, where)
                elif key == "name":
                    self.name = rest
                elif key == "description":
                    self.description = rest
                else:
                    raise ParseError("%s:%d: unknown top-level key %r" % (self.source, lineno, key))
                continue
            if isinstance(section, dict):
                if key in section:
                    section[key] = section[key] + " " + rest
                else:
                    section[key] = rest
            else:
                section.append((key, rest))
        if self.format_version != FORMAT_VERSION:
            raise ParseError(
                "%s: format_version %r not supported" % (self.source, self.format_version)
            )
        if not self.name:
            raise ParseError("%s: scenario has no name" % self.source)

    def _need_name(self, kind, name, lineno):
        if not name:
            raise ParseError("%s:%d: section %r needs a name" % (self.source, lineno, kind))
        return name

    # -- building -----------------------------------------------------------

    def _build(self):
        self.algebra = None
        self.variety = None
        if self._algebra_lines:
            variables = None
            relations = []
            for key, rest in self._algebra_lines:
                if key == "variables":
                    variables = tuple(rest.split())
                elif key == "relation":
                    relations.append(rest)
                else:
                    raise ParseError("%s: unknown algebra key %r" % (self.source, key))
            if variables is None:
                raise ParseError("%s: algebra without variables" % self.source)
            self.algebra = FpAlgebra(variables, relations)
            self.variety = VarietyPresentation(self.algebra)
        self.forms = {}
        for name, lines in self._form_lines.items():
            entries = dict(lines)
            if self.algebra is None:
                raise ValidationError("form %s declared without an algebra" % name)
            if "expr" not in entries:
                raise ParseError("form %s has no expr" % name)
            declared = entries.get("degree")
            if declared is not None:
                declared = COUNT(self, declared, "form %s: degree" % name)
            form = parse_algebraic_form(entries["expr"], self.algebra, declared)
            if declared is not None and declared != form.degree:
                raise ValidationError(
                    "form %s declares degree %d but parses to degree %d"
                    % (name, declared, form.degree)
                )
            self.forms[name] = form
        self.simplices = {}
        for name, lines in self._simplex_lines.items():
            if self.variety is None:
                raise ValidationError("simplex %s declared without an algebra" % name)
            dim = None
            lane = None
            components = []
            for key, rest in lines:
                if key == "dim":
                    dim = _integer(rest, "simplex %s: dim" % name)
                elif key == "lane":
                    lane = rest
                elif key == "component":
                    components.append(rest)
                else:
                    raise ParseError("simplex %s: unknown key %r" % (name, key))
            if dim is None:
                raise ParseError("simplex %s has no dim" % name)
            simplex = ParamSimplex(dim, self.variety, components, name=name, check=False)
            if lane is not None and lane != simplex.lane:
                raise ValidationError(
                    "simplex %s declares lane %s but its components are %s"
                    % (name, lane, simplex.lane)
                )
            self.simplices[name] = simplex
        self.families = {}
        for name, lines in self._family_lines.items():
            entries = dict(lines)
            listed = entries.get("simplices", "").split()
            if not listed:
                raise ParseError("family %s lists no simplices" % name)
            members = []
            for sname in listed:
                if sname not in self.simplices:
                    raise ValidationError("family %s references undefined simplex %s" % (name, sname))
                members.append(self.simplices[sname])
            self.families[name] = SingularFamily(members)
        self.chains = {}
        self.chain_family = {}
        for name, lines in self._chain_lines.items():
            family_name = None
            degree = None
            terms = {}
            for key, rest in lines:
                if key == "family":
                    family_name = rest
                elif key == "degree":
                    degree = _integer(rest, "chain %s: degree" % name)
                elif key == "term":
                    coeff_text, _, sname = rest.partition(" ")
                    sname = sname.strip()
                    coeff = _integer(coeff_text, "chain %s: term coefficient" % name)
                    terms[sname] = terms.get(sname, 0) + coeff
                else:
                    raise ParseError("chain %s: unknown key %r" % (name, key))
            if family_name not in self.families:
                raise ValidationError("chain %s references undefined family %s" % (name, family_name))
            family = self.families[family_name]
            if degree is None:
                raise ParseError("chain %s has no degree" % name)
            for sname in terms:
                if sname not in family.simplex_of:
                    raise ValidationError("chain %s references undefined simplex %s" % (name, sname))
            self.chains[name] = family.chain(degree, terms)
            self.chain_family[name] = family
        self.checks = [self._load_check(name, raw) for name, raw in self._check_lines]

    def _load_check(self, name, raw):
        """Parse one check's keys through CHECK_KEYS, then cross-check the values."""
        where = "check %s" % name
        kind = raw.pop("kind", None)
        if kind not in CHECK_KEYS:
            problem = "missing required key" if kind is None else "unknown kind %r" % kind
            raise ValidationError("%s: kind: %s" % (where, problem))
        keys = CHECK_KEYS[kind]
        for key in raw:
            if key not in keys:
                raise ParseError("%s: %s: unknown key for kind %s" % (where, key, kind))
        params = {}
        for key, (parse, default) in keys.items():
            text = raw.get(key, default)
            if text is REQUIRED:
                raise ValidationError("%s: %s: missing required key" % (where, key))
            params[key] = None if text is None else parse(self, text, "%s: %s" % (where, key))
        self._validate_degrees(kind, params, where)
        return CheckSpec(name, kind, params)

    def _validate_degrees(self, kind, p, where):
        """Refuse values that cannot meet; parse tau_witness forms on Delta^dim."""
        forms, simplices, chains = self.forms, self.simplices, self.chains
        if kind == "cohomology" and p["max_weight"] < p["degree"]:
            raise ParseError("%s: max_weight: %d is below degree %d"
                             % (where, p["max_weight"], p["degree"]))
        elif kind == "tau_witness":
            for key in ("alpha", "beta"):
                try:
                    p[key] = parse_poly_form(p[key], p["dim"])
                except (ParseError, ZeroDivisionError) as exc:
                    raise ParseError("%s: %s: %s" % (where, key, exc)) from None
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


def _match_degree(where, what, degree, target, dim):
    if degree != dim:
        raise ValidationError(
            "%s: %s has degree %d but %s has dimension %d" % (where, what, degree, target, dim)
        )


def check_rng_seed(seed, check_name):
    """Deterministic per-check seed derivation (process-hash independent)."""
    return (seed * 1000003 + zlib.crc32(check_name.encode("utf-8"))) % (2**31)


def _integer(text, what):
    """int(text), or a ParseError naming `what` when text is no integer."""
    try:
        return int(text)
    except ValueError:
        raise ParseError("%s: %r is not an integer" % (what, text)) from None


# ---------------------------------------------------------------------------
# check keys


def _at_least(least):
    """An integer >= least."""
    def parse(scenario, text, where):
        value = _integer(text, where)
        if value < least:
            raise ParseError("%s: %d is below %d" % (where, value, least))
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


def _ref(table):
    """The name of a form, simplex or chain that the scenario declares."""
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
    """Kept as text for Scenario._validate_degrees to parse."""
    return text


REQUIRED = object()
COUNT, POSITIVE = _at_least(0), _at_least(1)
NUM_VARS = _choice(**{"1": 1, "2": 2, "3": 3})
FLAG = _choice(true=True, false=False)
VERDICT = _choice(valid="valid", violation="violation")
FORM, SIMPLEX, CHAIN = _ref("forms"), _ref("simplices"), _ref("chains")
COUNTS, FORMS, SIMPLICES = _listed(COUNT), _listed(FORM), _listed(SIMPLEX)
COMPLEX, BOUNDARY = _complex("delta", "boundary"), _complex("boundary")

# kind -> {key: (type, default)}.  A type parses a key's text, given the
# scenario and `where` ("check <name>: <key>") for messages.  A default is
# REQUIRED, None (the key may be left out and reads None) or text to parse.
CHECK_KEYS = {
    "validate": {"simplices": (SIMPLICES, REQUIRED), "expect": (VERDICT, "valid")},
    "cohomology": {"degree": (COUNT, REQUIRED), "max_weight": (COUNT, "4"),
                   "expect_dim": (COUNT, None), "expect_min_dim": (COUNT, None),
                   "expect_stabilized": (FLAG, "false"), "class_nonzero": (FORM, None)},
    "poincare": {"count": (COUNT, "50"), "max_dim": (POSITIVE, "3"), "max_degree": (COUNT, "6")},
    "chain_map": {"form": (FORM, REQUIRED), "simplex": (SIMPLEX, REQUIRED),
                  "tolerance": (_tolerance, None)},
    "chain_map_random": {"count": (COUNT, "50"), "num_vars": (NUM_VARS, "2")},
    "naturality_random": {"count": (COUNT, "30"), "num_vars": (NUM_VARS, "2")},
    "pairing": {"form": (FORM, REQUIRED), "chain": (CHAIN, REQUIRED),
                "expect": (_number, None), "tolerance": (_tolerance, None)},
    "multiplicativity": {"form1": (FORM, REQUIRED), "form2": (FORM, REQUIRED),
                         "chain": (CHAIN, REQUIRED), "expect": (_number, None),
                         "expect_tolerance": (_tolerance, None), "tolerance": (_tolerance, None)},
    "idempotent_table": {"forms": (FORMS, REQUIRED), "simplices": (SIMPLICES, REQUIRED)},
    "tau_witness": {"dim": (COUNT, REQUIRED), "alpha": (_text, REQUIRED), "beta": (_text, REQUIRED)},
    "tau_chain_map": {"count": (COUNT, "30"), "max_dim": (POSITIVE, "3")},
    "tau_cohomology": {"complex": (COMPLEX, REQUIRED), "max_weight": (COUNT, "3")},
    "aw_laws": {"complex": (COMPLEX, "delta3"), "count": (COUNT, "30")},
    "extension": {"complex": (BOUNDARY, REQUIRED), "count": (COUNT, "20"),
                  "max_coeff_degree": (COUNT, "2")},
    "simplicial_cohomology": {"complex": (COMPLEX, REQUIRED), "dims": (COUNTS, REQUIRED)},
    "coboundary_pairing": {"complex": (BOUNDARY, REQUIRED), "count": (COUNT, "20")},
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


def _circle_text():
    lines = [
        "format_version 1",
        "name circle",
        "description Rational circle: winding class, Stokes residuals, 2*pi pairing",
        "",
        "[algebra]",
        "variables x y",
        "relation x^2 + y^2 - 1",
        "",
        "[form omega]",
        "degree 1",
        "expr x*dy - y*dx",
        "",
    ]
    for k in range(4):
        comps = arc_component_texts(k, "t1")
        lines += [
            "[simplex arc%d]" % k,
            "dim 1",
            "lane numeric",
            "component %s" % comps[0],
            "component %s" % comps[1],
            "",
        ]
    sweep = arc_component_texts(0, "t1 + t2")
    lines += [
        "[simplex sweep]",
        "dim 2",
        "lane numeric",
        "component %s" % sweep[0],
        "component %s" % sweep[1],
        "",
        "[simplex off_variety]",
        "dim 1",
        "lane exact",
        "component t1",
        "component t1",
        "",
        "[family loop]",
        "simplices arc0 arc1 arc2 arc3",
        "",
        "[chain z]",
        "family loop",
        "degree 1",
        "term 1 arc0",
        "term 1 arc1",
        "term 1 arc2",
        "term 1 arc3",
        "",
        "[check arcs_valid]",
        "kind validate",
        "simplices arc0 arc1 arc2 arc3 sweep",
        "expect valid",
        "",
        "[check off_variety]",
        "kind validate",
        "simplices off_variety",
        "expect violation",
        "",
        "[check h1_class]",
        "kind cohomology",
        "degree 1",
        "max_weight 4",
        "expect_min_dim 1",
        "class_nonzero omega",
        "",
        "[check stokes_exact]",
        "kind chain_map_random",
        "count 50",
        "num_vars 2",
        "",
        "[check stokes_arc]",
        "kind chain_map",
        "form omega",
        "simplex sweep",
        "tolerance 1e-10",
        "",
        "[check natural]",
        "kind naturality_random",
        "count 30",
        "num_vars 2",
        "",
        "[check pairing_loop]",
        "kind pairing",
        "form omega",
        "chain z",
        "expect 6.283185307179586",
        "tolerance 1e-8",
    ]
    return "\n".join(lines)


def _circle_x_points_text():
    lines = [
        "format_version 1",
        "name circle_x_points",
        "description Circle times two points: mixed-degree multiplicativity",
        "",
        "[algebra]",
        "variables x y s",
        "relation x^2 + y^2 - 1",
        "relation s^2 - s",
        "",
        "[form s_idem]",
        "degree 0",
        "expr s",
        "",
        "[form omega]",
        "degree 1",
        "expr x*dy - y*dx",
        "",
    ]
    all_names = []
    for level in (1, 0):
        for k in range(4):
            comps = arc_component_texts(k, "t1") + [str(level)]
            name = "arc%d_s%d" % (k, level)
            all_names.append(name)
            lines += ["[simplex %s]" % name, "dim 1", "lane numeric"]
            lines += ["component %s" % c for c in comps]
            lines.append("")
    lines += [
        "[family loops]",
        "simplices " + " ".join(all_names),
        "",
        "[chain z1]",
        "family loops",
        "degree 1",
    ]
    lines += ["term 1 arc%d_s1" % k for k in range(4)]
    lines += ["", "[chain z0]", "family loops", "degree 1"]
    lines += ["term 1 arc%d_s0" % k for k in range(4)]
    lines += [
        "",
        "[check valid]",
        "kind validate",
        "simplices " + " ".join(all_names),
        "expect valid",
        "",
        "[check mult_s1]",
        "kind multiplicativity",
        "form1 s_idem",
        "form2 omega",
        "chain z1",
        "expect 6.283185307179586",
        "expect_tolerance 1e-8",
        "tolerance 1e-8",
        "",
        "[check mult_s0]",
        "kind multiplicativity",
        "form1 s_idem",
        "form2 omega",
        "chain z0",
        "expect 0",
        "expect_tolerance 1e-8",
        "tolerance 1e-8",
    ]
    return "\n".join(lines)


def _torus_text():
    lines = [
        "format_version 1",
        "name torus",
        "description Torus: top-degree multiplicativity over a 32-triangle cycle",
        "",
        "[algebra]",
        "variables x y z w",
        "relation x^2 + y^2 - 1",
        "relation z^2 + w^2 - 1",
        "",
        "[form omega1]",
        "degree 1",
        "expr x*dy - y*dx",
        "",
        "[form omega2]",
        "degree 1",
        "expr z*dw - w*dz",
        "",
    ]
    names = []
    for i in range(4):
        for j in range(4):
            for kind in ("a", "b"):
                name = "tri_%s_%d_%d" % (kind, i, j)
                names.append((name, 1 if kind == "a" else -1))
                lines += ["[simplex %s]" % name, "dim 2", "lane numeric"]
                lines += [
                    "component %s" % c for c in torus_triangle_components(i, j, kind)
                ]
                lines.append("")
    lines += ["[family grid]", "simplices " + " ".join(n for n, _ in names), ""]
    lines += ["[chain z]", "family grid", "degree 2"]
    lines += ["term %d %s" % (sign, name) for name, sign in names]
    lines += [
        "",
        "[check flagship]",
        "kind multiplicativity",
        "form1 omega1",
        "form2 omega2",
        "chain z",
        "expect 39.4784176",
        "expect_tolerance 1e-4",
        "tolerance 1e-6",
    ]
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

BUILTIN_DESCRIPTIONS = {
    "two_points": "Q[x]/(x^2-1): H^0 = 2, idempotent pairing table, exact multiplicativity",
    "interval": "Q[x]: algebraic and simplex-side contraction identities",
    "circle": "rational circle: Stokes, naturality, winding class, 2*pi pairing",
    "circle_x_points": "circle x two points: mixed-degree multiplicativity in both components",
    "torus": "torus: top-degree multiplicativity over the 32-triangle fundamental cycle",
    "sphere": "boundary of the tetrahedron: Betti numbers 1,0,1 and AW algebra laws",
    "tau_witness": "integration map: cochain-level failure, cohomology-level multiplicativity",
    "boundary_extension": "round trips of the boundary-family extension operator",
}


def builtin_names():
    return list(BUILTIN_BUILDERS)


def builtin_text(name):
    if name not in BUILTIN_BUILDERS:
        raise ValidationError("unknown builtin %r" % name)
    return BUILTIN_BUILDERS[name]().strip() + "\n"


def load_builtin(name):
    return Scenario(builtin_text(name), source="builtin:%s" % name)
