"""Source hygiene: no module of the package imports a name it never uses,
none divides an int literal by a value that may itself be an int, none
but `ratfunc` builds a RationalFunc directly, no check runner builds its
own CheckResult or rng, only the expression reader and the scenario and command
line front ends raise ParseError, every module-level function or class
is named somewhere in src, tests or benchmarks, and, but for a listed
few, it and every method of a class somewhere in src or benchmarks,
every data file of the package is declared for its wheel, every memo
but the two that hold complexes is bounded by a named constant of its module,
and every parameter default of src is overridden by some call in src or
benchmarks."""

import ast
import math
from fnmatch import fnmatch
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "rhamcheck"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source):
    """Names bound by import statements in `source` that no expression reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_unused_imports_are_found():
    source = "import os\nimport numpy as np\nfrom .x import a, b as c\nprint(np, a)\n"
    assert unused_imports(source) == [(1, "os"), (3, "c")]


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def int_literal_divisions(source):
    """Lines of `source` with a true division whose left operand is an int literal.

    Polynomial coefficients are stored as ints where integral, and
    `1 / c` of two ints is a float; such quotients go through Fraction.
    """
    return sorted(
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.BinOp)
        and isinstance(node.op, ast.Div)
        and isinstance(node.left, ast.Constant)
        and type(node.left.value) is int
    )


def test_int_literal_divisions_are_found():
    source = "a = 1 / c\nb = Fraction(1, c)\nd = 1.0 / c\ne = x / 2\nf = (2 / c) * 3\n"
    assert int_literal_divisions(source) == [1, 5]


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_module_divides_no_int_literal(path):
    assert int_literal_divisions(path.read_text(encoding="utf-8")) == []


def rational_func_calls(source):
    """Lines of `source` that call RationalFunc(...) directly.

    A scalar is a Polynomial whenever its denominator is constant, and
    only `ratfunc.ratio` decides that; a direct call could wrap a
    polynomial or skip the normalization.
    """
    return sorted(
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call)
        and (getattr(node.func, "id", None) == "RationalFunc"
             or getattr(node.func, "attr", None) == "RationalFunc")
    )


def test_rational_func_calls_are_found():
    source = "a = RationalFunc(p)\nb = ratio(p, q)\nc = ratfunc.RationalFunc(p, q)\nd = RationalFunc\n"
    assert rational_func_calls(source) == [1, 3]


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "ratfunc.py"],
                         ids=[p.stem for p in MODULES if p.name != "ratfunc.py"])
def test_module_builds_no_rational_func_directly(path):
    assert rational_func_calls(path.read_text(encoding="utf-8")) == []


ROOT = PACKAGE.parent.parent
SOURCES = sorted(p for folder in ("src", "tests", "benchmarks") for p in (ROOT / folder).rglob("*.py"))


def referenced_names(source):
    """Identifiers `source` reads: names, attributes, imported names, and the
    parts of strings that are dotted identifier paths (names patched by string)."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.update(node.name.split("."))
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            parts = node.value.split(".")
            if all(part.isidentifier() for part in parts):
                names.update(parts)
    return names


def dead_definitions(source, used):
    """Module-level functions and classes of `source` whose names are not in `used`."""
    return sorted(
        (node.lineno, node.name)
        for node in ast.parse(source).body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and node.name not in used
    )


def test_dead_definitions_are_found():
    source = "def a():\n    return b()\n\n\ndef b():\n    pass\n\n\ndef c():\n    pass\n\n\nclass D:\n    pass\n"
    used = referenced_names(source) | referenced_names("x = D()\ny = 'mod.a'\n")
    assert dead_definitions(source, used) == [(9, "c")]


@pytest.fixture(scope="module")
def used_names():
    """Every name that src, tests and benchmarks read, parsed once for all modules."""
    return set().union(*(referenced_names(p.read_text(encoding="utf-8")) for p in SOURCES))


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_module_defines_nothing_unnamed(path, used_names):
    assert dead_definitions(path.read_text(encoding="utf-8"), used_names) == []


def unread_definitions(source, used):
    """Module-level functions and classes of `source`, and the methods of its
    classes, as "f", "C" and "C.m", whose names are not in `used`; dunders are
    skipped."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    found = []
    for node in ast.parse(source).body:
        if not isinstance(node, defs):
            continue
        found.append((node.name, node.name))
        if isinstance(node, ast.ClassDef):
            found += [("%s.%s" % (node.name, m.name), m.name) for m in node.body
                      if isinstance(m, defs[:2])]
    return sorted(qualified for qualified, name in found
                  if name not in used and not (name.startswith("__") and name.endswith("__")))


def test_unread_definitions_are_found():
    source = ("def a():\n    return b()\n\n\ndef b():\n    pass\n\n\ndef c():\n    pass\n\n\n"
              "class D:\n    def __init__(self):\n        self.m()\n\n"
              "    def m(self):\n        pass\n\n    def n(self):\n        pass\n")
    used = referenced_names(source) | referenced_names("x = D()\n")
    assert unread_definitions(source, used) == ["D.n", "a", "c"]


# Definitions that no src module and no benchmarks file names, and why each stays.
UNREAD_ON_PURPOSE = {
    **{"scenarios.Scenario._build_%s" % kind: "reached through getattr in Scenario._build"
       for kind in ("header", "algebra", "form", "simplex", "family", "chain")},
    "simplicial.unnormalized_cohomology_dimension": "the test oracle of simplicial_cohomology",
}


def test_src_defines_nothing_that_only_the_tests_read():
    """A definition that only tests reach is code the program does not need;
    its test can check the behaviour through the code that remains."""
    used = set().union(*(referenced_names(p.read_text(encoding="utf-8"))
                         for p in SOURCES if p.relative_to(ROOT).parts[0] != "tests"))
    found = ["%s.%s" % (path.stem, name) for path in MODULES
             for name in unread_definitions(path.read_text(encoding="utf-8"), used)]
    assert sorted(found) == sorted(UNREAD_ON_PURPOSE)


def defaulted_parameters(source):
    """(qualified name, called name, parameter, position) of each parameter with a
    default of a module-level function, or of a method of a module-level class.
    A method's positions do not count self or cls; a keyword-only parameter has
    position None; __init__ is called by its class's name."""
    found = []

    def add(qualified, called, func, skip):
        args = func.args
        positional = args.posonlyargs + args.args
        first = len(positional) - len(args.defaults)
        for index, arg in enumerate(positional[first:], start=first):
            found.append((qualified, called, arg.arg, index - skip))
        for arg, default in zip(args.kwonlyargs, args.kw_defaults):
            if default is not None:
                found.append((qualified, called, arg.arg, None))

    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            add(node.name, node.name, node, 0)
        elif isinstance(node, ast.ClassDef):
            for m in node.body:
                if isinstance(m, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    static = any(getattr(d, "id", None) == "staticmethod"
                                 for d in m.decorator_list)
                    called = node.name if m.name == "__init__" else m.name
                    add("%s.%s" % (node.name, m.name), called, m, 0 if static else 1)
    return found


def passed_arguments(source):
    """(called name, positional count, keywords) of every call in `source`.  A *args
    passes every position and a **kwargs every keyword (keywords None); a call of
    `_evaluate(where, build, *args, **kwargs)` is a call of build."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        func, args = node.func, node.args
        if getattr(func, "id", None) == "_evaluate" and len(args) >= 2:
            func, args = args[1], args[2:]
        count = math.inf if any(isinstance(a, ast.Starred) for a in args) else len(args)
        keywords = {k.arg for k in node.keywords}
        found.append((getattr(func, "id", None) or getattr(func, "attr", None), count,
                      None if None in keywords else keywords))
    return found


def unset_defaults(definitions, callers_sources):
    """The "module.qualified.parameter" of each defaulted parameter of the
    (module, source) pairs in `definitions` that no call in `callers_sources`
    passes, by position or by keyword; calls are matched by name."""
    calls = [call for text in callers_sources for call in passed_arguments(text)]
    return sorted(
        "%s.%s.%s" % (module, qualified, param)
        for module, source in definitions
        for qualified, called, param, position in defaulted_parameters(source)
        if not any(name == called and (keywords is None or param in keywords
                                       or position is not None and position < count)
                   for name, count, keywords in calls)
    )


def test_unset_defaults_are_found():
    source = ("def f(a, b=1, c=2, *, d=3):\n    pass\n\n\n"
              "class K:\n    def __init__(self, x=0):\n        pass\n\n"
              "    def m(self, y=0, z=1):\n        pass\n\n"
              "    @staticmethod\n    def s(w=0):\n        pass\n\n\n"
              "def g(p=0, q=0):\n    pass\n")
    calling = ("f(1, 2)\nK.s(5)\nobj.m(z=1)\n_evaluate('where', f, 0, d=4)\n"
               "g(*args)\n")
    assert unset_defaults([("mod", source)], [source, calling]) == [
        "mod.K.__init__.x", "mod.K.m.y", "mod.f.c"]
    assert unset_defaults([("mod", source)], ["f(**kw)\nK(0)\nobj.m(0, 1)\n"]) == [
        "mod.K.s.w", "mod.g.p", "mod.g.q"]


# Defaults that no call in src or benchmarks overrides, and why each stays.
UNSET_ON_PURPOSE = {}


def test_every_defaulted_parameter_is_set_in_src():
    """An option that the program always leaves at its default is a second
    behaviour that only tests reach; the default can be the one behaviour."""
    definitions = [(path.stem, path.read_text(encoding="utf-8")) for path in MODULES]
    calling = [p.read_text(encoding="utf-8") for p in SOURCES
               if p.relative_to(ROOT).parts[0] != "tests"]
    assert unset_defaults(definitions, calling) == sorted(UNSET_ON_PURPOSE)


def callers(source, name):
    """Top-level definitions of `source` that call `name`(...), bare or as an
    attribute, with "<module>" for a call outside any definition."""
    return sorted({
        getattr(top, "name", "<module>")
        for top in ast.parse(source).body
        for node in ast.walk(top)
        if isinstance(node, ast.Call)
        and name in (getattr(node.func, "id", None), getattr(node.func, "attr", None))
    })


def test_check_result_makers_are_found():
    source = ("def run(s):\n    return CheckResult(s, 1)\n\n\n"
              "def runner(s, result):\n    result.fail(checks.CheckResult)\n\n\n"
              "class K:\n    def m(self):\n        return checks.CheckResult(1, 2)\n\n\n"
              "DEFAULT = CheckResult('a', 'b')\n")
    assert callers(source, "CheckResult") == ["<module>", "K", "run"]


def test_only_run_check_and_the_skip_records_make_check_results():
    """Runners get their record from run_check and build none of their own."""
    source = (PACKAGE / "checks.py").read_text(encoding="utf-8")
    assert callers(source, "CheckResult") == ["run_check", "run_scenario_checks"]


def test_rng_makers_are_found():
    source = ("def _trials(check):\n    rng = random.Random(seed(check))\n\n\n"
              "def check_a(check):\n    def trial(rng):\n        return Random(1)\n\n\n"
              "def check_b(rng):\n    return rng.random()\n")
    assert callers(source, "Random") == ["_trials", "check_a"]


def test_only_the_trial_loop_seeds_an_rng():
    """Every randomized check draws from the rng that `_trials` seeds from the
    check's name; a runner with its own rng would draw outside that loop."""
    source = (PACKAGE / "checks.py").read_text(encoding="utf-8")
    assert callers(source, "Random") == ["_trials"]


def parse_error_raises(source):
    """Lines of `source` with a `raise` of ParseError, called or bare."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if "ParseError" in (getattr(exc, "id", None), getattr(exc, "attr", None)):
                lines.append(node.lineno)
    return sorted(lines)


def test_parse_error_raises_are_found():
    source = ("raise ParseError('a')\nraise errors.ParseError\nraise ValueError('b')\n"
              "try:\n    pass\nexcept ParseError:\n    raise\n")
    assert parse_error_raises(source) == [1, 2]


def test_only_the_reader_and_the_front_ends_raise_parse_errors():
    """Expression text is refused in formtext alone; a parser in poly, or a
    post-parse check in a caller, would raise it elsewhere."""
    raising = {p.stem for p in MODULES if parse_error_raises(p.read_text(encoding="utf-8"))}
    assert raising <= {"formtext", "scenarios", "cli"}, raising


def test_every_data_file_of_the_package_is_declared():
    """A file the package reads besides its modules, such as the Gauss-Legendre
    table, ships in a wheel only if pyproject.toml declares it as package data."""
    tomllib = pytest.importorskip("tomllib")
    declared = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))
    patterns = declared["tool"]["setuptools"]["package-data"]["rhamcheck"]
    data = [p.relative_to(PACKAGE).as_posix() for p in PACKAGE.rglob("*")
            if p.is_file() and p.suffix != ".py" and "__pycache__" not in p.parts]
    assert "gauss_legendre.txt" in data
    assert [name for name in data if not any(fnmatch(name, pattern) for pattern in patterns)] == []


def unbounded_caches(source):
    """(line, name) of each function of `source` cached by `lru_cache` or
    `cache` without a maxsize read from an UPPER_CASE constant that the module
    assigns at its top level."""
    tree = ast.parse(source)
    constants = {target.id for node in tree.body if isinstance(node, ast.Assign)
                 for named in node.targets for target in ast.walk(named)
                 if isinstance(target, ast.Name)}
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for decorator in node.decorator_list:
            call = decorator if isinstance(decorator, ast.Call) else None
            func = call.func if call else decorator
            if getattr(func, "id", getattr(func, "attr", None)) not in ("lru_cache", "cache"):
                continue
            sizes = call.args[:1] + [k.value for k in call.keywords if k.arg == "maxsize"] if call else []
            if not (len(sizes) == 1 and isinstance(sizes[0], ast.Name)
                    and sizes[0].id.isupper() and sizes[0].id in constants):
                found.append((node.lineno, node.name))
    return sorted(found)


def test_unbounded_caches_are_found():
    source = ("SIZE, (OTHER, small) = 64, (8, 2)\n"
              "@lru_cache(maxsize=SIZE)\ndef a(x):\n    pass\n"
              "@lru_cache(maxsize=None)\ndef b(x):\n    pass\n"
              "@functools.lru_cache\ndef c(x):\n    pass\n"
              "@lru_cache(maxsize=128)\ndef d(x):\n    pass\n"
              "@lru_cache(small)\ndef e(x):\n    pass\n"
              "@cache\ndef f(x):\n    pass\n"
              "@lru_cache(maxsize=UNDEFINED)\ndef g(x):\n    pass\n"
              "@functools.lru_cache(OTHER)\ndef h(x):\n    pass\n")
    assert [name for _, name in unbounded_caches(source)] == ["b", "c", "d", "e", "f", "g"]


# Unbounded on purpose: cochains compare complexes by identity, so these
# memos hold objects that must stay one per argument, and MAX_COMPLEX_K
# bounds the argument.
UNBOUNDED_ON_PURPOSE = {"simplicial": {"standard_simplex", "boundary_complex"}}


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_every_cache_is_bounded_by_a_named_constant(path):
    found = {name for _, name in unbounded_caches(path.read_text(encoding="utf-8"))}
    assert found == UNBOUNDED_ON_PURPOSE.get(path.stem, set())
