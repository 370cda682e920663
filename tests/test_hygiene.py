"""Source hygiene: no module of the package imports a name it never uses,
none divides an int literal by a value that may itself be an int, none
but `ratfunc` builds a RationalFunc directly, no check runner builds its
own CheckResult or rng, only the expression reader and the scenario and command
line front ends raise ParseError, every module-level function or class
is named somewhere in src, tests or benchmarks, every data file of
the package is declared for its wheel, and every memo but the two that
hold complexes is bounded by a named constant of its module."""

import ast
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
