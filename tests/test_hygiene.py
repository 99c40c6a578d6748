"""Source hygiene: every module-level import in the package and its tests
is used, the package neither imports nor loads scipy, code is generated and
run in one module only, only the chart module reads how a chart was
defined, no exponent chart carries a domain predicate, no module caches by
identity, and the package writes CSV through one writer."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "warpgeo"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
TESTS = sorted(Path(__file__).resolve().parent.glob("*.py"))


def _unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.partition(".")[0]
                imported[name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items()
            if name not in used]


@pytest.mark.parametrize("path", MODULES + TESTS, ids=lambda p: p.name)
def test_every_module_level_import_is_used(path):
    assert _unused_imports(path.read_text()) == []


def test_the_check_sees_an_unused_import():
    source = "import math\nfrom numpy import array, zeros\nx = zeros(3)\n"
    assert _unused_imports(source) == ["math (line 1)", "array (line 2)"]


def _scipy_names(source: str) -> set[str]:
    """The names a module imports from scipy, at module level or inside a
    function."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names |= {a.name for a in node.names if a.name.partition(".")[0] == "scipy"}
        elif isinstance(node, ast.ImportFrom) and (node.module or "").partition(".")[0] == "scipy":
            names |= {a.name for a in node.names}
    return names


def test_no_package_module_imports_scipy():
    # scipy's import took most of a fresh process's set-up; only the tests use it
    found = set().union(*(_scipy_names(p.read_text()) for p in PACKAGE.glob("*.py")))
    assert found == set()


def test_the_check_sees_scipy_imports():
    source = ("import scipy.linalg\nimport numpy\n"
              "def f():\n    from scipy.optimize import brentq\n")
    assert _scipy_names(source) == {"scipy.linalg", "brentq"}


def test_importing_the_command_line_loads_no_scipy_module():
    probe = ("import sys, warpgeo.cli\n"
             "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'))\n")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (str(PACKAGE.parent), os.environ.get("PYTHONPATH"))))}
    done = subprocess.run([sys.executable, "-c", probe], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["[]"]


def _runs_code(source: str) -> list[str]:
    """Names of the builtins that compile or run source text, where used."""
    return [f"{node.id} (line {node.lineno})" for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Name) and node.id in ("exec", "eval", "compile")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_only_the_expression_compiler_runs_generated_code(path):
    found = _runs_code(path.read_text())
    if path.name == "warpfn.py":
        assert found  # the one reviewed emitter
    else:
        assert found == []


def test_the_check_sees_generated_code_being_run():
    source = "import re\nr = re.compile('x')\nexec(compile(src, 'f', 'exec'))\n"
    assert _runs_code(source) == ["exec (line 3)", "compile (line 3)"]


def _chart_definition_reads(source: str) -> list[str]:
    """Where a chart's ``metric_at`` or ``christoffel_at`` is read."""
    reads = sorted((node.lineno, node.attr) for node in ast.walk(ast.parse(source))
                   if isinstance(node, ast.Attribute)
                   and node.attr in ("metric_at", "christoffel_at"))
    return [f"{attr} (line {line})" for line, attr in reads]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_only_the_chart_module_reads_a_chart_definition(path):
    # every other module reads a chart through manifold's functions, which
    # serve a chart defined by its exponent as well
    found = _chart_definition_reads(path.read_text())
    if path.name == "manifold.py":
        assert found
    else:
        assert found == []


def test_the_check_sees_a_chart_definition_being_read():
    source = "g = chart.metric_at(p)\nc = MetricChart(2, metric_at=f)\nG = c.christoffel_at\n"
    assert _chart_definition_reads(source) == ["metric_at (line 1)", "christoffel_at (line 3)"]


def _exponent_charts_with_predicates(source: str) -> list[str]:
    """Where a ``MetricChart`` is built with both ``exponent`` and
    ``in_domain``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "MetricChart"
                and {"exponent", "in_domain"} <= {k.arg for k in node.keywords}):
            found.append(f"MetricChart (line {node.lineno})")
    return found


def test_no_exponent_chart_carries_a_domain_predicate():
    # an exponent chart's domain is where its exponent is defined
    for path in MODULES:
        assert _exponent_charts_with_predicates(path.read_text()) == [], path.name


def test_the_check_sees_an_exponent_chart_with_a_predicate():
    source = ("a = MetricChart(2, exponent=e, in_domain=f)\n"
              "b = MetricChart(2, metric_at=g, in_domain=f)\n")
    assert _exponent_charts_with_predicates(source) == ["MetricChart (line 1)"]


def _identity_reads(source: str) -> list[str]:
    """Where a module reads an object's ``__dict__`` or calls ``id``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr == "__dict__":
            found.append(f"__dict__ (line {node.lineno})")
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id == "id"):
            found.append(f"id (line {node.lineno})")
    return found


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_module_caches_by_identity(path):
    # equal expression trees are one object, so warpfn's one cache, keyed
    # by tree, is the only cache of compiled forms
    assert _identity_reads(path.read_text()) == []


def test_the_check_sees_identity_reads():
    source = "c = node.__dict__\nk = id(node)\nd = derivative_on_grid(v, h)\n"
    assert _identity_reads(source) == ["__dict__ (line 1)", "id (line 2)"]


def test_the_package_has_one_csv_writer():
    # every CSV goes through integrate._write_csv, which formats each
    # repeated value once
    found = [p.name for p in PACKAGE.glob("*.py") if "savetxt" in p.read_text()]
    assert found == []
