"""Source hygiene: every module-level import in the package is used, and
code is generated and run in one module only."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "warpgeo"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


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


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_module_level_import_is_used(path):
    assert _unused_imports(path.read_text()) == []


def test_the_check_sees_an_unused_import():
    source = "import math\nfrom numpy import array, zeros\nx = zeros(3)\n"
    assert _unused_imports(source) == ["math (line 1)", "array (line 2)"]


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
