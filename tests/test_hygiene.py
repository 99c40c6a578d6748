"""Source hygiene: every module-level import in the package and its tests
is used, the package neither imports nor loads scipy, code is generated and
run in one module only, only the chart module reads how a chart was
defined, no exponent chart carries a domain predicate, no module caches by
identity, no module compares arrays with numpy's default relative
tolerance, the package writes CSV through one writer, no generated loop
raises, one function makes every connection, the line dial evaluates no
field at each ``r``, the line connection integrates no base leg, only
the connect module reaches into a dial, and no module defines or exports
a retired wrapper."""

import ast
import os
import re
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


def _default_rtol_comparisons(source: str) -> list[str]:
    """Where ``allclose`` or ``isclose`` is called without an ``rtol``."""
    return [f"{name} (line {node.lineno})" for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Call)
            and (name := getattr(node.func, "attr", getattr(node.func, "id", None)))
            in ("allclose", "isclose")
            and len(node.args) < 3 and "rtol" not in {k.arg for k in node.keywords}]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_module_compares_with_the_default_relative_tolerance(path):
    # numpy's default rtol=1e-5 passes points and bases that differ far
    # above the atol a caller writes next to it
    assert _default_rtol_comparisons(path.read_text()) == []


def test_the_check_sees_a_default_relative_tolerance():
    source = ("a = np.allclose(x, y, atol=1e-12)\nb = isclose(x, y)\n"
              "c = np.allclose(x, y, rtol=0.0, atol=1e-12)\n"
              "d = numpy.isclose(x, y, 0.0, 1e-12)\n")
    assert _default_rtol_comparisons(source) == ["allclose (line 1)", "isclose (line 2)"]


def test_the_package_has_one_csv_writer():
    # every CSV goes through integrate._write_csv, which formats each
    # repeated value once
    found = [p.name for p in PACKAGE.glob("*.py") if "savetxt" in p.read_text()]
    assert found == []


def _cached_functions(source: str) -> list[str]:
    """The functions a module decorates with ``lru_cache``, called or not."""
    return [node.name for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.FunctionDef)
            and any("lru_cache" in ast.unparse(d) for d in node.decorator_list)]


def test_the_expression_compiler_has_one_compile_cache():
    # every compiled form, the generated loops too, sits in the one cache
    # of _compiled, keyed by tree; the loops are the only generated steps
    from warpgeo import warpfn

    assert _cached_functions((PACKAGE / "warpfn.py").read_text()) == ["_compiled"]
    assert [name for name in dir(warpfn) if name.endswith("_step")] == []


def test_the_check_sees_cached_functions():
    source = ("@lru_cache(maxsize=8)\ndef f(x):\n    pass\n"
              "@functools.lru_cache\ndef g(x):\n    pass\n"
              "@other\ndef h(x):\n    pass\n")
    assert _cached_functions(source) == ["f", "g"]


def _raises(compiled) -> bool:
    """Whether a compiled form can raise an expression error: its body
    reads ``_error``."""
    return "_error" in compiled.__code__.co_freevars


def _ends_in_its_loop(source: str) -> bool:
    """Whether the generated function is one ``try`` whose body ends in its
    ``for``: no code runs after the loop but the float-failure handler."""
    function = ast.parse(source).body[0].body[0]
    last = function.body[-1]
    return (isinstance(last, ast.Try) and isinstance(last.body[-1], ast.For)
            and not last.orelse and not last.finalbody)


def test_no_generated_loop_raises():
    # a float failure in a stage makes a state that is not finite, so no
    # check of a loop raises; every state, the last one too, is tested in
    # the loop, which calls no other compiled form; the charts and warps
    # are the benchmark's
    import warpgeo as wg
    from warpgeo import warpfn

    fiber = wg.circle(1.0)
    for base, text in ((wg.poincare_half_plane(), "2 + 0.5*sin(2*x1)"),
                       (wg.euclidean(2), "2 + 0.5*sin(2*x1)*cos(2*x2)")):
        w = wg.WarpField.from_expression(text, 2, 1.5, 2.5)
        rescaled = wg.conformal_metric(base, w, 1.0)
        assert not _raises(warpfn.rk4_geodesic_loop(rescaled.exponent, 2))
        assert not _raises(warpfn.rk4_coupled_loop(
            base.exponent, 2, w.expr, fiber.exponent, 1, len(base.exponent_args)))
        for key in ((rescaled.exponent, warpfn._LOOP, 2),
                    ((base.exponent, w.expr, fiber.exponent), warpfn._COUPLED_LOOP,
                     (2, 1, len(base.exponent_args)))):
            source = warpfn._source(*key)[1]
            assert re.search(r"\bf\d+\(", source) is None
            assert _ends_in_its_loop(source)
    # a loop handles its float errors itself and lets no package error out,
    # and the domain is written once, in _DEFINED
    source = (PACKAGE / "warpfn.py").read_text()
    assert "_raised" not in source and "_typed" not in source
    assert "_CHECKS" not in source


def test_the_check_sees_a_loop_with_code_after_it():
    source = ("def _build():\n    def _f(y):\n        try:\n"
              "            for i in y:\n                pass\n"
              "        except ValueError:\n            pass\n"
              "        return y\n    return _f\n")
    assert not _ends_in_its_loop(source)
    assert _ends_in_its_loop(source.replace("        return y\n", ""))


def test_the_check_sees_a_form_that_raises():
    from warpgeo import warpfn

    assert _raises(warpfn._compiled(warpfn.parse("1 / x1", 1), warpfn._VALUE, 1))


def _call_sites(source: str, name: str) -> list[str]:
    """The function around each call of ``name``, the innermost one, once
    per call, in the order of the source."""
    sites = []

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.Call):
                called = child.func
                if (getattr(called, "id", None) or getattr(called, "attr", None)) == name:
                    sites.append(function)
            visit(child, function)

    visit(ast.parse(source), None)
    return sites


def _line_dial_reads(source: str) -> list[str]:
    """The batch reads on ``flrw_beta``'s path at one ``r``: the field
    evaluations and running rules that it, a function nested in it or a
    function of the module that it calls reaches, but for the batch it
    builds when handed none (``_line_batch``)."""
    functions = {node.name: node for node in ast.parse(source).body
                 if isinstance(node, ast.FunctionDef)}
    called, todo = set(), ["flrw_beta"]
    while todo:
        for node in ast.walk(functions[todo.pop()]):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
                if name in functions and name not in called and name != "_line_batch":
                    todo.append(name)
                called.add(name)
    return [name for name in ("values_along", "evaluate_many", "cumulative_simpson")
            if name in called]


def test_the_line_dial_reads_no_batch_per_r():
    # an evaluation of the line dial is array arithmetic on the batch its
    # solve built once (_line_batch): at each r only 1 + r k changes
    assert _line_dial_reads((PACKAGE / "connect.py").read_text()) == []


def test_the_check_sees_a_batch_read_per_r():
    source = ("def flrw_beta(w, r, _batch=None):\n"
              "    batch = _line_batch(w) if _batch is None else _batch\n"
              "    def total(f):\n        return cumulative_simpson(f, h)[-1]\n"
              "    return total(_slowness(w, r))\n"
              "def _slowness(w, r):\n    return np.sqrt(1 + r * values_along(w, xs))\n"
              "def _line_batch(w):\n    return warpfn.evaluate_many(w, xs)\n")
    assert _line_dial_reads(source) == ["values_along", "cumulative_simpson"]
    assert _line_dial_reads(source.replace("total(_slowness(w, r))", "total(batch)")) == [
        "cumulative_simpson"]


def test_one_driver_makes_every_connection():
    # connect_points and flrw_connect differ only in their dial and base
    # leg: one function solves for r, rebuilds the pair and reports
    source = (PACKAGE / "connect.py").read_text()
    for name in ("_solve_r", "riemannize", "ShootingReport"):
        assert _call_sites(source, name) == ["_connect"], name
    for gone in ("_trivial_connection", "_assemble_report", "_within_tolerance"):
        assert gone not in source
    # the command line writes the four legs of a rebuilt geodesic in one
    # place; the integrate task writes its one curve
    assert _call_sites((PACKAGE / "cli.py").read_text(), "curve_to_csv") == [
        "run_integrate", "_write_rebuilt"]


def test_the_check_sees_a_second_call_site():
    source = ("def a():\n    riemannize(x)\n"
              "def b():\n    f = lambda: reparam.riemannize(y)\n"
              "    def c():\n        riemannize(z)\n    riemannize(w)\n")
    assert _call_sites(source, "riemannize") == ["a", "b", "c", "b"]


def _line_leg_integrations(source: str) -> list[str]:
    """The names of a geodesic integration on the rescaled line that
    ``_line_connection``, which builds the line legs, or a function nested
    in it, reads."""
    function = next(node for node in ast.parse(source).body
                    if isinstance(node, ast.FunctionDef) and node.name == "_line_connection")
    read = {getattr(node, "id", None) or getattr(node, "attr", None)
            for node in ast.walk(function)}
    return sorted(read & {"integrate_geodesic", "conformal_metric"})


def test_the_line_connection_integrates_no_base_leg():
    # the base leg at the root is the inverse of the first integral's
    # running table, not a geodesic of the rescaled line
    assert _line_leg_integrations((PACKAGE / "connect.py").read_text()) == []


def test_the_check_sees_a_base_leg_integrated():
    source = ("def _line_connection(w, r):\n    def leg(chart):\n"
              "        return integrate.integrate_geodesic(chart)\n"
              "    return leg(conformal_metric(line, w, r))\n"
              "def beta_of_r(w, r):\n    return integrate_geodesic(conformal_metric(w, r))\n")
    assert _line_leg_integrations(source) == ["conformal_metric", "integrate_geodesic"]
    assert _line_leg_integrations(source.replace("integrate.integrate_geodesic", "f")) == [
        "conformal_metric"]


def _dial_internals(source: str) -> list[str]:
    """Where a module reads ``.jacobian``, names ``_line_batch`` or passes
    ``_batch=``: what a dial carries from one evaluation to the next."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr == "jacobian":
            found.add((node.lineno, ".jacobian"))
        elif "_line_batch" in (getattr(node, "id", None), getattr(node, "attr", None),
                               getattr(node, "name", None)):
            found.add((node.lineno, "_line_batch"))
        elif isinstance(node, ast.keyword) and node.arg == "_batch":
            found.add((node.lineno, "_batch="))
    return [f"{what} (line {line})" for line, what in sorted(found)]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_only_the_connect_module_reaches_into_a_dial(path):
    # every dial is dial(r, warm, tol), built in connect, which alone
    # decides what a warm start carries and which batch the line dial and
    # its legs share
    found = _dial_internals(path.read_text())
    if path.name == "connect.py":
        assert found
    else:
        assert found == []


def test_the_check_sees_a_reach_into_a_dial():
    source = ("from .connect import _line_batch, flrw_beta\n"
              "warm = res.X_r.components, res.jacobian\n"
              "res = flrw_beta(w, t0, t1, r, cfg, _batch=connect._line_batch(w))\n")
    assert _dial_internals(source) == [
        "_line_batch (line 1)", ".jacobian (line 2)", "_batch= (line 3)",
        "_line_batch (line 3)"]


RETIRED = {"point_at", "velocity_at", "initial_velocity", "integrate_product_geodesic",
           "value_and_grad", "differential_at", "hessian_at", "_base_table", "_base_map"}


def _retired_names(source: str) -> list[str]:
    """Where a module defines, imports or lists in ``__all__`` a name of
    ``RETIRED``: wrappers of one call, or never called, and the two halves
    of the base-leg builder."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [a.asname or a.name for a in node.names]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
            if names == ["__all__"]:
                names = [e.value for e in node.value.elts]
        else:
            continue
        found.update((node.lineno, name) for name in names if name in RETIRED)
    return [f"{name} (line {line})" for line, name in sorted(found)]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_module_defines_or_exports_a_retired_name(path):
    assert _retired_names(path.read_text()) == []


def test_the_check_sees_a_retired_name():
    source = ("from .warp import value_and_grad\n"
              "__all__ = ['Curve', 'integrate_product_geodesic']\n"
              "class Curve:\n    def point_at(self, t):\n        return t\n"
              "_base_map = None\n"
              "d = {'initial_velocity': 0}\n")
    assert _retired_names(source) == [
        "value_and_grad (line 1)", "integrate_product_geodesic (line 2)",
        "point_at (line 4)", "_base_map (line 6)"]
