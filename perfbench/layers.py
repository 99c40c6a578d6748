"""Per-layer tracing of warpgeo from outside the library.

The layers are the modules of the ``warpgeo`` package.  A :class:`Tracer`
replaces every name through which one module reaches a function of another
(``from .x import f`` bindings, lazy imports inside functions, and
``warpfn.f`` attribute calls) with a wrapper that times the call and
attributes it to the module that defines ``f``.  Nothing in ``src/`` is
edited; :meth:`Tracer.uninstall` puts every original object back.

Each wrapped call is one frame on a stack, so a layer's self time is its
call time minus the time of the wrapped calls it makes.  Calls made once
per Runge-Kutta stage or per grid node (``HOT``) are only counted and timed
on the nearest enclosing span; every other call is kept as a span record
``(id, parent, op, name, start, end, hot_calls)``.
"""

from __future__ import annotations

import ast
import dataclasses
import functools
import importlib
import inspect
import io
import tokenize
import types
from pathlib import Path
from time import perf_counter

MODULES = ("cli", "connect", "reparam", "integrate", "warp", "manifold",
           "warpfn", "_num")

# Metric names must start with a letter, so ``_num`` is reported as ``num``.
LAYERS = {m: m.lstrip("_") for m in MODULES}

# Called per RK4 stage or per grid node: counted, not recorded as spans.
HOT = {
    ("manifold", "christoffel"), ("manifold", "_metric"),
    ("manifold", "metric_eval"), ("manifold", "_components"),
    ("warp", "value_and_grad"), ("warp", "conformal_christoffel"),
    ("warpfn", "evaluate"), ("warpfn", "value_and_gradient"),
    ("warpfn", "eval2"), ("warpfn", "evaluate_many"),
}

# Functions behind the entry points and the work counters are also wrapped
# where they are defined, because they are reached through that module too
# (the benchmark calls ``connect.connect_points``; ``riemannize`` calls
# ``compute_a_and_phi`` inside ``reparam``).
COUNTED = {
    "integrate.geodesics": [("integrate", "integrate_geodesic")],
    "warpfn.point_evals": [("warpfn", "evaluate"), ("warpfn", "value_and_gradient"),
                           ("warpfn", "eval2")],
    "connect.dial_evals": [("connect", "beta_of_r"), ("connect", "flrw_beta")],
    "reparam.maps": [("reparam", "compute_a_and_phi"),
                     ("reparam", "compute_b_and_psi")],
    "warp.curvature_evals": [("warp", "sectional_curvature_conformal"),
                             ("warp", "negativity_check")],
}
OWN_NAMESPACE = [("connect", "connect_points"), ("connect", "flrw_connect"),
                 ("cli", "main"), ("integrate", "integrate_coupled_oracle"),
                 ("warpfn", "evaluate_many")]
OWN_NAMESPACE += [key for keys in COUNTED.values() for key in keys]

CURVE_METHODS = ("point_at", "velocity_at")


def _short(module_name: str) -> str | None:
    prefix, _, short = module_name.partition(".")
    return short if prefix == "warpgeo" and short in MODULES else None


def _lazy_targets(module) -> set[tuple[str, str]]:
    """``(module, name)`` pairs another module reaches at call time.

    These are ``from .m import name`` statements inside function bodies and
    ``m.name`` attribute uses of a sibling module imported as ``from . import
    m``; both look the name up in ``m`` itself, so that is where the wrapper
    must go.
    """
    tree = ast.parse(inspect.getsource(module))
    sibling_modules = set()
    targets = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module is None:
                sibling_modules.update(a.asname or a.name for a in node.names)
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for node in ast.walk(fn):
            if (isinstance(node, ast.ImportFrom) and node.level == 1
                    and node.module in MODULES):
                targets.update((node.module, a.name) for a in node.names)
            elif (isinstance(node, ast.Attribute)
                  and isinstance(node.value, ast.Name)
                  and node.value.id in sibling_modules
                  and node.value.id in MODULES):
                targets.add((node.value.id, node.attr))
    return targets


def _targets(modules: dict) -> list[tuple[object, str, str, object]]:
    """Every ``(namespace, attribute, defining module, function)`` to wrap."""
    found = []
    for mod_name, module in modules.items():
        for attr, value in vars(module).items():
            if isinstance(value, types.FunctionType):
                owner = _short(value.__module__)
                if owner is not None and owner != mod_name:
                    found.append((module, attr, owner, value))
        for owner, attr in sorted(_lazy_targets(module)):
            found.append((modules[owner], attr, owner,
                          getattr(modules[owner], attr, None)))
    for owner, attr in OWN_NAMESPACE:
        found.append((modules[owner], attr, owner, getattr(modules[owner], attr, None)))
    curve = getattr(modules["integrate"], "Curve", None)
    for attr in CURVE_METHODS:
        found.append((curve, attr, "integrate", vars(curve).get(attr) if curve else None))
    unique, seen = [], set()
    for namespace, attr, owner, fn in found:
        if isinstance(fn, types.FunctionType) and (id(namespace), attr) not in seen:
            seen.add((id(namespace), attr))
            unique.append((namespace, attr, owner, fn))
    return unique


@dataclasses.dataclass
class Counts:
    """Totals of traced ops; the integer fields repeat exactly."""

    # (module, function) -> [calls, inclusive seconds, self seconds]
    by_name: dict = dataclasses.field(default_factory=dict)
    rhs_geodesic: int = 0
    rhs_oracle: int = 0
    newton_iters: int = 0
    batch_rows: int = 0

    def cell(self, key) -> list:
        return self.by_name.setdefault(key, [0, 0.0, 0.0])

    def calls(self, *keys) -> int:
        return sum(self.by_name.get(key, (0,))[0] for key in keys)


class Tracer:
    """Wraps the cross-module calls of warpgeo while installed; counts and
    times them only inside :meth:`call`."""

    def __init__(self):
        self.active = False
        self.counts = Counts()
        self.spans: list[list] = []
        self._frames: list[list] = [[0.0]]
        self._open_spans: list[list] = []
        self._op = -1
        modules = {m: importlib.import_module(f"warpgeo.{m}") for m in MODULES}
        self._patches = [(namespace, attr, fn, self._wrap(owner, fn.__name__, fn))
                         for namespace, attr, owner, fn in _targets(modules)]

    def install(self):
        for namespace, attr, _, wrapper in self._patches:
            setattr(namespace, attr, wrapper)

    def uninstall(self):
        for namespace, attr, original, _ in self._patches:
            setattr(namespace, attr, original)

    def call(self, op, index: int):
        """Run ``op()`` as traced op number ``index``."""
        self._op = index
        self.active = True
        try:
            return op()
        finally:
            self.active = False

    def _wrap(self, module: str, name: str, fn):
        hot = (module, name) in HOT
        after = self._after_hook(module, name, fn)
        stats = self.counts.cell((module, name))
        label = f"{module}.{name}"
        frames = self._frames
        open_spans = self._open_spans
        spans = self.spans

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            frame = [0.0]
            frames.append(frame)
            span = None
            if not hot:
                parent = open_spans[-1][0] if open_spans else None
                span = [len(spans), parent, self._op, label, 0.0, 0.0, {}]
                spans.append(span)
                open_spans.append(span)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                frames.pop()
                frames[-1][0] += dt
                stats[0] += 1
                stats[1] += dt
                stats[2] += dt - frame[0]
                if span is not None:
                    open_spans.pop()
                    span[4], span[5] = t0, t0 + dt
                elif open_spans:
                    agg = open_spans[-1][6].setdefault(label, [0, 0.0])
                    agg[0] += 1
                    agg[1] += dt
            if after is not None:
                result = after(args, kwargs, result)
            return result

        return traced

    def _after_hook(self, module: str, name: str, fn):
        """Counters that need the call's arguments or result."""
        counts = self.counts
        if module == "integrate" and name in ("integrate_geodesic",
                                              "integrate_coupled_oracle"):
            sig = inspect.signature(fn)
            field = "rhs_geodesic" if name == "integrate_geodesic" else "rhs_oracle"

            def count_rhs(args, kwargs, result):
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                steps = bound.arguments["cfg"].steps
                setattr(counts, field, getattr(counts, field) + 4 * steps)
                return result
            return count_rhs
        if module == "connect" and name in ("beta_of_r", "flrw_beta"):
            def count_newton(args, kwargs, result):
                counts.newton_iters += int(result.iterations)
                return result
            return count_newton
        if module == "warpfn" and name == "evaluate_many":
            def count_rows(args, kwargs, result):
                counts.batch_rows += int(result.shape[0]) if result.ndim else 1
                return result
            return count_rows
        if module == "warp" and name == "conformal_metric":
            def wrap_christoffel(args, kwargs, chart):
                if chart.christoffel_at is None:
                    return chart
                return dataclasses.replace(chart, christoffel_at=self._wrap(
                    "warp", "conformal_christoffel", chart.christoffel_at))
            return wrap_christoffel
        return None


def layer_metrics(counts: Counts, sloc: dict) -> dict:
    """Per-layer metrics by name, as ``(value, unit)``."""
    out = {}
    for module in MODULES:
        layer = LAYERS[module]
        cells = [v for (m, _), v in counts.by_name.items() if m == module]
        out[f"{layer}.calls"] = (sum(c[0] for c in cells), "count")
        out[f"{layer}.self_s"] = (sum(c[2] for c in cells), "s")
        out[f"{layer}.sloc"] = (sloc[module], "lines")
    for name, keys in COUNTED.items():
        out[name] = (counts.calls(*keys), "count")
    out["integrate.rhs_evals"] = (counts.rhs_geodesic + counts.rhs_oracle, "count")
    out["warpfn.batch_rows"] = (counts.batch_rows, "count")
    out["connect.newton_iters"] = (counts.newton_iters, "count")
    geo_s = counts.by_name.get(("integrate", "integrate_geodesic"), (0, 0.0))[1]
    rhs = counts.rhs_geodesic
    out["integrate.us_per_rhs"] = (1e6 * geo_s / rhs if rhs else 0.0, "us")
    geodesics, dials = out["integrate.geodesics"][0], out["connect.dial_evals"][0]
    out["connect.geodesics_per_dial"] = (geodesics / dials if dials else 0.0, "ratio")
    return out


# Work counters that depend only on the inputs, never on timing.
EXACT_COUNTERS = (*COUNTED, "integrate.rhs_evals", "warpfn.batch_rows",
                  "connect.newton_iters")


def source_lines(path: Path) -> int:
    """Lines of ``path`` holding code: not blank, comment or docstring."""
    text = path.read_text()
    docstrings = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                docstrings.update(range(first.lineno, first.end_lineno + 1))
    skip = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENDMARKER}
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in skip:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(code - docstrings)
