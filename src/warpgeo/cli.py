"""Command-line driver: run one task described by a YAML config file.

Usage: ``warpgeo --config task.yaml [--out DIR] [--steps N] [--quiet]``

Exit codes: 0 on success, 2 for configuration or input problems, 3 for
numerical failures; in both failure cases the error payload is written to
``error.json`` in the output directory when that directory is writable.
A run clears the opposite outcome's status files, so ``report.json`` and
``error.json`` never coexist and the directory reflects the latest run.
A task writes its artifacts after its last check, so a task that fails
writes none.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
from pathlib import Path

import numpy as np
import yaml

from . import __version__, warpfn
from .connect import (
    MAX_NEWTON_STEPS, R_MAX_DEFAULT, _beta_from_mu, _line_connection,
    _shooting_dial, connect_points, flrw_connect, partial_connect, theta_consistency,
)
from .errors import InputError, NumericalError, ParameterError, WarpGeoError
from .integrate import (
    IntegratorConfig, _write_csv, curve_to_csv, geodesic_residual,
    integrate_coupled_oracle, integrate_geodesic, speed_drift,
)
from .manifold import (
    MetricChart, _quadratic, circle, euclidean, metric_eval, metrics_at,
    poincare_ball, poincare_half_plane, sphere, weighted_line,
)
from .reparam import norm_identity_errors, riemannize
from .warp import (
    WarpField, admissible_range, conformal_metric, rescaled_curvature,
)

TASKS = {}


def task(name):
    def register(fn):
        TASKS[name] = fn
        return fn
    return register


# ---------------------------------------------------------------------------
# config handling


class _ConfigLoader(getattr(yaml, "CSafeLoader", yaml.SafeLoader)):
    """Safe YAML loading, through libyaml where PyYAML was built with it,
    that also reads plain ``1e-6``, ``1e6`` and ``1.0e6`` as floats, as
    YAML 1.2 does (YAML 1.1 reads them as text).  The resolver stays in
    Python either way, so the extra rule applies to both parsers."""


_ConfigLoader.add_implicit_resolver(
    "tag:yaml.org,2002:float",
    re.compile(r"^[-+]?(?:[0-9][0-9_]*(?:\.[0-9_]*)?|\.[0-9_]+)[eE][-+]?[0-9]+$"),
    list("-+0123456789."),
)


def _get(section: dict, key: str, where: str, required=True, default=None):
    """The value of ``key``; an absent optional key gives ``default``, and
    a present ``null`` is an error, never a stand-in for the default."""
    if key not in section:
        if required:
            raise InputError(f"missing config key {where}.{key}")
        return default
    if section[key] is None:
        raise InputError(f"config key {where}.{key} is null; give a value "
                         "or leave the key out")
    return section[key]


def _section(doc: dict, key: str, where: str, required=True):
    """The mapping under ``key``; an absent optional section gives None."""
    raw = _get(doc, key, where, required)
    if raw is not None and not isinstance(raw, dict):
        raise InputError(f"{where}.{key} must be a mapping, got {raw!r}")
    return raw


def _flag(section: dict, key: str, where: str, default: bool) -> bool:
    """An optional ``true`` or ``false``."""
    raw = _get(section, key, where, required=False, default=default)
    if not isinstance(raw, bool):
        raise InputError(f"{where}.{key} must be true or false, got {raw!r}")
    return raw


def _vector(section, key, where, dim):
    try:
        vec = np.asarray(_get(section, key, where), dtype=float)
    except (TypeError, ValueError) as exc:
        raise InputError(f"{where}.{key} must be a list of numbers: {exc}") from None
    if vec.ndim != 1:
        raise InputError(f"{where}.{key} must be a flat list of numbers")
    if vec.shape[0] != dim:
        raise InputError(f"{where}.{key} must have {dim} entries, got {vec.shape[0]}")
    if not np.isfinite(vec).all():
        raise InputError(f"{where}.{key} must be finite, got {vec.tolist()}")
    return vec


def _as_number(raw, what):
    if isinstance(raw, bool) or not isinstance(raw, (int, float)):
        raise InputError(f"{what} must be a number, got {raw!r}")
    if not math.isfinite(raw):
        raise InputError(f"{what} must be finite, got {raw!r}")
    return float(raw)


def _number(section, key, where, required=True, default=None):
    raw = _get(section, key, where, required, default)
    if raw is None:
        return None
    return _as_number(raw, f"{where}.{key}")


def _count(section, key, where, default, least) -> int:
    """An optional count of at least ``least``, truncated to an int."""
    raw = _number(section, key, where, required=False, default=default)
    if raw < least:
        raise InputError(f"{where}.{key} must be at least {least}, got {raw!r}")
    return int(raw)


def _numbers(section, key, where) -> list[float]:
    """A required non-empty list of numbers."""
    raw = _get(section, key, where)
    if not isinstance(raw, list) or not raw:
        raise InputError(f"{where}.{key} must be a non-empty list")
    return [_as_number(v, f"{where}.{key} entry") for v in raw]


def build_chart(section: dict, where: str) -> MetricChart:
    name = _get(section, "name", where)
    if name == "euclidean":
        return euclidean(_count(section, "dim", where, default=2, least=1))
    if name == "poincare_half_plane":
        return poincare_half_plane()
    if name == "poincare_ball":
        return poincare_ball(_count(section, "dim", where, default=2, least=1))
    if name == "sphere":
        return sphere(
            _count(section, "dim", where, default=2, least=1),
            _number(section, "radius", where, default=1.0, required=False),
        )
    if name == "circle":
        return circle(_number(section, "radius", where, default=1.0, required=False))
    if name == "weighted_line":
        weight = _get(section, "weight", where)
        if not isinstance(weight, str):
            raise InputError(f"{where}.weight must be an expression in t, got {weight!r}")
        return weighted_line(weight)
    raise InputError(
        f"{where}.name: unknown chart {name!r}; choose from euclidean, "
        "poincare_half_plane, poincare_ball, sphere, circle, weighted_line"
    )


def build_line_weight(section: dict, chart: MetricChart, where: str):
    """The parsed weight ``f`` of a line base, metric ``f(t) dt^2``, from
    its chart section and the chart :func:`build_chart` made of it.

    ``None`` for the flat line (``euclidean`` of dim 1), the ``weight`` of
    a ``weighted_line``, the constant ``radius^2`` of a ``circle`` or a
    ``sphere`` of dim 1; any other chart is not a line base.
    """
    name = section["name"]
    if name == "weighted_line":
        return warpfn.parse(section["weight"], 1)
    if chart.dim == 1 and name == "euclidean":
        return None
    if chart.dim == 1 and name in ("circle", "sphere"):
        radius = _number(section, "radius", where, default=1.0, required=False)
        return warpfn.Const(radius * radius)
    raise InputError(
        f"{where}: {chart.name} is not a line base; use euclidean or sphere "
        "with dim 1, circle or weighted_line"
    )


def build_warp(section: dict, dim: int) -> WarpField:
    text = _get(section, "expression", "warp")
    if not isinstance(text, str):
        raise InputError(f"warp.expression must be an expression, got {text!r}")
    k0 = _number(section, "k0", "warp")
    K0 = _number(section, "K0", "warp", required=False)
    return WarpField.from_expression(
        text, dim, k0=k0, K0=math.inf if K0 is None else K0
    )


class TaskConfig:
    """Validated contents of one config file."""

    def __init__(self, doc: dict, steps_override=None):
        if not isinstance(doc, dict):
            raise InputError("config root must be a mapping")
        self.task = _get(doc, "task", "config")
        if self.task not in TASKS:
            raise InputError(
                f"unknown task {self.task!r}; choose from {', '.join(sorted(TASKS))}"
            )
        integ = _section(doc, "integrator", "config", required=False) or {}
        steps = _count(integ, "steps", "integrator", default=1024, least=16)
        if steps_override is not None:
            steps = steps_override
        self.cfg = IntegratorConfig(
            steps=steps,
            tolerance=_number(integ, "tolerance", "integrator",
                              default=1e-6, required=False),
        )
        self.seed = _count(doc, "seed", "config", default=0, least=0)
        self.base_section = _section(doc, "base_chart", "config")
        self.base = build_chart(self.base_section, "base_chart")
        fiber = _section(doc, "fiber_chart", "config", required=False)
        self.fiber = build_chart(fiber, "fiber_chart") if fiber is not None else None
        warp_section = _section(doc, "warp", "config", required=False)
        self.warp = (build_warp(warp_section, self.base.dim)
                     if warp_section is not None else None)
        self.params = _section(doc, self.task.replace("-", "_"), "config",
                               required=False) or {}

    def require_fiber(self) -> MetricChart:
        if self.fiber is None:
            raise InputError(f"task {self.task!r} needs a fiber_chart section")
        return self.fiber

    def require_warp(self) -> WarpField:
        if self.warp is None:
            raise InputError(f"task {self.task!r} needs a warp section")
        return self.warp

    def line_weight(self, where: str, retired: tuple[str, ...]):
        """The weight of the line base, from ``base_chart`` alone.

        Keys that once described the line next to ``base_chart`` are
        rejected, so an old config cannot silently change its answer.
        """
        for key in retired:
            if key in self.params:
                raise InputError(f"{where}.{key} is no longer read: the line "
                                 "and its weight come from base_chart")
        return build_line_weight(self.base_section, self.base, "base_chart")


# ---------------------------------------------------------------------------
# tasks


@task("integrate")
def run_integrate(tc: TaskConfig, out: Path) -> dict:
    p = tc.params
    which = _get(p, "chart", "integrate", required=False, default="base")
    if which == "base":
        chart = tc.base
    elif which == "fiber":
        chart = tc.require_fiber()
    elif which == "rescaled":
        chart = conformal_metric(tc.base, tc.require_warp(),
                                 _number(p, "r", "integrate"))
    else:
        raise InputError("integrate.chart must be base, fiber, or rescaled")
    point = _vector(p, "point", "integrate", dim=chart.dim)
    velocity = _vector(p, "velocity", "integrate", dim=chart.dim)
    curve = integrate_geodesic(chart, point, velocity, tc.cfg)
    report = {
        "chart": chart.name,
        "endpoint": curve.endpoint().tolist(),
        "geodesic_residual": geodesic_residual(chart, curve),
        "speed_drift": speed_drift(chart, curve),
    }
    curve_to_csv(curve, out / "curve.csv")
    lines = [
        f"integrated {chart.name} geodesic, {tc.cfg.steps} steps",
        f"endpoint: {curve.endpoint()}",
        f"residual: {report['geodesic_residual']:.3e}  "
        f"speed drift: {report['speed_drift']:.3e}",
    ]
    return {"report": report, "summary": lines}


def _integrate_pair(tc: TaskConfig, p: dict, where: str, fit: bool = False):
    """The rescaled base leg and the fiber leg from the task's initial data;
    with ``fit``, the fiber velocity is first rescaled so that the coupling
    identity holds exactly."""
    w = tc.require_warp()
    g2 = tc.require_fiber()
    r = _number(p, "r", where)
    x0 = _vector(p, "x0", where, dim=tc.base.dim)
    X0 = _vector(p, "X0", where, dim=tc.base.dim)
    y0 = _vector(p, "y0", where, dim=g2.dim)
    Y0 = _vector(p, "Y0", where, dim=g2.dim)
    rescaled = conformal_metric(tc.base, w, r)
    mu = integrate_geodesic(rescaled, x0, X0, tc.cfg)
    if fit:
        beta = _beta_from_mu(mu, w, r, tc.base, mu.velocities[0], 0).beta
        speed = math.sqrt(metric_eval(g2, y0, Y0, Y0))
        if speed == 0.0:
            raise InputError(f"{where}.Y0 must be nonzero to fit its speed")
        Y0 = Y0 * (beta / speed)
    nu = integrate_geodesic(g2, y0, Y0, tc.cfg)
    return w, g2, r, mu, nu


@task("riemannize")
def run_riemannize(tc: TaskConfig, out: Path) -> dict:
    p = tc.params
    fit = _flag(p, "fit_fiber_speed", "riemannize", default=False)
    oracle = _flag(p, "oracle_check", "riemannize", default=True)
    w, g2, r, mu, nu = _integrate_pair(tc, p, "riemannize", fit)
    geo = riemannize(mu, nu, w, r, tc.base, g2, compat_tol=1e-8,
                     residual_tol=None)
    result = _rebuilt_result(geo, w, tc.base, g2, geo.to_dict(), [
        f"rebuilt geodesic at r={r:g}: a={geo.a_r:.12g} b={geo.b_r:.12g}"])
    if oracle:
        Xt, Yt = geo.initial_tangents
        ob, of = integrate_coupled_oracle(
            tc.base, g2, w, (mu.points[0], nu.points[0]),
            (Xt.components, Yt.components), tc.cfg,
        )
        result["report"]["oracle_deviation"] = deviation = max(
            float(np.max(np.abs(ob.points - geo.gamma.points))),
            float(np.max(np.abs(of.points - geo.tau.points))),
        )
        result["summary"].append(
            f"deviation from directly integrated system: {deviation:.3e}")
    _write_rebuilt(geo, out)
    return result


def _rebuilt_result(geo, w, g1, g2, report: dict, lines: list) -> dict:
    """Add a rebuilt geodesic's norm identities to ``report`` (``None`` for
    a geodesic without an ``r``, the trivial connection) and its residuals
    to the summary ``lines``; the task's result."""
    report["norm_identities"] = (
        None if math.isnan(geo.r) else norm_identity_errors(geo, w, g1, g2))
    lines.append(
        f"residuals: base {geo.residuals[0]:.3e}, fiber {geo.residuals[1]:.3e}")
    return {"report": report, "summary": lines}


def _write_rebuilt(geo, out: Path):
    """Write the four legs of a rebuilt geodesic as CSVs: the last step of
    a task, after every check that can fail."""
    for name, curve in zip(("mu", "nu", "gamma", "tau"),
                           (*geo.base, geo.gamma, geo.tau)):
        curve_to_csv(curve, out / f"{name}.csv")


def _connection_result(rep, w, g1, g2) -> dict:
    return _rebuilt_result(rep.geodesic, w, g1, g2, rep.to_dict(), [
        f"connection found: r={rep.r}",
        f"beta={rep.beta:.12g} (target {rep.target_beta:.12g})",
        f"endpoint error {rep.endpoint_error:.3e}, "
        f"{rep.iterations or 'no'} Newton steps",
    ])


@task("connect")
def run_connect(tc: TaskConfig, out: Path) -> dict:
    p = tc.params
    w = tc.require_warp()
    g2 = tc.require_fiber()
    z0 = (_vector(p, "x0", "connect", dim=tc.base.dim),
          _vector(p, "y0", "connect", dim=g2.dim))
    z1 = (_vector(p, "x1", "connect", dim=tc.base.dim),
          _vector(p, "y1", "connect", dim=g2.dim))
    rep = connect_points(
        tc.base, g2, w, z0, z1, tc.cfg,
        r_max=_number(p, "r_max", "connect", required=False, default=R_MAX_DEFAULT),
        samples=_count(p, "samples", "connect", default=MAX_NEWTON_STEPS, least=2))
    result = _connection_result(rep, w, tc.base, g2)
    _write_rebuilt(rep.geodesic, out)
    return result


@task("flrw")
def run_flrw(tc: TaskConfig, out: Path) -> dict:
    p = tc.params
    w = tc.require_warp()
    g2 = tc.require_fiber()
    t0 = _number(p, "t0", "flrw")
    t1 = _number(p, "t1", "flrw")
    y0 = _vector(p, "y0", "flrw", dim=g2.dim)
    y1 = _vector(p, "y1", "flrw", dim=g2.dim)
    cross_check = _flag(p, "cross_check", "flrw", default=False)
    weight = tc.line_weight("flrw", ("weight",))
    rep = flrw_connect(w, t0, t1, y0, y1, g2, tc.cfg, weight=weight)
    result = _connection_result(rep, w, tc.base, g2)
    # the trivial connection of coinciding fiber points has no residual and no r
    if rep.first_integral_residual is not None:
        result["summary"].append(
            f"first-integral residual {rep.first_integral_residual:.3e}"
        )
    if cross_check:
        general = connect_points(
            tc.base, g2, w, (np.array([t0]), y0), (np.array([t1]), y1), tc.cfg
        )
        result["report"]["cross_check_r"] = general.r
        if general.r is not None and rep.r is not None:
            result["summary"].append(
                f"general-path cross check: r={general.r:.12g} "
                f"(difference {abs(general.r - rep.r):.3e})"
            )
    _write_rebuilt(rep.geodesic, out)
    return result


@task("partial-connect")
def run_partial(tc: TaskConfig, out: Path) -> dict:
    p = tc.params
    theta_check = _flag(p, "theta", "partial_connect", default=True)
    w, g2, r, mu, nu = _integrate_pair(tc, p, "partial_connect")
    alpha = _number(p, "alpha", "partial_connect")
    beta_plus, beta_minus = partial_connect((mu, nu), alpha, w, r)
    report = {
        "r": r,
        "alpha": alpha,
        "beta_plus": beta_plus,
        "beta_minus": beta_minus,
    }
    if theta_check:
        report["theta"] = theta_consistency(mu, nu, w, r, alpha)
    lines = [
        f"partial connection at r={r:g}, alpha={alpha:g}: "
        f"beta = +/-{beta_plus:.12g}",
    ]
    if "theta" in report:
        gap = report["theta"]["relative_gap"]
        lines.append(
            f"fiber-reaching dial: displayed {report['theta']['beta_displayed']:.12g} "
            f"vs coupling-consistent {report['theta']['beta_compat']:.12g} "
            f"(relative gap {gap:.3e})"
        )
        if gap > 1e-12:
            lines.append("note: the two dial readings disagree; the "
                         "coupling-consistent value matches partial_connect")
    return {"report": report, "summary": lines}


@task("curvature-scan")
def run_curvature(tc: TaskConfig, out: Path) -> dict:
    p = tc.params
    w = tc.require_warp()
    g1 = tc.base
    if g1.dim < 2:
        raise InputError(f"curvature-scan needs a plane, so a base_chart of "
                         f"dimension at least 2; {g1.name} has dimension {g1.dim}")
    r_values = _numbers(p, "r_values", "curvature_scan")
    grid = _section(p, "grid", "curvature_scan")
    mins = _vector(grid, "mins", "curvature_scan.grid", dim=g1.dim)
    maxs = _vector(grid, "maxs", "curvature_scan.grid", dim=g1.dim)
    counts = _vector(grid, "counts", "curvature_scan.grid", dim=g1.dim)
    if not np.all(counts >= 1):
        raise InputError(f"curvature_scan.grid.counts must be at least 1, "
                         f"got {counts.tolist()}")
    axes = [np.linspace(mins[i], maxs[i], int(counts[i])) for i in range(g1.dim)]
    mesh = np.stack([m.ravel() for m in np.meshgrid(*axes, indexing="ij")], axis=-1)
    if not (np.isfinite(mesh).all() and g1.contains_all(mesh)):
        raise InputError(f"curvature_scan.grid must lie inside the {g1.name} chart, "
                         f"with finite mins and maxs; got mins {mins.tolist()}, "
                         f"maxs {maxs.tolist()}")
    planes = _count(p, "planes", "curvature_scan", default=1, least=1)
    per_point = len(r_values) * planes
    frames = _random_planes(np.repeat(metrics_at(g1, mesh), per_point, axis=0),
                            np.random.default_rng(tc.seed))
    frames = frames.reshape(len(mesh), len(r_values), planes, 2, g1.dim)
    K, ok = rescaled_curvature(g1, w, mesh, r_values, frames)
    ok = ok.all(axis=-1)
    rows = np.column_stack([
        np.repeat(mesh, per_point, axis=0),
        np.tile(np.repeat(r_values, planes), len(mesh)),
        K.ravel(),
        ok.ravel(),
    ])
    header = ",".join(
        [f"x{i + 1}" for i in range(g1.dim)] + ["r", "curvature", "criterion_ok"]
    )
    _write_csv(out / "curvature.csv", header, rows)
    report = {
        "samples": len(rows),
        "all_negative": bool(np.all(K < 0.0)),
        "criterion_everywhere": bool(np.all(ok)),
        "min_curvature": float(np.min(K)),
        "max_curvature": float(np.max(K)),
    }
    lines = [
        f"scanned {len(rows)} (point, r, plane) samples",
        f"all curvatures negative: {report['all_negative']} "
        f"(max {report['max_curvature']:.6g})",
        f"negativity criterion everywhere: {report['criterion_everywhere']}",
    ]
    return {"report": report, "summary": lines}


def _random_planes(g, rng):
    """One random pair per metric of ``g`` (``(n, d, d)``), orthonormal for it.

    The pairs are drawn in one batch and made orthonormal by Gram-Schmidt.
    A degenerate pair is skipped after the batch: it and every later row
    move on by one pair of the stream, so each row gets the pair that
    drawing row by row would give it.  64 degenerate pairs in a row for one
    metric are a :class:`NumericalError`.
    """
    raw = rng.standard_normal((len(g), 2, g.shape[-1]))
    last, tries = -1, 0
    while True:
        a, b = raw[:, 0], raw[:, 1]
        e1 = a / np.sqrt(_quadratic(a, g, a))[:, None]
        e2 = b - _quadratic(b, g, e1)[:, None] * e1
        n2 = _quadratic(e2, g, e2)
        degenerate = np.flatnonzero(~(n2 > 1e-12))
        if not degenerate.size:
            return np.stack([e1, e2 / np.sqrt(n2)[:, None]], axis=1)
        i = degenerate[0]
        tries = tries + 1 if i == last else 1
        if tries == 64:
            raise NumericalError("could not draw an orthonormal plane")
        last = i
        raw[i:] = np.concatenate([raw[i + 1:], rng.standard_normal((1, 2, g.shape[-1]))])


@task("beta-scan")
def run_beta_scan(tc: TaskConfig, out: Path) -> dict:
    p = tc.params
    w = tc.require_warp()
    g2 = tc.require_fiber()
    lower = admissible_range(w).lower
    if "r_values" in p:
        r_values = _numbers(p, "r_values", "beta_scan")
    else:
        count = _count(p, "samples", "beta_scan", default=64, least=2)
        r_max = _number(p, "r_max", "beta_scan", required=False, default=R_MAX_DEFAULT)
        if not r_max > lower:
            raise ParameterError(r_max, lower, "beta_scan.r_max")
        start = lower + 1e-3 * (1.0 + abs(lower))
        ratio = ((r_max - lower) / (start - lower)) ** (1.0 / (count - 1))
        r_values = [lower + (start - lower) * ratio ** i for i in range(count)]
    if tc.base.dim == 1:
        t0 = _number(p, "x0", "beta_scan")
        t1 = _number(p, "x1", "beta_scan")
        dial = _line_connection(w, t0, t1, tc.line_weight(
            "beta_scan", ("weight", "first_integral")), tc.cfg)[0]
    else:
        dial = _shooting_dial(tc.base, g2, w,
                              _vector(p, "x0", "beta_scan", dim=tc.base.dim),
                              _vector(p, "x1", "beta_scan", dim=tc.base.dim), tc.cfg)
    rows, res = [], None
    for r in r_values:
        res = dial(r, res)
        rows.append([r, res.beta, res.a_r, res.b_r, res.iterations])
    table = np.array(rows)
    _write_csv(out / "beta.csv", "r,beta,a_r,b_r,iterations", table)
    betas = table[:, 1]
    report = {
        "samples": len(rows),
        "strictly_decreasing": bool(np.all(np.diff(betas) < 0.0)),
        "range_ratio": float(betas[0] / betas[-1]),
        "beta_first": float(betas[0]),
        "beta_last": float(betas[-1]),
    }
    lines = [
        f"dial sampled at {len(rows)} parameter values in ({lower:.6g}, inf)",
        f"strictly decreasing: {report['strictly_decreasing']}; "
        f"ratio across grid: {report['range_ratio']:.6g}",
    ]
    return {"report": report, "summary": lines}


# ---------------------------------------------------------------------------
# entry point


def _json_default(obj):
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    raise TypeError(f"not serializable: {type(obj)!r}")


# Built once: every call of main parses with it, and none changes it.
_PARSER = argparse.ArgumentParser(
    prog="warpgeo",
    description="Rebuild and connect geodesics of warped product metrics.",
)
_PARSER.add_argument("--config", required=True, help="YAML task description")
_PARSER.add_argument("--out", default="out", help="output directory (default: out)")
_PARSER.add_argument("--steps", type=int, default=None,
                     help="override the integrator step count")
_PARSER.add_argument("--quiet", action="store_true", help="suppress the summary")
_PARSER.add_argument("--version", action="version", version=f"warpgeo {__version__}")


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    def record_failure(exc: WarpGeoError):
        # Status files always describe the latest run: a failure must not
        # leave a report.json from an earlier success sitting next to the
        # fresh error.json (and vice versa below).
        try:
            (out / "report.json").unlink(missing_ok=True)
            (out / "summary.txt").unlink(missing_ok=True)
            with open(out / "error.json", "w") as fh:
                json.dump(exc.payload(), fh, indent=2, default=_json_default)
        except OSError:
            pass
        print(f"error: {exc}", file=sys.stderr)

    try:
        with open(args.config) as fh:
            doc = yaml.load(fh, Loader=_ConfigLoader)
    except OSError as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return 2
    except yaml.YAMLError as exc:
        print(f"error: malformed YAML: {exc}", file=sys.stderr)
        return 2

    try:
        tc = TaskConfig(doc, steps_override=args.steps)
        result = TASKS[tc.task](tc, out)
    except InputError as exc:
        record_failure(exc)
        return 2
    except NumericalError as exc:
        record_failure(exc)
        return 3

    (out / "error.json").unlink(missing_ok=True)
    with open(out / "report.json", "w") as fh:
        json.dump(result["report"], fh, indent=2, default=_json_default)
    summary = "\n".join(result["summary"]) + "\n"
    with open(out / "summary.txt", "w") as fh:
        fh.write(summary)
    if not args.quiet:
        print(summary, end="")
    return 0


if __name__ == "__main__":
    sys.exit(main())
