"""The four benchmark workloads: seeded inputs, one solve per op, checks.

Every workload draws problem ``i`` from a generator seeded with the run's
seed, so a seed fixes the whole input sequence.  Ranges sit around the
README example and the acceptance instances (see ``README.md``).  Inputs
that fail are never redrawn: they count as failed ops.

An op is one user-level call into warpgeo's public API (``connect_points``,
``flrw_connect`` or the in-process CLI ``main``).  Library functions are
looked up on their module at call time, so the tracer's wrappers see them.
Ground truth is computed after the timed call, by the benchmark itself.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np
import yaml

from warpgeo import cli, connect, integrate, manifold, warp

ORACLE_TOL = 1e-5    # acceptance criterion 1: rebuilt pair vs coupled system
ENDPOINT_TOL = 1e-6  # IntegratorConfig's default acceptance tolerance

LINE_WARP = "2 + sin(x1)"
LINE_WEIGHT = "(1 + t)^2"


class CheckFailed(Exception):
    """An op returned, but its output disagrees with the ground truth."""


def _u(rng, lo, hi):
    return float(rng.uniform(lo, hi))


def _oracle_gap(g1, g2, w, gamma_pts, gamma_vel, tau_pts, tau_vel, cfg):
    """Max-norm gap between a rebuilt pair and the directly integrated system
    started from the pair's own initial tangents."""
    ob, of = integrate.integrate_coupled_oracle(
        g1, g2, w, (gamma_pts[0], tau_pts[0]), (gamma_vel[0], tau_vel[0]), cfg)
    return max(float(np.max(np.abs(ob.points - gamma_pts))),
               float(np.max(np.abs(of.points - tau_pts))))


# The two 2-D bases of the acceptance suite, each with its warp (k in [1.5, 2.5]).
PLANE_BASES = {
    "half_plane": ({"name": "poincare_half_plane"}, "2 + 0.5*sin(2*x1)"),
    "flat": ({"name": "euclidean", "dim": 2}, "2 + 0.5*sin(2*x1)*cos(2*x2)"),
}


def plane_bases() -> dict:
    charts = {"half_plane": manifold.poincare_half_plane(),
              "flat": manifold.euclidean(2)}
    return {key: (charts[key], warp.WarpField.from_expression(text, 2, 1.5, 2.5))
            for key, (_, text) in PLANE_BASES.items()}


def _cli_base(key: str) -> dict:
    chart, text = PLANE_BASES[key]
    return {"base_chart": chart,
            "warp": {"expression": text, "k0": 1.5, "K0": 2.5}}


class Workload:
    name = ""
    steps = 0
    period = 1      # length of the input mix; timed runs end on whole periods
    trace_ops = 0   # fixed op count of a traced pass, so counters repeat

    def __init__(self, workdir: Path):
        self.workdir = workdir
        self.cfg = integrate.IntegratorConfig(steps=self.steps) if self.steps else None

    def problem(self, rng, i: int) -> dict:
        raise NotImplementedError

    def prepare(self, p: dict):
        """Untimed: returns the zero-argument op for problem ``p``."""
        raise NotImplementedError

    def check(self, p: dict, result) -> tuple[float | None, float | None]:
        """Raises :class:`CheckFailed`; returns (oracle gap, endpoint miss)."""
        raise NotImplementedError


class ConnectShoot(Workload):
    """``connect_points`` by shooting, half-plane and flat bases (2:1)."""

    name = "connect-shoot"
    steps = 16
    period = 3
    trace_ops = 9

    def __init__(self, workdir):
        super().__init__(workdir)
        self.g2 = manifold.circle(1.0)
        self.bases = plane_bases()

    def problem(self, rng, i):
        if i % 3 == 1:
            return {"base": "flat", "x0": [0.0, 0.0],
                    "x1": [_u(rng, 1.0, 1.4), _u(rng, 0.5, 0.9)],
                    "y0": [0.0], "y1": [_u(rng, 0.3, 0.5)]}
        return {"base": "half_plane", "x0": [0.0, 1.0],
                "x1": [_u(rng, 1.0, 1.4), _u(rng, 0.6, 0.8)],
                "y0": [0.0], "y1": [_u(rng, 0.3, 0.5)]}

    def prepare(self, p):
        g1, w = self.bases[p["base"]]
        z0 = (np.array(p["x0"]), np.array(p["y0"]))
        z1 = (np.array(p["x1"]), np.array(p["y1"]))
        return lambda: connect.connect_points(g1, self.g2, w, z0, z1, self.cfg)

    def check(self, p, rep):
        g1, w = self.bases[p["base"]]
        return _check_connection(rep, g1, self.g2, w, p["x1"], p["y1"], self.cfg)


class ConnectLine(Workload):
    """``flrw_connect`` on the line base; every fourth problem is weighted."""

    name = "connect-line"
    # The least multiple of 256 at which weighted legs up to t1 = 7 meet the
    # 1e-6 endpoint tolerance (512 steps miss t1 = 7 by 2.7e-6).
    steps = 768
    period = 4
    trace_ops = 8

    def __init__(self, workdir):
        super().__init__(workdir)
        self.w = warp.WarpField.from_expression(LINE_WARP, 1, 1.0, 3.0)
        self.g2 = manifold.euclidean(1)
        self.lines = {None: manifold.euclidean(1),
                      LINE_WEIGHT: manifold.weighted_line(LINE_WEIGHT)}

    def problem(self, rng, i):
        weight = LINE_WEIGHT if i % 4 == 3 else None
        return {"weight": weight, "t0": 0.0, "t1": _u(rng, 5.0, 7.0),
                "y0": [0.0], "y1": [_u(rng, 0.7, 1.1)]}

    def prepare(self, p):
        y0, y1 = np.array(p["y0"]), np.array(p["y1"])
        return lambda: connect.flrw_connect(self.w, p["t0"], p["t1"], y0, y1,
                                            self.g2, self.cfg, weight=p["weight"])

    def check(self, p, rep):
        return _check_connection(rep, self.lines[p["weight"]], self.g2, self.w,
                                 [p["t1"]], p["y1"], self.cfg)


def _check_connection(rep, g1, g2, w, x1, y1, cfg):
    geo = rep.geodesic
    gap = _oracle_gap(g1, g2, w, geo.gamma.points, geo.gamma.velocities,
                      geo.tau.points, geo.tau.velocities, cfg)
    mu, nu = geo.base
    miss = max(float(np.max(np.abs(mu.points[-1] - np.asarray(x1)))),
               float(np.max(np.abs(nu.points[-1] - np.asarray(y1)))),
               abs(rep.beta - rep.target_beta))
    if not gap <= ORACLE_TOL:
        raise CheckFailed(f"oracle deviation {gap:.3e} > {ORACLE_TOL:g}")
    if not miss <= ENDPOINT_TOL:
        raise CheckFailed(f"endpoint miss {miss:.3e} > {ENDPOINT_TOL:g}")
    return gap, miss


class CliWorkload(Workload):
    """A CLI task run in process through ``warpgeo.cli.main``."""

    def prepare(self, p):
        config = self.workdir / f"{self.name}.yaml"
        config.write_text(yaml.safe_dump(p["config"]))
        out = self.workdir / self.name
        argv = ["--config", str(config), "--out", str(out), "--quiet"]
        return lambda: cli.main(argv)

    def outputs(self, code) -> Path:
        out = self.workdir / self.name
        if code != 0:
            try:
                error = json.loads((out / "error.json").read_text())["error"]
            except (OSError, ValueError, KeyError):
                error = "no error.json"
            raise CheckFailed(f"exit code {code} ({error})")
        return out


class Rebuild(CliWorkload):
    """CLI ``riemannize`` with a fitted fiber speed and the oracle check."""

    name = "rebuild"
    steps = 256
    period = 3
    trace_ops = 24

    def __init__(self, workdir):
        super().__init__(workdir)
        self.g2 = manifold.circle(1.0)
        self.bases = plane_bases()

    def problem(self, rng, i):
        if i % 3 == 1:
            base, r, x0 = "flat", _u(rng, 0.3, 0.7), [0.0, 0.0]
            X0 = [_u(rng, 2.0, 2.4), _u(rng, 1.2, 1.6)]
        else:
            base, r, x0 = "half_plane", _u(rng, 0.5, 1.5), [0.0, 1.0]
            X0 = [_u(rng, 1.8, 2.2), _u(rng, 0.6, 1.0)]
        return {"base": base, "config": {
            "task": "riemannize",
            **_cli_base(base),
            "fiber_chart": {"name": "circle", "radius": 1.0},
            "integrator": {"steps": self.steps},
            "riemannize": {"r": r, "x0": x0, "X0": X0, "y0": [0.0],
                           "Y0": [_u(rng, 0.5, 1.5)], "fit_fiber_speed": True,
                           "oracle_check": True},
        }}

    def check(self, p, code):
        out = self.outputs(code)
        g1, w = self.bases[p["base"]]
        curves = {}
        for leg in ("gamma", "tau"):
            table = np.loadtxt(out / f"{leg}.csv", delimiter=",", skiprows=1, ndmin=2)
            d = (table.shape[1] - 1) // 2
            if table.shape[0] != self.steps + 1:
                raise CheckFailed(f"{leg}.csv has {table.shape[0]} rows")
            curves[leg] = (table[:, 1:1 + d], table[:, 1 + d:])
        gap = _oracle_gap(g1, self.g2, w, *curves["gamma"], *curves["tau"],
                          self.cfg)
        if not gap <= ORACLE_TOL:
            raise CheckFailed(f"oracle deviation {gap:.3e} > {ORACLE_TOL:g}")
        report = json.loads((out / "report.json").read_text())
        if "oracle_deviation" not in report or "norm_identities" not in report:
            raise CheckFailed("report.json lacks the oracle or norm-identity check")
        return gap, None


class CurvatureScan(CliWorkload):
    """CLI ``curvature-scan`` over seeded windows, r sets and planes."""

    name = "curvature-scan"
    steps = 0      # the task integrates nothing
    period = 2
    trace_ops = 16
    counts = (10, 10)
    r_count = 4
    planes = 2

    def problem(self, rng, i):
        base = "flat" if i % 2 else "half_plane"
        a = _u(rng, -2.0, 0.0)
        b = _u(rng, -1.0, 0.0) if base == "flat" else _u(rng, 0.5, 1.0)
        r_values = sorted(_u(rng, 0.0, 2.0) for _ in range(self.r_count))
        return {"base": base, "config": {
            "task": "curvature-scan",
            "seed": int(rng.integers(2 ** 31)),
            **_cli_base(base),
            "curvature_scan": {
                "r_values": r_values, "planes": self.planes,
                "grid": {"mins": [a, b], "maxs": [a + 2.0, b + 1.5],
                         "counts": list(self.counts)},
            },
        }}

    def check(self, p, code):
        out = self.outputs(code)
        table = np.loadtxt(out / "curvature.csv", delimiter=",", skiprows=1, ndmin=2)
        expected = math.prod(self.counts) * self.r_count * self.planes
        if table.shape[0] != expected:
            raise CheckFailed(f"curvature.csv has {table.shape[0]} rows, "
                              f"expected {expected}")
        curvature, criterion = table[:, -2], table[:, -1]
        wrong = int(np.count_nonzero((criterion == 1.0) & ~(curvature < 0.0)))
        if wrong:
            raise CheckFailed(f"{wrong} samples pass the negativity criterion "
                              "with a non-negative curvature")
        return None, None


WORKLOADS = {cls.name: cls for cls in (ConnectShoot, ConnectLine, Rebuild,
                                       CurvatureScan)}
