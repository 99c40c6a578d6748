"""Fixed-step geodesic integration and residual checks.

All curves are integrated with the classical fourth-order Runge-Kutta
scheme on a uniform grid over ``[0, 1]``; problems posed on ``[0, T]`` are
folded into the initial velocity.  The fixed step keeps runs deterministic
and the convergence order measurable.
On a chart that carries a conformal exponent ``phi`` (metric
``exp(2 phi) I``), plain geodesics advance by the chart's generated float
step, :func:`~warpgeo.warpfn.rk4_geodesic_step`, whose acceleration is the
closed-form spray ``|v|^2 grad phi - 2 (grad phi . v) v``; on every other
chart they take :func:`~warpgeo.manifold.geodesic_rhs`, the contracted
Christoffel symbols, through the numpy RK4 loop.  Both check every state
the same way.

Besides the plain geodesic integrator for a single chart, this module
integrates the coupled mixed-signature system directly:

    base:   (d/dt) velocity = -G1(v, v) - 1/2 |fiber vel|^2 * grad k
    fiber:  (d/dt) velocity = -G2(v, v) - (dk(base vel) / k) * fiber vel

which serves as the independent oracle the reparametrization pipeline is
tested against (it contracts Christoffel symbols, never the spray), and
measures the max-norm residuals of that system along any stored pair of
curves with the same acceleration.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import math

import numpy as np
from scipy.interpolate import BPoly

from . import warpfn
from ._num import derivative_on_grid
from .errors import ChartDomainError, InputError
from .manifold import MetricChart, _metric, christoffel, geodesic_rhs
from .warp import WarpField, value_and_grad

__all__ = [
    "Curve", "IntegratorConfig", "integrate_geodesic",
    "integrate_product_geodesic", "integrate_coupled_oracle",
    "coupled_residual", "speed_drift", "curve_to_csv", "curve_from_csv",
]


def _hermite_quintic(params, values, d1, d2) -> BPoly:
    """Quintic pieces matching value + two derivatives at every node.

    Builds the Bernstein coefficient array in a handful of whole-grid
    operations and hands it to ``BPoly``, whose evaluation is both
    compiled and numerically stable; ``BPoly.from_derivatives`` computes
    the same polynomial but assembles it interval by interval in Python,
    which dominates solver loops that re-interpolate curves.
    """
    h = np.diff(params)[:, None]
    p0, p1 = values[:-1], values[1:]
    v0, v1 = d1[:-1] * h, d1[1:] * h
    a0, a1 = d2[:-1] * h * h, d2[1:] * h * h
    coefs = np.stack([
        p0,
        p0 + 0.2 * v0,
        p0 + 0.4 * v0 + 0.05 * a0,
        p1 - 0.4 * v1 + 0.05 * a1,
        p1 - 0.2 * v1,
        p1,
    ])
    return BPoly(coefs, np.asarray(params, dtype=float))


@dataclass
class Curve:
    """A sampled curve with velocities on the uniform grid over ``[0, 1]``.

    ``points`` and ``velocities`` have one row per parameter value;
    velocities are with respect to the stored (unit-interval) parameter.
    """

    params: np.ndarray
    points: np.ndarray
    velocities: np.ndarray
    _point_poly: object = field(default=None, repr=False, compare=False)
    _velocity_poly: object = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        self.params = np.asarray(self.params, dtype=float)
        self.points = np.atleast_2d(np.asarray(self.points, dtype=float))
        self.velocities = np.atleast_2d(np.asarray(self.velocities, dtype=float))
        n = self.params.shape[0]
        if n < 2 or self.points.shape[0] != n or self.velocities.shape != self.points.shape:
            raise InputError(
                f"inconsistent curve shapes: params {self.params.shape}, "
                f"points {self.points.shape}, velocities {self.velocities.shape}"
            )
        if self.params[0] != 0.0 or not np.all(np.diff(self.params) > 0.0):
            raise InputError("curve parameters must increase strictly from 0")

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    @property
    def steps(self) -> int:
        return self.params.shape[0] - 1

    def _dense(self):
        # Quintic Hermite pieces from stored points, velocities, and
        # finite-differenced accelerations.  Matching two derivatives at
        # every node keeps the interpolation error two orders below the
        # grid resolution, so downstream finite differencing of resampled
        # curves stays at the integrator's own order.  (A cubic spline
        # here would bottleneck the measured geodesic residuals.)
        #
        # Velocities get their own value-level interpolant rather than the
        # derivative of the position one: differentiating a piecewise
        # polynomial divides coefficient roundoff by the grid step, which
        # at fine resolutions is the dominant noise in resampled curves.
        if self._point_poly is None:
            if self.params.shape[0] >= 5:
                h = self.params[1] - self.params[0]
                uniform = np.allclose(np.diff(self.params), h, rtol=1e-9)
            else:
                uniform = False
            if uniform:
                acc = derivative_on_grid(self.velocities, h)
                jerk = derivative_on_grid(acc, h)
                self._point_poly = _hermite_quintic(
                    self.params, self.points, self.velocities, acc,
                )
                self._velocity_poly = _hermite_quintic(
                    self.params, self.velocities, acc, jerk,
                )
            else:
                self._point_poly = BPoly.from_derivatives(
                    self.params,
                    np.stack([self.points, self.velocities], axis=1),
                )
                self._velocity_poly = self._point_poly.derivative()
        return self._point_poly, self._velocity_poly

    def _clamp(self, t):
        t = np.asarray(t, dtype=float)
        lo, hi = self.params[0], self.params[-1]
        slack = 1e-9 * max(1.0, abs(hi))
        if np.any(t < lo - slack) or np.any(t > hi + slack):
            raise InputError(
                f"curve parameter out of range: {t} not within [{lo}, {hi}]"
            )
        return np.clip(t, lo, hi)

    def point_at(self, t) -> np.ndarray:
        """Interpolated position; ``t`` may be a scalar or an array."""
        return self._dense()[0](self._clamp(t))

    def velocity_at(self, t) -> np.ndarray:
        """Interpolated velocity; ``t`` may be a scalar or an array."""
        return self._dense()[1](self._clamp(t))

    def endpoint(self) -> np.ndarray:
        return self.points[-1]

    def initial_velocity(self) -> np.ndarray:
        return self.velocities[0]


@dataclass(frozen=True)
class IntegratorConfig:
    """Step count of the fixed-step integrator, and the largest distance
    a connection's rebuilt legs may end from the requested end points."""

    steps: int = 1024
    tolerance: float = 1e-6

    def __post_init__(self):
        if self.steps < 16:
            raise InputError(f"need at least 16 steps, got {self.steps}")
        if self.steps % 2:
            raise InputError(f"step count must be even, got {self.steps}")
        if not (self.tolerance > 0.0):
            raise InputError(f"tolerance must be positive, got {self.tolerance}")


def _rk4(rhs, state0: np.ndarray, steps: int, charts) -> np.ndarray:
    """Classical Runge-Kutta over [0, 1]; returns all ``steps + 1`` states.

    The state is one ``(point, velocity)`` block per chart of ``charts``,
    in order.  Each state is checked as it is made, the initial one too:
    the first whose point leaves its chart, or whose block is not finite,
    raises :class:`ChartDomainError` at that step's parameter, before any
    further right-hand side is evaluated.
    """
    h = 1.0 / steps
    out = np.empty((steps + 1, state0.shape[0]))
    y = state0.astype(float)
    for i in range(steps + 1):
        if i:
            k1 = rhs(y)
            k2 = rhs(y + 0.5 * h * k1)
            k3 = rhs(y + 0.5 * h * k2)
            k4 = rhs(y + h * k3)
            y = y + (h / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)
        start = 0
        for chart in charts:
            _check_state(chart, y[start:start + 2 * chart.dim].tolist(), i / steps)
            start += 2 * chart.dim
        out[i] = y
    return out


def _check_state(chart: MetricChart, block, t: float):
    """Raise :class:`ChartDomainError` at ``t`` unless the ``(point,
    velocity)`` block is finite and its point lies in the chart."""
    point = block[:chart.dim]
    if not (all(map(math.isfinite, block)) and chart.contains(point)):
        raise ChartDomainError(chart.name, t, point)


def _conformal_rk4(chart: MetricChart, state0: np.ndarray, steps: int) -> np.ndarray:
    """:func:`_rk4` for a chart with a conformal exponent: one generated
    float step per step, each state checked as there.

    The step leaves the exponent's own logarithms unevaluated, so near the
    chart's rim it divides by zero where numpy would give inf; that state
    is not finite either.
    """
    step = warpfn.rk4_geodesic_step(chart.exponent, chart.dim)
    h = 1.0 / steps
    args = chart.exponent_args
    y = tuple(state0.tolist())
    states = []
    for i in range(steps + 1):
        if i:
            try:
                y = step(y, h, args)
            except ZeroDivisionError:
                y = (math.nan,) * len(y)
        _check_state(chart, y, i / steps)
        states.append(y)
    return np.array(states)


def integrate_geodesic(chart: MetricChart, p0, v0,
                       cfg: IntegratorConfig = IntegratorConfig()) -> Curve:
    """Geodesic of the chart's metric from ``(p0, v0)``, over ``[0, 1]``."""
    p0 = np.asarray(p0, dtype=float)
    v0 = np.asarray(v0, dtype=float)
    if p0.shape != (chart.dim,) or v0.shape != (chart.dim,):
        raise InputError(
            f"initial data of dimension {p0.shape}/{v0.shape} on a "
            f"{chart.dim}-dimensional chart"
        )
    d = chart.dim
    state0 = np.concatenate((p0, v0))
    if chart.exponent is not None:
        states = _conformal_rk4(chart, state0, cfg.steps)
    else:

        def rhs(state):
            p, v = state[:d], state[d:]
            return np.concatenate((v, geodesic_rhs(chart, p, v)))

        states = _rk4(rhs, state0, cfg.steps, (chart,))
    t = np.linspace(0.0, 1.0, cfg.steps + 1)
    return Curve(t, states[:, :d], states[:, d:])


def integrate_product_geodesic(g1: MetricChart, g2: MetricChart, z0, V0,
                               cfg: IntegratorConfig = IntegratorConfig()
                               ) -> tuple[Curve, Curve]:
    """Independent geodesics of the two factors from a product initial state.

    ``z0 = (p1, p2)`` and ``V0 = (v1, v2)`` as pairs of coordinate arrays.
    """
    (p1, p2), (v1, v2) = z0, V0
    return (
        integrate_geodesic(g1, p1, v1, cfg),
        integrate_geodesic(g2, p2, v2, cfg),
    )


def _coupled_acceleration(g1: MetricChart, g2: MetricChart, w: WarpField,
                          x, u, y, v) -> tuple[np.ndarray, np.ndarray]:
    """Base and fiber accelerations the coupled system prescribes at a state.

    Contracts Christoffel symbols, never the spray, so the oracle and the
    residual stay independent of the geodesic integrator.
    """
    k, dk = value_and_grad(w, x)
    fiber_speed2 = float(v @ _metric(g2, y) @ v)
    acc1 = -(christoffel(g1, x) @ u) @ u
    acc1 -= 0.5 * fiber_speed2 * np.linalg.solve(_metric(g1, x), dk)
    acc2 = -(christoffel(g2, y) @ v) @ v
    acc2 -= (float(dk @ u) / k) * v
    return acc1, acc2


def integrate_coupled_oracle(g1: MetricChart, g2: MetricChart, w: WarpField,
                             z0, V0,
                             cfg: IntegratorConfig = IntegratorConfig()
                             ) -> tuple[Curve, Curve]:
    """Integrate the coupled mixed-signature geodesic system directly.

    This bypasses the conformal-rescaling pipeline entirely: one RK4 pass
    over the joint state of both factors, with the coupling terms written
    straight from the governing equations.  Used as the ground truth the
    pipeline is validated against.
    """
    (p1, p2), (v1, v2) = z0, V0
    p1 = np.asarray(p1, dtype=float)
    p2 = np.asarray(p2, dtype=float)
    v1 = np.asarray(v1, dtype=float)
    v2 = np.asarray(v2, dtype=float)
    d1, d2 = g1.dim, g2.dim
    if p1.shape != (d1,) or p2.shape != (d2,):
        raise InputError("initial point dimensions do not match the charts")

    def rhs(state):
        x, u = state[:d1], state[d1:2 * d1]
        y, v = state[2 * d1:2 * d1 + d2], state[2 * d1 + d2:]
        acc1, acc2 = _coupled_acceleration(g1, g2, w, x, u, y, v)
        return np.concatenate((u, acc1, v, acc2))

    state0 = np.concatenate((p1, v1, p2, v2))
    states = _rk4(rhs, state0, cfg.steps, (g1, g2))
    base_states = states[:, : 2 * d1]
    fiber_states = states[:, 2 * d1:]
    t = np.linspace(0.0, 1.0, cfg.steps + 1)
    return (
        Curve(t, base_states[:, :d1], base_states[:, d1:]),
        Curve(t, fiber_states[:, :d2], fiber_states[:, d2:]),
    )


def _grid_step(curve: Curve) -> float:
    h = np.diff(curve.params)
    if not np.allclose(h, h[0], rtol=1e-9, atol=1e-15):
        raise InputError("residuals require a uniform parameter grid")
    return float(h[0])


def coupled_residual(g1: MetricChart, g2: MetricChart, w: WarpField,
                     base: Curve, fiber: Curve) -> tuple[float, float]:
    """Max-norm residuals of the coupled system along a stored pair.

    Accelerations are recovered from the stored velocities with
    fourth-order finite-difference stencils, so the measurement is
    independent of how the curves were produced.
    """
    if base.steps != fiber.steps:
        raise InputError("base and fiber curves must share one grid")
    h = _grid_step(base)
    acc1 = derivative_on_grid(base.velocities, h)
    acc2 = derivative_on_grid(fiber.velocities, h)
    r1 = 0.0
    r2 = 0.0
    for i in range(base.steps + 1):
        a1, a2 = _coupled_acceleration(g1, g2, w, base.points[i],
                                       base.velocities[i], fiber.points[i],
                                       fiber.velocities[i])
        r1 = max(r1, float(np.max(np.abs(acc1[i] - a1))))
        r2 = max(r2, float(np.max(np.abs(acc2[i] - a2))))
    return r1, r2


def geodesic_residual(chart: MetricChart, curve: Curve) -> float:
    """Max-norm residual of the plain geodesic equation along a curve."""
    h = _grid_step(curve)
    acc = derivative_on_grid(curve.velocities, h)
    worst = 0.0
    for i in range(curve.steps + 1):
        p, v = curve.points[i], curve.velocities[i]
        e = acc[i] + (christoffel(chart, p) @ v) @ v
        worst = max(worst, float(np.max(np.abs(e))))
    return worst


def speed_drift(chart: MetricChart, curve: Curve) -> float:
    """Largest deviation of ``g(v, v)`` along the curve from its start value."""
    speeds = np.array([
        float(v @ _metric(chart, p) @ v)
        for p, v in zip(curve.points, curve.velocities)
    ])
    return float(np.max(np.abs(speeds - speeds[0])))


# ---------------------------------------------------------------------------
# serialization

_FMT = "%.17g"


def curve_to_csv(curve: Curve, path):
    """Write a curve as CSV: parameter, coordinates, velocities."""
    d = curve.dim
    header = ",".join(
        ["t"] + [f"x{i + 1}" for i in range(d)] + [f"v{i + 1}" for i in range(d)]
    )
    table = np.column_stack([curve.params, curve.points, curve.velocities])
    np.savetxt(path, table, fmt=_FMT, delimiter=",", header=header, comments="")


def curve_from_csv(path) -> Curve:
    """Read back a curve written by :func:`curve_to_csv`."""
    table = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    d = (table.shape[1] - 1) // 2
    return Curve(table[:, 0], table[:, 1:1 + d], table[:, 1 + d:])
