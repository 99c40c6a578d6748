"""Fixed-step geodesic integration and residual checks.

Every curve is a :class:`Curve` on a uniform grid from 0 with at least
five nodes; the library builds each on one read-only grid per step count.
Between its nodes a curve is read through one quintic Hermite
interpolant over its stacked points and velocities, which gives both at
once (:meth:`Curve.state_at`).
A geodesic takes ``steps`` fixed steps over ``[0, 1]``, and every state it
makes is checked; problems posed on ``[0, T]`` are folded into the initial
velocity.  The fixed step keeps runs deterministic and the convergence
order measurable.  On a chart that carries a conformal exponent ``phi``
(metric ``exp(2 phi) I``) the whole integration is one generated float
loop, :func:`~warpgeo.warpfn.rk4_geodesic_loop`, whose acceleration is the
closed-form spray ``|v|^2 grad phi - 2 (grad phi . v) v`` and which tests
each state finite and inside the domain of ``phi``.  On every other chart
the numpy driver :func:`_rk4` applies the classical RK4 step of
:func:`~warpgeo.manifold.geodesic_rhs`, the contracted Christoffel
symbols, and checks each state against the chart.  Both give the states
as one flat list (:func:`_geodesic_flat`), from which a trial shot reads
only the end state.

Besides the plain geodesic integrator for a single chart, this module
integrates the coupled mixed-signature system directly:

    base:   (d/dt) velocity = -G1(v, v) - 1/2 |fiber vel|^2 * grad k
    fiber:  (d/dt) velocity = -G2(v, v) - (dk(base vel) / k) * fiber vel

which serves as the independent oracle the reparametrization pipeline is
tested against, and measures the max-norm residuals of that system along
any stored pair of curves.  The system's right-hand side is written once,
as an array kernel over rows of states: one batch of ``k`` and ``dk``,
and the metrics, inverse metrics and Christoffel symbols of both charts
at every row (:func:`~warpgeo.manifold.geometry_at`), contracted with
the velocities.  The residual, :func:`geodesic_residual`,
:func:`speed_drift` and the norm identities of :mod:`warpgeo.reparam` are
array expressions over all nodes.  The oracle, when both charts carry a
conformal exponent, is one generated float loop of the same Christoffel
form, :func:`~warpgeo.warpfn.rk4_coupled_loop`, written from the base
exponent, the warp and the fiber exponent as given, never from the
pipeline's rescaled exponent or its spray; on any other pair :func:`_rk4`
applies the classical step of the array kernel on one row.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import math
import numbers

import numpy as np

from . import warpfn
from ._num import derivative_on_grid
from .errors import ChartDomainError, InputError
from .manifold import (
    MetricChart, _quadratic, _squared_speeds, geodesic_rhs, geometry_at,
)
from .warp import WarpField

__all__ = [
    "Curve", "IntegratorConfig", "integrate_geodesic", "integrate_coupled_oracle",
    "coupled_residual", "speed_drift", "curve_to_csv", "curve_from_csv",
]


_BINOMIAL5 = np.array([1.0, 5.0, 10.0, 10.0, 5.0, 1.0])
_POWERS5 = np.arange(6.0)


def _hermite_quintic(params, values, d1, d2):
    """Quintic pieces matching value + two derivatives at every node.

    Builds the Bernstein coefficients of every piece in a handful of
    whole-grid operations and returns their evaluator: ``t`` of any shape
    gives values of shape ``t.shape + (d,)``.  A query picks the piece
    that starts at the last node ``<= t``, and the last piece at the right
    end, and sums the quintic's Bernstein form in closed form, as
    ``scipy.interpolate.BPoly`` does with the same coefficients.
    """
    params = np.asarray(params, dtype=float)
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
    ], axis=1)
    # The piece index is ``searchsorted(params, t, "right") - 1`` clipped
    # to ``[0, n - 2]``, which a search of the interior nodes gives at once.
    interior = params[1:-1]

    def evaluate(t):
        t = np.asarray(t, dtype=float)
        i = np.searchsorted(interior, t, side="right")
        left = params[i]
        s = ((t - left) / (params[i + 1] - left))[..., None]
        basis = _BINOMIAL5 * s ** _POWERS5 * (1.0 - s) ** _POWERS5[::-1]
        return np.einsum("...k,...kd->...d", basis, coefs[i])

    return evaluate


@dataclass
class Curve:
    """A sampled curve with velocities on a uniform grid from 0.

    ``points`` and ``velocities`` have one row per parameter value;
    velocities are with respect to the stored parameter.  The grid must
    have at least five nodes, equally spaced (to ``rtol=1e-9``,
    ``atol=1e-15``) and starting at 0, as every curve the library makes
    does; :attr:`h` is its step.  Anything else raises
    :class:`InputError`.  The shared grid of a step count, on which the
    library makes its curves, is known to be one and is not scanned again.

    Between its nodes a curve is read through one interpolant, built on
    the first read and kept (:meth:`state_at`): quintic Hermite pieces over
    the stacked columns ``(points, velocities)``, which match the stored
    velocities and the accelerations and jerks finite-differenced from
    them (:func:`~warpgeo._num.derivative_on_grid`).  Matching two
    derivatives at every node keeps the interpolation error two orders
    below the grid resolution, so finite differences of resampled curves
    stay at the integrator's own order (a cubic spline would bottleneck
    the measured geodesic residuals).  Velocities are interpolated as
    values, not as the derivative of the position pieces: differentiating
    a piecewise polynomial divides coefficient roundoff by the grid step,
    which at fine resolutions is the dominant noise in resampled curves.
    """

    params: np.ndarray
    points: np.ndarray
    velocities: np.ndarray
    _interpolant: object = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        self.params = np.asarray(self.params, dtype=float)
        self.points = np.atleast_2d(np.asarray(self.points, dtype=float))
        self.velocities = np.atleast_2d(np.asarray(self.velocities, dtype=float))
        n = self.params.shape[0]
        if self.points.shape[0] != n or self.velocities.shape != self.points.shape:
            raise InputError(
                f"inconsistent curve shapes: params {self.params.shape}, "
                f"points {self.points.shape}, velocities {self.velocities.shape}"
            )
        if n < 5:
            raise InputError(f"a curve needs at least five nodes, got {n}")
        if not self.params.flags.writeable and self.params is _grid(n - 1):
            return
        d = np.diff(self.params)
        if (self.params[0] != 0.0 or not d[0] > 0.0
                or not np.all(np.abs(d - d[0]) <= 1e-15 + 1e-9 * d[0])):
            raise InputError("curve parameters must form a uniform grid from 0")

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    @property
    def steps(self) -> int:
        return self.params.shape[0] - 1

    @property
    def h(self) -> float:
        """The grid step."""
        return float(self.params[1] - self.params[0])

    def _clamp(self, t):
        t = np.asarray(t, dtype=float)
        lo, hi = self.params[0], self.params[-1]
        slack = 1e-9 * max(1.0, abs(hi))
        if np.any(t < lo - slack) or np.any(t > hi + slack):
            raise InputError(
                f"curve parameter out of range: {t} not within [{lo}, {hi}]"
            )
        return np.clip(t, lo, hi)

    def state_at(self, t) -> tuple[np.ndarray, np.ndarray]:
        """Interpolated position and velocity; ``t`` may be a scalar or an
        array.  Both are read from the curve's one interpolant at once."""
        if self._interpolant is None:
            acc = derivative_on_grid(self.velocities, self.h)
            self._interpolant = _hermite_quintic(
                self.params, np.hstack((self.points, self.velocities)),
                np.hstack((self.velocities, acc)),
                np.hstack((acc, derivative_on_grid(acc, self.h))))
        states = self._interpolant(self._clamp(t))
        return states[..., :self.dim], states[..., self.dim:]

    def endpoint(self) -> np.ndarray:
        return self.points[-1]


class _Segment(Curve):
    """The straight curve ``y0 + s (y1 - y0)``, read between its nodes in
    closed form rather than through an interpolant (:func:`_segment`)."""

    def state_at(self, t) -> tuple[np.ndarray, np.ndarray]:
        step = self.velocities[0]
        points = self.points[0] + self._clamp(t)[..., None] * step
        return points, np.broadcast_to(step, points.shape).copy()


@dataclass(frozen=True)
class IntegratorConfig:
    """Step count of the fixed-step integrator, and the largest distance
    a connection's rebuilt legs may end from the requested end points:
    ``ShootingReport.endpoint_error`` measures both legs, the base leg's end
    against ``x1`` and the fiber leg's against ``y1``, in the trivial
    connection of coinciding fiber points too."""

    steps: int = 1024
    tolerance: float = 1e-6

    def __post_init__(self):
        if not isinstance(self.steps, numbers.Integral):
            raise InputError(f"step count must be an integer, got {self.steps!r}")
        if self.steps < 16:
            raise InputError(f"need at least 16 steps, got {self.steps}")
        if not 0.0 < self.tolerance < math.inf:
            raise InputError(f"tolerance must be positive and finite, got {self.tolerance}")


@lru_cache(maxsize=64)
def _grid(steps: int) -> np.ndarray:
    """The uniform grid of ``steps`` steps over [0, 1], read-only, shared
    by every curve of that step count."""
    t = np.linspace(0.0, 1.0, steps + 1)
    t.flags.writeable = False
    return t


def _curve(states, dim: int) -> Curve:
    """The curve of ``(point, velocity)`` states on the shared grid, given
    as rows or as one flat list, state after state."""
    states = np.reshape(states, (-1, 2 * dim))
    return Curve(_grid(len(states) - 1), states[:, :dim], states[:, dim:])


def _segment(y0: np.ndarray, y1: np.ndarray, steps: int) -> Curve:
    """The segment from ``y0`` to ``y1`` on the shared grid, its last node
    ``y1`` exactly: a geodesic of any chart whose metric is constant (one
    whose exponent reads no variable), and with ``y1 = y0`` the constant
    curve, a geodesic of every chart.  It integrates nothing, and is read
    between its nodes in closed form."""
    grid = _grid(steps)
    step = y1 - y0
    points = y0 + grid[:, None] * step
    points[-1] = y1
    return _Segment(grid, points, np.tile(step, (steps + 1, 1)))


def _rk4(step, state0: np.ndarray, steps: int, charts) -> np.ndarray:
    """``steps`` fixed steps over [0, 1]; returns all ``steps + 1`` states.

    The numpy path: charts without an exponent, and coupled pairs where
    either chart has none.  ``step(y, h)`` advances a state, a tuple of
    floats, by ``h``.  The state is one ``(point, velocity)`` block per
    chart of ``charts``, in order.  Each state is checked as it is made,
    the initial one too: the first whose block is not finite, or whose
    point leaves its chart (:meth:`~warpgeo.manifold.MetricChart.contains`),
    raises :class:`ChartDomainError` at that step's parameter, before any
    further step is taken.  A step that divides by zero or overflows (a
    user's metric on floats, say), or whose stage state is not finite
    (:func:`_classical_step`), makes a state that is not finite.
    """
    h = 1.0 / steps
    y = tuple(state0.tolist())
    states = []
    for i in range(steps + 1):
        if i:
            try:
                y = step(y, h)
            except (ZeroDivisionError, OverflowError):
                y = (math.nan,) * len(y)
        start = 0
        for chart in charts:
            block = y[start:start + 2 * chart.dim]
            point = block[:chart.dim]
            if not all(map(math.isfinite, block)):
                raise ChartDomainError(chart.name, i / steps, point,
                                       warpfn.FINITE_STATE)
            if not chart.contains(point):
                raise ChartDomainError(chart.name, i / steps, point)
            start += 2 * chart.dim
        states.append(y)
    return np.array(states)


def _loop_states(flat: list, failed, steps: int, charts) -> list:
    """The flat list of states a generated loop made; where one failed,
    the :class:`ChartDomainError` of its block at its parameter."""
    if failed is not None:
        n = sum(2 * chart.dim for chart in charts)
        block, condition = failed
        i = len(flat) // n - 1
        start = i * n + sum(2 * chart.dim for chart in charts[:block])
        chart = charts[block]
        raise ChartDomainError(chart.name, i / steps,
                               tuple(flat[start:start + chart.dim]), condition)
    return flat


def _classical_step(rhs):
    """The classical Runge-Kutta step of ``y' = rhs(y)``, ``rhs`` taking
    and giving numpy arrays, as a ``step(y, h)`` of :func:`_rk4`.  As in
    the generated loops, a stage state that is not finite makes the step's
    state NaN, and ``rhs`` never sees it."""

    def step(y, h):
        y = np.array(y)
        ks = [rhs(y)]
        for c in (0.5 * h, 0.5 * h, h):
            z = y + c * ks[-1]
            if not np.isfinite(z).all():
                return (math.nan,) * len(y)
            ks.append(rhs(z))
        k1, k2, k3, k4 = ks
        return tuple((y + (h / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)).tolist())

    return step


def _geodesic_flat(chart: MetricChart, p0, v0, steps: int) -> list:
    """The ``steps + 1`` states ``(point, velocity)`` of the chart's
    geodesic from ``(p0, v0)`` over ``[0, 1]``, as one flat list of floats,
    state after state: one generated loop on a chart with an exponent,
    :func:`_rk4` on any other.  The first state that is not finite or
    leaves the chart raises :class:`ChartDomainError` at its parameter."""
    p0 = np.asarray(p0, dtype=float)
    v0 = np.asarray(v0, dtype=float)
    d = chart.dim
    if p0.shape != (d,) or v0.shape != (d,):
        raise InputError(
            f"initial data of dimension {p0.shape}/{v0.shape} on a "
            f"{d}-dimensional chart"
        )
    if chart.exponent is not None:
        loop = warpfn.rk4_geodesic_loop(chart.exponent, d)
        flat, failed = loop((*p0.tolist(), *v0.tolist()), 1.0 / steps,
                            chart.exponent_args, steps)
        return _loop_states(flat, failed, steps, (chart,))

    def rhs(state):
        p, v = state[:d], state[d:]
        return np.concatenate((v, geodesic_rhs(chart, p, v)))

    return _rk4(_classical_step(rhs), np.concatenate((p0, v0)), steps,
                (chart,)).ravel().tolist()


def integrate_geodesic(chart: MetricChart, p0, v0,
                       cfg: IntegratorConfig = IntegratorConfig()) -> Curve:
    """Geodesic of the chart's metric from ``(p0, v0)``, over ``[0, 1]``."""
    return _curve(_geodesic_flat(chart, p0, v0, cfg.steps), chart.dim)


def _contract(G: np.ndarray, v: np.ndarray) -> np.ndarray:
    """``G(v, v)`` per row: ``(G @ v) @ v`` for ``G`` ``(N, d, d, d)`` and
    ``v`` ``(N, d)``."""
    return ((G @ v[:, None, :, None])[..., 0] @ v[:, :, None])[..., 0]


def _coupled_accelerations(g1: MetricChart, g2: MetricChart, w: WarpField,
                           x, u, y, v) -> tuple[np.ndarray, np.ndarray]:
    """Base and fiber accelerations the coupled system prescribes at rows
    of states ``(x, u, y, v)``, each ``(N, d)``, as array expressions.

    Contracts Christoffel symbols, never the spray, so the oracle and the
    residual stay independent of the geodesic integrator; ``dk`` is raised
    through the base metric.
    """
    k, dk = warpfn.value_and_gradient_many(w.expr, x)
    _, inverse1, G1 = geometry_at(g1, x)
    metric2, _, G2 = geometry_at(g2, y)
    acc1 = -_contract(G1, u) - 0.5 * _quadratic(v, metric2, v)[:, None] * (
        inverse1 @ dk[:, :, None])[..., 0]
    acc2 = -_contract(G2, v) - (np.einsum("ni,ni->n", dk, u) / k)[:, None] * v
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

    When both charts carry a conformal exponent the pass is one generated
    float loop, :func:`~warpgeo.warpfn.rk4_coupled_loop`, which reads the
    base exponent, the warp and the fiber exponent as given (never the
    pipeline's rescaled exponent).  No stage of the loop raises: a step
    whose stage leaves the domain of an exponent or of the warp, or
    overflows, makes a state that is not finite, which raises
    :class:`ChartDomainError` at that step's parameter.  Any other pair
    takes the classical step of the array kernel on one row.
    """
    (p1, p2), (v1, v2) = z0, V0
    p1 = np.asarray(p1, dtype=float)
    p2 = np.asarray(p2, dtype=float)
    v1 = np.asarray(v1, dtype=float)
    v2 = np.asarray(v2, dtype=float)
    d1, d2 = g1.dim, g2.dim
    if not p1.shape == v1.shape == (d1,) or not p2.shape == v2.shape == (d2,):
        raise InputError(f"initial data of dimension {p1.shape}/{v1.shape}, "
                         f"{p2.shape}/{v2.shape} on charts of dimension {d1}, {d2}")

    state0 = np.concatenate((p1, v1, p2, v2))
    if g1.exponent is not None and g2.exponent is not None:
        loop = warpfn.rk4_coupled_loop(
            g1.exponent, d1, w.expr, g2.exponent, d2, len(g1.exponent_args))
        flat, failed = loop(tuple(state0.tolist()), 1.0 / cfg.steps,
                            (*g1.exponent_args, *g2.exponent_args), cfg.steps)
        states = np.reshape(_loop_states(flat, failed, cfg.steps, (g1, g2)),
                            (cfg.steps + 1, -1))
    else:
        def rhs(state):
            x, u, y, v = np.split(state[None], (d1, 2 * d1, 2 * d1 + d2), axis=1)
            acc1, acc2 = _coupled_accelerations(g1, g2, w, x, u, y, v)
            return np.concatenate((u[0], acc1[0], v[0], acc2[0]))

        states = _rk4(_classical_step(rhs), state0, cfg.steps, (g1, g2))
    return _curve(states[:, :2 * d1], d1), _curve(states[:, 2 * d1:], d2)


def coupled_residual(g1: MetricChart, g2: MetricChart, w: WarpField,
                     base: Curve, fiber: Curve) -> tuple[float, float]:
    """Max-norm residuals of the coupled system along a stored pair.

    Accelerations are recovered from the stored velocities with
    fourth-order finite-difference stencils, so the measurement is
    independent of how the curves were produced; the system's are the
    array kernel's at every node at once.
    """
    if base.steps != fiber.steps:
        raise InputError("base and fiber curves must share one grid")
    acc1, acc2 = _coupled_accelerations(g1, g2, w, base.points, base.velocities,
                                        fiber.points, fiber.velocities)
    acc = derivative_on_grid(np.hstack((base.velocities, fiber.velocities)), base.h)
    return (float(np.max(np.abs(acc[:, :base.dim] - acc1))),
            float(np.max(np.abs(acc[:, base.dim:] - acc2))))


def geodesic_residual(chart: MetricChart, curve: Curve) -> float:
    """Max-norm residual of the plain geodesic equation along a curve."""
    acc = derivative_on_grid(curve.velocities, curve.h)
    G = geometry_at(chart, curve.points)[2]
    return float(np.max(np.abs(acc + _contract(G, curve.velocities))))


def speed_drift(chart: MetricChart, curve: Curve) -> float:
    """Largest deviation of ``g(v, v)`` along the curve from its start value."""
    speeds = _squared_speeds(chart, curve.points, curve.velocities)
    return float(np.max(np.abs(speeds - speeds[0])))


# ---------------------------------------------------------------------------
# serialization

@lru_cache(maxsize=64)
def _grid_text(steps: int) -> tuple[str, ...]:
    """The ``%.17g`` text of every node of :func:`_grid`, a CSV column."""
    return tuple(["%.17g" % x for x in _grid(steps).tolist()])


def _write_csv(path, header: str, table):
    """Write the rows of ``table`` under the line ``header``, each value as
    ``%.17g``, comma-separated: byte for byte what numpy's row-by-row text
    writer gives with that format and no comment prefix.

    ``table`` is a 2-D array of rows, or the list of its columns, where a
    column may also be given as the tuple of its values' text.  A column
    formats each distinct value once, keyed by its bits so that ``-0.0``
    and ``0.0`` stay apart, unless most of its values are distinct.  The
    file is built as one string by one ``%`` of a row format repeated once
    per row, and written at once, so its text is held in memory once."""
    if not isinstance(table, list):
        table = list(np.asarray(table, dtype=float).T)
    n = len(table[0])
    cells = np.empty((n, len(table)), dtype=object)
    formats = []
    for j, column in enumerate(table):
        if isinstance(column, tuple):
            formats.append("%s")
            cells[:, j] = column
            continue
        # A set, not numpy's sort, whose first call maps about 0.4 MB of
        # sort code into the process.
        bits = column.view(np.int64).tolist()
        distinct = set(bits)
        if 2 * len(distinct) > n:
            formats.append("%.17g")
            cells[:, j] = column
        else:
            distinct = list(distinct)
            values = np.array(distinct, dtype=np.int64).view(float).tolist()
            text = dict(zip(distinct, ["%.17g" % x for x in values]))
            formats.append("%s")
            cells[:, j] = list(map(text.__getitem__, bits))
    rows = (",".join(formats) + "\n") * n
    with open(path, "w") as f:
        f.write(header + "\n" + rows % tuple(cells.ravel().tolist()))


def curve_to_csv(curve: Curve, path):
    """Write a curve as CSV: parameter, coordinates, velocities.  A curve
    on the shared grid of its step count reads that grid's text from one
    memo (:func:`_grid_text`)."""
    d = curve.dim
    header = ",".join(
        ["t"] + [f"x{i + 1}" for i in range(d)] + [f"v{i + 1}" for i in range(d)]
    )
    t = curve.params
    if not t.flags.writeable and t is _grid(curve.steps):
        t = _grid_text(curve.steps)
    _write_csv(path, header, [t, *curve.points.T, *curve.velocities.T])


def curve_from_csv(path) -> Curve:
    """Read back a curve written by :func:`curve_to_csv`."""
    table = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    d = (table.shape[1] - 1) // 2
    return Curve(table[:, 0], table[:, 1:1 + d], table[:, 1 + d:])
