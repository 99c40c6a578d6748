"""Joining boundary points with mixed-signature geodesics.

The workhorse is the scalar dial ``beta(r)``: for each admissible ``r``,
shoot a rescaled-metric geodesic between the base endpoints, rebuild its
reparametrization constants, and read off the fiber distance the rebuilt
geodesic would traverse.  ``beta`` blows up at the admissibility threshold
and decays to zero for large ``r``, so matching it against the actual
fiber distance is a bracketed scalar root-find.

Shooting itself is a damped Newton iteration on the endpoint map with a
finite-difference Jacobian, warm-started as ``r`` sweeps the grid.  The
translation-invariant base case (the real line with a time-dependent warp,
as in homogeneous cosmological metrics) gets a dedicated solver that
replaces shooting with the explicit first integral of the base equation,
which separates and reduces to a monotone inversion.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import math

import numpy as np
from scipy.interpolate import PchipInterpolator
from scipy.optimize import brentq

from ._num import (
    GAUSS5_NODES as _GL_NODES, GAUSS5_WEIGHTS as _GL_WEIGHTS,
    composite_simpson, cumulative_simpson, solve_monotone,
)
from .errors import (
    BracketingError, InputError, NumericalError, ShootingError,
)
from .integrate import (
    Curve, IntegratorConfig, coupled_residual, integrate_geodesic,
)
from .manifold import (
    MetricChart, TangentVector, euclidean, metric_eval, weighted_line,
)
from .reparam import (
    MonotoneMap, RiemannianGeodesic, compute_a_and_phi, compute_b_and_psi,
    reparametrize, riemannize,
)
from .warp import WarpField, admissible_range, conformal_metric, values_along

__all__ = [
    "ShootingReport", "FlrwProblem", "shoot_boundary", "beta_of_r",
    "connect_points", "partial_connect", "flrw_connect", "flrw_beta",
    "theta_map", "theta_consistency", "beta_bounds",
]

R_MAX_DEFAULT = 1e6
R_GRID_SAMPLES = 64


# ---------------------------------------------------------------------------
# boundary shooting on a single chart


def _shoot(chart: MetricChart, x0, x1, cfg: IntegratorConfig,
           v_init=None, tol: float = 1e-10, max_iter: int = 60):
    """Damped Newton on the endpoint map.

    Returns ``(velocity, curve, iterations)``, with ``curve`` the geodesic
    already integrated from the converged velocity.
    """
    x0 = np.asarray(x0, dtype=float)
    x1 = np.asarray(x1, dtype=float)
    v = np.array(x1 - x0, dtype=float) if v_init is None else np.array(v_init, dtype=float)

    def shot(vel):
        curve = integrate_geodesic(chart, x0, vel, cfg)
        return curve, curve.endpoint() - x1

    curve, gap = shot(v)
    best = float(np.max(np.abs(gap)))
    for it in range(1, max_iter + 1):
        if best <= tol:
            return v, curve, it - 1
        h = 1e-6 * max(1.0, float(np.max(np.abs(v))))
        jac = np.empty((chart.dim, chart.dim))
        for j in range(chart.dim):
            dv = np.zeros(chart.dim)
            dv[j] = h
            jac[:, j] = (shot(v + dv)[1] - shot(v - dv)[1]) / (2.0 * h)
        try:
            step = np.linalg.solve(jac, -gap)
        except np.linalg.LinAlgError as exc:
            raise ShootingError(
                f"singular shooting Jacobian on {chart.name}: {exc}", best, it
            ) from exc
        lam = 1.0
        while True:
            trial = v + lam * step
            trial_curve, trial_gap = shot(trial)
            trial_res = float(np.max(np.abs(trial_gap)))
            if trial_res < best or lam < 1.0 / 64.0:
                break
            lam *= 0.5
        if trial_res >= best and best > tol:
            raise ShootingError(
                f"shooting stalled on {chart.name} at residual {best:.3e}", best, it
            )
        v, curve, gap, best = trial, trial_curve, trial_gap, trial_res
    if best <= tol:
        return v, curve, max_iter
    raise ShootingError(
        f"shooting failed to converge on {chart.name}; residual {best:.3e}",
        best, max_iter,
    )


def shoot_boundary(chart: MetricChart, x0, x1,
                   cfg: IntegratorConfig = IntegratorConfig(),
                   v_init=None, tol: float = 1e-10) -> TangentVector:
    """Initial velocity whose chart geodesic reaches ``x1`` at parameter 1."""
    v, _, _ = _shoot(chart, x0, x1, cfg, v_init=v_init, tol=tol)
    return TangentVector(np.asarray(x0, dtype=float), v)


# ---------------------------------------------------------------------------
# the beta dial


@dataclass
class BetaResult:
    """One evaluation of the dial: the fiber distance the rebuilt geodesic
    from this ``r`` would cover, plus everything produced on the way."""

    beta: float
    X_r: TangentVector
    a_r: float
    b_r: float
    mu: Curve
    gamma: Curve
    iterations: int = 0

    def __iter__(self):
        return iter((self.beta, self.X_r, self.a_r, self.b_r))


def _beta_from_mu(mu: Curve, w: WarpField, r: float, g1: MetricChart,
                  X: np.ndarray, iterations: int) -> BetaResult:
    phi = compute_a_and_phi(mu, w, r)
    gamma = reparametrize(mu, phi)
    b = compute_b_and_psi(gamma, w).constant
    a = phi.constant
    x0 = mu.points[0]
    k0x = w.value_at(x0)
    q = metric_eval(g1, x0, X, X)
    beta = (a / b) * math.sqrt((1.0 + r * k0x) / k0x * q)
    return BetaResult(beta, TangentVector(x0, X), a, b, mu, gamma, iterations)


def beta_of_r(g1: MetricChart, g2: MetricChart, w: WarpField, x0, x1,
              r: float, cfg: IntegratorConfig = IntegratorConfig(),
              v_init=None) -> BetaResult:
    """Evaluate the dial at one ``r`` by shooting between the base points.

    Unpacks as ``(beta, X_r, a_r, b_r)``; the result object also carries
    the shot curve and its reparametrized leg.
    """
    admissible_range(w).require(r)
    chart = conformal_metric(g1, w, r)
    X, mu, iters = _shoot(chart, x0, x1, cfg, v_init=v_init)
    return _beta_from_mu(mu, w, r, g1, X, iters)


class _NewtonBetaSolver:
    """Memoized beta evaluations with warm-started shooting across r."""

    def __init__(self, g1, g2, w, x0, x1, cfg):
        self.g1, self.g2, self.w = g1, g2, w
        self.x0, self.x1, self.cfg = x0, x1, cfg
        self.memo: dict[float, BetaResult] = {}
        self.last_velocity = None
        self.evaluations = 0

    def __call__(self, r: float) -> BetaResult:
        hit = self.memo.get(r)
        if hit is not None:
            return hit
        res = beta_of_r(self.g1, self.g2, self.w, self.x0, self.x1, r,
                        self.cfg, v_init=self.last_velocity)
        self.last_velocity = res.X_r.components
        self.memo[r] = res
        self.evaluations += 1
        return res


def _solve_r(beta_at, beta0: float, lower: float, r_max: float,
             samples: int) -> float:
    """Bracket ``beta(r) = beta0`` on a geometric r grid, then refine.

    The grid is geometric in the offset above the admissibility threshold,
    which resolves the blow-up end.  The walk starts a moderate distance
    above the threshold — where the rescaled metric is still well
    conditioned — and shrinks toward it only while the first sample still
    undershoots the target, so the stiff near-threshold regime is entered
    only when the target actually lives there.
    """
    start = lower + 0.25 * (1.0 + abs(lower))
    floor = lower + 1e-12 * (1.0 + abs(lower))
    r_lo = start
    f_lo = beta_at(r_lo).beta - beta0
    while f_lo <= 0.0:
        nxt = lower + (r_lo - lower) / 4.0
        if nxt <= floor:
            raise BracketingError(
                f"target fiber distance {beta0:.6g} not reached even at "
                f"r = {r_lo:.6g} next to the admissibility threshold"
            )
        r_lo = nxt
        f_lo = beta_at(r_lo).beta - beta0
    ratio = ((r_max - lower) / (r_lo - lower)) ** (1.0 / (samples - 1))
    r_hi = None
    prev = r_lo
    for i in range(1, samples):
        r = lower + (r_lo - lower) * ratio ** i
        f = beta_at(r).beta - beta0
        if f <= 0.0:
            r_hi = r
            break
        prev = r
    if r_hi is None:
        raise BracketingError(
            f"no sign change: beta stayed above {beta0:.6g} up to r = {r_max:.6g}"
        )
    return float(brentq(lambda r: beta_at(r).beta - beta0, prev, r_hi,
                        xtol=1e-12, maxiter=200))


@dataclass
class ShootingReport:
    """Outcome of a boundary-connection solve.

    ``r`` is ``None`` for the degenerate case of coinciding fiber
    endpoints, where the fiber leg is constant and the base leg is a plain
    base-metric geodesic.
    """

    r: Optional[float]
    X_r: TangentVector
    beta: float
    target_beta: float
    geodesic: RiemannianGeodesic
    endpoint_error: float
    iterations: int
    first_integral_residual: Optional[float] = None

    def to_dict(self) -> dict:
        doc = {
            "r": self.r,
            "initial_velocity": self.X_r.components.tolist(),
            "beta": self.beta,
            "target_beta": self.target_beta,
            "endpoint_error": self.endpoint_error,
            "iterations": self.iterations,
            "geodesic": self.geodesic.to_dict(),
        }
        if self.first_integral_residual is not None:
            doc["first_integral_residual"] = self.first_integral_residual
        return doc


def _assemble_report(solver_result: BetaResult, r: float, nu: Curve,
                     beta0: float, w, g1, g2, iterations: int, x1, y1,
                     first_integral_residual=None) -> ShootingReport:
    """Rebuild the solved pair; ``x1``/``y1`` are the requested end points
    that ``endpoint_error`` measures the rebuilt legs against."""
    geo = riemannize(solver_result.mu, nu, w, r, g1, g2, compat_tol=1e-6,
                     residual_tol=None)
    endpoint_error = max(
        float(np.max(np.abs(geo.gamma.points[-1] - x1))),
        float(np.max(np.abs(geo.tau.points[-1] - y1))),
    )
    return ShootingReport(
        r=r, X_r=solver_result.X_r, beta=solver_result.beta,
        target_beta=beta0, geodesic=geo, endpoint_error=endpoint_error,
        iterations=iterations, first_integral_residual=first_integral_residual,
    )


def _trivial_connection(g1, g2, w, x0, x1, y0, cfg) -> ShootingReport:
    """Coinciding fiber endpoints: constant fiber leg, base-metric geodesic."""
    X, mu, iters = _shoot(g1, x0, x1, cfg)
    t = mu.params.copy()
    y0 = np.asarray(y0, dtype=float)
    nu = Curve(t, np.tile(y0, (t.shape[0], 1)), np.zeros((t.shape[0], y0.shape[0])))
    residuals = coupled_residual(g1, g2, w, mu, nu)
    ident = np.linspace(0.0, 1.0, t.shape[0])
    identity = MonotoneMap(ident, ident.copy(), 1.0, np.ones_like(ident))
    geo = RiemannianGeodesic(
        r=math.nan, base=(mu, nu), gamma=mu, tau=nu, a_r=math.nan,
        b_r=math.nan,
        initial_tangents=(TangentVector(mu.points[0], mu.velocities[0]),
                          TangentVector(y0, np.zeros_like(y0))),
        residuals=residuals, phi=identity, psi=identity,
    )
    endpoint_error = float(np.max(np.abs(mu.points[-1] - np.asarray(x1, dtype=float))))
    return ShootingReport(
        r=None, X_r=TangentVector(mu.points[0], X), beta=0.0, target_beta=0.0,
        geodesic=geo, endpoint_error=endpoint_error, iterations=iters,
    )


def connect_points(g1: MetricChart, g2: MetricChart, w: WarpField, z0, z1,
                   cfg: IntegratorConfig = IntegratorConfig(), *,
                   r_max: float = R_MAX_DEFAULT,
                   samples: int = R_GRID_SAMPLES) -> ShootingReport:
    """Join two points of the product by a rebuilt mixed-signature geodesic.

    ``z0 = (x0, y0)`` and ``z1 = (x1, y1)``.  The fiber endpoints fix the
    target distance (via a fiber shoot); the rescaling parameter is then
    solved from ``beta(r) = target``, and the matched pair of factor
    geodesics is reparametrized into the final geodesic.
    """
    (x0, y0), (x1, y1) = z0, z1
    x0 = np.asarray(x0, dtype=float)
    x1 = np.asarray(x1, dtype=float)
    y0 = np.asarray(y0, dtype=float)
    y1 = np.asarray(y1, dtype=float)
    if np.allclose(y0, y1, atol=1e-12):
        return _trivial_connection(g1, g2, w, x0, x1, y0, cfg)
    if np.allclose(x0, x1, atol=1e-12):
        raise BracketingError(
            "coinciding base endpoints admit no rebuilt geodesic with a "
            "moving fiber leg: the dial is identically zero"
        )
    V2, nu, _ = _shoot(g2, y0, y1, cfg)
    beta0 = math.sqrt(metric_eval(g2, y0, V2, V2))
    solver = _NewtonBetaSolver(g1, g2, w, x0, x1, cfg)
    r0 = _solve_r(solver, beta0, admissible_range(w).lower, r_max, samples)
    res = solver(r0)
    return _assemble_report(res, r0, nu, beta0, w, g1, g2, solver.evaluations,
                            x1, y1)


# ---------------------------------------------------------------------------
# partial connection and the fiber-reaching map


def _restricted(curve: Curve, alpha: float) -> Curve:
    """The curve on ``[0, alpha]`` rescaled back onto the unit interval."""
    if not 0.0 <= alpha <= 1.0:
        raise InputError(
            f"restriction parameter must lie in the stored interval [0, 1], "
            f"got {alpha}"
        )
    if alpha == 1.0:
        return curve
    s = alpha * curve.params
    points = np.atleast_2d(curve.point_at(s))
    velocities = alpha * np.atleast_2d(curve.velocity_at(s))
    points[0] = curve.points[0]
    return Curve(curve.params.copy(), points, velocities, span=curve.span * alpha)


def partial_connect(mu_nu: tuple[Curve, Curve], alpha: float, w: WarpField,
                    r: float) -> tuple[float, float]:
    """Fiber distances reachable over ``[0, alpha]`` of a unit-speed pair.

    For a rescaled-pair geodesic whose base leg has unit base-metric speed,
    the two rebuilt geodesics over the restriction reach fiber distance

        beta = +/- (a_alpha / b_alpha) sqrt((1 + r k(x0)) / k(x0)) |alpha|

    where the constants are recomputed along the restricted leg.  Returns
    ``(beta_plus, beta_minus)``.
    """
    admissible_range(w).require(r)
    mu, _ = mu_nu
    restricted = _restricted(mu, alpha)
    if alpha == 0.0:
        return 0.0, 0.0
    phi = compute_a_and_phi(restricted, w, r)
    gamma = reparametrize(restricted, phi)
    b = compute_b_and_psi(gamma, w).constant
    k0x = w.value_at(mu.points[0])
    beta = (phi.constant / b) * math.sqrt((1.0 + r * k0x) / k0x) * abs(alpha)
    return beta, -beta


def _self_intersection_check(curve: Curve, samples: int = 192):
    """Reject traces that revisit themselves (coarse pairwise scan)."""
    idx = np.linspace(0, curve.steps, samples, dtype=int)
    pts = curve.points[idx]
    t = curve.params[idx]
    d2 = np.sum((pts[:, None, :] - pts[None, :, :]) ** 2, axis=-1)
    dt = np.abs(t[:, None] - t[None, :])
    scale = max(float(np.max(d2)), 1e-30)
    close = (d2 < 1e-10 * scale) & (dt > 0.05)
    if np.any(close):
        i, j = np.argwhere(close)[0]
        raise InputError(
            f"base trace self-intersects near parameters {t[i]:.4g} and {t[j]:.4g}"
        )


def theta_map(mu: Curve, nu: Curve, w: WarpField, r: float, t: float) -> np.ndarray:
    """Fiber point reached above base parameter ``t`` along a rebuilt pair.

    Uses the linear dial ``beta(t) = (a_t/b_t) (1+r k(x0))/k(x0) * t`` with
    the constants recomputed over the restriction to ``[0, t]``; see
    :func:`theta_consistency` for the companion value implied by the
    compatibility identity, which differs by a square root whenever
    ``(1 + r k(x0))/k(x0) != 1``.
    """
    report = theta_consistency(mu, nu, w, r, t)
    return report["point_displayed"]


def theta_consistency(mu: Curve, nu: Curve, w: WarpField, r: float,
                      t: float) -> dict:
    """Both readings of the fiber-reaching dial at one base parameter.

    ``beta_displayed`` is the linear form; ``beta_compat`` carries the
    square root that makes the restriction consistent with the initial
    tangent coupling (it matches :func:`partial_connect`).  The relative
    gap between them is reported so callers can flag the discrepancy.
    """
    admissible_range(w).require(r)
    _self_intersection_check(mu)
    restricted = _restricted(mu, t)
    k0x = w.value_at(mu.points[0])
    stretch = (1.0 + r * k0x) / k0x
    if t == 0.0:
        beta_disp = beta_compat = 0.0
    else:
        phi = compute_a_and_phi(restricted, w, r)
        gamma = reparametrize(restricted, phi)
        b = compute_b_and_psi(gamma, w).constant
        beta_disp = (phi.constant / b) * stretch * t
        beta_compat = (phi.constant / b) * math.sqrt(stretch) * t
    gap = abs(beta_disp - beta_compat) / max(abs(beta_disp), abs(beta_compat), 1e-300)
    if beta_disp > nu.params[-1] + 1e-12 or beta_compat > nu.params[-1] + 1e-12:
        raise InputError(
            f"fiber leg covers [0, {nu.params[-1]:g}] but the dial asks for "
            f"{max(beta_disp, beta_compat):.6g}; extend the fiber curve"
        )
    return {
        "beta_displayed": beta_disp,
        "beta_compat": beta_compat,
        "relative_gap": gap,
        "point_displayed": np.asarray(nu.point_at(beta_disp), dtype=float),
        "point_compat": np.asarray(nu.point_at(beta_compat), dtype=float),
    }


# ---------------------------------------------------------------------------
# translation-invariant base: first-integral solver


@dataclass(frozen=True)
class FlrwProblem:
    """Boundary data on a line-based warped product.

    ``weight`` optionally rescales the line metric to ``f(t) dt^2``; the
    default is the flat line.
    """

    w: WarpField
    t0: float
    t1: float
    y0: np.ndarray
    y1: np.ndarray
    weight: Optional[str] = None

    def solve(self, g2: MetricChart,
              cfg: IntegratorConfig = IntegratorConfig()) -> "ShootingReport":
        return flrw_connect(self.w, self.t0, self.t1, self.y0, self.y1, g2,
                            cfg, weight=self.weight)


def _flrw_speed_field(w: WarpField, r: float, weight_chart):
    """The first-integral speed profile ``sqrt(k / ((1 + r k) f))``."""

    def speed(x):
        p = np.array([x])
        k = w.value_at(p)
        f = float(weight_chart.metric_at(p)[0, 0]) if weight_chart is not None else 1.0
        return math.sqrt(k / ((1.0 + r * k) * f))

    return speed


def _flrw_mu(w: WarpField, t0: float, t1: float, r: float,
             cfg: IntegratorConfig, weight_chart=None) -> tuple[Curve, float]:
    """Solve the base leg from its first integral by separation.

    ``mu' = c * speed(mu)`` separates: with ``A(x)`` the running integral
    of ``1/speed`` from ``t0``, the solution is ``mu(s) = A^{-1}(c s)``
    and the endpoint condition pins ``c = A(t1)``.  Everything reduces to
    one cumulative quadrature on a uniform coordinate grid plus a monotone
    inversion (bisection initialization, Newton polish against locally
    re-integrated panels of the analytic integrand); no iteration on the
    trajectory is needed.
    """
    if t1 == t0:
        raise InputError("base endpoints coincide; the first integral degenerates")
    span = t1 - t0
    n = cfg.steps
    h = 1.0 / n
    grid = np.linspace(0.0, 1.0, n + 1)

    def slowness(xi_arr):
        xs = np.asarray(t0 + span * xi_arr, dtype=float)
        k = values_along(w, xs.reshape(-1, 1))
        if weight_chart is not None:
            f = np.array([float(weight_chart.metric_at(np.array([x]))[0, 0])
                          for x in xs.ravel()])
        else:
            f = 1.0
        return np.sqrt((1.0 + r * k) * f / k).reshape(np.shape(xi_arr))

    table = slowness(grid)
    accum = cumulative_simpson(table, h)
    targets = accum[-1] * grid
    interp = PchipInterpolator(grid, accum)
    xi = solve_monotone(interp, targets, 0.0, 1.0)
    for _ in range(2):
        idx = np.clip(np.searchsorted(grid, xi[1:-1], side="right") - 1,
                      0, n - 1)
        left = grid[idx]
        halfw = 0.5 * (xi[1:-1] - left)
        nodes = (0.5 * (xi[1:-1] + left))[:, None] + halfw[:, None] * _GL_NODES
        defect = accum[idx] + halfw * (slowness(nodes) @ _GL_WEIGHTS) - targets[1:-1]
        step = -defect / slowness(xi[1:-1])
        # Cap each move at just under half the gap to either neighbour so a
        # sharply-peaked slowness near the admissibility threshold cannot
        # push the polished nodes out of order.
        gaps = np.diff(xi)
        xi[1:-1] += np.clip(step, -0.45 * gaps[:-1], 0.45 * gaps[1:])
    xi[0], xi[-1] = 0.0, 1.0
    if np.any(np.diff(xi) <= 0.0):
        raise NumericalError("first-integral base leg lost monotonicity")
    c = span * accum[-1]
    velocities = c / slowness(xi)
    mu = t0 + span * xi
    return Curve(grid, mu[:, None], velocities[:, None]), c


def flrw_beta(w: WarpField, t0: float, t1: float, r: float,
              cfg: IntegratorConfig = IntegratorConfig(),
              weight: Optional[str] = None) -> BetaResult:
    """Dial evaluation on the line base via the first integral (no shooting)."""
    admissible_range(w).require(r)
    weight_chart = weighted_line(weight) if weight is not None else None
    g1 = weight_chart if weight_chart is not None else euclidean(1)
    mu, c = _flrw_mu(w, t0, t1, r, cfg, weight_chart)
    X = mu.velocities[0]
    return _beta_from_mu(mu, w, r, g1, X, 0)


class _FlrwBetaSolver:
    def __init__(self, w, t0, t1, cfg, weight):
        self.w, self.t0, self.t1 = w, t0, t1
        self.cfg, self.weight = cfg, weight
        self.memo: dict[float, BetaResult] = {}
        self.evaluations = 0

    def __call__(self, r: float) -> BetaResult:
        hit = self.memo.get(r)
        if hit is not None:
            return hit
        res = flrw_beta(self.w, self.t0, self.t1, r, self.cfg, self.weight)
        self.memo[r] = res
        self.evaluations += 1
        return res


def flrw_connect(w: WarpField, t0: float, t1: float, y0, y1,
                 g2: MetricChart, cfg: IntegratorConfig = IntegratorConfig(),
                 *, weight: Optional[str] = None,
                 r_max: float = R_MAX_DEFAULT,
                 samples: int = R_GRID_SAMPLES) -> ShootingReport:
    """Boundary connection on a line base, using the first integral.

    Same contract as :func:`connect_points` for a one-dimensional base
    chart (optionally weighted), but each dial evaluation integrates the
    explicit first-order base equation instead of shooting.  The report
    carries the residual of the first integral measured along an
    independently integrated rescaled-metric geodesic.
    """
    y0 = np.asarray(y0, dtype=float)
    y1 = np.asarray(y1, dtype=float)
    base_chart = weighted_line(weight) if weight is not None else euclidean(1)
    if np.allclose(y0, y1, atol=1e-12):
        return _trivial_connection(base_chart, g2, w, np.array([t0]),
                                   np.array([t1]), y0, cfg)
    if t0 == t1:
        raise BracketingError(
            "coinciding base endpoints admit no rebuilt geodesic with a "
            "moving fiber leg: the dial is identically zero"
        )
    V2, nu, _ = _shoot(g2, y0, y1, cfg)
    beta0 = math.sqrt(metric_eval(g2, y0, V2, V2))
    solver = _FlrwBetaSolver(w, t0, t1, cfg, weight)
    r0 = _solve_r(solver, beta0, admissible_range(w).lower, r_max, samples)
    res = solver(r0)

    # re-integrate the base leg as a plain rescaled-metric geodesic and
    # measure how well it honors the first integral
    chart = conformal_metric(base_chart, w, r0)
    mu_geo = integrate_geodesic(chart, np.array([t0]), res.X_r.components, cfg)
    speed = _flrw_speed_field(w, r0, weight_chart=(
        base_chart if weight is not None else None))
    c = res.X_r.components[0] / speed(t0)
    fi_residual = float(max(
        abs(mu_geo.velocities[i, 0] - c * speed(mu_geo.points[i, 0]))
        for i in range(mu_geo.steps + 1)
    ))
    res_geo = _beta_from_mu(mu_geo, w, r0, base_chart, res.X_r.components, 0)
    return _assemble_report(res_geo, r0, nu, beta0, w, base_chart, g2,
                            solver.evaluations, np.array([t1]), y1,
                            first_integral_residual=fi_residual)


# ---------------------------------------------------------------------------
# length-based bounds on the dial


def beta_bounds(g1: MetricChart, g2: MetricChart, w: WarpField, x0, x1,
                r: float, cfg: IntegratorConfig = IntegratorConfig()) -> dict:
    """Sandwich the squared dial between quadrature bounds.

    With ``X`` the initial velocity of the base-metric geodesic joining the
    endpoints and ``gamma`` that geodesic,

        |X|^2 a_r / b_r^2  <=  beta(r)^2  <=  |X|^2 (a_r^2/b_r^2) I(gamma)

    where ``I(gamma)`` integrates ``(1+r k)/k`` along ``gamma``.  Returns
    the three numbers and the bound checks.
    """
    admissible_range(w).require(r)
    x0 = np.asarray(x0, dtype=float)
    X, gamma, _ = _shoot(g1, x0, x1, cfg)
    q = metric_eval(g1, x0, X, X)
    res = beta_of_r(g1, g2, w, x0, x1, r, cfg)
    a, b = res.a_r, res.b_r
    h = 1.0 / gamma.steps
    k = np.array([w.value_at(p) for p in gamma.points])
    upper_integral = composite_simpson((1.0 + r * k) / k, h)
    lower = q * a / (b * b)
    upper = q * (a * a) / (b * b) * upper_integral
    beta2 = res.beta ** 2
    tol = 1e-9 * max(1.0, beta2)
    return {
        "beta_squared": beta2,
        "lower": lower,
        "upper": upper,
        "lower_ok": lower <= beta2 + tol,
        "upper_ok": beta2 <= upper + tol,
    }
