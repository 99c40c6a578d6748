"""Joining boundary points with mixed-signature geodesics.

The workhorse is the scalar dial ``beta(r)``: for each admissible ``r``,
shoot a rescaled-metric geodesic between the base endpoints, take the two
reparametrization constants as quadratures along it, and read off the
fiber distance the rebuilt geodesic would traverse.  No dial evaluation
builds a map: the maps are built once, when the solved pair is rebuilt at
the root.  ``beta`` blows up at the admissibility threshold and decays to
zero for large ``r``, nearly as a power of ``r`` minus the threshold, so
matching it against the actual fiber distance is a scalar root-find: a
secant walk on that power law in log-log coordinates, then an
Anderson-Bjorck secant in the same coordinates on the bracket it finds.
The solve stops once the dial matches its target within the resolution
the evaluation reports: the shooting tolerance, when it shoots, since the
shooting dial is noisy at about a tenth of that, and on the line base the
rounding bound of its sums, about ``(steps + 3) eps``.  Evaluations past
it would only chase the noise.  Every built-in dial reports one; the stop
once the bracket is no wider than ``1e-12 + 4 eps |r|`` stays, as the
guard for a dial whose noise exceeds what it reports.

Far from the root only the sign and rough size of ``f = log(beta /
beta0)`` steer the next step, so the solve asks each new evaluation for a
shooting tolerance that fits how far the last one was from the root (an
inexact Newton method in the sense of Dembo, Eisenstat & Steihaug, *SIAM
J. Numer. Anal.* 19, 1982): ``LOOSE_TOL`` for the first, then
``min(LOOSE_TOL, LOOSE_SCALE f^2)`` for the last ``f`` while ``|f|`` is at
least ``NEAR_ROOT``, and ``SHOOT_TOL`` for every one after ``|f|`` first
falls below it, since a noisy ``f`` would spoil the secant's last steps.
A loose evaluation is never the answer: one that lands within twice its
tolerance of the target is shot again to ``SHOOT_TOL`` at the same ``r``,
warm-started from itself, and every stop returns a ``SHOOT_TOL``
evaluation.

Shooting itself is a damped quasi-Newton iteration on the endpoint map
with Broyden updates, its velocity and Jacobian warm-started across ``r``;
forward differences from the gap already in hand build the Jacobian only
to start cold or to refresh a stale one (``d`` shots; Dennis & Schnabel,
*Numerical Methods for Unconstrained Optimization*, section 5.4).  Each
trial shot reads only the end state from the geodesic's flat list of
states; the array of states and the curve are built once, from the
converged shot.  The translation-invariant base case (the real
line with a time-dependent warp, as in homogeneous cosmological metrics)
evaluates the dial from the explicit first integral of the base equation
instead: with the slowness ``S`` of that integral, the leg's speed and
both constants are quadratures over a uniform grid on the base interval,
so no evaluation shoots.  Only ``1 + r k`` on that grid depends on ``r``:
a solve evaluates the warp and the weight there once, and each evaluation
is a few array operations and three dot products with the rule's total
weights.  Nor is the base leg at the root integrated: it is the inverse of
the running integral of ``S`` on the same grid, read from that table.
Every dial is one function of this module's making, ``dial(r, warm,
tol)``, with ``warm`` the previous evaluation (``None`` to start cold): the
shooting dial reads its velocity and Jacobian, and the line dial builds its
batch at its first evaluation and reads neither ``warm`` nor ``tol``.  The
solve and the command line's ``beta-scan`` call the dials alike.
Both connections run one driver, which differs between them only in the
dial and in how it gets the base leg at the root (the converged shot, or
the first integral's inverse): it makes the trivial connection of
coinciding fiber points (within 1e-12 absolute), solves for ``r`` with
one root-find and rebuilds the pair there, and raises
:class:`~warpgeo.errors.ShootingError` when either rebuilt leg ends farther
than the integrator tolerance from its requested point.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import math

import numpy as np

from . import warpfn
from ._num import (
    BRENT_RTOL, BRENT_XTOL, EPS, SQRT_EPS, cumulative_simpson,
    invert_running_integral, total_weights,
)
from .errors import (
    BracketingError, ChartDomainError, InputError, NumericalError,
    ParameterError, ShootingError,
)
from .integrate import (
    Curve, IntegratorConfig, _curve, _geodesic_flat, _grid, coupled_residual,
    integrate_geodesic,
)
from .manifold import (
    MetricChart, TangentVector, euclidean, metric_eval, weighted_line,
)
from .reparam import RiemannianGeodesic, _leg_constants, _warp_along, riemannize
from .warp import (
    WarpField, _require_rescalable, admissible_range, conformal_metric,
    values_along,
)

__all__ = [
    "ShootingReport", "shoot_boundary", "beta_of_r", "connect_points",
    "partial_connect", "flrw_connect", "flrw_beta", "theta_consistency",
    "beta_bounds",
]

# No function here integrates a geodesic through ``integrate_geodesic``,
# but the name stays bound in this module: the benchmark's per-layer tracer
# (``perfbench/layers.py``) wraps every cross-module binding, and its
# smoke test checks that this one is put back.
_BOUND_FOR_TRACING = (integrate_geodesic,)

R_MAX_DEFAULT = 1e6
R_WALK_SAMPLES = 64
SHOOT_TOL = 1e-10
# The shooting tolerance of a dial evaluation far from the root: LOOSE_TOL
# for a solve's first, then min(LOOSE_TOL, LOOSE_SCALE f^2) for the last
# f = log(beta / beta0) until |f| first falls below NEAR_ROOT.
LOOSE_TOL = 1e-4
LOOSE_SCALE = 1e-3
NEAR_ROOT = 1e-3


# ---------------------------------------------------------------------------
# boundary shooting on a single chart


def _fd_jacobian(shot, v: np.ndarray, gap: np.ndarray) -> np.ndarray:
    """Forward-difference Jacobian of the endpoint gap, ``gap`` at ``v``:
    ``d`` shots, each with step ``sqrt(eps) max(1, |v|_inf)``."""
    d = v.shape[0]
    h = SQRT_EPS * max(1.0, float(np.max(np.abs(v))))
    jac = np.empty((d, d))
    for j in range(d):
        dv = np.zeros(d)
        dv[j] = h
        jac[:, j] = (shot(v + dv)[1] - gap) / h
    return jac


def _line_search(shot, v, step, best):
    """Halve the step until the gap shrinks below ``best``, down to ``1/128``.

    A trial that leaves the chart counts as no decrease.  Returns the
    accepted ``(velocity, states, gap, residual)``, or ``None``.
    """
    for halvings in range(8):
        trial = v + 0.5 ** halvings * step
        try:
            states, gap = shot(trial)
        except ChartDomainError:
            continue
        res = float(np.max(np.abs(gap)))
        if res < best:
            return trial, states, gap, res
    return None


def _shoot(chart: MetricChart, x0, x1, cfg: IntegratorConfig,
           v_init=None, jac_init=None, tol: float = SHOOT_TOL,
           max_iter: int = 60):
    """Damped quasi-Newton on the endpoint map, with Broyden updates.

    The shoot ends once every coordinate of the end point is within ``tol``
    of ``x1``.  The Jacobian starts from ``jac_init`` (a neighbouring
    solve's, say) or, without one, from forward differences at the current
    velocity, and takes a rank-one secant update after every accepted step.
    A step that a reused or updated Jacobian cannot make (a singular matrix,
    or no decrease at any length down to ``1/128`` of the step) is retried
    from a fresh finite-difference Jacobian; only a failure with that one
    raises :class:`ShootingError`.

    Each shot reads only the end state from the flat list of states of
    :func:`~warpgeo.integrate._geodesic_flat`.  Returns ``(velocity,
    jacobian, curve, iterations)``, with ``curve`` the geodesic of the
    converged shot, the one array of states and the one curve the shoot
    builds, and ``jacobian`` the last one used (``None`` if no step was
    needed).
    """
    x0 = np.asarray(x0, dtype=float)
    x1 = np.asarray(x1, dtype=float)
    v = np.array(x1 - x0, dtype=float) if v_init is None else np.array(v_init, dtype=float)
    jac = None if jac_init is None else np.array(jac_init, dtype=float)
    d = chart.dim

    def shot(vel):
        flat = _geodesic_flat(chart, x0, vel, cfg.steps)
        return flat, np.array(flat[-2 * d:-d]) - x1

    flat, gap = shot(v)
    best = float(np.max(np.abs(gap)))
    for it in range(1, max_iter + 1):
        if best <= tol:
            return v, jac, _curve(flat, d), it - 1
        while True:
            fresh = jac is None
            if fresh:
                jac = _fd_jacobian(shot, v, gap)
            try:
                step = np.linalg.solve(jac, -gap)
            except np.linalg.LinAlgError as exc:
                if fresh:
                    raise ShootingError(
                        f"singular shooting Jacobian on {chart.name}: {exc}", best, it
                    ) from exc
                jac = None
                continue
            accepted = _line_search(shot, v, step, best)
            if accepted is not None:
                break
            if fresh:
                raise ShootingError(
                    f"shooting stalled on {chart.name} at residual {best:.3e}", best, it
                )
            jac = None
        trial, flat, trial_gap, trial_res = accepted
        s = trial - v
        jac = jac + np.outer(trial_gap - gap - jac @ s, s) / float(s @ s)
        v, gap, best = trial, trial_gap, trial_res
    if best <= tol:
        return v, jac, _curve(flat, d), max_iter
    raise ShootingError(
        f"shooting failed to converge on {chart.name}; residual {best:.3e}",
        best, max_iter,
    )


def shoot_boundary(chart: MetricChart, x0, x1,
                   cfg: IntegratorConfig = IntegratorConfig(),
                   v_init=None, tol: float = SHOOT_TOL) -> TangentVector:
    """Initial velocity whose chart geodesic reaches ``x1`` at parameter 1."""
    v, _, _, _ = _shoot(chart, x0, x1, cfg, v_init=v_init, tol=tol)
    return TangentVector(np.asarray(x0, dtype=float), v)


# ---------------------------------------------------------------------------
# the beta dial


@dataclass
class BetaResult:
    """One evaluation of the dial: the fiber distance the rebuilt geodesic
    from this ``r`` would cover, its initial base velocity and the two
    reparametrization constants.

    ``mu`` is the shot leg (``None`` on the line base, which shoots
    nothing) and ``jacobian`` the shooting Jacobian at ``X_r`` (``None``
    when no shooting step was taken), for warm-starting a neighbouring
    ``r``.  ``resolution`` is the relative error in ``beta`` below which
    the evaluation cannot resolve it: the tolerance the leg was shot to, or
    on the line base the bound on the rounding of its sums
    (:func:`flrw_beta`).  A solve for ``r`` stops once ``beta`` matches its
    target that closely.  ``None`` says the dial reports no resolution;
    no built-in dial does that.
    """

    beta: float
    X_r: TangentVector
    a_r: float
    b_r: float
    mu: Optional[Curve]
    iterations: int = 0
    jacobian: Optional[np.ndarray] = None
    resolution: Optional[float] = None


def _beta_from_mu(mu: Curve, w: WarpField, r: float, g1: MetricChart,
                  X: np.ndarray, iterations: int, jacobian=None,
                  resolution=None) -> BetaResult:
    a, b = _leg_constants(mu, w, r)
    x0 = mu.points[0]
    k0x = w.value_at(x0)
    q = metric_eval(g1, x0, X, X)
    beta = (a / b) * math.sqrt((1.0 + r * k0x) / k0x * q)
    return BetaResult(beta, TangentVector(x0, X), a, b, mu, iterations, jacobian,
                      resolution)


def beta_of_r(g1: MetricChart, g2: MetricChart, w: WarpField, x0, x1,
              r: float, cfg: IntegratorConfig = IntegratorConfig(),
              v_init=None, jac_init=None, *, _tol: float = SHOOT_TOL) -> BetaResult:
    """Evaluate the dial at one ``r`` by shooting between the base points.

    The result carries ``beta``, ``X_r``, the constants ``a_r``, ``b_r``,
    the shot leg and the shooting Jacobian, but no map.  Its resolution is
    the shooting tolerance, ``SHOOT_TOL``, about ten times the dial's noise.
    ``v_init``/``jac_init`` warm-start the shooting, typically from the
    result at a neighbouring ``r``.  (``_tol`` is the private path by which
    a solve for ``r`` shoots an evaluation far from its root more loosely;
    the resolution then reports it.)
    """
    chart = conformal_metric(g1, w, r)
    X, jac, mu, iters = _shoot(chart, x0, x1, cfg, v_init=v_init,
                               jac_init=jac_init, tol=_tol)
    return _beta_from_mu(mu, w, r, g1, X, iters, jac, _tol)


def _shooting_dial(g1: MetricChart, g2: MetricChart, w: WarpField, x0, x1,
                   cfg: IntegratorConfig):
    """The dial of :func:`connect_points`: ``dial(r, warm, tol)`` is
    :func:`beta_of_r` shot to ``tol``, warm-started from the velocity and
    shooting Jacobian of ``warm``, the previous evaluation (``None`` to
    start cold)."""
    def dial(r: float, warm: Optional[BetaResult], tol: float) -> BetaResult:
        warm_start = () if warm is None else (warm.X_r.components, warm.jacobian)
        return beta_of_r(g1, g2, w, x0, x1, r, cfg, *warm_start, _tol=tol)
    return dial


def _solve_r(evaluate, beta0: float, lower: float, r_max: float,
             samples: int) -> tuple[float, BetaResult, int]:
    """Solve ``beta(r) = beta0`` by a walk on a model of the dial, then a
    secant on the bracket it finds.

    ``evaluate(r, warm, tol)`` is one dial evaluation (:func:`_shooting_dial`,
    :func:`_line_dial`), shot to ``tol`` where it shoots and warm-started
    from ``warm``, the previous evaluation (``None`` for the first); each
    distinct ``r`` is evaluated once, to the tolerance of the schedule in
    the module docstring.
    A loose evaluation (one whose resolution is wider than ``SHOOT_TOL``)
    with ``|f|`` within twice its resolution is evaluated again at the
    same ``r``, to ``SHOOT_TOL`` and warm-started from itself, before
    the stop test.  Returns the root, its dial evaluation and the number of
    distinct ``r`` evaluated; a stop on a loose evaluation shoots it again
    in the same way, so the evaluation returned is never a loose one.

    The model: against ``u = log(r - lower)``, ``f = log(beta / beta0)`` is
    nearly a line of slope about ``-1/2``.  The walk starts a moderate
    distance above the threshold, where the rescaled metric is still well
    conditioned, and steps to the zero of that line: on slope ``-1/2``
    first, then on the secant of its last two points, kept negative and no
    steeper than ``-4``, each step at most a factor of 16 in ``r - lower``
    and within ``[lower + 1e-12 (1 + |lower|), r_max]``.  A sign change ends
    the walk, and the Anderson-Bjorck secant (*BIT* 13, 1973) on ``(u, f)``
    refines that bracket: each point lies at least ``tol / 2`` inside it,
    ``tol = BRENT_XTOL + BRENT_RTOL |r|``, and after three points in a row
    that do not halve ``|f|`` the next one bisects the bracket in ``u``.

    The solve ends at the first ``r`` whose ``|f|`` is within the relative
    resolution its evaluation reports (:attr:`BetaResult.resolution`): the
    shooting tolerance, or the line dial's rounding bound.  It also ends at
    the walk's last ``r`` when the walk's next step would be shorter than
    ``tol / 2``, and at the end of the bracket with the smaller ``|f|``
    once the bracket is no wider than ``tol``.  Every built-in dial reports
    a resolution, so these two stops are the guard for a dial whose noise
    exceeds what it reports, and the only stops on a dial that reports
    none.  A walk that meets either end of its
    range, or makes ``samples`` evaluations, without a sign change raises
    :class:`BracketingError`.  Every ``r`` handed to ``evaluate`` is a
    Python float, and a dial value that is not a number, in the walk or in
    the refinement, raises :class:`NumericalError`.
    """
    if not r_max > lower:
        raise ParameterError(r_max, lower, "r_max")
    beta0, lower, r_max = float(beta0), float(lower), float(r_max)
    memo: dict[float, BetaResult] = {}
    last = None  # the newest evaluation, which warm-starts the next
    tol_next = LOOSE_TOL  # the shooting tolerance of the next new r

    def shoot(r: float, warm: Optional[BetaResult], tol: float) -> BetaResult:
        nonlocal last
        last = memo[r] = evaluate(r, warm, tol)
        return last

    def tight(r: float) -> BetaResult:
        """The evaluation at ``r``, shot again if it is a loose one."""
        hit = memo[r]
        if (hit.resolution or 0.0) > SHOOT_TOL:
            hit = shoot(r, hit, SHOOT_TOL)
        return hit

    def log_ratio(r: float) -> float:
        beta = float(memo[r].beta)
        if math.isnan(beta):
            raise NumericalError(
                f"the dial beta(r) is NaN at r = {r!r}, so the solve cannot "
                f"compare it with its target")
        return math.log(beta / beta0)

    def gap(r: float) -> float:
        nonlocal tol_next
        if r not in memo:
            hit = shoot(r, last, tol_next)
            if abs(log_ratio(r)) <= 2.0 * (hit.resolution or 0.0):
                tight(r)
            f = log_ratio(r)
            if tol_next > SHOOT_TOL:
                tol_next = (SHOOT_TOL if abs(f) < NEAR_ROOT
                            else min(LOOSE_TOL, LOOSE_SCALE * f * f))
        return log_ratio(r)

    def resolved(r: float, f: float) -> bool:
        return abs(f) <= (memo[r].resolution or 0.0)

    try:
        floor = lower + 1e-12 * (1.0 + abs(lower))
        r = min(lower + 0.25 * (1.0 + abs(lower)), r_max)
        f, slope, reach, walked = gap(r), -0.5, math.log(16.0), 1
        while True:
            aim = lower + (r - lower) * math.exp(max(-reach, min(reach, -f / slope)))
            if resolved(r, f) or (
                    abs(aim - r) <= (BRENT_XTOL + BRENT_RTOL * abs(r)) / 2.0
                    and floor <= aim <= r_max):
                return r, tight(r), len(memo)
            nxt = min(max(aim, floor), r_max)
            if nxt == r or walked >= samples:
                at = f"r = {r:.6g}" + (
                    f" after {walked} dial evaluations" if nxt != r
                    else " next to the admissibility threshold" if f < 0.0 else "")
                raise BracketingError(
                    f"target fiber distance {beta0:.6g} not reached even at {at}"
                    if f < 0.0 else
                    f"no sign change: beta stayed above {beta0:.6g} up to {at}")
            f_nxt, walked = gap(nxt), walked + 1
            if (f_nxt <= 0.0) != (f <= 0.0):
                break
            slope = max(-4.0, min(-1e-300, (f_nxt - f) / math.log(
                (nxt - lower) / (r - lower))))
            r, f = nxt, f_nxt
        # Anderson-Bjorck on (u, f): b is the newest point; when a point
        # lands on b's side, the other end's f is scaled down so that the
        # next secant moves toward it.
        a, fa, b, fb, stalled = r, f, nxt, f_nxt, 0
        while not resolved(b, fb):
            lo, hi = min(a, b), max(a, b)
            tol = BRENT_XTOL + BRENT_RTOL * abs(b)
            if hi - lo <= tol:
                b = min((a, b), key=lambda end: abs(gap(end)))
                break
            ua, ub = math.log(a - lower), math.log(b - lower)
            x = lower + math.exp(ub - fb * (ub - ua) / (fb - fa))
            if stalled == 3 or not lo <= x <= hi:
                x, stalled = lower + math.sqrt((lo - lower) * (hi - lower)), 0
            x = min(max(x, lo + tol / 2.0), hi - tol / 2.0)
            fx = gap(x)
            stalled = 0 if abs(fx) <= 0.5 * abs(fb) else stalled + 1
            if (fx <= 0.0) != (fb <= 0.0):
                a, fa = b, fb
            else:
                fa *= 1.0 - fx / fb if abs(fx) < abs(fb) else 0.5
            b, fb = x, fx
        return b, tight(b), len(memo)
    finally:
        # A raised error's traceback holds this frame, and with it the memo:
        # drop the shot leg of every evaluation as soon as the solve ends.
        memo.clear()
        last = None


@dataclass
class ShootingReport:
    """Outcome of a boundary-connection solve.

    ``r`` is ``None`` for the degenerate case of coinciding fiber
    endpoints (within 1e-12 absolute), where the fiber leg is constant and
    the base leg is a plain base-metric geodesic.  ``iterations`` is the
    number of distinct ``r`` at which the dial was evaluated: 0 in the
    degenerate case, which evaluates no dial.  ``endpoint_error`` is the
    larger distance of the two rebuilt legs' ends from the requested
    points, in the degenerate case too.  ``first_integral_residual`` is
    set on the line base only (:func:`flrw_connect`): the largest gap
    between the base leg's positions and ``t0`` plus the running integral
    of its velocities, which measures how well the leg's inversion and its
    velocities ``c / S`` agree.
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


def _connect(g1: MetricChart, g2: MetricChart, w: WarpField, z0, z1,
             cfg: IntegratorConfig, dial, leg, r_max: float,
             samples: int) -> ShootingReport:
    """Join ``z0 = (x0, y0)`` to ``z1 = (x1, y1)``: the one connection driver.

    ``dial(r, warm, tol)`` is one dial evaluation for :func:`_solve_r`, and
    ``leg(r, result)`` the base leg at the root from its evaluation (the
    shot leg, or on the line base the first integral's inverse), with the
    first-integral residual measured along it (``None`` where there is
    none).  Fiber end points that coincide, within 1e-12 absolute in every
    coordinate, make the trivial connection: a constant fiber leg and a
    ``g1``-geodesic base leg, with no dial.
    Otherwise coinciding base end points raise :class:`BracketingError`;
    a fiber shoot fixes the target ``beta``, the dial is solved for ``r``
    and the pair rebuilt there, the one map build of a solve.  Either way
    the rebuilt legs must both end within ``cfg.tolerance`` of ``x1`` and
    ``y1``, or :class:`ShootingError` is raised.
    """
    x0, y0 = (np.asarray(p, dtype=float) for p in z0)
    x1, y1 = (np.asarray(p, dtype=float) for p in z1)
    if np.allclose(y0, y1, rtol=0.0, atol=1e-12):
        X, _, mu, _ = _shoot(g1, x0, x1, cfg)
        n = mu.params.shape[0]
        nu = Curve(mu.params.copy(), np.tile(y0, (n, 1)), np.zeros((n, y0.shape[0])))
        geo = RiemannianGeodesic(
            r=math.nan, base=(mu, nu), gamma=mu, tau=nu, a_r=math.nan,
            b_r=math.nan,
            initial_tangents=(TangentVector(mu.points[0], mu.velocities[0]),
                              TangentVector(y0, np.zeros_like(y0))),
            residuals=coupled_residual(g1, g2, w, mu, nu),
        )
        r, X_r, beta, beta0, iterations, fi_residual = (
            None, TangentVector(mu.points[0], X), 0.0, 0.0, 0, None)
    else:
        if np.allclose(x0, x1, rtol=0.0, atol=1e-12):
            raise BracketingError(
                "coinciding base endpoints admit no rebuilt geodesic with a "
                "moving fiber leg: the dial is identically zero"
            )
        V2, _, nu, _ = _shoot(g2, y0, y1, cfg)
        beta0 = math.sqrt(metric_eval(g2, y0, V2, V2))
        r, res, iterations = _solve_r(dial, beta0, admissible_range(w).lower,
                                      r_max, samples)
        X_r, beta = res.X_r, res.beta
        mu, fi_residual = leg(r, res)
        geo = riemannize(mu, nu, w, r, g1, g2, compat_tol=1e-6, residual_tol=None)
    endpoint_error = float(max(np.max(np.abs(geo.gamma.points[-1] - x1)),
                               np.max(np.abs(geo.tau.points[-1] - y1))))
    if endpoint_error > cfg.tolerance:
        raise ShootingError(
            f"rebuilt geodesic misses the requested end points by "
            f"{endpoint_error:.3e} > tolerance {cfg.tolerance:g}",
            residual=endpoint_error, iterations=iterations,
        )
    return ShootingReport(
        r=r, X_r=X_r, beta=beta, target_beta=beta0, geodesic=geo,
        endpoint_error=endpoint_error, iterations=iterations,
        first_integral_residual=fi_residual,
    )


def connect_points(g1: MetricChart, g2: MetricChart, w: WarpField, z0, z1,
                   cfg: IntegratorConfig = IntegratorConfig(), *,
                   r_max: float = R_MAX_DEFAULT,
                   samples: int = R_WALK_SAMPLES) -> ShootingReport:
    """Join two points of the product by a rebuilt mixed-signature geodesic.

    ``z0 = (x0, y0)`` and ``z1 = (x1, y1)``.  The fiber endpoints fix the
    target distance (via a fiber shoot); the rescaling parameter is then
    solved from ``beta(r) = target``, and the matched pair of factor
    geodesics is reparametrized into the final geodesic.  The solve looks
    for the root in ``(lower, r_max]``, ``lower`` the admissibility
    threshold; ``samples`` is the largest number of dial evaluations its
    bracketing walk makes before it raises :class:`BracketingError`.
    """
    return _connect(g1, g2, w, z0, z1, cfg,
                    _shooting_dial(g1, g2, w, z0[0], z1[0], cfg),
                    lambda r, res: (res.mu, None), r_max, samples)


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
    points, velocities = curve.state_at(alpha * curve.params)
    points[0] = curve.points[0]
    return Curve(curve.params.copy(), points, alpha * velocities)


def _restricted_dial(mu: Curve, w: WarpField, r: float,
                     alpha: float) -> tuple[float, float]:
    """``(a / b, (1 + r k0) / k0)`` of ``mu`` restricted to ``[0, alpha]``,
    ``k0`` the warp at its start: the two factors of a partial dial.  The
    ratio is 0 at ``alpha = 0``, where the restriction has no length."""
    admissible_range(w).require(r)
    restricted = _restricted(mu, alpha)
    k0x = w.value_at(mu.points[0])
    stretch = (1.0 + r * k0x) / k0x
    if alpha == 0.0:
        return 0.0, stretch
    a, b = _leg_constants(restricted, w, r)
    return a / b, stretch


def partial_connect(mu_nu: tuple[Curve, Curve], alpha: float, w: WarpField,
                    r: float) -> tuple[float, float]:
    """Fiber distances reachable over ``[0, alpha]`` of a unit-speed pair.

    For a rescaled-pair geodesic whose base leg has unit base-metric speed,
    the two rebuilt geodesics over the restriction reach fiber distance

        beta = +/- (a_alpha / b_alpha) sqrt((1 + r k(x0)) / k(x0)) |alpha|

    where the constants are recomputed along the restricted leg.  Returns
    ``(beta_plus, beta_minus)``.
    """
    ratio, stretch = _restricted_dial(mu_nu[0], w, r, alpha)
    beta = ratio * math.sqrt(stretch) * abs(alpha)
    return beta, 0.0 - beta  # +0.0, not -0.0, at alpha = 0


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


def theta_consistency(mu: Curve, nu: Curve, w: WarpField, r: float,
                      t: float) -> dict:
    """Both readings of the fiber-reaching dial at one base parameter.

    ``beta_displayed`` is the linear form; ``beta_compat`` carries the
    square root that makes the restriction consistent with the initial
    tangent coupling (it matches :func:`partial_connect`).  The relative
    gap between them is reported so callers can flag the discrepancy.
    """
    _self_intersection_check(mu)
    ratio, stretch = _restricted_dial(mu, w, r, t)
    beta_disp = ratio * stretch * t
    beta_compat = ratio * math.sqrt(stretch) * t
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


def _line_weight(weight):
    """A line weight given as text in ``t``, parsed; nodes pass through."""
    return warpfn.parse(weight, 1) if isinstance(weight, str) else weight


def _require_positive(what: str, values: np.ndarray, column):
    """Raise :class:`NumericalError` naming the first row of ``column``
    where ``values`` is not finite and positive, and the value there."""
    bad = ~((values > 0.0) & (values < math.inf))
    if bad.any():
        i = int(np.argmax(bad))
        raise NumericalError(
            f"{what} must stay positive and finite, got {float(values[i])!r} "
            f"at t = {float(column[i, 0])!r}")


def _line_fields(w: WarpField, weight, column) -> tuple[np.ndarray, np.ndarray]:
    """The warp ``k`` and ``g = sqrt(f / k)`` at the rows of ``column``,
    ``f`` the parsed line weight (``None`` for the flat line), each field
    evaluated in one batch.

    A row where ``k`` or ``f`` is not finite and positive raises
    :class:`NumericalError` that names the first such point and the value
    there; an overflow inside the weight is one such value, not a warning.
    """
    k = values_along(w, column)
    _require_positive("the warp k", k, column)
    f = 1.0
    if weight is not None:
        with np.errstate(all="ignore"):
            f = warpfn.evaluate_many(weight, column)
        _require_positive("line weight", f, column)
    return k, np.sqrt(f / k)


def _line_batch(w: WarpField, t0: float, t1: float, steps: int, weight):
    """What the line dial reads at every ``r``, evaluated once: the grid
    ``x = t0 + (t1 - t0) xi`` over ``[t0, t1]`` as a column, the warp ``k``
    and ``g = sqrt(f / k)`` at its nodes (:func:`_line_fields`), the largest
    ``k`` and the rule's total weights over ``xi``
    (:func:`~warpgeo._num.total_weights`).  Coinciding end points raise
    :class:`InputError`.
    """
    if t1 == t0:
        raise InputError("base endpoints coincide; the first integral degenerates")
    column = (t0 + (t1 - t0) * np.linspace(0.0, 1.0, steps + 1)).reshape(-1, 1)
    k, g = _line_fields(w, weight, column)
    return column, k, g, float(np.max(k)), total_weights(steps)


def flrw_beta(w: WarpField, t0: float, t1: float, r: float,
              cfg: IntegratorConfig = IntegratorConfig(),
              weight=None, *, _batch=None) -> BetaResult:
    """Dial evaluation on the line base via the first integral (no shooting).

    The base leg solves ``mu' = c / S(mu)``, ``S = sqrt(q) g`` the
    slowness, with ``q = 1 + r k`` and ``g = sqrt(f / k)``, so
    ``ds = S dx / c`` along it.  On the uniform grid ``x = t0 + span xi``
    over ``[t0, t1]``, the rule's totals give the leg's constant
    ``c = span int S``, its initial speed ``X_r = c / S(t0)`` and the
    constants of :func:`~warpgeo.reparam._leg_constants`,
    ``a = (span / c) int k S / q`` and ``1/b = (span / (a c)) int S / q``;
    so ``beta = |span| int g / sqrt(q)``.  ``weight`` is the line weight as
    text in ``t`` or as a parsed node.

    Nothing but ``q`` depends on ``r``: the grid, ``k``, ``g`` and the
    rule's total weights are one batch (:func:`_line_batch`), and each
    total is one dot product with those weights.  (``_batch`` is the
    private path by which a solve or a scan hands every evaluation the
    batch it built once; without it the evaluation builds its own.)

    ``resolution`` is ``(steps + 3 + rho) eps``, ``rho = max |r k| / q``,
    a bound on the relative rounding error of ``beta`` given the batch,
    which every evaluation of a solve shares.  With ``u = eps / 2`` the
    unit roundoff (Higham, *Accuracy and Stability of Numerical
    Algorithms*, 2002, sections 2.2 and 4.2), ``q`` carries at most
    ``(1 + rho) u``, ``sqrt(q)`` half of that and ``u``, the quotient
    ``g / sqrt(q)`` and its product with a weight ``u`` each: every term
    of the total at most ``(3.5 + rho / 2) u``.  The terms and the weights
    are positive, so summing ``steps + 1`` of them, in any order, adds at
    most ``steps u``, relative to the total; the product with ``|span|``
    and the solve's ratio to its target add ``u`` each.  That makes
    ``(steps + 5.5 + rho / 2) u`` to first order; the reported bound is
    about twice it, a margin for the higher-order terms (at 1024 steps
    and ``r >= 0`` it reads about 2.3e-13).  ``rho`` is below 1 for
    ``r >= 0``; for ``r < 0`` it is ``|r| max k / (1 + r max k)``, which
    grows without bound toward the admissibility threshold, where
    ``1 + r k`` cancels.
    """
    admissible_range(w).require(r)
    column, k, g, k_max, weights = (
        _line_batch(w, t0, t1, cfg.steps, _line_weight(weight)) if _batch is None
        else _batch)
    _require_rescalable(w, r, column, k)
    span = t1 - t0
    root = np.sqrt(1.0 + r * k)
    reach = g / root
    fiber = weights @ reach
    c = span * (weights @ (g * root))
    a = span / c * (weights @ (k * reach))
    X_r = TangentVector(np.array([float(t0)]), np.array([c / (g[0] * root[0])]))
    rho = abs(r) * k_max / (1.0 + r * k_max)
    return BetaResult(abs(span) * fiber, X_r, a, a * c / (span * fiber), None,
                      resolution=(weights.size + 2.0 + rho) * EPS)


def _line_dial(w: WarpField, t0: float, t1: float, cfg: IntegratorConfig,
               weight, held: Optional[list] = None):
    """The dial of :func:`flrw_connect`: ``dial(r, warm, tol)`` is
    :func:`flrw_beta` on one batch (:func:`_line_batch`, ``weight`` parsed
    or ``None``), and reads neither ``warm`` nor ``tol``.  The batch is
    built at the first evaluation, so that coinciding fiber end points
    reach the coincidence check in :func:`_connect` first, and kept as the
    one item of ``held``: a plain list, which a caller that reads the batch
    after the solve owns and hands in.  (Kept on the dial itself, the
    batch would sit in a reference cycle through the dial's closure, and
    each solve's arrays would wait for the cycle collector.)"""
    held = [] if held is None else held

    def dial(r: float, warm: Optional[BetaResult], tol: float) -> BetaResult:
        if not held:
            held.append(_line_batch(w, t0, t1, cfg.steps, weight))
        return flrw_beta(w, t0, t1, r, cfg, weight, _batch=held[0])
    return dial


def flrw_connect(w: WarpField, t0: float, t1: float, y0, y1,
                 g2: MetricChart, cfg: IntegratorConfig = IntegratorConfig(),
                 *, weight=None,
                 r_max: float = R_MAX_DEFAULT,
                 samples: int = R_WALK_SAMPLES) -> ShootingReport:
    """Boundary connection on a line base, using the first integral.

    Same contract as :func:`connect_points` for a one-dimensional base
    chart (optionally weighted, as in :func:`flrw_beta`), but each dial
    evaluation reads the explicit first integral of the base equation
    instead of shooting.  The base leg at the root is that integral's
    inverse, not an integrated geodesic: it solves ``mu' S(mu) = c``, so
    ``mu = t0 + span u`` with ``u`` the inverse of the slowness's running
    integral on the dial's grid (:func:`~warpgeo._num.invert_running_integral`,
    which raises :class:`NumericalError` where that table does not resolve
    it), its ends pinned to ``t0`` and ``t1``, and ``mu' = c / S(mu)`` with
    ``c = span int S``.  The report's ``first_integral_residual`` measures
    the leg's positions against the running integral of its velocities.
    ``r_max`` and ``samples`` bound the solve as in :func:`connect_points`.
    """
    weight = _line_weight(weight)
    base_chart = weighted_line(weight) if weight is not None else euclidean(1)
    held: list = []  # the dial's batch, which the leg reads too

    def leg(r, res):
        k, g = held[0][1:3]
        slow = g * np.sqrt(1.0 + r * k)
        grid = _grid(cfg.steps)
        h = grid[1] - grid[0]
        accum = cumulative_simpson(slow, h)
        span = t1 - t0
        points = t0 + span * invert_running_integral(grid, accum, slow)[0][:, None]
        points[0], points[-1] = t0, t1
        k, g = _line_fields(w, weight, points)
        _require_rescalable(w, r, points, k)
        velocities = span * accum[-1] / (g * np.sqrt(1.0 + r * k))
        drift = points[:, 0] - t0 - cumulative_simpson(velocities, h)
        return Curve(grid, points, velocities[:, None]), float(np.max(np.abs(drift)))

    return _connect(base_chart, g2, w, ([t0], y0), ([t1], y1), cfg,
                    _line_dial(w, t0, t1, cfg, weight, held), leg, r_max, samples)


# ---------------------------------------------------------------------------
# length-based bounds on the dial


def beta_bounds(g1: MetricChart, g2: MetricChart, w: WarpField, x0, x1,
                r: float, cfg: IntegratorConfig = IntegratorConfig()) -> dict:
    """Sandwich the squared dial between quadrature bounds.

    With ``X`` the initial velocity of the base-metric geodesic joining the
    endpoints and ``gamma`` that geodesic,

        |X|^2 a_r / b_r^2  <=  beta(r)^2  <=  |X|^2 (a_r^2/b_r^2) I(gamma)

    where ``I(gamma)`` integrates ``(1+r k)/k`` along ``gamma``.  Returns
    the three numbers and the bound checks.  A node of ``gamma`` where
    ``k`` or ``1 + r k`` is not positive raises :class:`NumericalError`.
    """
    admissible_range(w).require(r)
    x0 = np.asarray(x0, dtype=float)
    X, _, gamma, _ = _shoot(g1, x0, x1, cfg)
    k = _warp_along(gamma, w, r)
    q = metric_eval(g1, x0, X, X)
    res = beta_of_r(g1, g2, w, x0, x1, r, cfg)
    a, b = res.a_r, res.b_r
    upper_integral = cumulative_simpson((1.0 + r * k) / k, gamma.h)[-1]
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
