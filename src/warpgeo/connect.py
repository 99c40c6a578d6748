"""Joining boundary points with mixed-signature geodesics.

The paper's Riemannian geodesic of the warped product is, up to a
reparametrization, a geodesic of the rescaled metric ``(1/k + r) g1`` for
one ``r``, paired with a fiber geodesic.  The scalar dial ``beta(r)`` reads
the fiber distance the rebuilt geodesic from one ``r`` would cover: shoot a
rescaled-metric geodesic between the base end points and take the ratio of
its two reparametrization constants, ``a / b = int 1/(1 + r k)``, as one
quadrature along its states.  ``beta`` blows up at the admissibility
threshold ``lower`` and decays to zero for large ``r``, nearly as a power
of ``r - lower``.

A connection solves for ``r`` and the shot together: one damped
quasi-Newton iteration on ``z = (v, u)``, ``v`` the initial velocity of the
rescaled base shot and ``u = log(r - lower)``, drives the residual
``(x(1) - x1, log(beta / beta0))`` to zero, each shot reading ``beta`` from
its own states (:func:`_solve`; Stoer & Bulirsch, *Introduction to
Numerical Analysis*, section 7.3, on unknown parameters as extra unknowns
of a shoot).  Its Jacobian starts from forward differences and takes
Broyden updates (Dennis & Schnabel, *Numerical Methods for Unconstrained
Optimization*, section 5.4); shooting a single chart, :func:`_shoot`, runs
the same iteration on ``v`` alone.  Each trial shot reads only its states
from the geodesic's flat list; the curve is built once, from the root's
shot, and so are the maps, when the solved pair is rebuilt there.

The translation-invariant base case (the real line with a time-dependent
warp, as in homogeneous cosmological metrics) evaluates the dial from the
explicit first integral of the base equation instead: with the slowness
``S`` of that integral, the leg's speed and both constants are quadratures
over a uniform grid on the base interval, so no evaluation shoots.  Only
``1 + r k`` on that grid depends on ``r``: a solve evaluates the warp and
the weight there once, and each evaluation is a few array operations and
three dot products with the rule's total weights.  Its solve is the same
iteration with no velocity unknowns, its Jacobian seeded with the closed
form of ``d beta / d r``, one more dot product.  Nor are the base legs at
the root integrated: each is the inverse of a running integral on the same
grid, read from its table, ``S``'s for the leg and the integrand of the
dial's ``a`` for the rebuilt leg.  A fiber whose metric is constant is not
shot either: its leg is the segment between its end points.
Both dials stay callable one ``r`` at a time, ``dial(r, warm)`` with
``warm`` the previous evaluation (``None`` to start cold), for the command
line's ``beta-scan``.
Both connections run one driver, which differs between them only in its
``kind``, a builder called once per solve that returns what the solve
evaluates and how it gets the base legs at the root (the root's shot, or
the first integral's inverses, which share the line dial's batch): it makes
the trivial connection of coinciding fiber points (within 1e-12 absolute),
which builds neither, solves for ``r`` and rebuilds the pair there, and
raises :class:`~warpgeo.errors.ShootingError` when either rebuilt leg ends
farther than the integrator tolerance from its requested point.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import math
from operator import mul

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
    Curve, IntegratorConfig, _curve, _geodesic_flat, _grid, _segment,
    coupled_residual, integrate_geodesic,
)
from .manifold import (
    MetricChart, TangentVector, _metric, _reads_no_variable, euclidean, metric_eval,
    weighted_line,
)
from .reparam import RiemannianGeodesic, _leg_constants, phi_constant_from_trace, riemannize
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
MAX_NEWTON_STEPS = 64
SHOOT_TOL = 1e-10
# The largest move of u = log(r - lower) in one Newton step of a solve.
MAX_LOG_MOVE = math.log(16.0)


# ---------------------------------------------------------------------------
# boundary shooting on a single chart


def _fd_jacobian(shot, v: np.ndarray, gap: np.ndarray) -> np.ndarray:
    """Forward-difference Jacobian of a shot's residual, ``gap`` at the
    unknowns ``v``: one shot per unknown, each with step ``sqrt(eps) max(1,
    |v|_inf)``."""
    d = len(v)
    h = SQRT_EPS * max(1.0, float(np.max(np.abs(v))))
    jac = np.empty((d, d))
    for j in range(d):
        dv = np.zeros(d)
        dv[j] = h
        jac[:, j] = (shot(v + dv)[1] - gap) / h
    return jac


def _line_search(shot, v, step, best, parts=slice(None)):
    """Halve the step until the residual shrinks below ``best``, down to
    ``1/128``: the largest of its components, or of its ``parts``.

    A trial that leaves the chart counts as no decrease.  Returns the
    accepted ``(unknowns, states, residual, size)``, the unknowns as a list,
    or ``None``.
    """
    for halvings in range(8):
        trial = [a + 0.5 ** halvings * b for a, b in zip(v, step)]
        try:
            states, gap = shot(trial)
        except ChartDomainError:
            continue
        # every state of a shot is finite, and so is every residual
        res = max(map(abs, gap[parts]), default=0.0)
        if res < best:
            return trial, states, gap, res
    return None


def _shoot(chart: MetricChart, x0, x1, cfg: IntegratorConfig,
           v_init=None, jac_init=None, max_iter: int = 60):
    """Damped quasi-Newton on the endpoint map, with Broyden updates.

    The shoot ends once every coordinate of the end point is within
    ``SHOOT_TOL`` of ``x1``.  The Jacobian starts from ``jac_init`` (a
    neighbouring solve's, say) or, without one, from forward differences at
    the current velocity, and takes a rank-one secant update after every
    accepted step.  A step that a reused or updated Jacobian cannot make (a
    singular matrix, or no decrease at any length down to ``1/128`` of the
    step) is retried from a fresh finite-difference Jacobian; only a failure
    with that one raises :class:`ShootingError`.

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
        if best <= SHOOT_TOL:
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
        v, gap, best = np.array(trial), trial_gap, trial_res
    if best <= SHOOT_TOL:
        return v, jac, _curve(flat, d), max_iter
    raise ShootingError(
        f"shooting failed to converge on {chart.name}; residual {best:.3e}",
        best, max_iter,
    )


def shoot_boundary(chart: MetricChart, x0, x1,
                   cfg: IntegratorConfig = IntegratorConfig()) -> TangentVector:
    """Initial velocity whose chart geodesic reaches ``x1`` at parameter 1."""
    v, _, _, _ = _shoot(chart, x0, x1, cfg)
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
    the evaluation cannot resolve it: the tolerance the leg was shot to,
    ``SHOOT_TOL``, or on the line base the bound on the rounding of its
    sums (:func:`flrw_beta`).  A connection's solve stops once ``beta``
    matches its target within the resolution of its evaluation there.
    """

    beta: float
    X_r: TangentVector
    a_r: float
    b_r: float
    mu: Optional[Curve]
    iterations: int = 0
    jacobian: Optional[np.ndarray] = None
    resolution: Optional[float] = None


def _leg_beta(w: WarpField, r: float, points: np.ndarray, q: float,
              weights: np.ndarray) -> tuple[float, float, np.ndarray]:
    """The dial's value read from the points of a rescaled leg, the ratio
    ``a / b`` of its constants, and the warp ``k`` at its points.

    ``beta = (a / b) sqrt((1 + r k0) q / k0)``, with ``k0`` the warp at the
    leg's start and ``q`` the base metric's square of its initial velocity.
    ``a / b = int 1/(1 + r k)`` is one dot product with the rule's total
    ``weights`` (:func:`~warpgeo._num.total_weights`).  A point where ``k``
    or ``1 + r k`` is not positive raises :class:`NumericalError`.
    """
    k = values_along(w, points)
    _require_rescalable(w, r, points, k)
    ratio = float(weights @ (1.0 / (1.0 + r * k)))
    return ratio * math.sqrt((1.0 + r * k[0]) / k[0] * q), ratio, k


def _beta_from_mu(mu: Curve, w: WarpField, r: float, g1: MetricChart,
                  X: np.ndarray, iterations: int, jacobian=None,
                  resolution=None) -> BetaResult:
    weights, x0 = total_weights(mu.steps), mu.points[0]
    beta, ratio, k = _leg_beta(w, r, mu.points, metric_eval(g1, x0, X, X), weights)
    a = float(weights @ (k / (1.0 + r * k)))
    return BetaResult(beta, TangentVector(x0, X), a, a / ratio, mu, iterations,
                      jacobian, resolution)


def beta_of_r(g1: MetricChart, g2: MetricChart, w: WarpField, x0, x1,
              r: float, cfg: IntegratorConfig = IntegratorConfig(),
              v_init=None, jac_init=None) -> BetaResult:
    """Evaluate the dial at one ``r`` by shooting between the base points.

    The result carries ``beta``, ``X_r``, the constants ``a_r``, ``b_r``,
    the shot leg and the shooting Jacobian, but no map.  Its resolution is
    the shooting tolerance, ``SHOOT_TOL``, about ten times the dial's noise.
    ``v_init``/``jac_init`` warm-start the shooting, typically from the
    result at a neighbouring ``r``.
    """
    chart = conformal_metric(g1, w, r)
    X, jac, mu, iters = _shoot(chart, x0, x1, cfg, v_init=v_init, jac_init=jac_init)
    return _beta_from_mu(mu, w, r, g1, X, iters, jac, SHOOT_TOL)


def _shooting_dial(g1: MetricChart, g2: MetricChart, w: WarpField, x0, x1,
                   cfg: IntegratorConfig):
    """The dial of :func:`connect_points` one ``r`` at a time, as the
    command line's ``beta-scan`` reads it: ``dial(r, warm)`` is
    :func:`beta_of_r`, warm-started from the velocity and shooting Jacobian
    of ``warm``, the previous evaluation (``None`` to start cold)."""
    def dial(r: float, warm: Optional[BetaResult]) -> BetaResult:
        warm_start = () if warm is None else (warm.X_r.components, warm.jacobian)
        return beta_of_r(g1, g2, w, x0, x1, r, cfg, *warm_start)
    return dial


def _shooting_connection(g1: MetricChart, w: WarpField, x0, x1, cfg: IntegratorConfig):
    """The parts of :func:`connect_points`'s solve, ``(evaluate, v, None,
    legs)`` (see :func:`_connect`).

    ``evaluate(v, r)`` shoots the rescaled base metric from ``x0`` with
    velocity ``v`` and reads ``beta`` from the shot's own states
    (:func:`_leg_beta`), with ``g1`` at ``x0`` and the rule's total weights
    read once here; its resolution is ``SHOOT_TOL``.  The start is
    ``v = x1 - x0``.  ``legs`` makes the root's states the shot leg, the one
    curve a solve builds from its shots."""
    x0, x1 = (np.asarray(p, dtype=float) for p in (x0, x1))
    d = x0.size
    g_x0, weights = _metric(g1, x0), total_weights(cfg.steps)

    def evaluate(v: np.ndarray, r: float):
        flat = _geodesic_flat(conformal_metric(g1, w, r), x0, v, cfg.steps)
        states = np.reshape(flat, (-1, 2 * d))
        beta = _leg_beta(w, r, states[:, :d], float(v @ g_x0 @ v), weights)[0]
        return states[-1, :d] - x1, beta, SHOOT_TOL, flat

    return evaluate, x1 - x0, None, lambda r, v, flat: (
        _curve(flat, d), TangentVector(x0, v), None, None)


def _solve(evaluate, v: np.ndarray, beta0: float, lower: float, r_max: float,
           samples: int, slope=None):
    """Solve a connection for its shot and its ``r`` at once.

    The unknowns are ``z = (v, u)``: the ``d`` components of ``v`` (none on
    the line base) and ``u = log(r - lower)``.  ``evaluate(v, r)``, with
    ``r`` a Python float, is one shot; it returns ``(gap, beta,
    resolution, kept)``: the shot's miss of its end point, the dial's value
    read from the shot, the relative error in ``beta`` below which the
    evaluation cannot resolve it, and what the caller reads at the root.
    The residual is ``F = (gap, f)``, ``f = log(beta / beta0)``; a ``beta``
    that is not a number raises :class:`NumericalError`.

    The iteration is :func:`_shoot`'s, on ``F``.  It starts from ``v`` and
    ``r = lower + 0.25 (1 + |lower|)``, at most ``r_max``.  Forward
    differences build the first Jacobian (``d + 1`` shots), unless
    ``slope(r)``, the closed form of ``d beta / d r`` of a solve with no
    velocity unknowns, seeds it; every accepted step updates it by rank
    one, and a step that the line search cannot make refreshes it; only a
    failure with a fresh one raises :class:`ShootingError`.  The Newton
    step comes by blocks: ``du`` from ``f`` along shots that meet ``x1``,
    where ``f`` falls with ``u``, and ``dv`` from the gap's rows for that
    ``du``.  ``du`` is at most ``MAX_LOG_MOVE``, and ``u`` stays within
    ``[log(1e-12 (1 + |lower|)), log(r_max - lower)]``: a step that would
    leave that range is shortened to its end, where a ``u`` within ``1e-9``
    is shot, so at an end one that would carry ``u`` past it holds ``u``
    there.  The line search halves a step down to ``1/128`` of it, an
    off-chart trial counting as no decrease, until ``max |F|`` falls; a
    step whose ``du`` was cut short need only bring ``max |gap|`` down, or
    keep it within ``SHOOT_TOL``.

    The solve ends, with ``max |gap| <= SHOOT_TOL``, once ``|f|`` is within
    the resolution, or once the Newton step would move ``r`` within the
    range by at most half of ``BRENT_XTOL + BRENT_RTOL |r|``, plus the
    ``eps |u| (r - lower)`` to which ``u`` carries ``r``: the guard for a
    dial that ``r`` cannot resolve so finely, next to the threshold, say.
    Returns ``(v, r, beta, kept, steps)``, ``steps`` the Newton steps taken.
    With ``u`` at an end where ``f``, the shot converged, still points past
    it, the target is out of reach, and :class:`BracketingError` says so; so
    it does after ``samples`` steps without a root.
    """
    if not r_max > lower:
        raise ParameterError(r_max, lower, "r_max")
    beta0, lower, r_max = float(beta0), float(lower), float(r_max)
    d = v.size
    lo, hi = math.log(1e-12 * (1.0 + abs(lower))), math.log(r_max - lower)

    def shot(z):
        # a u within 1e-9 of an end of its range, which a step shortened to
        # that end reaches up to rounding, is shot at that end, and the upper
        # end is r_max itself; a difference quotient's step is wider
        z[d] = lo if abs(z[d] - lo) < 1e-9 else hi if abs(z[d] - hi) < 1e-9 else z[d]
        r = r_max if z[d] == hi else lower + math.exp(z[d])
        gap, beta, resolution, kept = evaluate(np.array(z[:d]), r)
        if math.isnan(beta):
            raise NumericalError(f"the dial beta(r) is NaN at r = {r!r}: no step can use it")
        f = math.log(beta / beta0) if beta > 0.0 else -math.inf
        return (r, beta, resolution, kept), [*gap.tolist(), f]

    # z, the residual F and the Jacobian's rows are lists of floats: with d
    # at most a few, Python arithmetic on them costs less than numpy's calls
    z = [*v.tolist(), math.log(min(lower + 0.25 * (1.0 + abs(lower)), r_max) - lower)]
    (r, beta, resolution, kept), F = shot(z)
    jac = None if slope is None else [[slope(r) * (r - lower) / beta]]
    for steps in range(samples + 1):
        gap, f, u = max(map(abs, F[:d]), default=0.0), F[d], z[d]
        if gap <= SHOOT_TOL and abs(f) <= resolution:
            return np.array(z[:d]), r, beta, kept, steps
        past = gap <= SHOOT_TOL and (f < 0.0 and u <= lo or f > 0.0 and u >= hi)
        if past or steps == samples:
            at = f"r = {r:.6g}" + ((" next to the admissibility threshold" if f < 0.0 else "")
                                   if past else f" after {steps} Newton steps")
            raise BracketingError(
                f"target fiber distance {beta0:.6g} not reached even at {at}" if f < 0.0
                else f"no sign change: beta stayed above {beta0:.6g} up to {at}")
        while True:
            fresh = jac is None
            if fresh:
                jac = _fd_jacobian(shot, np.array(z), np.array(F)).tolist()
            *rows, c = jac
            # The Newton step by blocks: the gap's rows give dv for any du,
            # dv = -x0 - du x1, and f's row with them du along shots that
            # meet x1, where f falls with u (the dial decreases): du =
            # -(f - c x0) / slope, with a slope that a noisy difference or
            # update turned positive, or zero, taken negative.
            try:
                x = np.linalg.solve([row[:d] for row in rows], [
                    [g, row[d]] for g, row in zip(F, rows)]).tolist() if d else []
            except np.linalg.LinAlgError as exc:
                if fresh:
                    raise ShootingError(f"singular Jacobian in the solve for r: {exc}",
                                        max(gap, abs(f)), steps + 1) from exc
                jac = None
                continue
            cx0, cx1 = sum(map(mul, c, (b[0] for b in x))), sum(map(mul, c, (b[1] for b in x)))
            du = (f - cx0) / max(abs(c[d] - cx1), 1e-300)
            if (gap <= SHOOT_TOL and lo <= u + du <= hi and abs(lower + math.exp(u + du) - r)
                    <= (BRENT_XTOL + BRENT_RTOL * abs(r)) / 2.0 + EPS * abs(u) * (r - lower)):
                return np.array(z[:d]), r, beta, kept, steps
            move = min(max(du, -MAX_LOG_MOVE, lo - u), MAX_LOG_MOVE, hi - u)
            step = [-a - move * b for a, b in x] + [move]
            # A step whose du is cut short cannot bring f to 0, and the shot
            # it converges may move f away from it: it only has to bring the
            # shot closer, or keep it within SHOOT_TOL.
            best, parts = ((max(gap, abs(f)), slice(None)) if move == du
                           else (max(gap, SHOOT_TOL), slice(0, d)))
            accepted = _line_search(shot, z, step, best, parts)
            if accepted is not None:
                break
            if fresh:
                raise ShootingError(f"the solve for r stalled at residual {best:.3e}",
                                    best, steps + 1)
            jac = None
        trial, (r, beta, resolution, kept), trial_F, _ = accepted
        s = [a - b for a, b in zip(trial, z)]
        for row, a, b in zip(jac, F, trial_F):
            scale = (b - a - sum(map(mul, row, s))) / sum(map(mul, s, s))
            row[:] = [p + scale * q for p, q in zip(row, s)]
        z, F = trial, trial_F


@dataclass
class ShootingReport:
    """Outcome of a boundary-connection solve.

    ``r`` is ``None`` for the degenerate case of coinciding fiber
    endpoints (within 1e-12 absolute), where the fiber leg is constant and
    the base leg is a plain base-metric geodesic.  ``iterations`` is the
    number of Newton steps of the solve for ``r`` (:func:`_solve`): 0 in the
    degenerate case, which solves nothing.  ``endpoint_error`` is the
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
             cfg: IntegratorConfig, kind, r_max: float,
             samples: int) -> ShootingReport:
    """Join ``z0 = (x0, y0)`` to ``z1 = (x1, y1)``: the one connection driver.

    ``kind(cfg)`` builds the connection's parts at ``cfg``'s step count,
    ``(evaluate, v, slope, legs)``: the first three are what :func:`_solve`
    takes.  ``legs(r, v, kept)`` reads, from the root's unknowns and what
    its evaluation kept, the base leg at the root (the shot leg, or on the
    line base the first integral's inverse), its initial velocity, the
    rebuilt base leg ready for :func:`~warpgeo.reparam.riemannize`
    (``None`` where the rebuild builds it; see :func:`_line_connection`),
    and the first-integral residual measured along the leg (``None`` where
    there is none).  Fiber end points that coincide, within 1e-12 absolute
    in every coordinate, make the trivial connection: a constant fiber leg
    and a ``g1``-geodesic base leg, with no call of ``kind`` and so no
    solve.  Otherwise coinciding base end points raise
    :class:`BracketingError`; the fiber leg fixes the target ``beta``,
    ``kind`` is called once, the solve finds ``r`` and the pair is rebuilt
    there, the one map build of a solve.  The fiber leg is the segment from
    ``y0`` to ``y1`` (:func:`~warpgeo.integrate._segment`) on a chart whose
    exponent reads no variable, a geodesic there, and a fiber shoot on any
    other; the constant leg is the segment from ``y0`` to itself.  Either
    way the rebuilt legs must both end within ``cfg.tolerance`` of ``x1``
    and ``y1``, or :class:`ShootingError` is raised.
    """
    x0, y0 = (np.asarray(p, dtype=float) for p in z0)
    x1, y1 = (np.asarray(p, dtype=float) for p in z1)
    if np.allclose(y0, y1, rtol=0.0, atol=1e-12):
        X, _, mu, _ = _shoot(g1, x0, x1, cfg)
        nu = _segment(y0, y0, cfg.steps)
        geo = RiemannianGeodesic(
            r=math.nan, base=(mu, nu), gamma=mu, tau=nu, a_r=math.nan,
            b_r=math.nan, residuals=coupled_residual(g1, g2, w, mu, nu),
        )
        r, X_r, beta, beta0, iterations, fi_residual = (
            None, TangentVector(mu.points[0], X), 0.0, 0.0, 0, None)
    else:
        if np.allclose(x0, x1, rtol=0.0, atol=1e-12):
            raise BracketingError(
                "coinciding base endpoints admit no rebuilt geodesic with a "
                "moving fiber leg: the dial is identically zero"
            )
        # a constant metric's geodesic is the segment; a chart that does not
        # contain y0 is left to the shoot, which reports where it fails
        if (g2.exponent is not None and _reads_no_variable(g2.exponent)
                and g2.contains(y0)):
            nu = _segment(y0, y1, cfg.steps)
        else:
            nu = _shoot(g2, y0, y1, cfg)[2]
        V2 = nu.velocities[0]
        beta0 = math.sqrt(metric_eval(g2, y0, V2, V2))
        evaluate, v, slope, legs = kind(cfg)
        v, r, beta, kept, iterations = _solve(
            evaluate, v, beta0, admissible_range(w).lower, r_max, samples, slope)
        mu, X_r, base, fi_residual = legs(r, v, kept)
        geo = riemannize(mu, nu, w, r, g1, g2, compat_tol=1e-6, residual_tol=None,
                         _base=base)
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
                   samples: int = MAX_NEWTON_STEPS) -> ShootingReport:
    """Join two points of the product by a rebuilt mixed-signature geodesic.

    ``z0 = (x0, y0)`` and ``z1 = (x1, y1)``.  The fiber endpoints fix the
    target distance (via a fiber shoot); the rescaling parameter and the
    rescaled base shot are then solved together from ``beta(r) = target``
    (:func:`_solve`), and the matched pair of factor geodesics is
    reparametrized into the final geodesic.  The solve looks for the root
    in ``(lower, r_max]``, ``lower`` the admissibility threshold; ``samples``
    is the largest number of Newton steps it takes before it raises
    :class:`BracketingError`.
    """
    return _connect(g1, g2, w, z0, z1, cfg, lambda cfg: _shooting_connection(
        g1, w, z0[0], z1[0], cfg), r_max, samples)


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


def _self_intersection_check(curve: Curve):
    """Reject traces that revisit themselves (coarse pairwise scan of 192
    nodes)."""
    idx = np.linspace(0, curve.steps, 192, dtype=int)
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
        "point_displayed": nu.state_at(beta_disp)[0],
        "point_compat": nu.state_at(beta_compat)[0],
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
    # k is positive at every node (the batch checks it), so 1 + r k is
    # least where k is largest: one comparison stands for the check at
    # every node, which runs, to name the first failing node, only if it
    # fails
    if not 1.0 + r * k_max > 0.0:
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


def _line_connection(w: WarpField, t0: float, t1: float, weight,
                     cfg: IntegratorConfig):
    """:func:`flrw_connect`'s dial and the parts of its solve, ``(dial,
    (evaluate, v, slope, legs))`` (see :func:`_connect`), on one batch
    (:func:`_line_batch`, ``weight`` parsed or ``None``) built here, at
    ``cfg``'s step count.

    ``dial(r, warm)`` is :func:`flrw_beta` on the batch and does not read
    ``warm``.  ``evaluate`` is the dial with no velocity unknowns, so ``v``
    is empty, and ``slope(r)`` is ``d beta / d r = -|span| / 2 int g k (1 +
    r k)^(-3/2)``, one dot product with the batch's total weights.
    ``legs(r, v, res)`` reads the base leg at the root, and the rebuilt one,
    as the inverses of two running tables on the batch's grid, as
    :func:`flrw_connect` describes, with the warp and the weight at both
    legs' points one more batch."""
    batch = _line_batch(w, t0, t1, cfg.steps, weight)

    def dial(r: float, warm: Optional[BetaResult]) -> BetaResult:
        return flrw_beta(w, t0, t1, r, cfg, weight, _batch=batch)

    def evaluate(v: np.ndarray, r: float):
        res = dial(r, None)
        return v, res.beta, res.resolution, res  # v is empty, and so is the gap

    def slope(r: float) -> float:
        k, g, weights = batch[1], batch[2], batch[4]
        return -0.5 * abs(t1 - t0) * float(weights @ (g * k / (1.0 + r * k) ** 1.5))

    def legs(r, v, res):
        k, g = batch[1:3]
        root = np.sqrt(1.0 + r * k)
        grid = _grid(cfg.steps)
        h, n, span = grid[1] - grid[0], grid.size, t1 - t0
        # mu is the inverse of the running table of the slowness g sqrt(q),
        # gamma that of k g / sqrt(q), the integrand of the dial's a
        totals, nodes = [], []
        for slopes in (g * root, k * g / root):
            accum = cumulative_simpson(slopes, h)
            totals.append(span * accum[-1])
            nodes.append(invert_running_integral(grid, accum, slopes)[0])
        points = t0 + span * np.concatenate(nodes)[:, None]
        points[[0, n]], points[[n - 1, -1]] = t0, t1
        k, g = _line_fields(w, weight, points)
        _require_rescalable(w, r, points, k)
        root = np.sqrt(1.0 + r * k)
        speed = totals[0] / (g[:n] * root[:n])
        drift = points[:n, 0] - t0 - cumulative_simpson(speed, h)
        gamma = Curve(grid, points[n:], (totals[1] * root[n:] / (k[n:] * g[n:]))[:, None])
        return (Curve(grid, points[:n], speed[:, None]), res.X_r,
                (gamma, k[n:], res.a_r, res.b_r), float(np.max(np.abs(drift))))
    return dial, (evaluate, np.empty(0), slope, legs)


def flrw_connect(w: WarpField, t0: float, t1: float, y0, y1,
                 g2: MetricChart, cfg: IntegratorConfig = IntegratorConfig(),
                 *, weight=None,
                 r_max: float = R_MAX_DEFAULT,
                 samples: int = MAX_NEWTON_STEPS) -> ShootingReport:
    """Boundary connection on a line base, using the first integral.

    Same contract as :func:`connect_points` for a one-dimensional base
    chart (optionally weighted, as in :func:`flrw_beta`), but each dial
    evaluation reads the explicit first integral of the base equation
    instead of shooting, so the solve has no velocity unknowns, and the
    dial and the legs at the root share one batch
    (:func:`_line_connection`).  The base leg at the root is that
    integral's inverse, not an integrated geodesic: it solves
    ``mu' S(mu) = c``, so ``mu = t0 + span u`` with ``u`` the inverse of
    the slowness's running integral on the dial's grid
    (:func:`~warpgeo._num.invert_running_integral`, which raises
    :class:`NumericalError` where that table does not resolve it), its ends
    pinned to ``t0`` and ``t1``, and ``mu' = c / S(mu)`` with
    ``c = span int S``.  The report's ``first_integral_residual`` measures
    the leg's positions against the running integral of its velocities.

    The rebuilt base leg is read the same way, not built by the base map
    along ``mu``: by the chain rule through ``mu' = c / S`` and the map's
    ``a (1 + r k) / k``, its parameter runs as the running integral of
    ``k g / sqrt(q)`` over the grid, the integrand of the dial's ``a``, so
    ``gamma = t0 + span v`` with ``v`` that table's inverse and
    ``gamma' = span T sqrt(q) / (k g)``, ``T`` the table's total.  The warp
    and the weight at both legs' points are one batch, and ``gamma``'s
    constants ``a_r`` and ``b_r`` are the dial's totals at the root.  With
    a fiber whose metric is constant the fiber leg is a segment too
    (:func:`_connect`), so such a solve integrates no geodesic and reads no
    curve between its nodes.  Coinciding fiber end points make the trivial
    connection before the batch is built.
    ``r_max`` and ``samples`` bound the solve as in :func:`connect_points`.
    """
    weight = _line_weight(weight)
    base_chart = weighted_line(weight) if weight is not None else euclidean(1)
    return _connect(base_chart, g2, w, ([t0], y0), ([t1], y1), cfg,
                    lambda cfg: _line_connection(w, t0, t1, weight, cfg)[1], r_max, samples)


# ---------------------------------------------------------------------------
# length-based bounds on the dial


def beta_bounds(g1: MetricChart, g2: MetricChart, w: WarpField, x0, x1,
                r: float, cfg: IntegratorConfig = IntegratorConfig()) -> dict:
    """Sandwich the squared dial between quadrature bounds.

    With ``X`` the initial velocity of the base-metric geodesic joining the
    endpoints and ``gamma`` that geodesic,

        |X|^2 a_r / b_r^2  <=  beta(r)^2  <=  |X|^2 (a_r^2/b_r^2) I(gamma)

    where ``I(gamma)`` integrates ``(1+r k)/k`` along ``gamma``, the
    reciprocal of :func:`~warpgeo.reparam.phi_constant_from_trace`.  Returns
    the three numbers and the bound checks.  A node of ``gamma`` where
    ``k`` or ``1 + r k`` is not positive raises :class:`NumericalError`.
    """
    admissible_range(w).require(r)
    x0 = np.asarray(x0, dtype=float)
    X, _, gamma, _ = _shoot(g1, x0, x1, cfg)
    upper_integral = 1.0 / phi_constant_from_trace(gamma, w, r)
    q = metric_eval(g1, x0, X, X)
    res = beta_of_r(g1, g2, w, x0, x1, r, cfg)
    a, b = res.a_r, res.b_r
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
