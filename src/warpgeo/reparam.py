"""Rebuilding mixed-signature geodesics from rescaled-metric ones.

Given a geodesic ``mu`` of the rescaled base metric and a geodesic ``nu``
of the fiber, suitable reparametrizations of each produce the two legs of
a geodesic for the full warped metric of signature ``(+, -)``:

* the base map ``phi`` solves ``phi' = a (1 + r k)/k`` along ``mu``, with
  the constant ``a`` fixed by ``phi(0) = 0``, ``phi(1) = 1``; it is built
  by inverting the explicitly integrable inverse map, from its table at
  the grid nodes alone;
* the fiber map ``psi`` satisfies ``psi' = b / k`` along the
  reparametrized base leg, again normalized to fix the constant ``b``.

The constants alone need no map: changing variables along ``mu`` gives
``a = int_0^1 k/(1 + r k)(mu)`` and ``1/b = (1/a) int_0^1 1/(1 + r k)(mu)``,
two quadratures over ``mu``'s nodes (:func:`_leg_constants`).  Those are the
constants of every rebuilt leg; the maps are built only to reparametrize it,
and are read at the grid nodes only.

The module also hosts the compatibility condition coupling the two initial
tangents, the tangent-vector transformation between the two descriptions,
and the classifier that recovers the rescaling parameter from a
mixed-signature initial condition.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import math

import numpy as np

from ._num import cumulative_simpson, invert_running_integral
from .errors import CompatibilityError, InputError, NumericalError
from .integrate import Curve, coupled_residual
from .manifold import (
    MetricChart, TangentVector, _squared_speeds, metric_eval,
)
from .warp import (
    WarpField, _require_rescalable, admissible_range, values_along,
)

__all__ = [
    "MonotoneMap", "RiemannianGeodesic", "compute_a_and_phi",
    "compute_b_and_psi", "reparametrize", "check_compatibility", "riemannize",
    "tangent_transform", "classify_riemannian", "phi_constant_from_trace",
    "norm_identity_errors",
]


@dataclass
class MonotoneMap:
    """A strictly increasing map of ``[0, 1]`` onto itself, sampled on a grid.

    ``constant`` is the normalization constant of the defining relation
    (``a`` for base maps, ``b`` for fiber maps); ``derivative_values`` hold
    the map's derivative at the grid nodes, known in closed form for every
    map the library builds (``a (1 + r k)/k`` for ``phi``, ``b/k`` for
    ``psi``).  The map is its nodes: :func:`reparametrize` reads the values
    and the derivatives there, and nothing evaluates it between them.
    """

    grid: np.ndarray
    values: np.ndarray
    constant: float
    derivative_values: np.ndarray

    def __post_init__(self):
        self.grid = np.asarray(self.grid, dtype=float)
        self.values = np.asarray(self.values, dtype=float)
        self.derivative_values = np.asarray(self.derivative_values, dtype=float)
        if (self.grid.ndim != 1 or self.values.shape != self.grid.shape
                or self.derivative_values.shape != self.grid.shape):
            raise InputError("map grid, values and derivative values must be "
                             "1-d arrays of equal length")
        if not np.all(np.diff(self.values) > 0.0):
            raise NumericalError("map values are not strictly increasing")


def compute_a_and_phi(mu: Curve, w: WarpField, r: float) -> MonotoneMap:
    """Base-leg reparametrization along a rescaled-metric geodesic.

    Integrates ``k/(1 + r k)`` along ``mu``, which yields the constant
    ``a`` (the full integral) and a table of the *inverse* map at the
    nodes, its values and slopes; the map is that table's inverse, read
    from the table alone (:func:`~warpgeo._num.invert_running_integral`),
    and raises :class:`NumericalError` where the table does not resolve it.
    The map's derivative needs the warp at ``mu``'s points at the map's
    nodes.  A node where ``k`` or ``1 + r k`` is not positive raises
    :class:`NumericalError`.
    """
    return _base_map(mu, w, r, *_base_table(mu, r, _warp_along(mu, w, r)))[0]


def _base_table(mu: Curve, r: float, k: np.ndarray):
    """The integrand ``k/(1 + r k)`` at ``mu``'s nodes, from the warp ``k``
    there, and its running integral: the base map's inverse, whose last
    node is the constant ``a``."""
    integrand = k / (1.0 + r * k)
    return integrand, cumulative_simpson(integrand, mu.h)


def _base_map(mu: Curve, w: WarpField, r: float, integrand, accum):
    """The map of :func:`compute_a_and_phi` from its table
    (:func:`_base_table`), with the points and velocities of ``mu`` at the
    map's nodes and the warp there: ``mu``'s dense output and the warp are
    read once each."""
    a = accum[-1]
    values = invert_running_integral(mu.params, accum, integrand)[0]
    points, velocities = mu.state_at(values)
    k_at_phi = values_along(w, points)
    phi = MonotoneMap(mu.params, values, a, a * (1.0 + r * k_at_phi) / k_at_phi)
    return phi, points, velocities, k_at_phi


def compute_b_and_psi(gamma: Curve, w: WarpField) -> MonotoneMap:
    """Fiber-leg reparametrization along a (reparametrized) base curve.

    ``psi(s) = b * integral of 1/k along gamma up to s`` with ``b`` chosen
    so that ``psi(1) = 1``.  No inversion is needed: the running integral
    is the map.
    """
    return _fiber_map(gamma, values_along(w, gamma.points))


def _fiber_map(gamma: Curve, k: np.ndarray) -> MonotoneMap:
    """The map of :func:`compute_b_and_psi` from the warp ``k`` at
    ``gamma``'s nodes."""
    accum = cumulative_simpson(1.0 / k, gamma.h)
    b = 1.0 / accum[-1]
    values = b * accum
    values[0], values[-1] = 0.0, 1.0
    return MonotoneMap(gamma.params, values, b, b / k)


def phi_constant_from_trace(gamma: Curve, w: WarpField, r: float) -> float:
    """The base-map constant computed from the *reparametrized* leg.

    Chain rule on the defining relation gives
    ``1/a = integral of (1 + r k)/k along gamma``; this recovers ``a``
    without access to the rescaled-metric curve, which is what the
    classifier needs when it starts from a mixed-signature geodesic.  A
    node where ``k`` or ``1 + r k`` is not positive raises
    :class:`NumericalError`.
    """
    k = _warp_along(gamma, w, r)
    return 1.0 / cumulative_simpson((1.0 + r * k) / k, gamma.h)[-1]


def reparametrize(curve: Curve, m: MonotoneMap) -> Curve:
    """The curve composed with a monotone map, velocities chain-ruled."""
    s = np.asarray(m.values, dtype=float)
    if s[0] < curve.params[0] - 1e-12 or s[-1] > curve.params[-1] + 1e-12:
        raise InputError("map range exceeds the curve's parameter interval")
    return _composed(curve, m, *curve.state_at(s))


def _composed(curve: Curve, m: MonotoneMap, points, velocities) -> Curve:
    """:func:`reparametrize` given the curve's points and velocities at the
    map's nodes; it pins the end points to the curve's own.  A read-only
    grid, the shared one of a step count, is the new curve's too; any
    other is copied."""
    points[0], points[-1] = curve.points[0], curve.points[-1]
    grid = m.grid if not m.grid.flags.writeable else m.grid.copy()
    return Curve(grid, points, velocities * m.derivative_values[:, None])


def check_compatibility(x0, X0, Y0: TangentVector, a_r: float, b_r: float,
                        w: WarpField, r: float, g1: MetricChart,
                        g2: MetricChart, tol: float = 1e-8
                        ) -> tuple[bool, float]:
    """The coupling identity between the two initial tangents.

    Checks ``a^2 (1 + r k(x0))/k(x0) * |X0|^2 = b^2 * |Y0|^2`` and returns
    ``(ok, defect)`` with the defect measured relative to the larger side
    (floored at one, so near-zero tangents are judged absolutely).
    """
    x0 = np.asarray(x0, dtype=float)
    k0x = w.value_at(x0)
    lhs = a_r * a_r * (1.0 + r * k0x) / k0x * metric_eval(g1, x0, X0, X0)
    rhs = b_r * b_r * metric_eval(g2, Y0.base, Y0, Y0)
    defect = abs(lhs - rhs) / max(1.0, abs(lhs), abs(rhs))
    return defect <= tol, defect


@dataclass
class RiemannianGeodesic:
    """A mixed-signature geodesic rebuilt from rescaled-factor legs.

    ``base`` holds the input pair ``(mu, nu)``; ``gamma`` and ``tau`` are
    the reparametrized legs forming the actual geodesic.  ``a_r`` and
    ``b_r`` are the quadrature constants of :func:`_leg_constants` along
    ``mu``.  The maps that produced the legs are not kept: to read one,
    call :func:`compute_a_and_phi` or :func:`compute_b_and_psi`.
    """

    r: float
    base: tuple[Curve, Curve]
    gamma: Curve
    tau: Curve
    a_r: float
    b_r: float
    initial_tangents: tuple[TangentVector, TangentVector]
    residuals: tuple[float, float]

    def to_dict(self) -> dict:
        Xt, Yt = self.initial_tangents
        return {
            "r": None if math.isnan(self.r) else self.r,
            "a_r": None if math.isnan(self.a_r) else self.a_r,
            "b_r": None if math.isnan(self.b_r) else self.b_r,
            "initial_base_tangent": Xt.components.tolist(),
            "initial_fiber_tangent": Yt.components.tolist(),
            "residual_base": self.residuals[0],
            "residual_fiber": self.residuals[1],
        }


def _leg_constants(mu: Curve, w: WarpField, r: float, k: Optional[np.ndarray] = None,
                   a: Optional[float] = None) -> tuple[float, float]:
    """The constants ``(a, b)`` of the maps along ``mu``, without the maps.

    ``a`` is the last node of the base map's table (:func:`_base_table`),
    so it equals ``phi.constant`` exactly; ``b`` is the same rule over
    ``1/(1 + r k)``, divided into ``a``.  ``k`` is the warp at ``mu``'s
    nodes from :func:`_warp_along`, and ``a`` that table's last node, each
    evaluated here when not given.  A node where ``k`` or ``1 + r k`` is
    not positive raises :class:`NumericalError`.
    """
    if k is None:
        k = _warp_along(mu, w, r)
    a = _base_table(mu, r, k)[1][-1] if a is None else a
    return a, a / cumulative_simpson(1.0 / (1.0 + r * k), mu.h)[-1]


def _warp_along(curve: Curve, w: WarpField, r: float) -> np.ndarray:
    """The warp at the curve's nodes, where ``k`` and ``1 + r k`` must be
    positive."""
    admissible_range(w).require(r)
    k = values_along(w, curve.points)
    _require_rescalable(w, r, curve.points, k)
    return k


def riemannize(mu: Curve, nu: Curve, w: WarpField, r: float,
               g1: MetricChart, g2: MetricChart, *,
               compat_tol: float = 1e-8,
               residual_tol: Optional[float] = 1e-4) -> RiemannianGeodesic:
    """Assemble the mixed-signature geodesic from a pair of factor geodesics.

    ``mu`` must be a geodesic of the rescaled base metric for this ``r``
    and ``nu`` a geodesic of the fiber; their initial tangents must pass
    the compatibility check under the constants of :func:`_leg_constants`.
    The base map is computed from ``mu``, the fiber map from the already
    reparametrized base leg, matching the defining relation of the fiber
    equation.  The warp is evaluated once along ``mu``'s nodes, for the
    base map's table, which gives both constants too, and once at ``mu``'s
    points at the base map's nodes, for that map's derivative and the fiber
    map; the dense output of ``mu`` is read once, there, and that of ``nu``
    once, at the fiber map's nodes.

    Residuals of the coupled system are always measured on the result and
    stored; if ``residual_tol`` is given they must stay below it.
    """
    if mu.steps != nu.steps:
        raise InputError("factor curves must share one grid")
    k = _warp_along(mu, w, r)
    table = _base_table(mu, r, k)
    a_r, b_r = _leg_constants(mu, w, r, k, table[1][-1])
    Y0 = TangentVector(nu.points[0], nu.velocities[0])
    ok, defect = check_compatibility(
        mu.points[0], mu.velocities[0], Y0, a_r, b_r, w, r, g1, g2,
        tol=compat_tol,
    )
    if not ok:
        raise CompatibilityError(defect, compat_tol)
    phi, points, velocities, k_at_phi = _base_map(mu, w, r, *table)
    gamma = _composed(mu, phi, points, velocities)
    tau = reparametrize(nu, _fiber_map(gamma, k_at_phi))
    residuals = coupled_residual(g1, g2, w, gamma, tau)
    if residual_tol is not None and max(residuals) > residual_tol:
        raise NumericalError(
            f"coupled-system residuals {residuals} exceed {residual_tol:g}"
        )
    tangents = (
        TangentVector(gamma.points[0], gamma.velocities[0]),
        TangentVector(tau.points[0], tau.velocities[0]),
    )
    return RiemannianGeodesic(
        r=r, base=(mu, nu), gamma=gamma, tau=tau, a_r=a_r, b_r=b_r,
        initial_tangents=tangents, residuals=residuals,
    )


def tangent_transform(X_r, Y_r: TangentVector, x0, a_r: float, b_r: float,
                      w: WarpField, r: float
                      ) -> tuple[TangentVector, TangentVector]:
    """Initial tangents of the rebuilt geodesic from the rescaled ones.

    ``X -> a (1 + r k(x0))/k(x0) X`` on the base, ``Y -> b/k(x0) Y`` on
    the fiber.
    """
    x0 = np.asarray(x0, dtype=float)
    k0x = w.value_at(x0)
    X = X_r.components if isinstance(X_r, TangentVector) else np.asarray(X_r, dtype=float)
    Xt = TangentVector(x0, a_r * (1.0 + r * k0x) / k0x * X)
    Yt = TangentVector(Y_r.base, b_r / k0x * Y_r.components)
    return Xt, Yt


def classify_riemannian(x0, Xt: TangentVector, Yt: TangentVector,
                        w: WarpField, g1: MetricChart, g2: MetricChart
                        ) -> Optional[float]:
    """Recover the rescaling parameter from mixed-signature initial data.

    For a nonzero fiber tangent, returns

        r = |Xt|^2 / (k(x0)^2 |Yt|^2) - 1/k(x0)

    when the strict inequality guaranteeing admissibility holds
    (``|Xt|^2 > k(x0)|Yt|^2 (K0 - k(x0))/K0``, with the last factor read
    as 1 for an unbounded field), and ``None`` otherwise.
    """
    x0 = np.asarray(x0, dtype=float)
    q1 = metric_eval(g1, x0, Xt, Xt)
    q2 = metric_eval(g2, Yt.base, Yt, Yt)
    if q2 <= 0.0:
        raise InputError("fiber tangent must be nonzero to classify")
    k0x = w.value_at(x0)
    if math.isinf(w.K0):
        threshold = k0x * q2
    else:
        threshold = k0x * q2 * (w.K0 - k0x) / w.K0
    if not q1 > threshold:
        return None
    return q1 / (k0x * k0x * q2) - 1.0 / k0x


def norm_identity_errors(geo: RiemannianGeodesic, w: WarpField,
                         g1: MetricChart, g2: MetricChart) -> dict:
    """Worst-case violation of the two closed-form norm identities.

    Along the rebuilt geodesic the base speed satisfies

        |gamma'|^2 = a^2 (1+r k(x0)) (1+r k)/(k(x0) k) |X_r|^2

    and the fiber speed satisfies ``k^2 |tau'|^2 = b^2 |Y_0|^2`` (in
    particular that product is a first integral).  Returns the max-norm
    errors of both, plus the drift of the first integral itself.  A node of
    ``gamma`` where ``k`` or ``1 + r k`` is not positive raises
    :class:`NumericalError`.
    """
    mu, nu = geo.base
    gamma, tau = geo.gamma, geo.tau
    k0x = w.value_at(mu.points[0])
    X2 = _squared_speeds(g1, mu.points[0], mu.velocities[0])[0]
    Y2 = _squared_speeds(g2, nu.points[0], nu.velocities[0])[0]
    r, a, b = geo.r, geo.a_r, geo.b_r
    k = _warp_along(gamma, w, r)
    base_pred = a * a * (1.0 + r * k0x) * (1.0 + r * k) / (k0x * k) * X2
    base_speed2 = _squared_speeds(g1, gamma.points, gamma.velocities)
    products = k * k * _squared_speeds(g2, tau.points, tau.velocities)
    return {
        "base_norm_error": float(np.max(np.abs(base_speed2 - base_pred))),
        "fiber_norm_error": float(np.max(np.abs(products - b * b * Y2))),
        "first_integral_drift": float(np.max(np.abs(products - products[0]))),
    }
