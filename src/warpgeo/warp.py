"""Warping functions and the conformal metric family they induce.

A warping function is a smooth positive field ``k`` on the base chart,
bounded below by ``k0 > 0`` and above by ``K0`` (possibly infinite).  For
every ``r`` above the admissibility threshold the base metric is rescaled
conformally by ``1/k + r``; geodesics of the rescaled metric are the raw
material from which the mixed-signature geodesics are later rebuilt.

This module owns the rescaled charts, the bi-Lipschitz equivalence bounds
between the base metric and a rescaled one, and the curvature side: the
sectional curvature of a rescaled metric and the pointwise inequality
guaranteeing it is negative.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import math

import numpy as np

from . import warpfn
from .errors import InputError, ParameterError
from .manifold import (
    MetricChart, _components, _metric, christoffel, metric_eval,
    sectional_curvature,
)

__all__ = [
    "WarpField", "WarpParameterRange", "admissible_range", "conformal_metric",
    "equivalence_bounds", "covariant_hessian", "sectional_curvature_conformal",
    "negativity_check", "value_and_grad", "values_along",
]


@dataclass(frozen=True)
class WarpField:
    """A positive scalar field with first and second derivatives.

    ``value_at`` maps a point to ``k(p)``; ``differential_at`` to the
    coordinate differential ``dk`` (a covector); ``hessian_at`` to the
    coordinate second-derivative matrix (the covariant Hessian is
    assembled against a chart by :func:`covariant_hessian`).  ``k0`` and
    ``K0`` are the declared infimum and supremum of ``k`` over the chart;
    ``K0 = inf`` declares an unbounded field.  Bounds are the caller's
    promise and are spot-checked, not enforced pointwise.
    """

    value_at: Callable[[np.ndarray], float]
    differential_at: Callable[[np.ndarray], np.ndarray]
    hessian_at: Callable[[np.ndarray], np.ndarray]
    k0: float
    K0: float = math.inf
    value_grad_at: Optional[Callable] = None  # fast combined path
    values_many_at: Optional[Callable] = None  # batch path, rows of points
    source: Optional[str] = None  # expression text, when built from one

    def __post_init__(self):
        if not (self.k0 > 0.0):
            raise InputError(f"lower warp bound must be positive, got {self.k0}")
        if not (self.K0 >= self.k0):
            raise InputError(
                f"upper warp bound {self.K0} must be at least the lower bound {self.k0}"
            )

    @classmethod
    def from_expression(cls, text: str, dim: int, k0: float,
                        K0: float = math.inf) -> "WarpField":
        """Build a field from expression text over a ``dim``-chart."""
        expr = warpfn.parse(text, dim)

        def value(p):
            return warpfn.evaluate(expr, p)

        def diff(p):
            return warpfn.value_and_gradient(expr, p)[1]

        def hess(p):
            return warpfn.eval2(expr, p)[2]

        def value_grad(p):
            return warpfn.value_and_gradient(expr, p)

        def values_many(pts):
            return warpfn.evaluate_many(expr, pts)

        return cls(value, diff, hess, k0=k0, K0=K0, value_grad_at=value_grad,
                   values_many_at=values_many,
                   source=warpfn.format_expression(expr))

    @classmethod
    def constant(cls, c: float, dim: int) -> "WarpField":
        """The constant field ``k = c`` on a ``dim``-chart."""
        zero = np.zeros(dim)
        zero2 = np.zeros((dim, dim))
        return cls(
            lambda p: c, lambda p: zero, lambda p: zero2,
            k0=c, K0=c, value_grad_at=lambda p: (c, zero),
            values_many_at=lambda pts: np.full(np.atleast_2d(pts).shape[0], c),
        )

    def check_bounds(self, points, tol: float = 1e-9):
        """Verify the declared bounds on a sample of points."""
        for p in points:
            v = self.value_at(np.asarray(p, dtype=float))
            if v < self.k0 - tol or v > self.K0 + tol:
                raise InputError(
                    f"warp value {v} at {np.asarray(p)} violates declared "
                    f"bounds [{self.k0}, {self.K0}]"
                )


def value_and_grad(w: WarpField, p: np.ndarray) -> tuple[float, np.ndarray]:
    if w.value_grad_at is not None:
        v, g = w.value_grad_at(p)
        return v, np.asarray(g, dtype=float)
    return w.value_at(p), np.asarray(w.differential_at(p), dtype=float)


def values_along(w: WarpField, points: np.ndarray) -> np.ndarray:
    """Warp values at many points (one row each), batched when possible."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if w.values_many_at is not None:
        return np.asarray(w.values_many_at(pts), dtype=float)
    return np.array([w.value_at(p) for p in pts])


@dataclass(frozen=True)
class WarpParameterRange:
    """Open half-line ``(lower, inf)`` of admissible conformal parameters."""

    lower: float

    def contains(self, r: float) -> bool:
        return r > self.lower

    def require(self, r: float):
        if not self.contains(r):
            raise ParameterError(r, self.lower)


def admissible_range(w: WarpField) -> WarpParameterRange:
    """Admissible parameters: ``r > -1/K0`` (``r > 0`` when unbounded)."""
    lower = 0.0 if math.isinf(w.K0) else -1.0 / w.K0
    return WarpParameterRange(lower)


def conformal_metric(g1: MetricChart, w: WarpField, r: float) -> MetricChart:
    """The chart carrying the rescaled metric ``(1/k + r) g1``.

    Metric derivatives and Christoffel symbols stay analytic whenever the
    base chart supplies them, via the conformal correction

        G~^k_ij = G^k_ij + (d^k_i u_j + d^k_j u_i - g_ij g^{kl} u_l) / 2

    with ``u = d log(1/k + r) = -dk / (k (1 + r k))``.  A conformally flat
    base, ``g1 = exp(2 phi) I``, stays conformally flat with
    ``grad psi = grad phi + u / 2``, so its geodesics keep the closed-form
    spray.
    """
    admissible_range(w).require(r)
    dim = g1.dim
    eye = np.eye(dim)

    def factor(p):
        return 1.0 / w.value_at(p) + r

    def metric(p):
        return factor(p) * g1.metric_at(p)

    dmetric = None
    if g1.metric_derivative_at is not None:

        def dmetric(p):
            v, dk = value_and_grad(w, p)
            base = np.asarray(g1.metric_derivative_at(p), dtype=float)
            dh = -dk / (v * v)
            return (1.0 / v + r) * base + np.einsum(
                "ij,k->ijk", np.asarray(g1.metric_at(p), dtype=float), dh
            )

    gamma = None
    if g1.christoffel_at is not None:

        def gamma(p):
            v, dk = value_and_grad(w, p)
            u = -dk / (v * (1.0 + r * v))
            g = np.asarray(g1.metric_at(p), dtype=float)
            G = np.asarray(g1.christoffel_at(p), dtype=float).copy()
            G += 0.5 * (
                np.einsum("ki,j->kij", eye, u) + np.einsum("kj,i->kij", eye, u)
                - np.einsum("ij,k->kij", g, np.linalg.solve(g, u))
            )
            return G

    conformal_gradient = None
    if g1.conformal_gradient_at is not None:

        def conformal_gradient(p):
            v, dk = value_and_grad(w, p)
            return g1.conformal_gradient_at(p) - dk / (2.0 * v * (1.0 + r * v))

    def sectional(p, e1, e2):
        # callers hand a pair orthonormal for the rescaled metric; scale it
        # back to a base-orthonormal pair before applying the formula
        scale = math.sqrt(1.0 / w.value_at(np.asarray(p, dtype=float)) + r)
        return _conformal_sectional(
            g1, w, r, p,
            scale * np.asarray(e1, dtype=float),
            scale * np.asarray(e2, dtype=float),
        )

    return MetricChart(
        dim=dim,
        metric_at=metric,
        metric_derivative_at=dmetric,
        christoffel_at=gamma,
        sectional_at=sectional,
        in_domain=g1.in_domain,
        name=f"conformal({g1.name}, r={r:g})",
        fd_step=g1.fd_step,
        conformal_gradient_at=conformal_gradient,
    )


def equivalence_bounds(w: WarpField, r: float) -> tuple[float, float]:
    """Bi-Lipschitz constants between the base and rescaled metrics.

    Returns ``(k2, k3)`` with ``k2 = sup t/(1 + r t)`` and
    ``k3 = sup (1 + r t)/t`` over ``t in [k0, K0]``, so that
    ``d_base <= sqrt(k2) d_rescaled`` and ``d_rescaled <= sqrt(k3) d_base``.
    Both suprema sit at interval endpoints: the first integrand is
    increasing in ``t``, the second decreasing.
    """
    admissible_range(w).require(r)
    if math.isinf(w.K0):
        k2 = 1.0 / r  # limit of t / (1 + r t) as t grows
    else:
        k2 = w.K0 / (1.0 + r * w.K0)
    k3 = (1.0 + r * w.k0) / w.k0
    return k2, k3


def covariant_hessian(g1: MetricChart, w: WarpField, p) -> np.ndarray:
    """Second covariant derivative of ``k`` on the base chart.

    ``(hess k)_ij = d_i d_j k - G^l_ij d_l k``; symmetric by construction.
    """
    p = np.asarray(p, dtype=float)
    H = np.asarray(w.hessian_at(p), dtype=float)
    dk = np.asarray(w.differential_at(p), dtype=float)
    G = christoffel(g1, p)
    return H - np.tensordot(G, dk, axes=([0], [0]))


def _dk_norm_squared(g1: MetricChart, w: WarpField, p) -> float:
    """``|dk|^2`` with the index raised by the base metric."""
    dk = np.asarray(w.differential_at(p), dtype=float)
    g = _metric(g1, p)
    return float(dk @ np.linalg.solve(g, dk))


def _conformal_sectional(g1: MetricChart, w: WarpField, r: float, p, e1, e2) -> float:
    """Sectional curvature of the rescaled metric on a base-orthonormal plane.

    ``e1, e2`` must be orthonormal for the *base* metric; the returned
    value is the curvature of their span under ``(1/k + r) g1``:

        K_r = k/(1+rk) K1
            + [hess k(e1,e1) + hess k(e2,e2)] / (2 (1+rk)^2)
            - (1+4rk) [e1(k)^2 + e2(k)^2] / (4 k (1+rk)^3)
            - |dk|^2 / (4 k (1+rk)^3)
    """
    p = np.asarray(p, dtype=float)
    u, v = _components(e1), _components(e2)
    k1_sec = sectional_curvature(g1, p, u, v)  # validates orthonormality
    k = w.value_at(p)
    dk = np.asarray(w.differential_at(p), dtype=float)
    H = covariant_hessian(g1, w, p)
    s = 1.0 + r * k
    e1k = float(dk @ u)
    e2k = float(dk @ v)
    return (
        k / s * k1_sec
        + (u @ H @ u + v @ H @ v) / (2.0 * s * s)
        - (1.0 + 4.0 * r * k) * (e1k * e1k + e2k * e2k) / (4.0 * k * s ** 3)
        - _dk_norm_squared(g1, w, p) / (4.0 * k * s ** 3)
    )


def sectional_curvature_conformal(g1: MetricChart, w: WarpField, r: float,
                                  p, e1, e2) -> float:
    """Public wrapper around the rescaled-metric sectional curvature."""
    admissible_range(w).require(r)
    return _conformal_sectional(g1, w, r, p, e1, e2)


def negativity_check(g1: MetricChart, w: WarpField, r: float, p, e,
                     plane_curvature: float) -> bool:
    """Pointwise criterion forcing the rescaled curvature negative.

    For a base-unit vector ``e`` lying in a plane of base sectional
    curvature ``plane_curvature``, checks

        hess k(e, e) < (1+4rk) e(k)^2 / (2k(1+rk))
                     + |dk|^2 / (4k(1+rk))
                     - k (1+rk) * plane_curvature

    When this holds for every unit vector of every plane on a region, all
    rescaled sectional curvatures there are negative.
    """
    admissible_range(w).require(r)
    p = np.asarray(p, dtype=float)
    u = _components(e)
    norm = metric_eval(g1, p, u, u)
    if abs(norm - 1.0) > 1e-8:
        raise InputError(f"direction must be unit for the base metric, |e|^2={norm!r}")
    k = w.value_at(p)
    dk = np.asarray(w.differential_at(p), dtype=float)
    H = covariant_hessian(g1, w, p)
    s = 1.0 + r * k
    ek = float(dk @ u)
    lhs = float(u @ H @ u)
    rhs = (
        (1.0 + 4.0 * r * k) * ek * ek / (2.0 * k * s)
        + _dk_norm_squared(g1, w, p) / (4.0 * k * s)
        - k * s * plane_curvature
    )
    return lhs < rhs
