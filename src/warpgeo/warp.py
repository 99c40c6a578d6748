"""Warping functions and the conformal metric family they induce.

A warping function is a smooth positive field ``k`` on the base chart,
given by one parsed :mod:`~warpgeo.warpfn` expression and bounded below by
``k0 > 0`` and above by ``K0`` (possibly infinite).  For
every ``r`` above the admissibility threshold the base metric is rescaled
conformally by ``1/k + r``; geodesics of the rescaled metric are the raw
material from which the mixed-signature geodesics are later rebuilt.

This module owns the rescaled charts, the bi-Lipschitz equivalence bounds
between the base metric and a rescaled one, and the curvature side: the
sectional curvature of a rescaled metric and the pointwise inequality
guaranteeing it is negative.  Both read only ``k``, ``dk``, the covariant
Hessian of ``k`` and ``|dk|^2``, taken together from one evaluation of the
expression at each point.

A conformally flat base with exponent ``phi`` gives rescaled charts with
the exponent ``phi + log(1/k + r) / 2``, one expression tree per base and
warp with ``r`` as its trailing variable; the geodesics of every rescaled
chart are integrated by that tree's generated RK4 step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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
    """A positive scalar field given by a parsed ``warpfn`` expression.

    ``value_at`` maps a point to ``k(p)``; ``differential_at`` to the
    coordinate differential ``dk`` (a covector); ``hessian_at`` to the
    coordinate second-derivative matrix (the covariant Hessian is
    assembled against a chart by :func:`covariant_hessian`).  All three are
    exact forward-mode evaluations of ``expr``.  ``k0`` and ``K0`` are the
    declared infimum and supremum of ``k`` over the chart; ``K0 = inf``
    declares an unbounded field.  Bounds are the caller's promise and are
    spot-checked, not enforced pointwise.
    """

    expr: warpfn.Expr
    k0: float
    K0: float = math.inf

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
        return cls(warpfn.parse(text, dim), k0, K0)

    @classmethod
    def constant(cls, c: float, dim: int) -> "WarpField":
        """The constant field ``k = c`` (on a chart of any dimension)."""
        return cls(warpfn.Const(float(c)), c, c)

    def value_at(self, p) -> float:
        return warpfn.evaluate(self.expr, p)

    def differential_at(self, p) -> np.ndarray:
        return warpfn.value_and_gradient(self.expr, p)[1]

    def hessian_at(self, p) -> np.ndarray:
        return warpfn.eval2(self.expr, p)[2]

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
    return warpfn.value_and_gradient(w.expr, p)


def values_along(w: WarpField, points: np.ndarray) -> np.ndarray:
    """Warp values at many points, one row each, in one batch."""
    return warpfn.evaluate_many(w.expr, points)


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
    base, ``g1 = exp(2 phi) I``, stays conformally flat with the exponent
    ``psi = phi + log(1/k + r) / 2``, in which ``r`` is a run-time argument:
    one tree, and so one compiled RK4 step, serves every ``r``.
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

    def sectional(p, e1, e2):
        # callers hand a pair orthonormal for the rescaled metric; scale it
        # back to a base-orthonormal pair before applying the formula
        jet = _jet(g1, w, p)
        scale = math.sqrt(1.0 / jet[0] + r)
        return _conformal_sectional(
            g1, w, r, p,
            scale * np.asarray(e1, dtype=float),
            scale * np.asarray(e2, dtype=float),
            jet,
        )

    exponent, args = None, ()
    if g1.exponent is not None:
        exponent, args = _rescaled_exponent(g1, w), (*g1.exponent_args, r)
    return MetricChart(
        dim=dim,
        metric_at=metric,
        metric_derivative_at=dmetric,
        christoffel_at=gamma,
        sectional_at=sectional,
        in_domain=g1.in_domain,
        name=f"conformal({g1.name}, r={r:g})",
        fd_step=g1.fd_step,
        exponent=exponent,
        exponent_args=args,
    )


def _rescaled_exponent(g1: MetricChart, w: WarpField) -> warpfn.Expr:
    """``phi + log(1/k + r) / 2`` with ``r`` the variable after the base
    exponent's own, built once per base chart and warp expression (kept on
    the chart, by identity) so that every ``r`` shares one compiled step."""
    cache = g1.__dict__.setdefault("_rescaled", {})
    hit = cache.get(id(w.expr))
    if hit is None or hit[0] is not w.expr:
        r = warpfn.Var(g1.dim + len(g1.exponent_args))
        factor = warpfn.Binary("+", warpfn.Binary("/", warpfn.Const(1.0), w.expr), r)
        psi = warpfn.Binary("+", g1.exponent, warpfn.Binary(
            "*", warpfn.Const(0.5), warpfn.Call("log", factor)))
        hit = cache[id(w.expr)] = (w.expr, psi)
    return hit[1]


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


def _jet(g1: MetricChart, w: WarpField, p):
    """``(k, dk, covariant Hessian of k, |dk|^2)`` at ``p`` on the base chart.

    ``(hess k)_ij = d_i d_j k - G^l_ij d_l k``, and ``|dk|^2`` raises the
    index with the base metric.
    """
    p = np.asarray(p, dtype=float)
    k, dk, H = warpfn.eval2(w.expr, p)
    H = H - np.tensordot(christoffel(g1, p), dk, axes=([0], [0]))
    return k, dk, H, float(dk @ np.linalg.solve(_metric(g1, p), dk))


def covariant_hessian(g1: MetricChart, w: WarpField, p) -> np.ndarray:
    """Second covariant derivative of ``k`` on the base chart.

    ``(hess k)_ij = d_i d_j k - G^l_ij d_l k``; symmetric by construction.
    """
    return _jet(g1, w, p)[2]


def _conformal_sectional(g1: MetricChart, w: WarpField, r: float, p, e1, e2,
                         jet=None) -> float:
    """Sectional curvature of the rescaled metric on a base-orthonormal plane.

    ``e1, e2`` must be orthonormal for the *base* metric; ``jet`` is
    ``_jet(g1, w, p)`` when the caller has it.  The returned value is the
    curvature of their span under ``(1/k + r) g1``:

        K_r = k/(1+rk) K1
            + [hess k(e1,e1) + hess k(e2,e2)] / (2 (1+rk)^2)
            - (1+4rk) [e1(k)^2 + e2(k)^2] / (4 k (1+rk)^3)
            - |dk|^2 / (4 k (1+rk)^3)
    """
    p = np.asarray(p, dtype=float)
    u, v = _components(e1), _components(e2)
    k1_sec = sectional_curvature(g1, p, u, v)  # validates orthonormality
    k, dk, H, dk2 = _jet(g1, w, p) if jet is None else jet
    s = 1.0 + r * k
    e1k = float(dk @ u)
    e2k = float(dk @ v)
    return (
        k / s * k1_sec
        + (u @ H @ u + v @ H @ v) / (2.0 * s * s)
        - (1.0 + 4.0 * r * k) * (e1k * e1k + e2k * e2k) / (4.0 * k * s ** 3)
        - dk2 / (4.0 * k * s ** 3)
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
    k, dk, H, dk2 = _jet(g1, w, p)
    s = 1.0 + r * k
    ek = float(dk @ u)
    lhs = float(u @ H @ u)
    rhs = (
        (1.0 + 4.0 * r * k) * ek * ek / (2.0 * k * s)
        + dk2 / (4.0 * k * s)
        - k * s * plane_curvature
    )
    return lhs < rhs
