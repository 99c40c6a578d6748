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
guaranteeing it is negative.  Both come from one batch kernel,
:func:`rescaled_curvature`, which reads only ``k``, ``dk``, the covariant
Hessian of ``k`` and ``|dk|^2``, taken together from one evaluation of the
expression at each point, for any number of ``r`` values and planes there.

A conformally flat base with exponent ``phi`` gives rescaled charts with
the exponent ``phi + log(1/k + r) / 2``, one expression tree per base and
warp with ``r`` as its trailing variable; the geodesics of every rescaled
chart are integrated by that tree's generated RK4 step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import warpfn
from .errors import InputError, NumericalError, ParameterError
from .manifold import (
    MetricChart, _components_at, _metric, _quadratic, _require_orthonormal,
    christoffel, geometry_at, sectional_curvature,
)

__all__ = [
    "WarpField", "WarpParameterRange", "admissible_range", "conformal_metric",
    "equivalence_bounds", "covariant_hessian", "rescaled_curvature",
    "sectional_curvature_conformal", "negativity_check", "value_and_grad", "values_along",
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
    not enforced; :meth:`check_bounds` is the spot check a caller may run.
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


def _require_rescalable(w: WarpField, r: float, points, k: np.ndarray):
    """Raise :class:`NumericalError` unless ``k > 0`` and ``1 + r k > 0`` at
    every row of ``points``, ``k`` the warp there: the factor ``1/k + r``
    of the rescaled metric ``(1/k + r) g1`` needs both, and the declared
    bounds promise them for every admissible ``r``.  The error names the
    first failing point, ``k``, ``r`` and the declared ``[k0, K0]``."""
    bad = ~((k > 0.0) & (1.0 + r * k > 0.0))
    if bad.any():
        i = int(np.argmax(bad))
        what = f"1 + r k = {float(1.0 + r * k[i])!r}" if k[i] > 0.0 else "the warp"
        raise NumericalError(
            f"{what} is not positive at {np.asarray(points)[i].tolist()}, "
            f"where k = {float(k[i])!r}, at r = {r!r}: the warp leaves its "
            f"declared bounds [k0, K0] = [{w.k0!r}, {w.K0!r}]")


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

    A conformally flat base, ``g1 = exp(2 phi) I``, stays conformally flat
    and gives the chart of the exponent ``psi = phi + log(1/k + r) / 2``,
    in which ``r`` is a run-time argument: one interned tree per base
    exponent and warp expression, and so one RK4 step compiled per process,
    serves every ``r`` and every chart or warp parsed again from the same
    text.  That chart's domain is where ``psi`` is defined: the base's,
    where also ``k != 0`` and ``1/k + r > 0``, so a warp above its declared
    ``K0`` ends a geodesic there.  Any other base gives a chart whose
    Christoffel symbols are the
    base chart's (closed-form, or differenced when the base has none) plus
    the conformal correction

        G~^k_ij = G^k_ij + (d^k_i u_j + d^k_j u_i - g_ij g^{kl} u_l) / 2

    with ``u = d log(1/k + r) = -dk / (k (1 + r k))``.  The chart holds
    ``r`` as a Python float, so the generated loop never does numpy-scalar
    arithmetic.
    """
    admissible_range(w).require(r)
    r = float(r)
    dim = g1.dim
    name = f"conformal({g1.name}, r={r:g})"

    def sectional(p, e1, e2):
        # callers hand pairs orthonormal for the rescaled metric, in a
        # batch that broadcasts; each pair is one row of the kernel
        p, e1, e2 = np.broadcast_arrays(*(np.asarray(v, dtype=float) for v in (p, e1, e2)))
        frames = np.stack([e1, e2], axis=-2).reshape(-1, 1, 1, 2, dim)
        K = rescaled_curvature(g1, w, p.reshape(-1, dim), [r], frames, rescaled=True)[0]
        return K.reshape(p.shape[:-1])

    if g1.exponent is not None:
        return MetricChart(dim=dim, sectional_at=sectional,
                           name=name, exponent_args=(*g1.exponent_args, r),
                           exponent=_rescaled_exponent(
                               g1.exponent, dim + len(g1.exponent_args), w.expr))
    eye = np.eye(dim)

    def metric(p):
        return (1.0 / w.value_at(p) + r) * _metric(g1, p)

    def gamma(p):
        v, dk = value_and_grad(w, p)
        u = -dk / (v * (1.0 + r * v))
        g = _metric(g1, p)
        return christoffel(g1, p) + 0.5 * (
            np.einsum("ki,j->kij", eye, u) + np.einsum("kj,i->kij", eye, u)
            - np.einsum("ij,k->kij", g, np.linalg.solve(g, u))
        )

    return MetricChart(dim=dim, metric_at=metric, christoffel_at=gamma,
                       sectional_at=sectional, in_domain=g1.in_domain, name=name)


@lru_cache(maxsize=warpfn._CACHE_SIZE)
def _rescaled_exponent(phi: warpfn.Expr, r_index: int, k: warpfn.Expr) -> warpfn.Expr:
    """``phi + log(1/k + r) / 2`` with ``r`` the variable of index ``r_index``.

    Interning makes the tree one object per ``(phi, r_index, k)``, and so
    one compiled loop for every value of ``r``; the memo only spares
    building it again on every dial evaluation."""
    factor = warpfn.Binary("+", warpfn.Binary("/", warpfn.Const(1.0), k),
                           warpfn.Var(r_index))
    return warpfn.Binary("+", phi, warpfn.Binary(
        "*", warpfn.Const(0.5), warpfn.Call("log", factor)))


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


def _jets(g1: MetricChart, w: WarpField, points):
    """``(k, dk, covariant Hessian of k, |dk|^2, g)`` at each row of
    ``points`` on the base chart, with ``g`` the base metric there.

    ``(hess k)_ij = d_i d_j k - G^l_ij d_l k``, and ``|dk|^2`` raises the
    index with the base metric.  The warp's jet is evaluated point by
    point; the base metric, its inverse and ``G`` come from one
    :func:`~warpgeo.manifold.geometry_at`.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    k, dk, H = (np.array(c) for c in zip(*(warpfn.eval2(w.expr, p) for p in points)))
    g, inverse, G = geometry_at(g1, points)
    H = H - (dk[:, None, :] @ G.reshape(len(points), g1.dim, -1)).reshape(H.shape)
    return k, dk, H, _quadratic(dk, inverse, dk), g


def covariant_hessian(g1: MetricChart, w: WarpField, p) -> np.ndarray:
    """Second covariant derivative of ``k`` on the base chart.

    ``(hess k)_ij = d_i d_j k - G^l_ij d_l k``; symmetric by construction.
    """
    return _jets(g1, w, p)[2][0]


def rescaled_curvature(g1: MetricChart, w: WarpField, points, r_values, frames,
                       plane_curvature=None, rescaled: bool = False):
    """Rescaled sectional curvatures and the negativity criterion, in one batch.

    ``points`` is ``(P, d)``, ``r_values`` ``(R,)`` and ``frames``
    ``(P, R, Q, m, d)``: at each point and ``r``, ``Q`` frames of ``m``
    vectors orthonormal for the base metric, or for ``(1/k + r) g1`` when
    ``rescaled`` (they are then scaled back by ``sqrt(1/k + r)``).  A frame
    of two spans a plane; ``plane_curvature``, broadcasting against
    ``(P, R, Q)``, is the base sectional curvature ``K1`` of each.  When it
    is not given it is read from the chart: from one batched call of its
    ``sectional_at`` for all planes, or plane by plane from the differenced
    curvature tensor on a chart without one.  A frame of one vector spans
    no plane, so it needs ``plane_curvature`` given.

    Every ``r`` is checked admissible and a frame of one vector given its
    ``plane_curvature`` before any work, ``k > 0`` and ``1 + r k > 0`` at
    every point (:class:`NumericalError` where a warp outside its declared
    bounds breaks it), and the frames orthonormal after scaling.  The
    warp's jet is evaluated once per point; the rest is array expressions
    over all ``(point, r, frame)`` rows.
    Returns ``(K, ok)``.  ``K`` is ``(P, R, Q)``, the curvature of each
    plane under ``(1/k + r) g1`` (``None`` for frames of one vector):

        K_r = k/(1+rk) K1
            + [hess k(e1,e1) + hess k(e2,e2)] / (2 (1+rk)^2)
            - (1+4rk) [e1(k)^2 + e2(k)^2] / (4 k (1+rk)^3)
            - |dk|^2 / (4 k (1+rk)^3)

    ``ok`` is ``(P, R, Q, m)``: whether each frame vector ``e`` satisfies

        hess k(e, e) < (1+4rk) e(k)^2 / (2k(1+rk)) + |dk|^2 / (4k(1+rk))
                       - k (1+rk) K1

    When this holds for every unit vector of every plane on a region, all
    rescaled sectional curvatures there are negative.
    """
    admissible = admissible_range(w)
    for r in r_values:
        admissible.require(float(r))
    points = np.asarray(points, dtype=float)
    e = np.asarray(frames, dtype=float)
    if plane_curvature is None and e.shape[3] < 2:
        raise InputError("a frame of one vector spans no plane: it needs "
                         "plane_curvature, the base curvature of its plane")
    k, dk, H, dk2, g = _jets(g1, w, points)
    for r in r_values:
        _require_rescalable(w, float(r), points, k)
    # row quantities carry a trailing axis that broadcasts over frame vectors
    k, dk2 = k[:, None, None, None], dk2[:, None, None, None]
    r = np.asarray(r_values, dtype=float)[:, None, None]
    if rescaled:
        e = np.sqrt(1.0 / k + r)[..., None] * e
    _require_orthonormal(g[:, None, None], e)
    if plane_curvature is None and g1.sectional_at is not None:
        plane_curvature = np.broadcast_to(g1.sectional_at(
            points[:, None, None], e[..., 0, :], e[..., 1, :]), e.shape[:3])
    elif plane_curvature is None:
        plane_curvature = np.reshape([
            sectional_curvature(g1, p, *f) for p, at_p in zip(points, e)
            for f in at_p.reshape(-1, *e.shape[3:])
        ], e.shape[:3])
    K1 = np.asarray(plane_curvature, dtype=float)[..., None]
    s = 1.0 + r * k
    c = 1.0 + 4.0 * r * k
    # matrix products, which round as the one-sample dk @ e and e @ H @ e do
    row = e[..., None, :]
    ek = (row @ dk[:, None, None, None, :, None])[..., 0, 0]
    eHe = (row @ H[:, None, None, None] @ e[..., None])[..., 0, 0]
    ok = eHe < c * ek * ek / (2.0 * k * s) + dk2 / (4.0 * k * s) - k * s * K1
    if e.shape[3] != 2:
        return None, ok
    # C pow, as for one float: numpy's vector power may round s^3 differently
    s3 = np.reshape([x ** 3 for x in s.ravel().tolist()], s.shape)
    K = (
        k / s * K1
        + eHe.sum(axis=-1, keepdims=True) / (2.0 * s * s)
        - c * (ek * ek).sum(axis=-1, keepdims=True) / (4.0 * k * s3)
        - dk2 / (4.0 * k * s3)
    )
    return K[..., 0], ok


def _one_row(g1, w, r, p, vectors, **kwargs):
    """:func:`rescaled_curvature` at one point and ``r`` on one frame."""
    p = np.asarray(p, dtype=float)
    frame = np.array([_components_at(v, p) for v in vectors])
    return rescaled_curvature(g1, w, p[None], [r], frame[None, None, None], **kwargs)


def sectional_curvature_conformal(g1: MetricChart, w: WarpField, r: float,
                                  p, e1, e2) -> float:
    """Sectional curvature of ``(1/k + r) g1`` on the plane of a
    base-orthonormal pair: one row of :func:`rescaled_curvature`."""
    return _one_row(g1, w, r, p, (e1, e2))[0].item()


def negativity_check(g1: MetricChart, w: WarpField, r: float, p, e,
                     plane_curvature: float) -> bool:
    """Pointwise criterion forcing the rescaled curvature negative, for a
    base-unit vector ``e`` in a plane of base sectional curvature
    ``plane_curvature``: one row of :func:`rescaled_curvature`."""
    return _one_row(g1, w, r, p, (e,), plane_curvature=plane_curvature)[1].item()
