"""Coordinate charts with Riemannian metrics and their Levi-Civita data.

A manifold factor is represented by a single coordinate chart carrying a
smooth positive-definite metric.  Everything downstream (geodesic
integration, conformal rescaling, curvature checks) consumes charts through
the small set of operations here: metric evaluation, Christoffel symbols,
index raising, the geodesic right-hand side, and sectional curvature.

Charts are plain data: a dimension plus callables.  Analytic metric
derivatives, Christoffel symbols, and sectional curvature may be supplied
where known (all built-in charts do), with central finite differences as
the fallback for user-defined metrics.  A conformally flat chart, metric
``exp(2 phi)`` times the identity, may also carry its conformal exponent
``phi`` as a :mod:`~warpgeo.warpfn` tree; its geodesics are then
integrated by one generated float RK4 step
(:func:`~warpgeo.warpfn.rk4_geodesic_step`) instead of a contraction of
Christoffel symbols, which such a chart derives from ``grad phi``.  The
flat, hyperbolic, weighted-line and circle charts carry one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import warpfn
from .errors import DslEvaluationError, InputError, NumericalError

__all__ = [
    "MetricChart", "TangentVector", "metric_eval", "christoffel", "sharp",
    "geodesic_rhs", "sectional_curvature", "euclidean", "poincare_half_plane",
    "poincare_ball", "sphere", "circle", "weighted_line",
]

DEFAULT_FD_STEP = 1e-5


@dataclass(frozen=True)
class MetricChart:
    """A coordinate chart with a Riemannian metric.

    Parameters
    ----------
    dim : int
        Number of coordinates.
    metric_at : callable
        Point -> (dim, dim) symmetric positive-definite matrix.
    metric_derivative_at : callable, optional
        Point -> (dim, dim, dim) array ``d[i, j, k] = d g_ij / d x^k``.
        When omitted, central differences of ``metric_at`` with step
        ``fd_step`` are used.
    christoffel_at : callable, optional
        Point -> (dim, dim, dim) array ``G[k, i, j]`` of Christoffel
        symbols; analytic fast path used by the integrators when present.
    sectional_at : callable, optional
        ``(point, e1, e2) -> float`` analytic sectional curvature of the
        plane spanned by an orthonormal pair.
    in_domain : callable, optional
        Point -> bool chart-domain predicate; default accepts everything.
    exponent : warpfn.Expr, optional
        The exponent ``phi`` of a chart whose metric is ``exp(2 phi)``
        times the identity, in the chart's coordinates followed by one
        variable per entry of ``exponent_args``; geodesics of such a chart
        are integrated by its generated RK4 step.
    exponent_args : tuple of float
        Run-time values of the exponent's trailing variables (the
        rescaling parameter ``r`` of a conformally rescaled chart).
    """

    dim: int
    metric_at: Callable[[np.ndarray], np.ndarray]
    metric_derivative_at: Optional[Callable[[np.ndarray], np.ndarray]] = None
    christoffel_at: Optional[Callable[[np.ndarray], np.ndarray]] = None
    sectional_at: Optional[Callable] = None
    in_domain: Optional[Callable[[np.ndarray], bool]] = None
    name: str = "chart"
    fd_step: float = DEFAULT_FD_STEP
    exponent: Optional[warpfn.Expr] = None
    exponent_args: tuple = ()

    def __post_init__(self):
        if self.dim < 1:
            raise InputError(f"chart dimension must be positive, got {self.dim}")

    def contains(self, p) -> bool:
        return self.in_domain is None or bool(self.in_domain(np.asarray(p, dtype=float)))


@dataclass(frozen=True)
class TangentVector:
    """A vector attached to a base point, both in chart coordinates."""

    base: np.ndarray
    components: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "base", np.asarray(self.base, dtype=float))
        object.__setattr__(self, "components", np.asarray(self.components, dtype=float))
        if self.base.shape != self.components.shape or self.base.ndim != 1:
            raise InputError(
                f"base {self.base.shape} and components {self.components.shape} "
                "must be 1-d arrays of equal length"
            )


def _components(v) -> np.ndarray:
    if isinstance(v, TangentVector):
        return v.components
    return np.asarray(v, dtype=float)


def _metric(chart: MetricChart, p: np.ndarray) -> np.ndarray:
    g = np.asarray(chart.metric_at(p), dtype=float)
    if g.shape != (chart.dim, chart.dim):
        raise InputError(
            f"metric_at returned shape {g.shape}, expected {(chart.dim, chart.dim)}"
        )
    return g


def metric_eval(chart: MetricChart, p, u, v) -> float:
    """Inner product ``g(u, v)`` at point ``p``.

    ``u`` and ``v`` may be :class:`TangentVector` (bases are checked
    against ``p``) or plain component arrays.
    """
    p = np.asarray(p, dtype=float)
    for vec in (u, v):
        if isinstance(vec, TangentVector) and not np.allclose(vec.base, p, atol=1e-12):
            raise InputError(f"tangent vector based at {vec.base} evaluated at {p}")
    g = _metric(chart, p)
    return float(_components(u) @ g @ _components(v))


def metric_derivative(chart: MetricChart, p) -> np.ndarray:
    """Array ``d[i, j, k] = d g_ij / d x^k``, analytic or central-difference."""
    p = np.asarray(p, dtype=float)
    if chart.metric_derivative_at is not None:
        return np.asarray(chart.metric_derivative_at(p), dtype=float)
    h = chart.fd_step
    d = np.empty((chart.dim, chart.dim, chart.dim))
    for k in range(chart.dim):
        step = np.zeros(chart.dim)
        step[k] = h
        d[:, :, k] = (_metric(chart, p + step) - _metric(chart, p - step)) / (2.0 * h)
    return d


def christoffel(chart: MetricChart, p) -> np.ndarray:
    """Christoffel symbols ``G[k, i, j]`` of the Levi-Civita connection.

    Uses the chart's analytic symbols when available, otherwise assembles
    them from the metric and its derivative:

        G^k_ij = 1/2 g^{kl} (d_i g_jl + d_j g_il - d_l g_ij)
    """
    p = np.asarray(p, dtype=float)
    if chart.christoffel_at is not None:
        return np.asarray(chart.christoffel_at(p), dtype=float)
    g = _metric(chart, p)
    dg = metric_derivative(chart, p)
    # brackets[l, i, j] = 1/2 (d_i g_jl + d_j g_il - d_l g_ij)
    brackets = 0.5 * (
        np.transpose(dg, (1, 2, 0)) + np.transpose(dg, (1, 0, 2))
        - np.transpose(dg, (2, 0, 1))
    )
    try:
        return np.linalg.solve(g, brackets.reshape(chart.dim, -1)).reshape(
            (chart.dim,) * 3
        )
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"singular metric at {p}: {exc}") from exc


def sharp(chart: MetricChart, p, covector) -> TangentVector:
    """Raise an index: the vector ``g^{-1} w`` for a covector ``w`` at ``p``."""
    p = np.asarray(p, dtype=float)
    w = np.asarray(covector, dtype=float)
    g = _metric(chart, p)
    try:
        return TangentVector(p, np.linalg.solve(g, w))
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"singular metric at {p}: {exc}") from exc


def geodesic_rhs(chart: MetricChart, p, v) -> np.ndarray:
    """Acceleration ``a^k = -G^k_ij v^i v^j`` of the geodesic equation."""
    v = _components(v)
    G = christoffel(chart, p)
    return -(G @ v) @ v


def riemann_tensor(chart: MetricChart, p) -> np.ndarray:
    """Curvature tensor ``R[a, b, c, d]`` with ``(R(X, Y)Z)^a = R[a,b,c,d] Z^b X^c Y^d``.

    Built from the Christoffel symbols and their central-difference
    derivatives; second-order accurate in the chart's ``fd_step``.
    """
    p = np.asarray(p, dtype=float)
    n = chart.dim
    h = chart.fd_step
    dG = np.empty((n, n, n, n))  # dG[a, i, j, m] = d_m G^a_ij
    for m in range(n):
        step = np.zeros(n)
        step[m] = h
        dG[:, :, :, m] = (christoffel(chart, p + step) - christoffel(chart, p - step)) / (2.0 * h)
    G = christoffel(chart, p)
    # R^a_bcd = d_c G^a_db - d_d G^a_cb + G^a_ce G^e_db - G^a_de G^e_cb
    R = np.transpose(dG, (0, 2, 3, 1)) - np.transpose(dG, (0, 2, 1, 3))
    R += np.einsum("ace,edb->abcd", G, G) - np.einsum("ade,ecb->abcd", G, G)
    return R


def _require_orthonormal(chart: MetricChart, p, e1, e2, tol=1e-8):
    n1 = metric_eval(chart, p, e1, e1)
    n2 = metric_eval(chart, p, e2, e2)
    n12 = metric_eval(chart, p, e1, e2)
    if abs(n1 - 1.0) > tol or abs(n2 - 1.0) > tol or abs(n12) > tol:
        raise InputError(
            f"plane basis not orthonormal: |e1|^2={n1!r}, |e2|^2={n2!r}, <e1,e2>={n12!r}"
        )


def sectional_curvature(chart: MetricChart, p, e1, e2) -> float:
    """Sectional curvature of the plane spanned by an orthonormal pair.

    Uses the chart's analytic value when supplied, otherwise contracts the
    finite-difference curvature tensor: ``K = g(R(e1, e2) e2, e1)``.
    """
    p = np.asarray(p, dtype=float)
    _require_orthonormal(chart, p, e1, e2)
    u, w = _components(e1), _components(e2)
    if chart.sectional_at is not None:
        return float(chart.sectional_at(p, u, w))
    R = riemann_tensor(chart, p)
    vec = np.einsum("abcd,b,c,d->a", R, w, u, w)
    g = _metric(chart, p)
    return float(u @ g @ vec)


# ---------------------------------------------------------------------------
# built-in charts


def euclidean(dim: int) -> MetricChart:
    """Flat space R^n with the identity metric."""
    eye = np.eye(dim)
    zeros3 = np.zeros((dim, dim, dim))
    return MetricChart(
        dim=dim,
        metric_at=lambda p: eye,
        metric_derivative_at=lambda p: zeros3,
        christoffel_at=lambda p: zeros3,
        sectional_at=(lambda p, e1, e2: 0.0) if dim >= 2 else None,
        name=f"euclidean{dim}",
        exponent=warpfn.Const(0.0),
    )


def _conformal_flat_christoffel(phi: warpfn.Expr, dim: int, in_domain):
    """Christoffel symbols ``d^k_i s_j + d^k_j s_i - d_ij s^k`` of
    ``exp(2 phi) * (flat metric)``, with ``s = grad phi``.

    Where the exponent is undefined because the point is off the chart
    (``in_domain`` false), that is a :class:`NumericalError`, like a curve
    leaving the chart, not an expression error.
    """
    eye = np.eye(dim)
    # linear in s: G = T s with T[k, i, j, m] = d_ki d_jm + d_kj d_im - d_ij d_km
    T = np.einsum("ki,jm->kijm", eye, eye) + np.einsum("kj,im->kijm", eye, eye)
    T -= np.einsum("ij,km->kijm", eye, eye)

    def christoffel_at(p):
        try:
            s = warpfn.value_and_gradient(phi, p)[1]
        except DslEvaluationError as exc:
            if in_domain(p):
                raise
            raise NumericalError(f"no Christoffel symbols off the chart, at {p}") from exc
        return T @ s

    return christoffel_at


def poincare_half_plane() -> MetricChart:
    """Hyperbolic plane, upper half-plane model: ``g = (dx^2 + dy^2) / y^2``."""

    def metric(p):
        return np.eye(2) / p[1] ** 2

    def dmetric(p):
        d = np.zeros((2, 2, 2))
        d[0, 0, 1] = d[1, 1, 1] = -2.0 / p[1] ** 3
        return d

    def in_domain(p):
        return p[1] > 0.0

    phi = warpfn.parse("-log(x2)", 2)
    return MetricChart(
        dim=2,
        metric_at=metric,
        metric_derivative_at=dmetric,
        christoffel_at=_conformal_flat_christoffel(phi, 2, in_domain),
        sectional_at=lambda p, e1, e2: -1.0,
        in_domain=in_domain,
        name="poincare_half_plane",
        exponent=phi,
    )


def poincare_ball(dim: int = 2) -> MetricChart:
    """Hyperbolic space, ball model: ``g = 4 (1 - |x|^2)^{-2} * euclidean``."""
    if dim < 2:
        raise InputError("poincare_ball needs dim >= 2")
    eye = np.eye(dim)

    def lam2(p):
        return (2.0 / (1.0 - p @ p)) ** 2

    def metric(p):
        return lam2(p) * eye

    def dmetric(p):
        s = 1.0 - p @ p
        d = np.zeros((dim, dim, dim))
        for k in range(dim):
            d[:, :, k] = (16.0 * p[k] / s ** 3) * eye
        return d

    # |x|^2 as products, which a float step may overflow to inf where a
    # power would raise
    norm2 = " + ".join(f"x{i}*x{i}" for i in range(1, dim + 1))
    phi = warpfn.parse(f"log(2) - log(1 - ({norm2}))", dim)

    def in_domain(p):
        return float(p @ p) < 1.0

    return MetricChart(
        dim=dim,
        metric_at=metric,
        metric_derivative_at=dmetric,
        christoffel_at=_conformal_flat_christoffel(phi, dim, in_domain),
        sectional_at=lambda p, e1, e2: -1.0,
        in_domain=in_domain,
        name=f"poincare_ball{dim}",
        exponent=phi,
    )


def sphere(dim: int = 2, radius: float = 1.0) -> MetricChart:
    """Round sphere S^n of the given radius in nested angular coordinates.

    Coordinates ``(t1, .., tn)`` with ``g_ii = R^2 * prod_{j<i} sin^2(t_j)``;
    for ``n = 1`` this is a circle of circumference ``2 pi R`` with a flat
    chart on the angle, for ``n = 2`` the usual colatitude/longitude chart.
    """
    if dim < 1:
        raise InputError("sphere needs dim >= 1")
    if radius <= 0:
        raise InputError(f"sphere radius must be positive, got {radius}")
    R2 = radius * radius

    def factors(p):
        f = np.empty(dim)
        f[0] = R2
        for i in range(1, dim):
            f[i] = f[i - 1] * np.sin(p[i - 1]) ** 2
        return f

    def metric(p):
        return np.diag(factors(p))

    def dmetric(p):
        f = factors(p)
        d = np.zeros((dim, dim, dim))
        for i in range(1, dim):
            for m in range(i):
                # d g_ii / d t_m = 2 cot(t_m) g_ii
                d[i, i, m] = 2.0 * f[i] / np.tan(p[m])
        return d

    def in_domain(p):
        # interior angles must avoid the coordinate poles
        return all(0.0 < p[j] < np.pi for j in range(dim - 1)) if dim > 1 else True

    return MetricChart(
        dim=dim,
        metric_at=metric,
        metric_derivative_at=dmetric,
        sectional_at=(lambda p, e1, e2: 1.0 / R2) if dim >= 2 else None,
        in_domain=in_domain,
        name=f"sphere{dim}",
        # one angle: the constant metric R^2 is exp(2 phi) with phi = log(R)
        exponent=warpfn.Call("log", warpfn.Const(float(radius))) if dim == 1 else None,
    )


def circle(radius: float = 1.0) -> MetricChart:
    """Circle of the given radius; alias for ``sphere(dim=1)``."""
    return sphere(dim=1, radius=radius)


def weighted_line(weight) -> MetricChart:
    """The real line with metric ``f(t) dt^2`` for a positive weight ``f``.

    ``weight`` is an expression string in the variable ``t`` (or ``x1``),
    or an already parsed expression node.  The chart's domain is where the
    weight is positive: metric values raise :class:`NumericalError` at a
    non-positive or NaN weight, Christoffel symbols at a non-positive one.
    """
    expr = warpfn.parse(weight, 1) if isinstance(weight, str) else weight

    def f_df(p):
        v, g = warpfn.value_and_gradient(expr, p)
        if not v > 0.0:
            raise NumericalError(f"line weight must stay positive, got {v} at {p}")
        return v, g[0]

    def metric(p):
        return np.array([[f_df(p)[0]]])

    def dmetric(p):
        return np.array([[[f_df(p)[1]]]])

    def in_domain(p):
        return warpfn.evaluate(expr, p) > 0.0

    # f = exp(2 phi), so phi = log(f) / 2
    phi = warpfn.Binary("*", warpfn.Const(0.5), warpfn.Call("log", expr))
    return MetricChart(
        dim=1,
        metric_at=metric,
        metric_derivative_at=dmetric,
        christoffel_at=_conformal_flat_christoffel(phi, 1, in_domain),
        in_domain=in_domain,
        name="weighted_line",
        exponent=phi,
    )
