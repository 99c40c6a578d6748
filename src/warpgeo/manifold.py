"""Coordinate charts with Riemannian metrics and their Levi-Civita data.

A manifold factor is represented by a single coordinate chart carrying a
smooth positive-definite metric.  Everything downstream (geodesic
integration, conformal rescaling, curvature checks) consumes charts through
the small set of operations here: metric evaluation, Christoffel symbols,
index raising, the geodesic right-hand side, and sectional curvature.

Charts are plain data: a dimension plus one definition of the metric.
Either the chart has a metric callable, with its Christoffel symbols in
closed form beside it or, when it has none (a user-defined metric), from
central differences of the metric with the step ``FD_STEP``; or it is
conformally flat, metric ``exp(2 phi)`` times the identity, and is its
conformal exponent ``phi``, a :mod:`~warpgeo.warpfn` tree.  Such a chart's
metric is ``exp(2 phi) I``, its Christoffel symbols are ``T @ grad phi``,
its geodesics are integrated by one generated float RK4 loop
(:func:`~warpgeo.warpfn.rk4_geodesic_loop`), and its domain is where the
exponent is defined (:func:`~warpgeo.warpfn.domain_failure`): ``x2 > 0``
for the half-plane's ``-log(x2)``, ``|x|^2 < 1`` for the ball, a positive
weight for the weighted line.  The flat, hyperbolic, weighted-line and
circle charts are exponents; the round spheres of dimension two and more
are metric callables with a domain predicate beside them.  Sectional
curvature may be supplied in closed form too, and is otherwise contracted
from the differenced curvature tensor.  Domain tests take the point as
given, any sequence of floats.

:func:`metrics_at` and :func:`geometry_at` give the metric, its inverse
and the Christoffel symbols at many points: from one batch of ``phi`` and
``grad phi`` on a chart with an exponent, stacked point by point on any
other.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import warpfn
from .errors import DslEvaluationError, InputError, NumericalError

__all__ = [
    "MetricChart", "TangentVector", "metric_eval", "christoffel", "sharp",
    "metrics_at", "geometry_at",
    "geodesic_rhs", "sectional_curvature", "euclidean", "poincare_half_plane",
    "poincare_ball", "sphere", "circle", "weighted_line",
]

# step of the central differences behind charts without closed forms
FD_STEP = 1e-5


@dataclass(frozen=True)
class MetricChart:
    """A coordinate chart with a Riemannian metric.

    The metric is given once: by ``metric_at`` (with ``christoffel_at``
    optional) or by ``exponent``, never both.

    Parameters
    ----------
    dim : int
        Number of coordinates.
    metric_at : callable, optional
        Point -> (dim, dim) symmetric positive-definite matrix.
    christoffel_at : callable, optional
        Point -> (dim, dim, dim) array ``G[k, i, j]`` of Christoffel
        symbols in closed form, beside ``metric_at``; when omitted they are
        assembled from central differences of ``metric_at``.
    sectional_at : callable, optional
        ``(points, e1, e2)`` -> analytic sectional curvature of the planes
        spanned by orthonormal pairs, in one batch: points ``(..., dim)``
        and pair vectors ``(..., dim)`` whose leading axes broadcast, and
        a value that broadcasts over those leading axes (a constant for a
        chart of constant curvature).  Without it, a plane's curvature is
        contracted from the differenced curvature tensor, one plane at a
        time.
    in_domain : callable, optional
        Point -> bool chart-domain predicate beside ``metric_at``; default
        accepts everything.  It is called with the point as given, which
        may be any sequence of floats (a tuple, a list or an array).  An
        exponent chart takes none: its domain is where its exponent is
        defined.
    exponent : warpfn.Expr, optional
        The exponent ``phi`` of a chart whose metric is ``exp(2 phi)``
        times the identity, in the chart's coordinates followed by one
        variable per entry of ``exponent_args``; the chart's metric,
        Christoffel symbols and generated RK4 step all derive from it.
    exponent_args : tuple of float
        Run-time values of the exponent's trailing variables (the
        rescaling parameter ``r`` of a conformally rescaled chart).

    An exponent that reads no variable, defined but not finite (a line
    weight that overflows, say), raises :class:`NumericalError` here: the
    generated loops read only its gradient, zero, and would integrate a
    flat chart.
    """

    dim: int
    metric_at: Optional[Callable[[np.ndarray], np.ndarray]] = None
    christoffel_at: Optional[Callable[[np.ndarray], np.ndarray]] = None
    sectional_at: Optional[Callable] = None
    in_domain: Optional[Callable] = None
    name: str = "chart"
    exponent: Optional[warpfn.Expr] = None
    exponent_args: tuple = ()

    def __post_init__(self):
        if self.dim < 1:
            raise InputError(f"chart dimension must be positive, got {self.dim}")
        if (self.metric_at is None) == (self.exponent is None):
            raise InputError("a chart is defined by exactly one of metric_at "
                             "and exponent")
        if self.christoffel_at is not None and self.metric_at is None:
            raise InputError("christoffel_at goes with metric_at; an exponent "
                             "chart derives its symbols")
        if self.in_domain is not None and self.metric_at is None:
            raise InputError("in_domain goes with metric_at; an exponent "
                             "chart's domain is where its exponent is defined")
        origin = np.zeros(self.dim)
        if (self.exponent is not None and _reads_no_variable(self.exponent)
                and self.contains(origin)):
            # A loop reads only the gradient of a constant exponent, zero:
            # its value is tested here, once.
            _exponent_at(self, origin)

    def contains(self, p) -> bool:
        """Whether the point is in the chart: where the exponent is defined
        on an exponent chart, by ``in_domain`` on any other."""
        if self.exponent is not None:
            return warpfn.domain_failure(self.exponent, p, self.exponent_args) is None
        return self.in_domain is None or bool(self.in_domain(p))

    def contains_all(self, points) -> bool:
        """Whether every row of ``points`` is in the chart; one batch on an
        exponent chart."""
        if self.exponent is not None:
            return warpfn.domain_failure_many(self.exponent, points,
                                              self.exponent_args) is None
        return all(self.contains(p) for p in points)


def _reads_no_variable(e: warpfn.Expr) -> bool:
    """Whether the tree is constant: no node of it is a variable."""
    return not isinstance(e, warpfn.Var) and all(
        _reads_no_variable(v) for v in vars(e).values() if isinstance(v, warpfn.Expr))


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


def _components_at(v, p: np.ndarray) -> np.ndarray:
    """Components of ``v`` as a vector at ``p``; a :class:`TangentVector`
    must be based there, to 1e-12 in every coordinate."""
    if isinstance(v, TangentVector) and not (np.abs(v.base - p) <= 1e-12).all():
        raise InputError(f"tangent vector based at {v.base} evaluated at {p}")
    return _components(v)


def _metric(chart: MetricChart, p: np.ndarray) -> np.ndarray:
    if chart.exponent is not None:
        return np.exp(2.0 * _exponent_at(chart, p)[0]) * np.eye(chart.dim)
    g = np.asarray(chart.metric_at(p), dtype=float)
    if g.shape != (chart.dim, chart.dim):
        raise InputError(
            f"metric_at returned shape {g.shape}, expected {(chart.dim, chart.dim)}"
        )
    return g


def _quadratic(u, g, v):
    """``u @ g @ v`` per row, as a chain of matrix products (which rounds
    like the one-row product)."""
    return (u[..., None, :] @ g @ v[..., None])[..., 0, 0]


def metric_eval(chart: MetricChart, p, u, v) -> float:
    """Inner product ``g(u, v)`` at point ``p``.

    ``u`` and ``v`` may be :class:`TangentVector` (bases are checked
    against ``p``) or plain component arrays.
    """
    p = np.asarray(p, dtype=float)
    u, v = _components_at(u, p), _components_at(v, p)
    g = _metric(chart, p)
    return float(u @ g @ v)


def metric_derivative(chart: MetricChart, p) -> np.ndarray:
    """Array ``d[i, j, k] = d g_ij / d x^k`` by central differences."""
    p = np.asarray(p, dtype=float)
    h = FD_STEP
    d = np.empty((chart.dim, chart.dim, chart.dim))
    for k in range(chart.dim):
        step = np.zeros(chart.dim)
        step[k] = h
        d[:, :, k] = (_metric(chart, p + step) - _metric(chart, p - step)) / (2.0 * h)
    return d


def christoffel(chart: MetricChart, p) -> np.ndarray:
    """Christoffel symbols ``G[k, i, j]`` of the Levi-Civita connection.

    Uses ``T @ grad phi`` on a chart with an exponent, the chart's
    closed-form symbols when available, and otherwise assembles them from
    the metric and its central differences:

        G^k_ij = 1/2 g^{kl} (d_i g_jl + d_j g_il - d_l g_ij)
    """
    p = np.asarray(p, dtype=float)
    if chart.exponent is not None:
        return _conformal_tensor(chart.dim) @ _exponent_at(chart, p)[1]
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
    derivatives; second-order accurate in ``FD_STEP``.
    """
    p = np.asarray(p, dtype=float)
    n = chart.dim
    h = FD_STEP
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


def _require_orthonormal(g, frames):
    """Raise :class:`InputError` unless every frame is orthonormal to 1e-8.

    ``frames`` is ``(..., m, d)``, ``m`` vectors per frame, and ``g`` the
    metrics ``(..., d, d)``, broadcast against the frames' leading axes.
    """
    gram = frames @ g @ np.swapaxes(frames, -1, -2)
    near = np.abs(gram - np.eye(frames.shape[-2])) <= 1e-8
    if not near.all():
        G = gram[~near.all(axis=(-2, -1))][0].tolist()
        if len(G) == 1:
            raise InputError(f"direction must be unit for the base metric, |e|^2={G[0][0]!r}")
        raise InputError(f"plane basis not orthonormal: |e1|^2={G[0][0]!r}, "
                         f"|e2|^2={G[1][1]!r}, <e1,e2>={G[0][1]!r}")


def sectional_curvature(chart: MetricChart, p, e1, e2) -> float:
    """Sectional curvature of the plane spanned by an orthonormal pair.

    Uses the chart's analytic value when supplied, otherwise contracts the
    finite-difference curvature tensor: ``K = g(R(e1, e2) e2, e1)``.
    """
    p = np.asarray(p, dtype=float)
    u, w = _components_at(e1, p), _components_at(e2, p)
    _require_orthonormal(_metric(chart, p), np.array([u, w]))
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
    return MetricChart(
        dim=dim,
        sectional_at=(lambda p, e1, e2: 0.0) if dim >= 2 else None,
        name=f"euclidean{dim}",
        exponent=warpfn.Const(0.0),
    )


@functools.cache
def _conformal_tensor(dim: int) -> np.ndarray:
    """``T`` with ``T @ s`` the Christoffel symbols ``d^k_i s_j + d^k_j s_i
    - d_ij s^k`` of ``exp(2 phi) * (flat metric)``, ``s = grad phi``:
    ``T[k, i, j, m] = d_ki d_jm + d_kj d_im - d_ij d_km``.  Built once per
    dimension and read-only."""
    eye = np.eye(dim)
    T = np.einsum("ki,jm->kijm", eye, eye) + np.einsum("kj,im->kijm", eye, eye)
    T = T - np.einsum("ij,km->kijm", eye, eye)
    T.flags.writeable = False
    return T


def _exponent_at(chart: MetricChart, p: np.ndarray):
    """``phi`` and ``grad phi`` of a chart's exponent at the one point
    ``p``, through the scalar form, with its ``exponent_args`` bound.  The
    chart is where the exponent is defined, and the exponent raises exactly
    where one of its domain conditions fails, so a raised
    :class:`~warpgeo.errors.DslEvaluationError` is a point off the chart:
    no metric there, a :class:`NumericalError`.  So is a ``phi`` that is
    not finite (an infinite line weight)."""
    try:
        phi, s = warpfn.value_and_gradient(chart.exponent,
                                           [*p.tolist(), *chart.exponent_args])
    except DslEvaluationError as exc:
        raise NumericalError(f"no metric off the chart {chart.name}, at {p}") from exc
    if not math.isfinite(phi):
        raise NumericalError(f"the metric of {chart.name} is not finite at {p}")
    return phi, s[:chart.dim]


def _exponent_jet(chart: MetricChart, points: np.ndarray):
    """``phi`` and ``grad phi`` of a chart's exponent at the rows of
    ``points``, in one batch, with its ``exponent_args`` bound; failures
    as in :func:`_exponent_at`."""
    try:
        phi, s = warpfn.value_and_gradient_many(chart.exponent, points,
                                                chart.exponent_args)
    except DslEvaluationError as exc:
        raise NumericalError(f"no metric off the chart {chart.name}: {exc}") from exc
    bad = ~np.isfinite(phi)
    if bad.any():
        raise NumericalError(f"the metric of {chart.name} is not finite at "
                             f"{points[bad][0]}")
    return phi, s


def metrics_at(chart: MetricChart, points) -> np.ndarray:
    """The metric at each row of ``points``, ``(N, d, d)``.

    A chart with an exponent gives ``exp(2 phi) I`` from one batch;
    any other stacks its ``metric_at``.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    if chart.exponent is None:
        return np.array([_metric(chart, p) for p in points])
    phi = _exponent_jet(chart, points)[0]
    return np.exp(2.0 * phi)[:, None, None] * np.eye(chart.dim)


def _squared_speeds(chart: MetricChart, points, velocities) -> np.ndarray:
    """``g(v, v)`` at each row of ``points`` and ``velocities``."""
    v = np.atleast_2d(velocities)
    return _quadratic(v, metrics_at(chart, points), v)


def geometry_at(chart: MetricChart, points):
    """Metric, inverse metric and Christoffel symbols at each row of
    ``points``: ``(N, d, d)``, ``(N, d, d)`` and ``(N, d, d, d)``.

    A chart with an exponent gets all three from one batch of ``phi`` and
    ``s = grad phi``: ``exp(2 phi) I``, ``exp(-2 phi) I`` and ``T @ s``.
    Any other stacks its pointwise metric and symbols (closed form or
    differenced) and inverts the metrics.  A point off the chart where the
    exponent is undefined raises :class:`NumericalError`.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    d = chart.dim
    if chart.exponent is None:
        g = metrics_at(chart, points)
        G = np.array([christoffel(chart, p) for p in points])
        try:
            return g, np.linalg.inv(g), G
        except np.linalg.LinAlgError as exc:
            raise NumericalError(f"singular metric on {chart.name}: {exc}") from exc
    phi, s = _exponent_jet(chart, points)
    eye = np.eye(d)
    G = (s @ _conformal_tensor(d).reshape(-1, d).T).reshape(-1, d, d, d)
    return (np.exp(2.0 * phi)[:, None, None] * eye,
            np.exp(-2.0 * phi)[:, None, None] * eye, G)


def poincare_half_plane() -> MetricChart:
    """Hyperbolic plane, upper half-plane model: ``g = (dx^2 + dy^2) / y^2``,
    the exponent ``phi = -log(y)``, so the domain ``y > 0``."""
    return MetricChart(
        dim=2,
        sectional_at=lambda p, e1, e2: -1.0,
        name="poincare_half_plane",
        exponent=warpfn.parse("-log(x2)", 2),
    )


def poincare_ball(dim: int = 2) -> MetricChart:
    """Hyperbolic space, ball model: ``g = 4 (1 - |x|^2)^{-2} * euclidean``,
    the exponent ``phi = log(2) - log(1 - |x|^2)``, so the domain
    ``|x|^2 < 1``."""
    if dim < 2:
        raise InputError("poincare_ball needs dim >= 2")
    # |x|^2 as products, which a float step may overflow to inf where a
    # power would raise
    norm2 = " + ".join(f"x{i}*x{i}" for i in range(1, dim + 1))
    phi = warpfn.parse(f"log(2) - log(1 - ({norm2}))", dim)
    return MetricChart(
        dim=dim,
        sectional_at=lambda p, e1, e2: -1.0,
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
    if not 0.0 < radius < np.inf:
        raise InputError(f"sphere radius must be positive and finite, got {radius}")
    if dim == 1:
        # one angle over the whole line: the constant metric R^2 is
        # exp(2 phi) with phi = log(R)
        return MetricChart(dim=1, name="sphere1",
                           exponent=warpfn.Call("log", warpfn.Const(float(radius))))
    R2 = radius * radius

    def factors(p):
        f = np.empty(dim)
        f[0] = R2
        for i in range(1, dim):
            f[i] = f[i - 1] * np.sin(p[i - 1]) ** 2
        return f

    def metric(p):
        return np.diag(factors(p))

    def christoffel_at(p):
        # g_ii depends on t_m (m < i) only, through d g_ii / d t_m = 2 cot(t_m) g_ii
        f = factors(p)
        G = np.zeros((dim, dim, dim))
        for m in range(dim - 1):
            cot = 1.0 / np.tan(p[m])
            for i in range(m + 1, dim):
                G[i, i, m] = G[i, m, i] = cot
                G[m, i, i] = -cot * f[i] / f[m]
        return G

    def in_domain(p):
        # interior angles must avoid the coordinate poles
        return all(0.0 < p[j] < np.pi for j in range(dim - 1))

    return MetricChart(
        dim=dim,
        metric_at=metric,
        christoffel_at=christoffel_at,
        sectional_at=lambda p, e1, e2: 1.0 / R2,
        in_domain=in_domain,
        name=f"sphere{dim}",
    )


def circle(radius: float = 1.0) -> MetricChart:
    """Circle of the given radius; alias for ``sphere(dim=1)``."""
    return sphere(dim=1, radius=radius)


def weighted_line(weight) -> MetricChart:
    """The real line with metric ``f(t) dt^2`` for a positive weight ``f``.

    ``weight`` is an expression string in the variable ``t`` (or ``x1``),
    or an already parsed expression node.  The chart's domain is where the
    exponent ``log(f) / 2`` is defined, so where the weight is positive
    (and the weight itself defined): its metric and Christoffel symbols
    raise :class:`NumericalError` at a non-positive or NaN weight.  A
    constant weight that is positive but not finite raises
    :class:`NumericalError` at once (see :class:`MetricChart`).
    """
    expr = warpfn.parse(weight, 1) if isinstance(weight, str) else weight
    # f = exp(2 phi), so phi = log(f) / 2
    phi = warpfn.Binary("*", warpfn.Const(0.5), warpfn.Call("log", expr))
    return MetricChart(
        dim=1,
        name="weighted_line",
        exponent=phi,
    )
