"""Metric charts: evaluation, Christoffel symbols, curvature, validation."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import warpgeo as wg
from warpgeo import warpfn
from warpgeo.manifold import (
    MetricChart,
    TangentVector,
    christoffel,
    geodesic_rhs,
    metric_derivative,
    metric_eval,
    riemann_tensor,
    sectional_curvature,
    sharp,
)
from warpgeo.errors import DslEvaluationError, InputError, NumericalError


def _rel(got, want):
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    return np.max(np.abs(got - want) / np.maximum(1.0, np.abs(want)))


# ---------------------------------------------------------------------------
# frozen metric values


def test_euclidean_inner_product():
    chart = wg.euclidean(2)
    p = np.array([7.0, -3.0])
    assert metric_eval(chart, p, np.array([1.0, 2.0]), np.array([3.0, 4.0])) == 11.0


def test_half_plane_inner_product_scales_with_height():
    chart = wg.poincare_half_plane()
    u = np.array([1.0, 0.0])
    assert metric_eval(chart, np.array([0.0, 2.0]), u, u) == 0.25
    assert metric_eval(chart, np.array([5.0, 1.0]), u, u) == 1.0
    assert metric_eval(chart, np.array([0.0, 0.5]), u, u) == 4.0


def test_sphere_metric_components():
    chart = wg.sphere(2, radius=1.0)
    g = chart.metric_at(np.array([np.pi / 3, 0.4]))
    np.testing.assert_allclose(g, np.diag([1.0, 0.75]), rtol=1e-15)
    doubled = wg.sphere(2, radius=2.0)
    g2 = doubled.metric_at(np.array([np.pi / 3, 0.4]))
    np.testing.assert_allclose(g2, 4.0 * g, rtol=1e-15)


def test_circle_metric_is_constant():
    chart = wg.circle(2.0)
    for angle in (-1.0, 0.0, 2.5, 9.0):
        p = np.array([angle])
        np.testing.assert_allclose(chart.metric_at(p), [[4.0]])
        np.testing.assert_allclose(christoffel(chart, p), 0.0, atol=1e-12)


def test_weighted_line_metric_and_connection():
    chart = wg.weighted_line("1 + t^2")
    p = np.array([2.0])
    np.testing.assert_allclose(chart.metric_at(p), [[5.0]], rtol=1e-15)
    # Connection coefficient f'/(2f) = t/(1+t^2); at t=2 that is 0.4.
    np.testing.assert_allclose(christoffel(chart, p), [[[0.4]]], rtol=1e-12)
    acc = geodesic_rhs(chart, p, np.array([3.0]))
    np.testing.assert_allclose(acc, [-3.6], rtol=1e-12)


# ---------------------------------------------------------------------------
# index raising


def test_sharp_inverts_the_metric():
    chart = wg.poincare_half_plane()
    raised = sharp(chart, np.array([0.0, 2.0]), np.array([1.0, 0.0]))
    assert isinstance(raised, TangentVector)
    np.testing.assert_allclose(raised.components, [4.0, 0.0], rtol=1e-14)

    flat = wg.euclidean(3)
    omega = np.array([3.0, -4.0, 0.5])
    np.testing.assert_allclose(sharp(flat, np.zeros(3), omega).components, omega)


def test_sharp_pairs_back_to_the_covector():
    chart = wg.poincare_half_plane()
    rng = np.random.default_rng(3)
    for _ in range(20):
        p = np.array([rng.uniform(-3, 3), rng.uniform(0.2, 4.0)])
        omega = rng.uniform(-2, 2, 2)
        v = rng.uniform(-2, 2, 2)
        paired = metric_eval(chart, p, sharp(chart, p, omega).components, v)
        np.testing.assert_allclose(paired, omega @ v, rtol=1e-12, atol=1e-12)


# ---------------------------------------------------------------------------
# Christoffel symbols and the geodesic right-hand side


def test_half_plane_christoffels_at_unit_height():
    G = christoffel(wg.poincare_half_plane(), np.array([0.0, 1.0]))
    want = np.zeros((2, 2, 2))
    want[0, 0, 1] = want[0, 1, 0] = -1.0
    want[1, 0, 0] = 1.0
    want[1, 1, 1] = -1.0
    np.testing.assert_allclose(G, want, atol=1e-12)


def test_geodesic_rhs_frozen_values():
    chart = wg.poincare_half_plane()
    acc = geodesic_rhs(chart, np.array([0.0, 1.0]), np.array([1.0, 0.0]))
    np.testing.assert_allclose(acc, [0.0, -1.0], atol=1e-12)
    assert np.array_equal(
        geodesic_rhs(chart, np.array([0.3, 2.0]), np.zeros(2)), np.zeros(2)
    )
    flat = wg.euclidean(2)
    np.testing.assert_allclose(
        geodesic_rhs(flat, np.array([1.0, 1.0]), np.array([2.0, -1.0])), 0.0, atol=1e-12
    )


def test_christoffel_symbols_off_the_chart_are_a_numerical_failure():
    # The exponent's log is undefined there: the chart's domain, not the
    # expression, is at fault.  A failure inside a line weight stays the
    # expression's own.
    with pytest.raises(NumericalError, match="off the chart"):
        christoffel(wg.poincare_half_plane(), np.array([0.0, -1.0]))
    with pytest.raises(NumericalError, match="off the chart"):
        christoffel(wg.poincare_ball(2), np.array([1.0, 0.5]))
    with pytest.raises(NumericalError, match="off the chart"):
        christoffel(wg.weighted_line("t - 0.5"), np.array([0.3]))
    with pytest.raises(DslEvaluationError, match="square root of negative"):
        christoffel(wg.weighted_line("1 + sqrt(t)"), np.array([-1.0]))


def test_analytic_derivatives_match_finite_differences():
    """Charts shipping closed-form metric derivatives agree with differencing."""

    def norm_rel(got, want):
        return np.max(np.abs(got - want)) / max(1.0, np.max(np.abs(want)))

    rng = np.random.default_rng(11)
    cases = [
        (wg.poincare_half_plane(), lambda: [rng.uniform(-3, 3), rng.uniform(0.6, 3)]),
        (wg.sphere(2, radius=1.5), lambda: [rng.uniform(0.4, np.pi - 0.4), rng.uniform(0, 6)]),
        (wg.poincare_ball(2), lambda: rng.uniform(-0.45, 0.45, 2)),
    ]
    for chart, draw in cases:
        assert chart.metric_derivative_at is not None
        bare = MetricChart(chart.dim, chart.metric_at, fd_step=chart.fd_step)
        for _ in range(20):
            p = np.asarray(draw(), dtype=float)
            err = norm_rel(metric_derivative(chart, p), metric_derivative(bare, p))
            assert err <= 10.0 * chart.fd_step**2
            err_g = norm_rel(christoffel(chart, p), christoffel(bare, p))
            assert err_g <= 10.0 * chart.fd_step**2


# Conformally flat built-in charts, each with a sampler of in-domain points
# (inside the region where central differences of the metric stay accurate)
# and a warp for its rescaled family.
WARPS = {
    1: ("2 + sin(x1)", 1.0, 3.0),
    2: ("2 + 0.5*sin(2*x1)*cos(2*x2)", 1.5, 2.5),
    3: ("2 + 0.5*sin(x1 + x2*x3)", 1.5, 2.5),
}
CONFORMAL_CHARTS = [
    ("euclidean1", wg.euclidean(1), lambda u: 4.0 * u - 2.0),
    ("euclidean2", wg.euclidean(2), lambda u: 4.0 * u - 2.0),
    ("euclidean3", wg.euclidean(3), lambda u: 4.0 * u - 2.0),
    ("half_plane", wg.poincare_half_plane(),
     lambda u: np.array([4.0 * u[0] - 2.0, 0.5 + 2.5 * u[1]])),
    ("ball2", wg.poincare_ball(2), lambda u: u - 0.5),
    ("ball3", wg.poincare_ball(3), lambda u: u - 0.5),
    ("weighted_line", wg.weighted_line("1 + t^2"), lambda u: 4.0 * u - 2.0),
    ("circle", wg.circle(2.0), lambda u: 8.0 * u - 4.0),
]


def _christoffel_rk4_step(chart, y, h):
    """One RK4 step of ``a = -(G v) v`` on the chart's Christoffel symbols."""
    n = chart.dim

    def rhs(state):
        return np.concatenate((state[n:], geodesic_rhs(chart, state[:n], state[n:])))

    k1 = rhs(y)
    k2 = rhs(y + 0.5 * h * k1)
    k3 = rhs(y + 0.5 * h * k2)
    k4 = rhs(y + h * k3)
    return y + (h / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)


@pytest.mark.parametrize("label,base,draw", CONFORMAL_CHARTS,
                         ids=[c[0] for c in CONFORMAL_CHARTS])
@settings(max_examples=40, deadline=None, derandomize=True)
@given(data=st.data())
def test_closed_form_spray_matches_the_christoffel_contraction(label, base, draw, data):
    """On every conformally flat chart and its rescaled family, one step of
    the generated RK4 (four closed-form sprays of the chart's exponent)
    equals one RK4 step on ``-(G v) v`` from the chart's own Christoffel
    symbols to roundoff; those symbols, derived from ``grad phi``, match
    central differences of the bare metric to 1e-6."""
    n = base.dim
    unit = st.floats(0.0, 1.0)
    text, k0, K0 = WARPS[n]
    w = wg.WarpField.from_expression(text, n, k0, K0)
    lower = wg.admissible_range(w).lower
    r = data.draw(st.floats(lower + 0.05, 5.0))
    h = 0.01
    for chart in (base, wg.conformal_metric(base, w, r)):
        assert chart.exponent is not None
        p = np.asarray(draw(np.array(data.draw(st.lists(unit, min_size=n, max_size=n)))))
        v = 4.0 * np.array(data.draw(st.lists(unit, min_size=n, max_size=n))) - 2.0
        step = warpfn.rk4_geodesic_step(chart.exponent, n)
        got = np.array(step((*p, *v), h, chart.exponent_args))
        want = _christoffel_rk4_step(chart, np.concatenate((p, v)), h)
        G = christoffel(chart, p)
        scale = max(1.0, np.max(np.abs(G)) * np.max(np.abs(v)) ** 2)
        assert np.max(np.abs(got - want)) <= 1e-12 * scale
        bare = MetricChart(n, chart.metric_at)
        acc = geodesic_rhs(chart, p, v)
        assert np.max(np.abs(acc - geodesic_rhs(bare, p, v))) <= 1e-6 * scale


# ---------------------------------------------------------------------------
# positive definiteness


CHART_SAMPLERS = [
    ("euclidean3", wg.euclidean(3), lambda rng: rng.uniform(-5, 5, 3)),
    (
        "half_plane",
        wg.poincare_half_plane(),
        lambda rng: np.array([rng.uniform(-5, 5), rng.uniform(0.05, 5.0)]),
    ),
    (
        "ball",
        wg.poincare_ball(2),
        lambda rng: rng.uniform(0, 0.97) * _unit(rng),
    ),
    (
        "sphere",
        wg.sphere(2, radius=2.0),
        lambda rng: np.array([rng.uniform(0.1, np.pi - 0.1), rng.uniform(0, 2 * np.pi)]),
    ),
    ("circle", wg.circle(0.5), lambda rng: rng.uniform(-9, 9, 1)),
    (
        "weighted_line",
        wg.weighted_line("0.5 + exp(sin(t))"),
        lambda rng: rng.uniform(-5, 5, 1),
    ),
]


def _unit(rng):
    angle = rng.uniform(0, 2 * np.pi)
    return np.array([np.cos(angle), np.sin(angle)])


@pytest.mark.parametrize("label,chart,draw", CHART_SAMPLERS, ids=[c[0] for c in CHART_SAMPLERS])
def test_metric_is_positive_definite_at_random_points(label, chart, draw):
    rng = np.random.default_rng(hash(label) % 2**32)
    for _ in range(1000):
        g = chart.metric_at(np.asarray(draw(rng), dtype=float))
        np.linalg.cholesky(g)  # raises LinAlgError if not positive definite
        np.testing.assert_allclose(g, g.T, rtol=1e-14, atol=1e-14)


# ---------------------------------------------------------------------------
# curvature


def test_sectional_curvature_closed_forms():
    flat = wg.euclidean(3)
    e1 = np.array([1.0, 0.0, 0.0])
    e2 = np.array([0.0, 0.0, 1.0])
    assert sectional_curvature(flat, np.array([1.0, 2.0, 3.0]), e1, e2) == 0.0

    half = wg.poincare_half_plane()
    for x, y in [(0.0, 1.0), (2.0, 0.4), (-1.0, 3.0)]:
        frame = np.array([y, 0.0]), np.array([0.0, y])
        K = sectional_curvature(half, np.array([x, y]), *frame)
        assert K == pytest.approx(-1.0, abs=1e-12)

    ball = wg.poincare_ball(2)
    p = np.array([0.3, -0.2])
    s = (1.0 - p @ p) / 2.0
    K = sectional_curvature(ball, p, np.array([s, 0.0]), np.array([0.0, s]))
    assert K == pytest.approx(-1.0, abs=1e-10)

    for radius in (1.0, 2.0):
        chart = wg.sphere(2, radius=radius)
        p = np.array([1.0, 0.3])
        e1 = np.array([1.0 / radius, 0.0])
        e2 = np.array([0.0, 1.0 / (radius * np.sin(1.0))])
        K = sectional_curvature(chart, p, e1, e2)
        assert K == pytest.approx(1.0 / radius**2, abs=1e-10)


def test_sectional_curvature_from_differenced_tensor():
    """Stripping the analytic shortcut reproduces the closed forms via FD."""
    half = wg.poincare_half_plane()
    bare = MetricChart(2, half.metric_at, fd_step=1e-5)
    p = np.array([0.5, 1.5])
    K = sectional_curvature(bare, p, np.array([1.5, 0.0]), np.array([0.0, 1.5]))
    assert K == pytest.approx(-1.0, abs=1e-6)

    ref = wg.sphere(2, radius=2.0)
    bare_sphere = MetricChart(2, ref.metric_at, fd_step=1e-5)
    p = np.array([1.1, 0.4])
    e1 = np.array([0.5, 0.0])
    e2 = np.array([0.0, 1.0 / (2.0 * np.sin(1.1))])
    K = sectional_curvature(bare_sphere, p, e1, e2)
    assert K == pytest.approx(0.25, abs=1e-6)


def test_riemann_tensor_symmetries():
    chart = wg.poincare_half_plane()
    p = np.array([0.7, 1.3])
    R = riemann_tensor(chart, p)
    np.testing.assert_allclose(R, -np.transpose(R, (0, 1, 3, 2)), atol=1e-9)
    bianchi = R + np.transpose(R, (0, 2, 3, 1)) + np.transpose(R, (0, 3, 1, 2))
    np.testing.assert_allclose(bianchi, 0.0, atol=1e-8)


def test_sectional_curvature_requires_an_orthonormal_frame():
    chart = wg.poincare_half_plane()
    with pytest.raises(InputError, match="orthonormal"):
        sectional_curvature(chart, np.array([0.0, 2.0]), np.array([1.0, 0.0]), np.array([0.0, 1.0]))


# ---------------------------------------------------------------------------
# domains and validation


def test_domain_predicates():
    half = wg.poincare_half_plane()
    assert half.in_domain(np.array([0.0, 1.0]))
    assert not half.in_domain(np.array([0.0, -1.0]))

    ball = wg.poincare_ball(2)
    assert ball.in_domain(np.array([0.5, 0.5]))
    assert not ball.in_domain(np.array([0.8, 0.8]))

    sph = wg.sphere(2)
    assert sph.in_domain(np.array([1.5, 0.0]))
    assert not sph.in_domain(np.array([-0.1, 0.0]))

    assert wg.euclidean(2).in_domain is None


def test_tangent_vector_shape_validation():
    with pytest.raises(InputError):
        TangentVector(np.array([0.0, 1.0]), np.array([1.0, 2.0, 3.0]))


def test_metric_eval_rejects_vectors_based_elsewhere():
    chart = wg.poincare_half_plane()
    v = TangentVector(np.array([0.0, 1.0]), np.array([1.0, 0.0]))
    with pytest.raises(InputError):
        metric_eval(chart, np.array([0.0, 2.0]), v, v)
    # Based at the right point, tangent vectors and bare components agree.
    p = np.array([0.0, 1.0])
    assert metric_eval(chart, p, v, v) == metric_eval(chart, p, v.components, v.components)
