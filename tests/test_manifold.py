"""Metric charts: evaluation, Christoffel symbols, curvature, validation."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import warpgeo as wg
from warpgeo import warpfn
from warpgeo.manifold import (
    FD_STEP,
    MetricChart,
    TangentVector,
    _metric,
    christoffel,
    geodesic_rhs,
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


# Textbook metrics, written out apart from the charts' own definitions: the
# references that the charts' metrics and Christoffel symbols are checked
# against.
def _flat(n):
    return lambda p: np.eye(n)


def _half_plane(p):
    return np.eye(2) / p[1] ** 2


def _ball(p):
    return 4.0 / (1.0 - p @ p) ** 2 * np.eye(len(p))


def _line(f):
    return lambda p: np.array([[f(p[0])]])


def _round_sphere(radius):
    """``g_ii = R^2 prod_{j<i} sin^2(t_j)``; a constant ``R^2`` on one angle."""
    return lambda p: radius**2 * np.diag(np.cumprod([1.0, *np.sin(p[:-1]) ** 2]))


def _rescaled(ref, w, r):
    """The textbook ``(1/k + r) g1``."""
    return lambda p: (1.0 / w.value_at(p) + r) * ref(p)


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
    g = _metric(chart, np.array([np.pi / 3, 0.4]))
    np.testing.assert_allclose(g, np.diag([1.0, 0.75]), rtol=1e-15)
    doubled = wg.sphere(2, radius=2.0)
    g2 = _metric(doubled, np.array([np.pi / 3, 0.4]))
    np.testing.assert_allclose(g2, 4.0 * g, rtol=1e-15)


def test_circle_metric_is_constant():
    chart = wg.circle(2.0)
    for angle in (-1.0, 0.0, 2.5, 9.0):
        p = np.array([angle])
        np.testing.assert_allclose(_metric(chart, p), [[4.0]], rtol=1e-15)
        np.testing.assert_allclose(christoffel(chart, p), 0.0, atol=1e-12)


def test_weighted_line_metric_and_connection():
    chart = wg.weighted_line("1 + t^2")
    p = np.array([2.0])
    np.testing.assert_allclose(_metric(chart, p), [[5.0]], rtol=1e-15)
    # Connection coefficient f'/(2f) = t/(1+t^2); at t=2 that is 0.4.
    np.testing.assert_allclose(christoffel(chart, p), [[[0.4]]], rtol=1e-12)
    acc = geodesic_rhs(chart, p, np.array([3.0]))
    np.testing.assert_allclose(acc, [-3.6], rtol=1e-12)


def test_a_constant_weight_or_exponent_that_is_not_finite_is_refused():
    # A loop reads only the gradient of a constant exponent, zero, so an
    # infinite constant would integrate as a flat line.  A constant that is
    # finite, or off its domain (a negative weight), is kept.
    for weight in ("1e300*1e300", "exp(1000)"):
        with pytest.raises(NumericalError, match="not finite|overflows a float"):
            wg.weighted_line(weight)
    with pytest.raises(NumericalError, match="not finite"):
        wg.MetricChart(2, exponent=warpfn.Const(math.inf))
    assert wg.weighted_line("4").contains([1.0])
    assert not wg.weighted_line("-1").contains([1.0])


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
    # expression, is at fault.  The domain is where the whole exponent is
    # defined, so a failure inside a line weight is off the chart too.  The
    # metric of an exponent chart, read from the exponent at one point,
    # fails as its symbols do.  A NaN line weight fails log's condition, so
    # it is off the chart too; an infinite one is defined, but leaves
    # neither finite.
    for read in (christoffel, _metric):
        with pytest.raises(NumericalError, match="off the chart"):
            read(wg.poincare_half_plane(), np.array([0.0, -1.0]))
        with pytest.raises(NumericalError, match="off the chart"):
            read(wg.poincare_ball(2), np.array([1.0, 0.5]))
        with pytest.raises(NumericalError, match="off the chart"):
            read(wg.weighted_line("t - 0.5"), np.array([0.3]))
        with pytest.raises(NumericalError, match="off the chart") as err:
            read(wg.weighted_line("1 + sqrt(t)"), np.array([-1.0]))
        assert isinstance(err.value.__cause__, DslEvaluationError)
        with pytest.raises(NumericalError, match="off the chart") as err:
            read(wg.weighted_line(warpfn.Const(math.nan)), np.array([0.3]))
        assert isinstance(err.value.__cause__, DslEvaluationError)
        with pytest.raises(NumericalError, match="not finite"):
            read(wg.weighted_line(warpfn.Const(math.inf)), np.array([0.3]))


def test_a_chart_is_defined_once():
    phi = warpfn.parse("-log(x2)", 2)
    with pytest.raises(InputError, match="exactly one"):
        MetricChart(2, _half_plane, exponent=phi)
    with pytest.raises(InputError, match="exactly one"):
        MetricChart(2)
    with pytest.raises(InputError, match="christoffel_at goes with metric_at"):
        MetricChart(2, christoffel_at=lambda p: np.zeros((2, 2, 2)), exponent=phi)


def test_an_exponent_chart_takes_no_domain_predicate():
    with pytest.raises(InputError, match="in_domain goes with metric_at"):
        MetricChart(2, in_domain=lambda p: True, exponent=warpfn.parse("-log(x2)", 2))


def test_closed_form_christoffel_symbols_match_finite_differences():
    """Each chart's closed-form Christoffel symbols agree with those its bare
    metric gets from central differences."""

    def norm_rel(got, want):
        return np.max(np.abs(got - want)) / max(1.0, np.max(np.abs(want)))

    rng = np.random.default_rng(11)

    def angles(n):
        # interior angles away from the poles, the last one anywhere
        return lambda: [*rng.uniform(0.4, np.pi - 0.4, n - 1), rng.uniform(0, 6)]

    def upper():
        return [rng.uniform(-3, 3), rng.uniform(0.6, 3)]

    sphere_warp = wg.WarpField.from_expression("2 + 0.5*sin(x1)*cos(x2)", 2, 1.5, 2.5)
    half_warp = wg.WarpField.from_expression("2 + 0.5*sin(2*x1)*cos(x2)", 2, 1.5, 2.5)
    cases = [
        (wg.poincare_half_plane(), _half_plane, upper),
        (wg.sphere(2, radius=1.5), _round_sphere(1.5), angles(2)),
        (wg.sphere(3), _round_sphere(1.0), angles(3)),
        (wg.circle(2.0), _round_sphere(2.0), lambda: [rng.uniform(-9, 9)]),
        (wg.poincare_ball(2), _ball, lambda: rng.uniform(-0.45, 0.45, 2)),
        (wg.weighted_line("1 + t^2"), _line(lambda t: 1 + t * t),
         lambda: [rng.uniform(-3, 3)]),
        (wg.euclidean(2), _flat(2), lambda: rng.uniform(-5, 5, 2)),
        (wg.conformal_metric(wg.sphere(2), sphere_warp, 0.5),
         _rescaled(_round_sphere(1.0), sphere_warp, 0.5), angles(2)),
        (wg.conformal_metric(wg.poincare_half_plane(), half_warp, 0.5),
         _rescaled(_half_plane, half_warp, 0.5), upper),
    ]
    for chart, textbook, draw in cases:
        bare = MetricChart(chart.dim, textbook)
        for _ in range(20):
            p = np.asarray(draw(), dtype=float)
            err = norm_rel(christoffel(chart, p), christoffel(bare, p))
            assert err <= 10.0 * FD_STEP**2, chart.name
            assert _rel(_metric(chart, p), textbook(p)) <= 1e-14, chart.name


def test_every_built_in_chart_has_closed_form_christoffel_symbols():
    """A conformally flat chart, and its rescaled family, is its exponent
    alone; a round sphere of two or more angles carries closed-form
    symbols beside its metric."""
    for chart in (wg.euclidean(1), wg.euclidean(3), wg.poincare_half_plane(),
                  wg.poincare_ball(2), wg.poincare_ball(3), wg.sphere(1),
                  wg.sphere(2), wg.sphere(3), wg.circle(2.0),
                  wg.weighted_line("1 + t^2")):
        w = wg.WarpField.constant(2.0, chart.dim)
        spheres = chart.name in ("sphere2", "sphere3")
        for c in (chart, wg.conformal_metric(chart, w, 0.5)):
            if spheres:
                assert c.exponent is None and c.christoffel_at is not None, c.name
            else:
                assert c.exponent is not None, c.name
                assert c.metric_at is None and c.christoffel_at is None, c.name


# Conformally flat built-in charts, each with a sampler of in-domain points
# (inside the region where central differences of the metric stay accurate)
# and a warp for its rescaled family.
WARPS = {
    1: ("2 + sin(x1)", 1.0, 3.0),
    2: ("2 + 0.5*sin(2*x1)*cos(2*x2)", 1.5, 2.5),
    3: ("2 + 0.5*sin(x1 + x2*x3)", 1.5, 2.5),
}
CONFORMAL_CHARTS = [
    ("euclidean1", wg.euclidean(1), _flat(1), lambda u: 4.0 * u - 2.0),
    ("euclidean2", wg.euclidean(2), _flat(2), lambda u: 4.0 * u - 2.0),
    ("euclidean3", wg.euclidean(3), _flat(3), lambda u: 4.0 * u - 2.0),
    ("half_plane", wg.poincare_half_plane(), _half_plane,
     lambda u: np.array([4.0 * u[0] - 2.0, 0.5 + 2.5 * u[1]])),
    ("ball2", wg.poincare_ball(2), _ball, lambda u: u - 0.5),
    ("ball3", wg.poincare_ball(3), _ball, lambda u: u - 0.5),
    ("weighted_line", wg.weighted_line("1 + t^2"), _line(lambda t: 1 + t * t),
     lambda u: 4.0 * u - 2.0),
    ("circle", wg.circle(2.0), _round_sphere(2.0), lambda u: 8.0 * u - 4.0),
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


@pytest.mark.parametrize("label,base,textbook,draw", CONFORMAL_CHARTS,
                         ids=[c[0] for c in CONFORMAL_CHARTS])
@settings(max_examples=40, deadline=None, derandomize=True)
@given(data=st.data())
def test_closed_form_spray_matches_the_christoffel_contraction(label, base, textbook,
                                                               draw, data):
    """On every conformally flat chart and its rescaled family, one step of
    the generated RK4 (four closed-form sprays of the chart's exponent)
    equals one RK4 step on ``-(G v) v`` from the chart's own Christoffel
    symbols to roundoff; those symbols, derived from ``grad phi``, match
    central differences of the textbook metric to 1e-6."""
    n = base.dim
    unit = st.floats(0.0, 1.0)
    text, k0, K0 = WARPS[n]
    w = wg.WarpField.from_expression(text, n, k0, K0)
    lower = wg.admissible_range(w).lower
    r = data.draw(st.floats(lower + 0.05, 5.0))
    h = 0.01
    for chart, ref in ((base, textbook),
                       (wg.conformal_metric(base, w, r), _rescaled(textbook, w, r))):
        assert chart.exponent is not None
        p = np.asarray(draw(np.array(data.draw(st.lists(unit, min_size=n, max_size=n)))))
        v = 4.0 * np.array(data.draw(st.lists(unit, min_size=n, max_size=n))) - 2.0
        loop = warpfn.rk4_geodesic_loop(chart.exponent, n)
        got = np.array(loop((*p, *v), h, chart.exponent_args, 1)[0][-2 * n:])
        want = _christoffel_rk4_step(chart, np.concatenate((p, v)), h)
        G = christoffel(chart, p)
        scale = max(1.0, np.max(np.abs(G)) * np.max(np.abs(v)) ** 2)
        assert np.max(np.abs(got - want)) <= 1e-12 * scale
        bare = MetricChart(n, ref)
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
        g = _metric(chart, np.asarray(draw(rng), dtype=float))
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
    bare = MetricChart(2, _half_plane)
    p = np.array([0.5, 1.5])
    K = sectional_curvature(bare, p, np.array([1.5, 0.0]), np.array([0.0, 1.5]))
    assert K == pytest.approx(-1.0, abs=1e-6)

    bare_sphere = MetricChart(2, _round_sphere(2.0))
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
    """Each built-in chart's domain test answers the same for a tuple, a
    list and an array, inside and outside its chart, one point at a time
    and in one batch.  An exponent chart's domain is where its exponent is
    defined; only the spheres of two or more angles carry a predicate."""
    cases = [
        (wg.poincare_half_plane(), [0.3, 1.0], [0.3, -1.0]),
        (wg.poincare_ball(2), [0.5, 0.5], [0.8, 0.8]),
        (wg.poincare_ball(3), [0.1, -0.2, 0.3], [0.6, -0.6, 0.6]),
        (wg.sphere(2), [1.5, 7.0], [-0.1, 0.0]),
        (wg.sphere(3), [1.5, 0.5, -2.0], [1.5, 3.5, 0.0]),
        (wg.weighted_line("t - 0.5"), [1.0], [0.0]),
    ]
    for chart, inside, outside in cases:
        assert (chart.in_domain is None) is (chart.exponent is not None)
        for point, want in ((inside, True), (outside, False)):
            for given in (tuple(point), list(point), np.array(point)):
                if chart.in_domain is not None:
                    assert bool(chart.in_domain(given)) is want, (chart.name, given)
                assert chart.contains(given) is want, (chart.name, given)
        assert chart.contains_all(np.array([inside, inside]))
        assert not chart.contains_all(np.array([inside, outside]))
    # flat space and a single angle have no domain to leave
    for chart in (wg.euclidean(2), wg.circle(2.0), wg.sphere(1)):
        assert chart.in_domain is None
        assert chart.contains([1e300] * chart.dim)


@pytest.mark.parametrize("radius", [0.0, -1.0, math.nan, math.inf])
def test_sphere_radius_must_be_positive_and_finite(radius):
    for make in (lambda: wg.sphere(2, radius), lambda: wg.circle(radius)):
        with pytest.raises(InputError, match="radius"):
            make()


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
