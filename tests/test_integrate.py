"""Geodesic integration, dense output, residual measurement, serialization."""

import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp
from scipy.integrate import quad
from scipy.interpolate import PchipInterpolator

import warpgeo as wg
from warpgeo import _num, integrate, warpfn
from warpgeo.errors import (
    ChartDomainError, DslEvaluationError, InputError, NumericalError,
)


def _hyperbolic_closed_form(t):
    """Unit-speed half-plane geodesic through (0, 1) heading horizontally."""
    t = np.atleast_1d(np.asarray(t, dtype=float))
    return np.column_stack([np.tanh(t), 1.0 / np.cosh(t)])


# ---------------------------------------------------------------------------
# single-chart geodesics


def test_flat_geodesics_are_straight_lines():
    chart = wg.euclidean(3)
    p0 = np.array([1.0, -2.0, 0.5])
    v0 = np.array([0.3, 2.0, -1.0])
    curve = wg.integrate_geodesic(chart, p0, v0, wg.IntegratorConfig(steps=64))
    np.testing.assert_allclose(curve.endpoint(), p0 + v0, rtol=1e-13, atol=1e-13)
    np.testing.assert_allclose(curve.points, p0 + np.outer(curve.params, v0), atol=1e-13)
    np.testing.assert_allclose(curve.velocities, np.tile(v0, (65, 1)), atol=1e-13)


def test_half_plane_geodesic_matches_closed_form():
    chart = wg.poincare_half_plane()
    curve = wg.integrate_geodesic(
        chart, np.array([0.0, 1.0]), np.array([1.0, 0.0]), wg.IntegratorConfig(steps=1024)
    )
    np.testing.assert_allclose(curve.points, _hyperbolic_closed_form(curve.params), atol=1e-13)
    assert wg.speed_drift(chart, curve) <= 1e-13
    assert wg.geodesic_residual(chart, curve) <= 1e-10


def test_integrator_is_fourth_order():
    chart = wg.poincare_half_plane()
    p0, v0 = np.array([0.0, 1.0]), np.array([1.0, 0.0])
    target = _hyperbolic_closed_form(1.0)[0]

    def endpoint_error(steps):
        c = wg.integrate_geodesic(chart, p0, v0, wg.IntegratorConfig(steps=steps))
        return np.max(np.abs(c.endpoint() - target))

    ratio = endpoint_error(64) / endpoint_error(128)
    assert 12.0 <= ratio <= 20.0


def test_speed_is_conserved_along_geodesics():
    cases = [
        (wg.poincare_half_plane(), np.array([0.5, 2.0]), np.array([1.0, -0.7])),
        (wg.sphere(2, radius=1.5), np.array([1.2, 0.3]), np.array([0.4, 0.9])),
        (wg.weighted_line("0.5 + exp(sin(t))"), np.array([0.2]), np.array([1.3])),
    ]
    for chart, p0, v0 in cases:
        curve = wg.integrate_geodesic(chart, p0, v0, wg.IntegratorConfig(steps=1024))
        assert wg.speed_drift(chart, curve) <= 1e-6


def test_constant_rescaling_leaves_geodesics_alone():
    base = wg.poincare_half_plane()
    chart = wg.conformal_metric(base, wg.WarpField.constant(1.0, 2), 3.0)
    cfg = wg.IntegratorConfig(steps=256)
    p0, v0 = np.array([0.0, 1.0]), np.array([1.0, 0.5])
    plain = wg.integrate_geodesic(base, p0, v0, cfg)
    scaled = wg.integrate_geodesic(chart, p0, v0, cfg)
    np.testing.assert_allclose(scaled.points, plain.points, atol=1e-14)
    np.testing.assert_allclose(scaled.velocities, plain.velocities, atol=1e-14)


def test_leaving_the_chart_domain_is_reported():
    # A meridian on the sphere runs off the colatitude interval in finite
    # parameter (the hyperbolic models never reach their rims, which sit at
    # infinite distance, so they make no such test case).
    chart = wg.sphere(2)
    with pytest.raises(ChartDomainError) as err:
        wg.integrate_geodesic(
            chart, np.array([np.pi / 2, 0.0]), np.array([2.0, 0.0]),
            wg.IntegratorConfig(steps=64),
        )
    payload = err.value.payload()
    assert payload["chart"] == chart.name
    assert 0.5 < payload["t_exit"] <= 1.0


@pytest.mark.parametrize("chart, v0", [
    (wg.sphere(2), np.array([2.0, 0.0])),        # the meridian above
    (wg.euclidean(2), np.array([1e308, 1e308])),  # |v|^2 overflows: NaN
], ids=["off_chart", "not_finite"])
def test_integration_stops_at_the_first_bad_step(monkeypatch, chart, v0):
    # one acceleration per Christoffel-path RHS, four per generated step
    calls = []
    real_rhs, real_step = integrate.geodesic_rhs, warpfn.rk4_geodesic_step

    def counted(*args):
        calls.append(1)
        return real_rhs(*args)

    def counted_step(*compiled):
        step = real_step(*compiled)

        def counted(*args):
            calls.extend([1] * 4)
            return step(*args)
        return counted

    monkeypatch.setattr(integrate, "geodesic_rhs", counted)
    monkeypatch.setattr(warpfn, "rk4_geodesic_step", counted_step)
    p0 = np.array([np.pi / 2, 0.0])
    with pytest.raises(ChartDomainError) as err, np.errstate(all="ignore"):
        wg.integrate_geodesic(chart, p0, v0, wg.IntegratorConfig(steps=64))
    exit_step = round(err.value.t_exit * 64)
    assert 0 < exit_step < 64
    assert len(calls) == 4 * exit_step


# Conformally flat charts, an in-domain starting point drawn from the unit
# cube, and a warp for each dimension.  Speeds stay moderate, so that the
# Christoffel path's RK4 stages stay inside the chart too.
FLAT_CHARTS = [
    ("euclidean2", wg.euclidean(2), lambda u: 4.0 * u - 2.0),
    ("euclidean3", wg.euclidean(3), lambda u: 4.0 * u - 2.0),
    ("half_plane", wg.poincare_half_plane(),
     lambda u: np.array([4.0 * u[0] - 2.0, 0.5 + 2.5 * u[1]])),
    ("ball2", wg.poincare_ball(2), lambda u: u - 0.5),
    ("ball3", wg.poincare_ball(3), lambda u: u - 0.5),
    ("weighted_line", wg.weighted_line("1 + t^2"), lambda u: 4.0 * u - 2.0),
    ("circle", wg.circle(2.0), lambda u: 8.0 * u - 4.0),
]
FLAT_WARPS = {1: "2 + sin(x1)", 2: "2 + 0.5*sin(2*x1)*cos(2*x2)",
              3: "2 + 0.5*sin(x1 + x2*x3)"}


@pytest.mark.parametrize("label,base,draw", FLAT_CHARTS, ids=[c[0] for c in FLAT_CHARTS])
@settings(max_examples=15, deadline=None, derandomize=True)
@given(data=st.data())
def test_generated_steps_match_the_christoffel_path(label, base, draw, data):
    """The float step of a chart's exponent and the numpy RK4 on the
    chart's Christoffel symbols give the same curve to roundoff."""
    n = base.dim
    unit = st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n)
    w = wg.WarpField.from_expression(FLAT_WARPS[n], n, 1.0, 3.0)
    r = data.draw(st.floats(wg.admissible_range(w).lower + 0.05, 5.0))
    p0 = np.asarray(draw(np.array(data.draw(unit))))
    v0 = np.array(data.draw(unit)) - 0.5
    for chart in (base, wg.conformal_metric(base, w, r)):
        numpy_path = dataclasses.replace(chart, exponent=None, exponent_args=())
        for steps in (16, 64):
            cfg = wg.IntegratorConfig(steps=steps)
            got = wg.integrate_geodesic(chart, p0, v0, cfg)
            want = wg.integrate_geodesic(numpy_path, p0, v0, cfg)
            for a, b in ((got.points, want.points), (got.velocities, want.velocities)):
                scale = max(1.0, np.max(np.abs(b)))
                assert np.max(np.abs(a - b)) <= 1e-13 * scale


def test_a_stage_on_the_rim_makes_a_state_that_is_not_finite():
    # The second stage of the first step lands on y = 0 exactly, where
    # grad phi = (0, -1/y) divides by zero.
    chart = wg.poincare_half_plane()
    with pytest.raises(ChartDomainError) as err, np.errstate(all="ignore"):
        wg.integrate_geodesic(chart, np.array([0.0, 1.0]), np.array([0.0, -32.0]),
                              wg.IntegratorConfig(steps=16))
    assert err.value.t_exit == 1.0 / 16


def test_a_warp_domain_failure_stays_an_expression_error():
    # the metric stays finite at x1 = 0, so the curve crosses into x1 < 0
    w = wg.WarpField.from_expression("2 + sqrt(x1)", 1, 2.0, 3.0)
    chart = wg.conformal_metric(wg.euclidean(1), w, 1.0)
    with pytest.raises(DslEvaluationError, match="square root of negative"):
        wg.integrate_geodesic(chart, np.array([0.5]), np.array([-2.0]),
                              wg.IntegratorConfig(steps=16))


@pytest.mark.parametrize("weight, p0", [
    (warpfn.Const(math.nan), 0.3),   # NaN everywhere
    ("t - 0.5", 0.3),                # negative at the start
    ("1 - t", 0.0),                  # reaches zero at t = 1, a finite distance away
], ids=["nan", "negative", "vanishing"])
def test_a_bad_line_weight_is_a_numerical_failure(weight, p0):
    chart = wg.weighted_line(weight)
    if isinstance(weight, warpfn.Expr):
        with pytest.raises(NumericalError, match="line weight must stay positive"):
            chart.metric_at(np.array([p0]))
    for line in (chart, wg.conformal_metric(chart, wg.WarpField.constant(1.0, 1), 1.0)):
        with pytest.raises(NumericalError):
            wg.integrate_geodesic(line, np.array([p0]), np.array([2.0]),
                                  wg.IntegratorConfig(steps=64))


# ---------------------------------------------------------------------------
# dense output


def test_dense_output_reproduces_the_nodes():
    chart = wg.poincare_half_plane()
    curve = wg.integrate_geodesic(
        chart, np.array([0.0, 1.0]), np.array([1.0, 0.0]), wg.IntegratorConfig(steps=64)
    )
    for i in (0, 1, 31, 64):
        t = curve.params[i]
        np.testing.assert_allclose(curve.point_at(t), curve.points[i], atol=1e-13)
        np.testing.assert_allclose(curve.velocity_at(t), curve.velocities[i], atol=1e-12)


def test_dense_output_is_accurate_between_nodes():
    chart = wg.poincare_half_plane()
    curve = wg.integrate_geodesic(
        chart, np.array([0.0, 1.0]), np.array([1.0, 0.0]), wg.IntegratorConfig(steps=1024)
    )
    t = np.linspace(0.0, 1.0, 509)  # deliberately incommensurate with the grid
    points = np.array([curve.point_at(s) for s in t])
    np.testing.assert_allclose(points, _hyperbolic_closed_form(t), atol=1e-13)
    want_v = np.column_stack([
        1.0 / np.cosh(t) ** 2, -np.tanh(t) / np.cosh(t)
    ])
    velocities = np.array([curve.velocity_at(s) for s in t])
    np.testing.assert_allclose(velocities, want_v, atol=1e-13)


def test_short_curves_fall_back_to_a_generic_interpolant():
    params = np.array([0.0, 0.5, 1.0])
    points = np.array([[0.0], [0.25], [1.0]])  # t^2 sampled coarsely
    velocities = np.array([[0.0], [1.0], [2.0]])
    curve = wg.Curve(params, points, velocities)
    assert curve.point_at(0.5) == pytest.approx(0.25, abs=1e-12)
    assert curve.velocity_at(1.0) == pytest.approx(2.0, abs=1e-10)


# ---------------------------------------------------------------------------
# the coupled mixed-signature system


def test_coupled_system_decouples_for_constant_warp():
    g1 = wg.poincare_half_plane()
    g2 = wg.circle(1.0)
    w = wg.WarpField.constant(2.0, 2)
    cfg = wg.IntegratorConfig(steps=256)
    z0 = (np.array([0.0, 1.0]), np.array([0.3]))
    V0 = (np.array([1.0, 0.2]), np.array([0.8]))
    base, fiber = wg.integrate_coupled_oracle(g1, g2, w, z0, V0, cfg)
    base_ref, fiber_ref = wg.integrate_product_geodesic(g1, g2, z0, V0, cfg)
    np.testing.assert_allclose(base.points, base_ref.points, atol=1e-13)
    np.testing.assert_allclose(fiber.points, fiber_ref.points, atol=1e-13)


def test_fiber_at_rest_stays_at_rest():
    g1 = wg.euclidean(2)
    g2 = wg.circle(1.0)
    w = wg.WarpField.from_expression("2 + 0.5*sin(2*x1)*cos(2*x2)", 2, 1.5, 2.5)
    cfg = wg.IntegratorConfig(steps=128)
    base, fiber = wg.integrate_coupled_oracle(
        g1, g2, w, (np.zeros(2), np.array([0.4])), (np.array([1.0, -0.5]), np.zeros(1)), cfg
    )
    np.testing.assert_allclose(fiber.points, 0.4, atol=1e-13)
    np.testing.assert_allclose(fiber.velocities, 0.0, atol=1e-13)
    plain = wg.integrate_geodesic(g1, np.zeros(2), np.array([1.0, -0.5]), cfg)
    np.testing.assert_allclose(base.points, plain.points, atol=1e-13)


def test_coupled_first_integral_is_conserved():
    g1 = wg.euclidean(2)
    g2 = wg.circle(1.0)
    w = wg.WarpField.from_expression("2 + 0.5*sin(2*x1)*cos(2*x2)", 2, 1.5, 2.5)
    cfg = wg.IntegratorConfig(steps=1024)
    base, fiber = wg.integrate_coupled_oracle(
        g1, g2, w, (np.zeros(2), np.array([0.0])), (np.array([2.2, 1.4]), np.array([0.7])), cfg
    )
    k = wg.values_along(w, base.points)
    invariant = k**2 * fiber.velocities[:, 0] ** 2
    assert np.max(np.abs(invariant - invariant[0])) <= 1e-6
    r1, r2 = wg.coupled_residual(g1, g2, w, base, fiber)
    assert r1 <= 1e-9 and r2 <= 1e-9


def test_non_solutions_show_large_residuals():
    g1 = wg.euclidean(2)
    g2 = wg.circle(1.0)
    w = wg.WarpField.from_expression("2 + 0.5*sin(2*x1)*cos(2*x2)", 2, 1.5, 2.5)
    t = np.linspace(0.0, 1.0, 257)
    base = wg.Curve(t, np.outer(t, [2.2, 1.4]), np.tile([2.2, 1.4], (257, 1)))
    fiber = wg.Curve(t, np.outer(t, [0.7]), np.tile([0.7], (257, 1)))
    r1, r2 = wg.coupled_residual(g1, g2, w, base, fiber)
    assert r1 > 1e-2
    assert r2 > 1e-2


def test_coupled_residual_requires_matching_grids():
    g1 = wg.euclidean(1)
    g2 = wg.euclidean(1)
    w = wg.WarpField.constant(1.0, 1)
    t_a = np.linspace(0, 1, 65)
    t_b = np.linspace(0, 1, 33)
    base = wg.Curve(t_a, t_a[:, None], np.ones((65, 1)))
    fiber = wg.Curve(t_b, t_b[:, None], np.ones((33, 1)))
    with pytest.raises(InputError):
        wg.coupled_residual(g1, g2, w, base, fiber)


# ---------------------------------------------------------------------------
# configuration and curve validation


def test_integrator_config_validation():
    with pytest.raises(InputError):
        wg.IntegratorConfig(steps=8)
    with pytest.raises(InputError):
        wg.IntegratorConfig(steps=129)
    with pytest.raises(InputError):
        wg.IntegratorConfig(tolerance=0.0)
    cfg = wg.IntegratorConfig()
    assert cfg.steps == 1024


def test_curve_validation():
    with pytest.raises(InputError):
        wg.Curve(np.array([0.1, 0.5, 1.0]), np.zeros((3, 1)), np.zeros((3, 1)))
    with pytest.raises(InputError):
        wg.Curve(np.array([0.0, 0.5, 0.5]), np.zeros((3, 1)), np.zeros((3, 1)))
    with pytest.raises(InputError):
        wg.Curve(np.array([0.0, np.nan, 1.0]), np.zeros((3, 1)), np.zeros((3, 1)))
    with pytest.raises(InputError):
        wg.Curve(np.array([0.0, 1.0]), np.zeros((3, 1)), np.zeros((3, 1)))


def test_curve_evaluation_outside_the_parameter_range_fails():
    t = np.linspace(0, 1, 17)
    curve = wg.Curve(t, t[:, None], np.ones((17, 1)))
    with pytest.raises(InputError):
        curve.point_at(1.5)
    with pytest.raises(InputError):
        curve.point_at(-0.1)


# ---------------------------------------------------------------------------
# serialization


def test_csv_round_trip_is_exact(tmp_path):
    chart = wg.poincare_half_plane()
    curve = wg.integrate_geodesic(
        chart, np.array([0.0, 1.0]), np.array([1.0, 0.3]), wg.IntegratorConfig(steps=64)
    )
    path = tmp_path / "curve.csv"
    wg.curve_to_csv(curve, path)
    back = wg.curve_from_csv(path)
    assert np.array_equal(back.params, curve.params)
    assert np.array_equal(back.points, curve.points)
    assert np.array_equal(back.velocities, curve.velocities)
    header = path.read_text().splitlines()[0]
    assert header == "t,x1,x2,v1,v2"


# ---------------------------------------------------------------------------
# quadrature and differencing building blocks


def test_simpson_rules_are_exact_on_cubics():
    t = np.linspace(0.0, 1.0, 65)
    h = t[1] - t[0]
    values = t**3
    assert _num.composite_simpson(values, h) == pytest.approx(0.25, abs=1e-15)
    cumulative = _num.cumulative_simpson(values, h)
    np.testing.assert_allclose(cumulative, t**4 / 4.0, atol=1e-15)


def test_cumulative_rule_converges_at_fourth_order():
    def worst(n):
        t = np.linspace(0.0, np.pi, n + 1)
        got = _num.cumulative_simpson(np.sin(t), t[1] - t[0])
        return np.max(np.abs(got - (1.0 - np.cos(t))))

    assert worst(32) / worst(64) >= 12.0


def test_grid_derivative_is_exact_on_quartics():
    t = np.linspace(0.0, 1.0, 33)
    got = _num.derivative_on_grid(t**4, t[1] - t[0])
    np.testing.assert_allclose(got, 4.0 * t**3, atol=1e-12)


def test_grid_derivative_handles_stacked_columns():
    t = np.linspace(0.0, 1.0, 33)
    table = np.column_stack([t**2, np.full_like(t, 3.0)])
    got = _num.derivative_on_grid(table, t[1] - t[0])
    np.testing.assert_allclose(got[:, 0], 2.0 * t, atol=1e-12)
    np.testing.assert_allclose(got[:, 1], 0.0, atol=1e-13)


def test_pchip_inverse_recovers_cube_roots():
    grid = np.linspace(0.0, 2.0, 257)
    values = grid**3
    targets = np.array([0.001, 0.5, 7.9])
    roots = _num.invert_pchip(grid, values, targets)
    # exact inverse of the interpolant, which itself carries PCHIP's error
    np.testing.assert_allclose(PchipInterpolator(grid, values)(roots), targets,
                               rtol=1e-15)
    np.testing.assert_allclose(roots, targets ** (1.0 / 3.0), atol=5e-6)
    nodes = _num.invert_pchip(grid, values, np.array([0.0, 1.0, 8.0]))
    assert nodes.tolist() == [0.0, 1.0, 2.0]


def _bisect_pchip(grid, values, targets):
    """Reference inverse: bisect the interpolant until the bracket is spent."""
    spline = PchipInterpolator(grid, values)
    lo = np.full(targets.shape, grid[0])
    hi = np.full(targets.shape, grid[-1])
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        high = spline(mid) >= targets
        hi = np.where(high, mid, hi)
        lo = np.where(high, lo, mid)
    return hi


def _pole_table(panels=64, gap=1e-6):
    """Running integral of 1/(1 + gap - x): stiff next to the pole at x = 1."""
    grid = np.linspace(0.0, 1.0, panels + 1)
    return -np.log1p(-grid / (1.0 + gap))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(table=hnp.arrays(
    float, st.integers(3, 1024),
    elements=st.floats(np.log(1e-8), 0.0),
).map(lambda logs: np.concatenate(([0.0], np.cumsum(np.exp(logs))))))
@example(table=_pole_table())
def test_pchip_inverse_matches_bisection_on_increasing_tables(table):
    grid = np.linspace(0.0, 1.0, table.shape[0])
    targets = table[-1] * grid
    u = _num.invert_pchip(grid, table, targets)
    assert np.all(np.diff(u) > 0.0)
    assert u[0] == 0.0 and u[-1] == 1.0
    spline = PchipInterpolator(grid, table)
    eps = np.finfo(float).eps
    # a few ulps of the target, plus the slope times a few ulps of u
    slack = 4.0 * eps * (np.abs(targets) + np.abs(spline(u, 1)) * np.abs(u))
    assert np.all(np.abs(spline(u) - targets) <= slack)
    # inside the table; where the interpolant is nearly flat, one ulp of the
    # target moves its root by more than 1e-12, so that much is allowed too
    inner = slice(1, -1)
    slack = 1e-12 + 4.0 * np.spacing(targets[inner]) / spline(u[inner], 1)
    gap = np.abs(u - _bisect_pchip(grid, table, targets))[inner]
    assert np.all(gap <= slack)


def test_a_zero_width_interval_inverts_without_a_division_warning():
    grid = np.linspace(0.0, 1.0, 9)
    # flat over two panels, at a level that is one of the targets
    accum = np.array([0.0, 1.0, 2.0, 4.0, 4.0, 4.0, 5.0, 7.0, 8.0])
    slopes = np.diff(accum) * 8.0

    def integrand(x):
        return slopes[np.clip((x * 8.0).astype(int), 0, 7)]

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        first = _num.invert_pchip(grid, accum / 8.0, grid)
        u = _num.invert_running_integral(integrand, grid, accum)
    assert first[4] == 0.625  # the right end of the flat run
    assert np.all(np.diff(first) > 0.0) and np.all(np.diff(u) > 0.0)
    np.testing.assert_allclose(np.interp(u, grid, accum), 8.0 * grid,
                               atol=1e-14)


def test_a_nan_integrand_fails_the_inversion():
    # The table is finite; the polish meets NaN past x = 0.6.  Without the
    # check the result was [0, .17, .32, .46, nan, nan, nan, nan, 1].
    grid = np.linspace(0.0, 1.0, 9)
    accum = grid + 0.5 * grid**2

    def integrand(x):
        return np.where(x > 0.6, np.nan, 1.0 + x)

    with pytest.raises(NumericalError, match="lost monotonicity"):
        _num.invert_running_integral(integrand, grid, accum)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(a=st.floats(-0.89, 0.89), b=st.floats(0.0, 12.0),
       c=st.floats(0.0, 2.0 * np.pi), panels=st.integers(16, 256))
def test_inverted_running_integral_matches_adaptive_quadrature(a, b, c, panels):
    def f(x):
        return 1.0 + a * np.sin(b * x + c)

    def integral(lo, hi):
        return quad(f, lo, hi, epsabs=0.0, epsrel=1e-13)[0]

    grid = np.linspace(0.0, 1.0, panels + 1)
    accum = np.concatenate(([0.0], np.cumsum(
        [integral(lo, hi) for lo, hi in zip(grid[:-1], grid[1:])]
    )))
    u = _num.invert_running_integral(f, grid, accum)
    assert u[0] == 0.0 and u[-1] == 1.0
    assert np.all(np.diff(u) > 0.0)
    reached = np.array([integral(0.0, x) for x in u])
    np.testing.assert_allclose(reached, accum[-1] * grid, rtol=1e-9,
                               atol=1e-9 * accum[-1])
