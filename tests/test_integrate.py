"""Geodesic integration, dense output, residual measurement, serialization."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from numpy.polynomial.polynomial import polyder
from scipy.interpolate import BPoly

import warpgeo as wg
from warpgeo import _num, integrate, warpfn
from warpgeo.manifold import _metric, christoffel
from warpgeo.errors import (
    ChartDomainError, InputError, NumericalError,
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
    # one acceleration per Christoffel-path RHS, four per step the
    # generated loop made
    calls = []
    real_rhs, real_loop = integrate.geodesic_rhs, warpfn.rk4_geodesic_loop

    def counted(*args):
        calls.append(1)
        return real_rhs(*args)

    def counted_loop(e, dim):
        loop = real_loop(e, dim)

        def counted(*args):
            states, failed = loop(*args)
            calls.extend([1] * 4 * (len(states) // (2 * dim) - 1))
            return states, failed
        return counted

    monkeypatch.setattr(integrate, "geodesic_rhs", counted)
    monkeypatch.setattr(warpfn, "rk4_geodesic_loop", counted_loop)
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
        # the same chart through its pointwise metric and symbols
        numpy_path = wg.MetricChart(
            n, metric_at=lambda p, c=chart: _metric(c, p),
            christoffel_at=lambda p, c=chart: christoffel(c, p),
            in_domain=chart.in_domain, name=chart.name)
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


def test_a_stage_off_the_warps_domain_makes_a_state_that_is_not_finite():
    # the metric stays finite at x1 = 0, so a stage crosses into x1 < 0,
    # where sqrt(x1) is a math domain error: that step's state is not finite
    w = wg.WarpField.from_expression("2 + sqrt(x1)", 1, 2.0, 3.0)
    chart = wg.conformal_metric(wg.euclidean(1), w, 1.0)
    with pytest.raises(ChartDomainError) as err:
        wg.integrate_geodesic(chart, np.array([0.5]), np.array([-2.0]),
                              wg.IntegratorConfig(steps=16))
    assert err.value.condition == warpfn.FINITE_STATE
    assert err.value.t_exit == 0.3125


# x1^3 overflows a float once a stage coordinate passes about 5.6e102
CUBED = wg.WarpField.from_expression("2 + 0.5*sin(x1^3)", 2, 1.5, 2.5)


@pytest.mark.parametrize("base", [wg.euclidean(2), wg.sphere(2)],
                         ids=["generated", "numpy"])
def test_an_integer_power_that_overflows_makes_a_state_that_is_not_finite(base):
    chart = wg.conformal_metric(base, CUBED, 0.5)
    with pytest.raises(ChartDomainError) as err, np.errstate(all="ignore"):
        wg.integrate_geodesic(chart, [1.2, 0.3], [1e150, 0.0],
                              wg.IntegratorConfig(steps=16))
    assert err.value.condition == warpfn.FINITE_STATE
    assert err.value.t_exit == 1.0 / 16.0


def test_a_float_failure_at_the_last_state_makes_that_state_not_finite():
    # exp(x1) overflows at x1 = 1000, a finite state inside the domain; the
    # last state's first-stage gradient is computed too, so a loop of no
    # steps ends at its one state, now NaN, and one of 16 steps at the
    # state its first step makes
    loop = warpfn.rk4_geodesic_loop(warpfn.parse("exp(x1)", 1), 1)
    for steps, states in ((0, 1), (16, 2)):
        flat, failed = loop((1000.0, 1.0), 1.0 / 16.0, (), steps)
        assert failed == (0, warpfn.FINITE_STATE)
        assert len(flat) == 2 * states and all(map(math.isnan, flat[-2:]))


def test_a_stage_that_is_not_finite_makes_a_numpy_step_not_finite():
    # the first stage coordinate overflows to inf, where the warp's scalar
    # form would take sin(inf): the numpy step makes a NaN state before any
    # right-hand side sees it, as the generated loops do
    w = wg.WarpField.from_expression("2 + 0.5*sin(x1)", 2, 1.5, 2.5)
    chart = wg.conformal_metric(wg.sphere(2), w, 0.5)
    with pytest.raises(ChartDomainError) as err, np.errstate(all="ignore"):
        wg.integrate_geodesic(chart, [1.2, 0.3], [1e150, 0.0],
                              wg.IntegratorConfig(steps=16))
    assert err.value.condition == warpfn.FINITE_STATE
    assert err.value.t_exit == 0.0625


def test_an_oracle_power_that_overflows_makes_a_state_that_is_not_finite():
    g1, g2 = wg.euclidean(2), wg.circle(1.0)
    with pytest.raises(ChartDomainError) as err:
        wg.integrate_coupled_oracle(g1, g2, CUBED, ([1.2, 0.3], [0.0]),
                                    ([1e150, 0.0], [0.5]), wg.IntegratorConfig(steps=16))
    assert err.value.chart_name == g1.name
    assert err.value.condition == warpfn.FINITE_STATE
    assert err.value.t_exit == 1.0 / 16.0


@pytest.mark.parametrize("weight, p0, message", [
    (warpfn.Const(math.nan), 0.3, "off the chart"),  # NaN everywhere: off log's domain
    ("t - 0.5", 0.3, None),          # negative at the start
    ("1 - t", 0.0, None),            # reaches zero at t = 1, a finite distance away
], ids=["nan", "negative", "vanishing"])
def test_a_bad_line_weight_is_a_numerical_failure(weight, p0, message):
    chart = wg.weighted_line(weight)
    if message is not None:
        with pytest.raises(NumericalError, match=message):
            _metric(chart, np.array([p0]))
    for line in (chart, wg.conformal_metric(chart, wg.WarpField.constant(1.0, 1), 1.0)):
        with pytest.raises(NumericalError):
            wg.integrate_geodesic(line, np.array([p0]), np.array([2.0]),
                                  wg.IntegratorConfig(steps=64))
    # the batched metric of a curve through the bad stretch
    t = np.linspace(0.0, 1.0, 9)
    curve = wg.Curve(t, (p0 + (1.0 - p0) * t)[:, None], np.full((9, 1), 1.0 - p0))
    with pytest.raises(NumericalError):
        wg.speed_drift(chart, curve)


# The per-step driver the generated loop replaced, kept as its reference:
# the chart's generated loop run one step at a time, each state checked
# finite and inside the chart's former domain predicate (the base's, on a
# rescaled chart).  A one-step loop tests the state it starts from too, so
# a failure that returns only that state is that state's failure.
def _per_step_outcome(chart, inside, p0, v0, steps):
    loop = warpfn.rk4_geodesic_loop(chart.exponent, chart.dim)
    h, y, states = 1.0 / steps, (*p0.tolist(), *v0.tolist()), []
    for i in range(steps + 1):
        if i:
            flat, _ = loop(y, h, chart.exponent_args, 1)
            if len(flat) == len(y):
                return "left", chart.name, (i - 1) / steps, y[:chart.dim]
            y = tuple(flat[len(y):])
        point = y[:chart.dim]
        if not (all(map(math.isfinite, y)) and inside(point)):
            return "left", chart.name, i / steps, point
        states.append(y)
    return "states", np.array(states)


def _loop_outcome(chart, p0, v0, steps):
    try:
        return "states", np.reshape(integrate._geodesic_flat(chart, p0, v0, steps),
                                    (steps + 1, -1))
    except ChartDomainError as exc:
        return "left", exc.chart_name, exc.t_exit, exc.point


_ONE_MINUS_T = warpfn.parse("1 - t", 1)
EXPONENT_CHARTS = [
    ("half_plane", wg.poincare_half_plane(), lambda p: p[1] > 0.0,
     lambda u: np.array([4.0 * u[0] - 2.0, 0.5 + 2.5 * u[1]])),
    ("ball2", wg.poincare_ball(2), lambda p: sum(x * x for x in p) < 1.0,
     lambda u: u - 0.5),
    ("ball3", wg.poincare_ball(3), lambda p: sum(x * x for x in p) < 1.0,
     lambda u: u - 0.5),
    ("euclidean2", wg.euclidean(2), lambda p: True, lambda u: 4.0 * u - 2.0),
    ("weighted_line", wg.weighted_line(_ONE_MINUS_T),
     lambda p: warpfn.evaluate(_ONE_MINUS_T, p) > 0.0, lambda u: 1.8 * u - 0.9),
    ("circle", wg.circle(2.0), lambda p: True, lambda u: 8.0 * u - 4.0),
]


@pytest.mark.parametrize("label,base,inside,draw", EXPONENT_CHARTS,
                         ids=[c[0] for c in EXPONENT_CHARTS])
@settings(max_examples=25, deadline=None, derandomize=True)
@given(data=st.data())
def test_the_loop_makes_the_states_of_the_per_step_driver(label, base, inside,
                                                           draw, data):
    """Bitwise the same states, and where a state fails, the same chart,
    parameter and point, on every exponent chart and its rescalings; the
    speeds reach far enough to leave the chart or overflow."""
    n = base.dim
    unit = st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n)
    w = wg.WarpField.from_expression(FLAT_WARPS[n], n, 1.0, 3.0)
    r = data.draw(st.floats(wg.admissible_range(w).lower + 1e-3, 5.0))
    p0 = np.asarray(draw(np.array(data.draw(unit))))
    speed = data.draw(st.sampled_from([1.0, 30.0, 1e3, 1e300]))
    v0 = speed * (np.array(data.draw(unit)) - 0.5)
    steps = data.draw(st.sampled_from([16, 64]))
    for chart in (base, wg.conformal_metric(base, w, r)):
        with np.errstate(all="ignore"):
            want = _per_step_outcome(chart, inside, p0, v0, steps)
            got = _loop_outcome(chart, p0, v0, steps)
        assert got[0] == want[0], (got, want)
        if got[0] == "states":
            assert np.array_equal(got[1], want[1])
        else:
            assert got[:-1] == want[:-1]
            assert np.array_equal(got[-1], want[-1], equal_nan=True)


def test_a_warp_above_its_declared_bound_ends_the_geodesic_at_once():
    # k reaches 2.5 where K0 = 2.2 is declared, so at r = -0.44, admissible
    # by the declaration, 1/k + r = -0.04 at the start point
    w = wg.WarpField.from_expression("2 + 0.5*sin(2*x1)", 2, 1.5, 2.2)
    chart = wg.conformal_metric(wg.poincare_half_plane(), w, -0.44)
    factor = warpfn.Binary("+", warpfn.Binary("/", warpfn.Const(1.0), w.expr),
                           warpfn.Var(2))
    with pytest.raises(ChartDomainError) as err:
        wg.integrate_geodesic(chart, np.array([math.pi / 4, 1.0]),
                              np.array([1.0, 0.0]), wg.IntegratorConfig(steps=256))
    assert err.value.t_exit == 0.0
    assert err.value.condition == f"{factor} > 0.0"
    assert str(factor) in str(err.value)
    assert err.value.payload()["condition"] == err.value.condition
    assert not chart.contains([math.pi / 4, 1.0])
    assert chart.contains([0.0, 1.0])


def test_a_state_that_overflows_inside_sine_is_not_finite():
    # the stage coordinates pass 1e308 within the first step, and sin(inf)
    # is a math domain error: the state that step makes is not finite
    w = wg.WarpField.from_expression("2 + 0.5*sin(2*x1)*cos(2*x2)", 2, 1.5, 2.5)
    chart = wg.conformal_metric(wg.euclidean(2), w, 0.5)
    with pytest.raises(ChartDomainError) as err:
        wg.integrate_geodesic(chart, [0.1, 1.0], [1e150, 0.0],
                              wg.IntegratorConfig(steps=16))
    assert err.value.condition == warpfn.FINITE_STATE
    assert err.value.t_exit == 1.0 / 16.0


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


@settings(max_examples=40, deadline=None, derandomize=True)
@given(nodes=st.integers(5, 1025), dim=st.integers(1, 3),
       length=st.floats(0.05, 50.0), seed=st.integers(0, 2**32 - 1))
def test_dense_output_agrees_with_scipy_bernstein_polynomials(nodes, dim, length, seed):
    rng = np.random.default_rng(seed)
    params = np.linspace(0.0, length, nodes)
    values, d1, d2 = (rng.normal(size=(nodes, dim)) for _ in range(3))
    h = np.diff(params)[:, None]
    reference = BPoly(np.stack([
        values[:-1],
        values[:-1] + 0.2 * d1[:-1] * h,
        values[:-1] + 0.4 * d1[:-1] * h + 0.05 * d2[:-1] * h * h,
        values[1:] - 0.4 * d1[1:] * h + 0.05 * d2[1:] * h * h,
        values[1:] - 0.2 * d1[1:] * h,
        values[1:],
    ]), params)
    dense = integrate._hermite_quintic(params, values, d1, d2)
    scale = np.max(np.abs(reference(params)))
    t = np.concatenate((rng.uniform(0.0, length, 64), params))
    got, want = dense(t), reference(t)
    assert got.shape == want.shape == (t.size, dim)
    assert np.max(np.abs(got - want)) <= 1e-15 * scale
    for x in (0.0, length, params[nodes // 2], float(t[0])):
        got, want = dense(x), reference(x)
        assert got.shape == want.shape == (dim,)
        assert np.max(np.abs(got - want)) <= 1e-15 * scale


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
# the coupled system on arrays, against pointwise references


def _pointwise_accelerations(g1, g2, w, x, u, y, v):
    """The coupled accelerations at one state, contracted point by point."""
    k, dk = warpfn.value_and_gradient(w.expr, x)
    lift = 0.5 * float(v @ wg.manifold._metric(g2, y) @ v)
    acc1 = -(wg.christoffel(g1, x) @ u) @ u
    acc1 = acc1 - lift * np.linalg.solve(wg.manifold._metric(g1, x), dk)
    acc2 = -(wg.christoffel(g2, y) @ v) @ v - (float(dk @ u) / k) * v
    return acc1, acc2


def _pointwise_residual(g1, g2, w, base, fiber):
    acc1 = _num.derivative_on_grid(base.velocities, base.h)
    acc2 = _num.derivative_on_grid(fiber.velocities, base.h)
    r1 = r2 = 0.0
    for i in range(base.steps + 1):
        a1, a2 = _pointwise_accelerations(g1, g2, w, base.points[i], base.velocities[i],
                                          fiber.points[i], fiber.velocities[i])
        r1 = max(r1, float(np.max(np.abs(acc1[i] - a1))))
        r2 = max(r2, float(np.max(np.abs(acc2[i] - a2))))
    return r1, r2


def _pointwise_norm_identities(geo, w, g1, g2):
    mu, nu = geo.base
    k0x = w.value_at(mu.points[0])
    X2 = wg.metric_eval(g1, mu.points[0], mu.velocities[0], mu.velocities[0])
    Y2 = wg.metric_eval(g2, nu.points[0], nu.velocities[0], nu.velocities[0])
    r, a, b = geo.r, geo.a_r, geo.b_r
    base_err = fiber_err = 0.0
    products = []
    for x, u, y, v in zip(geo.gamma.points, geo.gamma.velocities,
                          geo.tau.points, geo.tau.velocities):
        k = w.value_at(x)
        pred = a * a * (1.0 + r * k0x) * (1.0 + r * k) / (k0x * k) * X2
        base_err = max(base_err, abs(wg.metric_eval(g1, x, u, u) - pred))
        products.append(k * k * wg.metric_eval(g2, y, v, v))
        fiber_err = max(fiber_err, abs(products[-1] - b * b * Y2))
    products = np.array(products)
    return {"base_norm_error": base_err, "fiber_norm_error": fiber_err,
            "first_integral_drift": float(np.max(np.abs(products - products[0])))}


def _user_chart():
    """A chart that gives its metric only: symbols by central differences."""
    return wg.MetricChart(2, lambda p: np.array([[1.0 + p[0] ** 2, 0.3 * p[0] * p[1]],
                                                 [0.3 * p[0] * p[1], 2.0 + np.sin(p[1])]]),
                          name="user")


# each base: (chart, a point well inside it); the curves stay within 0.2
ARRAY_BASES = {
    "half_plane": (wg.poincare_half_plane, [0.1, 1.0]),
    "ball": (lambda: wg.poincare_ball(2), [0.1, -0.2]),
    "sphere2": (lambda: wg.sphere(2), [1.2, 0.4]),
    "user": (_user_chart, [0.3, 0.5]),
}
ARRAY_FIBERS = {
    "circle": (lambda: wg.circle(1.5), [0.2]),
    "weighted_line": (lambda: wg.weighted_line("(1 + t)^2"), [0.4]),
}


def _smooth_curve(start, coefficients, steps=32):
    """``start + c1 t + c2 t^2 + c3 sin(3 t)`` with its exact velocity."""
    t = np.linspace(0.0, 1.0, steps + 1)[:, None]
    c1, c2, c3 = (np.array(c) for c in coefficients)
    return wg.Curve(t[:, 0], start + c1 * t + c2 * t * t + c3 * np.sin(3.0 * t),
                    c1 + 2.0 * c2 * t + 3.0 * c3 * np.cos(3.0 * t))


def _coefficients(d):
    return st.lists(st.lists(st.floats(-0.06, 0.06), min_size=d, max_size=d),
                    min_size=3, max_size=3)


@settings(max_examples=40, deadline=None)
@given(base=st.sampled_from(sorted(ARRAY_BASES)), fiber=st.sampled_from(sorted(ARRAY_FIBERS)),
       cb=_coefficients(2), cf=_coefficients(1), r=st.floats(0.2, 2.0),
       a=st.floats(0.5, 2.0), b=st.floats(0.5, 2.0))
def test_batched_diagnostics_match_pointwise_references(base, fiber, cb, cf, r, a, b):
    make1, x0 = ARRAY_BASES[base]
    make2, y0 = ARRAY_FIBERS[fiber]
    g1, g2 = make1(), make2()
    w = wg.WarpField.from_expression("2 + 0.5*sin(2*x1)*cos(2*x2)", 2, 1.5, 2.5)
    gamma, tau = _smooth_curve(np.array(x0), cb), _smooth_curve(np.array(y0), cf)
    mu, nu = _smooth_curve(np.array(x0), cb[::-1]), _smooth_curve(np.array(y0), cf[::-1])
    got = wg.coupled_residual(g1, g2, w, gamma, tau)
    want = _pointwise_residual(g1, g2, w, gamma, tau)
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)
    geo = wg.RiemannianGeodesic(
        r=r, base=(mu, nu), gamma=gamma, tau=tau, a_r=a, b_r=b,
        initial_tangents=(wg.TangentVector(gamma.points[0], gamma.velocities[0]),
                          wg.TangentVector(tau.points[0], tau.velocities[0])),
        residuals=got)
    got = wg.norm_identity_errors(geo, w, g1, g2)
    want = _pointwise_norm_identities(geo, w, g1, g2)
    for key in want:
        np.testing.assert_allclose(got[key], want[key], rtol=1e-12, atol=0.0, err_msg=key)


def test_a_node_off_the_chart_is_a_numerical_error():
    g1, g2 = wg.poincare_half_plane(), wg.circle(1.0)
    w = wg.WarpField.from_expression("2 + 0.5*sin(2*x1)", 2, 1.5, 2.5)
    # the base leg dips below the x axis in its last quarter
    base = _smooth_curve(np.array([0.0, 0.5]), [[0.3, 0.0], [0.0, -0.7], [0.0, 0.0]])
    assert base.points[-1, 1] < 0.0 < base.points[0, 1]
    fiber = _smooth_curve(np.array([0.0]), [[0.4], [0.0], [0.0]])
    for measure in (lambda: wg.coupled_residual(g1, g2, w, base, fiber),
                    lambda: _pointwise_residual(g1, g2, w, base, fiber),
                    lambda: wg.geodesic_residual(g1, base)):
        with pytest.raises(NumericalError, match="off the chart"):
            measure()


def _array_kernel_step(g1, g2, w):
    """The classical RK4 step of the array kernel on one row."""
    d1, d2 = g1.dim, g2.dim

    def rhs(state):
        x, u, y, v = np.split(state[None], (d1, 2 * d1, 2 * d1 + d2), axis=1)
        acc1, acc2 = integrate._coupled_accelerations(g1, g2, w, x, u, y, v)
        return np.concatenate((u[0], acc1[0], v[0], acc2[0]))

    return integrate._classical_step(rhs)


@pytest.mark.parametrize("base, x0, X0", [
    ("half_plane", [0.0, 1.0], [1.1, 0.4]),
    ("flat", [0.0, 0.0], [2.2, 1.4]),
    ("ball", [0.1, -0.2], [0.5, 0.3]),
])
def test_generated_oracle_step_matches_the_array_kernel(base, x0, X0):
    g1 = {"half_plane": wg.poincare_half_plane(), "flat": wg.euclidean(2),
          "ball": wg.poincare_ball(2)}[base]
    g2 = wg.circle(1.5)
    w = wg.WarpField.from_expression("2 + 0.5*sin(2*x1)*cos(2*x2)", 2, 1.5, 2.5)
    cfg = wg.IntegratorConfig(steps=256)
    z0, V0 = (np.array(x0), np.array([0.3])), (np.array(X0), np.array([0.8]))
    base_curve, fiber_curve = wg.integrate_coupled_oracle(g1, g2, w, z0, V0, cfg)
    loop = warpfn.rk4_coupled_loop(g1.exponent, 2, w.expr, g2.exponent, 1)
    classical = _array_kernel_step(g1, g2, w)
    states = np.column_stack([base_curve.points, base_curve.velocities,
                              fiber_curve.points, fiber_curve.velocities])

    def generated(y, h):
        # one step of the loop
        return loop(y, h, (), 1)[0][-len(y):]

    worst = max(np.max(np.abs(np.subtract(generated(tuple(y), 1 / 256),
                                          classical(tuple(y), 1 / 256))))
                for y in states.tolist())
    assert worst <= 1e-12
    reference = integrate._rk4(classical, states[0], 256, (g1, g2))
    np.testing.assert_allclose(states, reference, rtol=0.0, atol=1e-12)


def test_an_oracle_stage_off_the_chart_is_a_numerical_error():
    # the second stage of the first step falls below the x axis, where the
    # base exponent -log(x2) is a math domain error: that step's state is
    # not finite
    g1, g2 = wg.poincare_half_plane(), wg.circle(1.0)
    w = wg.WarpField.from_expression("2 + 0.5*sin(2*x1)", 2, 1.5, 2.5)
    with pytest.raises(ChartDomainError) as err:
        wg.integrate_coupled_oracle(g1, g2, w, (np.array([0.0, 0.1]), np.array([0.0])),
                                    (np.array([0.0, -8.0]), np.array([0.5])),
                                    wg.IntegratorConfig(steps=16))
    assert err.value.chart_name == g1.name
    assert err.value.condition == warpfn.FINITE_STATE
    assert err.value.t_exit == 1.0 / 16.0


def test_an_oracle_velocity_of_the_wrong_dimension_is_an_input_error():
    # checked with the points, before the unpacking of the base block or the
    # product with the fiber's metric can fail on it
    w = wg.WarpField.from_expression("2 + 0.5*sin(2*x1)", 2, 1.5, 2.5)
    cfg = wg.IntegratorConfig(steps=16)
    for g2, V0 in ((wg.circle(1.0), ([1.0, 0.5, 0.0], [0.5])),
                   (wg.sphere(2, 1.0), ([1.0, 0.5], [0.5]))):
        z0 = ([0.0, 1.0], [0.3] * g2.dim)
        with pytest.raises(InputError, match="initial data of dimension"):
            wg.integrate_coupled_oracle(wg.poincare_half_plane(), g2, w, z0, V0, cfg)


def test_the_diagnostics_and_the_oracle_run_on_arrays(monkeypatch):
    g1, g2 = wg.poincare_half_plane(), wg.circle(1.0)
    w = wg.WarpField.from_expression("2 + 0.5*sin(2*x1)", 2, 1.5, 2.5)
    cfg = wg.IntegratorConfig(steps=64)
    mu = wg.integrate_geodesic(wg.conformal_metric(g1, w, 1.0), [0.0, 1.0], [1.0, 0.5], cfg)
    nu = wg.integrate_geodesic(g2, [0.0], [0.7], cfg)
    geo = wg.riemannize(mu, nu, w, 1.0, g1, g2, compat_tol=math.inf, residual_tol=None)

    def pointwise(*args, **kwargs):
        raise AssertionError("a pointwise path ran")

    monkeypatch.setattr(wg.manifold, "christoffel", pointwise)
    monkeypatch.setattr(wg.manifold, "_metric", pointwise)
    monkeypatch.setattr(warpfn, "value_and_gradient", pointwise)
    monkeypatch.setattr(np.linalg, "solve", pointwise)
    assert wg.coupled_residual(g1, g2, w, geo.gamma, geo.tau) == geo.residuals
    wg.norm_identity_errors(geo, w, g1, g2)
    Xt, Yt = geo.initial_tangents
    wg.integrate_coupled_oracle(g1, g2, w, (mu.points[0], nu.points[0]),
                                (Xt.components, Yt.components), cfg)


# ---------------------------------------------------------------------------
# configuration and curve validation


def test_integrator_config_validation():
    with pytest.raises(InputError):
        wg.IntegratorConfig(steps=8)
    for steps in (32.0, np.float64(32.0), "32"):
        with pytest.raises(InputError, match="must be an integer"):
            wg.IntegratorConfig(steps=steps)
    assert wg.IntegratorConfig(steps=np.int64(32)).steps == 32
    for tolerance in (0.0, math.inf, math.nan):
        with pytest.raises(InputError, match="tolerance"):
            wg.IntegratorConfig(tolerance=tolerance)
    cfg = wg.IntegratorConfig()
    assert cfg.steps == 1024


def test_curve_validation():
    rows = np.zeros((5, 1))
    with pytest.raises(InputError, match="uniform grid from 0"):
        wg.Curve(np.linspace(0.1, 1.0, 5), rows, rows)
    with pytest.raises(InputError, match="uniform grid from 0"):
        wg.Curve(np.array([0.0, 0.5, 0.5, 0.5, 0.5]), rows, rows)
    with pytest.raises(InputError, match="uniform grid from 0"):
        wg.Curve(np.array([0.0, 0.25, np.nan, 0.75, 1.0]), rows, rows)
    with pytest.raises(InputError, match="shapes"):
        wg.Curve(np.linspace(0.0, 1.0, 5), np.zeros((6, 1)), np.zeros((6, 1)))


def test_curve_needs_a_uniform_grid_of_five_nodes():
    with pytest.raises(InputError, match="uniform grid from 0"):
        wg.Curve(np.array([0.0, 0.1, 0.3, 0.6, 1.0]), np.zeros((5, 1)), np.ones((5, 1)))
    with pytest.raises(InputError, match="five nodes"):
        wg.Curve(np.linspace(0.0, 1.0, 4), np.zeros((4, 1)), np.ones((4, 1)))
    curve = wg.Curve(np.linspace(0.0, 1.0, 5), np.zeros((5, 1)), np.ones((5, 1)))
    assert curve.h == 0.25


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


_CSV_VALUES = (st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True)
               | st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -1e-310]))


@st.composite
def _csv_tables(draw):
    """Tables of 1-30 rows and 1-5 columns; a column either draws its
    values freely or repeats a few, as the scan's coordinate columns do."""
    rows, cols = draw(st.integers(1, 30)), draw(st.integers(1, 5))
    columns = []
    for _ in range(cols):
        pool = draw(st.lists(_CSV_VALUES, min_size=1, max_size=4))
        values = st.sampled_from(pool) if draw(st.booleans()) else _CSV_VALUES
        columns.append(draw(st.lists(values, min_size=rows, max_size=rows)))
    return np.array(columns, dtype=float).T


def _writer_keyed_by_value(path, header, table):
    """The distinct-value writer keyed by float value instead of by bits."""
    table = np.asarray(table, dtype=float)
    columns = []
    for j, column in enumerate(table.T):
        fmt = "%.17g\n" if j == table.shape[1] - 1 else "%.17g,"
        values = column.tolist()
        text = {x: fmt % x for x in values}
        columns.append([text[x] for x in values])
    with open(path, "w") as f:
        f.write(header + "\n")
        f.writelines(map("".join, zip(*columns)))


def _check_writer_against_savetxt(writer, directory):
    @settings(max_examples=150, deadline=None, database=None)
    @example(table=np.array([[0.0], [-0.0], [0.0], [0.0], [0.0]]), header="x1")
    @given(table=_csv_tables(), header=st.text("abrtvx0123456789_,", min_size=1, max_size=20))
    def check(table, header):
        writer(directory / "got.csv", header, table)
        np.savetxt(directory / "want.csv", table, fmt="%.17g", delimiter=",",
                   header=header, comments="")
        assert (directory / "got.csv").read_bytes() == (directory / "want.csv").read_bytes()

    check()


def test_the_csv_writer_writes_the_bytes_of_savetxt(tmp_path):
    _check_writer_against_savetxt(integrate._write_csv, tmp_path)


def test_the_property_sees_a_writer_that_merges_signed_zeros(tmp_path):
    # keyed by value, -0.0 finds the text of 0.0; keyed by bits, each its own
    with pytest.raises(AssertionError):
        _check_writer_against_savetxt(_writer_keyed_by_value, tmp_path)


# ---------------------------------------------------------------------------
# quadrature and differencing building blocks


def test_simpson_rules_are_exact_on_cubics():
    t = np.linspace(0.0, 1.0, 65)
    h = t[1] - t[0]
    values = t**3
    cumulative = _num.cumulative_simpson(values, h)
    np.testing.assert_allclose(cumulative, t**4 / 4.0, atol=1e-15)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(steps=st.integers(3, 1025), seed=st.integers(0, 2**32 - 1),
       scale=st.floats(-300.0, 300.0), cubic=st.lists(st.floats(-8.0, 8.0),
                                                       min_size=4, max_size=4))
def test_total_weights_are_the_running_rules_total(steps, seed, scale, cubic):
    # The weights give the last node of cumulative_simpson as one dot
    # product.  The two sums of steps + 1 terms differ by roundoff only: a
    # sample enters either with at most 33 h / 24 of absolute weight, so
    # they differ by at most (steps + 3) eps times 1.5 h sum |f|.  Every
    # weight is positive, and the rule integrates cubics exactly.
    weights = _num.total_weights(steps)
    assert weights.shape == (steps + 1,) and np.all(weights > 0.0)
    h = 1.0 / steps
    f = np.random.default_rng(seed).standard_normal(steps + 1) * 10.0 ** scale
    bound = (steps + 3) * _num.EPS * 1.5 * h * np.sum(np.abs(f))
    assert abs(weights @ f - _num.cumulative_simpson(f, h)[-1]) <= bound
    t = np.linspace(0.0, 1.0, steps + 1)
    c0, c1, c2, c3 = cubic
    exact = c0 + c1 / 2.0 + c2 / 3.0 + c3 / 4.0
    assert weights @ (c0 + t * (c1 + t * (c2 + t * c3))) == pytest.approx(
        exact, rel=1e-13, abs=1e-13 * (1.0 + np.sum(np.abs(cubic))))


def test_the_weights_need_three_panels():
    assert np.array_equal(24 * 3 * _num.total_weights(3), [9.0, 27.0, 27.0, 9.0])
    with pytest.raises(InputError, match="three panels"):
        _num.total_weights(2)


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


@settings(max_examples=60, deadline=None, derandomize=True)
@given(nodes=st.integers(5, 1025), dim=st.sampled_from([None, 1, 3]),
       seed=st.integers(0, 2**32 - 1))
def test_grid_derivative_is_exact_on_random_quartics(nodes, dim, seed):
    # Every stencil, the one-sided end rows too, is exact on polynomials of
    # degree four, so only roundoff is left: a few eps of the values,
    # divided by the step.  The worst of 5000 random draws was 12 eps of
    # the coefficients' sum over the step, 1.3e-12 of the derivative's.
    rng = np.random.default_rng(seed)
    coefs = rng.uniform(-1.0, 1.0, size=(5,) if dim is None else (5, dim))
    t = np.linspace(0.0, 1.0, nodes)
    h = t[1] - t[0]
    values = t[:, None] ** np.arange(5.0) @ coefs
    got = _num.derivative_on_grid(values, h)
    want = t[:, None] ** np.arange(4.0) @ polyder(coefs)
    assert got.shape == want.shape == (nodes,) + coefs.shape[1:]
    bound = 32.0 * np.finfo(float).eps * np.max(np.sum(np.abs(coefs), axis=0)) / h
    assert np.max(np.abs(got - want)) <= bound
    # a column's derivative does not depend on the columns stacked beside it
    for j in range(0 if dim is None else dim):
        np.testing.assert_array_equal(got[:, j], _num.derivative_on_grid(values[:, j], h))


def test_grid_derivative_handles_stacked_columns():
    t = np.linspace(0.0, 1.0, 33)
    table = np.column_stack([t**2, np.full_like(t, 3.0)])
    got = _num.derivative_on_grid(table, t[1] - t[0])
    np.testing.assert_allclose(got[:, 0], 2.0 * t, atol=1e-12)
    np.testing.assert_allclose(got[:, 1], 0.0, atol=1e-13)


def _quintic_hermite(grid, accum, slopes):
    """The table's quintic Hermite interpolant, built by scipy from the
    values, the slopes and the slopes' grid derivative."""
    bend = _num.derivative_on_grid(slopes, grid[1] - grid[0])
    return BPoly.from_derivatives(grid, np.column_stack([accum, slopes, bend]))


def test_inversion_survives_a_pole_next_to_the_interval():
    # F' = 1/(1 + gap - x), so F = -log1p(-x/(1 + gap)): next to x = 1 the
    # linear first guess can be off by more than a node spacing, and the
    # capped Newton steps have to keep the nodes ordered.  At gap 1e-6 the
    # table no longer resolves F, which is an error.
    grid = np.linspace(0.0, 1.0, 1025)
    for gap in (1e-2, 1e-6):
        accum = -np.log1p(-grid / (1.0 + gap))
        slopes = 1.0 / (1.0 + gap - grid)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            if gap == 1e-6:
                with pytest.raises(NumericalError, match="inverse of a running integral"):
                    _num.invert_running_integral(grid, accum, slopes)
                continue
            u, estimate = _num.invert_running_integral(grid, accum, slopes)
        assert u[0] == 0.0 and u[-1] == 1.0
        assert np.all(np.diff(u) > 0.0)
        exact = (1.0 + gap) * -np.expm1(-accum[-1] * grid)
        assert np.max(np.abs(u - exact)) <= estimate <= _num.INVERSE_TOL * grid[1]


def test_a_zero_width_interval_inverts_without_a_division_warning():
    grid = np.linspace(0.0, 1.0, 9)
    # flat over two panels, at a level that is one of the targets
    accum = np.array([0.0, 1.0, 2.0, 4.0, 4.0, 4.0, 5.0, 7.0, 8.0])
    slopes = (np.diff(accum) * 8.0)[np.clip((grid * 8.0).astype(int), 0, 7)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        u = _num.invert_running_integral(grid, accum, slopes)[0]
    assert np.all(np.diff(u) > 0.0)
    np.testing.assert_allclose(_quintic_hermite(grid, accum, slopes)(u), 8.0 * grid,
                               atol=1e-14)


def test_a_nan_integrand_fails_the_inversion():
    # The values are finite; the slopes are NaN past x = 0.6.  Nodes whose
    # Hermite piece is NaN never move, so only the error estimate sees it.
    grid = np.linspace(0.0, 1.0, 9)
    accum = grid + 0.5 * grid**2
    slopes = np.where(grid > 0.6, np.nan, 1.0 + grid)
    with pytest.raises(NumericalError, match="not resolved"):
        _num.invert_running_integral(grid, accum, slopes)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(a=st.floats(-0.89, 0.89), b=st.floats(0.0, 12.0),
       c=st.floats(0.0, 2.0 * np.pi), panels=st.integers(16, 128))
def test_inversion_error_is_within_its_estimate_and_falls_at_fourth_order(a, b, c,
                                                                         panels):
    # Exact tables of F(x) = x + a (cos c - cos(b x + c))/b, the running
    # integral of 1 + a sin(b x + c), leave only the interpolation error.
    # The estimate must bound it (safety factor 1, plus roundoff), and a
    # step four times finer must cut it at least 4^4-fold down to roundoff:
    # fourth order at least, over two halvings, because the first halving
    # of the coarsest tables (b h near 0.5) is not yet asymptotic.
    def f(x):
        return 1.0 + a * np.sin(b * x + c)

    def F(x):  # the cosines' difference as a product, which keeps small b exact
        return x + a * x * np.sin(0.5 * b * x + c) * np.sinc(0.5 * b * x / np.pi)

    errors = []
    for n in (panels, 4 * panels):
        grid = np.linspace(0.0, 1.0, n + 1)
        u, estimate = _num.invert_running_integral(grid, F(grid), f(grid))
        assert u[0] == 0.0 and u[-1] == 1.0
        assert np.all(np.diff(u) > 0.0)
        lo, hi = np.zeros(n - 1), np.ones(n - 1)
        for _ in range(60):  # bisection on F itself, increasing since f >= 0.11
            mid = 0.5 * (lo + hi)
            below = F(mid) < F(1.0) * grid[1:-1]
            lo, hi = np.where(below, mid, lo), np.where(below, hi, mid)
        errors.append(np.max(np.abs(u[1:-1] - 0.5 * (lo + hi))))
        assert errors[-1] <= estimate + 1e-14
    assert errors[1] <= errors[0] / 256.0 + 1e-14


def test_a_table_that_does_not_resolve_the_inverse_is_refused():
    # The README instance at 64 steps, 1e-4 above the lowest admissible r:
    # k/(1 + r k) changes on the scale of the grid, and the estimate reads
    # about 0.06 of a step.
    w = wg.WarpField.from_expression("2 + 0.5*sin(2*x1)", 2, 1.5, 2.5)
    r = wg.admissible_range(w).lower + 1e-4
    mu = wg.beta_of_r(wg.poincare_half_plane(), wg.circle(1.0), w, np.array([0.0, 1.0]),
                      np.array([1.2, 0.7]), r, wg.IntegratorConfig(steps=64)).mu
    with pytest.raises(NumericalError, match="not resolved by its table"):
        wg.compute_a_and_phi(mu, w, r)
