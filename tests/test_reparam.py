"""Reparametrization maps, compatibility, assembly, and classification.

The quadrature oracles here are deliberately independent of the package's
own integration rules: closed forms where the warp admits one, and adaptive
``scipy.integrate.quad`` elsewhere.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

import warpgeo as wg
from warpgeo import _num, integrate, reparam
from warpgeo.errors import CompatibilityError, InputError, NumericalError
from warpgeo.manifold import metric_eval
from warpgeo.reparam import _leg_constants

STEPS = 1024


def _line_curve(scale, steps=STEPS):
    """The straight trace t -> scale * t as a stored curve."""
    t = np.linspace(0.0, 1.0, steps + 1)
    return wg.Curve(t, scale * t[:, None], np.full((steps + 1, 1), float(scale)))


def _sine_field(dim=1):
    return wg.WarpField.from_expression("2 + sin(x1)", dim, 1.0, 3.0)


# ---------------------------------------------------------------------------
# the base-leg map and its constant


def test_base_constant_for_constant_warp():
    mu = _line_curve(1.0, steps=256)
    for c, r, want in [(1.0, 0.0, 1.0), (1.0, 3.0, 0.25), (2.0, 1.0, 2.0 / 3.0)]:
        phi = wg.compute_a_and_phi(mu, wg.WarpField.constant(c, 1), r)
        assert phi.constant == pytest.approx(want, rel=1e-12)
        np.testing.assert_allclose(phi.values, phi.grid, atol=1e-10)


def test_base_constant_closed_form_for_sine_warp():
    # Along mu(t) = pi t the r = 0 constant is the average of 2 + sin,
    # which integrates to 2 + 2/pi.
    mu = _line_curve(np.pi)
    phi = wg.compute_a_and_phi(mu, _sine_field(), 0.0)
    assert phi.constant == pytest.approx(2.0 + 2.0 / np.pi, rel=1e-12)
    # Symmetry of sin about the midpoint pins the map's centre exactly.
    assert phi.values[STEPS // 2] == pytest.approx(0.5, abs=1e-10)


def test_base_constant_against_adaptive_quadrature():
    mu = _line_curve(np.pi)
    w = _sine_field()
    r = 1.0
    phi = wg.compute_a_and_phi(mu, w, r)
    want, err = quad(lambda t: (2 + np.sin(np.pi * t)) / (1 + r * (2 + np.sin(np.pi * t))), 0.0, 1.0)
    assert err < 1e-12
    assert phi.constant == pytest.approx(want, rel=1e-11)


def test_base_map_satisfies_its_derivative_relation():
    mu = _line_curve(np.pi)
    w = _sine_field()
    r = 1.0
    phi = wg.compute_a_and_phi(mu, w, r)
    h = phi.grid[1] - phi.grid[0]
    slope = _num.derivative_on_grid(phi.values, h)
    k = wg.values_along(w, np.atleast_2d(mu.point_at(phi.values)))
    want = phi.constant * (1.0 + r * k) / k
    assert np.max(np.abs(slope - want)) <= 1e-6
    np.testing.assert_allclose(phi.derivative_values, want, rtol=1e-9)


# ---------------------------------------------------------------------------
# the fiber-leg map


def test_fiber_constant_closed_form():
    gamma = _line_curve(np.pi)
    psi = wg.compute_b_and_psi(gamma, _sine_field())
    # b = pi / integral of 1/(2 + sin) over [0, pi] = 3 sqrt(3) / 2.
    assert psi.constant == pytest.approx(1.5 * np.sqrt(3.0), rel=1e-12)
    assert psi.values[STEPS // 2] == pytest.approx(0.5, abs=1e-12)

    flat = wg.compute_b_and_psi(_line_curve(1.0, steps=128), wg.WarpField.constant(2.0, 1))
    assert flat.constant == pytest.approx(2.0, rel=1e-13)
    np.testing.assert_allclose(flat.values, flat.grid, atol=1e-13)


def test_fiber_constant_against_adaptive_quadrature():
    gamma = _line_curve(np.pi)
    psi = wg.compute_b_and_psi(gamma, _sine_field())
    integral, err = quad(lambda u: 1.0 / (2.0 + np.sin(u)), 0.0, np.pi)
    assert err < 1e-12
    assert psi.constant == pytest.approx(np.pi / integral, rel=1e-11)


def test_fiber_map_satisfies_its_derivative_relation():
    gamma = _line_curve(np.pi)
    w = _sine_field()
    psi = wg.compute_b_and_psi(gamma, w)
    h = psi.grid[1] - psi.grid[0]
    slope = _num.derivative_on_grid(psi.values, h)
    want = psi.constant / wg.values_along(w, gamma.points)
    assert np.max(np.abs(slope - want)) <= 1e-6


@settings(max_examples=25, deadline=None, derandomize=True)
@given(c0=st.floats(1.5, 3.0), ratio=st.floats(-0.5, 0.5),
       c2=st.floats(0.5, 2.0), offset=st.floats(0.1, 3.0),
       X0=st.tuples(st.floats(1.0, 2.2), st.floats(-0.5, 1.0)))
def test_leg_constants_are_the_map_constants(c0, ratio, c2, offset, X0):
    # The quadratures over mu's nodes give phi's constant exactly, and
    # psi's up to the change of variables between mu's grid and gamma's:
    # 6.8e-10 relative at worst over 300 seeded draws of this space.
    c1 = ratio * c0
    w = wg.WarpField.from_expression(f"{c0!r} + {c1!r}*sin({c2!r}*x1)", 2,
                                     c0 - abs(c1), c0 + abs(c1))
    r = wg.admissible_range(w).lower + offset
    chart = wg.conformal_metric(wg.poincare_half_plane(), w, r)
    mu = wg.integrate_geodesic(chart, np.array([0.0, 1.0]), np.array(X0),
                               wg.IntegratorConfig(steps=256))
    a, b = _leg_constants(mu, w, r)
    phi = wg.compute_a_and_phi(mu, w, r)
    psi = wg.compute_b_and_psi(wg.reparametrize(mu, phi), w)
    assert a == phi.constant
    assert b == pytest.approx(psi.constant, rel=1e-8)


# ---------------------------------------------------------------------------
# monotone map mechanics


def test_monotone_map_rejects_non_monotone_values():
    grid = np.linspace(0.0, 1.0, 5)
    with pytest.raises(NumericalError):
        wg.MonotoneMap(grid, np.array([0.0, 0.4, 0.3, 0.8, 1.0]), 1.0, np.ones(5))
    with pytest.raises(NumericalError):
        wg.MonotoneMap(grid, np.array([0.0, 0.2, np.nan, 0.8, 1.0]), 1.0, np.ones(5))


def test_map_computation_requires_a_uniform_grid():
    with pytest.raises(InputError, match="uniform"):
        wg.Curve(np.array([0.0, 0.1, 0.3, 0.6, 1.0]), np.zeros((5, 1)), np.ones((5, 1)))


# k attains 2.5 at x1 = pi/4, above the declared K0 = 2.2: r = -0.44 is
# admissible, yet 1 + r k < 0 from x1 = 0.29 on the leg x = 1.5 t
MISDECLARED = wg.WarpField.from_expression("2 + 0.5*sin(2*x1)", 1, 1.5, 2.2)


def _raises_at_the_first_bad_node(call):
    with pytest.raises(NumericalError, match=r"at \[0\.29296875\], where k = 2\.276") as err:
        call()
    assert "r = -0.44" in str(err.value)
    assert "[k0, K0] = [1.5, 2.2]" in str(err.value)


def test_the_base_map_checks_k_at_its_nodes():
    # it used to end in "inverse of a running integral did not converge"
    _raises_at_the_first_bad_node(
        lambda: wg.compute_a_and_phi(_line_curve(1.5, steps=256), MISDECLARED, -0.44))


def test_the_trace_side_constant_checks_k_at_its_nodes():
    # it used to return a = -106.3
    _raises_at_the_first_bad_node(
        lambda: wg.phi_constant_from_trace(_line_curve(1.5, steps=256), MISDECLARED, -0.44))


def test_the_norm_identities_check_k_at_their_nodes():
    g1, g2, one, mu, nu = _flat_pair()
    geo = dataclasses.replace(wg.riemannize(mu, nu, one, 0.0, g1, g2), r=-0.44,
                              gamma=_line_curve(1.5, steps=256))
    _raises_at_the_first_bad_node(lambda: wg.norm_identity_errors(geo, MISDECLARED, g1, g2))


# ---------------------------------------------------------------------------
# composing curves with maps


def test_reparametrize_with_the_identity_map():
    mu = _line_curve(2.0, steps=64)
    ident = wg.MonotoneMap(mu.params, mu.params, 1.0, derivative_values=np.ones(65))
    out = wg.reparametrize(mu, ident)
    np.testing.assert_allclose(out.points, mu.points, atol=1e-14)
    np.testing.assert_allclose(out.velocities, mu.velocities, atol=1e-13)


def test_reparametrize_pins_endpoints_and_chains_velocities():
    mu = _line_curve(1.0, steps=64)
    grid = mu.params
    m = wg.MonotoneMap(grid, grid**2, 1.0, derivative_values=2.0 * grid)
    out = wg.reparametrize(mu, m)
    np.testing.assert_allclose(out.points[0], mu.points[0], atol=1e-15)
    np.testing.assert_allclose(out.points[-1], mu.points[-1], atol=1e-15)
    np.testing.assert_allclose(out.points[:, 0], grid**2, atol=1e-12)
    np.testing.assert_allclose(out.velocities[:, 0], 2.0 * grid, atol=1e-11)


def test_reparametrize_rejects_maps_leaving_the_parameter_interval():
    mu = _line_curve(1.0, steps=16)
    grid = mu.params
    overshoot = wg.MonotoneMap(grid, 1.2 * grid, 1.0, np.full_like(grid, 1.2))
    with pytest.raises(InputError, match="exceeds"):
        wg.reparametrize(mu, overshoot)


# ---------------------------------------------------------------------------
# compatibility of initial tangents


def test_compatibility_trivial_cases():
    g1 = wg.euclidean(1)
    g2 = wg.euclidean(1)
    one = wg.WarpField.constant(1.0, 1)
    x0 = np.zeros(1)
    rest = wg.TangentVector(np.zeros(1), np.zeros(1))
    ok, defect = wg.check_compatibility(x0, np.zeros(1), rest, 1.0, 1.0, one, 0.0, g1, g2)
    assert ok and defect == 0.0

    moving = wg.TangentVector(np.zeros(1), np.ones(1))
    ok, defect = wg.check_compatibility(x0, np.ones(1), moving, 1.0, 1.0, one, 0.0, g1, g2)
    assert ok and defect <= 1e-15

    fast = np.array([np.sqrt(2.0)])
    ok, defect = wg.check_compatibility(x0, fast, moving, 1.0, 1.0, one, 0.0, g1, g2)
    assert not ok
    assert defect == pytest.approx(0.5, rel=1e-12)


# ---------------------------------------------------------------------------
# assembling mixed-signature geodesics


def _flat_pair(fiber_speed=1.0, steps=256):
    g1 = wg.euclidean(1)
    g2 = wg.euclidean(1)
    one = wg.WarpField.constant(1.0, 1)
    cfg = wg.IntegratorConfig(steps=steps)
    mu = wg.integrate_geodesic(g1, np.zeros(1), np.ones(1), cfg)
    nu = wg.integrate_geodesic(g2, np.zeros(1), np.array([fiber_speed]), cfg)
    return g1, g2, one, mu, nu


def test_riemannize_is_the_identity_for_trivial_warp():
    g1, g2, one, mu, nu = _flat_pair()
    geo = wg.riemannize(mu, nu, one, 0.0, g1, g2)
    assert geo.a_r == pytest.approx(1.0, rel=1e-12)
    assert geo.b_r == pytest.approx(1.0, rel=1e-12)
    np.testing.assert_allclose(geo.gamma.points, mu.points, atol=1e-10)
    np.testing.assert_allclose(geo.tau.points, nu.points, atol=1e-10)
    assert max(geo.residuals) <= 1e-9


# chart, start point, start direction; the legs stay well inside each chart
TRIVIAL_CHARTS = {
    "euclidean1": (lambda: wg.euclidean(1), [0.3], [1.0]),
    "euclidean2": (lambda: wg.euclidean(2), [0.3, -0.2], [0.6, 0.8]),
    "half_plane": (wg.poincare_half_plane, [0.0, 1.0], [0.8, 0.6]),
    "ball2": (lambda: wg.poincare_ball(2), [0.1, 0.0], [0.3, 0.4]),
    "circle": (lambda: wg.circle(1.5), [0.2], [1.0]),
}


@settings(max_examples=40, deadline=None, derandomize=True)
@given(base=st.sampled_from(sorted(TRIVIAL_CHARTS)),
       fiber=st.sampled_from(sorted(TRIVIAL_CHARTS)),
       c=st.floats(0.5, 3.0), offset=st.floats(0.05, 3.0))
def test_trivial_warp_rebuilds_the_factor_geodesics_on_every_chart(base, fiber,
                                                                   c, offset):
    # For k = c the constants are (c/(1 + r c), c), both maps are the
    # identity and the rebuilt legs are the factor geodesics themselves.
    make_g1, x0, X0 = TRIVIAL_CHARTS[base]
    make_g2, y0, V = TRIVIAL_CHARTS[fiber]
    g1, g2 = make_g1(), make_g2()
    x0, X0, y0, V = (np.array(v, dtype=float) for v in (x0, X0, y0, V))
    w = wg.WarpField.constant(c, g1.dim)
    r = wg.admissible_range(w).lower + offset / c
    cfg = wg.IntegratorConfig(steps=64)
    mu = wg.integrate_geodesic(wg.conformal_metric(g1, w, r), x0, X0, cfg)
    # compatibility: |Y0|^2 = |X0|^2 / (c (1 + r c))
    speed = np.sqrt(metric_eval(g1, x0, X0, X0) / (c * (1.0 + r * c)))
    nu = wg.integrate_geodesic(
        g2, y0, speed / np.sqrt(metric_eval(g2, y0, V, V)) * V, cfg)

    a, b = _leg_constants(mu, w, r)
    assert a == pytest.approx(c / (1.0 + r * c), rel=1e-13)
    assert b == pytest.approx(c, rel=1e-13)
    np.testing.assert_allclose(wg.compute_a_and_phi(mu, w, r).values, mu.params,
                               rtol=0.0, atol=1e-13)
    # residual_tol off: a fast fiber leg at 64 steps carries RK4 error
    geo = wg.riemannize(mu, nu, w, r, g1, g2, residual_tol=None)
    for got, want in ((geo.gamma, mu), (geo.tau, nu)):
        np.testing.assert_allclose(got.points, want.points, rtol=0.0, atol=1e-13)
        np.testing.assert_allclose(got.velocities, want.velocities,
                                   rtol=0.0, atol=1e-13)


def test_riemannize_rejects_incompatible_tangents():
    g1, g2, one, mu, nu = _flat_pair(fiber_speed=2.0)
    with pytest.raises(CompatibilityError) as err:
        wg.riemannize(mu, nu, one, 0.0, g1, g2)
    assert err.value.payload()["defect"] == pytest.approx(0.75, rel=1e-9)


def test_riemannize_requires_matching_grids():
    g1, g2, one, mu, _ = _flat_pair()
    nu_coarse = wg.integrate_geodesic(g2, np.zeros(1), np.ones(1), wg.IntegratorConfig(steps=128))
    with pytest.raises(InputError):
        wg.riemannize(mu, nu_coarse, one, 0.0, g1, g2)


# A genuinely coupled instance: half-plane base, circle fiber, sine warp.


@pytest.fixture(scope="module")
def hyperbolic_instance():
    g1 = wg.poincare_half_plane()
    g2 = wg.circle(1.0)
    w = wg.WarpField.from_expression("2 + 0.5*sin(2*x1)", 2, 1.5, 2.5)
    r = 1.0
    cfg = wg.IntegratorConfig(steps=256)
    x0 = np.array([0.0, 1.0])
    X0 = np.array([2.0, 0.8])
    chart = wg.conformal_metric(g1, w, r)
    mu = wg.integrate_geodesic(chart, x0, X0, cfg)
    # Fit the fiber speed from the compatibility identity itself.
    phi = wg.compute_a_and_phi(mu, w, r)
    psi = wg.compute_b_and_psi(wg.reparametrize(mu, phi), w)
    k0x = w.value_at(x0)
    speed = (
        phi.constant / psi.constant
        * np.sqrt((1.0 + r * k0x) / k0x * metric_eval(g1, x0, X0, X0))
    )
    nu = wg.integrate_geodesic(g2, np.zeros(1), np.array([speed]), cfg)
    geo = wg.riemannize(mu, nu, w, r, g1, g2)
    return g1, g2, w, r, cfg, geo


def test_assembled_geodesic_matches_the_direct_oracle(hyperbolic_instance):
    g1, g2, w, r, cfg, geo = hyperbolic_instance
    Xt, Yt = geo.initial_tangents
    base, fiber = wg.integrate_coupled_oracle(
        g1, g2, w, (Xt.base, Yt.base), (Xt.components, Yt.components), cfg
    )
    assert np.max(np.abs(base.points - geo.gamma.points)) <= 1e-7
    assert np.max(np.abs(fiber.points - geo.tau.points)) <= 1e-7


def test_a_rebuild_reads_the_warp_twice_and_the_base_leg_once(hyperbolic_instance,
                                                              monkeypatch):
    # One warp batch along mu's nodes and one at the rebuilt leg's, one read
    # of mu's dense output (nu's own is read once too), and nothing but
    # tables reaches the numeric kernels.
    g1, g2, w, r, cfg, geo = hyperbolic_instance
    mu, nu = geo.base
    calls = []

    def counted(name, real):
        def wrapper(*args, **kwargs):
            assert not any(map(callable, (*args, *kwargs.values()))), name
            calls.append(name)
            return real(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(reparam, "values_along", counted("values_along", reparam.values_along))
    for module in (reparam, integrate):
        for name, fn in vars(module).copy().items():
            if getattr(fn, "__module__", None) == "warpgeo._num":
                monkeypatch.setattr(module, name, counted("_num", fn))
    reads = []
    point_at = wg.Curve.point_at
    monkeypatch.setattr(wg.Curve, "point_at",
                        lambda curve, t: reads.append(curve) or point_at(curve, t))
    again = wg.riemannize(mu, nu, w, r, g1, g2)
    assert calls.count("values_along") == 2 and "_num" in calls
    assert len(reads) == 2 and reads[0] is mu and reads[1] is nu
    np.testing.assert_array_equal(again.gamma.points, geo.gamma.points)


def test_norm_identities_hold_along_the_assembled_geodesic(hyperbolic_instance):
    g1, g2, w, r, cfg, geo = hyperbolic_instance
    errors = wg.norm_identity_errors(geo, w, g1, g2)
    assert errors["base_norm_error"] <= 1e-6
    assert errors["fiber_norm_error"] <= 1e-6
    assert errors["first_integral_drift"] <= 1e-6


def test_initial_tangents_satisfy_the_norm_coupling(hyperbolic_instance):
    g1, g2, w, r, cfg, geo = hyperbolic_instance
    Xt, Yt = geo.initial_tangents
    k0x = w.value_at(Xt.base)
    lhs = metric_eval(g1, Xt.base, Xt, Xt)
    rhs = k0x * (1.0 + r * k0x) * metric_eval(g2, Yt.base, Yt, Yt)
    assert lhs == pytest.approx(rhs, rel=1e-9)


def test_trace_side_constant_recovery(hyperbolic_instance):
    g1, g2, w, r, cfg, geo = hyperbolic_instance
    recovered = wg.phi_constant_from_trace(geo.gamma, w, r)
    assert recovered == pytest.approx(geo.a_r, rel=1e-8)


def test_classification_round_trips_the_instance(hyperbolic_instance):
    g1, g2, w, r, cfg, geo = hyperbolic_instance
    Xt, Yt = geo.initial_tangents
    r_hat = wg.classify_riemannian(Xt.base, Xt, Yt, w, g1, g2)
    assert r_hat == pytest.approx(r, abs=1e-10)


def test_distinct_parameters_give_distinct_tangents(hyperbolic_instance):
    g1, g2, w, _, cfg, _ = hyperbolic_instance
    x0 = np.array([0.0, 1.0])
    X0 = np.array([2.0, 0.8])
    tangents = []
    for r in (0.5, 1.0, 2.0, 4.0):
        chart = wg.conformal_metric(g1, w, r)
        mu = wg.integrate_geodesic(chart, x0, X0, cfg)
        phi = wg.compute_a_and_phi(mu, w, r)
        psi = wg.compute_b_and_psi(wg.reparametrize(mu, phi), w)
        k0x = w.value_at(x0)
        speed = phi.constant / psi.constant * np.sqrt(
            (1.0 + r * k0x) / k0x * metric_eval(g1, x0, X0, X0)
        )
        nu = wg.integrate_geodesic(g2, np.zeros(1), np.array([speed]), cfg)
        geo = wg.riemannize(mu, nu, w, r, g1, g2)
        Xt, Yt = geo.initial_tangents
        tangents.append(np.concatenate([Xt.components, Yt.components]))
    for i in range(len(tangents)):
        for j in range(i + 1, len(tangents)):
            assert np.max(np.abs(tangents[i] - tangents[j])) > 1e-3


# ---------------------------------------------------------------------------
# the tangent transform and the classifier


def test_tangent_transform_frozen_case():
    w = wg.WarpField.from_expression("2 + sin(x1)", 2, 1.0, 3.0)
    x0 = np.zeros(2)  # k(x0) = 2
    X = np.array([1.0, 0.0])
    Y = np.array([0.4])
    Xt, Yt = wg.tangent_transform(X, wg.TangentVector(np.zeros(1), Y), x0, 0.5, 1.5, w, 1.0)
    np.testing.assert_allclose(Xt.components, [0.75, 0.0], rtol=1e-14)
    np.testing.assert_allclose(Yt.components, [0.3], rtol=1e-14)


def test_tangent_transform_is_linear():
    w = wg.WarpField.from_expression("2 + sin(x1)", 2, 1.0, 3.0)
    x0 = np.zeros(2)
    X = np.array([0.3, -1.1])
    Y = np.array([0.7])
    Xt, Yt = wg.tangent_transform(X, wg.TangentVector(np.zeros(1), Y), x0, 0.8, 1.2, w, 0.5)
    Xs, Ys = wg.tangent_transform(
        3.0 * X, wg.TangentVector(np.zeros(1), 3.0 * Y), x0, 0.8, 1.2, w, 0.5
    )
    np.testing.assert_allclose(Xs.components, 3.0 * Xt.components, rtol=1e-13)
    np.testing.assert_allclose(Ys.components, 3.0 * Yt.components, rtol=1e-13)


def _mixed_data(q1, q2, w):
    x0 = np.zeros(2)
    Xt = wg.TangentVector(x0, np.array([np.sqrt(q1), 0.0]))
    Yt = wg.TangentVector(np.zeros(1), np.array([np.sqrt(q2)]))
    return x0, Xt, Yt


def test_classifier_frozen_cases():
    g1 = wg.euclidean(2)
    g2 = wg.euclidean(1)

    one = wg.WarpField.constant(1.0, 2)
    x0, Xt, Yt = _mixed_data(2.0, 1.0, one)
    assert wg.classify_riemannian(x0, Xt, Yt, one, g1, g2) == pytest.approx(1.0, rel=1e-12)

    w = wg.WarpField.from_expression("2 + sin(x1)", 2, 1.0, 3.0)  # k(x0) = 2
    x0, Xt, Yt = _mixed_data(1.0, 1.0, w)
    r = wg.classify_riemannian(x0, Xt, Yt, w, g1, g2)
    assert r == pytest.approx(-0.25, rel=1e-12)
    assert r > -1.0 / 3.0  # admissible for K0 = 3

    # Below the threshold q1 = k(x0) q2 (K0 - k(x0))/K0 = 2/3 nothing qualifies.
    x0, Xt, Yt = _mixed_data(0.5, 1.0, w)
    assert wg.classify_riemannian(x0, Xt, Yt, w, g1, g2) is None


def test_classifier_unbounded_threshold():
    g1 = wg.euclidean(2)
    g2 = wg.euclidean(1)
    w = wg.WarpField.from_expression("exp(x1)", 2, 1.0)  # k(x0) = 1, unbounded
    x0, Xt, Yt = _mixed_data(2.0, 1.0, w)
    assert wg.classify_riemannian(x0, Xt, Yt, w, g1, g2) == pytest.approx(1.0, rel=1e-12)
    x0, Xt, Yt = _mixed_data(0.8, 1.0, w)
    assert wg.classify_riemannian(x0, Xt, Yt, w, g1, g2) is None


def test_classifier_rejects_a_degenerate_fiber_tangent():
    g1 = wg.euclidean(2)
    g2 = wg.euclidean(1)
    one = wg.WarpField.constant(1.0, 2)
    x0, Xt, _ = _mixed_data(1.0, 1.0, one)
    Y0 = wg.TangentVector(np.zeros(1), np.zeros(1))
    with pytest.raises(InputError):
        wg.classify_riemannian(x0, Xt, Y0, one, g1, g2)
