"""Boundary connection: shooting, the fiber-distance dial, line-base solver."""

import dataclasses
import gc
import json
import math
import random
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import warpgeo as wg
from warpgeo import _num, cli, connect, integrate, reparam, warpfn
from warpgeo.connect import BetaResult, _beta_from_mu, _restricted, _shoot
from warpgeo.errors import (
    BracketingError, ChartDomainError, InputError, NumericalError, ParameterError,
    ShootingError,
)
from warpgeo.warp import _require_rescalable

CFG = wg.IntegratorConfig(steps=256)
FAST = wg.IntegratorConfig(steps=64)


# ---------------------------------------------------------------------------
# boundary shooting on a single chart


def test_flat_shooting_recovers_the_chord():
    V = wg.shoot_boundary(wg.euclidean(2), np.zeros(2), np.array([1.0, 2.0]), FAST)
    np.testing.assert_allclose(V.components, [1.0, 2.0], atol=1e-10)


def test_vertical_hyperbolic_shot_has_logarithmic_speed():
    chart = wg.poincare_half_plane()
    x0 = np.array([0.0, 1.0])
    x1 = np.array([0.0, 2.0])
    V = wg.shoot_boundary(chart, x0, x1, CFG)
    np.testing.assert_allclose(V.components, [0.0, np.log(2.0)], atol=1e-8)
    hit = wg.integrate_geodesic(chart, x0, V.components, CFG)
    assert np.max(np.abs(hit.endpoint() - x1)) <= 1e-8


def test_shooting_is_unchanged_by_constant_rescaling():
    base = wg.poincare_half_plane()
    chart = wg.conformal_metric(base, wg.WarpField.constant(1.0, 2), 3.0)
    x0 = np.array([0.0, 1.0])
    x1 = np.array([1.5, 0.8])
    V_base = wg.shoot_boundary(base, x0, x1, CFG)
    V_scaled = wg.shoot_boundary(chart, x0, x1, CFG)
    np.testing.assert_allclose(V_scaled.components, V_base.components, atol=1e-10)


def test_starved_newton_raises_a_shooting_error():
    chart = wg.poincare_half_plane()
    with pytest.raises(ShootingError) as err:
        _shoot(chart, np.array([0.0, 1.0]), np.array([2.0, 2.0]), FAST, max_iter=1)
    payload = err.value.payload()
    assert payload["iterations"] == 1
    assert payload["residual"] > 0.0


# The README instance: half-plane base, its warp, and the base end points.
README_WARP = wg.WarpField.from_expression("2 + 0.5*sin(2*x1)", 2, 1.5, 2.5)
X0 = np.array([0.0, 1.0])
X1 = np.array([1.2, 0.7])


def _count_calls(monkeypatch, module, name: str) -> list:
    calls = []
    real = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_a_warm_started_dial_reuses_the_neighbouring_jacobian(monkeypatch):
    g1, g2 = wg.poincare_half_plane(), wg.circle(1.0)
    near = wg.beta_of_r(g1, g2, README_WARP, X0, X1, 1.0, FAST)
    calls = _count_calls(monkeypatch, connect, "_geodesic_flat")
    res = wg.beta_of_r(g1, g2, README_WARP, X0, X1, 1.05, FAST,
                       near.X_r.components, near.jacobian)
    # One shot from the warm start, then one per secant step: neither a
    # finite-difference Jacobian (d = 2 shots) nor a refresh.
    assert len(calls) == 1 + res.iterations <= 5
    cold = wg.beta_of_r(g1, g2, README_WARP, X0, X1, 1.05, FAST)
    np.testing.assert_allclose(res.X_r.components, cold.X_r.components, atol=1e-9)


def test_the_readme_example_solves_in_few_dial_evaluations(monkeypatch):
    # The README example at its default 1024 steps.  The counts repeat
    # exactly; a geometric walk to the bracket took 16 dial evaluations and
    # 71 integrations here, and Brent's method on the walk's bracket 8 and
    # 34, its last three evaluations below the dial's resolution.  Every
    # evaluation shot to 1e-10 and central-difference Jacobians took 31.
    shots = _count_calls(monkeypatch, connect, "_geodesic_flat")
    report = wg.connect_points(wg.poincare_half_plane(), wg.circle(1.0), README_WARP,
                               (X0, np.zeros(1)), (X1, np.array([0.4])))
    assert report.iterations == 5
    assert len(shots) == 23
    assert report.endpoint_error <= wg.IntegratorConfig().tolerance


def test_a_cold_jacobian_takes_one_forward_difference_shot_per_coordinate():
    chart = wg.conformal_metric(wg.poincare_half_plane(), README_WARP, 1.0)
    shots = []

    def shot(vel):
        shots.append(vel)
        flat = connect._geodesic_flat(chart, X0, vel, FAST.steps)
        return flat, np.array(flat[-4:-2]) - X1

    v = X1 - X0
    gap = shot(v)[1]
    jac = connect._fd_jacobian(shot, v, gap)
    assert len(shots) == 1 + 2
    h = 1e-5
    central = np.column_stack([(shot(v + h * e)[1] - shot(v - h * e)[1]) / (2.0 * h)
                               for e in np.eye(2)])
    assert np.max(np.abs(jac - central)) <= 1e-6 * np.max(np.abs(central))


@pytest.mark.parametrize("jac_init", [
    np.zeros((2, 2)),      # singular
    -np.eye(2),            # points uphill: no decrease down to 1/128
    1e-3 * np.eye(2),      # huge steps: trials leave the half-plane
], ids=["zeros", "minus_identity", "off_chart"])
def test_a_wrong_jacobian_is_refreshed_not_trusted(jac_init):
    chart = wg.conformal_metric(wg.poincare_half_plane(), README_WARP, 1.0)
    cold, _, _, _ = _shoot(chart, X0, X1, FAST)
    with np.errstate(over="ignore", invalid="ignore"):
        warm, _, curve, _ = _shoot(chart, X0, X1, FAST, jac_init=jac_init)
    np.testing.assert_allclose(warm, cold, atol=1e-9)
    assert np.max(np.abs(curve.endpoint() - X1)) <= 1e-10


@settings(max_examples=12, deadline=None, derandomize=True)
@given(x=st.floats(0.8, 1.6), y=st.floats(0.5, 0.9), r=st.floats(0.5, 3.0))
def test_a_neighbouring_jacobian_reaches_the_cold_start_velocity(x, y, r):
    x1 = np.array([x, y])
    base = wg.poincare_half_plane()

    def shoot(r, **warm):
        return _shoot(wg.conformal_metric(base, README_WARP, r), X0, x1, FAST,
                      **warm)

    v_near, jac_near, _, _ = shoot(r + 0.05)
    warm, _, curve, _ = shoot(r, v_init=v_near, jac_init=jac_near)
    cold, _, _, _ = shoot(r)
    assert np.max(np.abs(curve.endpoint() - x1)) <= 1e-10
    np.testing.assert_allclose(warm, cold, atol=1e-8)


# ---------------------------------------------------------------------------
# the fiber-distance dial


def test_dial_closed_form_for_trivial_warp():
    g1 = wg.euclidean(1)
    g2 = wg.euclidean(1)
    one = wg.WarpField.constant(1.0, 1)
    for r in (0.0, 3.0, 8.0, 99.0):
        res = wg.beta_of_r(g1, g2, one, np.zeros(1), np.ones(1), r, CFG)
        assert abs(res.beta - 1.0 / np.sqrt(1.0 + r)) <= 1e-8
        assert res.a_r == pytest.approx(1.0 / (1.0 + r), rel=1e-10)
        assert res.b_r == pytest.approx(1.0, rel=1e-10)


def _half_plane_distance(p, q):
    return math.acosh(1.0 + ((p[0] - q[0]) ** 2 + (p[1] - q[1]) ** 2)
                      / (2.0 * p[1] * q[1]))


def _ball_distance(p, q):
    return math.acosh(1.0 + 2.0 * np.sum((p - q) ** 2)
                      / ((1.0 - p @ p) * (1.0 - q @ q)))


def _flat_distance(p, q):
    return float(np.linalg.norm(p - q))


# a base chart, its distance in closed form and a box of end points inside it
CONSTANT_WARP_BASES = {
    "half_plane": (wg.poincare_half_plane(), _half_plane_distance,
                   [(-1.0, 1.0), (0.5, 2.0)]),
    "flat": (wg.euclidean(2), _flat_distance, [(-2.0, 2.0), (-2.0, 2.0)]),
    "ball": (wg.poincare_ball(2), _ball_distance, [(-0.45, 0.45), (-0.45, 0.45)]),
}


@pytest.mark.parametrize("label", sorted(CONSTANT_WARP_BASES))
@settings(max_examples=8, deadline=None, derandomize=True)
@given(data=st.data())
def test_dial_closed_form_for_a_constant_warp(label, data):
    """For ``k = c`` the rescaled base is ``(1/c + r) g1``, whose geodesic
    between the base points has the length ``sqrt(1/c + r) d(x0, x1)``; the
    dial reads ``beta(r) = d(x0, x1) / sqrt(c (1 + r c))``."""
    g1, distance, box = CONSTANT_WARP_BASES[label]
    point = st.tuples(*(st.floats(lo, hi) for lo, hi in box))
    x0, x1 = (np.array(data.draw(point)) for _ in range(2))
    d = distance(x0, x1)
    assume(d > 0.05)
    c = data.draw(st.floats(0.5, 3.0))
    r = data.draw(st.floats(-0.5 / c, 4.0))
    res = wg.beta_of_r(g1, wg.euclidean(1), wg.WarpField.constant(c, 2), x0, x1, r,
                       FAST)
    assert res.beta == pytest.approx(d / math.sqrt(c * (1.0 + r * c)), rel=1e-7)


def test_an_r_max_below_the_threshold_is_a_parameter_error():
    one = wg.WarpField.constant(1.0, 1)
    line = wg.euclidean(1)
    with pytest.raises(ParameterError, match="r_max=-3") as err:
        wg.connect_points(line, line, one, (np.zeros(1), np.zeros(1)),
                          (np.ones(1), np.array([0.5])), FAST, r_max=-3.0)
    assert err.value.lower == -1.0
    with pytest.raises(ParameterError, match="r_max"):
        wg.flrw_connect(one, 0.0, 1.0, np.zeros(1), np.array([0.5]), line, FAST,
                        r_max=-3.0)


def test_connect_points_solves_the_trivial_warp_closed_form():
    g1 = wg.euclidean(1)
    g2 = wg.euclidean(1)
    one = wg.WarpField.constant(1.0, 1)
    report = wg.connect_points(
        g1, g2, one, (np.zeros(1), np.zeros(1)), (np.ones(1), np.array([0.5])), CFG
    )
    # beta(r) = 1/sqrt(1+r) equals 0.5 exactly at r = 3.
    assert abs(report.r - 3.0) <= 1e-6
    assert report.beta == pytest.approx(0.5, abs=1e-9)
    assert report.endpoint_error <= 1e-6
    assert max(report.geodesic.residuals) <= 1e-5
    doc = report.to_dict()
    assert doc["r"] == report.r
    assert doc["target_beta"] == 0.5


def test_coinciding_fiber_endpoints_short_circuit():
    g1 = wg.euclidean(1)
    g2 = wg.euclidean(1)
    one = wg.WarpField.constant(1.0, 1)
    report = wg.connect_points(
        g1, g2, one, (np.zeros(1), np.array([0.4])), (np.ones(1), np.array([0.4])), FAST
    )
    assert report.r is None
    assert report.beta == 0.0
    assert np.max(np.abs(report.geodesic.tau.velocities)) <= 1e-12
    assert max(report.geodesic.residuals) <= 1e-5


def test_coinciding_fiber_endpoints_evaluate_no_dial():
    # the base leg is one shoot of the base metric; its Newton iterations
    # are not dial evaluations
    g1, g2 = wg.poincare_half_plane(), wg.circle(1.0)
    w = wg.WarpField.from_expression("2 + 0.5*sin(2*x1)", 2, 1.5, 2.5)
    report = wg.connect_points(g1, g2, w, (X0, np.zeros(1)), (X1, np.zeros(1)), FAST)
    assert report.r is None
    assert report.iterations == 0


def test_coinciding_base_endpoints_cannot_move_the_fiber():
    g1 = wg.euclidean(1)
    g2 = wg.euclidean(1)
    one = wg.WarpField.constant(1.0, 1)
    with pytest.raises(BracketingError, match="coinciding base endpoints"):
        wg.connect_points(
            g1, g2, one, (np.zeros(1), np.zeros(1)), (np.zeros(1), np.ones(1)), FAST
        )


def test_nearby_fiber_end_points_are_not_the_trivial_connection():
    # 2e-5 apart is within numpy's default relative tolerance of 3.0, but
    # coinciding means within 1e-12 absolute: the dial is solved, and no
    # r carries the fiber that little way
    g1, g2 = wg.poincare_half_plane(), wg.circle(1.0)
    w = wg.WarpField.from_expression("2 + 0.5*sin(2*x1)", 2, 1.5, 2.5)
    y0, y1 = np.array([3.0]), np.array([3.00002])
    with pytest.raises(BracketingError, match="no sign change"):
        wg.connect_points(g1, g2, w, (X0, y0), (X1, y1), FAST)
    line_warp = wg.WarpField.from_expression("2 + sin(x1)", 1, 1.0, 3.0)
    with pytest.raises(BracketingError, match="no sign change"):
        wg.flrw_connect(line_warp, 0.0, 5.0, y0, y1, wg.euclidean(1), CFG)


def test_nearby_base_end_points_do_not_coincide():
    # (0, 1) and (0, 1.000005) are 5e-6 apart: the dial is solved, and the
    # short base leg cannot carry the fiber distance
    g1, g2 = wg.poincare_half_plane(), wg.circle(1.0)
    w = wg.WarpField.from_expression("2 + 0.5*sin(2*x1)", 2, 1.5, 2.5)
    with pytest.raises(BracketingError, match="not reached") as caught:
        wg.connect_points(g1, g2, w, (X0, np.zeros(1)),
                          (np.array([0.0, 1.000005]), np.array([0.4])), FAST)
    assert "coinciding" not in str(caught.value)


def test_line_base_end_points_within_1e_12_coincide():
    w = wg.WarpField.from_expression("2 + sin(x1)", 1, 1.0, 3.0)
    with pytest.raises(BracketingError, match="coinciding base endpoints"):
        wg.flrw_connect(w, 2.0, 2.0 + 1e-13, np.zeros(1), np.array([0.8]),
                        wg.euclidean(1), CFG)


def test_the_trivial_connection_measures_its_fiber_leg_too():
    # the fiber end points coincide within 1e-12, so the fiber leg stays
    # at y0 and ends 5e-13 from y1; the base legs here end on x1 exactly
    y0 = np.array([0.5])
    y1 = y0 + 5e-13
    one = wg.WarpField.constant(1.0, 1)
    line = wg.flrw_connect(wg.WarpField.from_expression("2 + sin(x1)", 1, 1.0, 3.0),
                           0.0, 5.0, y0, y1, wg.euclidean(1), CFG)
    general = wg.connect_points(wg.euclidean(1), wg.euclidean(1), one,
                                (np.zeros(1), y0), (np.ones(1), y1), FAST)
    for report in (line, general):
        assert report.r is None
        assert report.endpoint_error >= 5e-13


def test_unreachable_targets_raise_after_walking_to_the_threshold():
    g1 = wg.euclidean(1)
    g2 = wg.euclidean(1)
    grow = wg.WarpField.from_expression("exp(x1)", 1, 1.0)  # unbounded above
    with pytest.raises(BracketingError, match="not reached"):
        wg.connect_points(
            g1, g2, grow, (np.zeros(1), np.zeros(1)), (np.ones(1), np.array([1e6])), FAST
        )


def test_targets_below_the_reachable_range_raise():
    g1 = wg.euclidean(1)
    g2 = wg.euclidean(1)
    one = wg.WarpField.constant(1.0, 1)
    with pytest.raises(BracketingError, match="stayed above"):
        wg.connect_points(
            g1, g2, one, (np.zeros(1), np.zeros(1)), (np.ones(1), np.array([0.05])),
            FAST, r_max=10.0, samples=6,
        )


def _misdeclared_sine():
    # true maximum 2.5: the rescaled metric is undefined where r < -1/2.5
    # for some x, yet every r > -1/2.2 is admissible by the declaration
    return wg.WarpField.from_expression("2 + 0.5*sin(2*x1)", 1, 1.5, 2.2)


def test_a_nan_dial_value_in_the_walk_is_a_numerical_error():
    # The walk toward the threshold meets beta = NaN at r = -0.4318, which
    # a bare comparison would read as "above target".  (A warp above its
    # declared K0, which made this NaN on the line base, is now named where
    # k is read; the dial here is a stand-in with the same walk.)
    def evaluate(r, *_):
        beta = math.nan if r < -0.43 else 1.0 / (r + 0.5)
        return BetaResult(beta, wg.TangentVector(np.zeros(1), np.ones(1)),
                          1.0, 1.0, None)

    lower = wg.admissible_range(_misdeclared_sine()).lower
    with pytest.raises(NumericalError, match=r"NaN at r = -0\.4318"):
        connect._solve_r(evaluate, 40.0, lower, 1e6, 64)


def test_a_nan_dial_value_in_the_refinement_is_a_numerical_error():
    seen = []

    def evaluate(r, *_):
        seen.append(r)
        beta = math.nan if abs(r - 0.5) < 1e-3 else 2.0 - r
        return BetaResult(beta, wg.TangentVector(np.zeros(1), np.ones(1)),
                          1.0, 1.0, None)

    with pytest.raises(NumericalError, match=r"NaN at r = 0\.49908"):
        connect._solve_r(evaluate, 1.5, -1.0, 10.0, 64)
    # the walk bracketed the root, [0.389, 0.640], without a NaN
    assert all(abs(r - 0.5) >= 1e-3 for r in seen[:-1])


def _power_dial(c, s, e, lower, seen):
    """The dial ``c (r - lower)^s + e``, recording each ``r`` it is handed."""
    def evaluate(r, *_):
        seen.append(r)
        return BetaResult(c * (r - lower) ** s + e,
                          wg.TangentVector(np.zeros(1), np.ones(1)), 1.0, 1.0, None)
    return evaluate


def test_the_walk_raises_after_samples_dial_evaluations(monkeypatch):
    seen = []
    dial = _power_dial(1.0, -0.5, 0.0, -1.0, seen)
    for beta0, message in ((1e-3, "stayed above"), (1e3, "not reached")):
        seen.clear()
        with pytest.raises(BracketingError, match=f"{message}.* after 2 dial evaluations"):
            connect._solve_r(dial, beta0, -1.0, 1e6, 2)
        assert len(seen) == 2
    # the same cap through the public call, on a reachable target
    calls = _count_calls(monkeypatch, connect, "beta_of_r")
    line = wg.euclidean(1)
    with pytest.raises(BracketingError, match="stayed above"):
        wg.connect_points(line, line, wg.WarpField.constant(1.0, 1),
                          (np.zeros(1), np.zeros(1)), (np.ones(1), np.array([0.05])),
                          FAST, samples=2)
    assert len(calls) == 2


@settings(max_examples=300, deadline=None, derandomize=True)
@given(c=st.floats(0.1, 10.0), s=st.floats(-3.0, -0.05),
       e=st.just(0.0) | st.floats(0.0, 10.0), lower=st.floats(-1.0, 0.0),
       case=st.sampled_from(["reached", "above", "below"]),
       offset=st.floats(-10.0, 6.0), margin=st.floats(1e-3, 10.0))
def test_the_root_find_solves_every_decreasing_power_dial(c, s, e, lower, case,
                                                           offset, margin):
    """On ``c (r - lower)^s + e``: the root to Brent's tolerance (widened
    by the rounding of the dial where it is flat) where the target is in
    reach, the matching bracketing error where it is not, and every ``r``
    handed over once, as a Python float."""
    seen, r_max = [], 1e6
    dial = _power_dial(c, s, e, lower, seen)
    floor = lower + 1e-12 * (1.0 + abs(lower))
    if case == "reached":
        r_true = lower + 10.0 ** offset
        beta0 = c * (r_true - lower) ** s + e
        root, res, evaluations = connect._solve_r(dial, beta0, lower, r_max, 64)
        flat = 16.0 * np.finfo(float).eps * beta0 / (-s * c * (r_true - lower) ** (s - 1.0))
        assert abs(root - r_true) <= _num.BRENT_XTOL + _num.BRENT_RTOL * abs(r_true) + flat
        assert res.beta == c * (root - lower) ** s + e and evaluations == len(seen)
    else:
        end, message = (floor, "not reached") if case == "above" else (r_max, "stayed above")
        beta0 = (c * (end - lower) ** s + e) * (1.0 + margin) ** (1 if case == "above" else -1)
        with pytest.raises(BracketingError, match=message):
            connect._solve_r(dial, beta0, lower, r_max, 64)
    assert len(set(seen)) == len(seen)
    assert all(type(r) is float for r in seen)


@settings(max_examples=10, deadline=None, derandomize=True)
@given(x=st.floats(1.0, 1.4), y=st.floats(0.6, 0.8), beta0=st.floats(0.3, 0.5))
def test_the_solve_stops_within_the_dials_resolution(x, y, beta0):
    """On README-like instances: the root matches its target within the
    resolution the dial reports, and the root of the same dial reporting no
    resolution (solved to Brent's tolerance) within 1e-9 relative."""
    g1, g2, x1 = wg.poincare_half_plane(), wg.circle(1.0), np.array([x, y])
    lower = wg.admissible_range(README_WARP).lower
    dial = connect._shooting_dial(g1, g2, README_WARP, X0, x1, FAST)

    def unresolved(*args):
        return dataclasses.replace(dial(*args), resolution=None)

    root, res, _ = connect._solve_r(dial, beta0, lower, 1e6, 64)
    assert res.resolution == connect.SHOOT_TOL
    assert abs(math.log(res.beta / beta0)) <= res.resolution
    fine, _, _ = connect._solve_r(unresolved, beta0, lower, 1e6, 64)
    assert abs(root - fine) <= 1e-9 * abs(fine)


def _shooting_power_dial(s, lower, calls, e=0.0, r_jump=None):
    """The dial ``(r - lower)^s + e`` as a shooting dial reports it: off by
    a relative error of up to a tenth of the tolerance it is asked for,
    that tolerance its resolution, and its velocity ``[r]``.  Past
    ``r_jump`` it drops by 2 %, so that no ``r`` matches the target near
    that jump."""
    def evaluate(r, warm, tol):
        calls.append((r, tol, None if warm is None else warm.X_r.components))
        beta = ((r - lower) ** s + e) * math.exp(
            0.1 * tol * random.Random(r).uniform(-1, 1))
        if r_jump is not None:
            beta *= 1.01 if r < r_jump else 0.99
        return BetaResult(beta, wg.TangentVector(np.zeros(1), np.array([r])),
                          1.0, 1.0, None, jacobian=np.eye(1), resolution=tol)
    return evaluate


def _redone(calls) -> list:
    """The calls that evaluate an ``r`` again, each checked to be a
    ``SHOOT_TOL`` shot warm-started from the loose evaluation before it."""
    first = {}
    again = []
    for call in calls:
        if call[0] in first:
            again.append((first[call[0]], call))
        first.setdefault(call[0], call)
    for (r, tol, _), (_, tol_again, v_init) in again:
        assert tol > connect.SHOOT_TOL == tol_again and v_init.tolist() == [r]
    return again


@pytest.mark.parametrize("s, e, redone", [
    (-0.5, 0.0, 1), (-2.0, 0.0, 1), (-0.5, 0.5, 0), (-2.0, 0.5, 0),
])
def test_a_solve_shoots_far_from_its_root_loosely_and_returns_a_tight_root(s, e,
                                                                           redone):
    # The resolution stop.  On a pure power law the walk's secant lands a
    # loose evaluation within twice its tolerance of the target, and that
    # r is shot again; with an offset, |f| falls below 1e-3 first, and
    # every later evaluation is tight from the start.
    calls = []
    root, res, evaluations = connect._solve_r(
        _shooting_power_dial(s, -1.0, calls, e), 2.0 ** s + e, -1.0, 1e6, 64)
    assert res.resolution == connect.SHOOT_TOL
    assert abs(math.log(res.beta / (2.0 ** s + e))) <= connect.SHOOT_TOL
    assert abs(root - 1.0) <= 1e-9
    assert calls[0][1] == connect.LOOSE_TOL
    assert evaluations == len({r for r, _, _ in calls})
    assert len(calls) == evaluations + len(_redone(calls)) == evaluations + redone
    tight = [i for i, (_, tol, _) in enumerate(calls) if tol == connect.SHOOT_TOL]
    assert tight == list(range(tight[0], len(calls)))


def test_a_walk_that_stops_on_a_loose_evaluation_shoots_it_again():
    # The walk's r halves by a factor of 16 toward a root at 0.9 of its
    # tenth r, 3.3e-12 above the threshold: there the next step is shorter
    # than half the bracket tolerance while |f| is still 0.05.
    calls, r_true = [], 0.9 * 0.25 / 16.0 ** 9
    root, res, evaluations = connect._solve_r(
        _shooting_power_dial(-0.5, 0.0, calls), r_true ** -0.5, 0.0, 1e6, 64)
    assert evaluations == 10 and len(calls) == 11
    assert _redone(calls) and calls[-1][0] == root
    assert res.resolution == connect.SHOOT_TOL
    assert abs(math.log(res.beta * r_true ** 0.5)) > 0.05
    assert abs(root - r_true) <= _num.BRENT_XTOL


def test_a_bracket_that_closes_on_loose_evaluations_returns_a_tight_end():
    # No r is within 1e-3 of the target across the jump, so the bracket
    # closes on loose evaluations and its better end is shot again.
    calls = []
    root, res, evaluations = connect._solve_r(
        _shooting_power_dial(-0.5, -1.0, calls, r_jump=1.0), 1.0 / math.sqrt(2.0),
        -1.0, 1e6, 64)
    assert abs(root - 1.0) <= _num.BRENT_XTOL + _num.BRENT_RTOL
    assert res.resolution == connect.SHOOT_TOL and calls[-1][0] == root
    assert all(tol > connect.SHOOT_TOL for _, tol, _ in calls[:-1])
    assert len(_redone(calls)) == 1 and evaluations == len(calls) - 1


def test_every_r_handed_to_the_dial_is_a_python_float(monkeypatch):
    # numpy scalars would run the generated step in numpy-scalar arithmetic
    seen = []
    for name, r_index in (("beta_of_r", 5), ("flrw_beta", 3)):
        real = getattr(connect, name)

        def spy(*args, real=real, r_index=r_index, **kwargs):
            seen.append(type(args[r_index]))
            return real(*args, **kwargs)

        monkeypatch.setattr(connect, name, spy)
    w = wg.WarpField.from_expression("2 + sin(x1)", 1, 1.0, 3.0)
    line = wg.euclidean(1)
    wg.connect_points(line, line, w, (np.zeros(1), np.zeros(1)),
                      (np.array([2.0]), np.array([0.5])), FAST,
                      r_max=np.float64(1e6))
    shots = len(seen)
    wg.flrw_connect(w, 0.0, 2.0, np.zeros(1), np.float64(0.5) * np.ones(1),
                    line, CFG, r_max=np.float64(1e6))
    assert 0 < shots < len(seen) and set(seen) == {float}


def test_dial_blows_up_toward_the_admissibility_threshold():
    g1 = wg.euclidean(1)
    g2 = wg.euclidean(1)
    w = wg.WarpField.from_expression("2 + sin(x1)", 1, 1.0, 3.0)
    lower = wg.admissible_range(w).lower
    betas = []
    for offset in (0.5, 0.2, 0.05, 0.02):
        res = wg.beta_of_r(g1, g2, w, np.zeros(1), np.array([math.pi]),
                           lower + offset, CFG)
        assert np.isfinite(res.beta) and res.beta > 0.0
        betas.append(res.beta)
    assert all(b < c for b, c in zip(betas, betas[1:]))


def test_connect_line_base_with_circle_fiber():
    w = wg.WarpField.from_expression("2 + sin(x1)", 1, 1.0, 3.0)
    rep = wg.connect_points(
        wg.euclidean(1), wg.circle(1.0), w,
        (np.zeros(1), np.zeros(1)), (np.array([math.pi]), np.ones(1)), CFG,
    )
    assert rep.endpoint_error <= 1e-6
    assert max(rep.geodesic.residuals) <= 1e-5
    assert rep.beta == pytest.approx(1.0, abs=1e-8)  # circle arc from 0 to 1


def test_dial_bounds_sandwich_the_square():
    g1 = wg.euclidean(1)
    g2 = wg.euclidean(1)
    w = wg.WarpField.from_expression("2 + sin(x1)", 1, 1.0, 3.0)
    doc = wg.beta_bounds(g1, g2, w, np.zeros(1), np.array([1.5]), 0.7, CFG)
    assert doc["lower_ok"] and doc["upper_ok"]
    assert doc["lower"] <= doc["beta_squared"] <= doc["upper"]


# ---------------------------------------------------------------------------
# restricted traversals and the fiber dial map


def _unit_speed_pair(r, steps=256):
    g1 = wg.euclidean(1)
    one = wg.WarpField.constant(1.0, 1)
    chart = wg.conformal_metric(g1, one, r)
    cfg = wg.IntegratorConfig(steps=steps)
    mu = wg.integrate_geodesic(chart, np.zeros(1), np.ones(1), cfg)
    beta = _beta_from_mu(mu, one, r, g1, np.ones(1), 0).beta
    nu = wg.integrate_geodesic(wg.euclidean(1), np.zeros(1), np.array([beta]), cfg)
    return mu, nu, one


def test_partial_traversal_closed_form():
    r = 3.0
    mu, nu, one = _unit_speed_pair(r)
    plus, minus = wg.partial_connect((mu, nu), 0.7, one, r)
    assert plus == pytest.approx(0.35, rel=1e-9)
    assert minus == pytest.approx(-0.35, rel=1e-9)
    assert wg.partial_connect((mu, nu), 0.0, one, r) == (0.0, 0.0)


def test_partial_traversal_joins_with_a_residual_checked_geodesic():
    # Non-constant warp: the two-sided fiber distances from the restriction
    # formula must agree with the dial of the restricted leg, and the
    # geodesic rebuilt over that restriction must satisfy the coupled system.
    g1 = wg.euclidean(1)
    g2 = wg.euclidean(1)
    w = wg.WarpField.from_expression("2 + sin(x1)", 1, 1.0, 3.0)
    r = 0.0
    chart = wg.conformal_metric(g1, w, r)
    mu = wg.integrate_geodesic(chart, np.zeros(1), np.ones(1), CFG)
    unit_fiber = wg.integrate_geodesic(g2, np.zeros(1), np.ones(1), CFG)
    alpha = 0.5
    plus, minus = wg.partial_connect((mu, unit_fiber), alpha, w, r)
    assert minus == -plus
    restricted = _restricted(mu, alpha)
    res = _beta_from_mu(restricted, w, r, g1, restricted.velocities[0], 0)
    assert res.beta == pytest.approx(plus, rel=1e-9)
    nu = wg.integrate_geodesic(g2, np.zeros(1), np.array([plus]), CFG)
    geo = wg.riemannize(restricted, nu, w, r, g1, g2, residual_tol=None)
    assert max(geo.residuals) <= 1e-5
    assert geo.tau.points[-1][0] == pytest.approx(plus, abs=1e-9)


def test_partial_traversal_rejects_parameters_outside_the_leg():
    mu, nu, one = _unit_speed_pair(1.0)
    with pytest.raises(InputError):
        wg.partial_connect((mu, nu), 1.2, one, 1.0)
    with pytest.raises(InputError):
        wg.partial_connect((mu, nu), -0.3, one, 1.0)


def test_fiber_dial_map_for_trivial_warp_is_uniform():
    for r in (0.0, 3.0):
        mu, nu, one = _unit_speed_pair(r)
        np.testing.assert_allclose(
            wg.theta_consistency(mu, nu, one, r, 0.0)["point_displayed"],
            nu.points[0], atol=1e-12,
        )
        for t in (0.25, 0.6, 1.0):
            np.testing.assert_allclose(
                wg.theta_consistency(mu, nu, one, r, t)["point_displayed"],
                nu.point_at(t), atol=1e-9,
            )


def test_fiber_dial_readings_disagree_by_the_square_root():
    r = 3.0
    mu, nu, one = _unit_speed_pair(r)
    doc = wg.theta_consistency(mu, nu, one, r, 0.5)
    # Linear reading t, compatibility reading t/sqrt(1+r): gap 1 - 1/2.
    assert doc["beta_displayed"] == pytest.approx(0.5, rel=1e-9)
    assert doc["beta_compat"] == pytest.approx(0.25, rel=1e-9)
    assert doc["relative_gap"] == pytest.approx(0.5, rel=1e-6)


def test_fiber_dial_on_a_hyperbolic_base():
    # Non-trivial warp on the half-plane with a unit-speed circle fiber:
    # the compatibility reading of the dial must agree with the two-sided
    # traversal formula at every queried parameter.
    g1 = wg.poincare_half_plane()
    w = wg.WarpField.from_expression("2 + 0.5*sin(2*x1)", 2, 1.5, 2.5)
    r = 1.0
    chart = wg.conformal_metric(g1, w, r)
    mu = wg.integrate_geodesic(chart, np.array([0.0, 1.0]),
                               np.array([1.0, 0.0]), CFG)
    s = np.linspace(0.0, 3.0, CFG.steps + 1)
    nu = wg.Curve(s, s[:, None], np.ones((CFG.steps + 1, 1)))
    for t in (0.25, 0.5, 0.9):
        doc = wg.theta_consistency(mu, nu, w, r, t)
        plus, _ = wg.partial_connect((mu, nu), t, w, r)
        assert doc["beta_compat"] == pytest.approx(plus, rel=1e-9)
        assert doc["point_displayed"][0] == pytest.approx(
            doc["beta_displayed"], abs=1e-9
        )
        assert doc["beta_displayed"] > doc["beta_compat"] > 0.0


def test_fiber_dial_needs_enough_fiber_coverage():
    g1 = wg.euclidean(1)
    g2 = wg.euclidean(1)
    half = wg.WarpField.constant(0.5, 1)
    r = 1.0
    chart = wg.conformal_metric(g1, half, r)
    mu = wg.integrate_geodesic(chart, np.zeros(1), np.ones(1), CFG)
    beta = _beta_from_mu(mu, half, r, g1, np.ones(1), 0).beta
    nu = wg.integrate_geodesic(g2, np.zeros(1), np.array([beta]), CFG)
    with pytest.raises(InputError, match="dial asks"):
        wg.theta_consistency(mu, nu, half, r, 0.9)


def test_fiber_dial_rejects_self_intersecting_traces():
    t = np.linspace(0.0, 1.0, 257)
    loop = wg.Curve(
        t,
        np.column_stack([np.cos(2 * np.pi * t), np.sin(2 * np.pi * t)]),
        np.column_stack([-2 * np.pi * np.sin(2 * np.pi * t), 2 * np.pi * np.cos(2 * np.pi * t)]),
    )
    nu = wg.Curve(t, t[:, None], np.ones((257, 1)))
    one = wg.WarpField.constant(1.0, 2)
    with pytest.raises(InputError, match="self-intersects"):
        wg.theta_consistency(loop, nu, one, 0.0, 0.5)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(c=st.floats(0.25, 4.0), r=st.floats(-0.2, 20.0), frac=st.floats(0.0, 1.0))
def test_fiber_dial_readings_for_a_constant_warp(c, r, frac):
    # k = c: a = c/(1 + r c) and b = c, so the linear reading is t/c and the
    # coupling-consistent one t/sqrt(c (1 + r c)); t keeps both on the
    # unit fiber leg
    assume(1.0 + r * c > 0.05)
    w = wg.WarpField.constant(c, 1)
    t = frac * min(1.0, c, math.sqrt(c * (1.0 + r * c)))
    s = np.linspace(0.0, 1.0, 65)
    mu = wg.Curve(s, s[:, None], np.ones((65, 1)))
    doc = wg.theta_consistency(mu, mu, w, r, t)
    assert doc["beta_displayed"] == pytest.approx(t / c, rel=1e-12, abs=1e-300)
    assert doc["beta_compat"] == pytest.approx(t / math.sqrt(c * (1.0 + r * c)),
                                               rel=1e-12, abs=1e-300)


# ---------------------------------------------------------------------------
# the line-base fast path


@settings(max_examples=25, deadline=None, derandomize=True)
@given(c=st.floats(0.25, 4.0), r=st.floats(-0.2, 20.0),
       t0=st.floats(0.0, 3.0), t1=st.floats(0.0, 3.0))
def test_line_base_dial_closed_form(c, r, t0, t1):
    # For a constant warp k = c the dial is the base distance over
    # sqrt(c (1 + r c)); Simpson's rule is exact on the flat line and on the
    # weight (1 + t)^2, whose slowness is linear in t.
    assume(abs(t1 - t0) >= 0.05)
    w = wg.WarpField.constant(c, 1)
    for weight, s0, primitive in ((None, 1.0, lambda t: t),
                                  ("(1 + t)^2", 1.0 + t0, lambda t: t + t * t / 2)):
        res = wg.flrw_beta(w, t0, t1, r, CFG, weight=weight)
        d = primitive(t1) - primitive(t0)
        assert res.beta == pytest.approx(abs(d) / math.sqrt(c * (1.0 + r * c)), rel=1e-14)
        assert res.a_r == pytest.approx(c / (1.0 + r * c), rel=1e-10)
        np.testing.assert_allclose(res.X_r.components, [d / s0], rtol=1e-10)


def test_line_base_connection_matches_the_general_path():
    g2 = wg.euclidean(1)
    one = wg.WarpField.constant(1.0, 1)
    fast = wg.flrw_connect(one, 0.0, 2.0, np.zeros(1), np.ones(1), g2, CFG)
    assert fast.r == pytest.approx(3.0, abs=1e-9)
    assert fast.first_integral_residual is not None
    assert fast.first_integral_residual <= 1e-8
    assert max(fast.geodesic.residuals) <= 1e-5

    general = wg.connect_points(
        wg.euclidean(1), g2, one, (np.zeros(1), np.zeros(1)), (np.array([2.0]), np.ones(1)), CFG
    )
    assert abs(general.r - fast.r) <= 1e-8


def test_first_integral_solve_against_direct_quadrature():
    # The endpoint condition pins the first-integral constant c = X_r S(t0)
    # to the full slowness integral, and the dial is the integral of
    # sqrt(f / (k (1 + r k))); an adaptive quadrature reproduces both
    # without any of this module's machinery.
    from scipy.integrate import quad

    w = wg.WarpField.from_expression("2 + sin(x1)", 1, 1.0, 3.0)
    for r in (0.0, 0.5):
        res = wg.flrw_beta(w, 0.0, math.pi, r, CFG)
        slowness = math.sqrt((1.0 + 2.0 * r) / 2.0)
        c, _ = quad(lambda x: math.sqrt((1.0 + r * (2.0 + math.sin(x)))
                                        / (2.0 + math.sin(x))), 0.0, math.pi)
        assert res.X_r.components[0] * slowness == pytest.approx(c, rel=1e-10)
        beta, _ = quad(lambda x: 1.0 / math.sqrt((2.0 + math.sin(x))
                                                 * (1.0 + r * (2.0 + math.sin(x)))),
                       0.0, math.pi)
        assert res.beta == pytest.approx(beta, rel=1e-10)


def test_weighted_line_base_closed_form():
    # k = 1 with weight (1+t)^2 and r = 3: the slowness is 2 (1 + t), so
    # c = 8, X_r = c / S(0) = 4, a = 1/(1+r) and beta = int_0^2 (1 + t)/2 = 2.
    # The connection to y1 = 2 lands on r = 3, and its base leg, which
    # solves mu' = c / S(mu), is mu(s) = sqrt(1 + 8 s) - 1.  That leg is
    # the inverse of the slowness's running integral, which the rule gets
    # exactly here.
    one = wg.WarpField.constant(1.0, 1)
    res = wg.flrw_beta(one, 0.0, 2.0, 3.0, CFG, weight="(1 + t)^2")
    np.testing.assert_allclose(res.X_r.components, [4.0], rtol=1e-12)
    assert res.a_r == pytest.approx(0.25, rel=1e-12)
    assert res.beta == pytest.approx(2.0, rel=1e-12)
    rep = wg.flrw_connect(one, 0.0, 2.0, np.zeros(1), np.array([2.0]),
                          wg.euclidean(1), CFG, weight="(1 + t)^2")
    assert rep.r == pytest.approx(3.0, abs=1e-9)
    mu = rep.geodesic.base[0]
    assert mu.point_at(0.5)[0] == pytest.approx(np.sqrt(5.0) - 1.0, abs=1e-12)
    assert mu.point_at(1.0)[0] == pytest.approx(2.0, abs=1e-12)


def test_reversing_the_line_interval_leaves_the_dial():
    # Reversed, the grid visits the same points in the opposite order and
    # the quadrature rule is symmetric, so only the summation order changes.
    w = wg.WarpField.from_expression("2 + sin(x1)", 1, 1.0, 3.0)
    for r in (-0.3, 1.0):
        for weight in (None, "(1 + t)^2"):
            forth = wg.flrw_beta(w, 0.0, 6.0, r, CFG, weight=weight)
            back = wg.flrw_beta(w, 6.0, 0.0, r, CFG, weight=weight)
            assert back.beta == pytest.approx(forth.beta, rel=1e-12)


def test_endpoint_error_measures_the_requested_end_points():
    # The README instance at 64 steps: the rebuilt base leg, a shot leg
    # reparametrized, ends 2.39e-11 from x1; the report must show that
    # miss, not compare the leg with its own end point.  The line base's
    # leg ends at t1 within roundoff, and its report measures that too.
    rep = wg.connect_points(wg.poincare_half_plane(), wg.circle(1.0), README_WARP,
                            (X0, np.zeros(1)), (X1, np.array([0.4])), FAST)
    geo = rep.geodesic
    miss = max(np.max(np.abs(geo.gamma.points[-1] - X1)),
               abs(geo.tau.points[-1, 0] - 0.4))
    assert rep.endpoint_error == miss
    assert rep.endpoint_error == pytest.approx(2.39e-11, rel=0.01)
    w = wg.WarpField.from_expression("2 + sin(x1)", 1, 1.0, 3.0)
    rep = wg.flrw_connect(w, 0.0, 7.0, np.zeros(1), np.array([0.9]), wg.euclidean(1),
                          wg.IntegratorConfig(steps=512), weight="(1 + t)^2")
    geo = rep.geodesic
    miss = max(abs(geo.gamma.points[-1, 0] - 7.0), abs(geo.tau.points[-1, 0] - 0.9))
    assert rep.endpoint_error == miss


def test_missing_the_end_point_beyond_the_tolerance_raises():
    # The README instance at 64 steps misses x1 by 2.39e-11 (previous test),
    # above a tolerance of 1e-11.
    with pytest.raises(ShootingError) as info:
        wg.connect_points(wg.poincare_half_plane(), wg.circle(1.0), README_WARP,
                          (X0, np.zeros(1)), (X1, np.array([0.4])),
                          wg.IntegratorConfig(steps=64, tolerance=1e-11))
    assert info.value.residual == pytest.approx(2.39e-11, rel=0.01)
    assert info.value.iterations > 0


def test_a_solve_leaves_no_dial_evaluation_for_the_cycle_collector():
    # The dial memo holds the shot leg of every evaluation; nothing of it
    # may be left for a full GC once a solve has returned.
    def held():
        return sum(isinstance(o, BetaResult) for o in gc.get_objects())

    w = wg.WarpField.from_expression("2 + sin(x1)", 1, 1.0, 3.0)
    line = wg.euclidean(1)
    gc.collect()
    gc.disable()
    try:
        before = held()
        wg.flrw_connect(w, 0.0, 2.0, np.zeros(1), np.array([0.5]), line, CFG)
        wg.connect_points(line, line, w, (np.zeros(1), np.zeros(1)),
                          (np.array([2.0]), np.array([0.5])), FAST)
        after = held()
    finally:
        gc.enable()
    assert after == before


def test_a_solve_compiles_one_step_per_chart_and_warp(monkeypatch, tmp_path):
    # The fiber chart and the base's rescaled family each compile one
    # float loop, whatever the number of dial evaluations.  Equal trees are
    # one object, so nothing compiles again: not a solve on charts and a
    # warp built afresh, nor a second CLI run of the same config.
    compiled = []
    real = warpfn._function

    def counted(emitter, source):
        compiled.append(emitter)
        return real(emitter, source)

    monkeypatch.setattr(warpfn, "_function", counted)
    warpfn._compiled.cache_clear()

    def solve():
        g1, g2 = wg.poincare_half_plane(), wg.circle(1.0)
        w = wg.WarpField.from_expression("2 + 0.5*sin(2*x1)", 2, 1.5, 2.5)
        ends = ((X0, np.zeros(1)), (X1, np.array([0.4])))
        return g1, g2, w, wg.connect_points(g1, g2, w, *ends, FAST)

    g1, g2, w, report = solve()
    assert report.iterations > 1
    assert sum(emitter.loop for emitter in compiled) == 2
    before = len(compiled)
    warpfn.rk4_geodesic_loop(g2.exponent, 1)
    warpfn.rk4_geodesic_loop(wg.conformal_metric(g1, w, report.r).exponent, 2)
    assert len(compiled) == before
    compiled.clear()
    solve()
    assert compiled == []

    config = tmp_path / "task.yaml"
    config.write_text(json.dumps({
        "task": "riemannize",
        "base_chart": {"name": "poincare_half_plane"},
        "fiber_chart": {"name": "circle", "radius": 1.0},
        "warp": {"expression": "2 + 0.5*sin(2*x1)", "k0": 1.5, "K0": 2.5},
        "integrator": {"steps": 64},
        "riemannize": {"r": 1.0, "x0": [0.0, 1.0], "X0": [2.0, 0.8], "y0": [0.0],
                       "Y0": [1.0], "fit_fiber_speed": True, "oracle_check": True},
    }))
    for run in ("o1", "o2"):
        compiled.clear()
        assert cli.main(["--config", str(config), "--out", str(tmp_path / run),
                         "--quiet"]) == 0
    assert compiled == []


def test_a_shoot_builds_one_curve(monkeypatch):
    # every shot reads only the end state of the geodesic's flat list of
    # states; only the converged shot's states become a curve
    built = []
    real = wg.Curve.__post_init__

    def counted(curve):
        built.append(1)
        real(curve)

    shots = _count_calls(monkeypatch, connect, "_geodesic_flat")
    monkeypatch.setattr(wg.Curve, "__post_init__", counted)
    v, _, curve, iterations = _shoot(wg.poincare_half_plane(), X0, X1, FAST)
    assert iterations > 1 and len(shots) > iterations
    assert len(built) == 1
    assert np.array_equal(curve.points, wg.integrate_geodesic(
        wg.poincare_half_plane(), X0, v, FAST).points)
    assert not curve.params.flags.writeable


MISDECLARED = wg.WarpField.from_expression("2 + 0.5*sin(2*x1)", 2, 1.5, 2.2)


def test_a_warp_above_its_declared_bound_ends_a_solve_by_name():
    # k reaches 2.5, K0 = 2.2 is declared: the walk reaches r near
    # -1/2.2, where a shot meets 1/k + r <= 0
    factor = warpfn.Binary("+", warpfn.Binary("/", warpfn.Const(1.0),
                                              MISDECLARED.expr), warpfn.Var(2))
    with pytest.raises(ChartDomainError) as err:
        wg.connect_points(wg.poincare_half_plane(), wg.circle(1.0), MISDECLARED,
                          (X0, np.zeros(1)), (X1, np.array([3.0])), FAST)
    assert err.value.condition == f"{factor} > 0.0"
    assert str(factor) in str(err.value)


def test_a_warp_above_its_declared_bound_is_a_typed_error_where_k_is_read():
    # no numpy warning: 1 + r k is compared before any square root
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalError, match=r"1 \+ r k = -.* is not positive at "
                           r"\[.*\], where k = .*, at r = -0\.43.*"
                           r"\[k0, K0\] = \[1\.5, 2\.2\]"):
            wg.flrw_connect(_misdeclared_sine(), 0.0, 6.0, np.zeros(1),
                            np.array([40.0]), wg.euclidean(1), CFG)
        t = np.linspace(0.0, 1.0, 17)
        leg = wg.Curve(t, np.column_stack([np.pi / 4 + 0.1 * t, np.ones(17)]),
                       np.tile([0.1, 0.0], (17, 1)))
        with pytest.raises(NumericalError, match=r"at \[0\.785.*, 1\.0\], where k = 2\.5"):
            reparam._leg_constants(leg, MISDECLARED, -0.44)


def test_a_warp_that_falls_to_zero_is_a_typed_error_where_k_is_read():
    # x1 - 2 is negative on [0, 2).  The factor 1/k + r needs k > 0 as well
    # as 1 + r k > 0, and at r = 0.1 only the first fails: the line dial
    # read beta = nan with a numpy warning from sqrt(f / k), and the solve
    # blamed 1 + r k <= 0.
    falling = wg.WarpField.from_expression("x1 - 2", 1, 1.0, 3.0)
    cfg = wg.IntegratorConfig(steps=64)
    message = r"the warp k must stay positive and finite, got -2\.0 at t = 0\.0$"
    t = np.linspace(0.0, 1.0, 17)
    leg = wg.Curve(t, t[:, None], np.ones((17, 1)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalError, match=message):
            wg.flrw_beta(falling, 0.0, 6.0, 0.1, cfg)
        with pytest.raises(NumericalError, match=message):
            wg.flrw_connect(falling, 0.0, 6.0, np.zeros(1), np.array([0.5]),
                            wg.euclidean(1), cfg)
        with pytest.raises(NumericalError, match=r"^the warp is not positive at "
                           r"\[0\.0\], where k = -2\.0, at r = 0\.1: "):
            reparam._leg_constants(leg, falling, 0.1)


def test_the_dial_bounds_check_the_warp_along_the_base_geodesic():
    # k reaches 2.5 where K0 = 2.2 is declared: at r = -0.44, admissible by
    # the declaration, 1 + r k < 0 from k = 2.27, which the base geodesic
    # from X0 to X1 first passes near x1 = 0.303
    with pytest.raises(NumericalError, match=r"1 \+ r k = -.* is not positive at "
                       r"\[0\.303.*, 1\.069.*\], where k = 2\.28.*, at r = -0\.44"):
        wg.beta_bounds(wg.poincare_half_plane(), wg.circle(1.0), MISDECLARED,
                       X0, X1, -0.44, FAST)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(k0=st.floats(0.1, 5.0), spread=st.floats(0.0, 5.0),
       above=st.floats(1e-9, 10.0), unit=st.lists(st.floats(0.0, 1.0), min_size=1,
                                                  max_size=20))
def test_a_warp_within_its_declared_bounds_never_trips_the_check(k0, spread, above,
                                                                 unit):
    K0 = k0 + spread
    w = wg.WarpField.constant(k0, 1)
    w = wg.WarpField(w.expr, k0, K0)
    r = wg.admissible_range(w).lower * (1.0 - above / 11.0) + above
    k = k0 + spread * np.array(unit)
    _require_rescalable(w, r, k[:, None], k)


def test_a_solve_builds_the_maps_once_at_the_root(monkeypatch):
    # A dial evaluation reads the constants as quadratures; only the
    # rebuild of the solved pair builds the maps.
    calls = _count_calls(monkeypatch, reparam, "_base_map")
    w = wg.WarpField.from_expression("2 + sin(x1)", 1, 1.0, 3.0)
    line = wg.euclidean(1)
    report = wg.connect_points(line, line, w, (np.zeros(1), np.zeros(1)),
                               (np.array([2.0]), np.array([0.5])), FAST)
    assert report.iterations > 1 and len(calls) == 1
    report = wg.flrw_connect(w, 0.0, 2.0, np.zeros(1), np.array([0.5]), line, CFG)
    assert report.iterations > 1 and len(calls) == 2


def test_a_non_positive_line_weight_is_a_numerical_failure():
    one = wg.WarpField.constant(1.0, 1)
    with pytest.raises(NumericalError, match="line weight must stay positive"):
        wg.flrw_connect(one, 0.0, 1.0, np.zeros(1), np.array([0.5]),
                        wg.euclidean(1), CFG, weight="t - 0.5")
    with pytest.raises(NumericalError, match="got nan"):
        wg.flrw_connect(one, 0.0, 1.0, np.zeros(1), np.array([0.5]),
                        wg.euclidean(1), CFG, weight=warpfn.Const(math.nan))


def test_a_line_weight_that_overflows_is_a_numerical_error():
    # (1 + t) 1e300 1e300 overflows at every node: the dial read it as
    # beta = nan with numpy warnings, and the solve blamed 1 + r k <= 0 and
    # K0.  The weight is checked finite and positive where it is read.
    w = wg.WarpField.from_expression("2 + sin(x1)", 1, 1.0, 3.0)
    weight = "(1 + t)*1e300*1e300"
    message = r"line weight must stay positive and finite, got inf at t = 0\.0$"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalError, match=message):
            wg.flrw_beta(w, 0.0, 6.0, 0.5, FAST, weight=weight)
        with pytest.raises(NumericalError, match=message):
            wg.flrw_connect(w, 0.0, 6.0, np.zeros(1), np.array([0.5]),
                            wg.euclidean(1), FAST, weight=weight)


def test_a_line_solve_reads_the_warp_once_and_stops_at_the_resolution(monkeypatch):
    # The README's line instance at 1024 steps.  Its solve evaluates the
    # warp on the dial's grid once, and once more along the rebuilt base
    # leg; every evaluation reports the rounding bound of its sums, and the
    # solve stops at the first that matches the target within it: 7
    # evaluations, where running to the bracket width took 8.
    grids, evaluations = [], []
    real_values, real_dial = connect.values_along, connect.flrw_beta

    def values(w, points):
        grids.append(np.array(points))
        return real_values(w, points)

    def dial(*args, **kwargs):
        evaluations.append(real_dial(*args, **kwargs))
        return evaluations[-1]

    monkeypatch.setattr(connect, "values_along", values)
    monkeypatch.setattr(connect, "flrw_beta", dial)
    w = wg.WarpField.from_expression("2 + 0.5*sin(2*x1)", 1, 1.5, 2.5)
    report = wg.flrw_connect(w, 0.0, 6.0, np.zeros(1), np.array([0.9]), wg.circle(1.0),
                             weight="(1 + t)^2")
    grid = 6.0 * np.linspace(0.0, 1.0, 1025)
    assert len(grids) == 2 and sum(np.array_equal(g[:, 0], grid) for g in grids) == 1
    assert report.iterations == len(evaluations) == 7
    gaps = [abs(math.log(e.beta / report.target_beta)) for e in evaluations]
    for e in evaluations:
        assert 1027 * _num.EPS <= e.resolution <= 1028 * _num.EPS
    assert gaps[-1] <= evaluations[-1].resolution
    assert all(g > e.resolution for g, e in zip(gaps[:-1], evaluations))


def test_a_line_solve_integrates_only_the_fiber_shoot(monkeypatch):
    # The base leg at the root is the first integral's inverse, so the one
    # geodesic a line solve integrates is the fiber shoot's.
    charts = []
    real = integrate._geodesic_flat

    def counted(chart, *args):
        charts.append(chart)
        return real(chart, *args)

    for module in (connect, integrate):
        monkeypatch.setattr(module, "_geodesic_flat", counted)
    g2 = wg.euclidean(1)
    w = wg.WarpField.from_expression("2 + sin(x1)", 1, 1.0, 3.0)
    report = wg.flrw_connect(w, 0.0, 6.0, np.zeros(1), np.array([0.9]), g2, CFG)
    assert report.iterations > 1
    assert charts == [g2]


@pytest.mark.parametrize("steps", [256, 512])
def test_the_weighted_line_leg_ends_at_t1_within_roundoff(steps):
    # The README's line instance: the inverse of the first integral ends
    # at t1 = 6 by construction, at any step count.
    w = wg.WarpField.from_expression("2 + 0.5*sin(2*x1)", 1, 1.5, 2.5)
    report = wg.flrw_connect(w, 0.0, 6.0, np.zeros(1), np.array([0.9]), wg.circle(1.0),
                             wg.IntegratorConfig(steps=steps), weight="(1 + t)^2")
    assert abs(report.geodesic.gamma.points[-1, 0] - 6.0) <= 64 * _num.EPS * 6.0
    assert abs(report.geodesic.base[0].points[-1, 0] - 6.0) <= 64 * _num.EPS * 6.0


def test_the_first_integral_residual_reads_the_leg_against_its_velocities():
    # The acceptance line instance: the residual is the largest gap between
    # the base leg's positions and the running integral of its velocities,
    # and it falls at least 8x per doubling of the steps (about 16x: 2.1e-11
    # at 256 steps, 8.4e-14 at 1024).
    w = wg.WarpField.from_expression("2 + sin(x1)", 1, 1.0, 3.0)
    residuals = []
    for steps in (256, 512, 1024):
        report = wg.flrw_connect(w, 0.0, 6.0, np.zeros(1), np.array([0.9]),
                                 wg.euclidean(1), wg.IntegratorConfig(steps=steps))
        mu = report.geodesic.base[0]
        drift = mu.points[:, 0] - _num.cumulative_simpson(mu.velocities[:, 0], mu.h)
        assert report.first_integral_residual == np.max(np.abs(drift))
        residuals.append(report.first_integral_residual)
    assert residuals[0] >= 8.0 * residuals[1] >= 64.0 * residuals[2] > 0.0


def test_an_unresolved_inverse_of_the_line_leg_is_a_numerical_error():
    # y1 = 10 puts the root next to the admissibility threshold, where
    # 1 + r k nearly vanishes at t = pi/2: at 16 steps the slowness's table
    # does not resolve its inverse
    w = wg.WarpField.from_expression("2 + sin(x1)", 1, 1.0, 3.0)
    with pytest.raises(NumericalError, match="not resolved by its table"):
        wg.flrw_connect(w, 0.0, 6.0, np.zeros(1), np.array([10.0]), wg.euclidean(1),
                        wg.IntegratorConfig(steps=16))


def test_a_line_solve_leaves_nothing_for_the_cycle_collector():
    # The dial and the base leg share the solve's one batch through a plain
    # list that flrw_connect owns: a batch kept on the dial function, which
    # refers to itself through its closure, would be a cycle, and every
    # solve's arrays would wait for the collector.
    w = wg.WarpField.from_expression("2 + sin(x1)", 1, 1.0, 3.0)

    def solve():
        wg.flrw_connect(w, 0.0, 6.0, np.zeros(1), np.array([0.9]), wg.euclidean(1), CFG)

    solve()  # compiles the loops and fills the caches
    gc.collect()
    gc.disable()
    try:
        solve()
        found = gc.collect()
    finally:
        gc.enable()
    assert found == 0


def test_line_base_rejects_an_empty_interval():
    one = wg.WarpField.constant(1.0, 1)
    with pytest.raises(InputError):
        wg.flrw_beta(one, 1.0, 1.0, 0.0, CFG)
    g2 = wg.euclidean(1)
    with pytest.raises(BracketingError):
        wg.flrw_connect(one, 1.0, 1.0, np.zeros(1), np.ones(1), g2, CFG)


def test_line_base_dial_survives_the_admissibility_threshold():
    w = wg.WarpField.from_expression("2 + sin(x1)", 1, 1.0, 3.0)
    lower = wg.admissible_range(w).lower
    r = lower + 1e-3 * (1.0 + abs(lower))
    res = wg.flrw_beta(w, 0.0, 6.0, r, CFG)
    assert np.isfinite(res.beta) and res.beta > 0.0
    assert np.isfinite(res.X_r.components[0]) and res.X_r.components[0] > 0.0
