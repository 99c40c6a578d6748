"""Warp fields, the rescaled metric family, and its curvature."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import warpgeo as wg
from warpgeo import warpfn
from warpgeo.manifold import (
    MetricChart, _metric, christoffel, metric_eval, sectional_curvature,
)
from warpgeo.warp import (
    admissible_range,
    conformal_metric,
    covariant_hessian,
    equivalence_bounds,
    negativity_check,
    rescaled_curvature,
    sectional_curvature_conformal,
    value_and_grad,
    values_along,
)
from warpgeo.errors import InputError, NumericalError, ParameterError


def _sine_field():
    return wg.WarpField.from_expression("2 + sin(x1)", 1, 1.0, 3.0)


def _half_plane(p):
    """The textbook half-plane metric ``I / y^2``."""
    return np.eye(2) / p[1] ** 2


# ---------------------------------------------------------------------------
# field construction and bounds


def test_constant_field_collapses_bounds():
    w = wg.WarpField.constant(2.5, 3)
    p = np.array([1.0, -4.0, 0.3])
    assert w.value_at(p) == 2.5
    np.testing.assert_array_equal(w.differential_at(p), np.zeros(3))
    np.testing.assert_array_equal(w.hessian_at(p), np.zeros((3, 3)))
    assert w.k0 == w.K0 == 2.5


def test_expression_field_wires_both_derivative_orders():
    w = _sine_field()
    p = np.array([np.pi / 2])
    assert w.value_at(p) == pytest.approx(3.0, abs=1e-15)
    np.testing.assert_allclose(w.differential_at(p), [0.0], atol=1e-15)
    np.testing.assert_allclose(w.hessian_at(p), [[-1.0]], rtol=1e-15)
    value, grad = value_and_grad(w, np.array([0.0]))
    assert value == 2.0
    np.testing.assert_allclose(grad, [1.0], rtol=1e-15)


def test_field_rejects_bad_declared_bounds():
    with pytest.raises(InputError):
        wg.WarpField.from_expression("1 + x1^2", 1, 0.0, 2.0)  # k0 must be positive
    with pytest.raises(InputError):
        wg.WarpField.from_expression("1 + x1^2", 1, 2.0, 1.0)  # K0 below k0


def test_check_bounds_flags_a_lying_declaration():
    # The field dips to 1 at x = -pi/2, below the claimed floor of 1.5.
    w = wg.WarpField.from_expression("2 + sin(x1)", 1, 1.5, 3.0)
    with pytest.raises(InputError, match="violates declared"):
        w.check_bounds([np.array([-np.pi / 2])])
    w.check_bounds([np.array([0.0]), np.array([1.0])])  # fine on these


def test_a_field_is_its_parsed_expression(dsl_cases):
    for expr, point in dsl_cases[:200]:
        text, dim = warpfn.format_expression(expr), point.shape[0]
        node = wg.WarpField(warpfn.parse(text, dim), 0.5, 4.0)
        parsed = wg.WarpField.from_expression(text, dim, 0.5, 4.0)
        rows = np.stack([point, point])
        for field in (node, parsed):
            assert field.value_at(point) == warpfn.evaluate(expr, point)
            np.testing.assert_array_equal(
                field.differential_at(point), warpfn.value_and_gradient(expr, point)[1])
            np.testing.assert_array_equal(field.hessian_at(point),
                                          warpfn.eval2(expr, point)[2])
            np.testing.assert_array_equal(values_along(field, rows),
                                          warpfn.evaluate_many(expr, rows))


def test_values_along_matches_pointwise_evaluation():
    w = wg.WarpField.from_expression("2 + 0.5*sin(2*x1)*cos(2*x2)", 2, 1.5, 2.5)
    rng = np.random.default_rng(5)
    points = rng.uniform(-2, 2, (40, 2))
    batch = values_along(w, points)
    loop = np.array([w.value_at(p) for p in points])
    np.testing.assert_allclose(batch, loop, rtol=1e-14)


# ---------------------------------------------------------------------------
# admissible parameter range


def test_admissible_range_frozen_cases():
    assert admissible_range(wg.WarpField.constant(1.0, 1)).lower == -1.0
    assert admissible_range(_sine_field()).lower == pytest.approx(-1.0 / 3.0, rel=1e-15)
    unbounded = wg.WarpField.from_expression("exp(x1)", 1, 1.0)
    assert admissible_range(unbounded).lower == 0.0


def test_admissible_range_is_an_open_interval():
    rng = admissible_range(_sine_field())
    assert rng.contains(-0.33)
    assert not rng.contains(rng.lower)
    assert not rng.contains(-0.5)
    with pytest.raises(ParameterError) as err:
        rng.require(-1.0)
    assert err.value.payload()["lower"] == pytest.approx(-1.0 / 3.0)


# ---------------------------------------------------------------------------
# the rescaled metric


def test_rescaled_metric_frozen_factors():
    one = wg.WarpField.constant(1.0, 2)
    base = wg.poincare_half_plane()
    p = np.array([0.4, 1.7])
    np.testing.assert_allclose(
        _metric(conformal_metric(base, one, 0.0), p), _half_plane(p), rtol=1e-15
    )
    np.testing.assert_allclose(
        _metric(conformal_metric(base, one, 3.0), p), 4.0 * _half_plane(p), rtol=1e-15
    )
    line = wg.euclidean(1)
    squeezed = conformal_metric(line, _sine_field(), 0.0)
    np.testing.assert_allclose(
        _metric(squeezed, np.array([np.pi / 2])), [[1.0 / 3.0]], rtol=1e-14
    )
    assert squeezed.name.startswith("conformal(")


def test_rescaled_chart_holds_r_as_a_python_float():
    base = wg.poincare_half_plane()
    w = wg.WarpField.from_expression("2 + 0.5*sin(2*x1)", 2, 1.5, 2.5)
    cfg = wg.IntegratorConfig(steps=64)
    curves = []
    for r in (0.7, np.float64(0.7)):
        chart = conformal_metric(base, w, r)
        assert {type(a) for a in chart.exponent_args} == {float}
        curves.append(wg.integrate_geodesic(chart, np.array([0.0, 1.0]),
                                            np.array([1.0, 0.3]), cfg))
    assert np.array_equal(curves[0].points, curves[1].points)
    assert np.array_equal(curves[0].velocities, curves[1].velocities)


def test_rescaled_metric_keeps_analytic_derivatives_consistent():
    base = wg.poincare_half_plane()
    w = wg.WarpField.from_expression("2 + 0.1*sin(x1)", 2, 1.9, 2.1)
    chart = conformal_metric(base, w, 0.7)
    assert chart.exponent is not None
    bare = MetricChart(2, lambda p: (1.0 / w.value_at(p) + 0.7) * _half_plane(p))
    rng = np.random.default_rng(23)
    for _ in range(15):
        p = np.array([rng.uniform(-2, 2), rng.uniform(0.6, 2.5)])
        got = christoffel(chart, p)
        want = christoffel(bare, p)
        assert np.max(np.abs(got - want)) / max(1.0, np.max(np.abs(want))) <= 1e-8


def test_equivalence_bounds_frozen_values():
    one = wg.WarpField.constant(1.0, 1)
    assert equivalence_bounds(one, 0.0) == (1.0, 1.0)
    w = _sine_field()
    k2, k3 = equivalence_bounds(w, 1.0)
    assert k2 == pytest.approx(0.75, rel=1e-15)
    assert k3 == pytest.approx(2.0, rel=1e-15)
    unbounded = wg.WarpField.from_expression("exp(x1)", 1, 1.0)
    k2u, k3u = equivalence_bounds(unbounded, 2.0)
    assert k2u == pytest.approx(0.5, rel=1e-15)
    assert k3u == pytest.approx(3.0, rel=1e-15)


def test_norm_equivalence_holds_pointwise():
    """1/k2 and k3 sandwich the rescaled/base norm ratio at random samples."""
    base = wg.euclidean(2)
    w = wg.WarpField.from_expression("2 + 0.5*sin(2*x1)*cos(2*x2)", 2, 1.5, 2.5)
    r = 0.8
    k2, k3 = equivalence_bounds(w, r)
    chart = conformal_metric(base, w, r)
    rng = np.random.default_rng(31)
    for _ in range(200):
        p = rng.uniform(-3, 3, 2)
        v = rng.uniform(-2, 2, 2)
        ratio = metric_eval(chart, p, v, v) / metric_eval(base, p, v, v)
        assert 1.0 / k2 - 1e-12 <= ratio <= k3 + 1e-12


# ---------------------------------------------------------------------------
# covariant Hessian


def test_covariant_hessian_is_plain_hessian_on_flat_space():
    base = wg.euclidean(2)
    w = wg.WarpField.from_expression("x1^2*x2", 2, 1.0, 100.0)
    p = np.array([1.5, -2.0])
    np.testing.assert_allclose(
        covariant_hessian(base, w, p), [[-4.0, 3.0], [3.0, 0.0]], rtol=1e-13
    )


def test_covariant_hessian_picks_up_the_connection():
    # For k(x, y) = y on the half-plane the correction is purely through
    # the Christoffel symbols: Hess k = diag(-1/y, 1/y).
    base = wg.poincare_half_plane()
    w = wg.WarpField.from_expression("x2", 2, 0.5, 4.0)
    hess = covariant_hessian(base, w, np.array([3.0, 2.0]))
    np.testing.assert_allclose(hess, [[-0.5, 0.0], [0.0, 0.5]], atol=1e-12)


# ---------------------------------------------------------------------------
# curvature of the rescaled metric


def _reference_jet(g1, w, p):
    k, dk, H = warpfn.eval2(w.expr, p)
    H = H - np.tensordot(christoffel(g1, p), dk, axes=([0], [0]))
    return k, dk, H, float(dk @ np.linalg.solve(_metric(g1, p), dk))


def _reference_sectional(g1, w, r, p, e1, e2):
    """The rescaled curvature, one sample at a time as a scalar formula."""
    k1_sec = sectional_curvature(g1, p, e1, e2)
    k, dk, H, dk2 = _reference_jet(g1, w, p)
    s = 1.0 + r * k
    e1k = float(dk @ e1)
    e2k = float(dk @ e2)
    return (
        k / s * k1_sec
        + (e1 @ H @ e1 + e2 @ H @ e2) / (2.0 * s * s)
        - (1.0 + 4.0 * r * k) * (e1k * e1k + e2k * e2k) / (4.0 * k * s ** 3)
        - dk2 / (4.0 * k * s ** 3)
    )


def _reference_criterion(g1, w, r, p, e, plane_curvature):
    """The negativity criterion for one vector as a scalar formula."""
    k, dk, H, dk2 = _reference_jet(g1, w, p)
    s = 1.0 + r * k
    ek = float(dk @ e)
    return float(e @ H @ e) < (
        (1.0 + 4.0 * r * k) * ek * ek / (2.0 * k * s)
        + dk2 / (4.0 * k * s)
        - k * s * plane_curvature
    )


# base charts with a coordinate box inside each
KERNEL_BASES = {
    "half_plane": (wg.poincare_half_plane(), [(-2.0, 2.0), (0.2, 3.0)]),
    "flat": (wg.euclidean(2), [(-2.0, 2.0), (-2.0, 2.0)]),
    "ball": (wg.poincare_ball(2), [(-0.65, 0.65), (-0.65, 0.65)]),
    "sphere": (wg.sphere(2), [(0.3, math.pi - 0.3), (-3.0, 3.0)]),
}


def _frame(g, theta):
    """Gram-Schmidt for ``g`` of the rotation of the coordinate frame by ``theta``."""
    a = np.array([math.cos(theta), math.sin(theta)])
    b = np.array([-math.sin(theta), math.cos(theta)])
    e1 = a / math.sqrt(a @ g @ a)
    e2 = b - (b @ g @ e1) * e1
    return np.array([e1, e2 / math.sqrt(e2 @ g @ e2)])


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_batch_kernel_matches_the_per_sample_formulas(data):
    base, box = KERNEL_BASES[data.draw(st.sampled_from(sorted(KERNEL_BASES)))]
    w = wg.WarpField.from_expression("2 + 0.5*sin(2*x1)*cos(3*x2)", 2, 1.5, 2.5)
    coordinate = st.tuples(*(st.floats(lo, hi) for lo, hi in box))
    points = np.array(data.draw(st.lists(coordinate, min_size=1, max_size=3)))
    r_values = data.draw(st.lists(st.floats(-0.39, 3.0), min_size=1, max_size=3))
    planes = data.draw(st.integers(1, 2))
    shape = (len(points), len(r_values), planes)
    thetas = iter(data.draw(st.lists(st.floats(0.0, 2.0 * math.pi),
                                     min_size=math.prod(shape), max_size=math.prod(shape))))
    frames = np.array([[[_frame(_metric(base, p), next(thetas)) for _ in range(planes)]
                        for _ in r_values] for p in points])

    K, ok = rescaled_curvature(base, w, points, r_values, frames)

    assert K.shape == shape and ok.shape == shape + (2,)
    for i, p in enumerate(points):
        for j, r in enumerate(r_values):
            for q, (e1, e2) in enumerate(frames[i, j]):
                want = _reference_sectional(base, w, r, p, e1, e2)
                assert K[i, j, q] == pytest.approx(want, rel=1e-13, abs=1e-13)
                K1 = sectional_curvature(base, p, e1, e2)
                assert ok[i, j, q].tolist() == [
                    _reference_criterion(base, w, r, p, e, K1) for e in (e1, e2)]


def test_batch_kernel_checks_r_before_any_work_and_every_frame(monkeypatch):
    base = wg.poincare_half_plane()
    w = wg.WarpField.from_expression("2 + 0.5*sin(2*x1)", 2, 1.5, 2.5)
    points = np.array([[0.0, 1.0], [0.5, 2.0]])
    frames = np.broadcast_to(np.diag(points[:, 1])[:, None, None], (2, 2, 1, 2, 2)).copy()
    calls = _count_warp_evaluations(monkeypatch, w)
    with pytest.raises(wg.ParameterError):
        rescaled_curvature(base, w, points, [0.5, -1.0], frames)
    assert calls == []
    frames[1, 0, 0, 1] *= 1.5  # one vector of one row off unit length
    with pytest.raises(InputError, match="not orthonormal"):
        rescaled_curvature(base, w, points, [0.5, 1.0], frames)
    frames[1, 0, 0, 1] /= 1.5
    frames[0, 1, 0, 1] = frames[0, 1, 0, 0]  # a repeated vector
    with pytest.raises(InputError, match="not orthonormal"):
        rescaled_curvature(base, w, points, [0.5, 1.0], frames)
    with pytest.raises(InputError, match="must be unit"):
        rescaled_curvature(base, w, points, [0.5], 2.0 * frames[:, :1, :, :1],
                           plane_curvature=-1.0)


def test_a_frame_of_one_vector_needs_its_plane_curvature(monkeypatch):
    # one vector spans no plane, so the chart's sectional curvature cannot
    # be read for it: the call fails before the warp's jet is evaluated
    w = wg.WarpField.from_expression("2 + 0.5*sin(2*x1)", 2, 1.5, 2.5)
    frames = np.ones((1, 1, 1, 1, 2)) / math.sqrt(2.0)
    jets = []
    monkeypatch.setattr("warpgeo.warp._jets", lambda *args: jets.append(args))
    with pytest.raises(InputError, match="one vector .* needs plane_curvature"):
        rescaled_curvature(wg.euclidean(2), w, np.zeros((1, 2)), [0.5], frames)
    assert jets == []


def test_a_warp_above_its_declared_bound_stops_the_curvature():
    # k = 2.5 at x1 = pi/4, where K0 = 2.2 is declared: r = -0.44 is
    # admissible, yet 1 + r k = -0.1 there, and the metric is not Riemannian
    w = wg.WarpField.from_expression("2 + 0.5*sin(2*x1)", 2, 1.5, 2.2)
    points = np.array([[0.0, 0.0], [0.785, 0.0]])
    frames = np.broadcast_to(np.eye(2), (2, 1, 1, 2, 2))
    with pytest.raises(NumericalError, match=r"at \[0\.785, 0\.0\]") as err:
        rescaled_curvature(wg.euclidean(2), w, points, [0.5, -0.44], frames)
    assert "r = -0.44" in str(err.value)
    assert "[k0, K0] = [1.5, 2.2]" in str(err.value)
    K, ok = rescaled_curvature(wg.euclidean(2), w, points, [0.5, -0.4], frames)
    assert np.all(np.isfinite(K))


def test_rescaled_curvature_constant_field_closed_form():
    one = wg.WarpField.constant(1.0, 2)
    base = wg.poincare_half_plane()
    p = np.array([0.2, 1.4])
    frame = np.array([1.4, 0.0]), np.array([0.0, 1.4])
    for r in (0.0, 1.0, 10.0):
        K = sectional_curvature_conformal(base, one, r, p, *frame)
        assert K == pytest.approx(-1.0 / (1.0 + r), abs=1e-12)

    two = wg.WarpField.constant(2.0, 2)
    assert sectional_curvature_conformal(base, two, 0.5, p, *frame) == pytest.approx(
        -1.0, abs=1e-10
    )

    stretched = wg.sphere(2, radius=1.0)
    q = np.array([np.pi / 2, 0.0])
    sphere_frame = np.array([1.0, 0.0]), np.array([0.0, 1.0])
    K = sectional_curvature_conformal(stretched, two, 1.5, q, *sphere_frame)
    assert K == pytest.approx(0.5, abs=1e-10)


def test_rescaled_curvature_matches_generic_machinery():
    """The composite formula agrees with curvature of the raw rescaled chart."""
    base = wg.poincare_half_plane()
    w = wg.WarpField.from_expression("2 + 0.5*sin(2*x1)", 2, 1.5, 2.5)
    r = 1.0
    p = np.array([0.3, 1.2])
    e1 = np.array([1.2, 0.0])
    e2 = np.array([0.0, 1.2])
    K = sectional_curvature_conformal(base, w, r, p, e1, e2)

    raw = MetricChart(2, lambda q: (1.0 / w.value_at(q) + r) * _half_plane(q))
    scale = np.sqrt(1.0 / w.value_at(p) + r)
    K_generic = sectional_curvature(raw, p, e1 / scale, e2 / scale)
    assert K == pytest.approx(K_generic, abs=2e-5)
    assert K < 0.0


def test_negativity_check_frozen_cases():
    one = wg.WarpField.constant(1.0, 2)
    half = wg.poincare_half_plane()
    assert negativity_check(half, one, 0.0, np.array([0.0, 1.0]), np.array([0.0, 1.0]), -1.0)
    round_ = wg.sphere(2, radius=1.0)
    assert not negativity_check(
        round_, one, 0.0, np.array([np.pi / 2, 0.0]), np.array([1.0, 0.0]), 1.0
    )


def test_negativity_check_predicts_the_curvature_sign():
    base = wg.poincare_half_plane()
    w = wg.WarpField.from_expression("2 + 0.1*sin(x1)", 2, 1.9, 2.1)
    rng = np.random.default_rng(47)
    for r in (0.0, 1.0):
        for _ in range(12):
            p = np.array([rng.uniform(-1, 1), rng.uniform(0.5, 2.0)])
            e1 = np.array([p[1], 0.0])
            e2 = np.array([0.0, p[1]])
            theta = rng.uniform(0, np.pi)
            e = np.cos(theta) * e1 + np.sin(theta) * e2
            assert negativity_check(base, w, r, p, e, -1.0)
            assert sectional_curvature_conformal(base, w, r, p, e1, e2) < 0.0


def _count_warp_evaluations(monkeypatch, w):
    """Evaluations of ``w``'s expression (the base chart's Christoffel
    symbols evaluate the chart's own exponent, which is not the warp)."""
    calls = []
    for name in ("evaluate", "value_and_gradient", "eval2"):
        def counted(expr, *args, _f=getattr(warpfn, name), **kwargs):
            if expr is w.expr:
                calls.append(_f.__name__)
            return _f(expr, *args, **kwargs)
        monkeypatch.setattr(warpfn, name, counted)
    return calls


def test_each_curvature_formula_evaluates_the_warp_once(monkeypatch):
    base = wg.poincare_half_plane()
    w = wg.WarpField.from_expression("2 + 0.5*sin(2*x1)", 2, 1.5, 2.5)
    calls = _count_warp_evaluations(monkeypatch, w)
    p = np.array([0.3, 1.2])
    e1, e2 = np.array([1.2, 0.0]), np.array([0.0, 1.2])
    negativity_check(base, w, 1.0, p, e1, -1.0)
    assert len(calls) == 1
    sectional_curvature_conformal(base, w, 1.0, p, e1, e2)
    assert len(calls) == 2


def test_a_rescaled_chart_reads_its_sectional_curvature_from_one_jet(monkeypatch):
    # The scale back to a base-orthonormal pair is the jet's k: one eval2
    # and no separate evaluate per call, with the value of the two-call form.
    base = wg.poincare_half_plane()
    w = wg.WarpField.from_expression("2 + 0.5*sin(2*x1)*cos(2*x2)", 2, 1.5, 2.5)
    r = 0.7
    p = np.array([0.3, 1.2])
    scale = math.sqrt(1.0 / w.value_at(p) + r)
    e1, e2 = np.array([1.2, 0.0]) / scale, np.array([0.0, 1.2]) / scale
    want = _reference_sectional(base, w, r, p, scale * e1, scale * e2)
    chart = conformal_metric(base, w, r)
    calls = _count_warp_evaluations(monkeypatch, w)
    got = chart.sectional_at(p, e1, e2)
    assert calls == ["eval2"]
    assert got == want


def test_a_rescaled_chart_as_the_base_reads_its_curvature_in_batches():
    # the rescaled chart's sectional_at takes the kernel's batch of planes;
    # the values are those of the former plane-by-plane reads
    w = wg.WarpField.from_expression("2 + 0.5*sin(2*x1)", 2, 1.5, 2.5)
    base = conformal_metric(wg.euclidean(2), w, 0.5)
    points = np.array([[0.1, 1.0], [0.2, 1.1]])
    scale = np.sqrt(1.0 / values_along(w, points) + 0.5)
    frames = (np.eye(2) / scale[:, None, None])[:, None, None]
    K, ok = rescaled_curvature(base, w, points, [0.3], frames)
    assert K.shape == (2, 1, 1) and ok.all()
    np.testing.assert_allclose(K.ravel(), [-0.36588197252276433, -0.456610732350684],
                               rtol=1e-14)
    pairs = base.sectional_at(points, frames[:, 0, 0, 0], frames[:, 0, 0, 1])
    assert pairs.shape == (2,)
    for p, frame, got in zip(points, frames[:, 0, 0], pairs):
        assert got == sectional_curvature(base, p, *frame)


def _orthonormal_pairs(g, rng, count):
    """``count`` random pairs made orthonormal for ``g`` by Gram-Schmidt."""
    pairs = []
    for _ in range(count):
        a, b = rng.standard_normal((2, len(g)))
        e1 = a / math.sqrt(a @ g @ a)
        e2 = b - (b @ g @ e1) * e1
        pairs.append([e1, e2 / math.sqrt(e2 @ g @ e2)])
    return np.array(pairs)


# every built-in chart of constant curvature, and one chart given by its
# metric alone, with a coordinate box inside each
CURVATURE_BASES = {
    "euclidean2": (wg.euclidean(2), [(-2.0, 2.0)] * 2),
    "euclidean3": (wg.euclidean(3), [(-2.0, 2.0)] * 3),
    "half_plane": (wg.poincare_half_plane(), [(-2.0, 2.0), (0.3, 3.0)]),
    "ball2": (wg.poincare_ball(2), [(-0.6, 0.6)] * 2),
    "ball3": (wg.poincare_ball(3), [(-0.5, 0.5)] * 3),
    "sphere2": (wg.sphere(2), [(0.3, math.pi - 0.3), (-3.0, 3.0)]),
    "sphere3": (wg.sphere(3, radius=2.0), [(0.3, math.pi - 0.3)] * 2 + [(-3.0, 3.0)]),
    "metric_only": (MetricChart(2, metric_at=_half_plane), [(-2.0, 2.0), (0.3, 3.0)]),
}


@pytest.mark.parametrize("name", sorted(CURVATURE_BASES))
def test_the_batched_base_curvature_matches_each_plane(name):
    base, box = CURVATURE_BASES[name]
    w = wg.WarpField.from_expression("2 + 0.3*sin(2*x1)*cos(x2)", base.dim, 1.7, 2.3)
    rng = np.random.default_rng(sum(map(ord, name)))
    points = np.column_stack([rng.uniform(lo, hi, 4) for lo, hi in box])
    r_values = [-0.2, 0.5, 3.0]
    frames = np.array([_orthonormal_pairs(_metric(base, p), rng, 6).reshape(3, 2, 2, -1)
                       for p in points])
    per_plane = np.array([[[sectional_curvature(base, p, *f) for f in at_r] for at_r in at_p]
                          for p, at_p in zip(points, frames)])
    K, ok = rescaled_curvature(base, w, points, r_values, frames)
    want_K, want_ok = rescaled_curvature(base, w, points, r_values, frames,
                                         plane_curvature=per_plane)
    np.testing.assert_array_equal(K, want_K)
    np.testing.assert_array_equal(ok, want_ok)
    if base.sectional_at is not None:
        read = base.sectional_at(points[:, None, None], frames[..., 0, :], frames[..., 1, :])
        np.testing.assert_array_equal(np.broadcast_to(read, per_plane.shape), per_plane)


def test_negativity_check_requires_a_unit_direction():
    half = wg.poincare_half_plane()
    one = wg.WarpField.constant(1.0, 2)
    with pytest.raises(InputError):
        negativity_check(half, one, 0.0, np.array([0.0, 2.0]), np.array([0.0, 1.0]), -1.0)
