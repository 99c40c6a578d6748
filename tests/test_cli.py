"""Command-line driver, exercised in process through ``main(argv)``."""

import dataclasses
import json
import math
import warnings

import numpy as np
import pytest
import yaml

import warpgeo as wg
from warpgeo import __version__, cli, reparam
from warpgeo.cli import main
from warpgeo.errors import ChartDomainError
from warpgeo.manifold import metrics_at


def run_task(tmp_path, doc, *extra, out_name="out"):
    """Run ``doc``, a config mapping or the text of a config file."""
    cfg = tmp_path / "task.yaml"
    cfg.write_text(doc if isinstance(doc, str) else yaml.safe_dump(doc))
    out = tmp_path / out_name
    code = main(["--config", str(cfg), "--out", str(out), *extra])
    return code, out


def report_of(out):
    with open(out / "report.json") as fh:
        return json.load(fh)


HYPERBOLIC_INTEGRATE = {
    "task": "integrate",
    "base_chart": {"name": "poincare_half_plane"},
    "integrator": {"steps": 256},
    "integrate": {"point": [0.0, 1.0], "velocity": [1.0, 0.0]},
}

TRIVIAL_PRODUCT = {
    "base_chart": {"name": "euclidean", "dim": 1},
    "fiber_chart": {"name": "euclidean", "dim": 1},
    "warp": {"expression": "1", "k0": 1.0, "K0": 1.0},
    "integrator": {"steps": 256},
}


def test_integrate_task_writes_all_artifacts(tmp_path, capsys):
    code, out = run_task(tmp_path, HYPERBOLIC_INTEGRATE)
    assert code == 0
    for name in ("curve.csv", "report.json", "summary.txt"):
        assert (out / name).exists()
    report = report_of(out)
    np.testing.assert_allclose(
        report["endpoint"], [math.tanh(1.0), 1.0 / math.cosh(1.0)], atol=1e-9
    )
    assert report["geodesic_residual"] <= 1e-8
    assert report["speed_drift"] <= 1e-10
    summary = (out / "summary.txt").read_text()
    assert "256 steps" in summary
    assert capsys.readouterr().out == summary


def test_integrate_on_the_rescaled_chart(tmp_path):
    doc = {
        "task": "integrate",
        "base_chart": {"name": "euclidean", "dim": 1},
        "warp": {"expression": "2", "k0": 2.0, "K0": 2.0},
        "integrator": {"steps": 64},
        "integrate": {"chart": "rescaled", "r": 0.5,
                      "point": [0.0], "velocity": [1.0]},
    }
    code, out = run_task(tmp_path, doc)
    assert code == 0
    report = report_of(out)
    assert report["chart"].startswith("conformal(")
    np.testing.assert_allclose(report["endpoint"], [1.0], atol=1e-12)


def test_connect_task_recovers_the_closed_form_parameter(tmp_path):
    doc = dict(TRIVIAL_PRODUCT, task="connect", connect={
        "x0": [0.0], "y0": [0.0], "x1": [1.0], "y1": [0.5],
    })
    code, out = run_task(tmp_path, doc, "--quiet")
    assert code == 0
    report = report_of(out)
    assert abs(report["r"] - 3.0) <= 1e-6
    assert report["beta"] == pytest.approx(0.5, abs=1e-9)
    assert report["endpoint_error"] <= 1e-6
    assert report["norm_identities"] is not None
    for name in ("mu.csv", "nu.csv", "gamma.csv", "tau.csv"):
        assert (out / name).exists()


def test_a_connection_with_coinciding_fiber_end_points_evaluates_no_dial(tmp_path):
    doc = {
        "task": "connect",
        "base_chart": {"name": "poincare_half_plane"},
        "fiber_chart": {"name": "circle", "radius": 1.0},
        "warp": {"expression": "2 + 0.5*sin(2*x1)", "k0": 1.5, "K0": 2.5},
        "integrator": {"steps": 64},
        "connect": {"x0": [0.0, 1.0], "y0": [0.0], "x1": [1.2, 0.7], "y1": [0.0]},
    }
    code, out = run_task(tmp_path, doc, "--quiet")
    assert code == 0
    report = report_of(out)
    assert report["r"] is None and report["iterations"] == 0
    assert ", no Newton steps\n" in (out / "summary.txt").read_text()


def test_a_connection_of_nearby_fiber_end_points_is_no_trivial_success(tmp_path):
    # 2e-5 apart is not coinciding (that is within 1e-12 absolute), and no
    # r carries the fiber that little way
    doc = {
        "task": "connect",
        "base_chart": {"name": "poincare_half_plane"},
        "fiber_chart": {"name": "circle", "radius": 1.0},
        "warp": {"expression": "2 + 0.5*sin(2*x1)", "k0": 1.5, "K0": 2.5},
        "integrator": {"steps": 64},
        "connect": {"x0": [0.0, 1.0], "y0": [3.0], "x1": [1.2, 0.7],
                    "y1": [3.00002]},
    }
    code, out = run_task(tmp_path, doc, "--quiet")
    assert code == 3
    with open(out / "error.json") as fh:
        error = json.load(fh)
    assert error["error"] == "BracketingError"
    assert error["message"] == ("no sign change: beta stayed above 2e-05 "
                                "up to r = 1e+06")


def test_beta_scan_matches_the_closed_form(tmp_path):
    doc = dict(TRIVIAL_PRODUCT, task="beta-scan")
    doc["beta_scan"] = {"r_values": [0.0, 3.0, 8.0, 99.0], "x0": 0.0, "x1": 1.0}
    code, out = run_task(tmp_path, doc, "--quiet")
    assert code == 0
    table = np.loadtxt(out / "beta.csv", delimiter=",", skiprows=1)
    assert table.shape == (4, 5)  # r, beta, a_r, b_r, iterations
    np.testing.assert_allclose(table[:, 0], [0.0, 3.0, 8.0, 99.0])
    np.testing.assert_allclose(
        table[:, 1], 1.0 / np.sqrt(1.0 + table[:, 0]), rtol=1e-9
    )
    report = report_of(out)
    assert report["strictly_decreasing"] is True
    assert report["range_ratio"] == pytest.approx(10.0, rel=1e-9)


def test_beta_scan_rejects_an_empty_grid(tmp_path):
    doc = dict(TRIVIAL_PRODUCT, task="beta-scan")
    doc["beta_scan"] = {"r_values": [], "x0": 0.0, "x1": 1.0}
    code, out = run_task(tmp_path, doc, "--quiet")
    assert code == 2
    with open(out / "error.json") as fh:
        assert "non-empty" in json.load(fh)["message"]


CURVATURE_SCAN = {
    "task": "curvature-scan",
    "seed": 7,
    "base_chart": {"name": "poincare_half_plane"},
    "warp": {"expression": "2 + 0.1*sin(x1)", "k0": 1.9, "K0": 2.1},
    "curvature_scan": {
        "r_values": [0.0, 1.0],
        "planes": 1,
        "grid": {"mins": [-1.0, 0.5], "maxs": [1.0, 2.0], "counts": [3, 3]},
    },
}


def test_curvature_scan_reports_negativity(tmp_path):
    code, out = run_task(tmp_path, CURVATURE_SCAN, "--quiet")
    assert code == 0
    report = report_of(out)
    assert report["samples"] == 18
    assert report["all_negative"] is True
    assert report["criterion_everywhere"] is True
    assert report["max_curvature"] < 0.0
    table = np.loadtxt(out / "curvature.csv", delimiter=",", skiprows=1)
    assert table.shape == (18, 5)


def _random_orthonormal_plane(g, rng):
    """Two random vectors made orthonormal for ``g``, redrawn until not
    degenerate: the scan's draw, one sample at a time."""
    for _ in range(64):
        raw = rng.standard_normal((2, len(g)))
        e1 = raw[0] / math.sqrt(raw[0] @ g @ raw[0])
        e2 = raw[1] - (raw[1] @ g @ e1) * e1
        n2 = e2 @ g @ e2
        if n2 > 1e-12:
            return e1, e2 / math.sqrt(n2)
    raise AssertionError("no orthonormal plane")


BALL_SCAN = {
    "task": "curvature-scan",
    "seed": 11,
    "base_chart": {"name": "poincare_ball", "dim": 3},
    "warp": {"expression": "2 + 0.3*sin(2*x1)*cos(x2 + x3)", "k0": 1.7, "K0": 2.3},
    "curvature_scan": {
        "r_values": [-0.2, 0.5, 3.0],
        "planes": 2,
        "grid": {"mins": [-0.5, -0.4, -0.3], "maxs": [0.4, 0.5, 0.3], "counts": [3, 2, 2]},
    },
}


@pytest.mark.parametrize("doc", [
    dict(CURVATURE_SCAN, curvature_scan=dict(CURVATURE_SCAN["curvature_scan"], planes=3)),
    BALL_SCAN,
], ids=["half_plane", "ball3"])
def test_curvature_scan_matches_a_loop_over_the_scalar_functions(tmp_path, doc):
    code, out = run_task(tmp_path, doc, "--quiet")
    assert code == 0
    table = np.loadtxt(out / "curvature.csv", delimiter=",", skiprows=1)
    tc = cli.TaskConfig(doc)
    g1, w, p = tc.base, tc.warp, doc["curvature_scan"]
    grid = p["grid"]
    axes = [np.linspace(*bounds) for bounds in zip(grid["mins"], grid["maxs"], grid["counts"])]
    rng = np.random.default_rng(doc["seed"])
    rows = []
    for point in np.stack([m.ravel() for m in np.meshgrid(*axes, indexing="ij")], axis=-1):
        for r in p["r_values"]:
            for _ in range(p["planes"]):
                e1, e2 = _random_orthonormal_plane(metrics_at(g1, point)[0], rng)
                base_K = wg.sectional_curvature(g1, point, e1, e2)
                ok = (wg.negativity_check(g1, w, r, point, e1, base_K)
                      and wg.negativity_check(g1, w, r, point, e2, base_K))
                K = wg.sectional_curvature_conformal(g1, w, r, point, e1, e2)
                rows.append([*point, r, K, float(ok)])
    want = np.array(rows)
    assert table.shape == want.shape
    columns = [i for i in range(want.shape[1]) if i != want.shape[1] - 2]
    np.testing.assert_array_equal(table[:, columns], want[:, columns])
    np.testing.assert_allclose(table[:, -2], want[:, -2], rtol=0.0, atol=1e-12)


def test_curvature_scan_evaluates_the_warp_once_per_grid_point(tmp_path, monkeypatch):
    from warpgeo import warpfn
    calls = []

    def counted(expr, point, _eval2=warpfn.eval2):
        calls.append(tuple(point))
        return _eval2(expr, point)

    monkeypatch.setattr(warpfn, "eval2", counted)
    code, _ = run_task(tmp_path, dict(CURVATURE_SCAN, curvature_scan=dict(
        CURVATURE_SCAN["curvature_scan"], planes=2)), "--quiet")
    assert code == 0
    assert len(calls) == len(set(calls)) == 9


def test_curvature_scan_reads_the_base_curvature_in_one_call(tmp_path, monkeypatch):
    chart = wg.poincare_half_plane()
    shapes = []

    def counted(points, e1, e2):
        shapes.append(np.broadcast_shapes(points.shape, e1.shape, e2.shape))
        return chart.sectional_at(points, e1, e2)

    monkeypatch.setattr(cli, "poincare_half_plane",
                        lambda: dataclasses.replace(chart, sectional_at=counted))
    code, _ = run_task(tmp_path, dict(CURVATURE_SCAN, curvature_scan=dict(
        CURVATURE_SCAN["curvature_scan"], planes=2)), "--quiet")
    assert code == 0
    assert shapes == [(9, 2, 2, 2)]  # points, r values, planes, coordinates


def _beta_scan(**params):
    return dict(TRIVIAL_PRODUCT, task="beta-scan",
                beta_scan={"x0": 0.0, "x1": 1.0, **params})


def _curvature_scan(grid=None, **params):
    doc = json.loads(json.dumps(CURVATURE_SCAN))
    doc["curvature_scan"].update(params)
    doc["curvature_scan"]["grid"].update(grid or {})
    return doc


@pytest.mark.parametrize("doc,key", [
    (_beta_scan(samples=1), "beta_scan.samples"),
    (_beta_scan(samples=0), "beta_scan.samples"),
    (_beta_scan(samples=math.nan), "beta_scan.samples"),
    (_beta_scan(r_values=[0.5, "one"]), "beta_scan.r_values"),
    (_beta_scan(r_values=[0.5, None]), "beta_scan.r_values"),
    (_curvature_scan(r_values=["one"]), "curvature_scan.r_values"),
    (_curvature_scan(r_values=0.5), "curvature_scan.r_values"),
    (_curvature_scan(grid={"counts": [3, 0]}), "curvature_scan.grid.counts"),
    (_curvature_scan(grid={"counts": [3, math.inf]}), "curvature_scan.grid.counts"),
    (_curvature_scan(planes=0), "curvature_scan.planes"),
    (dict(CURVATURE_SCAN, base_chart={"name": "euclidean", "dim": 1}), "base_chart"),
    (_curvature_scan(grid={"mins": [-1.0, math.nan]}), "curvature_scan.grid"),
    (_curvature_scan(grid={"mins": [-1.0, -0.5]}), "curvature_scan.grid"),
], ids=["samples_1", "samples_0", "samples_nan", "beta_r_word", "beta_r_null",
        "curvature_r_word", "curvature_r_scalar", "counts_0", "counts_inf", "planes_0",
        "curvature_on_a_line", "grid_nan", "grid_off_the_chart"])
def test_sampling_tasks_reject_a_grid_they_cannot_sample(tmp_path, doc, key):
    code, out = run_task(tmp_path, doc, "--quiet")
    assert code == 2
    with open(out / "error.json") as fh:
        assert key in json.load(fh)["message"]
    assert not (out / "beta.csv").exists()
    assert not (out / "curvature.csv").exists()


def test_flrw_task_cross_checks_the_general_path(tmp_path):
    doc = dict(TRIVIAL_PRODUCT, task="flrw", flrw={
        "t0": 0.0, "t1": 2.0, "y0": [0.0], "y1": [1.0], "cross_check": True,
    })
    code, out = run_task(tmp_path, doc, "--quiet")
    assert code == 0
    report = report_of(out)
    assert abs(report["r"] - 3.0) <= 1e-8
    assert report["first_integral_residual"] <= 1e-8
    assert abs(report["cross_check_r"] - report["r"]) <= 1e-8


def test_partial_connect_task_reports_both_dial_readings(tmp_path):
    doc = dict(TRIVIAL_PRODUCT, task="partial-connect")
    doc["partial_connect"] = {
        "r": 3.0, "alpha": 0.7,
        "x0": [0.0], "X0": [1.0], "y0": [0.0], "Y0": [0.5],
    }
    code, out = run_task(tmp_path, doc, "--quiet")
    assert code == 0
    report = report_of(out)
    assert report["beta_plus"] == pytest.approx(0.35, rel=1e-9)
    assert report["beta_minus"] == pytest.approx(-0.35, rel=1e-9)
    theta = report["theta"]
    assert theta["beta_displayed"] == pytest.approx(0.7, rel=1e-9)
    assert theta["beta_compat"] == pytest.approx(0.35, rel=1e-9)
    assert theta["relative_gap"] == pytest.approx(0.5, rel=1e-9)
    summary = (out / "summary.txt").read_text()
    assert "disagree" in summary


def test_malformed_warp_expression_fails_with_offset(tmp_path):
    doc = dict(TRIVIAL_PRODUCT, task="connect", connect={
        "x0": [0.0], "y0": [0.0], "x1": [1.0], "y1": [0.5],
    })
    doc["warp"] = {"expression": "2 + sin(", "k0": 1.0}
    code, out = run_task(tmp_path, doc, "--quiet")
    assert code == 2
    with open(out / "error.json") as fh:
        payload = json.load(fh)
    assert payload["offset"] == 8
    assert not (out / "report.json").exists()


def test_status_files_track_the_latest_run(tmp_path):
    # A failed run followed by a successful one into the same directory must
    # not leave a stale error.json behind, and the reverse must not leave a
    # stale report.json: consumers key off which status file exists.
    good = dict(HYPERBOLIC_INTEGRATE)
    bad = dict(HYPERBOLIC_INTEGRATE, integrate={"velocity": [1.0, 0.0]})

    code, out = run_task(tmp_path, bad, "--quiet")
    assert code == 2 and (out / "error.json").exists()
    code, _ = run_task(tmp_path, good, "--quiet")
    assert code == 0
    assert (out / "report.json").exists()
    assert not (out / "error.json").exists()

    code, _ = run_task(tmp_path, bad, "--quiet")
    assert code == 2
    assert (out / "error.json").exists()
    assert not (out / "report.json").exists()
    assert not (out / "summary.txt").exists()


def test_domain_exit_is_a_numerical_failure(tmp_path):
    doc = {
        "task": "integrate",
        "base_chart": {"name": "sphere"},
        "integrator": {"steps": 64},
        "integrate": {"point": [math.pi / 2.0, 0.0], "velocity": [2.0, 0.0]},
    }
    code, out = run_task(tmp_path, doc, "--quiet")
    assert code == 3
    with open(out / "error.json") as fh:
        payload = json.load(fh)
    assert payload["error"] == "ChartDomainError"
    assert "sphere" in payload["chart"]
    assert 0.5 < payload["t_exit"] <= 1.0


@pytest.mark.parametrize("warp, point, velocity", [
    # x1^3 overflows a float within the first step
    ({"expression": "2 + 0.5*sin(x1^3)", "k0": 1.5, "K0": 2.5}, [1.2, 0.3], [1e150, 0.0]),
    # a stage crosses into x1 < 0, where sqrt(x1) is undefined
    ({"expression": "2 + sqrt(x1)", "k0": 2.0, "K0": 3.0}, [0.5, 0.0], [-2.0, 0.0]),
], ids=["overflow", "square-root"])
def test_a_step_that_fails_in_floats_is_a_domain_exit(tmp_path, warp, point, velocity):
    doc = {
        "task": "integrate",
        "base_chart": {"name": "euclidean", "dim": 2},
        "warp": warp,
        "integrator": {"steps": 16},
        "integrate": {"chart": "rescaled", "r": 0.5, "point": point,
                      "velocity": velocity},
    }
    code, out = run_task(tmp_path, doc, "--quiet")
    assert code == 3
    with open(out / "error.json") as fh:
        payload = json.load(fh, parse_constant=_no_constant)
    assert payload["error"] == "ChartDomainError"
    assert payload["condition"] == "a finite state"
    # the state is NaN, which JSON writes as null
    assert payload["point"] == [None, None]


def _no_constant(name):
    raise ValueError(f"{name} is not JSON")


@pytest.mark.parametrize("cross_check", [False, True])
def test_flrw_with_coinciding_fiber_points_is_the_trivial_connection(tmp_path,
                                                                     cross_check):
    # the trivial connection has no r and no first-integral residual
    doc = dict(TRIVIAL_PRODUCT, task="flrw", flrw={
        "t0": 0.0, "t1": 2.0, "y0": [0.5], "y1": [0.5], "cross_check": cross_check,
    })
    code, out = run_task(tmp_path, doc, "--quiet")
    assert code == 0
    report = report_of(out)
    assert report["r"] is None
    assert "first_integral_residual" not in report
    assert ("cross_check_r" in report) == cross_check
    assert "first-integral residual" not in (out / "summary.txt").read_text()


def test_a_warp_above_its_declared_bound_is_a_numerical_failure(tmp_path):
    # the warp exceeds its declared K0 (its maximum is 2.5), so the walk
    # toward the threshold reaches an r where 1 + r k < 0 on the line: the
    # error names it, and no numpy warning is printed
    doc = {
        "task": "flrw",
        "base_chart": {"name": "euclidean", "dim": 1},
        "fiber_chart": {"name": "euclidean", "dim": 1},
        "warp": {"expression": "2 + 0.5*sin(2*x1)", "k0": 1.5, "K0": 2.2},
        "integrator": {"steps": 256},
        "flrw": {"t0": 0.0, "t1": 6.0, "y0": [0.0], "y1": [40.0]},
    }
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out = run_task(tmp_path, doc, "--quiet")
    assert code == 3
    assert not (out / "report.json").exists()
    with open(out / "error.json") as fh:
        payload = json.load(fh)
    assert payload["error"] == "NumericalError"
    assert "at r = -0.4318" in payload["message"]
    assert "[k0, K0] = [1.5, 2.2]" in payload["message"]


def test_a_curvature_scan_past_the_warps_declared_bound_is_a_numerical_failure(tmp_path):
    # k reaches 2.5 at x1 = pi/4, above the declared K0 = 2.2, so the
    # admissible r = -0.44 makes 1 + r k negative inside the window
    doc = dict(CURVATURE_SCAN, base_chart={"name": "euclidean", "dim": 2},
               warp={"expression": "2 + 0.5*sin(2*x1)", "k0": 1.5, "K0": 2.2})
    doc["curvature_scan"] = dict(CURVATURE_SCAN["curvature_scan"], r_values=[-0.44],
                                 grid={"mins": [0.0, 0.0], "maxs": [1.5, 1.0],
                                       "counts": [3, 2]})
    code, out = run_task(tmp_path, doc, "--quiet")
    assert code == 3
    assert not (out / "report.json").exists()
    with open(out / "error.json") as fh:
        payload = json.load(fh)
    assert payload["error"] == "NumericalError"
    assert "at [0.75, 0.0]" in payload["message"]
    assert "r = -0.44" in payload["message"]


def test_missed_end_point_is_a_numerical_failure(tmp_path):
    # the README instance at 64 steps misses x1 by 1.36e-11
    doc = {
        "task": "connect",
        "base_chart": {"name": "poincare_half_plane"},
        "fiber_chart": {"name": "circle", "radius": 1.0},
        "warp": {"expression": "2 + 0.5*sin(2*x1)", "k0": 1.5, "K0": 2.5},
        "integrator": {"steps": 64, "tolerance": 1.0e-11},
        "connect": {"x0": [0.0, 1.0], "y0": [0.0], "x1": [1.2, 0.7], "y1": [0.4]},
    }
    code, out = run_task(tmp_path, doc, "--quiet")
    assert code == 3
    assert not (out / "report.json").exists()
    with open(out / "error.json") as fh:
        payload = json.load(fh)
    assert payload["error"] == "ShootingError"
    assert payload["residual"] == pytest.approx(1.357e-11, rel=0.01)


@pytest.mark.parametrize("key, value, said", [
    ("samples", 2, "after 2 Newton steps"),
    ("r_max", 0.01, "up to r = 0.01"),
])
def test_connect_hands_its_bracketing_controls_to_the_solve(tmp_path, key, value, said):
    # the README instance at 64 steps solves for its root with neither bound
    doc = {
        "task": "connect",
        "base_chart": {"name": "poincare_half_plane"},
        "fiber_chart": {"name": "circle", "radius": 1.0},
        "warp": {"expression": "2 + 0.5*sin(2*x1)", "k0": 1.5, "K0": 2.5},
        "integrator": {"steps": 64},
        "connect": {"x0": [0.0, 1.0], "y0": [0.0], "x1": [1.2, 0.7], "y1": [0.4],
                    key: value},
    }
    code, out = run_task(tmp_path, doc, "--quiet")
    assert code == 3
    with open(out / "error.json") as fh:
        error = json.load(fh)
    assert error["error"] == "BracketingError" and said in error["message"]


# ---------------------------------------------------------------------------
# a line base is described by base_chart alone

LINE_PRODUCT = {
    "fiber_chart": {"name": "euclidean", "dim": 1},
    "warp": {"expression": "2 + sin(x1)", "k0": 1.0, "K0": 3.0},
    "integrator": {"steps": 256},
}
CIRCLE = {"name": "circle", "radius": 2.0}
WEIGHTED = {"name": "weighted_line", "weight": "(1 + t)^2"}


@pytest.mark.parametrize("base, chart", [
    (CIRCLE, wg.circle(2.0)),
    (WEIGHTED, wg.weighted_line("(1 + t)^2")),
], ids=["circle", "weighted_line"])
def test_beta_scan_reads_the_line_from_the_base_chart(tmp_path, base, chart):
    doc = dict(LINE_PRODUCT, task="beta-scan", base_chart=base,
               beta_scan={"r_values": [0.5, 2.0], "x0": 0.0, "x1": 1.0})
    code, out = run_task(tmp_path, doc, "--quiet")
    assert code == 0
    table = np.loadtxt(out / "beta.csv", delimiter=",", skiprows=1)
    w = wg.WarpField.from_expression("2 + sin(x1)", 1, 1.0, 3.0)
    cfg = wg.IntegratorConfig(steps=256)
    for r, beta in table[:, :2]:
        shot = wg.beta_of_r(chart, wg.euclidean(1), w, [0.0], [1.0], r, cfg)
        assert beta == pytest.approx(shot.beta, rel=1e-8)


def test_beta_scan_on_a_line_with_coinciding_end_points_is_an_input_error(tmp_path):
    doc = dict(LINE_PRODUCT, task="beta-scan", base_chart={"name": "euclidean", "dim": 1},
               beta_scan={"r_values": [0.5, 2.0], "x0": 2.0, "x1": 2.0})
    code, out = run_task(tmp_path, doc, "--quiet")
    assert code == 2
    assert not (out / "report.json").exists()
    with open(out / "error.json") as fh:
        payload = json.load(fh)
    assert payload["error"] == "InputError"
    assert "base endpoints coincide" in payload["message"]


@pytest.mark.parametrize("base", [CIRCLE, WEIGHTED], ids=["circle", "weighted_line"])
def test_flrw_reads_the_line_from_the_base_chart(tmp_path, base):
    doc = dict(LINE_PRODUCT, task="flrw", base_chart=base, integrator={"steps": 512},
               flrw={"t0": 0.0, "t1": 2.0, "y0": [0.0], "y1": [0.5],
                     "cross_check": True})
    code, out = run_task(tmp_path, doc, "--quiet")
    assert code == 0
    report = report_of(out)
    assert report["cross_check_r"] == pytest.approx(report["r"], rel=1e-8)
    assert report["norm_identities"]["base_norm_error"] <= 1e-6


@pytest.mark.parametrize("task, base, key", [
    ("flrw", {"name": "euclidean", "dim": 1}, "weight"),
    ("beta-scan", {"name": "euclidean", "dim": 1}, "weight"),
    ("beta-scan", CIRCLE, "first_integral"),
], ids=["flrw_weight", "beta_scan_weight", "beta_scan_first_integral"])
def test_retired_line_keys_are_rejected(tmp_path, task, base, key):
    section = task.replace("-", "_")
    params = {"x0": 0.0, "x1": 1.0, "r_values": [0.5]} if task == "beta-scan" else {
        "t0": 0.0, "t1": 2.0, "y0": [0.0], "y1": [0.5]}
    doc = dict(LINE_PRODUCT, task=task, base_chart=base,
               **{section: dict(params, **{key: "(1 + t)^2" if key == "weight" else False})})
    code, out = run_task(tmp_path, doc, "--quiet")
    assert code == 2
    with open(out / "error.json") as fh:
        message = json.load(fh)["message"]
    assert f"{section}.{key}" in message and "base_chart" in message


def test_a_weight_literal_too_large_for_a_float_is_an_input_error(tmp_path):
    # read as inf, the weight made the chart a flat line (phi = inf)
    doc = dict(LINE_PRODUCT, task="flrw",
               base_chart={"name": "weighted_line", "weight": "WEIGHT"},
               flrw={"t0": 0.0, "t1": 2.0, "y0": [0.0], "y1": [0.5]})
    text = yaml.safe_dump(doc).replace("WEIGHT", '"1e400"')
    code, out = run_task(tmp_path, text, "--quiet")
    assert code == 2
    with open(out / "error.json") as fh:
        payload = json.load(fh)
    assert payload["error"] == "DslSyntaxError" and "1e400" in payload["message"]


def test_a_weight_that_overflows_to_a_constant_infinity_writes_no_curve(tmp_path):
    # the chart is refused where it is made, before the task writes a curve
    doc = dict(INTEGRATE_FLAT, base_chart={"name": "weighted_line",
                                           "weight": "1e300*1e300"},
               integrate={"point": [0.3], "velocity": [2.0]})
    code, out = run_task(tmp_path, doc, "--quiet")
    assert code == 3
    assert sorted(p.name for p in out.iterdir()) == ["error.json"]
    with open(out / "error.json") as fh:
        payload = json.load(fh)
    assert payload["error"] == "NumericalError" and "not finite" in payload["message"]


def test_flrw_on_a_base_that_is_not_a_line_is_an_input_error(tmp_path):
    doc = dict(LINE_PRODUCT, task="flrw", base_chart={"name": "poincare_half_plane"},
               flrw={"t0": 0.0, "t1": 2.0, "y0": [0.0], "y1": [0.5]})
    code, out = run_task(tmp_path, doc, "--quiet")
    assert code == 2
    with open(out / "error.json") as fh:
        assert "not a line base" in json.load(fh)["message"]


# ---------------------------------------------------------------------------
# config numbers

INTEGRATE_FLAT = {
    "task": "integrate",
    "base_chart": {"name": "euclidean", "dim": 2},
    "integrator": {"steps": 64},
    "integrate": {"point": [0.0, 0.0], "velocity": [1.0, 0.0]},
}
CONNECT_LINE = dict(TRIVIAL_PRODUCT, task="connect", connect={
    "x0": [0.0], "y0": [0.0], "x1": [1.0], "y1": [0.5],
})


@pytest.mark.parametrize("doc, key", [
    (dict(CURVATURE_SCAN, seed=-1), "config.seed"),
    (dict(INTEGRATE_FLAT, integrator={"steps": math.nan}), "integrator.steps"),
    (dict(INTEGRATE_FLAT, base_chart={"name": "euclidean", "dim": math.inf}),
     "base_chart.dim"),
    (dict(CONNECT_LINE, connect=dict(CONNECT_LINE["connect"], samples=1)),
     "connect.samples"),
    (dict(CONNECT_LINE, connect=dict(CONNECT_LINE["connect"], samples=math.nan)),
     "connect.samples"),
], ids=["seed_negative", "steps_nan", "dim_inf", "samples_1", "samples_nan"])
def test_counts_out_of_range_are_input_errors(tmp_path, doc, key):
    code, out = run_task(tmp_path, doc, "--quiet")
    assert code == 2
    with open(out / "error.json") as fh:
        assert key in json.load(fh)["message"]


@pytest.mark.parametrize("doc, key", [
    (dict(CONNECT_LINE, connect=dict(CONNECT_LINE["connect"], x1=[math.nan])),
     "connect.x1"),
    (dict(INTEGRATE_FLAT, integrate={"point": [0.0, math.nan], "velocity": [1.0, 0.0]}),
     "integrate.point"),
    (dict(TRIVIAL_PRODUCT, task="flrw",
          flrw={"t0": math.nan, "t1": 2.0, "y0": [0.0], "y1": [0.5]}), "flrw.t0"),
    (dict(CONNECT_LINE, connect=dict(CONNECT_LINE["connect"], r_max=math.inf)),
     "connect.r_max"),
    (dict(CONNECT_LINE, integrator={"steps": 64, "tolerance": math.inf}),
     "integrator.tolerance"),
], ids=["x1_nan", "point_nan", "t0_nan", "r_max_inf", "tolerance_inf"])
def test_non_finite_numbers_are_input_errors(tmp_path, doc, key):
    code, out = run_task(tmp_path, doc, "--quiet")
    assert code == 2
    with open(out / "error.json") as fh:
        assert key in json.load(fh)["message"]


@pytest.mark.parametrize("base, key", [
    ({"name": "circle", "radius": math.nan}, "radius"),
    ({"name": "sphere", "dim": 1, "radius": math.inf}, "radius"),
    ({"name": "weighted_line", "weight": 4}, "base_chart.weight"),
], ids=["circle_radius_nan", "sphere_radius_inf", "weight_not_text"])
def test_chart_parameters_of_the_wrong_kind_are_input_errors(tmp_path, base, key):
    doc = dict(INTEGRATE_FLAT, base_chart=base,
               integrate={"point": [0.0], "velocity": [1.0]})
    code, out = run_task(tmp_path, doc, "--quiet")
    assert code == 2
    with open(out / "error.json") as fh:
        assert key in json.load(fh)["message"]
    assert not (out / "report.json").exists()


@pytest.mark.parametrize("doc, key", [
    (dict(CONNECT_LINE, connect=dict(CONNECT_LINE["connect"], samples=None)),
     "connect.samples"),
    (dict(CONNECT_LINE, connect=dict(CONNECT_LINE["connect"], r_max=None)),
     "connect.r_max"),
    (dict(CONNECT_LINE, warp={"expression": "1", "k0": 1.0, "K0": None}), "warp.K0"),
    (dict(INTEGRATE_FLAT, integrator={"steps": None}), "integrator.steps"),
    (dict(INTEGRATE_FLAT, integrate={"point": None, "velocity": [1.0, 0.0]}),
     "integrate.point"),
], ids=["samples", "r_max", "K0", "steps", "point"])
def test_null_values_are_input_errors(tmp_path, doc, key):
    code, out = run_task(tmp_path, doc, "--quiet")
    assert code == 2
    with open(out / "error.json") as fh:
        message = json.load(fh)["message"]
    assert key in message and "null" in message
    assert not (out / "report.json").exists()


@pytest.mark.parametrize("doc, key", [
    (dict(INTEGRATE_FLAT, base_chart=["name"]), "config.base_chart"),
    (dict(INTEGRATE_FLAT, integrator=["steps"]), "config.integrator"),
    (dict(CONNECT_LINE, warp=["expression"]), "config.warp"),
    (dict(CONNECT_LINE, fiber_chart="name"), "config.fiber_chart"),
    (dict(CONNECT_LINE, connect=["x0"]), "config.connect"),
    (dict(CURVATURE_SCAN, curvature_scan=dict(CURVATURE_SCAN["curvature_scan"],
                                              grid=["mins"])), "curvature_scan.grid"),
    (dict(CONNECT_LINE, warp={"expression": 5, "k0": 1.0}), "warp.expression"),
], ids=["base_chart", "integrator", "warp", "fiber_chart", "task_section", "grid",
        "expression"])
def test_sections_of_the_wrong_kind_are_input_errors(tmp_path, doc, key):
    code, out = run_task(tmp_path, doc, "--quiet")
    assert code == 2
    with open(out / "error.json") as fh:
        assert key in json.load(fh)["message"]
    assert not (out / "report.json").exists()


FLAG_TASKS = {
    "riemannize": dict(TRIVIAL_PRODUCT, task="riemannize", riemannize={
        "r": 3.0, "x0": [0.0], "X0": [1.0], "y0": [0.0], "Y0": [0.5],
        "fit_fiber_speed": True}),
    "flrw": dict(TRIVIAL_PRODUCT, task="flrw", flrw={
        "t0": 0.0, "t1": 2.0, "y0": [0.0], "y1": [1.0]}),
    "partial_connect": dict(TRIVIAL_PRODUCT, task="partial-connect", partial_connect={
        "r": 3.0, "alpha": 0.7, "x0": [0.0], "X0": [1.0], "y0": [0.0], "Y0": [0.5]}),
}


@pytest.mark.parametrize("section, key", [
    ("riemannize", "fit_fiber_speed"), ("riemannize", "oracle_check"),
    ("flrw", "cross_check"), ("partial_connect", "theta"),
])
@pytest.mark.parametrize("value, words", [
    (None, "null"), ("false", "true or false"), (0, "true or false"),
], ids=["null", "text", "number"])
def test_flags_are_booleans(tmp_path, section, key, value, words):
    doc = json.loads(json.dumps(FLAG_TASKS[section]))
    doc[section][key] = value
    code, out = run_task(tmp_path, doc, "--quiet")
    assert code == 2
    with open(out / "error.json") as fh:
        message = json.load(fh)["message"]
    assert f"{section}.{key}" in message and words in message


def test_a_false_flag_skips_its_check(tmp_path):
    doc = json.loads(json.dumps(FLAG_TASKS["riemannize"]))
    doc["riemannize"]["oracle_check"] = False
    code, out = run_task(tmp_path, doc, "--quiet")
    assert code == 0 and "oracle_deviation" not in report_of(out)
    doc["riemannize"]["oracle_check"] = True
    code, out = run_task(tmp_path, doc, "--quiet", out_name="checked")
    assert code == 0 and "oracle_deviation" in report_of(out)


@pytest.mark.parametrize("doc, key", [
    (dict(CONNECT_LINE, connect=dict(CONNECT_LINE["connect"], r_max=-3.0)), "r_max"),
    (_beta_scan(r_max=-5.0), "beta_scan.r_max"),
], ids=["connect", "beta_scan"])
def test_an_r_max_below_the_threshold_is_a_parameter_error(tmp_path, doc, key):
    code, out = run_task(tmp_path, doc, "--quiet")
    assert code == 2
    with open(out / "error.json") as fh:
        payload = json.load(fh)
    assert key in payload["message"] and payload["r"] < payload["lower"]


CONNECT_TEXT = """\
task: connect
base_chart: {name: euclidean, dim: 1}
fiber_chart: {name: euclidean, dim: 1}
warp: {expression: "1", k0: 1.0, K0: 1.0}
integrator: {steps: 256, tolerance: TOLERANCE}
connect: {x0: [0.0], y0: [0.0], x1: [1.0], y1: [0.5], r_max: 1.0e6}
"""


def test_exponent_floats_are_read_as_numbers(tmp_path):
    code, out = run_task(tmp_path, CONNECT_TEXT.replace("TOLERANCE", "1e-4"), "--quiet")
    assert code == 0
    assert abs(report_of(out)["r"] - 3.0) <= 1e-6
    quoted = CONNECT_TEXT.replace("TOLERANCE", "'1e-4'")
    code, out = run_task(tmp_path, quoted, "--quiet", out_name="quoted")
    assert code == 2
    with open(out / "error.json") as fh:
        assert "integrator.tolerance must be a number" in json.load(fh)["message"]


def test_missing_required_key_fails_cleanly(tmp_path):
    doc = {
        "task": "integrate",
        "base_chart": {"name": "euclidean", "dim": 2},
        "integrate": {"velocity": [1.0, 0.0]},
    }
    code, out = run_task(tmp_path, doc, "--quiet")
    assert code == 2
    with open(out / "error.json") as fh:
        payload = json.load(fh)
    assert "integrate.point" in payload["message"]


def test_unknown_task_and_unreadable_config(tmp_path, capsys):
    code, _ = run_task(tmp_path, {"task": "frobnicate",
                                  "base_chart": {"name": "euclidean"}})
    assert code == 2
    assert main(["--config", str(tmp_path / "missing.yaml")]) == 2
    bad = tmp_path / "bad.yaml"
    bad.write_text("a: [unclosed\n")
    assert main(["--config", str(bad), "--out", str(tmp_path / "o2")]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("text", [
    "task: integrate\nbase_chart: {name: euclidean\n",  # unclosed flow
    "task: integrate: euclidean\n",                      # nested plain key
    "task: integrate\n\tbase_chart: {}\n",               # tab indentation
])
def test_malformed_yaml_is_an_input_error(tmp_path, capsys, text):
    bad = tmp_path / "bad.yaml"
    bad.write_text(text)
    assert main(["--config", str(bad), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: malformed YAML")
    assert "Traceback" not in err


def test_repeated_runs_are_byte_identical(tmp_path):
    _, out1 = run_task(tmp_path, HYPERBOLIC_INTEGRATE, "--quiet", out_name="o1")
    _, out2 = run_task(tmp_path, HYPERBOLIC_INTEGRATE, "--quiet", out_name="o2")
    assert (out1 / "curve.csv").read_bytes() == (out2 / "curve.csv").read_bytes()
    assert (out1 / "report.json").read_bytes() == (out2 / "report.json").read_bytes()


FITTED_RIEMANNIZE = {
    "task": "riemannize",
    "base_chart": {"name": "poincare_half_plane"},
    "fiber_chart": {"name": "circle", "radius": 1.0},
    "warp": {"expression": "2 + 0.5*sin(2*x1)", "k0": 1.5, "K0": 2.5},
    "integrator": {"steps": 256},
    "riemannize": {"r": 1.0, "x0": [0.0, 1.0], "X0": [2.0, 0.8],
                   "y0": [0.0], "Y0": [1.0], "fit_fiber_speed": True},
}

CSV_TASKS = {
    "integrate": (HYPERBOLIC_INTEGRATE, ["curve.csv"]),
    "riemannize": (FITTED_RIEMANNIZE, ["mu.csv", "nu.csv", "gamma.csv", "tau.csv"]),
    "curvature_scan": (CURVATURE_SCAN, ["curvature.csv"]),
    "beta_scan": (_beta_scan(r_values=[0.0, 3.0, 8.0, 99.0]), ["beta.csv"]),
}


@pytest.mark.parametrize("task", sorted(CSV_TASKS))
def test_every_csv_is_the_savetxt_of_its_read_back(tmp_path, task):
    # the format the CSVs have always had: %.17g, comma-separated, one
    # header line with no comment prefix
    doc, names = CSV_TASKS[task]
    code, out = run_task(tmp_path, doc, "--quiet")
    assert code == 0
    for name in names:
        written = (out / name).read_bytes()
        header = written.decode().partition("\n")[0]
        table = np.loadtxt(out / name, delimiter=",", skiprows=1, ndmin=2)
        np.savetxt(tmp_path / "want.csv", table, fmt="%.17g", delimiter=",",
                   header=header, comments="")
        assert written == (tmp_path / "want.csv").read_bytes(), name


def test_fitted_riemannize_builds_the_base_maps_once(tmp_path, monkeypatch):
    doc = FITTED_RIEMANNIZE
    calls = []
    build = reparam._base_leg

    def counted(*args, **kwargs):
        calls.append(1)
        return build(*args, **kwargs)

    monkeypatch.setattr(reparam, "_base_leg", counted)
    code, _ = run_task(tmp_path, doc, "--quiet")
    assert code == 0 and len(calls) == 1


def test_fitted_riemannize_integrates_each_leg_once(tmp_path, monkeypatch):
    # the fiber leg is integrated once, from the fitted velocity
    calls = []
    integrate = cli.integrate_geodesic

    def counted(chart, p0, v0, cfg):
        calls.append(chart.name)
        return integrate(chart, p0, v0, cfg)

    monkeypatch.setattr(cli, "integrate_geodesic", counted)
    code, _ = run_task(tmp_path, FITTED_RIEMANNIZE, "--quiet")
    assert code == 0 and len(calls) == 2 and calls[1] == wg.circle(1.0).name


def _domain_exit(*args, **kwargs):
    raise ChartDomainError("euclidean2", 0.5, (0.0, 0.0))


@pytest.mark.parametrize("step", ["integrate_coupled_oracle", "norm_identity_errors"])
def test_a_riemannize_that_fails_after_its_rebuild_writes_no_csv(tmp_path, monkeypatch,
                                                                 step):
    # every check runs before the first leg is written, so a failure in the
    # oracle or the norm identities leaves error.json alone in a fresh out dir
    monkeypatch.setattr(cli, step, _domain_exit)
    code, out = run_task(tmp_path, FITTED_RIEMANNIZE, "--quiet")
    assert code == 3
    assert sorted(p.name for p in out.iterdir()) == ["error.json"]


def test_a_flrw_whose_cross_check_fails_writes_no_csv(tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "connect_points", _domain_exit)
    doc = dict(TRIVIAL_PRODUCT, task="flrw", flrw={
        "t0": 0.0, "t1": 2.0, "y0": [0.0], "y1": [1.0], "cross_check": True,
    })
    code, out = run_task(tmp_path, doc, "--quiet")
    assert code == 3
    assert sorted(p.name for p in out.iterdir()) == ["error.json"]


def test_steps_override_wins_over_the_config(tmp_path):
    code, out = run_task(tmp_path, HYPERBOLIC_INTEGRATE, "--quiet", "--steps", "64")
    assert code == 0
    assert "64 steps" in (out / "summary.txt").read_text()
    with open(out / "curve.csv") as fh:
        assert sum(1 for _ in fh) == 66  # header + 65 nodes


def test_one_parser_serves_every_call(tmp_path, capsys):
    # the parser is built once; a flag given to one call is not seen by the next
    assert run_task(tmp_path, HYPERBOLIC_INTEGRATE, "--quiet", "--steps", "64")[0] == 0
    assert capsys.readouterr().out == ""
    code, out = run_task(tmp_path, HYPERBOLIC_INTEGRATE, out_name="again")
    assert code == 0 and "256 steps" in capsys.readouterr().out
    with pytest.raises(SystemExit) as exc:
        main(["--out", str(out)])
    assert exc.value.code == 2
    assert "the following arguments are required: --config" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: warpgeo [-h] --config CONFIG")


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert __version__ in capsys.readouterr().out
