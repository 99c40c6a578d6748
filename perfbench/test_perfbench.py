"""Smoke test of the benchmark runner at a tiny size; no timing is gated.

It checks that every workload finishes, that the printed metrics are the
ones ``BENCHMARK.json`` names, and that the exact work counters repeat for
one seed.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


@pytest.fixture(scope="module")
def runner():
    spec = importlib.util.spec_from_file_location("perfbench_run", HERE / "run.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    module._import_warpgeo()
    sys.path.insert(0, str(HERE))
    return module


def _result(runner, capsys, *argv):
    runner.main(list(argv))
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counters_repeat_for_a_seed(runner, capsys, monkeypatch, workload):
    import layers
    import warpgeo.connect
    import warpgeo.integrate
    import workloads

    monkeypatch.setattr(workloads.WORKLOADS[workload], "trace_ops", 1)
    argv = ("--workload", workload, "--seed", "3", "--trace", "1")
    first = _result(runner, capsys, *argv)
    second = _result(runner, capsys, *argv)

    assert first["correct"] and first["failed"] == 0
    assert first["attempted"] == 2
    assert set(first["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    for name in layers.EXACT_COUNTERS:
        value = first["metrics"][name]["value"]
        assert isinstance(value, int)
        assert value == second["metrics"][name]["value"], name
    # the tracer put every wrapped name back
    assert warpgeo.connect.integrate_geodesic is warpgeo.integrate.integrate_geodesic


def test_untraced_run_reports_the_end_to_end_metrics(runner, capsys, monkeypatch):
    monkeypatch.setattr(runner, "SETUP_RUNS", 1)
    # zero seconds: one mix period of ops, two on this workload
    result = _result(runner, capsys, "--workload", "curvature-scan", "--seed", "1",
                     "--seconds", "0")
    assert result["correct"] and result["attempted"] == 2 and result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())
