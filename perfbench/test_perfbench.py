"""Self-tests of the benchmark: the checker, the tracer and the metric names.

    python3 -m pytest perfbench -q
"""

import json
import os
import shutil
import subprocess
import sys
import time
import types

import pytest

import checks
import workloads
from tracer import Tracer
from worker import ROOT, import_solver

import_solver()

import numpy as np  # noqa: E402

from afpg.element1d import build_element  # noqa: E402
from afpg.grid import Grid1D, Grid2D, project_initial, write_state_csv  # noqa: E402
from afpg.models import SineIC, Sine2DIC  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))


def _declared(key):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return [m["name"] for m in json.load(fh)[key]]


def _states():
    g1 = Grid1D(8)
    s1 = project_initial(g1, SineIC(0.3, 0.7), build_element(3))
    g2 = Grid2D(5, 4)
    s2 = project_initial(g2, Sine2DIC(0.1, 1.2))
    return [(s1, g1), (s2, g2)]


@pytest.mark.parametrize("index", [0, 1])
def test_csv_check_accepts_the_written_state(tmp_path, index):
    state, grid = _states()[index]
    path = tmp_path / "final_state.csv"
    write_state_csv(state, grid, path)
    assert checks.csv_failures(path, state, grid) == []


@pytest.mark.parametrize("index", [0, 1])
def test_csv_check_rejects_a_perturbed_state(tmp_path, index):
    state, grid = _states()[index]
    path = tmp_path / "final_state.csv"
    write_state_csv(state, grid, path)
    field = state.moments if index == 0 else state.edge_y
    field[1, 1] = np.nextafter(field[1, 1], np.inf)  # one ulp
    assert checks.csv_failures(path, state, grid)


@pytest.mark.parametrize("index", [0, 1])
def test_csv_check_rejects_a_truncated_csv(tmp_path, index):
    state, grid = _states()[index]
    path = tmp_path / "final_state.csv"
    write_state_csv(state, grid, path)
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(lines[:-1]))
    assert checks.csv_failures(path, state, grid)
    path.write_text("".join(lines[:-1] + [lines[-1][: len(lines[-1]) // 2] + "\n"]))
    assert checks.csv_failures(path, state, grid)
    path.write_text("".join(lines + lines[-1:]))
    assert checks.csv_failures(path, state, grid)


def _good_report(spec):
    if spec["kind"] == "converge":
        results = []
        for study in spec["runs"]:
            order = study["order"] or 3
            rows = [{"n": n, "l2": 0.1 * study["l2_max"] * 2.0 ** (order * (3 - i)),
                     "eoc_l2": float("nan") if i == 0 else float(order)}
                    for i, n in enumerate(spec["grids"])]
            results.append({"label": study["label"], "rows": rows, "mass_drift": 1e-15})
        return {"results": results}
    run = spec["runs"][0]
    steps = 308 if spec["snapshot_every"] else 801
    return {"results": [{"label": run["label"], "steps": steps,
                         "norms": [0.0, 0.1 * run["l2_max"], 0.1 * run["linf_max"]],
                         "mass_drift": 1e-15, "csv_failures": [],
                         "snapshots": steps // spec["snapshot_every"]
                         if spec["snapshot_every"] else 0}]}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_verdict_accepts_a_good_report(workload):
    spec = workloads.make(workload, 3)
    assert checks.verdict(spec, 0, _good_report(spec)) == []


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("bad", [1e128, float("nan"), float("inf")])
def test_verdict_rejects_a_huge_norm_reported_with_exit_0(workload, bad):
    spec = workloads.make(workload, 3)
    report = _good_report(spec)
    result = report["results"][0]
    if spec["kind"] == "converge":
        result["rows"][-1]["l2"] = bad
    else:
        result["norms"] = [bad, bad, bad]
    assert checks.verdict(spec, 0, report)


def test_verdict_rejects_a_wrong_order_mass_drift_and_missing_snapshot():
    spec = workloads.make("conv1d", 3)
    report = _good_report(spec)
    report["results"][0]["rows"][-1]["eoc_l2"] = 2.5
    assert checks.verdict(spec, 0, report)
    report = _good_report(spec)
    report["results"][1]["mass_drift"] = 1e-9
    assert checks.verdict(spec, 0, report)
    spec = workloads.make("snap1d", 3)
    report = _good_report(spec)
    report["results"][0]["snapshots"] -= 1
    assert checks.verdict(spec, 0, report)
    assert checks.verdict(spec, 3, None)


def test_seed_changes_only_the_initial_data():
    for workload in workloads.WORKLOADS:
        a, b = workloads.make(workload, 1), workloads.make(workload, 2)
        assert a == workloads.make(workload, 1)
        for run_a, run_b in zip(a["runs"], b["runs"]):
            keep = [line for line in run_a["text"].splitlines()
                    if not line.startswith(("ic.mean", "ic.amplitude"))]
            assert keep == [line for line in run_b["text"].splitlines()
                            if not line.startswith(("ic.mean", "ic.amplitude"))]
            assert run_a["text"] != run_b["text"]


def test_self_time_excludes_child_spans():
    module = types.SimpleNamespace()

    def inner():
        time.sleep(0.02)

    def outer():
        time.sleep(0.01)
        module.inner()

    inner.__module__ = outer.__module__ = "afpg.layer"
    module.outer, module.inner = outer, inner
    tracer = Tracer("test")
    module.outer = tracer._wrap(outer, "outer")
    module.inner = tracer._wrap(inner, "inner")
    module.outer()
    layers, covered = tracer.layers()
    assert layers["layer.outer"]["calls"] == layers["layer.inner"]["calls"] == 1
    assert layers["layer.outer"]["self_ns"] < 0.018e9
    assert layers["layer.inner"]["self_ns"] >= 0.02e9
    assert covered == layers["layer.outer"]["total_ns"]
    assert tracer.spans[1][3] == 0  # inner's parent is outer


def test_missing_sources_exit_nonzero_without_a_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "adv2d",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


@pytest.mark.parametrize("trace,key", [(0, "end_to_end"), (1, "per_layer")])
def test_printed_metric_names_match_benchmark_json(trace, key):
    proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--workload",
                           "conv1d", "--seed", "5", "--seconds", "1", "--trace", str(trace)],
                          cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == _declared(key)
    for metric in result["metrics"].values():
        assert set(metric) == {"value", "unit"}
