"""One benchmark process: set up, solve, check, report.

The runner (run.py) starts a fresh process of this script for every
repeat, so each one pays the cold set-up cost and reports its own peak
RSS.  The last line of standard output is a JSON report.

    python3 perfbench/worker.py run --workload adv2d --seed 1 --out DIR [--trace] [--setup-only]
    python3 perfbench/worker.py sweep --family rhs1d --out DIR [--k K]

``setup_s`` runs from before ``import afpg`` to after the last
``project_initial`` of the set-up; ``wall_s`` times ``run_simulation``
(or the ``convergence_study`` calls of conv1d) including file output.
The checks run after the timed region.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import resource
import sys
import time

import checks
import workloads
from tracer import Tracer, state_dofs

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def import_solver():
    """Import afpg from this checkout's src/, never from elsewhere."""
    sys.path.insert(0, SRC)
    import afpg

    if not os.path.abspath(afpg.__file__).startswith(os.path.join(SRC, "afpg") + os.sep):
        raise SystemExit(f"afpg was imported from {afpg.__file__}, not from {SRC}")
    return afpg


def _setup(cfg, harness):
    """The cold part of a run: exact element, test functions, grid, projection."""
    import numpy as np

    from afpg.element1d import build_point_test
    from afpg.element2d import build_edge_test, build_node_test

    grid = harness.build_grid(cfg)
    model = harness.build_model(cfg)
    ic = harness.build_ic(cfg)
    if cfg.dimension == 1:
        element = harness.build_element(cfg.degree)
        for alpha in (-1, 1):
            build_point_test(element, alpha)
        if model.m > 1:
            scalar_ic = ic

            def ic(x):
                return np.repeat(np.asarray(scalar_ic(x), dtype=float)[..., None], model.m, -1)

        harness.project_initial(grid, ic, element)
    else:
        harness.build_element_2d()
        a3x, a3y = float(np.sign(cfg.model_ax)), float(np.sign(cfg.model_ay))
        build_edge_test((0.0, 0.0, a3x), "x")
        build_edge_test((0.0, 0.0, a3y), "y")
        build_node_test((0.0,) * 8 + (a3y, 0.25 * a3x, 0.25 * a3x))
        harness.project_initial(grid, ic)


def _layer_metrics(tracer, start_ns, end_ns):
    layers, covered = tracer.layers(start_ns, end_ns)
    empty = {"calls": 0, "self_ns": 0, "work": 0}

    def row(name):
        return layers.get(name, empty)

    out = {}
    for name in ("semidiscrete.rhs_2d", "semidiscrete.rhs_1d", "timestep.step",
                 "element1d.build_element", "grid.write_state_csv"):
        out[f"{name}.calls"] = row(name)["calls"]
    for name in ("semidiscrete.rhs_2d", "semidiscrete.rhs_1d", "timestep.step",
                 "timestep.compute_dt", "timestep.advance", "grid.write_state_csv",
                 "grid.project_initial", "grid.error_norms", "element1d.build_element",
                 "element2d.build_element_2d", "harness.run_simulation"):
        out[f"{name}.self_s"] = row(name)["self_ns"] / 1e9
    for name in ("semidiscrete.rhs_2d", "semidiscrete.rhs_1d"):
        r = row(name)
        out[f"{name}.ns_per_dof"] = r["self_ns"] / r["work"] if r["work"] else 0.0
    csv_row = row("grid.write_state_csv")
    out["grid.write_state_csv.bytes"] = csv_row["work"]
    out["grid.write_state_csv.mb_per_s"] = (
        csv_row["work"] / csv_row["self_ns"] * 1e3 if csv_row["self_ns"] else 0.0)
    out["grid.total_mass.calls"] = row("grid.total_mass")["calls"]
    out["trace.coverage_frac"] = covered / (end_ns - start_ns)
    return out


def run(args) -> dict:
    spec = workloads.make(args.workload, args.seed)
    t0 = time.perf_counter()
    import_solver()
    from afpg import harness, timestep
    from afpg.config import parse_config

    tracer = None
    if args.trace:
        tracer = Tracer(f"{args.workload}-{args.seed}-{os.getpid()}")
        tracer.install(harness, timestep)
    cfgs = [parse_config(run["text"]) for run in spec["runs"]]
    for cfg in cfgs:
        _setup(cfg, harness)
    setup_s = time.perf_counter() - t0
    if args.setup_only:
        return {"setup_s": setup_s}

    # RunResult carries the step count and mass log, which
    # convergence_study does not return: keep each one as it passes.
    captured = []
    run_simulation = harness.run_simulation

    def capture(cfg, output_dir=None, n=None):
        result = run_simulation(cfg, output_dir=output_dir, n=n)
        captured.append(result)
        return result

    harness.run_simulation = capture
    out_dirs = [os.path.join(args.out, f"run{i}") for i in range(len(cfgs))]
    start_ns = time.perf_counter_ns()
    if spec["kind"] == "converge":
        tables = [harness.convergence_study(cfg, spec["grids"]) for cfg in cfgs]
    else:
        for cfg, out_dir in zip(cfgs, out_dirs):
            harness.run_simulation(cfg, output_dir=out_dir)
    end_ns = time.perf_counter_ns()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    harness.run_simulation = run_simulation

    work = sum(state_dofs(r.state) * r.steps * workloads.STAGES[r.config.time_scheme]
               for r in captured)
    results = []
    if spec["kind"] == "converge":
        per_study = len(spec["grids"])
        for i, (run_spec, table) in enumerate(zip(spec["runs"], tables)):
            mine = captured[i * per_study:(i + 1) * per_study]
            results.append({
                "label": run_spec["label"],
                "rows": [{"n": row["n"], "l2": row["l2"], "eoc_l2": row["eoc_l2"]}
                         for row in table],
                "mass_drift": max(checks.relative_drift(r.mass_log, run_spec["amplitude"],
                                                        run_spec["size"]) for r in mine),
            })
    else:
        for run_spec, result, out_dir in zip(spec["runs"], captured, out_dirs):
            results.append({
                "label": run_spec["label"],
                "norms": list(result.norms) if result.norms else None,
                "steps": result.steps,
                "mass_drift": checks.relative_drift(result.mass_log, run_spec["amplitude"],
                                                    run_spec["size"]),
                "csv_failures": checks.csv_failures(
                    os.path.join(out_dir, "final_state.csv"), result.state, result.grid),
                "snapshots": len(glob.glob(os.path.join(out_dir, "state_*.csv"))),
            })
    report = {"setup_s": setup_s, "wall_s": (end_ns - start_ns) / 1e9,
              "peak_rss_mb": peak_rss_mb, "work": work, "results": results}
    if tracer is not None:
        tracer.uninstall()
        report["layers"] = _layer_metrics(tracer, start_ns, end_ns)
        tracer.write(os.path.join(args.out, "spans.json"))
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("mode", choices=("run", "sweep"))
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--family")
    parser.add_argument("--k", type=int)
    args = parser.parse_args(argv)
    os.makedirs(args.out, exist_ok=True)
    if args.mode == "sweep":
        import_solver()
        import sweep

        report = sweep.FAMILIES[args.family](args)
    else:
        report = run(args)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
