"""Correctness checks that decide whether a benchmark run failed.

A run fails when any of these hold, whatever its exit status was:

- its error norms against the exact solution exceed the workload's bound
  (a finite but huge norm counts too, and so does a NaN);
- for a linear convergence study, the finest-pair EOC in L2 is not
  within ``eoc_tol`` of K+1; for Burgers the finest-grid L2 error is
  bounded instead;
- the relative drift of the total mass is above round-off;
- ``final_state.csv`` does not parse back, bit for bit, to the state
  held in memory, in the documented row order and count, or a snapshot
  is missing.

``csv_failures`` runs in the worker, which holds the state; ``verdict``
runs in run.py on the numbers the worker reported, so a worker that
exits 0 with bad numbers still fails.
"""

from __future__ import annotations

import csv
import itertools

from workloads import MASS_DRIFT_MAX


def _within(value, bound):
    # False for NaN as well as for values above the bound
    return isinstance(value, (int, float)) and value <= bound


def _value_rows(value):
    rows = value.tolist() if hasattr(value, "tolist") else value
    if isinstance(rows, list):
        return [(f"[{c}]", v) for c, v in enumerate(rows)]
    return [("", rows)]


def _expected_rows_1d(state, grid):
    centers, interfaces = grid.centers().tolist(), grid.interfaces().tolist()
    moments = state.moments
    for i in range(grid.n):
        for k in range(moments.shape[1]):
            for suffix, v in _value_rows(moments[i, k]):
                yield (centers[i],), f"moment{k}{suffix}", v
    for i in range(grid.n):
        for suffix, v in _value_rows(state.points[i]):
            yield (interfaces[i],), f"point{suffix}", v


def _expected_rows_2d(state, grid):
    xc, yc = grid.x_centers().tolist(), grid.y_centers().tolist()
    xf, yf = grid.x_interfaces().tolist(), grid.y_interfaces().tolist()
    for name, arr, xs, ys in (("average", state.averages, xc, yc),
                              ("edge_x", state.edge_x, xf, yc),
                              ("edge_y", state.edge_y, xc, yf),
                              ("node", state.nodes, xf, yf)):
        values = arr.tolist()
        for i, row in enumerate(values):
            for j, v in enumerate(row):
                yield (xs[i], ys[j]), name, v


def _same_bits(text, value):
    try:
        return float(text).hex() == float(value).hex()
    except ValueError:
        return False


def csv_failures(path, state, grid) -> list:
    """Compare a state CSV with the in-memory state, row by row."""
    two_d = hasattr(state, "averages")
    expected = _expected_rows_2d(state, grid) if two_d else _expected_rows_1d(state, grid)
    header = ["x", "y", "dof_class", "value"] if two_d else ["x", "dof_class", "value"]
    try:
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            if next(reader, None) != header:
                return [f"{path}: bad header"]
            for count, (row, want) in enumerate(itertools.zip_longest(reader, expected), 1):
                if row is None or want is None:
                    return [f"{path}: row {count} {'missing' if row is None else 'extra'}"]
                coords, dof_class, value = want
                if (len(row) != len(header) or row[-2] != dof_class
                        or not all(_same_bits(t, c) for t, c in zip(row, coords))
                        or not _same_bits(row[-1], value)):
                    return [f"{path}: row {count} is {row}, expected {dof_class} = {value!r}"]
    except OSError as err:
        return [f"{path}: {err}"]
    return []


def _run_failures(run, report) -> list:
    label = run["label"]
    out = []
    norms = report.get("norms")
    if not norms or len(norms) != 3:
        return [f"{label}: no error norms reported"]
    _, l2, linf = norms
    if not _within(l2, run["l2_max"]):
        out.append(f"{label}: L2 error {l2!r} above {run['l2_max']!r}")
    if not _within(linf, run["linf_max"]):
        out.append(f"{label}: Linf error {linf!r} above {run['linf_max']!r}")
    return out


def _study_failures(study, report) -> list:
    label = study["label"]
    rows = report.get("rows") or []
    if len(rows) < 2:
        return [f"{label}: convergence table has {len(rows)} rows"]
    out = []
    finest = rows[-1]
    if not _within(finest["l2"], study["l2_max"]):
        out.append(f"{label}: finest L2 error {finest['l2']!r} above {study['l2_max']!r}")
    if study["order"] is not None:
        eoc = finest["eoc_l2"]
        if not _within(abs(eoc - study["order"]), study["eoc_tol"]):
            out.append(f"{label}: finest-pair EOC {eoc!r}, expected {study['order']}"
                       f" +- {study['eoc_tol']}")
    return out


def verdict(spec, returncode, report) -> list:
    """Failures of one worker run; an empty list means it passed."""
    if returncode != 0:
        return [f"worker exited with status {returncode}"]
    if not report or "results" not in report:
        return ["worker printed no report"]
    results = report["results"]
    if len(results) != len(spec["runs"]):
        return [f"{len(results)} results for {len(spec['runs'])} runs"]
    out = []
    for run, res in zip(spec["runs"], results):
        if spec["kind"] == "converge":
            out += _study_failures(run, res)
        else:
            out += _run_failures(run, res)
            out += res.get("csv_failures", ["no CSV check reported"])
            cadence = spec["snapshot_every"]
            expected = res.get("steps", 0) // cadence if cadence else 0
            if res.get("snapshots") != expected:
                out.append(f"{run['label']}: {res.get('snapshots')} snapshots,"
                           f" expected {expected}")
        drift = res.get("mass_drift")
        if not _within(drift, MASS_DRIFT_MAX):
            out.append(f"{run['label']}: relative mass drift {drift!r} above {MASS_DRIFT_MAX}")
    return out


def relative_drift(mass_log, amplitude, size) -> float:
    """max_t |mass(t) - mass(0)| over |mass(0)| + amplitude * domain size."""
    first = _as_list(mass_log[0][1])
    worst = max(abs(a - b) for _, m in mass_log for a, b in zip(_as_list(m), first))
    return worst / (max(abs(a) for a in first) + amplitude * size)


def _as_list(mass):
    values = mass.tolist() if hasattr(mass, "tolist") else mass
    return [float(v) for v in values] if isinstance(values, list) else [float(values)]
