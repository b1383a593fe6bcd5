"""afpg benchmark runner.

    python3 perfbench/run.py --workload adv2d --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 40

Runs one workload as a closed loop of fresh worker processes, one at a
time, each pinned to BLAS_THREADS BLAS threads, and prints as its last
line one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  ``--trace 0`` reports the end-to-end metrics of
BENCHMARK.json (medians over the untraced repeats); ``--trace 1``
reports its per-layer metrics: a traced repeat paired with an untraced
one, plus the standalone layer sweep.  ``--workload all`` runs every
workload both ways and prints each metric by name with its unit.

The line before the result holds the environment record and the sample
counts; the same record is written under .perfbench-out/.  The runner
imports neither afpg nor numpy, and exits with status 2 when the
checkout has no afpg sources.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

import checks
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_ROOT = os.path.join(ROOT, ".perfbench-out")
WORKER = os.path.join(HERE, "worker.py")

BLAS_THREADS = 1
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
MIN_REPEATS = 3
MIN_SETUP_SAMPLES = 9
MAX_TRACE_PAIRS = 3
# every run must end within 180 s
RUN_LIMIT_S = 170.0

# (family, extra arguments): one fresh process each, in this order
SWEEP_PLAN = ([("rhs1d", []), ("rhs2d", []), ("alloc", []), ("step", []), ("grid", [])]
              + [("cold1d", ["--k", str(k)]) for k in (2, 3, 4, 5, 6)]
              + [("cold2d", [])])


class BenchError(RuntimeError):
    pass


def _child_env():
    env = dict(os.environ)
    for var in BLAS_VARS:
        env[var] = str(BLAS_THREADS)
    env.pop("AFPG_THREADS", None)
    env["PYTHONHASHSEED"] = "0"
    return env


class Loop:
    """Starts worker processes one at a time and keeps the run deadline."""

    def __init__(self, out_dir):
        self.out_dir = out_dir
        self.started = time.monotonic()
        self.count = 0

    def elapsed(self):
        return time.monotonic() - self.started

    def worker(self, args):
        """Run one worker; returns (status, report or None, seconds)."""
        self.count += 1
        out = os.path.join(self.out_dir, f"p{self.count:03d}")
        timeout = RUN_LIMIT_S - self.elapsed()
        if timeout <= 0:
            raise BenchError("out of time before the next worker")
        t0 = time.monotonic()
        try:
            proc = subprocess.run([sys.executable, WORKER, *args, "--out", out], cwd=ROOT,
                                  env=_child_env(), capture_output=True, text=True,
                                  timeout=timeout)
        except subprocess.TimeoutExpired:
            return -1, None, time.monotonic() - t0
        seconds = time.monotonic() - t0
        report = None
        lines = proc.stdout.strip().splitlines()
        if proc.returncode == 0 and lines:
            try:
                report = json.loads(lines[-1])
            except json.JSONDecodeError:
                pass
        else:
            sys.stderr.write(proc.stderr[-2000:])
        for name in os.listdir(out) if os.path.isdir(out) else ():
            path = os.path.join(out, name)
            if os.path.isdir(path):
                shutil.rmtree(path)
        return proc.returncode, report, seconds

    def setup_sample(self, workload, seed):
        status, report, _ = self.worker(["run", "--workload", workload, "--seed", str(seed),
                                         "--setup-only"])
        if status != 0 or report is None:
            raise BenchError(f"set-up of {workload} failed with status {status}")
        return report["setup_s"]


def _repeat(loop, spec, traced):
    args = ["run", "--workload", spec["workload"], "--seed", str(spec["seed"])]
    status, report, seconds = loop.worker(args + (["--trace"] if traced else []))
    failures = checks.verdict(spec, status, report)
    for line in failures:
        print(f"check failed: {line}", file=sys.stderr)
    return {"report": report if status == 0 else None, "failures": failures,
            "seconds": seconds}


def measure_end_to_end(loop, spec, seconds):
    loop.setup_sample(spec["workload"], spec["seed"])  # warm-up: bytecode, file cache
    repeats = []
    while True:
        if len(repeats) >= MIN_REPEATS:
            typical = statistics.median([r["seconds"] for r in repeats])
            if loop.elapsed() + typical > seconds:
                break
        repeats.append(_repeat(loop, spec, traced=False))
    reports = [r["report"] for r in repeats if r["report"] and "wall_s" in r["report"]]
    if not reports:
        raise BenchError("no repeat produced a report")
    setups = [r["setup_s"] for r in reports]
    while len(setups) < MIN_SETUP_SAMPLES:
        setups.append(loop.setup_sample(spec["workload"], spec["seed"]))
    failed = sum(1 for r in repeats if r["failures"])
    metrics = {
        "wall_s": statistics.median([r["wall_s"] for r in reports]),
        "setup_s": statistics.median(setups),
        "mdof_rhs_per_s": statistics.median([r["work"] / r["wall_s"] / 1e6 for r in reports]),
        "peak_rss_mb": statistics.median([r["peak_rss_mb"] for r in reports]),
        "passed_frac": (len(repeats) - failed) / len(repeats),
    }
    samples = {"repeats": len(reports), "setup_samples": len(setups),
               "wall_s": [r["wall_s"] for r in reports], "setup_s": setups}
    return metrics, len(repeats), failed, samples


def measure_per_layer(loop, spec, seconds):
    loop.setup_sample(spec["workload"], spec["seed"])
    plain, traced = [], []
    while True:
        if plain:
            pair = statistics.median([a["seconds"] + b["seconds"] for a, b in zip(plain, traced)])
            if len(plain) >= MAX_TRACE_PAIRS or loop.elapsed() + pair > seconds / 2:
                break
        plain.append(_repeat(loop, spec, traced=False))
        traced.append(_repeat(loop, spec, traced=True))
    attempted = len(plain) + len(traced)
    failed = sum(1 for r in plain + traced if r["failures"])
    plain_reports = [r["report"] for r in plain if r["report"]]
    traced_reports = [r["report"] for r in traced if r["report"] and "layers" in r["report"]]
    if not plain_reports or not traced_reports:
        raise BenchError("no traced pair produced a report")
    metrics = {name: statistics.median([r["layers"][name] for r in traced_reports])
               for name in traced_reports[0]["layers"]}
    metrics["trace.overhead_frac"] = (
        statistics.median([r["wall_s"] for r in traced_reports])
        / statistics.median([r["wall_s"] for r in plain_reports]) - 1.0)
    for family, extra in SWEEP_PLAN:
        status, report, _ = loop.worker(["sweep", "--family", family, *extra])
        if status != 0 or report is None:
            raise BenchError(f"layer sweep {family} {extra} failed with status {status}")
        metrics.update(report)
    samples = {"traced_pairs": len(traced_reports), "sweep_processes": len(SWEEP_PLAN)}
    return metrics, attempted, failed, samples


def _read(path):
    with open(path) as fh:
        return fh.read().strip()


def _cache_sizes():
    base = "/sys/devices/system/cpu/cpu0/cache"
    out = {}
    try:
        for entry in sorted(os.listdir(base)):
            kind = _read(os.path.join(base, entry, "type"))
            if kind != "Instruction":
                level = _read(os.path.join(base, entry, "level"))
                out[f"L{level}" + ("d" if kind == "Data" else "")] = _read(
                    os.path.join(base, entry, "size"))
    except OSError:
        pass
    return out


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def environment(spec):
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "caches": _cache_sizes(),
        "blas_threads": BLAS_THREADS,
        "state_bytes_computed": {run["label"]: 8 * run["dofs"] for run in spec["runs"]},
    }


def _declared(key):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return [(m["name"], m["unit"]) for m in json.load(fh)[key]]


def run_one(workload, seed, seconds, trace):
    spec = workloads.make(workload, seed)
    out_dir = os.path.join(OUT_ROOT, f"{workload}-seed{seed}-trace{trace}")
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir)
    loop = Loop(out_dir)
    measure = measure_per_layer if trace else measure_end_to_end
    values, attempted, failed, samples = measure(loop, spec, seconds)
    declared = _declared("per_layer" if trace else "end_to_end")
    names = {name for name, _ in declared}
    if set(values) != names:
        raise BenchError(f"metric names differ from BENCHMARK.json:"
                         f" missing {sorted(names - set(values))},"
                         f" undeclared {sorted(set(values) - names)}")
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": values[name], "unit": unit}
                          for name, unit in declared}}
    record = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
              "elapsed_s": loop.elapsed(), "samples": samples,
              "environment": environment(spec), "result": result}
    with open(os.path.join(out_dir, "result.json"), "w") as fh:
        json.dump(record, fh, indent=1)
    return record


def _terminate(signum, frame):
    # SystemExit unwinds through subprocess.run, which kills and reaps the worker
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    signal.signal(signal.SIGTERM, _terminate)
    parser = argparse.ArgumentParser(description="afpg benchmark")
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "afpg", "__init__.py")):
        print(f"no afpg sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    try:
        if args.workload != "all":
            record = run_one(args.workload, args.seed, args.seconds, args.trace)
            print(json.dumps({k: v for k, v in record.items() if k != "result"}))
            print(json.dumps(record["result"]))
            return 0
        total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
        for workload in workloads.WORKLOADS:
            for trace in (0, 1):
                result = run_one(workload, args.seed, args.seconds, trace)["result"]
                total["correct"] = total["correct"] and result["correct"]
                total["attempted"] += result["attempted"]
                total["failed"] += result["failed"]
                for name, metric in result["metrics"].items():
                    print(f"{workload:7s} {name:52s} {metric['value']:14.6g} {metric['unit']}")
                    total["metrics"][f"{workload}.{name}"] = metric
        print(f"failed_frac = {total['failed']}/{total['attempted']}"
              f" = {total['failed'] / total['attempted']:.3g}")
        print(json.dumps(total))
        return 0
    except BenchError as err:
        print(f"benchmark error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
