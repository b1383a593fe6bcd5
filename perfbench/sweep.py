"""Layer sweep: single layers measured standalone, one family per process.

Each function returns ``{metric name: value}`` for one family.  The
runner (run.py) starts a fresh worker process per family (and per degree for
the cold element builds), so no family sees another's caches.  Timed
calls are repeated for a fixed budget after one warm-up call, and the
median call is reported.
"""

from __future__ import annotations

import os
import statistics
import time
import tracemalloc

from afpg import timestep
from afpg.config import parse_config
from afpg.element1d import build_element, build_point_test
from afpg.element2d import build_edge_test, build_element_2d, build_node_test
from afpg.grid import Grid1D, Grid2D, error_norms, project_initial, write_state_csv
from afpg.models import SineIC, Sine2DIC, advection1d, advection2d
from afpg.semidiscrete import Upwind1D, Upwind2D, rhs_1d, rhs_2d

RHS_1D_DEGREES = (2, 3, 4, 5, 6)
RHS_1D_SIZES = (160, 1280, 10240)
RHS_2D_SIZES = (40, 160, 320)
BUDGET_S = 0.08
MIN_CALLS = 5


def _median_call_ns(fn, budget_s=BUDGET_S):
    fn()
    times = []
    stop = time.perf_counter() + budget_s
    while len(times) < MIN_CALLS or time.perf_counter() < stop:
        t0 = time.perf_counter_ns()
        fn()
        times.append(time.perf_counter_ns() - t0)
    return statistics.median(times)


def _problem_1d(k, n):
    element = build_element(k)
    grid = Grid1D(n)
    model = advection1d(1.0)
    upwind = Upwind1D("adaptive")
    state = project_initial(grid, SineIC(), element)
    return grid, element, state, lambda s: rhs_1d(s, grid, element, model, upwind), n * k


def _problem_2d(n):
    element = build_element_2d()
    grid = Grid2D(n, n)
    model = advection2d(1.0, 1.0)
    upwind = Upwind2D("adaptive")
    state = project_initial(grid, Sine2DIC())
    return grid, element, state, lambda s: rhs_2d(s, grid, element, model, upwind), 4 * n * n


def rhs1d(args):
    out = {}
    for k in RHS_1D_DEGREES:
        for n in RHS_1D_SIZES:
            _, _, state, rhs, dofs = _problem_1d(k, n)
            out[f"semidiscrete.rhs_1d.k{k}.n{n}.ns_per_dof"] = (
                _median_call_ns(lambda: rhs(state)) / dofs)
    return out


def rhs2d(args):
    out = {}
    for n in RHS_2D_SIZES:
        _, _, state, rhs, dofs = _problem_2d(n)
        out[f"semidiscrete.rhs_2d.n{n}.ns_per_dof"] = _median_call_ns(lambda: rhs(state)) / dofs
    return out


def alloc(args):
    """Peak bytes numpy allocates during one right-hand side, per dof."""
    out = {}
    for name, (_, _, state, rhs, dofs) in (
        ("semidiscrete.rhs_1d.k2.n1280", _problem_1d(2, 1280)),
        ("semidiscrete.rhs_1d.k4.n10240", _problem_1d(4, 10240)),
        ("semidiscrete.rhs_2d.n160", _problem_2d(160)),
    ):
        rhs(state)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            result = rhs(state)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        del result
        out[f"{name}.alloc_bytes_per_dof"] = (peak - base) / dofs
    return out


def step(args):
    """Time of one step minus the time of its right-hand sides."""
    out = {}
    for size, (grid, _, state, rhs, _) in (("1d.k2.n160", _problem_1d(2, 160)),
                                          ("2d.n160", _problem_2d(160))):
        dt = 0.2 * grid.dx
        for scheme in ("ssprk3", "rk4"):
            rhs_ns = [0]

            def timed_rhs(s):
                t0 = time.perf_counter_ns()
                result = rhs(s)
                rhs_ns[0] += time.perf_counter_ns() - t0
                return result

            def one():
                before = rhs_ns[0]
                t0 = time.perf_counter_ns()
                timestep.step(state, 0.0, dt, timed_rhs, scheme)
                return time.perf_counter_ns() - t0 - (rhs_ns[0] - before)

            one()
            selfs = []
            stop = time.perf_counter() + BUDGET_S
            while len(selfs) < MIN_CALLS or time.perf_counter() < stop:
                selfs.append(one())
            out[f"timestep.step.{scheme}.{size}.self_us"] = statistics.median(selfs) / 1e3
    return out


def grid(args):
    out = {}
    ic1, ic2 = SineIC(), Sine2DIC()
    g1, e1, s1, _, dofs1 = _problem_1d(4, 10240)
    g2, e2, s2, _, dofs2 = _problem_2d(160)
    exact1 = advection1d(1.0).exact_solution(ic1, g1)
    exact2 = advection2d(1.0, 1.0).exact_solution(ic2, g2)
    out["grid.project_initial.1d.ns_per_dof"] = (
        _median_call_ns(lambda: project_initial(g1, ic1, e1)) / dofs1)
    out["grid.project_initial.2d.ns_per_dof"] = (
        _median_call_ns(lambda: project_initial(g2, ic2)) / dofs2)
    out["grid.error_norms.1d.ns_per_dof"] = (
        _median_call_ns(lambda: error_norms(s1, g1, e1, lambda x: exact1(x, 0.5))) / dofs1)
    out["grid.error_norms.2d.ns_per_dof"] = (
        _median_call_ns(lambda: error_norms(s2, g2, e2, lambda x, y: exact2(x, y, 0.5))) / dofs2)
    path = os.path.join(args.out, "sweep_state.csv")
    for dim, (state, g) in (("1d", (s1, g1)), ("2d", (s2, g2))):
        out[f"grid.write_state_csv.{dim}.s"] = (
            _median_call_ns(lambda: write_state_csv(state, g, path), budget_s=0.0) / 1e9)
    os.remove(path)
    text = "dimension=2\ngrid.nx=160\ngrid.ny=160\nmodel.ax=1.0\nmodel.ay=1.0\ntime.cfl=0.2\n"
    out["config.parse_config.us"] = _median_call_ns(lambda: parse_config(text)) / 1e3
    return out


def cold1d(args):
    t0 = time.perf_counter()
    element = build_element(args.k)
    t1 = time.perf_counter()
    build_point_test(element, 1)
    t2 = time.perf_counter()
    return {f"element1d.build_element.k{args.k}.cold_s": t1 - t0,
            f"element1d.build_point_test.k{args.k}.s": t2 - t1}


def cold2d(args):
    t0 = time.perf_counter()
    build_element_2d()
    t1 = time.perf_counter()
    build_edge_test((0.0, 0.0, 1.0), "x")
    t2 = time.perf_counter()
    build_node_test((0.0,) * 8 + (1.0, 0.25, 0.25))
    t3 = time.perf_counter()
    return {"element2d.build_element_2d.cold_s": t1 - t0,
            "element2d.build_edge_test.s": t2 - t1,
            "element2d.build_node_test.s": t3 - t2}


FAMILIES = {"rhs1d": rhs1d, "rhs2d": rhs2d, "alloc": alloc, "step": step, "grid": grid,
            "cold1d": cold1d, "cold2d": cold2d}

