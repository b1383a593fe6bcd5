"""Run driver shared by the command line and the test-suites.

Builds grids, models and initial data from a RunConfig, integrates to
the final time, writes CSV outputs and reports the error norms against
the model's exact solution.  The convergence study reruns a config
over a list of resolutions and tabulates the experimental orders.
"""

from __future__ import annotations

import csv
import math
import os
from dataclasses import dataclass, replace

import numpy as np

from afpg import models as _models
from afpg.config import MAX_STEPS, ConfigError, RunConfig, serialize_config
from afpg.element1d import build_element
from afpg.element2d import build_element_2d
from afpg.grid import (
    Grid1D,
    Grid2D,
    _axes,
    error_norms,
    project_initial,
    total_mass,
    write_state_csv,
)
from afpg.semidiscrete import Upwind1D, Upwind2D, rhs_1d, rhs_2d
from afpg.linear_step import StepOperator1D
from afpg.timestep import TimeIntegrator, advance, compute_dt

__all__ = [
    "RunResult",
    "build_grid",
    "build_model",
    "build_ic",
    "build_integrator",
    "run_simulation",
    "convergence_study",
    "write_convergence_csv",
]


@dataclass
class RunResult:
    config: RunConfig
    grid: object
    state: object
    t: float
    steps: int
    mass_log: list
    norms: tuple


def build_grid(cfg: RunConfig, n=None):
    if cfg.dimension == 1:
        return Grid1D(n or cfg.grid_n, cfg.grid_x_min, cfg.grid_x_max)
    nx = n or cfg.grid_nx
    ny = n or cfg.grid_ny
    return Grid2D(nx, ny, cfg.grid_x_min, cfg.grid_x_max, cfg.grid_y_min, cfg.grid_y_max)


def build_model(cfg: RunConfig):
    if cfg.dimension == 2:
        if cfg.model_name != "advection":
            raise ConfigError("2-d runs support model.name=advection")
        return _models.advection2d(cfg.model_ax, cfg.model_ay)
    if cfg.model_name == "advection":
        return _models.advection1d(cfg.model_a)
    if cfg.model_name == "burgers":
        return _models.burgers1d()
    try:
        return _models.linear_system1d(cfg.model_matrix)
    except ValueError as err:
        raise ConfigError(str(err)) from None


def build_ic(cfg: RunConfig):
    """The scalar initial data of a run; a system repeats it per component."""
    if cfg.ic_name == "gaussian":
        return _models.GaussianIC(cfg.ic_mean, cfg.ic_amplitude, cfg.ic_center, cfg.ic_width)
    if cfg.ic_name == "linear":
        return _models.LinearIC(cfg.ic_slope, cfg.ic_mean)
    lx = cfg.grid_x_max - cfg.grid_x_min
    if cfg.dimension == 1:
        return _models.SineIC(cfg.ic_mean, cfg.ic_amplitude, cfg.ic_cycles, cfg.grid_x_min, lx)
    ly = cfg.grid_y_max - cfg.grid_y_min
    return _models.Sine2DIC(cfg.ic_mean, cfg.ic_amplitude, cfg.ic_cycles, cfg.ic_cycles,
                            cfg.grid_x_min, lx, cfg.grid_y_min, ly)


def build_integrator(cfg: RunConfig) -> TimeIntegrator:
    dt = cfg.time_dt if cfg.time_dt > 0 else None
    return TimeIntegrator(cfg.time_scheme, cfg.time_cfl, dt)


def _check_cfl_steps(cfg: RunConfig, state, grid, model):
    """Reject a CFL run whose first step could not reach t_end within
    MAX_STEPS steps, the bound config applies to a fixed time.dt, or
    whose wave speed is zero, so that the CFL gives no step at all."""
    if cfg.time_dt > 0 or not cfg.time_t_end > 0:
        return
    dt = compute_dt(state, grid, model, cfg.time_cfl)
    if math.isinf(dt):
        raise ConfigError("time.cfl gives no step for a zero wave speed; set time.dt instead")
    if cfg.time_t_end > dt * MAX_STEPS:
        raise ConfigError(
            f"time.cfl={cfg.time_cfl!r} gives dt={dt!r}: time.t_end would take more than"
            f" {MAX_STEPS} steps"
        )


def _vectorize_ic(ic, m):
    def fn(x):
        base = np.asarray(ic(x), dtype=float)
        return np.repeat(base[..., None], m, axis=-1)

    return fn


def run_simulation(cfg: RunConfig, output_dir=None, n=None) -> RunResult:
    """Project, integrate to t_end, optionally write outputs.

    Non-finite initial data and a reference solution that refuses at
    t_end (e.g. Burgers past the shock) raise ConfigError before the
    first step; a refusal the norms meet later raises it at the end.
    """
    grid = build_grid(cfg, n=n)
    model = build_model(cfg)
    ic = build_ic(cfg)
    integrator = build_integrator(cfg)

    if cfg.dimension == 1:
        element, upwind = build_element(cfg.degree), Upwind1D()
        ic = _vectorize_ic(ic, model.m) if model.m > 1 else ic
    else:
        element, upwind = build_element_2d(), Upwind2D()
    exact = None
    mass_log = []

    def reference(*xs, t):
        try:
            return exact(*xs, t)
        except ValueError as err:  # e.g. Burgers past the shock
            raise ConfigError(f"no reference solution: {err}") from None

    def initial_state():
        """The projected state, checked before the first step; also sets
        ``exact``, makes the output directory and logs the initial mass.
        It goes straight into ``advance``, so no name here keeps it alive
        past step 1."""
        nonlocal exact
        try:
            state = project_initial(grid, ic, element)
        except ValueError as err:  # non-finite initial data
            raise ConfigError(str(err)) from None
        exact = model.exact_solution(ic, grid)
        _check_cfl_steps(cfg, state, grid, model)
        # refuse before the first step, at the grid's centres and interfaces
        reference(*np.ix_(*(np.concatenate((c, f)) for c, f, _ in _axes(grid))),
                  t=cfg.time_t_end)
        if output_dir is not None:
            os.makedirs(output_dir, exist_ok=True)
        mass_log.append((0.0, total_mass(state, grid)))
        return state

    # each right-hand side writes into the free buffer advance hands it
    if cfg.dimension == 1:

        def rhs_fn(s, out):
            return rhs_1d(s, grid, element, model, upwind, point_update=cfg.model_point_update,
                          assume_finite=True, out=out)
    else:

        def rhs_fn(s, out):
            return rhs_2d(s, grid, element, model, upwind, assume_finite=True, out=out)
    cadence = cfg.output_snapshot_every

    def on_step(s, t, nstep):
        if cadence and nstep % cadence == 0:
            mass_log.append((t, total_mass(s, grid)))
            if output_dir is not None:
                write_state_csv(s, grid, os.path.join(output_dir, f"state_{nstep:06d}.csv"))

    # a 1-d linear run steps by R(dt L) whole, its weights composed exactly
    step_operator = None
    if cfg.dimension == 1 and model.is_linear:
        step_operator = StepOperator1D(grid, model, cfg.degree)
    state, t, steps = advance(initial_state(), grid, model, rhs_fn, cfg.time_t_end,
                              integrator, on_step=on_step, step_operator=step_operator)
    mass_log.append((t, total_mass(state, grid)))
    norms = error_norms(state, grid, element, lambda *xs: reference(*xs, t=t))

    if output_dir is not None:
        write_state_csv(state, grid, os.path.join(output_dir, "final_state.csv"))
        with open(os.path.join(output_dir, "conservation.csv"), "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["t", "total_mass"])
            for tm, mass in mass_log:
                writer.writerow([repr(float(tm)), repr(float(np.sum(mass)))])
        with open(os.path.join(output_dir, "summary.txt"), "w") as fh:
            fh.write(serialize_config(cfg))
            fh.write(f"steps={steps}\n")
            fh.write(f"t_final={t!r}\n")
            l1, l2, linf = norms
            fh.write(f"error.l1={l1!r}\nerror.l2={l2!r}\nerror.linf={linf!r}\n")

    return RunResult(cfg, grid, state, t, steps, mass_log, norms)


def _eoc(err_coarse, err_fine, ratio):
    if err_coarse <= 0 or err_fine <= 0:
        return math.nan
    return math.log(err_coarse / err_fine) / math.log(ratio)


def convergence_study(cfg: RunConfig, grid_sizes):
    """Error norms and experimental orders over a list of resolutions."""
    grid_sizes = list(grid_sizes)
    if len(grid_sizes) < 2 or min(grid_sizes) < 3:
        raise ConfigError(f"a convergence study needs 2+ grids of 3+ cells, got {grid_sizes}")
    if any(a == b for a, b in zip(grid_sizes, grid_sizes[1:])):
        raise ConfigError(f"consecutive grids must differ in size, got {grid_sizes}:"
                          " an order needs a refinement ratio other than 1")
    cfg = replace(cfg, output_snapshot_every=0)

    all_norms = []
    for n in grid_sizes:
        all_norms.append(run_simulation(cfg, n=n).norms)

    rows = []
    for i, (n, (l1, l2, linf)) in enumerate(zip(grid_sizes, all_norms)):
        row = {"n": n, "l1": l1, "l2": l2, "linf": linf,
               "eoc_l1": math.nan, "eoc_l2": math.nan, "eoc_linf": math.nan}
        if i > 0:
            ratio = grid_sizes[i] / grid_sizes[i - 1]
            prev = all_norms[i - 1]
            row["eoc_l1"] = _eoc(prev[0], l1, ratio)
            row["eoc_l2"] = _eoc(prev[1], l2, ratio)
            row["eoc_linf"] = _eoc(prev[2], linf, ratio)
        rows.append(row)
    return rows


def write_convergence_csv(rows, path):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["N", "L1", "L2", "Linf", "EOC_L1", "EOC_L2", "EOC_Linf"])
        for row in rows:
            writer.writerow(
                [row["n"]]
                + [repr(float(row[k])) for k in ("l1", "l2", "linf")]
                + ["" if math.isnan(row[k]) else repr(float(row[k]))
                   for k in ("eoc_l1", "eoc_l2", "eoc_linf")]
            )
