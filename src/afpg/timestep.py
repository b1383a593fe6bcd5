"""Explicit method-of-lines integration of the semi-discrete system."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from afpg.grid import Grid2D

__all__ = ["TimeIntegrator", "BlowUpError", "BLOWUP_FACTOR", "step", "compute_dt", "advance"]

SCHEMES = ("ssprk3", "rk4", "euler")

# advance stops once a dof exceeds this factor times max(initial max-norm, 1)
BLOWUP_FACTOR = 1e6


class BlowUpError(RuntimeError):
    """Raised when a stage produces non-finite values, or a step grows the
    max-norm past BLOWUP_FACTOR (usually a CFL bust)."""

    def __init__(self, message, step_index=None):
        super().__init__(message)
        self.step_index = step_index


@dataclass(frozen=True)
class TimeIntegrator:
    """Named explicit scheme plus the step-size policy (cfl or fixed dt)."""

    scheme: str = "ssprk3"
    cfl: float = 0.2
    dt: float | None = None

    def __post_init__(self):
        if self.scheme not in SCHEMES:
            raise ValueError(f"unknown scheme {self.scheme!r}")
        if self.dt is None and not self.cfl > 0:
            raise ValueError("cfl must be positive")
        if self.dt is not None and not self.dt > 0:
            raise ValueError("dt must be positive")


def _finite(u) -> bool:
    # ``data`` is a state's buffer; for a plain array it is a buffer over its values
    return bool(np.all(np.isfinite(u.data)))


def _checked(u, stage):
    if not _finite(u):
        raise BlowUpError(f"non-finite state after {stage}")
    return u


def step(state, t, dt, rhs_fn, scheme: str = "ssprk3"):
    """One explicit step.  Works on states and on plain arrays."""
    if not dt > 0:
        raise ValueError("dt must be positive")
    if scheme == "euler":
        return _checked(state + dt * rhs_fn(state), "euler stage")
    if scheme == "ssprk3":
        u1 = _checked(state + dt * rhs_fn(state), "stage 1")
        u2 = _checked(0.75 * state + 0.25 * (u1 + dt * rhs_fn(u1)), "stage 2")
        third = 1.0 / 3.0
        return _checked(third * state + (2.0 * third) * (u2 + dt * rhs_fn(u2)), "stage 3")
    if scheme == "rk4":
        k1 = rhs_fn(state)
        k2 = rhs_fn(_checked(state + (0.5 * dt) * k1, "stage 1"))
        k3 = rhs_fn(_checked(state + (0.5 * dt) * k2, "stage 2"))
        k4 = rhs_fn(_checked(state + dt * k3, "stage 3"))
        return _checked(state + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4), "stage 4")
    raise ValueError(f"unknown scheme {scheme!r}")


def compute_dt(state, grid, model, cfl: float) -> float:
    """cfl * min(dx, dy) / max wave speed over the point dofs.

    Returns inf for a zero wave speed; callers fall back to a fixed dt.
    """
    if isinstance(grid, Grid2D):
        h = min(grid.dx, grid.dy)
        speed = model.max_speed(state.data[1:])
    else:
        h = grid.dx
        speed = model.max_speed(state.points)
    if speed <= 0.0:
        return math.inf
    return cfl * h / speed


def _max_norm(u) -> float:
    # two reductions and no temporary of the state's size
    data = np.asarray(u.data)
    return max(float(data.max()), -float(data.min()))


def advance(state, grid, model, rhs_fn, t_end, integrator: TimeIntegrator, on_step=None):
    """Integrate to t_end; returns (state, t, number of steps taken).

    ``on_step(state, t, n)`` is invoked after every accepted step.  A
    step whose state exceeds BLOWUP_FACTOR times max(initial max-norm,
    1) in absolute value raises BlowUpError with its index.
    """
    t = 0.0
    n = 0
    bound = BLOWUP_FACTOR * max(_max_norm(state), 1.0)
    while t < t_end - 1e-14 * max(1.0, t_end):
        if integrator.dt is not None:
            dt = integrator.dt
        else:
            dt = compute_dt(state, grid, model, integrator.cfl)
            if math.isinf(dt):
                raise ValueError(
                    "zero wave speed: set a fixed dt to integrate this problem"
                )
        dt = min(dt, t_end - t)
        try:
            state = step(state, t, dt, rhs_fn, integrator.scheme)
        except BlowUpError as err:
            raise BlowUpError(f"{err} (step {n})", step_index=n) from None
        norm = _max_norm(state)
        if norm > bound:
            raise BlowUpError(
                f"max-norm {norm:.3g} exceeds {BLOWUP_FACTOR:g} x max(initial max-norm, 1)"
                f" (step {n})",
                step_index=n,
            )
        t += dt
        n += 1
        if on_step is not None:
            on_step(state, t, n)
    return state, t, n
