"""Explicit method-of-lines integration of the semi-discrete system.

``step`` works on the buffer behind a state (or on a plain array).  It
needs two buffers for SSPRK3 and three for RK4, the last
of them the result, and forms every stage with ``out=`` ufuncs in the
same floating-point order as the textbook expressions, so the result
is bit for bit that of ``u + dt*k`` and friends.  RK4 adds each k into
its weighted sum as it arrives, so one k is live at a time.

Without a workspace ``step`` starts an empty one of its own, so each
call allocates its stage buffers and result afresh and the result is
a fresh buffer.  ``advance`` hands every step of a call the same
workspace instead: the stage buffers and two result buffers.
The first step allocates the stage buffers and one result buffer; the
second result buffer comes at step 2, the first step whose input is a
result.  Each step writes into the result buffer that is not its
input, so a time loop allocates no new state buffer after step 2 and
the state of step n stays intact through step n + 1.  ``advance``
keeps no reference to its initial state past step 1, so a caller that
keeps none either (the harness) frees that buffer before the second
result buffer is allocated, and the loop holds one state-sized buffer
fewer.  Either way the result is never the input, a stage state
handed to ``rhs_fn`` or an array ``rhs_fn`` returned, so ``rhs_fn``
may return the same buffer every time, as the harness's do.

Every stage is tested for finiteness once, right after it is formed;
``advance`` also tests its initial state.  Every state handed to
``rhs_fn`` has therefore passed a test, which lets the harness skip
the right-hand side's own entry check.  A stage state handed to
``rhs_fn`` is valid only during that call: the next stage overwrites
it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from afpg.grid import Grid2D

__all__ = ["TimeIntegrator", "BlowUpError", "BLOWUP_FACTOR", "step", "compute_dt", "advance"]

SCHEMES = ("ssprk3", "rk4")

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


def _array(u):
    """The buffer behind a state, or a plain array itself."""
    return u if isinstance(u, np.ndarray) else u.data


def _check(buf, stage):
    if not np.isfinite(buf).all():
        raise BlowUpError(f"non-finite state after {stage}")


def _stage(out, u, c, k, stage):
    """out = u + c*k, tested for finiteness."""
    np.add(u, np.multiply(k, c, out=out), out=out)
    _check(out, stage)


def _buffers(work, u, dtype, count):
    """``count`` buffers like ``u``, the last for the result, from the
    workspace ``work`` (a list: the stage buffers and two result slots):
    the stage buffers and the result buffer that is not ``u``.  The first
    use fills the stage buffers and the first result slot; the second
    result buffer is allocated when the first becomes ``u``."""
    if not work:
        work.extend(np.empty_like(u, dtype=dtype) for _ in range(count))
        work.append(None)
    *stages, first, second = work
    if len(stages) != count - 1 or first.shape != u.shape or first.dtype != dtype:
        raise ValueError("the workspace belongs to another scheme, shape or dtype")
    if first is not u:
        return [*stages, first]
    if second is None:
        second = work[-1] = np.empty_like(u, dtype=dtype)
    return [*stages, second]


def step(state, t, dt, rhs_fn, scheme: str = "ssprk3", *, work=None):
    """One explicit step.  Works on states and on plain arrays.

    Calls ``rhs_fn(state)`` once per stage and returns the new state, of
    the input's kind.  It is a fresh buffer, or with ``work`` (an empty
    list at first, kept by the caller between steps of one scheme) the
    workspace's result buffer that is not the input; see the module
    docstring.
    """
    if not dt > 0:
        raise ValueError("dt must be positive")
    if scheme not in SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}")
    u = _array(state)
    wrap = (lambda buf: buf) if u is state else type(state)
    if work is None:
        work = []

    def rhs(buf):
        return _array(rhs_fn(wrap(buf)))

    k = _array(rhs_fn(state))
    dtype = np.result_type(u, k, dt)
    if scheme == "ssprk3":
        # u1 = u + dt k(u), u2 = 0.75 u + 0.25 (u1 + dt k(u1)),
        # result = 1/3 u + 2/3 (u2 + dt k(u2))
        a, r = _buffers(work, u, dtype, 2)
        _stage(a, u, dt, k, "stage 1")
        k = rhs(a)
        np.multiply(np.add(a, np.multiply(k, dt, out=r), out=r), 0.25, out=r)
        np.add(np.multiply(u, 0.75, out=a), r, out=a)
        _check(a, "stage 2")
        k = rhs(a)
        third = 1.0 / 3.0
        np.multiply(np.add(a, np.multiply(k, dt, out=r), out=r), 2.0 * third, out=r)
        np.add(np.multiply(u, third, out=a), r, out=r)
        _check(r, "stage 3")
        return wrap(r)
    # rk4: acc = ((k1 + 2 k2) + 2 k3) + k4, then u + dt/6 acc
    a, tmp, acc = _buffers(work, u, dtype, 3)
    half = 0.5 * dt
    np.copyto(acc, k)
    _stage(a, u, half, k, "stage 1")
    k = rhs(a)
    np.add(acc, np.multiply(k, 2.0, out=tmp), out=acc)
    _stage(a, u, half, k, "stage 2")
    k = rhs(a)
    np.add(acc, np.multiply(k, 2.0, out=tmp), out=acc)
    _stage(a, u, dt, k, "stage 3")
    k = rhs(a)
    np.add(acc, k, out=acc)
    _stage(acc, u, dt / 6.0, acc, "stage 4")
    return wrap(acc)


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
    data = _array(u)
    return max(float(data.max()), -float(data.min()))


def advance(state, grid, model, rhs_fn, t_end, integrator: TimeIntegrator, on_step=None):
    """Integrate to t_end; returns (state, t, number of steps taken).

    ``on_step(state, t, n)`` is invoked after every accepted step.  The
    steps share one workspace (see the module docstring), so the state
    handed to ``on_step`` is valid until the next step.  No reference
    to ``state`` is kept past step 1, and the workspace's second result
    buffer is allocated at step 2, so a caller that hands over its only
    reference has the initial buffer freed first.  A
    non-finite initial state raises ValueError.  A step whose state
    exceeds BLOWUP_FACTOR times max(initial max-norm, 1) in absolute
    value raises BlowUpError with its index.
    """
    if not np.isfinite(_array(state)).all():
        raise ValueError("initial state contains non-finite values")
    t = 0.0
    n = 0
    work = []
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
            state = step(state, t, dt, rhs_fn, integrator.scheme, work=work)
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
