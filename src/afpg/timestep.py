"""Explicit method-of-lines integration of the semi-discrete system.

``step`` works on the buffer behind a state (or on a plain array).  Both
schemes need two buffers, a stage buffer and the result, and form every
stage with ``out=`` ufuncs in the same floating-point order as the
textbook expressions, so the result is bit for bit that of ``u + dt*k``
and friends.  RK4 adds each k into its weighted sum, held in the result
buffer, as it arrives, so one k is live at a time; it forms ``2 k`` in
the stage buffer, which ``rhs_fn`` has finished reading and the next
stage overwrites, and allocates a temporary for it only when k shares
memory with the stage buffer.

For a linear, time-invariant right-hand side L (``linear=True``, which
``advance`` sets from ``model.is_linear``) one step of either scheme
is its stability polynomial applied to the state, R(dt L) u, with R
the Taylor polynomial of e^z of degree s = 3 (SSPRK3) or 4 (RK4).
``step`` then evaluates it by Horner: v = u, then v = u + (dt/j) L(v)
for j = s, ..., 1.  Each stage is one ``u + c*k``, the last written
into the result buffer, so a step makes 2s state-sized passes
instead of 12 (SSPRK3) or 18 (RK4), and its result differs from the
general stages' in the last bits only.  For a nonlinear right-hand
side the Horner form is only second order, so Burgers keeps the
general stages.

A 1-d linear run has R(dt L) in closed form instead: the harness hands
``advance`` a ``linear_step.StepOperator1D`` as ``step_operator`` for
1-d advection and linear systems, and each step is that operator's one
call, with no right-hand side and no stage buffer, tested for
finiteness as a stage is.  An opaque ``rhs_fn``, Burgers and every 2-d
run step as above.

Without a workspace ``step`` starts an empty one of its own, so each
call allocates its stage buffer and result afresh and the result is a
fresh buffer.  ``advance`` hands every step of a call the same
workspace instead: the stage buffer and two result buffers, which
serve either scheme.  The first step allocates one result buffer and,
unless it steps by a step operator, the stage buffer; the second
result buffer comes at step 2, the first step whose input is a
result.  Each step writes into the result buffer that is not its
input, so a time loop allocates no new state buffer after step 2 and
the state of step n stays intact through step n + 1.  ``advance``
keeps no reference to its initial state past step 1, so a caller that
keeps none either (the harness) frees that buffer before the second
result buffer is allocated, and the loop holds one state-sized buffer
fewer.  The
result of ``step`` is never the input or a stage state handed to
``rhs_fn``, and never an array ``rhs_fn`` returned, except the one
buffer ``advance`` hands over.

``advance`` calls ``rhs_fn(state, out)``: ``out`` is a free buffer of
the state's shape into which ``rhs_fn`` may write k and return it, so
a right-hand side needs no buffer of its own.  SSPRK3 and every linear
step read each k fully before they write their result buffer, so
``out`` is the result buffer the step will pick, and k turns into the
result in place.  Nonlinear RK4 holds its running sum in the result
buffer, so ``advance`` keeps one k buffer of its own for it.  ``step``
itself calls ``rhs_fn(state)``, with the same arithmetic either way.

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

# each scheme's stage count, which is also its order: its stability
# polynomial is the Taylor polynomial of e^z of that degree
STAGES = {"ssprk3": 3, "rk4": 4}
SCHEMES = tuple(STAGES)

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


def _buffers(work, u, dtype, stage=True):
    """The stage buffer and the result buffer that is not ``u``, from the
    workspace ``work`` (a list: the stage slot, then two result slots).
    The first use fills the first result slot, and the stage slot unless
    ``stage`` is false (a step by a step operator needs none; its stage
    buffer is then None); the second result buffer is allocated when the
    first becomes ``u``."""
    if not work:
        work += [np.empty_like(u, dtype=dtype) if stage else None,
                 np.empty_like(u, dtype=dtype), None]
    elif stage and work[0] is None:
        work[0] = np.empty_like(u, dtype=dtype)
    stage_buf, first, second = work
    if first.shape != u.shape or first.dtype != dtype:
        raise ValueError("the workspace belongs to another shape or dtype")
    if first is not u:
        return stage_buf, first
    if second is None:
        second = work[-1] = np.empty_like(u, dtype=dtype)
    return stage_buf, second


def step(state, t, dt, rhs_fn, scheme: str = "ssprk3", *, work=None, linear=False,
         step_operator=None):
    """One explicit step.  Works on states and on plain arrays.

    Calls ``rhs_fn(state)`` once per stage and returns the new state, of
    the input's kind.  It is a fresh buffer, or with ``work`` (an empty
    list at first, kept by the caller between steps) the
    workspace's result buffer that is not the input; see the module
    docstring.  ``linear`` says that ``rhs_fn`` is a fixed linear map L,
    and steps by Horner's form of the scheme's stability polynomial.
    ``step_operator`` (``op(u, dt, order, out)``, such as
    ``linear_step.StepOperator1D``) computes that polynomial applied to
    the state in one call instead, and ``rhs_fn`` is not called (see the
    module docstring).
    """
    if not dt > 0:
        raise ValueError("dt must be positive")
    if scheme not in SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}")
    u = _array(state)
    wrap = (lambda buf: buf) if u is state else type(state)
    if work is None:
        work = []

    if step_operator is not None:
        r = _buffers(work, u, np.result_type(u, dt), stage=False)[1]
        step_operator(u, dt, STAGES[scheme], r)
        _check(r, "the step")
        return wrap(r)

    def rhs(buf):
        return _array(rhs_fn(wrap(buf)))

    k = _array(rhs_fn(state))
    a, r = _buffers(work, u, np.result_type(u, k, dt))
    if linear:
        # v = u + (dt/j) L(v) for j = s, ..., 1, from v = u: R(dt L) u
        order = STAGES[scheme]
        for j in range(order, 1, -1):
            _stage(a, u, dt / j, k, f"stage {order + 1 - j}")
            k = rhs(a)
        _stage(r, u, dt, k, f"stage {order}")
        return wrap(r)
    if scheme == "ssprk3":
        # u1 = u + dt k(u), u2 = 0.75 u + 0.25 (u1 + dt k(u1)),
        # result = 1/3 u + 2/3 (u2 + dt k(u2))
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
    # rk4: r accumulates ((k1 + 2 k2) + 2 k3) + k4, then becomes u + dt/6 r
    half = 0.5 * dt
    np.copyto(r, k)
    for stage in ("stage 1", "stage 2"):
        _stage(a, u, half, k, stage)
        k = rhs(a)
        # rhs_fn is done with a, so 2 k goes there, unless k lives in a
        np.add(r, np.multiply(k, 2.0, out=None if np.may_share_memory(k, a) else a), out=r)
    _stage(a, u, dt, k, "stage 3")
    k = rhs(a)
    np.add(r, k, out=r)
    _stage(r, u, dt / 6.0, r, "stage 4")
    return wrap(r)


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


def _free_buffer(work, spare, state, dt, scheme, linear):
    """The buffer ``advance`` hands ``rhs_fn`` in the step from ``state``:
    for SSPRK3 and linear steps the result buffer ``_buffers`` picks for
    that step, for nonlinear RK4 the k buffer in ``spare`` (a list),
    allocated at the first call.  Its dtype is the state's with dt's.
    It holds no name for ``state`` past the call."""
    u = _array(state)
    dtype = np.result_type(u, dt)
    if scheme == "ssprk3" or linear:
        return _buffers(work, u, dtype)[1]
    if not spare:
        spare.append(np.empty_like(u, dtype=dtype))
    return spare[0]


def advance(state, grid, model, rhs_fn, t_end, integrator: TimeIntegrator, on_step=None,
            step_operator=None):
    """Integrate to t_end; returns (state, t, number of steps taken).

    Calls ``rhs_fn(state, out)`` once per stage, where ``out`` is a
    free buffer of the state's shape and of the dtype of the state
    with dt (see the module docstring); ``rhs_fn`` may write k into it
    and return it, as the harness's right-hand sides do.  Under SSPRK3,
    and under either scheme for a linear model, the state a step
    returns then lives in that array, and a k of a wider dtype than
    ``out``'s raises ValueError, since ``out`` is that step's result
    buffer.

    A model whose ``is_linear`` is true is stepped with ``linear=True``
    (see ``step``); any other model, or none, with the general stages.
    With a ``step_operator`` every step is that operator's one call
    instead (see ``step``), and ``rhs_fn`` is never called.

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
    work, spare = [], []
    linear = getattr(model, "is_linear", False)
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
        if step_operator is None:
            out = _free_buffer(work, spare, state, dt, integrator.scheme, linear)
        try:
            state = step(state, t, dt, lambda s: rhs_fn(s, out), integrator.scheme, work=work,
                         linear=linear, step_operator=step_operator)
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

