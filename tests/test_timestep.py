"""Time integrator tests: stability polynomials, dt control, diagnostics."""

import json
import math
import os
import subprocess
import sys
import textwrap
import tracemalloc
import weakref
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import afpg
from afpg import semidiscrete
from afpg.element1d import build_element
from afpg.element2d import build_element_2d
from afpg.grid import Grid1D, Grid2D, State1D, State2D, project_initial, total_mass
from afpg.linear_step import (
    StepOperator1D,
    _exact_step_1d,
    _step_columns_1d,
    _step_weights_1d,
)
from afpg.models import Sine2DIC, SineIC, advection1d, advection2d, burgers1d, linear_system1d
from afpg.semidiscrete import Upwind1D, Upwind2D, _tile_plan_1d, _unit_1d, rhs_1d, rhs_2d
from afpg.timestep import (
    BLOWUP_FACTOR,
    BlowUpError,
    TimeIntegrator,
    advance,
    compute_dt,
    step,
)


def _buffer(u):
    return u if isinstance(u, np.ndarray) else u.data


def _checked(u, stage):
    if not np.all(np.isfinite(u)):
        raise BlowUpError(f"non-finite state after {stage}")
    return u


def oracle_step(state, t, dt, rhs_fn, scheme):
    """The stepper as operator expressions on the state's buffer, one fresh
    array per operation; the result is wrapped in the state's type."""
    wrap = (lambda u: u) if isinstance(state, np.ndarray) else type(state)

    def f(u):
        return _buffer(rhs_fn(wrap(u)))

    u = _buffer(state)
    if scheme == "ssprk3":
        u1 = _checked(u + dt * f(u), "stage 1")
        u2 = _checked(0.75 * u + 0.25 * (u1 + dt * f(u1)), "stage 2")
        third = 1.0 / 3.0
        return wrap(_checked(third * u + (2.0 * third) * (u2 + dt * f(u2)), "stage 3"))
    k1 = f(u)
    k2 = f(_checked(u + (0.5 * dt) * k1, "stage 1"))
    k3 = f(_checked(u + (0.5 * dt) * k2, "stage 2"))
    k4 = f(_checked(u + dt * k3, "stage 3"))
    return wrap(_checked(u + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4), "stage 4"))


def oracle_horner(state, dt, rhs_fn, scheme):
    """R(dt L) u by Horner, one fresh array per operation: v = u, then
    v = u + (dt/j) L(v) for j = s, ..., 1."""
    wrap = (lambda u: u) if isinstance(state, np.ndarray) else type(state)
    u = _buffer(state)
    s = {"ssprk3": 3, "rk4": 4}[scheme]
    v = u
    for j in range(s, 0, -1):
        v = _checked(u + (dt / j) * _buffer(rhs_fn(wrap(v))), f"stage {s + 1 - j}")
    return wrap(v)


def _problem(case):
    """(state, dt, rhs_fn) of one bit-identity case."""
    rng = np.random.default_rng(41)
    if case == "array":
        # signed zeros, subnormals and both signs, with an rhs that mixes neighbours
        u = np.array([-0.0, 0.0, 5e-324, -5e-324, 1e-310, -2.5e-308, -1.5, 3.25, 1e300])
        return u, 0.37, lambda s: -2.1 * s + np.roll(s, 1)
    if case == "scalar_1d":
        g, el = Grid1D(12), build_element(4)
        st = State1D(rng.standard_normal((4, 12)))
        model, up = advection1d(0.8), Upwind1D("adaptive")
        return st, 0.01, lambda s: rhs_1d(s, g, el, model, up)
    if case == "system_1d":
        g, el = Grid1D(10), build_element(3)
        st = State1D(rng.standard_normal((3, 10, 2)))
        model, up = linear_system1d([[0.0, 1.0], [1.0, 0.0]]), Upwind1D("adaptive")
        return st, 0.02, lambda s: rhs_1d(s, g, el, model, up)
    g, el = Grid2D(6, 5), build_element_2d()
    st = State2D(rng.standard_normal((4, 6, 5)))
    model, up = advection2d(0.8, -0.6), Upwind2D("adaptive")
    return st, 0.03, lambda s: rhs_2d(s, g, el, model, up)


class TestInPlaceStages:
    @pytest.mark.parametrize("case", ["array", "scalar_1d", "system_1d", "state_2d"])
    @pytest.mark.parametrize("scheme", ["ssprk3", "rk4"])
    def test_bit_identical_to_operator_expressions(self, scheme, case):
        u, dt, rhs_fn = _problem(case)
        new = step(u, 0.0, dt, rhs_fn, scheme)
        old = oracle_step(u, 0.0, dt, rhs_fn, scheme)
        assert type(new) is type(old)
        assert _buffer(new).tobytes() == _buffer(old).tobytes()

    @pytest.mark.parametrize("case", ["array", "scalar_1d", "state_2d"])
    @pytest.mark.parametrize("scheme", ["ssprk3", "rk4"])
    def test_result_aliases_nothing(self, scheme, case):
        u, dt, rhs_fn = _problem(case)
        before = _buffer(u).copy()
        for fn in (rhs_fn, lambda s: s):  # the second hands its input back
            returned = []

            def recording(s):
                r = fn(s)
                returned.append(_buffer(r))
                return r

            out = _buffer(step(u, 0.0, dt, recording, scheme))
            assert _buffer(u).tobytes() == before.tobytes()
            assert not np.shares_memory(out, _buffer(u))
            assert not any(np.shares_memory(out, r) for r in returned)

    @pytest.mark.parametrize("view", [lambda s: s, lambda s: s[::-1]], ids=["same", "reversed"])
    def test_rk4_k_in_the_stage_buffer(self, view):
        # 2 k cannot go to the stage buffer when k is a view of it
        u, dt, _ = _problem("array")
        new = step(u, 0.0, dt, view, "rk4")
        assert new.tobytes() == oracle_step(u, 0.0, dt, view, "rk4").tobytes()

    def test_consecutive_advance_results_independent(self):
        u, dt, rhs_fn = _problem("state_2d")
        integ = TimeIntegrator("ssprk3", dt=dt)
        first, _, _ = advance(u, None, None, lambda s, out: rhs_fn(s), 2 * dt, integ)
        kept = first.data.copy()
        second, _, _ = advance(first, None, None, lambda s, out: rhs_fn(s), 2 * dt, integ)
        assert np.array_equal(first.data, kept)
        assert not np.shares_memory(first.data, second.data)
        assert not np.shares_memory(first.data, u.data)

    def test_nonfinite_initial_state_rejected(self):
        u = np.array([1.0, np.nan])
        with pytest.raises(ValueError, match="initial state"):
            advance(u, None, None, lambda s, out: -s, 1.0, TimeIntegrator("ssprk3", dt=0.1))


class TestLinearHorner:
    """``linear=True``: the step is R(dt L) u, evaluated by Horner."""

    @pytest.mark.parametrize("case", ["array", "scalar_1d", "system_1d", "state_2d"])
    @pytest.mark.parametrize("scheme", ["ssprk3", "rk4"])
    def test_bit_identical_to_fresh_array_horner(self, scheme, case):
        u, dt, rhs_fn = _problem(case)
        new = step(u, 0.0, dt, rhs_fn, scheme, linear=True)
        old = oracle_horner(u, dt, rhs_fn, scheme)
        assert type(new) is type(old)
        assert _buffer(new).tobytes() == _buffer(old).tobytes()

    @pytest.mark.parametrize("case", ["array", "scalar_1d", "system_1d", "state_2d"])
    @pytest.mark.parametrize("scheme", ["ssprk3", "rk4"])
    def test_within_round_off_of_the_general_stages(self, scheme, case):
        u, dt, rhs_fn = _problem(case)
        new = _buffer(step(u, 0.0, dt, rhs_fn, scheme, linear=True))
        old = _buffer(oracle_step(u, 0.0, dt, rhs_fn, scheme))
        assert np.max(np.abs(new - old)) <= 1e-14 * np.max(np.abs(old))

    @pytest.mark.parametrize("scheme, degree, lam, dt",
                             [("ssprk3", 3, -1.7, 0.3), ("rk4", 4, 0.9, 0.2)])
    def test_amplification_is_the_taylor_polynomial(self, scheme, degree, lam, dt):
        z = lam * dt
        expected = sum(z**m / math.factorial(m) for m in range(degree + 1))
        out = step(np.array([1.0]), 0.0, dt, lambda s: lam * s, scheme, linear=True)
        assert out[0] == pytest.approx(expected, abs=1e-14)

    def test_nonfinite_stage_raises(self):
        with pytest.raises(BlowUpError, match="stage 1"):
            step(np.ones(3), 0.0, 0.1, lambda s: np.full_like(s, np.inf), "rk4", linear=True)

    @pytest.mark.parametrize("view", [lambda s: s, lambda s: s[::-1]], ids=["same", "reversed"])
    @pytest.mark.parametrize("scheme", ["ssprk3", "rk4"])
    def test_k_in_the_stage_buffer(self, scheme, view):
        u, dt, _ = _problem("array")
        new = step(u, 0.0, dt, view, scheme, linear=True)
        assert new.tobytes() == oracle_horner(u, dt, view, scheme).tobytes()


def _owning(rhs_fn):
    """rhs_fn returning one buffer every call, as the harness's right-hand sides do."""
    buf = []

    def rhs(s):
        r = _buffer(rhs_fn(s))
        if not buf:
            buf.append(np.empty_like(r))
        np.copyto(buf[0], r)
        return buf[0] if isinstance(s, np.ndarray) else type(s)(buf[0])

    return rhs


def _into_out(rhs_fn, handed):
    """rhs_fn(state) as advance's rhs_fn(state, out): k goes into the handed
    out, which is returned; every out is recorded in ``handed``."""

    def rhs(s, out):
        handed.append(out)
        np.copyto(out, _buffer(rhs_fn(s)))
        return out if isinstance(s, np.ndarray) else type(s)(out)

    return rhs


class TestWorkspace:
    @pytest.mark.parametrize("case", ["array", "scalar_1d", "system_1d", "state_2d"])
    @pytest.mark.parametrize("scheme", ["ssprk3", "rk4"])
    def test_steps_bit_identical_to_fresh_steps(self, scheme, case):
        u, dt, rhs_fn = _problem(case)
        owning, work = _owning(rhs_fn), []
        fresh = kept = u
        for _ in range(3):
            fresh = step(fresh, 0.0, dt, rhs_fn, scheme)
            kept = step(kept, 0.0, dt, owning, scheme, work=work)
            assert type(kept) is type(fresh)
            assert _buffer(kept).tobytes() == _buffer(fresh).tobytes()

    @pytest.mark.parametrize("case", ["array", "state_2d"])
    @pytest.mark.parametrize("scheme", ["ssprk3", "rk4"])
    def test_results_alternate_and_alias_nothing(self, scheme, case):
        u, dt, rhs_fn = _problem(case)
        before = _buffer(u).copy()
        owning, work = _owning(rhs_fn), []

        def checked_step(state):
            # every buffer rhs_fn saw or returned, but the step's input
            seen = []

            def recording(s):
                r = owning(s)
                seen.extend(b for b in (_buffer(s), _buffer(r)) if b is not _buffer(state))
                return r

            out = step(state, 0.0, dt, recording, scheme, work=work)
            assert not np.shares_memory(_buffer(out), _buffer(state))
            assert not any(np.shares_memory(_buffer(out), b) for b in seen)
            return out

        first = checked_step(u)
        kept = _buffer(first).copy()
        second = checked_step(first)
        assert _buffer(first).tobytes() == kept.tobytes()  # intact through the next step
        third = checked_step(second)
        assert _buffer(third) is _buffer(first)
        assert _buffer(u).tobytes() == before.tobytes()

    def test_advance_matches_fresh_steps_and_hands_on_each_state(self):
        u, dt, rhs_fn = _problem("state_2d")
        fresh, states = u, []
        for _ in range(4):
            fresh = step(fresh, 0.0, dt, rhs_fn, "rk4")
            states.append(fresh.data.tobytes())
        seen, owning = [], _owning(rhs_fn)
        final, _, n = advance(u, None, None, lambda s, out: owning(s), 4 * dt,
                              TimeIntegrator("rk4", dt=dt),
                              on_step=lambda s, t, i: seen.append(s.data.tobytes()))
        assert n == 4 and seen == states and final.data.tobytes() == states[-1]

    @pytest.mark.parametrize("case", ["array", "scalar_1d", "system_1d", "state_2d"])
    @pytest.mark.parametrize("scheme", ["ssprk3", "rk4"])
    def test_advance_with_k_in_the_handed_buffer_matches_fresh_steps(self, scheme, case):
        u, dt, rhs_fn = _problem(case)
        fresh, states, t = u, [], 0.0
        for _ in range(3):  # the steps of advance, the last one to 3 dt exactly
            h = min(dt, 3 * dt - t)
            fresh = step(fresh, t, h, rhs_fn, scheme)
            states.append(_buffer(fresh).tobytes())
            t += h
        handed, seen = [], []

        def on_step(s, t, i):
            seen.append(_buffer(s).tobytes())
            if scheme == "rk4":  # the running sum never shares the k buffer
                assert not any(np.shares_memory(_buffer(s), out) for out in handed)

        final, _, n = advance(u, None, None, _into_out(rhs_fn, handed), 3 * dt,
                              TimeIntegrator(scheme, dt=dt), on_step=on_step)
        assert n == 3 and seen == states and _buffer(final).tobytes() == states[-1]
        assert len(handed) == 3 * (3 if scheme == "ssprk3" else 4)
        if scheme == "ssprk3":  # k turned into the result in place
            assert _buffer(final) is handed[-1]
        else:
            assert all(out is handed[0] for out in handed)

    @pytest.mark.parametrize("linear", [True, False], ids=["linear", "nonlinear"])
    @pytest.mark.parametrize("case", ["array", "scalar_1d", "system_1d", "state_2d"])
    @pytest.mark.parametrize("scheme", ["ssprk3", "rk4"])
    def test_advance_steps_by_the_models_linearity(self, scheme, case, linear):
        # a linear model's steps are Horner's, k lands in the result buffer
        # under either scheme and RK4 hands over no k buffer of its own
        u, dt, rhs_fn = _problem(case)
        fresh, states, t = u, [], 0.0
        for _ in range(3):  # the steps of advance, the last one to 3 dt exactly
            h = min(dt, 3 * dt - t)
            fresh = (oracle_horner(fresh, h, rhs_fn, scheme) if linear
                     else oracle_step(fresh, t, h, rhs_fn, scheme))
            states.append(_buffer(fresh).tobytes())
            t += h
        handed, seen, results = [], [], []

        def on_step(s, t, i):
            seen.append(_buffer(s).tobytes())
            results.append(_buffer(s))

        final, _, n = advance(u, None, SimpleNamespace(is_linear=linear),
                              _into_out(rhs_fn, handed), 3 * dt,
                              TimeIntegrator(scheme, dt=dt), on_step=on_step)
        stages = 3 if scheme == "ssprk3" else 4
        assert n == 3 and seen == states and _buffer(final).tobytes() == states[-1]
        assert len(handed) == 3 * stages
        if linear or scheme == "ssprk3":  # every out is the result of its step
            assert all(out is r for i, r in enumerate(results)
                       for out in handed[i * stages:(i + 1) * stages])
        else:
            assert all(out is handed[0] for out in handed)

    def test_workspace_serves_either_scheme_and_rejects_another_shape(self):
        u, dt, rhs_fn = _problem("array")
        work = []
        step(u, 0.0, dt, rhs_fn, "rk4", work=work)
        fresh = step(u, 0.0, dt, rhs_fn, "ssprk3")
        assert step(u, 0.0, dt, rhs_fn, "ssprk3", work=work).tobytes() == fresh.tobytes()
        with pytest.raises(ValueError, match="workspace"):
            step(u[:-1], 0.0, dt, rhs_fn, "rk4", work=work)

    def test_second_result_buffer_comes_at_step_2(self):
        u, dt, rhs_fn = _problem("array")
        work = []
        first = step(u, 0.0, dt, rhs_fn, "ssprk3", work=work)
        assert len(work) == 3 and work[1] is first and work[2] is None
        second = step(first, 0.0, dt, rhs_fn, "ssprk3", work=work)
        assert work[2] is second and step(second, 0.0, dt, rhs_fn, "ssprk3", work=work) is first

    def test_time_loop_frees_an_unreferenced_initial_state(self):
        # advance keeps no reference to its input past step 1 and allocates
        # the second result buffer at step 2, so from the moment the initial
        # state exists a 160^2 SSPRK3 loop holds three state-sized buffers
        # (the initial state or a result, one stage, one result), not four;
        # k lives in the result buffer, which advance hands the rhs as out
        n = 160
        grid, element = Grid2D(n, n), build_element_2d()
        model, upwind = advection2d(1.0, 1.0), Upwind2D("adaptive")
        ic = Sine2DIC(0.1, 1.0)
        out = np.empty((4, n, n))
        rhs_2d(project_initial(grid, ic), grid, element, model, upwind, out=out)  # its tile
        refs, freed = [], []

        def initial_state():
            state = project_initial(grid, ic)
            refs.append(weakref.ref(state.data))
            tracemalloc.reset_peak()
            return state

        dt = 0.2 / n
        tracemalloc.start()
        try:
            advance(initial_state(), grid, model,
                    lambda s, out: rhs_2d(s, grid, element, model, upwind, assume_finite=True,
                                          out=out),
                    3 * dt, TimeIntegrator("ssprk3", dt=dt),
                    on_step=lambda s, t, i: freed.append(refs[0]() is None))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert freed == [True, True, True]
        assert peak < 3.5 * out.nbytes

    def test_rk4_time_loop_holds_three_state_sized_buffers(self):
        # RK4 forms 2 k in its stage buffer, so a K=4 loop holds three
        # state-sized buffers (the initial state or a result, one stage, one
        # result) and not a fourth for 2 k, besides the k buffer advance
        # hands the right-hand side; it writes into that buffer and allocates
        # nothing, so the peak is the loop's own (rhs_1d's gathered dofs
        # would add about two state sizes)
        n = 2048
        grid, element = Grid1D(n), build_element(4)
        ic = SineIC(0.1, 1.0)
        out = np.empty_like(project_initial(grid, ic, element).data)  # caches filled
        refs, freed = [], []

        def initial_state():
            state = project_initial(grid, ic, element)
            refs.append(weakref.ref(state.data))
            tracemalloc.reset_peak()
            return state

        dt = 0.05 / n
        tracemalloc.start()
        try:
            advance(initial_state(), grid, None,
                    lambda s, out: State1D(np.multiply(s.data, -1.0, out=out)),
                    3 * dt, TimeIntegrator("rk4", dt=dt),
                    on_step=lambda s, t, i: freed.append(refs[0]() is None))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert freed == [True, True, True]
        assert peak < 4.5 * out.nbytes

    def test_linear_rk4_time_loop_holds_no_k_buffer(self):
        # a linear model steps RK4 by Horner with k in the result buffer,
        # so the loop holds three state-sized buffers, one fewer than the
        # nonlinear RK4 loop above with its k buffer
        n = 2048
        grid, element = Grid1D(n), build_element(4)
        ic = SineIC(0.1, 1.0)
        out = np.empty_like(project_initial(grid, ic, element).data)  # caches filled
        refs, handed = [], []

        def initial_state():
            state = project_initial(grid, ic, element)
            refs.append(weakref.ref(state.data))
            tracemalloc.reset_peak()
            return state

        def rhs_fn(s, out):
            handed.append(out)
            return State1D(np.multiply(s.data, -1.0, out=out))

        dt = 0.05 / n
        tracemalloc.start()
        try:
            final, _, _ = advance(initial_state(), grid, advection1d(1.0), rhs_fn, 3 * dt,
                                  TimeIntegrator("rk4", dt=dt))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert refs[0]() is None and final.data is handed[-1]
        assert len({id(b) for b in handed}) == 2  # the two result buffers
        assert peak < 3.5 * out.nbytes

    @pytest.mark.skipif(not sys.platform.startswith("linux"),
                        reason="reads Linux minor page faults")
    def test_time_loop_faults_in_no_state_sized_buffers(self):
        # a fresh process with no projection, whose large frees would raise
        # glibc's mmap and trim thresholds: buffers allocated per step were
        # unmapped and faulted back in every step (about 770 faults per
        # SSPRK3 step at 160^2)
        script = textwrap.dedent("""
            import json, resource
            import numpy as np
            from afpg.element2d import build_element_2d
            from afpg.grid import Grid2D, State2D
            from afpg.models import advection2d
            from afpg.semidiscrete import Upwind2D, rhs_2d
            from afpg.timestep import TimeIntegrator, advance

            n = 160
            grid, element = Grid2D(n, n), build_element_2d()
            model, upwind = advection2d(1.0, 1.0), Upwind2D("adaptive")
            x = (np.arange(n) + 0.5) / n
            field = np.sin(2.0 * np.pi * (x[:, None] + x[None, :]))
            state = State2D(np.stack([field] * 4))

            def rhs_fn(s, out):
                return rhs_2d(s, grid, element, model, upwind, assume_finite=True, out=out)

            faults = []
            on_step = lambda s, t, i: faults.append(
                resource.getrusage(resource.RUSAGE_SELF).ru_minflt)
            dt = 0.2 / n
            advance(state, grid, model, rhs_fn, 21 * dt, TimeIntegrator("ssprk3", dt=dt),
                    on_step=on_step)
            print(json.dumps(faults))
        """)
        env = dict(os.environ)
        src = str(Path(afpg.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
        proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                              text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        faults = json.loads(proc.stdout)
        assert len(faults) == 21
        assert (faults[20] - faults[0]) / 20 < 50  # steps 2..21


# the 1-d linear models a StepOperator1D serves: both scalar signs and a
# two-sided system
_MODELS_1D = {
    "a=+1": lambda: advection1d(1.0),
    "a=-1": lambda: advection1d(-1.0),
    "0,1;1,0": lambda: linear_system1d([[0.0, 1.0], [1.0, 0.0]]),
}


def _shape_1d(k, n, model):
    return (k, n) if model.m == 1 else (k, n, model.m)


def _dense_step(grid, k, model, dt, order):
    """R(dt L) as a dense matrix on the flattened state: column j of L is
    rhs_1d of the j-th unit state, R its Taylor polynomial of degree
    ``order``, summed in floats."""
    element, shape = build_element(k), _shape_1d(k, grid.n, model)
    size = math.prod(shape)
    lhs = np.empty((size, size))
    for j, unit in enumerate(np.eye(size)):
        lhs[:, j] = rhs_1d(State1D(unit.reshape(shape)), grid, element, model,
                           Upwind1D()).data.ravel()
    total, term = np.eye(size), np.eye(size)
    for j in range(1, order + 1):
        term = term @ (dt * lhs) / j
        total += term
    return total


class TestStepOperator1D:
    """A 1-d linear step as one composed operator R(dt L)."""

    @pytest.mark.parametrize("n", [3, 4, 5])
    @pytest.mark.parametrize("model", list(_MODELS_1D))
    @pytest.mark.parametrize("k", range(2, 7))
    def test_one_step_matches_the_dense_taylor_polynomial(self, k, model, n):
        # on 3 to 5 cells an RK4 step reaches past the whole grid, so every
        # weight wraps around the periodic grid, some more than once
        grid, model = Grid1D(n), _MODELS_1D[model]()
        dt = 0.3 * grid.dx
        u = np.random.default_rng(10 * k + n).standard_normal(_shape_1d(k, n, model))
        for order in (3, 4):
            new = StepOperator1D(grid, model, k)(u, dt, order, None)
            ref = (_dense_step(grid, k, model, dt, order) @ u.ravel()).reshape(u.shape)
            assert np.max(np.abs(new - ref)) <= 1e-14 * np.max(np.abs(ref))

    @pytest.mark.parametrize("n", [3, 5, 37, 1000])
    @pytest.mark.parametrize("model", list(_MODELS_1D))
    @pytest.mark.parametrize("k", range(2, 7))
    def test_bytes_do_not_depend_on_the_tile(self, monkeypatch, k, model, n):
        # every GEMM sums at most GEMM_TERMS columns over at least two
        # cells, so each output is summed in one order wherever its cell
        # sits: the smallest tile (three cells), the default and the whole
        # grid give the same bytes
        grid, model = Grid1D(n), _MODELS_1D[model]()
        op, m = StepOperator1D(grid, model, k), model.m
        u = np.random.default_rng(n).standard_normal(_shape_1d(k, n, model))
        for order in (3, 4):
            columns = _step_columns_1d(k, op.matrices, order)
            rows = _tile_plan_1d(n, m, k * m, columns, 0)[0][0]
            budgets = [(rows * 8, min(n, 3)),
                       (semidiscrete.TILE_BYTES,
                        min(n, max(3, semidiscrete.TILE_BYTES // (rows * 8)))),
                       (rows * 8 * n, n)]
            results = []
            for budget, cells in budgets:
                monkeypatch.setattr(semidiscrete, "TILE_BYTES", budget)
                results.append(op(u, 0.2 * grid.dx, order, None).tobytes())
                assert _tile_plan_1d(n, m, k * m, columns, budget)[0] == (rows, cells)
            monkeypatch.undo()
            assert results[0] == results[1] == results[2]

    @pytest.mark.parametrize("model", list(_MODELS_1D))
    @pytest.mark.parametrize("k", range(2, 7))
    def test_composed_blocks_conserve_mass_exactly(self, k, model):
        # moment 0 of each component is its cell average: summed over the
        # offsets, its row of R(dt L) is e_0, in Fraction
        matrices, _ = _unit_1d(_MODELS_1D[model]())
        m = len(matrices[0])
        for order, nu in ((3, Fraction(1, 5)), (4, Fraction(7, 3))):
            blocks = _exact_step_1d(k, matrices, nu, order)
            assert all(isinstance(w, Fraction) for b in blocks.values() for w in b.flat)
            rows = sum(b[:m] for b in blocks.values())
            assert (rows == np.eye(m, k * m, dtype=int)).all()

    @pytest.mark.parametrize("model", list(_MODELS_1D))
    @pytest.mark.parametrize("k", range(2, 7))
    def test_every_float_weight_is_its_exact_value_rounded(self, k, model):
        # the weights of R - I, each float() of its exact value, on columns
        # that hold every nonzero weight
        grid = Grid1D(40)
        op = StepOperator1D(grid, _MODELS_1D[model](), k)
        dt = 0.07 * grid.dx
        nu = Fraction(op.speed) * Fraction(dt) / Fraction(grid.dx)
        for order in (3, 4):
            weights = _step_weights_1d(k, op.matrices, op.speed, dt, grid.dx, order)
            exact = _exact_step_1d(k, op.matrices, nu, order)
            columns = _step_columns_1d(k, op.matrices, order)
            for j, (field, o) in enumerate(columns):
                for r in range(len(weights)):
                    w = exact[o][r, field] if o in exact else Fraction(0)
                    assert weights[r, j] == float(w - (o == 0 and r == field))
            nonzero = {(field, o) for o, b in exact.items()
                       for field in np.flatnonzero((b != 0).any(axis=0))}
            assert nonzero <= set(columns)

    def test_step_holds_two_results_and_no_stage_buffer(self):
        grid, model, k = Grid1D(12), advection1d(0.8), 3
        op, dt = StepOperator1D(grid, model, k), 0.3 * grid.dx
        u = State1D(np.random.default_rng(5).standard_normal((k, 12)))
        work = []
        first = step(u, 0.0, dt, None, "rk4", work=work, step_operator=op)
        assert type(first) is State1D and work[0] is None and first.data is work[1]
        assert first.data.tobytes() == op(u.data, dt, 4, None).tobytes()
        second = step(first, 0.0, dt, None, "rk4", work=work, step_operator=op)
        assert work[0] is None and second.data is work[2]
        assert step(second, 0.0, dt, None, "rk4", work=work, step_operator=op).data is work[1]

    def test_nonfinite_step_raises(self):
        # dt = 1e300 overflows R's weights: the step's result is not finite
        grid, model = Grid1D(8), advection1d(1.0)
        u = np.random.default_rng(6).standard_normal((2, 8))
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(BlowUpError,
                                                                         match="after the step"):
            step(u, 0.0, 1e300, None, "ssprk3", step_operator=StepOperator1D(grid, model, 2))

    @pytest.mark.parametrize("scheme, order", [("ssprk3", 3), ("rk4", 4)])
    def test_advance_steps_by_the_operator_alone(self, scheme, order):
        # no right-hand side is called; each step, the last one partial, is
        # the operator applied to the state before it
        grid, model = Grid1D(10), linear_system1d([[0.0, 1.0], [1.0, 0.0]])
        op, dt = StepOperator1D(grid, model, 3), 0.2 * grid.dx
        u = State1D(np.random.default_rng(7).standard_normal((3, 10, 2)))
        expected, t = u.data, 0.0
        while t < 2.5 * dt - 1e-14:
            h = min(dt, 2.5 * dt - t)
            expected, t = op(expected, h, order, None), t + h

        def rhs_fn(s, out):
            raise AssertionError("rhs_fn called")

        final, _, n = advance(u, grid, model, rhs_fn, 2.5 * dt, TimeIntegrator(scheme, dt=dt),
                              step_operator=op)
        assert n == 3 and final.data.tobytes() == expected.tobytes()

    def test_rejects_another_model_or_grid(self):
        with pytest.raises(ValueError, match="linear model"):
            StepOperator1D(Grid1D(8), burgers1d(), 2)
        op = StepOperator1D(Grid1D(8), advection1d(1.0), 2)
        with pytest.raises(ValueError, match="state size"):
            op(np.zeros((2, 9)), 0.01, 3, None)


class TestStep:
    def test_zero_rhs_fixed_point(self):
        u = np.array([1.0, -2.0, 3.0])
        for scheme in ("ssprk3", "rk4"):
            out = step(u, 0.0, 0.1, lambda s: 0.0 * s, scheme)
            assert np.allclose(out, u, atol=0)

    def test_ssprk3_amplification(self):
        # q' = lambda q: one step multiplies by 1 + z + z^2/2 + z^3/6
        lam = -1.7
        dt = 0.3
        z = lam * dt
        u = np.array([1.0])
        out = step(u, 0.0, dt, lambda s: lam * s, "ssprk3")
        expected = 1 + z + z**2 / 2 + z**3 / 6
        assert out[0] == pytest.approx(expected, abs=1e-14)

    def test_rk4_amplification(self):
        lam = 0.9
        dt = 0.2
        z = lam * dt
        out = step(np.array([1.0]), 0.0, dt, lambda s: lam * s, "rk4")
        expected = 1 + z + z**2 / 2 + z**3 / 6 + z**4 / 24
        assert out[0] == pytest.approx(expected, abs=1e-14)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            step(np.ones(1), 0.0, -0.1, lambda s: s)
        with pytest.raises(ValueError):
            step(np.ones(1), 0.0, 0.1, lambda s: s, "ab2")

    def test_nonfinite_stage_raises(self):
        def bad_rhs(s):
            return np.full_like(s, np.inf)

        with pytest.raises(BlowUpError):
            step(np.ones(3), 0.0, 0.1, bad_rhs, "ssprk3")


class TestComputeDt:
    def test_1d_formula(self):
        g = Grid1D(10)
        el = build_element(2)
        st = project_initial(g, SineIC(), el)
        assert compute_dt(st, g, advection1d(2.0), 0.2) == pytest.approx(0.2 * 0.1 / 2.0)

    def test_2d_formula(self):
        g = Grid2D(10, 20)
        st = project_initial(g, lambda x, y: 1.0 + 0.0 * np.asarray(x))
        dt = compute_dt(st, g, advection2d(1.0, 1.0), 0.2)
        assert dt == pytest.approx(0.2 * 0.05 / 1.0)

    def test_burgers_speed(self):
        g = Grid1D(10)
        el = build_element(2)
        st = project_initial(g, lambda x: 4.0 * np.sin(2 * np.pi * np.asarray(x)), el)
        dt = compute_dt(st, g, burgers1d(), 0.2)
        assert dt == pytest.approx(0.2 * 0.1 / np.max(np.abs(st.points)))

    def test_zero_speed_is_inf(self):
        g = Grid1D(10)
        el = build_element(2)
        st = project_initial(g, SineIC(), el)
        assert math.isinf(compute_dt(st, g, advection1d(0.0), 0.2))


class TestAdvance:
    def test_ssprk3_observed_order(self):
        # scalar ODE q' = -q integrated to t=1 at shrinking dt
        errs = []
        for nsteps in (20, 40):
            dt = 1.0 / nsteps
            u = np.array([1.0])
            for _ in range(nsteps):
                u = step(u, 0.0, dt, lambda s: -s, "ssprk3")
            errs.append(abs(u[0] - math.exp(-1.0)))
        order = math.log2(errs[0] / errs[1])
        assert order == pytest.approx(3.0, abs=0.05)

    def test_mass_conserved_over_1000_steps(self):
        g = Grid1D(24)
        el = build_element(2)
        ic = SineIC(mean=1.0, amplitude=0.5)
        st0 = project_initial(g, ic, el)
        model = advection1d(1.0)
        up = Upwind1D("adaptive")
        rhs_fn = lambda s, out: rhs_1d(s, g, el, model, up, out=out)
        dt = compute_dt(st0, g, model, 0.2)
        integ = TimeIntegrator("ssprk3", dt=dt)
        st, t, n = advance(st0, g, model, rhs_fn, 1000 * dt, integ)
        assert n == 1000
        m0, m1 = total_mass(st0, g), total_mass(st, g)
        assert abs(m1 - m0) <= 1e-13 * abs(m0)

    def test_blowup_reports_step_index(self):
        g = Grid1D(16)
        el = build_element(2)
        st0 = project_initial(g, SineIC(mean=1.0), el)
        model = advection1d(1.0)
        rhs_fn = lambda s, out: rhs_1d(s, g, el, model, Upwind1D("adaptive"), out=out)
        integ = TimeIntegrator("ssprk3", cfl=1000.0)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(BlowUpError) as info:
                advance(st0, g, model, rhs_fn, 20000.0, integ)
        assert info.value.step_index is not None

    def test_final_time_hit_exactly(self):
        g = Grid1D(8)
        el = build_element(2)
        st0 = project_initial(g, SineIC(), el)
        model = advection1d(1.0)
        rhs_fn = lambda s, out: rhs_1d(s, g, el, model, Upwind1D("adaptive"), out=out)
        st, t, n = advance(st0, g, model, rhs_fn, 0.1003, TimeIntegrator("ssprk3", cfl=0.2))
        assert t == pytest.approx(0.1003, abs=1e-14)

    def test_integrator_validation(self):
        with pytest.raises(ValueError):
            TimeIntegrator("leapfrog")
        with pytest.raises(ValueError):
            TimeIntegrator("ssprk3", cfl=-1.0)
        with pytest.raises(ValueError):
            TimeIntegrator("ssprk3", dt=-0.5)

    def test_2d_mass_conserved(self):
        g = Grid2D(8, 8)
        st0 = project_initial(g, lambda x, y: 1.0 + 0.3 * np.sin(2 * np.pi * np.asarray(x)))
        from afpg.element2d import build_element_2d

        el = build_element_2d()
        model = advection2d(1.0, 1.0)
        rhs_fn = lambda s, out: rhs_2d(s, g, el, model, Upwind2D("adaptive"), out=out)
        st, t, n = advance(st0, g, model, rhs_fn, 0.5, TimeIntegrator("ssprk3", cfl=0.2))
        assert abs(total_mass(st, g) - total_mass(st0, g)) <= 1e-13


class TestBlowUpGuard:
    @pytest.mark.parametrize("u0, first_bad", [(0.5, 2), (0.05, 3), (-3e3, 2)])
    def test_growth_past_factor_raises_at_its_step(self, u0, first_bad):
        # ssprk3 on u' = 10 u multiplies by R(10) = 1 + 10 + 50 + 1000/6
        # (about 227.7) per step; the bound is BLOWUP_FACTOR * max(|u0|, 1),
        # and a bound without the floor of 1 (u0 = 0.05) or without |u0|
        # (u0 = -3e3) would stop one step earlier
        bound = BLOWUP_FACTOR * max(abs(u0), 1.0)
        growth = [abs(u0) * (1.0 + 10.0 + 50.0 + 1000.0 / 6.0)**n for n in range(1, 10)]
        assert growth.index(next(g for g in growth if g > bound)) == first_bad
        with pytest.raises(BlowUpError, match="max-norm") as info:
            advance(np.array([u0, 0.0]), None, None, lambda s, out: 10.0 * s, 20.0,
                    TimeIntegrator("ssprk3", dt=1.0))
        assert info.value.step_index == first_bad

    @pytest.mark.parametrize("k", [4, 5])
    def test_unstable_default_cfl_raises(self, k):
        # ssprk3 at cfl 0.2 lies past the linear limit for K >= 4: the run
        # used to finish with an L2 error of 1e128 (K=4) or inf (K=5)
        g = Grid1D(40)
        el = build_element(k)
        st0 = project_initial(g, SineIC(), el)
        model = advection1d(1.0)
        rhs_fn = lambda s, out: rhs_1d(s, g, el, model, Upwind1D("adaptive"), out=out)
        with pytest.raises(BlowUpError, match="max-norm") as info:
            advance(st0, g, model, rhs_fn, 1.0, TimeIntegrator("ssprk3", cfl=0.2))
        assert 0 < info.value.step_index < 200
        assert f"(step {info.value.step_index})" in str(info.value)

    def test_stable_k4_rk4_run_unaffected(self):
        g = Grid1D(40)
        el = build_element(4)
        ic = SineIC()
        st0 = project_initial(g, ic, el)
        model = advection1d(1.0)
        rhs_fn = lambda s, out: rhs_1d(s, g, el, model, Upwind1D("adaptive"), out=out)
        st, t, n = advance(st0, g, model, rhs_fn, 1.0, TimeIntegrator("rk4", cfl=0.1))
        assert n >= 400 and t == pytest.approx(1.0, abs=1e-14)
        assert np.max(np.abs(st.data - st0.data)) < 1e-6
