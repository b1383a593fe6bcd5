"""Run-level convergence behavior beyond the acceptance minimum."""

import numpy as np
import pytest

from afpg.config import parse_config
from afpg.element1d import build_element
from afpg.grid import Grid1D, error_norms, project_initial
from afpg.harness import convergence_study, run_simulation
from afpg.models import SineIC, advection1d
from afpg.semidiscrete import Upwind1D, rhs_1d
from afpg.timestep import TimeIntegrator, advance


def one_period_l1(k, n, scheme, cfl):
    el = build_element(k)
    model = advection1d(1.0)
    ic = SineIC()
    g = Grid1D(n)
    st = project_initial(g, ic, el)
    rhs_fn = lambda s, out: rhs_1d(s, g, el, model, Upwind1D("adaptive"), out=out)
    st, t, _ = advance(st, g, model, rhs_fn, 1.0, TimeIntegrator(scheme, cfl=cfl))
    exact = model.exact_solution(ic, g)
    return error_norms(st, g, el, lambda x: exact(x, t))


def test_one_extra_moment_gives_fourth_order():
    # K=3 with a fourth-order integrator so the spatial order is visible
    errs = [one_period_l1(3, n, "rk4", 0.2)[0] for n in (10, 20, 40)]
    eocs = [np.log2(errs[i] / errs[i + 1]) for i in range(2)]
    assert all(e >= 3.8 for e in eocs), eocs


def test_k4_reaches_fifth_order_at_reduced_cfl():
    # the spectral radius of the spatial operator grows with K; K=4 needs
    # a smaller step for the explicit integrators
    errs = [one_period_l1(4, n, "rk4", 0.1)[0] for n in (10, 20)]
    eoc = np.log2(errs[0] / errs[1])
    assert eoc >= 4.5, eoc


def test_one_period_error_stays_at_projection_scale():
    # after one full period the exact solution is the initial condition;
    # the accumulated error has the same h^3 scale as the projection error
    el = build_element(2)
    model = advection1d(1.0)
    ic = SineIC()
    g = Grid1D(40)
    st0 = project_initial(g, ic, el)
    proj_l1 = error_norms(st0, g, el, ic)[0]
    final_l1 = one_period_l1(2, 40, "ssprk3", 0.2)[0]
    assert final_l1 <= 50 * proj_l1
    assert final_l1 >= proj_l1 * 0.1


def _config(pairs):
    return parse_config("".join(f"{key}={value}\n" for key, value in pairs.items()))


@pytest.mark.parametrize("case, origin, shift, linf_max", [
    ({"grid.n": 40, "time.t_end": 0.5}, (0.0,), (0.5,), 3e-4),
    ({"k": 3, "grid.n": 20, "time.t_end": 0.5}, (0.0,), (-1.75,), 5e-5),
    ({"dimension": 2, "grid.nx": 12, "grid.ny": 8, "time.t_end": 0.25}, (0.0, 0.0),
     (0.5, -0.75), 2e-2),
], ids=["1d-k2", "1d-k3", "2d"])
def test_shifted_domain_run_meets_its_exact_solution(case, origin, shift, linf_max):
    # the same run on a domain moved by ``shift``, of length 1 in x and
    # 1.5 in y (in 2-d with nx != ny), has the same error against its own
    # exact solution: every coordinate, stored points included, follows
    # x_min and y_min
    lengths = (1.0, 1.5)
    norms = []
    for lows in (origin, shift):
        pairs = dict(case)
        for axis, lo, length in zip("xy", lows, lengths):
            pairs[f"grid.{axis}_min"], pairs[f"grid.{axis}_max"] = lo, lo + length
        norms.append(run_simulation(_config(pairs)).norms)
    assert norms[1][2] < linf_max
    assert norms[1] == pytest.approx(norms[0], rel=1e-9)


@pytest.mark.parametrize("velocity, order", [((1, 0), 2), ((0, -1), 2), ((1, 1), 3)])
def test_2d_order_depends_on_the_flow_angle(velocity, order):
    # oblique flow converges at third order; flow along a grid axis at
    # second, since its edge_y and node rows form a point-value difference
    # that never reads an average (RK4 at cfl 0.1 keeps the time error out)
    cfg = _config({"dimension": 2, "model.ax": velocity[0], "model.ay": velocity[1],
                   "time.scheme": "rk4", "time.cfl": 0.1})
    rows = convergence_study(cfg, [16, 32, 64])
    assert [row["eoc_l2"] for row in rows[1:]] == pytest.approx([order] * 2, abs=0.05)
