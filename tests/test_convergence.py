"""Run-level convergence behavior beyond the acceptance minimum."""

import numpy as np

from afpg.element1d import build_element
from afpg.grid import Grid1D, error_norms, project_initial
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
