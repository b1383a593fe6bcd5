"""Measure convergence orders for periodic 1-d advection.

The scheme with endpoint values and the cell average (K=2) is third
order; each extra moment raises the order by one, provided the time
integrator keeps up (RK4 below for K=3).

Run as:  python3 demos/advection_convergence_1d.py
"""

import numpy as np

from afpg import (
    Grid1D,
    TimeIntegrator,
    Upwind1D,
    advance,
    advection1d,
    build_element,
    error_norms,
    project_initial,
    rhs_1d,
)
from afpg.models import SineIC


def study(k, grids, scheme, cfl):
    el = build_element(k)
    model = advection1d(1.0)
    ic = SineIC()
    print(f"K = {k}, {scheme}, cfl = {cfl}")
    print(f"  {'N':>5} {'L1':>12} {'Linf':>12} {'EOC_L1':>7} {'EOC_Linf':>9}")
    prev = None
    for n in grids:
        g = Grid1D(n)
        st = project_initial(g, ic, el)
        # advance hands each call a free buffer of the state's shape for k
        rhs_fn = lambda s, out: rhs_1d(s, g, el, model, Upwind1D("adaptive"), out=out)
        st, t, _ = advance(st, g, model, rhs_fn, 1.0, TimeIntegrator(scheme, cfl=cfl))
        exact = model.exact_solution(ic, g)
        l1, _, linf = error_norms(st, g, el, lambda x: exact(x, t))
        if prev is None:
            print(f"  {n:>5} {l1:12.4e} {linf:12.4e} {'-':>7} {'-':>9}")
        else:
            e1 = np.log2(prev[0] / l1)
            ei = np.log2(prev[1] / linf)
            print(f"  {n:>5} {l1:12.4e} {linf:12.4e} {e1:7.3f} {ei:9.3f}")
        prev = (l1, linf)
    print()


def main():
    study(2, (20, 40, 80, 160), "ssprk3", 0.2)
    study(3, (10, 20, 40, 80), "rk4", 0.2)
    print("Note: the spectral radius of the spatial operator grows with K;")
    print("K = 4 needs roughly cfl <= 0.14 with RK4.")


if __name__ == "__main__":
    main()
