"""Diagonal advection of a smooth wave on a periodic square.

Shows third-order convergence and exact mass conservation for the
nine-dof element with sign-adaptive upwinding.

Run as:  python3 demos/advection_2d.py
"""

import numpy as np

from afpg import (
    Grid2D,
    TimeIntegrator,
    Upwind2D,
    advance,
    advection2d,
    build_element_2d,
    error_norms,
    project_initial,
    rhs_2d,
    total_mass,
)


def main():
    el = build_element_2d()
    model = advection2d(1.0, 1.0)
    ic = lambda x, y: 1.0 + 0.5 * np.sin(2 * np.pi * (np.asarray(x) + np.asarray(y)))
    print("advecting 1 + 0.5 sin(2 pi (x+y)) diagonally for one period")
    print(f"  {'N':>5} {'L1':>12} {'Linf':>12} {'EOC_L1':>7} {'mass drift':>11}")
    prev = None
    for n in (10, 20, 40, 80):
        g = Grid2D(n, n)
        st0 = project_initial(g, ic)
        # advance hands each call a free buffer of the state's shape for k
        rhs_fn = lambda s, out: rhs_2d(s, g, el, model, Upwind2D("adaptive"), out=out)
        st, t, _ = advance(st0, g, model, rhs_fn, 1.0, TimeIntegrator("ssprk3", cfl=0.2))
        exact = model.exact_solution(ic, g)
        l1, _, linf = error_norms(st, g, el, lambda x, y: exact(x, y, t))
        drift = abs(total_mass(st, g) - total_mass(st0, g))
        eoc = "-" if prev is None else f"{np.log2(prev / l1):7.3f}"
        print(f"  {n:>5} {l1:12.4e} {linf:12.4e} {eoc:>7} {drift:11.2e}")
        prev = l1
    print()
    print("Edge updates upwind the normal derivative and take the tangential")
    print("one from the (single-valued) trace; node updates blend the four")
    print("one-sided derivatives, two at a time per direction.")


if __name__ == "__main__":
    main()
