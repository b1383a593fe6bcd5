"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report lines alongside the pytest verdicts.
"""

import random
import time
from fractions import Fraction

import numpy as np

from afpg.element1d import build_element, build_point_test, reconstruct
from afpg.element2d import build_edge_test, build_element_2d, build_node_test, reconstruct2d
from afpg.grid import Grid1D, Grid2D, State1D, State2D, error_norms, project_initial, total_mass
from afpg.models import SineIC, advection1d, advection2d, burgers1d
from afpg.poly import HALF, Poly, gauss_rule, inner
from afpg.semidiscrete import (
    Upwind1D,
    Upwind2D,
    _linear_rows,
    rhs_1d,
    rhs_2d,
)
from afpg.timestep import TimeIntegrator, advance, compute_dt


def report(criterion, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance] criterion {criterion}: {status} {detail}".rstrip())
    assert ok, f"criterion {criterion} failed: {detail}"


def quad_inner(p, q, n):
    rule = gauss_rule(n)
    xs = rule.nodes_array
    pv = np.polynomial.polynomial.polyval(xs, p.float_coeffs)
    qv = np.polynomial.polynomial.polyval(xs, q.float_coeffs)
    return float(np.dot(rule.weights_array, pv * qv))


def test_criterion_1_closed_form_element_match():
    """K=2 basis and test functions match their closed forms exactly."""
    start = time.time()
    el = build_element(2)
    ok = (
        el.basis_moments[0] == Fraction(3, 2) * Poly([1, 0, -4])
        and el.basis_right == Fraction(1, 4) * Poly([1, 2]) * Poly([-1, 6])
        and el.basis_left == Fraction(1, 4) * Poly([-1, 2]) * Poly([1, 6])
    )
    shape_left, shape_right = Poly([-1, 4, 20]), Poly([-1, -4, 20])
    for alpha in (Fraction(-1), Fraction(-1, 2), Fraction(0), Fraction(37, 100), Fraction(1)):
        t = build_point_test(el, alpha)
        ok = ok and t.left == Fraction(3, 4) * (1 + alpha) * shape_left
        ok = ok and t.right == Fraction(3, 4) * (1 - alpha) * shape_right
    elapsed = time.time() - start
    report(1, ok and elapsed < 1.0, f"(exact rational match, {elapsed:.3f}s)")


def test_criterion_2_biorthogonality_suite():
    """All pairings for K in 2..4, four alphas, via quadrature, to 1e-13."""
    start = time.time()
    worst = 0.0
    for k in (2, 3, 4):
        el = build_element(k)
        basis = el.basis()
        n = k + 1
        for alpha in (-1.0, 0.0, 0.37, 1.0):
            t = build_point_test(el, alpha)
            for s, b in enumerate(basis):
                want_left = 0.5 + alpha / 2 if s == k else 0.0
                want_right = 0.5 - alpha / 2 if s == 0 else 0.0
                worst = max(worst, abs(quad_inner(t.left, b, n) - want_left))
                worst = max(worst, abs(quad_inner(t.right, b, n) - want_right))
        for mw in el.moment_weights:
            for s, b in enumerate(basis):
                want = 1.0 if s == mw.k + 1 else 0.0
                worst = max(worst, abs(quad_inner(mw.poly, b, n) - want))
    elapsed = time.time() - start
    report(2, worst <= 1e-13 and elapsed < 5.0, f"(max defect {worst:.2e}, {elapsed:.2f}s)")


def test_criterion_3_stencil_identities():
    """Full-upwind and central interface rows, coefficientwise exact.

    The rows are the ones rhs_1d applies: ``_linear_rows(2)``'s D+ on the
    left cell's dofs (q_left, avg_i, q_mid) and D- on the right cell's
    (q_mid, avg_i+1, q_right), blended by (1+alpha)/2 and (1-alpha)/2.
    Each must also equal its oracle, the exact pairing of the solved test
    pieces with the basis derivatives b_s'.
    """
    el = build_element(2)
    d_plus, d_minus = ([Fraction(w) for w in row] for row in _linear_rows(2)[-2:])

    def blended(alpha):
        row = [HALF * (1 + alpha) * w for w in d_plus] + [Fraction(0)] * 2
        for s, w in enumerate(d_minus):
            row[2 + s] += HALF * (1 - alpha) * w
        return tuple(row)

    def paired(alpha):
        t = build_point_test(el, alpha)
        row = [inner(t.left, b.deriv()) for b in el.basis()] + [Fraction(0)] * 2
        for s, b in enumerate(el.basis()):
            row[2 + s] += inner(t.right, b.deriv())
        return tuple(row)

    up, down, central = (blended(Fraction(alpha)) for alpha in (1, -1, 0))
    ok = (
        up == (2, -6, 4, 0, 0)
        and down == (0, 0, -4, 6, -2)
        and central == (1, -3, 0, 3, -1)
        and (up, down, central) == tuple(paired(alpha) for alpha in (1, -1, 0))
    )

    def fmt(row):
        return "(" + ", ".join(str(w) for w in row) + ")"

    report(3, ok, f"(up={fmt(up)}, down={fmt(down)}, central={fmt(central)})")


def test_criterion_4_burgers_closed_form():
    """Exact-integration Burgers update vs formula and quadrature oracle."""
    rng = np.random.default_rng(2024)
    n = 100
    g = Grid1D(n)
    st = State1D(2, rng.standard_normal(n), rng.standard_normal((n, 1)))
    el = build_element(2)

    def exact_update(state, grid, alpha):
        return rhs_1d(state, grid, el, burgers1d(), Upwind1D("fixed", alpha), "exact").points

    ql, qc, qr = np.roll(st.points, 1), st.points, np.roll(st.points, -1)
    al, ar = st.moments[:, 0], np.roll(st.moments[:, 0], -1)
    worst_formula = 0.0
    for alpha in (-1.0, 0.0, 1.0):
        got = exact_update(st, g, alpha)
        left = (-9 * (ql - 2 * al) ** 2 + 2 * (ql - 12 * al) * qc + 31 * qc**2) / (10 * g.dx)
        right = (9 * (qr - 2 * ar) ** 2 - 2 * (qr - 12 * ar) * qc - 31 * qc**2) / (10 * g.dx)
        expected = -(0.5 * (1 + alpha) * left + 0.5 * (1 - alpha) * right)
        scale = max(np.max(np.abs(expected)), 1.0)
        worst_formula = max(worst_formula, np.max(np.abs(got - expected)) / scale)

    # independent quadrature oracle on a small grid
    from afpg.poly import inner

    n2 = 6
    g2 = Grid1D(n2)
    st2 = State1D(2, rng.standard_normal(n2), rng.standard_normal((n2, 1)))
    worst_quad = 0.0
    for alpha in (-1.0, 0.0, 1.0, 0.4):
        got = exact_update(st2, g2, alpha)
        t = build_point_test(el, Fraction(alpha))
        for i in range(n2):
            dofs_i = [Fraction(st2.points[i - 1]), Fraction(st2.moments[i, 0]), Fraction(st2.points[i])]
            dofs_n = [
                Fraction(st2.points[i]),
                Fraction(st2.moments[(i + 1) % n2, 0]),
                Fraction(st2.points[(i + 1) % n2]),
            ]
            qi = reconstruct(el, dofs_i)
            qn = reconstruct(el, dofs_n)
            val = inner(t.left, qi * qi.deriv()) + inner(t.right, qn * qn.deriv())
            oracle = -float(val / Fraction(1, n2))
            worst_quad = max(worst_quad, abs(got[i] - oracle) / max(abs(oracle), 1.0))
    ok = worst_formula <= 1e-12 and worst_quad <= 1e-12
    report(4, ok, f"(formula defect {worst_formula:.2e}, quadrature defect {worst_quad:.2e})")


def test_criterion_5_2d_structure_theorems():
    """Closed-form basis match, tensor relations, edge-test expansion."""
    el2 = build_element_2d()  # construction itself asserts the closed forms
    el1 = build_element(2)
    b1 = {1: el1.basis_right, -1: el1.basis_left, 0: el1.basis_moments[0]}

    def tens_b(r, s):
        return Poly.tensor(b1[r], b1[s])

    ok = True
    for r, s in ((1, 0), (-1, 0), (0, 1), (0, -1)):
        ok = ok and el2.basis[(r, s)] == Fraction(2, 3) * tens_b(r, s)
    for r in (-1, 1):
        for s in (-1, 1):
            want = tens_b(r, s) + Fraction(1, 6) * tens_b(r, 0) + Fraction(1, 6) * tens_b(0, s)
            ok = ok and el2.basis[(r, s)] == want
    ok = ok and el2.basis[(0, 0)] == tens_b(0, 0)

    t0 = build_point_test(el1, 0)
    a1d = {1: t0.left, -1: t0.right, 0: Poly([1])}

    def tens_a(r, s):
        return Poly.tensor(a1d[r], a1d[s])

    rng = random.Random(314)
    worst = 0.0
    for _ in range(20):
        a1, a2, a3 = (rng.uniform(-1, 1) for _ in range(3))
        t = build_edge_test((a1, a2, a3), "x")
        expected = (
            (8 * Fraction(a1) - 1 - Fraction(a3)) / 2 * tens_a(1, 1)
            + Fraction(3, 2) * (1 + Fraction(a3)) * tens_a(1, 0)
            + (8 * Fraction(a2) - 1 - Fraction(a3)) / 2 * tens_a(1, -1)
        )
        diff = t.pieces[(0, 0)] - expected
        worst = max(worst, max(abs(float(c)) for row in diff.coeffs for c in row))
    ok = ok and worst <= 1e-13
    report(5, ok, f"(expansion defect {worst:.2e})")


def test_criterion_6_2d_derivative_oracles():
    """rhs_2d vs direct pairings on random periodic states.

    Every output entry of rhs_2d must equal the quadrature oracle: minus
    the exact pairing of the solved test pieces (the cell indicator for
    the average, the edge and node pieces) with ax d/dx + ay d/dy of the
    reconstruction.  The free weights are drawn through Upwind2D in fixed
    mode, which ties the node weights to beta as the runtime does.
    """
    rng = np.random.default_rng(99)
    nx = ny = 4
    g = Grid2D(nx, ny)
    el = build_element_2d()
    dx, dy = Fraction(g.dx), Fraction(g.dy)
    worst = 0.0
    for ax, ay in ((1.0, 0.0), (0.0, 1.0), tuple(rng.uniform(-1.5, 1.5, 2))):
        st = State2D(*rng.standard_normal((4, nx, ny)))
        upwind = Upwind2D(
            "fixed",
            alpha3=rng.uniform(-1, 1),
            beta=rng.uniform(-0.5, 0.5),
            edge_alpha1=rng.uniform(-1, 1),
            edge_alpha2=rng.uniform(-1, 1),
            node_alphas=tuple(rng.uniform(-0.5, 0.5, 8)),
        )
        got = rhs_2d(st, g, el, advection2d(ax, ay), upwind)

        edge = (upwind.edge_alpha1, upwind.edge_alpha2, upwind.alpha3)
        beta = Fraction(upwind.beta)
        node = (*upwind.node_alphas, 2 * beta, beta / 2, beta / 2)
        pieces = (
            {(0, 0): Poly([[1]])},
            build_edge_test(edge, "x").pieces,
            build_edge_test(edge, "y").pieces,
            build_node_test(node).pieces,
        )

        def cell_dofs(i, j):
            return {
                (0, 0): st.averages[i % nx, j % ny],
                (-1, 0): st.edge_x[(i - 1) % nx, j % ny],
                (1, 0): st.edge_x[i % nx, j % ny],
                (0, -1): st.edge_y[i % nx, (j - 1) % ny],
                (0, 1): st.edge_y[i % nx, j % ny],
                (-1, -1): st.nodes[(i - 1) % nx, (j - 1) % ny],
                (1, -1): st.nodes[i % nx, (j - 1) % ny],
                (-1, 1): st.nodes[(i - 1) % nx, j % ny],
                (1, 1): st.nodes[i % nx, j % ny],
            }

        flux = {}
        for i in range(nx):
            for j in range(ny):
                recon = reconstruct2d(el, {d: Fraction(v) for d, v in cell_dofs(i, j).items()})
                flux[i, j] = (
                    Fraction(ax) / dx * recon.deriv(0) + Fraction(ay) / dy * recon.deriv(1)
                )
        for out, field_pieces in zip(got.data, pieces):
            for i in range(nx):
                for j in range(ny):
                    oracle = -float(
                        sum(
                            inner(piece, flux[(i + ox) % nx, (j + oy) % ny])
                            for (ox, oy), piece in field_pieces.items()
                        )
                    )
                    worst = max(worst, abs(out[i, j] - oracle) / max(abs(oracle), 1.0))
    report(6, worst <= 1e-11, f"(max relative defect {worst:.2e})")


def test_criterion_7_conservation_1000_steps():
    """Mass drift over exactly 1000 periodic advection steps, 1-d and 2-d."""
    from afpg.timestep import step

    # 1-d
    g1 = Grid1D(24)
    el1 = build_element(2)
    ic1 = SineIC(mean=1.0, amplitude=0.5)
    st1 = project_initial(g1, ic1, el1)
    model1 = advection1d(1.0)
    dt1 = compute_dt(st1, g1, model1, 0.2)
    rhs1 = lambda s: rhs_1d(s, g1, el1, model1, Upwind1D("adaptive"))
    end1 = st1
    for _ in range(1000):
        end1 = step(end1, 0.0, dt1, rhs1, "ssprk3")
    drift1 = abs(total_mass(end1, g1) - total_mass(st1, g1)) / abs(total_mass(st1, g1))

    # 2-d
    g2 = Grid2D(16, 16)
    el2 = build_element_2d()
    ic2 = lambda x, y: 1.0 + 0.4 * np.sin(2 * np.pi * (np.asarray(x) + np.asarray(y)))
    st2 = project_initial(g2, ic2)
    model2 = advection2d(1.0, -1.0)
    dt2 = compute_dt(st2, g2, model2, 0.2)
    rhs2 = lambda s: rhs_2d(s, g2, el2, model2, Upwind2D("adaptive"))
    end2 = st2
    for _ in range(1000):
        end2 = step(end2, 0.0, dt2, rhs2, "ssprk3")
    drift2 = abs(total_mass(end2, g2) - total_mass(st2, g2)) / abs(total_mass(st2, g2))

    ok = drift1 <= 1e-13 and drift2 <= 1e-13
    report(7, ok, f"(1-d drift {drift1:.2e}, 2-d drift {drift2:.2e})")


def test_criterion_8_convergence_orders():
    """Third-order convergence, 1-d and 2-d advection, under 2 minutes."""
    start = time.time()

    # 1-d: sign-adaptive upwinding, smooth sine, one period
    el1 = build_element(2)
    model1 = advection1d(1.0)
    ic1 = SineIC(mean=0.0, amplitude=1.0)
    errs1 = {}
    for n in (20, 40, 80, 160):
        g = Grid1D(n)
        st = project_initial(g, ic1, el1)
        rhs_fn = lambda s, g=g: rhs_1d(s, g, el1, model1, Upwind1D("adaptive"))
        st, t, _ = advance(st, g, model1, rhs_fn, 1.0, TimeIntegrator("ssprk3", cfl=0.2))
        exact = model1.exact_solution(ic1, g)
        l1, _, linf = error_norms(st, g, el1, lambda x: exact(x, t))
        errs1[n] = (l1, linf)
    eoc1_l1 = [np.log2(errs1[n][0] / errs1[2 * n][0]) for n in (20, 40, 80)]
    eoc1_linf = [np.log2(errs1[n][1] / errs1[2 * n][1]) for n in (20, 40, 80)]

    # 2-d: diagonal advection
    el2 = build_element_2d()
    model2 = advection2d(1.0, 1.0)
    ic2 = lambda x, y: np.sin(2 * np.pi * (np.asarray(x) + np.asarray(y)))
    errs2 = {}
    for n in (20, 40, 80, 160):
        g = Grid2D(n, n)
        st = project_initial(g, ic2)
        rhs_fn = lambda s, g=g: rhs_2d(s, g, el2, model2, Upwind2D("adaptive"))
        st, t, _ = advance(st, g, model2, rhs_fn, 1.0, TimeIntegrator("ssprk3", cfl=0.2))
        exact = model2.exact_solution(ic2, g)
        l1, _, _ = error_norms(st, g, el2, lambda x, y: exact(x, y, t))
        errs2[n] = l1
    eoc2_l1 = [np.log2(errs2[n] / errs2[2 * n]) for n in (20, 40, 80)]

    elapsed = time.time() - start
    ok = (
        all(2.8 <= e <= 3.3 for e in eoc1_l1)
        and all(2.8 <= e <= 3.3 for e in eoc1_linf)
        and all(2.8 <= e <= 3.3 for e in eoc2_l1)
        and elapsed < 120.0
    )
    detail = (
        f"(1-d EOC_L1 {['%.2f' % e for e in eoc1_l1]},"
        f" EOC_Linf {['%.2f' % e for e in eoc1_linf]},"
        f" 2-d EOC_L1 {['%.2f' % e for e in eoc2_l1]}, {elapsed:.1f}s)"
    )
    report(8, ok, detail)


def test_criterion_9_burgers_preshock_accuracy():
    """Exact-integration Burgers: smooth pre-shock EOC_L1 >= 2.5."""
    el = build_element(2)
    model = burgers1d()
    ic = SineIC(mean=0.5, amplitude=0.25)
    # shock forms at t = 1/max(-ic') = 2/pi =~ 0.64; stop well before
    t_end = 0.3
    errs = []
    for n in (20, 40, 80, 160):
        g = Grid1D(n)
        st = project_initial(g, ic, el)
        rhs_fn = lambda s, g=g: rhs_1d(
            s, g, el, model, Upwind1D("adaptive"), point_update="exact"
        )
        st, t, _ = advance(st, g, model, rhs_fn, t_end, TimeIntegrator("ssprk3", cfl=0.2))
        exact = model.exact_solution(ic, g)
        l1, _, _ = error_norms(st, g, el, lambda x: exact(x, t))
        errs.append(l1)
    eocs = [np.log2(errs[i] / errs[i + 1]) for i in range(len(errs) - 1)]
    ok = all(e >= 2.5 for e in eocs)
    report(9, ok, f"(EOC_L1 {['%.2f' % e for e in eocs]})")
