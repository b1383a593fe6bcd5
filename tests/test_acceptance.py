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
from afpg.config import parse_config
from afpg.harness import run_simulation
from afpg.models import GaussianIC, SineIC, advection1d, advection2d, burgers1d
from afpg.poly import HALF, Poly, gauss_rule, inner
from afpg.semidiscrete import (
    Upwind1D,
    Upwind2D,
    _apply_blocks_2d,
    _compile_taps_2d,
    _linear_rows,
    rhs_1d,
    rhs_2d,
)
from afpg.timestep import TimeIntegrator, advance, compute_dt


def tensor_product(p, q):
    """The product of p in the leading variables and q in the rest."""
    return Poly(np.multiply.outer(p.coeffs, q.coeffs))


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

    The rows are built from the table that rhs_1d's blocks are laid out
    from: ``_linear_rows(2)``'s D+ on the left cell's dofs (q_left,
    avg_i, q_mid) and D- on the right cell's (q_mid, avg_i+1, q_right),
    blended by (1+alpha)/2 and (1-alpha)/2 (rhs_1d runs alpha = sgn(a)).
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
    """Exact-integration Burgers update vs formula and quadrature oracle.

    The update blends the two one-sided brackets by (1 +- alpha)/2 with
    alpha = sgn q at each interface.  Some point values are exactly 0, so
    alpha = -1, 0 and +1 are all checked.
    """
    rng = np.random.default_rng(2024)
    n = 100
    g = Grid1D(n)
    points, averages = rng.standard_normal(n), rng.standard_normal(n)
    st = State1D(np.stack((averages, points)))
    st.points[::9] = 0.0
    el = build_element(2)

    def exact_update(state, grid):
        return rhs_1d(state, grid, el, burgers1d(), Upwind1D(), "exact").points

    ql, qc, qr = np.roll(st.points, 1), st.points, np.roll(st.points, -1)
    al, ar = st.moments[:, 0], np.roll(st.moments[:, 0], -1)
    alpha = np.sign(qc)
    got = exact_update(st, g)
    left = (-9 * (ql - 2 * al) ** 2 + 2 * (ql - 12 * al) * qc + 31 * qc**2) / (10 * g.dx)
    right = (9 * (qr - 2 * ar) ** 2 - 2 * (qr - 12 * ar) * qc - 31 * qc**2) / (10 * g.dx)
    expected = -(0.5 * (1 + alpha) * left + 0.5 * (1 - alpha) * right)
    scale = max(np.max(np.abs(expected)), 1.0)
    worst_formula = np.max(np.abs(got - expected)) / scale

    # independent quadrature oracle on a small grid
    from afpg.poly import inner

    n2 = 6
    g2 = Grid1D(n2)
    points, averages = rng.standard_normal(n2), rng.standard_normal(n2)
    st2 = State1D(np.stack((averages, points)))
    st2.points[2] = 0.0
    worst_quad = 0.0
    got = exact_update(st2, g2)
    for i in range(n2):
        t = build_point_test(el, int(np.sign(st2.points[i])))
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
    all_alphas = set(alpha) == set(np.sign(st2.points)) == {-1.0, 0.0, 1.0}
    ok = all_alphas and worst_formula <= 1e-12 and worst_quad <= 1e-12
    report(4, ok, f"(formula defect {worst_formula:.2e}, quadrature defect {worst_quad:.2e},"
                  f" alpha = -1, 0 and +1 each met: {all_alphas})")


def test_criterion_5_2d_structure_theorems():
    """Closed-form basis match, tensor relations, edge-test expansion."""
    el2 = build_element_2d()  # tests/test_element2d.py asserts its closed forms
    el1 = build_element(2)
    b1 = {1: el1.basis_right, -1: el1.basis_left, 0: el1.basis_moments[0]}

    def tens_b(r, s):
        return tensor_product(b1[r], b1[s])

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
        return tensor_product(a1d[r], a1d[s])

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
    reconstruction.  Each velocity runs twice: through rhs_2d, whose edge
    weight alpha3 is sgn(a) and node weight beta is sgn(a)/2 per axis,
    and through ``_compile_taps_2d`` and ``_apply_blocks_2d`` at random
    alpha3 and beta per axis, which the node weights tie to beta as the
    runtime does.  The family's other free weights are zero in both.
    """
    rng = np.random.default_rng(99)
    nx = ny = 4
    g = Grid2D(nx, ny)
    el = build_element_2d()
    dx, dy = Fraction(g.dx), Fraction(g.dy)
    worst = 0.0
    for ax, ay in ((1.0, 0.0), (0.0, 1.0), tuple(rng.uniform(-1.5, 1.5, 2))):
        st = State2D(rng.standard_normal((4, nx, ny)))

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

        signs = (np.sign(ax), np.sign(ay))
        drawn = (tuple(rng.uniform(-1, 1, 2)), tuple(rng.uniform(-0.5, 0.5, 2)))
        runs = [
            ((signs, tuple(a / 2 for a in signs)),
             rhs_2d(st, g, el, advection2d(ax, ay), Upwind2D()).data),
            (drawn, _apply_blocks_2d(st.data, *_compile_taps_2d(g.dx, g.dy, ax, ay, *drawn))),
        ]
        for (alpha3, beta), got in runs:
            (a3x, a3y), (beta_x, beta_y) = ([Fraction(w) for w in pair] for pair in (alpha3, beta))
            # the family's other free weights are zero
            pieces = (
                {(0, 0): Poly([[1]])},
                build_edge_test((0, 0, a3x), "x").pieces,
                build_edge_test((0, 0, a3y), "y").pieces,
                build_node_test((0,) * 8 + (2 * beta_y, beta_x / 2, beta_x / 2)).pieces,
            )
            for out, field_pieces in zip(got, pieces):
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
        rhs_fn = lambda s, out, g=g: rhs_1d(s, g, el1, model1, Upwind1D("adaptive"), out=out)
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
        rhs_fn = lambda s, out, g=g: rhs_2d(s, g, el2, model2, Upwind2D("adaptive"), out=out)
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
        rhs_fn = lambda s, out, g=g: rhs_1d(
            s, g, el, model, Upwind1D("adaptive"), point_update="exact", out=out
        )
        st, t, _ = advance(st, g, model, rhs_fn, t_end, TimeIntegrator("ssprk3", cfl=0.2))
        exact = model.exact_solution(ic, g)
        l1, _, _ = error_norms(st, g, el, lambda x: exact(x, t))
        errs.append(l1)
    eocs = [np.log2(errs[i] / errs[i + 1]) for i in range(len(errs) - 1)]
    ok = all(e >= 2.5 for e in eocs)
    report(9, ok, f"(EOC_L1 {['%.2f' % e for e in eocs]})")


def _stability_polynomial(z, scheme):
    """R(Z) = sum of Z^p / p! up to the scheme's order, on a stack of matrices."""
    term = np.broadcast_to(np.eye(z.shape[-1]), z.shape).astype(complex)
    total = term.copy()
    for p in range(1, {"ssprk3": 3, "rk4": 4}[scheme] + 1):
        term = term @ z / p
        total = total + term
    return total


def _fourier_run(symbol, u_hat, dt, t_end, scheme):
    """Modes after fixed steps of dt to t_end, the last one shortened as
    advance shortens it: R(dt L)^N R(dt_last L) u_hat per mode."""
    dts, t = [], 0.0
    while t < t_end - 1e-14 * max(1.0, t_end):
        dts.append(min(dt, t_end - t))
        t += dts[-1]
    full = np.linalg.matrix_power(_stability_polynomial(dt * symbol, scheme),
                                  dts.count(dt))
    for last in (d for d in dts if d != dt):
        full = _stability_polynomial(last * symbol, scheme) @ full
    return (full @ u_hat[..., None])[..., 0], len(dts)


def _symbol_1d(k, n, dx, a, jac_plus, jac_minus):
    """L(theta) at theta = 2 pi j / n: the (K m, K m) blocks at cell offsets
    -1, 0, +1 of the 1-d linear scheme, assembled from _linear_rows."""
    rows = _linear_rows(k)
    own = np.eye(k + 1, k, -1)  # gathered dofs 1..K are the cell's K rows
    left = np.zeros((k + 1, k))
    left[0, -1] = 1.0  # gathered dof 0 is the left neighbour's point value
    moment, d_plus, d_minus = (np.zeros((k, k + 1)) for _ in range(3))
    moment[:-1], d_plus[-1], d_minus[-1] = rows[:-2], rows[-2], rows[-1]
    blocks = {
        -1: np.kron(moment @ left, a) + np.kron(d_plus @ left, jac_plus),
        0: np.kron(moment @ own, a) + np.kron(d_plus @ own, jac_plus)
        + np.kron(d_minus @ left, jac_minus),
        1: np.kron(d_minus @ own, jac_minus),
    }
    theta = 2.0 * np.pi * np.arange(n) / n
    return sum(np.exp(1j * o * theta)[:, None, None] * b for o, b in blocks.items()) / -dx


def _split(a):
    """J+ and J- of a diagonalizable matrix with real eigenvalues."""
    lam, vec = np.linalg.eig(a)
    inv = np.linalg.inv(vec)
    return [(vec * part(lam.real, 0.0)) @ inv for part in (np.maximum, np.minimum)]


def _oracle_1d(cfg):
    k, n = cfg.degree, cfg.grid_n
    grid = Grid1D(n)
    ic = GaussianIC(cfg.ic_mean, cfg.ic_amplitude, cfg.ic_center, cfg.ic_width)
    if cfg.model_name == "linear_system":
        a = np.array(cfg.model_matrix)
        state = project_initial(grid, lambda x: np.repeat(ic(x)[..., None], len(a), -1),
                                build_element(k))
    else:  # a scalar is the 1x1 system
        a = np.array([[cfg.model_a]])
        state = project_initial(grid, ic, build_element(k))
    jac_plus, jac_minus = _split(a)
    m = len(a)
    # (K, n[, m]) -> (n, K m), field r and component c at r m + c
    u = state.data.reshape(k, n, m).transpose(1, 0, 2).reshape(n, k * m)
    symbol = _symbol_1d(k, n, grid.dx, a, jac_plus, jac_minus)
    v_hat, steps = _fourier_run(symbol, np.fft.fft(u, axis=0), cfg.time_dt,
                                cfg.time_t_end, cfg.time_scheme)
    v = np.fft.ifft(v_hat, axis=0).real
    return v.reshape(n, k, m).transpose(1, 0, 2).reshape(state.data.shape), steps


def _oracle_2d(cfg):
    grid = Grid2D(cfg.grid_nx, cfg.grid_ny)
    # the edge and node weights follow the sign of the velocity per axis
    signs = np.sign(cfg.model_ax), np.sign(cfg.model_ay)
    columns, weights = _compile_taps_2d(grid.dx, grid.dy, cfg.model_ax, cfg.model_ay, signs,
                                        tuple(a / 2 for a in signs))
    tx = 2.0 * np.pi * np.arange(grid.nx) / grid.nx
    ty = 2.0 * np.pi * np.arange(grid.ny) / grid.ny
    symbol = np.zeros((grid.nx, grid.ny, 4, 4), dtype=complex)
    for (field, (ox, oy)), w in zip(columns, weights.T):
        shift = np.exp(1j * (ox * tx[:, None] + oy * ty[None, :]))
        symbol[..., field] += shift[..., None] * w
    ic = GaussianIC(cfg.ic_mean, cfg.ic_amplitude, cfg.ic_center, cfg.ic_width)
    u_hat = np.moveaxis(np.fft.fft2(project_initial(grid, ic).data), 0, -1)
    v_hat, steps = _fourier_run(symbol, u_hat, cfg.time_dt, cfg.time_t_end, cfg.time_scheme)
    return np.fft.ifft2(np.moveaxis(v_hat, -1, 0)).real, steps


def test_criterion_10_fourier_oracle_linear_runs():
    """Whole periodic linear runs against their Fourier prediction at rel 1e-12.

    Each mode of a run's projected state evolves by R(dt L(theta)) per
    step, R the scheme's stability polynomial and L the symbol of the
    spatial operator, built here from the exact tables without the
    right-hand sides, the stepper or the harness.
    """
    gaussian = "ic.name=gaussian\nic.mean=0.5\nic.center=0.4\nic.width=0.1\n"
    cases = {}
    for scheme in ("ssprk3", "rk4"):
        for k in range(2, 7):
            cases[f"1-d K={k} {scheme}"] = (f"k={k}\ngrid.n=24\ntime.scheme={scheme}\n"
                                            "time.dt=0.0025\ntime.t_end=0.2\n")
    cases["1-d K=3 a=-0.7 ssprk3"] = ("k=3\ngrid.n=20\nmodel.a=-0.7\ntime.scheme=ssprk3\n"
                                      "time.dt=0.005\ntime.t_end=0.2013\n")
    cases["1-d K=2 a=-1.3 rk4"] = ("grid.n=20\nmodel.a=-1.3\ntime.scheme=rk4\ntime.dt=0.01\n"
                                   "time.t_end=0.3\n")
    cases["1-d K=3 2x2 system ssprk3"] = ("k=3\ngrid.n=20\nmodel.name=linear_system\n"
                                          "model.matrix=1,2;0.5,-0.5\ntime.scheme=ssprk3\n"
                                          "time.dt=0.004\ntime.t_end=0.2\n")
    plane = "dimension=2\ngrid.nx=16\ngrid.ny=16\n"
    cases["2-d a=(1,1) ssprk3"] = (plane + "time.scheme=ssprk3\ntime.dt=0.01\n"
                                   "time.t_end=0.2537\n")
    cases["2-d a=(0.8,-0.6) rk4"] = (plane + "model.ax=0.8\nmodel.ay=-0.6\ntime.scheme=rk4\n"
                                     "time.dt=0.012\ntime.t_end=0.3\n")
    cases["2-d a=(-0.7,1.1) rk4"] = (plane + "model.ax=-0.7\nmodel.ay=1.1\ntime.scheme=rk4\n"
                                     "time.dt=0.01\ntime.t_end=0.2\n")
    worst = {}
    for name, text in cases.items():
        cfg = parse_config(gaussian + text)
        result = run_simulation(cfg)
        predicted, steps = (_oracle_1d if cfg.dimension == 1 else _oracle_2d)(cfg)
        assert result.steps == steps, name
        data = result.state.data
        worst[name] = np.max(np.abs(data - predicted)) / np.max(np.abs(data))
    failed = {name: f"{err:.2e}" for name, err in worst.items() if not err <= 1e-12}
    report(10, not failed, f"(max rel difference {max(worst.values()):.2e} over"
                           f" {len(worst)} runs; failed: {failed})")
