"""RHS assembly tests: closed forms, quadrature oracles, conservation."""

from fractions import Fraction

import numpy as np
import pytest

from afpg.element1d import (
    build_element,
    build_point_test,
    derivative_stencil,
    moment_stencil,
    reconstruct,
)
from afpg.element2d import build_element_2d, reconstruct2d
from afpg.grid import Grid1D, Grid2D, State1D, State2D, project_initial
from afpg.models import advection1d, advection2d, burgers1d, linear_system1d
from afpg.poly import diff2, inner1, inner2
from afpg.semidiscrete import (
    _burgers_forms,
    _linear_rows,
    Upwind1D,
    Upwind2D,
    choose_alpha,
    rhs_1d,
    rhs_2d,
    rhs_point_burgers,
)


def random_state_1d(rng, n, k, m=0):
    if m:
        return State1D(k, rng.standard_normal((n, m)), rng.standard_normal((n, k - 1, m)))
    return State1D(k, rng.standard_normal(n), rng.standard_normal((n, k - 1)))


def cell_poly(state, el, i):
    n = state.points.shape[0]
    dofs = [Fraction(float(state.points[(i - 1) % n]))]
    dofs += [Fraction(float(v)) for v in np.atleast_1d(state.moments[i])]
    dofs.append(Fraction(float(state.points[i])))
    return reconstruct(el, dofs)


class TestChooseAlpha:
    def test_burgers_positive(self):
        assert choose_alpha(burgers1d(), np.array([2.0]))[0] == 1.0

    def test_sonic_point(self):
        assert choose_alpha(burgers1d(), np.array([0.0]))[0] == 0.0

    def test_negative_advection(self):
        a = choose_alpha(advection1d(-1.0), np.array([5.0, -3.0]))
        assert np.all(a == -1.0)


class TestUpwindConfigs:
    def test_validation(self):
        with pytest.raises(ValueError):
            Upwind1D("sideways")
        with pytest.raises(ValueError):
            Upwind1D("fixed", 1.5)
        with pytest.raises(ValueError):
            Upwind2D("fixed", beta=0.75)
        with pytest.raises(ValueError):
            Upwind2D(node_alphas=(0.0,) * 5)


class TestRhs1D:
    def test_constant_state_zero(self):
        g = Grid1D(6)
        for k in (2, 3):
            el = build_element(k)
            st = project_initial(g, lambda x: 1.3 + 0.0 * np.asarray(x), el)
            for model in (advection1d(1.5), burgers1d()):
                r = rhs_1d(st, g, el, model, Upwind1D("adaptive"))
                assert np.max(np.abs(r.points)) <= 1e-13
                assert np.max(np.abs(r.moments)) <= 1e-13

    def test_full_upwind_point_formula(self):
        g = Grid1D(8)
        el = build_element(2)
        rng = np.random.default_rng(0)
        st = random_state_1d(rng, 8, 2)
        r = rhs_1d(st, g, el, advection1d(1.0), Upwind1D("adaptive"))
        ql = np.roll(st.points, 1)
        expected = -(2 * ql - 6 * st.moments[:, 0] + 4 * st.points) / g.dx
        assert np.allclose(r.points, expected, atol=1e-13)

    def test_linear_profile_exactness(self):
        # q = x away from the periodic wrap: every rhs entry equals -a
        g = Grid1D(8)
        el = build_element(2)
        st = project_initial(g, lambda x: np.asarray(x, dtype=float), el)
        r = rhs_1d(st, g, el, advection1d(1.0), Upwind1D("adaptive"))
        interior = slice(2, 6)
        assert np.allclose(r.points[interior], -1.0, atol=1e-12)
        assert np.allclose(r.moments[interior, 0], -1.0, atol=1e-12)

    def test_quadratic_profile_exactness(self):
        # q = x^2 away from the wrap: rhs is -2 a x at every dof location
        g = Grid1D(8)
        el = build_element(2)
        st = project_initial(g, lambda x: np.asarray(x, dtype=float) ** 2, el)
        r = rhs_1d(st, g, el, advection1d(0.5), Upwind1D("adaptive"))
        interior = slice(2, 6)
        assert np.allclose(r.points[interior], -g.interfaces()[interior], atol=1e-12)
        assert np.allclose(r.moments[interior, 0], -g.centers()[interior], atol=1e-12)

    def test_conservation_telescopes(self):
        rng = np.random.default_rng(1)
        g = Grid1D(9)
        for k in (2, 3, 4, 5, 6):
            el = build_element(k)
            st = random_state_1d(rng, 9, k)
            for model in (advection1d(0.8), burgers1d()):
                r = rhs_1d(st, g, el, model, Upwind1D("adaptive"))
                assert abs(np.sum(r.moments[:, 0])) <= 1e-12
            system = rhs_1d(random_state_1d(rng, 9, k, m=2), g, el,
                            linear_system1d([[0.3, 1.2], [0.5, -0.4]]), Upwind1D("adaptive"))
            assert np.max(np.abs(np.sum(system.moments[:, 0], axis=0))) <= 1e-12
        st = random_state_1d(rng, 9, 2)
        r = rhs_1d(st, g, build_element(2), burgers1d(), Upwind1D("adaptive"), "exact")
        assert abs(np.sum(r.moments[:, 0])) <= 1e-12

    @pytest.mark.parametrize("alpha", [None, 0.37], ids=["adaptive", "fixed0.37"])
    @pytest.mark.parametrize("a", [1.0, -0.7])
    @pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
    def test_oracle_equivalence_advection(self, k, a, alpha):
        # every rhs entry equals the direct pairing with the test functions
        rng = np.random.default_rng(2 + k)
        n = 6
        g = Grid1D(n)
        el = build_element(k)
        st = random_state_1d(rng, n, k)
        model = advection1d(a)
        upwind = Upwind1D("adaptive") if alpha is None else Upwind1D("fixed", alpha)
        r = rhs_1d(st, g, el, model, upwind)
        dxf = Fraction(1, n)
        polys = [cell_poly(st, el, i) for i in range(n)]
        test = build_point_test(el, np.sign(a) if alpha is None else alpha)
        for i in range(n):
            for kk in range(k - 1):
                oracle = -float(a * inner1(el.moment_weights[kk].poly, polys[i].deriv()) / dxf)
                assert r.moments[i, kk] == pytest.approx(oracle, rel=1e-11, abs=1e-11)
            pairing = inner1(test.left, polys[i].deriv()) + inner1(
                test.right, polys[(i + 1) % n].deriv()
            )
            oracle = -float(a * pairing / dxf)
            assert r.points[i] == pytest.approx(oracle, rel=1e-11, abs=1e-11)

    @pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
    def test_oracle_equivalence_system(self, k):
        # per-characteristic pairing: each field advects with its own speed
        # and full upwinding in its own direction
        rng = np.random.default_rng(7 + k)  # K=2 keeps the original seed 9
        n = 6
        g = Grid1D(n)
        el = build_element(k)
        st = random_state_1d(rng, n, k, m=2)
        # a symmetric and a non-symmetric matrix, so a transposed A shows
        for matrix in ([[0.0, 1.0], [1.0, 0.0]], [[0.3, 1.2], [0.5, -0.4]]):
            model = linear_system1d(matrix)
            r = rhs_1d(st, g, el, model, Upwind1D("adaptive"))

            # characteristic variables w = Rinv q advect independently
            w_data = st.data @ model.eigvecs_inv.T
            expected_w = np.empty_like(w_data)
            for p, lam in enumerate(model.eigvals):
                sub = State1D(k, w_data[:, -1, p], w_data[:, :-1, p])
                expected_w[..., p] = rhs_1d(sub, g, el, advection1d(lam), Upwind1D("adaptive")).data
            expected = expected_w @ model.eigvecs.T
            scale = np.max(np.abs(expected))
            assert np.max(np.abs(r.points - expected[:, -1])) <= 1e-14 * scale
            assert np.max(np.abs(r.moments - expected[:, :-1])) <= 1e-14 * scale

    @pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
    def test_oracle_equivalence_burgers_moments(self, k):
        # every moment row, the flux difference of row 0 included, comes
        # from the exact quadratic forms; the oracle pairs w_k with
        # d/dx(q^2/2) of the exact reconstruction
        rng = np.random.default_rng(30 + k)
        n = 6
        g = Grid1D(n)
        el = build_element(k)
        st = random_state_1d(rng, n, k)
        r = rhs_1d(st, g, el, burgers1d(), Upwind1D("adaptive"))
        dxf = Fraction(1, n)
        for i in range(n):
            q = cell_poly(st, el, i)
            for kk in range(k - 1):
                oracle = -float(inner1(el.moment_weights[kk].poly, q * q.deriv()) / dxf)
                assert r.moments[i, kk] == pytest.approx(oracle, rel=1e-11, abs=1e-11)

    def test_alpha_consistency(self):
        # fixed alpha equals the blend of the two full-upwind right sides
        rng = np.random.default_rng(5)
        g = Grid1D(7)
        el = build_element(2)
        st = random_state_1d(rng, 7, 2)
        model = advection1d(1.0)
        r_plus = rhs_1d(st, g, el, model, Upwind1D("fixed", 1.0))
        r_minus = rhs_1d(st, g, el, model, Upwind1D("fixed", -1.0))
        for alpha in (-0.6, 0.0, 0.37, 1.0):
            r = rhs_1d(st, g, el, model, Upwind1D("fixed", alpha))
            blend = 0.5 * (1 + alpha) * r_plus.points + 0.5 * (1 - alpha) * r_minus.points
            assert np.allclose(r.points, blend, atol=1e-13)

    def test_fixed_alpha_rejected_for_systems(self):
        g = Grid1D(6)
        el = build_element(2)
        rng = np.random.default_rng(6)
        st = random_state_1d(rng, 6, 2, m=2)
        model = linear_system1d([[0.0, 1.0], [1.0, 0.0]])
        with pytest.raises(ValueError):
            rhs_1d(st, g, el, model, Upwind1D("fixed", 0.5))

    def test_shape_mismatch_rejected(self):
        g = Grid1D(6)
        el = build_element(2)
        st = State1D(2, np.zeros(5), np.zeros((5, 1)))
        with pytest.raises(ValueError):
            rhs_1d(st, g, el, advection1d(1.0), Upwind1D())

    def test_nonfinite_rejected(self):
        g = Grid1D(6)
        el = build_element(2)
        st = State1D(2, np.full(6, np.nan), np.zeros((6, 1)))
        with pytest.raises(ValueError):
            rhs_1d(st, g, el, advection1d(1.0), Upwind1D())
        # a caller that has tested the state already skips the test
        assert not rhs_1d(st, g, el, advection1d(1.0), Upwind1D(), assume_finite=True).all_finite()


class TestCompiledTaps1D:
    @pytest.mark.parametrize("a, alpha", [(1.0, 1.0), (-0.7, -1.0), (1.3, 0.37)])
    @pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
    def test_taps_are_exact_rows_rounded_once(self, k, a, alpha):
        # the taps rhs_1d applies, read off one unit dof at a time: the
        # moment rows, then the interface row at alpha, each weight times
        # -a/dx in exact arithmetic.  The table entry is rounded once; the
        # scale and the D+/D- blend add at most a few half-ulp roundings,
        # so each tap lies within 2 eps of its row's largest weight.
        g = Grid1D(7)
        el = build_element(k)
        rows = (*moment_stencil(el), derivative_stencil(el, build_point_test(el, alpha)).weights)
        scale = -Fraction(a) / Fraction(g.dx)
        i = 3
        window = [(k - 1, -1)] + [(c, o) for o in (0, 1) for c in range(k)]
        taps = np.empty((k, g.n, k))
        for j in range(g.n):
            for c in range(k):
                data = np.zeros((g.n, k))
                data[j, c] = 1.0
                st = State1D(k, data[:, -1], data[:, :-1])
                taps[:, j, c] = rhs_1d(st, g, el, advection1d(a), Upwind1D("fixed", alpha)).data[i]
        for got, row in zip(taps, rows):
            exact = {((i + o) % g.n, c): w * scale for (c, o), w in zip(window, row)}
            bound = 2 * np.finfo(float).eps * max(abs(float(w)) for w in exact.values())
            for (j, c), w in exact.items():
                assert abs(Fraction(got[j, c]) - w) <= bound
            # nothing outside the one-cell window
            outside = np.ones((g.n, k), dtype=bool)
            outside[tuple(zip(*exact))] = False
            assert not np.any(got[outside])


class TestLinearRows:
    @pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
    def test_rows_are_exact_rows_rounded_once(self, k):
        # the moment rows, then D+ (alpha = +1, on the left cell's K+1
        # dofs) and D- (alpha = -1, on the right cell's), each weight
        # rounded to float once
        el = build_element(k)
        d_plus = derivative_stencil(el, build_point_test(el, 1)).weights
        d_minus = derivative_stencil(el, build_point_test(el, -1)).weights
        # the full-upwind rows read one cell only
        assert not any(d_plus[k + 1:]) and not any(d_minus[:k])
        exact = [*moment_stencil(el), d_plus[: k + 1], d_minus[k:]]
        rows = _linear_rows(k)
        assert rows.shape == (k + 1, k + 1)
        assert rows.tolist() == [[float(w) for w in row] for row in exact]


class TestBurgersForms:
    @pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
    def test_forms_are_exact_pairings_rounded_once(self, k):
        # moment forms 1/2 [(k+1)(e_R e_R^T - (-1)^k e_L e_L^T) - int w_k' b_s b_t],
        # then int phi b_s b_t' for the two one-sided interface test pieces
        el = build_element(k)
        basis = el.basis()
        exact = []
        for w in el.moment_weights:
            form = [[-inner1(w.poly.deriv(), b * c) / 2 for c in basis] for b in basis]
            form[-1][-1] += Fraction(w.k + 1, 2)
            form[0][0] -= Fraction(w.k + 1, 2) * (-1) ** w.k
            exact.append(form)
        for phi in (build_point_test(el, 1).left, build_point_test(el, -1).right):
            exact.append([[inner1(phi, b * c.deriv()) for c in basis] for b in basis])
        forms = _burgers_forms(k)
        assert forms.shape == (k + 1, k + 1, k + 1)
        for got, form in zip(forms, exact):
            assert got.tolist() == [[float(v) for v in row] for row in form]

    @pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
    def test_forms_pair_the_reconstruction(self, k):
        # on one cell's dofs each form equals its pairing with d/dxi(q^2/2)
        rng = np.random.default_rng(40 + k)
        el = build_element(k)
        dofs = [Fraction(float(v)) for v in rng.standard_normal(k + 1)]
        q = reconstruct(el, dofs)
        tests = (build_point_test(el, 1).left, build_point_test(el, -1).right)
        pairings = [inner1(w.poly, q * q.deriv()) for w in el.moment_weights]
        pairings += [inner1(phi, q * q.deriv()) for phi in tests]
        d = np.array([float(v) for v in dofs])
        for form, oracle in zip(_burgers_forms(k), pairings):
            assert d @ form @ d == pytest.approx(float(oracle), rel=1e-12, abs=1e-12)


class TestBurgersPointUpdate:
    def test_constant_zero(self):
        g = Grid1D(5)
        st = State1D(2, np.full(5, 1.7), np.full((5, 1), 1.7))
        r = rhs_point_burgers(st, g, Upwind1D("fixed", 0.3))
        assert np.max(np.abs(r)) <= 1e-13

    def test_closed_form_frozen_expression(self):
        # literal re-coding of the two one-sided brackets
        rng = np.random.default_rng(7)
        g = Grid1D(100)
        st = random_state_1d(rng, 100, 2)
        ql = np.roll(st.points, 1)
        qc = st.points
        qr = np.roll(st.points, -1)
        al = st.moments[:, 0]
        ar = np.roll(al, -1)
        for alpha in (-1.0, 0.0, 1.0):
            got = rhs_point_burgers(st, g, Upwind1D("fixed", alpha))
            left = (-9 * (ql - 2 * al) ** 2 + 2 * (ql - 12 * al) * qc + 31 * qc**2) / (10 * g.dx)
            right = (9 * (qr - 2 * ar) ** 2 - 2 * (qr - 12 * ar) * qc - 31 * qc**2) / (10 * g.dx)
            expected = -(0.5 * (1 + alpha) * left + 0.5 * (1 - alpha) * right)
            scale = np.max(np.abs(expected))
            assert np.max(np.abs(got - expected)) <= 1e-12 * scale

    def test_quadrature_oracle(self):
        # -(test fn, d/dx(q^2/2)) integrated exactly cell by cell
        rng = np.random.default_rng(8)
        n = 6
        g = Grid1D(n)
        el = build_element(2)
        st = random_state_1d(rng, n, 2)
        alpha = 0.4
        got = rhs_point_burgers(st, g, Upwind1D("fixed", alpha))
        t = build_point_test(el, Fraction(alpha))
        polys = [cell_poly(st, el, i) for i in range(n)]
        for i in range(n):
            qi, qn = polys[i], polys[(i + 1) % n]
            val = inner1(t.left, qi * qi.deriv()) + inner1(t.right, qn * qn.deriv())
            oracle = -float(val / Fraction(1, n))
            assert got[i] == pytest.approx(oracle, rel=1e-12, abs=1e-12)

    def test_full_upwind_uses_left_bracket_only(self):
        rng = np.random.default_rng(9)
        g = Grid1D(6)
        st = random_state_1d(rng, 6, 2)
        got = rhs_point_burgers(st, g, Upwind1D("fixed", 1.0))
        ql, qc = np.roll(st.points, 1), st.points
        al = st.moments[:, 0]
        left = (-9 * (ql - 2 * al) ** 2 + 2 * (ql - 12 * al) * qc + 31 * qc**2) / (10 * g.dx)
        assert np.allclose(got, -left, atol=1e-13)

    def test_adaptive_alpha_follows_sign(self):
        g = Grid1D(6)
        rng = np.random.default_rng(10)
        st = random_state_1d(rng, 6, 2)
        st.points[:] = np.abs(st.points) + 0.1  # all positive
        adaptive = rhs_point_burgers(st, g, Upwind1D("adaptive"))
        fixed = rhs_point_burgers(st, g, Upwind1D("fixed", 1.0))
        assert np.allclose(adaptive, fixed, atol=1e-14)

    def test_wrong_degree_rejected(self):
        g = Grid1D(6)
        st = State1D(3, np.zeros(6), np.zeros((6, 2)))
        with pytest.raises(ValueError):
            rhs_point_burgers(st, g, Upwind1D())

    def test_exact_update_through_rhs_1d(self):
        g = Grid1D(6)
        el = build_element(2)
        rng = np.random.default_rng(11)
        st = random_state_1d(rng, 6, 2)
        r = rhs_1d(st, g, el, burgers1d(), Upwind1D("adaptive"), point_update="exact")
        assert np.allclose(r.points, rhs_point_burgers(st, g, Upwind1D("adaptive")), atol=0)
        with pytest.raises(ValueError):
            rhs_1d(st, g, el, advection1d(1.0), Upwind1D(), point_update="exact")


def random_state_2d(rng, nx, ny):
    return State2D(
        rng.standard_normal((nx, ny)),
        rng.standard_normal((nx, ny)),
        rng.standard_normal((nx, ny)),
        rng.standard_normal((nx, ny)),
    )


def cell_poly_2d(state, el, i, j):
    nx, ny = state.averages.shape
    a, ex, ey, nd = state.averages, state.edge_x, state.edge_y, state.nodes
    dofs = {
        (0, 0): Fraction(float(a[i, j])),
        (-1, 0): Fraction(float(ex[(i - 1) % nx, j])),
        (1, 0): Fraction(float(ex[i, j])),
        (0, -1): Fraction(float(ey[i, (j - 1) % ny])),
        (0, 1): Fraction(float(ey[i, j])),
        (-1, -1): Fraction(float(nd[(i - 1) % nx, (j - 1) % ny])),
        (1, -1): Fraction(float(nd[i, (j - 1) % ny])),
        (-1, 1): Fraction(float(nd[(i - 1) % nx, j])),
        (1, 1): Fraction(float(nd[i, j])),
    }
    return reconstruct2d(el, dofs)


STABILIZED_2D = Upwind2D(
    "fixed",
    alpha3=0.5,
    beta=-0.25,
    edge_alpha1=0.2,
    edge_alpha2=-0.3,
    node_alphas=(0.1, -0.2, 0.05, 0.15, -0.1, 0.2, -0.05, 0.1),
)


class TestRhs2D:
    def test_constant_state_zero(self):
        g = Grid2D(5, 4)
        el = build_element_2d()
        st = project_initial(g, lambda x, y: 2.0 + 0.0 * np.asarray(x))
        r = rhs_2d(st, g, el, advection2d(1.0, -0.5), Upwind2D("adaptive"))
        for arr in (r.averages, r.edge_x, r.edge_y, r.nodes):
            assert np.max(np.abs(arr)) <= 1e-13

    def test_zero_velocity_zero(self):
        # every tap weight vanishes, so every tap list is empty
        g = Grid2D(5, 4)
        st = random_state_2d(np.random.default_rng(16), 5, 4)
        r = rhs_2d(st, g, build_element_2d(), advection2d(0.0, 0.0), Upwind2D("adaptive"))
        assert np.array_equal(r.data, np.zeros((4, 5, 4)))

    def test_linear_profile_exactness(self):
        g = Grid2D(8, 8)
        el = build_element_2d()
        st = project_initial(g, lambda x, y: np.asarray(x) + 0.0 * np.asarray(y))
        r = rhs_2d(st, g, el, advection2d(1.0, 0.0), Upwind2D("adaptive"))
        interior = (slice(2, 6), slice(2, 6))
        for arr in (r.averages, r.edge_x, r.edge_y, r.nodes):
            assert np.allclose(arr[interior], -1.0, atol=1e-12)

    def test_conservation_telescopes(self):
        rng = np.random.default_rng(12)
        g = Grid2D(5, 6)
        el = build_element_2d()
        st = random_state_2d(rng, 5, 6)
        r = rhs_2d(st, g, el, advection2d(0.7, -1.2), Upwind2D("adaptive"))
        assert abs(np.sum(r.averages)) <= 1e-12

    def test_nonfinite_rejected(self):
        g = Grid2D(5, 4)
        el = build_element_2d()
        fields = np.random.default_rng(17).standard_normal((4, 5, 4))
        fields[3, 2, 1] = np.nan
        st = State2D(*fields)
        model, up = advection2d(0.8, -0.6), Upwind2D("adaptive")
        with pytest.raises(ValueError, match="non-finite"):
            rhs_2d(st, g, el, model, up)
        assert not rhs_2d(st, g, el, model, up, assume_finite=True).all_finite()

    def test_nonlinear_rejected(self):
        g = Grid2D(4, 4)
        el = build_element_2d()
        st = random_state_2d(np.random.default_rng(0), 4, 4)
        with pytest.raises(ValueError):
            rhs_2d(st, g, el, burgers1d(), Upwind2D())

    def test_node_upwind_picks_left_cells(self):
        # for ax > 0 the adaptive node stencil reads x-derivatives from the
        # left-side cells only
        rng = np.random.default_rng(13)
        g = Grid2D(4, 4)
        el = build_element_2d()
        st = random_state_2d(rng, 4, 4)
        r_adaptive = rhs_2d(st, g, el, advection2d(1.0, 0.0), Upwind2D("adaptive"))
        r_fixed = rhs_2d(
            st, g, el, advection2d(1.0, 0.0), Upwind2D("fixed", alpha3=1.0, beta=0.5)
        )
        assert np.allclose(r_adaptive.nodes, r_fixed.nodes, atol=1e-13)
        assert np.allclose(r_adaptive.edge_x, r_fixed.edge_x, atol=1e-13)

    @pytest.mark.parametrize("field", ["averages", "edge_x", "edge_y", "nodes"])
    def test_field_shape_mismatch_rejected(self, field):
        rng = np.random.default_rng(15)
        for shape in ((4,), (6, 4), (5, 3)):
            fields = {name: rng.standard_normal((5, 4))
                      for name in ("averages", "edge_x", "edge_y", "nodes")}
            fields[field] = np.zeros(shape)
            with pytest.raises(ValueError):
                State2D(**fields)

    def test_state_grid_mismatch_rejected(self):
        st = random_state_2d(np.random.default_rng(15), 6, 4)
        with pytest.raises(ValueError):
            rhs_2d(st, Grid2D(5, 4), build_element_2d(), advection2d(1.0, 1.0), Upwind2D())

    @pytest.mark.parametrize(
        "nx, ny, ax, ay, upwind",
        [
            (4, 4, 0.8, -0.6, STABILIZED_2D),
            (5, 4, 0.8, -0.6, STABILIZED_2D),
            (5, 4, 0.8, -0.6, Upwind2D("adaptive")),
            (5, 4, -0.7, 1.1, Upwind2D("adaptive")),
            (5, 4, 1.0, 0.0, Upwind2D("adaptive")),
            (5, 4, 0.0, -1.3, Upwind2D("adaptive")),
        ],
        ids=[
            "fixed-4x4",
            "fixed-5x4",
            "adaptive-5x4-a(0.8,-0.6)",
            "adaptive-5x4-a(-0.7,1.1)",
            "adaptive-5x4-a(1,0)",
            "adaptive-5x4-a(0,-1.3)",
        ],
    )
    def test_oracle_equivalence_random_alphas(self, nx, ny, ax, ay, upwind):
        # every rhs entry equals the direct pairing of the assembled test
        # function with -(ax dq/dx + ay dq/dy), integrated exactly
        rng = np.random.default_rng(14)
        g = Grid2D(nx, ny)
        el = build_element_2d()
        st = random_state_2d(rng, nx, ny)
        r = rhs_2d(st, g, el, advection2d(ax, ay), upwind)

        from afpg.element2d import build_edge_test, build_node_test

        cells = {(i, j): cell_poly_2d(st, el, i, j) for i in range(nx) for j in range(ny)}
        dxf = Fraction(1, nx)
        dyf = Fraction(1, ny)
        axf, ayf = Fraction(ax), Fraction(ay)

        def pair(piece, poly):
            return axf * inner2(piece, diff2(poly, "x")) / dxf + ayf * inner2(
                piece, diff2(poly, "y")
            ) / dyf

        # adaptive mode: edge weight sgn(a), node weight sgn(a)/2 per direction
        if upwind.mode == "adaptive":
            a3x, a3y = Fraction(int(np.sign(ax))), Fraction(int(np.sign(ay)))
            beta_x, beta_y = a3x / 2, a3y / 2
        else:
            a3x = a3y = Fraction(upwind.alpha3)
            beta_x = beta_y = Fraction(upwind.beta)
        edge_alphas = (Fraction(upwind.edge_alpha1), Fraction(upwind.edge_alpha2))
        edge_test = build_edge_test((*edge_alphas, a3x), "x")
        edge_test_y = build_edge_test((*edge_alphas, a3y), "y")
        node_alphas = tuple(Fraction(a) for a in upwind.node_alphas) + (
            2 * beta_y,
            beta_x / 2,
            beta_x / 2,
        )
        node_test = build_node_test(node_alphas)

        for i in range(nx):
            for j in range(ny):
                # average: test function is the cell indicator / cell area
                oracle = -float(pair(Fraction(1, 1) * _one(), cells[(i, j)]))
                assert r.averages[i, j] == pytest.approx(oracle, rel=1e-11, abs=1e-11)
                # vertical edge (i+1/2, j)
                oracle = -float(
                    pair(edge_test.pieces[(0, 0)], cells[(i, j)])
                    + pair(edge_test.pieces[(1, 0)], cells[((i + 1) % nx, j)])
                )
                assert r.edge_x[i, j] == pytest.approx(oracle, rel=1e-11, abs=1e-11)
                # horizontal edge (i, j+1/2)
                oracle = -float(
                    pair(edge_test_y.pieces[(0, 0)], cells[(i, j)])
                    + pair(edge_test_y.pieces[(0, 1)], cells[(i, (j + 1) % ny)])
                )
                assert r.edge_y[i, j] == pytest.approx(oracle, rel=1e-11, abs=1e-11)
                # node (i+1/2, j+1/2)
                oracle = -float(
                    sum(
                        pair(
                            node_test.pieces[off],
                            cells[((i + off[0]) % nx, (j + off[1]) % ny)],
                        )
                        for off in ((0, 0), (1, 0), (0, 1), (1, 1))
                    )
                )
                assert r.nodes[i, j] == pytest.approx(oracle, rel=1e-11, abs=1e-11)


def _one():
    from afpg.poly import Poly2

    return Poly2([[1]])
