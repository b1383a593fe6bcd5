"""RHS assembly tests: closed forms, quadrature oracles, conservation."""

import dataclasses
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from afpg.element1d import (
    build_element,
    build_point_test,
    reconstruct,
)
from afpg.element2d import (
    DOF_IDS,
    apply_dof,
    build_edge_test,
    build_element_2d,
    build_node_test,
    reconstruct2d,
)
from afpg.grid import (Grid1D, Grid2D, State1D, State2D, _dof_gather_1d, _dof_gather_2d,
                       project_initial)
from afpg.models import advection1d, advection2d, burgers1d, linear_system1d
from afpg import semidiscrete
from afpg.poly import Poly, inner
from afpg.semidiscrete import (
    _apply_blocks_2d,
    _blend,
    _burgers_forms,
    _compile_taps_2d,
    _linear_rows,
    Upwind1D,
    Upwind2D,
    rhs_1d,
    rhs_2d,
)


def random_state_1d(rng, n, k, m=0, draw=None):
    """Dofs from ``draw(shape)`` (default ``rng.standard_normal``), drawn
    points first and then moments cell by cell."""
    draw = draw or rng.standard_normal
    comps = (m,) if m else ()
    data = np.empty((k, n) + comps)
    data[-1] = draw((n,) + comps)
    data[:-1] = draw((n, k - 1) + comps).swapaxes(0, 1)
    return State1D(data)


def cell_poly(state, el, i):
    n = state.points.shape[0]
    dofs = [Fraction(float(state.points[(i - 1) % n]))]
    dofs += [Fraction(float(v)) for v in np.atleast_1d(state.moments[i])]
    dofs.append(Fraction(float(state.points[i])))
    return reconstruct(el, dofs)


def exact_points(state, grid):
    """Interface values of the exact-integration Burgers update."""
    return rhs_1d(state, grid, build_element(state.k), burgers1d(), Upwind1D(), "exact").points


def exact_brackets(state, grid):
    """The K = 2 exact Burgers update's two one-sided brackets, re-coded
    literally: the left cell's (alpha = +1) and the right cell's (alpha = -1)."""
    ql, qc, qr = np.roll(state.points, 1), state.points, np.roll(state.points, -1)
    al, ar = state.moments[:, 0], np.roll(state.moments[:, 0], -1)
    left = (-9 * (ql - 2 * al) ** 2 + 2 * (ql - 12 * al) * qc + 31 * qc**2) / (10 * grid.dx)
    right = (9 * (qr - 2 * ar) ** 2 - 2 * (qr - 12 * ar) * qc - 31 * qc**2) / (10 * grid.dx)
    return left, right


def family_points(state, grid, a, alpha):
    """Interface values of linear advection at any member alpha of the
    paper's family: the runtime's one-sided rows D+ and D- (alpha = +1
    and -1), joined by ``_blend`` at (1 +- alpha)/2 (-a/dx)."""
    c = -a / grid.dx
    d_plus, d_minus = _linear_rows(state.k)[-2:] @ _dof_gather_1d(state)
    return _blend(np.empty(grid.n), d_plus, d_minus, 0.5 * (1 + alpha) * c,
                  0.5 * (1 - alpha) * c)


class TestUpwindFollowsSpeedSign:
    # every interface weight follows sgn of the wave speed, with sgn(0) = 0
    def test_burgers_positive(self):
        g = Grid1D(7)
        st = random_state_1d(np.random.default_rng(12), 7, 3)
        st.points[:] = np.abs(st.points) + 0.1  # all positive
        r = rhs_1d(st, g, build_element(3), burgers1d(), Upwind1D("adaptive"))
        # D+ of the cell left of each interface only
        d_plus = _linear_rows(3)[-2] @ _dof_gather_1d(st)
        expected = -st.points / g.dx * d_plus
        assert np.max(np.abs(r.points - expected)) <= 1e-14 * np.max(np.abs(expected))

    def test_sonic_point(self):
        # at q = 0 the exact update takes both brackets by half, elsewhere
        # (q > 0) the left one only
        g = Grid1D(6)
        st = random_state_1d(np.random.default_rng(13), 6, 2)
        st.points[:] = np.abs(st.points) + 0.1
        st.points[2] = 0.0
        got = exact_points(st, g)
        left, right = exact_brackets(st, g)
        assert got[2] == pytest.approx(-0.5 * (left[2] + right[2]), rel=1e-13)
        assert got[2] != pytest.approx(-left[2], rel=1e-3)
        assert np.allclose(np.delete(got, 2), -np.delete(left, 2), rtol=1e-13, atol=0)

    def test_negative_advection(self):
        g = Grid1D(7)
        st = random_state_1d(np.random.default_rng(14), 7, 4)
        r = rhs_1d(st, g, build_element(4), advection1d(-1.0), Upwind1D("adaptive"))
        # D- of the cell right of each interface only
        d_minus = _linear_rows(4)[-1] @ _dof_gather_1d(st)
        expected = np.roll(d_minus, -1) / g.dx
        assert np.max(np.abs(r.points - expected)) <= 1e-14 * np.max(np.abs(expected))


class TestUpwindConfigs:
    def test_2d_policy_fields(self):
        # every weight follows the sign of the wave speed: none is settable
        assert [f.name for f in dataclasses.fields(Upwind1D)] == ["mode"]
        assert [f.name for f in dataclasses.fields(Upwind2D)] == ["mode"]

    def test_validation(self):
        for policy in (Upwind1D, Upwind2D):
            assert policy() == policy("adaptive")
            for mode in ("sideways", "fixed"):
                with pytest.raises(ValueError, match="unknown upwind mode"):
                    policy(mode)
        with pytest.raises(TypeError):
            Upwind1D("adaptive", 0.5)
        with pytest.raises(TypeError):
            Upwind2D(alpha3=0.5)


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
        # every rhs entry equals the direct pairing with the test functions;
        # rhs_1d runs alpha = sgn(a), and another member of the family
        # is its one-sided rows blended at that alpha
        rng = np.random.default_rng(2 + k)
        n = 6
        g = Grid1D(n)
        el = build_element(k)
        st = random_state_1d(rng, n, k)
        r = rhs_1d(st, g, el, advection1d(a), Upwind1D("adaptive"))
        points = r.points if alpha is None else family_points(st, g, a, alpha)
        dxf = Fraction(1, n)
        polys = [cell_poly(st, el, i) for i in range(n)]
        test = build_point_test(el, np.sign(a) if alpha is None else alpha)
        for i in range(n):
            for kk in range(k - 1):
                oracle = -float(a * inner(el.moment_weights[kk].poly, polys[i].deriv()) / dxf)
                assert r.moments[i, kk] == pytest.approx(oracle, rel=1e-11, abs=1e-11)
            pairing = inner(test.left, polys[i].deriv()) + inner(
                test.right, polys[(i + 1) % n].deriv()
            )
            oracle = -float(a * pairing / dxf)
            assert points[i] == pytest.approx(oracle, rel=1e-11, abs=1e-11)

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
                sub = State1D(np.ascontiguousarray(w_data[..., p]))
                expected_w[..., p] = rhs_1d(sub, g, el, advection1d(lam), Upwind1D("adaptive")).data
            expected = expected_w @ model.eigvecs.T
            scale = np.max(np.abs(expected))
            assert np.max(np.abs(r.points - expected[-1])) <= 1e-14 * scale
            assert np.max(np.abs(r.moments - expected[:-1].swapaxes(0, 1))) <= 1e-14 * scale

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
                oracle = -float(inner(el.moment_weights[kk].poly, q * q.deriv()) / dxf)
                assert r.moments[i, kk] == pytest.approx(oracle, rel=1e-11, abs=1e-11)

    def test_alpha_consistency(self):
        # the scalar weights are the 1x1 case of the system split: each
        # component of a diagonal system, J+ = max(a, 0) and J- = min(a, 0)
        # per speed, equals the scalar run at its own speed
        rng = np.random.default_rng(5)
        g = Grid1D(7)
        speeds = (1.3, -0.7, 0.0)
        for k in (2, 4):
            el = build_element(k)
            st = random_state_1d(rng, 7, k, m=3)
            system = rhs_1d(st, g, el, linear_system1d(np.diag(speeds)), Upwind1D()).data
            for c, a in enumerate(speeds):
                sub = State1D(np.ascontiguousarray(st.data[..., c]))
                scalar = rhs_1d(sub, g, el, advection1d(a), Upwind1D()).data
                scale = max(np.max(np.abs(scalar)), 1.0)
                assert np.max(np.abs(system[..., c] - scalar)) <= 1e-14 * scale

    def test_shape_mismatch_rejected(self):
        g = Grid1D(6)
        el = build_element(2)
        st = State1D(np.zeros((2, 5)))
        with pytest.raises(ValueError):
            rhs_1d(st, g, el, advection1d(1.0), Upwind1D())

    def test_nonfinite_rejected(self):
        g = Grid1D(6)
        el = build_element(2)
        st = State1D(np.zeros((2, 6)))
        st.points[:] = np.nan
        with pytest.raises(ValueError):
            rhs_1d(st, g, el, advection1d(1.0), Upwind1D())
        # a caller that has tested the state already skips the test
        assert not rhs_1d(st, g, el, advection1d(1.0), Upwind1D(), assume_finite=True).all_finite()


def by_parts_rows(el):
    """The moment rows, integrated by parts: the weight of w_r on dof s is
    (r+1) [delta_right - (-1)^r delta_left] minus the pairing of w_r'
    with basis function s."""
    rows = []
    for w in el.moment_weights:
        row = [-inner(w.poly.deriv(), b) for b in el.basis()]
        row[-1] += w.k + 1
        row[0] -= (w.k + 1) * (-1) ** w.k
        rows.append(row)
    return rows


def interface_row(el, alpha):
    """The exact interface row at alpha on the 2K+1 dofs of the two cells
    at an interface (the left cell's K+1 dofs, then the right cell's past
    the shared value): the pairing of the test pieces with each b_s'."""
    t = build_point_test(el, alpha)
    k = el.k
    row = [inner(t.left, b.deriv()) for b in el.basis()] + [Fraction(0)] * k
    for s, b in enumerate(el.basis()):
        row[k + s] += inner(t.right, b.deriv())
    return row


class TestAppliedTaps1D:
    @pytest.mark.parametrize("a, alpha", [(1.0, 1.0), (-0.7, -1.0), (1.3, 0.37)])
    @pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
    def test_taps_are_exact_rows_rounded_once(self, k, a, alpha):
        # the taps rhs_1d applies, read off one unit dof at a time: the
        # moment rows, then the interface row at alpha, each weight times
        # -a/dx in exact arithmetic (rhs_1d runs alpha = sgn(a); the
        # family member at another alpha is its rows blended by
        # family_points).  The table entry is rounded once; the scale and
        # the D+/D- blend add at most a few half-ulp roundings, so each
        # tap lies within 2 eps of its row's largest weight.
        g = Grid1D(7)
        el = build_element(k)
        rows = (*by_parts_rows(el), interface_row(el, alpha))
        scale = -Fraction(a) / Fraction(g.dx)
        i = 3
        window = [(k - 1, -1)] + [(c, o) for o in (0, 1) for c in range(k)]
        taps = np.empty((k, g.n, k))
        for j in range(g.n):
            for c in range(k):
                data = np.zeros((k, g.n))
                data[c, j] = 1.0
                st = State1D(data)
                r = rhs_1d(st, g, el, advection1d(a), Upwind1D()).data
                if alpha != np.sign(a):
                    r[-1] = family_points(st, g, a, alpha)
                taps[:, j, c] = r[:, i]
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
        d_plus = interface_row(el, 1)
        d_minus = interface_row(el, -1)
        # the full-upwind rows read one cell only
        assert not any(d_plus[k + 1:]) and not any(d_minus[:k])
        exact = [*by_parts_rows(el), d_plus[: k + 1], d_minus[k:]]
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
            form = [[-inner(w.poly.deriv(), b * c) / 2 for c in basis] for b in basis]
            form[-1][-1] += Fraction(w.k + 1, 2)
            form[0][0] -= Fraction(w.k + 1, 2) * (-1) ** w.k
            exact.append(form)
        for phi in (build_point_test(el, 1).left, build_point_test(el, -1).right):
            exact.append([[inner(phi, b * c.deriv()) for c in basis] for b in basis])
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
        pairings = [inner(w.poly, q * q.deriv()) for w in el.moment_weights]
        pairings += [inner(phi, q * q.deriv()) for phi in tests]
        d = np.array([float(v) for v in dofs])
        for form, oracle in zip(_burgers_forms(k), pairings):
            assert d @ form @ d == pytest.approx(float(oracle), rel=1e-12, abs=1e-12)


class TestBurgersPointUpdate:
    def test_constant_zero(self):
        g = Grid1D(5)
        for value in (1.7, -1.7, 0.0):
            st = State1D(np.full((2, 5), value))
            assert np.max(np.abs(exact_points(st, g))) <= 1e-13

    def test_closed_form_frozen_expression(self):
        # literal re-coding of the two one-sided brackets, blended by
        # (1 +- alpha)/2 with alpha = sgn q: some interface values are
        # set to exactly 0, so alpha = -1, 0 and +1 all occur
        rng = np.random.default_rng(7)
        g = Grid1D(100)
        st = random_state_1d(rng, 100, 2)
        st.points[::7] = 0.0
        alpha = np.sign(st.points)
        assert set(alpha) == {-1.0, 0.0, 1.0}
        got = exact_points(st, g)
        left, right = exact_brackets(st, g)
        expected = -(0.5 * (1 + alpha) * left + 0.5 * (1 - alpha) * right)
        scale = np.max(np.abs(expected))
        assert np.max(np.abs(got - expected)) <= 1e-12 * scale

    def test_quadrature_oracle(self):
        # -(test fn, d/dx(q^2/2)) integrated exactly cell by cell, with the
        # test function at alpha = sgn q of each interface
        rng = np.random.default_rng(8)
        n = 6
        g = Grid1D(n)
        el = build_element(2)
        st = random_state_1d(rng, n, 2)
        st.points[3] = 0.0
        got = exact_points(st, g)
        polys = [cell_poly(st, el, i) for i in range(n)]
        for i in range(n):
            t = build_point_test(el, int(np.sign(st.points[i])))
            qi, qn = polys[i], polys[(i + 1) % n]
            val = inner(t.left, qi * qi.deriv()) + inner(t.right, qn * qn.deriv())
            oracle = -float(val / Fraction(1, n))
            assert got[i] == pytest.approx(oracle, rel=1e-12, abs=1e-12)

    def test_full_upwind_uses_left_bracket_only(self):
        rng = np.random.default_rng(9)
        g = Grid1D(6)
        st = random_state_1d(rng, 6, 2)
        st.points[:] = np.abs(st.points) + 0.1  # all positive
        left, _ = exact_brackets(st, g)
        assert np.allclose(exact_points(st, g), -left, atol=1e-13)

    def test_adaptive_alpha_follows_sign(self):
        g = Grid1D(6)
        rng = np.random.default_rng(10)
        st = random_state_1d(rng, 6, 2)
        st.points[:] = -np.abs(st.points) - 0.1  # all negative
        _, right = exact_brackets(st, g)
        assert np.allclose(exact_points(st, g), -right, atol=1e-13)

    def test_wrong_degree_rejected(self):
        g = Grid1D(6)
        st = State1D(np.zeros((3, 6)))
        with pytest.raises(ValueError):
            exact_points(st, g)

    def test_exact_update_through_rhs_1d(self):
        g = Grid1D(6)
        el = build_element(2)
        rng = np.random.default_rng(11)
        st = random_state_1d(rng, 6, 2)
        exact = rhs_1d(st, g, el, burgers1d(), Upwind1D("adaptive"), point_update="exact")
        split = rhs_1d(st, g, el, burgers1d(), Upwind1D("adaptive"), point_update="split")
        # the point update changes the interface values and nothing else
        assert exact.moments.tobytes() == split.moments.tobytes()
        assert not np.allclose(exact.points, split.points)
        with pytest.raises(ValueError):
            rhs_1d(st, g, el, advection1d(1.0), Upwind1D(), point_update="exact")


def random_state_2d(rng, nx, ny):
    return State2D(rng.standard_normal((4, nx, ny)))


# (field, cell offset) storing dof (r, s) of a cell: field 0 holds the
# averages, 1 the x-edges (right of the cell), 2 the y-edges (above it),
# 3 the nodes (upper right)
DOF_STORAGE_2D = {
    (0, 0): (0, (0, 0)),
    (-1, 0): (1, (-1, 0)),
    (1, 0): (1, (0, 0)),
    (0, -1): (2, (0, -1)),
    (0, 1): (2, (0, 0)),
    (-1, -1): (3, (-1, -1)),
    (1, -1): (3, (0, -1)),
    (-1, 1): (3, (-1, 0)),
    (1, 1): (3, (0, 0)),
}


def cell_poly_2d(state, el, i, j):
    nx, ny = state.averages.shape
    fields = (state.averages, state.edge_x, state.edge_y, state.nodes)
    dofs = {
        dof: Fraction(float(fields[f][(i + ox) % nx, (j + oy) % ny]))
        for dof, (f, (ox, oy)) in DOF_STORAGE_2D.items()
    }
    return reconstruct2d(el, dofs)


def pieces_2d(ax, ay, weights):
    """Pieces of the four output fields' test functions, keyed by support-cell offset."""
    if weights is None:  # rhs_2d's: edge weight sgn(a), node weight sgn(a)/2 per axis
        a3x, a3y = Fraction(int(np.sign(ax))), Fraction(int(np.sign(ay)))
        beta_x, beta_y = a3x / 2, a3y / 2
    else:
        (a3x, a3y), (beta_x, beta_y) = ([Fraction(w) for w in pair] for pair in weights)
    # the other free weights of the family are zero (see Upwind2D)
    return (
        {(0, 0): Poly([[1]])},  # the average's test function: the cell indicator
        build_edge_test((0, 0, a3x), "x").pieces,
        build_edge_test((0, 0, a3y), "y").pieces,
        build_node_test((0,) * 8 + (2 * beta_y, beta_x / 2, beta_x / 2)).pieces,
    )


def taps_2d(grid, ax, ay, weights):
    """``_compile_taps_2d`` at the (alpha3, beta) pairs ``weights``, or at
    the sign-following ones rhs_2d passes when ``weights`` is None."""
    if weights is None:
        sx, sy = np.sign(ax), np.sign(ay)
        weights = (sx, sy), (sx / 2, sy / 2)
    return _compile_taps_2d(grid.dx, grid.dy, ax, ay, *weights)


def apply_2d(state, grid, ax, ay, weights):
    """rhs_2d's output array, or with ``weights`` its operator at those weights."""
    if weights is None:
        return rhs_2d(state, grid, build_element_2d(), advection2d(ax, ay), Upwind2D()).data
    return _apply_blocks_2d(state.data, *taps_2d(grid, ax, ay, weights))


# weights that no velocity signs give: x- and y-edges at alpha3 = 0.5,
# nodes at beta = -0.25 on both axes, so every offset in {-1, 0, 1}^2 is read
FIXED_2D = ((0.5, 0.5), (-0.25, -0.25))

CASES_2D = [
    pytest.param(4, 4, 0.8, -0.6, FIXED_2D, id="fixed-4x4"),
    pytest.param(5, 4, 0.8, -0.6, FIXED_2D, id="fixed-5x4"),
    pytest.param(5, 4, 0.8, -0.6, None, id="adaptive-5x4-a(0.8,-0.6)"),
    pytest.param(5, 4, -0.7, 1.1, None, id="adaptive-5x4-a(-0.7,1.1)"),
    pytest.param(5, 4, 1.0, 0.0, None, id="adaptive-5x4-a(1,0)"),
    pytest.param(5, 4, 0.0, -1.3, None, id="adaptive-5x4-a(0,-1.3)"),
]


class TestDofGather2D:
    def test_gather_matches_cell_poly_oracle(self):
        # each gathered dof is that dof functional of the oracle's cell
        # polynomial, on a grid with nx != ny so that swapped axes show
        nx, ny = 5, 4
        st = random_state_2d(np.random.default_rng(33), nx, ny)
        el = build_element_2d()
        dofs = _dof_gather_2d(st)
        assert dofs.shape == (len(DOF_IDS), nx, ny)
        for i in range(nx):
            for j in range(ny):
                q = cell_poly_2d(st, el, i, j)
                assert [apply_dof(dof, q) for dof in DOF_IDS] == [Fraction(v) for v in dofs[:, i, j]]

    @pytest.mark.parametrize("nx, ny", [(3, 3), (3, 11), (11, 3), (5, 4)])
    def test_gather_is_the_rolled_fields(self, nx, ny):
        # each dof row is its storing field shifted by np.roll, bit for bit
        st = random_state_2d(np.random.default_rng(35), nx, ny)
        ref = np.stack([np.roll(st.data[f], (-ox, -oy), axis=(0, 1))
                        for f, (ox, oy) in map(DOF_STORAGE_2D.get, DOF_IDS)])
        assert _dof_gather_2d(st).tobytes() == ref.tobytes()

    @pytest.mark.parametrize("nx, ny, rows", [
        (11, 3, slice(0, 4)),  # touches row 0: wraps to row nx - 1
        (11, 3, slice(4, 8)),
        (11, 3, slice(8, 12)),  # partial, touches row nx - 1: wraps to row 0
        (11, 3, slice(10, 11)),
        (3, 11, slice(0, 3)),
        (5, 4, slice(0, 1)),
    ])
    def test_block_gather_is_rows_of_the_whole(self, nx, ny, rows):
        # a block of grid rows gathers, bit for bit, those rows of the
        # rolled fields (and so of the whole-grid gather)
        st = random_state_2d(np.random.default_rng(36), nx, ny)
        ref = np.stack([np.roll(st.data[f], (-ox, -oy), axis=(0, 1))
                        for f, (ox, oy) in map(DOF_STORAGE_2D.get, DOF_IDS)])
        block = _dof_gather_2d(st, rows)
        assert block.shape == (len(DOF_IDS), len(range(nx)[rows]), ny)
        assert block.tobytes() == ref[:, rows].tobytes()
        assert block.tobytes() == _dof_gather_2d(st)[:, rows].tobytes()


class TestDofGather1D:
    @pytest.mark.parametrize("m", [1, 2])
    @pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
    def test_block_gather_is_cells_of_the_whole(self, k, m):
        # the whole gather is the left neighbours' interface values over
        # the state's K rows; a block of cells (the first, a middle one
        # and a partial last one) gathers those cells of it, bit for bit
        n = 1000
        st = random_state_1d(np.random.default_rng(40 + k), n, k, 0 if m == 1 else m)
        whole = _dof_gather_1d(st)
        ref = np.concatenate([np.roll(st.data[-1:], 1, axis=1), st.data])
        assert whole.tobytes() == ref.tobytes()
        for cells in (slice(0, 192), slice(384, 576), slice(960, 1152)):
            block = _dof_gather_1d(st, cells)
            assert block.shape == (k + 1, len(range(n)[cells])) + st.data.shape[2:]
            assert block.tobytes() == whole[:, cells].tobytes()


class TestRhs2D:
    def test_constant_state_zero(self):
        g = Grid2D(5, 4)
        el = build_element_2d()
        st = project_initial(g, lambda x, y: 2.0 + 0.0 * np.asarray(x))
        r = rhs_2d(st, g, el, advection2d(1.0, -0.5), Upwind2D("adaptive"))
        for arr in (r.averages, r.edge_x, r.edge_y, r.nodes):
            assert np.max(np.abs(arr)) <= 1e-13

    def test_zero_velocity_zero(self):
        # every weight vanishes, so the block operator has no columns
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
        st = State2D(fields)
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
        # for ax > 0 the node row reads x-derivatives from the left-side
        # cells only: full left upwinding, alpha3 = 1 and beta = 1/2
        rng = np.random.default_rng(13)
        g = Grid2D(4, 4)
        el = build_element_2d()
        st = random_state_2d(rng, 4, 4)
        r_adaptive = rhs_2d(st, g, el, advection2d(1.0, 0.0), Upwind2D("adaptive"))
        r_left = State2D(apply_2d(st, g, 1.0, 0.0, ((1.0, 1.0), (0.5, 0.5))))
        assert np.allclose(r_adaptive.nodes, r_left.nodes, atol=1e-13)
        assert np.allclose(r_adaptive.edge_x, r_left.edge_x, atol=1e-13)

    def test_state_grid_mismatch_rejected(self):
        st = random_state_2d(np.random.default_rng(15), 6, 4)
        with pytest.raises(ValueError):
            rhs_2d(st, Grid2D(5, 4), build_element_2d(), advection2d(1.0, 1.0), Upwind2D())

    @pytest.mark.parametrize("nx, ny, ax, ay, weights", CASES_2D)
    def test_oracle_equivalence_random_alphas(self, nx, ny, ax, ay, weights):
        # every rhs entry equals the direct pairing of the assembled test
        # function with -(ax dq/dx + ay dq/dy), integrated exactly
        rng = np.random.default_rng(14)
        g = Grid2D(nx, ny)
        el = build_element_2d()
        st = random_state_2d(rng, nx, ny)
        r = State2D(apply_2d(st, g, ax, ay, weights))

        cells = {(i, j): cell_poly_2d(st, el, i, j) for i in range(nx) for j in range(ny)}
        dxf = Fraction(1, nx)
        dyf = Fraction(1, ny)
        axf, ayf = Fraction(ax), Fraction(ay)

        def pair(piece, poly):
            return axf * inner(piece, poly.deriv(0)) / dxf + ayf * inner(piece, poly.deriv(1)) / dyf

        pieces = pieces_2d(ax, ay, weights)
        for out, field_pieces in zip((r.averages, r.edge_x, r.edge_y, r.nodes), pieces):
            for i in range(nx):
                for j in range(ny):
                    # the piece at offset o lives on the cell (i, j) + o
                    oracle = -float(
                        sum(
                            pair(piece, cells[((i + ox) % nx, (j + oy) % ny)])
                            for (ox, oy), piece in field_pieces.items()
                        )
                    )
                    assert out[i, j] == pytest.approx(oracle, rel=1e-11, abs=1e-11)


class TestCompiledTaps2D:
    @pytest.mark.parametrize(
        "nx, ny, ax, ay, weights",
        [
            *CASES_2D,
            pytest.param(160, 160, 1.0, 1.0, None, id="adv2d-160x160-a(1,1)"),
        ],
    )
    def test_taps_are_exact_pairings_rounded_once(self, nx, ny, ax, ay, weights):
        # the weight of an output field on the dof stored at (field, offset) is
        # -sum over the field's test-function pieces of
        # inner(piece, ax/dx d_xi b + ay/dy d_eta b), b the basis function
        # of that dof in the piece's cell, rounded to float once; no other
        # (field, offset) is a column of the block operator
        g = Grid2D(nx, ny)
        cx, cy = Fraction(ax) / Fraction(g.dx), Fraction(ay) / Fraction(g.dy)
        el = build_element_2d()
        flux = {dof: cx * b.deriv(0) + cy * b.deriv(1) for dof, b in el.basis.items()}
        columns, w = taps_2d(g, ax, ay, weights)
        assert w.shape == (4, len(columns))
        assert not w.flags.writeable  # shared by every call through the cache
        assert len(set(columns)) == len(columns)
        carried = set()
        for field_pieces, row in zip(pieces_2d(ax, ay, weights), w, strict=True):
            exact = {}
            for (px, py), piece in field_pieces.items():
                for dof, f in flux.items():
                    field, (ox, oy) = DOF_STORAGE_2D[dof]
                    key = field, (px + ox, py + oy)
                    exact[key] = exact.get(key, 0) - inner(piece, f)
            exact = {key: float(w) for key, w in exact.items() if w != 0}
            got = {column: w for column, w in zip(columns, row) if w != 0}
            assert got == exact
            carried |= exact.keys()
        assert carried == set(columns)


def rolled_reference(data, columns, weights):
    """The block operator without tiles or padding: the sum over the columns
    (field, o) of W[:, j] times field shifted by o with np.roll."""
    out = np.zeros_like(data)
    for w, (field, (ox, oy)) in zip(weights.T, columns):
        out += w[:, None, None] * np.roll(data[field], (-ox, -oy), axis=(0, 1))
    return out


def tile_rows(columns, ny):
    """Grid rows per tile of rhs_2d at the module's TILE_BYTES."""
    return semidiscrete.TILE_BYTES // (len(columns) * ny * 8)


class TestBlockApply2D:
    @pytest.mark.parametrize(
        "ax, ay, weights",
        [
            pytest.param(0.8, -0.6, None, id="adaptive-a(0.8,-0.6)"),
            pytest.param(0.8, -0.6, FIXED_2D, id="fixed"),
        ],
    )
    @pytest.mark.parametrize(
        "grid_rows, budget_rows, full_tiles_and_rest",
        [
            # (nx, ny) from the tile height T at ny = 160; budget_rows, if
            # set, shrinks TILE_BYTES to that many rows at ny = 11
            pytest.param(lambda t: (7, 5), None, (0, 7), id="smaller-than-a-tile"),
            pytest.param(lambda t: (2 * t, 160), None, (2, 0), id="two-full-tiles"),
            pytest.param(lambda t: (t + 1, 160), None, (1, 1), id="one-row-past-a-tile"),
            pytest.param(lambda t: (37, 11), 4, (9, 1), id="prime-37x11-in-4-row-tiles"),
            pytest.param(lambda t: (37, 11), 0, (37, 0), id="prime-37x11-in-1-row-tiles"),
        ],
    )
    def test_tiles_match_rolled_reference(
        self, monkeypatch, grid_rows, budget_rows, full_tiles_and_rest, ax, ay, weights
    ):
        # every tile, the last partial one included, must land in its own
        # rows: compare with the untiled sum of np.roll-shifted fields
        probe = Grid2D(4, 4)
        columns, _ = taps_2d(probe, ax, ay, weights)
        if budget_rows is not None:
            monkeypatch.setattr(semidiscrete, "TILE_BYTES", budget_rows * len(columns) * 11 * 8)
        nx, ny = grid_rows(tile_rows(columns, 160))
        assert divmod(nx, max(1, tile_rows(columns, ny))) == full_tiles_and_rest
        g = Grid2D(nx, ny)
        st = random_state_2d(np.random.default_rng(31), nx, ny)
        r = apply_2d(st, g, ax, ay, weights)
        ref = rolled_reference(st.data, *taps_2d(g, ax, ay, weights))
        assert np.max(np.abs(r - ref)) <= 1e-14 * np.max(np.abs(ref))

    def test_fresh_output_and_untouched_input(self):
        # timestep.step hands rhs_2d a stage buffer it overwrites later and
        # keeps the returned buffer: both must stay unaliased
        g = Grid2D(50, 160)
        st = random_state_2d(np.random.default_rng(32), 50, 160)
        before = st.data.copy()
        model, up = advection2d(1.0, 1.0), Upwind2D("adaptive")
        first = rhs_2d(st, g, build_element_2d(), model, up)
        second = rhs_2d(st, g, build_element_2d(), model, up)
        assert st.data.tobytes() == before.tobytes()
        assert first.data.flags.c_contiguous and first.data.shape == st.data.shape
        assert not np.shares_memory(first.data, st.data)
        assert not np.shares_memory(first.data, second.data)
        assert first.data.tobytes() == second.data.tobytes()


class TestOutBuffer:
    """rhs_1d and rhs_2d with ``out=``: the bits of a fresh call, written into ``out``."""

    @staticmethod
    def cases():
        rng = np.random.default_rng(33)
        g2 = Grid2D(37, 11)
        yield "advection_1d", random_state_1d(rng, 50, 4), lambda s, **kw: rhs_1d(
            s, Grid1D(50), build_element(4), advection1d(-0.7), Upwind1D("adaptive"), **kw)
        yield "system_1d", random_state_1d(rng, 20, 3, m=2), lambda s, **kw: rhs_1d(
            s, Grid1D(20), build_element(3), linear_system1d([[0.0, 1.0], [1.0, 0.0]]),
            Upwind1D("adaptive"), **kw)
        yield "burgers_1d", random_state_1d(rng, 30, 2), lambda s, **kw: rhs_1d(
            s, Grid1D(30), build_element(2), burgers1d(), Upwind1D("adaptive"),
            point_update="exact", **kw)
        yield "advection_2d", random_state_2d(rng, 37, 11), lambda s, **kw: rhs_2d(
            s, g2, build_element_2d(), advection2d(0.8, -0.6), Upwind2D("adaptive"), **kw)

    def test_out_holds_the_fresh_result(self):
        for name, st, rhs in self.cases():
            before = st.data.copy()
            fresh = rhs(st)
            out = np.full_like(st.data, np.nan)
            r = rhs(st, out=out)
            assert r.data is out, name
            assert out.tobytes() == fresh.data.tobytes(), name
            assert st.data.tobytes() == before.tobytes(), name

    def test_unfit_out_rejected(self):
        for name, st, rhs in self.cases():
            for bad in (st.data, np.empty(st.data.shape[:-1] + (st.data.shape[-1] + 1,)),
                        np.empty_like(st.data, dtype=np.float32),
                        np.empty(st.data.shape[::-1]).T):
                with pytest.raises(ValueError, match="out must"):
                    rhs(st, out=bad)

    def test_scratch_follows_the_shape(self):
        # _apply_blocks_2d keeps its tile and copy plan for the last shape
        # only: alternating grids must each get their own operator's bits
        up, rng = Upwind2D("adaptive"), np.random.default_rng(34)
        problems = []
        for nx, ny in ((9, 7), (5, 12)):
            g = Grid2D(nx, ny)
            st = random_state_2d(rng, nx, ny)
            columns, weights = taps_2d(g, 1.0, -0.5, None)
            problems.append((g, st, rolled_reference(st.data, columns, weights)))
        for g, st, ref in problems + problems:
            r = rhs_2d(st, g, build_element_2d(), advection2d(1.0, -0.5), up)
            assert np.max(np.abs(r.data - ref)) <= 1e-14 * np.max(np.abs(ref))


class TestWrapEdges:
    """The periodic wrap is done by the tile copies themselves: on grids of
    3 rows or columns, every tile holds wrapped rows or columns."""

    @pytest.mark.parametrize(
        "ax, ay, weights",
        [
            pytest.param(0.8, -0.6, None, id="adaptive-a(0.8,-0.6)"),
            pytest.param(0.8, -0.6, FIXED_2D, id="fixed"),
        ],
    )
    @pytest.mark.parametrize("nx, ny", [(3, 3), (3, 11), (11, 3)])
    @pytest.mark.parametrize("rows", [1, 2])
    def test_small_grids_match_rolled_reference(self, monkeypatch, rows, nx, ny, ax, ay, weights):
        g = Grid2D(nx, ny)
        columns, w = taps_2d(g, ax, ay, weights)
        if weights is FIXED_2D:  # it reads offsets -1 and +1 along both axes
            assert len(columns) == 21
            for axis in (0, 1):
                assert {o[axis] for _, o in columns} == {-1, 0, 1}
        monkeypatch.setattr(semidiscrete, "TILE_BYTES", rows * len(columns) * ny * 8)
        st = random_state_2d(np.random.default_rng(36), nx, ny)
        r = apply_2d(st, g, ax, ay, weights)
        hits = semidiscrete._scratch_2d.cache_info().hits
        _, plan = semidiscrete._scratch_2d(nx, ny, min(rows, nx), columns)
        assert semidiscrete._scratch_2d.cache_info().hits == hits + 1  # the plan rhs_2d used
        assert [t for _, t, _ in plan] == [min(rows, nx - i) for i in range(0, nx, rows)]
        ref = rolled_reference(st.data, columns, w)
        assert np.max(np.abs(r - ref)) <= 1e-14 * np.max(np.abs(ref))


def test_cold_rhs_2d_holds_only_its_tile():
    # with out=, a cold call at 160^2 allocates the tile and nothing
    # state-sized: a copy of the state (800 KB) does not fit the 64 KiB slack
    g, up, el = Grid2D(160, 160), Upwind2D("adaptive"), build_element_2d()
    st = random_state_2d(np.random.default_rng(37), 160, 160)
    out = np.empty_like(st.data)
    columns, _ = taps_2d(g, 1.0, 1.0, None)  # a cache, not scratch
    semidiscrete._scratch_2d.cache_clear()
    tracemalloc.start()
    try:
        rhs_2d(st, g, el, advection2d(1.0, 1.0), up, out=out)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= semidiscrete.TILE_BYTES + 64 * 1024
    kept = semidiscrete._scratch_2d(160, 160, tile_rows(columns, 160), columns)
    assert semidiscrete._scratch_2d.cache_info()[:2] == (1, 1)  # (hits, misses): the call's own
    kept = [a for a in kept if isinstance(a, np.ndarray)]
    assert kept and sum(a.nbytes for a in kept) <= semidiscrete.TILE_BYTES
