"""Construction and pairing-row tests for the biparabolic 2-d element."""

import random
from fractions import Fraction

import pytest

from afpg.element1d import build_element, build_point_test
from afpg.element2d import (
    DOF_IDS,
    apply_dof,
    build_edge_test,
    build_element_2d,
    build_node_test,
    dof_point,
    pair_row,
    reconstruct2d,
)
from afpg.poly import Poly, gauss_rule, gram, inner, integrate


def quad_inner(p, q, n=4):
    """Independent 2-d pairing oracle via tensor Gauss quadrature."""
    rule = gauss_rule(n)
    total = 0.0
    pf, qf = Poly(p.float_coeffs), Poly(q.float_coeffs)
    for xa, wa in zip(rule.nodes, rule.weights):
        for xb, wb in zip(rule.nodes, rule.weights):
            total += wa * wb * pf(xa, xb) * qf(xa, xb)
    return total


def random_rational(rng, den=9):
    return Fraction(rng.randint(-12, 12), den)


def shared_patch(rng, offsets):
    """Cells with correctly shared interface dofs over the given offsets."""
    values = {}

    def gval(key):
        if key not in values:
            values[key] = random_rational(rng)
        return values[key]

    cells = {}
    for off in offsets:
        ox, oy = off
        dofs = {}
        for r, s in DOF_IDS:
            if (r, s) == (0, 0):
                dofs[(r, s)] = gval(("avg", ox, oy))
            else:
                dofs[(r, s)] = gval(("pt", 2 * ox + r, 2 * oy + s))
        cells[off] = dofs
    return cells, gval


class TestBasis:
    def test_matches_closed_forms(self):
        el = build_element_2d()
        one = Poly([1])
        lin_p, lin_m = Poly([1, 2]), Poly([-1, 2])
        six_m, six_p = Poly([-1, 6]), Poly([1, 6])
        sq = Poly([-1, 0, 4])

        def tx(p):
            return Poly.tensor(p, one)

        def ty(p):
            return Poly.tensor(one, p)

        s16, m14 = Fraction(1, 16), Fraction(-1, 4)
        expected = {
            (1, 1): s16 * tx(lin_p) * ty(lin_p) * Poly([[-1, 2], [2, 12]]),
            (-1, 1): s16 * tx(lin_m) * ty(lin_p) * Poly([[1, -2], [2, 12]]),
            (-1, -1): s16 * tx(lin_m) * ty(lin_m) * Poly([[-1, -2], [-2, 12]]),
            (1, -1): s16 * tx(lin_p) * ty(lin_m) * Poly([[1, 2], [-2, 12]]),
            (0, 1): m14 * tx(sq) * ty(lin_p) * ty(six_m),
            (0, -1): m14 * tx(sq) * ty(lin_m) * ty(six_p),
            (-1, 0): m14 * tx(lin_m) * tx(six_p) * ty(sq),
            (1, 0): m14 * tx(lin_p) * tx(six_m) * ty(sq),
            (0, 0): Fraction(9, 4) * tx(sq) * ty(sq),
        }
        for dof in DOF_IDS:
            assert el.basis[dof] == expected[dof], dof

    def test_duality_identity(self):
        el = build_element_2d()
        for r in DOF_IDS:
            for s in DOF_IDS:
                assert apply_dof(r, el.basis[s]) == Fraction(int(r == s))

    def test_corner_dof_evaluations(self):
        el = build_element_2d()
        b = el.basis[(1, 1)]
        assert b(Fraction(1, 2), Fraction(1, 2)) == 1
        assert integrate(b) == 0

    def test_average_basis_normalized(self):
        assert integrate(build_element_2d().basis[(0, 0)]) == 1

    def test_spans_tensor_quadratics(self):
        # the change of basis to monomials must be invertible: recombining
        # the nine basis functions reproduces an arbitrary tensor quadratic
        el = build_element_2d()
        rng = random.Random(5)
        p = Poly([[random_rational(rng) for _ in range(3)] for _ in range(3)])
        dofs = {dof: apply_dof(dof, p) for dof in DOF_IDS}
        assert reconstruct2d(el, dofs) == p

    def test_tensor_basis_relations(self):
        # edge functions are 2/3 of the 1-d tensor product; corner functions
        # carry 1/6 corrections along each axis; the average factorizes
        el2 = build_element_2d()
        el1 = build_element(2)
        b1 = {1: el1.basis_right, -1: el1.basis_left, 0: el1.basis_moments[0]}

        def tens(r, s):
            return Poly.tensor(b1[r], b1[s])

        third2 = Fraction(2, 3)
        sixth = Fraction(1, 6)
        for r, s in ((1, 0), (-1, 0), (0, 1), (0, -1)):
            assert el2.basis[(r, s)] == third2 * tens(r, s)
        for r in (-1, 1):
            for s in (-1, 1):
                expected = tens(r, s) + sixth * tens(r, 0) + sixth * tens(0, s)
                assert el2.basis[(r, s)] == expected
        assert el2.basis[(0, 0)] == tens(0, 0)


class TestExactSolves:
    def test_gram_equals_poly_product_pairings(self):
        basis = build_element_2d().basis_ordered()
        monos = [Poly([[int((i, j) == (m, n)) for j in range(3)] for i in range(3)])
                 for m in range(3) for n in range(3)]
        assert gram(basis, (3, 3)) == [[inner(b, m) for m in monos] for b in basis]

    def test_element_and_test_pieces_take_two_eliminations(self, exact_solves):
        build_element_2d()
        build_edge_test((0.0, 0.0, 1.0), "x")
        build_edge_test((0.0, 0.0, -1.0), "y")
        build_node_test((0.0,) * 8 + (1.0, 0.25, 0.25))
        assert len(exact_solves) <= 2


class TestEdgeTests:
    def test_defining_pairings_random_alphas(self):
        rng = random.Random(11)
        el = build_element_2d()
        for _ in range(4):
            alphas = tuple(random_rational(rng, 8) for _ in range(3))
            t = build_edge_test(alphas, "x")
            for off, row in t.table.items():
                for dof, val in row.items():
                    assert inner(t.pieces[off], el.basis[dof]) == val

    def test_pairings_by_quadrature_oracle(self):
        el = build_element_2d()
        t = build_edge_test((0.21, -0.4, 0.5), "x")
        for off, row in t.table.items():
            for dof, val in row.items():
                got = quad_inner(t.pieces[off], el.basis[dof])
                assert got == pytest.approx(float(val), abs=1e-13)

    def test_tensor_expansion_theorem(self):
        # the left-cell piece expands in tensor products of 1-d central
        # test functions with coefficients (8a1-1-a3)/2, 3(1+a3)/2,
        # (8a2-1-a3)/2
        el1 = build_element(2)
        t0 = build_point_test(el1, 0)
        a_1d = {1: t0.left, -1: t0.right, 0: Poly([1])}

        def tens(r, s):
            return Poly.tensor(a_1d[r], a_1d[s])

        rng = random.Random(12)
        for _ in range(20):
            a1, a2, a3 = (random_rational(rng, 16) for _ in range(3))
            t = build_edge_test((a1, a2, a3), "x")
            expected = (
                Fraction(8 * a1 - 1 - a3, 2) * tens(1, 1)
                + Fraction(3, 2) * (1 + a3) * tens(1, 0)
                + Fraction(8 * a2 - 1 - a3, 2) * tens(1, -1)
            )
            diff = t.pieces[(0, 0)] - expected
            assert max(abs(float(c)) for row in diff.coeffs for c in row) <= 1e-13

    def test_central_expansion(self):
        el1 = build_element(2)
        t0 = build_point_test(el1, 0)
        a_1d = {1: t0.left, -1: t0.right, 0: Poly([1])}
        t = build_edge_test((0, 0, 0), "x")
        expected = (
            Fraction(-1, 2) * Poly.tensor(a_1d[1], a_1d[1])
            + Fraction(3, 2) * Poly.tensor(a_1d[1], a_1d[0])
            + Fraction(-1, 2) * Poly.tensor(a_1d[1], a_1d[-1])
        )
        assert t.pieces[(0, 0)] == expected

    def test_y_orientation_is_transpose(self):
        alphas = (Fraction(1, 5), Fraction(-1, 7), Fraction(2, 5))
        tx_ = build_edge_test(alphas, "x")
        ty_ = build_edge_test(alphas, "y")
        assert ty_.pieces[(0, 0)] == tx_.pieces[(0, 0)].transpose()
        assert ty_.pieces[(0, 1)] == tx_.pieces[(1, 0)].transpose()
        el = build_element_2d()
        for off, row in ty_.table.items():
            for dof, val in row.items():
                assert inner(ty_.pieces[off], el.basis[dof]) == val

    def test_invalid_orientation(self):
        with pytest.raises(ValueError):
            build_edge_test((0, 0, 0), "z")


class TestNodeTests:
    def test_zero_alphas_self_pairings(self):
        el = build_element_2d()
        t = build_node_test((0,) * 11)
        own_dof = {(0, 0): (1, 1), (1, 0): (-1, 1), (0, 1): (1, -1), (1, 1): (-1, -1)}
        for off, dof in own_dof.items():
            assert inner(t.pieces[off], el.basis[dof]) == Fraction(1, 4)

    def test_alpha9_split(self):
        el = build_element_2d()
        t = build_node_test((0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0))
        assert inner(t.pieces[(0, 0)], el.basis[(1, 1)]) == Fraction(1, 2)

    def test_full_table_random_alphas(self):
        rng = random.Random(13)
        el = build_element_2d()
        for _ in range(3):
            alphas = tuple(random_rational(rng, 10) for _ in range(11))
            t = build_node_test(alphas)
            for off, row in t.table.items():
                for dof, val in row.items():
                    assert inner(t.pieces[off], el.basis[dof]) == val

    def test_table_by_quadrature_oracle(self):
        el = build_element_2d()
        alphas = tuple(0.1 * i - 0.5 for i in range(11))
        t = build_node_test(alphas)
        for off, row in t.table.items():
            for dof, val in row.items():
                got = quad_inner(t.pieces[off], el.basis[dof])
                assert got == pytest.approx(float(val), abs=1e-13)

    def test_wrong_alpha_count(self):
        with pytest.raises(ValueError):
            build_node_test((0,) * 10)


class TestGlobalBiorthogonality:
    def test_periodic_patch_pairing_matrix(self):
        # assembled test functions against assembled basis functions over a
        # 3x3 periodic patch give the identity, for a random alpha config
        rng = random.Random(17)
        el = build_element_2d()
        n = 3
        edge_x = {
            (i, j): build_edge_test(tuple(random_rational(rng, 8) for _ in range(3)), "x")
            for i in range(n)
            for j in range(n)
        }
        edge_y = {
            (i, j): build_edge_test(tuple(random_rational(rng, 8) for _ in range(3)), "y")
            for i in range(n)
            for j in range(n)
        }
        nodes = {
            (i, j): build_node_test(tuple(random_rational(rng, 8) for _ in range(11)))
            for i in range(n)
            for j in range(n)
        }

        # global dof -> list of (cell, local piece) for basis functions;
        # basis pieces of the global dof living in several cells
        def basis_pieces(kind, i, j):
            if kind == "avg":
                return [((i, j), el.basis[(0, 0)])]
            if kind == "ex":  # edge between cell (i, j) and (i+1, j)
                return [((i, j), el.basis[(1, 0)]), (((i + 1) % n, j), el.basis[(-1, 0)])]
            if kind == "ey":
                return [((i, j), el.basis[(0, 1)]), ((i, (j + 1) % n), el.basis[(0, -1)])]
            return [
                ((i, j), el.basis[(1, 1)]),
                (((i + 1) % n, j), el.basis[(-1, 1)]),
                ((i, (j + 1) % n), el.basis[(1, -1)]),
                (((i + 1) % n, (j + 1) % n), el.basis[(-1, -1)]),
            ]

        def test_pieces(kind, i, j):
            if kind == "avg":
                return [((i, j), Poly([[1]]))]
            if kind == "ex":
                t = edge_x[(i, j)]
                return [((i, j), t.pieces[(0, 0)]), (((i + 1) % n, j), t.pieces[(1, 0)])]
            if kind == "ey":
                t = edge_y[(i, j)]
                return [((i, j), t.pieces[(0, 0)]), ((i, (j + 1) % n), t.pieces[(0, 1)])]
            t = nodes[(i, j)]
            return [
                ((i, j), t.pieces[(0, 0)]),
                (((i + 1) % n, j), t.pieces[(1, 0)]),
                ((i, (j + 1) % n), t.pieces[(0, 1)]),
                (((i + 1) % n, (j + 1) % n), t.pieces[(1, 1)]),
            ]

        all_dofs = [(kind, i, j) for kind in ("avg", "ex", "ey", "nd") for i in range(n) for j in range(n)]
        # checking all 36x36 pairings exactly is cheap enough
        for r in all_dofs:
            tps = dict(test_pieces(*r))
            for s in all_dofs:
                total = Fraction(0)
                for cell, bp in basis_pieces(*s):
                    if cell in tps:
                        total += inner(tps[cell], bp)
                assert total == Fraction(int(r == s)), (r, s)


def paired(table, cells, axis, scale):
    """What a test function's pairing table makes of the axis-derivative
    of the reconstruction on ``cells`` (support-cell offset -> dof
    mapping): each row paired with its cell's derivative by ``pair_row``,
    as the runtime pairs rows, summed and divided by the grid spacing."""
    el = build_element_2d()
    total = sum(pair_row(row, reconstruct2d(el, cells[off]).deriv("xy".index(axis)))
                for off, row in table.items())
    return total / scale


class TestStencils:
    """Interface derivatives from the pairing tables through ``pair_row``."""

    def test_edge_full_left_upwind(self):
        # alpha3 = 1 and no stabilization: the normal derivative is the
        # one-sided derivative from the left cell
        rng = random.Random(21)
        el = build_element_2d()
        cells, _ = shared_patch(rng, [(0, 0), (1, 0)])
        t = build_edge_test((0, 0, 1), "x")
        dx = Fraction(1, 4)
        got = paired(t.table, cells, "x", dx)
        own = reconstruct2d(el, cells[(0, 0)]).deriv(0)
        assert got == own(Fraction(1, 2), Fraction(0)) / dx

    def test_edge_central_on_smooth_data(self):
        # a single global quadratic has no jumps: the central average is the
        # exact derivative regardless of the stabilization weights
        el = build_element_2d()
        p = Poly([[1, 2, -1], [3, Fraction(1, 2), 1], [2, -2, 1]])
        dx = dy = Fraction(1)
        cells = {}
        for off in ((0, 0), (1, 0)):
            shifted = {}
            for dof in DOF_IDS:
                if dof == (0, 0):
                    # average over the shifted cell
                    cell_poly = _shift_poly(p, off)
                    shifted[dof] = integrate(cell_poly)
                else:
                    xi, eta = dof_point(dof)
                    shifted[dof] = p(xi + off[0], eta + off[1])
            cells[off] = shifted
        t = build_edge_test((0, 0, 0), "x")
        got_n = paired(t.table, cells, "x", dx)
        got_t = paired(t.table, cells, "y", dy)
        assert got_n == p.deriv(0)(Fraction(1, 2), 0)
        assert got_t == p.deriv(1)(Fraction(1, 2), 0)

    def test_edge_oracle_random_alphas(self):
        rng = random.Random(22)
        el = build_element_2d()
        cells, _ = shared_patch(rng, [(0, 0), (1, 0)])
        dx, dy = Fraction(1, 3), Fraction(1, 6)
        t = build_edge_test((Fraction(1, 5), Fraction(-3, 10), Fraction(1, 2)), "x")
        for axis, scale in (("x", dx), ("y", dy)):
            got = paired(t.table, cells, axis, scale)
            oracle = Fraction(0)
            for off, piece in t.pieces.items():
                recon = reconstruct2d(el, cells[off])
                oracle += inner(piece, recon.deriv("xy".index(axis)))
            assert got == oracle / scale

    def test_tangential_is_single_valued(self):
        rng = random.Random(23)
        el = build_element_2d()
        cells, _ = shared_patch(rng, [(0, 0), (1, 0)])
        dy = Fraction(1, 7)
        for alphas in ((0, 0, 0), (Fraction(1, 3), Fraction(-1, 4), Fraction(4, 5))):
            t = build_edge_test(alphas, "x")
            got = paired(t.table, cells, "y", dy)
            own = reconstruct2d(el, cells[(0, 0)]).deriv(1)(Fraction(1, 2), 0) / dy
            other = reconstruct2d(el, cells[(1, 0)]).deriv(1)(Fraction(-1, 2), 0) / dy
            assert own == other  # trace derivative is single-valued
            assert got == own

    def test_node_full_left_upwind(self):
        rng = random.Random(24)
        el = build_element_2d()
        cells, _ = shared_patch(rng, [(0, 0), (1, 0), (0, 1), (1, 1)])
        t = build_node_test((0, 0, 0, 0, 0, 0, 0, 0, 0, Fraction(1, 4), Fraction(1, 4)))
        dx = Fraction(1, 2)
        got = paired(t.table, cells, "x", dx)
        own = reconstruct2d(el, cells[(0, 0)]).deriv(0)(Fraction(1, 2), Fraction(1, 2)) / dx
        assert got == own

    def test_node_central_average(self):
        rng = random.Random(25)
        el = build_element_2d()
        cells, _ = shared_patch(rng, [(0, 0), (1, 0), (0, 1), (1, 1)])
        t = build_node_test((0,) * 11)
        dx = Fraction(1, 2)
        got = paired(t.table, cells, "x", dx)
        d_left = reconstruct2d(el, cells[(0, 0)]).deriv(0)(Fraction(1, 2), Fraction(1, 2)) / dx
        d_right = reconstruct2d(el, cells[(1, 0)]).deriv(0)(Fraction(-1, 2), Fraction(1, 2)) / dx
        assert got == (d_left + d_right) / 2

    def test_node_oracle_random_alphas(self):
        rng = random.Random(26)
        el = build_element_2d()
        cells, _ = shared_patch(rng, [(0, 0), (1, 0), (0, 1), (1, 1)])
        alphas = tuple(random_rational(rng, 12) for _ in range(11))
        t = build_node_test(alphas)
        dx, dy = Fraction(2, 5), Fraction(1, 4)
        for axis, scale in (("x", dx), ("y", dy)):
            got = paired(t.table, cells, axis, scale)
            oracle = Fraction(0)
            for off, piece in t.pieces.items():
                oracle += inner(piece, reconstruct2d(el, cells[off]).deriv("xy".index(axis)))
            assert got == oracle / scale

    def test_node_simplified_two_sided_forms(self):
        # x weights 1/2 +- (a10+a11) plus a1/a3/a6/a8 jumps;
        # y weights 1/2 +- a9/2 plus a2/a4/a5/a7 jumps
        rng = random.Random(27)
        el = build_element_2d()
        cells, _ = shared_patch(rng, [(0, 0), (1, 0), (0, 1), (1, 1)])
        alphas = tuple(random_rational(rng, 10) for _ in range(11))
        a1, a2, a3, a4, a5, a6, a7, a8, a9, a10, a11 = alphas
        t = build_node_test(alphas)
        dx, dy = Fraction(1, 3), Fraction(1, 5)

        def d(off, pt, axis, scale):
            xi, eta = dof_point(pt)
            return reconstruct2d(el, cells[off]).deriv("xy".index(axis))(xi, eta) / scale

        got_x = paired(t.table, cells, "x", dx)
        expected_x = (
            d((0, 0), (1, 1), "x", dx) * (Fraction(1, 2) + a10 + a11)
            + d((1, 0), (-1, 1), "x", dx) * (Fraction(1, 2) - (a10 + a11))
            + a1 * (d((0, 0), (1, 0), "x", dx) - d((1, 0), (-1, 0), "x", dx))
            + a3 * (d((0, 0), (1, -1), "x", dx) - d((1, 0), (-1, -1), "x", dx))
            + a6 * (d((0, 1), (1, 0), "x", dx) - d((1, 1), (-1, 0), "x", dx))
            + a8 * (d((0, 1), (1, 1), "x", dx) - d((1, 1), (-1, 1), "x", dx))
        )
        assert got_x == expected_x

        got_y = paired(t.table, cells, "y", dy)
        expected_y = (
            d((0, 0), (1, 1), "y", dy) * (Fraction(1, 2) + a9 / 2)
            + d((0, 1), (1, -1), "y", dy) * (Fraction(1, 2) - a9 / 2)
            + a2 * (d((0, 0), (0, 1), "y", dy) - d((0, 1), (0, -1), "y", dy))
            + a4 * (d((0, 0), (-1, 1), "y", dy) - d((0, 1), (-1, -1), "y", dy))
            + a5 * (d((1, 0), (0, 1), "y", dy) - d((1, 1), (0, -1), "y", dy))
            + a7 * (d((1, 0), (1, 1), "y", dy) - d((1, 1), (1, -1), "y", dy))
        )
        assert got_y == expected_y

    def test_node_exact_on_global_tensor_quadratic(self):
        # sampling one global biquadratic across all four cells kills the
        # jumps: every row reproduces the analytic derivative at the node,
        # whatever the free weights are
        rng = random.Random(29)
        p = Poly([[random_rational(rng) for _ in range(3)] for _ in range(3)])
        cells = {}
        for off in ((0, 0), (1, 0), (0, 1), (1, 1)):
            shifted = _shift_poly(p, off)
            cells[off] = {dof: apply_dof(dof, shifted) for dof in DOF_IDS}
        dx = dy = Fraction(1)
        node = (Fraction(1, 2), Fraction(1, 2))
        for _ in range(3):
            alphas = tuple(random_rational(rng, 12) for _ in range(11))
            table = build_node_test(alphas).table
            assert paired(table, cells, "x", dx) == p.deriv(0)(*node)
            assert paired(table, cells, "y", dy) == p.deriv(1)(*node)
        # constant data is annihilated
        const_cells = {
            off: {dof: apply_dof(dof, Poly([[Fraction(3, 7)]])) for dof in DOF_IDS}
            for off in cells
        }
        table = build_node_test(tuple(range(-5, 6))).table
        assert paired(table, const_cells, "x", dx) == 0
        assert paired(table, const_cells, "y", dy) == 0


class TestReconstruct2D:
    def test_constant(self):
        el = build_element_2d()
        c = Fraction(4, 7)
        dofs = {dof: (c if dof != (0, 0) else c) for dof in DOF_IDS}
        assert reconstruct2d(el, dofs) == Poly([[c]])

    def test_bilinear_pattern(self):
        # xi*eta sampled at the dof points (average 0) reconstructs exactly
        el = build_element_2d()
        p = Poly([[0, 0], [0, 1]])
        dofs = {dof: apply_dof(dof, p) for dof in DOF_IDS}
        assert dofs[(0, 0)] == 0
        assert reconstruct2d(el, dofs) == p

    def test_unit_node_dof(self):
        el = build_element_2d()
        dofs = {dof: Fraction(int(dof == (1, 1))) for dof in DOF_IDS}
        assert reconstruct2d(el, dofs) == el.basis[(1, 1)]


def _shift_poly(p, off):
    """p(xi + ox, eta + oy) for integer offsets, exactly."""
    ox, oy = off
    sx = Poly([[Fraction(ox)], [Fraction(1)]])  # xi + ox
    sy = Poly([[Fraction(oy), Fraction(1)]])  # eta + oy
    total = Poly([[0]])
    for k, row in enumerate(p.coeffs):
        for l, c in enumerate(row):
            if c == 0:
                continue
            term = Poly([[c]])
            for _ in range(k):
                term = term * sx
            for _ in range(l):
                term = term * sy
            total = total + term
    return total
