"""Construction tests for the 1-d element, test functions and derivative rows."""

import random
from fractions import Fraction

import numpy as np
import pytest

from afpg.element1d import (
    build_element,
    build_point_test,
    moment_weight,
    reconstruct,
)
from afpg.poly import HALF, Poly, gauss_rule, gram, inner, integrate
from afpg.semidiscrete import _linear_rows

ALPHAS = (-1.0, 0.0, 0.37, 1.0)


def quad_inner(p, q, n):
    """Independent pairing oracle: Gauss quadrature instead of exact algebra."""
    rule = gauss_rule(n)
    pf, qf = p.float_coeffs, q.float_coeffs
    pv = np.polynomial.polynomial.polyval(rule.nodes_array, pf)
    qv = np.polynomial.polynomial.polyval(rule.nodes_array, qf)
    return float(np.dot(rule.weights_array, pv * qv))


class TestMomentWeights:
    def test_polynomials(self):
        assert moment_weight(0).poly == Poly([1])
        assert moment_weight(1).poly == Poly([0, 4])
        assert moment_weight(2).poly == Poly([0, 0, 12])

    def test_normalization_of_constants(self):
        for k in range(6):
            val = integrate(moment_weight(k).poly)
            assert val == (1 if k % 2 == 0 else 0)


class TestBuildElement:
    def test_rejects_low_degree(self):
        with pytest.raises(ValueError):
            build_element(1)

    def test_closed_forms_k2(self):
        el = build_element(2)
        assert el.basis_moments[0] == Fraction(3, 2) * Poly([1, 0, -4])
        assert el.basis_right == Fraction(1, 4) * Poly([1, 2]) * Poly([-1, 6])
        assert el.basis_left == Fraction(1, 4) * Poly([-1, 2]) * Poly([1, 6])

    def test_endpoint_duality_k2(self):
        el = build_element(2)
        assert el.basis_left(HALF) == 0
        assert el.basis_right(HALF) == 1

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_duality_table_is_identity(self, k):
        el = build_element(k)
        for r in range(k + 1):
            values = el.dof_values(el.basis()[r])
            assert values == tuple(Fraction(int(r == s)) for s in range(k + 1))

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_mirror_symmetry(self, k):
        # reflecting xi swaps the endpoint basis functions
        el = build_element(k)
        left_reflected = Poly([c * (-1) ** i for i, c in enumerate(el.basis_left.coeffs)])
        assert left_reflected == el.basis_right


class TestPointTests:
    def test_closed_form_generic_alpha(self):
        el = build_element(2)
        for alpha in (Fraction(-1), Fraction(0), Fraction(1, 2), Fraction(37, 100), Fraction(1)):
            t = build_point_test(el, alpha)
            shape_left = Poly([-1, 4, 20])
            shape_right = Poly([-1, -4, 20])
            assert t.left == Fraction(3, 4) * (1 + alpha) * shape_left
            assert t.right == Fraction(3, 4) * (1 - alpha) * shape_right

    def test_central_closed_form(self):
        t = build_point_test(build_element(2), 0)
        assert t.left == Poly([Fraction(-3, 4), 3, 15])
        assert t.right == Poly([Fraction(-3, 4), -3, 15])

    @pytest.mark.parametrize("k", [2, 3, 4])
    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_biorthogonality_oracle(self, k, alpha):
        # every pairing against the basis equals the prescribed value,
        # judged by an independent quadrature rule
        el = build_element(k)
        t = build_point_test(el, alpha)
        basis = el.basis()
        n = k + 1
        for s, b in enumerate(basis):
            expected_left = 0.5 + alpha / 2 if s == k else 0.0
            expected_right = 0.5 - alpha / 2 if s == 0 else 0.0
            assert quad_inner(t.left, b, n) == pytest.approx(expected_left, abs=1e-13)
            assert quad_inner(t.right, b, n) == pytest.approx(expected_right, abs=1e-13)
        # moment test functions are the weights themselves
        for mw in el.moment_weights:
            for s, b in enumerate(basis):
                expected = 1.0 if s == mw.k + 1 else 0.0
                assert quad_inner(mw.poly, b, n) == pytest.approx(expected, abs=1e-13)

    def test_k3_full_upwind_pairings(self):
        # at alpha = 1 the right-cell piece pairs to zero against everything
        el = build_element(3)
        t = build_point_test(el, 1)
        for b in el.basis():
            assert inner(t.right, b) == 0

    def test_assembled_interface_test_function_k2(self):
        # the two pieces glue into
        # 3/2 (1 - alpha sgn(s)) (3 - 12|s| + 10 s^2), s = (x - x_interface)/dx
        alpha = 0.3
        t = build_point_test(build_element(2), alpha)
        for s in np.linspace(-0.999, 0.999, 41):
            if s < 0:
                got = t.left.as_float()(s + 0.5)
            elif s > 0:
                got = t.right.as_float()(s - 0.5)
            else:
                continue
            expected = 1.5 * (1 - alpha * np.sign(s)) * (3 - 12 * abs(s) + 10 * s**2)
            assert got == pytest.approx(expected, rel=1e-12)


def pairing_row(el, t):
    """Oracle of an interface row: the exact pairing of the test pieces
    with each b_s', on the 2K+1 dofs of the two cells at the interface
    (the left cell's K+1 dofs, then the right cell's past the shared
    interface value), in xi units."""
    k = el.k
    row = [inner(t.left, b.deriv()) for b in el.basis()] + [Fraction(0)] * k
    for s, b in enumerate(el.basis()):
        row[k + s] += inner(t.right, b.deriv())
    return tuple(row)


def blended_row(k, alpha):
    """The interface row rhs_1d applies at alpha, on the same 2K+1 dofs:
    ``_linear_rows(k)``'s D+ on the left cell times (1+alpha)/2 plus its
    D- on the right cell times (1-alpha)/2, blended exactly (every D+/D-
    entry is a dyadic rational, so its float is exact)."""
    d_plus, d_minus = ([Fraction(w) for w in row] for row in _linear_rows(k)[-2:])
    alpha = Fraction(alpha)
    row = [HALF * (1 + alpha) * w for w in d_plus] + [Fraction(0)] * k
    for s, w in enumerate(d_minus):
        row[k + s] += HALF * (1 - alpha) * w
    return tuple(row)


class TestExactSolves:
    @pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
    def test_gram_equals_poly_product_pairings(self, k):
        el = build_element(k)
        monos = [Poly([0] * j + [1]) for j in range(k + 1)]
        assert gram(el.basis(), (k + 1,)) == [[inner(b, m) for m in monos] for b in el.basis()]

    @pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
    def test_element_and_upwind_pieces_take_two_eliminations(self, exact_solves, k):
        el = build_element(k)
        build_point_test(el, 1)
        build_point_test(el, -1)
        assert len(exact_solves) <= 2


class TestDerivativeStencil:
    """The interface rows of ``semidiscrete._linear_rows``, blended at alpha."""

    def test_full_upwind_weights(self):
        el = build_element(2)
        assert blended_row(2, 1) == (2, -6, 4, 0, 0)
        assert pairing_row(el, build_point_test(el, 1)) == (2, -6, 4, 0, 0)

    def test_full_downwind_weights(self):
        el = build_element(2)
        assert blended_row(2, -1) == (0, 0, -4, 6, -2)
        assert pairing_row(el, build_point_test(el, -1)) == (0, 0, -4, 6, -2)

    def test_central_weights(self):
        el = build_element(2)
        assert blended_row(2, 0) == (1, -3, 0, 3, -1)
        assert pairing_row(el, build_point_test(el, 0)) == (1, -3, 0, 3, -1)

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_constant_annihilation(self, k):
        # constant data: note the odd moments of a constant vanish
        el = build_element(k)
        cell_dofs = el.dof_values(Poly([Fraction(5, 3)]))
        window = list(cell_dofs) + list(cell_dofs[1:])
        for alpha in ALPHAS:
            assert sum(w * v for w, v in zip(blended_row(k, alpha), window)) == 0

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_alpha_linearity(self, k):
        # the test pieces are linear in alpha, so the pairing at any alpha
        # is the blend of the two one-sided rows the runtime stores
        el = build_element(k)
        for alpha in (Fraction(-1, 3), Fraction(37, 100), Fraction(4, 5)):
            assert pairing_row(el, build_point_test(el, alpha)) == blended_row(k, alpha)

    @pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_stencil_equals_pairing_quadrature(self, k, alpha):
        # random dofs on two adjacent cells: the runtime row's value must
        # equal the pairing of the test function with d/dx of the
        # reconstruction, by Gauss quadrature
        rng = random.Random(10 * k + int(10 * alpha))
        el = build_element(k)
        t = build_point_test(el, alpha)
        row = [float(w) for w in blended_row(k, alpha)]
        rule = gauss_rule(k + 1)
        dx = 0.2
        for _ in range(5):
            window = [rng.uniform(-2, 2) for _ in range(2 * k + 1)]
            left_dofs = window[: k + 1]
            right_dofs = window[k:]
            q_left = reconstruct(el, left_dofs).as_float()
            q_right = reconstruct(el, right_dofs).as_float()
            pairing = 0.0
            for piece, q in ((t.left, q_left), (t.right, q_right)):
                # factors evaluated apart: their float product polynomial
                # cancels badly at K = 6 (test coefficients reach ~8e3)
                p, dq = piece.as_float(), q.deriv()
                pairing += rule.integrate(lambda x: p(x) * dq(x)) / dx
            got = sum(w * v for w, v in zip(row, window)) / dx
            assert got == pytest.approx(pairing, rel=1e-12, abs=1e-12)


class TestMomentStencil:
    """The moment rows of ``semidiscrete._linear_rows``."""

    @pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
    def test_rows_equal_exact_pairing(self, k):
        # entry (r, s) is the pairing of w_r with b_s', rounded to float once
        el = build_element(k)
        rows = _linear_rows(k)[: k - 1]
        for w, row in zip(el.moment_weights, rows, strict=True):
            assert row.tolist() == [float(inner(w.poly, b.deriv())) for b in el.basis()]

    def test_row_zero_is_the_endpoint_difference(self):
        for k in (2, 3, 4, 5, 6):
            assert _linear_rows(k)[0].tolist() == [-1.0] + [0.0] * (k - 1) + [1.0]


class TestReconstruct:
    def test_constant_data(self):
        for k in (2, 3):
            el = build_element(k)
            c = Fraction(7, 3)
            dofs = el.dof_values(Poly([c]))
            assert reconstruct(el, dofs) == Poly([c])

    def test_unit_right_dof(self):
        el = build_element(2)
        assert reconstruct(el, [0, 0, 1]) == el.basis_right

    def test_endpoint_derivative_formula(self):
        el = build_element(2)
        rng = random.Random(3)
        for _ in range(5):
            dofs = [Fraction(rng.randint(-9, 9), 4) for _ in range(3)]
            q = reconstruct(el, dofs)
            ql, qa, qr = dofs
            assert q.deriv()(HALF) == 2 * ql - 6 * qa + 4 * qr

    def test_wrong_dof_count(self):
        with pytest.raises(ValueError):
            reconstruct(build_element(2), [1, 2, 3, 4])
