"""Exact algebra, quadrature and exact-solve tests for the poly core."""

import random
from fractions import Fraction

import numpy as np
import pytest

from afpg.poly import (
    HALF,
    Poly1,
    Poly2,
    diff2,
    gauss_rule,
    inner1,
    inner2,
    integrate1,
    integrate2,
    solve_exact,
)


def rational_poly(rng, degree, den=7):
    return Poly1([Fraction(rng.randint(-12, 12), den) for _ in range(degree + 1)])


class TestIntegrate1:
    def test_constant(self):
        assert integrate1(Poly1([1])) == 1

    def test_odd_symmetry(self):
        assert integrate1(Poly1([0, 1])) == 0

    def test_average_basis_function_normalized(self):
        # 3/2 (1 - 4 xi^2) integrates to exactly 1
        p = Fraction(3, 2) * Poly1([1, 0, -4])
        assert integrate1(p) == 1

    def test_monomials(self):
        for k in range(8):
            expected = 0 if k % 2 else Fraction(1, (k + 1) * 2**k)
            assert integrate1(Poly1([0] * k + [1])) == expected


class TestInner1:
    def test_moment_test_against_avg_basis(self):
        avg_basis = Fraction(3, 2) * Poly1([1, 0, -4])
        assert inner1(avg_basis, Poly1([1])) == 1

    def test_xi_xi(self):
        assert inner1(Poly1([0, 1]), Poly1([0, 1])) == Fraction(1, 12)

    def test_symmetry_and_bilinearity(self):
        rng = random.Random(0)
        for _ in range(10):
            p = rational_poly(rng, 3)
            q = rational_poly(rng, 4)
            r = rational_poly(rng, 2)
            c = Fraction(rng.randint(-5, 5), 3)
            assert inner1(p, q) == inner1(q, p)
            assert inner1(p + c * r, q) == inner1(p, q) + c * inner1(r, q)


class TestDifferentiate1:
    def test_constant(self):
        assert Poly1([5]).deriv() == Poly1([0])

    def test_xi_squared(self):
        assert Poly1([0, 0, 1]).deriv() == Poly1([0, 2])

    def test_right_endpoint_basis_slope(self):
        # derivative of -1/4 + xi + 3 xi^2 at xi = 1/2 is 4: the weight of
        # the interface value in the full-upwind interface row D+
        p = Poly1([Fraction(-1, 4), 1, 3])
        d = p.deriv()
        assert d == Poly1([1, 6])
        assert d(HALF) == 4


class TestPoly2:
    def test_tensor_integral_factorizes(self):
        rng = random.Random(1)
        for _ in range(8):
            p = rational_poly(rng, 3)
            q = rational_poly(rng, 2)
            assert integrate2(Poly2.tensor(p, q)) == integrate1(p) * integrate1(q)

    def test_average_basis_2d_normalized(self):
        p = Fraction(9, 4) * Poly2.tensor(Poly1([-1, 0, 4]), Poly1([-1, 0, 4]))
        assert integrate2(p) == 1

    def test_corner_basis_has_zero_mean(self):
        # 1/16 (2xi+1)(2eta+1)(-1 + 2eta + 2xi + 12 xi eta)
        p = (
            Fraction(1, 16)
            * Poly2.tensor(Poly1([1, 2]), Poly1([1]))
            * Poly2.tensor(Poly1([1]), Poly1([1, 2]))
            * Poly2([[-1, 2], [2, 12]])
        )
        assert inner2(Poly2([[1]]), p) == 0

    def test_diff2(self):
        p = Poly2([[0, 0, 0], [0, 0, 0], [1, 0, 0]])  # xi^2
        assert diff2(p, "x") == Poly2([[0], [2]])
        assert diff2(p, "y") == Poly2([[0]])
        q = Poly2([[1, 2], [3, 4]])  # 1 + 2 eta + 3 xi + 4 xi eta
        assert diff2(q, "x") == Poly2([[3, 4]])
        assert diff2(q, "y") == Poly2([[2], [4]])
        with pytest.raises(ValueError):
            diff2(q, "xi")

    def test_transpose(self):
        p = Poly2([[1, 2], [3, 4]])
        assert p.transpose() == Poly2([[1, 3], [2, 4]])
        xi, eta = Fraction(1, 3), Fraction(-1, 5)
        assert p(xi, eta) == p.transpose()(eta, xi)


class TestGaussRule:
    def test_single_node(self):
        rule = gauss_rule(1)
        assert rule.nodes == (0.0,)
        assert rule.weights == (1.0,)

    def test_two_nodes(self):
        rule = gauss_rule(2)
        expected = 1.0 / (2.0 * np.sqrt(3.0))
        assert rule.nodes[0] == pytest.approx(-expected, abs=1e-15)
        assert rule.nodes[1] == pytest.approx(expected, abs=1e-15)

    def test_three_nodes_quartic(self):
        rule = gauss_rule(3)
        val = sum(w * x**4 for x, w in zip(rule.nodes, rule.weights))
        assert val == pytest.approx(1.0 / 80.0, abs=1e-16)

    @pytest.mark.parametrize("n", range(1, 17))
    def test_exactness_degree(self, n):
        rule = gauss_rule(n)
        for k in range(2 * n):
            exact = float(integrate1(Poly1([0] * k + [1])))
            got = sum(w * x**k for x, w in zip(rule.nodes, rule.weights))
            assert got == pytest.approx(exact, abs=1e-14)

    @pytest.mark.parametrize("n", [0, -3, 17])
    def test_out_of_range(self, n):
        with pytest.raises(ValueError):
            gauss_rule(n)

    def test_weights_positive_sum_one(self):
        for n in range(1, 17):
            rule = gauss_rule(n)
            assert all(w > 0 for w in rule.weights)
            assert sum(rule.weights) == pytest.approx(1.0, abs=1e-14)


class TestSolveExact:
    def test_small_system(self):
        sol = solve_exact([[2, 1], [1, 3]], [5, 10])
        assert sol == [Fraction(1), Fraction(3)]

    def test_singular_rejected(self):
        with pytest.raises(ValueError):
            solve_exact([[1, 2], [2, 4]], [1, 1])
