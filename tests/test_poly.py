"""Exact algebra, quadrature and exact-solve tests for the poly core."""

import math
import random
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest

from afpg.poly import HALF, Poly, gauss_rule, gram, inner, integrate, solve_exact


def tensor_product(p, q):
    """The product of p in the leading variables and q in the rest."""
    return Poly(np.multiply.outer(p.coeffs, q.coeffs))


def rational_poly(rng, degree, den=7):
    return Poly([Fraction(rng.randint(-12, 12), den) for _ in range(degree + 1)])


class TestIntegrate1:
    def test_constant(self):
        assert integrate(Poly([1])) == 1

    def test_odd_symmetry(self):
        assert integrate(Poly([0, 1])) == 0

    def test_average_basis_function_normalized(self):
        # 3/2 (1 - 4 xi^2) integrates to exactly 1
        p = Fraction(3, 2) * Poly([1, 0, -4])
        assert integrate(p) == 1

    def test_monomials(self):
        for k in range(8):
            expected = 0 if k % 2 else Fraction(1, (k + 1) * 2**k)
            assert integrate(Poly([0] * k + [1])) == expected


class TestInner1:
    def test_moment_test_against_avg_basis(self):
        avg_basis = Fraction(3, 2) * Poly([1, 0, -4])
        assert inner(avg_basis, Poly([1])) == 1

    def test_xi_xi(self):
        assert inner(Poly([0, 1]), Poly([0, 1])) == Fraction(1, 12)

    def test_symmetry_and_bilinearity(self):
        rng = random.Random(0)
        for _ in range(10):
            p = rational_poly(rng, 3)
            q = rational_poly(rng, 4)
            r = rational_poly(rng, 2)
            c = Fraction(rng.randint(-5, 5), 3)
            assert inner(p, q) == inner(q, p)
            assert inner(p + c * r, q) == inner(p, q) + c * inner(r, q)


class TestDifferentiate1:
    def test_constant(self):
        assert Poly([5]).deriv() == Poly([0])

    def test_xi_squared(self):
        assert Poly([0, 0, 1]).deriv() == Poly([0, 2])

    def test_right_endpoint_basis_slope(self):
        # derivative of -1/4 + xi + 3 xi^2 at xi = 1/2 is 4: the weight of
        # the interface value in the full-upwind interface row D+
        p = Poly([Fraction(-1, 4), 1, 3])
        d = p.deriv()
        assert d == Poly([1, 6])
        assert d(HALF) == 4


class TestPoly2:
    def test_tensor_integral_factorizes(self):
        rng = random.Random(1)
        for _ in range(8):
            p = rational_poly(rng, 3)
            q = rational_poly(rng, 2)
            assert integrate(tensor_product(p, q)) == integrate(p) * integrate(q)

    def test_average_basis_2d_normalized(self):
        p = Fraction(9, 4) * tensor_product(Poly([-1, 0, 4]), Poly([-1, 0, 4]))
        assert integrate(p) == 1

    def test_corner_basis_has_zero_mean(self):
        # 1/16 (2xi+1)(2eta+1)(-1 + 2eta + 2xi + 12 xi eta)
        p = (
            Fraction(1, 16)
            * tensor_product(Poly([1, 2]), Poly([1]))
            * tensor_product(Poly([1]), Poly([1, 2]))
            * Poly([[-1, 2], [2, 12]])
        )
        assert inner(Poly([[1]]), p) == 0

    def test_diff2(self):
        p = Poly([[0, 0, 0], [0, 0, 0], [1, 0, 0]])  # xi^2
        assert p.deriv(0) == Poly([[0], [2]])
        assert p.deriv(1) == Poly([[0]])
        q = Poly([[1, 2], [3, 4]])  # 1 + 2 eta + 3 xi + 4 xi eta
        assert q.deriv(0) == Poly([[3, 4]])
        assert q.deriv(1) == Poly([[2], [4]])
        with pytest.raises(ValueError):
            q.deriv(2)

    def test_transpose(self):
        p = Poly([[1, 2], [3, 4]])
        assert p.transpose() == Poly([[1, 3], [2, 4]])
        xi, eta = Fraction(1, 3), Fraction(-1, 5)
        assert p(xi, eta) == p.transpose()(eta, xi)


def nested_horner(coeffs, xs):
    """Horner's rule on nested coefficient lists, the last variable innermost."""
    acc = 0
    for sub in reversed(coeffs):
        acc = acc * xs[0] + (nested_horner(sub, xs[1:]) if len(xs) > 1 else sub)
    return acc


class TestEvaluation:
    def test_trailing_zero_slices_trimmed(self):
        p = Poly([[1, 0, 0], [2, 0, 0], [0, 0, 0]])
        assert p.coeffs.shape == (2, 1) and p == Poly([[1], [2]])
        assert Poly([0, 0]).coeffs.shape == (1,)
        q = Poly([[1, 2], [3, 4]])
        assert q - q == Poly([[0]])
        with pytest.raises(ValueError):
            Poly([1, 2]) + q

    @pytest.mark.parametrize("nvars", [1, 2])
    def test_float_call_is_nested_horner_bit_for_bit(self, nvars):
        # grid._gauss_basis evaluates the float bases at float Gauss
        # nodes, so the last bits of the norms depend on this order
        rng = random.Random(40 + nvars)
        nodes = list(gauss_rule(5).nodes_array)
        for _ in range(30):
            shape = [rng.randint(1, 5) for _ in range(nvars)]
            coeffs = np.array([Fraction(rng.randint(-99, 99) or 1, rng.randint(1, 30))
                               for _ in range(int(np.prod(shape)))], dtype=object)
            coeffs = coeffs.reshape(shape).tolist()
            p = Poly(coeffs)
            for _ in range(10):
                xs = [rng.choice(nodes) if rng.random() < 0.5 else rng.uniform(-0.5, 0.5)
                      for _ in range(nvars)]
                assert float(p(*xs)).hex() == float(nested_horner(coeffs, xs)).hex()


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
            exact = float(integrate(Poly([0] * k + [1])))
            got = sum(w * x**k for x, w in zip(rule.nodes, rule.weights))
            assert got == pytest.approx(exact, abs=1e-14)

    @pytest.mark.parametrize("n", [0, -3, 17])
    def test_out_of_range(self, n):
        with pytest.raises(ValueError):
            gauss_rule(n)

    @pytest.mark.parametrize("n", range(1, 17))
    def test_nodes_and_weights_are_correctly_rounded(self, n):
        # 2^n P_n = sum over k of (-1)^k C(n, k) C(2n - 2k, n) x^(n - 2k),
        # integer coefficients
        p = Poly([(-1) ** ((n - j) // 2) * math.comb(n, (n - j) // 2) * math.comb(n + j, n)
                  if (n - j) % 2 == 0 else 0 for j in range(n + 1)])
        dp = p.deriv()
        rule = gauss_rule(n)
        for t, w in zip(rule.nodes, rule.weights):
            # P_n changes sign between the midpoints of the node and its two
            # float neighbours (each doubled, exact in Fraction), so the node
            # is the float nearest half the root
            ends = [Fraction(t) + Fraction(math.nextafter(t, s)) for s in (-math.inf, math.inf)]
            assert p(ends[0]) * p(ends[1]) < 0
            with localcontext() as ctx:
                ctx.prec = 60
                x = Decimal(2 * t)
                for _ in range(4):
                    x -= p(x) / dp(x)
                assert float(4**n / ((1 - x * x) * dp(x) ** 2)) == w

    def test_weights_positive_sum_one(self):
        for n in range(1, 17):
            rule = gauss_rule(n)
            assert all(w > 0 for w in rule.weights)
            assert sum(rule.weights) == pytest.approx(1.0, abs=1e-14)
            assert (rule.nodes == tuple(-x for x in rule.nodes[::-1])
                    and rule.weights == rule.weights[::-1])


class TestSolveExact:
    def test_small_system(self):
        inverse = solve_exact([[2, 1], [1, 3]])
        assert inverse == [[Fraction(3, 5), Fraction(-1, 5)], [Fraction(-1, 5), Fraction(2, 5)]]

    def test_singular_rejected(self):
        for matrix in ([[1, 2], [2, 4]], [[1, 2, 3], [2, 4, 6], [0, 1, 1]]):
            with pytest.raises(ValueError, match="singular"):
                solve_exact(matrix)

    def test_inverse_times_matrix_is_identity(self):
        rng = random.Random(3)
        n = 6
        matrix = [[Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(n)]
                  for _ in range(n)]
        inverse = solve_exact(matrix)
        assert all(isinstance(x, Fraction) for row in inverse for x in row)
        for i in range(n):
            for j in range(n):
                assert sum(inverse[i][r] * matrix[r][j] for r in range(n)) == int(i == j)
                assert sum(matrix[i][r] * inverse[r][j] for r in range(n)) == int(i == j)


class TestGram:
    @pytest.mark.parametrize("shape", [(5,), (3, 3), (2, 4)])
    def test_equals_poly_product_pairings(self, shape):
        rng = random.Random(sum(shape))
        coeff_shape = (12,) if len(shape) == 1 else (3, 4)
        polys = [Poly(np.array([Fraction(rng.randint(-12, 12), rng.randint(1, 7))
                                for _ in range(12)], dtype=object).reshape(coeff_shape))
                 for _ in range(4)]
        monos = [Poly(np.eye(math.prod(shape), dtype=int)[i].reshape(shape))
                 for i in range(math.prod(shape))]
        assert gram(polys, shape) == [[inner(p, m) for m in monos] for p in polys]
