"""Flux model tests: Jacobian splits, eigenstructure, exact references."""

import numpy as np
import pytest

from afpg.models import (
    GaussianIC,
    LinearIC,
    SineIC,
    advection1d,
    advection2d,
    burgers1d,
    linear_system1d,
)
from afpg.grid import Grid1D


class TestInitialData:
    """One class per shape serves both dimensions, in the float order of
    the per-dimension expressions, so the projected state is bit for bit
    what they gave."""

    @staticmethod
    def points():
        return np.random.default_rng(5).uniform(-0.3, 1.4, (2, 7, 5))

    def test_gaussian_float_order(self):
        base, amp, center, width = 0.3, -1.7, 0.45, 0.13
        ic = GaussianIC(base, amp, center, width)
        x, y = self.points()
        zx, zy = (x - center) / width, (y - center) / width
        assert ic(x, y).tobytes() == (base + amp * np.exp(-(zx**2) - (zy**2))).tobytes()
        assert ic(x).tobytes() == (base + amp * np.exp(-(zx**2))).tobytes()

    def test_linear_float_order(self):
        slope, offset = -0.7, 0.35
        ic = LinearIC(slope, offset)
        x, y = self.points()
        assert ic(x, y).tobytes() == (slope * (x + y) + offset).tobytes()
        assert ic(x).tobytes() == (slope * x + offset).tobytes()


class TestAdvection:
    def test_positive_speed_split(self):
        m = advection1d(1.0)
        j = m.jac(np.array([0.3, -2.0]))
        assert np.all(np.maximum(j, 0) == 1.0)
        assert np.all(np.minimum(j, 0) == 0.0)

    def test_negative_speed_split(self):
        m = advection1d(-2.0)
        j = m.jac(np.array([5.0]))
        assert np.maximum(j, 0)[0] == 0.0
        assert np.minimum(j, 0)[0] == -2.0

    def test_zero_speed(self):
        m = advection1d(0.0)
        assert m.max_speed(np.array([1.0, 2.0])) == 0.0

    def test_exact_translation_wraps(self):
        g = Grid1D(8)
        ic = SineIC()
        exact = advection1d(1.0).exact_solution(ic, g)
        x = np.linspace(0, 1, 17)
        assert np.allclose(exact(x, 1.0), ic(x), atol=1e-13)
        assert np.allclose(exact(x, 0.25), ic(x - 0.25), atol=1e-13)


class TestBurgers:
    def test_jacobian_is_state(self):
        m = burgers1d()
        assert m.jac(np.array([3.0]))[0] == 3.0
        assert np.maximum(m.jac(np.array([-1.0])), 0)[0] == 0.0
        assert np.minimum(m.jac(np.array([-1.0])), 0)[0] == -1.0

    def test_max_speed(self):
        m = burgers1d()
        assert m.max_speed(np.array([1.0, -4.0, 2.0])) == 4.0

    def test_characteristic_reference_preshock(self):
        # before the shock the traced solution satisfies q = ic(x - t q)
        g = Grid1D(8)
        ic = SineIC(mean=0.5, amplitude=0.25)
        exact = burgers1d().exact_solution(ic, g)
        x = np.linspace(0.0, 1.0, 33)
        t = 0.3
        q = exact(x, t)
        assert np.allclose(q, ic(x - t * q), atol=1e-12)

    @pytest.mark.parametrize("fraction", [0.95, 0.99])
    def test_reference_answers_just_before_shock(self, fraction):
        # plain Newton cycles here; the bracketed step still converges
        g = Grid1D(8)
        ic = SineIC(mean=0.5, amplitude=0.25)
        exact = burgers1d().exact_solution(ic, g)
        t = fraction / (2.0 * np.pi * ic.amplitude)
        x = np.linspace(0.0, 1.0, 1001)
        q = exact(x, t)
        assert np.max(np.abs(q - ic(x - t * q))) <= 1e-12

    @pytest.mark.parametrize("batch", [1, 7, 64])
    def test_reference_is_independent_of_its_batch(self, batch):
        # each foot point stops on its own Newton step: when the loop ran
        # until the whole batch converged, 64-point batches moved 384 of
        # these 4097 values by up to 6.4e-16
        exact = burgers1d().exact_solution(SineIC(0.1, 0.3), Grid1D(8))
        x = np.linspace(0.0, 1.0, 4097)
        one = exact(x, 0.4)
        many = np.concatenate([exact(x[i:i + batch], 0.4) for i in range(0, len(x), batch)])
        assert one.tobytes() == many.tobytes()

    def test_reference_refuses_after_shock(self):
        # breaking time t* = 1/max(-ic') = 1/(2 pi amplitude)
        g = Grid1D(8)
        ic = SineIC(mean=0.5, amplitude=0.25)
        exact = burgers1d().exact_solution(ic, g)
        t_star = 1.0 / (2.0 * np.pi * ic.amplitude)
        with pytest.raises(ValueError, match="past the shock"):
            exact(np.linspace(0.0, 1.0, 33), 1.1 * t_star)

    def test_reference_refuses_unconverged_foot_points(self):
        # an overstated derivative shrinks every Newton step, so the loop
        # runs out of iterations instead of returning its last iterate
        class SlowIC(SineIC):
            def derivative(self, x):
                return np.full_like(np.asarray(x, dtype=float), 1e4)

        exact = burgers1d().exact_solution(SlowIC(mean=0.5, amplitude=0.25), Grid1D(8))
        with pytest.raises(ValueError, match="did not converge"):
            exact(np.linspace(0.0, 1.0, 33), 0.3)

    def test_reference_refuses_a_jump_at_the_wrap(self):
        # ic(0) = 0.628 and ic(1) = 0.5: a shock or fan at the wrap from t = 0 on
        g = Grid1D(40)
        ic = GaussianIC(base=0.5, amplitude=0.2, center=0.2, width=0.3)
        exact = burgers1d().exact_solution(ic, g)
        x = np.linspace(0.0, 1.0, 11)
        assert np.array_equal(exact(x, 0.0), ic(x))
        with pytest.raises(ValueError, match="periodic wrap"):
            exact(x, 1e-6)

    def test_reference_at_time_zero(self):
        g = Grid1D(8)
        ic = GaussianIC(base=0.2, amplitude=0.5, center=0.5, width=0.15)
        exact = burgers1d().exact_solution(ic, g)
        x = np.linspace(0.0, 1.0, 11)
        assert np.allclose(exact(x, 0.0), ic(x), atol=0)


class TestLinearSystem:
    def test_symmetric_wave_split(self):
        # eigenvalues +-1: |A| is the identity, so J+- = (A +- I)/2
        a = np.array([[0.0, 1.0], [1.0, 0.0]])
        m = linear_system1d(a)
        assert np.allclose(m.jac_plus, 0.5 * (a + np.eye(2)), atol=1e-14)
        assert np.allclose(m.jac_minus, 0.5 * (a - np.eye(2)), atol=1e-14)

    def test_diagonal(self):
        m = linear_system1d(np.diag([2.0, -3.0]))
        assert np.allclose(m.jac_plus, np.diag([2.0, 0.0]), atol=1e-14)
        assert np.allclose(m.jac_minus, np.diag([0.0, -3.0]), atol=1e-14)

    def test_zero_matrix(self):
        m = linear_system1d(np.zeros((2, 2)))
        assert np.allclose(m.jac_plus, 0.0)
        assert np.allclose(m.jac_minus, 0.0)

    def test_split_reconstructs_jacobian(self):
        rng = np.random.default_rng(4)
        r = rng.standard_normal((3, 3)) + 3 * np.eye(3)
        lam = np.diag([1.5, -0.5, 0.0])
        a = r @ lam @ np.linalg.inv(r)
        m = linear_system1d(a)
        assert np.allclose(m.jac_plus + m.jac_minus, a, atol=1e-12)
        assert np.min(np.linalg.eigvals(m.jac_plus).real) >= -1e-12
        assert np.max(np.linalg.eigvals(m.jac_minus).real) <= 1e-12

    def test_complex_rejected(self):
        with pytest.raises(ValueError):
            linear_system1d([[0.0, -1.0], [1.0, 0.0]])

    def test_defective_rejected(self):
        with pytest.raises(ValueError):
            linear_system1d([[1.0, 1.0], [0.0, 1.0]])

    def test_nonsquare_rejected(self):
        with pytest.raises(ValueError):
            linear_system1d([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])


class TestAdvection2D:
    def test_max_speed(self):
        m = advection2d(2.0, -1.0)
        assert m.max_speed(np.array([1.0, 3.0])) == 2.0

    def test_exact_translation(self):
        from afpg.grid import Grid2D

        g = Grid2D(4, 4)
        ic = lambda x, y: np.sin(2 * np.pi * (np.asarray(x) + np.asarray(y)))
        exact = advection2d(1.0, 1.0).exact_solution(ic, g)
        x = np.linspace(0, 1, 7)
        y = np.linspace(0, 1, 7)
        assert np.allclose(exact(x, y, 1.0), ic(x, y), atol=1e-13)
