"""Flux models and reference data for the desk-scale benchmark problems.

Every model exposes its dimension, system size m and the maximum wave
speed used for time-step control; the 1-d models also give their
Jacobian.
Constant-coefficient linear systems precompute the eigenvalue split of
the Jacobian; scalar models split sign by sign at evaluation time.
Where an exact solution is cheap (translation for linear advection,
characteristic tracing for pre-shock Burgers) the model provides one
for error measurement.

Initial data come in three shapes, each one class for both dimensions:
the Gaussian and the ramp take one coordinate array or two.  The sine
keeps SineIC (1-d) and Sine2DIC (2-d), whose phases are summed in
different orders.  A constant is the sine at amplitude 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "advection1d",
    "advection2d",
    "burgers1d",
    "linear_system1d",
    "LinearIC",
    "SineIC",
    "GaussianIC",
    "Sine2DIC",
]


def _wrap(x, lo, hi):
    return lo + np.mod(x - lo, hi - lo)


class Advection1D:
    """Linear advection q_t + a q_x = 0."""

    dim = 1
    m = 1
    is_linear = True
    name = "advection"

    def __init__(self, a):
        self.a = float(a)

    def jac(self, q):
        return self.a * np.ones_like(np.asarray(q, dtype=float))

    def max_speed(self, points) -> float:
        return abs(self.a)

    def exact_solution(self, ic, grid):
        a = self.a

        def exact(x, t=0.0):
            return ic(_wrap(np.asarray(x, dtype=float) - a * t, grid.x_min, grid.x_max))

        return exact


class Burgers1D:
    """Inviscid Burgers: flux q^2 / 2."""

    dim = 1
    m = 1
    is_linear = False
    name = "burgers"

    def jac(self, q):
        return np.asarray(q, dtype=float)

    def max_speed(self, points) -> float:
        return float(np.max(np.abs(points)))

    def exact_solution(self, ic, grid):
        """Characteristic-traced solution, valid before shock formation.

        Requires ic.derivative for the Newton iteration on the foot
        point y of the characteristic through (x, t), the root of
        g(y) = y + t ic(y) - x.  Before the shock g' = 1 + t ic' > 0
        everywhere, so g is increasing and its root lies in
        [x - t max ic, x - t min ic] (extremes sampled over the grid
        domain).  Every iterate narrows this bracket, and a Newton step
        that leaves it is replaced by bisection.  Each point stops at its
        first step below 1e-14, so its value does not depend on which
        other points are asked with it.  A non-positive g' at
        any iterate means the characteristics have crossed; that, and a
        loop that does not converge, raise ValueError.  So does any
        t > 0 when ic(x_min) and ic(x_max) differ beyond round-off
        (1e-12 of max |ic|): the periodic data jump at the wrap, a shock
        or fan from t = 0 on that no characteristic trace sees.
        """
        samples = ic(np.linspace(grid.x_min, grid.x_max, 1025))
        ic_min, ic_max = float(np.min(samples)), float(np.max(samples))
        jump = abs(float(samples[-1]) - float(samples[0]))
        periodic = jump <= 1e-12 * max(abs(ic_min), abs(ic_max))

        def exact(x, t=0.0):
            x = np.asarray(x, dtype=float)
            if t == 0.0:
                return ic(x)
            if not periodic:
                raise ValueError(f"the initial data jump by {jump:.3g} at the periodic wrap,"
                                 f" a shock or fan from t = 0 on: no characteristic"
                                 f" solution at t = {t}")

            def g(y):
                return y + t * ic(y) - x

            # a sampled extreme can fall short of the true one: keep only
            # bracket ends whose sign is right, and open the others
            lo, hi = x - t * ic_max, x - t * ic_min
            lo = np.where(g(lo) <= 0.0, lo, -np.inf)
            hi = np.where(g(hi) >= 0.0, hi, np.inf)
            y = x - t * ic(x)
            active = np.ones(y.shape, dtype=bool)
            for _ in range(100):
                df = 1.0 + t * ic.derivative(y)
                if np.any(df <= 0.0):
                    raise ValueError(f"t = {t} is past the shock: characteristics have crossed")
                gy = g(y)
                lo = np.where(gy < 0.0, y, lo)
                hi = np.where(gy > 0.0, y, hi)
                newton = y - gy / df
                keep = ((newton >= lo) & (newton <= hi)) | ~(np.isfinite(lo) & np.isfinite(hi))
                step = np.where(keep, newton, 0.5 * (lo + hi)) - y
                y = np.where(active, y + step, y)
                active &= ~(np.abs(step) < 1e-14)
                if not active.any():
                    return ic(y)
            raise ValueError(f"characteristic foot points did not converge at t = {t}")

        return exact


class LinearSystem1D:
    """Constant-coefficient linear system q_t + A q_x = 0."""

    dim = 1
    is_linear = True
    name = "linear_system"

    def __init__(self, matrix):
        a = np.array(matrix, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError("system matrix must be square")
        self.matrix = a
        self.m = a.shape[0]
        eigvals, eigvecs = np.linalg.eig(a)
        if np.max(np.abs(eigvals.imag)) > 1e-12 * max(1.0, np.max(np.abs(eigvals))):
            raise ValueError("system matrix has complex eigenvalues")
        eigvals = eigvals.real
        eigvecs = eigvecs.real
        if np.linalg.matrix_rank(eigvecs) < self.m:
            raise ValueError("system matrix is defective")
        self.eigvals = eigvals
        self.eigvecs = eigvecs
        self.eigvecs_inv = np.linalg.inv(eigvecs)
        self.jac_plus = eigvecs @ np.diag(np.maximum(eigvals, 0.0)) @ self.eigvecs_inv
        self.jac_minus = eigvecs @ np.diag(np.minimum(eigvals, 0.0)) @ self.eigvecs_inv

    def jac(self, q):
        return self.matrix

    def max_speed(self, points) -> float:
        return float(np.max(np.abs(self.eigvals)))

    def exact_solution(self, ic, grid):
        """Superposition of characteristic fields advected at their speeds.

        ``ic`` must return arrays with a trailing component axis.
        """

        def exact(x, t=0.0):
            x = np.asarray(x, dtype=float)
            out = np.zeros(x.shape + (self.m,))
            for p in range(self.m):
                xp = _wrap(x - self.eigvals[p] * t, grid.x_min, grid.x_max)
                w0 = ic(xp) @ self.eigvecs_inv.T
                out += w0[..., p, None] * self.eigvecs[:, p]
            return out

        return exact


class Advection2D:
    """Linear advection q_t + ax q_x + ay q_y = 0."""

    dim = 2
    m = 1
    is_linear = True
    name = "advection"

    def __init__(self, ax, ay):
        self.ax = float(ax)
        self.ay = float(ay)

    def max_speed(self, points) -> float:
        return max(abs(self.ax), abs(self.ay))

    def exact_solution(self, ic, grid):
        ax, ay = self.ax, self.ay

        def exact(x, y, t=0.0):
            xs = _wrap(np.asarray(x, dtype=float) - ax * t, grid.x_min, grid.x_max)
            ys = _wrap(np.asarray(y, dtype=float) - ay * t, grid.y_min, grid.y_max)
            return ic(xs, ys)

        return exact


def advection1d(a) -> Advection1D:
    return Advection1D(a)


def advection2d(ax, ay) -> Advection2D:
    return Advection2D(ax, ay)


def burgers1d() -> Burgers1D:
    return Burgers1D()


def linear_system1d(matrix) -> LinearSystem1D:
    return LinearSystem1D(matrix)


# ---------------------------------------------------------------------------
# Initial data.  Callables with a 1-d analytic derivative where the
# Burgers reference needs one; all are globally defined so periodic
# wrapping is safe.


@dataclass(frozen=True)
class LinearIC:
    """slope * (x [+ y]) + offset: the ramp along the diagonal in 2-d.

    A run config sets offset from ic.mean, as it sets the other shapes'
    additive constants.
    """

    slope: float = 1.0
    offset: float = 0.0

    def __call__(self, x, *rest):
        total = np.asarray(x, dtype=float)
        for y in rest:
            total = total + np.asarray(y, dtype=float)
        return self.slope * total + self.offset

    def derivative(self, x):
        return self.slope * np.ones_like(np.asarray(x, dtype=float))


@dataclass(frozen=True)
class SineIC:
    """mean + amplitude * sin(2 pi cycles (x - x_min) / length)."""

    mean: float = 0.0
    amplitude: float = 1.0
    cycles: int = 1
    x_min: float = 0.0
    length: float = 1.0

    def _phase(self, x):
        return 2.0 * np.pi * self.cycles * (np.asarray(x, dtype=float) - self.x_min) / self.length

    def __call__(self, x):
        return self.mean + self.amplitude * np.sin(self._phase(x))

    def derivative(self, x):
        scale = 2.0 * np.pi * self.cycles / self.length
        return self.amplitude * scale * np.cos(self._phase(x))


@dataclass(frozen=True)
class GaussianIC:
    """base + amplitude * exp(-(z_x^2) [- z_y^2]), z = (coordinate - center) / width.

    One center serves every axis, so in 2-d the bump sits at
    (center, center) and is round.  A run config sets base from ic.mean.
    """

    base: float = 0.0
    amplitude: float = 1.0
    center: float = 0.5
    width: float = 0.1

    def __call__(self, x, *rest):
        z = (np.asarray(x, dtype=float) - self.center) / self.width
        exponent = -(z**2)
        for y in rest:
            z = (np.asarray(y, dtype=float) - self.center) / self.width
            exponent = exponent - z**2
        return self.base + self.amplitude * np.exp(exponent)

    def derivative(self, x):
        z = (np.asarray(x, dtype=float) - self.center) / self.width
        return self.amplitude * np.exp(-(z**2)) * (-2.0 * z / self.width)


@dataclass(frozen=True)
class Sine2DIC:
    """mean + amplitude * sin(2 pi (cx (x-x0)/Lx + cy (y-y0)/Ly))."""

    mean: float = 0.0
    amplitude: float = 1.0
    cycles_x: int = 1
    cycles_y: int = 1
    x_min: float = 0.0
    length_x: float = 1.0
    y_min: float = 0.0
    length_y: float = 1.0

    def __call__(self, x, y):
        phase = 2.0 * np.pi * (
            self.cycles_x * (np.asarray(x, dtype=float) - self.x_min) / self.length_x
            + self.cycles_y * (np.asarray(y, dtype=float) - self.y_min) / self.length_y
        )
        return self.mean + self.amplitude * np.sin(phase)
