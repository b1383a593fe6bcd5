"""One step of a 1-d linear run as one exact banded operator, R(dt L).

The 1-d linear scheme is a banded, translation-invariant map whose
exact offset blocks ``semidiscrete._exact_blocks_1d`` gives, and a step
of SSPRK3 or RK4 of a linear map L is its stability polynomial
R(dt L), the Taylor polynomial of e^z of degree 3 or 4.  So
``StepOperator1D`` composes R(dt L) in rational arithmetic, once per
dt, from the exact powers of the blocks, rounds each weight of R - I
once and applies it through ``semidiscrete._apply_blocks_1d``, the
apply rhs_1d runs for a linear model, then adds u exactly.
``timestep.advance`` takes it as its ``step_operator``.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

import numpy as np

from afpg.grid import Grid1D
from afpg.semidiscrete import (_apply_blocks_1d, _block_columns, _exact_blocks_1d,
                               _rounded_weights, _unit_1d)

__all__ = ["StepOperator1D"]


_to_int = np.frompyfunc(int, 1, 1)


@lru_cache(maxsize=None)
def _exact_powers_1d(k, matrices, order):
    """``(powers, d)``: the exact powers (d B)^j for j = 0..order, with B
    the operator of ``semidiscrete._exact_blocks_1d`` (dx L over the
    speed of ``_unit_1d``), each ``{offset: block}`` of Python-int object
    arrays with its zero blocks left out, and d the least common
    denominator of B's weights, so B^j is powers[j] / d^j.  Integers
    keep the products free of gcd reductions."""
    blocks = {o: b for o, b in _exact_blocks_1d(k, matrices).items() if (b != 0).any()}
    d = math.lcm(*(Fraction(w).denominator for b in blocks.values() for w in b.flat))
    base = {o: _to_int(b * d) for o, b in blocks.items()}
    size = len(_exact_blocks_1d(k, matrices)[0])
    powers = [{0: np.identity(size, dtype=int).astype(object)}]
    for _ in range(order):
        product = {}
        for o1, p in powers[-1].items():
            for o2, b in base.items():
                product[o1 + o2] = product.get(o1 + o2, 0) + p.dot(b)
        powers.append(product)
    return tuple(powers), d


@lru_cache(maxsize=None)
def _step_columns_1d(k, matrices, order):
    """The (field, offset) columns where some power of B up to ``order``
    has a nonzero weight: those R(nu B) can weigh at any nu, so a tile
    plan serves every dt."""
    return _block_columns(*_exact_powers_1d(k, matrices, order)[0])


@lru_cache(maxsize=16)
def _exact_step_1d(k, matrices, nu, order):
    """R(nu B) = sum over j <= order of (nu B)^j / j!, exactly (B as in
    ``_exact_powers_1d``; nu B is dt L for nu = speed dt / dx):
    ``{offset: block}`` of (K m, K m) object arrays of Fractions, nu a
    Fraction.  Every term goes over one common denominator, so the sum
    is integer arithmetic and each weight is reduced once."""
    powers, d = _exact_powers_1d(k, matrices, order)
    coefficients = [(nu / d) ** j / math.factorial(j) for j in range(order + 1)]
    denominator = math.lcm(*(c.denominator for c in coefficients))
    step = {}
    for c, power in zip(coefficients, powers):
        scale = c.numerator * (denominator // c.denominator)
        for o, b in power.items():
            step[o] = step.get(o, 0) + b * scale
    exact = np.frompyfunc(lambda n: Fraction(n, denominator), 1, 1)
    return {o: exact(b) for o, b in step.items()}


@lru_cache(maxsize=16)
def _step_weights_1d(k, matrices, speed, dt, dx, order):
    """The float (K m, #columns) matrix W of R(dt L) - I on the columns of
    ``_step_columns_1d``: each weight of ``_exact_step_1d`` at nu =
    speed dt / dx, all three at their exact binary values, less the
    identity, rounded once.  The identity stays out so that the state is
    added exactly, as in u + dt k; a weight of R rounded whole would be
    off by up to half an ulp of 1, which a run repeats every step.
    Read-only, as it is cached per (K, model, dx, dt, order)."""
    nu = Fraction(speed) * Fraction(dt) / Fraction(dx)
    step = dict(_exact_step_1d(k, matrices, nu, order))
    step[0] = step[0] - np.identity(len(step[0]), dtype=int)
    return _rounded_weights(step, _step_columns_1d(k, matrices, order))


class StepOperator1D:
    """R(dt L), one step of a linear Runge-Kutta scheme, for the 1-d
    linear scheme of one model on one grid.

    ``op(data, dt, order, out)`` writes R(dt L) applied to a (K, n[, m])
    state buffer into ``out`` and returns it, with R the Taylor
    polynomial of e^z of degree ``order`` (3 for SSPRK3, 4 for RK4).
    Its weights are composed exactly and rounded once per (K, model, dx,
    dt, order), from the exact powers of dx L over the speed, cached per
    K and model, so a run pays one composition per distinct dt.
    ``semidiscrete._apply_blocks_1d`` applies R - I, then u is added
    exactly.  ``data`` is read, never written, and must not overlap
    ``out``.
    """

    def __init__(self, grid: Grid1D, model, k: int):
        if getattr(model, "dim", 1) != 1 or not model.is_linear:
            raise ValueError("a step operator needs a one-dimensional linear model")
        self.k, self.n, self.m, self.dx = k, grid.n, model.m, grid.dx
        self.matrices, self.speed = _unit_1d(model)

    def __call__(self, data, dt, order, out):
        k, n, m = self.k, self.n, self.m
        if data.shape != ((k, n) if m == 1 else (k, n, m)):
            raise ValueError("state size does not match the step operator's grid and model")
        weights = _step_weights_1d(k, self.matrices, self.speed, dt, self.dx, order)
        out = _apply_blocks_1d(data, _step_columns_1d(k, self.matrices, order), weights, out)
        # out holds (R - I) u: add u, in one pass over the whole state
        np.add(out, data, out=out)
        return out
