"""One step of a 1-d linear run as one exact banded operator, R(dt L).

The 1-d linear scheme is a banded, translation-invariant map whose
exact offset blocks ``semidiscrete._exact_blocks_1d`` gives, and a step
of SSPRK3 or RK4 of a linear map L is its stability polynomial
R(dt L), the Taylor polynomial of e^z of degree 3 or 4.  So
``StepOperator1D`` composes R(dt L) in rational arithmetic, once per
dt, from the exact powers of the blocks, rounds each weight of R - I
once and applies it by tiles of cells: one gather of the state's
shifted columns, then one GEMM per chunk of at most ``GEMM_TERMS``
columns, then u added exactly.  ``timestep.advance`` takes it as its
``step_operator``.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

import numpy as np

from afpg import semidiscrete
from afpg.grid import Grid1D
from afpg.semidiscrete import _exact_blocks_1d, _output, _unit_1d

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
    """The (field, offset) columns that R(nu B) of this order can weigh,
    sorted, field g m + q being component q of stored row g: every
    column where some power of B up to ``order`` has a nonzero weight,
    whatever nu, so a tile plan serves every dt."""
    powers, _ = _exact_powers_1d(k, matrices, order)
    return tuple(sorted({(field, o) for power in powers for o, b in power.items()
                         for field in np.flatnonzero((b != 0).any(axis=0)).tolist()}))


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


def _rounded(x: Fraction) -> float:
    """x rounded to float once; past the float range, the infinity of its sign."""
    try:
        return float(x)
    except OverflowError:
        return math.inf if x > 0 else -math.inf


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
    columns = _step_columns_1d(k, matrices, order)
    weights = np.zeros((len(step[0]), len(columns)))
    for j, (field, o) in enumerate(columns):
        if o in step:
            weights[:, j] = [_rounded(w) for w in step[o][:, field]]
    weights.flags.writeable = False
    return weights


# The most columns one GEMM of a StepOperator1D sums.  With at most this
# many terms and at least two cells, OpenBLAS's GEMM (0.3.31, Haswell
# kernels) sums each output in an order that does not depend on where its
# cell sits in the tile, so the output bytes do not depend on TILE_BYTES;
# with 16 or more terms they do, and a one-cell product goes through GEMV,
# which sums in yet another order.  rhs_2d's 9 columns are within it.
GEMM_TERMS = 15


@lru_cache(maxsize=4)
def _tile_plan_1d(n, m, outputs, columns, budget):
    """``((rows, cells), chunks, plan)``: the shape of the float64 tile of a
    ``StepOperator1D`` on a grid of n cells, the column chunks of its
    GEMMs and its copy plan.

    The tile's rows are every column, then, unless one GEMM writes the
    output directly (a scalar with one chunk), the ``outputs`` = K m rows
    that sum the chunks' products, then, with more than one chunk of at
    most ``GEMM_TERMS`` columns, K m rows that each further chunk's
    product passes through.  A
    tile covers ``cells`` cells, the most that fit ``budget`` bytes (at
    least three, at most n); a last tile of one cell takes one from the
    tile before it, so no GEMM has one column.  The plan holds one
    (copies, t, span) entry per tile of t cells: its copies as (tile
    index, source index into the state's (K, m, n) field view) pairs,
    each column's cells shifted periodically, the wrap split into a
    second copy, and the span of cells the tile fills.  It holds indices
    only, so it pins no buffer: the operator allocates the tile for each
    step and frees it on return, so the memory serves what runs between
    steps (a snapshot) and after them (the error norms).
    """
    c = len(columns)
    chunks = tuple(slice(int(part[0]), int(part[-1]) + 1)
                   for part in np.array_split(np.arange(c), -(-c // GEMM_TERMS)))
    direct = m == 1 and len(chunks) == 1
    rows = c + (0 if direct else outputs) + (outputs if len(chunks) > 1 else 0)
    cells = min(n, max(3, budget // (rows * np.dtype(float).itemsize)))
    spans = [[i, min(cells, n - i)] for i in range(0, n, cells)]
    if spans[-1][1] == 1 < n:
        spans[-2][1] -= 1
        spans[-1] = [spans[-1][0] - 1, 2]
    plan = []
    for i, t in spans:
        copies = []
        for j, (field, o) in enumerate(columns):
            g, q = divmod(field, m)
            r = (i + o) % n
            h = min(t, n - r)  # cells before the wrap
            copies.append(((j, slice(0, h)), (g, q, slice(r, r + h))))
            if h < t:
                copies.append(((j, slice(h, t)), (g, q, slice(0, t - h))))
        plan.append((tuple(copies), t, slice(i, i + t)))
    return (rows, cells), chunks, tuple(plan)


class StepOperator1D:
    """R(dt L), one step of a linear Runge-Kutta scheme, for the 1-d
    linear scheme of one model on one grid.

    ``op(data, dt, order, out)`` writes R(dt L) applied to a (K, n[, m])
    state buffer into ``out`` and returns it, with R the Taylor
    polynomial of e^z of degree ``order`` (3 for SSPRK3, 4 for RK4).
    Its weights are composed exactly (``_exact_step_1d``) and rounded
    once, per (K, model, dx, dt, order), from the exact powers of dx L
    over the speed, cached per K and model (``_exact_powers_1d``), so a
    run pays one composition per distinct dt.  Each tile of cells is one
    gather of the state's shifted columns and one GEMM per chunk of at
    most ``GEMM_TERMS`` columns, which gives (R - I) u; u is then added
    exactly.  The tile, within ``semidiscrete.TILE_BYTES``, lives for one
    call (see ``_tile_plan_1d``).  ``data`` is read, never written, and
    must not overlap ``out``.
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
        out = _output(data, out)
        weights = _step_weights_1d(k, self.matrices, self.speed, dt, self.dx, order)
        columns = _step_columns_1d(k, self.matrices, order)
        shape, chunks, plan = _tile_plan_1d(n, m, k * m, columns, semidiscrete.TILE_BYTES)
        tile = np.empty(shape)
        c, km = len(columns), k * m
        fields = data.reshape(k, n, m).transpose(0, 2, 1)
        out_fields = out.reshape(k, n, m).transpose(0, 2, 1)
        for copies, t, span in plan:
            for dest, src in copies:
                tile[dest] = fields[src]
            if shape[0] == c:  # a scalar's one GEMM writes its rows of the output
                np.matmul(weights, tile[:, :t], out=out[:, span])
                continue
            total, part = tile[c:c + km, :t], tile[c + km:, :t]
            for j, cols in enumerate(chunks):
                np.matmul(weights[:, cols], tile[cols, :t], out=part if j else total)
                if j:
                    np.add(total, part, out=total)
            out_fields[:, :, span] = total.reshape(k, m, t)
        # out holds (R - I) u: add u, in one pass over the whole state
        np.add(out, data, out=out)
        return out
