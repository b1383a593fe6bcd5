"""Spatial discretization: assemble dQ/dt from the current state.

Every row pairs a test function with the derivative of the flux of the
reconstruction and runs from exact weights, tabulated once and rounded
to float once.  The test functions are biorthogonal to the basis, so a
test function pairs with any polynomial of the cell space as its
pairing table applied to that polynomial's dof functionals; a row is
this table applied to the dof functionals of the differentiated flux of
each basis function.

In 1-d every row reads one cell's K+1 dofs (left endpoint, moments,
right endpoint).  ``_exact_rows`` holds, in ``Fraction``, the K-1
moment rows and the one-sided interface derivatives D+ (alpha = +1, on
the cell left of an interface) and D- (alpha = -1, on the cell right of
it).  A linear model's rows are laid out as the exact K m x K m blocks
of dx L at the cell offsets -1, 0, +1 (``_exact_blocks_1d``), which
rhs_1d applies times speed/dx with each weight rounded once and
``linear_step.StepOperator1D`` composes into a whole step.  Burgers
(f = q^2/2) takes exact quadratic forms in the cell's dofs
(``_burgers_forms``) over -dx on the moment rows, and D+/D- joined by
``_blend`` at max(q, 0)/-dx and min(q, 0)/-dx ("split"); at K = 2 the
"exact" update takes instead the forms' exact one-sided pairings with
q q', blended by (1 +- sgn q)/2 over -dx.  The paper gives each
interface test function a free weight alpha in [-1, 1]; the runtime
runs alpha = sgn(c), c the wave speed, and ``afpg dump-element
--alpha`` still builds any other member.

In 2-d ``_compile_taps_2d`` applies four pairing tables (the cell
indicator for the average, then the edge-x, edge-y and node tables of
element2d) to the dof functionals of ax/dx d_xi b + ay/dy d_eta b for
every basis function b of every support cell, with each dof read where
``grid._dof_source_2d`` stores it.  The edge and node weights follow
the sign of the velocity per axis; ``afpg dump-element-2d --alphas``
still builds any member of the family.

A linear scheme of either dimension is then an offset-block operator:
the (source field, offset) columns that carry weight and one float
matrix W.  One apply layer serves both dimensions: a tile copies every
column's shifted cells from the state, wrapping at the periodic edges
in the copies themselves (``grid._shifted_copies``), into a float64
tile of at most ``TILE_BYTES``, and ``_chunked_matmul`` writes W times
it in GEMMs of at most ``GEMM_TERMS`` columns, so the output bytes do
not depend on the tile size.  The 2-d tile and its copy plan are bound
once and kept for the last grid; the 1-d tile lives for one call.  Both
right-hand sides write into a caller's ``out`` buffer when given one.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from afpg.element1d import Element1D, build_element, build_point_test
from afpg.element2d import (
    Element2D,
    _transpose_table,
    build_element_2d,
    edge_pairing_table,
    node_pairing_table,
    pair_row,
)
from afpg.grid import (Grid1D, Grid2D, State1D, State2D, _dof_gather_1d, _dof_source_2d,
                       _shifted_copies)
from afpg.poly import HALF, inner

__all__ = [
    "Upwind1D",
    "Upwind2D",
    "rhs_1d",
    "rhs_2d",
]


@dataclass(frozen=True)
class Upwind1D:
    """Upwind policy of rhs_1d.  Its one mode, "adaptive", sets every
    interface weight by the sign of the wave speed; it carries no
    weight.  rhs_1d does not read it."""

    mode: str = "adaptive"

    def __post_init__(self):
        if self.mode != "adaptive":
            raise ValueError(f"unknown upwind mode {self.mode!r}")


class Upwind2D(Upwind1D):
    """Upwind policy of rhs_2d, as Upwind1D: the edge weight alpha3
    follows the sign of the normal wave speed and the node weight beta
    follows sign/2 per axis (see _compile_taps_2d).  The other free
    weights of element2d's family (alpha1/alpha2 on edges, the eight
    node weights) are zero, as in the paper's choice of test functions:
    no setting of them raised the SSPRK3 limit in every direction, and
    some made the scheme unstable (README, "Notes on stability").
    ``afpg dump-element-2d --alphas`` still builds any member."""


@lru_cache(maxsize=None)
def _exact_rows(k: int) -> tuple:
    """The 1-d linear rows as exact weights on a cell's K+1 dofs: K+1
    rows of K+1 Fractions, in xi units.

    Column s holds the dof functionals of b_s', the derivative of basis
    function s: rows 0..K-2 its moments (the moment rows; row 0 is the
    plain endpoint difference), row K-1 its right-endpoint value (D+,
    the interface row at alpha = +1 on the cell left of the interface)
    and row K its left-endpoint value (D-, alpha = -1, on the cell right
    of it).
    """
    element = build_element(k)
    values = [element.dof_values(b.deriv()) for b in element.basis()]
    return tuple(tuple(v[r] for v in values) for r in (*range(1, k), k, 0))


@lru_cache(maxsize=None)
def _linear_rows(k: int) -> np.ndarray:
    """``_exact_rows(k)`` with each weight rounded to float once: the
    (K+1, K+1) array whose last two rows, D+ and D-, Burgers' split
    update applies."""
    return np.array(_exact_rows(k), dtype=float)


def _unit_1d(model):
    """``(matrices, speed)`` of a 1-d linear model: dx L is ``speed`` times
    the operator built from ``matrices`` = (A, J+, J-), each a tuple of
    float rows.  A system gives its own matrices and speed 1; a scalar
    speed a gives the 1x1 matrices (sgn a, max(sgn a, 0), min(sgn a, 0))
    and speed |a|, so a scalar's exact tables depend on K and sgn a only.
    """
    if model.m > 1:
        return tuple(tuple(map(tuple, mat.tolist()))
                     for mat in (model.matrix, model.jac_plus, model.jac_minus)), 1.0
    sign = float(np.sign(model.a))
    return tuple(((w,),) for w in (sign, max(sign, 0.0), min(sign, 0.0))), abs(float(model.a))


@lru_cache(maxsize=None)
def _exact_blocks_1d(k, matrices):
    """dx L of the 1-d linear scheme of ``matrices`` (see ``_unit_1d``),
    exactly: ``{offset: block}`` at the cell offsets -1, 0 and +1, each
    block a (K m, K m) object array of Fractions.  Row r m + p is output
    field r, component p of a cell; column g m + q is field g, component
    q of the cell at that offset.
    ``matrices`` = (A, J+, J-) enter at their exact binary values: the
    moment rows of ``_exact_rows`` weigh -A, D+ weighs -J+ on the cell
    itself and D- weighs -J- on its right neighbour.
    """
    a, plus, minus = (np.array([[Fraction(w) for w in row] for row in mat], dtype=object)
                      for mat in matrices)
    m, rows = len(a), _exact_rows(k)
    # (field, cell offset) of each dof of a cell: the left endpoint is the
    # left neighbour's point value, the moments and right endpoint its own
    sources = [(k - 1, -1), *((s, 0) for s in range(k - 1)), (k - 1, 0)]
    blocks = {o: np.zeros((k, m, k, m), dtype=object) for o in (-1, 0, 1)}
    terms = [(r, a, rows[r], 0) for r in range(k - 1)]
    terms += [(k - 1, plus, rows[k - 1], 0), (k - 1, minus, rows[k], 1)]
    for r, matrix, row, shift in terms:
        for (g, o), w in zip(sources, row):
            blocks[o + shift][r, :, g, :] -= w * matrix
    return {o: b.reshape(k * m, k * m) for o, b in blocks.items()}


def _block_columns(*block_maps):
    """The sorted (field, offset) columns where some ``{offset: block}``
    map has a nonzero weight."""
    return tuple(sorted({(field, o) for blocks in block_maps for o, b in blocks.items()
                         for field in np.flatnonzero((b != 0).any(axis=0)).tolist()}))


def _rounded(x: Fraction) -> float:
    """x rounded to float once; past the float range, the infinity of its sign."""
    try:
        return float(x)
    except OverflowError:
        return math.inf if x > 0 else -math.inf


def _rounded_weights(blocks, columns):
    """The float matrix W of the exact ``{offset: block}`` weights on
    ``columns``, column (field, o) being column ``field`` of block o (zero
    without one), each weight rounded once; read-only, as callers cache it."""
    weights = np.zeros((len(next(iter(blocks.values()))), len(columns)))
    for j, (field, o) in enumerate(columns):
        if o in blocks:
            weights[:, j] = [_rounded(w) for w in blocks[o][:, field]]
    weights.flags.writeable = False
    return weights


@lru_cache(maxsize=64)
def _compile_taps_1d(k, matrices, speed, dx):
    """Exact taps of rhs_1d for a linear model, as ``_compile_taps_2d``:
    the weighted columns and W of speed/dx times ``_exact_blocks_1d``,
    each weight rounded once (``matrices`` and ``speed`` of ``_unit_1d``)."""
    blocks = _exact_blocks_1d(k, matrices)
    scale = Fraction(speed) / Fraction(dx)
    columns = _block_columns(blocks)
    return columns, _rounded_weights({o: b * scale for o, b in blocks.items()}, columns)


@lru_cache(maxsize=None)
def _burgers_forms(k: int) -> np.ndarray:
    """Burgers' rows as exact quadratic forms on a cell's K+1 dofs, rounded
    to float once: a (K+1, K+1, K+1) array of form matrices.

    Entry (s, t) of form r < K-1 is the r-th moment of (b_s b_t)'/2.
    Forms K-1 and K are int phi b_s b_t' for the left piece of the
    alpha = +1 test function and the right piece of the alpha = -1 one:
    q q' leaves the cell space, so these pair the solved pieces.
    """
    element = build_element(k)
    basis = element.basis()
    values = [[element.dof_values((b * c).deriv() * HALF) for c in basis] for b in basis]
    forms = [[[v[r] for v in row] for row in values] for r in range(1, k)]
    for phi in (build_point_test(element, 1).left, build_point_test(element, -1).right):
        forms.append([[inner(phi, b * c.deriv()) for c in basis] for b in basis])
    return np.array(forms, dtype=float)


def _cell_forms(dofs: np.ndarray, forms: np.ndarray) -> np.ndarray:
    """(F, N) values of the F quadratic forms on the gathered (K+1, N) cell dofs."""
    return np.einsum("fsn,sn->fn", forms @ dofs, dofs)


def _blend(out, d_plus, d_minus, w_plus, w_minus):
    """Fill the interface values ``out`` in place: interface i, right of
    cell i, gets w_plus D+ of cell i plus w_minus D- of cell i+1
    (periodic).  The weights are numbers or per-interface arrays;
    ``d_plus`` is overwritten."""
    out[:-1], out[-1] = d_minus[1:], d_minus[0]
    np.multiply(out, w_minus, out=out)
    np.add(out, np.multiply(d_plus, w_plus, out=d_plus), out=out)
    return out


def _output(data, out):
    """``out`` checked to take a right-hand side of ``data``, or a fresh
    buffer; C-contiguous either way, so flat reshapes of it are views."""
    if out is None:
        return np.empty(data.shape, data.dtype)
    if (out.shape != data.shape or out.dtype != data.dtype or not out.flags.c_contiguous
            or np.may_share_memory(out, data)):
        raise ValueError("out must be a C-contiguous array of the state's shape and dtype"
                         " that does not overlap it")
    return out


# Byte budget of the float64 tile each apply fills before its GEMMs.
# perfbench adv2d (160^2, 40 s runs, 1 BLAS thread, 2-CPU host), 10
# alternating pairs of 256 KiB with the bound plan against 512 KiB with
# per-call indexing: median peak RSS 36.61 -> 35.99 MB (10/10 pairs
# lower), wall time 0.980 -> 0.954 s (6/10).  Against the kept tile in 6
# rotated runs each, 128 KiB read peak RSS 0.10 MB lower but wall time
# x1.056, and 256 KiB without the bound plan x1.066 (0/6 faster).
TILE_BYTES = 256 * 1024

# The most columns one GEMM sums.  With at most this many terms and at
# least two cells, OpenBLAS's GEMM (0.3.31, Haswell kernels) sums each
# output in an order that does not depend on where its cell sits in the
# tile, so the output bytes do not depend on TILE_BYTES; with 16 or more
# terms they do, and a one-cell product goes through GEMV, which sums in
# yet another order.
GEMM_TERMS = 15


@lru_cache(maxsize=None)
def _gemm_chunks(c):
    """c columns as ceil(c / GEMM_TERMS) slices (one if c = 0), as ``np.array_split``."""
    parts = np.array_split(np.arange(c), max(1, -(-c // GEMM_TERMS)))
    edges = np.cumsum([0] + [len(part) for part in parts]).tolist()
    return tuple(map(slice, edges[:-1], edges[1:]))


def _chunked_matmul(weights, operand, chunks, out, sums):
    """``out`` = W times the operand, one GEMM per column chunk.  With
    several chunks the products are summed in float64: in the first
    len(W) rows of ``sums``, each later product passing through the next
    len(W), and the last sum is written to ``out``, so a narrower output
    is rounded once."""
    if len(chunks) == 1:
        return np.matmul(weights, operand, out=out)
    total, part = sums[:len(weights)], sums[len(weights):]
    np.matmul(weights[:, chunks[0]], operand[chunks[0]], out=total)
    for j, cols in enumerate(chunks[1:], 2):
        np.matmul(weights[:, cols], operand[cols], out=part)
        np.add(total, part, out=out if j == len(chunks) else total)


@lru_cache(maxsize=8)
def _tile_plan_1d(n, m, outputs, columns, budget):
    """``((rows, cells), chunks, plan)``: the float64 tile's shape, the
    column chunks (``_gemm_chunks``) and the copy plan of
    ``_apply_blocks_1d`` on n cells.

    The tile's rows are every column, then, with more than one chunk,
    the 2 K m rows (``outputs`` = K m) that ``_chunked_matmul`` sums in,
    or for a system with one chunk the K m rows its GEMM writes.  A tile
    covers the most cells that fit ``budget`` bytes (at least three, at
    most n); a last tile of one cell takes one from the tile before it,
    so no GEMM has one column.  The plan holds one (copies, t, span)
    entry per tile of t cells: the (tile index, index into the state's
    (K, m, n) view) pairs of ``grid._shifted_copies`` and the cells it
    fills.  It pins no buffer: the tile is allocated per call, so its
    memory serves what runs between steps (a snapshot) and after them
    (the error norms).
    """
    c, chunks = len(columns), _gemm_chunks(len(columns))
    rows = c + (2 * outputs if len(chunks) > 1 else outputs if m > 1 else 0)
    cells = min(n, max(3, budget // (max(1, rows) * np.dtype(float).itemsize)))
    spans = [[i, min(cells, n - i)] for i in range(0, n, cells)]
    if spans[-1][1] == 1 < n:
        spans[-2][1] -= 1
        spans[-1] = [spans[-1][0] - 1, 2]
    sources = [(divmod(field, m), (o,)) for field, o in columns]
    plan = tuple((tuple(_shifted_copies((n,), i, t, sources)), t, slice(i, i + t))
                 for i, t in spans)
    return (rows, cells), chunks, plan


def _apply_blocks_1d(data, columns, weights, out=None):
    """W applied to the offset columns of a (K, n[, m]) state, by tiles of
    cells, into ``out`` or a fresh buffer.  Column (field, o) is stored
    row field // m, component field % m, shifted by o cells; W's row
    r m + p is output row r, component p (a scalar's is written directly)."""
    k, n = data.shape[:2]
    km = len(weights)
    m = km // k
    out = _output(data, out)
    (rows, cells), chunks, plan = _tile_plan_1d(n, m, km, columns, TILE_BYTES)
    tile, c = np.empty((rows, cells)), len(columns)
    fields = data.reshape(k, n, m).transpose(0, 2, 1)
    out_fields = out.reshape(k, n, m).transpose(0, 2, 1)
    for copies, t, span in plan:
        for dest, src in copies:
            tile[dest] = fields[src]
        sums = tile[c:, :t]
        total = out[:, span] if m == 1 else sums[:km]
        _chunked_matmul(weights, tile[:c, :t], chunks, total, sums)
        if m > 1:
            out_fields[:, :, span] = total.reshape(k, m, t)
    return out


def rhs_1d(state: State1D, grid: Grid1D, element: Element1D, model, upwind: Upwind1D,
           point_update: str = "split", *, assume_finite: bool = False,
           out: np.ndarray | None = None) -> State1D:
    """Spatial right-hand side of the 1-d semi-discrete scheme.

    A linear model (advection, linear systems) applies the taps of
    ``_compile_taps_1d`` by ``_apply_blocks_1d``, the apply of
    ``linear_step.StepOperator1D``.  Burgers applies ``_burgers_forms``
    and ``_linear_rows``' D+/D- to the gathered cell dofs, as the
    module docstring says; ``point_update`` selects its one-sided
    pairings, "split" or "exact" (K = 2 only).  ``upwind`` is not read,
    and stays for callers that pass it by position.

    A state with a non-finite value raises ValueError, unless
    ``assume_finite`` says the caller has already tested it (the
    harness does: ``timestep.advance`` tests every state it hands on).

    The result is a fresh state, or with ``out`` (a C-contiguous array
    of the shape and dtype of ``state.data`` that does not overlap it)
    the state whose buffer is ``out``, overwritten.  ``state`` is left
    untouched.
    """
    k = state.k
    if k != element.k:
        raise ValueError("state and element degree disagree")
    if state.data.shape[1] != grid.n:
        raise ValueError("state size does not match grid")
    if not assume_finite and not state.all_finite():
        raise ValueError("state contains non-finite values")
    if point_update not in ("split", "exact"):
        raise ValueError(f"unknown point update {point_update!r}")
    if point_update == "exact" and (model.name != "burgers" or k != 2):
        raise ValueError("the exact-integration point update needs Burgers at K = 2")

    dx = grid.dx
    if model.is_linear:
        matrices, speed = _unit_1d(model)
        return State1D(_apply_blocks_1d(state.data, *_compile_taps_1d(k, matrices, speed, dx),
                                        out))

    dofs = _dof_gather_1d(state)
    out = _output(state.data, out)
    speed = model.jac(state.points)
    np.divide(_cell_forms(dofs, _burgers_forms(k)[: k - 1]), -dx, out=out[:-1])
    if point_update == "exact":
        # the exact pairings carry the speed: blend them by (1 +- sgn q)/2
        alpha = np.sign(speed)
        d_plus, d_minus = _cell_forms(dofs, _burgers_forms(k)[-2:])
        w_plus, w_minus = 0.5 * (1.0 + alpha) / -dx, 0.5 * (1.0 - alpha) / -dx
    else:
        d_plus, d_minus = _linear_rows(k)[-2:] @ dofs
        w_plus, w_minus = np.maximum(speed, 0.0) / -dx, np.minimum(speed, 0.0) / -dx
    _blend(out[-1], d_plus, d_minus, w_plus, w_minus)
    return State1D(out)


@lru_cache(maxsize=64)
def _compile_taps_2d(dx, dy, ax, ay, alpha3, beta):
    """Exact taps of rhs_2d as one offset-block operator: ``(columns, weights)``.

    ``columns`` lists the distinct (source field, (ox, oy)) pairs that
    carry weight, sorted; ``weights`` is the read-only (4, len(columns))
    float matrix W, so output field f at cell i is the sum over columns
    j = (g, o) of W[f, j] times field g at cell i + o (periodic, every
    offset in {-1, 0, 1}^2).  Fields are ordered averages, edge_x,
    edge_y, nodes; their tables are the cell indicator (the average's
    test function) and the edge and node pairing tables, whose weights
    are all zero but the given ones (see Upwind2D): ``alpha3`` = (x, y)
    holds the alpha3 of the x-edge and y-edge tables, and ``beta`` =
    (x, y) the node table's blend of its x-derivative (1/2 +- beta_x,
    alpha10 = alpha11 = beta_x/2) and y-derivative (1/2 +- beta_y,
    alpha9 = 2 beta_y).  rhs_2d passes the sign-following weights
    alpha3 = sgn(a) and beta = sgn(a)/2 per axis.  Dof (r, s) of
    the support cell at offset o weighs -pair_row(row, ax/dx d_xi b +
    ay/dy d_eta b), b its basis function and row the table's row at o,
    and is stored where ``grid._dof_source_2d`` says, shifted by o.
    Each weight is exact and rounded once.
    """
    (a3x, a3y), (beta_x, beta_y) = alpha3, map(Fraction, beta)
    tables = (
        {(0, 0): {(0, 0): Fraction(1)}},
        edge_pairing_table((0, 0, a3x)),
        _transpose_table(edge_pairing_table((0, 0, a3y))),
        node_pairing_table((0,) * 8 + (2 * beta_y, beta_x / 2, beta_x / 2)),
    )
    cx, cy = Fraction(ax) / Fraction(dx), Fraction(ay) / Fraction(dy)
    basis = build_element_2d().basis
    flux = {dof: cx * b.deriv(0) + cy * b.deriv(1) for dof, b in basis.items()}
    exact = defaultdict(Fraction)
    for out_field, table in enumerate(tables):
        for (ox, oy), row in table.items():
            for dof, f in flux.items():
                field, (sx, sy) = _dof_source_2d(*dof)
                exact[out_field, (field, (ox + sx, oy + sy))] -= pair_row(row, f)
    columns = tuple(sorted({column for (_, column), w in exact.items() if w != 0}))
    index = {column: j for j, column in enumerate(columns)}
    weights = np.zeros((len(tables), len(columns)))
    for (out_field, column), w in exact.items():
        if w != 0:
            weights[out_field, index[column]] = float(w)
    weights.flags.writeable = False
    return columns, weights


@lru_cache(maxsize=1)
def _scratch_2d(nx, ny, columns, budget):
    """The float64 (height, rows, ny) tile of ``_apply_blocks_2d`` and its
    plan, bound once per key and kept for the last key only, so a time
    loop on one grid reuses both.  The height is one row per column,
    plus, with more than one GEMM chunk, 4 rows that sum the chunks'
    products and 4 that each later chunk's product passes through.
    ``rows`` is the most grid rows that fit ``budget`` bytes (at least
    one, at most nx): 22 rows and 253 440 B at 160^2 with 9 columns.
    The plan holds one (copies, operand, span, sums) entry per tile:
    (view into the tile, index into the state) pairs from
    ``grid._shifted_copies``, the columns' first t rows as the flat
    (#columns, t * ny) GEMM operand, the slice of the output's flat
    (4, nx * ny) columns they fill, and the summing rows, flat too.
    Every view is of the tile, so the cache pins no caller's buffer; the
    tile is overwritten by every call and never returned, so sharing it
    is safe.
    """
    c = len(columns)
    height = c + (8 if len(_gemm_chunks(c)) > 1 else 0)
    rows = min(nx, max(1, budget // (max(1, height) * ny * np.dtype(float).itemsize)))
    tile = np.empty((height, rows, ny))
    plan = []
    for i in range(0, nx, rows):
        t = min(rows, nx - i)
        copies = tuple((tile[dest], src) for dest, src in _shifted_copies((nx, ny), i, t, columns))
        # tile[:, :t] holds t * ny contiguous values per row, so these reshapes are views
        plan.append((copies, tile[:c, :t].reshape(c, t * ny), slice(i * ny, (i + t) * ny),
                     tile[c:, :t].reshape(height - c, t * ny)))
    return tile, tuple(plan)


def _apply_blocks_2d(data, columns, weights, out=None):
    """W applied to the offset columns of a (4, nx, ny) stack, by tiles of
    grid rows (``_scratch_2d``), into ``out`` or a fresh buffer, which
    ``_output`` makes C-contiguous, so ``flat_out`` is a view of it."""
    _, nx, ny = data.shape
    out = _output(data, out)
    flat_out = out.reshape(len(out), nx * ny)
    chunks = _gemm_chunks(len(columns))
    for copies, operand, span, sums in _scratch_2d(nx, ny, columns, TILE_BYTES)[1]:
        for dest, src in copies:
            dest[...] = data[src]
        _chunked_matmul(weights, operand, chunks, flat_out[:, span], sums)
    return out


def rhs_2d(state: State2D, grid: Grid2D, element: Element2D, model, upwind: Upwind2D,
           *, assume_finite: bool = False, out: np.ndarray | None = None) -> State2D:
    """Spatial right-hand side of the 2-d semi-discrete scheme (K = 2).

    Supports scalar linear models.  The scheme is a periodic,
    translation-invariant map: W times the state shifted by each offset
    column of ``_compile_taps_2d``, compiled once per grid spacing and
    velocity, with the edge and node weights that follow the sign of
    the velocity per axis; ``upwind`` is not read, as in rhs_1d.
    ``_apply_blocks_2d`` applies it by tiles of grid rows.
    Returns a fresh state, or the state whose buffer is ``out``, as in
    rhs_1d, and leaves ``state`` untouched.  ``assume_finite`` skips
    the finiteness test of the state, as in rhs_1d.
    """
    if getattr(model, "dim", 0) != 2 or model.m != 1:
        raise ValueError("rhs_2d needs a two-dimensional scalar model")
    if not model.is_linear:
        raise ValueError("nonlinear 2-d models are not supported")
    if state.data.shape != (4, grid.nx, grid.ny):
        raise ValueError("state size does not match grid")
    if not assume_finite and not state.all_finite():
        raise ValueError("state contains non-finite values")

    sx, sy = np.sign(model.ax), np.sign(model.ay)
    columns, weights = _compile_taps_2d(grid.dx, grid.dy, model.ax, model.ay, (sx, sy),
                                        (sx / 2, sy / 2))
    return State2D(_apply_blocks_2d(state.data, columns, weights, out))
