"""Spatial discretization: assemble dQ/dt from the current state.

Every row pairs a test function with the derivative of the flux of the
reconstruction and runs from exact weights, tabulated once and rounded
to float once.  The weights all follow one rule.  The test functions
are biorthogonal to the basis, so a test function pairs with any
polynomial of the cell space as its pairing table applied to that
polynomial's dof functionals; a row is this table applied to the dof
functionals of the differentiated flux of each basis function.

In 1-d a moment weight lives on one cell and an interface test function
has one piece on each of the two cells at its interface, so every row
reads one cell's K+1 dofs (left endpoint, moments, right endpoint),
gathered once per call by ``grid._dof_gather_1d``: the state's K rows
under one row of the left neighbours' interface values.  ``_linear_rows``
reads its rows off the dof functionals of each b_s': the K-1 moment
rows (row 0 is the plain endpoint difference) and the one-sided
interface derivatives D+ (the right-endpoint value, alpha = +1, on the
cell left of an interface) and D- (the left-endpoint value, alpha = -1,
on the cell right of it).  ``_blend`` joins the two into the interface
values:

- linear systems: -A on the moment rows, -J+ on D+ and -J- on D-;
- scalar models, linear (q_t + a q_x = 0) and Burgers (f = q^2/2):
  the moment rows times -a/dx, or for Burgers exact quadratic forms in
  the cell's dofs (``_burgers_forms``, the moments of (b_s b_t)'/2)
  over -dx.  The interface values are the 1x1 case of the system
  split: max(c, 0)/-dx on D+ and min(c, 0)/-dx on D- ("split"), c the
  wave speed (a, or the interface value for Burgers), so every weight
  follows the sign of c.  For Burgers at K = 2 the "exact" update
  takes instead the forms' exact one-sided pairings with q q', which
  carry the speed themselves, blended by (1 +- sgn q)/2 over -dx.

The paper gives each interface test function a free weight alpha in
[-1, 1] (alpha = +1 reads the left cell only); the runtime runs the
member alpha = sgn(c) only, and ``afpg dump-element --alpha`` still
builds any other member.

In 2-d ``_compile_taps_2d`` applies four pairing tables (the cell
indicator for the average, then the edge-x, edge-y and node tables of
element2d) to the dof functionals of ax/dx d_xi b + ay/dy d_eta b for
every basis function b of every support cell, by ``element2d.pair_row``,
with each dof read where ``grid._dof_source_2d`` stores it.  The edge
and node weights follow the sign of the velocity per axis, as in 1-d;
``afpg dump-element-2d --alphas`` still builds any member of the
family.  The scheme is then an offset-block operator, compiled once per
grid spacing and velocity: the distinct (source field, 2-d offset)
columns that carry weight (9 for a = (1, 1)) and one (4, #columns)
float matrix W.  ``rhs_2d`` applies it by tiles of grid
rows: it copies each column's shifted rows straight from the state,
wrapping at the periodic edges in the copies themselves
(``grid._shifted_copies``), into a small buffer of ``TILE_BYTES``, and
one GEMM of W with that buffer writes those rows of the output.  The
tile is kept for the last shape seen, and both right-hand sides write
into a caller's ``out`` buffer when given one, so a 2-d time loop on
one grid allocates no state-sized buffer (``rhs_1d`` still gathers its
cell dofs anew on every call).
"""

from __future__ import annotations

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
def _linear_rows(k: int) -> np.ndarray:
    """The 1-d linear rows as exact weights on a cell's K+1 dofs, each
    rounded to float once: a (K+1, K+1) array in xi units.

    Column s holds the dof functionals of b_s', the derivative of basis
    function s: rows 0..K-2 its moments (the moment rows; row 0 is the
    plain endpoint difference), row K-1 its right-endpoint value (D+,
    the interface row at alpha = +1 on the cell left of the interface)
    and row K its left-endpoint value (D-, alpha = -1, on the cell right
    of it).
    """
    element = build_element(k)
    values = [element.dof_values(b.deriv()) for b in element.basis()]
    return np.array([[v[r] for v in values] for r in (*range(1, k), k, 0)], dtype=float)


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


def _blend(out, d_plus, d_minus, w_plus=1.0, w_minus=1.0):
    """Fill the interface values ``out`` in place: interface i, right of
    cell i, gets w_plus D+ of cell i plus w_minus D- of cell i+1
    (periodic).  The weights are numbers or per-interface arrays;
    ``d_plus`` is overwritten."""
    out[:-1], out[-1] = d_minus[1:], d_minus[0]
    np.multiply(out, w_minus, out=out)
    np.add(out, np.multiply(d_plus, w_plus, out=d_plus), out=out)
    return out


def _output(data, out):
    """``out`` checked to take a right-hand side of ``data``, or a fresh buffer."""
    if out is None:
        return np.empty_like(data)
    if (out.shape != data.shape or out.dtype != data.dtype or not out.flags.c_contiguous
            or np.may_share_memory(out, data)):
        raise ValueError("out must be a C-contiguous array of the state's shape and dtype"
                         " that does not overlap it")
    return out


def rhs_1d(state: State1D, grid: Grid1D, element: Element1D, model, upwind: Upwind1D,
           point_update: str = "split", *, assume_finite: bool = False,
           out: np.ndarray | None = None) -> State1D:
    """Spatial right-hand side of the 1-d semi-discrete scheme.

    Every row is a table on the gathered cell dofs: ``_linear_rows``
    for the linear rows and D+/D-, ``_burgers_forms`` for Burgers'
    moment rows and exact one-sided pairings; ``_blend`` joins the two
    cells of each interface.  ``point_update`` selects the one-sided
    pairings: "split" takes D+/D- weighted by J+ and J- (max(c, 0) and
    min(c, 0) for a scalar speed c), "exact" the exact pairing of the
    test function with d/dx (q^2/2) (Burgers only, K = 2).  Every
    interface weight follows the sign of the wave speed; ``upwind`` is
    not read, and stays for callers that pass it by position.

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
    dofs = _dof_gather_1d(state)
    out = _output(state.data, out)
    if model.m > 1:
        rows = np.tensordot(_linear_rows(k), dofs, axes=1)
        np.matmul(rows[:-2], model.matrix.T / -dx, out=out[:-1])
        jac_plus, jac_minus = model.jac_plus.T / -dx, model.jac_minus.T / -dx
        _blend(out[-1], rows[-2] @ jac_plus, rows[-1] @ jac_minus)
        return State1D._of(out)

    if model.is_linear:
        speed = model.a
        np.matmul(_linear_rows(k)[:-2] * (speed / -dx), dofs, out=out[:-1])
    else:
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
    return State1D._of(out)


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


# Byte budget of the tile buffer rhs_2d fills before each GEMM; the rows
# per tile follow from it (45 at ny = 160 with 9 columns).  Whole 160^2
# adv2d runs (1 BLAS thread, 2-CPU host, median of 5 interleaved) took
# 1.59, 1.48, 1.46 and 1.59 s at 256 KiB, 512 KiB, 1 MiB and 2 MiB:
# 512 KiB and 1 MiB lie within the noise, and the smaller one is kept.
TILE_BYTES = 512 * 1024


@lru_cache(maxsize=1)
def _scratch_2d(nx, ny, rows, columns):
    """The (#columns, rows, ny) tile of ``_apply_blocks_2d`` and its copy
    plan, one (first row, rows, ``grid._shifted_copies``) per tile, kept
    for the last key only (at most ``TILE_BYTES``, 0.5 MiB at 160^2), so
    a time loop on one grid reuses both.  The tile is overwritten by
    every call and never returned, so one shared by every caller in the
    process is safe.
    """
    tiles = [(i, min(rows, nx - i)) for i in range(0, nx, rows)]
    return (np.empty((len(columns), rows, ny)),
            [(i, t, _shifted_copies(nx, ny, i, t, columns)) for i, t in tiles])


def _apply_blocks_2d(data, columns, weights, out=None):
    """W applied to the offset columns of a (4, nx, ny) stack, by row tiles.

    Each tile copies the shifted rows of a few grid rows, one per
    column, straight from ``data`` into the tile, and one matmul writes
    W times the tile straight into the same rows of the output: ``out``,
    or a fresh buffer.
    """
    _, nx, ny = data.shape
    out = _output(data, out)
    flat_out = out.reshape(len(out), nx * ny)
    rows = min(nx, max(1, TILE_BYTES // (max(1, len(columns)) * ny * out.itemsize)))
    tile, plan = _scratch_2d(nx, ny, rows, columns)
    for i, t, copies in plan:
        for dest, src in copies:
            tile[dest] = data[src]
        # tile[:, :t] holds t * ny contiguous values per column, so this reshape is a view
        np.matmul(weights, tile[:, :t].reshape(len(columns), t * ny),
                  out=flat_out[:, i * ny : (i + t) * ny])
    return out


def rhs_2d(state: State2D, grid: Grid2D, element: Element2D, model, upwind: Upwind2D,
           *, assume_finite: bool = False, out: np.ndarray | None = None) -> State2D:
    """Spatial right-hand side of the 2-d semi-discrete scheme (K = 2).

    Supports scalar linear models.  The scheme is a periodic,
    translation-invariant map: W times the state shifted by each offset
    column of ``_compile_taps_2d``, compiled once per grid spacing and
    velocity, with the edge and node weights that follow the sign of
    the velocity per axis; ``upwind`` is not read, as in rhs_1d.
    ``_apply_blocks_2d`` applies it as one GEMM per tile of grid rows.
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
    return State2D._of(_apply_blocks_2d(state.data, columns, weights, out))
