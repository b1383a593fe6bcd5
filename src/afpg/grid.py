"""Periodic Cartesian meshes and degree-of-freedom storage.

Active Flux has two kinds of dofs in every dimension: integrals over a
cell and point values, which neighbouring cells share and which are
stored once.  A state is all of them in one array, ``data``, field
first and then cells: ``State1D(data)`` and ``State2D(data)`` wrap the
C-contiguous array they are given without copying it, the named
fields are views into it, and the time integrators act on ``data``
alone.  Constant-coefficient linear systems append a trailing
component axis.

- 1-d, (K, N[, m]): rows 0..K-2 are the moments (moment 0 the average)
  and row K-1 is ``points``, the value at each cell's right interface;
  ``moments`` is ``data[:-1]`` seen as an (N, K-1[, m]) array.
- 2-d, (4, Nx, Ny): the averages, then the values at the midpoint of
  each cell's right edge (``edge_x``) and top edge (``edge_y``) and at
  its top-right corner (``nodes``).

``_LAYOUTS`` writes this down once per dimension: the rows of cell
integrals with the moment each takes along every axis, and each point
field's place along every axis (cell centre or stored interface).  With
``_axes``, which gives each axis's centres, interfaces and spacing,
projection, error norms and total mass run one path for both
dimensions.  All index arithmetic is modulo the grid size.

Projection and error norms sample and integrate by blocks of whole
cells along the first grid axis, each holding at most ``BLOCK_BYTES``
of Gauss-point values per component, and the norms gather the dofs of
one block at a time, so beyond the state and one value per cell and
norm their memory does not grow with the grid.  A 1-d block is a
multiple of 64 cells: the 1-d sums go through BLAS, whose order for a
row of a matrix product depends on the row's place, and blocks of 64
cells leave every row where it was, so the results are bit for bit
those of one block.  The 2-d sums are ``einsum`` loops, the same at
any number of rows per block.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from afpg._floatrepr import _CHUNK, WIDTH, repr_bytes
from afpg.element1d import Element1D, build_element, moment_weight
from afpg.element2d import DOF_IDS, build_element_2d
from afpg.poly import Poly, gauss_rule

__all__ = [
    "Grid1D",
    "Grid2D",
    "State1D",
    "State2D",
    "project_initial",
    "total_mass",
    "error_norms",
    "write_state_csv",
]

# Gauss points per axis used to project initial data; generous so the
# projection error for smooth data sits well below the scheme error.
_PROJECT_RULE_MARGIN = 6
# Gauss points per axis used for error norms.
_NORM_RULE_MARGIN = 2
# Byte budget of the Gauss-point values (per component) that projection
# and error norms hold at once; each holds three or four such arrays (the
# samples, the reconstruction, the exact values' temporaries).  Sampling a
# whole 160^2 grid at once took 13 MB per temporary.  Sweep, one process
# calling every budget in turn, 25 rounds, median ms at 64 KiB / 256 KiB
# / 1 MiB, 2-CPU host: 160^2 projection 43 / 33 / 35 and norms 19 / 14 /
# 15; 320^2 projection 140 / 149 / 121 and norms 114 / 70 / 62; 1-d K=4
# at n=10240 projection 3.8 / 2.9 / 2.9 and norms 4.0 / 3.4 / 3.3.  At
# 160^2 the tracemalloc peak of a norms call is 1.4 MB at 256 KiB and 3.6
# MB at 1 MiB.  256 KiB is the smallest budget as fast as 1 MiB at 160^2
# and in 1-d; at 320^2 it costs about 20%.
BLOCK_BYTES = 1 << 18
# Lines formatted and handed to one write: as many as the formatter takes
# at once, so the values of a full block are one chunk.  Sweep of both on
# a 1-d K=4 snapshot at n=10240, five processes of 40 rounds calling each
# size in turn, 2-CPU host: median ms per file, then the tracemalloc peak
# of a cold write (x rows formatted in the call) and of a warm one.  2048
# lines: 14.3 ms, 1.00 and 0.42 MB; 3072: 11.9 ms (the fastest in all
# five processes), 1.20 and 0.62 MB; 4096: 14.1 ms, 1.41 and 0.83 MB.
# End to end, 12 rotated fresh snap1d runs of each: median wall_s 0.559 s
# at 3072, 0.696 at 2048 (3072 faster in 9 of 12) and 0.568 at 4096 (in 5
# of 12), peak RSS within 0.03 MB.  4096 lines break the 1 392 640 B
# bound of test_1d_write_memory_is_bounded on the cold write.
_CSV_BLOCK_LINES = _CHUNK


@dataclass(frozen=True)
class Grid1D:
    n: int
    x_min: float = 0.0
    x_max: float = 1.0

    def __post_init__(self):
        if self.n < 3:
            raise ValueError(f"need at least 3 cells, got {self.n}")
        if not self.x_max > self.x_min:
            raise ValueError("x_max must exceed x_min")

    @property
    def dx(self) -> float:
        return (self.x_max - self.x_min) / self.n

    def centers(self) -> np.ndarray:
        return self.x_min + (np.arange(self.n) + 0.5) * self.dx

    def interfaces(self) -> np.ndarray:
        """x of the stored interface values (right interface of each cell)."""
        return self.x_min + (np.arange(self.n) + 1.0) * self.dx


@dataclass(frozen=True)
class Grid2D:
    nx: int
    ny: int
    x_min: float = 0.0
    x_max: float = 1.0
    y_min: float = 0.0
    y_max: float = 1.0

    def __post_init__(self):
        if self.nx < 3 or self.ny < 3:
            raise ValueError(f"need at least 3x3 cells, got {self.nx}x{self.ny}")
        if not (self.x_max > self.x_min and self.y_max > self.y_min):
            raise ValueError("domain bounds are empty")

    @property
    def dx(self) -> float:
        return (self.x_max - self.x_min) / self.nx

    @property
    def dy(self) -> float:
        return (self.y_max - self.y_min) / self.ny

    def x_centers(self) -> np.ndarray:
        return self.x_min + (np.arange(self.nx) + 0.5) * self.dx

    def y_centers(self) -> np.ndarray:
        return self.y_min + (np.arange(self.ny) + 0.5) * self.dy

    def x_interfaces(self) -> np.ndarray:
        return self.x_min + (np.arange(self.nx) + 1.0) * self.dx

    def y_interfaces(self) -> np.ndarray:
        return self.y_min + (np.arange(self.ny) + 1.0) * self.dy


class _FlatState:
    """What the states share: one ``data`` buffer, which the solver steps
    in place (``timestep.step``); the field names are views of it.

    The constructor wraps the array it is given, never a copy.  It checks
    the shape against the subclass's ``layout``, and that the array is
    C-contiguous: the harness's right-hand sides write into ``out``
    buffers made like the state, and those must be C-contiguous.  Any
    dtype passes (the CSV writer takes float32 states as well)."""

    __slots__ = ("data",)

    def __init__(self, data: np.ndarray):
        if not isinstance(data, np.ndarray):
            got = type(data).__name__
        elif not self._fits(data.shape):
            got = data.shape
        elif not data.flags.c_contiguous:
            got = f"{data.shape} not in C order"
        else:
            self.data = data
            return
        raise ValueError(f"{type(self).__name__} needs a C-contiguous {self.layout}, got {got}")

    def all_finite(self) -> bool:
        return bool(np.all(np.isfinite(self.data)))


class State1D(_FlatState):
    """Cell moments plus interface values, as views of one C-contiguous
    (K, N[, m]) buffer: rows 0..K-2 the moments, row K-1 the points."""

    __slots__ = ()
    layout = "(K, N[, m]) array with K >= 2"
    _fits = staticmethod(lambda shape: len(shape) in (2, 3) and shape[0] >= 2)

    @property
    def k(self) -> int:
        return self.data.shape[0]

    @property
    def points(self) -> np.ndarray:
        return self.data[-1]

    @property
    def moments(self) -> np.ndarray:
        return self.data[:-1].swapaxes(0, 1)


class State2D(_FlatState):
    """Averages plus the shared edge-midpoint and node values, as views of
    one C-contiguous (4, Nx, Ny) buffer in that field order."""

    __slots__ = ()
    layout = "(4, Nx, Ny) array"
    _fits = staticmethod(lambda shape: len(shape) == 3 and shape[0] == 4)

    @property
    def averages(self) -> np.ndarray:
        return self.data[0]

    @property
    def edge_x(self) -> np.ndarray:
        return self.data[1]

    @property
    def edge_y(self) -> np.ndarray:
        return self.data[2]

    @property
    def nodes(self) -> np.ndarray:
        return self.data[3]


@lru_cache(maxsize=None)
def _gauss_basis(dim: int, k: int, n: int) -> np.ndarray:
    """(k+1, n) in 1-d, (9, n, n) in 2-d: the basis of the degree-k element
    of dimension ``dim``, in dof order, at the n-point Gauss nodes of each
    axis.  Each basis function's coefficients are rounded to float once
    and evaluated by ``Poly.__call__`` (Horner's rule) on the tensor grid
    of nodes, all points at once."""
    basis = build_element(k).basis() if dim == 1 else build_element_2d().basis_ordered()
    nodes = np.ix_(*[gauss_rule(n).nodes_array] * dim)
    return np.array([Poly(b.float_coeffs)(*nodes) for b in basis])


def _dof_gather_1d(state: State1D, block: slice = slice(None)) -> np.ndarray:
    """(K+1, cells[, m]): the dofs of each cell of ``block`` (a slice of the
    cells, all of them by default) in the element1d dof order, the left
    neighbour's interface value first (cell 0's from cell N-1)."""
    data = state.data
    i, j, _ = block.indices(data.shape[1])
    dofs = np.empty((len(data) + 1, j - i) + data.shape[2:])
    dofs[1:] = data[:, i:j]
    dofs[0, 1:], dofs[0, 0] = data[-1, i:j - 1], data[-1, i - 1]
    return dofs


def _dof_source_2d(r, s):
    """(field, cell offset) of the stored value that is dof (r, s) of a cell.

    Fields are ordered averages, edge_x, edge_y, nodes, so dof (r, s)
    lives in field |r| + 2|s|; a cell stores its right edge, top edge and
    top-right node, so a dof on its left or bottom side is stored by the
    neighbour at (min(r, 0), min(s, 0)).
    """
    return abs(r) + 2 * abs(s), (min(r, 0), min(s, 0))


def _shifted_copies(nx, ny, i, t, columns):
    """(destination, source) index pairs that fill a (#columns, t, ny)
    buffer with grid rows i .. i+t-1 of each column (field, (ox, oy)) of
    a (fields, nx, ny) stack, shifted periodically: entry (j, r, c) is
    the field's row i + r + ox, column c + oy (mod nx, ny).  The copies
    do the wrap, so nothing is padded.
    """
    copies = []
    for j, (f, (ox, oy)) in enumerate(columns):
        r, c = (i + ox) % nx, oy % ny
        h = min(t, nx - r)  # rows before the wrap
        for dr, sr in ((slice(0, h), slice(r, r + h)), (slice(h, t), slice(0, t - h))):
            for dc, sc in ((slice(0, ny - c), slice(c, ny)), (slice(ny - c, ny), slice(0, c))):
                if dr.start < dr.stop and dc.start < dc.stop:
                    copies.append(((j, dr, dc), (f, sr, sc)))
    return copies


def _dof_gather_2d(state: State2D, block: slice = slice(None)) -> np.ndarray:
    """(9, rows, ny): the nine dofs of each cell in the grid rows of
    ``block`` (a slice of the rows, all of them by default) in the
    element2d dof order, each the field that ``_dof_source_2d`` names,
    shifted by its offset."""
    data = state.data
    _, nx, ny = data.shape
    i, j, _ = block.indices(nx)
    dofs = np.empty((len(DOF_IDS), j - i, ny))
    for dest, src in _shifted_copies(nx, ny, i, j - i, [_dof_source_2d(*d) for d in DOF_IDS]):
        dofs[dest] = data[src]
    return dofs


class _Layout(NamedTuple):
    """One dimension's entry of the layout table (see the module docstring).

    ``degree`` is the element degree where the dimension fixes it, and a
    block of cells is a multiple of ``block_cells``.  ``integrate(values,
    weights)`` sums values at (cells..., Gauss per axis...[, m]) against
    one weight vector per axis; ``gather(state, block)`` stacks the dofs
    of each cell of a block (a slice of the first axis) in the element's
    dof order, and ``at_gauss(dofs, n)`` is the reconstruction of each
    cell of such a stack at its n-point Gauss nodes, in that layout, as
    a C-contiguous array: the norms subtract the exact values from it in
    place, and the memory order of what ``integrate`` sums sets BLAS's
    summation order.  Their summation orders differ by dimension and are
    part of the output: a run's CSV bytes follow the projection's last
    bits.
    """

    state: type
    degree: int | None
    block_cells: int
    integrals: Callable
    points: tuple
    integrate: Callable
    gather: Callable
    at_gauss: Callable


_LAYOUTS = {
    1: _Layout(
        State1D, None, 64, lambda k: [(j, (j,)) for j in range(k - 1)], ((-1, (1,)),),
        lambda vals, ws: np.tensordot(vals, ws[0], axes=([1], [0])),
        _dof_gather_1d,
        lambda dofs, n: np.ascontiguousarray(np.moveaxis(np.tensordot(
            _gauss_basis(1, len(dofs) - 1, n), dofs, axes=([0], [0])), 0, 1))),
    # cell-major products: Gauss-major ones were 3x slower at 160^2
    2: _Layout(
        State2D, 2, 1, lambda k: [(0, (0, 0))], ((1, (1, 0)), (2, (0, 1)), (3, (1, 1))),
        lambda vals, ws: np.einsum("ijab,a,b->ij", vals, *ws),
        _dof_gather_2d,
        lambda dofs, n: np.einsum("sij,sab->ijab", dofs, _gauss_basis(2, 2, n))),
}


def _axes(grid):
    """(cell centres, stored interfaces, spacing) of each axis of the grid."""
    if isinstance(grid, Grid1D):
        return ((grid.centers(), grid.interfaces(), grid.dx),)
    if isinstance(grid, Grid2D):
        return ((grid.x_centers(), grid.x_interfaces(), grid.dx),
                (grid.y_centers(), grid.y_interfaces(), grid.dy))
    raise TypeError(f"unsupported grid type {type(grid)!r}")


def _check_state(state, axes):
    """The layout of a grid of these ``axes`` (see ``_axes``), once
    ``state`` is checked to be the kind of state it holds and to have the
    grid's cells: a ValueError if not."""
    layout, cells = _LAYOUTS[len(axes)], tuple(len(centres) for centres, _, _ in axes)
    if not isinstance(state, layout.state) or state.data.shape[1:1 + len(cells)] != cells:
        raise ValueError(f"state size does not match grid: a {type(state).__name__} of shape "
                         f"{state.data.shape} on {cells} cells")
    return layout


def _blocks(layout, axes, n):
    """Slices of the first axis's cells whose values at n Gauss points per
    axis take at most BLOCK_BYTES per component, in multiples of the
    layout's ``block_cells`` (at least one such multiple)."""
    cells = [len(c) for c, _, _ in axes]
    per_row = n ** len(axes) * math.prod(cells[1:]) * 8
    size = max(1, BLOCK_BYTES // (per_row * layout.block_cells)) * layout.block_cells
    return [slice(i, i + size) for i in range(0, cells[0], size)]


def _gauss_coords(axes, xi, block):
    """Every Gauss point at nodes ``xi`` of the cells in ``block`` (a slice of
    the first axis), one coordinate array per axis."""
    centres = [c for c, _, _ in axes]
    mesh = np.ix_(centres[0][block], *centres[1:], *[xi] * len(axes))
    return [mesh[a] + mesh[len(axes) + a] * h for a, (_, _, h) in enumerate(axes)]


def project_initial(grid, fn, element: Element1D | None = None):
    """Project pointwise initial data onto the dof set.

    Point dofs are sampled; averages and moments are integrated with a
    Gauss rule fine enough that smooth data is represented to far below
    the scheme's accuracy, block by block (see the module docstring).
    ``fn`` takes one coordinate array per axis and returns values of
    their broadcast shape or a scalar, with a trailing component axis
    for systems.  1-d needs the element.  Non-finite samples raise
    ValueError; overflow while sampling is not warned about.
    """
    axes = _axes(grid)
    layout = _LAYOUTS[len(axes)]
    k = layout.degree or getattr(element, "k", None)
    if k is None:
        raise ValueError("1-d projection needs the element (its degree)")
    rule = gauss_rule(min(16, k + _PROJECT_RULE_MARGIN))
    xi, w = rule.nodes_array, rule.weights_array
    integrals = [(row, [w * Poly(moment_weight(j).poly.float_coeffs)(xi) for j in moments])
                 for row, moments in layout.integrals(k)]
    cells, data = tuple(len(c) for c, _, _ in axes), None
    with np.errstate(over="ignore", invalid="ignore"):
        for block in _blocks(layout, axes, len(xi)):
            coords = _gauss_coords(axes, xi, block)
            vals = np.asarray(fn(*coords), dtype=float)
            comps = vals.shape[2 * len(axes):]
            if data is None:
                data = np.empty((len(integrals) + len(layout.points),) + cells + comps)
            vals = np.broadcast_to(vals, np.broadcast_shapes(*(c.shape for c in coords)) + comps)
            for row, weights in integrals:
                for c in np.ndindex(comps):  # per component: bit for bit as each one alone
                    data[(row, block) + c] = layout.integrate(vals[(...,) + c], weights)
        for row, places in layout.points:
            data[row] = fn(*np.ix_(*(axes[a][p] for a, p in enumerate(places))))
    state = layout.state(data)
    if not state.all_finite():
        raise ValueError("initial data produced non-finite samples")
    return state


def total_mass(state, grid):
    """Sum of the cell averages times the cell volume (per component for
    systems); ValueError for a state that does not fit the grid."""
    axes = _axes(grid)
    _check_state(state, axes)
    mass = np.sum(state.data[0], axis=tuple(range(len(axes))))
    for _, _, h in axes:
        mass = mass * h
    return mass


def error_norms(state, grid, element, exact):
    """Cellwise (L1, L2, Linf) norms of the reconstruction error.

    ``exact`` takes coordinates as the ``fn`` of ``project_initial``
    does and is evaluated at Gauss points, block by block as projection
    samples; the max norm also samples the stored point values.  The
    per-cell integrals of every block fill one array per norm, summed
    once, so the norms do not depend on the blocks.
    """
    axes = _axes(grid)
    layout = _check_state(state, axes)
    rule = gauss_rule((layout.degree or state.k) + _NORM_RULE_MARGIN)
    xi, weights = rule.nodes_array, [rule.weights_array] * len(axes)
    l1, l2 = np.empty(state.data.shape[1:]), np.empty(state.data.shape[1:])
    peaks = []
    for block in _blocks(layout, axes, len(xi)):
        err = layout.at_gauss(layout.gather(state, block), len(xi))
        err -= exact(*_gauss_coords(axes, xi, block))
        np.abs(err, out=err)
        peaks.append(err.max())
        l1[block] = layout.integrate(err, weights)
        l2[block] = layout.integrate(np.square(err, out=err), weights)
    volume = math.prod(h for _, _, h in axes)
    linf = float(max(np.max(peaks), *(
        np.abs(state.data[row] - exact(*np.ix_(*(axes[a][p] for a, p in enumerate(places)))))
        .max() for row, places in layout.points)))
    return (float(np.sum(l1)) * volume, float(np.sqrt(np.sum(l2) * volume)), linf)


def write_state_csv(state, grid, path):
    """Dump all dofs as CSV with a deterministic row order.

    The first line is the header, ``x,dof_class,value`` in 1-d and
    ``x,y,dof_class,value`` in 2-d.  Every line ends in ``\\r\\n``, no
    field is quoted, and coordinates and values are written as Python's
    ``repr`` of their float64 value, the shortest string that reads back
    to the same float (a float32 state writes its exact float64 values).

    1-d rows: the moments cell by cell (``moment0``, ``moment1``, ...),
    then the interface values (``point``); a system writes one row per
    component, ``moment{k}[c]`` and ``point[c]``, components innermost.
    x is the cell center of a moment and the interface of a point.
    2-d rows: the ``average``, ``edge_x``, ``edge_y`` and ``node``
    blocks, each row-major (x index outer), at the cell center, right
    edge midpoint, top edge midpoint and top-right corner.

    The text comes from ``_floatrepr.repr_bytes``, a numpy formatter
    equal to ``repr``, as NUL-padded ASCII rows, and no Python string is
    made per value.  The lines go out in sections (the 1-d moments and
    points; each 2-d field, one x per grid row) and each section in
    blocks of whole x values, at most ``_CSV_BLOCK_LINES`` lines unless
    one x heads more.  A block is one (lines, width) uint8 matrix of four
    parts per line, the x bytes, a label shared by the file (in 2-d the
    y bytes and the field name), the value bytes, which ``repr_bytes``
    writes into the matrix itself, and ``\\r\\n``; it is written without
    its NULs.  The 1-d x bytes are kept for the last grid written (one
    grid at most, see ``_csv_x_1d``), so the snapshots of a run format
    their x values once; the values are formatted anew in every file.

    A state of the other dimension, or of other cells than the grid's,
    raises ValueError before the file is opened, as in ``total_mass`` and
    ``error_norms``.
    """
    if _check_state(state, _axes(grid)) is _LAYOUTS[1]:
        comps = [""] if state.data.ndim == 2 else [f"[{c}]" for c in range(state.data.shape[2])]
        centers, interfaces = _csv_x_1d(grid)
        header = b"x,dof_class,value\r\n"
        sections = [
            (centers, _ascii_rows([f",moment{k}{c}," for k in range(state.k - 1) for c in comps]),
             state.moments),
            (interfaces, _ascii_rows([f",point{c}," for c in comps]), state.points),
        ]
    else:
        # only 2 (nx + ny) coordinates, so their bytes are not cached
        xc, yc, xf, yf = (repr_bytes(coords) for coords in (
            grid.x_centers(), grid.y_centers(), grid.x_interfaces(), grid.y_interfaces()))
        header = b"x,y,dof_class,value\r\n"
        sections = [
            (xs, np.hstack([np.full((len(ys), 1), ord(","), np.uint8), ys,
                            np.repeat(_ascii_rows([f",{name},"]), len(ys), axis=0)]), field)
            for name, field, xs, ys in (
                ("average", state.averages, xc, yc),
                ("edge_x", state.edge_x, xf, yc),
                ("edge_y", state.edge_y, xc, yf),
                ("node", state.nodes, xf, yf),
            )
        ]
    with open(path, "wb") as fh:
        fh.write(header)
        for xs, labels, values in sections:
            # the columns where the label and the value of a line start
            lab, val = xs.shape[1], xs.shape[1] + labels.shape[1]
            step = max(1, _CSV_BLOCK_LINES // len(labels))
            for i in range(0, len(xs), step):
                x = xs[i:i + step]
                lines = np.empty((len(x) * len(labels), val + WIDTH + 2), np.uint8)
                per_x = lines.reshape(len(x), len(labels), -1)
                per_x[:, :, :lab] = x[:, None]
                per_x[:, :, lab:val] = labels
                # the values are formatted into the lines themselves
                repr_bytes(values[i:i + step], lines[:, val:-2])
                lines[:, -2:] = _CRLF
                fh.write(lines.tobytes().translate(None, b"\0"))


_CRLF = np.frombuffer(b"\r\n", np.uint8)


def _ascii_rows(texts):
    """(len(texts), longest) uint8: the ASCII of each text, NUL-padded."""
    return np.array([t.encode() for t in texts], bytes).view(np.uint8).reshape(len(texts), -1)


# (grid, center bytes, interface bytes) of the last 1-d grid written
_csv_x_last = None


def _csv_x_1d(grid: Grid1D):
    """The ``repr_bytes`` rows of the grid's cell centers and interfaces,
    without the columns that are NUL in every row.

    The write drops every NUL, so a column of NULs would only cost each
    line its bytes (5 of a K=4 line's 67 at n=10240).  Only the last
    grid's rows are kept (at most 2 n WIDTH bytes, 0.47 MB at n=10240),
    and the grid is matched by identity, not equality: equal grids need
    not give equal coordinates, e.g. ``Grid1D(3, 0.5, 1.0)``
    and the same grid with float32 bounds.  The rows depend on the grid
    alone, so one cache shared by every caller in the process is safe.
    """
    global _csv_x_last
    cached = _csv_x_last
    if cached is None or cached[0] is not grid:
        rows = (repr_bytes(x) for x in (grid.centers(), grid.interfaces()))
        cached = _csv_x_last = (grid, *(r.compress(r.any(axis=0), axis=1) for r in rows))
    return cached[1], cached[2]
