"""Periodic Cartesian meshes and degree-of-freedom storage.

Shared interface values are stored exactly once.  In 1-d, ``points[i]``
is the value at the interface to the right of cell i and
``moments[i, k]`` the k-th moment of cell i (k = 0 is the average).
In 2-d, ``edge_x[i, j]`` holds the midpoint value of the right edge of
cell (i, j), ``edge_y[i, j]`` of its top edge and ``nodes[i, j]`` its
top-right corner.  All index arithmetic is modulo the grid size.

A state keeps all of its dofs in one contiguous float64 array,
``data``; the named fields are views into it, and the ODE arithmetic
of the time integrators acts on ``data`` alone.

- 1-d: ``data`` has shape (N, K) for scalars, (N, K, m) for systems.
  Columns 0..K-2 are the moments, column K-1 the interface value, so
  ``moments = data[:, :-1]`` and ``points = data[:, -1]``.
- 2-d: ``data`` has shape (4, Nx, Ny), ordered averages, edge_x,
  edge_y, nodes.

Scalar problems have plain (N,) and (Nx, Ny) fields; constant-
coefficient linear systems append a trailing component axis.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from afpg.element1d import Element1D, build_element
from afpg.element2d import build_element_2d
from afpg.poly import gauss_rule

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
# 1-d cells per string handed to one write: large enough that the cost
# per call vanishes, small enough that no file is held in memory whole
# (K=4, n=10240: 1024 cells raise peak RSS by 1 MB, 256 by 0.3 MB, at
# the same speed).
_CSV_BLOCK_CELLS = 256


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
    in place (``timestep.step``); the field names are views of it."""

    __slots__ = ("data",)

    @classmethod
    def _of(cls, data):
        """The state whose buffer is ``data`` itself, not a copy."""
        state = object.__new__(cls)
        state.data = data
        return state

    def all_finite(self) -> bool:
        return bool(np.all(np.isfinite(self.data)))


class State1D(_FlatState):
    """Cell moments plus interface values, as views of one (N, K[, m]) buffer."""

    __slots__ = ()

    def __init__(self, k: int, points, moments):
        points = np.asarray(points, dtype=float)
        moments = np.asarray(moments, dtype=float)
        if moments.ndim < 2 or moments.shape[1] != k - 1:
            raise ValueError(f"degree {k} needs {k - 1} moments per cell")
        if points.shape != moments.shape[:1] + moments.shape[2:]:
            raise ValueError("points and moments disagree in shape")
        self.data = np.empty((moments.shape[0], k) + moments.shape[2:])
        self.data[:, :-1] = moments
        self.data[:, -1] = points

    @property
    def k(self) -> int:
        return self.data.shape[1]

    @property
    def points(self) -> np.ndarray:
        return self.data[:, -1]

    @property
    def moments(self) -> np.ndarray:
        return self.data[:, :-1]


class State2D(_FlatState):
    """Averages plus the shared edge-midpoint and node values, as views of
    one (4, Nx, Ny) buffer."""

    __slots__ = ()

    def __init__(self, averages, edge_x, edge_y, nodes):
        fields = [np.asarray(f, dtype=float) for f in (averages, edge_x, edge_y, nodes)]
        if fields[0].ndim != 2 or any(f.shape != fields[0].shape for f in fields):
            raise ValueError("the four 2-d fields must share one (nx, ny) shape")
        self.data = np.stack(fields)

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


def project_initial(grid, fn, element: Element1D | None = None):
    """Project pointwise initial data onto the dof set.

    Point dofs are sampled; averages and moments are integrated with a
    Gauss rule fine enough that smooth data is represented to far below
    the scheme's accuracy.
    """
    if isinstance(grid, Grid1D):
        if element is None:
            raise ValueError("1-d projection needs the element (moment weights)")
        k = element.k
        rule = gauss_rule(min(16, k + _PROJECT_RULE_MARGIN))
        xi = rule.nodes_array
        w = rule.weights_array
        points = np.asarray(fn(grid.interfaces()), dtype=float)
        if points.ndim == 0:
            points = np.full(grid.n, float(points))
        xg = grid.centers()[:, None] + xi[None, :] * grid.dx
        vals = np.asarray(fn(xg), dtype=float)
        if vals.ndim == 0:
            vals = np.full(xg.shape, float(vals))
        mom_shape = (grid.n, k - 1) + vals.shape[2:]
        moments = np.empty(mom_shape)
        for mw in element.moment_weights:
            weights = w * np.polynomial.polynomial.polyval(xi, mw.poly.float_coeffs)
            moments[:, mw.k] = np.tensordot(vals, weights, axes=([1], [0]))
        state = State1D(k, points, moments)
    elif isinstance(grid, Grid2D):
        rule = gauss_rule(min(16, 2 + _PROJECT_RULE_MARGIN))
        xi = rule.nodes_array
        w = rule.weights_array
        nx, ny = grid.nx, grid.ny
        xc, yc = grid.x_centers(), grid.y_centers()
        xf, yf = grid.x_interfaces(), grid.y_interfaces()
        xg = xc[:, None] + xi[None, :] * grid.dx  # (nx, g)
        yg = yc[:, None] + xi[None, :] * grid.dy  # (ny, g)
        g = len(xi)

        def sample(xs, ys, shape):
            return np.broadcast_to(np.asarray(fn(xs, ys), dtype=float), shape)

        vals = sample(xg[:, None, :, None], yg[None, :, None, :], (nx, ny, g, g))
        averages = np.einsum("ijab,a,b->ij", vals, w, w)
        state = State2D(
            averages,
            sample(xf[:, None], yc[None, :], (nx, ny)),
            sample(xc[:, None], yf[None, :], (nx, ny)),
            sample(xf[:, None], yf[None, :], (nx, ny)),
        )
    else:
        raise TypeError(f"unsupported grid type {type(grid)!r}")
    if not state.all_finite():
        raise ValueError("initial data produced non-finite samples")
    return state


def total_mass(state, grid):
    """Sum of the cell averages times the cell volume."""
    if isinstance(grid, Grid1D):
        return np.sum(state.moments[:, 0], axis=0) * grid.dx
    return float(np.sum(state.averages)) * grid.dx * grid.dy


@lru_cache(maxsize=None)
def _gauss_basis_1d(k: int, n: int) -> np.ndarray:
    """(K+1, n): the degree-K basis, in dof order, at the n-point Gauss nodes."""
    xi = gauss_rule(n).nodes_array
    return np.array(
        [np.polynomial.polynomial.polyval(xi, b.float_coeffs) for b in build_element(k).basis()]
    )


@lru_cache(maxsize=None)
def _gauss_basis_2d(n: int) -> np.ndarray:
    """(9, n*n): the 2-d basis, in dof order, at the n x n Gauss points
    (first coordinate major)."""
    xi = gauss_rule(n).nodes_array
    pts = [(a, b) for a in xi for b in xi]
    return np.array(
        [[float(p(a, b)) for (a, b) in pts] for p in build_element_2d().basis_ordered()]
    )


def _dof_gather_1d(state: State1D) -> np.ndarray:
    """(K+1, N[, m]): each cell's dofs in the element1d dof order, the left
    neighbour's interface value first."""
    data = state.data
    dofs = np.empty((data.shape[1] + 1, data.shape[0], *data.shape[2:]))
    dofs[1:] = np.moveaxis(data, 1, 0)
    dofs[0, 1:], dofs[0, 0] = dofs[-1, :-1], dofs[-1, -1]
    return dofs


def _values_at_gauss(state: State1D, n: int) -> np.ndarray:
    """(N, n[, m]): each cell's reconstruction at the n-point Gauss nodes."""
    values = np.tensordot(_gauss_basis_1d(state.k, n).T, _dof_gather_1d(state), axes=1)
    return np.moveaxis(values, 0, 1)


def error_norms(state, grid, element, exact):
    """Cellwise (L1, L2, Linf) norms of the reconstruction error.

    ``exact`` is evaluated at Gauss points; the max norm also samples
    the stored point values.
    """
    if isinstance(grid, Grid1D):
        k = state.k
        rule = gauss_rule(k + _NORM_RULE_MARGIN)
        xi, w = rule.nodes_array, rule.weights_array
        qg = _values_at_gauss(state, len(xi))
        xg = grid.centers()[:, None] + xi[None, :] * grid.dx
        abs_err = np.abs(qg - np.asarray(exact(xg), dtype=float))
        l1 = float(np.sum(np.tensordot(abs_err, w, axes=([1], [0])))) * grid.dx
        l2 = float(np.sqrt(np.sum(np.tensordot(abs_err**2, w, axes=([1], [0]))) * grid.dx))
        point_err = np.abs(state.points - np.asarray(exact(grid.interfaces()), dtype=float))
        linf = float(max(abs_err.max(), point_err.max()))
        return (l1, l2, linf)

    if isinstance(grid, Grid2D):
        rule = gauss_rule(2 + _NORM_RULE_MARGIN)
        xi, w = rule.nodes_array, rule.weights_array
        pts = [(a, b) for a in xi for b in xi]
        w2 = np.array([wa * wb for wa in w for wb in w])
        dofs = _dof_gather_2d(state)  # (9, nx, ny)
        qg = np.einsum("sij,sg->ijg", dofs, _gauss_basis_2d(len(xi)))
        xc, yc = grid.x_centers(), grid.y_centers()
        xg = xc[:, None, None] + np.array([a for a, _ in pts])[None, None, :] * grid.dx
        yg = yc[None, :, None] + np.array([b for _, b in pts])[None, None, :] * grid.dy
        err = np.abs(qg - np.asarray(exact(xg, yg), dtype=float))
        cell_area = grid.dx * grid.dy
        l1 = float(np.sum(err @ w2)) * cell_area
        l2 = float(np.sqrt(np.sum((err**2) @ w2) * cell_area))
        xf, yf = grid.x_interfaces(), grid.y_interfaces()
        dof_errs = [
            np.abs(state.edge_x - np.asarray(exact(xf[:, None], yc[None, :]), dtype=float)),
            np.abs(state.edge_y - np.asarray(exact(xc[:, None], yf[None, :]), dtype=float)),
            np.abs(state.nodes - np.asarray(exact(xf[:, None], yf[None, :]), dtype=float)),
        ]
        linf = float(max(err.max(), *(e.max() for e in dof_errs)))
        return (l1, l2, linf)

    raise TypeError(f"unsupported grid type {type(grid)!r}")


def _dof_gather_2d(state: State2D) -> np.ndarray:
    """Stack each cell's nine dofs, in the element2d dof order."""
    a, ex, ey, nd = state.averages, state.edge_x, state.edge_y, state.nodes
    return np.stack(
        [
            a,
            np.roll(ex, 1, axis=0),
            ex,
            np.roll(ey, 1, axis=1),
            ey,
            np.roll(np.roll(nd, 1, axis=0), 1, axis=1),
            np.roll(nd, 1, axis=1),
            np.roll(nd, 1, axis=0),
            nd,
        ]
    )


def write_state_csv(state, grid, path):
    """Dump all dofs as CSV with a deterministic row order.

    The first line is the header, ``x,dof_class,value`` in 1-d and
    ``x,y,dof_class,value`` in 2-d.  Every line ends in ``\\r\\n``, no
    field is quoted, and coordinates and values are written with Python
    ``repr``, the shortest string that reads back to the same float.

    1-d rows: the moments cell by cell (``moment0``, ``moment1``, ...),
    then the interface values (``point``); a system writes one row per
    component, ``moment{k}[c]`` and ``point[c]``, components innermost.
    x is the cell center of a moment and the interface of a point.
    2-d rows: the ``average``, ``edge_x``, ``edge_y`` and ``node``
    blocks, each row-major (x index outer), at the cell center, right
    edge midpoint, top edge midpoint and top-right corner.

    Each line is joined from four strings: the coordinate text, a label
    shared by the file, the value's ``repr`` and the line end.  The 1-d
    coordinate strings are kept for the last grid written (one grid at
    most, see ``_csv_x_1d``), so the snapshots of a run format their
    x values once; the values are formatted anew in every file.
    """
    if isinstance(grid, Grid1D):
        fits = state.data.shape[:1] == (grid.n,)
        header, chunks = "x,dof_class,value\r\n", _csv_chunks_1d(state, grid)
    elif isinstance(grid, Grid2D):
        fits = state.data.shape[1:] == (grid.nx, grid.ny)
        header, chunks = "x,y,dof_class,value\r\n", _csv_chunks_2d(state, grid)
    else:
        raise TypeError(f"unsupported grid type {type(grid)!r}")
    if not fits:
        raise ValueError("state size does not match grid")
    with open(path, "w", newline="") as fh:
        fh.write(header)
        for chunk in chunks:
            fh.write(chunk)


def _csv_join(xs, tails, values):
    """The lines ``{x}{tail}{v!r}\\r\\n`` as one string: each string of
    ``xs`` heads len(tails) consecutive lines, which take ``tails`` in
    order, and ``values`` holds one float per line.  One join over a
    flat list of four references per line."""
    parts = ["\r\n"] * (4 * len(values))
    parts[0::4] = [x for x in xs for _ in tails]
    parts[1::4] = tails * len(xs)
    parts[2::4] = map(repr, values)
    return "".join(parts)


# (grid, center strings, interface strings) of the last 1-d grid written
_csv_x_last = None


def _csv_x_1d(grid: Grid1D):
    """The ``repr`` strings of the grid's cell centers and interfaces.

    Only the last grid's strings are kept (1.5 MB at n=10240), and the
    grid is matched by identity, not equality: equal grids need not give
    equal coordinates, e.g. ``Grid1D(3, 0.5, 1.0)`` and the same grid
    with float32 bounds.  The strings depend on the grid alone, so one
    cache shared by every caller in the process is safe.
    """
    global _csv_x_last
    cached = _csv_x_last
    if cached is None or cached[0] is not grid:
        cached = _csv_x_last = (grid, [*map(repr, grid.centers().tolist())],
                                [*map(repr, grid.interfaces().tolist())])
    return cached[1], cached[2]


def _csv_chunks_1d(state: State1D, grid: Grid1D):
    """The 1-d data lines, _CSV_BLOCK_CELLS cells per string, from the
    grid's cached x strings and one ``,label,`` string per dof class."""
    data = state.data
    comps = [""] if data.ndim == 2 else [f"[{c}]" for c in range(data.shape[2])]
    centers, interfaces = _csv_x_1d(grid)
    sections = [
        (centers, [f",moment{k}{c}," for k in range(state.k - 1) for c in comps],
         state.moments),
        (interfaces, [f",point{c}," for c in comps], state.points),
    ]
    for xs, tails, values in sections:
        for i0 in range(0, grid.n, _CSV_BLOCK_CELLS):
            block = slice(i0, i0 + _CSV_BLOCK_CELLS)
            yield _csv_join(xs[block], tails, values[block].reshape(-1).tolist())


def _csv_chunks_2d(state: State2D, grid: Grid2D):
    """The 2-d data lines, one grid row (fixed x index) per string, from
    the row's x string and one ``,{y},{name},`` string per column.  The
    coordinates are only 2 (nx + ny) strings, so they are not cached."""
    xc, yc, xf, yf = (
        [repr(v) for v in coords.tolist()]
        for coords in (grid.x_centers(), grid.y_centers(), grid.x_interfaces(), grid.y_interfaces())
    )
    blocks = [
        ("average", state.averages, xc, yc),
        ("edge_x", state.edge_x, xf, yc),
        ("edge_y", state.edge_y, xc, yf),
        ("node", state.nodes, xf, yf),
    ]
    for name, field, xs, ys in blocks:
        tails = [f",{y},{name}," for y in ys]
        for x, row in zip(xs, field):
            yield _csv_join([x], tails, row.tolist())
