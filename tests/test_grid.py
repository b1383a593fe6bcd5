"""Grid, state storage, projection, norms and CSV export tests."""

import csv
import tracemalloc
from functools import partial

import numpy as np
import pytest

from afpg import grid as grid_module
from afpg._floatrepr import WIDTH
from afpg.config import parse_config
from afpg.element1d import build_element, reconstruct
from afpg.element2d import DOF_IDS, build_element_2d, reconstruct2d
from afpg.grid import (
    Grid1D,
    Grid2D,
    State1D,
    State2D,
    error_norms,
    project_initial,
    total_mass,
    write_state_csv,
)
from afpg.harness import run_simulation
from afpg.models import GaussianIC, Sine2DIC, advection1d, advection2d
from afpg.poly import Poly
from test_semidiscrete import random_state_1d


class TestGrids:
    def test_validation(self):
        with pytest.raises(ValueError):
            Grid1D(2)
        with pytest.raises(ValueError):
            Grid1D(8, 1.0, 0.0)
        with pytest.raises(ValueError):
            Grid2D(2, 8)

    def test_spacing(self):
        g = Grid1D(8, 0.0, 2.0)
        assert g.dx == 0.25
        assert g.interfaces()[-1] == pytest.approx(2.0)
        g2 = Grid2D(4, 5, 0.0, 1.0, -1.0, 1.0)
        assert g2.dx == 0.25
        assert g2.dy == 0.4


class TestProjection:
    def test_constant_1d(self):
        g = Grid1D(6)
        el = build_element(3)
        st = project_initial(g, lambda x: 2.5 + 0.0 * np.asarray(x), el)
        assert np.allclose(st.points, 2.5, atol=1e-15)
        assert np.allclose(st.moments[:, 0], 2.5, atol=1e-14)
        # odd moments of a constant vanish
        assert np.allclose(st.moments[:, 1], 0.0, atol=1e-14)

    def test_sine_average_analytic(self):
        # first-cell average of sin(2 pi x) on [0, 1/8] has a closed form
        g = Grid1D(8)
        el = build_element(2)
        st = project_initial(g, lambda x: np.sin(2 * np.pi * np.asarray(x)), el)
        exact = (1.0 - np.cos(2 * np.pi / 8)) / (2 * np.pi / 8)
        assert st.moments[0, 0] == pytest.approx(exact, rel=1e-12)

    def test_product_average_2d(self):
        # the average of x*y over a cell is the product of the midpoints
        g = Grid2D(4, 4, 0.0, 2.0, 0.0, 1.0)
        st = project_initial(g, lambda x, y: np.asarray(x) * np.asarray(y))
        xc, yc = g.x_centers(), g.y_centers()
        assert np.allclose(st.averages, np.outer(xc, yc), atol=1e-14)

    def test_point_fields_sit_at_their_places(self):
        # dx = 0.4 differs from dy = 0.375, and x + 10 y tells x from y
        g = Grid2D(5, 4, 0.0, 2.0, -1.0, 0.5)
        f = lambda x, y: np.asarray(x) + 10.0 * np.asarray(y)
        st = project_initial(g, f)
        xc, yc = g.x_centers()[:, None], g.y_centers()[None, :]
        xf, yf = g.x_interfaces()[:, None], g.y_interfaces()[None, :]
        assert np.array_equal(st.edge_x, f(xf, yc))
        assert np.array_equal(st.edge_y, f(xc, yf))
        assert np.array_equal(st.nodes, f(xf, yf))

    @pytest.mark.parametrize("k", [2, 3, 4, 6])
    def test_system_projects_componentwise(self, k):
        g = Grid1D(9, -0.5, 1.5)
        el = build_element(k)
        parts = (lambda x: np.sin(3.0 * np.asarray(x)), lambda x: np.exp(np.asarray(x)))
        st = project_initial(g, lambda x: np.stack([p(x) for p in parts], axis=-1), el)
        for c, part in enumerate(parts):
            assert st.data[..., c].tobytes() == project_initial(g, part, el).data.tobytes()

    def test_nonfinite_rejected(self):
        g = Grid1D(4)
        el = build_element(2)
        with np.errstate(divide="ignore"), pytest.raises(ValueError):
            project_initial(g, lambda x: 1.0 / (np.asarray(x) - 0.25), el)

    def test_periodic_index_roundtrip(self):
        g = Grid1D(5)
        el = build_element(2)
        st = project_initial(g, lambda x: np.sin(2 * np.pi * np.asarray(x)), el)
        for i in range(g.n):
            assert st.points[(i + g.n) % g.n] == st.points[i]

    def test_shared_dof_continuity(self):
        # adjacent reconstructions agree at their shared interface
        g = Grid1D(7)
        el = build_element(3)
        st = project_initial(g, lambda x: np.exp(np.sin(2 * np.pi * np.asarray(x))), el)
        for i in range(g.n):
            dofs_i = [st.points[i - 1], *st.moments[i], st.points[i]]
            dofs_n = [st.points[i], *st.moments[(i + 1) % g.n], st.points[(i + 1) % g.n]]
            left = Poly(reconstruct(el, [float(v) for v in dofs_i]).float_coeffs)(0.5)
            right = Poly(reconstruct(el, [float(v) for v in dofs_n]).float_coeffs)(-0.5)
            assert abs(left - right) <= 1e-14


class TestTotalMass:
    def test_constant(self):
        g = Grid1D(10)
        el = build_element(2)
        st = project_initial(g, lambda x: 3.0 + 0.0 * np.asarray(x), el)
        assert total_mass(st, g) == pytest.approx(3.0, abs=1e-14)

    def test_direct_sum(self):
        g = Grid1D(6)
        rng = np.random.default_rng(0)
        st = State1D(rng.standard_normal((2, 6)))
        assert total_mass(st, g) == pytest.approx(np.sum(st.moments[:, 0]) * g.dx)

    def test_2d(self):
        g = Grid2D(3, 4, 0.0, 1.0, 0.0, 2.0)
        st = project_initial(g, lambda x, y: 1.5 + 0.0 * np.asarray(x))
        assert total_mass(st, g) == pytest.approx(3.0, abs=1e-13)


class TestErrorNorms:
    def test_zero_against_own_reconstruction(self):
        g = Grid1D(6)
        el = build_element(2)
        fn = lambda x: np.sin(2 * np.pi * np.asarray(x))
        st = project_initial(g, fn, el)

        # evaluate the numerical reconstruction itself as the reference
        def own(x):
            x = np.asarray(x, dtype=float)
            i = np.clip(((x - g.x_min) // g.dx).astype(int), 0, g.n - 1)
            vals = np.empty_like(x)
            flat_x, flat_i = x.ravel(), i.ravel()
            out = vals.ravel()
            for idx in range(flat_x.size):
                ci = flat_i[idx]
                dofs = [st.points[ci - 1], st.moments[ci, 0], st.points[ci]]
                xi = (flat_x[idx] - (g.x_min + (ci + 0.5) * g.dx)) / g.dx
                out[idx] = Poly(reconstruct(el, [float(v) for v in dofs]).float_coeffs)(xi)
            return vals

        l1, l2, linf = error_norms(st, g, el, own)
        assert l1 <= 1e-14 and l2 <= 1e-14 and linf <= 1e-14

    def test_constant_offset(self):
        # constant data is represented exactly, so a shifted reference
        # reports exactly eps * |domain| in L1 and eps in Linf
        g = Grid1D(5, 0.0, 2.0)
        el = build_element(2)
        fn = lambda x: 0.7 + 0.0 * np.asarray(x)
        st = project_initial(g, fn, el)
        eps = 1e-3
        l1, _, linf = error_norms(st, g, el, lambda x: fn(x) + eps)
        assert l1 == pytest.approx(eps * 2.0, rel=1e-10)
        assert linf == pytest.approx(eps, rel=1e-10)

    def test_system_constant_offset(self):
        # per component as in test_constant_offset; L1 sums the components
        g = Grid1D(6, -1.0, 1.5)
        el = build_element(3)
        fn = lambda x: np.zeros(np.shape(x) + (2,)) + [0.7, -0.2]
        st = project_initial(g, fn, el)
        l1, _, linf = error_norms(st, g, el, lambda x: fn(x) + [1e-3, 2e-3])
        assert l1 == pytest.approx(3e-3 * 2.5, rel=1e-10)
        assert linf == pytest.approx(2e-3, rel=1e-10)

    def test_2d_zero_against_own_reconstruction(self):
        g = Grid2D(5, 3, 0.0, 1.0, -0.5, 1.0)
        el = build_element_2d()
        st = project_initial(
            g, lambda x, y: np.sin(2 * np.pi * np.asarray(x)) * np.cos(np.pi * np.asarray(y)))

        # a cell stores its right edge, top edge and top-right node; a dof on
        # its left or bottom side is stored by that neighbour
        def cell_poly(i, j):
            dofs = {(r, s): float(st.data[abs(r) + 2 * abs(s), (i + min(r, 0)) % g.nx,
                                          (j + min(s, 0)) % g.ny]) for r, s in DOF_IDS}
            return reconstruct2d(el, dofs)

        polys = {(i, j): cell_poly(i, j) for i in range(g.nx) for j in range(g.ny)}

        def own(x, y):
            x, y = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(y, dtype=float))
            vals = np.empty(x.shape)
            for idx in np.ndindex(x.shape):
                i = min(int((x[idx] - g.x_min) // g.dx), g.nx - 1)
                j = min(int((y[idx] - g.y_min) // g.dy), g.ny - 1)
                xi = (x[idx] - (g.x_min + (i + 0.5) * g.dx)) / g.dx
                eta = (y[idx] - (g.y_min + (j + 0.5) * g.dy)) / g.dy
                vals[idx] = polys[i, j](xi, eta)
            return vals

        l1, l2, linf = error_norms(st, g, el, own)
        assert l1 <= 1e-14 and l2 <= 1e-14 and linf <= 1e-14

    def test_2d_constant_offset(self):
        g = Grid2D(4, 4)
        el = build_element_2d()
        fn = lambda x, y: 0.3 + 0.0 * (np.asarray(x) + np.asarray(y))
        st = project_initial(g, fn)
        eps = 5e-4
        l1, _, linf = error_norms(st, g, el, lambda x, y: fn(x, y) + eps)
        assert l1 == pytest.approx(eps, rel=1e-10)
        assert linf == pytest.approx(eps, rel=1e-10)


def _hex_projection_and_norms(g, fn, exact, element=None):
    st = project_initial(g, fn, element)
    norms = error_norms(st, g, element, exact)
    return [v.hex() for v in st.data.ravel().tolist()], [v.hex() for v in norms]


class TestBlocks:
    """Projection and norms by blocks of cells give the bits of one block."""

    @staticmethod
    def one_block_and_smallest(monkeypatch, g, fn, exact, element=None):
        monkeypatch.setattr(grid_module, "BLOCK_BYTES", 1 << 40)
        whole = _hex_projection_and_norms(g, fn, exact, element)
        monkeypatch.setattr(grid_module, "BLOCK_BYTES", 1)
        axes = grid_module._axes(g)
        layout = grid_module._LAYOUTS[len(axes)]
        assert len(grid_module._blocks(layout, axes, 2)) > 1  # precondition: several blocks
        return whole, _hex_projection_and_norms(g, fn, exact, element)

    @pytest.mark.parametrize("m", [1, 2])
    @pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
    def test_1d_blocks_of_64_cells_bit_identical(self, monkeypatch, k, m):
        # n = 1000 is not a multiple of 64: 15 blocks of 64 cells and one of 40
        g = Grid1D(1000, -0.3, 1.7)
        ic = GaussianIC(0.2, 1.0, 0.6, 0.2)
        fn = ic if m == 1 else (lambda x: np.stack([ic(x), 2.0 * ic(x) - 0.3], axis=-1))
        moved = advection1d(1.0).exact_solution(fn, g)
        whole, blocked = self.one_block_and_smallest(
            monkeypatch, g, fn, lambda x: moved(x, 0.37), build_element(k))
        assert blocked == whole

    def test_2d_one_row_blocks_bit_identical(self, monkeypatch):
        g = Grid2D(37, 91, -0.5, 1.0, 0.2, 1.1)
        ic = Sine2DIC(0.2, 1.1, 1, 2, -0.5, 1.5, 0.2, 0.9)
        moved = advection2d(1.0, -0.7).exact_solution(ic, g)
        whole, blocked = self.one_block_and_smallest(
            monkeypatch, g, ic, lambda x, y: moved(x, y, 0.41))
        assert blocked == whole

    def test_1d_blocks_are_multiples_of_64_cells(self, monkeypatch):
        monkeypatch.setattr(grid_module, "BLOCK_BYTES", 200 * 10 * 8)
        axes = grid_module._axes(Grid1D(1000))
        blocks = grid_module._blocks(grid_module._LAYOUTS[1], axes, 10)
        assert [b.start for b in blocks] == [0, 192, 384, 576, 768, 960]

    @staticmethod
    def warm_peak(call):
        call()
        tracemalloc.start()
        try:
            call()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_2d_projection_memory_is_bounded(self):
        # one 160^2 sample of the 8 x 8 Gauss points took 13 MB per
        # temporary; now the (4, 160, 160) state and a few blocks
        g, ic = Grid2D(160, 160), Sine2DIC(0.1, 1.0)
        peak = self.warm_peak(lambda: project_initial(g, ic))
        assert peak < 4 * 160 * 160 * 8 + 5 * grid_module.BLOCK_BYTES

    def test_2d_norms_memory_is_bounded(self):
        # a few blocks and the (nx, ny) per-cell l1 and l2 arrays: the
        # whole (9, 160, 160) dof gather alone took 1.84 MB
        g, ic = Grid2D(160, 160), Sine2DIC(0.1, 1.0)
        st = project_initial(g, ic)
        moved = advection2d(1.0, 1.0).exact_solution(ic, g)
        peak = self.warm_peak(lambda: error_norms(st, g, None, lambda x, y: moved(x, y, 0.5)))
        assert peak < 2 * 160 * 160 * 8 + 5 * grid_module.BLOCK_BYTES


class TestStateArithmetic:
    def test_finite_check(self):
        st = State1D(np.array([[0.0, 0.0, 0.0], [1.0, np.inf, 0.0]]))
        assert not st.all_finite()


class TestStateBuffer:
    def test_1d_scalar_views(self):
        st = State1D(np.arange(12.0).reshape(3, 4))
        assert st.k == 3
        assert np.array_equal(st.moments, [[0.0, 4.0], [1.0, 5.0], [2.0, 6.0], [3.0, 7.0]])
        assert np.array_equal(st.points, [8.0, 9.0, 10.0, 11.0])
        st.points[1] = -7.0
        st.moments[2, 1] = -9.0
        assert st.data[2, 1] == -7.0 and st.data[1, 2] == -9.0
        assert np.shares_memory(st.points, st.data)

    def test_1d_system_views(self):
        st = State1D(np.stack([np.ones((5, 2)), np.zeros((5, 2))]))
        st.points[3, 1] = 4.0
        assert st.data[1, 3, 1] == 4.0
        assert np.array_equal(st.moments, np.ones((5, 1, 2)))

    def test_2d_views(self):
        st = State2D(np.stack([np.full((3, 4), float(f)) for f in range(4)]))
        st.edge_y[2, 3] = -1.0
        assert st.data[2, 2, 3] == -1.0
        for f, view in enumerate((st.averages, st.edge_x, st.edge_y, st.nodes)):
            assert np.shares_memory(view, st.data)
            assert view[0, 0] == f

    def test_constructor_wraps_the_buffer(self):
        # no copy: the buffer is the state's data, and field writes land in it
        scalar, system, plane = np.zeros((3, 5)), np.zeros((2, 5, 2)), np.zeros((4, 3, 5))
        assert State1D(scalar).data is scalar and State2D(plane).data is plane
        State1D(scalar).points[0] = 1.0
        State1D(system).moments[4, 0, 1] = 2.0
        State2D(plane).nodes[2, 4] = 3.0
        assert scalar[-1, 0] == 1.0 and system[0, 4, 1] == 2.0 and plane[3, 2, 4] == 3.0

    @pytest.mark.parametrize("buf", [
        np.zeros(5),  # no cell axis
        np.zeros((3, 5, 2, 2)),  # two component axes
        np.zeros((1, 5)),  # K = 1: no moment
        np.zeros((3, 5)).tolist(),  # not an array
        np.asfortranarray(np.zeros((3, 5))),  # Fortran order
        np.zeros((3, 2, 5)).transpose(0, 2, 1),  # cell and component axes swapped
        np.zeros((3, 10))[:, ::2],  # every other cell of a wider buffer
    ], ids=["1-axis", "4-axes", "k1", "list", "fortran", "transposed", "strided"])
    def test_1d_constructor_rejects_other_layouts(self, buf):
        with pytest.raises(ValueError, match=r"State1D needs a C-contiguous \(K, N\[, m\]\)"
                                             r" array with K >= 2, got "):
            State1D(buf)

    @pytest.mark.parametrize("buf", [
        np.zeros((4, 5)),  # no y axis
        np.zeros((4, 5, 4, 1)),  # a component axis
        np.zeros((3, 5, 4)),  # a field missing
        np.zeros((4, 5, 4)).tolist(),  # not an array
        np.asfortranarray(np.zeros((4, 5, 4))),  # Fortran order
        np.zeros((4, 4, 5)).transpose(0, 2, 1),  # x and y swapped
    ], ids=["2-axes", "4-axes", "3-fields", "list", "fortran", "transposed"])
    def test_2d_constructor_rejects_other_layouts(self, buf):
        with pytest.raises(ValueError,
                           match=r"State2D needs a C-contiguous \(4, Nx, Ny\) array, got "):
            State2D(buf)

    def test_float32_buffer_accepted(self):
        buf = np.zeros((4, 3, 5), dtype=np.float32)
        assert State2D(buf).data is buf and State1D(buf).points.dtype == np.float32


def _oracle_value_rows(value):
    v = np.asarray(value)
    if v.ndim == 0:
        return [("", float(v))]
    return [(f"[{c}]", float(v[c])) for c in range(v.shape[0])]


def _oracle_write_state_csv(state, grid, path):
    """The row-by-row csv.writer export that write_state_csv must match byte for byte."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        if isinstance(grid, Grid1D):
            writer.writerow(["x", "dof_class", "value"])
            centers, interfaces = grid.centers(), grid.interfaces()
            moments, points = state.moments, state.points
            for i in range(grid.n):
                for k in range(moments.shape[1]):
                    for suffix, v in _oracle_value_rows(moments[i, k]):
                        writer.writerow([repr(float(centers[i])), f"moment{k}{suffix}", repr(v)])
            for i in range(grid.n):
                for suffix, v in _oracle_value_rows(points[i]):
                    writer.writerow([repr(float(interfaces[i])), f"point{suffix}", repr(v)])
        else:
            writer.writerow(["x", "y", "dof_class", "value"])
            xc, yc = grid.x_centers(), grid.y_centers()
            xf, yf = grid.x_interfaces(), grid.y_interfaces()
            blocks = [
                ("average", state.averages, xc, yc),
                ("edge_x", state.edge_x, xf, yc),
                ("edge_y", state.edge_y, xc, yf),
                ("node", state.nodes, xf, yf),
            ]
            for name, arr, xs, ys in blocks:
                for i in range(arr.shape[0]):
                    for j in range(arr.shape[1]):
                        writer.writerow(
                            [repr(float(xs[i])), repr(float(ys[j])), name, repr(float(arr[i, j]))]
                        )


_SPECIAL_VALUES = [np.nan, np.inf, -np.inf, -0.0, 5e-324, 1e16, 1e-5, 0.1]


def _random_with_specials(rng, shape):
    values = rng.standard_normal(shape) * 10.0 ** rng.integers(-20, 20, shape)
    flat = values.reshape(-1)
    flat[rng.choice(flat.size, len(_SPECIAL_VALUES), replace=False)] = _SPECIAL_VALUES
    return values



def _assert_same_bytes(state, grid, tmp_path):
    ours, oracle = tmp_path / "ours.csv", tmp_path / "oracle.csv"
    write_state_csv(state, grid, ours)
    _oracle_write_state_csv(state, grid, oracle)
    assert ours.read_bytes() == oracle.read_bytes()


def _read_state(path, grid, k=None, m=1):
    """The state whose values a written CSV holds, in file order."""
    with open(path, newline="") as fh:
        values = np.array([float(row[-1]) for row in list(csv.reader(fh))[1:]])
    if isinstance(grid, Grid2D):
        return State2D(values.reshape(4, grid.nx, grid.ny))
    split = grid.n * (k - 1) * m
    data = np.empty((k, grid.n, m))
    data[:-1] = values[:split].reshape(grid.n, k - 1, m).swapaxes(0, 1)
    data[-1] = values[split:].reshape(grid.n, m)
    return State1D(data.squeeze(2) if m == 1 else data)


class TestCsvExport:
    def test_1d_roundtrip(self, tmp_path):
        g = Grid1D(4)
        el = build_element(3)
        st = project_initial(g, lambda x: np.cos(2 * np.pi * np.asarray(x)), el)
        path = tmp_path / "state.csv"
        write_state_csv(st, g, path)
        with open(path) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["x", "dof_class", "value"]
        # 4 cells x 2 moments + 4 points
        assert len(rows) == 1 + 4 * 2 + 4
        point_rows = [r for r in rows[1:] if r[1] == "point"]
        assert [float(r[2]) for r in point_rows] == pytest.approx(list(st.points))

    def test_2d_deterministic(self, tmp_path):
        g = Grid2D(3, 3)
        st = project_initial(g, lambda x, y: np.asarray(x) + 2 * np.asarray(y))
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_state_csv(st, g, p1)
        write_state_csv(st, g, p2)
        assert p1.read_bytes() == p2.read_bytes()
        with open(p1) as fh:
            rows = list(csv.reader(fh))
        assert len(rows) == 1 + 4 * 9

    @pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
    def test_1d_scalar_bytes_match_csv_writer(self, tmp_path, k):
        # 2500 cells: each section (k - 1 moment lines per cell, then one
        # point line) spans two or more write blocks, the last one partial
        for lines_per_cell in (k - 1, 1):
            cells_per_block = grid_module._CSV_BLOCK_LINES // lines_per_cell
            assert 2500 > cells_per_block and 2500 % cells_per_block
        rng = np.random.default_rng(k)
        g = Grid1D(2500, -0.3, 1.7)
        st = random_state_1d(rng, 2500, k, draw=partial(_random_with_specials, rng))
        _assert_same_bytes(st, g, tmp_path)
        # a float32 buffer writes its exact float64 values
        _assert_same_bytes(State1D(st.data.astype(np.float32)), g, tmp_path)

    def test_1d_system_bytes_match_csv_writer(self, tmp_path):
        rng = np.random.default_rng(7)
        g = Grid1D(1100)
        st = random_state_1d(rng, 1100, 3, 2, draw=partial(_random_with_specials, rng))
        _assert_same_bytes(st, g, tmp_path)
        _assert_same_bytes(State1D(st.data.astype(np.float32)), g, tmp_path)

    def test_2d_bytes_match_csv_writer(self, tmp_path):
        # 7 x 300: each field spans several write blocks, the last one partial
        rows_per_block = max(1, grid_module._CSV_BLOCK_LINES // 300)
        assert 7 > rows_per_block and 7 % rows_per_block
        rng = np.random.default_rng(8)
        for nx, ny in ((7, 5), (7, 300)):
            g = Grid2D(nx, ny, -1.0, 0.3, 0.0, 2.5)
            st = State2D(_random_with_specials(rng, (4, nx, ny)))
            _assert_same_bytes(st, g, tmp_path)
            _assert_same_bytes(State2D(st.data.astype(np.float32)), g, tmp_path)

    def test_1d_literal_bytes(self, tmp_path):
        g = Grid1D(3, 0.0, 3.0)
        st = State1D(np.array([[1.0, np.nan, -np.inf], [0.1, -0.0, 1e16]]))
        path = tmp_path / "state.csv"
        write_state_csv(st, g, path)
        assert path.read_bytes() == (
            b"x,dof_class,value\r\n"
            b"0.5,moment0,1.0\r\n"
            b"1.5,moment0,nan\r\n"
            b"2.5,moment0,-inf\r\n"
            b"1.0,point,0.1\r\n"
            b"2.0,point,-0.0\r\n"
            b"3.0,point,1e+16\r\n"
        )

    def test_unsupported_grid_rejected(self, tmp_path):
        st = State1D(np.zeros((2, 4)))
        path = tmp_path / "state.csv"
        with pytest.raises(TypeError):
            write_state_csv(st, object(), path)
        assert not path.exists()

    @pytest.mark.parametrize(
        "state, grid",
        [
            (State1D(np.zeros((2, 4))), Grid1D(5)),
            (State1D(np.zeros((2, 6))), Grid1D(5)),
            (State2D(np.zeros((4, 3, 4))), Grid2D(3, 5)),
            (State2D(np.zeros((4, 4, 4))), Grid2D(3, 4)),
        ],
        ids=["1d-fewer", "1d-more", "2d-fewer", "2d-more"],
    )
    def test_state_grid_mismatch_rejected(self, tmp_path, state, grid):
        path = tmp_path / "state.csv"
        with pytest.raises(ValueError):
            write_state_csv(state, grid, path)
        assert not path.exists()

    @pytest.mark.parametrize(
        "text, k, m",
        [
            ("k=3\ngrid.n=9\nmodel.name=linear_system\nmodel.matrix=0,1;1,0\n"
             "time.scheme=rk4\ntime.t_end=0.2\n", 3, 2),
            ("dimension=2\ngrid.nx=6\ngrid.ny=5\nmodel.ax=1.0\nmodel.ay=-0.5\n"
             "time.t_end=0.15\n", None, 1),
        ],
        ids=["1d-system", "2d"],
    )
    def test_run_snapshots_match_csv_writer(self, tmp_path, text, k, m):
        cfg = parse_config(text + "output.snapshot_every=2\n")
        result = run_simulation(cfg, output_dir=str(tmp_path / "run"))
        grid = result.grid
        _oracle_write_state_csv(result.state, grid, tmp_path / "oracle.csv")
        final = tmp_path / "run" / "final_state.csv"
        assert final.read_bytes() == (tmp_path / "oracle.csv").read_bytes()
        snapshots = sorted((tmp_path / "run").glob("state_*.csv"))
        assert len(snapshots) == result.steps // 2 >= 2
        # each snapshot holds the state whose mass the run logged at that step
        for path, (_, mass) in zip(snapshots, result.mass_log[1:]):
            state = _read_state(path, grid, k, m)
            assert np.array_equal(total_mass(state, grid), mass)
            _oracle_write_state_csv(state, grid, tmp_path / "oracle.csv")
            assert path.read_bytes() == (tmp_path / "oracle.csv").read_bytes()

    def test_x_cache_follows_the_grid_written(self, tmp_path):
        # 1500 cells of 3 moment lines: several write blocks, the last one partial
        cells_per_block = grid_module._CSV_BLOCK_LINES // 3
        assert 1500 > cells_per_block and 1500 % cells_per_block
        rng = np.random.default_rng(9)
        first = Grid1D(1500, -0.3, 1.7)
        specials = partial(_random_with_specials, rng)
        scalar = random_state_1d(rng, 1500, 4, draw=specials)
        system = random_state_1d(rng, 1500, 3, 2, draw=specials)
        writes = [
            (scalar, first),
            (scalar, first),  # a cache hit
            (scalar, Grid1D(1500, 0.25, 0.75)),  # same n, other extent
            (system, first),  # m = 2, back on the first grid
            (State1D(rng.standard_normal((2, 7))), Grid1D(7)),
        ]
        held = []
        for state, grid in writes:
            _assert_same_bytes(state, grid, tmp_path)
            # the cache holds the strings of the grid just written and no other
            cached_grid, centers, interfaces = grid_module._csv_x_last
            assert cached_grid is grid and len(centers) == len(interfaces) == grid.n
            held.append(centers)
        assert held[1] is held[0] and held[2] is not held[0] and held[3] is not held[0]

    def test_1d_write_memory_is_bounded(self, tmp_path, monkeypatch):
        # a cold write of a K=4 run's state: the x rows (2 n WIDTH bytes) are
        # formatted in the call, and one block's matrix and formatter arrays
        # took about 290 B per line.  With a Python string per value and x,
        # the same write peaked at 1.95 MB.
        n = 10240
        g = Grid1D(n)
        st = project_initial(g, GaussianIC(0.2, 1.0, 0.5, 0.1), build_element(4))
        monkeypatch.setattr(grid_module, "_csv_x_last", None)
        tracemalloc.start()
        try:
            write_state_csv(st, g, tmp_path / "state.csv")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert grid_module._csv_x_last[0] is g
        assert peak < 2 * n * WIDTH + 400 * grid_module._CSV_BLOCK_LINES

    def test_x_cache_matches_grids_by_identity(self, tmp_path):
        # equal as dataclasses, but float32 bounds give other coordinates
        wide = Grid1D(3, np.float32(0.5), np.float32(1.0))
        plain = Grid1D(3, 0.5, 1.0)
        assert wide == plain and not np.array_equal(wide.centers(), plain.centers())
        st = State1D(np.array([[1.0, 2.0, 3.0], [0.1, 0.2, 0.3]]))
        for grid in (wide, plain, wide):
            _assert_same_bytes(st, grid, tmp_path)
