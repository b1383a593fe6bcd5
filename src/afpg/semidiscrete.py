"""Spatial discretization: assemble dQ/dt from the current state.

Cell averages evolve by the plain flux difference of the shared
interface values.  Higher moments integrate the flux against the
moment weight by parts: the boundary terms again use the shared
interface values, the volume term is evaluated by Gauss quadrature
(exact for linear fluxes, one extra node otherwise).

Interface values evolve by upwinded derivative formulas.  In 1-d the
two one-sided reconstruction derivatives at an interface are either
blended with a fixed weight (1+alpha)/2, (1-alpha)/2 and multiplied by
the local Jacobian, or routed through the Jacobian split J+ D+ + J- D-
(the sign-adaptive choice; for systems this is the only supported
form).  For scalar Burgers an exact-integration point update is also
available, which integrates the test function against the derivative
of the quadratic flux in closed form.

In 2-d the edge and node stencils come from the pairing tables of the
constructed test functions (see element2d): the same weights consume
x-derivatives for the x-flux part and y-derivatives for the y-flux
part.  These stencils and the Simpson flux differences of the averages
are compiled once per grid spacing, velocity and upwind setting, in
exact arithmetic, into a flat tap list (input field, cell offset,
weight) per output field.  A call sums weighted slice views of one
wrap-padded copy of the state buffer.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from afpg.element1d import Element1D, build_element
from afpg.element2d import (
    DerivStencil2D,
    Element2D,
    _stencil_terms,
    _transpose_table,
    build_element_2d,
    edge_pairing_table,
    flatten_stencil,
    node_pairing_table,
)
from afpg.grid import Grid1D, Grid2D, State1D, State2D, _dof_gather_1d, _eval_at_nodes
from afpg.poly import gauss_rule

__all__ = [
    "Upwind1D",
    "Upwind2D",
    "choose_alpha",
    "rhs_1d",
    "rhs_point_burgers",
    "rhs_2d",
]


@dataclass(frozen=True)
class Upwind1D:
    """Interface upwinding policy: sign-adaptive, or a fixed alpha."""

    mode: str = "adaptive"
    alpha: float = 0.0

    def __post_init__(self):
        if self.mode not in ("adaptive", "fixed"):
            raise ValueError(f"unknown upwind mode {self.mode!r}")
        if abs(self.alpha) > 1.0:
            raise ValueError("alpha must lie in [-1, 1]")


@dataclass(frozen=True)
class Upwind2D:
    """Edge and node upwinding policy plus the extra stabilization weights.

    In adaptive mode the edge weight alpha3 follows the sign of the
    normal wave speed and the node weight beta follows sign/2 per
    direction; fixed mode uses the stored values for both directions.
    The stabilization weights (alpha1/alpha2 on edges, the eight node
    weights) default to zero and are exposed for experiments.
    """

    mode: str = "adaptive"
    alpha3: float = 0.0
    beta: float = 0.0
    edge_alpha1: float = 0.0
    edge_alpha2: float = 0.0
    node_alphas: tuple = (0.0,) * 8

    def __post_init__(self):
        if self.mode not in ("adaptive", "fixed"):
            raise ValueError(f"unknown upwind mode {self.mode!r}")
        if abs(self.alpha3) > 1.0:
            raise ValueError("alpha3 must lie in [-1, 1]")
        if abs(self.beta) > 0.5:
            raise ValueError("beta must lie in [-1/2, 1/2]")
        if len(self.node_alphas) != 8:
            raise ValueError("node_alphas must hold 8 values")
        # a tuple keeps the policy hashable, as the rhs_2d tap cache needs
        object.__setattr__(self, "node_alphas", tuple(self.node_alphas))


def choose_alpha(model, q):
    """Sign-adaptive upwind weight: sgn of the wave speed, with sgn(0) = 0."""
    return np.sign(model.jac(q))


class _Tables1D:
    def __init__(self, k: int):
        element = build_element(k)
        basis = element.basis()
        self.k = k
        self.d_right = np.array([float(b.deriv()(0.5)) for b in basis])
        self.d_left = np.array([float(b.deriv()(-0.5)) for b in basis])
        self.moment_rules = {}
        for n in (k + 1, k + 2):
            rule = gauss_rule(n)
            xi, w = rule.nodes_array, rule.weights_array
            basis_vals = np.array(
                [np.polynomial.polynomial.polyval(xi, b.float_coeffs) for b in basis]
            )
            weight_derivs = []
            for mw in element.moment_weights[1:]:
                dpoly = mw.poly.deriv()
                weight_derivs.append(
                    w * np.polynomial.polynomial.polyval(xi, dpoly.float_coeffs)
                )
            self.moment_rules[n] = (basis_vals, weight_derivs)


@lru_cache(maxsize=None)
def _tables_1d(k: int) -> _Tables1D:
    return _Tables1D(k)


def rhs_1d(state: State1D, grid: Grid1D, element: Element1D, model, upwind: Upwind1D,
           point_update: str = "split") -> State1D:
    """Spatial right-hand side of the 1-d semi-discrete scheme.

    ``point_update`` selects the interface-value formula: "split" is
    the Jacobian-split / alpha-blend form, "exact" the closed-form
    exact integration (Burgers only, K = 2).
    """
    k = state.k
    if k != element.k:
        raise ValueError("state and element degree disagree")
    if state.data.shape[0] != grid.n:
        raise ValueError("state size does not match grid")
    if not state.all_finite():
        raise ValueError("state contains non-finite values")
    if point_update not in ("split", "exact"):
        raise ValueError(f"unknown point update {point_update!r}")

    tab = _tables_1d(k)
    dx = grid.dx
    pts = state.points
    dofs = _dof_gather_1d(state)
    f_right = np.asarray(model.flux(pts), dtype=float)
    f_left = np.roll(f_right, 1, axis=0)

    out = np.empty_like(state.data)
    d_moments = out[:, :-1]
    d_moments[:, 0] = -(f_right - f_left) / dx

    if k > 2:
        n_rule = k + 1 if model.is_linear else k + 2
        basis_vals, weight_derivs = tab.moment_rules[n_rule]
        qg = _eval_at_nodes(dofs, basis_vals)
        fg = np.asarray(model.flux(qg), dtype=float)
        for idx, wd in enumerate(weight_derivs):
            kk = idx + 1
            boundary_plus = kk + 1.0
            boundary_minus = (kk + 1.0) * (-1.0) ** kk
            vol = np.tensordot(fg, wd, axes=([1], [0]))
            d_moments[:, kk] = -(boundary_plus * f_right - boundary_minus * f_left - vol) / dx

    if point_update == "exact":
        if model.name != "burgers":
            raise ValueError("exact-integration point update is Burgers-only")
        out[:, -1] = rhs_point_burgers(state, grid, upwind)
    else:
        d_from_left = np.tensordot(dofs, tab.d_right, axes=([1], [0])) / dx
        d_from_right = np.roll(
            np.tensordot(dofs, tab.d_left, axes=([1], [0])) / dx, -1, axis=0
        )
        if model.m == 1:
            if upwind.mode == "fixed":
                a = upwind.alpha
                blend = 0.5 * (1.0 + a) * d_from_left + 0.5 * (1.0 - a) * d_from_right
                out[:, -1] = -np.asarray(model.jac(pts), dtype=float) * blend
            else:
                jac = np.asarray(model.jac(pts), dtype=float)
                out[:, -1] = -(
                    np.maximum(jac, 0.0) * d_from_left + np.minimum(jac, 0.0) * d_from_right
                )
        else:
            if upwind.mode == "fixed":
                raise ValueError("fixed-alpha updates apply to scalar models only")
            out[:, -1] = -(d_from_left @ model.jac_plus.T + d_from_right @ model.jac_minus.T)

    return State1D._of(out)


def rhs_point_burgers(state: State1D, grid: Grid1D, upwind: Upwind1D) -> np.ndarray:
    """Exact-integration interface update for Burgers, K = 2.

    The pairing of the interface test function with the derivative of
    the quadratic flux of the reconstruction integrates in closed form;
    both one-sided contributions are quadratic in the local dofs.
    """
    if state.k != 2:
        raise ValueError("the exact-integration Burgers update needs K = 2")
    pts = state.points
    avg = state.moments[:, 0]
    q_left = np.roll(pts, 1, axis=0)  # value at interface i-1/2
    q_mid = pts  # value at interface i+1/2
    q_right = np.roll(pts, -1, axis=0)  # value at interface i+3/2
    avg_l = avg  # average of cell i
    avg_r = np.roll(avg, -1, axis=0)  # average of cell i+1
    dx = grid.dx

    if upwind.mode == "adaptive":
        alpha = np.sign(q_mid)
    else:
        alpha = upwind.alpha

    left_part = (
        -9.0 * (q_left - 2.0 * avg_l) ** 2
        + 2.0 * (q_left - 12.0 * avg_l) * q_mid
        + 31.0 * q_mid**2
    ) / (10.0 * dx)
    right_part = (
        9.0 * (q_right - 2.0 * avg_r) ** 2
        - 2.0 * (q_right - 12.0 * avg_r) * q_mid
        - 31.0 * q_mid**2
    ) / (10.0 * dx)
    return -(0.5 * (1.0 + alpha) * left_part + 0.5 * (1.0 - alpha) * right_part)


def _tap_target(key):
    """(input field, cell offset) of a flatten_stencil global key.

    Point keys count half cells from the center of the output cell:
    x odd is an x-edge, y odd a y-edge, both odd a node.
    """
    kind, x, y = key
    if kind == "avg":
        return 0, (x, y)
    return x % 2 + 2 * (y % 2), (x // 2, y // 2)


@lru_cache(maxsize=64)
def _compile_taps_2d(dx, dy, ax, ay, upwind: Upwind2D):
    """Exact taps of rhs_2d: per output field, (input field, cell offset, weight).

    Fields are ordered averages, edge_x, edge_y, nodes.  Offsets are
    relative to the cell storing the output dof and reach one cell at
    most.  The x and y parts are merged exactly and rounded once.
    """
    if upwind.mode == "adaptive":
        a3x, a3y = np.sign(ax), np.sign(ay)
        beta_x, beta_y = Fraction(a3x) / 2, Fraction(a3y) / 2
    else:
        a3x = a3y = upwind.alpha3
        beta_x = beta_y = Fraction(upwind.beta)
    edge = (upwind.edge_alpha1, upwind.edge_alpha2)
    tables = (
        edge_pairing_table((*edge, a3x)),
        _transpose_table(edge_pairing_table((*edge, a3y))),
        node_pairing_table((*upwind.node_alphas, 2 * beta_y, beta_x / 2, beta_x / 2)),
    )
    fax, fay = Fraction(ax), Fraction(ay)
    cx, cy = fax / Fraction(dx), fay / Fraction(dy)
    # averages: flux differences of the Simpson means of the edge traces
    avg = defaultdict(Fraction)
    for s, w in ((-1, Fraction(1, 6)), (0, Fraction(4, 6)), (1, Fraction(1, 6))):
        for key, c in ((("pt", 1, s), -cx), (("pt", -1, s), cx),
                       (("pt", s, 1), -cy), (("pt", s, -1), cy)):
            avg[key] += c * w
    merged = [avg]
    element = build_element_2d()
    for table in tables:
        taps = defaultdict(Fraction)
        terms = _stencil_terms(table)
        for axis, speed in (("x", fax), ("y", fay)):
            for key, w in flatten_stencil(DerivStencil2D(axis, terms), element, dx, dy).items():
                taps[key] -= speed * w
        merged.append(taps)
    return tuple(
        tuple((*_tap_target(key), float(w)) for key, w in taps.items() if w != 0)
        for taps in merged
    )


def _wrap_pad(a):
    """Copy of a (fields, nx, ny) stack with one periodic ghost layer around
    each field."""
    f, nx, ny = a.shape
    p = np.empty((f, nx + 2, ny + 2))
    p[:, 1:-1, 1:-1] = a
    p[:, 0, 1:-1], p[:, -1, 1:-1] = a[:, -1], a[:, 0]
    p[:, :, 0], p[:, :, -1] = p[:, :, -2], p[:, :, 1]
    return p


def rhs_2d(state: State2D, grid: Grid2D, element: Element2D, model, upwind: Upwind2D) -> State2D:
    """Spatial right-hand side of the 2-d semi-discrete scheme (K = 2).

    Supports scalar linear models.  Average fluxes integrate the edge
    trace with Simpson weights (exact, the trace is a quadratic); edge
    and node values use the pairing-table stencils.
    """
    if getattr(model, "dim", 0) != 2 or model.m != 1:
        raise ValueError("rhs_2d needs a two-dimensional scalar model")
    if not model.is_linear:
        raise ValueError("nonlinear 2-d models are not supported")
    nx, ny = grid.nx, grid.ny
    if state.data.shape != (4, nx, ny):
        raise ValueError("state size does not match grid")
    if not state.all_finite():
        raise ValueError("state contains non-finite values")

    taps = _compile_taps_2d(grid.dx, grid.dy, model.ax, model.ay, upwind)
    padded = _wrap_pad(state.data)
    scratch = np.empty((nx, ny))
    out = np.zeros_like(state.data)
    for total, field_taps in zip(out, taps):
        for field, (ox, oy), w in field_taps:
            view = padded[field, 1 + ox : 1 + ox + nx, 1 + oy : 1 + oy + ny]
            total += np.multiply(view, w, out=scratch)
    return State2D._of(out)
