"""Spatial discretization: assemble dQ/dt from the current state.

Every row pairs a test function with the derivative of the flux of the
reconstruction and runs from exact weights, tabulated once and rounded
to float once.

In 1-d a moment weight lives on one cell and an interface test function
has one piece on each of the two cells at its interface, so every row
reads one cell's K+1 dofs (left endpoint, moments, right endpoint),
gathered once per call by ``grid._dof_gather_1d``.  ``_linear_rows``
holds the K-1 moment rows of ``element1d.moment_stencil`` (row 0 is the
plain endpoint difference) and the one-sided interface derivatives of
``element1d.derivative_stencil``: D+ (alpha = +1) on the cell left of
an interface, D- (alpha = -1) on the cell right of it.  ``_blend``
joins the two into the interface values:

- scalar linear models q_t + a q_x = 0: every row times -a/dx, D+ and
  D- weighted by (1+alpha)/2 and (1-alpha)/2, with alpha = sgn(a) when
  adaptive and the stored alpha when fixed;
- linear systems: -A on the moment rows, -J+ on D+ and -J- on D-;
- Burgers (f = q^2/2): the moment rows are exact quadratic forms in the
  cell's dofs (``_burgers_forms``); D+ and D- are weighted by
  -J (1+alpha)/2 and -J (1-alpha)/2 with alpha = sgn(J) when adaptive,
  or at K = 2 the forms' exact one-sided pairings by (1+alpha)/2 and
  (1-alpha)/2.

In 2-d the edge and node stencils come from the pairing tables of the
constructed test functions (see element2d): the same weights consume
x-derivatives for the x-flux part and y-derivatives for the y-flux
part.  Simpson taps give the flux differences of the averages.  Each
output field runs an exact tap list, compiled once per grid spacing,
velocity and upwind setting, on one wrap-padded copy of the state.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from afpg.element1d import (
    Element1D,
    build_element,
    build_point_test,
    derivative_stencil,
    moment_stencil,
)
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
from afpg.grid import Grid1D, Grid2D, State1D, State2D, _dof_gather_1d
from afpg.poly import inner1

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


def _tap(field, offset, weight):
    """(index of ``field`` shifted by ``offset`` cells in a wrap-padded stack, weight)."""
    return (field, *(slice(1 + o, o - 1 or None) for o in offset)), weight


def _wrap_pad(a):
    """Copy of a (fields, nx, ny) stack with one periodic ghost layer on each cell axis."""
    p = np.empty((a.shape[0], a.shape[1] + 2, a.shape[2] + 2))
    p[:, 1:-1, 1:-1] = a
    p[:, 0], p[:, -1] = p[:, -2], p[:, 1]
    p[:, :, 0], p[:, :, -1] = p[:, :, -2], p[:, :, 1]
    return p


def _tap_sums(stack, taps):
    """Per tap list, the sum of weight times shifted field, periodic on both cell axes."""
    padded = _wrap_pad(stack)
    out = np.zeros((len(taps), *stack.shape[1:]))
    scratch = np.empty(out.shape[1:])
    for total, field_taps in zip(out, taps):
        for index, w in field_taps:
            total += np.multiply(padded[index], w, out=scratch)
    return out


@lru_cache(maxsize=None)
def _linear_rows(k: int) -> np.ndarray:
    """The 1-d linear rows as exact weights on a cell's K+1 dofs, each
    rounded to float once: a (K+1, K+1) array in xi units.

    Rows 0..K-2 are the moment rows of moment_stencil.  Row K-1 is D+,
    the interface row at alpha = +1 (the derivative of the cell's
    reconstruction at its right endpoint); row K is D-, the interface
    row at alpha = -1 (the derivative at its left endpoint).
    """
    element = build_element(k)
    d_plus = derivative_stencil(element, build_point_test(element, 1)).weights[: k + 1]
    d_minus = derivative_stencil(element, build_point_test(element, -1)).weights[k:]
    return np.array([*moment_stencil(element), d_plus, d_minus], dtype=float)


@lru_cache(maxsize=None)
def _burgers_forms(k: int) -> np.ndarray:
    """Burgers' rows as exact quadratic forms on a cell's K+1 dofs, rounded
    to float once: a (K+1, K+1, K+1) array of form matrices.

    Forms 0..K-2 pair w_k with d/dxi (q^2/2), integrated by parts:
    1/2 [(k+1) (e_R e_R^T - (-1)^k e_L e_L^T) - int w_k' b_s b_t].  Forms
    K-1 and K are int phi b_s b_t' for the left piece of the alpha = +1
    test function and the right piece of the alpha = -1 one.
    """
    element = build_element(k)
    basis = element.basis()
    forms = []
    for w in element.moment_weights:
        form = [[-inner1(w.poly.deriv(), b * c) / 2 for c in basis] for b in basis]
        form[-1][-1] += Fraction(w.k + 1, 2)
        form[0][0] -= Fraction((w.k + 1) * (-1) ** w.k, 2)
        forms.append(form)
    for phi in (build_point_test(element, 1).left, build_point_test(element, -1).right):
        forms.append([[inner1(phi, b * c.deriv()) for c in basis] for b in basis])
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


def rhs_1d(state: State1D, grid: Grid1D, element: Element1D, model, upwind: Upwind1D,
           point_update: str = "split", *, assume_finite: bool = False) -> State1D:
    """Spatial right-hand side of the 1-d semi-discrete scheme.

    Every row is a table on the gathered cell dofs: ``_linear_rows``
    for the linear rows and for Burgers' D+/D-, ``_burgers_forms`` for
    Burgers' moment rows; ``_blend`` joins the two cells of each
    interface.  ``point_update`` selects the interface-value formula:
    "split" is the alpha-blend (scalar) or Jacobian-split (system,
    Burgers) form, "exact" the exact pairing of the test function with
    d/dx (q^2/2) (Burgers only, K = 2; see rhs_point_burgers).

    A state with a non-finite value raises ValueError, unless
    ``assume_finite`` says the caller has already tested it (the
    harness does: ``timestep.advance`` tests every state it hands on).
    """
    k = state.k
    if k != element.k:
        raise ValueError("state and element degree disagree")
    if state.data.shape[0] != grid.n:
        raise ValueError("state size does not match grid")
    if not assume_finite and not state.all_finite():
        raise ValueError("state contains non-finite values")
    if point_update not in ("split", "exact"):
        raise ValueError(f"unknown point update {point_update!r}")
    if point_update == "exact" and model.name != "burgers":
        raise ValueError("exact-integration point update is Burgers-only")
    if model.is_linear and model.m > 1 and upwind.mode == "fixed":
        raise ValueError("fixed-alpha updates apply to scalar models only")

    dx = grid.dx
    dofs = _dof_gather_1d(state)
    out = np.empty_like(state.data)
    if model.is_linear and model.m == 1:
        alpha = float(np.sign(model.a)) if upwind.mode == "adaptive" else upwind.alpha
        c = -model.a / dx
        rows = _linear_rows(k)
        # one product straight into the (N, K) state layout: no (K-1, N) temporary to transpose
        np.matmul(dofs.T, rows[:-2].T * c, out=out[:, :-1])
        d_plus, d_minus = rows[-2:] @ dofs
        _blend(out[:, -1], d_plus, d_minus, 0.5 * (1.0 + alpha) * c, 0.5 * (1.0 - alpha) * c)
        return State1D._of(out)
    if model.is_linear:
        rows = np.tensordot(_linear_rows(k), dofs, axes=1)
        out[:, :-1] = np.moveaxis(rows[:-2] @ (model.matrix.T / -dx), 0, 1)
        jac_plus, jac_minus = model.jac_plus.T / -dx, model.jac_minus.T / -dx
        _blend(out[:, -1], rows[-2] @ jac_plus, rows[-1] @ jac_minus)
        return State1D._of(out)

    np.divide(_cell_forms(dofs, _burgers_forms(k)[: k - 1]), -dx, out=out.T[:-1])
    if point_update == "exact":
        out[:, -1] = rhs_point_burgers(state, grid, upwind)
        return State1D._of(out)
    alpha = choose_alpha(model, state.points) if upwind.mode == "adaptive" else upwind.alpha
    jac = model.jac(state.points) / -dx
    d_plus, d_minus = _linear_rows(k)[-2:] @ dofs
    _blend(out[:, -1], d_plus, d_minus, 0.5 * (1.0 + alpha) * jac, 0.5 * (1.0 - alpha) * jac)
    return State1D._of(out)


def rhs_point_burgers(state: State1D, grid: Grid1D, upwind: Upwind1D) -> np.ndarray:
    """Exact-integration interface update for Burgers, K = 2.

    The pairing of the interface test function with d/dx (q^2/2): the
    one-sided forms of ``_burgers_forms`` on the cells left and right of
    each interface, blended by (1+alpha)/2 and (1-alpha)/2.
    """
    if state.k != 2:
        raise ValueError("the exact-integration Burgers update needs K = 2")
    left, right = _cell_forms(_dof_gather_1d(state), _burgers_forms(2)[-2:])
    alpha = np.sign(state.points) if upwind.mode == "adaptive" else upwind.alpha
    scale = -0.5 / grid.dx
    return _blend(np.empty_like(left), left, right, (1.0 + alpha) * scale, (1.0 - alpha) * scale)


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
    """Exact taps of rhs_2d, one tap list per output field.

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
        tuple(_tap(*_tap_target(key), float(w)) for key, w in taps.items() if w != 0)
        for taps in merged
    )


def rhs_2d(state: State2D, grid: Grid2D, element: Element2D, model, upwind: Upwind2D,
           *, assume_finite: bool = False) -> State2D:
    """Spatial right-hand side of the 2-d semi-discrete scheme (K = 2).

    Supports scalar linear models.  Average fluxes integrate the edge
    trace with Simpson weights (exact, the trace is a quadratic); edge
    and node values use the pairing-table stencils.  ``assume_finite``
    skips the finiteness test of the state, as in rhs_1d.
    """
    if getattr(model, "dim", 0) != 2 or model.m != 1:
        raise ValueError("rhs_2d needs a two-dimensional scalar model")
    if not model.is_linear:
        raise ValueError("nonlinear 2-d models are not supported")
    if state.data.shape != (4, grid.nx, grid.ny):
        raise ValueError("state size does not match grid")
    if not assume_finite and not state.all_finite():
        raise ValueError("state contains non-finite values")

    taps = _compile_taps_2d(grid.dx, grid.dy, model.ax, model.ay, upwind)
    return State2D._of(_tap_sums(state.data, taps))
