"""Spatial discretization: assemble dQ/dt from the current state.

For a linear flux every row of the scheme is a fixed exact linear form
on a few neighbouring dofs, and runs as an exact tap list compiled once
per grid spacing (and per velocity and upwind setting): exact weights,
each rounded to float once, on fields of the state shifted by at most
one cell.  A call sums weighted slice views of one wrap-padded copy of
the state buffer; one pad and one tap-sum loop serve both dimensions.

In 1-d the moment rows pair each moment weight with the derivative of
the cell's reconstruction (``element1d.moment_stencil``, integrated by
parts: the boundary terms use the shared interface values, and row 0 is
the plain flux difference).  The interface rows pair the interface test
function with the derivative of the global reconstruction
(``element1d.derivative_stencil``).  A scalar linear model q_t + a q_x
= 0 runs one tap list per output column: the K-1 moment rows and the
interface row at upwind weight alpha, all times -a/dx, with alpha =
sgn(a) when adaptive and the stored alpha when fixed.  Linear systems
run the moment rows and the one-sided interface derivatives D+ and D-
(the interface row at alpha = +1 and -1), divided by dx, in one call;
the moment rows are then multiplied by -A and the interface values get
-(J+ D+ + J- D-).

Burgers (f = q^2/2) pairs every row with d/dx f of a cell's
reconstruction: an exact quadratic form in the cell's dofs, tabulated
once per K and rounded once (``_burgers_forms``).  The moment rows use
the table; the interface values use -J ((1+alpha)/2 D+ + (1-alpha)/2 D-)
with alpha = sgn(J) when adaptive, or at K = 2 the table's exact
one-sided pairings, blended by (1+alpha)/2 and (1-alpha)/2.

In 2-d the edge and node stencils come from the pairing tables of the
constructed test functions (see element2d): the same weights consume
x-derivatives for the x-flux part and y-derivatives for the y-flux
part.  Simpson taps give the flux differences of the averages.
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
from afpg.grid import Grid1D, Grid2D, State1D, State2D
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


def _wrap_pad(a, ndim):
    """Copy of a (fields, *cells[, m]) stack with one periodic ghost layer on
    each of its ``ndim`` cell axes."""
    p = np.empty((a.shape[0], *(s + 2 for s in a.shape[1 : ndim + 1]), *a.shape[ndim + 1 :]))
    p[(slice(None), *(slice(1, -1),) * ndim)] = a
    for axis in range(1, ndim + 1):
        lead = (slice(None),) * axis
        p[(*lead, 0)], p[(*lead, -1)] = p[(*lead, -2)], p[(*lead, 1)]
    return p


def _tap_sums(stack, ndim, taps):
    """Per tap list, the sum of weight times shifted field, periodic on ``ndim`` cell axes."""
    padded = _wrap_pad(stack, ndim)
    out = np.zeros((len(taps), *stack.shape[1:]))
    scratch = np.empty(out.shape[1:])
    for total, field_taps in zip(out, taps):
        for index, w in field_taps:
            total += np.multiply(padded[index], w, out=scratch)
    return out


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


def _cell_forms(state: State1D, forms: np.ndarray) -> np.ndarray:
    """(F, N) values of the F quadratic forms on every cell's K+1 dofs."""
    dofs = np.empty((state.k + 1, len(state.data)))
    dofs[1:] = state.data.T
    dofs[0, 1:], dofs[0, 0] = dofs[-1, :-1], dofs[-1, -1]  # the left neighbour's right end
    return np.einsum("fsn,sn->fn", forms @ dofs, dofs)


@lru_cache(maxsize=64)
def _compile_taps_1d(k: int, dx, a=None, alpha=None):
    """Exact taps of rhs_1d, one tap list per row.

    The rows are the K-1 moment rows of moment_stencil, then interface
    rows of derivative_stencil.  With ``a`` given (scalar linear
    models) there is one interface row, at upwind weight ``alpha``, and
    every weight is multiplied by -a/dx: the lists are the whole right
    side, in the column order of the state buffer.  Without it
    (systems, Burgers) the interface rows are D+ (alpha = +1, the
    derivative of the left cell's reconstruction at its right endpoint)
    and D- (alpha = -1, the right cell's at its left endpoint), and the
    weights are divided by dx; the caller applies the Jacobian.  Weights
    are scaled in exact arithmetic and rounded once.
    """
    element = build_element(k)
    # the stencil window as (column, cell offset): left endpoint, then the
    # K columns of the cell left of the interface, then those of the right
    # cell; a moment row reads the first K+1 entries
    window = [(k - 1, (-1,))] + [(c, (o,)) for o in (0, 1) for c in range(k)]
    if a is None:
        scale, alphas = 1 / Fraction(dx), (1, -1)
    else:
        scale, alphas = -Fraction(a) / Fraction(dx), (alpha,)
    rows = moment_stencil(element) + tuple(
        derivative_stencil(element, build_point_test(element, al)).weights for al in alphas
    )
    return tuple(
        tuple(_tap(*t, float(w * scale)) for t, w in zip(window, row) if w != 0)
        for row in rows
    )


def rhs_1d(state: State1D, grid: Grid1D, element: Element1D, model, upwind: Upwind1D,
           point_update: str = "split", *, assume_finite: bool = False) -> State1D:
    """Spatial right-hand side of the 1-d semi-discrete scheme.

    Linear models run the compiled exact taps of every row; Burgers
    evaluates the exact quadratic forms of its moment rows.
    ``point_update`` selects the interface-value formula: "split" is
    the alpha-blend (scalar) or Jacobian-split (system) form, "exact"
    the exact pairing of the test function with d/dx (q^2/2) (Burgers
    only, K = 2; see rhs_point_burgers).

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

    dx = grid.dx
    stack = np.moveaxis(state.data, 1, 0)
    if model.is_linear and model.m == 1:
        alpha = float(np.sign(model.a)) if upwind.mode == "adaptive" else upwind.alpha
        sums = _tap_sums(stack, 1, _compile_taps_1d(k, dx, model.a, alpha))
        return State1D._of(np.ascontiguousarray(sums.T))
    if model.is_linear:
        if upwind.mode == "fixed":
            raise ValueError("fixed-alpha updates apply to scalar models only")
        sums = _tap_sums(stack, 1, _compile_taps_1d(k, dx))
        out = np.empty_like(state.data)
        out[:, :-1] = np.moveaxis(-(sums[:-2] @ model.matrix.T), 0, 1)
        out[:, -1] = -(sums[-2] @ model.jac_plus.T + sums[-1] @ model.jac_minus.T)
        return State1D._of(out)

    pts = state.points
    out = np.empty_like(state.data)
    np.divide(_cell_forms(state, _burgers_forms(k)[: k - 1]), -dx, out=out.T[:-1])
    if point_update == "exact":
        out[:, -1] = rhs_point_burgers(state, grid, upwind)
        return State1D._of(out)

    d_plus, d_minus = _tap_sums(stack, 1, _compile_taps_1d(k, dx)[-2:])
    alpha = choose_alpha(model, pts) if upwind.mode == "adaptive" else upwind.alpha
    jac = np.asarray(model.jac(pts), dtype=float)
    out[:, -1] = -jac * (0.5 * (1.0 + alpha) * d_plus + 0.5 * (1.0 - alpha) * d_minus)
    return State1D._of(out)


def rhs_point_burgers(state: State1D, grid: Grid1D, upwind: Upwind1D) -> np.ndarray:
    """Exact-integration interface update for Burgers, K = 2.

    The pairing of the interface test function with d/dx (q^2/2): the
    one-sided forms of ``_burgers_forms`` on the cells left and right of
    each interface, blended by (1+alpha)/2 and (1-alpha)/2.
    """
    if state.k != 2:
        raise ValueError("the exact-integration Burgers update needs K = 2")
    left, right = _cell_forms(state, _burgers_forms(2)[-2:])
    alpha = np.sign(state.points) if upwind.mode == "adaptive" else upwind.alpha
    return -(0.5 * (1.0 + alpha) * left + 0.5 * (1.0 - alpha) * np.roll(right, -1)) / grid.dx


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
    return State2D._of(_tap_sums(state.data, 2, taps))
