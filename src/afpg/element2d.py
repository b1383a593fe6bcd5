"""Biparabolic element on Cartesian cells: basis, test functions, pairing tables.

The nine degrees of freedom of a cell are the four corner values, the
four edge-midpoint values and the cell average.  Dof ids are pairs
(r, s) with r, s in {-1, 0, +1} locating the dof at (r/2, s/2) on the
reference square; (0, 0) is the average.  The dual basis is solved
from the 9x9 duality system over the tensor-quadratic space and
checked coefficient by coefficient against the known closed forms
(for instance the average basis function 9/4 (4 xi^2 - 1)(4 eta^2 - 1)).

Test functions attached to shared dofs are built from pairing tables.
An edge test function lives on the two cells sharing the edge.  Its
pairings with basis functions supported in a single cell vanish; the
pairings with the three basis functions shared across the edge carry
three free weights: alpha3 splits the unit self-pairing into
(1 +- alpha3)/2 across the edge (the analogue of the 1-d upwind
weight), and alpha1/alpha2 attach antisymmetrically to the two nodes
bounding the edge, acting as extra stabilization.

A node test function lives on the four cells around a node and carries
eleven free weights: alpha1..alpha8 attach antisymmetrically to the
shared edge-midpoint and node dofs around it, alpha9 splits the unit
self-pairing between the lower and upper cell pair, and alpha10/alpha11
redistribute it within each pair.  ``node_pairing_table`` spells out
all 36 defining integrals; each of the four pieces is solved from its
own nine conditions, exactly.

Every derivative row comes from the same tables.  By biorthogonality a
piece pairs with any polynomial of the cell space as its table row
applied to that polynomial's dof functionals (``pair_row``); the
runtime pairs each row with the derivatives of the basis functions,
which gives each weight on a raw dof (see semidiscrete).  Paired with
the derivative of a reconstruction, a row weighs the one-sided
derivative values at the dof points (the average entry of an edge or
node row is always zero), and the same row serves the x- and the
y-derivative.  Continuity of the reconstruction then collapses the
node rows to two-sided blends: weight 1/2 +- (alpha10+alpha11) for the
x-derivative and 1/2 +- alpha9/2 for the y-derivative, plus the
stabilization jump terms.  That collapse is checked rather than
assumed: ``tests/test_element2d.py::TestStencils`` compares the rows
with these blends (``test_node_simplified_two_sided_forms``) and with
the exact pairing of the solved pieces (``test_node_oracle_random_alphas``).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from afpg.poly import HALF, Poly, inner, integrate, solve_exact

__all__ = [
    "DOF_IDS",
    "Element2D",
    "EdgeTest2D",
    "NodeTest2D",
    "dof_point",
    "apply_dof",
    "pair_row",
    "build_element_2d",
    "build_edge_test",
    "build_node_test",
    "edge_pairing_table",
    "node_pairing_table",
    "reconstruct2d",
]

# Fixed dof ordering: average, edge midpoints (left, right, bottom, top),
# nodes (bottom-left, bottom-right, top-left, top-right).
DOF_IDS = (
    (0, 0),
    (-1, 0),
    (1, 0),
    (0, -1),
    (0, 1),
    (-1, -1),
    (1, -1),
    (-1, 1),
    (1, 1),
)

# The monomials xi^m eta^n of the tensor-quadratic space, the trial
# functions of every exact solve here, m major.
_MONOMIALS = tuple(Poly([[int((i, j) == (m, n)) for j in range(3)] for i in range(3)])
                   for m in range(3) for n in range(3))


def _solved_poly(rows, rhs) -> Poly:
    """The polynomial whose monomial coefficients solve rows . c = rhs."""
    c = solve_exact(rows, rhs)
    return Poly([c[3 * m : 3 * m + 3] for m in range(3)])


def dof_point(dof):
    r, s = dof
    return (Fraction(r, 2), Fraction(s, 2))


def apply_dof(dof, p: Poly):
    """Apply the dof functional: point value, or the integral for (0, 0)."""
    if dof == (0, 0):
        return integrate(p)
    xi, eta = dof_point(dof)
    return p(xi, eta)


def pair_row(row, p: Poly):
    """Pairing of a test-function piece with p, a polynomial of the cell space.

    ``row`` is the piece's row of a pairing table (its pairings with the
    basis functions, keyed by dof id); by biorthogonality the pairing
    with p is that row applied to the dof functionals of p.
    """
    return sum(w * apply_dof(dof, p) for dof, w in row.items() if w != 0)


@dataclass(frozen=True, eq=False)
class Element2D:
    """The nine dual basis polynomials, keyed by dof id."""

    basis: dict

    def basis_ordered(self):
        return tuple(self.basis[dof] for dof in DOF_IDS)


@dataclass(frozen=True, eq=False)
class EdgeTest2D:
    """Edge-midpoint test function: one polynomial piece per support cell.

    ``pieces`` maps the cell offset (relative to the cell on the
    lower/left side of the edge) to the local polynomial; ``table``
    holds the defining pairings of each piece with the cell basis.
    """

    pieces: dict
    table: dict


@dataclass(frozen=True, eq=False)
class NodeTest2D:
    """Node test function: four polynomial pieces around the node."""

    pieces: dict
    table: dict


def _closed_form_factors():
    one = Poly([1])
    lin_p = Poly([1, 2])  # 2 xi + 1
    lin_m = Poly([-1, 2])  # 2 xi - 1
    six_m = Poly([-1, 6])  # 6 xi - 1
    six_p = Poly([1, 6])  # 6 xi + 1
    sq = Poly([-1, 0, 4])  # 4 xi^2 - 1
    return one, lin_p, lin_m, six_m, six_p, sq


@lru_cache(maxsize=1)
def _closed_form_basis():
    one, lin_p, lin_m, six_m, six_p, sq = _closed_form_factors()

    def tx(p):
        return p.tensor(one)

    def ty(p):
        return one.tensor(p)

    s16 = Fraction(1, 16)
    m14 = Fraction(-1, 4)
    forms = {
        (1, 1): s16 * tx(lin_p) * ty(lin_p) * Poly([[-1, 2], [2, 12]]),
        (-1, 1): s16 * tx(lin_m) * ty(lin_p) * Poly([[1, -2], [2, 12]]),
        (-1, -1): s16 * tx(lin_m) * ty(lin_m) * Poly([[-1, -2], [-2, 12]]),
        (1, -1): s16 * tx(lin_p) * ty(lin_m) * Poly([[1, 2], [-2, 12]]),
        (0, 1): m14 * tx(sq) * ty(lin_p) * ty(six_m),
        (0, -1): m14 * tx(sq) * ty(lin_m) * ty(six_p),
        (-1, 0): m14 * tx(lin_m) * tx(six_p) * ty(sq),
        (1, 0): m14 * tx(lin_p) * tx(six_m) * ty(sq),
        (0, 0): Fraction(9, 4) * tx(sq) * ty(sq),
    }
    return forms


@lru_cache(maxsize=1)
def build_element_2d() -> Element2D:
    """Solve the 9x9 duality system over the tensor-quadratic space.

    The result is compared against the closed forms exactly; a mismatch
    would indicate a broken construction, hence the hard assert.
    """
    rows = [[apply_dof(dof, m) for m in _MONOMIALS] for dof in DOF_IDS]
    basis = {dof: _solved_poly(rows, [Fraction(int(r == s)) for r in range(9)])
             for s, dof in enumerate(DOF_IDS)}
    expected = _closed_form_basis()
    for dof in DOF_IDS:
        assert basis[dof] == expected[dof], f"basis mismatch for dof {dof}"
    return Element2D(basis)


def _zero_row():
    return {dof: Fraction(0) for dof in DOF_IDS}


def edge_pairing_table(alphas):
    """Defining pairings of a vertical-edge test function.

    The keys are cell offsets relative to the left support cell; weight
    alpha1 sits on the upper node of the edge, alpha2 on the lower one,
    and alpha3 blends the two sides of the edge midpoint.
    """
    a1, a2, a3 = (Fraction(a) for a in alphas)
    own = _zero_row()
    own[(1, 1)] = a1
    own[(1, -1)] = a2
    own[(1, 0)] = HALF + a3 / 2
    neigh = _zero_row()
    neigh[(-1, 1)] = -a1
    neigh[(-1, -1)] = -a2
    neigh[(-1, 0)] = HALF - a3 / 2
    return {(0, 0): own, (1, 0): neigh}


def node_pairing_table(alphas):
    """Defining pairings of the four pieces of a node test function.

    ``alphas`` are the eleven free weights.  Offsets are relative to the
    lower-left support cell; the self-pairings carry
    1/4 + alpha9/4 +- alpha10 on the lower cells and
    1/4 - alpha9/4 +- alpha11 on the upper ones, and alpha1..alpha8
    attach antisymmetrically to the remaining shared dofs.
    """
    if len(alphas) != 11:
        raise ValueError(f"expected 11 node weights, got {len(alphas)}")
    a1, a2, a3, a4, a5, a6, a7, a8, a9, a10, a11 = (Fraction(a) for a in alphas)
    q = Fraction(1, 4)

    lower_left = _zero_row()
    lower_left[(1, 0)] = a1
    lower_left[(0, 1)] = a2
    lower_left[(1, -1)] = a3
    lower_left[(-1, 1)] = a4
    lower_left[(1, 1)] = q + a9 / 4 + a10

    lower_right = _zero_row()
    lower_right[(-1, 0)] = -a1
    lower_right[(0, 1)] = a5
    lower_right[(-1, -1)] = -a3
    lower_right[(1, 1)] = a7
    lower_right[(-1, 1)] = q + a9 / 4 - a10

    upper_left = _zero_row()
    upper_left[(0, -1)] = -a2
    upper_left[(-1, -1)] = -a4
    upper_left[(1, 0)] = a6
    upper_left[(1, 1)] = a8
    upper_left[(1, -1)] = q - a9 / 4 + a11

    upper_right = _zero_row()
    upper_right[(-1, 0)] = -a6
    upper_right[(0, -1)] = -a5
    upper_right[(1, -1)] = -a7
    upper_right[(-1, 1)] = -a8
    upper_right[(-1, -1)] = q - a9 / 4 - a11

    return {
        (0, 0): lower_left,
        (1, 0): lower_right,
        (0, 1): upper_left,
        (1, 1): upper_right,
    }


@lru_cache(maxsize=1)
def _test_solve_rows():
    # pairing of every basis function with every monomial
    element = build_element_2d()
    return [[inner(element.basis[dof], m) for m in _MONOMIALS] for dof in DOF_IDS]


def _solve_test_piece(pairings):
    return _solved_poly(_test_solve_rows(), [pairings[dof] for dof in DOF_IDS])


def _transpose_table(table):
    return {
        (oy, ox): {(s, r): v for (r, s), v in row.items()}
        for (ox, oy), row in table.items()
    }


def build_edge_test(alphas, orientation="x") -> EdgeTest2D:
    """Test function of an edge midpoint for the given free weights.

    ``orientation`` 'x' means a vertical edge (normal along x); the
    horizontal-edge variant is the xi/eta transpose.
    """
    if orientation not in ("x", "y"):
        raise ValueError(f"orientation must be 'x' or 'y', got {orientation!r}")
    table = edge_pairing_table(alphas)
    pieces = {off: _solve_test_piece(row) for off, row in table.items()}
    if orientation == "y":
        table = _transpose_table(table)
        pieces = {
            (oy, ox): p.transpose() for (ox, oy), p in pieces.items()
        }
    return EdgeTest2D(pieces, table)


def build_node_test(alphas) -> NodeTest2D:
    """Test function of a node for the given eleven free weights."""
    table = node_pairing_table(alphas)
    pieces = {off: _solve_test_piece(row) for off, row in table.items()}
    return NodeTest2D(pieces, table)


def reconstruct2d(element: Element2D, dofs) -> Poly:
    """Cell polynomial matching the nine dofs, keyed by dof id."""
    total = Poly([[0]])
    for dof in DOF_IDS:
        total = total + dofs[dof] * element.basis[dof]
    return total
