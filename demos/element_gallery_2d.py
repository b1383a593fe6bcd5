"""The biparabolic 2-d element: nine dofs, tensor structure, pairing-table weights.

Run as:  python3 demos/element_gallery_2d.py
"""

from fractions import Fraction

import numpy as np

from afpg import (
    build_edge_test,
    build_element,
    build_element_2d,
    build_node_test,
    build_point_test,
)
from afpg.poly import Poly

NAMES = {
    (0, 0): "average",
    (-1, 0): "edge left",
    (1, 0): "edge right",
    (0, -1): "edge bottom",
    (0, 1): "edge top",
    (-1, -1): "node bottom-left",
    (1, -1): "node bottom-right",
    (-1, 1): "node top-left",
    (1, 1): "node top-right",
}


def tensor_product(p, q):
    """The product of p in the leading variables and q in the rest."""
    return Poly(np.multiply.outer(p.coeffs, q.coeffs))


def print_table(table):
    # a row paired with the derivative of a reconstruction weighs its
    # one-sided derivative values at the dof points: list the nonzero ones
    for off, row in table.items():
        for dof, w in row.items():
            if w != 0:
                print(f"    cell offset {off}, derivative at {NAMES[dof]:<18} weight {w}")


def main():
    el2 = build_element_2d()
    print("Nine dofs per cell: 4 corner values, 4 edge midpoints, 1 average.")
    print("Basis coefficient grid for the average dof (rows xi^k, cols eta^l):")
    for row in el2.basis[(0, 0)].coeffs:
        print("   ", [str(Fraction(c)) for c in row])
    print()

    print("Relation to the 1-d tensor products")
    print("=" * 60)
    el1 = build_element(2)
    b1 = {1: el1.basis_right, -1: el1.basis_left, 0: el1.basis_moments[0]}
    edge = el2.basis[(1, 0)]
    tensor = tensor_product(b1[1], b1[0])
    print("  edge basis == 2/3 * (1-d right endpoint) x (1-d average):",
          edge == Fraction(2, 3) * tensor)
    node = el2.basis[(1, 1)]
    expected = (
        tensor_product(b1[1], b1[1])
        + Fraction(1, 6) * tensor_product(b1[1], b1[0])
        + Fraction(1, 6) * tensor_product(b1[0], b1[1])
    )
    print("  node basis == tensor + 1/6 corrections along each axis:",
          node == expected)
    print()

    print("Edge test function in the tensor basis of 1-d central tests")
    print("=" * 60)
    t0 = build_point_test(el1, 0)
    a1d = {1: t0.left, -1: t0.right, 0: Poly([1])}
    a1, a2, a3 = Fraction(0), Fraction(0), Fraction(1, 2)
    t = build_edge_test((a1, a2, a3), "x")
    expansion = (
        (8 * a1 - 1 - a3) / 2 * tensor_product(a1d[1], a1d[1])
        + Fraction(3, 2) * (1 + a3) * tensor_product(a1d[1], a1d[0])
        + (8 * a2 - 1 - a3) / 2 * tensor_product(a1d[1], a1d[-1])
    )
    print(f"  alphas = ({a1}, {a2}, {a3}): expansion identity holds:",
          t.pieces[(0, 0)] == expansion)
    print()

    print("Stencil weights (pairings that survive for default upwinding)")
    print("=" * 60)
    print("  edge, alpha3 = +1 (full left upwind):")
    print_table(build_edge_test((0, 0, 1), "x").table)
    print()
    print("  node, x-weight beta = 1/2 (full left upwind in x):")
    print_table(
        build_node_test((0, 0, 0, 0, 0, 0, 0, 0, 0, Fraction(1, 4), Fraction(1, 4))).table
    )
    print()
    print("The same weights consume x-derivatives for the x-flux and")
    print("y-derivatives for the y-flux; continuity of the reconstruction")
    print("merges coincident values into the familiar two-sided blends.")


if __name__ == "__main__":
    main()
