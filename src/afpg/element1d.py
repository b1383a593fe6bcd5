"""One-dimensional cell element: dual basis and interface test functions.

A cell of degree K >= 2 carries K+1 degrees of freedom: the values at
the two endpoints plus K-1 weighted moments.  The moment weights are
w_k(xi) = (k+1) 2^k xi^k; k = 0 is the plain cell average, and even
moments of the constant 1 are normalized to 1 (odd ones integrate to 0
and are kept exactly as the classical formula gives them).

``build_element`` solves for the basis dual to these functionals, so
that applying any degree of freedom to any basis function yields a
Kronecker delta.  ``build_point_test`` solves for the two polynomial
pieces of the test function attached to an interface: every pairing of
a piece with a basis function vanishes, except against the two pieces
of the interface basis function, where a free weight alpha splits the
unit pairing into (1+alpha)/2 on the left cell and (1-alpha)/2 on the
right.  alpha = +1/-1 is full upwinding, alpha = 0 central.

Both systems are written for the monomial coefficients themselves and
solved in exact rational arithmetic, one elimination per system matrix
(every alpha shares the Gram matrix; a float alpha enters at its exact
binary value), so their answer is unique whatever basis they are written in.
An interface derivative is the pairing (``poly.inner``) of the two test
pieces with the derivative of the global reconstruction, that is with
each b_s' of the two cells meeting at the interface.  ``Element1D.dof_values`` applies every dof
functional to a polynomial; by biorthogonality, a moment weight or a
test piece pairs with any polynomial of the cell space as its dof
functional (the alpha = +1 left piece as the right-endpoint value, the
alpha = -1 right piece as the left-endpoint value), so the dof values
of each basis derivative b_s' give the runtime's rows directly (see
semidiscrete).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from afpg.poly import HALF, Poly, gram, gram_inverse, inner, solve_exact

__all__ = [
    "MomentWeight",
    "Element1D",
    "PointTest1D",
    "moment_weight",
    "build_element",
    "build_point_test",
    "reconstruct",
]


@dataclass(frozen=True)
class MomentWeight:
    """Weight polynomial of the k-th moment, in xi units."""

    k: int
    poly: Poly


def moment_weight(k: int) -> MomentWeight:
    if k < 0:
        raise ValueError("moment index must be >= 0")
    return MomentWeight(k, Poly([0] * k + [(k + 1) * 2**k]))


@dataclass(frozen=True)
class Element1D:
    """Dual basis of the degree-K cell.

    Basis functions are ordered to match the cellwise dof layout
    (left endpoint value, moments 0..K-2, right endpoint value).
    """

    k: int
    basis_left: Poly
    basis_moments: tuple
    basis_right: Poly
    moment_weights: tuple

    def basis(self):
        return (self.basis_left, *self.basis_moments, self.basis_right)

    def dof_values(self, p: Poly):
        """Apply every degree-of-freedom functional to p."""
        mids = tuple(inner(w.poly, p) for w in self.moment_weights)
        return (p(-HALF), *mids, p(HALF))


@dataclass(frozen=True)
class PointTest1D:
    """Interface test function, stored as its two cellwise pieces.

    ``left`` is the restriction to the cell left of the interface (the
    piece carrying the (1+alpha)/2 pairing), ``right`` the restriction
    to the cell on the right.
    """

    left: Poly
    right: Poly


@lru_cache(maxsize=None)
def build_element(k: int) -> Element1D:
    """Construct the degree-K element, exactly (cached: it is immutable):
    column s of the inverse of the dof functionals applied to the
    monomials holds the coefficients of basis function s."""
    if k < 2:
        raise ValueError(f"element degree must be >= 2, got {k}")
    weights = tuple(moment_weight(kk) for kk in range(k - 1))
    n = k + 1
    rows = [[(-HALF) ** j for j in range(n)], *gram([w.poly for w in weights], (n,)),
            [HALF**j for j in range(n)]]
    inverse = solve_exact(rows)
    basis = [Poly([row[s] for row in inverse]) for s in range(n)]
    return Element1D(k, basis[0], tuple(basis[1:-1]), basis[-1], weights)


def build_point_test(element: Element1D, alpha) -> PointTest1D:
    """The interface test-function pieces at upwind weight alpha: each
    pairs with one endpoint basis function only, so it is a multiple of
    one column of the basis's cached Gram inverse."""
    af = Fraction(alpha)
    inverse = gram_inverse(element.basis(), (element.k + 1,))
    left = Poly([(HALF + af / 2) * row[-1] for row in inverse])
    right = Poly([(HALF - af / 2) * row[0] for row in inverse])
    return PointTest1D(left, right)


def reconstruct(element: Element1D, dofs) -> Poly:
    """Cell polynomial matching the given dofs (left, moments, right)."""
    basis = element.basis()
    if len(dofs) != len(basis):
        raise ValueError(f"expected {len(basis)} dofs, got {len(dofs)}")
    total = Poly([0])
    for v, b in zip(dofs, basis):
        total = total + v * b
    return total
