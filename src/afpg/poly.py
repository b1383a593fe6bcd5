"""Exact polynomial algebra on the reference cell.

Polynomials are stored by monomial coefficients in the dimensionless
cell coordinate xi = x/dx, which runs over [-1/2, 1/2]; the bivariate
variant adds eta = y/dy on the same interval.  Coefficients may be
ints, Fractions or floats.  With rational coefficients every operation
here is exact, which is what the element construction relies on; float
coefficients give ordinary floating-point arithmetic for runtime use.

Physical units stay out of this module: integrals are taken in xi (and
eta), so pairings in physical units carry an explicit dx factor at the
call site, and physical derivatives carry 1/dx.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

__all__ = [
    "HALF",
    "Poly1",
    "Poly2",
    "QuadratureRule",
    "integrate1",
    "inner1",
    "integrate2",
    "inner2",
    "diff2",
    "gauss_rule",
    "solve_exact",
]

HALF = Fraction(1, 2)


def _trimmed(coeffs):
    coeffs = list(coeffs)
    if not coeffs:
        coeffs = [0]
    while len(coeffs) > 1 and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


def _exact_div(c, n):
    """c / n, staying rational when c is."""
    if isinstance(c, float):
        return c / n
    return Fraction(c, n)


class Poly1:
    """Univariate polynomial sum_k coeffs[k] * xi**k on [-1/2, 1/2]."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=(0,)):
        self.coeffs = _trimmed(coeffs)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __call__(self, xi):
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * xi + c
        return acc

    def __add__(self, other):
        if not isinstance(other, Poly1):
            other = Poly1([other])
        n = max(len(self.coeffs), len(other.coeffs))
        a = list(self.coeffs) + [0] * (n - len(self.coeffs))
        b = list(other.coeffs) + [0] * (n - len(other.coeffs))
        return Poly1(x + y for x, y in zip(a, b))

    __radd__ = __add__

    def __neg__(self):
        return Poly1(-c for c in self.coeffs)

    def __sub__(self, other):
        if not isinstance(other, Poly1):
            other = Poly1([other])
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, Poly1):
            out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
            for i, a in enumerate(self.coeffs):
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
            return Poly1(out)
        return Poly1(c * other for c in self.coeffs)

    __rmul__ = __mul__

    def deriv(self) -> "Poly1":
        if len(self.coeffs) == 1:
            return Poly1([0])
        return Poly1(k * c for k, c in enumerate(self.coeffs) if k > 0)

    def antideriv(self) -> "Poly1":
        return Poly1([0] + [_exact_div(c, k + 1) for k, c in enumerate(self.coeffs)])

    def as_float(self) -> "Poly1":
        return Poly1(float(c) for c in self.coeffs)

    @property
    def float_coeffs(self) -> np.ndarray:
        return np.array([float(c) for c in self.coeffs])

    def __eq__(self, other):
        return isinstance(other, Poly1) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        return f"Poly1({list(self.coeffs)!r})"


class Poly2:
    """Bivariate polynomial sum_kl coeffs[k][l] * xi**k * eta**l."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=((0,),)):
        rows = [list(r) for r in coeffs]
        if not rows:
            rows = [[0]]
        width = max(len(r) for r in rows)
        rows = [r + [0] * (width - len(r)) for r in rows]
        while len(rows) > 1 and all(c == 0 for c in rows[-1]):
            rows.pop()
        width = max(
            (max((l for l, c in enumerate(r) if c != 0), default=0) for r in rows),
            default=0,
        ) + 1
        self.coeffs = tuple(tuple(r[:width]) for r in rows)

    @classmethod
    def tensor(cls, p: Poly1, q: Poly1) -> "Poly2":
        return cls([[a * b for b in q.coeffs] for a in p.coeffs])

    @property
    def degrees(self):
        return (len(self.coeffs) - 1, len(self.coeffs[0]) - 1)

    def __call__(self, xi, eta):
        acc = 0
        for row in reversed(self.coeffs):
            r = 0
            for c in reversed(row):
                r = r * eta + c
            acc = acc * xi + r
        return acc

    def __add__(self, other):
        if not isinstance(other, Poly2):
            other = Poly2([[other]])
        nk = max(len(self.coeffs), len(other.coeffs))
        nl = max(len(self.coeffs[0]), len(other.coeffs[0]))
        out = [[0] * nl for _ in range(nk)]
        for src in (self.coeffs, other.coeffs):
            for k, row in enumerate(src):
                for l, c in enumerate(row):
                    out[k][l] += c
        return Poly2(out)

    __radd__ = __add__

    def __neg__(self):
        return Poly2([[-c for c in row] for row in self.coeffs])

    def __sub__(self, other):
        if not isinstance(other, Poly2):
            other = Poly2([[other]])
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, Poly2):
            nk = len(self.coeffs) + len(other.coeffs) - 1
            nl = len(self.coeffs[0]) + len(other.coeffs[0]) - 1
            out = [[0] * nl for _ in range(nk)]
            for k1, r1 in enumerate(self.coeffs):
                for l1, c1 in enumerate(r1):
                    if c1 == 0:
                        continue
                    for k2, r2 in enumerate(other.coeffs):
                        for l2, c2 in enumerate(r2):
                            out[k1 + k2][l1 + l2] += c1 * c2
            return Poly2(out)
        return Poly2([[c * other for c in row] for row in self.coeffs])

    __rmul__ = __mul__

    def transpose(self) -> "Poly2":
        """Swap the roles of xi and eta."""
        nk, nl = len(self.coeffs), len(self.coeffs[0])
        return Poly2([[self.coeffs[k][l] for k in range(nk)] for l in range(nl)])

    def as_float(self) -> "Poly2":
        return Poly2([[float(c) for c in row] for row in self.coeffs])

    @property
    def float_coeffs(self) -> np.ndarray:
        return np.array([[float(c) for c in row] for row in self.coeffs])

    def __eq__(self, other):
        return isinstance(other, Poly2) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        return f"Poly2({[list(r) for r in self.coeffs]!r})"


def integrate1(p: Poly1):
    """Integral of p over [-1/2, 1/2]; exact for rational coefficients."""
    anti = p.antideriv()
    return anti(HALF) - anti(-HALF)


def inner1(p: Poly1, q: Poly1):
    """L2 pairing of p and q over the reference interval, in xi units."""
    return integrate1(p * q)


@lru_cache(maxsize=None)
def _mono_integral(k: int) -> Fraction:
    # integral of xi^k over [-1/2, 1/2]
    if k % 2:
        return Fraction(0)
    return Fraction(1, (k + 1) * 2**k)


def integrate2(p: Poly2):
    """Integral of p over [-1/2, 1/2]^2."""
    total = 0
    for k, row in enumerate(p.coeffs):
        ik = _mono_integral(k)
        if ik == 0:
            continue
        for l, c in enumerate(row):
            if c == 0:
                continue
            il = _mono_integral(l)
            if il != 0:
                total += c * ik * il
    return total


def inner2(p: Poly2, q: Poly2):
    return integrate2(p * q)


def diff2(p: Poly2, axis) -> Poly2:
    """Derivative of p in xi (axis "x") or eta (axis "y")."""
    if axis == "x":
        return Poly2([[k * c for c in row] for k, row in enumerate(p.coeffs) if k > 0])
    if axis == "y":
        return Poly2([[l * c for l, c in enumerate(row) if l > 0] or [0] for row in p.coeffs])
    raise ValueError(f"axis must be 'x' or 'y', got {axis!r}")


@dataclass(frozen=True)
class QuadratureRule:
    """Gauss-Legendre nodes and weights on [-1/2, 1/2]; weights sum to 1."""

    nodes: tuple
    weights: tuple

    @property
    def nodes_array(self) -> np.ndarray:
        return np.array(self.nodes)

    @property
    def weights_array(self) -> np.ndarray:
        return np.array(self.weights)

    def integrate(self, f) -> float:
        return float(sum(w * f(x) for x, w in zip(self.nodes, self.weights)))


@lru_cache(maxsize=None)
def gauss_rule(n: int) -> QuadratureRule:
    """n-point Gauss-Legendre rule on [-1/2, 1/2], exact to degree 2n-1."""
    if not 1 <= n <= 16:
        raise ValueError(f"gauss_rule supports 1 <= n <= 16, got {n}")
    x, w = np.polynomial.legendre.leggauss(n)
    return QuadratureRule(tuple(0.5 * x), tuple(0.5 * w))


def solve_exact(matrix, rhs):
    """Solve a small linear system by Gaussian elimination.

    Entries are taken as Fractions, so the result is exact; raises on a
    singular matrix.
    """
    n = len(rhs)
    a = [[Fraction(x) for x in row] + [Fraction(rhs[i])] for i, row in enumerate(matrix)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if a[r][col] != 0), None)
        if pivot is None:
            raise ValueError("singular linear system")
        a[col], a[pivot] = a[pivot], a[col]
        inv = 1 / a[col][col]
        a[col] = [x * inv for x in a[col]]
        for r in range(n):
            if r != col and a[r][col] != 0:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return [row[-1] for row in a]
