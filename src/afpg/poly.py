"""Exact polynomial algebra on the reference cell.

A polynomial in d variables is stored by its monomial coefficients in
the dimensionless cell coordinates, xi = x/dx and then eta = y/dy, each
running over [-1/2, 1/2]: one array axis per variable, so
``coeffs[k, l]`` multiplies xi**k eta**l.  A 1-d cell's polynomials
have one axis and a 2-d cell's two.  Coefficients may be ints, Fractions
or floats.  With rational coefficients every operation here is exact,
which is what the element construction relies on; float coefficients
give ordinary floating-point arithmetic for runtime use.

Physical units stay out of this module: integrals are taken in xi (and
eta), so pairings in physical units carry an explicit dx factor at the
call site, and physical derivatives carry 1/dx.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import Decimal, localcontext
from fractions import Fraction
from functools import lru_cache

import numpy as np

__all__ = [
    "HALF",
    "Poly",
    "QuadratureRule",
    "integrate",
    "inner",
    "gram",
    "gram_inverse",
    "gauss_rule",
    "solve_exact",
]

HALF = Fraction(1, 2)


def _trimmed(coeffs) -> np.ndarray:
    """Object array of the coefficients without trailing zero slices on any axis."""
    c = np.array(coeffs, dtype=object)
    if c.size == 0:
        return np.zeros((1,) * max(c.ndim, 1), dtype=object)
    for axis in range(c.ndim):
        live = np.moveaxis(c != 0, axis, 0).reshape(c.shape[axis], -1).any(axis=1)
        c = c.take(range(max(np.flatnonzero(live), default=0) + 1), axis=axis)
    return c


def _horner(c, xs):
    acc = 0
    for sub in reversed(c):
        acc = acc * xs[0] + (_horner(sub, xs[1:]) if len(xs) > 1 else sub)
    return acc


class Poly:
    """Polynomial sum over k, l, ... of coeffs[k, l, ...] xi**k eta**l ...
    on [-1/2, 1/2]^d, d = coeffs.ndim."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=(0,)):
        self.coeffs = _trimmed(coeffs)

    def _lift(self, other) -> "Poly":
        if not isinstance(other, Poly):
            return Poly(np.full((1,) * self.coeffs.ndim, other, dtype=object))
        if other.coeffs.ndim != self.coeffs.ndim:
            raise ValueError("polynomials in different numbers of variables")
        return other

    def __call__(self, *xs):
        """Horner's rule, the last variable innermost."""
        if len(xs) != self.coeffs.ndim:
            raise TypeError(f"expected {self.coeffs.ndim} coordinates, got {len(xs)}")
        return _horner(self.coeffs, xs)

    def __add__(self, other):
        b = self._lift(other).coeffs
        out = np.zeros(np.maximum(self.coeffs.shape, b.shape), dtype=object)
        for c in (self.coeffs, b):
            out[tuple(map(slice, c.shape))] += c
        return Poly(out)

    __radd__ = __add__

    def __neg__(self):
        return Poly(-self.coeffs)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, Poly):
            return Poly(self.coeffs * other)
        a, b = self.coeffs, self._lift(other).coeffs
        out = np.zeros(np.add(a.shape, b.shape) - 1, dtype=object)
        for idx, c in np.ndenumerate(a):
            if c != 0:
                out[tuple(slice(i, i + n) for i, n in zip(idx, b.shape))] += c * b
        return Poly(out)

    __rmul__ = __mul__

    def deriv(self, axis: int = 0) -> "Poly":
        """Derivative in the variable of ``axis`` (0: xi, 1: eta)."""
        c = np.moveaxis(self.coeffs, axis, 0)
        k = np.arange(len(c), dtype=object).reshape((-1,) + (1,) * (c.ndim - 1))
        return Poly(np.moveaxis((k * c)[1:], 0, axis))

    def transpose(self) -> "Poly":
        """Reverse the order of the variables (swap xi and eta in 2-d)."""
        return Poly(self.coeffs.T)

    @property
    def float_coeffs(self) -> np.ndarray:
        return self.coeffs.astype(float)

    def __eq__(self, other):
        return (isinstance(other, Poly) and self.coeffs.shape == other.coeffs.shape
                and bool((self.coeffs == other.coeffs).all()))

    def __hash__(self):
        return hash((self.coeffs.shape, *self.coeffs.flat))

    def __repr__(self):
        return f"Poly({self.coeffs.tolist()!r})"


@lru_cache(maxsize=None)
def _mono_integral(k: int) -> Fraction:
    # integral of xi^k over [-1/2, 1/2]
    return Fraction(0) if k % 2 else Fraction(1, (k + 1) * 2**k)


def integrate(p: Poly):
    """Integral of p over [-1/2, 1/2]^d; exact for rational coefficients."""
    return gram([p], (1,) * p.coeffs.ndim)[0][0]


def inner(p: Poly, q: Poly):
    """L2 pairing of p and q over the reference cell, in xi (and eta) units."""
    return integrate(p * q)


def gram(polys, shape):
    """Exact pairings (as ``inner``) of each of polys with each monomial of
    the tensor space ``shape`` (C order), from the closed-form monomial
    moments: the coefficients times the moments, no polynomial products."""
    return [[sum(c * math.prod(_mono_integral(i + j) for i, j in zip(idx, m))
                 for idx, c in np.ndenumerate(p.coeffs)
                 if c != 0 and not any((i + j) % 2 for i, j in zip(idx, m)))
             for m in np.ndindex(*shape)] for p in polys]


@lru_cache(maxsize=None)
def gram_inverse(polys: tuple, shape: tuple):
    """Exact inverse of ``gram(polys, shape)``, cached (read-only): column
    s holds the coefficients of the polynomial of the space that pairs
    to 1 with polys[s] and to 0 with every other of polys."""
    return solve_exact(gram(polys, shape))


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


def _legendre(n: int, x):
    """P_n(x) and P_n'(x) by the three-term recurrence."""
    p, q = x, 1
    for k in range(1, n):
        p, q = ((2 * k + 1) * x * p - k * q) / (k + 1), p
    return p, n * (q - x * p) / (1 - x * x)


@lru_cache(maxsize=None)
def gauss_rule(n: int) -> QuadratureRule:
    """n-point Gauss-Legendre rule on [-1/2, 1/2], exact to degree 2n-1.

    Each root x of P_n comes from seven Newton steps in 40-digit decimal
    arithmetic, started within 0.011 of it; node x/2 and weight
    1/((1 - x^2) P_n'(x)^2) are each rounded to float once.
    ``test_nodes_and_weights_are_correctly_rounded`` proves every entry
    correctly rounded for n <= 16, which is why 40 digits are enough.
    No run imports ``numpy.polynomial``.
    """
    if not 1 <= n <= 16:
        raise ValueError(f"gauss_rule supports 1 <= n <= 16, got {n}")
    nodes, weights = [], []
    with localcontext() as ctx:
        ctx.prec = 40
        for i in range(n):
            x = Decimal(-math.cos(math.pi * (i + 0.75) / (n + 0.5)))
            for _ in range(7):
                p, dp = _legendre(n, x)
                x -= p / dp
            dp = _legendre(n, x)[1]
            nodes.append(float(x) / 2)
            weights.append(float(1 / ((1 - x * x) * dp * dp)))
    return QuadratureRule(tuple(nodes), tuple(weights))


def solve_exact(matrix):
    """Exact inverse of a square matrix (list of rows) in Fractions, by
    one Gauss-Jordan elimination.  Raises on a singular matrix."""
    n = len(matrix)
    a = [[Fraction(x) for x in row] + [Fraction(int(r == c)) for c in range(n)]
         for r, row in enumerate(matrix)]
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
                a[r] = [x - f * y if y else x for x, y in zip(a[r], a[col])]
    return [row[n:] for row in a]
