"""Exact polynomial algebra on the reference cell.

A polynomial in d variables is stored by its monomial coefficients in
the dimensionless cell coordinates, xi = x/dx and then eta = y/dy, each
running over [-1/2, 1/2]: one array axis per variable, so
``coeffs[k, l]`` multiplies xi**k eta**l.  A 1-d cell's polynomials
have one axis and a 2-d cell's two, and ``tensor`` multiplies 1-d
pieces into a 2-d one.  Coefficients may be ints, Fractions
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

    def tensor(self, other: "Poly") -> "Poly":
        """The product of self in the leading variables and other in the rest."""
        return Poly(np.multiply.outer(self.coeffs, other.coeffs))

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


def _legval(x, c):
    """The Legendre series c at x by Clenshaw's recursion, operation for
    operation as numpy's ``legval``."""
    c0, c1 = (c[0], 0) if len(c) == 1 else (c[-2], c[-1])
    nd = len(c)
    for ci in reversed(c[:-2]):
        nd -= 1
        c0, c1 = ci - c1 * ((nd - 1) / nd), c0 + c1 * x * ((2 * nd - 1) / nd)
    return c0 + c1 * x


@lru_cache(maxsize=None)
def gauss_rule(n: int) -> QuadratureRule:
    """n-point Gauss-Legendre rule on [-1/2, 1/2], exact to degree 2n-1.

    The nodes and weights are half of numpy's ``leggauss(n)``, bit for
    bit: the same steps (eigenvalues of the symmetric companion matrix of
    P_n, one Newton step, symmetrised weights scaled to sum to 2), done
    here so that a run never imports ``numpy.polynomial``, whose nine
    modules add to every run's footprint and take 3-5 ms to import.
    numpy's weights are not correctly rounded (up to 63 ulps off at
    n = 16), but every projected state depends on these bits, so they
    are kept.
    """
    if not 1 <= n <= 16:
        raise ValueError(f"gauss_rule supports 1 <= n <= 16, got {n}")
    c = [0.0] * n + [1.0]
    scl = 1.0 / np.sqrt(2 * np.arange(n) + 1)
    off = np.arange(1, n) * scl[:-1] * scl[1:]
    x = np.linalg.eigvalsh(np.diag(off, 1) + np.diag(off, -1))
    # P_n' = sum of (2j + 1) P_j over j = n-1, n-3, ..., exact as numpy's legder
    df = _legval(x, [float(2 * j + 1) if (n - j) % 2 else 0.0 for j in range(n)])
    x -= _legval(x, c) / df
    fm = _legval(x, c[1:])
    w = 1 / ((fm / np.abs(fm).max()) * (df / np.abs(df).max()))
    w = (w + w[::-1]) / 2
    x = (x - x[::-1]) / 2
    w *= 2.0 / w.sum()
    return QuadratureRule(tuple(0.5 * x), tuple(0.5 * w))


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
