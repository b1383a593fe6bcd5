"""Python's float ``repr``, computed for a whole array at once, as ASCII.

``repr_bytes(values)`` is an (n, WIDTH) uint8 array whose row i, with
its NUL bytes dropped, is ``repr(v).encode()`` for the i-th of
``np.asarray(values, dtype=float).ravel().tolist()``.  No Python string
is made for a value on the fast path below, which numpy arithmetic
formats; every value off it goes through ``repr`` itself.

The fast path takes finite x with 1e-6 <= |x| < 1e16 that is not a
power of two (whose rounding interval is asymmetric).  With
E = floor(log10 |x|) and s = 16 - E, both |x| and 10**s are doubles
(s <= 22), so Dekker's two-product gives |x| * 10**s = p + e exactly:
the integer b = p + floor(e), 10**16 <= b < 10**17, plus a fraction in
[0, 1).  D15, D16 and D17 are that value rounded half-even to 15, 16 and
17 digits; e reaches +-8 units, so the rounding carries through
floor(e), not through +-1.

``repr`` is the shortest decimal that reads back to x, the nearest such
one if there are several (Gay 1990).  A decimal reads back to x when it
lies within half an ulp of x, and the nearest 15-digit decimal D15 does
so whenever any decimal of at most 15 digits does, so the answer is D15
without its trailing zeros if D15 reads back, else D16 if it reads back,
else D17.  Whether a candidate reads back is decided exactly: its
distance to x is an integer minus e, one rounded subtraction whose
result is compared with half an ulp (also exact at that scale); only
when the rounded distance equals half an ulp is the answer unknown, and
the value leaves the fast path, as does one whose rounding carries into
a new leading digit.

The text follows ``repr``'s layout: fixed notation for -4 <= E < 16,
with ``.0`` after an integer, and ``d.ddde-XX`` below 1e-4.  A fast-path
row is a head of ``_HEAD`` bytes (the sign, and between 1e-4 and 0.1 the
"0." and zeros before the first digit) and a body of ``_BODY`` bytes,
each NUL-padded; a row off the fast path holds the whole ``repr``, at
most 24 bytes, then NULs.
"""

from __future__ import annotations

import numpy as np

__all__ = ["WIDTH", "repr_bytes"]

_HEAD = 6  # the longest head, "-0.000"
_BODY = 22  # 17 digits, the point and "e-0d"
WIDTH = _HEAD + _BODY
# the head of a fast-path value, by index 2 * (-E) + (x < 0) for
# -4 <= E < 0, else (x < 0)
_HEADS = np.array([b"", b"-", b"0.", b"-0.", b"0.0", b"-0.0", b"0.00", b"-0.00", b"0.000",
                   b"-0.000"], f"S{_HEAD}").view(np.uint8).reshape(-1, _HEAD)

_POW10 = np.array([float(10**s) for s in range(23)])  # exact doubles
_SPLIT = 134217729.0  # 2**27 + 1, Veltkamp's splitter


def _split(a):
    """(hi, lo) with hi + lo == a exactly, each at most 26 bits wide."""
    t = _SPLIT * a
    hi = t - (t - a)
    return hi, a - hi


_POW10_HI, _POW10_LO = _split(_POW10)
# the four ASCII digits of c, for c in 0..9999, packed in one uint32
# (built in uint16, which keeps the import's peak memory 1 MB lower)
_DIGITS4 = (np.arange(10000, dtype=np.uint16)[:, None] // np.array([1000, 100, 10, 1], np.uint16)
            % 10 + 48).astype(np.uint8).view(np.uint32).ravel()
# character positions down a column: the bodies are laid out one per
# column, so that every step below runs along contiguous rows
_POS = np.arange(_BODY, dtype=np.uint8)[:, None]
_MANTISSA = np.uint64(2**52 - 1)
# formatting holds about 180 B of arrays per value: repr_bytes formats at
# most this many values at once
_CHUNK = 2048


def _round(b, ei, e, div):
    """(b + e - ei) / div rounded half-even, for integers b and ei.

    The remainder's sign against div/2 is that of one float sum of a
    small integer and e, which rounding cannot flip.
    """
    q = b // div
    t = ((b - q * div) - div / 2 - ei) + e
    return q + ((t > 0) | ((t == 0) & ((q & 1) == 1)))


def _shortest(v):
    """(g, exp, fast): for each value on the fast path (``fast``), the
    digits of its ``repr`` as the 17-digit integer g, trailing zeros
    added, and E = floor(log10 |x|)."""
    a = np.abs(v)
    fast = (a >= 1e-6) & (a < 1e16) & (v.view(np.uint64) & _MANTISSA != 0)
    a = np.where(fast, a, 1.5)  # off the fast path: any value that keeps it finite
    exp = np.clip(np.floor(np.log10(a)).astype(np.int64), -6, 15)
    s = 16 - exp
    # Dekker's two-product: a * 10**s == p + e exactly
    p = a * _POW10[s]
    ah, al = _split(a)
    th, tl = _POW10_HI[s], _POW10_LO[s]
    e = ((ah * th - p) + ah * tl + al * th) + al * tl
    ei = np.floor(e)
    b = p.astype(np.int64) + ei.astype(np.int64)
    # tested on b, not p: p can round up to 10**16 from below
    fast &= (b >= 10**16) & (b < 10**17)

    d15 = _round(b, ei, e, 100)
    d16 = _round(b, ei, e, 10)
    half = np.spacing(a) * _POW10[s] / 2
    off15 = np.abs(((d15 * 100 - b) + ei) - e)
    off16 = np.abs(((d16 * 10 - b) + ei) - e)
    ok15 = off15 < half
    ok16 = off16 < half
    g = np.where(ok15, d15 * 100, np.where(ok16, d16 * 10, _round(b, ei, e, 1)))
    fast &= (off15 != half) & (ok15 | (off16 != half)) & (g < 10**17)
    return g, exp, fast


def _body(g, exp, sci):
    """(_BODY, n) uint8 characters, NUL-padded: each value's body down a
    column, from its digits ``g`` and exponent ``exp``; ``sci`` marks the
    values written in scientific notation."""
    n = len(g)
    # the 17 digits of g, then how many of them precede the trailing zeros
    digits = np.empty((17, n), np.uint8)
    lead = g // 10**16
    digits[0] = lead + 48
    rest = g - lead * 10**16
    for row in (1, 5, 9, 13):
        scale = 10 ** (13 - row)
        group = rest // scale
        rest -= group * scale
        digits[row:row + 4] = _DIGITS4[group].view(np.uint8).reshape(n, 4).T
    ndig = np.max(_POS[1:18] * (digits != 48), axis=0)

    # the point follows `dot` digits: E + 1 in fixed notation, 1 in
    # scientific, none (17) below 0.1, where the head holds the "0."
    fixed_int = exp >= 0
    dot = np.where(fixed_int, exp + 1, np.where(sci, 1, 17)).astype(np.uint8)
    end = np.where(fixed_int, np.maximum(ndig, exp + 2) + 1,
                   ndig + (sci & (ndig > 1))).astype(np.uint8)
    body = np.zeros((_BODY, n), np.uint8)
    body[:17] = digits
    body[1:18] += (digits - body[1:18]) * (_POS[1:18] > dot)
    body += (46 - body) * (_POS == dot)
    body *= _POS < end
    cols = np.flatnonzero(sci)
    if len(cols):
        marks = np.empty((4, len(cols)), np.uint8)
        marks[:3] = np.array([[101], [45], [48]])  # "e-0"
        marks[3] = 48 - exp[cols]
        body[end[cols] + _POS[:4], cols] = marks
    return body


def _format(v, out):
    """Fill the (len(v), WIDTH) rows ``out`` with the float64 values ``v``."""
    g, exp, fast = _shortest(v)
    sci = exp < -4
    out[:, :_HEAD] = _HEADS[(v < 0) + np.where((exp < 0) & ~sci, -2 * exp, 0)]
    out[:, _HEAD:] = _body(g, exp, sci & fast).T
    slow = np.flatnonzero(~fast)
    out[slow] = np.array([repr(x).encode() for x in v[slow].tolist()],
                         f"S{WIDTH}").view(np.uint8).reshape(-1, WIDTH)


def repr_bytes(values):
    """(n, WIDTH) uint8: row i is the ``repr`` of the i-th value as
    float64, in ASCII, NUL-padded (the NULs can sit inside the row, so
    drop them rather than strip them), formatted ``_CHUNK`` values at a
    time."""
    v = np.asarray(values, dtype=float).ravel()
    out = np.empty((len(v), WIDTH), np.uint8)
    for i in range(0, len(v), _CHUNK):
        _format(v[i:i + _CHUNK], out[i:i + _CHUNK])
    return out
