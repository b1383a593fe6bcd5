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
the integer b = p + floor(e), 10**16 <= b < 10**17, plus a fraction
f = e - floor(e) in [0, 1).  D15, D16 and D17 are b + f rounded
half-even to 15, 16 and 17 digits; e reaches +-8 units, so the rounding
carries through floor(e), not through +-1.

``repr`` is the shortest decimal that reads back to x, the nearest such
one if there are several (Gay 1990).  A decimal reads back to x when it
lies within half an ulp of x, and the nearest 15-digit decimal D15 does
so whenever any decimal of at most 15 digits does, so the answer is D15
without its trailing zeros if D15 reads back, else D16 if it reads back,
else D17.  Whether a candidate reads back is decided exactly: its
distance to b + f is an integer minus f, one rounded subtraction whose
result is compared with half an ulp (also exact at that scale); only
when the rounded distance equals half an ulp is the answer unknown, and
the value leaves the fast path, as does one whose rounding carries into
a new leading digit.

The text follows ``repr``'s layout: fixed notation for -4 <= E < 16,
with ``.0`` after an integer, and ``d.ddde-XX`` below 1e-4.  A fast-path
row is the sign or a NUL, then the rest of a head of ``_HEAD`` bytes
(between 1e-4 and 0.1 the "0." and zeros before the first digit), then
a body of ``_BODY`` bytes, each NUL-padded; a row off the fast path
holds the whole ``repr``, at most 24 bytes, then NULs.  Which bytes of
a body are digits, and where the point and the exponent go, depends
only on E and on the number of digits before the trailing zeros, so
the rows are built as 32-byte words from three masks looked up by
those two numbers (``_LAYOUTS``): the digits in place, the digits one
byte on (after the point), and the constant bytes.

Every step runs in place on a few arrays of ``_CHUNK`` values, so one
call of ``_format`` holds about 115 B of arrays per value.
"""

from __future__ import annotations

import numpy as np

__all__ = ["WIDTH", "repr_bytes"]

_HEAD = 6  # the longest head, "-0.000"
_BODY = 22  # 17 digits, the point and "e-0d"
WIDTH = _HEAD + _BODY
_ROW = 32  # a row while it is built: four uint64 words, the first WIDTH bytes kept

_POW10 = np.array([float(10**s) for s in range(23)])  # exact doubles
_SPLIT = 134217729.0  # 2**27 + 1, Veltkamp's splitter


def _split(a):
    """(hi, lo) with hi + lo == a exactly, each at most 26 bits wide."""
    t = _SPLIT * a
    hi = t - (t - a)
    return hi, a - hi


_POW10_HI, _POW10_LO = _split(_POW10)
_EXPONENT = np.uint64(0x7FF << 52)  # the bits of 2**k, for 2**k <= |x| < 2**(k+1)
_MANTISSA = np.uint64(2**52 - 1)


def _groups():
    """(digits, counts) for c in 0..9999: c's four ASCII digits packed in
    one uint32, and how many of them precede c's trailing zeros, -16 for
    c = 0 so that it never counts (both filled in place, which keeps the
    import small)."""
    digits = np.empty((10, 10, 10, 10, 4), np.uint8)
    ascii_digits = np.arange(48, 58, dtype=np.uint8)
    digits[..., 0] = ascii_digits[:, None, None, None]
    digits[..., 1] = ascii_digits[:, None, None]
    digits[..., 2] = ascii_digits[:, None]
    digits[..., 3] = ascii_digits
    counts = np.full((10, 10, 10, 10), 4, np.int8)
    counts[..., 0] = 3
    counts[..., 0, 0] = 2
    counts[:, 0, 0, 0] = 1
    counts[0, 0, 0, 0] = -16
    return digits.view(np.uint32).ravel(), counts.ravel()


_DIGITS4, _COUNTS = _groups()
# where each group of four starts in the 17 digits
_PLACES = np.array([[1], [5], [9], [13]], np.int8)


def _layouts():
    """(keep, shifted, marks): three (22 * 17, 4) uint64 tables of row
    masks, row 17 (E + 6) + ndig - 1 for E in -6..15 and ndig in 1..17,
    the digits before the trailing zeros.  ``keep`` takes the digits that
    stay where they are written (the 17 digits from byte ``_HEAD`` on),
    ``shifted`` the digits written one byte on (those after the point),
    and ``marks`` holds the head after the sign, the point and the
    exponent.
    """
    exp = np.arange(-6, 16, dtype=np.int8)[:, None, None]
    ndig = np.arange(1, 18, dtype=np.int8)[None, :, None]
    pos = np.arange(_ROW, dtype=np.int8) - _HEAD  # place in the body
    sci = exp < -4
    # the point follows `point` digits: E + 1 in fixed notation, 1 in
    # scientific unless there is one digit, none below 0.1 (the head
    # holds the "0."); the body ends at `end`
    point = np.where(exp >= 0, exp + 1, np.where(sci & (ndig > 1), 1, _ROW)).astype(np.int8)
    end = np.where(exp >= 0, np.maximum(ndig, exp + 2) + 1, ndig + (sci & (ndig > 1)))
    keep = (pos >= 0) & (pos < np.minimum(point, end))
    shifted = (pos > point) & (pos < end)
    marks = (pos == point) * np.uint8(ord("."))
    for e in range(-4, 0):
        head = np.frombuffer(b"0." + b"0" * (-e - 1), np.uint8)
        marks[e + 6, :, 1:1 + len(head)] = head
    for e in (-6, -5):
        for k in range(17):
            at = _HEAD + end[e + 6, k, 0]
            marks[e + 6, k, at:at + 4] = np.frombuffer(b"e-0%d" % -e, np.uint8)
    return tuple(np.ascontiguousarray(m, np.uint8).reshape(-1, _ROW).view(np.uint64)
                 for m in (keep * np.uint8(255), shifted * np.uint8(255), marks))


_LAYOUTS = _layouts()
# Values formatted at once.  A chunk takes about 100 numpy calls of about
# 1 us overhead each, and _format holds about 115 B of arrays per value.
# The CSV writer hands it blocks of as many lines (see grid.py for the
# sweep).
_CHUNK = 3072


def _shortest(v):
    """(g, s, fast): for each value on the fast path (``fast``), the
    digits of its ``repr`` as the 17-digit integer g, trailing zeros
    added, and s = 16 - E with E = floor(log10 |x|).

    The float64 buffers are reused as they fall free; a name says what a
    buffer holds from there on."""
    a = np.abs(v)
    fast = a >= 1e-6
    fast &= a < 1e16
    fast &= (v.view(np.uint64) & _MANTISSA) != 0
    np.putmask(a, ~fast, 1.5)  # off the fast path: any value that keeps it finite
    w = np.log10(a)
    np.floor(w, out=w)
    np.maximum(w, -6, out=w)
    np.minimum(w, 15, out=w)
    np.subtract(16, w, out=w)
    s = w.astype(np.intp)
    th = np.take(_POW10_HI, s, out=w, mode="clip")
    tl = np.take(_POW10_LO, s, mode="clip")
    pw = th + tl  # 10**s
    p = a * pw
    # Dekker's two-product: a * 10**s == p + e exactly
    hi = a * _SPLIT
    lo = hi - a
    hi -= lo
    np.subtract(a, hi, out=lo)
    e = hi * th
    e -= p
    e += np.multiply(hi, tl, out=hi)
    e += np.multiply(lo, th, out=th)
    e += np.multiply(lo, tl, out=lo)
    # b = p + floor(e) as an integer, and f = e - floor(e), exactly
    ei = np.floor(e, out=hi)
    f = np.subtract(e, ei, out=e)
    b = lo.view(np.int64)
    np.copyto(b, p, casting="unsafe")
    np.copyto(th.view(np.int64), ei, casting="unsafe")
    b += th.view(np.int64)
    # tested on b, not p: p can round up to 10**16 from below
    fast &= b >= 10**16
    fast &= b < 10**17
    # half an ulp of x, times 10**s
    half = a
    np.bitwise_and(a.view(np.uint64), _EXPONENT, out=half.view(np.uint64))
    half *= pw
    half *= 2.0**-53

    c15, ok15, tie15 = _candidate(b, f, half, 100)
    c16, ok16, tie16 = _candidate(b, f, half, 10)
    # D17 rounds f alone, and f - 1/2 is exact
    up = f > 0.5
    tie = f == 0.5
    if tie.any():
        up |= tie & ((b & 1) == 1)
    c15 += b
    c16 += b
    b += up
    np.putmask(b, ok16, c16)
    np.putmask(b, ok15, c15)
    fast &= ~tie15
    fast &= ok15 | ~tie16
    fast &= b < 10**17
    return b, s, fast


def _candidate(b, f, half, unit):
    """(c, ok, tie) for the candidate D, b + f rounded half-even to a
    multiple of ``unit`` (100 for D15, 10 for D16): c = D - b, whether D
    reads back (its distance to b + f, |c - f| rounded once, is below
    half an ulp) and whether that is unknown (the distance equals it)."""
    c = b + unit // 2
    c //= unit
    c *= unit
    c -= b
    # that rounds half up; at an exact tie (f == 0 and c == unit / 2),
    # round half even instead
    tie = f == 0
    if tie.any():
        tie &= c == unit // 2
        tie &= ((b + c) // unit & 1) == 1
        c -= tie * unit
    off = c - f
    np.abs(off, out=off)
    return c, off < half, off == half


def _text(g, s, v):
    """(n, _ROW) uint8 rows: each value's sign, head and body (module
    docstring), from its digits ``g`` and s = 16 - E; rows off the fast
    path hold anything."""
    n = len(g)
    # the 17 digits: the lead, then four groups of four
    halves = np.empty((2, n), np.int64)
    np.floor_divide(g, 10**8, out=halves[0])
    np.subtract(g, halves[0] * 10**8, out=halves[1])
    groups = np.empty((4, n), np.intp)
    np.floor_divide(halves, 10**4, out=groups[0::2])
    np.subtract(halves, groups[0::2] * 10**4, out=groups[1::2])
    lead = np.floor_divide(groups[0], 10**4, out=halves[0])
    groups[0] -= lead * 10**4
    lead += 48
    digits = np.take(_DIGITS4, groups.T, mode="clip").view("V16")[:, 0]
    # the layout row, 17 (E + 6) + ndig - 1 = 373 - 17 s + ndig
    counts = np.take(_COUNTS, groups, mode="clip")
    counts += _PLACES
    layout = np.multiply(s, -17, out=s)
    layout += counts.max(axis=0, initial=1)
    layout += 373
    # each array is dropped once used: the three row buffers below set
    # the peak
    del groups, counts
    # the digits written at _HEAD and, for those after the point, one on
    rows = np.empty((n, _ROW // 8), np.uint64)
    shifted = np.empty_like(rows)
    for at, words in ((_HEAD, rows), (_HEAD + 1, shifted)):
        text = words.view(np.uint8)
        text[:, at] = lead
        text[:, at + 1:at + 17].view("V16")[:, 0] = digits
    del digits, halves, lead
    keep, after_point, marks = _LAYOUTS
    mask = np.take(keep, layout, axis=0, mode="clip")
    rows &= mask
    shifted &= np.take(after_point, layout, axis=0, out=mask, mode="clip")
    rows |= shifted
    rows |= np.take(marks, layout, axis=0, out=mask, mode="clip")
    text = rows.view(np.uint8)
    np.multiply(np.signbit(v), np.uint8(ord("-")), out=text[:, 0])
    return text


def _format(v, out):
    """Fill the (len(v), WIDTH) rows ``out`` with the float64 values ``v``."""
    g, s, fast = _shortest(v)
    out.view(f"V{WIDTH}")[:, 0] = _text(g, s, v)[:, :WIDTH].view(f"V{WIDTH}")[:, 0]
    if not fast.all():
        slow = np.flatnonzero(~fast)
        out[slow] = np.array([repr(x).encode() for x in v[slow].tolist()],
                             f"S{WIDTH}").view(np.uint8).reshape(-1, WIDTH)


def repr_bytes(values, rows=None):
    """(n, WIDTH) uint8: row i is the ``repr`` of the i-th value as
    float64, in ASCII, NUL-padded (the NULs can sit inside the row, so
    drop them rather than strip them), formatted ``_CHUNK`` values at a
    time.  ``rows``, if given, is an (n, WIDTH) uint8 array (any row
    stride, each row contiguous) to fill and return instead."""
    v = np.asarray(values, dtype=float).ravel()
    if rows is None:
        rows = np.empty((len(v), WIDTH), np.uint8)
    for i in range(0, len(v), _CHUNK):
        _format(v[i:i + _CHUNK], rows[i:i + _CHUNK])
    return rows
