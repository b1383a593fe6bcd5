"""The numpy float formatter against Python's own repr, string for string."""

import re

import numpy as np
import pytest

from afpg import _floatrepr
from afpg._floatrepr import WIDTH, repr_bytes

# value exactly halfway between two candidates of 17, 16 and 15 digits:
# x = m * 2**-(s + shift) with m odd and s = 16 - floor(log10 x)
_TIE_SHIFTS = {17: 1, 16: 0, 15: -1}


def _as_repr(values):
    return list(map(repr, np.asarray(values, dtype=float).ravel().tolist()))


def _texts(values):
    """The rows of ``repr_bytes(values)``, NULs dropped, as strings."""
    rows = repr_bytes(values)
    assert rows.dtype == np.uint8 and rows.shape == (np.size(values), WIDTH) and WIDTH >= 24
    lines = np.hstack([rows, np.full((len(rows), 1), ord("\n"), np.uint8)])
    return bytes(lines[lines != 0]).decode("ascii").split("\n")[:-1]


def _ties(rng, count, digits):
    out = []
    for exp in range(-6, 16):
        k = 16 - exp + _TIE_SHIFTS[digits]
        lo, hi = 10.0**exp, 10.0 ** (exp + 1)
        m = 2 * rng.integers(int(lo * 2.0**k) // 2, int(hi * 2.0**k) // 2, count) + 1
        x = m[m < 2**53] * 2.0**-k
        out.append(x[(x >= lo) & (x < hi)])
    return np.concatenate(out)


def _families(rng, n):
    sign = np.where(rng.random(n) < 0.5, -1.0, 1.0)
    powers = 10.0 ** np.arange(-25, 25)
    return {
        "normal": rng.standard_normal(n),
        "uniform": rng.random(n),
        "log-uniform": sign * 10.0 ** rng.uniform(-17, 17, n),
        "bits": rng.integers(0, 2**64, n // 10, dtype=np.uint64).view(np.float64),
        "powers of ten": np.concatenate(
            [powers, np.nextafter(powers, 0), np.nextafter(powers, np.inf), -powers]),
        "integers": rng.integers(-(10**16), 10**16, n // 2).astype(float),
        "k/1024": rng.integers(-(10**9), 10**9, n // 2) / 1024,
        "16 digits": rng.integers(10**15, 10**16, n // 2) / 10.0 ** rng.integers(0, 23, n // 2),
        "17-digit ties": _ties(rng, n // 100, 17),
        "16-digit ties": _ties(rng, n // 100, 16),
        "15-digit ties": _ties(rng, n // 100, 15),
    }


def test_matches_repr_on_a_million_values():
    rng = np.random.default_rng(20261018)
    count = 0
    for name, values in _families(rng, 200_000).items():
        # the random bit patterns hold nan and inf, and warnings are errors
        for chunk in np.array_split(values, -(-len(values) // 50_000)):
            assert _texts(chunk) == _as_repr(chunk), name
        count += len(values)
    assert count > 10**6


def test_special_values():
    values = [np.nan, -np.nan, np.inf, -np.inf, 0.0, -0.0, 5e-324, -5e-324,
              2.2250738585072014e-308, 1.7976931348623157e308]
    assert _texts(values) == _as_repr(values)


@pytest.mark.parametrize("edge", [1e-6, 1e-5, 1e-4, 0.1, 1.0, 1e15, 1e16])
def test_each_side_of_the_layout_and_range_edges(edge):
    # fast path 1e-6 <= |x| < 1e16; scientific below 1e-4 and from 1e16
    below = np.nextafter(edge, 0)
    values = [edge, np.nextafter(edge, np.inf), below, np.nextafter(below, 0)]
    values += [-v for v in values]
    assert _texts(values) == _as_repr(values)


def test_nextafter_1e5_down():
    # |x| * 10**21 rounds to exactly 1e16 in the product; the exact integer
    # is 10**16 - 1, so the 17-digit range test must look at the integer
    x = np.nextafter(1e-5, 0)
    assert x * 1e21 == 1e16
    assert _texts([x]) == ["9.999999999999999e-06"]


@pytest.mark.parametrize(
    "value, text",
    [
        (1234567890123456.75, "1234567890123456.8"),
        (1234567890123456.25, "1234567890123456.2"),
        (123456789012345.625, "123456789012345.62"),
        (600000000000000.25, "600000000000000.2"),  # a tie between 16-digit candidates
        (0.30000000000000004, "0.30000000000000004"),
        (9.007199254740993e-05, "9.007199254740993e-05"),
        (1e-05, "1e-05"),
        (-1.5e-06, "-1.5e-06"),
        (0.0001, "0.0001"),
        (-0.00012345, "-0.00012345"),
        (1e15, "1000000000000000.0"),
        (123.0, "123.0"),
    ],
)
def test_ties_and_layout(value, text):
    assert repr(value) == text
    assert _texts([value]) == [text]


def test_every_power_of_two():
    # a power of two has an asymmetric rounding interval: kept off the fast path
    values = 2.0 ** np.arange(-1074, 1024)
    assert _texts(values) == _as_repr(values)
    assert _texts(-values) == _as_repr(-values)


def test_float32_and_integer_input_as_float64():
    values = np.float32([0.1, 3.3e-7, 1e20, -2.5])
    assert _texts(values) == _as_repr(values.astype(float))
    assert _texts(np.arange(3)) == ["0.0", "1.0", "2.0"]
    assert _texts(np.zeros((2, 0))) == []


def test_most_values_take_the_fast_path(monkeypatch):
    calls = []
    monkeypatch.setattr(_floatrepr, "repr", lambda x: calls.append(x) or repr(x), raising=False)
    rng = np.random.default_rng(5)
    values = np.concatenate([rng.standard_normal(5000), (rng.random(5000) - 0.5) * 2e-3])
    texts = _texts(values)
    assert texts == _as_repr(values)
    assert len(calls) < 0.01 * len(values)
    # every head: the sign, and between 1e-4 and 0.1 the "0." and zeros
    heads = {re.match(r"-?(0\.0*)?", t).group() for t in texts}
    assert heads == {"", "-", "0.", "-0.", "0.0", "-0.0", "0.00", "-0.00", "0.000", "-0.000"}


def test_lengths_across_chunks():
    rng = np.random.default_rng(11)
    chunk = _floatrepr._CHUNK
    for n in (chunk - 1, chunk, chunk + 1, 2 * chunk + 7):
        values = rng.standard_normal(n) * 10.0 ** rng.integers(-8, 18, n)
        values[::331] = 2.0**-1074  # off the fast path, in every chunk
        assert _texts(values) == _as_repr(values)


def test_the_longest_reprs_fit_the_row():
    values = [-2.2250738585072014e-308, -1.7976931348623157e308]
    texts = _texts(values)
    assert texts == ["-2.2250738585072014e-308", "-1.7976931348623157e+308"]
    assert max(map(len, texts)) == 24
