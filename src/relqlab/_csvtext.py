"""Text of CSV rows: each float cell as Python's "%.16e" and each integer or
boolean cell as "%d" would write it, byte for byte, rendered a block of rows
at a time with numpy.

A finite x != 0 prints as d.ddddddddddddddddde±EE, whose 17 digits are
D = round(|x| 10^(16-e)) for the decimal exponent e with
10^e <= |x| < 10^(e+1), rounded half to even on |x|'s exact value.  np.log10
only guesses e.  The guess is checked against the unrounded product
|x| 10^(16-e), held as a double-double p + lo: 10^k is a table pair
hi + lo, exact to ~2^-106, and |x| hi is an exact two-product built from
Dekker's split (Dekker, Numer. Math. 18, 1971).  These use + - * on doubles
only, so no digit depends on FMA or the SIMD target.  The product is within
2^-47 of the true value in units of the last digit, so D is exact unless the
value lies within _TIE_MARGIN of a rounding tie.

Python's "%" formats the cells this cannot decide, into the same field:
those near a tie, non-finite ones, those whose scale 10^(16-e) lies outside
the table (where a split could overflow), and int64's minimum, whose
magnitude does not fit an int64.
"""

from __future__ import annotations

import functools

import numpy as np

_K_MIN, _K_MAX = -282, 290  # scale exponents in the table; 10^k and |x| split safely
_SPLIT = 134217729.0  # 2^27 + 1: Dekker's split of a double into two 26-bit halves
_TIE_MARGIN = 2.0 ** -30  # in units of the last digit, far above the product's error
_FLOAT_WIDTH = 24  # len("-1.2345678901234567e-308")
_D_MIN, _D_MAX = 10 ** 16, 10 ** 17


def _split(x):
    c = _SPLIT * x
    hi = c - (c - x)
    return hi, x - hi


@functools.cache  # built on first use, not at import
def _pow10_table():
    """Rows (hi, lo, hi's split halves) of 10^k for k in [_K_MIN, _K_MAX]: hi
    is 10^k correctly rounded by Python's int division, lo the rounded exact
    residual 10^k - hi, from integers."""
    rows = []
    for k in range(_K_MIN, _K_MAX + 1):
        num, den = (10 ** k, 1) if k >= 0 else (1, 10 ** -k)
        hi = num / den
        hi_num, hi_den = hi.as_integer_ratio()
        rows.append((hi, (num * hi_den - hi_num * den) / (den * hi_den), *_split(hi)))
    return np.array(rows)


def _scaled(a, a_hi, a_lo, k):
    """a 10^k as p + lo, p = fl(a hi): an exact two-product plus a lo."""
    hi, lo, hi_hi, hi_lo = _pow10_table()[k - _K_MIN].T
    p = a * hi
    err = ((a_hi * hi_hi - p) + a_hi * hi_lo + a_lo * hi_hi) + a_lo * hi_lo
    return p, err + a * lo


@functools.cache  # built on first use, not at import
def _quads():
    """The four ASCII digits of 0..9999, zero-padded, each packed in a uint32."""
    ascii_ = np.arange(10000)[:, None] // np.array([1000, 100, 10, 1]) % 10 + ord("0")
    return ascii_.astype(np.uint8).view(np.uint32)[:, 0]


def _digits(v, width):
    """(n, width) ASCII digits of the non-negative integers v, zero-padded."""
    groups = -(-width // 4)
    words = np.empty((len(v), groups), np.uint32)
    for j in range(groups - 1, -1, -1):
        q = v // 10000
        words[:, j] = _quads()[v - q * 10000]
        v = q
    return words.view(np.uint8)[:, 4 * groups - width:]


def _float_cells(x, text, keep):
    """Write the "%.16e" cells of x into text, shape (n, _FLOAT_WIDTH), and
    mark in keep (all True on entry) the bytes that belong to each."""
    finite = np.isfinite(x)
    zero = x == 0
    a = np.where(finite & ~zero, np.abs(x), 1.0)
    e = np.floor(np.log10(a)).astype(np.int64)
    fast = finite & (e >= 17 - _K_MAX) & (e <= 15 - _K_MIN)  # 16 - e +- 1 in the table
    a, e = np.where(fast, a, 1.0), np.where(fast, e, 0)
    a_hi, a_lo = _split(a)
    p, lo = _scaled(a, a_hi, a_lo, 16 - e)
    # the guess is off by one where the unrounded product leaves [10^16, 10^17)
    low = (p < _D_MIN) | ((p == _D_MIN) & (lo < 0))
    high = (p > _D_MAX) | ((p == _D_MAX) & (lo >= 0))
    fix = np.flatnonzero(low | high)
    if fix.size:
        e[fix] += np.where(high[fix], 1, -1)
        p[fix], lo[fix] = _scaled(a[fix], a_hi[fix], a_lo[fix], 16 - e[fix])
    n = np.floor(lo + 0.5)  # ties never reach this rounding: Python decides them
    slow = ~fast | (np.abs(lo - n) > 0.5 - _TIE_MARGIN)
    d = p.astype(np.int64) + n.astype(np.int64)
    carry = d == _D_MAX  # 9.99...95e(e) and up round to 1.000...e(e+1)
    d, e = np.where(carry, _D_MIN, d), e + carry
    d, e = np.where(zero, 0, d), np.where(zero, 0, e)

    text[:, 0] = ord("-")
    digits = _digits(d, 17)
    text[:, 1] = digits[:, 0]
    text[:, 2] = ord(".")
    text[:, 3:19] = digits[:, 1:]
    text[:, 19] = ord("e")
    text[:, 20] = np.where(e < 0, ord("-"), ord("+"))
    text[:, 21:] = _digits(np.abs(e), 3)
    keep[:, 0] = np.signbit(x)
    keep[:, 21] = np.abs(e) >= 100
    _python_cells(text, keep, "%.16e", x, slow)


def _int_width(v):
    """Field width of the "%d" cells of v: a sign and the longest magnitude."""
    return 1 + len(str(max(int(v.max()), -int(v.min()))))


def _int_cells(v, text, keep):
    """Write the "%d" cells of v (int64 or uint64) into text and mark in keep
    (all True on entry) the bytes that belong to each."""
    mag = np.abs(v)
    slow = mag < 0  # int64's minimum, whose magnitude wraps to itself
    digits = _digits(np.where(slow, 0, mag), text.shape[1] - 1)
    text[:, 0] = ord("-")
    text[:, 1:] = digits
    keep[:, 0] = v < 0
    keep[:, 1:-1] = np.logical_or.accumulate(digits[:, :-1] != ord("0"), axis=1)
    _python_cells(text, keep, "%d", v, slow)


def _python_cells(text, keep, fmt, values, rows):
    """Python's fmt % value, left-aligned in its field, for the given rows."""
    for i in np.flatnonzero(rows):
        cell = np.frombuffer((fmt % values[i].item()).encode(), np.uint8)
        text[i, :len(cell)] = cell
        keep[i] = np.arange(text.shape[1]) < len(cell)


def format_rows(columns) -> bytes:
    """The CSV text of non-empty, equal-length numpy columns: integer and
    boolean ones as %d, all others as %.16e, one line per row."""
    cells = []
    for c in columns:
        if c.dtype.kind in "biu":
            c = c.astype(np.uint64 if c.dtype.kind == "u" else np.int64)
            cells.append((_int_cells, c, _int_width(c)))
        else:
            cells.append((_float_cells, c.astype(np.float64), _FLOAT_WIDTH))
    text = np.empty((len(columns[0]), sum(w + 1 for _, _, w in cells)), np.uint8)
    keep = np.ones(text.shape, bool)
    start = 0
    for write, values, width in cells:
        write(values, text[:, start:start + width], keep[:, start:start + width])
        text[:, start + width] = ord(",")
        start += width + 1
    text[:, -1] = ord("\n")
    return text[keep].tobytes()
