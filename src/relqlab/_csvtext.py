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

A block is one buffer of equal rows; each field's width comes from the
block's own cells (a float field has a third exponent digit only if some cell
needs one or goes to Python).  A float cell is four little-endian word stores
through strided views; a byte a cell omits (a "+" sign, an unused exponent
digit, an integer's leading zero) is left NUL, and the NULs, which CSV text
never holds, are removed once per block.
"""

from __future__ import annotations

import functools

import numpy as np

_K_MIN, _K_MAX = -282, 290  # scale exponents in the table; 10^k and |x| split safely
_E_MIN, _E_MAX = -324, 308  # decimal exponents of non-zero doubles
_SPLIT = 134217729.0  # 2^27 + 1: Dekker's split of a double into two 26-bit halves
_TIE_MARGIN = 2.0 ** -30  # in units of the last digit, far above the product's error
_D_MIN, _D_MAX = 10 ** 16, 10 ** 17
_LEAD = 256 * ord("0") + 65536 * ord(".")  # "\0" "0" "." as a word; add the sign and 256 D


def _split(x):
    c = _SPLIT * x
    hi = c - (c - x)
    return hi, x - hi


@functools.cache  # built on first use, not at import
def _pow10_table():
    """Columns hi, lo and hi's split halves of 10^k for k in [_K_MIN, _K_MAX]:
    hi is 10^k correctly rounded by Python's int division, lo the rounded
    exact residual 10^k - hi, from integers."""
    rows = []
    for k in range(_K_MIN, _K_MAX + 1):
        num, den = (10 ** k, 1) if k >= 0 else (1, 10 ** -k)
        hi = num / den
        hi_num, hi_den = hi.as_integer_ratio()
        rows.append((hi, (num * hi_den - hi_num * den) / (den * hi_den), *_split(hi)))
    return np.ascontiguousarray(np.array(rows).T)


def _scaled(a, a_hi, a_lo, k):
    """a 10^k as p + lo, p = fl(a hi): an exact two-product plus a lo."""
    k = k - _K_MIN
    hi, lo, hi_hi, hi_lo = (np.take(column, k) for column in _pow10_table())
    p = a * hi
    err = ((a_hi * hi_hi - p) + a_hi * hi_lo + a_lo * hi_hi) + a_lo * hi_lo
    return p, err + a * lo


@functools.cache  # built on first use, not at import
def _quads():
    """The four ASCII digits of 0..9999, zero-padded, as little-endian words."""
    ascii_ = np.arange(10000)[:, None] // np.array([1000, 100, 10, 1]) % 10 + ord("0")
    return (ascii_ << np.array([0, 8, 16, 24])).sum(axis=1).astype(np.uint64)


@functools.cache  # built on first use, not at import
def _exponents():
    """For e in [_E_MIN, _E_MAX], the little-endian word of the last 8 bytes
    of a float field with a NUL separator: "e±EE" in row 0 (two exponent
    digits), "e±HEE" in row 1 (three, H NUL where |e| < 100)."""
    def word(text):
        return int.from_bytes(text.rjust(7, b"\0") + b"\0", "little")
    texts = [b"e%+04d" % e for e in range(_E_MIN, _E_MAX + 1)]
    return np.array([[word(t[:2] + t[3:]) for t in texts],
                     [word(t[:2] + t[2:3].replace(b"0", b"\0") + t[3:]) for t in texts]],
                    np.uint64)


def _digits(v, width):
    """(n, width) ASCII digits of the non-negative integers v, zero-padded."""
    groups = -(-width // 4)
    words = np.empty((len(v), groups), "<u4")
    for j in range(groups - 1, -1, -1):
        q = v // 10000
        words[:, j] = _quads()[v - q * 10000]
        v = q
    return words.view(np.uint8)[:, 4 * groups - width:]


def _float_cells(x):
    """The width of the "%.16e" field of x and a function that writes its
    cells and a separator into (n, width + 1) bytes of the rows."""
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
    wide = bool(slow.any() or (np.abs(e) >= 100).any())

    def write(field, sep):
        def store(offset, words, size=8):
            field[:, offset:offset + size].view(f"<u{size}")[:, 0] = words
        # the exponent word ends at the separator; each store below overwrites its head
        store(16 + wide, np.take(_exponents()[int(wide)] | np.uint64(sep << 56), e - _E_MIN))
        lead, high8 = d // 10 ** 16, d // 10 ** 8
        store(0, np.signbit(x) * ord("-") + 256 * lead + _LEAD, size=4)
        for offset, half in ((3, high8 - lead * 10 ** 8), (11, d - high8 * 10 ** 8)):
            high4 = half // 10000
            store(offset, _quads()[half - high4 * 10000] << 32 | _quads()[high4])
        _python_cells(field, "%.16e", x, slow)
    return 23 + wide, write


def _int_cells(v):
    """The width of the "%d" field of v (int64 or uint64) and a function that
    writes its cells and a separator into (n, width + 1) bytes of the rows."""
    mag = np.abs(v)
    slow = mag < 0  # int64's minimum, whose magnitude wraps to itself
    width = 1 + len(str(max(int(v.max()), -int(v.min()))))  # a sign and the longest magnitude

    def write(field, sep):
        digits = _digits(np.where(slow, 0, mag), width - 1)
        field[:, 0] = np.where(v < 0, ord("-"), 0)
        field[:, 1:width] = np.where(np.logical_or.accumulate(digits != ord("0"), axis=1),
                                     digits, 0)
        field[:, width - 1] = digits[:, -1]  # the last digit, even of 0
        field[:, width] = sep
        _python_cells(field, "%d", v, slow)
    return width, write


def _python_cells(field, fmt, values, rows):
    """Python's fmt % value, left-aligned in its field, for the given rows."""
    for i in np.flatnonzero(rows):
        cell = (fmt % values[i].item()).encode().ljust(field.shape[1] - 1, b"\0")
        field[i, :-1] = np.frombuffer(cell, np.uint8)


def format_rows(columns) -> bytes:
    """The CSV text of non-empty, equal-length numpy columns: integer and
    boolean ones as %d, all others as %.16e, one line per row."""
    cells = []
    for c in columns:
        if c.dtype.kind in "biu":
            cells.append(_int_cells(c.astype(np.uint64 if c.dtype.kind == "u" else np.int64)))
        else:
            cells.append(_float_cells(c.astype(np.float64)))
    text = np.empty((len(columns[0]), sum(width + 1 for width, _ in cells)), np.uint8)
    start = 0
    for j, (width, write) in enumerate(cells):
        write(text[:, start:start + width + 1], ord("\n" if j == len(cells) - 1 else ","))
        start += width + 1
    return text.tobytes().replace(b"\0", b"")
