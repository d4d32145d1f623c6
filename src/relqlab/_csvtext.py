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

One exact test sorts the cells: the fast range 1e-273 <= |x| < 1e298, where
e and its guess both index the table.  Zeros and the cells outside it are
set aside by index; a zero is written on the fast path with D = 0 and e = 0.
D = p + rint(lo) from the guess is outside (10^16, 10^17) wherever the guess
is off (D >= 10^17 one too low, D <= 10^16 one too high) or the rounding
carries into the next power of ten (D = 10^17).  Python's "%" formats the
cells this cannot decide, into the same field: those with such a D, those
near a tie, the others outside the fast range (non-finite ones, subnormals
and magnitudes whose scale 10^(16-e) the table does not hold, where a split
could overflow), and int64's minimum, whose magnitude does not fit an int64.

A block is one buffer of equal rows; each field's width comes from the
block's own cells (a float field has a sign byte only if some cell is
negative, and a third exponent digit only if some cell needs one or goes to
Python).  A float cell is four little-endian word stores through strided
views; a byte a cell omits (a "+" sign, an unused exponent digit, an
integer's leading zero) is left NUL, and the NULs, which CSV text never
holds, are removed once per block.
"""

from __future__ import annotations

import functools

import numpy as np

_E_LO, _E_HI = -274, 298  # exponents e whose scale 10^(16-e) the table holds
_A_LO, _A_HI = 1e-273, 1e298  # the fast range of |x|: e and its guess stay in the table
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
    """Row e - _E_LO for e in [_E_LO, _E_HI]: hi, lo and hi's split halves of
    10^k, k = 16 - e; hi is 10^k correctly rounded by Python's int division,
    lo the rounded exact residual 10^k - hi, from integers."""
    rows = []
    for e in range(_E_LO, _E_HI + 1):
        num, den = (10 ** (16 - e), 1) if e <= 16 else (1, 10 ** (e - 16))
        hi = num / den
        hi_num, hi_den = hi.as_integer_ratio()
        rows.append((hi, (num * hi_den - hi_num * den) / (den * hi_den), *_split(hi)))
    return np.array(rows)


def _scaled(a, a_hi, a_lo, rows):
    """a 10^(16-e) as p + lo, p = fl(a hi), for the table rows of e: an exact
    two-product plus a lo."""
    hi, lo, hi_hi, hi_lo = np.take(_pow10_table(), rows, axis=0).T
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
    """For e in [_E_LO, _E_HI], the little-endian word of the last 8 bytes
    of a float field with a NUL separator: "e±EE" in row 0 (two exponent
    digits), "e±HEE" in row 1 (three, H NUL where |e| < 100)."""
    def word(text):
        return int.from_bytes(text.rjust(7, b"\0") + b"\0", "little")
    texts = [b"e%+04d" % e for e in range(_E_LO, _E_HI + 1)]
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
    a = np.abs(x)
    odd = np.flatnonzero(~((a >= _A_LO) & (a < _A_HI)))  # zero, non-finite or out of range
    if odd.size:
        a[odd] = 2.0  # a stand-in with e = 0, D = 2 10^16 and lo = 0: not sent to Python
    # table rows e - _E_LO of the guesses of e: log10 is within one of the
    # true e, and so is the truncation (a floor: the sum is positive)
    row = (np.log10(a) - _E_LO).astype(np.int64)
    p, lo = _scaled(a, *_split(a), row)
    n = np.rint(lo)  # ties never reach this rounding: Python decides them
    d = p.astype(np.int64) + n.astype(np.int64)
    # D outside (10^16, 10^17): a guess off by one or a carry; Python writes those and ties
    slow = np.flatnonzero((d <= _D_MIN) | (d >= _D_MAX) | (np.abs(lo - n) > 0.5 - _TIE_MARGIN))
    if odd.size:
        zero = x[odd] == 0
        d[odd[zero]] = 0
        slow = np.concatenate([slow, odd[~zero]])
    wide = bool(slow.size or row.min() <= -100 - _E_LO or row.max() >= 100 - _E_LO)
    neg = np.signbit(x)
    signed = bool(neg.any())
    width = 22 + signed + wide

    def write(field, sep):
        def store(offset, words, size=8):
            field[:, offset:offset + size].view(f"<u{size}")[:, 0] = words
        # the exponent word ends at the separator; each store below overwrites its head
        store(width - 7, np.take(_exponents()[int(wide)] | np.uint64(sep << 56), row))
        lead, high8 = d // 10 ** 16, d // 10 ** 8
        if signed:
            store(0, neg * ord("-") + 256 * lead + _LEAD, size=4)
        else:  # the word without its sign byte
            store(0, lead + (_LEAD >> 8), size=4)
        for offset, half in ((2 + signed, high8 - lead * 10 ** 8),
                             (10 + signed, d - high8 * 10 ** 8)):
            high4 = half // 10000
            store(offset, _quads()[half - high4 * 10000] << 32 | _quads()[high4])
        _python_cells(field, "%.16e", x, slow)
    return width, write


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
        _python_cells(field, "%d", v, np.flatnonzero(slow))
    return width, write


def _python_cells(field, fmt, values, rows):
    """Python's fmt % value, left-aligned in its field, for the given row indices."""
    for i in rows:
        cell = (fmt % values[i].item()).encode().ljust(field.shape[1] - 1, b"\0")
        field[i, :-1] = np.frombuffer(cell, np.uint8)


def format_rows(columns) -> bytes:
    """The CSV text of non-empty, equal-length numpy columns: integer and
    boolean ones as %d, all others as %.16e, one line per row."""
    cells = [_int_cells(c.astype(np.uint64 if c.dtype.kind == "u" else np.int64))
             if c.dtype.kind in "biu" else _float_cells(c.astype(np.float64)) for c in columns]
    text = np.empty((len(columns[0]), sum(width + 1 for width, _ in cells)), np.uint8)
    start = 0
    for j, (width, write) in enumerate(cells):
        write(text[:, start:start + width + 1], ord("\n" if j == len(cells) - 1 else ","))
        start += width + 1
    return text.tobytes().replace(b"\0", b"")
