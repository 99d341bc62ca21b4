"""Exact vectorized ``%.17g`` for trajectory.csv: the text of float64 values, each
exactly as Python's ``format(x, ".17g")``.

Digits.  A finite nonzero ``x`` is ``M * 2**(e - 53)`` with ``M`` a 53-bit
integer (``np.frexp``).  Its decade ``k = floor(log10 |x|)`` is ``k0(e)`` or
``k0(e) + 1``, decided exactly by comparing ``M`` with an integer threshold of
its binade.  The 17 significant digits are ``D = round-half-even(M * C)``
with ``C = 2**(e - 53) * 10**(16 - k)``, so ``10**16 <= D <= 10**17``; ``D``
is ``10**17`` when ``x`` rounds up into the next decade.

Exactness.  ``C`` is held as a double-double ``hi + lo``, filled exactly from
Python integers the first time its binary exponent is seen and kept for the
process.  Dekker's TwoProduct gives ``M * hi = p + err`` exactly, where ``p``
is an even integer above ``2**53``; so ``M * C = p + r`` with
``r = err + M * lo`` known to better than ``2**-45``, and ``D = p + rint(r)``.
A value whose ``r`` lies within ``2**-30`` of a half-integer, exact ties
included, is formatted by Python's ``"%.17g"`` instead, as are infinities and
nans.  The one assumption is that each numpy float64 ufunc call is one
IEEE-754 round-to-nearest operation.

Text.  Each value gets a cell of six 8-byte words, all gathered from one
table: sign, ``0.000``, the first digit and a dot; four groups of four
digits, each digit followed by a dot; ``e``, the exponent's sign and three
digits, and a comma.  A mask chosen by (sign, notation and exponent class,
digits kept) keeps the bytes that ``%.17g`` prints, so one ``np.compress``
turns the cells of many values into text.
"""

from __future__ import annotations

import numpy as np

#: bytes of a cell: 0 the sign, 1-5 "0.000", 6 + 2i digit i and 7 + 2i the dot after
#: it, 40 "e", 41 the exponent's sign, 42-44 its digits, 45 the comma
_CELL = 48
_COMMA = 45
#: mask classes: fixed notation at decimal exponents -4..16, then exponent notation
#: with a two- and with a three-digit exponent; a key is (sign, class, digits kept)
_CLASSES = 23
_SIGN_KEYS = _CLASSES * 17
_KEYS = 2 * _SIGN_KEYS
#: frexp exponents run from -1073 (5e-324) to 1024; zeros and non-finite values get 0
_EXPONENT_OFFSET = 1073
_EXPONENTS = 2098
#: decimal exponents run from -324 to 308
_DECADE_OFFSET = 330
_DECADES = 640
#: the word table holds the 4-digit groups, then the first digits, then the exponents
_FIRST_WORDS = 10_000
_EXPONENT_WORDS = _FIRST_WORDS + 10
#: |r - rint(r)| at or above this is too close to a tie to decide in float64
_TIE_BAND = 0.5 - 2.0**-30
_VELTKAMP = 134217729.0  # 2**27 + 1


def _ratio(a: int, b: int) -> tuple:
    """2**a * 10**b as (numerator, denominator) of Python integers."""
    return 2**max(a, 0) * 10**max(b, 0), 2**max(-a, 0) * 10**max(-b, 0)


def _split(x):
    """Veltkamp's split of x into two halves of at most 26 significant bits each."""
    c = x * _VELTKAMP
    high = c - (c - x)
    return high, x - high


class _Tables:
    """The kernel's tables, kept for the process and built on first use.

    Per binary exponent ``e``, filled when first seen: ``k0`` with
    ``10**k0 <= 2**(e - 1) < 10**(k0 + 1)``, the smallest ``M`` whose value
    reaches ``10**(k0 + 1)``, and ``hi``, ``lo`` and the Veltkamp halves of
    ``hi`` for ``k0`` (column ``2 * (e + offset)``) and for ``k0 + 1`` (the
    next column).  Two threads filling one exponent write the same numbers.
    """

    def __init__(self):
        self.ready = np.zeros(_EXPONENTS, bool)
        self.k0 = np.zeros(_EXPONENTS, np.int64)
        self.m_next = np.zeros(_EXPONENTS)
        self.scale = np.zeros((4, 2 * _EXPONENTS))  # hi, lo, high and low half of hi
        self.words = None

    def fill(self, index: np.ndarray):
        for i in set(index[~self.ready[index]].tolist()):
            e = i - _EXPONENT_OFFSET
            k = len(str(2**(e - 1))) - 1 if e >= 1 else -len(str(2**(1 - e)))
            num, den = _ratio(53 - e, k + 1)
            self.m_next[i] = -(-num // den)
            for j in (0, 1):
                num, den = _ratio(e - 53, 16 - k - j)
                hi = num / den
                hn, hd = hi.as_integer_ratio()
                self.scale[:, 2 * i + j] = (hi, (num * hd - hn * den) / (den * hd), *_split(hi))
            self.k0[i] = k
            self.ready[i] = True

    def with_text(self) -> "_Tables":
        """Self, with the text tables built: the words of the cells, the digits kept
        by a group at each position, the key base and the fewest digits kept per
        decade, and the masks."""
        if self.words is None:
            digits = np.arange(10_000)[:, None] // np.array([1000, 100, 10, 1]) % 10
            words = np.full((_EXPONENT_WORDS + _DECADES, 8), ord("."), np.uint8)
            words[:_FIRST_WORDS, 0::2] = digits + ord("0")
            words[_FIRST_WORDS:_EXPONENT_WORDS, :6] = np.frombuffer(b"-0.000", np.uint8)
            words[_FIRST_WORDS:_EXPONENT_WORDS, 6] = np.arange(10) + ord("0")
            words[_EXPONENT_WORDS:] = [np.frombuffer(b"e%+04d,\0\0" % k, np.uint8)
                                       for k in range(-_DECADE_OFFSET, _DECADES - _DECADE_OFFSET)]
            # a nonzero group at position j keeps the digits through its last nonzero one
            last = 4 - np.argmax(digits[:, ::-1] != 0, axis=1)
            self.kept = ((1 + 4 * np.arange(4))[:, None] + last).astype(np.uint8)
            self.kept[:, 0] = 1
            decade = np.arange(_DECADES) - _DECADE_OFFSET
            fixed = (decade >= -4) & (decade <= 16)
            cls = np.where(fixed, decade + 4, np.where(np.abs(decade) >= 100, 22, 21))
            self.key_base = cls * 17 - 1
            self.key_min = np.where(fixed & (decade >= 0), decade + 1, 1)
            self.masks = _masks()
            self.words = words.view(np.uint64).ravel()
        return self


def _masks() -> np.ndarray:
    """The bytes of a cell that %.17g prints, per key."""
    sign, rest = np.divmod(np.arange(_KEYS), _SIGN_KEYS)
    cls, last = np.divmod(rest, 17)                   # last: the last digit printed
    exponent = cls >= 21
    dot = np.where(exponent, 0, cls - 4)[:, None]     # the digit the dot follows, if >= 0
    slot = np.arange(17)
    masks = np.zeros((_KEYS, _CELL), bool)
    masks[:, 0] = sign
    masks[:, 1:6] = np.arange(5) < np.where(cls < 4, 5 - cls, 0)[:, None]  # "0.", zeros
    masks[:, 6:40:2] = slot <= last[:, None]
    masks[:, 7:40:2] = (slot == dot) & (slot < last[:, None])
    masks[:, 40:42] = exponent[:, None]
    masks[:, 42] = cls == 22
    masks[:, 43:45] = exponent[:, None]
    masks[:, _COMMA] = True
    return masks


_TABLES = _Tables()


def _cells(x: np.ndarray) -> tuple:
    """(the word indices of each value's cell, shape (n, 6), the mask keys, the
    indices of the values left to Python) for the 1-d float64 array x."""
    tables = _TABLES.with_text()
    finite = np.isfinite(x)
    m, exponent = np.frexp(np.where(finite, np.abs(x), 0.0))
    m *= 2.0**53
    index = np.add(exponent, _EXPONENT_OFFSET, dtype=np.intp)
    if not tables.ready.take(index).all():
        tables.fill(index)
    upper = m >= tables.m_next.take(index)
    k = tables.k0.take(index)
    k += upper
    k[m == 0] = 0
    index *= 2
    index += upper
    hi, lo, hi_high, hi_low = (row.take(index) for row in tables.scale)
    # M * (hi + lo) = p + r, with Dekker's TwoProduct for the exact error of p = M * hi
    m_high, m_low = _split(m)
    p = m * hi
    r = m_high * hi_high
    r -= p
    m_high *= hi_low
    r += m_high
    hi_high *= m_low
    r += hi_high
    m_low *= hi_low
    r += m_low
    lo *= m
    r += lo
    nearest = np.rint(r)
    r -= nearest
    python = np.flatnonzero((np.abs(r) >= _TIE_BAND) | ~finite)
    d = p.astype(np.int64)
    d += nearest.astype(np.int64)
    carry = d == 10**17
    if carry.any():
        d[carry] = 10**16
        k += carry

    # the words of each cell: the first digit, four groups of four digits, the exponent
    idx = np.empty((len(x), 6), np.intp)
    first = d // 10**16
    d -= first * 10**16
    np.add(first, _FIRST_WORDS, out=idx[:, 0])
    np.floor_divide(d, 10**8, out=idx[:, 2])          # the upper and lower eight digits
    np.subtract(d, idx[:, 2] * 10**8, out=idx[:, 4])
    np.floor_divide(idx[:, 2::2], 10**4, out=idx[:, 1:4:2])
    idx[:, 2::2] -= idx[:, 1:4:2] * 10**4
    k += _DECADE_OFFSET
    np.add(k, _EXPONENT_WORDS, out=idx[:, 5])
    kept = tables.key_min.take(k)
    for j in range(4):
        np.maximum(kept, tables.kept[j].take(idx[:, 1 + j]), out=kept)
    key = tables.key_base.take(k)
    key += kept
    np.add(key, _SIGN_KEYS, out=key, where=np.signbit(x))
    return idx, key, python


def format_values(x: np.ndarray) -> list:
    """``format(v, ".17g")`` for every entry of the 1-d float64 array x."""
    idx, key, python = _cells(x)
    cells = _TABLES.words.take(idx).view(np.uint8)
    del idx  # the indices, cells and masks are the largest temporaries: release each early
    text = np.compress(_TABLES.masks.take(key, axis=0).ravel(), cells.ravel())
    del cells
    values = text.tobytes().decode().split(",")
    values.pop()
    for i in python.tolist():
        values[i] = "%.17g" % x[i]
    return values
