"""Byte-exact ``'%.17g'`` formatting of float64 tables in numpy.

``format_rows(table)`` returns the CSV lines of a 2-d float64 table: each
value exactly as ``'%.17g' % value``, separated by commas, each row ended by
LF.  The 17 significant digits of a value come from an unevaluated
double-double product with a correctly rounded power of ten, so one block of
values costs a few dozen numpy passes instead of one CPython float
conversion per value.

Every value takes one of three paths:

- +-0 is a fixed slot (``0`` or ``-0``), with no arithmetic;
- a finite value with 1e-230 < |x| < 1e230 whose rounding is certified goes
  through the vectorized digits below;
- anything else (NaN, +-inf, subnormals, |x| outside that range, and
  values within 1e-6 of a unit of an exact tie at the 17th digit) is
  formatted by CPython, one value at a time.

Digits.  With ``e`` the decimal exponent of |x|, ``v = |x| 10^(16 - e)``
lies in [10^16, 10^17).  It is formed as ``p + t``: ``p = fl(|x| H)`` and
``t`` = the exact rounding error of that product (Dekker's split) plus
``|x| L``, where ``H + L`` is ``10^(16 - e)`` to about 106 bits.  ``p`` is
an integer (it exceeds 2^53), so the correctly rounded 17-digit integer is
``p + floor(t) + (frac(t) > 1/2)``, with an error near 1e-14 of a unit in
``t``.  A value is certified when ``|frac(t) - 1/2| > 1e-6``; an exact tie,
which ``'%.17g'`` rounds half to even, never is.

Layout.  Each value's digits, sign and exponent are written into a 28-byte
source row; one of 17 x 22 index templates (digits kept after trailing
zeros, times fixed exponent -4..16 or scientific) picks its bytes into a
25-byte slot padded with NUL, whose last byte is the separator.  The NULs
are deleted with ``bytes.translate``.
"""

import functools
from types import SimpleNamespace

import numpy as np

_DIGITS = 17  # significant digits of '%.17g'
_LO, _HI = 1e-230, 1e230  # the vectorized range of |x|; no split under- or overflows
_E_MIN, _E_MAX = -240, 240  # decimal exponents with a power-of-ten scale in the table
_TIE_GUARD = 1e-6  # certified when frac(t) is farther than this from 1/2
_SPLIT = 134217729.0  # 2^27 + 1, Dekker's splitting constant

# a value's 28-byte source row, seven uint32 words: s[1..16] in bytes 0..15
# (four-digit groups), then [s[0], sign, NUL, NUL], [exponent sign, three
# exponent digits], [".", "0", "e", NUL]
_ROW = 28
_FIRST, _SIGN, _NUL, _ESIGN, _EXP, _POINT, _ZERO, _E = 16, 17, 18, 20, 21, 24, 25, 26
_SLOT = 25  # the longest '%.17g' (24 bytes), then the separator
_FIXED = range(-4, _DIGITS)  # exponents '%g' writes in fixed notation
_CLASSES = len(_FIXED) + 1  # ... and one scientific class


def _template(kept: int, e) -> list:
    """Source-row byte indices of the slot of a value with `kept` significant
    digits and decimal exponent `e` (None: scientific notation)."""
    digit = [_FIRST] + list(range(16))  # source byte of s[j]
    if e is None:
        body = digit[:1] + ([_POINT] + digit[1:kept] if kept > 1 else [])
        body += [_E, _ESIGN, _EXP, _EXP + 1, _EXP + 2]
    elif e >= 0:
        body = digit[: e + 1] + ([_POINT] + digit[e + 1 : kept] if kept > e + 1 else [])
    else:
        body = [_ZERO, _POINT] + [_ZERO] * (-e - 1) + digit[:kept]
    row = [_SIGN] + body
    return row + [_NUL] * (_SLOT - len(row))


def _words(chunks) -> np.ndarray:
    """uint32 words whose bytes are the 4-byte `chunks`, in order."""
    return np.frombuffer(b"".join(chunks), np.uint32)


@functools.cache
def _tables() -> SimpleNamespace:
    """Lookup tables, built once per process on first use."""
    # 10^(16 - e) = num/den = H + L: H the correctly rounded double, L the
    # rest, rounded (a true division of Python integers rounds correctly)
    scale = np.empty((4, _E_MAX - _E_MIN + 1))
    for i, e in enumerate(range(_E_MIN, _E_MAX + 1)):
        num, den = 10 ** max(16 - e, 0), 10 ** max(e - 16, 0)
        h = num / den
        h_num, h_den = h.as_integer_ratio()
        c = _SPLIT * h
        h_hi = c - (c - h)
        scale[:, i] = h, h_hi, h - h_hi, (num * h_den - h_num * den) / (den * h_den)
    quads = np.arange(10000)
    trailing = np.zeros(10000, dtype=np.int16)
    for k in (10, 100, 1000, 10000):
        trailing += quads % k == 0
    # at least two exponent digits; a NUL for the hundreds digit below 100
    exponent = [b"%c%c%02d" % (b"+-"[e < 0], abs(e) // 100 + 48 if abs(e) >= 100 else 0,
                               abs(e) % 100) for e in range(_E_MIN, _E_MAX + 1)]
    templates = [_template(kept, e) for kept in range(1, _DIGITS + 1) for e in (*_FIXED, None)]
    return SimpleNamespace(
        scale=scale,
        quad=_words(b"%04d" % k for k in range(10000)),
        trailing=trailing,
        lead=_words(b"%d%s\0\0" % (k % 10, b"-" if k >= 10 else b"\0") for k in range(20)),
        exponent=_words(exponent),
        templates=np.array(templates, dtype=np.uint8),
        zero=np.array([b"0", b"-0"], dtype=(np.void, _SLOT)),
    )


def _scaled(a, e, scale):
    """``|x| 10^(16 - e)`` as ``p + t``: p the rounded product, t the rest."""
    h, h_hi, h_lo, low = scale[:, e - _E_MIN]
    c = _SPLIT * a
    a_hi = c - (c - a)
    a_lo = a - a_hi
    p = a * h
    err = ((a_hi * h_hi - p) + a_hi * h_lo + a_lo * h_hi) + a_lo * h_lo
    return p, err + a * low


def _decimal(x: np.ndarray):
    """17 significant digits and decimal exponent of each value of `x`:
    ``|x| = digits 10^(e - 16)`` after rounding, and whether that rounding
    is certified (False for every value CPython must format)."""
    a = np.abs(x)
    fast = (a > _LO) & (a < _HI)  # False for NaN as well
    a = np.where(fast, a, 1.0)
    scale = _tables().scale
    # decimal exponent from log10, off by one at worst near powers of ten
    e = np.floor(np.log10(a)).astype(np.intp)
    p, t = _scaled(a, e, scale)
    low = (p < 1e16) | ((p == 1e16) & (t < 0.0))
    high = (p > 1e17) | ((p == 1e17) & (t >= 0.0))
    off = np.flatnonzero(low | high)
    if off.size:
        e[off] += high[off].astype(np.intp) - low[off]
        p[off], t[off] = _scaled(a[off], e[off], scale)
    whole = np.floor(t)
    frac = t - whole
    digits = p.astype(np.int64) + whole.astype(np.int64) + (frac > 0.5)
    carry = digits == 10**17
    digits[carry] = 10**16
    e += carry
    fast &= (np.abs(frac - 0.5) > _TIE_GUARD) & (digits >= 10**16) & (digits < 10**17)
    return digits, e, fast


def _slots(x: np.ndarray) -> np.ndarray:
    """One NUL-padded `_SLOT`-byte slot per nonzero value, its last byte
    left for the separator."""
    tab = _tables()
    digits, e, fast = _decimal(x)
    top, bottom = np.divmod(digits, 10**8)
    first, top = np.divmod(top, 10**8)
    groups = (*np.divmod(top, 10**4), *np.divmod(bottom, 10**4))
    src = np.empty((x.size, _ROW // 4), dtype=np.uint32)
    for k, g in enumerate(groups):
        src[:, k] = tab.quad[g]
    src[:, 4] = tab.lead[first + 10 * np.signbit(x)]
    src[:, 5] = tab.exponent[e - _E_MIN]
    src[:, 6] = _words([b".0e\0"])

    g1, g2, g3, g4 = groups
    trail = tab.trailing
    zeros = trail[g4] + (g4 == 0) * (trail[g3] + (g3 == 0) * (trail[g2] + (g2 == 0) * trail[g1]))
    fixed = (e >= _FIXED.start) & (e < _FIXED.stop)
    cls = (_DIGITS - 1 - zeros) * _CLASSES + np.where(fixed, e - _FIXED.start, _CLASSES - 1)
    index = tab.templates[cls] + np.arange(0, x.size * _ROW, _ROW)[:, None]
    out = np.take(src.view(np.uint8).ravel(), index)

    for i in np.flatnonzero(~fast):
        text = b"%.17g" % x[i]
        out[i, : _SLOT - 1] = 0
        out[i, : len(text)] = np.frombuffer(text, np.uint8)
    return out


def format_rows(table: np.ndarray) -> bytes:
    """CSV lines of a 2-d float64 table, each value as ``'%.17g' % value``."""
    n_rows, n_cols = table.shape
    x = np.ascontiguousarray(table, dtype=float).ravel()
    zero = x == 0.0
    if zero.any():
        # +-0 is common (unvisited count-table rows) and needs no digits;
        # slots move as single void items, much faster than rows of bytes
        out = _tables().zero[np.signbit(x).view(np.uint8)]
        some = np.flatnonzero(~zero)
        out[some] = _slots(x[some]).view(out.dtype)[:, 0]
        out = out.view(np.uint8).reshape(-1, _SLOT)
    else:
        out = _slots(x)
    separators = np.frombuffer(b"," * (n_cols - 1) + b"\n", np.uint8)
    out.reshape(n_rows, n_cols, _SLOT)[:, :, -1] = separators
    return out.tobytes().translate(None, b"\0")
