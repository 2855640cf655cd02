"""Float64 arrays as "%.17g" text, written in numpy passes over chunks.

`join_floats` gives the exact text that `fileio.format_float`, applied
to each element, would give. On the fast path (v finite and
1e-250 <= |v| < 1e250) it finds v's decimal exponent X and its 17
leading digits N = round(|v| * 10**(16 - X)), exactly, with an
error-free product after Dekker (1971). It then builds the text as 7
little-endian uint64 words of ASCII padded with NULs, from lookup
tables:

    head       sign, a "0.000" prefix when -4 <= X < 0, the first digit,
               and a '.' after it in e-notation and when X == 0;
    4 digits   digits 2 to 17 as "d\0d\0d\0d\0": trailing zeros are
               masked out, and a NUL after a digit can take the '.';
    exponent   an "e-05"-style suffix, or nothing;
    separator  the text that follows the element.

Deleting the NULs leaves the text. Every other element, and any the
scaling cannot round with certainty, is formatted by `format_float`
and written over its words. The tables are built on first use.

The text comes out one chunk of at most `_CHUNK` elements at a time,
so a caller that streams the chunks to a file holds only one of them.
"""

from __future__ import annotations

import functools
from typing import Iterator, NamedTuple

import numpy as np

from .fileio import format_float

_CHUNK = 8192  # elements per pass; bounds the scratch memory of join_floats
_WORD = np.dtype("<u8")
# decimal exponents the 10**(16 - X) table covers: the fast path's
# [-250, 249] and, for the log10 estimate, two to spare either way
_X_MIN, _X_MAX = -252, 251
_DOT = ord(".")


class _FloatTables(NamedTuple):
    pow_hi: np.ndarray  # by X - _X_MIN: 10**(16 - X) rounded to a double
    pow_lo: np.ndarray  # by X - _X_MIN: 10**(16 - X) - pow_hi, rounded
    head_row: np.ndarray  # by X - _X_MIN: row of `heads`, assuming a '.' after digit 1 is needed
    dot_at: np.ndarray  # by X - _X_MIN: the digit the '.' follows; 0 when the prefix holds it
    inner_dot: np.ndarray  # by X - _X_MIN: the '.' falls among digits 2 to 17
    exps: np.ndarray  # by X - _X_MIN: exponent word
    heads: np.ndarray  # by 60 * negative + row + first digit: head word
    quads: np.ndarray  # by a 4-digit group: its digit word
    nonzero_len: np.ndarray  # by a 4-digit group: digits up to its last nonzero one
    masks: np.ndarray  # by digits kept: the 4 digit-word masks


def _word(text: str) -> int:
    """Up to 8 one-byte characters as a little-endian word, NUL padded."""
    return int.from_bytes(text.encode("latin-1").ljust(8, b"\0"), "little")


@functools.cache
def _float_tables() -> _FloatTables:
    xs = range(_X_MIN, _X_MAX + 1)
    pow_hi, pow_lo = [], []
    for x in xs:
        num, den = (10 ** (16 - x), 1) if x <= 16 else (1, 10 ** (x - 16))
        hi = num / den  # int / int is correctly rounded
        a, b = hi.as_integer_ratio()
        pow_hi.append(hi)
        pow_lo.append((num * b - a * den) / (den * b))
    dot_at = np.array([0 if -4 <= x < 0 else x + 1 if 0 <= x < 17 else 1 for x in xs])
    head_row = np.where(dot_at == 0, -10 * np.arange(_X_MIN + 1, _X_MAX + 2), np.where(dot_at == 1, 50, 40))
    # head rows: 0-30 the "0." to "0.000" prefixes, 40 bare, 50 with a '.'
    prefixes = ("0.", "0.0", "0.00", "0.000", "", "")
    heads = [_word(sign + prefix + str(d) + "." * (row == 5))
             for sign in ("\0", "-") for row, prefix in enumerate(prefixes) for d in range(10)]
    groups = np.arange(10000)[:, None] // np.array([1000, 100, 10, 1]) % 10
    chars = np.zeros((10000, 8), dtype=np.uint8)
    chars[:, 0::2] = groups + ord("0")
    kept = np.clip(np.arange(18)[:, None] - 1 - 4 * np.arange(4), 0, 4)
    tables = _FloatTables(
        pow_hi=np.array(pow_hi),
        pow_lo=np.array(pow_lo),
        head_row=head_row,
        dot_at=dot_at,
        inner_dot=(dot_at >= 2) & (dot_at <= 16),
        exps=np.array([_word("e%+03d" % x) if not -4 <= x < 17 else 0 for x in xs], dtype=_WORD),
        heads=np.array(heads, dtype=_WORD),
        quads=chars.view(_WORD).ravel(),
        nonzero_len=np.max(np.where(groups != 0, np.arange(1, 5), 0), axis=1),
        masks=np.array([_word("\xff\0" * k) for k in range(5)], dtype=_WORD)[kept],
    )
    for table in tables:  # shared by every call
        table.flags.writeable = False
    return tables


def join_floats(a: np.ndarray, sep: str, row_sep: str) -> Iterator[str]:
    """row_sep.join(sep.join(format_float(x) for x in row) for row in a), in chunks.

    a is 2-D; sep and row_sep are ASCII of at most 8 characters. Each
    chunk is the text of at most _CHUNK elements of one block of whole
    rows, and only that block is made contiguous.
    """
    rows, cols = a.shape
    if not cols:
        yield row_sep * (rows - 1)
        return
    seps = (_word(sep), _word(row_sep))
    step = max(1, _CHUNK // cols)  # rows per block
    for r in range(0, rows, step):
        block = np.ascontiguousarray(a[r:r + step], dtype=np.float64).ravel()
        for c in range(0, block.size, _CHUNK):
            yield _float_words(block[c:c + _CHUNK], r * cols + c, rows * cols, seps, cols)


def _float_words(v: np.ndarray, start: int, size: int, seps: tuple[int, int], cols: int) -> str:
    """The text of v, row-major elements start onward of `size`, each followed by its separator."""
    t = _float_tables()
    m = np.abs(v)
    sure = (m >= 1e-250) & (m < 1e250)
    m[~sure] = 1.0
    # X from log10, corrected once by the scaled value's decade
    x = np.log10(m)
    np.floor(x, out=x)
    xi = x.astype(np.intp) - _X_MIN
    p = m * t.pow_hi[xi]
    xi += (p >= 1e17).view(np.int8)
    xi -= (p < 1e16).view(np.int8)
    # Dekker's split TwoProduct gives m * hi = p + e exactly; no partial
    # product nears overflow or underflow in the fast path's range. With
    # lo = e + m * pow_lo and p < 2**57: |e| <= ulp(p) / 2 <= 8;
    # |m * pow_lo| < 17 is rounded by at most 2**-49; the sum, under 32,
    # by at most 2**-49; and hi + pow_lo misses 10**(16 - X) by 2**-106
    # of it, 2**-49 once scaled by m. So p + lo is within 2**-47 of
    # m * 10**(16 - X), and N = p + rint(lo) is that value correctly
    # rounded whenever lo - rint(lo), which is exact, is more than 2**-30
    # from a half. p within [1e16 + 64, 1e17 - 64] keeps N and the exact
    # value in X's decade. Elements outside either bound are not sure.
    hi = t.pow_hi[xi]
    c = 134217729.0 * m  # 2**27 + 1
    mh = c - (c - m)
    ml = m - mh
    c = 134217729.0 * hi
    hh = c - (c - hi)
    hl = hi - hh
    p = m * hi
    lo = mh * hh - p
    lo += mh * hl
    lo += ml * hh
    lo += ml * hl
    lo += m * t.pow_lo[xi]
    r = np.rint(lo)
    lo -= r
    sure &= (np.abs(lo) < 0.5 - 2.0**-30) & (p >= 1e16 + 64) & (p <= 1e17 - 64)
    n = p.astype(np.int64)
    n += r.astype(np.int64)
    np.minimum(n, 10**17 - 1, out=n)  # only elements that are not sure reach 1e17
    # the digits: d1, then 4-digit groups g[0..3]
    d1 = n // 10**16
    n -= d1 * 10**16
    h8 = n // 10**8
    l8 = n - h8 * 10**8
    g0 = h8 // 10000
    g2 = l8 // 10000
    g = (g0, h8 - g0 * 10000, g2, l8 - g2 * 10000)
    head = d1 + t.head_row[xi]
    head += (v < 0).view(np.int8) * np.int8(60)
    words = np.empty((v.size, 7), dtype=_WORD)
    words[:, 0] = t.heads[head]
    for j in range(4):
        words[:, 1 + j] = t.quads[g[j]]
    words[:, 5] = t.exps[xi]
    words[:, 6] = seps[0]
    words[(cols - 1 - start) % cols::cols, 6] = seps[1]  # the last of each row
    if start + v.size == size:
        words[-1, 6] = 0
    # the words above assume 17 significant digits and no '.' among
    # digits 2 to 17; rebuild the elements where either fails
    s = np.flatnonzero((t.nonzero_len[g[3]] < 4) | t.inner_dot[xi])
    if s.size:
        groups = np.column_stack([gj[s] for gj in g])
        digits = np.where(groups != 0, t.nonzero_len[groups] + (1, 5, 9, 13), 1).max(axis=1)
        dot_at = t.dot_at[xi[s]]
        dot = digits > dot_at
        words[s, 0] = t.heads[head[s] - 10 * ((dot_at == 1) & ~dot)]  # a lone first digit takes no '.'
        words[s, 1:5] = t.quads[groups] & t.masks[np.maximum(digits, dot_at)]
        inner = np.flatnonzero(dot & (dot_at > 1))
        q = dot_at[inner] - 2
        words[s[inner], 1 + q // 4] |= np.uint64(_DOT) << (16 * (q % 4) + 8).astype(np.uint64)
    slow = np.flatnonzero(~sure)
    if slow.size:
        bits, inverse = np.unique(v[slow].view(np.uint64), return_inverse=True)
        # format_float writes at most 24 characters, which 6 words hold
        texts = [format_float(y).encode("ascii").ljust(48, b"\0") for y in bits.view(np.float64).tolist()]
        words[slow, :6] = np.frombuffer(b"".join(texts), dtype=_WORD).reshape(-1, 6)[inverse]
    return words.tobytes().translate(None, b"\0").decode("ascii")
