"""Table text in bulk: float and bool cells as bytes, by exact integer
arithmetic in numpy, filled into rows as byte blocks.

The CLI's writer loads this module for large grid tables only.
"""

from __future__ import annotations

import functools
import re

import numpy as np

# Bulk float text of a finite normal x, |x| in [1e-290, 1e291) and no
# power of two.  Dekker's exact product of |x| with 10^(16 - e), e its
# decimal exponent, as a double-double gives y in [1e16, 1e17) as
# p + rest to 5e-15.  repr keeps the multiple of the largest 10^j nearest
# y inside x's rounding interval (half an ulp either side, scaled to y),
# and %.17g the same with the interval +-0.5: round(y).  Every other
# value, and one whose test comes within _EPS of its threshold, goes to
# the scalar formatter.
_CELL = 24      # bytes of a cell: the longest repr and %.17g of a float
_EPS = 2.0 ** -44   # over three times the error of a test
_BLOCK = 1 << 13    # cells per block of rows, which bounds working memory


def _split(x):
    """Veltkamp's split of doubles into halves of 26 bits or fewer."""
    c = 134217729.0 * x
    high = c - (c - x)
    return high, x - high


@functools.cache
def _digit_tables():
    """10^(16 - e), e in [-290, 290], as the nearest double, its halves
    and the rest; the text of 0..9999 as four-byte words; 10^0..10^18;
    and a mask of each cell length."""
    scale = []
    for e in range(-290, 291):
        a, b = (10 ** (16 - e), 1) if e <= 16 else (1, 10 ** (e - 16))
        num, den = (a / b).as_integer_ratio()
        scale.append((a / b, (a * den - num * b) / (b * den)))
    high, low = np.array(scale).T
    words = np.arange(10000)[:, None] // [1000, 100, 10, 1] % 10 + 48
    return (high, *(h * 2.0 ** 64 for h in _split(high * 2.0 ** -64)),
            low, words.astype(np.uint8).view(np.uint32).ravel(),
            10 ** np.arange(19), np.where(np.arange(_CELL) < np.arange(
                _CELL + 1)[:, None], np.uint8(255), np.uint8(0)))


def cell_bytes(values: np.ndarray, fmt: str, scalar) -> np.ndarray:
    """The cells of a float or bool array as an (n, _CELL) byte matrix
    padded with NUL: true and false, and the text `scalar(floats, fmt)`
    gives each float, repr for json and %.17g for csv, NaN as null or
    empty; a float the kernel cannot decide is sent to `scalar`."""
    n = values.size
    if values.dtype == bool:
        cells = np.array([b"false", b"true"], dtype=f"S{_CELL}")
        return cells[values.view(np.uint8)].view(np.uint8).reshape(n, _CELL)
    high, high_a, high_b, low, words, p10, masks = _digit_tables()
    a = np.abs(values)
    with np.errstate(divide="ignore", invalid="ignore"):
        e = np.floor(np.log10(a))
    mantissa = np.frexp(a)[0]
    fast = ((a >= np.finfo(float).tiny) & (np.abs(e) <= 290)
            & (mantissa != 0.5))
    a, mantissa = np.where(fast, a, 1.5), np.where(fast, mantissa, 0.75)
    # 1.5 stands in for the values that go to `scalar`
    i = np.where(fast, e, 0).astype(np.int64) + 290
    p = a * high[i]
    a_a, a_b = _split(a)
    rest = (((a_a * high_a[i] - p) + a_a * high_b[i] + a_b * high_a[i])
            + a_b * high_b[i]) + a * low[i]
    floor = np.floor(rest)
    whole, frac = p.astype(np.int64) + floor.astype(np.int64), rest - floor
    fast &= (whole >= 10 ** 16) & (whole < 10 ** 17)    # else e is off
    half = ((p + rest) * (2.0 ** -54 / mantissa) if fmt == "json"
            else np.full(n, 0.5))
    at = np.flatnonzero(fast)
    kept, near = [at[:0]], [at[:0]]
    for j in range(1, 18):      # (% is a slow path in numpy)
        w, f = whole[at], frac[at]
        rem = w - w // p10[j] * p10[j]
        gap = np.minimum(rem + f, (p10[j] - rem) - f) - half[at]
        near.append(at[np.abs(gap) <= _EPS])
        at = at[gap < 0]
        kept.append(at)
        if not at.size:
            break
    k = np.bincount(np.concatenate(kept), minlength=n)
    unit = p10[k]
    rem = whole - whole // unit * unit
    down, up = rem + frac, (unit - rem) - frac
    g = whole - rem + (up < down) * unit
    fast &= np.abs(down - up) > 2 * _EPS
    fast[np.concatenate(near)] = False
    e = i - 290 + (g == 10 ** 17)
    g[g == 10 ** 17] = 10 ** 16
    # g's text after a '0'; the 40 bytes from s + 4 hold the integer
    # digits right-aligned in the first 20, then the fraction
    src = np.empty((n, 60), dtype=np.uint8)
    src[:, 19] = ord("0")
    for column in range(9, 4, -1):
        src.view(np.uint32)[:, column] = words[g - g // 10000 * 10000]
        g = g // 10000
    fixed = (e >= -4) & (e <= (15 if fmt == "json" else 16))
    s = np.where(fixed, e, 0)
    window = np.lib.stride_tricks.sliding_window_view
    base = 60 * np.arange(n)
    digits = window(src.ravel(), 40)[base + s + 4]
    text = src      # reused: digits holds a copy of what it needs
    text[:, 2:22], text[:, 22], text[:, 23:43] = (
        digits[:, :20], ord("."), digits[:, 20:])
    shown = np.maximum(np.maximum(17 - k, 1) - s - 1,
                       fixed & (fmt == "json"))
    end = 22 + (shown > 0) + shown
    start = 21 - np.maximum(s, 0) - (values < 0)
    flat = text.ravel()
    flat[(base + start)[values < 0]] = ord("-")
    at = np.flatnonzero(~fixed)     # e, its sign and 2 or 3 digits
    big, pos = np.abs(e[at]) >= 100, base[at] + end[at]
    flat[(pos + big)[:, None] + np.arange(4)] = words[np.abs(e[at])].view(
        np.uint8).reshape(-1, 4)
    flat[pos], flat[pos + 1] = ord("e"), np.where(e[at] < 0, 45, 43)
    end[at] += 4 + big
    cells = window(flat, _CELL)[base + start]
    cells &= masks[end - start]
    slow = np.flatnonzero(~fast)
    if slow.size:       # the scalar formatter, each distinct value once
        distinct, where = np.unique(values[slow].view(np.int64),
                                    return_inverse=True)
        texts = np.array(scalar(distinct.view(float), fmt), f"S{_CELL}")
        cells[slow] = texts.view(np.uint8).reshape(-1, _CELL)[where]
    return cells


def bulk_rows(row: str, leaves: list, fmt: str, n: int, scalar
              ) -> list[str]:
    """n rows from the % template `row`, its slots taking the cells of
    `leaves`, (array, format) pairs: by blocks of rows, literal pieces
    and NUL-padded cells in one byte matrix, decoded without the NULs.
    One string per block, rows joined by ",\\n" (json) or "\\n" (csv)."""
    sep = ",\n" if fmt == "json" else "\n"
    pieces = [np.frombuffer(p.encode(), dtype=np.uint8) for p in re.sub(
        "%[%s]", lambda m: "%" if m[0] == "%%" else "\0", row + sep
    ).split("\0")]
    width = sum(map(len, pieces)) + _CELL * len(leaves)
    per_block, blocks = max(1, _BLOCK // max(1, len(leaves))), []
    for lo in range(0, n, per_block):
        size, cells = min(n - lo, per_block), {}
        for kind in {(v.dtype, f) for v, f in leaves}:  # equal leaves once
            group = list({id(leaf): leaf for leaf in leaves
                          if (leaf[0].dtype, leaf[1]) == kind}.values())
            cells.update(zip(map(id, group), cell_bytes(np.concatenate(
                [v[lo:lo + size] for v, _ in group]), kind[1], scalar
            ).reshape(len(group), size, _CELL)))
        text, at = np.empty((size, width), dtype=np.uint8), 0
        for piece, leaf in zip(pieces, leaves):
            text[:, at:at + len(piece)] = piece
            text[:, at + len(piece):at + len(piece) + _CELL] = cells[id(leaf)]
            at += len(piece) + _CELL
        text[:, at:] = pieces[-1]
        blocks.append(str(text[text != 0][:-len(sep)], "utf-8"))
    return blocks
