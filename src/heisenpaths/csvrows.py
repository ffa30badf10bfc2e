"""CSV fields as NUL-padded byte rows, and the lines they make.

Each formatter turns a column of values into a ``uint8`` matrix with one
row per value: the value's text, with NUL bytes anywhere in the row as
padding.  ``csv_lines`` lays a chunk's matrices side by side between comma
and newline columns and drops every NUL byte, which leaves the CSV text.

* ``float_rows`` writes exactly ``'%.17g' % v``.  numpy renders the values
  in fixed notation from their exact 17-digit decimal; every value it
  cannot certify is formatted by Python's ``%``.
* ``int_rows`` writes ``str(v)`` of int64 and uint64 values, from the same
  digit table.
* ``str_rows`` writes the UTF-8 text of strings, and rejects a NUL in one.

The lookup tables are built on first use.
"""

from __future__ import annotations

import functools
from typing import NamedTuple

import numpy as np

__all__ = ["csv_lines", "float_rows", "int_rows", "str_rows"]

_LE64 = np.dtype("<u8")  # the byte order of the formatters' 64-bit words
_VELTKAMP = 134217729.0  # 2**27 + 1: splits a float64 into two 26-bit halves
_NUL_GROUP = 10_000      # index of the all-NUL entry of the digit table


def _split(a):
    """Veltkamp's split: ``a == hi + lo`` exactly, each half of 26 bits."""
    c = _VELTKAMP * a
    hi = c - (c - a)
    return hi, a - hi


class _Tables(NamedTuple):
    digits: np.ndarray  # uint64 [10001]: the 4 ASCII digits of 0..9999, then 4 NULs
    zeros: np.ndarray   # uint8 [10000]: trailing '0' digits of each 4-digit text
    pow10: tuple        # 10**q for q = 0..21 and its two Veltkamp halves
    masks: np.ndarray   # uint64 [3, 20 * 18, 4]: float layout masks, see ``float_rows``


@functools.cache
def _tables() -> _Tables:
    """The lookup tables of the byte-row formatters, built on first use.
    A uint64 here holds 8 bytes in little-endian order."""
    i = np.arange(10_001, dtype=np.int16)
    digits = np.stack([i // 1000, i // 100 % 10, i // 10 % 10, i % 10], axis=1).astype(np.uint8) + 48
    digits[_NUL_GROUP] = 0
    zeros = sum((i[:10_000] % 10**j == 0).astype(np.uint8) for j in range(1, 5))
    # every 10**q below 10**23 is an exact double
    pow10 = np.array([float(10**q) for q in range(22)])
    # the float layout (``float_rows``) for each exponent X = -4..15 and
    # count K = 0..17 of significant digits printed, as masks on the
    # 32-byte field: bytes taken from the digits, bytes taken from the
    # digits shifted up one byte, and constant bytes ('0.' and the point)
    b = np.arange(32, dtype=np.int8)
    X = np.arange(-4, 16, dtype=np.int8)[:, None, None]
    K = np.arange(18, dtype=np.int8)[None, :, None]
    fixed = (b >= 7) & (b <= 7 + X)
    lead = ((b >= 4) & (b < 3 - X)) | ((b >= 7) & (b < 7 + K))
    const = np.where(X >= 0, np.where((b == 8 + X) & (K > X + 1), 46, 0), np.select([b == 2, b == 3], [48, 46]))
    masks = np.stack(np.broadcast_arrays(
        np.where(X >= 0, fixed, lead) * 255, ((X >= 0) & (b >= 9 + X) & (b < 8 + K)) * 255, const
    )).astype(np.uint8)
    return _Tables(
        digits.view("<u4").ravel().astype(np.uint64),
        zeros,
        (pow10, *_split(pow10)),
        masks.view(_LE64).reshape(3, 360, 4).astype(np.uint64),
    )


def _digit_words(g0, g1, g2, g3, g4) -> np.ndarray:
    """The ASCII digits of the 4-digit groups ``g0 .. g4`` (each below
    10**4) at bytes 4-23 of 32-byte rows whose other bytes are NUL, as
    ``n x 4`` uint64 words."""
    d = _tables().digits
    w = np.zeros((len(g0), 4), np.uint64)
    w[:, 0] = np.take(d, g0) << np.uint64(32)
    w[:, 1] = np.take(d, g1) | np.take(d, g2) << np.uint64(32)
    w[:, 2] = np.take(d, g3) | np.take(d, g4) << np.uint64(32)
    return w


def _scaled_digits(ax: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """For each ``|x|`` in ``ax``: the 17-digit rounding ``N`` of ``|x| *
    10**(16 - k)``, with ``k`` the floating-point estimate of ``floor(log10
    |x|)``; ``k``; and whether ``N`` is certified: ``|x|`` in [1e-4, 1e16)
    (fixed notation), ``N`` of 17 digits (``k`` is right) and the fraction
    the rounding drops not within 1e-6 of 1/2 (no tie)."""
    ok = (ax >= 1e-4) & (ax < 1e16)  # False for NaN
    a = np.where(ok, ax, 1.0)
    k = np.floor(np.log10(a)).astype(np.intp)
    # Dekker's product: a * 10**(16 - k) == hi + lo exactly, since the
    # factor is an exact double
    p, ph, pl = (np.take(v, 16 - k) for v in _tables().pow10)
    ah, al = _split(a)
    hi = a * p
    lo = ((ah * ph - hi) + ah * pl + al * ph) + al * pl
    down = np.floor(lo)
    frac = lo - down
    N = hi.astype(np.int64) + down.astype(np.int64) + (frac > 0.5)
    ok &= (np.abs(frac - 0.5) >= 1e-6) & (N >= 10**16) & (N < 10**17)
    return N, k, ok


def float_rows(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``'%.17g' % v`` of each float64 ``v`` in ``x``, as NUL-padded byte
    rows (``n x 24``), and the mask of the entries ``%`` formatted.

    With ``|x|`` in [1e-4, 1e16), ``%.17g`` is fixed notation: the 17-digit
    rounding ``N`` of ``|x| * 10**(16 - X)`` printed with ``X + 1`` digits
    before the point, trailing zeros of the fraction and a bare point
    dropped.  ``_scaled_digits`` computes ``N`` exactly from an estimate of
    ``X = floor(log10 |x|)`` and certifies it.  ``%`` formats every other
    entry (not finite, exponent notation, ties and near-ties, a wrong
    estimate), except that numpy writes ``0`` and ``-0``.

    A certified field is built in a 32-byte row handled as four
    little-endian words: the sign at byte 1, ``0.`` at bytes 2-3 and the
    zeros after the point at bytes 4-6 (``X < 0``), the digits of ``N`` at
    bytes 7-23.  For ``X >= 0`` the fraction digits come from a copy of the
    digits shifted up one byte, which leaves byte ``8 + X`` for the point.
    One row of masks per ``(X, K)``, ``K`` the digits printed, selects the
    bytes of the text; bytes 1-24 are the field."""
    t = _tables()
    n = len(x)
    zero = x == 0
    N, k, ok = _scaled_digits(np.abs(x))
    N[~ok], k[~ok] = 10**16, 0  # a zero prints as the '1' of 10**16, then flipped to '0'
    top, low = np.divmod(N, 10**8)
    d0, mid = np.divmod(top.astype(np.int32), 10**8)
    g1, g2 = np.divmod(mid, 10**4)
    g3, g4 = np.divmod(low.astype(np.int32), 10**4)
    z = np.take(t.zeros, g4) + (g4 == 0) * (
        np.take(t.zeros, g3) + (g3 == 0) * (np.take(t.zeros, g2) + (g2 == 0) * np.take(t.zeros, g1))
    )
    layout = (k + 4) * 18 + np.maximum(k + 1, 17 - z)
    keep, keep_shifted, const = t.masks
    w = _digit_words(d0, g1, g2, g3, g4).ravel()
    shifted = w << np.uint64(8)
    shifted[1:] |= w[:-1] >> np.uint64(56)  # a word's top byte moves into the next word
    shifted &= np.take(keep_shifted, layout, axis=0).ravel()
    w &= np.take(keep, layout, axis=0).ravel()
    w |= shifted
    w |= np.take(const, layout, axis=0).ravel()
    out = w.reshape(n, 4)
    out[:, 0] |= np.signbit(x).astype(np.uint64) * np.uint64(ord("-") << 8)
    out[:, 0] ^= zero.astype(np.uint64) << np.uint64(56)
    text = out.astype(_LE64, copy=False).view(np.uint8)
    python = ~ok & ~zero
    for i in np.flatnonzero(python):
        s = ("%.17g" % x[i]).encode()
        text[i] = 0
        text[i, 1 : 1 + len(s)] = np.frombuffer(s, np.uint8)
    return text[:, 1:25], python


def int_rows(v: np.ndarray) -> np.ndarray:
    """``str(v)`` of each int64 or uint64 ``v``, as NUL-padded byte rows
    (``n x 21``: the sign, then 20 digits with the leading zeros NUL)."""
    mag = v.astype(np.uint64)
    neg = v < 0
    mag[neg] = ~mag[neg] + np.uint64(1)  # two's complement: int64's minimum included
    hi, rest = np.divmod(mag, np.uint64(10**16))
    top, low = np.divmod(rest, np.uint64(10**8))
    groups = [hi, *np.divmod(top, np.uint64(10**4)), *np.divmod(low, np.uint64(10**4))]
    words = _digit_words(*(g.astype(np.intp) for g in groups))
    text = words.astype(_LE64, copy=False).view(np.uint8)
    ndigits = 1 + np.searchsorted(10 ** np.arange(1, 20, dtype=np.uint64), mag, side="right")
    text[:, :24] *= np.arange(24) >= 24 - ndigits[:, None]
    text[:, 3] = neg * ord("-")
    return text[:, 3:24]


def str_rows(values: list) -> np.ndarray:
    """UTF-8 text of each string, as NUL-padded byte rows; a NUL inside a
    string would vanish with the padding, so it is an error."""
    encoded = [str(s).encode() for s in values]
    if any(b"\0" in s for s in encoded):
        raise ValueError("CSV string field contains a NUL character")
    width = max(1, max(map(len, encoded), default=0))
    return np.array(encoded, dtype=f"S{width}").view(np.uint8).reshape(len(encoded), width)


def csv_lines(fields: list[np.ndarray]) -> bytearray:
    """The CSV lines of byte-row ``fields`` (one matrix per column, rows
    alike): each row's fields joined by commas, a newline after each row,
    and every NUL byte dropped."""
    width = sum(f.shape[1] + 1 for f in fields)
    lines = bytearray(len(fields[0]) * width)  # ``translate`` reads it without a copy to bytes
    line = np.frombuffer(lines, np.uint8).reshape(-1, width)
    at = 0
    for f in fields:
        line[:, at : at + f.shape[1]] = f
        at += f.shape[1] + 1
        line[:, at - 1] = ord(",")
    line[:, -1] = ord("\n")
    return lines.translate(None, b"\0")
