#!/usr/bin/env python3
"""Compare the CSV float renderer with Python's ``'%.17g' % v`` over sets
of float64 values chosen to hit its edges, and print the number of texts
that differ and the share of values the renderer left to ``%``.

The values are split evenly over five sets:

* ``bits``: random 64-bit patterns, so every exponent, NaN and infinity;
* ``powers``: powers of ten from 1e-323 to 1e308, a few ulps either way;
* ``edges``: values within 1000 ulps of 1e-4 and of 1e16, where ``%.17g``
  switches between fixed and exponent notation;
* ``ties``: values whose 17-digit rounding is a tie or within 2e-6 of one,
  so about half of them lie inside the 1e-6 window the renderer leaves to
  ``%``, and half just outside it;
* ``special``: subnormals, +-0, +-inf and NaN.

Usage:
    python3 scripts/csv_format_sweep.py --values 10000000 --seed 1
"""

import argparse
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from heisenpaths.cli import CSV_CHUNK_ROWS  # noqa: E402
from heisenpaths.csvrows import float_rows  # noqa: E402


def signed(rng, x: np.ndarray) -> np.ndarray:
    return np.where(rng.random(len(x)) < 0.5, -x, x)


def ulps_from(rng, base: np.ndarray, reach: int) -> np.ndarray:
    """``base`` (positive) moved by up to ``reach`` ulps either way."""
    bits = base.view(np.int64) + rng.integers(-reach, reach + 1, len(base))
    return bits.view(np.float64)


def bits(rng, n):
    return rng.integers(0, 2**64, n, dtype=np.uint64).view(np.float64)


def powers(rng, n):
    table = np.array([float(f"1e{j}") for j in range(-323, 309)])  # the doubles nearest 10**j
    return signed(rng, ulps_from(rng, rng.choice(table, n), 4))


def edges(rng, n):
    return signed(rng, ulps_from(rng, rng.choice([1e-4, 1e16], n), 1000))


def ties(rng, n):
    """``x = m * 2**(e - 52)`` with ``m`` chosen so that the fraction of
    ``x * 10**(16 - k)``, ``k = floor(log10 x)``, is ``1/2 + r / 2**s``
    with ``|r / 2**s|`` below 2e-6 (``r = 0`` is an exact tie)."""
    out = []
    while len(out) < n:
        e = int(rng.integers(-14, 54))
        k = int(np.floor(e * np.log10(2.0)))
        s = 52 - e - (16 - k)  # fractional bits of x * 10**(16 - k)
        if not 20 <= s <= 52:
            continue
        reach = int(2e-6 * 2**s)
        r = int(rng.integers(-reach, reach + 1))
        m = (2 ** (s - 1) + r) * pow(5 ** (16 - k), -1, 2**s) % 2**s
        m += 2**s * int(rng.integers(2 ** (52 - s), 2 ** (53 - s)))  # 2**52 <= m < 2**53
        x = m * 2.0 ** (e - 52)
        if np.floor(np.log10(x)) == k:
            out.append(x)
    return signed(rng, np.array(out))


def special(rng, n):
    sub = rng.integers(1, 2**52, n, dtype=np.uint64).view(np.float64)
    fixed = np.array([0.0, -0.0, np.inf, -np.inf, np.nan])
    return signed(rng, np.where(rng.random(n) < 0.5, sub, rng.choice(fixed, n)))


SETS = {"bits": bits, "powers": powers, "edges": edges, "ties": ties, "special": special}


def compare(values: np.ndarray) -> tuple[int, int]:
    """Mismatches against ``%.17g`` and entries left to ``%``, in chunks of
    ``2 * CSV_CHUNK_ROWS`` values."""
    mismatches = python = 0
    step = 2 * CSV_CHUNK_ROWS
    for lo in range(0, len(values), step):
        chunk = values[lo : lo + step]
        rows, fell = float_rows(chunk)
        python += int(np.count_nonzero(fell))
        lines = np.concatenate([rows, np.full((len(rows), 1), ord("\n"), np.uint8)], axis=1)
        got = lines.tobytes().translate(None, b"\0").decode().splitlines()
        want = ["%.17g" % v for v in chunk.tolist()]
        if got != want:
            mismatches += sum(g != w for g, w in zip(got, want))
    return mismatches, python


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--values", type=int, default=1_000_000, help="values in all, split over the five sets")
    ap.add_argument("--seed", type=int, default=1)
    ns = ap.parse_args()
    rng = np.random.default_rng(ns.seed)
    total_bad = total_python = total = 0
    print("set\tvalues\tmismatches\tleft_to_%\tshare_left_to_%")
    for name, make in SETS.items():
        n = ns.values // len(SETS)
        bad, python = compare(make(rng, n))
        total_bad, total_python, total = total_bad + bad, total_python + python, total + n
        print(f"{name}\t{n}\t{bad}\t{python}\t{python / max(n, 1):.4f}", flush=True)
    print(f"all\t{total}\t{total_bad}\t{total_python}\t{total_python / max(total, 1):.4f}")
    return 1 if total_bad else 0


if __name__ == "__main__":
    sys.exit(main())
