"""Deterministic random-stream layout over numpy's Philox generator.

Streams are keyed by ``(seed, purpose, block)``.  ``purpose`` separates the
independent sub-simulations inside one experiment; ``block`` indexes
fixed-width path blocks.  Because every block owns its own counter-based
stream, results are bitwise independent of how blocks are scheduled across
worker threads, and a run is reproducible from ``(seed, purposes, paths)``
alone.

Normals come from a Box-Muller transform of the stream's raw 64-bit Philox
words (Box & Muller, Ann. Math. Stat. 1958), not from numpy's ziggurat.  A
draw of ``k`` values reads ``2m`` words, ``m = ceil(k/2)``, and turns each
into a 53-bit uniform ``u = (w >> 11) * 2**-53`` in ``[0, 1)``.  The first
``m`` uniforms give radii ``R = sqrt(-2 ln(1 - u))``, so ``|z| <= sqrt(106
ln 2) ~ 8.57``; the next ``m`` give half-angles ``pi u`` through ``t =
tan(pi u)``.  The draw is the ``m`` cosine halves ``R (1 - t^2)/(1 + t^2)``
followed by the ``m`` sine halves ``2 R t/(1 + t^2)``, cut to ``k`` and
reshaped in C order: rows 0 and 1 of a ``(2, width)`` draw are the two
halves of one pair per column, and a ``(2n, width)`` draw holds the cosine
halves in its first ``n`` rows.  Output bytes depend on numpy's SIMD
``log`` and ``tan``.

``BLOCK_PATHS`` is part of the output contract: changing it reshuffles which
stream drives which path, which changes every sampled number.
"""

from __future__ import annotations

import functools
import math

import numpy as np

BLOCK_PATHS = 4096

# purpose ids; one stream family per logical noise source
PURPOSE_MAIN = 0       # the primary path ensemble of a command
PURPOSE_COMPARE = 1    # the comparison ensemble (second route / second law)
PURPOSE_AUX = 2        # auxiliary draws (weights, controls)

_PURPOSE_SHIFT = 40  # block index lives in the low 40 bits of the second key word


def box_muller_normals(gen: np.random.Generator, size) -> np.ndarray:
    """``size`` standard normals from ``gen``'s raw Philox words, laid out as
    the module docstring says; ``standard_normal`` of every stream."""
    k = math.prod(size) if np.iterable(size) else int(size)
    m = -(-k // 2)
    w = gen.bit_generator.random_raw(2 * m)
    w >>= 11
    u = w.astype(np.float64)
    u *= 2.0**-53
    r, t = u[:m], u[m:]
    np.subtract(1.0, r, out=r)
    np.log(r, out=r)
    r *= -2.0
    np.sqrt(r, out=r)
    t *= np.pi
    np.tan(t, out=t)
    q = np.multiply(t, t)
    q += 1.0
    q *= 0.5
    np.divide(r, q, out=q)  # 2R/(1 + t^2)
    np.subtract(q, r, out=r)  # R (1 - t^2)/(1 + t^2)
    t *= q  # 2Rt/(1 + t^2)
    return u[:k].reshape(size)


@functools.cache
def _generator_type() -> type:
    # numpy imports numpy.random on first use; subclassing its Generator
    # here rather than at import keeps that import out of start-up
    class BoxMullerGenerator(np.random.Generator):
        """A numpy Generator whose ``standard_normal`` is
        :func:`box_muller_normals`; every other method is numpy's."""

        standard_normal = box_muller_normals

    return BoxMullerGenerator


def stream(seed: int, purpose: int, block: int) -> np.random.Generator:
    """Philox generator for one ``(purpose, block)`` cell of a run, drawing
    normals by Box-Muller from its raw words."""
    if not 0 <= block < (1 << _PURPOSE_SHIFT):
        raise ValueError(f"block index out of range: {block}")
    # an explicit uint64 key: a list of Python ints above 2**63 would reach
    # Philox through a lossy float cast
    key = np.array([int(seed), (int(purpose) << _PURPOSE_SHIFT) + int(block)], dtype=np.uint64)
    return _generator_type()(np.random.Philox(key=key))


def block_plan(paths: int) -> list[tuple[int, int]]:
    """Fixed decomposition of ``paths`` into ``(block_index, width)`` cells.

    Every block draws at full ``BLOCK_PATHS`` width so that enlarging
    ``paths`` only appends paths without disturbing existing ones; a partial
    final block is truncated by the caller after drawing.
    """
    if paths < 1:
        raise ValueError("paths must be positive")
    nblocks = -(-paths // BLOCK_PATHS)
    return [
        (b, min(BLOCK_PATHS, paths - b * BLOCK_PATHS)) for b in range(nblocks)
    ]
