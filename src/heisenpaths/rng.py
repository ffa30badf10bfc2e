"""Deterministic random-stream layout over numpy's Philox generator.

Streams are keyed by ``(seed, purpose, block)``.  ``purpose`` separates the
independent sub-simulations inside one experiment; ``block`` indexes
fixed-width path blocks.  Because every block owns its own counter-based
stream, results are bitwise independent of how blocks are scheduled across
worker threads, and a run is reproducible from ``(seed, purposes, paths)``
alone.

``BLOCK_PATHS`` is part of the output contract: changing it reshuffles which
stream drives which path, which changes every sampled number.
"""

from __future__ import annotations

import numpy as np

BLOCK_PATHS = 4096

# purpose ids; one stream family per logical noise source
PURPOSE_MAIN = 0       # the primary path ensemble of a command
PURPOSE_COMPARE = 1    # the comparison ensemble (second route / second law)
PURPOSE_AUX = 2        # auxiliary draws (weights, controls)

_PURPOSE_SHIFT = 40  # block index lives in the low 40 bits of the second key word


def stream(seed: int, purpose: int, block: int) -> np.random.Generator:
    """Philox generator for one ``(purpose, block)`` cell of a run."""
    if not 0 <= block < (1 << _PURPOSE_SHIFT):
        raise ValueError(f"block index out of range: {block}")
    # an explicit uint64 key: a list of Python ints above 2**63 would reach
    # Philox through a lossy float cast
    key = np.array([int(seed), (int(purpose) << _PURPOSE_SHIFT) + int(block)], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


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
