"""Counter-keyed streams: determinism, purpose separation, worker invariance."""

import numpy as np

from heisenpaths.rng import (
    BLOCK_PATHS,
    PURPOSE_AUX,
    PURPOSE_COMPARE,
    PURPOSE_MAIN,
    block_plan,
    stream,
)
from heisenpaths.sde import sim_radial_h

from conftest import small_cfg


def test_stream_deterministic():
    a = stream(3, PURPOSE_MAIN, 0).standard_normal(16)
    b = stream(3, PURPOSE_MAIN, 0).standard_normal(16)
    assert np.array_equal(a, b)


def test_stream_separation():
    base = stream(3, PURPOSE_MAIN, 0).standard_normal(16)
    for other in (
        stream(4, PURPOSE_MAIN, 0),
        stream(3, PURPOSE_COMPARE, 0),
        stream(3, PURPOSE_AUX, 0),
        stream(3, PURPOSE_MAIN, 1),
    ):
        assert not np.array_equal(base, other.standard_normal(16))


def test_stream_key_is_exact_for_every_seed():
    for seed in (0, 2**53 + 1, 2**63, 2**64 - 1):
        key = stream(seed, PURPOSE_COMPARE, 5).bit_generator.state["state"]["key"]
        assert [int(k) for k in key] == [seed, (PURPOSE_COMPARE << 40) + 5]


def test_block_plan_covers_paths():
    for paths in (1, BLOCK_PATHS - 1, BLOCK_PATHS, BLOCK_PATHS + 1, 3 * BLOCK_PATHS + 17):
        plan = block_plan(paths)
        assert sum(keep for _, keep in plan) == paths
        assert all(0 < keep <= BLOCK_PATHS for _, keep in plan)
        assert [b for b, _ in plan] == list(range(len(plan)))


def test_worker_count_invisible():
    # the same draws are made per block regardless of scheduling
    cfg1 = small_cfg(paths=BLOCK_PATHS + 100, horizon=0.05, workers=1)
    cfg4 = small_cfg(paths=BLOCK_PATHS + 100, horizon=0.05, workers=4)
    a = sim_radial_h(cfg1, x0=(0.5, 0.0), record_times=(0.05,))
    b = sim_radial_h(cfg4, x0=(0.5, 0.0), record_times=(0.05,))
    assert np.array_equal(a.states["r"], b.states["r"])
    assert np.array_equal(a.states["t"], b.states["t"])


def test_truncation_keeps_block_prefix():
    # a smaller run is a bitwise prefix of a bigger one: path count does not
    # re-seed anybody
    big = sim_radial_h(small_cfg(paths=600, horizon=0.05), x0=(0.5, 0.0), record_times=(0.05,))
    small = sim_radial_h(small_cfg(paths=40, horizon=0.05), x0=(0.5, 0.0), record_times=(0.05,))
    assert np.array_equal(big.states["r"][:, :40], small.states["r"])
