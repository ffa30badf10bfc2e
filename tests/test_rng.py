"""Counter-keyed streams: determinism, purpose separation, block plans and
prefixes, and the Box-Muller normals: an oracle, the stream's state after a
draw, and a statistical battery."""

import math

import numpy as np
import pytest

from heisenpaths import sde
from heisenpaths.analysis import KOLMOGI_1PCT
from heisenpaths.rng import (
    BLOCK_PATHS,
    PURPOSE_AUX,
    PURPOSE_COMPARE,
    PURPOSE_MAIN,
    block_plan,
    stream,
)
from heisenpaths.sde import sim_hproc, sim_radial_h

from conftest import small_cfg
from test_bench_patch_points import load_tracer


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


def test_truncation_keeps_block_prefix():
    # a smaller run is a bitwise prefix of a bigger one: path count does not
    # re-seed anybody
    big = sim_radial_h(small_cfg(paths=600, horizon=0.05), x0=(0.5, 0.0), record_times=(0.05,))
    small = sim_radial_h(small_cfg(paths=40, horizon=0.05), x0=(0.5, 0.0), record_times=(0.05,))
    assert np.array_equal(big.states["r"][:, :40], small.states["r"])


# ---------------------------------------------------------------------------
# Box-Muller normals from the raw Philox words

SIZES = [16, 5, (4, 3), (2, BLOCK_PATHS)]


def philox(seed, purpose, block):
    return np.random.Philox(key=np.array([seed, (purpose << 40) + block], dtype=np.uint64))


def oracle_normals(seed, purpose, block, size):
    """The Box-Muller draw written out: radii from the first half of the
    53-bit uniforms, angles ``2 pi u`` from the second, cosine halves first."""
    k = math.prod(np.atleast_1d(size))
    m = -(-k // 2)
    u = (philox(seed, purpose, block).random_raw(2 * m) >> 11) * 2.0**-53
    radius = np.sqrt(-2.0 * np.log(1.0 - u[:m]))
    angle = 2.0 * np.pi * u[m:]
    return np.concatenate([radius * np.cos(angle), radius * np.sin(angle)])[:k].reshape(size)


def same_state(a, b) -> bool:
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(same_state(a[k], b[k]) for k in a)
    return np.array_equal(a, b)


@pytest.mark.parametrize("size", SIZES, ids=["16", "5", "4x3", "2x4096"])
def test_standard_normal_is_box_muller_of_the_raw_words(size):
    gen = stream(3, PURPOSE_COMPARE, 5)
    z = gen.standard_normal(size)
    assert z.shape == np.empty(size).shape and z.dtype == np.float64
    assert np.max(np.abs(z - oracle_normals(3, PURPOSE_COMPARE, 5, size))) <= 1e-14
    # the draw consumed exactly 2 ceil(k/2) words, so the next draw follows on
    k = z.size
    fresh = philox(3, PURPOSE_COMPARE, 5)
    fresh.random_raw(2 * -(-k // 2))
    assert same_state(gen.bit_generator.state, fresh.state)


def test_other_draws_are_numpys():
    # only standard_normal is replaced: uniforms are numpy's from the same key
    gen = stream(3, PURPOSE_AUX, 11)
    assert isinstance(gen, np.random.Generator)
    want = np.random.Generator(philox(3, PURPOSE_AUX, 11)).uniform(0.2, 1.3, 20)
    assert np.array_equal(gen.uniform(0.2, 1.3, 20), want)


def test_traced_generator_leaves_the_run_bit_identical(monkeypatch):
    tracer = load_tracer()
    cfg = small_cfg(horizon=0.2, paths=300, step=5e-3, pole_eps=0.05)
    plain = sim_hproc(cfg, x0=(0.3, 1.0), record_times=(0.1, 0.2))
    real, spans = sde.stream, tracer.Tracer()

    def traced(*args):
        gen = real(*args)
        return tracer._TracedGenerator(gen, spans.wrap("rng.standard_normal", gen.standard_normal))

    monkeypatch.setattr(sde, "stream", traced)
    ens = sim_hproc(cfg, x0=(0.3, 1.0), record_times=(0.1, 0.2))
    assert len(spans.spans) == cfg.steps
    for name in ("r", "th"):
        assert np.array_equal(ens.states[name], plain.states[name])
    assert np.array_equal(ens.alive, plain.alive)
    assert np.array_equal(ens.death_time, plain.death_time)


# statistical battery: 8 cells of 64 full-width step draws, 4,194,304 normals
CELLS = [
    (1, PURPOSE_MAIN, 0), (1, PURPOSE_MAIN, 1), (1, PURPOSE_COMPARE, 0), (1, PURPOSE_AUX, 7),
    (2, PURPOSE_MAIN, 0), (2**63 + 5, PURPOSE_MAIN, 3), (97, PURPOSE_COMPARE, 2**40 - 1), (0, PURPOSE_AUX, 11),
]
STEPS = 64


@pytest.fixture(scope="module")
def battery():
    """Normals as ``(cell, step, row, column)``, drawn as a simulator draws."""
    out = np.empty((len(CELLS), STEPS, 2, BLOCK_PATHS))
    for i, cell in enumerate(CELLS):
        gen = stream(*cell)
        for k in range(STEPS):
            out[i, k] = gen.standard_normal((2, BLOCK_PATHS))
    return out


def test_battery_is_normal_by_ks(battery):
    # one-sample KS against Phi at its 1% critical value, no slack
    x = np.sort(battery, axis=None)
    phi = np.frompyfunc(math.erfc, 1, 1)(x * -math.sqrt(0.5)).astype(float) * 0.5
    i = np.arange(1, x.size + 1)
    stat = max(np.max(i / x.size - phi), np.max(phi - (i - 1) / x.size))
    assert stat <= KOLMOGI_1PCT / math.sqrt(x.size), stat


def test_battery_moments(battery):
    # mean 0, variance 1 and E z^4 = 3, each within 4 standard errors
    x = battery.ravel()
    n = x.size
    x2 = x * x
    assert abs(x.mean()) <= 4 / math.sqrt(n)
    assert abs(x2.mean() - 1.0) <= 4 * math.sqrt(2 / n)
    assert abs(np.mean(x2 * x2) - 3.0) <= 4 * math.sqrt(96 / n)


@pytest.mark.parametrize("pair", ["rows", "steps", "columns"])
def test_battery_is_uncorrelated(battery, pair):
    # the two halves of a column's pair, the same coordinate at consecutive
    # steps, and neighbouring columns of one row: correlation within 4/sqrt(N)
    a, b = {
        "rows": (battery[:, :, 0], battery[:, :, 1]),
        "steps": (battery[:, :-1], battery[:, 1:]),
        "columns": (battery[..., :-1], battery[..., 1:]),
    }[pair]
    corr = np.corrcoef(a.ravel(), b.ravel())[0, 1]
    assert abs(corr) <= 4 / math.sqrt(a.size), corr
