"""Path simulators: config validation, exact moments, projection law,
absorption behaviour, early stopping of finished blocks, determinism."""

import hashlib
import math
from dataclasses import replace

import numpy as np
import pytest

from heisenpaths import sde
from heisenpaths.analysis import KOLMOGI_1PCT, ks_critical, ks_two_sample
from heisenpaths.geometry import TWO_PI, h_fun, koranyi_N
from heisenpaths.operators import drift_hproc
from heisenpaths.rng import PURPOSE_COMPARE
from heisenpaths.sde import (
    R_FLOOR,
    SimConfig,
    project_radial,
    sim_full_h,
    sim_hproc,
    sim_Nproc,
    sim_radial_h,
    sim_radial_s,
)

from conftest import small_cfg


# ---------------------------------------------------------------------------
# config


def test_config_validation():
    with pytest.raises(ValueError):
        SimConfig(n=0)
    with pytest.raises(ValueError):
        SimConfig(step=0.2)
    with pytest.raises(ValueError):
        SimConfig(step=1e-3, horizon=0.0015)  # not a whole number of steps
    with pytest.raises(ValueError):
        SimConfig(pole_eps=0.5)
    with pytest.raises(ValueError):
        SimConfig(paths=0)
    for seed in (-1, 2**64, 1.0):
        with pytest.raises(ValueError):
            SimConfig(seed=seed)
    assert SimConfig(seed=2**64 - 1).seed == 2**64 - 1


@pytest.mark.parametrize(
    "bad",
    [
        {"horizon": math.inf},
        {"horizon": math.nan},
        {"step": math.nan},
        {"step": math.inf},
        {"pole_eps": math.nan},
        {"pole_eps": math.inf},
        {"paths": math.inf},
        {"paths": 16.0},
    ],
)
def test_config_rejects_non_finite(bad):
    with pytest.raises(ValueError):
        SimConfig(**bad)


def test_start_point_must_be_finite():
    cfg = small_cfg(paths=8, horizon=0.01)
    for fn, x0 in (
        (sim_radial_h, (math.nan, 0.0)),
        (sim_radial_h, (0.3, math.inf)),
        (sim_radial_s, (0.3, math.nan)),
        (sim_hproc, (math.nan, 0.0)),
        (sim_Nproc, (1.0, math.inf)),
    ):
        with pytest.raises(ValueError):
            fn(cfg, x0=x0)
    with pytest.raises(ValueError):
        sim_full_h(cfg, x0_t=math.nan)
    with pytest.raises(ValueError):
        sim_radial_h(cfg, x0=(0.3, 0.0), record_times=(math.inf,))
    with pytest.raises(ValueError):
        sim_radial_h(cfg, x0=(0.3, 0.0), clock="cayley", levels=(math.nan,))


def test_absorption_floors():
    cfg = SimConfig(n=1, step=1e-3, pole_eps=1e-3)
    assert cfg.absorb_floor_h == pytest.approx(4e-6)
    # the gauge floor is widened so a unit step can actually cross it
    assert cfg.absorb_floor_N == pytest.approx((4 * 1 * 1e-3) ** 2)
    wide = SimConfig(n=1, step=1e-3, pole_eps=0.08)
    assert wide.absorb_floor_N == pytest.approx(0.08**4, rel=1e-12)


def test_steps_property():
    assert SimConfig(step=1e-3, horizon=2.0).steps == 2000


# ---------------------------------------------------------------------------
# exact moments of the flat simulator


@pytest.mark.parametrize("n", [1, 2])
def test_full_h_moments(n):
    cfg = small_cfg(n=n, step=2e-3, horizon=1.0, paths=20_000)
    ens = sim_full_h(cfg, record_times=(1.0,))
    T = cfg.horizon
    r2 = np.sum(np.abs(ens.states["z"][-1]) ** 2, axis=0)
    se = r2.std(ddof=1) / np.sqrt(cfg.paths)
    assert abs(r2.mean() - 2 * n * T) < 4 * se

    t2 = ens.states["t"][-1] ** 2
    se_t = t2.std(ddof=1) / np.sqrt(cfg.paths)
    # left-point area integral: the discrete second moment is exactly
    # n T^2 - n T step
    exact = n * T * T - n * T * cfg.step
    assert abs(t2.mean() - exact) < 4 * se_t


def chi2_even_cdf(x, n):
    """CDF of chi-squared with ``2n`` degrees of freedom:
    ``1 - exp(-x/2) sum_{k<n} (x/2)^k / k!``."""
    half = x / 2.0
    return 1.0 - np.exp(-half) * sum(half**k / math.factorial(k) for k in range(n))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_full_h_radius_is_exactly_chi2(n):
    # the Euler step of z is a sum of Gaussian increments, so |z_T|^2 / T is
    # chi-squared with 2n degrees of freedom at every step size: a
    # one-sample KS against the exact law at its 1% critical value, no slack
    cfg = SimConfig(n=n, step=1e-3, horizon=0.01, paths=100_000, seed=1)
    ens = sim_full_h(cfg, record_times=(cfg.horizon,))
    x = np.sort(np.sum(np.abs(ens.states["z"][-1]) ** 2, axis=0) / cfg.horizon)
    F = chi2_even_cdf(x, n)
    i = np.arange(1, x.size + 1)
    stat = max(np.max(i / x.size - F), np.max(F - (i - 1) / x.size))
    assert stat <= KOLMOGI_1PCT / np.sqrt(x.size), (n, stat)


def test_radial_h_matches_projection():
    # the radial pair of the full motion and the radial SDE agree in law
    for n in (1, 2):
        cfg = small_cfg(n=n, step=2e-3, horizon=1.0, paths=8192)
        full = project_radial(sim_full_h(cfg, record_times=(1.0,)))
        rad = sim_radial_h(cfg, x0=(0.0, 0.0), record_times=(1.0,), purpose=PURPOSE_COMPARE)
        for name in ("r", "t"):
            stat, _ = ks_two_sample(full.states[name][-1], rad.states[name][-1])
            crit = ks_critical(cfg.paths, cfg.paths)
            assert stat < crit + 0.02, (n, name, stat, crit)


def test_radial_s_stays_in_quadrant():
    # the step reflects at 0 and clamps at pi/2 - R_FLOOR; from a start
    # above the clamp, about a fifth of the paths sit on it after one step
    cfg = small_cfg(step=1e-3, horizon=0.5, paths=512, seed=1)
    ens = sim_radial_s(cfg, x0=(1.5707962, 1.0), record_times=(cfg.step, 0.25, 0.5))
    r, hi = ens.states["r"], np.pi / 2 - R_FLOOR
    assert np.all(r >= 0) and np.all(r <= hi)
    assert np.any(r[0] == hi)


# ---------------------------------------------------------------------------
# absorption


def test_hproc_rejects_pole_start():
    cfg = small_cfg()
    with pytest.raises(ValueError):
        sim_hproc(cfg, x0=(1e-9, np.pi))  # factor vanishes there


def test_nproc_rejects_origin_start():
    cfg = small_cfg()
    with pytest.raises(ValueError):
        sim_Nproc(cfg, x0=(1e-4, 0.0))


def test_hproc_absorption_monotone_in_floor():
    # a larger pole neighbourhood can only absorb more paths
    dead = []
    for eps in (1e-3, 5e-2):
        cfg = small_cfg(horizon=2.0, paths=2048, pole_eps=eps)
        ens = sim_hproc(cfg, x0=(0.0, 0.0), record_times=(2.0,))
        dead.append(float(np.mean(~ens.alive[-1])))
    assert dead[0] <= dead[1]


def test_hproc_freezes_after_death():
    cfg = small_cfg(horizon=3.0, paths=1024, step=5e-3)
    ens = sim_hproc(cfg, x0=(0.0, 0.0), record_times=(1.5, 3.0))
    died_early = ~ens.alive[0]
    if np.any(died_early):
        # state recorded at a later time equals the frozen death state
        assert np.array_equal(
            ens.states["r"][0][died_early], ens.states["r"][1][died_early]
        )
    # death times are on the step grid and inside the horizon for dead paths
    d = ens.death_time[~ens.alive[-1]]
    assert np.all(d <= cfg.horizon + 1e-12)
    assert np.allclose(d / cfg.step, np.round(d / cfg.step))


def test_hproc_eventually_absorbed():
    # the conditioned motion leaves through the factor zero almost surely
    cfg = small_cfg(horizon=14.0, step=2e-3, paths=2048)
    ens = sim_hproc(cfg, x0=(0.0, 0.0), record_times=(14.0,))
    assert float(np.mean(~ens.alive[-1])) > 0.99


def test_nproc_attracted_to_origin():
    # conditioned to hit the origin: the all-paths median gauge falls and the
    # absorbed fraction grows, while the surviving remainder is biased to
    # large gauge (survivorship)
    cfg = small_cfg(horizon=2.0, paths=1024)
    ens = sim_Nproc(cfg, x0=(1.0, 0.0), record_times=(0.5, 2.0))
    med = [
        np.median(koranyi_N(ens.states["r"][i], ens.states["t"][i]))
        for i in range(2)
    ]
    assert med[1] < med[0] < koranyi_N(1.0, 0.0)
    assert np.mean(~ens.alive[1]) > np.mean(~ens.alive[0])
    alive = ens.alive[-1]
    N_alive = koranyi_N(ens.states["r"][-1][alive], ens.states["t"][-1][alive])
    assert np.median(N_alive) > koranyi_N(1.0, 0.0)


def test_nproc_eventually_absorbed():
    # the absorption-time tail is polynomial (a hitting-time law), so the 99%
    # mark needs a genuinely long horizon: ~0.967 by t=25, ~0.99 only near
    # t≈150
    cfg = small_cfg(horizon=200.0, step=5e-3, paths=2048)
    ens = sim_Nproc(cfg, x0=(1.0, 0.0), record_times=(200.0,))
    assert float(np.mean(~ens.alive[-1])) > 0.99


# ---------------------------------------------------------------------------
# bookkeeping


def test_record_times_must_sit_on_grid():
    cfg = small_cfg(step=1e-3, horizon=0.1)
    with pytest.raises(ValueError):
        sim_radial_h(cfg, x0=(0.3, 0.0), record_times=(0.03341,))
    ens = sim_radial_h(cfg, x0=(0.3, 0.0), record_times=(0.033, 0.05))
    assert np.allclose(ens.times, (0.033, 0.05))


def test_determinism_and_purpose():
    cfg = small_cfg(paths=256, horizon=0.1)
    a = sim_radial_h(cfg, x0=(0.5, 0.0), record_times=(0.1,))
    b = sim_radial_h(cfg, x0=(0.5, 0.0), record_times=(0.1,))
    c = sim_radial_h(cfg, x0=(0.5, 0.0), record_times=(0.1,), purpose=PURPOSE_COMPARE)
    assert np.array_equal(a.states["r"], b.states["r"])
    assert not np.array_equal(a.states["r"], c.states["r"])


def test_clock_requires_known_name():
    cfg = small_cfg(paths=64, horizon=0.05)
    with pytest.raises(ValueError):
        sim_radial_h(cfg, x0=(0.5, 0.0), clock="nope")
    with pytest.raises(ValueError):
        sim_radial_h(cfg, x0=(0.5, 0.0), levels=(0.1,))  # levels without clock


def test_start_state_is_exact():
    cfg = small_cfg(paths=32, horizon=0.05)
    ens = sim_radial_s(cfg, x0=(0.7, 1.0), record_times=(0.0, 0.05))
    assert np.all(ens.states["r"][0] == 0.7)
    assert np.all(ens.states["th"][0] == 1.0)
    assert h_fun(0.7, 1.0) > 0  # sanity: start is well inside the live region
    # every simulator records its start point on every path at t=0
    cfg2 = replace(cfg, n=2)
    runs = [
        (sim_radial_h(cfg2, x0=(0.3, -0.2), record_times=(0.0,)), {"r": 0.3, "t": -0.2}),
        (sim_hproc(cfg2, x0=(0.7, 1.0), record_times=(0.0,)), {"r": 0.7, "th": 1.0}),
        (sim_Nproc(cfg2, x0=(0.5, 0.2), record_times=(0.0,)), {"r": 0.5, "t": 0.2}),
        (sim_full_h(cfg2, x0_t=0.1, record_times=(0.0,)), {"t": 0.1}),
    ]
    for ens, start in runs:
        for name, value in start.items():
            rec = ens.states[name][0]
            assert rec.dtype == np.float64 and rec.shape == (cfg.paths,)
            assert np.all(rec == value)
    z = runs[-1][0].states["z"][0]
    assert z.dtype == np.complex128 and z.shape == (2, cfg.paths)
    assert np.all(z == 0)


# ---------------------------------------------------------------------------
# finished blocks stop early


def count_block_steps(monkeypatch) -> list:
    """Record the size of every normal draw the simulators make: one draw
    per block-step."""
    draws = []
    real = sde.stream

    class Counting:
        def __init__(self, gen):
            self.gen = gen

        def standard_normal(self, size):
            draws.append(size)
            return self.gen.standard_normal(size)

    monkeypatch.setattr(sde, "stream", lambda *a: Counting(real(*a)))
    return draws


def test_record_after_last_crossing_keeps_clock_and_state(monkeypatch):
    cfg = small_cfg(horizon=1.0, paths=512)
    plain = sim_radial_h(cfg, clock="cayley", record_times=(0.5, 1.0))
    draws = count_block_steps(monkeypatch)
    ens = sim_radial_h(cfg, clock="cayley", levels=(0.1,), record_times=(0.5, 1.0))
    cross = ens.crossings[0.1]
    assert np.all(cross["hit"]) and np.max(cross["time"]) < 0.5
    # stepping continues to the last record time, and no further
    assert len(draws) == cfg.steps
    assert np.array_equal(ens.clock, plain.clock)
    for name in ("r", "t"):
        assert np.array_equal(ens.states[name], plain.states[name])
    assert np.all(ens.clock[-1] > 0.1)


def test_unreached_level_runs_to_horizon(monkeypatch):
    # at this horizon a handful of the 4096 paths never reach u=0.3
    cfg = small_cfg(horizon=0.4)
    draws = count_block_steps(monkeypatch)
    ens = sim_radial_h(cfg, clock="cayley", levels=(0.3,))
    cross = ens.crossings[0.3]
    miss = ~cross["hit"]
    assert 0 < np.sum(miss) < 20
    for name in ("r", "t", "time"):
        assert np.all(np.isnan(cross[name][miss]))
        assert np.all(np.isfinite(cross[name][~miss]))
    assert len(draws) == cfg.steps


def test_block_stops_when_kept_paths_crossed(monkeypatch):
    # some truncated columns of the block never cross: they must not keep it
    # stepping, and the kept columns must match the untruncated run
    full = sim_radial_h(small_cfg(horizon=0.4), clock="cayley", levels=(0.3,))
    keep = int(np.argmin(full.crossings[0.3]["hit"]))
    assert keep > 100
    cfg = small_cfg(horizon=0.4, paths=keep)
    draws = count_block_steps(monkeypatch)
    ens = sim_radial_h(cfg, clock="cayley", levels=(0.3,))
    last = float(np.max(ens.crossings[0.3]["time"]))
    assert len(draws) < cfg.steps
    assert (len(draws) - 1) * cfg.step < last <= len(draws) * cfg.step + 1e-12
    assert all(size == (2, sde.BLOCK_PATHS) for size in draws)  # draws stay full width
    for name, arr in ens.crossings[0.3].items():
        assert np.array_equal(arr, full.crossings[0.3][name][:keep], equal_nan=name != "hit")


def test_all_absorbed_block_repeats_frozen_state(monkeypatch):
    cfg = small_cfg(horizon=4.0, step=5e-3, paths=8, pole_eps=0.1, seed=2)
    record = (0.25, 1.0, 2.0)
    draws = count_block_steps(monkeypatch)
    ens = sim_Nproc(cfg, x0=(0.2, 0.0), record_times=record)
    assert np.any(ens.alive[0]) and not np.any(ens.alive[1:])
    assert np.all(ens.death_time <= 1.0)
    # every kept path is dead by the last record time: stepping ends there
    assert len(draws) == round(2.0 / cfg.step)
    for name in ("r", "t"):
        assert np.array_equal(ens.states[name][1], ens.states[name][2])
    # and the outputs are those of a block that runs to the horizon
    wide = sim_Nproc(small_cfg(horizon=4.0, step=5e-3, paths=64, pole_eps=0.1, seed=2),
                     x0=(0.2, 0.0), record_times=record)
    assert np.any(wide.alive[-1])
    assert np.array_equal(ens.alive, wide.alive[:, :8])
    assert np.array_equal(ens.death_time, wide.death_time[:8])
    for name in ("r", "t"):
        assert np.array_equal(ens.states[name], wide.states[name][:, :8])


# ---------------------------------------------------------------------------
# the fused sphere step runs the arithmetic of the operators module


def as_bits(x):
    return np.asarray(x, dtype=float).view(np.int64)


@pytest.mark.parametrize("n", [1, 2])
def test_hproc_step_drift_equals_drift_hproc_bitwise(n):
    rng = np.random.default_rng(7)
    lo = 0.5 * math.sqrt(1e-3)
    hi = math.pi / 2 - lo
    r = rng.uniform(lo, hi, 4096)
    r[:64] = rng.uniform(0.0, lo, 64)  # clipped up at the axis guard
    r[64:128] = rng.uniform(hi, math.pi / 2, 64)  # clipped down at the equator
    r[128:130] = (lo, hi)
    th = rng.uniform(0.0, TWO_PI, 4096)
    re = np.clip(r, lo, hi)
    assert np.sum(re != r) == 128
    ta, br, bth = sde._hproc_drift(sde._hproc_trig({"r": r, "th": th}), lo, hi, n)
    want_br, want_bth = drift_hproc((re, th), n)
    assert np.array_equal(as_bits(ta), as_bits(np.tan(re)))
    assert np.array_equal(as_bits(br), as_bits(want_br))
    assert np.array_equal(as_bits(bth), as_bits(want_bth))


def test_wrap_angle_equals_np_mod_bitwise():
    x = np.array([
        -0.0, 0.0, TWO_PI, np.nextafter(TWO_PI, 0.0), -1e-300, 4 * np.pi,
        np.nan, -np.nan, np.inf, -np.inf, 1.0, -3.0, 7.0,
    ])
    with np.errstate(invalid="ignore"):
        want = np.mod(x, TWO_PI)
        got = sde._wrap_angle(x.copy())
    assert np.array_equal(as_bits(got), as_bits(want))


# ---------------------------------------------------------------------------
# output digests of runs that no golden CLI run reaches


def ensemble_digest(ens) -> str:
    """SHA-256 over every array of an ensemble, with names, dtypes and
    shapes, in a fixed order."""
    h = hashlib.sha256()

    def put(name, arr):
        arr = np.ascontiguousarray(arr)
        h.update(f"{name}|{arr.dtype.str}|{arr.shape}\0".encode() + arr.tobytes())

    put("times", ens.times)
    for name in sorted(ens.states):
        put(f"states.{name}", ens.states[name])
    for name in ("alive", "death_time", "clock"):
        if getattr(ens, name) is not None:
            put(name, getattr(ens, name))
    for u in sorted(ens.crossings):
        for name in sorted(ens.crossings[u]):
            put(f"crossings.{u!r}.{name}", ens.crossings[u][name])
    for name in sorted(ens.averages):
        put(f"averages.{name}", ens.averages[name])
    return h.hexdigest()


# name -> (simulator, config overrides, call arguments, SHA-256 of the
# ensemble); every run has a partial final block (paths=4196)
DIGEST_RUNS = {
    # the ergodic_experiment path: averages over the whole horizon, no records
    "radial-s-averages": (
        sim_radial_s, dict(horizon=0.2),
        dict(x0=(0.4, 0.0), averages={"c2": lambda r, th: np.cos(r) ** 2}),
        "2b6aaf671b88d958a6bab109679616fe3bb5249ae0d860c87369fced3f687938",
    ),
    "full-h-n2": (
        sim_full_h, dict(n=2, horizon=0.2),
        dict(x0_t=0.1, record_times=(0.0, 0.1, 0.2)),
        "a510156d330fdb4011c0188a5a064a92286a6dc2a30a54701f1a5e927a07ac7d",
    ),
    "radial-h-clock": (
        sim_radial_h, dict(horizon=0.2),
        dict(x0=(0.3, 0.1), clock="kelvin_image", record_times=(0.1, 0.2)),
        "ba34e395453f8149266d17d9a3499d193a76d9070fbfb1c3ad6f6e02c7fe85a1",
    ),
    "radial-h-kelvin-preimage": (
        sim_radial_h, dict(horizon=0.4),
        dict(x0=(1.0, 0.0), clock="kelvin_preimage", levels=(0.05, 0.2), record_times=(0.1,)),
        "0a0f2237f3ec3bb411ae837fbaf123ba99123397ba93e3f942894b76de113744",
    ),
    "hproc-n2-equator": (
        sim_hproc, dict(n=2, horizon=0.1),
        dict(x0=(1.55, 1.0), record_times=(0.0, 0.05, 0.1)),
        "a502f21922a8418cbd4b4b1828468eb5c186181bad75f81a17d960a26570240a",
    ),
    # the final block is dead by t=1.135, after the last record time, so it
    # stops there while the first block runs to the horizon
    "nproc-dies-out": (
        sim_Nproc, dict(horizon=4.0, step=5e-3, pole_eps=0.1, seed=7),
        dict(x0=(0.2, 0.0), record_times=(0.25, 1.0)),
        "81e8e619becd779ced9c3cdeca950fdb660ef9107fb9d31ce0cae2185cce19d3",
    ),
}


@pytest.mark.parametrize("name", sorted(DIGEST_RUNS))
def test_simulator_output_digest(name, monkeypatch):
    fn, over, kwargs, digest = DIGEST_RUNS[name]
    cfg = small_cfg(**{"paths": 4196, "seed": 3, **over})
    draws = count_block_steps(monkeypatch)
    ens = fn(cfg, **kwargs)
    # the simulator draws through sde.stream, one full-width draw per step
    assert draws and all(size[-1] == sde.BLOCK_PATHS for size in draws)
    assert ensemble_digest(ens) == digest
