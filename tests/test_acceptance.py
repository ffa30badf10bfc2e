"""End-to-end acceptance: one test per headline claim, each printing a
single PASS line with its measured quantities (surface them with
``pytest -rA`` or ``-s``; pytest's own PASSED/FAILED line per test is the
pass/fail record under plain ``-v``).

Monte Carlo budgets are fixed inline.  The law criteria assert every check
the experiment returns, so their bounds are the ones ``analysis`` decides
(and the manifest records); criterion 5 reads its KS slack from
``analysis.SLACK``.  Deterministic suites reuse the library verification
batteries and assert on the named records.
"""

import time

import numpy as np
import pytest

from heisenpaths.analysis import (
    SLACK,
    doob_semigroup_check,
    doob_semigroup_check_N,
    ergodic_expected,
    ergodic_experiment,
    green_relation_ratio,
    ks_critical,
    ks_two_sample,
    pushforward_experiment_cayley,
    pushforward_experiment_kelvin,
    tdist_experiment,
)
from heisenpaths.operators import TestFunction as Fn
from heisenpaths.operators import exp_jet, gauge_jet, heis_basket, sphere_basket
from heisenpaths.rng import PURPOSE_AUX, PURPOSE_COMPARE, stream
from heisenpaths.sde import SimConfig, project_radial, sim_full_h, sim_radial_h
from heisenpaths.verify import verify_geometry, verify_operators


def _timed(fn, *args, **kw):
    t0 = time.perf_counter()
    out = fn(*args, **kw)
    return out, time.perf_counter() - t0


def _records(batch):
    return {r.name: r for r in batch}


def _assert_checks(checks, names):
    """``checks`` are the named ones, in order, and every one passes."""
    assert [c.name for c in checks] == names
    assert [(c.name, c.value, c.tolerance) for c in checks if not c.passed] == []
    return {c.name: c for c in checks}


def _assert_named(records, prefix_list, bound_note=""):
    hit = [r for name, r in records.items() if any(name.startswith(p) for p in prefix_list)]
    assert hit, f"no records matched {prefix_list}"
    bad = [(r.name, r.value, r.tolerance) for r in hit if not r.passed]
    assert not bad, f"failing records {bound_note}: {bad}"
    return hit


def test_criterion_01_harmonicity():
    (records, meta), elapsed = _timed(verify_operators, seed=1)
    rec = _records(records)
    hit = _assert_named(rec, ["harmonicity_sphere_", "harmonicity_heis_"])
    assert elapsed < 5.0
    worst = max(r.value for r in hit)
    print(f"criterion 1 PASS: worst harmonicity residual {worst:.3e}, {elapsed:.2f}s")


def test_criterion_02_conjugation_identities():
    (records, meta), elapsed = _timed(verify_operators, seed=1)
    rec = _records(records)
    hit = _assert_named(
        rec, ["residual_conj_cayley_", "residual_doob_", "residual_kelvin_"]
    )
    assert all(r.tolerance <= 1e-5 for r in hit)
    assert elapsed < 30.0
    worst = max(r.value for r in hit)
    print(f"criterion 2 PASS: worst conjugation residual {worst:.3e}, {elapsed:.2f}s")


def test_criterion_03_geometry():
    records, elapsed = _timed(verify_geometry, seed=1)
    rec = _records(records)
    _assert_named(
        rec,
        [
            "kelvin_involution",
            "kelvin_factorization",
            "chart_roundtrip",
            "measure_jacobian",
            "gauge_transport",
            "factor_pullback",
        ],
    )
    assert rec["kelvin_involution"].tolerance <= 1e-12
    assert rec["chart_roundtrip_fwd"].tolerance <= 1e-10
    assert rec["measure_jacobian"].tolerance <= 1e-6
    assert elapsed < 5.0
    print(f"criterion 3 PASS: involution {rec['kelvin_involution'].value:.2e}, {elapsed:.2f}s")


def test_criterion_04_green_relation():
    t0 = time.perf_counter()
    rng = stream(1, PURPOSE_AUX, 99)
    for n in (1, 2):
        vals = []
        for _ in range(100):
            rs = float(np.arccos(rng.uniform(0.05, 0.995)))
            th = float(rng.uniform(0.3, 2 * np.pi - 0.3))
            vals.append(green_relation_ratio((rs, th), n))
        vals = np.asarray(vals)
        assert np.std(vals) / abs(np.mean(vals)) <= 1e-10
        assert abs(np.mean(vals) - 2.0**n) <= 1e-10
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    print(f"criterion 4 PASS: ratio constant, equals 2^n, {elapsed:.2f}s")


def test_criterion_05_sde_moments():
    t0 = time.perf_counter()
    cfg = SimConfig(n=1, step=1e-3, horizon=1.0, paths=100_000, seed=1)
    full = sim_full_h(cfg, record_times=(1.0,))
    r2 = np.sum(np.abs(full.states["z"][-1]) ** 2, axis=0)
    se_r = r2.std(ddof=1) / np.sqrt(cfg.paths)
    gap_r = abs(r2.mean() - 2.0)
    assert gap_r <= 3 * se_r + 0.05 * 2.0

    t2 = full.states["t"][-1] ** 2
    se_t = t2.std(ddof=1) / np.sqrt(cfg.paths)
    gap_t = abs(t2.mean() - 1.0)
    assert gap_t <= 3 * se_t + 0.05

    rad = sim_radial_h(cfg, x0=(0.0, 0.0), record_times=(1.0,), purpose=PURPOSE_COMPARE)
    proj = project_radial(full)
    crit = ks_critical(cfg.paths, cfg.paths)
    stats = {}
    for name in ("r", "t"):
        stat, _ = ks_two_sample(proj.states[name][-1], rad.states[name][-1])
        stats[name] = stat
        assert stat <= crit + SLACK, (name, stat, crit)
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    print(
        f"criterion 5 PASS: E r^2 gap {gap_r:.4f}, E t^2 gap {gap_t:.4f}, "
        f"KS {stats['r']:.4f}/{stats['t']:.4f} vs {crit + SLACK:.4f}, {elapsed:.0f}s"
    )


def test_criterion_06_cayley_pushforward():
    t0 = time.perf_counter()
    cfg = SimConfig(n=1, step=1e-3, horizon=1.0, paths=20_000, seed=1)
    rep = pushforward_experiment_cayley((0.0, 0.0), (0.3,), cfg, horizon_a=25.0)
    names = [f"cayley_u0_{s}" for s in ("ks_r", "ks_th", "ks_gauge", "drop_gap")]
    checks = _assert_checks(rep["checks"], names)
    rec = rep[0.3]
    elapsed = time.perf_counter() - t0
    assert elapsed < 180.0
    print(
        f"criterion 6 PASS: KS r/th/gauge "
        f"{rec['ks_r']:.4f}/{rec['ks_th']:.4f}/{rec['ks_gauge']:.4f} "
        f"vs {checks['cayley_u0_ks_r'].tolerance:.4f}, drops {rec['dropA']:.4f}/{rec['dropB']:.4f}, {elapsed:.0f}s"
    )


def test_criterion_07_absorption_time_law():
    t0 = time.perf_counter()
    cfg = SimConfig(n=1, step=1e-3, horizon=1.0, paths=20_000, seed=1)
    rep = tdist_experiment((0.0, 0.25, 0.5, 1.0, 2.0), cfg)
    checks = _assert_checks(rep["checks"], ["tdist_sup_gap", "tdist_s0_exact"])
    elapsed = time.perf_counter() - t0
    assert elapsed < 180.0
    gap = checks["tdist_sup_gap"]
    print(f"criterion 7 PASS: sup gap {gap.value:.4f} <= {gap.tolerance}, {elapsed:.0f}s")


def test_criterion_08_semigroup_identities():
    t0 = time.perf_counter()
    cfg = SimConfig(n=1, step=1e-3, horizon=1.0, paths=20_000, seed=1)
    # one conditioned and one free run per side, each recorded at both times
    results = [("sphere", out) for out in doob_semigroup_check(sphere_basket(), (0.0, 0.0), (0.25, 0.5), cfg)]
    results += [("heis", out) for out in doob_semigroup_check_N(heis_basket(), (1.0, 0.0), (0.25, 0.5), cfg)]
    assert len(results) == 24
    worst = ("", 0.0, 1.0)
    for side, out in results:
        assert out["check"].passed, (side, out["check"])
        if out["gap"] / out["tol"] > worst[1] / worst[2]:
            worst = (f"{side}:{out['func']}@{out['t']}", out["gap"], out["tol"])
    elapsed = time.perf_counter() - t0
    assert elapsed < 180.0
    print(
        f"criterion 8 PASS: worst {worst[0]} gap {worst[1]:.4f} vs tol {worst[2]:.4f}, {elapsed:.0f}s"
    )


def test_criterion_09_kelvin_disambiguation():
    t0 = time.perf_counter()
    cfg = SimConfig(n=1, step=1e-3, horizon=1.0, paths=20_000, seed=1)
    img = pushforward_experiment_kelvin((1.0, 0.0), (0.2,), cfg, orientation="image")
    pre = pushforward_experiment_kelvin((1.0, 0.0), (0.2,), cfg, orientation="preimage")
    # the image laws must agree; the preimage (wrong clock) laws must split
    names = [f"kelvin_image_u0_{s}" for s in ("ks_r", "ks_t", "ks_gauge", "drop_gap")]
    checks = _assert_checks(img["checks"] + pre["checks"], names + ["kelvin_preimage_u0_separation"])
    elapsed = time.perf_counter() - t0
    assert elapsed < 180.0
    rec, sep = img[0.2], checks["kelvin_preimage_u0_separation"]
    print(
        f"criterion 9 PASS: image KS r/t/gauge {rec['ks_r']:.4f}/{rec['ks_t']:.4f}/{rec['ks_gauge']:.4f} "
        f"vs {checks['kelvin_image_u0_ks_r'].tolerance:.4f}, drop gap {rec['drop_gap']:.4f} "
        f"vs {rec['drop_tol']:.4f}; preimage KS {sep.value:.4f} >= {sep.tolerance}, {elapsed:.0f}s"
    )


def test_criterion_10_ergodicity():
    t0 = time.perf_counter()
    cfg = SimConfig(n=1, step=1e-3, horizon=200.0, paths=1000, seed=1)
    est = ergodic_experiment(cfg)
    gap = abs(est.value - ergodic_expected(1))
    assert gap <= 0.01, (est.value, est.std_error)
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    print(f"criterion 10 PASS: long-run mean {est.value:.4f} vs 0.5 +- 0.01, {elapsed:.0f}s")


def test_criterion_11_reproducibility(tmp_path):
    from heisenpaths.cli import main

    args = ["experiment", "cayley", "paths=3000", "step=2e-3", "u_grid=0.3",
            "horizon_a=10", "--seed", "42"]
    outs = []
    for tag, workers in (("a", 1), ("b", 1), ("c", 4)):
        out = tmp_path / tag
        assert main(args + ["--out", str(out), "--workers", str(workers)]) == 0
        outs.append(out)
    for name in ("manifest.txt", "samples.csv"):
        ref = (outs[0] / name).read_bytes()
        assert (outs[1] / name).read_bytes() == ref, f"rerun changed {name}"
        assert (outs[2] / name).read_bytes() == ref, f"worker count changed {name}"
    print("criterion 11 PASS: byte-identical manifest and CSV across reruns and workers")
