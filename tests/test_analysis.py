"""Green kernels, survival estimator, KS machinery, martingale and ergodic
checks at desk scale."""

import numpy as np
import pytest

from heisenpaths import analysis
from heisenpaths.analysis import (
    CheckRecord,
    KOLMOGI_1PCT,
    MCEstimate,
    _kolmogorov,
    _mean_se,
    doob_semigroup_check,
    doob_semigroup_check_N,
    ergodic_expected,
    ergodic_experiment,
    green_constant,
    green_H_pole,
    green_relation_ratio,
    green_S_pole,
    ks_critical,
    ks_two_sample,
    survival_eigenfactor,
    survival_T,
    tdist_experiment,
)
from heisenpaths.geometry import HPoint, cayley1_chart, group_inv, group_mul
from heisenpaths.operators import (
    apply_LH,
    apply_LS,
    h_fun_jet,
    heis_basket,
    power_jet,
    sphere_basket,
    sphere_generator,
)
from heisenpaths.sde import PathEnsemble, sim_full_h, sim_radial_s

from conftest import small_cfg


# ---------------------------------------------------------------------------
# green kernels


def test_green_constant_frozen():
    # Gamma(1/2)^2 / (8 pi^2) = 1/(8 pi)
    assert green_constant(1) == pytest.approx(1.0 / (8 * np.pi), rel=1e-14)


def test_green_pole_frozen():
    assert green_H_pole((1.0, 0.0), 1) == pytest.approx(1.0 / (8 * np.pi), rel=1e-14)


def green_H_two(p: HPoint, q: HPoint, n: int) -> float:
    """Two-point kernel ``c_n N(q^(-1) p)^(-n/2)``; left-invariant and
    symmetric because the gauge is inverse-invariant."""
    d = group_mul(group_inv(q), p)
    return float(green_H_pole((np.sqrt(np.sum(np.abs(d.z) ** 2)), d.t), n))


def test_green_two_point_invariance(rng):
    n = 2
    for _ in range(20):
        z1, z2, g = (rng.standard_normal(n) + 1j * rng.standard_normal(n) for _ in range(3))
        p = HPoint(z=z1, t=rng.standard_normal())
        q = HPoint(z=z2, t=rng.standard_normal())
        gg = HPoint(z=g, t=rng.standard_normal())
        a = green_H_two(p, q, n)
        b = green_H_two(group_mul(gg, p), group_mul(gg, q), n)
        assert b == pytest.approx(a, rel=1e-9)
        assert green_H_two(q, p, n) == pytest.approx(a, rel=1e-12)


def test_green_relation_constant():
    vals = [
        green_relation_ratio((rs, th), 1)
        for rs in (0.3, 0.7, 1.1)
        for th in (0.5, 2.0, 4.0)
    ]
    assert np.std(vals) / np.mean(vals) < 1e-10
    assert np.mean(vals) == pytest.approx(2.0, rel=1e-10)
    assert green_relation_ratio((0.5, 1.0), 2) == pytest.approx(4.0, rel=1e-10)


def test_green_sphere_blows_up_at_pole():
    # pole sits at the chart centre, where the companion factor vanishes
    assert green_S_pole((0.05, 0.01), 1) > 10 * green_S_pole((0.5, 1.0), 1)


# ---------------------------------------------------------------------------
# KS machinery


def test_ks_frozen_example():
    a = np.repeat([1.0, 2.0, 3.0], 10)
    b = np.repeat([1.5, 2.5, 3.5], 10)
    stat, p = ks_two_sample(a, b)
    assert stat == pytest.approx(1.0 / 3.0, rel=1e-12)
    assert 0 < p <= 1


def test_ks_rejects_tiny_samples():
    with pytest.raises(ValueError):
        ks_two_sample(np.arange(5), np.arange(20))


def test_ks_critical_monotone():
    assert ks_critical(100, 100) > ks_critical(10_000, 10_000)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_ks_rejects_non_finite_samples(bad):
    a = np.arange(20.0)
    b = np.arange(20.0)
    b[::2] = bad
    for pair in ((a, b), (b, a)):
        with pytest.raises(ValueError, match="finite"):
            ks_two_sample(*pair)


@pytest.mark.parametrize("m, k", [(0, 10), (10, 0), (-3, 10)])
def test_ks_critical_rejects_empty_samples(m, k):
    with pytest.raises(ValueError, match="positive"):
        ks_critical(m, k)


# The Kolmogorov law is computed in-repo with the arithmetic of
# scipy.special; scipy, a test dependency only, is the bit-for-bit reference.


def same_bits(x, y) -> bool:
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    nan = np.isnan(x)
    return np.array_equal(nan, np.isnan(y)) and np.array_equal(
        x[~nan].view(np.int64), y[~nan].view(np.int64)
    )


def kolmogorov_grid() -> np.ndarray:
    cut = np.pi / np.sqrt(8 * 746)  # the cdf underflows at or below ~0.040666
    return np.concatenate(
        [
            np.linspace(0.0, 40.0, 200_001),
            np.linspace(0.03, 0.05, 2001),
            [cut, np.nextafter(cut, 0), np.nextafter(cut, 1)],
            np.linspace(0.81, 0.83, 2001),
            [0.82, np.nextafter(0.82, 0), np.nextafter(0.82, 1)],
            [-0.0, -5e-324, -1.0, -np.inf, np.inf, np.nan, 5e-324],
        ]
    )


def test_kolmogorov_sf_matches_scipy_bitwise():
    special = pytest.importorskip("scipy.special")
    xs = kolmogorov_grid()
    sf = [_kolmogorov(float(x)) for x in xs]
    assert same_bits(sf, special.kolmogorov(xs))


def test_kolmogi_1pct_is_the_smallest_double_with_tail_below_one_percent():
    assert _kolmogorov(np.nextafter(KOLMOGI_1PCT, 0)) > 0.01 >= _kolmogorov(KOLMOGI_1PCT)


def test_ks_critical_matches_scipy_kolmogi_bitwise():
    special = pytest.importorskip("scipy.special")
    assert same_bits(KOLMOGI_1PCT, special.kolmogi(0.01))
    for m, k in ((10, 10), (8192, 7000), (20_000, 13)):
        assert same_bits(ks_critical(m, k), special.kolmogi(0.01) * np.sqrt((m + k) / (m * k)))


# ---------------------------------------------------------------------------
# survival


def test_survival_eigenfactor_halfrate():
    # half-generator convention: the ground-state eigenvalue enters as
    # exp(-n^2 t / 2)
    assert survival_eigenfactor(1, 2.0) == pytest.approx(np.exp(-1.0))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_survival_eigenfactor_rate_matches_generator(n):
    # off the pole the weight w = h^(-n/2) is an eigenfunction of the sphere
    # generator, so the factor decays at the rate (1/2) L_S w / w
    rs, th = np.meshgrid(np.linspace(0.1, 1.4, 6), np.linspace(-2.5, 2.5, 7))
    w = power_jet(h_fun_jet(rs, th), -0.5 * n)
    rate = 0.5 * sphere_generator(w, rs, n) / w.f
    for t in (0.25, 1.0, 3.0):
        decay = -np.log(survival_eigenfactor(n, t)) / t
        assert rate == pytest.approx(np.full(rate.shape, decay), rel=1e-11)


@pytest.mark.parametrize("n", [2, 3])
def test_survival_weight_is_h_to_the_minus_n_over_2(n, monkeypatch):
    # every path sits at (0, 2pi/3), where h = 1, and the start (0, 0) has
    # h = 4: the weight ratio is (1/4)^(-n/2) = 2^n.  A weight h^(-n^2/2)
    # would give 2^(n^2), which differs from 2^n for n >= 2.
    def at_h_one(run, x0, record_times, purpose):
        shape = (len(record_times), 5)
        return PathEnsemble(np.asarray(record_times), {"r": np.zeros(shape), "th": np.full(shape, 2 * np.pi / 3)})

    monkeypatch.setattr(analysis, "sim_radial_s", at_h_one)
    ts = np.array([0.25, 1.0])
    curve = survival_T((0.0, 0.0), ts, small_cfg(n=n, paths=5))
    assert curve.s_hat == pytest.approx(np.exp(-0.5 * n**2 * ts) * 2.0**n, rel=1e-12)
    assert curve.capped_mass == 0.0


def test_survival_curve_shape():
    cfg = small_cfg(paths=4096, step=2e-3, horizon=1.0)
    ts = np.array([0.0, 0.25, 0.5, 1.0])
    curve = survival_T((0.0, 0.0), ts, cfg)
    assert curve.s_hat[0] == 1.0 and curve.se[0] == 0.0
    # nonincreasing within statistical slack
    for a, b, sa, sb in zip(curve.s_hat, curve.s_hat[1:], curve.se, curve.se[1:]):
        assert b <= a + 2 * (sa + sb) + 1e-12
    assert 0 <= curve.capped_mass < 0.05


def test_tdist_small():
    cfg = small_cfg(paths=4096, step=2e-3, horizon=1.0)
    rep = tdist_experiment((0.0, 0.5, 1.0), cfg)
    assert rep["sup_gap"] < 0.05
    assert rep["ecdf"][0] == 0.0
    # the gap is taken at the positive times only, and its sup is the check's value
    assert rep["gap"][0] == 0.0 and rep["sup_gap"] == max(rep["gap"])
    assert [(c.name, c.value) for c in rep["checks"]] == [("tdist_sup_gap", rep["sup_gap"]), ("tdist_s0_exact", 0.0)]


# ---------------------------------------------------------------------------
# martingale property of the generators


def martingale_residual(f, ens, side: str, n: int, compensate: bool = True) -> MCEstimate:
    """Mean terminal value of ``f(X_T) - f(X_0) - (1/2) int L f(X_s) ds``
    along a densely recorded ensemble (trapezoid in time); zero in law for
    the matching generator.  With ``compensate=False`` the integral term is
    dropped, which turns the residual into a drift meter.
    """
    coord, op = {"sphere": ("th", apply_LS), "heis": ("t", apply_LH)}[side]
    u, v = ens.states["r"], ens.states[coord]
    vals = f.eval(u, v)
    res = vals[-1] - vals[0]
    if compensate:
        lf = 0.5 * op(f, (u, v), n)
        dt = np.diff(ens.times)[:, None]
        res = res - np.sum(0.5 * dt * (lf[:-1] + lf[1:]), axis=0)
    return _mean_se(res)


def test_martingale_residual_sphere():
    cfg = small_cfg(paths=8192, step=2e-3, horizon=0.5)
    ens = sim_radial_s(cfg, x0=(0.6, 1.0), record_times=tuple(np.linspace(0, 0.5, 26)))
    f = sphere_basket()[0]
    res = martingale_residual(f, ens, side="sphere", n=cfg.n)
    assert abs(res.value) < 4 * res.std_error + 2e-3


def test_martingale_residual_heis_quadratic():
    cfg = small_cfg(paths=8192, step=2e-3, horizon=0.5, n=1)
    from heisenpaths.sde import project_radial

    ens = project_radial(sim_full_h(cfg, record_times=tuple(np.linspace(0, 0.5, 26))))
    r2 = [f for f in heis_basket() if f.name == "r2"][0]
    drift = martingale_residual(r2, ens, side="heis", n=1, compensate=False)
    # E[r_T^2 - r_0^2] = 2 n T under the half generator
    assert drift.value == pytest.approx(2 * 1 * 0.5, abs=4 * drift.std_error)
    res = martingale_residual(r2, ens, side="heis", n=1)
    assert abs(res.value) < 4 * res.std_error + 2e-3


# ---------------------------------------------------------------------------
# semigroup comparison


@pytest.mark.parametrize("idx", [0, 4])
def test_semigroup_sphere_small(idx):
    cfg = small_cfg(paths=4096, step=2e-3)
    f = sphere_basket()[idx]
    (out,) = doob_semigroup_check([f], (0.0, 0.0), (0.25,), cfg)
    assert (out["func"], out["t"]) == (f.name, 0.25)
    assert out["check"] == CheckRecord(f"semigroup_{f.name}_t0.25", out["gap"], out["tol"])
    assert out["check"].passed, out["check"]


def test_semigroup_gauge_side_small():
    from heisenpaths.operators import TestFunction as Fn
    from heisenpaths.operators import exp_jet, gauge_jet

    cfg = small_cfg(paths=4096, step=2e-3)
    F = Fn("expN", lambda u, v: exp_jet(gauge_jet(u, v), -1.0))
    (out,) = doob_semigroup_check_N([F], (1.0, 0.0), (0.5,), cfg)
    assert out["check"] == CheckRecord("semigroup_N_expN_t0.5", out["gap"], out["tol"])
    assert out["check"].passed, out["check"]


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("side", ["sphere", "heis"])
def test_semigroup_batch_equals_single_checks_bitwise(side, n):
    # each process runs once, to the last time, recording at both times; the
    # times come unsorted, so a result read from the wrong record slot, or
    # with the eigenfactor or weight of another time, differs from a run to
    # its own time.  repr tells apart every float bit pattern but NaN's.
    check, basket, x = {
        "sphere": (doob_semigroup_check, sphere_basket(), (0.3, 1.0)),
        "heis": (doob_semigroup_check_N, heis_basket(), (0.8, 0.5)),
    }[side]
    cfg = small_cfg(n=n, paths=512, step=5e-3)
    ts = (0.5, 0.25)
    batch = check(basket, x, ts, cfg)
    assert [(out["func"], out["t"]) for out in batch] == [(f.name, t) for f in basket for t in ts]
    singles = [check([f], x, (t,), cfg) for f in basket for t in ts]
    assert [repr(out) for out in batch] == [repr(out) for (out,) in singles]


# ---------------------------------------------------------------------------
# pushforward experiments (desk scale; acceptance runs the stated sizes)


def test_cayley_pushforward_small():
    from heisenpaths.analysis import pushforward_experiment_cayley

    cfg = small_cfg(paths=3000, step=2e-3, horizon=1.0)
    rep = pushforward_experiment_cayley((0.0, 0.0), (0.3,), cfg, horizon_a=25.0)
    assert [c.name for c in rep["checks"]] == [f"cayley_u0_{s}" for s in ("ks_r", "ks_th", "ks_gauge", "drop_gap")]
    assert [c for c in rep["checks"] if not c.passed] == []
    # the chart image of the start shows up as the u -> 0 concentration point
    q0 = cayley1_chart(0.0, 0.0)
    assert q0[0] == 0.0


def test_kelvin_pushforward_orientations_small():
    from heisenpaths.analysis import pushforward_experiment_kelvin

    cfg = small_cfg(paths=3000, step=2e-3, horizon=1.0)
    img = pushforward_experiment_kelvin((1.0, 0.0), (0.2,), cfg, orientation="image", horizon_a=25.0)
    pre = pushforward_experiment_kelvin((1.0, 0.0), (0.2,), cfg, orientation="preimage", horizon_a=25.0)
    # wrong clock: the laws must split, so the preimage checks their separation
    assert [c.name for c in img["checks"] + pre["checks"]] == [
        *(f"kelvin_image_u0_{s}" for s in ("ks_r", "ks_t", "ks_gauge", "drop_gap")),
        "kelvin_preimage_u0_separation",
    ]
    assert [c for c in img["checks"] + pre["checks"] if not c.passed] == []


# ---------------------------------------------------------------------------
# ergodic average


def test_ergodic_expected_values():
    assert ergodic_expected(1) == 0.5
    assert ergodic_expected(2) == pytest.approx(1.0 / 3.0)


def test_ergodic_average_converges():
    cfg = small_cfg(n=1, paths=256, step=2e-3, horizon=50.0)
    est = ergodic_experiment(cfg)
    assert est.value == pytest.approx(0.5, abs=0.02)


def test_angle_equidistributes():
    cfg = small_cfg(n=1, paths=256, step=2e-3, horizon=50.0)
    ens = sim_radial_s(
        cfg,
        x0=(0.4, 0.0),
        averages={
            "c": lambda r, th: np.cos(th),
            "s": lambda r, th: np.sin(th),
        },
    )
    assert abs(np.mean(ens.averages["c"])) < 0.05
    assert abs(np.mean(ens.averages["s"])) < 0.05
