"""Green kernels, survival estimator, KS machinery, martingale and ergodic
checks at desk scale."""

import numpy as np
import pytest

from heisenpaths.analysis import (
    MCEstimate,
    _kolmogi,
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
from heisenpaths.sde import sim_full_h, sim_radial_s

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
    rad = group_mul(group_inv(q), p).radial()
    return float(green_H_pole((rad.r_h, rad.t), n))


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
    assert ks_critical(0.01, 100, 100) > ks_critical(0.01, 10_000, 10_000)
    assert ks_critical(0.05, 1000, 1000) < ks_critical(0.01, 1000, 1000)


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
        ks_critical(0.01, m, k)


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
    sf = [_kolmogorov(float(x))[0] for x in xs]
    assert same_bits(sf, special.kolmogorov(xs))


def test_kolmogorov_cdf_pdf_match_scipy_bitwise():
    # the Newton steps of the inverse take cdf and pdf; scipy exposes them
    # only as private ufuncs
    ufuncs = pytest.importorskip("scipy.special._ufuncs")
    if not hasattr(ufuncs, "_kolmogc") or not hasattr(ufuncs, "_kolmogp"):
        pytest.skip("scipy has no _kolmogc/_kolmogp")
    xs = kolmogorov_grid()
    xs = xs[np.isfinite(xs)]
    probs = np.array([_kolmogorov(float(x)) for x in xs])
    assert same_bits(probs[:, 1], ufuncs._kolmogc(xs))
    assert same_bits(probs[:, 2], -ufuncs._kolmogp(xs))


def test_kolmogi_and_ks_critical_match_scipy_bitwise():
    special = pytest.importorskip("scipy.special")
    alphas = np.concatenate([np.logspace(-12, np.log10(0.5), 4001)[1:-1], [0.01, 0.05]])
    assert same_bits([_kolmogi(float(a)) for a in alphas], special.kolmogi(alphas))
    for m, k in ((10, 10), (8192, 7000), (20_000, 13)):
        crit = [ks_critical(float(a), m, k) for a in alphas]
        assert same_bits(crit, special.kolmogi(alphas) * np.sqrt((m + k) / (m * k)))


def test_kolmogi_upper_half_matches_scipy_bitwise():
    # no caller takes alpha >= 0.5, but the small-cdf start runs there
    special = pytest.importorskip("scipy.special")
    rng = np.random.default_rng(5)
    alphas = np.concatenate([[0.5], rng.uniform(0.5, 1.0, 5000), 1.0 - np.logspace(-15, np.log10(0.5), 400)])
    assert same_bits([_kolmogi(float(a)) for a in alphas], special.kolmogi(alphas))


def test_mcestimate_agrees():
    a = MCEstimate(1.0, 0.01, 100)
    b = MCEstimate(1.02, 0.01, 100)
    assert a.agrees(b) and b.agrees(a)
    assert not a.agrees(MCEstimate(2.0, 0.01, 100))


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
    out = doob_semigroup_check(f, (0.0, 0.0), 0.25, cfg)
    assert out["pass"], (f.name, out["gap"], out["tol"])


def test_semigroup_gauge_side_small():
    from heisenpaths.operators import TestFunction as Fn
    from heisenpaths.operators import exp_jet, gauge_jet

    cfg = small_cfg(paths=4096, step=2e-3)
    F = Fn("expN", lambda u, v: exp_jet(gauge_jet(u, v), -1.0))
    out = doob_semigroup_check_N(F, (1.0, 0.0), 0.5, cfg)
    assert out["pass"], (out["gap"], out["tol"])


# ---------------------------------------------------------------------------
# pushforward experiments (desk scale; acceptance runs the stated sizes)


def test_cayley_pushforward_small():
    from heisenpaths.analysis import pushforward_experiment_cayley

    cfg = small_cfg(paths=3000, step=2e-3, horizon=1.0)
    rep = pushforward_experiment_cayley((0.0, 0.0), (0.3,), cfg, horizon_a=25.0)
    rec = rep[0.3]
    for name in ("r", "th", "gauge"):
        assert rec[f"ks_{name}"] <= rec[f"crit_{name}"] + 0.02
    assert rec["drop_gap"] <= rec["drop_tol"]
    # the chart image of the start shows up as the u -> 0 concentration point
    q0 = cayley1_chart(0.0, 0.0)
    assert q0[0] == 0.0


def test_kelvin_pushforward_orientations_small():
    from heisenpaths.analysis import pushforward_experiment_kelvin

    cfg = small_cfg(paths=3000, step=2e-3, horizon=1.0)
    img = pushforward_experiment_kelvin((1.0, 0.0), (0.2,), cfg, orientation="image", horizon_a=25.0)
    assert img[0.2]["ks_r"] <= img[0.2]["crit_r"] + 0.02
    pre = pushforward_experiment_kelvin((1.0, 0.0), (0.2,), cfg, orientation="preimage", horizon_a=25.0)
    assert pre[0.2]["ks_r"] > 0.1  # wrong clock: the laws must split


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
