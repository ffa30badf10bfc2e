"""Monte Carlo estimators and law comparisons built on the simulators.

Conventions that matter for every estimator here:

* the simulators run the *half*-generator diffusions, so the conditioned
  sphere process carries the survival eigenfactor ``exp(-n^2 t / 2)`` — the
  conditioning weight is an eigenfunction of half the generator with
  eigenvalue ``n^2/2``;
* the conditioned Heisenberg process has *no* eigenfactor (its weight is
  annihilated by the generator);
* dead or dropped paths contribute zero to plain means (sub-probability
  convention): an estimate of ``E[f(X_t); t < lifetime]`` never renormalizes
  by the survivors.

Singular weights are controlled in two documented ways: the survival
estimator caps the weight at its absorption-boundary value and reports the
capped mass; the two-sided semigroup comparison multiplies the observable by
a smoothstep that vanishes where the conditioning factor is below 0.1 and is
1 above 0.2, applied identically to both estimates.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from math import exp, isnan, log, nan, pi, sqrt
from math import gamma as gamma_fn
from typing import Sequence

import numpy as np

from .geometry import cayley1_chart, cayley1_chart_inv, h_fun, h_tilde, kelvin_radial, koranyi_N
from .operators import TestFunction
from .rng import PURPOSE_COMPARE, PURPOSE_MAIN
from .sde import SimConfig, sim_hproc, sim_Nproc, sim_radial_h, sim_radial_s

__all__ = [
    "MCEstimate",
    "SurvivalCurve",
    "green_constant",
    "green_H_pole",
    "green_S_pole",
    "green_relation_ratio",
    "survival_eigenfactor",
    "survival_T",
    "doob_semigroup_check",
    "doob_semigroup_check_N",
    "ks_two_sample",
    "ks_critical",
    "pushforward_experiment_cayley",
    "pushforward_experiment_kelvin",
    "tdist_experiment",
    "ergodic_expected",
    "ergodic_experiment",
]


@dataclass(frozen=True)
class MCEstimate:
    """A Monte Carlo mean with its standard error and sample size."""

    value: float
    std_error: float
    paths: int

    def agrees(self, other: "MCEstimate", slack: float = 0.0, sigmas: float = 3.0) -> bool:
        tol = sigmas * np.hypot(self.std_error, other.std_error) + slack
        return abs(self.value - other.value) <= tol


@dataclass(frozen=True)
class SurvivalCurve:
    """Sub-probability survival estimates on a time grid.

    ``capped_mass`` is the largest fraction of paths (over the grid times)
    whose conditioning weight was clamped at the absorption-boundary value;
    it bounds the truncation bias of ``s_hat`` from singular weights.
    """

    ts: np.ndarray
    s_hat: np.ndarray
    se: np.ndarray
    capped_mass: float = 0.0

    def __post_init__(self):
        ts = np.asarray(self.ts, dtype=float)
        s = np.asarray(self.s_hat, dtype=float)
        se = np.asarray(self.se, dtype=float)
        if not (ts.shape == s.shape == se.shape) or ts.ndim != 1:
            raise ValueError("ts, s_hat, se must be 1-D arrays of equal length")
        object.__setattr__(self, "ts", ts)
        object.__setattr__(self, "s_hat", s)
        object.__setattr__(self, "se", se)


def _mean_se(samples: np.ndarray) -> MCEstimate:
    samples = np.asarray(samples, dtype=float)
    P = samples.size
    se = float(samples.std(ddof=1) / np.sqrt(P)) if P > 1 else np.inf
    return MCEstimate(float(samples.mean()), se, P)


# ---------------------------------------------------------------------------
# Green functions


def green_constant(n: int) -> float:
    """Normalization ``Gamma(n/2)^2 / (8 pi^(n+1))`` shared by both kernels."""
    return gamma_fn(n / 2.0) ** 2 / (8.0 * np.pi ** (n + 1))


def green_H_pole(p, n: int):
    """Group-side Green kernel with pole at the identity: ``c_n N^(-n/2)``
    at ``p = (r, t)``."""
    r, t = p
    return green_constant(n) * koranyi_N(r, t) ** (-0.5 * n)


def green_S_pole(q, n: int):
    """Sphere-side Green kernel with pole at the chart center:
    ``c_n h_tilde^(-n/2)`` at ``q = (rs, th)``."""
    rs, th = q
    return green_constant(n) * h_tilde(rs, th) ** (-0.5 * n)


def green_relation_ratio(q, n: int):
    """Ratio of the sphere kernel to the chart-transported group kernel,

        G_S(center, q) / [ G_H(0, chart_inv(q)) * h(center)^(-n/2) * h(q)^(-n/2) ]

    Constant in ``q``, equal to ``2^n``: with the conformal factor rescaled
    by its chart-center value 4 the constant would be 1; the kernels here
    keep the unnormalized factor, and the leftover is exactly ``4^(n/2)``.
    """
    rs, th = q
    r, t = cayley1_chart_inv(rs, th)
    num = green_S_pole(q, n)
    den = (
        green_H_pole((r, t), n)
        * h_fun(0.0, 0.0) ** (-0.5 * n)
        * h_fun(rs, th) ** (-0.5 * n)
    )
    return num / den


# ---------------------------------------------------------------------------
# survival of the conditioned sphere process


def survival_eigenfactor(n: int, t) -> np.ndarray:
    """Decay factor ``exp(-n^2 t / 2)`` of the conditioning weight under the
    half-generator semigroup."""
    return np.exp(-0.5 * n**2 * np.asarray(t, dtype=float))


def survival_T(
    x0: tuple[float, float],
    ts: Sequence[float],
    cfg: SimConfig,
    purpose: int = PURPOSE_COMPARE,
) -> SurvivalCurve:
    """Survival function of the conditioned sphere process started at ``x0``,
    estimated from the *unconditioned* sphere motion:

        S(t) = exp(-n^2 t/2) * E[ w(q_t) ] / w(x0),   w = h^(-n/2)

    with the weight capped at its absorption-boundary value
    ``absorb_floor_h^(-n/2)`` (the capped fraction is reported).  ``S(0)`` is
    1 by definition.
    """
    ts = np.asarray(sorted(float(t) for t in ts), dtype=float)
    if ts[0] < 0:
        raise ValueError("times must be nonnegative")
    n = cfg.n
    run = replace(cfg, horizon=float(ts[-1]))
    ens = sim_radial_s(run, x0=x0, record_times=ts, purpose=purpose)
    w0 = h_fun(*x0) ** (-0.5 * n)
    cap = run.absorb_floor_h ** (-0.5 * n)
    h_vals = h_fun(ens.states["r"], ens.states["th"])
    w = np.minimum(h_vals ** (-0.5 * n), cap)
    capped = float(np.max(np.mean(h_vals < run.absorb_floor_h, axis=1)))
    fac = survival_eigenfactor(n, ts)[:, None]
    samples = fac * w / w0
    s_hat = samples.mean(axis=1)
    se = samples.std(axis=1, ddof=1) / np.sqrt(ens.paths)
    at_zero = ts == 0.0
    s_hat[at_zero], se[at_zero] = 1.0, 0.0
    return SurvivalCurve(ts, s_hat, se, capped_mass=capped)


def tdist_experiment(
    ts: Sequence[float],
    cfg: SimConfig,
    x0: tuple[float, float] = (0.0, 0.0),
) -> dict:
    """Law of the absorption time of the conditioned sphere process versus
    the survival curve: at each grid time compares the absorption ECDF with
    ``1 - S(t)``.  Returns the curve, the ECDF, and the sup gap over the
    positive grid times."""
    ts = np.asarray(sorted(float(t) for t in ts), dtype=float)
    curve = survival_T(x0, ts, cfg, purpose=PURPOSE_COMPARE)
    run = replace(cfg, horizon=float(ts[-1]))
    ens = sim_hproc(run, x0=x0, record_times=(), purpose=PURPOSE_MAIN)
    ecdf = np.array([np.mean(ens.death_time <= t) for t in ts])
    pos = ts > 0
    gap = float(np.max(np.abs(ecdf[pos] - (1.0 - curve.s_hat[pos])))) if np.any(pos) else 0.0
    return {
        "ts": ts,
        "curve": curve,
        "ecdf": ecdf,
        "sup_gap": gap,
        "paths": ens.paths,
    }


# ---------------------------------------------------------------------------
# two-sided semigroup comparison


def _smoothstep(v, lo: float = 0.1, hi: float = 0.2):
    s = np.clip((np.asarray(v, dtype=float) - lo) / (hi - lo), 0.0, 1.0)
    return s * s * (3.0 - 2.0 * s)


def _doob_check(f, x, t, cfg, sim_cond, sim_free, weight, coord: str, eigenfactor: float) -> dict:
    """Body of both semigroup checks: ``sim_cond`` is the conditioned
    process, ``sim_free`` the free one, ``weight`` the conditioning factor
    (``w = weight^(-n/2)``, and the cutoff smoothstep is taken in it) and
    ``coord`` the second state coordinate."""
    n = cfg.n
    run = replace(cfg, horizon=float(t))

    def obs(r, v):
        return f.eval(r, v) * _smoothstep(weight(r, v))

    cond = sim_cond(run, x0=x, record_times=(t,), purpose=PURPOSE_MAIN)
    vals = obs(cond.states["r"][-1], cond.states[coord][-1])
    est1 = _mean_se(np.where(cond.alive[-1], vals, 0.0))

    free = sim_free(run, x0=x, record_times=(t,), purpose=PURPOSE_COMPARE)
    r, v = free.states["r"][-1], free.states[coord][-1]
    w = weight(r, v) ** (-0.5 * n)
    w0 = weight(*x) ** (-0.5 * n)
    est2 = _mean_se(eigenfactor * w * obs(r, v) / w0)

    gap = abs(est1.value - est2.value)
    se = float(np.hypot(est1.std_error, est2.std_error))
    return {
        "conditioned": est1,
        "weighted": est2,
        "gap": gap,
        "se": se,
        "tol": 3.0 * se + 0.02,
        "pass": gap <= 3.0 * se + 0.02,
    }


def doob_semigroup_check(
    f: TestFunction,
    x: tuple[float, float],
    t: float,
    cfg: SimConfig,
) -> dict:
    """Compare two estimates of the conditioned sphere semigroup at time
    ``t`` applied to ``f`` (times a pole cutoff), started at ``x``:

    1. plain mean of the observable along the conditioned process, dead
       paths contributing zero;
    2. weighted mean along the unconditioned process,
       ``exp(-n^2 t/2) E[w * obs]/w(x)`` with ``w = h^(-n/2)``.

    The observable is ``f`` multiplied by a smoothstep vanishing where the
    conformal factor is below 0.1 (1 above 0.2) — identically in both
    estimates, so they target the same functional.
    """
    fac = float(survival_eigenfactor(cfg.n, t))
    return _doob_check(f, x, t, cfg, sim_hproc, sim_radial_s, h_fun, "th", fac)


def doob_semigroup_check_N(
    F: TestFunction,
    x: tuple[float, float],
    t: float,
    cfg: SimConfig,
) -> dict:
    """Group-side analogue of :func:`doob_semigroup_check`: the conditioned
    Heisenberg process against the ``N^(-n/2)``-weighted free motion.  The
    weight is harmonic (no eigenfactor: ``1.0 * w`` is ``w`` bit for bit);
    the cutoff smoothstep is taken in the gauge."""
    return _doob_check(F, x, t, cfg, sim_Nproc, sim_radial_h, koranyi_N, "t", 1.0)


# ---------------------------------------------------------------------------
# two-sample distribution distance
#
# The scaled two-sample KS statistic is asymptotically Kolmogorov
# distributed.  ``_kolmogorov`` and ``_kolmogi`` evaluate that law and its
# inverse in double precision with the operations, constants and stopping
# rule of the Cephes-derived ``kolmogorov``/``kolmogi`` of ``scipy.special``,
# so p-values and critical values equal scipy's bit for bit.

_EPS = 2.0**-52
# at or below ~0.0407 the cdf's leading term exp(-pi^2 / (8 x^2)) is below
# exp(-746), where exp() underflows to 0
_CDF_UNDERFLOW = pi / sqrt(8 * 746.0)
# log(sqrt(2 pi)) one ulp below the nearest double, as scipy has it
_LOG_SQRT_2PI = log(2.0 * pi) / 2


def _kolmogorov(x: float) -> tuple[float, float, float]:
    """``(sf, cdf, pdf)`` of the Kolmogorov distribution at ``x``.

    Up to 0.82 the theta form ``cdf = sqrt(2 pi)/x sum_k u^((2k-1)^2)``,
    ``u = exp(-pi^2 / (8 x^2))``, is summed to its fourth term; above it the
    alternating series ``sf = 2 sum_k (-1)^(k-1) v^(k^2)``,
    ``v = exp(-2 x^2)``, is summed to its fourth; the pdf's sums stop one
    term earlier.
    """
    if isnan(x):
        return nan, nan, nan
    if x <= _CDF_UNDERFLOW:  # every x <= 0 too
        return 1.0, 0.0, 0.0
    if x <= 0.82:
        w = sqrt(2.0 * pi) / x
        logu8 = -pi * pi / (x * x)
        u = exp(logu8 / 8)
        if u == 0.0:
            cdf, pdf = exp(logu8 / 8 + log(w)), 0.0
        else:
            u8 = exp(logu8)
            s = 1 + u8 * (1 + u8 * u8 * (1 + u8**3))
            ds = 1 + u8 * (9 + u8 * u8 * 25)
            cdf = w * u * s
            pdf = (pi * pi / 4 / (x * x) * ds - s) * (w * u / x)
        sf = 1 - cdf
    else:
        v = exp(-2 * x * x)
        v3 = v**3
        v5 = v3 * (v * v)
        sf = 2 * v * (1 - v3 * (1 - v5 * (1 - v3 * v3 * v)))
        pdf = 8 * v * x * (1 - v3 * (4 - v5 * 9))
        cdf = 1 - sf
    return min(max(sf, 0.0), 1.0), min(max(cdf, 0.0), 1.0), max(0.0, pdf)


def _kolmogi(p: float) -> float:
    """The ``x`` with Kolmogorov survival function ``p``, for ``0 < p < 1``.

    A bracket from the small-cdf or small-sf asymptotics, then Newton steps
    on the smaller of the two tails, bisecting whenever a step leaves the
    bracket, until a step is within ``eps + 2 eps |x|``.
    """
    psf, pcdf = p, 1 - p
    if pcdf <= 0.5:
        # cdf ~ sqrt(2 pi)/x exp(-pi^2/(8 x^2)): two fixed-point passes from
        # each side of x = pi / sqrt(8 (log sqrt(2 pi) - log x - log cdf))
        lp = log(pcdf)

        def fixed_point(log_x):
            return pi / (sqrt(8.0) * sqrt(-(lp + log_x - _LOG_SQRT_2PI)))

        a, b = fixed_point(lp / 2), fixed_point(0.0)
        a, b = fixed_point(log(a)), fixed_point(log(b))
        x = (a + b) / 2
    else:
        # sf ~ 2 exp(-2 x^2); the start inverts q - q^4 + q^9 - ... = sf/2
        a = sqrt(-0.5 * log(psf / (1.0 - exp(-4.0)) / 2))
        b = sqrt(-0.5 * log(psf * (1 - 256 * _EPS) / 2))
        q = psf / 2
        q2, q3 = q * q, q * q * q
        q0 = q * (1 + q3 * (1 + q3 * (4 + q2 * (-1 + q * (22 + q2 * (-13 + 140 * q))))))
        x = sqrt(-log(q0) / 2)
        if x < a or x > b:
            x = (a + b) / 2
    for _ in range(501):  # scipy's cap; Newton is done in under ten steps
        x0 = x
        sf, cdf, pdf = _kolmogorov(x0)
        df = pcdf - cdf if pcdf < 0.5 else sf - psf
        if df == 0:
            break
        if df > 0 and x > a:
            a = x
        elif df < 0 and x < b:
            b = x
        x = (a + b) / 2 if pdf == 0 else x0 + df / pdf
        if a <= x <= b:
            if abs(x - x0) <= _EPS + 2 * _EPS * abs(x0):
                break
            if x == a or x == b:
                x = (a + b) / 2
                if x == a or x == b:
                    break
        else:
            x = (a + b) / 2
            if abs(x - x0) <= _EPS + 2 * _EPS * abs(x0):
                break
    return x


def ks_two_sample(a, b) -> tuple[float, float]:
    """Two-sample Kolmogorov-Smirnov statistic and asymptotic p-value."""
    a = np.sort(np.asarray(a, dtype=float))
    b = np.sort(np.asarray(b, dtype=float))
    m, k = a.size, b.size
    if m < 10 or k < 10:
        raise ValueError("need at least 10 samples on each side")
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise ValueError("samples must be finite")
    allv = np.concatenate([a, b])
    fa = np.searchsorted(a, allv, side="right") / m
    fb = np.searchsorted(b, allv, side="right") / k
    stat = float(np.max(np.abs(fa - fb)))
    en = np.sqrt(m * k / (m + k))
    return stat, _kolmogorov(float(en * stat))[0]


def ks_critical(alpha: float, m: int, k: int) -> float:
    """Two-sample KS acceptance threshold at level ``alpha``."""
    if not 0 < alpha < 1:
        raise ValueError("alpha must lie in (0, 1)")
    if m < 1 or k < 1:
        raise ValueError("sample sizes must be positive")
    return float(_kolmogi(alpha) * np.sqrt((m + k) / (m * k)))


# ---------------------------------------------------------------------------
# law-transport experiments


def _marginal_stats(samA: dict, samB: dict, names, alpha: float = 0.01) -> dict:
    out = {}
    for name in names:
        a, b = samA[name], samB[name]
        stat, pvalue = ks_two_sample(a, b)
        out[f"ks_{name}"] = stat
        out[f"p_{name}"] = pvalue
        out[f"crit_{name}"] = ks_critical(alpha, a.size, b.size)
    return out


def _drop_stats(dropA: float, dropB: float, P: int) -> dict:
    se = float(
        np.sqrt(dropA * (1 - dropA) / P + dropB * (1 - dropB) / P)
    )
    return {
        "dropA": dropA,
        "dropB": dropB,
        "drop_gap": abs(dropA - dropB),
        "drop_se": se,
        "drop_tol": 3.0 * se + 0.02,
    }


def _pushforward(x0, u_grid, cfg, horizon_a, clock: str, sim_b, chart, gauge, coord: str) -> dict:
    """Body of both law-transport experiments: route A runs the free
    Heisenberg radial motion on ``clock`` and maps its level crossings
    through ``chart``; route B runs ``sim_b`` from the mapped start.  The
    marginals ``r``, ``coord`` and ``gauge`` are compared per level.  The
    start is mapped first and route B runs before route A, so a start
    outside the domain of ``chart``, or one that maps into route B's
    absorption region, fails before route A steps a path.  The two routes
    draw from their own streams, so their order changes no output."""
    u_grid = sorted(float(u) for u in u_grid)
    with np.errstate(all="ignore"):
        y0 = tuple(float(v) for v in chart(*x0))
    if not np.all(np.isfinite(y0)):
        raise ValueError(f"{chart.__name__} cannot map the start point ({x0[0]!r}, {x0[1]!r})")
    runB = replace(cfg, horizon=float(max(u_grid)))
    try:
        ensB = sim_b(runB, x0=y0, record_times=u_grid, purpose=PURPOSE_COMPARE)
    except ValueError as e:
        raise ValueError(
            f"{chart.__name__} maps the start point ({x0[0]!r}, {x0[1]!r}) to ({y0[0]!r}, {y0[1]!r}),"
            f" and route B fails there: {e}"
        ) from e
    runA = replace(cfg, horizon=float(horizon_a))
    ensA = sim_radial_h(runA, x0=x0, clock=clock, levels=u_grid, purpose=PURPOSE_MAIN)

    out: dict = {"u_grid": u_grid, "paths": ensA.paths}
    for j, u in enumerate(u_grid):
        cross = ensA.crossings[u]
        hitA = cross["hit"]
        rA, vA = chart(cross["r"][hitA], cross["t"][hitA])
        aliveB = ensB.alive[j]
        rB, vB = ensB.states["r"][j][aliveB], ensB.states[coord][j][aliveB]
        samA = {"r": rA, coord: vA, "gauge": gauge(rA, vA)}
        samB = {"r": rB, coord: vB, "gauge": gauge(rB, vB)}
        rec = _marginal_stats(samA, samB, ("r", coord, "gauge"))
        rec.update(
            _drop_stats(1.0 - float(np.mean(hitA)), 1.0 - float(np.mean(aliveB)), ensA.paths)
        )
        rec["samples"] = {"A": samA, "B": samB}
        out[u] = rec
    return out


def pushforward_experiment_cayley(
    x0: tuple[float, float],
    u_grid: Sequence[float],
    cfg: SimConfig,
    horizon_a: float = 25.0,
) -> dict:
    """Law comparison across the chart at clock levels ``u_grid``.

    Route A runs the free Heisenberg radial motion from ``x0``, reads the
    state at the first crossing of each clock level (running integral of the
    Heisenberg-side conformal factor) and maps it through the chart; route B
    runs the conditioned sphere process from the chart image of ``x0`` for
    intrinsic time ``u``.  Per level, the two samples are compared per
    marginal (radial, angle, and the companion-factor scalar) and in their
    dropped-path fractions (route A: level never reached within the time
    budget; route B: absorbed).
    """
    return _pushforward(x0, u_grid, cfg, horizon_a, "cayley", sim_hproc, cayley1_chart, h_tilde, "th")


def pushforward_experiment_kelvin(
    x0: tuple[float, float],
    u_grid: Sequence[float],
    cfg: SimConfig,
    orientation: str = "image",
    horizon_a: float = 50.0,
) -> dict:
    """Law comparison across the gauge inversion at clock levels ``u_grid``.

    Route A runs the free Heisenberg radial motion from ``x0``, reads the
    state at the first crossing of each clock level and maps it through the
    radial gauge inversion; route B runs the conditioned Heisenberg process
    from the inverted start for intrinsic time ``u``.  With
    ``orientation="image"`` the clock integrates the reciprocal gauge (the
    correct pairing); ``"preimage"`` integrates the gauge itself — the
    negative control whose law comparison is expected to fail.
    """
    if orientation not in ("image", "preimage"):
        raise ValueError(f"unknown orientation {orientation!r}")
    out = _pushforward(
        x0, u_grid, cfg, horizon_a, f"kelvin_{orientation}", sim_Nproc, kelvin_radial, koranyi_N, "t"
    )
    return {"orientation": orientation, **out}


# ---------------------------------------------------------------------------
# long-run sphere average


def ergodic_expected(n: int) -> float:
    """Stationary mean of ``cos(rs)^2``: the invariant radial density is
    proportional to ``sin^(2n-1) cos``, and the beta integrals give
    ``1/(n+1)`` (one half in the lowest dimension)."""
    return 1.0 / (n + 1)


def ergodic_experiment(cfg: SimConfig, x0: tuple[float, float] = (0.4, 0.0)) -> MCEstimate:
    """Time average of ``cos(rs)^2`` over ``[0, horizon]`` along the free
    sphere motion, started at ``x0``; compare with :func:`ergodic_expected`."""
    ens = sim_radial_s(cfg, x0=x0, averages={"c2": lambda r, th: np.cos(r) ** 2}, purpose=PURPOSE_MAIN)
    return _mean_se(ens.averages["c2"])
