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

Gates: each experiment returns its checks (``CheckRecord``), named as the
manifest names them, and no other module sets a bound.  A KS distance is at
most its 1% critical value plus ``SLACK``; a drop or semigroup gap at most
three standard errors plus ``SLACK``; the negative control's separation at
least 0.1; the ``tdist`` sup gap at most 0.03, and ``|S(0) - 1|`` is 0.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from math import exp, pi, sqrt
from math import gamma as gamma_fn
from typing import Sequence

import numpy as np

from .geometry import cayley1_chart, cayley1_chart_inv, h_fun, h_tilde, kelvin_radial, koranyi_N
from .operators import TestFunction
from .rng import PURPOSE_COMPARE, PURPOSE_MAIN
from .sde import SimConfig, grid_steps, sim_hproc, sim_Nproc, sim_radial_h, sim_radial_s

__all__ = [
    "SLACK",
    "CheckRecord",
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


# added to every KS and standard-error bound: room for the step bias of the
# Euler schemes, which no standard error measures
SLACK = 0.02


@dataclass(frozen=True)
class CheckRecord:
    """One named check: ``value`` against ``tolerance``, an upper bound
    (``kind="le"``) or a threshold it must reach (``"ge"``)."""

    name: str
    value: float
    tolerance: float
    kind: str = "le"

    @property
    def passed(self) -> bool:
        return self.value <= self.tolerance if self.kind == "le" else self.value >= self.tolerance


@dataclass(frozen=True)
class MCEstimate:
    """A Monte Carlo mean with its standard error and sample size."""

    value: float
    std_error: float
    paths: int


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


def _mean_se(samples: np.ndarray) -> MCEstimate:
    samples = np.asarray(samples, dtype=float)
    P = samples.size
    se = float(samples.std(ddof=1) / np.sqrt(P)) if P > 1 else np.inf
    return MCEstimate(float(samples.mean()), se, P)


def _se_bound(se: float) -> float:
    """Bound on a gap between two estimates whose difference has standard error ``se``."""
    return 3.0 * se + SLACK


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
) -> SurvivalCurve:
    """Survival function of the conditioned sphere process started at ``x0``,
    estimated from the *unconditioned* sphere motion:

        S(t) = exp(-n^2 t/2) * E[ w(q_t) ] / w(x0),   w = h^(-n/2)

    with the weight capped at its absorption-boundary value
    ``absorb_floor_h^(-n/2)`` (the capped fraction is reported).  ``S(0)`` is
    1 by definition.  The times ``ts`` are distinct nonnegative whole
    numbers of steps, at least one of them positive.  The sphere motion
    draws from the ``PURPOSE_COMPARE`` streams.
    """
    ks = grid_steps("ts time", ts, cfg.step, positive=False)
    if not ks or ks[-1] == 0:
        raise ValueError(f"ts holds no positive time (step={cfg.step!r})")
    ts = np.asarray(sorted(float(t) for t in ts), dtype=float)
    n = cfg.n
    run = replace(cfg, horizon=float(ts[-1]))
    ens = sim_radial_s(run, x0=x0, record_times=ts, purpose=PURPOSE_COMPARE)
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
    ``1 - S(t)``.  Returns the curve, the ECDF, their gap at each grid time
    (0 at ``t = 0``), its sup and the checks."""
    ts = np.asarray(sorted(float(t) for t in ts), dtype=float)
    curve = survival_T(x0, ts, cfg)
    run = replace(cfg, horizon=float(ts[-1]))
    ens = sim_hproc(run, x0=x0, record_times=(), purpose=PURPOSE_MAIN)
    ecdf = np.array([np.mean(ens.death_time <= t) for t in ts])
    gap = np.where(ts > 0, np.abs(ecdf - (1.0 - curve.s_hat)), 0.0)
    s0 = curve.s_hat[ts == 0.0]
    checks = [
        CheckRecord("tdist_sup_gap", float(gap.max()), 0.03),
        CheckRecord("tdist_s0_exact", abs(float(s0[0]) - 1.0) if s0.size else 0.0, 0.0),
    ]
    return {"ts": ts, "curve": curve, "ecdf": ecdf, "gap": gap, "sup_gap": checks[0].value, "paths": ens.paths,
            "checks": checks}


# ---------------------------------------------------------------------------
# two-sided semigroup comparison


def _smoothstep(v, lo: float = 0.1, hi: float = 0.2):
    s = np.clip((np.asarray(v, dtype=float) - lo) / (hi - lo), 0.0, 1.0)
    return s * s * (3.0 - 2.0 * s)


def _doob_check(fs, x, ts, cfg, sim_cond, sim_free, weight, coord: str, decays: bool, tag: str) -> list[dict]:
    """Body of both semigroup checks: ``sim_cond`` is the conditioned
    process, ``sim_free`` the free one, ``weight`` the conditioning factor
    (``w = weight^(-n/2)``, and the cutoff smoothstep is taken in it),
    ``coord`` the second state coordinate and ``decays`` whether ``w``
    carries the survival eigenfactor.  Each process runs once and records,
    at every time, what a run to that time ends with.  Each result's
    ``check`` is named ``<tag>_<f>_t<t>``, ``t`` printed as ``%.17g``."""
    n = cfg.n
    run = replace(cfg, horizon=float(max(ts)))
    cond = sim_cond(run, x0=x, record_times=ts, purpose=PURPOSE_MAIN)
    free = sim_free(run, x0=x, record_times=ts, purpose=PURPOSE_COMPARE)
    w0 = weight(*x) ** (-0.5 * n)

    def obs(f, r, v):
        return f.eval(r, v) * _smoothstep(weight(r, v))

    def check(f, t):
        j = int(np.searchsorted(cond.times, t))
        vals = obs(f, cond.states["r"][j], cond.states[coord][j])
        est1 = _mean_se(np.where(cond.alive[j], vals, 0.0))
        r, v = free.states["r"][j], free.states[coord][j]
        w = weight(r, v) ** (-0.5 * n)
        fac = float(survival_eigenfactor(n, t)) if decays else 1.0
        est2 = _mean_se(fac * w * obs(f, r, v) / w0)
        gap = abs(est1.value - est2.value)
        se = float(np.hypot(est1.std_error, est2.std_error))
        tol = _se_bound(se)
        name = f"{tag}_{f.name}_t{'%.17g' % float(t)}"
        return {"func": f.name, "t": t, "conditioned": est1, "weighted": est2, "gap": gap, "se": se,
                "tol": tol, "check": CheckRecord(name, gap, tol)}

    return [check(f, t) for f in fs for t in ts]


def doob_semigroup_check(
    fs: Sequence[TestFunction],
    x: tuple[float, float],
    ts: Sequence[float],
    cfg: SimConfig,
) -> list[dict]:
    """Compare two estimates of the conditioned sphere semigroup at each
    time of ``ts`` applied to each of ``fs`` (times a pole cutoff), started
    at ``x``:

    1. plain mean of the observable along the conditioned process, dead
       paths contributing zero;
    2. weighted mean along the unconditioned process,
       ``exp(-n^2 t/2) E[w * obs]/w(x)`` with ``w = h^(-n/2)``.

    The observable is ``f`` multiplied by a smoothstep vanishing where the
    conformal factor is below 0.1 (1 above 0.2) — identically in both
    estimates, so they target the same functional.  Returns one result
    per function and time, ``fs`` outermost, from one run of each process.
    """
    return _doob_check(fs, x, ts, cfg, sim_hproc, sim_radial_s, h_fun, "th", decays=True, tag="semigroup")


def doob_semigroup_check_N(
    Fs: Sequence[TestFunction],
    x: tuple[float, float],
    ts: Sequence[float],
    cfg: SimConfig,
) -> list[dict]:
    """Group-side analogue of :func:`doob_semigroup_check`: the conditioned
    Heisenberg process against the ``N^(-n/2)``-weighted free motion.  The
    weight is harmonic (no eigenfactor: ``1.0 * w`` is ``w`` bit for bit);
    the cutoff smoothstep is taken in the gauge."""
    return _doob_check(Fs, x, ts, cfg, sim_Nproc, sim_radial_h, koranyi_N, "t", decays=False, tag="semigroup_N")


# ---------------------------------------------------------------------------
# two-sample distribution distance
#
# The scaled two-sample KS statistic is asymptotically Kolmogorov
# distributed.  ``_kolmogorov`` evaluates that law's tail in double
# precision with the operations and constants of the Cephes-derived
# ``kolmogorov`` of ``scipy.special``, so p-values equal scipy's bit for
# bit.  Every gate takes the 1% critical value, so its quantile is a
# constant: ``KOLMOGI_1PCT`` is ``scipy.special.kolmogi(0.01)``, the
# smallest double whose tail is below 0.01.

KOLMOGI_1PCT = 1.6276236115189504
# at or below ~0.0407 the cdf's leading term exp(-pi^2 / (8 x^2)) is below
# exp(-746), where exp() underflows to 0 and the tail is 1; the cut also
# keeps x <= 0 and an x whose square is 0 out of the theta form's division
_CDF_UNDERFLOW = pi / sqrt(8 * 746.0)


def _kolmogorov(x: float) -> float:
    """Survival function of the Kolmogorov distribution at ``x``.

    Up to 0.82 it is one minus the theta form
    ``cdf = sqrt(2 pi)/x sum_k u^((2k-1)^2)``, ``u = exp(-pi^2 / (8 x^2))``,
    summed to its fourth term; above it the alternating series
    ``sf = 2 sum_k (-1)^(k-1) v^(k^2)``, ``v = exp(-2 x^2)``, summed to its
    fourth.
    """
    if x <= _CDF_UNDERFLOW:  # every x <= 0 too
        return 1.0
    if x <= 0.82:
        w = sqrt(2.0 * pi) / x
        logu8 = -pi * pi / (x * x)
        u = exp(logu8 / 8)
        u8 = exp(logu8)
        return 1 - w * u * (1 + u8 * (1 + u8 * u8 * (1 + u8**3)))
    v = exp(-2 * x * x)
    v3 = v**3
    v5 = v3 * (v * v)
    return 2 * v * (1 - v3 * (1 - v5 * (1 - v3 * v3 * v)))


def ks_two_sample(a, b) -> tuple[float, float]:
    """Two-sample Kolmogorov-Smirnov statistic and asymptotic p-value."""
    a = np.sort(np.asarray(a, dtype=float))
    b = np.sort(np.asarray(b, dtype=float))
    m, k = a.size, b.size
    if m < 10 or k < 10:
        raise ValueError(f"need at least 10 samples on each side, got {m} and {k}")
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise ValueError("samples must be finite")
    allv = np.concatenate([a, b])
    fa = np.searchsorted(a, allv, side="right") / m
    fb = np.searchsorted(b, allv, side="right") / k
    stat = float(np.max(np.abs(fa - fb)))
    en = np.sqrt(m * k / (m + k))
    return stat, _kolmogorov(float(en * stat))


def ks_critical(m: int, k: int) -> float:
    """Two-sample KS acceptance threshold at the 1% level."""
    if m < 1 or k < 1:
        raise ValueError("sample sizes must be positive")
    return float(KOLMOGI_1PCT * np.sqrt((m + k) / (m * k)))


# ---------------------------------------------------------------------------
# law-transport experiments


def _marginal_stats(samA: dict, samB: dict, names) -> dict:
    out = {}
    for name in names:
        a, b = samA[name], samB[name]
        stat, pvalue = ks_two_sample(a, b)
        out[f"ks_{name}"] = stat
        out[f"p_{name}"] = pvalue
        out[f"crit_{name}"] = ks_critical(a.size, b.size)
    return out


def _drop_stats(dropA: float, dropB: float, P: int) -> dict:
    se = float(np.sqrt(dropA * (1 - dropA) / P + dropB * (1 - dropB) / P))
    return {
        "dropA": dropA,
        "dropB": dropB,
        "drop_gap": abs(dropA - dropB),
        "drop_se": se,
        "drop_tol": _se_bound(se),
    }


def _pushforward(x0, u_grid, cfg, horizon_a, clock: str, sim_b, chart, gauge, coord: str) -> dict:
    """Body of both law-transport experiments: route A runs the free
    Heisenberg radial motion on ``clock`` and maps its level crossings
    through ``chart``; route B runs ``sim_b`` from the mapped start.  The
    marginals ``r``, ``coord`` and ``gauge`` are compared per level.  The
    start is mapped first and route B runs before route A, so a start
    outside the domain of ``chart``, or one that maps into route B's
    absorption region, fails before route A steps a path.  The two routes
    draw from their own streams, so their order changes no output.  Route
    B records at the levels and runs to the highest, so the levels must be
    distinct positive whole numbers of steps.  Level ``j`` holds its
    ``law`` checks, ``<clock>_u<j>_ks_<m>`` and ``_drop_gap``, by
    statistic; ``checks`` lists them all."""
    grid_steps("u_grid level", u_grid, cfg.step)
    u_grid = sorted(float(u) for u in u_grid)
    try:
        runA = replace(cfg, horizon=float(horizon_a))
    except ValueError as e:
        raise ValueError(f"horizon_a={horizon_a!r} does not suit step={cfg.step!r}: {e}") from e
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
    ensA = sim_radial_h(runA, x0=x0, clock=clock, levels=u_grid, purpose=PURPOSE_MAIN)

    out: dict = {"u_grid": u_grid, "paths": ensA.paths, "checks": []}
    for j, u in enumerate(u_grid):
        cross = ensA.crossings[u]
        hitA = cross["hit"]
        rA, vA = chart(cross["r"][hitA], cross["t"][hitA])
        aliveB = ensB.alive[j]
        rB, vB = ensB.states["r"][j][aliveB], ensB.states[coord][j][aliveB]
        samA = {"r": rA, coord: vA, "gauge": gauge(rA, vA)}
        samB = {"r": rB, coord: vB, "gauge": gauge(rB, vB)}
        try:
            rec = _marginal_stats(samA, samB, ("r", coord, "gauge"))
        except ValueError as e:
            raise ValueError(f"{e} (route A, route B) on the {clock} clock at level u={u!r}") from e
        rec.update(
            _drop_stats(1.0 - float(np.mean(hitA)), 1.0 - float(np.mean(aliveB)), ensA.paths)
        )
        bounds = {f"ks_{name}": rec[f"crit_{name}"] + SLACK for name in samA}
        bounds["drop_gap"] = rec["drop_tol"]
        rec["law"] = {key: CheckRecord(f"{clock}_u{j}_{key}", rec[key], tol) for key, tol in bounds.items()}
        out["checks"] += rec["law"].values()
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
    negative control whose law comparison is expected to fail: its checks
    are each level's radial KS separation, and its laws stay in ``law``.
    """
    if orientation not in ("image", "preimage"):
        raise ValueError(f"unknown orientation {orientation!r}")
    out = _pushforward(
        x0, u_grid, cfg, horizon_a, f"kelvin_{orientation}", sim_Nproc, kelvin_radial, koranyi_N, "t"
    )
    if orientation == "preimage":
        out["checks"] = [
            CheckRecord(f"kelvin_preimage_u{j}_separation", out[u]["ks_r"], 0.1, kind="ge")
            for j, u in enumerate(out["u_grid"])
        ]
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
