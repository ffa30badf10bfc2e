"""Tamed Euler simulators for the radial diffusions and their conditioned
variants.

All schemes simulate the half-generator convention: increments are Gaussian
with variance ``step`` per unit diffusion coefficient and the drift is half
the first-order coefficient of the generator.  Two discrete moments pin the
convention down exactly: the full simulator satisfies ``E|z(T)|^2 = 2nT`` and
``E t(T)^2 = n T^2 - n T step`` in expectation, step by step.

Stability guards of the tamed Euler scheme (Hutzenthaler, Jentzen & Kloeden,
Ann. Appl. Probab. 2012), constants of the scheme rather than of a run:

* singular drift coefficients are evaluated at a radial coordinate clipped
  away from the axis (and, on the sphere, away from the equator) by
  ``0.5*sqrt(step)``;
* the drift displacement per step is capped at ``TAME*sqrt(step)``;
* the radial coordinate reflects at 0 with a floor of ``R_FLOOR``; the
  sphere radial coordinate is clamped below ``pi/2 - R_FLOOR``.

Absorption thresholds of the conditioned processes:

* the conditioned sphere process absorbs when the conformal factor falls
  below ``4 * pole_eps^2`` (the factor is comparable to the fourth power of
  the distance to its zero, so this is a gauge ball of radius ~pole_eps);
* the conditioned Heisenberg process absorbs when the quartic gauge falls
  below ``max(pole_eps^4, (4*n*step)^2)``.  The second term keeps the
  trigger reachable by the discrete chain: one step near the origin moves
  the gauge by O(n*step), so a much smaller threshold would be overshot
  forever and no path would ever register as absorbed.

One loop, ``_simulate``, steps every process.  It owns what all of them
share: the start state of each block, the record slots, the stop rule,
the absorption freeze and death times, the trapezoid clock and its level
crossings, the left-point time averages, and the assembly of the
:class:`PathEnsemble`.  A process supplies its start point, a mapping from
coordinate name to start value, and two functions on a state dict of
per-path arrays:

* ``step(state, dw)`` returns a new state dict from one normal draw ``dw``
  and leaves ``state`` unchanged;
* ``absorb(state)``, for absorbing processes only, returns the mask of
  paths inside the absorption region.  It may store values in the state
  for the next step (:func:`sim_hproc` keeps the trigonometry of the new
  state).  It also runs once on the start state, whose mask is unused:
  :func:`conditioned_start` keeps the start outside the region.

Each step runs in one order: draw, accumulate averages at the left point,
``step``, freeze the absorbed paths (``np.copyto`` of their old recorded
coordinates, skipped while none is), ``absorb`` on the frozen state, clock
and crossings, record.
Absorbed paths thus freeze at the triggering state.  Every ensemble is
built from fixed-width path blocks with per-block Philox streams
(:mod:`heisenpaths.rng`), stepped one after another in block order, so
path ``j`` does not depend on the path count.  A stream's normals are
Box-Muller pairs of its raw Philox words: rows 0 and 1 of a ``(2, width)``
step draw are the two halves of one pair per path.

Finished blocks stop early.  Before drawing step ``k`` a block stops when
``k`` has reached its last record slot, no time average is accumulating,
every kept path has crossed every level and, in an absorbing run, no kept
path is alive.
Columns that the final block truncates never hold it open, and a run that
records nothing and has no level, average or absorption draws nothing.
Whatever a block would compute after that point never reaches an output,
and each block draws from its own stream, so stopping changes no output
byte; it only skips the steps.  Time averages need every step up to the
horizon, so a run that accumulates them never stops early.

The sphere-side steps (:func:`sim_radial_s`, :func:`sim_hproc`) are fused:
each transcendental is evaluated once per step, and only what the drift
needs is computed.  ``tan`` of the guarded radius serves the radial drift,
the angular drift and the angular diffusion.  :func:`sim_hproc` takes its
trigonometry from one SIMD tangent per angle
(:func:`~heisenpaths.geometry.trig_via_tan`, within 3 ulp of ``np.cos`` and
``np.sin``).  ``tan(r)`` gives ``cos(r)``, ``sin(r)`` and ``tan(r)^2``, and
``tan(th)`` gives ``cos(th)`` and ``sin(th)``.  Taken at the new state, they
and the conformal factor ``h`` serve the absorption test and then the next
step's drift, and are evaluated afresh only on the columns where the guard
clip moved ``r``.  The drift comes from
:func:`~heisenpaths.operators.drift_hproc_trig`, the same formula behind
:func:`~heisenpaths.operators.drift_hproc`, which takes its trigonometry the
same way, with every expression in the same operation order, so the fused
steps write the same bytes.  The angle wrap calls ``np.mod`` only on entries
outside ``(0, 2*pi)``: inside it ``np.mod`` is the identity, so the result
equals ``np.mod`` bit for bit (``-0.0``, NaN and infinities included).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

import numpy as np

from .geometry import TWO_PI, H_fun, h_fun, h_fun_cos, koranyi_N, trig_via_tan
from .operators import drift_hproc_trig, drift_Nproc, sphere_radial_drift_tan

# bench/tracer.py patches these names here to time them; the fused sphere
# steps no longer call them
from .operators import drift_hproc, sphere_radial_drift  # noqa: F401
from .rng import BLOCK_PATHS, PURPOSE_MAIN, block_plan, stream

__all__ = [
    "TAME",
    "R_FLOOR",
    "SimConfig",
    "PathEnsemble",
    "CLOCKS",
    "sim_full_h",
    "sim_radial_h",
    "sim_radial_s",
    "sim_hproc",
    "sim_Nproc",
    "project_radial",
    "grid_steps",
    "conditioned_start",
]

TAME = 4.0
R_FLOOR = 1e-6


@dataclass(frozen=True)
class SimConfig:
    """Shared simulation parameters.

    ``pole_eps`` sets the absorption thresholds of the conditioned processes
    (see module docstring).
    """

    n: int = 1
    step: float = 1e-3
    horizon: float = 1.0
    paths: int = BLOCK_PATHS
    seed: int = 0
    pole_eps: float = 1e-3

    def __post_init__(self):
        for name in ("n", "paths"):
            value = getattr(self, name)
            if not (isinstance(value, (int, np.integer)) and value >= 1):
                raise ValueError(f"{name} must be a positive integer, got {value!r}")
        if not 0.0 < self.step <= 0.1:
            raise ValueError(f"step must lie in (0, 0.1], got {self.step!r}")
        for name in ("step", "horizon", "pole_eps"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)!r}")
        (k,) = grid_steps("horizon", (self.horizon,), self.step)
        if k > 10_000_000:
            raise ValueError(f"more than 1e7 steps requested: horizon {self.horizon!r} at step={self.step!r}")
        if not 0.0 < self.pole_eps <= 0.1:
            raise ValueError(f"pole_eps must lie in (0, 0.1], got {self.pole_eps!r}")
        if not (isinstance(self.seed, (int, np.integer)) and 0 <= self.seed < 2**64):
            raise ValueError(f"seed must be an integer in [0, 2**64), got {self.seed!r}")

    @property
    def steps(self) -> int:
        return int(round(self.horizon / self.step))

    @property
    def absorb_floor_h(self) -> float:
        """Conformal-factor absorption threshold of the conditioned sphere
        process (gauge ball of radius ~pole_eps around the factor's zero)."""
        return 4.0 * self.pole_eps**2

    @property
    def absorb_floor_N(self) -> float:
        """Quartic-gauge absorption threshold of the conditioned Heisenberg
        process, widened to stay reachable by the discrete chain."""
        return max(self.pole_eps**4, (4.0 * self.n * self.step) ** 2)


@dataclass
class PathEnsemble:
    """Recorded output of one simulation.

    ``states`` maps coordinate names to arrays whose leading axis indexes
    ``times`` and whose trailing axis indexes paths.  Absorbing simulators
    add ``alive`` (times x paths) and ``death_time`` (``inf`` for
    survivors); frozen coordinates repeat the absorption state.  Clocked
    simulators add ``clock``, the running clock at the record times (times
    x paths), and one crossing record per requested level: interpolated
    state, fine time, and a hit mask (state entries are NaN where the clock
    never reached the level).

    A block stops stepping only after its last record slot, so ``clock``
    and the states at a record time after the last crossing (or after the
    last absorption) hold the same values as in a run to the horizon.
    """

    times: np.ndarray
    states: dict[str, np.ndarray]
    alive: np.ndarray | None = None
    death_time: np.ndarray | None = None
    clock: np.ndarray | None = None
    crossings: dict[float, dict[str, np.ndarray]] = field(default_factory=dict)
    averages: dict[str, np.ndarray] = field(default_factory=dict)

    @property
    def paths(self) -> int:
        first = next(iter(self.states.values()))
        return first.shape[-1]


# clock integrand, evaluated along the Heisenberg radial path
CLOCKS: dict[str, Callable] = {
    "cayley": H_fun,
    "kelvin_image": lambda r, t: 1.0 / np.maximum(koranyi_N(r, t), 1e-300),
    "kelvin_preimage": koranyi_N,
}


def grid_steps(label: str, times: Sequence[float], step: float, positive: bool = True) -> list[int]:
    """Step counts of ``times`` in ascending order.  Each time must be a
    whole number of steps of ``step``, positive or (``positive=False``)
    nonnegative, and no two may fall on one step.  An error names
    ``label``, the time and ``step``, so callers pass the key the times
    came from."""
    lo, kind = (1, "positive") if positive else (0, "nonnegative")
    ks: list[int] = []
    for T in sorted(float(t) for t in times):
        if not math.isfinite(T):
            raise ValueError(f"{label} {T!r} is not finite")
        k = round(T / step)
        if k < lo or abs(k * step - T) > 1e-9 * max(1.0, T):
            raise ValueError(f"{label} {T!r} is not a {kind} whole number of steps of step={step!r}")
        if ks and ks[-1] == k:
            raise ValueError(f"duplicate {label} {T!r} on the grid of step={step!r}")
        ks.append(k)
    return ks


def _snap_slots(cfg: SimConfig, record_times: Sequence[float]) -> tuple[np.ndarray, dict[int, int]]:
    """Map record times onto step indices; they must sit on the step grid,
    no later than the horizon."""
    times = np.asarray(sorted(record_times), dtype=float)
    ks = grid_steps("record time", times, cfg.step, positive=False)
    if ks and ks[-1] > cfg.steps:
        raise ValueError(f"record time {float(times[-1])!r} lies beyond the horizon {cfg.horizon!r}")
    return times, {k: j for j, k in enumerate(ks)}


def _clip(x, cap: float):
    """``np.clip(x, -cap, cap)`` without its Python wrapper; same values."""
    return np.minimum(np.maximum(x, -cap), cap)


def _wrap_angle(x: np.ndarray) -> np.ndarray:
    """``np.mod(x, TWO_PI)`` bit for bit, computed in place.

    Nearly every entry already lies in ``(0, 2*pi)``, where ``np.mod`` is
    the identity, so it runs only on the rest: negatives (including
    ``-0.0``, which it maps to ``+0.0``), ``0.0``, ``2*pi`` and above, NaN
    and infinities.
    """
    return np.mod(x, TWO_PI, out=x, where=~((x > 0.0) & (x < TWO_PI)))


def _hproc_trig(s: dict) -> dict:
    """Store in the :func:`sim_hproc` state ``s`` what its absorption test
    and the next step's drift read: ``trig_r = (cos, sin, tan, tan^2)(r)``,
    ``trig_th = (cos, sin)(th)`` and ``h``, the conformal factor there."""
    s["trig_r"] = trig_via_tan(s["r"])
    s["trig_th"] = trig_via_tan(s["th"], angle=True)[:2]
    s["h"] = h_fun_cos(s["trig_r"][0], s["trig_th"][0])
    return s


def _hproc_drift(s: dict, lo: float, hi: float, n: int):
    """Drift of :func:`sim_hproc` at the guarded state ``(clip(r, lo, hi), th)``.

    The trigonometry and ``h`` that :func:`_hproc_trig` stored in the state
    ``s`` are evaluated afresh only where the clip moved ``r``.  Returns
    ``tan`` of the guarded radius and the drift, equal bit for bit to
    :func:`~heisenpaths.operators.drift_hproc` at the guarded state.
    """
    r, (ct, st), h = s["r"], s["trig_th"], s["h"]
    cr, sr, ta, ta2 = s["trig_r"]
    re = np.minimum(np.maximum(r, lo), hi)
    moved = re != r
    if moved.any():
        cr, sr, ta, ta2, h = cr.copy(), sr.copy(), ta.copy(), ta2.copy(), h.copy()
        cr[moved], sr[moved], ta[moved], ta2[moved] = trig_via_tan(re[moved])
        h[moved] = h_fun_cos(cr[moved], ct[moved])
    br, bth = drift_hproc_trig(cr, sr, ct, st, ta, ta2, h, n)
    return ta, br, bth


def _start_point(x0, sphere: bool, label: str = "x0") -> tuple[float, float]:
    """A finite start ``(r, th)`` or ``(r, t)``, named ``label``, whose radial
    coordinate lies in ``[0, pi/2)`` on the sphere, ``[0, inf)`` on the group."""
    a, b = float(x0[0]), float(x0[1])
    if not (math.isfinite(a) and math.isfinite(b)):
        raise ValueError(f"{label} must be finite, got ({a!r}, {b!r})")
    if sphere and not 0 <= a < np.pi / 2:
        raise ValueError(f"{label} radial coordinate must lie in [0, pi/2), got {a!r}")
    if a < 0:
        raise ValueError(f"{label} radial coordinate must be nonnegative, got {a!r}")
    return a, b


def conditioned_start(cfg: SimConfig, x0, sphere: bool, label: str = "x0") -> tuple[float, float]:
    """Start of :func:`sim_hproc` (``sphere``) or :func:`sim_Nproc`, named
    ``label``: in its domain and outside the absorption region."""
    a, b = _start_point(x0, sphere, label)
    if h_fun(a, b) <= cfg.absorb_floor_h if sphere else koranyi_N(a, b) <= cfg.absorb_floor_N:
        raise ValueError(f"{label} = ({a!r}, {b!r}) lies inside the absorption region")
    return a, b


def _simulate(
    cfg: SimConfig,
    purpose: int,
    record_times: Sequence[float],
    x0: Mapping[str, object],
    step: Callable,
    absorb: Callable | None = None,
    noise: int = 2,
    clock: str | None = None,
    levels: Sequence[float] = (),
    averages: Mapping[str, Callable] | None = None,
) -> PathEnsemble:
    """The stepping loop behind every simulator (see the module docstring).

    ``x0`` maps each coordinate to its start value; every path of a block
    starts there, with the value's shape plus a trailing path axis.  Its
    keys name the state entries that are recorded, frozen and interpolated,
    and the arguments, in order, of the clock factor and the averaged
    functions.  Each step draws ``noise`` rows of normals.

    Every block simulates ``BLOCK_PATHS`` paths; the final block is
    truncated to its first ``keep`` paths afterwards, so path ``j`` of a run
    does not depend on the total path count.  The kernel uses ``keep`` only
    to decide when its block is finished.  Arrays are concatenated along
    their last axis in block order.
    """
    coords = tuple(x0)
    times, slots = _snap_slots(cfg, record_times)
    factor = CLOCKS[clock] if clock else None
    averages = dict(averages or {})
    dt, m, width = cfg.step, len(times), BLOCK_PATHS
    last = max(slots, default=0)

    def kernel(keep, rng):
        s = {c: np.repeat(np.asarray(v)[..., None], width, axis=-1) for c, v in x0.items()}
        out = {c: np.empty((m,) + s[c].shape, dtype=s[c].dtype) for c in coords}
        acc = {name: np.zeros(width) for name in averages}
        hits = []  # kept columns of each level's hit mask (views)
        pending = bool(levels)  # a kept path has a level left to cross
        if absorb:
            absorb(s)
            alive = np.ones(width, dtype=bool)
            alive_kept = alive[:keep]  # view: follows the in-place updates
            out["alive"] = np.empty((m, width), dtype=bool)
            out["death_time"] = np.full(width, np.inf)
        if factor:
            A = np.zeros(width)
            f_old = factor(*(s[c] for c in coords))
            out["clock"] = np.empty((m, width))
            for i in range(len(levels)):
                for c in coords + ("time",):
                    out[i, c] = np.full(width, np.nan)
                out[i, "hit"] = np.zeros(width, dtype=bool)
                hits.append(out[i, "hit"][:keep])

        def record(j):
            for c in coords:
                out[c][j] = s[c]
            if absorb:
                out["alive"][j] = alive
            if factor:
                out["clock"][j] = A

        if 0 in slots:
            record(slots[0])
        for k in range(cfg.steps):
            # past the last record slot, only averages, uncrossed levels and
            # live paths can still change an output
            if k >= last and not (averages or pending or (absorb and alive_kept.any())):
                break
            dw = rng.standard_normal((noise, width))
            for name, f in averages.items():
                acc[name] += f(*(s[c] for c in coords)) * dt
            new = step(s, dw)
            if absorb:
                if not alive.all():
                    dead = ~alive
                    for c in coords:
                        np.copyto(new[c], s[c], where=dead)
                died = alive & absorb(new)
                out["death_time"][died] = (k + 1) * dt
                alive &= ~died
            if factor:
                f_new = factor(*(new[c] for c in coords))
                A_new = A + 0.5 * dt * (f_old + f_new)
                for i, u in enumerate(levels):
                    hit = out[i, "hit"]
                    cross = ~hit & (A_new >= u)
                    if np.any(cross):
                        lam = (u - A[cross]) / (A_new[cross] - A[cross])
                        for c in coords:
                            out[i, c][cross] = s[c][cross] + lam * (new[c][cross] - s[c][cross])
                        out[i, "time"][cross] = (k + lam) * dt
                        hit[cross] = True
                        pending = not all(h.all() for h in hits)
                A, f_old = A_new, f_new
            s = new
            if k + 1 in slots:
                record(slots[k + 1])
        for name in acc:
            out["avg", name] = acc[name] / (cfg.steps * dt)
        return out

    parts = []
    for b, keep in block_plan(cfg.paths):
        # looked up at call time: bench/tracer.py and bench/child.py patch it
        out = kernel(keep, stream(cfg.seed, purpose, b))
        parts.append({k: v[..., :keep] for k, v in out.items()})
    flat = {k: np.concatenate([p[k] for p in parts], axis=-1) for k in parts[0]}
    ens = PathEnsemble(times=times, states={c: flat[c] for c in coords})
    if absorb:
        ens.alive, ens.death_time = flat["alive"], flat["death_time"]
    if factor:
        ens.clock = flat["clock"]
        ens.crossings = {
            u: {c: flat[i, c] for c in coords + ("time", "hit")} for i, u in enumerate(levels)
        }
    ens.averages = {name: flat["avg", name] for name in averages}
    return ens


# ---------------------------------------------------------------------------
# full-coordinate Heisenberg Brownian motion


def sim_full_h(cfg: SimConfig, x0_t: float = 0.0, record_times: Sequence[float] = ()) -> PathEnsemble:
    """Brownian motion on the full group, started at ``(0, x0_t)``: ``z`` in
    C^n plus the vertical coordinate driven by the left-point area increment
    ``Im(conj(z) dz)``.

    Records ``z`` (shape ``times x n x paths``) and ``t`` at the requested
    times; :func:`project_radial` reduces the result to ``(|z|, t)``.
    """
    if not math.isfinite(x0_t):
        raise ValueError("start point must be finite")
    sq = np.sqrt(cfg.step)
    n = cfg.n

    def step(s, dw):
        z = s["z"]
        dz = sq * (dw[:n] + 1j * dw[n:])
        return {"z": z + dz, "t": s["t"] + np.sum(z.real * dz.imag - z.imag * dz.real, axis=0)}

    x0 = {"z": np.zeros(n, dtype=complex), "t": float(x0_t)}
    return _simulate(cfg, PURPOSE_MAIN, record_times, x0, step, noise=2 * n)


def project_radial(ens: PathEnsemble) -> PathEnsemble:
    """Pointwise radial projection ``(z, t) -> (|z|, t)`` of a
    :func:`sim_full_h` ensemble."""
    if "z" not in ens.states:
        raise ValueError("ensemble has no full coordinates to project")
    r = np.sqrt(np.sum(ens.states["z"].real ** 2 + ens.states["z"].imag ** 2, axis=1))
    return PathEnsemble(times=ens.times, states={"r": r, "t": ens.states["t"]})


# ---------------------------------------------------------------------------
# radial Heisenberg Brownian motion, with optional additive clock


def sim_radial_h(
    cfg: SimConfig,
    x0: tuple[float, float] = (0.0, 0.0),
    record_times: Sequence[float] = (),
    clock: str | None = None,
    levels: Sequence[float] = (),
    purpose: int = PURPOSE_MAIN,
) -> PathEnsemble:
    """Radial Heisenberg diffusion ``(r, t)``.

    With ``clock`` set (one of ``CLOCKS``), integrates the clock by the
    trapezoid rule along each path and records linearly interpolated states
    at the first crossing of each requested level.
    """
    if clock is not None and clock not in CLOCKS:
        raise ValueError(f"unknown clock {clock!r}")
    if levels and clock is None:
        raise ValueError("levels need a clock")
    levels = sorted(float(u) for u in levels)
    if not all(0 < u < math.inf for u in levels):
        raise ValueError("clock levels must be positive and finite")
    dt, sq = cfg.step, np.sqrt(cfg.step)
    n = cfg.n
    cap = TAME * sq
    guard = 0.5 * sq
    r0, t0 = _start_point(x0, sphere=False)

    def step(s, dw):
        r = s["r"]
        re = np.maximum(r, guard)
        disp = _clip((2 * n - 1) / (2.0 * re) * dt, cap)
        return {
            "r": np.maximum(np.abs(r + disp + sq * dw[0]), R_FLOOR),
            "t": s["t"] + r * sq * dw[1],
        }

    return _simulate(cfg, purpose, record_times, {"r": r0, "t": t0}, step, clock=clock, levels=levels)


# ---------------------------------------------------------------------------
# radial sphere Brownian motion


def sim_radial_s(
    cfg: SimConfig,
    x0: tuple[float, float] = (0.0, 0.0),
    record_times: Sequence[float] = (),
    averages: Mapping[str, Callable] | None = None,
    purpose: int = PURPOSE_MAIN,
) -> PathEnsemble:
    """Radial sphere diffusion ``(rs, th)``.

    ``averages`` maps names to functions ``f(rs, th)`` accumulated as
    left-point time averages over ``[0, horizon]``.
    """
    dt, sq = cfg.step, np.sqrt(cfg.step)
    n = cfg.n
    cap = TAME * sq
    guard = 0.5 * sq
    upper = np.pi / 2 - guard
    hi = np.pi / 2 - R_FLOOR
    r0, th0 = _start_point(x0, sphere=True)

    def step(s, dw):
        r = s["r"]
        ta = np.tan(np.minimum(np.maximum(r, guard), upper))
        disp = _clip(0.5 * sphere_radial_drift_tan(ta, n) * dt, cap)
        return {
            "r": np.minimum(np.abs(r + disp + sq * dw[0]), hi),
            "th": _wrap_angle(s["th"] + ta * sq * dw[1]),
        }

    return _simulate(cfg, purpose, record_times, {"r": r0, "th": th0 % TWO_PI}, step, averages=averages)


# ---------------------------------------------------------------------------
# conditioned processes (absorbing)


def sim_hproc(
    cfg: SimConfig,
    x0: tuple[float, float] = (0.0, 0.0),
    record_times: Sequence[float] = (),
    purpose: int = PURPOSE_MAIN,
) -> PathEnsemble:
    """Sphere diffusion conditioned to avoid the zero of the conformal
    factor; absorbed (and frozen) once the factor falls below
    ``absorb_floor_h``.
    """
    dt, sq = cfg.step, np.sqrt(cfg.step)
    n = cfg.n
    cap = TAME * sq
    guard = 0.5 * sq
    upper = np.pi / 2 - guard
    hi = np.pi / 2 - R_FLOOR
    floor = cfg.absorb_floor_h
    r0, th0 = conditioned_start(cfg, x0, sphere=True)

    def step(s, dw):
        ta, br, bth = _hproc_drift(s, guard, upper, n)
        return {
            "r": np.minimum(np.abs(s["r"] + _clip(br * dt, cap) + sq * dw[0]), hi),
            "th": _wrap_angle(s["th"] + _clip(bth * dt, cap) + ta * sq * dw[1]),
        }

    def absorb(s):
        # the trigonometry and h of the new state serve the absorption test
        # now and the drift of the next step
        return _hproc_trig(s)["h"] < floor

    return _simulate(cfg, purpose, record_times, {"r": r0, "th": th0 % TWO_PI}, step, absorb)


def sim_Nproc(
    cfg: SimConfig,
    x0: tuple[float, float],
    record_times: Sequence[float] = (),
    purpose: int = PURPOSE_MAIN,
) -> PathEnsemble:
    """Heisenberg radial diffusion conditioned to avoid the origin; absorbed
    (and frozen) once the quartic gauge falls below ``absorb_floor_N``."""
    dt, sq = cfg.step, np.sqrt(cfg.step)
    n = cfg.n
    cap = TAME * sq
    guard = 0.5 * sq
    floor = cfg.absorb_floor_N
    r0, t0 = conditioned_start(cfg, x0, sphere=False)

    def step(s, dw):
        r, t = s["r"], s["t"]
        re = np.maximum(r, guard)
        br, bt = drift_Nproc((re, t), n)
        return {
            "r": np.maximum(np.abs(r + _clip(br * dt, cap) + sq * dw[0]), R_FLOOR),
            "t": t + _clip(bt * dt, cap) + r * sq * dw[1],
        }

    def absorb(s):
        return koranyi_N(s["r"], s["t"]) < floor

    return _simulate(cfg, purpose, record_times, {"r": r0, "t": t0}, step, absorb)
