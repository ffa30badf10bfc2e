"""Additive clocks along paths and their path-by-path inversion.

The dense clocks here are the offline oracle for the streaming crossing
records of :mod:`heisenpaths.sde`, which interpolate within one fine step.
A clock is the trapezoid running integral of a factor from
:data:`heisenpaths.sde.CLOCKS` along the record grid; inverting it at a
level ``u`` gives the first time ``sigma_u`` the clock reaches ``u``, and
resampling reads the path there.  On a shared grid the two accumulations
agree to machine precision, not bitwise: the dense clock takes each ``dt``
from differencing the record times, which can differ from the simulator's
step by an ulp.
"""

from dataclasses import dataclass

import numpy as np
import pytest

from heisenpaths.geometry import TWO_PI, H_fun, koranyi_N
from heisenpaths.numdiff import unwrap_angle
from heisenpaths.sde import CLOCKS, PathEnsemble, sim_radial_h

from conftest import small_cfg


# ---------------------------------------------------------------------------
# the offline oracle


@dataclass(frozen=True)
class Clock:
    """Running clock values on a record grid.

    ``values`` has the record times along axis 0 (a single path is a 1-D
    array, an ensemble is ``times x paths``), starts at 0 and is
    nondecreasing along axis 0.
    """

    times: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        values = np.asarray(self.values, dtype=float)
        if times.ndim != 1 or times.size < 2:
            raise ValueError("a clock needs at least two record times")
        if values.shape[0] != times.size:
            raise ValueError("values and times disagree on the grid length")
        if np.any(values[0] != 0.0):
            raise ValueError("clock must start at 0")
        if np.any(np.diff(values, axis=0) < 0):
            raise ValueError("clock must be nondecreasing")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "values", values)

    @property
    def terminal(self) -> np.ndarray:
        return self.values[-1]


def accumulate_clock(times, factor_values) -> np.ndarray:
    """Trapezoid running integral of ``factor_values`` (axis 0 = times)."""
    times = np.asarray(times, dtype=float)
    fac = np.asarray(factor_values, dtype=float)
    dt = np.diff(times).reshape((-1,) + (1,) * (fac.ndim - 1))
    out = np.zeros_like(fac)
    np.cumsum(0.5 * dt * (fac[:-1] + fac[1:]), axis=0, out=out[1:])
    return out


def clock_cayley(ens: PathEnsemble) -> Clock:
    """Chart clock along a Heisenberg radial ensemble: running integral of
    the Heisenberg-side conformal factor, evaluated on the record grid."""
    fac = CLOCKS["cayley"](ens.states["r"], ens.states["t"])
    return Clock(ens.times, accumulate_clock(ens.times, fac))


def clock_kelvin(ens: PathEnsemble, orientation: str = "image") -> Clock:
    """Gauge-inversion clock along a Heisenberg radial ensemble.

    ``orientation="image"`` integrates ``1/N`` (the factor expressed through
    the state of the mapped path, which is the correct time change);
    ``"preimage"`` integrates ``N`` itself and is kept only as a negative
    control for the law comparison.
    """
    if orientation not in ("image", "preimage"):
        raise ValueError(f"unknown orientation {orientation!r}")
    fac = CLOCKS[f"kelvin_{orientation}"](ens.states["r"], ens.states["t"])
    return Clock(ens.times, accumulate_clock(ens.times, fac))


def _locate(values: np.ndarray, u: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    # segment index and interpolation weight of the first crossing of u
    m = values.shape[0]
    cnt = np.sum(values < u, axis=0)
    hit = (u <= values[-1]) & (cnt >= 1)
    idx = np.clip(cnt, 1, m - 1)
    left = np.take_along_axis(values, (idx - 1)[None], axis=0)[0]
    right = np.take_along_axis(values, idx[None], axis=0)[0]
    den = right - left
    lam = np.where(den > 0, (u - left) / np.where(den > 0, den, 1.0), 1.0)
    return idx, np.clip(lam, 0.0, 1.0), hit


def invert_clock(clock: Clock, u: float):
    """First time the clock reaches level ``u > 0``, linearly interpolated.

    On a single-path clock returns a float and raises when ``u`` exceeds the
    terminal value (no extrapolation); on an ensemble returns ``(sigma,
    hit)`` with ``sigma`` NaN where the level was never reached.
    """
    u = float(u)
    if u <= 0:
        raise ValueError("clock level must be positive")
    values = clock.values
    single = values.ndim == 1
    v = values[:, None] if single else values
    idx, lam, hit = _locate(v, u)
    tl = clock.times[idx - 1]
    tr = clock.times[idx]
    sigma = np.where(hit, (1.0 - lam) * tl + lam * tr, np.nan)
    if single:
        if not bool(hit[0]):
            raise ValueError(f"clock terminates at {values[-1]:.6g} before reaching {u:.6g}")
        return float(sigma[0])
    return sigma, hit


def resample(ens: PathEnsemble, clock: Clock, grid, circular=("th",)) -> dict[str, np.ndarray]:
    """States of ``ens`` at the clock inverse of each level in ``grid``.

    Interpolation is linear within one record segment, with angle-valued
    coordinates (named in ``circular``) unwrapped about the left endpoint;
    a level sitting exactly on a record value reproduces that record state
    bitwise.  Returns the resampled states plus ``sigma`` and ``hit``
    arrays, with NaN states where a path's clock never reached the level.
    """
    grid = [float(u) for u in np.atleast_1d(grid)]
    if any(u <= 0 for u in grid):
        raise ValueError("clock levels must be positive")
    values = clock.values
    if values.shape != next(iter(ens.states.values())).shape:
        raise ValueError("clock and ensemble do not share a record grid")
    m = len(grid)
    shape = (m,) + values.shape[1:]
    out: dict[str, np.ndarray] = {
        name: np.empty(shape) for name in ens.states
    }
    out["sigma"] = np.empty(shape)
    out["hit"] = np.empty(shape, dtype=bool)
    for j, u in enumerate(grid):
        idx, lam, hit = _locate(values, u)
        tl, tr = clock.times[idx - 1], clock.times[idx]
        out["sigma"][j] = np.where(hit, (1.0 - lam) * tl + lam * tr, np.nan)
        out["hit"][j] = hit
        for name, arr in ens.states.items():
            left = np.take_along_axis(arr, (idx - 1)[None], axis=0)[0]
            right = np.take_along_axis(arr, idx[None], axis=0)[0]
            if name in circular:
                right = unwrap_angle(right, left)
                val = np.mod((1.0 - lam) * left + lam * right, TWO_PI)
                exact = np.take_along_axis(arr, idx[None], axis=0)[0]
                val = np.where(lam == 1.0, exact, val)
            else:
                val = (1.0 - lam) * left + lam * right
            out[name][j] = np.where(hit, val, np.nan)
    return out


def make_ens(times, **states):
    return PathEnsemble(
        times=np.asarray(times, dtype=float),
        states={k: np.asarray(v, dtype=float) for k, v in states.items()},
    )


# ---------------------------------------------------------------------------
# accumulation


def test_accumulate_trapezoid():
    got = accumulate_clock([0.0, 1.0, 2.0], np.array([0.0, 2.0, 4.0]))
    assert np.allclose(got, [0.0, 1.0, 4.0])


def test_clock_validation():
    with pytest.raises(ValueError):
        Clock(times=[0.0], values=np.array([0.0]))
    with pytest.raises(ValueError):
        Clock(times=[0.0, 1.0], values=np.array([0.1, 0.2]))  # must start at 0
    with pytest.raises(ValueError):
        Clock(times=[0.0, 1.0], values=np.array([0.0, -0.1]))


def test_clock_cayley_hand_example():
    # constant state (r, t) = (1, 0): factor H = 4/4 = 1, so the clock is time
    ens = make_ens([0.0, 0.5, 1.0], r=np.ones((3, 2)), t=np.zeros((3, 2)))
    ck = clock_cayley(ens)
    assert np.allclose(ck.values, [[0, 0], [0.5, 0.5], [1, 1]])
    assert H_fun(1.0, 0.0) == 1.0


def test_clock_kelvin_orientations():
    ens = make_ens([0.0, 1.0], r=np.full((2, 1), 2.0), t=np.zeros((2, 1)))
    N = koranyi_N(2.0, 0.0)
    img = clock_kelvin(ens, orientation="image")
    pre = clock_kelvin(ens, orientation="preimage")
    assert img.terminal[0] == pytest.approx(1.0 / N)
    assert pre.terminal[0] == pytest.approx(N)
    with pytest.raises(ValueError):
        clock_kelvin(ens, orientation="sideways")


# ---------------------------------------------------------------------------
# inversion


def test_invert_scalar_clock():
    ck = Clock(times=[0.0, 1.0, 2.0], values=np.array([0.0, 2.0, 6.0]))
    assert invert_clock(ck, 1.0) == pytest.approx(0.5)
    assert invert_clock(ck, 2.0) == pytest.approx(1.0)  # exact grid hit
    assert invert_clock(ck, 4.0) == pytest.approx(1.5)
    with pytest.raises(ValueError, match="terminates"):
        invert_clock(ck, 7.0)
    with pytest.raises(ValueError):
        invert_clock(ck, -1.0)


def test_invert_ensemble_clock():
    values = np.array([[0.0, 0.0], [2.0, 0.5], [6.0, 1.0]])
    ck = Clock(times=[0.0, 1.0, 2.0], values=values)
    sigma, hit = invert_clock(ck, 2.0)
    assert sigma[0] == pytest.approx(1.0)
    assert np.isnan(sigma[1]) and not hit[1]  # that path never reaches 2


def test_resample_linear_and_exact():
    times = [0.0, 1.0, 2.0]
    r = np.array([[1.0], [3.0], [5.0]])
    values = np.array([[0.0], [2.0], [4.0]])
    ens = make_ens(times, r=r)
    ck = Clock(times=times, values=values)
    out = resample(ens, ck, [1.0, 2.0], circular=())
    assert out["r"][0, 0] == pytest.approx(2.0)  # halfway along segment one
    assert out["r"][1, 0] == 3.0  # grid hit reproduces the record bitwise
    assert out["sigma"][0, 0] == pytest.approx(0.5)


def test_resample_circular_across_cut():
    times = [0.0, 1.0]
    th = np.array([[2 * np.pi - 0.1], [0.1]])  # crosses the cut upward
    values = np.array([[0.0], [1.0]])
    ens = make_ens(times, th=th)
    ck = Clock(times=times, values=values)
    out = resample(ens, ck, [0.5])
    assert out["th"][0, 0] == pytest.approx(0.0, abs=1e-12)


def test_resample_rejects_mismatched_grid():
    ens = make_ens([0.0, 1.0], r=np.zeros((2, 3)))
    ck = Clock(times=[0.0, 1.0], values=np.zeros((2, 2)))
    with pytest.raises(ValueError):
        resample(ens, ck, [0.5], circular=())


# ---------------------------------------------------------------------------
# streaming crossings vs offline inversion


def test_streaming_matches_offline_on_shared_grid():
    # recording every step makes the offline reconstruction see the same grid
    # as the in-simulation crossing detector; agreement is to machine
    # precision (not bitwise: the offline dt comes from differencing the time
    # grid, which can differ from the kernel's step by one ulp)
    cfg = small_cfg(paths=256, step=2e-3, horizon=0.06)
    grid = tuple(np.arange(0, 31) * cfg.step)
    u = 0.1  # crossed early: the clock starts at rate H(0,0) = 4
    ens = sim_radial_h(cfg, x0=(0.0, 0.0), record_times=grid, clock="cayley", levels=(u,))
    ck = clock_cayley(ens)
    out = resample(ens, ck, [u], circular=())
    cross = ens.crossings[u]
    assert np.array_equal(cross["hit"], out["hit"][0])
    m = cross["hit"]
    assert np.allclose(cross["r"][m], out["r"][0][m], rtol=0, atol=1e-12)
    assert np.allclose(cross["t"][m], out["t"][0][m], rtol=0, atol=1e-12)
    assert np.allclose(cross["time"][m], out["sigma"][0][m], rtol=0, atol=1e-12)


# ---------------------------------------------------------------------------
# clock-level stabilization in the time horizon


def _kelvin_image_states(horizon):
    from heisenpaths.geometry import kelvin_radial

    cfg = small_cfg(paths=2048, step=2e-3, horizon=horizon, seed=11)
    ens = sim_radial_h(cfg, x0=(1.0, 0.0), clock="kelvin_image", levels=(0.2,))
    cross = ens.crossings[0.2]
    ri, _ = kelvin_radial(cross["r"][cross["hit"]], cross["t"][cross["hit"]])
    return ri, float(np.mean(cross["hit"]))


def test_kelvin_clock_level_stabilizes():
    # late crossers sit far out and map near the origin, so the law of the
    # mapped states barely moves when the horizon doubles (coupled seeds)
    r25, hit25 = _kelvin_image_states(25.0)
    r50, hit50 = _kelvin_image_states(50.0)
    assert hit50 >= hit25
    assert hit50 - hit25 < 0.02  # newly-crossing mass is already small
    assert abs(np.mean(r50) - np.mean(r25)) / abs(np.mean(r25)) < 0.01


def _cayley_hits(horizon):
    cfg = small_cfg(paths=2048, step=2e-3, horizon=horizon, seed=11)
    ens = sim_radial_h(cfg, x0=(0.0, 0.0), clock="cayley", levels=(1.5,))
    cross = ens.crossings[1.5]
    return cross["r"][cross["hit"]], float(np.mean(cross["hit"]))


def test_cayley_clock_late_mass_decays():
    # the chart clock is bounded along transient paths, so a tail of paths
    # never crosses; the newly-crossing mass between horizons T and 2T decays
    # and bounds the drift of the crossing law (coupled runs: same seed)
    r12, hit12 = _cayley_hits(12.5)
    r25, hit25 = _cayley_hits(25.0)
    r50, hit50 = _cayley_hits(50.0)
    inc1, inc2 = hit25 - hit12, hit50 - hit25
    assert inc1 >= 0 and inc2 >= 0
    assert inc2 <= inc1 + 0.01  # late-crossing mass is shrinking
    from heisenpaths.analysis import ks_two_sample

    stat, _ = ks_two_sample(r25, r50)
    assert stat <= 2 * inc2 + 0.02
