"""Coordinate geometry of the Heisenberg group and of the CR sphere.

Coordinate systems used throughout the package:

* full Heisenberg coordinates ``(z, t)``: ``z`` in C^n, ``t`` real, with the
  twisted product ``(z,t)(z',t') = (z+z', t+t'+Im z.conj(z'))``;
* Heisenberg radial coordinates ``(r_h, t)`` with ``r_h = |z| >= 0``;
* sphere cylinder coordinates ``(r_s, theta)``: ``r_s`` in ``[0, pi/2)`` is
  the polar distance read off the last ambient coordinate, ``theta`` in
  ``[0, 2*pi)`` its phase.  The circle ``r_s = 0`` carries two distinguished
  points: the chart center ``(0, 0)`` and the antipodal point ``(0, pi)``
  (the one omitted by the first chart);
* ambient sphere coordinates: a unit vector in C^(n+1).

Array-valued kernels (``koranyi_N``, ``h_fun``, ``cayley1_chart``, ...) take
plain floats/arrays and broadcast, radial and cylinder coordinates included.
The two point containers at the top, ``HPoint`` (full Heisenberg
coordinates) and ``SAmbient`` (ambient sphere coordinates), carry single
points through the exact maps and validate their invariants.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numdiff import map_jet

TWO_PI = 2.0 * np.pi

# chart-inverse and h-division guard: below this the point is treated as the
# pole itself and rejected with an error rather than a NaN
POLE_TOL = 1e-14

__all__ = [
    "HPoint",
    "SAmbient",
    "group_mul",
    "group_inv",
    "koranyi_N",
    "h_fun",
    "h_fun_cos",
    "trig_via_tan",
    "h_tilde",
    "H_fun",
    "H_tilde",
    "cayley1_full",
    "cayley1_chart",
    "cayley1_chart_inv",
    "cayley2_inv",
    "kelvin",
    "kelvin_radial",
    "ambient_to_cyl",
    "measure_jacobian_residual",
]


# ---------------------------------------------------------------------------
# point containers


@dataclass(frozen=True)
class HPoint:
    """Point of the group: ``z`` in C^n (stored as a complex array), ``t`` real."""

    z: np.ndarray
    t: float

    def __post_init__(self):
        z = np.atleast_1d(np.asarray(self.z, dtype=complex))
        if z.ndim != 1 or z.size < 1:
            raise ValueError("z must be a nonempty complex vector")
        if not (np.all(np.isfinite(z.view(float))) and np.isfinite(self.t)):
            raise ValueError("HPoint entries must be finite")
        object.__setattr__(self, "z", z)
        object.__setattr__(self, "t", float(self.t))

    @property
    def n(self) -> int:
        return self.z.size


@dataclass(frozen=True)
class SAmbient:
    """Unit vector in C^(n+1); the norm is validated to 1e-12."""

    zeta: np.ndarray

    def __post_init__(self):
        zeta = np.atleast_1d(np.asarray(self.zeta, dtype=complex))
        if zeta.ndim != 1 or zeta.size < 2:
            raise ValueError("zeta must be a complex vector of length >= 2")
        if abs(np.sqrt(np.sum(np.abs(zeta) ** 2)) - 1.0) > 1e-12:
            raise ValueError("zeta must lie on the unit sphere")
        object.__setattr__(self, "zeta", zeta)

    @property
    def n(self) -> int:
        return self.zeta.size - 1


# ---------------------------------------------------------------------------
# group operations (full coordinates)


def group_mul(a: HPoint, b: HPoint) -> HPoint:
    """Group product ``(z+z', t+t'+Im z.conj(z'))``."""
    if a.n != b.n:
        raise ValueError("dimension mismatch")
    twist = float(np.sum(np.imag(a.z * np.conj(b.z))))
    return HPoint(a.z + b.z, a.t + b.t + twist)


def group_inv(a: HPoint) -> HPoint:
    """Group inverse ``(-z, -t)``."""
    return HPoint(-a.z, -a.t)


# ---------------------------------------------------------------------------
# gauges and conformal factors (array kernels)


def koranyi_N(r, t):
    """Quartic gauge ``r^4 + 4 t^2``; degree 4 under ``(r,t) -> (s r, s^2 t)``."""
    r = np.asarray(r, dtype=float)
    t = np.asarray(t, dtype=float)
    return r**4 + 4.0 * t**2


def h_fun(rs, th):
    """Sphere-side conformal factor ``1 + 2 cos(rs) cos(th) + cos(rs)^2``.

    Vanishes only at ``(0, pi)``; equals 4 at the chart center ``(0, 0)``.
    """
    rs = np.asarray(rs, dtype=float)
    th = np.asarray(th, dtype=float)
    return h_fun_cos(np.cos(rs), np.cos(th))


def h_fun_cos(c, ct):
    """:func:`h_fun` from ``c = cos(rs)`` and ``ct = cos(th)``.

    The one copy of the formula: :func:`h_fun`, the exact jet in
    :mod:`~heisenpaths.operators` and the simulator, which reuses the
    cosines of a step's state, all evaluate it here.
    """
    return 1.0 + 2.0 * c * ct + c**2


def trig_via_tan(x, angle: bool = False):
    """``cos, sin, tan, tan^2`` of ``x`` from one tangent ``t = np.tan(x)``:
    ``c = 1/sqrt(1 + t^2)`` and ``s = t*c``.

    ``np.tan`` runs on SIMD lanes where the CPU has them and costs a
    fraction of a scalar ``np.cos`` or ``np.sin``; ``c`` and ``s`` stay
    within 3 ulp of them.  By default ``x`` is a sphere radius in
    ``[0, pi/2)``, where ``c > 0``.  With ``angle=True`` it is an angle in
    ``[0, 2*pi)`` and ``c`` takes the quadrant sign: on ``[0, pi]`` (the
    double ``pi`` lies below pi) ``c < 0`` where ``t < 0``, beyond it where
    ``t > 0``.  NaN in gives NaN out.
    """
    x = np.asarray(x, dtype=float)
    t = np.tan(x)
    t2 = t * t
    c = 1.0 / np.sqrt(1.0 + t2)
    if angle:
        c = np.where((t < 0.0) == (x <= np.pi), -c, c)
    return c, t * c, t, t2


def h_tilde(rs, th):
    """Companion factor ``1 + cos(rs)^2 - 2 cos(rs) cos(th)``; vanishes only
    at the chart center."""
    rs = np.asarray(rs, dtype=float)
    th = np.asarray(th, dtype=float)
    c = np.cos(rs)
    return 1.0 + c**2 - 2.0 * c * np.cos(th)


def H_fun(r, t):
    """Heisenberg-side conformal factor ``4 / ((1+r^2)^2 + 4 t^2)``.

    Equals ``h_fun`` composed with ``cayley1_chart``; maximum 4 at the origin.
    """
    r = np.asarray(r, dtype=float)
    t = np.asarray(t, dtype=float)
    return 4.0 / ((1.0 + r**2) ** 2 + 4.0 * t**2)


def H_tilde(r, t):
    """Gauge-weighted companion ``4 N / ((1+r^2)^2 + 4 t^2)``.

    The square on ``(1+r^2)`` is essential: only this form satisfies
    ``H_tilde = H_fun o kelvin_radial`` and pulls back from ``h_tilde``.
    """
    return koranyi_N(r, t) * H_fun(r, t)


# ---------------------------------------------------------------------------
# first chart (omits (0, pi)) and its radial form


def cayley1_full(p: HPoint) -> SAmbient:
    """Full chart map onto the unit sphere in C^(n+1).

    ``zeta_j = 2 z_j / d`` and ``zeta_last = (1 - |z|^2 + 2it) / d`` with
    ``d = (1 + |z|^2) - 2it``.  Sends the origin to ``e_n``; the image never
    reaches ``-e_n``.
    """
    r2 = float(np.sum(np.abs(p.z) ** 2))
    d = (1.0 + r2) - 2j * p.t
    zeta = np.concatenate([2.0 * p.z / d, [((1.0 - r2) + 2j * p.t) / d]])
    return SAmbient(zeta)


def cayley1_chart(r, t):
    """Radial chart map ``(r_h, t) -> (r_s, theta)``.

    ``r_s = atan2(2 r, hypot(1 - r^2, 2 t))``, which is
    ``arcsin(2 r / sqrt((1+r^2)^2 + 4 t^2))`` as
    ``(1+r^2)^2 + 4 t^2 - 4 r^2 = (1-r^2)^2 + 4 t^2``, but keeps its digits
    where ``r_s`` nears pi/2 and the arcsin does not; and
    ``theta = atan2(4t, 1 - N(r,t))`` reduced to ``[0, 2*pi)``; the atan2
    form fixes the branch so that theta agrees with the phase of the last
    ambient coordinate of :func:`cayley1_full`.
    """
    r = np.asarray(r, dtype=float)
    t = np.asarray(t, dtype=float)
    rs = np.arctan2(2.0 * r, np.hypot(1.0 - r**2, 2.0 * t))
    th = np.mod(np.arctan2(4.0 * t, 1.0 - koranyi_N(r, t)), TWO_PI)
    return rs, th


def cayley1_chart_inv(rs, th):
    """Inverse radial chart ``r = sin(rs)/sqrt(h)``, ``t = cos(rs) sin(th)/h``.

    Raises close to ``(0, pi)`` where ``h_fun`` vanishes (no NaN output).
    """
    rs = np.asarray(rs, dtype=float)
    th = np.asarray(th, dtype=float)
    h = h_fun(rs, th)
    if np.any(h < POLE_TOL):
        raise ValueError("chart inverse evaluated at the omitted pole")
    r = np.sin(rs) / np.sqrt(h)
    t = np.cos(rs) * np.sin(th) / h
    return r, t


def ambient_to_cyl(w) -> tuple[np.ndarray, np.ndarray]:
    """Cylinder coordinates of ambient sphere points (arrays ``(..., n+1)``).

    ``r_s = atan2(|w'|, |w_last|)`` with ``w'`` the first ``n`` coordinates,
    which is ``arccos(|w_last|)`` on the unit sphere but keeps its digits
    near the axis, where the arccos does not; ``theta = arg(w_last) mod
    2*pi``.  At ``r_s = pi/2`` the phase is meaningless (``w_last = 0``).
    """
    w = np.asarray(w, dtype=complex)
    wl = w[..., -1]
    rs = np.arctan2(np.linalg.norm(w[..., :-1], axis=-1), np.abs(wl))
    th = np.mod(np.angle(wl), TWO_PI)
    return rs, th


# ---------------------------------------------------------------------------
# second chart (omits e_n) and the gauge inversion


def cayley2_inv(q: SAmbient) -> HPoint:
    """Inverse of the second chart, the mirror of the first: it omits
    ``+e_n``, sends ``-e_n`` to the origin and conjugates ``z``, as only an
    antiholomorphic second chart composes with the first into an involution
    (see :func:`kelvin`).  ``z = conj(zeta'/(1 - zeta_last))``,
    ``t = Im(2/(1 - zeta_last))/2``."""
    wl = q.zeta[-1]
    den = 1.0 - wl
    if abs(den) < POLE_TOL:
        raise ValueError("second-chart inverse evaluated at its omitted pole")
    z = np.conj(q.zeta[:-1] / den)
    t = float(np.imag(2.0 / den)) / 2.0
    return HPoint(z, t)


def kelvin(p: HPoint) -> HPoint:
    """Gauge inversion on the group:

        kelvin(z, t) = (conj(z) / (|z|^2 + 2it), t / N)

    with ``N = |z|^4 + 4 t^2``.  An involution fixing the unit gauge sphere,
    equal to ``cayley2_inv o cayley1_full`` pointwise.  The map is
    antiholomorphic in ``z``: dropping the conjugation (keeping ``z`` in the
    numerator with a ``-2it`` denominator) gives a map whose square turns
    ``z`` by the phase of ``(|z|^2 + 2it) / (|z|^2 - 2it)``, so it is no
    involution wherever ``t != 0`` —
    ``tests/test_geometry.py::test_unconjugated_kelvin_is_not_an_involution``.
    """
    r2 = float(np.sum(np.abs(p.z) ** 2))
    N = r2**2 + 4.0 * p.t**2
    if N <= 0.0:
        raise ValueError("gauge inversion undefined at the origin")
    return HPoint(np.conj(p.z) / (r2 + 2j * p.t), p.t / N)


def kelvin_radial(r, t):
    """Radial gauge inversion ``(r, t) -> (r/N^(1/2), t/N)``; involution away
    from the origin, sends the gauge ``N`` to ``1/N``."""
    r = np.asarray(r, dtype=float)
    t = np.asarray(t, dtype=float)
    N = koranyi_N(r, t)
    return r / np.sqrt(N), t / N


# ---------------------------------------------------------------------------
# measure identity


def measure_jacobian_residual(r, t, n: int, step: float = 1e-4):
    """Residual of the chart volume identity at ``(r, t)``, ``r > 0``:

        sin(r_s)^(2n-1) cos(r_s) |det D(cayley1_chart)| - H^(n+1) r^(2n-1)

    with the chart derivative taken by Richardson-extrapolated central
    differences; zero in exact arithmetic.
    """
    r = np.asarray(r, dtype=float)
    t = np.asarray(t, dtype=float)
    if np.any(r <= 1e-8):
        raise ValueError("measure identity degenerates at r = 0")
    vals, jac, _ = map_jet(cayley1_chart, r, t, step=step, circular=(False, True))
    det = jac[0][0] * jac[1][1] - jac[0][1] * jac[1][0]
    rs = vals[0]
    lhs = np.sin(rs) ** (2 * n - 1) * np.cos(rs) * np.abs(det)
    return lhs - H_fun(r, t) ** (n + 1) * r ** (2 * n - 1)
