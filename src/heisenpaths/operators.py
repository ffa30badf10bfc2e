"""Radial generators, exact test-function jets, and pointwise identity residuals.

The radial part of the sub-Laplacian acts on functions of the two reduced
coordinates.  With ``n`` the complex dimension parameter,

* Heisenberg side, coordinates ``(r, t)``::

      L f = f_rr + (2n-1)/r * f_r + r^2 * f_tt

* sphere side, cylinder coordinates ``(rs, th)``::

      L f = f_rr + ((2n-1)*cot(rs) - tan(rs)) * f_r + tan(rs)^2 * f_thth

Both have a reflecting axis at radial coordinate 0, where the generator of a
function even in the radial variable degenerates to ``2n * f_rr``.

Everything here is exact algebra on :class:`~heisenpaths.numdiff.Jet2`
values; the only finite differences enter through the chart jets used by the
identity residuals at the bottom.  Points are ``(radial, second)`` pairs:
plain tuples of floats or arrays.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .geometry import (
    TWO_PI,
    cayley1_chart,
    cayley1_chart_inv,
    h_fun_cos,
    kelvin_radial,
    koranyi_N,
    trig_via_tan,
)
from .numdiff import Jet2, map_jet, pullback_jet

__all__ = [
    "TestFunction",
    "h_fun_jet",
    "gauge_jet",
    "power_jet",
    "product_jet",
    "log_jet",
    "exp_jet",
    "apply_LS",
    "apply_LH",
    "sphere_generator",
    "heis_generator",
    "sphere_carre",
    "heis_carre",
    "sphere_radial_drift",
    "sphere_radial_drift_tan",
    "drift_hproc",
    "drift_hproc_trig",
    "drift_Nproc",
    "harmonic_gap_sphere",
    "harmonic_gap_heis",
    "residual_conj_cayley",
    "residual_doob",
    "residual_doob_forms_gap",
    "residual_kelvin",
    "sphere_basket",
    "heis_basket",
]

AXIS_TOL = 1e-12


@dataclass(frozen=True)
class TestFunction:
    """Named scalar function of two variables with exact order-two jets.

    Basket entries are even in the radial variable, so they are smooth
    across the reflecting axis and the ``2n f_rr`` limit applies there.
    """

    name: str
    jet: Callable  # (u, v) -> Jet2

    def eval(self, u, v):
        return self.jet(u, v).f


# ---------------------------------------------------------------------------
# exact jets of the conformal factor and the gauge, and jet algebra


def _h_partials(c, s, ct, st):
    """The two first partials of ``h_fun`` from the cosines and sines of
    ``rs`` and ``th``."""
    return -2.0 * s * (ct + c), -2.0 * c * st


def h_fun_jet(rs, th) -> Jet2:
    """Exact jet of the sphere-side conformal factor ``h_fun``."""
    rs = np.asarray(rs, dtype=float)
    th = np.asarray(th, dtype=float)
    c, s = np.cos(rs), np.sin(rs)
    ct, st = np.cos(th), np.sin(th)
    fu, fv = _h_partials(c, s, ct, st)
    return Jet2(
        f=h_fun_cos(c, ct),
        fu=fu,
        fv=fv,
        fuu=-2.0 * c * ct - 2.0 * np.cos(2.0 * rs),
        fuv=2.0 * s * st,
        fvv=-2.0 * c * ct,
    )


def gauge_jet(r, t) -> Jet2:
    """Exact jet of the quartic gauge ``r^4 + 4 t^2``."""
    r = np.asarray(r, dtype=float)
    t = np.asarray(t, dtype=float)
    z = np.zeros(np.broadcast(r, t).shape)
    return Jet2(
        f=r**4 + 4.0 * t**2,
        fu=4.0 * r**3,
        fv=8.0 * t + z,
        fuu=12.0 * r**2,
        fuv=z,
        fvv=8.0 + z,
    )


def power_jet(base: Jet2, a: float) -> Jet2:
    """Jet of ``base**a``; requires ``base.f > 0``."""
    f, fu, fv, fuu, fuv, fvv = base
    p = f**a
    p1 = a * f ** (a - 1.0)
    p2 = a * (a - 1.0) * f ** (a - 2.0)
    return Jet2(
        f=p,
        fu=p1 * fu,
        fv=p1 * fv,
        fuu=p2 * fu**2 + p1 * fuu,
        fuv=p2 * fu * fv + p1 * fuv,
        fvv=p2 * fv**2 + p1 * fvv,
    )


def product_jet(x: Jet2, y: Jet2) -> Jet2:
    """Leibniz product of two jets."""
    return Jet2(
        f=x.f * y.f,
        fu=x.fu * y.f + x.f * y.fu,
        fv=x.fv * y.f + x.f * y.fv,
        fuu=x.fuu * y.f + 2.0 * x.fu * y.fu + x.f * y.fuu,
        fuv=x.fuv * y.f + x.fu * y.fv + x.fv * y.fu + x.f * y.fuv,
        fvv=x.fvv * y.f + 2.0 * x.fv * y.fv + x.f * y.fvv,
    )


def log_jet(base: Jet2) -> Jet2:
    """Jet of ``log(base)``; requires ``base.f > 0``."""
    f, fu, fv, fuu, fuv, fvv = base
    return Jet2(
        f=np.log(f),
        fu=fu / f,
        fv=fv / f,
        fuu=fuu / f - (fu / f) ** 2,
        fuv=fuv / f - fu * fv / f**2,
        fvv=fvv / f - (fv / f) ** 2,
    )


def exp_jet(base: Jet2, scale: float = 1.0) -> Jet2:
    """Jet of ``exp(scale * base)``."""
    f, fu, fv, fuu, fuv, fvv = base
    e = np.exp(scale * f)
    return Jet2(
        f=e,
        fu=scale * fu * e,
        fv=scale * fv * e,
        fuu=(scale * fuu + (scale * fu) ** 2) * e,
        fuv=(scale * fuv + scale**2 * fu * fv) * e,
        fvv=(scale * fvv + (scale * fv) ** 2) * e,
    )


# ---------------------------------------------------------------------------
# generators, carre du champ, drifts


def sphere_radial_drift(rs, n: int):
    """First-order radial coefficient ``(2n-1)*cot(rs) - tan(rs)``."""
    return sphere_radial_drift_tan(np.tan(np.asarray(rs, dtype=float)), n)


def sphere_radial_drift_tan(ta, n: int):
    """:func:`sphere_radial_drift` from ``ta = tan(rs)``."""
    return (2 * n - 1) / ta - ta


def sphere_generator(jet: Jet2, rs, n: int):
    """Apply the sphere-side radial generator to a jet at ``rs`` (any th).

    At the axis ``rs = 0`` the even-function limit ``2n * f_rr`` is used.
    """
    rs = np.asarray(rs, dtype=float)
    on_axis = rs < AXIS_TOL
    safe = np.where(on_axis, 1.0, rs)
    val = (
        jet.fuu
        + sphere_radial_drift(safe, n) * jet.fu
        + np.tan(safe) ** 2 * jet.fvv
    )
    return np.where(on_axis, 2.0 * n * jet.fuu, val)


def heis_generator(jet: Jet2, r, n: int):
    """Apply the Heisenberg-side radial generator to a jet at ``r``."""
    r = np.asarray(r, dtype=float)
    on_axis = r < AXIS_TOL
    safe = np.where(on_axis, 1.0, r)
    val = jet.fuu + (2 * n - 1) / safe * jet.fu + safe**2 * jet.fvv
    return np.where(on_axis, 2.0 * n * jet.fuu, val)


def sphere_carre(x: Jet2, y: Jet2, rs):
    """Carre du champ on the sphere side: ``x_r y_r + tan(rs)^2 x_th y_th``."""
    rs = np.asarray(rs, dtype=float)
    return x.fu * y.fu + np.tan(rs) ** 2 * x.fv * y.fv


def heis_carre(x: Jet2, y: Jet2, r):
    """Carre du champ on the Heisenberg side: ``x_r y_r + r^2 x_t y_t``."""
    r = np.asarray(r, dtype=float)
    return x.fu * y.fu + r**2 * x.fv * y.fv


def apply_LS(f: TestFunction, q, n: int):
    """Sphere-side radial generator applied to ``f`` at ``q = (rs, th)``."""
    rs, th = q
    rs = np.asarray(rs, dtype=float)
    return sphere_generator(f.jet(rs, th), rs, n)


def apply_LH(f: TestFunction, p, n: int):
    """Heisenberg-side radial generator applied to ``f`` at ``p = (r, t)``."""
    r, t = p
    r = np.asarray(r, dtype=float)
    return heis_generator(f.jet(r, t), r, n)


def drift_hproc(q, n: int):
    """Drift of the half-generator sphere diffusion conditioned to avoid the
    vanishing point of the conformal factor, at ``q = (rs, th)``.

    Radial part ``(1/2)((2n-1)cot - tan) - (n/2) h_r/h``, angular part
    ``-(n/2) tan^2(rs) h_th/h``.  Callers keep ``rs`` inside ``(0, pi/2)``.
    The trigonometry comes from :func:`~heisenpaths.geometry.trig_via_tan`,
    as in the simulator; ``th`` is first reduced to ``[0, 2*pi)``, which
    leaves an angle already there unchanged.
    """
    rs, th = q
    c, s, ta, ta2 = trig_via_tan(rs)
    ct, st, _, _ = trig_via_tan(np.mod(th, TWO_PI), angle=True)
    return drift_hproc_trig(c, s, ct, st, ta, ta2, h_fun_cos(c, ct), n)


def drift_hproc_trig(c, s, ct, st, ta, ta2, h, n: int):
    """:func:`drift_hproc` from ``c, s, ta, ta2 = cos, sin, tan, tan^2(rs)``,
    ``ct, st = cos, sin(th)`` and ``h = h_fun_cos(c, ct)``.

    The simulator calls this with the trigonometry and ``h`` of each step
    computed once, so :func:`drift_hproc` and the simulator run the same
    arithmetic.
    """
    fu, fv = _h_partials(c, s, ct, st)
    br = 0.5 * sphere_radial_drift_tan(ta, n) - 0.5 * n * fu / h
    bth = -0.5 * n * ta2 * fv / h
    return br, bth


def drift_Nproc(p, n: int):
    """Drift of the half-generator Heisenberg diffusion conditioned to avoid
    the origin, at ``p = (r, t)``: ``((2n-1)/(2r) - 2n r^3/N, -4n r^2 t/N)``."""
    r, t = p
    r = np.asarray(r, dtype=float)
    t = np.asarray(t, dtype=float)
    N = koranyi_N(r, t)
    br = (2 * n - 1) / (2.0 * r) - 2.0 * n * r**3 / N
    bt = -4.0 * n * r**2 * t / N
    return br, bt


# ---------------------------------------------------------------------------
# pointwise identity residuals (zero in exact arithmetic; FD enters only
# through chart jets, so expect ~1e-7 relative on moderate grids).  Each
# returns |gap| / max(|side1|, |side2|, 1).


def harmonic_gap_sphere(rs, th, n: int):
    """Residual of ``(L - n^2) h^(-n/2) = 0`` on the sphere side, exact
    algebra (no finite differences); relative to ``n^2 h^(-n/2)``."""
    hj = h_fun_jet(rs, th)
    w = power_jet(hj, -0.5 * n)
    gap = sphere_generator(w, rs, n) - n**2 * w.f
    return np.abs(gap) / np.maximum(n**2 * w.f, 1.0)


def harmonic_gap_heis(r, t, n: int):
    """Residual of ``L N^(-n/2) = 0`` on the Heisenberg side, exact algebra;
    this one is absolute (the identity's right side is zero)."""
    w = power_jet(gauge_jet(r, t), -0.5 * n)
    return np.abs(heis_generator(w, r, n))


def _chart_pullback_generator(f: TestFunction, r, t, n: int, step: float):
    # (pushforward of the Heisenberg generator) applied to f, evaluated at
    # the chart image of (r, t): differentiate f o chart at (r, t).
    vals, jac, hess = map_jet(cayley1_chart, r, t, step=step, circular=(False, True))
    jet_pre = pullback_jet(f.jet(*vals), jac, hess)
    return heis_generator(jet_pre, r, n), vals


def _rel(gap, a, b):
    return np.abs(gap) / np.maximum(np.maximum(np.abs(a), np.abs(b)), 1.0)


def residual_conj_cayley(f: TestFunction, q, n: int, step: float = 1e-4):
    """Residual of the ground-state conjugation identity at sphere points.

    ``h^(n/2+1) * (-L + n^2)(h^(-n/2) f)`` at ``q`` must equal minus the
    Heisenberg generator applied to ``f o chart`` at the chart preimage of
    ``q``; returns ``|LHS + RHS|`` normalized by the larger side.
    """
    rs, th = q
    rs = np.asarray(rs, dtype=float)
    th = np.asarray(th, dtype=float)
    hj = h_fun_jet(rs, th)
    w = product_jet(power_jet(hj, -0.5 * n), f.jet(rs, th))
    lhs = hj.f ** (0.5 * n + 1.0) * (n**2 * w.f - sphere_generator(w, rs, n))
    r, t = cayley1_chart_inv(rs, th)
    rhs, _ = _chart_pullback_generator(f, r, t, n, step)
    return _rel(lhs + rhs, lhs, rhs)


def _doob_rhs(f: TestFunction, rs, th, n: int):
    # h * (L f + 2 Gamma(h^(-n/2), f) / h^(-n/2)), all jets exact
    hj = h_fun_jet(rs, th)
    fj = f.jet(rs, th)
    w = power_jet(hj, -0.5 * n)
    lf = sphere_generator(fj, rs, n) + 2.0 * sphere_carre(w, fj, rs) / w.f
    return hj.f * lf


def residual_doob(f: TestFunction, q, n: int, step: float = 1e-4):
    """Residual of the drift form of the conjugated generator at sphere points.

    The pushforward of the Heisenberg generator must equal
    ``h * (L f + 2 Gamma(h^(-n/2), f)/h^(-n/2))``; the bracketed factor is
    the generator of the conditioned sphere diffusion before time change.
    """
    rs, th = q
    rs = np.asarray(rs, dtype=float)
    th = np.asarray(th, dtype=float)
    rhs = _doob_rhs(f, rs, th, n)
    r, t = cayley1_chart_inv(rs, th)
    pushed, _ = _chart_pullback_generator(f, r, t, n, step)
    return _rel(pushed - rhs, pushed, rhs)


def residual_doob_forms_gap(f: TestFunction, q, n: int):
    """Absolute gap between the two algebraic forms of the conditioned
    generator: ``L f + 2 Gamma(h^(-n/2), f)/h^(-n/2)`` versus
    ``L f - n Gamma(h, f)/h``.  Exact jets on both sides."""
    rs, th = q
    rs = np.asarray(rs, dtype=float)
    th = np.asarray(th, dtype=float)
    hj = h_fun_jet(rs, th)
    fj = f.jet(rs, th)
    lf = sphere_generator(fj, rs, n)
    w = power_jet(hj, -0.5 * n)
    form1 = lf + 2.0 * sphere_carre(w, fj, rs) / w.f
    form2 = lf - n * sphere_carre(hj, fj, rs) / hj.f
    return np.abs(form1 - form2)


def residual_kelvin(F: TestFunction, p, n: int, step: float = 1e-4):
    """Residual of the gauge-inversion operator identity at group points.

    ``L(F o K)`` at ``K(p)`` must equal ``N(p)^(n/2+1) * L(N^(-n/2) F)(p)``.
    """
    r, t = p
    r = np.asarray(r, dtype=float)
    t = np.asarray(t, dtype=float)
    q = kelvin_radial(r, t)
    vals, jac, hess = map_jet(kelvin_radial, q[0], q[1], step=step, circular=(False, False))
    jet_pre = pullback_jet(F.jet(*vals), jac, hess)
    lhs = heis_generator(jet_pre, q[0], n)
    Nj = gauge_jet(r, t)
    w = product_jet(power_jet(Nj, -0.5 * n), F.jet(r, t))
    rhs = Nj.f ** (0.5 * n + 1.0) * heis_generator(w, r, n)
    return _rel(lhs - rhs, lhs, rhs)


# ---------------------------------------------------------------------------
# test-function baskets (exact partials, even in the radial variable)


def sphere_basket() -> list[TestFunction]:
    """Smooth test functions of ``(rs, th)`` with exact jets."""

    def s2cos(u, v):
        s2, s2u = np.sin(u) ** 2, np.sin(2 * u)
        c, s = np.cos(v), np.sin(v)
        return Jet2(s2 * c, s2u * c, -s2 * s, 2 * np.cos(2 * u) * c, -s2u * s, -s2 * c)

    def s2sin(u, v):
        s2, s2u = np.sin(u) ** 2, np.sin(2 * u)
        c, s = np.cos(v), np.sin(v)
        return Jet2(s2 * s, s2u * s, s2 * c, 2 * np.cos(2 * u) * s, s2u * c, -s2 * s)

    def c2(u, v):
        z = np.zeros(np.broadcast(u, v).shape)
        return Jet2(np.cos(u) ** 2 + z, -np.sin(2 * u) + z, z, -2 * np.cos(2 * u) + z, z, z)

    def mix(u, v):
        # cos(u) sin(u)^2 sin(v): ambient-polynomial, exercises every slot
        a = np.cos(u) * np.sin(u) ** 2
        a1 = np.sin(u) * (3 * np.cos(u) ** 2 - 1)
        a2 = 9 * np.cos(u) ** 3 - 7 * np.cos(u)
        c, s = np.cos(v), np.sin(v)
        return Jet2(a * s, a1 * s, a * c, a2 * s, a1 * c, -a * s)

    def rgauss(u, v):
        e = np.exp(-np.sin(u) ** 2)
        z = np.zeros(np.broadcast(u, v).shape)
        fu = -np.sin(2 * u) * e
        fuu = (np.sin(2 * u) ** 2 - 2 * np.cos(2 * u)) * e
        return Jet2(e + z, fu + z, z, fuu + z, z, z)

    def c2cos2(u, v):
        a = np.cos(u) ** 2
        a1 = -np.sin(2 * u)
        a2 = -2 * np.cos(2 * u)
        c, s = np.cos(2 * v), np.sin(2 * v)
        return Jet2(a * c, a1 * c, -2 * a * s, a2 * c, -2 * a1 * s, -4 * a * c)

    return [
        TestFunction("s2cos", s2cos),
        TestFunction("s2sin", s2sin),
        TestFunction("c2", c2),
        TestFunction("mix", mix),
        TestFunction("rgauss", rgauss),
        TestFunction("c2cos2", c2cos2),
    ]


def heis_basket() -> list[TestFunction]:
    """Smooth test functions of ``(r, t)`` with exact jets."""

    def r2(u, v):
        z = np.zeros(np.broadcast(u, v).shape)
        return Jet2(u**2 + z, 2 * u + z, z, 2.0 + z, z, z)

    def t2(u, v):
        z = np.zeros(np.broadcast(u, v).shape)
        return Jet2(v**2 + z, z, 2 * v + z, z, z, 2.0 + z)

    def r2t(u, v):
        z = np.zeros(np.broadcast(u, v).shape)
        return Jet2(u**2 * v, 2 * u * v, u**2 + z, 2 * v + z, 2 * u + z, z)

    def gauss(u, v):
        e = np.exp(-(u**2) - v**2)
        return Jet2(
            e, -2 * u * e, -2 * v * e,
            (4 * u**2 - 2) * e, 4 * u * v * e, (4 * v**2 - 2) * e,
        )

    def mixquad(u, v):
        z = np.zeros(np.broadcast(u, v).shape)
        return Jet2(u**2 * v**2, 2 * u * v**2, 2 * u**2 * v, 2 * v**2 + z, 4 * u * v, 2 * u**2 + z)

    def invq(u, v):
        # (1 + N)^(-1/2): decays at infinity, safe for weighted means
        gj = gauge_jet(u, v)
        return power_jet(gj._replace(f=1.0 + gj.f), -0.5)

    return [
        TestFunction("r2", r2),
        TestFunction("t2", t2),
        TestFunction("r2t", r2t),
        TestFunction("gauss", gauss),
        TestFunction("mixquad", mixquad),
        TestFunction("invq", invq),
    ]
