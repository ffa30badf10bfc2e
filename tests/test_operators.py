"""Radial generators, harmonic weights, conjugation residuals, drifts."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from heisenpaths.numdiff import scalar_jet
from heisenpaths.operators import TestFunction as Fn
from heisenpaths.operators import (
    apply_LH,
    apply_LS,
    drift_Nproc,
    drift_hproc,
    exp_jet,
    gamma_H,
    gamma_S,
    gauge_jet,
    h_fun_jet,
    harmonic_gap_heis,
    harmonic_gap_sphere,
    heis_basket,
    log_jet,
    power_jet,
    residual_conj_cayley,
    residual_doob,
    residual_doob_forms_gap,
    residual_kelvin,
    sphere_basket,
)

sphere_pts = st.tuples(st.floats(0.1, 1.4), st.floats(0.2, 2 * np.pi - 0.2))
heis_pts = st.tuples(st.floats(0.3, 3.0), st.floats(-3.0, 3.0))
ns = st.integers(1, 3)


# ---------------------------------------------------------------------------
# analytic jets vs finite differences


@pytest.mark.parametrize("f", sphere_basket(), ids=lambda f: f.name)
def test_sphere_basket_jets(f):
    for u, v in [(0.4, 0.8), (1.1, 3.0), (0.7, 5.5)]:
        got, want = f.jet(u, v), scalar_jet(lambda a, b: f.eval(a, b), u, v)
        assert got.f == pytest.approx(want.f, abs=1e-12)
        assert got.fu == pytest.approx(want.fu, abs=1e-8)
        assert got.fvv == pytest.approx(want.fvv, abs=1e-6)


@pytest.mark.parametrize("f", heis_basket(), ids=lambda f: f.name)
def test_heis_basket_jets(f):
    for u, v in [(0.5, 0.2), (1.5, -1.0), (2.5, 2.0)]:
        got, want = f.jet(u, v), scalar_jet(lambda a, b: f.eval(a, b), u, v)
        assert got.f == pytest.approx(want.f, abs=1e-12)
        assert got.fv == pytest.approx(want.fv, abs=1e-8)
        assert got.fuu == pytest.approx(want.fuu, abs=1e-6)


def test_h_jet_exact():
    u, v = 0.6, 2.1
    got, want = h_fun_jet(u, v), scalar_jet(
        lambda a, b: 1 + 2 * np.cos(a) * np.cos(b) + np.cos(a) ** 2, u, v
    )
    for name in ("f", "fu", "fv", "fuu", "fuv", "fvv"):
        assert getattr(got, name) == pytest.approx(getattr(want, name), abs=1e-6)


def test_jet_algebra_matches_fd():
    u, v = 0.8, 1.3
    direct = scalar_jet(
        lambda a, b: np.exp(
            -0.5 * np.log(1 + 2 * np.cos(a) * np.cos(b) + np.cos(a) ** 2)
        ),
        u,
        v,
    )
    built = exp_jet(log_jet(h_fun_jet(u, v)), -0.5)
    alt = power_jet(h_fun_jet(u, v), -0.5)
    for name in ("f", "fu", "fv", "fuu", "fuv", "fvv"):
        assert getattr(built, name) == pytest.approx(getattr(direct, name), abs=1e-6)
        assert getattr(built, name) == pytest.approx(getattr(alt, name), rel=1e-12)


# ---------------------------------------------------------------------------
# generators


def test_apply_LH_quadratic():
    # L_H r^2 = 2 + 2(2n-1) = 4n, independent of the point
    r2 = [f for f in heis_basket() if f.name == "r2"][0]
    assert apply_LH(r2, (1.0, 0.3), 1) == pytest.approx(4.0, abs=1e-12)
    assert apply_LH(r2, (0.4, -1.0), 2) == pytest.approx(8.0, abs=1e-12)


def test_generator_axis_limit():
    # on the axis the radial generator degenerates to 2n * f_uu
    s2 = [f for f in sphere_basket() if f.name == "s2cos"][0]
    near = apply_LS(s2, (1e-13, 0.3), 2)
    exact = 2 * 2 * s2.jet(0.0, 0.3).fuu
    assert near == pytest.approx(exact, rel=1e-6)


@given(sphere_pts, ns)
def test_gamma_bracket_sphere(q, n):
    f, g = sphere_basket()[0], sphere_basket()[3]
    fg = Fn("fg", lambda u, v: _prod(f.jet(u, v), g.jet(u, v)))
    bracket = 0.5 * (
        apply_LS(fg, q, n) - f.eval(*q) * apply_LS(g, q, n) - g.eval(*q) * apply_LS(f, q, n)
    )
    assert bracket == pytest.approx(gamma_S(f, g, q), abs=1e-8)


@given(heis_pts, ns)
def test_gamma_bracket_heis(p, n):
    f, g = heis_basket()[0], heis_basket()[2]
    fg = Fn("fg", lambda u, v: _prod(f.jet(u, v), g.jet(u, v)))
    bracket = 0.5 * (
        apply_LH(fg, p, n) - f.eval(*p) * apply_LH(g, p, n) - g.eval(*p) * apply_LH(f, p, n)
    )
    assert bracket == pytest.approx(gamma_H(f, g, p), abs=1e-8)


def _prod(a, b):
    from heisenpaths.operators import product_jet

    return product_jet(a, b)


# ---------------------------------------------------------------------------
# harmonic weights


@given(sphere_pts, ns)
def test_weight_harmonic_sphere(q, n):
    from heisenpaths.geometry import h_fun

    if h_fun(*q) < 0.05:
        return  # pole band: the weight blows up, checked elsewhere
    assert harmonic_gap_sphere(*q, n) < 1e-6


@given(heis_pts, ns)
def test_weight_harmonic_heis(p, n):
    from heisenpaths.geometry import koranyi_N

    if koranyi_N(*p) < 0.1:
        return
    assert harmonic_gap_heis(*p, n) < 1e-8


# ---------------------------------------------------------------------------
# conjugation residuals


GRID = [(rs, th) for rs in np.linspace(0.2, 1.3, 4) for th in (0.4, 2.0, 4.4)]
HGRID = [(r, t) for r in (0.5, 1.0, 2.0) for t in (-1.0, 0.2, 1.5)]


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("f", sphere_basket(), ids=lambda f: f.name)
def test_residual_conj_cayley(f, n):
    from heisenpaths.geometry import h_fun

    worst = max(
        residual_conj_cayley(f, q, n) for q in GRID if h_fun(*q) > 0.05
    )
    assert worst < 1e-5


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("f", sphere_basket(), ids=lambda f: f.name)
def test_residual_doob(f, n):
    from heisenpaths.geometry import h_fun

    worst = max(residual_doob(f, q, n) for q in GRID if h_fun(*q) > 0.05)
    assert worst < 1e-5


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("f", heis_basket(), ids=lambda f: f.name)
def test_residual_kelvin(f, n):
    worst = max(residual_kelvin(f, p, n) for p in HGRID)
    assert worst < 1e-5


@given(sphere_pts, st.integers(1, 2))
def test_doob_forms_agree(q, n):
    from heisenpaths.geometry import h_fun

    f = sphere_basket()[1]
    if h_fun(*q) < 0.05:
        return
    assert residual_doob_forms_gap(f, q, n) < 1e-8


# ---------------------------------------------------------------------------
# drifts


def test_drift_frozen():
    br, bth = drift_hproc((np.pi / 4, 3 * np.pi / 4), 1)
    assert br == pytest.approx(0.0, abs=1e-12)
    assert bth == pytest.approx(1.0, abs=1e-12)
    br, bt = drift_Nproc((1.0, 0.0), 1)
    assert br == pytest.approx(-1.5, abs=1e-12)
    assert bt == pytest.approx(0.0, abs=1e-12)


def test_drift_symmetry_lines():
    from heisenpaths.operators import sphere_radial_drift

    # free radial drift vanishes at pi/4 for n=1: (cot - tan)(pi/4) = 0
    assert 0.5 * sphere_radial_drift(np.pi / 4, 1) == pytest.approx(0.0, abs=1e-14)
    # conditioned angle drift vanishes where the factor is even in theta
    for th in (0.0, np.pi):
        assert drift_hproc((0.6, th), 1)[1] == pytest.approx(0.0, abs=1e-12)
    # conditioned vertical drift vanishes on the t = 0 line
    assert drift_Nproc((0.8, 0.0), 2)[1] == 0.0


def test_drift_hproc_takes_any_angle():
    # the quadrant signs of the angle's cosine hold outside [0, 2*pi) too
    th = np.array([0.3, 2.0, 3.5, 5.0])
    want = drift_hproc((0.6, th), 1)
    for shift in (-2 * np.pi, 2 * np.pi):
        got = drift_hproc((0.6, th + shift), 1)
        assert np.allclose(got, want, rtol=0, atol=1e-12)


@given(sphere_pts, st.integers(1, 2))
def test_drift_hproc_is_log_gradient(q, n):
    # conditioned drift = base drift + carre-du-champ with log weight
    from heisenpaths.geometry import h_fun
    from heisenpaths.operators import sphere_radial_drift

    if h_fun(*q) < 0.05:
        return
    u, v = q
    lw = log_jet(power_jet(h_fun_jet(u, v), -0.5 * n))
    br, bth = drift_hproc(q, n)
    assert br == pytest.approx(0.5 * sphere_radial_drift(u, n) + lw.fu, abs=1e-10)
    assert bth == pytest.approx(np.tan(u) ** 2 * lw.fv, abs=1e-10)


@given(heis_pts, st.integers(1, 2))
def test_drift_Nproc_formula(p, n):
    from heisenpaths.geometry import koranyi_N

    r, t = p
    if koranyi_N(r, t) < 0.1:
        return
    br, bt = drift_Nproc(p, n)
    N = koranyi_N(r, t)
    assert br == pytest.approx((2 * n - 1) / (2 * r) - 2 * n * r**3 / N, rel=1e-12)
    assert bt == pytest.approx(-4 * n * r**2 * t / N, rel=1e-12, abs=1e-12)


def test_operator_suite_green(operator_records):
    records, meta = operator_records
    bad = [r.name for r in records.values() if not r.passed]
    assert bad == []
    assert meta["skipped_cells"] > 0  # pole band cells are skipped, not failed
