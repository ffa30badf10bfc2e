"""Exact maps: group law, gauge, charts, inversion, conformal factors."""

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from heisenpaths.geometry import (
    HPoint,
    SAmbient,
    H_fun,
    H_tilde,
    ambient_to_cyl,
    cayley1_chart,
    cayley1_chart_inv,
    cayley1_full,
    cayley2_inv,
    group_inv,
    group_mul,
    h_fun,
    h_tilde,
    kelvin,
    kelvin_radial,
    koranyi_N,
    measure_jacobian_residual,
    trig_via_tan,
)

finite = st.floats(-3.0, 3.0, allow_nan=False)
nonzero = st.floats(0.05, 3.0)


def hpoints(n=1, avoid_origin=False):
    def build(res, ims, t):
        z = np.array([complex(a, b) for a, b in zip(res, ims)])
        return HPoint(z=z, t=t)

    pts = st.builds(
        build,
        st.lists(finite, min_size=n, max_size=n),
        st.lists(finite, min_size=n, max_size=n),
        finite,
    )
    if avoid_origin:
        pts = pts.filter(lambda p: koranyi_N(np.linalg.norm(p.z), p.t) > 1e-4)
    return pts


# ---------------------------------------------------------------------------
# group structure


def test_group_mul_twist():
    p = HPoint(z=np.array([1.0 + 0j]), t=0.0)
    q = HPoint(z=np.array([1j]), t=0.0)
    pq = group_mul(p, q)
    # twist term Im(z . conj(z')) = Im(1 * (-i)) = -1
    assert pq.t == -1.0
    assert np.allclose(pq.z, [1.0 + 1j])


@given(hpoints(), hpoints(), hpoints())
def test_group_associative(p, q, r):
    a = group_mul(group_mul(p, q), r)
    b = group_mul(p, group_mul(q, r))
    assert np.allclose(a.z, b.z, atol=1e-12) and abs(a.t - b.t) < 1e-12


@given(hpoints(n=2))
def test_group_inverse(p):
    e = group_mul(p, group_inv(p))
    assert np.allclose(e.z, 0, atol=1e-12) and abs(e.t) < 1e-12


@given(nonzero, finite, st.floats(0.1, 2.0))
def test_koranyi_homogeneous(r, t, lam):
    # N(lam z, lam^2 t) = lam^4 N(z, t): the gauge is 1-homogeneous for the
    # parabolic dilations
    assert koranyi_N(lam * r, lam**2 * t) == pytest.approx(
        lam**4 * koranyi_N(r, t), rel=1e-12
    )


# ---------------------------------------------------------------------------
# charts


def test_chart_frozen_point():
    rs, th = cayley1_chart(1.0, 1.0)
    assert rs == pytest.approx(np.pi / 4, abs=1e-14)
    assert th == pytest.approx(3 * np.pi / 4, abs=1e-14)
    assert h_fun(rs, th) == pytest.approx(0.5, abs=1e-14)
    assert h_tilde(rs, th) == pytest.approx(2.5, abs=1e-14)


@given(nonzero, finite)
def test_chart_roundtrip(r, t):
    rs, th = cayley1_chart(r, t)
    r2, t2 = cayley1_chart_inv(rs, th)
    assert r2 == pytest.approx(r, rel=1e-10, abs=1e-10)
    assert t2 == pytest.approx(t, rel=1e-10, abs=1e-10)


@given(st.floats(0.05, 1.4), st.floats(0.05, 2 * np.pi - 0.05))
def test_chart_roundtrip_backward(rs, th):
    r, t = cayley1_chart_inv(rs, th)
    rs2, th2 = cayley1_chart(r, t)
    assert rs2 == pytest.approx(rs, rel=1e-10, abs=1e-10)
    assert th2 == pytest.approx(th, rel=1e-10, abs=1e-10)


@given(hpoints())
@example(HPoint(z=np.array([0.99999j]), t=0.0))  # r_s near pi/2, where an arcsin form loses digits
def test_chart_matches_ambient(p):
    zeta = cayley1_full(p)
    rs, th = cayley1_chart(np.linalg.norm(p.z), p.t)
    # |zeta'| = sin(r_s) avoids the arccos conditioning blowup at the axis
    assert np.linalg.norm(zeta.zeta[:-1]) == pytest.approx(np.sin(rs), abs=1e-12)
    assert abs(zeta.zeta[-1]) == pytest.approx(np.cos(rs), abs=1e-12)
    if rs > 1e-6:  # angle of the last coordinate degenerates on the axis
        th_amb = float(np.angle(zeta.zeta[-1])) % (2 * np.pi)
        assert np.cos(th_amb - th) == pytest.approx(1.0, abs=1e-10)


@pytest.mark.parametrize("r, t", [(1e-8, 0.0), (1e-3, 0.5), (1e5, 0.0), (0.99999, 0.0)])
def test_ambient_radius_matches_the_chart_near_the_axis_and_the_equator(r, t):
    # arccos(|w_last|) loses digits where r_s nears 0, arcsin where it nears pi/2
    rs_amb, _ = ambient_to_cyl(cayley1_full(HPoint(z=np.array([complex(r)]), t=t)).zeta)
    rs, _ = cayley1_chart(r, t)
    assert rs_amb == pytest.approx(rs, rel=1e-12)


def test_chart_inv_pole_error():
    with pytest.raises(ValueError):
        cayley1_chart_inv(0.0, np.pi)


@given(hpoints())
def test_factor_pullback(p):
    # the group-side factor is the sphere-side factor seen through the chart
    rs, th = cayley1_chart(np.linalg.norm(p.z), p.t)
    assert H_fun(np.linalg.norm(p.z), p.t) == pytest.approx(
        h_fun(rs, th), rel=1e-12, abs=1e-12
    )
    assert H_tilde(np.linalg.norm(p.z), p.t) == pytest.approx(
        h_tilde(rs, th), rel=1e-12, abs=4e-12
    )


@given(st.floats(0.05, 1.4), st.floats(0.05, 2 * np.pi - 0.05))
def test_gauge_transport(rs, th):
    # N at the chart preimage equals the factor quotient on the sphere side
    if h_fun(rs, th) < 1e-6:
        return
    r, t = cayley1_chart_inv(rs, th)
    assert koranyi_N(r, t) == pytest.approx(
        h_tilde(rs, th) / h_fun(rs, th), rel=1e-11
    )


# ---------------------------------------------------------------------------
# inversion


def test_kelvin_frozen():
    p = HPoint(z=np.array([1.0 + 0j]), t=0.0)
    k = kelvin(p)
    assert np.allclose(k.z, [1.0 + 0j]) and k.t == 0.0  # unit sphere is fixed
    assert kelvin_radial(1.0, 0.0) == (1.0, 0.0)


@given(hpoints(avoid_origin=True))
def test_kelvin_involution(p):
    back = kelvin(kelvin(p))
    assert np.allclose(back.z, p.z, rtol=1e-12, atol=1e-12)
    assert back.t == pytest.approx(p.t, rel=1e-12, abs=1e-12)


def test_unconjugated_kelvin_is_not_an_involution():
    # the conjugation in kelvin is what makes it an involution: without it
    # the square turns z by the phase of (|z|^2 + 2it) / (|z|^2 - 2it)
    def unconjugated(p):
        r2 = float(np.sum(np.abs(p.z) ** 2))
        return HPoint(p.z / (r2 - 2j * p.t), p.t / (r2**2 + 4.0 * p.t**2))

    for p in (HPoint(z=np.array([1.0 + 1.0j]), t=0.3), HPoint(z=np.array([2.0 + 0j]), t=0.4)):
        assert np.abs(kelvin(kelvin(p)).z - p.z).max() <= 1e-12
        assert np.abs(unconjugated(unconjugated(p)).z - p.z).max() > 0.5


@given(hpoints(n=2, avoid_origin=True))
def test_kelvin_factorization(p):
    via_charts = cayley2_inv(cayley1_full(p))
    direct = kelvin(p)
    assert np.allclose(via_charts.z, direct.z, rtol=1e-12, atol=1e-12)
    assert via_charts.t == pytest.approx(direct.t, rel=1e-12, abs=1e-12)


def cayley2_full(p: HPoint) -> SAmbient:
    """Second chart map, centered so the origin goes to ``-e_n``:
    ``zeta_j = 2 conj(z_j) / d2`` and ``zeta_last = -(1 - |z|^2 - 2it) / d2``
    with ``d2 = (1 + |z|^2) + 2it``; the image never reaches ``+e_n``."""
    r2 = float(np.sum(np.abs(p.z) ** 2))
    d2 = (1.0 + r2) + 2j * p.t
    return SAmbient(np.concatenate([2.0 * np.conj(p.z) / d2, [-((1.0 - r2) - 2j * p.t) / d2]]))


@given(hpoints(avoid_origin=True))
def test_second_chart_roundtrip(p):
    back = cayley2_inv(cayley2_full(p))
    assert np.allclose(back.z, p.z, rtol=1e-12, atol=1e-12)
    assert back.t == pytest.approx(p.t, rel=1e-12, abs=1e-12)


@given(nonzero, finite)
def test_kelvin_radial_gauge(r, t):
    # |K p| in the gauge is 1/|p|: N(K p) = 1/N(p)
    ri, ti = kelvin_radial(r, t)
    assert koranyi_N(ri, ti) == pytest.approx(1.0 / koranyi_N(r, t), rel=1e-12)


# ---------------------------------------------------------------------------
# measure and types


@pytest.mark.parametrize("n", [1, 2])
def test_measure_jacobian(n):
    worst = max(
        abs(measure_jacobian_residual(r, t, n))
        for r in np.linspace(0.3, 2.5, 7)
        for t in np.linspace(-2.0, 2.0, 7)
    )
    assert worst < 1e-6


# ---------------------------------------------------------------------------
# cosines and sines from one tangent


def ulps(got, want):
    return float(np.max(np.abs(got - want) / np.spacing(np.abs(want))))


def test_trig_via_tan_within_3_ulp_on_the_radius():
    rs = np.linspace(0.0, np.pi / 2 - 1e-6, 1_000_001)
    c, s, t, _ = trig_via_tan(rs)
    assert ulps(c, np.cos(rs)) <= 3.0
    assert ulps(s[1:], np.sin(rs[1:])) <= 3.0 and s[0] == 0.0
    assert np.array_equal(t.view(np.int64), np.tan(rs).view(np.int64))


def test_trig_via_tan_within_3_ulp_on_the_angle():
    th = np.linspace(0.0, 2 * np.pi, 1_000_001)[:-1]
    c, s, t, _ = trig_via_tan(th, angle=True)
    assert ulps(c, np.cos(th)) <= 3.0
    assert ulps(s[1:], np.sin(th[1:])) <= 3.0 and s[0] == 0.0
    assert np.array_equal(t.view(np.int64), np.tan(th).view(np.int64))


def test_trig_via_tan_signs_at_the_quadrant_boundaries():
    edges = []
    for p in (0.0, np.pi / 2, np.pi, 3 * np.pi / 2, 2 * np.pi):
        edges += [np.nextafter(p, -np.inf), p, np.nextafter(p, np.inf)]
    th = np.array([x for x in edges if 0.0 <= x < 2 * np.pi])
    assert len(th) == 12
    c, s, _, _ = trig_via_tan(th, angle=True)
    assert np.array_equal(np.sign(c), np.sign(np.cos(th)))
    assert np.array_equal(np.sign(s), np.sign(np.sin(th)))
    rs = np.array([0.0, np.nextafter(0.0, 1.0), np.nextafter(np.pi / 2, 0.0)])
    c, s, _, _ = trig_via_tan(rs)
    assert np.array_equal(np.sign(c), np.sign(np.cos(rs)))
    assert np.array_equal(np.sign(s), np.sign(np.sin(rs)))


@pytest.mark.parametrize("angle", [False, True])
def test_trig_via_tan_nan_in_nan_out(angle):
    out = trig_via_tan(np.array([np.nan, 0.5]), angle=angle)
    assert all(np.isnan(v[0]) and np.isfinite(v[1]) for v in out)
    assert all(np.isnan(v) for v in trig_via_tan(np.nan, angle=angle))


def test_ambient_unit_check():
    with pytest.raises(ValueError):
        SAmbient(zeta=np.array([0.5 + 0j, 0.0 + 0j]))


def test_all_records_pass(geometry_records):
    bad = [r.name for r in geometry_records.values() if not r.passed]
    assert bad == []
