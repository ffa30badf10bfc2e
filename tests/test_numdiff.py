"""Finite-difference jets: stencil accuracy, circular unwrapping, pullback."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from heisenpaths.numdiff import Jet2, map_jet, pullback_jet, scalar_jet, unwrap_angle

TWO_PI = 2 * np.pi


def f_poly(u, v):
    return np.sin(u) * np.cos(2 * v) + u * u * v


def f_poly_jet(u, v):
    return Jet2(
        f=np.sin(u) * np.cos(2 * v) + u * u * v,
        fu=np.cos(u) * np.cos(2 * v) + 2 * u * v,
        fv=-2 * np.sin(u) * np.sin(2 * v) + u * u,
        fuu=-np.sin(u) * np.cos(2 * v) + 2 * v,
        fuv=-2 * np.cos(u) * np.sin(2 * v) + 2 * u,
        fvv=-4 * np.sin(u) * np.cos(2 * v),
    )


@given(st.floats(-2, 2), st.floats(-2, 2))
def test_scalar_jet_matches_analytic(u, v):
    got = scalar_jet(f_poly, u, v)
    want = f_poly_jet(u, v)
    assert got.f == want.f  # centre entry is exact, not differenced
    for name in ("fu", "fv"):
        assert getattr(got, name) == pytest.approx(getattr(want, name), abs=1e-9)
    # second differences carry an eps*|f|/h^2 roundoff floor: ~8e-7 at the
    # domain corner where |f| ~ 9 and the fine stencil uses h = 5e-5
    for name in ("fuu", "fuv", "fvv"):
        assert getattr(got, name) == pytest.approx(getattr(want, name), abs=2e-6)


@given(st.floats(-50, 50), st.floats(-50, 50))
def test_unwrap_angle(a, center):
    w = unwrap_angle(a, center)
    assert abs(w - center) <= np.pi + 1e-9
    assert (w - a) % TWO_PI == pytest.approx(0.0, abs=1e-9) or (w - a) % TWO_PI == pytest.approx(TWO_PI, abs=1e-9)


def test_map_jet_circular_output():
    # second output lives on the circle and crosses the cut at v = 0
    def chart(u, v):
        return (u + v * v, (v + 0.01) % TWO_PI)

    vals, jac, hess = map_jet(chart, 0.5, TWO_PI - 0.005, circular=(False, True))
    # d(second)/dv = 1 once unwrapped; the raw difference across the cut is huge
    assert jac[1][1] == pytest.approx(1.0, abs=1e-7)
    assert jac[0][1] == pytest.approx(2 * (TWO_PI - 0.005), rel=1e-7)


def test_pullback_identity_chart():
    def ident(u, v):
        return (u, v)

    u, v = 0.7, -0.3
    img = f_poly_jet(u, v)
    vals, jac, hess = map_jet(ident, u, v)
    pulled = pullback_jet(img, jac, hess)
    for name in ("f", "fu", "fv", "fuu", "fuv", "fvv"):
        assert getattr(pulled, name) == pytest.approx(getattr(img, name), abs=1e-7)


@given(st.floats(0.2, 1.2), st.floats(-1.0, 1.0))
def test_pullback_matches_composition(u, v):
    # pulling back through a chart equals differencing the composition
    def chart(a, b):
        return (a * a + b, np.sin(a) - b * b)

    x, y = chart(u, v)
    img = f_poly_jet(x, y)
    vals, jac, hess = map_jet(chart, u, v)
    pulled = pullback_jet(img, jac, hess)

    direct = scalar_jet(lambda a, b: f_poly(*chart(a, b)), u, v)
    for name in ("fu", "fv"):
        assert getattr(pulled, name) == pytest.approx(getattr(direct, name), abs=1e-6)
    for name in ("fuu", "fuv", "fvv"):
        assert getattr(pulled, name) == pytest.approx(getattr(direct, name), abs=1e-5)
