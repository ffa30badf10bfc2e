"""Finite-difference jets and chart pullbacks.

Central differences with one Richardson extrapolation pass (leading error
O(step^4)); on smooth inputs ``DEFAULT_STEP`` gives ~1e-8 absolute accuracy,
degrading near coordinate singularities.  Angle-valued outputs are unwrapped
about the center value before differencing so maps with a 2*pi seam
differentiate cleanly.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

import numpy as np

TWO_PI = 2.0 * np.pi

DEFAULT_STEP = 1e-4


class Jet2(NamedTuple):
    """Value and partials up to order two of a scalar function of (u, v)."""

    f: np.ndarray
    fu: np.ndarray
    fv: np.ndarray
    fuu: np.ndarray
    fuv: np.ndarray
    fvv: np.ndarray


def unwrap_angle(a, center):
    """Shift ``a`` by multiples of 2*pi into ``(center - pi, center + pi]``."""
    a = np.asarray(a, dtype=float)
    return center + np.mod(a - center + np.pi, TWO_PI) - np.pi


def _stencil(fun, u, v, s):
    # 3x3 grid of evaluations around (u, v) at spacing s
    return {
        (i, j): fun(u + i * s, v + j * s)
        for i in (-1, 0, 1)
        for j in (-1, 0, 1)
    }


def _jet_from_stencil(g, s):
    fu = (g[(1, 0)] - g[(-1, 0)]) / (2 * s)
    fv = (g[(0, 1)] - g[(0, -1)]) / (2 * s)
    fuu = (g[(1, 0)] - 2 * g[(0, 0)] + g[(-1, 0)]) / s**2
    fvv = (g[(0, 1)] - 2 * g[(0, 0)] + g[(0, -1)]) / s**2
    fuv = (g[(1, 1)] - g[(1, -1)] - g[(-1, 1)] + g[(-1, -1)]) / (4 * s**2)
    return g[(0, 0)], fu, fv, fuu, fuv, fvv


def scalar_jet(fun: Callable, u, v) -> Jet2:
    """Finite-difference :class:`Jet2` of a scalar map at ``(u, v)``.

    ``fun`` must broadcast over arrays.  Richardson-extrapolated central
    differences at ``DEFAULT_STEP``; the returned value entry is the exact
    ``fun(u, v)``.
    """
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    coarse = _jet_from_stencil(_stencil(fun, u, v, DEFAULT_STEP), DEFAULT_STEP)
    fine = _jet_from_stencil(_stencil(fun, u, v, DEFAULT_STEP / 2), DEFAULT_STEP / 2)
    out = [coarse[0]]
    out += [(4.0 * f - c) / 3.0 for c, f in zip(coarse[1:], fine[1:])]
    return Jet2(*out)


def map_jet(chart: Callable, u, v, circular=(False, False)):
    """Jet of a map ``(u, v) -> (p, q)``: values, Jacobian and Hessians.

    ``chart`` returns a pair of arrays.  ``circular[a]`` marks output ``a``
    as angle-valued: its stencil samples are unwrapped about the center
    value, so derivatives are correct across the 2*pi seam.

    Returns ``(vals, jac, hess)`` where ``vals`` is the pair of center
    values, ``jac[a][i]`` is d(out_a)/d(x_i) and ``hess[a][i][j]`` the
    second partials, each entry shaped like the broadcast inputs.
    """
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    center = chart(u, v)

    def component(a):
        def f(uu, vv):
            w = chart(uu, vv)[a]
            return unwrap_angle(w, center[a]) if circular[a] else w

        return scalar_jet(f, u, v)

    jets = [component(0), component(1)]
    vals = (jets[0].f, jets[1].f)
    jac = [[jets[a].fu, jets[a].fv] for a in (0, 1)]
    hess = [
        [[jets[a].fuu, jets[a].fuv], [jets[a].fuv, jets[a].fvv]]
        for a in (0, 1)
    ]
    return vals, jac, hess


def pullback_jet(img_jet: Jet2, jac, hess) -> Jet2:
    """Jet of ``f o chart`` given the jet of ``f`` at the image point and the
    chart's ``jac``/``hess`` from :func:`map_jet` (chain rule, order two)."""
    grad = (img_jet.fu, img_jet.fv)
    hmat = (
        (img_jet.fuu, img_jet.fuv),
        (img_jet.fuv, img_jet.fvv),
    )

    def d1(i):
        return sum(grad[a] * jac[a][i] for a in (0, 1))

    def d2(i, j):
        out = sum(
            hmat[a][b] * jac[a][i] * jac[b][j] for a in (0, 1) for b in (0, 1)
        )
        out = out + sum(grad[a] * hess[a][i][j] for a in (0, 1))
        return out

    return Jet2(img_jet.f, d1(0), d1(1), d2(0, 0), d2(0, 1), d2(1, 1))
