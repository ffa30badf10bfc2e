"""Deterministic verification suites: exact identities, frozen values, and
finite-difference cross-checks, each reduced to a named pass/fail record.

Grids deliberately exclude the singular loci (the chart's omitted pole,
where the conformal factor vanishes, and the gauge origin); the operator
suite counts and reports the grid cells it skips for that reason rather
than silently shrinking its domain.
"""

from __future__ import annotations

import numpy as np

from . import analysis, geometry, operators
from .analysis import CheckRecord
from .numdiff import scalar_jet, unwrap_angle
from .rng import PURPOSE_AUX, stream

__all__ = ["CheckRecord", "verify_geometry", "verify_operators"]

# pole-band cut: sphere grid cells with the conformal factor below this are
# skipped by the residual suites (the identities hold but lose digits there)
H_MIN = 0.05


def _le(name, value, tol) -> CheckRecord:
    return CheckRecord(name, float(value), float(tol), "le")


# ---------------------------------------------------------------------------
# geometry suite


def _random_group_points(seed: int, count: int, n: int):
    rng = stream(seed, PURPOSE_AUX, 7 + n)
    z = rng.standard_normal((count, n)) + 1j * rng.standard_normal((count, n))
    t = rng.standard_normal(count)
    keep = (np.sum(np.abs(z) ** 2, axis=1) ** 2 + 4 * t**2) > 1e-4
    return z[keep], t[keep]


def _sphere_grid(h_min: float = 1e-3):
    rs, th = np.meshgrid(
        np.linspace(0.05, 1.45, 15), np.linspace(0.05, 2 * np.pi - 0.05, 21)
    )
    keep = geometry.h_fun(rs, th) > h_min
    return rs[keep], th[keep]


def verify_geometry(seed: int = 1) -> list[CheckRecord]:
    """Exact-identity and frozen-value checks for the maps in
    :mod:`heisenpaths.geometry`."""
    records: list[CheckRecord] = []

    # involution and factorization of the gauge inversion, random full points
    worst_inv, worst_fac = 0.0, 0.0
    for n in (1, 2):
        z, t = _random_group_points(seed, 5000, n)
        for zi, ti in zip(z, t):
            scale = max(1.0, float(np.max(np.abs(zi))), abs(ti))
            kz, kt = geometry.kelvin((zi, ti))
            bz, bt = geometry.kelvin((kz, kt))
            err = max(float(np.max(np.abs(bz - zi))), abs(bt - ti))
            worst_inv = max(worst_inv, err / scale)
            vz, vt = geometry.cayley2_inv(geometry.cayley1_full((zi, ti)))
            err = max(float(np.max(np.abs(vz - kz))), abs(vt - kt))
            worst_fac = max(worst_fac, err / max(1.0, float(np.max(np.abs(kz))), abs(kt)))
    records.append(_le("kelvin_involution", worst_inv, 1e-12))
    records.append(_le("kelvin_factorization", worst_fac, 1e-12))

    # radial chart roundtrips, both directions
    r, t = np.meshgrid(np.linspace(0.02, 3.0, 40), np.linspace(-3.0, 3.0, 41))
    rs, th = geometry.cayley1_chart(r, t)
    rb, tb = geometry.cayley1_chart_inv(rs, th)
    fwd = np.max(np.hypot(rb - r, tb - t) / np.maximum(1.0, np.hypot(r, t)))
    qs, qt = _sphere_grid()
    rr, tt = geometry.cayley1_chart_inv(qs, qt)
    qs2, qt2 = geometry.cayley1_chart(rr, tt)
    bwd = np.max(np.hypot(qs2 - qs, np.abs(unwrap_angle(qt2, qt) - qt)))
    records.append(_le("chart_roundtrip_fwd", fwd, 1e-10))
    records.append(_le("chart_roundtrip_bwd", bwd, 1e-10))

    # the chart angle is the phase of the last ambient coordinate
    worst = 0.0
    for ri, ti in zip(r.ravel()[::37], t.ravel()[::37]):
        rs1, th1 = geometry.ambient_to_cyl(geometry.cayley1_full((np.array([complex(ri)]), ti)))
        rs0, th0 = geometry.cayley1_chart(ri, ti)
        worst = max(worst, abs(float(rs1) - float(rs0)),
                    abs(float(unwrap_angle(th1, th0)) - float(th0)))
    records.append(_le("chart_matches_ambient", worst, 1e-12))

    # conformal factors pull back through the chart; the gauge transports to
    # the factor ratio
    hs = geometry.h_fun(rs, th)
    records.append(
        _le("factor_pullback", np.max(np.abs(geometry.H_fun(r, t) - hs) / hs), 1e-12)
    )
    hts = geometry.h_tilde(rs, th)
    records.append(
        _le(
            "factor_pullback_tilde",
            np.max(np.abs(geometry.H_tilde(r, t) - hts) / np.maximum(hts, 1.0)),
            1e-12,
        )
    )
    ratio = geometry.h_tilde(qs, qt) / geometry.h_fun(qs, qt)
    records.append(
        _le(
            "gauge_transport",
            np.max(np.abs(geometry.koranyi_N(rr, tt) - ratio) / np.maximum(ratio, 1.0)),
            1e-12,
        )
    )

    # gauge inversion sends N to 1/N
    Ninv = geometry.koranyi_N(*geometry.kelvin_radial(r, t))
    records.append(
        _le("kelvin_radial_gauge", np.max(np.abs(Ninv * geometry.koranyi_N(r, t) - 1.0)), 1e-12)
    )

    # chart volume identity (finite differences, hence the looser bound)
    rm, tm = np.meshgrid(np.linspace(0.2, 3.0, 24), np.linspace(-3.0, 3.0, 25))
    res = geometry.measure_jacobian_residual(rm, tm, 1)
    records.append(_le("measure_jacobian", np.max(np.abs(res)), 1e-6))

    # frozen values
    pz, pt = geometry.group_mul((np.array([1.0 + 0.0j]), 0.0), (np.array([1j]), 0.0))
    records.append(
        _le(
            "frozen_group_mul",
            max(abs(pz[0] - (1 + 1j)), abs(pt - (-1.0))),
            1e-15,
        )
    )
    amb = geometry.cayley1_full((np.array([1.0 + 0.0j]), 1.0))
    records.append(
        _le(
            "frozen_cayley1_full",
            float(np.max(np.abs(amb - np.array([(1 + 1j) / 2, (-1 + 1j) / 2])))),
            1e-15,
        )
    )
    rs1, th1 = geometry.cayley1_chart(1.0, 1.0)
    rs2, th2 = geometry.cayley1_chart(0.0, 0.5)
    records.append(
        _le(
            "frozen_cayley1_chart",
            max(
                abs(float(rs1) - np.pi / 4),
                abs(float(th1) - 3 * np.pi / 4),
                abs(float(rs2) - 0.0),
                abs(float(th2) - np.pi / 2),
            ),
            1e-12,
        )
    )
    kz, kt = geometry.kelvin((np.array([2.0 + 0.0j]), 0.0))
    records.append(
        _le("frozen_kelvin", max(abs(kz[0] - 0.5), abs(kt)), 1e-15)
    )
    records.append(
        _le(
            "frozen_factors",
            max(
                abs(float(geometry.h_fun(np.pi / 4, 3 * np.pi / 4)) - 0.5),
                abs(float(geometry.h_tilde(np.pi / 4, 3 * np.pi / 4)) - 2.5),
            ),
            1e-12,
        )
    )

    # the two Green kernels differ by conformal factors and the constant 2^n
    rng = stream(seed, PURPOSE_AUX, 3)
    for n in (1, 2):
        qs_r = np.arccos(rng.uniform(0.05, 0.995, 100))
        qs_t = rng.uniform(0.3, 2 * np.pi - 0.3, 100)
        ratio = analysis.green_relation_ratio((qs_r, qs_t), n)
        records.append(
            _le(f"green_ratio_spread_n{n}", float(np.std(ratio) / np.mean(ratio)), 1e-10)
        )
        records.append(
            _le(f"green_ratio_value_n{n}", float(abs(np.mean(ratio) / 2**n - 1.0)), 1e-10)
        )
    return records


# ---------------------------------------------------------------------------
# operator suite


def _jet_fd_gap(f: operators.TestFunction, u, v) -> float:
    exact = f.jet(u, v)
    fd = scalar_jet(lambda a, b: f.jet(a, b).f, u, v)
    worst = 0.0
    for e, d in zip(exact, fd):
        worst = max(worst, float(np.max(np.abs(np.asarray(e) - d) / np.maximum(1.0, np.abs(e)))))
    return worst


def verify_operators(seed: int = 1) -> tuple[list[CheckRecord], dict]:
    """Identity checks for the generators, drifts, and conjugation residuals;
    returns the records plus grid metadata (skipped pole-band cell count)."""
    records: list[CheckRecord] = []
    rng = stream(seed, PURPOSE_AUX, 11)

    # exact jets against finite differences at random interior points
    us = rng.uniform(0.2, 1.3, 20)
    vs = rng.uniform(0.0, 2 * np.pi, 20)
    worst = max(_jet_fd_gap(f, us, vs) for f in operators.sphere_basket())
    records.append(_le("jet_vs_fd_sphere", worst, 1e-6))
    uh = rng.uniform(0.3, 2.5, 20)
    vh = rng.uniform(-2.0, 2.0, 20)
    worst = max(_jet_fd_gap(f, uh, vh) for f in operators.heis_basket())
    records.append(_le("jet_vs_fd_heis", worst, 1e-6))

    # harmonicity of the conditioning weights, exact algebra
    rs, th = np.meshgrid(
        np.linspace(0.2, 1.3, 23), np.linspace(0.2, 2 * np.pi - 0.2, 29)
    )
    keep = np.abs(th - np.pi) >= 0.3
    for n in (1, 2, 3):
        gap = operators.harmonic_gap_sphere(rs[keep], th[keep], n)
        records.append(_le(f"harmonicity_sphere_n{n}", np.max(gap), 1e-6))
    r, t = np.meshgrid(np.linspace(0.3, 3.0, 23), np.linspace(-3.0, 3.0, 25))
    keepN = geometry.koranyi_N(r, t) >= 0.1
    for n in (1, 2, 3):
        gap = operators.harmonic_gap_heis(r[keepN], t[keepN], n)
        records.append(_le(f"harmonicity_heis_n{n}", np.max(gap), 1e-8))

    # carre du champ against the generator bracket, exact algebra
    def bracket_gap(basket, gen, carre, uu, vv, n):
        worst = 0.0
        for i, f in enumerate(basket):
            for g in basket[i + 1 :]:
                fj, gj = f.jet(uu, vv), g.jet(uu, vv)
                prod = operators.product_jet(fj, gj)
                br = 0.5 * (
                    gen(prod, uu, n) - fj.f * gen(gj, uu, n) - gj.f * gen(fj, uu, n)
                )
                worst = max(worst, float(np.max(np.abs(br - carre(fj, gj, uu)))))
        return worst

    records.append(
        _le(
            "gamma_bracket_sphere",
            bracket_gap(
                operators.sphere_basket(),
                operators.sphere_generator,
                operators.sphere_carre,
                rs[keep],
                th[keep],
                1,
            ),
            1e-8,
        )
    )
    records.append(
        _le(
            "gamma_bracket_heis",
            bracket_gap(
                operators.heis_basket(),
                operators.heis_generator,
                operators.heis_carre,
                r,
                t,
                1,
            ),
            1e-8,
        )
    )

    # conjugation residuals over basket x grid, skipping the pole band
    grid_rs, grid_th = np.meshgrid(
        np.linspace(0.15, 1.35, 9), np.linspace(0.25, 2 * np.pi - 0.25, 13)
    )
    in_band = geometry.h_fun(grid_rs, grid_th) < H_MIN
    skipped = int(np.sum(in_band))
    qrs, qth = grid_rs[~in_band], grid_th[~in_band]
    rk, tk = np.meshgrid(np.linspace(0.4, 2.2, 9), np.linspace(-1.5, 1.5, 9))
    for n in (1, 2):
        worst_c = worst_d = worst_k = 0.0
        for f in operators.sphere_basket():
            worst_c = max(
                worst_c, float(np.max(operators.residual_conj_cayley(f, (qrs, qth), n)))
            )
            worst_d = max(
                worst_d, float(np.max(operators.residual_doob(f, (qrs, qth), n)))
            )
        for F in operators.heis_basket():
            worst_k = max(
                worst_k, float(np.max(operators.residual_kelvin(F, (rk, tk), n)))
            )
        records.append(_le(f"residual_conj_cayley_n{n}", worst_c, 1e-5))
        records.append(_le(f"residual_doob_n{n}", worst_d, 1e-5))
        records.append(_le(f"residual_kelvin_n{n}", worst_k, 1e-5))

    # the two algebraic forms of the conditioned generator agree
    worst = max(
        float(np.max(operators.residual_doob_forms_gap(f, (qrs, qth), 2)))
        for f in operators.sphere_basket()
    )
    records.append(_le("doob_forms_gap", worst, 1e-8))

    # conditioned drift is the log-weight readoff on the coordinates
    worst = 0.0
    for n in (1, 2):
        lw = operators.log_jet(operators.power_jet(operators.h_fun_jet(qrs, qth), -0.5 * n))
        br, bth = operators.drift_hproc((qrs, qth), n)
        base = 0.5 * operators.sphere_radial_drift(qrs, n)
        worst = max(
            worst,
            float(np.max(np.abs(br - (base + lw.fu)))),
            float(np.max(np.abs(bth - np.tan(qrs) ** 2 * lw.fv))),
        )
    records.append(_le("drift_readoff", worst, 1e-10))

    # frozen values
    basket = {f.name: f for f in operators.heis_basket()}
    records.append(
        _le(
            "frozen_apply_LH_r2",
            abs(float(operators.apply_LH(basket["r2"], (1.0, 0.3), 1)) - 4.0),
            1e-12,
        )
    )
    costh = operators.TestFunction(
        "costh",
        lambda u, v: operators.Jet2(
            np.cos(v) + 0 * u, 0 * u, -np.sin(v) + 0 * u, 0 * u, 0 * u, -np.cos(v) + 0 * u
        ),
    )
    th0 = 0.7
    records.append(
        _le(
            "frozen_apply_LS_costh",
            abs(float(operators.apply_LS(costh, (np.pi / 4, th0), 1)) + np.cos(th0)),
            1e-12,
        )
    )
    br, bth = operators.drift_hproc((np.pi / 4, 3 * np.pi / 4), 1)
    records.append(
        _le("frozen_drift_hproc", max(abs(float(br)), abs(float(bth) - 1.0)), 1e-12)
    )
    br, bt = operators.drift_Nproc((1.0, 0.0), 1)
    records.append(
        _le("frozen_drift_Nproc", max(abs(float(br) + 1.5), abs(float(bt))), 1e-12)
    )
    return records, {"skipped_cells": skipped}
