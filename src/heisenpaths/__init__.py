"""Brownian paths on the Heisenberg group and the CR sphere, the conformal
maps between them, and Monte Carlo checks that conformal images of the free
motion are time-changed conditioned diffusions."""

from .analysis import (
    MCEstimate,
    SurvivalCurve,
    doob_semigroup_check,
    doob_semigroup_check_N,
    ergodic_expected,
    ergodic_experiment,
    green_H_pole,
    green_S_pole,
    green_relation_ratio,
    ks_critical,
    ks_two_sample,
    pushforward_experiment_cayley,
    pushforward_experiment_kelvin,
    survival_T,
    tdist_experiment,
)
from .geometry import (
    HPoint,
    HRadial,
    SAmbient,
    SCyl,
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
)
from .operators import (
    TestFunction,
    apply_LH,
    apply_LS,
    drift_hproc,
    drift_Nproc,
    heis_basket,
    residual_conj_cayley,
    residual_doob,
    residual_kelvin,
    sphere_basket,
)
from .sde import (
    PathEnsemble,
    SimConfig,
    project_radial,
    sim_full_h,
    sim_hproc,
    sim_Nproc,
    sim_radial_h,
    sim_radial_s,
)
from .verify import CheckRecord, verify_geometry, verify_operators

__version__ = "0.3.0"
