"""Brownian paths on the Heisenberg group and the CR sphere, the conformal
maps between them, and Monte Carlo checks that conformal images of the free
motion are time-changed conditioned diffusions."""

import os
import sys

# numpy's bundled OpenBLAS starts a worker thread for each extra CPU when
# numpy loads, and those threads burn CPU at start-up for nothing here: the
# package's one np.linalg call, norm(..., axis=-1) in geometry.ambient_to_cyl,
# reduces elementwise, and everything else is a ufunc.  So pin OpenBLAS to
# one thread before the first submodule loads numpy.  A value the user set
# is kept, and a process that loaded numpy first is left alone.
if "numpy" not in sys.modules:
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .analysis import (
    CheckRecord,
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
from .verify import verify_geometry, verify_operators

__version__ = "0.6.0"
