"""Continuously regularized Gauss-Newton flows with inverse-operator tracking.

Two continuous methods for solving nonlinear (possibly ill-posed)
equations F(x) = 0: a direct flow that factorizes the regularized normal
operator at every evaluation, and a coupled flow that evolves an
approximation of its inverse alongside the iterate. The package also
computes machine-checkable convergence certificates and numerically
verifies the integral-inequality lemmas behind them.
"""

from .flow import (
    FlowDiagnostics,
    SolverState,
    coupled_rhs,
    diagnostics,
    direct_rhs,
    initial_inverse,
    scaled_identity_inverse,
)
from .gallery import (
    GalleryEntry,
    available_labels,
    compliant_instance,
    compliant_suite,
    get_entry,
    make_affine,
    make_autoconvolution,
    make_feigenbaum_like,
)
from .hilbert import FactorizationError, solve_regularized
from .integrator import IntegratorConfig, Trajectory, convergence_order, integrate, step
from .problem import (
    BallBounds,
    NonlinearProblem,
    constant_jacobian,
    estimate_bounds,
    eval_F,
    fd_jacobian,
    jacobian,
    rowwise,
)
from .schedule import PowerSchedule, default_schedule
from .theory import (
    Certificate,
    canonical_R,
    certify,
    certify_with_canonical_R,
    gronwall_check,
    riccati_envelope_check,
    solve_source,
)

__version__ = "0.1.0"
