"""Mean-field spin thermodynamics through the lens of fluid mechanics.

The ferromagnetic and glassy mean-field models are treated as initial
value problems for a velocity field on the (cavity-strength,
interaction-strength) plane: exact finite-size enumeration on one side,
the limiting variational (Lax-Oleinik) and self-consistent solutions on
the other, plus the finite-size identity polynomials that measure the
distance between the two.
"""

from .plane import ConvergenceError, PlanePoint, QuadratureError, SkParams
from .cw_exact import (
    ExactCwFields,
    conservation_residuals,
    continuity_residual,
    exact_fields,
    hj_residual,
    log_partition,
)
from .hj_limit import (
    CrossingScan,
    LaxSolution,
    characteristic,
    critical_launch_point,
    critical_line,
    crossing_scan,
    lax_action,
    self_consistent_magnetization,
    shock_jump,
    spontaneous_magnetization,
    symmetry_breaking_limit,
    viscous_action,
    viscous_velocity,
)
from .sk_rs import (
    RsSolution,
    caustic_margin,
    caustic_margins,
    caustic_root,
    gaussian_expectation,
    rs_action,
    rs_actions,
    rs_characteristic,
    rs_pressure,
    rs_pressure_detail,
    solve_qbar,
)
from .sk_finite import (
    DisorderSample,
    GibbsCorrelators,
    OverlapMoments,
    draw_disorder,
    quenched_overlap_moments,
)

__version__ = "0.1.0"

__all__ = [
    "ConvergenceError",
    "QuadratureError",
    "PlanePoint",
    "SkParams",
    "ExactCwFields",
    "log_partition",
    "exact_fields",
    "hj_residual",
    "continuity_residual",
    "conservation_residuals",
    "LaxSolution",
    "CrossingScan",
    "lax_action",
    "viscous_action",
    "viscous_velocity",
    "self_consistent_magnetization",
    "spontaneous_magnetization",
    "shock_jump",
    "critical_line",
    "critical_launch_point",
    "characteristic",
    "crossing_scan",
    "symmetry_breaking_limit",
    "RsSolution",
    "gaussian_expectation",
    "solve_qbar",
    "rs_action",
    "rs_actions",
    "rs_pressure",
    "rs_pressure_detail",
    "caustic_margin",
    "caustic_margins",
    "caustic_root",
    "rs_characteristic",
    "DisorderSample",
    "GibbsCorrelators",
    "OverlapMoments",
    "draw_disorder",
    "quenched_overlap_moments",
    "__version__",
]
