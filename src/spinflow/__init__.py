"""Mean-field spin thermodynamics through the lens of fluid mechanics.

The ferromagnetic and glassy mean-field models are treated as initial
value problems for a velocity field on the (cavity-strength,
interaction-strength) plane: exact finite-size enumeration on one side,
the limiting variational (Lax-Oleinik) and self-consistent solutions on
the other, plus the finite-size identity polynomials that measure the
distance between the two.
Importing the package executes only ``plane``: each of the four library
modules is imported by the package's ``__getattr__`` on its first access,
under the import system's lock for that module, and then bound here.
"""

import importlib

from .plane import ConvergenceError, PlanePoint, QuadratureError, SkParams

# library module -> the names the package re-exports from it
_EXPORTS = {
    "cw_exact": ("ExactCwFields", "conservation_residuals", "continuity_residual",
                 "exact_fields", "hj_residual", "log_partition"),
    "hj_limit": ("CrossingScan", "LaxSolution", "characteristic", "critical_launch_point",
                 "critical_line", "crossing_scan", "lax_action",
                 "self_consistent_magnetization", "shock_jump", "spontaneous_magnetization",
                 "symmetry_breaking_limit", "viscous_action", "viscous_velocity"),
    "sk_rs": ("RsSolution", "caustic_margin", "caustic_margins", "caustic_root",
              "gaussian_expectation", "rs_action", "rs_actions", "rs_characteristic",
              "rs_pressure", "rs_pressure_detail", "solve_qbar"),
    "sk_finite": ("DisorderSample", "GibbsCorrelators", "OverlapMoments", "draw_disorder",
                  "quenched_overlap_ladder", "quenched_overlap_moments"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}


def __getattr__(name: str):
    # a library module is imported once, under its module lock, and bound on the package
    # by the import system; a re-export is bound here, so the next access is a plain lookup
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(__getattr__(_HOME[name]), name)
    return value


def __dir__():
    return sorted({*globals(), *_EXPORTS, *_HOME})


__version__ = "0.1.0"

__all__ = ["ConvergenceError", "QuadratureError", "PlanePoint", "SkParams", *_HOME, "__version__"]
