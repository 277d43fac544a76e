"""Mean-field spin thermodynamics through the lens of fluid mechanics.

The ferromagnetic and glassy mean-field models are treated as initial
value problems for a velocity field on the (cavity-strength,
interaction-strength) plane: exact finite-size enumeration on one side,
the limiting variational (Lax-Oleinik) and self-consistent solutions on
the other, plus the finite-size identity polynomials that measure the
distance between the two.
Importing the package executes only ``plane``: each of the four library
modules executes on its first attribute access, from the package or its own.
"""

import importlib.util
import sys

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


def _lazy(name: str):
    """Register ``spinflow.<name>`` to execute on its first attribute access."""
    spec = importlib.util.find_spec(f"{__name__}.{name}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


cw_exact, hj_limit, sk_rs, sk_finite = map(_lazy, _EXPORTS)


def __getattr__(name: str):
    # a re-export is bound here on first access, so the next one is a plain lookup
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(globals()[_HOME[name]], name)
    return value


def __dir__():
    return sorted({*globals(), *_HOME})


__version__ = "0.1.0"

__all__ = ["ConvergenceError", "QuadratureError", "PlanePoint", "SkParams", *_HOME, "__version__"]
