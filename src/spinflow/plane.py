"""Shared parameter types, error classes and the numerical rules every route uses.

Every solver in this package works on the half-plane whose coordinates are
a one-body field strength ``x`` (space-like) and a two-body interaction
strength ``t`` (time-like, ``t >= 0``).  Spin-glass operations carry one
extra parameter, the external field combination ``beta_h``.  Every route starts
from the boundary datum log 2 + log cosh x, so ``log_cosh`` is shared here too.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

LOG2 = math.log(2.0)

# the slowest root in use, a near-triple one at t = 1, takes under 50
_NEWTON_MAX_ITER = 100


class ConvergenceError(RuntimeError):
    """An iterative solver stopped before reaching its target residual."""

    def __init__(self, message: str, residual: float | None = None):
        super().__init__(message)
        self.residual = residual


class QuadratureError(RuntimeError):
    """Adaptive quadrature could not certify the requested accuracy."""

    def __init__(self, message: str, error_estimate: float | None = None):
        super().__init__(message)
        self.error_estimate = error_estimate


def newton_steps(lo: float, hi: float, x0: float, tol: float,
                 residual_tol: float = math.inf):
    """Bracketed Newton as a generator: yields each iterate x, is sent back (f(x), f'(x)).

    f is oriented by the caller so that f(lo) < 0 < f(hi); the sign of each
    value replaces one end of the bracket.  A step that would leave the open
    bracket, or a slope that is not positive, bisects instead.  Stops at an
    exact zero, or once |f| < ``residual_tol`` and the step or the bracket is
    below tol * max(1, |x|) (tol must exceed the float spacing), returning the
    last iterate (the value of its StopIteration).  Raises ConvergenceError
    with the last |f| after 100 iterations.  A caller can so drive many roots
    in lockstep, evaluating f at all their iterates together.
    """
    x = x0
    for _ in range(_NEWTON_MAX_ITER):
        value, slope = yield x
        if value == 0.0:
            return x
        if value < 0.0:
            lo = x
        else:
            hi = x
        step = -value / slope if slope > 0.0 else math.inf
        scale = tol * max(1.0, abs(x))
        if abs(value) < residual_tol and (abs(step) < scale or hi - lo < scale):
            return x
        # halves taken apart, so that the midpoint of two huge ends cannot overflow
        x = x + step if lo < x + step < hi else 0.5 * lo + 0.5 * hi
    raise ConvergenceError(
        f"bracketed Newton did not converge in {_NEWTON_MAX_ITER} iterations on [{lo}, {hi}]",
        residual=abs(value))


def bracketed_newton(f, lo: float, hi: float, x0: float, tol: float) -> float:
    """Root of f on [lo, hi] by ``newton_steps``, where ``f(x)`` returns (value, slope)."""
    steps = newton_steps(lo, hi, x0, tol)
    x = next(steps)
    try:
        while True:
            x = steps.send(f(x))
    except StopIteration as stop:
        return stop.value


@functools.cache
def gauss_rule(builder, order: int) -> tuple:
    """Read-only nodes and weights ``builder(order)``, built on first use and shared."""
    rule = builder(order)
    for array in rule:
        array.setflags(write=False)
    return rule


def log_cosh(s):
    """log cosh s elementwise, as |s| + log1p(exp(-2|s|)) - log 2, which cannot overflow."""
    a = np.abs(np.asarray(s, dtype=np.float64))
    # exp(-2a) is already 0.0 at a = 400; the clamp keeps -2a from overflowing
    return a + np.log1p(np.exp(-2.0 * np.minimum(a, 400.0))) - LOG2


def check_size(n) -> None:
    """Refuse a system size n that is not a positive integer."""
    if not isinstance(n, (int, np.integer)) or n < 1:
        raise ValueError(f"system size n must be a positive integer, got {n!r}")


def straight_line(x0: float, slope: float, t_max: float, n_points: int) -> np.ndarray:
    """(n_points, 2) array of (x0 - s slope, s) for s uniform on [0, t_max]."""
    if not math.isfinite(t_max) or t_max < 0:
        raise ValueError(f"t_max must be finite and >= 0, got {t_max}")
    if not isinstance(n_points, (int, np.integer)) or n_points < 2:
        raise ValueError(f"need an integer number of points >= 2, got {n_points!r}")
    s = np.linspace(0.0, t_max, n_points)
    return np.column_stack((x0 - s * slope, s))


@dataclass(frozen=True)
class PlanePoint:
    """Point (x, t) of the half-plane, with t >= 0 and both coordinates finite."""

    x: float
    t: float

    def __post_init__(self):
        if not (math.isfinite(self.x) and math.isfinite(self.t)):
            raise ValueError(f"plane point must be finite, got x={self.x}, t={self.t}")
        if self.t < 0:
            raise ValueError(f"interaction strength t must be >= 0, got t={self.t}")


@dataclass(frozen=True)
class SkParams:
    """Spin-glass parameters: cavity variance x >= 0, coupling t >= 0, field beta_h."""

    x: float
    t: float
    beta_h: float = 0.0

    def __post_init__(self):
        for name in ("x", "t", "beta_h"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if self.x < 0:
            raise ValueError(f"cavity variance x must be >= 0, got {self.x}")
        if self.t < 0:
            raise ValueError(f"coupling strength t must be >= 0, got {self.t}")
