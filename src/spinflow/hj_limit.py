"""Thermodynamic-limit machinery for the mean-field ferromagnet.

The finite-size action of ``cw_exact`` solves a viscous Hamilton-Jacobi
equation with viscosity 1/(2N).  A Cole-Hopf substitution maps it to the
heat equation with initial datum ``(2 cosh x)**N``, whose kernel
representation is evaluated here by adaptive quadrature (``viscous_*``).
As N grows the action converges to the Lax-Oleinik variational solution

    phi(x, t) = min_y [ (x - y)**2 / (2 t) - log 2 - log cosh y ],

whose velocity field u = -tanh(y*) develops a shock on the half-line
(x = 0, t > 1).  The remaining operations chart that geometry: shock jump,
critical (caustic) line, straight characteristics, and the symmetry
breaking limit along tilted approach lines.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad
from scipy.optimize import brentq

from .plane import ConvergenceError, PlanePoint, QuadratureError

LOG2 = math.log(2.0)

_BRANCHES = ("plus", "minus")


@dataclass(frozen=True)
class LaxSolution:
    """Variational solution at one plane point.

    ``y_star`` is the minimizer of the Lax-Oleinik objective, ``phi`` the
    limiting action, ``u = (x - y_star) / t`` the velocity.  On the shock
    half-line (x = 0, t > 1) two symmetric minimizers tie; ``branch``
    records which one was requested, otherwise it is "unique".
    """

    y_star: float
    phi: float
    u: float
    on_shock: bool
    branch: str


@dataclass(frozen=True)
class Characteristic:
    """Straight characteristic launched from x0: x(s) = x0 - s tanh(x0)."""

    x0: float
    points: np.ndarray  # shape (n_points, 2), columns (x, t)


@dataclass(frozen=True)
class CrossingScan:
    """Pairwise intersection census for a family of characteristics.

    ``events`` has one row per crossing inside 0 < t <= t_max, with columns
    (x0_low, x0_high, t_cross, x_cross).  ``n_below_critical_line`` counts
    crossings with x < x_c(t); ``n_supercritical_pairs`` counts crossings
    whose two launch points both sit at or above the marginal launch point
    for the crossing time.  Both counts are expected to be zero for a
    family launched from x0 >= 0: intersections accumulate strictly
    between the critical line and the shock line.
    """

    events: np.ndarray
    n_crossings: int
    n_below_critical_line: int
    n_above_critical_line: int
    n_supercritical_pairs: int


def _log_cosh(y: float) -> float:
    a = abs(y)
    return a + math.log1p(math.exp(-2.0 * a)) - LOG2


def _objective(y: float, x: float, t: float) -> float:
    return (x - y) ** 2 / (2.0 * t) - LOG2 - _log_cosh(y)


def _stationary_points(x: float, t: float) -> list[float]:
    """All roots of y = x + t tanh(y), each found on a monotone bracket."""

    def g(y):
        return x + t * math.tanh(y) - y

    hi = abs(x) + t + 1.0
    if not math.isfinite(hi):
        raise ValueError(f"|x| + t overflows the root bracket at x={x}, t={t}")
    if t <= 1.0:
        return [brentq(g, -hi, hi, xtol=1e-15, rtol=8.9e-16, maxiter=200)]
    yc = math.acosh(math.sqrt(t))
    nodes = [-hi, -yc, yc, hi]
    roots = []
    for a, b in zip(nodes[:-1], nodes[1:]):
        ga, gb = g(a), g(b)
        if ga == 0.0:
            roots.append(a)
            continue
        if ga * gb < 0:
            roots.append(brentq(g, a, b, xtol=1e-15, rtol=8.9e-16, maxiter=200))
    if g(hi) == 0.0:
        roots.append(hi)
    # Deduplicate bracket-endpoint coincidences.
    out: list[float] = []
    for r in roots:
        if not out or abs(r - out[-1]) > 1e-12:
            out.append(r)
    return out


def lax_action(p: PlanePoint, branch: str | None = None) -> LaxSolution:
    """Lax-Oleinik solution: minimize the variational objective over y.

    Off the shock line the global minimizer is unique and ``branch`` is
    ignored.  Exactly on the shock line (x = 0, t > 1) the two symmetric
    minimizers tie and a branch must be requested explicitly: "plus" is
    the x -> 0+ limit (y_star > 0, u = -m*), "minus" the mirror image.
    """
    if branch is not None and branch not in _BRANCHES:
        raise ValueError(f"branch must be one of {_BRANCHES}, got {branch!r}")
    x, t = p.x, p.t
    if t == 0.0:
        return LaxSolution(y_star=x, phi=-LOG2 - _log_cosh(x), u=-math.tanh(x),
                           on_shock=False, branch="unique")
    if x == 0.0:
        if t <= 1.0:
            return LaxSolution(y_star=0.0, phi=-LOG2, u=0.0, on_shock=False, branch="unique")
        if branch is None:
            raise ValueError(
                "point lies on the shock line (x = 0, t > 1): pass branch='plus' or branch='minus'")
        y = t * spontaneous_magnetization(t)
        if branch == "minus":
            y = -y
        return LaxSolution(y_star=y, phi=_objective(y, 0.0, t), u=-y / t,
                           on_shock=True, branch=branch)
    roots = _stationary_points(x, t)
    values = [_objective(y, x, t) for y in roots]
    y_star = roots[int(np.argmin(values))]
    return LaxSolution(y_star=y_star, phi=min(values), u=(x - y_star) / t,
                       on_shock=False, branch="unique")


def _integration_window(x: float, t: float, n: int, g_min: float):
    half = 10.0 / math.sqrt(n * min(1.0, 1.0 / t)) + abs(t) + 5.0
    # Grow the window until the shifted integrand is negligible at both ends.
    for _ in range(60):
        lo, hi = x - half, x + half
        if (-n * (_objective(lo, x, t) - g_min) < -40.0
                and -n * (_objective(hi, x, t) - g_min) < -40.0):
            return lo, hi
        half *= 1.5
    raise QuadratureError(f"could not bracket the kernel integrand at x={x}, t={t}, n={n}")


def _kernel_integrals(x: float, t: float, n: int, with_velocity: bool):
    roots = _stationary_points(x, t)
    g_min = min(_objective(y, x, t) for y in roots)
    lo, hi = _integration_window(x, t, n, g_min)
    interior = [y for y in roots if lo < y < hi]

    def weight(y):
        return math.exp(-n * (_objective(y, x, t) - g_min))

    i0, err0 = quad(weight, lo, hi, points=interior, limit=300, epsabs=1e-14, epsrel=1e-12)
    if i0 <= 0 or err0 > max(1e-10 * i0, 5e-13):
        raise QuadratureError(
            f"kernel normalization uncertain at x={x}, t={t}, n={n}", error_estimate=err0)
    if not with_velocity:
        return g_min, i0
    i1, err1 = quad(lambda y: (x - y) / t * weight(y), lo, hi, points=interior,
                    limit=300, epsabs=1e-14, epsrel=1e-12)
    if err1 > max(1e-9 * abs(i1), 1e-10 * i0):
        raise QuadratureError(
            f"velocity quadrature uncertain at x={x}, t={t}, n={n}", error_estimate=err1)
    return g_min, i0, i1


def viscous_action(p: PlanePoint, n: int) -> float:
    """Finite-size action from the heat-kernel representation.

    Evaluates -(1/N) log of the Gaussian smoothing of (2 cosh y)**N by
    adaptive quadrature on a max-shifted integrand, with the stationary
    points of the exponent as quadrature break points.  Agrees with the
    sector sum of ``cw_exact`` to quadrature accuracy.
    """
    if n < 1:
        raise ValueError(f"system size n must be a positive integer, got {n!r}")
    if p.t == 0.0:
        raise ValueError("t = 0 has the closed boundary form -log 2 - log cosh x; quadrature needs t > 0")
    g_min, i0 = _kernel_integrals(p.x, p.t, n, with_velocity=False)
    return g_min - (0.5 * math.log(n / p.t) - 0.5 * math.log(2.0 * math.pi) + math.log(i0)) / n


def viscous_velocity(p: PlanePoint, n: int) -> float:
    """Finite-size velocity as a ratio of kernel integrals.

    The weight is the same as in ``viscous_action``; the numerator carries
    the factor (x - y) / t.  At x = 0 the integrand is odd around the
    origin and the velocity is returned as exactly zero; at t = 0 the
    closed boundary form -tanh(x) is returned.
    """
    if n < 1:
        raise ValueError(f"system size n must be a positive integer, got {n!r}")
    if p.t == 0.0:
        return -math.tanh(p.x)
    if p.x == 0.0:
        return 0.0
    _, i0, i1 = _kernel_integrals(p.x, p.t, n, with_velocity=True)
    return i1 / i0


def self_consistent_magnetization(p: PlanePoint, side: str | None = None) -> float:
    """Velocity branch solving u = -tanh(x - u t) on (-1, 1).

    For t <= 1 the root is unique.  For t > 1 there may be three; the
    branch continuous with sign(-x) is selected off the shock line, while
    exactly on it (x = 0, t > 1) the tie must be broken explicitly with
    side="plus" (u = -m*, the x -> 0+ limit) or side="minus" (u = +m*).
    Solved by safeguarded Newton iteration with bisection fallback.
    """
    if side is not None and side not in _BRANCHES:
        raise ValueError(f"side must be one of {_BRANCHES}, got {side!r}")
    x, t = p.x, p.t
    if t == 0.0:
        return -math.tanh(x)
    if x == 0.0 and t <= 1.0:
        return 0.0

    def f(u):
        return u + math.tanh(x - u * t)

    def fprime(u):
        return 1.0 - t / math.cosh(x - u * t) ** 2

    # Split (-1, 1) at the points where f' changes sign, so each piece is monotone.
    cuts = [-1.0, 1.0]
    if t > 1.0:
        a = math.acosh(math.sqrt(t))
        for c in ((x - a) / t, (x + a) / t):
            if -1.0 < c < 1.0:
                cuts.append(c)
    cuts = sorted(cuts)
    brackets = [(a, b) for a, b in zip(cuts[:-1], cuts[1:]) if f(a) * f(b) < 0.0]
    roots = [_safeguarded_newton(f, fprime, a, b) for a, b in brackets]
    for c in cuts[1:-1]:
        if f(c) == 0.0:
            roots.append(c)
    if not roots:
        raise ConvergenceError(f"no self-consistent velocity found at x={x}, t={t}")
    roots = sorted(roots)
    if x == 0.0:
        if side is None:
            raise ValueError(
                "point lies on the shock line (x = 0, t > 1): pass side='plus' or side='minus'")
        return roots[0] if side == "plus" else roots[-1]
    return roots[0] if x > 0 else roots[-1]


def _safeguarded_newton(f, fprime, a: float, b: float) -> float:
    fa = f(a)
    u = 0.5 * (a + b)
    for _ in range(200):
        fu = f(u)
        if fu == 0.0 or b - a < 4e-16:
            return u
        if (fu > 0) == (fa > 0):
            a, fa = u, fu
        else:
            b = u
        d = fprime(u)
        if d != 0.0:
            step = fu / d
            u_new = u - step
            if a < u_new < b:
                if abs(step) < 1e-16 * (1.0 + abs(u)):
                    return u_new
                u = u_new
                continue
        u = 0.5 * (a + b)
    return u


def spontaneous_magnetization(t: float) -> float:
    """Positive root m* of m = tanh(t m) for t > 1.

    Bracketed with the small-supercriticality seed m**2 ~ 3(t-1)/t**3 so
    the root finder cannot collapse onto the trivial root at m = 0.
    """
    if not math.isfinite(t) or t <= 1.0:
        raise ValueError(f"spontaneous magnetization needs t > 1, got {t}")
    # past t = 1e100, t**3 would overflow; there the seed is sqrt(3) / t to double precision
    seed = math.sqrt(3.0 * (t - 1.0) / t**3) if t < 1e100 else math.sqrt(3.0) / t
    lo = 0.5 * min(seed, 1.0)

    def g(m):
        return math.tanh(t * m) - m

    return brentq(g, lo, 1.0, xtol=1e-16, rtol=8.9e-16, maxiter=200)


def shock_jump(t: float) -> tuple[float, float]:
    """Velocity values (u_minus, u_plus) on the two sides of the shock line.

    u_minus = +m*(t) is the x -> 0- limit, u_plus = -m*(t) the x -> 0+
    limit, so the jump is symmetric and the two values sum to zero exactly.
    """
    m_star = spontaneous_magnetization(t)
    return m_star, -m_star


def critical_line(t: float) -> float:
    """Caustic abscissa x_c(t) = arctanh(sqrt((t-1)/t)) - sqrt(t(t-1)), t > 1.

    This is the envelope of the characteristic family launched from
    x0 >= 0: pairwise intersections of the family all occur between this
    line and the shock line, never below it.
    """
    if not math.isfinite(t) or t <= 1.0:
        raise ValueError(f"critical line is defined for t > 1, got {t}")
    return critical_launch_point(t) - math.sqrt(t) * math.sqrt(t - 1.0)


def critical_launch_point(t: float) -> float:
    """Marginal launch point x0_c(t) = arctanh(sqrt((t-1)/t)) whose characteristic touches the caustic at time t.

    Evaluated as log(t) / 2 + log1p(sqrt((t-1)/t)), which stays finite
    where sqrt((t-1)/t) rounds to 1 and arctanh would hit its pole.
    """
    if not math.isfinite(t) or t <= 1.0:
        raise ValueError(f"critical launch point is defined for t > 1, got {t}")
    return 0.5 * math.log1p(t - 1.0) + math.log1p(math.sqrt((t - 1.0) / t))


def characteristic(x0: float, t_max: float, n_points: int = 64) -> Characteristic:
    """Straight characteristic x(s) = x0 - s tanh(x0), sampled uniformly on [0, t_max]."""
    if not math.isfinite(x0):
        raise ValueError(f"launch point must be finite, got {x0}")
    if not math.isfinite(t_max) or t_max < 0:
        raise ValueError(f"t_max must be finite and >= 0, got {t_max}")
    if n_points < 2:
        raise ValueError(f"need at least 2 points, got {n_points}")
    s = np.linspace(0.0, t_max, n_points)
    return Characteristic(x0=x0, points=np.column_stack((x0 - s * math.tanh(x0), s)))


def crossing_scan(x0_points, t_max: float) -> CrossingScan:
    """Census of pairwise characteristic intersections for launches x0 >= 0.

    Every pair of distinct launch points crosses somewhere; only crossings
    with 0 < t <= t_max are recorded.  Each event is classified two ways:
    by position (above or below the critical line x_c at the crossing
    time) and by launch points (whether both sit at or above the marginal
    launch point for that time).  The monotonicity of the flow on the
    supercritical family makes both "violation" counts zero:
    ``n_below_critical_line`` and ``n_supercritical_pairs`` vanish, while
    all recorded crossings pile up above the critical line.
    """
    x0s = np.sort(np.asarray(x0_points, dtype=np.float64))
    if x0s.size < 2:
        raise ValueError("need at least two launch points")
    if not np.all(np.isfinite(x0s)) or x0s[0] < 0:
        raise ValueError("launch points must be finite and >= 0")
    if not math.isfinite(t_max) or t_max <= 0:
        raise ValueError(f"t_max must be finite and > 0, got {t_max}")
    slopes = np.tanh(x0s)
    events = []
    below = above = supercritical = 0
    for i in range(x0s.size):
        dv = slopes[i + 1:] - slopes[i]
        dx = x0s[i + 1:] - x0s[i]
        valid = dv > 0
        s_cross = np.full(dv.shape, np.inf)
        s_cross[valid] = dx[valid] / dv[valid]
        for off in np.nonzero((s_cross > 0) & (s_cross <= t_max))[0]:
            s = float(s_cross[off])
            x_cross = float(x0s[i] - s * slopes[i])
            events.append((float(x0s[i]), float(x0s[i + off + 1]), s, x_cross))
            if s > 1.0:
                if x_cross < critical_line(s):
                    below += 1
                else:
                    above += 1
                if x0s[i] >= critical_launch_point(s):
                    supercritical += 1
            else:
                # Crossings at t <= 1 would contradict the strict s > 1 bound.
                below += 1
    arr = np.array(events, dtype=np.float64).reshape(-1, 4)
    return CrossingScan(events=arr, n_crossings=len(events),
                        n_below_critical_line=below, n_above_critical_line=above,
                        n_supercritical_pairs=supercritical)


def symmetry_breaking_limit(t: float, epsilon_sign: str = "plus") -> float:
    """Velocity limit along the tilted line x = eps (t - 1) as eps -> 0.

    The lines all pass through the critical point (0, 1); for t > 1 the
    plus-sign family approaches the shock from x > 0 and recovers
    u_plus = -m*(t), the minus-sign family recovers u_minus = +m*(t).
    The limit is read off a decreasing ladder of eps values and must
    stabilize to 1e-8 between the last two rungs.
    """
    if epsilon_sign not in _BRANCHES:
        raise ValueError(f"epsilon_sign must be one of {_BRANCHES}, got {epsilon_sign!r}")
    if not math.isfinite(t) or t <= 1.0:
        raise ValueError(f"symmetry breaking limit needs t > 1, got {t}")
    sign = 1.0 if epsilon_sign == "plus" else -1.0
    values = [self_consistent_magnetization(PlanePoint(sign * eps * (t - 1.0), t))
              for eps in (10.0 ** -k for k in range(2, 12))]
    drift = abs(values[-1] - values[-2])
    if drift > 1e-8:
        raise ConvergenceError(
            f"velocity failed to stabilize along the eps ladder at t={t}", residual=drift)
    return values[-1]
