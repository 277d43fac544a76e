"""Thermodynamic-limit machinery for the mean-field ferromagnet.

The finite-size action of ``cw_exact`` solves a viscous Hamilton-Jacobi
equation with viscosity 1/(2N).  A Cole-Hopf substitution maps it to the
heat equation with initial datum ``(2 cosh x)**N``, whose kernel
representation is evaluated here (``viscous_*``) by composite
Gauss-Legendre quadrature on a window about its minimizers, with panels
doubled until two levels agree and their gap kept as the error estimate.
One node pass forms the first three levels (1, 2 and 4 panels per
segment) with the sums of both routes, and the last point's levels are
kept, so the velocity asked right after the action at the same point
costs no new pass unless its own stop rule needs a further doubling.
As N grows the action converges to the Lax-Oleinik variational solution

    phi(x, t) = min_y [ (x - y)**2 / (2 t) - log 2 - log cosh y ],

whose velocity field u = -tanh(y*) develops a shock on the half-line
(x = 0, t > 1).  The remaining operations chart that geometry: shock jump,
critical (caustic) line, straight characteristics, and the symmetry
breaking limit along tilted approach lines.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .plane import (LOG2, ConvergenceError, PlanePoint, QuadratureError, bracketed_newton,
                    check_size, gauss_rule, log_cosh, straight_line)

# Newton stops once its step or bracket is below 2.5e-16 * max(1, |root|):
# just above the unit roundoff 2^-52, so within about one float spacing
_ROOT_TOL = 2.5e-16

_BRANCHES = ("plus", "minus")

# z cosh z - sinh z = sum_k _GAP_SERIES[k] z**(2k + 3), every term positive, so
# z - tanh z is that sum over cosh z with nothing to cancel; for |z| < 1 nine terms are
# exact to double precision, where the difference z - tanh z cancels by about 3/z^2
_GAP_SERIES = tuple(2 * k / math.factorial(2 * k + 1) for k in range(1, 10))

# Kernel quadrature: composite Gauss-Legendre of order 20.  The panel count
# doubles, at most _MAX_DOUBLINGS times, until two levels agree to _QUAD_RTOL;
# level-to-level gaps plateau near 5e-13 from summation rounding, so a 1e-13
# stop would never settle.  The window ends where the weight is below e^-40.
_GL_ORDER = 20
_MAX_DOUBLINGS = 10
_QUAD_RTOL = 2e-12
_WINDOW_CUT = 40.0


@dataclass(frozen=True)
class LaxSolution:
    """Variational solution at one plane point.

    ``y_star`` is the minimizer of the Lax-Oleinik objective, ``phi`` the
    limiting action, ``u = -tanh(y_star)`` the velocity: it equals
    (x - y_star) / t, but keeps full relative precision where that difference
    cancels (t -> 0, or |x| much larger than t).  On the shock
    half-line (x = 0, t > 1) two symmetric minimizers tie; ``branch``
    records which one was requested, otherwise it is "unique".
    """

    y_star: float
    phi: float
    u: float
    on_shock: bool
    branch: str


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
    # scalar twin of plane.log_cosh, kept on math: numpy's exp, log1p and tanh differ
    # from libm's in the last bit on 5-27 % of arguments (x86-64, numpy 2.4) and cost
    # 4x more per scalar call, so numpy here would change `cw limit` bits and slow it
    a = abs(y)
    return a + math.log1p(math.exp(-2.0 * a)) - LOG2


def _tanh_gap(z: float) -> float:
    # z - tanh z from _GAP_SERIES, for |z| < 1
    c0, c1, c2, c3, c4, c5, c6, c7, c8 = _GAP_SERIES
    w = z * z
    return (z * w * (c0 + w * (c1 + w * (c2 + w * (c3 + w * (c4 + w * (c5 + w * (c6 + w * (
        c7 + w * c8)))))))) / math.cosh(z))


def _objective(y: float, x: float, t: float) -> float:
    try:
        return (x - y) ** 2 / (2.0 * t) - LOG2 - _log_cosh(y)
    except OverflowError:
        raise OverflowError(f"Lax-Oleinik objective overflows at x={x}, t={t} (y={y})") from None


def _root_bound(x: float, t: float) -> float | None:
    # A bound on the outer roots' |y| of y = x + t tanh(y) where it is below 0.2, else None:
    # up to |y| = 0.204, |y| - tanh |y| >= |y|^3 / 3.05.  Below t = 1, (1 - t) |y| and
    # t (|y| - tanh |y|) sum to |x|; from t = 1 on an outer root solves
    # t (|y| - tanh |y|) = |x| + (t - 1) |y|.  A middle root is smaller.  The bound is at
    # least |x|
    if abs(x) >= 0.2:
        return None
    if t < 1.0:
        bound = abs(x) / (1.0 - t)
        if t > 0.0:
            bound = min(bound, (3.05 * abs(x) / t) ** (1.0 / 3.0))
    else:
        bound = max((6.1 * abs(x) / t) ** (1.0 / 3.0), math.sqrt(6.1 * (t - 1.0) / t))
    return bound if bound < 0.2 else None


def _root_pieces(x: float, t: float) -> tuple:
    # (hi, tol, pieces) for the roots of y = x + t tanh(y): the bracket end, Newton's stop
    # and, per monotone piece of y - x - t tanh y in increasing order, its bracket,
    # orientation and Newton start.
    hi = abs(x) + t + 1.0
    if not math.isfinite(hi):
        raise ValueError(f"|x| + t overflows the root bracket at x={x}, t={t}")
    bound = _root_bound(x, t)
    # Without a bound, Newton starts from the fixed-point images x + t tanh(x) and x -+ t
    # (the middle piece from its centre) and stops at 2.5e-16, absolute below |y| = 1;
    # below t = 1 the stop is scaled by 2^-52 |x| / (1 - t)^2, the most that rounding in
    # the residual moves a step there.  _piece_roots forms the residual and slope below
    # |y| = 1 without cancellation, so where the root is under a bound a step is resolved
    # to about 2^-52 |y|: the stop is 2.5e-16 times the bound, relative to the root, and
    # the outer pieces start at the bound, beyond the root on the side where Newton closes
    # in on it monotonically; from x + t tanh(x) it would crawl down a near-triple root by
    # a factor 2/3 a step.  The floor keeps that stop above the subnormal spacing; the
    # scaled stop needs none, as |x| / (1 - t) >= 0.2 puts it above 0.2 * 2.5e-16
    if bound is not None:
        tol = _ROOT_TOL * max(bound, 1e-300)
    elif t < 1.0:
        tol = _ROOT_TOL * min(1.0, abs(x) / (1.0 - t) ** 2)
    else:
        tol = _ROOT_TOL
    if t <= 1.0:
        return hi, tol, [(-hi, hi, 1.0, x + t * math.tanh(x) if bound is None
                          else math.copysign(bound, x))]
    yc = math.asinh(math.sqrt(t - 1.0))  # acosh(sqrt(t)), which rounds to 0 at t = 1 + 2^-52
    low, high = (x - t, x + t) if bound is None else (-bound, bound)
    return hi, tol, [(-hi, -yc, 1.0, low), (-yc, yc, -1.0, 0.0), (yc, hi, 1.0, high)]


def _piece_roots(x: float, t: float, hi: float, tol: float, pieces) -> list[float]:
    # the roots on the given pieces, in order: an end where the residual is exactly
    # zero (the far end only for the last piece, which ends at hi), else a bracketed
    # Newton root where the oriented residual changes sign
    def f(y, sign=1.0):
        th = math.tanh(y)
        if abs(y) < 1.0:
            # y - x - t tanh y and 1 - t sech^2 y cancel where both 1 - t and y are
            # small; these forms do not
            return (sign * ((1.0 - t) * y + t * _tanh_gap(y) - x),
                    sign * ((1.0 - t) + t * th * th))
        return sign * (y - (x + t * th)), sign * (1.0 - t * (1.0 - th * th))

    roots = []
    for a, b, sign, start in pieces:
        fa, fb = f(a, sign)[0], f(b, sign)[0]
        if fa == 0.0:
            roots.append(a)
        elif fa < 0.0 < fb:
            roots.append(bracketed_newton(lambda y: f(y, sign), a, b, start, tol))
        if b == hi and fb == 0.0:
            roots.append(hi)
    return roots


def _stationary_points(x: float, t: float) -> list[float]:
    """All roots of y = x + t tanh(y), each found on a monotone bracket."""
    roots = _piece_roots(x, t, *_root_pieces(x, t))
    if not roots:
        raise _beyond_bracket(x, t)
    # Deduplicate bracket-endpoint coincidences.
    out: list[float] = []
    for r in roots:
        if not out or abs(r - out[-1]) > 1e-12:
            out.append(r)
    return out


def _minimizer(x: float, t: float) -> float:
    # g(y) - g(-y) = -2xy/t: the minimizer is the outer root on the side of x, so only
    # the outer monotone piece there is solved
    hi, tol, pieces = _root_pieces(x, t)
    roots = _piece_roots(x, t, hi, tol, [pieces[-1] if x > 0.0 else pieces[0]])
    if not roots:
        raise _beyond_bracket(x, t)
    return roots[-1] if x > 0.0 else roots[0]


def _beyond_bracket(x: float, t: float) -> ValueError:
    return ValueError(f"|x| + t is beyond double precision for the root bracket at x={x}, t={t}")


def lax_action(p: PlanePoint, branch: str | None = None) -> LaxSolution:
    """Lax-Oleinik solution: minimize the variational objective over y.

    Off the shock line the global minimizer is unique and ``branch`` is
    ignored.  Since the objective g obeys g(y) - g(-y) = -2xy/t, it is the
    outer stationary point on the side of x (a middle root lies on the
    other side), so no objective values are compared: near x = 0 they tie
    to rounding.  Only the outer monotone piece on that side is solved, one
    Newton root per point.  Below |y| = 1 the residual is formed as
    (1 - t) y + t (y - tanh y) - x, with y - tanh y from a series of positive
    terms, so the root keeps its relative precision next to (0, 1), except
    for subnormal |x| at t = 1: there y - tanh y ~ |x| is formed at the
    subnormal spacing (19 units of 2^-52 off at x = 1e-310, 5 % at 5e-324).
    Newton starts and stops relative to a bound on the root where one holds
    (below 0.2); from t = 1 on, where none does, it stops at an absolute
    2.5e-16, so a root below |y| = 0.5 keeps about 2.5e-16 / |y| of relative
    precision (7.5 units of 2^-52 between u and the self-consistent velocity
    at (3.1e-250, 1.0076), |u| = 0.15).  Exactly on the shock line
    (x = 0, t > 1) the two symmetric minimizers tie and a branch must be
    requested explicitly: "plus" is the x -> 0+ limit (y_star > 0,
    u = -m*), "minus" the mirror image.
    """
    if branch is not None and branch not in _BRANCHES:
        raise ValueError(f"branch must be one of {_BRANCHES}, got {branch!r}")
    x, t = p.x, p.t
    on_shock = x == 0.0 and t > 1.0
    if t == 0.0:
        y_star = x
    elif on_shock:
        if branch is None:
            raise ValueError(
                "point lies on the shock line (x = 0, t > 1): pass branch='plus' or branch='minus'")
        y_star = t * spontaneous_magnetization(t)
        if branch == "minus":
            y_star = -y_star
    else:
        y_star = _minimizer(x, t)
    phi = _objective(y_star, x, t) if t > 0.0 else -LOG2 - _log_cosh(x)
    # 0.0 - tanh: +0.0 at y_star = 0, so that no output prints a negative zero
    return LaxSolution(y_star=y_star, phi=phi, u=0.0 - math.tanh(y_star), on_shock=on_shock,
                       branch=branch if on_shock else "unique")


def _window_end(x: float, t: float, n: int, g_min: float, y: float, direction: float) -> float:
    # Grow from the narrowest Laplace half-width sqrt(2 cut t / n) (g'' = 1/t - sech^2 y
    # <= 1/t) by x1.5 until the weight exp(-n (g - g_min)) falls below e^-cut.  Where
    # g''(y) is smaller, near (0, 1) down to 0, the growth widens the window.
    half = math.sqrt(2.0 * _WINDOW_CUT * t / n)
    for _ in range(60):
        end = y + direction * half
        if n * (_objective(end, x, t) - g_min) > _WINDOW_CUT:
            return end
        half *= 1.5
    raise QuadratureError(f"could not bracket the kernel integrand at x={x}, t={t}, n={n}")


@functools.cache
def _panel_layout(segments: int, first: int, stop: int) -> tuple:
    # per row of a pass over the levels range(first, stop): its segment, its level's panel
    # count 2**level and its panel's centre k + 1/2, with the rows of each level together,
    # segment by segment; and the row at which each level starts, plus the end
    counts = [2 ** level for level in range(first, stop)]
    layout = (np.concatenate([np.repeat(np.arange(segments), c) for c in counts]),
              np.concatenate([np.full(segments * c, float(c)) for c in counts]),
              np.concatenate([np.tile(np.arange(c) + 0.5, segments) for c in counts]))
    for array in layout:
        array.setflags(write=False)
    return (*layout, np.cumsum([0] + [segments * c for c in counts]).tolist())


def _panel_sums(x: float, t: float, n: int, g_min: float, edges: np.ndarray, first: int,
                stop: int) -> list:
    # per level in range(first, stop), Gauss-Legendre sums over 2**level equal panels per
    # segment of `edges`: (integral of the weight, of (x - y) / t times it, of |x - y| / t
    # times it).  The levels share one node pass; each level's sums run over its own
    # contiguous rows, which numpy sums pairwise as it would a pass of that level alone
    segment, panels, centre, starts = _panel_layout(len(edges) - 1, first, stop)
    width = (edges[1:] - edges[:-1])[segment] / panels
    half = (0.5 * width)[:, None]
    mid = (edges[segment] + width * centre)[:, None]
    nodes, weights = gauss_rule(np.polynomial.legendre.leggauss, _GL_ORDER)
    y = mid + half * nodes
    d = x - y
    g = d ** 2 / (2.0 * t) - LOG2 - log_cosh(y)
    terms = np.empty((3, *y.shape))
    np.multiply(np.exp(-n * (g - g_min)), half * weights, out=terms[0])
    np.multiply(d / t, terms[0], out=terms[1])
    np.abs(terms[1], out=terms[2])
    return [tuple(terms[:, a:b].reshape(3, -1).sum(axis=1).tolist())
            for a, b in zip(starts[:-1], starts[1:])]


@functools.lru_cache(maxsize=1)
def _kernel_levels(x: float, x_sign: float, t: float, n: int) -> tuple:
    # one point's quadrature state: (g_min, edges, sums of the levels formed so far).  The
    # routes extend the level list in place, so the velocity after the action at the same
    # point reuses its levels; x_sign keeps x = -0.0 and 0.0 apart
    roots = _stationary_points(x, t)
    objective = [_objective(y, x, t) for y in roots]
    g_min = min(objective)
    # past 2**52 the exponent n * g is not even resolved to 1, let alone to the cut
    if n * abs(g_min) > 2.0 ** 52:
        raise OverflowError(f"kernel window overflows double precision at x={x}, t={t}, n={n}:"
                            f" the exponent n*g = {n * g_min:.6g} rounds by more than 1")
    # the window starts about the outer minimizers that carry weight; beyond one that
    # does not, the weight stays below e^-cut, so it is left out
    outer = [roots[i] for i in (0, -1) if n * (objective[i] - g_min) <= _WINDOW_CUT]
    lo = _window_end(x, t, n, g_min, outer[0], -1.0)
    hi = _window_end(x, t, n, g_min, outer[-1], 1.0)
    edges = np.array([lo, *(y for y in roots if lo < y < hi), hi])
    # most points stop at 2 or 4 panels per segment, so the first pass forms 1, 2 and 4
    return g_min, edges, _panel_sums(x, t, n, g_min, edges, 0, 3)


def _kernel_integrals(x: float, t: float, n: int, with_velocity: bool):
    g_min, edges, levels = _kernel_levels(x, math.copysign(1.0, x), t, n)
    # double the panels until two levels agree; their gap is the error estimate.  A level
    # the memo lacks is formed on its own; the cap is read here, not where levels are formed
    sums, gaps = levels[0], (math.inf, math.inf)
    for level in range(1, _MAX_DOUBLINGS + 1):
        if level == len(levels):
            # a slice store, so that a level formed meanwhile by another thread is
            # replaced by the same sums rather than appended after it
            levels[level:level + 1] = _panel_sums(x, t, n, g_min, edges, level, level + 1)
        previous, sums = sums, levels[level]
        gaps = (abs(sums[0] - previous[0]), abs(sums[1] - previous[1]))
        if gaps[0] <= _QUAD_RTOL * sums[0] and (not with_velocity
                                                or gaps[1] <= _QUAD_RTOL * sums[2]):
            break
    i0, i1, _ = sums
    err0, err1 = gaps
    if i0 <= 0 or err0 > max(1e-10 * i0, 5e-13):
        raise QuadratureError(
            f"kernel normalization uncertain at x={x}, t={t}, n={n}", error_estimate=err0)
    if not with_velocity:
        return g_min, i0
    if err1 > max(1e-9 * abs(i1), 1e-10 * i0):
        raise QuadratureError(
            f"velocity quadrature uncertain at x={x}, t={t}, n={n}", error_estimate=err1)
    return g_min, i0, i1


def viscous_action(p: PlanePoint, n: int) -> float:
    """Finite-size action from the heat-kernel representation.

    Evaluates -(1/N) log of the Gaussian smoothing of (2 cosh y)**N by
    composite Gauss-Legendre quadrature (order 20) of the max-shifted
    integrand.  The window starts about the outer minimizers that carry
    weight and grows until the weight is below e^-40 at both ends; panels
    split at the stationary points and double until two levels agree to
    2e-12, and that gap is the error estimate carried by QuadratureError.
    Agrees with the sector sum of ``cw_exact`` to quadrature accuracy.
    The level sums of the last (x, t, n) asked, with the sign of x, are
    kept for ``viscous_velocity``; a pass that raises keeps nothing.
    """
    check_size(n)
    if p.t == 0.0:
        raise ValueError("t = 0 has the closed boundary form -log 2 - log cosh x; quadrature needs t > 0")
    g_min, i0 = _kernel_integrals(p.x, p.t, n, with_velocity=False)
    return g_min - (0.5 * math.log(n / p.t) - 0.5 * math.log(2.0 * math.pi) + math.log(i0)) / n


def viscous_velocity(p: PlanePoint, n: int) -> float:
    """Finite-size velocity as a ratio of kernel integrals.

    The weight and the Gauss-Legendre panels are those of
    ``viscous_action``; the numerator carries the factor (x - y) / t, and
    its doubling gap is measured against the integral of |x - y| / t times
    the weight.  Both routes read one set of level sums per point: after
    ``viscous_action`` at the same point and size, this forms only the
    doublings its own stop rule needs past those, and either order gives
    the bits of each route alone.  At x = 0 the integrand is odd around the
    origin and the velocity is returned as exactly zero; at t = 0 the
    closed boundary form -tanh(x) is returned.
    """
    check_size(n)
    if p.t == 0.0:
        return -math.tanh(p.x)
    if p.x == 0.0:
        return 0.0
    _, i0, i1 = _kernel_integrals(p.x, p.t, n, with_velocity=True)
    return i1 / i0


def self_consistent_magnetization(p: PlanePoint) -> float:
    """Velocity branch solving u = -tanh(x - u t) on (-1, 1).

    For t <= 1 the root is unique.  For t > 1 there may be three; the
    branch continuous with sign(-x) is selected.  On the shock line
    (x = 0, t > 1) the velocity is two-valued and ValueError is raised.
    The branch is -tanh(y*) of the Lax-Oleinik minimizer's outer stationary
    point, so, as for the minimizer, only the outer monotone piece of
    u + tanh(x - u t) on the side of x is solved, one bracketed Newton root.
    Next to the critical point (0, 1) that residual cancels, so below
    |z| = 1, z = x - u t, it is formed as (1 - t) u + x - (z - tanh z) with
    the minimizer's gap z - tanh z.  Where the minimizer's bound on the root
    holds (below 0.2), Newton starts and stops relative to it; elsewhere it
    stops at an absolute 2.5e-16, so a root below |u| = 0.5 keeps about
    2.5e-16 / |u| of relative precision: 3.53 units of 2^-52 off a 60-digit
    root at (0.18447, 0.29961), and 7.5 units from ``lax_action``'s u at
    (3.1e-250, 1.0076), |u| = 0.15.  The two routes stay separate solves
    of separate equations.  For subnormal |x| at t = 1 both lose the same
    digits.
    """
    x, t = p.x, p.t
    if t == 0.0:
        return -math.tanh(x)
    if x == 0.0 and t > 1.0:
        raise ValueError("point lies on the shock line (x = 0, t > 1), where the velocity"
                         " is two-valued")

    # |u| <= |y*| is under the minimizer's bound; where there is one, Newton starts at the
    # bound, on the side where it closes in monotonically, and stops relative to it
    bound = _root_bound(x, t)
    start = None if bound is None else (-bound if x > 0 else bound)
    tol = _ROOT_TOL if bound is None else _ROOT_TOL * max(bound, 1e-300)

    def f(u):
        z = x - u * t
        th = math.tanh(z)
        if abs(z) < 1.0:
            # u + tanh z = (1 - t) u + x - (z - tanh z), as for the minimizer
            return (1.0 - t) * u + x - _tanh_gap(z), (1.0 - t) + t * th * th
        return u + th, 1.0 - t * (1.0 - th * th)

    # For x > 0 the piece is (-1, (x - a) / t), a = acosh sqrt(t), cut where f' changes
    # sign if that lies below 1 (a < t puts it above -1); f(-1) <= 0 < f((x - a) / t), as
    # a - t tanh a < 0, so the root is on it.  For x <= 0 it is the mirror image.  u = -1 or u = 1 is the root once
    # tanh rounds to -+1, and it is then the piece's near end: for x > 0,
    # tanh(x - t) = -1 needs t - x > 19, so tanh(x + t) = 1 too
    lo, hi = -1.0, 1.0
    if t > 1.0:
        a = math.acosh(math.sqrt(t))
        cut = (x - a) / t if x > 0 else (x + a) / t
        if -1.0 < cut < 1.0:
            lo, hi = (lo, cut) if x > 0 else (cut, hi)
    f_lo, f_hi = f(lo)[0], f(hi)[0]
    if (f_lo if x > 0 else f_hi) == 0.0:
        return lo if x > 0 else hi
    if f_lo < 0.0 < f_hi:
        u0 = start if start is not None and lo < start < hi else 0.5 * (lo + hi)
        return bracketed_newton(f, lo, hi, u0, tol)
    raise ConvergenceError(f"no self-consistent velocity found at x={x}, t={t}")


def spontaneous_magnetization(t: float) -> float:
    """Positive root m* of m = tanh(t m) for t > 1.

    Newton starts from the small-supercriticality seed m**2 ~ 3(t-1)/t**3,
    on a bracket from half the seed that keeps it off the trivial root m = 0.
    Just above t = 1, m - tanh(t m) cancels to far below the spacing of m,
    so below z = t m = 1 it is formed as (z - tanh z) - (t - 1) m with the
    minimizer's gap z - tanh z, and Newton stops relative to the seed.
    """
    if not math.isfinite(t) or t <= 1.0:
        raise ValueError(f"spontaneous magnetization needs t > 1, got {t}")
    # past t = 1e100, t**3 would overflow; there the seed is sqrt(3) / t to double precision
    seed = math.sqrt(3.0 * (t - 1.0) / t**3) if t < 1e100 else math.sqrt(3.0) / t

    def f(m):
        z = t * m
        th = math.tanh(z)
        value = _tanh_gap(z) - (t - 1.0) * m if z < 1.0 else m - th
        return value, 1.0 - t * (1.0 - th * th)

    # the helper's stop is absolute below |m| = 1, so it is scaled by the seed where
    # t seed < 1; the seed is then within 25 % of m*, below it
    tol = _ROOT_TOL * seed if t * seed < 1.0 else _ROOT_TOL
    # m = 1 is the root to double precision once tanh(t) rounds to 1; the
    # bracket reaches past it so that a Newton step can land there
    return bracketed_newton(f, 0.5 * min(seed, 1.0), 2.0, seed, tol)


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


def characteristic(x0: float, t_max: float, n_points: int = 64) -> np.ndarray:
    """Straight characteristic x(s) = x0 - s tanh(x0), sampled uniformly on [0, t_max].

    Returns an (n_points, 2) array of (x, t) pairs.
    """
    if not math.isfinite(x0):
        raise ValueError(f"launch point must be finite, got {x0}")
    return straight_line(x0, math.tanh(x0), t_max, n_points)


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
    # every pair i < j in row-major order; equal slopes never cross
    i, j = np.triu_indices(x0s.size, k=1)
    dv = slopes[j] - slopes[i]
    valid = dv > 0
    i, j = i[valid], j[valid]
    s_cross = (x0s[j] - x0s[i]) / dv[valid]
    kept = (s_cross > 0) & (s_cross <= t_max)
    i, j, s_cross = i[kept], j[kept], s_cross[kept]
    events = np.column_stack([x0s[i], x0s[j], s_cross, x0s[i] - s_cross * slopes[i]])
    # a crossing at t <= 1 would contradict the strict s > 1 bound; it counts as below
    above = supercritical = 0
    for x0, _, s, x_cross in events.tolist():
        if s > 1.0:
            above += x_cross >= critical_line(s)
            supercritical += x0 >= critical_launch_point(s)
    return CrossingScan(events=events, n_crossings=len(events),
                        n_below_critical_line=len(events) - above, n_above_critical_line=above,
                        n_supercritical_pairs=supercritical)


def symmetry_breaking_limit(t: float, epsilon_sign: str = "plus") -> float:
    """Velocity limit along the tilted line x = eps (t - 1) as eps -> 0.

    The lines all pass through the critical point (0, 1); for t > 1 the
    plus-sign family approaches the shock from x > 0 and recovers
    u_plus = -m*(t), the minus-sign family recovers u_minus = +m*(t).
    The limit is read at eps = 1e-10 and eps = 1e-11, and the two values
    must agree to 1e-8.
    """
    if epsilon_sign not in _BRANCHES:
        raise ValueError(f"epsilon_sign must be one of {_BRANCHES}, got {epsilon_sign!r}")
    if not math.isfinite(t) or t <= 1.0:
        raise ValueError(f"symmetry breaking limit needs t > 1, got {t}")
    sign = 1.0 if epsilon_sign == "plus" else -1.0
    values = [self_consistent_magnetization(PlanePoint(sign * eps * (t - 1.0), t))
              for eps in (10.0 ** -k for k in (10, 11))]
    drift = abs(values[-1] - values[-2])
    if drift > 1e-8:
        raise ConvergenceError(
            f"velocity failed to stabilize along the eps ladder at t={t}", residual=drift)
    return values[-1]
