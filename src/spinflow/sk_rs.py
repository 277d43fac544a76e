"""Replica-symmetric solver for the mean-field spin glass.

The limiting action of the glassy model solves the same inviscid
Hamilton-Jacobi problem as the ferromagnet, but with the spatial
coordinate promoted to the variance of a Gaussian cavity field.  Its
Lax-Oleinik minimizer is y* = x + t qbar, where the overlap qbar solves
the self-consistency equation

    qbar = E_g tanh^2(beta_h + g sqrt(x + t qbar)),  g ~ N(0, 1).

Gaussian expectations are evaluated with fixed-order Gauss-Hermite
quadrature (order 240, nodes built on first use and shared read-only;
120 nodes leave a few 1e-9 of error on the widest cavity fields in
play, 240 brings every case below a few 1e-12 while the variance v
stays below about 2; at v = 4 sech^4 is off by 2e-7).  Gaussian
integration by parts gives the slope of the map exactly,

    d/dq E_g tanh^2(beta_h + g sqrt(x + t q)) = t (3 E_g sech^4 - 2 E_g sech^2),

so one pass over the nodes yields the map and its slope, and the overlap
is solved by bracketed Newton with that slope rather than by a damped
fixed-point iteration.  That pass, ``_tanh_moments``, is the only place
tanh meets the nodes: ``gaussian_expectation`` reads its tanh_sq,
sech_sq and sech_4 kinds from it too, and only log_cosh has a pass of
its own, so a change of quadrature rule replaces these two passes alone.
Both passes take a list of lanes, one per point: a grid of points is
solved in lockstep, each point running its own ``plane.newton_steps``
and each round evaluating the map at every iterate still running in one
node pass over a (lanes, nodes) block.  A lane's sums keep the bits of
a one-point pass, so ``rs_actions`` and ``caustic_margins`` return, point
by point, what ``rs_action`` and ``caustic_margin`` return or raise;
those are the one-lane case.  The caustic margin below is the
replica-symmetric analogue of the characteristic-crossing criterion of
``hj_limit``: where it stays positive, the glassy characteristics do not
cross.  It is exactly (1 - slope) / 3 at the fixed point, so the margin
vanishes where the map stops being a contraction.  The slope and the
acceptance residual |q - map(q)| come from the solve's last node pass,
so the residual is ``gaussian_expectation("tanh_sq", ...)`` minus q by
construction and cannot see the rule's own error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .plane import (LOG2, ConvergenceError, SkParams, gauss_rule, log_cosh, newton_steps,
                    straight_line)

_GH_ORDER = 240
_GH_NORM = 1.0 / math.sqrt(math.pi)
# lanes per node pass: in interleaved timings of rs-critical sweeps 32 to 96
# lanes ran alike, 16 ran 10 % slower and 128 3 % slower; over 20 passes the
# peak memory stayed at the one-point solve's up to 32 lanes (a plane of 32 x
# 240 doubles is 61 kB) and grew by 0.17 MB at 64 and 0.5 MB at 128
_LANES = 32

_FIXED_POINT_TOL = 1e-12


# the tanh kinds first, in the order _tanh_moments returns them
_KINDS = ("tanh_sq", "sech_sq", "sech_4", "log_cosh")


def _node_args(nodes, beta_h: list, v: list):
    # one row of beta_h + sqrt(2 v) x nodes per lane; square roots in Python
    # floats, so that 2 v overflowing to inf cannot warn
    scale = np.array([math.sqrt(2.0 * w) for w in v])
    return np.array(beta_h, dtype=np.float64)[:, None] + scale[:, None] * nodes


def _node_means(weights, rows) -> np.ndarray:
    # E_g of each row; a stacked matmul of (1, n) by (n, 1) products keeps the
    # bits of np.dot(weights, row), which gemv, einsum and row sums do not
    return np.matmul(rows[:, None, :], weights[:, None])[:, 0, 0] * _GH_NORM


def _blocks(values: list) -> list:
    # the lanes whose value is still None, in blocks of at most _LANES
    pending = [i for i, value in enumerate(values) if value is None]
    return [pending[k:k + _LANES] for k in range(0, len(pending), _LANES)]


def _tanh_moments(beta_h: list, v: list) -> list:
    """Per lane, E_g tanh^2, E_g sech^2 and E_g sech^4 of beta_h + g sqrt(v).

    ``beta_h`` and ``v`` hold one entry per lane, and the lanes share one
    node pass, in blocks of at most _LANES.  sech^2 is 1 - tanh^2, which
    keeps the map's relative precision at small variance, where the
    symmetric root sits just above t = 1; a lane at v = 0 collapses exactly.
    Each mean is clamped to at most 1: the weights times 1/sqrt(pi) sum to
    1 + 2^-52, so a row of ones would read just above 1.
    """
    nodes, weights = gauss_rule(np.polynomial.hermite.hermgauss, _GH_ORDER)
    if len(v) == 1 and v[0] != 0.0:
        # a lone lane, as in a one-point solve, takes the fewest numpy calls:
        # one row, updated in place, and np.dot sums scaled in Python floats
        th2 = math.sqrt(2.0 * v[0]) * nodes
        th2 += beta_h[0]
        np.tanh(th2, out=th2)
        th2 *= th2
        s2 = 1.0 - th2
        tanh_sq = float(np.dot(weights, th2)) * _GH_NORM
        sech_sq = float(np.dot(weights, s2)) * _GH_NORM
        sech_4 = float(np.dot(weights, s2 * s2)) * _GH_NORM
        # clamped by comparisons, which keep a NaN as min(m, 1.0) would and cost
        # less than three calls to min
        return [(1.0 if tanh_sq > 1.0 else tanh_sq, 1.0 if sech_sq > 1.0 else sech_sq,
                 1.0 if sech_4 > 1.0 else sech_4)]
    moments = [None] * len(v)
    for i, w in enumerate(v):
        if w == 0.0:
            th2 = np.tanh(beta_h[i]) ** 2
            moments[i] = (float(th2), float(1.0 - th2), float((1.0 - th2) ** 2))
    for lanes in _blocks(moments):
        # the three kinds' rows stacked, so that one matmul and one clamp serve them all
        rows = np.empty((3, len(lanes), _GH_ORDER))
        th2, s2, s4 = rows
        np.tanh(_node_args(nodes, [beta_h[i] for i in lanes], [v[i] for i in lanes]), out=th2)
        np.square(th2, out=th2)
        np.subtract(1.0, th2, out=s2)
        np.multiply(s2, s2, out=s4)
        means = np.minimum(_node_means(weights, rows.reshape(-1, _GH_ORDER)), 1.0)
        for i, lane in zip(lanes, zip(*means.reshape(3, -1).tolist())):
            moments[i] = lane
    return moments


def _log_cosh_means(beta_h: list, v: list) -> list:
    """Per lane, E_g log cosh(beta_h + g sqrt(v)), or an OverflowError if the sum would overflow.

    The lanes share one node pass, in blocks of at most _LANES; a lane at
    v = 0 collapses to log cosh beta_h exactly.
    """
    nodes, weights = gauss_rule(np.polynomial.hermite.hermgauss, _GH_ORDER)
    top = float(nodes[-1])
    means = [None] * len(v)
    for i, (b, w) in enumerate(zip(beta_h, v)):
        if w == 0.0:
            means[i] = float(log_cosh(b))
        # log cosh s <= |s| and the weights sum to sqrt(pi) < 2, so this bounds the
        # weighted sum; Python floats, so that forming the bound cannot warn
        elif not math.isfinite(2.0 * (abs(float(b)) + math.sqrt(2.0 * float(w)) * top)):
            means[i] = OverflowError(f"E log cosh overflows at beta_h={b}, v={w}")
    for lanes in _blocks(means):
        rows = log_cosh(_node_args(nodes, [beta_h[i] for i in lanes], [v[i] for i in lanes]))
        for i, mean in zip(lanes, _node_means(weights, rows).tolist()):
            means[i] = mean
    return means


def _one(result):
    # a lane's value, or its exception raised
    if isinstance(result, Exception):
        raise result
    return result


def gaussian_expectation(kind: str, beta_h: float, v: float) -> float:
    """E_g f(beta_h + g sqrt(v)) for a standard Gaussian g.

    ``kind`` selects f among log_cosh, tanh_sq, sech_sq, sech_4; the last
    three come from the node pass of the overlap map, where sech^2 is
    formed as 1 - tanh^2.  The degenerate case v = 0 collapses to
    f(beta_h) exactly.  OverflowError is raised when the log_cosh sum
    would overflow.
    """
    if kind not in _KINDS:
        raise ValueError(f"unknown integrand kind {kind!r}; choose from {sorted(_KINDS)}")
    if not (math.isfinite(beta_h) and math.isfinite(v)):
        raise ValueError(f"arguments must be finite, got beta_h={beta_h}, v={v}")
    if v < 0:
        raise ValueError(f"variance v must be >= 0, got {v}")
    if kind != "log_cosh":
        return _tanh_moments([beta_h], [v])[0][_KINDS.index(kind)]
    return _one(_log_cosh_means([beta_h], [v])[0])


@dataclass(frozen=True)
class RsSolution:
    """Replica-symmetric summary at one parameter point.

    ``pressure`` is filled only on the x = 0 section, where the action
    reconstructs the thermodynamic pressure; elsewhere it is None.
    """

    q_bar: float
    phi_rs: float
    pressure: float | None
    caustic_margin: float
    y_star: float

    @property
    def u(self) -> float:
        return -self.q_bar


def solve_qbar(params: SkParams) -> float:
    """Self-consistent overlap by bracketed Newton with the exact slope.

    Solves r(q) = map(q) - q = 0 on [0, 1], where r(0) >= 0 >= r(1),
    starting from the zero-coupling value E_g tanh^2(beta_h + g sqrt(x)).
    Each step uses the slope t (3 E_g sech^4 - 2 E_g sech^2) of the map,
    and falls back to bisection whenever it would leave the bracket.
    At beta_h = 0, x = 0 the equation always admits q = 0.  For t <= 1
    it is the root, and the start map(0) = 0 is already an exact zero of
    the residual; for t > 1 Newton runs on the bracket [1e-30, 1], which
    excludes the trivial root, from q = 1.

    Close to the critical point the slope tends to 1 and the root to 0,
    so for 1 < t < 1.5 Newton starts from the series root
    q0 = (t - 1) / (2 t^2) instead, and a solve costs 3 to 6 node passes.
    There a small residual does not yet bound the error in q, so the
    iteration stops only once both the residual and the Newton step are
    below 2.5e-13 q0 (2.5e-13 from q = 1).  q - map(q) still cancels to
    O((t - 1) q), so q keeps a relative error of about 1e-16 / (t - 1):
    2e-4 at t - 1 = 1e-12, 3e-12 at 1e-4.  The returned value satisfies
    |q - map(q)| < 1e-12, read from the Newton's last node pass;
    otherwise, or when the Newton budget runs out, ConvergenceError is
    raised with the residual.  That residual is
    |q - gaussian_expectation("tanh_sq", ...)| by construction, since both
    read ``_tanh_moments``, so it cannot see the rule's own error.
    OverflowError is raised when the variance x + t q can overflow on the
    bracket.  This is the one-point case of the lockstep solve behind
    ``rs_actions`` and ``caustic_margins``.
    """
    return _one(_solve_lanes([params])[0])[0]


def _failure(params: SkParams) -> str:
    return f"overlap fixed point did not reach {_FIXED_POINT_TOL} at {params}"


def _solve_lanes(points: list) -> list:
    """Per point, (q_bar, the map's slope there) or the exception its solve raises.

    Each point runs its own ``newton_steps``; a round evaluates the map at the
    iterates of all the points still running in one ``_tanh_moments`` pass,
    so a grid costs as many rounds as its slowest point.  The slope and the
    acceptance residual come from the pass that accepts q_bar.
    """
    solved = [None] * len(points)
    # per lane: its point, its Newton, the iterate and the point's index; a lane
    # whose Newton starts from the zero-coupling value map(0) has no Newton yet
    running = []
    # near t = 1 the slope nears 1, where a small residual alone can sit
    # far from the root; the Newton step bounds the distance to it
    stop = 0.25 * _FIXED_POINT_TOL
    for i, params in enumerate(points):
        # the root is 1 to double precision wherever x + t overflows, so v = x + t q_bar would too
        if not math.isfinite(float(params.x) + float(params.t)):
            solved[i] = OverflowError(f"overlap variance x + t q overflows at x={params.x}, "
                                      f"t={params.t}, beta_h={params.beta_h}")
        elif params.beta_h == 0.0 and params.x == 0.0 and params.t > 1.0:
            # below t = 1.5 from the series root (t - 1)/(2 t^2), with stops
            # relative to it, since q_bar is about that small; above, from q = 1
            t = params.t
            start = (t - 1.0) / (2.0 * t * t) if t < 1.5 else 1.0
            steps = newton_steps(1e-30, 1.0, start, stop * start, residual_tol=stop * start)
            running.append((params, steps, next(steps), i))
        else:
            running.append((params, None, 0.0, i))
    while running:
        beta_h, v = [], []
        for params, _, q, _ in running:
            beta_h.append(params.beta_h)
            v.append(params.x + params.t * q)
        still = []
        for (params, steps, q, i), (mapped, e2, e4) in zip(running, _tanh_moments(beta_h, v)):
            if steps is None:
                steps = newton_steps(0.0, 1.0, mapped, stop, residual_tol=stop)
                still.append((params, steps, next(steps), i))
                continue
            slope = params.t * (3.0 * e4 - 2.0 * e2)
            try:
                # q - map(q): negative below the root, positive above it
                still.append((params, steps, steps.send((q - mapped, 1.0 - slope)), i))
            except StopIteration:  # the Newton accepts q, the iterate of this pass
                residual = abs(q - mapped)
                solved[i] = ((q, slope) if residual < _FIXED_POINT_TOL
                             else ConvergenceError(_failure(params), residual=residual))
            except ConvergenceError as err:
                solved[i] = ConvergenceError(_failure(params), residual=err.residual)
        running = still
    return solved


def caustic_margins(points: list) -> list:
    """Per point, its ``caustic_margin`` or the exception that raises, from one lockstep solve."""
    return [s if isinstance(s, Exception) else (1.0 - s[1]) / 3.0 for s in _solve_lanes(points)]


def caustic_margin(params: SkParams) -> float:
    """Slack in the no-crossing inequality for glassy characteristics.

    Returns (1/3 + (2/3) t E_g sech^2 - t E_g sech^4) evaluated at the
    self-consistent overlap, which is (1 - map'(qbar)) / 3 for the slope
    map' of the overlap map; the slope is read from the last node pass
    of the overlap solve, the one that accepts qbar.  Positive margin
    means characteristics through this point do not cross; the margin
    vanishes at the critical point (x = 0, beta_h = 0, t = 1) and is a
    tangential zero there: it is positive on both sides along the t axis.
    """
    return _one(caustic_margins([params])[0])


def caustic_root(beta_h: float) -> float:
    """Locate a zero of the caustic margin along the t axis at x = 0.

    The margin (1 - map'(qbar)) / 3 never goes negative: by the
    Latala-Guerra lemma (Talagrand, Spin Glasses: A Challenge for
    Mathematicians, 2003), E_g tanh^2(beta_h + g sqrt(w)) / w strictly
    decreases in w, so map' < 1 wherever qbar > 0.  A zero can only be
    tangential, as at beta_h = 0, x = 0, t = 1, so it is located as the
    golden-section minimum of the margin over [1e-6, 4]; if that minimum
    stays above 1e-9 there is no zero in the bracket and ConvergenceError
    is raised with the minimum as residual.
    """
    t_lo, t_hi = 1e-6, 4.0

    def margin(t):
        return caustic_margin(SkParams(x=0.0, t=t, beta_h=beta_h))

    t_min, v_min = _golden_min(margin, t_lo, t_hi)
    if v_min > 1e-9:
        raise ConvergenceError(
            f"caustic margin has no zero in [{t_lo}, {t_hi}] at beta_h={beta_h}, x=0.0;"
            f" minimum {v_min:.3e} at t={t_min:.6f}", residual=v_min)
    return t_min


_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def _golden_min(f, a: float, b: float) -> tuple[float, float]:
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(120):
        if b - a < 1e-13:
            break
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - _GOLDEN * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _GOLDEN * (b - a)
            fd = f(d)
    t = c if fc <= fd else d
    return float(t), float(min(fc, fd))


def _phi_rs(params: SkParams, q_bar: float, e_log_cosh: float) -> float:
    # the action from the E log cosh at variance y* = x + t q_bar; on the x = 0
    # section that is the pressure's E log cosh too
    y_star = params.x + params.t * q_bar
    return 0.5 * params.t * q_bar * q_bar + 2.0 * LOG2 + 2.0 * e_log_cosh - y_star


def rs_actions(points: list) -> list:
    """Per point, its ``rs_action`` or the exception that raises.

    The overlaps come from one lockstep solve, and the E_g log cosh of
    every solved point from one more node pass.
    """
    solved = _solve_lanes(points)
    done = [i for i, s in enumerate(solved) if not isinstance(s, Exception)]
    means = _log_cosh_means([points[i].beta_h for i in done],
                            [points[i].x + points[i].t * solved[i][0] for i in done])
    for i, e_log_cosh in zip(done, means):
        if isinstance(e_log_cosh, Exception):
            solved[i] = e_log_cosh
            continue
        params, (q_bar, slope) = points[i], solved[i]
        pressure = (LOG2 + e_log_cosh + 0.25 * params.t * (1.0 - q_bar) ** 2
                    if params.x == 0.0 else None)
        solved[i] = RsSolution(q_bar=q_bar, phi_rs=_phi_rs(params, q_bar, e_log_cosh),
                               pressure=pressure, caustic_margin=(1.0 - slope) / 3.0,
                               y_star=params.x + params.t * q_bar)
    return solved


def rs_action(params: SkParams) -> RsSolution:
    """Replica-symmetric action, minimizer and stability margin.

    The action is the Lax-Oleinik value at the self-consistent minimizer
    y* = x + t qbar, with the boundary datum carrying doubled log 2 and
    log cosh weights so that the t = 0 slice reproduces the one-body
    pressure and -d_x phi(x, 0) = E_g tanh^2(beta_h + g sqrt(x)).  On
    the x = 0 section the thermodynamic pressure is filled in from the
    same overlap, by the closed form of ``rs_pressure``.  The margin comes
    from the overlap solve's last pass, so E_g log cosh is the only other.
    """
    return _one(rs_actions([params])[0])


def rs_pressure_detail(beta: float, h: float) -> tuple[float, float]:
    """Replica-symmetric pressure and its reconstruction discrepancy.

    The closed form log 2 + E_g log cosh(beta h + g beta sqrt(qbar))
    + (beta^2 / 4)(1 - qbar)^2 is compared against the half-action
    reconstruction phi(0, beta^2) / 2 + beta^2 / 4; the two agree
    analytically, and the returned discrepancy is the numerical gap.
    """
    return _pressure_checks(beta, h)[:2]


def _pressure_checks(beta: float, h: float) -> tuple[float, float, float]:
    # closed-form pressure with the gaps of its reconstruction and envelope checks
    if not (math.isfinite(beta) and math.isfinite(h)):
        raise ValueError(f"beta and h must be finite, got beta={beta}, h={h}")
    if beta < 0:
        raise ValueError(f"inverse temperature beta must be >= 0, got {beta}")
    params = SkParams(x=0.0, t=beta * beta, beta_h=beta * h)
    sol = rs_action(params)
    discrepancy = abs(0.5 * sol.phi_rs + 0.25 * params.t - sol.pressure)
    return sol.pressure, discrepancy, _envelope_gap(params, sol.q_bar, sol.phi_rs)


def _envelope_gap(params: SkParams, q_bar: float, phi: float) -> float:
    # |d_x phi_rs + qbar| at fixed qbar, by a second-order forward difference
    # (x - dx leaves the domain where qbar = 0); the difference floor is about 1e-8
    dx = 1e-5 * (1.0 + params.x + params.t * q_bar)
    shifted = [replace(params, x=params.x + k * dx) for k in (1, 2)]
    means = _log_cosh_means([p.beta_h for p in shifted], [p.x + p.t * q_bar for p in shifted])
    f1, f2 = (_phi_rs(p, q_bar, _one(e_log_cosh)) for p, e_log_cosh in zip(shifted, means))
    return abs((4.0 * f1 - 3.0 * phi - f2) / (2.0 * dx) + q_bar)


def rs_pressure(beta: float, h: float) -> float:
    """Replica-symmetric pressure at inverse temperature beta and field h.

    Raises ConvergenceError unless the half-action reconstruction holds to
    1e-10 and the envelope identity d_x phi_rs = -qbar to 1e-6.  The first
    shares E_g log cosh between its routes; the second ties it to the
    overlap map, and fails from beta = 3.36 on at h = 0 (3.38 at h = 0.1,
    3.49 at h = 0.3, 3.66 at h = 1), where the Gauss-Hermite sums lose
    accuracy at wide variance.
    """
    pressure, discrepancy, envelope = _pressure_checks(beta, h)
    if discrepancy > 1e-10:
        raise ConvergenceError(
            f"pressure reconstruction mismatch {discrepancy:.3e} at beta={beta}, h={h}",
            residual=discrepancy)
    if envelope > 1e-6:
        raise ConvergenceError(
            f"envelope identity d_x phi = -qbar off by {envelope:.3e} at beta={beta}, h={h}",
            residual=envelope)
    return pressure


def rs_characteristic(x0: float, t_max: float, n_points: int = 64,
                      beta_h: float = 0.0) -> np.ndarray:
    """Glassy characteristic x(s) = x0 - s E_g tanh^2(beta_h + g sqrt(x0)).

    Returns an (n_points, 2) array of (x, t) pairs on a uniform grid of
    [0, t_max].  The line through x0 = 0 at beta_h = 0 is vertical, the
    analogue of the ferromagnetic shock precursor.
    """
    if not math.isfinite(x0) or x0 < 0:
        raise ValueError(f"launch variance x0 must be finite and >= 0, got {x0}")
    return straight_line(x0, gaussian_expectation("tanh_sq", beta_h, x0), t_max, n_points)
