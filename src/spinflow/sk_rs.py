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
The caustic margin below is the replica-symmetric analogue of the
characteristic-crossing criterion of ``hj_limit``: where it stays
positive, the glassy characteristics do not cross.  It is exactly
(1 - slope) / 3 at the fixed point, so the margin vanishes where the map
stops being a contraction.  The slope and the acceptance residual
|q - map(q)| come from the solve's last node pass, so the residual is
``gaussian_expectation("tanh_sq", ...)`` minus q by construction and
cannot see the rule's own error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .plane import (LOG2, ConvergenceError, SkParams, bracketed_newton, gauss_rule, log_cosh,
                    straight_line)

_GH_ORDER = 240
_GH_NORM = 1.0 / math.sqrt(math.pi)

_FIXED_POINT_TOL = 1e-12


# the tanh kinds first, in the order _tanh_moments returns them
_KINDS = ("tanh_sq", "sech_sq", "sech_4", "log_cosh")


def _tanh_moments(beta_h: float, v: float) -> tuple[float, float, float]:
    """E_g tanh^2, E_g sech^2 and E_g sech^4 of beta_h + g sqrt(v), from one node pass.

    sech^2 is 1 - tanh^2, which keeps the map's relative precision at small variance,
    where the symmetric root sits just above t = 1; v = 0 collapses exactly.
    """
    if v == 0.0:
        th2 = np.tanh(beta_h) ** 2
        return float(th2), float(1.0 - th2), float((1.0 - th2) ** 2)
    nodes, weights = gauss_rule(np.polynomial.hermite.hermgauss, _GH_ORDER)
    th2 = np.tanh(beta_h + math.sqrt(2.0 * v) * nodes) ** 2
    s2 = 1.0 - th2
    return (float(np.dot(weights, th2) * _GH_NORM), float(np.dot(weights, s2) * _GH_NORM),
            float(np.dot(weights, s2 * s2) * _GH_NORM))


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
        return _tanh_moments(beta_h, v)[_KINDS.index(kind)]
    if v == 0.0:
        return float(log_cosh(beta_h))
    nodes, weights = gauss_rule(np.polynomial.hermite.hermgauss, _GH_ORDER)
    # log cosh s <= |s| and the weights sum to sqrt(pi) < 2, so this bounds the
    # weighted sum; Python floats, so that forming the bound cannot warn
    largest = abs(float(beta_h)) + math.sqrt(2.0 * float(v)) * float(nodes[-1])
    if not math.isfinite(2.0 * largest):
        raise OverflowError(f"E log cosh overflows at beta_h={beta_h}, v={v}")
    return float(np.dot(weights, log_cosh(beta_h + math.sqrt(2.0 * v) * nodes)) * _GH_NORM)


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


def _map_and_slope(params: SkParams, q: float) -> tuple[float, float]:
    """The overlap map E tanh^2 at q and its exact slope, from one node pass."""
    mapped, e2, e4 = _tanh_moments(params.beta_h, params.x + params.t * q)
    return mapped, params.t * (3.0 * e4 - 2.0 * e2)


def solve_qbar(params: SkParams) -> float:
    """Self-consistent overlap by bracketed Newton with the exact slope.

    Solves r(q) = map(q) - q = 0 on [0, 1], where r(0) >= 0 >= r(1),
    starting from the zero-coupling value E_g tanh^2(beta_h + g sqrt(x)).
    Each step uses the slope t (3 E_g sech^4 - 2 E_g sech^2) of the map,
    and falls back to bisection whenever it would leave the bracket.
    At beta_h = 0, x = 0 the equation always admits q = 0.  For t <= 1
    it is the root, and the start map(0) = 0 is already an exact zero of
    the residual; for t > 1 Newton descends from q = 1 on the bracket
    [1e-30, 1], which excludes the trivial root.

    Close to the critical point the slope tends to 1 and the root to 0;
    Newton from q = 1 then halves q per step until it reaches the root
    and converges quadratically, so a solve costs tens of node passes.
    There a residual below 1e-12 does not yet bound the error in q, so
    the iteration stops only once the Newton step is below 2.5e-13 as
    well.  The returned value satisfies |q - map(q)| < 1e-12, read from
    the Newton's last node pass; otherwise, or when the Newton budget runs
    out, ConvergenceError is raised with the residual.  That residual is
    |q - gaussian_expectation("tanh_sq", ...)| by construction, since both
    read ``_tanh_moments``, so it cannot see the rule's own error.
    OverflowError is raised when the variance x + t q can overflow on the
    bracket.
    """
    return _solve(params)[0]


def _solve(params: SkParams) -> tuple[float, float]:
    # the overlap and the map's slope there, both from the node pass that accepts it
    # the root is 1 to double precision wherever x + t overflows, so v = x + t q_bar would too
    if not math.isfinite(float(params.x) + float(params.t)):
        raise OverflowError(f"overlap variance x + t q overflows at x={params.x}, t={params.t}, "
                            f"beta_h={params.beta_h}")
    if params.beta_h == 0.0 and params.x == 0.0 and params.t > 1.0:
        lo, q = 1e-30, 1.0
    else:
        lo, q = 0.0, _map_and_slope(params, 0.0)[0]
    last = []  # map and slope of the latest pass; bracketed_newton returns its point

    def excess(q):
        # q - map(q): negative below the root, positive above it
        last[:] = _map_and_slope(params, q)
        return q - last[0], 1.0 - last[1]

    # near t = 1 the slope nears 1, where a small residual alone can sit
    # far from the root; the Newton step bounds the distance to it
    stop = 0.25 * _FIXED_POINT_TOL
    failure = f"overlap fixed point did not reach {_FIXED_POINT_TOL} at {params}"
    try:
        q = bracketed_newton(excess, lo, 1.0, q, stop, residual_tol=stop)
    except ConvergenceError as err:
        raise ConvergenceError(failure, residual=err.residual) from None
    residual = abs(q - last[0])
    if residual >= _FIXED_POINT_TOL:
        raise ConvergenceError(failure, residual=residual)
    return q, last[1]


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
    return (1.0 - _solve(params)[1]) / 3.0


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


def _phi_rs_at(params: SkParams, q_bar: float) -> tuple[float, float]:
    # the action and the E log cosh it holds; on the x = 0 section that is the
    # pressure's E log cosh too, at the same variance t q_bar
    y_star = params.x + params.t * q_bar
    e_log_cosh = gaussian_expectation("log_cosh", params.beta_h, y_star)
    return 0.5 * params.t * q_bar * q_bar + 2.0 * LOG2 + 2.0 * e_log_cosh - y_star, e_log_cosh


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
    q_bar, slope = _solve(params)
    phi, e_log_cosh = _phi_rs_at(params, q_bar)
    pressure = LOG2 + e_log_cosh + 0.25 * params.t * (1.0 - q_bar) ** 2 if params.x == 0.0 else None
    return RsSolution(q_bar=q_bar, phi_rs=phi, pressure=pressure,
                      caustic_margin=(1.0 - slope) / 3.0, y_star=params.x + params.t * q_bar)


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
    f1, f2 = (_phi_rs_at(replace(params, x=params.x + k * dx), q_bar)[0] for k in (1, 2))
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
