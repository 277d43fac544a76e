"""Replica-symmetric solver for the mean-field spin glass.

The limiting action of the glassy model solves the same inviscid
Hamilton-Jacobi problem as the ferromagnet, but with the spatial
coordinate promoted to the variance of a Gaussian cavity field.  Its
Lax-Oleinik minimizer is y* = x + t qbar, where the overlap qbar solves
the self-consistency equation

    qbar = E_g tanh^2(beta_h + g sqrt(x + t qbar)),  g ~ N(0, 1).

Gaussian expectations are evaluated with fixed-order Gauss-Hermite
quadrature (order 240, nodes computed once at import and shared
read-only; 120 nodes leave a few 1e-9 of error on the widest cavity
fields in play, 240 brings every case below a few 1e-12).  Gaussian
integration by parts gives the slope of the map exactly,

    d/dq E_g tanh^2(beta_h + g sqrt(x + t q)) = t (3 E_g sech^4 - 2 E_g sech^2),

so one pass over the nodes yields the map and its slope, and the
overlap is solved by bracketed Newton with that slope rather than by a
damped fixed-point iteration.  The caustic margin below is the
replica-symmetric analogue of the characteristic-crossing criterion of
``hj_limit``: where it stays positive, the glassy characteristics do
not cross.  It is exactly (1 - slope) / 3 at the fixed point, so the
margin vanishes where the map stops being a contraction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .plane import ConvergenceError, SkParams

LOG2 = math.log(2.0)

_GH_ORDER = 240
_GH_NODES, _GH_WEIGHTS = np.polynomial.hermite.hermgauss(_GH_ORDER)
_GH_NORM = 1.0 / math.sqrt(math.pi)

_FIXED_POINT_TOL = 1e-12
_NEWTON_MAX_ITER = 100


def _log_cosh(s):
    s = np.asarray(s, dtype=np.float64)
    a = np.abs(s)
    return a + np.log1p(np.exp(-2.0 * a)) - LOG2


def _sech_sq(s):
    s = np.asarray(s, dtype=np.float64)
    out = np.zeros_like(s)
    small = np.abs(s) < 350.0
    out[small] = 1.0 / np.cosh(s[small]) ** 2
    return out


_INTEGRANDS = {
    "log_cosh": _log_cosh,
    "tanh_sq": lambda s: np.tanh(s) ** 2,
    "sech_sq": _sech_sq,
    "sech_4": lambda s: _sech_sq(s) ** 2,
}


def gaussian_expectation(kind: str, beta_h: float, v: float) -> float:
    """E_g f(beta_h + g sqrt(v)) for a standard Gaussian g.

    ``kind`` selects f among log_cosh, tanh_sq, sech_sq, sech_4.  The
    degenerate case v = 0 collapses to f(beta_h) exactly.
    """
    try:
        f = _INTEGRANDS[kind]
    except KeyError:
        raise ValueError(f"unknown integrand kind {kind!r}; choose from {sorted(_INTEGRANDS)}")
    if not (math.isfinite(beta_h) and math.isfinite(v)):
        raise ValueError(f"arguments must be finite, got beta_h={beta_h}, v={v}")
    if v < 0:
        raise ValueError(f"variance v must be >= 0, got {v}")
    if v == 0.0:
        return float(f(beta_h))
    values = f(beta_h + math.sqrt(2.0 * v) * _GH_NODES)
    return float(np.dot(_GH_WEIGHTS, values) * _GH_NORM)


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
    """The overlap map E tanh^2 at q and its exact slope, from one node pass.

    sech^2 is formed as 1 - tanh^2, so the map keeps full relative
    precision at small variance, where the symmetric root sits just
    above t = 1.  The degenerate variance v = 0 collapses exactly.
    """
    v = params.x + params.t * q
    if v == 0.0:
        mapped = math.tanh(params.beta_h) ** 2
        e2 = 1.0 - mapped
        e4 = e2 * e2
    else:
        th2 = np.tanh(params.beta_h + math.sqrt(2.0 * v) * _GH_NODES) ** 2
        s2 = 1.0 - th2
        mapped = float(np.dot(_GH_WEIGHTS, th2) * _GH_NORM)
        e2 = float(np.dot(_GH_WEIGHTS, s2) * _GH_NORM)
        e4 = float(np.dot(_GH_WEIGHTS, s2 * s2) * _GH_NORM)
    return mapped, params.t * (3.0 * e4 - 2.0 * e2)


def solve_qbar(params: SkParams) -> float:
    """Self-consistent overlap by bracketed Newton with the exact slope.

    Solves r(q) = map(q) - q = 0 on [0, 1], where r(0) >= 0 >= r(1),
    starting from the zero-coupling value E_g tanh^2(beta_h + g sqrt(x)).
    Each step uses the slope t (3 E_g sech^4 - 2 E_g sech^2) of the map,
    and falls back to bisection whenever it would leave the bracket.
    At beta_h = 0, x = 0 the equation always admits q = 0; that root is
    returned for t <= 1, while for t > 1 Newton descends from q = 1 on
    the bracket [1e-30, 1], which excludes the trivial root.

    Close to the critical point the slope tends to 1 and the root to 0;
    Newton from q = 1 then halves q per step until it reaches the root
    and converges quadratically, so a solve costs tens of node passes.
    There a residual below 1e-12 does not yet bound the error in q, so
    the iteration stops only once the Newton step is below 2.5e-13 as
    well.  The returned value satisfies |q - map(q)| < 1e-12, measured with
    ``gaussian_expectation("tanh_sq", ...)``; otherwise ConvergenceError
    is raised with that residual.
    """
    symmetric = params.beta_h == 0.0 and params.x == 0.0
    if symmetric:
        if params.t <= 1.0:
            return 0.0
        lo, q = 1e-30, 1.0
    else:
        lo, q = 0.0, _map_and_slope(params, 0.0)[0]
    hi = 1.0
    for _ in range(_NEWTON_MAX_ITER):
        mapped, slope = _map_and_slope(params, q)
        r = mapped - q
        # a flat residual sends the step off the bracket, hence to bisection
        step = r / (1.0 - slope) if slope != 1.0 else math.inf
        # near t = 1 the slope nears 1, where a small residual alone can sit
        # far from the root; the step bounds the distance to it
        if abs(r) < 0.25 * _FIXED_POINT_TOL and abs(step) < 0.25 * _FIXED_POINT_TOL:
            break
        if r > 0.0:
            lo = q
        else:
            hi = q
        q = q + step if lo < q + step < hi else 0.5 * (lo + hi)
    residual = abs(gaussian_expectation("tanh_sq", params.beta_h, params.x + params.t * q) - q)
    if residual >= _FIXED_POINT_TOL:
        raise ConvergenceError(
            f"overlap fixed point did not reach {_FIXED_POINT_TOL} at {params}", residual=residual)
    return q


def _caustic_margin_at(params: SkParams, q_bar: float) -> float:
    return (1.0 - _map_and_slope(params, q_bar)[1]) / 3.0


def caustic_margin(params: SkParams) -> float:
    """Slack in the no-crossing inequality for glassy characteristics.

    Returns (1/3 + (2/3) t E_g sech^2 - t E_g sech^4) evaluated at the
    self-consistent overlap, which is (1 - map'(qbar)) / 3 for the slope
    map' of the overlap map; it comes from the same node pass as the
    Newton slope of ``solve_qbar``.  Positive margin means characteristics
    through this point do not cross; the margin vanishes at the critical
    point (x = 0, beta_h = 0, t = 1) and is a tangential zero there: it
    is positive on both sides along the t axis.
    """
    return _caustic_margin_at(params, solve_qbar(params))


def caustic_root(beta_h: float, x: float = 0.0, t_lo: float = 1e-6, t_hi: float = 4.0,
                 tol: float = 1e-9) -> float:
    """Locate a zero of the caustic margin along the t axis.

    Scans a coarse grid for a sign change and bisects it if one exists.
    Because the margin can touch zero without crossing (it does at
    beta_h = 0, x = 0), a tangential zero is located instead by
    golden-section minimization; if the minimum value stays above ``tol``
    there is no zero in the bracket and ConvergenceError is raised.
    """
    if t_lo <= 0 or t_hi <= t_lo:
        raise ValueError(f"need 0 < t_lo < t_hi, got t_lo={t_lo}, t_hi={t_hi}")

    def margin(t):
        return caustic_margin(SkParams(x=x, t=t, beta_h=beta_h))

    grid = np.linspace(t_lo, t_hi, 97)
    values = np.array([margin(t) for t in grid])
    signs = np.sign(values)
    for i in range(grid.size - 1):
        if signs[i] == 0.0:
            return float(grid[i])
        if signs[i] * signs[i + 1] < 0:
            return _bisect_root(margin, grid[i], grid[i + 1])
    # No sign change: hunt for a tangential zero near the grid minimum.
    j = int(np.argmin(values))
    a = grid[max(j - 1, 0)]
    b = grid[min(j + 1, grid.size - 1)]
    t_min, v_min = _golden_min(margin, a, b)
    if v_min > tol:
        raise ConvergenceError(
            f"caustic margin has no zero in [{t_lo}, {t_hi}] at beta_h={beta_h}, x={x};"
            f" minimum {v_min:.3e} at t={t_min:.6f}", residual=v_min)
    return t_min


def _bisect_root(f, a: float, b: float) -> float:
    fa = f(a)
    for _ in range(200):
        mid = 0.5 * (a + b)
        if b - a < 1e-13:
            return mid
        fm = f(mid)
        if fm == 0.0:
            return mid
        if (fm > 0) == (fa > 0):
            a, fa = mid, fm
        else:
            b = mid
    return 0.5 * (a + b)


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


def _phi_rs_at(params: SkParams, q_bar: float) -> float:
    y_star = params.x + params.t * q_bar
    e_log_cosh = gaussian_expectation("log_cosh", params.beta_h, y_star)
    return 0.5 * params.t * q_bar * q_bar + 2.0 * LOG2 + 2.0 * e_log_cosh - y_star


def rs_action(params: SkParams) -> RsSolution:
    """Replica-symmetric action, minimizer and stability margin.

    The action is the Lax-Oleinik value at the self-consistent minimizer
    y* = x + t qbar, with the boundary datum carrying doubled log 2 and
    log cosh weights so that the t = 0 slice reproduces the one-body
    pressure and -d_x phi(x, 0) = E_g tanh^2(beta_h + g sqrt(x)).  On
    the x = 0 section the thermodynamic pressure is filled in from the
    same overlap, by the closed form of ``rs_pressure``.
    """
    q_bar = solve_qbar(params)
    phi = _phi_rs_at(params, q_bar)
    pressure = None
    if params.x == 0.0:
        if params.t > 0.0:
            pressure, _ = _pressure_at(params, q_bar, phi)
        else:
            # zero-coupling limit of the reconstruction, beta -> 0 at fixed beta*h
            pressure = 0.5 * phi
    return RsSolution(q_bar=q_bar, phi_rs=phi, pressure=pressure,
                      caustic_margin=_caustic_margin_at(params, q_bar),
                      y_star=params.x + params.t * q_bar)


def rs_pressure_detail(beta: float, h: float) -> tuple[float, float]:
    """Replica-symmetric pressure and its reconstruction discrepancy.

    The closed form log 2 + E_g log cosh(beta h + g beta sqrt(qbar))
    + (beta^2 / 4)(1 - qbar)^2 is compared against the half-action
    reconstruction phi(0, beta^2) / 2 + beta^2 / 4; the two agree
    analytically, and the returned discrepancy is the numerical gap.
    """
    if not (math.isfinite(beta) and math.isfinite(h)):
        raise ValueError(f"beta and h must be finite, got beta={beta}, h={h}")
    if beta < 0:
        raise ValueError(f"inverse temperature beta must be >= 0, got {beta}")
    if beta == 0.0:
        return LOG2, 0.0
    params = SkParams(x=0.0, t=beta * beta, beta_h=beta * h)
    q_bar = solve_qbar(params)
    return _pressure_at(params, q_bar, _phi_rs_at(params, q_bar))


def _pressure_at(params: SkParams, q_bar: float, phi: float) -> tuple[float, float]:
    # closed-form pressure on the x = 0 section, and its gap to phi / 2 + t / 4
    e_log_cosh = gaussian_expectation("log_cosh", params.beta_h, params.t * q_bar)
    closed = LOG2 + e_log_cosh + 0.25 * params.t * (1.0 - q_bar) ** 2
    return closed, abs(0.5 * phi + 0.25 * params.t - closed)


def rs_pressure(beta: float, h: float) -> float:
    """Replica-symmetric pressure at inverse temperature beta and field h.

    Verifies the half-action reconstruction to 1e-10 as a self-check and
    raises ConvergenceError if the two routes disagree.
    """
    pressure, discrepancy = rs_pressure_detail(beta, h)
    if discrepancy > 1e-10:
        raise ConvergenceError(
            f"pressure reconstruction mismatch {discrepancy:.3e} at beta={beta}, h={h}",
            residual=discrepancy)
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
    if not math.isfinite(t_max) or t_max < 0:
        raise ValueError(f"t_max must be finite and >= 0, got {t_max}")
    if n_points < 2:
        raise ValueError(f"need at least 2 points, got {n_points}")
    slope = gaussian_expectation("tanh_sq", beta_h, x0)
    s = np.linspace(0.0, t_max, n_points)
    return np.column_stack((x0 - s * slope, s))
