"""Exact finite-size thermodynamics of the mean-field ferromagnet.

All fields come from the closed sum over magnetization sectors

    Z(x, t) = sum_k  C(N, k) * exp(N * (t * m_k**2 / 2 + x * m_k)),

with sector magnetization ``m_k = (2k - N) / N``, evaluated in log space.
Moments of ``m`` are weighted sector averages, so every derived quantity
(velocity, potential, conservation residuals) is exact up to roundoff and
never obtained by numerical differentiation.  The minus log-partition per
spin plays the role of an action density: it satisfies a viscous
Hamilton-Jacobi equation whose residual operations below check the
identity with centered finite differences.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln, logsumexp

from .plane import PlanePoint

LOG2 = math.log(2.0)


@dataclass(frozen=True)
class ExactCwFields:
    """Exact sector-sum fields at one plane point for N spins.

    ``moments[j]`` holds the magnetization moment of order ``j + 1``.
    ``phi`` is the action density (minus log-partition per spin), ``u`` the
    velocity field (minus mean magnetization), ``potential`` half the
    magnetization variance.
    """

    n: int
    x: float
    t: float
    phi: float
    u: float
    potential: float
    moments: np.ndarray


def _check_n(n: int):
    if not isinstance(n, (int, np.integer)) or n < 1:
        raise ValueError(f"system size n must be a positive integer, got {n!r}")


def _sector_log_weights(x: float, t: float, n: int):
    # |log-weight| <= n (|t|/2 + |x| + log 2); twice that bounds the spread
    # that the max shift of the callers subtracts.  Python floats, so that a
    # numpy scalar from a sweep axis cannot warn while the bound is formed.
    if not math.isfinite(2.0 * int(n) * (0.5 * abs(float(t)) + abs(float(x)) + 1.0)):
        raise OverflowError(f"sector log-weights overflow at x={x}, t={t}, n={n}, "
                            "so phi and its derivatives cannot be formed in double precision")
    k = np.arange(n + 1, dtype=np.float64)
    m = (2.0 * k - n) / n
    # summing the two factorial terms before subtracting keeps the weights
    # bitwise symmetric under k -> n - k, so mirror pairs cancel exactly
    log_binom = gammaln(n + 1.0) - (gammaln(k + 1.0) + gammaln(n - k + 1.0))
    return m, log_binom + n * (0.5 * t * m * m + x * m)


def log_partition(p: PlanePoint, n: int) -> float:
    """Log-partition per spin, (1/N) log Z(x, t), via a stable log-sum-exp."""
    _check_n(n)
    _, logw = _sector_log_weights(p.x, p.t, n)
    return float(logsumexp(logw)) / n


def exact_fields(p: PlanePoint, n: int, k_max: int = 4) -> ExactCwFields:
    """Action, velocity, potential and magnetization moments at one point.

    Moments are computed by pairing the sector k with its mirror N - k so
    that odd moments vanish identically (not just to roundoff) when x = 0.
    The potential is assembled as half a centered second moment, a sum of
    non-negative terms, so it can never round below zero.
    """
    _check_n(n)
    if k_max < 4:
        raise ValueError(f"k_max must be >= 4 so conservation residuals are computable, got {k_max}")
    m, logw = _sector_log_weights(p.x, p.t, n)
    shift = logw.max()
    w = np.exp(logw - shift)
    z = w.sum()

    lo = np.arange((n + 1) // 2)
    w_lo = w[lo]
    w_hi = w[n - lo]
    m_lo = m[lo]

    moments = np.empty(k_max, dtype=np.float64)
    for j in range(1, k_max + 1):
        paired = w_lo - w_hi if j % 2 else w_lo + w_hi
        moments[j - 1] = float(np.dot(m_lo**j, paired) / z)

    phi = -(shift + math.log(z)) / n
    u = -moments[0]
    prob = w / z
    potential = 0.5 * float(np.dot(prob, (m - moments[0]) ** 2))
    return ExactCwFields(n=n, x=p.x, t=p.t, phi=phi, u=u, potential=potential, moments=moments)


def _phi(x: float, t: float, n: int) -> float:
    return -log_partition(PlanePoint(x, t), n)


def hj_residual(p: PlanePoint, n: int, step: float = 1e-3) -> float:
    """Absolute residual of the viscous Hamilton-Jacobi identity.

    Checks d_t phi + (d_x phi)**2 / 2 - d_xx phi / (2 N) = 0 with centered
    finite differences of the exact action, so the residual is pure
    discretization error, of order step**2.
    """
    _check_n(n)
    if step <= 0:
        raise ValueError(f"finite-difference step must be > 0, got {step}")
    if p.t - step < 0:
        raise ValueError(f"need t - step >= 0, got t={p.t}, step={step}")
    x, t = p.x, p.t
    phi_0 = _phi(x, t, n)
    d_t = (_phi(x, t + step, n) - _phi(x, t - step, n)) / (2 * step)
    d_x = (_phi(x + step, t, n) - _phi(x - step, t, n)) / (2 * step)
    d_xx = (_phi(x + step, t, n) - 2 * phi_0 + _phi(x - step, t, n)) / step**2
    return abs(d_t + 0.5 * d_x * d_x - d_xx / (2 * n))


def _log_density(x: float, t: float, n: int) -> float:
    # Fluid density: the doubled-interaction partition sum, normalized by 2**N.
    return n * (log_partition(PlanePoint(x, 2 * t), n) - LOG2)


def continuity_residual(p: PlanePoint, n: int, step: float = 1e-3) -> float:
    """Absolute residual of the transported log-density identity.

    The density rho(x, t) is the partition sum at doubled interaction; its
    material derivative along the flow equals 2 N times the potential, both
    evaluated at the doubled-interaction point.  Derivatives of log rho use
    centered differences; velocity and potential come from exact_fields.
    """
    _check_n(n)
    if step <= 0:
        raise ValueError(f"finite-difference step must be > 0, got {step}")
    if p.t - step < 0:
        raise ValueError(f"need t - step >= 0, got t={p.t}, step={step}")
    x, t = p.x, p.t
    d_t = (_log_density(x, t + step, n) - _log_density(x, t - step, n)) / (2 * step)
    d_x = (_log_density(x + step, t, n) - _log_density(x - step, t, n)) / (2 * step)
    fields = exact_fields(PlanePoint(x, 2 * t), n)
    return abs(d_t + fields.u * d_x - 2 * n * fields.potential)


def conservation_residuals(p: PlanePoint, n: int) -> tuple[float, float, float]:
    """Magnetization self-averaging residuals, with V the potential Var(m)/2.

    r1 = <m^3> - 3<m><m^2> + 2<m>^3
    r2 = (<m^4> - <m^2>^2) - 2<m><m^3> + 2<m>^2<m^2>
    r3 = <m^4> - <m^2>^2

    In cumulants k_j of m, r1 = k3 = (2/N) d_x V and
    r2 = 2<m> k3 + 2 k2^2 + k4 = (4/N) d_t V, both of order 1/N^2; r3 is
    of order 1/N.  With mu = tanh(x + t mu) the limit magnetization, off the
    shock line the leading coefficients are N^2 r1 -> mu_xx,
    N^2 r2 -> (mu^2)_xx = 2 (mu mu_xx + mu_x^2) and N r3 -> 4 mu^2 mu_x.
    """
    f = exact_fields(p, n, k_max=4)
    m1, m2, m3, m4 = (float(v) for v in f.moments)
    r1 = m3 - 3.0 * m1 * m2 + 2.0 * m1**3
    r2 = (m4 - m2 * m2) - 2.0 * m1 * m3 + 2.0 * m1 * m1 * m2
    r3 = m4 - m2 * m2
    return r1, r2, r3
