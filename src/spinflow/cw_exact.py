"""Exact finite-size thermodynamics of the mean-field ferromagnet.

All fields come from the closed sum over magnetization sectors

    Z(x, t) = sum_k  C(N, k) * exp(N * (t * m_k**2 / 2 + x * m_k)),

with sector magnetization ``m_k = (2k - N) / N``, evaluated in log space.
The weights are divided by the largest one, and a sector more than 746 below
it in log-weight contributes exactly 0.0.  So the sum runs over a window of
blocks of 32 sectors, picked by one coarse pass over the blocks' first sectors,
whose log-binomials are Stirling anchors already.  Each block, and apart from
it its mirror image under k -> N - k, is kept unless both its ends sit more
than 746 + 16 (log N + 2|t| + 2|x|) below the largest anchor log-weight.  One
sector step moves a log-weight by at most log N + 2|t| + 2|x|, so every sector
left out is an exact zero, and each peak is kept, the minority one at t > 1
too.  A call costs O(window) time and memory plus N/32 anchors; away from the
critical point the window is O(sqrt N) sectors, and N = 1e7 takes tens of
milliseconds.  Small N is a window that holds every block.

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

from .plane import LOG2, PlanePoint, check_size

# sectors per anchored run of the log-binomial sum, and per block of the window
_BINOMIAL_BLOCK = 32
# exp(v) is exactly 0.0 for v < -745.14
_UNDERFLOW = 746.0


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


def _window(x: float, t: float, n: int):
    # (anchors, lo, hi): log C(n, k) at the first sector of every block of
    # k <= n/2, the blocks kept at k and the blocks kept at the mirror sectors
    # n - k, by the rule of the module docstring.  Every sector of a block lies
    # within half a block of one of its two anchors (its first sector and the
    # next block's), hence the walk of 16 sector steps.  The middle block has no
    # anchor at its far end and is always kept.  At x = 0 a block and its mirror
    # have equal anchors, so the window is mirror-symmetric.
    #
    # |log-weight| <= n (|t|/2 + |x| + log 2); twice that bounds the spread that
    # the max shift subtracts.  Python floats, so that a numpy scalar from a sweep
    # axis cannot warn while the bounds are formed.
    abs_t, abs_x = abs(float(t)), abs(float(x))
    if not math.isfinite(2.0 * int(n) * (0.5 * abs_t + abs_x + 1.0)):
        raise OverflowError(f"sector log-weights overflow at x={x}, t={t}, n={n}, "
                            "so phi and its derivatives cannot be formed in double precision")
    anchors = _anchor_log_binomials(n)
    blocks = np.arange(len(anchors))
    if n * (LOG2 + 0.5 * abs_t + 2.0 * abs_x) <= _UNDERFLOW:
        # log-weights span at most n (log 2 + |t|/2 + 2|x|): every block is kept
        return anchors, blocks, blocks
    j = blocks * float(_BINOMIAL_BLOCK)
    _, ends = _sector_log_weights(x, t, n, np.stack((j, n - j)), anchors)
    walk = 0.5 * _BINOMIAL_BLOCK * (math.log(n) + 2.0 * (abs_t + abs_x))
    keep = np.ones(ends.shape, dtype=bool)
    keep[:, :-1] = np.maximum(ends[:, :-1], ends[:, 1:]) >= float(ends.max()) - _UNDERFLOW - walk
    return anchors, blocks[keep[0]], blocks[keep[1]]


def _anchor_log_binomials(n: int) -> np.ndarray:
    # log C(n, j) at the first sector j of every block of k <= n/2, 0 at j = 0 and
    # from j = 32 on Stirling's series without cancellation,
    #   log C(n, j) = j log(n/j) + r log1p(j/r) + log(n / (2 pi j r)) / 2
    #                 + c(n) - c(j) - c(r),   r = n - j >= j >= 32;
    # math.lgamma differences are off by a few spacings of log n!, and their
    # jumps between blocks moved the velocity by 6e-14 at n = 2.5e4.
    half = n // 2 + 1
    anchors = np.zeros(-(-half // _BINOMIAL_BLOCK))
    if len(anchors) == 1:
        return anchors  # below 64 spins block 0, anchored at 0, is the only one
    j = np.arange(_BINOMIAL_BLOCK, half, _BINOMIAL_BLOCK, dtype=np.float64)
    r = n - j
    tail_j, tail_r = _stirling_tail(np.stack((j, r)))
    anchors[1:] = (j * np.log(n / j) + r * np.log1p(j / r)
                   + 0.5 * np.log(n / (2.0 * math.pi * j * r))
                   + (_stirling_tail(float(n)) - tail_j - tail_r))
    return anchors


def _log_binomials(n: int, anchors: np.ndarray, lo: np.ndarray, hi: np.ndarray):
    # Sectors k of the blocks ``lo`` and the mirrors n - k of the blocks ``hi``, in
    # increasing order, with log C(n, k).  Both lists end with the middle block.
    # Each block is a running sum of log((n - k + 1) / k) from its anchor, so
    # rounding builds up over 32 terms only (unanchored, the sum drifts by 3e-9 at
    # n = 2.5e5).  A block and its mirror get the same bits, so mirror pairs
    # cancel exactly.
    rows = np.concatenate((lo, hi))
    k = rows[:, None] * float(_BINOMIAL_BLOCK) + np.arange(_BINOMIAL_BLOCK)
    terms = np.empty_like(k)
    terms[:, 0] = anchors[rows]
    past = np.minimum(k[:, 1:], n)  # finite junk past the middle, trimmed below
    terms[:, 1:] = np.log((n - past + 1.0) / past)
    values = terms.cumsum(axis=1).ravel()
    k = k.ravel()
    # the middle block spills past k = n/2, and its mirror past k = (n - 1)/2
    spill = _BINOMIAL_BLOCK * len(anchors)
    low = _BINOMIAL_BLOCK * len(lo)
    low_end = low - (spill - n // 2 - 1)
    high_end = len(k) - (spill - (n + 1) // 2)
    return (np.concatenate((k[:low_end], n - k[low:high_end][::-1])),
            np.concatenate((values[:low_end], values[low:high_end][::-1])))


def _stirling_tail(m):
    # log m! - (m log m - m + log(2 pi m) / 2), to 1e-16 absolute for m >= 32
    inv2 = 1.0 / (m * m)
    return (1.0 / 12.0 - (1.0 / 360.0 - (1.0 / 1260.0 - inv2 / 1680.0) * inv2) * inv2) / m


def _sector_log_weights(x: float, t: float, n: int, k: np.ndarray, log_binomials: np.ndarray):
    # magnetization and log-weight of the sectors k
    m = (2.0 * k - n) / n
    return m, log_binomials + n * (0.5 * t * m * m + x * m)


def _shifted_weights(x: float, t: float, n: int):
    # weights of the window's sectors divided by the largest one:
    # (m, w, sum of w, log of the divisor)
    m, logw = _sector_log_weights(x, t, n, *_log_binomials(n, *_window(x, t, n)))
    shift = logw.max()
    w = np.exp(logw - shift)
    return m, w, w.sum(), shift


def log_partition(p: PlanePoint, n: int) -> float:
    """Log-partition per spin, (1/N) log Z(x, t), from the max-shifted sector sum."""
    check_size(n)
    _, _, z, shift = _shifted_weights(p.x, p.t, n)
    return float(shift + math.log(z)) / n


def exact_fields(p: PlanePoint, n: int, k_max: int = 4) -> ExactCwFields:
    """Action, velocity, potential and magnetization moments at one point.

    Moments fold the window's sectors onto their mirror positions.  At x = 0
    the window is mirror-symmetric, so the sector k meets N - k and odd
    moments and the velocity vanish identically (not just to roundoff), as +0.0.
    The potential is assembled as half a centered second moment, a sum of
    non-negative terms, so it can never round below zero.
    """
    check_size(n)
    if k_max < 4:
        raise ValueError(f"k_max must be >= 4 so conservation residuals are computable, got {k_max}")
    m, w, z, shift = _shifted_weights(p.x, p.t, n)

    # w m**j as a running product: numpy's m**3 and m**4 go through libm pow
    terms = np.empty((k_max, len(m)))
    np.multiply(w, m, out=terms[0])
    for j in range(1, k_max):
        np.multiply(terms[j - 1], m, out=terms[j])
    # fold the window onto itself, each position paired with its mirror position;
    # at x = 0 the window is mirror-symmetric, so that pairs the sector k with
    # N - k and the odd moments cancel to +0.0
    half = len(m) // 2
    folded = terms[:, :half] + terms[:, ::-1][:, :half]
    moments = (folded.sum(axis=1) + terms[:, half:len(m) - half].sum(axis=1)) / z

    phi = -(shift + math.log(z)) / n
    u = 0.0 - moments[0]  # +0.0 where the first moment is 0.0, never -0.0
    potential = 0.5 * float(np.dot(w, (m - moments[0]) ** 2) / z)
    return ExactCwFields(n=n, x=p.x, t=p.t, phi=phi, u=u, potential=potential, moments=moments)


def _phi(x: float, t: float, n: int) -> float:
    return -log_partition(PlanePoint(x, t), n)


def _check_stencil(p: PlanePoint, n: int, step: float) -> None:
    check_size(n)
    if step <= 0:
        raise ValueError(f"finite-difference step must be > 0, got {step}")
    if p.t - step < 0:
        raise ValueError(f"need t - step >= 0, got t={p.t}, step={step}")


def hj_residual(p: PlanePoint, n: int, step: float = 1e-3) -> float:
    """Absolute residual of the viscous Hamilton-Jacobi identity.

    Checks d_t phi + (d_x phi)**2 / 2 - d_xx phi / (2 N) = 0 with centered
    finite differences of the exact action, so the residual is pure
    discretization error, of order step**2.
    """
    _check_stencil(p, n, step)
    x, t = p.x, p.t
    phi_0 = _phi(x, t, n)
    east, west = _phi(x + step, t, n), _phi(x - step, t, n)
    d_t = (_phi(x, t + step, n) - _phi(x, t - step, n)) / (2 * step)
    d_x = (east - west) / (2 * step)
    d_xx = (east - 2 * phi_0 + west) / step**2
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
    _check_stencil(p, n, step)
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
