"""Exact finite-size thermodynamics of the mean-field ferromagnet.

All fields come from the closed sum over magnetization sectors

    Z(x, t) = sum_k  C(N, k) * exp(N * (t * m_k**2 / 2 + x * m_k)),

with sector magnetization ``m_k = (2k - N) / N``, evaluated in log space.
The sectors k and N - k share their binomial and have opposite
magnetizations +-a, a = |m_k|, so the sum runs over one list, the pairs
k <= N/2.  A pair's heavier log-weight is b = log C(N, k) + N t a**2 / 2
+ N |x| a and its lighter one b - 2 N |x| a; the middle sector of even N is
its own mirror and counts once.

The sum is anchored at its peak.  One step along the pairs changes b by

    delta_k = b_(k+1) - b_k = log1p(c / (k + 1)) - 2 t c / N - 2 |x|,   c = N - 2k - 1,

which is 2 (atanh(alpha) - t (N + 1) / N * alpha - |x|) with alpha = c / (N + 1).
On the pairs it changes sign at most once, so b is unimodal: an integer
bisection on the sign of delta finds the peak pair, and each log-weight is
formed relative to it, b_k - b_peak, as a running sum of O(1) steps outward
from the peak.  No term of size N is rounded, as b_k itself would be.  The
window is every pair within 746 of the peak in log-weight, and a sector below
that weighs exactly 0.0 once divided by the peak's weight; both ends are
bisected on log-gamma log-weights.  The minority peak at t > 1 is a lighter
weight of the window's pairs.  Only phi needs the absolute log-weight of the
peak, one scalar Stirling series.  A call costs O(window) time and memory,
and nothing is kept from one call to the next: the window is O(sqrt N)
sectors away from the critical point (1.3e5 at N = 1e7, 5 ms) and
4.9 N^(3/4) near (0, 1) (8.6e5 at N = 1e7, 45 ms; 4.9e6 at N = 1e8).  Up to
1 000 spins a call takes 60 to 75 us on a 2-vCPU Xeon guest, mostly numpy's
cost per call.

Moments of ``m`` are weighted pair averages: even moments weigh a**j by a
pair's summed weight, odd ones by the difference of its two weights, formed
in closed form without cancellation and signed by x.  So odd moments keep
their relative accuracy as x -> 0 and vanish at x = 0 as +0.0 by
construction, and x -> -x mirrors every field exactly.  Every derived
quantity (velocity, potential, conservation residuals) is formed in closed
form, never by numerical differentiation.  Against 50-digit sums over all
sectors, every field at the 46 frozen test points up to N = 250 000 is within
1.3e-15 relative.  The minus log-partition per spin plays the role of an
action density: it satisfies a viscous Hamilton-Jacobi equation whose
residual operations below check the identity with centered finite
differences.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .plane import LOG2, PlanePoint, check_size

# exp(v) is exactly 0.0 for v < -745.14
_UNDERFLOW = 746.0
# largest N.  A call's traced heap is about 48 bytes a window pair: one call at
# N = 1e8 peaks at 19 MiB at (0.3, 0.5) and at 222 MiB at (0, 1), where the window
# holds 4.9e6 pairs (tracemalloc).  2^30 spins take 63 MiB at (0.3, 0.5) and about
# 1.3 GB next to (0, 1), whose window grows as N^(3/4)
MAX_SPINS = 1 << 30


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


def _check_spins(n) -> None:
    # a positive integer, refused above MAX_SPINS before any window is allocated
    check_size(n)
    if n > MAX_SPINS:
        raise ValueError(f"system size n must be at most 2^30 for the sector sum, got {n}")


def _stirling_tail(m):
    # log m! - (m log m - m + log(2 pi m) / 2), to 1e-16 absolute for m >= 32
    inv2 = 1.0 / (m * m)
    return (1.0 / 12.0 - (1.0 / 360.0 - (1.0 / 1260.0 - inv2 / 1680.0) * inv2) * inv2) / m


def _log_binomial(n: int, k: int) -> float:
    # log C(n, k).  With j = min(k, n - k): below 32 a sum of j logs, from 32 on Stirling's
    # series without cancellation,
    #   log C(n, j) = j log(n/j) + r log1p(j/r) + log(n / (2 pi j r)) / 2
    #                 + c(n) - c(j) - c(r),   r = n - j;
    # math.lgamma differences are off by a few spacings of log n!
    j = min(k, n - k)
    if j < 32:
        return math.fsum(math.log((n - i) / (i + 1)) for i in range(j))
    r = n - j
    return (j * math.log(n / j) + r * math.log1p(j / r) + 0.5 * math.log(n / (2.0 * math.pi * j * r))
            + (_stirling_tail(float(n)) - _stirling_tail(float(j)) - _stirling_tail(float(r))))


def _first(lo: int, hi: int, test) -> int:
    # the first k in [lo, hi) that passes test, or hi; test fails up to some k, then passes
    while lo < hi:
        k = (lo + hi) // 2
        if test(k):
            hi = k
        else:
            lo = k + 1
    return lo


def _window(x: float, t: float, n: int) -> tuple:
    # (first, peak, last): the peak pair, where the step delta_k of the module docstring
    # turns from positive to not, and the pairs first..last about it whose log-weight b_k
    # is at least b_peak - 746.  The ends are bisected on log-gamma log-weights, off by a
    # few spacings of log n! (1e-5 at n = 2^30), far less than the 0.87 between 746 and
    # exp's underflow, so every pair left out weighs exactly 0.0.  |b_k| <= n (|t|/2 + |x|
    # + log 2) and each step is at most log n + 2 |t| + 2 |x|, all finite where the check
    # below lets n through.  Python floats, so that a numpy scalar from a sweep axis
    # cannot warn.
    t, abs_x = float(t), abs(float(x))
    if not math.isfinite(2.0 * int(n) * (0.5 * abs(t) + abs_x + 1.0)):
        raise OverflowError(f"sector log-weights overflow at x={x}, t={t}, n={n}, "
                            "so phi and its derivatives cannot be formed in double precision")

    def log_weight(k):
        a = (n - 2 * k) / n
        return n * (0.5 * t * a * a + abs_x * a) - math.lgamma(k + 1.0) - math.lgamma(n - k + 1.0)

    def past_peak(k):
        c = n - 2 * k - 1
        return math.log1p(c / (k + 1)) - t * c / (0.5 * n) - 2.0 * abs_x <= 0.0

    peak = _first(0, n // 2, past_peak)
    floor = log_weight(peak) - _UNDERFLOW
    first = _first(0, peak, lambda k: log_weight(k) >= floor)
    return first, peak, _first(peak, n // 2, lambda k: log_weight(k + 1) < floor)


def _pair_weights(x: float, t: float, n: int):
    # The window's mirror pairs, weights divided by the peak's:
    # (a, even, odd, light, tail, shift, spare) with a = |m|, w = exp(b - b_peak) the
    # heavier weight of a pair and light = w exp(gap) the lighter, even = w + light, and
    # the odd weight w - light formed as w * -expm1(gap), without cancellation; shift is
    # b_peak.  gap = -2 n |x| a increases along the window, and before the index tail
    # exp(gap) is exactly 0.0 and -expm1(gap) exactly 1.0; so both are formed from the
    # tail on only, and light holds the tail's values.
    # The rows share one work table, allocated once per call: k then a, the steps then
    # b - b_peak then w, gap then a spare, even, and a spare.  One allocation instead of
    # one per row also keeps glibc from trimming the heap after each large window and
    # faulting its pages back in on the next call.
    first, peak, last = _window(x, t, n)
    t, abs_x = float(t), abs(float(x))
    table = np.empty((5, last - first + 1))
    k, log_w, gap, even, spare = table
    k[:] = np.arange(first, last + 1.0)
    # b - b_peak as a running sum of the steps outward from the peak.  The step between
    # pairs s - 1/2 and s + 1/2 is log1p((n - 2s) / (s + 1/2)) - 2 t (n - 2s) / n - 2 |x|;
    # it is summed into the pair after it right of the peak, and into the one before it,
    # negated, left of it
    i = peak - first
    s = np.subtract(k, 0.5, out=log_w)
    s[:i + 1] += 1.0  # the peak's own step is never summed; k + 1 keeps it finite
    c = np.multiply(s, -2.0, out=gap)
    c += n
    s += 0.5
    ratio = np.divide(c, s, out=even)
    np.log1p(ratio, out=ratio)
    np.multiply(c, -t, out=log_w)  # rounded per pair: a rounded 2 t / n tilts the sum
    log_w /= 0.5 * n
    log_w += ratio
    log_w -= 2.0 * abs_x
    np.negative(log_w[:i], out=log_w[:i])
    log_w[i] = 0.0
    np.cumsum(log_w[i:], out=log_w[i:])
    left = log_w[:i][::-1]
    np.cumsum(left, out=left)
    w = np.exp(log_w, out=log_w)
    a = np.multiply(k, -2.0, out=k)
    a += n
    a /= n
    a_peak = (n - 2.0 * peak) / n
    shift = _log_binomial(n, peak) + n * (0.5 * t * a_peak * a_peak + abs_x * a_peak)
    np.multiply(-2.0 * n * abs_x, a, out=gap)
    tail = int(np.searchsorted(gap, -_UNDERFLOW))
    light = np.exp(gap[tail:])
    light *= w[tail:]
    if n % 2 == 0 and last == n // 2:
        light[-1] = 0.0  # the middle sector k = n/2 is its own mirror
    even[:] = w
    even[tail:] += light
    odd = np.expm1(gap[tail:], out=gap[tail:])
    np.negative(odd, out=odd)
    w[tail:] *= odd  # w is now the odd weight
    return a, even, w, light, tail, shift, (gap, spare)


def log_partition(p: PlanePoint, n: int) -> float:
    """Log-partition per spin, (1/N) log Z(x, t), from the max-shifted sector sum."""
    _check_spins(n)
    _, even, _, _, _, shift, _ = _pair_weights(p.x, p.t, n)
    return float(shift + math.log(even.sum())) / n


def exact_fields(p: PlanePoint, n: int, k_max: int = 4) -> ExactCwFields:
    """Action, velocity, potential and magnetization moments at one point.

    Each sector k <= N/2 is summed together with its mirror N - k, whose
    magnetization is the opposite: even moments weigh |m|**j by the pair's
    summed weight, odd moments by the difference of its two weights, formed
    as w * -expm1(-2 N |x| |m|) without cancellation and signed by x.  So the
    odd moments keep their relative accuracy as x -> 0, vanish at x = 0 as
    +0.0 by construction, and every field is exactly mirrored under x -> -x.
    The potential is assembled as half a centered second moment, a sum of
    non-negative terms, so it can never round below zero.
    """
    _check_spins(n)
    if k_max < 4:
        raise ValueError(f"k_max must be >= 4 so conservation residuals are computable, got {k_max}")
    a, even, odd, light, tail, shift, (power, term) = _pair_weights(p.x, p.t, n)
    z = even.sum()

    # |m|**j as a running product (numpy's a**3 and a**4 go through libm pow), weighted
    # and summed one order at a time in the two spare rows, not k_max rows
    moments = np.empty(k_max)
    power.fill(1.0)
    for j in range(k_max):
        power *= a
        moments[j] = np.multiply(power, even if j % 2 else odd, out=term).sum()
    moments /= z
    # with c = |<m>|, a pair's heavier sector adds w (a - c)**2 to the variance
    # and its lighter one light (a + c)**2, together even (a - c)**2 + 4 c light a;
    # summed by numpy, not np.dot, which OpenBLAS splits over its threads above
    # 10 000 entries, so that its bits would depend on the thread count.  a - c is
    # formed as (n a - n c) / n, with the integer n a = n - 2k that rint recovers
    # exactly: a's own rounding cost the variance 1.2e-14 where a - c is 1e-4
    spread = np.rint(np.multiply(a, n, out=term), out=term)
    spread -= n * moments[0]
    np.square(spread, out=spread)
    variance = (np.multiply(even, spread, out=term).sum() / (float(n) * n)
                + 4.0 * moments[0] * np.multiply(light, a[tail:], out=light).sum())
    moments[0::2] *= -1.0 if p.x < 0 else 1.0  # +0.0 at x = -0.0

    phi = -(shift + math.log(z)) / n
    u = 0.0 - moments[0]  # +0.0 where the first moment is 0.0, never -0.0
    potential = 0.5 * float(variance / z)
    return ExactCwFields(n=n, x=p.x, t=p.t, phi=phi, u=u, potential=potential, moments=moments)


def _phi(x: float, t: float, n: int) -> float:
    return -log_partition(PlanePoint(x, t), n)


def _check_stencil(p: PlanePoint, n: int, step: float) -> None:
    _check_spins(n)
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
