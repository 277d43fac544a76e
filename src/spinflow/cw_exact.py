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
On the pairs it changes sign at most once, so b is unimodal: the peak pair is
where delta turns from positive to not, and each log-weight is formed relative
to it, b_k - b_peak, as a running sum of O(1) steps outward from the peak.  No
term of size N is rounded, as b_k itself would be.  Only phi needs the absolute
log-weight of the peak, one scalar Stirling series.

The window is every pair within C = 105 of the peak in log-weight, far below
the last bit of every sum.  Relative to the peak's heavier weight, a pair left
out weighs below 2 e^-C, its two sectors together, and at most N/2 pairs are
left out: below N e^-C in all, while z >= 1.  By Griffiths' first inequality
<s_i s_j> >= 0 at t >= 0, so <m^2> >= 1/N and <m^4> >= <m^2>^2 >= 1/N^2, and
an even moment's sum z <m^j> is at least N^(-j/2).  An odd moment weighs a^j
by w (1 - e^-y), y = 2 N |x| a, and (1 - 1/e) min(1, y) <= 1 - e^-y <= min(1, y)
with min(1, y a) >= a min(1, y): the pairs left out add at most
min(1, 2 N |x|) N e^-C / 2 to its sum, which is at least
(1 - 1/e) min(1, 2 N |x|) z <m^(j+1)> / 2.  So what is left out weighs at most
N^3 e^-C / (1 - 1/e) of z and of each of the four moment sums: below 2^-60.8 at
N <= 2^30, with the 1e-5 by which the ends' log-gamma log-weights can be off.
The potential, a centered sum, keeps that bound relative to <m^2> rather than
to itself; it loses its relative accuracy only where the whole variance is of
order e^-C, a window of the single pair k = 0 (2 |x| + 2 t above C + log N).
The peak pair and the window's ends are found by searches that start from
estimates (Newton's method on the mean-field equation for the peak, the peak's
curvature and Newton's method on log-gamma log-weights for the ends).  Each
probes its estimate and the next pair toward the answer with the predicate a
bisection would use, two probes where the estimate is at most a pair short,
and ``bisect`` takes the rest of the range otherwise.  The minority peak at
t > 1 is a lighter weight of the window's pairs.  A call costs O(window) time
and memory, and nothing is kept from one call to the next: the window is
O(sqrt N) pairs away from the critical point (5.0e4 at N = 1e7, 1.4 ms) and
3.0 N^(3/4) near (0, 1) (5.3e5 at N = 1e7, 32 ms; 3.0e6 at N = 1e8).  Up to
1 000 spins a call takes 40 to 70 us on a 2-vCPU Xeon guest, mostly numpy's
cost per call.

Moments of ``m`` are weighted pair averages: even moments weigh a**j by a
pair's summed weight, odd ones by the difference of its two weights, formed
in closed form without cancellation and signed by x.  So odd moments keep
their relative accuracy as x -> 0 and vanish at x = 0 as +0.0 by
construction, and x -> -x mirrors every field exactly.  Every derived
quantity (velocity, potential, conservation residuals) is formed in closed
form, never by numerical differentiation.  Against 50-digit sums over all
sectors, every field at the 46 frozen test points up to N = 250 000 is within
1.2e-15 relative.  The minus log-partition per spin plays the role of an
action density: it satisfies a viscous Hamilton-Jacobi equation whose
residual operations below check the identity with centered finite
differences.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

import numpy as np

from .plane import LOG2, PlanePoint, check_size

# exp(v) is exactly 0.0 for v < -745.14
_UNDERFLOW = 746.0
# the window's depth below the peak in log-weight; the module docstring bounds what it leaves out
_CUT = 105.0
# largest N.  A call's traced heap is about 72 bytes a window pair: one call at
# N = 1e8 peaks at 11 MiB at (0.3, 0.5) and at 205 MiB at (0, 1), where the window
# holds 3.0e6 pairs (tracemalloc).  2^30 spins take 36 MiB at (0.3, 0.5) and about
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
    # log C(n, k).  With j = min(k, n - k): below 32 the log of the exact integer, rounded
    # once to a double (below 2^818), from 32 on Stirling's series without cancellation,
    #   log C(n, j) = j log(n/j) + r log1p(j/r) + log(n / (2 pi j r)) / 2
    #                 + c(n) - c(j) - c(r),   r = n - j;
    # math.lgamma differences are off by a few spacings of log n!
    j = min(k, n - k)
    if j < 32:
        return math.log(math.comb(n, j))
    r = n - j
    return (j * math.log(n / j) + r * math.log1p(j / r) + 0.5 * math.log(n / (2.0 * math.pi * j * r))
            + (_stirling_tail(float(n)) - _stirling_tail(float(j)) - _stirling_tail(float(r))))


def _first(lo: int, hi: int, test, k: int) -> int:
    # the first k in [lo, hi) that passes test, or hi; test fails up to some k, then passes.
    # It probes the estimate k and its neighbour toward the answer, so an estimate at the
    # answer or one short of it costs two probes, and bisects what is left of the range
    if lo < hi:
        k = min(max(k, lo), hi - 1)
        if test(k):
            if k == lo or not test(k - 1):
                return k
            hi = k - 1
        else:
            if k + 1 == hi or test(k + 1):
                return k + 1
            lo = k + 2
    return bisect.bisect_left(range(hi), True, lo, hi, key=test)


def _window(x: float, t: float, n: int) -> tuple:
    # (first, peak, last): the peak pair, where the step delta_k of the module docstring
    # turns from positive to not, and the pairs first..last about it whose log-weight b_k
    # is at least b_peak - _CUT.  The ends are found on log-gamma log-weights, off by a few
    # spacings of log n! (1e-5 at n = 2^30), which the bound on _CUT allows for.  Each search
    # probes an estimate and its neighbour before it bisects the rest (_first), so the
    # estimates change the cost, never the answer.  |b_k| <= n (|t|/2 + |x| + log 2) and
    # each step is at most log n + 2 |t| + 2 |x|, all finite where the check below lets n
    # through.  Python floats, so that a numpy scalar from a sweep axis cannot warn.
    t, abs_x = float(t), abs(float(x))
    if not math.isfinite(2.0 * int(n) * (0.5 * abs(t) + abs_x + 1.0)):
        raise OverflowError(f"sector log-weights overflow at x={x}, t={t}, n={n}, "
                            "so phi and its derivatives cannot be formed in double precision")
    half = n // 2

    def log_weight(k):
        a = (n - 2 * k) / n
        return n * (0.5 * t * a * a + abs_x * a) - math.lgamma(k + 1.0) - math.lgamma(n - k + 1.0)

    def past_peak(k):
        c = n - 2 * k - 1
        return math.log1p(c / (k + 1)) - t * c / (0.5 * n) - 2.0 * abs_x <= 0.0

    # delta_k <= 0 where alpha = c / (n + 1) <= tanh(y), y the root of y = |x| + tn tanh(y),
    # tn = t (n + 1) / n; y - tn tanh(y) is convex for y >= 0, so Newton's method from
    # y = |x| + tn, right of the root, falls to it without overshooting, until its step is
    # below a pair or rounding flattens its slope next to the critical point
    tn = t * (n + 1) / n
    y = abs_x + tn
    for _ in range(64):
        th = math.tanh(y)
        slope = 1.0 - tn + tn * th * th
        if not slope > 0.0:
            break
        step = (y - tn * th - abs_x) / slope
        y -= step
        if not step * n >= 1.0:
            break
    peak = _first(0, half, past_peak, math.ceil(0.5 * ((n - 1) - (n + 1) * math.tanh(y))))
    floor = log_weight(peak) - _CUT

    # d pairs from the peak, b drops by about q d^2 / 2 + r d^4 (the curvature and quartic
    # term of n times the binary entropy at a_peak, with u = (k + 1/2) (n - k + 1/2) for
    # k (n - k) at k = peak, positive at k = 0);
    # Newton's method on the log-weight, its slope that of log C(n, k) in digamma's
    # log(k + 1/2) form, refines the two ends while it moves by more than a pair
    u = (peak + 0.5) * (n - peak + 0.5)
    q = max(n / u - 4.0 * t / n, 0.0)
    r = (4.0 * n * n - 3.0 * (n - 2 * peak) ** 2) * n / (192.0 * u ** 3)
    d = 2.0 * math.sqrt(_CUT / (q + math.sqrt(q * q + 16.0 * r * _CUT)))

    def end(k, lo, hi):
        for _ in range(3):
            if not lo < k < hi:
                break
            slope = math.log((n - k + 0.5) / (k + 0.5)) - 2.0 * (t * (n - 2 * k) / n + abs_x)
            if not slope:
                break
            step = (floor - log_weight(k)) / slope
            k += step
            if not abs(step) > 1.0:
                break
        return min(max(k, lo), hi)

    first = _first(0, peak, lambda k: log_weight(k) >= floor, math.ceil(end(peak - d, 0, peak)))
    last = _first(peak, half, lambda k: log_weight(k + 1) < floor, math.floor(end(peak + d, peak, half)))
    return first, peak, last


def _pair_weights(x: float, t: float, n: int):
    # The window's mirror pairs, weights divided by the peak's:
    # (d, even, odd, light, shift, table) with d = n - 2k = n |m|, w = exp(b - b_peak) the
    # heavier weight of a pair and light = w exp(gap) the lighter, even = w + light, and
    # the odd weight w - light formed as w * -expm1(gap), without cancellation; shift is
    # b_peak.  gap = -2 |x| d increases along the window, and before the index tail
    # exp(gap) is exactly 0.0 and -expm1(gap) exactly 1.0; so both are formed from the
    # tail on only, and light is 0.0 before it.
    # The rows share one work table of eight rows, allocated once per call:
    #   0 even, 1 odd, 2-4 spare (exact_fields' moment rows), 5 light, 6 d, 7 gap,
    # so that one row-wise sum over rows 0-5 sums them all.  Before even, the even row
    # holds the steps' ratios and the gap row the steps' c.  One allocation instead of one
    # per row also keeps glibc from trimming the heap after each large window and faulting
    # its pages back in on the next call.
    first, peak, last = _window(x, t, n)
    t, abs_x = float(t), abs(float(x))
    table = np.empty((8, last - first + 1))
    even, log_w, light, d, gap = table[0], table[1], table[5], table[6], table[7]
    d[:] = np.arange(n - 2.0 * first, n - 2.0 * last - 1.0, -2.0)
    # b - b_peak as a running sum of the steps outward from the peak.  The step between
    # pairs j and j + 1 is log1p(c / (j + 1)) - 2 t c / n - 2 |x| with c = n - 2j - 1 and
    # j + 1 = (n + 1 - c) / 2; it is summed into pair j + 1 right of the peak, and into
    # pair j, negated, left of it, so c = n - 2k + 1 right of the peak and n - 2k - 1 left
    i = peak - first
    c = np.add(d, 1.0, out=gap)
    c[:i + 1] -= 2.0  # the peak's own step is never summed; its c = n - 2k - 1 keeps it finite
    ratio = np.subtract(n + 1.0, c, out=even)
    ratio *= 0.5
    np.divide(c, ratio, out=ratio)
    np.log1p(ratio, out=ratio)
    np.multiply(c, -t, out=log_w)  # rounded per pair: a rounded 2 t / n tilts the sum
    log_w /= 0.5 * n
    log_w += ratio
    log_w -= 2.0 * abs_x
    np.negative(log_w[:i], out=log_w[:i])
    log_w[i] = 0.0
    np.add.accumulate(log_w[i:], out=log_w[i:])
    left = log_w[:i][::-1]
    np.add.accumulate(left, out=left)
    w = np.exp(log_w, out=log_w)
    a_peak = (n - 2.0 * peak) / n
    shift = _log_binomial(n, peak) + n * (0.5 * t * a_peak * a_peak + abs_x * a_peak)
    np.multiply(d, -2.0 * abs_x, out=gap)
    tail = int(gap.searchsorted(-_UNDERFLOW))
    light[:tail] = 0.0
    np.exp(gap[tail:], out=light[tail:])
    light[tail:] *= w[tail:]
    if n % 2 == 0 and last == n // 2:
        light[-1] = 0.0  # the middle sector k = n/2 is its own mirror
    np.add(w, light, out=even)
    odd = np.expm1(gap[tail:], out=gap[tail:])
    np.negative(odd, out=odd)
    w[tail:] *= odd  # w is now the odd weight
    return d, even, w, light, shift, table


def log_partition(p: PlanePoint, n: int) -> float:
    """Log-partition per spin, (1/N) log Z(x, t), from the max-shifted sector sum."""
    return -exact_fields(p, n).phi


def exact_fields(p: PlanePoint, n: int) -> ExactCwFields:
    """Action, velocity, potential and the four magnetization moments at one point.

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
    d, even, odd, light, shift, table = _pair_weights(p.x, p.t, n)
    # the rows even, odd a, even a^2, odd a^3, even a^4, light a, with a = d / n and each
    # power of a the one two orders down times a^2, summed at once: a row-wise sum adds
    # each row as its own .sum() would, not as np.dot, which OpenBLAS splits over its
    # threads above 10 000 entries, so that its bits would depend on the thread count
    rows = table[:6]
    a = np.divide(d, n, out=rows[2])
    odd *= a
    light *= a
    square = np.square(a, out=table[7])
    for j in range(2, 5):
        np.multiply(rows[j - 2], square, out=rows[j])
    sums = np.add.reduce(rows, axis=1)
    z = sums[0]
    moments = sums[1:5] / z
    # with c = |<m>|, a pair's heavier sector adds w (a - c)**2 to the variance
    # and its lighter one light (a + c)**2, together even (a - c)**2 + 4 c light a.
    # a - c is formed as (d - n c) / n from the integer d = n a: a's own rounding cost the
    # variance 1.2e-14 where a - c is 1e-4
    spread = np.subtract(d, n * moments[0], out=square)
    np.square(spread, out=spread)
    variance = (np.multiply(even, spread, out=table[1]).sum() / (float(n) * n)
                + 4.0 * moments[0] * sums[-1])
    moments[0::2] *= -1.0 if p.x < 0 else 1.0  # +0.0 at x = -0.0

    phi = -(shift + math.log(z)) / n
    u = 0.0 - moments[0]  # +0.0 where the first moment is 0.0, never -0.0
    potential = 0.5 * float(variance / z)
    return ExactCwFields(phi=phi, u=u, potential=potential, moments=moments)


def _phi(x: float, t: float, n: int) -> float:
    return exact_fields(PlanePoint(x, t), n).phi


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
    f = exact_fields(p, n)
    m1, m2, m3, m4 = (float(v) for v in f.moments)
    r1 = m3 - 3.0 * m1 * m2 + 2.0 * m1**3
    r2 = (m4 - m2 * m2) - 2.0 * m1 * m3 + 2.0 * m1 * m1 * m2
    r3 = m4 - m2 * m2
    return r1, r2, r3
