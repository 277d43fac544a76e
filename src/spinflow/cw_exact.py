"""Exact finite-size thermodynamics of the mean-field ferromagnet.

All fields come from the closed sum over magnetization sectors

    Z(x, t) = sum_k  C(N, k) * exp(N * (t * m_k**2 / 2 + x * m_k)),

with sector magnetization ``m_k = (2k - N) / N``, evaluated in log space.
The sectors k and N - k share their binomial and have opposite
magnetizations +-a, a = |m_k|, so the sum runs over one list, the pairs
k <= N/2.  A pair's heavier log-weight is b = log C(N, k) + N t a**2 / 2
+ N |x| a and its lighter one b - 2 N |x| a; the middle sector of even N is
its own mirror and counts once.

The weights are divided by the largest one, and a sector more than 746 below
it in log-weight contributes exactly 0.0.  So the sum runs over a window of
blocks of 32 pairs, picked by one coarse pass over the blocks' first sectors,
whose log-binomials are Stirling anchors already.  A block is kept unless
both its ends sit more than 746 + 16 (log N + 2|t| + 2|x|) below the largest
anchor b.  b bounds both log-weights of its pair, its largest value is the
largest log-weight of all sectors, and one sector step moves it by at most
log N + 2|t| + 2|x|; so every pair left out is an exact zero, and each peak is
kept, the minority one at t > 1 too.  A call costs O(window) time and memory;
away from the critical point the window is O(sqrt N) sectors, and N = 1e7
takes tens of milliseconds; near (0, 1) it is O(N^3/4) sectors.  The tables that depend on N alone (the blocks'
first sectors, their Stirling anchors and |m| there) are built once per N: a
one-entry, read-only memo keyed by N keeps the last size's, so a sweep at one N
builds them once and a new N rebuilds them.  After a call the memo holds those
three tables of N/64 doubles each until another size replaces them: 9 KB at
N = 25 000, 400 MB at N = 2^30 (``_size_tables.cache_clear()`` frees them).
The window's own rows share one work table per call.  Small N takes the same
path, whose coarse pass there keeps every block; up to 1 000 spins a call takes
50 to 70 us on a 2-vCPU Xeon guest (70 to 90 us at a new N), mostly numpy's
cost per call.

Moments of ``m`` are weighted pair averages: even moments weigh a**j by a
pair's summed weight, odd ones by the difference of its two weights, formed
in closed form without cancellation and signed by x.  So odd moments keep
their relative accuracy as x -> 0 and vanish at x = 0 as +0.0 by
construction, and x -> -x mirrors every field exactly.  Every derived
quantity (velocity, potential, conservation residuals) is formed in closed
form, never by numerical differentiation, and is exact up to roundoff but
for one loss that grows with N: a log-weight, about N in size, is rounded
before exp.  It costs the potential 2.4e-12 relative at (0.3, 0.5, 250 000)
against a 50-digit sum over all sectors, while its first moment keeps
8.2e-15; ``test_large_n_fields_match_an_fsum_over_every_sector`` sums the
same log-weights and cannot see it.  The minus
log-partition per spin plays the role of an action density: it satisfies a
viscous Hamilton-Jacobi equation whose residual operations below check the
identity with centered finite differences.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .plane import LOG2, PlanePoint, check_size

# sectors per anchored run of the log-binomial sum, and per block of the window
_BINOMIAL_BLOCK = 32
# exp(v) is exactly 0.0 for v < -745.14
_UNDERFLOW = 746.0
# largest N.  Away from (0, 1) peak memory grows with the N/64 anchors and their
# temporaries: one call at N = 1e8 and (0.3, 0.5) peaks at 119 MiB (tracemalloc), so
# 2^30 spins take about 1.3 GB.  Near (0, 1) the window grows as O(N^3/4) sectors,
# 5.3e6 at N = 1e8 with a 362 MiB peak at (0, 1), so 2^30 spins there take about 2 GB;
# the memo keeps 400 MB on top
MAX_SPINS = 1 << 30
# a sector's offset in its block
_OFFSETS = np.arange(float(_BINOMIAL_BLOCK))
_OFFSETS.setflags(write=False)


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


@functools.lru_cache(maxsize=1)
def _size_tables(n: int) -> tuple:
    # (starts, anchors, a) per block of k <= n/2: its first sector j, log C(n, j) and
    # a = |m| there.  They depend on n alone, so the last size asked keeps them, read-only:
    # N/64 doubles per table.  log C(n, j) is 0 at j = 0 and from j = 32 on Stirling's
    # series without cancellation,
    #   log C(n, j) = j log(n/j) + r log1p(j/r) + log(n / (2 pi j r)) / 2
    #                 + c(n) - c(j) - c(r),   r = n - j >= j >= 32;
    # math.lgamma differences are off by a few spacings of log n!, and their
    # jumps between blocks moved the velocity by 6e-14 at n = 2.5e4.
    starts = np.arange(0.0, n // 2 + 1, _BINOMIAL_BLOCK)
    anchors = np.zeros(len(starts))
    jr = np.empty((2, len(starts) - 1))
    j, r = jr
    j[:] = starts[1:]
    np.subtract(n, j, out=r)
    tail_j, tail_r = _stirling_tail(jr)
    anchors[1:] = (j * np.log(n / j) + r * np.log1p(j / r)
                   + 0.5 * np.log(n / (2.0 * math.pi * j * r))
                   + (_stirling_tail(float(n)) - tail_j - tail_r))
    tables = (starts, anchors, (n - 2.0 * starts) / n)
    for table in tables:
        table.setflags(write=False)
    return tables


def _check_spins(n) -> None:
    # a positive integer, refused above MAX_SPINS before any table is allocated
    check_size(n)
    if n > MAX_SPINS:
        raise ValueError(f"system size n must be at most 2^30 for the sector sum, got {n}")


def _window(x: float, t: float, n: int) -> np.ndarray:
    # The blocks kept by the rule of the module docstring, as a mask over the blocks of
    # k <= n/2.  Every sector of a block lies within half a block of one of its two
    # anchors (its first sector and the next block's), hence the walk of 16 sector
    # steps.  The middle block has no anchor at its far end and is always kept.
    # |log-weight| <= n (|t|/2 + |x| + log 2); twice that bounds the spread that
    # the max shift subtracts.  Python floats, so that a numpy scalar from a sweep
    # axis cannot warn while the bounds are formed.
    abs_t, abs_x = abs(float(t)), abs(float(x))
    if not math.isfinite(2.0 * int(n) * (0.5 * abs_t + abs_x + 1.0)):
        raise OverflowError(f"sector log-weights overflow at x={x}, t={t}, n={n}, "
                            "so phi and its derivatives cannot be formed in double precision")
    _, anchors, a = _size_tables(n)
    ends = _pair_log_weights(x, t, n, a, anchors)
    walk = 0.5 * _BINOMIAL_BLOCK * (math.log(n) + 2.0 * (abs_t + abs_x))
    keep = np.empty(len(ends), dtype=bool)
    keep[-1] = True
    np.greater_equal(np.maximum(ends[:-1], ends[1:]), float(ends.max()) - _UNDERFLOW - walk,
                     out=keep[:-1])
    return keep


def _log_binomials(n: int, blocks, out=None) -> tuple:
    # Sectors k <= n/2 of the blocks (an index or mask over the blocks of _size_tables),
    # in increasing order, with log C(n, k); the last block is the middle one.  Each
    # block is a running sum of log((n - k + 1) / k) from its anchor, so rounding builds
    # up over 32 terms only (unanchored, the sum drifts by 3e-9 at n = 2.5e5).  The
    # middle block runs past k = n/2, and capping k at n keeps that junk, trimmed below,
    # finite.  out, if given, is the (2, blocks, 32) table that k and log C(n, k) fill.
    starts, anchors, _ = _size_tables(n)
    first = starts[blocks]
    k, table = np.empty((2, len(first), _BINOMIAL_BLOCK)) if out is None else out
    np.add.outer(first, _OFFSETS, out=k)
    np.minimum(k, n, out=k)
    table[:, 0] = anchors[blocks]
    steps = table[:, 1:]
    np.divide(np.subtract(n + 1.0, k[:, 1:], out=steps), k[:, 1:], out=steps)
    np.log(steps, out=steps)
    np.cumsum(table, axis=1, out=table)
    end = k.size - (_BINOMIAL_BLOCK * len(anchors) - n // 2 - 1)
    return k.ravel()[:end], table.ravel()[:end]


def _stirling_tail(m):
    # log m! - (m log m - m + log(2 pi m) / 2), to 1e-16 absolute for m >= 32
    inv2 = 1.0 / (m * m)
    return (1.0 / 12.0 - (1.0 / 360.0 - (1.0 / 1260.0 - inv2 / 1680.0) * inv2) * inv2) / m


def _pair_log_weights(x: float, t: float, n: int, a: np.ndarray, log_binomials: np.ndarray,
                      out=None):
    # the log-weight of the heavier sector of each mirror pair with |m| = a,
    # log_binomials + n (t a^2 / 2 + |x| a), formed in out (by default a new array)
    b = np.multiply(0.5 * t, a, out=out)
    b *= a
    b += abs(x) * a
    b *= n
    b += log_binomials
    return b


def _pair_weights(x: float, t: float, n: int):
    # The window's mirror pairs, weights divided by the largest one:
    # (a, even, odd, light, tail, shift, spare) with a = |m|, w the heavier weight
    # of a pair and light = w exp(gap) the lighter, even = w + light, and the odd
    # weight w - light formed as w * -expm1(gap), without cancellation.
    # gap = -2 n |x| a increases along the window, and before the index tail
    # exp(gap) is exactly 0.0 and -expm1(gap) exactly 1.0; so both are formed
    # from the tail on only, and light holds the tail's values.
    # The window's rows share one work table, allocated once per call: k then a,
    # log C(n, k) then gap, b then w, even, and two spare rows for the caller.  One
    # allocation instead of one per row also keeps glibc from trimming the heap
    # after each large window and faulting its pages back in on the next call
    # (about 300 page faults per call at n = 2.5e5 with a new array per row).
    blocks = _window(x, t, n)
    table = np.empty((6, np.count_nonzero(blocks), _BINOMIAL_BLOCK))
    k, log_binomials = _log_binomials(n, blocks, table[:2])
    rows = table.reshape(6, -1)[:, :len(k)]
    a = np.multiply(k, 2.0, out=k)
    np.subtract(n, a, out=a)
    a /= n
    b = _pair_log_weights(x, t, n, a, log_binomials, out=rows[2])
    shift = b.max()
    w = np.exp(np.subtract(b, shift, out=b), out=b)
    gap = np.multiply(-2.0 * n * abs(x), a, out=log_binomials)
    tail = int(np.searchsorted(gap, -_UNDERFLOW))
    light = w[tail:] * np.exp(gap[tail:])
    if n % 2 == 0:
        light[-1] = 0.0  # the middle sector k = n/2 is its own mirror
    even = rows[3]
    even[:] = w
    even[tail:] += light
    w[tail:] *= -np.expm1(gap[tail:])  # w is now the odd weight
    return a, even, w, light, tail, shift, rows[4:]


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
    # 10 000 entries, so that its bits would depend on the thread count
    spread = np.square(np.subtract(a, moments[0], out=term), out=term)
    variance = (np.multiply(even, spread, out=term).sum()
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
