"""Finite-size glass verification engine.

Exact Gibbs expectations by full spin enumeration for small systems,
Monte Carlo over quenched Gaussian disorder, overlap moments over up to
four independent replicas, and the conservation-law polynomial
residuals that the streaming relations predict to vanish as the system
grows.

Everything here is exact in the thermal average (2^n enumeration) and
statistical only in the disorder average.  The Gibbs correlator of every
site subset is the fast Walsh-Hadamard transform (FWHT) of the
probability vector, one O(n 2^n) transform per sample with no per-size
product tables.  The transform is self-sorting (Stockham): each stage
reads adjacent pairs from one flat buffer and writes sums and
differences to the two halves of another, so a stage is two numpy calls
over the whole block however short its rows, and its bits are those of
the in-place butterflies.  The log-weights and the two series of the
replica chains sit on subsets of at most two sites; from _FOLD_SITES
sites up they are evaluated at every configuration in O(2^n), one site
at a time, bitwise as the transform would give them, so a sample costs
one full transform plus O(2^n) work.  Samples are processed in blocks
of max(1, 2^15 >> n), in a workspace of five (block, 2^n) planes.
Disorder is drawn from a counter-based generator keyed by (seed, sample
index), and every per-sample result depends on that key alone, never on
how the samples are batched.  A size's draws are the first n(n+1)/2
standard normals of the sample's stream, so the draws of a smaller size
are a prefix of a larger one's: a ladder of sizes draws each sample once,
at its largest size, and runs every size in one workspace.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .plane import SkParams

MAX_SITES = 14
# the per-sample statistics, 5 doubles a sample, are held at once, one table per size
# of a ladder: 42 MB a size at most
MAX_SAMPLES = 1 << 20


def _check_site_count(n) -> None:
    if not isinstance(n, (int, np.integer)):
        raise ValueError(f"site count must be an integer, got {n!r}")
    if n < 1 or n > MAX_SITES:
        raise ValueError(
            f"site count must be in [1, {MAX_SITES}] (2^n enumeration), got {n}")


# entries of the (block, 2^n) arrays the engine works on: 2^(15 - n) samples a
# block.  Every block pays a fixed cost in numpy calls, so larger blocks pay
# them less often.  Fastest time a sample (us, 2-vCPU host, one BLAS thread),
# blocks of 2^13 entries in seven planes against these:
#   n       1    2    3    4    5    6    7     8     9    10    11   12   13   14
#   2^13  2.3  2.5  2.7  3.3  4.0  5.8  9.4  16.8  31.5  61.7   124  263  476  689
#   2^15  2.3  2.4  2.7  3.1  3.7  5.0  7.6  13.2  24.9  48.1  94.6  165  301  556
# A full block's five planes take 1.25 MiB: the traced heap of a call peaks at
# 1.44 MiB for 200 samples at n = 8 and 1.45 MiB for 5 at n = 14 (0.52 and
# 1.01 MiB with the old blocks).
_BLOCK_ENTRIES = 1 << 15
# workspace planes: the Gibbs weights, then the log-weights and their transform
# partner, one of which ends up holding the correlators, then two more.  Once the
# series coefficients are read out of the correlators, the series L and A and their
# partner take the four planes after the weights.
_PLANES = 5
# site count from which _walsh_series folds instead of transforming.  Below it
# the folds' extra numpy calls cost more than the transform stages they save:
# over six runs of interleaved per-block timings of _sample_statistics on a
# 2-vCPU host, fold/transform read 1.07-1.55 at n = 6-10, 1.07-1.15 at 11,
# 1.00-1.04 at 12, 0.92-1.01 at 13 and 0.78-0.86 at 14.  At 12 the two stay
# within 4 % (1.00 in two runs), so the switch stays there.
_FOLD_SITES = 12


@lru_cache(maxsize=None)
def _walsh_masks(n: int):
    """Walsh indices (site subsets as bit masks) used by the engine.

    Returns the singleton masks 1 << i, the pair masks of the i < j
    edges in row-major order (the order of DisorderSample.couplings),
    and, for each subset size 0..4, the masks of that size.
    """
    sites = np.left_shift(1, np.arange(n))
    upper_i, upper_j = np.triu_indices(n, k=1)
    pairs = sites[upper_i] | sites[upper_j]
    subsets = np.arange(1 << n)
    sizes = np.zeros(1 << n, dtype=np.int64)
    for i in range(n):
        sizes += (subsets >> i) & 1
    by_size = tuple(np.flatnonzero(sizes == k) for k in range(5))
    for table in (sites, pairs, *by_size):
        table.setflags(write=False)
    return sites, pairs, by_size


def _fwht(a: np.ndarray, work: np.ndarray) -> np.ndarray:
    """Unnormalized Walsh-Hadamard transform over the last axis.

    Entry S of a transformed row is sum_c a[c] (-1)^popcount(S & c).
    Self-sorting radix-2 stages alternate between the two buffers, each
    over the whole flat buffer in two numpy calls: it reads the adjacent
    pairs (2i, 2i + 1) and writes their sum to i and their difference to
    i + total/2 of the other buffer.  With entry (r, c) at r size + c,
    the lowest bit of an entry's position is always the next bit of c,
    so every pair lies within one row, and after log2(size) stages entry
    (r, S) of the result sits at S rows + r, for any row count: the
    buffer holds the transposed (size, rows) result, which one copy puts
    back in row order in the other buffer.  Bits are combined low bit
    first, and each output has the same operands in the same order as
    the in-place butterflies on pairs (c, c + h), h = 1, 2, 4, ..., so
    the result is bitwise identical to theirs, row by row.

    `a` and `work` must be C-contiguous of the same shape; both are
    overwritten.  Returns the buffer that holds the result: `a` when
    log2(size) is odd, `work` when it is even.
    """
    size = a.shape[-1]
    stages = size.bit_length() - 1
    src, dst = a.reshape(-1), work.reshape(-1)
    half = src.size // 2
    for _ in range(stages):
        pairs = src.reshape(-1, 2)
        np.add(pairs[:, 0], pairs[:, 1], out=dst[:half])
        np.subtract(pairs[:, 0], pairs[:, 1], out=dst[half:])
        src, dst = dst, src
    np.copyto(dst.reshape(-1, size), src.reshape(size, -1).T)
    return a if stages % 2 else work


def _walsh_series(constant, fields: np.ndarray, pairs: np.ndarray, out: np.ndarray,
                  work: np.ndarray) -> np.ndarray:
    """A Walsh series on the empty set, single sites and site pairs, at every configuration.

    Row r of the result holds, at index s (bit i of s set where site i is
    -1), constant[r] + sum_i fields[r, i] s_i + sum_{i<j} pairs[r, ij] s_i s_j,
    with the pairs in the row-major order of DisorderSample.couplings.
    `constant` is a scalar or one value per row.  The result is bitwise the
    `_fwht` of the coefficient vector.

    From _FOLD_SITES sites up the series is grown one site at a time:
    with E_k its values over sites 0..k-1, E_{k+1} = [E_k + D_k, E_k - D_k],
    where D_k, site k's field plus its pair terms with the lower sites, is
    left-folded over those sites the same way.  The D_k of all sites above
    b take site b's fold together, since their pairs (b, k) are contiguous
    in the upper triangle.  Each sum and difference has the operands, in
    the order, of the matching butterfly of `_fwht`.  The butterflies also
    add the zero entries of the coefficient vector, which the fold skips;
    that can flip the sign of a zero in D_k but no other bit, and since no
    E_k is -0.0 unless the constant is, it moves no bit of the result, so
    no constant may be -0.0 (callers pass +0.0 and n c(empty set) > 0).
    The fold costs about 4 2^n element operations instead of n 2^n, with
    `work`'s two halves as its only scratch.  Below _FOLD_SITES the
    coefficients are scattered into `out` and transformed.

    `out` and `work` are C-contiguous (rows, 2^n) planes, both
    overwritten.  Returns the one that holds the result, which callers
    find by identity: the fold ends in `out`, the transform in either.
    """
    rows, n = fields.shape
    if n < _FOLD_SITES:
        sites, pair_masks, _ = _walsh_masks(n)
        out.fill(0.0)
        out[:, 0] = constant
        out[:, sites] = fields
        out[:, pair_masks] = pairs
        return _fwht(out, work)
    halves = work.reshape(2, -1)
    # (+J, -J) for each pair: a - b is a + (-b), the same IEEE operation, so
    # both halves of a fold take one call
    signed = np.multiply(pairs[:, :, None, None], ((1.0,), (-1.0,)))
    out[:, 0] = constant
    # folded[:, i] is D_{k+i} folded over sites 0..k-1, one entry per
    # configuration of those sites
    folded = fields[:, :, None]
    start = 0
    for k in range(n):
        size = 1 << k
        np.subtract(out[:, :size], folded[:, 0], out=out[:, size:2 * size])
        np.add(out[:, :size], folded[:, 0], out=out[:, :size])
        if k == n - 1:
            return out
        count = n - 1 - k
        step = halves[k % 2, :rows * count * 2 * size].reshape(rows, count, 2, size)
        np.add(folded[:, 1:, None], signed[:, start:start + count], out=step)
        folded = step.reshape(rows, count, 2 * size)
        start += count


@dataclass(frozen=True)
class DisorderSample:
    """One realization of the quenched randomness.

    couplings holds the upper-triangular pair couplings J_ij (i < j,
    row-major), site_fields the per-site cavity variables J_i; both are
    standard normal, drawn by ``draw_disorder`` from (seed, index) alone.
    """
    couplings: np.ndarray
    site_fields: np.ndarray

    @property
    def n(self) -> int:
        return self.site_fields.shape[0]


def _check_key(name: str, value) -> None:
    if not isinstance(value, (int, np.integer)) or value < 0 or value >= 2 ** 64:
        raise ValueError(f"{name} must be an integer in [0, 2^64), got {value!r}")


def _check_sample_count(n_samples) -> None:
    # the jackknife needs two samples
    if not isinstance(n_samples, (int, np.integer)) or not 2 <= n_samples <= MAX_SAMPLES:
        raise ValueError(f"need 2 to 2^20 disorder samples, got {n_samples}")


def _disorder_draws(bitgen: np.random.Philox, seed: int, indices, n: int) -> np.ndarray:
    """Standard normal draws of samples `indices` of the stream `seed`.

    Row r holds what Generator(Philox(key=[seed, indices[r]])) draws
    first: the n(n-1)/2 pair couplings, then the n site fields.  `bitgen`
    serves every row: before each row its state is set to exactly that of
    a fresh Philox with that key (counter 0, output buffer empty), which
    gives the same draws without building a generator per sample (a build
    costs about twice what rekeying and drawing an n = 14 sample do).
    Normals are drawn in sequence, so the first m(m+1)/2 columns of the
    draws at n > m are the draws at m.
    """
    rng = np.random.Generator(bitgen)
    draws = np.empty((len(indices), n * (n + 1) // 2))
    key = [seed, 0]
    # plain ints, which the setter reads element by element faster than uint64
    # arrays; it copies them, so one state serves every row
    state = {"bit_generator": "Philox", "state": {"counter": [0, 0, 0, 0], "key": key},
             "buffer": [0, 0, 0, 0], "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    for row, index in zip(draws, indices):
        key[1] = index
        bitgen.state = state
        rng.standard_normal(out=row)
    return draws


def draw_disorder(seed: int, index: int, n: int) -> DisorderSample:
    """Draw sample number `index` of the stream identified by `seed`.

    Uses a Philox counter generator keyed by (seed, index) with a fixed
    draw order, pair couplings first then site fields, so the sample
    does not depend on how many other samples were drawn before it.
    """
    _check_site_count(n)
    _check_key("seed", seed)
    _check_key("index", index)
    draws = _disorder_draws(np.random.Philox(0), seed, [index], n)[0]
    n_pairs = n * (n - 1) // 2
    return DisorderSample(couplings=draws[:n_pairs], site_fields=draws[n_pairs:])


def _gibbs_states(couplings: np.ndarray, site_fields: np.ndarray, params: SkParams,
                  planes: np.ndarray):
    """Normalized Boltzmann weights and all correlators for a block of samples.

    Row r of `couplings` and `site_fields` is one disorder sample.  Row r
    of `prob` holds the probabilities of its 2^n configurations (bit i
    of a configuration is site i, bit value 0 mapped to +1), for
    log-weights sqrt(t/n) sum_{i<j} J_ij s_i s_j + sum_i (beta_h +
    sqrt(x) J_i) s_i.  Row r of `correlators` holds <prod_{i in S} s_i>
    at index S (a bit mask of sites).  Both are planes of `planes`, a
    C-contiguous (3, rows, 2^n) workspace overwritten whatever it holds:
    `prob` is its first plane, `correlators` one of the other two.
    """
    rows, n = site_fields.shape
    # A row's log-weights, and every partial sum of their transform, are at
    # most its absolute coefficient sum in size, and the max shift below
    # subtracts up to twice that.  `bound` is at least that sum in every row
    # of the block; only beta_h can bring it near the largest double, since
    # the terms in J stay below 1e157, far under the last bit of any bound
    # near it, so whether the check below raises depends on (params, n) and
    # not on the draws.  Python floats, so that forming the bound cannot
    # warn; 2^-40 of slack covers rounding.
    largest = max(float(np.abs(couplings).max(initial=0.0)), float(np.abs(site_fields).max()))
    bound = n * abs(params.beta_h) + largest * (
        couplings.shape[1] * math.sqrt(params.t / n) + n * math.sqrt(params.x))
    if not math.isfinite(2.0 * (1.0 + 2.0 ** -40) * bound):
        raise OverflowError(f"log-weights overflow at n={n}, x={params.x}, t={params.t}, "
                            f"beta_h={params.beta_h}, so the 2^n enumeration cannot be formed")
    prob, walsh, work = planes
    weights = _walsh_series(0.0, params.beta_h + math.sqrt(params.x) * site_fields,
                            math.sqrt(params.t / n) * couplings, walsh, work)
    weights -= weights.max(axis=1, keepdims=True)
    np.exp(weights, out=weights)
    weights /= weights.sum(axis=1, keepdims=True)
    # the transform overwrites both of its buffers, so the weights keep a copy
    np.copyto(prob, weights)
    return prob, _fwht(weights, work if weights is walsh else walsh)


class GibbsCorrelators:
    """Exact thermal correlator oracle for one disorder sample.

    Enumerates all 2^n configurations once by the Walsh-Hadamard
    transform, storing the normalized Boltzmann weights `prob` for
    log-weights sqrt(t/n) sum_{i<j} J_ij s_i s_j + sum_i (beta_h +
    sqrt(x) J_i) s_i, and the correlator of every site subset.  Calling
    the object with a site multiset returns the Gibbs expectation of the
    corresponding spin product; a repeated site cancels (s_i^2 = 1).
    """

    def __init__(self, sample: DisorderSample, params: SkParams):
        n = sample.n
        _check_site_count(n)
        if sample.couplings.shape != (n * (n - 1) // 2,):
            raise ValueError("couplings length does not match the site count")
        prob, correlators = _gibbs_states(sample.couplings[None], sample.site_fields[None],
                                          params, np.empty((3, 1, 1 << n)))
        self.n = n
        self.prob, self.correlators = prob[0], correlators[0]

    def __call__(self, sites) -> float:
        mask = 0
        for i in sites:
            if not 0 <= i < self.n:
                raise ValueError(f"site index {i} outside [0, {self.n})")
            mask ^= 1 << i
        return float(self.correlators[mask])


def _sample_statistics(params: SkParams, n: int, draws: np.ndarray,
                       planes: np.ndarray) -> np.ndarray:
    """Replica-factorized overlap statistics, one row per disorder sample.

    The samples, one row of `draws` each (from `_disorder_draws` at n, or
    the first n(n+1)/2 columns of its draws at a larger size), are
    enumerated as one block in `planes`, a (_PLANES, rows, 2^n) workspace.
    With c(S) the correlators, the overlap power moments are sums of
    squared correlators weighted by the number of site walks whose
    odd-multiplicity set is S:

        q_k = n^-k sum_S N_k(|S|) c(S)^2,

    and the three-replica chains are Gibbs averages of two Walsh series,
    L(s) = sum_i m_i s_i and A(s) = sum_ij C_ij s_i s_j with m_i = c({i}),
    C_ij = c({i, j}) and C_ii = c({}): <q12 q23> = <L^2>/n^2,
    <q12 q23^2> = <A L>/n^3 and <q12^2 q23^2> = <A^2>/n^4.  Cost is one
    O(n 2^n) transform per sample (the correlators), plus O(2^n) for L, A
    and the averages from _FOLD_SITES sites up (O(n 2^n) below).
    Reductions run along contiguous rows, so each row depends only on
    (params, n) and its draws.

    Columns are (q1, q2, o1, e1, e2) where q1 = O(q12), q2 = O(q12^2),
    o1 = O(q12^2 - 4 q12 q23 + 3 q12 q34),
    e1 = O(q12^3 - 4 q12 q23^2 + 3 q12 q34^2),
    e2 = O(q12^4 - 4 q12^2 q23^2 + 3 q12^2 q34^2),
    with O the thermal average at fixed disorder.
    """
    rows, n_pairs = len(draws), n * (n - 1) // 2
    prob, corr = _gibbs_states(draws[:, :n_pairs], draws[:, n_pairs:], params, planes[:3])
    sites, pairs, by_size = _walsh_masks(n)
    g0, g1, g2, g3, g4 = (np.square(np.take(corr, masks, axis=1)).sum(axis=1)
                          for masks in by_size)
    q1 = g1 / n
    q2 = (n * g0 + 2.0 * g2) / n ** 2
    q3 = ((3 * n - 2) * g1 + 6.0 * g3) / n ** 3
    q4 = ((3 * n * n - 2 * n) * g0 + (12 * n - 16) * g2 + 24.0 * g4) / n ** 4

    # the rows of L, then those of A, so that both series take one evaluation.  Their
    # coefficients are copied out of the correlators first: the series and its
    # partner then take the four planes after the weights, the correlators' among them.
    series, work = planes[1:3].reshape(2 * rows, -1), planes[3:].reshape(2 * rows, -1)
    result = _walsh_series(
        np.concatenate((np.zeros(rows), n * corr[:, 0])),
        np.concatenate((np.take(corr, sites, axis=1), np.zeros((rows, n)))),
        np.concatenate((np.zeros((rows, n_pairs)), 2.0 * np.take(corr, pairs, axis=1))),
        series, work)
    linear, quadratic = result.reshape(2, rows, -1)
    # the thermal averages <a b> are formed in the two planes the evaluation left free
    tmp, prob_quadratic = (work if result is series else series).reshape(2, rows, -1)
    np.multiply(prob, linear, out=tmp)
    np.multiply(prob, quadratic, out=prob_quadratic)
    q_q23, q_q23sq, q2_q23sq = (
        np.multiply(a, b, out=tmp).sum(axis=1) / n ** k
        for a, b, k in ((tmp, linear, 2), (prob_quadratic, linear, 3),
                        (prob_quadratic, quadratic, 4)))

    o1 = q2 - 4.0 * q_q23 + 3.0 * q1 * q1
    e1 = q3 - 4.0 * q_q23sq + 3.0 * q1 * q2
    e2 = q4 - 4.0 * q2_q23sq + 3.0 * q2 * q2
    return np.column_stack((q1, q2, o1, e1, e2))


@dataclass(frozen=True)
class OverlapMoments:
    """Disorder-averaged overlap moments and identity polynomials.

    std_errors line up with (q1, q2, poly_p1, poly_p2, poly_p3,
    poly_p4).  Plain means carry the sample standard deviation over the
    square root of the sample count; the polynomial combinations involve
    products of disorder means, so their errors come from leave-one-out
    (jackknife) propagation over the same samples.
    """
    q1: float
    q2: float
    poly_p1: float
    poly_p2: float
    poly_p3: float
    poly_p4: float
    std_errors: tuple
    v_n: float
    v_n_std_error: float


def _jackknife(loo_values: np.ndarray) -> float:
    # a pairwise sum, not a dot product, whose bits would depend on the BLAS thread count
    count = loo_values.shape[0]
    centered = loo_values - loo_values.mean()
    return math.sqrt((count - 1) / count * float(np.square(centered).sum()))


def _identity_polynomials(q1, q2, o1, e1, e2):
    # (p1, p2, p3, v_n) on the disorder means or on each leave-one-out row; p4 is e2
    return e1 - q1 * o1, e2 - q1 * e1, e2 - q1 * q1 * o1, 0.5 * (q2 - q1 * q1)


def _overlap_moments(table: np.ndarray) -> OverlapMoments:
    # the disorder means of a size's statistics table, one row per sample
    n_samples = len(table)
    mean = table.mean(axis=0)
    # leave-one-out means, one row per deleted sample
    loo = (n_samples * mean[None, :] - table) / (n_samples - 1)
    sem = table.std(axis=0, ddof=1) / math.sqrt(n_samples)
    p1, p2, p3, v_n = _identity_polynomials(*mean)
    p1_se, p2_se, p3_se, v_n_se = map(_jackknife, _identity_polynomials(*loo.T))

    return OverlapMoments(
        q1=float(mean[0]), q2=float(mean[1]),
        poly_p1=float(p1), poly_p2=float(p2), poly_p3=float(p3), poly_p4=float(mean[4]),
        std_errors=(float(sem[0]), float(sem[1]), float(p1_se),
                    float(p2_se), float(p3_se), float(sem[4])),
        v_n=float(v_n), v_n_std_error=float(v_n_se))


def quenched_overlap_ladder(params: SkParams, sizes, n_samples: int,
                            seed: int) -> list[OverlapMoments]:
    """`quenched_overlap_moments` at each of `sizes`, bitwise, from one draw per sample.

    Returns one OverlapMoments per entry of `sizes`, in their order.  A
    sample's draws at the largest size hold those of every smaller size n
    as their first n(n+1)/2 columns, so each sample is drawn once, and each
    size takes its prefix.  Samples are drawn in spans of a power of two
    samples, at most one plane (2^15 doubles); within a span each size runs
    its blocks of max(1, 2^15 >> n) samples in one five-plane workspace
    that all sizes share.  Nothing is kept between calls.  Every argument
    is checked before anything is computed; when log-weights overflow, the
    OverflowError names the smallest size that overflows.
    """
    sizes = list(sizes)
    if not sizes:
        raise ValueError("need at least one site count")
    for n in sizes:
        _check_site_count(n)
    _check_sample_count(n_samples)
    _check_key("seed", seed)

    ladder = sorted(set(sizes))
    width = ladder[-1] * (ladder[-1] + 1) // 2
    span = min(1 << (max(1, _BLOCK_ENTRIES // width).bit_length() - 1), n_samples)
    # each block length is a power of two, so a block shorter than the span divides it
    blocks = {n: min(max(1, _BLOCK_ENTRIES >> n), span) for n in ladder}
    space = np.empty(_PLANES * max(blocks[n] << n for n in ladder))
    tables = {n: np.empty((n_samples, 5)) for n in ladder}
    bitgen = np.random.Philox(0)
    for first in range(0, n_samples, span):
        draws = _disorder_draws(bitgen, seed, range(first, min(first + span, n_samples)),
                                ladder[-1])
        # whether log-weights overflow depends on (params, n) alone (_gibbs_states),
        # so with the sizes in ascending order the first span raises for the
        # smallest size that overflows
        for n in ladder:
            for start in range(first, first + len(draws), blocks[n]):
                block = draws[start - first:start - first + blocks[n], :n * (n + 1) // 2]
                planes = space[:_PLANES * len(block) << n].reshape(_PLANES, len(block), 1 << n)
                tables[n][start:start + len(block)] = _sample_statistics(params, n, block,
                                                                         planes)
    return [_overlap_moments(tables[n]) for n in sizes]


def quenched_overlap_moments(params: SkParams, n: int, n_samples: int,
                             seed: int) -> OverlapMoments:
    """Overlap moments and identity polynomials averaged over quenched disorder.

    Each sample is keyed by (seed, index) and enumerated by the
    Walsh-Hadamard engine: one O(n 2^n) transform and O(2^n) series
    evaluations per sample from _FOLD_SITES sites up, four transforms
    below; samples go through in blocks of max(1, 2^15 >> n), all in one
    five-plane workspace.  A sample's statistics
    depend on its key alone, not on the block it falls in or on
    n_samples, so every output bit is fixed by (params, n, n_samples, seed).

    The identity polynomials are the conservation-law and gauge
    residuals: p1 and p2 are the momentum and energy streaming
    relations, p3 their combination with the squared first moment, and
    p4 the bare quartic combination whose decay holds only with no
    external field.  All are disorder averages of thermal polynomials in
    the replica overlaps and are expected to shrink at least like 1/n in
    the high-temperature phase, p4, quartic in overlaps of order n^-1/2
    with no field, like n^-2; v_n is half the full overlap variance, the
    potential term whose vanishing defines the replica-symmetric regime.
    OverflowError, naming the point, is raised when the log-weights of a
    sample could overflow.  This is the one-size `quenched_overlap_ladder`.
    """
    return quenched_overlap_ladder(params, (n,), n_samples, seed)[0]
