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
reads adjacent pairs from one buffer and writes sums and differences to
the two halves of another, so every stage runs over long rows, and its
bits are those of the in-place butterflies.  The log-weights and the two
series of the replica chains sit on subsets of at most two sites; from
_FOLD_SITES sites up they are evaluated at every configuration in
O(2^n), one site at a time, bitwise as the transform would give them,
so a sample costs one full transform plus O(2^n) work.  Samples are
processed in blocks of fixed size.
Disorder is drawn from a counter-based generator keyed by (seed, sample
index), and every per-sample result depends on that key alone, never on
how the samples are batched.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .plane import SkParams

MAX_SITES = 14
# the per-sample statistics, 5 doubles a sample, are held at once: 42 MB at most
MAX_SAMPLES = 1 << 20


def _check_site_count(n) -> None:
    if not isinstance(n, (int, np.integer)):
        raise ValueError(f"site count must be an integer, got {n!r}")
    if n < 1 or n > MAX_SITES:
        raise ValueError(
            f"site count must be in [1, {MAX_SITES}] (2^n enumeration), got {n}")


# entries of the (block, 2^n) arrays the engine works on: one sample per
# block from n = 13 up, 2^(13 - n) below.  Blocks of 2^14 entries ran a
# few per cent faster on runs of many small samples (n = 4..8) but raised
# their peak memory by about 1 %.
_BLOCK_ENTRIES = 1 << 13
# workspace planes: log-weights, transform partner, spare; series L and A, partners (2)
_PLANES = 7
# site count from which _walsh_series folds instead of transforming.  Below it
# the folds' extra numpy calls cost as much as the transform stages they save,
# or more: over three runs of interleaved per-block timings of
# _sample_statistics on a 2-vCPU host, fold/transform read 1.00-1.44 at
# n = 6-10, 0.98-1.02 at 11, 0.86-1.01 at 12, 0.86-0.96 at 13, 0.78-0.85 at 14.
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
    Self-sorting radix-2 stages alternate between the two buffers: each
    reads the pairs (2i, 2i + 1) of a row and writes their sum to i and
    their difference to i + size/2 of the other buffer.  That rotates
    the index right by one bit per stage, so after log2(size) stages it
    is back in natural order.  Bits are combined low bit first, and each
    output has the same operands in the same order as the in-place
    butterflies on pairs (c, c + h), h = 1, 2, 4, ..., so the result is
    bitwise identical to theirs, row by row.

    `a` and `work` must be C-contiguous of the same shape; both are
    overwritten.  Returns the buffer that holds the result: `a` when
    log2(size) is even, `work` when it is odd.
    """
    size = a.shape[-1]
    half = size // 2
    stages = size.bit_length() - 1
    src, dst = a.reshape(-1, size), work.reshape(-1, size)
    for _ in range(stages):
        pairs = src.reshape(src.shape[0], half, 2)
        np.add(pairs[:, :, 0], pairs[:, :, 1], out=dst[:, :half])
        np.subtract(pairs[:, :, 0], pairs[:, :, 1], out=dst[:, half:])
        src, dst = dst, src
    return work if stages % 2 else a


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
    overwritten.  Returns the one that holds the result, as `_fwht` does.
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
    standard normal and reproducible from (seed, index) alone.
    """
    seed: int
    index: int
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
    """
    rng = np.random.Generator(bitgen)
    draws = np.empty((len(indices), n * (n + 1) // 2))
    zero = np.zeros(4, dtype=np.uint64)
    key = np.array([seed, 0], dtype=np.uint64)
    # the setter copies the key, so one state serves every row
    state = {"bit_generator": "Philox", "state": {"counter": zero, "key": key},
             "buffer": zero, "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
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
    return DisorderSample(seed=int(seed), index=int(index),
                          couplings=draws[:n_pairs], site_fields=draws[n_pairs:])


def _gibbs_states(couplings: np.ndarray, site_fields: np.ndarray, params: SkParams,
                  planes: np.ndarray):
    """Normalized Boltzmann weights and all correlators for a block of samples.

    Row r of `couplings` and `site_fields` is one disorder sample.  Row r
    of `prob` holds the probabilities of its 2^n configurations (bit i
    of a configuration is site i, bit value 0 mapped to +1), for
    log-weights sqrt(t/n) sum_{i<j} J_ij s_i s_j + sum_i (beta_h +
    sqrt(x) J_i) s_i.  Row r of `correlators` holds <prod_{i in S} s_i>
    at index S (a bit mask of sites).  Both are planes of `planes`, a
    C-contiguous (3, rows, 2^n) workspace overwritten whatever it holds.
    """
    rows, n = site_fields.shape
    # A row's log-weights, and every partial sum of their transform, are at
    # most its absolute coefficient sum in size, and the max shift below
    # subtracts up to twice that.  `bound` is at least that sum in every row
    # of the block; only beta_h can bring it near the largest double, since
    # the terms in J stay below 1e157.  Python floats, so that forming the
    # bound cannot warn; 2^-40 of slack covers rounding.
    largest = max(float(np.abs(couplings).max(initial=0.0)), float(np.abs(site_fields).max()))
    bound = n * abs(params.beta_h) + largest * (
        couplings.shape[1] * math.sqrt(params.t / n) + n * math.sqrt(params.x))
    if not math.isfinite(2.0 * (1.0 + 2.0 ** -40) * bound):
        raise OverflowError(f"log-weights overflow at n={n}, x={params.x}, t={params.t}, "
                            f"beta_h={params.beta_h}, so the 2^n enumeration cannot be formed")
    walsh, work, spare = planes
    prob = _walsh_series(0.0, params.beta_h + math.sqrt(params.x) * site_fields,
                         math.sqrt(params.t / n) * couplings, walsh, work)
    prob -= prob.max(axis=1, keepdims=True)
    np.exp(prob, out=prob)
    prob /= prob.sum(axis=1, keepdims=True)
    # the transform overwrites both buffers, so it runs on a copy in the plane left free
    free = work if prob is walsh else walsh
    np.copyto(free, prob)
    return prob, _fwht(free, spare)


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
        self.sample = sample
        self.params = params
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

    The samples, one row of `draws` each (from `_disorder_draws`), are
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
    # the rows of L, then those of A, so that both series take one evaluation
    series, work = planes[3:5].reshape(2 * rows, -1), planes[5:].reshape(2 * rows, -1)
    prob, corr = _gibbs_states(draws[:, :n_pairs], draws[:, n_pairs:], params, planes[:3])
    sites, pairs, by_size = _walsh_masks(n)
    g0, g1, g2, g3, g4 = (np.square(np.take(corr, masks, axis=1)).sum(axis=1)
                          for masks in by_size)
    q1 = g1 / n
    q2 = (n * g0 + 2.0 * g2) / n ** 2
    q3 = ((3 * n - 2) * g1 + 6.0 * g3) / n ** 3
    q4 = ((3 * n * n - 2 * n) * g0 + (12 * n - 16) * g2 + 24.0 * g4) / n ** 4

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
    poly_p4).  Plain means carry the sample standard deviation over
    sqrt(n_samples); the polynomial combinations involve products of
    disorder means, so their errors come from leave-one-out
    (jackknife) propagation over the same samples.
    """
    n: int
    n_samples: int
    seed: int
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
    count = loo_values.shape[0]
    centered = loo_values - loo_values.mean()
    return math.sqrt((count - 1) / count * float(centered @ centered))


def _identity_polynomials(q1, q2, o1, e1, e2):
    # (p1, p2, p3, v_n) on the disorder means or on each leave-one-out row; p4 is e2
    return e1 - q1 * o1, e2 - q1 * e1, e2 - q1 * q1 * o1, 0.5 * (q2 - q1 * q1)


def quenched_overlap_moments(params: SkParams, n: int, n_samples: int,
                             seed: int) -> OverlapMoments:
    """Overlap moments and identity polynomials averaged over quenched disorder.

    Each sample is keyed by (seed, index) and enumerated by the
    Walsh-Hadamard engine: one O(n 2^n) transform and O(2^n) series
    evaluations per sample from _FOLD_SITES sites up, four row transforms
    below; samples go through in blocks of
    max(1, 2^13 >> n), all in one workspace.  A sample's statistics
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
    sample could overflow.
    """
    _check_site_count(n)
    _check_sample_count(n_samples)
    _check_key("seed", seed)

    block = min(max(1, _BLOCK_ENTRIES >> n), n_samples)
    table = np.empty((n_samples, 5))
    bitgen = np.random.Philox(0)
    space = np.empty(_PLANES * block << n)
    for first in range(0, n_samples, block):
        last = min(first + block, n_samples)
        draws = _disorder_draws(bitgen, seed, range(first, last), n)
        planes = space[:_PLANES * (last - first) << n].reshape(_PLANES, last - first, 1 << n)
        table[first:last] = _sample_statistics(params, n, draws, planes)

    mean = table.mean(axis=0)
    # leave-one-out means, one row per deleted sample
    loo = (n_samples * mean[None, :] - table) / (n_samples - 1)
    sem = table.std(axis=0, ddof=1) / math.sqrt(n_samples)
    p1, p2, p3, v_n = _identity_polynomials(*mean)
    p1_se, p2_se, p3_se, v_n_se = map(_jackknife, _identity_polynomials(*loo.T))

    return OverlapMoments(
        n=n, n_samples=int(n_samples), seed=int(seed),
        q1=float(mean[0]), q2=float(mean[1]),
        poly_p1=float(p1), poly_p2=float(p2), poly_p3=float(p3), poly_p4=float(mean[4]),
        std_errors=(float(sem[0]), float(sem[1]), float(p1_se),
                    float(p2_se), float(p3_se), float(sem[4])),
        v_n=float(v_n), v_n_std_error=float(v_n_se))
