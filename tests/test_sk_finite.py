"""Finite-size glass: enumeration Gibbs states, disorder stream, overlap identities."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest

from spinflow import (
    SkParams,
    DisorderSample,
    draw_disorder,
    gaussian_expectation,
    GibbsCorrelators,
    quenched_overlap_ladder,
    quenched_overlap_moments,
    solve_qbar,
)
from spinflow import sk_finite


def block_statistics(params, n, seed, indices, fill=0.0):
    """The engine's statistics rows for samples `indices` enumerated as one block.

    The workspace starts out with every entry equal to `fill`.
    """
    draws = sk_finite._disorder_draws(np.random.Philox(0), seed, indices, n)
    planes = np.full((sk_finite._PLANES, len(draws), 1 << n), fill)
    return sk_finite._sample_statistics(params, n, draws, planes)


def sample_hamiltonian_weights(sample: DisorderSample, params: SkParams):
    """Normalized Gibbs weights over all spin configurations, by a literal loop."""
    n = sample.n
    pairs = list(zip(*np.triu_indices(n, 1)))
    configs = list(itertools.product((1.0, -1.0), repeat=n))
    log_w = []
    for sigma in configs:
        pair_term = sum(j_val * sigma[i] * sigma[j]
                        for (i, j), j_val in zip(pairs, sample.couplings))
        site_term = sum((params.beta_h + math.sqrt(params.x) * h_i) * s
                        for h_i, s in zip(sample.site_fields, sigma))
        log_w.append(math.sqrt(params.t / n) * pair_term + site_term)
    shift = max(log_w)
    w = np.array([math.exp(v - shift) for v in log_w])
    return np.array(configs), w / w.sum()


def test_disorder_stream_is_reproducible():
    a = draw_disorder(7, 3, 6)
    b = draw_disorder(7, 3, 6)
    assert np.array_equal(a.couplings, b.couplings)
    assert np.array_equal(a.site_fields, b.site_fields)
    assert a.couplings.shape == (15,)
    assert a.site_fields.shape == (6,)
    c = draw_disorder(7, 4, 6)
    assert not np.array_equal(a.couplings, c.couplings)


def test_disorder_stream_validation():
    with pytest.raises(ValueError):
        draw_disorder(-1, 0, 4)
    with pytest.raises(ValueError):
        draw_disorder(0, 2 ** 64, 4)
    with pytest.raises(ValueError):
        draw_disorder(0, 0, 15)
    # refused before the table of per-sample statistics is allocated
    for n_samples in (1, sk_finite.MAX_SAMPLES + 1):
        with pytest.raises(ValueError, match="disorder samples"):
            quenched_overlap_moments(SkParams(0.3, 0.8, 0.15), 4, n_samples, seed=0)


def test_free_spins_have_one_body_correlators():
    params = SkParams(0.0, 0.0, 0.4)
    sample = draw_disorder(1, 0, 5)
    omega = GibbsCorrelators(sample, params)
    for i in range(5):
        assert omega((i,)) == pytest.approx(math.tanh(0.4), abs=1e-14)


def test_cavity_fields_factorize_per_site_at_zero_coupling():
    params = SkParams(0.9, 0.0, 0.2)
    sample = draw_disorder(3, 1, 6)
    omega = GibbsCorrelators(sample, params)
    for i in range(6):
        expected = math.tanh(0.2 + math.sqrt(0.9) * sample.site_fields[i])
        assert omega((i,)) == pytest.approx(expected, abs=1e-14)


def test_correlators_match_a_hand_rolled_enumeration():
    params = SkParams(0.3, 0.8, 0.15)
    sample = draw_disorder(11, 2, 4)
    configs, prob = sample_hamiltonian_weights(sample, params)
    omega = GibbsCorrelators(sample, params)
    for sites in [(0,), (2,), (0, 1), (1, 3), (0, 1, 2), (0, 1, 2, 3), (1, 1), (2, 2, 3)]:
        direct = float(np.dot(prob, np.prod(configs[:, sites], axis=1)))
        assert omega(sites) == pytest.approx(direct, abs=1e-14)
    # a repeated site squares away
    assert omega((1, 1)) == pytest.approx(1.0, abs=1e-15)


@pytest.mark.parametrize("call, match", [
    (lambda: draw_disorder(0, 0, 4.0), "site count must be an integer"),
    (lambda: quenched_overlap_moments(SkParams(0.1, 0.1), 4.5, 4, seed=0),
     "site count must be an integer"),
    (lambda: GibbsCorrelators(DisorderSample(0, 0, np.zeros(5), np.zeros(4)), SkParams(0.1, 0.1)),
     "couplings length"),
    (lambda: GibbsCorrelators(draw_disorder(0, 0, 4), SkParams(0.1, 0.1))((0, 4)),
     r"site index 4 outside \[0, 4\)"),
    (lambda: GibbsCorrelators(draw_disorder(0, 0, 4), SkParams(0.1, 0.1))((-1,)),
     r"site index -1 outside"),
], ids=["draw n=4.0", "moments n=4.5", "couplings length", "site 4 of 4", "site -1"])
def test_enumeration_refuses_a_bad_size_or_site(call, match):
    with pytest.raises(ValueError, match=match):
        call()


def test_cost_guard_and_parameter_checks():
    with pytest.raises(ValueError):
        quenched_overlap_moments(SkParams(0.1, 0.1), 15, 10, seed=0)
    with pytest.raises(ValueError):
        quenched_overlap_moments(SkParams(0.1, 0.1), 4, 1, seed=0)


@pytest.mark.parametrize("n, beta_h", [(1, 8.98846567431158e+307), (4, 3e307), (4, 1e308),
                                       (14, 1e307)])
def test_overflowing_log_weights_raise_and_name_the_point(n, beta_h):
    params = SkParams(0.0, 0.0, beta_h)
    with pytest.raises(OverflowError) as err:
        quenched_overlap_moments(params, n, 2, seed=0)
    for part in (f"n={n}", "x=0.0", "t=0.0", f"beta_h={beta_h}"):
        assert part in str(err.value)
    with pytest.raises(OverflowError):
        GibbsCorrelators(draw_disorder(0, 0, n), params)


def test_ladder_checks_every_argument_before_computing(monkeypatch):
    def untouched(*args):
        raise AssertionError("a sample was enumerated")

    monkeypatch.setattr(sk_finite, "_sample_statistics", untouched)
    params = SkParams(0.1, 0.1)
    for sizes, count, seed, match in (((4, 8, 15), 4, 0, "got 15"), ((0, 4, 8), 4, 0, "got 0"),
                                      ((4, 8.0), 4, 0, "must be an integer"),
                                      ((), 4, 0, "at least one site count"),
                                      ((4, 8), 1, 0, "disorder samples"),
                                      ((4, 8), 4, -1, "seed")):
        with pytest.raises(ValueError, match=match):
            quenched_overlap_ladder(params, sizes, count, seed)


def test_overflowing_ladder_names_its_smallest_overflowing_size():
    # beta_h = 3e307 overflows from n = 3 up, whichever sample is drawn; the ladder's
    # OverflowError is the one that size raises on its own
    params = SkParams(0.0, 0.0, 3e307)
    quenched_overlap_moments(params, 2, 2, seed=0)
    with pytest.raises(OverflowError) as alone:
        quenched_overlap_moments(params, 3, 2, seed=0)
    for sizes in ((2, 3, 4), (9, 4, 3, 2)):
        with pytest.raises(OverflowError) as err:
            quenched_overlap_ladder(params, sizes, 2, seed=0)
        assert str(err.value) == str(alone.value)
        assert "n=3," in str(err.value)


@pytest.mark.parametrize("n, params", [(1, SkParams(0.0, 0.0, 8.9e307)),
                                       (4, SkParams(0.0, 0.0, -2.2e307)),
                                       (4, SkParams(1e300, 1e308, 2e307))])
def test_strongest_fields_below_the_overflow_bound_enumerate(n, params):
    # fields this strong pin every spin, so the overlap is 1
    m = quenched_overlap_moments(params, n, 2, seed=0)
    assert m.q1 == 1.0


def test_gauge_symmetry_kills_odd_correlators():
    # with no external field the weight is even under a global spin flip
    params = SkParams(0.0, 0.7, 0.0)
    sample = draw_disorder(5, 0, 6)
    omega = GibbsCorrelators(sample, params)
    for sites in [(0,), (3,), (0, 1, 2), (1, 4, 5)]:
        assert abs(omega(sites)) < 1e-12


def overlap_chain_moments(prob, spins, n):
    """Direct multi-replica overlap moments from the configuration overlap matrix."""
    q = spins @ spins.T / n
    qp = {power: q ** power for power in (1, 2, 3, 4)}
    pair = {power: float(prob @ qp[power] @ prob) for power in (1, 2, 3, 4)}
    # chains 1-2-3 over a shared middle replica
    chain_12_23 = float(prob @ ((qp[1] @ prob) * (qp[1] @ prob)))
    chain_12_23sq = float(prob @ ((qp[1] @ prob) * (qp[2] @ prob)))
    chain_12sq_23sq = float(prob @ ((qp[2] @ prob) * (qp[2] @ prob)))
    o1 = pair[2] - 4.0 * chain_12_23 + 3.0 * pair[1] ** 2
    e1 = pair[3] - 4.0 * chain_12_23sq + 3.0 * pair[1] * pair[2]
    e2 = pair[4] - 4.0 * chain_12sq_23sq + 3.0 * pair[2] ** 2
    return pair[1], pair[2], o1, e1, e2


def literal_replica_loops(prob, spins, n):
    """Same moments by brute quadruple loops over replica configurations."""
    size = len(prob)
    q = spins @ spins.T / n
    q1 = q2 = q3 = q4 = 0.0
    for a in range(size):
        for b in range(size):
            w = prob[a] * prob[b]
            q1 += w * q[a, b]
            q2 += w * q[a, b] ** 2
            q3 += w * q[a, b] ** 3
            q4 += w * q[a, b] ** 4
    chain_12_23 = chain_12_23sq = chain_12sq_23sq = 0.0
    for a in range(size):
        for b in range(size):
            for c in range(size):
                w = prob[a] * prob[b] * prob[c]
                chain_12_23 += w * q[a, b] * q[b, c]
                chain_12_23sq += w * q[a, b] * q[b, c] ** 2
                chain_12sq_23sq += w * q[a, b] ** 2 * q[b, c] ** 2
    o1 = q2 - 4.0 * chain_12_23 + 3.0 * q1 ** 2
    e1 = q3 - 4.0 * chain_12_23sq + 3.0 * q1 * q2
    e2 = q4 - 4.0 * chain_12sq_23sq + 3.0 * q2 ** 2
    return q1, q2, o1, e1, e2


def test_chain_contraction_equals_literal_replica_loops():
    params = SkParams(0.2, 0.9, 0.3)
    sample = draw_disorder(21, 0, 3)
    configs, prob = sample_hamiltonian_weights(sample, params)
    fast = overlap_chain_moments(prob, configs, 3)
    slow = literal_replica_loops(prob, configs, 3)
    assert fast == pytest.approx(slow, abs=1e-14)


@pytest.mark.parametrize("n", [3, 5, 6])
def test_moments_match_direct_replica_enumeration(n):
    params = SkParams(0.15, 0.6, 0.25)
    seed = 33
    per_sample = []
    for index in (0, 1):
        sample = draw_disorder(seed, index, n)
        configs, prob = sample_hamiltonian_weights(sample, params)
        per_sample.append(overlap_chain_moments(prob, configs, n))
    table = np.array(per_sample)
    q1, q2, o1, e1, e2 = table.mean(axis=0)
    expected_p1 = e1 - q1 * o1
    expected_p2 = e2 - q1 * e1
    expected_p3 = e2 - q1 ** 2 * o1
    moments = quenched_overlap_moments(params, n, 2, seed=seed)
    assert moments.q1 == pytest.approx(q1, abs=1e-12)
    assert moments.q2 == pytest.approx(q2, abs=1e-12)
    assert moments.poly_p1 == pytest.approx(expected_p1, abs=1e-12)
    assert moments.poly_p2 == pytest.approx(expected_p2, abs=1e-12)
    assert moments.poly_p3 == pytest.approx(expected_p3, abs=1e-12)
    assert moments.poly_p4 == pytest.approx(e2, abs=1e-12)
    assert moments.v_n == pytest.approx(0.5 * (q2 - q1 ** 2), abs=1e-12)


def test_free_spin_polynomials_have_closed_values():
    # at t = x = 0 every overlap reduces to counting coincident sites
    for n in (4, 9):
        moments = quenched_overlap_moments(SkParams(0.0, 0.0, 0.0), n, 8, seed=2)
        assert moments.q1 == 0.0
        assert moments.poly_p1 == 0.0
        assert moments.q2 == pytest.approx(1.0 / n, rel=1e-14, abs=0)
        closed = 2.0 * (n - 1.0) / n ** 3
        assert moments.poly_p2 == pytest.approx(closed, rel=1e-13, abs=0)
        assert moments.poly_p3 == pytest.approx(closed, rel=1e-13, abs=0)
        assert moments.poly_p4 == pytest.approx(closed, rel=1e-13, abs=0)
        assert moments.v_n == pytest.approx(0.5 / n, rel=1e-14, abs=0)


def in_place_butterflies(a):
    """The engine's former transform: in-place butterflies on (c, c + h), h = 1, 2, 4, ..."""
    size = a.shape[-1]
    rows = a.reshape(-1, size)
    h = 1
    while h < size:
        pairs = rows.reshape(rows.shape[0], size // (2 * h), 2, h)
        lo, hi = pairs[:, :, 0], pairs[:, :, 1]
        diff = lo - hi
        lo += hi
        hi[...] = diff
        h *= 2
    return a


def transform_inputs(n):
    rng = np.random.default_rng(n)
    # row counts that are not powers of two (the engine runs 200-row blocks at n = 4, 5)
    for shape in ((1, 1 << n), (max(1, 8192 >> n), 1 << n), (2, max(1, 8192 >> n), 1 << n),
                  (3, 1 << n), (200, 1 << n), (2, 3, 1 << n)):
        yield np.exp(rng.uniform(-5.0, 5.0, shape)) * rng.choice((-1.0, 1.0), shape)


@pytest.mark.parametrize("n", range(1, 15))
def test_transform_is_bitwise_the_in_place_butterflies(n):
    for data in transform_inputs(n):
        a, work = data.copy(), np.empty_like(data)
        result = sk_finite._fwht(a, work)
        assert result is (a if n % 2 else work)
        expected = in_place_butterflies(data.copy())
        assert np.array_equal(result.view(np.uint64), expected.view(np.uint64))


@pytest.mark.parametrize("n", range(1, 11))
def test_transform_is_the_hadamard_matrix_product(n):
    hadamard = np.ones((1, 1))
    for _ in range(n):
        hadamard = np.block([[hadamard, hadamard], [hadamard, -hadamard]])
    for data in transform_inputs(n):
        result = sk_finite._fwht(data.copy(), np.empty_like(data))
        expected = data @ hadamard
        scale = np.abs(data).sum(axis=-1, keepdims=True)
        assert np.all(np.abs(result - expected) <= 1e-14 * scale)


def series_coefficients(rng, rows, n, case):
    """(constant, fields, pairs) of a Walsh series on at most two sites, one row each."""
    constant = rng.standard_normal(rows) if case == "constant" else 0.0
    fields = rng.standard_normal((rows, n))
    pairs = rng.standard_normal((rows, n * (n - 1) // 2))
    if case == "signed zeros":
        # t = 0 makes every pair coefficient a signed zero; so are some fields here
        pairs *= 0.0
        fields[rng.random(fields.shape) < 0.5] *= 0.0
    elif case == "negative zero constant":
        constant = np.full(rows, -0.0)
        fields[rng.random(fields.shape) < 0.5] *= 0.0
        pairs[rng.random(pairs.shape) < 0.5] *= 0.0
    elif case == "no pairs":
        pairs[:] = 0.0
    return constant, fields, pairs


@pytest.mark.parametrize("fold_sites", [1, sk_finite._FOLD_SITES])
@pytest.mark.parametrize("n", range(1, 15))
def test_series_evaluator_is_bitwise_the_transform_of_its_coefficients(n, fold_sites, monkeypatch):
    # fold_sites = 1 folds at every n; the default folds from _FOLD_SITES up
    monkeypatch.setattr(sk_finite, "_FOLD_SITES", fold_sites)
    rng = np.random.default_rng(100 + n)
    masks = [1 << i for i in range(n)], [(1 << i) | (1 << j)
                                         for i, j in itertools.combinations(range(n), 2)]
    for data in transform_inputs(n):
        rows = data.size >> n
        for case in ("zero constant", "constant", "signed zeros", "negative zero constant",
                     "no pairs"):
            if case == "negative zero constant" and n >= fold_sites:
                continue  # the fold's precondition: no caller passes a -0.0 constant
            constant, fields, pairs = series_coefficients(rng, rows, n, case)
            vector = np.zeros((rows, 1 << n))
            vector[:, 0] = constant
            vector[:, masks[0]] = fields
            vector[:, masks[1]] = pairs
            expected = sk_finite._fwht(vector, np.empty_like(vector))
            # every entry of the result is written, whatever the planes held
            out, work = np.full((2, rows, 1 << n), np.nan)
            result = sk_finite._walsh_series(constant, fields, pairs, out, work)
            assert result is out or result is work
            assert np.array_equal(result.view(np.uint64), expected.view(np.uint64)), case


def overlap_values(m):
    # the order of the FROZEN_MOMENTS entries
    return (m.q1, m.q2, m.poly_p1, m.poly_p2, m.poly_p3, m.poly_p4,
            m.v_n, m.v_n_std_error, *m.std_errors)


# quenched_overlap_moments at (x, t, beta_h) = (0.3, 0.8, 0.15), frozen as
# float.hex: (q1, q2, poly_p1..p4, v_n, v_n_std_error, *std_errors); the n = 11
# and n = 12 entries sit on either side of sk_finite._FOLD_SITES, and new
# entries go last, so that the test ids of the others keep their entries
FROZEN_MOMENTS = {
    (5, 40, 3): (
        "0x1.0f72485e1a6c4p-2", "0x1.58018447745c4p-2", "-0x1.6c6243309a560p-11",
        "0x1.78f81a1679c0ep-5", "0x1.7775bb6695cd4p-5", "0x1.a2622036d8135p-5",
        "0x1.100cba38834edp-3", "0x1.1c1bd580a692fp-8", "0x1.8605d312cf0a6p-6",
        "0x1.c2666471f29d3p-7", "0x1.05d6b878d760bp-8", "0x1.15d071624207dp-8",
        "0x1.4c75fecdc773ap-8", "0x1.522319ebfd7e9p-8"),
    (5, 40, 2 ** 64 - 1): (
        "0x1.eaf083548c0dap-3", "0x1.6483e116430f5p-2", "-0x1.68ab6afb8e1bcp-8",
        "0x1.5d64fe1ce2c8dp-5", "0x1.5296524ae04c4p-5", "0x1.7e462f1ab1e74p-5",
        "0x1.29ac078ae06ebp-3", "0x1.7dee9b080edfap-8", "0x1.a61eb248338e5p-6",
        "0x1.0fa7333a93ed0p-6", "0x1.2f0cb1b32b1fcp-8", "0x1.835fae0f03ef4p-8",
        "0x1.c2be12fdc008ap-8", "0x1.b0a23e0881a6bp-8"),
    (14, 3, 3): (
        "0x1.352b9ad7c0617p-2", "0x1.becd1caf11dbdp-3", "0x1.02634b808e8edp-7",
        "0x1.24fc866012e42p-6", "0x1.4bfe42033e190p-6", "0x1.7789f9d7efef5p-6",
        "0x1.041bf711f594cp-4", "0x1.d28430eb7d830p-7", "0x1.9d7a1a0010359p-5",
        "0x1.626dd2f3fcb71p-6", "0x1.73537f236edfep-8", "0x1.f063071f7bc75p-8",
        "0x1.1c25c4fb77524p-7", "0x1.5f8374a7b0241p-7"),
    (14, 3, 2 ** 64 - 1): (
        "0x1.9eda2c9a7f657p-2", "0x1.0f53ee5095309p-2", "0x1.19c6e0c82075ep-8",
        "0x1.45c10c19eb545p-7", "0x1.7ed50498d4c18p-7", "0x1.93ef58cb2ce1bp-7",
        "0x1.9d09570ea1cfcp-5", "0x1.e778d6ac9f3f4p-10", "0x1.7c136feab9c2dp-4",
        "0x1.24393d3b4e773p-4", "0x1.3d427a32d583dp-9", "0x1.d2b7ac9f88f41p-9",
        "0x1.048832765f3b9p-8", "0x1.275ba7fe061d9p-8"),
    (11, 8, 3): (
        "0x1.188ff4a9e93b3p-2", "0x1.c8c64cfa32ae7p-3", "0x1.c8642149f75d0p-11",
        "0x1.2b54773bdacd5p-6", "0x1.2f3cd38ce67e5p-6", "0x1.71ae429b4454ep-6",
        "0x1.2f08b0e6bbc24p-4", "0x1.88b47ae530c46p-7", "0x1.918cc348ccd50p-5",
        "0x1.607d6a9335badp-6", "0x1.7077d2a03cf23p-8", "0x1.35ae1dd063775p-9",
        "0x1.effc9479a0016p-9", "0x1.6eeccfa3d7146p-9"),
    (12, 6, 3): (
        "0x1.bf107b77dedc7p-2", "0x1.42ef9099194edp-2", "-0x1.374061e8a3e97p-8",
        "0x1.67b0fec282fcfp-8", "0x1.bf9b42f885235p-9", "0x1.4ead55500d3dfp-8",
        "0x1.ff03b2281e6d2p-5", "0x1.91043cb5c8d1ap-7", "0x1.68cb90e8e2144p-4",
        "0x1.037c7ce8c6cd6p-4", "0x1.5d98009064cf3p-8", "0x1.58cbeaafe47d6p-8",
        "0x1.d2f5e6e0383c8p-8", "0x1.2754ffeeaaa79p-7"),
}


@pytest.mark.parametrize("key", list(FROZEN_MOMENTS))
def test_overlap_moments_keep_their_frozen_bits(key):
    n, n_samples, seed = key
    m = quenched_overlap_moments(SkParams(0.3, 0.8, 0.15), n, n_samples, seed=seed)
    assert overlap_values(m) == tuple(float.fromhex(h) for h in FROZEN_MOMENTS[key])


@pytest.mark.parametrize("seed", [0, 2 ** 64 - 1])
@pytest.mark.parametrize("n", [1, 5, 14])
def test_block_draws_are_fresh_generator_draws(seed, n):
    indices = [2, 2 ** 64 - 1, 0, 1]
    draws = sk_finite._disorder_draws(np.random.Philox(0), seed, indices, n)
    for row, index in zip(draws, indices):
        fresh = np.random.Generator(np.random.Philox(key=np.array([seed, index], dtype=np.uint64)))
        assert np.array_equal(row, fresh.standard_normal(n * (n + 1) // 2))
        sample = draw_disorder(seed, index, n)
        assert np.array_equal(np.concatenate((sample.couplings, sample.site_fields)), row)


@pytest.mark.parametrize("seed", [0, 2 ** 64 - 1])
def test_smaller_draws_are_a_prefix_of_larger_ones(seed):
    indices = [2, 2 ** 64 - 1, 0]
    for index in indices:
        key = np.array([seed, index], dtype=np.uint64)
        larger = {m: np.random.Generator(np.random.Philox(key=key)).standard_normal(
            m * (m + 1) // 2) for m in range(1, sk_finite.MAX_SITES + 1)}
        for n in larger:
            draws = sk_finite._disorder_draws(np.random.Philox(0), seed, [index], n)[0]
            for m in range(n, sk_finite.MAX_SITES + 1):
                assert np.array_equal(draws, larger[m][:n * (n + 1) // 2]), (n, m)


# per ladder, a sample count that spans several draws: the draws at the largest size
# m come 2^15 doubles at most, in 2^k >= 1 samples of m(m + 1)/2 doubles: 512 at
# m = 8, 256 at m = 14 and 8192 at m = 2.  _BLOCK_ENTRIES patched to 2^6 or 2^9
# shrinks spans and blocks alike, so that ladders up to n = 14 span several draws
# with few samples.
_LADDERS = [((4, 5, 6, 7, 8), 1100, None), ((3, 9, 14), 5, 1 << 9), ((1, 2), 8200, None),
            ((11, 12, 13, 14), 3, 1 << 6), ((4, 5, 6, 7, 8), 40, 1 << 6),
            ((1, 2), 70, 1 << 6)]


@pytest.mark.parametrize("seed", [3, 2 ** 64 - 1])
@pytest.mark.parametrize("sizes, count, entries", _LADDERS,
                         ids=["4-8", "3-9-14-small-blocks", "1-2", "11-14-small-blocks",
                              "4-8-small-blocks", "1-2-small-blocks"])
def test_ladder_is_bitwise_the_per_size_moments(sizes, count, entries, seed, monkeypatch):
    params = SkParams(0.3, 0.8, 0.15)
    alone = [quenched_overlap_moments(params, n, count, seed) for n in sizes]
    if entries is not None:
        monkeypatch.setattr(sk_finite, "_BLOCK_ENTRIES", entries)
    assert quenched_overlap_ladder(params, sizes, count, seed) == alone
    # in any order, with a size repeated
    assert quenched_overlap_ladder(params, (sizes[-1], *sizes), count, seed) == [
        alone[-1], *alone]


@pytest.mark.parametrize("key", list(FROZEN_MOMENTS))
def test_ladder_entries_keep_their_frozen_bits(key):
    n, n_samples, seed = key
    ladder = quenched_overlap_ladder(SkParams(0.3, 0.8, 0.15), (1, n, 14), n_samples, seed)
    assert overlap_values(ladder[1]) == tuple(float.fromhex(h) for h in FROZEN_MOMENTS[key])


def test_repeat_runs_are_bit_identical():
    params = SkParams(0.1, 0.5, 0.2)
    a = quenched_overlap_moments(params, 6, 30, seed=13)
    b = quenched_overlap_moments(params, 6, 30, seed=13)
    assert a == b


@pytest.mark.parametrize("n", [4, 7, 8, 12, 14])
def test_sample_rows_do_not_depend_on_the_block(n):
    params = SkParams(0.2, 0.9, 0.1)
    count = 3 if n == 14 else 7
    block = block_statistics(params, n, 19, range(count))
    single = np.vstack([block_statistics(params, n, 19, [index]) for index in range(count)])
    assert np.array_equal(block, single)
    # nor on what the workspace held: a plane left unzeroed or unwritten shows as NaN
    assert np.array_equal(block_statistics(params, n, 19, range(count), fill=np.nan), block)


@pytest.mark.parametrize("params", [SkParams(0.3, 0.8, 0.15), SkParams(0.05, 2.0, 0.0)])
@pytest.mark.parametrize("n", [1, 2, 3, 5, 9])
def test_transform_statistics_match_brute_force_replicas(n, params):
    rows = block_statistics(params, n, 27, range(2))
    for index, row in enumerate(rows):
        configs, prob = sample_hamiltonian_weights(draw_disorder(27, index, n), params)
        expected = overlap_chain_moments(prob, configs, n)
        assert np.max(np.abs(row - np.array(expected))) <= 1e-12


def test_every_low_order_correlator_matches_the_enumeration():
    params = SkParams(0.3, 0.8, 0.15)
    sample = draw_disorder(11, 4, 5)
    configs, prob = sample_hamiltonian_weights(sample, params)
    omega = GibbsCorrelators(sample, params)
    for size in range(5):
        for sites in itertools.combinations(range(5), size):
            direct = float(np.dot(prob, np.prod(configs[:, list(sites)], axis=1)))
            assert omega(sites) == pytest.approx(direct, abs=1e-14)


def test_block_size_does_not_change_results(monkeypatch):
    params = SkParams(0.05, 1.1, 0.0)
    # 2^15 >> n samples per block: 256 at n = 7 run all 24 in one block; the 8, 4
    # and 2 at n = 12, 13 and 14 (the fold sizes) leave one short block
    for n, count in ((7, 24), (12, 9), (13, 5), (14, 3)):
        default = quenched_overlap_moments(params, n, count, seed=4)
        # 2^(n + 2) entries take 4 samples per block; 2^6 >> n = 0 falls back to one
        for entries in (1 << (n + 2), 1 << 6):
            with monkeypatch.context() as patch:
                patch.setattr(sk_finite, "_BLOCK_ENTRIES", entries)
                assert quenched_overlap_moments(params, n, count, seed=4) == default


@pytest.mark.parametrize("sizes, count", [((8,), 200), ((14,), 5), (range(4, 9), 200),
                                          (range(1, 15), 3)],
                         ids=["8-200", "14-5", "ladder-4..8-200", "ladder-1..14-3"])
def test_overlap_workspace_stays_within_its_memory(sizes, count):
    # the traced heap of a call peaks at 1.46 MiB at n = 8 and at n = 14, 1.51 MiB
    # for the ladder n = 4..8 and 1.46 MiB for n = 1..14 (numpy 2.4): the five-plane
    # workspace of a full block of 2^15 entries, which every size of a ladder
    # shares, is 1.25 MiB of it, and one more plane would add 0.25 MiB
    params = SkParams(0.0, 0.36, 0.0)
    quenched_overlap_ladder(params, sizes, count, seed=3)  # caches filled outside the trace
    tracemalloc.start()
    try:
        quenched_overlap_ladder(params, sizes, count, seed=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.6 * 2 ** 20


def test_boundary_overlap_matches_the_cavity_expectation():
    # t = 0: every disorder sample factorizes, so <q12> estimates
    # E_g tanh^2(beta_h + g sqrt(x)) with plain Monte Carlo error
    moments = quenched_overlap_moments(SkParams(0.4, 0.0, 0.2), 8, 600, seed=7)
    target = gaussian_expectation("tanh_sq", 0.2, 0.4)
    assert abs(moments.q1 - target) <= 3.0 * moments.std_errors[0]


def test_overlap_agrees_with_rs_solver_at_high_temperature():
    params = SkParams(0.0, 0.25, 0.0)
    moments = quenched_overlap_moments(params, 10, 200, seed=11)
    qbar = solve_qbar(params)
    # the gauge symmetry makes q1 exactly zero here, collapsing the
    # standard error to rounding noise, hence the absolute floor
    assert abs(moments.q1 - qbar) <= 3.0 * moments.std_errors[0] + 1e-12


def test_overlap_extrapolates_to_the_rs_fixed_point_in_a_field():
    # off x = beta_h = 0 neither side is zero: E q1 = a + b/n + O(n^-2) is
    # fitted over n = 6..12 by weighted least squares, and a should be q-bar
    params = SkParams(0.3, 0.36, 0.2)
    qbar = solve_qbar(params)
    assert qbar == pytest.approx(0.25005, abs=1e-5)
    sizes = np.arange(6, 13)
    runs = [quenched_overlap_moments(params, int(n), 2500, seed=1800 + int(n)) for n in sizes]
    errors = np.array([m.std_errors[0] for m in runs])
    design = np.column_stack((np.ones(len(sizes)), 1.0 / sizes)) / errors[:, None]
    covariance = np.linalg.inv(design.T @ design)
    intercept, _ = covariance @ design.T @ (np.array([m.q1 for m in runs]) / errors)
    intercept_error = math.sqrt(covariance[0, 0])
    assert intercept_error < 0.01
    assert abs(intercept - qbar) <= 3.0 * intercept_error


def test_quartic_identity_polynomial_decays_faster_than_one_over_n():
    # criterion 10 compares n = 6 with n = 12 only; here the whole ladder n = 6..12 at
    # its point, weighted by the standard errors as in the fit above.  With no field the
    # overlaps are O(n^-1/2), so every term of p4 = E<q12^4 - 4 q12^2 q23^2 + 3 q12^2 q34^2>
    # is O(n^-2); over these sizes the log-log slope of E p4 reads 1.469 +- 0.005, and
    # the fit E p4 = a + b/n does not hold: on these samples a = -0.0130 +- 0.00015
    params = SkParams(0.0, 0.36, 0.0)
    sizes = np.arange(6, 13)
    runs = [quenched_overlap_moments(params, int(n), 1000, seed=2400 + int(n)) for n in sizes]
    p4 = np.array([m.poly_p4 for m in runs])
    relative = np.array([m.std_errors[5] for m in runs]) / p4
    design = np.column_stack((np.ones(len(sizes)), -np.log(sizes))) / relative[:, None]
    covariance = np.linalg.inv(design.T @ design)
    _, slope = covariance @ design.T @ (np.log(p4) / relative)
    slope_error = math.sqrt(covariance[1, 1])
    assert slope_error < 0.02
    assert 1.0 < slope - 3.0 * slope_error
    assert slope + 3.0 * slope_error < 2.0


def test_identity_polynomials_fit_under_a_decay_envelope():
    params = SkParams(0.1, 0.25, 0.3)
    results = {n: quenched_overlap_moments(params, n, 400, seed=9)
               for n in (4, 6, 8)}
    for value_of, se_index in ((lambda m: m.poly_p1, 2), (lambda m: m.poly_p2, 3)):
        scale = max(n * abs(value_of(results[n])) for n in results)
        for n, moments in results.items():
            envelope = scale / n
            assert abs(value_of(moments)) <= envelope + 3.0 * moments.std_errors[se_index]


def test_moment_bounds_hold():
    for seed, params in ((0, SkParams(0.3, 0.9, 0.1)), (8, SkParams(0.0, 2.0, 0.0))):
        m = quenched_overlap_moments(params, 6, 25, seed=seed)
        assert -1.0 <= m.q1 <= 1.0
        assert 0.0 <= m.q2 <= 1.0
        assert m.q2 >= m.q1 ** 2 - 3.0 * m.std_errors[1]
        assert m.v_n >= -3.0 * m.v_n_std_error
