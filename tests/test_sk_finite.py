"""Finite-size glass: enumeration Gibbs states, disorder stream, overlap identities."""

import itertools
import math

import numpy as np
import pytest

from spinflow import (
    SkParams,
    DisorderSample,
    draw_disorder,
    gaussian_expectation,
    GibbsCorrelators,
    quenched_overlap_moments,
    solve_qbar,
)
from spinflow import sk_finite
from spinflow.sk_finite import _sample_statistics


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


def test_cost_guard_and_parameter_checks():
    with pytest.raises(ValueError):
        quenched_overlap_moments(SkParams(0.1, 0.1), 15, 10, seed=0)
    with pytest.raises(ValueError):
        quenched_overlap_moments(SkParams(0.1, 0.1), 4, 1, seed=0)


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
        assert moments.q2 == pytest.approx(1.0 / n, rel=1e-14)
        closed = 2.0 * (n - 1.0) / n ** 3
        assert moments.poly_p2 == pytest.approx(closed, rel=1e-13)
        assert moments.poly_p3 == pytest.approx(closed, rel=1e-13)
        assert moments.poly_p4 == pytest.approx(closed, rel=1e-13)
        assert moments.v_n == pytest.approx(0.5 / n, rel=1e-14)


def test_repeat_runs_are_bit_identical():
    params = SkParams(0.1, 0.5, 0.2)
    a = quenched_overlap_moments(params, 6, 30, seed=13)
    b = quenched_overlap_moments(params, 6, 30, seed=13)
    assert a == b


@pytest.mark.parametrize("n", [4, 8, 14])
def test_sample_rows_do_not_depend_on_the_block(n):
    params = SkParams(0.2, 0.9, 0.1)
    count = 3 if n == 14 else 7
    block = _sample_statistics(params, n, 19, range(count))
    single = np.vstack([_sample_statistics(params, n, 19, [index]) for index in range(count)])
    assert np.array_equal(block, single)


@pytest.mark.parametrize("params", [SkParams(0.3, 0.8, 0.15), SkParams(0.05, 2.0, 0.0)])
@pytest.mark.parametrize("n", [1, 2, 3, 5, 9])
def test_transform_statistics_match_brute_force_replicas(n, params):
    rows = _sample_statistics(params, n, 27, range(2))
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
    # 2^13 >> 7 = 64 samples per block runs all 24 in one block
    one_block = quenched_overlap_moments(params, 7, 24, seed=4)
    # 2^9 >> 7 = 4 per block; 2^6 >> 7 = 0 falls back to one per block
    for entries in (1 << 9, 1 << 6):
        monkeypatch.setattr(sk_finite, "_BLOCK_ENTRIES", entries)
        assert quenched_overlap_moments(params, 7, 24, seed=4) == one_block


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
