"""Finite-size ferromagnet: sector sum, moments, residuals, dual quadrature route."""

import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import gammaln
from scipy.stats import binom

from spinflow import (
    PlanePoint,
    conservation_residuals,
    continuity_residual,
    exact_fields,
    hj_residual,
    lax_action,
    log_partition,
    viscous_action,
    viscous_velocity,
)
from spinflow.cw_exact import MAX_SPINS, _first, _log_binomial, _pair_weights, _window


def sector_log_weights(x: float, t: float, n: int):
    # log-weight of all n + 1 sectors, in order, from scipy's log-gamma
    k = np.arange(n + 1.0)
    m = (2.0 * k - n) / n
    log_binomials = gammaln(n + 1.0) - gammaln(k + 1.0) - gammaln(n - k + 1.0)
    return log_binomials + n * (0.5 * t * m * m + x * m)


def brute_force_log_partition(x: float, t: float, n: int) -> float:
    # literal sum over all 2^n configurations, no folding, no shifting
    total = 0.0
    for config in range(2 ** n):
        m = (n - 2 * bin(config).count("1")) / n
        total += math.exp(n * (0.5 * t * m * m + x * m))
    return math.log(total) / n


def binomial_moment(x: float, n: int, power: int) -> float:
    # independent spins at t=0: k up-spins with probability Binom(n, e^x/(2cosh x))
    p_up = math.exp(x) / (2.0 * math.cosh(x))
    k = np.arange(n + 1)
    weights = binom.pmf(k, n, p_up)
    m_values = (2.0 * k - n) / n
    return float(np.sum(weights * m_values ** power))


def fields_bits(x: float, t: float, n: int) -> tuple:
    f = exact_fields(PlanePoint(x, t), n)
    return tuple(v.hex() for v in (f.phi, f.u, f.potential, *map(float, f.moments)))


def test_neighbouring_sizes_never_share_tables():
    solo = {n: fields_bits(0.3, 1.5, n) for n in (64, 65)}
    assert [fields_bits(0.3, 1.5, n) for n in (64, 65, 64)] == [solo[64], solo[65], solo[64]]


def test_sizes_asked_in_turn_give_their_solo_bits():
    # A, B, A, a large window between two small ones
    a, b = (0.5, 0.8333333333333334, 25_000), (0.3, 0.5, 250_000)
    solo = {point: fields_bits(*point) for point in (a, b)}
    assert [fields_bits(*p) for p in (a, b, a)] == [solo[a], solo[b], solo[a]]
    assert solo[a] == tuple(_FROZEN_LARGE_N[a])


@pytest.mark.parametrize("x,t,n", [(0.2, 0.5, 10), (0.0, 1.5, 6), (0.7, 0.0, 3), (1.0, 2.0, 8)])
def test_log_partition_matches_brute_force(x, t, n):
    direct = brute_force_log_partition(x, t, n)
    assert log_partition(PlanePoint(x, t), n) == pytest.approx(direct, abs=1e-13)


def test_log_partition_frozen_value():
    assert log_partition(PlanePoint(0.2, 0.5), 10) == pytest.approx(
        0.7591085101588227, rel=1e-14, abs=0)


def test_log_partition_zero_coupling_factorizes():
    for x in (0.0, 0.3, 1.0, 2.5):
        for n in (3, 17, 64):
            expected = math.log(2.0 * math.cosh(x))
            assert log_partition(PlanePoint(x, 0.0), n) == pytest.approx(expected, abs=1e-13)


def test_action_is_negative_log_partition():
    p = PlanePoint(0.4, 1.3)
    fields = exact_fields(p, 25)
    assert fields.phi == -log_partition(p, 25)


def test_velocity_is_minus_first_moment():
    fields = exact_fields(PlanePoint(0.3, 2.0), 40)
    assert fields.u == -fields.moments[0]


@pytest.mark.parametrize("x,n", [(0.3, 5), (0.3, 12), (0.8, 7), (0.0, 9)])
def test_moments_at_zero_coupling_match_binomial_oracle(x, n):
    fields = exact_fields(PlanePoint(x, 0.0), n)
    for power in range(1, 5):
        expected = binomial_moment(x, n, power)
        assert fields.moments[power - 1] == pytest.approx(expected, abs=1e-13)


def fsum_moments(x: float, t: float, n: int) -> list[float]:
    # sector sum in correctly rounded sums, weights shifted by their largest log
    logs = [math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)
            + n * (0.5 * t * ((2 * k - n) / n) ** 2 + x * (2 * k - n) / n) for k in range(n + 1)]
    top = max(logs)
    weights = [math.exp(v - top) for v in logs]
    z = math.fsum(weights)
    return [math.fsum(w * ((2 * k - n) / n) ** j for k, w in enumerate(weights)) / z
            for j in range(1, 5)]


@pytest.mark.parametrize("x,t,n", [(0.3, 0.5, 10), (-0.7, 1.5, 101), (0.05, 2.0, 400),
                                   (1.0, 0.9, 2500), (0.0, 0.5, 37), (0.0, 2.0, 400)])
def test_moments_match_an_fsum_sector_sum(x, t, n):
    moments = exact_fields(PlanePoint(x, t), n).moments
    expected = fsum_moments(x, t, n)
    for j in (1, 2, 3, 4):
        if x == 0.0 and j % 2:
            assert moments[j - 1] == 0.0
        else:
            assert moments[j - 1] == pytest.approx(expected[j - 1], rel=1e-14, abs=0)


# (phi, u, potential, <m>, <m^2>, <m^3>, <m^4>) from 50-digit sums over all n + 1
# sectors with exact binomials (tools/cw_references.py); the odd moments vanish at x = 0
_LARGE_N_REFERENCES = {
    (1.6e-4, 1.5, 25_000): (
        -0.80848878987778974196523395456014716497461760036550,
        -0.85680766024244724146603771295462885586631332911338,
        0.0015391205976319176674662947830109553631925050053688,
        0.85680766024244724146603771295462885586631332911338,
        0.73719760784540074266165473907732757968576200116315,
        0.63166672163694060832225081832188342846594280566838,
        0.54351148167288715489077574236772469025838392286908),
    (0.0, 1.0, 25_000): (
        -0.69326039260005621383336063219268027439095225711475, 0.0,
        0.0036970201849102607626293991774204582012250903527478, 0.0,
        0.0073940403698205215252587983548409164024501807054956, 0.0,
        0.00011929099395042222272268473934170339378338908430102),
    (0.0, 1.5, 25_001): (
        -0.80837910347134343322463439709957914832280924271986, 0.0,
        0.36853930724096280870296488303006619518186262568002, 0.0,
        0.73707861448192561740592976606013239036372525136004, 0.0,
        0.54333608047328649781312289739427656412616246263966),
    (1.0, 3.0, 25_000): (
        -2.5003361648162301265413511304053029075154927677926,
        -0.99932642242586555436114961075317246643336290592372,
        2.7043308633220743110758803382632523012132318146668e-8,
        0.99932642242586555436114961075317246643336290592372,
        0.99865335264509675200839596455025717157557867337073,
        0.99798079023843313081252427264230120351779180453725,
        0.99730873478698819022697151605684138928834327744253),
    (0.3, 0.8, 250_000): (
        -0.82873334378029176344336203732750626739336476102742,
        -0.69361425236776897706295588262969373116695125720853,
        0.0000017743795177434860078343249453544314871841609340718,
        0.69361425236776897706295588262969373116695125720853,
        0.48110427984673459897592429201821329963355484492703,
        0.33370570825895316879151329209939159305110262395426,
        0.23146815719459072674421233629424270728684913694896),
}


@pytest.mark.parametrize("x,t,n", _LARGE_N_REFERENCES)
def test_large_n_fields_match_an_fsum_over_every_sector(x, t, n):
    # (1.6e-4, 1.5): the minority peak weighs about e^-7 and must be summed;
    # (0, 1): the critical point; (0, 1.5) at odd n: two peaks; (1, 3): one narrow peak
    p = PlanePoint(x, t)
    fields = exact_fields(p, n)
    got = (fields.phi, fields.u, fields.potential, *fields.moments)
    for value, reference in zip(got, _LARGE_N_REFERENCES[(x, t, n)], strict=True):
        assert value == pytest.approx(reference, rel=1e-14, abs=0)
    assert log_partition(p, n) == -fields.phi
    if x == 0.0:
        assert got[1] == got[3] == got[5] == 0.0


@pytest.mark.parametrize("x,t,n", [(0.3, 0.8, 250_000), (1.6e-4, 1.5, 25_000), (0.01725, 1.5, 25_000),
                                   (0.0, 1.0, 25_000), (1.0, 3.0, 25_001), (-0.5, 40.0, 3_000),
                                   (0.0, 0.8, 25_000), (0.0, 1.5, 250_000), (0.0153, 1.5, 4_000),
                                   (40.0, 20.0, 1_000), (0.3, 0.5, 100)])
def test_window_holds_every_pair_within_the_cut_of_the_peak(x, t, n):
    # (1.6e-4, 1.5): the minority peak sits about e^-7 below the majority one, at
    # (0.0153, 1.5) about e^-105, at (0.01725, 1.5) e^-740; at (40, 20) the window is the
    # pair k = 0; at n = 100 it is every pair.  By log-gamma log-weights, the window holds
    # the pair k <= n/2 of every sector within 105 of the largest, and at most one pair
    # more on each side
    log_w = sector_log_weights(x, t, n)
    log_w -= log_w.max()
    live = np.flatnonzero(log_w >= -105.0)
    pairs = np.unique(np.minimum(live, n - live))
    assert len(pairs) == pairs[-1] - pairs[0] + 1
    first, peak, last = _window(x, t, n)
    assert pairs[0] - 1 <= first <= pairs[0] <= peak <= pairs[-1] <= last <= pairs[-1] + 1


def test_first_is_a_linear_scan_and_takes_two_probes_from_a_close_estimate():
    # seeded monotone tests k >= answer on ranges [lo, hi), empty ones too, with the answer
    # anywhere from lo to hi and the estimate anywhere, also outside the range; every probe
    # stays in the range, and an estimate at the answer or one short of it takes two
    rng = np.random.default_rng(34)
    for _ in range(4000):
        lo = int(rng.integers(0, 40))
        hi = lo + int(rng.choice([0, 1, 2, rng.integers(3, 300)]))
        answer = int(rng.choice([lo, hi, rng.integers(lo, hi + 1)]))
        probes = []

        def test(k):
            assert lo <= k < hi
            probes.append(k)
            return k >= answer

        for estimate in (int(rng.integers(lo - 10, hi + 11)), answer, answer - 1):
            probes.clear()
            found = _first(lo, hi, test, estimate)
            assert found == next((k for k in range(lo, hi) if k >= answer), hi)
            if estimate in (answer, answer - 1):
                assert len(probes) <= 2, (lo, hi, answer, estimate, probes)


def pair_sums(x: float, t: float, n: int) -> np.ndarray:
    # rows z, <m>, <m^2>, <m^3>, <m^4> times z, one column a pair k <= n/2 (x >= 0), from
    # scipy's log-gamma log-weights relative to the largest; odd moments weigh a pair's
    # heavier weight w by -expm1(-2 n x a), the difference of its two sectors
    k = np.arange(n // 2 + 1.0)
    a = (n - 2.0 * k) / n
    b = gammaln(n + 1.0) - gammaln(k + 1.0) - gammaln(n - k + 1.0) + n * (0.5 * t * a * a + x * a)
    w = np.exp(b - b.max())
    gap = -2.0 * n * x * a
    light = w * np.exp(gap)
    if n % 2 == 0:
        light[-1] = 0.0  # the middle sector counts once
    even, odd = w + light, w * -np.expm1(gap)
    return np.array([even, odd * a, even * a**2, odd * a**3, even * a**4])


def census_points(count_per_kind: int, seed: int) -> list:
    # x = 0, tiny and moderate x, each with t next to 1 and far from it, n up to 2^20
    rng = np.random.default_rng(seed)
    points = []
    for x_kind in ("zero", "tiny", "moderate"):
        for t_kind in ("near", "far"):
            for _ in range(count_per_kind):
                x = {"zero": 0.0, "tiny": 10.0 ** rng.uniform(-300, -6),
                     "moderate": rng.uniform(0.01, 2.0)}[x_kind]
                t = (1.0 + rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-9, -2) if t_kind == "near"
                     else rng.choice([rng.uniform(0.0, 0.8), rng.uniform(1.3, 4.0)]))
                points.append((float(x), float(t), int(2.0 ** rng.uniform(1, 20))))
            points.append((float(x), float(t), 2**20))
    return points


@pytest.mark.parametrize("x,t,n", census_points(3, seed=32))
def test_pairs_left_out_weigh_under_2_to_the_minus_60_of_every_sum(x, t, n):
    # the bound of the module docstring, N^3 e^-105 / (1 - 1/e) < 2^-60.8 at N <= 2^30:
    # by log-gamma log-weights, the pairs outside the window add under 2^-60 of z and of
    # each of the four moment sums
    sums = pair_sums(x, t, n)
    first, _, last = _window(x, t, n)
    total = sums.sum(axis=1)
    left_out = sums[:, :first].sum(axis=1) + sums[:, last + 1:].sum(axis=1)
    rows = [0, 2, 4] if x == 0.0 else [0, 1, 2, 3, 4]
    assert np.all(total[rows] > 0.0)
    assert np.all(left_out[rows] < 2.0**-60 * total[rows])


def first_viscous_coefficients(x: float, t: float, branch=None):
    # Laplace's method on the sector sum: N (phi_N - phi) -> c1 = log(D) / 2 and
    # N (u_N - u) -> cu = t m m_x / D, with D = 1 - t sech^2 y* the Jacobian dx/dy*
    # of the characteristic map, m = -u and m_x = (1 - m^2) / D
    limit = lax_action(PlanePoint(x, t), branch=branch)
    jacobian = 1.0 - t / math.cosh(limit.y_star) ** 2
    m = -limit.u
    return limit, 0.5 * math.log(jacobian), t * m * (1.0 - m * m) / jacobian**2


def test_scaled_velocity_error_levels_off_up_to_ten_million_spins():
    # N |u_N - u| tends to a constant, the 1/N coefficient, off the shock line
    p = PlanePoint(0.3, 0.8)
    limit, _, cu = first_viscous_coefficients(p.x, p.t)
    scaled = [n * (exact_fields(p, n).u - limit.u) for n in (10**6, 10**7)]
    assert abs(scaled[1]) == pytest.approx(abs(scaled[0]), rel=1e-3, abs=0)
    # against the closed form, N (N (u_N - u) - cu) reads 1.72 at 1e6 and 3.18 at 1e7
    for value in scaled:
        assert value == pytest.approx(cu, rel=1e-5, abs=0)


@pytest.mark.parametrize("x,t", [(0.3, 0.5), (0.3, 2.0), (1.0, 3.0), (0.0, 0.5)])
def test_first_viscous_correction_matches_its_closed_form(x, t):
    # the next orders are below 0.26 / N for the action and 0.46 / N for the velocity
    limit, c1, cu = first_viscous_coefficients(x, t)
    for n in (10**3, 10**4, 10**5):
        fields = exact_fields(PlanePoint(x, t), n)
        assert abs(n * (fields.phi - limit.phi) - c1) <= 0.5 / n
        assert abs(n * (fields.u - limit.u) - cu) <= 1.0 / n


@pytest.mark.parametrize("t", [1.5, 2.0, 3.0])
def test_first_viscous_correction_on_the_shock_line_counts_two_peaks(t):
    # at x = 0 the two mirror peaks tie, so N (phi_N - phi) -> c1 - log 2; the
    # next order is below 1.14 / N at these t
    limit, c1, _ = first_viscous_coefficients(0.0, t, branch="plus")
    for n in (10**3, 10**4, 10**5):
        scaled = n * (exact_fields(PlanePoint(0.0, t), n).phi - limit.phi)
        assert abs(scaled - (c1 - math.log(2.0))) <= 1.5 / n


def test_critical_point_moments_scale_as_the_quartic_law():
    # at (0, 1), P(m) ~ exp(-N m^4 / 12) (Ellis and Newman 1978): sqrt(N) <m^2> ->
    # sqrt(12) G(3/4) / G(1/4) and N <m^4> -> 3, both with N^-1/2 corrections
    # (coefficients -0.27 and -2.8)
    # So <m^4> / <m^2>^2 -> G(1/4)^2 / (4 G(3/4)^2), and the partition function's
    # Laplace integral gives N (phi_N - phi) + log(N) / 4 -> -log(2 12^(1/4) G(5/4)
    # / sqrt(2 pi)); their N^-1/2 coefficients are -1.03 and -0.234
    target = math.sqrt(12.0) * math.gamma(0.75) / math.gamma(0.25)
    ratio = math.gamma(0.25) ** 2 / (4.0 * math.gamma(0.75) ** 2)
    log_term = -math.log(2.0 * 12.0**0.25 * math.gamma(1.25) / math.sqrt(2.0 * math.pi))
    phi = lax_action(PlanePoint(0.0, 1.0)).phi
    for n in (10**4, 10**6):
        fields = exact_fields(PlanePoint(0.0, 1.0), n)
        moments = fields.moments
        assert abs(math.sqrt(n) * moments[1] - target) <= 0.4 / math.sqrt(n)
        assert abs(n * moments[3] - 3.0) <= 4.0 / math.sqrt(n)
        assert abs(moments[3] / moments[1] ** 2 - ratio) <= 1.5 / math.sqrt(n)
        assert abs(n * (fields.phi - phi) + 0.25 * math.log(n) - log_term) <= 0.4 / math.sqrt(n)


def test_third_residual_frozen_binomial_value():
    # r3 = <m^4> - <m^2>^2 at t=0 from the binomial oracle
    _, _, r3 = conservation_residuals(PlanePoint(0.3, 0.0), 5)
    assert r3 == pytest.approx(0.09336102926746369, rel=1e-13, abs=0)


def _binomial_spacing(n: int) -> float:
    # the float spacing of log n!, the largest term that log C(n, k) cancels
    return float(np.spacing(math.lgamma(n + 1.0)))


@pytest.mark.parametrize("n", [1, 2, 3, 255, 256, 257, 513, 1000, 25000, 250000])
def test_log_binomials_match_gammaln(n):
    # every k up to 600, which spans both branches, and 201 k spread over 0..n
    k = np.union1d(np.arange(min(n, 600) + 1), np.linspace(0, n, 201).round())
    expected = gammaln(n + 1.0) - (gammaln(k + 1.0) + gammaln(n - k + 1.0))
    got = np.array([_log_binomial(n, int(j)) for j in k])
    assert got[0] == got[-1] == 0.0
    assert np.max(np.abs(got - expected)) <= 6.0 * _binomial_spacing(n)


# log C(n, k) to 40 digits (mpmath loggamma at 50 digits): k = 1 and 31 take the sum
# of logs, k = 32 on Stirling's series, as do their mirrors n - k
_FROZEN_LOG_BINOMIALS = [
    (1000, 1, 6.907755278982137052053974364053092622803),
    (1000, 31, 135.5783891742365514072101490475313197633),
    (1000, 32, 138.9889178833275910917777957269239427004),
    (1000, 968, 138.9889178833275910917777957269239427004),
    (1000, 257, 566.3502639016177271832904225245806228911),
    (1000, 333, 632.6620501769002568482484732956051659242),
    (1000, 500, 689.4672615678511800755088551127224298143),
    (25000, 1, 10.12663110385033780125549303050546790185),
    (25000, 257, 1428.417475640067940892501713907369493269),
    (25000, 8333, 15907.39293125685876944086393944713584533),
    (25000, 12500, 17323.3903970940628417644788538708807184),
    (250000, 1, 12.42921619684438348527348448518983210946),
    (250000, 31, 307.2116184732159642744978319673368630103),
    (250000, 32, 316.1749747595719856122406146558440971572),
    (250000, 257, 2021.370578916403102638755527927950400643),
    (250000, 83333, 159121.929515543113903382975046981023037),
    (250000, 125000, 173280.3547395352604351356971913532151284),
]


@pytest.mark.parametrize("n, k, value", _FROZEN_LOG_BINOMIALS)
def test_log_binomials_frozen_values(n, k, value):
    # within three spacings of log n!, the peak's shift in phi
    assert abs(_log_binomial(n, k) - value) <= 3.0 * _binomial_spacing(n)


@pytest.mark.parametrize("n", [1, 2, 9, 256, 257, 1000, 25001])
@pytest.mark.parametrize("t", [0.0, 0.7, 2.0])
def test_sector_log_weights_are_exactly_mirror_symmetric_at_zero_field(n, t):
    # at x = 0 the two sectors k and n - k of a pair weigh the same, bit for bit,
    # and the middle sector of even n, its own mirror, counts once
    a, even, odd, light, *_ = _pair_weights(0.0, t, n)
    pairs = len(a) - (a[-1] == 0.0)  # the window ends at k = n/2 of even n, or before it
    assert n % 2 == 0 or pairs == len(a)
    assert np.array_equal(even[:pairs], 2.0 * light[:pairs])
    assert np.all(light[pairs:] == 0.0) and np.all(even[pairs:] > 0.0)
    assert np.all(odd == 0.0)


def test_odd_moments_vanish_exactly_at_zero_field():
    for x in (0.0, -0.0):
        for t in (0.0, 0.5, 2.0):
            for n in (4, 15, 100, 25_000):
                fields = exact_fields(PlanePoint(x, t), n)
                assert fields.u == 0.0
                assert fields.moments[0] == 0.0
                assert fields.moments[2] == 0.0
                # +0.0, so that no output prints a negative zero
                for value in (fields.u, fields.moments[0], fields.moments[2]):
                    assert math.copysign(1.0, value) == 1.0


# (x, t, n, u, <m^3>) from 50-digit sector sums over exact binomials (mpmath); the
# odd moments are differences of nearly equal mirror weights
_FROZEN_NEAR_ZERO_FIELD = [
    (1e-12, 1.5, 100, -7.245204947294277170849346e-11, 5.385797808294012935562005e-11),
    (1e-9, 0.5, 1000, -1.996018534589212758661701e-9, 1.192061788740042570384439e-11),
]


@pytest.mark.parametrize("x, t, n, u, m3", _FROZEN_NEAR_ZERO_FIELD)
def test_odd_moments_keep_their_relative_accuracy_near_zero_field(x, t, n, u, m3):
    fields = exact_fields(PlanePoint(x, t), n)
    assert fields.u == pytest.approx(u, rel=2e-13, abs=0)
    assert fields.moments[2] == pytest.approx(m3, rel=2e-13, abs=0)


# exact_fields as float.hex (phi, u, potential, moments 1..4) at small N, on both
# sides of 64 spins; at n = 300 and t = 5 the window drops sectors
_FROZEN_SMALL_N = {
    (0.3, 1.5, 1): (
        "-0x1.7ccc02a487ec2p+0", "-0x1.2a4dda7d914fap-2", "0x1.d48cd4f4cff5ep-2",
        "0x1.2a4dda7d914fap-2", "0x1.0000000000000p+0", "0x1.2a4dda7d914fap-2",
        "0x1.0000000000000p+0"),
    (0.3, 1.5, 2): (
        "-0x1.4493228d47b7fp+0", "-0x1.ced3386a91ff6p-2", "0x1.464d8220a3bacp-2",
        "0x1.ced3386a91ff6p-2", "0x1.aee563dd7a1cfp-1", "0x1.ced3386a91ff6p-2",
        "0x1.aee563dd7a1cfp-1"),
    (0.3, 1.5, 63): (
        "-0x1.14c96732a2b92p+0", "-0x1.dce8f08ce4e21p-1", "0x1.5bc51baf9abadp-10",
        "0x1.dce8f08ce4e21p-1", "0x1.bd954e5c19e2ap-1", "0x1.a182ede4a0134p-1",
        "0x1.8844b00dde30dp-1"),
    (0.3, 1.5, 64): (
        "-0x1.14c7986ca5e6cp+0", "-0x1.dcf28888f8aa0p-1", "0x1.55d1ce23cbcafp-10",
        "0x1.dcf28888f8aa0p-1", "0x1.bda13a90080bcp-1", "0x1.a18be677f21afp-1",
        "0x1.8846e80f69984p-1"),
    (0.3, 1.5, 65): (
        "-0x1.14c5d871b70dbp+0", "-0x1.dcfbd06405d60p-1", "0x1.5011cc99588abp-10",
        "0x1.dcfbd06405d60p-1", "0x1.bdacc51fbb158p-1", "0x1.a1949687bab15p-1",
        "0x1.88490d657b269p-1"),
    (0.3, 1.5, 300): (
        "-0x1.1470bbd30c315p+0", "-0x1.deb82f555b562p-1", "0x1.0f8334e1e27d5p-12",
        "0x1.deb82f555b562p-1", "0x1.bfde0b70a2bd4p-1", "0x1.a33fb3187dc10p-1",
        "0x1.88af9cad4a50fp-1"),
    (-0.7, 0.4, 1): (
        "-0x1.1ed3ace578018p+0", "0x1.356fb17af2e91p-1", "0x1.44fc9668e6f7cp-2",
        "-0x1.356fb17af2e91p-1", "0x1.0000000000000p+0", "-0x1.356fb17af2e91p-1",
        "0x1.0000000000000p+0"),
    (-0.7, 0.4, 2): (
        "-0x1.10ae326a08f37p+0", "0x1.59989fe89ee5ep-1", "0x1.3a25fef017e2bp-3",
        "-0x1.59989fe89ee5ep-1", "0x1.86595c77ae24dp-1", "-0x1.59989fe89ee5ep-1",
        "0x1.86595c77ae24dp-1"),
    (-0.7, 0.4, 63): (
        "-0x1.0412e362c2e04p+0", "0x1.85a314542eca2p-1", "0x1.06c05547ecab4p-8",
        "-0x1.85a314542eca2p-1", "0x1.2c9f832a7d344p-1", "-0x1.d5c41e10753d6p-2",
        "0x1.735185b5482d3p-2"),
    (-0.7, 0.4, 64): (
        "-0x1.041164c28b7aap+0", "0x1.85a90e8270cd6p-1", "0x1.029a1a3cd75f1p-8",
        "-0x1.85a90e8270cd6p-1", "0x1.2c9803473d4b1p-1", "-0x1.d58fa8e86f96ap-2",
        "0x1.72f950e09561bp-2"),
    (-0.7, 0.4, 65): (
        "-0x1.040ff1f5c60cap+0", "0x1.85aed987b3063p-1", "0x1.fd29c96fce16ap-9",
        "-0x1.85aed987b3063p-1", "0x1.2c90bfd4494bep-1", "-0x1.d55ccc6ab57c7p-2",
        "0x1.72a3c2aba7232p-2"),
    (-0.7, 0.4, 300): (
        "-0x1.03c7978c8c749p+0", "0x1.86d0df35bcdaap-1", "0x1.b59de1960adfcp-11",
        "-0x1.86d0df35bcdaap-1", "0x1.2b2b583265b36p-1", "-0x1.cb50ff52805bap-2",
        "0x1.6191e0c669c62p-2"),
    (0.0, 5.0, 1): (
        "-0x1.98b90bfbe8e7cp+1", "0x0.0p+0", "0x1.0000000000000p-1",
        "0x0.0p+0", "0x1.0000000000000p+0", "0x0.0p+0",
        "0x1.0000000000000p+0"),
    (0.0, 5.0, 2): (
        "-0x1.6cca8c347d8a8p+1", "0x0.0p+0", "0x1.fc92c130538e2p-2",
        "0x0.0p+0", "0x1.fc92c130538e2p-1", "0x0.0p+0",
        "0x1.fc92c130538e2p-1"),
    (0.0, 5.0, 63): (
        "-0x1.416a44e783147p+1", "0x0.0p+0", "0x1.ffe483e26a837p-2",
        "0x0.0p+0", "0x1.ffe483e26a839p-1", "0x0.0p+0",
        "0x1.ffcac150a5facp-1"),
    (0.0, 5.0, 64): (
        "-0x1.4164a1b2d2478p+1", "0x0.0p+0", "0x1.ffe49394f3c59p-2",
        "0x0.0p+0", "0x1.ffe49394f3c59p-1", "0x0.0p+0",
        "0x1.ffcad8f7c1b29p-1"),
    (0.0, 5.0, 65): (
        "-0x1.415f2ae6d3264p+1", "0x0.0p+0", "0x1.ffe4a2c358fcbp-2",
        "0x0.0p+0", "0x1.ffe4a2c358fcbp-1", "0x0.0p+0",
        "0x1.ffcaefdaa408cp-1"),
    (0.0, 5.0, 300): (
        "-0x1.404d3fbb75b73p+1", "0x0.0p+0", "0x1.ffe773833a2f7p-2",
        "0x0.0p+0", "0x1.ffe773833a2f5p-1", "0x0.0p+0",
        "0x1.ffcf3bc7d330cp-1"),
}


_FIELDS = ("phi", "u", "potential", "<m>", "<m^2>", "<m^3>", "<m^4>")


def ulps_apart(a: float, b: float) -> int:
    # doubles between a and b, counted along their ordered bit patterns
    def rank(v):
        bits = struct.unpack("<q", struct.pack("<d", v))[0]
        return bits if bits >= 0 else -(bits & 0x7FFF_FFFF_FFFF_FFFF)
    return abs(rank(a) - rank(b))


def assert_frozen_bits(x: float, t: float, n: int, frozen: tuple) -> None:
    # names every field whose bits moved, and by how many units in the last place
    f = exact_fields(PlanePoint(x, t), n)
    got = (f.phi, f.u, f.potential, *map(float, f.moments))
    moved = [f"{name} {value.hex()} is {ulps_apart(value, want)} ulps from {want.hex()}"
             for name, value, want in zip(_FIELDS, got, map(float.fromhex, frozen), strict=True)
             if value.hex() != want.hex()]
    assert not moved, "; ".join(moved)


@pytest.mark.parametrize("x, t, n", sorted(_FROZEN_SMALL_N))
def test_small_n_fields_frozen_bits(x, t, n):
    assert_frozen_bits(x, t, n, _FROZEN_SMALL_N[(x, t, n)])


# exact_fields as float.hex, as _FROZEN_SMALL_N, where windows drop sectors: the
# cw-plane sweep rows at N = 25 000 (t from 0.25 to 2 in thirds, x = 0, 0.5, 1), its
# convergence ladder at (0.3, 0.5), and one point with t > 1 and x < 0
_FROZEN_LARGE_N = {
    (0.0, 0.25, 25000): (
        "-0x1.62e4f0fea93d4p-1", "0x0.0p+0", "0x1.bf626cd819fa9p-16",
        "0x0.0p+0", "0x1.bf626cd819facp-15", "0x0.0p+0",
        "0x1.252dc45b39d24p-27"),
    (0.5, 0.25, 25000): (
        "-0x1.b1385449cd069p-1", "-0x1.21bd64142d0c1p-1", "0x1.12c8ce96d2650p-16",
        "0x1.21bd64142d0c1p-1", "0x1.47f5be58ef562p-2", "0x1.73427c3b7f99dp-3",
        "0x1.a451b7139f635p-4"),
    (1.0, 0.25, 25000): (
        "-0x1.34fd5b4fe9340p+0", "-0x1.ac3d8e4da6e8bp-1", "0x1.b3f6ac7a2bf82p-18",
        "0x1.ac3d8e4da6e8bp-1", "0x1.6630a5470f953p-1", "0x1.2b9a93c36a86fp-1",
        "0x1.f5359f3821fcbp-2"),
    (0.0, 0.8333333333333334, 25000): (
        "-0x1.62e8e207cf48dp-1", "0x0.0p+0", "0x1.f6b6df3a6283cp-14",
        "0x0.0p+0", "0x1.f6b6df3a62839p-13", "0x0.0p+0",
        "0x1.71d8264745104p-23"),
    (0.5, 0.8333333333333334, 25000): (
        "-0x1.fc58c0829560bp-1", "-0x1.a9b506fcfc4fbp-1", "0x1.16e3ac84a5afdp-17",
        "0x1.a9b506fcfc4fbp-1", "0x1.61f77662c8e06p-1", "0x1.2652b00e4ef78p-1",
        "0x1.e978702252768p-2"),
    (1.0, 0.8333333333333334, 25000): (
        "-0x1.716af6a8f9316p+0", "-0x1.e41dd67ef43b0p-1", "0x1.37f692506be8ap-19",
        "0x1.e41dd67ef43b0p-1", "0x1.c9c107407525ap-1", "0x1.b0d44d04a8f72p-1",
        "0x1.99438c7c504edp-1"),
    (0.0, 1.4166666666666667, 25000): (
        "-0x1.8ec7d113f70d7p-1", "0x0.0p+0", "0x1.5ab28e85e7494p-2",
        "0x0.0p+0", "0x1.5ab28e85e7493p-1", "0x0.0p+0",
        "0x1.d5980be4f08a1p-2"),
    (0.5, 1.4166666666666667, 25000): (
        "-0x1.3b2f5f55a2849p+0", "-0x1.e7322f02faa6dp-1", "0x1.250a7be257780p-19",
        "0x1.e7322f02faa6dp-1", "0x1.cf988edf1baa5p-1", "0x1.b9242330c1751p-1",
        "0x1.a3c6aa7846016p-1"),
    (1.0, 1.4166666666666667, 25000): (
        "-0x1.b7691ec55a18cp+0", "-0x1.f787063617e61p-1", "0x1.719cbe3ae17c9p-21",
        "0x1.f787063617e61p-1", "0x1.ef321f03a7565p-1", "0x1.e700b00fe3a65p-1",
        "0x1.def22199ae65ap-1"),
    (0.0, 2.0, 25000): (
        "-0x1.050b37fc583c3p+0", "0x0.0p+0", "0x1.d566dc3952e87p-2",
        "0x0.0p+0", "0x1.d566dc3952e89p-1", "0x0.0p+0",
        "0x1.ae5af15d40408p-1"),
    (0.5, 2.0, 25000): (
        "-0x1.81c49698c5c15p+0", "-0x1.f8bfa997d389fp-1", "0x1.3ffd881862008p-21",
        "0x1.f8bfa997d389fp-1", "0x1.f199c5a1d9ee6p-1", "0x1.ea8df317cb376p-1",
        "0x1.e39bd259633dap-1"),
    (1.0, 2.0, 25000): (
        "-0x1.0051f44506d91p+1", "-0x1.fd6a867705200p-1", "0x1.b94c10feed597p-23",
        "0x1.fd6a867705200p-1", "0x1.fad8714ed6511p-1", "0x1.f849bc01a176bp-1",
        "0x1.f5be620fb39a2p-1"),
    (0.3, 0.5, 1000): (
        "-0x1.8cd5fe0ca5174p-1", "-0x1.002e3b546700dp-1", "0x1.3a27affe50d49p-11",
        "0x1.002e3b546700dp-1", "0x1.0196a6b22c678p-2", "0x1.043851476eb71p-3",
        "0x1.0816cf99e0b04p-4"),
    (0.3, 0.5, 1847): (
        "-0x1.8cc7e261fffc1p-1", "-0x1.004b04aa872e5p-1", "0x1.541bf667d98bap-12",
        "0x1.004b04aa872e5p-1", "0x1.01402d4bfe4a5p-2", "0x1.02df96d6004ddp-3",
        "0x1.052ab12d8e073p-4"),
    (0.3, 0.5, 3411): (
        "-0x1.8cc03f699d6a6p-1", "-0x1.005a9cb337d70p-1", "0x1.704939c106336p-13",
        "0x1.005a9cb337d70p-1", "0x1.01116bc76dddbp-2", "0x1.0224abadd472ep-3",
        "0x1.0394fe4d4e181p-4"),
    (0.3, 0.5, 6300): (
        "-0x1.8cbc1cc0fb655p-1", "-0x1.00630f5ecad72p-1", "0x1.8ec6ec78ab250p-14",
        "0x1.00630f5ecad72p-1", "0x1.00f81df00900bp-2", "0x1.01bf5b413f453p-3",
        "0x1.02b9141caa7fdp-4"),
    (0.3, 0.5, 11635): (
        "-0x1.8cb9dfa1e8556p-1", "-0x1.0067a26daeae6p-1", "0x1.afd6535d74654p-15",
        "0x1.0067a26daeae6p-1", "0x1.00ea6c34ae85cp-2", "0x1.01887b22bb33dp-3",
        "0x1.0241f5a4d62e9p-4"),
    (0.3, 0.5, 21488): (
        "-0x1.8cb8a94e4efe8p-1", "-0x1.006a1c9869fc2p-1", "0x1.d3a422d3102d4p-16",
        "0x1.006a1c9869fc2p-1", "0x1.00e3024d9bfa2p-2", "0x1.016ac279a4fdap-3",
        "0x1.02017104ed40ap-4"),
    (0.3, 0.5, 39685): (
        "-0x1.8cb80146a0310p-1", "-0x1.006b73fec50abp-1", "0x1.fa6ab6b73683fp-17",
        "0x1.006b73fec50abp-1", "0x1.00defec29079fp-2", "0x1.015aaa1225490p-3",
        "0x1.01de80781304cp-4"),
    (0.3, 0.5, 73293): (
        "-0x1.8cb7a64aeacdap-1", "-0x1.006c2df14cb45p-1", "0x1.1233931714dd9p-17",
        "0x1.006c2df14cb45p-1", "0x1.00dcd267b19c7p-2", "0x1.0151f2d154d1dp-3",
        "0x1.01cb94d7ec50cp-4"),
    (0.3, 0.5, 135364): (
        "-0x1.8cb77507555f4p-1", "-0x1.006c92a0c685cp-1", "0x1.28eebdb95950ap-18",
        "0x1.006c92a0c685cp-1", "0x1.00dba52b14217p-2", "0x1.014d3aa0487a1p-3",
        "0x1.01c15614679e0p-4"),
    (0.3, 0.5, 250000): (
        "-0x1.8cb75a5adb3bfp-1", "-0x1.006cc924eb844p-1", "0x1.418d263c52166p-19",
        "0x1.006cc924eb844p-1", "0x1.00db021152768p-2", "0x1.014aac7116a45p-3",
        "0x1.01bbc9f637662p-4"),
    (-0.35, 1.6, 5000): (
        "-0x1.2be7ae11d887fp+0", "0x1.e887efe1587c6p-1", "0x1.5ee0eb9c8b174p-17",
        "-0x1.e887efe1587c6p-1", "0x1.d226031ed81f1p-1", "-0x1.bccd3935d4293p-1",
        "0x1.a8712eba9b36ep-1"),
}


@pytest.mark.parametrize("x, t, n", sorted(_FROZEN_LARGE_N))
def test_large_n_fields_frozen_bits(x, t, n):
    assert_frozen_bits(x, t, n, _FROZEN_LARGE_N[(x, t, n)])


# the potential from 50-digit sums over all N + 1 sectors with exact binomials
# (tools/cw_references.py)
_POTENTIAL_REFERENCES = {
    (-0.7, 0.4, 63): 0.0040092666821915252101400586691618161014447090640324,
    (0.0, 5.0, 63): 0.4998951537078285469232015404508175340451338307969,
    (0.0, 5.0, 64): 0.4998953876174190544531137414631395758904702352451,
    (-0.35, 1.6, 5000): 0.000010456997011486854461537766390827447678598669061584,
    (0.0, 0.25, 25000): 0.00002666619261085217485801146650111634227720067316864,
    (0.0, 0.8333333333333334, 25000): 0.00011985643951653662581879913842174846320735222845995,
    (0.0, 1.4166666666666667, 25000): 0.33857176487237806941206986507951691107922494037974,
    (0.3, 0.5, 3411): 0.00017561246753030616778285900608085259157488840088316,
    (0.3, 0.5, 11635): 0.000051479006952026437426336893026959127741352127267514,
    (0.3, 0.5, 39685): 0.000015092398241756918603705025433564031836115026044781,
    (0.3, 0.5, 250000): 0.0000023957443585945333017871535421516975320376832119182,
}


@pytest.mark.parametrize("x, t, n", _POTENTIAL_REFERENCES)
def test_potential_matches_its_50_digit_reference(x, t, n):
    potential = exact_fields(PlanePoint(x, t), n).potential
    assert potential == pytest.approx(_POTENTIAL_REFERENCES[(x, t, n)], rel=1e-14, abs=0)


def test_mirror_symmetry():
    # x -> -x negates u and the odd moments and leaves the rest, bit for bit
    for n in (33, 25_000):
        for x in (3e-4, 0.15, 0.6, 1.2):
            plus = exact_fields(PlanePoint(x, 1.7), n)
            minus = exact_fields(PlanePoint(-x, 1.7), n)
            assert plus.phi == minus.phi
            assert plus.u == -minus.u
            assert plus.potential == minus.potential
            assert np.array_equal(plus.moments[1::2], minus.moments[1::2])
            assert np.array_equal(plus.moments[0::2], -minus.moments[0::2])


@given(
    x=st.floats(-2.0, 2.0),
    t=st.floats(0.0, 3.0),
    n=st.integers(3, 60),
)
@settings(max_examples=60, deadline=None)
def test_potential_never_negative(x, t, n):
    fields = exact_fields(PlanePoint(x, t), n)
    assert fields.potential >= 0.0


def test_residual_combinations_match_moment_formulas():
    p = PlanePoint(0.3, 0.5)
    fields = exact_fields(p, 30)
    m1, m2, m3, m4 = fields.moments
    r1, r2, r3 = conservation_residuals(p, 30)
    assert r1 == pytest.approx(m3 - 3 * m1 * m2 + 2 * m1 ** 3, abs=1e-15)
    assert r2 == pytest.approx((m4 - m2 ** 2) - 2 * m1 * m3 + 2 * m1 ** 2 * m2, abs=1e-15)
    assert r3 == pytest.approx(m4 - m2 ** 2, abs=1e-15)


def test_first_residual_zero_at_zero_field():
    for n in (10, 50, 200):
        r1, _, _ = conservation_residuals(PlanePoint(0.0, 2.0), n)
        assert r1 == 0.0


def test_scaled_residuals_stay_bounded():
    for n in (20, 40, 80, 160):
        r1, r2, r3 = conservation_residuals(PlanePoint(0.3, 2.0), n)
        for r in (r1, r2, r3):
            assert 0.0 < n * abs(r) < 10.0


def test_viscous_hj_residual_small_and_second_order():
    p = PlanePoint(0.5, 1.0)
    assert abs(hj_residual(p, 12, step=1e-3)) < 1e-5
    # pure step^2 truncation error: shrinking the step 10x shrinks it 100x;
    # compared on the coarser pair where roundoff in the second difference
    # is still negligible next to the truncation term
    coarse = hj_residual(p, 12, step=1e-2)
    fine = hj_residual(p, 12, step=1e-3)
    assert 85.0 < abs(coarse / fine) < 115.0


def test_continuity_residual_small_and_second_order():
    assert abs(continuity_residual(PlanePoint(0.4, 0.3), 10)) < 1e-4
    assert abs(continuity_residual(PlanePoint(0.0, 0.2), 6)) < 1e-4
    coarse = continuity_residual(PlanePoint(0.4, 0.3), 10, step=1e-3)
    fine = continuity_residual(PlanePoint(0.4, 0.3), 10, step=5e-4)
    assert abs(coarse / fine) == pytest.approx(4.0, rel=0.2, abs=0)


@pytest.mark.parametrize("x,t,n", [(0.3, 0.7, 8), (0.0, 1.2, 15), (1.0, 0.4, 30)])
def test_quadrature_route_agrees_with_sector_sum(x, t, n):
    p = PlanePoint(x, t)
    fields = exact_fields(p, n)
    assert viscous_action(p, n) == pytest.approx(fields.phi, rel=1e-10, abs=1e-10)
    assert viscous_velocity(p, n) == pytest.approx(fields.u, abs=1e-9)


def quadrature_action(x: float, t: float, n: int, boundary: str) -> float:
    """Heat-kernel smoothing with an explicitly chosen boundary convention."""

    def exponent(y: float) -> float:
        base = math.log(2.0 * math.cosh(y))
        if boundary == "inverted":
            base = -base
        return n * (base - (x - y) ** 2 / (2.0 * t))

    shift = max(exponent(y) for y in np.linspace(x - 8.0, x + 8.0, 4001))
    integral, _ = quad(lambda y: math.exp(exponent(y) - shift), x - 12.0, x + 12.0, limit=200)
    log_smoothed = shift + math.log(integral) + 0.5 * math.log(n / (2.0 * math.pi * t))
    return -log_smoothed / n


def test_only_the_growing_boundary_reproduces_the_sector_sum():
    # the kernel must smooth (2 cosh y)^n; the inverted convention
    # (2 cosh y)^-n looks superficially symmetric but lands far away
    p = PlanePoint(0.3, 0.7)
    target = exact_fields(p, 8).phi
    good = quadrature_action(0.3, 0.7, 8, boundary="direct")
    bad = quadrature_action(0.3, 0.7, 8, boundary="inverted")
    assert good == pytest.approx(target, abs=1e-8)
    assert abs(bad - target) > 0.1


def test_scaled_potential_stabilizes():
    values = [n * exact_fields(PlanePoint(0.3, 2.0), n).potential for n in (160, 320)]
    assert 0.5 < values[1] / values[0] < 2.0


def test_domain_validation():
    with pytest.raises(ValueError):
        PlanePoint(0.1, -0.5)
    with pytest.raises(ValueError):
        exact_fields(PlanePoint(0.1, 0.5), 0)
    # refused before any window is sized
    for route in (exact_fields, log_partition, hj_residual):
        with pytest.raises(ValueError, match="at most 2"):
            route(PlanePoint(0.1, 0.5), MAX_SPINS + 1)
    with pytest.raises(ValueError):
        hj_residual(PlanePoint(0.1, 0.5), 10, step=0.0)
    # the backward stencil would leave the half-plane
    for route in (hj_residual, continuity_residual):
        with pytest.raises(ValueError, match=r"need t - step >= 0, got t=0\.0005"):
            route(PlanePoint(0.1, 5e-4), 10)
    # the heat-kernel routes refuse a size that is not a positive integer, as exact_fields does
    for n in (2.5, 10.0):
        for route in (exact_fields, viscous_action, viscous_velocity):
            with pytest.raises(ValueError, match="positive integer"):
                route(PlanePoint(0.3, 0.5), n)
