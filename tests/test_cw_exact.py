"""Finite-size ferromagnet: sector sum, moments, residuals, dual quadrature route."""

import math

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
from spinflow.cw_exact import (MAX_SPINS, _log_binomials, _pair_weights, _size_tables,
                               _window)


def every_sector(n: int):
    # sectors k <= n/2 and their log-binomials, from the window that holds every block
    return _log_binomials(n, slice(None))


def every_sector_log_weight(x: float, t: float, n: int):
    # magnetization and log-weight of all n + 1 sectors, in order, from the module's
    # log-binomials and their mirror images k -> n - k
    k, log_binomials = every_sector(n)
    lead = 1 - n % 2  # at even n the middle sector is its own mirror
    k = np.concatenate((k, n - k[::-1][lead:]))
    log_binomials = np.concatenate((log_binomials, log_binomials[::-1][lead:]))
    m = (2.0 * k - n) / n
    return m, log_binomials + n * (0.5 * t * m * m + x * m)


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


@pytest.fixture
def size_memo():
    # an empty size memo, and its counters: misses are tables built
    _size_tables.cache_clear()
    yield _size_tables.cache_info
    _size_tables.cache_clear()


def fields_bits(x: float, t: float, n: int) -> tuple:
    f = exact_fields(PlanePoint(x, t), n)
    return tuple(v.hex() for v in (f.phi, f.u, f.potential, *map(float, f.moments)))


def test_a_sweep_at_one_size_builds_its_tables_once(size_memo):
    for x in (0.0, 0.5, 1.0):
        for t in (0.25, 2.0):
            exact_fields(PlanePoint(x, t), 25_000)
    assert size_memo().misses == 1 and size_memo().currsize == 1


def test_a_refused_size_leaves_no_tables_behind(size_memo):
    exact_fields(PlanePoint(0.3, 0.5), 100)
    for n, x, error in ((MAX_SPINS + 1, 0.3, ValueError), (10, 1e308, OverflowError)):
        with pytest.raises(error):
            exact_fields(PlanePoint(x, 0.5), n)
    # the size before the refusals is still the one kept
    assert size_memo().misses == 1 and size_memo().currsize == 1
    exact_fields(PlanePoint(0.3, 0.5), 100)
    assert size_memo().misses == 1


def test_size_tables_are_read_only(size_memo):
    for table in _size_tables(1000):
        assert not table.flags.writeable
        with pytest.raises(ValueError):
            table[0] = 1.0


def test_neighbouring_sizes_never_share_tables(size_memo):
    solo = {}
    for n in (64, 65):
        _size_tables.cache_clear()
        solo[n] = fields_bits(0.3, 1.5, n)
    _size_tables.cache_clear()
    assert [fields_bits(0.3, 1.5, n) for n in (64, 65, 64)] == [solo[64], solo[65], solo[64]]
    assert size_memo().misses == 3


def test_sizes_asked_in_turn_give_their_solo_bits(size_memo):
    # A, B, A: the memo holds one size, so the return to A builds its tables again
    a, b = (0.5, 0.8333333333333334, 25_000), (0.3, 0.5, 250_000)
    solo = {}
    for point in (a, b):
        _size_tables.cache_clear()
        solo[point] = fields_bits(*point)
    _size_tables.cache_clear()
    assert [fields_bits(*p) for p in (a, b, a)] == [solo[a], solo[b], solo[a]]
    assert solo[a] == tuple(_FROZEN_LARGE_N[a]) and size_memo().misses == 3


@pytest.mark.parametrize("x,t,n", [(0.2, 0.5, 10), (0.0, 1.5, 6), (0.7, 0.0, 3), (1.0, 2.0, 8)])
def test_log_partition_matches_brute_force(x, t, n):
    direct = brute_force_log_partition(x, t, n)
    assert log_partition(PlanePoint(x, t), n) == pytest.approx(direct, abs=1e-13)


def test_log_partition_frozen_value():
    assert log_partition(PlanePoint(0.2, 0.5), 10) == pytest.approx(
        0.7591085101588227, rel=1e-14)


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


def fsum_fields(x: float, t: float, n: int) -> tuple[float, list[float], float]:
    # log-partition per spin, moments 1-4 and potential from correctly rounded sums
    # over all n + 1 of the module's own log-weights, with no window
    m, log_w = every_sector_log_weight(x, t, n)
    top = float(log_w.max())
    w = np.exp(log_w - top)
    z = math.fsum(w)
    moments = [math.fsum(w * m ** j) / z for j in range(1, 5)]
    potential = 0.5 * math.fsum(w * (m - moments[0]) ** 2) / z
    return (top + math.log(z)) / n, moments, potential


# the potential from a 40-digit sum over exact binomials (mpmath) where the fsum
# oracle is itself off: it rounds each mirror log-weight, about 2e4 here, on its own
# (spacing 3.6e-12), and lands 1.2e-13 off this value
_FROZEN_POTENTIAL = {(1.6e-4, 1.5, 25_000): 0.001539120597631917667466295}


@pytest.mark.parametrize("x,t,n", [(1.6e-4, 1.5, 25_000), (0.0, 1.0, 25_000), (0.0, 1.5, 25_001),
                                   (1.0, 3.0, 25_000), (0.3, 0.8, 250_000)])
def test_large_n_fields_match_an_fsum_over_every_sector(x, t, n):
    # (1.6e-4, 1.5): the minority peak weighs about e^-7 and must be summed;
    # (0, 1): the critical point; (0, 1.5) at odd n: two peaks; (1, 3): one narrow peak
    p = PlanePoint(x, t)
    log_z, expected, potential = fsum_fields(x, t, n)
    fields = exact_fields(p, n)
    assert log_partition(p, n) == pytest.approx(log_z, rel=1e-14, abs=0)
    assert fields.phi == pytest.approx(-log_z, rel=1e-14, abs=0)
    potential = _FROZEN_POTENTIAL.get((x, t, n), potential)
    assert fields.potential == pytest.approx(potential, rel=1e-14, abs=0)
    for j in (1, 2, 3, 4):
        if x == 0.0 and j % 2:
            assert fields.moments[j - 1] == 0.0
        else:
            assert fields.moments[j - 1] == pytest.approx(expected[j - 1], rel=1e-14, abs=0)


@pytest.mark.parametrize("x,t,n", [(0.3, 0.8, 250_000), (1.6e-4, 1.5, 25_000), (0.01725, 1.5, 25_000),
                                   (0.0, 1.0, 25_000), (1.0, 3.0, 25_001), (-0.5, 40.0, 3_000)])
def test_window_holds_every_sector_with_a_nonzero_weight(x, t, n):
    # (0.01725, 1.5): the minority peak sits about e^-740 below the majority one;
    # the window holds the pair k <= n/2 of every live sector
    _, log_w = every_sector_log_weight(x, t, n)
    alive = np.flatnonzero(np.exp(log_w - log_w.max()) > 0.0)
    k, _ = _log_binomials(n, _window(x, t, n))
    assert np.all(np.diff(k) > 0)
    assert np.isin(np.minimum(alive, n - alive), k).all()


def test_window_evaluates_a_few_blocks_about_each_peak():
    # at (0.3, 0.8), 18 194 of the 250 001 sectors carry a weight above exp(-745)
    # of the largest; the window holds at most twice that, in whole blocks
    n = 250_000
    k, _ = _log_binomials(n, _window(0.3, 0.8, n))
    assert len(k) <= 32 * -(-2 * 18_194 // 32)
    # at x = 0 too it drops sectors
    for t, n in ((0.8, 25_000), (1.0, 25_001), (1.5, 250_000)):
        k, _ = _log_binomials(n, _window(0.0, t, n))
        assert len(k) < n // 2 + 1


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
    assert abs(scaled[1]) == pytest.approx(abs(scaled[0]), rel=1e-3)
    # against the closed form, N (N (u_N - u) - cu) reads 1.72 at 1e6 and 3.18 at 1e7
    for value in scaled:
        assert value == pytest.approx(cu, rel=1e-5)


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
    k = np.arange(n // 2 + 1.0)
    expected = gammaln(n + 1.0) - (gammaln(k + 1.0) + gammaln(n - k + 1.0))
    _, got = every_sector(n)
    assert got.shape == (n // 2 + 1,)
    assert got[0] == 0.0
    assert np.max(np.abs(got - expected)) <= 6.0 * _binomial_spacing(n)


# log C(n, k) to 40 digits (mpmath loggamma at 50 digits)
_FROZEN_LOG_BINOMIALS = [
    (1000, 1, 6.907755278982137052053974364053092622803),
    (1000, 257, 566.3502639016177271832904225245806228911),
    (1000, 333, 632.6620501769002568482484732956051659242),
    (1000, 500, 689.4672615678511800755088551127224298143),
    (25000, 1, 10.12663110385033780125549303050546790185),
    (25000, 257, 1428.417475640067940892501713907369493269),
    (25000, 8333, 15907.39293125685876944086393944713584533),
    (25000, 12500, 17323.3903970940628417644788538708807184),
    (250000, 1, 12.42921619684438348527348448518983210946),
    (250000, 257, 2021.370578916403102638755527927950400643),
    (250000, 83333, 159121.929515543113903382975046981023037),
    (250000, 125000, 173280.3547395352604351356971913532151284),
]


@pytest.mark.parametrize("n, k, value", _FROZEN_LOG_BINOMIALS)
def test_log_binomials_frozen_values(n, k, value):
    # within three spacings of log n!; a running sum without anchors drifts by
    # seven at n = 2.5e5
    _, got = every_sector(n)
    assert abs(got[k] - value) <= 3.0 * _binomial_spacing(n)


@pytest.mark.parametrize("n", [1, 2, 9, 256, 257, 1000, 25001])
@pytest.mark.parametrize("t", [0.0, 0.7, 2.0])
def test_sector_log_weights_are_exactly_mirror_symmetric_at_zero_field(n, t):
    # at x = 0 the two sectors k and n - k of a pair weigh the same, bit for bit,
    # and the middle sector of even n, its own mirror, counts once
    a, even, odd, light, *_ = _pair_weights(0.0, t, n)
    pairs = len(a) - (1 - n % 2)  # at even n the last sector, k = n/2, is its own mirror
    assert np.array_equal(even[:pairs], 2.0 * light[:pairs])
    assert np.all(a[pairs:] == 0.0) and np.all(light[pairs:] == 0.0)
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


# exact_fields as float.hex (phi, u, potential, moments 1..4) at small N: below 64
# spins one block holds every anchor, and where n (log 2 + |t|/2 + 2|x|) <= 746
# (all but n = 300 at t = 5) no sector is far enough below the peak to drop
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
        "-0x1.14c96732a2b92p+0", "-0x1.dce8f08ce4e1ep-1", "0x1.5bc51baf9abcbp-10",
        "0x1.dce8f08ce4e1ep-1", "0x1.bd954e5c19e29p-1", "0x1.a182ede4a0133p-1",
        "0x1.8844b00dde309p-1"),
    (0.3, 1.5, 64): (
        "-0x1.14c7986ca5e6cp+0", "-0x1.dcf28888f8a9dp-1", "0x1.55d1ce23cbcb3p-10",
        "0x1.dcf28888f8a9dp-1", "0x1.bda13a90080b9p-1", "0x1.a18be677f21abp-1",
        "0x1.8846e80f69982p-1"),
    (0.3, 1.5, 65): (
        "-0x1.14c5d871b70dcp+0", "-0x1.dcfbd06405d60p-1", "0x1.5011cc99588aep-10",
        "0x1.dcfbd06405d60p-1", "0x1.bdacc51fbb159p-1", "0x1.a1949687bab15p-1",
        "0x1.88490d657b26ap-1"),
    (0.3, 1.5, 300): (
        "-0x1.1470bbd30c315p+0", "-0x1.deb82f555b563p-1", "0x1.0f8334e1e27ddp-12",
        "0x1.deb82f555b563p-1", "0x1.bfde0b70a2bd4p-1", "0x1.a33fb3187dc11p-1",
        "0x1.88af9cad4a511p-1"),
    (-0.7, 0.4, 1): (
        "-0x1.1ed3ace578018p+0", "0x1.356fb17af2e91p-1", "0x1.44fc9668e6f7cp-2",
        "-0x1.356fb17af2e91p-1", "0x1.0000000000000p+0", "-0x1.356fb17af2e91p-1",
        "0x1.0000000000000p+0"),
    (-0.7, 0.4, 2): (
        "-0x1.10ae326a08f37p+0", "0x1.59989fe89ee5ep-1", "0x1.3a25fef017e2bp-3",
        "-0x1.59989fe89ee5ep-1", "0x1.86595c77ae24dp-1", "-0x1.59989fe89ee5ep-1",
        "0x1.86595c77ae24dp-1"),
    (-0.7, 0.4, 63): (
        "-0x1.0412e362c2e04p+0", "0x1.85a314542eca1p-1", "0x1.06c05547ecaa0p-8",
        "-0x1.85a314542eca1p-1", "0x1.2c9f832a7d343p-1", "-0x1.d5c41e10753d4p-2",
        "0x1.735185b5482cfp-2"),
    (-0.7, 0.4, 64): (
        "-0x1.041164c28b7aap+0", "0x1.85a90e8270cd4p-1", "0x1.029a1a3cd75f6p-8",
        "-0x1.85a90e8270cd4p-1", "0x1.2c9803473d4b1p-1", "-0x1.d58fa8e86f967p-2",
        "0x1.72f950e095618p-2"),
    (-0.7, 0.4, 65): (
        "-0x1.040ff1f5c60cap+0", "0x1.85aed987b3064p-1", "0x1.fd29c96fce162p-9",
        "-0x1.85aed987b3064p-1", "0x1.2c90bfd4494bdp-1", "-0x1.d55ccc6ab57c6p-2",
        "0x1.72a3c2aba7231p-2"),
    (-0.7, 0.4, 300): (
        "-0x1.03c7978c8c748p+0", "0x1.86d0df35bcdacp-1", "0x1.b59de1960ae06p-11",
        "-0x1.86d0df35bcdacp-1", "0x1.2b2b583265b3ap-1", "-0x1.cb50ff52805c1p-2",
        "0x1.6191e0c669c6ap-2"),
    (0.0, 5.0, 1): (
        "-0x1.98b90bfbe8e7cp+1", "0x0.0p+0", "0x1.0000000000000p-1", "0x0.0p+0",
        "0x1.0000000000000p+0", "0x0.0p+0", "0x1.0000000000000p+0"),
    (0.0, 5.0, 2): (
        "-0x1.6cca8c347d8a8p+1", "0x0.0p+0", "0x1.fc92c130538e2p-2", "0x0.0p+0",
        "0x1.fc92c130538e2p-1", "0x0.0p+0", "0x1.fc92c130538e2p-1"),
    (0.0, 5.0, 63): (
        "-0x1.416a44e783147p+1", "0x0.0p+0", "0x1.ffe483e26a839p-2", "0x0.0p+0",
        "0x1.ffe483e26a839p-1", "0x0.0p+0", "0x1.ffcac150a5facp-1"),
    (0.0, 5.0, 64): (
        "-0x1.4164a1b2d2478p+1", "0x0.0p+0", "0x1.ffe49394f3c5bp-2", "0x0.0p+0",
        "0x1.ffe49394f3c5bp-1", "0x0.0p+0", "0x1.ffcad8f7c1b29p-1"),
    (0.0, 5.0, 65): (
        "-0x1.415f2ae6d3264p+1", "0x0.0p+0", "0x1.ffe4a2c358fcbp-2", "0x0.0p+0",
        "0x1.ffe4a2c358fcbp-1", "0x0.0p+0", "0x1.ffcaefdaa408cp-1"),
    (0.0, 5.0, 300): (
        "-0x1.404d3fbb75b73p+1", "0x0.0p+0", "0x1.ffe773833a2f3p-2", "0x0.0p+0",
        "0x1.ffe773833a2f3p-1", "0x0.0p+0", "0x1.ffcf3bc7d330cp-1"),
}


@pytest.mark.parametrize("x, t, n", sorted(_FROZEN_SMALL_N))
def test_small_n_fields_frozen_bits(x, t, n):
    f = exact_fields(PlanePoint(x, t), n)
    fields = (f.phi, f.u, f.potential, *map(float, f.moments))
    assert fields == tuple(map(float.fromhex, _FROZEN_SMALL_N[(x, t, n)]))


# exact_fields as float.hex, as _FROZEN_SMALL_N, where windows drop sectors: the
# cw-plane sweep rows at N = 25 000 (t from 0.25 to 2 in thirds, x = 0, 0.5, 1), its
# convergence ladder at (0.3, 0.5), and one point with t > 1 and x < 0
_FROZEN_LARGE_N = {
    (0.0, 0.25, 25000): (
        "-0x1.62e4f0fea93d4p-1", "0x0.0p+0", "0x1.bf626cd817d95p-16",
        "0x0.0p+0", "0x1.bf626cd817d95p-15", "0x0.0p+0",
        "0x1.252dc45b3878ap-27"),
    (0.5, 0.25, 25000): (
        "-0x1.b1385449cd069p-1", "-0x1.21bd64142d098p-1", "0x1.12c8ce96d2c4ap-16",
        "0x1.21bd64142d098p-1", "0x1.47f5be58ef506p-2", "0x1.73427c3b7f903p-3",
        "0x1.a451b7139f54fp-4"),
    (1.0, 0.25, 25000): (
        "-0x1.34fd5b4fe9340p+0", "-0x1.ac3d8e4da6e91p-1", "0x1.b3f6ac7a2bddap-18",
        "0x1.ac3d8e4da6e91p-1", "0x1.6630a5470f95cp-1", "0x1.2b9a93c36a87bp-1",
        "0x1.f5359f3821fe6p-2"),
    (0.0, 0.8333333333333334, 25000): (
        "-0x1.62e8e207cf48dp-1", "0x0.0p+0", "0x1.f6b6df3a62b26p-14",
        "0x0.0p+0", "0x1.f6b6df3a62b26p-13", "0x0.0p+0",
        "0x1.71d8264745dc5p-23"),
    (0.5, 0.8333333333333334, 25000): (
        "-0x1.fc58c0829560bp-1", "-0x1.a9b506fcfc50fp-1", "0x1.16e3ac84a60bap-17",
        "0x1.a9b506fcfc50fp-1", "0x1.61f77662c8e28p-1", "0x1.2652b00e4efa4p-1",
        "0x1.e9787022527cap-2"),
    (1.0, 0.8333333333333334, 25000): (
        "-0x1.716af6a8f9318p+0", "-0x1.e41dd67ef43b5p-1", "0x1.37f692506cc5cp-19",
        "0x1.e41dd67ef43b5p-1", "0x1.c9c1074075261p-1", "0x1.b0d44d04a8f7bp-1",
        "0x1.99438c7c504f7p-1"),
    (0.0, 1.4166666666666667, 25000): (
        "-0x1.8ec7d113f70d7p-1", "0x0.0p+0", "0x1.5ab28e85e746ep-2",
        "0x0.0p+0", "0x1.5ab28e85e746ep-1", "0x0.0p+0",
        "0x1.d5980be4f083bp-2"),
    (0.5, 1.4166666666666667, 25000): (
        "-0x1.3b2f5f55a2848p+0", "-0x1.e7322f02faa6bp-1", "0x1.250a7be256f00p-19",
        "0x1.e7322f02faa6bp-1", "0x1.cf988edf1baa4p-1", "0x1.b9242330c174fp-1",
        "0x1.a3c6aa7846011p-1"),
    (1.0, 1.4166666666666667, 25000): (
        "-0x1.b7691ec55a18ep+0", "-0x1.f787063617e62p-1", "0x1.719cbe3ae2447p-21",
        "0x1.f787063617e62p-1", "0x1.ef321f03a7564p-1", "0x1.e700b00fe3a62p-1",
        "0x1.def22199ae652p-1"),
    (0.0, 2.0, 25000): (
        "-0x1.050b37fc583c2p+0", "0x0.0p+0", "0x1.d566dc3952e88p-2",
        "0x0.0p+0", "0x1.d566dc3952e88p-1", "0x0.0p+0",
        "0x1.ae5af15d40407p-1"),
    (0.5, 2.0, 25000): (
        "-0x1.81c49698c5c15p+0", "-0x1.f8bfa997d38a1p-1", "0x1.3ffd881862d89p-21",
        "0x1.f8bfa997d38a1p-1", "0x1.f199c5a1d9eeap-1", "0x1.ea8df317cb37bp-1",
        "0x1.e39bd259633e0p-1"),
    (1.0, 2.0, 25000): (
        "-0x1.0051f44506d91p+1", "-0x1.fd6a867705202p-1", "0x1.b94c10feec666p-23",
        "0x1.fd6a867705202p-1", "0x1.fad8714ed6515p-1", "0x1.f849bc01a1772p-1",
        "0x1.f5be620fb39a7p-1"),
    (0.3, 0.5, 1000): (
        "-0x1.8cd5fe0ca5173p-1", "-0x1.002e3b546700ep-1", "0x1.3a27affe50dc0p-11",
        "0x1.002e3b546700ep-1", "0x1.0196a6b22c678p-2", "0x1.043851476eb72p-3",
        "0x1.0816cf99e0b09p-4"),
    (0.3, 0.5, 1847): (
        "-0x1.8cc7e261fffc0p-1", "-0x1.004b04aa872e8p-1", "0x1.541bf667d99a8p-12",
        "0x1.004b04aa872e8p-1", "0x1.01402d4bfe4acp-2", "0x1.02df96d6004ebp-3",
        "0x1.052ab12d8e085p-4"),
    (0.3, 0.5, 3411): (
        "-0x1.8cc03f699d6a4p-1", "-0x1.005a9cb337d81p-1", "0x1.704939c10647bp-13",
        "0x1.005a9cb337d81p-1", "0x1.01116bc76ddfbp-2", "0x1.0224abadd475fp-3",
        "0x1.0394fe4d4e1c6p-4"),
    (0.3, 0.5, 6300): (
        "-0x1.8cbc1cc0fb657p-1", "-0x1.00630f5ecad82p-1", "0x1.8ec6ec78ab2aap-14",
        "0x1.00630f5ecad82p-1", "0x1.00f81df00902bp-2", "0x1.01bf5b413f481p-3",
        "0x1.02b9141caa83cp-4"),
    (0.3, 0.5, 11635): (
        "-0x1.8cb9dfa1e8557p-1", "-0x1.0067a26daead9p-1", "0x1.afd6535d75302p-15",
        "0x1.0067a26daead9p-1", "0x1.00ea6c34ae83fp-2", "0x1.01887b22bb312p-3",
        "0x1.0241f5a4d62b0p-4"),
    (0.3, 0.5, 21488): (
        "-0x1.8cb8a94e4efe6p-1", "-0x1.006a1c9869fedp-1", "0x1.d3a422d3117f3p-16",
        "0x1.006a1c9869fedp-1", "0x1.00e3024d9bffcp-2", "0x1.016ac279a5060p-3",
        "0x1.02017104ed4c0p-4"),
    (0.3, 0.5, 39685): (
        "-0x1.8cb80146a0310p-1", "-0x1.006b73fec50c7p-1", "0x1.fa6ab6b7339cdp-17",
        "0x1.006b73fec50c7p-1", "0x1.00defec2907d2p-2", "0x1.015aaa12254dep-3",
        "0x1.01de8078130b3p-4"),
    (0.3, 0.5, 73293): (
        "-0x1.8cb7a64aeacdap-1", "-0x1.006c2df14cb31p-1", "0x1.1233931717c9ep-17",
        "0x1.006c2df14cb31p-1", "0x1.00dcd267b19a0p-2", "0x1.0151f2d154ce3p-3",
        "0x1.01cb94d7ec4c0p-4"),
    (0.3, 0.5, 135364): (
        "-0x1.8cb77507555f3p-1", "-0x1.006c92a0c6844p-1", "0x1.28eebdb95df64p-18",
        "0x1.006c92a0c6844p-1", "0x1.00dba52b141e7p-2", "0x1.014d3aa048759p-3",
        "0x1.01c1561467981p-4"),
    (0.3, 0.5, 250000): (
        "-0x1.8cb75a5adb3bfp-1", "-0x1.006cc924eb869p-1", "0x1.418d263c4ebc0p-19",
        "0x1.006cc924eb869p-1", "0x1.00db0211527b4p-2", "0x1.014aac7116ab7p-3",
        "0x1.01bbc9f6376f9p-4"),
    (-0.35, 1.6, 5000): (
        "-0x1.2be7ae11d887ep+0", "0x1.e887efe1587c7p-1", "0x1.5ee0eb9c8b000p-17",
        "-0x1.e887efe1587c7p-1", "0x1.d226031ed81f7p-1", "-0x1.bccd3935d4298p-1",
        "0x1.a8712eba9b376p-1"),
}


@pytest.mark.parametrize("x, t, n", sorted(_FROZEN_LARGE_N))
def test_large_n_fields_frozen_bits(x, t, n):
    f = exact_fields(PlanePoint(x, t), n)
    fields = (f.phi, f.u, f.potential, *map(float, f.moments))
    assert fields == tuple(map(float.fromhex, _FROZEN_LARGE_N[(x, t, n)]))


# the potential from 50-digit sums over all N + 1 sectors with exact binomials (mpmath).
# From N = 11 635 on some points miss 1e-13: a log-weight, about N in size, is rounded
# before exp, so its relative error grows with N (FOUND in CHANGES.md); the fsum oracle
# above shares those log-weights and cannot see it
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
_LOG_WEIGHT_LOSS = {(0.0, 0.25, 25000), (0.3, 0.5, 11635), (0.3, 0.5, 39685),
                    (0.3, 0.5, 250000)}


@pytest.mark.parametrize("x, t, n", [
    pytest.param(*key, marks=pytest.mark.xfail(
        strict=True, reason="log-weights rounded before exp cost the potential up to 2.4e-12"))
    if key in _LOG_WEIGHT_LOSS else key for key in _POTENTIAL_REFERENCES])
def test_potential_matches_its_50_digit_reference(x, t, n):
    potential = exact_fields(PlanePoint(x, t), n).potential
    assert potential == pytest.approx(_POTENTIAL_REFERENCES[(x, t, n)], rel=1e-13, abs=0)


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
    assert abs(coarse / fine) == pytest.approx(4.0, rel=0.2)


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
    # refused before the N/64 anchors are allocated
    for route in (exact_fields, log_partition, hj_residual):
        with pytest.raises(ValueError, match="at most 2"):
            route(PlanePoint(0.1, 0.5), MAX_SPINS + 1)
    with pytest.raises(ValueError):
        hj_residual(PlanePoint(0.1, 0.5), 10, step=0.0)
    with pytest.raises(ValueError, match="k_max must be >= 4"):
        exact_fields(PlanePoint(0.1, 0.5), 10, k_max=3)
    # the backward stencil would leave the half-plane
    for route in (hj_residual, continuity_residual):
        with pytest.raises(ValueError, match=r"need t - step >= 0, got t=0\.0005"):
            route(PlanePoint(0.1, 5e-4), 10)
    # the heat-kernel routes refuse a size that is not a positive integer, as exact_fields does
    for n in (2.5, 10.0):
        for route in (exact_fields, viscous_action, viscous_velocity):
            with pytest.raises(ValueError, match="positive integer"):
                route(PlanePoint(0.3, 0.5), n)
