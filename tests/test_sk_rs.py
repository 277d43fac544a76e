"""Replica-symmetric solver: cavity expectations, fixed point, caustic, pressure."""

import contextlib
import io
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from spinflow import (
    ConvergenceError,
    SkParams,
    caustic_margin,
    caustic_root,
    gaussian_expectation,
    rs_action,
    rs_characteristic,
    rs_pressure,
    rs_pressure_detail,
    solve_qbar,
)
from spinflow import cli, sk_rs

LOG2 = math.log(2.0)

KIND_FUNCTIONS = {
    "log_cosh": lambda y: math.log(math.cosh(y)),
    "tanh_sq": lambda y: math.tanh(y) ** 2,
    "sech_sq": lambda y: 1.0 / math.cosh(y) ** 2,
    "sech_4": lambda y: 1.0 / math.cosh(y) ** 4,
}


def quad_expectation(kind: str, beta_h: float, v: float) -> float:
    f = KIND_FUNCTIONS[kind]
    density = lambda g: math.exp(-g * g / 2.0) / math.sqrt(2.0 * math.pi)
    value, _ = quad(lambda g: f(beta_h + g * math.sqrt(v)) * density(g), -12.0, 12.0, limit=200)
    return value


# the sech^4 integrand has the heaviest e^(-4|y|) tail, where fixed-order
# Hermite quadrature converges slowest at wide variance
GH_TOLERANCE = {"log_cosh": 5e-12, "tanh_sq": 5e-12, "sech_sq": 5e-12, "sech_4": 2e-10}


@pytest.mark.parametrize("kind", sorted(KIND_FUNCTIONS))
@pytest.mark.parametrize("beta_h,v", [(0.0, 1.0), (0.3, 0.4), (1.1, 2.5)])
def test_gaussian_expectation_matches_adaptive_quadrature(kind, beta_h, v):
    hermite = gaussian_expectation(kind, beta_h, v)
    adaptive = quad_expectation(kind, beta_h, v)
    assert hermite == pytest.approx(adaptive, abs=GH_TOLERANCE[kind])


def test_gaussian_expectation_frozen_values():
    assert gaussian_expectation("sech_sq", 0.0, 1.0) == pytest.approx(
        0.6057055096021591, rel=1e-12, abs=0)
    assert gaussian_expectation("tanh_sq", 0.0, 1.0) == pytest.approx(
        0.3942944903978412, rel=1e-12, abs=0)
    assert gaussian_expectation("tanh_sq", 0.2, 0.4) == pytest.approx(
        0.25361551554018147, rel=1e-12, abs=0)


def test_gaussian_expectation_degenerate_variance_collapses():
    assert gaussian_expectation("tanh_sq", 0.7, 0.0) == pytest.approx(
        math.tanh(0.7) ** 2, rel=1e-14, abs=0)
    assert gaussian_expectation("log_cosh", 0.3, 0.0) == pytest.approx(
        math.log(math.cosh(0.3)), rel=1e-14, abs=0)


def _map_and_slope_from_public_kinds(params, q):
    v = params.x + params.t * q
    e2, e4 = (gaussian_expectation(kind, params.beta_h, v) for kind in ("sech_sq", "sech_4"))
    return gaussian_expectation("tanh_sq", params.beta_h, v), params.t * (3.0 * e4 - 2.0 * e2)


def _map_and_slope(params, q):
    # the overlap map at q and its slope t (3 E sech^4 - 2 E sech^2), from the
    # one-lane node pass that the solve makes at q
    ((mapped, e2, e4),) = sk_rs._tanh_moments([params.beta_h], [params.x + params.t * q])
    return mapped, params.t * (3.0 * e4 - 2.0 * e2)


def test_the_two_zero_variance_collapses_agree_bitwise():
    # x = t = 0 puts the overlap map at v = 0, where both routes reduce to tanh(beta_h)^2
    for k in range(1, 200):
        beta_h = 0.0137 * k
        collapsed = gaussian_expectation("tanh_sq", beta_h, 0.0)
        params = SkParams(0.0, 0.0, beta_h)
        assert _map_and_slope(params, 0.0)[0] == collapsed, beta_h
        assert solve_qbar(params) == collapsed, beta_h
        # at v = 0 and v > 0 the map and its slope have the bits of the three public tanh kinds
        for point, q in ((params, 0.0), (SkParams(0.0, 1.0 + 0.01 * k, beta_h), 0.003 * k),
                         (SkParams(0.01 * k, 0.7, beta_h), 0.5)):
            assert (_map_and_slope(point, q)
                    == _map_and_slope_from_public_kinds(point, q)), (point, q)


@given(beta_h=st.floats(0.0, 2.0), v=st.floats(0.0, 4.0))
@settings(max_examples=60, deadline=None)
def test_squared_tanh_and_sech_partition_unity(beta_h, v):
    total = gaussian_expectation("tanh_sq", beta_h, v) + gaussian_expectation("sech_sq", beta_h, v)
    assert total == pytest.approx(1.0, abs=1e-12)


def test_solve_qbar_frozen_bisection_value():
    assert solve_qbar(SkParams(0.0, 4.0, 0.0)) == pytest.approx(
        0.5303683920507948, abs=1e-10)


def test_solve_qbar_boundary_coupling_free():
    # t = 0 makes the fixed point explicit
    value = solve_qbar(SkParams(0.4, 0.0, 0.2))
    assert value == pytest.approx(0.25361551554018147, rel=1e-12, abs=0)


def test_solve_qbar_symmetric_phase_is_exactly_zero():
    for t in (0.2, 0.7, 1.0):
        assert solve_qbar(SkParams(0.0, t, 0.0)) == 0.0


@given(
    x=st.floats(0.0, 2.0),
    t=st.floats(0.0, 3.0),
    beta_h=st.floats(0.0, 1.5),
)
@settings(max_examples=60, deadline=None)
def test_qbar_satisfies_its_fixed_point(x, t, beta_h):
    q = solve_qbar(SkParams(x, t, beta_h))
    image = gaussian_expectation("tanh_sq", beta_h, x + t * q)
    assert q == pytest.approx(image, abs=1e-11)
    assert 0.0 <= q <= 1.0


@pytest.mark.parametrize("x", [1e5, 1e308])
def test_overlap_is_one_where_every_node_saturates(x):
    # every node has tanh^2 = 1 there, and the unclamped weighted sum reads 1 + 2^-52
    assert solve_qbar(SkParams(x, 0.5, 0.0)) == 1.0


_UNIT_VARIANCES = [0.0, 1e-30, 1e-3, 1.0, 1e5, 1e308]


@pytest.mark.parametrize("kind", ["tanh_sq", "sech_sq", "sech_4"])
@pytest.mark.parametrize("beta_h", [0.0, 0.3, 2.0])
@pytest.mark.parametrize("v", _UNIT_VARIANCES)
def test_bounded_kinds_lie_in_the_unit_interval(kind, beta_h, v):
    assert 0.0 <= gaussian_expectation(kind, beta_h, v) <= 1.0


def test_bounded_kinds_lie_in_the_unit_interval_on_a_lane_block():
    lanes = [(beta_h, v) for beta_h in (0.0, 0.3, 2.0) for v in _UNIT_VARIANCES]
    moments = sk_rs._tanh_moments([b for b, _ in lanes], [v for _, v in lanes])
    assert all(0.0 <= mean <= 1.0 for lane in moments for mean in lane)
    assert moments[_UNIT_VARIANCES.index(1e-30)][1:] == (1.0, 1.0)


@pytest.mark.parametrize("x,t,beta_h,q", [(0.3, 1.2, 0.2, 0.34), (0.0, 2.0, 0.5, 0.4),
                                          (1.0, 0.7, 0.0, 0.6)])
def test_map_slope_matches_a_central_difference(x, t, beta_h, q):
    params = SkParams(x, t, beta_h)
    mapped, slope = _map_and_slope(params, q)
    assert mapped == pytest.approx(gaussian_expectation("tanh_sq", beta_h, x + t * q), abs=1e-15)
    h = 1e-5
    difference = (gaussian_expectation("tanh_sq", beta_h, x + t * (q + h))
                  - gaussian_expectation("tanh_sq", beta_h, x + t * (q - h))) / (2.0 * h)
    assert slope == pytest.approx(difference, rel=1e-7, abs=0)


def _counted(monkeypatch, name):
    # record (arguments, result) of every call to sk_rs.<name>
    calls = []
    helper = getattr(sk_rs, name)

    def counted(*args):
        calls.append((args, helper(*args)))
        return calls[-1][1]

    monkeypatch.setattr(sk_rs, name, counted)
    return calls


@pytest.mark.parametrize("x,t,beta_h", [(0.3, 1.2, 0.2), (0.0, 0.6, 0.0), (0.0, 1.5, 0.0),
                                        (0.2, 1.3, 0.25)])
def test_caustic_margin_is_the_newton_slope_gap(monkeypatch, x, t, beta_h):
    params = SkParams(x, t, beta_h)
    _, slope = _map_and_slope(params, solve_qbar(params))
    assert 1.0 - slope == pytest.approx(3.0 * caustic_margin(params), abs=1e-14)
    # the solve accepts q on its last node pass, which sits at q; that pass's
    # residual has the bits of |E tanh^2 - q| formed through gaussian_expectation
    passes = _counted(monkeypatch, "_tanh_moments")
    q = solve_qbar(params)
    (_, (last_v,)), ((mapped, _, _),) = passes[-1]
    assert last_v == x + t * q
    residual = abs(gaussian_expectation("tanh_sq", beta_h, x + t * q) - q)
    assert abs(q - mapped) == residual < 1e-12


def test_rs_action_makes_only_the_node_passes_of_its_solve(monkeypatch):
    # the margin and the acceptance residual come from the solve's last pass,
    # so the action adds only its E log cosh to the solve's own passes
    params = SkParams(0.3, 1.2, 0.2)
    passes = _counted(monkeypatch, "_tanh_moments")
    solve_qbar(params)
    solve_passes = len(passes)
    passes.clear()
    expectations = _counted(monkeypatch, "_log_cosh_means")
    rs_action(params)
    assert len(passes) == solve_passes
    # one E log cosh pass, of one lane, at y* = x + t q_bar
    assert [v for (_, v), _ in expectations] == [[params.x + params.t * solve_qbar(params)]]


@pytest.mark.parametrize("t", [1.0001, 1.001, 1.01])
def test_near_critical_solve_takes_tens_of_node_passes(monkeypatch, t):
    calls = _counted(monkeypatch, "_tanh_moments")
    q = solve_qbar(SkParams(0.0, t, 0.0))
    assert q > 0.0
    assert abs(q - gaussian_expectation("tanh_sq", 0.0, t * q)) < 1e-12
    assert len(calls) <= 40


def _outcome(result):
    # a lane's value, or the type, message and residual of its exception
    if isinstance(result, Exception):
        return type(result), str(result), getattr(result, "residual", None)
    return result


def _one_point(f, *args):
    try:
        return f(*args)
    except (ArithmeticError, RuntimeError) as err:
        return _outcome(err)


def test_lane_pass_is_the_one_lane_pass_bitwise():
    # every lane of a block, wherever it sits and whatever its neighbours, has the
    # bits of its own one-lane pass; v = 0 lanes collapse among the others, and the
    # lanes run past two block boundaries
    lanes = [(b, v) for b in (0.0, 0.1, 0.7, -1.3)
             for v in (0.0, 1e-300, 1e-6, 0.37, 1.0, 2.5, 4.0, 1e308)]
    lanes = (lanes * 5)[:2 * sk_rs._LANES + 5]
    beta_h, v = [b for b, _ in lanes], [w for _, w in lanes]
    assert sk_rs._tanh_moments(beta_h, v) == [sk_rs._tanh_moments([b], [w])[0] for b, w in lanes]
    # the E log cosh pass, with lanes whose bound overflows among them
    beta_h[3::7] = [1e308] * len(beta_h[3::7])
    means = [_outcome(m) for m in sk_rs._log_cosh_means(beta_h, v)]
    assert means == [_outcome(sk_rs._log_cosh_means([b], [w])[0]) for b, w in zip(beta_h, v)]
    assert any(isinstance(m, tuple) for m in means)


# the symmetric t > 1 start, the crawl just above t = 1 and a v = 0 collapse at x = t = 0
_GRID = [SkParams(x, t, beta_h) for x in (0.0, 0.3) for beta_h in (0.0, 0.1, 0.7)
         for t in (0.0, 0.5, 1.0, 1.0 + 1e-6, 1.05, 1.5, 4.0)]
# points whose solve or action fails: x + t overflows, or y* does in the action
_FAILING = [SkParams(1e308, 1e308, 0.0), SkParams(1e308, 0.5, 0.0), SkParams(0.0, 1e308, 0.0)]


def test_lockstep_solve_is_the_one_point_solve_bitwise(monkeypatch):
    points = (_GRID + _FAILING) * 3
    assert len(points) > 2 * sk_rs._LANES  # past two block boundaries
    lone = [_outcome(sk_rs._solve_lanes([p])[0]) for p in points]
    assert [_outcome(s) for s in sk_rs._solve_lanes(points)] == lone
    assert [_one_point(solve_qbar, p) for p in points] == [
        s if isinstance(s[0], type) else s[0] for s in lone]
    assert [_outcome(s) for s in sk_rs.rs_actions(points)] == [
        _one_point(rs_action, p) for p in points]
    assert [_outcome(m) for m in sk_rs.caustic_margins(points)] == [
        _one_point(caustic_margin, p) for p in points]
    # all the points take their Newton steps together: the grid takes the node
    # passes of its slowest point
    passes = _counted(monkeypatch, "_tanh_moments")
    sk_rs._solve_lanes(points)
    rounds = len(passes)
    slowest = 0
    for p in points:
        passes.clear()
        sk_rs._solve_lanes([p])
        slowest = max(slowest, len(passes))
    assert rounds == slowest


_GRID_POINTS = st.tuples(st.one_of(st.just(0.0), st.floats(0.0, 3.0)),
                         st.one_of(st.sampled_from([1.0, 1.0 + 1e-6]), st.floats(0.0, 4.0)),
                         st.one_of(st.just(0.0), st.floats(-2.0, 2.0)))


@given(grid=st.lists(_GRID_POINTS, min_size=1, max_size=2 * sk_rs._LANES + 3))
@settings(max_examples=25, deadline=None)
def test_lockstep_actions_are_the_point_actions(grid):
    points = [SkParams(*p) for p in grid]
    assert [_outcome(s) for s in sk_rs.rs_actions(points)] == [
        _one_point(rs_action, p) for p in points]


def test_caustic_root_takes_its_frozen_number_of_node_passes(monkeypatch):
    # the golden section asks for one margin at a time, each a one-lane solve
    passes = _counted(monkeypatch, "_tanh_moments")
    assert caustic_root(0.0) == float.fromhex("0x1.0000000000015p+0")
    assert len(passes) == 237
    assert {len(v) for (_, v), _ in passes} == {1}


@pytest.mark.parametrize("eps", [1e-6, 1e-8])
def test_near_critical_root_follows_its_expansion(eps):
    # q = (t - 1)/2 + O((t - 1)^2) and margin = (t - 1)/3 + O((t - 1)^2): a residual
    # below 1e-12 alone is met as far out as q ~ 3e-7 at these t
    params = SkParams(0.0, 1.0 + eps, 0.0)
    assert solve_qbar(params) == pytest.approx(eps / 2.0, rel=1e-4, abs=0)
    assert caustic_margin(params) == pytest.approx(eps / 3.0, rel=1e-4, abs=0)


# (t - 1, q_bar, margin) at x = beta_h = 0 and the float t = 1.0 + (t - 1), to 40
# digits: an mpmath findroot of q = E tanh^2(g sqrt(t q)) with 70-digit quadrature
_NEAR_CRITICAL = [
    (1e-12, 5.000444502908787872791589615705214864592e-13,
     3.333629668603080310169212165657591678824e-13),
    (1e-10, 5.00000041341018828052901028089107395799e-11,
     3.333333608662347696687650713259879194187e-11),
    (1e-08, 4.999999940445978923519502036041649436034e-9,
     3.333333265852875971835425864971237130665e-9),
    (1e-06, 4.999997082922903403534860403656868406624e-7,
     3.333328610845454556614543041776178977401e-7),
    (1e-04, 4.999708342362826322985642084737394091531e-5,
     3.332861196739113608455624152944780394218e-5),
    (1e-03, 4.997084238367730879275396063127636096977e-4,
     3.328619656198000704794940527887776007225e-4),
    (1e-02, 4.970925784562188450188853865671976771497e-3,
     3.286948359048753296775669747236988279915e-3),
    (5e-02, 2.428327627765336006070164303871249812938e-2,
     1.55823291545902187683007407855604876505e-2),
]


@pytest.mark.parametrize("eps, q_bar, margin", _NEAR_CRITICAL)
def test_near_critical_overlap_and_margin_match_their_references(eps, q_bar, margin):
    # q - map(q) and 1 - map'(q) are O(t - 1) differences of O(1) terms, so a map
    # rounded to the unit roundoff moves both by about eps / (t - 1) relatively
    params = SkParams(0.0, 1.0 + eps, 0.0)
    bound = 8.0 * 2.0 ** -52 / eps
    assert solve_qbar(params) == pytest.approx(q_bar, rel=bound, abs=0)
    assert caustic_margin(params) == pytest.approx(margin, rel=bound, abs=0)


def test_qbar_grows_with_cavity_strength():
    values = [solve_qbar(SkParams(x, 1.5, 0.1)) for x in (0.0, 0.2, 0.5, 1.0)]
    assert all(b > a for a, b in zip(values, values[1:]))


def test_rs_action_frozen_point():
    sol = rs_action(SkParams(0.3, 1.2, 0.2))
    assert sol.q_bar == pytest.approx(0.3432288310188045, abs=1e-10)
    assert sol.y_star == pytest.approx(0.7118745972225654, abs=1e-10)
    assert sol.phi_rs == pytest.approx(1.337992909942583, rel=1e-10, abs=0)
    assert sol.caustic_margin == pytest.approx(0.23947141090304236, abs=1e-10)
    assert sol.u == -sol.q_bar
    assert sol.pressure is None  # closed-form comparison only exists at x = 0


# parent values as float.hex, so that a refactor of the solve cannot move a bit
FROZEN_RS_ACTIONS = {
    (0.3, 1.2, 0.2): ("0x1.5f7760f1148ecp-2", "0x1.5686b40e7bb76p+0", None,
                      "0x1.ea6ffcb13e8edp-3", "0x1.6c7ad3c3d9227p-1"),
    # started from the series root: q_bar 7.8e-16 from its 40-digit reference
    (0.0, 1.05, 0.0): ("0x1.8ddb715cf1ba4p-6", "0x1.62e3dc4868304p+0", "0x1.e94a42aece96ap-1",
                       "0x1.fe9a0d0ea702bp-7", "0x1.a1c003d4ca9d3p-6"),
    (0.0, 1.5, 0.1): ("0x1.a4486d889a6edp-3", "0x1.640edfe95e01cp+0", "0x1.12076ff4af00ep+0",
                      "0x1.d5f424a18bfb5p-4", "0x1.3b36522673d32p-2"),
    # the v = 0 collapse
    (0.0, 0.0, 0.7): ("0x1.7606d32e32106p-2", "0x1.d740f364899c9p+0", "0x1.d740f364899c9p-1",
                      "0x1.5555555555555p-2", "0x0.0p+0"),
}


@pytest.mark.parametrize("point", sorted(FROZEN_RS_ACTIONS))
def test_rs_action_frozen_bits(point):
    sol = rs_action(SkParams(*point))
    fields = (sol.q_bar, sol.phi_rs, sol.pressure, sol.caustic_margin, sol.y_star)
    frozen = tuple(None if v is None else float.fromhex(v) for v in FROZEN_RS_ACTIONS[point])
    assert fields == frozen


def test_margin_root_and_pressure_frozen_bits():
    assert caustic_margin(SkParams(0.0, 2.5, 0.0)) == float.fromhex("0x1.6c80e19ceb814p-3")
    assert caustic_root(0.0) == float.fromhex("0x1.0000000000015p+0")
    assert rs_pressure(1.5, 0.1) == float.fromhex("0x1.3efd87d12ddd0p+0")
    assert rs_pressure_detail(2.0, 0.3) == (float.fromhex("0x1.aad4a422b2dd4p+0"), 0.0)


def test_rs_action_free_case_is_pure_entropy():
    sol = rs_action(SkParams(0.0, 0.25, 0.0))
    assert sol.q_bar == 0.0
    assert sol.phi_rs == pytest.approx(2.0 * LOG2, rel=1e-14, abs=0)
    assert sol.y_star == 0.0


def test_rs_action_zero_coupling_limit():
    sol = rs_action(SkParams(0.0, 0.0, 0.3))
    expected_phi = 2.0 * (LOG2 + math.log(math.cosh(0.3)))
    assert sol.phi_rs == pytest.approx(expected_phi, rel=1e-12, abs=0)
    assert sol.pressure == 0.5 * sol.phi_rs


def test_caustic_margin_closed_form_below_transition():
    # at x = 0, beta_h = 0 the fixed point is 0, so the margin is (1 - t)/3
    for t in (0.2, 0.4, 0.9):
        assert caustic_margin(SkParams(0.0, t, 0.0)) == pytest.approx(
            (1.0 - t) / 3.0, abs=1e-13)
    assert caustic_margin(SkParams(0.0, 1.0, 0.0)) == pytest.approx(0.0, abs=1e-13)
    # above the transition the solved branch restabilizes
    assert caustic_margin(SkParams(0.0, 1.5, 0.0)) > 0.0


def test_caustic_margin_assembled_from_public_pieces():
    params = SkParams(0.2, 1.3, 0.25)
    q = solve_qbar(params)
    v = params.x + params.t * q
    expected = (1.0 / 3.0
                + (2.0 / 3.0) * params.t * gaussian_expectation("sech_sq", params.beta_h, v)
                - params.t * gaussian_expectation("sech_4", params.beta_h, v))
    assert caustic_margin(params) == pytest.approx(expected, rel=1e-12, abs=0)


def test_caustic_root_sits_at_the_transition():
    assert caustic_root(0.0) == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("x,t,beta_h", [(0.3, 0.5, 0.2), (0.5, 1.5, 0.0), (0.2, 0.8, 0.5)])
def test_rs_action_solves_its_hamilton_jacobi_equation(x, t, beta_h):
    # the glassy twin of the ferromagnet's identity: d_t phi + (d_x phi)^2 / 2 = 0,
    # by central differences; the residual reads 2-4e-10 at these points
    h = 1e-4

    def phi(x, t):
        return rs_action(SkParams(x, t, beta_h)).phi_rs

    phi_t = (phi(x, t + h) - phi(x, t - h)) / (2.0 * h)
    phi_x = (phi(x + h, t) - phi(x - h, t)) / (2.0 * h)
    assert abs(phi_t + 0.5 * phi_x**2) <= 1e-8


def test_caustic_root_absent_in_a_field():
    with pytest.raises(ConvergenceError) as excinfo:
        caustic_root(0.3)
    # the failure reports how close the margin came to zero
    assert excinfo.value.residual == pytest.approx(0.17308027260485415, abs=1e-6)


def test_pressure_reconstruction_identity():
    for beta, h in ((0.5, 0.0), (0.6, 0.0), (1.2, 0.3), (1.5, 0.1)):
        closed, discrepancy = rs_pressure_detail(beta, h)
        assert abs(discrepancy) < 1e-10
        sol = rs_action(SkParams(0.0, beta * beta, beta * h))
        assert 0.5 * sol.phi_rs + beta * beta / 4.0 == pytest.approx(closed, abs=1e-10)


def test_pressure_envelope_check_catches_a_wrong_log_cosh(monkeypatch):
    # the reconstruction's two routes share one E log cosh, so scaling it leaves
    # their gap at zero; the envelope identity d_x phi = -qbar ties it to the map
    log_cosh = sk_rs.log_cosh
    monkeypatch.setattr(sk_rs, "log_cosh", lambda s: 1.001 * log_cosh(s))
    assert rs_pressure_detail(1.5, 0.1)[1] < 1e-10
    with pytest.raises(ConvergenceError, match="envelope") as excinfo:
        rs_pressure(1.5, 0.1)
    assert excinfo.value.residual > 1e-4


def test_pressure_refuses_a_reconstruction_mismatch(monkeypatch):
    # a gap of 1e-9 between the closed form and the half-action, with the envelope exact
    monkeypatch.setattr(sk_rs, "_pressure_checks", lambda beta, h: (1.0, 1e-9, 0.0))
    message = r"^pressure reconstruction mismatch 1\.000e-09 at beta=1\.5, h=0\.1$"
    with pytest.raises(ConvergenceError, match=message) as err:
        rs_pressure(1.5, 0.1)
    assert err.value.residual == 1e-9


def test_pressure_refuses_where_the_node_sums_lose_the_envelope():
    # at beta = 5 the 240-node sums put qbar about 2e-4 off; the envelope gap shows it
    with pytest.raises(ConvergenceError, match="envelope"):
        rs_pressure(5.0, 0.0)


def test_pressure_frozen_value_and_high_temperature_form():
    assert rs_pressure(1.5, 0.1) == pytest.approx(1.246056068963174, rel=1e-9, abs=0)
    # with no field and beta <= 1 the overlap vanishes and the pressure
    # collapses to log 2 + beta^2/4
    for beta in (0.4, 0.8, 1.0):
        assert rs_pressure(beta, 0.0) == pytest.approx(LOG2 + beta * beta / 4.0, abs=1e-12)


@pytest.mark.parametrize("h", [0.0, 2.0, -3.0])
def test_pressure_at_infinite_temperature_is_log_2(h):
    assert rs_pressure(0.0, h) == LOG2
    assert rs_pressure_detail(0.0, h) == (LOG2, 0.0)


def test_glassy_characteristics_slope_and_vertical_line():
    line = rs_characteristic(1.0, 1.0, n_points=5)
    assert line.shape == (5, 2)
    slope = gaussian_expectation("tanh_sq", 0.0, 1.0)
    x_final, t_final = line[-1]
    assert t_final == 1.0
    assert x_final == pytest.approx(1.0 - slope, rel=1e-12, abs=0)
    frozen = rs_characteristic(0.0, 2.0, n_points=9)
    assert np.all(frozen[:, 0] == 0.0)


def test_domain_validation():
    with pytest.raises(ValueError):
        SkParams(-0.1, 0.5)
    with pytest.raises(ValueError):
        SkParams(0.1, -0.5)
    with pytest.raises(ValueError):
        gaussian_expectation("tanh", 0.0, 1.0)


@pytest.mark.parametrize("call, match", [
    (lambda: gaussian_expectation("tanh_sq", math.nan, 1.0), "must be finite"),
    (lambda: gaussian_expectation("tanh_sq", 0.0, math.inf), "must be finite"),
    (lambda: gaussian_expectation("tanh_sq", 0.0, -0.5), "v must be >= 0"),
    (lambda: rs_pressure_detail(math.nan, 0.0), "must be finite"),
    (lambda: rs_pressure_detail(1.0, math.inf), "must be finite"),
    (lambda: rs_pressure_detail(-0.5, 0.0), "beta must be >= 0"),
    (lambda: rs_characteristic(-0.1, 1.0), "launch variance"),
    (lambda: rs_characteristic(math.nan, 1.0), "launch variance"),
], ids=["expectation nan", "expectation inf", "expectation v<0", "pressure beta nan",
        "pressure h inf", "pressure beta<0", "characteristic x0<0", "characteristic nan"])
def test_rs_routes_refuse_input_outside_their_domain(call, match):
    with pytest.raises(ValueError, match=match):
        call()


def _csv_sweep(argv):
    # exit code and CSV rows of a sweep run in process; it writes nothing to stderr
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    assert err.getvalue() == ""
    return code, out.getvalue().splitlines()[1:]


def _accept_at_once(lo, hi, x0, tol, residual_tol=math.inf):
    # a Newton that accepts its start whatever the residual there
    yield x0
    return x0


def _stall_at_once(lo, hi, x0, tol, residual_tol=math.inf):
    yield x0
    raise ConvergenceError("stalled", residual=0.5)


# one sweep row: the middle lane of x = 0, 0.3, 0.6 at t = 1.2 and beta_h = 0.2
_LANE_BLOCK = [SkParams(x, 1.2, 0.2) for x in (0.0, 0.3, 0.6)]


@pytest.mark.parametrize("forced", [_accept_at_once, _stall_at_once],
                         ids=["residual at acceptance", "newton budget"])
def test_a_failed_lane_fails_alone_in_its_block_and_its_sweep(monkeypatch, forced):
    sweeps = {quantity: ["sweep", "--model", "sk-rs", "--quantity", quantity, "--x-min", "0",
                         "--x-max", "0.6", "--n-x", "3", "--t-min", "1.2", "--t-max", "1.2",
                         "--n-t", "1", "--beta-h", "0.2", "--format", "csv"]
              for quantity in ("rs", "caustic")}
    solo = [_outcome(sk_rs._solve_lanes([p])[0]) for p in _LANE_BLOCK]
    rows = {quantity: _csv_sweep(argv) for quantity, argv in sweeps.items()}
    # a generic lane's Newton starts from map(0), E tanh^2 at v = x: the middle lane's alone
    target = sk_rs._tanh_moments([0.2], [0.3])[0][0]
    plain = sk_rs.newton_steps

    def newton(lo, hi, x0, tol, residual_tol=math.inf):
        return (forced if x0 == target else plain)(lo, hi, x0, tol, residual_tol=residual_tol)

    monkeypatch.setattr(sk_rs, "newton_steps", newton)
    lanes = [_outcome(s) for s in sk_rs._solve_lanes(_LANE_BLOCK)]
    assert lanes[0] == solo[0] and lanes[2] == solo[2]
    kind, message, residual = lanes[1]
    assert kind is ConvergenceError and message == sk_rs._failure(_LANE_BLOCK[1])
    assert residual == 0.5 if forced is _stall_at_once else residual >= sk_rs._FIXED_POINT_TOL
    for quantity, argv in sweeps.items():
        good, failed = rows[quantity], _csv_sweep(argv)
        assert good[0] == 0 and failed[0] == 3
        assert [row.endswith(",true") for row in failed[1]] == [True, False, True]
        assert failed[1][0::2] == good[1][0::2]
