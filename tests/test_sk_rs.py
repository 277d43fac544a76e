"""Replica-symmetric solver: cavity expectations, fixed point, caustic, pressure."""

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
from spinflow import sk_rs

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
        0.6057055096021591, rel=1e-12)
    assert gaussian_expectation("tanh_sq", 0.0, 1.0) == pytest.approx(
        0.3942944903978412, rel=1e-12)
    assert gaussian_expectation("tanh_sq", 0.2, 0.4) == pytest.approx(
        0.25361551554018147, rel=1e-12)


def test_gaussian_expectation_degenerate_variance_collapses():
    assert gaussian_expectation("tanh_sq", 0.7, 0.0) == pytest.approx(
        math.tanh(0.7) ** 2, rel=1e-14)
    assert gaussian_expectation("log_cosh", 0.3, 0.0) == pytest.approx(
        math.log(math.cosh(0.3)), rel=1e-14)


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
    assert value == pytest.approx(0.25361551554018147, rel=1e-12)


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


@pytest.mark.parametrize("x,t,beta_h,q", [(0.3, 1.2, 0.2, 0.34), (0.0, 2.0, 0.5, 0.4),
                                          (1.0, 0.7, 0.0, 0.6)])
def test_map_slope_matches_a_central_difference(x, t, beta_h, q):
    params = SkParams(x, t, beta_h)
    mapped, slope = sk_rs._map_and_slope(params, q)
    assert mapped == pytest.approx(gaussian_expectation("tanh_sq", beta_h, x + t * q), abs=1e-15)
    h = 1e-5
    difference = (gaussian_expectation("tanh_sq", beta_h, x + t * (q + h))
                  - gaussian_expectation("tanh_sq", beta_h, x + t * (q - h))) / (2.0 * h)
    assert slope == pytest.approx(difference, rel=1e-7)


@pytest.mark.parametrize("x,t,beta_h", [(0.3, 1.2, 0.2), (0.0, 0.6, 0.0), (0.0, 1.5, 0.0),
                                        (0.2, 1.3, 0.25)])
def test_caustic_margin_is_the_newton_slope_gap(x, t, beta_h):
    params = SkParams(x, t, beta_h)
    _, slope = sk_rs._map_and_slope(params, solve_qbar(params))
    assert 1.0 - slope == pytest.approx(3.0 * caustic_margin(params), abs=1e-14)


@pytest.mark.parametrize("t", [1.0001, 1.001, 1.01])
def test_near_critical_solve_takes_tens_of_node_passes(monkeypatch, t):
    calls = []
    helper = sk_rs._map_and_slope

    def counted(params, q):
        calls.append(q)
        return helper(params, q)

    monkeypatch.setattr(sk_rs, "_map_and_slope", counted)
    q = solve_qbar(SkParams(0.0, t, 0.0))
    assert q > 0.0
    assert abs(q - gaussian_expectation("tanh_sq", 0.0, t * q)) < 1e-12
    assert len(calls) <= 40


@pytest.mark.parametrize("eps", [1e-6, 1e-8])
def test_near_critical_root_follows_its_expansion(eps):
    # q = (t - 1)/2 + O((t - 1)^2) and margin = (t - 1)/3 + O((t - 1)^2): a residual
    # below 1e-12 alone is met as far out as q ~ 3e-7 at these t
    params = SkParams(0.0, 1.0 + eps, 0.0)
    assert solve_qbar(params) == pytest.approx(eps / 2.0, rel=1e-4)
    assert caustic_margin(params) == pytest.approx(eps / 3.0, rel=1e-4)


def test_qbar_grows_with_cavity_strength():
    values = [solve_qbar(SkParams(x, 1.5, 0.1)) for x in (0.0, 0.2, 0.5, 1.0)]
    assert all(b > a for a, b in zip(values, values[1:]))


def test_rs_action_frozen_point():
    sol = rs_action(SkParams(0.3, 1.2, 0.2))
    assert sol.q_bar == pytest.approx(0.3432288310188045, abs=1e-10)
    assert sol.y_star == pytest.approx(0.7118745972225654, abs=1e-10)
    assert sol.phi_rs == pytest.approx(1.337992909942583, rel=1e-10)
    assert sol.caustic_margin == pytest.approx(0.23947141090304236, abs=1e-10)
    assert sol.u == -sol.q_bar
    assert sol.pressure is None  # closed-form comparison only exists at x = 0


def test_rs_action_free_case_is_pure_entropy():
    sol = rs_action(SkParams(0.0, 0.25, 0.0))
    assert sol.q_bar == 0.0
    assert sol.phi_rs == pytest.approx(2.0 * LOG2, rel=1e-14)
    assert sol.y_star == 0.0


def test_rs_action_zero_coupling_limit():
    sol = rs_action(SkParams(0.0, 0.0, 0.3))
    expected_phi = 2.0 * (LOG2 + math.log(math.cosh(0.3)))
    assert sol.phi_rs == pytest.approx(expected_phi, rel=1e-12)
    assert sol.pressure == pytest.approx(0.5 * sol.phi_rs, rel=1e-14)


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
    assert caustic_margin(params) == pytest.approx(expected, rel=1e-12)


def test_caustic_root_sits_at_the_transition():
    assert caustic_root(0.0) == pytest.approx(1.0, abs=1e-9)


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


def test_pressure_frozen_value_and_high_temperature_form():
    assert rs_pressure(1.5, 0.1) == pytest.approx(1.246056068963174, rel=1e-9)
    # with no field and beta <= 1 the overlap vanishes and the pressure
    # collapses to log 2 + beta^2/4
    for beta in (0.4, 0.8, 1.0):
        assert rs_pressure(beta, 0.0) == pytest.approx(LOG2 + beta * beta / 4.0, abs=1e-12)


def test_glassy_characteristics_slope_and_vertical_line():
    line = rs_characteristic(1.0, 1.0, n_points=5)
    assert line.shape == (5, 2)
    slope = gaussian_expectation("tanh_sq", 0.0, 1.0)
    x_final, t_final = line[-1]
    assert t_final == 1.0
    assert x_final == pytest.approx(1.0 - slope, rel=1e-12)
    frozen = rs_characteristic(0.0, 2.0, n_points=9)
    assert np.all(frozen[:, 0] == 0.0)


def test_domain_validation():
    with pytest.raises(ValueError):
        SkParams(-0.1, 0.5)
    with pytest.raises(ValueError):
        SkParams(0.1, -0.5)
    with pytest.raises(ValueError):
        gaussian_expectation("tanh", 0.0, 1.0)
