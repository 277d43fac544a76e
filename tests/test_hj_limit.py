"""Variational limit solver: minimizer geometry, shock, critical line, characteristics."""

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from spinflow import (
    PlanePoint,
    QuadratureError,
    characteristic,
    critical_launch_point,
    critical_line,
    crossing_scan,
    exact_fields,
    lax_action,
    self_consistent_magnetization,
    shock_jump,
    spontaneous_magnetization,
    symmetry_breaking_limit,
    viscous_action,
    viscous_velocity,
)
from spinflow import hj_limit

LOG2 = math.log(2.0)


def variational_objective(y: float, x: float, t: float) -> float:
    return (x - y) ** 2 / (2.0 * t) - LOG2 - math.log(math.cosh(y))


def test_spontaneous_magnetization_fixed_point():
    m = spontaneous_magnetization(2.0)
    assert m == pytest.approx(0.9575040240772688, rel=1e-12, abs=0)
    assert math.tanh(2.0 * m) == pytest.approx(m, abs=1e-13)
    assert m > 0.0


# 50-digit roots of m = tanh(t m) at the double t (mpmath findroot at 70 digits)
_FROZEN_M_STAR = [
    (1.0 + 1e-15, 5.7711949142924145091943576119160189404942753476556e-8),
    (1.0 + 1e-14, 1.7313584742877105129612046380974397598792023234865e-7),
    (1.0 + 1e-13, 5.475036224982793227563406660185956213932074518067e-7),
    (1.0 + 1e-12, 1.7321277960189952666377920345779320863137557730467e-6),
    (1.0 + 1e-11, 5.4772258015961994739026111466444099927411545107456e-6),
    (1.0 + 1e-10, 1.7320508790682544230808196829950542589717683959196e-5),
    (1.0 + 1e-9, 5.4772257967159908858104577092765628416064500444097e-5),
    (1.0 + 1e-8, 1.7320507867171760649353125772674691601632577585813e-4),
    (1.0 + 1e-7, 5.477225083700394711773111678873694199428582447465e-4),
    (1.0 + 1e-6, 1.7320492486534756543202071730838173629562881677421e-3),
    # t m* = 0.13, where m - tanh(t m) cancels by about 3 / (t m*)^2 = 170
    (1.005810731652355, 1.3134457809251113358731507078313050786217527497231e-1),
]


@pytest.mark.parametrize("t, root", _FROZEN_M_STAR)
def test_spontaneous_magnetization_just_above_the_critical_point(t, root):
    # m - tanh(t m) cancels far below the spacing of m here; two ulp of the true root
    assert spontaneous_magnetization(t) == pytest.approx(root, rel=4e-16, abs=0.0)


def test_spontaneous_magnetization_needs_supercritical_coupling():
    for t in (0.2, 1.0):
        with pytest.raises(ValueError):
            spontaneous_magnetization(t)


def test_action_on_shock_frozen_value():
    sol = lax_action(PlanePoint(0.0, 2.0), branch="plus")
    assert sol.phi == pytest.approx(-1.0196710679868692, rel=1e-12, abs=0)
    assert sol.on_shock
    assert sol.u == pytest.approx(-0.9575040240772688, rel=1e-12, abs=0)
    minus = lax_action(PlanePoint(0.0, 2.0), branch="minus")
    assert minus.phi == sol.phi
    assert minus.u == -sol.u


def test_minimizer_beats_a_dense_grid():
    for x, t in ((0.4, 0.7), (-0.3, 2.5), (1.1, 1.0), (0.05, 3.0)):
        sol = lax_action(PlanePoint(x, t))
        ys = np.linspace(x - 6.0, x + 6.0, 20001)
        grid_min = min(variational_objective(y, x, t) for y in ys)
        assert variational_objective(sol.y_star, x, t) <= grid_min + 1e-12
        assert sol.phi == pytest.approx(variational_objective(sol.y_star, x, t), abs=1e-14)


@given(
    x=st.floats(-3.0, 3.0),
    t=st.floats(0.05, 4.0),
)
@settings(max_examples=80, deadline=None)
def test_first_order_conditions_off_shock(x, t):
    if x == 0.0 and t > 1.0:
        x = 0.25
    sol = lax_action(PlanePoint(x, t))
    assert sol.u == pytest.approx((x - sol.y_star) / t, abs=1e-11)
    assert sol.u == pytest.approx(-math.tanh(sol.y_star), abs=1e-11)
    assert abs(sol.u) < 1.0
    assert not sol.on_shock
    assert sol.branch == "unique"


def test_velocity_agrees_with_self_consistency_route():
    for x, t in ((0.4, 0.7), (-0.6, 2.2), (0.15, 1.4), (-1.2, 0.3)):
        sol = lax_action(PlanePoint(x, t))
        root = self_consistent_magnetization(PlanePoint(x, t))
        assert sol.u == pytest.approx(root, abs=1e-12)
        # the fixed-point equation itself
        assert root + math.tanh(x - root * t) == pytest.approx(0.0, abs=1e-12)


def test_entropy_solution_slope_closed_form():
    # implicit differentiation of u = -tanh(x - u t) gives
    # d_x u = -(1 - u^2) / (1 - t (1 - u^2)); the denominator vanishes
    # exactly on the caustic, which is what makes the critical line exist
    step = 1e-6
    for x, t in ((0.5, 0.8), (-0.4, 2.0), (0.9, 1.5)):
        u_plus = lax_action(PlanePoint(x + step, t)).u
        u_minus = lax_action(PlanePoint(x - step, t)).u
        slope = (u_plus - u_minus) / (2.0 * step)
        u = lax_action(PlanePoint(x, t)).u
        expected = -(1.0 - u * u) / (1.0 - t * (1.0 - u * u))
        assert slope == pytest.approx(expected, abs=1e-6)
        assert slope < 0.0


def test_minimizer_position_is_monotone_in_x():
    for t in (0.6, 2.0):
        xs = [x for x in np.linspace(-2.0, 2.0, 41) if not (x == 0.0 and t > 1.0)]
        y_values = [lax_action(PlanePoint(x, t)).y_star for x in xs]
        assert all(b >= a for a, b in zip(y_values, y_values[1:]))


def test_characteristics_transport_the_boundary_slope():
    x0 = 0.5
    # the straight line stays valid until it hits the shock at s = x0/tanh(x0)
    s_exit = x0 / math.tanh(x0)
    line = characteristic(x0, 0.9 * s_exit, n_points=7)
    assert line.shape == (7, 2)
    for x, s in line:
        if s == 0.0:
            assert x == x0
            continue
        sol = lax_action(PlanePoint(x, s))
        assert sol.y_star == pytest.approx(x0, abs=1e-10)
        assert sol.u == pytest.approx(-math.tanh(x0), abs=1e-11)


def test_mirror_characteristics_collide_on_the_median():
    a = 1.0
    s_meet = a / math.tanh(a)
    for launch in (a, -a):
        line = characteristic(launch, s_meet, n_points=11)
        x_final, s_final = line[-1]
        assert s_final == pytest.approx(s_meet, rel=1e-15, abs=0)
        assert x_final == pytest.approx(0.0, abs=1e-14)


def test_critical_line_closed_form_and_envelope():
    for t in (1.3, 2.0, 3.5):
        s = math.sqrt((t - 1.0) / t)
        closed = math.atanh(s) - t * s
        assert critical_line(t) == pytest.approx(closed, rel=1e-13, abs=0)
        # envelope property: x_c is the minimum of x0 - t tanh(x0) over x0 >= 0
        grid = np.linspace(0.0, 6.0, 300001)
        grid_min = np.min(grid - t * np.tanh(grid))
        assert critical_line(t) == pytest.approx(grid_min, abs=1e-9)
        # the marginal launch point is the argmin: t (1 - tanh^2) = 1 there
        x0c = critical_launch_point(t)
        assert t * (1.0 - math.tanh(x0c) ** 2) == pytest.approx(1.0, abs=1e-12)


def test_critical_line_needs_supercritical_coupling():
    for t in (0.5, 1.0):
        with pytest.raises(ValueError):
            critical_line(t)


def test_crossing_census_stays_above_the_critical_line():
    scan = crossing_scan(np.linspace(0.0, 3.0, 40), 4.0)
    assert scan.n_crossings > 0
    assert scan.n_below_critical_line == 0
    assert scan.n_above_critical_line == scan.n_crossings
    assert scan.n_supercritical_pairs == 0
    # events carry (x0_a, x0_b, t_cross, x_cross) with t in range
    assert scan.events.shape == (scan.n_crossings, 4)
    assert np.all(scan.events[:, 2] > 0.0)
    assert np.all(scan.events[:, 2] <= 4.0)


def test_crossing_scan_rejects_negative_launch_points():
    with pytest.raises(ValueError):
        crossing_scan([-0.5, 0.5], 3.0)


def loop_census(x0_points, t_max: float):
    # crossing_scan as a double loop over launch points: each pair's crossing time, and per
    # kept event its classification, in row-major pair order
    x0s = np.sort(np.asarray(x0_points, dtype=np.float64))
    slopes = np.tanh(x0s)
    events = []
    below = above = supercritical = 0
    for i in range(x0s.size):
        dv = slopes[i + 1:] - slopes[i]
        dx = x0s[i + 1:] - x0s[i]
        valid = dv > 0
        s_cross = np.full(dv.shape, np.inf)
        s_cross[valid] = dx[valid] / dv[valid]
        for off in np.nonzero((s_cross > 0) & (s_cross <= t_max))[0]:
            s = float(s_cross[off])
            x_cross = float(x0s[i] - s * slopes[i])
            events.append((float(x0s[i]), float(x0s[i + off + 1]), s, x_cross))
            if s > 1.0:
                if x_cross < critical_line(s):
                    below += 1
                else:
                    above += 1
                if x0s[i] >= critical_launch_point(s):
                    supercritical += 1
            else:
                below += 1
    return np.array(events, dtype=np.float64).reshape(-1, 4), below, above, supercritical


@pytest.mark.parametrize("x0_points, t_max", [
    (np.linspace(0.0, 3.0, 40), 4.0),
    (np.linspace(0.0, 3.0, 120), 4.0),
    (np.linspace(0.0, 3.0, 200), 4.0),
    # unsorted, with duplicate launch points, which never cross
    ([2.0, 0.5, 1.5, 0.5, 3.0, 1.5, 0.0, 2.5], 4.0),
    # t_max cuts inside the events
    (np.linspace(0.0, 3.0, 40), 1.6),
    (np.random.default_rng(7).uniform(0.0, 5.0, 300), 10.0),
    # distinct points cross at s = 0.1 / tanh(0.1) > 1
    ([0.0, 0.1], 1.0),
])
def test_crossing_scan_matches_the_pairwise_loop_bit_for_bit(x0_points, t_max):
    scan = crossing_scan(x0_points, t_max)
    events, below, above, supercritical = loop_census(x0_points, t_max)
    assert scan.events.dtype == np.float64 and scan.events.shape == events.shape
    assert np.array_equal(scan.events, events)
    assert scan.n_crossings == len(events)
    assert (scan.n_below_critical_line, scan.n_above_critical_line,
            scan.n_supercritical_pairs) == (below, above, supercritical)


def test_the_census_oracle_inputs_reach_what_they_name():
    # the cut drops events and keeps some; the two-point set keeps none
    cut, full = crossing_scan(np.linspace(0.0, 3.0, 40), 1.6), crossing_scan(
        np.linspace(0.0, 3.0, 40), 4.0)
    assert 0 < cut.n_crossings < full.n_crossings
    assert crossing_scan([0.0, 0.1], 1.0).events.shape == (0, 4)
    duplicates = crossing_scan([2.0, 0.5, 1.5, 0.5, 3.0, 1.5, 0.0, 2.5], 4.0)
    assert 0 < duplicates.n_crossings < 28


def test_shock_jump_is_odd_and_matches_magnetization():
    for t in (1.5, 2.0, 3.0):
        u_minus, u_plus = shock_jump(t)
        m = spontaneous_magnetization(t)
        assert u_minus == m
        assert u_plus == -m
        assert u_minus + u_plus == 0.0
    with pytest.raises(ValueError):
        shock_jump(0.8)


def test_tilted_line_limits_recover_the_shock_values():
    for t in (1.5, 2.0):
        m = spontaneous_magnetization(t)
        assert symmetry_breaking_limit(t, "plus") == pytest.approx(-m, abs=1e-7)
        assert symmetry_breaking_limit(t, "minus") == pytest.approx(m, abs=1e-7)


def test_tilted_line_limit_refuses_a_drifting_ladder(monkeypatch):
    # the reads at eps = 1e-10 and 1e-11 (x = 1e-10 and 1e-11 at t = 2) differ by 1e-6
    monkeypatch.setattr(hj_limit, "self_consistent_magnetization",
                        lambda p: 1e-6 if p.x > 5e-11 else 0.0)
    message = r"^velocity failed to stabilize along the eps ladder at t=2\.0$"
    with pytest.raises(hj_limit.ConvergenceError, match=message) as err:
        symmetry_breaking_limit(2.0, "plus")
    assert err.value.residual == 1e-6


def test_on_shock_branch_handling():
    with pytest.raises(ValueError):
        lax_action(PlanePoint(0.0, 2.0))
    off = lax_action(PlanePoint(0.4, 2.0), branch="minus")
    assert not off.on_shock
    assert off.branch == "unique"


@pytest.mark.parametrize("t", [0.3, 1.0])
def test_origin_below_the_critical_point_is_the_free_state(t):
    sol = lax_action(PlanePoint(0.0, t))
    assert (sol.y_star, sol.u, sol.phi) == (0.0, 0.0, -LOG2)
    assert not sol.on_shock and sol.branch == "unique"
    assert self_consistent_magnetization(PlanePoint(0.0, t)) == 0.0


def test_self_consistent_velocity_is_two_valued_on_the_shock():
    with pytest.raises(ValueError, match="shock line"):
        self_consistent_magnetization(PlanePoint(0.0, 2.0))


def test_finite_size_velocity_converges_to_the_limit():
    p = PlanePoint(0.2, 2.0)
    target = lax_action(p).u
    err_40 = abs(exact_fields(p, 40).u - target)
    err_160 = abs(exact_fields(p, 160).u - target)
    # at worst square-root decay: quadrupling the size leaves at most 0.6x
    assert err_160 <= 0.6 * err_40


def test_kernel_window_overflow_names_the_stage_and_the_point():
    # the stationary points' objective is finite here; the window's growing ends overflow it
    with pytest.raises(OverflowError, match=r"kernel window .* at x=0\.3, t=1e\+154, n=10"):
        viscous_action(PlanePoint(0.3, 1e154), 10)


@pytest.mark.parametrize("x, t", [(30.0, 0.5), (-30.0, 0.5), (20.0, 0.5), (0.5, 30.0),
                                  (-0.5, 30.0)])
def test_saturated_velocity_is_found_at_the_end_of_the_interval(x, t):
    # tanh(x + t) rounds to 1, so u = -1 solves u = -tanh(x - u t) exactly;
    # at t = 30 an unstable middle root sits between the two saturated ones
    u = self_consistent_magnetization(PlanePoint(x, t))
    assert u == -math.copysign(1.0, x)
    assert u == lax_action(PlanePoint(x, t)).u


# (x, t, u) with u = -tanh(y*) to 40 digits (an mpmath Newton on y = x + t tanh y);
# here y* is x up to a shift that (x - y*) / t would read with few or no digits
@pytest.mark.parametrize("x, t, u", [
    (1.0, 1e-10, -7.615941559877498885414075846359138414617e-1),
    (3.0, 1e-12, -9.950547536867402685790616968495775499556e-1),
    (1e300, 3.0, -1.0),
    (1e155, 1e154, -1.0),
])
def test_velocity_is_read_from_the_launch_point(x, t, u):
    sol = lax_action(PlanePoint(x, t))
    assert sol.u == pytest.approx(u, rel=2.0 ** -52, abs=0)
    assert lax_action(PlanePoint(-x, t)).u == -sol.u


# (x, t, y*, u) to 40 digits (an mpmath Newton on y = x + t tanh y): a minimizer far
# below 1, where an absolute stop kept few of its digits, and rows of the t = 1/12 grid
@pytest.mark.parametrize("x, t, y_star, u", [
    (1.11e-16, 0.75, 4.440000000000000163573967251541601289546e-16,
     -4.440000000000000163573967251541309528266e-16),
    (0.3, 0.0834, 3.262859810013773721813994361206223846085e-1,
     -3.151796283138774901890627379805610854331e-1),
    (-0.3, 0.0833, -3.26251906572716493853112950788516249013e-1,
     3.151489384479772539765284468192720745098e-1),
    (0.29, 1 / 12, 3.154488292790198948894752924763221371547e-1,
     -3.05385951348238995434202557943318348587e-1),
])
def test_minimizer_keeps_its_relative_precision_below_one(x, t, y_star, u):
    sol = lax_action(PlanePoint(x, t))
    assert sol.y_star == pytest.approx(y_star, rel=2.0 ** -52, abs=0)
    assert sol.u == pytest.approx(u, rel=2.0 ** -52, abs=0)
    assert lax_action(PlanePoint(-x, t)).y_star == -sol.y_star


@pytest.mark.parametrize("x", [1.1e-16, -1.1e-16, 5e-324, -5e-324])
@pytest.mark.parametrize("t", [1.05, 1.3, 1.5, 1.75, 2.0])
def test_minimizer_sits_on_the_side_of_x_next_to_the_shock(x, t):
    # the two outer objective values differ by 2|x| y*/t, below their rounding
    sol = lax_action(PlanePoint(x, t))
    assert sol.on_shock is False
    assert sol.u == pytest.approx(-math.copysign(spontaneous_magnetization(t), x), abs=1e-12)
    assert math.copysign(1.0, sol.y_star) == math.copysign(1.0, x)


# (x, t, y*, u) to 40 digits (an mpmath root of y = x + t tanh y at 60 digits) where both
# 1 - t and y* are small, so that y - x - t tanh y cancels: the limit grid's t = 1 row at
# x = 2^-53, the points of the critical cubic y^3 / 3 = x, and both sides of t = 1; the
# last three, to 60 digits (mpmath at 120), have 0.1 < |y*| < 0.25, where the direct form
# cancels by about 3 / y*^2 and the root needs the gap form
@pytest.mark.parametrize("x, t, y_star, u", [
    (1.1102230246251565e-16, 1.0, 6.931764956832051052375706316167819376646e-6,
     -6.931764956721028749913190662125456209837e-6),
    (1e-30, 1.0, 1.442249570307408422389610581529555261749e-10,
     -1.442249570307408422379610581529555260916e-10),
    (1e-10, 1.0, 6.694329900821718347348161507203260789766e-4,
     -6.694328900821718347348125075005945292025e-4),
    (-2.76e-13, 1 - 1.1e-12, -9.389070445667512293701617016429761293174e-5,
     9.389070418077840355407742075428720545152e-5),
    (3e-8, 1 + 1e-12, 4.481416969753200520046460430305250665287e-3,
     -4.481386969748718734681481451113386419651e-3),
    (-1e-20, 1 + 1e-15, -3.142961234032095641739456791971298193593e-7,
     3.142961234031992152351529265363970985435e-7),
    (-2.6e-17, 1.00205, -7.84380143218369695410198630063084630650690213574844606548559e-2,
     7.8277545353861519028460793507587009809760201871841559318481e-2),
    (8.3e-06, 1.00588, 1.33598984119167335946172104038280522464120528875996909530153e-1,
     -1.3280976271440661081556723024440262529102330959481288061929e-1),
    (-0.00034, 1.0, -1.007984482697844007535578729013855684256540811481256054757e-1,
     1.004584482697844007291329663596321245363341844501275586007e-1),
])
def test_minimizer_keeps_its_relative_precision_next_to_the_critical_point(x, t, y_star, u):
    sol = lax_action(PlanePoint(x, t))
    assert sol.y_star == pytest.approx(y_star, rel=2.0 ** -52, abs=0)
    assert sol.u == pytest.approx(u, rel=2.0 ** -52, abs=0)
    assert lax_action(PlanePoint(-x, t)).y_star == -sol.y_star


def all_roots_velocity(x: float, t: float) -> float:
    # self_consistent_magnetization as it was before it solved one branch: every piece's
    # root and every exact zero at a cut, then the branch continuous with sign(-x); with
    # its residual, start and stop, so that only the selection of the root differs
    bound = hj_limit._root_bound(x, t)
    start = None if bound is None else (-bound if x > 0 else bound)
    tol = hj_limit._ROOT_TOL if bound is None else hj_limit._ROOT_TOL * max(bound, 1e-300)

    def f(u, sign=1.0):
        z = x - u * t
        th = math.tanh(z)
        if abs(z) < 1.0:
            return (sign * ((1.0 - t) * u + x - hj_limit._tanh_gap(z)),
                    sign * ((1.0 - t) + t * th * th))
        return sign * (u + th), sign * (1.0 - t * (1.0 - th * th))

    if t == 0.0:
        return -math.tanh(x)
    if x == 0.0 and t > 1.0:
        raise ValueError("point lies on the shock line (x = 0, t > 1), where the velocity"
                         " is two-valued")
    cuts = [-1.0, 1.0]
    if t > 1.0:
        a = math.acosh(math.sqrt(t))
        cuts += [c for c in ((x - a) / t, (x + a) / t) if -1.0 < c < 1.0]
    cuts = sorted(cuts)
    roots = []
    for a, b in zip(cuts[:-1], cuts[1:]):
        fa, fb = f(a)[0], f(b)[0]
        if fa * fb < 0.0:
            sign = 1.0 if fa < 0.0 else -1.0
            u0 = start if start is not None and a < start < b else 0.5 * (a + b)
            roots.append(hj_limit.bracketed_newton(lambda u: f(u, sign), a, b, u0, tol))
    roots += [c for c in cuts if f(c)[0] == 0.0]
    if not roots:
        raise hj_limit.ConvergenceError(f"no self-consistent velocity found at x={x}, t={t}")
    roots = sorted(roots)
    return roots[0] if x > 0 else roots[-1]


# (x, t, u) to 60 digits (mpmath at 700 digits: the outer root y* of y = x + t tanh y on
# the side of x, then u = -tanh(y*)) where u + tanh(x - u t) cancels next to (0, 1): the
# limit grid's t = 1 row at x = 2^-53, the critical cubic's points and both sides of t = 1;
# the last three, in 0.05 < |u| < 0.25, are the minimizer's band rows above
@pytest.mark.parametrize("x, t, u", [
    (1e-30, 1.0, -1.44224957030740842237961058152955526091606954467093950668878e-10),
    (1.1e-16, 1.0, -6.91042322994518427559027075862667640448905373294003606073465e-6),
    (2.0 ** -53, 1.0, -6.9317649567210287499131906621254562098366788213300491933809e-6),
    (-2.76e-13, 1 - 1.1e-12, 9.38907041807784035540774207542872054515153562160016206374601e-5),
    (1e-20, 1 + 1e-7, -5.47722508420039462141272277425923932311751680004921784243414e-4),
    (-2.6e-17, 1.00205, 7.8277545353861519028460793507587009809760201871841559318481e-2),
    (8.3e-06, 1.00588, -1.3280976271440661081556723024440262529102330959481288061929e-1),
    (-0.00034, 1.0, 1.004584482697844007291329663596321245363341844501275586007e-1),
])
def test_self_consistent_velocity_keeps_its_relative_precision_next_to_the_critical_point(
        x, t, u):
    root = self_consistent_magnetization(PlanePoint(x, t))
    # above |u| = 0.05 the gap's own rounding, up to two ulp, moves the root by up to
    # about one unit of 2^-52: two units there
    assert root == pytest.approx(u, rel=2.0 ** -51 if abs(u) > 0.05 else 2.0 ** -52, abs=0)
    assert self_consistent_magnetization(PlanePoint(-x, t)) == -root


# (x, u) at t = 1 to 60 digits (mpmath at 700 digits, as above).  Below |x| ~ 1e-308 the
# gap y^3 / 3 of a root y ~ (3x)^(1/3) is subnormal, so the residual is formed at the
# subnormal spacing and both routes read the same wrong root (the subnormal-x FOUND line
# of CHANGES.md): 19 units of 2^-52 at 1e-310, 7.5e-6 at 1e-320 and 5.0 % at 5e-324
_SUBNORMAL_X = "the residual is formed at the subnormal spacing (subnormal-x FOUND, CHANGES.md)"


@pytest.mark.parametrize("x, u", [
    (1e-300, -1.44224957030740839436879312132134928790811710300084862483732e-100),
    pytest.param(1e-310, -6.69432950082168840161765433659280924236440960237327840043184e-104,
                 marks=pytest.mark.xfail(strict=True, reason=_SUBNORMAL_X)),
    pytest.param(1e-320, -3.10722097516045195164144718558537640595245994418560519877062e-107,
                 marks=pytest.mark.xfail(strict=True, reason=_SUBNORMAL_X)),
    pytest.param(5e-324, -2.45641629985518268747714916034561411217621706676196089115189e-108,
                 marks=pytest.mark.xfail(strict=True, reason=_SUBNORMAL_X)),
])
def test_both_velocity_routes_at_a_tiny_x_on_the_critical_coupling(x, u):
    p = PlanePoint(x, 1.0)
    assert lax_action(p).u == pytest.approx(u, rel=2.0 ** -52, abs=0)
    assert self_consistent_magnetization(p) == pytest.approx(u, rel=2.0 ** -52, abs=0)


def cross_route_points(count: int = 2000, seed: int = 26) -> list:
    # log-uniform |x| in [1e-300, 3] of either sign; every other point a log-uniform
    # |t - 1| in [1e-15, 0.5] on either side of 1, the rest a uniform t in [0, 5]
    rng = random.Random(seed)
    points = []
    for i in range(count):
        x = rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-300.0, math.log10(3.0))
        if i % 2:
            t = 1.0 + rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-15.0, math.log10(0.5))
        else:
            t = rng.uniform(0.0, 5.0)
        points.append((x, t))
    return points


def test_both_velocity_routes_agree_to_relative_precision_on_a_census():
    # separate solves of separate equations, both cancellation-free: a few units of 2^-52
    # apart, at most that of an absolute Newton stop of 2.5e-16 at |u| ~ 0.2
    for x, t in cross_route_points():
        p = PlanePoint(x, t)
        u = lax_action(p).u
        assert abs(u - self_consistent_magnetization(p)) <= 16 * 2.0 ** -52 * abs(u), (x, t)


# (z, z - tanh z) to 50 digits (mpmath at 1000 digits); at z = 1e-300 the gap, 3.3e-901,
# rounds to 0.0
@pytest.mark.parametrize("z, gap", [
    (1e-300, 3.3333333333333335839242516854209364698756374646337e-901),
    (1e-8, 3.3333333333333334092256083012847225792533678702225e-25),
    (0.05, 4.1625042120027808540980234635768083689270931711281e-5),
    (0.1, 3.3200537504418293683807942715786886277958643118977e-4),
    (0.2, 2.6246797750959996943524540063020639565856940469473e-3),
    (0.5, 3.7882842739990241497681516356327451269710719669887e-2),
    (0.9, 1.8370212980097559058127940071280701472275003814012e-1),
    (0.999, 2.3782613833943005038957371647241975430735352012487e-1),
])
def test_tanh_gap_is_odd_and_within_two_ulp_of_its_references(z, gap):
    for sign in (1.0, -1.0):
        assert abs(hj_limit._tanh_gap(sign * z) - sign * gap) <= 2.0 * math.ulp(gap), sign
        assert hj_limit._tanh_gap(-sign * z) == -hj_limit._tanh_gap(sign * z)


@pytest.mark.parametrize("x", [0.0, 1e-300, 5e-324, -1e-300, -5e-324])
def test_three_stationary_points_one_ulp_above_the_critical_coupling(x):
    # at t = 1 + 2^-52 the pieces' boundary acosh(sqrt(t)) rounds to 0, which dropped the
    # outer roots; they are +-sqrt(3 (t - 1)) to leading order, 50 digits
    # 2.5809568279517849266e-8 (mpmath findroot of y = t tanh y)
    roots = hj_limit._stationary_points(x, 1.0 + 2.0**-52)
    assert len(roots) == 3
    assert roots[0].hex() == "-0x1.bb67ae8584cabp-26"
    assert roots[-1].hex() == "0x1.bb67ae8584cabp-26"


def all_roots_minimizer(x: float, t: float) -> float:
    # the outer root on the side of x, selected from every stationary point
    roots = hj_limit._stationary_points(x, t)
    return roots[-1] if x > 0.0 else roots[0]


def outcome(route, *args):
    # the bits of a value, or the type and message of what was raised
    try:
        return float(route(*args)).hex()
    except (ValueError, ArithmeticError, RuntimeError) as err:
        return type(err).__name__, str(err)


def branch_points():
    # the cw limit sweep's 41 x 25 grid, both spinodal points x = +-x_c(t) at a few t, and
    # extremes of x and t, off the shock half-line
    grid = [(float(x), float(t)) for t in np.linspace(0.0, 2.0, 25)
            for x in np.linspace(-1.0, 1.0, 41)]
    spinodal = [(s * critical_line(t), t) for t in (1.0 + 1e-9, 1.05, 1.5, 2.0, 3.0)
                for s in (1.0, -1.0)]
    extremes = [(s * x, t) for x in (1e300, 5e-324, 1e-16) for s in (1.0, -1.0)
                for t in (1e-300, 1.0, 1.0 + 1e-15, 2.0, 1e300)]
    return [(x, t) for x, t in grid + spinodal + extremes if not (x == 0.0 and t > 1.0)]


def test_one_branch_solves_return_the_all_roots_selection():
    # lax_action's minimizer and the self-consistent velocity, or what each raises, bit for bit
    for x, t in branch_points():
        assert outcome(hj_limit._minimizer, x, t) == outcome(all_roots_minimizer, x, t), (x, t)
        assert (outcome(self_consistent_magnetization, PlanePoint(x, t))
                == outcome(all_roots_velocity, x, t)), (x, t)


def test_one_newton_root_per_point_above_the_critical_point(monkeypatch):
    calls = []
    counted = hj_limit.bracketed_newton

    def counting(*args):
        calls.append(args[1:3])
        return counted(*args)

    monkeypatch.setattr(hj_limit, "bracketed_newton", counting)
    # at |x| = 1e300 the root is the bracket's end, where the residual rounds to zero
    points = [(x, t) for x, t in branch_points() if 1.0 < t < 1e300 and 1e-16 <= abs(x) < 1e300]
    for x, t in points:
        calls.clear()
        lax_action(PlanePoint(x, t))
        assert len(calls) == 1, (x, t)
    # the all-roots selection solves the middle and far pieces too, where they hold a root:
    # 722 roots for these 494 points
    calls.clear()
    for x, t in points:
        all_roots_minimizer(x, t)
    assert len(calls) > len(points)


def quad_kernel(x: float, t: float, n: int) -> tuple[float, float]:
    """(action, velocity) of the heat kernel by scipy's adaptive quadrature.

    On a fine grid, the exponent is shifted by its minimum, the interval is
    where the shifted weight exceeds e^-60, and the local minima are break
    points, so nothing is shared with the library route.
    """
    half = t + 8.0 + 10.0 * math.sqrt(t)
    ys = np.linspace(x - half, x + half, 400001)
    g = (x - ys) ** 2 / (2.0 * t) - np.logaddexp(ys, -ys)
    minima = ys[1:-1][(g[1:-1] < g[:-2]) & (g[1:-1] <= g[2:])]
    shift = float(g.min())
    inside = ys[n * (g - shift) < 60.0]
    lo, hi = inside[0] - (ys[1] - ys[0]), inside[-1] + (ys[1] - ys[0])

    def weight(y):
        return math.exp(-n * ((x - y) ** 2 / (2.0 * t) - np.logaddexp(y, -y) - shift))

    points = minima[(lo < minima) & (minima < hi)]
    i0, _ = quad(weight, lo, hi, points=points, limit=500, epsabs=1e-15, epsrel=1e-13)
    # the numerator cancels next to the shock, so its error is absolute, relative to i0
    i1, _ = quad(lambda y: (x - y) / t * weight(y), lo, hi, points=points, limit=500,
                 epsabs=1e-13 * i0, epsrel=1e-13)
    phi = shift - (0.5 * math.log(n / (2.0 * math.pi * t)) + math.log(i0)) / n
    return phi, i1 / i0


@pytest.mark.parametrize("x, t", [(0.3, 0.5), (-1.2, 0.9), (0.0, 1.0), (0.3, 2.0), (-0.2, 1.5),
                                  (1e-12, 1.5), (-1e-12, 3.0)])
@pytest.mark.parametrize("n", [1, 7, 50, 1000, 50000])
def test_viscous_routes_agree_with_scipy_quadrature(x, t, n):
    # t < 1, the critical point, three stationary points and x within 1e-12 of the shock
    phi, u = quad_kernel(x, t, n)
    assert viscous_action(PlanePoint(x, t), n) == pytest.approx(phi, rel=1e-13, abs=0.0)
    assert viscous_velocity(PlanePoint(x, t), n) == pytest.approx(u, abs=1e-12)


@pytest.mark.parametrize("route", [viscous_action, viscous_velocity])
def test_quadrature_error_carries_the_doubling_gap_when_the_cap_runs_out(monkeypatch, route):
    # next to the shock at n = 5e4 two narrow peaks sit at the ends of long panels
    p = PlanePoint(1e-12, 2.0)
    route(p, 50000)
    monkeypatch.setattr(hj_limit, "_MAX_DOUBLINGS", 2)
    with pytest.raises(QuadratureError, match="uncertain") as info:
        route(p, 50000)
    assert math.isfinite(info.value.error_estimate)
    assert info.value.error_estimate > 1e-10


# float.hex of each route at a point, each route alone with a fresh memo, and the panels
# per segment at which that route's doubling stops; the velocity is exactly 0 at x = 0
FROZEN_KERNEL_ROUTES = {
    (0.05, 1.0, 10000): (2, "-0x1.6cc0537e3551bp-1", 2, "-0x1.00c1a0ceb6388p-1"),
    (0.1, 0.5, 100): (2, "-0x1.699da474af2ebp-1", 4, "-0x1.885fc1a9ce9bap-3"),
    (0.3, 0.5, 7): (4, "-0x1.9df134e3a7cbep-1", 4, "-0x1.c4ea460037d09p-2"),
    (0.2, 1.2, 100): (4, "-0x1.beba4bc018764p-1", 8, "-0x1.a6cf6e1dabcfbp-1"),
    (1e-12, 1.5, 1000): (8, "-0x1.9e5ac75aa2565p-1", 8, "-0x1.94a2418f24aefp-31"),
    (-1e-12, 3.0, 1000): (16, "-0x1.80d32b6424280p+0", 16, "0x1.101728282e624p-30"),
    (-1.2, 0.9, 50000): (32, "-0x1.aa51177fac163p+0", 32, "0x1.f00277c4811b0p-1"),
    (-1e-12, 3.0, 50000): (128, "-0x1.80a5a74bdccddp+0", 128, "0x1.a92a6d109bf7ep-25"),
    (0.0, 1.0, 50): (4, "-0x1.704820448568fp-1", None, "0x0.0p+0"),
}


@pytest.fixture
def node_passes(monkeypatch):
    # a fresh kernel memo, and the (first, stop) level range of every _panel_sums call
    hj_limit._kernel_levels.cache_clear()
    calls = []
    helper = hj_limit._panel_sums

    def counted(*args):
        calls.append(args[-2:])
        return helper(*args)

    monkeypatch.setattr(hj_limit, "_panel_sums", counted)
    yield calls
    hj_limit._kernel_levels.cache_clear()


def frozen_routes(point):
    _, action, _, velocity = FROZEN_KERNEL_ROUTES[point]
    return float.fromhex(action), float.fromhex(velocity)


def passes_to(panels):
    # the first pass forms 1, 2 and 4 panels; each doubling past 4 is a pass of its own
    return [(0, 3)] + [(level, level + 1) for level in range(3, int(math.log2(panels)) + 1)]


@pytest.mark.parametrize("point", list(FROZEN_KERNEL_ROUTES))
def test_kernel_routes_keep_their_frozen_bits_and_stop_levels(node_passes, point):
    x, t, n = point
    action_panels, _, velocity_panels, _ = FROZEN_KERNEL_ROUTES[point]
    action, velocity = frozen_routes(point)
    assert viscous_action(PlanePoint(x, t), n) == action
    assert node_passes == passes_to(action_panels)
    hj_limit._kernel_levels.cache_clear()
    node_passes.clear()
    assert viscous_velocity(PlanePoint(x, t), n) == velocity
    assert node_passes == ([] if velocity_panels is None else passes_to(velocity_panels))


@pytest.mark.parametrize("point", list(FROZEN_KERNEL_ROUTES))
def test_either_route_first_gives_the_solo_bits(node_passes, point):
    x, t, n = point
    action_panels, _, velocity_panels, _ = FROZEN_KERNEL_ROUTES[point]
    p = PlanePoint(x, t)
    assert (viscous_action(p, n), viscous_velocity(p, n)) == frozen_routes(point)
    # the velocity stops at or after the action, so its levels extend the action's
    assert node_passes == passes_to(max(action_panels, velocity_panels or 0))
    hj_limit._kernel_levels.cache_clear()
    node_passes.clear()
    assert viscous_velocity(p, n) == frozen_routes(point)[1]
    assert viscous_action(p, n) == frozen_routes(point)[0]
    assert node_passes == passes_to(max(action_panels, velocity_panels or 0))


def test_action_then_velocity_at_a_four_panel_point_is_one_node_pass(node_passes):
    p = PlanePoint(0.3, 0.5)
    viscous_action(p, 7)
    viscous_velocity(p, 7)
    assert node_passes == [(0, 3)]


def test_a_point_revisited_after_another_gets_its_own_bits(node_passes):
    a, b = (0.2, 1.2, 100), (-1e-12, 3.0, 1000)
    values = []
    for x, t, n in (a, b, a):
        values += [viscous_velocity(PlanePoint(x, t), n), viscous_action(PlanePoint(x, t), n)]
    expected = [frozen_routes(p)[i] for p in (a, b, a) for i in (1, 0)]
    assert values == expected
    # the memo holds one point, so the return to a forms its levels again
    assert node_passes == passes_to(8) + passes_to(16) + passes_to(8)


def test_signed_zero_and_neighbouring_sizes_never_share_levels(node_passes):
    action = frozen_routes((0.0, 1.0, 50))[0]
    for x, t, n in ((0.0, 1.0, 50), (-0.0, 1.0, 50), (-0.0, 1.0, 51), (-0.0, 1.0, 50)):
        value = viscous_action(PlanePoint(x, t), n)
        if n == 50:
            assert value == action
    assert node_passes == [(0, 3)] * 4


def test_a_failed_node_pass_leaves_no_levels_behind(node_passes, monkeypatch):
    # at (0.2, 1.2) with n = 100 the action stops at 4 panels and the velocity needs 8
    p, n = PlanePoint(0.2, 1.2), 100
    counted = hj_limit._panel_sums

    def failing(*args):
        counted(*args)
        raise FloatingPointError("node pass failed")

    monkeypatch.setattr(hj_limit, "_panel_sums", failing)
    with pytest.raises(FloatingPointError):
        viscous_action(p, n)
    monkeypatch.setattr(hj_limit, "_panel_sums", counted)
    assert viscous_action(p, n) == frozen_routes((0.2, 1.2, 100))[0]
    monkeypatch.setattr(hj_limit, "_panel_sums", failing)
    with pytest.raises(FloatingPointError):
        viscous_velocity(p, n)
    monkeypatch.setattr(hj_limit, "_panel_sums", counted)
    assert viscous_velocity(p, n) == frozen_routes((0.2, 1.2, 100))[1]
    assert node_passes == [(0, 3), (0, 3), (3, 4), (3, 4)]


def test_a_window_that_never_reaches_the_cut_is_a_quadrature_error(node_passes, monkeypatch):
    # no window end can lie e^-inf below the minimum, so the growth runs out
    monkeypatch.setattr(hj_limit, "_WINDOW_CUT", math.inf)
    with pytest.raises(QuadratureError, match="could not bracket the kernel integrand at x=0.3"):
        viscous_action(PlanePoint(0.3, 0.5), 7)
    assert node_passes == []


def test_a_velocity_whose_levels_never_agree_is_a_quadrature_error(node_passes, monkeypatch):
    # the numerator sums of successive levels are pushed apart by 1e-6 of the
    # normalization, whose own levels agree as before
    counted = hj_limit._panel_sums

    def alternating(*args):
        first = args[-2]
        return [(i0, i1 + (-1.0) ** (first + k) * 1e-6 * i0, i2)
                for k, (i0, i1, i2) in enumerate(counted(*args))]

    monkeypatch.setattr(hj_limit, "_panel_sums", alternating)
    monkeypatch.setattr(hj_limit, "_MAX_DOUBLINGS", 4)
    p = PlanePoint(0.3, 0.5)
    assert viscous_action(p, 7) == frozen_routes((0.3, 0.5, 7))[0]
    with pytest.raises(QuadratureError, match="velocity quadrature uncertain") as info:
        viscous_velocity(p, 7)
    assert info.value.error_estimate > 1e-7
    assert node_passes == passes_to(16)


_LIMIT_REFUSALS = {
    "lax_action branch": (lambda: lax_action(PlanePoint(0.3, 0.5), branch="up"),
                          "branch must be one of"),
    "viscous_action t=0": (lambda: viscous_action(PlanePoint(0.3, 0.0), 10), "t = 0"),
    "critical_launch_point t=1": (lambda: critical_launch_point(1.0), "t > 1"),
    "critical_launch_point t<1": (lambda: critical_launch_point(0.5), "t > 1"),
    "characteristic nan": (lambda: characteristic(math.nan, 1.0), "launch point must be finite"),
    "characteristic inf": (lambda: characteristic(math.inf, 1.0), "launch point must be finite"),
    "crossing_scan one point": (lambda: crossing_scan([0.5], 1.0), "two launch points"),
    "crossing_scan t_max inf": (lambda: crossing_scan([0.5, 1.0], math.inf), "t_max"),
    "crossing_scan t_max 0": (lambda: crossing_scan([0.5, 1.0], 0.0), "t_max"),
    "symmetry_breaking_limit sign": (lambda: symmetry_breaking_limit(2.0, "up"), "epsilon_sign"),
    "symmetry_breaking_limit t=1": (lambda: symmetry_breaking_limit(1.0), "t > 1"),
    "symmetry_breaking_limit nan": (lambda: symmetry_breaking_limit(math.nan), "t > 1"),
}


@pytest.mark.parametrize("route, match", list(_LIMIT_REFUSALS.values()), ids=list(_LIMIT_REFUSALS))
def test_limit_routes_refuse_input_outside_their_domain(route, match):
    with pytest.raises(ValueError, match=match):
        route()


@pytest.mark.parametrize("x", [0.7, -0.7, 0.0, 30.0])
def test_finite_size_velocity_at_t_0_is_the_boundary_slope(x):
    assert viscous_velocity(PlanePoint(x, 0.0), 10) == -math.tanh(x)
