"""The shared bracketed Newton root finder, Gauss rules, log cosh and line sampler."""

import math

import numpy as np
import pytest

from spinflow import characteristic, rs_characteristic
from spinflow.plane import (LOG2, ConvergenceError, PlanePoint, SkParams, bracketed_newton,
                            gauss_rule, log_cosh, newton_steps, straight_line)


def test_converges_from_both_orientations():
    # cos is decreasing through its root on [0, 3]; the caller flips its sign
    rising = bracketed_newton(lambda x: (x * x - 2.0, 2.0 * x), 0.0, 2.0, 1.9, 1e-15)
    falling = bracketed_newton(lambda x: (-math.cos(x), math.sin(x)), 0.0, 3.0, 0.5, 1e-15)
    assert rising == pytest.approx(math.sqrt(2.0), abs=4e-16)
    assert falling == pytest.approx(math.pi / 2.0, abs=4e-16)


def test_bisects_when_a_newton_step_would_leave_the_bracket():
    steps = []

    def f(x):
        steps.append(x)
        return math.atan(x - 0.3), 1.0 / (1.0 + (x - 0.3) ** 2)

    # from x = 5 the Newton step for atan lands far below the bracket
    root = bracketed_newton(f, -1.0, 6.0, 5.0, 1e-15)
    assert root == pytest.approx(0.3, abs=1e-15)
    assert steps[1] == 0.5 * (-1.0) + 0.5 * 5.0


def test_a_slope_of_the_wrong_sign_bisects_instead_of_stopping():
    # m = tanh(t m) at t = 1e50 from a seed near 0: the slope there is about
    # -1e49, so the Newton step is tiny but points away from the root at 1
    t = 1e50

    def f(m):
        th = math.tanh(t * m)
        return m - th, 1.0 - t * (1.0 - th * th)

    assert bracketed_newton(f, 1e-50, 2.0, 1.7e-50, 2.5e-16) == 1.0


def test_raises_with_the_residual_when_it_cannot_converge():
    # a sign change with no zero: bisection pins the jump, the residual stays 1
    def jump(x):
        return (1.0 if x > 1.0 / 3.0 else -1.0), 1.0

    with pytest.raises(ConvergenceError) as excinfo:
        bracketed_newton(jump, 0.0, 1.0, 0.5, 0.0)
    assert excinfo.value.residual == 1.0


def _recorded(f):
    points = []

    def g(x):
        points.append(x)
        return f(x)

    return g, points


def test_returns_the_last_point_where_f_was_evaluated():
    # callers reuse what f computed at the root, so every stop must return that point
    exact, points = _recorded(lambda x: (x - 0.5, 1.0))
    assert bracketed_newton(exact, 0.0, 1.0, 0.25, 1e-15) == points[-1] == 0.5
    # newton_steps' residual-and-step stop: |f| below residual_tol and the step below tol
    newton, points = _recorded(lambda x: (x * x - 2.0, 2.0 * x))
    steps = newton_steps(0.0, 2.0, 1.9, 1e-15, residual_tol=1e-12)
    root = next(steps)
    try:
        while True:
            root = steps.send(newton(root))
    except StopIteration as stop:
        root = stop.value
    assert root == points[-1] and abs(root * root - 2.0) < 1e-12
    # bracket stop: a slope of zero only bisects, so the bracket shrinks below tol
    flat, points = _recorded(lambda x: (x - 1.0 / 3.0, 0.0))
    root = bracketed_newton(flat, 0.0, 1.0, 0.5, 1e-6)
    assert root == points[-1] and root != 1.0 / 3.0
    assert abs(root - 1.0 / 3.0) < 2e-6


def test_newton_steps_interleaved_are_each_their_own_root():
    # two roots driven in lockstep by hand: each takes the iterates and the
    # stop it takes alone, and a failing one raises from its own send
    functions = [(lambda x: (x * x - 2.0, 2.0 * x), (0.0, 2.0, 1.9, 1e-15)),
                 (lambda x: (math.atan(x - 0.3), 1.0 / (1.0 + (x - 0.3) ** 2)),
                  (-1.0, 6.0, 5.0, 1e-15)),
                 (lambda x: ((1.0 if x > 1.0 / 3.0 else -1.0), 1.0), (0.0, 1.0, 0.5, 0.0))]
    alone = []
    for f, bracket in functions:
        g, points = _recorded(f)
        try:
            alone.append((bracketed_newton(g, *bracket), points))
        except ConvergenceError as err:
            alone.append((err.residual, points))
    lockstep = [None] * len(functions)
    running = []
    for i, (_, bracket) in enumerate(functions):
        steps = newton_steps(*bracket)
        running.append((i, steps, next(steps), []))
    while running:
        still = []
        for i, steps, x, points in running:
            points.append(x)
            try:
                still.append((i, steps, steps.send(functions[i][0](x)), points))
            except StopIteration as stop:
                lockstep[i] = (stop.value, points)
            except ConvergenceError as err:
                lockstep[i] = (err.residual, points)
        running = still
    assert lockstep == alone


@pytest.mark.parametrize("builder, order", [(np.polynomial.legendre.leggauss, 20),
                                            (np.polynomial.hermite.hermgauss, 240)])
def test_gauss_rules_are_built_once_and_read_only(builder, order):
    nodes, weights = gauss_rule(builder, order)
    assert gauss_rule(builder, order)[0] is nodes
    assert np.array_equal(nodes, builder(order)[0])
    for array in (nodes, weights):
        with pytest.raises(ValueError):
            array[0] = 0.0


def test_log_cosh_is_finite_to_the_end_of_the_double_range():
    values = log_cosh(np.array([0.0, -0.5, 400.0, -1e308]))
    assert values[0] == 0.0
    assert values[1] == pytest.approx(math.log(math.cosh(0.5)), rel=1e-15, abs=0)
    assert values[2] == 400.0 - LOG2
    assert values[3] == 1e308


@pytest.mark.parametrize("n_points", [2.5, 3.0, 1, 0])
def test_line_sampler_refuses_a_count_that_is_not_an_integer_of_at_least_2(n_points):
    for sample in (lambda: straight_line(0.3, 0.1, 1.0, n_points),
                   lambda: characteristic(0.3, 1.0, n_points=n_points),
                   lambda: rs_characteristic(0.3, 1.0, n_points=n_points)):
        with pytest.raises(ValueError, match="number of points"):
            sample()


@pytest.mark.parametrize("t_max", [-1.0, math.inf, math.nan])
def test_line_sampler_refuses_a_t_max_that_is_negative_or_not_finite(t_max):
    for sample in (lambda: straight_line(0.3, 0.1, t_max, 4),
                   lambda: characteristic(0.3, t_max, n_points=4),
                   lambda: rs_characteristic(0.3, t_max, n_points=4)):
        with pytest.raises(ValueError, match="t_max must be finite"):
            sample()


@pytest.mark.parametrize("build, match", [
    (lambda: PlanePoint(math.nan, 0.5), "plane point must be finite"),
    (lambda: PlanePoint(0.1, math.inf), "plane point must be finite"),
    (lambda: PlanePoint(-math.inf, 0.5), "plane point must be finite"),
    (lambda: SkParams(math.nan, 0.5), "x must be finite"),
    (lambda: SkParams(0.1, math.inf), "t must be finite"),
    (lambda: SkParams(0.1, 0.5, -math.inf), "beta_h must be finite"),
], ids=["point x nan", "point t inf", "point x -inf", "sk x nan", "sk t inf", "sk beta_h -inf"])
def test_parameter_types_refuse_a_coordinate_that_is_not_finite(build, match):
    with pytest.raises(ValueError, match=match):
        build()
