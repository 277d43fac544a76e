"""Acceptance suite: one test per shipped guarantee, pinned tolerances.

Each test prints a single summary line; `pytest -v` therefore shows one
pass/fail line per criterion.  Tolerances here are contractual, do not
loosen them to make a failure go away.
"""

import json
import math
import os
import subprocess
import sys
import time

import numpy as np
import pytest

import spinflow
from spinflow import (
    PlanePoint,
    SkParams,
    caustic_root,
    conservation_residuals,
    critical_line,
    crossing_scan,
    exact_fields,
    gaussian_expectation,
    lax_action,
    quenched_overlap_moments,
    rs_action,
    rs_pressure_detail,
    self_consistent_magnetization,
    shock_jump,
    solve_qbar,
    viscous_action,
    viscous_velocity,
)

from test_sk_finite import overlap_chain_moments, sample_hamiltonian_weights
from spinflow import draw_disorder


def report(index: int, ok: bool, detail: str):
    print(f"[criterion {index:02d}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, detail


def fitted_slope(sizes, errors):
    return float(np.polyfit(np.log(sizes), np.log(errors), 1)[0])


def test_01_quadrature_and_sector_sum_agree_on_the_grid():
    start = time.perf_counter()
    worst_phi = worst_u = 0.0
    for n in (10, 50, 100, 200):
        for x in (0.0, 0.25, 0.5, 1.0):
            for t in (0.25, 0.5, 1.0, 2.0):
                p = PlanePoint(x, t)
                fields = exact_fields(p, n)
                worst_phi = max(worst_phi, abs(viscous_action(p, n) - fields.phi) / abs(fields.phi))
                worst_u = max(worst_u, abs(viscous_velocity(p, n) - fields.u))
    elapsed = time.perf_counter() - start
    ok = worst_phi <= 1e-8 and worst_u <= 1e-8 and elapsed < 10.0
    report(1, ok, f"dual-route grid: rel phi {worst_phi:.2e}, abs u {worst_u:.2e}, {elapsed:.2f}s")


def test_02_action_error_decays_at_first_order():
    start = time.perf_counter()
    sizes = [50, 100, 200, 400, 800]
    slopes = []
    for x, t in ((0.3, 0.5), (0.3, 2.0)):
        p = PlanePoint(x, t)
        target = lax_action(p).phi
        errors = [abs(exact_fields(p, n).phi - target) for n in sizes]
        slopes.append(fitted_slope(sizes, errors))
    elapsed = time.perf_counter() - start
    ok = all(s <= -0.85 for s in slopes) and elapsed < 5.0
    report(2, ok, f"action slopes {slopes[0]:.3f}, {slopes[1]:.3f}, {elapsed:.2f}s")


def test_03_velocity_error_decays_at_least_at_half_order():
    p = PlanePoint(0.2, 2.0)
    target = lax_action(p).u
    sizes = [50, 100, 200, 400, 800]
    errors = [abs(exact_fields(p, n).u - target) for n in sizes]
    slope = fitted_slope(sizes, errors)
    report(3, slope <= -0.5, f"velocity slope {slope:.3f}")


def test_04_scaled_potential_stabilizes():
    sizes = [20, 40, 80, 160, 320, 640]
    values = [n * exact_fields(PlanePoint(0.3, 2.0), n).potential for n in sizes]
    variations = [abs(b - a) / a for a, b in zip(values, values[1:])]
    ok = all(v < 0.50 for v in variations) and variations[-1] < 0.25
    report(4, ok, "scaled potential variations " + ", ".join(f"{v:.3f}" for v in variations))


def test_05_shock_jump_and_dual_velocity_routes():
    failures = []
    for t in (1.5, 2.0, 3.0):
        u_minus, u_plus = shock_jump(t)
        if abs(u_plus + u_minus) >= 1e-10:
            failures.append(f"jump asymmetry at t={t}")
        for u in (u_minus, u_plus):
            if abs(u + math.tanh(0.0 - u * t)) >= 1e-12:
                failures.append(f"shock branch off the fixed point at t={t}")
    rng = np.random.Generator(np.random.Philox(2024))
    worst = 0.0
    for _ in range(100):
        x = float(rng.uniform(0.05, 2.0)) * (1 if rng.uniform() < 0.5 else -1)
        t = float(rng.uniform(0.1, 3.5))
        sol = lax_action(PlanePoint(x, t))
        if abs(sol.u + math.tanh(x - sol.u * t)) >= 1e-12:
            failures.append(f"burgers residual at ({x:.3f},{t:.3f})")
        worst = max(worst, abs(sol.u - self_consistent_magnetization(PlanePoint(x, t))))
    if worst > 1e-10:
        failures.append(f"route disagreement {worst:.2e}")
    report(5, not failures, f"shock and 100 random points, worst route gap {worst:.2e}"
           + ("; " + "; ".join(failures[:3]) if failures else ""))


def test_06_critical_line_and_crossing_census():
    closed = math.atanh(math.sqrt(0.5)) - math.sqrt(2.0)
    line_ok = abs(critical_line(2.0) - closed) <= 1e-12
    scan = crossing_scan(np.linspace(0.0, 3.0, 200), 4.0)
    census_ok = scan.n_below_critical_line == 0 and scan.n_above_critical_line >= 1
    report(6, line_ok and census_ok,
           f"x_c(2) gap {abs(critical_line(2.0) - closed):.1e}; "
           f"{scan.n_above_critical_line} crossings above, {scan.n_below_critical_line} below")


def test_07_conservation_residual_scaling_window():
    # Each residual vanishes at its own order N^-p.  The leading coefficient
    # comes from the limit magnetization mu = tanh(x + t mu), found here by
    # the Burgers fixed point rather than by sector sums:
    # N^2 r1 -> mu_xx, N^2 r2 -> (mu^2)_xx, N r3 -> 4 mu^2 mu_x.
    # (mu^2)_xx is small at this point and its 1/N correction is large, so
    # N^p r2 changes sign near N = 80; a ratio test on N^p |r_i| cannot work.
    point = PlanePoint(0.3, 0.5)
    sizes = [20, 40, 80, 160, 320]
    mu = -self_consistent_magnetization(point)
    stiffness = 1.0 - point.t * (1.0 - mu * mu)
    mu_x = (1.0 - mu * mu) / stiffness
    mu_xx = -2.0 * mu * mu_x / stiffness**2
    limits = {
        1: (2, mu_xx),
        2: (2, 2.0 * (mu * mu_xx + mu_x * mu_x)),
        3: (1, 4.0 * mu * mu * mu_x),
    }
    residuals = [conservation_residuals(point, n) for n in sizes]
    failures, summaries = [], []
    for which, (order, coefficient) in limits.items():
        scaled = [n**order * r[which - 1] for n, r in zip(sizes, residuals)]
        slope = fitted_slope(sizes, [abs(s - coefficient) for s in scaled])
        # second-order Richardson extrapolate from N = 80, 160, 320
        extrapolated = (8.0 * scaled[-1] - 6.0 * scaled[-2] + scaled[-3]) / 3.0
        gap = abs(extrapolated - coefficient) / abs(coefficient)
        summaries.append(f"r{which}: N^{order} slope {slope:.2f}, "
                         f"limit {extrapolated:.6f} vs {coefficient:.6f} (rel {gap:.1e})")
        if slope > -0.85 or gap > 1e-3:
            failures.append(f"r{which} off")
    r1_zero_field = conservation_residuals(PlanePoint(0.0, 0.5), 100)[0]
    if abs(r1_zero_field) > 1e-15:
        failures.append(f"r1 at zero field {r1_zero_field:.1e}")
    report(7, not failures, "; ".join(summaries + failures))


def test_08_glassy_criticality_and_pressure_reconstruction():
    failures = []
    root = caustic_root(0.0)
    if abs(root - 1.0) > 1e-10:
        failures.append(f"margin root {root!r}")
    for t in (0.3, 0.7, 1.0):
        if solve_qbar(SkParams(0.0, t, 0.0)) != 0.0:
            failures.append(f"symmetric overlap at t={t}")
    for beta in (0.5, 1.0):
        closed, _ = rs_pressure_detail(beta, 0.0)
        if abs(closed - (math.log(2.0) + beta * beta / 4.0)) > 1e-12:
            failures.append(f"high-temperature pressure at beta={beta}")
    for beta in (0.5, 1.2):
        for h in (0.0, 0.3):
            closed, discrepancy = rs_pressure_detail(beta, h)
            if abs(discrepancy) > 1e-10:
                failures.append(f"reconstruction gap {discrepancy:.1e} at ({beta},{h})")
    report(8, not failures, "caustic root, symmetric overlap, pressure reconstruction"
           + ("; " + "; ".join(failures) if failures else ""))


def test_09_boundary_overlap_within_monte_carlo_error():
    start = time.perf_counter()
    moments = quenched_overlap_moments(SkParams(0.4, 0.0, 0.2), 8, 2000, seed=42)
    elapsed = time.perf_counter() - start
    target = gaussian_expectation("tanh_sq", 0.2, 0.4)
    pull = (moments.q1 - target) / moments.std_errors[0]
    ok = abs(moments.q1 - target) <= 3.0 * moments.std_errors[0] and elapsed < 60.0
    report(9, ok, f"q1 {moments.q1:.5f} vs {target:.5f}, pull {pull:+.2f} sigma, {elapsed:.1f}s")


def test_10_identity_polynomial_shrinks_with_size():
    params = SkParams(0.0, 0.36, 0.0)
    small = quenched_overlap_moments(params, 6, 300, seed=5)
    large = quenched_overlap_moments(params, 12, 300, seed=5)
    combined = math.hypot(small.std_errors[5], large.std_errors[5])
    shrink_ok = abs(large.poly_p4) < abs(small.poly_p4) - 2.0 * combined

    seed = 77
    per_sample = []
    for index in (0, 1):
        sample = draw_disorder(seed, index, 6)
        configs, prob = sample_hamiltonian_weights(sample, params)
        per_sample.append(overlap_chain_moments(prob, configs, 6))
    q1, q2, o1, e1, e2 = np.array(per_sample).mean(axis=0)
    moments = quenched_overlap_moments(params, 6, 2, seed=seed)
    enumeration_gap = max(
        abs(moments.q1 - q1), abs(moments.q2 - q2),
        abs(moments.poly_p1 - (e1 - q1 * o1)),
        abs(moments.poly_p2 - (e2 - q1 * e1)),
        abs(moments.poly_p4 - e2))
    ok = shrink_ok and enumeration_gap <= 1e-12
    report(10, ok, f"p4 {abs(small.poly_p4):.4f} -> {abs(large.poly_p4):.4f} "
                   f"(combined se {combined:.1e}); enumeration gap {enumeration_gap:.1e}")


SEEDED_COMMANDS = [
    ["sk", "finite", "--x", "0.1", "--t", "0.5", "--beta-h", "0.2",
     "--n", "6", "--samples", "40", "--seed", "9"],
    ["sweep", "--model", "sk-finite", "--quantity", "identities",
     "--x-min", "0", "--x-max", "0.2", "--n-x", "2",
     "--t-min", "0.3", "--t-max", "0.6", "--n-t", "2",
     "--n", "5", "--samples", "15", "--seed", "21", "--format", "csv"],
    ["convergence", "--model", "sk-identities", "--x", "0", "--t", "0.36",
     "--n-list", "4,6,8", "--samples", "40", "--seed", "3"],
]


def test_11_seeded_commands_are_byte_identical():
    # fresh interpreters, with the package under test first on the path
    src = os.path.dirname(os.path.dirname(spinflow.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    diffs = []
    for argv in SEEDED_COMMANDS:
        outputs = []
        for _ in range(2):
            result = subprocess.run([sys.executable, "-m", "spinflow.cli"] + argv, env=env,
                                    capture_output=True, check=True)
            outputs.append(result.stdout)
        if outputs[0] != outputs[1]:
            diffs.append(" ".join(argv[:3]))
    report(11, not diffs, "repeated seeded runs"
           + ("; differ: " + "; ".join(diffs) if diffs else " byte-identical"))
