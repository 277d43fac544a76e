"""Correctness checks on the outputs of one pass.

Each check returns a list of ``(failed_ops, message)``; an empty list means
every output of the pass is correct.  The checks run after the measured
process has exited, so they take no part in any timing or in peak memory.

The ``overlap-*`` workloads are checked against an enumeration oracle that
lives here and shares no code with ``spinflow.sk_finite``: it enumerates all
2^n configurations of each disorder sample, and evaluates the replica sums
sum_{a,b} p_a p_b f(q_ab) and sum_{a,b,c} p_a p_b p_c f(q_ab) g(q_bc) as
group convolutions.  The overlap of two configurations depends only on their
XOR, q_ab = 1 - 2 popcount(a ^ b) / n, so F(b) = sum_a p_a f(q(a ^ b)) is the
XOR convolution of p with f∘q, which the Walsh-Hadamard transform turns into
a pointwise product (Fino & Algazi, IEEE Trans. Computers, 1976).
"""

from __future__ import annotations

import json
import math

import numpy as np

from spinflow import hj_limit, sk_rs
from spinflow.plane import PlanePoint

PHI_REL_TOL = 1e-8       # sector sum against quadrature, relative action
U_ABS_TOL = 1e-8         # sector sum against quadrature, absolute velocity
ROOT_TOL = 1e-12         # self-consistency residuals and branch agreement
MOMENT_TOL = 1e-9        # identities rows against the benchmark's own sector sum
OVERLAP_TOL = 1e-12      # finite-size overlap outputs against the oracle
CAUSTIC_ROOT_TOL = 1e-10
ACTION_SLOPE_MAX = -0.85


class Ledger:
    """Collects failed operations with the reason for each."""

    def __init__(self):
        self.failures = []

    def fail(self, ops: int, message: str) -> None:
        self.failures.append((ops, message))

    def payload(self, step, out):
        """Parsed JSON of a command that exited 0, or None after recording the failure."""
        if "error" in out:
            self.fail(step.ops, f"{step.name}: raised\n{out['error']}")
            return None
        if out["exit"] != 0:
            self.fail(step.ops, f"{step.name}: exit {out['exit']}: {out['stderr'].strip()}")
            return None
        try:
            return json.loads(out["stdout"], parse_constant=_reject_constant)
        except ValueError as err:
            self.fail(step.ops, f"{step.name}: output is not strict JSON ({err})")
            return None

    def rows(self, step, out):
        """Sweep rows that converged; the others are recorded as failures."""
        rows = self.payload(step, out)
        if rows is None:
            return []
        if len(rows) != step.ops:
            self.fail(step.ops, f"{step.name}: {len(rows)} rows, expected {step.ops}")
            return []
        good = [r for r in rows if r.get("converged") is True]
        if len(good) < len(rows):
            self.fail(len(rows) - len(good), f"{step.name}: {len(rows) - len(good)} rows not converged")
        return good

    def record(self, step, out):
        record = self.payload(step, out)
        if record is not None and record.get("converged") is not True:
            self.fail(step.ops, f"{step.name}: converged is not true")
            return None
        return record

    def expect(self, ok: bool, ops: int, message: str) -> None:
        if not ok:
            self.fail(ops, message)


def _reject_constant(name):
    raise ValueError(f"non-finite number {name}")


# ------------------------------------------------------------------ cw-plane

def _independent_moments(x: float, t: float, n: int):
    """Magnetization moments 1..4 from a sector sum built by a binomial recurrence."""
    k = np.arange(n + 1, dtype=np.float64)
    log_binom = np.concatenate(([0.0], np.cumsum(np.log((n - k[1:] + 1.0) / k[1:]))))
    m = 2.0 * k / n - 1.0
    log_w = log_binom + n * (0.5 * t * m * m + x * m)
    w = np.exp(log_w - log_w.max())
    w /= w.sum()
    return [float(w @ m ** j) for j in range(1, 5)]


def _check_cw_plane(steps, outputs, ledger):
    for step, out in zip(steps, outputs):
        kind = step.name.split("-")[0]
        if kind == "exact":
            for r in ledger.rows(step, out):
                p = PlanePoint(r["x"], r["t"])
                phi_q = hj_limit.viscous_action(p, r["n"])
                u_q = hj_limit.viscous_velocity(p, r["n"])
                ledger.expect(abs(phi_q - r["phi"]) <= PHI_REL_TOL * abs(r["phi"])
                              and abs(u_q - r["u"]) <= U_ABS_TOL and r["potential"] >= 0.0, 1,
                              f"exact row {r}: quadrature gives phi {phi_q!r}, u {u_q!r}")
        elif kind == "identities":
            for r in ledger.rows(step, out):
                m1, m2, m3, m4 = _independent_moments(r["x"], r["t"], r["n"])
                expected = (m3 - 3 * m1 * m2 + 2 * m1 ** 3,
                            (m4 - m2 * m2) - 2 * m1 * m3 + 2 * m1 * m1 * m2, m4 - m2 * m2)
                got = (r["r1"], r["r2"], r["r3"])
                ledger.expect(all(abs(a - b) <= MOMENT_TOL for a, b in zip(got, expected)), 1,
                              f"identities row at x={r['x']}, t={r['t']}: {got} vs {expected}")
        elif kind == "limit":
            for r in ledger.rows(step, out):
                residual = abs(r["u"] + math.tanh(r["x"] - r["u"] * r["t"]))
                ledger.expect(residual < ROOT_TOL, 1, f"limit row at x={r['x']}, t={r['t']}: "
                                                      f"|u + tanh(x - u t)| = {residual:.3e}")
        elif kind == "convergence":
            record = ledger.record(step, out)
            if record is None:
                continue
            errors = [e["error"] for e in record["entries"]]
            ledger.expect(len(errors) == step.ops and all(e > 0.0 for e in errors), step.ops,
                          f"{step.name}: errors {errors}")
            if record["input"]["model"] == "cw-action":
                ledger.expect(record["slope"] <= ACTION_SLOPE_MAX, step.ops,
                              f"{step.name}: slope {record['slope']:.4f} > {ACTION_SLOPE_MAX}")
        elif "error" in out:
            ledger.fail(step.ops, f"{step.name} raised\n{out['error']}")
        else:
            _check_dual_route(out["result"], ledger)


def _check_dual_route(rows, ledger):
    for row in rows:
        if len(row) != 9:
            ledger.fail(1, f"dual-route point {row[:3]} raised {row[3]}")
            continue
        x, t, n, phi, u, phi_q, u_q, u_lax, u_sc = row
        ledger.expect(abs(phi_q - phi) <= PHI_REL_TOL * abs(phi) and abs(u_q - u) <= U_ABS_TOL
                      and abs(u_lax - u_sc) <= ROOT_TOL, 1,
                      f"dual-route point x={x}, t={t}, n={n}: phi {phi!r} vs {phi_q!r}, "
                      f"u {u!r} vs {u_q!r}, limit u {u_lax!r} vs {u_sc!r}")


# --------------------------------------------------------------- rs-critical

def _check_rs_critical(steps, outputs, ledger):
    for step, out in zip(steps, outputs):
        if step.name.startswith("rs-"):
            for r in ledger.rows(step, out):
                v = r["x"] + r["t"] * r["q_bar"]
                mapped = sk_rs.gaussian_expectation("tanh_sq", r["beta_h"], v)
                ledger.expect(abs(r["q_bar"] - mapped) < ROOT_TOL and r["y_star"] == v, 1,
                              f"rs row at x={r['x']}, t={r['t']}, beta_h={r['beta_h']}: "
                              f"|q - map(q)| = {abs(r['q_bar'] - mapped):.3e}")
        elif step.name == "caustic":
            for r in ledger.rows(step, out):
                # on the symmetric axis q = 0 up to t = 1, where the margin is (1 - t) / 3;
                # above t = 1 it stays positive (the zero at t = 1 is tangential)
                ok = (abs(r["margin"] - (1.0 - r["t"]) / 3.0) <= ROOT_TOL if r["t"] <= 1.0
                      else r["margin"] > 0.0)
                ledger.expect(ok, 1, f"caustic row at t={r['t']}: margin {r['margin']!r}")
        elif "error" in out:
            ledger.fail(step.ops, f"{step.name} raised\n{out['error']}")
        else:
            (root,) = out["result"]
            ledger.expect(abs(root - 1.0) <= CAUSTIC_ROOT_TOL, step.ops,
                          f"caustic_root(0) = {root!r}, expected 1")


# ---------------------------------------------------------------- overlap-*

def _walsh_hadamard(a: np.ndarray) -> np.ndarray:
    """Unnormalized Walsh-Hadamard transform along the last axis (length 2^n)."""
    size = a.shape[-1]
    lead = a.shape[:-1]
    h = 1
    while h < size:
        a = a.reshape(*lead, size // (2 * h), 2, h)
        a = np.stack((a[..., 0, :] + a[..., 1, :], a[..., 0, :] - a[..., 1, :]), axis=-2)
        h *= 2
    return a.reshape(*lead, size)


def replica_statistics(x: float, t: float, beta_h: float, n: int, seed: int,
                       samples: int) -> np.ndarray:
    """Per-sample (q1, q2, o1, e1, e2) by full enumeration, one row per sample."""
    configs = np.arange(1 << n)
    bits = (configs[:, None] >> np.arange(n)) & 1
    spins = 1.0 - 2.0 * bits                       # bit i of c is site i, 0 -> +1
    overlap = 1.0 - 2.0 * bits.sum(axis=1) / n     # q of two configurations whose XOR is c
    kernels = _walsh_hadamard(overlap[None, :] ** np.arange(1, 5)[:, None])
    upper = np.triu(np.ones((n, n), dtype=bool), k=1)
    n_pairs = n * (n - 1) // 2

    table = np.empty((samples, 5))
    chunk = max(1, (1 << 16) >> n)
    for first in range(0, samples, chunk):
        count = min(chunk, samples - first)
        log_w = np.empty((count, 1 << n))
        for row, index in enumerate(range(first, first + count)):
            # the documented disorder stream: Philox keyed by (seed, index), couplings first
            rng = np.random.Generator(np.random.Philox(key=np.array([seed, index], dtype=np.uint64)))
            draws = rng.standard_normal(n_pairs + n)
            coupling = np.zeros((n, n))
            coupling[upper] = draws[:n_pairs]
            pair_energy = np.einsum("ci,ij,cj->c", spins, coupling, spins)
            log_w[row] = (math.sqrt(t / n) * pair_energy
                          + spins @ (beta_h + math.sqrt(x) * draws[n_pairs:]))
        p = np.exp(log_w - log_w.max(axis=1, keepdims=True))
        p /= p.sum(axis=1, keepdims=True)
        # F[s, k, b] = sum_a p[s, a] q(a ^ b)^(k + 1)
        f = _walsh_hadamard(_walsh_hadamard(p)[:, None, :] * kernels[None]) / (1 << n)
        pair = np.einsum("sb,skb->sk", p, f)
        chain_11 = np.einsum("sb,sb,sb->s", p, f[:, 0], f[:, 0])
        chain_12 = np.einsum("sb,sb,sb->s", p, f[:, 0], f[:, 1])
        chain_22 = np.einsum("sb,sb,sb->s", p, f[:, 1], f[:, 1])
        q1, q2, q3, q4 = pair.T
        table[first:first + count] = np.column_stack((
            q1, q2, q2 - 4.0 * chain_11 + 3.0 * q1 * q1,
            q3 - 4.0 * chain_12 + 3.0 * q1 * q2, q4 - 4.0 * chain_22 + 3.0 * q2 * q2))
    return table


def expected_moments(echo: dict, n: int) -> dict:
    """Disorder averages and identity polynomials for the inputs a record echoes."""
    table = replica_statistics(echo["x"], echo["t"], echo["beta_h"], n, echo["seed"],
                               echo["samples"])
    q1, q2, o1, e1, e2 = (float(v) for v in table.mean(axis=0))
    return {"q1": q1, "q2": q2, "poly_p1": e1 - q1 * o1, "poly_p2": e2 - q1 * e1,
            "poly_p3": e2 - q1 * q1 * o1, "poly_p4": e2, "v_n": 0.5 * (q2 - q1 * q1)}


def _check_overlap(steps, outputs, ledger):
    for step, out in zip(steps, outputs):
        record = ledger.record(step, out)
        if record is None:
            continue
        echo = record["input"]
        if record["command"] == "sk finite":
            expected = expected_moments(echo, echo["n"])
            diffs = {k: abs(record[k] - v) for k, v in expected.items()}
            ledger.expect(max(diffs.values()) <= OVERLAP_TOL, step.ops,
                          f"{step.name}: differences from enumeration {diffs}")
            continue
        for entry in record["entries"]:
            p4 = expected_moments(echo, entry["n"])["poly_p4"]
            ledger.expect(abs(entry["p4"] - p4) <= OVERLAP_TOL, echo["samples"],
                          f"{step.name}: n={entry['n']} p4 {entry['p4']!r}, enumeration {p4!r}")


def check(workload: str, steps, outputs) -> list:
    """Failures found in the outputs of one pass of ``workload``."""
    ledger = Ledger()
    if workload == "cw-plane":
        _check_cw_plane(steps, outputs, ledger)
    elif workload == "rs-critical":
        _check_rs_critical(steps, outputs, ledger)
    else:
        _check_overlap(steps, outputs, ledger)
    return ledger.failures
