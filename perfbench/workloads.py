"""Workload definitions: the inputs each pass feeds to spinflow, built from a seed.

A workload is a list of steps.  A ``Cli`` step is one ``spinflow`` command
line, run in-process through ``spinflow.cli.main``; a ``Lib`` step calls
library functions directly, and is used only where no command exists (the
``viscous_*`` quadrature and ``caustic_root``).  Steps are kept short (most take
0.05 to 0.3 s) because the benchmark times each one.  Every step states how
many operations it performs, so throughput is counted in the unit each
workload defines:

- ``cw-plane``: one evaluated plane point (a sweep row, one size of a
  convergence ladder, one dual-route point).
- ``rs-critical``: one sweep row or one root search.
- ``overlap-n14`` and ``overlap-ladder``: one disorder sample.

In the ``overlap-*`` workloads the seed draws the disorder seed of each
command.  In
``cw-plane`` and ``rs-critical`` it moves interior grid points by a small
amount, while the near-critical t values and the x = 0 endpoint stay fixed,
so the work per pass barely depends on the seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

WORKLOADS = ("cw-plane", "rs-critical", "overlap-n14", "overlap-ladder")

# cw-plane: one fixed size reused across a grid, and distinct sizes on every
# call, so that a per-size cache would help one half of the pass and not the other
CW_FIXED_N = 25_000
CW_CONVERGENCE_SIZES = 10            # per model, 1e3 .. 2.5e5
CW_DUAL_POINTS = 160                 # distinct sizes 50 .. 5e4
DUAL_CHUNK = 40

RS_FIELDS = (0.0, 0.1)               # beta * h
SK_X, SK_T = 0.0, 0.36               # high-temperature point of the overlap workloads
LADDER_SIZES = (4, 5, 6, 7, 8)
LADDER_SAMPLES = 200                 # per command
LADDER_COMMANDS = 10
N14_SAMPLES = 5                      # per command
N14_COMMANDS = 8


@dataclass(frozen=True)
class Cli:
    """One command line; ``ops`` operations."""
    name: str
    argv: tuple
    ops: int


@dataclass(frozen=True)
class Lib:
    """Direct library calls: ``kind`` names a routine in ``worker.LIB_STEPS``."""
    name: str
    kind: str
    inputs: tuple
    ops: int


def _num(value: float) -> str:
    return repr(float(value))


def _sweep(model, quantity, x_range, n_x, t_range, n_t, *extra):
    return ("sweep", "--model", model, "--quantity", quantity,
            "--x-min", _num(x_range[0]), "--x-max", _num(x_range[1]), "--n-x", str(n_x),
            "--t-min", _num(t_range[0]), "--t-max", _num(t_range[1]), "--n-t", str(n_t),
            *extra)


def distinct_sizes(lo: int, hi: int, count: int) -> list[int]:
    """``count`` strictly increasing integers spread geometrically over [lo, hi]."""
    sizes = []
    for i in range(count):
        n = round(lo * (hi / lo) ** (i / (count - 1)))
        sizes.append(max(n, sizes[-1] + 1) if sizes else n)
    return sizes


def _cw_plane(rng: random.Random) -> list:
    x_hi = 1.0 + rng.uniform(-0.02, 0.02)
    t_lo, t_hi = 0.25 + rng.uniform(0.0, 0.02), 2.0 - rng.uniform(0.0, 0.02)
    rows = [t_lo + (t_hi - t_lo) * i / 3 for i in range(4)]
    lim = 1.0 + rng.uniform(-0.02, 0.02)
    x0, t0 = 0.3 + rng.uniform(-0.01, 0.01), 0.5 + rng.uniform(-0.02, 0.02)
    ladder = ",".join(map(str, distinct_sizes(1000, 250_000, CW_CONVERGENCE_SIZES)))
    dual = [(rng.uniform(0.1, 1.0), rng.uniform(0.25, 2.0), n)
            for n in distinct_sizes(50, 50_000, CW_DUAL_POINTS)]
    # one sweep per t row and the dual route in chunks keep every step short
    return [
        *(Cli(f"{quantity}-t{i}", _sweep("cw", quantity, (0.0, x_hi), 9, (t, t), 1,
                                          "--n", str(CW_FIXED_N)), 9)
          for quantity in ("exact", "identities") for i, t in enumerate(rows)),
        Cli("limit", _sweep("cw", "limit", (-lim, lim), 41, (0.0, 2.0), 25), 41 * 25),
        *(Cli(f"convergence-{model}",
              ("convergence", "--model", model, "--x", _num(x0), "--t", _num(t0),
               "--n-list", ladder), CW_CONVERGENCE_SIZES)
          for model in ("cw-action", "cw-velocity")),
        *(Lib(f"dual-route-{i}", "dual_route", tuple(dual[i:i + DUAL_CHUNK]),
              len(dual[i:i + DUAL_CHUNK]))
          for i in range(0, len(dual), DUAL_CHUNK)),
    ]


def _rs_critical(rng: random.Random) -> list:
    x_hi = 0.5 - rng.uniform(0.0, 0.01)
    steps = []
    for beta_h in RS_FIELDS:
        # t = 1.01 .. 1.10 sit just above the critical point and are never moved
        blocks = (("low", (0.5 + rng.uniform(0.0, 0.005), 1.0), 51),
                  ("near", (1.01, 1.10), 10),
                  ("high", (1.11, 1.5 - rng.uniform(0.0, 0.005)), 40))
        for label, t_range, n_t in blocks:
            steps.append(Cli(f"rs-{label}-h{beta_h}",
                             _sweep("sk-rs", "rs", (0.0, x_hi), 3, t_range, n_t,
                                    "--beta-h", _num(beta_h)), 3 * n_t))
    steps.append(Cli("caustic", _sweep("sk-rs", "caustic", (0.0, 0.0), 1, (0.9, 1.1), 21), 21))
    steps.append(Lib("caustic-root", "caustic_root", (0.0,), 1))
    return steps


def _sk(n_list, samples, seed) -> tuple:
    common = ("--x", _num(SK_X), "--t", _num(SK_T), "--samples", str(samples), "--seed", str(seed))
    if len(n_list) == 1:
        return ("sk", "finite", "--n", str(n_list[0]), *common)
    return ("convergence", "--model", "sk-identities", "--n-list",
            ",".join(map(str, n_list)), *common)


def plan(workload: str, seed: int) -> list:
    """Steps of one pass of ``workload``; the same seed gives the same steps."""
    rng = random.Random(seed)
    if workload == "cw-plane":
        return _cw_plane(rng)
    if workload == "rs-critical":
        return _rs_critical(rng)
    # several short commands, each on its own disorder stream drawn from the seed
    if workload == "overlap-n14":
        return [Cli(f"finite-n14-{i}", _sk((14,), N14_SAMPLES, rng.getrandbits(63)), N14_SAMPLES)
                for i in range(N14_COMMANDS)]
    if workload == "overlap-ladder":
        return [Cli(f"ladder-{i}", _sk(LADDER_SIZES, LADDER_SAMPLES, rng.getrandbits(63)),
                    LADDER_SAMPLES * len(LADDER_SIZES)) for i in range(LADDER_COMMANDS)]
    raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")


def first_op(workload: str, seed: int) -> Cli:
    """The smallest command of the workload's kind, timed by the set-up probe."""
    if workload == "cw-plane":
        return Cli("exact-1", _sweep("cw", "exact", (0.5, 0.5), 1, (0.5, 0.5), 1,
                                     "--n", str(CW_FIXED_N)), 1)
    if workload == "rs-critical":
        return Cli("rs-1", _sweep("sk-rs", "rs", (0.25, 0.25), 1, (0.5, 0.5), 1), 1)
    if workload == "overlap-n14":
        return Cli("finite-n14-2", _sk((14,), 2, seed), 2)
    if workload == "overlap-ladder":
        return Cli("ladder-2", _sk(LADDER_SIZES[:3], 2, seed), 6)
    raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")


def is_near_critical(x: float, t: float, beta_h: float) -> bool:
    """Symmetric point just above t = 1, where the fixed-point map barely contracts."""
    return x == 0.0 and beta_h == 0.0 and 1.0 < t <= 1.1 + 1e-9

