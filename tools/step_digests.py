"""Digests of every step output of the benchmark workloads.

    python3 tools/step_digests.py [--root CHECKOUT] [--workload NAME ...] [--seed N ...]

Runs one pass of each workload (all four by default) for each seed (1, 2
and 3 by default) in this process, through the benchmark's own step runner
(``perfbench/worker.py``) with the BLAS pinned to one thread, as in a
benchmark run.  It prints one line per step, ``<workload> <seed> <step>
<sha256>``, the digest being that of the step's output as JSON, then a last
line ``combined <sha256>`` over all the lines before it.  Run it on two
checkouts (``--root``, by default the one this file sits in) and compare the
output to tell whether a change moved any output of the benchmark.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from pathlib import Path

DEFAULT_SEEDS = (1, 2, 3)


def step_lines(workloads, seeds):
    """One ``<workload> <seed> <step> <sha256>`` line per step of each pass."""
    import spinflow.cli as cli
    from worker import run_step
    from workloads import plan

    for workload in workloads:
        for seed in seeds:
            for step in plan(workload, seed):
                encoded = json.dumps(run_step(cli, step), sort_keys=True).encode()
                yield f"{workload} {seed} {step.name} {hashlib.sha256(encoded).hexdigest()}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", type=Path, default=Path(__file__).resolve().parents[1],
                        help="source checkout to run (default: this file's)")
    parser.add_argument("--workload", nargs="+", default=None,
                        help="workload names (default: all four)")
    parser.add_argument("--seed", type=int, nargs="+", default=DEFAULT_SEEDS)
    args = parser.parse_args(argv)

    # before numpy loads: the benchmark's processes run with one BLAS thread
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    root = args.root.resolve()
    sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
    from workloads import WORKLOADS

    workloads = args.workload or WORKLOADS
    unknown = sorted(set(workloads) - set(WORKLOADS))
    if unknown:
        parser.error(f"unknown workload {', '.join(unknown)}; choose from {', '.join(WORKLOADS)}")
    combined = hashlib.sha256()
    for line in step_lines(workloads, args.seed):
        print(line)
        combined.update(line.encode() + b"\n")
    print(f"combined {combined.hexdigest()}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
