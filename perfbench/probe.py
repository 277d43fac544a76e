"""Set-up probe: in a fresh interpreter, import ``spinflow.cli`` and run the
workload's first operation; print the two times as one JSON line.

This is what a command-line user pays on every invocation: the import (scipy
is most of it), tables built at import such as the Gauss-Hermite nodes, and
lazy tables built by the first call.  The numpy part of the import is also
reported on its own, as the reference for the host's speed at importing.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from worker import run_step
from workloads import first_op


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)
    step = first_op(args.workload, args.seed)

    start = time.perf_counter()
    import numpy  # noqa: F401  (timed on its own: no change to spinflow can move it)
    numpy_done = time.perf_counter()
    import spinflow.cli as cli
    imported = time.perf_counter()
    out = run_step(cli, step)
    done = time.perf_counter()
    sys.stdout.write(json.dumps({"numpy_import_s": numpy_done - start,
                                 "import_s": imported - start, "first_op_s": done - imported,
                                 "ops": step.ops, "ok": out.get("exit") == 0}) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
