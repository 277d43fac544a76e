"""Measured process: runs passes of one workload and reports what it saw.

``run.py`` starts this script in its own interpreter, with ``src`` on the
import path and the BLAS pinned to one thread, so that peak memory belongs to
the workload alone.  The workload's first operation warms the process up;
then passes repeat until ``--seconds`` have elapsed.  Every step of every pass
is timed, and so is the calibration work, before every step.  With ``--trace 1`` untraced and traced passes alternate, so
the tracing overhead is measured in the same process.  Outputs are kept from
the first pass only; every later pass is compared with it by digest.  The
last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import hashlib
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path

from workloads import Cli, first_op, plan


def calibration_s() -> float:
    """Time of a fixed piece of work that calls nothing in spinflow.

    An interpreter loop, small ufunc calls and small matrix products, about
    3.5 ms in all.  It runs before every step, so its fastest time in a run
    tells how fast the host was at its best during that run.
    """
    import numpy as np

    matrix = np.random.default_rng(0).standard_normal((96, 96))
    began = time.perf_counter()
    total = 0
    for i in range(30_000):
        total += i * i % 7
    values = np.linspace(0.0, 1.0, 240)
    for _ in range(300):
        values = np.tanh(values) + 0.1
    for _ in range(25):
        matrix @ matrix
    return time.perf_counter() - began


def _dual_route(points):
    """Sector sum against kernel quadrature, and Lax-Oleinik against the self-consistent velocity."""
    from spinflow import cw_exact, hj_limit
    from spinflow.plane import PlanePoint

    rows = []
    for x, t, n in points:
        p = PlanePoint(x, t)
        try:
            fields = cw_exact.exact_fields(p, n)
            rows.append([x, t, n, fields.phi, fields.u,
                         hj_limit.viscous_action(p, n), hj_limit.viscous_velocity(p, n),
                         hj_limit.lax_action(p).u, hj_limit.self_consistent_magnetization(p)])
        except (ValueError, RuntimeError) as err:
            rows.append([x, t, n, repr(err)])
    return rows


def _caustic_root(fields):
    from spinflow import sk_rs

    return [sk_rs.caustic_root(beta_h) for beta_h in fields]


LIB_STEPS = {"dual_route": _dual_route, "caustic_root": _caustic_root}


def run_step(cli, step) -> dict:
    """One step; a failure is recorded in the result, never raised."""
    try:
        if not isinstance(step, Cli):
            return {"result": LIB_STEPS[step.kind](step.inputs)}
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(list(step.argv))
            except SystemExit as stop:
                code = stop.code
        return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}
    except Exception:  # a crash in one step is a failed operation, not a failed run
        return {"error": traceback.format_exc()}


def blas_threads():
    """Thread count reported by the OpenBLAS that numpy loaded, or None."""
    import numpy

    for lib in sorted((Path(numpy.__file__).parent.parent / "numpy.libs").glob("*openblas*.so*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            getter = getattr(handle, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                getter.argtypes = []
                return int(getter())
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", default=None, help="span file written by a traced run")
    args = parser.parse_args(argv)
    traced = bool(args.trace)

    start = time.perf_counter()
    import spinflow.cli as cli
    import_s = time.perf_counter() - start

    steps = plan(args.workload, args.seed)
    tracer = None
    if traced:
        from tracer import Tracer, layer_metrics
        tracer = Tracer()

    report = {"import_s": import_s, "ops_per_pass": sum(s.ops for s in steps),
              "warmup_s": None, "untraced_steps_s": [], "traced_steps_s": [],
              "calibration_s": [], "digests": [],
              "outputs": None, "layers": [], "calls": None}

    def one_pass(with_trace: bool) -> None:
        pass_id = len(report["digests"])
        outputs, times = [], []
        if with_trace:
            tracer.begin_pass(pass_id)
            tracer.install()
        try:
            for step in steps:
                report["calibration_s"].append(calibration_s())
                began = time.perf_counter()
                outputs.append(run_step(cli, step))
                times.append(time.perf_counter() - began)
        finally:
            if with_trace:
                tracer.uninstall()
        report["traced_steps_s" if with_trace else "untraced_steps_s"].append(times)
        encoded = json.dumps(outputs).encode()
        report["digests"].append(hashlib.sha256(encoded).hexdigest())
        if report["outputs"] is None:
            report["outputs"] = outputs
        if with_trace:
            report["layers"].append(layer_metrics(tracer, pass_id, sum(times)))
            report["calls"] = report["calls"] or tracer.calls(pass_id)

    began = time.perf_counter()
    run_step(cli, first_op(args.workload, args.seed))
    report["warmup_s"] = time.perf_counter() - began
    began = time.perf_counter()
    while True:
        one_pass(False)
        if traced:
            one_pass(True)
        if time.perf_counter() - began >= args.seconds:
            break

    report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    report["blas_threads"] = blas_threads()
    if traced and args.spans:
        tracer.write(args.spans)
    sys.stdout.write(json.dumps(report) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
