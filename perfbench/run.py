"""spinflow benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload cw-plane --seed 1 --seconds 10 --trace 0

Run it from anywhere inside a source checkout; it needs nothing built.  A run

1. starts ``SETUP_PROBES`` fresh interpreters, each importing ``spinflow.cli``
   and running the workload's first operation (``probe.py``);
2. starts one measured process (``worker.py``) that runs the first operation
   to warm up, then passes of the workload for ``--seconds``, with the BLAS
   pinned to one thread; with ``--trace 1`` it alternates untraced and traced
   passes;
3. checks the outputs of the passes (``checks.py``) after that process exits.

On a shared host other tenants slow work down in phases of seconds to
minutes: on a 2-vCPU KVM guest (Intel Xeon, 2.0 GHz) one pure-Python loop took
anywhere from 15 to 26 ms per call, phase by phase, and a median over a 15 s
run moved with the phase the run fell in.  So throughput is measured from
fastest times, which stay near the uncontended time:

- a pass counts as the sum, over its steps, of each step's fastest time
  across the run's passes (as with ``timeit``, the fastest repetition is the
  least disturbed one);
- that time is scaled to a reference host speed: multiplied by
  ``CALIBRATION_REF_S`` over the fastest time of a fixed calibration work that
  is timed before every step (``worker.calibration_s``).  When the whole run
  falls in a slow phase, both fastest times grow together.  The calibration
  calls nothing in spinflow, so a change to the program moves only the step
  times.

On that guest the calibration's fastest time was 3.2 to 3.5 ms, so
``ops_per_s`` reads close to plain wall-clock throughput there.

Imports slowed down even more than computation: between two sets of ten runs
an hour apart, the median set-up time rose by 26 to 45 % while the fastest
calibration rose by 7 to 9 %.  So set-up time is the median over the probes,
scaled the same way by a reference that is itself an import: each probe times
``import numpy`` on its own before importing ``spinflow.cli``, and the median
set-up time is multiplied by ``NUMPY_IMPORT_REF_S`` over the median of those
numpy imports.  No change to spinflow can move the numpy import.  The raw
pass, calibration and probe times are kept in the run record.

It prints every metric it measured by name with its unit, then, as its last
line, one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics of ``BENCHMARK.json`` with ``--trace 0``,
the per-layer metrics with ``--trace 1``.  Each run is appended, with its
environment, to ``perfbench/results/runs.jsonl``; a traced run also writes
its spans to ``perfbench/results/spans-<workload>.jsonl``.  ``compare.py``
compares two files of runs.

The BLAS is pinned to one thread: the command line uses the library default
``n_jobs=1``, and with the default two OpenBLAS threads the medians of
``overlap-n14`` passes moved by a quarter from one process to the next (1.71,
1.86 and 2.18 s, against 2.58 to 2.65 s with one thread).
"""

from __future__ import annotations

import argparse
import datetime
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS, plan

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
SETUP_PROBES = 7
RUN_LIMIT_S = 170.0          # the whole run, set-up probes and checks included
CHECK_RESERVE_S = 20.0
CALIBRATION_REF_S = 0.0033   # fastest calibration time defining the reference speed
NUMPY_IMPORT_REF_S = 0.08    # numpy import time defining the reference import speed
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class RunError(RuntimeError):
    """The run cannot produce a result."""


def _child_env() -> dict:
    env = dict(os.environ, **PINNED)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _child(script: str, args: list, deadline: float) -> dict:
    """Run a benchmark script in a fresh interpreter; its last stdout line is JSON."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise RunError(f"no time left to start {script}")
    try:
        done = subprocess.run([sys.executable, str(HERE / script), *args], cwd=ROOT,
                              env=_child_env(), capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise RunError(f"{script} did not finish within {timeout:.0f} s")
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines:
        raise RunError(f"{script} exited {done.returncode}: {done.stderr.strip()[-2000:]}")
    try:
        return json.loads(lines[-1])
    except ValueError:
        raise RunError(f"{script} printed no result: {lines[-1][:200]!r}")


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo") as info:
            for line in info:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "spinflow").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def environment(worker: dict, seed: int) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"seed": seed, "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "cpu_model": _cpu_model(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": worker["blas_threads"],
            "blas_pinning": " ".join(f"{k}={v}" for k, v in PINNED.items()),
            "git_commit": _git_commit(), "source_sha256": _source_digest()}


def _median(values) -> float:
    return float(statistics.median(values))


def fastest_pass_s(steps_s: list) -> float:
    """Sum over steps of each step's fastest time across passes."""
    return sum(min(times) for times in zip(*steps_s))


def reference_pass_s(worker: dict) -> float:
    """Fastest untraced pass, scaled to the reference host speed."""
    scale = CALIBRATION_REF_S / min(worker["calibration_s"])
    return fastest_pass_s(worker["untraced_steps_s"]) * scale


def measure(args, spec: dict) -> dict:
    deadline = time.monotonic() + RUN_LIMIT_S
    probe_args = ["--workload", args.workload, "--seed", str(args.seed)]
    probes = [_child("probe.py", probe_args, deadline) for _ in range(SETUP_PROBES)]
    spans = RESULTS / f"spans-{args.workload}.jsonl"
    worker = _child("worker.py", [*probe_args, "--seconds", str(args.seconds),
                                  "--trace", str(args.trace), "--spans", str(spans)],
                    deadline - CHECK_RESERVE_S)

    sys.path.insert(0, str(ROOT / "src"))
    import checks

    steps = plan(args.workload, args.seed)
    failures = checks.check(args.workload, steps, worker["outputs"])
    ops = worker["ops_per_pass"]
    # passes are deterministic: one that differs from the checked first pass failed as a whole
    failed_per_pass = [ops if digest != worker["digests"][0]
                       else min(ops, sum(n for n, _ in failures))
                       for digest in worker["digests"]]
    if len(set(worker["digests"])) > 1:
        failures.append((0, "outputs differ between passes of the same inputs"))
    attempted = ops * len(worker["digests"]) + sum(p["ops"] for p in probes)
    failed = sum(failed_per_pass) + sum(p["ops"] for p in probes if not p["ok"])

    setup = [p["import_s"] + p["first_op_s"] for p in probes]
    import_scale = NUMPY_IMPORT_REF_S / _median(p["numpy_import_s"] for p in probes)
    measured = {
        "ops_per_s": ops / reference_pass_s(worker),
        "setup_s": _median(setup) * import_scale,
        "peak_rss_mb": worker["peak_rss_mb"],
    }
    if args.trace:
        layers = worker["layers"]
        measured.update({name: _median(p[name] for p in layers) for name in layers[0]})
        measured["setup.import_s"] = _median(p["import_s"] for p in probes) * import_scale
        measured["setup.first_op_s"] = _median(p["first_op_s"] for p in probes) * import_scale
        measured["trace.overhead_frac"] = (fastest_pass_s(worker["traced_steps_s"])
                                           / fastest_pass_s(worker["untraced_steps_s"]) - 1.0)

    kind = "per_layer" if args.trace else "end_to_end"
    metrics = {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]} for m in spec[kind]}
    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace,
            "time": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
            "environment": environment(worker, args.seed),
            "correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics, "all_metrics": measured,
            "passes": {"ops_per_pass": ops, "warmup_s": worker["warmup_s"],
                       "untraced_s": [sum(p) for p in worker["untraced_steps_s"]],
                       "traced_s": [sum(p) for p in worker["traced_steps_s"]],
                       "fastest_untraced_s": fastest_pass_s(worker["untraced_steps_s"]),
                       "fastest_calibration_s": min(worker["calibration_s"]),
                       "untraced_steps_s": worker["untraced_steps_s"],
                       "calibration_s": worker["calibration_s"]},
            "setup_probes": probes, "calls": worker["calls"],
            "failures": [message for _, message in failures][:20],
            "span_file": str(spans.relative_to(ROOT)) if args.trace else None}


def print_report(record: dict, spec: dict) -> None:
    from tracer import METRIC_SOURCES

    env = record["environment"]
    passes = record["passes"]
    print(f"spinflow benchmark: workload {record['workload']}, seed {record['seed']}, "
          f"{record['seconds']} s, trace {record['trace']}")
    print(f"  {env['cpu_model']}, nproc {env['nproc']}, Python {env['python']}, "
          f"numpy {env['numpy']}, scipy {env['scipy']}, {env['blas']}, "
          f"BLAS threads {env['blas_threads']} ({env['blas_pinning']})")
    print(f"  commit {env['git_commit']}, source sha256 {env['source_sha256'][:16]}")
    print(f"  {passes['ops_per_pass']} operations per pass; warm-up {passes['warmup_s']:.3f} s; "
          f"{len(passes['untraced_s'])} untraced passes, median {_median(passes['untraced_s']):.3f} s, "
          f"fastest steps {passes['fastest_untraced_s']:.3f} s, "
          f"fastest calibration {1000 * passes['fastest_calibration_s']:.2f} ms"
          + (f"; {len(passes['traced_s'])} traced passes, median "
             f"{_median(passes['traced_s']):.3f} s" if passes["traced_s"] else ""))
    calls = record["calls"] or {}
    shown = spec["end_to_end"] + (spec["per_layer"] if record["trace"] else [])
    print(f"  {'metric':<40} {'value':>16}  unit")
    for metric in shown:
        name = metric["name"]
        note = ""
        if name in METRIC_SOURCES and not any(calls.get(f) for f in METRIC_SOURCES[name]):
            note = "  not called on this workload: 0 is not a measurement"
        elif name == "peak_rss_mb" and record["trace"]:
            note = "  traced process, spans included"
        print(f"  {name:<40} {record['all_metrics'][name]:>16.6g}  {metric['unit']}{note}")
    frac = record["failed"] / record["attempted"]
    print(f"  {'failed_frac':<40} {frac:>16.6g}  frac  "
          f"({record['failed']} of {record['attempted']} operations)")
    for message in record["failures"]:
        print(f"  FAILED {message}")
    if record["span_file"]:
        print(f"  spans: {record['span_file']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="spinflow benchmark, one workload per run")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2 ** 63:
        parser.error("--seed must be in [0, 2^63)")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "spinflow" / "cli.py").is_file():
        print(f"error: no spinflow sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    RESULTS.mkdir(exist_ok=True)
    try:
        record = measure(args, spec)
    except RunError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    with open(RESULTS / "runs.jsonl", "a") as log:
        log.write(json.dumps(record) + "\n")
    print_report(record, spec)
    print(json.dumps({"correct": record["correct"], "attempted": record["attempted"],
                      "failed": record["failed"], "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
