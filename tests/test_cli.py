"""Command-line front end: records, sweeps, convergence reports, exit codes."""

import contextlib
import dataclasses
import io
import itertools
import json
import math
import os
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import spinflow
from spinflow import PlanePoint, SkParams, cli, exact_fields, lax_action, rs_action


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    code = 0
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 0
    return code, out.getvalue(), err.getvalue()


def parse_csv(text):
    lines = [line for line in text.strip().splitlines() if line]
    header = lines[0].split(",")
    return header, [dict(zip(header, line.split(","))) for line in lines[1:]]


def test_point_record_for_the_exact_model():
    code, out, err = run_cli(["cw", "exact", "--x", "0.2", "--t", "0.5", "--n", "10"])
    assert code == 0
    assert err == ""
    record = json.loads(out)
    assert record["command"] == "cw exact"
    assert record["version"] == spinflow.__version__
    assert record["input"] == {"x": 0.2, "t": 0.5, "n": 10}
    assert record["converged"] is True
    fields = exact_fields(PlanePoint(0.2, 0.5), 10)
    assert record["phi"] == fields.phi
    assert record["u"] == fields.u
    assert record["moments"] == list(fields.moments)
    assert len(record["moments"]) == 4


def test_zero_coupling_point_is_the_closed_form():
    code, out, _ = run_cli(["cw", "exact", "--x", "1", "--t", "0", "--n", "7"])
    assert code == 0
    phi = json.loads(out)["phi"]
    assert phi == pytest.approx(-math.log(2.0) - math.log(math.cosh(1.0)), abs=1e-12)
    assert phi == pytest.approx(-1.126928, abs=5e-7)


def test_shock_point_record_carries_the_branch():
    code, out, _ = run_cli(["cw", "limit", "--x", "0", "--t", "2", "--branch", "plus"])
    assert code == 0
    record = json.loads(out)
    assert record["on_shock"] is True
    assert record["branch"] == "plus"
    assert record["u"] == pytest.approx(-0.957504, abs=5e-7)


def test_caustic_point_collapses_at_the_transition():
    code, out, _ = run_cli(["sk", "caustic", "--x", "0", "--beta-h", "0", "--t", "1"])
    assert code == 0
    assert json.loads(out)["margin"] == pytest.approx(0.0, abs=1e-13)


def test_rs_point_record_matches_the_library():
    code, out, _ = run_cli(["sk", "rs", "--x", "0.3", "--t", "1.2", "--beta-h", "0.2"])
    assert code == 0
    record = json.loads(out)
    sol = rs_action(SkParams(0.3, 1.2, 0.2))
    assert record["q_bar"] == sol.q_bar
    assert record["pressure"] is None
    assert record["caustic_margin"] == sol.caustic_margin


def test_finite_point_record_is_seed_stable():
    argv = ["sk", "finite", "--x", "0.1", "--t", "0.5", "--beta-h", "0.2",
            "--n", "6", "--samples", "25", "--seed", "9"]
    first = run_cli(argv)
    second = run_cli(argv)
    assert first == second
    assert first[0] == 0
    record = json.loads(first[1])
    assert record["input"]["seed"] == 9
    assert len(record["std_errors"]) == 6


@pytest.mark.parametrize("argv, echo", [
    ("cw exact --n 10 --t 0.5 --x 0.2", {"x": 0.2, "t": 0.5, "n": 10}),
    ("cw limit --branch minus --t 2 --x 0", {"x": 0.0, "t": 2.0, "branch": "minus"}),
    ("cw shock --t 1.5", {"t": 1.5}),
    ("cw critical-line --t 1.5", {"t": 1.5}),
    ("cw identities --n 10 --t 0.5 --x 0.2", {"x": 0.2, "t": 0.5, "n": 10}),
    ("sk rs --t 1.2 --x 0.3", {"x": 0.3, "t": 1.2, "beta_h": 0.0}),
    ("sk caustic --beta-h 0.2 --t 1.2 --x 0.3", {"x": 0.3, "t": 1.2, "beta_h": 0.2}),
    ("sk finite --seed 3 --samples 4 --n 5 --t 0.5 --x 0.1",
     {"x": 0.1, "t": 0.5, "beta_h": 0.0, "n": 5, "samples": 4, "seed": 3}),
])
def test_point_records_echo_exactly_their_flags_in_order(argv, echo):
    # flags given in reverse: the echo follows the subcommand's flags, not the argv
    code, out, err = run_cli(argv.split())
    assert (code, err) == (0, "")
    record = json.loads(out)
    assert record["command"] == " ".join(argv.split()[:2])
    assert list(record["input"].items()) == list(echo.items())


def test_the_cached_parser_keeps_no_state_between_calls():
    # one parser serves every call in a process; a failing parse and
    # --version in between must not change the next run of the same argv
    argv = ["sweep", "--model", "cw", "--quantity", "exact", "--x-min", "0", "--x-max", "0.5",
            "--n-x", "2", "--t-min", "0.5", "--t-max", "0.5", "--n-t", "1", "--n", "10"]
    first = run_cli(argv)
    assert first[0] == 0
    assert run_cli(["sweep", "--model", "cw", "--quantity", "exact", "--n-x", "2"])[0] == 2
    assert run_cli(["--version"])[0] == 0
    assert run_cli(argv) == first
    assert cli.build_parser() is cli.build_parser()


# sweeps whose size, sample count or seed every row would refuse, below the library's
# range or above its allocation bound, each with the point query that refuses the same value
_REFUSED_SWEEPS = [
    (["sweep", "--model", "cw", "--quantity", quantity, "--x-min", "0", "--x-max", "1",
      "--n-x", "2", "--t-min", "0.5", "--t-max", "1", "--n-t", "2", "--n", n],
     ["cw", quantity, "--x", "0", "--t", "0.5", "--n", n])
    for n in ("0", "1000000000000") for quantity in ("exact", "identities")
] + [
    (["sweep", "--model", "sk-finite", "--quantity", "identities", "--x-min", "0",
      "--x-max", "0.2", "--n-x", "2", "--t-min", "0.3", "--t-max", "0.6", "--n-t", "2", *flags],
     ["sk", "finite", "--x", "0", "--t", "0.3", *flags])
    for flags in (("--n", "6", "--samples", "1", "--seed", "1"),
                  ("--n", "6", "--samples", "4", "--seed", "-1"),
                  ("--n", "0", "--samples", "4", "--seed", "1"),
                  ("--n", "15", "--samples", "4", "--seed", "1"),
                  ("--n", "6", "--samples", "1000000000000", "--seed", "1"))
]


@pytest.mark.parametrize("argv, point", _REFUSED_SWEEPS,
                         ids=["cw exact n=0", "cw identities n=0", "cw exact n=1e12",
                              "cw identities n=1e12", "sk-finite samples=1", "sk-finite seed=-1",
                              "sk-finite n=0", "sk-finite n=15", "sk-finite samples=1e12"])
def test_sweep_refuses_an_invalid_flag_as_its_point_query_does(argv, point, monkeypatch):
    point_refusal = run_cli(point)
    assert point_refusal[:2] == (2, "")

    def untouched(*args, **kwargs):
        raise AssertionError("a row was evaluated")

    for module, name in ((spinflow.cw_exact, "exact_fields"),
                         (spinflow.cw_exact, "conservation_residuals"),
                         (spinflow.sk_finite, "quenched_overlap_moments")):
        monkeypatch.setattr(module, name, untouched)
    for fmt in ("json", "csv"):
        assert run_cli([*argv, "--format", fmt]) == point_refusal
    assert len(point_refusal[2].splitlines()) == 1 and point_refusal[2].startswith("error: ")


def test_validation_failures_exit_2_with_one_line():
    cases = [
        ["cw", "exact", "--x", "0.2", "--t", "-1", "--n", "10"],
        ["cw", "exact", "--x", "0.2", "--t", "0.5"],
        ["cw", "limit", "--x", "0", "--t", "2", "--branch", "sideways"],
        ["sk", "finite", "--x", "0.1", "--t", "0.5", "--n", "6", "--samples", "25"],
        ["convergence", "--model", "cw-action", "--x", "0.3", "--t", "0.5",
         "--n-list", "50,40,80"],
        ["sweep", "--model", "sk-finite", "--quantity", "identities",
         "--x-min", "0", "--x-max", "1", "--n-x", "2",
         "--t-min", "0", "--t-max", "1", "--n-t", "2"],
        ["sweep", "--model", "cw", "--quantity", "rs",
         "--x-min", "0", "--x-max", "1", "--n-x", "2",
         "--t-min", "0", "--t-max", "1", "--n-t", "2"],
        # sizes whose tables could not be allocated, refused before any is
        ["cw", "exact", "--x", "0.5", "--t", "1", "--n", "1000000000000"],
        ["sk", "finite", "--x", "0.1", "--t", "0.5", "--n", "6", "--samples", "1000000000000",
         "--seed", "1"],
        ["sweep", "--model", "cw", "--quantity", "shock",
         "--t-min", "1.5", "--t-max", "2", "--n-t", "10000000000000"],
        ["sweep", "--model", "cw", "--quantity", "limit",
         "--x-min", "0", "--x-max", "1", "--n-x", "2000",
         "--t-min", "0", "--t-max", "1", "--n-t", "1000"],
        *(argv for argv, _ in _REFUSED_SWEEPS),
    ]
    for argv in cases:
        code, out, err = run_cli(argv)
        assert code == 2, argv
        assert out == ""
        diagnostic = [line for line in err.splitlines() if line]
        assert len(diagnostic) <= 2  # argparse may add a usage line
        assert "error" in diagnostic[-1]


_SWEEP_AXES = ["sweep", "--model", "cw", "--quantity", "limit", "--n-x", "2", "--n-t", "2"]


@pytest.mark.parametrize("argv, message", [
    (_SWEEP_AXES + ["--x-min", "nan", "--x-max", "1", "--t-min", "0.5", "--t-max", "1"],
     "n_x range must be finite"),
    (_SWEEP_AXES + ["--x-min", "0", "--x-max", "1", "--t-min", "0.5", "--t-max", "inf"],
     "n_t range must be finite"),
    (_SWEEP_AXES + ["--x-min=-1.7e308", "--x-max=1.7e308", "--t-min", "0.5", "--t-max", "1"],
     "n_x range spans more than the largest float"),
    (["convergence", "--model", "cw-action", "--x", "0.3", "--t", "0.5", "--n-list", "50,1e2,200"],
     "--n-list must be comma-separated integers"),
    (["convergence", "--model", "cw-action", "--x", "0.3", "--t", "0.5", "--n-list", "50,100"],
     "--n-list needs at least 3 entries"),
    # at x = 0 both velocities are exactly zero
    (["convergence", "--model", "cw-velocity", "--x", "0", "--t", "0.5", "--n-list", "50,100,200"],
     "zero error in the sequence"),
    (["convergence", "--model", "sk-identities", "--x", "0", "--t", "0.5", "--n-list", "4,5,6",
      "--seed", "1"], "requires --samples and --seed"),
    (["convergence", "--model", "sk-identities", "--x", "0", "--t", "0.5", "--n-list", "4,5,6",
      "--samples", "4"], "requires --samples and --seed"),
    # a record always holds the four moments the identities need: there is no count to set
    (["cw", "exact", "--x", "0.2", "--t", "0.5", "--n", "10", "--k-max", "5"],
     "error: unrecognized arguments: --k-max 5\n"),
], ids=["x nan", "t inf", "x span", "n-list float", "n-list short", "zero error",
        "no samples", "no seed", "no moment count"])
def test_refusals_before_computation_name_what_is_wrong(argv, message):
    code, out, err = run_cli(argv)
    assert (code, out) == (2, "")
    assert len(err.splitlines()) == 1 and err.startswith("error: ") and message in err


def test_numerical_failure_exits_3_with_partial_record(monkeypatch):
    def explode(points):
        raise spinflow.ConvergenceError("fixed point stalled", residual=0.5)

    monkeypatch.setattr(spinflow.sk_rs, "rs_actions", explode)
    code, out, err = run_cli(["sk", "rs", "--x", "0.3", "--t", "1.2", "--beta-h", "0.2"])
    assert code == 3
    record = json.loads(out)
    assert record["converged"] is False
    assert record["input"] == {"x": 0.3, "t": 1.2, "beta_h": 0.2}
    assert "stalled" in record["error"]


def strict_json(text):
    def reject(token):
        raise ValueError(f"non-finite number {token} in the output")
    return json.loads(text, parse_constant=reject)


def test_non_finite_point_result_is_a_numerical_failure():
    code, out, _ = run_cli(["cw", "exact", "--x", "0.3", "--t", "1e308", "--n", "10"])
    assert code == 3
    record = strict_json(out)
    assert record["converged"] is False
    assert record["input"] == {"x": 0.3, "t": 1e308, "n": 10}
    assert "phi" in record["error"]
    assert "phi" not in record


def test_non_finite_sweep_row_fails_alone():
    code, out, _ = run_cli(["sweep", "--model", "cw", "--quantity", "exact",
                            "--x-min", "0.3", "--x-max", "0.3", "--n-x", "1",
                            "--t-min", "0.5", "--t-max", "1e308", "--n-t", "2",
                            "--n", "10", "--format", "csv"])
    assert code == 3
    _, rows = parse_csv(out)
    assert [r["converged"] for r in rows] == ["true", "false"]
    assert float(rows[0]["phi"]) == exact_fields(PlanePoint(0.3, 0.5), 10).phi
    assert rows[1]["t"] == "1e+308"
    assert rows[1]["n"] == "10"


def test_overflowing_limit_bracket_is_a_domain_error():
    code, out, err = run_cli(["cw", "limit", "--x", "1e308", "--t", "1e308"])
    assert code == 2
    assert out == ""
    assert "x=1e+308" in err and "t=1e+308" in err
    assert "argmin" not in err


def test_saturated_limit_record_reads_the_velocity_of_its_launch_point():
    # y* = 1e300 + 3 rounds to x, so u comes from -tanh(y*), not from (x - y*) / t
    code, out, _ = run_cli(["cw", "limit", "--x", "1e300", "--t", "3"])
    assert code == 0
    assert json.loads(out)["u"] == -1.0


def test_saturated_overlap_record_keeps_the_velocity_in_range():
    code, out, _ = run_cli(["sk", "rs", "--x", "1e5", "--t", "0.5"])
    assert code == 0
    record = json.loads(out)
    assert record["q_bar"] == 1.0
    assert abs(record["u"]) <= 1.0


@pytest.mark.parametrize("argv", [
    ["cw", "shock", "--t", "1e308"],
    ["convergence", "--model", "cw-velocity", "--x", "0.3", "--t", "1e308",
     "--n-list", "10,20,40"],
    ["cw", "critical-line", "--t", "1e308"],
    ["sk", "rs", "--x", "1e308", "--t", "1e308", "--beta-h", "1e308"],
    ["sk", "rs", "--x", "0", "--t", "0", "--beta-h", "9e307"],
    ["sk", "rs", "--x", "0", "--t", "1", "--beta-h", "1e308"],
    ["sk", "finite", "--x", "0", "--t", "0", "--beta-h", "3e307", "--n", "4",
     "--samples", "2", "--seed", "0"],
    ["sk", "finite", "--x", "0", "--t", "0", "--beta-h", "1e308", "--n", "4",
     "--samples", "2", "--seed", "0"],
])
def test_extreme_coupling_ends_cleanly(argv):
    code, out, err = run_cli(argv)
    assert code in (0, 3)
    record = strict_json(out)
    assert record["converged"] is (code == 0)
    assert "Traceback" not in err


def test_overflow_names_the_stage_and_the_point():
    code, out, _ = run_cli(["convergence", "--model", "cw-velocity", "--x", "0.3", "--t", "1e308",
                            "--n-list", "10,20,40"])
    assert code == 3
    error = strict_json(out)["error"]
    assert "Lax-Oleinik objective" in error
    assert "x=0.3" in error and "t=1e+308" in error


@pytest.mark.parametrize("argv, echo", [
    (["convergence", "--model", "cw-velocity", "--x", "0.3", "--t", "1e308",
      "--n-list", "10,20,40"],
     {"model": "cw-velocity", "x": 0.3, "t": 1e308, "n_list": [10, 20, 40]}),
    (["convergence", "--model", "sk-identities", "--x", "0", "--t", "0", "--beta-h", "3e307",
      "--n-list", "2,3,4", "--samples", "2", "--seed", "0"],
     {"model": "sk-identities", "x": 0.0, "t": 0.0, "n_list": [2, 3, 4], "beta_h": 3e307,
      "samples": 2, "seed": 0}),
])
def test_failing_convergence_report_keeps_its_echo(argv, echo):
    code, out, err = run_cli(argv)
    assert (code, err) == (3, "")
    record = strict_json(out)
    assert list(record) == ["command", "version", "input", "converged", "error"]
    assert record["command"] == "convergence"
    assert list(record["input"].items()) == list(echo.items())
    assert record["converged"] is False
    assert "overflow" in record["error"]


_COLD_START = """
import contextlib, io, json, sys
import numpy as np

# count the Gauss rules numpy builds: none at import, then a count after each command
built = []
for module, name in ((np.polynomial.hermite, "hermgauss"), (np.polynomial.legendre, "leggauss")):
    def counted(order, build=getattr(module, name)):
        built.append(order)
        return build(order)
    setattr(module, name, counted)

import spinflow.cli as cli
rules = [len(built)]

def loaded(argv):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0, argv
    rules.append(len(built))
    return sorted(name for name in sys.modules if name.split(".")[0] == "scipy")

print(json.dumps([[loaded(argv) for argv in (
    ["sk", "rs", "--x", "0.1", "--t", "1.5", "--beta-h", "0.2"],
    ["sk", "caustic", "--x", "0", "--t", "0.9", "--beta-h", "0.1"],
    ["sk", "finite", "--x", "0", "--t", "0.5", "--n", "6", "--samples", "4", "--seed", "1"],
    ["convergence", "--model", "sk-identities", "--x", "0", "--t", "0.36",
     "--n-list", "4,5,6", "--samples", "4", "--seed", "1"],
    ["cw", "limit", "--x", "0.3", "--t", "2.0"],
    ["cw", "limit", "--x", "0", "--t", "2.0", "--branch", "minus"],
    ["cw", "shock", "--t", "2.0"],
    ["cw", "critical-line", "--t", "2.0"],
    ["sweep", "--model", "cw", "--quantity", "limit", "--x-min", "-1", "--x-max", "1",
     "--n-x", "3", "--t-min", "0", "--t-max", "2", "--n-t", "3"],
    ["cw", "exact", "--x", "0.2", "--t", "0.5", "--n", "10"],
    ["cw", "identities", "--x", "0.2", "--t", "0.5", "--n", "10"],
    ["convergence", "--model", "cw-action", "--x", "0.3", "--t", "0.5", "--n-list", "10,20,40"],
    ["convergence", "--model", "cw-velocity", "--x", "0.3", "--t", "0.5",
     "--n-list", "10,20,40"],
)], rules]))
"""


def run_fresh(script: str):
    """The JSON that `script` prints in a fresh interpreter with this spinflow on its path."""
    src = os.path.dirname(os.path.dirname(spinflow.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def test_cold_start_loads_no_scipy():
    # a fresh interpreter: this test module has imported scipy itself
    scipy_modules, rules = run_fresh(_COLD_START)
    # scipy is the tests' oracle only: no command loads any scipy module
    assert scipy_modules == [[]] * 13
    # importing builds no quadrature rule; the first sk rs query builds the Hermite one
    assert rules[:2] == [0, 1]


# Reductions over more than 10 000 doubles: the sector-sum variance at two large N,
# and the jackknife over 20 000 samples.  OpenBLAS splits a dot product that long
# over its threads, so these must not go through the BLAS.
_LONG_REDUCTIONS = """
import json, os
os.environ["OPENBLAS_NUM_THREADS"] = "{threads}"
from spinflow import SkParams, cw_exact, sk_finite
from spinflow.plane import PlanePoint
values = [cw_exact.exact_fields(PlanePoint(0.3, 0.5), n).potential for n in (73293, 250000)]
m = sk_finite.quenched_overlap_moments(SkParams(0.2, 0.5, 0.1), 4, 20000, seed=11)
values += [*m.std_errors, m.v_n_std_error]
print(json.dumps([v.hex() for v in values]))
"""


def test_results_do_not_depend_on_the_blas_thread_count():
    one, two = (run_fresh(_LONG_REDUCTIONS.format(threads=threads)) for threads in (1, 2))
    assert one == two


# Which library modules a command executes: an audit hook sees each module's code
# run, and every command runs in its own fork of one interpreter that has imported
# spinflow.cli and nothing else of spinflow (with one BLAS thread, so that the fork
# copies a process with no other thread)
_MODULE_LOADS = """
import contextlib, io, json, os, sys
os.environ["OPENBLAS_NUM_THREADS"] = "1"
executed = []
sys.addaudithook(lambda event, args: event == "exec" and executed.append(args[0].co_filename))
import spinflow.cli as cli
package = os.path.dirname(cli.__file__)

def library_modules():
    return sorted(os.path.basename(f)[:-3] for f in executed
                  if os.path.dirname(f) == package
                  and os.path.basename(f) in ("cw_exact.py", "hj_limit.py", "sk_rs.py",
                                              "sk_finite.py"))

def executed_by(argv):
    read, write = os.pipe()
    if os.fork() == 0:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        os.write(write, json.dumps([code, library_modules()]).encode())
        os._exit(0)
    os.close(write)
    with os.fdopen(read) as pipe:
        result = json.loads(pipe.read())
    os.waitpid(-1, 0)
    return result

print(json.dumps([library_modules(), [executed_by(argv) for argv, _ in COMMANDS]]))
"""

_SWEEP_T = ["--t-min", "1.5", "--t-max", "2", "--n-t", "2"]
# (command, the library modules it executes)
_COMMAND_MODULES = [
    (["cw", "exact", "--x", "0.2", "--t", "0.5", "--n", "10"], ["cw_exact"]),
    (["cw", "identities", "--x", "0.2", "--t", "0.5", "--n", "10"], ["cw_exact"]),
    (["sweep", "--model", "cw", "--quantity", "exact", "--n", "10", *_SWEEP_T], ["cw_exact"]),
    (["sweep", "--model", "cw", "--quantity", "identities", "--n", "10", *_SWEEP_T],
     ["cw_exact"]),
    (["cw", "limit", "--x", "0.3", "--t", "2.0"], ["hj_limit"]),
    (["cw", "shock", "--t", "2.0"], ["hj_limit"]),
    (["cw", "critical-line", "--t", "2.0"], ["hj_limit"]),
    (["sweep", "--model", "cw", "--quantity", "limit", "--x-min", "0.1", "--x-max", "0.2",
      "--n-x", "2", *_SWEEP_T], ["hj_limit"]),
    (["sweep", "--model", "cw", "--quantity", "shock", *_SWEEP_T], ["hj_limit"]),
    (["sweep", "--model", "cw", "--quantity", "critical-line", *_SWEEP_T], ["hj_limit"]),
    (["sk", "rs", "--x", "0.1", "--t", "1.5", "--beta-h", "0.2"], ["sk_rs"]),
    (["sk", "caustic", "--x", "0", "--t", "0.9", "--beta-h", "0.1"], ["sk_rs"]),
    (["sweep", "--model", "sk-rs", "--quantity", "rs", *_SWEEP_T], ["sk_rs"]),
    (["sweep", "--model", "sk-rs", "--quantity", "caustic", *_SWEEP_T], ["sk_rs"]),
    (["sk", "finite", "--x", "0", "--t", "0.5", "--n", "6", "--samples", "4", "--seed", "1"],
     ["sk_finite"]),
    (["sweep", "--model", "sk-finite", "--quantity", "identities", "--n", "4", "--samples", "2",
      "--seed", "1", *_SWEEP_T], ["sk_finite"]),
    (["convergence", "--model", "sk-identities", "--x", "0", "--t", "0.36",
      "--n-list", "4,5,6", "--samples", "4", "--seed", "1"], ["sk_finite"]),
    (["convergence", "--model", "cw-action", "--x", "0.3", "--t", "0.5", "--n-list", "10,20,40"],
     ["cw_exact", "hj_limit"]),
    (["convergence", "--model", "cw-velocity", "--x", "0.3", "--t", "0.5",
      "--n-list", "10,20,40"], ["cw_exact", "hj_limit"]),
]


@pytest.mark.skipif(not hasattr(os, "fork"), reason="runs each command in a fork")
def test_a_command_executes_only_the_library_modules_it_calls():
    at_import, runs = run_fresh(_MODULE_LOADS.replace("COMMANDS", repr(_COMMAND_MODULES)))
    assert at_import == []
    assert runs == [[0, modules] for _, modules in _COMMAND_MODULES]


def test_package_surface_resolves_on_first_access():
    assert len(set(spinflow.__all__)) == len(spinflow.__all__)
    # every public top-level function and class that a library module defines is exported
    for module in (spinflow.cw_exact, spinflow.hj_limit, spinflow.sk_rs, spinflow.sk_finite):
        defined = {name for name in dir(module) if not name.startswith("_")
                   and callable(value := getattr(module, name))
                   and getattr(value, "__module__", None) == module.__name__}
        assert defined and defined <= set(spinflow.__all__), module.__name__
    for name in spinflow.__all__:
        value = getattr(spinflow, name)
        if name != "__version__":
            # the same object as in the submodule that defines it
            assert getattr(sys.modules[value.__module__], name) is value, name
    assert set(spinflow.__all__) <= set(dir(spinflow))
    namespace = {}
    exec("from spinflow import *", namespace)
    assert all(namespace[name] is getattr(spinflow, name) for name in spinflow.__all__)
    assert not hasattr(spinflow, "no_such_name")
    with pytest.raises(AttributeError, match="no_such_name"):
        spinflow.no_such_name


# A fresh interpreter: the library modules are package attributes before any submodule
# import, and a module attribute patched, as monkeypatch does, before the module has
# executed reaches a command
_FIRST_ACCESS = """
import contextlib, io, json, sys
executed = []
sys.addaudithook(lambda event, args: event == "exec" and executed.append(args[0].co_filename))
import spinflow
from spinflow import PlanePoint, cli
phi = spinflow.cw_exact.exact_fields(PlanePoint(0.2, 0.5), 10).phi
sk_rs_before = [f for f in executed if f.endswith("sk_rs.py")]
passes = []
original = spinflow.sk_rs._tanh_moments

def counted(*args):
    passes.append(args)
    return original(*args)

spinflow.sk_rs._tanh_moments = counted
with contextlib.redirect_stdout(io.StringIO()) as out:
    code = cli.main(ARGV)
print(json.dumps([phi, sk_rs_before, code, out.getvalue(), len(passes)]))
"""


def test_library_modules_load_on_first_access_and_take_patches(monkeypatch):
    argv = ["sk", "rs", "--x", "0.1", "--t", "1.5", "--beta-h", "0.2"]
    phi, sk_rs_before, code, out, passes = run_fresh(_FIRST_ACCESS.replace("ARGV", repr(argv)))
    assert phi == exact_fields(PlanePoint(0.2, 0.5), 10).phi
    assert sk_rs_before == []
    calls = []
    original = spinflow.sk_rs._tanh_moments
    monkeypatch.setattr(spinflow.sk_rs, "_tanh_moments",
                        lambda *args: calls.append(args) or original(*args))
    assert (code, out) == run_cli(argv)[:2]
    assert passes == len(calls) > 0


# A fresh interpreter: threads started together behind a barrier each touch every
# library module through the package, and one re-export, each first touching its own
_THREADED_FIRST_ACCESS = """
import json, os, sys, threading
executed = []
sys.addaudithook(lambda event, args: event == "exec" and executed.append(args[0].co_filename))
import spinflow
package = os.path.dirname(spinflow.__file__)
library = ("cw_exact.py", "hj_limit.py", "sk_rs.py", "sk_finite.py")

def library_modules():
    return sorted(os.path.basename(f) for f in executed
                  if os.path.dirname(f) == package and os.path.basename(f) in library)

listed = sorted(name + ".py" for name in dir(spinflow) if name + ".py" in library)
before = library_modules()
touches = [lambda: spinflow.cw_exact.exact_fields, lambda: spinflow.hj_limit.lax_action,
           lambda: spinflow.sk_rs.rs_action, lambda: spinflow.sk_finite.quenched_overlap_moments,
           lambda: spinflow.exact_fields]
barrier = threading.Barrier(len(touches))
errors = []

def touch(first):
    barrier.wait()
    try:
        for get in touches[first:] + touches[:first]:
            get()
    except Exception as err:
        errors.append(f"{type(err).__name__}: {err}")

threads = [threading.Thread(target=touch, args=(first,)) for first in range(len(touches))]
for thread in threads:
    thread.start()
for thread in threads:
    thread.join()
print(json.dumps([listed, before, errors, library_modules()]))
"""


def test_threads_touching_the_library_modules_first_together_see_them_whole():
    listed, before, errors, executed = run_fresh(_THREADED_FIRST_ACCESS)
    # dir() lists the modules without executing any
    assert (listed, before) == (["cw_exact.py", "hj_limit.py", "sk_finite.py", "sk_rs.py"], [])
    assert errors == []
    # each module executes once, whichever thread imports it
    assert executed == ["cw_exact.py", "hj_limit.py", "sk_finite.py", "sk_rs.py"]


# A fresh interpreter, so that the shared caches (the Gauss rules, the panel layouts, the
# kernel levels, the Walsh masks) start empty.  Threads started together behind a barrier
# take the points one at a time, each running the point's calls in its own shuffled order,
# and every result is compared bit for bit with the same call run alone afterwards
_CONCURRENT_CALLS = """
import dataclasses, json, random, threading
import spinflow
from spinflow import PlanePoint, SkParams

# the kernel quadrature of the last four forms levels past its first pass, up to 2**7 panels
sized = [(PlanePoint(0.5460136817639336, 0.4106859985829969), 40),
         (PlanePoint(0.35344904658420706, 2.1364157804671993), 300),
         (PlanePoint(-0.04107335698416699, 1.0329533773438815), 10),
         (PlanePoint(-0.004780632499158131, 2.916983076834214), 3000),
         (PlanePoint(0.0354568775207563, 3.6538007073966443), 30000),
         (PlanePoint(-7.053286098194361e-05, 2.1210488131116194), 30000)]
ladder = [SkParams(0.3, t, 0.1) for t in (0.5, 0.9, 1.2, 1.6)]
groups = [[(f"{name}{p}, {n}", lambda f=getattr(spinflow, name), p=p, n=n: f(p, n))
           for name in ("viscous_action", "viscous_velocity", "exact_fields")]
          + [(f"{name}{p}", lambda f=getattr(spinflow, name), p=p: f(p))
             for name in ("lax_action", "self_consistent_magnetization")]
          for p, n in sized]
groups.append([("rs_actions", lambda f=spinflow.rs_actions: f(ladder)),
               ("quenched_overlap_moments", lambda f=spinflow.quenched_overlap_moments:
                f(SkParams(0.2, 0.5, 0.1), 6, 8, 3))])

def bits(value):
    # the hex of every float, so that equal lists mean equal bits
    if isinstance(value, float):
        return value.hex()
    if dataclasses.is_dataclass(value):
        value = dataclasses.astuple(value)
    if isinstance(value, (tuple, list)) or hasattr(value, "tolist"):
        return [bits(item) for item in value]
    return repr(value)

THREADS, ROUNDS = 6, 3
barrier = threading.Barrier(THREADS)
seen = []

def run(seed):
    shuffle = random.Random(seed).shuffle
    for group in groups:
        order = group * ROUNDS
        shuffle(order)
        barrier.wait()
        seen.extend((label, bits(call())) for label, call in order)

threads = [threading.Thread(target=run, args=(seed,)) for seed in range(THREADS)]
for thread in threads:
    thread.start()
for thread in threads:
    thread.join()
alone = {label: bits(call()) for group in groups for label, call in group}
print(json.dumps([len(seen), len(alone), sorted({label for label, b in seen if b != alone[label]})]))
"""


def test_concurrent_callers_get_the_bits_of_a_serial_caller():
    results, calls, mismatched = run_fresh(_CONCURRENT_CALLS)
    assert (results, calls) == (6 * 3 * 32, 32)
    assert mismatched == []


_FLOATS = st.one_of(st.floats(-3.0, 3.0), st.floats(allow_nan=False, allow_infinity=False))


@st.composite
def point_commands(draw):
    command = draw(st.sampled_from(["cw exact", "cw limit", "cw shock", "cw critical-line",
                                    "cw identities", "sk rs", "sk caustic", "sk finite"]))
    argv = command.split()
    # the --flag=value form, so that argparse cannot read a negative value as a flag
    if command not in ("cw shock", "cw critical-line"):
        argv.append(f"--x={draw(_FLOATS)!r}")
    argv.append(f"--t={draw(_FLOATS)!r}")
    # each integer flag also takes the first value past its largest accepted one, and the
    # seed its largest accepted one too: refusals that a narrow range never reaches
    if command in ("cw exact", "cw identities"):
        argv.append(f"--n={draw(st.integers(-2, 3000) | st.just(2**30 + 1))}")
    if command.startswith("sk"):
        argv.append(f"--beta-h={draw(_FLOATS)!r}")
    if command == "sk finite":
        # small sizes keep the 2^n enumeration cheap
        argv += [f"--n={draw(st.integers(-1, 8) | st.just(15))}",
                 f"--samples={draw(st.integers(-1, 4) | st.just(2**20 + 1))}",
                 f"--seed={draw(st.integers(-1, 3) | st.sampled_from([2**64 - 1, 2**64]))}"]
    return argv


@given(argv=point_commands())
@example(argv=["sk", "finite", "--x=0.0", "--t=0.0", "--beta-h=3e+307", "--n=4", "--samples=2",
               "--seed=0"])
@settings(max_examples=300, deadline=None)
def test_point_commands_end_cleanly_at_any_finite_input(argv):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run_cli(argv)
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)], argv
    assert code in (0, 2, 3), argv
    if code == 2:
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1
    else:
        assert strict_json(out)["converged"] is (code == 0)
        assert err == ""


# axis ends: the extremes make linspace points whose doubling overflows
_AXIS_ENDS = st.one_of(_FLOATS, st.sampled_from([0.0, 1e308, -1e308]))
_SWEEPS = {"cw": ["limit", "exact", "identities", "shock", "critical-line"],
           "sk-rs": ["rs", "caustic"], "sk-finite": ["identities"]}


@st.composite
def sweep_commands(draw):
    model = draw(st.sampled_from(sorted(_SWEEPS)))
    argv = ["sweep", "--model", model, "--quantity", draw(st.sampled_from(_SWEEPS[model])),
            "--format", "csv"]
    for axis in ("x", "t"):
        argv += [f"--{axis}-min={draw(_AXIS_ENDS)!r}", f"--{axis}-max={draw(_AXIS_ENDS)!r}",
                 f"--n-{axis}={draw(st.integers(0, 3))}"]
    argv.append(f"--beta-h={draw(_FLOATS)!r}")
    # small sizes keep the sector sums and the 2^n enumeration cheap
    for flag, values in (("n", st.integers(-1, 8)), ("samples", st.integers(-1, 4)),
                         ("seed", st.integers(-1, 3))):
        if draw(st.booleans()):
            argv.append(f"--{flag}={draw(values)}")
    return argv


@given(argv=sweep_commands())
# the largest field whose log-weights overflowed in the enumeration
@example(argv=["sweep", "--model", "sk-finite", "--quantity", "identities", "--format", "csv",
               "--x-min=0.0", "--x-max=0.0", "--n-x=1", "--t-min=0.0", "--t-max=0.0", "--n-t=1",
               "--beta-h=8.98846567431158e+307", "--n=1", "--samples=2", "--seed=0"])
@settings(max_examples=200, deadline=None)
def test_sweeps_end_cleanly_at_any_finite_input(argv):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run_cli(argv)
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)], argv
    assert code in (0, 2, 3), argv
    if code == 2:
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1
        return
    assert err == ""
    header, rows = parse_csv(out)
    assert header[-1] == "converged" and rows
    assert all(line.count(",") == len(header) - 1 for line in out.splitlines())
    for row in rows:
        assert row["converged"] in ("true", "false")
        for column in header[:-1]:
            if column != "on_shock":
                float(row[column])
    assert (code == 0) is all(row["converged"] == "true" for row in rows)


def test_sweep_help_lists_the_sweep_table(monkeypatch):
    # a wide terminal, so that argparse does not wrap the help lines
    monkeypatch.setenv("COLUMNS", "400")
    code, out, _ = run_cli(["sweep", "--help"])
    assert code == 0
    assert f"--model {{{','.join(_SWEEPS)}}}" in out
    assert "; ".join(f"{model}: " + "|".join(q) for model, q in _SWEEPS.items()) in out
    assert list(cli._SWEEP_TABLE) == [(model, q) for model, qs in _SWEEPS.items() for q in qs]


def test_sweep_rows_are_t_major_and_csv_is_17g(tmp_path):
    argv = ["sweep", "--model", "cw", "--quantity", "limit",
            "--x-min", "-0.5", "--x-max", "0.5", "--n-x", "3",
            "--t-min", "0.5", "--t-max", "2", "--n-t", "2", "--format", "csv"]
    code, out, _ = run_cli(argv)
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["t", "x", "phi", "u", "y_star", "on_shock", "converged"]
    assert [r["t"] for r in rows] == ["0.5", "0.5", "0.5", "2", "2", "2"]
    assert [r["x"] for r in rows[:3]] == ["-0.5", "0", "0.5"]
    for row in rows:
        assert row["converged"] == "true"
        sol = lax_action(PlanePoint(float(row["x"]), float(row["t"])), branch="plus")
        # 17 significant digits round-trip doubles exactly
        assert float(row["phi"]) == sol.phi
        assert float(row["u"]) == sol.u
    on_shock_row = rows[4]
    assert on_shock_row["x"] == "0"
    assert on_shock_row["on_shock"] == "true"

    out_path = tmp_path / "sweep.csv"
    code2, out2, _ = run_cli(argv + ["--out", str(out_path)])
    assert code2 == 0
    assert out2 == ""
    assert out_path.read_text() == out


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("beta_h", ["inf", "-inf", "nan"])
@pytest.mark.parametrize("model, quantity", [("sk-rs", "rs"), ("sk-rs", "caustic"),
                                             ("sk-finite", "identities")])
def test_sweep_refuses_a_non_finite_field_before_any_row(model, quantity, beta_h, fmt):
    code, out, err = run_cli(["sweep", "--model", model, "--quantity", quantity,
                              "--t-min", "0.5", "--t-max", "0.5", "--n-t", "1",
                              f"--beta-h={beta_h}", "--n", "4", "--samples", "2", "--seed", "1",
                              "--format", fmt])
    assert code == 2
    assert out == ""
    assert err.splitlines() == [f"error: beta_h must be finite, got {float(beta_h)}"]


@pytest.mark.parametrize("where", ["missing directory", "directory"])
def test_sweep_refuses_an_unwritable_out_before_any_row(where, tmp_path, monkeypatch):
    def untouched(*args, **kwargs):
        raise AssertionError("a row was evaluated")

    monkeypatch.setattr(spinflow.hj_limit, "critical_line", untouched)
    target = tmp_path / "missing" / "x.json" if where == "missing directory" else tmp_path
    code, out, err = run_cli(["sweep", "--model", "cw", "--quantity", "critical-line",
                              "--t-min", "1.5", "--t-max", "2", "--n-t", "2",
                              "--out", str(target)])
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith(f"error: cannot write --out {target}")


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("n_t", [4096, 4097])
def test_sweep_out_file_holds_the_stdout_bytes_across_write_chunks(fmt, n_t, tmp_path):
    argv = ["sweep", "--model", "cw", "--quantity", "shock", "--t-min", "1.5", "--t-max", "3",
            "--n-t", str(n_t), "--format", fmt]
    code, out, _ = run_cli(argv)
    assert code == 0
    # a separator lost or doubled between two rows breaks the JSON or the row count
    if fmt == "json":
        rows = json.loads(out)
        assert out == json.dumps(rows, indent=2) + "\n"
    else:
        header, rows = parse_csv(out)
        assert out == "".join(",".join(line) + "\n" for line in [header, *map(dict.values, rows)])
    assert len(rows) == n_t
    target = tmp_path / f"sweep.{fmt}"
    code, printed, _ = run_cli(argv + ["--out", str(target)])
    assert (code, printed) == (0, "")
    assert target.read_bytes() == out.encode()


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_sweep_into_a_file_holds_one_small_chunk_of_text(fmt, tmp_path):
    # 64 x 64 rows written one at a time: the traced heap peaks at 339 B a row in JSON and
    # in CSV, mostly the rows themselves; a single write of all 4 096 rows read 834 and 545 B
    argv = ["sweep", "--model", "cw", "--quantity", "limit", "--x-min", "-1", "--x-max", "1",
            "--n-x", "64", "--t-min", "0.1", "--t-max", "2", "--n-t", "64", "--format", fmt,
            "--out", str(tmp_path / f"sweep.{fmt}")]
    assert run_cli(argv)[0] == 0  # imports and caches filled outside the trace
    tracemalloc.start()
    try:
        code = run_cli(argv)[0]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < 450 * 64 * 64


class WriteLog(io.StringIO):
    """A text stream that keeps each text passed to `write`."""

    def __init__(self):
        super().__init__()
        self.writes = []

    def write(self, text):
        self.writes.append(text)
        return super().write(text)


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_sweep_writes_at_most_one_row_at_a_time(fmt, monkeypatch):
    # no write holds the text of more than one row, and together the writes are the
    # standard output's bytes
    argv = ["sweep", "--model", "cw", "--quantity", "limit", "--x-min", "-1", "--x-max", "1",
            "--n-x", "64", "--t-min", "0.1", "--t-max", "2", "--n-t", "64", "--format", fmt]
    code, out, _ = run_cli(argv)
    assert code == 0
    stream = WriteLog()
    monkeypatch.setattr(cli, "_output", lambda path: contextlib.nullcontext(stream))
    assert run_cli(argv + ["--out", "unused"]) == (0, "", "")
    assert "".join(stream.writes) == out
    rows = [text.count("{") if fmt == "json" else text.count("\n") for text in stream.writes]
    assert max(rows) == 1 and sum(rows) == 64 * 64 + (fmt == "csv")


def test_sweep_degrades_per_row_and_signals_failure():
    code, out, _ = run_cli(["sweep", "--model", "cw", "--quantity", "critical-line",
                            "--t-min", "0.5", "--t-max", "2", "--n-t", "4",
                            "--format", "csv"])
    assert code == 3
    header, rows = parse_csv(out)
    assert header == ["t", "x_c", "converged"]
    assert [r["converged"] for r in rows] == ["false", "false", "true", "true"]
    assert rows[0]["x_c"] == "nan"
    assert float(rows[3]["x_c"]) == pytest.approx(-0.532840, abs=5e-7)


def test_shock_sweep_rows_are_antisymmetric():
    code, out, _ = run_cli(["sweep", "--model", "cw", "--quantity", "shock",
                            "--t-min", "1.5", "--t-max", "3", "--n-t", "4",
                            "--format", "csv"])
    assert code == 0
    _, rows = parse_csv(out)
    for row in rows:
        assert float(row["u_minus"]) + float(row["u_plus"]) == 0.0


def test_caustic_margin_sweep_touches_zero_at_the_transition():
    code, out, _ = run_cli(["sweep", "--model", "sk-rs", "--quantity", "caustic",
                            "--x-min", "0", "--x-max", "0", "--n-x", "1",
                            "--t-min", "0.5", "--t-max", "1.5", "--n-t", "3",
                            "--beta-h", "0", "--format", "csv"])
    assert code == 0
    _, rows = parse_csv(out)
    margins = [float(r["margin"]) for r in rows]
    assert margins[0] > 0.0
    assert margins[1] == pytest.approx(0.0, abs=1e-12)
    assert margins[2] > 0.0  # the solved branch restabilizes past the transition


def test_sweep_json_format_round_trips():
    code, out, _ = run_cli(["sweep", "--model", "sk-rs", "--quantity", "rs",
                            "--x-min", "0", "--x-max", "0.4", "--n-x", "2",
                            "--t-min", "0.5", "--t-max", "1.5", "--n-t", "2",
                            "--beta-h", "0.1", "--format", "json"])
    assert code == 0
    rows = json.loads(out)
    assert len(rows) == 4
    for row in rows:
        assert row["converged"] is True
        sol = rs_action(SkParams(row["x"], row["t"], 0.1))
        assert row["q_bar"] == sol.q_bar


# finite floats with the extremes and signed zero, also as numpy scalars (cw exact rows
# carry them); strings with quotes, backslashes, non-ASCII and template characters
_CELL_FLOATS = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                         st.sampled_from([-0.0, 5e-324, -5e-324, 1e308, -1e308]))
_CELLS = st.one_of(_CELL_FLOATS, _CELL_FLOATS.map(np.float64), st.integers(), st.booleans(),
                   st.none(), st.text(), st.sampled_from(['"', "\\", "é\u2028", "%s", "%"]))


@st.composite
def flat_grids(draw):
    """Columns, the value lists of the leading ones, and each row's other cells."""
    columns = draw(st.lists(st.one_of(st.text(), st.sampled_from(["%", '"', "é"])), min_size=1,
                            max_size=5, unique=True))
    lead = draw(st.integers(0, min(len(columns), 3)))
    axes = draw(st.lists(st.lists(_CELLS, max_size=3), min_size=lead, max_size=lead))
    width, count = len(columns) - lead, math.prod(map(len, axes))
    rows = draw(st.lists(st.lists(_CELLS, min_size=width, max_size=width), min_size=count,
                         max_size=count))
    return columns, axes, rows


@given(grid=flat_grids())
@example(grid=(["t", "converged"], [[]], []))
@example(grid=(["x", "x_c"], [[-0.0, np.float64(1e308)]], [[5e-324], [np.float64(-0.0)]]))
@example(grid=(["t", "x", "u"], [[0.5, 0.5], [0.0, -0.0]], [[-0.0], [0.0], [1.0], [2.0]]))
@settings(max_examples=300, deadline=None)
def test_row_writer_is_json_dumps_and_the_csv_join_byte_for_byte(grid):
    columns, axes, rows = grid
    table = [(*point, *row) for point, row in zip(itertools.product(*axes), rows, strict=True)]
    expected = {
        "json": json.dumps([dict(zip(columns, row)) for row in table], indent=2) + "\n",
        "csv": "".join(",".join(map(cli._csv_cell, row)) + "\n" for row in table),
    }
    expected["csv"] = ",".join(columns) + "\n" + expected["csv"]
    for fmt, text in expected.items():
        stream = io.StringIO()
        cli._write_rows(stream, columns, axes, rows, fmt)
        assert stream.getvalue() == text, fmt


def csv_text(value):
    """A JSON row value as a CSV cell: floats under %.17g."""
    if value is None:
        return "nan"
    if isinstance(value, bool):
        return "true" if value else "false"
    return "%.17g" % value if isinstance(value, float) else str(value)


# per sweep quantity, a grid with a failed row, and the rows that converge: the last t
# fails, except in the overlap sweeps, whose rows fail only together (--beta-h=1e308
# overflows every row's log-weights)
_MIXED_SWEEPS = [
    ("cw", "limit", ["--x-min=0.3", "--x-max=0.3", "--t-min=0.5", "--t-max=1e308"], 2),
    ("cw", "exact", ["--x-min=0.3", "--x-max=0.3", "--t-min=0.5", "--t-max=1e308", "--n=10"], 2),
    ("cw", "identities",
     ["--x-min=0.3", "--x-max=0.3", "--t-min=0.5", "--t-max=1e308", "--n=10"], 2),
    ("cw", "shock", ["--t-min=1.5", "--t-max=0.5"], 1),
    ("cw", "critical-line", ["--t-min=1.5", "--t-max=0.5"], 1),
    ("sk-rs", "rs", ["--x-min=0", "--x-max=1e308", "--t-min=0.5", "--t-max=1e308"], 1),
    ("sk-rs", "caustic", ["--x-min=0", "--x-max=1e308", "--t-min=0.5", "--t-max=1e308"], 3),
    ("sk-finite", "identities", ["--x-min=0", "--x-max=0.2", "--t-min=0.3", "--t-max=0.6",
                                 "--n=4", "--samples=4", "--seed=3"], 4),
    ("sk-finite", "identities", ["--x-min=0", "--x-max=0.2", "--t-min=0.3", "--t-max=0.6",
                                 "--n=4", "--samples=4", "--seed=3", "--beta-h=1e308"], 0),
]


def test_mixed_sweeps_cover_the_sweep_table():
    assert {(model, quantity) for model, quantity, *_ in _MIXED_SWEEPS} == set(cli._SWEEP_TABLE)


@pytest.mark.parametrize("model, quantity, grid, good", _MIXED_SWEEPS)
def test_sweep_output_is_what_json_and_17g_would_write(model, quantity, grid, good):
    argv = ["sweep", "--model", model, "--quantity", quantity, "--n-x=2", "--n-t=2", *grid]
    code, out, _ = run_cli(argv + ["--format", "json"])
    rows = strict_json(out)
    assert json.dumps(rows, indent=2) + "\n" == out
    assert [row["converged"] for row in rows] == [True] * good + [False] * (len(rows) - good)
    assert code == (0 if good == len(rows) else 3)
    code, csv_out, _ = run_cli(argv + ["--format", "csv"])
    assert code == (0 if good == len(rows) else 3)
    header, *lines = csv_out.splitlines()
    assert header.split(",") == list(rows[0])
    assert [line.split(",") for line in lines] == [[csv_text(v) for v in row.values()]
                                                   for row in rows]


# point subcommand, its sweep (model, quantity), a good input and the
# overrides that make it fail
_QUANTITIES = [
    ("cw exact", "cw", "exact", {"x": 0.2, "t": 0.5, "n": 10}, {"t": 1e308}),
    ("cw limit", "cw", "limit", {"x": 0.3, "t": 1.5}, {"t": 1e308}),
    ("cw identities", "cw", "identities", {"x": 0.2, "t": 0.5, "n": 10}, {"t": 1e308}),
    ("cw shock", "cw", "shock", {"t": 1.5}, {"t": 0.5}),
    ("cw critical-line", "cw", "critical-line", {"t": 1.5}, {"t": 0.5}),
    ("sk rs", "sk-rs", "rs", {"x": 0.3, "t": 1.2, "beta_h": 0.2},
     {"x": 1e308, "t": 1e308, "beta_h": 1e308}),
    ("sk caustic", "sk-rs", "caustic", {"x": 0.3, "t": 1.2, "beta_h": 0.2},
     {"x": 1e308, "t": 1e308, "beta_h": 1e308}),
    ("sk finite", "sk-finite", "identities",
     {"x": 0.1, "t": 0.5, "beta_h": 0.2, "n": 5, "samples": 4, "seed": 3}, {"beta_h": 1e308}),
]
_OVERLAP = ("q1", "q2", "p1", "p2", "p3", "p4")
# sweep column -> the point input it echoes
_ECHOED = {"t": "t", "x": "x", "beta_h": "beta_h", "n": "n", "n_samples": "samples",
           "seed": "seed"}


def point_argv(command, inputs):
    return command.split() + [f"--{k.replace('_', '-')}={v!r}" for k, v in inputs.items()]


def sweep_argv(model, quantity, inputs):
    argv = ["sweep", "--model", model, "--quantity", quantity, "--format", "json"]
    for key, value in inputs.items():
        if key in ("x", "t"):
            argv += [f"--{key}-min={value!r}", f"--{key}-max={value!r}", f"--n-{key}=1"]
        else:
            argv.append(f"--{key.replace('_', '-')}={value!r}")
    return argv


def point_field(record, column):
    """The field of a point record that a sweep column carries."""
    if column in _ECHOED:
        return record["input"][_ECHOED[column]]
    if column.endswith("_std_error") and column[:2] in _OVERLAP:
        return record["std_errors"][_OVERLAP.index(column[:2])]
    return record[column] if column in record else record[f"poly_{column}"]


@pytest.mark.parametrize("command, model, quantity, inputs, failing", _QUANTITIES)
def test_point_record_agrees_with_its_sweep_row(command, model, quantity, inputs, failing):
    code, out, _ = run_cli(point_argv(command, inputs))
    assert code == 0
    record = json.loads(out)
    code, out, _ = run_cli(sweep_argv(model, quantity, inputs))
    assert code == 0
    (row,) = json.loads(out)
    assert row["converged"] is True
    for column, value in row.items():
        assert value == point_field(record, column), column


@pytest.mark.parametrize("command, model, quantity, inputs, failing", _QUANTITIES)
def test_failing_point_fails_alike_in_its_sweep(command, model, quantity, inputs, failing):
    inputs = {**inputs, **failing}
    code, out, err = run_cli(point_argv(command, inputs))
    if code == 3:
        # the partial record keeps its input echo and carries no result field
        record = json.loads(out)
        assert set(record) == {"command", "version", "input", "converged", "error"}
        assert record["converged"] is False
        assert {k: record["input"][k] for k in inputs} == inputs
    else:
        assert (code, out) == (2, "") and err.startswith("error: ")
    code, out, _ = run_cli(sweep_argv(model, quantity, inputs))
    assert code == 3
    (row,) = json.loads(out)
    assert row["converged"] is False
    for column, value in row.items():
        if column in _ECHOED:
            assert value == inputs[_ECHOED[column]], column
        elif column != "converged":
            assert value is None, column


# an rs-critical-like grid whose far corner overflows, whose far edges overflow in the
# action's E log cosh only, and whose near corner converges
_WIDE_GRID = ["--x-min", "0", "--x-max", "1e308", "--n-x", "2",
              "--t-min", "0.5", "--t-max", "1e308", "--n-t", "2"]


@pytest.mark.parametrize("quantity, converged", [("rs", [True, False, False, False]),
                                                 ("caustic", [True, True, True, False])])
def test_multi_row_sweep_rows_are_their_one_row_sweeps(quantity, converged):
    # the grid is solved in lockstep; each row still has the bits of its one-row sweep
    argv = ["sweep", "--model", "sk-rs", "--quantity", quantity, *_WIDE_GRID]
    code, out, _ = run_cli(argv + ["--format", "json"])
    assert code == 3
    rows = json.loads(out)
    assert [(row["t"], row["x"]) for row in rows] == [(0.5, 0.0), (0.5, 1e308), (1e308, 0.0),
                                                        (1e308, 1e308)]
    assert [row["converged"] for row in rows] == converged
    code, csv_out, _ = run_cli(argv + ["--format", "csv"])
    assert code == 3
    header, *csv_rows = csv_out.splitlines()
    for row, csv_row in zip(rows, csv_rows, strict=True):
        one = ["sweep", "--model", "sk-rs", "--quantity", quantity,
               f"--x-min={row['x']!r}", f"--x-max={row['x']!r}", "--n-x=1",
               f"--t-min={row['t']!r}", f"--t-max={row['t']!r}", "--n-t=1"]
        code, out, _ = run_cli(one + ["--format", "json"])
        assert (code, json.loads(out)) == (0 if row["converged"] else 3, [row])
        code, out, _ = run_cli(one + ["--format", "csv"])
        assert out.splitlines() == [header, csv_row]


# per sweep quantity with an x axis: its flags, the library call a test corrupts, and
# how it corrupts one of that call's results
def _replacing(field):
    return lambda result, bad: dataclasses.replace(result, **{field: bad})


_CORRUPTED = [
    ("cw", "limit", [], "hj_limit", "lax_action", _replacing("phi")),
    ("cw", "exact", ["--n=10"], "cw_exact", "exact_fields", _replacing("u")),
    ("cw", "identities", ["--n=10"], "cw_exact", "conservation_residuals",
     lambda residuals, bad: (residuals[0], bad, residuals[2])),
    ("sk-rs", "rs", [], "sk_rs", "rs_actions", _replacing("y_star")),
    ("sk-rs", "caustic", [], "sk_rs", "caustic_margins", lambda margin, bad: bad),
    ("sk-finite", "identities", ["--n=4", "--samples=4", "--seed=3"], "sk_finite",
     "quenched_overlap_moments", _replacing("q2")),
]
_CORRUPTED_GRID = ["--x-min=0.1", "--x-max=0.3", "--n-x=2", "--t-min=0.5", "--t-max=0.7",
                   "--n-t=2"]
_CORRUPTED_POINT, _CORRUPTED_ROW = (0.3, 0.5), 1


def corrupting(call, corrupt, bad):
    """`call`, with its result at the corrupted point passed through ``corrupt(result, bad)``."""
    def one(point, result):
        return corrupt(result, bad) if (point.x, point.t) == _CORRUPTED_POINT else result

    def corrupted(points, *args, **kwargs):
        results = call(points, *args, **kwargs)
        if isinstance(points, list):  # a lockstep call, one result per point
            return [one(p, result) for p, result in zip(points, results, strict=True)]
        return one(points, results)
    return corrupted


def test_corrupted_sweeps_cover_every_quantity_with_an_x_axis():
    assert {(model, quantity) for model, quantity, *_ in _CORRUPTED} == {
        key for key, (_, columns) in cli._SWEEP_TABLE.items() if "x" in columns}


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("model, quantity, flags, module, call, corrupt", _CORRUPTED,
                         ids=[f"{model}-{quantity}" for model, quantity, *_ in _CORRUPTED])
def test_a_non_finite_field_fails_its_own_sweep_row(model, quantity, flags, module, call,
                                                    corrupt, bad, fmt, monkeypatch):
    argv = ["sweep", "--model", model, "--quantity", quantity, *_CORRUPTED_GRID, *flags,
            "--format", fmt]
    code, clean, _ = run_cli(argv)
    assert code == 0
    library = getattr(spinflow, module)
    monkeypatch.setattr(library, call, corrupting(getattr(library, call), corrupt, bad))
    code, out, _ = run_cli(argv)
    assert code == 3
    # every other row keeps its bytes
    if fmt == "csv":
        texts, clean_texts = out.splitlines()[1:], clean.splitlines()[1:]
        rows, clean_rows = parse_csv(out)[1], parse_csv(clean)[1]
        false, missing = "false", "nan"
    else:
        texts, clean_texts = out.split("\n  },\n"), clean.split("\n  },\n")
        rows, clean_rows = strict_json(out), strict_json(clean)
        false, missing = False, None
    assert len(texts) == len(clean_texts) == 4
    del texts[_CORRUPTED_ROW], clean_texts[_CORRUPTED_ROW]
    assert texts == clean_texts
    # the corrupted row alone fails, and keeps its axis and echo cells
    failed = rows[_CORRUPTED_ROW]
    assert [row["converged"] == false for row in rows] == [i == _CORRUPTED_ROW for i in range(4)]
    for column, value in failed.items():
        if column in _ECHOED:
            assert value == clean_rows[_CORRUPTED_ROW][column], column
        elif column != "converged":
            assert value == missing, column


def test_a_csv_row_without_a_value_stays_converged():
    # off x = 0 the pressure is None: CSV writes its placeholder nan, and the row converged
    code, out, _ = run_cli(["sweep", "--model", "sk-rs", "--quantity", "rs", "--x-min", "0",
                            "--x-max", "0.3", "--n-x", "2", "--t-min", "0.5", "--t-max", "0.5",
                            "--n-t", "1", "--format", "csv"])
    assert code == 0
    header, at_zero, off_zero = out.splitlines()
    assert header.endswith(",pressure,converged")
    assert "nan" not in at_zero and at_zero.endswith(",true")
    assert off_zero.startswith("0.5,0.29999999999999999,") and off_zero.endswith(",nan,true")
    assert off_zero.count("nan") == 1


# the axes of a grid whose cells repeat, or differ only in the sign of zero
@pytest.mark.parametrize("x_range, t_range", [(("-0.0", "0.0"), ("0.5", "0.5")),
                                              (("0.0", "-0.0"), ("0.5", "0.5")),
                                              (("0.0", "-0.0"), ("0.0", "-0.0")),
                                              (("-0.0", "0.0"), ("-0.0", "0.0"))])
@pytest.mark.parametrize("command, model, quantity", [("cw limit", "cw", "limit"),
                                                      ("sk rs", "sk-rs", "rs")])
def test_signed_zeros_and_repeated_axis_values_keep_their_cells(command, model, quantity,
                                                                x_range, t_range):
    # a two-point axis is its two end points as given, signed zeros included
    xs, ts = ([float(lo), float(hi)] for lo, hi in (x_range, t_range))
    columns = cli._SWEEP_TABLE[(model, quantity)][1]
    rows = []
    for t in ts:
        for x in xs:
            code, out, _ = run_cli(point_argv(command, {"x": x, "t": t}))
            assert code == 0
            record = json.loads(out)
            rows.append({column: point_field(record, column) for column in columns})
    argv = ["sweep", "--model", model, "--quantity", quantity, f"--x-min={x_range[0]}",
            f"--x-max={x_range[1]}", "--n-x=2", f"--t-min={t_range[0]}",
            f"--t-max={t_range[1]}", "--n-t=2"]
    code, out, _ = run_cli(argv + ["--format", "json"])
    assert (code, out) == (0, json.dumps(rows, indent=2) + "\n")
    assert out.count('"x": -0.0,') == 2 and out.count('"x": 0.0,') == 2
    if model == "cw":
        # the minimizer at x = 0 keeps the sign of that zero, at the start of the axis too
        assert [math.copysign(1.0, row["y_star"]) for row in rows] == [
            math.copysign(1.0, row["x"]) for row in rows]
    code, out, _ = run_cli(argv + ["--format", "csv"])
    assert (code, out) == (0, ",".join(columns) + "\n" + "".join(
        ",".join(csv_text(v) for v in row.values()) + "\n" for row in rows))


def test_convergence_report_action_rate():
    code, out, _ = run_cli(["convergence", "--model", "cw-action",
                            "--x", "0.3", "--t", "0.5", "--n-list", "50,100,200,400"])
    assert code == 0
    report = json.loads(out)
    assert [entry["n"] for entry in report["entries"]] == [50, 100, 200, 400]
    assert all(entry["error"] > 0.0 for entry in report["entries"])
    assert report["slope"] <= -0.85
    assert len(report["ratios"]) == 3


def test_convergence_report_identity_rate():
    code, out, _ = run_cli(["convergence", "--model", "sk-identities",
                            "--x", "0", "--t", "0.36", "--n-list", "4,6,8",
                            "--samples", "60", "--seed", "5"])
    assert code == 0
    report = json.loads(out)
    errors = [entry["error"] for entry in report["entries"]]
    assert errors[-1] < errors[0]


_SK_LADDER = ["convergence", "--model", "sk-identities", "--x", "0", "--t", "0.36",
              "--samples", "6", "--seed", "5"]


def test_sk_identity_ladder_is_one_library_call(monkeypatch):
    code, clean, _ = run_cli([*_SK_LADDER, "--n-list", "4,5,6,7"])
    assert code == 0
    ladder, calls = spinflow.sk_finite.quenched_overlap_ladder, []

    def counted(*args):
        calls.append(args)
        return ladder(*args)

    def untouched(*args, **kwargs):
        raise AssertionError("a size was computed on its own")

    monkeypatch.setattr(spinflow.sk_finite, "quenched_overlap_ladder", counted)
    monkeypatch.setattr(spinflow.sk_finite, "quenched_overlap_moments", untouched)
    assert run_cli([*_SK_LADDER, "--n-list", "4,5,6,7"]) == (0, clean, "")
    assert [args[1] for args in calls] == [[4, 5, 6, 7]]


def test_sk_identity_ladder_refuses_an_invalid_size_as_the_point_query_does(monkeypatch):
    def untouched(*args):
        raise AssertionError("a sample was enumerated")

    point = run_cli(["sk", "finite", "--x", "0", "--t", "0.36", "--n", "15",
                     "--samples", "6", "--seed", "5"])
    assert point[:2] == (2, "")
    assert point[2] == "error: site count must be in [1, 14] (2^n enumeration), got 15\n"
    monkeypatch.setattr(spinflow.sk_finite, "_sample_statistics", untouched)
    assert run_cli([*_SK_LADDER, "--n-list", "4,8,15"]) == point


def test_overflowing_sk_identity_ladder_names_its_smallest_overflowing_size():
    # beta_h = 3e307 overflows the log-weights from n = 3 up
    point = ["sk", "finite", "--x", "0", "--t", "0", "--beta-h", "3e307", "--samples", "2",
             "--seed", "0"]
    assert run_cli([*point, "--n", "2"])[0] == 0
    code, out, _ = run_cli([*point, "--n", "3"])
    assert code == 3
    error = strict_json(out)["error"]
    assert "n=3," in error
    code, out, err = run_cli(["convergence", "--model", "sk-identities", "--x", "0", "--t", "0",
                              "--beta-h", "3e307", "--n-list", "2,3,4,5", "--samples", "2",
                              "--seed", "0"])
    assert (code, err) == (3, "")
    assert strict_json(out)["error"] == error


def test_version_flag():
    code, out, _ = run_cli(["--version"])
    assert code == 0
    assert spinflow.__version__ in out
