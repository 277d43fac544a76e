"""Command-line front end: records, sweeps, convergence reports, exit codes."""

import contextlib
import io
import json
import math

import numpy as np
import pytest

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
    assert record["input"] == {"x": 0.2, "t": 0.5, "n": 10, "k_max": 4}
    assert record["converged"] is True
    fields = exact_fields(PlanePoint(0.2, 0.5), 10)
    assert record["phi"] == fields.phi
    assert record["u"] == fields.u
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
    ]
    for argv in cases:
        code, out, err = run_cli(argv)
        assert code == 2, argv
        assert out == ""
        diagnostic = [line for line in err.splitlines() if line]
        assert len(diagnostic) <= 2  # argparse may add a usage line
        assert "error" in diagnostic[-1]


def test_numerical_failure_exits_3_with_partial_record(monkeypatch):
    def explode(params):
        raise spinflow.ConvergenceError("fixed point stalled", residual=0.5)

    monkeypatch.setattr(cli.sk_rs, "rs_action", explode)
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
    assert record["input"] == {"x": 0.3, "t": 1e308, "n": 10, "k_max": 4}
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


@pytest.mark.parametrize("argv", [
    ["cw", "shock", "--t", "1e308"],
    ["convergence", "--model", "cw-velocity", "--x", "0.3", "--t", "1e308",
     "--n-list", "10,20,40"],
    ["cw", "critical-line", "--t", "1e308"],
])
def test_extreme_coupling_ends_cleanly(argv):
    code, out, err = run_cli(argv)
    assert code in (0, 3)
    record = strict_json(out)
    assert record["converged"] is (code == 0)
    assert "Traceback" not in err


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


def test_version_flag():
    code, out, _ = run_cli(["--version"])
    assert code == 0
    assert spinflow.__version__ in out
