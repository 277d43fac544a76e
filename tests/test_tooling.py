"""Checks on the test suite itself, on the imports of the library and on its tools."""

import ast
import contextlib
import hashlib
import importlib.util
import io
import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

from spinflow import cli

ROOT = Path(__file__).resolve().parents[1]


def imported_modules(path: Path) -> set:
    # the top-level name of every module an import statement in the file names
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            names.add(node.module.split(".")[0])
    return names


def test_no_test_module_imports_mpmath():
    # mpmath is not a dependency: high-precision references are frozen as literals
    modules = sorted(Path(__file__).parent.rglob("*.py"))
    assert Path(__file__) in modules
    offenders = [path.name for path in modules if "mpmath" in imported_modules(path)]
    assert offenders == []


def test_every_relative_approx_check_states_its_absolute_floor():
    # pytest.approx(v, rel=r) alone adds a default abs of 1e-12, which sets the
    # tolerance wherever |v| r is below it: rel 1e-15 on log cosh 0.5 checked 8e-12
    modules = sorted(Path(__file__).parent.rglob("*.py"))
    offenders = []
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Call) and getattr(node.func, "attr",
                                                      getattr(node.func, "id", None)) == "approx":
                given = {keyword.arg for keyword in node.keywords}
                if "rel" in given and "abs" not in given:
                    offenders.append(f"{path.name}:{node.lineno}")
    assert offenders == []


def test_library_imports_only_numpy_and_the_standard_library():
    # numpy is the one runtime dependency (pyproject.toml), function-local imports included;
    # a module may import the package itself by its top-level name
    modules = sorted((Path(__file__).parents[1] / "src" / "spinflow").glob("*.py"))
    assert "cli.py" in {path.name for path in modules}
    allowed = sys.stdlib_module_names | {"numpy", "spinflow"}
    offenders = {path.name: sorted(imported_modules(path) - allowed) for path in modules}
    assert {name: names for name, names in offenders.items() if names} == {}


def test_step_digests_hash_every_step_of_a_workload_and_all_of_them(monkeypatch):
    done = subprocess.run([sys.executable, str(ROOT / "tools" / "step_digests.py"),
                           "--workload", "rs-critical", "--seed", "1"],
                          capture_output=True, text=True, check=True, timeout=300)
    *lines, combined = done.stdout.splitlines()
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    from workloads import plan

    steps = plan("rs-critical", 1)
    assert [line.rsplit(" ", 1)[0] for line in lines] == [f"rs-critical 1 {s.name}" for s in steps]
    joined = "".join(line + "\n" for line in lines).encode()
    assert combined == f"combined {hashlib.sha256(joined).hexdigest()}"
    # a command step's digest is that of its exit code and output as JSON
    (caustic,) = [step for step in steps if step.name == "caustic"]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(list(caustic.argv))
    record = json.dumps({"exit": code, "stdout": out.getvalue(), "stderr": ""}, sort_keys=True)
    assert f"rs-critical 1 caustic {hashlib.sha256(record.encode()).hexdigest()}" in lines


@pytest.mark.skipif(importlib.util.find_spec("mpmath") is None, reason="needs mpmath")
def test_cw_references_prints_the_50_digit_sector_sums():
    # n = 3: Z = 2 e^(3t/2) cosh(3x) + 6 e^(t/6) cosh(x) over its four sectors
    done = subprocess.run([sys.executable, str(ROOT / "tools" / "cw_references.py"),
                           "0.25", "0.5", "3"], capture_output=True, text=True, check=True,
                          timeout=60)
    x, t, n, *fields = done.stdout.split()
    assert (x, t, n) == ("0.25", "0.5", "3")
    assert fields == [
        "-0.83402971388829530089256669325931971334436623406851",
        "-0.33017932289909161166266581149787629552675132514281",
        "0.20061319918308306842682972677903939378995119396712",
        "0.33017932289909161166266581149787629552675132514281",
        "0.51024478363626873917135776042614585244131297970662",
        "0.29019592540007687243360343938061391129530709131232",
        "0.45582753737363193241261973380682872493479219967402"]
    z = 2.0 * math.exp(0.75) * math.cosh(0.75) + 6.0 * math.exp(0.5 / 6.0) * math.cosh(0.25)
    assert float(fields[0]) == pytest.approx(-math.log(z) / 3.0, rel=1e-15, abs=0)
    # --errors: one line a field, the library's relative error next to the same reference;
    # at x = 0 the odd moments' reference is 0 and the error the library's |value|
    done = subprocess.run([sys.executable, str(ROOT / "tools" / "cw_references.py"), "--errors",
                           "0.25", "0.5", "3", "0", "0.5", "3"], capture_output=True, text=True,
                          check=True, timeout=60)
    lines = [line.split() for line in done.stdout.splitlines()]
    names = ["phi", "u", "potential", "m1", "m2", "m3", "m4"]
    assert [line[:4] for line in lines] == [[x, t, n, name] for x in ("0.25", "0.0") for name in names]
    assert [line[4] for line in lines[:7]] == fields
    errors = [float(line[5]) for line in lines]
    assert all(0.0 <= error < 1e-15 for error in errors)
    assert [errors[i] for i in (8, 10, 12)] == [0.0, 0.0, 0.0]


def test_unexecuted_lists_the_statement_a_run_does_not_reach(tmp_path):
    spec = importlib.util.spec_from_file_location("unexecuted", ROOT / "tools" / "unexecuted.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    source = tmp_path / "branchy.py"
    source.write_text('"""Module docstring."""\n\n\ndef sign(x):\n    """Docstring."""\n'
                      "    if x > 0:\n        return 1\n    return -1\n")

    def run():
        # imported under the tracer, so that the module's own statements count
        module_spec = importlib.util.spec_from_file_location("branchy", source)
        module = importlib.util.module_from_spec(module_spec)
        module_spec.loader.exec_module(module)
        return module.sign(2.0)

    result, hit = tool.traced_lines([source], run)
    assert result == 1
    # the branch not taken is listed; the docstrings, the def and the taken branch are not
    assert tool.missed_statements([source], hit) == [(str(source), 8)]
