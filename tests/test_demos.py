"""Smoke tests of the demo scripts and of the README's command lines against the current API."""

import contextlib
import io
import os
import pathlib
import shlex
import subprocess
import sys

import pytest

import spinflow
from spinflow import cli

ROOT = pathlib.Path(__file__).parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def readme_command_lines() -> list:
    """The `spinflow ...` lines of the README's command-line block, continuations joined."""
    text = (ROOT / "README.md").read_text()
    block = text.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = block.replace("\\\n", " ").splitlines()
    return [" ".join(line.split()) for line in lines if line.startswith("spinflow ")]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_runs_cleanly(demo):
    # a fresh interpreter, with the package under test first on the path
    src = os.path.dirname(os.path.dirname(spinflow.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", str(demo)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip()


def test_the_readme_block_holds_every_command():
    assert len(readme_command_lines()) == 10


@pytest.mark.parametrize("line", readme_command_lines())
def test_readme_command_line_runs(line, tmp_path, monkeypatch):
    # in process, in a scratch directory for the sweep's --out file
    monkeypatch.chdir(tmp_path)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(shlex.split(line)[1:])
    assert (code, err.getvalue()) == (0, "")
    written = [path.read_text() for path in tmp_path.iterdir()]
    assert out.getvalue().strip() or any(text.strip() for text in written)
