"""Library statements that no Tier-1 test executes.

    python3 tools/unexecuted.py

Runs the Tier-1 suite once in this process through ``pytest.main``, with a
line tracer on the files of ``src/spinflow`` (``sys.settrace``, and
``threading.settrace`` for the threads the tests start), then prints ``<file>:<line>`` for every statement
that no test executed, docstrings left out, and a last line with the count.
Only this process is traced: a statement that only a test's subprocess
reaches is listed too.  Those tests are the cold-start checks, the
acceptance criteria's command-line runs (``python -m spinflow.cli``) and
the demos.  A traced run takes 30 s to a minute on a 2-core host, so it
is never part of Tier-1.  The exit status is pytest's.
"""

from __future__ import annotations

import ast
import os
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
LIBRARY = ROOT / "src" / "spinflow"


def _is_docstring(node: ast.stmt) -> bool:
    return (isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
            and isinstance(node.value.value, str))


def statements(source: str) -> dict[int, set[int]]:
    """Each statement's first line, mapped to the lines that are its own.

    A statement owns its lines (from its first decorator, if any, to its
    end) except those of the statements nested in it, so a compound
    statement owns its header.  Docstrings are left out.
    """
    tree = ast.parse(source)
    scopes = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
    docstrings = {id(node.body[0]) for node in ast.walk(tree)
                  if isinstance(node, scopes) and node.body and _is_docstring(node.body[0])}
    owned = {}
    for node in ast.walk(tree):
        if not isinstance(node, ast.stmt) or id(node) in docstrings:
            continue
        start = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
        lines = set(range(start, node.end_lineno + 1))
        for child in ast.walk(node):
            if child is not node and isinstance(child, ast.stmt):
                lines -= set(range(child.lineno, child.end_lineno + 1))
        owned[node.lineno] = lines
    return owned


def traced_lines(files, run):
    """Run ``run()`` under a line tracer; return its result and the (file, line) pairs hit."""
    watched = {os.path.realpath(f) for f in files}
    hit = set()
    seen = {}  # co_filename -> whether it is watched

    def local(frame, event, arg):
        if event == "line":
            hit.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def start(frame, event, arg):
        # called at each new frame; only those of the watched files get a local tracer,
        # so the rest run at full speed
        name = frame.f_code.co_filename
        if name not in seen:
            seen[name] = os.path.realpath(name) in watched
        if seen[name]:
            hit.add((name, frame.f_lineno))
            return local
        return None

    previous = sys.gettrace(), threading.gettrace()
    sys.settrace(start)
    threading.settrace(start)
    try:
        result = run()
    finally:
        sys.settrace(previous[0])
        threading.settrace(previous[1])
    return result, {(os.path.realpath(f), line) for f, line in hit}


def missed_statements(files, hit) -> list[tuple[str, int]]:
    """(file, first line) of every statement in ``files`` that owns no line of ``hit``."""
    missed = []
    for path in sorted(files):
        real = os.path.realpath(path)
        lines = {line for f, line in hit if f == real}
        missed += [(str(path), first) for first, owned in
                   sorted(statements(Path(path).read_text()).items()) if not owned & lines]
    return missed


def main() -> int:
    import pytest

    files = sorted(LIBRARY.glob("*.py"))
    # pytest imports the library (from src, by pyproject.toml) under the tracer, so its
    # module-level statements count
    os.chdir(ROOT)
    code, hit = traced_lines(files, lambda: pytest.main(["-q", "-p", "no:cacheprovider"]))
    missed = missed_statements(files, hit)
    for path, line in missed:
        print(f"{Path(path).relative_to(ROOT)}:{line}")
    print(f"{len(missed)} statements not executed in this process")
    return int(code)


if __name__ == "__main__":
    sys.exit(main())
