"""Checks on the test suite itself and on the imports of the library."""

import ast
import sys
from pathlib import Path


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


def test_library_imports_only_numpy_and_the_standard_library():
    # numpy is the one runtime dependency (pyproject.toml), function-local imports included
    modules = sorted((Path(__file__).parents[1] / "src" / "spinflow").glob("*.py"))
    assert "cli.py" in {path.name for path in modules}
    allowed = sys.stdlib_module_names | {"numpy"}
    offenders = {path.name: sorted(imported_modules(path) - allowed) for path in modules}
    assert {name: names for name, names in offenders.items() if names} == {}
