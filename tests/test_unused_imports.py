"""No program module imports a name it never uses.

No linter ships with this repository, so this test is the guard: it parses
every non-``__init__`` module under ``src/repro`` and fails on a top-level
import whose bound name appears nowhere else in the module.  An import kept
on purpose (a re-export) carries ``# noqa: F401`` on its line.
"""

import ast
from pathlib import Path

SOURCE = Path(__file__).resolve().parent.parent / "src" / "repro"


def _unused_imports(path):
    text = path.read_text(encoding="utf-8")
    lines = text.splitlines()
    tree = ast.parse(text)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = []
    for node in tree.body:
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        span = lines[node.lineno - 1:node.end_lineno]
        if any("# noqa: F401" in line for line in span):
            continue
        for alias in node.names:
            name = (alias.asname or alias.name).split(".")[0]
            if name not in used:
                unused.append(f"{path.relative_to(SOURCE)}:{node.lineno} "
                              f"{name}")
    return unused


def test_program_modules_use_every_import():
    modules = sorted(path for path in SOURCE.rglob("*.py")
                     if path.name != "__init__.py")
    assert modules
    unused = [entry for path in modules for entry in _unused_imports(path)]
    assert unused == []
