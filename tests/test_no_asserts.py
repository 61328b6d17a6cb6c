"""Runtime invariants in the package raise typed errors: `python -O` strips
every `assert` statement, so none may guard a check in `src/streamscope`."""

import ast
from pathlib import Path

import streamscope

PACKAGE = Path(streamscope.__file__).parent


def test_package_has_no_assert_statements():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert len(list(PACKAGE.glob("*.py"))) > 5
    assert found == []
