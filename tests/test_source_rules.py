"""Rules about the package source that no behavioural test can see."""

import ast
from pathlib import Path

import stirlingexp


def test_no_assert_statement_in_the_package():
    # python -O strips assert, so it cannot serve as a runtime guard
    paths = sorted(Path(stirlingexp.__file__).parent.rglob("*.py"))
    assert len(paths) >= 6
    found = []
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Assert)
        ]
    assert found == []
