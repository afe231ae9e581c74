"""Invariants in the library raise errors: `python -O` strips asserts."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "srcox"


def test_no_assert_statements_in_library():
    files = sorted(SRC.rglob("*.py"))
    assert files
    found = [f"{path.relative_to(SRC)}:{node.lineno}"
             for path in files
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Assert)]
    assert found == []
