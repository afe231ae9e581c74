"""Bits are counted with `int.bit_count`: `bin(x).count("1")` builds a
string of every bit, so it costs O(n) per mask on wide outputs."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "srcox"


def test_no_string_bit_counts_in_library():
    files = sorted(SRC.rglob("*.py"))
    assert files
    found = [f"{path.relative_to(SRC)}:{node.lineno}"
             for path in files
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Call)
             and isinstance(node.func, ast.Attribute)
             and node.func.attr == "count"
             and [getattr(a, "value", None) for a in node.args] == ["1"]]
    assert found == []
