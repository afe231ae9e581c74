"""numpy stays where ROADMAP's baseline puts it: `racg.word_ball`'s
int64 matrix products and `gen_random_flag`'s Philox stream.  The exact
kernels work on Python ints only, which is why no entry can overflow."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "srcox"


def _imports_numpy(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or ""]
        else:
            continue
        if any(n.split(".")[0] == "numpy" for n in names):
            return True
    return False


def test_numpy_only_in_racg_and_complex_core():
    files = sorted(SRC.rglob("*.py"))
    assert files
    found = [str(path.relative_to(SRC)) for path in files
             if _imports_numpy(ast.parse(path.read_text(), str(path)))]
    assert found == ["complex_core.py", "racg.py"]
