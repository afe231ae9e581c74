"""Enumeration budgets are module constants read when a routine runs, so
a test can monkeypatch one low and see the routine stop.  A parameter
default or a by-name import binds the value once, at definition or
import time, and no later patch reaches it."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "srcox"
BUDGETS = {"FACE_BUDGET", "CANDIDATE_CAP", "TOWER_BIT_BUDGET"}


def _trees():
    files = sorted(SRC.rglob("*.py"))
    assert files
    return [(path.relative_to(SRC), ast.parse(path.read_text(), str(path)))
            for path in files]


def _budget_name(node):
    if isinstance(node, ast.Name):
        return node.id if node.id in BUDGETS else None
    if isinstance(node, ast.Attribute):
        return node.attr if node.attr in BUDGETS else None
    return None


def test_every_budget_is_defined_once():
    defined = [name.id for _, tree in _trees() for node in tree.body
               if isinstance(node, ast.Assign)
               for name in node.targets
               if isinstance(name, ast.Name) and name.id in BUDGETS]
    assert sorted(defined) == sorted(BUDGETS)


def test_no_budget_as_parameter_default():
    found = [f"{rel}:{node.lineno} {name}"
             for rel, tree in _trees()
             for node in ast.walk(tree)
             if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.Lambda))
             for default in node.args.defaults + node.args.kw_defaults
             if default is not None
             and (name := _budget_name(default))]
    assert found == []


def test_no_budget_imported_by_name():
    found = [f"{rel}:{node.lineno} {alias.name}"
             for rel, tree in _trees()
             for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom)
             for alias in node.names
             if alias.name in BUDGETS]
    assert found == []
