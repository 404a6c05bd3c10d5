"""Static audit: no module of the package keeps a check in an `assert`.

`python -O` strips asserts, so a check that guards a result, a
construction, an input or the oracle's contract must raise instead. The
only asserts allowed narrow a type for the reader and the type
checker: ``assert isinstance(...)`` and ``assert ... is not None``, alone
or joined by ``and``.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import minrank

MODULES = sorted(Path(minrank.__file__).parent.glob("*.py"))


def _narrows(test: ast.expr) -> bool:
    if isinstance(test, ast.BoolOp) and isinstance(test.op, ast.And):
        return all(_narrows(v) for v in test.values)
    if isinstance(test, ast.Call):
        return isinstance(test.func, ast.Name) and test.func.id == "isinstance"
    return (
        isinstance(test, ast.Compare)
        and len(test.ops) == 1
        and isinstance(test.ops[0], ast.IsNot)
        and isinstance(test.comparators[0], ast.Constant)
        and test.comparators[0].value is None
    )


def _checking_asserts(source: str) -> list[str]:
    tree = ast.parse(source)
    return [
        f"line {node.lineno}: assert {ast.unparse(node.test)}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Assert) and not _narrows(node.test)
    ]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: f"minrank.{p.stem}")
def test_no_check_lives_in_an_assert(path):
    assert _checking_asserts(path.read_text(encoding="utf-8")) == []


def test_narrowing_rule():
    def narrows(src: str) -> bool:
        return _narrows(ast.parse(src).body[0].test)

    assert narrows("assert isinstance(x, int)")
    assert narrows("assert x is not None")
    assert narrows("assert isinstance(a, int) and isinstance(b, int)")
    assert not narrows("assert v1 or v2")
    assert not narrows("assert x is None")
    assert not narrows("assert len(x) == 2")
