"""Static audit: the solver side asks the oracle through one checked ask.

In `exchange`, `consistency` and `solvers`, every `.rmin(...)` or
`.is_common_independent(...)` call sits in `exchange._expect`, which holds
the answer to its range and names the mask when it breaks the matroid
contract, or in one of the functions of `ALLOWED`, for the reason given
there. A new ask elsewhere would read an answer no check holds.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import minrank

SOLVER_SIDE = ("exchange", "consistency", "solvers")
ASKS = {"rmin", "is_common_independent"}
ALLOWED = {
    "_expect": "the one checked ask",
    "_check_certificate": "names every answer it asked",
    "_validate_candidate": "an answer only rejects a guessed path",
    "_fpt_augment": "an answer only rejects a guessed certificate",
    # A range check here fails three clause-compiler tests that pin how
    # out-of-range answers compile (ROADMAP, negative results).
    "ObservationTable.value": "unchecked; a range check is a recorded negative result",
}


def _raw_asks(source: str) -> list[str]:
    """Every oracle ask outside `ALLOWED`, as 'line N: .name( in scope', where
    scope is the dotted name of the innermost enclosing function or class."""
    found = []

    def visit(node: ast.AST, scope: tuple[str, ...]) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, (*scope, child.name))
                continue
            if (
                isinstance(child, ast.Call)
                and isinstance(child.func, ast.Attribute)
                and child.func.attr in ASKS
                and ".".join(scope) not in ALLOWED
            ):
                found.append(f"line {child.lineno}: .{child.func.attr}( in {'.'.join(scope)}")
            visit(child, scope)

    visit(ast.parse(source), ())
    return found


@pytest.mark.parametrize("name", SOLVER_SIDE, ids=lambda m: f"minrank.{m}")
def test_every_ask_is_checked_or_named(name):
    path = Path(minrank.__file__).parent / f"{name}.py"
    assert _raw_asks(path.read_text(encoding="utf-8")) == []


def test_the_detector_flags_a_raw_ask():
    source = '''
def _expect(o, X, lo, hi, why):
    return o.rmin(X)

def _survey(o, I):
    return [o.rmin(I | 1), _expect(o, I, 0, 1, str)]

class ObservationTable:
    def value(self, key):
        return self.o.rmin(key)

    def other(self, key):
        return self.o.is_common_independent(key)

def _fpt_augment(o, Z):
    def inner():
        return o.rmin(Z)
    return o.rmin(Z) + inner()
'''
    assert _raw_asks(source) == [
        "line 6: .rmin( in _survey",
        "line 13: .is_common_independent( in ObservationTable.other",
        "line 17: .rmin( in _fpt_augment.inner",
    ]
