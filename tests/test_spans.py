"""Static audit: every package name the benchmark tracer hooks exists.

`perfbench/spans.py` wraps functions and methods by name, and its own
tests run outside the tier-1 suite. This test reads that file without
importing it, so a refactor that drops or renames a hooked name fails here.
"""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _hooked() -> dict[str, tuple]:
    tree = ast.parse(SPANS.read_text(encoding="utf-8"))
    return {
        node.targets[0].id: ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign)
        and isinstance(node.targets[0], ast.Name)
        and node.targets[0].id in ("FUNCTIONS", "METHODS", "SOLVERS")
    }


def _resolves(module: str, *path: str) -> bool:
    obj = importlib.import_module(module)
    for attr in path:
        obj = getattr(obj, attr, None)
    return callable(obj)


def test_every_hooked_name_resolves():
    hooked = _hooked()
    names = [(module, name) for _, module, name in hooked["FUNCTIONS"]]
    names += [(module, cls, name) for _, module, cls, name in hooked["METHODS"]]
    names += [("minrank.solvers", name) for name in hooked["SOLVERS"]]
    assert len(names) >= 15
    assert [".".join(n) for n in names if not _resolves(*n)] == []
