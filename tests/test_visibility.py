"""Static audit: solver-side code must only see the joint oracle.

The algorithms operate under an access discipline — they may ask for the
smaller of the two ranks on any subset, but never for an individual
matroid's rank, independence, or circuits. These tests parse the solver-side
sources (`exchange`, `consistency`, `solvers`) and fail if any such access
creeps in, or if they import a module that may make it, so the boundary is
enforced mechanically rather than by convention.
"""

from __future__ import annotations

import ast
import inspect

import pytest

import minrank.consistency
import minrank.exchange
import minrank.gadgets
import minrank.solvers
import minrank.verify

FORBIDDEN_ATTRS = {"_m1", "_m2", "rank", "is_independent", "fundamental_circuit"}
FORBIDDEN_NAMES = {"build_true_graph"}
SOLVER_SIDE = (minrank.exchange, minrank.consistency, minrank.solvers)
# Modules that see both matroids, or load and run whole instances.
JUDGES = {"verify", "gadgets", "instances", "cli"}


def _module_tree(module) -> ast.Module:
    return ast.parse(inspect.getsource(module))


def _violations(tree: ast.AST) -> list[str]:
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr in FORBIDDEN_ATTRS:
            found.append(f"line {node.lineno}: attribute .{node.attr}")
        elif isinstance(node, ast.Name) and node.id in FORBIDDEN_NAMES:
            found.append(f"line {node.lineno}: name {node.id}")
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names = {alias.name for alias in node.names}
            target = getattr(node, "module", None) or ""
            if "core" in target.split(".") or any(
                n.split(".")[-1] == "core" for n in names
            ):
                found.append(f"line {node.lineno}: imports core module")
            if names & FORBIDDEN_NAMES:
                found.append(f"line {node.lineno}: imports {names & FORBIDDEN_NAMES}")
    return found


def test_solvers_never_touch_hidden_ranks():
    assert _violations(_module_tree(minrank.solvers)) == []


def test_consistency_never_touches_hidden_ranks():
    assert _violations(_module_tree(minrank.consistency)) == []


def test_exchange_never_touches_hidden_ranks():
    assert _violations(_module_tree(minrank.exchange)) == []


def test_true_graph_builder_does_use_hidden_ranks():
    """The audit is not blind: it flags the verification-side builder."""
    builders = [
        node
        for node in _module_tree(minrank.verify).body
        if isinstance(node, ast.FunctionDef) and node.name == "build_true_graph"
    ]
    assert len(builders) == 1
    assert _violations(builders[0]) != []


def _imported_modules(tree: ast.AST) -> set[str]:
    """The last dotted component of every module an import statement names,
    at any depth; `from . import x` and `from minrank import x` name x."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found.update(alias.name.split(".")[-1] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            if node.module:
                found.add(node.module.split(".")[-1])
            if node.module in (None, "minrank"):
                found.update(alias.name for alias in node.names)
    return found


@pytest.mark.parametrize("module", SOLVER_SIDE, ids=lambda m: m.__name__)
def test_solver_side_imports_no_judge(module):
    """A judge (which may read hidden ranks) cannot reach solver code through
    a re-export if solver code imports no judge module at all."""
    assert _imported_modules(_module_tree(module)) & JUDGES == set()


def test_import_audit_sees_a_judge_import():
    assert "verify" in _imported_modules(_module_tree(minrank.gadgets))


def test_consistency_takes_only_the_graph_type_from_exchange():
    """The resolver is handed a built graph: the graph builders stay in
    `exchange`, and the weighted driver in `solvers` composes the two."""
    taken = []
    for node in ast.walk(_module_tree(minrank.consistency)):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            whole = (getattr(node, "module", None) or "").split(".")[-1] == "exchange"
            names = [alias.name for alias in node.names]
            taken += names if whole else [n for n in names if n.endswith("exchange")]
    assert taken == ["ExchangeGraph"]
