"""Static audit: every name a package module imports is used in it.

An import nobody reads hides the module's real dependencies. The package
`__init__` is exempt, since it imports names to re-export them; its
`__all__` is checked to list only those names, and pinned to a literal list.
"""

from __future__ import annotations

import ast
import types
from pathlib import Path

import pytest

import minrank

MODULES = sorted(
    p for p in Path(minrank.__file__).parent.glob("*.py") if p.name != "__init__.py"
)


def _unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [
        f"line {line}: {name}"
        for name, line in sorted(imported.items(), key=lambda item: item[1])
        if name not in used
    ]


def test_audit_sees_an_unused_import():
    source = "from os import path, sep\n\nprint(sep)\n"
    assert _unused_imports(source) == ["line 1: path"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_every_import_is_used(path):
    assert _unused_imports(path.read_text(encoding="utf-8")) == []


def test_all_lists_only_the_reexported_api():
    # getattr raises for a listed name the package does not bind.
    exported = {name: getattr(minrank, name) for name in minrank.__all__}
    assert "annotations" not in exported
    assert [n for n, v in exported.items() if isinstance(v, types.ModuleType)] == []


# The package root's API, sorted. A name joins or leaves it only on purpose:
# internals are imported from their own module.
EXPORTED = [
    "ApproxResult", "AugmentStep", "BruteReport", "CardinalityRun", "ColoredGraph",
    "ContractViolationError", "ExchangeGraph", "ExplicitMatroid", "ExtensionSurvey",
    "GENERATOR_KINDS", "GadgetInstance", "GraphicMatroid", "Instance", "InstanceError",
    "Level", "LexmaxRun", "LinearMatroid", "Matroid", "MinRankOracle",
    "NegativeCycleError", "PartitionMatroid", "RestrictedOracle", "StarPair",
    "UniformMatroid", "ValidationReport", "WeightedRun", "almost_consistent_graph",
    "approx_max_weight", "audit_graphs", "bit", "brute_dual", "brute_lexmax",
    "brute_max_common", "brute_w_maximal", "build_gadget", "build_modified_graph",
    "build_true_graph", "check_promise_no_circuit_inclusion",
    "colorings_from_consistent_graphs", "common_independent_sets",
    "crossed_partition_instance", "dumps", "elements_of", "format_set", "full_mask",
    "intersect_modified", "iter_bits", "lexicographic_max",
    "load", "loads", "mask_of", "max_cardinality", "parse_set", "popcount",
    "proper_four_colorings", "random_fpt_instance", "random_instance",
    "random_lexmax_instance", "random_promise_instance", "save", "survey_extensions",
    "validate", "verify_gadget", "weighted_fpt_circuit",
    "weighted_no_circuit_inclusion",
]


def test_all_is_the_pinned_api():
    assert len(EXPORTED) == 65
    assert sorted(minrank.__all__) == EXPORTED
