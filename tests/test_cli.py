"""End-to-end command-line behavior, run in process."""

from __future__ import annotations

import json

import pytest

import minrank.cli
from minrank import BruteReport, ContractViolationError, crossed_partition_instance, dumps, loads
from minrank.cli import main

FIXTURE = dumps(crossed_partition_instance(weights=(5, 4, 4, 1)))
PLAIN = dumps(crossed_partition_instance())


@pytest.fixture()
def fixture_file(tmp_path):
    path = tmp_path / "crossed.json"
    path.write_text(FIXTURE)
    return str(path)


@pytest.fixture()
def plain_file(tmp_path):
    path = tmp_path / "plain.json"
    path.write_text(PLAIN)
    return str(path)


# -- solve -----------------------------------------------------------------------


def test_solve_cardinality(fixture_file, capsys):
    assert main(["solve", fixture_file]) == 0
    out = capsys.readouterr()
    lines = out.out.splitlines()
    assert "mode: cardinality" in lines
    assert "n: 4" in lines
    assert "size: 2" in lines
    assert "witness: {0,3}" in lines
    assert "dual value: 2" in lines
    assert any(l.startswith("oracle queries: ") for l in lines)
    assert "access class: oracle-only" in out.err


def test_solve_cardinality_trace(fixture_file, capsys):
    assert main(["solve", fixture_file, "--trace"]) == 0
    out = capsys.readouterr().out
    trace_lines = [l for l in out.splitlines() if l.startswith("trace: ")]
    assert len(trace_lines) == 3
    assert trace_lines[0].startswith("trace: k=0 augment")
    assert trace_lines[-1].startswith("trace: k=2 certificate")


def test_solve_weighted(fixture_file, capsys):
    assert main(
        ["solve", fixture_file, "--mode", "weighted", "--promise", "no-circuit-inclusion"]
    ) == 0
    lines = capsys.readouterr().out.splitlines()
    assert "level k=0: weight 0 set {}" in lines
    assert "level k=1: weight 5 set {0}" in lines
    assert "level k=2: weight 8 set {1,2}" in lines
    assert "best: k=2 weight 8 set {1,2}" in lines
    assert "certificate: {0,1,2,3}" in lines


def test_solve_weighted_requires_promise(fixture_file, capsys):
    assert main(["solve", fixture_file, "--mode", "weighted"]) == 2
    assert "no-circuit-inclusion" in capsys.readouterr().err


def test_solve_fpt(fixture_file, capsys):
    assert main(["solve", fixture_file, "--mode", "fpt", "--gamma", "2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert "gamma: 2" in lines
    assert "best: k=2 weight 8 set {1,2}" in lines


def test_solve_fpt_gamma_validation(fixture_file, capsys):
    assert main(["solve", fixture_file, "--mode", "fpt"]) == 2
    assert main(["solve", fixture_file, "--mode", "fpt", "--gamma", "1"]) == 2
    out = capsys.readouterr()
    # Both refusals come before any result line.
    assert out.out == ""
    assert "--mode fpt requires --gamma" in out.err
    assert "--gamma must be at least 2" in out.err


def test_solve_lexmax(fixture_file, capsys):
    assert main(["solve", fixture_file, "--mode", "lexmax"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert "classes: 5 4 1" in lines
    assert "vector: 1 0 1" in lines
    assert "witness: {0,3}" in lines
    assert "weight: 6" in lines


def test_solve_approx(fixture_file, capsys):
    assert main(["solve", fixture_file, "--mode", "approx"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert "witness: {0,3}" in lines
    assert "weight: 6" in lines
    assert "guarantee: 5/8" in lines
    assert "alpha: 5/4" in lines


def test_solve_unweighted_file_defaults_to_ones(plain_file, capsys):
    assert main(
        ["solve", plain_file, "--mode", "weighted", "--promise", "no-circuit-inclusion"]
    ) == 0
    lines = capsys.readouterr().out.splitlines()
    assert "level k=2: weight 2 set {0,3}" in lines


def test_solve_prints_names_from_the_instance_file(tmp_path, capsys):
    named = crossed_partition_instance(weights=(5, 4, 4, 1))._replace(
        names=("a", "b", "c", "d")
    )
    path = tmp_path / "named.json"
    path.write_text(dumps(named))
    assert main(["solve", str(path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert "witness: {a,d}" in lines
    assert "dual set: {a,b,c,d}" in lines
    assert main(
        ["solve", str(path), "--mode", "weighted", "--promise", "no-circuit-inclusion"]
    ) == 0
    lines = capsys.readouterr().out.splitlines()
    assert "level k=1: weight 5 set {a}" in lines
    assert "best: k=2 weight 8 set {b,c}" in lines
    assert "certificate: {a,b,c,d}" in lines


def test_solve_missing_file(tmp_path, capsys):
    assert main(["solve", str(tmp_path / "nope.json")]) == 2
    assert "cannot read" in capsys.readouterr().err


def test_solve_non_integer_n_is_usage_error(tmp_path, capsys):
    path = tmp_path / "bad-n.json"
    path.write_text(json.dumps({**json.loads(PLAIN), "n": "x"}))
    assert main(["solve", str(path)]) == 2
    assert "n: expected an integer" in capsys.readouterr().err


def test_solve_non_integer_matroid_field_is_usage_error(tmp_path, capsys):
    doc = json.loads(PLAIN)
    doc["matroid1"] = {"kind": "uniform", "k": 2.7, "n": doc["n"]}
    path = tmp_path / "bad-k.json"
    path.write_text(json.dumps(doc))
    assert main(["solve", str(path)]) == 2
    assert "matroid1: k: expected an integer, got 2.7" in capsys.readouterr().err


def test_solve_bad_mode_is_argparse_usage(fixture_file, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["solve", fixture_file, "--mode", "bogus"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_solve_contract_violation_exit_code(fixture_file, capsys, monkeypatch):
    def boom(o):
        raise ContractViolationError("forced for the exit-code path")

    monkeypatch.setattr("minrank.cli.max_cardinality", boom)
    assert main(["solve", fixture_file]) == 3
    assert "contract violation" in capsys.readouterr().err


def test_solve_deterministic_output(fixture_file, capsys):
    assert main(["solve", fixture_file, "--mode", "lexmax", "--trace"]) == 0
    first = capsys.readouterr()
    assert main(["solve", fixture_file, "--mode", "lexmax", "--trace"]) == 0
    second = capsys.readouterr()
    assert first.out == second.out
    assert first.err == second.err


# -- verify ----------------------------------------------------------------------


def test_verify_fixture_file(fixture_file, capsys):
    assert main(["verify", fixture_file]) == 0
    out = capsys.readouterr()
    lines = out.out.splitlines()
    assert lines[-1].startswith("all passed: 1 instances,")
    assert any(l.endswith("checks)") and ": ok (" in l for l in lines)
    assert "hidden-ranks" in out.err


def test_verify_seeded_batch(capsys):
    assert main(["verify", "--seeded", "3", "--size", "6"]) == 0
    out = capsys.readouterr().out
    assert "all passed: 3 instances," in out
    assert "seed=0: ok (" in out


def test_verify_seeded_zero_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--seeded", "0"])
    assert exc.value.code == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert "--seeded wants a positive count" in out.err


def test_verify_reports_a_mismatch(fixture_file, monkeypatch, capsys):
    """A cardinality run that stops one set short of the maximum is caught:
    each failed check prints a [MISMATCH] line, the batch ends with FAIL,
    and the exit code is 1."""
    real = minrank.cli.max_cardinality

    def short(o):
        run = real(o)
        return run._replace(sets=run.sets[:-1])

    monkeypatch.setattr(minrank.cli, "max_cardinality", short)
    assert main(["verify", fixture_file]) == 1
    lines = capsys.readouterr().out.splitlines()
    mismatches = [l for l in lines if l.startswith("[MISMATCH] ")]
    assert mismatches and any(": max-common-size brute=2 solver=1" in l for l in mismatches)
    assert lines[-2].startswith(f"{fixture_file}: {len(mismatches)} MISMATCH (")
    assert lines[-1] == f"FAIL: {len(mismatches)} mismatches across 1 instances"


def test_verify_wants_exactly_one_input(fixture_file, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit):
        main(["verify", fixture_file, "--seeded", "2"])
    capsys.readouterr()


def test_verify_rejects_large_instance(tmp_path, capsys):
    from minrank import random_instance

    big = tmp_path / "big.json"
    big.write_text(dumps(random_instance(0, 18)))
    assert main(["verify", str(big)]) == 2
    assert "n <= 16" in capsys.readouterr().err


@pytest.mark.parametrize(
    "size, seed, reason",
    [
        (-3, 0, "ground set size -3 is negative"),
        (13, 2, "explicit generation"),
        (16, 0, "explicit generation"),
    ],
)
def test_verify_seeded_unbuildable_size_is_usage_error(size, seed, reason, capsys):
    assert main(["verify", "--seeded", "25", "--size", str(size)]) == 2
    err = capsys.readouterr().err
    assert f"--size {size}, seed={seed}: " in err
    assert reason in err


# -- graph -----------------------------------------------------------------------


def test_graph_consistent_dot(fixture_file, capsys):
    assert main(["graph", fixture_file, "--set", "{0}"]) == 0
    out = capsys.readouterr()
    assert out.out.startswith("digraph")
    assert "access class: oracle-only" in out.err


def test_graph_true_uses_hidden_ranks(fixture_file, capsys):
    assert main(["graph", fixture_file, "--set", "{0,3}", "--which", "true"]) == 0
    out = capsys.readouterr()
    assert out.out.startswith("digraph")
    assert "hidden-ranks" in out.err
    assert "solid" in out.out  # true arcs are sure arcs


def test_graph_escapes_names_in_labels(tmp_path, capsys):
    """Names come from the instance file; a quote or a backslash in one is
    escaped, so each label stays one DOT string."""
    named = crossed_partition_instance()._replace(names=('a"b', "c\\", "d", "e"))
    path = tmp_path / "q.json"
    path.write_text(dumps(named))
    assert main(["graph", str(path), "--set", "{0}", "--which", "true"]) == 0
    out = capsys.readouterr().out
    assert 'v0 [label="a\\"b", ' in out
    assert 'v1 [label="c\\\\", ' in out


def test_graph_accepts_bare_masks(fixture_file, capsys):
    assert main(["graph", fixture_file, "--set", "9", "--which", "true"]) == 0
    assert main(["graph", fixture_file, "--set", "0b1001", "--which", "true"]) == 0
    capsys.readouterr()


def test_graph_rejects_dependent_set(fixture_file, capsys):
    assert main(["graph", fixture_file, "--set", "{0,1}"]) == 2
    assert "not a common independent set" in capsys.readouterr().err


def test_graph_rejects_unparseable_or_oversized_set(fixture_file, capsys):
    assert main(["graph", fixture_file, "--set", "{0,x}"]) == 2
    assert main(["graph", fixture_file, "--set", "{0,9}"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("which", ["modified", "intersected", "consistent"])
def test_graph_infeasible_at_maximum(fixture_file, capsys, which):
    assert main(["graph", fixture_file, "--set", "{0,3}", "--which", which]) == 1
    err = capsys.readouterr().err
    assert "no probe pair: every pairwise extension is flat" in err


# -- gadget ----------------------------------------------------------------------


def test_gadget_single_edge(tmp_path, capsys):
    gpath = tmp_path / "edge.json"
    gpath.write_text(json.dumps({"vertices": 2, "edges": [[0, 1]]}))
    assert main(["gadget", "--graph", str(gpath)]) == 0
    out = capsys.readouterr()
    inst = loads(out.out)
    assert inst.n == 16
    assert inst.matroid1.kind == "linear-rational"
    assert "gadget ok: n=16 k=6" in out.err
    assert "coloring: chose" in out.err


def test_gadget_explicit_coloring_file(tmp_path, capsys):
    gpath = tmp_path / "edge.json"
    gpath.write_text(json.dumps({"vertices": 2, "edges": [[0, 1]]}))
    cpath = tmp_path / "c.json"
    cpath.write_text(json.dumps([[2, 2], [2, 1]]))
    assert main(["gadget", "--graph", str(gpath), "--coloring", str(cpath)]) == 0
    out = capsys.readouterr()
    assert loads(out.out).n == 16
    assert "coloring: chose" not in out.err


def test_gadget_rejects_improper_coloring(tmp_path, capsys):
    gpath = tmp_path / "edge.json"
    gpath.write_text(
        json.dumps({"vertices": 2, "edges": [[0, 1]], "coloring": [[1, 1], [1, 1]]})
    )
    assert main(["gadget", "--graph", str(gpath)]) == 2
    assert "not proper" in capsys.readouterr().err


def test_gadget_rejects_bad_edges_without_coloring(tmp_path, capsys):
    """A self-loop, a duplicate edge or an edge out of range is a usage
    error (exit 2), whether or not a coloring is given."""
    for edges, message in (
        ([[0, 0]], "self-loops"),
        ([[0, 1], [1, 0]], "duplicate edge"),
        ([[0, 5]], "outside vertex range"),
    ):
        gpath = tmp_path / "bad-edges.json"
        gpath.write_text(json.dumps({"vertices": 2, "edges": edges}))
        assert main(["gadget", "--graph", str(gpath)]) == 2
        assert message in capsys.readouterr().err


def test_gadget_rejects_non_integer_numbers(tmp_path, capsys):
    """Vertex counts, edge endpoints and coloring entries must be JSON
    integers: a float or a bool is a usage error, never truncated."""
    for graph in (
        {"vertices": 3.9, "edges": [[0, 1], [1, 2]]},
        {"vertices": 3, "edges": [[0, 1.7], [1, 2]]},
        {"vertices": True, "edges": []},
        {"vertices": 2, "edges": [[0, True]]},
        {"vertices": "2", "edges": [[0, 1]]},
        {"vertices": 2, "edges": [[0, 1]], "coloring": [[2, 2], [2.0, 1]]},
        {"vertices": 2, "edges": [[0, 1]], "coloring": [[2, 2], [False, 1]]},
    ):
        gpath = tmp_path / "bad-numbers.json"
        gpath.write_text(json.dumps(graph))
        assert main(["gadget", "--graph", str(gpath)]) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert "expected an integer" in out.err


def test_gadget_rejects_negative_vertex_count(tmp_path, capsys):
    """A negative vertex count is a usage error, not an uncolorable graph.
    Zero or one vertex builds a gadget with a loop, which no subcommand
    could load, so it is refused before anything is printed."""
    gpath = tmp_path / "negative.json"
    gpath.write_text(json.dumps({"vertices": -1, "edges": []}))
    assert main(["gadget", "--graph", str(gpath)]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert "vertex count -1 is negative" in out.err
    assert "no proper 4-coloring" not in out.err
    for vertices in (0, 1):
        gpath.write_text(json.dumps({"vertices": vertices, "edges": []}))
        assert main(["gadget", "--graph", str(gpath)]) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert "element 0 is a loop" in out.err
        assert "gadget ok" not in out.err


def test_gadget_reports_failed_checks(tmp_path, monkeypatch, capsys):
    """A failed gadget check still emits the instance on stdout, then says
    FAIL on stderr and exits 1."""
    real = minrank.cli.verify_gadget

    def one_wrong(gi):
        return real(gi) + [BruteReport.check("gadget", "forced", 0, 1)]

    monkeypatch.setattr(minrank.cli, "verify_gadget", one_wrong)
    gpath = tmp_path / "edge.json"
    gpath.write_text(json.dumps({"vertices": 2, "edges": [[0, 1]]}))
    assert main(["gadget", "--graph", str(gpath)]) == 1
    out = capsys.readouterr()
    assert loads(out.out).n == 16
    assert "[MISMATCH] gadget: forced brute=0 solver=1" in out.err
    assert out.err.splitlines()[-1] == "FAIL: 1 gadget checks mismatched"


def test_gadget_infeasible_without_four_coloring(tmp_path, capsys):
    # K5 admits no proper 4-coloring.
    edges = [[u, v] for u in range(5) for v in range(u + 1, 5)]
    gpath = tmp_path / "k5.json"
    gpath.write_text(json.dumps({"vertices": 5, "edges": edges}))
    assert main(["gadget", "--graph", str(gpath)]) == 1
    assert "no proper 4-coloring" in capsys.readouterr().err


def test_gadget_beyond_verification_cap_still_emits(tmp_path, capsys):
    square = {"vertices": 4, "edges": [[0, 1], [1, 2], [2, 3], [3, 0]]}
    gpath = tmp_path / "square.json"
    gpath.write_text(json.dumps(square))
    assert main(["gadget", "--graph", str(gpath)]) == 0
    out = capsys.readouterr()
    assert loads(out.out).n == 42
    assert "verification skipped" in out.err
    assert "gadget ok: n=42" in out.err


def test_gadget_too_large_for_instance_format(tmp_path, capsys):
    path_graph = {"vertices": 8, "edges": [[i, i + 1] for i in range(6)]}
    gpath = tmp_path / "wide.json"
    gpath.write_text(json.dumps(path_graph))
    assert main(["gadget", "--graph", str(gpath)]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert "at most 64" in out.err


def test_gadget_bad_graph_file(tmp_path, capsys):
    gpath = tmp_path / "bad.json"
    gpath.write_text("[]")
    assert main(["gadget", "--graph", str(gpath)]) == 2
    capsys.readouterr()


# -- bench -----------------------------------------------------------------------


def test_bench_small_sizes(capsys):
    assert main(["bench", "--sizes", "6,8"]) == 0
    out = capsys.readouterr().out
    assert "cardinality envelope" in out
    assert "weighted envelope" in out
    assert out.count("max C:") == 2


def test_bench_deterministic(capsys):
    assert main(["bench", "--sizes", "6"]) == 0
    first = capsys.readouterr().out
    assert main(["bench", "--sizes", "6"]) == 0
    assert capsys.readouterr().out == first


def test_bench_rejects_bad_sizes(capsys):
    assert main(["bench", "--sizes", "1,8"]) == 2
    assert main(["bench", "--sizes", "abc"]) == 2
    capsys.readouterr()
