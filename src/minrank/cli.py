"""Command-line front end.

Subcommands: ``solve`` (oracle-only solver dispatch), ``verify``
(brute-force cross-checks, the hidden-rank path), ``graph`` (DOT emission
of exchange graphs), ``gadget`` (coloring-hardness instances), and
``bench`` (oracle-call ledger against the r*n^2 and r^3*n^2 envelopes).

Exit codes: 0 success, 1 infeasible or mismatch, 2 usage, 3 internal
contract violation. Results go to stdout; logs — including which rank
access class ran — go to stderr. Output bytes are deterministic for fixed
flags and seeds.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from typing import Sequence, TextIO

from .bitset import format_set, full_mask, mask_of, parse_set, popcount
from .consistency import almost_consistent_graph
from .core import PartitionMatroid
from .errors import ContractViolationError
from .exchange import (
    ExchangeGraph,
    build_modified_graph,
    build_true_graph,
    intersect_modified,
    survey_extensions,
)
from .gadgets import ColoredGraph, _proper_colorings, build_gadget, verify_gadget
from .instances import (
    Instance,
    InstanceError,
    _json_int,
    _rng,
    dumps,
    load,
    random_instance,
)
from .oracle import MinRankOracle
from .solvers import (
    WeightedRun,
    approx_max_weight,
    class_vector,
    lexicographic_max,
    max_cardinality,
    total_weight,
    weight_classes,
    weighted_fpt_circuit,
    weighted_no_circuit_inclusion,
)
from .verify import (
    BruteReport,
    audit_graphs,
    brute_table,
)

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_USAGE = 2
EXIT_CONTRACT = 3


class UsageError(Exception):
    """Bad flags or a bad input file; maps to exit code 2."""


class Infeasible(Exception):
    """A well-formed request with no answer; maps to exit code 1."""


def _log(msg: str) -> None:
    print(msg, file=sys.stderr)


def _parse_mask(text: str, n: int) -> int:
    """Accept '{0,3}', '0,3', or a bare integer mask like '9' / '0b1001'."""
    body = text.strip()
    try:
        if body.startswith("{") or "," in body:
            mask = parse_set(body)
        else:
            mask = int(body, 0)
    except ValueError as exc:
        raise UsageError(f"cannot parse set {text!r}: {exc}") from exc
    if mask < 0 or mask & ~full_mask(n):
        raise UsageError(f"set {text!r} leaves the ground set of size {n}")
    return mask


def _load(path: str) -> Instance:
    try:
        return load(path)
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc}") from exc
    except InstanceError as exc:
        raise UsageError(f"{path}: {exc}") from exc


def _print_levels(run: WeightedRun, names: tuple[str, ...] | None, out: TextIO) -> None:
    for lv in run.levels:
        print(f"level k={lv.k}: weight {lv.weight} set {format_set(lv.I, names)}", file=out)
    best = run.best
    print(f"best: k={best.k} weight {best.weight} set {format_set(best.I, names)}", file=out)
    print(f"certificate: {format_set(run.certificate, names)}", file=out)


def _cmd_solve(args: argparse.Namespace) -> int:
    inst = _load(args.instance)
    if args.mode == "weighted" and args.promise != "no-circuit-inclusion":
        raise UsageError("--mode weighted requires --promise no-circuit-inclusion")
    if args.mode == "fpt" and args.gamma is None:
        raise UsageError("--mode fpt requires --gamma")
    _log("access class: oracle-only")
    o = MinRankOracle(inst.matroid1, inst.matroid2)
    w = inst.weight_vector()
    out = sys.stdout
    print(f"mode: {args.mode}", file=out)
    print(f"n: {inst.n}", file=out)
    trace: tuple = ()
    if args.mode == "cardinality":
        run = max_cardinality(o)
        print(f"size: {popcount(run.I)}", file=out)
        print(f"witness: {format_set(run.I, inst.names)}", file=out)
        dual = o.rmin(run.Z) + o.rmin(full_mask(inst.n) & ~run.Z)
        print(f"dual set: {format_set(run.Z, inst.names)}", file=out)
        print(f"dual value: {dual}", file=out)
        print(f"oracle queries: {run.queries}", file=out)
        trace = run.trace
    elif args.mode == "weighted":
        wrun = weighted_no_circuit_inclusion(o, w)
        _print_levels(wrun, inst.names, out)
        print(f"oracle queries: {wrun.queries}", file=out)
        trace = wrun.trace
    elif args.mode == "fpt":
        if args.gamma < 2:
            raise UsageError("--gamma must be at least 2")
        wrun = weighted_fpt_circuit(o, w, args.gamma)
        print(f"gamma: {args.gamma}", file=out)
        _print_levels(wrun, inst.names, out)
        print(f"oracle queries: {wrun.queries}", file=out)
        trace = wrun.trace
    elif args.mode == "lexmax":
        lrun = lexicographic_max(o, w)
        classes = weight_classes(w, full_mask(inst.n))
        print(f"classes: {' '.join(str(c) for c in classes)}", file=out)
        print(f"vector: {' '.join(str(c) for c in lrun.vector)}", file=out)
        print(f"witness: {format_set(lrun.I, inst.names)}", file=out)
        print(f"weight: {total_weight(w, lrun.I)}", file=out)
        print(f"oracle queries: {lrun.queries}", file=out)
        trace = lrun.trace
    else:  # approx
        arun = approx_max_weight(o, w)
        print(f"witness: {format_set(arun.I, inst.names)}", file=out)
        print(f"weight: {arun.weight}", file=out)
        print(f"guarantee: {arun.guarantee}", file=out)
        print(f"alpha: {arun.alpha if arun.alpha is not None else 'n/a'}", file=out)
        print(f"oracle queries: {arun.queries}", file=out)
    if args.trace:
        for step in trace:
            print(f"trace: {step}", file=out)
    return EXIT_OK


# -- verify ---------------------------------------------------------------------


def cardinality_trajectory(m1, m2) -> list[int]:
    """Every common independent set the cardinality solver passes through,
    from the empty set to its maximum."""
    return list(max_cardinality(MinRankOracle(m1, m2)).sets)


def _verify_instance(inst: Instance, label: str) -> list[BruteReport]:
    """Every solver result on one instance, cross-checked by brute force."""
    m1, m2, n = inst.matroid1, inst.matroid2, inst.n
    if n > 16:
        raise UsageError(f"{label}: verify needs n <= 16 (brute-force enumeration)")
    reports: list[BruteReport] = []

    def make(quantity: str, brute: object, solver: object) -> None:
        reports.append(BruteReport.check(label, quantity, brute, solver))

    o = MinRankOracle(m1, m2)
    run = max_cardinality(o)
    table = brute_table(m1, m2)
    # The dual read raises unless its value is the largest common set's size.
    size, _ = table.dual()
    make("max-common-size", size, popcount(run.I))
    make("dual-certificate-value", size, o.rmin(run.Z) + o.rmin(full_mask(n) & ~run.Z))

    w = inst.weight_vector()
    if n <= 8:
        for I in run.sets:
            reports.extend(audit_graphs(m1, m2, I, instance=label))

    if n <= 12:
        if table.no_circuit_inclusion():
            wrun = weighted_no_circuit_inclusion(MinRankOracle(m1, m2), w)
            for lv in wrun.levels:
                best, _ = table.w_maximal(w, lv.k)
                make(f"promise-weight-k{lv.k}", best, lv.weight)
                if n <= 8:
                    reports.extend(audit_graphs(m1, m2, lv.I, w=w, instance=label))
        gamma = table.largest_circuit()
        if gamma <= 4:
            frun = weighted_fpt_circuit(MinRankOracle(m1, m2), w, max(gamma, 2))
            for lv in frun.levels:
                best, _ = table.w_maximal(w, lv.k)
                make(f"fpt-weight-k{lv.k}", best, lv.weight)
        lrun = lexicographic_max(MinRankOracle(m1, m2), w)
        best_vec, _ = table.lexmax(w)
        make("lexmax-vector", best_vec, lrun.vector)
        classes = weight_classes(w, full_mask(n))
        make("lexmax-vector-of-witness", best_vec, class_vector(w, classes, lrun.I))
    return reports


def _cmd_verify(args: argparse.Namespace) -> int:
    _log("access class: hidden-ranks (brute-force cross-checks)")
    out = sys.stdout
    batches: list[tuple[str, Instance]] = []
    if args.instance is not None:
        batches.append((args.instance, _load(args.instance)))
    else:
        for i in range(args.seeded):
            try:
                inst = random_instance(i, args.size, weighted=True)
            except ValueError as exc:
                raise UsageError(f"--size {args.size}, seed={i}: {exc}") from exc
            batches.append((f"seed={i}", inst))
    failures = 0
    checks = 0
    for label, inst in batches:
        reports = _verify_instance(inst, label)
        checks += len(reports)
        bad = [r for r in reports if not r.ok]
        failures += len(bad)
        for r in bad:
            print(str(r), file=out)
        status = "ok" if not bad else f"{len(bad)} MISMATCH"
        print(f"{label}: {status} ({len(reports)} checks)", file=out)
    if failures:
        print(f"FAIL: {failures} mismatches across {len(batches)} instances", file=out)
        return EXIT_MISMATCH
    print(f"all passed: {len(batches)} instances, {checks} checks", file=out)
    return EXIT_OK


# -- graph ----------------------------------------------------------------------


def _cmd_graph(args: argparse.Namespace) -> int:
    inst = _load(args.instance)
    I = _parse_mask(args.set, inst.n)
    o = MinRankOracle(inst.matroid1, inst.matroid2)
    if not o.is_common_independent(I):
        raise UsageError(f"--set {format_set(I)} is not a common independent set")
    g: ExchangeGraph
    if args.which == "true":
        _log("access class: hidden-ranks (true exchange graph)")
        g = build_true_graph(inst.matroid1, inst.matroid2, I)
    else:
        _log("access class: oracle-only")
        survey = survey_extensions(o, I)
        if survey.pair is None:
            raise Infeasible("no probe pair: every pairwise extension is flat")
        builder = {
            "modified": build_modified_graph,
            "intersected": intersect_modified,
            "consistent": almost_consistent_graph,
        }[args.which]
        g = builder(o, I, survey.pair)
    sys.stdout.write(g.to_dot(inst.names))
    return EXIT_OK


# -- gadget ---------------------------------------------------------------------


def _read_json(path: str, what: str) -> object:
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise UsageError(f"{what} {path}: invalid JSON: {exc}") from exc


def _cmd_gadget(args: argparse.Namespace) -> int:
    doc = _read_json(args.graph, "graph file")
    if not isinstance(doc, dict) or "vertices" not in doc or "edges" not in doc:
        raise UsageError(f"{args.graph}: expected {{'vertices': V, 'edges': [[u,v],...]}}")
    try:
        vertices = _json_int(doc["vertices"])
        edges = tuple((_json_int(u), _json_int(v)) for u, v in doc["edges"])
    except (TypeError, ValueError) as exc:
        raise UsageError(f"{args.graph}: {exc}") from exc
    raw = doc.get("coloring")
    if args.coloring is not None:
        raw = _read_json(args.coloring, "coloring file")
    if raw is not None:
        try:
            coloring = tuple((_json_int(i), _json_int(j)) for i, j in raw)
        except (TypeError, ValueError) as exc:
            raise UsageError(f"coloring: {exc}") from exc
    else:
        try:
            coloring = next(_proper_colorings(ColoredGraph(vertices, edges)), None)
        except ValueError as exc:
            raise UsageError(str(exc)) from exc
        if coloring is None:
            raise Infeasible("graph admits no proper 4-coloring with paired colors")
        _log(f"coloring: chose {list(coloring)}")
    try:
        gi = build_gadget(ColoredGraph(vertices, edges, coloring))
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    if gi.n <= 40:
        _log("access class: hidden-ranks (gadget verification)")
        reports = verify_gadget(gi)
        bad = [r for r in reports if not r.ok]
        for r in reports:
            _log(str(r))
    else:
        _log(f"verification skipped: n={gi.n} exceeds the 40-column exact-rank cap")
        reports, bad = [], []
    sys.stdout.write(
        dumps(Instance(gi.n, *gi.as_matroids(), None, gi.names))
    )
    if bad:
        _log(f"FAIL: {len(bad)} gadget checks mismatched")
        return EXIT_MISMATCH
    _log(f"gadget ok: n={gi.n} k={gi.k} ({len(reports)} checks)")
    return EXIT_OK


# -- bench ----------------------------------------------------------------------


def _grid_promise_instance(n: int, seed: int) -> Instance:
    """A partition pair satisfying the circuit-inclusion promise by
    construction: rows versus columns of an a x b grid, all capacities one.
    Circuits are same-row or same-column pairs, and no pair is both."""
    a = max(d for d in range(1, int(n**0.5) + 1) if n % d == 0)
    b = n // a
    rows = [mask_of(range(i * b, (i + 1) * b)) for i in range(a)]
    cols = [mask_of(range(j, n, b)) for j in range(b)]
    rng = _rng("bench-weights", seed, n)
    weights = tuple(Fraction(rng.randint(1, 8)) for _ in range(n))
    return Instance(
        n,
        PartitionMatroid(n, rows, [1] * a),
        PartitionMatroid(n, cols, [1] * b),
        weights,
        None,
    )


def _ledger_row(n: int, seed: int, r: int, queries: int, envelope: int) -> dict:
    """One envelope ledger row; C = queries / envelope."""
    return {
        "n": n,
        "seed": seed,
        "r": r,
        "queries": queries,
        "envelope": envelope,
        "C": queries / envelope,
    }


def bench_cardinality(sizes: Sequence[int]) -> list[dict]:
    """Ledger rows for the cardinality envelope C = queries / (r * n^2)."""
    rows = []
    for n in sizes:
        for s in (0, 1):
            inst = random_instance(10_000 + s, n, kinds=("partition",))
            o = MinRankOracle(inst.matroid1, inst.matroid2)
            run = max_cardinality(o)
            r = max(1, popcount(run.I))
            rows.append(_ledger_row(n, s, r, run.queries, r * n * n))
    return rows


def bench_weighted(sizes: Sequence[int]) -> list[dict]:
    """Ledger rows for the promise-weighted envelope C = queries / (r^3 n^2)."""
    rows = []
    for n in sizes:
        inst = _grid_promise_instance(n, 0)
        o = MinRankOracle(inst.matroid1, inst.matroid2)
        run = weighted_no_circuit_inclusion(o, inst.weight_vector())
        r = max(1, max(lv.k for lv in run.levels))
        rows.append(_ledger_row(n, 0, r, run.queries, r**3 * n * n))
    return rows


def _print_bench(title: str, rows: list[dict], out: TextIO) -> None:
    print(title, file=out)
    print(f"  {'n':>4} {'seed':>4} {'r':>4} {'queries':>10} {'envelope':>10} {'C':>8}", file=out)
    for row in rows:
        print(
            f"  {row['n']:>4} {row['seed']:>4} {row['r']:>4}"
            f" {row['queries']:>10} {row['envelope']:>10} {row['C']:>8.3f}",
            file=out,
        )
    print(f"  max C: {max(row['C'] for row in rows):.3f}", file=out)


def _cmd_bench(args: argparse.Namespace) -> int:
    _log("access class: oracle-only")
    try:
        sizes = [int(tok) for tok in args.sizes.split(",") if tok.strip()]
    except ValueError as exc:
        raise UsageError(f"--sizes: {exc}") from exc
    if not sizes or any(n < 2 or n > 64 for n in sizes):
        raise UsageError("--sizes wants comma-separated integers in 2..64")
    out = sys.stdout
    _print_bench(
        "cardinality envelope: queries <= C * r * n^2 (seeded partition pairs)",
        bench_cardinality(sizes),
        out,
    )
    _print_bench(
        "weighted envelope: queries <= C * r^3 * n^2 (grid promise pairs)",
        bench_weighted(sizes),
        out,
    )
    return EXIT_OK


# -- entry points ----------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="minrank",
        description="Matroid intersection through a pointwise-minimum rank oracle.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="run a solver through the oracle only")
    p_solve.add_argument("instance", help="instance file (JSON)")
    p_solve.add_argument(
        "--mode",
        choices=("cardinality", "weighted", "fpt", "lexmax", "approx"),
        default="cardinality",
    )
    p_solve.add_argument(
        "--promise",
        choices=("no-circuit-inclusion",),
        help="required by --mode weighted; asserts the circuit promise",
    )
    p_solve.add_argument("--gamma", type=int, help="circuit-size bound for --mode fpt")
    p_solve.add_argument("--trace", action="store_true", help="print per-step trace")
    p_solve.set_defaults(func=_cmd_solve)

    p_verify = sub.add_parser(
        "verify", help="cross-check solvers against brute force (hidden ranks)"
    )
    p_verify.add_argument("instance", nargs="?", help="instance file (JSON)")
    p_verify.add_argument(
        "--seeded", type=int, default=None, metavar="COUNT",
        help="verify COUNT seeded random instances instead of a file",
    )
    p_verify.add_argument(
        "--size", type=int, default=6, help="ground-set size for --seeded (default 6)"
    )
    p_verify.set_defaults(func=_cmd_verify)

    p_graph = sub.add_parser("graph", help="emit an exchange graph as DOT")
    p_graph.add_argument("instance", help="instance file (JSON)")
    p_graph.add_argument("--set", required=True, help="common independent set, e.g. '{0,3}' or a mask")
    p_graph.add_argument(
        "--which",
        choices=("true", "modified", "intersected", "consistent"),
        default="consistent",
    )
    p_graph.set_defaults(func=_cmd_graph)

    p_gadget = sub.add_parser(
        "gadget", help="build a coloring-hardness instance from a graph"
    )
    p_gadget.add_argument("--graph", required=True, help="JSON {'vertices': V, 'edges': [[u,v],...]}")
    p_gadget.add_argument("--coloring", help="JSON [[i,j],...] paired colors, one per vertex")
    p_gadget.set_defaults(func=_cmd_gadget)

    p_bench = sub.add_parser("bench", help="oracle-call ledger vs complexity envelopes")
    p_bench.add_argument(
        "--sizes", default="8,16,32,48,64", help="comma-separated ground-set sizes"
    )
    p_bench.set_defaults(func=_cmd_bench)
    return parser


def run(argv: Sequence[str]) -> int:
    parser = build_parser()
    args = parser.parse_args(list(argv))
    if args.command == "verify":
        if (args.instance is None) == (args.seeded is None):
            parser.error("verify wants exactly one of INSTANCE or --seeded COUNT")
        if args.seeded is not None and args.seeded < 1:
            parser.error("--seeded wants a positive count")
    return args.func(args)


def main(argv: Sequence[str] | None = None) -> int:
    try:
        return run(sys.argv[1:] if argv is None else argv)
    except UsageError as exc:
        _log(f"error: {exc}")
        return EXIT_USAGE
    except Infeasible as exc:
        _log(f"infeasible: {exc}")
        return EXIT_MISMATCH
    except ContractViolationError as exc:
        _log(f"contract violation: {exc}")
        return EXIT_CONTRACT


if __name__ == "__main__":
    sys.exit(main())
