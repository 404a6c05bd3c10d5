"""The ten-point acceptance gate.

Each test exercises one guarantee at desk scale against brute force or an
explicit envelope, prints a single [PASS]/[FAIL] line (visible under
``pytest -s``), and fails hard on any violation.
"""

from __future__ import annotations

import random
import re
import time
from fractions import Fraction
from functools import lru_cache

from minrank import (
    ColoredGraph,
    ExchangeGraph,
    MinRankOracle,
    StarPair,
    approx_max_weight,
    bit,
    build_gadget,
    build_true_graph,
    colorings_from_consistent_graphs,
    full_mask,
    intersect_modified,
    iter_bits,
    lexicographic_max,
    max_cardinality,
    popcount,
    random_fpt_instance,
    random_instance,
    random_lexmax_instance,
    random_promise_instance,
    survey_extensions,
    verify_gadget,
    weighted_fpt_circuit,
    weighted_no_circuit_inclusion,
)
from minrank.cli import bench_cardinality, bench_weighted, main
from minrank.consistency import TwoSat, solve_2sat
from minrank.verify import (
    audit_graphs,
    brute_dual,
    brute_lexmax,
    brute_max_common,
    brute_w_maximal,
    common_independent_sets,
)


def _criterion(num: int, violations: list[str], detail: str, elapsed: float) -> None:
    ok = not violations
    verdict = "PASS" if ok else "FAIL"
    print(f"[{verdict}] criterion {num}: {detail} ({elapsed:.1f}s)")
    assert ok, f"criterion {num}: {len(violations)} violations; first: {violations[0]}"


@lru_cache(maxsize=1)
def _audit_sweep() -> tuple:
    """Audit every graph construction at every common independent set of 200
    seeded weighted instances (n <= 8). Shared by criteria 3-6."""
    reports = []
    for seed in range(200):
        n = 2 + seed % 7
        inst = random_instance(seed, n, weighted=True)
        for I in common_independent_sets(inst.matroid1, inst.matroid2):
            reports.extend(
                audit_graphs(
                    inst.matroid1,
                    inst.matroid2,
                    I,
                    w=inst.weight_vector(),
                    instance=f"seed={seed}",
                )
            )
    return tuple(reports)


def _sweep_violations(substrings: tuple[str, ...]) -> tuple[list[str], int]:
    matched = 0
    bad = []
    for r in _audit_sweep():
        if any(s in r.quantity for s in substrings):
            matched += 1
            if not r.ok:
                bad.append(f"{r.instance}: {r.quantity}")
    if matched == 0:
        bad.append(f"no audit reports matched {substrings}")
    return bad, matched


def test_criterion_01_cardinality_matches_brute_force():
    start = time.perf_counter()
    violations = []
    for seed in range(500):
        n = 2 + seed % 9
        inst = random_instance(seed, n)
        run = max_cardinality(MinRankOracle(inst.matroid1, inst.matroid2))
        size, _ = brute_max_common(inst.matroid1, inst.matroid2)
        # brute_dual internally asserts its joint-rank form equals the
        # classic two-rank form and the brute maximum size.
        value, _ = brute_dual(inst.matroid1, inst.matroid2)
        if not (popcount(run.I) == size == value):
            violations.append(f"seed={seed}: {popcount(run.I)} vs {size}/{value}")
    elapsed = time.perf_counter() - start
    if elapsed > 60:
        violations.append(f"budget exceeded: {elapsed:.1f}s > 60s")
    _criterion(1, violations, "500 instances, solver == brute max == dual", elapsed)


def test_criterion_02_query_count_envelope(capsys):
    start = time.perf_counter()
    violations = []
    sizes = (8, 16, 32, 48, 64)
    rows = bench_cardinality(sizes)
    for row in rows:
        if row["C"] > 32:
            violations.append(f"n={row['n']} seed={row['seed']}: C={row['C']:.3f}")
    if main(["bench", "--sizes", ",".join(map(str, sizes))]) != 0:
        violations.append("bench command failed")
    out = capsys.readouterr().out
    for found in re.findall(r"max C: ([0-9.]+)", out):
        if float(found) > 32:
            violations.append(f"reported max C {found} > 32")
    if "cardinality envelope" not in out or "weighted envelope" not in out:
        violations.append("bench table missing")
    max_c = max(row["C"] for row in rows)
    elapsed = time.perf_counter() - start
    if elapsed > 120:
        violations.append(f"budget exceeded: {elapsed:.1f}s > 120s")
    with capsys.disabled():
        _criterion(
            2, violations, f"queries <= C*r*n^2 with max C={max_c:.3f} <= 32", elapsed
        )


def test_criterion_03_graph_containments():
    start = time.perf_counter()
    violations, matched = _sweep_violations(
        (
            "contains-true",
            "extras-avoid-st",
            "fake-shortcut",
            "st-sets",
            "intersected-invariant",
            "sure-arcs-true",
        )
    )
    _criterion(
        3,
        violations,
        f"containment/shortcut audits, {matched} checks clean",
        time.perf_counter() - start,
    )


def test_criterion_04_shortest_path_preservation():
    start = time.perf_counter()
    violations, matched = _sweep_violations(("shortest-paths",))
    _criterion(
        4,
        violations,
        f"shortest-path set preservation, {matched} checks clean",
        time.perf_counter() - start,
    )


def test_criterion_05_consistency_machinery():
    start = time.perf_counter()
    violations, matched = _sweep_violations(
        (
            "true-graph-consistent",
            "cnf-true-assignment",
            "cnf-satisfiable",
            "resolved-within-bounds",
            "resolved-almost-consistent",
        )
    )

    # Independent satisfiability cross-check: bit-parallel truth tables.
    rng = random.Random(20260816)
    checked = 0
    for trial in range(1000):
        m = rng.randint(1, 16)
        f = TwoSat([(i, 1000 + i) for i in range(m)])
        for _ in range(rng.randint(0, 2 * m + 4)):
            l1 = rng.randint(1, m) * rng.choice((1, -1))
            l2 = rng.randint(1, m) * rng.choice((1, -1))
            f.add(l1, l2)
        table_bits = 1 << m
        everything = (1 << table_bits) - 1

        def column(v: int) -> int:
            period = 1 << (v + 1)
            ones = (1 << (1 << v)) - 1
            block = ones << (1 << v)
            return block * (everything // ((1 << period) - 1))

        sat_mask = everything
        for l1, l2 in f.clauses:
            m1 = column(abs(l1) - 1) if l1 > 0 else everything ^ column(abs(l1) - 1)
            m2 = column(abs(l2) - 1) if l2 > 0 else everything ^ column(abs(l2) - 1)
            sat_mask &= m1 | m2
        assignment = solve_2sat(f)
        if (assignment is not None) != (sat_mask != 0):
            violations.append(f"trial={trial}: solver vs truth table disagree")
        if assignment is not None:
            for l1, l2 in f.clauses:
                v1 = assignment[f.variables[abs(l1) - 1]] == (l1 > 0)
                v2 = assignment[f.variables[abs(l2) - 1]] == (l2 > 0)
                if not (v1 or v2):
                    violations.append(f"trial={trial}: returned model breaks a clause")
        checked += 1
    _criterion(
        5,
        violations,
        f"{matched} consistency audits + {checked} truth-table cross-checks clean",
        time.perf_counter() - start,
    )


def test_criterion_06_maximality_audits_and_fault_injection():
    start = time.perf_counter()
    violations, matched = _sweep_violations(
        (
            "cycle-partition",
            "path-cycle-partition",
            "neg-cycle-iff-not-maximal",
            "cheapest-path-value",
            "cheapest-path-vertex-sets",
        )
    )

    # Maximality audits at every per-cardinality optimum of weighted runs.
    weighted_audits = 0
    for seed in range(100):
        n = 2 + seed % 7
        inst = random_promise_instance(seed, n)
        w = inst.weight_vector()
        run = weighted_no_circuit_inclusion(
            MinRankOracle(inst.matroid1, inst.matroid2), w
        )
        for lv in run.levels:
            for r in audit_graphs(
                inst.matroid1, inst.matroid2, lv.I, w=w, instance=f"promise={seed}"
            ):
                if "neg-cycle" in r.quantity or "cheapest-path" in r.quantity:
                    weighted_audits += 1
                    if not r.ok:
                        violations.append(f"{r.instance}: {r.quantity}")

    # Fault injection: a resolved graph missing a certainly-true arc, or
    # carrying an arc outside the intersected bounds, must be flagged. The
    # corrupted arc is chosen against the same intersected graph the audit
    # resolves (the first source/sink pair of the true graph).
    drops = adds = 0
    for seed in range(200):
        n = 2 + seed % 7
        inst = random_instance(seed, n, weighted=True)
        m1, m2 = inst.matroid1, inst.matroid2
        w = inst.weight_vector()
        for I in common_independent_sets(m1, m2):
            o = MinRankOracle(m1, m2)
            if survey_extensions(o, I).pair is None:
                continue
            D = build_true_graph(m1, m2, I)
            sources = sorted(iter_bits(D.S & ~D.T))
            sinks = sorted(iter_bits(D.T & ~D.S))
            if not sources or not sinks:
                continue
            N = intersect_modified(o, I, StarPair(sources[0], sinks[0]))

            target = next(
                ((y, x) for y in iter_bits(N.I) for x in iter_bits(N.sure[y])), None
            )
            if target is not None:
                y0, x0 = target

                def drop(C: ExchangeGraph) -> ExchangeGraph:
                    succ = list(C.succ)
                    sure = list(C.sure)
                    succ[y0] &= ~bit(x0)
                    sure[y0] &= ~bit(x0)
                    return ExchangeGraph(C.n, C.I, C.S, C.T, succ, sure=sure, kind=C.kind)

                drops += 1
                reports = audit_graphs(m1, m2, I, w=w, mutate=drop)
                if all(r.ok for r in reports):
                    violations.append(f"seed={seed} I={I}: dropped sure arc unnoticed")

            outside = full_mask(n) & ~I
            extra = next(
                (
                    (y, x)
                    for y in iter_bits(I)
                    for x in iter_bits(outside & ~N.succ[y])
                ),
                None,
            )
            if extra is not None:
                y1, x1 = extra

                def add(C: ExchangeGraph) -> ExchangeGraph:
                    succ = list(C.succ)
                    succ[y1] |= bit(x1)
                    return ExchangeGraph(C.n, C.I, C.S, C.T, succ, sure=C.sure, kind=C.kind)

                adds += 1
                reports = audit_graphs(m1, m2, I, w=w, mutate=add)
                if all(r.ok for r in reports):
                    violations.append(f"seed={seed} I={I}: out-of-bounds arc unnoticed")
    if drops < 40 or adds < 20:
        violations.append(f"too few injection sites: drops={drops} adds={adds}")
    _criterion(
        6,
        violations,
        f"{matched} maximality audits, {weighted_audits} at weighted optima, "
        f"{drops}+{adds} injected faults all flagged",
        time.perf_counter() - start,
    )


def test_criterion_07_promise_weighted_matches_brute_force():
    start = time.perf_counter()
    violations = []
    for seed in range(300):
        n = 2 + seed % 7
        inst = random_promise_instance(seed, n)
        w = inst.weight_vector()
        o = MinRankOracle(inst.matroid1, inst.matroid2)
        run = weighted_no_circuit_inclusion(o, w)
        for lv in run.levels:
            best, _ = brute_w_maximal(inst.matroid1, inst.matroid2, w, lv.k)
            if lv.weight != best:
                violations.append(f"seed={seed} k={lv.k}: {lv.weight} != {best}")
        r = run.levels[-1].k
        if r and run.queries > 32 * r**3 * n**2:
            violations.append(f"seed={seed}: {run.queries} queries breaks envelope")
    elapsed = time.perf_counter() - start
    if elapsed > 120:
        violations.append(f"budget exceeded: {elapsed:.1f}s > 120s")
    _criterion(
        7, violations, "300 promise instances, per-size optima == brute force", elapsed
    )


def test_criterion_08_bounded_circuit_weighted_matches_brute_force():
    start = time.perf_counter()
    violations = []
    for seed in range(200):
        n = 3 + seed % 6
        gamma = 2 + seed % 2
        inst = random_fpt_instance(seed, n, gamma)
        w = inst.weight_vector()
        o = MinRankOracle(inst.matroid1, inst.matroid2)
        run = weighted_fpt_circuit(o, w, gamma)
        for lv in run.levels:
            best, _ = brute_w_maximal(inst.matroid1, inst.matroid2, w, lv.k)
            if lv.weight != best:
                violations.append(f"seed={seed} k={lv.k}: {lv.weight} != {best}")
        for step in run.trace:
            if "tried=" in step.detail:
                tried = int(step.detail.split("tried=")[1].split()[0])
                if tried > 2**gamma:
                    violations.append(
                        f"seed={seed}: {tried} guesses > 2^{gamma} per augmentation"
                    )
    elapsed = time.perf_counter() - start
    if elapsed > 120:
        violations.append(f"budget exceeded: {elapsed:.1f}s > 120s")
    _criterion(
        8,
        violations,
        "200 bounded-circuit instances, optima == brute, guesses <= 2^gamma",
        elapsed,
    )


def test_criterion_09_lexicographic_and_approximation_guarantee():
    start = time.perf_counter()
    violations = []
    for seed in range(300):
        n = 2 + seed % 7
        inst = random_lexmax_instance(seed, n)
        w = inst.weight_vector()
        m1, m2 = inst.matroid1, inst.matroid2
        run = lexicographic_max(MinRankOracle(m1, m2), w)
        vector, _ = brute_lexmax(m1, m2, w)
        if run.vector != vector:
            violations.append(f"seed={seed}: {run.vector} != {vector}")
        res = approx_max_weight(MinRankOracle(m1, m2), w)
        opt = max(
            sum((w[e] for e in iter_bits(I)), Fraction(0))
            for I in common_independent_sets(m1, m2)
        )
        if res.weight < res.guarantee * opt:
            violations.append(
                f"seed={seed}: weight {res.weight} < {res.guarantee} * {opt}"
            )
    # The worked fixture: weights (5,4,4,1), best-class-first picks weight 6
    # against the true optimum 8, within the promised factor 5/8.
    from minrank import crossed_partition_instance

    inst = crossed_partition_instance(weights=(5, 4, 4, 1))
    res = approx_max_weight(
        MinRankOracle(inst.matroid1, inst.matroid2), inst.weight_vector()
    )
    if (res.weight, res.guarantee, res.alpha) != (6, Fraction(5, 8), Fraction(5, 4)):
        violations.append(f"fixture: got {(res.weight, res.guarantee, res.alpha)}")
    opt, _ = brute_w_maximal(inst.matroid1, inst.matroid2, inst.weight_vector(), 2)
    if opt != 8:
        violations.append(f"fixture optimum: {opt} != 8")
    elapsed = time.perf_counter() - start
    if elapsed > 60:
        violations.append(f"budget exceeded: {elapsed:.1f}s > 60s")
    _criterion(
        9,
        violations,
        "300 instances == brute lexmax; weight >= min(1, a/2) * OPT",
        elapsed,
    )


def test_criterion_10_gadget_round_trip():
    start = time.perf_counter()
    violations = []
    gadgets = {
        "vertex": build_gadget(ColoredGraph(1, (), ((1, 1),))),
        "edge": build_gadget(ColoredGraph(2, ((0, 1),), ((1, 1), (2, 2)))),
        "triangle": build_gadget(
            ColoredGraph(3, ((0, 1), (1, 2), (0, 2)), ((1, 1), (1, 2), (2, 1)))
        ),
    }
    expected_counts = {"vertex": 4, "edge": 12, "triangle": 24}
    for name, gi in gadgets.items():
        got = len(colorings_from_consistent_graphs(gi))
        if got != expected_counts[name]:
            violations.append(f"{name}: {got} colorings != {expected_counts[name]}")
        for r in verify_gadget(gi):
            if not r.ok:
                violations.append(f"{name}: {r.quantity}")
    elapsed = time.perf_counter() - start
    if elapsed > 60:
        violations.append(f"budget exceeded: {elapsed:.1f}s > 60s")
    _criterion(
        10,
        violations,
        "coloring counts 4/12/24; all gadget prescriptions realized exactly",
        elapsed,
    )
