"""Tests of the benchmark's checker, reference solver and tracer.

Run from the repository root:

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json

import pytest
from workloads import Job, canonical, import_package, pool

import_package()

import minrank  # noqa: E402
from checker import run_job, solve  # noqa: E402
from minrank import verify  # noqa: E402
from reference import REFERENCES, reference  # noqa: E402
from run import measure, summarize  # noqa: E402
from spans import Tracer  # noqa: E402


def _spec(inst) -> dict:
    return json.loads(minrank.dumps(inst))


def _jobs():
    """Two small jobs: a cardinality solve and a promise-weighted solve."""
    card = _spec(minrank.crossed_partition_instance())
    weighted = _spec(minrank.random_promise_instance(3, 7))
    jobs = [Job("card", "cardinality", card), Job("weighted", "weighted", weighted)]
    return jobs, [canonical(j.spec) for j in jobs], [reference(j.mode, j.spec) for j in jobs]


def _failed_frac(solver) -> tuple[float, list[str]]:
    jobs, texts, refs = _jobs()
    by_key = {job.key: ref for job, ref in zip(jobs, refs)}
    outcomes, queries, problems = measure(lambda r: (jobs, texts), by_key, 0.0, 2, solver=solver)
    return summarize(outcomes, queries, 50)["failed_frac"][0], problems


def test_honest_solves_pass():
    frac, problems = _failed_frac(solve)
    assert frac == 0.0 and problems == []


def test_wrong_value_counts_as_failure():
    def solver(job, oracle, inst):
        run = solve(job, oracle, inst)
        if job.mode != "weighted":
            return run
        top = run.levels[-1]
        levels = run.levels[:-1] + (top._replace(weight=top.weight + 1),)
        return run._replace(levels=levels)

    frac, problems = _failed_frac(solver)
    assert frac == 0.5
    assert all(p.startswith("weighted:") for p in problems) and len(problems) == 2


def test_smaller_witness_counts_as_failure():
    def solver(job, oracle, inst):
        run = solve(job, oracle, inst)
        return run._replace(I=run.I & (run.I - 1)) if job.mode == "cardinality" else run

    frac, problems = _failed_frac(solver)
    assert frac == 0.5 and all(p.startswith("card:") for p in problems)


def test_failing_certificate_counts_as_failure():
    def solver(job, oracle, inst):
        run = solve(job, oracle, inst)
        if job.mode != "cardinality":
            return run
        return run._replace(Z=1)  # rmin({0}) + rmin({1,2,3}) = 3 > 2

    frac, problems = _failed_frac(solver)
    assert frac == 0.5
    assert all("certificate" in p for p in problems)


def test_contract_violation_counts_as_failure():
    def solver(job, oracle, inst):
        if job.mode == "weighted":
            raise minrank.ContractViolationError("injected")
        return solve(job, oracle, inst)

    frac, problems = _failed_frac(solver)
    assert frac == 0.5
    assert all("ContractViolationError" in p for p in problems)


@pytest.mark.parametrize("seed", range(12))
def test_reference_matches_brute_force(seed):
    kinds = ("partition", "graphic", "linear-rational", "uniform")
    inst = minrank.random_instance(seed, 7, kinds=kinds, weighted=True)
    spec = _spec(inst)
    m1, m2, w = inst.matroid1, inst.matroid2, inst.weights
    size, _ = verify.brute_max_common(m1, m2)
    assert reference("cardinality", spec) == {"size": size}
    levels = [str(verify.brute_w_maximal(m1, m2, w, k)[0]) for k in range(size + 1)]
    assert reference("weighted", spec) == {"size": size, "levels": levels}
    vector, _ = verify.brute_lexmax(m1, m2, w)
    assert reference("lexmax", spec)["vector"] == list(vector)


def test_stored_references_are_current():
    stored = json.loads(REFERENCES.read_text())
    for workload in ("lexmax-partition", "weighted-guess"):
        for job in pool(workload):
            got = reference(job.mode, job.spec)
            assert {k: stored[job.key][k] for k in got} == got, job.key


@pytest.mark.parametrize("index", [0, 1])
def test_trace_partitions_time_and_queries(index):
    jobs, texts, refs = _jobs()
    tracer = Tracer()
    tracer.install()
    try:
        out = run_job(jobs[index], texts[index], refs[index], tracer=tracer)
    finally:
        tracer.uninstall()
    assert out.failure is None
    assert tracer.check_sums() == []
    metrics = tracer.metrics()
    assert metrics["trace.queries"][0] == out.queries
    assert metrics["oracle.rmin.calls"][0] == out.queries
    assert metrics["solvers.augmentations"][0] > 0
    # Uninstalling restores the package.
    assert minrank.solvers.survey_extensions is minrank.exchange.survey_extensions


def test_missing_function_is_reported_and_skipped(monkeypatch):
    monkeypatch.delattr(minrank.exchange, "find_star_pair")
    tracer = Tracer()
    tracer.install()
    tracer.uninstall()
    assert tracer.missing == ["minrank.exchange.find_star_pair"]


def test_relabelling_keeps_the_optimum():
    from workloads import seeded_round

    base = pool("weighted-guess")
    by_key = {job.key: job for job in base}
    for job in seeded_round(base, "weighted-guess", 5, 1)[:3]:
        assert job.spec != by_key[job.key].spec
        assert reference(job.mode, job.spec) == reference(job.mode, by_key[job.key].spec)
