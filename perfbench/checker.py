"""Run one timed solve and check its result.

A solve fails when it raises, when its certificate does not hold, or when
an optimum value differs from the stored reference. Certificates are
checked through a separate oracle over the same matroids, so the check's
queries never reach the solve's count. Witness sets and query counts are
not compared with the reference: a solver may legitimately find another
optimal set with fewer queries.
"""

from __future__ import annotations

import gc
import time
import traceback
from fractions import Fraction
from typing import NamedTuple

import minrank


class Outcome(NamedTuple):
    seconds: float
    queries: int
    failure: str | None
    calibrated: float = 0.0  # seconds at nominal machine speed (speed.py)


def solve(job, oracle, inst):
    """Call the public solver for the job's mode."""
    if job.mode == "cardinality":
        return minrank.max_cardinality(oracle)
    if job.mode == "weighted":
        return minrank.weighted_no_circuit_inclusion(oracle, inst.weights)
    if job.mode == "fpt":
        return minrank.weighted_fpt_circuit(oracle, inst.weights, job.gamma)
    if job.mode == "lexmax":
        return minrank.lexicographic_max(oracle, inst.weights)
    if job.mode == "approx":
        return minrank.approx_max_weight(oracle, inst.weights)
    raise ValueError(f"unknown solve mode {job.mode!r}")


def _weight(w, I: int) -> Fraction:
    return sum((Fraction(w[e]) for e in range(len(w)) if (I >> e) & 1), Fraction(0))


def _class_vector(w, ground: int, I: int) -> list[int]:
    classes = sorted({w[e] for e in range(len(w)) if (ground >> e) & 1}, reverse=True)
    return [sum(1 for e in range(len(w)) if (I >> e) & 1 and w[e] == c) for c in classes]


def check(job, inst, result, ref: dict) -> str | None:
    """None when the result certifies itself and matches the reference,
    else the first problem found."""
    judge = minrank.MinRankOracle(inst.matroid1, inst.matroid2)
    ground = (1 << inst.n) - 1

    def independent(I: int) -> bool:
        return judge.rmin(I) == I.bit_count()

    def certifies(Z: int, size: int) -> bool:
        return judge.rmin(Z) + judge.rmin(ground & ~Z) == size

    if job.mode == "cardinality":
        size = result.I.bit_count()
        if not independent(result.I):
            return "witness is not common independent"
        if not certifies(result.Z, size):
            return "duality certificate fails"
        if size != ref["size"]:
            return f"size {size}, reference {ref['size']}"
        return None

    w = inst.weight_vector()
    if job.mode == "approx":
        positive = sum(1 << e for e in range(inst.n) if w[e] > 0)
        if result.I & ~positive:
            return "witness holds a non-positive element"
        if not independent(result.I):
            return "witness is not common independent"
        if result.weight != _weight(w, result.I):
            return "reported weight is not the witness's weight"
        if result.I.bit_count() != ref["size"]:
            return f"size {result.I.bit_count()}, reference {ref['size']}"
        if result.weight != Fraction(ref["weight"]):
            return f"weight {result.weight}, reference {ref['weight']}"
        if result.guarantee != Fraction(ref["guarantee"]):
            return f"guarantee {result.guarantee}, reference {ref['guarantee']}"
        return None

    levels = result.levels
    for k, level in enumerate(levels):
        if level.k != k or level.I.bit_count() != k or not independent(level.I):
            return f"level {k} is not a common independent set of size {k}"
        if level.weight != _weight(w, level.I):
            return f"level {k} reports a weight its set does not have"
    size = len(levels) - 1
    if not certifies(result.certificate, size):
        return "duality certificate fails"
    if size != ref["size"]:
        return f"size {size}, reference {ref['size']}"
    got = [level.weight for level in levels]
    if got != [Fraction(x) for x in ref["levels"]]:
        return f"level weights {[str(x) for x in got]}, reference {ref['levels']}"
    if job.mode == "lexmax":
        if not independent(result.I):
            return "witness is not common independent"
        vector = _class_vector(w, ground, result.I)
        if list(result.vector) != vector:
            return "reported class vector is not the witness's"
        if vector != ref["vector"]:
            return f"class vector {vector}, reference {ref['vector']}"
    return None


def run_job(job, text: str, ref: dict, tracer=None, solver=solve) -> Outcome:
    """Load the job's instance fresh, time one solve, then check it.

    Loading, garbage collection and the check stay outside the timer. The
    matroid objects are new for every solve because linear and explicit
    matroids memoize ranks per object."""
    inst = minrank.loads(text)
    gc.collect()
    m1, m2 = inst.matroid1, inst.matroid2
    if tracer is not None:
        m1, m2 = tracer.matroid(m1), tracer.matroid(m2)
    oracle = minrank.MinRankOracle(m1, m2)
    if tracer is not None:
        tracer.attach(oracle)
    result = error = None
    t0 = time.perf_counter()
    try:
        if tracer is None:
            result = solver(job, oracle, inst)
        else:
            result = tracer.solve(lambda: solver(job, oracle, inst), job.mode)
    except Exception as exc:  # a failed solve is counted, not fatal
        traceback.print_exc()
        error = exc
    seconds = time.perf_counter() - t0
    queries = oracle.query_count
    if error is not None:
        return Outcome(seconds, queries, _describe(error))
    try:
        failure = check(job, inst, result, ref)
    except Exception as exc:  # a malformed result is a failed solve
        traceback.print_exc()
        failure = _describe(exc)
    return Outcome(seconds, queries, failure)


def _describe(exc: Exception) -> str:
    text = "".join(traceback.format_exception_only(type(exc), exc)).strip()
    return f"raised {text}"
