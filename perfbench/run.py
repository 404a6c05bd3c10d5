"""The repository benchmark: seeded solve workloads, timed end to end.

Usage, from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

A single process runs one solve at a time (closed loop, one client). It
solves the workload's pool in rounds of seeded relabellings (see
``workloads.py``), loads every instance from its canonical JSON through
``minrank.loads``, calls the public solver, checks each result against its
certificate and the stored reference optimum, and prints every metric by
name with its unit. The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` measures the end-to-end metrics with tracing off. Whole
rounds repeat until the workload's minimum number of rounds is done and the
timed solves add up to ``--seconds``.

``--trace 1`` traces those minimum rounds and reports the per-layer metrics
(see ``spans.py``); the first round is also solved untraced, for the
tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import subprocess
import sys
import time

from speed import NOMINAL_S, kernel_seconds
from workloads import ROOT, WORKLOADS, canonical, import_package, pool, seeded_round, spec_hash

REFERENCES = ROOT / "perfbench" / "references.json"

# Per workload: the percentile reported as solve_s.tail, and the rounds
# over the pool that every run makes at least. Those rounds leave at least
# ten solves beyond the percentile, and their solves are the ones counted
# in `queries`. Only cardinality-sweep solves are short enough for a
# percentile above the median within one run.
PLAN = {
    "lexmax-partition": (50, 3),
    "weighted-guess": (50, 3),
    "cardinality-sweep": (90, 8),
    "linear-rank": (50, 2),
}

SETUP_REPEATS = 5

# Set-up in a fresh interpreter: import the package and load every
# instance, between two runs of the calibration kernel.
_SETUP_CHILD = """
import json, sys, time
texts = json.load(sys.stdin)
sys.path.insert(0, sys.argv[2])
from speed import kernel_seconds
k0 = kernel_seconds()
sys.path.insert(0, sys.argv[1])
t0 = time.perf_counter()
import minrank
for text in texts:
    minrank.loads(text)
wall = time.perf_counter() - t0
print(wall, k0, kernel_seconds())
"""


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _references(base) -> dict[str, dict]:
    """The stored optimum of each pool job, after checking that every pool
    instance is the one its reference was computed for."""
    table = json.loads(REFERENCES.read_text())
    for job in base:
        stored = table.get(job.key, {})
        if stored.get("mode") != job.mode or stored.get("spec_sha256") != spec_hash(job.spec):
            raise SystemExit(
                f"error: the stored reference does not match pool job {job.key}; "
                "run perfbench/reference.py"
            )
    return {job.key: table[job.key] for job in base}


def _calibrate(wall: float, k_before: float, k_after: float) -> float:
    return wall * NOMINAL_S / ((k_before + k_after) / 2)


def _setup_seconds(import_s: float, k_start: float, texts: list[str]) -> tuple[float, float]:
    """Median calibrated and median wall set-up time over this process and
    fresh interpreters."""
    import minrank

    t0 = time.perf_counter()
    for text in texts:
        minrank.loads(text)
    wall = import_s + time.perf_counter() - t0
    samples = [(_calibrate(wall, k_start, kernel_seconds()), wall)]
    payload = json.dumps(texts)
    for _ in range(SETUP_REPEATS - 1):
        done = subprocess.run(
            [sys.executable, "-c", _SETUP_CHILD, str(ROOT / "src"), str(ROOT / "perfbench")],
            input=payload,
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        wall, k0, k1 = map(float, done.stdout.split())
        samples.append((_calibrate(wall, k0, k1), wall))
    return statistics.median(c for c, _ in samples), statistics.median(w for _, w in samples)


def _nearest_rank(sorted_values: list[float], percent: int) -> float:
    return sorted_values[max(0, math.ceil(percent / 100 * len(sorted_values)) - 1)]


def _report(failures: list[str]) -> None:
    for line in failures:
        print(f"FAILED {line}")


def measure(round_of, refs, seconds, min_rounds, solver=None):
    """Timed solves in whole rounds, until at least `min_rounds` rounds are
    done and the solves add up to `seconds`. Whole rounds keep every pool
    job equally represented, so a median cannot move between two jobs from
    one run to the next. The calibration kernel runs between solves. Returns
    the outcomes, the queries of the first `min_rounds` rounds, and the
    problems found."""
    from checker import run_job, solve

    outcomes = []
    problems = []
    queries = 0
    timed = 0.0
    r = 0
    k_before = kernel_seconds()
    while r < min_rounds or timed < seconds:
        jobs, texts = round_of(r)
        for job, text in zip(jobs, texts):
            out = run_job(job, text, refs[job.key], solver=solver or solve)
            k_after = kernel_seconds()
            out = out._replace(calibrated=_calibrate(out.seconds, k_before, k_after))
            k_before = k_after
            if out.failure:
                problems.append(f"{job.key}: {out.failure}")
            if r < min_rounds:
                queries += out.queries
            outcomes.append(out)
            timed += out.seconds
        r += 1
    return outcomes, queries, problems


def summarize(outcomes, queries, percent) -> dict[str, tuple[float, str]]:
    """The end-to-end metrics that come from the timed solves, in
    calibrated seconds, plus their wall-clock counterparts."""
    failed = sum(1 for out in outcomes if out.failure)
    metrics = {}
    for prefix, times in (
        ("", sorted(out.calibrated for out in outcomes)),
        ("wall.", sorted(out.seconds for out in outcomes)),
    ):
        metrics[f"{prefix}solve_s.p50"] = (statistics.median(times), "s")
        metrics[f"{prefix}solve_s.tail"] = (_nearest_rank(times, percent), "s")
        metrics[f"{prefix}solves_per_s"] = ((len(outcomes) - failed) / sum(times), "1/s")
    metrics["queries"] = (queries, "count")
    metrics["failed_frac"] = (failed / len(outcomes), "ratio")
    return metrics


def _print(metrics) -> None:
    for name, (value, unit) in metrics.items():
        print(f"{name} {value!r} {unit}")


def end_to_end(args, round_of, refs, setup):
    percent, min_rounds = PLAN[args.workload]
    outcomes, queries, problems = measure(round_of, refs, args.seconds, min_rounds)
    metrics = summarize(outcomes, queries, percent)
    metrics["setup_s"] = (setup[0], "s")
    metrics["wall.setup_s"] = (setup[1], "s")
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
    beyond = len(outcomes) - math.ceil(percent / 100 * len(outcomes))
    print(
        f"# {args.workload} seed {args.seed}: {len(outcomes)} solves in "
        f"{len(outcomes) // len(refs)} rounds; solve_s.tail is p{percent} "
        f"({beyond} solves beyond it); queries counts the first {min_rounds} rounds"
    )
    _report(problems)
    _print(metrics)
    # The JSON holds the gated metrics only. failed_frac is 0 whenever the
    # code is right, and a metric that reads 0 has no relative spread, so
    # the JSON carries it as `failed` / `attempted`. Wall-clock times are
    # printed above for reference.
    failed = sum(1 for out in outcomes if out.failure)
    gated = {k: v for k, v in metrics.items() if k != "failed_frac" and not k.startswith("wall.")}
    return len(outcomes), failed, not problems, gated


def per_layer(args, round_of, refs):
    """Trace the rounds whose queries `queries` counts. Round 0 is also
    solved untraced, job by job, for the tracing overhead."""
    from checker import run_job
    from spans import Tracer

    _, min_rounds = PLAN[args.workload]
    tracer = Tracer()
    problems = []
    untraced = traced = 0.0
    attempted = failed = 0
    for r in range(min_rounds):
        jobs, texts = round_of(r)
        for i, (job, text) in enumerate(zip(jobs, texts)):
            modes = (True,) if r else ((False, True) if i % 2 == 0 else (True, False))
            for use_trace in modes:
                if use_trace:
                    tracer.install()
                try:
                    out = run_job(job, text, refs[job.key], tracer=tracer if use_trace else None)
                finally:
                    tracer.uninstall()
                attempted += 1
                if out.failure:
                    failed += 1
                    problems.append(f"{job.key}: {out.failure}")
                if r == 0:
                    if use_trace:
                        traced += out.seconds
                    else:
                        untraced += out.seconds
    for name in dict.fromkeys(tracer.missing):
        print(f"# trace: {name} does not exist; its span is skipped")
    problems += tracer.check_sums()
    metrics = tracer.metrics()
    metrics["trace.overhead_frac"] = (traced / untraced - 1, "ratio")
    print(f"# {args.workload} seed {args.seed}: {min_rounds} traced rounds")
    _report(problems)
    _print(metrics)
    return attempted, failed, not problems, metrics


def main(argv=None) -> int:
    args = _parse(argv)
    k_start = kernel_seconds()
    import_s = import_package()
    base = pool(args.workload)
    refs = _references(base)

    def round_of(r: int):
        jobs = seeded_round(base, args.workload, args.seed, r)
        return jobs, [canonical(job.spec) for job in jobs]

    if args.trace:
        attempted, failed, correct, metrics = per_layer(args, round_of, refs)
    else:
        _, min_rounds = PLAN[args.workload]
        texts = [text for r in range(min_rounds) for text in round_of(r)[1]]
        setup = _setup_seconds(import_s, k_start, texts)
        attempted, failed, correct, metrics = end_to_end(args, round_of, refs, setup)
    print(
        json.dumps(
            {
                "correct": correct and failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
