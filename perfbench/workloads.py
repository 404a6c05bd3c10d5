"""Instance pools of the four benchmark workloads, and their seeded relabelling.

Each workload has a fixed pool of solve jobs. A run solves the pool in
rounds. In every round, each job's ground set is relabelled by its own
random permutation, drawn from the workload seed and the round number, and
the job order is shuffled. Solvers break ties toward small element ids, so
relabelling changes the paths, probe pairs and query counts they produce,
while the optimum values, and so the reference optima in
``references.json``, stay the same. The mix of easy and hard instances is
the same in every run, which keeps one run's medians from depending on
which instances a seed happened to draw.

Instances are plain dicts in the instance-file schema. Jobs built with the
package's own seeded generators are converted with ``minrank.dumps``; the
graphic, integer-linear and grid builders below are the benchmark's own.
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
import time
from fractions import Fraction
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent

WORKLOADS = ("lexmax-partition", "weighted-guess", "cardinality-sweep", "linear-rank")


class Job(NamedTuple):
    """One solve: a pool instance, the solver mode that runs on it, and the
    key of its reference optimum."""

    key: str
    mode: str  # "cardinality", "weighted", "fpt", "lexmax" or "approx"
    spec: dict
    gamma: int = 0


def import_package() -> float:
    """Import ``minrank`` from the checkout's ``src`` and return the seconds
    the import took. Exits when the checkout holds no package source, so an
    installed copy elsewhere is never measured by mistake."""
    src = ROOT / "src"
    if not (src / "minrank" / "__init__.py").is_file():
        raise SystemExit(f"error: no package source at {src / 'minrank'}")
    sys.path.insert(0, str(src))
    t0 = time.perf_counter()
    import minrank

    elapsed = time.perf_counter() - t0
    if Path(minrank.__file__).resolve().parent != (src / "minrank").resolve():
        raise SystemExit(f"error: minrank was imported from {minrank.__file__}")
    return elapsed


def canonical(spec: dict) -> str:
    """Instance-file text in the package's canonical form."""
    return json.dumps(spec, indent=2, sort_keys=True) + "\n"


def spec_hash(spec: dict) -> str:
    return hashlib.sha256(canonical(spec).encode()).hexdigest()[:16]


def _rng(*parts: object) -> random.Random:
    digest = hashlib.sha256(":".join(map(str, parts)).encode()).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


# -- the benchmark's own builders ---------------------------------------------


def graphic_spec(rng: random.Random, n: int) -> dict:
    """n random non-loop edges (parallel edges allowed) on n // 2 vertices,
    so the rank is close to n / 2 instead of the package generator's <= 5."""
    v = max(2, n // 2)
    edges = []
    for _ in range(n):
        a, b = rng.sample(range(v), 2)
        edges.append([a, b])
    return {"kind": "graphic", "num_vertices": v, "edges": edges}


def linear_spec(rng: random.Random, n: int) -> dict:
    """n nonzero integer columns with entries in [-2, 2] and n // 2 rows, so
    the rank is about n / 2."""
    r = n // 2
    cols = []
    for _ in range(n):
        col = [0] * r
        while not any(col):
            col = [rng.randint(-2, 2) for _ in range(r)]
        cols.append(col)
    rows = [[str(cols[j][i]) for j in range(n)] for i in range(r)]
    return {"kind": "linear-rational", "rows": rows}


def grid_spec(rng: random.Random, n: int) -> tuple[dict, dict, list[str]]:
    """Rows against columns of an a x b grid, every capacity one, with
    integer weights in 1..8. Circuits are same-row or same-column pairs and
    no pair is both, so the pair keeps the no-circuit-inclusion promise."""
    a = max(d for d in range(1, int(n**0.5) + 1) if n % d == 0)
    b = n // a
    rows = {
        "kind": "partition",
        "n": n,
        "blocks": [list(range(i * b, (i + 1) * b)) for i in range(a)],
        "capacities": [1] * a,
    }
    cols = {
        "kind": "partition",
        "n": n,
        "blocks": [list(range(j, n, b)) for j in range(b)],
        "capacities": [1] * b,
    }
    return rows, cols, [str(rng.randint(1, 8)) for _ in range(n)]


def pair_spec(n: int, m1: dict, m2: dict, weights: list[str] | None = None) -> dict:
    spec = {"schema": 1, "n": n, "matroid1": m1, "matroid2": m2}
    if weights is not None:
        spec["weights"] = weights
    return spec


def shifted_weights(weights: list[str]) -> list[str]:
    """Subtract the lower-quartile weight, so about a quarter of the
    elements become non-positive and the approximation restricts its oracle."""
    ws = [Fraction(w) for w in weights]
    shift = sorted(ws)[len(ws) // 4]
    return [str(w - shift) for w in ws]


# -- pools --------------------------------------------------------------------


def _package_spec(inst) -> dict:
    import minrank

    return json.loads(minrank.dumps(inst))


def pool(workload: str) -> list[Job]:
    """The fixed jobs of a workload, before relabelling. Needs ``minrank``
    importable, because some jobs come from the package's generators."""
    import minrank

    jobs: list[Job] = []
    if workload == "lexmax-partition":
        for j in range(4):
            spec = _package_spec(
                minrank.random_instance(j, 48, kinds=("partition",), weighted=True)
            )
            jobs.append(Job(f"lexmax/{j}", "lexmax", spec))
        for j in range(3):
            spec = _package_spec(
                minrank.random_instance(j, 48, kinds=("partition",), weighted=True)
            )
            spec["weights"] = shifted_weights(spec["weights"])
            jobs.append(Job(f"approx/{j}", "approx", spec))
    elif workload == "weighted-guess":
        for j in range(4):
            m1, m2, w = grid_spec(_rng("grid", j), 64)
            jobs.append(Job(f"grid/{j}", "weighted", pair_spec(64, m1, m2, w)))
        for j in range(8):
            spec = _package_spec(minrank.random_fpt_instance(j, 32, 3))
            jobs.append(Job(f"fpt/{j}", "fpt", spec, gamma=3))
    elif workload == "cardinality-sweep":
        for j in range(8):
            part = _package_spec(minrank.random_instance(j, 64, kinds=("partition",)))
            jobs.append(Job(f"pp/{j}", "cardinality", part))
            rng = _rng("graphic", j)
            g1, g2 = graphic_spec(rng, 64), graphic_spec(rng, 64)
            jobs.append(Job(f"gg/{j}", "cardinality", pair_spec(64, g1, g2)))
            jobs.append(
                Job(f"gp/{j}", "cardinality", pair_spec(64, g1, part["matroid1"]))
            )
    elif workload == "linear-rank":
        for j in range(10):
            n = (24, 28, 32)[j % 3]
            rng = _rng("linear", j)
            jobs.append(
                Job(
                    f"linear/{j}",
                    "cardinality",
                    pair_spec(n, linear_spec(rng, n), linear_spec(rng, n)),
                )
            )
    else:
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
    return jobs


# -- relabelling --------------------------------------------------------------


def _relabel_matroid(m: dict, perm: list[int]) -> dict:
    kind = m["kind"]
    if kind == "partition":
        blocks = [sorted(perm[e] for e in b) for b in m["blocks"]]
        return {**m, "blocks": blocks}
    if kind == "graphic":
        edges = [None] * len(perm)
        for e, edge in enumerate(m["edges"]):
            edges[perm[e]] = edge
        return {**m, "edges": edges}
    if kind == "linear-rational":
        rows = []
        for row in m["rows"]:
            new = [None] * len(perm)
            for e, v in enumerate(row):
                new[perm[e]] = v
            rows.append(new)
        return {**m, "rows": rows}
    if kind == "uniform":
        return dict(m)
    raise ValueError(f"no relabelling for matroid kind {kind!r}")


def relabel(spec: dict, perm: list[int]) -> dict:
    """The same instance with element e renamed perm[e]."""
    out = {
        **spec,
        "matroid1": _relabel_matroid(spec["matroid1"], perm),
        "matroid2": _relabel_matroid(spec["matroid2"], perm),
    }
    if "weights" in spec:
        w = [None] * len(perm)
        for e, v in enumerate(spec["weights"]):
            w[perm[e]] = v
        out["weights"] = w
    return out


def seeded_round(base: list[Job], workload: str, seed: int, round_: int) -> list[Job]:
    """One round of the workload: every pool job relabelled by its own
    permutation, drawn from the seed and the round, in a seeded order."""
    jobs = []
    for job in base:
        rng = _rng("relabel", workload, seed, round_, job.key)
        perm = list(range(job.spec["n"]))
        rng.shuffle(perm)
        jobs.append(job._replace(spec=relabel(job.spec, perm)))
    _rng("order", workload, seed, round_).shuffle(jobs)
    return jobs
