"""Independent reference optima for the benchmark's instance pools.

This is the classic weighted matroid intersection algorithm: grow a common
independent set one element at a time along a minimum-weight, then
fewest-arc, path in the true exchange graph. It reads both matroids in the
clear through its own rank code, built from the instance-file dict, and
shares no code with the package under test. Each augmentation gives a
maximum-weight common independent set of the next size.

From those levels it derives every optimum the benchmark compares: the
maximum size, the maximum weight per size, the lexicographic maximum (run
with class weights (n+1)^(classes-1-i), which no set of lighter elements can
outweigh) and the approximation's output weight and guarantee. Witness sets
and query counts are deliberately not part of a reference.

Run ``python3 perfbench/reference.py`` from the repository root to rewrite
``perfbench/references.json``.
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction
from pathlib import Path

REFERENCES = Path(__file__).resolve().parent / "references.json"


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class RefMatroid:
    """Independence test plus fundamental circuits, from an instance spec."""

    def __init__(self, spec: dict, n: int):
        self.n = n
        self.kind = spec["kind"]
        if self.kind == "partition":
            self.blocks = []
            for block, cap in zip(spec["blocks"], spec["capacities"]):
                mask = 0
                for e in block:
                    mask |= 1 << e
                self.blocks.append((mask, int(cap)))
        elif self.kind == "graphic":
            self.num_vertices = int(spec["num_vertices"])
            self.edges = [(int(u), int(v)) for u, v in spec["edges"]]
        elif self.kind == "linear-rational":
            rows = [[Fraction(v) for v in row] for row in spec["rows"]]
            self.columns = [[row[j] for row in rows] for j in range(n)]
        elif self.kind == "uniform":
            self.k = int(spec["k"])
        else:
            raise ValueError(f"no reference for matroid kind {self.kind!r}")

    def independent(self, mask: int) -> bool:
        if self.kind == "partition":
            return all((mask & b).bit_count() <= c for b, c in self.blocks)
        if self.kind == "graphic":
            parent = list(range(self.num_vertices))

            def root(a: int) -> int:
                while parent[a] != a:
                    a = parent[a]
                return a

            for e in _bits(mask):
                u, v = self.edges[e]
                ru, rv = root(u), root(v)
                if ru == rv:
                    return False
                parent[ru] = rv
            return True
        if self.kind == "linear-rational":
            return self._eliminate(list(_bits(mask)), [])[0]
        return mask.bit_count() <= self.k

    def _eliminate(self, basis: list[int], others: list[int]):
        """Row-reduce the columns of `basis`, carrying `others` along.

        Returns (basis independent, per other column: None when it is
        independent of the basis, else the basis elements of its unique
        representation, i.e. its fundamental circuit without itself)."""
        m = len(self.columns[0]) if self.columns else 0
        cols = [list(self.columns[e]) for e in basis + others]
        pivot_rows = []
        for j in range(len(basis)):
            col = cols[j]
            r = next(
                (i for i in range(m) if i not in pivot_rows and col[i] != 0), None
            )
            if r is None:
                return False, []
            inv = 1 / col[r]
            for c in cols:
                c[r] *= inv
            for i in range(m):
                if i != r and col[i] != 0:
                    f = col[i]
                    for c in cols:
                        c[i] -= f * c[r]
            pivot_rows.append(r)
        circuits = []
        for c in cols[len(basis) :]:
            if any(c[i] != 0 for i in range(m) if i not in pivot_rows):
                circuits.append(None)
            else:
                circuits.append(
                    sum(1 << basis[j] for j, r in enumerate(pivot_rows) if c[r] != 0)
                )
        return True, circuits

    def circuits(self, I: int, outside: int) -> dict[int, int | None]:
        """For each x outside I: None if I + x is independent, else the
        elements y of I for which I + x - y is independent."""
        if self.kind == "linear-rational":
            xs = list(_bits(outside))
            ok, circ = self._eliminate(list(_bits(I)), xs)
            if not ok:
                raise ValueError("reference set is not independent")
            return dict(zip(xs, circ))
        out: dict[int, int | None] = {}
        for x in _bits(outside):
            ext = I | (1 << x)
            if self.independent(ext):
                out[x] = None
            else:
                out[x] = sum(
                    1 << y for y in _bits(I) if self.independent(ext & ~(1 << y))
                )
        return out


def _cheapest_path(m1, m2, I, ground, weight):
    """Minimum (weight change, arcs) path from the M1-addable to the
    M2-addable elements; vertices outside I cost -w, inside I cost +w."""
    outside = ground & ~I
    c1 = m1.circuits(I, outside)
    c2 = m2.circuits(I, outside)
    cost = {v: (weight[v] if (I >> v) & 1 else -weight[v]) for v in _bits(ground)}
    # Arc y -> x when I - y + x is independent in M1; x -> y for M2.
    succ: dict[int, list[int]] = {v: [] for v in _bits(ground)}
    for x in _bits(outside):
        if c2[x] is not None:
            succ[x] = list(_bits(c2[x]))
        if c1[x] is not None:
            for y in _bits(c1[x]):
                succ[y].append(x)
    label: dict[int, tuple] = {x: (cost[x], 0) for x in _bits(outside) if c1[x] is None}
    pred: dict[int, int | None] = {x: None for x in label}
    for _ in range(ground.bit_count() + 1):
        changed = False
        for u in sorted(label):
            cu, lu = label[u]
            for v in succ[u]:
                cand = (cu + cost[v], lu + 1)
                if v not in label or cand < label[v]:
                    label[v] = cand
                    pred[v] = u
                    changed = True
        if not changed:
            break
    else:
        raise ArithmeticError("negative cycle: the current set was not extreme")
    sinks = [x for x in _bits(outside) if c2[x] is None and x in label]
    if not sinks:
        return None
    v = min(sinks, key=lambda x: label[x])
    path = 0
    while v is not None:
        path |= 1 << v
        v = pred[v]
    return path


def max_weight_levels(spec: dict, weight: list, ground: int | None = None) -> list[int]:
    """A maximum-weight common independent set of every size, from 0 up to
    the maximum size, by successive cheapest augmentations."""
    n = spec["n"]
    m1 = RefMatroid(spec["matroid1"], n)
    m2 = RefMatroid(spec["matroid2"], n)
    ground = (1 << n) - 1 if ground is None else ground
    levels = [0]
    I = 0
    while True:
        path = _cheapest_path(m1, m2, I, ground, weight)
        if path is None:
            return levels
        I ^= path
        if I.bit_count() != len(levels) or not (m1.independent(I) and m2.independent(I)):
            raise ArithmeticError("augmentation did not give a larger common independent set")
        levels.append(I)


def _total(w: list[Fraction], I: int) -> Fraction:
    return sum((w[e] for e in _bits(I)), Fraction(0))


def _lex_levels(spec: dict, w: list[Fraction], ground: int):
    """Class-vector-maximal set per size, their class vectors, and the
    lexicographically largest vector over all sizes."""
    classes = sorted({w[e] for e in _bits(ground)}, reverse=True)
    base = spec["n"] + 1
    huge = [0] * spec["n"]
    for e in _bits(ground):
        huge[e] = base ** (len(classes) - 1 - classes.index(w[e]))
    levels = max_weight_levels(spec, huge, ground)

    def vector(I: int) -> list[int]:
        return [sum(1 for e in _bits(I) if w[e] == c) for c in classes]

    best = max((vector(I) for I in levels), default=[])
    return levels, best, classes


def reference(mode: str, spec: dict) -> dict:
    """The optimum values the benchmark compares for one solve job."""
    n = spec["n"]
    w = [Fraction(x) for x in spec.get("weights", ["1"] * n)]
    if mode == "cardinality":
        return {"size": len(max_weight_levels(spec, [0] * n)) - 1}
    if mode in ("weighted", "fpt"):
        levels = max_weight_levels(spec, w)
        return {"size": len(levels) - 1, "levels": [str(_total(w, I)) for I in levels]}
    if mode == "lexmax":
        levels, best, _ = _lex_levels(spec, w, (1 << n) - 1)
        return {
            "size": len(levels) - 1,
            "vector": best,
            "levels": [str(_total(w, I)) for I in levels],
        }
    if mode == "approx":
        positive = sum(1 << e for e in range(n) if w[e] > 0)
        levels, best, classes = _lex_levels(spec, w, positive)
        weight = sum((c * k for c, k in zip(classes, best)), Fraction(0))
        if len(classes) <= 1:
            guarantee = Fraction(1)
        else:
            alpha = min(classes[i] / classes[i + 1] for i in range(len(classes) - 1))
            guarantee = min(Fraction(1), alpha / 2)
        return {"size": sum(best), "weight": str(weight), "guarantee": str(guarantee)}
    raise ValueError(f"unknown solve mode {mode!r}")


def main() -> int:
    from workloads import WORKLOADS, import_package, pool, spec_hash

    import_package()
    table = {}
    for workload in WORKLOADS:
        for job in pool(workload):
            ref = reference(job.mode, job.spec)
            table[job.key] = {"mode": job.mode, "spec_sha256": spec_hash(job.spec), **ref}
            print(f"{workload} {job.key} {ref}", file=sys.stderr, flush=True)
    REFERENCES.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
