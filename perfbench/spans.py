"""Per-layer tracing of solves, from outside the package.

The tracer wraps the public functions of each layer by rebinding their
names in every ``minrank`` module namespace that holds them, patches
``ObservationTable.value`` on its class, wraps the oracle's ``rmin`` on the
instance the benchmark builds, and hands ``MinRankOracle`` proxies of the
two matroids whose ``rank`` is timed. ``src/`` is never edited.

Spans live in memory, aggregated per layer. Each span records its wall
time and the oracle's ``query_count`` at both ends; its self time is its
duration minus its child spans, and its own queries are the count delta
minus its child spans' deltas. ``rmin`` and ``rank`` spans give their time
to their parent's children but not their query, so a query is charged to
the layer whose code asked it. The solve itself is the root span, and its
self time is the solver layer's remainder, so layer self times sum to the
traced solve wall and layer queries sum to the solve's queries.
"""

from __future__ import annotations

import sys
import time
from collections import Counter

# (layer, module, public function). A layer may span several functions.
FUNCTIONS = (
    ("exchange.survey", "minrank.exchange", "survey_extensions"),
    ("exchange.survey", "minrank.exchange", "find_star_pair"),
    ("exchange.probe_graph", "minrank.exchange", "build_modified_graph"),
    ("exchange.probe_graph", "minrank.exchange", "intersect_modified"),
    ("exchange.paths", "minrank.exchange", "shortest_augmenting_path"),
    ("exchange.paths", "minrank.exchange", "reachability_certificate"),
    ("consistency.cnf", "minrank.consistency", "build_cnf"),
    ("consistency.twosat", "minrank.consistency", "solve_2sat"),
    ("solvers.cheapest_path", "minrank.solvers", "shortest_cheapest_path"),
    ("instances.loads", "minrank.instances", "loads"),
)
METHODS = (("consistency.observations", "minrank.consistency", "ObservationTable", "value"),)
# Solver entry points whose returned trace length counts augmentations. The
# approximation reaches `lexicographic_max` through the solvers namespace.
SOLVERS = (
    "max_cardinality",
    "weighted_no_circuit_inclusion",
    "weighted_fpt_circuit",
    "lexicographic_max",
)
# Layers whose spans sit inside a solve; their self times and queries
# partition the solve's wall time and queries.
SOLVE_LAYERS = (
    "solve",
    "core.rank.partition",
    "core.rank.graphic",
    "core.rank.linear",
    "core.rank.other",
    "oracle.rmin",
    "exchange.survey",
    "exchange.probe_graph",
    "exchange.paths",
    "consistency.observations",
    "consistency.cnf",
    "consistency.twosat",
    "solvers.cheapest_path",
)
RANK_KINDS = {"partition": "partition", "graphic": "graphic", "linear-rational": "linear"}


class _TimedMatroid:
    """What `MinRankOracle` reads from a matroid: `n` and a timed `rank`."""

    def __init__(self, inner, rank):
        self.n = inner.n
        self.rank = rank


class Tracer:
    def __init__(self):
        # layer -> [calls, self seconds, own queries]
        self.stats: dict[str, list] = {name: [0, 0.0, 0] for name in SOLVE_LAYERS}
        self.stats["instances.loads"] = [0, 0.0, 0]
        self.counts: Counter = Counter()
        self.solve_wall = 0.0
        self.solve_queries = 0
        self.missing: list[str] = []
        self._stack: list[list] = []
        self._oracle = None
        self._in_fpt = False
        self._masks: set[int] = set()
        self._undo: list[tuple] = []

    def _queries(self) -> int:
        return self._oracle.query_count if self._oracle is not None else 0

    def span(self, layer, fn, charge_queries=True, on_result=None):
        """`fn` wrapped in a span charged to `layer`."""
        stats = self.stats.setdefault(layer, [0, 0.0, 0])
        stack = self._stack
        queries = self._queries
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            frame = [0.0, 0]  # child seconds, child queries
            stack.append(frame)
            q0 = queries()
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                dq = queries() - q0
                stack.pop()
                stats[0] += 1
                stats[1] += dur - frame[0]
                stats[2] += dq - frame[1]
                if stack:
                    stack[-1][0] += dur
                    if charge_queries:
                        stack[-1][1] += dq
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    # -- installing and removing the wrappers ---------------------------------

    def _rebind(self, original, wrapped) -> None:
        for modname, module in list(sys.modules.items()):
            if modname != "minrank" and not modname.startswith("minrank."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapped)
                    self._undo.append((module, attr, original))

    def _lookup(self, modname: str, *path: str):
        obj = sys.modules.get(modname)
        for attr in path:
            obj = getattr(obj, attr, None)
        if obj is None:
            self.missing.append(".".join((modname,) + path))
        return obj

    def install(self) -> None:
        """Wrap every listed function that exists; a missing one is noted
        in `missing` and skipped."""
        for layer, modname, name in FUNCTIONS:
            original = self._lookup(modname, name)
            if original is None:
                continue
            on_result = self._count_cnf if layer == "consistency.cnf" else None
            self._rebind(original, self.span(layer, original, on_result=on_result))
        for layer, modname, cls_name, name in METHODS:
            cls = self._lookup(modname, cls_name)
            original = None if cls is None else self._lookup(modname, cls_name, name)
            if original is not None:
                setattr(cls, name, self.span(layer, original))
                self._undo.append((cls, name, original))
        for name in SOLVERS:
            original = self._lookup("minrank.solvers", name)
            if original is not None:
                self._rebind(original, self._observe_trace(original))

    def uninstall(self) -> None:
        while self._undo:
            obj, attr, original = self._undo.pop()
            setattr(obj, attr, original)

    def _count_cnf(self, f) -> None:
        self.counts["cnf.clauses"] += len(getattr(f, "clauses", ()))
        self.counts["cnf.variables"] += len(getattr(f, "variables", ()))
        if self._in_fpt:
            self.counts["fpt_guesses"] += 1

    def _observe_trace(self, fn):
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            self.counts["augmentations"] += len(getattr(result, "trace", ()))
            return result

        return wrapper

    # -- one traced solve ------------------------------------------------------

    def matroid(self, m) -> _TimedMatroid:
        kind = RANK_KINDS.get(m.kind, "other")
        return _TimedMatroid(m, self.span(f"core.rank.{kind}", m.rank, charge_queries=False))

    def attach(self, oracle) -> None:
        """Time `oracle.rmin` and record the distinct masks it is asked."""
        self._oracle = oracle
        self._masks = masks = set()
        timed = self.span("oracle.rmin", oracle.rmin, charge_queries=False)

        def rmin(mask):
            masks.add(mask)
            return timed(mask)

        oracle.rmin = rmin

    def solve(self, fn, mode: str):
        """Run `fn()` as the root span of one solve."""
        self._in_fpt = mode == "fpt"
        q0 = self._queries()
        t0 = time.perf_counter()
        try:
            return self.span("solve", fn)()
        finally:
            self.solve_wall += time.perf_counter() - t0
            self.solve_queries += self._queries() - q0
            self.counts["distinct_masks"] += len(self._masks)
            self._in_fpt = False
            self._oracle = None

    # -- results ---------------------------------------------------------------

    def check_sums(self) -> list[str]:
        """Problems with the partition of solve time and queries, if any."""
        problems = []
        self_sum = sum(self.stats[name][1] for name in SOLVE_LAYERS)
        if abs(self_sum - self.solve_wall) > 1e-3 + 1e-3 * self.solve_wall:
            problems.append(f"layer self times sum to {self_sum} s, solves took {self.solve_wall} s")
        charged = sum(
            self.stats[name][2]
            for name in SOLVE_LAYERS
            if name != "oracle.rmin" and not name.startswith("core.")
        )
        if charged != self.solve_queries:
            problems.append(f"layer queries sum to {charged}, solves asked {self.solve_queries}")
        return problems

    def metrics(self) -> dict[str, tuple[float, str]]:
        s = self.stats
        rank_calls = sum(s[f"core.rank.{k}"][0] for k in ("partition", "graphic", "linear", "other"))
        rank_s = sum(s[f"core.rank.{k}"][1] for k in ("partition", "graphic", "linear", "other"))

        def ns_per_call(layer: str) -> float:
            calls, secs, _ = s[layer]
            return secs / calls * 1e9 if calls else 0.0

        rmin_calls = s["oracle.rmin"][0]
        distinct = self.counts["distinct_masks"]
        obs_calls, obs_s, obs_q = s["consistency.observations"]
        out = {
            "core.rank.calls": (rank_calls, "count"),
            "core.rank.self_s": (rank_s, "s"),
            "core.rank.partition.ns": (ns_per_call("core.rank.partition"), "ns"),
            "core.rank.graphic.ns": (ns_per_call("core.rank.graphic"), "ns"),
            "core.rank.linear.ns": (ns_per_call("core.rank.linear"), "ns"),
            "oracle.rmin.calls": (rmin_calls, "count"),
            "oracle.rmin.self_s": (s["oracle.rmin"][1], "s"),
            "oracle.distinct_masks": (distinct, "count"),
            "oracle.repeat_frac": ((rmin_calls - distinct) / rmin_calls if rmin_calls else 0.0, "ratio"),
        }
        for layer in ("exchange.survey", "exchange.probe_graph", "exchange.paths"):
            out[f"{layer}.self_s"] = (s[layer][1], "s")
            out[f"{layer}.queries"] = (s[layer][2], "count")
        out.update(
            {
                "consistency.observations.calls": (obs_calls, "count"),
                "consistency.observations.queries": (obs_q, "count"),
                "consistency.observations.self_s": (obs_s, "s"),
                "consistency.observations.hit_frac": (
                    (obs_calls - obs_q) / obs_calls if obs_calls else 0.0,
                    "ratio",
                ),
                "consistency.cnf.self_s": (s["consistency.cnf"][1], "s"),
                "consistency.cnf.queries": (s["consistency.cnf"][2], "count"),
                "consistency.cnf.clauses": (self.counts["cnf.clauses"], "count"),
                "consistency.cnf.variables": (self.counts["cnf.variables"], "count"),
                "consistency.twosat.self_s": (s["consistency.twosat"][1], "s"),
                "consistency.twosat.queries": (s["consistency.twosat"][2], "count"),
                "solvers.cheapest_path.self_s": (s["solvers.cheapest_path"][1], "s"),
                "solvers.cheapest_path.queries": (s["solvers.cheapest_path"][2], "count"),
                "solvers.augmentations": (self.counts["augmentations"], "count"),
                "solvers.fpt_guesses": (self.counts["fpt_guesses"], "count"),
                "solvers.self_s": (s["solve"][1], "s"),
                "solvers.queries": (s["solve"][2], "count"),
                "instances.loads_s": (s["instances.loads"][1], "s"),
                "trace.solve_s": (self.solve_wall, "s"),
                "trace.queries": (self.solve_queries, "count"),
            }
        )
        return out
