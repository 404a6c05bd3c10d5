"""Instance files and seeded instance generators.

An instance is a matroid pair on a shared ground set, optionally with
element names and exact rational weights. The on-disk form is JSON with a
schema version; rationals travel as "p/q" strings so nothing ever rounds.
Emission is canonical (sorted keys, fixed indentation), making
emit-after-parse the identity on emitted files.

Loading validates that the pair is loopless through the minimum-rank
interface (a loop in either matroid shows up as a rank-0 singleton) and
structurally validates explicit independence families; dumping never
validates.
"""

from __future__ import annotations

import hashlib
import json
import random
from fractions import Fraction
from typing import NamedTuple, Sequence

from .bitset import MAX_GROUND, bit, mask_of
from .core import (
    ExplicitMatroid,
    GraphicMatroid,
    LinearMatroid,
    Matroid,
    PartitionMatroid,
    UniformMatroid,
    validate,
)
from .oracle import MinRankOracle
from .verify import check_promise_no_circuit_inclusion

SCHEMA_VERSION = 1

GENERATOR_KINDS = ("uniform", "partition", "graphic", "linear-rational", "explicit")


class InstanceError(ValueError):
    """A malformed or invalid instance file."""


def _json_int(x: object) -> int:
    """A JSON integer; a bool, float or string is refused, not truncated."""
    if isinstance(x, bool) or not isinstance(x, int):
        raise ValueError(f"expected an integer, got {json.dumps(x)}")
    return x


class Instance(NamedTuple):
    """A loaded matroid pair with optional weights and names."""

    n: int
    matroid1: Matroid
    matroid2: Matroid
    weights: tuple[Fraction, ...] | None = None
    names: tuple[str, ...] | None = None

    def weight_vector(self) -> tuple[Fraction, ...]:
        """The weights, defaulting to all ones when the file had none."""
        if self.weights is not None:
            return self.weights
        return tuple(Fraction(1) for _ in range(self.n))


def _matroid_to_spec(m: Matroid) -> dict:
    if m.kind not in GENERATOR_KINDS:
        raise InstanceError(f"matroid kind {m.kind!r} has no file form")
    return {"kind": m.kind, **m.params()}


def _matroid_from_spec(spec: object, n: int, where: str) -> Matroid:
    if not isinstance(spec, dict):
        raise InstanceError(f"{where}: expected an object, got {type(spec).__name__}")

    def field(name: str) -> object:
        if name not in spec:
            raise InstanceError(f"{where}: missing field {name!r}")
        return spec[name]

    def ints(name: str, xs: object) -> list[int]:
        # The type test spares a call per entry; loading is timed set-up.
        try:
            return [x if type(x) is int else _json_int(x) for x in xs]
        except ValueError as exc:
            raise InstanceError(f"{where}: {name}: {exc}") from exc

    def int_field(name: str) -> int:
        return ints(name, [field(name)])[0]

    def int_rows(name: str) -> list[list[int]]:
        rows = field(name)
        ints(name, [x for row in rows for x in row])
        return rows

    kind = field("kind")
    try:
        if kind == "uniform":
            m: Matroid = UniformMatroid(int_field("k"), int_field("n"))
        elif kind == "partition":
            blocks = [mask_of(b) for b in int_rows("blocks")]
            caps = ints("capacities", field("capacities"))
            m = PartitionMatroid(int_field("n"), blocks, caps)
        elif kind == "graphic":
            edges = int_rows("edges")
            m = GraphicMatroid(int_field("num_vertices"), edges)
        elif kind == "linear-rational":
            m = LinearMatroid(field("rows"))
        elif kind == "explicit":
            family = [mask_of(f) for f in int_rows("family")]
            m = ExplicitMatroid(int_field("n"), family)
        else:
            raise InstanceError(
                f"{where}: unknown kind {kind!r}; expected one of {GENERATOR_KINDS}"
            )
    except InstanceError:
        raise
    except (TypeError, ValueError, ZeroDivisionError) as exc:
        raise InstanceError(f"{where}: {exc}") from exc
    if m.n != n:
        raise InstanceError(f"{where}: ground set size {m.n} disagrees with n={n}")
    return m


def dumps(inst: Instance) -> str:
    """Canonical JSON text for an instance; performs no validation."""
    doc: dict = {
        "schema": SCHEMA_VERSION,
        "n": inst.n,
        "matroid1": _matroid_to_spec(inst.matroid1),
        "matroid2": _matroid_to_spec(inst.matroid2),
    }
    if inst.names is not None:
        doc["names"] = list(inst.names)
    if inst.weights is not None:
        doc["weights"] = [str(w) for w in inst.weights]
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def loads(text: str) -> Instance:
    """Parse and validate instance JSON.

    Field errors name the offending field; JSON syntax errors carry the
    line and column from the decoder. The loaded pair must be loopless:
    every singleton must have minimum rank one.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InstanceError(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise InstanceError("instance file must hold a JSON object")
    if doc.get("schema") != SCHEMA_VERSION:
        raise InstanceError(
            f"unsupported schema {doc.get('schema')!r}; this reader handles {SCHEMA_VERSION}"
        )
    if "n" not in doc:
        raise InstanceError("missing field 'n'")
    try:
        n = _json_int(doc["n"])
    except ValueError as exc:
        raise InstanceError(f"n: {exc}") from exc
    if not 0 <= n <= MAX_GROUND:
        raise InstanceError(f"n={n} outside the supported range 0..{MAX_GROUND}")
    for key in ("matroid1", "matroid2"):
        if key not in doc:
            raise InstanceError(f"missing field {key!r}")
    m1 = _matroid_from_spec(doc["matroid1"], n, "matroid1")
    m2 = _matroid_from_spec(doc["matroid2"], n, "matroid2")

    names: tuple[str, ...] | None = None
    if "names" in doc:
        raw = doc["names"]
        if not isinstance(raw, list) or len(raw) != n or not all(
            isinstance(x, str) for x in raw
        ):
            raise InstanceError(f"names: expected a list of {n} strings")
        names = tuple(raw)
    weights: tuple[Fraction, ...] | None = None
    if "weights" in doc:
        raw = doc["weights"]
        if not isinstance(raw, list) or len(raw) != n:
            raise InstanceError(f"weights: expected a list of {n} rationals")
        for x in raw:
            if isinstance(x, bool) or not isinstance(x, (int, str)):
                raise InstanceError(
                    f"weights: {json.dumps(x)} is not an exact rational; write "
                    'an integer or a string such as "0.1" or "1/3"'
                )
        try:
            weights = tuple(Fraction(x) for x in raw)
        except (ValueError, ZeroDivisionError) as exc:
            raise InstanceError(f"weights: {exc}") from exc

    for m, where in ((m1, "matroid1"), (m2, "matroid2")):
        if isinstance(m, ExplicitMatroid):
            report = validate(m)
            if not report.ok:
                raise InstanceError(f"{where}: not a matroid; {report}")
    o = MinRankOracle(m1, m2)
    for e in range(n):
        if o.rmin(bit(e)) == 0:
            raise InstanceError(f"element {e} is a loop; instances must be loopless")
    return Instance(n, m1, m2, weights, names)


def load(path: str) -> Instance:
    """Read and validate an instance file."""
    with open(path, encoding="utf-8") as fh:
        return loads(fh.read())


def save(path: str, inst: Instance) -> None:
    """Write an instance in canonical form."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps(inst))


def crossed_partition_instance(
    weights: Sequence[Fraction | int | str] | None = None,
) -> Instance:
    """The four-element fixture: rows {0,1},{2,3} crossed with {0,2},{1,3},
    every block capped at one. Its common independent sets are exactly the
    transversal pairs, one element per row and column."""
    m1 = PartitionMatroid(4, (mask_of((0, 1)), mask_of((2, 3))), (1, 1))
    m2 = PartitionMatroid(4, (mask_of((0, 2)), mask_of((1, 3))), (1, 1))
    w = None if weights is None else tuple(Fraction(x) for x in weights)
    return Instance(4, m1, m2, w, None)


# -- seeded generators ----------------------------------------------------------


def _rng(*parts: object) -> random.Random:
    """A process-independent RNG keyed by the given parts."""
    digest = hashlib.sha256(":".join(map(str, parts)).encode()).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


def _random_partition(
    rng: random.Random, n: int, cap_max: int | None = None
) -> PartitionMatroid:
    order = list(range(n))
    rng.shuffle(order)
    blocks: list[list[int]] = [[order[0]]] if n else [[]]
    for e in order[1:]:
        if rng.random() < 0.5:
            blocks.append([e])
        else:
            blocks[-1].append(e)
    masks = [mask_of(b) for b in blocks]
    caps = []
    for b in blocks:
        top = len(b) if cap_max is None else min(cap_max, len(b))
        caps.append(rng.randint(1, max(1, top)))
    return PartitionMatroid(n, masks, caps)


def _random_graphic(rng: random.Random, n: int) -> GraphicMatroid:
    v = rng.randint(2, max(2, min(6, n + 1)))
    edges = []
    for _ in range(n):
        u = rng.randrange(v)
        w = rng.randrange(v)
        while w == u:
            w = rng.randrange(v)
        edges.append((u, w))
    return GraphicMatroid(v, edges)


def _random_linear(rng: random.Random, n: int) -> LinearMatroid:
    r = rng.randint(1, max(1, min(4, n)))
    cols = []
    for _ in range(n):
        col = [rng.randint(-2, 2) for _ in range(r)]
        while not any(col):
            col = [rng.randint(-2, 2) for _ in range(r)]
        cols.append(col)
    rows = [[cols[j][i] for j in range(n)] for i in range(r)]
    return LinearMatroid(rows)


def _random_matroid(rng: random.Random, n: int, kind: str) -> Matroid:
    if kind == "uniform":
        return UniformMatroid(rng.randint(1, max(1, n)), n)
    if kind == "partition":
        return _random_partition(rng, n)
    if kind == "graphic":
        return _random_graphic(rng, n)
    if kind == "linear-rational":
        return _random_linear(rng, n)
    if kind == "explicit":
        if n > 12:
            raise ValueError("explicit generation enumerates 2^n sets; n is capped at 12")
        base = _random_linear(rng, n)
        family = [mask for mask in range(1 << n) if base.is_independent(mask)]
        return ExplicitMatroid(n, family)
    raise ValueError(f"unknown generator kind {kind!r}")


def _random_weights(rng: random.Random, n: int, pool: int | None = None) -> tuple[Fraction, ...]:
    if pool is not None:
        choices = sorted(
            {Fraction(rng.randint(1, 9), rng.choice((1, 2))) for _ in range(pool)}
        )
        return tuple(rng.choice(choices) for _ in range(n))
    return tuple(Fraction(rng.randint(1, 8), rng.choice((1, 1, 2))) for _ in range(n))


def random_instance(
    seed: int,
    n: int,
    kinds: Sequence[str] = GENERATOR_KINDS,
    weighted: bool = False,
) -> Instance:
    """A seeded loopless pair of the given kinds, optionally weighted."""
    if n < 0:
        raise ValueError(f"ground set size {n} is negative")
    rng = _rng("instance", seed, n)
    m1 = _random_matroid(rng, n, rng.choice(list(kinds)))
    m2 = _random_matroid(rng, n, rng.choice(list(kinds)))
    w = _random_weights(rng, n) if weighted else None
    return Instance(n, m1, m2, w, None)


def random_promise_instance(seed: int, n: int) -> Instance:
    """A seeded weighted partition pair where no circuit of one matroid
    contains a circuit of the other (checked, retried until it holds)."""
    rng = _rng("promise", seed, n)
    for _ in range(200):
        m1 = _random_partition(rng, n)
        m2 = _random_partition(rng, n)
        if check_promise_no_circuit_inclusion(m1, m2):
            return Instance(n, m1, m2, _random_weights(rng, n), None)
    raise RuntimeError(f"no promise instance found in 200 tries (seed={seed})")


def random_fpt_instance(seed: int, n: int, gamma: int) -> Instance:
    """A seeded weighted partition pair whose circuits all have at most
    ``gamma`` elements (capacities capped at gamma - 1)."""
    if gamma < 2:
        raise ValueError("gamma must be at least 2 for loopless instances")
    rng = _rng("fpt", seed, n, gamma)
    m1 = _random_partition(rng, n, cap_max=gamma - 1)
    m2 = _random_partition(rng, n, cap_max=gamma - 1)
    return Instance(n, m1, m2, _random_weights(rng, n), None)


def random_lexmax_instance(seed: int, n: int) -> Instance:
    """A seeded weighted pair whose weights repeat across few classes."""
    rng = _rng("lexmax", seed, n)
    kinds = ("uniform", "partition", "graphic")
    m1 = _random_matroid(rng, n, rng.choice(kinds))
    m2 = _random_matroid(rng, n, rng.choice(kinds))
    return Instance(n, m1, m2, _random_weights(rng, n, pool=3), None)
