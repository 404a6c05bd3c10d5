"""Pinned CLI outputs: the sha256 of exit code and stdout per command.

Each row names a seeded instance, a command line (the instance file goes
right after the subcommand) and the sha256 of the exit code, a newline and
stdout. The digests were taken before the augmentation pipeline was merged
into one scanner, one probe-graph builder and one resolve step; a refactor
that keeps outputs byte-identical keeps every row passing. A row that fails
names its command, so a deliberate output change can be re-pinned by hand.

Re-pinned since: the `promise-7` and `fpt-8` cardinality rows, when the
cardinality search began testing arcs on demand. Only their query counts
changed (`oracle queries:` 28 -> 25 and 60 -> 43, and one step's
`queries=` each); every set, certificate and action stayed the same.
The `fpt-8` weighted, fpt, lexmax and approx rows, when the clause system
began observing only the exchanges that touch a suspicious arc: `oracle
queries:` 158 -> 143 (167 -> 152 for fpt), and one step's `queries=`
69 -> 54 (75 -> 60 for fpt); every set, path, cost and action stayed the
same.
The `crossed`, `promise-7`, `fpt-8` and `lexmax-7` rows of `solve --mode
lexmax --trace` (the only lexmax rows with a `path` line), when lexmax path
costs began printing as the signed class vector instead of one base-(2n+1)
integer: `cost=1414943` -> `cost=(1, 0, -1, 0, 0, -1)` on `fpt-8`; nothing
else in those outputs changed.
The `random-7`, `fpt-8` and `lexmax-7` rows of the five `solve --mode ...
--trace` commands (all but `lexmax-7` approx), when the survey began
finding its probe pair by prefix search instead of asking every pair:
only `oracle queries:` and `queries=` changed (`random-7` 20 -> 13 for
cardinality and 28 -> 21 for the weighted modes, `fpt-8` one query less
in every mode, `lexmax-7` cardinality 19 -> 18 and, in the weighted modes,
one step's `queries=` up by one and another's down by one). The outputs
with those numbers masked are identical to the pair loop's.
The `promise-7` and `fpt-8` rows of the five `solve --mode ... --trace`
commands, when the probe graphs and the on-demand search began finding
arcs by group tests on fundamental circuits: only `oracle queries:` and
`queries=` changed. `oracle queries:` went 25 -> 28 (cardinality),
67 -> 76 (weighted, lexmax, approx) and 72 -> 81 (fpt) on `promise-7`,
whose seven elements leave groups too small to pay for their first
question, and 42 -> 41 (cardinality), 142 -> 140 (weighted, lexmax,
approx) and 151 -> 149 (fpt) on `fpt-8`. The step lines moved with them:
on `promise-7` one cardinality step 13 -> 16, and three weighted and
lexmax steps 17 -> 20, 16 -> 19 and 15 -> 18 (fpt 18 -> 21, 17 -> 20,
18 -> 21); on `fpt-8` one cardinality step 23 -> 22, and two weighted and
lexmax steps 25 -> 29 and 54 -> 48 (fpt 26 -> 30 and 60 -> 54). The
outputs with those numbers masked are identical to the per-arc rule's.
The five `solve --mode cardinality --trace` rows, when a step after a
direct add began resuming the survey before it (no entry check, and the
singletons known to be flat not asked) and the certifying step began
checking `rmin(I) = |I|` and `rmin(Z) + rmin(E \\ Z) = |I|`: only
`oracle queries:` and `queries=` changed. `oracle queries:` went
10 -> 9 (`crossed`), 13 -> 14 (`random-7`), 28 -> 25 (`promise-7`),
41 -> 34 (`fpt-8`) and 18 -> 13 (`lexmax-7`). Step lines: `crossed`
4 -> 3; `random-7` 2 -> 1 and the certificate 9 -> 11; `promise-7`
2, 2, 2, 2, 16 -> 1, 1, 1, 1, 15 and the certificate 2 -> 4; `fpt-8`
3, 4, 4, 22 -> 2, 2, 1, 19 and the certificate 6 -> 8; `lexmax-7`
2, 3, 5 -> 1, 2, 3 and the certificate 6 -> 5.
The twenty weighted, fpt, lexmax and approx `solve --trace` rows of
`crossed`, `random-7`, `promise-7`, `fpt-8` and `lexmax-7`, when each
weighted run began carrying its stars' circuits from step to step and
ending with an exit check (`rmin(I) = |I|` for every nonempty set it
passed through, then `rmin(Z) + rmin(E \\ Z) = |I|`, charged to the
certificate line): only `oracle queries:` and `queries=` changed. `oracle
queries:` went, for weighted, fpt, lexmax and approx in turn, 17, 20, 17,
17 -> 21, 24, 19, 19 (`crossed`); 21 -> 25 in all four (`random-7`);
76, 81, 76, 76 -> 60, 65, 60, 60 (`promise-7`); 140, 149, 140, 140 ->
111, 120, 111, 111 (`fpt-8`); and 54, 58, 54, 54 -> 58, 62, 58, 58
(`lexmax-7`). The certificate lines grew by the exit check (4 queries on
`crossed` in weighted and fpt, 2 in lexmax, where the last survey skips
two carried elements; 4 on `random-7` and `lexmax-7`; 8 on `promise-7`;
7 on `fpt-8`), and the path and guess lines of `promise-7` (19, 18 ->
8, 5; fpt 20, 21 -> 9, 8) and `fpt-8` (29, 26, 48 -> 17, 14, 36; fpt
30, 27, 54 -> 18, 15, 42) fell with the carried stars. The outputs with
those numbers masked are identical.
The ten weighted, fpt, lexmax and approx `solve --trace` rows of
`crossed` (weighted and fpt), `promise-7` and `fpt-8`, when the star sets
began taking the survey's forced answers (a direct element is a source
and a sink, a flat source is no sink) and re-asking the skipped tests of
the elements entering I: only `oracle queries:` and `queries=` changed.
`oracle queries:` went 21, 24 -> 19, 22 (`crossed`, weighted and fpt);
60, 65, 60, 60 -> 58, 63, 58, 58 (`promise-7`, weighted, fpt, lexmax and
approx); and 111, 120, 111, 111 -> 99, 108, 99, 99 (`fpt-8`). The path
and guess lines fell with them: `crossed` 10 -> 8 (fpt 13 -> 11),
`promise-7` 20 -> 18 (fpt 21 -> 19), and `fpt-8` 24, 17, 14 ->
18, 13, 12 (fpt 25, 18, 15 -> 19, 14, 13).
The ten rows `crossed` fpt, `promise-7` fpt, and the weighted, fpt,
lexmax and approx rows of `fpt-8` and `lexmax-7`, when a weighted step
began to be decided on the intersected graph when that graph decides it
(no source-sink path, or a shortest cheapest path of sure arcs only),
with no observation, clause system or guess: every set, path, cost and
certificate stayed the same, and no step of these rows resolves, so no
line carries the `resolved` mark. `oracle queries:` went 22 -> 19
(`crossed` fpt), 63 -> 58 (`promise-7` fpt), 99 -> 84 (`fpt-8`
weighted, lexmax, approx), 108 -> 84 (`fpt-8` fpt), 58 -> 52
(`lexmax-7` weighted, lexmax, approx) and 62 -> 52 (`lexmax-7` fpt).
The path lines fell with them: `fpt-8` 36 -> 21 and `lexmax-7`
31 -> 25. The fpt rows' decided steps write the `path` line that the
other weighted modes write, in place of their `guesses` line: `crossed`
`guesses J={} tried=1 candidates=1 queries=11` -> `path P=(1, 0, 2)
cost=-3 queries=8`, `promise-7` three such lines (19, 9, 8 queries ->
18, 8, 5), `fpt-8` four (19, 14, 13, 42 -> 18, 13, 12, 21, the last
`J={1} tried=2`) and `lexmax-7` one (`J={0,1} tried=4`, 35 -> 25); each
path is the one the other weighted modes take at that step.

The five `verify` rows were pinned before `minrank verify` began reading
every brute-force fact from one hidden-rank table per matroid pair; they
passed unchanged across that refactor. `verify` prints the instance file's
name, so every row runs in the test's own directory on a relative name.

The three `graph --which true` rows were pinned before the exchange graph
kept one successor mask per vertex in place of its two arc lists and two
sure lists, so they cover the true graph's filler across that change.

`gadget` and `bench` take no instance file, so their rows live in a second
table, `TOOL_GOLDEN`, and hash stderr too: the sha256 of the exit code, a
newline, stdout, a newline and stderr. Both rows were pinned before the
bounded-circuit step began reading each evil pair once. The `bench` row
prints query counts, so a change that alters queries re-pins it, as it
does the `solve` rows. It was re-pinned when the arcs began to be found by
group tests: the cardinality queries at n = 16 went 92 -> 80 and
103 -> 96, at n = 32 270 -> 198 and 328 -> 247 (max C 0.057 -> 0.054),
and the weighted queries at n = 16 297 -> 266 and at n = 32 637 -> 514,
each row's C with its queries; the n = 8 rows and the rest stayed the
same. It was re-pinned again when the cardinality survey began resuming
after a direct add: the cardinality queries went 16 -> 14 and 17 -> 12
at n = 8, 80 -> 58 and 96 -> 70 at n = 16, and 198 -> 124 and
247 -> 161 at n = 32 (max C 0.054 -> 0.044), each row's C with its
queries; the weighted rows stayed the same. It was re-pinned when the
weighted runs began carrying star circuits and checking their exit: the
weighted queries went 266 -> 252 at n = 16 (C 0.016 -> 0.015) and
514 -> 416 at n = 32 (C 0.008 -> 0.006); n = 8 stayed at 44, and the
cardinality rows stayed the same. It was re-pinned when the star sets
began taking the survey's forced answers: the weighted queries went
44 -> 38 at n = 8, 252 -> 222 at n = 16 and 416 -> 327 at n = 32 (max C
0.086 -> 0.074), and the cardinality queries at n = 32 124 -> 116 and
161 -> 155, each row's C with its queries; the other rows stayed the
same.

`test_seeded_solves_unchanged` pins the library the same way, without
the CLI: the sha256 of `repr` of every result (its trace lines included)
and the oracle's query count, over the five solvers, four generators,
n = 6..10 and seeds 0..7. It was pinned before the exchange functions
began reading the survey whole, and passed unchanged across that change;
like the `solve` rows, only a change that means to alter queries or
results re-pins it. It was re-pinned when weighted steps began to be
decided on the intersected graph: queries went 33,571 -> 32,257 (7,687
-> 7,414 weighted, 7,837 -> 7,420 fpt, 7,687 -> 7,375 lexmax and approx,
cardinality unchanged at 2,673). Every level, set and certificate stayed
the same; of the 3,240 trace lines, 51 changed only in `queries=`, 77
fpt `guesses` lines became `path` lines and 9 became `certificate`
lines, and 2 gained the `resolved` mark.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from minrank import (
    MinRankOracle,
    approx_max_weight,
    crossed_partition_instance,
    dumps,
    lexicographic_max,
    max_cardinality,
    random_fpt_instance,
    random_instance,
    random_lexmax_instance,
    random_promise_instance,
    weighted_fpt_circuit,
    weighted_no_circuit_inclusion,
)
from minrank.cli import main

INSTANCES = {
    "crossed": lambda: crossed_partition_instance(weights=(5, 4, 4, 1)),
    "random-7": lambda: random_instance(1, 7, weighted=True),
    "promise-7": lambda: random_promise_instance(3, 7),
    "fpt-8": lambda: random_fpt_instance(4, 8, 3),
    "lexmax-7": lambda: random_lexmax_instance(1, 7),
    "mixed-8": lambda: random_instance(
        100, 8, kinds=("partition", "graphic"), weighted=True
    ),
    "promise-8": lambda: random_promise_instance(11, 8),
}

GOLDEN = [
    ("crossed", "solve --mode cardinality --trace", "9fbcae25c94927dba663e638ee2aa97716114b4bddc72417e8ad0cc6de6bc83a"),
    ("crossed", "solve --mode weighted --promise no-circuit-inclusion --trace", "434eecf0dacd7c6d55d89f28eb735d849b8aaf80670ee68f8b0b7a35f5a85e77"),
    ("crossed", "solve --mode fpt --gamma 3 --trace", "62abea68ae78fca91f127079c3eb16de69b8afd32aeef41746314ff47718a770"),
    ("crossed", "solve --mode lexmax --trace", "db815465f1e6ca2f51cddb5f8337e78a8fb765ab9295b05888e9db68423ef482"),
    ("crossed", "solve --mode approx --trace", "8b01d4a5374f8a2cde1f9631d1f2fbea90175492c103d184b59b54d57c6a72e0"),
    ("random-7", "solve --mode cardinality --trace", "3638eb48b1d0cdaef20deb0a4b5dd10f91993da9e41373a215914513d29ce36a"),
    ("random-7", "solve --mode weighted --promise no-circuit-inclusion --trace", "5ac11d8278b6308879c87f8ebafe2a6aadc91229b13defa433e3e975d6126580"),
    ("random-7", "solve --mode fpt --gamma 3 --trace", "57f720004c8c3a33528040fb4900f75f930b32b8ea2c0171b1ad9f957c4817cf"),
    ("random-7", "solve --mode lexmax --trace", "2d4b0009725a78c6b1e1da817240286d1cca3f3308b6ce8b3005107e34a3bb59"),
    ("random-7", "solve --mode approx --trace", "d64ff1eda5ed37eb8646e7d2f1109ee02b90e9a81cca0b680fdf94e413a9e0ec"),
    ("promise-7", "solve --mode cardinality --trace", "61206a375eb0cd8234449a57d4c0411b759f01ed41aad9fb2d8d24fbde96868f"),
    ("promise-7", "solve --mode weighted --promise no-circuit-inclusion --trace", "ee0d19501a0aeae2ba3be0ec4ccf66156946f0523cda8b554d168d6f3ad357e2"),
    ("promise-7", "solve --mode fpt --gamma 3 --trace", "1cea3e9b922f5782fc488397ae3357e9bb01c6b2978a8f5d71fcd71fe8030ad2"),
    ("promise-7", "solve --mode lexmax --trace", "5c67cffb3d7d117242e84287e7e1641ea7b31c3d93c1468a2c8ed55d971a582a"),
    ("promise-7", "solve --mode approx --trace", "54bc512ca17a2c513613ccdd48654604f5d09bc808b909e3df9e701cd39c4329"),
    ("fpt-8", "solve --mode cardinality --trace", "8c7231de71becd4cf61fd4f5d3abcddd9c3b596d540d24e441e3d1b361bcafa3"),
    ("fpt-8", "solve --mode weighted --promise no-circuit-inclusion --trace", "bd98d18be21080baade8614674fc99eaa36c30a03b4b3c00bb06fa3fd7e601c8"),
    ("fpt-8", "solve --mode fpt --gamma 3 --trace", "7ed8d49df6509afdf18eeb52c5e3897816a37d1020a34fc1d025596c3074caf2"),
    ("fpt-8", "solve --mode lexmax --trace", "43398d14e9637cc6a9edb549315abe8e07d3327b47afc2930f19c7dd9e305f4d"),
    ("fpt-8", "solve --mode approx --trace", "8e524e1d3d9b1d8ef432610787b760370574813ff5ba23d4cd6b88abae55e95b"),
    ("lexmax-7", "solve --mode cardinality --trace", "a6278f365e2072f90a568af546f15e26d372abea6105684094bfbc2df7f6f8a4"),
    ("lexmax-7", "solve --mode weighted --promise no-circuit-inclusion --trace", "2f9f046acf94574be783c2073521ca3dbf792b12adbc290d43fda25b852b575d"),
    ("lexmax-7", "solve --mode fpt --gamma 3 --trace", "64e79c9a826ed0bb9f212cde94d5a59a73aad5bfda5d0e86690cf87263d2fcdb"),
    ("lexmax-7", "solve --mode lexmax --trace", "391edefd35d070907609f4b862c36f12f7eaf30c6f2c404059406e7773fc293b"),
    ("lexmax-7", "solve --mode approx --trace", "de3eca6af0ec95ff4026f5db240575bc9d0df0ec015c297fa19a7b3400fcea4e"),
    ("lexmax-7", "graph --set {0,2,5} --which true", "407bdedf4f1b5f1376e9474a7fcb83354cd90b4776adeadb169969e9afee29e6"),
    ("lexmax-7", "graph --set {0,2,5} --which modified", "2d007c3ccdf46ff526d8680870c6b8e10faa53468b1d2ab0b689c1b2d3de6b49"),
    ("lexmax-7", "graph --set {0,2,5} --which intersected", "ccb0a657e7f72c2da5733e92ff7e8cb301752fda3c9539d4316b74439a1f677b"),
    ("lexmax-7", "graph --set {0,2,5} --which consistent", "c512e5a75aca7c58764d297384dcfa718ca70370a1261ceb1a15531a20d929c3"),
    ("mixed-8", "graph --set {1,5,6} --which true", "46fe9dcd1333b7c31af9addb1d9de5a2bcc63012da2e8b5739f4e5ded69cb0c1"),
    ("mixed-8", "graph --set {1,5,6} --which modified", "6457db025456c9437a9e0f20e3bc8a074092c54e71d3a8ecf4837fdbd9f526b2"),
    ("mixed-8", "graph --set {1,5,6} --which intersected", "000570c877c78adfb9ad2dd0065e986d418c7821fa3bfeec5740e3e0f726e6ed"),
    ("mixed-8", "graph --set {1,5,6} --which consistent", "fdaabdbfd96ea3c9ffca897832418689d8826559cf00e0b5c2a7dacce9551c1f"),
    ("promise-8", "graph --set {0,1,3,5,6} --which true", "8926c115b416382ced47b072a6f961075f9612db96bbe19dd33215d3816f101e"),
    ("promise-8", "graph --set {0,1,3,5,6} --which modified", "7cd37a57f4f3cdff309995ed927b1c1dbc61ebe851217dc98681f023f6b94eb6"),
    ("promise-8", "graph --set {0,1,3,5,6} --which intersected", "f92b026d86d6e967d396511a866b3bb1eb8856991f8a00a8770243d23b75e312"),
    ("promise-8", "graph --set {0,1,3,5,6} --which consistent", "83329935c13726748c5f9806fb092320587714f98d5598d71b801ab6b2959192"),
    ("crossed", "verify", "7cb60a1a5fedb5c43a701a74e71a86abdb0d7a724c53a936aaaa84102704c7ae"),
    ("random-7", "verify", "9f900062b0b48619dda002ca5a6ae011eb86cacc5dae1aa654b29a365ce1ce4a"),
    ("promise-7", "verify", "04ef9f821753e0bdeeba42c842e2951353e9ef48adbe3eefeb660393d034e8fa"),
    ("fpt-8", "verify", "b0d0053af0a6aac0ad2552a8c675f46b0ca13761f1438c695befccb528a5b622"),
    ("lexmax-7", "verify", "e272ef038976e9f1a6346c71ae0fadd96769980f5b10102b223ef82663078230"),
]


@pytest.mark.parametrize(
    "name,command,digest", GOLDEN, ids=[f"{n}: {c}" for n, c, _ in GOLDEN]
)
def test_cli_output_unchanged(name, command, digest, tmp_path, monkeypatch, capsys):
    # `verify` prints the file name, so every command runs on a relative one.
    monkeypatch.chdir(tmp_path)
    path = tmp_path / f"{name}.json"
    path.write_text(dumps(INSTANCES[name]()))
    sub, *rest = command.split()
    code = main([sub, path.name, *rest])
    out = capsys.readouterr().out
    got = hashlib.sha256(f"{code}\n{out}".encode()).hexdigest()
    assert got == digest, f"output of `minrank {sub} {name}.json {' '.join(rest)}` changed"


TOOL_GOLDEN = [
    ("gadget --graph edge.json", "ebbed6a0f8a5eb011b9a7f798d193a9c299f726d8ab717debce0832151bceee5"),
    ("bench --sizes 8,16,32", "661ffed64da1b0f0d5438a61c1278c432c62ebfa34f024f7588340a9eeff3b26"),
]


@pytest.mark.parametrize("command,digest", TOOL_GOLDEN, ids=[c for c, _ in TOOL_GOLDEN])
def test_tool_output_unchanged(command, digest, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "edge.json").write_text(json.dumps({"vertices": 2, "edges": [[0, 1]]}))
    code = main(command.split())
    out = capsys.readouterr()
    got = hashlib.sha256(f"{code}\n{out.out}\n{out.err}".encode()).hexdigest()
    assert got == digest, f"output of `minrank {command}` changed"


GENERATORS = (
    lambda seed, n: random_instance(seed, n, weighted=True),
    random_promise_instance,
    lambda seed, n: random_fpt_instance(seed, n, 3),
    random_lexmax_instance,
)
SOLVERS = (
    lambda o, w: max_cardinality(o),
    weighted_no_circuit_inclusion,
    lambda o, w: weighted_fpt_circuit(o, w, 3),
    lexicographic_max,
    approx_max_weight,
)


def test_seeded_solves_unchanged():
    digest = hashlib.sha256()
    solves = queries = 0
    for make in GENERATORS:
        for n in range(6, 11):
            for seed in range(8):
                inst = make(seed, n)
                for solve in SOLVERS:
                    o = MinRankOracle(inst.matroid1, inst.matroid2)
                    result = solve(o, inst.weights)
                    digest.update(f"{result!r}\n{o.query_count}\n".encode())
                    solves += 1
                    queries += o.query_count
    assert (solves, queries) == (800, 32257)
    assert digest.hexdigest() == (
        "6e0a3b517e15f855cff596d021998d71d7ccd88ef4984da8dbf7d5d3e45d9537"
    )
