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
queries; the weighted rows stayed the same.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from minrank import (
    crossed_partition_instance,
    dumps,
    random_fpt_instance,
    random_instance,
    random_lexmax_instance,
    random_promise_instance,
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
    ("crossed", "solve --mode weighted --promise no-circuit-inclusion --trace", "142bf2177972639f31c31b70e1ca730cf2fa9df3cd564bd15761b5d3d652ae6b"),
    ("crossed", "solve --mode fpt --gamma 3 --trace", "ad4f52a19f18969054c770c39eee850ae83ed1332dd952a5506fe4b916480f30"),
    ("crossed", "solve --mode lexmax --trace", "19cbc201c2a5d1334271d1044ca240fde83b0c50d8ce74bd2744b1acc0d4a8b0"),
    ("crossed", "solve --mode approx --trace", "af58946e4424a66933344ee61560f953121f20e78b1e8dc3ce7f3ad951267ff8"),
    ("random-7", "solve --mode cardinality --trace", "3638eb48b1d0cdaef20deb0a4b5dd10f91993da9e41373a215914513d29ce36a"),
    ("random-7", "solve --mode weighted --promise no-circuit-inclusion --trace", "da890c69d4c09b3668ce1006b27681046cb6d142160fc8baef725455b43d2a20"),
    ("random-7", "solve --mode fpt --gamma 3 --trace", "62f487532da2f3a5c47d214bc6ef3541e145bfbaa9a35f4d3c9bf0c31f112412"),
    ("random-7", "solve --mode lexmax --trace", "4f26da98a5ee0eb7d4e3178c6a593251c1aaf53ae2c2ce5112ce7ec9c470abe6"),
    ("random-7", "solve --mode approx --trace", "acbf4e57ffd70ad2da317c54ce64c4c1a28108dc966ffd55a027475e5ce32abb"),
    ("promise-7", "solve --mode cardinality --trace", "61206a375eb0cd8234449a57d4c0411b759f01ed41aad9fb2d8d24fbde96868f"),
    ("promise-7", "solve --mode weighted --promise no-circuit-inclusion --trace", "9034b837af4a300bf646b10992588d84f8e2c7c2bd078887f508ba0e2f2915f9"),
    ("promise-7", "solve --mode fpt --gamma 3 --trace", "86d22f9178df5cd3ceb04b9f827ce4f8b529c61f1411816e34278653824974e1"),
    ("promise-7", "solve --mode lexmax --trace", "bedaf11416c6aec6f26ca13e65ecd77b852ba4b19455ecfdaef60fdfe9746d11"),
    ("promise-7", "solve --mode approx --trace", "83ff1dd7c0f074a1647aaf4f70c82394153adb76421a513ab5e9640d7c0510f6"),
    ("fpt-8", "solve --mode cardinality --trace", "8c7231de71becd4cf61fd4f5d3abcddd9c3b596d540d24e441e3d1b361bcafa3"),
    ("fpt-8", "solve --mode weighted --promise no-circuit-inclusion --trace", "6fdfc9c1c1ab4fd272ced6e81fdf92124363276511921198f15c695f56134e4b"),
    ("fpt-8", "solve --mode fpt --gamma 3 --trace", "9b0f6fb320e9f51891a138ab67c0a697e51f0d5eefee02c31984ecf68245a7a1"),
    ("fpt-8", "solve --mode lexmax --trace", "9977017630bd505d8adb22bd1fac0b4cd09173ca9a4a23557b0f7525b3516c05"),
    ("fpt-8", "solve --mode approx --trace", "6b871aab844f5a19f08757cba7ce4c9003b65c12f5b1a395a03b55206cebbbcc"),
    ("lexmax-7", "solve --mode cardinality --trace", "a6278f365e2072f90a568af546f15e26d372abea6105684094bfbc2df7f6f8a4"),
    ("lexmax-7", "solve --mode weighted --promise no-circuit-inclusion --trace", "ebfad139cc36c73260696285dbd212ff8057bcc3844d27c9073a36370e2666c5"),
    ("lexmax-7", "solve --mode fpt --gamma 3 --trace", "0b6276077adb70a0e1db745e86914189cd326227f54ea4ff5731f21c86b4335a"),
    ("lexmax-7", "solve --mode lexmax --trace", "25784ea21aad451cde63ab32b897d85196317d45a5f970b0758a2f6a09f9aff4"),
    ("lexmax-7", "solve --mode approx --trace", "b80f9a582efabef8348088af13d2f67be7788a403ecb0f6e1570026c5171740d"),
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
    ("bench --sizes 8,16,32", "716123413dbf385c7736c79d9f2a08b2112fadc6dbc19626e479bf5d36141134"),
]


@pytest.mark.parametrize("command,digest", TOOL_GOLDEN, ids=[c for c, _ in TOOL_GOLDEN])
def test_tool_output_unchanged(command, digest, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "edge.json").write_text(json.dumps({"vertices": 2, "edges": [[0, 1]]}))
    code = main(command.split())
    out = capsys.readouterr()
    got = hashlib.sha256(f"{code}\n{out.out}\n{out.err}".encode()).hexdigest()
    assert got == digest, f"output of `minrank {command}` changed"
