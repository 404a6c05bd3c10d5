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

The five `verify` rows were pinned before `minrank verify` began reading
every brute-force fact from one hidden-rank table per matroid pair; they
passed unchanged across that refactor. `verify` prints the instance file's
name, so every row runs in the test's own directory on a relative name.
"""

from __future__ import annotations

import hashlib

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
    ("crossed", "solve --mode cardinality --trace", "5b12ef1af6e61e39a409c9e6f7b7a4188a6c7acbab29b3f9c7fd74207e4b5fdf"),
    ("crossed", "solve --mode weighted --promise no-circuit-inclusion --trace", "142bf2177972639f31c31b70e1ca730cf2fa9df3cd564bd15761b5d3d652ae6b"),
    ("crossed", "solve --mode fpt --gamma 3 --trace", "ad4f52a19f18969054c770c39eee850ae83ed1332dd952a5506fe4b916480f30"),
    ("crossed", "solve --mode lexmax --trace", "19cbc201c2a5d1334271d1044ca240fde83b0c50d8ce74bd2744b1acc0d4a8b0"),
    ("crossed", "solve --mode approx --trace", "af58946e4424a66933344ee61560f953121f20e78b1e8dc3ce7f3ad951267ff8"),
    ("random-7", "solve --mode cardinality --trace", "fb4f4d5ad0f3a54cea3b74e7bee52556be83e68e559935f6c1c7280b7e120ac7"),
    ("random-7", "solve --mode weighted --promise no-circuit-inclusion --trace", "da890c69d4c09b3668ce1006b27681046cb6d142160fc8baef725455b43d2a20"),
    ("random-7", "solve --mode fpt --gamma 3 --trace", "62f487532da2f3a5c47d214bc6ef3541e145bfbaa9a35f4d3c9bf0c31f112412"),
    ("random-7", "solve --mode lexmax --trace", "4f26da98a5ee0eb7d4e3178c6a593251c1aaf53ae2c2ce5112ce7ec9c470abe6"),
    ("random-7", "solve --mode approx --trace", "acbf4e57ffd70ad2da317c54ce64c4c1a28108dc966ffd55a027475e5ce32abb"),
    ("promise-7", "solve --mode cardinality --trace", "4886b7268ea9be9028c2efce1d3726d77f4be58751907d95fb603080d3704281"),
    ("promise-7", "solve --mode weighted --promise no-circuit-inclusion --trace", "068352bf1538a01df63e3da7041a722a4f4389ecb8893a8ce8808dec3f76b58e"),
    ("promise-7", "solve --mode fpt --gamma 3 --trace", "de57a2d3c9a3438cec5d311c3b8e5894a4b4cbf9fd7a2873daa4156e75e473d3"),
    ("promise-7", "solve --mode lexmax --trace", "eb898dcf97ab2c2407481049d6a7377102209adaacc42e2d7631309585bd6622"),
    ("promise-7", "solve --mode approx --trace", "68b93da4d4347af903dd3f1038577d49a570d7a5942c1be195f4349bfebf80df"),
    ("fpt-8", "solve --mode cardinality --trace", "0e22316df2c55325115d02dd0a24cd162542a66732563974efd4bcbb297cf900"),
    ("fpt-8", "solve --mode weighted --promise no-circuit-inclusion --trace", "68d3e91263c10617fed5187069695dd9deb44ee01f5eceb4428c817b74889853"),
    ("fpt-8", "solve --mode fpt --gamma 3 --trace", "1c8fa1761c24071fbfb8a3f74cb3bd2dd9f17f3ec547b9feb7650e5af2711c9b"),
    ("fpt-8", "solve --mode lexmax --trace", "549cde6b9162b5ee8f8dccfbda13ce84b277c49c74bca6732fae76ec451e4314"),
    ("fpt-8", "solve --mode approx --trace", "6ca9c4120ec468f298442809cee6150d3b920803f82b61bc04acca3a805195d4"),
    ("lexmax-7", "solve --mode cardinality --trace", "05034fdc246aef541a8150b743b532fb60f9b43fd0881918c1f084fe41e6a810"),
    ("lexmax-7", "solve --mode weighted --promise no-circuit-inclusion --trace", "ebfad139cc36c73260696285dbd212ff8057bcc3844d27c9073a36370e2666c5"),
    ("lexmax-7", "solve --mode fpt --gamma 3 --trace", "0b6276077adb70a0e1db745e86914189cd326227f54ea4ff5731f21c86b4335a"),
    ("lexmax-7", "solve --mode lexmax --trace", "25784ea21aad451cde63ab32b897d85196317d45a5f970b0758a2f6a09f9aff4"),
    ("lexmax-7", "solve --mode approx --trace", "b80f9a582efabef8348088af13d2f67be7788a403ecb0f6e1570026c5171740d"),
    ("lexmax-7", "graph --set {0,2,5} --which modified", "2d007c3ccdf46ff526d8680870c6b8e10faa53468b1d2ab0b689c1b2d3de6b49"),
    ("lexmax-7", "graph --set {0,2,5} --which intersected", "ccb0a657e7f72c2da5733e92ff7e8cb301752fda3c9539d4316b74439a1f677b"),
    ("lexmax-7", "graph --set {0,2,5} --which consistent", "c512e5a75aca7c58764d297384dcfa718ca70370a1261ceb1a15531a20d929c3"),
    ("mixed-8", "graph --set {1,5,6} --which modified", "6457db025456c9437a9e0f20e3bc8a074092c54e71d3a8ecf4837fdbd9f526b2"),
    ("mixed-8", "graph --set {1,5,6} --which intersected", "000570c877c78adfb9ad2dd0065e986d418c7821fa3bfeec5740e3e0f726e6ed"),
    ("mixed-8", "graph --set {1,5,6} --which consistent", "fdaabdbfd96ea3c9ffca897832418689d8826559cf00e0b5c2a7dacce9551c1f"),
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
