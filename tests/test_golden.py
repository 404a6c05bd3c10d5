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
    ("random-7", "solve --mode cardinality --trace", "4bd3430fa41218f487f31bdb64c323042bc1e5348d52f43f583a1faa87a40989"),
    ("random-7", "solve --mode weighted --promise no-circuit-inclusion --trace", "7061e4fd865b15c8dab6e73fafe2b38a7cf6a59b81880dd65ee78468487964c4"),
    ("random-7", "solve --mode fpt --gamma 3 --trace", "a20537a38d4be863ca4dbea0fcda94c14f623733bea4201bb5e9c04c2ce0928e"),
    ("random-7", "solve --mode lexmax --trace", "08e1c92870cf14e46a8a40642fa87d91cabb4c1a981fa0a99f80fe99cd2cc806"),
    ("random-7", "solve --mode approx --trace", "1789a563ddd9bfe23a4de0891df5899ac74a3d9288691284b46d26f179d740f2"),
    ("promise-7", "solve --mode cardinality --trace", "4886b7268ea9be9028c2efce1d3726d77f4be58751907d95fb603080d3704281"),
    ("promise-7", "solve --mode weighted --promise no-circuit-inclusion --trace", "068352bf1538a01df63e3da7041a722a4f4389ecb8893a8ce8808dec3f76b58e"),
    ("promise-7", "solve --mode fpt --gamma 3 --trace", "de57a2d3c9a3438cec5d311c3b8e5894a4b4cbf9fd7a2873daa4156e75e473d3"),
    ("promise-7", "solve --mode lexmax --trace", "eb898dcf97ab2c2407481049d6a7377102209adaacc42e2d7631309585bd6622"),
    ("promise-7", "solve --mode approx --trace", "68b93da4d4347af903dd3f1038577d49a570d7a5942c1be195f4349bfebf80df"),
    ("fpt-8", "solve --mode cardinality --trace", "deadc5dc0b4ff2e7c87e261884b03e3265a093860d38478a2617d8a89db56ad7"),
    ("fpt-8", "solve --mode weighted --promise no-circuit-inclusion --trace", "91a3d576a9c3febfc27c8e686f18497edada1e716f12bbca0d845161bf81ca02"),
    ("fpt-8", "solve --mode fpt --gamma 3 --trace", "4f3875f220d5a02c805450267b50043537139b7f12a6a4fce20379cc06e07566"),
    ("fpt-8", "solve --mode lexmax --trace", "509baded3bd60eebd439c29bd00971108052b6704d05b82f002a2c5a9413e50a"),
    ("fpt-8", "solve --mode approx --trace", "1e79909d1e70da58d38c9af5d1058833e24c6d78dca7f6dce9b60a0ddf1dd2e0"),
    ("lexmax-7", "solve --mode cardinality --trace", "2bc928d9615c56da554a314220a2d638a288924dda759b3585ae38f4184e73b6"),
    ("lexmax-7", "solve --mode weighted --promise no-circuit-inclusion --trace", "0486e39dd6ba65b6041651b2bb46de8dfe56f7dc117ddeb68f1b9b7e10d50777"),
    ("lexmax-7", "solve --mode fpt --gamma 3 --trace", "9db872312731ef37982d734528ff567f267292de1cb287bafddbfac158522e2f"),
    ("lexmax-7", "solve --mode lexmax --trace", "658ebb2dbd8ad6d76809841add592bfd30bee3e0132197f1857c2dac7d2c410a"),
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
]


@pytest.mark.parametrize(
    "name,command,digest", GOLDEN, ids=[f"{n}: {c}" for n, c, _ in GOLDEN]
)
def test_cli_output_unchanged(name, command, digest, tmp_path, capsys):
    path = tmp_path / f"{name}.json"
    path.write_text(dumps(INSTANCES[name]()))
    sub, *rest = command.split()
    code = main([sub, str(path), *rest])
    out = capsys.readouterr().out
    got = hashlib.sha256(f"{code}\n{out}".encode()).hexdigest()
    assert got == digest, f"output of `minrank {sub} {name}.json {' '.join(rest)}` changed"
