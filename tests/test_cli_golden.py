"""Golden reports: the stdout of a fixed list of `arthurcomb` invocations,
pinned by digest, so that a change to the CLI cannot move a report byte
unnoticed.  Every subcommand and every suite is covered, in both output
formats, with offsets from the command line, from the spec and from the
canonical choice.
"""

import contextlib
import hashlib
import io
import json

import pytest

from arthurcomb.cli import main

EX1 = {
    "group": {"kind": "Sp", "rank": 2},
    "blocks": [{"t": "3/2", "a": 2}, {"t": "0", "a": 1, "eta": "+"}],
}

FILES = {
    "ex1": EX1,
    "ex1_opts": {**EX1, "options": {"offsets": [5], "seed": 7}},
    "bad": {
        "group": {"kind": "Sp", "rank": 2},
        "blocks": [{"t": "1", "a": 2}, {"t": "0", "a": 1}],
    },
    "pk": {
        "entries": [
            {"levi": {"unitary": [[1, 1]], "g0": {"kind": "Sp", "rank": 0}}, "character": [1, 1]},
            {"levi": {"unitary": [[2, 0]], "g0": {"kind": "Sp", "rank": 0}}, "character": [-1, 1]},
        ]
    },
}

# name -> argv; "{name}" stands for the path of FILES[name]
INVOCATIONS = {
    "info": ["info", "--spec", "{ex1}"],
    "info text": ["info", "--spec", "{ex1}", "--format", "text"],
    "info bad": ["info", "--spec", "{bad}"],
    "infchar": ["infchar", "--spec", "{ex1}"],
    "dominate": ["dominate", "--spec", "{ex1}"],
    "dominate offsets": ["dominate", "--spec", "{ex1}", "--offsets", "5"],
    "translate": ["translate", "--spec", "{ex1}"],
    "translate offsets": ["translate", "--spec", "{ex1}", "--offsets", "5"],
    "packet offsets": ["packet", "--spec", "{ex1}", "--offsets", "5", "--plus-packet", "{pk}"],
    "uniqueness": ["verify", "uniqueness", "--spec", "{ex1}"],
    "uniqueness offsets": ["verify", "uniqueness", "--spec", "{ex1}", "--offsets", "5"],
    "uniqueness text": [
        "verify", "uniqueness", "--spec", "{ex1}", "--offsets", "5", "--format", "text",
    ],
    "twisted-trace mu": [
        "verify", "twisted-trace", "--n", "3", "--mu", "1,0,-1", "--trials", "100", "--seed", "7",
    ],
    "twisted-trace sweep": [
        "verify", "twisted-trace", "--n", "5", "--max-entry", "2", "--trials", "20", "--seed", "3",
    ],
    "twisted-trace n8": [
        "verify", "twisted-trace", "--n", "8", "--max-entry", "3", "--trials", "100", "--seed", "7",
    ],
    "filtration": ["verify", "filtration", "--spec", "{ex1}"],
    "filtration offsets": [
        "verify", "filtration", "--spec", "{ex1}", "--offsets", "5", "--height-bound", "4",
    ],
    "parity": ["verify", "parity", "--spec", "{ex1}"],
    "parity bad": ["verify", "parity", "--spec", "{bad}"],
    "norms": ["verify", "norms", "--spec", "{ex1}", "--trials", "50", "--seed", "7"],
    "kostant": ["verify", "kostant", "--n", "4", "--max-entry", "3"],
    "kostant mu": ["verify", "kostant", "--n", "3", "--mu", "1,0,-1"],
    "all": ["verify", "all", "--spec", "{ex1}", "--seed", "7"],
    "all offsets": ["verify", "all", "--spec", "{ex1}", "--offsets", "5", "--seed", "7"],
    "all text": ["verify", "all", "--spec", "{ex1}", "--seed", "7", "--format", "text"],
    "all bad": ["verify", "all", "--spec", "{bad}"],
    "all n": ["verify", "all", "--spec", "{ex1}", "--n", "3", "--max-entry", "1", "--trials", "10"],
    "all opts flags": ["verify", "all", "--spec", "{ex1_opts}", "--seed", "7"],
    "all opts": ["verify", "all", "--spec", "{ex1_opts}"],
    "info opts": ["info", "--spec", "{ex1_opts}"],
    "dominate opts": ["dominate", "--spec", "{ex1_opts}"],
    "packet opts": ["packet", "--spec", "{ex1_opts}", "--plus-packet", "{pk}"],
}

# name -> (exit code, first 16 hex digits of sha256(stdout))
GOLDEN = {
    "info": (0, "070f451af5fc3119"),
    "info text": (0, "7f9ce31f2d57160c"),
    "info bad": (1, "6601f753d6bae796"),
    "infchar": (0, "00adf735a96f7ff8"),
    "dominate": (0, "fc7304a155ef8d74"),
    "dominate offsets": (0, "181142b8c12c8d03"),
    "translate": (0, "c4203fca682b1933"),
    "translate offsets": (0, "2e56732a80b3d987"),
    "packet offsets": (0, "fecacdcc452800ff"),
    "uniqueness": (0, "5bf114d2ed525f3c"),
    "uniqueness offsets": (0, "cc9ee782018b5a75"),
    "uniqueness text": (0, "68b219e7e6c3442a"),
    "twisted-trace mu": (0, "d617113a0882fa63"),
    "twisted-trace sweep": (0, "6d5db7d0e3ce3891"),
    "twisted-trace n8": (0, "a676659683866461"),
    "filtration": (0, "6f0e7c30456fd11f"),
    "filtration offsets": (0, "d22071a7f6ed237b"),
    "parity": (0, "da13ff18990aaa10"),
    "parity bad": (1, "034336fdd938a38a"),
    "norms": (0, "7ad53fe810f1fd10"),
    "kostant": (0, "db8830a3772a245c"),
    "kostant mu": (0, "5914641942ab4c95"),
    "all": (0, "dc51d9c83659b549"),
    "all offsets": (0, "b91a0862219fcdfa"),
    "all text": (0, "c2a4451e246f4101"),
    "all bad": (1, "683465f703bfc30c"),
    "all n": (0, "1b48a9bda0c8edf3"),
    "all opts flags": (0, "d8203512d2182db8"),
    # spec seed 7 used (was 0), so the report equals "all opts flags"
    "all opts": (0, "d8203512d2182db8"),
    # spec seed 7 used (was 0)
    "info opts": (0, "f6765ee80d805e4b"),
    # spec offsets [5] used (was the canonical [4]) and spec seed 7 (was 0)
    "dominate opts": (0, "4177d74f23b4e165"),
    # spec offsets [5] used (was the canonical [4]) and spec seed 7 (was 0)
    "packet opts": (0, "0e272905411a3d4a"),
}


def write_files(directory) -> dict:
    paths = {}
    for name, data in FILES.items():
        path = directory / f"{name}.json"
        path.write_text(json.dumps(data))
        paths[name] = str(path)
    return paths


def run(argv: list[str], paths: dict) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main([a.format(**paths) for a in argv])
    return code, hashlib.sha256(buf.getvalue().encode("utf-8")).hexdigest()[:16]


@pytest.fixture(scope="module")
def paths(tmp_path_factory):
    return write_files(tmp_path_factory.mktemp("golden"))


def test_every_invocation_has_a_golden_digest():
    assert set(GOLDEN) == set(INVOCATIONS)


@pytest.mark.parametrize("name", sorted(INVOCATIONS))
def test_report_matches_golden(name, paths):
    assert run(INVOCATIONS[name], paths) == GOLDEN[name]
