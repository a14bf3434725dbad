import ast
import contextlib
import io
import json
import os
import shlex
import subprocess
import sys

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from arthurcomb import aq, cli, params
from arthurcomb.cli import main, parse_spec, parse_spec_data, SpecError

EX1_SPEC = {
    "group": {"kind": "Sp", "rank": 2},
    "blocks": [
        {"t": "3/2", "a": 2},
        {"t": "0", "a": 1, "eta": "+"},
    ],
    "options": {"offsets": [5], "seed": 7},
}

BAD_PARITY_SPEC = {
    "group": {"kind": "Sp", "rank": 2},
    "blocks": [{"t": "1", "a": 2}, {"t": "0", "a": 1}],
    "options": {},
}


@pytest.fixture
def ex1_path(tmp_path):
    p = tmp_path / "ex1.json"
    p.write_text(json.dumps(EX1_SPEC))
    return str(p)


# --- spec parsing -----------------------------------------------------------


def test_parse_spec_roundtrip(ex1_path):
    psi, opts = parse_spec(ex1_path)
    assert psi.group.kind == "Sp" and psi.group.rank == 2
    assert len(psi.blocks) == 2
    assert opts == {"offsets": [5], "seed": 7}


def test_parse_half_integer_strings():
    psi, _ = parse_spec_data(EX1_SPEC)
    assert psi.blocks[0].t2 == 3


def test_unknown_field_rejected():
    bad = dict(EX1_SPEC)
    bad["foo"] = 1
    with pytest.raises(SpecError):
        parse_spec_data(bad)


def test_unknown_block_field_rejected():
    bad = json.loads(json.dumps(EX1_SPEC))
    bad["blocks"][0]["extra"] = True
    with pytest.raises(SpecError):
        parse_spec_data(bad)


def test_dimension_mismatch_rejected():
    bad = json.loads(json.dumps(EX1_SPEC))
    bad["blocks"][1]["a"] = 3
    with pytest.raises(SpecError):
        parse_spec_data(bad)


def test_float_half_integer_rejected():
    bad = json.loads(json.dumps(EX1_SPEC))
    bad["blocks"][0]["t"] = 1.5
    with pytest.raises(SpecError):
        parse_spec_data(bad)


# --- exit codes ---------------------------------------------------------------


def test_info_exit_zero(ex1_path, capsys):
    assert main(["info", "--spec", ex1_path]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["results"]["dimension"] == 5
    assert report["results"]["component_group_order"] == 2


def test_verify_uniqueness_pass(ex1_path, capsys):
    assert main(["verify", "uniqueness", "--spec", ex1_path, "--offsets", "5"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["verdicts"][0]["status"] == "pass"
    assert report["results"]["uniqueness"]["rearrangements"] == 30


def test_verify_parity_violation_exits_one(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(BAD_PARITY_SPEC))
    assert main(["verify", "parity", "--spec", str(p)]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["verdicts"][0]["status"] == "violation"


def test_malformed_input_exits_two(tmp_path, capsys):
    p = tmp_path / "broken.json"
    p.write_text("{not json")
    assert main(["info", "--spec", str(p)]) == 2
    p2 = tmp_path / "unknown.json"
    bad = dict(EX1_SPEC)
    bad["foo"] = 1
    p2.write_text(json.dumps(bad))
    assert main(["info", "--spec", str(p2)]) == 2


def test_verify_twisted_trace(capsys):
    code = main(
        [
            "verify",
            "twisted-trace",
            "--n",
            "3",
            "--mu",
            "1,0,-1",
            "--trials",
            "100",
            "--seed",
            "7",
        ]
    )
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert float(report["results"]["twisted_trace"]["max_residual"]) <= 1e-9


def test_verify_kostant(capsys):
    assert main(["verify", "kostant", "--n", "4", "--max-entry", "2"]) == 0


def test_dominate_and_translate(ex1_path, capsys):
    assert main(["dominate", "--spec", ex1_path, "--offsets", "5"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["results"]["dominating"]["blocks"][0]["t"] == "13/2"
    assert main(["translate", "--spec", ex1_path, "--offsets", "5"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["results"]["lambda_GL"] == "(5,5,0,-5,-5)"


def test_packet_translation(ex1_path, tmp_path, capsys):
    pk = {
        "entries": [
            {
                "levi": {"unitary": [[1, 1]], "g0": {"kind": "Sp", "rank": 0}},
                "character": [1, 1],
            },
            {
                "levi": {"unitary": [[2, 0]], "g0": {"kind": "Sp", "rank": 0}},
                "character": [-1, 1],
            },
        ]
    }
    pk_path = tmp_path / "pk.json"
    pk_path.write_text(json.dumps(pk))
    code = main(
        [
            "packet",
            "--spec",
            ex1_path,
            "--offsets",
            "5",
            "--plus-packet",
            str(pk_path),
        ]
    )
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    entries = report["results"]["entries"]
    assert len(entries) == 2
    assert all("t~=(3)" in e["datum"] for e in entries)
    assert report["results"]["vanishing"] == []


def test_packet_unknown_field_rejected(ex1_path, tmp_path):
    pk_path = tmp_path / "pk.json"
    pk_path.write_text(json.dumps({"entries": [], "junk": 1}))
    assert main(["packet", "--spec", ex1_path, "--offsets", "5", "--plus-packet", str(pk_path)]) == 2



def _packet_exit_code(spec_path, tmp_path, levi, **fields):
    entry = {"levi": levi, "character": [1, 1], **fields}
    pk_path = tmp_path / "pk.json"
    pk_path.write_text(json.dumps({"entries": [entry]}))
    return main(["packet", "--spec", spec_path, "--offsets", "5", "--plus-packet", str(pk_path)])


def test_packet_missing_g0_kind_rejected(ex1_path, tmp_path, capsys):
    levi = {"unitary": [[1, 1]], "g0": {"rank": 0}}
    assert _packet_exit_code(ex1_path, tmp_path, levi) == 2
    assert "entries[0].levi.g0: unknown kind None" in capsys.readouterr().err


def test_packet_fractional_unitary_rejected(ex1_path, tmp_path, capsys):
    levi = {"unitary": [[1.5, 1]], "g0": {"kind": "Sp", "rank": 0}}
    assert _packet_exit_code(ex1_path, tmp_path, levi) == 2
    assert "entries[0].levi: unitary factor (1.5, 1) is not a pair of integers" in capsys.readouterr().err


def test_packet_levi_not_fitting_block_rejected(ex1_path, tmp_path, capsys):
    # U(5,5) cannot sit on the a=2 block of Sp(4,R)
    levi = {"unitary": [[5, 5]], "g0": {"kind": "Sp", "rank": 0}}
    assert _packet_exit_code(ex1_path, tmp_path, levi) == 2
    assert "does not fit discrete block 1 of size 2" in capsys.readouterr().err


@pytest.mark.parametrize(
    "fields, message",
    [
        ({"sigma": {"nu": 5}}, "unknown field(s) ['nu'] in entries[0].sigma"),
        ({"sigma": {"nu": ["x"]}}, "unknown field(s) ['nu'] in entries[0].sigma"),
        ({"sigma": {"label": 3}}, "sigma.label"),
        (
            {"sigma": {"weakly_unipotent": "yes"}},
            "unknown field(s) ['weakly_unipotent'] in entries[0].sigma",
        ),
        ({"sigma": []}, "sigma must be an object"),
        ({"character": [True, 1]}, "character"),
        ({"sigma": {"nu": ["0.5"]}}, "unknown field(s) ['nu'] in entries[0].sigma"),
        (
            {"levi": {"unitary": [[0.5, 1.5]], "g0": {"kind": "Sp", "rank": 0}}},
            "entries[0].levi: unitary factor (0.5, 1.5) is not a pair of integers",
        ),
        (
            {"levi": {"unitary": [[True, True]], "g0": {"kind": "Sp", "rank": 0}}},
            "entries[0].levi: unitary factor (True, True) is not a pair of integers",
        ),
        (
            {"levi": {"unitary": [["1", 1]], "g0": {"kind": "Sp", "rank": 0}}},
            "entries[0].levi: unitary factor ('1', 1) is not a pair of integers",
        ),
        (
            {"levi": {"unitary": [[1, 1]], "g0": {"kind": "SOodd", "rank": 0, "signature": [2, 2]}}},
            "entries[0].levi.g0: signature 2+2 != 1 for SOodd rank 0",
        ),
    ],
)
def test_packet_sigma_and_character_typed_strictly(ex1_path, tmp_path, capsys, fields, message):
    fields = {"levi": {"unitary": [[1, 1]], "g0": {"kind": "Sp", "rank": 0}}, **fields}
    assert _packet_exit_code(ex1_path, tmp_path, **fields) == 2
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err and len(err.splitlines()) == 1


def test_packet_sigma_fields_used(ex1_path, tmp_path, capsys):
    levi = {"unitary": [[1, 1]], "g0": {"kind": "Sp", "rank": 0}}
    sigma = {"label": "pi"}
    assert _packet_exit_code(ex1_path, tmp_path, levi, sigma=sigma) == 0
    (kept,) = json.loads(capsys.readouterr().out)["results"]["entries"]
    assert "; pi]" in kept["datum"]


# --- settings: command line, then the spec's options, then the default ------------


def _spec_with_options(tmp_path, options):
    p = tmp_path / "opts.json"
    p.write_text(json.dumps({**EX1_SPEC, "options": options}))
    return str(p)


def _report(capsys, argv):
    code = main(argv)
    return code, json.loads(capsys.readouterr().out)


def test_spec_seed_and_trials_used_without_flags(tmp_path, capsys):
    path = _spec_with_options(tmp_path, {"seed": 7, "trials": 3})
    code, report = _report(capsys, ["verify", "norms", "--spec", path])
    assert code == 0
    assert report["seed"] == 7
    assert report["results"]["norms"]["trials"] == 3


def test_spec_seed_and_trials_reach_twisted_trace(tmp_path, capsys):
    path = _spec_with_options(tmp_path, {"seed": 7, "trials": 3})
    argv = ["verify", "twisted-trace", "--n", "3", "--mu", "1,0,-1"]
    _code, flagged = _report(capsys, argv + ["--seed", "7", "--trials", "3"])
    _code, from_spec = _report(capsys, argv + ["--spec", path])
    assert from_spec["seed"] == 7
    assert from_spec["results"] == flagged["results"]


@pytest.mark.parametrize("command", ["dominate", "translate", "packet", "verify uniqueness"])
def test_spec_offsets_used_by_every_command(ex1_path, tmp_path, capsys, command):
    pk_path = tmp_path / "pk.json"
    pk_path.write_text(json.dumps({"entries": []}))
    argv = command.split() + ["--spec", ex1_path]
    if command == "packet":
        argv += ["--plus-packet", str(pk_path)]
    code, report = _report(capsys, argv)
    assert code == 0
    results = report["results"].get("uniqueness", report["results"])
    assert results["offsets"] == [5]  # EX1_SPEC's options; the canonical offsets are [4]
    assert report["seed"] == 7


def test_flags_override_spec_options(ex1_path, capsys):
    code, report = _report(
        capsys,
        ["verify", "all", "--spec", ex1_path, "--seed", "9", "--offsets", "6", "--trials", "4",
         "--n", "2", "--max-entry", "1"],
    )
    assert code == 0
    assert report["seed"] == 9
    assert report["results"]["uniqueness"]["offsets"] == [6]
    assert report["results"]["filtration"]["offsets"] == [6]
    assert report["results"]["norms"]["trials"] == 4
    assert report["results"]["twisted_trace"]["trials"] == 4


@pytest.mark.parametrize(
    "options, message",
    [
        ({"offsets": [[1]]}, "options.offsets"),
        ({"offsets": "5"}, "options.offsets"),
        ({"threshold": "x"}, "options.threshold"),
        ({"height_bound": "3"}, "options.height_bound"),
        ({"seed": True}, "options.seed"),
        ({"trials": 1.5}, "options.trials"),
        ({"trials": 0}, "options.trials must be at least 1"),
        ({"trials": -5}, "options.trials must be at least 1"),
        ({"height_bound": -1}, "options.height_bound must be at least 0"),
        ({"threshold": -1}, "options.threshold must be at least 0"),
    ],
)
def test_malformed_spec_option_exits_two(tmp_path, capsys, options, message):
    path = _spec_with_options(tmp_path, options)
    assert main(["verify", "all", "--spec", path]) == 2
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err


# spec files for the argv below: Sp(2,R) with I[1]R[1] + triv R[1], or
# SO(2,1) with I[1/2]R[1], each with one JSON boolean where a count belongs
_SP2_SPEC = {"group": {"kind": "Sp", "rank": 1}, "blocks": [{"t": "1", "a": 1}, {"t": "0", "a": 1}]}
BOOLEAN_COUNT_SPECS = {
    "{rank_true}": {**_SP2_SPEC, "group": {"kind": "Sp", "rank": True}},
    "{signature_true}": {
        "group": {"kind": "SOodd", "rank": 1, "signature": [2, True]},
        "blocks": [{"t": "1/2", "a": 1}],
    },
    "{a_true}": {**_SP2_SPEC, "blocks": [{"t": "1", "a": True}, {"t": "0", "a": 1}]},
    "{mult_true}": {**_SP2_SPEC, "blocks": [{"t": "1", "a": 1}, {"t": "0", "a": 1, "mult": True}]},
}
# the same Sp(2,R) spec with a half-integer string other than "k" or "k/2"
MALFORMED_HALF_SPECS = {
    f"{{t_{i}}}": {**_SP2_SPEC, "blocks": [{"t": t, "a": 1}, {"t": "0", "a": 1}]}
    for i, t in enumerate(["0.5", "1e3", " 3/2", "1_0", "1e5000"])
}
# files that json.dump cannot write: an unquoted integer literal of 5001
# digits (past Python's default limit of 4300) in a spec and in a packet
# file, and a spec nested 100,000 arrays deep
_LONG_INT = "1" + "0" * 5000
RAW_JSON_FILES = {
    "{long_int_spec}": '{"group": {"kind": "Sp", "rank": 1}, "blocks": [{"t": '
    + _LONG_INT
    + ', "a": 1}, {"t": "0", "a": 1}]}',
    "{long_int_packet}": '{"entries": [{"levi": {"unitary": [[1, 1]], "g0": {"kind": "Sp", "rank": '
    + _LONG_INT
    + '}}, "character": [1, 1]}]}',
    "{deep_spec}": "[" * 100_000 + "]" * 100_000,
}
# a valid Sp(1000,R) spec with 1001 GL coordinates, more than the
# interpreter's recursion limit: no search may recurse once per coordinate
LARGE_SPECS = {"{sp1000}": {"group": {"kind": "Sp", "rank": 500}, "blocks": [{"t": "0", "a": 1001}]}}


@pytest.mark.parametrize(
    "argv, message",
    [
        (["verify", "twisted-trace", "--n", "2", "--trials", "-3"], "--trials"),
        (["verify", "twisted-trace", "--n", "2", "--trials", "0"], "--trials"),
        (["verify", "norms", "--spec", "{ex1}", "--trials", "-5"], "--trials"),
        (["verify", "kostant", "--n", "4", "--max-entry", "-1"], "--max-entry"),
        (["verify", "all", "--spec", "{ex1}", "--n", "2", "--max-entry", "-1"], "--max-entry"),
        (["verify", "twisted-trace", "--n", "-1"], "--n must be at least 1"),
        (["verify", "kostant", "--n", "-1"], "--n must be at least 1"),
        (["verify", "filtration", "--spec", "{ex1}", "--height-bound", "-1"], "--height-bound"),
        (["verify", "twisted-trace", "--n", "0"], "--n must be at least 1"),
        (["verify", "kostant", "--n", "0"], "--n must be at least 1"),
        (["verify", "all", "--spec", "{ex1}", "--n", "0"], "--n must be at least 1"),
        (["verify", "filtration", "--spec", "{ex1}", "--threshold", "-1"], "--threshold"),
        (["dominate", "--spec", "{ex1}", "--threshold", "-2"], "--threshold"),
        # each id names the malformed field
        pytest.param(
            ["info", "--spec", "{rank_true}"], "group: rank True is not an integer", id="argv13-group.rank"
        ),
        pytest.param(
            ["info", "--spec", "{signature_true}"],
            "group: signature (2, True) is not a pair of integers",
            id="argv14-group.signature",
        ),
        pytest.param(
            ["info", "--spec", "{a_true}"],
            "blocks[0]: t2, a and mult must be integers, got 2, True, 1",
            id="argv15-blocks[0].a",
        ),
        pytest.param(
            ["info", "--spec", "{mult_true}"],
            "blocks[1]: t2, a and mult must be integers, got 0, 1, True",
            id="argv16-blocks[1].mult",
        ),
        (["info", "--spec", "{t_0}"], "blocks[0].t: '0.5' is not written as 'k' or 'k/2'"),
        (["info", "--spec", "{t_1}"], "blocks[0].t: '1e3' is not written"),
        (["info", "--spec", "{t_2}"], "blocks[0].t: ' 3/2' is not written"),
        (["info", "--spec", "{t_3}"], "blocks[0].t: '1_0' is not written"),
        (["info", "--spec", "{t_4}"], "blocks[0].t: '1e5000' is not written"),
        (["verify", "kostant", "--n", "1", "--mu", "0.5"], "--mu: '0.5' is not written"),
        (["verify", "twisted-trace", "--n", "2", "--mu", "1e3,-1e3"], "--mu: '1e3' is not written"),
        (["info", "--spec", "{long_int_spec}"], "long_int_spec.json: an integer literal is too long"),
        (
            ["packet", "--spec", "{ex1}", "--offsets", "5", "--plus-packet", "{long_int_packet}"],
            "long_int_packet.json: an integer literal is too long",
        ),
        (["info", "--spec", "{deep_spec}"], "deep_spec.json: arrays or objects are nested too deeply"),
    ],
)
def test_vacuous_counts_exit_two(ex1_path, tmp_path, capsys, argv, message):
    paths = {"{ex1}": ex1_path}
    for name, spec in {**BOOLEAN_COUNT_SPECS, **MALFORMED_HALF_SPECS}.items():
        paths[name] = str(tmp_path / f"{name.strip('{}')}.json")
        with open(paths[name], "w") as f:
            json.dump(spec, f)
    for name, text in RAW_JSON_FILES.items():
        paths[name] = str(tmp_path / f"{name.strip('{}')}.json")
        with open(paths[name], "w") as f:
            f.write(text)
    assert main([paths.get(a, a) for a in argv]) == 2
    captured = capsys.readouterr()
    assert message in captured.err and "Traceback" not in captured.err
    assert captured.out == ""


@pytest.mark.parametrize(
    "argv, message",
    [
        (["verify", "twisted-trace"], "suite 'twisted-trace' requires --n"),
        (["verify", "kostant"], "suite 'kostant' requires --n"),
        *((["verify", suite], f"suite {suite!r} requires --spec") for suite in cli.SPEC_SUITES),
        (["info", "--spec", "{missing}"], "cannot read {missing}"),
        (["verify", "parity", "--spec", "{dir}"], "cannot read {dir}"),
        (["info", "--spec", "{list_kind}"], "group: unknown kind ['Sp']"),
    ],
)
def test_missing_inputs_exit_two_with_one_line(tmp_path, capsys, argv, message):
    paths = {
        "{missing}": str(tmp_path / "missing.json"),
        "{dir}": str(tmp_path),
        "{list_kind}": str(tmp_path / "list_kind.json"),
    }
    list_kind = {**EX1_SPEC, "group": {"kind": ["Sp"], "rank": 2}}
    (tmp_path / "list_kind.json").write_text(json.dumps(list_kind))
    assert main([paths.get(a, a) for a in argv]) == 2
    captured = capsys.readouterr()
    for name, path in paths.items():
        message = message.replace(name, path)
    assert captured.err.startswith(f"error: {message}")
    assert len(captured.err.splitlines()) == 1 and "Traceback" not in captured.err
    assert captured.out == ""


def test_unknown_option_exits_two(run_cli):
    out = run_cli(["verify", "twisted-trace", "--n", "4", "--endo-rank", "1"])
    assert out.returncode == 2
    assert b"unrecognized arguments: --endo-rank 1" in out.stderr
    assert b"Traceback" not in out.stderr
    assert out.stdout == b""


@pytest.mark.parametrize("suite", ["uniqueness", "all"])
def test_large_spec_runs_to_a_verdict(tmp_path, capsys, suite):
    path = tmp_path / "sp1000.json"
    path.write_text(json.dumps(LARGE_SPECS["{sp1000}"]))
    assert main(["verify", suite, "--spec", str(path)]) == 0
    verdicts = json.loads(capsys.readouterr().out)["verdicts"]
    assert verdicts and all(v["status"] == "pass" for v in verdicts)


# Sp(96,R), I[24]*R[1] + ... + I[1]*R[1] + triv*R[49]: A(psi) has 2**24
# elements, too many to list in 1 GB
SP96_SPEC = {
    "group": {"kind": "Sp", "rank": 48},
    "blocks": [{"t": str(t), "a": 1} for t in range(24, 0, -1)] + [{"t": "0", "a": 49}],
}


def test_info_reports_a_large_component_group_without_listing_it(tmp_path, child_env):
    path = tmp_path / "sp96.json"
    path.write_text(json.dumps(SP96_SPEC))
    # the child caps its address space at 1 GB before the command runs
    code = (
        "import resource, sys\n"
        "resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))\n"
        "from arthurcomb.cli import main\n"
        "sys.exit(main(['info', '--spec', sys.argv[1]]))\n"
    )
    child = subprocess.run(
        [sys.executable, "-c", code, str(path)], capture_output=True, env=child_env, timeout=60
    )
    assert child.returncode == 0, child.stderr.decode()
    assert json.loads(child.stdout)["results"]["component_group_order"] == 16_777_216


def test_packet_on_a_large_component_group_lists_none_of_it(tmp_path, child_env):
    """``packet`` on the 25-block spec, and an endoscopic split there,
    within 1 GB: membership, surjectivity and the push of a character are
    read off the masks, not off a list of the 2**24 elements."""
    spec, packet = tmp_path / "sp96.json", tmp_path / "sp96_packet.json"
    spec.write_text(json.dumps(SP96_SPEC))
    levi = {"unitary": [[1, 0]] * 24, "g0": {"kind": "Sp", "rank": 24}}
    packet.write_text(json.dumps({"entries": [{"levi": levi, "character": [1] * 25}]}))
    code = (
        "import resource, sys\n"
        "resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))\n"
        "from arthurcomb.cli import main\n"
        "from arthurcomb.params import ClassicalGroup, arthur_parameter, block, endoscopic_split\n"
        "blocks = [block(t, 1) for t in range(24, 0, -1)] + [block(0, 49)]\n"
        "psi = arthur_parameter(ClassicalGroup('Sp', 48), blocks)\n"
        "split = endoscopic_split(psi, (-1,) * 24 + (1,))\n"
        "assert (split.n_minus, split.n_plus) == (48, 49), split\n"
        "sys.exit(main(['packet', '--spec', sys.argv[1], '--plus-packet', sys.argv[2]]))\n"
    )
    child = subprocess.run(
        [sys.executable, "-c", code, str(spec), str(packet)], capture_output=True, env=child_env, timeout=60
    )
    assert child.returncode == 0, child.stderr.decode()
    report = json.loads(child.stdout)
    assert report["results"]["kernel_order"] == 1
    assert [v["status"] for v in report["verdicts"]] == ["pass"]


def test_closed_stdout_exits_two_without_a_traceback(child_env):
    command = [sys.executable, "-m", "arthurcomb.cli", "verify", "kostant", "--n", "4", "--max-entry", "3"]
    # a reader that stops after 100 bytes: the first write or the flush may
    # fail, depending on when head exits
    piped = subprocess.run(
        " ".join(map(shlex.quote, command)) + " | head -c 100",
        shell=True, capture_output=True, env=child_env,
    )
    assert piped.stdout == subprocess.run(command, capture_output=True, env=child_env).stdout[:100]
    assert b"Traceback" not in piped.stderr
    # a pipe whose read end is closed before the command starts: the
    # report's first write fails
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        closed = subprocess.run(command, stdout=write_end, stderr=subprocess.PIPE, env=child_env)
    finally:
        os.close(write_end)
    assert closed.returncode == 2
    assert closed.stderr == b"error: stdout was closed before the report was written\n"


@pytest.mark.parametrize("suite", ["filtration", "all"])
def test_running_out_of_memory_exits_three_without_a_verdict(ex1_path, monkeypatch, capsys, suite):
    def exhausted(psi, s, pair):
        raise MemoryError

    _suite, needs_spec, needs_good_parity = cli.VERIFY_SUITES["filtration"]
    monkeypatch.setitem(cli.VERIFY_SUITES, "filtration", (exhausted, needs_spec, needs_good_parity))
    assert main(["verify", suite, "--spec", ex1_path]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: verify {suite} ran out of memory; no verdict was reached\n"


def test_filtration_levi_rows_share_one_sweep(ex1_path, capsys):
    aq._layout_sweep.cache_clear()
    assert main(["verify", "filtration", "--spec", ex1_path]) == 0
    rows = json.loads(capsys.readouterr().out)["results"]["filtration"]["levis"]
    assert len(rows) == 3
    info = aq._layout_sweep.cache_info()
    assert (info.misses, info.hits) == (1, 0)


def test_malformed_offsets_flag_exits_two(ex1_path, capsys):
    assert main(["dominate", "--spec", ex1_path, "--offsets", "5,x"]) == 2
    assert "--offsets" in capsys.readouterr().err


@pytest.mark.parametrize("suite", ["twisted-trace", "kostant", "parity", "uniqueness"])
def test_mu_length_must_match_n(capsys, suite):
    assert main(["verify", suite, "--n", "3", "--mu", "1,-1"]) == 2
    assert "--mu has 2 entries but --n is 3" in capsys.readouterr().err


@pytest.mark.parametrize(
    "suite, calls",
    [("parity", 0), ("uniqueness", 0), ("norms", 0), ("filtration", 0), ("kostant", 1)],
)
def test_weight_list_built_only_for_suites_that_read_it(ex1_path, monkeypatch, capsys, suite, calls):
    made = []
    enumerate_weights = cli.theta_invariant_dominant_weights
    monkeypatch.setattr(
        cli, "theta_invariant_dominant_weights", lambda n, m: made.append(n) or enumerate_weights(n, m)
    )
    assert main(["verify", suite, "--spec", ex1_path, "--n", "2", "--max-entry", "1"]) == 0
    assert len(made) == calls


def test_integer_norm_check_agrees_with_fraction_norms(monkeypatch):
    # the suite's own draws on Sp, SO odd and SO even, then the same draws
    # through a transfer that appends +-1, which breaks the doubling
    import random

    from arthurcomb.params import ClassicalGroup, g_inf_char, gl_inf_char
    from arthurcomb.weyl import Weight, norm_sq

    cli._norm_failures.cache_clear()  # its draws call the patched transfer

    def fraction_verdict(nu, group):
        gl = cli.transfer_infchar(nu, group)
        return norm_sq(Weight(gl.doubled)) == 2 * norm_sq(nu.weight)

    def draws():
        rng = random.Random(5)
        for kind in ("Sp", "SOodd", "SOeven"):
            for rank in range(6):
                group = ClassicalGroup(kind, rank)
                for _ in range(20):
                    w = Weight(tuple(rng.randint(-14, 14) for _ in range(rank)))
                    yield g_inf_char(group.gside_type(), w), group

    verdicts = [(cli._norm_doubles(*d), fraction_verdict(*d)) for d in draws()]
    assert len(verdicts) == 360 and all(a is b is True for a, b in verdicts)
    transfer = cli.transfer_infchar
    monkeypatch.setattr(
        cli, "transfer_infchar", lambda nu, g: gl_inf_char(transfer(nu, g).doubled + (2, -2))
    )
    verdicts = [(cli._norm_doubles(*d), fraction_verdict(*d)) for d in draws()]
    assert all(a is b is False for a, b in verdicts)


def test_mu_with_zero_denominator_exits_two(capsys):
    assert main(["verify", "kostant", "--n", "2", "--mu", "1/0,-1"]) == 2
    assert "--mu" in capsys.readouterr().err


# --- fuzzed spec and packet files -----------------------------------------------
# One of the two files is fuzzed: a valid file with one or two values
# anywhere in it (the whole file included) replaced by small arbitrary JSON.

FUZZ_SPEC = {
    **EX1_SPEC,
    "options": {"offsets": [5], "seed": 7, "threshold": 2, "height_bound": 4, "trials": 3},
}
FUZZ_PACKET = {
    "entries": [
        {
            "levi": {"unitary": [[1, 1]], "g0": {"kind": "Sp", "rank": 0}},
            "character": [1, 1],
            "sigma": {"label": "pi"},
        }
    ]
}

_scalar = (
    st.none()
    | st.booleans()
    | st.integers(-3, 8)
    | st.floats(-3, 8, allow_nan=False)
    | st.text("0123456789/-+ Sp", max_size=4)
)


def _containers(inner):
    return st.lists(inner, max_size=3) | st.dictionaries(
        st.sampled_from(["t", "a", "nu", "kind", "rank", "x"]), inner, max_size=3
    )


_json = _scalar | st.recursive(_scalar, _containers, max_leaves=6)


def _positions(doc, path=()):
    yield path
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield from _positions(value, path + (key,))


@st.composite
def _corrupted(draw, base):
    doc = json.loads(json.dumps(base))
    for _ in range(draw(st.integers(1, 2))):
        path = draw(st.sampled_from(list(_positions(doc))))
        value = draw(_json)
        if not path:
            doc = value
            continue
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = value
    return doc


@pytest.mark.parametrize("command", ["info", "dominate", "translate", "packet"])
@settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)
@given(data=st.data())
def test_fuzzed_spec_and_packet_files_exit_cleanly(tmp_path, command, data):
    files = {"spec": FUZZ_SPEC, "packet": FUZZ_PACKET}
    target = data.draw(st.sampled_from(sorted(files))) if command == "packet" else "spec"
    files[target] = data.draw(_corrupted(files[target]))
    paths = {}
    for name, doc in files.items():
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(json.dumps(doc))
    argv = [command, "--spec", str(paths["spec"])]
    if command == "packet":
        argv += ["--plus-packet", str(paths["packet"])]
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2)
    if code == 2:
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
    assert "Traceback" not in err.getvalue()


# --- determinism -----------------------------------------------------------------


def test_report_bytes_deterministic(ex1_path, run_cli):
    args = ["verify", "all", "--spec", ex1_path, "--seed", "7"]
    a = run_cli(args)
    b = run_cli(args)
    assert a.returncode == 0
    assert a.stdout == b.stdout
    assert a.stdout  # nonempty


def test_report_bytes_independent_of_workers(ex1_path, run_cli):
    base = ["verify", "all", "--spec", ex1_path, "--seed", "7"]
    a = run_cli(base + ["--workers", "1"])
    b = run_cli(base + ["--workers", "2"])
    assert a.returncode == b.returncode == 0
    assert a.stdout == b.stdout


def test_text_and_json_agree_on_verdicts(ex1_path, run_cli):
    j = run_cli(["verify", "uniqueness", "--spec", ex1_path, "--offsets", "5"])
    t = run_cli(
        ["verify", "uniqueness", "--spec", ex1_path, "--offsets", "5", "--format", "text"]
    )
    assert j.returncode == t.returncode == 0
    report = json.loads(j.stdout)
    assert all(v["status"] == "pass" for v in report["verdicts"])
    assert b"overall: pass" in t.stdout


# --- memos of the spec-free verify values ------------------------------------------
# Each test clears them first; no fixture does, so the golden cases after the
# first `verify all` check memo-served reports against their digests.


def _clear_memos():
    for memo in (cli._norm_failures, cli._transfer_residuals, cli._kostant_rows):
        memo.cache_clear()


def _corpus_spec(tmp_path, kind, rank=2):
    """The spec of the first corpus parameter of the group, on its quasi-split form."""
    psi = next(p for p in params.corpus(signed=True) if (p.group.kind, p.group.rank) == (kind, rank))
    path = tmp_path / f"{kind}{rank}.json"
    path.write_text(json.dumps(cli._psi_payload(psi)))
    return str(path)


def _stdout(capsys, argv):
    code = main(argv)
    return code, capsys.readouterr().out


def _count_calls(monkeypatch, calls, name):
    real = getattr(cli, name)
    monkeypatch.setattr(cli, name, lambda *a: calls.append(name) or real(*a))


def test_verify_all_on_two_groups_runs_the_spec_free_checks_once(tmp_path, monkeypatch, capsys):
    _clear_memos()
    calls = []
    for name in ("verify_transfer_identities", "kostant_theta_invariance", "g_inf_char"):
        _count_calls(monkeypatch, calls, name)
    sp, so = _corpus_spec(tmp_path, "Sp"), _corpus_spec(tmp_path, "SOodd")
    for path in (sp, so, sp, so):
        assert _stdout(capsys, ["verify", "all", "--spec", path, "--seed", "7"])[0] == 0
    # 6 weights of GL(4) with entries <= 2, and 100 norm draws per (kind, rank)
    assert calls.count("verify_transfer_identities") == 1
    assert calls.count("kostant_theta_invariance") == 6
    assert calls.count("g_inf_char") == 2 * 100
    # the draws read the group's kind and rank, not its signature
    with open(so) as f:
        spec = json.load(f)
    spec["group"]["signature"] = None
    unsigned = tmp_path / "unsigned.json"
    unsigned.write_text(json.dumps(spec))
    reports = [_report(capsys, ["verify", "norms", "--spec", str(p), "--seed", "7"]) for p in (so, unsigned)]
    assert reports[0][1]["results"] == reports[1][1]["results"]
    assert calls.count("g_inf_char") == 2 * 100


@pytest.mark.parametrize(
    "flag, value, new",
    [
        ("--seed", "8", {"verify_transfer_identities", "g_inf_char"}),
        ("--trials", "99", {"verify_transfer_identities", "g_inf_char"}),
        ("--n", "3", {"verify_transfer_identities", "kostant_theta_invariance"}),
        ("--max-entry", "1", {"verify_transfer_identities", "kostant_theta_invariance"}),
        ("--mu", "2,1,-1,-2", {"verify_transfer_identities", "kostant_theta_invariance"}),
    ],
)
def test_a_new_key_makes_a_new_call(tmp_path, monkeypatch, capsys, flag, value, new):
    _clear_memos()
    calls = []
    for name in ("verify_transfer_identities", "kostant_theta_invariance", "g_inf_char"):
        _count_calls(monkeypatch, calls, name)
    argv = ["verify", "all", "--spec", _corpus_spec(tmp_path, "Sp"), "--seed", "7"]
    assert _stdout(capsys, argv)[0] == _stdout(capsys, argv)[0] == 0
    assert set(calls) == {"verify_transfer_identities", "kostant_theta_invariance", "g_inf_char"}
    calls.clear()
    argv += [flag, value]
    report = _stdout(capsys, argv)
    assert report[0] == 0
    assert set(calls) == new
    calls.clear()
    assert _stdout(capsys, argv) == report
    assert calls == []
    _clear_memos()
    assert _stdout(capsys, argv) == report


@pytest.mark.parametrize("kind", ["Sp", "SOodd", "SOeven"])
def test_memo_served_reports_equal_fresh_ones(tmp_path, capsys, kind):
    argv = ["verify", "all", "--spec", _corpus_spec(tmp_path, kind), "--seed", "3"]
    _clear_memos()
    fresh = _stdout(capsys, argv)
    _clear_memos()
    # the twisted-trace and Kostant values of another group's run serve the
    # next report, and all three memos the one after
    other = ["verify", "all", "--spec", _corpus_spec(tmp_path, "Sp", 1), "--seed", "3"]
    assert _stdout(capsys, other)[0] == 0
    served = [_stdout(capsys, argv) for _ in range(2)]
    assert cli._norm_failures.cache_info().hits == 1
    assert cli._transfer_residuals.cache_info().hits == cli._kostant_rows.cache_info().hits == 2
    assert served == [fresh, fresh]
    assert fresh[0] == 0 and fresh[1]


# --- dependencies ----------------------------------------------------------------

_IMPORT_PROBE = """
import sys
bare = set(sys.modules)
import arthurcomb, arthurcomb.cli
print(sorted(set(sys.modules) - bare))
"""


def test_package_imports_only_the_standard_library(run_python):
    # the package declares no runtime dependencies, even where numpy is installed
    out = run_python(["-c", _IMPORT_PROBE])
    assert out.returncode == 0, out.stderr
    added = ast.literal_eval(out.stdout.decode())
    assert "arthurcomb.cli" in added
    tops = {name.partition(".")[0] for name in added}
    assert tops - set(sys.stdlib_module_names) == {"arthurcomb"}
