import io
import json
import subprocess
import sys

import pytest

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


def run_cli(args):
    proc = subprocess.run(
        [sys.executable, "-m", "arthurcomb.cli", *args],
        capture_output=True,
        text=True,
    )
    return proc


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



def _packet_exit_code(spec_path, tmp_path, levi):
    pk_path = tmp_path / "pk.json"
    pk_path.write_text(json.dumps({"entries": [{"levi": levi, "character": [1, 1]}]}))
    return main(["packet", "--spec", spec_path, "--offsets", "5", "--plus-packet", str(pk_path)])


def test_packet_missing_g0_kind_rejected(ex1_path, tmp_path, capsys):
    levi = {"unitary": [[1, 1]], "g0": {"rank": 0}}
    assert _packet_exit_code(ex1_path, tmp_path, levi) == 2
    assert "g0.kind" in capsys.readouterr().err


def test_packet_fractional_unitary_rejected(ex1_path, tmp_path, capsys):
    levi = {"unitary": [[1.5, 1]], "g0": {"kind": "Sp", "rank": 0}}
    assert _packet_exit_code(ex1_path, tmp_path, levi) == 2
    assert "unitary" in capsys.readouterr().err


def test_packet_levi_not_fitting_block_rejected(ex1_path, tmp_path, capsys):
    # U(5,5) cannot sit on the a=2 block of Sp(4,R)
    levi = {"unitary": [[5, 5]], "g0": {"kind": "Sp", "rank": 0}}
    assert _packet_exit_code(ex1_path, tmp_path, levi) == 2
    assert "does not fit discrete block 1 of size 2" in capsys.readouterr().err

# --- determinism -----------------------------------------------------------------


def test_report_bytes_deterministic(ex1_path):
    args = ["verify", "all", "--spec", ex1_path, "--seed", "7"]
    a = run_cli(args)
    b = run_cli(args)
    assert a.returncode == 0
    assert a.stdout == b.stdout
    assert a.stdout  # nonempty


def test_report_bytes_independent_of_workers(ex1_path):
    base = ["verify", "all", "--spec", ex1_path, "--seed", "7"]
    a = run_cli(base + ["--workers", "1"])
    b = run_cli(base + ["--workers", "2"])
    assert a.returncode == b.returncode == 0
    assert a.stdout == b.stdout


def test_text_and_json_agree_on_verdicts(ex1_path):
    j = run_cli(["verify", "uniqueness", "--spec", ex1_path, "--offsets", "5"])
    t = run_cli(
        ["verify", "uniqueness", "--spec", ex1_path, "--offsets", "5", "--format", "text"]
    )
    assert j.returncode == t.returncode == 0
    report = json.loads(j.stdout)
    assert all(v["status"] == "pass" for v in report["verdicts"])
    assert "overall: pass" in t.stdout
