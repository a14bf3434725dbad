"""The four benchmark workloads: corpus, operations and output checks.

Every operation goes through the package's public functions, looked up
on the module objects at call time so that the traced run's wrappers
see each call.  An operation is split in two: ``run`` is the timed call
into the program, ``check`` is untimed and turns its result into a
verdict, a canonical output (digested) and the exact counts.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import json
import os
import sys
import types

MODULES = ("weyl", "params", "torus", "twisted", "aq", "cli")

# CLI invocations use fixed program seeds and sizes, so that every
# invocation a workload seed can draw has a recorded digest.
CLI_SEED = "7"
CLI_TRIALS = "100"
CLI_MAX_N = 8
CLI_MAX_ENTRY = "3"
# `verify all` specs are drawn from parameters whose filtration sweep
# stays small, so the cli workload times the twisted-trace and report
# path rather than the monoid enumeration.
CLI_SPEC_MAX_STATES = 2000


def load_program(src: str) -> types.SimpleNamespace:
    """Import (or re-import) the package from ``src`` and nowhere else."""
    for name in [m for m in sys.modules if m == "arthurcomb" or m.startswith("arthurcomb.")]:
        del sys.modules[name]
    if sys.path[:1] != [src]:
        sys.path.insert(0, src)
    pkg = importlib.import_module("arthurcomb")
    where = os.path.dirname(os.path.abspath(pkg.__file__))
    if os.path.dirname(where) != os.path.abspath(src):
        raise ImportError(f"arthurcomb was imported from {where}, not from {src}")
    return types.SimpleNamespace(
        **{m: importlib.import_module(f"arthurcomb.{m}") for m in MODULES}
    )


def digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:20]


# ---------------------------------------------------------------------------
# corpus: every good-parity parameter with n* <= 8, as in the acceptance suite


def _quasi_split(P, kind: str, rank: int):
    if kind == "Sp":
        return P.ClassicalGroup("Sp", rank)
    if kind == "SOodd":
        return P.ClassicalGroup("SOodd", rank, (rank + 1, rank))
    sig = (rank, rank) if rank % 2 == 0 else (rank + 1, rank - 1)
    return P.ClassicalGroup("SOeven", rank, sig)


def corpus(prog, signed: bool) -> list:
    P = prog.params
    bare = (
        [P.ClassicalGroup("Sp", r) for r in (1, 2, 3)]
        + [P.ClassicalGroup("SOodd", r) for r in (1, 2, 3, 4)]
        + [P.ClassicalGroup("SOeven", r) for r in (1, 2, 3, 4)]
    )
    out = []
    for g in bare:
        target = _quasi_split(P, g.kind, g.rank) if signed else g
        for psi in P.enumerate_parameters(g):
            out.append(P.arthur_parameter(target, psi.blocks) if signed else psi)
    return out


def plain(psi) -> tuple:
    """A parameter as plain data, which outlives the program's classes."""
    g = psi.group
    return g.kind, g.rank, g.signature, tuple((b.t2, b.a, b.eta, b.mult) for b in psi.blocks)


def parameter(prog, data: tuple):
    """Rebuild a parameter from ``plain`` data with the loaded program."""
    P = prog.params
    kind, rank, signature, blocks = data
    return P.ArthurParameter(P.ClassicalGroup(kind, rank, signature), tuple(P.Block(*b) for b in blocks))


def spec_payload(psi) -> dict:
    g = psi.group
    group = {"kind": g.kind, "rank": g.rank}
    if g.signature is not None:
        group["signature"] = list(g.signature)
    blocks = [
        {"t": str(b.t), "a": b.a, "eta": "+" if b.eta == 1 else "-", "mult": b.mult}
        for b in psi.blocks
    ]
    return {"group": group, "blocks": blocks, "options": {}}


# ---------------------------------------------------------------------------
# uniqueness: the criterion-1 loop


def uniqueness_run(prog, psi):
    P, T = prog.params, prog.torus
    offs = P.canonical_offsets(psi)
    plus = P.dominate(psi, offs)
    return offs, T.uniqueness_check(psi, plus)


def uniqueness_check(psi, raw):
    offs, rep = raw
    ok = rep.unique and list(rep.matches) == [rep.aligned]
    out = {
        "offsets": list(offs),
        "aligned": str(rep.aligned),
        "matches": [str(m) for m in rep.matches],
        "rearrangements": rep.rearrangements,
        "unique": rep.unique,
    }
    counts = {"rearrangements": rep.rearrangements, "matches": len(rep.matches)}
    return ok, out, counts


# ---------------------------------------------------------------------------
# filtration: the criterion-6 loop on the signed corpus


def filtration_run(prog, psi):
    P, A = prog.params, prog.aq
    offs = P.canonical_offsets(psi)
    plus = P.dominate(psi, offs)
    levis = A.enumerate_levis(plus)
    ranges = [
        (A.range_check(A.aq_datum(plus, levi)).verdict, A.range_check(A.aq_datum(psi, levi)).verdict)
        for levi in levis
    ]
    rep = A.filtration_vanishing(
        A.aq_datum(plus, levis[0]), psi, height_bound=2 * max(offs, default=0)
    )
    return ranges, rep


def filtration_check(psi, raw):
    ranges, rep = raw
    ok = (
        all(vp == "good" and vm in ("good", "weakly_fair") for vp, vm in ranges)
        and not rep.violations
        and rep.cert_weight_pairing
        and rep.cert_unitary_support
    )
    out = {
        "ranges": [list(r) for r in ranges],
        "height": rep.height_bound,
        "enumerated": rep.enumerated,
        "dominant": rep.dominant_count,
        "truncated": rep.truncated,
        "violations": len(rep.violations),
        "certificates": [rep.cert_weight_pairing, rep.cert_unitary_support],
        "items": [
            [str(it.mu), str(it.norm_with), str(it.norm_without), str(it.pairing_lambda), str(it.pairing_delta)]
            for it in rep.items
        ],
    }
    counts = {
        "states": rep.enumerated,
        "dominant": rep.dominant_count,
        "truncated": int(rep.truncated),
    }
    return ok, out, counts


# ---------------------------------------------------------------------------
# packet: the criterion-7 loop


def packet_run(prog, psi):
    P, A = prog.params, prog.aq
    plus = P.dominate(psi, P.canonical_offsets(psi))
    grp = P.component_group(plus)
    pk_plus = A.packet_data(
        plus,
        [(A.aq_datum(plus, levi), eps) for levi in A.enumerate_levis(plus) for eps in grp.characters()],
    )
    same = A.translate_packet(pk_plus, plus)
    down = A.translate_packet(pk_plus, psi)
    qm = P.quotient_map(plus, psi)
    return pk_plus, same, down, qm, qm.kernel()


def packet_check(psi, raw):
    pk_plus, same, down, qm, kernel = raw
    ok = (
        same.packet == pk_plus
        and not same.vanishing
        and len(down.packet.entries) + len(down.vanishing) == len(pk_plus.entries)
        and qm.kernel_order * qm.target.order == qm.source.order
        and len(kernel) == qm.kernel_order
    )
    out = {
        "entries": [[d.label(), list(v)] for d, v in down.packet.entries],
        "vanishing": [[d.label(), list(v)] for d, v in down.vanishing],
        "kernel": [list(s) for s in kernel],
        "plus": [[d.label(), list(v)] for d, v in pk_plus.entries],
    }
    counts = {"packet_entries": len(pk_plus.entries), "vanishing": len(down.vanishing)}
    return ok, out, counts


# ---------------------------------------------------------------------------
# cli: in-process `arthurcomb` invocations with stdout captured


def cli_twisted_argv(n: int, workers: int) -> list[str]:
    return [
        "verify", "twisted-trace", "--n", str(n), "--max-entry", CLI_MAX_ENTRY,
        "--trials", CLI_TRIALS, "--seed", CLI_SEED, "--workers", str(workers),
    ]


def cli_kostant_argv(n: int) -> list[str]:
    return ["verify", "kostant", "--n", str(n), "--max-entry", CLI_MAX_ENTRY]


def cli_all_argv(spec_path: str) -> list[str]:
    return ["verify", "all", "--spec", spec_path, "--seed", CLI_SEED]


def cli_run(prog, argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = prog.cli.main(argv)
    return code, buf.getvalue()


def cli_check(argv, raw):
    code, text = raw
    ok = code == 0
    try:
        report = json.loads(text)
        twisted = report["results"].get("twisted_trace")
        if twisted is not None:
            ok = ok and float(twisted["max_residual"]) <= 1e-9
        ok = ok and all(v["status"] == "pass" for v in report["verdicts"])
    except (ValueError, KeyError, TypeError, AttributeError):
        ok = False
    # the spec path differs between checkouts; the report does not carry it
    out = {"stdout": text}
    counts = {"report_bytes": len(text.encode("utf-8")), "exit_code": code}
    return ok, out, counts
