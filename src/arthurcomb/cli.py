"""Command-line front end: parse parameter files, run verifier sweeps,
emit deterministic reports.

Every command runs one pipeline in ``main``: parse the spec once, resolve
each setting once (flag, then the spec's ``options``, then the default)
and emit the handler's ``(results, verdicts)`` as one report.

Exit codes: 0 all verdicts pass, 1 at least one violation, 2 input error
or stdout closed before the report was written, 3 out of memory before a
verdict.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import random
import re
import sys
from fractions import Fraction
from typing import NamedTuple

from . import __version__
from .params import (
    ArthurParameter,
    ClassicalGroup,
    InfChar,
    ParameterError,
    arthur_parameter,
    block,
    canonical_offsets,
    component_group,
    dimension,
    dominate,
    g_inf_char,
    good_parity,
    inf_char,
)
from .torus import transfer_infchar, translation_weight, uniqueness_check
from .twisted import (
    kostant_theta_invariance,
    theta_invariant_dominant_weights,
    verify_transfer_identities,
)
from .weyl import Weight, weight
from .aq import (
    LeviDatum,
    aq_datum,
    enumerate_levis,
    filtration_vanishing,
    packet_data,
    translate_packet,
)


class SpecError(ValueError):
    pass


def _require_keys(obj: dict, allowed: set[str], context: str) -> None:
    unknown = set(obj) - allowed
    if unknown:
        raise SpecError(f"unknown field(s) {sorted(unknown)} in {context}")


# the only string forms of a half-integer: "k" or "k/2" with k an integer
_HALF_STRING = re.compile(r"-?[0-9]+(/2)?")


def _parse_half(value, context: str) -> Fraction:
    if isinstance(value, bool) or isinstance(value, float):
        raise SpecError(f"{context}: half-integers must be integers or 'k'/'k/2' strings")
    if isinstance(value, str) and not _HALF_STRING.fullmatch(value):
        raise SpecError(f"{context}: {value!r} is not written as 'k' or 'k/2'")
    # a matched string has denominator 1 or 2; Fraction still rejects a
    # string past the int-conversion digit limit and a non-number
    try:
        return Fraction(value)
    except (ValueError, TypeError) as exc:
        raise SpecError(f"{context}: cannot parse {value!r} as a half-integer") from exc


def _parse_group(gdata: dict, context: str) -> ClassicalGroup:
    _require_keys(gdata, {"kind", "rank", "signature"}, context)
    signature = gdata.get("signature")
    try:
        return ClassicalGroup(
            gdata.get("kind"),
            gdata.get("rank"),
            tuple(signature) if isinstance(signature, list) else signature,
        )
    except ParameterError as exc:
        raise SpecError(f"{context}: {exc}") from exc


def parse_spec_data(data: dict) -> tuple[ArthurParameter, dict]:
    if not isinstance(data, dict):
        raise SpecError("spec file must contain a JSON object")
    _require_keys(data, {"group", "blocks", "options"}, "spec")
    gdata = data.get("group")
    if not isinstance(gdata, dict):
        raise SpecError("missing 'group' object")
    group = _parse_group(gdata, "group")

    bdata = data.get("blocks")
    if not isinstance(bdata, list) or not bdata:
        raise SpecError("missing 'blocks' list")
    blocks = []
    for i, bd in enumerate(bdata):
        if not isinstance(bd, dict):
            raise SpecError(f"blocks[{i}] must be an object")
        _require_keys(bd, {"t", "a", "eta", "mult"}, f"blocks[{i}]")
        if "t" not in bd or "a" not in bd:
            raise SpecError(f"blocks[{i}] needs fields 't' and 'a'")
        t = _parse_half(bd["t"], f"blocks[{i}].t")
        eta = bd.get("eta", "+")
        if eta not in ("+", "-", "−"):
            raise SpecError(f"blocks[{i}].eta must be '+' or '-'")
        try:
            blocks.append(block(t, bd["a"], eta, bd.get("mult", 1)))
        except ParameterError as exc:
            raise SpecError(f"blocks[{i}]: {exc}") from exc

    options = data.get("options", {})
    if not isinstance(options, dict):
        raise SpecError("'options' must be an object")
    _require_keys(
        options, {"offsets", "seed", "height_bound", "threshold", "trials"}, "options"
    )
    try:
        psi = arthur_parameter(group, blocks)
    except ParameterError as exc:
        raise SpecError(str(exc)) from exc
    return psi, dict(options)


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise SpecError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise SpecError(f"{path} is not valid JSON: {exc}") from exc
    except ValueError as exc:
        # the one other ValueError of json.load: int() refuses a literal
        # longer than sys.get_int_max_str_digits()
        raise SpecError(
            f"{path}: an integer literal is too long (more than "
            f"{sys.get_int_max_str_digits()} digits)"
        ) from exc
    except RecursionError as exc:
        raise SpecError(f"{path}: arrays or objects are nested too deeply") from exc


def parse_spec(path: str) -> tuple[ArthurParameter, dict]:
    """Load and validate a parameter spec file; dimension errors are fatal."""
    return parse_spec_data(_load_json(path))


# ---------------------------------------------------------------------------
# settings


class Settings(NamedTuple):
    """The settings of one invocation, each resolved and type-checked once."""

    seed: int
    trials: int
    offsets: tuple[int, ...]  # empty: the canonical offsets
    offsets_given: str | list | None  # as written on the command line or in the spec
    threshold: int | None
    height_bound: int | None  # None: 2 * max(offsets)
    n: int | None
    weights: tuple[Weight, ...]  # checked by the twisted-trace and Kostant suites


def resolve_settings(args, options: dict) -> Settings:
    """Resolve every setting of one invocation: the command line wins, then
    the spec's ``options``, then the default.  ``args`` is only read."""

    def option(name: str, default=None):
        value = getattr(args, name, None)
        if value is None:
            value = options.get(name)
        if value is not None and type(value) is not int:
            raise SpecError(f"options.{name} must be an integer, got {value!r}")
        return default if value is None else value

    offsets_given = getattr(args, "offsets", None)
    if offsets_given is None:
        offsets_given = options.get("offsets")
        offsets = offsets_given or []
        if not isinstance(offsets, list) or not all(type(x) is int for x in offsets):
            raise SpecError(f"options.offsets must be a list of integers, got {offsets_given!r}")
    else:
        try:
            offsets = [int(x) for x in offsets_given.split(",")] if offsets_given else []
        except ValueError:
            raise SpecError(f"--offsets must be comma-separated integers, got {offsets_given!r}") from None

    # a count below these would check nothing and still pass
    trials = option("trials", 100)
    if trials < 1:
        raise SpecError(f"--trials/options.trials must be at least 1, got {trials}")
    max_entry = getattr(args, "max_entry", None)
    if max_entry is not None and max_entry < 0:
        raise SpecError(f"--max-entry must be at least 0, got {max_entry}")
    # a negative height enumerates no monoid state; the library allows it
    height_bound = option("height_bound")
    if height_bound is not None and height_bound < 0:
        raise SpecError(f"--height-bound/options.height_bound must be at least 0, got {height_bound}")
    # a negative gap bound would act as 0
    threshold = option("threshold")
    if threshold is not None and threshold < 0:
        raise SpecError(f"--threshold/options.threshold must be at least 0, got {threshold}")

    suite = getattr(args, "suite", None)
    n = getattr(args, "n", None)
    if n is None and suite in ("twisted-trace", "kostant"):
        raise SpecError(f"suite {suite!r} requires --n")
    if n is not None and n < 1:
        raise SpecError(f"--n must be at least 1, got {n}")
    if n is None and suite == "all":
        n = 4
    return Settings(
        seed=option("seed", 0),
        trials=trials,
        offsets=tuple(offsets),
        offsets_given=offsets_given,
        threshold=threshold,
        height_bound=height_bound,
        n=n,
        weights=() if n is None else _weight_list(n, args.mu, args.max_entry, suite),
    )


def _weight_list(n: int, mu: str | None, max_entry: int, suite: str) -> tuple[Weight, ...]:
    """``--mu``, or every theta-invariant dominant weight of GL(n) with
    entries up to ``--max-entry`` if ``suite`` reads weights, else none."""
    if not mu:
        if suite not in ("twisted-trace", "kostant", "all"):
            return ()
        return tuple(theta_invariant_dominant_weights(n, max_entry))
    w = weight([_parse_half(x, "--mu") for x in mu.split(",")])
    if len(w) != n:
        raise SpecError(f"--mu has {len(w)} entries but --n is {n}")
    return (w,)


def _domination_pair(psi: ArthurParameter, s: Settings) -> tuple[tuple[int, ...], ArthurParameter]:
    offsets = s.offsets or canonical_offsets(psi, s.threshold)
    return offsets, dominate(psi, offsets, s.threshold)


# ---------------------------------------------------------------------------
# report plumbing


def _fmt(value):
    if isinstance(value, bool) or value is None:
        return value
    if isinstance(value, float):
        return f"{value:.2e}"
    if isinstance(value, dict):
        return {k: _fmt(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_fmt(v) for v in value]
    return value


def _input_hash(payload) -> str:
    canonical = json.dumps(_fmt(payload), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def make_report(command: str, payload, seed, results: dict, verdicts: list[dict]) -> dict:
    return {
        "command": command,
        "input_hash": _input_hash(payload),
        "seed": seed,
        "results": _fmt(results),
        "verdicts": _fmt(verdicts),
        "version": __version__,
    }


def emit_report(report: dict, fmt: str = "json") -> None:
    out = sys.stdout
    if fmt == "json":
        out.write(json.dumps(report, sort_keys=True, indent=1))
        out.write("\n")
        out.flush()
        return
    out.write(f"# {report['command']}\n")
    out.write(f"version: {report['version']}  seed: {report['seed']}\n")
    out.write(f"input: {report['input_hash']}\n")
    for key in sorted(report["results"]):
        out.write(f"{key}: {json.dumps(report['results'][key], sort_keys=True)}\n")
    for v in report["verdicts"]:
        out.write(f"[{v['status'].upper():9s}] {v['check']}: {v['detail']}\n")
    overall = "pass" if _all_pass(report["verdicts"]) else "violation"
    out.write(f"overall: {overall}\n")
    out.flush()


def _all_pass(verdicts: list[dict]) -> bool:
    return all(v["status"] == "pass" for v in verdicts)


def _verdict(check: str, ok: bool, detail: str) -> dict:
    return {"check": check, "status": "pass" if ok else "violation", "detail": detail}


# ---------------------------------------------------------------------------
# subcommand handlers: each takes (args, psi, settings, pair), where
# ``pair()`` returns the domination pair (offsets, psi_plus), and returns
# (results, verdicts)


def _psi_payload(psi: ArthurParameter) -> dict:
    return {
        "group": {
            "kind": psi.group.kind,
            "rank": psi.group.rank,
            "signature": list(psi.group.signature) if psi.group.signature else None,
        },
        "blocks": [
            {"t": str(b.t), "a": b.a, "eta": "+" if b.eta == 1 else "-", "mult": b.mult}
            for b in psi.blocks
        ],
    }


def _parity_rows(rep) -> list[dict]:
    return [{"block": str(r.block), "ok": r.ok, "reason": r.reason} for r in rep.blocks]


def cmd_info(args, psi, s, pair) -> tuple[dict, list[dict]]:
    parity = good_parity(psi)
    results = {
        "parameter": str(psi),
        "dual_dim": psi.group.dual_dim,
        "dimension": dimension(psi),
        "good_parity": parity.ok,
        "parity_blocks": _parity_rows(parity),
    }
    verdicts = [_verdict("good-parity", parity.ok, "all blocks match the dual type" if parity.ok else "bad parity")]
    if parity.ok:
        grp = component_group(psi)
        results["component_group_order"] = grp.order
        results["s_psi"] = list(grp.s_psi)
    return results, verdicts


def cmd_infchar(args, psi, s, pair) -> tuple[dict, list[dict]]:
    gl = inf_char(psi, "GL")
    g = inf_char(psi, "G")
    results = {
        "gl_side": [str(x) for x in gl.entries],
        "g_side": [str(x) for x in g.entries],
    }
    return results, [_verdict("infchar", True, f"GL {gl} / G {g}")]


def cmd_dominate(args, psi, s, pair) -> tuple[dict, list[dict]]:
    offs, plus = pair()
    results = {
        "offsets": offs,
        "dominating": _psi_payload(plus),
    }
    return results, [_verdict("dominate", True, str(plus))]


def cmd_translate(args, psi, s, pair) -> tuple[dict, list[dict]]:
    offs, plus = pair()
    datum = translation_weight(psi, plus)
    results = {
        "offsets": offs,
        "lambda_GL": str(datum.lambda_GL),
        "lambda_G": str(datum.lambda_G),
    }
    return results, [_verdict("translate", True, f"lambda = {datum.lambda_GL}")]


_TYPE_NAMES = {dict: "an object", list: "a list", str: "a string"}


def _field(obj: dict, key: str, kind: type, context: str, default=None):
    """``obj[key]``, or ``default`` when absent; it must be a ``kind``."""
    value = obj.get(key, default)
    if not isinstance(value, kind):
        raise SpecError(f"{context}.{key} must be {_TYPE_NAMES[kind]}")
    return value


def _parse_packet_file(path: str, psi_plus: ArthurParameter):
    data = _load_json(path)
    if not isinstance(data, dict):
        raise SpecError("packet file must contain a JSON object")
    _require_keys(data, {"entries"}, "packet")
    entries = []
    for i, ed in enumerate(_field(data, "entries", list, "packet")):
        if not isinstance(ed, dict):
            raise SpecError(f"entries[{i}] must be an object")
        _require_keys(ed, {"levi", "character", "sigma"}, f"entries[{i}]")
        ld = _field(ed, "levi", dict, f"entries[{i}]")
        _require_keys(ld, {"unitary", "g0"}, f"entries[{i}].levi")
        unitary = ld.get("unitary", [])
        if not isinstance(unitary, list) or not all(
            isinstance(pq, list) and len(pq) == 2 for pq in unitary
        ):
            raise SpecError(f"entries[{i}].levi.unitary must be a list of [p, q] pairs")
        g0 = _parse_group(_field(ld, "g0", dict, f"entries[{i}].levi"), f"entries[{i}].levi.g0")
        levi = LeviDatum(tuple(map(tuple, unitary)), g0)
        sd = _field(ed, "sigma", dict, f"entries[{i}]", {})
        _require_keys(sd, {"label"}, f"entries[{i}].sigma")
        try:
            datum = aq_datum(psi_plus, levi, _field(sd, "label", str, f"entries[{i}].sigma", "sigma"))
        except ParameterError as exc:
            raise SpecError(f"entries[{i}].levi: {exc}") from exc
        values = ed.get("character")
        if not isinstance(values, list) or not all(type(v) is int and v in (1, -1) for v in values):
            raise SpecError(f"entries[{i}].character must be a list of +-1")
        entries.append((datum, tuple(values)))
    return packet_data(psi_plus, entries)


def cmd_packet(args, psi, s, pair) -> tuple[dict, list[dict]]:
    offs, plus = pair()
    pk_plus = _parse_packet_file(args.plus_packet, plus)
    result = translate_packet(pk_plus, psi)
    results = {
        "offsets": offs,
        "kernel_order": result.quotient.kernel_order,
        "entries": [
            {"datum": d.label(), "character": list(v)} for d, v in result.packet.entries
        ],
        "vanishing": [
            {"datum": d.label(), "character": list(v), "note": "character nontrivial on kernel"}
            for d, v in result.vanishing
        ],
    }
    return results, [
        _verdict(
            "packet-translate",
            True,
            f"{len(result.packet.entries)} entries kept, {len(result.vanishing)} vanishing",
        )
    ]


# ---------------------------------------------------------------------------
# verify suites


def _suite_parity(psi: ArthurParameter, s: Settings, pair) -> tuple[dict, list[dict]]:
    rep = good_parity(psi)
    results = {"parity_blocks": _parity_rows(rep)}
    bad = [r for r in rep.blocks if not r.ok]
    detail = "all blocks good" if rep.ok else f"{len(bad)} block(s) violate the criterion"
    return results, [_verdict("parity", rep.ok, detail)]


def _suite_uniqueness(psi: ArthurParameter, s: Settings, pair) -> tuple[dict, list[dict]]:
    offs, plus = pair()
    rep = uniqueness_check(psi, plus)
    results = {
        "offsets": offs,
        "rearrangements": rep.rearrangements,
        "aligned": str(rep.aligned),
        "matches": [str(m) for m in rep.matches],
    }
    return results, [
        _verdict(
            "uniqueness",
            rep.unique,
            f"{len(rep.matches)} match(es) among {rep.rearrangements} rearrangements",
        )
    ]


def _norm_doubles(nu: InfChar, group: ClassicalGroup) -> bool:
    """|transfer(nu)|^2 == 2 |nu|^2, compared on the doubled coordinates
    (both sides carry the same factor 1/4)."""
    gl = transfer_infchar(nu, group).doubled
    return sum(d * d for d in gl) == 2 * sum(d * d for d in nu.doubled)


# The values of the verify suites that read nothing of the spec but the
# group's kind and rank sit in bounded module caches, each keyed by exactly
# what it reads, so a second ``verify`` with the same key in one process
# reuses them; every report is still built per call.


@functools.lru_cache(maxsize=16)
def _norm_failures(kind: str, rank: int, seed: int, trials: int) -> int:
    """How many of ``trials`` seeded random G-side infinitesimal characters
    of the group fail to double their norm under transfer; keyed by
    (kind, rank, seed, trials), as the draws never read the signature."""
    group = ClassicalGroup(kind, rank)
    gt = group.gside_type()
    rng = random.Random(seed)
    failures = 0
    for _ in range(trials):
        w = Weight(tuple(rng.randint(-14, 14) for _ in range(rank)))
        if not _norm_doubles(g_inf_char(gt, w), group):
            failures += 1
    return failures


@functools.lru_cache(maxsize=16)
def _transfer_residuals(weights: tuple[Weight, ...], trials: int, seed: int) -> tuple[float, ...]:
    """``verify_transfer_identities(weights, trials, seed)`` as a tuple;
    keyed by (weights, trials, seed)."""
    return tuple(verify_transfer_identities(weights, trials, seed))


@functools.lru_cache(maxsize=16)
def _kostant_rows(n: int, weights: tuple[Weight, ...]) -> tuple[tuple[str, bool], ...]:
    """The sorted (mu, verdict) rows of the Kostant check of each weight;
    keyed by (n, weights)."""
    return tuple(sorted((str(mu), kostant_theta_invariance(n, mu)) for mu in weights))


def _suite_norms(psi: ArthurParameter, s: Settings, pair) -> tuple[dict, list[dict]]:
    failures = _norm_failures(psi.group.kind, psi.group.rank, s.seed, s.trials)
    exact = _norm_doubles(inf_char(psi, "G"), psi.group)
    results = {"trials": s.trials, "failures": failures, "nu_psi_doubles": exact}
    ok = failures == 0 and exact
    return results, [_verdict("norm-doubling", ok, f"{failures} failures in {s.trials} trials")]


def _suite_filtration(psi: ArthurParameter, s: Settings, pair) -> tuple[dict, list[dict]]:
    offs, plus = pair()
    height = s.height_bound if s.height_bound is not None else 2 * max(offs, default=0)
    levis = enumerate_levis(plus)
    # every Levi datum of psi_+ has the same layout and shifts, and the
    # height is given, so one sweep (which range-checks first) gives every row
    rep = filtration_vanishing(aq_datum(plus, levis[0]), psi, height)
    per_levi = [
        {
            "levi": str(levi),
            "range": "good",
            "enumerated": rep.enumerated,
            "dominant": rep.dominant_count,
            "violations": len(rep.violations),
            "certificates": rep.cert_weight_pairing and rep.cert_unitary_support,
            "truncated": rep.truncated,
        }
        for levi in levis
    ]
    results = {"offsets": offs, "height_bound": height, "levis": per_levi}
    detail = f"{len(rep.violations) * len(levis)} violation(s) over {len(levis)} data"
    return results, [_verdict("filtration", rep.passed, detail)]


def _suite_twisted(psi, s: Settings, pair) -> tuple[dict, list[dict]]:
    rows = sorted(zip(map(str, s.weights), _transfer_residuals(s.weights, s.trials, s.seed)))
    worst = max((r for _m, r in rows), default=0.0)
    results = {
        "n": s.n,
        "trials": s.trials,
        "cases": [{"mu": m, "residual": r} for m, r in rows],
        "max_residual": worst,
    }
    ok = worst <= 1e-9
    return results, [_verdict("twisted-trace", ok, f"max residual {worst:.2e} over {len(rows)} weight(s)")]


def _suite_kostant(psi, s: Settings, pair) -> tuple[dict, list[dict]]:
    rows = _kostant_rows(s.n, s.weights)
    ok = all(r for _m, r in rows)
    results = {"n": s.n, "cases": [{"mu": m, "ok": r} for m, r in rows]}
    return results, [_verdict("kostant", ok, f"{len(rows)} weight(s) checked")]


# report key -> (suite, needs --spec, skipped for a parameter of bad
# parity), in report order; the suite's name is its key with "-" for "_"
VERIFY_SUITES = {
    "parity": (_suite_parity, True, False),
    "uniqueness": (_suite_uniqueness, True, True),
    "norms": (_suite_norms, True, True),
    "filtration": (_suite_filtration, True, True),
    "twisted_trace": (_suite_twisted, False, False),
    "kostant": (_suite_kostant, False, False),
}
SUITES = tuple(key.replace("_", "-") for key in VERIFY_SUITES) + ("all",)
SPEC_SUITES = tuple(
    key.replace("_", "-") for key, (_suite, needs_spec, _parity) in VERIFY_SUITES.items() if needs_spec
) + ("all",)


def cmd_verify(args, psi, s, pair) -> tuple[dict, list[dict]]:
    if psi is None and args.suite in SPEC_SUITES:
        raise SpecError(f"suite {args.suite!r} requires --spec")
    good = psi is None or good_parity(psi).ok
    results: dict = {}
    verdicts: list[dict] = []
    for key, (suite, _needs_spec, needs_good_parity) in VERIFY_SUITES.items():
        if args.suite in (key.replace("_", "-"), "all") and (good or not needs_good_parity):
            results[key], suite_verdicts = suite(psi, s, pair)
            verdicts.extend(suite_verdicts)
    return results, verdicts


# ---------------------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process; ``parse_args``
    keeps no state between calls."""
    parser = argparse.ArgumentParser(
        prog="arthurcomb",
        description="Combinatorics of Arthur packet translation: computations and verifier sweeps.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_command(name, handler, help, spec_required=True):
        p = sub.add_parser(name, help=help)
        p.set_defaults(handler=handler)
        p.add_argument("--format", choices=("json", "text"), default="json")
        p.add_argument("--spec", required=spec_required, help="parameter spec file (JSON)")
        p.add_argument("--offsets", help="comma-separated integer offsets", default=None)
        p.add_argument("--threshold", type=int, default=None)
        p.add_argument("--seed", type=int, default=None)
        return p

    add_command("info", cmd_info, "dimensions, parity, component group")
    add_command("infchar", cmd_infchar, "infinitesimal characters")
    add_command("dominate", cmd_dominate, "build the dominating parameter")
    add_command("translate", cmd_translate, "translation weight data")
    p_pk = add_command("packet", cmd_packet, "translate a packet given its dominating data")
    p_pk.add_argument("--plus-packet", required=True, help="packet data for the dominating parameter")

    p_v = add_command("verify", cmd_verify, "run a verifier sweep", spec_required=False)
    p_v.add_argument("suite", choices=SUITES)
    p_v.add_argument("--trials", type=int, default=None, help="default 100")
    p_v.add_argument("--height-bound", dest="height_bound", type=int, default=None)
    p_v.add_argument("--n", type=int, default=None)
    p_v.add_argument("--mu", default=None, help="comma-separated weight entries")
    p_v.add_argument("--max-entry", dest="max_entry", type=int, default=2)
    p_v.add_argument(
        "--workers",
        type=int,
        default=1,
        help="accepted for compatibility; suites run serially, so reports and timings do not depend on it",
    )
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    title = f"verify {args.suite}" if args.command == "verify" else args.command
    try:
        psi, options = (None, {}) if args.spec is None else parse_spec(args.spec)
        s = resolve_settings(args, options)
        pair = functools.cache(lambda: _domination_pair(psi, s))
        results, verdicts = args.handler(args, psi, s, pair)
        spec = None if psi is None else _psi_payload(psi)
        if args.command == "verify":
            payload = {
                "suite": args.suite,
                "spec": spec,
                "offsets": s.offsets_given,
                "threshold": s.threshold,
                "trials": s.trials,
                "height_bound": s.height_bound,
                "n": args.n,
                "mu": args.mu,
                "max_entry": args.max_entry,
                # a retired option's key, kept so that every verify report's
                # input_hash, pinned by the golden and benchmark digests,
                # stays the same; a re-record of those digests may drop it
                "endo_rank": None,
            }
        else:
            payload = {"command": args.command, "spec": spec}
        emit_report(make_report(title, payload, s.seed, results, verdicts), args.format)
        return 0 if _all_pass(verdicts) else 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        # exit 1 would read as a violation, so running out of memory has a
        # code of its own
        print(f"error: {title} ran out of memory; no verdict was reached", file=sys.stderr)
        return 3
    except BrokenPipeError:
        # the reader closed stdout early; what is left unwritten, and the
        # flush at exit, go to os.devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print("error: stdout was closed before the report was written", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
