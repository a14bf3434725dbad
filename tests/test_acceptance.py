"""Acceptance suite: one test per criterion, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines.  The corpus is ``params.corpus``: every good-parity parameter with
n* <= 8 built from blocks with t <= 7/2 and a <= 4, over all three group
kinds.
"""

import json
import random
import time
from fractions import Fraction

from arthurcomb import aq
from arthurcomb.aq import (
    FILTRATION_STATE_CAP,
    aq_datum,
    enumerate_levis,
    filtration_vanishing,
    lambda_tilde,
    range_check,
    translate_packet,
)
from arthurcomb.params import (
    ClassicalGroup,
    ParityError,
    arthur_parameter,
    block,
    canonical_offsets,
    corpus,
    dominate,
    g_inf_char,
    good_parity,
    quotient_map,
)
from arthurcomb.torus import transfer_infchar, uniqueness_check
from arthurcomb.twisted import (
    kostant_theta_invariance,
    theta_invariant_dominant_weights,
    verify_transfer_identities,
)
from arthurcomb.weyl import Weight, norm_sq, weight

SEED = 20260810


def report(num: int, ok: bool, detail: str) -> None:
    print(f"CRITERION {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def test_criterion_1_orbit_uniqueness():
    start = time.time()
    checked = 0
    nodes = 0
    failures = []
    for psi in corpus():
        plus = dominate(psi, canonical_offsets(psi))
        rep = uniqueness_check(psi, plus)
        if not rep.unique:
            failures.append(str(psi))
        checked += 1
        nodes += rep.nodes
    elapsed = time.time() - start
    # the corpus, and the search over it, visit exactly these
    ok = not failures and (checked, nodes) == (1072, 7528) and elapsed <= 300
    report(
        1,
        ok,
        f"orbit uniqueness over {checked} parameters, {len(failures)} failures, "
        f"{nodes} search nodes, {elapsed:.1f}s (budget 300s)",
    )


def test_criterion_2_twisted_trace_identity():
    start = time.time()
    worst = 0.0
    count = 0
    for n in range(1, 7):
        for residual in verify_transfer_identities(
            list(theta_invariant_dominant_weights(n, 3)), trials=100, seed=SEED
        ):
            worst = max(worst, residual)
            count += 1
    elapsed = time.time() - start
    ok = worst <= 1e-9 and elapsed <= 120
    report(
        2,
        ok,
        f"twisted trace identity on {count} weights, max residual {worst:.2e} "
        f"(tol 1e-9), {elapsed:.1f}s (budget 120s)",
    )


def test_criterion_3_kostant_theta_invariance():
    bad = [
        (n, str(mu))
        for n in range(1, 7)
        for mu in theta_invariant_dominant_weights(n, 3)
        if not kostant_theta_invariance(n, mu)
    ]
    count = sum(1 for n in range(1, 7) for _ in theta_invariant_dominant_weights(n, 3))
    report(3, not bad, f"Kostant representatives theta-fixed on {count} weights, exact")


def test_criterion_4_parity_integrality_equivalence():
    rng = random.Random(SEED)
    trials = 10_000
    fillers = {
        # good-parity padding so the random discrete block decides everything
        "Sp": lambda a: (ClassicalGroup("Sp", a), [block(0, 1)]),
        "SOodd": lambda a: (ClassicalGroup("SOodd", a + 1), [block(0, 2, "-")]),
        "SOeven": lambda a: (ClassicalGroup("SOeven", a + 1), [block(0, 1, mult=2)]),
    }
    mismatches = 0
    for kind in ("Sp", "SOodd", "SOeven"):
        for _ in range(trials):
            t = Fraction(rng.randint(1, 7), 2)
            a = rng.randint(1, 6)
            group, filler = fillers[kind](a)
            psi = arthur_parameter(group, [block(t, a)] + filler)
            try:
                lambda_tilde(psi)
                integral = True
            except ParityError:
                integral = False
            if good_parity(psi).ok != integral:
                mismatches += 1
    report(
        4,
        mismatches == 0,
        f"good parity <=> integral shifts on {3 * trials} random blocks, "
        f"{mismatches} mismatches (exact)",
    )


def test_criterion_5_norm_doubling():
    rng = random.Random(SEED)
    trials = 10_000
    groups = [
        ClassicalGroup("Sp", 2),
        ClassicalGroup("SOodd", 3),
        ClassicalGroup("SOeven", 4),
    ]
    bad = 0
    for i in range(trials):
        g = groups[i % len(groups)]
        nu = g_inf_char(
            g.gside_type(),
            weight([Fraction(rng.randint(-20, 20), 2) for _ in range(g.rank)]),
        )
        gl = transfer_infchar(nu, g)
        if norm_sq(Weight(gl.doubled)) != 2 * norm_sq(nu.weight):
            bad += 1
    report(5, bad == 0, f"norm doubling exact on {trials} random characters, {bad} failures")


def test_criterion_6_filtration_vanishing():
    aq._layout_sweep.cache_clear()  # so that the sweep counts below are the corpus's own
    start = time.time()
    violations = 0
    cert_failures = 0
    range_failures = 0
    truncated = 0
    states = 0
    dominant = 0
    checked = 0
    for psi in corpus(signed=True):
        offs = canonical_offsets(psi)
        plus = dominate(psi, offs)
        levis = enumerate_levis(plus)
        for levi in levis:
            if range_check(aq_datum(plus, levi)).verdict != "good":
                range_failures += 1
            if range_check(aq_datum(psi, levi)).verdict not in ("good", "weakly_fair"):
                range_failures += 1
        rep = filtration_vanishing(
            aq_datum(plus, levis[0]), psi, height_bound=2 * max(offs, default=0)
        )
        violations += len(rep.violations)
        truncated += rep.truncated
        states += rep.enumerated
        dominant += rep.dominant_count
        if not (rep.cert_weight_pairing and rep.cert_unitary_support):
            cert_failures += 1
        checked += 1
    elapsed = time.time() - start
    sweeps = aq._layout_sweep.cache_info()
    ok = violations == 0 and cert_failures == 0 and range_failures == 0
    report(
        6,
        ok,
        f"filtration vanishing over {checked} parameters at height 2*max(T): "
        f"{violations} norm violations, {cert_failures} certificate failures, "
        f"{range_failures} range failures, {truncated} stopped at the "
        f"{FILTRATION_STATE_CAP}-state cap, {states} monoid states of which "
        f"{dominant} dominant, {sweeps.misses} layout sweeps run and "
        f"{sweeps.hits} reused, {elapsed:.1f}s",
    )
    assert (truncated, states, dominant) == (421, 25_780_366, 12_931_459)
    assert (sweeps.misses, sweeps.hits) == (151, 787)


def test_criterion_7_translation_round_trip(full_packet, translates_to_full_packet):
    start = time.time()
    identity_failures = 0
    count_failures = 0
    packet_failures = 0
    kernel_failures = 0
    checked = 0
    for psi in corpus(signed=True):
        plus = dominate(psi, canonical_offsets(psi))
        pk_plus = full_packet(plus)
        # T = 0: translating the dominating packet to itself is the identity
        result0 = translate_packet(pk_plus, plus)
        if result0.packet != pk_plus or result0.vanishing:
            identity_failures += 1
        # T > 0: entry count is preserved up to annotated vanishing entries
        result = translate_packet(pk_plus, psi)
        if len(result.packet.entries) + len(result.vanishing) != len(pk_plus.entries):
            count_failures += 1
        # the full packet of psi_+ translates to the full packet of psi
        if not translates_to_full_packet(plus, psi):
            packet_failures += 1
        qm = quotient_map(plus, psi)
        image = {qm.push(s) for s in qm.source.elements}
        if image != set(qm.target.elements):
            kernel_failures += 1
        if qm.kernel_order * qm.target.order != qm.source.order:
            kernel_failures += 1
        if len(qm.kernel()) != qm.kernel_order:
            kernel_failures += 1
        checked += 1
    elapsed = time.time() - start
    ok = identity_failures == count_failures == packet_failures == kernel_failures == 0
    report(
        7,
        ok,
        f"packet translation over {checked} parameters: {identity_failures} identity, "
        f"{count_failures} count, {packet_failures} full-packet, {kernel_failures} "
        f"quotient failures, {elapsed:.1f}s",
    )


def test_criterion_8_cli_determinism(tmp_path, run_cli):
    spec = {
        "group": {"kind": "Sp", "rank": 2},
        "blocks": [{"t": "3/2", "a": 2}, {"t": "0", "a": 1}],
        "options": {},
    }
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))

    commands = [
        ["verify", "all", "--spec", str(path), "--seed", "7"],
        ["verify", "twisted-trace", "--n", "4", "--trials", "50", "--seed", "3"],
    ]
    mismatches = 0
    for cmd in commands:
        first = run_cli(cmd + ["--workers", "1"])
        second = run_cli(cmd + ["--workers", "1"])
        workers = run_cli(cmd + ["--workers", "2"])
        if not (first.stdout == second.stdout == workers.stdout):
            mismatches += 1
        if first.returncode != 0:
            mismatches += 1
    report(
        8,
        mismatches == 0,
        f"byte-identical reports across reruns and worker counts for {len(commands)} commands",
    )
