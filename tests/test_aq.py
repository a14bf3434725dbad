import gc
import itertools
import pickle
import weakref
from fractions import Fraction
from operator import mul

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arthurcomb import aq, params
from arthurcomb.aq import (
    AqDatum,
    LeviDatum,
    aq_datum,
    enumerate_levis,
    filtration_vanishing,
    lambda_tilde,
    nilradical_roots,
    packet_data,
    range_check,
    translate_packet,
)
from arthurcomb.params import (
    ArthurParameter,
    ClassicalGroup,
    ParameterError,
    ParityError,
    arthur_parameter,
    block,
    canonical_offsets,
    corpus,
    dominate,
    enumerate_parameters,
    good_parity,
    quotient_map,
)
from arthurcomb.weyl import weight
import oracles
from oracles import delta_u

SP2 = ClassicalGroup("Sp", 2)


# --- Levi enumeration --------------------------------------------------------


def test_enumerate_levis_ex1(ex1):
    levis = enumerate_levis(ex1)
    assert len(levis) == 3
    assert [l.unitary_factors for l in levis] == [((0, 2),), ((1, 1),), ((2, 0),)]
    assert all(l.g0 == ClassicalGroup("Sp", 0) for l in levis)


def test_enumerate_levis_signature_constraints():
    # SO(4,3): p_0 = 4 - 2p >= 0 and q_0 = 3 - 2q >= 0 exclude (p,q) = (0,2)
    g = ClassicalGroup("SOodd", 3, (4, 3))
    psi = arthur_parameter(g, [block(1, 2), block(0, 2, "-")])
    assert good_parity(psi).ok
    levis = enumerate_levis(psi)
    assert [l.unitary_factors for l in levis] == [((1, 1),), ((2, 0),)]
    assert levis[0].g0.signature == (2, 1)
    assert levis[1].g0.signature == (0, 3)


def test_enumerate_levis_infeasible_signature():
    # SO(5,1): the factor U(p,q) with p+q=2 needs q=0, p=2, leaving (1,1)
    g = ClassicalGroup("SOodd", 3, (6, 1))
    psi = arthur_parameter(g, [block(1, 2), block(0, 2, "-")])
    levis = enumerate_levis(psi)
    assert [l.unitary_factors for l in levis] == [((2, 0),)]


def test_enumerate_levis_unipotent_parameter():
    psi = arthur_parameter(SP2, [block(0, 5)])
    levis = enumerate_levis(psi)
    assert len(levis) == 1
    assert levis[0].unitary_factors == ()
    assert levis[0].g0 == ClassicalGroup("Sp", 2)


def test_enumerate_levis_requires_signature():
    psi = arthur_parameter(ClassicalGroup("SOodd", 2), [block(0, 2), block(0, 2, "-")])
    with pytest.raises(ParameterError, match="needs a signature"):
        enumerate_levis(psi)


def _every_form(psi):
    """psi, then psi on every real form of its group: Sp(2n,R) has one,
    which psi is on; SO(p,q) is taken with p >= q."""
    g = psi.group
    yield psi
    if g.kind != "Sp":
        for q in range(g.space_dim // 2 + 1):
            yield arthur_parameter(ClassicalGroup(g.kind, g.rank, (g.space_dim - q, q)), psi.blocks)


def _outcome(f, psi):
    try:
        return f(psi)
    except ParameterError as e:
        return type(e), str(e)


def test_enumerate_levis_matches_the_per_levi_oracle_on_every_real_form(monkeypatch):
    """Every corpus parameter unsigned, and on every real form of its
    group (Sp(2n,R); SO(p,q) with p >= q, 4,098 parameter-form pairs, the
    signed corpus among them): the oracle's Levis in its order, or its
    error.  The Levis with one residual signature share one G_0, built
    once: the shape cache is emptied before each call, as a repeated shape
    builds none."""
    built = []

    def counted(*args):
        built.append(args)
        return ClassicalGroup(*args)

    monkeypatch.setattr(aq, "ClassicalGroup", counted)
    pairs = unsigned = refused = 0
    for psi in corpus():
        for p in _every_form(psi):
            pairs += 1
            unsigned += p.group.kind != "Sp" and p.group.signature is None
            built.clear()
            aq._levis.cache_clear()
            levis = _outcome(enumerate_levis, p)
            assert levis == _outcome(oracles.enumerate_levis, p), str(p)
            if not isinstance(levis, list):
                refused += 1
                continue
            g0s = {id(l.g0): l.g0 for l in levis}
            assert len(g0s) == len(set(g0s.values())) == len(built), str(p)
    assert (pairs - unsigned, unsigned) == (4098, 840)
    assert refused > unsigned, "some signed forms must leave no Levi datum"


def test_enumerate_levis_shares_one_list_per_shape_and_returns_a_fresh_list(ex1):
    """Two parameters of one shape (group, a_i, n_0) get equal lists of
    the same LeviDatum objects, and a caller that mutates its list does
    not change the next call's result."""
    other = arthur_parameter(SP2, [block(Fraction(5, 2), 2), block(0, 1)])
    assert other != ex1
    first = enumerate_levis(ex1)
    want = list(first)
    second = enumerate_levis(other)
    assert second == first and second is not first
    assert all(a is b for a, b in zip(first, second))
    first.reverse()
    first.append(first[0])
    second.clear()
    assert enumerate_levis(ex1) == enumerate_levis(other) == want


def test_a_failed_levi_listing_caches_nothing():
    # U(1,0) and U(0,1) each take 2 from one side of SO(1,1); the error
    # repeats and the shape gets no entry
    psi = arthur_parameter(ClassicalGroup("SOeven", 1, (1, 1)), [block(3, 1)])
    before = aq._levis.cache_info().currsize
    for _ in range(2):
        with pytest.raises(ParameterError, match="no Levi datum is compatible"):
            enumerate_levis(psi)
    assert aq._levis.cache_info().currsize == before


# --- Levi data checked against the parameter ----------------------------------

SO43 = ClassicalGroup("SOodd", 3, (4, 3))
SO61 = ClassicalGroup("SOodd", 3, (6, 1))
SO32 = ClassicalGroup("SOodd", 2, (3, 2))


def _one_block_psi(group):
    """ex1 for Sp(4,R); I[1]R[2] + sgn R[2] for SO(p,q) of rank 3."""
    if group.kind == "Sp":
        return arthur_parameter(group, [block(Fraction(3, 2), 2), block(0, 1)])
    return arthur_parameter(group, [block(1, 2), block(0, 2, "-")])


@pytest.mark.parametrize(
    "group, factors, g0, message",
    [
        (SP2, ((5, 5),), ClassicalGroup("Sp", 0), "does not fit discrete block 1"),
        (SP2, ((-1, 3),), ClassicalGroup("Sp", 0), "does not fit discrete block 1"),
        (SP2, ((1, 1), (0, 0)), ClassicalGroup("Sp", 0), "factor count"),
        (SP2, ((1, 1),), ClassicalGroup("SOodd", 0), "kind"),
        (SP2, ((1, 1),), ClassicalGroup("Sp", 1), "rank"),
        (SO43, ((1, 1),), ClassicalGroup("SOodd", 1, (1, 2)), "signature"),
        (SO43, ((1, 1),), ClassicalGroup("SOodd", 1), "signature"),
        (SO61, ((1, 1),), ClassicalGroup("SOodd", 1, (3, 0)), "exceed the signature"),
        (SP2, ((0.5, 1.5),), ClassicalGroup("Sp", 0), "is not a pair of integers"),
        (SP2, ((True, True),), ClassicalGroup("Sp", 0), "is not a pair of integers"),
        (SP2, (("1", 1),), ClassicalGroup("Sp", 0), "is not a pair of integers"),
    ],
)
def test_aq_datum_rejects_levi_not_fitting_parameter(group, factors, g0, message):
    psi = _one_block_psi(group)
    # a kept datum, U(1,1) x G_0 for SP2, answers for no malformed Levi
    aq_datum(psi, enumerate_levis(psi)[0])
    with pytest.raises(ParameterError, match=message):
        aq_datum(psi, LeviDatum(factors, g0))


def test_malformed_unitary_factors_raise_parameter_error():
    """Factors that are not a tuple of pairs of ints are refused with
    ParameterError, never TypeError or a bare ValueError, and after a kept
    datum of the same sizes exists: a list, a triple, an int, and a bool,
    float or string size."""
    psi = _one_block_psi(SP2)
    g0 = ClassicalGroup("Sp", 0)
    aq_datum(psi, LeviDatum(((1, 1),), g0))
    for factors, message in [
        ([(1, 1)], r"unitary factors \[\(1, 1\)\] are not a tuple"),
        (((1, 1, 0),), r"unitary factor \(1, 1, 0\) is not a pair of integers"),
        ((2,), "unitary factor 2 is not a pair of integers"),
        (((True, 1),), r"unitary factor \(True, 1\) is not a pair of integers"),
        (((1.5, 0.5),), r"unitary factor \(1.5, 0.5\) is not a pair of integers"),
        ((("1", 1),), r"unitary factor \('1', 1\) is not a pair of integers"),
    ]:
        with pytest.raises(ParameterError, match=message):
            aq_datum(psi, LeviDatum(factors, g0))


# --- character shifts ----------------------------------------------------------


def test_lambda_tilde_ex1(ex1):
    # t~ = 3/2 + 1/2 + 1 + 0 + 0
    assert lambda_tilde(ex1) == (3,)


def test_lambda_tilde_bad_parity_raises():
    psi = arthur_parameter(SP2, [block(1, 2), block(0, 1)])
    with pytest.raises(ParityError, match="t~_1 = 5/2 is not an integer"):
        lambda_tilde(psi)


def test_lambda_tilde_so_odd_case():
    # t = 1/2, a = 1, n_0 = 1, no later blocks: 1/2 + 0 + 1/2 + 0 + 1 = 2
    g = ClassicalGroup("SOodd", 2)
    psi = arthur_parameter(g, [block(Fraction(1, 2), 1), block(0, 2, "-")])
    assert lambda_tilde(psi) == (2,)


def test_lambda_tilde_integrality_iff_good_parity():
    for g in (SP2, ClassicalGroup("SOodd", 2), ClassicalGroup("SOeven", 2)):
        for psi in enumerate_parameters(g):
            assert good_parity(psi).ok
            assert all(type(v) is int for v in lambda_tilde(psi))


def test_lambda_tilde_is_positive_and_strictly_decreasing():
    """The premise of ``cert_weight_pairing`` holding for every parameter:
    each nilradical root pairs with the shifts as a difference t~_i - t~_j
    (i < j), a single shift or a sum of two, so all are positive."""
    checked = 0
    for kind in ("Sp", "SOodd", "SOeven"):
        for rank in range(1, 7):
            for psi in enumerate_parameters(ClassicalGroup(kind, rank), Fraction(11, 2), 6):
                shifts = lambda_tilde(psi)
                assert all(t > 0 for t in shifts), str(psi)
                assert all(s > t for s, t in zip(shifts, shifts[1:])), str(psi)
                checked += 1
    assert checked == 41386


# --- layout and delta(u) ---------------------------------------------------------


def test_delta_u_matches_shift_formula():
    # the per-coordinate half sum equals (a_i-1)/2 + eps_G + sum_{j>i} a_j + n_0
    eps = {"Sp": Fraction(1), "SOodd": Fraction(1, 2), "SOeven": Fraction(0)}
    cases = [
        ((2,), 0, "Sp"),
        ((1, 2), 1, "Sp"),
        ((2, 1), 1, "SOodd"),
        ((1, 1, 1), 0, "SOeven"),
        ((3,), 2, "SOeven"),
    ]
    for a_list, n0, kind in cases:
        du = delta_u(a_list, n0, kind)
        coords = [Fraction(d, 2) for d in du.doubled]
        pos = 0
        for i, a in enumerate(a_list):
            expected = Fraction(a - 1, 2) + eps[kind] + sum(a_list[i + 1 :]) + n0
            for _ in range(a):
                assert coords[pos] == expected
                pos += 1
        assert all(c == 0 for c in coords[pos:])


def test_nilradical_excludes_levi_roots():
    roots = nilradical_roots((2,), 1, "Sp")
    doubles = {r.doubled for r in roots}
    assert (2, -2, 0) not in doubles  # inside gl(2)
    assert (0, 0, 4) not in doubles  # inside sp of the residual factor
    assert (2, 2, 0) in doubles
    assert (4, 0, 0) in doubles
    assert (2, 0, -2) in doubles and (2, 0, 2) in doubles


# --- range check ------------------------------------------------------------------


def test_range_check_ex1_dominating(ex1):
    plus = dominate(ex1, [5])
    for levi in enumerate_levis(plus):
        assert range_check(aq_datum(plus, levi)).verdict == "good"


def test_range_check_ex1_translated(ex1):
    # nu_psi = (2,1) is regular, so the translated datum still sits in the
    # good range; weak fairness appears exactly when expanded blocks share t
    for levi in enumerate_levis(ex1):
        assert range_check(aq_datum(ex1, levi)).verdict == "good"


def test_range_check_weakly_fair_on_equal_shifts():
    g = ClassicalGroup("SOodd", 2, (3, 2))
    psi = arthur_parameter(g, [block(Fraction(1, 2), 1, mult=2)])
    levis = enumerate_levis(psi)
    verdicts = {range_check(aq_datum(psi, levi)).verdict for levi in levis}
    assert verdicts == {"weakly_fair"}


def test_range_check_negative_shift_is_neither(ex1):
    d = aq_datum(ex1, enumerate_levis(ex1)[1])
    mutated = AqDatum(d.levi, (-3,), d.sigma)
    assert range_check(mutated).verdict == "neither"


def test_range_check_no_discrete_blocks_is_good():
    psi = arthur_parameter(SP2, [block(0, 5)])
    d = aq_datum(psi, enumerate_levis(psi)[0])
    assert range_check(d).verdict == "good"


def test_range_check_is_shared_by_the_levi_data_of_a_parameter():
    # range_check reads only the layout and the shifts, which all Levi data
    # of one parameter share, so `verify filtration` checks one datum
    checked = 0
    for psi in corpus(signed=True):
        plus = dominate(psi, canonical_offsets(psi))
        for side in (plus, psi):
            results = [range_check(aq_datum(side, levi)) for levi in enumerate_levis(side)]
            assert all(r == results[0] for r in results), str(side)
            checked += 1
    assert checked == 2 * 1072


# --- filtration vanishing -----------------------------------------------------------


def test_filtration_ex1_specific_layer(ex1):
    plus = dominate(ex1, [5])
    levi = enumerate_levis(plus)[1]  # U(1,1) x Sp(0)
    d_plus = aq_datum(plus, levi)
    report = filtration_vanishing(d_plus, ex1, height_bound=6)
    assert report.passed
    assert not report.truncated
    assert report.violations == ()
    # the mu_1 = (1,1) layer: |lambda + mu_1 + delta|^2 = 32.5 > 18.5
    layer = [i for i in report.items if i.mu.doubled[:2] == weight([1, 1]).doubled]
    assert layer
    item = layer[0]
    assert item.norm_without == Fraction(37, 2)
    assert item.norm_with == Fraction(65, 2)
    assert item.pairing_lambda >= 0 and item.pairing_delta >= 0


def test_filtration_certificates(ex1):
    plus = dominate(ex1, [5])
    d_plus = aq_datum(plus, enumerate_levis(plus)[0])
    report = filtration_vanishing(d_plus, ex1, height_bound=4)
    assert report.cert_weight_pairing
    assert report.cert_unitary_support
    # mu = 0 is skipped: every enumerated layer is nonzero
    assert all(any(i.mu.doubled) for i in report.items)


def test_filtration_requires_good_range(ex1):
    d = aq_datum(ex1, enumerate_levis(ex1)[1])
    bad = AqDatum(d.levi, (-3,), d.sigma)
    with pytest.raises(ParameterError):
        filtration_vanishing(bad, ex1, height_bound=max(d.t_tilde))


def test_filtration_rejects_parameter_not_fitting_the_levi():
    # the Levi U(0,2) x Sp(2,R) of psi_+ has one unitary factor, as psi's
    # one discrete block has, but that block has size 1
    g = ClassicalGroup("Sp", 3)
    other = arthur_parameter(g, [block(Fraction(3, 2), 2), block(0, 3)])
    plus = dominate(other, canonical_offsets(other))
    d_plus = aq_datum(plus, enumerate_levis(plus)[0])
    psi = arthur_parameter(g, [block(1, 1), block(0, 5)])
    with pytest.raises(ParameterError, match=r"U\(0,2\) does not fit discrete block 1 of size 1"):
        filtration_vanishing(d_plus, psi, height_bound=4)


def test_filtration_at_height_max_t_tilde(ex1):
    plus = dominate(ex1, [5])
    d_plus = aq_datum(plus, enumerate_levis(plus)[0])
    report = filtration_vanishing(d_plus, ex1, height_bound=max(d_plus.t_tilde))
    assert report.height_bound == max(d_plus.t_tilde)
    assert report.passed


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.integers(1, 4), min_size=1, max_size=4).flatmap(
        lambda a_list: st.tuples(*[st.lists(st.integers(-6, 6), min_size=a, max_size=a) for a in a_list])
    )
)
def test_levi_dominance_gives_nonnegative_delta_pairing(blocks):
    """The Abel-summation step behind ``pairing_delta >= 0``: mu_1 that does
    not increase inside any gl block pairs non-negatively with delta_L1."""
    mu1 = [v for blk in blocks for v in sorted(blk, reverse=True)]
    # doubled delta_L1: the sum of the positive roots e_s - e_t (s < t) of each block
    delta = [0] * len(mu1)
    start = 0
    for blk in blocks:
        for s in range(start, start + len(blk)):
            for t in range(s + 1, start + len(blk)):
                delta[s] += 1
                delta[t] -= 1
        start += len(blk)
    assert sum(map(mul, delta, mu1)) >= 0


# --- packet translation ---------------------------------------------------------------


def test_translate_packet_ex1(ex1, full_packet):
    plus = dominate(ex1, [5])
    pk = full_packet(plus)
    result = translate_packet(pk, ex1)
    assert result.quotient.kernel_order == 1
    assert result.vanishing == ()
    assert len(result.packet.entries) == len(pk.entries)
    for datum, _eps in result.packet.entries:
        assert datum.t_tilde == (3,)
        assert range_check(datum).verdict in ("good", "weakly_fair")


def test_translate_packet_zero_offsets_is_identity(full_packet):
    psi = arthur_parameter(SP2, [block(Fraction(11, 2), 2), block(0, 1)])
    pk = full_packet(psi)
    result = translate_packet(pk, psi)
    assert result.packet == pk
    assert result.vanishing == ()


def test_translate_packet_kernel_vanishing(full_packet):
    g = ClassicalGroup("SOodd", 2, (3, 2))
    psi = arthur_parameter(g, [block(Fraction(1, 2), 1, mult=2)])
    plus = dominate(psi, canonical_offsets(psi))
    pk = full_packet(plus)
    result = translate_packet(pk, psi)
    assert result.quotient.kernel_order == 2
    assert result.vanishing  # characters separating the merged copies drop
    kept = len(result.packet.entries)
    assert kept + len(result.vanishing) == len(pk.entries)
    # exactly the characters with unequal values on the two copies vanish
    for _datum, eps in result.vanishing:
        assert eps[0] != eps[1]


def test_translate_packet_matches_the_per_entry_oracle(full_packet):
    """On every criterion-7 packet of the signed corpus, translated to psi_+
    and to psi, the entries, the vanishing entries and their order equal
    those of the oracle that pushes every entry's character on its own."""
    vanishing = 0
    for psi in corpus(signed=True):
        plus = dominate(psi, canonical_offsets(psi))
        pk = full_packet(plus)
        for target in (plus, psi):
            got = translate_packet(pk, target)
            assert got == oracles.translate_packet(pk, target), (str(psi), str(target))
            vanishing += len(got.vanishing)
    assert vanishing


def test_translate_packet_repeated_and_list_characters():
    """A packet that repeats each character, apart and across data, and
    one whose characters are lists, translate as the per-entry oracle
    does; a character that holds a list raises ParameterError on both."""
    g = ClassicalGroup("SOodd", 2, (3, 2))
    psi = arthur_parameter(g, [block(Fraction(1, 2), 1, mult=2)])
    plus = dominate(psi, canonical_offsets(psi))
    data = [aq_datum(plus, levi) for levi in enumerate_levis(plus)]
    chars = params.component_group(plus).characters()
    repeated = aq.PacketData(plus, tuple((d, c) for c in chars + chars[::-1] for d in data))
    listed = aq.PacketData(plus, tuple((d, list(c)) for d in data for c in chars))
    for pk in (repeated, listed):
        got = translate_packet(pk, psi)
        assert got == oracles.translate_packet(pk, psi) and got.vanishing
    for bad in ([[1], [1]], [1, [-1]]):
        pk = aq.PacketData(plus, ((data[0], chars[0]), (data[0], bad)))
        for translate in (translate_packet, oracles.translate_packet):
            with pytest.raises(ParameterError, match="character values must be"):
                translate(pk, psi)


def _leaky_push_character(self, values_plus):
    """``QuotientMap.push_character`` with a wrong descent rule: a character
    that is not constant on a fiber of two blocks descends, as -1 there,
    in place of vanishing."""
    c = params._mask(values_plus, len(self.source.basis), params._CHARACTER_ERROR)
    out = 0
    for f in self.fibers:
        part = c & f
        if part and part != f and f.bit_count() != 2:
            return None
        out = out << 1 | (part != 0)
    return params._signs(min(out, out ^ self.target.odd), len(self.fibers))


@pytest.mark.parametrize("leaky", [False, True])
def test_full_packet_check_fails_on_a_wrong_descent(monkeypatch, translates_to_full_packet, leaky):
    """Criterion 7's full-packet check passes on the first 30 corpus
    parameters, and fails on 4 of them when a character that is not
    constant on a 2-element fiber descends."""
    if leaky:
        monkeypatch.setattr(params.QuotientMap, "push_character", _leaky_push_character)
    failures = sum(
        not translates_to_full_packet(dominate(psi, canonical_offsets(psi)), psi)
        for psi in itertools.islice(corpus(signed=True), 30)
    )
    assert failures == (4 if leaky else 0)


def test_translate_packet_rejects_mismatched_shifts(ex1):
    plus = dominate(ex1, [5])
    d = aq_datum(plus, enumerate_levis(plus)[0])
    wrong = AqDatum(d.levi, (4,), d.sigma)
    pk = packet_data(plus, [(wrong, (1, 1))])
    with pytest.raises(ParameterError, match=r"entry shifts \(4,\) do not match"):
        translate_packet(pk, ex1)


SP4_TWO_COPIES = arthur_parameter(SP2, [block(3, 1, mult=2), block(0, 1)])


@pytest.mark.parametrize(
    "psi, levi, message",
    [
        pytest.param(
            SP4_TWO_COPIES, LeviDatum(((1, 0),), ClassicalGroup("Sp", 0)), "factor count",
            id="one-factor-for-two-blocks",
        ),
        pytest.param(
            SP4_TWO_COPIES, LeviDatum(((1, 0), (1, 0)), ClassicalGroup("Sp", 1)), "rank",
            id="g0-rank-1-where-0-is-left",
        ),
        pytest.param(
            arthur_parameter(SO32, [block(Fraction(7, 2), 1), block(0, 2)]),
            LeviDatum(((0, 1),), ClassicalGroup("SOodd", 1, (0, 3))),
            "signature",
            id="g0-so03-where-so30-is-left",
        ),
    ],
)
def test_translate_packet_rejects_levi_not_fitting_the_dominating_parameter(psi, levi, message):
    """A datum with psi_+'s shifts and a Levi that does not fit psi_+ is
    refused as ``aq_datum`` refuses it, with every character of A(psi_+)."""
    plus = dominate(psi, canonical_offsets(psi))
    datum = AqDatum(levi, lambda_tilde(plus), "sigma")
    pk = packet_data(plus, [(datum, eps) for eps in params.component_group(plus).characters()])
    with pytest.raises(ParameterError, match=message):
        translate_packet(pk, psi)


def test_kept_values_leave_the_parameter_as_it_was_and_die_with_it(full_packet):
    """What the packet path keeps on psi and psi_+ changes neither their
    ==, hash, repr nor pickle, and is freed with them: no module-level
    cache holds a parameter, a component group or a quotient map (the
    tables of groups and maps are keyed by their shape, in ints), and the
    kept values make no reference cycle, so the parameters, their groups
    and their maps go as soon as the last reference does."""
    g = ClassicalGroup("SOodd", 2, (3, 2))
    psi = arthur_parameter(g, [block(Fraction(1, 2), 1, mult=2)])
    plus = dominate(psi, canonical_offsets(psi))
    pk = full_packet(plus)
    results = [translate_packet(pk, plus), translate_packet(pk, psi)]
    results.append(quotient_map(plus, psi).kernel())
    assert results[1].vanishing
    for p in (psi, plus):
        fresh = ArthurParameter(p.group, p.blocks)
        assert vars(p) != vars(fresh)  # something is kept
        assert (p, hash(p), repr(p)) == (fresh, hash(fresh), repr(fresh))
        back = pickle.loads(pickle.dumps(p))
        assert back == p and vars(back) == vars(fresh)
    groups_and_maps = (
        params.component_group(psi), params.component_group(plus),
        quotient_map(plus, psi), quotient_map(plus, plus),
    )
    refs = [weakref.ref(x) for x in (psi, plus, *groups_and_maps)]
    gc.disable()
    try:
        del psi, plus, pk, results, p, fresh, back, groups_and_maps
        assert [r() for r in refs] == [None] * 6
    finally:
        gc.enable()
    gc.collect()
    assert [r() for r in refs] == [None] * 6

