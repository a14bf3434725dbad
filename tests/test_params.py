import copy
import gc
import itertools
import pickle
import random
import re
import weakref
from fractions import Fraction

import pytest

from arthurcomb import params
from arthurcomb.params import (
    ArthurParameter,
    Block,
    ClassicalGroup,
    DimensionError,
    DominationError,
    ParameterError,
    ParityError,
    _CORPUS_RANKS,
    _block_parity,
    _kept,
    _nu_display_doubled,
    _parity_ok,
    _quasi_split_form,
    arthur_parameter,
    block,
    canonical_offsets,
    component_group,
    corpus,
    dimension,
    dominate,
    domination_offsets,
    endoscopic_split,
    enumerate_parameters,
    gl_inf_char,
    good_parity,
    inf_char,
    quotient_map,
    very_regular_threshold,
)
from arthurcomb.torus import uniqueness_check
import oracles
from oracles import quasi_split

SP2 = ClassicalGroup("Sp", 2)
SO_ODD2 = ClassicalGroup("SOodd", 2)
SP3 = ClassicalGroup("Sp", 3)


def so_odd(rank, signature=None):
    return ClassicalGroup("SOodd", rank, signature)


# --- groups and dimensions --------------------------------------------------


def test_dual_dimensions():
    assert SP2.dual_dim == 5
    assert so_odd(3).dual_dim == 6
    assert ClassicalGroup("SOeven", 3).dual_dim == 6


def test_kind_table_equals_the_if_chains():
    """Every rule read from ``params._KINDS`` equals the if chain it
    replaced (``oracles``), for every kind at ranks 0-5, unsigned and on
    every signature: the dimensions, dual type, eps_G and Weyl family, the
    parity row of each block with t <= 4 and a <= 6, and the factor group
    (or its error) of every dual dimension up to n* + 2."""
    blocks = [Block(t2, a, eta) for t2 in range(9) for a in range(1, 7) for eta in (1, -1)]
    groups = []
    for kind, rank in itertools.product(("Sp", "SOodd", "SOeven"), range(6)):
        groups.append(ClassicalGroup(kind, rank))
        if kind != "Sp":
            dim = groups[-1].space_dim
            groups += [ClassicalGroup(kind, rank, (p, dim - p)) for p in range(dim + 1)]
    for g in groups:
        rules = {
            "space_dim": g.space_dim,
            "dual_dim": g.dual_dim,
            "dual_symplectic": g.dual_symplectic,
            "epsilon_g2": g.epsilon_g2,
            "gside_type": g.gside_type(),
        }
        expected = oracles.kind_rules(g)
        assert rules == expected
        assert list(map(type, rules.values())) == list(map(type, expected.values()))
        for b in blocks:
            row = params._block_parity(g, b)
            assert (row.ok, row.reason) == oracles.block_parity(g, b)
        for dual_dim in range(g.dual_dim + 3):
            outcomes = []
            for factor_group in (params._factor_group, oracles.factor_group):
                try:
                    outcomes.append(factor_group(g, dual_dim))
                except ParameterError as exc:
                    outcomes.append(str(exc))
            assert outcomes[0] == outcomes[1]


def test_kind_must_be_a_known_string():
    for kind in ("Spin", "", ["Sp"], {"Sp": 1}, None, 1):
        with pytest.raises(ParameterError, match="unknown kind"):
            ClassicalGroup(kind, 2)


@pytest.mark.parametrize("rank", [2.5, 2.0, True, "2", None, Fraction(2)], ids=repr)
def test_rank_must_be_an_int(rank):
    for kind in ("Sp", "SOodd", "SOeven"):
        with pytest.raises(ParameterError, match=re.escape(f"rank {rank!r} is not an integer")):
            ClassicalGroup(kind, rank)


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: block(1, 1.5), "must be integers, got 2, 1.5, 1"),
        (lambda: Block(2.5, 1), "must be integers, got 2.5, 1, 1"),
        (lambda: Block(2, True), "must be integers, got 2, True, 1"),
        (lambda: Block(2, 1, mult=2.0), "must be integers, got 2, 1, 2.0"),
        (lambda: Block("2", 1), "must be integers, got '2', 1, 1"),
        (lambda: block("x", 1), "'x' is not a half-integer"),
        (lambda: block(None, 1), "None is not a half-integer"),
        (lambda: so_odd(1, (1.5, 1.5)), "signature (1.5, 1.5) is not a pair of integers"),
        (lambda: so_odd(1, ("a", "b")), "signature ('a', 'b') is not a pair of integers"),
        (lambda: so_odd(1, (1,)), "signature (1,) is not a pair of integers"),
        (lambda: ArthurParameter(SP2, [block(0, 1, mult=5)]), "are not a tuple"),
        (lambda: Block(0, 1, eta=True), "eta must be +1 or -1, got True"),
        (lambda: Block(0, 1, eta=1.0), "eta must be +1 or -1, got 1.0"),
        (lambda: block(True, 1), "True is not a half-integer"),
    ],
    ids=[
        "block-a-float",
        "t2-float",
        "a-bool",
        "mult-float",
        "t2-str",
        "block-t-str",
        "block-t-none",
        "signature-floats",
        "signature-strs",
        "signature-short",
        "blocks-list",
        "eta-bool",
        "eta-float",
        "block-t-bool",
    ],
)
def test_library_inputs_of_the_wrong_type_raise_parameter_error(make, message):
    with pytest.raises(ParameterError, match=re.escape(message)):
        make()


def test_quasi_split():
    assert quasi_split(SP2) is True
    assert quasi_split(so_odd(2, (3, 2))) is True
    assert quasi_split(so_odd(2, (5, 0))) is False
    assert quasi_split(ClassicalGroup("SOeven", 2, (2, 2))) is True
    assert quasi_split(so_odd(2)) is None


def test_dimension_ex1(ex1):
    assert dimension(ex1) == 5


def test_dimension_mismatch_rejected():
    with pytest.raises(DimensionError):
        arthur_parameter(so_odd(3), [block(0, 7)])


def test_dimension_two_discrete_blocks():
    psi = arthur_parameter(
        so_odd(2), [block(Fraction(1, 2), 1), block(Fraction(3, 2), 1)]
    )
    assert dimension(psi) == 4


def test_blocks_merge_and_sort():
    psi = arthur_parameter(
        so_odd(2), [block(Fraction(1, 2), 1), block(Fraction(1, 2), 1)]
    )
    assert len(psi.blocks) == 1
    assert psi.blocks[0].mult == 2
    assert psi.discrete == ((1, 1), (1, 1))


def test_parameter_rejects_repeated_keys_before_their_order():
    one, half, triv = block(1, 1), block(Fraction(1, 2), 1), block(0, 1)
    assert ArthurParameter(so_odd(2), (one, half)).blocks == (one, half)
    with pytest.raises(ParameterError, match="duplicate blocks"):
        ArthurParameter(so_odd(2), (half, half))
    with pytest.raises(ParameterError, match="duplicate blocks"):
        ArthurParameter(SP2, (triv, one, triv, triv))
    with pytest.raises(ParameterError, match="canonical order"):
        ArthurParameter(so_odd(2), (half, one))


# --- good parity -------------------------------------------------------------


def test_good_parity_ex1(ex1):
    rep = good_parity(ex1)
    assert rep.ok
    assert all(r.ok for r in rep.blocks)


def test_good_parity_fails_on_half_shift():
    psi = arthur_parameter(SP2, [block(1, 2), block(0, 1)])
    rep = good_parity(psi)
    assert not rep.ok
    bad = [r for r in rep.blocks if not r.ok]
    assert len(bad) == 1
    assert bad[0].block.t == 1


def test_good_parity_unipotent_table():
    psi = arthur_parameter(SO_ODD2, [block(0, 2, "+"), block(0, 2, "-")])
    assert good_parity(psi).ok
    # odd a on a symplectic dual is bad
    psi_bad = arthur_parameter(SO_ODD2, [block(0, 3, "+"), block(0, 1, "+")])
    assert not good_parity(psi_bad).ok


def test_good_parity_so_odd_discrete():
    # SOodd wants t + (a-1)/2 half-odd
    psi = arthur_parameter(so_odd(1), [block(Fraction(1, 2), 1)])
    assert good_parity(psi).ok
    psi_bad = arthur_parameter(so_odd(1), [block(1, 1)])
    assert not good_parity(psi_bad).ok


def old_block_parity_reason(group, b):
    """The reason text as it was built, through ``Fraction``."""
    if b.t2 > 0:
        val2 = b.t2 + (b.a - 1)
        want_odd = group.kind == "SOodd"
        ok = (val2 % 2 == 1) if want_odd else (val2 % 2 == 0)
        kindname = "half-odd" if want_odd else "integral"
        return f"t+(a-1)/2 = {Fraction(val2, 2)} {'is' if ok else 'is not'} {kindname}"
    if group.dual_symplectic:
        return f"a = {b.a} {'is' if b.a % 2 == 0 else 'is not'} even (symplectic dual)"
    return f"a = {b.a} {'is' if b.a % 2 == 1 else 'is not'} odd (orthogonal dual)"


def test_block_parity_reasons_equal_fraction_text():
    cases = [(psi.group, b) for psi in corpus() for b in psi.blocks]
    cases += [
        (ClassicalGroup(kind, 2), Block(t2, a))
        for kind in ("Sp", "SOodd", "SOeven")
        for t2 in range(16)
        for a in range(1, 9)
    ]
    for group, b in cases:
        assert _block_parity(group, b).reason == old_block_parity_reason(group, b), (group, b)


def _corpus_and_plus():
    """Every corpus parameter, each followed by its psi_+ at the canonical
    offsets."""
    for psi in corpus():
        yield psi
        yield dominate(psi, canonical_offsets(psi))


def _wide_block_parameters():
    """Every parameter of the corpus groups with t <= 11/2 and a <= 8, of
    good parity or not: both wide-block corpora (a <= 8, and t <= 11/2
    with a <= 8) and every parameter with a bad block among them."""
    for kind, ranks in _CORPUS_RANKS:
        for rank in ranks:
            yield from oracles.every_parameter(ClassicalGroup(kind, rank), Fraction(11, 2), 8)


def test_parity_verdict_and_report_equal_the_reason_building_oracle():
    """The verdict the guards read, the report's verdict and its rows equal
    the oracle's verdict read off rows built with their reasons, on the
    corpus with each psi_+ and on the wide-block parameters.  The bare
    verdict is read first, on a parameter with nothing kept."""
    checked = bad = 0
    for psi in itertools.chain(_corpus_and_plus(), _wide_block_parameters()):
        ok, rows = oracles.good_parity(psi)
        assert _parity_ok(psi) is ok, str(psi)
        rep = good_parity(psi)
        assert rep.ok is ok, str(psi)
        assert [tuple(row) for row in rep.blocks] == rows, str(psi)
        checked += 1
        bad += not ok
    assert (checked, bad) == (2 * 1072 + 17866, 15460)


# --- infinitesimal characters -----------------------------------------------


def test_gl_exponents_equal_the_generator_oracle():
    """The exponents from ranges equal those one generator step at a time,
    on the corpus with each psi_+ and on the wide-block parameters."""
    for psi in itertools.chain(_corpus_and_plus(), _wide_block_parameters()):
        assert _nu_display_doubled(psi) == oracles.nu_display_doubled(psi), str(psi)



def test_inf_char_ex1(ex1):
    gl = inf_char(ex1, "GL")
    assert gl.entries == (2, 1, 0, -1, -2)
    g = inf_char(ex1, "G")
    assert g.entries == (2, 1)
    assert ex1.group.gside_type().family == "C"


def test_inf_char_single_principal_block():
    psi = arthur_parameter(SP2, [block(0, 5)])
    assert inf_char(psi, "GL").entries == (2, 1, 0, -1, -2)
    assert inf_char(psi, "G").entries == (2, 1)


def test_inf_char_negation_symmetric_everywhere():
    for psi in enumerate_parameters(so_odd(2)):
        entries = inf_char(psi, "GL").entries
        assert sorted(-e for e in entries) == sorted(entries)


# --- dominate ----------------------------------------------------------------


def test_dominate_ex1(ex1):
    plus = dominate(ex1, [5])
    assert plus.discrete == ((13, 2),)
    assert plus.unipotent == ex1.unipotent
    assert dimension(plus) == dimension(ex1)
    assert good_parity(plus).ok


def test_dominate_identity_when_already_regular():
    psi = arthur_parameter(SP2, [block(Fraction(11, 2), 2), block(0, 1)])
    assert very_regular_threshold(psi) == 5
    assert dominate(psi, [0]) == psi


def test_dominate_rejects_non_integer(ex1):
    with pytest.raises(DominationError):
        dominate(ex1, [Fraction(1, 2)])


def test_dominate_rejects_below_threshold(ex1):
    with pytest.raises(DominationError):
        dominate(ex1, [1])
    dominate(ex1, [1], threshold=0)  # degenerate pairs are allowed explicitly


def test_dominate_requires_descending_offsets():
    psi = arthur_parameter(
        so_odd(2), [block(Fraction(3, 2), 1), block(Fraction(1, 2), 1)]
    )
    with pytest.raises(DominationError):
        dominate(psi, [4, 6])


def old_dominate(psi, offsets, threshold=None):
    """``dominate`` as it was: every offset through ``Fraction``, and psi_+
    re-merged by ``arthur_parameter``."""
    if not good_parity(psi).ok:
        raise ParityError("dominate requires a good-parity parameter")
    disc = psi.discrete
    offs = list(offsets)
    if len(offs) != len(disc):
        raise DominationError(
            f"expected {len(disc)} offsets (one per discrete block), got {len(offs)}"
        )
    ts = []
    for T in offs:
        f = Fraction(T)
        if f.denominator != 1:
            raise DominationError(f"offset {T!r} is not an integer")
        if f < 0:
            raise DominationError("offsets must be >= 0")
        ts.append(int(f))
    if any(ts[i] < ts[i + 1] for i in range(len(ts) - 1)):
        raise DominationError("offsets must be non-increasing")
    th2 = 2 * (very_regular_threshold(psi) if threshold is None else threshold)
    tp2 = [t2 + 2 * T for (t2, _a), T in zip(disc, ts)]
    for i in range(len(tp2) - 1):
        if tp2[i] - tp2[i + 1] < max(th2, 1):
            raise DominationError(
                f"t'_{i + 1} gap {Fraction(tp2[i] - tp2[i + 1], 2)} below threshold"
            )
    if tp2 and tp2[-1] < th2:
        raise DominationError(f"t'_v = {Fraction(tp2[-1], 2)} below threshold")
    new_blocks = [Block(t2p, a) for t2p, (_t2, a) in zip(tp2, disc)]
    new_blocks.extend(psi.unipotent)
    return arthur_parameter(psi.group, new_blocks)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except DominationError as exc:
        return str(exc)


def test_dominate_equals_fraction_oracle_on_corpus():
    """psi_+ or the error message, for int and Fraction offsets: at the
    canonical offsets, at threshold 0, and with one offset moved by -1 or +1."""
    errors = 0
    for psi in corpus():
        for threshold in (None, 0):
            offs = list(canonical_offsets(psi, threshold))
            trials = [offs]
            for i in range(len(offs)):
                for step in (-1, 1):
                    trials.append(offs[:i] + [offs[i] + step] + offs[i + 1 :])
            trials.append(offs + [0])
            for trial in trials:
                want = _outcome(old_dominate, psi, trial, threshold)
                errors += isinstance(want, str)
                assert _outcome(dominate, psi, trial, threshold) == want, (str(psi), trial)
                as_fractions = [Fraction(T) for T in trial]
                assert _outcome(dominate, psi, as_fractions, threshold) == want, (str(psi), trial)
    assert errors > 1000


def test_canonical_offsets_through_corpus():
    groups = [SP2, ClassicalGroup("Sp", 3), so_odd(3), ClassicalGroup("SOeven", 3)]
    count = 0
    for g in groups:
        for psi in enumerate_parameters(g):
            offs = canonical_offsets(psi)
            plus = dominate(psi, offs)
            assert dimension(plus) == dimension(psi)
            assert good_parity(plus).ok
            assert plus.unipotent == psi.unipotent
            assert domination_offsets(psi, plus) == offs
            count += 1
    assert count > 50


def _offset_trials(psi):
    """The canonical offsets and three larger non-increasing vectors: one
    more everywhere, k - i more at position i of k, and n* more at the
    first."""
    offs = canonical_offsets(psi)
    k, n_star = len(offs), psi.group.dual_dim
    return [
        offs,
        tuple(T + 1 for T in offs),
        tuple(T + k - i for i, T in enumerate(offs)),
        tuple(T + n_star * (i == 0) for i, T in enumerate(offs)),
    ]


def test_offsets_kept_by_dominate_equal_the_checked_ones_over_corpus():
    """``dominate`` leaves its offsets on psi_+.  Read back for psi, or for
    a parameter equal to it, they are one kept tuple, equal to the offsets
    given and to those the full check recovers from a pickle of psi_+,
    which keeps nothing."""
    pairs = 0
    for psi in corpus():
        equal = pickle.loads(pickle.dumps(psi))
        for offs in _offset_trials(psi):
            plus = dominate(psi, offs)
            kept = domination_offsets(psi, plus)
            # a checked pair builds a new tuple at each call
            assert domination_offsets(equal, plus) is kept
            fresh = pickle.loads(pickle.dumps(plus))
            assert fresh == plus and not vars(fresh)
            assert kept == domination_offsets(psi, fresh) == offs, (str(psi), offs)
            pairs += 1
    assert pairs == 4 * 1072


def test_a_pair_that_dominate_did_not_build_is_checked_over_corpus():
    """psi_+ of each corpus parameter against the parameter before it: the
    offsets psi_+ keeps answer for no other parameter, so the outcome,
    offsets or error, is that of the full check on a pickle of psi_+."""
    prev = None
    outcomes = set()
    for psi in corpus():
        plus = dominate(psi, canonical_offsets(psi))
        if prev is not None:
            want = _outcome(domination_offsets, prev, pickle.loads(pickle.dumps(plus)))
            assert _outcome(domination_offsets, prev, plus) == want, (str(prev), str(psi))
            outcomes.add(want if isinstance(want, str) else "offsets")
        prev = psi
    assert len(outcomes) >= 4, outcomes


def test_psi_plus_keeps_no_reference_to_psi():
    """After psi_+ has answered ``domination_offsets``, ``quotient_map`` and
    the uniqueness check, psi dies with its last reference, with the
    cyclic collector off: psi_+ keeps psi's fields only, in no cycle.  It
    still reads its offsets back for a parameter equal to psi."""
    psi = arthur_parameter(SO_ODD2, [block(Fraction(1, 2), 1, mult=2)])
    offs = canonical_offsets(psi)
    plus = dominate(psi, offs)
    assert domination_offsets(psi, plus) == offs
    assert quotient_map(plus, psi).kernel_order == 2
    assert uniqueness_check(psi, plus).unique
    equal = pickle.loads(pickle.dumps(psi))
    ref = weakref.ref(psi)
    enabled = gc.isenabled()
    gc.disable()
    try:
        del psi
        assert ref() is None
    finally:
        if enabled:
            gc.enable()
    assert domination_offsets(equal, plus) is domination_offsets(equal, plus) == offs


@pytest.mark.parametrize(
    "group, blocks, plus_group, plus_blocks, message",
    [
        (SP2, [("3/2", 2), (0, 1)], SO_ODD2, [("3/2", 2)], "group mismatch"),
        (SP2, [("3/2", 2), (0, 1)], SP2, [("3/2", 2), (0, 1, "-")], "unipotent parts differ"),
        (SP3, [("5/2", 1), ("3/2", 1), (0, 3)], SP3, [("5/2", 2), (0, 3)], "discrete block counts differ"),
        (SP3, [("5/2", 1), ("1/2", 2), (0, 1)], SP3, [("5/2", 2), ("1/2", 1), (0, 1)], "SL(2) dimensions differ"),
        (SP2, [("3/2", 2), (0, 1)], SP2, [("1/2", 2), (0, 1)], "offset -1 is not a non-negative integer"),
        (SP2, [("3/2", 2), (0, 1)], SP2, [(2, 2), (0, 1)], "offset 1/2 is not a non-negative integer"),
        (SP2, [("5/2", 1), ("1/2", 1), (0, 1)], SP2, [("7/2", 1), ("5/2", 1), (0, 1)], "offsets are not non-increasing"),
    ],
)
def test_domination_offsets_rejects_a_pair_that_is_no_domination(
    group, blocks, plus_group, plus_blocks, message
):
    psi = arthur_parameter(group, [block(*b) for b in blocks])
    psi_plus = arthur_parameter(plus_group, [block(*b) for b in plus_blocks])
    with pytest.raises(DominationError, match=re.escape(message)):
        domination_offsets(psi, psi_plus)


def test_inf_char_and_block_reject_what_they_cannot_represent(ex1):
    with pytest.raises(ParameterError, match="must be symmetric under negation"):
        gl_inf_char([3, 1, -3])
    with pytest.raises(ParameterError, match="side must be 'G' or 'GL'"):
        inf_char(ex1, "X")
    with pytest.raises(ParameterError, match="'1/3' is not a half-integer"):
        block("1/3", 1)


# --- component groups ---------------------------------------------------------


def test_component_group_ex1(ex1):
    grp = component_group(ex1)
    assert grp.order == 2
    assert grp.s_psi == (-1, 1)
    assert grp.s_psi in grp
    # s_psi is an involution: squaring gives the identity sign vector
    sq = tuple(a * a for a in grp.s_psi)
    assert sq == (1, 1)


def test_component_group_and_quotient_map_take_only_sign_vectors(ex1):
    """Membership is False, and the other methods raise ParameterError, for
    what is not a sign vector of the right length; push also refuses a
    vector that breaks the determinant relation."""
    grp = component_group(ex1)
    assert [-1, 1] in grp
    for bad in [(1,), (1, 1, 1), (1, 2), (1, 0), (1, -1)]:
        assert bad not in grp, bad
    qm = quotient_map(dominate(ex1, [5]), ex1)
    for bad in [(1,), (1, 1, 1), (1, 2), (0, 1)]:
        for method in (grp.canonical_character, qm.push_character):
            with pytest.raises(ParameterError, match="character values must be"):
                method(bad)
        with pytest.raises(ParameterError, match="not in the source group"):
            qm.push(bad)
    with pytest.raises(ParameterError, match="not in the source group"):
        qm.push((1, -1))


def test_character_methods_take_any_iterable_and_refuse_bad_values_on_every_call(ex1):
    """A list or a generator of +-1 is a character like the tuple; what is
    not an iterable of +-1, an unhashable entry included, raises
    ParameterError, never TypeError, and on every call, since no error is
    kept in a table."""
    grp = component_group(ex1)
    psi = arthur_parameter(SO_ODD2, [block(Fraction(1, 2), 1, mult=2)])
    qm = quotient_map(dominate(psi, canonical_offsets(psi)), psi)
    for method in (grp.canonical_character, qm.push_character):
        for values, same in (([1, -1], (1, -1)), ((x for x in (-1, -1)), (-1, -1))):
            assert method(values) == method(same)
        for bad in (5, None, [1], [1, 2], [[1], -1], [{}, 1], "+-", iter([1, -1, 1])):
            for _ in range(2):
                with pytest.raises(ParameterError, match="character values must be"):
                    method(bad)


def _shape_group(k: int, odd: int) -> params.ComponentGroup:
    """A group of k blocks under the determinant relation whose mask
    ``odd`` is the given one: block i is one-dimensional where bit k-1-i
    is set, two-dimensional elsewhere."""
    basis = tuple(Block(2 * (k - i), 1) for i in range(k))
    dims = tuple(1 if odd >> (k - 1 - i) & 1 else 2 for i in range(k))
    return params.ComponentGroup(basis, dims, True, (1,) * k)


def _index_maps(k: int):
    """Every map of k >= 1 source blocks onto target blocks 0, 1, ...,
    each target numbered where its fiber first appears: every map up to
    the order of the targets.  The maps of a domination pair are among
    them, as the targets of psi_+'s blocks ascend."""

    def grow(prefix: tuple[int, ...], m: int):
        if len(prefix) == k:
            yield prefix
            return
        for j in range(m + 1):
            yield from grow(prefix + (j,), max(m, j + 1))

    return grow((0,), 1)


def _table_mismatches(max_k: int) -> list:
    """Where the module tables differ from the per-object bodies of the
    oracles: for every group of k <= max_k blocks, with every odd mask,
    its elements, its characters and the canonical form of every sign
    vector; for every map of k <= max_k source blocks, its kernel under
    every source mask, its surjectivity under every source and target
    mask, and the push of every sign vector under every target mask."""
    out = []
    for k in range(1, max_k + 1):
        vectors = list(itertools.product((1, -1), repeat=k))
        groups = [_shape_group(k, odd) for odd in range(1 << k)]
        for grp in groups:
            if grp.elements != oracles.group_elements(grp):
                out.append((grp, "elements"))
            if grp.characters() != oracles.group_characters(grp):
                out.append((grp, "characters"))
            for v in vectors:
                if grp.canonical_character(v) != oracles.canonical_character(grp, v):
                    out.append((grp, v))
        for index_map in _index_maps(k):
            m = max(index_map) + 1
            targets = [_shape_group(m, odd) for odd in range(1 << m)]
            for source in groups:
                qm = params.QuotientMap(source, targets[0], index_map)
                if qm.kernel() != oracles.map_kernel(qm):
                    out.append((qm, "kernel"))
                for target in targets:
                    qm = params.QuotientMap(source, target, index_map)
                    if params._onto(k, source.odd, qm.fibers, target.odd) != oracles.map_onto(qm):
                        out.append((qm, "onto"))
            for target in targets:
                qm = params.QuotientMap(groups[0], target, index_map)
                for v in vectors:
                    if qm.push_character(v) != oracles.push_character(qm, v):
                        out.append((qm, v))
    return out


def _push_character_without_fiber_test(k, fibers, target_odd, values):
    """``params._push_character`` without its ``part != f`` test: a
    character that is not constant on a fiber descends as -1 there."""
    c = params._mask(values, k, params._CHARACTER_ERROR)
    out = 0
    for f in fibers:
        out = out << 1 | (c & f != 0)
    return params._signs(min(out, out ^ target_odd), len(fibers))


@pytest.mark.parametrize("mutant", [False, True])
def test_shape_tables_match_the_per_object_bodies(monkeypatch, mutant):
    """The module tables equal the oracles' per-object bodies on every
    shape with k <= 6 blocks (``_table_mismatches``), and the comparison
    catches a push that lets a character descend across a fiber."""
    if mutant:
        monkeypatch.setattr(params, "_push_character", _push_character_without_fiber_test)
        assert _table_mismatches(3)
    else:
        assert _table_mismatches(6) == []


def test_component_group_single_odd_block():
    psi = arthur_parameter(SP2, [block(0, 5)])
    grp = component_group(psi)
    assert grp.order == 1


def test_component_group_symplectic_dual_is_free():
    psi = arthur_parameter(
        SO_ODD2, [block(Fraction(1, 2), 1), block(Fraction(3, 2), 1)]
    )
    grp = component_group(psi)
    assert grp.order == 4
    assert not grp.relation_nontrivial


def test_component_group_order_formula():
    for g in (SP2, so_odd(2), ClassicalGroup("SOeven", 2), so_odd(3)):
        for psi in enumerate_parameters(g):
            grp = component_group(psi)
            k = len(grp.basis)
            cut = 1 if grp.relation_nontrivial else 0
            assert grp.order == 2 ** (k - cut)
            assert grp.s_psi in grp
            assert len(grp.characters()) == grp.order


def test_component_group_order_counts_its_elements_over_corpus():
    for psi in corpus():
        for p in (psi, dominate(psi, canonical_offsets(psi))):
            grp = component_group(p)
            assert grp.order == len(grp.elements) == len(set(grp.elements)), str(p)
            assert list(grp.elements) == sorted(grp.elements, reverse=True), str(p)


def test_component_group_basis_is_the_blocks_at_multiplicity_one_over_corpus():
    """The basis equals every block rebuilt with multiplicity 1, and each
    block of multiplicity 1 is its own basis element."""
    kept = rebuilt = 0
    for psi in corpus():
        for p in (psi, dominate(psi, canonical_offsets(psi))):
            basis = component_group(p).basis
            assert basis == tuple(Block(b.t2, b.a, b.eta) for b in p.blocks), str(p)
            for b, e in zip(p.blocks, basis):
                assert (e is b) == (b.mult == 1), str(p)
                kept += e is b
                rebuilt += e is not b
    assert kept and rebuilt


# --- quotient map --------------------------------------------------------------


def test_quotient_map_ex1_isomorphism(ex1):
    plus = dominate(ex1, [5])
    qm = quotient_map(plus, ex1)
    assert qm.kernel_order == 1
    assert len(qm.kernel()) == 1


def test_quotient_map_merged_copies():
    psi = arthur_parameter(SO_ODD2, [block(Fraction(1, 2), 1, mult=2)])
    offs = canonical_offsets(psi)
    plus = dominate(psi, offs)
    assert len(plus.blocks) == 2  # the two copies are separated
    qm = quotient_map(plus, psi)
    assert qm.source.order == 4
    assert qm.target.order == 2
    assert qm.kernel_order == 2
    assert len(qm.kernel()) == 2
    # the character separating the two copies vanishes
    assert qm.push_character((1, -1)) is None
    assert qm.push_character((-1, -1)) is not None


def test_quotient_map_to_itself_is_the_identity_over_corpus():
    """Also when psi repeats a discrete block: the copies of a block of
    psi_+ sit over as many entries of psi's discrete part."""
    for psi in corpus(signed=True):
        qm = quotient_map(psi, psi)
        assert qm.kernel_order == 1, str(psi)
        assert qm.index_map == tuple(range(len(psi.blocks))), str(psi)


def test_the_identity_pair_equals_the_general_path_over_the_signed_corpus():
    """``quotient_map`` reads the pair (x, x), one object twice, as the
    identity without checking it.  An equal, distinct copy of x is no such
    pair, so it takes the checked path, which must give the same map, for
    every signed corpus parameter and its psi_+; ``domination_offsets``
    checks both pairs and gives zeros.  The map is kept on the first
    argument, so the copy comes first there, or the second call would read
    the first's map."""
    pairs = 0
    for psi in corpus(signed=True):
        for x in (psi, dominate(psi, canonical_offsets(psi))):
            twin = copy.copy(x)
            assert twin == x and twin is not x
            zeros = (0,) * len(x.discrete)
            assert domination_offsets(x, x) == domination_offsets(twin, x) == zeros, str(x)
            assert quotient_map(x, x) == quotient_map(twin, x), str(x)
            pairs += 1
    assert pairs == 2 * 1072


def test_the_identity_pair_of_a_bad_parity_parameter_raises_parity_error():
    bad = arthur_parameter(SP2, [block(1, 2), block(0, 1)])
    assert domination_offsets(bad, bad) == domination_offsets(copy.copy(bad), bad) == (0,)
    for _ in range(2):  # a failed call keeps no map
        with pytest.raises(ParityError):
            quotient_map(bad, bad)


def test_kept_keeps_one_entry_per_object_and_argument_tuple(ex1, monkeypatch):
    """``_kept`` computes fn(obj) and fn(obj, x) once per object and
    argument; two objects, or two arguments, never share an entry, x and
    (x,) are two arguments, and a kept None is a hit.  A component group
    and a quotient map keep nothing: their values are read back from the
    module tables of their shape, also by a new object of that shape, and
    ==, hash and repr stay those of a new object."""
    calls = []

    def call(*record):
        calls.append(record)
        return len(calls)

    class Box:
        @_kept
        def zero(self):
            call("zero", self)
            return None

        @_kept
        def one(self, x):
            return call("one", self, x)

    one, two = Box(), Box()
    assert [one.zero(), two.zero(), one.zero(), two.zero()] == [None] * 4
    assert [one.one(1), one.one((1,)), two.one(1), one.one(1), one.one((1,))] == [3, 4, 5, 3, 4]
    assert calls == [
        ("zero", one), ("zero", two),
        ("one", one, 1), ("one", one, (1,)), ("one", two, 1),
    ]

    # ex1's dual SO(5) cuts A(psi) by the determinant, SO(5,R)'s dual Sp(4) does not
    sp = component_group(ex1)
    so = component_group(arthur_parameter(SO_ODD2, [block(Fraction(3, 2), 1), block(Fraction(1, 2), 1)]))
    psi = arthur_parameter(SO_ODD2, [block(Fraction(1, 2), 1, mult=2)])
    qm = quotient_map(dominate(psi, canonical_offsets(psi)), psi)
    objects = (sp, so, qm)
    fresh = [type(x)(*(getattr(x, f) for f in x._fields)) for x in objects]
    # (object, sign vector, its canonical form or pushed character)
    reads = [(0, (1, -1), (1, 1)), (0, (-1, 1), (-1, 1)), (1, (1, -1), (1, -1)),
             (1, (-1, 1), (-1, 1)), (2, (1, -1), None), (2, (-1, -1), (-1,))]

    def read(x, values):
        if isinstance(x, params.QuotientMap):
            return x.push_character(values)
        return x.canonical_character(values)

    for i, values, image in reads:
        assert read(objects[i], values) == image
    # every value, the vanishing character's None too, is read back, not
    # worked out again, also through a new object of the same shape: with
    # no mask to compute, each call still answers
    monkeypatch.setattr(params, "_mask", None)
    for i, values, image in reads:
        assert read(objects[i], values) == read(fresh[i], values) == image
    monkeypatch.undo()
    for x, y in zip(objects, fresh):
        assert not hasattr(x, "__dict__")
        assert (x, hash(x), repr(x)) == (y, hash(y), repr(y))


def test_quotient_map_is_surjective_homomorphism():
    psi = arthur_parameter(SO_ODD2, [block(Fraction(1, 2), 1, mult=2)])
    plus = dominate(psi, canonical_offsets(psi))
    qm = quotient_map(plus, psi)
    image = {qm.push(s) for s in qm.source.elements}
    assert image == set(qm.target.elements)
    for a in qm.source.elements:
        for b in qm.source.elements:
            ab = tuple(x * y for x, y in zip(a, b))
            assert qm.push(ab) == tuple(x * y for x, y in zip(qm.push(a), qm.push(b)))


# --- endoscopic splits -----------------------------------------------------------


def test_endoscopic_split_ex1(ex1):
    split = endoscopic_split(ex1, (-1, 1))
    assert split.n_minus == 4
    assert split.n_plus == 1
    assert split.factor_minus.kind == "SOeven" and split.factor_minus.rank == 2
    assert split.factor_plus.kind == "Sp" and split.factor_plus.rank == 0
    assert split.n_minus + split.n_plus == ex1.group.dual_dim


def test_endoscopic_split_identity(ex1):
    split = endoscopic_split(ex1, (1, 1))
    assert split.n_minus == 0
    assert split.psi_minus is None
    assert split.psi_plus is not None
    assert split.psi_plus.blocks == ex1.blocks


def test_endoscopic_split_symplectic_dual():
    psi = arthur_parameter(SO_ODD2, [block(0, 2, "+"), block(0, 2, "-")])
    split = endoscopic_split(psi, (-1, 1))
    assert split.n_minus == split.n_plus == 2
    assert split.factor_minus.kind == "SOodd"
    assert split.factor_plus.kind == "SOodd"


def test_endoscopic_split_rejects_outsiders(ex1):
    with pytest.raises(Exception):
        endoscopic_split(ex1, (1, -1))  # violates the determinant condition


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda psi: 5 in component_group(psi), "5 is not a sign vector"),
        (lambda psi: quotient_map(psi, psi).push(5), "element not in the source group"),
        (lambda psi: endoscopic_split(psi, None), "None is not an element of A(psi)"),
    ],
    ids=["contains", "push", "endoscopic_split"],
)
def test_a_sign_vector_that_is_not_iterable_raises_parameter_error(ex1, call, message):
    with pytest.raises(ParameterError, match=re.escape(message)):
        call(ex1)


def test_split_with_s_and_minus_s_give_same_pair():
    psi = arthur_parameter(
        SO_ODD2, [block(Fraction(1, 2), 1), block(Fraction(3, 2), 1)]
    )
    grp = component_group(psi)
    for s in grp.elements:
        neg = tuple(-x for x in s)
        if neg not in grp:
            continue
        a = endoscopic_split(psi, s)
        b = endoscopic_split(psi, neg)
        assert {a.factor_minus, a.factor_plus} == {b.factor_minus, b.factor_plus}


def test_split_dimensions_over_corpus():
    for g in (SP2, so_odd(2), ClassicalGroup("SOeven", 2)):
        for psi in enumerate_parameters(g):
            grp = component_group(psi)
            for s in grp.elements:
                split = endoscopic_split(psi, s)
                assert split.n_minus + split.n_plus == g.dual_dim


# --- domination invariants over the corpus ---------------------------------------


def test_dominate_preserves_structure_corpus():
    for g in (SP2, so_odd(2), ClassicalGroup("SOeven", 2)):
        for psi in enumerate_parameters(g):
            plus = dominate(psi, canonical_offsets(psi))
            assert dimension(plus) == dimension(psi)
            assert good_parity(plus).ok
            assert plus.unipotent == psi.unipotent
            gl = inf_char(plus, "GL").entries
            assert sorted(-e for e in gl) == sorted(gl)


def test_corpus_modes_share_their_parameters():
    bare = list(corpus())
    signed = list(corpus(signed=True))
    assert len(bare) == len(signed) == 1072
    assert [(p.group.kind, p.group.rank, p.blocks) for p in bare] == [
        (p.group.kind, p.group.rank, p.blocks) for p in signed
    ]
    assert all(p.group.signature is None for p in bare)
    assert all(quasi_split(p.group) for p in signed)
    assert [k for k, _ in itertools.groupby(p.group.kind for p in bare)] == ["Sp", "SOodd", "SOeven"]


# --- the corpus against the plain merge and enumeration ---------------------------


def test_enumeration_equals_the_plain_oracle_up_to_dual_dimension_12():
    groups = [
        ClassicalGroup(kind, rank)
        for kind in ("Sp", "SOodd", "SOeven")
        for rank in range(7)
        if ClassicalGroup(kind, rank).dual_dim <= 12
    ]
    new = [repr(psi) for g in groups for psi in enumerate_parameters(g)]
    assert new == [repr(psi) for g in groups for psi in oracles.enumerate_parameters(g)]
    assert len(new) == 8634  # 8,630 of rank >= 1 and four of rank 0


def _oracle_corpus(signed: bool):
    for kind, ranks in _CORPUS_RANKS:
        for rank in ranks:
            target = _quasi_split_form(kind, rank)
            for psi in oracles.enumerate_parameters(ClassicalGroup(kind, rank)):
                yield oracles.arthur_parameter(target, psi.blocks) if signed else psi


@pytest.mark.parametrize("signed", [False, True])
def test_corpus_equals_the_plain_oracle(signed):
    assert list(map(repr, corpus(signed))) == list(map(repr, _oracle_corpus(signed)))


def test_merging_equals_the_plain_oracle_on_split_and_shuffled_blocks():
    rng = random.Random(5)
    for psi in corpus(signed=True):
        g = psi.group
        assert all(new is old for new, old in zip(arthur_parameter(g, psi.blocks).blocks, psi.blocks))
        pieces = []
        for b in psi.blocks:
            left = b.mult
            while left:
                m = rng.randint(1, left)
                # eta is read only at t = 0, so a -1 there is the same block
                pieces.append(Block(b.t2, b.a, rng.choice((1, -1)) if b.t2 else b.eta, m))
                left -= m
        rng.shuffle(pieces)
        assert repr(arthur_parameter(g, pieces)) == repr(oracles.arthur_parameter(g, pieces)) == repr(psi)
