import itertools
from fractions import Fraction

import pytest

from arthurcomb.params import (
    ArthurParameter,
    ClassicalGroup,
    DimensionError,
    DominationError,
    ParityError,
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
    good_parity,
    inf_char,
    quotient_map,
    very_regular_threshold,
)

SP2 = ClassicalGroup("Sp", 2)
SO_ODD2 = ClassicalGroup("SOodd", 2)


def so_odd(rank, signature=None):
    return ClassicalGroup("SOodd", rank, signature)


# --- groups and dimensions --------------------------------------------------


def test_dual_dimensions():
    assert SP2.dual_dim == 5
    assert so_odd(3).dual_dim == 6
    assert ClassicalGroup("SOeven", 3).dual_dim == 6


def test_quasi_split():
    assert SP2.quasi_split is True
    assert so_odd(2, (3, 2)).quasi_split is True
    assert so_odd(2, (5, 0)).quasi_split is False
    assert ClassicalGroup("SOeven", 2, (2, 2)).quasi_split is True
    assert so_odd(2).quasi_split is None


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


# --- infinitesimal characters -----------------------------------------------


def test_inf_char_ex1(ex1):
    gl = inf_char(ex1, "GL")
    assert gl.entries == (2, 1, 0, -1, -2)
    g = inf_char(ex1, "G")
    assert g.entries == (2, 1)
    assert g.group_type.family == "C"


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


# --- component groups ---------------------------------------------------------


def test_component_group_ex1(ex1):
    grp = component_group(ex1)
    assert grp.order == 2
    assert grp.s_psi == (-1, 1)
    assert grp.s_psi in grp
    # s_psi is an involution: squaring gives the identity sign vector
    sq = tuple(a * a for a in grp.s_psi)
    assert sq == grp.identity


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


def test_characters_evaluate_to_signs(ex1):
    grp = component_group(ex1)
    for eps in grp.characters():
        for s in grp.elements:
            assert grp.evaluate(eps, s) in (1, -1)


def test_center_restriction_predicate():
    # Sp has an adjoint dual: every character is trivial on the center
    grp_sp = component_group(
        arthur_parameter(SP2, [block(Fraction(3, 2), 2), block(0, 1)])
    )
    assert grp_sp.center_image() == grp_sp.identity
    assert all(grp_sp.character_trivial_on_center(e) for e in grp_sp.characters())
    # symplectic dual: -1 maps to the all-minus vector and cuts characters in half
    grp_so = component_group(
        arthur_parameter(SO_ODD2, [block(Fraction(1, 2), 1), block(Fraction(3, 2), 1)])
    )
    assert grp_so.center_image() == (-1, -1)
    flags = [grp_so.character_trivial_on_center(e) for e in grp_so.characters()]
    assert flags.count(True) == 2 and flags.count(False) == 2


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
    assert not qm.character_descends((1, -1))
    assert qm.push_character((1, -1)) is None
    assert qm.push_character((-1, -1)) is not None


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
    assert all(p.group.quasi_split for p in signed)
    assert [k for k, _ in itertools.groupby(p.group.kind for p in bare)] == ["Sp", "SOodd", "SOeven"]
