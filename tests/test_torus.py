import random
from fractions import Fraction

from arthurcomb.params import (
    ClassicalGroup,
    arthur_parameter,
    block,
    canonical_offsets,
    dominate,
    enumerate_parameters,
    g_inf_char,
    inf_char,
)
from arthurcomb.torus import transfer_infchar, translation_weight, uniqueness_check
from arthurcomb.weyl import GroupType, Weight, norm_sq, weight

B2 = GroupType("B", 2)
C2 = GroupType("C", 2)
SP2 = ClassicalGroup("Sp", 2)


# --- translation weight ------------------------------------------------------


def test_translation_weight_ex1(ex1):
    plus = dominate(ex1, [5])
    datum = translation_weight(ex1, plus)
    assert datum.lambda_GL == weight([5, 5, 0, -5, -5])
    assert datum.lambda_G == weight([5, 5])


def test_translation_weight_two_blocks():
    g = ClassicalGroup("Sp", 3)
    psi = arthur_parameter(
        g, [block(4, 1), block(Fraction(3, 2), 2), block(0, 1)]
    )
    plus = dominate(psi, [7, 3], threshold=0)
    datum = translation_weight(psi, plus)
    assert datum.lambda_GL == weight([7, 3, 3, 0, -3, -3, -7])
    assert datum.lambda_G == weight([7, 3, 3])


def test_translation_weight_zero_offsets():
    psi = arthur_parameter(SP2, [block(Fraction(11, 2), 2), block(0, 1)])
    datum = translation_weight(psi, psi)
    assert not any(datum.lambda_GL.doubled)


def test_translation_weight_alignment_identity():
    # nu_+ minus lambda, aligned coordinate by coordinate, is exactly nu_psi
    from arthurcomb.torus import _nu_display_doubled

    for g in (SP2, ClassicalGroup("SOodd", 2), ClassicalGroup("SOeven", 2)):
        for psi in enumerate_parameters(g):
            plus = dominate(psi, canonical_offsets(psi))
            datum = translation_weight(psi, plus)
            diff = tuple(
                a - b
                for a, b in zip(_nu_display_doubled(plus), datum.lambda_GL.doubled)
            )
            assert diff == _nu_display_doubled(psi)


# --- uniqueness ---------------------------------------------------------------


def test_uniqueness_ex1(ex1):
    plus = dominate(ex1, [5])
    report = uniqueness_check(ex1, plus)
    assert report.rearrangements == 30
    assert report.unique
    assert report.matches == (weight([-5, -5, 0, 5, 5]),)
    assert report.aligned == weight([-5, -5, 0, 5, 5])


def test_uniqueness_unipotent_only():
    psi = arthur_parameter(SP2, [block(0, 5)])
    report = uniqueness_check(psi, psi)
    assert report.unique
    assert report.rearrangements == 1
    assert not any(report.aligned.doubled)


def test_uniqueness_degenerate_offsets_are_reported():
    # below the very-regular threshold uniqueness can genuinely fail; the
    # checker reports the extra matches instead of assuming the theorem
    g = ClassicalGroup("Sp", 3)
    psi = arthur_parameter(g, [block(Fraction(1, 2), 2), block(0, 3)])
    plus = dominate(psi, [1], threshold=0)
    report = uniqueness_check(psi, plus)
    assert not report.unique
    assert report.aligned in report.matches
    assert len(report.matches) == 4


def test_uniqueness_two_blocks():
    g = ClassicalGroup("Sp", 3)
    psi = arthur_parameter(
        g, [block(4, 1), block(Fraction(3, 2), 2), block(0, 1)]
    )
    plus = dominate(psi, [7, 3], threshold=0)
    report = uniqueness_check(psi, plus)
    assert report.unique


# --- transfer ------------------------------------------------------------------


def test_transfer_infchar_sp():
    nu = g_inf_char(C2, weight([2, 1]))
    gl = transfer_infchar(nu, SP2)
    assert gl.entries == (2, 1, 0, -1, -2)


def test_transfer_infchar_so_even_rank():
    nu = g_inf_char(B2, weight([0, 0]))
    gl = transfer_infchar(nu, ClassicalGroup("SOodd", 2))
    assert gl.entries == (0, 0, 0, 0)


def test_transfer_doubles_norm_exactly():
    rng = random.Random(19)
    groups = [SP2, ClassicalGroup("SOodd", 3), ClassicalGroup("SOeven", 4)]
    for g in groups:
        gt = g.gside_type()
        for _ in range(200):
            w = weight([Fraction(rng.randint(-9, 9), 2) for _ in range(g.rank)])
            nu = g_inf_char(gt, w)
            gl = transfer_infchar(nu, g)
            assert norm_sq(Weight(gl.doubled)) == 2 * norm_sq(nu.weight)


def test_transfer_matches_parameter_infchar():
    for g in (SP2, ClassicalGroup("SOodd", 2), ClassicalGroup("SOeven", 2)):
        for psi in enumerate_parameters(g):
            assert transfer_infchar(inf_char(psi, "G"), g) == inf_char(psi, "GL")

