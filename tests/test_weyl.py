import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arthurcomb.weyl import (
    GroupType,
    Weight,
    dominant_rep,
    half_sum_positive_roots,
    norm_sq,
    pairing,
    positive_roots,
    weight,
)
from oracles import apply, brute_orbit, is_dominant, weyl_elements

B2 = GroupType("B", 2)
C2 = GroupType("C", 2)
D3 = GroupType("D", 3)
D4 = GroupType("D", 4)
A2 = GroupType("A", 3)  # Cartan label A_2: S_3 on three coordinates


def chamber_elements(t, w):
    """Oracle: the orbit elements lying in the closed dominant chamber, with
    every entry >= 0 for the signed groups (for D, the half of the simple
    root chamber that the sign flip keeps)."""
    return [
        x
        for x in brute_orbit(t, w)
        if is_dominant(t, x) and (t.family == "A" or min(x.doubled, default=0) >= 0)
    ]


def order(t):
    """Oracle: the number of group elements."""
    return sum(1 for _ in weyl_elements(t))


def stabilizer(t, w):
    """Oracle: the number of group elements fixing w."""
    return sum(1 for g in weyl_elements(t) if apply(g, w) == w)


# --- orbits ---------------------------------------------------------------


def test_orbit_b2_short_vector():
    orb = brute_orbit(B2, weight([1, 0]))
    assert orb == {weight([1, 0]), weight([-1, 0]), weight([0, 1]), weight([0, -1])}
    assert stabilizer(B2, weight([1, 0])) == 2
    assert {dominant_rep(B2, x) for x in orb} == {weight([1, 0])}


def test_orbit_c2_regular():
    orb = brute_orbit(C2, weight([2, 1]))
    assert len(orb) == 8
    assert stabilizer(C2, weight([2, 1])) == 1
    assert {dominant_rep(C2, x) for x in orb} == {weight([2, 1])}


def test_orbit_zero_weight_is_fixed():
    for t in (A2, B2, C2, D3):
        z = weight([0] * t.rank)
        assert brute_orbit(t, z) == {z}
        assert stabilizer(t, z) == order(t)
        assert dominant_rep(t, z) == z


def test_orbit_length_mismatch():
    # the orbit representative rejects a weight of the wrong length
    with pytest.raises(ValueError):
        dominant_rep(B2, weight([1, 0, 0]))


def test_orbit_stabilizer_product_and_w_invariance():
    rng = random.Random(11)
    for t in (A2, B2, C2, D3, D4):
        elements = list(weyl_elements(t))
        for _ in range(5):
            w = weight([rng.randint(-2, 2) for _ in range(t.rank)])
            orb = brute_orbit(t, w)
            assert len(orb) * stabilizer(t, w) == len(elements)
            g = rng.choice(elements)
            assert dominant_rep(t, apply(g, w)) == dominant_rep(t, w)


# --- dominant_rep ---------------------------------------------------------


def test_dominant_rep_c2():
    assert dominant_rep(C2, weight([-1, 3])) == weight([3, 1])


def test_dominant_rep_d3_extended_oracle():
    # D acts with the outer automorphism adjoined, so an odd number of
    # sign flips reaches the all-positive representative too
    w = weight([-2, 1, -1])
    assert chamber_elements(D3, w) == [weight([2, 1, 1])]
    assert dominant_rep(D3, w) == weight([2, 1, 1])
    assert dominant_rep(D3, weight([-2, 1, 1])) == weight([2, 1, 1])


def test_dominant_rep_idempotent_and_orbit_constant():
    rng = random.Random(5)
    for t in (A2, B2, C2, D3):
        for _ in range(8):
            w = weight([rng.randint(-3, 3) for _ in range(t.rank)])
            d = dominant_rep(t, w)
            assert dominant_rep(t, d) == d
            assert {dominant_rep(t, x) for x in brute_orbit(t, w)} == {d}
            assert chamber_elements(t, w) == [d]


# --- pairing / norms ------------------------------------------------------


def test_pairing_examples():
    assert pairing(weight([2, 1]), weight([1, -1])) == 1
    assert norm_sq(weight([2, 1])) == 5
    assert pairing(weight([Fraction(3, 2), Fraction(1, 2)]), weight([1, 1])) == 2


def test_pairing_length_mismatch():
    with pytest.raises(ValueError):
        pairing(weight([1]), weight([1, 2]))


def test_weight_rejects_an_entry_that_is_no_half_integer():
    with pytest.raises(ValueError, match="'1/3' is not a half-integer"):
        weight(["1/3"])


def test_pairing_weyl_invariance_random():
    rng = random.Random(7)
    for t in (B2, C2, D3, D4):
        elements = list(weyl_elements(t))
        for _ in range(25):
            a = weight([Fraction(rng.randint(-6, 6), 2) for _ in range(t.rank)])
            b = weight([Fraction(rng.randint(-6, 6), 2) for _ in range(t.rank)])
            g = rng.choice(elements)
            assert pairing(apply(g, a), apply(g, b)) == pairing(a, b)


# --- half sums ------------------------------------------------------------


def test_half_sum_formulas():
    assert half_sum_positive_roots(C2) == weight([2, 1])
    assert half_sum_positive_roots(B2) == weight([Fraction(3, 2), Fraction(1, 2)])
    assert half_sum_positive_roots(D4) == weight([3, 2, 1, 0])
    assert half_sum_positive_roots(A2) == weight([1, 0, -1])


def test_half_sum_matches_explicit_sum():
    for t in (A2, B2, C2, D3, D4):
        total = [0] * t.rank
        for r in positive_roots(t):
            for i, v in enumerate(r.doubled):
                total[i] += v
        assert Weight(tuple(v // 2 for v in total)) == half_sum_positive_roots(t)


def test_positive_roots_grouped_by_first_coordinate():
    def e(n, *entries):
        d = [0] * n
        for i, v in entries:
            d[i] = v
        return Weight(tuple(d))

    assert positive_roots(GroupType("C", 3)) == [
        e(3, (0, 2), (1, -2)), e(3, (0, 2), (1, 2)), e(3, (0, 2), (2, -2)), e(3, (0, 2), (2, 2)), e(3, (0, 4)),
        e(3, (1, 2), (2, -2)), e(3, (1, 2), (2, 2)), e(3, (1, 4)),
        e(3, (2, 4)),
    ]
    assert positive_roots(A2) == [e(3, (0, 2), (1, -2)), e(3, (0, 2), (2, -2)), e(3, (1, 2), (2, -2))]
    for family in "ABCD":
        for n in range(6):
            t = GroupType(family, n)
            roots = positive_roots(t)
            firsts = [next(i for i, v in enumerate(r.doubled) if v) for r in roots]
            assert firsts == sorted(firsts), str(t)
            # the set: e_i - e_j, e_i + e_j (B, C, D) for i < j, e_i or 2 e_i (B, C)
            pairs = {e(n, (i, 2), (j, s)) for i in range(n) for j in range(i + 1, n) for s in (-2, 2)}
            expected = {
                "A": {r for r in pairs if sum(r.doubled) == 0},
                "B": pairs | {e(n, (i, 2)) for i in range(n)},
                "C": pairs | {e(n, (i, 4)) for i in range(n)},
                "D": pairs,
            }[family]
            assert len(roots) == len(set(roots)) and set(roots) == expected, str(t)


# --- property tests -------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(["A", "B", "C", "D"]),
    st.integers(min_value=1, max_value=4),
    st.lists(st.integers(min_value=-3, max_value=3), min_size=1, max_size=4),
)
def test_orbit_stabilizer_identity(family, rank, coords):
    t = GroupType(family, rank)
    w = Weight(tuple(2 * c for c in (coords * rank)[: t.rank]))
    orb = brute_orbit(t, w)
    assert len(orb) * stabilizer(t, w) == order(t)
    assert dominant_rep(t, w) in orb

