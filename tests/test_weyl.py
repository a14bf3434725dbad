import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arthurcomb.weyl import (
    GroupType,
    Weight,
    WeylElement,
    dominant_rep,
    half_sum_positive_roots,
    is_dominant,
    kostant_reps,
    levi_subgroup,
    norm_sq,
    orbit,
    pairing,
    positive_roots,
    simple_roots,
    weight,
    weyl_elements,
    weyl_order,
)

B2 = GroupType("B", 2)
C2 = GroupType("C", 2)
D3 = GroupType("D", 3)
D3X = GroupType("D", 3, extended=True)
D4 = GroupType("D", 4)
A2 = GroupType("A", 3)  # Cartan label A_2: S_3 on three coordinates


def brute_orbit(t, w):
    """Oracle: apply every group element."""
    return {g.apply(w) for g in weyl_elements(t)}


def chamber_elements(t, w):
    """Oracle: the orbit elements lying in the closed dominant chamber."""
    return [x for x in brute_orbit(t, w) if is_dominant(t, x)]


# --- weyl_order -----------------------------------------------------------


def test_weyl_order_examples():
    assert weyl_order(C2) == 8
    assert weyl_order(A2) == 6
    assert weyl_order(D4) == 192
    assert weyl_order(GroupType("D", 4, extended=True)) == 384
    assert weyl_order(B2) == 8


def test_weyl_elements_count_matches_order():
    for t in (A2, B2, C2, D3, D3X, D4):
        assert sum(1 for _ in weyl_elements(t)) == weyl_order(t)


# --- orbit ----------------------------------------------------------------


def test_orbit_b2_short_vector():
    orb, stab = orbit(B2, weight([1, 0]))
    assert orb == brute_orbit(B2, weight([1, 0]))
    assert orb == {weight([1, 0]), weight([-1, 0]), weight([0, 1]), weight([0, -1])}
    assert stab == 2


def test_orbit_c2_regular():
    orb, stab = orbit(C2, weight([2, 1]))
    assert orb == brute_orbit(C2, weight([2, 1]))
    assert len(orb) == 8
    assert stab == 1


def test_orbit_zero_weight_is_fixed():
    for t in (A2, B2, C2, D3, D3X):
        z = weight([0] * t.rank)
        orb, stab = orbit(t, z)
        assert orb == {z}
        assert stab == weyl_order(t)


def test_orbit_length_mismatch():
    with pytest.raises(ValueError):
        orbit(B2, weight([1, 0, 0]))


def test_orbit_stabilizer_product_and_w_invariance():
    rng = random.Random(11)
    for t in (A2, B2, C2, D3, D3X, D4):
        elements = list(weyl_elements(t))
        for _ in range(5):
            w = weight([rng.randint(-2, 2) for _ in range(t.rank)])
            orb, stab = orbit(t, w)
            assert orb == brute_orbit(t, w)
            assert len(orb) * stab == weyl_order(t)
            g = rng.choice(elements)
            orb2, _ = orbit(t, g.apply(w))
            assert orb2 == orb


# --- dominant_rep ---------------------------------------------------------


def test_dominant_rep_c2():
    assert dominant_rep(C2, weight([-1, 3])) == weight([3, 1])


def test_dominant_rep_d3_nonextended_oracle():
    # the orbit of (-2,1,-1) reaches (2,1,1) with two sign flips (even),
    # so the chamber representative has no residual sign
    w = weight([-2, 1, -1])
    assert chamber_elements(D3, w) == [weight([2, 1, 1])]
    assert dominant_rep(D3, w) == weight([2, 1, 1])


def test_dominant_rep_d3_residual_sign():
    # one negative entry, all nonzero: the residual sign survives in D3
    w = weight([-2, 1, 1])
    assert chamber_elements(D3, w) == [weight([2, 1, -1])]
    assert dominant_rep(D3, w) == weight([2, 1, -1])
    assert dominant_rep(D3X, w) == weight([2, 1, 1])


def test_dominant_rep_d3_extended_oracle():
    w = weight([-2, 1, -1])
    assert chamber_elements(D3X, w) == [weight([2, 1, 1])]
    assert dominant_rep(D3X, w) == weight([2, 1, 1])


def test_dominant_rep_idempotent_and_orbit_constant():
    rng = random.Random(5)
    for t in (A2, B2, C2, D3, D3X):
        for _ in range(8):
            w = weight([rng.randint(-3, 3) for _ in range(t.rank)])
            d = dominant_rep(t, w)
            assert dominant_rep(t, d) == d
            orb, _ = orbit(t, w)
            assert {dominant_rep(t, x) for x in orb} == {d}
            assert chamber_elements(t, w) == [d]


# --- pairing / norms ------------------------------------------------------


def test_pairing_examples():
    assert pairing(weight([2, 1]), weight([1, -1])) == 1
    assert norm_sq(weight([2, 1])) == 5
    assert pairing(weight([Fraction(3, 2), Fraction(1, 2)]), weight([1, 1])) == 2


def test_pairing_length_mismatch():
    with pytest.raises(ValueError):
        pairing(weight([1]), weight([1, 2]))


def test_pairing_weyl_invariance_random():
    rng = random.Random(7)
    for t in (B2, C2, D3, D4):
        elements = list(weyl_elements(t))
        for _ in range(25):
            a = weight([Fraction(rng.randint(-6, 6), 2) for _ in range(t.rank)])
            b = weight([Fraction(rng.randint(-6, 6), 2) for _ in range(t.rank)])
            g = rng.choice(elements)
            assert pairing(g.apply(a), g.apply(b)) == pairing(a, b)


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


# --- kostant_reps ---------------------------------------------------------


def test_kostant_c2_levi_a1():
    alpha = weight([1, -1])
    reps = kostant_reps(C2, [alpha])
    assert len(reps) == 4
    # oracle: independently filter the full group on the defining condition
    expected = [
        g
        for g in weyl_elements(C2)
        if (lambda im: next(v for v in im if v) > 0)(g.apply(alpha).doubled)
    ]
    assert set(reps) == set(expected)


def test_kostant_full_levi_is_identity():
    for t in (A2, C2, D3):
        reps = kostant_reps(t, simple_roots(t))
        assert len(reps) == 1
        assert reps[0].is_identity()


def test_kostant_empty_levi_is_whole_group():
    reps = kostant_reps(A2, [])
    assert len(reps) == 6
    assert set(reps) == set(weyl_elements(A2))


def test_kostant_invalid_root_rejected():
    with pytest.raises(ValueError):
        kostant_reps(C2, [weight([1, 1])])  # positive but not simple


def test_kostant_partition_property():
    # every group element factors uniquely as rep * (element of W_L)
    for t, levi in [
        (C2, [weight([1, -1])]),
        (B2, [weight([0, 1])]),
        (D3, [weight([1, -1, 0]), weight([0, 1, 1])]),
        (A2, [weight([1, -1, 0])]),
    ]:
        reps = kostant_reps(t, levi)
        w_l = levi_subgroup(t, levi)
        factored = {}
        for r in reps:
            for u in w_l:
                g = r * u
                assert g not in factored
                factored[g] = (r, u)
        assert len(factored) == weyl_order(t)


# --- property tests -------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(["A", "B", "C", "D"]),
    st.integers(min_value=1, max_value=4),
    st.booleans(),
    st.lists(st.integers(min_value=-3, max_value=3), min_size=1, max_size=4),
)
def test_orbit_stabilizer_identity(family, rank, extended, coords):
    if family != "D":
        extended = False
    t = GroupType(family, rank, extended)
    w = Weight(tuple(2 * c for c in (coords * rank)[: t.rank]))
    orb, stab = orbit(t, w)
    assert len(orb) * stab == weyl_order(t)
    assert dominant_rep(t, w) in orb


def test_weyl_element_group_axioms():
    for t in (C2, D3):
        els = list(weyl_elements(t))
        e = WeylElement.identity(t.rank)
        for g in els[:12]:
            assert g * g.inverse() == e
            assert (g.inverse() * g) == e
        w = weight([2, -1] + [0] * (t.rank - 2))
        for g in els[:6]:
            for h in els[-6:]:
                assert (g * h).apply(w) == g.apply(h.apply(w))
