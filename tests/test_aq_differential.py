"""Differential tests: the packed-integer filtration sweep against the
tuple-based code it replaced.

The oracle functions below are the earlier implementations of
``aq._monoid_sums``, ``aq.range_check`` and ``aq.filtration_vanishing``,
unchanged apart from their names and the private helpers they used,
which are inlined or copied here.  The package must give the same
states, the same truncation point and equal reports on a seeded sample of
the signed criterion-6 corpus, which includes sweeps stopped at the state
cap, whether a layout's sweep is run afresh or read from the cache.
"""

import functools
import random
from fractions import Fraction
from operator import mul

from hypothesis import given, settings
from hypothesis import strategies as st

from arthurcomb import aq
from arthurcomb.aq import (
    FILTRATION_STATE_CAP,
    FiltrationItem,
    FiltrationReport,
    RangeResult,
    aq_datum,
    delta_u,
    enumerate_levis,
    lambda_tilde,
    nilradical_roots,
)
from arthurcomb.params import ParameterError, canonical_offsets, corpus, dominate
from arthurcomb.weyl import GroupType, Weight, is_dominant, norm_sq, pairing

SEED = 20260810
PER_KIND = 4


# --- oracle: the tuple-based code --------------------------------------------


def old_monoid_sums(roots, max_height, cap):
    n = len(roots[0]) if roots else 0
    zero = (0,) * n
    seen = {zero}
    frontier = [zero]
    truncated = False
    for _h in range(max_height):
        if truncated or not frontier:
            break
        nxt = []
        for x in sorted(frontier):
            for r in roots:
                y = tuple(a + b for a, b in zip(x, r))
                if y not in seen:
                    if len(seen) > cap:
                        truncated = True
                        break
                    seen.add(y)
                    nxt.append(y)
            if truncated:
                break
        frontier = nxt
    return sorted(seen), truncated


def old_range_check(d):
    a_list, n0, kind = d.levi.a_list, d.levi.g0.rank, d.levi.g0.kind
    roots = nilradical_roots(a_list, n0, kind)
    if not roots:
        return RangeResult("good", None)
    du = delta_u(a_list, n0, kind)
    coords = []
    pos = 0
    for t, a in zip(d.t_tilde, a_list):
        for _ in range(a):
            coords.append(2 * t - du.doubled[pos])
            pos += 1
    coords.extend([0] * n0)
    x = Weight(tuple(coords))
    worst = min(pairing(x, r) for r in roots)
    if worst > 0:
        verdict = "good"
    elif worst == 0:
        verdict = "weakly_fair"
    else:
        verdict = "neither"
    return RangeResult(verdict, worst)


_G0_FAMILY = {"Sp": "C", "SOodd": "B", "SOeven": "D"}


def _block_ranges(a_list):
    out = []
    start = 0
    for a in a_list:
        out.append(range(start, start + a))
        start += a
    return out


def old_filtration_vanishing(d_plus, psi, height_bound=None, state_cap=FILTRATION_STATE_CAP):
    if old_range_check(d_plus).verdict != "good":
        raise ParameterError("filtration sweep requires a good-range datum")
    a_list, n0, kind = d_plus.levi.a_list, d_plus.levi.g0.rank, d_plus.levi.g0.kind
    shifts = lambda_tilde(psi)
    if len(shifts) != len(a_list):
        raise ParameterError("parameter does not match the Levi datum")
    if height_bound is None:
        height_bound = max(d_plus.t_tilde, default=0)

    n_u = sum(a_list)
    lam_u = Weight(tuple(2 * t for t, a in zip(shifts, a_list) for _ in range(a)))
    delta_l1 = Weight(tuple((a - 1) - 2 * k for a in a_list for k in range(a)))
    roots = nilradical_roots(a_list, n0, kind)

    lam_ext = Weight(lam_u.doubled + (0,) * n0)
    cert_pairing = all(pairing(lam_ext, r) >= 0 for r in roots)
    v = len(a_list)
    grade = [v - i for i, a in enumerate(a_list) for _ in range(a)] + [0] * n0
    cert_support = all(
        sum(g * c for g, c in zip(grade, r.doubled)) > 0 for r in roots
    )

    base = lam_u + delta_l1
    base_norm = norm_sq(base)
    base_d = base.doubled
    lam_d = lam_u.doubled
    delta_d = delta_l1.doubled
    base_norm4 = sum(v * v for v in base_d)
    items = []
    violations = []
    enumerated = 0
    dominant_count = 0
    truncated = False
    if roots:
        sums, truncated = old_monoid_sums([r.doubled for r in roots], height_bound, state_cap)
        block_spans = [(r.start, r.stop) for r in _block_ranges(a_list)]
        g0_type = GroupType(_G0_FAMILY[kind], n0) if n0 else None
        for mu_d in sums:
            if not any(mu_d):
                continue
            enumerated += 1
            ok_dom = all(
                mu_d[s] >= mu_d[s + 1] for lo, hi in block_spans for s in range(lo, hi - 1)
            )
            if ok_dom and g0_type is not None:
                ok_dom = is_dominant(g0_type, Weight(mu_d[len(mu_d) - n0 :]))
            if not ok_dom:
                continue
            dominant_count += 1
            mu1_d = mu_d[:n_u]
            with4 = sum((b + m) * (b + m) for b, m in zip(base_d, mu1_d))
            pl4 = sum(a * b for a, b in zip(lam_d, mu1_d))
            pd4 = sum(a * b for a, b in zip(delta_d, mu1_d))
            ok = with4 > base_norm4 and pl4 >= 0 and pd4 >= 0
            if not ok or len(items) < 500:
                item = FiltrationItem(
                    mu=Weight(mu_d),
                    mu1=Weight(mu1_d),
                    norm_with=Fraction(with4, 4),
                    norm_without=base_norm,
                    pairing_lambda=Fraction(pl4, 4),
                    pairing_delta=Fraction(pd4, 4),
                )
                if len(items) < 500:
                    items.append(item)
                if not ok:
                    violations.append(item)
    return FiltrationReport(
        height_bound=height_bound,
        enumerated=enumerated,
        dominant_count=dominant_count,
        items=tuple(items),
        violations=tuple(violations),
        truncated=truncated,
        cert_weight_pairing=cert_pairing,
        cert_unitary_support=cert_support,
    )


# --- the sample ----------------------------------------------------------------


@functools.lru_cache(maxsize=1)
def _sample():
    """Seeded corpus sample, PER_KIND parameters of each group kind, as
    (psi, psi_plus, datum_plus, height)."""
    rng = random.Random(SEED)
    params = []
    signed = list(corpus(signed=True))
    for kind in ("Sp", "SOodd", "SOeven"):
        params += rng.sample([psi for psi in signed if psi.group.kind == kind], PER_KIND)
    out = []
    for psi in params:
        offs = canonical_offsets(psi)
        plus = dominate(psi, offs)
        datum = aq_datum(plus, enumerate_levis(plus)[0])
        out.append((psi, plus, datum, 2 * max(offs, default=0)))
    return out


def _pair_sharing_a_sweep():
    """The first two signed-corpus parameters whose filtration sweeps share
    a layout and a height but not the shifts, as (psi, datum_plus, height)."""
    first = {}
    for psi in corpus(signed=True):
        offs = canonical_offsets(psi)
        plus = dominate(psi, offs)
        datum = aq_datum(plus, enumerate_levis(plus)[0])
        height = 2 * max(offs, default=0)
        key = (datum.levi.a_list, datum.levi.g0.rank, datum.levi.g0.kind, height)
        if key in first and lambda_tilde(first[key][0]) != lambda_tilde(psi):
            return first[key], (psi, datum, height)
        first.setdefault(key, (psi, datum, height))
    raise AssertionError("no two corpus parameters share a sweep")


def _doubled_roots(datum):
    levi = datum.levi
    return [r.doubled for r in nilradical_roots(levi.a_list, levi.g0.rank, levi.g0.kind)]


def _layer_union(layers, digits):
    """The zero state and the states of the sweep's layers, sorted, after
    checking that each layer is sorted, that no state is in two layers and
    that no layer holds the zero state."""
    for layer in layers:
        assert all(a < b for a, b in zip(layer, layer[1:])), "a layer is not sorted"
    states = [y for layer in layers for y in layer]
    assert len(set(states)) == len(states), "two layers share a state"
    assert digits.zero not in states, "a layer holds the zero state"
    return sorted([digits.zero, *states])


def _new_monoid_sums(roots, max_height, cap):
    """The packed sweep's states, zero included, decoded to coordinate
    tuples in sorted order."""
    layers, truncated, digits = aq._monoid_sums(tuple(roots), max_height, cap)
    n = len(roots[0]) if roots else 0
    return [digits.decode(y, range(n)) for y in _layer_union(layers, digits)], truncated


# --- the tests -----------------------------------------------------------------


def test_monoid_sums_match_oracle_on_corpus_sample():
    capped = 0
    for _psi, _plus, datum, height in _sample():
        roots = _doubled_roots(datum)
        old = old_monoid_sums(roots, height, FILTRATION_STATE_CAP)
        assert _new_monoid_sums(roots, height, FILTRATION_STATE_CAP) == old
        capped += old[1]
    assert capped, "the sample must include sweeps stopped at the state cap"


def test_monoid_sums_truncate_at_the_same_point():
    for _psi, _plus, datum, height in _sample():
        roots = _doubled_roots(datum)
        # the full state count, or a cut-down one for the capped sweeps
        states = len(old_monoid_sums(roots, height, 3000)[0])
        for cap in (states - 2, states - 1, states, states + 1):
            assert _new_monoid_sums(roots, height, cap) == old_monoid_sums(roots, height, cap)


def test_monoid_sums_cap_boundary_flags():
    roots = [(2, -2), (2, 2), (4, 0)]
    states, truncated = old_monoid_sums(roots, 4, 10**6)
    assert not truncated
    n = len(states)
    # n states fit while at most cap + 1 are known; one more new state trips the flag
    assert _new_monoid_sums(roots, 4, n - 1) == (states, False)
    assert _new_monoid_sums(roots, 4, n - 2)[1]
    assert len(_new_monoid_sums(roots, 4, n - 2)[0]) == n - 1


@settings(max_examples=150, deadline=None)
@given(
    st.integers(1, 3).flatmap(
        lambda n: st.lists(st.tuples(*[st.integers(-4, 4)] * n), min_size=1, max_size=5, unique=True)
    ),
    st.integers(-2, 6),
    st.integers(0, 80),
)
def test_monoid_sums_match_oracle_on_random_roots(roots, height, cap):
    assert _new_monoid_sums(roots, height, cap) == old_monoid_sums(roots, height, cap)


@settings(max_examples=150, deadline=None)
@given(
    st.integers(1, 4).flatmap(
        lambda n: st.tuples(
            st.lists(st.tuples(*[st.integers(-4, 4)] * n), min_size=1, max_size=5, unique=True),
            st.lists(st.tuples(*[st.integers(-3, 3)] * n), max_size=4),
            st.sets(st.integers(0, n - 1)),
        )
    ),
    st.integers(-2, 5),
    st.integers(0, 60),
    st.data(),
)
def test_packed_columns_carry_linear_functionals(drawn, height, cap, data):
    coords, funcs, zeroed = drawn
    n = len(coords[0])
    # some coordinate columns zero in every row, and an all-zero functional
    coords = [tuple(0 if i in zeroed else v for i, v in enumerate(r)) for r in coords]
    funcs = funcs + [(0,) * n]
    rows = [r + tuple(sum(map(mul, f, r)) for f in funcs) for r in coords]
    layers, truncated, digits = aq._monoid_sums(tuple(rows), height, cap)
    width = len(rows[0])
    decoded = {y: digits.decode(y, range(width)) for y in _layer_union(layers, digits)}
    assert ([v[:n] for v in decoded.values()], truncated) == old_monoid_sums(coords, height, cap)
    cols = data.draw(st.sets(st.integers(0, width - 1)))
    c, h = digits.nonneg(cols)
    m, z = digits.zeros(cols)
    for y, v in decoded.items():
        x = v[:n]
        assert list(v[n:]) == [sum(map(mul, f, x)) for f in funcs]
        assert ((y + c) & h == h) == all(v[i] >= 0 for i in cols)
        assert (y & m == z) == all(v[i] == 0 for i in cols)
    assert decoded[digits.zero] == (0,) * width


def test_filtration_and_range_reports_match_oracle():
    for psi, plus, datum, height in _sample():
        new = aq.filtration_vanishing(datum, psi, height_bound=height)
        old = old_filtration_vanishing(datum, psi, height_bound=height)
        for field in FiltrationReport.__dataclass_fields__:
            assert getattr(new, field) == getattr(old, field), (str(psi), field)
        for levi in enumerate_levis(plus):
            for side in (plus, psi):
                d = aq_datum(side, levi)
                assert aq.range_check(d) == old_range_check(d), (str(side), str(levi))


def test_filtration_matches_oracle_with_small_caps():
    for psi, _plus, datum, height in _sample()[:6]:
        for cap in (0, 1, 37):
            new = aq.filtration_vanishing(datum, psi, height_bound=height, state_cap=cap)
            assert new == old_filtration_vanishing(datum, psi, height_bound=height, state_cap=cap)


def test_filtration_matches_oracle_when_the_pairing_certificate_fails(monkeypatch):
    """Reversed shifts make lambda pair negatively with some roots, so the
    sweep finds violations, past the first 500 items too, where only the
    suspect states are decoded."""
    sample = _sample()  # the data are built with the true shifts
    true_shifts = aq.lambda_tilde

    def reversed_shifts(psi, group=None):
        return true_shifts(psi, group)[::-1]

    monkeypatch.setattr(aq, "lambda_tilde", reversed_shifts)
    monkeypatch.setitem(globals(), "lambda_tilde", reversed_shifts)
    late = 0
    for psi, _plus, datum, height in sample:
        new = aq.filtration_vanishing(datum, psi, height_bound=height, state_cap=3000)
        assert new == old_filtration_vanishing(datum, psi, height_bound=height, state_cap=3000)
        late += len(new.violations) - sum(v in new.items for v in new.violations)
    assert late, "the sample must have violations past the reported items"


def test_layout_sweep_shared_by_parameters_with_other_shifts():
    cases = _pair_sharing_a_sweep()
    cold = []
    for psi, datum, height in cases:
        aq._layout_sweep.cache_clear()
        cold.append(aq.filtration_vanishing(datum, psi, height_bound=height))
    aq._layout_sweep.cache_clear()
    warm = [aq.filtration_vanishing(datum, psi, height_bound=height) for psi, datum, height in cases]
    info = aq._layout_sweep.cache_info()
    assert (info.misses, info.hits) == (1, 1)
    assert warm == cold
    assert warm == [old_filtration_vanishing(datum, psi, height_bound=height) for psi, datum, height in cases]
    assert cold[0].items != cold[1].items  # the shifts show in the items


def test_layout_sweep_keeps_reversed_and_certified_sweeps_apart(monkeypatch):
    """A reversed-shift sweep fails the pairing certificate and is cached
    under its own key; the certified sweep of the same layout, before and
    after it, still matches the oracle."""
    true_shifts = aq.lambda_tilde

    def reversed_shifts(psi, group=None):
        return true_shifts(psi, group)[::-1]

    failed = 0
    for psi, _plus, datum, height in _sample():
        aq._layout_sweep.cache_clear()
        certified = []
        for shifts in (true_shifts, reversed_shifts, true_shifts):
            monkeypatch.setattr(aq, "lambda_tilde", shifts)
            monkeypatch.setitem(globals(), "lambda_tilde", shifts)
            new = aq.filtration_vanishing(datum, psi, height_bound=height, state_cap=3000)
            assert new == old_filtration_vanishing(datum, psi, height_bound=height, state_cap=3000)
            certified.append(new.cert_weight_pairing)
        assert certified[0] and certified[2]
        if _doubled_roots(datum):
            # the certified sweep is run once, the reversed one shares it
            # only if it passes the certificate too
            info = aq._layout_sweep.cache_info()
            assert (info.misses, info.hits) == ((1, 2) if certified[1] else (2, 1))
        failed += not certified[1]
    assert failed, "the sample must have reversed shifts that fail the certificate"
