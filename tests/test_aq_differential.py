"""Differential tests: the packed-integer filtration sweep and the
memoized packet translation against the code they replaced.

The oracle functions below are the earlier implementations of
``aq._monoid_sums``, ``aq.range_check`` and ``aq.filtration_vanishing``,
and of the per-entry packet path (``params.component_group``,
``params.quotient_map`` with ``QuotientMap.push_character``,
``aq.aq_datum`` and ``aq.translate_packet``), and of the hand-built root
data of a layout (``aq.nilradical_roots``, the sweep's Levi-dominance
functionals and ``aq._delta_l1``), unchanged apart from their names and
the private helpers they used, which are inlined or copied here.  The
package must give the same states, the same truncation point and equal
reports on a seeded sample of the signed criterion-6 corpus, which
includes sweeps stopped at the state cap, whether a layout's sweep is
run afresh or read from the cache; and equal packets, vanishing
entries, kernels and pushed characters on a seeded sample of the signed
criterion-7 corpus.  The tuple-based component group and quotient map,
with their element listing and listing surjectivity check
(``old_elements``, ``old_onto``), are the oracle for the bit-mask ones
on every signed-corpus parameter and its psi_+, and for the rank check
on seeded random maps, onto or not.  ``plain_monoid_sums`` is the
packed sweep that extends every state of a layer by every row, in the
given order; ``aq._monoid_sums`` extends each state only by the rows at
or above the row that first reached it, and must give the plain sweep's
layers one by one, its flag and its digit layout: at the state cap, at
caps around a sweep's size, at every small cap and at negative caps, and
with the cap at the chunk boundaries where the sweep checks it, all but
the first also with the rows reversed and shuffled, on random rows with
repeated and zero rows, and with no rows at all.
"""

import functools
import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from operator import mul

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arthurcomb import aq
from arthurcomb.aq import (
    FILTRATION_STATE_CAP,
    AqDatum,
    FiltrationItem,
    FiltrationReport,
    PacketData,
    RangeResult,
    aq_datum,
    enumerate_levis,
    lambda_tilde,
    nilradical_roots,
    packet_data,
    translate_packet,
)
from arthurcomb.params import (
    Block,
    ComponentGroup,
    ParameterError,
    ParityError,
    QuotientMap,
    _onto,
    canonical_offsets,
    component_group,
    corpus,
    dominate,
    domination_offsets,
    good_parity,
    quotient_map,
)
from arthurcomb.weyl import GroupType, Weight, norm_sq, pairing, positive_roots
from oracles import delta_u, is_dominant

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


def plain_monoid_sums(rows, max_height, cap):
    """The packed sweep that extends every state of a layer by every row."""
    digits = aq._Digits(max(map(abs, col)) * max(max_height, 0) for col in zip(*rows))
    packed = [sum(v << sh for v, sh in zip(r, digits.shifts)) for r in rows]
    seen = {digits.zero}
    layers = []
    frontier = [digits.zero]
    truncated = False
    for _h in range(max_height):
        if truncated or not frontier:
            break
        nxt = []
        for x in frontier:
            for r in packed:
                y = x + r
                if y not in seen:
                    if len(seen) > cap:
                        truncated = True
                        break
                    seen.add(y)
                    nxt.append(y)
            if truncated:
                break
        nxt.sort()
        layers.append(nxt)
        frontier = nxt
    return layers, truncated, digits


def old_range_check(d):
    a_list, n0, kind = d.levi.a_list, d.levi.g0.rank, d.levi.g0.kind
    roots = nilradical_roots(a_list, n0, kind)
    if not roots:
        return RangeResult("good")
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
    return RangeResult(verdict)


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


# --- oracle: the per-entry packet translation ---------------------------------


def old_canonical_character(group, values):
    v = tuple(values)
    if len(v) != len(group.basis) or any(x not in (1, -1) for x in v):
        raise ParameterError("character values must be +-1 per basis block")
    if not group.relation_nontrivial:
        return v
    mask = tuple(-1 if d % 2 else 1 for d in group.dims)
    w = tuple(a * b for a, b in zip(v, mask))
    return min(v, w, key=lambda u: tuple(0 if x == 1 else 1 for x in u))


def old_characters(group):
    raw = itertools.product((1, -1), repeat=len(group.basis))
    return tuple(sorted({old_canonical_character(group, v) for v in raw}, reverse=True))


@dataclass(frozen=True)
class OldComponentGroup:
    """A(psi) with every element listed when it is built."""

    basis: tuple
    dims: tuple
    det_relation: bool
    elements: tuple
    s_psi: tuple

    @property
    def relation_nontrivial(self):
        return self.det_relation and any(d % 2 for d in self.dims)


def _group_fields(group):
    return group.basis, group.dims, group.det_relation, group.elements, group.s_psi


def old_elements(dims, det_relation):
    elements = []
    for signs in itertools.product((1, -1), repeat=len(dims)):
        if det_relation:
            det = 1
            for s, d in zip(signs, dims):
                if s == -1 and d % 2:
                    det = -det
            if det != 1:
                continue
        elements.append(signs)
    return tuple(sorted(elements, reverse=True))


def old_component_group(psi):
    if not good_parity(psi).ok:
        raise ParityError("component group requires good parity")
    basis = tuple(Block(b.t2, b.a, b.eta) for b in psi.blocks)
    dims = tuple(b.dim for b in psi.blocks)
    det_relation = psi.group.kind in ("Sp", "SOeven")
    s_psi = tuple(-1 if b.a % 2 == 0 else 1 for b in basis)
    return OldComponentGroup(
        basis=basis,
        dims=dims,
        det_relation=det_relation,
        elements=old_elements(dims, det_relation),
        s_psi=s_psi,
    )


class OldQuotientMap:
    def __init__(self, source, target, index_map):
        self.source, self.target, self.index_map = source, target, index_map

    def push(self, s_plus):
        if tuple(s_plus) not in self.source.elements:
            raise ParameterError("element not in the source group")
        out = [1] * len(self.target.basis)
        for i, j in enumerate(self.index_map):
            out[j] *= s_plus[i]
        return tuple(out)

    def kernel(self):
        ident = (1,) * len(self.target.basis)
        return tuple(s for s in self.source.elements if self.push(s) == ident)

    def character_descends(self, values_plus):
        fibers = {}
        for i, j in enumerate(self.index_map):
            fibers.setdefault(j, set()).add(values_plus[i])
        return all(len(vals) == 1 for vals in fibers.values())

    def push_character(self, values_plus):
        if not self.character_descends(values_plus):
            return None
        out = [1] * len(self.target.basis)
        for i, j in enumerate(self.index_map):
            out[j] = values_plus[i]
        return old_canonical_character(self.target, out)


def old_quotient_map(psi_plus, psi):
    domination_offsets(psi, psi_plus)
    source = old_component_group(psi_plus)
    target = old_component_group(psi)
    target_index = {b.key: j for j, b in enumerate(target.basis)}
    disc_keys = [(t2, a, 1) for t2, a in psi.discrete]
    disc_pos = 0
    index_map = []
    for b in psi_plus.blocks:
        if b.t2 > 0:
            index_map.append(target_index[disc_keys[disc_pos]])
            disc_pos += b.mult
        else:
            index_map.append(target_index[b.key])
    qm = OldQuotientMap(source, target, tuple(index_map))
    if not old_onto(qm):
        raise RuntimeError("quotient map is not surjective")
    return qm


def old_onto(qm):
    return {qm.push(s) for s in qm.source.elements} == set(qm.target.elements)


# the oracle's own eps_G of each kind, so that it reads nothing of
# ``ClassicalGroup`` beyond the kind
EPSILON_G = {"Sp": Fraction(1), "SOodd": Fraction(1, 2), "SOeven": Fraction(0)}


def old_lambda_tilde(psi):
    a_list = tuple(a for _t2, a in psi.discrete)
    n0 = psi.group.rank - sum(a_list)
    eps2 = int(2 * EPSILON_G[psi.group.kind])
    out = []
    for i, (t2, a) in enumerate(psi.discrete):
        d = t2 + a - 1 + eps2 + 2 * (sum(a_list[i + 1 :]) + n0)
        if d % 2:
            raise ParityError(f"t~_{i + 1} = {Fraction(d, 2)} is not an integer (bad parity)")
        out.append(d // 2)
    return out


def old_aq_datum(psi, levi):
    shifts = old_lambda_tilde(psi)
    aq._check_levi(psi, levi)
    return AqDatum(levi, tuple(shifts), "sigma")


def old_packet_data(psi, entries):
    group = old_component_group(psi)
    return PacketData(psi, tuple((d, old_canonical_character(group, v)) for d, v in entries))


def old_translate_packet(packet_plus, psi):
    """(packet, vanishing, quotient map)."""
    psi_plus = packet_plus.psi
    qm = old_quotient_map(psi_plus, psi)
    shifts_plus = old_lambda_tilde(psi_plus)
    shifts = old_lambda_tilde(psi)
    entries = []
    dropped = []
    for datum, values in packet_plus.entries:
        if list(datum.t_tilde) != shifts_plus:
            raise ParameterError(
                f"entry shifts {datum.t_tilde} do not match the dominating parameter"
            )
        if old_range_check(datum).verdict != "good":
            raise ParameterError(f"{datum.label()} is not in the good range")
        pushed = qm.push_character(values)
        new_datum = AqDatum(datum.levi, tuple(shifts), datum.sigma)
        if pushed is None:
            dropped.append((new_datum, values))
        else:
            entries.append((new_datum, pushed))
    return PacketData(psi, tuple(entries)), tuple(dropped), qm


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


def _plain_layers(rows, max_height, cap):
    """Check that ``aq._monoid_sums`` gives the layers, flag and digit
    layout of the plain sweep."""
    layers, truncated, digits = aq._monoid_sums(tuple(rows), max_height, cap)
    plain_layers, plain_truncated, plain_digits = plain_monoid_sums(rows, max_height, cap)
    assert layers == plain_layers
    assert truncated == plain_truncated
    for field in aq._Digits.__slots__:
        assert getattr(digits, field) == getattr(plain_digits, field), field


def _row_orders(rows):
    """``rows`` as given, reversed and in a seeded shuffle: the sweep
    extends each state by the rows in their given order, and the cap
    keeps the states found first, so the kept states are checked under
    orders other than the ascending one."""
    shuffled = list(rows)
    random.Random(SEED).shuffle(shuffled)
    return [list(rows), list(rows)[::-1], shuffled]


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
        _plain_layers(roots, height, FILTRATION_STATE_CAP)
        capped += old[1]
    assert capped, "the sample must include sweeps stopped at the state cap"


def test_monoid_sums_truncate_at_the_same_point():
    for _psi, _plus, datum, height in _sample():
        roots = _doubled_roots(datum)
        # the full state count, or a cut-down one for the capped sweeps
        states = len(old_monoid_sums(roots, height, 3000)[0])
        for cap in (states - 2, states - 1, states, states + 1):
            assert _new_monoid_sums(roots, height, cap) == old_monoid_sums(roots, height, cap)
            for rows in _row_orders(roots):
                _plain_layers(rows, height, cap)


def test_monoid_sums_layers_at_every_small_cap():
    # each cap falls in a layer of its own at some height, and at caps
    # below the first layer's size the sweep stops in layer 1
    layouts = {tuple(_doubled_roots(datum)) for _psi, _plus, datum, _height in _sample()}
    for roots in sorted(layouts):
        for rows in _row_orders(roots):
            for height in range(6):
                for cap in (-5, -1, *range(61)):
                    _plain_layers(rows, height, cap)
    # no rows: the zero state is extended by nothing
    for height in (-1, 0, 3):
        for cap in (-1, 0, 5):
            _plain_layers((), height, cap)


def _found_per_walked_state(rows, layer):
    """How many new states each state of layer ``layer - 1`` finds in
    the plain order, as it is walked to build layer ``layer`` (>= 1)."""
    layers, _truncated, digits = plain_monoid_sums(rows, layer, 10**9)
    packed = [sum(v << sh for v, sh in zip(r, digits.shifts)) for r in rows]
    seen = {digits.zero, *itertools.chain(*layers[: layer - 1])}
    counts = []
    for x in ([digits.zero], *layers)[layer - 1]:
        known = len(seen)
        seen.update(x + r for r in packed)
        counts.append(len(seen) - known)
    return counts


def test_monoid_sums_cap_at_chunk_boundaries():
    """The sweep checks the cap once per chunk of walked states.  On
    corpus layouts whose walked layer spans more than two chunks, the
    cap falls on the first and the last new state found by the walked
    states at chunk offsets 0, 1, 63-65 and 127-129, at those offsets of
    the new layer, on its last state and at its end."""
    chunk = aq._CAP_CHUNK
    offsets = (0, 1, chunk - 1, chunk, chunk + 1, 2 * chunk - 1, 2 * chunk, 2 * chunk + 1)
    layouts = {((1, 1), 1, "Sp"), ((1, 1, 1), 0, "Sp"), ((1, 1, 1), 0, "SOeven")}
    checked = 0
    for psi, _plus, datum, _height in _sample():
        levi = datum.levi
        if (levi.a_list, levi.g0.rank, levi.g0.kind) not in layouts:
            continue
        layouts.discard((levi.a_list, levi.g0.rank, levi.g0.kind))
        roots = _doubled_roots(datum)
        sizes = [len(layer) for layer in plain_monoid_sums(roots, 8, 10**9)[0]]
        # the first layer built by walking more than two chunks
        layer = next(h for h in range(2, 9) if sizes[h - 2] > 2 * chunk + 1)
        before = 1 + sum(sizes[: layer - 1])  # the states known before it
        for rows in _row_orders(roots):
            found = list(itertools.accumulate(_found_per_walked_state(rows, layer), initial=0))
            kept = {*offsets, sizes[layer - 1] - 1, sizes[layer - 1]}
            kept |= {found[j] for j in offsets} | {found[j + 1] - 1 for j in offsets}
            for k in sorted(kept):
                _plain_layers(rows, layer + 1, before - 1 + k)
                layers, truncated, _digits = aq._monoid_sums(tuple(rows), layer + 1, before - 1 + k)
                assert truncated and len(layers) == layer + (k == sizes[layer - 1]), (str(psi), k)
                checked += 1
    assert not layouts, "the sample must hold every chosen layout"
    assert checked >= 150, checked


def test_monoid_sums_keep_rows_equal_to_the_key():
    # layer 1 is (0,1), (1,0) and the cap falls in layer 2; the sweep
    # must extend (0,1) by its own key, (0,1), and by both copies of
    # (1,0): comparing with > in place of >= loses (0,2)
    rows = [(1, 0), (1, 0), (0, 1)]
    _plain_layers(rows, 2, 4)
    layers, truncated, digits = aq._monoid_sums(tuple(rows), 2, 4)
    assert truncated
    assert [digits.decode(y, range(2)) for y in layers[1]] == [(0, 2), (1, 1)]


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


@settings(max_examples=200, deadline=None)
@given(
    st.integers(1, 3).flatmap(
        lambda n: st.lists(st.tuples(*[st.integers(-3, 3)] * n), min_size=1, max_size=5)
    ),
    st.integers(-1, 6),
    st.integers(-5, 80),
    st.data(),
)
def test_monoid_sums_layers_with_repeated_and_zero_rows(rows, height, cap, data):
    rows, n = list(rows), len(rows[0])
    for extra in (rows[data.draw(st.integers(0, len(rows) - 1))], (0,) * n):
        rows.insert(data.draw(st.integers(0, len(rows))), extra)
    _plain_layers(rows, height, cap)
    assert _new_monoid_sums(rows, height, cap) == old_monoid_sums(rows, height, cap)


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
    h = digits.nonneg(cols)
    for y, v in decoded.items():
        x = v[:n]
        assert list(v[n:]) == [sum(map(mul, f, x)) for f in funcs]
        assert (y & h == h) == all(v[i] >= 0 for i in cols)
        # a column zero in every row is zero in every state
        assert all(v[i] == 0 for i in zeroed)
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


def _reversed_shifts(psi):
    """The shifts of psi in reverse order, so that lambda pairs negatively
    with some nilradical roots.  No parameter has such shifts (see
    ``test_aq.py::test_lambda_tilde_is_positive_and_strictly_decreasing``);
    only these tests give them to the pairing certificate."""
    return lambda_tilde(psi)[::-1]


def test_failed_pairing_certificate_fails_the_report(monkeypatch):
    """At cap 0 no state is read, so the certificate alone must fail the
    report."""
    sample = _sample()  # the data are built with the true shifts
    monkeypatch.setattr(aq, "lambda_tilde", _reversed_shifts)
    failed = {0: 0, 3000: 0}
    for psi, _plus, datum, height in sample:
        for cap in failed:
            rep = aq.filtration_vanishing(datum, psi, height_bound=height, state_cap=cap)
            if not rep.cert_weight_pairing:
                assert not rep.passed, (str(psi), cap)
                assert cap or not rep.violations, str(psi)
                failed[cap] += 1
    assert failed == {0: 7, 3000: 7}, "the sample must have reversed shifts that fail the certificate"


def test_layout_sweep_does_not_depend_on_the_shifts(monkeypatch):
    """A reversed-shift call reads the sweep of the true shifts from the
    cache, and the counts of the two reports agree."""
    for psi, _plus, datum, height in _sample():
        aq._layout_sweep.cache_clear()
        reports = []
        for shifts in (lambda_tilde, _reversed_shifts):
            monkeypatch.setattr(aq, "lambda_tilde", shifts)
            rep = aq.filtration_vanishing(datum, psi, height_bound=height, state_cap=3000)
            reports.append((rep.enumerated, rep.dominant_count, rep.truncated))
        assert reports[0] == reports[1], str(psi)
        info = aq._layout_sweep.cache_info()
        assert (info.misses, info.hits) == ((1, 1) if _doubled_roots(datum) else (0, 0)), str(psi)


# --- one capped sweep for every height at or above its stop layer ------------


def _capped_corpus_layout():
    """The first signed-corpus parameter of the SOodd layout a = (1,1,1,1),
    n_0 = 0 at each of its heights, as height: (psi, datum_plus, height);
    the sweep stops at the state cap below every one of those heights."""
    out = {}
    for psi in corpus(signed=True):
        if psi.group.kind != "SOodd":
            continue
        offs = canonical_offsets(psi)
        plus = dominate(psi, offs)
        datum = aq_datum(plus, enumerate_levis(plus)[0])
        height = 2 * max(offs, default=0)
        if (datum.levi.a_list, datum.levi.g0.rank) == ((1, 1, 1, 1), 0):
            out.setdefault(height, (psi, datum, height))
    return out


def _layers(datum, height, cap):
    layers, truncated, _digits = aq._monoid_sums(tuple(_doubled_roots(datum)), height, cap)
    return layers, truncated


def _check_one_sweep_at_and_above_the_stop_layer(cases, cap, near=(-2, -1, 0, 1)):
    """``cases`` are (psi, datum_plus, height) of one layout whose sweep
    stops at ``cap``.  With L its stop layer, the calls are the highest
    case, then heights L + k (k in ``near``, heights at least 0, in
    increasing order) of its parameter, then the other cases.  Each report
    equals the oracle's, whether the cache is cleared before the call
    (cold) or holds the calls before it (warm), and the warm calls run one
    sweep for every height >= L and one for each height below L."""
    psi, datum, top = max(cases, key=lambda c: c[2])
    layers, truncated = _layers(datum, top, cap)
    assert truncated, "the sweep must stop at the cap"
    stop = len(layers)
    heights = sorted({max(stop + k, 0) for k in near} - {top})
    below = [h for h in heights if h < stop]
    calls = [(psi, datum, top)] + [(psi, datum, h) for h in heights]
    calls += [c for c in cases if c[2] != top]
    oracle = [old_filtration_vanishing(d, p, height_bound=h, state_cap=cap) for p, d, h in calls]
    assert [rep.truncated for rep in oracle] == [h >= stop for _p, _d, h in calls]
    cold = []
    for p, d, h in calls:
        aq._layout_sweep.cache_clear()
        cold.append(aq.filtration_vanishing(d, p, height_bound=h, state_cap=cap))
    aq._layout_sweep.cache_clear()
    warm = [aq.filtration_vanishing(d, p, height_bound=h, state_cap=cap) for p, d, h in calls]
    info = aq._layout_sweep.cache_info()
    assert cold == oracle, (str(psi), cap)
    assert warm == oracle, (str(psi), cap)
    assert (info.misses, info.hits) == (1 + len(below), len(calls) - 1 - len(below)), (str(psi), cap)
    return stop, layers[-1]


def test_capped_corpus_sweep_is_run_once_for_every_height_at_or_above_its_stop_layer():
    cases = _capped_corpus_layout()
    assert sorted(cases) == [58, 60, 62, 64]
    # the oracle takes about a second per call at the full cap, so two
    # of the four heights and L-1, L stand for the layout
    stop, _last = _check_one_sweep_at_and_above_the_stop_layer(
        [cases[58], cases[64]], FILTRATION_STATE_CAP, near=(-1, 0)
    )
    assert stop < 58


def test_capped_sample_sweeps_are_run_once_for_every_height_at_or_above_their_stop_layer():
    checked = {0: 0, 1: 0, 37: 0, "filled": 0}
    for psi, _plus, datum, height in _sample():
        # a cap reached exactly at the end of layer 2: the first new state
        # of layer 3 stops the sweep, so its stop layer holds no state
        filled = sum(map(len, _layers(datum, 2, 10**6)[0]))
        for cap, name in ((0, 0), (1, 1), (37, 37), (filled, "filled")):
            if not _layers(datum, height, cap)[1]:
                continue  # no roots, height 0, or all states fit under the cap
            stop, last = _check_one_sweep_at_and_above_the_stop_layer([(psi, datum, height)], cap)
            assert name != "filled" or (stop, last) == (3, [])
            checked[name] += 1
    assert min(checked.values()) >= 5, checked


def test_evicted_capped_sweep_runs_again_at_its_recorded_height(monkeypatch):
    """Once a capped sweep has left the cache, a call at another height at
    or above its stop layer runs one sweep, at the height that
    ``_STOP_LAYERS`` recorded, and reports what the oracle reports at the
    requested height."""
    cap = 37
    psi, _plus, datum, height = next(
        case for case in _sample() if _layers(case[2], case[3], cap)[1]
    )
    aq._layout_sweep.cache_clear()
    assert aq.filtration_vanishing(datum, psi, height_bound=height, state_cap=cap).truncated
    levi = datum.levi
    stop, ran_at = aq._STOP_LAYERS[(levi.a_list, levi.g0.rank, levi.g0.kind, cap)]
    # fill the cache with cheap sweeps: one root, three states, no cap reached
    for small_cap in range(1000, 1000 + aq._layout_sweep.cache_info().maxsize):
        aq._layout_sweep((1,), 0, "Sp", 2, small_cap)
    heights = []
    monoid_sums = aq._monoid_sums
    monkeypatch.setattr(
        aq, "_monoid_sums", lambda rows, h, c: heights.append(h) or monoid_sums(rows, h, c)
    )
    requested = stop if stop != ran_at else stop + 1
    rep = aq.filtration_vanishing(datum, psi, height_bound=requested, state_cap=cap)
    assert heights == [ran_at]
    assert rep.height_bound == requested
    assert rep == old_filtration_vanishing(datum, psi, height_bound=requested, state_cap=cap)


# --- violations from the suspects, items on first read ------------------------


def _oracle_dominant(layout, roots, height, cap):
    """The nonzero Levi-dominant states of the oracle sweep of ``roots``,
    as doubled coordinate tuples in increasing order, by the oracle's
    dominance test for ``layout``."""
    a_list, n0, kind = layout
    sums, _truncated = old_monoid_sums(roots, height, cap)
    spans = [(r.start, r.stop) for r in _block_ranges(a_list)]
    g0_type = GroupType(_G0_FAMILY[kind], n0) if n0 else None
    return [
        mu
        for mu in sums
        if any(mu)
        and all(mu[s] >= mu[s + 1] for lo, hi in spans for s in range(lo, hi - 1))
        and (g0_type is None or is_dominant(g0_type, Weight(mu[len(mu) - n0 :])))
    ]


def test_suspects_in_the_head_are_found(monkeypatch):
    """With delta_L1 negated, a dominant state pairs <= 0 with it, so the
    first 500 dominant states hold suspects.  The sweep marks exactly the
    suspects a decode of every dominant state finds, and the violations
    are those of head plus suspects."""
    true_delta = aq._delta_l1
    monkeypatch.setattr(aq, "_delta_l1", lambda a_list: tuple(-v for v in true_delta(a_list)))
    cap = 3000
    in_head = past_head = 0
    aq._layout_sweep.cache_clear()
    try:
        for psi, _plus, datum, height in _sample():
            if not _doubled_roots(datum):
                continue
            a_list, n0, kind = datum.levi.a_list, datum.levi.g0.rank, datum.levi.g0.kind
            n_u = sum(a_list)
            *_counts, digits, head, suspects = aq._layout_sweep(a_list, n0, kind, height, cap)
            coords = range(n_u + n0)
            decoded = [digits.decode(y, coords) for y in suspects]
            dominant = _oracle_dominant((a_list, n0, kind), _doubled_roots(datum), height, cap)
            delta = aq._delta_l1(a_list)
            expected = [
                mu for mu in dominant if sum(map(mul, delta, mu)) < 0 or not any(mu[:n_u])
            ]
            assert decoded == expected, str(psi)
            assert [digits.decode(y, coords) for y in head] == dominant[:500]
            in_head += len(set(expected) & set(dominant[:500]))
            past_head += len(set(expected) - set(dominant[:500]))

            lam = tuple(2 * t for t, a in zip(lambda_tilde(psi), a_list) for _ in range(a))
            base = tuple(map(sum, zip(lam, delta)))
            candidates = sorted(set(dominant[:500]) | set(expected))
            items = [
                FiltrationItem(
                    mu=Weight(mu),
                    norm_with=Fraction(sum((b + m) ** 2 for b, m in zip(base, mu)), 4),
                    norm_without=Fraction(sum(b * b for b in base), 4),
                    pairing_lambda=Fraction(sum(map(mul, lam, mu)), 4),
                    pairing_delta=Fraction(sum(map(mul, delta, mu)), 4),
                )
                for mu in candidates
            ]
            rep = aq.filtration_vanishing(datum, psi, height_bound=height, state_cap=cap)
            assert rep.cert_weight_pairing, str(psi)
            assert rep.violations == tuple(it for it in items if not it.ok), str(psi)
    finally:
        aq._layout_sweep.cache_clear()  # no sweep of the negated delta_L1 stays behind
    assert in_head and past_head, "the sample must have suspects in and past the head"


def _dense_rows(layout, coords):
    """Sweep rows for coordinate rows ``coords``: each followed by its
    dense pairings with the Levi-dominance functionals and delta_L1."""
    a_list, n0, kind = layout
    dominance = [tuple(v // 2 for v in r) for r in aq._levi_roots(a_list, n0, kind)]
    functionals = dominance + [aq._delta_l1(a_list)]
    return tuple(r + tuple(sum(map(mul, f, r)) for f in functionals) for r in coords)


# (layout, height, cap, rows added to the nilradical's): the residual
# positive roots, whose unitary part is zero, and for n_u > 0 the row
# -e_1 (doubled), which puts states with a negative first coordinate
# before the zero-unitary ones; each sweep has zero-unitary suspects in
# the head and past it
_ZERO_UNITARY_SWEEPS = [
    (((1,), 2, "Sp"), 12, 6000, [(-2, 0, 0)]),
    (((), 3, "SOodd"), 16, 10_000, []),
]


@pytest.mark.parametrize("layout, height, cap, added", _ZERO_UNITARY_SWEEPS)
def test_zero_unitary_suspects_match_the_per_state_decode(monkeypatch, layout, height, cap, added):
    """No nilradical root has a zero unitary part, so with the rows of
    ``_layout_rows`` patched to include such rows, the sweep's suspects
    equal those a decode of every dominant state finds: a negative
    delta_L1 pairing or a zero unitary part (every dominant state when
    n_u = 0)."""
    a_list, n0, kind = layout
    n_u = sum(a_list)
    coords = [r.doubled for r in nilradical_roots(*layout)] + added
    coords += [(0,) * n_u + r.doubled for r in positive_roots(GroupType(_G0_FAMILY[kind], n0))]
    rows = _dense_rows(layout, coords)
    layout_rows = aq._layout_rows
    monkeypatch.setattr(aq, "_layout_rows", lambda *key: (rows, layout_rows(*key)[1]))
    # the patched sweep records its stop layer under the real layout's key
    monkeypatch.setattr(aq, "_STOP_LAYERS", {})
    aq._layout_sweep.cache_clear()
    try:
        *_counts, digits, head, suspects = aq._layout_sweep(a_list, n0, kind, height, cap)
    finally:
        aq._layout_sweep.cache_clear()
    coord_range = range(n_u + n0)
    dominant = _oracle_dominant(layout, coords, height, cap)
    delta = old_delta_l1(a_list)
    expected = [mu for mu in dominant if sum(map(mul, delta, mu)) < 0 or not any(mu[:n_u])]
    assert [digits.decode(y, coord_range) for y in suspects] == expected
    head_states = dominant[:500]
    assert [digits.decode(y, coord_range) for y in head] == head_states
    zero = [mu for mu in expected if not any(mu[:n_u])]
    assert zero and zero[0] in head_states and zero[-1] not in head_states
    if n_u:
        assert dominant[0] < zero[0], "a dominant state must come before the interval"
    else:
        assert zero == dominant


def test_items_are_decoded_on_first_read(monkeypatch):
    psi, _plus, datum, height = _sample()[0]
    calls = []
    decode = aq._Digits.decode
    monkeypatch.setattr(aq._Digits, "decode", lambda self, y, cols: calls.append(y) or decode(self, y, cols))
    rep = aq.filtration_vanishing(datum, psi, height_bound=height)
    assert rep.dominant_count >= 500
    assert len(calls) == 0
    first = rep.items
    assert len(calls) == 500
    assert rep.items is first
    assert len(calls) == 500
    assert first == old_filtration_vanishing(datum, psi, height_bound=height).items


# --- root data of a layout against the hand-built oracle ----------------------


def _vector(n, *entries):
    d = [0] * n
    for i, v in entries:
        d[i] = v
    return tuple(d)


def old_nilradical_roots(a_list, n0, kind):
    n = sum(a_list) + n0
    blocks = _block_ranges(a_list)
    g0_range = range(n - n0, n)
    roots = []
    for bi, blk in enumerate(blocks):
        for s in blk:
            for t in blk:
                if t > s:
                    roots.append(_vector(n, (s, 2), (t, 2)))
            for later in blocks[bi + 1 :]:
                for t in later:
                    roots.append(_vector(n, (s, 2), (t, -2)))
                    roots.append(_vector(n, (s, 2), (t, 2)))
            for t in g0_range:
                roots.append(_vector(n, (s, 2), (t, -2)))
                roots.append(_vector(n, (s, 2), (t, 2)))
            if kind == "Sp":
                roots.append(_vector(n, (s, 4)))
            elif kind == "SOodd":
                roots.append(_vector(n, (s, 2)))
    return roots


def old_dominance(a_list, n0, kind):
    n_u = sum(a_list)
    n = n_u + n0
    spans = [(r.start, r.stop) for r in _block_ranges(a_list)] + [(n_u, n)]
    dominance = [_vector(n, (s, 1), (s + 1, -1)) for lo, hi in spans for s in range(lo, hi - 1)]
    if n0 >= 1 and kind != "SOeven":
        dominance.append(_vector(n, (n - 1, 1)))
    elif n0 >= 2:
        dominance.append(_vector(n, (n - 2, 1), (n - 1, 1)))
    return dominance


def old_delta_l1(a_list):
    return tuple((a - 1) - 2 * k for a in a_list for k in range(a))


def _compositions(total):
    if total == 0:
        yield ()
    for first in range(1, total + 1):
        for rest in _compositions(total - first):
            yield (first, *rest)


def _layouts(max_rank):
    return [
        (a_list, n - n_u, kind)
        for kind in ("Sp", "SOodd", "SOeven")
        for n in range(max_rank + 1)
        for n_u in range(n + 1)
        for a_list in _compositions(n_u)
    ]


def _positive_multiple(f, g):
    """Whether g = c f for some c > 0."""
    i = next((i for i, v in enumerate(f) if v), None)
    if i is None or len(f) != len(g):
        return False
    return all(fv * g[i] == gv * f[i] for fv, gv in zip(f, g)) and f[i] * g[i] > 0


def test_layout_root_data_match_oracle():
    """On every layout of rank n <= 7 of each kind, the nilradical roots
    are the oracle's in order (the order decides where a capped sweep
    stops), each Levi simple root is a positive multiple of the oracle's
    dominance functional, and delta_L1 is the oracle's."""
    layouts = _layouts(7)
    assert len(layouts) == 765
    for layout in layouts:
        a_list = layout[0]
        assert [r.doubled for r in nilradical_roots(*layout)] == old_nilradical_roots(*layout), layout
        new = aq._levi_roots(*layout)
        old = old_dominance(*layout)
        assert len(new) == len(old) and all(map(_positive_multiple, old, new)), layout
        assert aq._delta_l1(a_list) == old_delta_l1(a_list), layout


def test_layout_rows_match_dense_pairings():
    """The sweep's rows, whose columns are summed over each functional's
    non-zero entries, equal the dense dot products of every root with
    every functional (delta_L1 on the unitary coordinates alone) on every
    layout of rank n <= 7."""
    layouts = _layouts(7)
    assert len(layouts) == 765
    for layout in layouts:
        rows, k = aq._layout_rows(*layout)
        assert rows == _dense_rows(layout, aq._layout_roots(*layout)[0]), layout
        assert k == sum(layout[0]) + layout[1] + len(aq._levi_roots(*layout))


# --- packet translation against the per-entry oracle ---------------------------


def _translate(packet, psi):
    """``translate_packet`` as the oracle's (packet, vanishing, map)."""
    out = translate_packet(packet, psi)
    return out.packet, out.vanishing, out.quotient


def _outcome(translate, packet, psi):
    """(packet, vanishing) of a translation, or the error it raises."""
    try:
        return translate(packet, psi)[:2]
    except ParameterError as exc:
        return type(exc), str(exc)


def test_packet_translation_matches_per_entry_oracle():
    """On about 100 seeded signed-corpus parameters, with every Levi datum
    of psi_+ paired with every character of A(psi_+): the packet, the
    translations to psi_+ and to psi (each made twice, so the second reads
    what the first kept), the kernels and the push of every sign vector
    equal the oracle's.  psi's own packet, translated to psi, is refused in
    the same words when one of its data is only weakly fair."""
    rng = random.Random(SEED)
    sample = rng.sample(list(corpus(signed=True)), 100)
    vanishing = refused = 0
    for psi in sample:
        plus = dominate(psi, canonical_offsets(psi))
        levis = enumerate_levis(plus)
        chars = component_group(plus).characters()
        assert chars == old_characters(old_component_group(plus)), str(psi)
        new_pk = packet_data(plus, [(aq_datum(plus, levi), eps) for levi in levis for eps in chars])
        old_pk = old_packet_data(
            plus, [(old_aq_datum(plus, levi), eps) for levi in levis for eps in chars]
        )
        assert new_pk == old_pk, str(psi)
        for target in (plus, psi, plus, psi):
            old = old_translate_packet(old_pk, target)
            new = translate_packet(new_pk, target)
            assert (new.packet, new.vanishing) == old[:2], (str(psi), str(target))
            qm, old_qm = quotient_map(plus, target), old[2]
            assert new.quotient is qm
            for new_group, old_group in ((qm.source, old_qm.source), (qm.target, old_qm.target)):
                assert _group_fields(new_group) == _group_fields(old_group), str(psi)
            assert qm.index_map == old_qm.index_map, str(psi)
            assert qm.kernel() == old_qm.kernel(), str(psi)
            for values in itertools.product((1, -1), repeat=len(qm.source.basis)):
                assert qm.push_character(values) == old_qm.push_character(values), (str(psi), values)
        vanishing += len(new.vanishing)
        own_chars = component_group(psi).characters()
        own = packet_data(psi, [(aq_datum(psi, levi), eps) for levi in levis for eps in own_chars])
        outcome = _outcome(_translate, own, psi)
        assert outcome == _outcome(old_translate_packet, own, psi), str(psi)
        refused += outcome[0] is ParameterError
    assert vanishing, "the sample must hold characters that do not descend"
    assert refused, "the sample must hold packets refused for their range"


# --- component groups and quotient maps against the tuple oracle ---------------


def _check_map(qm, old_qm, label):
    """Every public value of a quotient map, on every sign vector of its
    source, against the oracle's."""
    assert qm.kernel_order == len(old_qm.source.elements) // len(old_qm.target.elements), label
    assert qm.kernel() == old_qm.kernel(), label
    for values in itertools.product((1, -1), repeat=len(qm.source.basis)):
        assert qm.push_character(values) == old_qm.push_character(values), (label, values)
        if values in old_qm.source.elements:
            assert qm.push(values) == old_qm.push(values), (label, values)


def test_component_groups_and_quotient_maps_match_tuple_oracle_over_corpus():
    """On every signed-corpus parameter psi and its psi_+: each group's
    fields, elements and characters, and the membership and canonical
    form of every sign vector; and for (psi_+, psi), (psi_+, psi_+) and
    (psi, psi), the push of every element, and the descent and push of
    every character, and the kernel, equal the tuple-based oracle's."""
    maps = 0
    for psi in corpus(signed=True):
        plus = dominate(psi, canonical_offsets(psi))
        for p in (psi, plus):
            grp, old = component_group(p), old_component_group(p)
            assert _group_fields(grp) == _group_fields(old), str(p)
            assert grp.characters() == old_characters(old), str(p)
            for values in itertools.product((1, -1), repeat=len(grp.basis)):
                assert (values in grp) == (values in old.elements), (str(p), values)
                assert grp.canonical_character(values) == old_canonical_character(old, values), (str(p), values)
        for source, target in ((plus, psi), (plus, plus), (psi, psi)):
            _check_map(quotient_map(source, target), old_quotient_map(source, target), str(source))
            maps += 1
    assert maps == 3 * 1072


def _random_map(rng):
    """A quotient map between random groups: 1-6 source blocks, each sent
    to one of 1-4 target blocks (so a target block may get none), with
    random dimensions, with or without the determinant relation."""

    def group(k):
        dims = tuple(rng.randint(1, 4) for _ in range(k))
        basis = tuple(Block(2 * (k - i), 1) for i in range(k))
        return ComponentGroup(basis, dims, rng.random() < 0.7, (1,) * k)

    source, target = group(rng.randint(1, 6)), group(rng.randint(1, 4))
    index_map = tuple(rng.randrange(len(target.basis)) for _ in source.basis)
    return QuotientMap(source, target, index_map)


def test_rank_check_matches_the_listing_on_random_maps():
    """The rank check says onto exactly when the pushes of the listed
    source elements make up the listed target, on seeded random groups
    and index maps; among them maps that miss a target block, maps whose
    image breaks the target's determinant relation, and onto maps.  On
    each, push, descent and kernel agree with the oracle too."""
    rng = random.Random(SEED)
    seen = {"onto": 0, "empty fiber": 0, "relation broken": 0}
    for n in range(600):
        qm = _random_map(rng)
        src, tgt = qm.source, qm.target
        old_qm = OldQuotientMap(
            OldComponentGroup(src.basis, src.dims, src.det_relation, old_elements(src.dims, src.det_relation), src.s_psi),
            OldComponentGroup(tgt.basis, tgt.dims, tgt.det_relation, old_elements(tgt.dims, tgt.det_relation), tgt.s_psi),
            qm.index_map,
        )
        onto = old_onto(old_qm)
        assert _onto(len(src.basis), src.odd, qm.fibers, tgt.odd) == onto, (qm, n)
        seen["onto"] += onto
        seen["empty fiber"] += len(set(qm.index_map)) < len(tgt.basis)
        seen["relation broken"] += any(old_qm.push(s) not in old_qm.target.elements for s in old_qm.source.elements)
        _check_map(qm, old_qm, (qm, n))
    assert all(seen.values()) and seen["onto"] < 600, seen
