"""Differential tests: the backtracking orbit-uniqueness search against the
enumerator it replaced.

The oracle below is the earlier ``torus.uniqueness_check``: it builds
every distinct rearrangement of the translation weight with
``_distinct_permutations`` (kept here unchanged), sorts nu_+ + mu and
compares it with the sorted GL target.  It counts the rearrangements
by enumeration instead of by the closed form.  ``old_nodes`` counts the
search nodes independently, on the unpruned tree: a node is a non-empty
prefix of some rearrangement whose sums with nu_+ still fit inside the
target multiset.  The package
must give an equal ``UniquenessReport``, field for field.
"""

import random
from collections import Counter
from operator import add

from hypothesis import given, settings
from hypothesis import strategies as st

from arthurcomb import torus
from arthurcomb.params import (
    canonical_offsets,
    corpus,
    dominate,
    inf_char,
)
from arthurcomb.torus import UniquenessReport, translation_weight, uniqueness_check
from arthurcomb.weyl import Weight

SEED = 20260810
FULL_SAMPLE = 6


# --- oracle: the enumerating code ----------------------------------------------


def _distinct_permutations(items):
    counts = Counter(items)
    keys = sorted(counts, reverse=True)
    n = len(items)
    out = [0] * n

    def rec(depth):
        if depth == n:
            yield tuple(out)
            return
        for k in keys:
            if counts[k]:
                counts[k] -= 1
                out[depth] = k
                yield from rec(depth + 1)
                counts[k] += 1

    yield from rec(0)


def old_matches(nu_plus, lam_items, target):
    """Matching rearrangements, in descending order, and their count."""
    target = tuple(sorted(target, reverse=True))
    matches = []
    rearrangements = 0
    for mu in _distinct_permutations(lam_items):
        rearrangements += 1
        s = tuple(sorted((a + b for a, b in zip(nu_plus, mu)), reverse=True))
        if s == target:
            matches.append(mu)
    matches.sort(reverse=True)
    return matches, rearrangements


def old_nodes(nu_plus, lam_items, target):
    """Non-empty prefixes of rearrangements whose sums with nu_+ fit inside
    the target multiset, counted on a walk of the whole prefix tree."""
    want = Counter(target)
    unused = Counter(lam_items)
    used = Counter()
    n = len(lam_items)

    def walk(depth, fits):
        if depth == n:
            return 0
        total = 0
        for k in list(unused):
            if unused[k]:
                s = nu_plus[depth] + k
                unused[k] -= 1
                used[s] += 1
                ok = fits and used[s] <= want[s]
                total += ok + walk(depth + 1, ok)
                used[s] -= 1
                unused[k] += 1
        return total

    return walk(0, True)


def old_uniqueness_check(psi, psi_plus):
    lam_items = translation_weight(psi, psi_plus).lambda_GL.doubled
    aligned = tuple(-x for x in lam_items)
    nu_plus = torus._nu_display_doubled(psi_plus)
    target = inf_char(psi, "GL").doubled
    matches, rearrangements = old_matches(nu_plus, lam_items, target)
    return UniquenessReport(
        unique=matches == [aligned],
        aligned=Weight(aligned),
        matches=tuple(Weight(m) for m in matches),
        rearrangements=rearrangements,
        nodes=old_nodes(nu_plus, lam_items, target),
    )


# --- the cases -------------------------------------------------------------------


def _canonical_pairs():
    for psi in corpus():
        yield psi, dominate(psi, canonical_offsets(psi))


def _assert_same_report(psi, plus):
    new = uniqueness_check(psi, plus)
    old = old_uniqueness_check(psi, plus)
    for field in UniquenessReport.__dataclass_fields__:
        assert getattr(new, field) == getattr(old, field), (str(psi), str(plus), field)
    return new


# --- the tests -------------------------------------------------------------------


def test_reports_match_oracle_up_to_720_rearrangements():
    checked = 0
    for psi, plus in _canonical_pairs():
        if uniqueness_check(psi, plus).rearrangements <= 720:
            _assert_same_report(psi, plus)
            checked += 1
    assert checked > 500


def test_reports_match_oracle_at_threshold_zero():
    not_unique = 0
    for psi in corpus():
        plus = dominate(psi, canonical_offsets(psi, threshold=0), threshold=0)
        not_unique += not _assert_same_report(psi, plus).unique
    assert not_unique, "threshold 0 must include pairs with several matches"


def test_reports_match_oracle_on_full_factorial_sample():
    full = [
        (psi, plus)
        for psi, plus in _canonical_pairs()
        if uniqueness_check(psi, plus).rearrangements == 40320
    ]
    for psi, plus in random.Random(SEED).sample(full, FULL_SAMPLE):
        _assert_same_report(psi, plus)


def test_corpus_searches_have_no_dead_ends():
    # at the canonical offsets the aligned subtraction is the only path:
    # one node per coordinate of nu_+
    for psi, plus in _canonical_pairs():
        rep = uniqueness_check(psi, plus)
        assert rep.unique
        assert rep.nodes == psi.group.dual_dim


_small_ints = st.integers(-3, 3)


@st.composite
def _search_inputs(draw):
    n = draw(st.integers(0, 6))
    nu_plus = tuple(draw(st.lists(_small_ints, min_size=n, max_size=n)))
    lam = tuple(draw(st.lists(st.integers(-2, 2), min_size=n, max_size=n)))
    if draw(st.booleans()):
        mu = draw(st.permutations(lam))
        target = tuple(map(add, nu_plus, mu))
    else:
        target = tuple(draw(st.lists(_small_ints, min_size=n, max_size=n)))
    return nu_plus, lam, draw(st.permutations(target))


@settings(max_examples=300, deadline=None)
@given(_search_inputs())
def test_search_matches_oracle_on_random_tuples(args):
    nu_plus, lam, target = args
    matches, nodes = torus._orbit_matches(nu_plus, lam, target)
    assert matches == old_matches(nu_plus, lam, target)[0]
    assert nodes == old_nodes(nu_plus, lam, target)
