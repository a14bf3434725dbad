"""Translation data and the orbit-uniqueness check behind translation.

The module computes the translation weight attached to a domination
pair, runs the orbit-uniqueness check behind the translation argument as
a pruned search over all rearrangements, and transfers infinitesimal
characters from the group to the GL side.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

from .params import (
    ArthurParameter,
    ClassicalGroup,
    InfChar,
    ParameterError,
    ParityError,
    _nu_display_doubled,
    _parity_ok,
    domination_offsets,
    gl_inf_char,
)
from .weyl import Weight

__all__ = [
    "TranslationDatum",
    "translation_weight",
    "UniquenessReport",
    "uniqueness_check",
    "transfer_infchar",
]


class TranslationDatum(NamedTuple):
    """The translation weight lambda(psi_+, psi) on the GL and G sides."""

    lambda_GL: Weight
    lambda_G: Weight


def translation_weight(psi: ArthurParameter, psi_plus: ArthurParameter) -> TranslationDatum:
    """Translation weight: each T_i and -T_i repeated a_i times, zeros between.

    Layout: T_1 blocks first (descending), the central zeros, then the
    negatives in mirrored order; the G-side weight keeps the first n
    coordinates.
    """
    coords = _lambda_doubled(psi, domination_offsets(psi, psi_plus))
    return TranslationDatum(Weight(coords), Weight(coords[: psi.group.rank]))


def _lambda_doubled(psi: ArthurParameter, offs: tuple[int, ...]) -> tuple[int, ...]:
    """The GL-side translation weight of the offsets, doubled, in the
    layout of ``translation_weight``."""
    head: list[int] = []
    for T, (_t2, a) in zip(offs, psi.discrete):
        head.extend([2 * T] * a)
    zeros = psi.group.dual_dim - 2 * len(head)
    return tuple(head + [0] * zeros + [-x for x in reversed(head)])


def _counts(items: tuple[int, ...]) -> dict[int, int]:
    """The multiplicity of each value of ``items``."""
    counts: dict[int, int] = {}
    for x in items:
        counts[x] = counts.get(x, 0) + 1
    return counts


def _rearrangement_count(counts: dict[int, int]) -> int:
    """The number of distinct rearrangements of the multiset ``counts``."""
    total = math.factorial(sum(counts.values()))
    for c in counts.values():
        total //= math.factorial(c)
    return total


@dataclass(frozen=True)
class UniquenessReport:
    """Result of the pruned search over all rearrangements.

    ``matches`` lists every rearrangement mu of the translation weight
    with nu_+ + mu in the orbit of nu_psi; uniqueness means the aligned
    subtraction -lambda is the only one.  ``rearrangements`` counts all
    distinct rearrangements; ``nodes`` counts the search-tree nodes the
    backtracking visited to find the matches.
    """

    unique: bool
    aligned: Weight
    matches: tuple[Weight, ...]
    rearrangements: int
    nodes: int


def _orbit_matches(
    nu_plus: tuple[int, ...], unused: dict[int, int], target: tuple[int, ...]
) -> tuple[list[tuple[int, ...]], int]:
    """Every rearrangement mu of the multiset ``unused`` (a table of
    counts, ``_counts``) with nu_plus + mu a rearrangement of ``target``,
    and the number of search-tree nodes.  The table is used in place and
    is whole again on return.

    Backtracking (Knuth, TAOCP 7.2.2): mu is filled one position at a
    time, trying the distinct unused values in descending order, and a
    value k is taken at position i only while nu_plus[i] + k still has an
    unmatched copy in the target multiset.  Every leaf is a match and no
    match is cut off, so the result is the set of matching rearrangements
    in descending lexicographic order.  Each value taken at a position is
    one node, so a search without dead ends visits len(nu_plus) nodes.

    The search keeps no call stack: ``cursor[i]`` is the index, among the
    descending distinct values, of the next value to try at position i,
    and ``i`` is the position being filled, so any length runs.
    """
    n = len(nu_plus)
    keys = sorted(unused, reverse=True)
    missing = _counts(target)
    is_missing = missing.get
    m = len(keys)
    mu = [0] * n
    cursor = [0] * n
    matches: list[tuple[int, ...]] = []
    nodes = 0
    i = 0
    while True:
        if i == n:
            matches.append(tuple(mu))
        else:
            base = nu_plus[i]
            c = cursor[i]
            while c < m:
                k = keys[c]
                s = base + k
                if unused[k] and is_missing(s):
                    break
                c += 1
            if c < m:
                cursor[i] = c + 1
                nodes += 1
                unused[k] -= 1
                missing[s] -= 1
                mu[i] = k
                i += 1
                continue
            cursor[i] = 0
        # every value at position i is tried: give back the one at i - 1
        if i == 0:
            break
        i -= 1
        k = mu[i]
        unused[k] += 1
        missing[nu_plus[i] + k] += 1
    return matches, nodes


def uniqueness_check(psi: ArthurParameter, psi_plus: ArthurParameter) -> UniquenessReport:
    if not _parity_ok(psi):
        raise ParityError("uniqueness check requires good parity")
    # translation_weight's GL side, without its G side
    lam_items = _lambda_doubled(psi, domination_offsets(psi, psi_plus))
    nu_plus = _nu_display_doubled(psi_plus)
    # the GL infinitesimal character of psi, as a multiset
    target = _nu_display_doubled(psi)
    aligned = tuple(-x for x in lam_items)
    counts = _counts(lam_items)
    matches, nodes = _orbit_matches(nu_plus, counts, target)
    matches.sort(reverse=True)
    unique = matches == [aligned]
    return UniquenessReport(
        unique=unique,
        aligned=Weight(aligned),
        matches=tuple(Weight(m) for m in matches),
        rearrangements=_rearrangement_count(counts),
        nodes=nodes,
    )


def transfer_infchar(nu: InfChar, group: ClassicalGroup) -> InfChar:
    """Transfer a G-side infinitesimal character to GL(n*).

    The entries are doubled with their negatives, and a central zero is
    inserted exactly when n* = 2n + 1; the squared norm doubles exactly.
    """
    if nu.side != "G":
        raise ParameterError("expected a G-side infinitesimal character")
    if len(nu.doubled) != group.rank:
        raise ParameterError("rank mismatch")
    entries = list(nu.doubled) + [-d for d in nu.doubled]
    if group.dual_dim == 2 * group.rank + 1:
        entries.append(0)
    return gl_inf_char(entries)

