"""Weyl-invariant combinations of torus characters and translation data.

Combinations are stored orbit-by-orbit: each dominant weight stands for
its full orbit and the recorded multiplicity applies to every orbit
element, so invariance is structural.  The module also computes the
translation weight attached to a domination pair, runs the
orbit-uniqueness check behind the translation argument as a pruned
search over all rearrangements, and transfers infinitesimal characters
from the group to the GL side.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

from .params import (
    ArthurParameter,
    ClassicalGroup,
    InfChar,
    ParameterError,
    _nu_display_doubled,
    domination_offsets,
    gl_inf_char,
    g_inf_char,
    good_parity,
    inf_char,
)
from .weyl import GroupType, Weight, dominant_rep, norm_sq, orbit

__all__ = [
    "CharacterCombination",
    "character_combination",
    "trivial_combination",
    "symmetrize",
    "tensor_infchar_support",
    "TranslationDatum",
    "translation_weight",
    "UniquenessReport",
    "uniqueness_check",
    "transfer_infchar",
    "WeakUnipotenceReport",
    "weak_unipotence_norm_test",
]


@dataclass(frozen=True)
class CharacterCombination:
    """Integer combination of torus characters, invariant under the group."""

    group_type: GroupType
    terms: tuple[tuple[Weight, int], ...]

    def iter_weights(self) -> Iterator[tuple[Weight, int]]:
        """All orbit elements with their multiplicities."""
        for w, m in self.terms:
            orb, _ = orbit(self.group_type, w)
            for x in sorted(orb):
                yield x, m

    @property
    def total_terms(self) -> int:
        """Number of characters counted with multiplicity."""
        total = 0
        for w, m in self.terms:
            orb, _ = orbit(self.group_type, w)
            total += abs(m) * len(orb)
        return total


def character_combination(group_type: GroupType, terms: dict[Weight, int]) -> CharacterCombination:
    out = []
    for w, m in terms.items():
        if m == 0:
            continue
        if dominant_rep(group_type, w) != w:
            raise ParameterError(f"{w} is not dominant for {group_type}")
        out.append((w, m))
    out.sort(key=lambda wm: wm[0].doubled, reverse=True)
    return CharacterCombination(group_type, tuple(out))


def trivial_combination(group_type: GroupType) -> CharacterCombination:
    return character_combination(group_type, {Weight((0,) * group_type.rank): 1})


def symmetrize(t: GroupType, lam: Weight) -> CharacterCombination:
    """Sum of e^{-w.lam} over the whole group, stored orbit-wise.

    Every element of the orbit of -lam carries the stabilizer order as
    multiplicity, so the total term count is always the group order.
    """
    _orb, stab = orbit(t, lam)
    dom = dominant_rep(t, -lam)
    return character_combination(t, {dom: stab})


def tensor_infchar_support(nu: InfChar, combo: CharacterCombination) -> frozenset[InfChar]:
    """Infinitesimal characters hit when tensoring by the combination."""
    if nu.side != "G" or nu.group_type is None:
        raise ParameterError("expected a G-side infinitesimal character")
    if nu.group_type != combo.group_type:
        raise ParameterError(f"group mismatch: {nu.group_type} vs {combo.group_type}")
    base = nu.weight
    out = set()
    for w, _m in combo.terms:
        orb, _ = orbit(combo.group_type, w)
        for mu in orb:
            out.add(g_inf_char(combo.group_type, base + mu))
    return frozenset(out)


@dataclass(frozen=True)
class TranslationDatum:
    """The translation weight lambda(psi_+, psi) on the GL and G sides."""

    lambda_GL: Weight
    lambda_G: Weight
    offsets: tuple[int, ...]


def translation_weight(psi: ArthurParameter, psi_plus: ArthurParameter) -> TranslationDatum:
    """Translation weight: each T_i and -T_i repeated a_i times, zeros between.

    Layout: T_1 blocks first (descending), the central zeros, then the
    negatives in mirrored order; the G-side weight keeps the first n
    coordinates.
    """
    offs = domination_offsets(psi, psi_plus)
    disc = psi.discrete
    n_star = psi.group.dual_dim
    head: list[int] = []
    for T, (_t2, a) in zip(offs, disc):
        head.extend([2 * T] * a)
    zeros = n_star - 2 * len(head)
    coords = head + [0] * zeros + [-x for x in reversed(head)]
    lam = Weight(tuple(coords))
    lam_g = Weight(tuple(coords[: psi.group.rank]))
    return TranslationDatum(lam, lam_g, offs)


def _rearrangement_count(items: tuple[int, ...]) -> int:
    counts = Counter(items)
    total = math.factorial(len(items))
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
    nu_plus: tuple[int, ...], lam_items: tuple[int, ...], target: tuple[int, ...]
) -> tuple[list[tuple[int, ...]], int]:
    """Every rearrangement mu of ``lam_items`` with nu_plus + mu a
    rearrangement of ``target``, and the number of search-tree nodes.

    Backtracking (Knuth, TAOCP 7.2.2): mu is filled one position at a
    time, trying the distinct unused values in descending order, and a
    value k is taken at position i only while nu_plus[i] + k still has an
    unmatched copy in the target multiset.  Every leaf is a match and no
    match is cut off, so the result is the set of matching rearrangements
    in descending lexicographic order.  Each value taken at a position is
    one node, so a search without dead ends visits len(nu_plus) nodes.
    """
    n = len(nu_plus)
    unused = Counter(lam_items)
    keys = sorted(unused, reverse=True)
    missing = Counter(target)
    mu = [0] * n
    matches: list[tuple[int, ...]] = []
    nodes = 0

    def rec(i: int) -> None:
        nonlocal nodes
        if i == n:
            matches.append(tuple(mu))
            return
        base = nu_plus[i]
        for k in keys:
            s = base + k
            if unused[k] and missing[s]:
                nodes += 1
                unused[k] -= 1
                missing[s] -= 1
                mu[i] = k
                rec(i + 1)
                missing[s] += 1
                unused[k] += 1

    rec(0)
    return matches, nodes


def uniqueness_check(psi: ArthurParameter, psi_plus: ArthurParameter) -> UniquenessReport:
    if not good_parity(psi).ok:
        raise ParameterError("uniqueness check requires good parity")
    datum = translation_weight(psi, psi_plus)
    nu_plus = _nu_display_doubled(psi_plus)
    target = inf_char(psi, "GL").doubled
    lam_items = datum.lambda_GL.doubled
    aligned = tuple(-x for x in lam_items)
    matches, nodes = _orbit_matches(nu_plus, lam_items, target)
    matches.sort(reverse=True)
    unique = matches == [aligned]
    return UniquenessReport(
        unique=unique,
        aligned=Weight(aligned),
        matches=tuple(Weight(m) for m in matches),
        rearrangements=_rearrangement_count(lam_items),
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


@dataclass(frozen=True)
class WeakUnipotenceReport:
    """Norms in the tensor support that drop below the starting norm."""

    nu_pi: InfChar
    base_norm: Fraction
    forbidden: tuple[tuple[InfChar, Fraction], ...]

    @property
    def passed(self) -> bool:
        return not self.forbidden


def weak_unipotence_norm_test(nu_pi: InfChar, combo: CharacterCombination) -> WeakUnipotenceReport:
    base = norm_sq(nu_pi.weight)
    bad = []
    for nu in sorted(tensor_infchar_support(nu_pi, combo), key=lambda c: c.doubled, reverse=True):
        nrm = norm_sq(nu.weight)
        if nrm < base:
            bad.append((nu, nrm))
    return WeakUnipotenceReport(nu_pi, base, tuple(bad))
