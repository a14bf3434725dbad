"""Reference forms of package computations, for the tests to check against.

Each is a plain, slow or direct form of something the package computes
another way: the whole Weyl group and its orbits, the dominant-chamber
test, delta(u) of a Levi layout and the quasi-split test of a real form.
None of them is part of the package.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator

from arthurcomb.aq import _layout_roots
from arthurcomb.params import ClassicalGroup
from arthurcomb.weyl import GroupType, Weight, _check_length


@dataclass(frozen=True)
class SignedPermutation:
    """A Weyl group element; acts by ``(w.x)[i] = signs[i] * x[src[i]]``."""

    src: tuple[int, ...]
    signs: tuple[int, ...]


def weyl_elements(t: GroupType) -> Iterator[SignedPermutation]:
    """Enumerate the full acting group.  Intended for small ranks."""
    n = t.rank
    for perm in itertools.permutations(range(n)):
        if t.family == "A":
            yield SignedPermutation(perm, (1,) * n)
            continue
        for signs in itertools.product((1, -1), repeat=n):
            if t.family == "D" and not t.extended and signs.count(-1) % 2:
                continue
            yield SignedPermutation(perm, signs)


def apply(g: SignedPermutation, w: Weight) -> Weight:
    if len(w) != len(g.src):
        raise ValueError("length mismatch")
    return Weight(tuple(s * w.doubled[i] for s, i in zip(g.signs, g.src)))


def brute_orbit(t: GroupType, w: Weight) -> set[Weight]:
    """Apply every group element."""
    return {apply(g, w) for g in weyl_elements(t)}


def is_dominant(t: GroupType, w: Weight) -> bool:
    _check_length(t, w)
    c = w.doubled
    if any(c[i] < c[i + 1] for i in range(len(c) - 1)):
        return False
    if t.family == "A":
        return True
    if not c:
        return True
    if t.family in ("B", "C") or t.extended:
        return c[-1] >= 0
    # non-extended D: last entry may be negative, dominated by the one before
    return len(c) < 2 or c[-2] >= abs(c[-1])


def delta_u(a_list: tuple[int, ...], n0: int, kind: str) -> Weight:
    """Half sum of the nilradical roots; constant on each unitary block,
    zero on the residual coordinates."""
    return Weight(_layout_roots(tuple(a_list), n0, kind)[1])


def quasi_split(g: ClassicalGroup) -> bool | None:
    if g.kind == "Sp":
        return True
    if g.signature is None:
        return None
    p, q = g.signature
    return abs(p - q) == 1 if g.kind == "SOodd" else abs(p - q) <= 2
