"""Reference forms of package computations, for the tests to check against.

Each is a plain, slow or direct form of something the package computes
another way: the whole Weyl group and its orbits, the dominant-chamber
test, delta(u) of a Levi layout, the quasi-split test of a real form, and
parameter merging and enumeration with a new block for every block and
every search node.  None of them is part of the package.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator

from arthurcomb.aq import _layout_roots
from arthurcomb.params import ArthurParameter, Block, ClassicalGroup, _block_candidates
from arthurcomb.weyl import GroupType, Weight, _check_length


@dataclass(frozen=True)
class SignedPermutation:
    """A Weyl group element; acts by ``(w.x)[i] = signs[i] * x[src[i]]``."""

    src: tuple[int, ...]
    signs: tuple[int, ...]


def weyl_elements(t: GroupType) -> Iterator[SignedPermutation]:
    """Enumerate the full acting group: S_n for A, every signed
    permutation for B, C and D.  Intended for small ranks."""
    n = t.rank
    for perm in itertools.permutations(range(n)):
        if t.family == "A":
            yield SignedPermutation(perm, (1,) * n)
            continue
        for signs in itertools.product((1, -1), repeat=n):
            yield SignedPermutation(perm, signs)


def apply(g: SignedPermutation, w: Weight) -> Weight:
    if len(w) != len(g.src):
        raise ValueError("length mismatch")
    return Weight(tuple(s * w.doubled[i] for s, i in zip(g.signs, g.src)))


def brute_orbit(t: GroupType, w: Weight) -> set[Weight]:
    """Apply every group element."""
    return {apply(g, w) for g in weyl_elements(t)}


def is_dominant(t: GroupType, w: Weight) -> bool:
    """w pairs >= 0 with every simple root of t.  For D the acting group
    also flips one sign, so each of its orbits meets this chamber twice
    when no entry is zero."""
    _check_length(t, w)
    c = w.doubled
    if any(c[i] < c[i + 1] for i in range(len(c) - 1)):
        return False
    if t.family == "A" or not c:
        return True
    if t.family in ("B", "C"):
        return c[-1] >= 0
    # D: the last entry may be negative, dominated by the one before
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


def arthur_parameter(group: ClassicalGroup, blocks: Iterable[Block]) -> ArthurParameter:
    """Merge equal blocks by summing multiplicities per key, then build
    every block anew and sort canonically."""
    merged: dict[tuple[int, int, int], int] = {}
    for b in blocks:
        merged[b.key] = merged.get(b.key, 0) + b.mult
    out = [Block(t2, a, eta, m) for (t2, a, eta), m in merged.items()]
    out.sort(key=lambda b: b.key, reverse=True)
    return ArthurParameter(group, tuple(out))


def enumerate_parameters(
    group: ClassicalGroup, t_max=Fraction(7, 2), a_max: int = 4
) -> Iterator[ArthurParameter]:
    """Every good-parity parameter with bounded block data, by recursion
    over the candidate blocks with a new block at each search node."""
    cands = _block_candidates(group, int(Fraction(t_max) * 2), a_max)

    def rec(idx: int, remaining: int, chosen: list[Block]) -> Iterator[ArthurParameter]:
        if remaining == 0:
            yield ArthurParameter(group, tuple(chosen))
            return
        if idx == len(cands):
            return
        b = cands[idx]
        unit = b.rho_dim * b.a
        for m in range(remaining // unit, 0, -1):
            chosen.append(Block(b.t2, b.a, b.eta, m))
            yield from rec(idx + 1, remaining - unit * m, chosen)
            chosen.pop()
        yield from rec(idx + 1, remaining, chosen)

    yield from rec(0, group.dual_dim, [])
