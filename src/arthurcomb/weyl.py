"""Exact root data and Weyl group actions for the classical families.

Weight coordinates are half-integers stored as doubled integers, so every
dominance, pairing and root computation here is exact.  Family A with
rank n is the symmetric group S_n permuting n coordinates (Cartan label
A_{n-1}); families B, C, D are signed permutation groups on n coordinates
with the usual sign constraints.  For family D the ``extended`` flag
adjoins the outer automorphism (a single sign flip), which gives the full
hyperoctahedral group acting on D-type data.  The module lists simple
and positive roots and half sums, maps a weight to its dominant
representative, and builds the simple reflections as signed
permutations; ``twisted`` builds its orbits by closure under them.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from operator import itemgetter, mul
from typing import Callable, Iterable

__all__ = [
    "GroupType",
    "Weight",
    "WeylElement",
    "weight",
    "simple_roots",
    "positive_roots",
    "reflection",
    "dominant_rep",
    "pairing",
    "norm_sq",
    "half_sum_positive_roots",
]

_FAMILIES = ("A", "B", "C", "D")


@dataclass(frozen=True)
class GroupType:
    """A classical Weyl group acting on ``rank`` coordinates."""

    family: str
    rank: int
    extended: bool = False

    def __post_init__(self) -> None:
        if self.family not in _FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        if self.rank < 0:
            raise ValueError("rank must be >= 0")
        if self.extended and self.family != "D":
            raise ValueError("extended flag only applies to family D")

    def __str__(self) -> str:
        tag = f"{self.family}{self.rank}"
        return tag + "~" if self.extended else tag


def _coerce_doubled(value) -> int:
    d = Fraction(value) * 2
    if d.denominator != 1:
        raise ValueError(f"{value!r} is not a half-integer")
    return int(d)


@dataclass(frozen=True, order=True)
class Weight:
    """Vector of half-integers; ``doubled`` holds twice each coordinate."""

    doubled: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.doubled)

    @property
    def coords(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(d, 2) for d in self.doubled)

    def __add__(self, other: "Weight") -> "Weight":
        if len(self) != len(other):
            raise ValueError("length mismatch")
        return Weight(tuple(a + b for a, b in zip(self.doubled, other.doubled)))

    def __sub__(self, other: "Weight") -> "Weight":
        if len(self) != len(other):
            raise ValueError("length mismatch")
        return Weight(tuple(a - b for a, b in zip(self.doubled, other.doubled)))

    def __neg__(self) -> "Weight":
        return Weight(tuple(-a for a in self.doubled))

    def __str__(self) -> str:
        return "(" + ",".join(str(Fraction(d, 2)) for d in self.doubled) + ")"


def weight(values: Iterable) -> Weight:
    """Build a Weight from ints, Fractions or strings like ``"3/2"``."""
    return Weight(tuple(_coerce_doubled(v) for v in values))


@dataclass(frozen=True)
class WeylElement:
    """Signed permutation; acts by ``(w.x)[i] = signs[i] * x[src[i]]``."""

    src: tuple[int, ...]
    signs: tuple[int, ...]

    def apply_doubled(self, x: tuple[int, ...]) -> tuple[int, ...]:
        # itemgetter of one index returns the entry, not a 1-tuple, and of
        # none raises
        src = self.src
        moved = itemgetter(*src)(x) if len(src) > 1 else tuple(map(x.__getitem__, src))
        return tuple(map(mul, self.signs, moved)) if -1 in self.signs else moved


def _flip(n: int, i: int) -> WeylElement:
    signs = [1] * n
    signs[i] = -1
    return WeylElement(tuple(range(n)), tuple(signs))


def _vector(n: int, *entries: tuple[int, int]) -> Weight:
    """The length-n vector with the given (index, doubled value) entries
    and zeros elsewhere."""
    d = [0] * n
    for i, v in entries:
        d[i] = v
    return Weight(tuple(d))


def generators(t: GroupType) -> list[WeylElement]:
    """Simple reflections, plus the outer flip for extended D."""
    gens = [reflection(t, a) for a in simple_roots(t)]
    if t.extended and t.rank >= 1:
        gens.append(_flip(t.rank, t.rank - 1))
    return gens


def simple_roots(t: GroupType) -> list[Weight]:
    n = t.rank
    roots = [_vector(n, (i, 2), (i + 1, -2)) for i in range(n - 1)]
    if t.family == "B" and n >= 1:
        roots.append(_vector(n, (n - 1, 2)))
    elif t.family == "C" and n >= 1:
        roots.append(_vector(n, (n - 1, 4)))
    elif t.family == "D" and n >= 2:
        roots.append(_vector(n, (n - 2, 2), (n - 1, 2)))
    return roots


def positive_roots(t: GroupType, blocks: tuple[int, ...] | None = None) -> list[Weight]:
    """The positive roots, grouped by first coordinate: for each i in
    turn, e_i - e_j and (B, C, D) e_i + e_j for each j > i, then (B, C)
    the root e_i or 2 e_i.

    Given ``blocks`` (a_1, ..., a_k), only the roots outside the standard
    Levi gl(a_1) x ... x gl(a_k) x G_0, with G_0 of the family of t on the
    last n - sum(a_i) coordinates: the roots above with first coordinate
    i < sum(a_i), which come first, without e_i - e_j for i and j in one
    block.
    """
    n = t.rank
    single = {"B": 2, "C": 4}.get(t.family)
    # ends[i]: the first j > i for which e_i - e_j is listed
    if blocks is None:
        ends = range(1, n + 1)
    else:
        ends = [end for a, end in zip(blocks, itertools.accumulate(blocks)) for _ in range(a)]
    roots = []
    for i, end in enumerate(ends):
        for j in range(i + 1, n):
            if j >= end:
                roots.append(_vector(n, (i, 2), (j, -2)))
            if t.family != "A":
                roots.append(_vector(n, (i, 2), (j, 2)))
        if single:
            roots.append(_vector(n, (i, single)))
    return roots


def reflection(t: GroupType, root: Weight) -> WeylElement:
    """The reflection in a (positive) root of t, as a signed permutation."""
    n = t.rank
    support = [i for i, v in enumerate(root.doubled) if v]
    if len(support) == 1:
        i = support[0]
        if t.family == "A":
            raise ValueError(f"{root} is not a root of {t}")
        return _flip(n, i)
    if len(support) == 2:
        i, j = support
        a, b = root.doubled[i], root.doubled[j]
        if abs(a) != abs(b):
            raise ValueError(f"{root} is not a root of {t}")
        src = list(range(n))
        src[i], src[j] = j, i
        signs = [1] * n
        if a * b > 0:
            signs[i] = signs[j] = -1
        return WeylElement(tuple(src), tuple(signs))
    raise ValueError(f"{root} is not a root of {t}")


def _check_length(t: GroupType, w: Weight) -> None:
    if len(w) != t.rank:
        raise ValueError(f"weight of length {len(w)} does not match {t}")


def _closure(start, moves: list[Callable]) -> set:
    """Everything reached from ``start`` by applying ``moves`` repeatedly,
    breadth first."""
    seen = {start}
    frontier = [start]
    while frontier:
        nxt = []
        for x in frontier:
            for move in moves:
                y = move(x)
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    return seen


def dominant_rep(t: GroupType, w: Weight) -> Weight:
    """Canonical orbit representative in the closed dominant chamber.

    B/C and extended D: coordinates sorted non-increasing, all >= 0.
    Non-extended D: all but the last >= 0, the last carries the residual
    sign (negative exactly when the entries are all nonzero and an odd
    number of them were negative).  Family A: sorted non-increasing.
    """
    _check_length(t, w)
    c = w.doubled
    if t.family == "A":
        return Weight(tuple(sorted(c, reverse=True)))
    mags = sorted((abs(v) for v in c), reverse=True)
    if t.family in ("B", "C") or t.extended:
        return Weight(tuple(mags))
    negs = sum(1 for v in c if v < 0)
    if mags and negs % 2 and mags[-1] != 0:
        mags[-1] = -mags[-1]
    return Weight(tuple(mags))


def pairing(a: Weight, b: Weight) -> Fraction:
    """Standard coordinate dot product, exact."""
    if len(a) != len(b):
        raise ValueError("length mismatch")
    return Fraction(sum(x * y for x, y in zip(a.doubled, b.doubled)), 4)


def norm_sq(a: Weight) -> Fraction:
    return pairing(a, a)


def half_sum_positive_roots(t: GroupType) -> Weight:
    n = t.rank
    if t.family == "A":
        return Weight(tuple(n - 1 - 2 * i for i in range(n)))
    if t.family == "B":
        return Weight(tuple(2 * (n - i) - 1 for i in range(n)))
    if t.family == "C":
        return Weight(tuple(2 * (n - i) for i in range(n)))
    return Weight(tuple(2 * (n - 1 - i) for i in range(n)))

