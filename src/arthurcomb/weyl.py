"""Exact root system and Weyl group machinery for the classical families.

Weight coordinates are half-integers stored as doubled integers, so every
orbit, dominance and pairing computation here is exact.  Family A with
rank n is the symmetric group S_n permuting n coordinates (Cartan label
A_{n-1}); families B, C, D are signed permutation groups on n coordinates
with the usual sign constraints.  For family D the ``extended`` flag
adjoins the outer automorphism (a single sign flip), which gives the full
hyperoctahedral group acting on D-type data.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Iterator

__all__ = [
    "GroupType",
    "Weight",
    "WeylElement",
    "weight",
    "weyl_order",
    "weyl_elements",
    "simple_roots",
    "positive_roots",
    "reflection",
    "orbit",
    "dominant_rep",
    "is_dominant",
    "pairing",
    "norm_sq",
    "half_sum_positive_roots",
    "kostant_reps",
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

    def is_zero(self) -> bool:
        return not any(self.doubled)

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

    @staticmethod
    def identity(n: int) -> "WeylElement":
        return WeylElement(tuple(range(n)), (1,) * n)

    @property
    def n(self) -> int:
        return len(self.src)

    def is_identity(self) -> bool:
        return self.src == tuple(range(self.n)) and all(s == 1 for s in self.signs)

    def apply_doubled(self, x: tuple[int, ...]) -> tuple[int, ...]:
        return tuple(self.signs[i] * x[self.src[i]] for i in range(len(x)))

    def apply(self, w: Weight) -> Weight:
        if len(w) != self.n:
            raise ValueError("length mismatch")
        return Weight(self.apply_doubled(w.doubled))

    def __mul__(self, other: "WeylElement") -> "WeylElement":
        # (self*other).x = self(other(x))
        src = tuple(other.src[self.src[i]] for i in range(self.n))
        signs = tuple(self.signs[i] * other.signs[self.src[i]] for i in range(self.n))
        return WeylElement(src, signs)

    def inverse(self) -> "WeylElement":
        inv_src = [0] * self.n
        inv_signs = [1] * self.n
        for i, j in enumerate(self.src):
            inv_src[j] = i
            inv_signs[j] = self.signs[i]
        return WeylElement(tuple(inv_src), tuple(inv_signs))

    def neg_count(self) -> int:
        return self.signs.count(-1)


def weyl_order(t: GroupType) -> int:
    """Order of the acting group (2^n n! for B/C and extended D, etc.)."""
    n = t.rank
    if t.family == "A":
        return math.factorial(n)
    if t.family in ("B", "C"):
        return 2**n * math.factorial(n)
    if t.extended:
        return 2**n * math.factorial(n)
    return 2 ** max(n - 1, 0) * math.factorial(n)


def weyl_elements(t: GroupType) -> Iterator[WeylElement]:
    """Enumerate the full acting group.  Intended for small ranks."""
    n = t.rank
    for perm in itertools.permutations(range(n)):
        if t.family == "A":
            yield WeylElement(perm, (1,) * n)
            continue
        for signs in itertools.product((1, -1), repeat=n):
            if t.family == "D" and not t.extended and signs.count(-1) % 2:
                continue
            yield WeylElement(perm, signs)


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


def positive_roots(t: GroupType) -> list[Weight]:
    """The positive roots, grouped by first coordinate: for each i in
    turn, e_i - e_j and (B, C, D) e_i + e_j for each j > i, then (B, C)
    the root e_i or 2 e_i."""
    n = t.rank
    single = {"B": 2, "C": 4}.get(t.family)
    roots = []
    for i in range(n):
        for j in range(i + 1, n):
            roots.append(_vector(n, (i, 2), (j, -2)))
            if t.family != "A":
                roots.append(_vector(n, (i, 2), (j, 2)))
        if single:
            roots.append(_vector(n, (i, single)))
    return roots


def is_positive_root_vector(x: tuple[int, ...]) -> bool:
    """Positivity of a root image: first nonzero coordinate is positive."""
    for v in x:
        if v:
            return v > 0
    return False


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


def orbit(t: GroupType, w: Weight) -> tuple[frozenset[Weight], int]:
    """Full orbit of ``w`` under the acting group, plus stabilizer order.

    Enumerated by breadth-first closure under the simple reflections (and
    the outer flip for extended D); the orbit is usually much smaller
    than the group for singular weights.
    """
    _check_length(t, w)
    seen = _closure(w.doubled, [g.apply_doubled for g in generators(t)])
    orb = frozenset(Weight(x) for x in seen)
    return orb, weyl_order(t) // len(orb)


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


def levi_subgroup(t: GroupType, levi_simple_roots: Iterable[Weight]) -> set[WeylElement]:
    """The reflection subgroup generated by a subset of the simple roots."""
    simples = set(simple_roots(t))
    levi = list(levi_simple_roots)
    for a in levi:
        if a not in simples:
            raise ValueError(f"{a} is not a simple root of {t}")
    return _closure(WeylElement.identity(t.rank), [reflection(t, a).__mul__ for a in levi])


def kostant_reps(t: GroupType, levi_simple_roots: Iterable[Weight]) -> list[WeylElement]:
    """Minimal coset representatives for W / W_L.

    Each representative w maps every positive root of the Levi subsystem
    to a positive root, and every group element factors uniquely as
    (representative) * (element of W_L).
    """
    levi = list(levi_simple_roots)
    w_l = levi_subgroup(t, levi)
    levi_doubled = [a.doubled for a in levi]
    reps = [
        w
        for w in weyl_elements(t)
        if all(is_positive_root_vector(w.apply_doubled(a)) for a in levi_doubled)
    ]
    if len(reps) * len(w_l) != weyl_order(t):
        raise RuntimeError("coset representative count mismatch")
    reps.sort(key=lambda e: (e.neg_count(), e.src, e.signs))
    return reps
