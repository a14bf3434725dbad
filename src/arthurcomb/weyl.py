"""Exact root data for the classical Weyl groups.

Weight coordinates are half-integers stored as doubled integers, so every
dominance, pairing and root computation here is exact.  Family A with
rank n is the symmetric group S_n permuting n coordinates (Cartan label
A_{n-1}); families B, C and D act on n coordinates by the full signed
permutation (hyperoctahedral) group.  For D that is the Weyl group with
the outer automorphism (a single sign flip) adjoined, as D-type data are
taken modulo it, so the D roots are those of D_n but a dominant
representative has every coordinate >= 0.  The module holds root
data only: it lists simple and positive roots and half sums, maps a
weight to its dominant representative and pairs weights.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from operator import attrgetter
from typing import Iterable

__all__ = [
    "GroupType",
    "Weight",
    "weight",
    "simple_roots",
    "positive_roots",
    "dominant_rep",
    "pairing",
    "norm_sq",
    "half_sum_positive_roots",
]

_FAMILIES = ("A", "B", "C", "D")


class _Value:
    """Base of the package's frozen value classes: each compares, hashes,
    prints, pickles and copies as a frozen dataclass of the same fields,
    without the methods that a dataclass compiles at every import.

    A subclass lists in ``__slots__`` its fields, in constructor order,
    then any attributes its ``__init__`` derives from them (named again in
    ``_derived``), and ``"__dict__"`` if it keeps memos; ``_fields``, as on
    a named tuple, names the fields.  Its ``__init__`` checks and sets them
    with ``object.__setattr__``; after it, assigning or deleting an
    attribute raises ``AttributeError``.  Two values are equal when they
    have one class and equal fields, the hash is that of the tuple of
    fields, and ``repr`` is ``Class(field=value, ...)``.  The hash is
    computed on the first ``hash()`` and kept in the ``_hash`` slot, so a
    value used as a key again costs one slot read.  Derived attributes,
    the kept hash and memos take no part: a pickle or a copy calls the
    constructor on the fields, which derives them again, with no memos,
    and computes its hash again when it is first hashed.
    """

    __slots__ = ("_hash",)
    _derived: tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:
        fields = tuple(s for s in cls.__slots__ if s not in cls._derived and not s.startswith("__"))
        get = attrgetter(*fields)
        cls._fields = fields
        cls._values = staticmethod(get if len(fields) > 1 else lambda obj: (get(obj),))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values(self) == self._values(other)
        return NotImplemented

    def __hash__(self) -> int:
        try:
            return self._hash
        except AttributeError:
            h = hash(self._values(self))
            object.__setattr__(self, "_hash", h)
            return h

    def __repr__(self) -> str:
        body = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({body})"

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._values(self)


class GroupType(_Value):
    """A classical Weyl group acting on ``rank`` coordinates."""

    __slots__ = ("family", "rank")

    def __init__(self, family: str, rank: int) -> None:
        if family not in _FAMILIES:
            raise ValueError(f"unknown family {family!r}")
        if rank < 0:
            raise ValueError("rank must be >= 0")
        object.__setattr__(self, "family", family)
        object.__setattr__(self, "rank", rank)

    def __str__(self) -> str:
        return f"{self.family}{self.rank}"


def _coerce_doubled(value) -> int:
    d = Fraction(value) * 2
    if d.denominator != 1:
        raise ValueError(f"{value!r} is not a half-integer")
    return int(d)


class Weight(_Value):
    """Vector of half-integers; ``doubled`` holds twice each coordinate."""

    __slots__ = ("doubled",)

    def __init__(self, doubled: tuple[int, ...]) -> None:
        object.__setattr__(self, "doubled", doubled)

    def __len__(self) -> int:
        return len(self.doubled)

    def __add__(self, other: "Weight") -> "Weight":
        if len(self) != len(other):
            raise ValueError("length mismatch")
        return Weight(tuple(a + b for a, b in zip(self.doubled, other.doubled)))

    def __str__(self) -> str:
        return "(" + ",".join(str(Fraction(d, 2)) for d in self.doubled) + ")"


def weight(values: Iterable) -> Weight:
    """Build a Weight from ints, Fractions or strings like ``"3/2"``."""
    return Weight(tuple(_coerce_doubled(v) for v in values))


def _vector(n: int, *entries: tuple[int, int]) -> Weight:
    """The length-n vector with the given (index, doubled value) entries
    and zeros elsewhere."""
    d = [0] * n
    for i, v in entries:
        d[i] = v
    return Weight(tuple(d))


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


def _check_length(t: GroupType, w: Weight) -> None:
    if len(w) != t.rank:
        raise ValueError(f"weight of length {len(w)} does not match {t}")


def dominant_rep(t: GroupType, w: Weight) -> Weight:
    """Canonical orbit representative in the closed dominant chamber.

    B, C and D: absolute values sorted non-increasing.  Family A: sorted
    non-increasing.
    """
    _check_length(t, w)
    c = w.doubled
    if t.family == "A":
        return Weight(tuple(sorted(c, reverse=True)))
    return Weight(tuple(sorted((abs(v) for v in c), reverse=True)))


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

