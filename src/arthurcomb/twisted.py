"""The twisted diagonal torus of GL(n) and extremal-weight trace identities.

The pinned outer automorphism acts on the torus by theta(t)_i =
1/t_{n+1-i}; the norm map projects onto the theta-coinvariants, which is
a maximal torus of the endoscopic group.  A theta-invariant dominant
weight mu gives a twisted action on the sum of its extremal weight
lines, normalized so theta fixes the highest-weight line.  Theta acts
trivially on every theta-fixed extremal line and permutes the others off
the diagonal, so the twisted trace is the sum of the theta-fixed
extremal characters, and it matches the symmetrized character of the
endoscopic side evaluated through the norm map.  The checks here verify
this numerically on random regular elements of the unit torus, a sweep
of weights at a time, and verify exactly that Kostant representatives
of theta-stable cosets are theta-fixed.  Both read the theta-fixed
extremal weights of mu from one C_m orbit of its head.
"""

from __future__ import annotations

import cmath
import itertools
import random
from operator import add, mul, neg, sub
from typing import Callable, Iterable, Iterator, Sequence

from .weyl import Weight

__all__ = [
    "theta_weight",
    "theta_perm",
    "norm_map",
    "kostant_theta_invariance",
    "verify_transfer_identities",
    "theta_invariant_dominant_weights",
]


def _regular_norm(vals: tuple[complex, ...], tol: float) -> bool:
    """Sufficient desk-scale regularity of a trial, read off its norm
    coordinates: pairwise distinct and different from +-1."""
    for i, v in enumerate(vals):
        if abs(v - 1) < tol or abs(v + 1) < tol:
            return False
        for w in vals[i + 1 :]:
            if abs(v - w) < tol:
                return False
    return True


def norm_map(t: tuple[complex, ...]) -> tuple[complex, ...]:
    """N(t)_i = t_i / t_{n+1-i} for i up to floor(n/2), t the diagonal
    entries of a torus element."""
    n = len(t)
    return tuple(t[i] / t[n - 1 - i] for i in range(n // 2))


def theta_weight(x: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(map(neg, reversed(x)))


def theta_perm(p: tuple[int, ...]) -> tuple[int, ...]:
    """Conjugation by the longest element: the theta-action on S_n."""
    return tuple(map((len(p) - 1).__sub__, reversed(p)))


def _check_twistable(n: int, mu: Weight) -> tuple[int, ...]:
    if len(mu) != n:
        raise ValueError("weight length must equal n")
    if any(d % 2 for d in mu.doubled):
        raise ValueError("GL weights must have integer coordinates")
    x = tuple(d // 2 for d in mu.doubled)
    if any(x[i] < x[i + 1] for i in range(n - 1)):
        raise ValueError("weight must be dominant (non-increasing)")
    if theta_weight(x) != x:
        raise ValueError("weight must be theta-invariant")
    return x


def _theta_fixed_targets(x: tuple[int, ...]) -> list[tuple[int, ...]]:
    """The theta-fixed rearrangements of x (theta-invariant, dominant),
    descending.  Each is set by its first m = floor(n/2) entries, a signed
    rearrangement of x's head (the middle entry of odd n is 0): the C_m
    orbit of the head, in reverse of ``_signed_orbit``'s sorted order."""
    m = len(x) // 2
    return [h + x[m : len(x) - m] + theta_weight(h) for h in reversed(_signed_orbit(x[:m]))]


def _kostant_rep(target: tuple[int, ...]) -> tuple[int, ...]:
    """The minimal-length w with target[w[i]] = x[i], x the dominant
    rearrangement of target: as x is non-increasing, w lists target's
    positions in a stable descending sort."""
    return tuple(sorted(range(len(target)), key=target.__getitem__, reverse=True))


# For each power-table index, that entry's value in each trial of a block.
_Columns = Sequence[Sequence[complex]]


def _columns(entries: Sequence[tuple[complex, ...]], bound: int) -> tuple[tuple[complex, ...], ...]:
    """The power table of a block of trials, given each trial's entries:
    for every entry e and every p in [-bound, bound], entry-major, the
    column of e**p across the trials."""
    return tuple(
        tuple(map(pow, column, itertools.repeat(p)))
        for column in zip(*entries)
        for p in range(-bound, bound + 1)
    )


# One step per Laurent monomial: the length of the prefix it shares with
# the monomial before, its power-table indices after that prefix, and the
# index of the sum it is added to.
_Steps = list[tuple[int, tuple[int, ...], int]]


def _shared(idxs: list[tuple[int, ...]]) -> list[int]:
    """For each index list, the length of the prefix it shares with the
    one before (0 for the first)."""
    out = [0]
    for prev, idx in zip(idxs, idxs[1:]):
        shared = 0
        for a, b in zip(prev, idx):
            if a != b:
                break
            shared += 1
        out.append(shared)
    return out


def _sweep_steps(xs: Sequence[tuple[int, ...]], bound: int) -> tuple[_Steps, _Steps]:
    """The twisted and the endoscopic side's steps of a sweep over the
    distinct theta-invariant dominant xs, each owned by its position in
    xs: one step per monomial, over every weight's (target, position)
    pairs, sorted descending, and over its (endoscopic head, position)
    pairs, ascending.  A monomial's indices, into the ``_columns`` of the
    same bound, are those of its non-zero exponents in coordinate order;
    in a sorted list every shared prefix is one run, so it is multiplied
    out once.

    Both compile from heads.  A target is h + mid + theta(h), h its
    first m = floor(n/2) entries and mid the same for every weight, so
    the targets descend as their heads do.  Its index list is the head's
    followed by theta(h)'s, whose coordinates lie past the head's; so
    when two heads' lists differ, the targets' lists share just the
    heads' shared prefix.  The endoscopic heads are the same heads,
    ascending."""
    n = len(xs[0])
    m = n // 2
    width = 2 * bound + 1
    base = range(bound, m * width, width)  # head coordinate i's index at exponent 0
    # theta sends (coordinate i, exponent v), index a, to (n-1-i, -v), index top - a
    top = (n - 1) * width + 2 * bound

    # every element of the C_m orbits of the weights' heads, mapped to its
    # weight's position in xs; distinct weights have disjoint orbits
    owners = {h: j for j, x in enumerate(xs) for h in _signed_orbit(x[:m])}
    desc = sorted(owners, reverse=True)
    idxs = [tuple(itertools.compress(map(add, base, h), h)) for h in desc]
    shared = _shared(idxs)
    twisted: _Steps = [
        (s, idx[s:] + tuple(map(top.__sub__, reversed(idx))), owners[h])
        for h, idx, s in zip(desc, idxs, shared)
    ]
    # ascending, each list shares with the one before what it shared,
    # descending, with the one after
    endoscopic: _Steps = [
        (s, idx[s:], owners[h]) for h, idx, s in zip(desc[::-1], idxs[::-1], [0] + shared[:0:-1])
    ]
    return twisted, endoscopic


def _sums(steps: _Steps, columns: _Columns, count: int, owners: int) -> list[Sequence[complex]]:
    """Each owner's sum of its monomials in each of the ``count`` trials
    of a block.  ``stack[d]`` is the product, left to right from
    1.0+0.0j, of the current monomial's first d table entries, kept only
    as deep as the next monomial shares; the rest of a monomial is one
    chain of lazy products, read once by its owner's sum.  So every
    distinct prefix is multiplied once, and every value is bit for bit
    its direct product, in any monomial order; each owner adds its values
    with ``+`` from 0.0+0.0j, in step order."""
    totals: list[Sequence[complex]] = [(0.0 + 0.0j,) * count] * owners
    stack: list[Sequence[complex]] = [(1.0 + 0.0j,) * count]
    nexts = [shared for shared, _rest, _owner in steps[1:]] + [0]
    for (shared, rest, owner), nxt in zip(steps, nexts):
        del stack[shared + 1 :]
        keep = max(nxt - shared, 0)
        for i in rest[:keep]:
            stack.append(list(map(mul, stack[-1], columns[i])))
        value: Iterable[complex] = stack[-1]
        for i in rest[keep:]:
            value = map(mul, value, columns[i])
        totals[owner] = list(map(add, totals[owner], value))
    return totals


def kostant_theta_invariance(n: int, mu: Weight) -> bool:
    """Check theta(w) = w for the Kostant representative of every
    theta-stable coset of W/W_mu.  Exact; returns True iff all pass."""
    x = _check_twistable(n, mu)
    return all(theta_perm(w) == w for w in map(_kostant_rep, _theta_fixed_targets(x)))


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


def _signed_orbit(head: tuple[int, ...]) -> list[tuple[int, ...]]:
    """Orbit of head under signed permutations, sorted.  An element is a
    distinct rearrangement of head's absolute values, reached from the
    sorted one by the k - 1 adjacent swaps, k = len(head) (so the work is
    bounded by the orbit, never k!), with a sign chosen for each non-zero
    entry."""
    swaps = [lambda p, i=i: p[:i] + (p[i + 1], p[i]) + p[i + 2 :] for i in range(len(head) - 1)]
    perms = _closure(tuple(sorted(map(abs, head))), swaps)
    signed = (itertools.product(*[(v, -v) if v else (0,) for v in p]) for p in perms)
    return sorted(itertools.chain.from_iterable(signed))


def verify_transfer_identities(weights: Sequence[Weight], trials: int = 100, seed: int = 0) -> list[float]:
    """Numerically compare the twisted extremal trace with the symmetrized
    endoscopic character through the norm map, for every weight of a
    sweep, in order, over one draw of the trials; the weights share one
    length n.

    nu is the first m = floor(n/2) coordinates of mu; the endoscopic
    Weyl group is the signed permutations of all m norm coordinates, and
    the identity is exact.  Random trials draw unit-modulus regular torus
    elements from the given seed; the result is each weight's maximum
    absolute residual over the trials, one float per weight, in order.

    Each residual is bit-for-bit that of evaluating every character
    directly: the trials are the first ``trials`` regular draws from
    ``random.Random(seed)``; each character is the product, left to right
    from 1.0+0.0j, of ``e**k`` (read from a block's power columns,
    ``_columns``) over its non-zero exponents k; the twisted side adds
    them with ``+`` from 0.0+0.0j in coset order (its theta-fixed
    extremal weights, descending), and the endoscopic side likewise in
    sorted orbit order.  Every distinct weight's monomials of one side,
    tagged with the weight, are merged into one sorted list (each
    weight's own order is sorted already, so the merge keeps it),
    compiled from the heads (``_sweep_steps``) and evaluated in one pass
    (``_sums``) that keeps only the prefix products the next monomial
    shares and multiplies the rest of each monomial straight into its
    sum; every distinct prefix is multiplied once.  The trials are drawn
    and tabulated in blocks of at most ``_BLOCK_VALUES`` values, and
    every weight is evaluated on a block before the next is drawn, so
    memory stays flat in ``trials``.
    """
    if not weights:
        return []
    n = len(weights[0])
    xs = [_check_twistable(n, mu) for mu in weights]
    m = n // 2
    # a repeated weight is swept once: its monomials, their order and the
    # trials are its first copy's, and so is its residual
    distinct = list(dict.fromkeys(xs))
    bound = max((abs(v) for x in distinct for v in x), default=0)
    sides = _sweep_steps(distinct, bound)
    # per trial: both sides' power columns, the kept prefixes and two sums
    # per weight
    size = max(1, _BLOCK_VALUES // ((n + m) * (2 * bound + 1) + n + 1 + 2 * len(distinct)))
    owners = len(distinct)
    worst = [0.0] * owners
    draws = _draw_iter(n, trials, seed)
    while block := list(itertools.islice(draws, size)):
        # a trial is (entries, norm map), the twisted and the endoscopic
        # side's; one side's tables are held at a time
        left, right = (
            _sums(steps, _columns([d[side] for d in block], bound), len(block), owners)
            for side, steps in enumerate(sides)
        )
        worst = [max(w, *map(abs, map(sub, a, b))) for w, a, b in zip(worst, left, right)]
        del left, right  # before the next block is drawn
    residual = dict(zip(distinct, worst))
    return [residual[x] for x in xs]


# the most complex values one block of trials holds, about 1.3 MB: its
# power columns, the prefix products the next monomial shares (never more
# than n + 1 rows) and two sums per weight
_BLOCK_VALUES = 32_768


def _draw_iter(
    n: int, trials: int, seed: int
) -> Iterator[tuple[tuple[complex, ...], tuple[complex, ...]]]:
    """The trial elements of ``verify_transfer_identities``, as (entries,
    norm map) pairs: the first ``trials`` regular draws from
    ``random.Random(seed)``."""
    rng = random.Random(seed)
    for _ in range(trials):
        for _attempt in range(1000):
            t = tuple(cmath.exp(2j * cmath.pi * rng.random()) for _ in range(n))
            nt = norm_map(t)
            if _regular_norm(nt, 1e-6):
                yield t, nt
                break
        else:
            raise RuntimeError("could not sample a regular torus element")


def theta_invariant_dominant_weights(n: int, max_entry: int) -> Iterator[Weight]:
    """All theta-invariant dominant integral weights with entries bounded
    by max_entry; the free choice is the non-increasing non-negative head."""
    m = n // 2
    for head in itertools.combinations_with_replacement(range(max_entry, -1, -1), m):
        coords = list(head)
        if n % 2:
            coords.append(0)
        coords.extend(-v for v in reversed(head))
        yield Weight(tuple(2 * v for v in coords))
