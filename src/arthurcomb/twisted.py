"""The twisted diagonal torus of GL(n) and extremal-weight trace identities.

The pinned outer automorphism acts on the torus by theta(t)_i =
1/t_{n+1-i}; the norm map projects onto the theta-coinvariants, which is
a maximal torus of the endoscopic group.  A theta-invariant dominant
weight mu gives a twisted action on the sum of its extremal weight
lines, normalized so theta fixes the highest-weight line, and the
twisted trace of that action matches the symmetrized character of the
endoscopic side evaluated through the norm map.  The checks here verify
this numerically on random regular elements of the unit torus, and
verify exactly that Kostant representatives of theta-stable cosets are
theta-fixed.
"""

from __future__ import annotations

import cmath
import itertools
import random
from dataclasses import dataclass
from operator import add, mul, neg, sub
from typing import Iterable, Iterator, Sequence

from .weyl import GroupType, Weight, _closure, generators, weyl_elements

__all__ = [
    "TwistedTorusElement",
    "torus_element",
    "theta_weight",
    "theta_perm",
    "ThetaFixedWeyl",
    "theta_fixed_weyl",
    "norm_map",
    "ExtremalRep",
    "extremal_rep",
    "twisted_trace_extremal",
    "kostant_theta_invariance",
    "TransferIdentityReport",
    "verify_transfer_identity",
    "verify_transfer_identities",
    "theta_invariant_dominant_weights",
]


@dataclass(frozen=True)
class TwistedTorusElement:
    """Diagonal torus element t; the twisted element is t x theta."""

    entries: tuple[complex, ...]

    def __post_init__(self) -> None:
        if any(e == 0 for e in self.entries):
            raise ValueError("torus entries must be nonzero")

    @property
    def n(self) -> int:
        return len(self.entries)

    def is_regular(self, tol: float = 1e-8) -> bool:
        """Sufficient desk-scale regularity: the norm coordinates are
        pairwise distinct and different from +-1."""
        return _regular_norm(norm_map(self), tol)


def _regular_norm(vals: tuple[complex, ...], tol: float) -> bool:
    for i, v in enumerate(vals):
        if abs(v - 1) < tol or abs(v + 1) < tol:
            return False
        for w in vals[i + 1 :]:
            if abs(v - w) < tol:
                return False
    return True


def torus_element(entries: Iterable[complex]) -> TwistedTorusElement:
    return TwistedTorusElement(tuple(complex(e) for e in entries))


def norm_map(t: TwistedTorusElement) -> tuple[complex, ...]:
    """N(t)_i = t_i / t_{n+1-i} for i up to floor(n/2)."""
    n = t.n
    return tuple(t.entries[i] / t.entries[n - 1 - i] for i in range(n // 2))


def theta_weight(x: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(map(neg, reversed(x)))


def theta_perm(p: tuple[int, ...]) -> tuple[int, ...]:
    """Conjugation by the longest element: the theta-action on S_n."""
    return tuple(map((len(p) - 1).__sub__, reversed(p)))


@dataclass(frozen=True)
class ThetaFixedWeyl:
    """The subgroup of S_n fixed by theta, with its signed-permutation model.

    ``signed_images`` maps each fixed permutation to a signed permutation
    of the first floor(n/2) letters; this exhibits the isomorphism with
    the hyperoctahedral group of that rank.
    """

    n: int
    elements: tuple[tuple[int, ...], ...]
    signed_images: tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]

    @property
    def order(self) -> int:
        return len(self.elements)


def theta_fixed_weyl(n: int) -> ThetaFixedWeyl:
    """Built from the signed images: a theta-fixed p is set by p[i] for
    i < floor(n/2), which is perm[i] (sign +1) or n-1-perm[i] (sign -1),
    and p[n-1-i] = n-1-p[i]."""
    if n < 1:
        raise ValueError("n must be >= 1")
    m = n // 2
    pairs = []
    for w in weyl_elements(GroupType("C", m)):
        p = list(range(n))
        for i in range(m):
            p[i] = w.src[i] if w.signs[i] == 1 else n - 1 - w.src[i]
            p[n - 1 - i] = n - 1 - p[i]
        pairs.append((tuple(p), (w.src, w.signs)))
    pairs.sort()
    return ThetaFixedWeyl(n, tuple(p for p, _image in pairs), tuple(pairs))


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
    return [h + x[m : len(x) - m] + theta_weight(h) for h in reversed(_signed_orbit(x[:m], m))]


def _kostant_rep(target: tuple[int, ...]) -> tuple[int, ...]:
    """The minimal-length w with target[w[i]] = x[i], x the dominant
    rearrangement of target: as x is non-increasing, w lists target's
    positions in a stable descending sort."""
    return tuple(sorted(range(len(target)), key=target.__getitem__, reverse=True))


@dataclass(frozen=True)
class ExtremalRep:
    """Extremal-weight twisted representation data for a dominant mu.

    ``extremal_cosets`` holds the theta-fixed cosets of W/W_mu as pairs
    (Kostant representative, extremal weight); only these lines carry a
    nonzero twisted trace.
    """

    n: int
    mu: Weight
    extremal_cosets: tuple[tuple[tuple[int, ...], Weight], ...]


def extremal_rep(n: int, mu: Weight) -> ExtremalRep:
    x = _check_twistable(n, mu)
    cosets = tuple(
        (_kostant_rep(t), Weight(tuple(2 * v for v in t))) for t in _theta_fixed_targets(x)
    )
    return ExtremalRep(n, mu, cosets)


def _power_table(entries: tuple[complex, ...], bound: int) -> list[complex]:
    """e**p for every entry e and every p in [-bound, bound], entry-major."""
    return [e**p for e in entries for p in range(-bound, bound + 1)]


# For each power-table index, that entry's value in each trial of a block.
_Columns = Sequence[Sequence[complex]]


def _columns(tables: Iterable[list[complex]]) -> tuple[tuple[complex, ...], ...]:
    """Per-trial power tables, transposed into one column per index."""
    return tuple(zip(*tables))


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


def _steps(monomials: Iterable[tuple[tuple[int, ...], int]], bound: int) -> _Steps:
    """Compile (exponents, owner) pairs, in the given order.  A monomial's
    indices, into a ``_power_table`` of the same bound, are those of its
    non-zero exponents in coordinate order; in a sorted list every shared
    prefix is one run, so it is multiplied out once."""
    width = 2 * bound + 1
    monomials = list(monomials)
    idxs = [tuple(i * width + bound + k for i, k in enumerate(e) if k) for e, _owner in monomials]
    return [(s, idx[s:], owner) for (_e, owner), idx, s in zip(monomials, idxs, _shared(idxs))]


def _orbit_owners(xs: Sequence[tuple[int, ...]], k: int) -> dict[tuple[int, ...], list[int]]:
    """Every element of the C_k orbits (signed permutations of the first
    k entries) of the weights' heads x[:m], m = floor(n/2), mapped to the
    positions in xs of the weights whose orbit holds it, ascending.
    Distinct weights have disjoint orbits."""
    owners: dict[tuple[int, ...], list[int]] = {}
    for j, x in enumerate(xs):
        owners.setdefault(x, []).append(j)
    m = len(xs[0]) // 2
    heads: dict[tuple[int, ...], list[int]] = {}
    for x, js in owners.items():
        heads.update(dict.fromkeys(_signed_orbit(x[:m], k), js))
    return heads


def _sweep_steps(xs: Sequence[tuple[int, ...]], k: int, bound: int) -> tuple[_Steps, _Steps]:
    """The twisted and the endoscopic side's steps of a sweep over the
    theta-invariant dominant xs, each owned by its position in xs: what
    ``_steps`` compiles from every weight's (target, position) pairs,
    sorted descending, and from its (endoscopic head, position) pairs,
    ascending.

    Both compile from heads.  A target is h + mid + theta(h), h its
    first m = floor(n/2) entries and mid the same for every weight, so
    the targets descend as their heads do.  Its index list is the head's
    followed by theta(h)'s, whose coordinates lie past the head's; so
    when two heads' lists differ, the targets' lists share just the
    heads' shared prefix.  In the principal case (k = m) the endoscopic
    heads are the same heads, ascending."""
    n = len(xs[0])
    m = n // 2
    width = 2 * bound + 1
    base = range(bound, m * width, width)  # head coordinate i's index at exponent 0
    # theta sends (coordinate i, exponent v), index a, to (n-1-i, -v), index top - a
    top = (n - 1) * width + 2 * bound

    def indexed(heads: list[tuple[int, ...]]) -> tuple[list[tuple[int, ...]], list[int]]:
        idxs = [tuple(itertools.compress(map(add, base, h), h)) for h in heads]
        return idxs, _shared(idxs)

    owners = _orbit_owners(xs, m)
    desc = sorted(owners, reverse=True)
    idxs, shared = indexed(desc)
    twisted: _Steps = []
    for h, idx, s in zip(desc, idxs, shared):
        rest = idx[s:] + tuple(map(top.__sub__, reversed(idx)))
        *again, j = owners[h]
        twisted.append((s, rest, j))
        # a repeated weight: the same target again
        twisted += [(s + len(rest), (), other) for other in reversed(again)]

    if k == m:
        # ascending, each list shares with the one before what it shared,
        # descending, with the one after
        asc, idxs, shared = desc[::-1], idxs[::-1], [0] + shared[:0:-1]
    else:
        owners = _orbit_owners(xs, k)
        asc = sorted(owners)
        idxs, shared = indexed(asc)
    endoscopic: _Steps = []
    for h, idx, s in zip(asc, idxs, shared):
        j, *again = owners[h]
        endoscopic.append((s, idx[s:], j))
        endoscopic += [(len(idx), (), other) for other in again]
    return twisted, endoscopic


def _sums(steps: _Steps, columns: _Columns, count: int, owners: int) -> list[Sequence[complex]]:
    """Each owner's sum of its monomials in each of the ``count`` trials
    of a block.  ``stack[d]`` is the product, left to right from
    1.0+0.0j, of the current monomial's first d table entries, so every
    value is bit for bit its direct product, in any monomial order; each
    owner adds its values with ``+`` from 0.0+0.0j, in step order."""
    totals: list[Sequence[complex]] = [(0.0 + 0.0j,) * count] * owners
    stack: list[Sequence[complex]] = [(1.0 + 0.0j,) * count]
    for shared, rest, owner in steps:
        del stack[shared + 1 :]
        for i in rest:
            stack.append(list(map(mul, stack[-1], columns[i])))
        totals[owner] = list(map(add, totals[owner], stack[-1]))
    return totals


def twisted_trace_extremal(rep: ExtremalRep, t: TwistedTorusElement) -> complex:
    """Twisted trace on the sum of extremal weight lines.

    Theta acts trivially on every theta-fixed extremal line, so the trace
    is the sum of the fixed extremal characters at t; non-fixed lines are
    permuted off the diagonal and contribute zero.

    Evaluation order (shared with ``verify_transfer_identities``): each
    character is the product, left to right from 1.0+0.0j, of ``e**k``
    over the coordinates whose exponent k is non-zero, and the characters
    are added with ``+`` from 0.0+0.0j in coset order: one owner's
    ``_sums`` over the cosets, unsorted.
    """
    if t.n != rep.n:
        raise ValueError("torus element length mismatch")
    exponents = [tuple(d // 2 for d in w.doubled) for _rep, w in rep.extremal_cosets]
    bound = max((abs(k) for e in exponents for k in e), default=0)
    columns = _columns([_power_table(t.entries, bound)])
    ((trace,),) = _sums(_steps(((e, 0) for e in exponents), bound), columns, 1, 1)
    return trace


def kostant_theta_invariance(n: int, mu: Weight) -> bool:
    """Check theta(w) = w for the Kostant representative of every
    theta-stable coset of W/W_mu.  Exact; returns True iff all pass."""
    x = _check_twistable(n, mu)
    return all(theta_perm(w) == w for w in map(_kostant_rep, _theta_fixed_targets(x)))


def _signed_orbit(nu: tuple[int, ...], k: int) -> list[tuple[int, ...]]:
    """Orbit of nu under signed permutations of the first k coordinates,
    sorted.  An element is a distinct rearrangement of the head's
    absolute values, reached from the sorted one by adjacent swaps (so
    the work is bounded by the orbit, never k!), with a sign chosen for
    each non-zero entry."""
    head, tail = nu[:k], nu[k:]
    swaps = [g.apply_doubled for g in generators(GroupType("A", k))]
    perms = _closure(tuple(sorted(map(abs, head))), swaps)
    signed = (itertools.product(*[(v, -v) if v else (0,) for v in p]) for p in perms)
    heads = sorted(itertools.chain.from_iterable(signed))
    return [h + tail for h in heads] if tail else heads


@dataclass(frozen=True)
class TransferIdentityReport:
    n: int
    endo_rank: int
    principal: bool
    trials: int
    seed: int
    max_residual: float


def verify_transfer_identity(
    mu: Weight,
    endo_rank: int | None = None,
    trials: int = 100,
    seed: int = 0,
) -> TransferIdentityReport:
    """Numerically compare the twisted extremal trace with the symmetrized
    endoscopic character through the norm map.

    nu is the first floor(n/2) coordinates of mu; the declared endoscopic
    Weyl group is the signed permutations of the first ``endo_rank``
    norm coordinates (the principal case takes all of them, and the
    identity is exact there).  Random trials draw unit-modulus regular
    torus elements from the given seed; the maximum absolute residual
    over the trials is reported.  A one-weight
    ``verify_transfer_identities``.
    """
    (report,) = verify_transfer_identities([mu], endo_rank, trials, seed)
    return report


def verify_transfer_identities(
    weights: Sequence[Weight],
    endo_rank: int | None = None,
    trials: int = 100,
    seed: int = 0,
) -> list[TransferIdentityReport]:
    """``verify_transfer_identity`` for every weight of a sweep, in order,
    over one draw of the trials; the weights share one length n.

    Each residual is bit-for-bit that of evaluating every character
    directly: the trials are the first ``trials`` regular draws from
    ``random.Random(seed)``; each character is the product, left to right
    from 1.0+0.0j, of ``e**k`` (read from a per-trial table) over its
    non-zero exponents k; the twisted side adds them with ``+`` from
    0.0+0.0j in coset order (``twisted_trace_extremal``), and the
    endoscopic side likewise in sorted orbit order.  Every weight's
    monomials of one side, tagged with the weight, are merged into one
    sorted list (each weight's own order is sorted already, so the merge
    keeps it), compiled from the heads (``_sweep_steps``) and evaluated
    in one pass over a stack of prefix products, which multiplies every
    shared prefix once.  The trials are drawn and
    tabulated in blocks of at most ``_BLOCK_VALUES`` values, and every
    weight is evaluated on a block before the next is drawn, so memory
    stays flat in ``trials``.
    """
    if not weights:
        return []
    n = len(weights[0])
    xs = [_check_twistable(n, mu) for mu in weights]
    m = n // 2
    k = m if endo_rank is None else endo_rank
    if not 0 <= k <= m:
        raise ValueError(f"endo_rank must be between 0 and {m}")
    bound = max((abs(v) for x in xs for v in x), default=0)
    sides = _sweep_steps(xs, k, bound)
    # per trial: both power tables, the prefix stack and two sums per weight
    size = max(1, _BLOCK_VALUES // ((n + m) * (2 * bound + 1) + n + 1 + 2 * len(xs)))
    worst = [0.0] * len(xs)
    draws = _draw_iter(n, trials, seed)
    while block := list(itertools.islice(draws, size)):
        # a trial is (entries, norm map), the twisted and the endoscopic
        # side's; one side's tables are held at a time
        left, right = (
            _sums(steps, _columns(_power_table(d[side], bound) for d in block), len(block), len(xs))
            for side, steps in enumerate(sides)
        )
        worst = [max(w, *map(abs, map(sub, a, b))) for w, a, b in zip(worst, left, right)]
        del left, right  # before the next block is drawn
    return [
        TransferIdentityReport(
            n=n, endo_rank=k, principal=(k == m), trials=trials, seed=seed, max_residual=w
        )
        for w in worst
    ]


# the most complex values (power tables, prefix stack and sums) one block
# of trials holds, about 1.3 MB
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
            t = TwistedTorusElement(
                tuple(cmath.exp(2j * cmath.pi * rng.random()) for _ in range(n))
            )
            nt = norm_map(t)
            if _regular_norm(nt, 1e-6):
                yield t.entries, nt
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
