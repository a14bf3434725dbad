"""Arthur parameters for real classical groups.

A parameter is a formal sum of blocks rho (x) R[a], where rho is a
self-dual character or discrete-series representation of the real Weil
group recorded by its half-integer parameter t >= 0 (plus a sign eta for
t = 0), and R[a] is the a-dimensional SL(2) representation.  The module
computes dimensions, the good-parity criterion, infinitesimal characters
on both the group and the GL side, very-regular dominating parameters,
component groups with their distinguished element, and elliptic
endoscopic splittings.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from typing import Iterable, Iterator, NamedTuple

from .weyl import GroupType, Weight, _Value, dominant_rep

__all__ = [
    "ParameterError",
    "DimensionError",
    "ParityError",
    "DominationError",
    "ClassicalGroup",
    "Block",
    "block",
    "ArthurParameter",
    "arthur_parameter",
    "InfChar",
    "gl_inf_char",
    "g_inf_char",
    "dimension",
    "good_parity",
    "GoodParityReport",
    "inf_char",
    "very_regular_threshold",
    "dominate",
    "canonical_offsets",
    "domination_offsets",
    "ComponentGroup",
    "component_group",
    "QuotientMap",
    "quotient_map",
    "EndoscopicSplit",
    "endoscopic_split",
    "enumerate_parameters",
    "corpus",
]


class ParameterError(ValueError):
    pass


class DimensionError(ParameterError):
    pass


class ParityError(ParameterError):
    pass


class DominationError(ParameterError):
    pass


def _kept(fn):
    """Memo for a function of one object and at most one hashable argument:
    ``fn(obj)`` or ``fn(obj, arg)`` is computed on the first call and kept
    in ``obj.__dict__``, so it is freed with the object, which a module
    cache keyed by the object would keep alive.  A hit is one lookup (a
    kept None too), and a first call takes no lock.  Under ``property``, a
    kept method of no arguments reads as an attribute.  A value that reads
    less than the object, as the F_2 tables of a component group or a
    quotient map read only its shape, sits in an ``lru_cache`` keyed by
    what it reads.  Only what the corpus sweeps read again is kept: a
    value read once per parameter, or cheap to compute, is not."""
    key = "_kept_" + fn.__qualname__

    if fn.__code__.co_argcount == 2:

        def kept(obj, arg):
            try:
                return obj.__dict__[key][arg]
            except KeyError:
                value = obj.__dict__.setdefault(key, {})[arg] = fn(obj, arg)
                return value

    else:

        def kept(obj):
            try:
                return obj.__dict__[key]
            except KeyError:
                value = obj.__dict__[key] = fn(obj)
                return value

    return functools.wraps(fn)(kept)


# what a group's kind fixes: its Weyl family, twice eps_G, and whether its
# dual group is symplectic (else special orthogonal).  On the even
# orthogonal side we always work modulo the outer automorphism, so family D
# is the full signed-permutation group.
_KINDS = {"Sp": ("C", 2, False), "SOodd": ("B", 1, True), "SOeven": ("D", 0, False)}


class ClassicalGroup(_Value):
    """Sp(2n,R) or a real form SO(p,q) of an orthogonal group.

    The signature is optional for the SO kinds; operations that depend on
    the real form (Levi enumeration) require it, the purely dual-side
    operations do not.
    """

    __slots__ = ("kind", "rank", "signature")

    def __init__(self, kind: str, rank: int, signature: tuple[int, int] | None = None) -> None:
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "signature", signature)
        # a dict membership test hashes the kind, so a list must not reach it
        if not isinstance(kind, str) or kind not in _KINDS:
            raise ParameterError(f"unknown kind {kind!r}")
        # the type itself, as True is an int too
        if type(rank) is not int:
            raise ParameterError(f"rank {rank!r} is not an integer")
        if rank < 0:
            raise ParameterError("rank must be >= 0")
        if kind == "Sp":
            if signature is not None:
                raise ParameterError("Sp takes no signature")
            return
        if signature is not None:
            if type(signature) is not tuple or [type(x) for x in signature] != [int, int]:
                raise ParameterError(f"signature {signature!r} is not a pair of integers")
            p, q = signature
            if p < 0 or q < 0:
                raise ParameterError("negative signature")
            if p + q != self.space_dim:
                raise ParameterError(
                    f"signature {p}+{q} != {self.space_dim} for {kind} rank {rank}"
                )

    @property
    def space_dim(self) -> int:
        return 2 * self.rank + (_KINDS[self.kind][0] == "B")

    @property
    def dual_dim(self) -> int:
        """n*: the dimension of the dual group's standard representation."""
        return 2 * self.rank + (_KINDS[self.kind][0] == "C")

    @property
    def dual_symplectic(self) -> bool:
        return _KINDS[self.kind][2]

    @property
    def epsilon_g2(self) -> int:
        """Twice eps_G: 2 for Sp, 1 for SO odd, 0 for SO even."""
        return _KINDS[self.kind][1]

    def gside_type(self) -> GroupType:
        return GroupType(_KINDS[self.kind][0], self.rank)

    def __str__(self) -> str:
        if self.kind == "Sp":
            return f"Sp({2 * self.rank},R)"
        if self.signature is not None:
            return f"SO({self.signature[0]},{self.signature[1]})"
        return f"{self.kind}[{self.space_dim}]"


class Block(_Value):
    """One summand rho (x) R[a] with multiplicity.

    ``t2`` is twice the parameter of rho; ``eta`` distinguishes the two
    quadratic characters and is meaningful only when t = 0.  The
    dimension ``dim`` and the sort key ``key`` (t2, a, eta) are derived
    once, on construction.
    """

    __slots__ = ("t2", "a", "eta", "mult", "dim", "key")
    _derived = ("dim", "key")

    def __init__(self, t2: int, a: int, eta: int = 1, mult: int = 1) -> None:
        # the types themselves, as True is an int too
        if not (type(t2) is int and type(a) is int and type(mult) is int):
            raise ParameterError(f"t2, a and mult must be integers, got {t2!r}, {a!r}, {mult!r}")
        if t2 < 0:
            raise ParameterError("t must be >= 0")
        if a < 1 or mult < 1:
            raise ParameterError("a and mult must be >= 1")
        if type(eta) is not int or eta not in (1, -1):
            raise ParameterError(f"eta must be +1 or -1, got {eta!r}")
        if t2 > 0 and eta != 1:
            eta = 1
        object.__setattr__(self, "t2", t2)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "eta", eta)
        object.__setattr__(self, "mult", mult)
        object.__setattr__(self, "dim", (1 if t2 == 0 else 2) * a * mult)
        object.__setattr__(self, "key", (t2, a, eta))

    @property
    def t(self) -> Fraction:
        return Fraction(self.t2, 2)

    @property
    def rho_dim(self) -> int:
        return 1 if self.t2 == 0 else 2

    def __str__(self) -> str:
        if self.t2 == 0:
            rho = "triv" if self.eta == 1 else "sgn"
        else:
            rho = f"I[{Fraction(self.t2, 2)}]"
        s = f"{rho}*R[{self.a}]"
        return s if self.mult == 1 else f"{s}^{self.mult}"


def block(t, a: int, eta=1, mult: int = 1) -> Block:
    """Block from a half-integer t (int, Fraction or ``"p/q"`` string)."""
    try:
        if type(t) is bool:  # Fraction(True) is 1
            raise TypeError
        t2 = Fraction(t) * 2
    except (TypeError, ValueError, ZeroDivisionError):
        raise ParameterError(f"{t!r} is not a half-integer") from None
    if t2.denominator != 1:
        raise ParameterError(f"{t!r} is not a half-integer")
    if eta in ("+", "+1"):
        eta = 1
    elif eta in ("-", "−", "-1"):
        eta = -1
    return Block(int(t2), a, eta, mult)


class ArthurParameter(_Value):
    """A parameter: group plus canonically sorted multiset of blocks.

    Values derived from the parameter alone (its discrete part, parity
    verdict, component group, quotient maps and, in ``aq``, its layout,
    shifts and A_q data) are computed once and kept on the object
    (``_kept``), as are the offsets of a psi_+ built by ``dominate``; they
    play no part in ``==``, ``hash``, ``repr`` or pickling, and are freed
    with it.
    """

    __slots__ = ("group", "blocks", "__dict__", "__weakref__")

    def __init__(self, group: ClassicalGroup, blocks: tuple[Block, ...]) -> None:
        # a list would make the parameter unhashable
        if type(blocks) is not tuple:
            raise ParameterError(f"blocks {blocks!r} are not a tuple")
        object.__setattr__(self, "group", group)
        object.__setattr__(self, "blocks", blocks)
        # one pass for the total dimension and the canonical order:
        # strictly descending keys, so each key once
        total, canonical, last = 0, True, None
        for b in blocks:
            total += b.dim
            if last is not None and b.key >= last:
                canonical = False
            last = b.key
        if total != group.dual_dim:
            raise DimensionError(f"blocks have total dimension {total}, expected {group.dual_dim}")
        if not canonical:
            keys = [b.key for b in blocks]
            if len(set(keys)) != len(keys):
                raise ParameterError("duplicate blocks; merge multiplicities first")
            raise ParameterError("blocks not in canonical order")

    @property
    @_kept
    def discrete(self) -> tuple[tuple[int, int], ...]:
        """The t > 0 part expanded by multiplicity: pairs (t2, a), t descending."""
        out = []
        for b in self.blocks:
            if b.t2 > 0:
                out.extend([(b.t2, b.a)] * b.mult)
        return tuple(out)

    @property
    def unipotent(self) -> tuple[Block, ...]:
        return tuple(b for b in self.blocks if b.t2 == 0)

    def __str__(self) -> str:
        return f"{self.group}: " + " + ".join(str(b) for b in self.blocks)


def arthur_parameter(group: ClassicalGroup, blocks: Iterable[Block]) -> ArthurParameter:
    """Merge equal blocks, sort canonically, and validate the dimension.

    A block is rebuilt only where it merges with another of the same key,
    so each block of canonical input is kept as it is."""
    merged: dict[tuple[int, int, int], Block] = {}
    for b in blocks:
        key = b.key
        seen = merged.get(key)
        merged[key] = b if seen is None else Block(b.t2, b.a, b.eta, seen.mult + b.mult)
    return ArthurParameter(group, tuple(sorted(merged.values(), key=lambda b: b.key, reverse=True)))


def dimension(psi: ArthurParameter) -> int:
    """Total dimension of the representation defined by the blocks."""
    return sum(b.dim for b in psi.blocks)


class BlockParity(NamedTuple):
    block: Block
    ok: bool
    reason: str


class GoodParityReport(NamedTuple):
    ok: bool
    blocks: tuple[BlockParity, ...]

    def __bool__(self) -> bool:
        return self.ok


def _block_ok(symplectic: bool, b: Block) -> bool:
    """The parity rule of one block, for a dual group that is symplectic
    or (else) special orthogonal."""
    if b.t2 > 0:
        # t + (a-1)/2 must be an integer unless the dual group is
        # symplectic, in which case it must be a half-odd integer
        return (b.t2 + b.a - 1) % 2 == symplectic
    # t = 0: R[a] is orthogonal iff a is odd; the block must match the dual type
    return b.a % 2 != symplectic


def _block_parity(group: ClassicalGroup, b: Block) -> BlockParity:
    """``_block_ok`` with the reason text of the parity report."""
    symplectic = group.dual_symplectic
    ok = _block_ok(symplectic, b)
    verdict = "is" if ok else "is not"
    if b.t2 > 0:
        val2 = b.t2 + (b.a - 1)  # twice t + (a-1)/2
        kindname = "half-odd" if symplectic else "integral"
        half = str(val2 // 2) if val2 % 2 == 0 else f"{val2}/2"
        return BlockParity(b, ok, f"t+(a-1)/2 = {half} {verdict} {kindname}")
    parity, dual = ("even", "symplectic") if symplectic else ("odd", "orthogonal")
    return BlockParity(b, ok, f"a = {b.a} {verdict} {parity} ({dual} dual)")


def good_parity(psi: ArthurParameter) -> GoodParityReport:
    """Good parity: every block self-dual of the same type as the dual group."""
    reports = tuple(_block_parity(psi.group, b) for b in psi.blocks)
    return GoodParityReport(all(r.ok for r in reports), reports)


@_kept
def _parity_ok(psi: ArthurParameter) -> bool:
    """``good_parity(psi).ok`` without the report: the verdict that the
    guards read."""
    symplectic = psi.group.dual_symplectic
    return all(_block_ok(symplectic, b) for b in psi.blocks)


class InfChar(_Value):
    """Infinitesimal character: a Weyl orbit (G side, stored dominant) or a
    negation-symmetric multiset (GL side, stored sorted descending).

    The Weyl group is not stored: two G-side characters are equal when
    their dominant representatives are."""

    __slots__ = ("side", "doubled")

    def __init__(self, side: str, doubled: tuple[int, ...]) -> None:
        if side not in ("G", "GL"):
            raise ParameterError("side must be 'G' or 'GL'")
        object.__setattr__(self, "side", side)
        object.__setattr__(self, "doubled", doubled)

    @property
    def entries(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(d, 2) for d in self.doubled)

    @property
    def weight(self) -> Weight:
        return Weight(self.doubled)

    def __str__(self) -> str:
        body = ",".join(str(Fraction(d, 2)) for d in self.doubled)
        return ("{" + body + "}") if self.side == "GL" else ("(" + body + ")")


def gl_inf_char(doubled: Iterable[int]) -> InfChar:
    entries = tuple(sorted(doubled, reverse=True))
    if tuple(sorted((-d for d in entries), reverse=True)) != entries:
        raise ParameterError("GL-side infinitesimal character must be symmetric under negation")
    return InfChar("GL", entries)


def g_inf_char(group_type: GroupType, w: Weight) -> InfChar:
    dom = dominant_rep(group_type, w)
    return InfChar("G", dom.doubled)


def _nu_display_doubled(psi: ArthurParameter) -> tuple[int, ...]:
    """The GL exponents t_i +- (a_i-1)/2, ... of the parameter, doubled, in
    the block-aligned display order: discrete segments descending, the
    unipotent multiset, then the mirrored negative segments."""
    head: list[int] = []
    for t2, a in psi.discrete:
        head.extend(range(t2 + a - 1, t2 - a, -2))
    middle: list[int] = []
    for b in psi.unipotent:
        middle.extend(list(range(b.a - 1, -b.a, -2)) * b.mult)
    middle.sort(reverse=True)
    tail = [-x for x in reversed(head)]
    return tuple(head + middle + tail)


def inf_char(psi: ArthurParameter, side: str = "GL") -> InfChar:
    """Infinitesimal character attached to the parameter.

    GL side: the multiset of exponents t_i +- (a_i-1)/2, ..., including
    the mirrored negatives for t > 0 blocks.  G side: the dominant
    representative of the non-negative half, n entries.
    """
    entries = sorted(_nu_display_doubled(psi), reverse=True)
    if side == "GL":
        return gl_inf_char(entries)
    if side != "G":
        raise ParameterError("side must be 'G' or 'GL'")
    n = psi.group.rank
    return g_inf_char(psi.group.gside_type(), Weight(tuple(entries[:n])))


def very_regular_threshold(psi: ArthurParameter) -> int:
    """Concrete meaning of "t'_1 >> ... >> 0": gaps and tail at least n*."""
    return psi.group.dual_dim


def dominate(
    psi: ArthurParameter,
    offsets: Iterable,
    threshold: int | None = None,
) -> ArthurParameter:
    """The dominating parameter psi_+ with t'_i = t_i + T_i.

    Offsets are indexed by the t > 0 blocks counted with multiplicity, in
    descending-t order; they must be non-increasing non-negative integers
    and the resulting t'_i must be strictly decreasing with gaps (and
    tail) at least the very-regular threshold.  Pass ``threshold=0`` to
    build degenerate pairs for diagnostic sweeps.
    """
    if not _parity_ok(psi):
        raise ParityError("dominate requires a good-parity parameter")
    disc = psi.discrete
    offs = list(offsets)
    if len(offs) != len(disc):
        raise DominationError(
            f"expected {len(disc)} offsets (one per discrete block), got {len(offs)}"
        )
    ts: list[int] = []
    for T in offs:
        if type(T) is not int:
            f = Fraction(T)
            if f.denominator != 1:
                raise DominationError(f"offset {T!r} is not an integer")
            T = int(f)
        if T < 0:
            raise DominationError("offsets must be >= 0")
        ts.append(T)
    if any(ts[i] < ts[i + 1] for i in range(len(ts) - 1)):
        raise DominationError("offsets must be non-increasing")
    th2 = 2 * (very_regular_threshold(psi) if threshold is None else threshold)
    tp2 = [t2 + 2 * T for (t2, _a), T in zip(disc, ts)]
    for i in range(len(tp2) - 1):
        if tp2[i] - tp2[i + 1] < max(th2, 1):
            raise DominationError(
                f"t'_{i + 1} gap {Fraction(tp2[i] - tp2[i + 1], 2)} below threshold"
            )
    if tp2 and tp2[-1] < th2:
        raise DominationError(f"t'_v = {Fraction(tp2[-1], 2)} below threshold")
    # already canonical: the t'_i strictly decrease by the gap check, and
    # the unipotent part follows in its own order
    psi_plus = ArthurParameter(
        psi.group, tuple(Block(t2p, a) for t2p, (_t2, a) in zip(tp2, disc)) + psi.unipotent
    )
    # the offsets of this pair, for domination_offsets; see there
    psi_plus.__dict__["_dominates"] = ((psi.group, psi.blocks), tuple(ts))
    return psi_plus


def canonical_offsets(psi: ArthurParameter, threshold: int | None = None) -> tuple[int, ...]:
    """Smallest valid offsets for ``dominate`` at the given threshold."""
    th2 = 2 * (very_regular_threshold(psi) if threshold is None else threshold)
    disc = psi.discrete
    offs: list[int] = []
    prev_tp2: int | None = None
    for t2, _a in reversed(disc):
        need = th2 if prev_tp2 is None else prev_tp2 + max(th2, 2)
        T2 = max(need - t2, 0)
        T = (T2 + 1) // 2  # round up to an integer offset
        if offs and T < offs[-1]:
            T = offs[-1]
        offs.append(T)
        prev_tp2 = t2 + 2 * T
    return tuple(reversed(offs))


def domination_offsets(psi: ArthurParameter, psi_plus: ArthurParameter) -> tuple[int, ...]:
    """Recover the offsets T_i from a structural domination pair.

    Checks: same group, identical unipotent part, identical a-sequence on
    the discrete part, integral non-negative non-increasing differences.

    A psi_+ built by ``dominate`` keeps the offsets it was built with,
    keyed by the fields of its psi, which pass every check; any other pair,
    the identity pair (psi, psi) among them, is checked.  As with
    ``quotient_map``, the key holds no reference to psi, and a pickle or
    copy of psi_+ keeps nothing.
    """
    kept = psi_plus.__dict__.get("_dominates")
    if kept is not None and kept[0] == (psi.group, psi.blocks):
        return kept[1]
    if psi_plus.group != psi.group:
        raise DominationError("group mismatch")
    if psi_plus.unipotent != psi.unipotent:
        raise DominationError("unipotent parts differ")
    disc = psi.discrete
    disc_p = psi_plus.discrete
    if len(disc) != len(disc_p):
        raise DominationError("discrete block counts differ")
    if any(a != ap for (_t, a), (_tp, ap) in zip(disc, disc_p)):
        raise DominationError("SL(2) dimensions differ")
    offs = []
    for (t2, _a), (tp2, _ap) in zip(disc, disc_p):
        d2 = tp2 - t2
        if d2 < 0 or d2 % 2:
            raise DominationError(f"offset {Fraction(d2, 2)} is not a non-negative integer")
        offs.append(d2 // 2)
    if any(offs[i] < offs[i + 1] for i in range(len(offs) - 1)):
        raise DominationError("offsets are not non-increasing")
    return tuple(offs)


def _mask(values: tuple[int, ...], k: int, error: str | None = None) -> int | None:
    """The mask of a sign vector of length k (bit k-1-i set when sign i is
    -1); if it is none, a ParameterError with ``error``, or None."""
    mask = 0
    if len(values) == k:
        for x in values:
            if x == 1:
                mask <<= 1
            elif x == -1:
                mask = mask << 1 | 1
            else:
                break
        else:
            return mask
    if error is None:
        return None
    raise ParameterError(error)


def _signs(mask: int, k: int) -> tuple[int, ...]:
    return tuple([-1 if mask >> b & 1 else 1 for b in range(k - 1, -1, -1)])


_CHARACTER_ERROR = "character values must be +-1 per basis block"


def _elements(k: int, odd: int) -> tuple[tuple[int, ...], ...]:
    return tuple(_signs(m, k) for m in range(1 << k) if not (m & odd).bit_count() & 1)


@functools.lru_cache(maxsize=64)
def _characters(k: int, odd: int) -> tuple[tuple[int, ...], ...]:
    top = 1 << (odd.bit_length() - 1) if odd else 0
    return tuple(_signs(c, k) for c in range(1 << k) if not c & top)


@functools.lru_cache(maxsize=1024)
def _canonical_character(k: int, odd: int, values: tuple[int, ...]) -> tuple[int, ...]:
    c = _mask(values, k, _CHARACTER_ERROR)
    return _signs(min(c, c ^ odd), k)


def _push(fibers: tuple[int, ...], m: int) -> int:
    out = 0
    for f in fibers:
        out = out << 1 | (m & f).bit_count() & 1
    return out


@functools.lru_cache(maxsize=1024)
def _push_character(
    k: int, fibers: tuple[int, ...], target_odd: int, values: tuple[int, ...]
) -> tuple[int, ...] | None:
    c = _mask(values, k, _CHARACTER_ERROR)
    out = 0
    for f in fibers:
        part = c & f
        if part and part != f:
            return None
        out = out << 1 | (part != 0)
    return _signs(min(out, out ^ target_odd), len(fibers))


@functools.lru_cache(maxsize=64)
def _kernel(k: int, odd: int, fibers: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    return tuple(s for s in _elements(k, odd) if not _push(fibers, _mask(s, k)))


@functools.lru_cache(maxsize=256)
def _onto(k: int, odd: int, fibers: tuple[int, ...], target_odd: int) -> bool:
    """True iff the push maps the source group onto the target group, by
    an F_2 rank check in O(k^2) bit operations: the images of the source
    basis (the unit masks off ``odd``, and each other one on ``odd`` plus
    the lowest) must lie in the target and have rank dim A(psi)."""
    low = odd & -odd
    pivots: dict[int, int] = {}
    for b in range(k):
        unit = 1 << b
        if unit == low:
            continue
        image = _push(fibers, unit | low if unit & odd else unit)
        if (image & target_odd).bit_count() & 1:
            return False
        while image:
            top = image.bit_length()
            if top not in pivots:
                pivots[top] = image
                break
            image ^= pivots[top]
    return len(pivots) == len(fibers) - (target_odd != 0)


class ComponentGroup(_Value):
    """A(psi) as sign vectors on the distinct blocks.

    ``dims`` holds the full isotypic dimensions; when the dual group is
    special orthogonal the vectors are cut down by the determinant
    condition (product of signs weighted by those dimensions equals 1).
    Inside, A(psi) is an F_2 vector space of int masks, bit k-1-i set when
    sign i is -1, so ascending masks are descending sign tuples; tuples
    appear only at the public methods.  ``odd`` marks the odd-dimensional
    blocks under the determinant condition (else 0): an element is a mask
    m with ``m & odd`` of even popcount, and a character is a mask modulo
    ``odd``.  The order is read off the basis; the characters are listed
    once per shape (k, odd) in a process, the elements on every read (a
    kernel, kept per shape, is their only reader in the package).
    """

    __slots__ = ("basis", "dims", "det_relation", "s_psi", "odd", "__weakref__")
    _derived = ("odd",)

    def __init__(
        self,
        basis: tuple[Block, ...],
        dims: tuple[int, ...],
        det_relation: bool,
        s_psi: tuple[int, ...],
    ) -> None:
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "det_relation", det_relation)
        object.__setattr__(self, "s_psi", s_psi)
        odd = sum(1 << b for b, d in enumerate(reversed(self.dims)) if d % 2)
        object.__setattr__(self, "odd", odd if self.det_relation else 0)

    @property
    def order(self) -> int:
        return 1 << (len(self.basis) - self.relation_nontrivial)

    @property
    def elements(self) -> tuple[tuple[int, ...], ...]:
        """Every element, descending."""
        return _elements(len(self.basis), self.odd)

    def __contains__(self, s: Iterable[int]) -> bool:
        return self._element_mask(s, "{!r} is not a sign vector") is not None

    def _element_mask(self, s: Iterable[int], error: str) -> int | None:
        """The mask of ``s`` if it is an element, else None; an ``s`` that
        is not iterable raises ParameterError(``error.format(s)``)."""
        try:
            m = _mask(tuple(s), len(self.basis))
        except TypeError:  # not iterable
            raise ParameterError(error.format(s)) from None
        return None if m is None or (m & self.odd).bit_count() & 1 else m

    @property
    def relation_nontrivial(self) -> bool:
        return self.odd != 0

    def canonical_character(self, values: Iterable[int]) -> tuple[int, ...]:
        """Canonical representative of a character given by generator
        values: of the two masks that agree on A(psi), c and c ^ odd, the
        smaller."""
        try:
            return _canonical_character(len(self.basis), self.odd, tuple(values))
        except TypeError:  # not iterable, or an entry that cannot key the table
            raise ParameterError(_CHARACTER_ERROR) from None

    def characters(self) -> tuple[tuple[int, ...], ...]:
        """All characters, as canonical generator-value vectors, descending:
        the masks with the top bit of ``odd`` clear."""
        return _characters(len(self.basis), self.odd)


@_kept
def component_group(psi: ArthurParameter) -> ComponentGroup:
    """Component group of the centralizer, with s_psi = image of -1 in SL(2).

    Built once per parameter and kept on it."""
    if not _parity_ok(psi):
        raise ParityError("component group requires good parity")
    basis = tuple(b if b.mult == 1 else Block(b.t2, b.a, b.eta) for b in psi.blocks)
    return ComponentGroup(
        basis=basis,
        dims=tuple(b.dim for b in psi.blocks),
        det_relation=not psi.group.dual_symplectic,
        s_psi=tuple(-1 if b.a % 2 == 0 else 1 for b in basis),
    )


class QuotientMap(_Value):
    """The surjection A(psi_+) -> A(psi) that merges separated copies.

    ``fibers[j]`` is the mask of the source blocks over target block j.
    A source mask pushes to the mask whose bit j is the parity of its
    fiber; a character of A(psi_+) descends when it is constant on every
    fiber, and its image takes that constant on each.  Each character is
    pushed once per shape (k, fibers, the target's ``odd``) in a process."""

    __slots__ = ("source", "target", "index_map", "fibers", "__weakref__")
    _derived = ("fibers",)

    def __init__(
        self, source: ComponentGroup, target: ComponentGroup, index_map: tuple[int, ...]
    ) -> None:
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "index_map", index_map)
        k = len(self.source.basis)
        fibers = [0] * len(self.target.basis)
        for i, j in enumerate(self.index_map):
            fibers[j] |= 1 << (k - 1 - i)
        object.__setattr__(self, "fibers", tuple(fibers))

    def push(self, s_plus: tuple[int, ...]) -> tuple[int, ...]:
        error = "element not in the source group"
        m = self.source._element_mask(s_plus, error)
        if m is None:
            raise ParameterError(error)
        return _signs(_push(self.fibers, m), len(self.fibers))

    @property
    def kernel_order(self) -> int:
        return self.source.order // self.target.order

    def kernel(self) -> tuple[tuple[int, ...], ...]:
        """The elements pushed to the identity, descending."""
        return _kernel(len(self.source.basis), self.source.odd, self.fibers)

    def push_character(self, values_plus: Iterable[int]) -> tuple[int, ...] | None:
        """Descend a character to A(psi), as its canonical values; None
        flags a vanishing coefficient: one not constant on every fiber."""
        k = len(self.source.basis)
        try:
            return _push_character(k, self.fibers, self.target.odd, tuple(values_plus))
        except TypeError:  # not iterable, or an entry that cannot key the table
            raise ParameterError(_CHARACTER_ERROR) from None


def quotient_map(psi_plus: ArthurParameter, psi: ArthurParameter) -> QuotientMap:
    """The quotient A(psi_+) -> A(psi) of a domination pair: each block of
    psi_+ maps to the block of psi it came from, and the map must be onto
    (``_onto``).  The identity pair (psi, psi), one object twice, gives
    the identity map of A(psi), which is onto, so only psi's parity is
    checked (by ``component_group``).

    Built and checked once per pair: the map is kept on psi_+, keyed by
    the fields of psi, so it holds no reference to psi and is freed with
    psi_+.  ``_kept`` would key it by psi itself, and for the identity pair
    (psi, psi) that puts psi in a table in its own ``__dict__``: a
    reference cycle, which only the garbage collector frees."""
    maps = psi_plus.__dict__.setdefault("_quotient_maps", {})
    key = (psi.group, psi.blocks)
    qm = maps.get(key)
    if qm is not None:
        return qm
    if psi_plus is psi:
        group = component_group(psi)
        qm = maps[key] = QuotientMap(group, group, tuple(range(len(group.basis))))
        return qm
    domination_offsets(psi, psi_plus)
    source = component_group(psi_plus)
    target = component_group(psi)
    target_index = {b.key: j for j, b in enumerate(target.basis)}
    # positional correspondence of the expanded discrete parts: the mult
    # copies of a block of psi_+ sit over mult equal entries of psi's
    disc_keys = [(t2, a, 1) for t2, a in psi.discrete]
    disc_pos = 0
    index_map = []
    for b in psi_plus.blocks:
        if b.t2 > 0:
            index_map.append(target_index[disc_keys[disc_pos]])
            disc_pos += b.mult
        else:
            index_map.append(target_index[b.key])
    qm = QuotientMap(source, target, tuple(index_map))
    if not _onto(len(source.basis), source.odd, qm.fibers, target.odd):
        raise RuntimeError("quotient map is not surjective")
    maps[key] = qm
    return qm


class EndoscopicSplit(NamedTuple):
    """Elliptic endoscopic datum attached to an involution s in A(psi).

    The minus factor collects the blocks where s acts by -1 (dual
    dimension n'), the plus factor the rest (n''); n' + n'' = n*.
    """

    s: tuple[int, ...]
    factor_minus: ClassicalGroup
    factor_plus: ClassicalGroup
    psi_minus: ArthurParameter | None
    psi_plus: ArthurParameter | None

    @property
    def n_minus(self) -> int:
        return self.factor_minus.dual_dim

    @property
    def n_plus(self) -> int:
        return self.factor_plus.dual_dim


def _factor_group(base: ClassicalGroup, dual_dim: int) -> ClassicalGroup:
    """The group whose dual is of the base's type (symplectic or special
    orthogonal) and of dimension ``dual_dim``: odd only for Sp's SO(2n+1)."""
    for kind, (family, _eps2, symplectic) in _KINDS.items():
        if symplectic == base.dual_symplectic and (family == "C") == dual_dim % 2:
            return ClassicalGroup(kind, dual_dim // 2)
    raise ParameterError("symplectic dual cannot split with odd part")


def endoscopic_split(psi: ArthurParameter, s: Iterable[int]) -> EndoscopicSplit:
    group = component_group(psi)
    error = "{} is not an element of A(psi)"
    m = group._element_mask(s, error)
    if m is None:
        raise ParameterError(error.format(s))
    s = _signs(m, len(group.basis))
    blocks_minus = []
    blocks_plus = []
    for sign, b in zip(s, psi.blocks):
        (blocks_minus if sign == -1 else blocks_plus).append(b)
    n_minus = sum(b.dim for b in blocks_minus)
    n_plus = sum(b.dim for b in blocks_plus)
    fm = _factor_group(psi.group, n_minus)
    fp = _factor_group(psi.group, n_plus)
    pm = arthur_parameter(fm, blocks_minus) if blocks_minus else None
    pp = arthur_parameter(fp, blocks_plus) if blocks_plus else None
    return EndoscopicSplit(s, fm, fp, pm, pp)


def _block_candidates(group: ClassicalGroup, t2_max: int, a_max: int) -> list[Block]:
    symplectic = group.dual_symplectic
    out = []
    for t2 in range(t2_max + 1):
        for a in range(1, a_max + 1):
            etas = (1,) if t2 > 0 else (1, -1)
            for eta in etas:
                b = Block(t2, a, eta)
                if _block_ok(symplectic, b):
                    out.append(b)
    out.sort(key=lambda b: b.key, reverse=True)
    return out


def enumerate_parameters(
    group: ClassicalGroup, t_max=Fraction(7, 2), a_max: int = 4
) -> Iterator[ArthurParameter]:
    """All good-parity parameters for the group with bounded block data."""
    t2_max = int(Fraction(t_max) * 2)
    target = group.dual_dim
    # each candidate with its unit dimension and its block at every
    # multiplicity that fits, built once for the whole search
    cands = []
    for b in _block_candidates(group, t2_max, a_max):
        unit = b.rho_dim * b.a
        cands.append((unit, [b] + [Block(b.t2, b.a, b.eta, m) for m in range(2, target // unit + 1)]))

    # one level per block taken; the loop skips candidates, so the order is
    # that of a search that takes candidate idx (at each multiplicity, the
    # highest first) before it skips it
    def rec(start: int, remaining: int, chosen: list[Block]) -> Iterator[ArthurParameter]:
        if remaining == 0:
            yield ArthurParameter(group, tuple(chosen))
            return
        for idx in range(start, len(cands)):
            unit, by_mult = cands[idx]
            for m in range(remaining // unit, 0, -1):
                chosen.append(by_mult[m - 1])
                yield from rec(idx + 1, remaining - unit * m, chosen)
                chosen.pop()

    yield from rec(0, target, [])


# the corpus groups: every kind at each rank with n* <= 8
_CORPUS_RANKS = (("Sp", (1, 2, 3)), ("SOodd", (1, 2, 3, 4)), ("SOeven", (1, 2, 3, 4)))


def _quasi_split_form(kind: str, rank: int) -> ClassicalGroup:
    if kind == "Sp":
        return ClassicalGroup("Sp", rank)
    if kind == "SOodd":
        return ClassicalGroup("SOodd", rank, (rank + 1, rank))
    return ClassicalGroup("SOeven", rank, (rank, rank) if rank % 2 == 0 else (rank + 1, rank - 1))


def corpus(signed: bool = False) -> Iterator[ArthurParameter]:
    """The 1072 good-parity parameters with n* <= 8 under
    ``enumerate_parameters``' default block bounds: Sp of rank 1-3, then
    SO odd and SO even of rank 1-4, each group's parameters in enumeration
    order.  With ``signed``, each parameter is rebuilt on the quasi-split
    real form of its group (SO odd: (r+1, r); SO even: (r, r) for even r,
    (r+1, r-1) for odd r), as Levi enumeration needs a signature."""
    for kind, ranks in _CORPUS_RANKS:
        for rank in ranks:
            target = _quasi_split_form(kind, rank)
            for psi in enumerate_parameters(ClassicalGroup(kind, rank)):
                yield arthur_parameter(target, psi.blocks) if signed else psi
