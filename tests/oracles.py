"""Reference forms of package computations, for the tests to check against.

Each is a plain, slow or direct form of something the package computes
another way: the whole Weyl group and its orbits, the dominant-chamber
test, delta(u) of a Levi layout, the quasi-split test of a real form,
parameter merging and enumeration with a new block for every block and
every search node (and with every block, of good parity or not), the GL
exponents of a parameter one generator step at a time, Levi enumeration
with a new G_0 for every Levi, the rules of a group kind as if chains on
the kind, the parity verdict read off the report rows, the F_2 tables of
a component group and a quotient map worked out from the object they
belong to, packet translation pushing each entry's character on its own,
and the frozen dataclasses that the value classes of ``weyl``, ``params``
and ``aq`` replaced.  None of them is part of the package.

The dataclasses carry the package's class names, so that their ``repr``
is comparable; the package's own classes are named through their
modules here (``params.Block``, ``weyl.Weight``).
"""

from __future__ import annotations

import dataclasses
import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Iterator

from arthurcomb import aq, params, weyl
from arthurcomb.aq import _layout_roots
from arthurcomb.params import DimensionError, ParameterError, _block_candidates


# The F_2 tables of a component group and a quotient map, each worked out
# from the group or map it is given, as the methods did when each object
# kept its own: the package's module tables keyed by shape must equal them.


def group_masks(grp: params.ComponentGroup) -> Iterator[int]:
    """The elements as masks, ascending."""
    odd = grp.odd
    return (m for m in range(1 << len(grp.basis)) if not (m & odd).bit_count() & 1)


def group_elements(grp: params.ComponentGroup) -> tuple[tuple[int, ...], ...]:
    k = len(grp.basis)
    return tuple(params._signs(m, k) for m in group_masks(grp))


def group_characters(grp: params.ComponentGroup) -> tuple[tuple[int, ...], ...]:
    k, odd = len(grp.basis), grp.odd
    top = 1 << (odd.bit_length() - 1) if odd else 0
    return tuple(params._signs(c, k) for c in range(1 << k) if not c & top)


def canonical_character(grp: params.ComponentGroup, values: tuple[int, ...]) -> tuple[int, ...]:
    c = params._mask(values, len(grp.basis), params._CHARACTER_ERROR)
    return params._signs(min(c, c ^ grp.odd), len(grp.basis))


def map_push(qm: params.QuotientMap, m: int) -> int:
    out = 0
    for f in qm.fibers:
        out = out << 1 | (m & f).bit_count() & 1
    return out


def map_onto(qm: params.QuotientMap) -> bool:
    odd, low = qm.source.odd, qm.source.odd & -qm.source.odd
    pivots: dict[int, int] = {}
    for b in range(len(qm.source.basis)):
        unit = 1 << b
        if unit == low:
            continue
        image = map_push(qm, unit | low if unit & odd else unit)
        if (image & qm.target.odd).bit_count() & 1:
            return False
        while image:
            top = image.bit_length()
            if top not in pivots:
                pivots[top] = image
                break
            image ^= pivots[top]
    return len(pivots) == len(qm.target.basis) - qm.target.relation_nontrivial


def map_kernel(qm: params.QuotientMap) -> tuple[tuple[int, ...], ...]:
    k = len(qm.source.basis)
    return tuple(params._signs(m, k) for m in group_masks(qm.source) if not map_push(qm, m))


def push_character(qm: params.QuotientMap, values_plus: tuple[int, ...]) -> tuple[int, ...] | None:
    c = params._mask(values_plus, len(qm.source.basis), params._CHARACTER_ERROR)
    out = 0
    for f in qm.fibers:
        part = c & f
        if part and part != f:
            return None
        out = out << 1 | (part != 0)
    return params._signs(min(out, out ^ qm.target.odd), len(qm.fibers))


@dataclass(frozen=True)
class SignedPermutation:
    """A Weyl group element; acts by ``(w.x)[i] = signs[i] * x[src[i]]``."""

    src: tuple[int, ...]
    signs: tuple[int, ...]


def weyl_elements(t: weyl.GroupType) -> Iterator[SignedPermutation]:
    """Enumerate the full acting group: S_n for A, every signed
    permutation for B, C and D.  Intended for small ranks."""
    n = t.rank
    for perm in itertools.permutations(range(n)):
        if t.family == "A":
            yield SignedPermutation(perm, (1,) * n)
            continue
        for signs in itertools.product((1, -1), repeat=n):
            yield SignedPermutation(perm, signs)


def apply(g: SignedPermutation, w: weyl.Weight) -> weyl.Weight:
    if len(w) != len(g.src):
        raise ValueError("length mismatch")
    return weyl.Weight(tuple(s * w.doubled[i] for s, i in zip(g.signs, g.src)))


def brute_orbit(t: weyl.GroupType, w: weyl.Weight) -> set[weyl.Weight]:
    """Apply every group element."""
    return {apply(g, w) for g in weyl_elements(t)}


def is_dominant(t: weyl.GroupType, w: weyl.Weight) -> bool:
    """w pairs >= 0 with every simple root of t.  For D the acting group
    also flips one sign, so each of its orbits meets this chamber twice
    when no entry is zero."""
    weyl._check_length(t, w)
    c = w.doubled
    if any(c[i] < c[i + 1] for i in range(len(c) - 1)):
        return False
    if t.family == "A" or not c:
        return True
    if t.family in ("B", "C"):
        return c[-1] >= 0
    # D: the last entry may be negative, dominated by the one before
    return len(c) < 2 or c[-2] >= abs(c[-1])


def delta_u(a_list: tuple[int, ...], n0: int, kind: str) -> weyl.Weight:
    """Half sum of the nilradical roots; constant on each unitary block,
    zero on the residual coordinates."""
    return weyl.Weight(_layout_roots(tuple(a_list), n0, kind)[1])


def quasi_split(g: params.ClassicalGroup) -> bool | None:
    if g.kind == "Sp":
        return True
    if g.signature is None:
        return None
    p, q = g.signature
    return abs(p - q) == 1 if g.kind == "SOodd" else abs(p - q) <= 2


def arthur_parameter(
    group: params.ClassicalGroup, blocks: Iterable[params.Block]
) -> params.ArthurParameter:
    """Merge equal blocks by summing multiplicities per key, then build
    every block anew and sort canonically."""
    merged: dict[tuple[int, int, int], int] = {}
    for b in blocks:
        merged[b.key] = merged.get(b.key, 0) + b.mult
    out = [params.Block(t2, a, eta, m) for (t2, a, eta), m in merged.items()]
    out.sort(key=lambda b: b.key, reverse=True)
    return params.ArthurParameter(group, tuple(out))


def enumerate_parameters(
    group: params.ClassicalGroup, t_max=Fraction(7, 2), a_max: int = 4
) -> Iterator[params.ArthurParameter]:
    """Every good-parity parameter with bounded block data, by recursion
    over the candidate blocks with a new block at each search node."""
    return _parameters(group, _block_candidates(group, int(Fraction(t_max) * 2), a_max))


def every_parameter(
    group: params.ClassicalGroup, t_max=Fraction(7, 2), a_max: int = 4
) -> Iterator[params.ArthurParameter]:
    """Every parameter with bounded block data, of good parity or not."""
    cands = [
        params.Block(t2, a, eta)
        for t2 in range(int(Fraction(t_max) * 2) + 1)
        for a in range(1, a_max + 1)
        for eta in ((1,) if t2 else (1, -1))
    ]
    cands.sort(key=lambda b: b.key, reverse=True)
    return _parameters(group, cands)


def _parameters(
    group: params.ClassicalGroup, cands: list[params.Block]
) -> Iterator[params.ArthurParameter]:
    """Every parameter whose blocks are candidates, by the recursion of
    ``enumerate_parameters``."""

    def rec(idx: int, remaining: int, chosen: list[params.Block]) -> Iterator[params.ArthurParameter]:
        if remaining == 0:
            yield params.ArthurParameter(group, tuple(chosen))
            return
        if idx == len(cands):
            return
        b = cands[idx]
        unit = b.rho_dim * b.a
        for m in range(remaining // unit, 0, -1):
            chosen.append(params.Block(b.t2, b.a, b.eta, m))
            yield from rec(idx + 1, remaining - unit * m, chosen)
            chosen.pop()
        yield from rec(idx + 1, remaining, chosen)

    yield from rec(0, group.dual_dim, [])


def nu_display_doubled(psi: params.ArthurParameter) -> tuple[int, ...]:
    """``params._nu_display_doubled`` with one generator step per exponent."""
    head: list[int] = []
    for t2, a in psi.discrete:
        head.extend(t2 + (a - 1) - 2 * k for k in range(a))
    middle: list[int] = []
    for b in psi.unipotent:
        for _ in range(b.mult):
            middle.extend((b.a - 1) - 2 * k for k in range(b.a))
    middle.sort(reverse=True)
    tail = [-x for x in reversed(head)]
    return tuple(head + middle + tail)


def enumerate_levis(psi: params.ArthurParameter) -> list[aq.LeviDatum]:
    """Levi data with a new G_0 for every Levi, and the signature
    condition checked inside the loop."""
    if not params.good_parity(psi).ok:
        raise params.ParityError("Levi enumeration requires good parity")
    g = psi.group
    a_list, n0 = aq._discrete_layout(psi)
    out: list[aq.LeviDatum] = []
    for ps in itertools.product(*(range(a + 1) for a in a_list)):
        factors = tuple((p, a - p) for p, a in zip(ps, a_list))
        if g.kind == "Sp":
            g0 = params.ClassicalGroup("Sp", n0)
        else:
            if g.signature is None:
                raise ParameterError("Levi enumeration for SO kinds needs a signature")
            p0, q0 = aq._residual_signature(g, factors)
            if p0 < 0 or q0 < 0:
                continue
            g0 = params.ClassicalGroup(g.kind, n0, (p0, q0))
        out.append(aq.LeviDatum(factors, g0))
    if not out:
        raise ParameterError(f"no Levi datum is compatible with the signature of {g}")
    return out


def translate_packet(packet_plus: aq.PacketData, psi: params.ArthurParameter) -> aq.TranslatedPacket:
    """``aq.translate_packet`` with the character of every entry pushed
    through the quotient map on its own, however often it repeats."""
    psi_plus = packet_plus.psi
    qm = params.quotient_map(psi_plus, psi)
    shifts = aq.lambda_tilde(psi)
    moved: dict[int, aq.AqDatum] = {}
    entries = []
    dropped = []
    for datum, values in packet_plus.entries:
        new_datum = moved.get(id(datum))
        if new_datum is None:
            if aq._aq_datum(psi_plus, (datum.levi, datum.sigma)) != datum:
                raise ParameterError(
                    f"entry shifts {datum.t_tilde} do not match the dominating parameter"
                )
            if aq.range_check(datum).verdict != "good":
                raise ParameterError(f"{datum.label()} is not in the good range")
            new_datum = moved[id(datum)] = aq.AqDatum(datum.levi, shifts, datum.sigma)
        pushed = qm.push_character(values)
        if pushed is None:
            dropped.append((new_datum, values))
        else:
            entries.append((new_datum, pushed))
    return aq.TranslatedPacket(aq.PacketData(psi, tuple(entries)), tuple(dropped), qm)


# --- the kind rules as if chains on the kind -----------------------------------
#
# What a group's kind fixes, written out per kind as ``ClassicalGroup``,
# ``params._block_parity`` and ``params._factor_group`` wrote it before
# ``params._KINDS``.


def kind_rules(g: params.ClassicalGroup) -> dict:
    """space_dim, dual_dim, dual_symplectic, epsilon_g2 and gside_type."""
    if g.kind == "Sp":
        space_dim, epsilon_g2, family = 2 * g.rank, 2, "C"
    elif g.kind == "SOodd":
        space_dim, epsilon_g2, family = 2 * g.rank + 1, 1, "B"
    else:
        space_dim, epsilon_g2, family = 2 * g.rank, 0, "D"
    return {
        "space_dim": space_dim,
        "dual_dim": 2 * g.rank + 1 if g.kind == "Sp" else 2 * g.rank,
        "dual_symplectic": g.kind == "SOodd",
        "epsilon_g2": epsilon_g2,
        "gside_type": weyl.GroupType(family, g.rank),
    }


def block_parity(group: params.ClassicalGroup, b: params.Block) -> tuple[bool, str]:
    """(ok, reason) of one block's parity check."""
    if b.t2 > 0:
        val2 = b.t2 + (b.a - 1)
        want_odd = group.kind == "SOodd"
        ok = (val2 % 2 == 1) if want_odd else (val2 % 2 == 0)
        kindname = "half-odd" if want_odd else "integral"
        half = str(val2 // 2) if val2 % 2 == 0 else f"{val2}/2"
        return ok, f"t+(a-1)/2 = {half} {'is' if ok else 'is not'} {kindname}"
    if group.kind == "SOodd":
        ok = b.a % 2 == 0
        return ok, f"a = {b.a} {'is' if ok else 'is not'} even (symplectic dual)"
    ok = b.a % 2 == 1
    return ok, f"a = {b.a} {'is' if ok else 'is not'} odd (orthogonal dual)"


def good_parity(psi: params.ArthurParameter) -> tuple[bool, list[tuple[params.Block, bool, str]]]:
    """The verdict and the (block, ok, reason) rows, the verdict read off
    the rows built with their reasons, as ``params.good_parity`` did for
    every caller."""
    rows = [(b, *block_parity(psi.group, b)) for b in psi.blocks]
    return all(ok for _b, ok, _reason in rows), rows


def factor_group(base: params.ClassicalGroup, dual_dim: int) -> params.ClassicalGroup:
    if base.kind == "SOodd":
        if dual_dim % 2:
            raise ParameterError("symplectic dual cannot split with odd part")
        return params.ClassicalGroup("SOodd", dual_dim // 2)
    if dual_dim % 2:
        return params.ClassicalGroup("Sp", (dual_dim - 1) // 2)
    return params.ClassicalGroup("SOeven", dual_dim // 2)


# --- the frozen dataclasses the value classes replaced -----------------------
#
# Fields, checks, derived fields and ``__str__`` as the package defined
# them before; a check reads the properties it needs (``dim``, ``key``,
# ``dual_dim``, ``space_dim``), and nothing else is kept.


@dataclass(frozen=True)
class GroupType:
    family: str
    rank: int

    def __post_init__(self) -> None:
        if self.family not in ("A", "B", "C", "D"):
            raise ValueError(f"unknown family {self.family!r}")
        if self.rank < 0:
            raise ValueError("rank must be >= 0")

    def __str__(self) -> str:
        return f"{self.family}{self.rank}"


@dataclass(frozen=True)
class Weight:
    doubled: tuple[int, ...]

    def __str__(self) -> str:
        return "(" + ",".join(str(Fraction(d, 2)) for d in self.doubled) + ")"


@dataclass(frozen=True)
class ClassicalGroup:
    kind: str
    rank: int
    signature: tuple[int, int] | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("Sp", "SOodd", "SOeven"):
            raise ParameterError(f"unknown kind {self.kind!r}")
        if self.rank < 0:
            raise ParameterError("rank must be >= 0")
        if self.kind == "Sp":
            if self.signature is not None:
                raise ParameterError("Sp takes no signature")
            return
        if self.signature is not None:
            sig = self.signature
            if not (type(sig) is tuple and len(sig) == 2 and all(type(x) is int for x in sig)):
                raise ParameterError(f"signature {sig!r} is not a pair of integers")
            p, q = sig
            if p < 0 or q < 0:
                raise ParameterError("negative signature")
            if p + q != self.space_dim:
                raise ParameterError(
                    f"signature {p}+{q} != {self.space_dim} for {self.kind} rank {self.rank}"
                )

    @property
    def space_dim(self) -> int:
        return 2 * self.rank + 1 if self.kind == "SOodd" else 2 * self.rank

    @property
    def dual_dim(self) -> int:
        return 2 * self.rank + 1 if self.kind == "Sp" else 2 * self.rank

    def __str__(self) -> str:
        if self.kind == "Sp":
            return f"Sp({2 * self.rank},R)"
        if self.signature is not None:
            return f"SO({self.signature[0]},{self.signature[1]})"
        return f"{self.kind}[{self.space_dim}]"


@dataclass(frozen=True)
class Block:
    t2: int
    a: int
    eta: int = 1
    mult: int = 1

    def __post_init__(self) -> None:
        if not all(type(x) is int for x in (self.t2, self.a, self.mult)):
            raise ParameterError(
                f"t2, a and mult must be integers, got {self.t2!r}, {self.a!r}, {self.mult!r}"
            )
        if self.t2 < 0:
            raise ParameterError("t must be >= 0")
        if self.a < 1 or self.mult < 1:
            raise ParameterError("a and mult must be >= 1")
        if type(self.eta) is not int or self.eta not in (1, -1):
            raise ParameterError(f"eta must be +1 or -1, got {self.eta!r}")
        if self.t2 > 0 and self.eta != 1:
            object.__setattr__(self, "eta", 1)

    @property
    def dim(self) -> int:
        return (1 if self.t2 == 0 else 2) * self.a * self.mult

    @property
    def key(self) -> tuple[int, int, int]:
        return (self.t2, self.a, self.eta)

    def __str__(self) -> str:
        if self.t2 == 0:
            rho = "triv" if self.eta == 1 else "sgn"
        else:
            rho = f"I[{Fraction(self.t2, 2)}]"
        s = f"{rho}*R[{self.a}]"
        return s if self.mult == 1 else f"{s}^{self.mult}"


@dataclass(frozen=True)
class ArthurParameter:
    group: ClassicalGroup
    blocks: tuple[Block, ...]

    def __post_init__(self) -> None:
        if type(self.blocks) is not tuple:
            raise ParameterError(f"blocks {self.blocks!r} are not a tuple")
        total = sum(b.dim for b in self.blocks)
        if total != self.group.dual_dim:
            raise DimensionError(
                f"blocks have total dimension {total}, expected {self.group.dual_dim}"
            )
        keys = [b.key for b in self.blocks]
        if keys != sorted(set(keys), reverse=True):
            if len(set(keys)) != len(keys):
                raise ParameterError("duplicate blocks; merge multiplicities first")
            raise ParameterError("blocks not in canonical order")

    def __str__(self) -> str:
        return f"{self.group}: " + " + ".join(str(b) for b in self.blocks)


@dataclass(frozen=True)
class InfChar:
    side: str
    doubled: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.side not in ("G", "GL"):
            raise ParameterError("side must be 'G' or 'GL'")

    def __str__(self) -> str:
        body = ",".join(str(Fraction(d, 2)) for d in self.doubled)
        return ("{" + body + "}") if self.side == "GL" else ("(" + body + ")")


@dataclass(frozen=True)
class ComponentGroup:
    basis: tuple[Block, ...]
    dims: tuple[int, ...]
    det_relation: bool
    s_psi: tuple[int, ...]
    odd: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        odd = sum(1 << b for b, d in enumerate(reversed(self.dims)) if d % 2)
        object.__setattr__(self, "odd", odd if self.det_relation else 0)


@dataclass(frozen=True)
class QuotientMap:
    source: ComponentGroup
    target: ComponentGroup
    index_map: tuple[int, ...]
    fibers: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        k = len(self.source.basis)
        fibers = [0] * len(self.target.basis)
        for i, j in enumerate(self.index_map):
            fibers[j] |= 1 << (k - 1 - i)
        object.__setattr__(self, "fibers", tuple(fibers))


@dataclass(frozen=True)
class LeviDatum:
    unitary_factors: tuple[tuple[int, int], ...]
    g0: ClassicalGroup
    a_list: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        factors = self.unitary_factors
        if type(factors) is not tuple:
            raise ParameterError(f"unitary factors {factors!r} are not a tuple")
        for f in factors:
            if not (type(f) is tuple and len(f) == 2 and all(type(x) is int for x in f)):
                raise ParameterError(f"unitary factor {f!r} is not a pair of integers")
        object.__setattr__(self, "a_list", tuple(p + q for p, q in factors))

    def __str__(self) -> str:
        return "x".join([f"U({p},{q})" for p, q in self.unitary_factors] + [str(self.g0)])


TWINS = {
    cls.__name__: cls
    for cls in (
        GroupType, Weight, ClassicalGroup, Block, ArthurParameter, InfChar, ComponentGroup,
        QuotientMap, LeviDatum,
    )
}


def twin(value):
    """The dataclass form of a package value: a value class becomes its
    twin, built from its fields (each converted in turn), and a tuple is
    converted item by item; anything else is returned as it is."""
    if isinstance(value, tuple):
        return tuple(twin(v) for v in value)
    cls = TWINS.get(type(value).__name__)
    if cls is None or type(value) is cls:
        return value
    return cls(*(twin(getattr(value, f.name)) for f in dataclasses.fields(cls) if f.init))
