"""Cohomological-induction bookkeeping for theta-stable Levi data.

A Levi datum is a product of unitary groups U(p_i, q_i), one per
discrete block counted with multiplicity, times a smaller group of the
same kind.  The inducing character on the unitary factors is det^{t_i~}
with the shifts t_i~ determined by the parameter; the opaque label sigma
names the weakly unipotent representation on the residual factor and
carries nothing else.  The module enumerates the data allowed by a real
form, evaluates good/weakly-fair range tests against the nilradical,
runs the filtration-vanishing verifier behind the translation theorem,
and translates packets entry by entry with characters transported
through the component-group quotient.

Coordinate layout is fixed once and for all: unitary-factor coordinates
first, in block order, then the residual-factor coordinates; the
nilradical consists of the positive roots outside the Levi under this
order.
"""

from __future__ import annotations

import functools
import heapq
import itertools
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from operator import add, mul, sub
from typing import Iterable, NamedTuple

from .params import (
    ArthurParameter,
    ClassicalGroup,
    ParameterError,
    ParityError,
    QuotientMap,
    _kept,
    _parity_ok,
    component_group,
    quotient_map,
)
from .weyl import GroupType, Weight, _Value, half_sum_positive_roots, positive_roots, simple_roots

__all__ = [
    "LeviDatum",
    "AqDatum",
    "aq_datum",
    "PacketData",
    "packet_data",
    "enumerate_levis",
    "lambda_tilde",
    "nilradical_roots",
    "RangeResult",
    "range_check",
    "FiltrationItem",
    "FiltrationReport",
    "filtration_vanishing",
    "TranslatedPacket",
    "translate_packet",
    "FILTRATION_STATE_CAP",
]

# Explicit filtration sweeps stop growing the monoid beyond this many
# states; the root-level certificates cover every height exactly.
FILTRATION_STATE_CAP = 50_000

# ``_monoid_sums`` checks the state cap once per this many walked states.
_CAP_CHUNK = 64


class LeviDatum(_Value):
    """x U(p_i, q_i) x G_0 with G_0 of the same kind as the ambient group.

    The factor sizes are a tuple of pairs of ints, checked on construction
    (a bool or a float would equal an int, and a list would not hash), and
    the block sizes ``a_list`` (p_i + q_i) are derived once.
    """

    __slots__ = ("unitary_factors", "g0", "a_list")
    _derived = ("a_list",)

    def __init__(self, unitary_factors: tuple[tuple[int, int], ...], g0: ClassicalGroup) -> None:
        if type(unitary_factors) is not tuple:
            raise ParameterError(f"unitary factors {unitary_factors!r} are not a tuple")
        for f in unitary_factors:
            if type(f) is not tuple or [type(x) for x in f] != [int, int]:
                raise ParameterError(f"unitary factor {f!r} is not a pair of integers")
        object.__setattr__(self, "unitary_factors", unitary_factors)
        object.__setattr__(self, "g0", g0)
        object.__setattr__(self, "a_list", tuple([p + q for p, q in unitary_factors]))

    def __str__(self) -> str:
        factors = [f"U({p},{q})" for p, q in self.unitary_factors]
        factors.append(str(self.g0))
        return "x".join(factors)


class AqDatum(NamedTuple):
    """Bookkeeping datum for one cohomologically induced module.

    ``t_tilde`` lists the integer character exponents on the unitary
    factors and ``sigma`` is the label of the module on the residual
    factor G_0.
    """

    levi: LeviDatum
    t_tilde: tuple[int, ...]
    sigma: str

    def label(self) -> str:
        shifts = ",".join(str(t) for t in self.t_tilde)
        return f"Aq[{self.levi}; t~=({shifts}); {self.sigma}]"

    def __str__(self) -> str:
        return self.label()


def _residual_signature(g: ClassicalGroup, factors: tuple[tuple[int, int], ...]) -> tuple[int, int]:
    """Signature of G_0 once each U(p, q) has taken 2p and 2q from g's."""
    p_big, q_big = g.signature
    return p_big - 2 * sum(p for p, _q in factors), q_big - 2 * sum(q for _p, q in factors)


@_kept
def _discrete_layout(psi: ArthurParameter) -> tuple[tuple[int, ...], int]:
    """The discrete block sizes a_i and the residual rank n_0 = rank - sum a_i,
    kept on the parameter.

    n_0 >= 0 for every parameter, as its dimension check gives 2 sum a_i <= n*."""
    a_list = tuple(a for _t2, a in psi.discrete)
    return a_list, psi.group.rank - sum(a_list)


def _check_levi(psi: ArthurParameter, levi: LeviDatum) -> None:
    """Reject a Levi datum that does not fit the parameter, with the same
    arithmetic as ``enumerate_levis`` but O(blocks) work."""
    a_list, n0 = _discrete_layout(psi)
    if len(a_list) != len(levi.unitary_factors):
        raise ParameterError("Levi factor count does not match the discrete blocks")
    for i, ((p, q), a) in enumerate(zip(levi.unitary_factors, a_list), 1):
        if p < 0 or q < 0 or p + q != a:
            raise ParameterError(f"U({p},{q}) does not fit discrete block {i} of size {a}")
    g, g0 = psi.group, levi.g0
    if g0.kind != g.kind:
        raise ParameterError(f"G_0 kind {g0.kind} differs from the group kind {g.kind}")
    if g0.rank != n0:
        raise ParameterError(f"G_0 rank {g0.rank} != {n0}, the rank left by the discrete blocks")
    if g.signature is not None:
        p0, q0 = _residual_signature(g, levi.unitary_factors)
        if p0 < 0 or q0 < 0:
            raise ParameterError(f"unitary factors {levi} exceed the signature of {g}")
        if g0.signature != (p0, q0):
            raise ParameterError(f"G_0 signature {g0.signature} != ({p0}, {q0}) for {g}")


def aq_datum(psi: ArthurParameter, levi: LeviDatum, sigma: str = "sigma") -> AqDatum:
    """The A_q datum of ``levi`` for psi, with psi's shifts and the label
    ``sigma`` for the module on G_0; a Levi datum that does not fit the
    parameter (factor sizes, G_0 kind, rank or signature) raises
    ParameterError.

    Each datum is built once per (levi, sigma) and kept on psi, so repeated
    calls return the same object.  That lookup compares Levis by value,
    which is safe as a ``LeviDatum`` holds only int sizes: no U(True, True)
    can find the datum of U(1, 1)."""
    return _aq_datum(psi, (levi, sigma))


@_kept
def _aq_datum(psi: ArthurParameter, levi_sigma: tuple[LeviDatum, str]) -> AqDatum:
    levi, sigma = levi_sigma
    shifts = lambda_tilde(psi)
    _check_levi(psi, levi)
    return AqDatum(levi, shifts, sigma)


class PacketData(NamedTuple):
    """Packet bookkeeping: pairs (datum, character of A(psi))."""

    psi: ArthurParameter
    entries: tuple[tuple[AqDatum, tuple[int, ...]], ...]


def packet_data(
    psi: ArthurParameter, entries: Iterable[tuple[AqDatum, Iterable[int]]]
) -> PacketData:
    group = component_group(psi)
    canon = tuple((datum, group.canonical_character(values)) for datum, values in entries)
    return PacketData(psi, canon)


def enumerate_levis(psi: ArthurParameter) -> list[LeviDatum]:
    """All Levi data consistent with the real form's signature.

    Each discrete block of size a contributes a factor U(p, q) with
    p + q = a; orthogonal signatures must stay non-negative after
    removing the 2p's and 2q's.  Deterministic lexicographic order in
    the p-vector.  The list depends only on the shape (group, a_i, n_0),
    so it is built once per shape in a process (``_levis``), and each
    call returns a fresh list of the shape's shared ``LeviDatum`` objects.
    The cached list outlives the parameter: a shape with prod(a_i + 1)
    candidates keeps its whole listing until 256 later shapes evict it.
    """
    if not _parity_ok(psi):
        raise ParityError("Levi enumeration requires good parity")
    g = psi.group
    if g.kind != "Sp" and g.signature is None:
        raise ParameterError("Levi enumeration for SO kinds needs a signature")
    return list(_levis(g, *_discrete_layout(psi)))


@functools.lru_cache(maxsize=256)
def _levis(g: ClassicalGroup, a_list: tuple[int, ...], n0: int) -> tuple[LeviDatum, ...]:
    """The Levi data of one shape, in ``enumerate_levis``'s order; the
    Levis with one residual signature share one G_0."""
    g0s: dict[tuple[int, int] | None, ClassicalGroup] = {}
    out: list[LeviDatum] = []
    for ps in itertools.product(*(range(a + 1) for a in a_list)):
        factors = tuple((p, a - p) for p, a in zip(ps, a_list))
        sig = None
        if g.signature is not None:
            sig = _residual_signature(g, factors)
            if sig[0] < 0 or sig[1] < 0:
                continue
        g0 = g0s.get(sig)
        if g0 is None:
            g0 = g0s[sig] = ClassicalGroup(g.kind, n0, sig)
        out.append(LeviDatum(factors, g0))
    if not out:
        raise ParameterError(f"no Levi datum is compatible with the signature of {g}")
    return tuple(out)


@_kept
def lambda_tilde(psi: ArthurParameter) -> tuple[int, ...]:
    """t_i~ = t_i + (a_i - 1)/2 + eps_G + sum_{j>i} a_j + n_0, all integers,
    kept on the parameter; the sum is worked out doubled, in integers.

    Integrality of every shift is exactly the good-parity criterion; a
    fractional value raises ParityError.
    """
    eps2 = psi.group.epsilon_g2
    rest = psi.group.rank  # sum_{j>i} a_j + n_0, once a_i is taken off
    out = []
    for i, (t2, a) in enumerate(psi.discrete, 1):
        rest -= a
        d = t2 + a - 1 + eps2 + 2 * rest
        if d % 2:
            raise ParityError(f"t~_{i} = {Fraction(d, 2)} is not an integer (bad parity)")
        out.append(d // 2)
    return tuple(out)


def _layout(levi: LeviDatum) -> tuple[tuple[int, ...], int, str]:
    return levi.a_list, levi.g0.rank, levi.g0.kind


def _levi_roots(a_list: tuple[int, ...], n0: int, kind: str) -> list[tuple[int, ...]]:
    """The simple roots of each Levi factor in turn, gl(a_i) as type A and
    then G_0, as doubled vectors in the fixed coordinate layout."""
    n = sum(a_list) + n0
    out = []
    start = 0
    for t in [GroupType("A", a) for a in a_list] + [ClassicalGroup(kind, n0).gside_type()]:
        out += [(0,) * start + r.doubled + (0,) * (n - start - t.rank) for r in simple_roots(t)]
        start += t.rank
    return out


def nilradical_roots(a_list: tuple[int, ...], n0: int, kind: str) -> list[Weight]:
    """Positive roots outside the Levi, in the fixed coordinate layout and
    the order of ``positive_roots``: those whose first coordinate lies in
    a unitary block, without each gl(a_i)'s own roots."""
    return positive_roots(ClassicalGroup(kind, sum(a_list) + n0).gside_type(), a_list)


@functools.lru_cache(maxsize=1024)
def _layout_roots(
    a_list: tuple[int, ...], n0: int, kind: str
) -> tuple[tuple[tuple[int, ...], ...], tuple[int, ...]]:
    """Doubled nilradical roots and doubled delta(u) of one layout."""
    roots = tuple(r.doubled for r in nilradical_roots(a_list, n0, kind))
    # twice delta(u) is the root sum, so doubled delta(u) is the doubled sum halved
    total = [sum(col) for col in zip(*roots)] or [0] * (sum(a_list) + n0)
    if any(v % 2 for v in total):
        raise RuntimeError("half sum is not half-integral")
    return roots, tuple(v // 2 for v in total)


class RangeResult(NamedTuple):
    """The range verdict of an A_q datum: ``good``, ``weakly_fair`` or
    ``neither``."""

    verdict: str

    def __str__(self) -> str:
        return self.verdict


def range_check(d: AqDatum) -> RangeResult:
    """Good/weakly-fair classification against the nilradical roots.

    The tested vector places t_i~ - delta(u)_i on the coordinates of the
    i-th unitary factor (the character parameter normalized so that the
    induced module keeps the parameter's infinitesimal character) and
    zero on the residual factor; good means every pairing with a
    nilradical root is positive, weakly fair allows zeros.  The verdict
    depends only on the layout and t~, so every datum that shares the
    pair reads one cached result.
    """
    return _range_verdict(*_layout(d.levi), d.t_tilde)


@functools.lru_cache(maxsize=256)
def _range_verdict(
    a_list: tuple[int, ...], n0: int, kind: str, t_tilde: tuple[int, ...]
) -> RangeResult:
    """``range_check`` of a layout and shifts."""
    roots, du = _layout_roots(a_list, n0, kind)
    if not roots:
        return RangeResult("good")
    # doubled coordinates on the unitary factors; the residual ones are
    # zero, so the pairings stop where x does
    x = list(map(sub, [2 * t for t, a in zip(t_tilde, a_list) for _ in range(a)], du))
    worst4 = min(sum(map(mul, x, r)) for r in roots)
    if worst4 > 0:
        verdict = "good"
    elif worst4 == 0:
        verdict = "weakly_fair"
    else:
        verdict = "neither"
    return RangeResult(verdict)


class FiltrationItem(NamedTuple):
    mu: Weight
    norm_with: Fraction
    norm_without: Fraction
    pairing_lambda: Fraction
    pairing_delta: Fraction

    @property
    def ok(self) -> bool:
        return (
            self.norm_with > self.norm_without
            and self.pairing_lambda >= 0
            and self.pairing_delta >= 0
        )


class _OnFirstRead:
    """A dataclass field that may be given a function in place of its
    value: the function is called on the first read of the field, and its
    result is kept as the value from then on."""

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, obj, owner=None):
        if obj is None:
            raise AttributeError(self.name)  # so that the field has no default
        value = obj.__dict__[self.name]
        if callable(value):
            value = obj.__dict__[self.name] = value()
        return value

    def __set__(self, obj, value):
        obj.__dict__[self.name] = value


@dataclass(frozen=True)
class FiltrationReport:
    """Outcome of the vanishing sweep for one datum.

    The two certificates are root-level facts that bound every layer of
    the filtration at once: every nilradical root pairs non-negatively
    with the translated character, and every nilradical root has positive
    unitary support (so mu_1 = 0 forces mu = 0).  The explicit items
    re-verify the norm expansion on the first 500 dominant states, in
    increasing order; ``filtration_vanishing`` hands them over packed, and
    they are decoded on the first read of ``items``, then kept.
    """

    height_bound: int
    enumerated: int
    dominant_count: int
    items: tuple[FiltrationItem, ...] = _OnFirstRead()
    violations: tuple[FiltrationItem, ...]
    truncated: bool
    cert_weight_pairing: bool
    cert_unitary_support: bool

    @property
    def passed(self) -> bool:
        return not self.violations and self.cert_weight_pairing and self.cert_unitary_support


class _Digits:
    """Where each column of a packed monoid state sits: the width of its
    digit in bits, which holds the value plus the top bit, and the digit's
    shift, most significant column first."""

    __slots__ = ("widths", "shifts", "zero")

    def __init__(self, offs: Iterable[int]):
        self.widths = tuple((2 * off).bit_length() + 1 for off in offs)
        self.shifts = tuple(sum(self.widths[i + 1 :]) for i in range(len(self.widths)))
        self.zero = sum(1 << w - 1 << sh for w, sh in zip(self.widths, self.shifts))

    def decode(self, y: int, cols: Iterable[int]) -> tuple[int, ...]:
        """The values of the columns ``cols`` in state ``y``."""
        return tuple(
            (y >> self.shifts[i] & (1 << self.widths[i]) - 1) - (1 << self.widths[i] - 1)
            for i in cols
        )

    def nonneg(self, cols: Iterable[int]) -> int:
        """``h``, the top bits of the digits of ``cols``: ``y & h == h``
        exactly when every column in ``cols`` is >= 0 in state ``y``."""
        return sum(1 << self.widths[i] - 1 << self.shifts[i] for i in cols)


def _monoid_sums(
    rows: tuple[tuple[int, ...], ...], max_height: int, cap: int
) -> tuple[list[list[int]], bool, _Digits]:
    """Packed sums of at most ``max_height`` rows, layer by layer.

    Breadth first: layer h holds the states first reached as a sum of h
    rows, sorted.  The plain order walks layer h - 1 in increasing order
    and extends each state by every row, in the given order.  The sweep
    stops at the first new state found in that order while more than
    ``cap`` states are known (the zero state included).  The flag reports
    that stop, and the layer being built then ends there.  The returned
    list holds layers 1, 2, ...: the zero state (layer 0) is left out.
    The layers are pairwise disjoint, and the zero state and their union
    are exactly the states a ``seen`` set of the plain order would hold.

    The sweep walks the plain order but extends each state x only by the
    rows >= its key k(x), the row that first reached it (the zero state's
    key is the least row); ``seen`` maps x to those rows, in the given
    order.  A skipped pair adds nothing.  Let x be in layer h - 1, r <
    k(x), and y = x + r a sum of no fewer than h rows (else y is known).
    Then y - k(x) = (x - k(x)) + r is a sum of h - 1 rows and of no fewer,
    so it is in layer h - 1, the largest row r* with y - r* in layer h - 1
    is >= k(x) > r, and x' = y - r* < x comes before x.  Also k(x') <= r*,
    as y - k(x') = (x' - k(x')) + r* is in layer h - 1 too.  So the pair
    (x', r*) comes first: it added y, found y known, or stopped the sweep.
    By induction the sweep finds the same new states in the same order as
    the plain order, and stops at the same state.  A row equal in value to
    k(x) gives x' = x, so it stays (>=, not >).

    The cap is checked once per ``_CAP_CHUNK`` walked states.  A layer
    may add room = max(cap + 1 - |seen before it|, 0) states and lists its
    new ones in the plain order, so once that list passes room, its first
    room states are those the plain order kept: the rest are dropped.

    Each state is one int holding one digit per column, most significant
    first.  Column i has the bound off_i = max|entry_i| * max(max_height, 0)
    and a digit x_i + t_i of w_i = (2*off_i).bit_length() + 1 bits, with
    t_i = 2**(w_i - 1) > 2*off_i its top bit.  A sum of at most
    ``max_height`` rows has every x_i in [-off_i, off_i], so every digit
    stays in [0, 2*t_i): adding a row is one integer addition of its
    packed (signed) digits and never carries or borrows, and bit t_i is
    set exactly when x_i >= 0 (``_Digits.nonneg``).

    Callers may append columns that are linear functions of the leading
    (coordinate) columns; a sum then carries their values along.  Integer
    order is lexicographic order of the digits, and two states that agree
    on the coordinates agree on every column, so integer order is
    coordinate-tuple order, for the rows as for the states, and the states
    are in bijection with the coordinate sums: the sweep visits and
    truncates exactly as it would on coordinate tuples.  Nothing is
    decoded here; ``_Digits`` reads the columns of the states a caller
    needs.
    """
    digits = _Digits(max(map(abs, col)) * max(max_height, 0) for col in zip(*rows))
    packed = [sum(v << sh for v, sh in zip(r, digits.shifts)) for r in rows]
    at_or_above = {low: [r for r in packed if r >= low] for low in packed}
    seen = {digits.zero: packed}
    layers: list[list[int]] = []
    frontier = [digits.zero]
    truncated = False
    for _h in range(max_height):
        if truncated or not frontier:
            break
        nxt = []
        room = max(cap + 1 - len(seen), 0)
        for start in range(0, len(frontier), _CAP_CHUNK):
            for x in frontier[start : start + _CAP_CHUNK]:
                for r in seen[x]:
                    y = x + r
                    if y not in seen:
                        seen[y] = at_or_above[r]
                        nxt.append(y)
            if len(nxt) > room:
                del nxt[room:]
                truncated = True
                break
        nxt.sort()
        layers.append(nxt)
        frontier = nxt
    return layers, truncated, digits


# A filtration report lists this many dominant states as items.
_REPORTED_ITEMS = 500


def _decode_items(
    digits: _Digits, n: int, lam_d: tuple[int, ...], delta_d: tuple[int, ...], states: Iterable[int]
) -> tuple[FiltrationItem, ...]:
    """The ``FiltrationItem``s of packed states of one datum's sweep, in order.

    All vectors are in doubled-integer coordinates, so products are 4x the
    values; ``lam_d`` and ``delta_d`` cover the unitary coordinates only,
    and map() stops there when pairing them with mu.  base = lambda +
    delta_L1, so |base + mu_1|^2 expands into the base norm, twice the two
    pairings and |mu_1|^2.
    """
    n_u = len(lam_d)
    base_d = tuple(map(add, lam_d, delta_d))
    base4 = sum(map(mul, base_d, base_d))
    out = []
    for y in states:
        mu_d = digits.decode(y, range(n))
        mu1_d = mu_d[:n_u]
        pl4 = sum(map(mul, lam_d, mu1_d))
        pd4 = sum(map(mul, delta_d, mu1_d))
        with4 = base4 + 2 * (pl4 + pd4) + sum(map(mul, mu1_d, mu1_d))
        out.append(
            FiltrationItem(
                mu=Weight(mu_d),
                norm_with=Fraction(with4, 4),
                norm_without=Fraction(base4, 4),
                pairing_lambda=Fraction(pl4, 4),
                pairing_delta=Fraction(pd4, 4),
            )
        )
    return tuple(out)


@functools.lru_cache(maxsize=256)
def _delta_l1(a_list: tuple[int, ...]) -> tuple[int, ...]:
    """Doubled delta_L1 on the unitary coordinates: the half sum of the
    positive roots of each gl(a_i), (a-1)/2, ..., -(a-1)/2."""
    return tuple(v for a in a_list for v in half_sum_positive_roots(GroupType("A", a)).doubled)


# (layout, cap) -> (L, h): a sweep of the layout at height h stopped at
# the cap in its L-th layer, and answers every height >= L (``_layout_sweep``)
_STOP_LAYERS: dict[tuple[tuple[int, ...], int, str, int], tuple[int, int]] = {}


def _layout_rows(
    a_list: tuple[int, ...], n0: int, kind: str
) -> tuple[tuple[tuple[int, ...], ...], int]:
    """The rows of ``_layout_sweep``: each nilradical root's coordinates,
    then its pairings with the Levi-dominance functionals and with
    delta_L1; and the index of the delta_L1 column."""
    n = sum(a_list) + n0
    # mu is dominant for the Levi when it pairs >= 0 with each simple root
    # of each factor; halved, the doubled roots keep the digits narrow
    dominance = [tuple(v // 2 for v in r) for r in _levi_roots(a_list, n0, kind)]
    roots = _layout_roots(a_list, n0, kind)[0]
    # one column per functional f: <f, r> for every root r at once, summed
    # over f's non-zero entries alone (at most two for a dominance
    # functional; delta_L1 has the unitary coordinates only); at_coord[i]
    # holds the roots' i-th coordinates
    at_coord = list(zip(*roots)) or [()] * n
    columns = []
    for f in dominance + [_delta_l1(a_list)]:
        column = [0] * len(roots)
        for i, v in enumerate(f):
            if v:
                column = list(map(add, column, map(v.__mul__, at_coord[i])))
        columns.append(column)
    return tuple(map(tuple.__add__, roots, zip(*columns))), n + len(dominance)


@functools.lru_cache(maxsize=256)
def _layout_sweep(
    a_list: tuple[int, ...],
    n0: int,
    kind: str,
    height: int,
    cap: int,
) -> tuple[int, int, bool, _Digits, tuple[int, ...], tuple[int, ...]]:
    """The dominant part of the monoid sweep of one layout, height and cap.

    The packed rows hold the coordinates of each nilradical root r, its
    pairings with the Levi's simple roots, halved, and ``<delta_L1, r>``.
    A dominant state is a *suspect* when that pairing is negative or its
    unitary part is zero.  The unitary coordinates lead, so the latter are
    one interval of each sorted layer (all of it when n_u = 0), and pair 0
    with delta_L1, so the sign test finds none of them.  No shift reaches
    the sweep: the pairing with the shifts is > 0 on every root for every
    parameter (``filtration_vanishing``), so every parameter of the layout
    shares one entry.

    Returns ``(enumerated, dominant_count, truncated, digits, head,
    suspects)``: the counts and truncation flag of the sweep, its digit
    layout, and two tuples of packed states, each in increasing order: in
    ``head`` the first ``_REPORTED_ITEMS`` dominant states (all of them if
    there are fewer), in ``suspects`` every suspect among all the dominant
    states, those of the head included.  Nothing else is kept.

    A sweep that stops at the cap does so in its last layer, the L-th,
    which is empty when the cap was reached exactly at the end of layer
    L - 1 (the first new state of layer L then stops it).  A sweep of the
    same layout and cap at any height h >= L builds the same L layers and
    stops at the same state.  The height enters only through the digit
    widths and the number of layers allowed, and the states of the two
    sweeps correspond one to one through their coordinates
    (``_monoid_sums``).  Both sweeps find their new states in the plain
    order: each layer in increasing order, which is coordinate-tuple order
    whatever the widths, and the rows in their given order.  So they find
    the same states in the same order and stop at the same state.  Their
    counts, flag, head and suspects are then equal, and the entry's own
    ``digits`` decode its ``head`` and ``suspects``.

    So the first sweep of a (layout, cap) that stops at the cap records
    (L, height) in ``_STOP_LAYERS``, and ``filtration_vanishing`` makes
    every call at a height >= L at that recorded height, so that all of
    them read one cache entry.  L depends on the coordinates alone, as
    the appended columns are functions of them, so a record never goes
    stale: after ``cache_clear`` or an eviction the call runs the sweep
    again at the recorded height.  A height below L builds fewer layers
    and does not stop at the cap, and a sweep that did not stop at the cap
    may grow with the height, so both are cached under their own height.
    """
    n_u = sum(a_list)
    n = n_u + n0
    rows, k = _layout_rows(a_list, n0, kind)
    layers, truncated, digits = _monoid_sums(rows, height, cap)
    if truncated:
        _STOP_LAYERS.setdefault((a_list, n0, kind, cap), (len(layers), height))

    dom = digits.nonneg(range(n, k))
    pair = digits.nonneg((k,))
    dominant = [[y for y in layer if y & dom == dom] for layer in layers]
    head = itertools.islice(heapq.merge(*dominant), _REPORTED_ITEMS)
    # a zero unitary part: the digits above the low ones are the zero state's
    low = sum(digits.widths[n_u:])
    lo = digits.zero >> low << low
    suspects = []
    for layer in dominant:
        suspects += layer[bisect_left(layer, lo) : bisect_left(layer, lo + (1 << low))]
        suspects += [y for y in layer if y & pair != pair]
    suspects.sort()
    return (
        sum(map(len, layers)),
        sum(map(len, dominant)),
        truncated,
        digits,
        tuple(head),
        tuple(suspects),
    )


def filtration_vanishing(
    d_plus: AqDatum,
    psi: ArthurParameter,
    height_bound: int,
    state_cap: int = FILTRATION_STATE_CAP,
) -> FiltrationReport:
    """Verify the norm-increase behind the filtration vanishing argument.

    Enumerates non-negative integer combinations mu of nilradical roots
    (height = number of roots summed) up to ``height_bound``, keeps those
    dominant for the Levi, and checks for every mu with nonzero unitary
    part mu_1 that |lambda + mu_1 + delta_L1|^2 strictly exceeds
    |lambda + delta_L1|^2, reporting the two pairing terms of the
    expansion separately.  lambda is the translated character for psi.
    The acceptance sweep passes 2 * max(T), and so does ``verify
    filtration`` unless ``--height-bound`` is given.

    The difference of the two norms is 2<lambda, mu_1> + 2<delta_L1, mu_1>
    + |mu_1|^2, and the certificates bound it at every height at once:

    - ``cert_weight_pairing`` (<lambda, r> >= 0 for every nilradical root
      r) gives <lambda, mu_1> >= 0: lambda is zero on the residual
      coordinates, so <lambda, mu_1> = <lambda, mu> = sum c_r <lambda, r>
      with every coefficient c_r >= 0.  It holds for every parameter that
      ``lambda_tilde`` accepts.  In canonical block order t2 does not
      increase and every a >= 1, so t~_i - t~_{i+1} = (t2_i - t2_{i+1}
      + a_i + a_{i+1}) / 2 >= 1, and t~_v >= t_v > 0 as eps_G >= 0 and
      n_0 >= 0.  lambda is constant on each block, and a nilradical root
      pairs with it as a difference t~_i - t~_j (i < j), a single shift
      or a sum of two shifts, each > 0, whatever the Levi layout.
    - Levi dominance gives <delta_L1, mu_1> >= 0, by Abel summation on
      each block: with d_1 > ... > d_a the entries of delta_L1 there and
      D_k = d_1 + ... + d_k, the block contributes
      sum_{k<a} (m_k - m_{k+1}) D_k + m_a D_a.  Each m_k - m_{k+1} >= 0
      because mu_1 does not increase inside the block, each D_k >= 0
      because the d_k decrease and sum to D_a = 0.
    - ``cert_unitary_support`` (grade . r > 0 for a grading that is zero
      on the residual coordinates) gives grade . mu > 0 for mu != 0, so
      mu_1 != 0 and |mu_1|^2 > 0.

    So when ``cert_weight_pairing`` holds, a dominant mu != 0 can fail
    only if <delta_L1, mu_1> < 0 or mu_1 = 0 (a *suspect*), and the
    suspects are the only states decoded to find the violations.  When it
    fails, the first 500 dominant states are tested as well.  Both
    certificates are still computed and reported, and ``passed`` requires
    them.  The first 500 dominant states are the report's ``items``; they
    reach the report packed and are decoded on the first read of
    ``items``, so a caller that reads only the verdict decodes none of
    them.

    The monoid, the dominance test and the suspect test depend only on the
    layout (block sizes, residual rank and kind), the height and the state
    cap, so ``_layout_sweep`` is an ``lru_cache`` of one sweep per key
    ``(layout, height, cap)`` and every parameter that shares the key reads
    it.  A sweep that stops at the cap in its L-th layer is the same sweep
    at every height >= L, as it finds its states in an order that no
    height changes (``_layout_sweep``).  Its (L, h) sits in
    ``_STOP_LAYERS`` under (layout, cap), and a call at a height >= L is
    made at h, so the sweep is run once and read at all those heights; a
    lower height, or a sweep that did not stop at the cap, keeps a key of
    its own.

    ``_decode_items`` turns a state into a ``FiltrationItem``, computing the
    two pairings and the norm in 4x integers; the violations are the
    decoded candidates that fail ``FiltrationItem.ok``, the one place an
    item's verdict is decided.
    """
    if range_check(d_plus).verdict != "good":
        raise ParameterError("filtration sweep requires a good-range datum")
    a_list, n0, kind = _layout(d_plus.levi)
    shifts = lambda_tilde(psi)
    _check_levi(psi, d_plus.levi)

    # all vectors in doubled-integer coordinates, so products are 4x the
    # values; lam_d, delta_d and grade cover the unitary coordinates only,
    # and map() stops there when pairing them with a root
    n = sum(a_list) + n0
    lam_d = tuple(2 * t for t, a in zip(shifts, a_list) for _ in range(a))
    delta_d = _delta_l1(a_list)
    roots = _layout_roots(a_list, n0, kind)[0]

    # root-level certificates, covering every height at once: the
    # translated character pairs >= 0 with each nilradical root, and a
    # strictly positive block grading (decreasing over the unitary
    # factors, zero on the residual) shows mu != 0 forces mu_1 != 0
    cert_pairing = all(sum(map(mul, lam_d, r)) >= 0 for r in roots)
    v = len(a_list)
    grade = [v - i for i, a in enumerate(a_list) for _ in range(a)]
    cert_support = all(sum(map(mul, grade, r)) > 0 for r in roots)

    items = violations = ()
    enumerated = 0
    dominant_count = 0
    truncated = False
    if roots:
        stop, ran_at = _STOP_LAYERS.get((a_list, n0, kind, state_cap), (0, height_bound))
        enumerated, dominant_count, truncated, digits, head, suspects = _layout_sweep(
            a_list, n0, kind, ran_at if height_bound >= stop else height_bound, state_cap
        )
        decode = functools.partial(_decode_items, digits, n, lam_d, delta_d)
        candidates = suspects
        if not cert_pairing:
            # without the certificate a state that is not a suspect may
            # fail as well, so the reported states are tested too
            candidates = sorted(set(suspects).union(head))
        violations = tuple(item for item in decode(candidates) if not item.ok)
        items = lambda: decode(head)
    return FiltrationReport(
        height_bound=height_bound,
        enumerated=enumerated,
        dominant_count=dominant_count,
        items=items,
        violations=violations,
        truncated=truncated,
        cert_weight_pairing=cert_pairing,
        cert_unitary_support=cert_support,
    )


@dataclass(frozen=True)
class TranslatedPacket:
    """Packet for psi, plus the entries dropped by kernel vanishing."""

    packet: PacketData
    vanishing: tuple[tuple[AqDatum, tuple[int, ...]], ...]
    quotient: QuotientMap


def translate_packet(packet_plus: PacketData, psi: ArthurParameter) -> TranslatedPacket:
    """Translate a packet for a dominating parameter down to psi.

    Every datum must be one that ``aq_datum`` gives psi_+ (a Levi that
    fits psi_+, with psi_+'s shifts) and lie in the good range; its shifts
    are replaced by the psi-side shifts and its character is transported
    through the quotient A(psi_+) -> A(psi).  Entries whose character is
    nontrivial on the kernel acquire a vanishing annotation and are
    dropped.

    Each distinct datum is checked and rebuilt once, however many
    characters it carries, and each distinct character is pushed once per
    call: the map is kept on psi_+ (``quotient_map``), the shifts and A_q
    data on each parameter, and the pushed characters of a shape of
    quotient map and the range verdict of a (layout, t~) pair in bounded
    module caches.
    """
    psi_plus = packet_plus.psi
    qm = quotient_map(psi_plus, psi)
    shifts = lambda_tilde(psi)
    # keyed by id: ``aq_datum`` returns one object per (psi_+, levi, sigma),
    # so equal data share it, and every datum stays alive in packet_plus
    moved: dict[int, AqDatum] = {}
    pushes: dict[tuple[int, ...], tuple[int, ...] | None] = {}
    entries = []
    dropped = []
    for datum, values in packet_plus.entries:
        new_datum = moved.get(id(datum))
        if new_datum is None:
            # a Levi that does not fit psi_+ raises here; the kept datum
            # differs from this one only where the shifts do
            if _aq_datum(psi_plus, (datum.levi, datum.sigma)) != datum:
                raise ParameterError(
                    f"entry shifts {datum.t_tilde} do not match the dominating parameter"
                )
            if range_check(datum).verdict != "good":
                raise ParameterError(f"{datum.label()} is not in the good range")
            new_datum = moved[id(datum)] = AqDatum(datum.levi, shifts, datum.sigma)
        try:
            pushed = pushes[values]
        except KeyError:
            pushed = pushes[values] = qm.push_character(values)
        except TypeError:  # values that do not hash, a list say: pushed as they are
            pushed = qm.push_character(values)
        if pushed is None:
            dropped.append((new_datum, values))
        else:
            entries.append((new_datum, pushed))
    return TranslatedPacket(PacketData(psi, tuple(entries)), tuple(dropped), qm)

