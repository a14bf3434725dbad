"""The value classes of ``weyl``, ``params`` and ``aq`` behave as the
frozen dataclasses they replaced (``oracles.TWINS``).

On every parameter of the corpus, plain and signed, and on the groups,
blocks, infinitesimal characters, Weyl group types, weights, component
groups, quotient maps and Levi data that it reaches, each value
compares, hashes and prints as its twin does; its kept hash, read again,
is that of its fields; a pickle or a copy of it is an equal value that
prints the same and computes its hash afresh; assigning or deleting an
attribute raises the twin's ``AttributeError``; and each invalid
constructor input raises the twin's exception with the twin's message.
"""

import copy
import dataclasses
import functools
import pickle

import pytest

import oracles
from arthurcomb import aq, params, weyl
from oracles import twin

VALUE_CLASSES = (
    weyl.GroupType,
    weyl.Weight,
    params.ClassicalGroup,
    params.Block,
    params.ArthurParameter,
    params.InfChar,
    params.ComponentGroup,
    params.QuotientMap,
    aq.LeviDatum,
)
NAMES = [cls.__name__ for cls in VALUE_CLASSES]


@functools.cache
def _reached() -> dict[str, list]:
    """The distinct values (by ``repr``) of each value class that the
    corpus reaches, by class name, in order of first appearance."""
    found: dict[str, dict] = {name: {} for name in NAMES}
    for signed in (False, True):
        for psi in params.corpus(signed):
            plus = params.dominate(psi, params.canonical_offsets(psi))
            qm = params.quotient_map(plus, psi)
            gl, g = params.inf_char(psi, "GL"), params.inf_char(psi, "G")
            reached = [psi, plus, psi.group, psi.group.gside_type(), gl, g, gl.weight, g.weight]
            reached += [*psi.blocks, *plus.blocks, *qm.source.basis, qm, qm.source, qm.target]
            if signed:  # the Levis of criteria 6 and 7
                reached += aq.enumerate_levis(plus)
            for x in reached:
                found[type(x).__name__].setdefault(repr(x), x)
    return {name: list(values.values()) for name, values in found.items()}


def _rebuilt(x):
    """A new value of x's class from x's fields, as its twin names them."""
    names = [f.name for f in dataclasses.fields(oracles.TWINS[type(x).__name__]) if f.init]
    return type(x)(*(getattr(x, name) for name in names))


def _derived(x) -> tuple:
    """The attributes that x's class derives from its fields."""
    return tuple(getattr(x, name) for name in type(x)._derived)


def _fields(x) -> tuple:
    return tuple(getattr(x, f) for f in type(x)._fields)


def test_every_value_class_has_a_twin_and_is_reached():
    assert sorted(oracles.TWINS) == sorted(NAMES)
    assert all(len(_reached()[name]) >= 2 for name in NAMES)
    assert all(not dataclasses.is_dataclass(cls) for cls in VALUE_CLASSES)


@pytest.mark.parametrize("name", NAMES)
def test_compares_hashes_and_prints_as_its_twin(name):
    values = _reached()[name]
    twins = [twin(x) for x in values]
    for i, (x, t) in enumerate(zip(values, twins)):
        assert type(t) is oracles.TWINS[name]
        assert (hash(x), repr(x), str(x)) == (hash(t), repr(t), str(t))
        # the second read is the kept hash
        assert hash(x) == hash(_fields(x)) == hash(t)
        assert _derived(x) == tuple(getattr(t, d) for d in type(x)._derived)
        same = _rebuilt(x)
        assert same is not x and (same == x, x == same, same != x) == (True, True, False)
        assert hash(same) == hash(x)
        # both ways round, against its neighbours, which differ from it
        for j in (i - 1, i + 1):
            if 0 <= j < len(values):
                y, u = values[j], twins[j]
                assert (x == y, y == x, x != y, y != x) == (t == u, u == t, t != u, u != t)
        # never equal to a value of another class, its twin included
        assert (x == t, t == x, x != t, x == _fields(x)) == (False, False, True, False)


def test_a_normalized_block_equals_the_block_it_normalizes_to():
    x, y = params.Block(3, 2, eta=-1), params.Block(3, 2)
    assert (x == y, hash(x), repr(x)) == (True, hash(y), repr(y))
    assert (twin(x) == twin(y), hash(twin(x)), repr(twin(x))) == (True, hash(x), repr(x))


@pytest.mark.parametrize("name", NAMES)
def test_pickles_and_copies_as_an_equal_value(name):
    for x in _reached()[name]:
        t = twin(x)
        hash(x)
        assert hash(x) == hash(_fields(x))
        for y in (pickle.loads(pickle.dumps(x)), copy.copy(x), copy.deepcopy(x)):
            # nor is the kept hash: a copy computes its own on the first read
            with pytest.raises(AttributeError):
                y._hash
            assert type(y) is type(x) and y == x and x == y
            assert (hash(y), repr(y), str(y)) == (hash(t), repr(t), str(t))
            assert hash(y) == hash(_fields(y)) == hash(x)
            assert _derived(y) == _derived(x)
            # memos are not carried over: a copy starts with none
            assert getattr(y, "__dict__", {}) == {}


def _message(fn) -> tuple[type, str]:
    with pytest.raises(Exception) as info:
        fn()
    return type(info.value), str(info.value)


@pytest.mark.parametrize("name", NAMES)
def test_refuses_assignment_and_deletion_as_its_twin(name):
    x = _reached()[name][-1]
    t, before = twin(x), repr(x)
    for attr in (*type(x)._fields, *type(x)._derived, "zzz_new"):
        for change in (lambda obj: setattr(obj, attr, None), lambda obj: delattr(obj, attr)):
            kind, text = _message(lambda: change(x))
            twin_kind, twin_text = _message(lambda: change(t))
            assert issubclass(kind, AttributeError) and issubclass(twin_kind, AttributeError)
            assert text == twin_text
    assert repr(x) == before


def _invalid() -> list[tuple[str, tuple, dict]]:
    """(class name, args, kwargs) of constructor calls that must raise."""
    sp4 = params.ClassicalGroup("Sp", 2)
    b, unip = params.Block(3, 2), params.Block(0, 1)
    psi = params.arthur_parameter(sp4, [params.Block(2, 1, mult=2), unip])
    qm = params.quotient_map(params.dominate(psi, params.canonical_offsets(psi)), psi)
    cg = qm.target
    return [
        ("GroupType", ("E", 2), {}),
        ("GroupType", ("A", -1), {}),
        ("GroupType", ("A", None), {}),
        ("GroupType", ("A",), {}),
        ("GroupType", ("A", 1), {"family": "B"}),
        ("Weight", (), {}),
        ("Weight", ((1,), (2,)), {}),
        ("ClassicalGroup", ("U", 2), {}),
        ("ClassicalGroup", ("Sp", -1), {}),
        ("ClassicalGroup", ("Sp", 2, (2, 2)), {}),
        ("ClassicalGroup", ("SOodd", 2, (-1, 6)), {}),
        ("ClassicalGroup", ("SOodd", 2, (2, 2)), {}),
        ("ClassicalGroup", ("SOeven", 2, (3,)), {}),
        ("ClassicalGroup", ("Sp",), {"rank": 1, "sig": None}),
        ("Block", (-2, 1), {}),
        ("Block", (2, 0), {}),
        ("Block", (2, 1), {"mult": 0}),
        ("Block", (0, 1, 0), {}),
        ("Block", (0, 1), {"eta": "+"}),
        ("Block", ("1", 1), {}),
        ("ArthurParameter", (sp4, (b,)), {}),
        ("ArthurParameter", (sp4, (unip, b)), {}),
        ("ArthurParameter", (sp4, (params.Block(2, 1), params.Block(2, 1), unip)), {}),
        ("ArthurParameter", (sp4, None), {}),
        ("ArthurParameter", (sp4,), {}),
        ("InfChar", ("H", (0,)), {}),
        ("InfChar", ("GL",), {}),
        ("ComponentGroup", (cg.basis, cg.dims, True), {}),
        ("ComponentGroup", (cg.basis, None, True, cg.s_psi), {}),
        ("QuotientMap", (qm.source, qm.target, (5, 0)), {}),
        ("QuotientMap", (qm.source, qm.target), {}),
        ("LeviDatum", ([(1, 1)], sp4), {}),
        ("LeviDatum", (((1, 1, 0),), sp4), {}),
        ("LeviDatum", ((2,), sp4), {}),
        ("LeviDatum", (((True, 1),), sp4), {}),
        ("LeviDatum", (((1.5, 0.5),), sp4), {}),
        ("LeviDatum", ((("1", 1),), sp4), {}),
        ("LeviDatum", (((1, 1),),), {}),
    ]


@pytest.mark.parametrize("call", _invalid(), ids=lambda call: call[0])
def test_an_invalid_input_raises_as_in_its_twin(call):
    name, args, kwargs = call
    cls = next(cls for cls in VALUE_CLASSES if cls.__name__ == name)
    got = _message(lambda: cls(*args, **kwargs))
    assert got == _message(lambda: oracles.TWINS[name](*twin(args), **kwargs))
