"""The package's public surface is what its entry points reach, and
README's quick start runs as documented.

The entry points are ``cli.main`` (the ``arthurcomb`` command), the
benchmark workloads (``perfbench/workloads.py``), the acceptance suite
and README's python blocks.  Reachability is by name, with the standard
library's ``ast`` alone: a top-level definition of a ``src`` module is
reached when its name is read, as a name or as an attribute, by an entry
point or by a reached definition.  A name that only its own definition,
an ``__all__`` list, an import or unreached code reads is not reached.
A reached class brings in its decorators, bases, fields and dunder
methods; any other method of it is reached only when its name is read.
A record field (of a dataclass or a named tuple), a slot of a value
class or a public method of a reached class is read when an entry point
or a reached definition reads an attribute of that name outside an
``__init__``; a keyword argument to a constructor is not a read.  A
name that two reached classes define is listed with its classes in
``SHARED_MEMBERS``, whose reads were checked by hand.  Every name a ``src`` module imports is read
in that module or listed in its ``__all__``.
"""

import argparse
import ast
import re
from fractions import Fraction
from pathlib import Path

import pytest

from arthurcomb import aq, cli, params, torus
from arthurcomb.weyl import weight

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "arthurcomb"


def _readme_blocks() -> list[str]:
    return re.findall(r"^```python\n(.*?)^```", (ROOT / "README.md").read_text(), re.M | re.S)


def _reads(tree: ast.AST) -> set[str]:
    """Every name and attribute that a tree reads."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            out.add(node.attr)
    return out


def _definitions(tree: ast.Module) -> dict[str, list[ast.AST]]:
    """A module's top-level definitions by name: functions, classes and
    assignments, without ``__all__``."""
    out: dict[str, list[ast.AST]] = {}
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [stmt.name]
        elif isinstance(stmt, ast.Assign):
            names = [t.id for t in stmt.targets if isinstance(t, ast.Name)]
        elif isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
            names = [stmt.target.id]
        else:
            continue
        for name in names:
            if name != "__all__":
                out.setdefault(name, []).append(stmt)
    return out


def _exports(tree: ast.Module) -> list[str]:
    for stmt in tree.body:
        if isinstance(stmt, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in stmt.targets
        ):
            return list(ast.literal_eval(stmt.value))
    return []


def _split_class(cls: ast.ClassDef) -> tuple[list[ast.AST], list[ast.AST]]:
    """The parts a class brings in when it is reached (decorators, bases,
    fields and other statements, dunder methods), and its other methods."""
    methods = [
        stmt
        for stmt in cls.body
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not (stmt.name.startswith("__") and stmt.name.endswith("__"))
    ]
    core = [*cls.decorator_list, *cls.bases, *cls.keywords]
    return core + [stmt for stmt in cls.body if stmt not in methods], methods


def _reach(extra: str = "") -> tuple[dict[str, ast.Module], list[ast.AST], set[str]]:
    """The ``src`` modules' trees, the entry points and every definition
    they reach, and the names of those definitions.  A non-empty ``extra``
    is one more module, whose top-level statements outside its definitions
    are an entry point too.  A method other than a dunder is reached once
    both its class and its name are."""
    trees = {p.stem: ast.parse(p.read_text()) for p in sorted(SRC.glob("*.py"))}
    extra_stmts: list[ast.stmt] = []
    if extra:
        trees["extra"] = ast.parse(extra)
        defined = [n for nodes in _definitions(trees["extra"]).values() for n in nodes]
        extra_stmts = [stmt for stmt in trees["extra"].body if stmt not in defined]
    defs: dict[str, list[ast.AST]] = {}
    methods: dict[str, list[tuple[str, ast.AST]]] = {}  # by method name
    own: dict[str, list[ast.AST]] = {}  # by class name
    for tree in trees.values():
        for name, nodes in _definitions(tree).items():
            for node in nodes:
                if isinstance(node, ast.ClassDef):
                    core, meths = _split_class(node)
                    defs.setdefault(name, []).extend(core)
                    own.setdefault(name, []).extend(meths)
                    for m in meths:
                        methods.setdefault(m.name, []).append((name, m))
                else:
                    defs.setdefault(name, []).append(node)
    entries = [
        ast.parse((ROOT / "perfbench" / "workloads.py").read_text()),
        ast.parse((ROOT / "tests" / "test_acceptance.py").read_text()),
        *map(ast.parse, _readme_blocks()),
        *_definitions(trees["cli"])["main"],
        *extra_stmts,
    ]
    todo = set().union(*map(_reads, entries))
    reached: set[str] = set()
    found: list[ast.AST] = []
    while todo:
        name = todo.pop()
        reached.add(name)
        new = [
            *defs.get(name, ()),
            *(m for cls, m in methods.get(name, ()) if cls in reached),
            *(m for m in own.get(name, ()) if m.name in reached),
        ]
        for node in new:
            todo |= _reads(node) - reached
        found += new
    return trees, entries + found, reached


def unreached_exports() -> list[str]:
    """``module.name`` for every ``__all__`` name that no entry point reaches."""
    trees, _nodes, reached = _reach()
    return [
        f"{module}.{name}"
        for module, tree in trees.items()
        for name in _exports(tree)
        if name not in reached
    ]


def test_every_exported_name_is_reached_from_an_entry_point():
    unreached = unreached_exports()
    assert not unreached, "exported, but no entry point reaches: " + ", ".join(unreached)


# Members that no reached code reads as an attribute, kept for a reason.
MEMBERS_KEPT = {
    "EndoscopicSplit.s": "a documented result in README",
    "EndoscopicSplit.psi_minus": "a documented result in README",
    "EndoscopicSplit.psi_plus": "a documented result in README",
    "EndoscopicSplit.n_minus": "the dual dimension n' that the split documents",
    "EndoscopicSplit.n_plus": "the dual dimension n'' that the split documents",
    "ComponentGroup.dims": "a constructor input of the differential tests and oracles",
    "ComponentGroup.det_relation": "a constructor input of the differential tests and oracles",
    "QuotientMap.index_map": "a constructor input of the differential tests and oracles",
}


# Member names that more than one reached class defines, with those
# classes.  A read by name cannot tell them apart, so each class's own read
# was found by hand (for example ``psi.blocks`` and ``rep.blocks`` in cli).
SHARED_MEMBERS = {
    "blocks": ("ArthurParameter", "GoodParityReport"),
    "doubled": ("InfChar", "Weight"),
    "entries": ("InfChar", "PacketData"),
    "height_bound": ("FiltrationReport", "Settings"),
    "ok": ("BlockParity", "FiltrationItem", "GoodParityReport"),
    "rank": ("ClassicalGroup", "GroupType"),
}


def unread_members(extra: str = "") -> list[str]:
    """``Class.member`` for every record field, slot (``__slots__`` names
    other than ``__dict__`` and ``__weakref__``) and public method of a
    reached class that neither an entry point nor a reached definition
    reads as an attribute (``obj.member``), outside ``MEMBERS_KEPT``; and
    for every member whose name another reached class defines too, unless
    ``SHARED_MEMBERS`` lists that name with exactly those classes.
    ``extra`` is passed to ``_reach``.

    Reads are by name, as in ``unreached_exports``: a member counts as read
    when any reached code reads an attribute of that name, whatever the
    object.  A keyword argument of a constructor is not a read, and
    neither is a read in the body of an ``__init__``, which only derives
    the other members from it."""
    trees, nodes, reached = _reach(extra)
    attrs: set[str] = set()
    todo = list(nodes)
    while todo:
        node = todo.pop()
        if isinstance(node, ast.FunctionDef) and node.name == "__init__":
            continue
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            attrs.add(node.attr)
        todo.extend(ast.iter_child_nodes(node))
    owners: dict[str, list[str]] = {}
    for tree in trees.values():
        for cls in tree.body:
            if not isinstance(cls, ast.ClassDef) or cls.name not in reached:
                continue
            for stmt in cls.body:
                if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
                    names = [stmt.target.id]
                elif isinstance(stmt, ast.Assign) and any(
                    isinstance(t, ast.Name) and t.id == "__slots__" for t in stmt.targets
                ):
                    names = [n for n in ast.literal_eval(stmt.value) if not n.startswith("__")]
                elif isinstance(stmt, ast.FunctionDef) and not stmt.name.startswith("_"):
                    names = [stmt.name]
                else:
                    continue
                for name in names:
                    owners.setdefault(name, []).append(cls.name)
    out = []
    for name, classes in owners.items():
        shared = len(classes) > 1 and tuple(sorted(classes)) != SHARED_MEMBERS.get(name)
        for cls_name in classes:
            member = f"{cls_name}.{name}"
            if shared or (name not in attrs and member not in MEMBERS_KEPT):
                out.append(member)
    # a listed name that fewer classes define now needs no hand check
    out += [f"SHARED_MEMBERS[{name!r}]" for name in SHARED_MEMBERS if len(owners.get(name, ())) < 2]
    return out


def test_every_member_of_a_reached_class_is_read():
    unread = unread_members()
    assert not unread, (
        "a member that no entry point reads, or whose name another class shares "
        "outside SHARED_MEMBERS: " + ", ".join(unread)
    )


# A reached class whose field shares a name with ``Settings.seed``, which
# cli reads, and is read nowhere else.
_SHADOW = """
from dataclasses import dataclass


@dataclass(frozen=True)
class Shadow:
    seed: int


Shadow(seed=0)
"""


def test_a_member_that_shares_its_name_with_another_class_is_flagged():
    assert "Shadow.seed" in unread_members(_SHADOW)


# A reached class whose field only an uncalled method of its own reads.
_BLIND = """
from dataclasses import dataclass


@dataclass(frozen=True)
class Blind:
    zzz_only_here: int

    def _never_called(self):
        return self.zzz_only_here


Blind(zzz_only_here=0)
"""


def test_a_field_read_only_by_an_uncalled_method_is_flagged():
    assert "Blind.zzz_only_here" in unread_members(_BLIND)


# The same as a named tuple, the other record idiom.
_BLIND_TUPLE = """
from typing import NamedTuple


class BlindTuple(NamedTuple):
    zzz_only_here: int

    def _never_called(self):
        return self.zzz_only_here


BlindTuple(zzz_only_here=0)
"""


def test_an_unread_named_tuple_field_is_flagged():
    assert "BlindTuple.zzz_only_here" in unread_members(_BLIND_TUPLE)


# The same as a value class, the third record idiom: its fields are its
# slots, which its own __init__ sets without reading them.
_BLIND_VALUE = """
from arthurcomb.weyl import _Value


class BlindValue(_Value):
    __slots__ = ("zzz_only_here", "__dict__")

    def __init__(self, zzz_only_here):
        object.__setattr__(self, "zzz_only_here", zzz_only_here)

    def _never_called(self):
        return self.zzz_only_here


BlindValue(zzz_only_here=0)
"""


def test_an_unread_value_class_slot_is_flagged():
    unread = [m for m in unread_members(_BLIND_VALUE) if m.startswith("BlindValue.")]
    assert unread == ["BlindValue.zzz_only_here"]  # and not __dict__


# A value class whose __init__ alone reads a slot, to derive another one.
_BLIND_INIT = """
from arthurcomb.weyl import _Value


class BlindInit(_Value):
    __slots__ = ("zzz_only_here", "zzz_derived")

    def __init__(self, zzz_only_here):
        object.__setattr__(self, "zzz_only_here", zzz_only_here)
        object.__setattr__(self, "zzz_derived", self.zzz_only_here + 1)


BlindInit(zzz_only_here=0).zzz_derived
"""


def test_a_slot_read_only_by_its_constructor_is_flagged():
    unread = [m for m in unread_members(_BLIND_INIT) if m.startswith("BlindInit.")]
    assert unread == ["BlindInit.zzz_only_here"]


# The record rule: a value record is a ``typing.NamedTuple``, cheap to
# define at import and to build, and a type that validates, derives
# attributes or keeps memos is a slotted value class (``weyl._Value``).
# These are the frozen dataclasses kept, each with its reason.
DATACLASSES_KEPT = {
    "FiltrationReport": "perfbench/selftest.py perturbs it with dataclasses.replace",
    "TranslatedPacket": "perfbench/selftest.py perturbs it with dataclasses.replace",
    "UniquenessReport": "perfbench/selftest.py perturbs it with dataclasses.replace",
}


def _src_classes() -> list[ast.ClassDef]:
    return [
        cls
        for path in sorted(SRC.glob("*.py"))
        for cls in ast.parse(path.read_text()).body
        if isinstance(cls, ast.ClassDef)
    ]


def _names(nodes: list[ast.expr]) -> set[str]:
    """The names of decorators or bases, a call's or an attribute's included."""
    nodes = [n.func if isinstance(n, ast.Call) else n for n in nodes]
    return {n.attr if isinstance(n, ast.Attribute) else getattr(n, "id", "") for n in nodes}


DATACLASSES = [cls.name for cls in _src_classes() if "dataclass" in _names(cls.decorator_list)]
NAMED_TUPLES = [cls.name for cls in _src_classes() if "NamedTuple" in _names(cls.bases)]


def test_every_dataclass_is_kept_for_a_listed_reason():
    assert sorted(DATACLASSES) == sorted(DATACLASSES_KEPT), (
        "a dataclass outside DATACLASSES_KEPT (make it a NamedTuple or a "
        "weyl._Value class, or list its reason), or a listed one that is gone: "
        + ", ".join(sorted(set(DATACLASSES) ^ set(DATACLASSES_KEPT)))
    )


def _records() -> dict[str, tuple]:
    """One instance of each named-tuple record of ``src``, by class name."""
    sp4 = params.ClassicalGroup("Sp", 2)
    psi = params.arthur_parameter(sp4, [params.block(Fraction(3, 2), 2), params.block(0, 1)])
    plus = params.dominate(psi, params.canonical_offsets(psi))
    datum = aq.aq_datum(plus, aq.enumerate_levis(plus)[0])
    parity = params.good_parity(psi)
    out = [
        datum,
        aq.packet_data(plus, [(datum, (1, 1))]),
        aq.range_check(datum),
        aq.FiltrationItem(weight((1, 0)), Fraction(2), Fraction(1), Fraction(0), Fraction(1, 2)),
        parity,
        parity.blocks[0],
        params.endoscopic_split(psi, (1, 1)),
        torus.translation_weight(psi, plus),
        cli.resolve_settings(argparse.Namespace(), {}),
    ]
    return {type(r).__name__: r for r in out}


@pytest.mark.parametrize("name", NAMED_TUPLES)
def test_a_record_is_frozen_hashable_and_equal_by_its_fields(name):
    rec = _records()[name]
    first = rec._fields[0]
    with pytest.raises(AttributeError):
        setattr(rec, first, None)
    rebuilt = type(rec)(*(getattr(rec, f) for f in rec._fields))
    assert rebuilt == rec and hash(rebuilt) == hash(rec)
    assert rec._replace(**{first: None}) != rec


def unused_imports() -> list[str]:
    """``module.name`` for every name a ``src`` module imports and neither
    reads nor lists in its ``__all__``.  The package's ``__init__`` is
    left out: it imports to re-export."""
    out = []
    for path in sorted(SRC.glob("*.py")):
        if path.stem == "__init__":
            continue
        tree = ast.parse(path.read_text())
        used = _reads(tree) | set(_exports(tree))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.partition(".")[0]
                    if name not in used:
                        out.append(f"{path.stem}.{name}")
    return out


def test_every_imported_name_is_read():
    unused = unused_imports()
    assert not unused, "imported, but never read: " + ", ".join(unused)


def _run_readme() -> dict[str, object]:
    """Run README's python blocks in order, in one namespace, and return
    the value of each expression statement, keyed by its source."""
    ns: dict[str, object] = {}
    values: dict[str, object] = {}
    for src in _readme_blocks():
        for stmt in ast.parse(src).body:
            if isinstance(stmt, ast.Expr):
                code = compile(ast.Expression(stmt.value), "README.md", "eval")
                values[ast.get_source_segment(src, stmt)] = eval(code, ns)
            else:
                exec(compile(ast.Module([stmt], []), "README.md", "exec"), ns)
    return values


def test_readme_quick_start_gives_the_values_its_comments_state():
    assert len(_readme_blocks()) == 2
    values = _run_readme()
    assert values["good_parity(psi).ok"] is True
    assert values['inf_char(psi, "GL").entries'] == (2, 1, 0, -1, -2)
    assert values['inf_char(psi, "G").entries'] == (2, 1)
    assert str(values["translation_weight(psi, plus).lambda_GL"]) == "(5,5,0,-5,-5)"
    assert values["uniqueness_check(psi, plus).unique"] is True
    assert values["d_plus.t_tilde, range_check(d_plus).verdict"] == ((8,), "good")
