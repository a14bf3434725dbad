import os
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

from arthurcomb.aq import aq_datum, enumerate_levis, packet_data, translate_packet
from arthurcomb.params import ClassicalGroup, arthur_parameter, block, component_group


@pytest.fixture
def ex1():
    """Sp(4,R), psi = I_{3/2} (x) R[2] + triv (x) R[1]."""
    return arthur_parameter(
        ClassicalGroup("Sp", 2), [block(Fraction(3, 2), 2), block(0, 1)]
    )


def _full_packet(psi_plus):
    grp = component_group(psi_plus)
    return packet_data(
        psi_plus,
        [
            (aq_datum(psi_plus, levi), eps)
            for levi in enumerate_levis(psi_plus)
            for eps in grp.characters()
        ],
    )


@pytest.fixture
def full_packet():
    """Builds the packet of a parameter from every Levi datum paired with
    every character of its component group, Levis outermost."""
    return _full_packet


def _translates_to_full_packet(psi_plus, psi):
    """Whether ``translate_packet`` takes the full packet of psi_+ to the
    full packet of psi: as a multiset, every Levi of psi_+ with every
    character of A(psi), once each, and |Levis| x (|A(psi_+)| - |A(psi)|)
    vanishing entries."""
    result = translate_packet(_full_packet(psi_plus), psi)
    dropped = len(enumerate_levis(psi_plus)) * (
        len(component_group(psi_plus).characters()) - len(component_group(psi).characters())
    )
    return (
        Counter(result.packet.entries) == Counter(_full_packet(psi).entries)
        and len(result.vanishing) == dropped
    )


@pytest.fixture
def translates_to_full_packet():
    """Checks the translation statement for a domination pair (psi_+, psi)."""
    return _translates_to_full_packet


SRC = str(Path(__file__).resolve().parent.parent / "src")


def _child_env():
    """The environment of a child process that imports the package from
    this checkout's src/, ahead of any installed copy."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (SRC, env.get("PYTHONPATH"))))
    return env


def _run_python(args):
    """`python args` in a child process that sees this checkout; its stdout
    and stderr are kept as bytes."""
    return subprocess.run([sys.executable, *args], capture_output=True, env=_child_env())


def _run_cli(args):
    return _run_python(["-m", "arthurcomb.cli", *args])


@pytest.fixture
def run_cli():
    """Runs the CLI of this checkout in a child process."""
    return _run_cli


@pytest.fixture
def child_env():
    """The environment of a child process that sees this checkout."""
    return _child_env()


@pytest.fixture
def run_python():
    """Runs the interpreter in a child process that sees this checkout."""
    return _run_python
