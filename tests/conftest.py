import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from arthurcomb.aq import aq_datum, enumerate_levis, packet_data
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
