from fractions import Fraction

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
