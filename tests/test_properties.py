"""Invariant battery on hand-picked diagrams and a sample of random ones.

The full corpus sweep lives in the acceptance suite; this module keeps the
same checks wired into fast unit runs so a broken invariant is caught close
to the change that broke it.
"""

import random
import zlib

import pytest

from builders import random_diagram
from conftest import (
    clasped_wire_diagram,
    fixture,
    hopf_diagram,
    hopf_pair_beside_unknot,
    trefoil_diagram,
    wire_with_meridian,
)
from property_checks import run_battery


@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize("q", [1, 2, 3])
def test_battery_hopf_link(sign, q):
    run_battery(hopf_diagram(sign), q, random.Random(10 * q + sign))


@pytest.mark.parametrize("q", [2, 3])
def test_battery_branch_only_trefoil(q):
    run_battery(trefoil_diagram(), q, random.Random(q))


def test_battery_meridian_of_wide_span():
    run_battery(wire_with_meridian(span=2, wires=2), 4, random.Random(7))


def test_battery_split_hopf_pair():
    run_battery(hopf_pair_beside_unknot(), 3, random.Random(8))


def test_battery_clasped_wire_where_lifts_fail_to_bound():
    run_battery(clasped_wire_diagram(), 6, random.Random(9))


@pytest.mark.parametrize(
    "name, q",
    [
        ("cable_n3_k0", 3),
        ("cable_n5_k2", 5),
        ("stevedore_w0", 2),
        ("stevedore_w2", 4),
        ("twobridge_m0", 2),
    ],
)
def test_battery_fixture_sample(name, q):
    rng = random.Random(zlib.crc32(name.encode()) % 1000 + q)
    run_battery(fixture(name).diagram, q, rng)


@pytest.mark.parametrize("seed", range(100, 110))
def test_battery_random_diagrams(seed):
    rng = random.Random(seed)
    diagram = random_diagram(rng)
    q = rng.randint(1, 5)
    run_battery(diagram, q, rng)
