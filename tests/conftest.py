import functools
import random

import pytest
from hypothesis import strategies as st

from pomsetblock.cli import Problem, load_problem
from pomsetblock.fixtures import NAMES, fixture_path
from pomsetblock.pomset import Pomset


def load_fixture(name: str) -> Problem:
    return load_problem(fixture_path(name))


@pytest.fixture(scope="session")
def problems() -> dict[str, Problem]:
    return {name: load_fixture(name) for name in NAMES}


def random_pomset(rng: random.Random, s: int, height: int, density: float = 0.4) -> Pomset:
    """Random strict order: orient pairs along a random permutation, so acyclic."""
    perm = rng.sample(range(1, s + 1), s)
    pairs = [
        (perm[i], perm[j])
        for i in range(s)
        for j in range(i + 1, s)
        if rng.random() < density
    ]
    return Pomset.from_relations(s, height, pairs)


@st.composite
def orders(draw, max_size=6, max_height=3):
    """A `random_pomset` of 1..max_size elements and height 1..max_height."""
    s = draw(st.integers(1, max_size))
    height = draw(st.integers(1, max_height))
    rng = random.Random(draw(st.integers(0, 2 ** 32 - 1)))
    return random_pomset(rng, s, height, draw(st.sampled_from((0.0, 0.25, 0.5, 0.75, 1.0))))


def to_bits(space, members) -> int:
    """A listing as an I-ball bitset, the form `balls.I_ball_bits` returns.

    A vector of the space sets the bit of its big-endian base-m value.  A
    tuple with a coordinate equal to m, outside the space, sets bit
    m^n + its base-(m + 1) value, so each distinct one has its own bit at or
    above m^n.  A repeated member sets its bit once.
    """
    m, bits = space.m, 0
    for v in members:
        assert len(v) == space.n and all(0 <= x <= m for x in v), v
        base, offset = (m, 0) if m not in v else (m + 1, space.size)
        bits |= 1 << offset + functools.reduce(lambda a, x: a * base + x, v, 0)
    return bits


def from_bits(space, bits: int) -> list[tuple[int, ...]]:
    """The tuples whose bits `to_bits` sets, by increasing bit: the vectors
    of the space in lexicographic order, then those outside it."""
    m, n = space.m, space.n
    members = []
    for j, bit in enumerate(reversed(bin(bits)[2:])):
        if bit == "1":
            base, j = (m, j) if j < space.size else (m + 1, j - space.size)
            members.append(tuple(j // base ** (n - 1 - t) % base for t in range(n)))
    return members
