"""Differential tests of `space.translate_census`, the integer-keyed census
behind every perfectness check and the oracle's tiling check, against a
reference copy of the tuple-per-membership loop it replaced.

Hypothesis runs derandomized, without an example database and with a
bounded number of examples, so the suite stays deterministic and quick.
"""

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from pomsetblock.codes import Code, _ball_census
from pomsetblock.pomset import Pomset
from pomsetblock.space import Space, translate_census

OVERLAP = "vector covered by two balls"
UNCOVERED = "vector covered by no ball"


def tuple_loop(m, n, centers, offsets, cover):
    """Reference: one fresh tuple per (center, offset) pair, then a scan of
    the space in lexicographic order for the first vector never reached."""
    seen = set()
    for c in centers:
        for o in offsets:
            x = tuple((a + b) % m for a, b in zip(c, o))
            if x in seen:
                return x, OVERLAP
            seen.add(x)
    if not cover:
        return None
    for x in itertools.product(range(m), repeat=n):
        if x not in seen:
            return x, UNCOVERED
    return None


@st.composite
def translates(draw):
    """A space Z_m^n (m in 2..9, n in 1..4) with centers and distinct offsets.

    Half the cases are a tiling (a product of per-coordinate subgroups
    translated by their cosets), possibly with centers dropped, one center
    moved or one center repeated; the rest are random vectors, which
    overlap more often than not.  Centers and offsets are shuffled.
    """
    m = draw(st.integers(2, 9))
    n = draw(st.integers(1, 4))
    cuts = sorted(draw(st.sets(st.integers(1, n - 1), max_size=n - 1))) if n > 1 else []
    labeling = tuple(b - a for a, b in zip([0, *cuts], [*cuts, n]))
    space = Space(m, Pomset.from_relations(len(labeling), m // 2, []), labeling)
    rng = random.Random(draw(st.integers(0, 2 ** 32 - 1)))
    everything = list(itertools.product(range(m), repeat=n))
    if draw(st.booleans()):
        steps = [rng.choice([d for d in range(1, m + 1) if m % d == 0]) for _ in range(n)]
        offsets = list(itertools.product(*(range(d) for d in steps)))
        centers = list(itertools.product(*(range(0, m, d) for d in steps)))
        tamper = draw(st.sampled_from(("none", "drop", "move", "repeat")))
        if tamper == "drop" and len(centers) > 1:
            del centers[rng.randrange(len(centers))]
        elif tamper == "move":
            centers[rng.randrange(len(centers))] = rng.choice(everything)
        elif tamper == "repeat" and len(centers) > 1:
            j, k = rng.sample(range(len(centers)), 2)
            centers[j] = centers[k]
    else:
        offsets = rng.sample(everything, rng.randint(1, min(len(everything), 40)))
        centers = rng.sample(everything, rng.randint(1, min(len(everything), 40)))
    rng.shuffle(offsets)
    rng.shuffle(centers)
    return space, centers, offsets


@settings(derandomize=True, database=None, deadline=None, max_examples=400)
@given(translates(), st.booleans())
def test_translate_census_matches_the_tuple_loop(case, cover):
    space, centers, offsets = case
    m, n = space.m, space.n
    hit = translate_census(space, centers, offsets, cover)
    got = None if hit is None else (hit[0], OVERLAP if hit[1] else UNCOVERED)
    assert got == tuple_loop(m, n, centers, offsets, cover)
    # Through the perfectness census, whose codewords are sorted and distinct.
    code = Code.from_codewords(space, centers)
    result = _ball_census(code, offsets, space.size * len(offsets), cover)
    expected = tuple_loop(m, n, code.codewords, offsets, cover)
    assert result.ok == (expected is None)
    if expected is not None:
        assert (result.witness, result.reason) == expected


def test_translate_census_requires_distinct_offsets():
    # A repeated offset would hide an overlap inside one center's translates.
    space = Space(5, Pomset.from_relations(2, 2, []), (1, 1))
    with pytest.raises(ValueError, match="distinct"):
        translate_census(space, [(0, 0)], [(0, 1), (0, 1)], False)
