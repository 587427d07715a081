"""Differential tests of `codes._ball_census`, the integer-keyed census
behind every perfectness check, against a tuple-per-membership loop.

The ball is given as boxes, each n per-coordinate residue lists whose
product it holds; boxes may repeat and overlap, and the ball is their
union.  The centers are a code's codewords, so they come sorted and
distinct.  Hypothesis runs derandomized, without an example database and
with a bounded number of examples, so the suite stays deterministic and
quick.
"""

import itertools
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from pomsetblock.balls import BudgetExceededError
from pomsetblock.codes import Code, _ball_census
from pomsetblock.pomset import Pomset
from pomsetblock.space import Space

OVERLAP = "vector covered by two balls"
UNCOVERED = "vector covered by no ball"


def union(boxes):
    """The members of the boxes' union, in lexicographic order."""
    return sorted({o for box in boxes for o in itertools.product(*box)})


def tuple_loop(m, n, centers, boxes, cover):
    """Reference: one fresh tuple per (center, offset) pair, each center's
    offsets walked in lexicographic order, then a scan of the space in
    lexicographic order for the first vector never reached."""
    offsets = union(boxes)
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


def sub_box(rng, box):
    """A box inside the given one: a nonempty sample of each residue list."""
    return [rng.sample(rs, rng.randint(1, len(rs))) for rs in box]


@st.composite
def translates(draw):
    """A space Z_m^n (m in 2..9, n in 1..4) with a code and a ball of boxes.

    Half the cases are a tiling (a product of per-coordinate subgroups
    translated by their cosets), possibly with one center dropped or moved;
    the tiling box comes with a repeat of itself or a box inside it, which
    leaves the union alone.  The rest are one to three random boxes, which
    overlap more often than not.  Residue lists are shuffled.
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
        box = [list(range(d)) for d in steps]
        boxes = [box, draw(st.sampled_from((box, sub_box(rng, box))))]
        centers = list(itertools.product(*(range(0, m, d) for d in steps)))
        tamper = draw(st.sampled_from(("none", "drop", "move")))
        if tamper == "drop" and len(centers) > 1:
            del centers[rng.randrange(len(centers))]
        elif tamper == "move":
            centers[rng.randrange(len(centers))] = rng.choice(everything)
    else:
        boxes = [
            [rng.sample(range(m), rng.randint(1, m)) for _ in range(n)]
            for _ in range(rng.randint(1, 3))
        ]
        centers = rng.sample(everything, rng.randint(1, min(len(everything), 40)))
    boxes = [[rng.sample(rs, len(rs)) for rs in box] for box in boxes]
    return space, Code.from_codewords(space, centers), boxes


@settings(derandomize=True, database=None, deadline=None, max_examples=400)
@given(translates(), st.booleans())
def test_ball_census_matches_the_tuple_loop(case, cover):
    space, code, boxes = case
    # The budget counts the members the boxes list, overlaps included.
    size = sum(math.prod(map(len, box)) for box in boxes)
    result = _ball_census(code, boxes, code.size * size, cover)
    expected = tuple_loop(space.m, space.n, code.codewords, boxes, cover)
    assert result.ok == (expected is None)
    if expected is not None:
        assert (result.witness, result.reason) == expected
    with pytest.raises(BudgetExceededError, match=f"x {size} memberships"):
        _ball_census(code, boxes, code.size * size - 1, False)
