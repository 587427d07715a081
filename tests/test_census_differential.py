"""Differential tests of `codes._ball_census`, the census behind every
perfectness check, against a tuple-per-membership loop.

The ball is given as boxes, each n per-coordinate residue lists whose
product it holds; boxes may repeat and overlap, and the ball is their
union.  The centers are a code's codewords, so they come sorted and
distinct.  A linear code is decided by the coset pass, `_coset_census`,
unless a coset is hit twice or its syndromes do not fit a 64-bit word
(m > 128 or more than 8 nonzero dual rows); the span-code tests below
watch that pass and check that it answers whenever the translates are
disjoint and the syndromes fit, on the boxes the perfectness checks really
build, I-balls and radius balls, and at the edges of its byte keys.  The
tiling and random-box cases above them reach the translate census:
non-linear centers, repeated boxes and overlaps.
Hypothesis runs derandomized, without an example database and with a
bounded number of examples, so the suite stays deterministic and quick.
"""

import itertools
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from conftest import random_pomset
from pomsetblock import codes
from pomsetblock.balls import BudgetExceededError, _ball_box
from pomsetblock.codes import (
    Code,
    _ball_census,
    _r_ball_coords,
    check_I_perfect,
    check_r_error_correcting,
    check_r_perfect,
    span_generator,
)
from pomsetblock.pomset import Ideal, Pomset, all_ideals
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


SEEDS = st.integers(0, 2 ** 32 - 1)


@st.composite
def span_codes(draw, max_vectors=1500):
    """A span code on a chain, an antichain or a random order over Z_m.

    Up to three generator rows, each a random row times a random divisor of
    m, so composite moduli give non-free codes too.
    """
    m = draw(st.integers(2, 9))
    room = max(1, int(math.log(max_vectors, m)))  # longest n with m^n <= max_vectors
    s = draw(st.integers(1, min(4, room)))
    labeling = []
    for t in range(s):
        labeling.append(draw(st.integers(1, room - sum(labeling) - (s - 1 - t))))
    rng = random.Random(draw(SEEDS))
    kind = draw(st.sampled_from(("chain", "antichain", "random")))
    if kind == "chain":
        pomset = Pomset.chain(s, m // 2)
    elif kind == "antichain":
        pomset = Pomset.antichain(s, m // 2)
    else:
        pomset = random_pomset(rng, s, m // 2, rng.choice((0.25, 0.5, 0.75)))
    space = Space(m, pomset, tuple(labeling))
    rows = []
    for _ in range(draw(st.integers(0, 3))):
        unit = rng.choice([g for g in range(1, m + 1) if m % g == 0])
        rows.append([unit * rng.randrange(m) % m for _ in range(space.n)])
    return span_generator(space, rows), rng


def watched_census(code, boxes, cover):
    """`_ball_census` of the boxes, and what the coset pass returned inside it.

    The pass runs once, unless |C| x |B| > m^n: then two members of B share
    one of the m^n / |C| cosets, the pass could only decline, and it is
    skipped, read here as None.
    """
    passes, coset_census = [], codes._coset_census

    def watch(*args):
        passes.append(coset_census(*args))
        return passes[-1]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(codes, "_coset_census", watch)
        size = sum(math.prod(map(len, box)) for box in boxes)
        result = _ball_census(code, boxes, code.size * size, cover)
    assert len(passes) == (code.size * size <= code.space.size)
    return result, passes[0] if passes else None


def keyed_by_cosets(code):
    """True iff a syndrome fits the coset pass's word: m <= 128, <= 8 dual rows."""
    rows = [h for h in codes._dual_generators(code) if any(h)]
    return code.space.m <= 128 and len(rows) <= 8


def assert_census_matches(code, boxes, cover):
    """The census and its coset pass against the tuple loop, on disjoint boxes."""
    space = code.space
    result, coset = watched_census(code, boxes, cover)
    expected = tuple_loop(space.m, space.n, code.codewords, boxes, cover)
    assert result.ok == (expected is None)
    if expected is not None:
        assert (result.witness, result.reason) == expected
    # The boxes list every member once, so only an overlap, or a syndrome
    # too wide for a word, reaches the translate census; otherwise the coset
    # pass gives the answer itself.
    if not keyed_by_cosets(code) or (expected is not None and expected[1] == OVERLAP):
        assert coset is None
    else:
        assert coset == result
    return result


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(span_codes(), st.booleans())
def test_coset_pass_on_an_I_ball_matches_the_tuple_loop(case, cover):
    code, rng = case
    ideal = rng.choice(all_ideals(code.space.pomset))
    assert_census_matches(code, [_ball_box(code.space, ideal, code.space.size)], cover)


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(span_codes(), st.booleans())
def test_coset_pass_on_a_radius_ball_matches_the_tuple_loop(case, cover):
    code, rng = case
    r = rng.randint(0, code.space.max_weight)
    boxes = _r_ball_coords(code, r, code.size * code.space.size)
    assert_census_matches(code, boxes, cover)


def unit_space(m, kind):
    """Three unit blocks over Z_m on a chain or an antichain."""
    order = Pomset.chain if kind == "chain" else Pomset.antichain
    return Space(m, order(3, m // 2), (1, 1, 1))


# (m, order, rows, ball, expected witness); the ball is an ideal's counts or
# a radius.  The overlaps are first met at the code's 19th codeword, well
# past its first nonzero one; the gaps lie past the zero vector.
LATE_OVERLAPS = [
    (6, "chain", [[1, 0, 1], [4, 4, 3]], (2, 0, 0), (4, 0, 0)),
    (6, "chain", [[1, 0, 1], [4, 4, 3]], 3, (3, 0, 0)),
]
GAPS = [
    (5, "chain", [[1, 1, 3]], (2, 0, 0), (0, 0, 1)),
    (7, "antichain", [[6, 3, 6]], 1, (0, 0, 2)),
]


def ball_boxes(code, ball):
    """The boxes of an I-ball (ball given as counts) or a radius ball."""
    if isinstance(ball, tuple):
        return [_ball_box(code.space, Ideal(code.space.pomset, ball), code.space.size)]
    return _r_ball_coords(code, ball, code.size * code.space.size)


@pytest.mark.parametrize("m, kind, rows, ball, witness", LATE_OVERLAPS)
def test_overlap_past_the_first_nonzero_codeword(m, kind, rows, ball, witness):
    code = span_generator(unit_space(m, kind), rows)
    boxes = ball_boxes(code, ball)
    offsets = union(boxes)
    # Codeword j meets an earlier translate iff j - j' = o - o' for members o, o'.
    differences = {tuple((a - b) % m for a, b in zip(o, q)) for o in offsets for q in offsets}
    first = next(
        j for j, w in enumerate(code.codewords)
        if any(u < w and tuple((a - b) % m for a, b in zip(w, u)) in differences
               for u in code.codewords)
    )
    assert first >= 2
    for cover in (False, True):
        result = assert_census_matches(code, boxes, cover)
        assert (result.witness, result.reason) == (witness, OVERLAP)


@pytest.mark.parametrize("m, kind, rows, ball, witness", GAPS)
def test_gap_witness_of_disjoint_translates(m, kind, rows, ball, witness):
    code = span_generator(unit_space(m, kind), rows)
    boxes = ball_boxes(code, ball)
    if isinstance(ball, tuple):
        result = check_I_perfect(code, Ideal(code.space.pomset, ball))
    else:
        result = check_r_perfect(code, ball)
    assert (result.witness, result.reason) == (witness, UNCOVERED)
    assert assert_census_matches(code, boxes, True) == result
    assert assert_census_matches(code, boxes, False).ok


def test_forty_dual_rows_go_to_the_translate_census():
    # 40 unit blocks over Z_9 with a one-row span: the dual has 39 nonzero
    # rows, too many bytes for a word, so the coset pass declines and the
    # translate census answers.  The first ball's 14 members lie in
    # distinct cosets; the second adds one of them shifted by 4 times the
    # all-ones codeword, which must be found as an overlap.
    m, n = 9, 40
    space = Space(m, Pomset.antichain(n, m // 2), (1,) * n)
    code = span_generator(space, [[1] * n])
    assert not keyed_by_cosets(code)
    rng = random.Random(9)
    words = [[rng.randrange(1, m) for _ in range(n)] for _ in range(7)]
    boxes = [[[x] for x in w] for w in words[:6]]
    boxes.append([[x, (x + 3) % m] if t < 3 else [x] for t, x in enumerate(words[6])])
    for cover in (False, True):
        assert assert_census_matches(code, boxes, cover).ok != cover
    shifted = [[(x + 4) % m] for x in words[5]]
    for cover in (False, True):
        result = assert_census_matches(code, boxes + [shifted], cover)
        assert result.reason == OVERLAP


@pytest.mark.parametrize("m", [200, 257])
def test_moduli_past_128_go_to_the_translate_census(m):
    # From m = 129 on, a reduced byte plus one more addition can overflow,
    # and Z_257 leaves no room for a residue in a byte, so the coset pass
    # declines and the translate census answers.
    space = Space(m, Pomset.chain(2, m // 2), (1, 1))
    code = span_generator(space, [[1, 3]])
    assert not keyed_by_cosets(code)
    full = Ideal(space.pomset, (m // 2, 0))
    assert check_I_perfect(code, full).ok
    for counts in ((m // 2, 0), (3, 0), (m // 2, 2)):
        boxes = [_ball_box(space, Ideal(space.pomset, counts), space.size)]
        for cover in (False, True):
            assert_census_matches(code, boxes, cover)
    for r in (0, 1, 2, 130):
        boxes = _r_ball_coords(code, r, code.size * space.size)
        for cover in (False, True):
            assert_census_matches(code, boxes, cover)


def test_byte_lane_that_overflows_without_reduction():
    # The code {x : x_1 + x_2 + x_3 = 0} over Z_100 has the all-ones dual
    # row, so one lane sums all three coordinates: 99 + 98 + 97 = 294 spills
    # out of its byte unless reduced part-way, and must key like 94.
    m = 100
    space = Space(m, Pomset.antichain(3, m // 2), (1, 1, 1))
    code = span_generator(space, [[1, m - 1, 0], [0, 1, m - 1]])
    assert code.size == m * m and keyed_by_cosets(code)
    boxes = [[[99], [98], [97]], [[94], [0], [0]]]
    for cover in (False, True):
        result = assert_census_matches(code, boxes, cover)
        assert result.reason == OVERLAP
    boxes = [[[99], [98], [97]], [[95], [0], [0]]]
    assert assert_census_matches(code, boxes, False).ok
    assert assert_census_matches(code, [[list(range(m)), [0], [0]]], True).ok


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(st.integers(2, 128), st.lists(st.lists(st.integers(0, 255), min_size=1, max_size=8),
                                     min_size=1, max_size=20))
def test_reduced_key_is_the_key_of_the_reduced_lanes(m, lanes):
    # A key packs lane 0 into its highest byte; reducing it must reduce each
    # lane in place, so keys read back in another byte order fail.
    table = bytes(x % m for x in range(256))
    keys = [int.from_bytes(bytes(word), "big") for word in lanes]
    expected = [int.from_bytes(bytes(x % m for x in word), "big") for word in lanes]
    assert codes._reduce_lanes(keys, table) == expected
