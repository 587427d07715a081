"""Differential tests of the oracle's tabled metric kernel against the
vector distance of `space`, on random orders and block dimensions.

Hypothesis runs derandomized, without an example database and with a
bounded number of examples, so the suite stays deterministic and quick.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from conftest import random_pomset
from pomsetblock import oracle
from pomsetblock.oracle import _metric_kernel, verify_metric
from pomsetblock.pomset import Pomset
from pomsetblock.space import Space, distance


def bounded(max_examples):
    return settings(derandomize=True, database=None, deadline=None,
                    max_examples=max_examples)


SEEDS = st.integers(0, 2 ** 32 - 1)


@st.composite
def spaces(draw):
    """Z_m^n with m in 2..12, at most 5 blocks of 1..3 coordinates each."""
    m = draw(st.integers(2, 12))
    s = draw(st.integers(1, 5))
    labeling = tuple(draw(st.lists(st.integers(1, 3), min_size=s, max_size=s)))
    density = draw(st.sampled_from((0.0, 0.25, 0.5, 0.75, 1.0)))
    return Space(m, random_pomset(random.Random(draw(SEEDS)), s, m // 2, density), labeling)


def random_pairs(space, seed, count):
    rng = random.Random(seed)

    def draw():
        return tuple(rng.randrange(space.m) for _ in range(space.n))

    return [(draw(), draw()) for _ in range(count)]


@bounded(80)
@given(spaces(), SEEDS)
def test_kernel_matches_the_vector_distance(space, seed):
    kernel = _metric_kernel(space)
    for a, b in random_pairs(space, seed, 40):
        expected = distance(space.vector(a), space.vector(b))
        assert kernel(a, b) == expected
        # Asked again, the answer comes from the memo.
        assert kernel(a, b) == expected


def test_kernel_past_its_memo_limit_still_weighs(monkeypatch):
    # 24 unit blocks over Z_5 have 3^24 block-weight tuples; with room for
    # two, nearly every pair is weighed afresh.
    monkeypatch.setattr(oracle, "METRIC_MEMO_LIMIT", 2)
    space = Space(5, random_pomset(random.Random(7), 24, 2, 0.1), (1,) * 24)
    kernel = _metric_kernel(space)
    for a, b in random_pairs(space, 11, 300) * 2:
        assert kernel(a, b) == distance(space.vector(a), space.vector(b))


@pytest.mark.parametrize("limit, labeling", [
    pytest.param(2, (3, 2, 3, 1), id="2"),
    pytest.param(oracle.METRIC_MEMO_LIMIT, (3, 2, 3, 1), id=str(oracle.METRIC_MEMO_LIMIT)),
    pytest.param(2, (3, 3, 3, 3), id="2-four-blocks-of-3"),
])
def test_kernel_weighs_lee_tuples_by_their_block_maxima(monkeypatch, limit, labeling):
    # Blocks of up to 3 coordinates over Z_7: the memo is keyed on the
    # Lee-weight tuple, and many of those share their block maxima.  Each
    # must weigh as its maxima do, with room for two tuples or the default.
    # The ideal is generated once per block-maxima tuple the memo keeps.
    monkeypatch.setattr(oracle, "METRIC_MEMO_LIMIT", limit)
    space = Space(7, random_pomset(random.Random(5), 4, 3, 0.5), labeling)
    pairs = random_pairs(space, 13, 400) * 2
    expected = [distance(space.vector(a), space.vector(b)) for a, b in pairs]
    generated = []
    closure = Pomset.closure_counts

    def counted(pomset, bw):
        generated.append(bw)
        return closure(pomset, bw)

    monkeypatch.setattr(Pomset, "closure_counts", counted)
    kernel = _metric_kernel(space)
    weights, lee_tuples = {}, {}
    for (a, b), d in zip(pairs, expected):
        w = kernel(a, b)
        assert w == d
        lee = tuple(min((x - y) % 7, (y - x) % 7) for x, y in zip(a, b))
        maxima = tuple(max(lee[lo:hi]) for lo, hi in space.block_bounds)
        weights.setdefault(maxima, set()).add(w)
        lee_tuples.setdefault(maxima, set()).add(lee)
    assert all(len(ws) == 1 for ws in weights.values())
    assert max(map(len, lee_tuples.values())) > 1
    if limit >= len(weights):
        assert sorted(generated) == sorted(weights)


@bounded(40)
@given(spaces(), SEEDS, st.sampled_from((0, 10 ** 4)))
def test_metric_report_is_that_of_the_coordinate_weight(space, seed, triple_budget):
    m = space.m

    def coords_distance(a, b):
        return space.coords_weight(tuple((x - y) % m for x, y in zip(a, b)))

    default = verify_metric(space, triple_budget, seed=seed, samples=200)
    injected = verify_metric(space, triple_budget, seed=seed, samples=200,
                             distance_fn=coords_distance)
    assert default == injected
    assert default.passed
