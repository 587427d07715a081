import itertools
import random

import pytest

from conftest import all_coords
from pomsetblock.mset import Mset, ShapeError
from pomsetblock.pomset import Pomset
from pomsetblock.space import (
    Space,
    Vector,
    block_weight,
    distance,
    lee_weight,
    pomset_weight,
    support,
)


def make_space(m, relations, labeling, s=None):
    s = s if s is not None else len(labeling)
    return Space(m, Pomset.from_relations(s, m // 2, relations), tuple(labeling))


def test_lee_weight():
    assert lee_weight(5, 6) == 1
    assert lee_weight(3, 6) == 3
    assert lee_weight(0, 7) == 0
    with pytest.raises(ValueError):
        lee_weight(6, 6)
    with pytest.raises(ValueError):
        lee_weight(-1, 6)


def test_block_weight():
    assert block_weight((1, 5), 6) == 1
    assert block_weight((4, 2), 6) == 2
    assert block_weight((0, 0, 0), 9) == 0
    with pytest.raises(ShapeError):
        block_weight((), 6)


def test_support():
    sp = make_space(6, [(1, 2)], (1, 1))
    assert support(sp.zero()) == Mset.empty(2, 3)
    assert support(sp.vector((1, 3))) == Mset(2, 3, (1, 3))
    sp2 = make_space(5, [(2, 1)], (2, 1))
    assert support(sp2.vector((0, 1, 3))) == Mset(2, 2, (1, 2))


def test_pomset_weight_examples():
    chain6 = make_space(6, [(1, 2)], (1, 1))
    assert pomset_weight(chain6.vector((1, 3))) == 6
    rev5 = make_space(5, [(2, 1)], (2, 1))
    assert pomset_weight(rev5.vector((0, 1, 3))) == 3
    anti6 = make_space(6, [], (1, 2))
    assert pomset_weight(anti6.vector((0, 3, 0))) == 3


def test_distance():
    chain5 = make_space(5, [(1, 2)], (1, 1))
    u, v = chain5.vector((0, 0)), chain5.vector((0, 1))
    assert distance(u, u) == 0
    assert distance(u, v) == 3
    rng = random.Random(2)
    for _ in range(30):
        a = chain5.vector(tuple(rng.randrange(5) for _ in range(2)))
        b = chain5.vector(tuple(rng.randrange(5) for _ in range(2)))
        assert distance(a, b) == distance(b, a)


def test_metric_axioms_small_exhaustive():
    for sp in (
        make_space(4, [(1, 2)], (1, 1)),
        make_space(5, [], (2,)),
        make_space(3, [(1, 2)], (1, 2)),
    ):
        vecs = [sp.vector(c) for c in all_coords(sp)]
        for u in vecs:
            for v in vecs:
                d = distance(u, v)
                assert d >= 0
                assert (d == 0) == (u == v)
                assert d == distance(v, u)
        for u, v, w in itertools.product(vecs, repeat=3):
            assert distance(u, v) <= distance(u, w) + distance(w, v)


def test_translation_invariance():
    sp = make_space(6, [(1, 2)], (2, 1))
    rng = random.Random(9)
    for _ in range(100):
        u = sp.vector(tuple(rng.randrange(6) for _ in range(3)))
        v = sp.vector(tuple(rng.randrange(6) for _ in range(3)))
        w = sp.vector(tuple(rng.randrange(6) for _ in range(3)))
        assert distance(u, v) == distance(u + w, v + w)


def test_block_subadditivity_exhaustive():
    for m in range(2, 10):
        for dim in (1, 2):
            blocks = list(itertools.product(range(m), repeat=dim))
            for x in blocks:
                wx = block_weight(x, m)
                for y in blocks:
                    xy = tuple((a + b) % m for a, b in zip(x, y))
                    assert block_weight(xy, m) <= wx + block_weight(y, m)


def test_weight_bounds():
    sp = make_space(7, [(1, 2), (1, 3)], (1, 2, 1))
    for coords in all_coords(sp):
        assert 0 <= sp.coords_weight(coords) <= sp.max_weight


def test_vector_normalization_and_blocks():
    sp = make_space(6, [], (2, 1))
    v = sp.vector((-1, 7, 6))
    assert v.coords == (5, 1, 0)
    assert v.block(1) == (5, 1)
    assert v.block(2) == (0,)
    assert (sp.zero() - v).coords == (1, 5, 0)


def test_space_validation():
    with pytest.raises(ShapeError):
        Space(6, Pomset.antichain(2, 2), (1, 1))  # height must be 3
    with pytest.raises(ShapeError):
        Space(6, Pomset.antichain(2, 3), (1, 1, 1))
    with pytest.raises(ValueError):
        Space(1, Pomset.antichain(1, 1), (1,))
    with pytest.raises(ValueError):
        Space(6, Pomset.antichain(2, 3), (1, 0))


def test_low_modulus_degenerates_to_unit_height():
    sp = make_space(3, [(1, 2)], (1, 1))
    assert sp.height == 1
    assert pomset_weight(sp.vector((0, 1))) == 2
    assert pomset_weight(sp.vector((2, 0))) == 1


def test_cross_space_operations_rejected():
    a = make_space(5, [], (1, 1))
    b = make_space(5, [(1, 2)], (1, 1))
    with pytest.raises(ShapeError):
        distance(a.zero(), b.zero())
    with pytest.raises(ShapeError):
        _ = a.zero() + b.zero()
    with pytest.raises(ValueError):
        Vector(a, (5, 0))
    with pytest.raises(ShapeError):
        Vector(a, (0, 0, 0))


def test_the_column_kernel_builds_one_lee_table_per_space():
    sp = make_space(7, [(1, 2)], (2, 1))
    words = [(0, 6, 3), (1, 2, 0)]
    first = sp.words_weight_counts(words)
    table = sp.__dict__["_lee"]
    # The table holds the Lee weight of each residue read, and no other.
    assert table == {x: min(x, 7 - x) for x in (0, 1, 2, 3, 6)}
    assert sp.words_weight_counts(words) == first
    assert sp._lee is table
    assert sp.block_weights((4, 4, 5)) == (3, 2)
    assert table == {x: min(x, 7 - x) for x in range(7)}
    # The cache stays out of equality, hashing and repr.
    fresh = make_space(7, [(1, 2)], (2, 1))
    assert sp == fresh and hash(sp) == hash(fresh) and repr(sp) == repr(fresh)
