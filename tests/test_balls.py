import itertools

import pytest

from conftest import all_coords
from pomsetblock.balls import (
    BudgetExceededError,
    I_ball_cardinality,
    I_sphere_cardinality,
    PartitionImpossibleError,
    enumerate_I_ball,
    in_I_ball,
    iter_I_ball_coords,
    lee_ball_residues,
    partition_centers,
    r_ball_cardinality,
)
from pomsetblock.mset import Mset, ShapeError
from pomsetblock.pomset import (
    Ideal,
    Pomset,
    all_ideals,
    enumerate_ideals,
    enumerate_root_downsets,
)
from pomsetblock.space import Space


def make_space(m, relations, labeling):
    return Space(m, Pomset.from_relations(len(labeling), m // 2, relations), labeling)


Z6_21 = make_space(6, [], (2, 1))
Z6_12 = make_space(6, [], (1, 2))
Z5_11 = make_space(5, [], (1, 1))
Z5_CHAIN = make_space(5, [(1, 2)], (1, 1))
Z9_11 = make_space(9, [], (1, 1))


def test_in_I_ball_quoted_vectors():
    i = Mset(2, 3, (2, 2))
    v = Z6_21.vector((2, 1, 0))
    assert in_I_ball(v, Z6_21.vector((3, 0, 0)), i)
    assert in_I_ball(v, Z6_21.vector((0, 3, 0)), i)
    assert in_I_ball(v, v, Mset.empty(2, 3))
    assert not in_I_ball(Z6_21.vector((3, 0, 0)), Z6_21.zero(), Mset(2, 3, (1, 0)))


def test_in_I_ball_shape_checks():
    with pytest.raises(ShapeError):
        in_I_ball(Z6_21.zero(), Z6_21.zero(), Mset(3, 3, (0, 0, 0)))
    with pytest.raises(ShapeError):
        in_I_ball(Z6_21.zero(), Z6_12.zero(), Mset(2, 3, (0, 0)))


def test_I_ball_cardinality():
    assert I_ball_cardinality(Z6_12, Ideal(Z6_12.pomset, (3, 1))) == 54
    assert I_ball_cardinality(Z6_21, Ideal(Z6_21.pomset, (1, 3))) == 54
    assert I_ball_cardinality(Z6_21, Ideal(Z6_21.pomset, (0, 0))) == 1


def test_I_sphere_cardinality():
    assert I_sphere_cardinality(Z5_11, Ideal(Z5_11.pomset, (1, 0))) == 2
    single = make_space(6, [], (1,))
    assert I_sphere_cardinality(single, Ideal(single.pomset, (3,))) == 1
    assert I_sphere_cardinality(Z5_11, Ideal(Z5_11.pomset, (0, 0))) == 1


def test_I_sphere_even_m_full_count_block():
    # A full-count block of dimension 2 over an even modulus: the count of
    # blocks with maximum Lee weight exactly m/2 is m^2 - (m-1)^2.
    sp = make_space(6, [], (2,))
    i = Ideal(sp.pomset, (3,))
    brute = sum(
        1
        for coords in all_coords(sp)
        if sp.weight_counts(coords) == (3,)
    )
    assert brute == 36 - 25
    assert I_sphere_cardinality(sp, i) == brute


def test_I_sphere_oracle_confirms_chain_case():
    i = Ideal(Z5_CHAIN.pomset, (2, 1))
    brute = sum(
        1
        for coords in all_coords(Z5_CHAIN)
        if Z5_CHAIN.weight_counts(coords) == (2, 1)
    )
    assert brute == 10
    assert I_sphere_cardinality(Z5_CHAIN, i) == brute


def test_r_ball_cardinality():
    assert r_ball_cardinality(Z5_11, 1) == 5
    assert r_ball_cardinality(Z5_11, 0) == 1
    for sp in (Z5_11, Z6_12, Z5_CHAIN, Z9_11):
        assert r_ball_cardinality(sp, sp.max_weight) == sp.size
    with pytest.raises(ValueError):
        r_ball_cardinality(Z5_11, 5)


def test_small_layers_of_a_wide_order_build_only_small_downsets():
    # A 30-block antichain has 2^30 downsets; the layers asked for here
    # need only those with at most two elements.
    sp = make_space(5, [], (1,) * 30)
    p = sp.pomset
    assert len(enumerate_root_downsets(p, 2)) == 435
    assert len(enumerate_ideals(p, 2)) == 465  # 435 pairs at 1,1 and 30 at 2
    assert r_ball_cardinality(sp, 1) == 61


def test_radius_one_ball_of_a_wide_antichain_builds_only_small_downsets(monkeypatch):
    # 5^24 vectors; the radius-1 ball is the zero vector plus 24 spheres of
    # two vectors each, so only downset levels 0 and 1 are needed.
    space = make_space(5, [], (1,) * 24)
    levels = []
    level = Pomset._downset_level

    def guarded_level(self, size):
        assert size <= 1, f"downset level {size} built"
        levels.append(size)
        return level(self, size)

    monkeypatch.setattr(Pomset, "_downset_level", guarded_level)
    assert r_ball_cardinality(space, 1) == 49
    assert r_ball_cardinality(space, 0) == 1
    assert max(levels) == 1


def test_radius_ball_cache_is_per_space_and_leaves_equality_hash_and_repr_alone():
    p = Pomset.from_relations(3, 2, [(1, 2)])
    queried, fresh, wider = Space(5, p, (2, 1, 1)), Space(5, p, (2, 1, 1)), Space(5, p, (2, 2, 1))
    z4 = Space(4, p, (2, 1, 1))  # another modulus of the same height
    assert r_ball_cardinality(queried, queried.max_weight) == queried.size
    # Both lazy caches, the radius-ball levels and the I-ball table, are built.
    partial, top = Ideal(p, (2, 1, 1)), Ideal(p, (2, 2, 2))
    assert I_ball_cardinality(queried, partial) == 25 * 3 * 3
    assert queried == fresh and fresh == queried
    assert hash(queried) == hash(fresh)
    assert repr(queried) == repr(fresh)
    assert len({queried, fresh}) == 1
    # Same order, other labeling or modulus: its sizes are its own.  Block 1
    # lies below block 2, so it is free in both spheres; blocks 2 and 3 are
    # maximal and weigh exactly their counts.
    assert r_ball_cardinality(wider, wider.max_weight) == wider.size
    for sp, ball, sphere in (
        (queried, (25 * 3 * 3, 25 * 5 * 5), (25 * 2 * 2, 25 * 2 * 2)),
        (wider, (25 * 9 * 3, 25 * 25 * 5), (25 * 8 * 2, 25 * 16 * 2)),
        (z4, (16 * 3 * 3, 16 * 4 * 4), (16 * 2 * 2, 16 * 1 * 1)),
    ):
        assert (I_ball_cardinality(sp, partial), I_ball_cardinality(sp, top)) == ball
        assert (I_sphere_cardinality(sp, partial), I_sphere_cardinality(sp, top)) == sphere


def test_radius_sweep_of_a_ten_block_antichain_matches_the_generating_polynomial():
    # 5^10 vectors.  A unit block over Z_5 has 1, 2, 2 residues of Lee weight
    # 0, 1, 2, so the vectors of weight w number the x^w coefficient of
    # (1 + 2x + 2x^2)^10 and the radius-r ball holds their prefix sum.
    space = make_space(5, [], (1,) * 10)
    coefficients = [1]
    for _ in range(10):
        grown = [0] * (len(coefficients) + 2)
        for w, a in enumerate(coefficients):
            for d, b in enumerate((1, 2, 2)):
                grown[w + d] += a * b
        coefficients = grown
    prefix = list(itertools.accumulate(coefficients))
    assert prefix[-1] == 5 ** 10 and len(prefix) == space.max_weight + 1
    assert [r_ball_cardinality(space, r) for r in range(space.max_weight + 1)] == prefix


def test_enumerate_I_ball_matches_formula_and_membership():
    for sp in (Z5_11, Z5_CHAIN, Z6_12, Z6_21):
        zero = sp.zero()
        for i in all_ideals(sp.pomset):
            members = enumerate_I_ball(zero, i)
            assert len(members) == I_ball_cardinality(sp, i)
            assert members == sorted(members)
            member_set = set(members)
            for coords in all_coords(sp):
                v = sp.vector(coords)
                assert (coords in member_set) == in_I_ball(v, zero, i)


def test_enumerate_I_ball_translates():
    i = Ideal(Z5_CHAIN.pomset, (2, 1))
    u = Z5_CHAIN.vector((3, 2))
    shifted = set(enumerate_I_ball(u, i))
    base = set(enumerate_I_ball(Z5_CHAIN.zero(), i))
    assert shifted == {tuple((a + b) % 5 for a, b in zip(u.coords, c)) for c in base}
    trivial = enumerate_I_ball(u, Ideal(Z5_CHAIN.pomset, (0, 0)))
    assert trivial == [u.coords]


def test_enumerate_budget():
    big = make_space(5, [], (2, 2, 2))
    full = Ideal(big.pomset, (2, 2, 2))
    with pytest.raises(BudgetExceededError):
        enumerate_I_ball(big.zero(), full, budget=100)


def test_sphere_partition_of_space():
    for sp in (Z5_11, Z5_CHAIN, Z6_21, Z9_11):
        total = 1
        for i in all_ideals(sp.pomset):
            if i.cardinality:
                total += I_sphere_cardinality(sp, i)
        assert total == sp.size


def test_r_ball_is_union_of_ideal_balls():
    for sp in (Z5_CHAIN, Z6_21):
        for r in range(sp.max_weight + 1):
            union = set()
            for i in enumerate_ideals(sp.pomset, r):
                union.update(iter_I_ball_coords(sp, i))
            assert len(union) == r_ball_cardinality(sp, r)


def test_full_count_ball_is_submodule():
    sp = Z6_21
    i = Ideal(sp.pomset, (3, 0))
    members = list(iter_I_ball_coords(sp, i))
    assert len(members) == 6 ** 2
    member_set = set(members)
    for a in members:
        assert tuple((-x) % 6 for x in a) in member_set
        for b in members:
            assert tuple((x + y) % 6 for x, y in zip(a, b)) in member_set


def test_ball_duality_small_space():
    from pomsetblock.pomset import dual_pomset, ideal_complement

    sp = Z6_21
    dual_sp = Space(6, dual_pomset(sp.pomset), sp.labeling)
    for i in all_ideals(sp.pomset):
        if not i.is_full_count:
            continue
        members = list(iter_I_ball_coords(sp, i))
        annihilator = {
            coords
            for coords in all_coords(sp)
            if all(sum(x * y for x, y in zip(coords, b)) % 6 == 0 for b in members)
        }
        comp = ideal_complement(sp.pomset, i)
        assert annihilator == set(iter_I_ball_coords(dual_sp, comp))


def test_partition_centers_examples():
    centers = partition_centers(Z6_21, Ideal(Z6_21.pomset, (1, 3)))
    assert set(centers) == {
        (a, b, 0) for a in (0, 3) for b in (0, 3)
    }
    centers9 = partition_centers(Z9_11, Ideal(Z9_11.pomset, (4, 1)))
    assert centers9 == [(0, 0), (0, 3), (0, 6)]


def test_partition_divisibility_failure():
    with pytest.raises(PartitionImpossibleError) as err:
        partition_centers(Z6_21, Ideal(Z6_21.pomset, (2, 0)))
    assert err.value.element == 1


def test_partition_tiles_space():
    for sp, counts in (
        (Z6_21, (1, 3)),
        (Z9_11, (4, 1)),
        (Z9_11, (1, 1)),
    ):
        i = Ideal(sp.pomset, counts)
        centers = partition_centers(sp, i)
        ball = list(iter_I_ball_coords(sp, i))
        seen = set()
        for center in centers:
            for offset in ball:
                x = tuple((a + b) % sp.m for a, b in zip(center, offset))
                assert x not in seen
                seen.add(x)
        assert len(seen) == sp.size


def test_box_translates_overlap_but_never_tile():
    # The coordinate box of radius eps < floor(m/2) meets each of its own
    # translates by a nonzero box element without ever coinciding with one.
    for m in range(4, 10):
        for t in (1, 2):
            for eps in range(1, m // 2):
                residues = lee_ball_residues(m, eps)
                box = set(itertools.product(residues, repeat=t))
                for u in box:
                    if not any(u):
                        continue
                    shifted = {
                        tuple((a + b) % m for a, b in zip(u, v)) for v in box
                    }
                    assert shifted & box
                    assert shifted != box


def test_lee_ball_residues_match_the_definition():
    for m in range(2, 14):
        for a in range(m + 1):
            assert lee_ball_residues(m, a) == tuple(
                x for x in range(m) if min(x, m - x) <= a
            )
