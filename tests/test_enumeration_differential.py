"""Differential tests of the downset and ideal enumerators and the I-ball,
sphere and radius-ball closed forms, each against a brute-force reference
on random small orders and spaces.

Hypothesis runs derandomized, without an example database and with a
bounded number of examples, so the suite stays deterministic and quick.
"""

import itertools
import math
import random
from functools import partial
from unittest import mock

from hypothesis import given, settings, strategies as st

from conftest import orders, random_pomset
from pomsetblock import pomset
from pomsetblock.balls import I_ball_cardinality, I_sphere_cardinality, r_ball_cardinality
from pomsetblock.oracle import weight_census
from pomsetblock.pomset import Ideal, Pomset, all_ideals, enumerate_ideals
from pomsetblock.space import Space


def bounded(max_examples):
    return settings(derandomize=True, database=None, deadline=None,
                    max_examples=max_examples)


DENSITIES = st.sampled_from((0.0, 0.25, 0.5, 0.75, 1.0))
SEEDS = st.integers(0, 2 ** 32 - 1)


@st.composite
def spaces(draw, max_vectors=2500):
    m = draw(st.integers(2, 7))
    room = int(math.log(max_vectors, m))  # longest n with m^n <= max_vectors
    s = draw(st.integers(1, min(3, room)))
    labeling = []
    for t in range(s):
        labeling.append(draw(st.integers(1, room - sum(labeling) - (s - 1 - t))))
    rng = random.Random(draw(SEEDS))
    return Space(m, random_pomset(rng, s, m // 2, draw(DENSITIES)), tuple(labeling))


def subset_filter_downsets(p):
    """Reference: every subset of the ground set, kept when downward closed."""
    below = p.strictly_below
    found = [
        sub
        for k in range(p.ground_size + 1)
        for sub in itertools.combinations(range(1, p.ground_size + 1), k)
        if all(below[i] <= set(sub) for i in sub)
    ]
    found.sort(key=lambda t: (len(t), t))
    return tuple(frozenset(t) for t in found)


def closure_of(p, counts):
    """Raise every element strictly below a present one to full height."""
    out = list(counts)
    for a, b in p.order:
        if counts[b - 1]:
            out[a - 1] = p.height
    return tuple(out)


@bounded(60)
@given(orders(), SEEDS)
def test_downsets_match_subset_filter(p, seed):
    expected = subset_filter_downsets(p)
    # Shuffled sizes make the level cache grow out of order.
    sizes = list(range(p.ground_size + 1))
    random.Random(seed).shuffle(sizes)
    for j in sizes:
        assert p.downsets_of_size(j) == tuple(d for d in expected if len(d) == j)
    every = map(p.downsets_of_size, range(p.ground_size + 1))
    assert tuple(itertools.chain.from_iterable(every)) == expected


@bounded(60)
@given(orders())
def test_all_ideals_are_the_closures_of_all_count_vectors(p):
    vectors = itertools.product(range(p.height + 1), repeat=p.ground_size)
    closures = sorted({closure_of(p, v) for v in vectors})
    assert [i.counts for i in all_ideals(p)] == closures
    # The enumerators wrap their ideals unchecked; each must be
    # indistinguishable from the ideal validated from the same counts.
    layers = (enumerate_ideals(p, r) for r in range(p.ground_size * p.height + 1))
    for i in itertools.chain(all_ideals(p), *layers):
        checked = Ideal(p, i.counts)
        assert i == checked and checked == i
        assert hash(i) == hash(checked)
        assert repr(i) == repr(checked)
        assert vars(i) == vars(checked)


@bounded(60)
@given(orders(), SEEDS)
def test_enumerate_ideals_is_a_cardinality_layer_of_all_ideals(p, seed):
    # The repr taken before the table grows must survive its growth.
    shown = repr(p)
    # Shuffled cardinalities make the root and ideal tables grow out of order.
    cardinalities = list(range(p.ground_size * p.height + 1))
    random.Random(seed).shuffle(cardinalities)
    layers = {r: [i.counts for i in enumerate_ideals(p, r)] for r in cardinalities}
    # A fresh order's first call builds its ideals, so the layers are
    # compared with the builder rather than with the table they came from.
    fresh = Pomset(p.ground_size, p.height, p.order)
    everything = [i.counts for i in all_ideals(fresh)]
    for r, layer in layers.items():
        assert layer == [c for c in everything if sum(c) == r]
    assert [i.counts for i in all_ideals(p)] == everything
    # The tables are caches on the order, outside equality, hashing and repr.
    assert p == fresh and fresh == p
    assert hash(p) == hash(fresh)
    assert len({p, fresh}) == 1
    assert repr(p) == shown


@bounded(60)
@given(orders())
def test_ideal_enumerators_build_count_lists_only_for_groups_in_the_window(p):
    # A root-table group whose maximal counts cannot bring the cardinality
    # into the call's window is skipped before a count list is built for
    # it, and a call builds each (first, last, k) list once.  Each call runs
    # on a fresh order, whose ideal table holds nothing yet, so each builds.
    compositions = pomset._compositions
    built = []

    def recorded(lo, hi, parts, cap):
        out = compositions(lo, hi, parts, cap)
        assert out, f"empty count list built for sums {lo}..{hi} of {parts} counts"
        built.append((lo, hi, parts))
        return out

    def fresh():
        return Pomset(p.ground_size, p.height, p.order)

    calls = [partial(enumerate_ideals, fresh(), r) for r in range(p.ground_size * p.height + 1)]
    with mock.patch.object(pomset, "_compositions", recorded):
        for call in [*calls, partial(all_ideals, fresh())]:
            built.clear()
            call()
            assert built
            assert len(built) == len(set(built))


def same_ideals(got, want):
    """Equal lists of ideals, each indistinguishable from its counterpart."""
    assert [i.counts for i in got] == [i.counts for i in want]
    for a, b in zip(got, want):
        assert a == b and b == a
        assert hash(a) == hash(b)
        assert repr(a) == repr(b)
        assert vars(a) == vars(b)


@bounded(60)
@given(orders(), st.booleans(), st.sampled_from((0, 1, 7, pomset.IDEAL_TABLE_LIMIT)), SEEDS)
def test_any_interleaving_of_ideal_queries_answers_like_a_fresh_order(p, odd, limit, seed):
    # Every query is answered again on a fresh order, whose first call
    # builds; the order under test answers from whatever its ideal table
    # kept, under a limit that keeps nothing, one level, a few, or all.
    space = Space(2 * p.height + odd, p, (1,) * p.ground_size)

    def fresh():
        return Space(space.m, Pomset(p.ground_size, p.height, p.order), space.labeling)

    top = space.max_weight
    queries = [("ideals", r) for r in range(top + 1)] * 2
    queries += [("all", None)] * 2 + [("ball", r) for r in range(top + 1)]
    random.Random(seed).shuffle(queries)
    with mock.patch.object(pomset, "IDEAL_TABLE_LIMIT", limit):
        for kind, r in queries:
            if kind == "ball":
                assert r_ball_cardinality(space, r) == r_ball_cardinality(fresh(), r)
            elif kind == "all":
                same_ideals(all_ideals(p), all_ideals(fresh().pomset))
            else:
                same_ideals(enumerate_ideals(p, r), enumerate_ideals(fresh().pomset, r))
            table = vars(p).get("_ideal_levels", {})
            assert len({id(i) for level in table.values() for i in level}) <= limit


@bounded(30)
@given(spaces())
def test_sphere_and_radius_ball_sizes_match_census(space):
    census = weight_census(space)
    for i in all_ideals(space.pomset):
        assert I_sphere_cardinality(space, i) == census.ideal_sphere_counts.get(i.counts, 0)
    for r in range(space.max_weight + 1):
        assert r_ball_cardinality(space, r) == census.ball_size(r)


@bounded(30)
@given(spaces())
def test_ideal_ball_sizes_match_census(space):
    # A vector lies in the I-ball iff the ideal its support generates fits
    # inside I, so the ball holds the census spheres of every nested key.
    by_ideal = weight_census(space).ideal_sphere_counts
    for i in all_ideals(space.pomset):
        nested = sum(n for key, n in by_ideal.items()
                     if all(a <= b for a, b in zip(key, i.counts)))
        assert I_ball_cardinality(space, i) == nested


@bounded(30)
@given(spaces(), SEEDS)
def test_radius_ball_sizes_in_any_order_match_census_and_a_fresh_space(space, seed):
    census = weight_census(space)
    # Shuffled radii make the cached prefix sums grow out of order and then
    # answer from the cache.
    radii = list(range(space.max_weight + 1))
    random.Random(seed).shuffle(radii)
    for r in radii:
        p = space.pomset
        fresh = Space(space.m, Pomset(p.ground_size, p.height, p.order), space.labeling)
        assert fresh == space
        assert r_ball_cardinality(space, r) == census.ball_size(r)
        assert r_ball_cardinality(fresh, r) == r_ball_cardinality(space, r)
