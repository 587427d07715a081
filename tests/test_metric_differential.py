"""Differential tests of the oracle's ideal-closing masks against the vector
distance of `space`, of the columnar sampled metric check against the
per-triple loop it replaced, and of the exhaustive check against the
pair-table loop it replaced, on random orders and block dimensions.

Hypothesis runs derandomized, without an example database and with a
bounded number of examples, so the suite stays deterministic and quick.
"""

import itertools
import random
from collections import Counter
from unittest import mock

import pytest
from hypothesis import assume, given, settings, strategies as st

from conftest import all_coords, random_pomset
from pomsetblock import oracle
from pomsetblock.oracle import MetricReport, verify_metric
from pomsetblock.pomset import Pomset
from pomsetblock.space import Space, distance


def bounded(max_examples):
    return settings(derandomize=True, database=None, deadline=None,
                    max_examples=max_examples)


SEEDS = st.integers(0, 2 ** 32 - 1)
CHUNK = oracle._METRIC_CHUNK


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


def lee_columns(space, pairs):
    """Per coordinate, the Lee weights of that coordinate of each a - b."""
    m = space.m
    return [
        [min((a[t] - b[t]) % m, (b[t] - a[t]) % m) for a, b in pairs]
        for t in range(space.n)
    ]


def vector_distances(space, pairs):
    return [distance(space.vector(a), space.vector(b)) for a, b in pairs]


def kernel(space):
    """The pomset block weight of differences given by Lee columns: each
    Lee weight w as its unary code 2^w - 1, folded per block by
    `_fold_blocks`, closed by the masks of `_close_ideals` and weighed by
    its bit count."""
    blocks = oracle._block_shifts(space)

    def weights(columns):
        unary = [[(1 << w) - 1 for w in column] for column in columns]
        return map(int.bit_count,
                   oracle._close_ideals(space, list(oracle._fold_blocks(blocks, unary))))

    return weights


@bounded(80)
@given(spaces(), SEEDS)
def test_kernel_matches_the_vector_distance(space, seed):
    weights = kernel(space)
    pairs = random_pairs(space, seed, 40)
    expected = vector_distances(space, pairs)
    assert list(weights(lee_columns(space, pairs))) == expected
    # Asked again, the answers are the same.
    assert list(weights(lee_columns(space, pairs))) == expected


def test_kernel_weighs_24_unit_blocks():
    # 24 unit blocks over Z_5 have 3^24 block-weight profiles, nearly every
    # pair its own.
    space = Space(5, random_pomset(random.Random(7), 24, 2, 0.1), (1,) * 24)
    pairs = random_pairs(space, 11, 300) * 2
    assert list(kernel(space)(lee_columns(space, pairs))) == vector_distances(space, pairs)


@pytest.mark.parametrize("labeling", [
    pytest.param((3, 2, 3, 1), id="3-2-3-1"),
    pytest.param((3, 3, 3, 3), id="3-3-3-3"),
])
def test_kernel_weighs_lee_tuples_by_their_block_maxima(labeling):
    # Blocks of up to 3 coordinates over Z_7: many Lee-weight tuples share
    # their block maxima, and each must weigh as its maxima do.
    space = Space(7, random_pomset(random.Random(5), 4, 3, 0.5), labeling)
    pairs = random_pairs(space, 13, 400) * 2
    expected = vector_distances(space, pairs)
    columns = lee_columns(space, pairs)
    found = list(kernel(space)(columns))
    assert found == expected
    weights, lee_tuples = {}, {}
    for lee, w in zip(zip(*columns), found):
        maxima = tuple(max(lee[lo:hi]) for lo, hi in space.block_bounds)
        weights.setdefault(maxima, set()).add(w)
        lee_tuples.setdefault(maxima, set()).add(lee)
    assert all(len(ws) == 1 for ws in weights.values())
    assert max(map(len, lee_tuples.values())) > 1


@bounded(40)
@given(spaces(), SEEDS, st.booleans())
def test_metric_report_is_that_of_the_coordinate_weight(space, seed, every_triple):
    # Every triple when there are at most 10^4 of them and the case asks
    # for it, else 200 sampled ones.
    m, cube = space.m, space.size ** 3
    assume(every_triple or cube > 200)
    samples = cube if every_triple and cube <= 10 ** 4 else 200

    def coords_distance(a, b):
        return space.coords_weight(tuple((x - y) % m for x, y in zip(a, b)))

    default = verify_metric(space, seed=seed, samples=samples)
    injected = verify_metric(space, seed=seed, samples=samples,
                             distance_fn=coords_distance)
    assert default == injected
    assert default.passed


def reference_sampled_metric(space, seed, samples, distance_fn):
    """The per-triple sampled check: one draw of n residue triples per
    triple, unzipped into u, v and w, and up to five distances, checked in
    order and reported at the first failure."""
    choices = random.Random(seed).choices
    residue_triples = list(itertools.product(range(space.m), repeat=3))
    n = space.n
    for i in range(samples):
        u, v, w = zip(*choices(residue_triples, k=n))
        duv = distance_fn(u, v)
        if (duv == 0) != (u == v) or distance_fn(u, u) != 0:
            return MetricReport(False, False, i + 1, ("identity", u, v, None))
        if duv != distance_fn(v, u):
            return MetricReport(False, False, i + 1, ("symmetry", u, v, None))
        if duv > distance_fn(u, w) + distance_fn(w, v):
            return MetricReport(False, False, i + 1, ("triangle", u, v, w))
    return MetricReport(True, False, samples)


def distances(space):
    """The pomset block distance and four broken ones, by name."""
    m = space.m

    def weight(a, b):
        return space.coords_weight(tuple((x - y) % m for x, y in zip(a, b)))

    def skewed(a, b):
        w = weight(a, b)
        return w + (w > 0 and a > b)

    def squared(a, b):
        return weight(a, b) ** 2

    def raw_residue(a, b):
        return sum((x - y) % m for x, y in zip(a, b))

    def rarely_zero(a, b):
        # Zero for a = b + e_1 as well, which a sample meets about once in
        # m^n triples, so failures land on both sides of a chunk's edge.
        if a[1:] == b[1:] and (a[0] - b[0]) % m == 1:
            return 0
        return weight(a, b)

    return {"weight": weight, "skewed": skewed, "squared": squared,
            "raw-residue": raw_residue, "rarely-zero": rarely_zero}


@pytest.mark.parametrize("name", ["default", "weight", "skewed", "squared",
                                  "raw-residue", "rarely-zero"])
@bounded(20)
@given(
    spaces(),
    SEEDS,
    st.sampled_from((CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 3)),
)
def test_columnar_sample_matches_the_per_triple_reference(name, space, seed, samples):
    # A space of at most `samples` triples would be checked in full.
    assume(space.size ** 3 > samples)
    table = distances(space)
    reference = reference_sampled_metric(space, seed, samples,
                                         table["weight" if name == "default" else name])
    report = verify_metric(space, seed=seed, samples=samples,
                           distance_fn=None if name == "default" else table[name])
    assert report == reference


@pytest.mark.parametrize("k", [1, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 1, 2 * CHUNK + 3])
def test_a_failure_is_reported_at_its_own_triple_across_chunks(k):
    # d(u, u) = 1 for the u of the k-th sampled triple only; among 7^6
    # words it is not drawn as u before, so the first failure is there.
    space = Space(7, random_pomset(random.Random(3), 3, 3, 0.5), (2, 3, 1))
    choices = random.Random(17).choices
    residue_triples = list(itertools.product(range(7), repeat=3))
    for _ in range(k):
        u, v, w = zip(*choices(residue_triples, k=space.n))
    weight = distances(space)["weight"]

    def broken(a, b):
        return weight(a, b) + (a == b == u)

    report = verify_metric(space, seed=17, samples=2 * CHUNK + 3, distance_fn=broken)
    assert report == MetricReport(False, False, k, ("identity", u, v, None))
    assert report == reference_sampled_metric(space, 17, 2 * CHUNK + 3, broken)


@pytest.mark.parametrize("m", range(2, 13))
def test_cell_words_hold_each_difference_in_unary(m):
    # Pair p's field, h*s bits from bit p*h*s, holds the unary Lee code of
    # its difference, and the bit above the five fields is u != v.
    for labeling in ((1,), (2, 1, 3)):
        s = len(labeling)
        space = Space(m, random_pomset(random.Random(m), s, m // 2, 0.5), labeling)
        f = space.height * s
        words = oracle._cell_words(space)
        assert len(words) == m ** 3
        for c, triple in enumerate(itertools.product(range(m), repeat=3)):
            word = words[c]
            for p, (a, b) in enumerate(oracle._PAIRS):
                lee = min((triple[a] - triple[b]) % m, (triple[b] - triple[a]) % m)
                field = word >> p * f & ((1 << f) - 1)
                assert field.bit_count() == lee
                assert field == (1 << lee) - 1
            assert word >> len(oracle._PAIRS) * f == (triple[0] != triple[1])


@pytest.mark.parametrize("m, labeling", [
    (2, (1, 2, 1)), (5, (1, 1, 2, 1)), (7, (2, 1, 3)), (12, (1, 2)), (9, (1,) * 5),
])
def test_weights_decode_every_unary_profile(m, labeling):
    # Every profile of block maxima, in unary and closed by the masks, has
    # the bit count of the ideal the library generates from it.
    s = len(labeling)
    space = Space(m, random_pomset(random.Random(m + s), s, m // 2, 0.4), labeling)
    h = space.height
    profiles = list(itertools.product(range(h + 1), repeat=s))
    keys = [sum(((1 << w) - 1) << b * h for b, w in enumerate(profile))
            for profile in profiles]
    closed = list(oracle._close_ideals(space, keys))
    assert len(closed) == len(profiles)
    for profile, word in zip(profiles, closed):
        assert word.bit_count() == sum(space.pomset.closure_counts(profile))


WIDE_SPACES = {
    # 24 unit blocks over Z_5: five 48-bit pair fields to a word.
    "z5-24-unit-blocks": Space(5, random_pomset(random.Random(31), 24, 2, 0.1), (1,) * 24),
    # Five blocks of 3 over Z_12: five 30-bit pair fields to a word.
    "z12-five-blocks-of-3": Space(12, random_pomset(random.Random(37), 5, 6, 0.4), (3,) * 5),
}


@pytest.mark.parametrize("name", ["default", "rarely-zero"])
@pytest.mark.parametrize("space_id", list(WIDE_SPACES))
def test_words_past_64_bits_match_the_per_triple_reference(space_id, name):
    space = WIDE_SPACES[space_id]
    table = distances(space)
    samples = CHUNK + 3
    reference = reference_sampled_metric(space, 29, samples,
                                         table["weight" if name == "default" else name])
    report = verify_metric(space, seed=29, samples=samples,
                           distance_fn=None if name == "default" else table[name])
    assert report == reference
    assert report.passed


@pytest.mark.parametrize("space, samples", [
    pytest.param(Space(7, Pomset.chain(3, 3), (2, 1, 3)), 2 * CHUNK + 3, id="z7-chain"),
    pytest.param(Space(6, random_pomset(random.Random(41), 4, 3, 0.5), (1, 2, 1, 2)),
                 2 * CHUNK + 3, id="z6-random-order"),
    pytest.param(WIDE_SPACES["z5-24-unit-blocks"], 2 * CHUNK + 3, id="z5-24-unit-blocks"),
    pytest.param(Space(3, Pomset.chain(2, 1), (1, 2)), 27 ** 3, id="z3-chain-every-triple"),
])
def test_the_default_distance_generates_no_ideal_through_the_library(space, samples):
    # The oracle closes ideals by its own masks, read off the order
    # relation, so the check passes with the library's closure broken, and
    # reports as the library's coordinate weight does.  Z_3^3's 27^3
    # triples fit its sample, so they are all checked.

    def broken(pomset, weights):
        raise AssertionError("closure_counts called")

    with mock.patch.object(Pomset, "closure_counts", broken):
        report = verify_metric(space, seed=43, samples=samples)
    cube = space.size ** 3
    exhaustive = cube <= samples
    assert report == MetricReport(True, exhaustive, cube if exhaustive else samples)
    assert report == verify_metric(space, seed=43, samples=samples,
                                   distance_fn=distances(space)["weight"])


@st.composite
def tiny_spaces(draw):
    """Z_m^n of at most 27 vectors, so at most 27^3 triples, in 1..n blocks."""
    m = draw(st.integers(2, 7))
    # Largest n first: hypothesis leans towards the first choices.
    n = draw(st.sampled_from(range(max(k for k in range(1, 6) if m ** k <= 27), 0, -1)))
    labeling = []
    while sum(labeling) < n:
        labeling.append(draw(st.integers(1, n - sum(labeling))))
    density = draw(st.sampled_from((0.0, 0.5, 1.0)))
    rng = random.Random(draw(SEEDS))
    return Space(m, random_pomset(rng, len(labeling), m // 2, density), tuple(labeling))


def reference_exhaustive_metric(space, distance_fn):
    """The pair-table exhaustive check: every pair's distance in one dict,
    identity and symmetry over all pairs, then the triangle over all
    triples, each in lexicographic order; any report counts all triples."""
    points = list(all_coords(space))
    count = len(points) ** 3
    dist = {(u, v): distance_fn(u, v) for u in points for v in points}
    for u in points:
        for v in points:
            duv = dist[u, v]
            if (duv == 0) != (u == v):
                return MetricReport(False, True, count, ("identity", u, v, None))
            if duv != dist[v, u]:
                return MetricReport(False, True, count, ("symmetry", u, v, None))
    for u in points:
        for v in points:
            for w in points:
                if dist[u, v] > dist[u, w] + dist[w, v]:
                    return MetricReport(False, True, count, ("triangle", u, v, w))
    return MetricReport(True, True, count)


def breaks(distance_fn, axiom, u, v, w):
    """Whether the triple breaks the axiom its counterexample names."""
    duv = distance_fn(u, v)
    if axiom == "identity":
        return (duv == 0) != (u == v) or distance_fn(u, u) != 0
    if axiom == "symmetry":
        return duv != distance_fn(v, u)
    return axiom == "triangle" and duv > distance_fn(u, w) + distance_fn(w, v)


@pytest.mark.parametrize("name", ["default", "weight", "skewed", "squared",
                                  "raw-residue", "rarely-zero"])
@bounded(25)
@given(tiny_spaces())
def test_every_triple_is_checked_as_the_pair_table_checked_them(name, space):
    table = distances(space)
    distance_fn = table["weight" if name == "default" else name]
    reference = reference_exhaustive_metric(space, distance_fn)
    report = verify_metric(space, samples=space.size ** 3,
                           distance_fn=None if name == "default" else distance_fn)
    assert report.exhaustive
    if name in ("default", "weight", "skewed"):
        # The true distance passes; skewing breaks symmetry in any space.
        assert reference.passed == (name != "skewed")
    if reference.passed:
        assert report == reference
        return
    # A broken distance fails both ways; the new check stops at the first
    # failing triple, in lexicographic order of the n residue triples.
    assert not report.passed
    axiom, u, v, w = report.counterexample
    assert breaks(distance_fn, axiom, u, v, w)
    cells = itertools.product(itertools.product(range(space.m), repeat=3), repeat=space.n)
    first_u, first_v, first_w = zip(*next(
        itertools.islice(cells, report.triples_checked - 1, None)))
    assert (u, v) == (first_u, first_v)
    assert w == (first_w if axiom == "triangle" else None)


@pytest.mark.parametrize("m, labeling", [(3, (2,)), (13, (1,)), (2, (1, 3))])
def test_the_exhaustive_check_weighs_each_triple_once(m, labeling):
    # 729, 2197 and 4096 triples: part of one chunk, a part chunk after two
    # whole ones, and four whole chunks.  Each triple asks for its five
    # distances once, so the calls count every triple exactly once.
    space = Space(m, random_pomset(random.Random(m), len(labeling), m // 2, 0.5), labeling)
    weight = distances(space)["weight"]
    calls = Counter()

    def counted(a, b):
        calls[a, b] += 1
        return weight(a, b)

    report = verify_metric(space, samples=space.size ** 3, distance_fn=counted)
    assert report == MetricReport(True, True, space.size ** 3)
    expected = Counter()
    for u, v, w in itertools.product(all_coords(space), repeat=3):
        expected.update([(u, v), (u, u), (v, u), (u, w), (w, v)])
    assert calls == expected
