"""Differential tests of the Howell-form module algebra, parity-block
dependence, the radius-ball lister and the ball-code intersection count in
`codes`, each against a brute-force reference over Z_m for m in 2..12,
composite moduli included; and of the columnar builders and checks behind
them (`_lex_span`, `Space.words_weight_counts`, the word contract's
`_check_words` and `_reduce_words`) against row-wise references.

Hypothesis runs derandomized, without an example database and with a
bounded number of examples, so the suite stays deterministic and quick.
"""

import itertools
import math
import operator
import random

import pytest
from hypothesis import assume, given, settings, strategies as st

from conftest import random_pomset
from pomsetblock import balls, codes
from pomsetblock.balls import (
    DEFAULT_BUDGET,
    BudgetExceededError,
    I_ball_cardinality,
    in_I_ball,
    r_ball_cardinality,
)
from pomsetblock.codes import (
    Code,
    _howell,
    _lex_span,
    _r_ball_coords,
    ball_code_intersection,
    block_dependency_threshold,
    block_dependency_witnesses,
    check_I_perfect,
    check_r_error_correcting,
    check_r_perfect,
    dual_code,
    min_distance,
    min_ideal_root_size,
    span_generator,
    weight_distribution,
)
from pomsetblock.mset import Mset, ShapeError
from pomsetblock.pomset import Ideal, Pomset, all_ideals, enumerate_ideals
from pomsetblock.space import Space, Vector, _check_words, _reduce_words, distance


def bounded(max_examples):
    return settings(derandomize=True, database=None, deadline=None,
                    max_examples=max_examples)


SEEDS = st.integers(0, 2 ** 32 - 1)


def divisor_scaled_rows(rng, m, n, count):
    """Random generator rows of length n over Z_m."""
    rows = []
    for _ in range(count):
        # Multiples of a random divisor of m give non-free spans too.
        unit = rng.choice([g for g in range(1, m + 1) if m % g == 0])
        rows.append([unit * rng.randrange(m) % m for _ in range(n)])
    return rows


@st.composite
def generated(draw, max_vectors=3000):
    """A space of single-coordinate blocks on an antichain, and generator rows."""
    m = draw(st.integers(2, 12))
    n = draw(st.integers(1, max(1, int(math.log(max_vectors, m)))))
    space = Space(m, Pomset.from_relations(n, m // 2, []), (1,) * n)
    rng = random.Random(draw(SEEDS))
    return space, divisor_scaled_rows(rng, m, n, draw(st.integers(0, 3)))


def combinations_of(m, n, rows):
    """Reference span: every coefficient tuple applied to the rows."""
    return {
        tuple(sum(a * row[t] for a, row in zip(coeffs, rows)) % m for t in range(n))
        for coeffs in itertools.product(range(m), repeat=len(rows))
    }


def closed(words, m):
    """Reference submodule test: zero, negatives and pairwise sums."""
    if not words or tuple(0 for _ in next(iter(words))) not in words:
        return False
    return all(tuple(-x % m for x in a) in words for a in words) and all(
        tuple((x + y) % m for x, y in zip(a, b)) in words for a in words for b in words
    )


@bounded(150)
@given(generated())
def test_span_matches_all_coefficient_combinations(case):
    space, rows = case
    code = span_generator(space, rows)
    assert set(code.codewords) == combinations_of(space.m, space.n, rows)
    assert vars(code)["_form"] == _howell(rows, space.n, space.m)


@bounded(150)
@given(generated())
def test_dual_matches_annihilator_scan(case):
    space, rows = case
    m = space.m
    scan = {
        v for v in space.iter_coords()
        if all(sum(x * y for x, y in zip(v, row)) % m == 0 for row in rows)
    }
    code = span_generator(space, rows)
    dual = dual_code(code)
    assert set(dual.codewords) == scan
    assert code.size * dual.size == space.size
    # A code listed by its codewords has the same dual.
    listed = Code.from_codewords(space, code.codewords)
    assert set(dual_code(listed).codewords) == scan


@bounded(150)
@given(generated(max_vectors=300), SEEDS)
def test_is_linear_matches_closure_on_subsets_of_spans(case, seed):
    space, rows = case
    words = list(span_generator(space, rows).codewords)
    rng = random.Random(seed)
    subset = rng.sample(words, rng.randint(1, len(words)))
    if rng.random() < 0.5 and (0,) * space.n not in subset:
        subset.append((0,) * space.n)
    code = Code.from_codewords(space, subset)
    assert code.is_linear == closed(set(subset), space.m)
    assert Code.from_codewords(space, words).is_linear


@st.composite
def ordered_spaces(draw, max_vectors=2500):
    m = draw(st.integers(2, 12))
    room = max(1, int(math.log(max_vectors, m)))  # longest n with m^n <= max_vectors
    s = draw(st.integers(1, min(4, room)))
    labeling = []
    for t in range(s):
        labeling.append(draw(st.integers(1, room - sum(labeling) - (s - 1 - t))))
    rng = random.Random(draw(SEEDS))
    density = draw(st.sampled_from((0.0, 0.25, 0.5, 0.75, 1.0)))
    return Space(m, random_pomset(rng, s, m // 2, density), tuple(labeling))


@bounded(120)
@given(ordered_spaces())
def test_r_ball_lists_the_weight_filter_in_its_order(space):
    # The ball is the union of the returned boxes, which are disjoint: each
    # member is listed exactly once.
    for r in range(space.max_weight + 1):
        expected = [co for co in space.iter_coords() if space.coords_weight(co) <= r]
        boxes = _r_ball_coords(Code(space, [(0,) * space.n]), r, space.size)
        listed = sorted(co for box in boxes for co in itertools.product(*box))
        assert listed == expected
        assert len(listed) == r_ball_cardinality(space, r)


@bounded(150)
@given(ordered_spaces(), SEEDS)
def test_block_dependency_is_the_least_downsets_holding_a_codeword(space, seed):
    rng = random.Random(seed)
    rows = divisor_scaled_rows(rng, space.m, space.n, rng.randint(0, 3))
    code = span_generator(space, rows)
    listed = Code.from_codewords(space, code.codewords)
    if code.size < 2:
        with pytest.raises(ValueError):
            block_dependency_witnesses(code)
        return
    # Definition: a dependent downset holds the block support of a nonzero
    # codeword; the witnesses are the least such downsets.
    supports = {
        frozenset(
            b for b, (lo, hi) in enumerate(space.block_bounds, start=1) if any(w[lo:hi])
        )
        for w in code.codewords
        if any(w)
    }
    holding = [d for d in space.pomset.downsets if any(s <= d for s in supports)]
    least = min(map(len, holding))
    expected = (least, [d for d in holding if len(d) == least])
    assert block_dependency_witnesses(code) == expected
    assert block_dependency_witnesses(listed) == expected
    assert block_dependency_threshold(code) == min_ideal_root_size(code) == least


@bounded(120)
@given(ordered_spaces(max_vectors=1200), SEEDS)
def test_census_budget_counts_memberships_not_the_space(space, seed):
    # Balls smaller than the space and codes with |C| x |B| < m^n: the
    # census fits a budget of exactly |C| x |B| memberships, cover check
    # included, and no budget below it.
    rng = random.Random(seed)
    i = rng.choice([i for i in all_ideals(space.pomset)
                    if I_ball_cardinality(space, i) < space.size])
    r = rng.choice([r for r in range(space.max_weight + 1)
                    if r_ball_cardinality(space, r) < space.size])
    i_size, r_size = I_ball_cardinality(space, i), r_ball_cardinality(space, r)
    cases = [(check_I_perfect, i, i_size), (check_r_perfect, r, r_size),
             (check_r_error_correcting, r, r_size)]
    rows = divisor_scaled_rows(rng, space.m, space.n, rng.randint(0, 3))
    room = (space.size - 1) // max(i_size, r_size)
    words = rng.sample(list(space.iter_coords()), rng.randint(1, room))
    for code in (span_generator(space, rows), Code.from_codewords(space, words)):
        for check, ball, size in cases:
            need = code.size * size
            if need >= space.size:
                continue
            assert check(code, ball, need) == check(code, ball, DEFAULT_BUDGET)
            with pytest.raises(BudgetExceededError):
                check(code, ball, need - 1)


def test_r_ball_walk_stops_at_the_budget(monkeypatch):
    # 5^24 vectors and a radius-12 ball of about 3e8 members; a census of
    # two codewords under a budget of 21 takes at most 10 members, and the
    # I-ball of six full blocks, inside the radius ball, already holds 5^6,
    # so the lister must refuse before it builds a downset level or weighs
    # a vector.
    space = Space(5, Pomset.from_relations(24, 2, []), (1,) * 24)
    levels = []
    level = Pomset._downset_level

    def guarded_level(self, size):
        assert size <= 1, f"downset level {size} built"
        levels.append(size)
        return level(self, size)

    def no_closure(self, weights):
        raise AssertionError("the lister weighed a vector")

    monkeypatch.setattr(Pomset, "_downset_level", guarded_level)
    monkeypatch.setattr(Pomset, "closure_counts", no_closure)
    code = Code(space, [(0,) * 24, (1,) * 24])
    message = "census of 2 codewords x a radius-12 ball of more than 10 vectors exceeds budget 21"
    with pytest.raises(BudgetExceededError, match=f"^{message}$"):
        _r_ball_coords(code, 12, 21)
    assert levels == []


def test_r_ball_lister_builds_each_ideal_once(monkeypatch):
    # Ten unit blocks over Z_5 with covering pairs (1, 2) and (3, 4): the
    # radius-6 ball takes every ideal of at most 6 elements, each built once
    # and none sized by a sphere formula.
    space = Space(5, Pomset.from_relations(10, 2, [(1, 2), (3, 4)]), (1,) * 10)
    built = []

    def counted(p, r):
        ideals = enumerate_ideals(p, r)
        built.extend(ideals)
        return ideals

    def no_sphere(space, i):
        raise AssertionError("the lister sized a sphere")

    for module in (codes, balls):
        monkeypatch.setattr(module, "enumerate_ideals", counted)
    monkeypatch.setattr(balls, "I_sphere_cardinality", no_sphere)
    boxes = _r_ball_coords(Code(space, [(0,) * space.n]), 6, space.size)
    expected = [i for i in all_ideals(space.pomset) if i.cardinality <= 6]
    assert sorted(built, key=lambda i: i.counts) == sorted(expected, key=lambda i: i.counts)
    assert len(built) == 2010
    assert len(boxes) == 2010


@bounded(150)
@given(ordered_spaces(max_vectors=600), SEEDS)
def test_ball_code_intersection_matches_in_I_ball(space, seed):
    # The code is a span or a list of words, of 1 to the whole space's size.
    # The empty ideal's one-vector ball and the top ideal's whole space,
    # beside random ideals, put the ball on both sides of any code of two or
    # more words; the counts come as an ideal or as a plain multiset.
    rng = random.Random(seed)
    if rng.random() < 0.5:
        rows = divisor_scaled_rows(rng, space.m, space.n, rng.randint(0, 3))
        code = span_generator(space, rows)
    else:
        words = rng.sample(list(space.iter_coords()), rng.randint(1, space.size))
        code = Code.from_codewords(space, words)
    ideals = all_ideals(space.pomset)
    for i in [ideals[0], ideals[-1], *rng.sample(ideals, min(2, len(ideals)))]:
        counts = i if rng.random() < 0.5 else Mset(space.s, space.height, i.counts)
        for _ in range(3):
            x = space.vector([rng.randrange(space.m) for _ in range(space.n)])
            expected = sum(
                1 for w in code.codewords if in_I_ball(space.vector(w), x, counts)
            )
            assert ball_code_intersection(code, counts, x) == expected


def test_ball_code_intersection_rejects_what_in_I_ball_rejects():
    space = Space(5, Pomset.from_relations(2, 2, [(1, 2)]), (1, 1))
    code = Code.from_codewords(space, [(0, 0), (1, 2)])
    ideal = Ideal(space.pomset, (2, 1))
    other = Space(5, Pomset.from_relations(2, 2, []), (1, 1))
    with pytest.raises(ShapeError, match="different spaces"):
        ball_code_intersection(code, ideal, other.zero())
    with pytest.raises(ShapeError, match="order"):
        ball_code_intersection(code, Ideal(other.pomset, (1, 1)), space.zero())
    with pytest.raises(ShapeError, match="shape"):
        ball_code_intersection(code, Mset(3, 2, (0, 0, 0)), space.zero())
    with pytest.raises(TypeError, match="Ideal or Mset"):
        ball_code_intersection(code, (2, 1), space.zero())


def row_wise_lex_span(form, n, m):
    """Reference builder: each word w grown into w + c*row, one tuple at a time.

    c runs over (j - w_p // a) mod m/a for j = 0, 1, ..., the least residues,
    where a is the row's pivot at p.
    """
    words = [(0,) * n]
    for row in form:
        p = next(t for t, y in enumerate(row) if y)
        a, k = row[p], m // row[p]
        words = [
            tuple((x + (j - w[p] // a) % k * y) % m for x, y in zip(w, row))
            for w in words
            for j in range(k)
        ]
    return words


@bounded(200)
@given(generated(max_vectors=4000), st.booleans())
def test_lex_span_matches_the_row_wise_builder(case, dual):
    # The Howell rows of a span, or those of its dual: the builder lists
    # the same words in the same order either way.
    space, rows = case
    n, m = space.n, space.m
    form = _howell(rows, n, m)
    if dual:
        form = span_generator(space, rows)._dual_form
    words = _lex_span(form, n, m)
    expected = row_wise_lex_span(form, n, m)
    assert words == expected
    assert all(type(w) is tuple for w in words)
    assert {type(x) for w in words for x in w} <= {int}


@st.composite
def blocked_words(draw):
    """A space of 1-3-coordinate blocks over a random order, and random words."""
    m = draw(st.sampled_from((2, 3, 4, 5, 6, 8, 9, 10, 12)))
    s = draw(st.integers(1, 4))
    labeling = tuple(draw(st.lists(st.integers(1, 3), min_size=s, max_size=s)))
    rng = random.Random(draw(SEEDS))
    density = draw(st.sampled_from((0.0, 0.5, 1.0)))
    space = Space(m, random_pomset(rng, s, m // 2, density), labeling)
    n = space.n
    words = [tuple(rng.randrange(m) for _ in range(n)) for _ in range(rng.randint(0, 40))]
    # The zero word and repeats, which the kernel keys once.
    words += [(0,) * n] + words[: rng.randint(0, len(words))]
    rng.shuffle(words)
    return space, words


@bounded(200)
@given(blocked_words())
def test_column_kernel_matches_coords_weight(case):
    space, words = case
    counts = space.words_weight_counts(words)
    assert counts == [space.weight_counts(w) for w in words]
    assert list(map(sum, counts)) == [space.coords_weight(w) for w in words]
    # Its three callers against their per-word definitions.
    code = Code(space, words)
    weights = [space.coords_weight(w) for w in code.codewords]
    assert weight_distribution(code).counts == tuple(
        weights.count(r) for r in range(space.max_weight + 1)
    )
    if code.size > 1:
        m = space.m
        assert min_distance(code) == min(
            space.coords_weight(tuple((x - y) % m for x, y in zip(u, v)))
            for u, v in itertools.combinations(code.codewords, 2)
        )
        assert min_ideal_root_size(code) == min(
            sum(1 for x in space.weight_counts(w) if x) for w in code.codewords if any(w)
        )


@bounded(100)
@given(blocked_words())
def test_min_distance_of_a_non_linear_code_is_the_least_over_all_pairs(case):
    space, words = case
    code = Code(space, words)
    assume(code.size > 1 and not code.is_linear)
    assert min_distance(code) == min(
        distance(space.vector(u), space.vector(v))
        for u, v in itertools.combinations(code.codewords, 2)
    )


def test_column_kernel_of_no_words():
    space = Space(5, Pomset.from_relations(2, 2, [(1, 2)]), (2, 1))
    assert space.words_weight_counts([]) == []


def reference_check_words(space, words):
    """Every word rebuilt through `operator.index`, then the same checks."""
    words = [tuple(map(operator.index, w)) for w in words]
    for w in words:
        if len(w) != space.n:
            raise ShapeError(f"expected {space.n} coordinates, got {len(w)}")
    for w in words:
        for x in w:
            if not 0 <= x < space.m:
                raise ShapeError(f"coordinate {x} not reduced mod {space.m}")
    return words


def outcome(check, space, words):
    """The words and their coordinate types, or the exception's type and message."""
    try:
        found = check(space, words)
    except (TypeError, ShapeError) as exc:
        return type(exc), str(exc)
    return found, [tuple(map(type, w)) for w in found]


@st.composite
def raw_words(draw):
    """Tuples or lists of ints, bools, floats or strings, some short or unreduced."""
    m = draw(st.integers(2, 12))
    n = draw(st.integers(1, 4))
    space = Space(m, Pomset.from_relations(n, m // 2, []), (1,) * n)
    coordinate = st.one_of(
        st.integers(0, m - 1),
        st.integers(0, m - 1),
        st.integers(-2, m + 2),
        st.booleans(),
        st.sampled_from((0.0, 1.0, 1.5)),
        st.just("1"),
    )
    coords = st.lists(coordinate, min_size=n - 1, max_size=n + 1)
    word = st.tuples(st.sampled_from((tuple, list)), coords)
    words = draw(st.lists(word, max_size=6))
    return space, [kind(coords) for kind, coords in words]


@bounded(400)
@given(raw_words())
def test_check_words_matches_the_rebuilding_reference(case):
    space, words = case
    expected = outcome(reference_check_words, space, words)
    assert outcome(_check_words, space, words) == expected


def test_check_words_returns_tuples_of_ints_as_they_are():
    space = Space(5, Pomset.from_relations(2, 2, []), (1, 1))
    word = (1, 2)
    assert _check_words(space, [word])[0] is word
    assert _reduce_words(space, [word])[0] is word


def reference_reduce_words(space, words):
    """Every word rebuilt through `operator.index`, its length checked, then
    each coordinate taken mod m."""
    words = [tuple(map(operator.index, w)) for w in words]
    for w in words:
        if len(w) != space.n:
            raise ShapeError(f"expected {space.n} coordinates, got {len(w)}")
    return [tuple(x % space.m for x in w) for w in words]


@st.composite
def wide_words(draw):
    """Raw words over a small modulus or one up to 2^70, with negative,
    unreduced and past-2^64 ints, as tuples or lists; in some cases also
    bools, floats and strings, or words of the wrong length."""
    m = draw(st.one_of(st.integers(2, 12), st.integers(2, 2 ** 70)))
    n = draw(st.integers(1, 4))
    space = Space(m, Pomset.from_relations(n, m // 2, []), (1,) * n)
    coordinate = st.one_of(
        st.integers(0, m - 1),
        st.integers(0, m - 1),
        st.integers(0, m - 1),
        st.integers(-2 * m, -1),
        st.integers(m, 3 * m),
        st.integers(2 ** 64, 2 ** 80),
        st.integers(-(2 ** 80), -(2 ** 64)),
    )
    if draw(st.booleans()):
        coordinate |= st.sampled_from((False, True, 0.0, 1.5, "1"))
    sizes = (n - 1, n, n + 1) if draw(st.booleans()) else (n,)
    coords = st.sampled_from(sizes).flatmap(lambda k: st.lists(coordinate, min_size=k, max_size=k))
    word = st.tuples(st.sampled_from((tuple, list)), coords)
    words = draw(st.lists(word, max_size=6))
    return space, [kind(coords) for kind, coords in words]


@bounded(400)
@given(wide_words())
def test_the_word_contract_matches_the_per_coordinate_reference(case):
    space, words = case
    assert outcome(_check_words, space, words) == outcome(reference_check_words, space, words)
    assert outcome(_reduce_words, space, words) == outcome(reference_reduce_words, space, words)


@bounded(300)
@given(wide_words())
def test_every_entry_point_takes_words_by_the_contract(case):
    space, words = case

    def each(fn):
        return lambda sp, ws: [fn(sp, [w])[0] for w in ws]

    def distinct(fn):
        return lambda sp, ws: sorted(set(fn(sp, ws)))

    assert (outcome(lambda sp, ws: [sp.vector(w).coords for w in ws], space, words)
            == outcome(each(reference_reduce_words), space, words))
    assert (outcome(lambda sp, ws: [Vector(sp, w).coords for w in ws], space, words)
            == outcome(each(reference_check_words), space, words))
    if space.m <= 12:
        assert (outcome(lambda sp, ws: span_generator(sp, ws)._form, space, words)
                == outcome(lambda sp, ws: _howell(reference_reduce_words(sp, ws), sp.n, sp.m),
                           space, words))
    if words:
        assert (outcome(lambda sp, ws: list(Code.from_codewords(sp, ws).codewords), space, words)
                == outcome(distinct(reference_reduce_words), space, words))
        assert (outcome(lambda sp, ws: list(Code(sp, ws).codewords), space, words)
                == outcome(distinct(reference_check_words), space, words))
