"""Bounded-exhaustive certification: every small space and every small code.

Random draws need not visit every order shape, so these sweeps visit all of
them up to a scope (the small-scope hypothesis: Jackson, Software
Abstractions, 2006).  The orders on s blocks are found by brute force over
relation sets, one per isomorphism class: 1, 2, 5 and 16 for s = 1..4.

- Spaces: every order on 1-4 blocks, every labeling with blocks of 1-3
  coordinates and every m in 2..7 with m^n <= 5 000, 2 681 spaces.  The
  oracle's formula suite must pass on each with no check skipped.
- Codes: every order on 1-3 blocks and blocks of 1-2 coordinates, three
  sweeps.  Each nonzero vector spans a one-row code at m^n <= 36, 1 293
  codes.  Each pair of nonzero vectors spans a two-row code at m^n <= 25,
  736 distinct codes.  Each pair u < v of nonzero vectors gives the listed
  code {0, u, v} at m^n <= 16, 2 417 codes, all but 14 of them no submodule,
  so that sweep meets the translate census and the pairwise minimum distance.
  Linearity, minimum distance, weight distribution, the dual of a linear
  code, I-perfectness at every ideal, and r-perfectness and r-error-
  correction at every radius must match a reference written from the
  definitions in this file.
"""

import itertools
from bisect import bisect_right
from collections import Counter
from operator import le, mul

from pomsetblock import codes
from pomsetblock.oracle import verify_formula_suite
from pomsetblock.pomset import Ideal, Pomset, all_ideals
from pomsetblock.space import Space


def orders(s):
    """One strict order on blocks 1..s per isomorphism class, as its set of
    pairs (a, b) with a < b: the least relabelling of each transitive,
    antisymmetric relation set."""
    pairs = [(a, b) for a in range(1, s + 1) for b in range(1, s + 1) if a != b]
    classes = set()
    for k in range(len(pairs) + 1):
        for relation in map(set, itertools.combinations(pairs, k)):
            if any((b, a) in relation for a, b in relation):
                continue
            if any((a, d) not in relation for a, b in relation for c, d in relation if b == c):
                continue
            classes.add(min(
                tuple(sorted((p[a - 1], p[b - 1]) for a, b in relation))
                for p in itertools.permutations(range(1, s + 1))
            ))
    return sorted(classes)


ORDERS = {s: orders(s) for s in range(1, 5)}


def spaces(most_blocks, block_sizes, most_vectors):
    """Each order on up to `most_blocks` blocks, with its relation set, under
    every labeling of `block_sizes` and every m in 2..7 with m^n at most
    `most_vectors`."""
    for s in range(1, most_blocks + 1):
        for labeling in itertools.product(block_sizes, repeat=s):
            for m in range(2, 8):
                if m ** sum(labeling) <= most_vectors:
                    for order in ORDERS[s]:
                        yield Space(m, Pomset.from_relations(s, m // 2, order), labeling), order


def test_orders_up_to_isomorphism_number_as_known():
    assert [len(ORDERS[s]) for s in range(1, 5)] == [1, 2, 5, 16]


def test_every_small_space_passes_the_suite_with_nothing_skipped():
    count = 0
    for space, _ in spaces(4, (1, 2, 3), 5000):
        report = verify_formula_suite(space)
        assert all(c.status == "pass" for c in report.checks), (space, report.checks)
        count += 1
    assert count == 2681


class Reference:
    """A space's facts from the definitions, with vectors as their indices
    in lexicographic order.

    A block weighs the largest Lee weight min(x, m - x) of its coordinates,
    and a vector's key is the ideal its block support generates: a block
    below a present one counts h = floor(m/2), and every other block its own
    weight.  The weight is the key's sum, and d(x, y) the weight of x - y.
    """

    def __init__(self, space, order):
        m, n, h = space.m, space.n, space.m // 2
        self.vectors = list(itertools.product(range(m), repeat=n))
        self.index = {v: j for j, v in enumerate(self.vectors)}
        ends = list(itertools.accumulate(space.labeling))
        blocks = list(zip([0, *ends], ends))
        self.keys = []
        for v in self.vectors:
            weights = [max(min(x, m - x) for x in v[lo:hi]) for lo, hi in blocks]
            key = list(weights)
            for a, b in order:
                if weights[b - 1]:
                    key[a - 1] = h
            self.keys.append(tuple(key))
        self.weights = list(map(sum, self.keys))
        # minus[x][y]: the index of x - y.
        self.minus = [[self.index[tuple((a - b) % m for a, b in zip(x, y))] for y in self.vectors]
                      for x in self.vectors]
        self.space, self.order = space, order

    def ideals(self):
        """Every key in [0..h]^s in which a block below a present one is full."""
        h = self.space.m // 2
        return [key for key in itertools.product(range(h + 1), repeat=self.space.s)
                if all(key[a - 1] == h for a, b in self.order if key[b - 1])]

    def span(self, rows):
        m = self.space.m
        return sorted({self.index[tuple(sum(map(mul, a, column)) % m for column in zip(*rows))]
                       for a in itertools.product(range(m), repeat=len(rows))})

    def is_submodule(self, words):
        """Whether the words hold every difference of two of them."""
        held = set(words)
        return all(self.minus[x][y] in held for x in words for y in words)

    def annihilator(self, words):
        m = self.space.m
        return {y for y in self.vectors
                if all(sum(map(mul, y, self.vectors[c])) % m == 0 for c in words)}

    def distances(self, words):
        """Per vector x, the sorted distances d(x, c) to the words."""
        return [sorted(map(self.weights.__getitem__, map(row.__getitem__, words)))
                for row in self.minus]

    def covers(self, words, inside):
        """Per vector, how many balls about the words hold it, a ball about
        c holding x when `inside` holds the index of x - c."""
        return [sum(map(inside.__contains__, map(row.__getitem__, words))) for row in self.minus]


def assert_census_matches(result, covers, perfect, ref, label):
    """A census result agrees with per-vector cover counts: it passes iff
    every count is 1, if `perfect`, or at most 1 otherwise.  A vector
    covered twice is a valid witness of an overlap, and with no overlap the
    witness is the first vector covered by no ball."""
    overlap = max(covers) > 1
    assert result.ok == (not overlap and (not perfect or min(covers) == 1)), label
    if result.ok:
        return
    at = ref.index[result.witness]
    if overlap:
        assert (result.reason, covers[at] > 1) == ("vector covered by two balls", True), label
    else:
        assert (result.reason, at) == ("vector covered by no ball", covers.index(0)), label


def sweep_codes(most_vectors, codes_of):
    """Check every code `codes_of(ref)` yields, as (code, sorted word
    indices), on each space of orders on 1-3 blocks, blocks of 1-2
    coordinates and at most `most_vectors` vectors, against the reference.
    Returns the number of codes and of radius checks."""
    codes_checked = radius_checks = 0
    for space, order in spaces(3, (1, 2), most_vectors):
        ref = Reference(space, order)
        ideal_keys = ref.ideals()
        assert sorted(i.counts for i in all_ideals(space.pomset)) == ideal_keys
        radii = range(space.max_weight + 1)
        # Each I-ball about zero, as a set of indices.
        i_balls = {key: {x for x, k in enumerate(ref.keys) if all(map(le, k, key))}
                   for key in ideal_keys}
        for code, words in codes_of(ref):
            label = (space, [ref.vectors[x] for x in words])
            assert sorted(map(ref.index.__getitem__, code.codewords)) == words
            linear = ref.is_submodule(words)
            assert code.is_linear == linear, label
            assert codes.min_distance(code) == min(
                ref.weights[ref.minus[x][y]] for x in words for y in words if x != y)
            weights = Counter(ref.weights[x] for x in words)
            assert codes.weight_distribution(code).counts == tuple(weights[r] for r in radii)
            if linear:
                assert set(codes.dual_code(code).codewords) == ref.annihilator(words)
            for key in ideal_keys:
                result = codes.check_I_perfect(code, Ideal(space.pomset, key))
                assert_census_matches(result, ref.covers(words, i_balls[key]), True, ref,
                                      ("I-perfect", label, key))
            distances = ref.distances(words)
            for r in radii:
                # The r-ball about c holds x when d(x, c) <= r.
                covers = [bisect_right(d, r) for d in distances]
                for perfect, check in ((True, codes.check_r_perfect),
                                       (False, codes.check_r_error_correcting)):
                    assert_census_matches(check(code, r), covers, perfect, ref,
                                          (check.__name__, label, r))
                    radius_checks += 1
            codes_checked += 1
    return codes_checked, radius_checks


def test_every_one_row_code_of_a_small_space_matches_the_definitions():
    def one_row_codes(ref):
        for v in ref.vectors[1:]:
            yield codes.span_generator(ref.space, [v]), ref.span([v])

    assert sweep_codes(36, one_row_codes) == (1293, 10404)


def test_every_two_row_code_of_a_small_space_matches_the_definitions():
    def two_row_codes(ref):
        seen = set()
        for u, v in itertools.combinations(ref.vectors[1:], 2):
            words = ref.span([u, v])
            if tuple(words) not in seen:
                seen.add(tuple(words))
                yield codes.span_generator(ref.space, [u, v]), words

    assert sweep_codes(25, two_row_codes) == (736, 5672)


def test_every_listed_three_word_code_of_a_small_space_matches_the_definitions():
    def listed_codes(ref):
        for u, v in itertools.combinations(range(1, len(ref.vectors)), 2):
            words = [0, u, v]
            yield codes.Code.from_codewords(ref.space, [ref.vectors[x] for x in words]), words

    assert sweep_codes(16, listed_codes) == (2417, 18688)
