"""Independent brute-force certification of the closed forms.

Everything in this module is computed from definitions alone: Lee weights,
block supports, generated ideals, and raw coordinate scans.  The closed
forms being certified (ball and sphere cardinalities, tiling centers) are
only ever invoked on the comparison side of a check, so agreement between
the two routes is meaningful evidence rather than a tautology.

The census visits no vector: per block, each residue tuple is weighed once,
in lexicographic order, as the `max` of its Lee weights in one C-level pass,
and since block weights are independent from block to block, the vectors of
each block-weight tuple number the product of the per-block tallies of its
weights; the tuples are held as one column of weights per block, and each
tuple's ideal counts are its weights with every block below a present one
raised to full height, by C-level maps over the columns.  Each I-ball is
built at most once per suite, as one bitset whose bit j stands for the
vector of big-endian base-m value j: radius by radius, the bitsets of the
I-balls of that cardinality are ORed into the union whose bit count is
checked against the census's r-ball, and a full-count ball's bitset also
gives its coordinate projections, by folding it onto each coordinate.  Those
decide whether it is a product of subgroups of Z_m, and that product's
annihilator is compared, coordinate by coordinate, with the dual order's
ball of the complement.  The tiling check is per coordinate too: centers
listed as a product tile with a product ball exactly when each coordinate's
projection and residue list tile Z_m, so it lists no translate; the listing
is sorted once and compared lazily with the product of the lists read off
it.  I-ball sizes are the census's ideal counts summed over nested ideal
keys, by prefix sums over the grid of counts.  The suite has one budget:
what it lists lies in the space, which the census refuses past that budget,
so no bitset exceeds it in bits.

The metric check works by columns, on all triples if they number at most its
sample, else on a seeded sample: a chunk of triples is one run of indices
into the m^3 residue triples, sampled as `Random.choices` draws them,
floor(random() * m^3), and coordinate t is every n-th index.  Each index
reads one word of 5hs + 1 bits from a table, holding the unary codes 2^w - 1
of the Lee weights w of the five differences a triple checks and a flag for
u_t != v_t; more triples than the check's budget, or a table of more 64-bit
units, is refused before anything is drawn or built.  The OR of unary codes
is the unary code of their maximum, so ORing a triple's words, each block's
shifted to its own field, gives every difference's block maxima at once.
One mask per block, read off the order relation, closes each difference's
ideal inside its field, so each weight is one bit count of the word under
its field's mask, and the triangle's right side d(u, w) + d(w, v) one count
under the union of their two fields.
"""

from __future__ import annotations

import itertools
import math
import random
from collections import Counter
from dataclasses import dataclass, field
from itertools import repeat, starmap
from operator import (add, and_, eq, floordiv, itemgetter, lshift, mod, mul,
                      not_, or_, rshift)

from . import balls
from .balls import BudgetExceededError, PartitionImpossibleError
from .pomset import all_ideals, ideal_complement
from .space import Space

DEFAULT_SAMPLES = 10 ** 5
# Triples drawn, weighed and checked together, so a chunk's columns hold at
# most n times this many entries.
_METRIC_CHUNK = 1 << 10
# The five distances a triple (u, v, w) checks, as positions in it:
# d(u, v), d(u, u), d(v, u), d(u, w) and d(w, v).  `_cell_words` lays out
# their fields in this order.
_PAIRS = ((0, 1), (0, 0), (1, 0), (0, 2), (2, 1))


@dataclass
class CensusReport:
    """Exact census of weights and generated ideals over the whole space."""

    space: Space
    sphere_counts: dict[int, int]
    ideal_sphere_counts: dict[tuple[int, ...], int]
    total: int

    def ball_size(self, r: int) -> int:
        """Vectors of weight at most r, from the census alone."""
        return 1 + sum(
            count for w, count in self.sphere_counts.items() if 1 <= w <= r
        )

    def telescopes(self) -> bool:
        full = 1 + sum(self.sphere_counts.values())
        by_ideal = sum(self.ideal_sphere_counts.values())
        return full == self.total and by_ideal == self.total


def weight_census(
    space: Space, budget: int = balls.DEFAULT_BUDGET
) -> CensusReport:
    """Count every vector by its weight and its generated ideal.

    A vector's block weights are independent from block to block, so the
    vectors with block-weight tuple (w_1, ..., w_s) number the product of
    how many tuples of each block weigh w_t, its largest Lee weight
    min(x, m - x).  Per block, the weights are tallied by one C-level pass,
    the `max` of each tuple of the residues' Lee weights.  Each block-weight tuple's
    generated ideal is taken once, so no vector is visited: the tuples are
    held as one column of weights per block, a presence mask per tuple has
    bit b set where block b weighs more than 0, and a block with blocks
    strictly above it counts h in a tuple whose mask meets them, its own
    weight otherwise.  The counts are the ideal, and their sum is the
    weight.  Per block the tuples are listed in lexicographic order and
    their weights tallied in the order first met; the product over blocks
    meets the block-weight tuples in the order of their first vector (Knuth,
    TAOCP 4A 7.2.1.1), so the ideal counts fill in the order a
    vector-by-vector scan would fill them, and so do the weight counts, read
    off the ideal counts in their order.  A space of more than `budget`
    vectors is refused.
    """
    if space.size > budget:
        raise BudgetExceededError(
            f"space of size {space.size} exceeds budget {budget}"
        )
    m, h = space.m, space.height
    lees = [min(x, m - x) for x in range(m)]
    tallies = [Counter(map(max, itertools.product(lees, repeat=k)))
               for k in space.labeling]
    columns = list(zip(*itertools.product(*tallies)))
    mask = repeat(0)
    for b, column in enumerate(columns):
        mask = map(or_, mask, map(lshift, map(bool, column), repeat(b)))
    mask = list(mask)
    for b, upper in space.pomset.strictly_above.items():
        if upper:
            meets = map(bool, map(and_, mask, repeat(sum(1 << a - 1 for a in upper))))
            columns[b - 1] = map(max, columns[b - 1], map(mul, meets, repeat(h)))
    keys = zip(*columns)
    counts = map(math.prod, itertools.product(*(t.values() for t in tallies)))
    ideal_counts: dict[tuple[int, ...], int] = {}
    for key, count in zip(keys, counts):
        ideal_counts[key] = ideal_counts.get(key, 0) + count
    sphere_counts: dict[int, int] = {}
    for key, count in ideal_counts.items():
        w = sum(key)
        if w:
            sphere_counts[w] = sphere_counts.get(w, 0) + count
    return CensusReport(space, sphere_counts, ideal_counts, space.size)


@dataclass
class MetricReport:
    passed: bool
    exhaustive: bool
    triples_checked: int
    counterexample: tuple | None = None

    def __bool__(self) -> bool:
        return self.passed


def _block_shifts(space: Space):
    """Each block's coordinate bounds and the shift, b*h, of its field."""
    h = space.height
    return [(lo, hi, b * h) for b, (lo, hi) in enumerate(space.block_bounds)]


def _fold_blocks(blocks, columns):
    """Per position, the OR of the columns within each block, each block's
    OR shifted up by its field's offset, and those ORed together.

    Columns of unary Lee codes give each block's maximum in unary, since
    the OR of unary codes is the unary code of their maximum.
    """
    words = None
    for lo, hi, shift in blocks:
        top = columns[lo]
        for column in columns[lo + 1:hi]:
            top = map(or_, top, column)
        if shift:
            top = map(lshift, top, repeat(shift))
        words = top if words is None else map(or_, words, top)
    return words


def _close_ideals(space: Space, words):
    """The metric check's list `words`, each holding unary block maxima in
    up to five fields of f = h*s bits, block b from bit b*h of a field, with
    each field closed into the unary code of the ideal it generates.

    Block b is present in field p exactly when bit p*f + b*h is set.  For
    each block b with blocks strictly below it, those bits, times the
    full-height codes of those blocks, are ORed in, every field at once.
    The order is transitive, so each mask reads the words as given, and a
    closed field's bit count is the size of its ideal.
    """
    h = space.height
    lows = sum(1 << p * h * space.s for p in range(len(_PAIRS)))
    closed = words
    for b, lower in space.pomset.strictly_below.items():
        if lower:
            present = map(and_, map(rshift, words, repeat((b - 1) * h)), repeat(lows))
            mask = sum(((1 << h) - 1) << (a - 1) * h for a in lower)
            closed = map(or_, closed, map(mul, present, repeat(mask)))
    return closed


def _cell_words(space: Space) -> list[int]:
    """One word per residue triple (u, v, w), at index u m^2 + v m + w.

    With f = h*s bits to a pair, the word holds the unary Lee code of each
    difference of `_PAIRS` (u - v, u - u, v - u, u - w and w - v), pair p
    from bit p*f, and above them, at bit 5f, one flag set when u != v.
    Shifted by b*h and ORed over a word's coordinates, block by block, the
    cell words of a triple give, from bit p*f, the unary block-maxima key
    of its p-th difference, and a nonzero flag region exactly when u != v.
    """
    m = space.m
    f = space.height * space.s
    # unary[x][y]: the unary code of the Lee weight of x - y.
    unary = [[(1 << min((x - y) % m, (y - x) % m)) - 1 for y in range(m)]
             for x in range(m)]
    # The u - w and w - v fields, each a row over w, by u and by v.
    uw = [[c << 3 * f for c in unary[u]] for u in range(m)]
    wv = [[unary[w][v] << 4 * f for w in range(m)] for v in range(m)]
    words = []
    for u in range(m):
        for v in range(m):
            uv = (unary[u][v] | unary[u][u] << f | unary[v][u] << 2 * f
                  | (u != v) << 5 * f)
            words += map(or_, map(or_, uw[u], wv[v]), repeat(uv))
    return words


def _unzip(cells, m: int, n: int):
    """The u, v and w words of a run of residue-triple indices
    c = u m^2 + v m + w, n consecutive indices to a triple."""
    flats = (map(floordiv, cells, repeat(m * m)),
             map(mod, map(floordiv, cells, repeat(m)), repeat(m)),
             map(mod, cells, repeat(m)))
    return [list(zip(*[iter(flat)] * n)) for flat in flats]


def verify_metric(
    space: Space,
    *,
    seed: int = 0,
    samples: int = DEFAULT_SAMPLES,
    distance_fn=None,
    budget: int = balls.DEFAULT_BUDGET,
) -> MetricReport:
    """Check identity, symmetry and the triangle inequality.

    Keyword-only after `space`.  All (m^n)^3 triples if at most `samples`,
    else `samples` seeded uniform draws; the two differ only in where the
    draws come from.  Before it draws or builds anything, it raises
    BudgetExceededError past `budget` triples and, with the default
    distance, past a `_cell_words` table of `budget` 64-bit units: m^3 words
    of 5hs + 1 bits.  A triple is n indices c_t = u_t m^2 + v_t m + w_t into
    the m^3 residue triples, unzipped into u, v and w.  Chunk by chunk, the
    indices of up to `_METRIC_CHUNK` triples are drawn at once: a sample as
    `random.Random(seed).choices(range(m**3), k)` draws it, index
    floor(random() * m^3) with m^3 a float, by C-level maps over the
    generator's stream, so it streams exactly as one `choices` call per
    triple would; the exhaustive check from every n-tuple of indices in
    lexicographic order, which meets each vector triple once.  Coordinate t
    of a chunk is the column of every n-th index, and each index reads its
    `_cell_words` word.  ORed within each block, block b shifted up by b*h,
    and across blocks, a triple's words hold from bit p*h*s the unary block
    maxima of its p-th difference of u - v, u - u, v - u, u - w and w - v,
    closed by `_close_ideals`, and above those a flag region that is zero
    exactly when u = v.  Each field is closed inside its own bits, so
    d(u, v), d(u, u) and d(v, u) are each the bit count of the word under
    their field's mask, and d(u, w) + d(w, v) one bit count under the union
    of fields 3 and 4; an injected distance's two are added.  Each triple
    checks d(u, u) = 0, d(u, v) = 0 iff u = v, d(u, v) = d(v, u) and
    d(u, v) <= d(u, w) + d(w, v), in that order; the first failure is
    reported with the number of triples checked up to and including it.
    The default distance is built from definitions alone, by the words
    above.  Another one, taking two coordinate tuples, can be injected to
    confirm the check has teeth; its triples are decoded from the drawn
    indices.  A sample count below 1 is a ValueError.
    """
    if samples < 1:
        raise ValueError(f"samples must be at least 1, got {samples}")

    m, n = space.m, space.n
    exhaustive, count = space.size ** 3 <= samples, min(space.size ** 3, samples)
    if count > budget:
        raise BudgetExceededError(f"metric check of {count} triples exceeds budget {budget}")
    if distance_fn is None:
        f = space.height * space.s
        bits = len(_PAIRS) * f + 1
        units = m ** 3 * -(-bits // 64)
        if units > budget:
            raise BudgetExceededError(f"metric check's table of m^3 = {m ** 3} residue-triple "
                                      f"words of {bits} bits, {units} 64-bit units, exceeds "
                                      f"budget {budget}")
        cell = _cell_words(space).__getitem__
        blocks = _block_shifts(space)
        # Fields 0-2 hold d(u, v), d(u, u) and d(v, u); fields 3 and 4 the
        # triangle's right side d(u, w) + d(w, v), read as one.
        masks = [(1 << f) - 1 << p * f for p in range(3)] + [(1 << 2 * f) - 1 << 3 * f]

        # Per triple of a chunk's draws, its four distances and whether u = v.
        def distances(draws):
            folded = list(_fold_blocks(blocks, [map(cell, draws[t::n]) for t in range(n)]))
            words = list(_close_ideals(space, folded))
            return [*(map(int.bit_count, map(and_, words, repeat(mask))) for mask in masks),
                    map(not_, map(rshift, words, repeat(len(_PAIRS) * f)))]
    else:
        def distances(draws):
            uvw = _unzip(draws, m, n)
            duv, duu, dvu, duw, dwv = (map(distance_fn, uvw[a], uvw[b]) for a, b in _PAIRS)
            return [duv, duu, dvu, map(add, duw, dwv), map(eq, uvw[0], uvw[1])]

    # Draws come from a seeded sample, or, for every triple in turn, from
    # all n-tuples of residue triples in lexicographic order.
    if exhaustive:
        every = itertools.chain.from_iterable(itertools.product(range(m ** 3), repeat=n))

        def draw(k):
            return list(itertools.islice(every, k))
    else:
        # `Random.choices`' own rule for an unweighted population of c
        # items: index floor(random() * c), with c a float.
        rng, cells = random.Random(seed), float(m ** 3)

        def draw(k):
            return list(map(math.floor, map(mul, starmap(rng.random, repeat((), k)),
                                            repeat(cells))))
    for start in range(0, count, _METRIC_CHUNK):
        draws = draw(k=n * min(_METRIC_CHUNK, count - start))
        for i, duv, duu, dvu, dtri, same in zip(
            itertools.count(start), *distances(draws)
        ):
            if (duv == 0) != same or duu != 0:
                failed = "identity"
            elif duv != dvu:
                failed = "symmetry"
            elif duv > dtri:
                failed = "triangle"
            else:
                continue
            at = (i - start) * n
            u, v, w = (word[0] for word in _unzip(draws[at:at + n], m, n))
            if failed != "triangle":
                w = None
            return MetricReport(False, exhaustive, i + 1, (failed, u, v, w))
    return MetricReport(True, exhaustive, count)


@dataclass
class CheckOutcome:
    name: str
    status: str  # "pass", "fail" or "skip"
    detail: str = ""


@dataclass
class SuiteReport:
    space: Space
    checks: list[CheckOutcome] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(c.status != "fail" for c in self.checks)

    @property
    def failures(self) -> list[CheckOutcome]:
        return [c for c in self.checks if c.status == "fail"]

    def __bool__(self) -> bool:
        return self.ok


def _ball_sizes(census: CensusReport):
    """I-ball sizes from the census, as a function of the ideal's counts.

    A vector lies in the I-ball iff its generated ideal fits inside I, so
    the I-ball's size is the census's count summed over the ideal keys
    below I's counts.  The counts are laid on the grid [0..h]^s, cell
    sum_b c_b (h+1)^(b-1), and summed along one block at a time (the zeta
    transform of the product order), so each size is one lookup.  The grid
    has (h+1)^s <= m^n cells, within the budget the census accepted.
    """
    base = census.space.height + 1
    scales = [base ** b for b in range(census.space.s)]
    grid = [0] * base ** len(scales)

    def cell(counts):
        return sum(map(mul, counts, scales))

    for counts, n in census.ideal_sphere_counts.items():
        grid[cell(counts)] += n
    for stride in scales:
        for lo in range(stride, len(grid), stride):
            if lo // stride % base:
                grid[lo:lo + stride] = map(add, grid[lo:lo + stride], grid[lo - stride:lo])
    return lambda counts: grid[cell(counts)]


def _outcome(name, failure, passed, skipped=0, what=""):
    """A failure detail fails the check; otherwise any skip marks it skipped.

    `passed` is the detail of a check that passed; a skipped one reads how
    many of `what` went over budget.
    """
    if failure:
        return CheckOutcome(name, "fail", failure)
    if skipped:
        return CheckOutcome(name, "skip", f"{skipped} {what} over budget")
    return CheckOutcome(name, "pass", passed)


def _first_mismatch(space, label, items, closed_form, enumerated):
    """Failure detail at the first item where the two routes disagree."""
    for x in items:
        if closed_form(space, x) != enumerated(x):
            return f"first mismatch at {label}{x}"
    return None


def verify_formula_suite(
    space: Space,
    budget: int = balls.DEFAULT_BUDGET,
    seed: int = 0,
) -> SuiteReport:
    """Certify every closed-form quantity of the space against enumeration.

    The census refuses a space of more than `budget` vectors; every later
    listing lies in the space and is made under the same budget.  The union
    check skips, and reports, a radius whose I-balls sum past `budget`.
    Each I-ball is built at most once, as one bitset, for the union and the
    full-count checks together.  The suite draws nothing; the CLI passes no
    seed, and `seed` stays for callers, such as the benchmark's jobs, that
    pass one.
    """
    census = weight_census(space, budget)
    ideals = all_ideals(space.pomset)
    by_ideal = census.ideal_sphere_counts
    ball_size = _ball_sizes(census)

    total = f"total {census.total}"
    return SuiteReport(space, [
        _outcome(
            "sphere-formula",
            _first_mismatch(space, "ideal ", ideals, balls.I_sphere_cardinality,
                            lambda i: by_ideal.get(i.counts, 0)),
            f"{len(ideals)} ideals",
        ),
        _outcome(
            "ball-formula",
            _first_mismatch(space, "ideal ", ideals, balls.I_ball_cardinality,
                            lambda i: ball_size(i.counts)),
            f"{len(ideals)} ideals",
        ),
        _outcome(
            "rball-formula",
            _first_mismatch(space, "r=", range(space.max_weight + 1),
                            balls.r_ball_cardinality, census.ball_size),
            "all radii",
        ),
        _outcome("sphere-partition", None if census.telescopes() else total, total),
        *_check_ball_listings(space, census, ideals, budget, ball_size),
        _check_partition_tiling(space, ideals, budget),
    ])


def _dual_ball_matches(space, gcds, counts):
    """Whether the annihilator of the product over coordinates of the
    multiples of g, g in `gcds`, is the dual order's ball with `counts`.

    Per coordinate, the annihilator holds the multiples of m / g and the
    ball the residues of Lee weight at most its block's count.  Both sides
    are products of nonempty sets, so comparing the lists is exact; fewer
    than n gcds, as from an empty listing, never match.
    """
    m = space.m
    dual_ball = [
        {x for x in range(m) if min(x, m - x) <= c}
        for c, k in zip(counts, space.labeling)
        for _ in range(k)
    ]
    return [set(range(0, m, m // g)) for g in gcds] == dual_ball


def _bit_projections(space, bits):
    """Per coordinate, the residues of the vectors of the space that a ball
    bitset holds: no sets at all when it holds none, as for an empty listing
    of tuples.  Bits at or above m^n, outside the space, enter none.

    Level t holds bit x*w + j, with w = m^(n-1-t), iff some member has
    coordinate t equal to x and its coordinates after t of base-m value j.
    P_t holds each x whose w-bit chunk is not zero, and halving folds OR
    the m chunks into level t + 1: the top half of the chunks is shifted
    onto the bottom half until one chunk is left.
    """
    m = space.m
    level = bits & ((1 << space.size) - 1)
    if not level:
        return []
    projections = []
    width = space.size
    for _ in range(space.n):
        width //= m
        mask = (1 << width) - 1
        projections.append({x for x in range(m) if level >> x * width & mask})
        chunks = m
        while chunks > 1:
            low = chunks - chunks // 2
            level = level & ((1 << low * width) - 1) | level >> low * width
            chunks = low
    return projections


def _check_ball_listings(space, census, ideals, budget, ball_size):
    """The rball-union, submodule and duality outcomes, building each I-ball once.

    Each I-ball is one bitset from `balls.I_ball_bits`, bit j for the vector
    of big-endian base-m value j.  Radius by radius, the bitsets of the
    ideals of that cardinality are ORed into one union, whose bit count must
    be the census's r-ball size.  A radius whose balls, sized by the census
    through `ball_size`, sum past `budget` is skipped, and no radius past
    the first mismatch is built into a union.
    Each bitset is built under `budget`, which no I-ball of a space the
    census accepted exceeds, and holds at most m^n <= `budget` bits.

    A full-count I-ball is built even then: it is every vector supported on
    the root blocks of I.  Its bitset, with projections P_t from
    `_bit_projections` and g_t = gcd(m, P_t), is that submodule iff it has
    m^(root dims) members, none at or above bit m^n, as many as the product
    of the P_t, and each P_t is the subgroup of multiples of g_t; it then is
    the product.  The product's annihilator holds, coordinate by coordinate,
    the a with g_t * a = 0 mod m, the multiples of m / g_t;
    `_dual_ball_matches` compares it per coordinate with the dual order's
    ball of the complement, so nothing scans the space.  A full-count
    bitset joins its radius's union rather than being built again.  Each
    check reports its first failure at the least index in `ideals`.
    """
    m = space.m
    layers = [[] for _ in range(space.max_weight + 1)]
    for index, i in enumerate(ideals):
        layers[i.cardinality].append((index, i))
    mismatch = None
    skipped = 0
    # Each check's failure details by index in `ideals`.
    closure, duality = {}, {}
    for r, layer in enumerate(layers):
        listed = mismatch is None
        if listed and sum(ball_size(i.counts) for _, i in layer) > budget:
            skipped += 1
            listed = False
        union = 0
        for index, i in layer:
            if not i.is_full_count:
                if listed:
                    union |= balls.I_ball_bits(space, i, budget)
                continue
            bits = balls.I_ball_bits(space, i, budget)
            projections = _bit_projections(space, bits)
            gcds = [math.gcd(m, *p) for p in projections]
            if i.cardinality:
                expected = m ** sum(space.labeling[t - 1] for t in i.root_set)
                size = bits.bit_count()
                if size != expected:
                    closure[index] = f"ideal {i}: size"
                elif (
                    bits >> space.size
                    or size != math.prod(map(len, projections))
                    or any(p != set(range(0, m, g)) for p, g in zip(projections, gcds))
                ):
                    closure[index] = f"ideal {i}: closure"
            if not _dual_ball_matches(
                space, gcds, ideal_complement(space.pomset, i).counts
            ):
                duality[index] = f"mismatch at ideal {i}"
            if listed:
                union |= bits
        if listed and union.bit_count() != census.ball_size(r):
            mismatch = f"mismatch at r={r}"
    return (
        _outcome("rball-union", mismatch, "all radii", skipped, "radii"),
        _outcome("full-ball-submodule", closure.get(min(closure, default=None)),
                 "all full-count ideals"),
        _outcome("ball-duality", duality.get(min(duality, default=None)),
                 "all full-count ideals"),
    )


def _tiles(m, centers, box):
    """Whether the translates c + B of the product ball B tile Z_m^n.

    B is the product of the per-coordinate residue lists in `box`.  A center
    listing without repeats, as large as the product of its projections P_t,
    is that product, and then (c, b) -> c + b is a bijection onto Z_m^n
    exactly when each (a, b) -> a + b mod m is one from P_t x B_t onto Z_m
    (Szabo & Sands, Factoring Groups into Subsets, 2009).  A listing that
    tiles without being a product is rejected: `partition_centers` lists a
    product, so nothing else needs certifying.  Centers must be reduced.

    Sorted, a product listing is the lexicographic product of the sorted
    P_t, so coordinate t of every k-th center, k the product of the later
    lists' lengths, cycles through P_t.  Each list is read off that way,
    from the last coordinate, as the strictly increasing run it starts
    with; the listing is then that product iff it is as long and equal to
    it center by center, compared lazily.  That holds exactly when the
    listing has no repeats and its set is the product of its projections.
    Each distinct pair of a list and its residues is checked once.  An
    empty listing tiles nothing.
    """
    listing = sorted(centers)
    if not listing:
        return False
    lists = []
    stride = 1
    for t in reversed(range(len(box))):
        rising = []
        for x in map(itemgetter(t), itertools.islice(listing, 0, None, stride)):
            if rising and x <= rising[-1]:
                break
            rising.append(x)
        lists.append(tuple(rising))
        stride *= len(rising)
    lists.reverse()
    residues = range(m)
    return (
        len(listing) == math.prod(map(len, lists))
        and all(
            set(p).issubset(residues)
            and sorted((a + b) % m for a in p for b in rs) == list(residues)
            for p, rs in set(zip(lists, map(tuple, box)))
        )
        and all(map(eq, listing, itertools.product(*lists)))
    )


def _check_partition_tiling(space, ideals, budget):
    m = space.m
    bad = None
    for i in ideals:
        if i.cardinality == 0:
            continue
        divisible = all(
            m % (2 * c + 1) == 0
            for c in i.counts
            if 0 < c < space.height
        )
        try:
            centers = balls.partition_centers(space, i, budget)
        except PartitionImpossibleError:
            if divisible:
                bad = f"ideal {i}: divisibility error raised"
                break
            continue
        if not divisible:
            bad = f"ideal {i}: divisibility error not raised"
            break
        # A free block takes every residue, a partial one every (2c+1)-th
        # and a full one only 0.
        expected = math.prod(
            (m if c == 0 else m // (2 * c + 1) if c < space.height else 1) ** k
            for c, k in zip(i.counts, space.labeling)
        )
        if len(centers) != expected:
            bad = f"ideal {i}: center count {len(centers)} != {expected}"
            break
        if not _tiles(m, centers, balls._ball_box(space, i, budget)):
            bad = f"ideal {i}: translates do not tile"
            break
    return _outcome("partition-tiling", bad, "all ideals")
