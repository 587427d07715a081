"""Independent brute-force certification of the closed forms.

Everything in this module is computed from definitions alone: Lee weights,
block supports, generated ideals, and raw coordinate scans.  The closed
forms being certified (ball and sphere cardinalities, tiling centers) are
only ever invoked on the comparison side of a check, so agreement between
the two routes is meaningful evidence rather than a tautology.

The census visits no vector: per block, each residue tuple is weighed once,
in lexicographic order, and since block weights are independent from block
to block, the vectors of each block-weight tuple number the product of the
per-block tallies of its weights.  Each I-ball is built at most once per
suite, as one bitset whose bit j stands for the vector of big-endian base-m
value j: radius by radius, the bitsets of the I-balls of that cardinality
are ORed into the union whose bit count is checked against the census's
r-ball, and a full-count ball's bitset also gives its coordinate
projections, by folding it onto each coordinate.  Those decide whether it is
a product of subgroups of Z_m, and that product's annihilator is compared,
coordinate by coordinate, with the dual order's ball of the complement.  The
tiling check is per coordinate too: centers listed as a product tile with a
product ball exactly when each coordinate's projection and residue list
tile Z_m, so it lists no translate.  I-ball sizes are the census's ideal
counts summed over nested ideal keys, by prefix sums over the grid of
counts.  The suite has one budget: what it lists lies in the space, which
the census refuses past that budget, so no bitset exceeds it in bits.

The sampled metric check works by columns: a chunk of triples is one draw
of indices into the m^3 residue triples, coordinate t is every n-th index,
and Lee weights and equality are read per index from tables.  Each
difference's block maxima pack into one integer key, and the weight is
looked up once per key in one memo.
"""

from __future__ import annotations

import itertools
import math
import random
from collections import Counter
from dataclasses import dataclass, field
from operator import add, eq, itemgetter, mul

from . import balls
from .balls import BudgetExceededError, PartitionImpossibleError
from .pomset import all_ideals, ideal_complement
from .space import Space

DEFAULT_TRIPLE_BUDGET = 10 ** 5
DEFAULT_SAMPLES = 10 ** 5
# Block-weight keys the metric kernel remembers; beyond them it recomputes,
# so a wide space's memo stays a few MB.
METRIC_MEMO_LIMIT = 1 << 13
# Sampled triples drawn, weighed and checked together, so a chunk's columns
# hold at most n times this many entries.
_METRIC_CHUNK = 1 << 10
# The five distances a sampled triple (u, v, w) checks, as positions in it:
# d(u, v), d(u, u), d(v, u), d(u, w) and d(w, v).
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
    min(x, m - x).  Each block-weight tuple's generated ideal is taken once,
    so no vector is visited.  Per block the tuples are listed in
    lexicographic order and their weights tallied in the order first met;
    the product over blocks meets the block-weight tuples in the order of
    their first vector (Knuth, TAOCP 4A 7.2.1.1), so both dicts are filled
    in the order a vector-by-vector scan would fill them.  A space of more
    than `budget` vectors is refused.
    """
    if space.size > budget:
        raise BudgetExceededError(
            f"space of size {space.size} exceeds budget {budget}"
        )
    m = space.m
    lee = [min(x, m - x) for x in range(m)].__getitem__
    tallies = [
        Counter(max(map(lee, x)) for x in itertools.product(range(m), repeat=k))
        for k in space.labeling
    ]
    sphere_counts: dict[int, int] = {}
    ideal_counts: dict[tuple[int, ...], int] = {}
    for bw, counts in zip(
        itertools.product(*tallies),
        itertools.product(*(t.values() for t in tallies)),
    ):
        count = math.prod(counts)
        key = space.pomset.closure_counts(bw)
        w = sum(key)
        if w:
            sphere_counts[w] = sphere_counts.get(w, 0) + count
        ideal_counts[key] = ideal_counts.get(key, 0) + count
    return CensusReport(space, sphere_counts, ideal_counts, space.size)


@dataclass
class MetricReport:
    passed: bool
    exhaustive: bool
    triples_checked: int
    counterexample: tuple | None = None

    def __bool__(self) -> bool:
        return self.passed


class _Weights(dict):
    """Pomset block weights by packed block-weight key, weighed on a miss.

    A key packs the block weights (w_1, ..., w_s) as the sum of
    w_b (h+1)^(b-1); a key not held is unpacked and weighed as the size of
    the ideal its block weights generate.  The first `METRIC_MEMO_LIMIT`
    keys met are kept.
    """

    def __init__(self, space: Space):
        super().__init__()
        self.base = space.height + 1
        self.s = space.s
        self.closure = space.pomset.closure_counts

    def __missing__(self, key):
        bw = []
        rest = key
        for _ in range(self.s):
            rest, w = divmod(rest, self.base)
            bw.append(w)
        weight = sum(self.closure(tuple(bw)))
        if len(self) < METRIC_MEMO_LIMIT:
            self[key] = weight
        return weight


def _fold(f, columns):
    """`f` across the columns, position by position; one column is itself."""
    return columns[0] if len(columns) == 1 else map(f, *columns)


def _metric_kernel(space: Space):
    """The pomset block weight of differences given by columns.

    The returned function takes n columns, column t holding the Lee weights
    of coordinate t of the differences, and maps them to the differences'
    weights.  Each block takes the maximum over its columns, the block
    maxima pack into one integer key per difference, and each key is
    weighed through one `_Weights` memo for the whole space.
    """
    weigh = _Weights(space).__getitem__
    base = space.height + 1
    blocks = [(lo, hi, base ** b) for b, (lo, hi) in enumerate(space.block_bounds)]

    def weights(columns):
        keys = None
        for lo, hi, scale in blocks:
            top = _fold(max, columns[lo:hi])
            if keys is None:
                keys = top
            else:
                keys = map(add, keys, map(mul, top, itertools.repeat(scale)))
        return map(weigh, keys)

    return weights


def metric_triples(space: Space, triple_budget: int = DEFAULT_TRIPLE_BUDGET,
                   samples: int = DEFAULT_SAMPLES) -> tuple[bool, int]:
    """Whether `verify_metric` checks all (m^n)^3 triples, as it does when they
    fit `triple_budget`, and how many a passing check visits."""
    cube = space.size ** 3
    return (True, cube) if cube <= triple_budget else (False, samples)


def verify_metric(
    space: Space,
    triple_budget: int = DEFAULT_TRIPLE_BUDGET,
    seed: int = 0,
    samples: int = DEFAULT_SAMPLES,
    distance_fn=None,
) -> MetricReport:
    """Check identity, symmetry and the triangle inequality.

    Exhaustive over all triples when `metric_triples` says they fit the
    budget, otherwise a seeded uniform sample.  A triple is n draws from
    the m^3 residue triples (u_t, v_t, w_t), unzipped into u, v and w; the
    draws of up to `_METRIC_CHUNK` triples are made in one call, as indices
    into those residue triples, and stream exactly as one call per triple
    would.  Coordinate t of a chunk is the column of every n-th index, and
    the Lee weight of each coordinate of u - v, u - u, v - u, u - w and
    w - v, and whether u_t = v_t, are read per index from tables.  A sampled
    triple checks d(u, u) = 0, d(u, v) = 0 iff u = v, d(u, v) = d(v, u) and
    d(u, v) <= d(u, w) + d(w, v), in that order, and the first failure is
    reported.
    The default distance is `_metric_kernel`, built from definitions alone;
    another one, taking two coordinate tuples, can be injected to confirm
    the check has teeth.  A sample count below 1 is a ValueError.
    """
    if samples < 1:
        raise ValueError(f"samples must be at least 1, got {samples}")

    m, n = space.m, space.n
    lee = [[min((x - y) % m, (y - x) % m) for y in range(m)] for x in range(m)]
    exhaustive, count = metric_triples(space, triple_budget, samples)
    if exhaustive:
        points = list(space.iter_coords())
        pairs = list(itertools.product(points, repeat=2))
        if distance_fn is None:
            found = _metric_kernel(space)(
                [[lee[u[t]][v[t]] for u, v in pairs] for t in range(n)]
            )
        else:
            found = itertools.starmap(distance_fn, pairs)
        dist = dict(zip(pairs, found))
        for u in points:
            for v in points:
                duv = dist[u, v]
                if (duv == 0) != (u == v):
                    return MetricReport(False, True, count, ("identity", u, v, None))
                if duv != dist[v, u]:
                    return MetricReport(False, True, count, ("symmetry", u, v, None))
        for u in points:
            for v in points:
                duv = dist[u, v]
                for w in points:
                    if duv > dist[u, w] + dist[w, v]:
                        return MetricReport(False, True, count, ("triangle", u, v, w))
        return MetricReport(True, True, count)

    triples = list(itertools.product(range(m), repeat=3))
    parts = [list(map(itemgetter(k), triples)) for k in range(3)]
    equal = list(map(eq, parts[0], parts[1])).__getitem__
    if distance_fn is None:
        weights = _metric_kernel(space)
        lookups = [
            list(map(list.__getitem__, map(lee.__getitem__, parts[a]), parts[b])).__getitem__
            for a, b in _PAIRS
        ]

        def distances(columns):
            return [weights([map(at, c) for c in columns]) for at in lookups]
    else:
        residues = [part.__getitem__ for part in parts]

        def distances(columns):
            words = [list(zip(*[map(at, c) for c in columns])) for at in residues]
            return [map(distance_fn, words[a], words[b]) for a, b in _PAIRS]

    cells = range(m ** 3)
    choices = random.Random(seed).choices
    for start in range(0, samples, _METRIC_CHUNK):
        draws = choices(cells, k=n * min(_METRIC_CHUNK, samples - start))
        columns = [draws[t::n] for t in range(n)]
        equal_words = _fold(min, [map(equal, c) for c in columns])
        for i, duv, duu, dvu, duw, dwv, same in zip(
            itertools.count(start), *distances(columns), equal_words
        ):
            if (duv == 0) != same or duu != 0:
                failed = "identity"
            elif duv != dvu:
                failed = "symmetry"
            elif duv > duw + dwv:
                failed = "triangle"
            else:
                continue
            at = (i - start) * n
            u, v, w = zip(*map(triples.__getitem__, draws[at:at + n]))
            if failed != "triangle":
                w = None
            return MetricReport(False, False, i + 1, (failed, u, v, w))
    return MetricReport(True, False, samples)


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
        *_check_ball_listings(space, census, ideals, budget),
        _check_partition_tiling(space, ideals, budget),
    ])


def _projections(listing):
    """Per coordinate, a listing's residues: none for an empty listing, as
    `zip(*listing)` gives, but without a tuple as long as the listing."""
    width = min(map(len, listing), default=0)
    return [set(map(itemgetter(t), listing)) for t in range(width)]


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
    bitset holds: none when it holds none, as `_projections` gives for an
    empty listing.  Bits at or above m^n, outside the space, enter none.

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


def _check_ball_listings(space, census, ideals, budget):
    """The rball-union, submodule and duality outcomes, building each I-ball once.

    Each I-ball is one bitset from `balls.I_ball_bits`, bit j for the vector
    of big-endian base-m value j.  Radius by radius, the bitsets of the
    ideals of that cardinality are ORed into one union, whose bit count must
    be the census's r-ball size.  A radius whose balls sum past `budget` is
    skipped, and no radius past the first mismatch is built into a union.
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
        if listed and sum(
            balls.I_ball_cardinality(space, i) for _, i in layer
        ) > budget:
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
    """
    residues = range(m)
    projections = _projections(centers)
    return (
        len(set(centers)) == len(centers) == math.prod(map(len, projections))
        and all(
            p.issubset(residues)
            and sorted((a + b) % m for a in p for b in rs) == list(residues)
            for p, rs in zip(projections, box)
        )
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
