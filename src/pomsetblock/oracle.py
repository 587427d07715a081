"""Independent brute-force certification of the closed forms.

Everything in this module is computed from definitions alone: Lee weights,
block supports, generated ideals, and raw coordinate scans.  The closed
forms being certified (ball and sphere cardinalities, tiling centers) are
only ever invoked on the comparison side of a check, so agreement between
the two routes is meaningful evidence rather than a tautology.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from . import balls
from .balls import BudgetExceededError, PartitionImpossibleError
from .pomset import all_ideals, dual_pomset, ideal_complement
from .space import Space, translate_census

DEFAULT_SCAN_BUDGET = 10 ** 7
DEFAULT_PAIR_BUDGET = 10 ** 6
DEFAULT_TRIPLE_BUDGET = 10 ** 5
DEFAULT_SAMPLES = 10 ** 5


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


def weight_census(space: Space, budget: int = DEFAULT_SCAN_BUDGET) -> CensusReport:
    """Scan every vector, recording its weight and its generated ideal."""
    if space.size > budget:
        raise BudgetExceededError(
            f"space of size {space.size} exceeds budget {budget}"
        )
    sphere_counts: dict[int, int] = {}
    ideal_counts: dict[tuple[int, ...], int] = {}
    for coords in space.iter_coords():
        key = space.weight_counts(coords)
        w = sum(key)
        if w:
            sphere_counts[w] = sphere_counts.get(w, 0) + 1
        ideal_counts[key] = ideal_counts.get(key, 0) + 1
    return CensusReport(space, sphere_counts, ideal_counts, space.size)


@dataclass
class MetricReport:
    passed: bool
    exhaustive: bool
    triples_checked: int
    counterexample: tuple | None = None

    def __bool__(self) -> bool:
        return self.passed


def verify_metric(
    space: Space,
    triple_budget: int = DEFAULT_TRIPLE_BUDGET,
    seed: int = 0,
    samples: int = DEFAULT_SAMPLES,
    distance_fn=None,
) -> MetricReport:
    """Check identity, symmetry and the triangle inequality.

    Exhaustive over all triples when (m^n)^3 fits the budget, otherwise a
    seeded uniform sample of `samples` triples.  An alternative distance
    can be injected to confirm the check has teeth.
    """
    m = space.m
    if distance_fn is None:
        def distance_fn(a, b):
            return space.coords_weight(tuple((x - y) % m for x, y in zip(a, b)))

    size = space.size
    if size ** 3 <= triple_budget:
        points = list(space.iter_coords())
        dist = {}
        for u in points:
            for v in points:
                dist[u, v] = distance_fn(u, v)
        for u in points:
            for v in points:
                duv = dist[u, v]
                if (duv == 0) != (u == v):
                    return MetricReport(False, True, size ** 3, ("identity", u, v, None))
                if duv != dist[v, u]:
                    return MetricReport(False, True, size ** 3, ("symmetry", u, v, None))
        for u in points:
            for v in points:
                duv = dist[u, v]
                for w in points:
                    if duv > dist[u, w] + dist[w, v]:
                        return MetricReport(False, True, size ** 3, ("triangle", u, v, w))
        return MetricReport(True, True, size ** 3)

    rng = random.Random(seed)
    n = space.n
    for i in range(samples):
        u = tuple(rng.randrange(m) for _ in range(n))
        v = tuple(rng.randrange(m) for _ in range(n))
        w = tuple(rng.randrange(m) for _ in range(n))
        duv = distance_fn(u, v)
        if (duv == 0) != (u == v) or distance_fn(u, u) != 0:
            return MetricReport(False, False, i + 1, ("identity", u, v, None))
        if duv != distance_fn(v, u):
            return MetricReport(False, False, i + 1, ("symmetry", u, v, None))
        if duv > distance_fn(u, w) + distance_fn(w, v):
            return MetricReport(False, False, i + 1, ("triangle", u, v, w))
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


def _submset(a: tuple[int, ...], b: tuple[int, ...]) -> bool:
    return all(x <= y for x, y in zip(a, b))


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
    budget: int = DEFAULT_SCAN_BUDGET,
    seed: int = 0,
) -> SuiteReport:
    """Certify every closed-form quantity of the space against enumeration.

    Over-budget sub-checks are reported as skipped, never silently dropped;
    the union and duality checks skip beyond `DEFAULT_PAIR_BUDGET`.  The
    suite is deterministic: `seed` is accepted for callers that pass one
    but draws nothing.
    """
    census = weight_census(space, budget)
    ideals = all_ideals(space.pomset)
    by_ideal = census.ideal_sphere_counts

    def ball_size(i):
        # A vector lies in the I-ball iff its generated ideal fits inside I,
        # so ball sizes follow from the census by summing nested ideal keys.
        return sum(n for key, n in by_ideal.items() if _submset(key, i.counts))

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
                            ball_size),
            f"{len(ideals)} ideals",
        ),
        _outcome(
            "rball-formula",
            _first_mismatch(space, "r=", range(space.max_weight + 1),
                            balls.r_ball_cardinality, census.ball_size),
            "all radii",
        ),
        _outcome("sphere-partition", None if census.telescopes() else total, total),
        _check_rball_union(space, census, ideals),
        *_check_full_count_balls(space, ideals),
        _check_partition_tiling(space, ideals, budget),
    ])


def _check_rball_union(space, census, ideals):
    skipped = 0
    for r in range(space.max_weight + 1):
        layer = [i for i in ideals if i.cardinality == r]
        size = sum(balls.I_ball_cardinality(space, i) for i in layer)
        if size > DEFAULT_PAIR_BUDGET:
            skipped += 1
            continue
        union = set()
        for i in layer:
            union.update(balls.iter_I_ball_coords(space, i))
        if len(union) != census.ball_size(r):
            return _outcome("rball-union", f"mismatch at r={r}", "")
    return _outcome("rball-union", None, "all radii", skipped, "radii")


def _generated(members, m):
    """Generators and additive span of non-empty members of Z_m^n.

    The members are walked in order; each one outside the span so far
    becomes a generator b, and the span H grows by the cosets H+b, H+2b,
    ... until a multiple of b falls back into H.  Every element of the
    span is produced by exactly one vector addition mod m, and the
    generators span the same subgroup as the members.
    """
    gens = []
    span = set()
    for b in members:
        if not span:
            span.add((0,) * len(b))
        if b in span:
            continue
        gens.append(b)
        cosets = []
        shift = b
        while shift not in span:
            cosets.extend(
                tuple((x + y) % m for x, y in zip(h, shift)) for h in span
            )
            shift = tuple((x + y) % m for x, y in zip(shift, b))
        span.update(cosets)
    return gens, span


def _ball_span(space, i):
    """Generators of the I-ball's span, the ball's size and the span's size.

    The ball is listed once, in lexicographic order, which yields fewer
    generators than set order does.  Only the counts and the generators
    outlive the call, so no listing meets the previous ball's sets.
    """
    members = list(balls.iter_I_ball_coords(space, i))
    size = len(set(members))
    gens, span = _generated(members, space.m)
    return gens, size, len(span)


def _check_full_count_balls(space, ideals):
    """The submodule and duality outcomes, from one span per full-count ball.

    A finite subset of Z_m^n is a submodule iff it equals its span, and the
    span holds the members, so equal sizes decide it.  Ann(B) = Ann(<B>) by
    bilinearity, so the duality scan tests the space against the span's
    generators alone; it is skipped where |ball| * m^n exceeds the budget.
    """
    m = space.m
    dual_space = Space(m, dual_pomset(space.pomset), space.labeling)
    closure = duality = None
    skipped = 0
    for i in ideals:
        if not i.is_full_count or (closure and duality):
            continue
        gens, size, spanned = _ball_span(space, i)
        if i.cardinality and not closure:
            expected = m ** sum(space.labeling[t - 1] for t in i.root_set)
            if size != expected:
                closure = f"ideal {i}: size"
            elif spanned != size:
                closure = f"ideal {i}: closure"
        if duality:
            continue
        if size * space.size > DEFAULT_PAIR_BUDGET:
            skipped += 1
            continue
        # Neither set outlives the comparison: the empty ideal's annihilator
        # is the whole space.
        comp = ideal_complement(space.pomset, i)
        if set(balls.iter_I_ball_coords(dual_space, comp)) != {
            coords
            for coords in space.iter_coords()
            if all(sum(x * y for x, y in zip(coords, b)) % m == 0 for b in gens)
        }:
            duality = f"mismatch at ideal {i}"
    return (
        _outcome("full-ball-submodule", closure, "all full-count ideals"),
        _outcome("ball-duality", duality, "all full-count ideals", skipped, "ideals"),
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
        expected = 1
        for t, c in enumerate(i.counts, start=1):
            k = space.labeling[t - 1]
            if c == 0:
                expected *= m ** k
            elif c < space.height:
                expected *= (m // (2 * c + 1)) ** k
        if len(centers) != expected:
            bad = f"ideal {i}: center count {len(centers)} != {expected}"
            break
        box = balls._ball_box(space, i, budget)
        if translate_census(space, centers, [box], cover=True):
            bad = f"ideal {i}: translates do not tile"
            break
    return _outcome("partition-tiling", bad, "all ideals")
