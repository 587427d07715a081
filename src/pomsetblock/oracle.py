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
from .pomset import all_ideals, dual_pomset, enumerate_ideals, ideal_complement
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


def verify_formula_suite(
    space: Space,
    budget: int = DEFAULT_SCAN_BUDGET,
    pair_budget: int = DEFAULT_PAIR_BUDGET,
    seed: int = 0,
) -> SuiteReport:
    """Certify every closed-form quantity of the space against enumeration.

    Over-budget sub-checks are reported as skipped, never silently dropped.
    The suite is deterministic: `seed` is accepted for callers that pass
    one but draws nothing.
    """
    report = SuiteReport(space)
    checks = report.checks
    census = weight_census(space, budget)
    ideals = all_ideals(space.pomset)

    bad = [
        i
        for i in ideals
        if balls.I_sphere_cardinality(space, i)
        != census.ideal_sphere_counts.get(i.counts, 0)
    ]
    checks.append(
        CheckOutcome(
            "sphere-formula",
            "fail" if bad else "pass",
            f"first mismatch at ideal {bad[0]}" if bad else f"{len(ideals)} ideals",
        )
    )

    # A vector lies in the I-ball iff its generated ideal fits inside I,
    # so ball sizes follow from the census by summing nested ideal keys.
    bad = []
    for i in ideals:
        enumerated = sum(
            count
            for key, count in census.ideal_sphere_counts.items()
            if _submset(key, i.counts)
        )
        if balls.I_ball_cardinality(space, i) != enumerated:
            bad.append(i)
    checks.append(
        CheckOutcome(
            "ball-formula",
            "fail" if bad else "pass",
            f"first mismatch at ideal {bad[0]}" if bad else f"{len(ideals)} ideals",
        )
    )

    bad_r = [
        r
        for r in range(space.max_weight + 1)
        if balls.r_ball_cardinality(space, r) != census.ball_size(r)
    ]
    checks.append(
        CheckOutcome(
            "rball-formula",
            "fail" if bad_r else "pass",
            f"first mismatch at r={bad_r[0]}" if bad_r else "all radii",
        )
    )

    checks.append(
        CheckOutcome(
            "sphere-partition",
            "pass" if census.telescopes() else "fail",
            f"total {census.total}",
        )
    )

    _check_rball_union(space, census, pair_budget, checks)
    _check_full_count_balls(space, ideals, checks)
    _check_ball_duality(space, ideals, pair_budget, checks)
    _check_partition_tiling(space, ideals, budget, checks)
    return report


def _check_rball_union(space, census, pair_budget, checks):
    skipped = 0
    bad = None
    for r in range(space.max_weight + 1):
        layer = enumerate_ideals(space.pomset, r)
        cost = sum(balls.I_ball_cardinality(space, i) for i in layer)
        if cost > pair_budget:
            skipped += 1
            continue
        union = set()
        for i in layer:
            union.update(balls.iter_I_ball_coords(space, i))
        if len(union) != census.ball_size(r):
            bad = r
            break
    status = "fail" if bad is not None else ("skip" if skipped else "pass")
    detail = (
        f"mismatch at r={bad}"
        if bad is not None
        else (f"{skipped} radii over budget" if skipped else "all radii")
    )
    checks.append(CheckOutcome("rball-union", status, detail))


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


def _check_full_count_balls(space, ideals, checks):
    # A finite subset of Z_m^n is a submodule iff it equals its span.
    m = space.m
    bad = None
    for i in ideals:
        if not i.is_full_count or i.cardinality == 0:
            continue
        members = set(balls.iter_I_ball_coords(space, i))
        expected = m ** sum(space.labeling[t - 1] for t in i.root_set)
        if len(members) != expected:
            bad = (i, "size")
            break
        if _generated(members, m)[1] != members:
            bad = (i, "closure")
            break
    checks.append(
        CheckOutcome(
            "full-ball-submodule",
            "fail" if bad else "pass",
            f"ideal {bad[0]}: {bad[1]}" if bad else "all full-count ideals",
        )
    )


def _check_ball_duality(space, ideals, pair_budget, checks):
    # Ann(B) = Ann(<B>) by bilinearity, so a scan against generators suffices.
    dual_space = Space(space.m, dual_pomset(space.pomset), space.labeling)
    m = space.m
    skipped = 0
    bad = None
    for i in ideals:
        if not i.is_full_count:
            continue
        size = balls.I_ball_cardinality(space, i)
        if size * space.size > pair_budget:
            skipped += 1
            continue
        gens = _generated(balls.iter_I_ball_coords(space, i), m)[0]
        annihilator = {
            coords
            for coords in space.iter_coords()
            if all(sum(x * y for x, y in zip(coords, b)) % m == 0 for b in gens)
        }
        comp = ideal_complement(space.pomset, i)
        dual_ball = set(balls.iter_I_ball_coords(dual_space, comp))
        if annihilator != dual_ball:
            bad = i
            break
    status = "fail" if bad is not None else ("skip" if skipped else "pass")
    detail = (
        f"mismatch at ideal {bad}"
        if bad is not None
        else (f"{skipped} ideals over budget" if skipped else "all full-count ideals")
    )
    checks.append(CheckOutcome("ball-duality", status, detail))


def _check_partition_tiling(space, ideals, budget, checks):
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
        if not divisible:
            try:
                balls.partition_centers(space, i, budget)
            except PartitionImpossibleError:
                continue
            bad = (i, "divisibility error not raised")
            break
        centers = balls.partition_centers(space, i, budget)
        expected = 1
        for t, c in enumerate(i.counts, start=1):
            k = space.labeling[t - 1]
            if c == 0:
                expected *= m ** k
            elif c < space.height:
                expected *= (m // (2 * c + 1)) ** k
        if len(centers) != expected:
            bad = (i, f"center count {len(centers)} != {expected}")
            break
        ball = balls.iter_I_ball_coords(space, i, budget)
        if translate_census(space, centers, ball, cover=True):
            bad = (i, "translates do not tile")
            break
    checks.append(
        CheckOutcome(
            "partition-tiling",
            "fail" if bad else "pass",
            f"ideal {bad[0]}: {bad[1]}" if bad else "all ideals",
        )
    )
