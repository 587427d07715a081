"""Balls and spheres of the block metric: membership, closed-form sizes,
explicit enumeration, and tiling translates.

Closed forms here are certified against exhaustive enumeration by the
`oracle` module; enumeration order is always lexicographic on coordinates.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator

from .mset import Mset, ShapeError, check_shape
from .pomset import Ideal, enumerate_ideals
from .space import Space, Vector, _check_radius, _check_space

DEFAULT_BUDGET = 10 ** 7


class BudgetExceededError(RuntimeError):
    """An enumeration would exceed the configured budget."""


class PartitionImpossibleError(ValueError):
    """No set of ball translates can tile the space for this ideal.

    Raised when some partially counted element c has 2c+1 not dividing m.
    """

    def __init__(self, element: int, count: int, m: int):
        self.element = element
        self.count = count
        super().__init__(
            f"2*{count}+1 = {2 * count + 1} does not divide m = {m} "
            f"(element {element})"
        )


def lee_ball_size(m: int, a: int) -> int:
    """Number of residues mod m with Lee weight at most a (a >= 0)."""
    return min(2 * a + 1, m)


@functools.cache
def lee_ball_residues(m: int, a: int) -> tuple[int, ...]:
    """Residues mod m with Lee weight at most a, ascending; one tuple per (m, a)."""
    return tuple(x for x in range(m) if min(x, m - x) <= a)


def _counts_of(space: Space, i) -> tuple[int, ...]:
    """Accept an Ideal of the space's order or a plain Mset of its shape."""
    if isinstance(i, Ideal):
        return _require_ideal(space, i).counts
    if not isinstance(i, Mset):
        raise TypeError(f"expected Ideal or Mset, got {type(i).__name__}")
    check_shape(i, space.pomset)
    return i.counts


def in_I_ball(v: Vector, u: Vector, i) -> bool:
    """True iff the block support of u - v fits inside i (Ideal or Mset)."""
    _check_space(v, u)
    counts = _counts_of(v.space, i)
    bw = v.space.block_weights(tuple((a - b) % v.space.m
                                     for a, b in zip(u.coords, v.coords)))
    return all(w <= c for w, c in zip(bw, counts))


def _require_ideal(space: Space, i: Ideal) -> Ideal:
    if not isinstance(i, Ideal):
        raise TypeError(f"expected Ideal, got {type(i).__name__}")
    if i.pomset is not space.pomset and i.pomset != space.pomset:
        raise ShapeError("ideal does not belong to the space's order")
    return i


def I_ball_cardinality(space: Space, i: Ideal) -> int:
    """Closed-form size of an I-ball: the product of min(2c+1, m)^k over blocks.

    Each factor is a lookup in `space._ball_table`, whose row for a block of
    dimension k holds min(2c+1, m)^k at column c: 1 outside the root set,
    (2c+1)^k on a partial block and m^k on a full one.
    """
    _require_ideal(space, i)
    return math.prod(map(operator.getitem, space._ball_table, i.counts))


def I_sphere_cardinality(space: Space, i: Ideal) -> int:
    """Number of vectors whose support generates exactly this ideal.

    Maximal blocks must weigh exactly their count c, giving the shell
    row[c] - row[c-1] = min(2c+1, m)^k - min(2c-1, m)^k choices, with `row`
    the block's row of `space._ball_table`; every other block contributes
    row[c]: m^k on a root block with a present block above it, 1 outside
    the root set.  A block with 0 < c < height has nothing present above
    it, since everything below a present block is full, so it is maximal;
    only full blocks look above them.  The empty ideal's sphere is the zero
    vector alone (size 1).
    """
    _require_ideal(space, i)
    counts = i.counts
    l = i.height
    above = space.pomset.strictly_above
    table = space._ball_table
    size = 1
    for t, c in enumerate(counts, start=1):
        if c:
            row = table[t - 1]
            if c == l:
                for u in above[t]:
                    if counts[u - 1]:
                        size *= row[c]
                        break
                else:
                    size *= row[c] - row[c - 1]
            else:
                size *= row[c] - row[c - 1]
    return size


def r_ball_cardinality(space: Space, r: int) -> int:
    """Size of a radius-r ball: one plus all sphere sizes at cardinalities <= r.

    The sizes are prefix sums kept on the space: each call adds the spheres
    of only the cardinalities no earlier call reached, so a sweep over every
    radius sums each sphere once and a repeated radius is a lookup.
    """
    _check_radius(space, r)
    levels = space._rball_levels
    while len(levels) <= r:
        levels.append(levels[-1] + sum(
            I_sphere_cardinality(space, i)
            for i in enumerate_ideals(space.pomset, len(levels))
        ))
    return levels[r]


def _ball_block_choices(space: Space, counts: tuple[int, ...], center=None):
    """Per-coordinate residue lists of an I-ball, each ascending.

    Every coordinate of a block with count c takes the residues of Lee
    weight at most c; about a center they are shifted by its coordinates.
    The product of the lists is the ball in lexicographic order.
    """
    choices = []
    for c, k in zip(counts, space.labeling):
        choices.extend([lee_ball_residues(space.m, c)] * k)
    if center is None:
        return choices
    m = space.m
    return [sorted((a + r) % m for r in rs) for a, rs in zip(center, choices)]


def _ball_box(space: Space, i: Ideal, budget: int, center=None):
    """The I-ball's residue lists about a center (zero if None), within the budget."""
    size = I_ball_cardinality(space, i)
    if size > budget:
        raise BudgetExceededError(f"I-ball of size {size} exceeds budget {budget}")
    return _ball_block_choices(space, i.counts, center)


def iter_I_ball_coords(space: Space, i: Ideal, budget: int = DEFAULT_BUDGET):
    """Coordinate tuples of the origin-centered I-ball, lexicographic order."""
    return itertools.product(*_ball_box(space, i, budget))


def I_ball_bits(space: Space, i: Ideal, budget: int = DEFAULT_BUDGET) -> int:
    """The origin-centered I-ball as one int: bit j is set iff the vector of
    big-endian base-m value j, the key `codes._ball_census` uses, is in it.

    Coordinates fold from last to first.  With `bits` the ball's part on the
    coordinates after t, each residue x of coordinate t places a copy of it
    x*m^(n-1-t) bits up; the copies never overlap, as that part lies below
    bit m^(n-1-t).
    """
    bits, place = 1, 1
    for residues in reversed(_ball_box(space, i, budget)):
        bits = functools.reduce(operator.or_, [bits << x * place for x in residues])
        place *= space.m
    return bits


def enumerate_I_ball(
    u: Vector, i: Ideal, budget: int = DEFAULT_BUDGET
) -> list[tuple[int, ...]]:
    """Coordinate tuples of the I-ball centered at u, lexicographic order."""
    return list(itertools.product(*_ball_box(u.space, i, budget, u.coords)))


def partition_centers(
    space: Space, i: Ideal, budget: int = DEFAULT_BUDGET
) -> list[tuple[int, ...]]:
    """Centers whose I-balls tile the space, as sorted coordinate tuples.

    Each block steps by its per-coordinate ball size min(2c+1, m), which
    must divide m: a full-count block is pinned to zero and a block outside
    the root set is free.  Raises PartitionImpossibleError when the
    divisibility fails.
    """
    _require_ideal(space, i)
    m = space.m
    choices = []
    for t, (c, k) in enumerate(zip(i.counts, space.labeling), start=1):
        step = lee_ball_size(m, c)
        if m % step:
            raise PartitionImpossibleError(t, c, m)
        choices.extend([range(0, m, step)] * k)
    total = math.prod(map(len, choices))
    if total > budget:
        raise BudgetExceededError(f"{total} centers exceed budget {budget}")
    # A product of ascending residue ranges comes out in lexicographic order.
    return list(itertools.product(*choices))
