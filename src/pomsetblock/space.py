"""The metric space Z_m^n split into labeled coordinate blocks.

Coordinates are grouped into one block per ordered ground-set element; a
block weighs as the maximum Lee weight of its coordinates, and the weight
of a vector is the cardinality of the order ideal generated by its block
support.  All values are immutable but for two lazy caches per space,
neither of which enters equality, hashing or repr: `Space._ball_table`, the
per-block I-ball factors the closed forms of `balls` multiply, and
`Space._rball_levels`, the radius-ball sizes `balls.r_ball_cardinality` has
worked out so far.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from functools import cached_property

from .mset import Mset, ShapeError
from .pomset import Pomset


def lee_weight(x: int, m: int) -> int:
    """min(x, m - x) for a residue 0 <= x < m."""
    if not 0 <= x < m:
        raise ValueError(f"residue {x} outside 0..{m - 1}")
    return min(x, m - x)


def block_weight(block: tuple[int, ...], m: int) -> int:
    """Maximum Lee weight over a nonempty block of residues."""
    if not block:
        raise ShapeError("block must be nonempty")
    return max(min(x, m - x) for x in block)


@dataclass(frozen=True)
class Space:
    """Block structure on Z_m^n: modulus, order on blocks, block dimensions.

    The order's height must equal floor(m/2), the largest Lee weight.  For
    m in {2, 3} the height is 1 and the metric degenerates to the plain
    ordered block metric; these moduli are accepted.
    """

    m: int
    pomset: Pomset
    labeling: tuple[int, ...]

    def __post_init__(self):
        if self.m < 2:
            raise ValueError(f"modulus must be at least 2, got {self.m}")
        object.__setattr__(self, "labeling", tuple(map(operator.index, self.labeling)))
        if not self.labeling or any(k < 1 for k in self.labeling):
            raise ValueError("labeling must be a nonempty list of positive sizes")
        if self.pomset.ground_size != len(self.labeling):
            raise ShapeError(
                f"labeling has {len(self.labeling)} blocks but order has "
                f"{self.pomset.ground_size} elements"
            )
        if self.pomset.height != self.m // 2:
            raise ShapeError(
                f"order height {self.pomset.height} != floor(m/2) = {self.m // 2}"
            )

    @property
    def s(self) -> int:
        return len(self.labeling)

    @property
    def height(self) -> int:
        return self.m // 2

    @cached_property
    def n(self) -> int:
        return sum(self.labeling)

    @cached_property
    def block_bounds(self) -> tuple[tuple[int, int], ...]:
        bounds = []
        start = 0
        for k in self.labeling:
            bounds.append((start, start + k))
            start += k
        return tuple(bounds)

    @cached_property
    def _ball_table(self) -> tuple[tuple[int, ...], ...]:
        """Row t, column c: min(2c+1, m)^k_t, block t's I-ball factor at count c."""
        sizes = [min(2 * c + 1, self.m) for c in range(self.height + 1)]
        return tuple(tuple(b ** k for b in sizes) for k in self.labeling)

    @cached_property
    def _rball_levels(self) -> list[int]:
        """Radius-ball sizes by radius, grown by `r_ball_cardinality` as far as asked."""
        return [1]

    @property
    def max_weight(self) -> int:
        return self.s * self.height

    @property
    def size(self) -> int:
        return self.m ** self.n

    def vector(self, coords) -> "Vector":
        """Wrap coordinates, reducing signed integers mod m."""
        reduced = tuple(operator.index(x) % self.m for x in coords)
        return Vector(self, reduced)

    def zero(self) -> "Vector":
        return Vector(self, (0,) * self.n)

    def iter_coords(self):
        """All coordinate tuples in lexicographic order."""
        return itertools.product(range(self.m), repeat=self.n)

    def block_weights(self, coords: tuple[int, ...]) -> tuple[int, ...]:
        """Per-block maximum Lee weight of a raw coordinate tuple."""
        m = self.m
        out = []
        for lo, hi in self.block_bounds:
            w = 0
            for t in range(lo, hi):
                x = coords[t]
                lw = x if x + x <= m else m - x
                if lw > w:
                    w = lw
            out.append(w)
        return tuple(out)

    def weight_counts(self, coords: tuple[int, ...]) -> tuple[int, ...]:
        """Counts of the ideal generated by the block support."""
        return self.pomset.closure_counts(self.block_weights(coords))

    def coords_weight(self, coords: tuple[int, ...]) -> int:
        """Weight of a raw coordinate tuple."""
        return sum(self.weight_counts(coords))

    def words_weight_counts(self, words) -> list[tuple[int, ...]]:
        """`weight_counts` of each of a list of coordinate tuples, by columns.

        Each block's Lee maxima are taken over whole columns, one C-level
        `map` per coordinate, and the closure is worked out once per
        distinct block-weight tuple, so no Python call is made per word.
        """
        m = self.m
        lee = [min(x, m - x) for x in range(m)]
        cols = list(zip(*words)) or [()] * self.n
        blocks = []
        for lo, hi in self.block_bounds:
            bw = map(lee.__getitem__, cols[lo])
            for t in range(lo + 1, hi):
                bw = map(max, bw, map(lee.__getitem__, cols[t]))
            blocks.append(bw)
        keys = list(zip(*blocks))
        closures = dict.fromkeys(keys)
        for bw in closures:
            closures[bw] = self.pomset.closure_counts(bw)
        return list(map(closures.__getitem__, keys))


@dataclass(frozen=True)
class Vector:
    space: Space
    coords: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "coords", _check_words(self.space, [self.coords])[0])

    def block(self, i: int) -> tuple[int, ...]:
        lo, hi = self.space.block_bounds[i - 1]
        return self.coords[lo:hi]

    def __add__(self, other: "Vector") -> "Vector":
        _check_space(self, other)
        m = self.space.m
        return Vector(
            self.space, tuple((x + y) % m for x, y in zip(self.coords, other.coords))
        )

    def __sub__(self, other: "Vector") -> "Vector":
        _check_space(self, other)
        m = self.space.m
        return Vector(
            self.space, tuple((x - y) % m for x, y in zip(self.coords, other.coords))
        )

    def __str__(self) -> str:
        return "(" + ", ".join(str(x) for x in self.coords) + ")"


def _check_words(space: Space, words) -> list[tuple[int, ...]]:
    """Integer tuples of the words, each n residues reduced mod m.

    The first word of the wrong length is reported before any coordinate
    outside 0..m-1; both are ShapeErrors.  Words are rebuilt through
    `operator.index` only when one is not a tuple or holds anything but an
    exact int, so tuples of ints come back as they are.
    """
    words = list(words)
    if set(map(type, words)).difference((tuple,)) or _inexact(words):
        words = [tuple(map(operator.index, w)) for w in words]
    if set(map(len, words)).difference((space.n,)):
        w = next(w for w in words if len(w) != space.n)
        raise ShapeError(f"expected {space.n} coordinates, got {len(w)}")
    stray = set(itertools.chain.from_iterable(words)).difference(range(space.m))
    if stray:
        x = next(x for w in words for x in w if x in stray)
        raise ShapeError(f"coordinate {x} not reduced mod {space.m}")
    return words


def _inexact(words) -> bool:
    """True iff some coordinate of the words is not an exact int."""
    return bool(set(map(type, itertools.chain.from_iterable(words))).difference((int,)))


def _check_space(u, v) -> None:
    """Vectors, or a code and a vector, must share one space."""
    if u.space != v.space:
        raise ShapeError("vectors belong to different spaces")


def _check_radius(space: Space, r: int) -> None:
    if not 0 <= r <= space.max_weight:
        raise ValueError(f"radius {r} outside 0..{space.max_weight}")


def support(u: Vector) -> Mset:
    """Block support: the multiset recording each block's Lee weight."""
    sp = u.space
    return Mset(sp.s, sp.height, sp.block_weights(u.coords))


def pomset_weight(u: Vector) -> int:
    """Cardinality of the ideal generated by the block support."""
    return u.space.coords_weight(u.coords)


def distance(u: Vector, v: Vector) -> int:
    """Weight of the coordinate-wise difference mod m."""
    _check_space(u, v)
    return pomset_weight(u - v)
