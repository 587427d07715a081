"""The metric space Z_m^n split into labeled coordinate blocks.

Coordinates are grouped into one block per ordered ground-set element; a
block weighs as the maximum Lee weight of its coordinates, and the weight
of a vector is the cardinality of the order ideal generated by its block
support.  All values are immutable but for three lazy caches per space,
none of which enters equality, hashing or repr: `Space._ball_rows`, the
per-block I-ball factors min(2c+1, m)^k every closed form of `balls`
reads, built whole on the first read as lists below a height of
`BALL_ROW_LIMIT` and worked out per read at or past it; `Space._lee`, the
Lee weight of each residue read so far by `Space.block_weights` and the
column kernel `Space.words_weight_counts`; and `Space._rball_levels`, the
radius-ball sizes `balls.r_ball_cardinality` has worked out so far.

Codewords, generator rows and vectors all enter by one word contract:
after the first wrong length, `_check_words` refuses a coordinate outside
0..m-1 and `_reduce_words` takes it mod m; both find it from the extremes
of the coordinates, so they cost what the words cost, whatever m is.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from functools import cached_property

from .mset import Mset, ShapeError
from .pomset import Pomset

# Heights below this get `Space._ball_rows` as lists of every factor, built
# whole; a higher one gets factors worked out as they are read.  A problem
# kept between in-process requests then holds at most 256 factors a block,
# about 0.1 MB over 10 blocks, and no row grows with a huge modulus.
BALL_ROW_LIMIT = 1 << 8


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
    def _ball_rows(self) -> list:
        """Row t, column c: min(2c+1, m)^k_t, block t's I-ball factor at count c.

        Below `BALL_ROW_LIMIT` the rows are lists of all height + 1 factors,
        built whole on the first read; at or past it, rows that work out
        each factor as it is read and store none.
        """
        if self.height < BALL_ROW_LIMIT:
            return [[min(2 * c + 1, self.m) ** k for c in range(self.height + 1)]
                    for k in self.labeling]
        return [_BallFactors(self.m, k) for k in self.labeling]

    @cached_property
    def _lee(self) -> "_LeeTable":
        """Lee weight by residue, each worked out the first time it is read."""
        return _LeeTable(self.m)

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
        return Vector(self, _reduce_words(self, [coords])[0])

    def zero(self) -> "Vector":
        return Vector(self, (0,) * self.n)

    def block_weights(self, coords: tuple[int, ...]) -> tuple[int, ...]:
        """Per-block maximum Lee weight of a raw coordinate tuple."""
        lee = self._lee.__getitem__
        return tuple(max(map(lee, coords[lo:hi])) for lo, hi in self.block_bounds)

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
        lee = self._lee
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


class _BallFactors:
    """A row of I-ball factors min(2c+1, m)^k of one block, worked out per read."""

    __slots__ = ("m", "k")

    def __init__(self, m: int, k: int):
        self.m, self.k = m, k

    def __getitem__(self, c: int) -> int:
        return min(2 * c + 1, self.m) ** self.k


class _LeeTable(dict):
    """Lee weights min(x, m - x) of the residues x read so far, so a table
    over a huge modulus holds only the residues its words hold."""

    def __init__(self, m: int):
        super().__init__()
        self.m = m

    def __missing__(self, x: int) -> int:
        weight = self[x] = min(x, self.m - x)
        return weight


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
    """Integer tuples of the words, each n residues already reduced mod m.

    The strict half of the word contract: after the first word of the wrong
    length, a coordinate outside 0..m-1 is a ShapeError.
    """
    words = _int_words(space, words)
    x = _stray(words, space.m)
    if x is not None:
        raise ShapeError(f"coordinate {x} not reduced mod {space.m}")
    return words


def _reduce_words(space: Space, words) -> list[tuple[int, ...]]:
    """The lenient half of the word contract: stray coordinates are taken mod m."""
    words = _int_words(space, words)
    if _stray(words, space.m) is None:
        return words
    return [tuple(x % space.m for x in w) for w in words]


def _int_words(space: Space, words) -> list[tuple[int, ...]]:
    """The words as tuples of n exact ints, rebuilt through `operator.index`
    only if one is not; the first wrong length is a ShapeError."""
    words = list(words)
    coords = itertools.chain.from_iterable(words)
    if set(map(type, words)).difference((tuple,)) or set(map(type, coords)).difference((int,)):
        words = [tuple(map(operator.index, w)) for w in words]
    if set(map(len, words)).difference((space.n,)):
        w = next(w for w in words if len(w) != space.n)
        raise ShapeError(f"expected {space.n} coordinates, got {len(w)}")
    return words


def _stray(words, m: int) -> int | None:
    """The first coordinate outside 0..m-1, or None; the extremes settle the
    common case, so the cost is linear in the words whatever m is."""
    if not words or (min(map(min, words)) >= 0 and max(map(max, words)) < m):
        return None
    return next(x for w in words for x in w if not 0 <= x < m)


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
