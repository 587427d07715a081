"""Bounded multisets over the ground set {1, ..., s}.

Every multiset here lives in a fixed ambient space: counts are capped at a
common height, and all operations are pure functions on immutable values.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass


class ShapeError(ValueError):
    """Operands disagree on ground size or height."""


@dataclass(frozen=True)
class Mset:
    """Multiset over {1..s} in which no element occurs more than `height` times."""

    ground_size: int
    height: int
    counts: tuple[int, ...]

    def __post_init__(self):
        if self.ground_size < 1:
            raise ValueError(f"ground_size must be positive, got {self.ground_size}")
        if self.height < 1:
            raise ValueError(f"height must be positive, got {self.height}")
        object.__setattr__(self, "counts", tuple(map(operator.index, self.counts)))
        if len(self.counts) != self.ground_size:
            raise ShapeError(
                f"expected {self.ground_size} counts, got {len(self.counts)}"
            )
        for i, c in enumerate(self.counts, start=1):
            if not 0 <= c <= self.height:
                raise ValueError(f"count {c}/{i} outside 0..{self.height}")

    @classmethod
    def empty(cls, ground_size: int, height: int) -> "Mset":
        return cls(ground_size, height, (0,) * ground_size)

    @classmethod
    def full(cls, ground_size: int, height: int) -> "Mset":
        return cls(ground_size, height, (height,) * ground_size)

    @classmethod
    def from_items(cls, ground_size: int, height: int, items: dict[int, int]) -> "Mset":
        """Build from a mapping element -> count; missing elements count 0."""
        counts = [0] * ground_size
        for a, c in items.items():
            if not 1 <= a <= ground_size:
                raise ValueError(f"element {a} outside ground set 1..{ground_size}")
            counts[a - 1] = c
        return cls(ground_size, height, tuple(counts))

    @property
    def cardinality(self) -> int:
        return sum(self.counts)

    @property
    def root_set(self) -> frozenset[int]:
        return frozenset(i for i, c in enumerate(self.counts, start=1) if c)

    def __str__(self) -> str:
        inner = ", ".join(
            f"{c}/{i}" for i, c in enumerate(self.counts, start=1) if c
        )
        return "{" + inner + "}"


def check_shape(a, b) -> None:
    """Reject operands (multisets or pomsets) of different ground size or height."""
    if (a.ground_size, a.height) != (b.ground_size, b.height):
        raise ShapeError(
            f"shapes differ: ({a.ground_size},{a.height}) vs "
            f"({b.ground_size},{b.height})"
        )


def msum(a: Mset, b: Mset) -> Mset:
    """Sum capped at the common height: min(height, a_i + b_i) per element."""
    check_shape(a, b)
    l = a.height
    return Mset(
        a.ground_size, l, tuple(min(l, x + y) for x, y in zip(a.counts, b.counts))
    )


def mdiff(a: Mset, b: Mset) -> Mset:
    """Difference clamped at zero: max(a_i - b_i, 0) per element."""
    check_shape(a, b)
    return Mset(
        a.ground_size,
        a.height,
        tuple(max(x - y, 0) for x, y in zip(a.counts, b.counts)),
    )


def complement(a: Mset) -> Mset:
    """Count-wise complement height - a_i; an involution."""
    return Mset(a.ground_size, a.height, tuple(a.height - c for c in a.counts))


def is_submset(a: Mset, b: Mset) -> bool:
    """True iff a_i <= b_i for every element."""
    check_shape(a, b)
    return all(x <= y for x, y in zip(a.counts, b.counts))
