"""Partial orders on {1..s} with a height cap, and their order ideals.

The ordered ground set together with the height models a regular multiset
{l/1, ..., l/s} whose elements are comparable exactly when the underlying
ground-set elements are.  An order ideal is then a capped multiset whose
counts are forced to the full height strictly below any present element,
so the whole ideal lattice is driven by the poset alone.

An ideal is a downset whose maximal elements carry counts 1..height and
whose other elements carry the full height.  Each order keeps, grown level
by level only as far as asked, its downsets by size and a root table that
groups each level's downsets by their number of maximal elements, found
once; both ideal enumerators walk that table.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from functools import cached_property

from .mset import Mset, ShapeError, check_shape, complement as mset_complement


class CycleError(ValueError):
    """The supplied relation pairs contain a directed cycle."""


class NotAnIdealError(ValueError):
    """A multiset violates downward closure for the given order."""


def _transitive_closure(s: int, pairs) -> frozenset[tuple[int, int]]:
    below = {i: set() for i in range(1, s + 1)}  # below[b] = {a : a < b}
    for a, b in pairs:
        a, b = operator.index(a), operator.index(b)
        if not (1 <= a <= s and 1 <= b <= s):
            raise ValueError(f"relation ({a},{b}) outside ground set 1..{s}")
        if a == b:
            raise CycleError(f"reflexive pair ({a},{b}) not allowed in a strict order")
        below[b].add(a)
    # Warshall: once pivot k is done, below[b] holds every a reaching b by
    # a path whose inner elements are all at most k.
    for k in range(1, s + 1):
        for b in range(1, s + 1):
            if k in below[b]:
                below[b] |= below[k]
    for b in range(1, s + 1):
        if b in below[b]:
            raise CycleError(f"element {b} lies on a cycle")
    return frozenset((a, b) for b in range(1, s + 1) for a in below[b])


@dataclass(frozen=True)
class Pomset:
    """Strict partial order on {1..s} with a common multiplicity cap.

    `order` holds the full (transitively closed) set of strict pairs (a, b)
    meaning a < b.  Use `from_relations` to build from covering pairs.
    """

    ground_size: int
    height: int
    order: frozenset[tuple[int, int]]

    def __post_init__(self):
        if self.ground_size < 1:
            raise ValueError("ground_size must be positive")
        if self.height < 1:
            raise ValueError("height must be positive")
        object.__setattr__(
            self, "order",
            frozenset((operator.index(a), operator.index(b)) for a, b in self.order),
        )
        # The closure rejects pairs outside the ground set, reflexive pairs
        # and cycles; a pair stated both ways is a cycle of length two.
        if _transitive_closure(self.ground_size, self.order) != self.order:
            raise ValueError("order is not transitively closed; use from_relations")

    def __repr__(self) -> str:
        # Sorted pairs: a frozenset's own repr follows its insertion history.
        pairs = ", ".join(map(repr, sorted(self.order)))
        order = f"frozenset({{{pairs}}})" if pairs else "frozenset()"
        return (
            f"{type(self).__name__}(ground_size={self.ground_size!r}, "
            f"height={self.height!r}, order={order})"
        )

    @classmethod
    def from_relations(cls, ground_size: int, height: int, pairs) -> "Pomset":
        """Build from covering (Hasse) or arbitrary strict pairs a < b."""
        return cls(ground_size, height, _transitive_closure(ground_size, pairs))

    @classmethod
    def chain(cls, ground_size: int, height: int) -> "Pomset":
        """The total order 1 < 2 < ... < s."""
        pairs = [(i, i + 1) for i in range(1, ground_size)]
        return cls.from_relations(ground_size, height, pairs)

    @classmethod
    def antichain(cls, ground_size: int, height: int) -> "Pomset":
        return cls(ground_size, height, frozenset())

    @cached_property
    def strictly_below(self) -> dict[int, frozenset[int]]:
        out = {i: set() for i in range(1, self.ground_size + 1)}
        for a, b in self.order:
            out[b].add(a)
        return {i: frozenset(v) for i, v in out.items()}

    @cached_property
    def strictly_above(self) -> dict[int, frozenset[int]]:
        out = {i: set() for i in range(1, self.ground_size + 1)}
        for a, b in self.order:
            out[a].add(b)
        return {i: frozenset(v) for i, v in out.items()}

    @cached_property
    def _downset_levels(self) -> list[tuple[frozenset[int], ...]]:
        """Downsets by size, grown by `downsets_of_size` as far as asked."""
        return [(frozenset(),)]

    @cached_property
    def _root_levels(self) -> dict[int, tuple]:
        """The root table by downset size, filled by `_root_groups` as asked."""
        return {}

    def downsets_of_size(self, size: int) -> tuple[frozenset[int], ...]:
        """The downward-closed subsets with `size` elements, by sorted elements.

        A downset of size j+1 is one of size j plus an element outside it
        whose lower elements it holds, so each level grows from the one
        below.  Levels are built only as far as asked and cached on the
        order, so listing small downsets of a wide order stays cheap.
        """
        if not 0 <= size <= self.ground_size:
            raise ValueError(f"size {size} outside 0..{self.ground_size}")
        levels = self._downset_levels
        below = self.strictly_below
        while len(levels) <= size:
            grown = {
                d | {i} for d in levels[-1] for i in below
                if i not in d and below[i] <= d
            }
            levels.append(tuple(sorted(grown, key=sorted)))
        return levels[size]

    def _root_groups(self, size: int) -> tuple:
        """Level `size` of the root table: its downsets grouped by maximal elements.

        Each group is a pair (k, entries), one entry per downset with k
        maximal elements: its counts with every element at full height, and
        the 0-based indices of its maximal elements in ascending order.  The
        level is read from `downsets_of_size` once and cached on the order.
        """
        levels = self._root_levels
        if size not in levels:
            l, above = self.height, self.strictly_above
            groups = {}
            for down in self.downsets_of_size(size):
                full = [0] * self.ground_size
                for i in down:
                    full[i - 1] = l
                maximal = tuple(i - 1 for i in sorted(down) if above[i].isdisjoint(down))
                groups.setdefault(len(maximal), []).append((tuple(full), maximal))
            levels[size] = tuple((k, tuple(entries)) for k, entries in groups.items())
        return levels[size]

    @property
    def downsets(self) -> tuple[frozenset[int], ...]:
        """All downward-closed subsets, by size and then by sorted elements."""
        return tuple(itertools.chain.from_iterable(
            map(self.downsets_of_size, range(self.ground_size + 1))
        ))

    @property
    def is_chain(self) -> bool:
        s = self.ground_size
        return len(self.order) == s * (s - 1) // 2

    @property
    def is_antichain(self) -> bool:
        return not self.order

    def closure_counts(self, weights: tuple[int, ...]) -> tuple[int, ...]:
        """Counts of the smallest ideal containing the given count vector.

        Every element strictly below a present element is raised to full
        height; present elements keep their own count otherwise.
        """
        l = self.height
        above = self.strictly_above
        out = list(weights)
        for j in range(1, self.ground_size + 1):
            if out[j - 1] == l:
                continue
            for i in above[j]:
                if weights[i - 1]:
                    out[j - 1] = l
                    break
        return tuple(out)


@dataclass(frozen=True, init=False)
class Ideal(Mset):
    """Order ideal of a pomset: a multiset of its shape, closed downward."""

    pomset: Pomset

    def __init__(self, pomset: Pomset, counts):
        object.__setattr__(self, "pomset", pomset)
        super().__init__(pomset.ground_size, pomset.height, counts)

    def __post_init__(self):
        super().__post_init__()
        p, counts = self.pomset, self.counts
        if p.closure_counts(counts) != counts:
            i, j = next(
                (i, j)
                for j in range(1, p.ground_size + 1)
                if counts[j - 1] != p.height
                for i in p.strictly_above[j]
                if counts[i - 1]
            )
            raise NotAnIdealError(f"element {i} present but {j} < {i} lacks full count")

    @classmethod
    def _trusted(cls, pomset: Pomset, counts_list) -> list["Ideal"]:
        """Ideals from count tuples the caller built downward closed; unchecked.

        Every instance dict is filled from one template holding the fields,
        in order, that validation would set, so a trusted ideal equals,
        hashes and reprs like a validated one.
        """
        template = {"pomset": pomset, "ground_size": pomset.ground_size,
                    "height": pomset.height, "counts": None}
        new = object.__new__
        out = []
        for counts in counts_list:
            ideal = new(cls)
            fields = ideal.__dict__
            fields.update(template)
            fields["counts"] = counts
            out.append(ideal)
        return out

    @property
    def full_elements(self) -> frozenset[int]:
        """Root elements carrying the full height."""
        l = self.height
        return frozenset(i for i, c in enumerate(self.counts, start=1) if c == l)

    @property
    def partial_elements(self) -> frozenset[int]:
        """Root elements with count strictly below the height (I_p)."""
        l = self.height
        return frozenset(
            i for i, c in enumerate(self.counts, start=1) if 0 < c < l
        )

    @property
    def maximal_elements(self) -> frozenset[int]:
        """Root elements with no other root element strictly above them."""
        root = self.root_set
        above = self.pomset.strictly_above
        return frozenset(i for i in root if not (above[i] & root))

    @property
    def is_full_count(self) -> bool:
        return not self.partial_elements


def is_ideal(p: Pomset, a: Mset) -> bool:
    """True iff every element strictly below a present element has full count."""
    check_shape(p, a)
    return p.closure_counts(a.counts) == a.counts


def ideal_generated(p: Pomset, s: Mset) -> Ideal:
    """Smallest ideal containing the given multiset."""
    check_shape(p, s)
    return Ideal._trusted(p, [p.closure_counts(s.counts)])[0]


def enumerate_root_downsets(p: Pomset, size: int) -> list[frozenset[int]]:
    """All downward-closed subsets of the given size (root sets of ideals)."""
    return list(p.downsets_of_size(size))


def _compositions(lo: int, hi: int, parts: int, cap: int) -> list[tuple[int, ...]]:
    """Tuples of `parts` counts in 1..cap whose sum lies in lo..hi, lexicographic.

    Prefixes grow one count at a time, each count bounded so that the sum
    can still land in lo..hi; given parts <= hi and lo <= parts * cap, every
    prefix completes.
    """
    # Bounds by comparison rather than max/min calls: on sparse orders a
    # list is built for almost every downset, so call overhead dominates.
    heads = [()]
    for left in range(parts - 1, -1, -1):
        grown = []
        for head in heads:
            total = sum(head)
            least, most = lo - total - cap * left, hi - total - left
            for c in range(least if least > 1 else 1, (most if most < cap else cap) + 1):
                grown.append(head + (c,))
        heads = grown
    return heads


def _ideals_weighing(p: Pomset, sizes, lo: int, hi: int) -> list[Ideal]:
    """The ideals on downsets of the given sizes weighing lo..hi, by count vector.

    Elements below another element of their downset carry the full height;
    the k maximal ones carry counts in 1..height.  The root table groups a
    level's downsets by k, so a group's full-height weight, and with it the
    window first..last of its maximal counts' sum, is worked out once: a
    group outside lo..hi is skipped without touching its downsets.  Each
    list of maximal counts is built once per call, keyed by (first, last, k).
    The cost is O(table groups in the window + output).  Plain count tuples
    are sorted first and wrapped as ideals last.
    """
    l = p.height
    count_lists = {}
    out = []
    counts = [0] * p.ground_size
    for j in sizes:
        for k, entries in p._root_groups(j):
            full = l * (j - k)
            first, last = lo - full, hi - full
            if first < k:
                first = k
            if last > l * k:
                last = l * k
            if first > last:
                continue
            key = first, last, k
            choices = count_lists.get(key)
            if choices is None:
                choices = count_lists[key] = _compositions(first, last, k, l)
            # One count vector serves the call; each downset resets it.
            for full_counts, maximal in entries:
                counts[:] = full_counts
                for choice in choices:
                    for i, c in zip(maximal, choice):
                        counts[i] = c
                    out.append(tuple(counts))
    out.sort()
    return Ideal._trusted(p, out)


def all_ideals(p: Pomset) -> list[Ideal]:
    """Every order ideal of the pomset, sorted by count vector."""
    return _ideals_weighing(p, range(p.ground_size + 1), 0, p.ground_size * p.height)


def enumerate_ideals(p: Pomset, r: int) -> list[Ideal]:
    """All ideals of cardinality r, sorted lexicographically by count vector.

    Only downsets of ceil(r/height)..r elements can weigh r, and each
    generates only the ideals of cardinality r, so the cost is O(table
    groups of those sizes in the window + output), plus building the table
    levels of those sizes on the order's first call.
    """
    if not 0 <= r <= p.ground_size * p.height:
        raise ValueError(f"cardinality {r} outside 0..{p.ground_size * p.height}")
    sizes = range(-(-r // p.height), min(r, p.ground_size) + 1)
    return _ideals_weighing(p, sizes, r, r)


def dual_pomset(p: Pomset) -> Pomset:
    """Same ground set and height with the order reversed."""
    return Pomset(p.ground_size, p.height, frozenset((b, a) for a, b in p.order))


def ideal_complement(p: Pomset, ideal: Ideal) -> Ideal:
    """Count-wise complement, returned as an ideal of the dual pomset."""
    if ideal.pomset is not p and ideal.pomset != p:
        raise ShapeError("ideal does not belong to the given pomset")
    return Ideal(dual_pomset(p), mset_complement(ideal).counts)


def is_finer(p1: Pomset, p2: Pomset) -> bool:
    """True iff every related pair of p1 is related in p2."""
    check_shape(p1, p2)
    return p1.order <= p2.order
