"""Code-level analytics: spans, minimum distance, duals, perfectness,
the Singleton bound and MDS verification, parity-block dependence, and
weight distributions.

Spans, duals, linearity and parity-block dependence all come from one
diagonal form over Z_m, so they cost what they output rather than what the
space holds.  Perfectness and error-correction checks are one exact census
of the ball translates at the codewords, `_ball_census`, which takes the
ball as boxes of per-coordinate residue lists; it keys a linear code's ball
members by their cosets, and otherwise every vector by an integer, and is
budget-guarded rather than approximate.  An I-ball is one
box, and `_r_ball_coords` splits a radius ball into disjoint boxes sphere
by sphere, so no ball is listed member by member or found by filtering the
space.  `ball_code_intersection` walks whichever of the ball and the code
is smaller.

Codewords are sorted coordinate tuples, made and read by columns: the
direct sum builds n column lists and zips them into words at the end, and
minimum distance, weight distribution and root-set sizes all weigh the
words through one column kernel, `Space.words_weight_counts`.
"""

from __future__ import annotations

import array
import itertools
import math
import operator
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property

from .balls import (
    DEFAULT_BUDGET,
    BudgetExceededError,
    _ball_block_choices,
    _ball_box,
    _counts_of,
    _require_ideal,
    lee_ball_residues,
    lee_ball_size,
)
from .pomset import Ideal, enumerate_ideals, enumerate_root_downsets
from .space import Space, Vector, _check_radius, _check_space, _check_words, _inexact


class UndefinedDistanceError(ValueError):
    """Minimum distance requested for a single-codeword code."""


class InternalInconsistencyError(RuntimeError):
    """A proven identity failed; indicates a bug, not bad input."""


@dataclass(frozen=True)
class Code:
    """Finite nonempty set of coordinate tuples of one space, sorted.

    Every codeword is a tuple of n integer residues reduced mod m.
    `generator` records the rows the code was spanned from, when it was,
    and so marks the code as a submodule; equality and hashing ignore it.
    """

    space: Space
    codewords: tuple[tuple[int, ...], ...]
    generator: tuple[tuple[int, ...], ...] | None = field(default=None, compare=False)

    def __post_init__(self):
        words = _check_words(self.space, self.codewords)
        if not words:
            raise ValueError("a code must contain at least one codeword")
        object.__setattr__(self, "codewords", tuple(sorted(set(words))))

    @classmethod
    def from_codewords(cls, space: Space, coord_lists) -> "Code":
        """The code of the given words, reducing signed integers mod m."""
        m = space.m
        words = list(map(tuple, coord_lists))
        # Words of residues as exact ints are already what the checks want.
        if _inexact(words) or set(itertools.chain.from_iterable(words)) - set(range(m)):
            words = [tuple(operator.index(x) % m for x in w) for w in words]
        return cls(space, words)

    @property
    def size(self) -> int:
        return len(self.codewords)

    @cached_property
    def coord_set(self) -> frozenset[tuple[int, ...]]:
        return frozenset(self.codewords)

    @cached_property
    def _form(self):
        """`_diagonal` of the generator rows, or of the codewords if none."""
        rows = self.codewords if self.generator is None else self.generator
        return _diagonal(rows, self.space.n, self.space.m)

    @cached_property
    def is_linear(self) -> bool:
        """True iff the code is a submodule (closed under + and -).

        A finite set is a submodule exactly when its span is no larger than
        itself, and the diagonal form gives the span's size directly.  A
        submodule holds zero and its size divides m^n, which settles most
        other sets before any diagonal form.
        """
        if self.generator is not None:
            return True
        if self.codewords[0] != (0,) * self.space.n or self.space.size % self.size:
            return False
        m = self.space.m
        return math.prod(m // math.gcd(x, m) for x in self._form[0]) == self.size


def _bezout(a: int, b: int) -> tuple[int, int, int]:
    """(g, x, y) with x*a + y*b = g = gcd(a, b) for a > 0 and b >= 0.

    When a divides b the answer is (a, 1, 0), so an operation whose pivot
    already divides the entry leaves the pivot's row or column alone.
    """
    if b % a == 0:
        return a, 1, 0
    x0, x1, y0, y1 = 1, 0, 0, 1
    while b:
        q = a // b
        a, b = b, a - q * b
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    return a, x0, y0


def _diagonal(rows, n: int, m: int):
    """Diagonal form U*A*V = diag(d) over Z_m of the matrix whose rows are given.

    Extended-gcd row and column operations of determinant 1 reach it, so U
    and V are invertible mod m and the rows d[t]*Vinv[t] span the same
    submodule as the input, as a direct sum.  Returns (d, V, Vinv) reduced
    mod m, with d zero-padded to length n.
    """
    a = [[x % m for x in row] for row in rows]
    v = [[int(i == j) for j in range(n)] for i in range(n)]
    vinv = [row[:] for row in v]
    d = [0] * n
    for k in range(min(len(a), n)):
        pivot = next(
            ((i, j) for i in range(k, len(a)) for j in range(k, n) if a[i][j]), None
        )
        if pivot is None:
            break
        i, j = pivot
        a[k], a[i] = a[i], a[k]
        for row in a + v:
            row[k], row[j] = row[j], row[k]
        vinv[k], vinv[j] = vinv[j], vinv[k]
        # Each pass clears the pivot's column or row; a pass that changes the
        # other one strictly lowers the pivot, so the loop ends.
        while True:
            for i in range(k + 1, len(a)):
                if a[i][k]:
                    g, x, y = _bezout(a[k][k], a[i][k])
                    p, q = a[k][k] // g, a[i][k] // g
                    rk, ri = a[k], a[i]
                    a[k] = [(x * s + y * t) % m for s, t in zip(rk, ri)]
                    a[i] = [(p * t - q * s) % m for s, t in zip(rk, ri)]
            if not any(a[k][k + 1 :]):
                break
            for j in range(k + 1, n):
                if a[k][j]:
                    g, x, y = _bezout(a[k][k], a[k][j])
                    p, q = a[k][k] // g, a[k][j] // g
                    for row in a + v:
                        s, t = row[k], row[j]
                        row[k], row[j] = (x * s + y * t) % m, (p * t - q * s) % m
                    rk, rj = vinv[k], vinv[j]
                    vinv[k] = [(p * s + q * t) % m for s, t in zip(rk, rj)]
                    vinv[j] = [(x * t - y * s) % m for s, t in zip(rk, rj)]
            if not any(a[i][k] for i in range(k + 1, len(a))):
                break
        d[k] = a[k][k]
    return d, v, vinv


def _order(b, m: int) -> int:
    """Additive order of a vector of Z_m^n."""
    return m // math.gcd(m, *b)


def _direct_sum(gens, n: int, m: int) -> list[tuple[int, ...]]:
    """Every sum of c*b over the generators b, 0 <= c < order(b), once each.

    The generators must form a direct sum, as those read off `_diagonal`
    do, so the sums are pairwise distinct and cost O(output * n).  The sums
    are built a column at a time and zipped into words at the end.
    """
    add = [[(x + y) % m for y in range(m)] for x in range(m)]
    cols = [[0] for _ in range(n)]
    for b in gens:
        if any(b):
            order = range(_order(b, m))
            # Column t of the words w + c*b, c in order, is row c*b_t of
            # the table read at each w_t.
            cols = [
                list(itertools.chain.from_iterable(
                    [map(add[c * y % m].__getitem__, col) for c in order]
                ))
                for col, y in zip(cols, b)
            ]
    return list(zip(*cols))


def _budgeted_code(space: Space, gens, budget: int, what: str, **kwargs) -> Code:
    """The code a direct sum spans, once its size is known to fit the budget."""
    size = math.prod(_order(b, space.m) for b in gens)
    if size > budget:
        raise BudgetExceededError(f"{what} of {size} codewords exceeds budget {budget}")
    return Code(space, _direct_sum(gens, space.n, space.m), **kwargs)


def span_generator(space: Space, rows, budget: int = DEFAULT_BUDGET) -> Code:
    """All linear combinations over Z_m of the given rows.

    The span is the direct sum of the cyclic modules of d[t]*Vinv[t] from
    the diagonal form, so the budget counts its codewords.
    """
    m = space.m
    norm = tuple(_check_words(space, [[operator.index(x) % m for x in row] for row in rows]))
    d, _, vinv = _diagonal(norm, space.n, m)
    gens = [tuple(dt * x % m for x in row) for dt, row in zip(d, vinv)]
    return _budgeted_code(space, gens, budget, "span", generator=norm)


def min_distance(c: Code) -> int:
    """Least distance between distinct codewords; min nonzero weight if linear."""
    if c.size < 2:
        raise UndefinedDistanceError("minimum distance needs at least two codewords")
    sp, m = c.space, c.space.m
    if c.is_linear:
        words = c.codewords
    else:
        words = [
            tuple((x - y) % m for x, y in zip(u, v))
            for u, v in itertools.combinations(c.codewords, 2)
        ]
    # Only the zero word weighs 0.
    return min(filter(None, map(sum, sp.words_weight_counts(words))))


def _dual_generators(c: Code) -> list[tuple[int, ...]]:
    """Generators (m/g_t)*V[:, t] of the annihilator, g_t = gcd(d_t, m).

    With U*A*V = diag(d), a vector V*y annihilates the rows of A exactly when
    d_t*y_t = 0 mod m for every t; past the rank d_t = 0 and g_t = m.
    """
    if not c.is_linear:
        raise ValueError("dual code requires a linear (submodule) code")
    m, n = c.space.m, c.space.n
    # Annihilating a spanning set annihilates every combination of it.
    d, v, _ = c._form
    return [
        tuple(m // math.gcd(dt, m) * v[i][t] % m for i in range(n))
        for t, dt in enumerate(d)
    ]


def dual_code(c: Code, budget: int = DEFAULT_BUDGET) -> Code:
    """Annihilator { v : v . c = 0 mod m for all c }, from the diagonal form.

    The budget counts the dual's codewords; |C| * |dual| = m^n.  The dual
    records its generators, so its own dual diagonalises at most n rows.
    """
    gens = _dual_generators(c)
    return _budgeted_code(c.space, gens, budget, "dual", generator=tuple(gens))


@dataclass(frozen=True)
class CheckResult:
    """Outcome of a perfectness / disjointness census."""

    ok: bool
    witness: tuple[int, ...] | None = None
    reason: str = ""

    def __bool__(self) -> bool:
        return self.ok


def _reduce_lanes(words: list[int], table: bytes) -> list[int]:
    """Each 64-bit word with every byte mapped through `table`.

    The words are laid out in native byte order and read back in the same
    order, so a byte keeps its place and a key keeps its low bits, which
    are what a set hashes on.
    """
    blob = array.array("Q", words).tobytes().translate(table)
    return memoryview(blob).cast("Q").tolist()


def _coset_census(c: Code, kinds, steps, require_cover: bool) -> CheckResult | None:
    """`_ball_census` of a linear code from the cosets its ball members hit.

    `steps` lists each box as indices into `kinds`, the pairs (t, residues)
    at the coordinates t where a box is not 0.  Z_m is a Frobenius ring, so
    C is the annihilator of its dual, and two vectors lie in one coset of C
    exactly when their syndromes under the dual's generators agree.
    Translates c + b and c' + b' meet only if b - b' is a nonzero codeword,
    so the translates are disjoint iff no two listed members share a coset;
    their union is then the hit cosets, and it covers the space iff
    |C| x #hit = m^n.  Otherwise the gap is the first vector, walked as an
    odometer with its syndrome kept up to date, whose coset no member hit.
    Returns None once a coset is keyed twice, by an overlap or by a member
    two boxes list, and leaves that to the translate census.

    A syndrome packs one byte per nonzero dual row into a 64-bit word, so a
    member's key is built like the census's, one table addition per box
    coordinate that is not 0.  One `_reduce_lanes` per few thousand keys
    reduces every byte mod m.  A byte takes 255 // (m-1) additions, so a
    longer box is reduced part-way.  Past m = 128 or 8 nonzero dual rows a
    syndrome fits no such word, and the pass returns None at once.
    """
    sp = c.space
    m, n = sp.m, sp.n
    # A zero row keeps one lane when C is the whole space.
    rows = [h for h in _dual_generators(c) if any(h)] or [(0,) * n]
    if m > 128 or len(rows) > 8:
        return None
    cols = [[h[t] for h in rows] for t in range(n)]
    room = 255 // (m - 1)
    table = bytes(x % m for x in range(256))

    def pack(lanes) -> int:
        return int.from_bytes(bytes(lanes), "big")

    def syndromes(t: int, rs) -> list[int]:
        """The packed syndromes of the residues rs at coordinate t."""
        return [pack(r * h % m for h in cols[t]) for r in rs]

    deltas = [syndromes(t, rs) for t, rs in kinds]
    hit, listed, members = set(), 0, []
    for done, box in enumerate(steps, 1):
        part, used = [0], 0
        for kind in box:
            if used == room:
                part = _reduce_lanes(part, table)
                used = 1
            part = [x + d for d in deltas[kind] for x in part]
            used += 1
        members += part
        # Keys go in a few thousand at a time, so an overlap ends the pass early.
        if len(members) >= 4096 or done == len(steps):
            hit.update(_reduce_lanes(members, table))
            listed += len(members)
            if len(hit) < listed:
                return None
            members = []
    if not require_cover or c.size * len(hit) == sp.size:
        return CheckResult(True)
    # The last coordinate's m syndromes are keyed at once per prefix; a
    # reduced lane plus one delta stays within its byte.
    last = syndromes(n - 1, range(m))
    prefix, lanes = [0] * (n - 1), [0] * len(rows)
    for _ in range(m ** (n - 1)):
        base = pack(lanes)
        for a, key in enumerate(_reduce_lanes([base + d for d in last], table)):
            if key not in hit:
                return CheckResult(False, (*prefix, a), "vector covered by no ball")
        # Stepping or wrapping coordinate t adds column t to the syndrome.
        for t in reversed(range(n - 1)):
            lanes = [(x + h) % m for x, h in zip(lanes, cols[t])]
            prefix[t] = (prefix[t] + 1) % m
            if prefix[t]:
                break
    raise InternalInconsistencyError("every coset hit, yet |C| x #hit < m^n")


def _ball_census(c: Code, boxes, budget: int, require_cover: bool) -> CheckResult:
    """Tally ball translates at every codeword; exact and deterministic.

    The ball B about zero is the union of the `boxes`, each n per-coordinate
    residue lists whose product it holds; boxes may overlap, and the budget
    counts their members: the ball's size, as every caller's boxes are
    disjoint.  The census fails at the first codeword whose translate meets
    an earlier one; the witness is that codeword plus the lexicographically
    least offset of B already reached.  With `require_cover`, disjoint
    translates must also reach every vector, and the witness is the
    lexicographically first vector none reaches, among the first
    |C| x |B| + 1.

    A linear code is first handed to `_coset_census`, which keys each
    listed member once by its coset, |B| keys where the translates take
    |C| x |B|, and settles disjointness, cover and the gap.  Only a coset
    keyed twice brings it on to the translate census below, which also
    serves every non-linear code and finds the overlap's witness.  It is
    skipped past |C| x |B| > m^n, where two members of B share a coset.

    A vector's key is its big-endian base-m value, so numeric order is
    lexicographic order (Knuth, TAOCP 4A 7.2.1.1).  The key of w + b is the
    key of w plus the deltas ((w_t + b_t) mod m - w_t)*m^(n-1-t) at the
    coordinates t where the box is not 0, tabled once per coordinate,
    residue list and w_t: about one integer addition per member.  Both
    passes read the boxes' coordinates from one interned list of pairs.
    """
    sp = c.space
    m, n = sp.m, sp.n
    place = [m ** (n - 1 - t) for t in range(n)]
    size = sum(math.prod(map(len, box)) for box in boxes)
    if c.size * size > budget:
        raise BudgetExceededError(
            f"census of {c.size} x {size} memberships over a space of "
            f"{sp.size} vectors exceeds budget {budget}"
        )
    # Each box as indices into the distinct pairs (t, residues) at the
    # coordinates t where a box is not 0, so each pass tables a pair once.
    kinds: dict[tuple[int, tuple[int, ...]], int] = {}
    steps = [
        [kinds.setdefault((t, tuple(rs)), len(kinds)) for t, rs in enumerate(box) if any(rs)]
        for box in boxes
    ]
    if c.size * size <= sp.size and c.is_linear:
        result = _coset_census(c, list(kinds), steps, require_cover)
        if result is not None:
            return result
    # Per pair, its coordinate and, per w_t, the key deltas of its residues.
    deltas = [
        (t, [[((a + r) % m - a) * place[t] for r in rs] for a in range(m)])
        for t, rs in kinds
    ]

    def keys(w) -> list[int]:
        """Keys of w + b, b in each box in turn; a key repeats where boxes overlap."""
        found, base = [], sum(map(operator.mul, w, place))
        for box in steps:
            part = [base]
            for kind in box:
                t, row = deltas[kind]
                part = [x + d for d in row[w[t]] for x in part]
            found += part
        return found

    def coords(key: int) -> tuple[int, ...]:
        return tuple(key // p % m for p in place)

    seen: set[int] = set()
    for w in c.codewords:
        own = keys(w)
        if seen.isdisjoint(own):
            seen.update(own)
            continue
        # The keys about zero are the offsets' own, listed in the same order.
        _, first = min((o, k) for k, o in zip(own, keys((0,) * n)) if k in seen)
        return CheckResult(False, coords(first), "vector covered by two balls")
    if not require_cover or len(seen) == sp.size:
        return CheckResult(True)
    gap = next(k for k in itertools.count() if k not in seen)
    return CheckResult(False, coords(gap), "vector covered by no ball")


def check_I_perfect(c: Code, i: Ideal, budget: int = DEFAULT_BUDGET) -> CheckResult:
    return _ball_census(c, [_ball_box(c.space, i, budget)], budget, True)


def is_I_perfect(c: Code, i: Ideal, budget: int = DEFAULT_BUDGET) -> bool:
    return check_I_perfect(c, i, budget).ok


def _r_ball_coords(c: Code, r: int, budget: int):
    """The radius-r ball about zero, as disjoint boxes for `_ball_census`.

    The ball is the disjoint union of the I-spheres of the ideals with at
    most r elements, listed one cardinality at a time.  The lister adds up
    the size of every box it builds and stops once the census could not
    take |C| copies of the total, so a ball past the budget costs only the
    ideals of its first few cardinalities.  In an I-sphere each coordinate
    of a block with count w has Lee weight at most w, and a maximal block
    has weight exactly w: it splits into one box per choice of its first
    coordinate of weight w, the ones before it weighing less.
    """
    sp = c.space
    _check_radius(sp, r)
    m, room = sp.m, budget // c.size
    boxes, size = [], 0
    for card in range(r + 1):
        for i in enumerate_ideals(sp.pomset, card):
            ball = _ball_block_choices(sp, i.counts)
            top = [(i.counts[t - 1], *sp.block_bounds[t - 1]) for t in i.maximal_elements]
            for firsts in itertools.product(*(range(lo, hi) for _, lo, hi in top)):
                box = ball.copy()
                for (w, lo, _), j in zip(top, firsts):
                    box[lo:j] = [lee_ball_residues(m, w - 1)] * (j - lo)
                    box[j] = sorted({w, m - w})
                boxes.append(box)
                size += math.prod(map(len, box))
            if size > room:
                raise BudgetExceededError(
                    f"census of {c.size} codewords x a radius-{r} ball of more "
                    f"than {room} vectors exceeds budget {budget}"
                )
    return boxes


def check_r_perfect(c: Code, r: int, budget: int = DEFAULT_BUDGET) -> CheckResult:
    return _ball_census(c, _r_ball_coords(c, r, budget), budget, True)


def is_r_perfect(c: Code, r: int, budget: int = DEFAULT_BUDGET) -> bool:
    return check_r_perfect(c, r, budget).ok


def check_r_error_correcting(
    c: Code, r: int, budget: int = DEFAULT_BUDGET
) -> CheckResult:
    return _ball_census(c, _r_ball_coords(c, r, budget), budget, False)


def is_r_error_correcting(c: Code, r: int, budget: int = DEFAULT_BUDGET) -> bool:
    return check_r_error_correcting(c, r, budget).ok


def ceil_log(k: int, m: int) -> int:
    """Smallest e with m^e >= k (k >= 1)."""
    if k < 1:
        raise ValueError("k must be positive")
    e, v = 0, 1
    while v < k:
        v *= m
        e += 1
    return e


def singleton_facts(c: Code) -> tuple[int, int, int, int]:
    """(d, r, lhs, rhs) of the Singleton bound lhs >= rhs.

    r = floor((d-1)/height), lhs = n - ceil(log_m K), and rhs is the largest
    block-dimension sum over downsets of size r.  Raises
    InternalInconsistencyError if the bound fails.
    """
    sp = c.space
    d = min_distance(c)
    r = (d - 1) // sp.height
    lhs = sp.n - ceil_log(c.size, sp.m)
    rhs = max(
        sum(sp.labeling[i - 1] for i in down)
        for down in enumerate_root_downsets(sp.pomset, r)
    )
    if lhs < rhs:
        raise InternalInconsistencyError(
            f"Singleton bound violated: {lhs} < {rhs}"
        )
    return d, r, lhs, rhs


def singleton_rhs(c: Code) -> int:
    """Largest block-dimension sum over downsets of size floor((d-1)/height)."""
    return singleton_facts(c)[3]


def is_MDS(c: Code) -> bool:
    """True iff n - ceil(log_m K) meets the Singleton bound with equality."""
    _, _, lhs, rhs = singleton_facts(c)
    return lhs == rhs


def critical_ideals(c: Code) -> list[Ideal]:
    """Full-count ideals witnessing the Singleton maximum.

    These have root sets of size floor((d-1)/height) whose block dimensions
    sum to the bound's right side; for an MDS code they are exactly the
    ideals whose balls tile the space around the codewords.
    """
    sp = c.space
    _, r, _, rhs = singleton_facts(c)
    out = []
    for down in enumerate_root_downsets(sp.pomset, r):
        if sum(sp.labeling[i - 1] for i in down) == rhs:
            counts = tuple(
                sp.height if i in down else 0 for i in range(1, sp.s + 1)
            )
            out.append(Ideal(sp.pomset, counts))
    return out


def construct_I_perfect(
    space: Space, i: Ideal, f, budget: int = DEFAULT_BUDGET
) -> Code:
    """Graph code { (v, f(v)) } over a full-count ideal's block split.

    `f` maps each tuple over the blocks outside the root set to a tuple
    over the blocks inside it; the resulting code tiles the space with
    I-balls, which is verified before returning.
    """
    _require_ideal(space, i)
    if not i.is_full_count:
        raise ValueError("construction requires an ideal with full count")
    m, root = space.m, i.root_set
    # Per coordinate: True inside the root set's blocks, False outside.
    inside = [
        t in root for t, k in enumerate(space.labeling, start=1) for _ in range(k)
    ]
    in_dim = sum(inside)
    out_dim = space.n - in_dim
    if m ** out_dim > budget:
        raise BudgetExceededError(f"{m ** out_dim} codewords exceed budget {budget}")
    words = []
    for v in itertools.product(range(m), repeat=out_dim):
        w = f(v)
        w = None if w is None else tuple(w)
        if w is None or len(w) != in_dim:
            raise ValueError(
                f"f must map every outside tuple to {in_dim} inside coordinates"
            )
        ins, outs = (operator.index(x) % m for x in w), iter(v)
        words.append(tuple(next(ins) if x else next(outs) for x in inside))
    code = Code(space, words)
    result = check_I_perfect(code, i, budget)
    if not result.ok:
        raise InternalInconsistencyError(
            f"graph code failed its tiling census: {result.reason}"
        )
    return code


def block_dependency_witnesses(c: Code) -> tuple[int, list[frozenset[int]]]:
    """Smallest downset size whose parity-check blocks are linearly dependent.

    Returns the size together with every witnessing downset of that size.
    The columns H_D of the dual's generators over a downset's blocks are
    dependent when H_D*x = 0 for some nonzero x, that is when the diagonal
    form of H_D, zero padding included, has an entry that is not a unit
    mod m.  Z_m is a Frobenius ring, so the code is the annihilator of its
    dual and such an x is a codeword; the size found is therefore
    `min_ideal_root_size` for every m.
    """
    sp = c.space
    if c.size < 2:
        raise ValueError("the zero code has no dependent block set")
    m = sp.m
    # Zero rows leave every kernel unchanged.
    h = [b for b in _dual_generators(c) if any(b)]

    def dependent(down: frozenset[int]) -> bool:
        cols = [t for i in sorted(down) for t in range(*sp.block_bounds[i - 1])]
        d, _, _ = _diagonal([[row[t] for t in cols] for row in h], len(cols), m)
        return any(math.gcd(x, m) > 1 for x in d)

    for size in range(1, sp.s + 1):
        witnesses = list(filter(dependent, sp.pomset.downsets_of_size(size)))
        if witnesses:
            return size, witnesses
    raise InternalInconsistencyError("no dependent block set found")


def block_dependency_threshold(c: Code) -> int:
    return block_dependency_witnesses(c)[0]


def min_ideal_root_size(c: Code) -> int:
    """Smallest root-set size of the generated ideal over nonzero codewords.

    Independent counterpart of `block_dependency_threshold`; the two agree
    for every linear code.
    """
    if c.size < 2:
        raise ValueError("needs a nonzero codeword")
    # Only the zero word generates the empty ideal.
    closures = set(c.space.words_weight_counts(c.codewords))
    return min(filter(None, (len(k) - k.count(0) for k in closures)))


def ball_code_intersection(c: Code, i, x: Vector) -> int:
    """Exact size of { codewords inside the I-ball centered at x }.

    `i` is an Ideal or an Mset.  The ball about x is the product of the
    residues x_t + r with r within coordinate t's count, so whichever of
    the ball and the code is smaller is walked and tested against the other.
    """
    _check_space(c, x)
    sp, m = c.space, c.space.m
    shifted = _ball_block_choices(sp, _counts_of(sp, i), x.coords)
    words = c.coord_set
    if math.prod(map(len, shifted)) < c.size:
        return sum(1 for w in itertools.product(*shifted) if w in words)
    for t, residues in enumerate(shifted):
        if len(residues) < m:
            words = [w for w in words if w[t] in residues]
    return len(words)


@dataclass(frozen=True)
class WeightDistribution:
    """Codeword counts by weight, indexed 0..max_weight."""

    counts: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "counts", tuple(map(operator.index, self.counts)))

    def __getitem__(self, r: int) -> int:
        return self.counts[r]

    @property
    def total(self) -> int:
        return sum(self.counts)


def weight_distribution(c: Code) -> WeightDistribution:
    """Exact weight census over the codewords."""
    counts = [0] * (c.space.max_weight + 1)
    for closure, k in Counter(c.space.words_weight_counts(c.codewords)).items():
        counts[sum(closure)] += k
    return WeightDistribution(tuple(counts))


def mds_chain_weight_distribution(
    n: int, k: int, t: int, m: int, s: int, expected_d: int | None = None
) -> WeightDistribution:
    """Closed-form weight distribution of an MDS submodule code on a chain
    of equal block dimensions.

    Parameters are those of a linear (n, m^k, d) code with block size t on
    a chain of s blocks; d is pinned to (n-k)/t * floor(m/2) + 1, the only
    value an MDS code of these parameters can attain.
    """
    if m < 2:
        raise ValueError("modulus must be at least 2")
    if t < 1 or s < 1 or n != s * t:
        raise ValueError(f"need n = s*t, got n={n}, s={s}, t={t}")
    if not 1 <= k <= n:
        raise ValueError(f"dimension k={k} outside 1..{n}")
    if (n - k) % t:
        raise ValueError(f"t={t} must divide n-k={n - k}")
    h = m // 2
    d = (n - k) // t * h + 1
    if expected_d is not None and expected_d != d:
        raise ValueError(f"distance {expected_d} inconsistent with MDS value {d}")
    counts = [0] * (s * h + 1)
    counts[0] = 1
    for r in range(d, s * h + 1):
        # r = l*h + p + 1: l blocks below the top one, whose Lee weight is p+1.
        l, p = divmod(r - 1, h)
        top = lee_ball_size(m, p + 1) ** t - lee_ball_size(m, p) ** t
        counts[r] = top * m ** (t * l - n + k)
    if sum(counts) != m ** k:
        raise InternalInconsistencyError("distribution does not sum to m^k")
    return WeightDistribution(tuple(counts))
