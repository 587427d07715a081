"""Code-level analytics: spans, minimum distance, duals, perfectness,
the Singleton bound and MDS verification, parity-block dependence, and
weight distributions.

Spans, duals, linearity and parity-block dependence all come from one
Howell form over Z_m, so they cost what they output rather than what the
space holds.  Perfectness and error-correction checks are one exact census
of the ball translates at the codewords, `_ball_census`, which takes the
ball as boxes of per-coordinate residue lists; it keys a linear code's ball
members by their cosets, and otherwise every vector by an integer, and is
budget-guarded rather than approximate.  An I-ball is one
box, and `_r_ball_coords` splits a radius ball into disjoint boxes sphere
by sphere, so no ball is listed member by member or found by filtering the
space.  `ball_code_intersection` walks whichever of the ball and the code
is smaller.

Codewords are sorted coordinate tuples, made and read by columns:
`_lex_span` lists a span from its Howell rows already in lexicographic
order, n column lists zipped into words at the end, and minimum distance,
weight distribution and root-set sizes all weigh the words through one
column kernel, `Space.words_weight_counts`.  A code weighs its words once,
as `Code._closures`, so those facts asked of one code in turn share one
pass.  A span or a dual lists its words only when they are first read: its
size, its dual, the coset pass of the census and parity-block dependence
read the form alone.

Each code is built once, from one Howell form, kept as its `_form`, the one
witness of its linearity: a span keeps the form it was spanned from, and a
code given by its words grows a generating set until it spans them (see
`Code._form`).  The dual's Howell rows are taken once per code, as
`Code._dual_form`, and the dual, the coset census and parity-block
dependence all read them.  Words the library built itself, a span listed
from its form or words `Code.from_codewords` has just reduced, go into
`Code._trusted` as they are; `Code(space, words)` checks what a caller
gives it, by the word contract of `space`, and takes no rows.
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
from .space import Space, Vector, _check_radius, _check_space, _check_words, _reduce_words


class UndefinedDistanceError(ValueError):
    """Minimum distance requested for a single-codeword code."""


class InternalInconsistencyError(RuntimeError):
    """A proven identity failed; indicates a bug, not bad input."""


@dataclass(frozen=True)
class Code:
    """Finite nonempty set of coordinate tuples of one space, sorted.

    Every codeword is a tuple of n integer residues reduced mod m.
    `Code(space, words)` checks and de-duplicates the words it is given;
    the codes the library builds itself skip that, see `_trusted`.  A
    caller with generator rows calls `span_generator`.  `generator` records
    the rows a span or a dual was built from; only `_trusted` sets it, and
    equality, hashing and repr ignore it.  Linearity has one witness, the
    code's Howell form `_form`.

    A span or a dual keeps its Howell form and lists its words from it only
    when `codewords` is first read (see `__getattr__`); its `size` is the
    form's, so a request that reads neither the words nor a fact weighed
    over them lists none.  Equality, hashing and repr read the words, so
    they list them, and mean what they mean for a code given by its words.
    """

    space: Space
    codewords: tuple[tuple[int, ...], ...]
    generator: tuple[tuple[int, ...], ...] | None = field(
        default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        words = _check_words(self.space, self.codewords)
        object.__setattr__(self, "codewords", _distinct(words))

    @classmethod
    def _trusted(cls, space: Space, codewords=None, generator=None, form=None) -> "Code":
        """The code of words the caller built sorted, distinct and reduced; unchecked.

        The instance dict gets the fields validation would set, so a trusted
        code equals, hashes and reprs like a checked one.  `span_generator`
        and `dual_code` pass no words but the rows they built from as
        `generator`, and their Howell form, which becomes the code's `_form`
        and lists the words when they are first read.
        """
        code = object.__new__(cls)
        code.__dict__.update(space=space, generator=generator)
        if codewords is not None:
            code.__dict__["codewords"] = codewords
        if form is not None:
            code.__dict__["_form"] = form
        return code

    def __getattr__(self, name: str):
        """`codewords` of a code built from its form, listed on first read.

        Only a name missing from the instance dict comes here, so a code
        holding its words, or one read before, never does.
        """
        if name != "codewords" or "_form" not in self.__dict__:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        words = tuple(_lex_span(self._form, self.space.n, self.space.m))
        self.__dict__["codewords"] = words
        return words

    @classmethod
    def from_codewords(cls, space: Space, coord_lists) -> "Code":
        """The code of the given words, reducing signed integers mod m."""
        return cls._trusted(space, _distinct(_reduce_words(space, coord_lists)))

    @cached_property
    def size(self) -> int:
        """|C|: the words held, or else the span size of the form, unlisted."""
        words = self.__dict__.get("codewords")
        return len(words) if words is not None else _span_size(self._form, self.space.m)

    @cached_property
    def coord_set(self) -> frozenset[tuple[int, ...]]:
        return frozenset(self.codewords)

    @cached_property
    def _form(self):
        """`_howell` rows of the code, or None if it is no submodule.

        A span or a dual is given its form when `_trusted` builds it.  For
        listed codewords the form grows with a generating set: walking the
        sorted words, each word outside the current span joins the set and
        the span is relisted from the set's Howell form.  The span holds
        zero and every word walked, so once it outgrows the code the code is
        no submodule; a walk that ends within |C| words has spanned exactly
        the code.  A set without zero, or whose size does not divide m^n,
        always outgrows itself.  Each new generator at least doubles the
        span, so at most log2|C| + 1 forms are taken, each over at most that
        many rows.
        """
        n, m = self.space.n, self.space.m
        gens, form = [], []
        span = {(0,) * n}
        for w in self.codewords:
            if w not in span:
                gens.append(w)
                form = _howell(gens, n, m)
                if _span_size(form, m) > self.size:
                    return None
                span = set(_lex_span(form, n, m))
        return form

    @cached_property
    def _dual_form(self):
        """`_howell` rows of the dual, read off the Howell form of [H^T | I_n].

        For the code's Howell rows H, the rows of [H^T | I_n] span the pairs
        (H*v, v).  By the Howell property the form's rows zero on the left
        span the pairs with H*v = 0, and their right parts are the dual's.
        A code that is no submodule has no such rows: a ValueError.
        """
        if not self.is_linear:
            raise ValueError("dual code requires a linear (submodule) code")
        n, m = self.space.n, self.space.m
        h = self._form
        k = len(h)
        columns = list(zip(*h)) if h else [()] * n
        rows = [[*column, *[0] * t, 1, *[0] * (n - 1 - t)] for t, column in enumerate(columns)]
        return [row[k:] for row in _howell(rows, k + n, m) if not any(row[:k])]

    @cached_property
    def _closures(self) -> list[tuple[int, ...]]:
        """Each codeword's ideal count vector, in word order, weighed once.

        Minimum distance of a linear code, the weight distribution and the
        least root-set size all read this one list.
        """
        return self.space.words_weight_counts(self.codewords)

    @property
    def is_linear(self) -> bool:
        """True iff the code is a submodule (closed under + and -): iff it has
        a Howell form, see `_form`."""
        return self._form is not None


def _distinct(words) -> tuple[tuple[int, ...], ...]:
    """The words sorted and once each; a code holds at least one."""
    if not words:
        raise ValueError("a code must contain at least one codeword")
    return tuple(sorted(set(words)))


def _bezout(a: int, b: int) -> tuple[int, int, int]:
    """(g, x, y) with x*a + y*b = g = gcd(a, b) for a > 0 and b >= 0.

    When a divides b the answer is (a, 1, 0), so a step whose pivot already
    divides the entry leaves the pivot's row alone.
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


def _howell(rows, n: int, m: int) -> list[tuple[int, ...]]:
    """Howell form over Z_m of the submodule the rows span, as its nonzero rows.

    Row operations alone reach it (Howell, Linear Multilinear Algebra 1986;
    Storjohann and Mulders, ESA 1998).  Per column, extended-gcd steps of
    determinant 1 fold the rows still zero to its left into one pivot row,
    which a unit scales so that its pivot a divides m, and each entry above
    the pivot is reduced mod a.  The row's annihilator multiple (m/a)*row,
    zero when a = 1 and then left out, joins the other rows, which then span
    exactly the words of the span zero up to the pivot: the Howell property.
    The form is canonical, and each word of the span is sum c_i*row_i,
    0 <= c_i < m/a_i, in one way.
    """
    rest = [[x % m for x in row] for row in rows]
    form = []
    for p in range(n):
        live = [row for row in rest if row[p]]
        if not live:
            continue
        rest = [row for row in rest if not row[p]]
        pivot = live.pop()
        for row in live:
            g, x, y = _bezout(pivot[p], row[p])
            s, t = pivot[p] // g, row[p] // g
            pivot, row = ([(x * u + y * v) % m for u, v in zip(pivot, row)],
                          [(s * v - t * u) % m for u, v in zip(pivot, row)])
            rest.append(row)
        g = math.gcd(pivot[p], m)
        # Units of Z_m reach every unit of Z_(m/g), so one is found below m.
        inverse = pow(pivot[p] // g, -1, m // g)
        unit = next(u for u in range(inverse, m, m // g) if math.gcd(u, m) == 1)
        pivot = [unit * x % m for x in pivot]
        if g > 1:
            rest.append([m // g * x % m for x in pivot])
        for above in form:
            c = above[p] // g
            if c:
                above[:] = [(u - c * v) % m for u, v in zip(above, pivot)]
        form.append(pivot)
    return [tuple(row) for row in form]


def _span_size(form, m: int) -> int:
    """Words in the span of Howell rows: m/a per row of pivot a."""
    return math.prod(m // next(filter(None, row)) for row in form)


def _lex_span(form, n: int, m: int) -> list[tuple[int, ...]]:
    """Every word of the span of Howell rows, once each, in lexicographic order.

    Row by row, each word w listed so far grows in place into the m/a words
    w + (j - w_p // a)*row, j = 0 .. m/a - 1, for the row's pivot a at p.
    They hold w_p mod a + j*a at p and w's own entries left of it, where
    the words listed so far already differ, so the list stays sorted; the
    Howell property reaches each word of the span once.  Per column, a
    table maps each residue of the words w - (w_p // a)*row to its m/a
    shifted values, so no table outgrows the output, whatever the modulus.
    """
    cols = [[0] for _ in range(n)]
    for row in form:
        p = next(t for t, y in enumerate(row) if y)
        a, k = row[p], m // row[p]
        q = [x // a for x in cols[p]]
        grown = []
        for col, y in zip(cols, row):
            if y:
                col = [(x - c * y) % m for x, c in zip(col, q)]
            shifts = [j * y for j in range(k)]
            table = {x: [(x + d) % m for d in shifts] for x in set(col)}
            grown.append(list(itertools.chain.from_iterable(map(table.__getitem__, col))))
        cols = grown
    return list(zip(*cols))


def _budgeted_code(space: Space, rows, budget: int, what: str, generator=None) -> Code:
    """The code Howell rows span, once its size is known to fit the budget.

    The code keeps the rows as its form and lists the span, sorted and once
    each, only when its words are first read.
    """
    size = _span_size(rows, space.m)
    if size > budget:
        raise BudgetExceededError(f"{what} of {size} codewords exceeds budget {budget}")
    return Code._trusted(space, generator=generator, form=rows)


def span_generator(space: Space, rows, budget: int = DEFAULT_BUDGET) -> Code:
    """All linear combinations over Z_m of the given rows.

    The span is listed from the rows' Howell form, so the budget counts its
    codewords; the form is kept as the code's own.
    """
    norm = tuple(_reduce_words(space, rows))
    form = _howell(norm, space.n, space.m)
    return _budgeted_code(space, form, budget, "span", norm)


def min_distance(c: Code) -> int:
    """Least distance between distinct codewords; min nonzero weight if linear.

    A non-linear code weighs each codeword's differences with the words
    after it, one batch per codeword, so at most |C| differences are held
    at once rather than all |C|(|C| - 1)/2.
    """
    if c.size < 2:
        raise UndefinedDistanceError("minimum distance needs at least two codewords")
    # Only the zero word weighs 0.
    if c.is_linear:
        return min(filter(None, map(sum, c._closures)))
    sp, m = c.space, c.space.m
    words = c.codewords
    batches = (
        [tuple((x - y) % m for x, y in zip(u, v)) for v in words[i + 1:]]
        for i, u in enumerate(words)
    )
    return min(itertools.chain.from_iterable(
        filter(None, map(sum, sp.words_weight_counts(batch))) for batch in batches
    ))


def dual_code(c: Code, budget: int = DEFAULT_BUDGET) -> Code:
    """Annihilator { v : v . c = 0 mod m for all c }, from its Howell rows.

    The budget counts the dual's codewords; |C| * |dual| = m^n.  The dual
    records its Howell rows as generator and as form, so its own dual takes
    one Howell form of n rows.
    """
    rows = c._dual_form
    return _budgeted_code(c.space, rows, budget, "dual", tuple(rows))


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
    longer box is reduced part-way.  Past m = 128 or 8 dual rows a
    syndrome fits no such word, and the pass returns None at once.
    """
    sp = c.space
    m, n = sp.m, sp.n
    # A zero row keeps one lane when C is the whole space.
    rows = c._dual_form or [(0,) * n]
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
    residue list and w_t that a codeword holds: about one integer addition
    per member.  Both passes read the boxes' coordinates from one interned
    list of pairs.
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
    # Per pair, its coordinate and, per w_t held by a codeword or by the
    # zero offset, the key deltas of its residues.
    held = [{0, *col} for col in zip(*c.codewords)]
    deltas = [
        (t, {a: [((a + r) % m - a) * place[t] for r in rs] for a in held[t]})
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
        ins, outs = iter(w), iter(v)
        words.append(tuple(next(ins) if x else next(outs) for x in inside))
    code = Code.from_codewords(space, words)
    result = check_I_perfect(code, i, budget)
    if not result.ok:
        raise InternalInconsistencyError(
            f"graph code failed its tiling census: {result.reason}"
        )
    return code


def block_dependency_witnesses(c: Code) -> tuple[int, list[frozenset[int]]]:
    """Smallest downset size whose parity-check blocks are linearly dependent.

    Returns the size together with every witnessing downset of that size.
    The columns H_D of the dual's Howell rows over a downset's blocks are
    dependent when H_D*x = 0 for some nonzero x.  Those x are the annihilator
    of the rows of H_D in Z_m^|D|, so one exists exactly when the rows span
    fewer than m^|D| words, a size the Howell form of H_D gives.  Z_m is a
    Frobenius ring, so the code is the annihilator of its dual and such an x
    is a codeword; the size found is therefore `min_ideal_root_size` for
    every m.
    """
    sp = c.space
    if c.size < 2:
        raise ValueError("the zero code has no dependent block set")
    m = sp.m
    h = c._dual_form

    def dependent(down: frozenset[int]) -> bool:
        cols = [t for i in sorted(down) for t in range(*sp.block_bounds[i - 1])]
        form = _howell([[row[t] for t in cols] for row in h], len(cols), m)
        return _span_size(form, m) < m ** len(cols)

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
    return min(filter(None, (len(k) - k.count(0) for k in set(c._closures))))


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
    for closure, k in Counter(c._closures).items():
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
