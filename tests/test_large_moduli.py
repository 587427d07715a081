"""Memory on the code path stays independent of m^2 for large moduli.

Loading a spanned code (`codes._lex_span`) and the translate census
(`codes._ball_census`) table shifts only over the residues that actually
occur, so a large modulus costs memory in the code's size and the ball's,
not m x m.  The differential tests compare both against the full-table
versions they replaced, on random small spaces.  The word contract
(`space._check_words`, `space._reduce_words`), `balls.lee_ball_residues`
and the Lee table `Space._lee` cost what the words and residues they
return or read cost, not m.  The ball rows `Space._ball_rows` hold every
factor below a height of `BALL_ROW_LIMIT` and none at or past it, and a
huge modulus's intersection, radius census and radius sweep list no
residue and no ideal beyond what their answer needs.
"""

import itertools
import math
import operator
import random
import time
import tracemalloc
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from conftest import orders
from pomsetblock import codes, space as space_module
from pomsetblock.balls import (
    BudgetExceededError,
    I_ball_cardinality,
    I_sphere_cardinality,
    lee_ball_residues,
    r_ball_cardinality,
)
from pomsetblock.cli import problem_from_dict
from pomsetblock.codes import Code, CheckResult, _ball_census, _howell, _lex_span, _span_size
from pomsetblock.mset import Mset
from pomsetblock.pomset import Ideal, Pomset, all_ideals
from pomsetblock.space import BALL_ROW_LIMIT, Space, distance

M = 4001
PEAK_LIMIT = 8 * 2 ** 20  # A full m x m table at M holds 128 MiB of pointers alone.


def traced_peak(fn):
    tracemalloc.start()
    try:
        result = fn()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_a_spanned_code_over_a_large_modulus_loads_in_little_memory():
    doc = {"m": M, "pomset": {"s": 1, "relations": []}, "labeling": [1],
           "code": {"generator": [[1]]}}
    problem, peak = traced_peak(lambda: problem_from_dict(doc))
    assert problem.code.size == M
    assert problem.code.codewords == tuple((x,) for x in range(M))
    assert codes.singleton_facts(problem.code) == (1, 0, 0, 0)
    assert peak < PEAK_LIMIT


def test_a_census_over_a_large_modulus_tables_only_held_residues():
    doc = {"m": M, "pomset": {"s": 2, "relations": [[1, 2]]}, "labeling": [1, 1],
           "code": {"codewords": [[0, 0], [0, 1]]}}
    problem = problem_from_dict(doc)
    ideal = Ideal(problem.space.pomset, (M // 2, 0))
    result, peak = traced_peak(lambda: codes.check_I_perfect(problem.code, ideal))
    assert result == CheckResult(False, (0, 2), "vector covered by no ball")
    assert peak < PEAK_LIMIT


def line(m):
    """One coordinate over Z_m."""
    return Space(m, Pomset.from_relations(1, m // 2, []), (1,))


def elapsed(fn):
    start = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - start


def test_listed_words_over_a_large_modulus_load_in_little_memory():
    # Testing residues against range(m) peaked at 67 MiB here.
    space = line(10 ** 6)
    code, peak = traced_peak(lambda: Code.from_codewords(space, [[0], [-1]]))
    assert code.codewords == ((0,), (10 ** 6 - 1,))
    assert peak < 2 ** 20


def test_vectors_and_codes_over_a_huge_modulus_are_checked_in_time_linear_in_the_words():
    # Testing residues against range(m) took about 1.7 s per call here.
    m = 10 ** 8
    space = line(m)
    u, took = elapsed(lambda: space.vector([-3]))
    assert u.coords == (m - 3,) and took < 0.1
    code, took = elapsed(lambda: Code(space, [(0,), (m - 1,)]))
    assert code.codewords == ((0,), (m - 1,)) and took < 0.1
    d, took = elapsed(lambda: distance(u, space.vector([5])))
    assert d == 8 and took < 0.1


def test_the_lee_table_of_a_huge_modulus_holds_only_the_residues_read():
    # A table of every residue took 10^8 entries and ran out of memory.
    m = 10 ** 8
    space = line(m)
    code = Code(space, [(0,), (1,)])
    (facts, weight), peak = traced_peak(
        lambda: (codes.singleton_facts(code), space.coords_weight((m - 3,))))
    assert facts == (1, 0, 0, 0) and weight == 3
    assert peak < 2 ** 20
    table = space.__dict__["_lee"]
    assert m - 3 in table and len(table) <= 3
    assert all(w == min(x, m - x) for x, w in table.items())


def stored_factors(space):
    """The I-ball factors a space's ball rows hold as lists."""
    return sum(len(row) for row in space._ball_rows if isinstance(row, list))


def test_closed_forms_of_a_huge_modulus_store_no_ball_factor():
    # Rows through the height held 5 * 10^5 factors a block at this m.
    m = 10 ** 6 + 3
    space = Space(m, Pomset.from_relations(2, m // 2, []), (1, 2))
    ideal = Ideal(space.pomset, (1, 2))
    sizes, peak = traced_peak(lambda: (
        I_ball_cardinality(space, ideal),
        I_sphere_cardinality(space, ideal),
        r_ball_cardinality(space, 1),
    ))
    assert sizes == (3 * 5 ** 2, 2 * (5 ** 2 - 3 ** 2), 1 + 2 + (3 ** 2 - 1))
    assert peak < 2 ** 20
    assert stored_factors(space) == 0


def test_ball_factors_past_the_row_limit_are_worked_out_per_call_and_not_stored():
    # A count near h grew each row through it: 5 * 10^7 factors, a MemoryError.
    m = 10 ** 8 + 7
    h = m // 2
    space = Space(m, Pomset.from_relations(2, h, [[1, 2]]), (1, 2))
    near, full = Ideal(space.pomset, (h - 2, 0)), Ideal(space.pomset, (h, 3))
    sizes, peak = traced_peak(lambda: (
        I_ball_cardinality(space, near),
        I_sphere_cardinality(space, near),
        I_ball_cardinality(space, full),
        I_sphere_cardinality(space, full),
    ))
    assert sizes == (m - 4, 2, m * 7 ** 2, m * (7 ** 2 - 5 ** 2))
    assert peak < 2 ** 16
    assert stored_factors(space) == 0
    # Just below the limit the rows hold all h + 1 factors, built whole on
    # the first read; at the limit they hold none.
    for h, stored in ((BALL_ROW_LIMIT - 1, BALL_ROW_LIMIT), (BALL_ROW_LIMIT, 0)):
        m = 2 * h + 1
        space = Space(m, Pomset.from_relations(2, h, []), (1, 2))
        assert I_ball_cardinality(space, Ideal(space.pomset, (1, 0))) == 3
        assert stored_factors(space) == 2 * stored
        rows = space._ball_rows
        assert [[row[c] for c in range(h + 1)] for row in rows] == [
            [min(2 * c + 1, m) ** k for c in range(h + 1)] for k in (1, 2)]


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(orders(max_size=5, max_height=4), st.integers(0, 2 ** 32 - 1))
def test_full_ball_rows_match_the_computed_factors(order, seed):
    rng = random.Random(seed)
    m = 2 * order.height + rng.randint(0, 1)
    labeling = [rng.randint(1, 3) for _ in range(order.ground_size)]
    full, computed = Space(m, order, labeling), Space(m, order, labeling)
    with mock.patch.object(space_module, "BALL_ROW_LIMIT", 0):
        assert stored_factors(computed) == 0
    assert stored_factors(full) == len(labeling) * (order.height + 1)
    for i in all_ideals(order):
        assert I_ball_cardinality(full, i) == I_ball_cardinality(computed, i)
        assert I_sphere_cardinality(full, i) == I_sphere_cardinality(computed, i)
    for r in range(full.max_weight + 1):
        assert r_ball_cardinality(full, r) == r_ball_cardinality(computed, r)


def test_an_intersection_over_a_huge_modulus_lists_no_residue():
    # Shifting the residues of a count near h listed 10^8 of them, a MemoryError.
    m = 10 ** 8 + 7
    h = m // 2
    code = Code(line(m), [(0,), (1,)])
    # Word 1 lies h - 1 below center h, word 0 h - 1 above center h + 2,
    # and the other word h away from each.
    for count, center, expected in (
            (h, 1, 2), (0, 1, 1), (h - 1, 1, 2), (h - 1, h, 1), (h - 1, h + 2, 1)):
        found, peak = traced_peak(lambda: codes.ball_code_intersection(
            code, Mset(1, h, (count,)), code.space.vector([center])))
        assert found == expected and peak < 2 ** 16


def test_a_census_of_a_huge_radius_is_refused_before_any_ball_is_listed():
    # Listing the spheres cached one residue tuple per count, a MemoryError.
    m = 10 ** 8 + 7
    code = Code(line(m), [(0,), (1,)])
    message = (f"census of 2 codewords x a radius-{m // 2} ball of more than "
               f"5000000 vectors exceeds budget 10000000")
    for check in (codes.check_r_perfect, codes.check_r_error_correcting):
        with pytest.raises(BudgetExceededError, match=f"^{message}$"):
            check(code, m // 2)


def test_a_long_radius_sweep_keeps_its_ideal_count_in_step():
    # Re-counting the held ideals on every new level took 8 s to r = 20000.
    space = line(10 ** 8 + 7)
    size, took = elapsed(lambda: r_ball_cardinality(space, 20000))
    assert size == 2 * 20000 + 1 and took < 2
    table = vars(space.pomset)["_ideal_levels"]
    assert table.held == sum(len(kept) for key, kept in table.items() if key is not None)


def test_lee_ball_residues_of_a_huge_modulus_cost_their_own_size():
    # Scanning every residue took 1.3 s.
    residues, took = elapsed(lambda: lee_ball_residues(10 ** 7, 1))
    assert residues == (0, 1, 10 ** 7 - 1) and took < 0.01
    m = 10 ** 12 + 39
    assert lee_ball_residues(m, 0) == (0,)
    assert lee_ball_residues(m, 3) == (0, 1, 2, 3, m - 3, m - 2, m - 1)


def test_a_radius_census_keeps_no_residue_list_once_it_returns():
    # A process-wide cache of residue tuples kept one per count, O(r^2)
    # residues: 32 MB still held after this census.
    code = Code(line(10 ** 8 + 7), [(0,), (1,)])
    tracemalloc.start()
    try:
        result = codes.check_r_perfect(code, 1000)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert not result.ok and held < 2 * 2 ** 20


def reference_lex_span(form, n, m):
    """The full-table version: row j*row_t of the m x m addition table per shift."""
    add = [[(x + y) % m for y in range(m)] for x in range(m)]
    cols = [[0] for _ in range(n)]
    for row in form:
        p = next(t for t, y in enumerate(row) if y)
        k = m // row[p]
        q = [x // row[p] for x in cols[p]]
        cols = [
            list(itertools.chain.from_iterable(
                [add[(x - c * y) % m][j * y % m] for j in range(k)]
                for x, c in zip(col, q)
            ))
            for col, y in zip(cols, row)
        ]
    return list(zip(*cols))


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(st.integers(2, 40), st.integers(1, 5), st.integers(0, 4), st.integers(0, 2 ** 32 - 1))
def test_lex_span_matches_the_full_table(m, n, k, seed):
    rng = random.Random(seed)
    # Sparse rows leave many zero columns; the rest are random residues.
    rows = [[rng.choice((0, rng.randrange(m))) for _ in range(n)] for _ in range(k)]
    form = _howell(rows, n, m)
    if _span_size(form, m) > 5000:
        return
    assert _lex_span(form, n, m) == reference_lex_span(form, n, m)


def reference_translate_census(c, boxes, require_cover):
    """The translate census with key deltas tabled for every w_t in 0..m-1."""
    m, n = c.space.m, c.space.n
    place = [m ** (n - 1 - t) for t in range(n)]
    tables = [
        [(t, [[((a + r) % m - a) * place[t] for r in rs] for a in range(m)])
         for t, rs in enumerate(box) if any(rs)]
        for box in boxes
    ]

    def keys(w):
        found, base = [], sum(map(operator.mul, w, place))
        for box in tables:
            part = [base]
            for t, row in box:
                part = [x + d for d in row[w[t]] for x in part]
            found += part
        return found

    def coords(key):
        return tuple(key // p % m for p in place)

    seen = set()
    for w in c.codewords:
        own = keys(w)
        if seen.isdisjoint(own):
            seen.update(own)
            continue
        _, first = min((o, k) for k, o in zip(own, keys((0,) * n)) if k in seen)
        return CheckResult(False, coords(first), "vector covered by two balls")
    if not require_cover or len(seen) == c.space.size:
        return CheckResult(True)
    gap = next(k for k in itertools.count() if k not in seen)
    return CheckResult(False, coords(gap), "vector covered by no ball")


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(st.integers(2, 30), st.integers(1, 3), st.booleans(), st.integers(0, 2 ** 32 - 1))
def test_translate_census_matches_the_full_table(m, n, cover, seed):
    rng = random.Random(seed)
    space = Space(m, Pomset.from_relations(n, m // 2, []), (1,) * n)
    # Centers drawn from a few residues per coordinate, so most are not held.
    held = [rng.sample(range(m), rng.randint(1, min(m, 4))) for _ in range(n)]
    centers = {tuple(rng.choice(h) for h in held) for _ in range(rng.randint(1, 12))}
    code = Code.from_codewords(space, sorted(centers))
    boxes = [[rng.sample(range(m), rng.randint(1, m)) for _ in range(n)]
             for _ in range(rng.randint(1, 2))]
    size = sum(math.prod(map(len, box)) for box in boxes)
    assert (_ball_census(code, boxes, code.size * size, cover)
            == reference_translate_census(code, boxes, cover))
