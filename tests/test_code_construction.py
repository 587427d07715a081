"""Differential tests of how codes are built: the unchecked path the library
takes for words it built itself, one Howell form per code, linearity of
listed words from a growing generating set, `Code.from_codewords`' single
validating pass, and the row printer of the CLI report.

Each is checked against the checked constructor or a brute-force reference
over Z_m, prime and composite m, with zero and redundant generator rows.
Hypothesis runs derandomized, without an example database and with a
bounded number of examples, so the suite stays deterministic and quick.
"""

import contextlib
import io
import itertools
import math
import operator
import pickle
import random
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from conftest import all_coords, load_fixture, random_pomset
from pomsetblock import codes
from pomsetblock.balls import BudgetExceededError
from pomsetblock.cli import Report, _row_format
from pomsetblock.codes import (
    Code,
    _budgeted_code,
    _howell,
    _lex_span,
    block_dependency_witnesses,
    check_I_perfect,
    dual_code,
    span_generator,
)
from pomsetblock.mset import ShapeError
from pomsetblock.pomset import Ideal, Pomset, dual_pomset
from pomsetblock.space import Space


def bounded(max_examples):
    return settings(derandomize=True, database=None, deadline=None,
                    max_examples=max_examples)


SEEDS = st.integers(0, 2 ** 32 - 1)


@st.composite
def spans(draw, max_vectors=3000, moduli=(2, 3, 4, 5, 6, 7, 8, 9, 10, 12)):
    """An antichain space over Z_m and generator rows, some zero or redundant."""
    m = draw(st.sampled_from(moduli))
    n = draw(st.integers(1, max(1, int(math.log(max_vectors, m)))))
    space = Space(m, Pomset.from_relations(n, m // 2, []), (1,) * n)
    rng = random.Random(draw(SEEDS))
    rows = []
    for _ in range(draw(st.integers(0, 3))):
        # Multiples of a divisor of m give spans that are not free.
        unit = rng.choice([g for g in range(1, m + 1) if m % g == 0])
        rows.append([unit * rng.randrange(m) % m for _ in range(n)])
    if draw(st.booleans()):
        rows.insert(rng.randint(0, len(rows)), [0] * n)
    if len(rows) >= 2 and draw(st.booleans()):
        a, b = rng.randrange(m), rng.randrange(m)
        rows.append([(a * x + b * y) % m for x, y in zip(rows[0], rows[-1])])
    return space, rows


def recombined(rng, rows, m):
    """Other generators of the span of rows.

    They are the rows under random elementary operations of determinant 1
    or a unit, plus random combinations of them and multiples (m/d)*row for
    divisors d of m, shuffled.
    """
    rows = [list(row) for row in rows]
    for _ in range(3 * len(rows)):
        i, j = rng.randrange(len(rows)), rng.randrange(len(rows))
        if i != j:
            c = rng.randrange(m)
            rows[i] = [(x + c * y) % m for x, y in zip(rows[i], rows[j])]
        else:
            unit = rng.choice([u for u in range(1, m) if math.gcd(u, m) == 1])
            rows[i] = [unit * x % m for x in rows[i]]
    extra = []
    for _ in range(rng.randint(0, 2)):
        cs = [rng.randrange(m) for _ in rows]
        extra.append([sum(c * row[t] for c, row in zip(cs, rows)) % m
                      for t in range(len(rows[0]))])
    for row in rng.sample(rows, min(len(rows), 2)):
        d = rng.choice([d for d in range(1, m + 1) if m % d == 0])
        extra.append([m // d * x % m for x in row])
    rows += extra
    rng.shuffle(rows)
    return rows


def brute_span(rows, n, m):
    """Reference span: zero, grown by every multiple of each row in turn."""
    words = {(0,) * n}
    for row in rows:
        words = {tuple((x + c * y) % m for x, y in zip(w, row)) for w in words for c in range(m)}
    return words


@bounded(200)
@given(spans(max_vectors=3000, moduli=(4, 6, 8, 9, 12, 16)), SEEDS)
def test_two_generating_sets_of_one_span_give_one_howell_form(case, seed):
    space, rows = case
    n, m = space.n, space.m
    form = _howell(rows, n, m)
    if rows:
        assert _howell(recombined(random.Random(seed), rows, m), n, m) == form
    # The form is echelon with pivots dividing m, reduced above each pivot.
    pivots = [next((t, x) for t, x in enumerate(row) if x) for row in form]
    assert [t for t, _ in pivots] == sorted({t for t, _ in pivots})
    assert all(m % a == 0 for _, a in pivots)
    assert all(above[t] < a for i, (t, a) in enumerate(pivots) for above in form[:i])
    assert _howell(form, n, m) == form


@bounded(200)
@given(spans(max_vectors=3000))
def test_a_span_is_listed_in_lexicographic_order_without_a_sort(case):
    space, rows = case
    n, m = space.n, space.m
    words = _lex_span(_howell(rows, n, m), n, m)
    assert all(u < v for u, v in zip(words, words[1:]))
    assert words == sorted(brute_span(rows, n, m))


def closed(words, m):
    """Reference submodule test: zero, negatives and pairwise sums."""
    if tuple(0 for _ in next(iter(words))) not in words:
        return False
    return all(tuple(-x % m for x in a) in words for a in words) and all(
        tuple((x + y) % m for x, y in zip(a, b)) in words for a in words for b in words
    )


def assert_same_code(built, words):
    """`built` equals, hashes and reprs like the checked code of `words`."""
    checked = Code(built.space, list(words))
    assert built == checked
    assert hash(built) == hash(checked)
    assert repr(built) == repr(checked)
    assert built.codewords == checked.codewords
    assert built.size == checked.size
    assert type(built.codewords) is tuple
    assert all(type(w) is tuple for w in built.codewords)


@bounded(200)
@given(spans())
def test_trusted_codes_equal_checked_ones(case):
    space, rows = case
    n, m = space.n, space.m
    form = _howell(rows, n, m)
    words = _lex_span(form, n, m)
    assert len(set(words)) == len(words)
    built = _budgeted_code(space, form, space.size, "span")
    assert_same_code(built, words)
    code = span_generator(space, rows)
    assert_same_code(code, words)
    dual = dual_code(code)
    assert_same_code(dual, _lex_span(code._dual_form, n, m))
    assert len(set(dual.codewords)) == dual.size


@bounded(150)
@given(spans(max_vectors=400), SEEDS)
def test_is_linear_by_generating_set_matches_closure(case, seed):
    space, rows = case
    rng = random.Random(seed)
    span_words = list(span_generator(space, rows).codewords)
    # Subsets of a span, with or without zero, and sets drawn from the space.
    if rng.random() < 0.5:
        subset = rng.sample(span_words, rng.randint(1, len(span_words)))
    else:
        every = list(all_coords(space))
        subset = rng.sample(every, rng.randint(1, min(len(every), 30)))
    if rng.random() < 0.5:
        subset.append((0,) * space.n)
    code = Code.from_codewords(space, subset)
    assert code.is_linear == closed(set(subset), space.m)
    listed = Code.from_codewords(space, span_words)
    assert listed.is_linear
    # The walk's last form spans the code itself.
    assert _lex_span(listed._form, space.n, space.m) == list(listed.codewords)


def counting_howell(monkeypatch):
    """Replaces `codes._howell` by a wrapper that books each call's row count."""
    calls = []
    inner = codes._howell

    def counted(rows, n, m):
        calls.append(len(rows))
        return inner(rows, n, m)

    monkeypatch.setattr(codes, "_howell", counted)
    return calls


def test_a_span_outgrowing_the_code_part_way_ends_the_walk(monkeypatch):
    # Over Z_2^4 the first four nonzero words span 16 vectors, twice the
    # code's 8, so the walk stops with three words left unread.
    space = Space(2, Pomset.from_relations(4, 1, []), (1, 1, 1, 1))
    words = ["0000", "0001", "0010", "0100", "1000", "1001", "1010", "1100"]
    code = Code.from_codewords(space, [tuple(map(int, w)) for w in words])
    assert space.size % code.size == 0
    calls = counting_howell(monkeypatch)
    assert not code.is_linear
    assert calls == [1, 2, 3, 4]
    assert not closed(set(code.codewords), 2)


def test_a_linear_walk_takes_at_most_log_size_forms(monkeypatch):
    space = Space(6, Pomset.from_relations(3, 3, []), (1, 1, 1))
    code = span_generator(space, [[1, 2, 3], [0, 2, 4], [3, 3, 0]])
    listed = Code.from_codewords(space, list(code.codewords))
    calls = counting_howell(monkeypatch)
    assert listed.is_linear
    assert 1 <= len(calls) <= math.log2(listed.size) + 1
    assert calls == list(range(1, len(calls) + 1))
    walked = len(calls)
    # Each dual reads a form already taken, the walk's or the span's, and
    # takes one more: that of the n rows of [H^T | I_n].
    assert dual_code(listed) == dual_code(code)
    assert calls[walked:] == [space.n, space.n]


def test_the_constructor_takes_words_and_no_generator():
    # {(0,0), (0,1)} over Z_5 is no submodule, whatever rows a caller holds.
    space = Space(5, Pomset.from_relations(2, 2, [(1, 2)]), (1, 1))
    with pytest.raises(TypeError):
        Code(space, [(0, 0), (0, 1)], generator=((0, 1),))
    code = Code(space, [(0, 0), (0, 1)])
    assert not hasattr(code, "generator") and not code.is_linear
    with pytest.raises(ValueError, match="linear"):
        dual_code(code)
    for counts in ((0, 0), (2, 0)):
        assert check_I_perfect(code, Ideal(space.pomset, counts)).witness == (0, 2)
    assert span_generator(space, [(0, 1)])._form == [(0, 1)]


@st.composite
def word_sets(draw, max_vectors=400):
    """A space over Z_m, 2 <= m <= 12, on a random order, and a set of its words.

    The set is a span, a span with one word dropped or one added, a set
    without zero, a set whose size does not divide m^n, or the dual of a
    span in the dual order (the space returned is then that of the dual).
    """
    m = draw(st.integers(2, 12))
    n = draw(st.integers(1, max(1, int(math.log(max_vectors, m)))))
    rng = random.Random(draw(SEEDS))
    cuts = sorted(rng.sample(range(1, n), rng.randint(0, n - 1)))
    labeling = [b - a for a, b in zip([0, *cuts], [*cuts, n])]
    space = Space(m, random_pomset(rng, len(labeling), m // 2), labeling)
    every = list(all_coords(space))
    rows = [[rng.choice([g for g in range(1, m + 1) if m % g == 0]) * rng.randrange(m) % m
             for _ in range(n)] for _ in range(rng.randint(0, 3))]
    spanned = span_generator(space, rows)
    span = list(spanned.codewords)
    kind = draw(st.sampled_from(("span", "drop", "add", "no zero", "size", "dual")))
    if kind == "drop" and len(span) > 1:
        span.remove(rng.choice(span))
    elif kind == "add" and len(span) < len(every):
        span.append(rng.choice(sorted(set(every) - set(span))))
    elif kind == "no zero" and len(every) > 1:
        span = rng.sample(every[1:], rng.randint(1, len(every) - 1))
    elif kind == "size":
        sizes = [k for k in range(1, len(every) + 1) if space.size % k] or [1]
        span = rng.sample(every, rng.choice(sizes))
    elif kind == "dual":
        span = list(dual_code(spanned).codewords)
        space = Space(m, dual_pomset(space.pomset), space.labeling)
    return space, span


@bounded(200)
@given(word_sets())
def test_the_howell_form_alone_decides_linearity(case):
    space, words = case
    n, m = space.n, space.m
    code = Code(space, words)
    assert code.is_linear == closed(set(words), m)
    assert Code.from_codewords(space, list(reversed(words))).is_linear == code.is_linear
    if code.is_linear:
        assert code._form == _howell(list(code.codewords), n, m)


@pytest.mark.parametrize("m, n", [(2, 3), (5, 2), (6, 2), (9, 1)])
def test_the_one_word_zero_code_is_linear_with_the_whole_space_as_dual(m, n):
    space = Space(m, Pomset.from_relations(n, m // 2, []), (1,) * n)
    code = Code.from_codewords(space, [(0,) * n])
    assert code.is_linear
    assert code._form == []
    dual = dual_code(code)
    assert dual.codewords == tuple(all_coords(space))


@bounded(120)
@given(spans(max_vectors=2000))
def test_the_dual_of_listed_words_is_the_dual_of_their_generator(case):
    space, rows = case
    code = span_generator(space, rows)
    listed = Code.from_codewords(space, list(reversed(code.codewords)))
    assert listed.is_linear
    assert dual_code(listed) == dual_code(code)
    assert dual_code(listed).codewords == dual_code(code).codewords
    if code.size > 1:
        assert block_dependency_witnesses(listed) == block_dependency_witnesses(code)


def test_a_spanned_code_takes_one_howell_form_and_one_dual_form(monkeypatch):
    # span_generator takes the form of its 2 rows; the dual and an
    # I-perfectness check that the coset pass answers both read the one
    # dual form, taken of the 6 rows of [H^T | I_6].
    problem = load_fixture("mds_z5_len6")
    space, rows = problem.space, problem.code._form
    calls = counting_howell(monkeypatch)
    answers = []
    inner = codes._coset_census

    def watched(*args):
        answers.append(inner(*args))
        return answers[-1]

    monkeypatch.setattr(codes, "_coset_census", watched)
    code = span_generator(space, rows)
    dual = dual_code(code)
    result = check_I_perfect(code, Ideal(space.pomset, (2, 2, 2, 0)))
    assert (dual.size, result.ok) == (625, True)
    assert answers and answers[0] is not None
    assert calls == [2, 6]
    assert vars(dual)["_form"] is code._dual_form


@st.composite
def raw_codewords(draw):
    """Tuples or lists of ints, bools, floats or strings, signed or short."""
    m = draw(st.integers(2, 12))
    n = draw(st.integers(1, 4))
    space = Space(m, Pomset.from_relations(n, m // 2, []), (1,) * n)
    coordinate = st.one_of(
        st.integers(0, m - 1),
        st.integers(0, m - 1),
        st.integers(-2 * m, 2 * m),
        st.booleans(),
        st.sampled_from((0.0, 1.0, 1.5)),
        st.just("1"),
    )
    coords = st.lists(coordinate, min_size=n - 1, max_size=n + 1)
    word = st.tuples(st.sampled_from((tuple, list)), coords)
    words = draw(st.lists(word, max_size=6))
    return space, [kind(coords) for kind, coords in words]


def reference_from_codewords(space, coord_lists):
    """Reduce every word through `operator.index`, then the checked constructor."""
    m = space.m
    words = [tuple(operator.index(x) % m for x in w) for w in map(tuple, coord_lists)]
    return Code(space, words)


def outcome(build, space, words):
    try:
        code = build(space, words)
    except (TypeError, ShapeError, ValueError) as exc:
        return type(exc), str(exc)
    return code, code.codewords


@bounded(400)
@given(raw_codewords())
def test_from_codewords_matches_reducing_then_checking(case):
    space, words = case
    assert outcome(Code.from_codewords, space, words) == outcome(
        reference_from_codewords, space, words)


def reference_rows(key, rows):
    return [f"{key}.{j}={','.join(map(str, row))}" for j, row in enumerate(rows)]


def printed(key, rows):
    out = io.StringIO()
    rep = Report(True, out)
    rep.put_rows(key, rows)
    rep.emit()
    return out.getvalue()


@bounded(200)
@given(st.lists(st.lists(st.integers(-3, 400), min_size=1, max_size=8), max_size=12),
       st.sampled_from(("codeword", "witness", "ideal", "100%")))
def test_put_rows_prints_what_joining_printed(rows, key):
    expected = reference_rows(key, rows)
    assert printed(key, rows) == "".join(line + "\n" for line in expected)
    assert printed(key, map(tuple, rows)) == printed(key, rows)


@pytest.mark.parametrize("width", range(1, 9))
def test_put_rows_of_one_width(width):
    rows = list(itertools.islice(itertools.product(range(12), repeat=width), 40))
    assert printed("codeword", rows) == "".join(
        line + "\n" for line in reference_rows("codeword", rows))


def test_put_rows_of_no_rows_and_empty_rows():
    assert printed("downset", []) == ""
    assert printed("downset", [[]]) == "downset.0=\n"


def per_row(key, rows):
    """What `put_rows` printed one row, one Python-level format, at a time."""
    return "".join(_row_format(key, len(row)) % (j, *row) + "\n"
                   for j, row in enumerate(rows))


@pytest.mark.parametrize("rows", [
    [],
    [[7]],
    [(1, 2, 3)],
    [[]],
    [[1, 2], [3], [], [4, 5, 6, 7], [8, 9]],
    [(0,), (1, 2, 3, 4, 5, 6, 7, 8, 9), [10, 11]],
])
def test_put_rows_of_empty_one_row_and_ragged_lists_match_the_per_row_format(rows):
    for key in ("codeword", "100%"):
        assert printed(key, rows) == per_row(key, rows)
        assert printed(key, iter(rows)) == per_row(key, rows)


@contextlib.contextmanager
def counted_listings():
    """The Howell form of each `codes._lex_span` call made in the block."""
    forms, real = [], codes._lex_span
    with mock.patch.object(codes, "_lex_span",
                           lambda form, n, m: forms.append(form) or real(form, n, m)):
        yield forms


@bounded(100)
@given(spans())
def test_a_span_lists_its_words_on_first_read_and_equals_the_listed_code(case):
    # Fails at the parent, which listed every span when it was built.
    space, rows = case
    n, m = space.n, space.m
    words = _lex_span(_howell(rows, n, m), n, m)
    checked = Code(space, list(words))
    with counted_listings() as forms:
        sized = span_generator(space, rows)
        assert sized.size == len(words) and not forms
        assert "codewords" not in vars(sized)
        for same in (operator.eq, lambda a, b: hash(a) == hash(b),
                     lambda a, b: repr(a) == repr(b)):
            fresh = span_generator(space, rows)
            assert same(fresh, checked)
            assert vars(fresh)["codewords"] == checked.codewords
        assert len(forms) == 3
        assert sized.codewords is sized.codewords and len(forms) == 4
        assert type(sized.codewords) is tuple
        dual = dual_code(sized)
        assert dual.size * sized.size == space.size and len(forms) == 4


def test_a_span_past_its_budget_is_refused_when_built():
    # The budget is checked at construction, before any word is listed.
    # Fails at the parent, which listed every span that fit.
    space = Space(5, Pomset.from_relations(2, 2, []), (1, 2))
    rows = [(1, 0, 0), (0, 1, 2)]
    with counted_listings() as forms:
        assert span_generator(space, rows, budget=25).size == 25
        with pytest.raises(BudgetExceededError, match="^span of 25 codewords exceeds budget 24$"):
            span_generator(space, rows, budget=24)
        code = span_generator(space, rows)
        with pytest.raises(BudgetExceededError, match="^dual of 5 codewords exceeds budget 4$"):
            dual_code(code, budget=4)
    assert forms == []


def test_listing_on_first_read_leaves_other_attributes_and_pickling_alone():
    space = Space(5, Pomset.from_relations(1, 2, []), (1,))
    for code in (Code(space, [(0,), (1,)]), span_generator(space, [(1,)])):
        with pytest.raises(AttributeError, match="no attribute 'missing'"):
            code.missing
        assert pickle.loads(pickle.dumps(code)) == code
