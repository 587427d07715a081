import itertools
import math
import random
from collections import deque

import pytest
from hypothesis import given, settings, strategies as st

from conftest import orders, random_pomset
from pomsetblock import pomset as pomset_module
from pomsetblock.mset import Mset, ShapeError
from pomsetblock.oracle import verify_formula_suite
from pomsetblock.pomset import (
    CycleError,
    _transitive_closure,
    Ideal,
    NotAnIdealError,
    Pomset,
    all_ideals,
    dual_pomset,
    enumerate_ideals,
    enumerate_root_downsets,
    ideal_complement,
    ideal_generated,
    is_finer,
    is_ideal,
)
from pomsetblock.space import Space

VSHAPE = Pomset.from_relations(3, 2, [(1, 2), (1, 3)])


def test_vshape_ideal_census():
    expected_counts = {1: 1, 2: 1, 3: 2, 4: 3, 5: 2, 6: 1}
    for r, n in expected_counts.items():
        assert len(enumerate_ideals(VSHAPE, r)) == n
    listed = {
        (1, 0, 0), (2, 0, 0), (2, 1, 0), (2, 0, 1), (2, 2, 0),
        (2, 0, 2), (2, 1, 1), (2, 2, 1), (2, 1, 2), (2, 2, 2),
    }
    found = {i.counts for i in all_ideals(VSHAPE) if i.cardinality > 0}
    assert found == listed


def test_is_ideal():
    assert is_ideal(VSHAPE, Mset(3, 2, (2, 1, 0)))
    assert not is_ideal(VSHAPE, Mset(3, 2, (1, 1, 0)))
    anti = Pomset.antichain(3, 2)
    for counts in itertools.product(range(3), repeat=3):
        assert is_ideal(anti, Mset(3, 2, counts))


def test_ideal_generated():
    gen = ideal_generated(VSHAPE, Mset(3, 2, (0, 1, 0)))
    assert gen.counts == (2, 1, 0)
    chain = Pomset.chain(2, 3)
    assert ideal_generated(chain, Mset(2, 3, (0, 3))).counts == (3, 3)
    for i in all_ideals(VSHAPE):
        assert ideal_generated(VSHAPE, i) == i


def test_enumerate_ideals_against_brute_force():
    rng = random.Random(7)
    cases = [VSHAPE, Pomset.chain(3, 2), Pomset.antichain(2, 3)]
    cases += [random_pomset(rng, 4, 2) for _ in range(5)]
    for p in cases:
        brute = {
            counts
            for counts in itertools.product(range(p.height + 1), repeat=p.ground_size)
            if is_ideal(p, Mset(p.ground_size, p.height, counts))
        }
        enumerated = [i.counts for i in all_ideals(p)]
        assert len(enumerated) == len(set(enumerated))
        assert set(enumerated) == brute
        for r in range(p.ground_size * p.height + 1):
            layer = enumerate_ideals(p, r)
            assert [i.counts for i in layer] == sorted(i.counts for i in layer)
            assert {i.counts for i in layer} == {c for c in brute if sum(c) == r}


def test_chain_has_unique_ideal_per_cardinality():
    chain = Pomset.chain(3, 3)
    for r in range(10):
        assert len(enumerate_ideals(chain, r)) == 1


def test_enumerate_ideals_validation():
    with pytest.raises(ValueError):
        enumerate_ideals(VSHAPE, 7)
    assert [i.counts for i in enumerate_ideals(VSHAPE, 0)] == [(0, 0, 0)]


def test_root_downsets():
    chain = Pomset.chain(2, 2)
    assert enumerate_root_downsets(chain, 1) == [frozenset({1})]
    two_chains = Pomset.from_relations(4, 2, [(1, 2), (3, 4)])
    assert set(enumerate_root_downsets(two_chains, 3)) == {
        frozenset({1, 2, 3}),
        frozenset({1, 3, 4}),
    }
    anti = Pomset.antichain(4, 2)
    for k in range(5):
        assert len(enumerate_root_downsets(anti, k)) == math.comb(4, k)
    with pytest.raises(ValueError):
        enumerate_root_downsets(chain, 3)


def test_dual_pomset():
    chain = Pomset.chain(2, 2)
    assert dual_pomset(chain).order == frozenset({(2, 1)})
    anti = Pomset.antichain(3, 2)
    assert dual_pomset(anti) == anti
    rng = random.Random(3)
    for _ in range(10):
        p = random_pomset(rng, 4, 2)
        assert dual_pomset(dual_pomset(p)) == p


def test_dual_is_built_once_and_leaves_the_order_alone():
    rng = random.Random(29)
    for p in [VSHAPE, Pomset.chain(4, 1), Pomset.antichain(3, 2)] + [
        random_pomset(rng, s, 2) for s in range(1, 7) for _ in range(3)
    ]:
        before = (hash(p), repr(p), Pomset(p.ground_size, p.height, p.order))
        dual = dual_pomset(p)
        reversed_order = frozenset((b, a) for a, b in p.order)
        # The checked constructor accepts the reversed order as closed.
        assert dual == Pomset(p.ground_size, p.height, reversed_order)
        assert hash(dual) == hash(Pomset(p.ground_size, p.height, reversed_order))
        assert dual_pomset(p) is dual
        assert dual_pomset(dual) == p
        assert dual_pomset(dual) is p
        assert (hash(p), repr(p), p) == before
        assert p == before[2] and before[2] == p
        assert all_ideals(dual) == all_ideals(Pomset(p.ground_size, p.height, reversed_order))


def fresh_order(p):
    return Pomset(p.ground_size, p.height, p.order)


def every_query(p):
    """Each cardinality's ideals and then all of them, as count vectors."""
    layers = [enumerate_ideals(p, r) for r in range(p.ground_size * p.height + 1)]
    return [[i.counts for i in layer] for layer in [*layers, all_ideals(p)]]


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(orders())
def test_a_caller_mutating_a_returned_list_leaves_the_next_call_alone(p):
    expected = every_query(fresh_order(p))
    for _ in range(2):
        got = [enumerate_ideals(p, r) for r in range(p.ground_size * p.height + 1)]
        got.append(all_ideals(p))
        assert [[i.counts for i in layer] for layer in got] == expected
        for layer in got:
            layer.reverse()
            layer.append(None)
            del layer[0]
    assert every_query(p) == expected


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(orders())
def test_a_full_ideal_table_leaves_equality_hashing_and_repr_alone(p):
    fresh = fresh_order(p)
    before = (hash(p), repr(p))
    every_query(p)
    table = vars(p)["_ideal_levels"]
    assert len(table[None]) == len(all_ideals(fresh))
    assert p == fresh and fresh == p
    assert (hash(p), repr(p)) == before == (hash(fresh), repr(fresh))
    assert len({p, fresh}) == 1
    assert all_ideals(p) == all_ideals(fresh)


def test_a_cold_oracle_suite_builds_each_ideal_once(monkeypatch):
    # The suite lists all ideals, then asks for every radius's ball, which
    # reads each cardinality's ideals from the table `all_ideals` filled.
    built = []
    inner = pomset_module._ideals_weighing

    def counted(p, sizes, lo, hi):
        out = inner(p, sizes, lo, hi)
        built.append(len(out))
        return out

    monkeypatch.setattr(pomset_module, "_ideals_weighing", counted)
    assert verify_formula_suite(Space(5, fresh_order(VSHAPE), (1, 2, 1))).ok
    assert built == [11]
    # An order with more ideals than the table may hold builds per call.
    monkeypatch.setattr(pomset_module, "IDEAL_TABLE_LIMIT", 10)
    built.clear()
    assert verify_formula_suite(Space(5, fresh_order(VSHAPE), (1, 2, 1))).ok
    assert built[0] == 11 and sum(built) > 11


def test_all_ideals_after_every_level_builds_each_ideal_once(monkeypatch):
    # Each cardinality's ideals are asked for first, then all of them: the
    # full list is the held levels' own ideals, merged by count vector.
    expected = all_ideals(fresh_order(VSHAPE))
    built = []
    inner = pomset_module._ideals_weighing

    def counted(p, sizes, lo, hi):
        out = inner(p, sizes, lo, hi)
        built.extend(out)
        return out

    monkeypatch.setattr(pomset_module, "_ideals_weighing", counted)
    p = fresh_order(VSHAPE)
    levels = [enumerate_ideals(p, r) for r in range(p.ground_size * p.height + 1)]
    every = all_ideals(p)
    assert len(built) == len(every) == 11
    assert sorted(map(id, every)) == sorted(map(id, itertools.chain(*levels)))
    assert every == expected
    assert all_ideals(p) == every and len(built) == 11
    # With room for 10, some level is not held, so the list is built.
    monkeypatch.setattr(pomset_module, "IDEAL_TABLE_LIMIT", 10)
    built.clear()
    p = fresh_order(VSHAPE)
    for r in range(p.ground_size * p.height + 1):
        enumerate_ideals(p, r)
    assert all_ideals(p) == expected
    assert len(built) > 11


def test_ideal_complement():
    chain = Pomset.chain(2, 2)
    comp = ideal_complement(chain, Ideal(chain, (2, 0)))
    assert comp.counts == (0, 2)
    assert comp.pomset == dual_pomset(chain)
    full = Ideal(VSHAPE, (2, 2, 2))
    assert ideal_complement(VSHAPE, full).counts == (0, 0, 0)
    # An ideal of another order of the same shape is refused, not complemented.
    with pytest.raises(ShapeError, match="ideal does not belong to the given pomset"):
        ideal_complement(Pomset.antichain(3, 2), full)


def test_complements_are_exactly_dual_ideals():
    rng = random.Random(11)
    for p in [VSHAPE, Pomset.chain(3, 2)] + [random_pomset(rng, 4, 2) for _ in range(5)]:
        dual = dual_pomset(p)
        complements = {
            ideal_complement(p, i).counts for i in all_ideals(p)
        }
        assert complements == {i.counts for i in all_ideals(dual)}
        for i in all_ideals(p):
            comp = ideal_complement(p, i)
            assert comp.cardinality == p.ground_size * p.height - i.cardinality


def test_complement_is_the_validated_dual_ideal():
    # Built unchecked, each complement equals, hashes and reprs like the
    # ideal of the dual order that validation builds from its counts.
    rng = random.Random(23)
    for s in range(1, 7):
        for density in (0.0, 0.3, 0.6, 1.0):
            p = random_pomset(rng, s, rng.randint(1, 3), density)
            dual = dual_pomset(p)
            for i in all_ideals(p):
                comp = ideal_complement(p, i)
                expected = Ideal(dual, tuple(p.height - c for c in i.counts))
                assert comp == expected
                assert hash(comp) == hash(expected)
                assert repr(comp) == repr(expected)


def test_nested_ideals_of_every_cardinality_exist():
    rng = random.Random(5)
    for p in [VSHAPE] + [random_pomset(rng, 4, 2) for _ in range(5)]:
        total = p.ground_size * p.height
        ideals = all_ideals(p)
        for i in ideals:
            r = i.cardinality
            for smaller in range(r + 1):
                assert any(
                    j.cardinality == smaller
                    and all(x <= y for x, y in zip(j.counts, i.counts))
                    for j in ideals
                )
            for larger in range(r, total + 1):
                assert any(
                    j.cardinality == larger
                    and all(x >= y for x, y in zip(j.counts, i.counts))
                    for j in ideals
                )


def test_is_finer():
    chain = Pomset.chain(2, 2)
    anti = Pomset.antichain(2, 2)
    assert is_finer(anti, chain)
    assert not is_finer(chain, anti)
    assert is_finer(chain, chain)
    with pytest.raises(ShapeError):
        is_finer(chain, Pomset.antichain(3, 2))


def test_ideal_derived_sets():
    i = Ideal(VSHAPE, (2, 1, 2))
    assert i.root_set == frozenset({1, 2, 3})
    assert i.full_elements == frozenset({1, 3})
    assert i.partial_elements == frozenset({2})
    assert i.maximal_elements == frozenset({2, 3})
    assert not i.is_full_count
    assert Ideal(VSHAPE, (2, 2, 0)).is_full_count


def test_ideal_validation():
    with pytest.raises(NotAnIdealError):
        Ideal(VSHAPE, (1, 1, 0))
    with pytest.raises(ValueError):
        Ideal(VSHAPE, (3, 0, 0))


def test_relations_input_forms():
    # covering pairs are closed transitively
    p = Pomset.from_relations(3, 2, [(1, 2), (2, 3)])
    assert (1, 3) in p.order
    with pytest.raises(CycleError):
        Pomset.from_relations(2, 2, [(1, 2), (2, 1)])
    with pytest.raises(CycleError):
        Pomset.from_relations(2, 2, [(1, 1)])
    with pytest.raises(ValueError):
        Pomset(3, 2, frozenset({(1, 2), (2, 3)}))  # not closed
    with pytest.raises(ValueError):
        Pomset.from_relations(2, 2, [(1, 5)])
    # A closed order given directly is checked by the same closure pass.
    with pytest.raises(ValueError, match=r"relation \(1,5\) outside ground set 1\.\.3"):
        Pomset(3, 2, frozenset({(1, 5)}))
    with pytest.raises(CycleError, match=r"reflexive pair \(1,1\)"):
        Pomset(3, 2, frozenset({(1, 1)}))
    with pytest.raises(CycleError, match="lies on a cycle"):
        Pomset(3, 2, frozenset({(1, 2), (2, 1)}))


def test_chain_antichain_predicates():
    assert Pomset.chain(3, 2).is_chain
    assert not Pomset.chain(3, 2).is_antichain
    assert Pomset.antichain(3, 2).is_antichain
    assert not VSHAPE.is_chain


def test_repr_lists_the_order_sorted():
    # Equal orders repr alike, whatever order their pairs were inserted in.
    p = Pomset(4, 1, {(1, 3), (4, 1), (4, 3)})
    rebuilt = Pomset(p.ground_size, p.height, p.order)
    assert repr(p) == repr(rebuilt) == (
        "Pomset(ground_size=4, height=1, order=frozenset({(1, 3), (4, 1), (4, 3)}))"
    )
    assert eval(repr(p)) == p
    assert repr(Pomset.antichain(2, 3)) == "Pomset(ground_size=2, height=3, order=frozenset())"
    assert repr(Ideal(p, (0, 0, 0, 1))) == repr(Ideal(rebuilt, (0, 0, 0, 1)))


def reachability_closure(s, pairs):
    """The strict order as breadth-first reachability: (a, b) when b is
    reached from a along one or more pairs.  Pairs are checked, and the
    least element on a cycle named, as `_transitive_closure` documents."""
    above = {a: set() for a in range(1, s + 1)}
    for a, b in pairs:
        if not (1 <= a <= s and 1 <= b <= s):
            raise ValueError(f"relation ({a},{b}) outside ground set 1..{s}")
        if a == b:
            raise CycleError(f"reflexive pair ({a},{b}) not allowed in a strict order")
        above[a].add(b)
    order = set()
    for a in range(1, s + 1):
        reached, queue = set(), deque(above[a])
        while queue:
            b = queue.popleft()
            if b not in reached:
                reached.add(b)
                queue.extend(above[b])
        order.update((a, b) for b in reached)
    for b in range(1, s + 1):
        if (b, b) in order:
            raise CycleError(f"element {b} lies on a cycle")
    return frozenset(order)


@st.composite
def relations(draw):
    """A ground size and relation pairs: acyclic, cyclic, or with a reflexive
    or out-of-range pair slipped in."""
    s = draw(st.integers(1, 7))
    element = st.integers(1, s)
    pairs = draw(st.lists(st.tuples(element, element).filter(lambda p: p[0] != p[1]),
                          max_size=3 * s))
    if draw(st.booleans()):
        # Oriented along a random permutation, so acyclic.
        rank = {x: r for r, x in enumerate(draw(st.permutations(range(1, s + 1))))}
        pairs = [(a, b) if rank[a] < rank[b] else (b, a) for a, b in pairs]
    stray = draw(st.sampled_from(["none", "reflexive", "outside"]))
    if stray != "none":
        a = draw(element)
        b = a if stray == "reflexive" else draw(st.sampled_from([0, s + 1]))
        pairs.insert(draw(st.integers(0, len(pairs))), (a, b))
    return s, pairs


def outcome(closure, s, pairs):
    try:
        return closure(s, pairs)
    except ValueError as exc:
        return type(exc), str(exc)


@settings(derandomize=True, database=None, deadline=None, max_examples=400)
@given(relations())
def test_transitive_closure_matches_breadth_first_reachability(case):
    s, pairs = case
    assert outcome(_transitive_closure, s, pairs) == outcome(reachability_closure, s, pairs)


def test_from_relations_closes_the_order_once(monkeypatch):
    calls = []
    inner = pomset_module._transitive_closure

    def counted(s, pairs):
        calls.append(s)
        return inner(s, pairs)

    monkeypatch.setattr(pomset_module, "_transitive_closure", counted)
    p = Pomset.from_relations(4, 2, [(1, 2), (2, 3)])
    assert calls == [4]
    # It equals, hashes and reprs like the order given closed.
    q = Pomset(4, 2, frozenset({(2, 3), (1, 3), (1, 2)}))
    assert calls == [4, 4]
    assert (p, hash(p), repr(p)) == (q, hash(q), repr(q))
    assert Pomset.chain(3, 1) == Pomset(3, 1, frozenset({(1, 2), (1, 3), (2, 3)}))
    # A directly given order is still checked.
    with pytest.raises(ValueError, match="not transitively closed"):
        Pomset(3, 2, frozenset({(1, 2), (2, 3)}))
    with pytest.raises(CycleError, match="lies on a cycle"):
        Pomset(2, 2, frozenset({(1, 2), (2, 1)}))
    with pytest.raises(CycleError, match="reflexive"):
        Pomset(2, 2, frozenset({(1, 1)}))
    for bad, message in (((0, 2, []), "ground_size"), ((2, 0, []), "height")):
        with pytest.raises(ValueError, match=message):
            Pomset.from_relations(*bad)
        with pytest.raises(ValueError, match=message):
            Pomset(bad[0], bad[1], frozenset())
