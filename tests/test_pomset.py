import itertools
import math
import random

import pytest

from conftest import random_pomset
from pomsetblock.mset import Mset, ShapeError
from pomsetblock.pomset import (
    CycleError,
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


def test_ideal_complement():
    chain = Pomset.chain(2, 2)
    comp = ideal_complement(chain, Ideal(chain, (2, 0)))
    assert comp.counts == (0, 2)
    assert comp.pomset == dual_pomset(chain)
    full = Ideal(VSHAPE, (2, 2, 2))
    assert ideal_complement(VSHAPE, full).counts == (0, 0, 0)


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
