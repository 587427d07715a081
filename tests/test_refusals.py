"""Refusals and small protocol methods that no other test reaches.

Each refusal is asserted by its exception type and its whole message.
"""

import re

import pytest

from pomsetblock.balls import BudgetExceededError, I_ball_cardinality
from pomsetblock.codes import (
    Code,
    WeightDistribution,
    ceil_log,
    construct_I_perfect,
    mds_chain_weight_distribution,
    min_ideal_root_size,
)
from pomsetblock.mset import Mset
from pomsetblock.oracle import CheckOutcome, MetricReport, SuiteReport
from pomsetblock.pomset import Ideal, Pomset
from pomsetblock.space import Space

Z5_CHAIN = Space(5, Pomset.chain(2, 2), (1, 1))


def refused(kind, message):
    return pytest.raises(kind, match=f"^{re.escape(message)}$")


def test_construct_I_perfect_over_budget():
    i = Ideal(Z5_CHAIN.pomset, (2, 0))
    # One block outside the root set: 5 codewords, one past a budget of 4,
    # refused before f is called.
    with refused(BudgetExceededError, "5 codewords exceed budget 4"):
        construct_I_perfect(Z5_CHAIN, i, lambda v: 1 / 0, budget=4)
    # The tiling check then takes 5 x 5 memberships.
    assert construct_I_perfect(Z5_CHAIN, i, lambda v: (0,), budget=25).size == 5


def test_mds_chain_weight_distribution_refuses_a_modulus_below_two():
    with refused(ValueError, "modulus must be at least 2"):
        mds_chain_weight_distribution(2, 1, 1, 1, 2)


@pytest.mark.parametrize("k", [0, 3, -1])
def test_mds_chain_weight_distribution_refuses_a_dimension_outside_1_to_n(k):
    with refused(ValueError, f"dimension k={k} outside 1..2"):
        mds_chain_weight_distribution(2, k, 1, 5, 2)


@pytest.mark.parametrize("k", [0, -4])
def test_ceil_log_refuses_a_nonpositive_argument(k):
    with refused(ValueError, "k must be positive"):
        ceil_log(k, 5)
    assert ceil_log(1, 5) == 0 and ceil_log(6, 5) == 2


def test_min_ideal_root_size_refuses_the_zero_code():
    with refused(ValueError, "needs a nonzero codeword"):
        min_ideal_root_size(Code(Z5_CHAIN, [(0, 0)]))


def test_ball_formula_refuses_a_multiset_for_an_ideal():
    shape = Mset(2, 2, (2, 0))
    with refused(TypeError, "expected Ideal, got Mset"):
        I_ball_cardinality(Z5_CHAIN, shape)
    assert I_ball_cardinality(Z5_CHAIN, Ideal(Z5_CHAIN.pomset, (2, 0))) == 5


@pytest.mark.parametrize("ground_size, height, message", [
    (0, 2, "ground_size must be positive, got 0"),
    (-1, 2, "ground_size must be positive, got -1"),
    (2, 0, "height must be positive, got 0"),
    (2, -3, "height must be positive, got -3"),
])
def test_mset_refuses_a_ground_size_or_height_below_one(ground_size, height, message):
    with refused(ValueError, message):
        Mset(ground_size, height, ())


def test_weight_distribution_is_indexed_by_weight():
    dist = WeightDistribution((1, 0, 4))
    assert [dist[r] for r in range(3)] == [1, 0, 4]
    assert dist[-1] == 4
    with pytest.raises(IndexError):
        dist[3]


def test_reports_are_true_exactly_when_they_pass():
    assert MetricReport(True, True, 8)
    assert not MetricReport(False, False, 3, ("symmetry", (0,), (1,), None))
    suite = SuiteReport(Z5_CHAIN, [CheckOutcome("a", "pass"), CheckOutcome("b", "skip")])
    assert suite
    assert SuiteReport(Z5_CHAIN)
    suite.checks.append(CheckOutcome("c", "fail", "detail"))
    assert not suite
