import itertools
import random
import tracemalloc

import pytest

import pomsetblock
from conftest import all_coords, load_fixture
from pomsetblock.balls import in_I_ball
from pomsetblock.codes import (
    Code,
    UndefinedDistanceError,
    WeightDistribution,
    ball_code_intersection,
    block_dependency_witnesses,
    ceil_log,
    check_I_perfect,
    check_r_error_correcting,
    check_r_perfect,
    construct_I_perfect,
    critical_ideals,
    dual_code,
    is_MDS,
    mds_chain_weight_distribution,
    min_distance,
    min_ideal_root_size,
    singleton_rhs,
    span_generator,
    weight_distribution,
)
from pomsetblock.mset import Mset, ShapeError, msum
from pomsetblock.pomset import (
    Ideal,
    Pomset,
    all_ideals,
    dual_pomset,
    enumerate_ideals,
    ideal_complement,
)
from pomsetblock.space import Space


def make_space(m, relations, labeling):
    return Space(m, Pomset.from_relations(len(labeling), m // 2, relations), labeling)


Z5_CHAIN = make_space(5, [(1, 2)], (1, 1))
CHAIN_REPETITION = span_generator(Z5_CHAIN, [[0, 1]])


def test_span_generator():
    fixture = load_fixture("mds_z5_len6")
    assert fixture.code.size == 25
    sp = make_space(6, [], (1,))
    assert set(span_generator(sp, [[3]]).codewords) == {(0,), (3,)}
    zero = span_generator(sp, [[0]])
    assert zero.codewords == ((0,),)
    with pytest.raises(ShapeError):
        span_generator(sp, [[1, 2]])
    with pytest.raises(ShapeError, match="expected 1 coordinates, got 0"):
        span_generator(sp, [[3], []])


def test_min_distance_fixtures():
    assert min_distance(load_fixture("mds_z5_len6").code) == 7
    assert min_distance(load_fixture("mds_equal_blocks_z5").code) == 5
    assert min_distance(load_fixture("mds_chain_z6").code) == 6
    assert min_distance(load_fixture("mds_z5_len3").code) == 3
    assert min_distance(load_fixture("iperfect_z9_repetition").code) == 3
    assert min_distance(load_fixture("iperfect_z9_mds").code) == 5


def test_min_distance_undefined_for_singleton():
    sp = make_space(5, [], (1, 1))
    with pytest.raises(UndefinedDistanceError):
        min_distance(Code.from_codewords(sp, [(0, 0)]))


def test_code_guards():
    sp = make_space(5, [], (1, 1))
    assert Code(sp, ((1, 2), (0, 0), (1, 2))).codewords == ((0, 0), (1, 2))
    with pytest.raises(ValueError, match="at least one"):
        Code(sp, ())
    with pytest.raises(ShapeError, match="expected 2 coordinates, got 3"):
        Code(sp, ((0, 0), (0, 0, 0)))
    with pytest.raises(ShapeError, match="coordinate 5 not reduced mod 5"):
        Code(sp, ((0, 0), (0, 5)))


def test_constructors_reject_non_integers():
    p = Pomset.antichain(2, 2)
    sp = Space(5, p, (1, 1))
    for build in (
        lambda: Mset(1, 2, (1.9,)),
        lambda: Ideal(p, (2.7, True)),
        lambda: Space(5, p, (1.9, 1)),
        lambda: sp.vector((6.9, -1.2)),
        lambda: span_generator(sp, [[1.5, 2]]),
        lambda: Code.from_codewords(sp, [(0, "1")]),
        lambda: Pomset(2, 2, frozenset({(1.0, 2)})),
        lambda: Pomset.from_relations(2, 2, [(1.5, 2)]),
        lambda: construct_I_perfect(sp, Ideal(p, (2, 0)), lambda v: (0.5,)),
        lambda: Code(sp, [(1.0, 0), (0, 0)]),
        lambda: WeightDistribution((1.7, 2)),
    ):
        with pytest.raises(TypeError):
            build()


def test_min_distance_nonlinear_matches_pairwise():
    code = load_fixture("iperfect_z9_mds").code
    assert not code.is_linear
    sp = code.space
    from pomsetblock.space import distance

    brute = min(
        distance(sp.vector(u), sp.vector(v))
        for u, v in itertools.combinations(code.codewords, 2)
    )
    assert min_distance(code) == brute


def test_min_distance_of_a_non_linear_code_holds_one_codeword_s_differences():
    # 400 random words over Z_5^8: the 79 800 differences of all pairs at
    # once peaked at about 20 MiB; one codeword's at a time stay near 0.3 MiB.
    rng = random.Random(1)
    sp = Space(5, Pomset.from_relations(4, 2, [(1, 2), (3, 4)]), (2, 2, 2, 2))
    code = Code.from_codewords(
        sp, {tuple(rng.randrange(5) for _ in range(8)) for _ in range(400)}
    )
    assert code.size == 400 and not code.is_linear
    tracemalloc.start()
    try:
        d = min_distance(code)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert d == 1
    assert peak < 2 * 2 ** 20


def test_dual_code():
    sp = make_space(3, [], (1, 1))
    trivial = Code.from_codewords(sp, [(0, 0)])
    assert dual_code(trivial).size == 9

    code = load_fixture("iperfect_not_mds_z6").code
    dual = dual_code(code)
    assert dual.size == 54
    assert set(dual.codewords) == {
        (a, b, c)
        for a in range(6)
        for b in (0, 2, 4)
        for c in (0, 2, 4)
    }
    with pytest.raises(ValueError):
        dual_code(load_fixture("iperfect_z9_mds").code)


def test_a_non_linear_code_has_no_dual_form():
    code = Code(make_space(5, [(1, 2)], (1, 1)), [(0, 0), (1, 0)])
    for read in (lambda: code._dual_form, lambda: dual_code(code),
                 lambda: block_dependency_witnesses(code)):
        with pytest.raises(ValueError, match=r"^dual code requires a linear \(submodule\) code$"):
            read()


def test_dual_size_product_for_prime_modulus():
    rng = random.Random(4)
    # The product holds over composite moduli too.
    for m in (5,) * 10 + (6, 8) * 5:
        sp = make_space(m, [(1, 2)], (rng.randint(1, 2), rng.randint(1, 2)))
        rows = [
            [rng.randrange(m) for _ in range(sp.n)]
            for _ in range(rng.randint(1, 2))
        ]
        code = span_generator(sp, rows)
        assert code.size * dual_code(code).size == sp.size


def test_linearity_detection():
    assert load_fixture("perfect_r1_z5").code.is_linear
    assert load_fixture("iperfect_not_mds_z6").code.is_linear
    assert not load_fixture("iperfect_z9_mds").code.is_linear
    sp = make_space(5, [], (1, 1))
    assert not Code.from_codewords(sp, [(1, 1), (2, 2)]).is_linear  # no zero


def test_I_perfect_fixture_codes():
    pr = load_fixture("partial_perfect_z6")
    assert check_I_perfect(pr.code, pr.ideal).ok
    d_example = load_fixture("iperfect_not_mds_z6")
    assert check_I_perfect(d_example.code, d_example.ideal).ok
    z9 = load_fixture("iperfect_z9_mds")
    assert check_I_perfect(z9.code, z9.ideal).ok
    z9rep = load_fixture("iperfect_z9_repetition")
    assert check_I_perfect(z9rep.code, z9rep.ideal).ok
    chain = load_fixture("mds_chain_z6")
    assert check_I_perfect(chain.code, chain.ideal).ok


def test_r_perfect_examples():
    one = load_fixture("perfect_r1_z5")
    assert check_r_perfect(one.code, 1).ok
    pr = load_fixture("partial_perfect_z6")
    check = check_r_perfect(pr.code, 4)
    assert not check.ok and check.witness is not None
    pr_chain = load_fixture("partial_perfect_z6_chain")
    assert check_r_perfect(pr_chain.code, 4).ok
    # The radius is checked before the space is measured against the budget.
    with pytest.raises(ValueError, match=r"radius 99 outside 0\.\.8"):
        check_r_perfect(load_fixture("mds_z5_len6").code, 99, budget=100)


def test_check_results_are_truthy_exactly_when_ok():
    # Each verdict has one entry point, its check_* function, whose result
    # is the verdict when read as a bool; no bool-returning twin remains.
    pr = load_fixture("partial_perfect_z6")
    mds = load_fixture("mds_z5_len6")
    one = load_fixture("perfect_r1_z5")
    results = {
        "I-perfect": check_I_perfect(pr.code, pr.ideal),
        "I-ball gap": check_I_perfect(mds.code, Ideal(mds.space.pomset, (1, 0, 0, 0))),
        "r-perfect": check_r_perfect(one.code, 1),
        "r-ball overlap": check_r_perfect(pr.code, 4),
        "0-error-correcting": check_r_error_correcting(pr.code, 0),
        "4-error overlap": check_r_error_correcting(pr.code, 4),
    }
    assert [r.ok for r in results.values()] == [True, False] * 3
    for name, result in results.items():
        assert bool(result) == result.ok, name
        assert (result.witness is None) == result.ok, name
    assert results["I-ball gap"].reason == "vector covered by no ball"
    removed = ("is_I_perfect", "is_r_perfect", "is_r_error_correcting",
               "block_dependency_threshold")
    for name in removed:
        assert not hasattr(pomsetblock, name), name
        assert not hasattr(pomsetblock.codes, name), name
    assert not hasattr(Space, "iter_coords")
    assert not hasattr(Pomset, "downsets")


def test_code_equality_ignores_how_the_code_was_built():
    code = load_fixture("mds_z5_len6").code
    assert "_form" in vars(code)
    plain = Code(code.space, code.codewords)
    assert code == plain and len({code, plain}) == 1
    dual = dual_code(code)
    plain_dual = Code(code.space, dual.codewords)
    assert dual == plain_dual and len({dual, plain_dual}) == 1


def test_quoted_witness_lies_in_two_four_balls():
    pr = load_fixture("partial_perfect_z6")
    witness = pr.space.vector((2, 1, 0))
    shared = Mset(2, 3, (2, 2))
    assert in_I_ball(witness, pr.space.vector((3, 0, 0)), shared)
    assert in_I_ball(witness, pr.space.vector((0, 3, 0)), shared)
    assert shared.cardinality == 4


def test_r_error_correcting():
    pr = load_fixture("partial_perfect_z6")
    assert check_r_error_correcting(pr.code, 0).ok
    assert not check_r_error_correcting(pr.code, 4).ok
    one = load_fixture("perfect_r1_z5")
    assert check_r_error_correcting(one.code, 1).ok


def test_singleton_rhs():
    assert singleton_rhs(load_fixture("mds_z5_len6").code) == 4
    assert singleton_rhs(load_fixture("mds_equal_blocks_z5").code) == 4
    assert singleton_rhs(load_fixture("iperfect_not_mds_z6").code) == 0


def test_is_MDS_fixtures():
    expectations = {
        "mds_z5_len6": True,
        "mds_equal_blocks_z5": True,
        "mds_z5_len3": True,
        "mds_chain_z6": True,
        "iperfect_z9_mds": True,
        "perfect_r1_z5": True,
        "iperfect_not_mds_z6": False,
        "iperfect_z9_repetition": False,
        "partial_perfect_z6": False,
    }
    for name, expected in expectations.items():
        assert is_MDS(load_fixture(name).code) == expected, name


def test_ceil_log():
    assert ceil_log(1, 5) == 0
    assert ceil_log(5, 5) == 1
    assert ceil_log(6, 5) == 2
    assert ceil_log(25, 5) == 2


def test_mds_iff_I_perfect_on_linear_power_fixtures():
    for name in ("mds_z5_len6", "mds_equal_blocks_z5", "mds_z5_len3", "perfect_r1_z5"):
        code = load_fixture(name).code
        sp = code.space
        k = ceil_log(code.size, sp.m)
        assert code.size == sp.m ** k
        d = min_distance(code)
        r = (d - 1) // sp.height
        crit = critical_ideals(code)
        if is_MDS(code):
            assert crit
            for i in crit:
                assert check_I_perfect(code, i).ok, (name, str(i))
        # Converse: full-count ideals at the critical cardinality that tile
        # the space certify MDS.
        for i in enumerate_ideals(sp.pomset, sp.height * r):
            if i.is_full_count and check_I_perfect(code, i).ok:
                assert is_MDS(code)


def test_non_mds_code_has_no_critical_perfect_ideal():
    sp = make_space(5, [], (1, 1))
    code = span_generator(sp, [[1, 1]])
    assert not is_MDS(code)
    d = min_distance(code)
    r = (d - 1) // sp.height
    for i in enumerate_ideals(sp.pomset, sp.height * r):
        if i.is_full_count:
            assert not check_I_perfect(code, i).ok


def test_dual_perfectness_equivalence():
    for name in ("mds_z5_len6", "mds_equal_blocks_z5", "perfect_r1_z5"):
        code = load_fixture(name).code
        sp = code.space
        dual_sp = Space(sp.m, dual_pomset(sp.pomset), sp.labeling)
        dual = dual_code(code)
        dual = Code(dual_sp, dual.codewords)
        for i in all_ideals(sp.pomset):
            if not i.is_full_count or i.cardinality == 0:
                continue
            comp = ideal_complement(sp.pomset, i)
            assert check_I_perfect(code, i).ok == check_I_perfect(dual, comp).ok, (name, str(i))


def _all_duality_conditions(code):
    """The five equivalent characterizations of an MDS equal-dimension code."""
    sp = code.space
    t = sp.labeling[0]
    k = ceil_log(code.size, sp.m)
    lh = sp.height
    dual_sp = Space(sp.m, dual_pomset(sp.pomset), sp.labeling)
    dual = dual_code(code)
    dual = Code(dual_sp, dual.codewords)

    cond1 = is_MDS(code)
    cond2 = all(
        check_I_perfect(code, i).ok
        for i in enumerate_ideals(sp.pomset, (sp.n - k) // t * lh)
        if i.is_full_count
    )
    cond3 = all(
        check_I_perfect(dual, i).ok
        for i in enumerate_ideals(dual_sp.pomset, k // t * lh)
        if i.is_full_count
    )
    cond4 = is_MDS(dual)
    cond5 = True
    for i in all_ideals(sp.pomset):
        if not i.is_full_count:
            continue
        l = len(i.root_set)
        ball = None
        counts = {}
        for x_coords in all_coords(sp):
            counts[x_coords] = ball_code_intersection(code, i, sp.vector(x_coords))
        if l * t >= sp.n - k:
            expected = sp.m ** (t * l - sp.n + k)
            if any(c != expected for c in counts.values()):
                cond5 = False
                break
        else:
            if any(c not in (0, 1) for c in counts.values()):
                cond5 = False
                break
            covered = sum(1 for c in counts.values() if c == 1)
            if covered != code.size * sp.m ** (t * l):
                cond5 = False
                break
    return cond1, cond2, cond3, cond4, cond5


def test_equal_dimension_duality_chain():
    positive = load_fixture("perfect_r1_z5").code
    conditions = _all_duality_conditions(positive)
    assert all(conditions), conditions

    sp = make_space(5, [], (1, 1))
    negative = span_generator(sp, [[0, 1]])
    conditions = _all_duality_conditions(negative)
    assert not any(conditions), conditions


def test_equal_dimension_duality_chain_len6():
    code = load_fixture("mds_equal_blocks_z5").code
    conditions = _all_duality_conditions(code)
    assert all(conditions), conditions


def test_construct_I_perfect():
    sp = Z5_CHAIN
    i = Ideal(sp.pomset, (2, 0))
    doubled = construct_I_perfect(sp, i, lambda v: (2 * v[0],))
    assert set(doubled.codewords) == {(2 * y % 5, y) for y in range(5)}
    assert check_I_perfect(doubled, i).ok
    assert construct_I_perfect(sp, i, lambda v: iter((2 * v[0],))) == doubled

    zero_section = construct_I_perfect(sp, i, lambda v: (0,))
    assert all(w[0] == 0 for w in zero_section.codewords)
    assert check_I_perfect(zero_section, i).ok

    rng = random.Random(12)
    table = {(y,): (rng.randrange(5),) for y in range(5)}
    random_graph = construct_I_perfect(sp, i, lambda v: table[v])
    assert check_I_perfect(random_graph, i).ok

    with pytest.raises(ValueError):
        construct_I_perfect(sp, Ideal(sp.pomset, (1, 0)), lambda v: (0,))
    with pytest.raises(ValueError):
        construct_I_perfect(sp, i, lambda v: (0, 0))


def test_block_dependency_threshold():
    assert block_dependency_witnesses(CHAIN_REPETITION)[0] == 2
    assert min_ideal_root_size(CHAIN_REPETITION) == 2

    whole = span_generator(Z5_CHAIN, [[1, 0], [0, 1]])
    assert block_dependency_witnesses(whole)[0] == 1
    assert min_ideal_root_size(whole) == 1

    code = load_fixture("mds_z5_len6").code
    assert block_dependency_witnesses(code)[0] == min_ideal_root_size(code)
    # A code that is not a submodule has no parity checks.
    for name in ("mds_chain_z6", "iperfect_z9_mds"):
        with pytest.raises(ValueError):
            block_dependency_witnesses(load_fixture(name).code)[0]


def test_block_dependency_agrees_on_linear_fixtures():
    for name in ("perfect_r1_z5", "mds_z5_len3", "mds_equal_blocks_z5"):
        code = load_fixture(name).code
        threshold, witnesses = block_dependency_witnesses(code)
        assert witnesses
        assert all(len(d) == threshold for d in witnesses)
        assert threshold == min_ideal_root_size(code), name
    # Composite moduli: the code is the annihilator of its dual over Z_m.
    for name, witness in (
        ("partial_perfect_z6", {1}),
        ("partial_perfect_z6_chain", {1, 2}),
        ("iperfect_not_mds_z6", {2}),
        ("iperfect_z9_repetition", {2}),
    ):
        code = load_fixture(name).code
        assert block_dependency_witnesses(code) == (len(witness), [witness]), name
        assert min_ideal_root_size(code) == len(witness), name


def test_ball_code_intersection():
    sp = Z5_CHAIN
    code = CHAIN_REPETITION
    zero = sp.zero()
    assert ball_code_intersection(code, Ideal(sp.pomset, (2, 0)), zero) == 1
    assert ball_code_intersection(code, Ideal(sp.pomset, (2, 1)), zero) == 3
    assert ball_code_intersection(code, Ideal(sp.pomset, (1, 0)), sp.vector((3, 1))) == 0


def test_weight_distribution():
    sp = Z5_CHAIN
    assert weight_distribution(Code.from_codewords(sp, [(0, 0)])).counts == (1, 0, 0, 0, 0)
    assert weight_distribution(CHAIN_REPETITION).counts == (1, 0, 0, 2, 2)
    for name in ("mds_z5_len6", "partial_perfect_z6", "iperfect_z9_mds"):
        code = load_fixture(name).code
        assert weight_distribution(code).total == code.size


def test_mds_chain_weight_distribution_cases():
    dist = mds_chain_weight_distribution(2, 1, 1, 5, 2)
    assert dist.counts == (1, 0, 0, 2, 2)
    assert dist.total == 5
    for params in ((4, 2, 2, 5, 2), (3, 1, 1, 6, 3), (2, 1, 1, 9, 2)):
        n, k, t, m, s = params
        dist = mds_chain_weight_distribution(*params)
        d = (n - k) // t * (m // 2) + 1
        assert all(dist.counts[r] == 0 for r in range(1, d))
        assert dist.total == m ** k


def test_mds_chain_weight_distribution_validation():
    with pytest.raises(ValueError):
        mds_chain_weight_distribution(5, 1, 2, 5, 2)  # n != s*t
    with pytest.raises(ValueError):
        mds_chain_weight_distribution(4, 1, 2, 5, 2)  # t does not divide n-k
    with pytest.raises(ValueError):
        mds_chain_weight_distribution(2, 1, 1, 5, 2, expected_d=4)


def test_closed_form_matches_census_on_chain_fixtures():
    cases = [
        (make_space(5, [(1, 2)], (1, 1)), [[0, 1]], 1),
        (make_space(6, [(1, 2)], (1, 1)), [[0, 1]], 1),
        (make_space(5, [(1, 2)], (2, 2)), [[0, 0, 1, 0], [0, 0, 0, 1]], 2),
    ]
    for sp, rows, k in cases:
        code = span_generator(sp, rows)
        assert code.size == sp.m ** k
        assert is_MDS(code)
        t = sp.labeling[0]
        closed = mds_chain_weight_distribution(sp.n, k, t, sp.m, sp.s)
        assert closed == weight_distribution(code)


def test_chain_mds_ball_intersections_three_cases():
    # For an MDS submodule code on an equal-dimension chain, the number of
    # codewords inside the origin ball of ANY ideal follows three cases
    # split by the ideal's cardinality against (n-k)/t * height.
    cases = [
        (make_space(5, [(1, 2)], (1, 1)), [[0, 1]], 1),
        (make_space(5, [(1, 2)], (2, 2)), [[0, 0, 1, 0], [0, 0, 0, 1]], 2),
        (make_space(6, [(1, 2)], (1, 1)), [[0, 1]], 1),
    ]
    for sp, rows, k in cases:
        code = span_generator(sp, rows)
        assert is_MDS(code)
        t = sp.labeling[0]
        lh = sp.height
        threshold = (sp.n - k) // t * lh
        for i in all_ideals(sp.pomset):
            got = ball_code_intersection(code, i, sp.zero())
            card = i.cardinality
            if card <= threshold:
                expected = 1
            else:
                l, p = divmod(card, lh)
                if p == 0:
                    expected = sp.m ** (t * l - sp.n + k)
                else:
                    expected = (2 * p + 1) ** t * sp.m ** (t * l - sp.n + k)
            assert got == expected, (sp.m, t, str(i))


def test_error_correcting_ball_sum_criteria():
    code = load_fixture("mds_z5_len6").code
    sp = code.space
    lh = sp.height
    diffs = [
        tuple((x - y) % sp.m for x, y in zip(u, v))
        for u, v in itertools.permutations(code.codewords, 2)
    ]
    for r in range(0, sp.max_weight + 1):
        layer = enumerate_ideals(sp.pomset, r)
        # Forward: an r-error-correcting code at a full-height multiple keeps
        # codeword differences outside every capped sum of two full ideals.
        if r % lh == 0 and check_r_error_correcting(code, r).ok:
            for i, j in itertools.product(layer, repeat=2):
                if not (i.is_full_count and j.is_full_count):
                    continue
                bound = msum(i, j)
                for diff in diffs:
                    assert not all(
                        w <= c
                        for w, c in zip(sp.block_weights(diff), bound.counts)
                    )
        # Converse: differences avoiding every capped sum force disjoint balls.
        hypothesis = all(
            not all(
                w <= c
                for w, c in zip(sp.block_weights(diff), msum(i, j).counts)
            )
            for i, j in itertools.product(layer, repeat=2)
            for diff in diffs
        )
        if hypothesis:
            assert check_r_error_correcting(code, r).ok


def test_finer_order_preserves_mds():
    base = load_fixture("mds_equal_blocks_z5")
    finer = make_space(5, [(1, 2), (3, 2), (1, 3)], (2, 2, 2))
    refit = Code(finer, base.code.codewords)
    assert is_MDS(base.code) and is_MDS(refit)

    one = load_fixture("perfect_r1_z5")
    for relations in ([(1, 2)], [(2, 1)]):
        chain_sp = make_space(5, relations, (1, 1))
        chained = Code(chain_sp, one.code.codewords)
        assert is_MDS(chained)

    z9 = load_fixture("iperfect_z9_mds")
    for relations in ([(1, 2)], [(2, 1)]):
        chain_sp = make_space(9, relations, (1, 1))
        chained = Code(chain_sp, z9.code.codewords)
        assert is_MDS(chained)


def test_chain_tiling_implies_mds():
    # Chain order, equal block dimensions, block size dividing ceil(log_m K):
    # any tiling ideal certifies MDS.
    chain = load_fixture("mds_chain_z6")
    assert check_I_perfect(chain.code, chain.ideal).ok
    assert is_MDS(chain.code)

    sp = make_space(9, [(1, 2)], (1, 1))
    i = Ideal(sp.pomset, (4, 1))
    for coords in ([(0, 0), (0, 3), (0, 6)], [(0, 0), (2, 3), (4, 6)]):
        code = Code.from_codewords(sp, coords)
        assert check_I_perfect(code, i).ok
        assert is_MDS(code)


def test_r_perfect_at_full_height_multiple_implies_mds():
    assert check_r_perfect(CHAIN_REPETITION, 2).ok
    assert is_MDS(CHAIN_REPETITION)


def test_perfect_for_every_critical_ideal_implies_mds_nonlinear():
    sp = Z5_CHAIN
    i = Ideal(sp.pomset, (2, 0))
    graph = construct_I_perfect(sp, i, lambda v: (v[0] * v[0],))
    assert not graph.is_linear
    critical = sp.n - ceil_log(graph.size, sp.m)
    layer = enumerate_ideals(sp.pomset, critical * sp.height)
    assert layer and all(check_I_perfect(graph, j).ok for j in layer)
    assert is_MDS(graph)


def test_prime_modulus_forbids_partial_count_perfection():
    for name in ("perfect_r1_z5", "mds_z5_len3", "mds_z5_len6"):
        code = load_fixture(name).code
        for i in all_ideals(code.space.pomset):
            if i.cardinality and not i.is_full_count:
                assert not check_I_perfect(code, i).ok, (name, str(i))
