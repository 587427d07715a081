"""Acceptance suite: one test per shipped claim, each timed against its
stated budget and printing a pass line (visible with pytest -s)."""

import itertools
import random
import time
from contextlib import contextmanager

from conftest import all_coords, load_fixture
from pomsetblock.balls import (
    in_I_ball,
    iter_I_ball_coords,
    r_ball_cardinality,
)
from pomsetblock.codes import (
    Code,
    ceil_log,
    check_I_perfect,
    check_r_error_correcting,
    check_r_perfect,
    dual_code,
    is_MDS,
    mds_chain_weight_distribution,
    min_distance,
    singleton_rhs,
    span_generator,
    weight_distribution,
)
from pomsetblock.fixtures import NAMES
from pomsetblock.mset import Mset, msum
from pomsetblock.oracle import verify_formula_suite, verify_metric
from pomsetblock.pomset import (
    Pomset,
    all_ideals,
    dual_pomset,
    enumerate_ideals,
    ideal_complement,
)
from pomsetblock.space import Space


@contextmanager
def criterion(number: int, limit_seconds: float):
    start = time.perf_counter()
    yield
    elapsed = time.perf_counter() - start
    assert elapsed < limit_seconds, (
        f"criterion {number} took {elapsed:.2f}s, limit {limit_seconds}s"
    )
    print(f"criterion {number:2d}: PASS ({elapsed:.2f}s < {limit_seconds:g}s)")


def fixture_spaces() -> list[Space]:
    seen: list[Space] = []
    for name in NAMES:
        sp = load_fixture(name).space
        if sp not in seen:
            seen.append(sp)
    return seen


def test_criterion_01_vshape_ideal_census():
    with criterion(1, 1.0):
        p = Pomset.from_relations(3, 2, [(1, 2), (1, 3)])
        counts = [len(enumerate_ideals(p, r)) for r in range(1, 7)]
        assert counts == [1, 1, 2, 3, 2, 1]
        listed = {
            (1, 0, 0), (2, 0, 0), (2, 1, 0), (2, 0, 1), (2, 2, 0),
            (2, 0, 2), (2, 1, 1), (2, 2, 1), (2, 1, 2), (2, 2, 2),
        }
        assert {i.counts for i in all_ideals(p) if i.cardinality} == listed


def test_criterion_02_unit_ball_and_one_perfect_code():
    with criterion(2, 1.0):
        problem = load_fixture("perfect_r1_z5")
        assert r_ball_cardinality(problem.space, 1) == 5
        ball = {
            coords
            for coords in all_coords(problem.space)
            if problem.space.coords_weight(coords) <= 1
        }
        assert ball == {(0, 0), (0, 1), (1, 0), (0, 4), (4, 0)}
        assert check_r_perfect(problem.code, 1).ok


def test_criterion_03_partial_count_perfect_but_not_4_perfect():
    with criterion(3, 5.0):
        pr = load_fixture("partial_perfect_z6")
        assert check_I_perfect(pr.code, pr.ideal).ok
        result = check_r_perfect(pr.code, 4)
        assert not result.ok and result.witness is not None
        # The quoted witness vector lies in the radius-4 balls of two
        # distinct codewords.
        witness = pr.space.vector((2, 1, 0))
        shared = Mset(2, 3, (2, 2))
        assert in_I_ball(witness, pr.space.vector((3, 0, 0)), shared)
        assert in_I_ball(witness, pr.space.vector((0, 3, 0)), shared)
        chain = load_fixture("partial_perfect_z6_chain")
        assert check_r_perfect(chain.code, 4).ok


def test_criterion_04_two_chain_mds_code():
    with criterion(4, 30.0):
        problem = load_fixture("mds_z5_len6")
        code = problem.code
        sp = code.space
        assert code.size == 25
        assert min_distance(code) == 7
        assert singleton_rhs(code) == 4
        assert is_MDS(code)
        sweep = [
            i
            for i in enumerate_ideals(sp.pomset, 6)
            if i.is_full_count
            and sum(sp.labeling[t - 1] for t in i.root_set) == 4
        ]
        assert len(sweep) == 2
        for i in sweep:
            assert check_I_perfect(code, i).ok, str(i)


def _ball_intersection_tally(code, ideal):
    sp = code.space
    tally: dict[tuple[int, ...], int] = {}
    for offset in iter_I_ball_coords(sp, ideal):
        for w in code.codewords:
            x = tuple((a + b) % sp.m for a, b in zip(w, offset))
            tally[x] = tally.get(x, 0) + 1
    return tally


def test_criterion_05_equal_blocks_duality_equivalences():
    with criterion(5, 60.0):
        problem = load_fixture("mds_equal_blocks_z5")
        code = problem.code
        sp = code.space
        t = sp.labeling[0]
        k = ceil_log(code.size, sp.m)
        lh = sp.height
        assert min_distance(code) == 5
        assert is_MDS(code)
        assert problem.ideal.counts == (2, 0, 2)
        assert check_I_perfect(code, problem.ideal).ok

        # (2) every full-count ideal at cardinality (n-k)/t * height tiles
        for i in enumerate_ideals(sp.pomset, (sp.n - k) // t * lh):
            if i.is_full_count:
                assert check_I_perfect(code, i).ok

        # (3)+(4) the dual code in the dual order
        dual_sp = Space(sp.m, dual_pomset(sp.pomset), sp.labeling)
        dual = dual_code(code)
        dual = Code(dual_sp, dual.codewords)
        for i in enumerate_ideals(dual_sp.pomset, k // t * lh):
            if i.is_full_count:
                assert check_I_perfect(dual, i).ok
        assert is_MDS(dual)
        comp = ideal_complement(sp.pomset, problem.ideal)
        assert check_I_perfect(dual, comp).ok

        # (5) piecewise ball-code intersection counts for every full-count
        # ideal and every center
        for i in all_ideals(sp.pomset):
            if not i.is_full_count:
                continue
            l = len(i.root_set)
            tally = _ball_intersection_tally(code, i)
            if l * t >= sp.n - k:
                expected = sp.m ** (t * l - sp.n + k)
                assert len(tally) == sp.size
                assert all(v == expected for v in tally.values())
            else:
                assert all(v == 1 for v in tally.values())
                assert len(tally) == code.size * sp.m ** (t * l)


def test_criterion_06_partial_count_examples_mds_status():
    with criterion(6, 1.0):
        d_example = load_fixture("iperfect_not_mds_z6")
        assert check_I_perfect(d_example.code, d_example.ideal).ok
        assert not is_MDS(d_example.code)
        chain = load_fixture("mds_chain_z6")
        assert check_I_perfect(chain.code, chain.ideal).ok
        assert is_MDS(chain.code)


def test_criterion_07_z9_examples():
    with criterion(7, 1.0):
        repetition = load_fixture("iperfect_z9_repetition")
        assert check_I_perfect(repetition.code, repetition.ideal).ok
        assert min_distance(repetition.code) == 3
        assert not is_MDS(repetition.code)
        mds = load_fixture("iperfect_z9_mds")
        assert check_I_perfect(mds.code, mds.ideal).ok
        assert min_distance(mds.code) == 5
        assert is_MDS(mds.code)


def test_criterion_08_formula_certification():
    with criterion(8, 120.0):
        for sp in fixture_spaces():
            assert sp.size <= 10 ** 6
            report = verify_formula_suite(sp)
            assert report.ok, [(c.name, c.detail) for c in report.failures]
            must_pass = {
                "sphere-formula",
                "ball-formula",
                "rball-formula",
                "sphere-partition",
                "partition-tiling",
            }
            for check in report.checks:
                if check.name in must_pass:
                    assert check.status == "pass", (check.name, check.detail)


MDS_CHAIN_CASES = (
    # (m, t, s, generator rows): MDS submodule codes on a chain
    (5, 1, 2, [[0, 1]]),
    (6, 1, 2, [[0, 1]]),
    (5, 2, 2, [[0, 0, 1, 0], [0, 0, 0, 1]]),
)


def _mutant_chain_profile(n, k, t, m, s, branch):
    lh = m // 2
    d = (n - k) // t * lh + 1
    counts = [0] * (s * lh + 1)
    counts[0] = 0 if branch == "zero-weight" else 1
    if branch == "gap" and d >= 2:
        counts[d - 1] = 1
    for r in range(d, s * lh + 1):
        l, p = divmod(r, lh)
        if p == 0:
            value = (m ** t - (2 * lh - 1) ** t) * m ** (t * l - n + k - t)
            counts[r] = value * m if branch == "full" else value
        elif p == 1:
            head = 3 ** t if branch == "one" else 3 ** t - 1
            counts[r] = head * m ** (t * l - n + k)
        else:
            low = 2 * p - 3 if branch == "partial" else 2 * p - 1
            counts[r] = ((2 * p + 1) ** t - low ** t) * m ** (t * l - n + k)
    return tuple(counts)


def test_criterion_09_chain_weight_distribution():
    with criterion(9, 10.0):
        census_by_case = {}
        for m, t, s, rows in MDS_CHAIN_CASES:
            sp = Space(m, Pomset.chain(s, m // 2), (t,) * s)
            code = span_generator(sp, rows)
            k = ceil_log(code.size, m)
            assert code.size == m ** k and is_MDS(code)
            census = weight_distribution(code)
            closed = mds_chain_weight_distribution(sp.n, k, t, m, s)
            assert closed == census, (m, t)
            census_by_case[(m, t, s, k, sp.n)] = census.counts
        assert census_by_case[(5, 1, 2, 1, 2)] == (1, 0, 0, 2, 2)

        for branch in ("zero-weight", "gap", "full", "one", "partial"):
            detected = any(
                _mutant_chain_profile(n, k, t, m, s, branch) != counts
                for (m, t, s, k, n), counts in census_by_case.items()
            )
            assert detected, f"mutation of branch {branch!r} went undetected"


def _error_correcting_criteria(code):
    sp = code.space
    lh = sp.height
    diffs = [
        sp.block_weights(tuple((x - y) % sp.m for x, y in zip(u, v)))
        for u, v in itertools.permutations(code.codewords, 2)
    ]
    for r in range(sp.max_weight + 1):
        layer = enumerate_ideals(sp.pomset, r)
        pair_bounds = [
            msum(i, j).counts
            for i, j in itertools.product(layer, repeat=2)
        ]
        full_bounds = [
            msum(i, j).counts
            for i, j in itertools.product(
                [i for i in layer if i.is_full_count], repeat=2
            )
        ]
        if r % lh == 0 and r and check_r_error_correcting(code, r).ok:
            for bound in full_bounds:
                for bw in diffs:
                    assert not all(w <= c for w, c in zip(bw, bound))
        hypothesis = all(
            not all(w <= c for w, c in zip(bw, bound))
            for bound in pair_bounds
            for bw in diffs
        )
        if hypothesis:
            assert check_r_error_correcting(code, r).ok


def test_criterion_10_property_suites():
    with criterion(10, 300.0):
        spaces = fixture_spaces()

        # Metric axioms: exhaustive where the triple count allows, at least
        # 1e5 seeded samples everywhere else.
        for sp in spaces:
            report = verify_metric(sp, seed=0, samples=10 ** 5)
            assert report.passed, (sp, report.counterexample)
            assert report.exhaustive == (sp.size ** 3 <= 10 ** 5)

        # Singleton bound: never violated over 1000 random spanned codes.
        rng = random.Random(20260808)
        checked = 0
        while checked < 1000:
            sp = spaces[checked % len(spaces)]
            rows = [
                [rng.randrange(sp.m) for _ in range(sp.n)]
                for _ in range(rng.randint(1, 2))
            ]
            code = span_generator(sp, rows)
            if code.size < 2:
                continue
            lhs = sp.n - ceil_log(code.size, sp.m)
            assert lhs >= singleton_rhs(code)
            checked += 1

        # MDS <-> tiling ideal, on the linear fixtures of size m^k.
        for name in NAMES:
            problem = load_fixture(name)
            code = problem.code
            if code is None or not code.is_linear:
                continue
            sp = code.space
            k = ceil_log(code.size, sp.m)
            if sp.m ** k != code.size or code.size < 2:
                continue
            r = (min_distance(code) - 1) // sp.height
            layer = [
                i
                for i in enumerate_ideals(sp.pomset, sp.height * r)
                if i.is_full_count
            ]
            perfect_somewhere = False
            for i in layer:
                if check_I_perfect(code, i).ok:
                    perfect_somewhere = True
                    assert is_MDS(code), (name, str(i))
            if is_MDS(code):
                assert perfect_somewhere or r == 0, name

        # Both error-correction criteria, on every fixture code.
        for name in NAMES:
            problem = load_fixture(name)
            if problem.code is not None:
                _error_correcting_criteria(problem.code)
