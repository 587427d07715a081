import itertools
import math
from types import SimpleNamespace

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from conftest import from_bits, to_bits
from pomsetblock import balls
from pomsetblock.balls import BudgetExceededError
from pomsetblock.codes import Code, _ball_census
from pomsetblock import oracle
from pomsetblock.oracle import (
    _ball_sizes,
    _bit_projections,
    _check_ball_listings,
    _dual_ball_matches,
    _outcome,
    _projections,
    _tiles,
    metric_triples,
    verify_formula_suite,
    verify_metric,
    weight_census,
)
from pomsetblock.pomset import Ideal, Pomset, all_ideals, dual_pomset, ideal_complement
from pomsetblock.space import Space


def make_space(m, relations, labeling):
    return Space(m, Pomset.from_relations(len(labeling), m // 2, relations), labeling)


def tampered_bits(tamper):
    """`balls.I_ball_bits` with each ball's listing, as `from_bits` reads
    it, replaced by `tamper(space, ideal, members)` and packed by `to_bits`."""
    original = balls.I_ball_bits

    def bits(space, ideal, *args, **kwargs):
        members = from_bits(space, original(space, ideal, *args, **kwargs))
        return to_bits(space, tamper(space, ideal, members))

    return bits


def test_census_small_antichain():
    sp = make_space(5, [], (1, 1))
    report = weight_census(sp)
    assert report.sphere_counts[1] == 4
    assert report.ball_size(1) == 5
    assert report.ideal_sphere_counts[(0, 0)] == 1
    assert report.telescopes()


def test_census_totals():
    sp = make_space(6, [], (1, 2))
    report = weight_census(sp)
    assert report.total == 216
    assert 1 + sum(report.sphere_counts.values()) == 216
    assert sum(report.ideal_sphere_counts.values()) == 216


def test_census_budget():
    sp = make_space(6, [], (1, 2))
    with pytest.raises(BudgetExceededError):
        weight_census(sp, budget=100)


def test_metric_exhaustive_pass():
    report = verify_metric(make_space(6, [(1, 2)], (1, 1)))
    assert report.passed and report.exhaustive
    assert report.triples_checked == 36 ** 3


def test_metric_single_block():
    for m in (2, 3, 5, 8):
        report = verify_metric(make_space(m, [], (1,)))
        assert report.passed


def test_metric_sampled_pass():
    sp = make_space(5, [(1, 2), (3, 4)], (1, 2, 1, 2))
    report = verify_metric(sp, seed=3, samples=3000)
    assert report.passed and not report.exhaustive
    assert report.triples_checked == 3000


def test_metric_negative_control():
    # Raw residues instead of Lee weights break symmetry; the check must
    # find a witness.
    sp = make_space(5, [], (1,))

    def fake_distance(a, b):
        return (a[0] - b[0]) % 5

    report = verify_metric(sp, distance_fn=fake_distance)
    assert not report.passed
    assert report.counterexample is not None
    axiom = report.counterexample[0]
    assert axiom in ("symmetry", "identity", "triangle")


@pytest.mark.parametrize("samples", [-3, 0])
def test_metric_rejects_sample_counts_below_one(samples):
    sp = make_space(5, [], (1, 1, 1))
    with pytest.raises(ValueError, match=f"got {samples}$"):
        verify_metric(sp, samples=samples)


# 125 vectors: 125^3 triples exceed the default triple budget, so sampled.
SAMPLED = make_space(5, [], (1, 1, 1))


def lee_sum(a, b):
    """The Lee distance, which is the weight on a unit-block antichain."""
    return sum(min((x - y) % 5, (y - x) % 5) for x, y in zip(a, b))


def test_sampled_negative_control_breaks_symmetry():
    # Zero exactly on the diagonal, but one more in one direction.
    def skewed(a, b):
        return lee_sum(a, b) + (a > b)

    report = verify_metric(SAMPLED, distance_fn=skewed)
    assert not report.passed and not report.exhaustive
    axiom, u, v, w = report.counterexample
    assert axiom == "symmetry" and w is None
    assert skewed(u, v) != skewed(v, u)


def test_sampled_negative_control_breaks_the_triangle_inequality():
    # Squaring keeps identity and symmetry: 0-1-2 in one coordinate gives 4 > 1 + 1.
    def squared(a, b):
        return lee_sum(a, b) ** 2

    report = verify_metric(SAMPLED, distance_fn=squared)
    assert not report.passed and not report.exhaustive
    assert 1 <= report.triples_checked < 10 ** 5
    axiom, u, v, w = report.counterexample
    assert axiom == "triangle"
    assert squared(u, v) > squared(u, w) + squared(w, v)


# 25 vectors: 25^3 = 15625 triples, so every triple is checked by default.
EXHAUSTIVE = make_space(5, [], (1, 1))


def test_exhaustive_negative_control_breaks_identity():
    # Half the Lee distance, rounded down, puts residues 0 and 1 at distance 0.
    def halved(a, b):
        return lee_sum(a, b) // 2

    report = verify_metric(EXHAUSTIVE, distance_fn=halved)
    assert not report.passed and report.exhaustive
    assert report.triples_checked == 25 ** 3
    assert report.counterexample == ("identity", (0, 0), (0, 1), None)


def test_exhaustive_negative_control_breaks_the_triangle_inequality():
    # Squaring keeps identity and symmetry; the first triple in order to
    # break the triangle is 0-1-2 in the last coordinate: 4 > 1 + 1.
    def squared(a, b):
        return lee_sum(a, b) ** 2

    report = verify_metric(EXHAUSTIVE, distance_fn=squared)
    assert not report.passed and report.exhaustive
    assert report.triples_checked == 25 ** 3
    assert report.counterexample == ("triangle", (0, 0), (0, 2), (0, 1))


@pytest.mark.parametrize("space, triple_budget, samples", [
    (EXHAUSTIVE, 25 ** 3, 7),
    (EXHAUSTIVE, 25 ** 3 - 1, 7),
    (SAMPLED, oracle.DEFAULT_TRIPLE_BUDGET, 300),
])
def test_metric_triples_states_what_a_passing_check_visits(space, triple_budget, samples):
    report = verify_metric(space, triple_budget=triple_budget, samples=samples)
    assert report.passed
    assert metric_triples(space, triple_budget, samples) == (
        report.exhaustive, report.triples_checked
    )
    assert report.exhaustive == (space.size ** 3 <= triple_budget)


def test_metric_deterministic_sampling():
    sp = make_space(6, [], (2, 1))
    a = verify_metric(sp, seed=11, samples=500)
    b = verify_metric(sp, seed=11, samples=500)
    assert (a.passed, a.triples_checked) == (b.passed, b.triples_checked)


def test_formula_suite_passes():
    spaces = [
        make_space(5, [], (1, 1)),
        make_space(5, [(1, 2)], (1, 1)),
        make_space(6, [], (2, 1)),
        make_space(6, [(2, 1)], (2, 1)),
        make_space(6, [], (1, 2)),
        make_space(9, [], (1, 1)),
        make_space(4, [(1, 2), (1, 3)], (1, 1, 1)),
        make_space(7, [], (3,)),
    ]
    for sp in spaces:
        report = verify_formula_suite(sp)
        assert report.ok, (sp, [(c.name, c.detail) for c in report.failures])
        names = {c.name for c in report.checks}
        assert {
            "sphere-formula",
            "ball-formula",
            "rball-formula",
            "sphere-partition",
            "rball-union",
            "full-ball-submodule",
            "ball-duality",
            "partition-tiling",
        } <= names


def test_formula_suite_on_random_spaces():
    import random

    from conftest import random_pomset

    rng = random.Random(99)
    for m in (4, 5, 6, 7, 8, 9):
        for _ in range(3):
            s = rng.randint(1, 3)
            labeling = tuple(rng.randint(1, 2) for _ in range(s))
            sp = Space(m, random_pomset(rng, s, m // 2), labeling)
            if sp.size > 20000:
                continue
            report = verify_formula_suite(sp)
            assert report.ok, (
                m,
                labeling,
                [(c.name, c.detail) for c in report.failures],
            )


def test_formula_suite_detects_sphere_mutation(monkeypatch):
    original = balls.I_sphere_cardinality

    def off_by_one(space, ideal):
        value = original(space, ideal)
        return value + 1 if ideal.cardinality == 1 else value

    monkeypatch.setattr("pomsetblock.balls.I_sphere_cardinality", off_by_one)
    report = verify_formula_suite(make_space(5, [], (1, 1)))
    assert not report.ok
    assert any(c.name == "sphere-formula" for c in report.failures)


def test_formula_suite_detects_ball_mutation(monkeypatch):
    original = balls.I_ball_cardinality

    def doubled(space, ideal):
        value = original(space, ideal)
        return value * 2 if ideal.cardinality else value

    monkeypatch.setattr("pomsetblock.balls.I_ball_cardinality", doubled)
    report = verify_formula_suite(make_space(5, [], (1, 1)))
    assert not report.ok
    failing = {c.name for c in report.failures}
    assert "ball-formula" in failing


def test_formula_suite_detects_a_ball_that_is_not_closed(monkeypatch):
    # Swap one member of each proper full-count ball for a non-member: the
    # size still matches, so only the closure test can notice.
    def swapped(space, ideal, members):
        if ideal.is_full_count and 0 < len(members) < space.size:
            inside = set(members)
            members[-1] = next(c for c in space.iter_coords() if c not in inside)
        return members

    monkeypatch.setattr("pomsetblock.balls.I_ball_bits", tampered_bits(swapped))
    report = verify_formula_suite(make_space(5, [], (1, 1)))
    failed = {c.name: c.detail for c in report.failures}
    assert failed["full-ball-submodule"].endswith(": closure")


def test_formula_suite_detects_a_wrong_dual_ball(monkeypatch):
    def empty_complement(p, ideal):
        return Ideal(dual_pomset(p), (0,) * p.ground_size)

    monkeypatch.setattr("pomsetblock.oracle.ideal_complement", empty_complement)
    report = verify_formula_suite(make_space(5, [(1, 2)], (1, 1)))
    assert "ball-duality" in {c.name for c in report.failures}


@pytest.mark.parametrize("tamper", ["duplicate", "out of range"])
def test_a_tampered_whole_space_listing_fails_the_submodule_check(monkeypatch, tamper):
    # A listing as large as the space is spanned unless it equals the space,
    # so neither a repeated member nor a stray tuple passes as the space: the
    # repeat leaves a bit missing, and the stray tuple sets one past m^n.
    def tampered(space, ideal, members):
        if len(members) == space.size:
            members[-1] = members[0] if tamper == "duplicate" else (space.m,) * space.n
        return members

    monkeypatch.setattr("pomsetblock.balls.I_ball_bits", tampered_bits(tampered))
    sp = make_space(5, [(1, 2)], (1, 1))
    top = all_ideals(sp.pomset)[-1]
    failed = {c.name: c.detail for c in verify_formula_suite(sp).failures}
    why = "size" if tamper == "duplicate" else "closure"
    assert failed["full-ball-submodule"] == f"ideal {top}: {why}"


def test_ball_duality_names_the_one_ideal_with_a_wrong_complement(monkeypatch):
    # 64 vectors, so every full-count ideal's duality is checked in the one
    # scan; a wrong complement for any one of them must be reported as it.
    sp = make_space(4, [(1, 2)], (1, 1, 1))
    targets = [i for i in all_ideals(sp.pomset) if i.is_full_count and i.cardinality]
    assert len(targets) == 5
    for target in targets:
        def tampered(p, ideal, target=target):
            comp = ideal_complement(p, ideal)
            if ideal != target:
                return comp
            wrong = 0 if any(comp.counts) else p.height
            return Ideal(dual_pomset(p), (wrong,) * p.ground_size)

        with monkeypatch.context() as patch:
            patch.setattr("pomsetblock.oracle.ideal_complement", tampered)
            failed = {c.name: c.detail for c in verify_formula_suite(sp).failures}
        assert failed == {"ball-duality": f"mismatch at ideal {target}"}


@pytest.mark.parametrize("check", ["full-ball-submodule", "ball-duality"])
def test_full_count_failures_are_named_in_ideal_order(monkeypatch, check):
    # Over three unit blocks {0, 2, 2} comes before {2, 0, 0} in count order
    # but weighs more, so it is listed a radius later; with both balls wrong,
    # the first in count order is the one named.
    sp = make_space(5, [], (1, 1, 1))
    first, second = (
        next(i for i in all_ideals(sp.pomset) if i.counts == c)
        for c in ((0, 2, 2), (2, 0, 0))
    )

    def repeated(space, ideal, members):
        if ideal in (first, second):
            members[-1] = members[0]
        return members

    def complement(p, ideal):
        if ideal in (first, second):
            return Ideal(dual_pomset(p), (p.height,) * p.ground_size)
        return ideal_complement(p, ideal)

    if check == "full-ball-submodule":
        monkeypatch.setattr("pomsetblock.balls.I_ball_bits", tampered_bits(repeated))
        expected = f"ideal {first}: size"
    else:
        monkeypatch.setattr("pomsetblock.oracle.ideal_complement", complement)
        expected = f"mismatch at ideal {first}"
    failed = {c.name: c.detail for c in verify_formula_suite(sp).failures}
    assert failed[check] == expected


@pytest.mark.parametrize("which", [0, -1])
def test_an_empty_full_count_listing_fails(monkeypatch, which):
    # An empty bitset has no coordinate projections, so the product they
    # span is the empty tuple alone, which matches no block of the dual ball.
    sp = make_space(5, [(1, 2)], (1, 1))
    target = all_ideals(sp.pomset)[which]

    def emptied(space, ideal, members):
        return [] if ideal == target else members

    monkeypatch.setattr("pomsetblock.balls.I_ball_bits", tampered_bits(emptied))
    failed = {c.name: c.detail for c in verify_formula_suite(sp).failures}
    expected = {
        "rball-union": f"mismatch at r={target.cardinality}",
        "ball-duality": f"mismatch at ideal {target}",
    }
    if target.cardinality:
        expected["full-ball-submodule"] = f"ideal {target}: size"
    assert failed == expected


def test_ball_duality_is_checked_past_the_pair_budget(monkeypatch):
    # 5^6 vectors: the top ball paired with the space is 5^12 pairs, which
    # the suite never forms, yet its duality is certified, and a wrong
    # complement for it alone is found.
    sp = make_space(5, [(1, 2)], (3, 3))
    top = all_ideals(sp.pomset)[-1]
    outcomes = {c.name: (c.status, c.detail) for c in verify_formula_suite(sp).checks}
    assert outcomes["ball-duality"] == ("pass", "all full-count ideals")

    def tampered(p, ideal):
        if ideal != top:
            return ideal_complement(p, ideal)
        return Ideal(dual_pomset(p), (p.height,) * p.ground_size)

    monkeypatch.setattr("pomsetblock.oracle.ideal_complement", tampered)
    failed = {c.name: c.detail for c in verify_formula_suite(sp).failures}
    assert failed == {"ball-duality": f"mismatch at ideal {top}"}


def test_ball_duality_reduces_inner_products_summed_over_blocks(monkeypatch):
    # The top ball listed as the line through (4, 1): its annihilator is the
    # line through (1, 1), where the blocks' products 4 and 1 sum to 5.  The
    # line is too small for the ball, and both projections are all of Z_5,
    # whose product annihilates only {0}, the dual ball; so the size fails
    # and duality, taken over the product, passes.
    def line(space, ideal, members):
        if len(members) == space.size:
            return [(4 * a % 5, a) for a in range(5)]
        return members

    monkeypatch.setattr("pomsetblock.balls.I_ball_bits", tampered_bits(line))
    sp = make_space(5, [], (1, 1))
    top = all_ideals(sp.pomset)[-1]
    outcomes = {c.name: (c.status, c.detail) for c in verify_formula_suite(sp).checks}
    assert outcomes["full-ball-submodule"] == ("fail", f"ideal {top}: size")
    assert outcomes["ball-duality"] == ("pass", "all full-count ideals")


def test_a_product_of_subgroups_of_the_right_size_fails_only_duality(monkeypatch):
    # Over Z_4, the ball of (2, 0) is Z_4 x {0}; listed as {0, 2} x {0, 2} it
    # has the right size and is a product of subgroups, so only its
    # annihilator {0, 2} x {0, 2}, not the dual ball {0} x Z_4, gives it away.
    # The radius-2 union, which holds that listing, loses its size too.
    def halves(space, ideal, members):
        if ideal.counts == (2, 0):
            return list(itertools.product((0, 2), repeat=2))
        return members

    monkeypatch.setattr("pomsetblock.balls.I_ball_bits", tampered_bits(halves))
    sp = make_space(4, [], (1, 1))
    failed = {c.name: c.detail for c in verify_formula_suite(sp).failures}
    assert failed == {
        "rball-union": "mismatch at r=2",
        "ball-duality": "mismatch at ideal {2/1}",
    }


def tamper_centers(monkeypatch, tamper):
    """Make `partition_centers` return a tampered list of the right length."""
    original = balls.partition_centers

    def tampered(space, ideal, *args, **kwargs):
        centers = original(space, ideal, *args, **kwargs)
        if len(centers) > 1 and balls.I_ball_cardinality(space, ideal) > 1:
            centers = list(centers)
            tamper(space, ideal, centers)
        return centers

    monkeypatch.setattr("pomsetblock.balls.partition_centers", tampered)


def assert_tiling_fails(space):
    # With the count right, the translates fail to tile only by overlapping.
    failed = {c.name: c.detail for c in verify_formula_suite(space).failures}
    assert failed["partition-tiling"].endswith(": translates do not tile")


def test_formula_suite_detects_a_center_moved_into_a_neighbours_ball(monkeypatch):
    def move(space, ideal, centers):
        offset = list(balls.iter_I_ball_coords(space, ideal))[1]
        centers[1] = tuple((a + b) % space.m for a, b in zip(centers[0], offset))

    tamper_centers(monkeypatch, move)
    assert_tiling_fails(make_space(6, [], (1, 1)))


def test_formula_suite_detects_a_center_replacing_another(monkeypatch):
    def repeat(space, ideal, centers):
        centers[-1] = centers[0]

    tamper_centers(monkeypatch, repeat)
    assert_tiling_fails(make_space(6, [(1, 2)], (1, 2)))


def test_formula_suite_detects_centers_left_unreduced(monkeypatch):
    # Residue 0 written as m: reduced, the list would tile.
    def unreduce(space, ideal, centers):
        centers[:] = [tuple(a or space.m for a in c) for c in centers]

    tamper_centers(monkeypatch, unreduce)
    assert_tiling_fails(make_space(6, [], (1, 1)))


def test_a_tiling_listing_that_is_not_a_product_fails(monkeypatch):
    # Over Z_6 with unit blocks, the ball of (1, 0) is {5, 0, 1} x {0}.
    # Centers {0, 3} in even rows and {1, 4} in odd rows tile the space, but
    # their projections {0, 1, 3, 4} x Z_6 hold twice as many vectors.  The
    # check certifies tilings only as products, as `partition_centers` lists
    # them, so this listing fails although the ball census accepts it.
    space = make_space(6, [], (1, 1))
    target = next(i for i in all_ideals(space.pomset) if i.counts == (1, 0))
    shifted = [(a + r % 2, r) for r in range(6) for a in (0, 3)]

    def stagger(sp, ideal, centers):
        if ideal == target:
            centers[:] = shifted

    box = balls._ball_box(space, target, space.size)
    assert _ball_census(Code.from_codewords(space, shifted), [box], space.size, True)
    tamper_centers(monkeypatch, stagger)
    failed = {c.name: c.detail for c in verify_formula_suite(space).failures}
    assert failed == {"partition-tiling": f"ideal {target}: translates do not tile"}


def test_formula_suite_fails_when_a_divisible_ideal_refuses_to_tile(monkeypatch):
    # A divisibility error raised for an ideal that has a tiling, such as
    # the full-count ideal (2, 0), fails the check instead of escaping.
    def refuse(space, ideal, *args, **kwargs):
        raise balls.PartitionImpossibleError(1, 1, space.m)

    monkeypatch.setattr("pomsetblock.balls.partition_centers", refuse)
    report = verify_formula_suite(make_space(5, [(1, 2)], (1, 1)))
    failed = {c.name: c.detail for c in report.failures}
    assert failed["partition-tiling"].endswith(": divisibility error raised")


def test_formula_suite_fails_when_a_tiling_ignores_divisibility(monkeypatch):
    # Over Z_5, 2*1 + 1 = 3 does not divide 5, so the ideal {1/1} has no
    # tiling; centers returned for it fail the check.
    monkeypatch.setattr("pomsetblock.balls.partition_centers",
                        lambda space, ideal, *args: [(0,) * space.n])
    report = verify_formula_suite(make_space(5, [(1, 2)], (1, 1)))
    failed = {c.name: c.detail for c in report.failures}
    assert failed == {"partition-tiling": "ideal {1/1}: divisibility error not raised"}


def test_formula_suite_counts_the_tiling_centers(monkeypatch):
    # Over Z_9 the ideal {1/1} tiles with 9 / 3 = 3 centers; one dropped fails.
    original = balls.partition_centers
    monkeypatch.setattr("pomsetblock.balls.partition_centers",
                        lambda *args: original(*args)[:-1])
    report = verify_formula_suite(make_space(9, [], (1,)))
    failed = {c.name: c.detail for c in report.failures}
    assert failed == {"partition-tiling": "ideal {1/1}: center count 2 != 3"}


@st.composite
def center_listings(draw):
    """A space of at most 300 vectors, an I-ball's residue lists, and centers.

    Per coordinate the centers project onto a coset of the ball's step
    lattice, where the ball's size divides m, or onto any nonempty residue
    set; either every coordinate that can takes a coset, or each tosses a
    coin.  The centers are the product of the projections in a shuffled
    order, with at most one center moved, repeated or dropped.
    """
    space = draw(small_spaces(300))
    m = space.m
    ideal = draw(st.sampled_from(all_ideals(space.pomset)))
    box = balls._ball_box(space, ideal, space.size)
    lattice = draw(st.booleans())
    projections = []
    for rs in box:
        if m % len(rs) == 0 and (lattice or draw(st.booleans())):
            shift = draw(st.integers(0, m - 1))
            projections.append([(shift + a) % m for a in range(0, m, len(rs))])
        else:
            projections.append(sorted(draw(st.sets(st.integers(0, m - 1), min_size=1))))
    centers = draw(st.permutations(list(itertools.product(*projections))))
    fault = draw(st.sampled_from([None, "moved", "repeated", "dropped"]))
    j, k = (draw(st.integers(0, len(centers) - 1)) for _ in range(2))
    if fault == "moved":
        centers[j] = draw(st.tuples(*[st.integers(0, m - 1)] * space.n))
    elif fault == "repeated":
        centers[j] = centers[k]
    elif fault == "dropped":
        del centers[j]
    return space, box, centers


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(center_listings())
def test_per_coordinate_tiling_agrees_with_the_ball_census(case):
    space, box, centers = case
    tiles = _tiles(space.m, centers, box)
    product = set(itertools.product(*map(set, zip(*centers))))
    if len(set(centers)) == len(centers) and set(centers) == product:
        code = Code.from_codewords(space, centers)
        assert tiles == _ball_census(code, [box], code.size * space.size, True).ok
    else:
        assert not tiles


def is_subgroup(m, n, members):
    inside = set(members)
    return (0,) * n in inside and all(
        tuple((x + y) % m for x, y in zip(a, b)) in inside
        for a in inside
        for b in inside
    )


def annihilator(m, n, vectors):
    return {
        v
        for v in itertools.product(range(m), repeat=n)
        if all(sum(x * y for x, y in zip(v, b)) % m == 0 for b in vectors)
    }


@st.composite
def small_spaces(draw, cap):
    """A space over Z_m, m in 2..9, with at most `cap` vectors in at most
    three blocks, ordered by pairs oriented along a random permutation."""
    m = draw(st.integers(2, 9))
    n = draw(st.integers(1, max(k for k in range(1, cap) if m ** k <= cap)))
    s = draw(st.integers(1, min(n, 3)))
    cuts = sorted(draw(st.sets(st.integers(1, max(n - 1, 1)), min_size=s - 1, max_size=s - 1)))
    labeling = tuple(b - a for a, b in zip([0, *cuts], [*cuts, n]))
    perm = draw(st.permutations(range(1, s + 1)))
    pairs = [
        (perm[a], perm[b])
        for a in range(s)
        for b in range(a + 1, s)
        if draw(st.booleans())
    ]
    return Space(m, Pomset.from_relations(s, m // 2, pairs), labeling)


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(small_spaces(3000))
def test_census_matches_a_vector_by_vector_scan(space):
    spheres, ideals = {}, {}
    for coords in space.iter_coords():
        key = space.weight_counts(coords)
        if sum(key):
            spheres[sum(key)] = spheres.get(sum(key), 0) + 1
        ideals[key] = ideals.get(key, 0) + 1
    report = weight_census(space)
    # Equal as lists, so the key order of both dicts is pinned too.
    assert list(report.sphere_counts.items()) == list(spheres.items())
    assert list(report.ideal_sphere_counts.items()) == list(ideals.items())
    assert report.total == space.size


def reference_full_count_checks(space, lister, complement):
    """Per-ideal reference for the submodule and duality outcomes.

    Each full-count ball is the bitset `lister` returns, read by
    `from_bits`; it is a submodule iff it has the right size, lies in
    Z_m^n, equals the product of its coordinate projections and each
    projection is a subgroup of Z_m.  Only members in Z_m^n enter the
    projections.  The annihilator of that product (over all its members)
    must be the dual order's ball of the ideal's `complement`, as
    `balls.iter_I_ball_coords` lists it.  A ball with no member in Z_m^n has
    n empty projections, so its product is empty: it annihilates everything
    vacuously and proves nothing, so it fails.
    """
    m, n = space.m, space.n
    whole = set(itertools.product(range(m), repeat=n))
    dual_space = Space(m, dual_pomset(space.pomset), space.labeling)
    closure = duality = None
    for i in all_ideals(space.pomset):
        if not i.is_full_count:
            continue
        members = set(from_bits(space, lister(space, i)))
        projections = [{v[t] for v in members & whole} for t in range(n)]
        product = set(itertools.product(*projections))
        if i.cardinality and closure is None:
            expected = m ** sum(k for k, c in zip(space.labeling, i.counts) if c)
            if len(members) != expected:
                closure = f"ideal {i}: size"
            elif not (
                members <= whole
                and members == product
                and all(is_subgroup(m, 1, {(x,) for x in p}) for p in projections)
            ):
                closure = f"ideal {i}: closure"
        if duality is None:
            comp = complement(space.pomset, i)
            dual_ball = set(balls.iter_I_ball_coords(dual_space, comp))
            if not product or dual_ball != annihilator(m, n, product):
                duality = f"mismatch at ideal {i}"
    return (
        ("fail", closure) if closure else ("pass", "all full-count ideals"),
        ("fail", duality) if duality else ("pass", "all full-count ideals"),
    )


@st.composite
def tampered_spaces(draw):
    """A small space, and at most one change for one full-count ideal: a
    complement taken from another ideal, one listed member replaced by a
    tuple whose coordinates may be m (out of range) or repeat a member, the
    ball listed in reverse or not at all, or the ball sheared into a
    same-size subgroup that is not a product, such as {0, (1, 1)} for
    {0, (1, 0)} over Z_2."""
    space = draw(small_spaces(150))
    full = [i for i in all_ideals(space.pomset) if i.is_full_count]
    target = draw(st.sampled_from(full))
    fault = draw(
        st.sampled_from([None, "complement", "member", "reversed", "empty", "diagonal"])
    )
    other = draw(st.sampled_from(full))
    where = draw(st.integers(0, space.size - 1))
    stray = draw(st.tuples(*[st.integers(0, space.m)] * space.n))
    return space, target, fault, other, where, stray


@settings(derandomize=True, database=None, deadline=None, max_examples=120)
@given(tampered_spaces())
def test_full_count_checks_match_a_per_ideal_reference(case):
    space, target, fault, other, where, stray = case

    def tamper(sp, ideal, members):
        if sp == space and ideal == target:
            if fault == "member":
                members[where % len(members)] = stray
            elif fault == "reversed":
                members.reverse()
            elif fault == "empty":
                members = []
            elif fault == "diagonal":
                # v -> v + v_r (1, ..., 1) off coordinate r, the first one
                # the ball moves, is injective and additive.
                r = next((t for t in range(sp.n) if any(v[t] for v in members)), 0)
                members = [
                    tuple(x if t == r else (x + v[r]) % sp.m for t, x in enumerate(v))
                    for v in members
                ]
        return members

    def complement(p, ideal):
        return ideal_complement(p, other if fault == "complement" and ideal == target else ideal)

    lister = tampered_bits(tamper)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr("pomsetblock.balls.I_ball_bits", lister)
        patch.setattr("pomsetblock.oracle.ideal_complement", complement)
        census = weight_census(space)
        outcomes = _check_ball_listings(
            space, census, all_ideals(space.pomset), balls.DEFAULT_BUDGET
        )[1:]
    expected = reference_full_count_checks(space, lister, complement)
    assert [c.name for c in outcomes] == ["full-ball-submodule", "ball-duality"]
    assert [(c.status, c.detail) for c in outcomes] == list(expected)


def radius_layers(space, ideals):
    layers = [[] for _ in range(space.max_weight + 1)]
    for i in ideals:
        layers[i.cardinality].append(i)
    return layers


def reference_rball_union(space, census, ideals, budget):
    """Per-radius reference for the rball-union outcome: each radius's union
    of I-ball listings, as `from_bits` reads the I-ball bitsets, against the
    census, skipping a radius whose closed-form ball sizes sum past `budget`,
    up to the first mismatch."""
    skipped = 0
    for r, layer in enumerate(radius_layers(space, ideals)):
        if sum(balls.I_ball_cardinality(space, i) for i in layer) > budget:
            skipped += 1
            continue
        union = set()
        for i in layer:
            union.update(from_bits(space, balls.I_ball_bits(space, i)))
        if len(union) != census.ball_size(r):
            return "fail", f"mismatch at r={r}"
    if skipped:
        return "skip", f"{skipped} radii over budget"
    return "pass", "all radii"


@st.composite
def budgeted_spaces(draw):
    """A small space and a suite budget from the space's size to its largest
    radius sum of I-ball sizes, or the default.  The census refuses budgets
    below the size, and the largest radius sum is the least budget that
    skips no radius.  Half the spaces are unit antichains, over Z_4 or Z_5
    with 3 blocks or over Z_4 to Z_9 with 2, whose middle radii sum past the
    space, so that budgets in the range skip some; on 3 blocks a skipped
    radius holds full-count ideals such as (2, 2, 0)."""
    if draw(st.booleans()):
        blocks = draw(st.integers(2, 3))
        space = make_space(draw(st.integers(4, 5 if blocks == 3 else 9)), [], (1,) * blocks)
    else:
        space = draw(small_spaces(150))
    widest = max(
        sum(balls.I_ball_cardinality(space, i) for i in layer)
        for layer in radius_layers(space, all_ideals(space.pomset))
    )
    budget = draw(st.one_of(st.integers(space.size, widest), st.just(balls.DEFAULT_BUDGET)))
    return space, budget


@st.composite
def tampered_listings(draw):
    """A budgeted space and at most one change to one ideal's listing: a
    member dropped, a member duplicated, the listing reversed, or a member
    replaced by a tuple whose coordinates may be m (out of range)."""
    space, budget = draw(budgeted_spaces())
    target = draw(st.sampled_from(all_ideals(space.pomset)))
    fault = draw(st.sampled_from([None, "dropped", "duplicated", "reversed", "stray"]))
    where = draw(st.integers(0, space.size - 1))
    stray = draw(st.tuples(*[st.integers(0, space.m)] * space.n))
    return space, target, fault, where, stray, budget


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(tampered_listings())
def test_rball_union_matches_a_per_radius_reference(case):
    space, target, fault, where, stray, budget = case

    def tamper(sp, ideal, members):
        if ideal == target:
            j = where % len(members)
            if fault == "dropped":
                del members[j]
            elif fault == "duplicated":
                members.insert(j, members[j])
            elif fault == "reversed":
                members.reverse()
            elif fault == "empty":
                members = []
            elif fault == "stray":
                members[j] = stray
        return members

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr("pomsetblock.balls.I_ball_bits", tampered_bits(tamper))
        ideals = all_ideals(space.pomset)
        census = weight_census(space, budget)
        union = _check_ball_listings(space, census, ideals, budget)[0]
        expected = reference_rball_union(space, census, ideals, budget)
    assert union.name == "rball-union"
    assert (union.status, union.detail) == expected


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(budgeted_spaces())
@example((make_space(4, [], (1, 1, 1)), 64))
def test_one_suite_lists_each_ideal_at_most_once(case):
    # Radii over the budget list only their full-count ideals, so a budget
    # that skips a radius, as 64 skips r = 4 with (2, 2, 0) in Z_4^3, must
    # not make a full-count ball be listed a second time.
    space, budget = case
    listed = []
    original_lister = balls.I_ball_bits

    def lister(sp, ideal, *args, **kwargs):
        listed.append(ideal)
        return original_lister(sp, ideal, *args, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr("pomsetblock.balls.I_ball_bits", lister)
        assert verify_formula_suite(space, budget).ok
    assert len(listed) == len(set(listed))
    assert {i for i in all_ideals(space.pomset) if i.is_full_count} <= set(listed)


def test_census_tallies_blocks_without_visiting_vectors(monkeypatch):
    # 3^20 vectors in two blocks of ten coordinates: only the 3^10 tuples of
    # each block are listed, and the counts are products of their tallies.
    # Any product the census walks is cut off past 10^5 tuples.
    def capped_product(*lists, **kwargs):
        for count, item in enumerate(itertools.product(*lists, **kwargs)):
            assert count < 10 ** 5, "the census walked past 10^5 tuples"
            yield item

    monkeypatch.setattr(oracle, "itertools", SimpleNamespace(product=capped_product))
    space = make_space(3, [(1, 2)], (10, 10))
    report = weight_census(space, budget=space.size)
    assert report.total == 3 ** 20
    assert report.ideal_sphere_counts == {
        i.counts: balls.I_sphere_cardinality(space, i) for i in all_ideals(space.pomset)
    }
    # The second vector, (0, ..., 0, 1), is the first of weight 2, as the
    # order 1 < 2 raises block 1 under block 2; weight 1 comes later.
    assert list(report.sphere_counts.items()) == [
        (2, 3 ** 10 * (3 ** 10 - 1)),
        (1, 3 ** 10 - 1),
    ]


@pytest.mark.parametrize("factor", [1, 3])
def test_every_ball_listing_receives_the_suite_budget(monkeypatch, factor):
    # One budget: each I-ball is listed under the budget the suite was given,
    # not under a default the caller never chose.
    space = make_space(5, [(1, 2)], (2, 2))
    budget = factor * space.size
    received = []
    original = balls.I_ball_bits

    def lister(sp, ideal, budget=balls.DEFAULT_BUDGET):
        received.append(budget)
        return original(sp, ideal, budget)

    monkeypatch.setattr("pomsetblock.balls.I_ball_bits", lister)
    assert verify_formula_suite(space, budget).ok
    assert received and set(received) == {budget}


def reference_block_duality(space, gcds, counts):
    """Block-by-block reference for the duality comparison: per block, the
    product of the annihilator's residue ranges against the block's tuples
    of block weight at most its count, both listed in lexicographic order."""
    m = space.m
    annihilator = [range(0, m, m // g) for g in gcds]
    for (lo, hi), c, k in zip(space.block_bounds, counts, space.labeling):
        tuples = list(itertools.product(range(m), repeat=k))
        light = [x for x in tuples if max(min(a, m - a) for a in x) <= c]
        if list(itertools.product(*annihilator[lo:hi])) != light:
            return False
    return True


@st.composite
def duality_cases(draw):
    """A space with a block of more than one coordinate, an ideal of the dual
    order, and up to n divisors of m as projection gcds: those whose
    annihilator is the dual ball where one is (1 on count 0, m on a full
    count), or any divisors, including none at all."""
    space = draw(small_spaces(300).filter(lambda sp: max(sp.labeling) > 1))
    m = space.m
    counts = draw(st.sampled_from(all_ideals(dual_pomset(space.pomset)))).counts
    divisors = st.sampled_from([g for g in range(1, m + 1) if m % g == 0])
    fitting = [
        {0: 1, space.height: m}.get(c) or draw(divisors)
        for c, k in zip(counts, space.labeling)
        for _ in range(k)
    ]
    gcds = draw(st.one_of(
        st.just(fitting), st.just([]), st.lists(divisors, max_size=space.n)
    ))
    return space, gcds, counts


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(duality_cases())
def test_per_coordinate_duality_agrees_with_a_block_reference(case):
    space, gcds, counts = case
    assert _dual_ball_matches(space, gcds, counts) == reference_block_duality(
        space, gcds, counts
    )


def nested_ball_size(census, counts):
    """Vectors whose generated ideal fits inside `counts`: the census's ideal
    counts summed over every key below `counts`, coordinate by coordinate."""
    return sum(
        n for key, n in census.ideal_sphere_counts.items()
        if all(x <= y for x, y in zip(key, counts))
    )


@st.composite
def wide_small_spaces(draw):
    """A space over Z_m, m in 2..7, of 1..6 blocks of one or two coordinates
    and at most 3000 vectors, under a random order."""
    m = draw(st.integers(2, 7))
    s = draw(st.integers(1, 6))
    labeling = tuple(draw(st.lists(st.integers(1, 2), min_size=s, max_size=s)))
    assume(m ** sum(labeling) <= 3000)
    pairs = [
        (a, b)
        for a in range(1, s + 1)
        for b in range(a + 1, s + 1)
        if draw(st.booleans())
    ]
    return Space(m, Pomset.from_relations(s, m // 2, pairs), labeling)


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(wide_small_spaces())
def test_ball_sizes_by_prefix_sums_match_the_nested_sum(space):
    census = weight_census(space)
    ball_size = _ball_sizes(census)
    # Every cell of the grid, ideal or not, sums the keys below it.
    for counts in itertools.product(range(space.height + 1), repeat=space.s):
        assert ball_size(counts) == nested_ball_size(census, counts)


def test_ball_formula_passes_on_the_seven_block_antichain_over_z5():
    report = verify_formula_suite(make_space(5, [], (1,) * 7))
    outcome = {c.name: c for c in report.checks}["ball-formula"]
    assert outcome.status == "pass", outcome.detail
    assert report.ok, [(c.name, c.detail) for c in report.failures]


@st.composite
def spaces_under_budgets(draw):
    """A small space and a budget up to its size, so some I-balls exceed it."""
    space = draw(small_spaces(3000))
    return space, draw(st.integers(0, space.size))


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(spaces_under_budgets())
def test_ball_bits_hold_the_listed_ball(case):
    space, budget = case
    for i in all_ideals(space.pomset):
        try:
            listed = list(balls.iter_I_ball_coords(space, i, budget))
        except BudgetExceededError as err:
            with pytest.raises(BudgetExceededError) as caught:
                balls.I_ball_bits(space, i, budget)
            assert str(caught.value) == str(err)
            continue
        # Increasing bits are lexicographic order, the order of the listing.
        assert from_bits(space, balls.I_ball_bits(space, i, budget)) == listed


@st.composite
def member_sets(draw):
    """A small space and a set of tuples whose coordinates may be m, so
    outside the space; empty at times."""
    space = draw(small_spaces(300))
    members = draw(st.sets(st.tuples(*[st.integers(0, space.m)] * space.n), max_size=20))
    return space, members


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(member_sets())
@example((make_space(5, [], (1, 1)), set()))
@example((make_space(5, [], (1, 1)), {(5, 5), (0, 5)}))
@example((make_space(4, [(1, 2)], (1, 2)), {(0, 1, 2), (3, 0, 4)}))
def test_bit_projections_match_the_tuple_projections(case):
    # Tuples outside the space enter no projection, so the bitset's
    # projections are the tuple projections of its members in the space.
    space, members = case
    inside = sorted(v for v in members if space.m not in v)
    assert _bit_projections(space, to_bits(space, members)) == _projections(inside)


def reference_ball_listings(space, census, ideals, budget):
    """The rball-union, submodule and duality outcomes from tuple listings.

    Each I-ball is listed by `balls.iter_I_ball_coords`, at most once.  Radius
    by radius, the listings of the ideals of that cardinality form one
    union of tuples, as large as the census's r-ball, skipping a radius whose
    balls sum past `budget` and stopping at the first mismatch.  A
    full-count listing, even on a skipped radius, gives its member set and
    its projections P_t; it is the submodule iff it has m^(root dims)
    members, as many as the product of the P_t, and each P_t is the
    subgroup of multiples of gcd(m, P_t), and the annihilator of that
    product must be the dual order's ball of the complement.
    """
    m = space.m
    layers = [[] for _ in range(space.max_weight + 1)]
    for index, i in enumerate(ideals):
        layers[i.cardinality].append((index, i))
    mismatch = None
    skipped = 0
    closure, duality = {}, {}
    for r, layer in enumerate(layers):
        listed = mismatch is None
        if listed and sum(balls.I_ball_cardinality(space, i) for _, i in layer) > budget:
            skipped += 1
            listed = False
        union = set()
        for index, i in layer:
            if not i.is_full_count:
                if listed:
                    union.update(balls.iter_I_ball_coords(space, i, budget))
                continue
            listing = list(balls.iter_I_ball_coords(space, i, budget))
            members, projections = set(listing), _projections(listing)
            gcds = [math.gcd(m, *p) for p in projections]
            if i.cardinality:
                expected = m ** sum(space.labeling[t - 1] for t in i.root_set)
                if len(members) != expected:
                    closure[index] = f"ideal {i}: size"
                elif len(members) != math.prod(map(len, projections)) or any(
                    p != set(range(0, m, g)) for p, g in zip(projections, gcds)
                ):
                    closure[index] = f"ideal {i}: closure"
            if not _dual_ball_matches(space, gcds, ideal_complement(space.pomset, i).counts):
                duality[index] = f"mismatch at ideal {i}"
            if listed:
                union |= members
        if listed and len(union) != census.ball_size(r):
            mismatch = f"mismatch at r={r}"
    return (
        _outcome("rball-union", mismatch, "all radii", skipped, "radii"),
        _outcome("full-ball-submodule", closure.get(min(closure, default=None)),
                 "all full-count ideals"),
        _outcome("ball-duality", duality.get(min(duality, default=None)),
                 "all full-count ideals"),
    )


def assert_listings_match_the_reference(space, budget):
    census = weight_census(space, budget)
    ideals = all_ideals(space.pomset)
    assert _check_ball_listings(space, census, ideals, budget) == reference_ball_listings(
        space, census, ideals, budget
    )


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(budgeted_spaces())
@example((make_space(4, [], (1, 1, 1)), 64))
def test_ball_bitsets_match_the_tuple_listings(case):
    assert_listings_match_the_reference(*case)


def test_ball_bitsets_match_the_tuple_listings_on_the_seven_block_antichain():
    space = make_space(5, [], (1,) * 7)
    assert_listings_match_the_reference(space, balls.DEFAULT_BUDGET)
