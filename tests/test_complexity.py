"""Complexity measures cross-checked against the brute-force oracles.

Expected values below were computed with tests/oracles.py first and then
frozen as literals, so a regression in either side trips the comparison.
"""

import hashlib
import time
from fractions import Fraction

import pytest

from epsnet import complexity, nets, packing
from epsnet.complexity import (
    Bound,
    alexander_capacity,
    capacity_levels,
    capacity_vector,
    compute_profile,
    doubling_constant,
    projection_function,
    projection_rows,
    sauer_check,
    shallow_cell,
    star_number,
    vc_dimension,
    vc_of_masks,
)
from epsnet.core import (
    CapExceededError,
    RangeSpace,
    TheoremViolationError,
    build_range_space,
    stream_rng,
)
from epsnet.generators import (
    LowerBoundParams,
    gen_geometric,
    gen_lower_bound_family,
    gen_random,
    random_points,
)
from epsnet.nets import min_net_exact
from epsnet.packing import max_packing_exact

from corpus import CORPUS, EPS_GRID
from oracles import (
    PairFarGraph,
    oracle_doubling,
    oracle_pi,
    oracle_shallow,
    oracle_star,
    oracle_tau,
    oracle_vc,
)

SMALL = [k for k, sp in CORPUS.items() if sp.n <= 10 and len(sp.ranges) <= 25]

# independently computed with oracle_vc, then frozen
VC_EXPECTED = {
    "singles8": 1,
    "sparse-singles8": 1,
    "chain8": 1,
    "powerset3": 2,
    "intervals6": 2,
    "intervals8w": 2,
    "halfplanes5": 3,
    "disks5": 3,
}


def test_vc_matches_oracle_on_small_corpus():
    for key in SMALL:
        sp = CORPUS[key]
        assert vc_dimension(sp).value == oracle_vc(sp), key


@pytest.mark.parametrize("key,expected", sorted(VC_EXPECTED.items()))
def test_vc_frozen_values(key, expected):
    assert vc_dimension(CORPUS[key]).value == expected


def test_vc_of_masks_direct():
    # three singletons shatter any one point but no pair
    assert vc_of_masks([0b001, 0b010, 0b100], 3).value == 1
    # all nonempty subsets of {0,1,2}: pairs shattered, the triple is not
    # (the empty trace needs a range disjoint from the whole ground set)
    assert vc_of_masks(list(range(1, 8)), 3).value == 2
    # a single range produces a single trace, so nothing is shattered
    assert vc_of_masks([0b11], 2).value == 0


def test_vc_node_budget_trip_is_a_bracket(monkeypatch):
    # One node visits only the empty set: the lower end is 0 with an
    # empty witness, the upper end min(n, floor(log2 |R|)) = 4.
    monkeypatch.setattr(complexity, "WALK_NODES", 1)
    sp = CORPUS["intervals6"]
    lo = vc_dimension(sp)
    assert (lo.lower, lo.upper, lo.witness) == (0, 4, ())
    assert lo.lower <= oracle_vc(sp) <= lo.upper


def test_projection_matches_oracle():
    for key in ("singles8", "powerset3", "chain8", "intervals6"):
        sp = CORPUS[key]
        for y in range(sp.n + 1):
            assert projection_function(sp, y).value == oracle_pi(sp, y), (key, y)


def test_projection_trivial_singletons():
    # three singletons, trace count on any 2-point set is 3: two singleton
    # traces plus the empty trace
    sp = build_range_space(3, [1, 1, 1], [[0], [1], [2]])
    assert projection_function(sp, 2).value == 3
    assert projection_function(sp, 0).value == 1
    assert projection_function(sp, 3).value == 3


def test_projection_intervals_closed_form():
    # intervals over s distinct values realize s(s+1)/2 nonempty traces
    sp = CORPUS["intervals6"]
    s = 6
    assert len(sp.ranges) == s * (s + 1) // 2
    assert projection_function(sp, s).value == s * (s + 1) // 2


def test_sauer_check_on_corpus():
    for key, sp in CORPUS.items():
        if sp.n > 16:
            continue
        sauer_check(sp)  # raises TheoremViolationError on failure


def test_sauer_check_with_a_bracketed_row_is_a_cap_error(monkeypatch):
    # A walk that runs out of nodes leaves pi(3) of intervals6 sampled
    # below its ceiling; the certificate needs every row exact.
    monkeypatch.setattr(complexity, "WALK_NODES", 1)
    with pytest.raises(CapExceededError):
        sauer_check(CORPUS["intervals6"], d=2)


def test_sauer_check_with_a_bracketed_dimension_is_a_cap_error(monkeypatch):
    # Without d, the certificate needs the exact dimension; a VC walk
    # that runs out of nodes leaves it bracketed, and the error names it.
    monkeypatch.setattr(complexity, "WALK_NODES", 1)
    with pytest.raises(CapExceededError, match=r"bracketed in \[0, 4\]"):
        sauer_check(CORPUS["intervals6"])


def test_sauer_check_catches_forged_growth():
    sp = build_range_space(4, [1] * 4, [[0], [1], [0, 1]])
    with pytest.raises(TheoremViolationError):
        sauer_check(sp, d=0)


def test_capacity_matches_oracle():
    for key in SMALL:
        sp = CORPUS[key]
        for eps in EPS_GRID:
            got = alexander_capacity(sp, eps)
            want = oracle_tau(sp, eps)
            assert got == want, (key, eps)


def test_capacity_frozen_values():
    # eight uniform singletons at eps=1/8: the union of all light ranges is
    # the full space at scale 1/8, so the ratio peaks at exactly 1/eps
    assert alexander_capacity(CORPUS["singles8"], Fraction(1, 8)) == 8
    # nested chain: union of all ranges below any scale is the largest such
    # range, ratio never beats 1
    assert alexander_capacity(CORPUS["chain8"], Fraction(1, 8)) == 1
    assert alexander_capacity(CORPUS["chain8"], Fraction(1, 100)) == 1


def test_capacity_elementary_bounds():
    for key, sp in CORPUS.items():
        for eps in EPS_GRID:
            tau = alexander_capacity(sp, eps)
            assert 1 <= tau <= Fraction(1, 1) / eps, (key, eps)


def test_capacity_monotone_in_eps():
    for key in SMALL:
        sp = CORPUS[key]
        assert alexander_capacity(sp, Fraction(1, 4)) <= alexander_capacity(
            sp, Fraction(1, 8)
        ), key


def test_capacity_levels_shape():
    z, levels = capacity_levels(Fraction(1, 16))
    assert z == 5
    assert levels[0] == Fraction(1, 16)
    assert levels[-1] == 1
    for a, b in zip(levels, levels[1:]):
        assert b == min(2 * a, Fraction(1))
    z1, levels1 = capacity_levels(Fraction(1, 3))
    assert z1 == 1 + 2  # ceil(log2 3) = 2
    assert levels1[-1] == 1


def test_capacity_vector_consistent_with_pointwise():
    sp = CORPUS["intervals8w"]
    eps = Fraction(1, 8)
    z, levels = capacity_levels(eps)
    vec = capacity_vector(sp, eps)
    assert len(vec) == z
    for i, tau_i in enumerate(vec, start=1):
        assert tau_i == alexander_capacity(sp, levels[i]), i


def test_doubling_exact_matches_oracle():
    for key in SMALL:
        sp = CORPUS[key]
        for eps in (Fraction(1, 4), Fraction(1, 8)):
            got = doubling_constant(sp, eps)
            want = oracle_doubling(sp, eps)
            assert got.mode == "exact"
            assert got.value == want, (key, eps)


def _far_graph_spaces():
    """The corpus and 40 seeded random spaces, half of them weighted (up
    to 12 points of weight 1..60, so up to 10 planes)."""
    spaces = list(CORPUS.values())
    for seed in range(40):
        spaces.append(gen_random(
            6 + seed % 7, 8 + 3 * (seed % 6), ("uniform", "geometric")[seed % 2],
            ("ones", "uniform")[seed >= 20], seed=seed, w_max=(8, 60)[seed % 3 == 0]))
    return spaces


def test_doubling_reads_the_same_from_a_pair_at_a_time_far_graph(monkeypatch):
    # The same Bound (value, upper end, members, eps0) and the same clique
    # questions and answers, in order, whether the sweep reads the far
    # graph from the bit-sliced counters or one pair at a time.
    spaces = _far_graph_spaces()
    asked = []

    def recording(adj, lower_bound=0):
        out = packing.max_clique(adj, lower_bound)
        asked.append((lower_bound, out))
        return out

    monkeypatch.setattr(complexity, "max_clique", recording)
    for sp in spaces:
        for eps in (Fraction(1, 4), Fraction(1, 8), Fraction(1, 16)):
            monkeypatch.setattr(complexity, "FarGraph", packing.FarGraph)
            real = doubling_constant(sp, eps)
            real_asked = asked[:]
            asked.clear()
            monkeypatch.setattr(complexity, "FarGraph", PairFarGraph)
            assert doubling_constant(sp, eps) == real, (sp.name, eps)
            assert asked == real_asked, (sp.name, eps)
            asked.clear()

    # Building the counters weighs no mask.
    weighed = []
    mask_weight = RangeSpace.mask_weight
    monkeypatch.setattr(RangeSpace, "mask_weight",
                        lambda self, mask: weighed.append(mask) or mask_weight(self, mask))
    for sp in spaces:
        packing.FarGraph(sp, [sp.ranges[i] for i in sp.measure_order])
    assert weighed == []
    spaces[0].mask_weight(1)
    assert weighed == [1]


def test_doubling_frozen_values():
    # disjoint singletons at eps=1/8: every pair is 2/8-separated, all eight
    # fit below the 2*eps0 weight cap at eps0=1/8
    r = doubling_constant(CORPUS["singles8"], Fraction(1, 8))
    assert r.value == 8
    # nested chain: symmetric differences nest too, the packing is tiny
    r = doubling_constant(CORPUS["chain8"], Fraction(1, 4))
    assert r.value == oracle_doubling(CORPUS["chain8"], Fraction(1, 4)) == 2


def test_doubling_bracket_brackets_exact(monkeypatch):
    for key in ("intervals6", "halfplanes5", "random10a"):
        sp = CORPUS[key]
        eps = Fraction(1, 8)
        exact = doubling_constant(sp, eps).value
        with monkeypatch.context() as m:
            m.setattr(packing, "DEFAULT_CLIQUE_NODES", 3)
            br = doubling_constant(sp, eps)
        assert br.mode == "bracket"
        assert br.lower <= exact <= br.upper, key


def test_doubling_members_are_separated():
    sp = CORPUS["intervals6"]
    eps = Fraction(1, 8)
    r = doubling_constant(sp, eps)
    eps0 = r.eps0
    for i in r.witness:
        assert sp.measure(i) <= 2 * eps0
    for a in r.witness:
        for b in r.witness:
            if a < b:
                assert sp.rho(a, b) >= eps0


def test_doubling_auto_falls_back_to_bracket_when_clique_budget_runs_out():
    # At eps = 1/16 one far graph needs far more max clique nodes than the
    # budget (the unbudgeted search ran for over ten minutes); auto mode
    # must answer with the incumbent and the colouring bound, no looser
    # than the greedy lower end 10 and the trivial ceiling |R| = 132.
    sp = gen_lower_bound_family(LowerBoundParams(k=2, d=3, l=2, m=3))
    start = time.perf_counter()
    r = doubling_constant(sp, Fraction(1, 16))
    assert time.perf_counter() - start < 30
    assert r.mode == "bracket"
    assert 10 <= r.lower <= r.upper < 132


def test_doubling_is_exact_on_halfplanes30():
    # 871 ranges: doubling is gated by clique nodes, not by range count.
    sp = gen_geometric("halfplanes", random_points(30, 2, seed=7))
    r = doubling_constant(sp, Fraction(1, 8))
    assert r.mode == "exact" and r.value == 25


def test_doubling_mode_is_ignored_and_a_clique_trip_is_a_bracket(monkeypatch):
    # mode is accepted and ignored, whatever its value: a tripped clique
    # budget answers the same bracket, which holds the exact value.
    monkeypatch.setattr(packing, "DEFAULT_CLIQUE_NODES", 1)
    sp = CORPUS["intervals6"]
    r = doubling_constant(sp, Fraction(1, 8))
    assert r.mode == "bracket"
    assert r.lower <= oracle_doubling(sp, Fraction(1, 8)) <= r.upper
    for mode in ("exact", "bracket"):
        assert doubling_constant(sp, Fraction(1, 8), mode=mode) == r


def test_doubling_bracket_lower_end_is_at_least_one_range(monkeypatch):
    # A clique search that trips before its first leaf has an empty
    # incumbent, but one eligible range is always a packing.
    monkeypatch.setattr(packing, "DEFAULT_CLIQUE_NODES", 1)
    sp = CORPUS["intervals6"]
    r = doubling_constant(sp, Fraction(1, 8))
    assert r.mode == "bracket"
    assert r.lower == len(r.witness) == 1 and r.eps0 is not None
    assert Fraction(1, 8) <= r.eps0 and sp.measure(r.witness[0]) <= 2 * r.eps0
    assert r.upper >= 11  # the exact value


def test_doubling_deeper_than_the_recursion_limit_is_a_bracket():
    # 1,200 singletons at eps = 1/1200: every pair is far, so the clique
    # search descends 1,200 levels and passes the recursion limit. The
    # answer is a bracket up to the colouring's 1,200 that holds the exact
    # value, all 1,200 singletons, never a RecursionError.
    n = 1200
    sp = build_range_space(n, [1] * n, [[p] for p in range(n)])
    eps = Fraction(1, n)
    r = doubling_constant(sp, eps)
    assert r.mode == "bracket" and 1 <= r.lower < r.upper == n


def test_shallow_cell_matches_oracle():
    for key in ("singles8", "powerset3", "chain8", "sparse-singles8"):
        sp = CORPUS[key]
        for y in range(sp.n + 1):
            for l in (0, 1, 2):
                got = shallow_cell(sp, y, l)
                want = oracle_shallow(sp, y, l)
                assert got.exact and got.value == want, (key, y, l)


def test_shallow_cell_counts_small_subsets_too():
    # {{a},{a,b}}: on the full pair no trace has size <= 0, but the
    # one-point subset {b} sees the empty trace; the at-most-y semantics
    # keeps the count monotone in y
    sp = build_range_space(2, [1, 1], [[0], [0, 1]])
    assert shallow_cell(sp, 2, 0).value == 1
    prev = 0
    for y in range(sp.n + 1):
        cur = shallow_cell(sp, y, 1).value
        assert cur >= prev
        prev = cur


def test_star_matches_oracle():
    for key in SMALL:
        sp = CORPUS[key]
        r = star_number(sp)
        assert r.exact and r.lower == r.upper == oracle_star(sp), key


def test_star_greedy_at_its_ceiling_is_exact():
    # 24 singletons: 24 one-point components, each greedy takes its
    # point, so no walk runs and the sum reaches n, which no star set
    # can beat; cap is ignored
    sp = build_range_space(24, [1] * 24, [[p] for p in range(24)])
    assert star_number(sp) == star_number(sp, cap=24)
    assert star_number(sp).exact and star_number(sp).lower == 24


@pytest.mark.parametrize("build, want", [
    (lambda: gen_lower_bound_family(LowerBoundParams(k=2, d=3, l=2, m=3)), 18),
    (lambda: gen_geometric("intervals", random_points(40, 1, seed=7)), 38),
    (lambda: gen_geometric("halfplanes", random_points(30, 2, seed=7)), 13),
], ids=["lb-k2d3l2m3", "intervals40", "halfplanes30"])
def test_star_walk_proves_the_greedy_value(build, want):
    # Each has 30 or 40 points; the walk, primed with its first path (the
    # greedy pass in point order), finishes within its node budget, so
    # the bound is exact.
    star = star_number(build())
    assert star.exact and star.value == want


def test_star_walk_deeper_than_the_recursion_limit_is_a_bracket():
    # One component of 1,200 points (the full range joins them): all but
    # the last two are singletons and those two share one range, so the
    # walk's first path is 1,199 points deep. It must end in a bracket
    # around the greedy's n - 1, not in a RecursionError.
    n = 1200
    sp = build_range_space(n, [1] * n, [[p] for p in range(n - 2)]
                           + [[n - 2, n - 1], list(range(n))])
    star = star_number(sp)
    assert star.lower == n - 1 <= star.upper


def test_shallow_cell_deeper_than_the_recursion_limit_is_a_bound():
    # The first path of the phi walk at y = l = n adds every point, so on
    # 1,200 points it passes the recursion limit: that is a tripped
    # budget, answered by the sampled estimate under the ceiling |R|.
    n = 1200
    sp = build_range_space(n, [1] * n, [[p] for p in range(n - 2)]
                           + [[n - 2, n - 1], list(range(n))])
    phi = shallow_cell(sp, n, n)
    assert phi.lower <= n == phi.upper


def test_profile_sauer_sum_certifies_sampled_pi():
    # intervals24 has d = 2, and the profile passes it to the pi walks,
    # which stop once they reach the Sauer sums 1 + 7 + 21 = 29 and
    # 1 + 8 + 28 = 37 for pi(7) and pi(8), so both are exact.
    sp = gen_geometric("intervals", random_points(24, 1, seed=3))
    prof = compute_profile(sp, Fraction(1, 8))
    pi = dict(prof.pi)
    assert prof.d.value == 2
    assert pi[7] == Bound(29, 29) and pi[8] == Bound(37, 37)


def test_profile_pi_above_the_sauer_sum_is_loud(monkeypatch):
    # intervals6 has d = 2, so no 3-point set has 8 traces: a forged
    # pi(3), the row pi(4)'s walk harvests, must raise.
    rows = complexity.projection_rows

    def forged(space, ys, seed=0, d=None):
        return tuple((y, Bound(8, 8) if y == 3 else b)
                     for y, b in rows(space, ys, seed, d))

    monkeypatch.setattr(complexity, "projection_rows", forged)
    with pytest.raises(TheoremViolationError):
        compute_profile(CORPUS["intervals6"], Fraction(1, 4))


@pytest.mark.parametrize("pi_max_y", [-3, -1, True, False, 2.0, "8", None])
def test_profile_rejects_a_pi_max_y_that_is_not_a_non_negative_int(
    pi_max_y, monkeypatch,
):
    # Negative sizes used to give no pi rows and True acted as 1; the
    # check comes before any search.
    calls = []
    monkeypatch.setattr(complexity, "vc_dimension",
                        lambda space: calls.append(space))
    with pytest.raises(ValueError, match="pi_max_y"):
        compute_profile(CORPUS["intervals6"], Fraction(1, 4), pi_max_y=pi_max_y)
    assert calls == []


@pytest.mark.parametrize("y", [2.0, True, "2", -1, 7])
def test_projection_size_outside_the_points_or_not_an_int_is_a_value_error(y):
    with pytest.raises(ValueError, match="projection sizes"):
        projection_function(CORPUS["intervals6"], y)


# Nodes each pi row's walk spends, with the exact VC dimension passed as
# compute_profile passes it, recorded before pi rows were harvested; y
# runs from 0. A walk that also yields the row below must spend what it
# spent alone, so every trip and bracket stays where it was.
PI_WALK_SPENDS = {
    "singles8": [0, 16, 16, 16, 16, 16, 16, 16, 16],
    "powerset3": [0, 1, 2, 3],
    "sparse-singles8": [0, 8, 8, 8, 8, 8, 8, 8, 8],
    "chain8": [0, 1, 3, 10, 25, 40, 41, 28, 8],
    "intervals6": [0, 1, 2, 3, 4, 5, 6],
    "intervals8w": [0, 1, 2, 3, 4, 5, 6, 7, 8],
    "lb-k1d2l1m2": [0, 6, 10, 16, 16, 16],
    "lb-k1d2l2m2": [0, 12, 20, 32, 32, 32, 32, 32, 32],
    "lb-k2d3l1m2": [0, 4, 12, 36, 84, 94, 106, 106, 106],
    "random10a": [0, 1, 2, 3, 120, 210, 252, 16, 12],
    "random10b": [0, 1, 2, 4, 120, 210, 252, 12, 8],
    "random12w": [0, 1, 2, 3, 7, 495, 792, 924, 36],
    "halfplanes5": [0, 1, 2, 3, 10, 5],
    "disks5": [0, 1, 2, 3, 10, 5],
}


@pytest.fixture
def budgets(monkeypatch):
    """The Budgets complexity makes, in the order it makes them."""
    made = []

    class Recorded(complexity.Budget):
        def __init__(self, nodes, search):
            super().__init__(nodes, search)
            made.append(self)

    monkeypatch.setattr(complexity, "Budget", Recorded)
    return made


def test_pi_walks_spend_the_nodes_they_spent_alone(budgets):
    disks14 = gen_geometric("disks", random_points(14, 2, seed=3),
                            name="disks14")
    cases = [(CORPUS[key], dict(enumerate(spends)))
             for key, spends in PI_WALK_SPENDS.items()]
    cases.append((disks14, {7: 3003, 8: 3432}))
    # Recorded before pi leaves stopped short of the incumbent, which
    # they do here.
    cases.append((gen_random(14, 120, "uniform", "uniform", seed=1),
                  {7: 3003, 8: 3432}))
    harvested = []
    for sp, spends in cases:
        d = vc_dimension(sp).value
        for y in [y for y in spends if y - 1 in spends]:
            budgets.clear()
            alone = [projection_function(sp, x, d=d) for x in (y - 1, y)]
            assert [b.spent for b in budgets] == [spends[y - 1], spends[y]]
            budgets.clear()
            rows = projection_rows(sp, (y - 1, y), d=d)
            # Row y is walked first; row y - 1 is walked only when the
            # harvest did not stand, and is then the same either way.
            walked = [b.spent for b in budgets]
            assert walked in ([spends[y]], [spends[y], spends[y - 1]])
            assert rows == ((y - 1, alone[0]), (y, alone[1])), (sp.name, y)
            if len(walked) == 1:
                harvested.append((sp.name, y - 1))
    # pi(7) of disks14 comes from pi(8)'s walk.
    assert ("disks14", 7) in harvested


def two_blocks():
    """Two point-sharing components: 12 random ranges on points 0..5 and
    12 on points 6..11."""
    left = gen_random(6, 12, "uniform", "uniform", seed=1)
    right = gen_random(6, 12, "uniform", "uniform", seed=2)
    ranges = ([[x for x in range(6) if r >> x & 1] for r in left.ranges]
              + [[6 + x for x in range(6) if r >> x & 1] for r in right.ranges])
    return build_range_space(12, [1] * 12, ranges, name="two-blocks")


def test_pi_rows_on_components_walk_each_size_once(budgets):
    # lb-k2d3l2m3 has six components. Rows 0..8 walk each component once
    # at each size 1..8 on one budget: 3,968 nodes, where a walk of every
    # size <= y for each row y spent 12,704.
    sp = gen_lower_bound_family(LowerBoundParams(k=2, d=3, l=2, m=3))
    rows = projection_rows(sp, range(9))
    assert [b.spent for b in budgets] == [3968]
    assert [b.lower for _, b in rows] == [1, 2, 4, 8, 12, 17, 23, 30, 38]
    assert all(b.exact for _, b in rows)


def test_pi_rows_on_components_past_the_budget_are_exact_below_the_trip(
    budgets, monkeypatch,
):
    # Row y alone walks every size <= y, so its spend is the cost of the
    # ascending walks through size y. With WALK_NODES at row 3's spend,
    # the walks of size 4 trip the shared budget: rows 0..3 stay exact
    # and rows 4..6 are the sampled fallback on their own streams.
    sp = two_blocks()
    assert len(sp.point_components) == 2
    spends = []
    for y in range(7):
        projection_function(sp, y)
        spends.append(budgets[-1].spent)
    assert spends[3] < spends[4]
    monkeypatch.setattr(complexity, "WALK_NODES", spends[3])
    rows = projection_rows(sp, range(7), seed=5)
    for y, b in rows[:4]:
        assert b == Bound(oracle_pi(sp, y), oracle_pi(sp, y)), y
    for y, b in rows[4:]:
        top = min(1 << y, len(sp.ranges))
        assert b == complexity._sampled(sp, stream_rng(5, "pi", y),
                                        lambda rng: y, len, top), y
        assert b.upper == top and not b.exact


def test_star_frozen_values():
    assert star_number(CORPUS["singles8"]).lower == 8
    assert star_number(CORPUS["sparse-singles8"]).lower == 4
    assert star_number(CORPUS["chain8"]).lower == 1
    assert star_number(CORPUS["intervals6"]).lower == 6
    assert star_number(CORPUS["powerset3"]).lower == 3


def test_value_of_a_bracket_raises(monkeypatch):
    # Each estimator forced into a bracket: the value is not known, so
    # .value refuses and .lower / .upper carry the answer.
    monkeypatch.setattr(complexity, "ESTIMATE_DRAWS", 1)
    monkeypatch.setattr(complexity, "WALK_NODES", 1)
    monkeypatch.setattr(packing, "DEFAULT_CLIQUE_NODES", 1)
    sp, chain = CORPUS["intervals6"], CORPUS["chain8"]
    cases = {
        # 3 points realize at most 7 interval traces, never 2^3
        "pi": (projection_function(sp, 3), oracle_pi(sp, 3)),
        # at most 7 traces of size <= 1, against 21 ranges
        "phi": (shallow_cell(sp, 6, 1), oracle_shallow(sp, 6, 1)),
        "vc": (vc_dimension(sp), oracle_vc(sp)),
        "star": (star_number(chain), oracle_star(chain)),
        "doubling": (doubling_constant(sp, Fraction(1, 8)),
                     oracle_doubling(sp, Fraction(1, 8))),
    }
    for name, (got, want) in cases.items():
        assert not got.exact and got.mode == "bracket", name
        assert got.lower <= want <= got.upper, name
        with pytest.raises(ValueError):
            got.value


def test_tripped_outputs_are_frozen(monkeypatch):
    # Every search of the corpus at budgets small enough to trip: the VC,
    # pi, phi and star walks at WALK_NODES 1, 7 and 60, doubling and exact
    # packing at DEFAULT_CLIQUE_NODES 0, 1, 3 and 12, and the min net at
    # EXACT_NET_NODES 1, 2 and 5, its error text and nodes spent when it
    # trips. Brackets, sampled rows, incumbents and spends all count.
    records = []
    for nodes in (1, 7, 60):
        monkeypatch.setattr(complexity, "WALK_NODES", nodes)
        for key, sp in CORPUS.items():
            y = min(sp.n, 6)
            records.append((key, nodes, vc_dimension(sp),
                            projection_rows(sp, range(y + 1)),
                            shallow_cell(sp, y, 3), star_number(sp)))
    monkeypatch.undo()
    for nodes in (0, 1, 3, 12):
        monkeypatch.setattr(packing, "DEFAULT_CLIQUE_NODES", nodes)
        for key, sp in CORPUS.items():
            for eps in (Fraction(1, 4), Fraction(1, 8)):
                records.append((key, nodes, eps, doubling_constant(sp, eps),
                                max_packing_exact(sp, eps)))
    monkeypatch.undo()
    for nodes in (1, 2, 5):
        monkeypatch.setattr(nets, "EXACT_NET_NODES", nodes)
        for key, sp in CORPUS.items():
            for eps in (Fraction(1, 4), Fraction(1, 8)):
                try:
                    got = min_net_exact(sp, eps).points
                except CapExceededError as exc:
                    got = (str(exc), exc.spent)
                records.append((key, nodes, eps, got))
    assert len(records) == 238
    assert hashlib.sha256(repr(records).encode()).hexdigest() == (
        "13a1d2e3bb6b43a5716fa670f6d3a41153a62d53ca84381c5d4e703a2bb9bd82")
