"""Complexity measures cross-checked against the brute-force oracles.

Expected values below were computed with tests/oracles.py first and then
frozen as literals, so a regression in either side trips the comparison.
"""

import time
from fractions import Fraction

import pytest

from epsnet import complexity, packing
from epsnet.complexity import (
    alexander_capacity,
    capacity_levels,
    capacity_vector,
    doubling_constant,
    projection_function,
    sauer_check,
    shallow_cell,
    star_number,
    vc_dimension,
    vc_of_masks,
    vc_or_lower_bound,
)
from epsnet.core import (
    CapExceededError,
    TheoremViolationError,
    build_range_space,
)
from epsnet.generators import (
    LowerBoundParams,
    gen_geometric,
    gen_lower_bound_family,
    random_points,
)

from corpus import CORPUS, EPS_GRID
from oracles import (
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


def test_vc_node_budget_raises_with_work_spent_and_falls_back(monkeypatch):
    monkeypatch.setattr(complexity, "VC_NODES", 1)
    sp = CORPUS["intervals6"]
    with pytest.raises(CapExceededError) as info:
        vc_dimension(sp)
    assert info.value.spent == 1
    lo = vc_or_lower_bound(sp)
    assert not lo.exact and lo.value <= oracle_vc(sp)
    assert lo == vc_dimension(sp, mode="lower_bound")


def test_vc_lower_bound_mode_sandwich(monkeypatch):
    monkeypatch.setattr(complexity, "ESTIMATE_DRAWS", 200)
    for key in ("intervals6", "halfplanes5", "disks5"):
        sp = CORPUS[key]
        lo = vc_dimension(sp, mode="lower_bound", seed=7)
        assert not lo.exact
        assert 0 <= lo.value <= vc_dimension(sp).value


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
            got = doubling_constant(sp, eps, mode="exact")
            want = oracle_doubling(sp, eps)
            assert got.mode == "exact"
            assert got.value == want, (key, eps)


def test_doubling_frozen_values():
    # disjoint singletons at eps=1/8: every pair is 2/8-separated, all eight
    # fit below the 2*eps0 weight cap at eps0=1/8
    r = doubling_constant(CORPUS["singles8"], Fraction(1, 8), mode="exact")
    assert r.value == 8
    # nested chain: symmetric differences nest too, the packing is tiny
    r = doubling_constant(CORPUS["chain8"], Fraction(1, 4), mode="exact")
    assert r.value == oracle_doubling(CORPUS["chain8"], Fraction(1, 4)) == 2


def test_doubling_bracket_brackets_exact(monkeypatch):
    for key in ("intervals6", "halfplanes5", "random10a"):
        sp = CORPUS[key]
        eps = Fraction(1, 8)
        exact = doubling_constant(sp, eps, mode="exact").value
        with monkeypatch.context() as m:
            m.setattr(packing, "DEFAULT_CLIQUE_NODES", 3)
            br = doubling_constant(sp, eps)
        assert br.mode == "bracket"
        assert br.lower <= exact <= br.upper, key


def test_doubling_members_are_separated():
    sp = CORPUS["intervals6"]
    eps = Fraction(1, 8)
    r = doubling_constant(sp, eps, mode="exact")
    eps0 = r.eps0
    for i in r.members:
        assert sp.measure(i) <= 2 * eps0
    for a in r.members:
        for b in r.members:
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


def test_doubling_exact_mode_raises_when_clique_budget_runs_out(monkeypatch):
    monkeypatch.setattr(packing, "DEFAULT_CLIQUE_NODES", 1)
    sp = CORPUS["intervals6"]
    with pytest.raises(CapExceededError):
        doubling_constant(sp, Fraction(1, 8), mode="exact")
    assert doubling_constant(sp, Fraction(1, 8)).mode == "bracket"
    with pytest.raises(ValueError):
        doubling_constant(sp, Fraction(1, 8), mode="bracket")


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
    # 24 singletons: past the exact search's point cap, but the greedy
    # reaches the ceiling n, which no star set can beat
    sp = build_range_space(24, [1] * 24, [[p] for p in range(24)])
    assert star_number(sp) == star_number(sp, cap=24)
    assert star_number(sp).exact and star_number(sp).lower == 24


def test_star_frozen_values():
    assert star_number(CORPUS["singles8"]).lower == 8
    assert star_number(CORPUS["sparse-singles8"]).lower == 4
    assert star_number(CORPUS["chain8"]).lower == 1
    assert star_number(CORPUS["intervals6"]).lower == 6
    assert star_number(CORPUS["powerset3"]).lower == 3
