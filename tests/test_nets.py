"""Net constructions: every builder must produce a certified net (or report
failure honestly), and the exact oracle pins down minimum sizes."""

import hashlib
import json
from fractions import Fraction

import pytest

from epsnet import nets
from epsnet.complexity import alexander_capacity, capacity_vector
from epsnet.core import InstanceError, RangeSpace, build_range_space
from epsnet.experiment import METHODS, ExperimentConfig, run_method
from epsnet.generators import gen_geometric, random_points
from epsnet.nets import (
    build_decomposition,
    cal_net,
    capacity_size_bound,
    doubling_net,
    doubling_net_small_d,
    greedy_net,
    iid_net,
    iid_sample_size,
    min_net_exact,
    small_doubling_size_bound,
    stratified_net,
    stratified_size_bound,
    verify_net,
)

from corpus import CORPUS, EPS_GRID
from oracles import oracle_min_hitting

SMALL = [k for k, sp in CORPUS.items() if sp.n <= 10 and len(sp.ranges) <= 25]


# -- verification semantics ---------------------------------------------------


def test_full_support_is_always_a_net():
    for key, sp in CORPUS.items():
        support = [x for x in range(sp.n) if sp.weights[x] > 0]
        for eps in EPS_GRID:
            assert verify_net(sp, support, eps).is_net, key


def test_empty_candidate_fails_iff_heavy_range_exists():
    sp = CORPUS["singles8"]  # every range has measure exactly 1/8
    assert not verify_net(sp, [], Fraction(1, 8)).is_net
    assert verify_net(sp, [], Fraction(1, 4)).is_net  # nothing qualifies


def test_violation_indices_reported():
    sp = build_range_space(4, [1, 1, 1, 1], [[0, 1], [2, 3]])
    rep = verify_net(sp, [0], Fraction(1, 2))
    assert not rep.is_net
    assert rep.violations == (1,)  # the {2,3} range after canonical sort
    assert verify_net(sp, [0, 2], Fraction(1, 2)).is_net


def test_threshold_is_inclusive():
    # a range with measure exactly eps must be hit
    sp = build_range_space(2, [1, 1], [[0]])
    assert not verify_net(sp, [1], Fraction(1, 2)).is_net
    assert verify_net(sp, [0], Fraction(1, 2)).is_net


def test_zero_weight_candidate_is_an_error():
    sp = build_range_space(3, [1, 1, 0], [[0, 1]])
    with pytest.raises(InstanceError):
        verify_net(sp, [2], Fraction(1, 2))
    with pytest.raises(InstanceError):
        verify_net(sp, [7], Fraction(1, 2))


def test_bad_eps_rejected():
    sp = CORPUS["chain8"]
    for bad in (Fraction(0), Fraction(-1, 2), Fraction(3, 2)):
        with pytest.raises(ValueError):
            verify_net(sp, [0], bad)


def test_report_round_trips_through_json():
    rep = stratified_net(CORPUS["intervals8w"], Fraction(1, 8), seed=1)
    blob = json.dumps(rep.to_dict())
    back = json.loads(blob)
    assert back["is_net"] is True
    assert back["size"] == rep.size


# -- dyadic decomposition -----------------------------------------------------


def test_decomposition_partitions_and_brackets_measures():
    for key, sp in CORPUS.items():
        for eps in EPS_GRID:
            dec = build_decomposition(sp, eps)
            seen = sorted(i for b in dec.buckets for i in b)
            assert seen == list(range(len(sp.ranges))), key
            for b, bucket in enumerate(dec.buckets):
                for i in bucket:
                    q = sp.measure(i)
                    if b == 0:
                        assert q < dec.levels[0]
                    elif b < dec.z:
                        assert dec.levels[b - 1] <= q < dec.levels[b]
                    else:
                        assert q >= dec.levels[dec.z - 1]


def test_decomposition_level_ladder():
    dec = build_decomposition(CORPUS["chain8"], Fraction(1, 16))
    assert dec.z == 5
    assert dec.levels[0] == Fraction(1, 16)
    assert dec.levels[-1] == 1
    assert len(dec.taus) == dec.z + 1


def test_capacity_and_decomposition_mask_weight_counts_repeat(monkeypatch):
    # The bench's traced counts must not depend on which call is first to
    # touch a space: capacity reads only the table built on first use, and
    # build_decomposition's weight evaluations repeat exactly.
    sp = RangeSpace.from_dict(CORPUS["random12w"].to_dict())
    calls = []
    weigh = RangeSpace.mask_weight

    def counted(space, mask):
        calls.append(mask)
        return weigh(space, mask)

    monkeypatch.setattr(RangeSpace, "mask_weight", counted)
    eps = Fraction(1, 16)
    alexander_capacity(sp, eps)
    capacity_vector(sp, eps)
    assert calls == []
    build_decomposition(sp, eps)
    first = len(calls)
    build_decomposition(sp, eps)
    assert first > 0 and len(calls) == 2 * first


# -- i.i.d. builder -----------------------------------------------------------


def test_iid_deterministic_per_seed():
    sp = CORPUS["intervals6"]
    a = iid_net(sp, Fraction(1, 4), Fraction(1, 4), seed=3)
    b = iid_net(sp, Fraction(1, 4), Fraction(1, 4), seed=3)
    assert a.points == b.points and a.is_net == b.is_net


def test_iid_trivial_full_scale():
    # at eps = 1 only full-measure ranges qualify, and they contain every
    # support point, so any draw is a net
    sp = CORPUS["random12w"]
    rep = iid_net(sp, Fraction(1), Fraction(1, 2), seed=0)
    assert rep.is_net


def test_iid_capacity_sizing_on_chain():
    # nested chain has capacity 1: the capacity sizing drops the d*ln term
    m = iid_sample_size(Fraction(1, 8), Fraction(1, 10), d=1,
                        sizing="capacity", tau=Fraction(1))
    import math
    assert m == math.ceil(8.0 * math.log(10) * 8)
    rep = iid_net(CORPUS["chain8"], Fraction(1, 8), Fraction(1, 10),
                  sizing="capacity", seed=2)
    assert rep.stats["tau"] == 1
    assert rep.stats["draws"] == m


def test_builders_compute_d_themselves_on_40_points():
    sp = gen_geometric("intervals", random_points(40, 1, seed=7))
    eps = Fraction(1, 8)
    assert iid_net(sp, eps, Fraction(1, 10)).stats["d"] == 2
    rep = doubling_net(sp, eps)
    assert rep.is_net and rep.stats["d"] == 2


def test_iid_sample_size_validation():
    with pytest.raises(ValueError):
        iid_sample_size(Fraction(0), Fraction(1, 2), 1)
    with pytest.raises(ValueError):
        iid_sample_size(Fraction(1, 2), Fraction(1, 2), 1, sizing="nope")
    with pytest.raises(ValueError):
        iid_sample_size(Fraction(1, 2), Fraction(1, 2), 1,
                        sizing="capacity")  # tau missing


# -- the guaranteed builders always verify ------------------------------------


def test_stratified_always_a_net():
    for key, sp in CORPUS.items():
        for eps in EPS_GRID:
            rep = stratified_net(sp, eps, seed=5)
            assert rep.is_net, (key, eps)
            assert rep.stats["z"] >= 1


def test_doubling_always_a_net():
    for key, sp in CORPUS.items():
        for eps in EPS_GRID:
            rep = doubling_net(sp, eps, seed=5)
            assert rep.is_net, (key, eps)
            assert len(rep.stats["packing_sizes"]) == rep.stats["z"]


def test_small_doubling_always_a_net():
    for key, sp in CORPUS.items():
        for eps in EPS_GRID:
            rep = doubling_net_small_d(sp, eps, seed=5)
            assert rep.is_net, (key, eps)


def test_small_doubling_fallback_flag():
    # eight disjoint singletons at eps=1/4: doubling constant 8 exceeds
    # 1/(2 eps) = 2, so the small-D gate must route to the fallback
    rep = doubling_net_small_d(CORPUS["singles8"], Fraction(1, 4), seed=1)
    assert rep.stats.get("fallback") is True
    assert rep.is_net
    # nested chain stays inside the small-D regime
    rep2 = doubling_net_small_d(CORPUS["chain8"], Fraction(1, 8), seed=1)
    assert "fallback" not in rep2.stats
    assert rep2.is_net


def test_stratified_repair_even_with_no_retries(monkeypatch):
    monkeypatch.setattr(nets, "STRATIFIED_RETRIES", 0)
    for key in ("random10a", "random12w"):
        rep = stratified_net(CORPUS[key], Fraction(1, 16), seed=9)
        assert rep.is_net, key


# sha256 over the sorted-key JSON of NetReport.to_dict() for every corpus
# space, eps in EPS_GRID and seed in {0, 1}, per registered method with the
# default settings. It pins the points and stats of every builder.
BUILDER_SHA = {
    "iid": "2a1ba637d09d6e63fe95f09698557e6f944be4cc0f2e40f1254de7667fcbe11d",
    "iid-capacity":
        "416edbebb04974748883e0f90d729628c763fd7ac2148c472938185c18d28498",
    "stratified":
        "d1264a4ba2095a52b124e856d5358b4e933afec78805ff1541221976170f7f3f",
    "doubling":
        "752b4d3b41290ff012e8a62a5226b0199dc291407817f7e3127019912fc5a0ab",
    "doubling-small":
        "26637c442a40b719bbb8c4ca3249ea58ca09302b2453d51f003e87999289b037",
    "cal": "d9b61f43e220f6b8aa806ec621de96427e8fd81282e4ccac14d233a9d754041c",
    "greedy":
        "0cb023d188d3bd538d57a056a242d18bdb87432a4ff9f635542904622fb525dc",
    "exact": "e4d27b5c110a55c6badbd961686e361bd2337ce6dad49b2b2b660ce6f7ccd79b",
}


def test_builders_are_frozen():
    assert sorted(BUILDER_SHA) == sorted(METHODS)
    config = ExperimentConfig()
    for method, sha in BUILDER_SHA.items():
        h = hashlib.sha256()
        for sp in CORPUS.values():
            for eps in EPS_GRID:
                for seed in (0, 1):
                    rep = run_method(sp, eps, method, seed, config)
                    h.update(json.dumps(rep.to_dict(), sort_keys=True).encode())
        assert h.hexdigest() == sha, method


# -- sequential builder -------------------------------------------------------


def test_cal_terminates_when_everything_is_hit():
    sp = build_range_space(2, [1, 1], [[0, 1]])
    rep = cal_net(sp, Fraction(1, 2), budget_n=5, seed=0)
    assert rep.is_net
    assert rep.stats["kept"] == 1
    assert rep.stats["surviving"] == 0


def test_cal_with_generous_budget_nets_the_corpus():
    # the draw guard is 2^budget_n, so a budget of 20 allows ~1e6 draws;
    # each kept point retires at least one range, so the loop stops long
    # before the point budget is spent
    for key in SMALL:
        sp = CORPUS[key]
        rep = cal_net(sp, Fraction(1, 8), budget_n=20, seed=4)
        assert rep.is_net, key
        assert rep.stats["surviving"] == 0


def test_cal_budget_too_small_fails_honestly():
    # four disjoint qualifying singletons cannot be hit by one point
    rep = cal_net(CORPUS["sparse-singles8"], Fraction(1, 8), budget_n=1,
                  seed=0)
    assert not rep.is_net
    assert rep.stats["kept"] == 1
    with pytest.raises(ValueError):
        cal_net(CORPUS["chain8"], Fraction(1, 2), budget_n=0)


def test_cal_stops_when_only_zero_measure_ranges_survive():
    # range [2] holds only a weight-0 point, so no draw can ever hit it
    sp = build_range_space(3, [1, 1, 0], [[2], [0]])
    rep = cal_net(sp, Fraction(1, 2), 20)
    assert rep.is_net and rep.points == (0,)
    assert rep.stats["surviving"] == 0
    assert rep.stats["draws"] < 100 < nets.DRAW_CAP


def test_cal_keeps_only_points_inside_surviving_ranges():
    sp = CORPUS["sparse-singles8"]  # points 1,3,5,7 lie in no range
    rep = cal_net(sp, Fraction(1, 8), budget_n=8, seed=11)
    for p in rep.points:
        assert any(r >> p & 1 for r in sp.ranges)


# -- hitting-set oracles ------------------------------------------------------


def test_greedy_frozen_examples():
    # disjoint singletons need one point each
    assert greedy_net(CORPUS["sparse-singles8"], Fraction(1, 8)).size == 4
    # every chain member contains point 0
    assert greedy_net(CORPUS["chain8"], Fraction(1, 8)).size == 1


def test_exact_matches_oracle_on_small_corpus():
    for key in SMALL:
        sp = CORPUS[key]
        for eps in EPS_GRID:
            got = min_net_exact(sp, eps)
            want = oracle_min_hitting(sp, eps)
            assert got.is_net
            assert got.size == want, (key, eps)


def test_sandwich_min_le_greedy_le_constructions():
    for key, sp in CORPUS.items():
        if sp.n > 12:
            continue
        for eps in EPS_GRID:
            lo = min_net_exact(sp, eps).size
            g = greedy_net(sp, eps).size
            assert lo <= g, (key, eps)
            for rep in (
                stratified_net(sp, eps, seed=2),
                doubling_net(sp, eps, seed=2),
            ):
                assert lo <= rep.size or rep.size == 0, (key, eps, rep.method)


# -- size bound formulas ------------------------------------------------------


def test_bound_formulas_positive_and_ordered():
    taus = [Fraction(4), Fraction(3), Fraction(2), Fraction(1)]
    assert stratified_size_bound(2, taus) > 0
    assert capacity_size_bound(2, Fraction(4), Fraction(1, 8)) > 0
    assert small_doubling_size_bound(2, 3.0, Fraction(1, 8)) > 0
    # capacity bound grows with tau
    assert capacity_size_bound(2, Fraction(8), Fraction(1, 8)) > \
        capacity_size_bound(2, Fraction(2), Fraction(1, 8))
