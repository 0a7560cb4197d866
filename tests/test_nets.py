"""Net constructions: every builder must produce a certified net (or report
failure honestly), and the exact oracle pins down minimum sizes."""

import hashlib
import json
import math
import random
from fractions import Fraction

import pytest

from epsnet import core, nets
from epsnet.complexity import alexander_capacity, capacity_vector
from epsnet.core import (
    Bound,
    InstanceError,
    RangeSpace,
    TheoremViolationError,
    build_range_space,
    stream_rng,
)
from epsnet.experiment import METHODS, ExperimentConfig, run_method
from epsnet.generators import gen_geometric, gen_random, random_points
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
from epsnet.packing import Packing

from corpus import CORPUS, EPS_GRID
from oracles import oracle_greedy_hitting, oracle_min_hitting

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


def test_candidate_points_must_be_true_ints():
    # True equals 1 and 1.0 sorts among ints, but neither is a point:
    # each is an InstanceError that names it, as is a string.
    sp = build_range_space(3, [1, 1, 1], [[0, 1]])
    for candidate, name in (([True], "True"), ([0, 1.0], "1.0"), (["2"], "'2'")):
        with pytest.raises(InstanceError, match=f"candidate point {name} is not"):
            verify_net(sp, candidate, Fraction(1, 2))


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
    # the weight evaluations and packings of build_decomposition, and of
    # the dyadic builders called without dec=, repeat exactly, since no
    # cache outlives a call.
    sp = RangeSpace.from_dict(CORPUS["random12w"].to_dict())
    weights, packings = [], []
    weigh, pack = RangeSpace.mask_weight, nets.greedy_packing

    def counted_weigh(space, mask):
        weights.append(mask)
        return weigh(space, mask)

    def counted_pack(*args):
        packings.append(args[1:])
        return pack(*args)

    monkeypatch.setattr(RangeSpace, "mask_weight", counted_weigh)
    monkeypatch.setattr(nets, "greedy_packing", counted_pack)
    eps = Fraction(1, 16)
    alexander_capacity(sp, eps)
    capacity_vector(sp, eps)
    assert weights == []
    for build in (build_decomposition, stratified_net, doubling_net,
                  doubling_net_small_d):
        w0, p0 = len(weights), len(packings)
        build(sp, eps)
        w1, p1 = len(weights) - w0, len(packings) - p0
        build(sp, eps)
        assert w1 > 0, build
        assert (len(weights), len(packings)) == (w0 + 2 * w1, p0 + 2 * p1), build
        if build in (doubling_net, doubling_net_small_d):
            assert p1 > 0, build


def test_quarter_groups_are_built_only_for_the_repair(monkeypatch):
    # Each point of a member adds once to its group's counters. At C = 8
    # the draws on intervals40 at 1/8 hold the whole support, so the
    # repair reads no group. The small-D head repairs from an empty net;
    # a member whose support points earlier repairs have all covered would
    # be skipped, but on this instance no head member is covered before
    # its turn, so every member's group is built.
    sp = gen_geometric("intervals", random_points(40, 1, seed=7),
                       name="intervals40")
    eps = Fraction(1, 8)
    adds = []
    add = nets._add
    monkeypatch.setattr(nets, "_add", lambda *args: adds.append(1) or add(*args))
    rep = doubling_net(sp, eps, C=8, d=2, D=741.0)
    assert rep.is_net and rep.stats["repair_points"] == 0
    assert adds == []
    rep = doubling_net_small_d(sp, eps, C=8, d=2, D=2.0)
    assert rep.is_net and "fallback" not in rep.stats
    dec = build_decomposition(sp, eps)
    want = 0
    for b in range(1, rep.stats["i0"] + 1):
        if dec.buckets[b]:
            members = nets.greedy_packing(sp, dec.levels[b - 1],
                                          list(dec.buckets[b])).members
            want += sum(sp.ranges[q].bit_count() for q in members)
    assert want > 0 and len(adds) == want


def test_a_non_maximal_packing_leaves_the_lowest_unhomed_range_named(monkeypatch):
    # Bucket 1 of sparse-singles8 at 1/8 holds its four disjoint
    # singletons, each its own packing member. Without members 1 and 2
    # their ranges share no quarter of a member's mass.
    sp = CORPUS["sparse-singles8"]
    eps = Fraction(1, 8)
    assert build_decomposition(sp, eps).buckets[1] == (0, 1, 2, 3)
    monkeypatch.setattr(nets, "greedy_packing",
                        lambda *args: Packing(eps, (0, 3), False))
    with pytest.raises(TheoremViolationError,
                       match=r"^range 1 shares no quarter-mass packing member "
                             r"at scale 1/8$"):
        doubling_net(sp, eps, d=1, D=4.0)


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
    with pytest.raises(ValueError, match="eps must be in"):
        iid_sample_size(Fraction(0), Fraction(1, 2), 1)
    with pytest.raises(ValueError, match="delta must be in"):
        iid_sample_size(Fraction(1, 2), Fraction(0), 1)
    with pytest.raises(ValueError):
        iid_sample_size(Fraction(1, 2), Fraction(1, 2), 1, sizing="nope")
    with pytest.raises(ValueError):
        iid_sample_size(Fraction(1, 2), Fraction(1, 2), 1,
                        sizing="capacity")  # tau missing


@pytest.fixture()
def no_work(monkeypatch):
    """The builders' work (the VC walk, capacity, D and the decomposition)
    patched to fail, so a test sees which inputs are checked first."""
    def fail(*args):
        raise AssertionError("work ran before the input checks")

    for name in ("vc_dimension", "alexander_capacity", "build_decomposition",
                 "doubling_constant"):
        monkeypatch.setattr(nets, name, fail)


@pytest.mark.parametrize("C", [-1.0, 0.0, math.inf, math.nan])
@pytest.mark.parametrize(
    "build", [iid_net, stratified_net, doubling_net, doubling_net_small_d])
def test_builders_reject_a_sample_constant_that_is_not_positive_and_finite(
    build, C, no_work,
):
    # Unchecked, C = -1 sizes negative draw counts and C = 0 draws nothing.
    sp, eps = CORPUS["chain8"], Fraction(1, 8)
    args = ({"delta": Fraction(1, 10)} if build is iid_net
            else {} if build is stratified_net else {"D": 4.0})
    with pytest.raises(ValueError, match="C must be positive and finite"):
        build(sp, eps, C=C, **args)


@pytest.mark.parametrize("build,args,match", [
    (iid_net, {"delta": 0}, r"delta must be in \(0, 1\], got 0"),
    (iid_net, {"delta": Fraction(3, 2)}, r"delta must be in \(0, 1\], got 3/2"),
    (iid_net, {"delta": Fraction(1, 10), "sizing": "nope"}, "unknown sizing"),
    (iid_net, {"delta": Fraction(1, 10), "eps": 0}, r"eps must be in \(0, 1\]"),
    (stratified_net, {"eps": Fraction(2)}, r"eps must be in \(0, 1\]"),
], ids=["delta-0", "delta-3/2", "sizing", "iid-eps", "stratified-eps"])
def test_builders_reject_a_bad_delta_sizing_or_eps_before_any_work(
    build, args, match, no_work,
):
    args = {"eps": Fraction(1, 8), **args}
    with pytest.raises(ValueError, match=match):
        build(CORPUS["chain8"], **args)


@pytest.mark.parametrize("build", [doubling_net, doubling_net_small_d])
def test_doubling_builders_reject_an_infinite_D(build, no_work):
    with pytest.raises(ValueError, match="D must be finite"):
        build(CORPUS["chain8"], Fraction(1, 8), D=math.inf)


def test_iid_net_does_not_skip_the_stream_it_drops(monkeypatch):
    # The draws past the one that completes the sample cannot change it,
    # and iid_net reads nothing more from its stream, so it never skips.
    class NoSkip(random.Random):
        def getrandbits(self, k):
            raise AssertionError("iid_net skipped its stream")

    def no_skip_rng(seed, *stream):
        rng = NoSkip()
        rng.setstate(stream_rng(seed, *stream).getstate())
        return rng

    sp, eps, delta = CORPUS["chain8"], Fraction(1, 8), Fraction(1, 10)
    want = iid_net(sp, eps, delta, seed=3).to_dict()
    monkeypatch.setattr(nets, "stream_rng", no_skip_rng)
    assert iid_net(sp, eps, delta, seed=3).to_dict() == want
    # About 3.5e11 requested draws; only the first few are made.
    rep = iid_net(sp, eps, delta, C=1e10, seed=3)
    assert rep.stats["draws"] > 10**11
    assert rep.points == tuple(range(sp.n))


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


def test_stratified_repair_even_with_no_retries():
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
        "fe36b48852def05b2d7025d8c77a91f7db193fc92419f371c27d6d043bee4fd4",
    "doubling":
        "752b4d3b41290ff012e8a62a5226b0199dc291407817f7e3127019912fc5a0ab",
    "doubling-small":
        "26637c442a40b719bbb8c4ca3249ea58ca09302b2453d51f003e87999289b037",
    "cal": "d9b61f43e220f6b8aa806ec621de96427e8fd81282e4ccac14d233a9d754041c",
    "greedy":
        "0cb023d188d3bd538d57a056a242d18bdb87432a4ff9f635542904622fb525dc",
    "exact": "e41d84371a630645d7bf0fea751607cb21b3b766c60d8d921feb122250368802",
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


# The same hash for the dyadic builders at small C, where the draws miss
# often and most calls add repair points: corpus x EPS_GRID x C x seeds.
REPAIR_SHA = {
    "stratified":
        "af487ec40c53d933df48737bb6416f1cc0becf8d499a4f0bc5d5ec0c4ed012f9",
    "doubling":
        "82a52d01eda7e9a05b54ddafc568104fa8c79ed3b3beb088ed36566f4d4be73e",
    "doubling-small":
        "f87b4b4a5a3f90e4435cc77b8fec0d877ca297b36b32ffe83930606b704fe520",
}


def test_repairing_builders_are_frozen():
    repaired = 0
    for method, sha in REPAIR_SHA.items():
        h = hashlib.sha256()
        for C in (0.05, 0.5):
            config = ExperimentConfig(C=C)
            for sp in CORPUS.values():
                for eps in EPS_GRID:
                    for seed in (0, 1):
                        rep = run_method(sp, eps, method, seed, config)
                        stats = rep.stats
                        repaired += bool(stats.get("repair_points")
                                         or any(stats.get("member_net_sizes", ())))
                        h.update(json.dumps(rep.to_dict(), sort_keys=True).encode())
        assert h.hexdigest() == sha, method
    assert repaired > 250  # the repair runs on most of these calls


def test_shared_decomposition_gives_the_same_reports():
    # One decomposition per (space, eps), reused across seeds and across
    # the three dyadic builders, changes no report.
    builders = (stratified_net, doubling_net, doubling_net_small_d)
    for key, sp in CORPUS.items():
        for eps in EPS_GRID:
            dec = build_decomposition(sp, eps)
            for seed in (0, 1):
                for build in builders:
                    shared = build(sp, eps, seed=seed, dec=dec)
                    own = build(sp, eps, seed=seed)
                    assert shared.to_dict() == own.to_dict(), (key, eps, build)


def test_shared_decomposition_keys_cover_c_d_and_big_d():
    # Reports and draw sizes kept on a shared decomposition are read back
    # only for the same C, D and d: seeds 0, 1, 0 revisit every key. The
    # stats echo C as given, so 8 and 8.0 are told apart too.
    settings = [
        (C, D, d) for C in (8.0, 2.0, 8) for D in (None, 3.0) for d in (None, 1)
    ]
    for key, sp in CORPUS.items():
        for eps in EPS_GRID:
            dec = build_decomposition(sp, eps)
            for seed in (0, 1, 0):
                for C, D, d in settings:
                    kwargs = {"C": C, "seed": seed, "d": d}
                    for build, extra in ((stratified_net, {}),
                                         (doubling_net, {"D": D}),
                                         (doubling_net_small_d, {"D": D})):
                        shared = build(sp, eps, dec=dec, **kwargs, **extra)
                        own = build(sp, eps, **kwargs, **extra)
                        assert (json.dumps(shared.to_dict(), sort_keys=True)
                                == json.dumps(own.to_dict(), sort_keys=True)), (
                            key, eps, build.__name__, seed, C, D, d)


def test_decomposition_at_another_eps_is_rejected():
    chain = CORPUS["chain8"]
    # Taken unchecked, a decomposition of another space on as many points
    # gives taus [19/6, 2, 1, 1] where the space's own are [4, 2, 1, 1].
    other = gen_random(8, 20, "uniform", "uniform", seed=3)
    cases = [
        (chain, Fraction(1, 8), build_decomposition(chain, Fraction(1, 4)),
         "scale"),
        (gen_geometric("intervals", range(8)), Fraction(1, 4),
         build_decomposition(other, Fraction(1, 4)), "another space"),
    ]
    for sp, eps, dec, match in cases:
        with pytest.raises(ValueError, match=match):
            stratified_net(sp, eps, dec=dec)


def test_seed_free_methods_ignore_the_seed():
    config = ExperimentConfig()
    free = [m for m, method in METHODS.items() if not method.seeded]
    assert sorted(free) == ["exact", "greedy"]
    for method in free:
        for sp in CORPUS.values():
            for eps in EPS_GRID:
                reports = {
                    json.dumps(run_method(sp, eps, method, seed, config).to_dict(),
                               sort_keys=True)
                    for seed in range(4)
                }
                assert len(reports) == 1, (method, sp.name, eps)


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


@pytest.mark.parametrize("budget_n", [True, 2.5, "3"])
def test_cal_rejects_a_budget_that_is_not_an_int(budget_n):
    # Not 1, and not a TypeError from deep in the draw guard: a ValueError
    # before any draw.
    with pytest.raises(ValueError, match="budget_n must be an integer"):
        cal_net(CORPUS["chain8"], Fraction(1, 2), budget_n=budget_n)


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


def _weighted_spaces_with_zero_weights():
    """Seeded random spaces of 6..24 points with weights 0..4, about a
    fifth of them 0, so some ranges hold zero-weight points."""
    rng = stream_rng(5, "greedy-spaces")
    for k in range(30):
        n = rng.randint(6, 24)
        weights = [rng.choice((0, 1, 2, 3, 4)) for _ in range(n)]
        weights[rng.randrange(n)] = 1
        ranges = [rng.getrandbits(n) for _ in range(rng.randint(1, 40))]
        yield build_range_space(n, weights, ranges, name=f"zw{k}")


def test_greedy_net_equals_greedy_hit_over_the_heavy_ranges():
    # greedy_net scores on the space's incidence index masked by the
    # heavy ranges; the reference greedy counts set memberships over an
    # explicit target list. Both must make the same picks.
    spaces = list(CORPUS.values()) + list(_weighted_spaces_with_zero_weights())
    for sp in spaces:
        for eps in EPS_GRID:
            targets = [r for i, r in enumerate(sp.ranges) if sp.measure(i) >= eps]
            rep = greedy_net(sp, eps)
            assert rep.points == tuple(sorted(oracle_greedy_hitting(sp, eps))), (
                sp.name, eps)
            assert rep.stats["targets"] == len(targets)
            assert rep.is_net


def test_greedy_net_reads_the_cached_incidence_index(monkeypatch):
    calls = []
    build = core.incidence_columns

    def spy(masks, n):
        calls.append(n)
        return build(masks, n)

    sp = CORPUS["random12w"]
    sp.incidence
    monkeypatch.setattr(nets, "incidence_columns", spy)
    monkeypatch.setattr(core, "incidence_columns", spy)
    for eps in EPS_GRID:
        assert greedy_net(sp, eps).is_net
    assert calls == []


def test_exact_matches_oracle_on_small_corpus():
    for key in SMALL:
        sp = CORPUS[key]
        for eps in EPS_GRID:
            got = min_net_exact(sp, eps)
            want = oracle_min_hitting(sp, eps)
            assert got.is_net
            assert got.size == want, (key, eps)


def test_exact_answers_past_two_thousand_heavy_ranges():
    # 2,304 heavy halfplanes: no size cap refuses them, and the reduced
    # search finds a minimum of 4.
    sp = gen_geometric("halfplanes", random_points(50, 2, seed=7))
    rep = min_net_exact(sp, Fraction(1, 8))
    assert rep.stats["targets"] == 2304
    assert rep.is_net and rep.size == 4


# sha256 over the sorted-key JSON of min_net_exact(...).to_dict() per
# space and eps, on spaces past the corpus: points and stats are pinned.
MIN_NET_SPACES = {
    "intervals40": lambda: gen_geometric(
        "intervals", random_points(40, 1, seed=7)),
    "halfplanes30": lambda: gen_geometric(
        "halfplanes", random_points(30, 2, seed=7)),
    "random-n20r300s1": lambda: gen_random(
        20, 300, "uniform", "uniform", seed=1),
    "halfspaces3d30": lambda: gen_geometric(
        "halfspaces3d", random_points(30, 3, seed=7)),
    "disks14": lambda: gen_geometric("disks", random_points(14, 2, seed=3)),
}
MIN_NET_SHA = {
    ("intervals40", 4):
        "7089f7cce7cd0721a474cb2e0c9558b535c6856313c456f3a62d38a74cf8750f",
    ("intervals40", 8):
        "b508181f3518bb0e7873ccae30985cd4f5c23b30b20d8b920a1be4a8564144e3",
    ("intervals40", 16):
        "fb3679f0878a83a675962ed5f0ce23c734f999285d5337aee5e2eabe25f1aad9",
    ("halfplanes30", 4):
        "6b820761b605252cfe24db1c2985c283ea8253b9c8d8d1b350923dfbd5c9b7f8",
    ("halfplanes30", 8):
        "5e6a2c6c766a8f02bcb74a526a788e16ce750f8d5188ce096e7bc422c855b8e1",
    ("halfplanes30", 16):
        "ca3378b09170b3cd210abd121356045463fd56112bb20c7d614b726dd9644c13",
    ("random-n20r300s1", 4):
        "fa232f15597f3a6b35cb1483fb8e4950b9b52a5be85ff6ff024619544a4b9b25",
    ("random-n20r300s1", 8):
        "2155d7032c8e26d7c42dd9cf238ffd88ba5aefa36f7d8bf5f2c793a5e98325ac",
    ("random-n20r300s1", 16):
        "58a83aef482a1d371c79723b73de71fe7f63fca13c1807b3641af64067c09d3b",
    ("halfspaces3d30", 4):
        "cb861da5ab6ab3054e10882e1bcefe593f19cada54c91c1872472d8360fd355d",
    ("halfspaces3d30", 8):
        "a456b2e1c0b27dbd984bb19ee9aa77deadcf46aeac824ae341b234313148caa2",
    ("halfspaces3d30", 16):
        "817b02b6916b69ba827c7a6975ea80906f9535d38b13191a9c7c661242f83112",
    ("disks14", 4):
        "34f23cdb8355dc000129ca02fe53205b5bd2b0f8910ccef5e3af60790e186429",
    ("disks14", 8):
        "0238b554b56a437fb0cb7f027b7b152dc83c7bf7d1bceca8b1511295a4be019a",
    ("disks14", 16):
        "10d8311d2163b63d582fa39d682e6249da0d7265ccf3cbbe2138b1291bedf551",
}


def test_min_net_is_frozen_beyond_the_corpus():
    for name, build in MIN_NET_SPACES.items():
        sp = build()
        for k in (4, 8, 16):
            rep = min_net_exact(sp, Fraction(1, k))
            digest = hashlib.sha256(
                json.dumps(rep.to_dict(), sort_keys=True).encode()).hexdigest()
            assert digest == MIN_NET_SHA[name, k], (name, k)


def test_min_net_drops_superset_ranges_on_the_space_columns(monkeypatch):
    # halfplanes30 at 1/8 has 826 heavy ranges, 24 of them inclusion-
    # minimal: the superset filter on the space's own columns leaves only
    # those for the reduction, and no column build sees more.
    sizes, seen = [], []
    build, reduce_ = core.incidence_columns, nets._reduce

    def spy_columns(masks, n):
        sizes.append(len(masks))
        return build(masks, n)

    def spy_reduce(masks, n):
        seen.append(len(masks))
        return reduce_(masks, n)

    sp = MIN_NET_SPACES["halfplanes30"]()
    sp.incidence
    monkeypatch.setattr(nets, "incidence_columns", spy_columns)
    monkeypatch.setattr(core, "incidence_columns", spy_columns)
    monkeypatch.setattr(nets, "_reduce", spy_reduce)
    rep = min_net_exact(sp, Fraction(1, 8))
    assert rep.stats["targets"] == 826 and rep.is_net
    assert seen == [24]
    assert sizes and max(sizes) <= 24


def test_hitting_sets_build_no_column_table_past_reduce(monkeypatch):
    # The repairs score on the space's own incidence columns, and the
    # minimum-net search and its greedy incumbent on the columns _reduce
    # returns with its masks: no column table is built outside _reduce.
    inside, outside = [], []
    build, reduce_ = nets.incidence_columns, nets._reduce
    reducing = False

    def spy_columns(masks, n):
        (inside if reducing else outside).append(len(masks))
        return build(masks, n)

    def spy_reduce(masks, n):
        nonlocal reducing
        reducing = True
        try:
            return reduce_(masks, n)
        finally:
            reducing = False

    sp = MIN_NET_SPACES["random-n20r300s1"]()
    sp.incidence
    monkeypatch.setattr(nets, "incidence_columns", spy_columns)
    monkeypatch.setattr(nets, "_reduce", spy_reduce)
    eps = Fraction(1, 8)
    for build_net in (stratified_net, doubling_net):
        rep = build_net(sp, eps, C=0.01)
        assert rep.is_net and rep.stats["repair_points"] > 0
    assert outside == inside == []
    rep = min_net_exact(sp, eps)
    assert rep.is_net and rep.stats["kept_after_pruning"] == 59
    assert outside == [] and inside


def test_min_net_on_forty_disks_is_pinned(budgets):
    # 8,019 distinct heavy disks reduce to 200 masks, whose minimum of 11
    # the branch and bound proves in 128,911 nodes.
    sp = gen_geometric("disks", random_points(40, 2, seed=7))
    rep = min_net_exact(sp, Fraction(1, 8))
    assert rep.points == (1, 2, 3, 4, 7, 9, 16, 17, 21, 26, 30)
    assert rep.is_net and "lower" not in rep.stats
    assert rep.stats["kept_after_pruning"] == 200
    assert rep.stats["targets"] == 8019
    (budget,) = budgets
    assert budget.spent == 128_911


def test_reduction_rules_alone_solve_intervals(monkeypatch):
    # On an interval family the three rules leave nothing to search: no
    # branch-and-bound node is spent. 14 is also what the branch and
    # bound alone finds on these 4,117 heavy ranges; greedy takes 15.
    monkeypatch.setattr(nets, "EXACT_NET_NODES", 0)
    sp = gen_geometric("intervals", random_points(100, 1, seed=7))
    rep = min_net_exact(sp, Fraction(1, 16))
    assert rep.stats["kept_after_pruning"] == 0
    assert rep.is_net and rep.size == 14
    assert greedy_net(sp, Fraction(1, 16)).size == 15


def test_branch_and_bound_beats_its_greedy_prime():
    # The reduction rules take no point here and drop one superset; the
    # greedy incumbent over the seven ranges left has 4 points, and the
    # branch and bound improves it to the minimum, 3.
    ranges = [[0, 1, 2, 7], [0, 1, 3, 5], [0, 2], [0, 3, 5, 6], [1, 2, 7],
              [1, 6], [2, 4, 6], [5, 7]]
    sp = build_range_space(9, [1] * 9, ranges)
    eps = Fraction(1, 9)
    assert greedy_net(sp, eps).points == (0, 1, 2, 5)
    rep = min_net_exact(sp, eps)
    assert rep.stats["kept_after_pruning"] == 7
    assert rep.is_net and rep.points == (0, 6, 7)
    assert oracle_min_hitting(sp, eps) == 3


def test_min_net_past_its_node_budget_answers_its_incumbent_and_a_lower_end(
    monkeypatch, budgets,
):
    # The 5-cycle survives every reduction rule, so its minimum of 3
    # needs the branch and bound; two nodes are not enough to prove it.
    # The greedy incumbent is a minimum, and two disjoint edges bound it.
    sp = build_range_space(5, [1] * 5, [[i, (i + 1) % 5] for i in range(5)])
    # The one component answers a Bound: the disjoint bound as its lower
    # end, and the incumbent as its witness and upper end.
    monkeypatch.setattr(nets, "EXACT_NET_NODES", 2)
    answers = []
    search = nets._min_hit_component
    monkeypatch.setattr(nets, "_min_hit_component",
                        lambda *args: answers.append(search(*args)) or answers[-1])
    rep = min_net_exact(sp, Fraction(2, 5))
    assert rep.is_net and rep.points == (0, 2, 3) and rep.stats["lower"] == 2
    assert answers == [Bound(2, 3, (0, 2, 3))]
    (budget,) = budgets
    assert budget.spent == 2
    assert budget.error == "hitting-set search exceeded its budget of 2 nodes"


def test_a_shared_decomposition_computes_D_once(monkeypatch):
    # Given no D, the doubling builders size by doubling_constant's upper
    # end. A shared dec keeps it, so three seeds of both builders compute
    # it once (D = 63 on these disks at 1/8, so the small-D builder falls
    # back), and every report is the one a builder with its own dec gives.
    sp = MIN_NET_SPACES["disks14"]()
    eps = Fraction(1, 8)
    builders = (doubling_net, doubling_net_small_d)
    alone = [b(sp, eps, seed=s).to_dict() for s in range(3) for b in builders]
    calls = []
    real = nets.doubling_constant
    monkeypatch.setattr(nets, "doubling_constant",
                        lambda *args: calls.append(args) or real(*args))
    dec = build_decomposition(sp, eps)
    shared = [b(sp, eps, seed=s, dec=dec).to_dict()
              for s in range(3) for b in builders]
    assert shared == alone
    assert len(calls) == 1


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
