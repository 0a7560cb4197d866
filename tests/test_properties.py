"""Property tests: mask weights and incidence columns against per-bit
loops, the canonical sort key against point tuples, the trace-class
enumerations (pi, phi, VC), the brackets of their sampled estimates,
pi and the star number on disjoint unions, the pi rows computed
together against each row alone and on near-duplicate ranges,
the capacity table at every scale, the exact doubling sweep and its
budget-tripped bracket, the minimum net (and its superset filter and
reduction rules on ranges that are equal within the support, and the
search's disjoint bound against a first fit over a list), the net
verifier, the dyadic buckets, the range-index masks of heavy ranges and
buckets and the quarter groups agree with the brute-force oracles on
small weighted random spaces, as does the max-clique search at every
lower bound on small random graphs; their witnesses certify what they
claim, and the point-sharing components partition any family."""

from fractions import Fraction
from functools import reduce
from itertools import combinations
from operator import or_

import pytest
from hypothesis import example, given, settings, strategies as st

from epsnet import complexity, nets, packing
from epsnet.complexity import (
    Bound,
    alexander_capacity,
    capacity_levels,
    capacity_vector,
    doubling_constant,
    projection_function,
    projection_rows,
    shallow_cell,
    star_number,
    vc_dimension,
)
from epsnet.core import (
    RangeSpace,
    build_range_space,
    canonical_key,
    components,
    incidence_columns,
    mask_of,
    points_of,
)
from epsnet.nets import build_decomposition, min_net_exact, verify_net
from epsnet.oneinclusion import trace_vertices

from oracles import (
    as_sets,
    oracle_clique_number,
    oracle_doubling,
    oracle_incidence_columns,
    oracle_min_hitting,
    oracle_pi,
    oracle_shallow,
    oracle_star,
    oracle_tau,
    oracle_trace_vertices,
    oracle_vc,
    set_measure,
    set_weight,
)

PROPERTY_SETTINGS = settings(max_examples=150, deadline=None)


@st.composite
def small_spaces(draw, max_n=8, max_ranges=12):
    """n <= max_n points with weights 0..3 (total >= 1), at most
    max_ranges ranges."""
    n = draw(st.integers(1, max_n))
    weights = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n)
                   .filter(lambda w: sum(w) >= 1))
    ranges = draw(st.lists(st.integers(1, (1 << n) - 1), max_size=max_ranges))
    return build_range_space(n, weights, ranges)


@st.composite
def graphs(draw, max_n=14):
    """Symmetric adjacency rows on at most max_n vertices, each pair an
    edge or not, the whole pattern complemented half the time so dense
    graphs come up as often as sparse ones."""
    n = draw(st.integers(0, max_n))
    pairs = list(combinations(range(n), 2))
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    flip = draw(st.booleans())
    adj = [0] * n
    for (a, b), k in zip(pairs, keep):
        if k != flip:
            adj[a] |= 1 << b
            adj[b] |= 1 << a
    return adj


def disjoint_union(a, b, pad=0):
    """a's points, then b's shifted past them, then pad points in no
    range, with both families."""
    return build_range_space(
        a.n + b.n + pad, a.weights + b.weights + (1,) * pad,
        list(a.ranges) + [r << a.n for r in b.ranges])


def is_star_set(space, pts) -> bool:
    """Every point of pts is the whole trace of some range on pts."""
    ymask = mask_of(pts)
    return all(any(r & ymask == 1 << x for r in space.ranges) for x in pts)


@PROPERTY_SETTINGS
@given(st.integers(1, 70).flatmap(lambda n: st.tuples(
    st.lists(st.integers(0, 5), min_size=n, max_size=n)
    .filter(lambda w: sum(w) >= 1),
    st.lists(st.integers(0, (1 << n) - 1), max_size=8),
)))
@example(([0, 3, 0, 1, 5, 0, 2, 4, 1, 0, 7], [0b10110011101]))
def test_mask_weight_is_the_sum_of_its_point_weights(case):
    # Up to 70 points, so masks span several byte tables and n is often
    # not a multiple of 8; weights 0..5 make nearly every space
    # non-uniform, so the tables are read.
    weights, masks = case
    space = build_range_space(len(weights), weights, [])
    for m in masks + [0, (1 << space.n) - 1]:
        assert space.mask_weight(m) == sum(weights[p] for p in points_of(m))


@PROPERTY_SETTINGS
@given(st.integers(0, 70).flatmap(lambda n: st.tuples(
    st.just(n), st.lists(st.integers(0, (1 << (n + 10)) - 1), max_size=20),
)))
@example((0, []))
@example((13, []))
@example((3, [0b11110101, 0, 1 << 12]))
def test_incidence_columns_match_a_bit_loop(case):
    # Masks may carry bits at or past n; those are not points.
    n, masks = case
    assert incidence_columns(masks, n) == oracle_incidence_columns(masks, n)


@PROPERTY_SETTINGS
@given(st.lists(st.integers(0, (1 << 70) - 1), max_size=12),
       st.lists(st.integers(0, 70), max_size=4))
@example([0b1011, 0b11, 0b1, 0b101, 0b1001, 0, 0b10, 0b110], [])
def test_canonical_key_orders_masks_as_their_point_tuples(masks, cuts):
    # Each mask's truncations below the cut points are added, so many
    # masks are prefixes of one another and the empty mask is common.
    masks = masks + [m & ((1 << c) - 1) for m in masks for c in cuts]
    assert (sorted(masks, key=canonical_key)
            == sorted(masks, key=points_of))


@PROPERTY_SETTINGS
@given(small_spaces(), st.data())
def test_projection_function_matches_oracle(space, data):
    y = data.draw(st.integers(0, space.n))
    got = projection_function(space, y)
    assert got.exact and got.value == oracle_pi(space, y)


@PROPERTY_SETTINGS
@given(small_spaces(5, 6), small_spaces(5, 6), st.integers(0, 2), st.data())
def test_projection_on_disjoint_unions_with_padding_matches_oracle(
    a, b, pad, data,
):
    # pi runs over the point-sharing components, with the empty trace
    # counted once, and points in no range pad the split; it must be
    # exact at every y, and with the walk budget forced low each bound
    # must still bracket the oracle.
    space = disjoint_union(a, b, pad)
    want = [oracle_pi(space, y) for y in range(space.n + 1)]
    assert [projection_function(space, y) for y in range(space.n + 1)] == [
        Bound(v, v) for v in want]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(complexity, "WALK_NODES", data.draw(st.integers(1, 3)))
        for y, v in enumerate(want):
            got = projection_function(space, y)
            assert got.lower <= v <= got.upper


@PROPERTY_SETTINGS
@given(st.one_of(
    small_spaces(),
    st.builds(disjoint_union, small_spaces(5, 6), small_spaces(5, 6),
              st.integers(0, 2)),
), st.booleans(), st.data())
def test_projection_rows_match_the_oracle_and_each_row_alone(
    space, pass_d, data,
):
    # The multi-row entry point computes its rows from the largest y
    # down, and a walk may also yield the row below it. Every row must
    # bracket the oracle, equal it when exact, and be what that row's own
    # walk (projection_function) returns, at the default budgets and with
    # them forced low.
    lo = data.draw(st.integers(0, space.n))
    ys = range(lo, data.draw(st.integers(lo, space.n)) + 1)
    d = oracle_vc(space) if pass_d else None
    with pytest.MonkeyPatch.context() as mp:
        if data.draw(st.booleans()):
            mp.setattr(complexity, "WALK_NODES", data.draw(st.integers(1, 3)))
            mp.setattr(complexity, "ESTIMATE_DRAWS",
                       data.draw(st.integers(1, 3)))
        rows = projection_rows(space, ys, d=d)
        alone = [projection_function(space, y, d=d) for y in ys]
    assert [y for y, _ in rows] == list(ys)
    for (y, got), own in zip(rows, alone):
        want = oracle_pi(space, y)
        assert got.lower <= want <= got.upper
        if got.exact:
            assert got.value == want
        assert got == own, y


def near_duplicates(n, bases, flips):
    """Each base mask on n points and its copies with one flip point
    toggled: the copies share their trace on every point set that misses
    the flip, so pi walks meet classes of several ranges."""
    ranges = [b ^ f for b in bases for f in [0] + [1 << x for x in flips]]
    return build_range_space(n, [1] * n, [r for r in ranges if r])


@PROPERTY_SETTINGS
@given(st.integers(2, 9).flatmap(lambda n: st.builds(
    near_duplicates, st.just(n),
    st.lists(st.integers(0, (1 << n) - 1), min_size=1, max_size=5),
    st.lists(st.integers(0, n - 1), min_size=1, max_size=4),
)), st.booleans(), st.integers(1, 60))
# A node whose leaves are cut short, one that runs out of slack, and a
# leaf that reaches the row's ceiling after leaves before it were cut.
@example(near_duplicates(8, [101, 221, 88, 255], [2, 2, 0]), False, 60)
def test_projection_rows_on_repeated_traces_match_the_oracle(
    space, pass_d, nodes,
):
    # A leaf stops once too many of its node's classes stay whole to beat
    # the incumbent. Every row must equal the oracle at the default
    # budgets, and bracket it with few WALK_NODES (so that some walks
    # finish and some trip).
    ys = range(space.n + 1)
    d = oracle_vc(space) if pass_d else None
    want = [oracle_pi(space, y) for y in ys]
    assert [b for _, b in projection_rows(space, ys, d=d)] == [
        Bound(v, v) for v in want]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(complexity, "WALK_NODES", nodes)
        mp.setattr(complexity, "ESTIMATE_DRAWS", 3)
        rows = projection_rows(space, ys, d=d)
    for (y, got), v in zip(rows, want):
        assert got.lower <= v <= got.upper
        if got.exact:
            assert got.value == v


@PROPERTY_SETTINGS
@given(small_spaces(), st.data())
def test_shallow_cell_matches_oracle(space, data):
    y = data.draw(st.integers(0, space.n))
    l = data.draw(st.integers(0, space.n))
    got = shallow_cell(space, y, l)
    assert got.exact and got.value == oracle_shallow(space, y, l)


@PROPERTY_SETTINGS
@given(small_spaces())
def test_vc_dimension_matches_oracle_with_shattered_witness(space):
    got = vc_dimension(space)
    assert got.exact and got.value == oracle_vc(space)
    if got.value >= 0:
        assert len(got.witness) == got.value
        ymask = mask_of(got.witness)
        assert len({r & ymask for r in space.ranges}) == 1 << got.value


@PROPERTY_SETTINGS
@given(small_spaces(), st.data())
def test_estimates_labelled_exact_match_oracle(space, data):
    # With the walk budget forced low, pi and phi come from the sampled
    # estimates and star and VC from the walks' incumbents; these often
    # fall short of their ceilings, so each must bracket the oracle, a
    # bound labelled exact must equal it, and a bracket has no value. The
    # VC witness is a shattered set of the reported size either way.
    y = data.draw(st.integers(0, space.n))
    l = data.draw(st.integers(0, space.n))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(complexity, "WALK_NODES", data.draw(st.integers(1, 3)))
        mp.setattr(complexity, "ESTIMATE_DRAWS", data.draw(st.integers(1, 3)))
        pi = projection_function(space, y)
        phi = shallow_cell(space, y, l)
        star = star_number(space)
        vc = vc_dimension(space)
    for got, want in ((pi, oracle_pi(space, y)),
                      (phi, oracle_shallow(space, y, l)),
                      (star, oracle_star(space)),
                      (vc, oracle_vc(space))):
        assert got.lower <= want <= got.upper
        if got.exact:
            assert got.value == want
        else:
            with pytest.raises(ValueError):
                got.value
    if vc.lower >= 0:
        ymask = mask_of(vc.witness)
        assert len(vc.witness) == vc.lower
        assert len({r & ymask for r in space.ranges}) == 1 << vc.lower


@PROPERTY_SETTINGS
@given(small_spaces(6, 8), small_spaces(6, 8), st.data())
def test_star_on_disjoint_unions_brackets_oracle_with_star_witness(a, b, data):
    # Star sets split over point-sharing components, so a disjoint
    # union's star number is the sum of its parts'. The bound is exact at
    # the default limits; with the walk budget forced low it must still
    # bracket the oracle. Every witness is a star set of size lower.
    space = disjoint_union(a, b)
    want = oracle_star(space)
    assert want == oracle_star(a) + oracle_star(b)
    runs = [star_number(space)]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(complexity, "WALK_NODES", data.draw(st.integers(1, 3)))
        runs.append(star_number(space))
    assert runs[0].exact
    for got in runs:
        assert got.lower <= want <= got.upper
        if got.exact:
            assert got.value == want
        assert len(got.witness) == got.lower and is_star_set(space, got.witness)


@PROPERTY_SETTINGS
@given(st.lists(st.integers(0, (1 << 10) - 1), max_size=12))
def test_components_are_disjoint_connected_and_cover_every_mask(masks):
    comps = components(masks)
    assert all(comps) and all(not a & b for a, b in combinations(comps, 2))
    assert reduce(or_, comps, 0) == reduce(or_, masks, 0)
    for m in filter(None, masks):
        assert sum(1 for c in comps if m & c == m) == 1
    for c in comps:
        # c is what chains of meeting masks reach from any one of its own
        group = [m for m in masks if m and m & c == m]
        reach = group[0]
        for _ in group:
            reach = reduce(or_, (m for m in group if m & reach), reach)
        assert reach == c


@PROPERTY_SETTINGS
@given(small_spaces(), st.data())
def test_capacity_table_matches_oracle_at_every_scale(space, data):
    # Scales at, between and away from the range measures; zero-measure
    # ranges occur because weights may be 0.
    measures = sorted({space.measure(i) for i in range(len(space.ranges))})
    mids = [(a + b) / 2 for a, b in zip(measures, measures[1:])]
    fixed = [Fraction(1), Fraction(1, 2), Fraction(3, 7), Fraction(1, 3),
             Fraction(1, 8), Fraction(1, 16)]
    eps = data.draw(st.sampled_from(fixed + [q for q in measures + mids if q]))
    _, levels = capacity_levels(eps)
    want = [oracle_tau(space, lv) for lv in levels]
    assert alexander_capacity(space, eps) == oracle_tau(space, eps)
    assert capacity_vector(space, eps) == want[1:]
    assert build_decomposition(space, eps).taus == tuple(want)


@PROPERTY_SETTINGS
@given(small_spaces(), st.sampled_from([Fraction(1, 2), Fraction(1, 4),
                                        Fraction(1, 8), Fraction(1, 16)]))
def test_exact_doubling_matches_oracle_with_certified_members(space, eps):
    got = doubling_constant(space, eps)
    assert got.mode == "exact" and got.value == oracle_doubling(space, eps)
    if got.value:
        eps0 = got.eps0
        assert eps <= eps0 <= 1
        assert len(got.witness) == got.value
        for i in got.witness:
            assert space.measure(i) <= 2 * eps0
        for a, b in combinations(got.witness, 2):
            assert space.rho(a, b) >= eps0


@PROPERTY_SETTINGS
@given(small_spaces(), st.sampled_from([Fraction(1, 2), Fraction(1, 4),
                                        Fraction(1, 8), Fraction(1, 16)]),
       st.integers(1, 3))
def test_budget_tripped_doubling_is_a_certified_bracket(space, eps, budget):
    with pytest.MonkeyPatch.context() as m:
        m.setattr(packing, "DEFAULT_CLIQUE_NODES", budget)
        got = doubling_constant(space, eps)
    assert got.lower <= oracle_doubling(space, eps) <= got.upper
    assert got.lower == len(got.witness)
    if got.lower:
        eps0 = got.eps0
        assert eps <= eps0 <= 1
        for i in got.witness:
            assert space.measure(i) <= 2 * eps0
        for a, b in combinations(got.witness, 2):
            assert space.rho(a, b) >= eps0


@PROPERTY_SETTINGS
@given(graphs())
def test_max_clique_matches_the_oracle_at_every_lower_bound(adj):
    # Below the clique number the search finds a maximum clique; at or
    # above it the answer is the lower bound with no members, whether a
    # colouring settles it before the search or the search finds nothing.
    omega = oracle_clique_number(adj)
    for lower_bound in range(len(adj) + 2):
        clique = packing.max_clique(adj, lower_bound)
        members = clique.witness
        assert clique.value == max(lower_bound, omega)
        if omega > lower_bound:
            assert len(members) == omega
            assert list(members) == sorted(set(members))
            for a, b in combinations(members, 2):
                assert adj[a] >> b & 1
        else:
            assert members == ()


@PROPERTY_SETTINGS
@given(small_spaces(), st.sampled_from([Fraction(1), Fraction(1, 2),
                                        Fraction(3, 7), Fraction(1, 3),
                                        Fraction(1, 8), Fraction(1, 16)]),
       st.data())
def test_violations_and_buckets_match_fraction_measures(space, eps, data):
    fam = as_sets(space)
    measures = [set_measure(space, r) for r in fam]
    support = [p for p in range(space.n) if space.weights[p]]
    cand = set(data.draw(st.lists(st.sampled_from(support), unique=True)))
    want = tuple(i for i, r in enumerate(fam)
                 if measures[i] >= eps and not r & cand)
    assert verify_net(space, cand, eps).violations == want

    z = 1
    while 2 ** (z - 1) * eps < 1:
        z += 1
    levels = [min(2**i * eps, Fraction(1)) for i in range(z + 1)]
    home = [next((b for b in range(z) if q < levels[b]), z) for q in measures]
    dec = build_decomposition(space, eps)
    assert dec.z == z and list(dec.levels) == levels
    assert dec.buckets == tuple(
        tuple(i for i in range(len(fam)) if home[i] == b) for b in range(z + 1)
    )


@PROPERTY_SETTINGS
@given(small_spaces(), st.sampled_from([Fraction(1), Fraction(1, 2),
                                        Fraction(3, 7), Fraction(1, 3),
                                        Fraction(1, 8), Fraction(1, 16)]))
def test_range_masks_and_quarter_groups_match_fraction_measures(space, eps):
    # The bit-sliced range-index masks against one Fraction per range:
    # the ranges at or above a measure, each bucket's mask, and each
    # quarter group against the rule for its (range, member) pairs.
    fam = as_sets(space)
    measures = [set_measure(space, r) for r in fam]
    dec = build_decomposition(space, eps)
    for q in set(dec.levels) | {eps / 3, Fraction(1, sum(space.weights))}:
        assert space.ranges_at_least(q) == sum(
            1 << i for i, m in enumerate(measures) if m >= q), q
    for b, bucket in enumerate(dec.buckets):
        assert dec.masks[b] == mask_of(bucket)
        if not b or not bucket:
            continue
        points, group = nets._quarter_groups(space, dec, b)
        members = packing.greedy_packing(space, dec.levels[b - 1],
                                         list(bucket)).members
        assert len(members) == len(points)
        for pos, (j, rq) in enumerate(zip(members, points)):
            assert rq == space.ranges[j]
            wq = set_weight(space, fam[j])
            assert group(pos) == sum(1 << i for i in bucket
                                     if 4 * set_weight(space, fam[i] & fam[j]) >= wq)


@PROPERTY_SETTINGS
@given(small_spaces(), st.sampled_from([Fraction(1), Fraction(1, 2),
                                        Fraction(1, 4), Fraction(1, 8),
                                        Fraction(1, 16)]),
       st.integers(0, 3))
def test_min_net_matches_oracle_and_a_tripped_budget_never_misreports(
    space, eps, nodes,
):
    # The reduction rules alone must keep the minimum: with the branch
    # and bound starved of nodes the answer is a net whose lower end and
    # size bracket the minimum, and without a lower end it is a minimum.
    want = oracle_min_hitting(space, eps)
    got = min_net_exact(space, eps)
    assert got.is_net and got.size == want and "lower" not in got.stats
    assert all(space.weights[p] for p in got.points)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(nets, "EXACT_NET_NODES", nodes)
        got = min_net_exact(space, eps)
    assert got.is_net and got.stats.get("lower", got.size) <= want <= got.size
    assert "lower" in got.stats or got.size == want


@st.composite
def support_twin_spaces(draw, max_n=8, max_ranges=10):
    """Spaces with at least one zero-weight point where ranges may be
    twins: distinct, but equal once restricted to the support, because
    each range may come with copies that add zero-weight points."""
    n = draw(st.integers(2, max_n))
    weights = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n)
                   .filter(lambda w: 0 in w and sum(w) >= 1))
    zero = mask_of(p for p in range(n) if not weights[p])
    ranges = []
    for r in draw(st.lists(st.integers(1, (1 << n) - 1), max_size=max_ranges)):
        ranges.append(r)
        ranges += [r | z & zero for z in draw(
            st.lists(st.integers(1, zero), max_size=2))]
    return build_range_space(n, weights, ranges)


def brute_min_hitting(masks):
    """Fewest points meeting every mask, by trying subsets by size."""
    pts = points_of(reduce(or_, masks, 0))
    for k in range(len(pts) + 1):
        for chosen in combinations(pts, k):
            hit = mask_of(chosen)
            if all(m & hit for m in masks):
                return k


@PROPERTY_SETTINGS
@given(support_twin_spaces(), st.sampled_from([Fraction(1), Fraction(1, 2),
                                               Fraction(1, 4), Fraction(1, 8),
                                               Fraction(1, 16)]))
def test_superset_filter_and_reduction_keep_the_minimum_on_support_twins(
    space, eps,
):
    support = space.support_mask
    heavy = [r & support for r, s in zip(space.ranges, as_sets(space))
             if set_measure(space, s) >= eps]
    distinct = set(heavy)
    minimal = {m for m in distinct
               if not any(s != m and s & m == s for s in distinct)}
    # The superset filter as min_net_exact runs it: the heavy ranges in
    # measure order on the space's columns, restricted to the support.
    got = nets._minimal_masks(
        space.ranges, space.measure_order[space.count_below(eps):],
        space.incidence, space.ranges_at_least(eps), support)
    assert sorted(got) == sorted(minimal)
    # ... and as _reduce runs it: distinct masks by size and value.
    cands = sorted(distinct, key=lambda m: (m.bit_count(), m))
    got = nets._minimal_masks(cands, range(len(cands)),
                              incidence_columns(cands, space.n),
                              (1 << len(cands)) - 1)
    assert got == [m for m in cands if m in minimal]

    want = oracle_min_hitting(space, eps)
    taken, kept, _ = nets._reduce(heavy, space.n)
    assert not any(m & taken for m in kept)
    assert taken.bit_count() + brute_min_hitting(kept) == want
    rep = min_net_exact(space, eps)
    assert rep.is_net and rep.size == want
    assert rep.stats["targets"] == len(distinct)


@PROPERTY_SETTINGS
@given(st.integers(1, 12).flatmap(lambda n: st.tuples(
    st.just(n), st.lists(st.integers(1, (1 << n) - 1), max_size=16),
    st.integers(0, (1 << 16) - 1),
)))
def test_disjoint_bound_is_a_first_fit_over_the_masks_by_size(case):
    # The search's bound walks an index mask over _reduce's masks, sorted
    # by size, on their columns; it keeps as many pairwise disjoint masks
    # as a first fit over the list of the masks the index mask picks.
    n, masks, pick = case
    masks.sort(key=int.bit_count)
    todo = pick & ((1 << len(masks)) - 1)
    first_fit, used = 0, 0
    for m in [m for i, m in enumerate(masks) if todo >> i & 1]:
        if not m & used:
            first_fit, used = first_fit + 1, used | m
    cols = oracle_incidence_columns(masks, n)
    meet = [reduce(or_, (cols[p] for p in points_of(m)), 0) for m in masks]
    assert nets._disjoint_bound(meet, todo) == first_fit


@st.composite
def raw_spaces(draw):
    """support_twin_spaces built as RangeSpace directly, past
    build_range_space's canonicalization: its ranges (twins within the
    support among them) plus repeats of some, in a drawn order."""
    space = draw(support_twin_spaces())
    ranges = list(space.ranges)
    if ranges:
        ranges += draw(st.lists(st.sampled_from(ranges), max_size=3))
    ranges = draw(st.permutations(ranges))
    return RangeSpace(n=space.n, weights=space.weights, ranges=tuple(ranges))


@PROPERTY_SETTINGS
@given(st.one_of(small_spaces(), raw_spaces()).flatmap(lambda sp: st.tuples(
    st.just(sp), st.lists(st.integers(0, sp.n - 1), max_size=2 * sp.n))))
def test_trace_vertices_match_the_oracle_with_repeated_sample_points(case):
    space, sample = case
    assert trace_vertices(space, sample) == oracle_trace_vertices(space, sample)


@PROPERTY_SETTINGS
@given(raw_spaces(), st.sampled_from([Fraction(1), Fraction(1, 2),
                                      Fraction(1, 4), Fraction(1, 16)]))
def test_min_net_targets_count_distinct_heavy_masks_on_a_raw_space(space, eps):
    # Duplicate ranges and twins within the support are one target each.
    support = frozenset(p for p in range(space.n) if space.weights[p])
    heavy = {s & support for s in as_sets(space) if set_measure(space, s) >= eps}
    rep = min_net_exact(space, eps)
    assert rep.stats["targets"] == len(heavy)
    assert rep.is_net and rep.size == oracle_min_hitting(space, eps)
