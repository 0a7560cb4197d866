"""Packing machinery: clique search, packings, and the packing bound."""

import hashlib
import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import example, given, settings, strategies as st

import epsnet.complexity as complexity
import epsnet.packing as packing
from epsnet.core import (
    Budget,
    CapExceededError,
    TheoremViolationError,
    build_range_space,
)
from epsnet.generators import (
    LowerBoundParams,
    gen_geometric,
    gen_lower_bound_family,
    gen_random,
    random_points,
)
from epsnet.packing import (
    E_UPPER,
    FarGraph,
    colour_bound,
    greedy_packing,
    haussler_certificate,
    haussler_optimization_identity,
    max_clique,
    max_packing_exact,
    projection_count_estimate,
)

from corpus import CORPUS
from oracles import (
    ReferenceCliqueTrip,
    as_sets,
    dudley_style_bound,
    oracle_clique_number,
    oracle_far_rows,
    oracle_max_packing,
    reference_max_clique,
    set_measure,
    set_weight,
)


def _adj_from_edges(n, edges):
    adj = [0] * n
    for a, b in edges:
        adj[a] |= 1 << b
        adj[b] |= 1 << a
    return adj


def _random_graph(rng, n, p=0.5):
    return _adj_from_edges(
        n, [e for e in combinations(range(n), 2) if rng.random() < p])


def test_max_clique_known_graphs():
    # triangle plus an isolated vertex
    adj = _adj_from_edges(4, [(0, 1), (1, 2), (0, 2)])
    size, members = max_clique(adj)
    assert size == 3 and set(members) == {0, 1, 2}
    # 5-cycle: max clique 2
    c5 = _adj_from_edges(5, [(i, (i + 1) % 5) for i in range(5)])
    assert max_clique(c5)[0] == 2
    # complete graph K6
    k6 = _adj_from_edges(6, [(a, b) for a in range(6) for b in range(a)])
    assert max_clique(k6)[0] == 6
    # complete bipartite K33: max clique 2
    k33 = _adj_from_edges(6, [(a, b + 3) for a in range(3) for b in range(3)])
    assert max_clique(k33)[0] == 2
    # empty graph
    assert max_clique([0, 0, 0])[0] == 1
    assert max_clique([])[0] == 0


def test_max_clique_random_vs_brute():
    import random

    rng = random.Random(11)
    for trial in range(30):
        n = rng.randint(1, 11)
        adj = [0] * n
        for a in range(n):
            for b in range(a):
                if rng.random() < 0.5:
                    adj[a] |= 1 << b
                    adj[b] |= 1 << a
        size, members = max_clique(adj)
        assert size == oracle_clique_number(adj), trial
        assert len(members) == size
        for a, b in combinations(members, 2):
            assert adj[a] >> b & 1


def test_max_clique_lower_bound_priming_keeps_answer():
    adj = _adj_from_edges(5, [(0, 1), (1, 2), (0, 2), (3, 4)])
    full, _ = max_clique(adj)
    primed, _ = max_clique(adj, lower_bound=2)
    assert full == primed == 3


def test_max_clique_node_budget_raises_with_work_spent(monkeypatch):
    adj = _adj_from_edges(6, combinations(range(6), 2))
    monkeypatch.setattr(packing, "DEFAULT_CLIQUE_NODES", 7)
    assert max_clique(adj)[0] == 6  # one node per depth
    monkeypatch.setattr(packing, "DEFAULT_CLIQUE_NODES", 3)
    with pytest.raises(CapExceededError) as info:
        max_clique(adj)
    assert info.value.spent == 3


def test_max_clique_deeper_than_the_recursion_limit_reports_the_nodes_spent():
    # A 1,200-vertex complete graph: the first path of the search is
    # 1,200 nodes deep, past the recursion limit, which is a tripped
    # budget carrying the nodes visited so far.
    n = 1200
    adj = [((1 << n) - 1) ^ (1 << v) for v in range(n)]
    with pytest.raises(CapExceededError) as info:
        max_clique(adj)
    assert 0 < info.value.spent <= packing.DEFAULT_CLIQUE_NODES


def test_max_clique_out_of_budget_leaves_its_incumbent(monkeypatch):
    rng = random.Random(0)
    adj = _adj_from_edges(
        24, [e for e in combinations(range(24), 2) if rng.random() < 0.5])
    omega = max_clique(adj)[0]
    found = 0
    for budget in range(1, 200):
        monkeypatch.setattr(packing, "DEFAULT_CLIQUE_NODES", budget)
        try:
            assert max_clique(adj)[0] == omega
            break
        except CapExceededError as exc:
            members = exc.members
        assert len(members) <= omega
        for a, b in combinations(members, 2):
            assert adj[a] >> b & 1
        found = max(found, len(members))
    assert found >= 1


# The profile workload's four spaces.
PROFILE_SPACES = {
    "disks14": lambda: gen_geometric("disks", random_points(14, 2, seed=3)),
    "intervals24": lambda: gen_geometric("intervals", random_points(24, 1, seed=3)),
    "random-n20r300s1": lambda: gen_random(20, 300, "uniform", "uniform", seed=1),
    "lb-k2d3l2m3": lambda: gen_lower_bound_family(
        LowerBoundParams(k=2, d=3, l=2, m=3)),
}


@pytest.mark.parametrize(
    "make, calls, digest",
    [
        (PROFILE_SPACES["disks14"], 19,
         "ac61828a945cd77b665b69dd3d4a6fd4502fe3521e19280e2da5a425f2f816f3"),
        (PROFILE_SPACES["intervals24"], 31,
         "1d1adf0f219764b29c330ab21676c0a86d066e5387dfe7960f17a3b7b1654b74"),
        (PROFILE_SPACES["random-n20r300s1"], 131,
         "64932bc510b48c98892ca54b3e4a97f2b5f08e37108d264c877c59b650f2f164"),
        (PROFILE_SPACES["lb-k2d3l2m3"], 6,
         "195a60081a8b5876802a22cb125e93cb4659539e6a1cc9d39cde70584ca40aa4"),
    ],
)
def test_max_clique_results_are_frozen(monkeypatch, make, calls, digest):
    # Every clique search of the doubling sweep at 1/8 on the profile
    # spaces: its lower bound and its (size, members), members included,
    # so a faster search must return the very same clique.
    seen = []

    def recording(adj, lower_bound=0):
        out = max_clique(adj, lower_bound)
        seen.append((lower_bound, out))
        return out

    monkeypatch.setattr(complexity, "max_clique", recording)
    complexity.doubling_constant(make(), Fraction(1, 8))
    assert len(seen) == calls
    assert hashlib.sha256(repr(seen).encode()).hexdigest() == digest


def test_max_clique_trip_is_frozen(monkeypatch):
    # The search finds a 5-clique, then a 6-clique, and trips at node 12
    # before it reaches the maximum, a 7-clique.
    adj = _random_graph(random.Random(1), 24, 0.6)
    assert max_clique(adj) == (7, (1, 6, 7, 8, 11, 14, 18))
    monkeypatch.setattr(packing, "DEFAULT_CLIQUE_NODES", 12)
    with pytest.raises(CapExceededError) as info:
        max_clique(adj)
    assert info.value.members == (4, 6, 16, 17, 22, 23)
    assert info.value.spent == 12


@pytest.mark.parametrize("name, settled", [
    ("disks14", 17), ("intervals24", 30), ("random-n20r300s1", 85),
    ("lb-k2d3l2m3", 5),
])
def test_colouring_certificate_settles_doubling_calls_without_a_node(
    monkeypatch, name, settled,
):
    # Of the 19, 31, 131 and 6 clique calls of the doubling sweep at 1/8,
    # these many ask to beat an incumbent that a vertex-order colouring
    # already certifies, and spend no search node.
    spent = []
    spend = Budget.spend

    def counting(self):
        spent[-1] += 1
        spend(self)

    def recording(adj, lower_bound=0):
        spent.append(0)
        return max_clique(adj, lower_bound)

    monkeypatch.setattr(Budget, "spend", counting)
    monkeypatch.setattr(complexity, "max_clique", recording)
    complexity.doubling_constant(PROFILE_SPACES[name](), Fraction(1, 8))
    assert spent.count(0) == settled


def test_max_clique_settled_by_its_colouring_needs_no_node(monkeypatch):
    adj = _random_graph(random.Random(1), 24, 0.6)
    classes = colour_bound(adj)
    assert classes > max_clique(adj)[0] == 7
    monkeypatch.setattr(packing, "DEFAULT_CLIQUE_NODES", 0)
    assert max_clique(adj, classes) == (classes, ())
    with pytest.raises(CapExceededError) as info:
        max_clique(adj, classes - 1)
    assert info.value.spent == 0


@pytest.mark.parametrize("name, ceiling", [
    ("intervals24", 7_500), ("halfplanes30", 1_000), ("disks14", 110),
    ("lb-k2d3l2m3", 5),
])
def test_doubling_sweep_clique_nodes_stay_pruned(monkeypatch, name, ceiling):
    # Nodes of the doubling sweep at 1/8, propagation's settled branches
    # at one node each. Without propagation intervals24 spent 13,343 and
    # halfplanes30 3,806; disks14 and lb-k2d3l2m3 spent these counts.
    make = {**PROFILE_SPACES, "halfplanes30": lambda: gen_geometric(
        "halfplanes", random_points(30, 2, seed=7))}[name]
    spent = 0
    spend = Budget.spend

    def counting(self):
        nonlocal spent
        spent += 1
        spend(self)

    monkeypatch.setattr(Budget, "spend", counting)
    assert complexity.doubling_constant(make(), Fraction(1, 8)).exact
    assert spent <= ceiling


@st.composite
def _graphs(draw, max_n=40):
    n = draw(st.integers(0, max_n))
    density = draw(st.floats(0.1, 0.9))
    return _random_graph(random.Random(draw(st.integers(0, 2**32 - 1))), n, density)


@settings(max_examples=100, deadline=None)
@given(adj=_graphs(), data=st.data())
def test_pruned_search_keeps_the_reference_cliques_and_trips(adj, data):
    # Propagation cuts only branches that hold no improvement and charges
    # each one node, so an exact run returns the reference's clique, and
    # a budget that trips the new search trips the reference too, with an
    # incumbent no larger.
    omega = reference_max_clique(adj)[0]
    lower_bound = data.draw(st.integers(0, omega + 1), label="lower_bound")
    size, members = max_clique(adj, lower_bound)
    assert (size, members) == reference_max_clique(adj, lower_bound)
    if len(adj) <= 12:
        assert size == max(lower_bound, oracle_clique_number(adj))
    nodes = data.draw(st.integers(1, 60), label="nodes")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(packing, "DEFAULT_CLIQUE_NODES", nodes)
        try:
            max_clique(adj, lower_bound)
        except CapExceededError as exc:
            with pytest.raises(ReferenceCliqueTrip) as ref:
                reference_max_clique(adj, lower_bound, nodes)
            assert len(exc.members) >= len(ref.value.members)


def test_refuted_propagates_forced_vertices_to_a_conflict():
    # Path 0-1-2 and vertex 3 alone. Classes {0}, {1, 3}, {2}: in
    # cand {0, 1, 2, 3} class {0} forces 0, which leaves {1} of {1, 3},
    # which forces 1, which leaves 2: a triangle-free path has no clique
    # meeting all three, but propagation needs both forcings to see it.
    adj = _adj_from_edges(4, [(0, 1), (1, 2)])
    classes = [0b0001, 0b1010, 0b0100]
    assert packing._refuted(0b1111, classes, adj)
    # With edge 0-2 the triangle {0, 1, 2} meets every class.
    adj = _adj_from_edges(4, [(0, 1), (1, 2), (0, 2)])
    assert not packing._refuted(0b1111, classes, adj)
    assert not packing._refuted(0b1111, [], adj)
    assert packing._refuted(0b1010, classes, adj)


def test_colour_appends_the_unlisted_class_masks():
    rng = random.Random(7)
    for n in [0, 1, 5, 9, 24, 40]:
        adj = _random_graph(rng, n, rng.random())
        non_adj = [~a for a in adj]
        cand = rng.getrandbits(n) if n else 0
        full = packing._colour(cand, non_adj)
        for k in range(n + 2):
            classes = []
            assert packing._colour(cand, non_adj, k, classes) == [
                (v, c) for v, c in full if c > k]
            expected = [0] * min(k, full[-1][1] if full else 0)
            for v, c in full:
                if c <= k:
                    expected[c - 1] |= 1 << v
            assert classes == expected


def test_colour_above_kmin_lists_exactly_the_upper_classes():
    rng = random.Random(5)
    for n in [0, 1, 2, 7, 8, 9, 15, 17, 31, 33, 64, 70]:
        for _ in range(3):
            adj = _random_graph(rng, n, rng.random())
            non_adj = [~a for a in adj]
            cand = rng.getrandbits(n) if n else 0
            full = packing._colour(cand, non_adj)
            for k in range(-1, n + 2):
                assert packing._colour(cand, non_adj, k) == [
                    (v, c) for v, c in full if c > k]


def test_relabel_moves_every_bit_to_its_new_name():
    rng = random.Random(6)
    for n in [1, 2, 3, 8, 9, 13, 16, 23, 40, 70]:
        adj = _random_graph(rng, n, rng.random())
        order = list(range(n))
        rng.shuffle(order)
        ref = [0] * n
        for i, v in enumerate(order):
            for j, u in enumerate(order):
                if adj[v] >> u & 1:
                    ref[i] |= 1 << j
        assert packing._relabel(adj, order) == ref


def test_max_clique_rejects_a_self_loop():
    with pytest.raises(ValueError, match="vertex 0"):
        max_clique([1])
    with pytest.raises(ValueError, match="vertex 2"):
        max_clique([0b010, 0b001, 0b100])


def test_max_clique_rejects_a_neighbour_past_the_last_vertex():
    with pytest.raises(ValueError, match="vertex 0"):
        max_clique([0b110, 0b001])


def test_colour_bound_bounds_the_clique_number():
    for n, edges in [(0, []), (3, []), (5, list(combinations(range(5), 2))),
                     (5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])]:
        adj = _adj_from_edges(n, edges)
        assert max_clique(adj)[0] <= colour_bound(adj) <= n


def test_exact_packing_over_node_budget_is_the_greedy_packing(monkeypatch):
    # A clique search that trips before it holds a clique as large as the
    # greedy packing answers the greedy packing, labelled inexact: a lower
    # end for the maximum, and the packing the certificate checks.
    sp = CORPUS["singles8"]
    delta = Fraction(1, 4)
    monkeypatch.setattr(packing, "DEFAULT_CLIQUE_NODES", 2)
    pk = max_packing_exact(sp, delta)
    assert pk == greedy_packing(sp, delta) and not pk.exact
    assert len(pk.members) <= oracle_max_packing(sp, delta)
    cert = haussler_certificate(sp, pk)
    assert cert.packing == pk


def test_exact_packing_over_node_budget_keeps_the_search_incumbent(monkeypatch):
    # Primed at the greedy size less one, the tripped search holds a
    # larger packing than the greedy one (16 against 11; the maximum is
    # 20), and that incumbent is the answer, labelled inexact.
    sp = gen_geometric("intervals", random_points(24, 1, seed=3))
    delta = Fraction(1, 4)
    greedy = greedy_packing(sp, delta)
    monkeypatch.setattr(packing, "DEFAULT_CLIQUE_NODES", 16)
    pk = max_packing_exact(sp, delta)
    assert not pk.exact
    assert len(pk.members) > len(greedy.members)
    fam = as_sets(sp)
    for a, b in combinations(pk.members, 2):
        assert set_measure(sp, fam[a] ^ fam[b]) >= delta
    assert haussler_certificate(sp, pk).packing == pk


def test_far_graph_rows_match_the_pair_oracle():
    # One graph per space serves every threshold in rising order, as the
    # doubling sweep reads it, and every prefix at each threshold.
    for key, sp in CORPUS.items():
        masks = [sp.ranges[i] for i in sp.measure_order]
        graph = FarGraph(sp, masks)
        sets = as_sets(sp)
        fam = [sets[i] for i in sp.measure_order]
        dists = sorted({set_weight(sp, a ^ b) for a, b in combinations(fam, 2)})
        assert graph.distances == dists, key
        for threshold in [0, *dists, sp.total_weight + 1]:
            full = oracle_far_rows(sp, masks, threshold)
            for j in range(len(masks) + 1):
                low = (1 << j) - 1
                assert graph.rows(j, threshold) == [
                    row & low for row in full[:j]], (key, threshold, j)


@st.composite
def weighted_spaces(draw):
    """Spaces on 1..9 points with weights in 0..300 (zeros included, W up
    to 2,700, so up to 12 planes) and 0..25 ranges before deduplication."""
    n = draw(st.integers(1, 9))
    weights = draw(st.lists(st.integers(0, 300), min_size=n, max_size=n)
                   .filter(lambda w: sum(w) >= 1))
    ranges = draw(st.lists(st.sets(st.integers(0, n - 1), min_size=1),
                           max_size=25))
    return build_range_space(n, weights, [sorted(r) for r in ranges])


@settings(max_examples=60, deadline=None)
@given(weighted_spaces())
@example(build_range_space(2, [3, 0], []))  # m = 0
@example(build_range_space(2, [3, 0], [[0, 1]]))  # m = 1
@example(build_range_space(3, [300, 0, 255], [[0], [1], [2], [0, 1], [1, 2]]))
def test_far_graph_rows_match_the_pair_oracle_on_weighted_spaces(sp):
    # Thresholds rise over 0, every distance and W + 1, as the doubling
    # sweep reads them, and then fall back over the same values; every
    # prefix at each threshold.
    masks = [sp.ranges[i] for i in sp.measure_order]
    graph = FarGraph(sp, masks)
    sets = as_sets(sp)
    fam = [sets[i] for i in sp.measure_order]
    dists = sorted({set_weight(sp, a ^ b) for a, b in combinations(fam, 2)})
    assert graph.distances == dists
    rising = [0, *dists, sp.total_weight + 1]
    for threshold in rising + rising[::-1]:
        full = oracle_far_rows(sp, masks, threshold)
        for j in range(len(masks) + 1):
            low = (1 << j) - 1
            assert graph.rows(j, threshold) == [row & low for row in full[:j]]


def test_far_graph_rows_past_eight_byte_blocks_match_the_pair_oracle():
    # Over 64 masks a row block is longer than a struct int, and the rows
    # are read as bytes; prefixes at, around and past the block edges.
    sp = gen_random(12, 120, "uniform", "uniform", seed=3, w_max=20)
    masks = [sp.ranges[i] for i in sp.measure_order]
    m = len(masks)
    assert m > 64
    graph = FarGraph(sp, masks)
    sets = as_sets(sp)
    fam = [sets[i] for i in sp.measure_order]
    assert graph.distances == sorted(
        {set_weight(sp, a ^ b) for a, b in combinations(fam, 2)})
    for threshold in [0, *graph.distances[::7], sp.total_weight + 1]:
        full = oracle_far_rows(sp, masks, threshold)
        for j in (0, 1, 8, 9, 64, 65, m):
            low = (1 << j) - 1
            assert graph.rows(j, threshold) == [
                row & low for row in full[:j]], (threshold, j)


@pytest.mark.parametrize("span_bits", [8, 1000])
def test_far_graph_cut_into_spans_matches_the_pair_oracle(monkeypatch, span_bits):
    # Spans of one row, and of a few rows with a shorter last span, on
    # word rows (m <= 64) and byte rows (m > 64).
    monkeypatch.setattr(packing, "_SPAN_BITS", span_bits)
    for sp in (CORPUS["random12w"],
               gen_random(12, 120, "uniform", "uniform", seed=3, w_max=20)):
        masks = [sp.ranges[i] for i in sp.measure_order]
        graph = FarGraph(sp, masks)
        sets = as_sets(sp)
        fam = [sets[i] for i in sp.measure_order]
        assert graph.distances == sorted(
            {set_weight(sp, a ^ b) for a, b in combinations(fam, 2)})
        for threshold in [0, *graph.distances[::3], sp.total_weight + 1]:
            full = oracle_far_rows(sp, masks, threshold)
            for j in (0, 1, 7, 8, 9, len(masks)):
                low = (1 << j) - 1
                assert graph.rows(j, threshold) == [
                    row & low for row in full[:j]], (sp.name, threshold, j)


def test_certificate_computes_d_of_the_packing_on_40_points():
    sp = gen_geometric("intervals", random_points(40, 1, seed=7))
    cert = haussler_certificate(sp, max_packing_exact(sp, Fraction(1, 4)))
    assert cert.ok and cert.d_packed >= 1


def test_greedy_packing_is_maximal_and_separated():
    for key in ("intervals6", "random10a", "halfplanes5"):
        sp = CORPUS[key]
        for delta in (Fraction(1, 4), Fraction(1, 8)):
            pk = greedy_packing(sp, delta)
            fam = as_sets(sp)
            for a, b in combinations(pk.members, 2):
                assert set_measure(sp, fam[a] ^ fam[b]) >= delta
            # maximality: every range is within delta of a chosen one
            for i in range(len(sp.ranges)):
                assert any(
                    set_measure(sp, fam[i] ^ fam[j]) < delta or i == j
                    for j in pk.members
                ), (key, delta, i)


def test_exact_packing_matches_oracle():
    for key in ("singles8", "sparse-singles8", "chain8", "powerset3",
                "intervals6", "random10a"):
        sp = CORPUS[key]
        for delta in (Fraction(1, 2), Fraction(1, 4), Fraction(1, 8)):
            pk = max_packing_exact(sp, delta)
            assert pk.exact
            assert len(pk.members) == oracle_max_packing(sp, delta), (key, delta)


def test_packing_frozen_values():
    # eight disjoint uniform singletons: pairwise distance 2/8, so at
    # delta = 1/4 all eight pack; at delta = 1/2 nothing pairs up
    assert len(max_packing_exact(CORPUS["singles8"], Fraction(1, 4)).members) == 8
    assert len(max_packing_exact(CORPUS["singles8"], Fraction(1, 2)).members) == 1
    # nested chain: distances are measure gaps along the chain
    assert len(max_packing_exact(CORPUS["chain8"], Fraction(1, 2)).members) == 2


def test_haussler_certificate_over_corpus():
    for key, sp in CORPUS.items():
        if len(sp.ranges) > 60:
            continue
        for delta in (Fraction(1, 2), Fraction(1, 4), Fraction(1, 8)):
            pk = max_packing_exact(sp, delta)
            rep = haussler_certificate(sp, pk, strict=True)
            assert rep.ok, (key, delta)
            assert len(pk.members) <= rep.bound * (1 + 1e-9) or rep.bound == 0.0


@pytest.mark.parametrize("build", [greedy_packing, max_packing_exact])
@pytest.mark.parametrize(
    "delta", [Fraction(0), Fraction(-1), Fraction(3, 2), 2.0],
    ids=["0", "negative", "3/2", "2.0"])
def test_packing_builders_reject_bad_delta(build, delta):
    # Outside (0, 1] no range pair is far enough apart (delta > 1), or
    # every pair is (delta <= 0): both builders would return a packing
    # labelled with a delta the bound does not cover.
    with pytest.raises(ValueError, match="delta"):
        build(CORPUS["chain8"], delta)


def test_refined_bound_beats_crude_bound():
    for d in (1, 2, 3, 4):
        for delta in (Fraction(1, 2), Fraction(1, 4), Fraction(1, 16)):
            refined = 2.718281829 * (d + 1) * (2 * 2.718281829 / float(delta)) ** d
            assert refined < dudley_style_bound(d, delta), (d, delta)


def test_optimization_identity_small_d():
    for d in (1, 2, 3):
        out = haussler_optimization_identity(d)
        assert out["t_star"] == Fraction(1, d + 1)
        assert out["grid_ok"]
    # d = 1: coefficient 2/(t(1-t)) minimized at 1/2 with value 8
    assert haussler_optimization_identity(1)["value"] == 8
    # d = 2: 3^2 * (3/2)^2 = 81/4
    assert haussler_optimization_identity(2)["value"] == Fraction(81, 4)
    with pytest.raises(ValueError):
        haussler_optimization_identity(0)


def test_rational_e_bracket():
    # the certificates rely on E_UPPER really bounding e
    import math

    assert math.e < float(E_UPPER)


def test_projection_count_estimate_sparse_singletons():
    # four disjoint singletons among eight uniform points; the sampled
    # trace counts must stay near the family size
    sp = CORPUS["sparse-singles8"]
    out = projection_count_estimate(
        sp, max_packing_exact(sp, Fraction(1, 4)), trials=48, seed=5)
    assert out["ok"]
    assert out["family"] == 4
    assert out["mean"] is not None


@pytest.mark.parametrize(
    "name, sample_size, trials, mean",
    [
        ("intervals8w", None, 64, 9.0),
        ("intervals8w", 3, 64, 4.90625),
        ("intervals8w", 12, 64, 8.609375),
        ("intervals8w", 16, 64, 8.921875),
        ("singles8", 28, 64, 7.984375),
        ("singles8", 28, 256, 7.98828125),
        ("singles8", 32, 64, 7.984375),
        ("sparse-singles8", 28, 64, 3.984375),
    ],
)
def test_projection_count_estimate_is_frozen(name, sample_size, trials, mean):
    # One stream serves every trial, so each mean pins the draws of all
    # trials and the stream position each leaves for the next. On the
    # singletons a trial that hits every point early skips the rest of
    # its draws, and a trial that misses one counts fewer traces.
    sp = CORPUS[name]
    out = projection_count_estimate(
        sp, max_packing_exact(sp, Fraction(1, 4)), sample_size=sample_size,
        trials=trials, seed=3, strict=False,
    )
    assert out["mean"] == mean


@pytest.mark.parametrize(
    "bad",
    [{"slack": Fraction(0)}, {"slack": Fraction(1)}, {"slack": Fraction(2)},
     {"trials": 0}],
    ids=["slack-0", "slack-1", "slack-2", "trials-0"],
)
def test_projection_count_estimate_rejects_bad_inputs_before_any_work(
    bad, monkeypatch,
):
    # Unchecked, these divide by zero, raise TheoremViolationError (which
    # only a bug may raise) or, at slack 2, certify vacuously.
    sp = CORPUS["chain8"]
    pk = max_packing_exact(sp, Fraction(1, 4))
    assert len(pk.members) > 1  # past the trivial-family return

    def no_walk(*args):
        raise AssertionError("a VC walk ran")

    monkeypatch.setattr(packing, "_packed_dimension", no_walk)
    with pytest.raises(ValueError, match=next(iter(bad))):
        projection_count_estimate(sp, pk, **bad)


def test_projection_count_estimate_trivial_family():
    sp = build_range_space(2, [1, 1], [[0, 1]])
    out = projection_count_estimate(sp, max_packing_exact(sp, Fraction(1, 4)))
    assert out["ok"] and out["family"] == 1
