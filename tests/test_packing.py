"""Packing machinery: clique search, packings, and the packing bound."""

from fractions import Fraction
from itertools import combinations

import pytest

import epsnet.packing as packing
from epsnet.core import CapExceededError, TheoremViolationError, build_range_space
from epsnet.packing import (
    E_LOWER,
    E_UPPER,
    dudley_style_bound,
    greedy_packing,
    haussler_certificate,
    haussler_optimization_identity,
    max_clique,
    max_packing_exact,
    projection_count_estimate,
)

from corpus import CORPUS
from oracles import oracle_max_packing, set_measure, as_sets


def _clique_brute(adj):
    n = len(adj)
    best = 0
    for size in range(n, 0, -1):
        if size <= best:
            break
        for sub in combinations(range(n), size):
            if all(adj[a] >> b & 1 for a, b in combinations(sub, 2)):
                best = size
                break
    return best


def _adj_from_edges(n, edges):
    adj = [0] * n
    for a, b in edges:
        adj[a] |= 1 << b
        adj[b] |= 1 << a
    return adj


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
        assert size == _clique_brute(adj), trial
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


def test_exact_packing_over_node_budget_raises_and_certificate_falls_back(
    monkeypatch,
):
    sp = CORPUS["singles8"]
    delta = Fraction(1, 4)
    monkeypatch.setattr(packing, "DEFAULT_CLIQUE_NODES", 2)
    with pytest.raises(CapExceededError):
        max_packing_exact(sp, delta)
    cert = haussler_certificate(sp, delta)
    assert not cert.packing_exact
    assert cert.packing_size == len(greedy_packing(sp, delta).members)


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


def test_exact_packing_cap():
    sp = CORPUS["intervals6"]
    with pytest.raises(CapExceededError):
        max_packing_exact(sp, Fraction(1, 8), cap=5)


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
            rep = haussler_certificate(sp, delta, strict=True)
            assert rep.ok, (key, delta)
            assert rep.packing_size <= rep.bound * (1 + 1e-9) or rep.bound == 0.0


def test_haussler_certificate_rejects_bad_delta():
    with pytest.raises(ValueError):
        haussler_certificate(CORPUS["chain8"], Fraction(0))
    with pytest.raises(ValueError):
        haussler_certificate(CORPUS["chain8"], Fraction(3, 2))


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
    assert E_LOWER < E_UPPER
    assert float(E_LOWER) == pytest.approx(2.718281828, abs=1e-9)
    # the bracket really contains e
    import math

    assert float(E_LOWER) < math.e < float(E_UPPER)


def test_projection_count_estimate_sparse_singletons():
    # four disjoint singletons among eight uniform points; the sampled
    # trace counts must stay near the family size
    sp = CORPUS["sparse-singles8"]
    out = projection_count_estimate(sp, Fraction(1, 4), trials=48, seed=5)
    assert out["ok"]
    assert out["family"] == 4
    assert out["mean"] is not None


def test_projection_count_estimate_trivial_family():
    sp = build_range_space(2, [1, 1], [[0, 1]])
    out = projection_count_estimate(sp, Fraction(1, 4))
    assert out["ok"] and out["family"] == 1
