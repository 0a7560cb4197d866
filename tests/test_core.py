"""Core range-space behavior: canonical form, exact measures, projection,
conditioning, serialization, rational helpers, and the sampling stream
contract of draw_mask."""

import ast
import dataclasses
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import epsnet
from epsnet import (
    InstanceError,
    RangeSpace,
    build_range_space,
    draw_mask,
    draw_points,
    format_rational,
    parse_rational,
    stream_rng,
)
from epsnet.complexity import alexander_capacity, doubling_constant, star_number
from epsnet.core import (
    DRAW_BLOCK, Bound, Budget, CapExceededError, _unit_eps, cached_index, ceil_log2, components, iter_bits, mask_of,
    points_of,
)
from epsnet.nets import greedy_net, min_net_exact, verify_net

from corpus import CORPUS


def spaces_strategy(max_n=8, max_ranges=10):
    @st.composite
    def build(draw):
        n = draw(st.integers(1, max_n))
        weights = draw(
            st.lists(st.integers(0, 6), min_size=n, max_size=n).filter(
                lambda w: sum(w) >= 1
            )
        )
        k = draw(st.integers(0, max_ranges))
        ranges = [
            draw(st.sets(st.integers(0, n - 1), min_size=1))
            for _ in range(k)
        ]
        return build_range_space(n, weights, [sorted(r) for r in ranges])

    return build()


def test_mask_helpers_roundtrip():
    assert mask_of([0, 3, 5]) == 0b101001
    assert points_of(0b101001) == (0, 3, 5)
    assert list(iter_bits(0b1101)) == [0, 2, 3]
    assert points_of(0) == ()


def test_canonical_dedup_sort_and_empty_drop():
    sp = build_range_space(4, [1, 1, 1, 1], [[2, 3], [0], [0], [], [0, 1]])
    assert sp.ranges == (0b0001, 0b0011, 0b1100)


def test_validation_errors():
    with pytest.raises(InstanceError):
        build_range_space(0, [], [])
    with pytest.raises(InstanceError):
        build_range_space(2, [1], [])
    with pytest.raises(InstanceError):
        build_range_space(2, [-1, 2], [])
    with pytest.raises(InstanceError):
        build_range_space(2, [0, 0], [])
    with pytest.raises(InstanceError):
        build_range_space(2, [1, 1], [[2]])


@pytest.mark.parametrize(
    "doc",
    [
        {"n": 2, "weights": [1.7, 1], "ranges": [[0]]},
        {"n": 2, "weights": [True, 1], "ranges": [[0]]},
        {"n": 2, "weights": ["3", 1], "ranges": [[0]]},
        {"n": True, "weights": [1], "ranges": [[0]]},
        {"n": 2, "weights": [1, 1], "ranges": [[0.0]]},
        {"n": 2, "weights": [1, 1], "ranges": [[-1]]},
        {"n": 2, "weights": [1, 1], "ranges": "01"},
        {"n": 2, "weights": [1, 1], "ranges": [[0]], "extra": 1},
    ],
    ids=["float-weight", "bool-weight", "string-weight", "bool-n",
         "float-point", "negative-point", "string-ranges", "unknown-key"],
)
def test_malformed_instance_is_instance_error(doc):
    with pytest.raises(InstanceError):
        RangeSpace.from_dict(doc)


def test_incidence_columns_are_built_once():
    sp = build_range_space(4, [1] * 4, [[0, 1], [1, 2], [3]])
    cols = sp.incidence
    for x in range(sp.n):
        assert cols[x] == sum(
            1 << i for i, r in enumerate(sp.ranges) if r >> x & 1)
    assert sp.incidence is cols


def test_point_components_are_built_once():
    sp = build_range_space(6, [1] * 6, [[0, 1], [1, 2], [3], [4, 5], [5]])
    comps = sp.point_components
    assert comps == tuple(components(sp.ranges)) == (0b000111, 0b001000, 0b110000)
    assert sp.point_components is comps


def test_readers_keep_only_the_declared_per_space_index():
    # Everything a space holds is a declared field or a cached index,
    # whichever readers have touched it. Fresh copies, so that the readers
    # here build every cached index.
    declared = {f.name for f in dataclasses.fields(RangeSpace)}
    cached = {name for name, value in vars(RangeSpace).items()
              if isinstance(value, cached_index)}
    eps = Fraction(1, 4)
    for key, shared in CORPUS.items():
        sp = RangeSpace.from_dict(shared.to_dict())
        verify_net(sp, greedy_net(sp, eps).points, eps)
        alexander_capacity(sp, eps)
        draw_mask(sp, 3 * sp.n, stream_rng(0, "guard"))
        doubling_constant(sp, eps)
        star_number(sp)
        min_net_exact(sp, eps)
        assert set(vars(sp)) == declared | cached, key
        w, m = sp.total_weight, len(sp.ranges)
        for x in set(sp.range_weights):
            for q in (Fraction(x, w), Fraction(x, 2 * w)):
                want = sum(1 for i in range(m) if sp.measure(i) <= q)
                assert sp.count_at_most(q) == want, (key, q)


def test_exact_measures():
    sp = build_range_space(4, [1, 2, 3, 4], [[0, 1], [2, 3], [1, 2]])
    assert sp.total_weight == 10
    # canonical order sorts by point set: {0,1}, {1,2}, {2,3}
    assert sp.ranges == (0b0011, 0b0110, 0b1100)
    assert sp.measure(0) == Fraction(3, 10)
    assert sp.measure(2) == Fraction(7, 10)
    assert sp.rho(0, 2) == Fraction(1)  # disjoint: sum of measures
    assert sp.rho(0, 1) == Fraction(1 + 3, 10)
    assert sp.rho(1, 1) == 0


def test_project_empty_trace_semantics():
    sp = build_range_space(4, [1] * 4, [[0], [0, 1], [2, 3]])
    traces = sp.project([0, 1])
    assert traces == [0b00, 0b01, 0b11]
    assert 0 in sp.project([2])  # {0} misses point 2


def test_conditional_weights_and_zero_error():
    sp = build_range_space(4, [1, 2, 3, 4], [[0, 1], [2, 3]])
    cond = sp.conditional([1, 2])
    assert cond.weights == (0, 2, 3, 0)
    assert cond.total_weight == 5
    with pytest.raises(InstanceError):
        sp.conditional(0)


def test_serialization_roundtrip_corpus():
    for sp in CORPUS.values():
        again = RangeSpace.loads(sp.dumps())
        assert again == sp
        assert again.range_weights == sp.range_weights


def test_parse_and_format_rational():
    assert parse_rational("3/4") == Fraction(3, 4)
    assert parse_rational("2/4") == Fraction(1, 2)
    assert parse_rational("-1/8") == Fraction(-1, 8)
    assert parse_rational("7") == 7
    assert format_rational(Fraction(8, 2)) == "4/1"
    for bad in ("1/0", "a/b", "", "1/2/3"):
        with pytest.raises(InstanceError):
            parse_rational(bad)


def test_unit_eps_passes_an_in_range_fraction_and_rejects_the_rest():
    eps = Fraction(3, 8)
    assert _unit_eps(eps) is eps
    assert _unit_eps(Fraction(1)) == 1
    assert _unit_eps("1/8") == Fraction(1, 8)
    assert _unit_eps(0.5) == Fraction(1, 2)
    for bad, text in [(0, "got 0$"), (Fraction(-1, 2), "got -1/2$"),
                      (Fraction(3, 2), "got 3/2$"), ("1.5", "got 3/2$")]:
        with pytest.raises(ValueError, match=r"eps must be in \(0, 1\], " + text):
            _unit_eps(bad)
    with pytest.raises(ValueError, match="Invalid literal for Fraction: 'abc'"):
        _unit_eps("abc")
    with pytest.raises(ValueError, match=r"^delta must be in \(0, 1\], got 0$"):
        _unit_eps(0, "delta")


def test_every_exact_search_answers_the_one_bound_class():
    # complexity, packing and nets answer core.Bound, under every name
    # the package gives it, with the repr the estimates always had.
    from epsnet import complexity, nets, packing

    assert complexity.Bound is packing.Bound is nets.Bound is Bound
    assert epsnet.Bound is Bound
    assert repr(Bound(1, 2)) == "Bound(lower=1, upper=2, witness=(), eps0=None)"


@pytest.mark.parametrize(
    "q,k",
    [
        (Fraction(1), 0),
        (Fraction(2), 1),
        (Fraction(3), 2),
        (Fraction(4), 2),
        (Fraction(5), 3),
        (Fraction(1, 2), -1),
        (Fraction(1, 3), -1),
        (Fraction(1, 4), -2),
        (Fraction(17), 5),
        (Fraction(7, 2), 2),
    ],
)
def test_ceil_log2(q, k):
    assert ceil_log2(q) == k
    assert Fraction(2) ** k >= q
    assert Fraction(2) ** (k - 1) < q


def _oracle_ceil_log2(q: Fraction) -> int:
    """Smallest k with 2**k >= q, walked to by Fraction comparisons."""
    k = 0
    while Fraction(2) ** k < q:
        k += 1
    while Fraction(2) ** (k - 1) >= q:
        k -= 1
    return k


_near_powers_of_two = st.builds(
    lambda e, s: Fraction(2) ** e + s * Fraction(1, 10**70),
    st.integers(-200, 200), st.sampled_from([-1, 0, 1]),
)


@given(st.one_of(
    st.builds(Fraction, st.integers(1, 2**200), st.integers(1, 2**200)),
    _near_powers_of_two,
))
@settings(max_examples=300, deadline=None)
def test_ceil_log2_matches_the_comparison_oracle(q):
    assert ceil_log2(q) == _oracle_ceil_log2(q)


def test_draw_points_deterministic_and_support_only():
    sp = build_range_space(5, [1, 0, 2, 0, 3], [[0, 2], [4]])
    a = draw_points(sp, 50, stream_rng(11, "t"))
    b = draw_points(sp, 50, stream_rng(11, "t"))
    assert a == b
    assert set(a) <= {0, 2, 4}
    c = draw_points(sp, 50, stream_rng(11, "t"), within_mask=0b00101)
    assert set(c) <= {0, 2}
    with pytest.raises(InstanceError):
        draw_points(sp, 1, stream_rng(0, "t"), within_mask=0b01010)


@settings(max_examples=80, deadline=None)
@given(
    spaces_strategy(),
    st.booleans(),
    st.one_of(st.none(), st.integers(0, 255)),
    st.one_of(st.integers(0, 64), st.integers(0, 2 * DRAW_BLOCK + 100)),
    st.integers(0, 3),
)
def test_draw_mask_is_mask_of_draw_points_with_the_same_stream(
    sp, uniform, within, k, seed,
):
    # Uniform spaces draw without cum_weights; weighted ones, zero weights
    # included, bisect them. k runs from 0 through several doubling chunks
    # into the skip, past one DRAW_BLOCK.
    if uniform:
        sp = build_range_space(sp.n, [1] * sp.n, sp.ranges)
    if within is not None:
        within &= (1 << sp.n) - 1
    a, b = stream_rng(seed, "draw"), stream_rng(seed, "draw")
    if within is not None and not sp.mask_weight(within):
        with pytest.raises(InstanceError):
            draw_points(sp, k, a, within)
        with pytest.raises(InstanceError):
            draw_mask(sp, k, b, within)
    else:
        assert draw_mask(sp, k, b, within) == mask_of(draw_points(sp, k, a, within))
    assert a.getstate() == b.getstate()


def test_draw_mask_memory_is_bounded_by_the_block_not_k():
    # draw_points would hold a 2e6-entry list (16 MB of pointers).
    sp = CORPUS["intervals8w"]
    rng = stream_rng(5, "memory")
    tracemalloc.start()
    try:
        mask = draw_mask(sp, 2 * 10**6, rng)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert mask == sp.support_mask
    assert peak < 1 << 20


@settings(max_examples=60, deadline=None)
@given(spaces_strategy())
def test_rho_triangle_inequality(sp):
    m = len(sp.ranges)
    for i in range(m):
        for j in range(m):
            for k in range(m):
                assert sp.rho(i, k) <= sp.rho(i, j) + sp.rho(j, k)


@settings(max_examples=60, deadline=None)
@given(spaces_strategy(), st.data())
def test_project_monotone_in_subset(sp, data):
    y = data.draw(st.sets(st.integers(0, sp.n - 1)))
    sub = data.draw(st.sets(st.sampled_from(sorted(y)))) if y else set()
    big = len(sp.project(sorted(y)))
    small = len(sp.project(sorted(sub)))
    assert small <= big


@settings(max_examples=60, deadline=None)
@given(spaces_strategy())
def test_serialization_roundtrip_random(sp):
    assert RangeSpace.loads(sp.dumps()) == sp


@settings(max_examples=40, deadline=None)
@given(spaces_strategy())
def test_conditional_on_support_is_identity_measurewise(sp):
    cond = sp.conditional(sp.support_mask)
    assert cond.total_weight == sp.total_weight
    assert {
        (r, w) for r, w in zip(cond.ranges, cond.range_weights)
    } == {
        (r & sp.support_mask, w)
        for r, w in zip(sp.ranges, sp.range_weights)
        if r & sp.support_mask
    }


# -- Budget: the one place a walk's trip is caught ---------------------------


def _chain_walk(budget, depth):
    """A walk one node per level, depth levels deep."""
    budget.spend()
    if depth > 1:
        _chain_walk(budget, depth - 1)


def test_budget_run_of_a_finished_walk_is_true():
    budget = Budget(5, "chain search")
    assert budget.run(_chain_walk, budget, 5) is True
    assert budget.spent == 5 and budget.error is None


def test_budget_run_past_its_nodes_is_false_with_the_error_kept():
    budget = Budget(3, "chain search")
    assert budget.run(_chain_walk, budget, 5) is False
    assert budget.error == "chain search exceeded its budget of 3 nodes"
    assert budget.spent == 3


def test_budget_run_past_the_recursion_limit_is_false_with_the_nodes_spent():
    budget = Budget(10**9, "chain search")
    assert budget.run(_chain_walk, budget, 10**6) is False
    spent = budget.spent
    assert 0 < spent < 10**6
    assert budget.error == (
        f"chain search passed the recursion limit after {spent} nodes")


@pytest.mark.parametrize("nodes, depth", [(3, 5), (10**9, 10**6)])
def test_a_tripped_budget_stays_spent(nodes, depth):
    # The pi knapsack and the star walk over several components run later
    # walks on a budget an earlier one tripped: each stops at its first
    # node, and the first trip is the one kept.
    budget = Budget(nodes, "chain search")
    assert not budget.run(_chain_walk, budget, depth)
    error, spent = budget.error, budget.spent
    visited = []

    def walk():
        budget.spend()
        visited.append(1)

    assert budget.run(walk) is False
    assert budget.run(_chain_walk, budget, 1) is False
    assert visited == [] and budget.spent == spent and budget.error is error


def _package_nodes():
    """(module.enclosing def path, node) for each node of the package."""
    def walk(tree, scope):
        for node in ast.iter_child_nodes(tree):
            yield scope, node
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                yield from walk(node, f"{scope}.{node.name}")
            else:
                yield from walk(node, scope)

    for path in sorted(Path(epsnet.__file__).parent.glob("*.py")):
        yield from walk(ast.parse(path.read_text()), path.stem)


def test_only_budget_run_and_the_cli_catch_a_trip():
    # A search that trips answers a value, a core.Bound (a bracket, a
    # clique's incumbent below a colouring count, or the minimum net's
    # incumbent above a lower end), so the package catches
    # CapExceededError in two places: Budget.run, for every walk, and the
    # CLI, which turns it into exit 2.
    sites = set()
    for scope, node in _package_nodes():
        if isinstance(node, ast.ExceptHandler) and node.type is not None:
            kinds = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
            if "CapExceededError" in {getattr(k, "id", getattr(k, "attr", None))
                                      for k in kinds}:
                sites.add(scope)
    assert sites == {"core.Budget.run", "cli.main"}


def test_a_trip_is_raised_in_three_places_and_never_re_raised():
    # Budget.spend raises a trip for Budget.run to catch and keep as a
    # message; only the generators' range cap and sauer_check raise one
    # to a caller, and no search re-raises a Budget's error.
    built, reraised = set(), []
    for scope, node in _package_nodes():
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "CapExceededError":
            built.add(".".join(scope.split(".")[:2]))
        if (isinstance(node, ast.Raise) and isinstance(node.exc, ast.Attribute)
                and node.exc.attr == "error"):
            reraised.append(scope)
    assert built == {"core.Budget", "complexity.sauer_check",
                     "generators.gen_lower_bound_family"}
    assert reraised == []
    assert not hasattr(CapExceededError("trip"), "spent")
