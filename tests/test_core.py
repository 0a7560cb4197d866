"""Core range-space behavior: canonical form, exact measures, projection,
conditioning, serialization, rational helpers."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from epsnet import (
    InstanceError,
    RangeSpace,
    build_range_space,
    draw_points,
    format_rational,
    parse_rational,
    stream_rng,
)
from epsnet.core import ceil_log2, iter_bits, mask_of, points_of

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
    ],
    ids=["float-weight", "bool-weight", "string-weight", "bool-n",
         "float-point", "negative-point", "string-ranges"],
)
def test_malformed_instance_is_instance_error(doc):
    with pytest.raises(InstanceError):
        RangeSpace.from_dict(doc)


def test_incidence_columns_are_built_once():
    sp = build_range_space(4, [1] * 4, [[0, 1], [1, 2], [3]])
    cols = sp.incidence()
    for x in range(sp.n):
        assert cols[x] == sum(
            1 << i for i, r in enumerate(sp.ranges) if r >> x & 1)
    assert sp.incidence() is cols


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
