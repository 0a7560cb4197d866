"""One-inclusion graph, bounded orientation, leave-one-out accounting."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from epsnet.core import TheoremViolationError, build_range_space
from epsnet.oneinclusion import (
    OrientationInfeasibleError,
    build_oig,
    density_check,
    loo_error,
    orient_bounded,
    predict,
    trace_vertices,
)

from corpus import CORPUS
from oracles import (
    oracle_min_out_degree,
    oracle_trace_vertices,
    reference_predict,
)


def test_cube_graph_from_explicit_masks():
    g = build_oig(range(8), m=3)
    assert len(g.vertices) == 8
    assert len(g.edges) == 12
    assert g.density == Fraction(12, 8)
    # every edge flips exactly one bit
    for u, v, coord in g.edges:
        assert g.vertices[u] ^ g.vertices[v] == 1 << coord


def test_trace_vertices_with_repeats():
    sp = CORPUS["powerset3"]
    verts = trace_vertices(sp, [0, 0, 1])
    # repeated sample point forces equal bits 0 and 1 in every trace
    for v in verts:
        assert (v >> 0 & 1) == (v >> 1 & 1)
    with pytest.raises(ValueError):
        trace_vertices(sp, [0, 5])


def test_trace_vertices_match_the_per_bit_oracle():
    rng = random.Random(4)
    for key, sp in CORPUS.items():
        for size in (0, 1, 3, sp.n, sp.n + 2):
            sample = [rng.randrange(sp.n) for _ in range(size)]
            assert trace_vertices(sp, sample) == oracle_trace_vertices(
                sp, sample), (key, sample)
        # A negative point would index the columns from the end.
        with pytest.raises(ValueError):
            trace_vertices(sp, [-1])


@pytest.mark.parametrize("sample", [[True, 1], [1.0], [0, "1"]])
def test_sample_points_must_be_true_ints(sample):
    # build_range_space's rule: a bool is not taken as the point 1, and a
    # float is refused rather than failing inside the column lookup.
    sp = CORPUS["powerset3"]
    for call in (trace_vertices, build_oig):
        with pytest.raises(ValueError, match="not an integer"):
            call(sp, sample)


def test_an_empty_sample_is_refused_and_m_zero_has_no_loo_error():
    with pytest.raises(ValueError, match="nonempty sample"):
        build_oig(CORPUS["powerset3"], [])
    g = build_oig([0], m=0)
    o = orient_bounded(g, 0)
    with pytest.raises(ValueError, match="m >= 1"):
        loo_error(o, 0)


def test_build_oig_from_space_nonempty_family():
    sp = CORPUS["powerset3"]
    g = build_oig(sp, sample=[0, 1, 2])
    # all nonempty subsets of a 3-point sample: the cube minus vertex 0
    assert len(g.vertices) == 7
    assert len(g.edges) == 9


def test_density_check_cube():
    g = build_oig(range(8), m=3)
    out = density_check(g)
    assert out["d"] == 3 and out["ok"]
    # forged tiny dimension must fail
    with pytest.raises(TheoremViolationError):
        density_check(g, d=1)


def test_path_family_hand_trace():
    # vertices 000, 001, 011, 111: a path flipping coords 0, 1, 2
    g = build_oig([0b000, 0b001, 0b011, 0b111], m=3)
    assert len(g.edges) == 3
    o = orient_bounded(g, 1)
    assert o.max_out_degree <= 1
    errs = [loo_error(o, i) for i in range(4)]
    assert all(e <= Fraction(1, 3) for e in errs)
    # the path has 3 edges over 4 vertices: at least two vertices make a
    # mistake somewhere, and total mistakes equal total edges
    assert sum(o.out_degree(i) for i in range(4)) == 3


def test_orientation_infeasible_at_zero():
    g = build_oig([0b0, 0b1], m=1)
    with pytest.raises(OrientationInfeasibleError):
        orient_bounded(g, 0)


def test_cube_orientation_at_two():
    # 12 edges, 8 vertices: averaging says max out-degree 2 is reachable
    g = build_oig(range(8), m=3)
    o = orient_bounded(g, 2)
    assert o.max_out_degree <= 2


def test_predict_mistake_bound_identity():
    # prediction at (v, coord) errs exactly when the edge at coord leaves v
    g = build_oig(range(8), m=3)
    o = orient_bounded(g, 3)
    for v_idx, v in enumerate(g.vertices):
        mistakes = 0
        for coord in range(3):
            if predict(o, v_idx, coord) != (v >> coord & 1):
                mistakes += 1
        assert mistakes == o.out_degree(v_idx)
        assert loo_error(o, v_idx) == Fraction(mistakes, 3)


def test_predict_on_unpaired_coordinate():
    # vertex 00 with no neighbor across coord 1 predicts its own bit
    g = build_oig([0b00, 0b01], m=2)
    o = orient_bounded(g, 1)
    i00 = g.vertices.index(0b00)
    assert predict(o, i00, 1) == 0


def test_orientation_deterministic():
    g = build_oig(range(16), m=4)
    o1 = orient_bounded(g, 2)
    o2 = orient_bounded(g, 2)
    assert o1.tails == o2.tails


@st.composite
def small_graphs(draw):
    """Explicit-mask graphs, m <= 4 with at most 8 vertices, so at most
    12 edges and 4,096 orientations for the brute-force oracle."""
    m = draw(st.integers(1, 4))
    masks = draw(st.sets(st.integers(0, (1 << m) - 1), min_size=1, max_size=8))
    return build_oig(masks, m=m)


@settings(max_examples=200, deadline=None)
@given(small_graphs())
def test_orientation_matches_brute_force_and_predict_matches_edge_scan(g):
    best = oracle_min_out_degree(len(g.vertices), g.edges)
    for d in range(4):
        if best > d:
            with pytest.raises(OrientationInfeasibleError):
                orient_bounded(g, d)
            continue
        o = orient_bounded(g, d)
        assert o.max_out_degree <= d
        for v_idx in range(len(g.vertices)):
            for coord in range(g.m):
                assert predict(o, v_idx, coord) == reference_predict(o, v_idx, coord)
            assert loo_error(o, v_idx) * g.m == o.out_degree(v_idx)
