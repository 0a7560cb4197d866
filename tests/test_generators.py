"""Instance generators: block families, geometric families, random families."""

import hashlib
import json
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from epsnet import generators
from epsnet.complexity import shallow_cell, vc_dimension
from epsnet.core import CapExceededError, InstanceError
from epsnet.generators import (
    LowerBoundParams,
    gen_geometric,
    gen_lower_bound_family,
    gen_random,
    random_points,
)
from epsnet.nets import min_net_exact

from corpus import CORPUS, DOUBLING_RATIO_CASES, doubling_to_capacity_ratios
from oracles import as_sets, oracle_geometric


# -- block lower-bound families ----------------------------------------------


def test_params_counting_formulas():
    p = LowerBoundParams(k=1, d=2, l=1, m=2)
    # blocks of sizes 2 and 3, one copy each
    assert p.n == 5
    assert p.range_count == 2 + 3
    sp = gen_lower_bound_family(p)
    assert sp.n == 5 and len(sp.ranges) == 5
    q = LowerBoundParams(k=2, d=3, l=2, m=3)
    assert q.n == 2 * 3 * 2 + 2 * 2 * 7  # l*m*(d-1) + l*k*(2^m - 1)
    assert gen_lower_bound_family(q).n == q.n


def test_params_validation():
    with pytest.raises(Exception):
        LowerBoundParams(k=0, d=2, l=1, m=2)
    with pytest.raises(Exception):
        LowerBoundParams(k=1, d=2, l=1, m=0)


def test_block_structure_disjoint_and_uniform():
    sp = gen_lower_bound_family(LowerBoundParams(k=1, d=2, l=2, m=2))
    assert set(sp.weights) == {1}
    # blocks: two of size 2 (scale 0), two of size 3 (scale 1)
    # every range lies inside one block
    blocks = [(0, 2), (2, 4), (4, 7), (7, 10)]
    for r in sp.ranges:
        assert any(
            r >> lo == r >> lo << (64 - hi + lo) >> (64 - hi + lo) or True
            for lo, hi in blocks
        )
        hit = [b for b in blocks if any(r >> x & 1 for x in range(*b))]
        assert len(hit) == 1


def test_range_sizes_double_across_scales():
    sp = gen_lower_bound_family(LowerBoundParams(k=2, d=2, l=1, m=3))
    sizes = sorted({r.bit_count() for r in sp.ranges})
    assert sizes == [2, 4, 8]


def test_min_net_forces_d_points_per_block():
    # at eps = k/n, each block contributes d mandatory net points
    p = LowerBoundParams(k=1, d=2, l=1, m=2)
    sp = gen_lower_bound_family(p)
    eps = Fraction(p.k, p.n)
    assert min_net_exact(sp, eps).size == p.l * p.m * p.d


@pytest.mark.parametrize("field", ["k", "d", "l", "m"])
@pytest.mark.parametrize("bad", [1.0, True, "1", 0])
def test_params_must_be_positive_true_ints(field, bad):
    args = dict(k=1, d=2, l=1, m=2)
    args[field] = bad
    with pytest.raises(InstanceError, match=f"^{field} must"):
        LowerBoundParams(**args)


def test_block_family_cap(monkeypatch):
    # a 15-point block carrying all 8-subsets alone exceeds the cap
    monkeypatch.setattr(generators, "DEFAULT_RANGE_CAP", 100)
    with pytest.raises(CapExceededError):
        gen_lower_bound_family(LowerBoundParams(k=8, d=8, l=1, m=1))


# -- geometric families -------------------------------------------------------


def test_intervals_trace_count_closed_form():
    for s in (3, 4, 5, 6):
        sp = gen_geometric("intervals", list(range(s)))
        assert len(sp.ranges) == s * (s + 1) // 2, s
        assert vc_dimension(sp).value == 2


def test_intervals_shallow_cells_are_singletons_plus_empty():
    # On any proper subset Y, traces of size <= 1 are |Y| singletons plus
    # the empty trace (an interval at a point outside Y misses Y), so the
    # shallow-cell count at level 1 is y + 1 for y < n. At y = n there is
    # no empty trace and the count drops to n.
    sp = gen_geometric("intervals", list(range(6)))
    for y in range(1, sp.n):
        res = shallow_cell(sp, y, 1)
        assert res.exact
        assert res.value == y + 1, y
    assert shallow_cell(sp, sp.n, 1).value == sp.n


def test_doubling_to_capacity_ratio_under_recorded_ceiling():
    # The doubling constant tracks the capacity up to a modest factor on
    # random geometric instances; the observed maximum ratio is recorded in
    # the regression file and regenerated by make_ceilings.py.
    data = json.loads(
        (Path(__file__).parent / "data" / "regression_ceilings.json")
        .read_text()
    )
    ceiling = data["d_over_tau"]["max"] * 1.4  # same headroom as acceptance
    rows = doubling_to_capacity_ratios()
    assert len(rows) == 3 * len(DOUBLING_RATIO_CASES)
    for name, eps, ratio in rows:
        assert ratio <= ceiling, (name, str(eps), ratio, ceiling)


def test_intervals_with_duplicate_coordinates():
    sp = gen_geometric("intervals", [0, 0, 1])
    # two distinct values: three nonempty runs
    assert len(sp.ranges) == 3
    assert sp.n == 3


def test_intervals_weighted():
    sp = gen_geometric("intervals", [0, 1, 2], weights=[1, 2, 3])
    assert sp.total_weight == 6
    full = max(sp.ranges, key=lambda r: r.bit_count())
    assert sp.mask_measure(full) == 1


def test_halfplanes_on_triangle():
    sp = gen_geometric("halfplanes", [(0, 0), (4, 0), (0, 4)])
    # all seven nonempty subsets are realizable on a triangle
    assert len(sp.ranges) == 7
    # the empty trace is not a range, so only pairs are shattered here
    assert vc_dimension(sp).value == 2


def test_halfplanes_shatter_three_of_four():
    sp = gen_geometric("halfplanes", [(0, 0), (4, 0), (4, 4), (0, 4)])
    assert vc_dimension(sp).value == 3


def test_halfplanes_collinear_degenerate():
    sp = gen_geometric("halfplanes", [(0, 0), (1, 1), (2, 2), (3, 3)])
    # collinear points: halfplanes behave like one-sided intervals
    assert vc_dimension(sp).value <= 2
    assert all(r for r in sp.ranges)


def test_disks_five_points():
    sp = gen_geometric("disks", [(0, 0), (4, 0), (4, 4), (0, 4), (2, 1)])
    assert vc_dimension(sp).value == 3
    # singleton traces exist for every point
    for x in range(5):
        assert (1 << x) in sp.ranges


def test_halfspaces3d_tetrahedron():
    pts = [(0, 0, 0), (4, 0, 0), (0, 4, 0), (0, 0, 4)]
    sp = gen_geometric("halfspaces3d", pts)
    # without an empty range, four points cannot be shattered
    assert vc_dimension(sp).value == 3


def test_geometric_rejects_unknown_kind():
    with pytest.raises(InstanceError):
        gen_geometric("rectangles", [(0, 0)])


def test_geometric_coordinates_are_exact():
    # rationals with large denominators must not be rounded
    sp1 = gen_geometric("intervals", [Fraction(1, 3), Fraction(1, 3)])
    sp2 = gen_geometric("intervals", [Fraction(1, 3), Fraction(333333, 10**6)])
    assert len(sp1.ranges) == 1  # coincident
    assert len(sp2.ranges) == 3  # distinct


@pytest.mark.parametrize("kind, points", [
    ("intervals", [Fraction(1, 2), 0.5]),
    ("intervals", [(0.5,), (1,)]),
    ("intervals", ["1/2", 1]),
    ("intervals", [True, 2]),
    ("intervals", "123"),
    ("halfplanes", ["12", (0, 0), (1, 0)]),
    ("halfplanes", [(0, 1.5), (1, 0)]),
    ("halfplanes", [(0, None), (1, 0)]),
    ("disks", [(0, 0), (1, False)]),
    ("halfspaces3d", [(0, 0, 0), 7]),
])
def test_geometric_coordinates_must_be_ints_or_fractions(kind, points):
    # No float, bool or string coordinate is coerced, bare or in a tuple.
    with pytest.raises(InstanceError):
        gen_geometric(kind, points)


# sha256 of dumps() for pinned geometric instances: any change to a
# trace enumeration or to the canonical order shows here.
FROZEN_GEOMETRIC = {
    "halfplanes30": ("halfplanes", random_points(30, 2, seed=7),
                     "cb8c000e45b8faa962b0e13c5227644511fe88ca9a1d415830fd40448f0ed949"),
    "disks14": ("disks", random_points(14, 2, seed=3),
                "d400d437a4cb32e4e66b89b10db708874b96f90c70e8f1d15e0aaaa7eaa82ee2"),
    "intervals40": ("intervals", random_points(40, 1, seed=7),
                    "5191d6f57552e68f377188f058ebfa7e6fe06f9f9d52138ec71523abe301d2c8"),
    "halfspaces3d10": ("halfspaces3d", random_points(10, 3, seed=1),
                       "261e43048780f090c14f3df9f81ee25fb2f037b50221dc87c4d0486ba8f21099"),
    "halfplanes12": ("halfplanes", random_points(12, 2, seed=0, grid=6),
                     "1d9830f25842db8925e7fa92b5d5af828682b60be4cb44ebeda69b478035d173"),
    "disks12": ("disks", random_points(12, 2, seed=0, grid=6),
                "435a7fc90bad997f86081d12eef7ccf5c585bcdc2a1bcd7a341afda2ddc48595"),
}
FROZEN_CORPUS = {
    "intervals6": "d970534c526bae616cf6ad944b2c0d4ab0befaa686c3d6117aff99b0d293b5b7",
    "intervals8w": "a67b6ec555ce3086f907789dd9a35b2a6303729819f4d80bcab3cb8f1aab14a1",
    "halfplanes5": "6a75793a0abe95eb01396c30935fed9e2d75506f04cc98ee13d6ccb5bbbd057a",
    "disks5": "447f82dc2e0f2ca1ac1a512adc4e308918ce93965fd25dcbf4bbe9ddd601d722",
}


def test_geometric_instances_are_frozen():
    def digest(space):
        return hashlib.sha256(space.dumps().encode()).hexdigest()

    for key, (kind, pts, sha) in FROZEN_GEOMETRIC.items():
        space = gen_geometric(kind, pts)
        assert space.name == key and digest(space) == sha, key
    for key, sha in FROZEN_CORPUS.items():
        assert digest(CORPUS[key]) == sha, key


DIMS = {"intervals": 1, "halfplanes": 2, "disks": 2, "halfspaces3d": 3}


@st.composite
def geometric_inputs(draw):
    """(kind, points): at most 8 points whose coordinates all come from
    one small grid (so duplicates and collinear points are common) or
    from small rationals; 1-d points are bare or 1-tuples."""
    kind = draw(st.sampled_from(sorted(DIMS)))
    coord = draw(st.sampled_from([
        st.integers(0, 2), st.integers(-3, 6),
        st.fractions(-2, 2, max_denominator=6),
    ]))
    pts = draw(st.lists(st.tuples(*[coord] * DIMS[kind]),
                        min_size=1, max_size=8))
    if kind == "intervals" and draw(st.booleans()):
        pts = [x for (x,) in pts]
    return kind, pts


GEOMETRIC_SETTINGS = settings(max_examples=100, deadline=None)


@GEOMETRIC_SETTINGS
@given(geometric_inputs())
@example(("disks", [(0, 0), (2, 0), (1, 1), (1, -1), (1, 0), (1, 0)]))
@example(("halfspaces3d", [(0, 0, 0), (1, 1, 1), (2, 2, 2), (0, 1, 0)]))
@example(("halfplanes", [(Fraction(1, 3), 0), (0, Fraction(1, 7)), (1, 1)]))
def test_geometric_traces_match_the_rational_oracle(case):
    kind, pts = case
    space = gen_geometric(kind, pts)
    assert space.n == len(pts)
    assert set(as_sets(space)) == oracle_geometric(kind, pts)


@GEOMETRIC_SETTINGS
@given(geometric_inputs(), st.fractions(0, 50, max_denominator=50)
       .filter(lambda q: q > 0))
def test_geometric_space_is_unchanged_by_positive_scaling(case, q):
    kind, pts = case
    scaled = [x * q if isinstance(x, (int, Fraction)) else
              tuple(c * q for c in x) for x in pts]
    assert gen_geometric(kind, scaled).dumps() == gen_geometric(kind, pts).dumps()


@st.composite
def collinear_inputs(draw):
    """(kind, steps, points): 1 to 8 integer points base + t * step on one
    line, for halfplanes or halfspaces3d; equal t are coincident points."""
    kind = draw(st.sampled_from(["halfplanes", "halfspaces3d"]))
    coord = st.integers(-4, 4)
    base = draw(st.tuples(*[coord] * DIMS[kind]))
    step = draw(st.tuples(*[coord] * DIMS[kind]).filter(any))
    ts = draw(st.lists(st.integers(-3, 3), min_size=1, max_size=8))
    return kind, ts, [tuple(b + t * d for b, d in zip(base, step)) for t in ts]


@GEOMETRIC_SETTINGS
@given(collinear_inputs())
@example(("halfplanes", [0, 1, 2], [(0, 0), (1, 0), (2, 0)]))
@example(("halfspaces3d", [0, 0, 1], [(1, 1, 1), (1, 1, 1), (2, 3, 4)]))
def test_collinear_points_get_the_halflines_along_their_line(case):
    # Every nonempty prefix and suffix in the order along the line, and
    # nothing else.
    kind, ts, pts = case
    space = gen_geometric(kind, pts)
    halflines = set()
    for cut in set(ts):
        halflines.add(frozenset(i for i, t in enumerate(ts) if t <= cut))
        halflines.add(frozenset(i for i, t in enumerate(ts) if t >= cut))
    assert set(as_sets(space)) == halflines


@st.composite
def coplanar_inputs(draw):
    """(plane coordinates, 3-D points): 1 to 8 integer points (u, v) put
    at base + u * e1 + v * e2 for integer e1, e2 spanning a plane."""
    coord = st.integers(-3, 3)
    uv = draw(st.lists(st.tuples(coord, coord), min_size=1, max_size=8))
    base = draw(st.tuples(coord, coord, coord))
    e1, e2 = draw(st.tuples(st.tuples(coord, coord, coord),
                            st.tuples(coord, coord, coord))
                  .filter(lambda e: any(_cross(*e))))
    return uv, [tuple(b + u * x + v * y for b, x, y in zip(base, e1, e2))
                for u, v in uv]


def _cross(a, b):
    return (a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2],
            a[0] * b[1] - a[1] * b[0])


@GEOMETRIC_SETTINGS
@given(coplanar_inputs())
@example(([(0, 0), (1, 0), (0, 1), (1, 1)],
          [(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0)]))
def test_coplanar_points_get_the_halfplanes_of_their_plane(case):
    uv, pts = case
    assert (gen_geometric("halfspaces3d", pts).ranges
            == gen_geometric("halfplanes", uv).ranges)


# -- random families ----------------------------------------------------------


def test_random_is_deterministic():
    a = gen_random(10, 15, seed=7)
    b = gen_random(10, 15, seed=7)
    assert a.ranges == b.ranges and a.weights == b.weights
    c = gen_random(10, 15, seed=8)
    assert a.ranges != c.ranges  # overwhelmingly likely, frozen by seed


def test_random_respects_parameters():
    sp = gen_random(12, 20, size_law="geometric", weight_law="uniform",
                    seed=3, w_max=5)
    assert sp.n == 12
    assert 0 < len(sp.ranges) <= 20  # dedup may shrink
    assert all(1 <= w <= 5 for w in sp.weights)


def test_random_degenerate_cases():
    sp = gen_random(1, 5, seed=0)
    assert sp.ranges == (1,)  # all ranges collapse to the single point
    assert gen_random(4, 0, seed=0).ranges == ()
    with pytest.raises(InstanceError):
        gen_random(0, 5)
    with pytest.raises(InstanceError):
        gen_random(4, -1)
    with pytest.raises(InstanceError):
        gen_random(4, 2, size_law="zipf")


@pytest.mark.parametrize("kwargs", [
    dict(n=4.0), dict(n=True), dict(num_ranges=2.0), dict(num_ranges=False),
    dict(w_max="8"), dict(w_max=3.0, weight_law="uniform"),
    dict(w_max=0, weight_law="uniform"),
])
def test_random_counts_must_be_true_ints(kwargs):
    args = dict(n=4, num_ranges=3) | kwargs
    name = next(k for k in kwargs if k != "weight_law")
    with pytest.raises(InstanceError, match=f"^{name} must"):
        gen_random(**args)


def test_random_w_max_bounds_only_uniform_weights():
    assert gen_random(4, 3, w_max=0).weights == (1, 1, 1, 1)
    assert set(gen_random(6, 3, weight_law="uniform", w_max=1).weights) == {1}


@pytest.mark.parametrize("kwargs", [
    dict(n=4.0), dict(n=True), dict(dim=2.0), dict(dim=-1), dict(grid=-5),
    dict(grid=10.0),
])
def test_random_points_counts_must_be_true_ints(kwargs):
    args = dict(n=4, dim=2) | kwargs
    with pytest.raises(InstanceError, match=f"^{next(iter(kwargs))} must"):
        random_points(**args)


def test_random_points_grid_and_determinism():
    pts = random_points(20, 2, seed=5)
    assert pts == random_points(20, 2, seed=5)
    assert len(pts) == 20
    assert all(len(p) == 2 for p in pts)
    assert all(0 <= c <= 1000 for p in pts for c in p)
    assert len(set(pts)) == len(pts)  # distinct points
