"""Instance generators: block families, geometric families, random families."""

import json
from fractions import Fraction
from pathlib import Path

import pytest

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

from corpus import DOUBLING_RATIO_CASES, doubling_to_capacity_ratios


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


def test_random_points_grid_and_determinism():
    pts = random_points(20, 2, seed=5)
    assert pts == random_points(20, 2, seed=5)
    assert len(pts) == 20
    assert all(len(p) == 2 for p in pts)
    assert all(0 <= c <= 1000 for p in pts for c in p)
    assert len(set(pts)) == len(pts)  # distinct points
