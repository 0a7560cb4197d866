"""Instance factories: the block lower-bound family, geometric range
spaces over explicit point sets, and seeded random hypergraphs.

Geometric traces are enumerated with exact integer/rational predicates
(orientation and in-circle determinant signs); degenerate inputs produce
both closed-boundary variants, which deduplication then folds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from .core import (
    CapExceededError,
    InstanceError,
    RangeSpace,
    build_range_space,
    stream_rng,
)

DEFAULT_RANGE_CAP = 100_000


@dataclass(frozen=True)
class LowerBoundParams:
    """Block family parameters: l copies per scale, m dyadic scales,
    target dimension d, base block size k."""

    k: int
    d: int
    l: int
    m: int

    def __post_init__(self):
        for name in ("k", "d", "l", "m"):
            if getattr(self, name) < 1:
                raise InstanceError(f"{name} must be >= 1")

    @property
    def n(self) -> int:
        return self.l * self.m * (self.d - 1) + self.l * self.k * (2**self.m - 1)

    @property
    def range_count(self) -> int:
        return sum(
            self.l * math.comb(self.k * 2**i + self.d - 1, self.k * 2**i)
            for i in range(self.m)
        )


def gen_lower_bound_family(params: LowerBoundParams) -> RangeSpace:
    """Uniform-weight family of disjoint blocks: for each scale i < m and
    each of l copies, a fresh block of k*2^i + d - 1 points carrying all
    its (k*2^i)-subsets as ranges.

    At eps = k/n every range qualifies, each block forces d net points,
    and block sizes double across scales. A family of more than
    DEFAULT_RANGE_CAP ranges raises CapExceededError.
    """
    if params.range_count > DEFAULT_RANGE_CAP:
        raise CapExceededError(
            f"block family would carry {params.range_count} ranges, cap {DEFAULT_RANGE_CAP}")
    ranges = []
    base = 0
    for i in range(params.m):
        size = params.k * 2**i
        block = size + params.d - 1
        for _ in range(params.l):
            pts = range(base, base + block)
            for sub in combinations(pts, size):
                ranges.append(list(sub))
            base += block
    assert base == params.n
    name = f"lb-k{params.k}d{params.d}l{params.l}m{params.m}"
    return build_range_space(params.n, [1] * params.n, ranges, name=name)


# -- geometric families -------------------------------------------------------


def _as_coords(points, dim: int) -> list[tuple[Fraction, ...]]:
    out = []
    for p in points:
        if isinstance(p, (int, Fraction)):
            p = (p,)
        t = tuple(Fraction(c) for c in p)
        if len(t) != dim:
            raise InstanceError(
                f"point {p} has {len(t)} coordinates, expected {dim}"
            )
        out.append(t)
    return out


def _orient2(a, b, c) -> Fraction:
    return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])


def _orient3(a, b, c, x) -> Fraction:
    u = (b[0] - a[0], b[1] - a[1], b[2] - a[2])
    v = (c[0] - a[0], c[1] - a[1], c[2] - a[2])
    w = (x[0] - a[0], x[1] - a[1], x[2] - a[2])
    return (
        u[0] * (v[1] * w[2] - v[2] * w[1])
        - u[1] * (v[0] * w[2] - v[2] * w[0])
        + u[2] * (v[0] * w[1] - v[1] * w[0])
    )


def _in_circumcircle(a, b, c, x) -> Fraction:
    """Positive when x is strictly inside the circle through a, b, c
    (taken in counterclockwise order), zero on it."""
    rows = []
    for p in (a, b, c):
        dx, dy = p[0] - x[0], p[1] - x[1]
        rows.append((dx, dy, dx * dx + dy * dy))
    (a0, a1, a2), (b0, b1, b2), (c0, c1, c2) = rows
    return (
        a0 * (b1 * c2 - b2 * c1)
        - a1 * (b0 * c2 - b2 * c0)
        + a2 * (b0 * c1 - b1 * c0)
    )


def _in_diametral(p, q, x) -> bool:
    """Closed disk with segment pq as diameter: (x-p).(x-q) <= 0."""
    return (
        (x[0] - p[0]) * (x[0] - q[0]) + (x[1] - p[1]) * (x[1] - q[1])
    ) <= 0


def gen_geometric(kind: str, points, weights=None, name: str = "") -> RangeSpace:
    """Range space of all distinct nonempty traces of a geometric family.

    kinds: intervals (1d), halfplanes (2d), disks (2d), halfspaces3d (3d).
    Coordinates are exact rationals; both closed and open boundary
    variants are enumerated so degenerate inputs stay canonical.
    """
    dims = {"intervals": 1, "halfplanes": 2, "disks": 2, "halfspaces3d": 3}
    if kind not in dims:
        raise InstanceError(f"unknown geometric kind: {kind}")
    pts = _as_coords(points, dims[kind])
    n = len(pts)
    if n < 1:
        raise InstanceError("need at least one point")
    if weights is None:
        weights = [1] * n
    masks: set[int] = set()
    full = (1 << n) - 1
    masks.add(full)

    if kind == "intervals":
        # One point mask per distinct coordinate, in ascending order; an
        # interval's trace is the OR of a run of them.
        at: dict[Fraction, int] = {}
        for i, p in enumerate(pts):
            at[p[0]] = at.get(p[0], 0) | 1 << i
        runs = [at[v] for v in sorted(at)]
        for a in range(len(runs)):
            m = 0
            for run in runs[a:]:
                m |= run
                masks.add(m)

    elif kind == "halfplanes":
        for a in range(n):
            for b in range(n):
                if a == b or pts[a] == pts[b]:
                    continue
                closed = opened = 0
                for i, x in enumerate(pts):
                    s = _orient2(pts[a], pts[b], x)
                    if s >= 0:
                        closed |= 1 << i
                    if s > 0:
                        opened |= 1 << i
                masks.add(closed)
                masks.add(opened)

    elif kind == "disks":
        for i, p in enumerate(pts):
            m = 0
            for j, q in enumerate(pts):
                if q == p:
                    m |= 1 << j
            masks.add(m)
        for a, b in combinations(range(n), 2):
            if pts[a] == pts[b]:
                continue
            m = 0
            for i, x in enumerate(pts):
                if _in_diametral(pts[a], pts[b], x):
                    m |= 1 << i
            masks.add(m)
        for a, b, c in combinations(range(n), 3):
            sgn = _orient2(pts[a], pts[b], pts[c])
            if sgn == 0:
                continue
            ta, tb, tc = (
                (pts[a], pts[b], pts[c]) if sgn > 0 else (pts[a], pts[c], pts[b])
            )
            closed = opened = 0
            for i, x in enumerate(pts):
                s = _in_circumcircle(ta, tb, tc, x)
                if s >= 0:
                    closed |= 1 << i
                if s > 0:
                    opened |= 1 << i
            masks.add(closed)
            masks.add(opened)

    else:  # halfspaces3d
        for a, b, c in combinations(range(n), 3):
            if _orient2_degenerate3(pts[a], pts[b], pts[c]):
                continue
            closed = opened = 0
            neg_closed = neg_open = 0
            for i, x in enumerate(pts):
                s = _orient3(pts[a], pts[b], pts[c], x)
                if s >= 0:
                    closed |= 1 << i
                if s > 0:
                    opened |= 1 << i
                if s <= 0:
                    neg_closed |= 1 << i
                if s < 0:
                    neg_open |= 1 << i
            masks.update((closed, opened, neg_closed, neg_open))

    return build_range_space(n, list(weights), masks, name=name or f"{kind}{n}")


def _orient2_degenerate3(a, b, c) -> bool:
    """True when a, b, c are collinear in 3-space (cross product zero)."""
    u = (b[0] - a[0], b[1] - a[1], b[2] - a[2])
    v = (c[0] - a[0], c[1] - a[1], c[2] - a[2])
    cross = (
        u[1] * v[2] - u[2] * v[1],
        u[2] * v[0] - u[0] * v[2],
        u[0] * v[1] - u[1] * v[0],
    )
    return cross == (0, 0, 0)


# -- random instances ----------------------------------------------------------


def gen_random(
    n: int,
    num_ranges: int,
    size_law: str = "uniform",
    weight_law: str = "ones",
    seed: int = 0,
    w_max: int = 8,
    name: str = "",
) -> RangeSpace:
    """Seeded random hypergraph; deterministic function of all arguments.

    size_law: uniform (1..n) or geometric (halving, truncated at n).
    weight_law: ones, or uniform integers 1..w_max.
    """
    if n < 1:
        raise InstanceError("n must be >= 1")
    if num_ranges < 0:
        raise InstanceError("num_ranges must be >= 0")
    rng = stream_rng(seed, "gen-random", n, num_ranges, size_law, weight_law)
    if weight_law == "ones":
        weights = [1] * n
    elif weight_law == "uniform":
        weights = [rng.randint(1, w_max) for _ in range(n)]
    else:
        raise InstanceError(f"unknown weight_law: {weight_law}")
    population = list(range(n))
    ranges = []
    for _ in range(num_ranges):
        if size_law == "uniform":
            size = rng.randint(1, n)
        elif size_law == "geometric":
            size = 1
            while size < n and rng.random() < 0.5:
                size *= 2
            size = min(size, n)
        else:
            raise InstanceError(f"unknown size_law: {size_law}")
        ranges.append(sorted(rng.sample(population, size)))
    return build_range_space(
        n, weights, ranges,
        name=name or f"random-n{n}r{num_ranges}s{seed}",
    )


def random_points(
    n: int, dim: int, seed: int = 0, grid: int = 1000
) -> list[tuple[int, ...]]:
    """Seeded integer grid points (deterministic, exact coordinates)."""
    rng = stream_rng(seed, "gen-points", n, dim, grid)
    return [
        tuple(rng.randint(0, grid) for _ in range(dim)) for _ in range(n)
    ]
