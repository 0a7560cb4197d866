"""Instance factories: the block lower-bound family, geometric range
spaces over explicit point sets, and seeded random hypergraphs.

Geometric traces are enumerated with exact integer predicates: rational
coordinates are first scaled to one integer grid. An interval's trace is
a run of the points in coordinate order; every other trace is the sign
pattern of one linear form over the points: a halfplane's or halfspace's
normal, or the plane through three points lifted to the paraboloid
z = x^2 + y^2 for their circumcircle. Degenerate inputs produce both the
closed and the open variant, which deduplication then folds; the family
is ordered canonically by build_range_space.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, combinations_with_replacement
from operator import mul

from .core import (
    CapExceededError,
    InstanceError,
    RangeSpace,
    _items,
    build_range_space,
    stream_rng,
)

DEFAULT_RANGE_CAP = 100_000

# The geometric kinds gen_geometric builds, each with its point dimension.
GEO_DIMS = {"intervals": 1, "halfplanes": 2, "disks": 2, "halfspaces3d": 3}


def _count(name: str, value, least: int | None) -> None:
    """value must be a true int (not a bool), and at least least unless
    that is None."""
    if type(value) is not int or (least is not None and value < least):
        at_least = "" if least is None else f" >= {least}"
        raise InstanceError(f"{name} must be an integer{at_least}, got {value!r}")


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
            _count(name, getattr(self, name), 1)

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


def _is_coord(c) -> bool:
    return type(c) is int or isinstance(c, Fraction)


def _as_coords(points, dim: int) -> list[tuple[int, ...]]:
    """points as dim-tuples of ints on one grid: every coordinate times
    the lcm of all denominators. Each predicate below is a homogeneous
    polynomial in the coordinates, so a positive common scale keeps
    every sign and every equality. A coordinate is an int (not a bool)
    or a Fraction; anything else is an InstanceError."""
    rows = []
    for p in _items(points, "points"):
        t = (p,) if _is_coord(p) else _items(p, "a point")
        if len(t) != dim or not all(map(_is_coord, t)):
            raise InstanceError(
                f"point {p!r} must have {dim} int or Fraction coordinates")
        rows.append(t)
    scale = math.lcm(*(c.denominator for t in rows for c in t))
    return [tuple(c.numerator * (scale // c.denominator) for c in t)
            for t in rows]


def _normal(face) -> tuple[int, ...]:
    """Normal of the line through 2-D points p, q (q - p turned
    counterclockwise) or of the plane through 3-D points a, b, c
    ((b - a) x (c - a)); zero when they span no line or plane."""
    if len(face) == 2:
        (p0, p1), (q0, q1) = face
        return (p1 - q1, q0 - p0)
    a, b, c = face
    u0, u1, u2 = b[0] - a[0], b[1] - a[1], b[2] - a[2]
    v0, v1, v2 = c[0] - a[0], c[1] - a[1], c[2] - a[2]
    return (u1 * v2 - u2 * v1, u2 * v0 - u0 * v2, u0 * v1 - u1 * v0)


def _side_values(nrm, base, pts) -> list[int]:
    """nrm.(x - base) for every point x: positive on the side nrm points
    to, zero on the boundary."""
    off = sum(map(mul, nrm, base))
    return [sum(map(mul, nrm, x)) - off for x in pts]


def _sign_masks(signs) -> tuple[int, int]:
    """(closed, open): the masks of the positions whose sign is >= 0 and
    > 0."""
    closed = opened = 0
    for i, s in enumerate(signs):
        if s >= 0:
            closed |= 1 << i
            if s > 0:
                opened |= 1 << i
    return closed, opened


def _runs(pts) -> list[int]:
    """One point mask per distinct 1-D coordinate, in ascending order."""
    at: dict[int, int] = {}
    for i, (x,) in enumerate(pts):
        at[x] = at.get(x, 0) | 1 << i
    return [at[v] for v in sorted(at)]


def _hull_coords(pts) -> list[tuple[int, ...]]:
    """pts projected onto the pivot axes of their difference vectors from
    pts[0], found by fraction-free elimination. The projection is one to
    one and affine on the points' affine hull, so it maps the hull's
    halfspaces onto those of the projected space; points spanning their
    whole space come back unchanged."""
    rows = [[c - b for c, b in zip(p, pts[0])] for p in pts[1:]]
    axes = []
    for axis in range(len(pts[0])):
        pivot = next((r for r in rows if r[axis]), None)
        if pivot is None:
            continue
        axes.append(axis)
        rows = [[a * pivot[axis] - b * r[axis] for a, b in zip(r, pivot)]
                for r in rows if r is not pivot]
    if len(axes) == len(pts[0]):
        return pts
    return [tuple(p[a] for a in axes) for p in pts]


def gen_geometric(kind: str, points, weights=None, name: str = "") -> RangeSpace:
    """Range space of all distinct nonempty traces of a geometric family.

    kinds: intervals (1d), halfplanes (2d), disks (2d), halfspaces3d (3d).
    Coordinates are exact rationals, scaled to one integer grid; both
    closed and open boundary variants are enumerated so degenerate
    inputs stay canonical. Halfplanes and halfspaces are enumerated in
    the dimension of the points' affine hull (_hull_coords): a halfspace
    meets the hull in one of the hull's own halfspaces, or in all of it,
    so collinear points get the halflines along their line and coplanar
    3-D points the halfplanes of their plane.
    """
    if kind not in GEO_DIMS:
        raise InstanceError(f"unknown geometric kind: {kind}")
    pts = _as_coords(points, GEO_DIMS[kind])
    n = len(pts)
    if n < 1:
        raise InstanceError("need at least one point")
    if weights is None:
        weights = [1] * n
    full = (1 << n) - 1
    masks = {full}

    if kind == "intervals":
        # An interval's trace is the OR of a run of the point masks.
        runs = _runs(pts)
        for a in range(len(runs)):
            m = 0
            for run in runs[a:]:
                m |= run
                masks.add(m)

    elif kind == "disks":
        # Disks with a segment pq as diameter, (x - p).(x - q) <= 0, closed
        # only; p == q gives the points at p.
        for (p0, p1), (q0, q1) in combinations_with_replacement(pts, 2):
            masks.add(_sign_masks([
                (p0 - x0) * (x0 - q0) + (p1 - x1) * (x1 - q1) for x0, x1 in pts
            ])[0])
        # Circumcircles: lifted to z = x^2 + y^2, the disk through three
        # points that are not collinear holds the points below the plane
        # through their lifts.
        lifted = [(x0, x1, x0 * x0 + x1 * x1) for x0, x1 in pts]
        for face in combinations(lifted, 3):
            nrm = _normal(face)
            if nrm[2] == 0:
                continue
            if nrm[2] > 0:
                nrm = tuple(-c for c in nrm)
            masks.update(_sign_masks(_side_values(nrm, face[0], lifted)))

    else:  # halfplanes, halfspaces3d, in the dimension of the points' hull
        flat = _hull_coords(pts)
        dim = len(flat[0])
        if dim == 1:
            # On a line a halfspace is a halfline: a prefix or a suffix
            # of the runs.
            prefix = 0
            for run in _runs(flat)[:-1]:
                prefix |= run
                masks.update((prefix, full ^ prefix))
        elif dim > 1:
            # Both sides of every boundary through dim of the points.
            for face in combinations(flat, dim):
                nrm = _normal(face)
                if any(nrm):
                    closed, opened = _sign_masks(_side_values(nrm, face[0], flat))
                    masks.update((closed, opened, full ^ opened, full ^ closed))

    return build_range_space(n, list(weights), masks, name=name or f"{kind}{n}")


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
    _count("n", n, 1)
    _count("num_ranges", num_ranges, 0)
    _count("w_max", w_max, 1 if weight_law == "uniform" else None)
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
    _count("n", n, 0)
    _count("dim", dim, 0)
    _count("grid", grid, 0)
    rng = stream_rng(seed, "gen-points", n, dim, grid)
    return [
        tuple(rng.randint(0, grid) for _ in range(dim)) for _ in range(n)
    ]
