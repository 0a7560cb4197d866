"""Combinatorial and measure-theoretic complexity of a range space.

Exact modes enumerate under a size cap or a node budget; past it,
sampled estimates are flagged inexact unless they reach a ceiling no
value can beat. Suprema over a continuous scale parameter are finite
maxima over breakpoint values where the objective can change, so every
returned rational is exact.

The exact enumerations over point sets (pi, phi, VC) walk the sets depth
first and keep the partition of the ranges by their trace on the current
set, one bitmask over range indices per class. Adding a point splits each
class by that point's incidence column (RangeSpace.incidence), so a step
costs O(#distinct traces) rather than a pass over all ranges, and a
subtree is cut only by exact bounds on the traces it can still reach.
Exact doubling computes each pairwise distance once and sweeps the
breakpoints upward, deleting far-graph edges as the threshold passes
them. Data with O(m^2) entries lives in typed arrays, never in Python
lists or per-pair big ints, because it sets the profile's peak memory.
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .core import (
    CapExceededError,
    RangeSpace,
    TheoremViolationError,
    ceil_log2,
    incidence_columns,
    mask_of,
    points_of,
    stream_rng,
)
from .packing import colour_bound, max_clique

VC_NODES = 300_000
DEFAULT_ENUM_CAP = 300_000
DEFAULT_STAR_CAP = 22
# Random draws of the sampled estimates: restarts of the VC and the star
# greedy, point sets drawn for pi and phi.
ESTIMATE_DRAWS = 2000
STAR_DRAWS = 500


@dataclass(frozen=True)
class VCResult:
    value: int
    exact: bool
    witness: tuple[int, ...]


def _split(classes: list[int], col: int) -> tuple[list[int], list[int]]:
    """One refinement step of a trace partition.

    Each class is a bitmask over range indices whose ranges have one
    common trace on the current point set Y. Adding a point x whose
    incidence column is col splits a class S into S & col (the ranges
    containing x) and S & ~col; empty parts are dropped. Returns the two
    lists (inside, outside). Y is shattered after the step iff every
    class split, and the number of distinct traces is the class count.
    """
    inside: list[int] = []
    outside: list[int] = []
    for s in classes:
        a = s & col
        if a:
            inside.append(a)
            if a != s:
                outside.append(s ^ a)
        else:
            outside.append(s)
    return inside, outside


def _splits_all(classes: list[int], col: int) -> bool:
    """Whether adding the point with incidence col splits every class,
    i.e. whether Y + x is shattered when Y is."""
    for s in classes:
        a = s & col
        if not a or a == s:
            return False
    return True


def vc_of_masks(masks, n: int, cap: int | None = None) -> VCResult:
    """Exact dimension of an arbitrary family of subset masks on n points.

    Walks the shattered sets depth first, adding points in increasing
    order and refining the trace partition of the family by each new
    point; shattering is hereditary, so only shattered sets are extended.
    A set of size k needs 2^k classes, so no set grows past log2 of the
    family size. The witness is the numerically smallest mask among the
    largest shattered sets. The empty family has dimension -1 by
    convention. A walk that would visit more than VC_NODES sets raises
    CapExceededError carrying the nodes spent. cap is ignored: the node
    budget, not the instance size, decides whether the walk finishes.
    """
    ranges = tuple(masks)
    if not ranges:
        return VCResult(-1, True, ())
    cols = incidence_columns(ranges, n)
    m = len(ranges)
    best, witness = 0, 0
    nodes = 0

    def rec(classes: list[int], y: int, size: int, start: int) -> None:
        nonlocal best, witness, nodes
        if nodes == VC_NODES:
            raise CapExceededError(
                f"exact VC search exceeded its budget of {nodes} nodes",
                spent=nodes,
            )
        nodes += 1
        if size > best or (size == best and y < witness):
            best, witness = size, y
        if 2 * len(classes) > m or size + n - start < best:
            return
        for x in range(start, n):
            col = cols[x]
            if _splits_all(classes, col):
                inside, outside = _split(classes, col)
                rec(inside + outside, y | 1 << x, size + 1, x + 1)

    rec([(1 << m) - 1], 0, 0, 0)
    return VCResult(best, True, points_of(witness))


def vc_dimension(
    space: RangeSpace, mode: str = "exact", seed: int = 0
) -> VCResult:
    """Largest cardinality of a shattered point set.

    exact mode enumerates via vc_of_masks; lower_bound mode does
    ESTIMATE_DRAWS seeded greedy restarts and flags the result inexact.
    Each restart grows one trace partition point by point; restarts stop
    once one reaches min(n, log2 of the family size), which no set can
    exceed, and that value is exact.
    """
    ranges = space.ranges
    if not ranges:
        return VCResult(-1, True, ())
    if mode == "exact":
        return vc_of_masks(ranges, space.n)
    if mode != "lower_bound":
        raise ValueError(f"unknown vc mode: {mode}")
    cols = space.incidence()
    full = (1 << len(ranges)) - 1
    top = min(space.n, len(ranges).bit_length() - 1)
    rng = stream_rng(seed, "vc")
    best, best_mask = 0, 0
    for _ in range(ESTIMATE_DRAWS):
        order = list(range(space.n))
        rng.shuffle(order)
        classes, y, size = [full], 0, 0
        for x in order:
            if size == top:
                break
            if _splits_all(classes, cols[x]):
                inside, outside = _split(classes, cols[x])
                classes = inside + outside
                y, size = y | 1 << x, size + 1
        if size > best:
            best, best_mask = size, y
            if best == top:
                break
    return VCResult(best, best == top, points_of(best_mask))


def vc_or_lower_bound(space: RangeSpace, seed: int = 0) -> VCResult:
    """Exact dimension, or the seeded sampled lower bound (flagged
    inexact below its ceiling) when the exact walk runs out of nodes."""
    try:
        return vc_dimension(space)
    except CapExceededError:
        return vc_dimension(space, mode="lower_bound", seed=seed)


@dataclass(frozen=True)
class PiResult:
    value: int
    exact: bool


def _max_traces(space: RangeSpace, y: int) -> int:
    """Exact pi(y) for y >= 1: the most trace classes over y-point sets.

    Depth first over the y-subsets in combinations order, refining the
    partition by each added point. A node with c classes and k points to
    add reaches at most min(c * 2^k, m) traces, so it is pruned when that
    cannot beat the incumbent, and the search stops at min(2^y, m).
    """
    m = len(space.ranges)
    if not m:
        return 0
    cols = space.incidence()
    n = space.n
    top = min(m, 1 << y)
    best = 0

    def rec(classes: list[int], start: int, k: int) -> bool:
        nonlocal best
        c = len(classes)
        if min(c << k, m) <= best:
            return False
        for x in range(start, n - k + 1):
            col = cols[x]
            if k == 1:
                count = c
                for s in classes:
                    a = s & col
                    if a and a != s:
                        count += 1
                if count > best:
                    best = count
                    if best == top:
                        return True
            else:
                inside, outside = _split(classes, col)
                if rec(inside + outside, x + 1, k - 1):
                    return True
        return False

    rec([(1 << m) - 1], 0, y)
    return best


def projection_function(space: RangeSpace, y: int, seed: int = 0) -> PiResult:
    """Max number of distinct traces over point sets of size y.

    Exact when C(n, y) fits under DEFAULT_ENUM_CAP, otherwise a sampled
    lower bound, which is exact once it reaches min(2^y, |R|).
    """
    if y < 0 or y > space.n:
        raise ValueError(f"projection size {y} outside 0..{space.n}")
    if y == 0:
        return PiResult(1 if space.ranges else 0, True)
    if math.comb(space.n, y) <= DEFAULT_ENUM_CAP:
        return PiResult(_max_traces(space, y), True)
    rng = stream_rng(seed, "pi", y)
    top = min(1 << y, len(space.ranges))
    best = 0
    population = list(range(space.n))
    for _ in range(ESTIMATE_DRAWS):
        ymask = mask_of(rng.sample(population, y))
        best = max(best, len({r & ymask for r in space.ranges}))
        if best == top:
            break
    return PiResult(best, best == top)


@dataclass(frozen=True)
class SauerRow:
    y: int
    pi: int
    binom_sum: int
    power_bound: float


@dataclass(frozen=True)
class SauerReport:
    d: int
    rows: tuple[SauerRow, ...]


def sauer_check(space: RangeSpace, d: int | None = None) -> SauerReport:
    """Certify pi(y) <= sum_{i<=d} C(y,i) <= (e*y/d)^d for y = d..n.

    Needs the exact dimension and exact projection values; raises
    TheoremViolationError on any failure (which would mean a bug).
    """
    if d is None:
        d = vc_dimension(space).value
    if d < 0:
        return SauerReport(d, ())
    total = sum(math.comb(space.n, y) for y in range(d, space.n + 1))
    if total > DEFAULT_ENUM_CAP:
        raise CapExceededError(f"sauer_check needs {total} subsets, over the cap")
    rows = []
    for y in range(d, space.n + 1):
        pi = projection_function(space, y).value
        bsum = sum(math.comb(y, i) for i in range(d + 1))
        if pi > bsum:
            raise TheoremViolationError(
                f"shatter bound failed: pi({y})={pi} > {bsum} at d={d}"
            )
        if d >= 1 and y >= 1:
            power = (math.e * y / d) ** d
            if bsum > power * (1 + 1e-9):
                raise TheoremViolationError(
                    f"binomial-sum bound failed at y={y}, d={d}: {bsum} > {power}"
                )
        else:
            power = 1.0
        rows.append(SauerRow(y, pi, bsum, power))
    return SauerReport(d, tuple(rows))


# -- capacity ---------------------------------------------------------------

_ONE = Fraction(1)


def alexander_capacity(space: RangeSpace, eps: Fraction) -> Fraction:
    """sup over scales eps0 in [eps, 1] of P(union of ranges with
    P <= eps0) / eps0, clamped below at 1.

    The numerator only changes at range measures, and between changes the
    ratio decreases in eps0, so the max over {eps} + {P(R) >= eps} is the
    supremum. The range measures >= eps are a suffix of the space's
    capacity table, which holds their maximum ratio, so this is two
    bisects and at most one Fraction.
    """
    eps = Fraction(eps)
    if not 0 < eps <= 1:
        raise ValueError(f"eps must be in (0, 1], got {eps}")
    xs, nums, dens = space.capacity_table()
    a, b, w = eps.numerator, eps.denominator, space.total_weight
    # The ratio at eps itself: the union of ranges of weight <= eps*w,
    # over eps*w.
    num = space.union_prefix[bisect_right(space.sorted_weights, a * w // b)] * b
    den = a * w
    k = bisect_left(xs, -(-a * w // b))
    if k < len(xs) and nums[k] * den > num * dens[k]:
        num, den = nums[k], dens[k]
    return Fraction(num, den) if num > den else _ONE


def capacity_levels(eps: Fraction) -> tuple[int, tuple[Fraction, ...]]:
    """Dyadic scales: z = 1 + ceil(log2(1/eps)) and eps_i = min(2^i eps, 1)
    for i = 0..z."""
    eps = Fraction(eps)
    if not 0 < eps <= 1:
        raise ValueError(f"eps must be in (0, 1], got {eps}")
    return _capacity_levels(eps)


@lru_cache(maxsize=256)
def _capacity_levels(eps: Fraction) -> tuple[int, tuple[Fraction, ...]]:
    # Memoised: a sweep asks for the same few scales thousands of times.
    # The value is a tuple of immutables, so no caller can alter it.
    z = 1 + ceil_log2(1 / eps)
    return z, tuple(min(Fraction(2) ** i * eps, _ONE) for i in range(z + 1))


def capacity_vector(space: RangeSpace, eps: Fraction) -> list[Fraction]:
    """tau_i = capacity at scale min(2^i eps, 1) for i = 1..z."""
    z, levels = capacity_levels(eps)
    return [alexander_capacity(space, levels[i]) for i in range(1, z + 1)]


# -- doubling ---------------------------------------------------------------


@dataclass(frozen=True)
class DoublingResult:
    """D(eps) or a certified bracket on it. lower is the size of members,
    a packing at scale eps0 inside the family of measure <= 2*eps0; upper
    is the least certified ceiling (a float, equal to lower in exact
    mode)."""

    mode: str  # "exact" or "bracket"
    lower: int
    upper: float
    eps0: Fraction | None = None
    members: tuple[int, ...] = ()

    @property
    def value(self) -> int:
        if self.mode != "exact":
            raise ValueError("no single exact value in bracket mode")
        return self.lower


def _eligible_count(space: RangeSpace, eps0: Fraction) -> int:
    """How many ranges have measure <= 2 * eps0; they are the first ones
    of space.measure_order."""
    w = space.total_weight
    return bisect_right(
        space.sorted_weights, 2 * eps0.numerator * w // eps0.denominator
    )


def doubling_constant(
    space: RangeSpace,
    eps: Fraction,
    mode: str = "auto",
    range_cap: int | None = None,
) -> DoublingResult:
    """Largest packing at scale eps0 inside the family of measure <= 2*eps0,
    maximized over eps0 in [eps, 1], as one sweep over the breakpoints.

    Between breakpoints (half-measures and pairwise distances) eligibility
    is constant and separation only loses pairs, so a max clique of the
    far graph at every breakpoint gives D exactly. Ranges are ranked by
    (measure, index); at scale eps0 the eligible ranges are a rank prefix
    and the far graph keeps the pairs at integer distance >= ceil(eps0*W).
    Each distance is computed once; pair codes p * m + q go into one typed
    array per distinct distance (O(m^2) data never lives in Python lists),
    and the sweep deletes each bucket's edges from one adjacency as the
    threshold passes it. A breakpoint with no more eligible ranges than
    the incumbent is skipped, since it cannot beat it.

    When a clique search runs out of packing.DEFAULT_CLIQUE_NODES, exact
    mode raises. Auto mode keeps the search's incumbent as the lower end
    and stops searching: the tripped breakpoint and every later one with
    more eligible ranges than the current upper end add a greedy
    colouring's class count to the upper end, and the rest are bounded by
    their eligible count. The bracket is labelled exact when its ends meet.
    range_cap is accepted and ignored, for callers that still pass it.
    """
    eps = Fraction(eps)
    if not 0 < eps <= 1:
        raise ValueError(f"eps must be in (0, 1], got {eps}")
    if mode not in ("auto", "exact"):
        raise ValueError(f"unknown doubling mode: {mode}")
    sorted_idx = space.measure_order
    m = len(sorted_idx)
    w = space.total_weight
    ranked = [space.ranges[i] for i in sorted_idx]
    typecode = "i" if m * m < 1 << 31 else "q"
    by_dist: dict[int, array] = {}
    for p in range(m):
        rp = ranked[p]
        code = p * m + p
        for d in map(space.mask_weight, [rp ^ r for r in ranked[p + 1:]]):
            code += 1
            bucket = by_dist.get(d)
            if bucket is None:
                bucket = by_dist[d] = array(typecode)
            bucket.append(code)
    values = sorted(by_dist)

    candidates = {eps}
    for x in set(space.sorted_weights):
        h = Fraction(x, 2 * w)
        if eps <= h <= 1:
            candidates.add(h)
    lo = space.ceil_weight(eps)
    candidates.update(Fraction(v, w) for v in values if lo <= v <= w)

    adj = [((1 << m) - 1) ^ (1 << p) for p in range(m)]
    removed = 0  # buckets whose edges are already gone
    best, best_eps0, best_members = 0, None, ()
    upper = None  # set once a clique search has run out of budget
    for eps0 in sorted(candidates):
        j = _eligible_count(space, eps0)
        if j <= (best if upper is None else upper):
            continue
        threshold = space.ceil_weight(eps0)
        while removed < len(values) and values[removed] < threshold:
            for code in by_dist.pop(values[removed]):
                p, q = divmod(code, m)
                adj[p] ^= 1 << q
                adj[q] ^= 1 << p
            removed += 1
        low = (1 << j) - 1
        far = [adj[p] & low for p in range(j)]
        if upper is None:
            try:
                size, members = max_clique(far, lower_bound=best)
            except CapExceededError as exc:
                if mode == "exact":
                    raise
                size, members = len(exc.members), exc.members
                upper = best
            if size > best:
                best = size
                best_eps0 = eps0
                best_members = tuple(sorted(sorted_idx[v] for v in members))
        if upper is not None:
            upper = max(upper, colour_bound(far))
    if upper is None or upper == best:
        return DoublingResult("exact", best, float(best), best_eps0, best_members)
    return DoublingResult("bracket", best, float(upper), best_eps0, best_members)


# -- shallow cells ----------------------------------------------------------


@dataclass(frozen=True)
class ShallowResult:
    value: int
    exact: bool


def _max_shallow(space: RangeSpace, y: int, l: int) -> int:
    """Exact shallow-cell count for a nonempty family: the most trace
    classes with trace size <= l over point sets of size <= y.

    Depth first over the point sets, keeping the classes grouped by trace
    size. A trace never shrinks as Y grows, so classes past size l are
    dropped; each kept class can split into at most 2^k parts with k
    points to go, and there are never more than m traces.
    """
    cols = space.incidence()
    n, m = space.n, len(space.ranges)
    best = 0

    def rec(levels: list[list[int]], start: int, k: int) -> bool:
        # levels[s]: classes whose common trace on Y has s points
        nonlocal best
        count = sum(map(len, levels))
        if count > best:
            best = count
            if best == m:
                return True
        if not k or min(count << k, m) <= best:
            return False
        for x in range(start, n):
            col = cols[x]
            new, carry = [], []
            for classes in levels:
                inside, outside = _split(classes, col)
                new.append(carry + outside)
                carry = inside
            if len(new) <= l:
                new.append(carry)
            if rec(new, x + 1, k - 1):
                return True
        return False

    rec([[(1 << m) - 1]], 0, y)
    return best


def shallow_cell(
    space: RangeSpace,
    y: int,
    l: int,
    cap: int | None = None,
    seed: int = 0,
) -> ShallowResult:
    """Max over point sets Y with |Y| <= y of the number of distinct traces
    of size at most l. Trace size counts points, not weight; the empty
    trace has size 0. y beyond n is clamped to n.

    The max runs over |Y| <= y rather than exactly y so the result is
    monotone in y (padding a point set can destroy small traces, so the
    exact-size max is not monotone). Exact when the point sets number at
    most cap (default DEFAULT_ENUM_CAP), otherwise a sampled lower bound,
    which is exact once it reaches |R|.
    """
    if y < 0 or l < 0:
        raise ValueError("shallow_cell needs y >= 0 and l >= 0")
    y = min(y, space.n)
    if not space.ranges:
        return ShallowResult(0, True)
    if cap is None:
        cap = DEFAULT_ENUM_CAP
    total = sum(math.comb(space.n, s) for s in range(y + 1))
    if total <= cap:
        return ShallowResult(_max_shallow(space, y, l), True)
    rng = stream_rng(seed, "shallow", y, l)
    top = len(space.ranges)
    best = 0
    population = list(range(space.n))
    for _ in range(ESTIMATE_DRAWS):
        s = rng.randint(0, y)
        ymask = mask_of(rng.sample(population, s))
        traces = {r & ymask for r in space.ranges}
        best = max(best, sum(1 for t in traces if t.bit_count() <= l))
        if best == top:
            break
    return ShallowResult(best, best == top)


# -- star number ------------------------------------------------------------


@dataclass(frozen=True)
class StarResult:
    lower: int
    upper: int
    exact: bool
    witness: tuple[int, ...] = ()


def star_number(
    space: RangeSpace, cap: int | None = None, seed: int = 0
) -> StarResult:
    """Largest s admitting points x_1..x_s and ranges R_1..R_s with
    R_i meeting {x_1..x_s} exactly in {x_i}.

    Feasibility only shrinks as points are added, so depth-first search
    with remaining-count pruning is exact up to cap points (default
    DEFAULT_STAR_CAP); beyond it a seeded greedy gives a lower bound with
    trivial upper n, flagged inexact unless it reaches n.
    """
    n = space.n
    if not space.ranges:
        return StarResult(0, 0, True, ())
    point_ranges = space.incidence()

    def try_add(chosen: list[int], wits: list[int], x: int):
        """Witnesses after adding x, or None if infeasible."""
        px = point_ranges[x]
        new_wits = []
        for xi, wit in zip(chosen, wits):
            wit &= ~px
            if not wit:
                return None
            new_wits.append(wit)
        mine = px
        for xi in chosen:
            mine &= ~point_ranges[xi]
        if not mine:
            return None
        new_wits.append(mine)
        return new_wits

    if n <= (DEFAULT_STAR_CAP if cap is None else cap):
        best = 0
        best_set: tuple[int, ...] = ()

        def rec(start: int, chosen: list[int], wits: list[int]) -> None:
            nonlocal best, best_set
            if len(chosen) > best:
                best = len(chosen)
                best_set = tuple(chosen)
            for x in range(start, n):
                if len(chosen) + (n - x) <= best:
                    break
                nw = try_add(chosen, wits, x)
                if nw is not None:
                    chosen.append(x)
                    rec(x + 1, chosen, nw)
                    chosen.pop()

        rec(0, [], [])
        return StarResult(best, best, True, best_set)

    rng = stream_rng(seed, "star")
    best = 0
    best_set = ()
    for _ in range(STAR_DRAWS):
        order = list(range(n))
        rng.shuffle(order)
        chosen: list[int] = []
        wits: list[int] = []
        for x in order:
            nw = try_add(chosen, wits, x)
            if nw is not None:
                chosen.append(x)
                wits = nw
        if len(chosen) > best:
            best = len(chosen)
            best_set = tuple(sorted(chosen))
            if best == n:
                break
    return StarResult(best, n, best == n, best_set)


# -- profile ----------------------------------------------------------------


@dataclass(frozen=True)
class ComplexityProfile:
    name: str
    eps: Fraction
    d: VCResult
    tau: Fraction
    tau_vector: tuple[Fraction, ...]
    z: int
    doubling: DoublingResult
    pi: tuple[tuple[int, int, bool], ...]  # (y, value, exact)
    phi: tuple[tuple[int, int, int, bool], ...]  # (y, l, value, exact)
    star: StarResult

    def to_dict(self) -> dict:
        from .core import format_rational as fr

        return {
            "name": self.name,
            "eps": fr(self.eps),
            "vc": {"value": self.d.value, "exact": self.d.exact,
                   "witness": list(self.d.witness)},
            "tau": fr(self.tau),
            "tau_vector": [fr(t) for t in self.tau_vector],
            "z": self.z,
            "doubling": {
                "mode": self.doubling.mode,
                "lower": self.doubling.lower,
                "upper": round(self.doubling.upper, 6),
                "eps0": fr(self.doubling.eps0) if self.doubling.eps0 is not None else None,
            },
            "pi": [{"y": y, "value": v, "exact": e} for y, v, e in self.pi],
            "phi": [{"y": y, "l": l, "value": v, "exact": e}
                    for y, l, v, e in self.phi],
            "star": {"lower": self.star.lower, "upper": self.star.upper,
                     "exact": self.star.exact},
        }


def compute_profile(
    space: RangeSpace,
    eps: Fraction,
    pi_max_y: int = 8,
    seed: int = 0,
) -> ComplexityProfile:
    """One-stop profile at scale eps, exact where the module's caps and
    budgets permit."""
    eps = Fraction(eps)
    d = vc_or_lower_bound(space, seed=seed)
    tau = alexander_capacity(space, eps)
    tau_vec = tuple(capacity_vector(space, eps))
    z, _ = capacity_levels(eps)
    doubling = doubling_constant(space, eps)
    pi_rows = []
    for y in range(0, min(space.n, pi_max_y) + 1):
        r = projection_function(space, y, seed=seed)
        pi_rows.append((y, r.value, r.exact))
    phi_rows = []
    if d.value >= 1 and d.exact:
        y_phi = min(math.ceil(8 * d.value * tau), space.n)
        l_phi = min(24 * d.value, space.n)
        r = shallow_cell(space, y_phi, l_phi, seed=seed)
        phi_rows.append((y_phi, l_phi, r.value, r.exact))
    star = star_number(space, seed=seed)
    return ComplexityProfile(
        name=space.name, eps=eps, d=d, tau=tau, tau_vector=tau_vec, z=z,
        doubling=doubling, pi=tuple(pi_rows), phi=tuple(phi_rows), star=star,
    )
