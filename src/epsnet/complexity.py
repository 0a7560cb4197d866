"""Combinatorial and measure-theoretic complexity of a range space.

Every estimate is a core.Bound, the answer of every exact search: what
the search found and the ceiling it already knows, exact when the two
meet. The VC, pi, phi and star walks and the clique search count their
nodes on a core.Budget of work done, not a cap on instance size.
Budget.run alone catches a trip, past the budget or Python's recursion
limit; after one, the estimate returns a bracket whose lower end is the
incumbent or a sampled estimate. Only sauer_check, a certificate that
needs exact values, turns a bracket into a CapExceededError. Suprema
over a continuous scale parameter are finite maxima over breakpoints
where the objective can change, so every returned rational is exact.

The exact enumerations over point sets (pi, phi, VC) walk the sets depth
first and keep the partition of the ranges by their trace on the current
set, one bitmask over range indices per class. Adding a point splits each
class by that point's incidence column (RangeSpace.incidence), so a step
costs O(#distinct traces) rather than a pass over all ranges, and a
subtree is cut only by exact bounds on the traces it can still reach.
projection_rows computes pi rows from the largest y down, and a walk for
pi(y) also yields pi(y - 1) when it provably covered every (y - 1)-set.
Exact doubling reads one packing.FarGraph, whose bit-sliced counters
hold every pairwise distance, and sweeps the breakpoints upward: the far
graph at a breakpoint is one comparison of the counters with its
threshold, made only when the threshold has passed a distance, and the
counters are never rebuilt.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, reduce
from operator import or_
from typing import Sequence

from .core import (
    Bound,
    Budget,
    CapExceededError,
    RangeSpace,
    TheoremViolationError,
    _unit_eps,
    ceil_log2,
    format_rational,
    incidence_columns,
    iter_bits,
    mask_of,
    points_of,
    stream_rng,
)
from .packing import FarGraph, colour_bound, max_clique

# Node budget of each walk (VC, pi, phi and star).
WALK_NODES = 300_000
# Point sets drawn by the sampled estimates of pi and phi.
ESTIMATE_DRAWS = 2000


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


def _whole(classes: list[int], col: int, slack: int) -> int:
    """How many classes the point with incidence col leaves whole,
    counted only until the count passes slack: a leaf that leaves more
    than slack classes whole cannot beat the incumbent."""
    whole = 0
    for s in classes:
        a = s & col
        if not a or a == s:
            whole += 1
            if whole > slack:
                break
    return whole


def vc_of_masks(masks, n: int, cap: int | None = None) -> Bound:
    """Dimension of an arbitrary family of subset masks on n points.

    Walks the shattered sets depth first, adding points in increasing
    order and refining the trace partition of the family by each new
    point; shattering is hereditary, so only shattered sets are extended.
    A set of size k needs 2^k classes, so no set grows past log2 of the
    family size. The witness is the numerically smallest mask among the
    largest shattered sets. The empty family has dimension -1 by
    convention. A walk that would visit more than WALK_NODES sets answers
    Bound(k, min(n, floor(log2 |masks|)), S) for the largest shattered set
    S it found, of size k. cap is ignored: the node budget, not the
    instance size, decides whether the walk finishes.
    """
    ranges = tuple(masks)
    if not ranges:
        return Bound(-1, -1)
    cols = incidence_columns(ranges, n)
    m = len(ranges)
    best, witness = 0, 0
    budget = Budget(WALK_NODES, "exact VC search")
    spend = budget.spend

    def rec(classes: list[int], y: int, size: int, start: int) -> None:
        nonlocal best, witness
        spend()
        if size > best or (size == best and y < witness):
            best, witness = size, y
        if 2 * len(classes) > m or size + n - start < best:
            return
        for x in range(start, n):
            col = cols[x]
            if not _whole(classes, col, 0):  # Y + x is shattered
                inside, outside = _split(classes, col)
                rec(inside + outside, y | 1 << x, size + 1, x + 1)

    finished = budget.run(rec, [(1 << m) - 1], 0, 0, 0)
    upper = best if finished else min(n, m.bit_length() - 1)
    return Bound(best, upper, points_of(witness))


def vc_dimension(space: RangeSpace) -> Bound:
    """Largest cardinality of a shattered point set, by vc_of_masks."""
    return vc_of_masks(space.ranges, space.n)


def projection_rows(
    space: RangeSpace, ys: Sequence[int], seed: int = 0, d: int | None = None,
) -> tuple[tuple[int, Bound], ...]:
    """(y, pi(y)) for every size y in ys, in the order of ys: the max
    number of distinct traces over point sets of size y.

    Every range lies inside one point-sharing component C_i
    (RangeSpace.point_components), so on Y = union of its parts Y_i the
    nonempty traces are those of each component on its own Y_i, and the
    empty trace counts once. With a_i(s) the most traces and b_i(s) the most
    nonempty traces over s-point subsets of C_i, pi(y) is the max of
    a_j(s_j) + sum_{i != j} b_i(s_i) over one component j that holds the
    empty trace and splits with sum s_i <= y (points in no range pad the
    rest): a two-state knapsack. b_i(s) is the a_i(s) walk with one more
    range index, which no incidence column holds and so always keeps the
    empty trace, minus 1. Each a_i(s) and b_i(s) is walked once, in
    ascending s on one budget, and one knapsack gives every row. One
    component is instead a walk per row at min(y, |C|), from the largest y
    down, that also stops at the row's ceiling.

    A walk goes depth first over the s-subsets of a component in
    combinations order, refining the partition of the component's ranges
    (its range-index mask) by each added point. A node with c classes and
    k points to add reaches at most min(c * 2^k, m) traces, so it is
    pruned when that cannot beat the incumbent, and the walk stops once
    the incumbent reaches its ceiling. A leaf, the last point added at a
    node with c classes, counts c plus the classes it splits; a one-range
    class never splits, so the leaf beats the incumbent only if at most
    slack = #multi-range classes + c - best - 1 of those classes stay
    whole. It stops scanning past slack, and the node returns once slack
    is negative. Leaves are not nodes, so this moves no count, prune or
    stop. The walks of one row, those of sizes <= y, share WALK_NODES
    nodes; past them, the row is the sampled Bound(best, ceiling) on its
    own stream.

    A single-component walk at s = y also yields row y - 1 when ys asks
    for it. Its depth-(y - 1) nodes are the (y - 1)-subsets it has room
    for; each other (y - 1)-subset is a node with k >= 2 points to add
    plus the component's last k - 1 points, counted at that node, whose
    last point is a leaf scanned the same way against row y - 1's
    incumbent. Row y's walk, its pruning and its stop are unchanged, so
    it spends the nodes it spends alone. The harvest stands only if it
    reached row y - 1's ceiling, or if it covered every (y - 1)-subset:
    row y's walk was not stopped at its ceiling, and no pruned subtree's
    bound min(c * 2^(k-1), m) beats it. It runs only where row y - 1's own
    walk, which visits at most C(|C|, y - 2) nodes, cannot run out of
    WALK_NODES, so a harvested row is what that walk returns. d, when
    given, must be the exact VC dimension: it closes each row at Sauer's
    sum.
    """
    if any(type(y) is not int or not 0 <= y <= space.n for y in ys):
        raise ValueError(f"projection sizes must be integers in "
                         f"0..{space.n}, got {list(ys)}")
    cols = space.incidence
    groups = [(pts, reduce(or_, [cols[x] for x in pts]))
              for pts in map(points_of, space.point_components)]

    def ceiling(y: int) -> int:
        top = min(1 << y, len(space.ranges))
        return top if d is None else min(top, _binomial_sum(y, d))

    def walk(pts, root, s, top, budget, top1=0) -> tuple[int, int | None]:
        # (most trace classes of the ranges in root over s-subsets of
        # pts, the harvested most over (s - 1)-subsets or None); the
        # harvest is asked for by a positive ceiling top1.
        m = root.bit_count()
        top = min(top, 1 << s, m)
        if not s:
            return 1, None
        top1 = min(top1, 1 << (s - 1), m)
        spend = budget.spend
        ccols = [cols[x] for x in pts]
        n = len(ccols)
        best = below = lost = 0

        def rec(classes: list[int], start: int, k: int) -> bool:
            nonlocal best, below, lost
            spend()
            c = len(classes)
            if k == 1 and c > below:
                below = c
            if min(c << k, m) <= best:
                if below < top1:
                    lost = max(lost, min(c << (k - 1), m))
                return False
            if k > 1 and below < top1 and min(c << (k - 1), m) > below:
                # This node plus the last k - 1 points: an (s - 1)-subset
                # the s-walk has no room to visit.
                tail = classes
                for col in ccols[n - k + 1:n - 1]:
                    inside, outside = _split(tail, col)
                    tail = inside + outside
                # Its last point is a leaf that counts only if it beats
                # below: stop once more than slack classes stay whole.
                slack = 2 * len(tail) - below - 1
                whole = _whole(tail, ccols[n - 1], slack)
                if whole <= slack:
                    below = 2 * len(tail) - whole
            if k == 1:
                # A leaf counts c plus the classes its point splits, and a
                # one-range class never splits, so a leaf beats best only
                # if at most slack of the multi-range classes stay whole.
                # Filtering them out pays only over three or more leaves;
                # below that every class is scanned and singletons count
                # as whole.
                multi = ([cl for cl in classes if cl & (cl - 1)]
                         if n - start > 2 else classes)
                most = len(multi) + c  # a leaf that leaves no class whole
                slack = most - best - 1
                for i in range(start, n):
                    if slack < 0:
                        return False
                    whole = _whole(multi, ccols[i], slack)
                    if whole <= slack:
                        best = most - whole
                        if best >= top:
                            return True
                        slack = whole - 1
                return False
            for i in range(start, n - k + 1):
                inside, outside = _split(classes, ccols[i])
                if rec(inside + outside, i + 1, k - 1):
                    return True
            return False

        budget.run(rec, [root], 0, s)
        if top1 and (below >= top1 or best < top and lost <= below):
            return best, below
        return best, None

    def knapsack(last: int) -> list[int]:
        # pi(y) for every y <= last whose walks fit in WALK_NODES. walked[i]
        # lists component i's (a_i(s), b_i(s)) for s = 0, 1, ..., walked
        # in ascending s until the budget runs out.
        budget = Budget(WALK_NODES, "exact pi search")
        extra = 1 << len(space.ranges)
        walked = [[(1, 0)] for _ in groups]
        for s in range(1, last + 1):
            for (pts, root), sizes in zip(groups, walked):
                if s <= len(pts):
                    sizes.append((walk(pts, root, s, math.inf, budget)[0],
                                  walk(pts, root | extra, s, math.inf, budget)[0] - 1))
            if budget.error:
                last = s - 1
                break
        # free[t] / owned[t]: the best sum over the components so far on
        # at most t points, without / with the empty trace counted.
        free = owned = [0] * (last + 1)
        for sizes in walked:
            free, owned = (
                [max(free[t - s] + b for s, (a, b) in enumerate(sizes[:t + 1]))
                 for t in range(last + 1)],
                [max(max(owned[t - s] + b, free[t - s] + a)
                     for s, (a, b) in enumerate(sizes[:t + 1])) for t in range(last + 1)],
            )
        return owned

    rows: dict[int, Bound] = {}
    if len(groups) == 1:
        pts, root = groups[0]
        for y in sorted(ys, reverse=True):
            if y in rows:
                continue
            # Row y, and row y - 1 when harvested; past WALK_NODES, neither.
            harvest = (y <= len(pts) and
                       math.comb(len(pts), max(y - 2, 0)) <= WALK_NODES)
            top1 = ceiling(y - 1) if harvest and y - 1 in ys else 0
            budget = Budget(WALK_NODES, "exact pi search")
            v, below = walk(pts, root, min(y, len(pts)), ceiling(y), budget, top1)
            if budget.error:
                continue
            rows[y] = Bound(v, v)
            if below is not None:
                rows[y - 1] = Bound(below, below)
    else:
        known = knapsack(max(ys, default=0))
        rows = {y: Bound(known[y], known[y]) for y in ys if y < len(known)}
    for y in ys:
        if y not in rows:
            rows[y] = _sampled(space, stream_rng(seed, "pi", y),
                               lambda rng: y, len, ceiling(y))
    return tuple((y, rows[y]) for y in ys)


def _sampled(space: RangeSpace, rng, size, score, top: int) -> Bound:
    """Bound(best, top) for the best score of the trace set over
    ESTIMATE_DRAWS random point sets of size(rng) points, stopping early
    once best reaches the ceiling top."""
    best = 0
    population = list(range(space.n))
    for _ in range(ESTIMATE_DRAWS):
        ymask = mask_of(rng.sample(population, size(rng)))
        best = max(best, score({r & ymask for r in space.ranges}))
        if best == top:
            break
    return Bound(best, top)


def projection_function(
    space: RangeSpace, y: int, seed: int = 0, d: int | None = None,
) -> Bound:
    """Max number of distinct traces over point sets of size y: the one
    row of projection_rows.

    The ceiling is min(2^y, |R|), and also sum_{i<=d} C(y, i) when the
    caller passes the exact VC dimension d. Exact by the component walks,
    which stop at the ceiling; when they run out of WALK_NODES, the
    sampled Bound(best, ceiling).
    """
    return projection_rows(space, (y,), seed, d)[0][1]


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


def _binomial_sum(y: int, d: int) -> int:
    """sum_{i<=d} C(y, i), which pi(y) cannot exceed at VC dimension d."""
    return sum(math.comb(y, i) for i in range(d + 1))


def _sauer_sum(pi: int, y: int, d: int) -> int:
    """_binomial_sum(y, d); raises TheoremViolationError when pi exceeds
    it."""
    bsum = _binomial_sum(y, d)
    if pi > bsum:
        raise TheoremViolationError(f"shatter bound failed: pi({y})={pi} > "
                                    f"{bsum} at d={d}")
    return bsum


def sauer_check(space: RangeSpace, d: int | None = None) -> SauerReport:
    """Certify pi(y) <= sum_{i<=d} C(y,i) <= (e*y/d)^d for y = d..n.

    Needs the exact dimension and exact projection values: raises
    CapExceededError naming the bracket when a walk runs out of its budget
    and leaves the dimension or a row bracketed, and TheoremViolationError
    on any failure (which would mean a bug). d is not passed on to
    projection_rows, so every row is counted rather than closed at the
    Sauer sum it is checked against.
    """
    def exact(what: str, b: Bound) -> int:
        if not b.exact:
            raise CapExceededError(f"sauer_check: {what} is only bracketed "
                                   f"in [{b.lower}, {b.upper}]")
        return b.lower

    if d is None:
        d = exact("the VC dimension", vc_dimension(space))
    if d < 0:
        return SauerReport(d, ())
    rows = []
    for y, b in projection_rows(space, range(d, space.n + 1)):
        pi = exact(f"pi({y})", b)
        bsum = _sauer_sum(pi, y, d)
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
    eps = _unit_eps(eps)
    xs, nums, dens = space.capacity_table
    a, b, w = eps.numerator, eps.denominator, space.total_weight
    # The ratio at eps itself: the union of ranges of measure <= eps, over
    # eps*w.
    num = space.union_prefix[space.count_at_most(eps)] * b
    den = a * w
    k = bisect_left(xs, space.ceil_weight(eps))
    if k < len(xs) and nums[k] * den > num * dens[k]:
        num, den = nums[k], dens[k]
    return Fraction(num, den) if num > den else _ONE


@lru_cache(maxsize=256)
def capacity_levels(eps: Fraction) -> tuple[int, tuple[Fraction, ...]]:
    """Dyadic scales: z = 1 + ceil(log2(1/eps)) and eps_i = min(2^i eps, 1)
    for i = 0..z."""
    # Memoised: a sweep asks for the same few scales thousands of times.
    # A raise is not cached, equal eps of any type share an entry, and the
    # value is a tuple of immutables, so no caller can alter it.
    eps = _unit_eps(eps)
    z = 1 + ceil_log2(1 / eps)
    return z, tuple(min(Fraction(2) ** i * eps, _ONE) for i in range(z + 1))


def capacity_vector(space: RangeSpace, eps: Fraction) -> list[Fraction]:
    """tau_i = capacity at scale min(2^i eps, 1) for i = 1..z."""
    z, levels = capacity_levels(eps)
    return [alexander_capacity(space, levels[i]) for i in range(1, z + 1)]


# -- doubling ---------------------------------------------------------------


def doubling_constant(
    space: RangeSpace,
    eps: Fraction,
    mode: str = "auto",
    range_cap: int | None = None,
) -> Bound:
    """Largest packing at scale eps0 inside the family of measure <= 2*eps0,
    maximized over eps0 in [eps, 1], as one sweep over the breakpoints.

    Between breakpoints (half-measures and pairwise distances) eligibility
    is constant and separation only loses pairs, so a max clique of the
    far graph at every breakpoint gives D exactly. Ranges are ranked by
    (measure, index); at scale eps0 the eligible ranges are a rank prefix
    and the far graph keeps the pairs at integer distance >= ceil(eps0*W).
    One packing.FarGraph over the ranked ranges holds every distance in
    bit-sliced counters and gives the far graph at each rising threshold
    by one comparison with them. A breakpoint with no more eligible
    ranges than the incumbent is skipped, since it cannot beat it. Each
    other breakpoint asks max_clique for a clique larger than the
    incumbent; most cannot beat it, and max_clique settles those by a
    greedy colouring in vertex order with no more classes than the
    incumbent, with no search and no node spent.

    When a search runs out of packing.DEFAULT_CLIQUE_NODES short of a
    proof, its Bound's witness, or one eligible range if it is empty, is a
    lower end, its upper end (a colouring's class count) starts the sweep's
    upper end, and the sweep stops searching: each later breakpoint with
    more eligible ranges than the upper end adds a greedy colouring's
    class count, and the rest are bounded by their eligible count.
    Returns Bound(packing size, D itself or the colouring upper end, the
    packing's members, its scale eps0).
    mode and range_cap are accepted and ignored, for callers that still
    pass them; a caller that needs D exactly reads .value or .exact.
    """
    eps = _unit_eps(eps)
    sorted_idx = space.measure_order
    w = space.total_weight
    graph = FarGraph(space, [space.ranges[i] for i in sorted_idx])
    candidates = {eps}
    for x in set(space.sorted_weights):
        h = Fraction(x, 2 * w)
        if eps <= h <= 1:
            candidates.add(h)
    lo = space.ceil_weight(eps)
    candidates.update(Fraction(v, w) for v in graph.distances if lo <= v <= w)

    best, best_eps0, best_members = 0, None, ()
    upper = None  # set once a clique search has run out of budget
    for eps0 in sorted(candidates):
        j = space.count_at_most(2 * eps0)
        if j <= (best if upper is None else upper):
            continue
        far = graph.rows(j, space.ceil_weight(eps0))
        if upper is not None:
            upper = max(upper, colour_bound(far))
            continue
        clique = max_clique(far, lower_bound=best)
        members = clique.witness
        if not clique.exact:
            # One eligible range is a packing even if the search tripped
            # before its first leaf.
            members, upper = members or (0,), clique.upper
        if len(members) > best:
            best, best_eps0 = len(members), eps0
            best_members = tuple(sorted(sorted_idx[v] for v in members))
    return Bound(best, best if upper is None else upper, best_members, best_eps0)


# -- shallow cells ----------------------------------------------------------


def _max_shallow(space: RangeSpace, y: int, l: int) -> int | None:
    """Exact shallow-cell count for a nonempty family: the most trace
    classes with trace size <= l over point sets of size <= y.

    Depth first over the point sets, keeping the classes grouped by trace
    size. A trace never shrinks as Y grows, so classes past size l are
    dropped; each kept class can split into at most 2^k parts with k
    points to go, and there are never more than m traces. None when the
    walk's Budget trips.
    """
    cols = space.incidence
    n, m = space.n, len(space.ranges)
    best = 0
    budget = Budget(WALK_NODES, "exact phi search")
    spend = budget.spend

    def rec(levels: list[list[int]], start: int, k: int) -> bool:
        # levels[s]: classes whose common trace on Y has s points
        nonlocal best
        spend()
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

    return best if budget.run(rec, [[(1 << m) - 1]], 0, y) else None


def shallow_cell(
    space: RangeSpace,
    y: int,
    l: int,
    cap: int | None = None,
    seed: int = 0,
) -> Bound:
    """Max over point sets Y with |Y| <= y of the number of distinct traces
    of size at most l. Trace size counts points, not weight; the empty
    trace has size 0. y beyond n is clamped to n.

    The max runs over |Y| <= y rather than exactly y so the result is
    monotone in y (padding a point set can destroy small traces, so the
    exact-size max is not monotone). Exact by the walk of _max_shallow,
    which stops at the ceiling |R|; when it runs out of WALK_NODES, the
    sampled Bound(best, |R|). cap is accepted and ignored. A y or l that
    is not a non-negative int is a ValueError before any work.
    """
    if type(y) is not int or type(l) is not int or y < 0 or l < 0:
        raise ValueError(f"shallow_cell needs integers y >= 0 and l >= 0, "
                         f"got {y!r} and {l!r}")
    y = min(y, space.n)
    if not space.ranges:
        return Bound(0, 0)
    v = _max_shallow(space, y, l)
    if v is None:
        return _sampled(
            space, stream_rng(seed, "shallow", y, l),
            lambda rng: rng.randint(0, y),
            lambda traces: sum(1 for t in traces if t.bit_count() <= l),
            len(space.ranges),
        )
    return Bound(v, v)


# -- star number ------------------------------------------------------------


def star_number(space: RangeSpace, cap: int | None = None) -> Bound:
    """Largest s admitting points x_1..x_s and ranges R_1..R_s with
    R_i meeting {x_1..x_s} exactly in {x_i}.

    Every range lies inside one point-sharing component, so star sets
    split over the components and the star number is the sum of theirs.
    In each component a depth-first walk adds points in increasing order
    with remaining-count pruning; feasibility only shrinks as points are
    added, so it is exact. Its first path, the greedy pass in point order,
    is taken ahead so that a walk cut off by the recursion limit still
    reports it. The walks share WALK_NODES nodes: a component whose walk
    does not finish adds its incumbent to the lower end and its point count
    to the upper end. The witness is a star set of size lower. cap is ignored.
    """
    cols = space.incidence
    budget = Budget(WALK_NODES, "star walk")
    spend = budget.spend

    def extend(star: tuple[int, list[int]], x: int):
        """(ranges meeting the set, one mask of private ranges per point)
        of a star set after adding x, or None when x breaks it."""
        covered, wits = star
        px = cols[x]
        mine = px & ~covered
        if not mine:
            return None
        new = []
        for w in wits:
            w &= ~px
            if not w:
                return None
            new.append(w)
        return covered | px, new + [mine]

    def walk(i: int, chosen: list[int], star) -> None:
        nonlocal best
        spend()
        if len(chosen) > len(best):
            best = chosen
        for j in range(i, len(pts)):
            if len(chosen) + len(pts) - j <= len(best):
                break
            grown = extend(star, pts[j])
            if grown:
                walk(j + 1, chosen + [pts[j]], grown)

    lower, upper, witness = 0, 0, []
    for comp in space.point_components:
        pts = list(iter_bits(comp))
        best, star = [], (0, [])
        for x in pts:
            grown = extend(star, x)
            if grown:
                best.append(x)
                star = grown
        finished = len(best) == len(pts) or budget.run(walk, 0, [], (0, []))
        lower += len(best)
        upper += len(best) if finished else len(pts)
        witness += best
    return Bound(lower, upper, tuple(sorted(witness)))


# -- profile ----------------------------------------------------------------


@dataclass(frozen=True)
class ComplexityProfile:
    name: str
    eps: Fraction
    d: Bound
    tau: Fraction
    tau_vector: tuple[Fraction, ...]
    doubling: Bound
    pi: tuple[tuple[int, Bound], ...]  # (y, pi(y))
    phi: tuple[tuple[int, int, Bound], ...]  # (y, l, phi(y, l))
    star: Bound

    def to_dict(self) -> dict:
        fr = format_rational
        d, dbl, star = self.d, self.doubling, self.star
        return {
            "name": self.name,
            "eps": fr(self.eps),
            "vc": {"value": d.lower, "exact": d.exact, "witness": list(d.witness)},
            "tau": fr(self.tau),
            "tau_vector": [fr(t) for t in self.tau_vector],
            "z": len(self.tau_vector),
            "doubling": {
                "mode": dbl.mode,
                "lower": dbl.lower,
                "upper": round(float(dbl.upper), 6),
                "eps0": fr(dbl.eps0) if dbl.eps0 is not None else None,
            },
            "pi": [{"y": y, "value": b.lower, "exact": b.exact} for y, b in self.pi],
            "phi": [{"y": y, "l": l, "value": b.lower, "exact": b.exact}
                    for y, l, b in self.phi],
            "star": {"lower": star.lower, "upper": star.upper, "exact": star.exact},
        }


def compute_profile(
    space: RangeSpace,
    eps: Fraction,
    pi_max_y: int = 8,
    seed: int = 0,
) -> ComplexityProfile:
    """One-stop profile at scale eps, exact where the module's budgets
    permit. pi_max_y must be a non-negative int; the pi rows are those of
    projection_rows for y = 0..min(n, pi_max_y)."""
    if type(pi_max_y) is not int or pi_max_y < 0:
        raise ValueError(f"pi_max_y must be a non-negative integer, "
                         f"got {pi_max_y!r}")
    eps = _unit_eps(eps)
    d = vc_dimension(space)
    tau = alexander_capacity(space, eps)
    tau_vec = tuple(capacity_vector(space, eps))
    doubling = doubling_constant(space, eps)
    pi_rows = projection_rows(space, range(min(space.n, pi_max_y) + 1),
                              seed, d.lower if d.exact else None)
    if d.exact:  # a value above Sauer's sum means a bug: raise
        for y, pi in pi_rows:
            _sauer_sum(pi.lower, y, d.lower)
    phi_rows = ()
    if d.exact and d.lower >= 1:
        y_phi = min(math.ceil(8 * d.lower * tau), space.n)
        l_phi = min(24 * d.lower, space.n)
        phi_rows = ((y_phi, l_phi, shallow_cell(space, y_phi, l_phi, seed=seed)),)
    star = star_number(space)
    return ComplexityProfile(
        name=space.name, eps=eps, d=d, tau=tau, tau_vector=tau_vec,
        doubling=doubling, pi=pi_rows, phi=phi_rows, star=star,
    )
