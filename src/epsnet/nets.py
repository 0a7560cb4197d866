"""Net constructions for finite weighted range spaces, a verifier, and
exact/greedy hitting-set oracles.

A candidate is a set of support points; it is a net at scale eps when it
meets every range of measure >= eps (inclusive). Randomized builders
report honest outcomes: one-shot methods may return is_net=False, while
the stratified and packing-guided builders carry deterministic repair
steps and always verify.

Hits are bitmasks over range indices. The ranges a point set meets are
the OR of its points' incidence columns (RangeSpace.incidence), and the
heavy ranges, those of measure >= eps, are a suffix of the space's
measure order, so a net's violations are heavy & ~hits. The dyadic
buckets are runs of that order between bisected cuts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

from .core import (
    CapExceededError,
    InstanceError,
    RangeSpace,
    TheoremViolationError,
    ceil_log2,
    draw_points,
    format_rational,
    incidence_columns,
    iter_bits,
    mask_of,
    stream_rng,
)
from .complexity import (
    alexander_capacity,
    capacity_levels,
    doubling_constant,
    vc_dimension,
)
from .packing import E_UPPER, greedy_packing

LN2 = math.log(2.0)
DEFAULT_C = 8.0
DRAW_CAP = 10**6  # cal_net's draw guard is min(2^budget_n, DRAW_CAP)
STRATIFIED_RETRIES = 8  # doubled redraws per bucket before the repair
EXACT_NET_NODES = 5_000_000  # branch-and-bound budget of min_net_exact
EXACT_NET_TARGETS = 2000  # qualifying ranges min_net_exact accepts


@dataclass(frozen=True)
class NetReport:
    method: str
    eps: Fraction
    points: tuple[int, ...]
    is_net: bool
    violations: tuple[int, ...]
    stats: dict = field(default_factory=dict)

    @property
    def size(self) -> int:
        return len(self.points)

    @property
    def mask(self) -> int:
        return mask_of(self.points)

    def to_dict(self) -> dict:
        def clean(v):
            if isinstance(v, Fraction):
                return format_rational(v)
            if isinstance(v, (list, tuple)):
                return [clean(x) for x in v]
            if isinstance(v, dict):
                return {k: clean(x) for k, x in v.items()}
            return v

        return {
            "method": self.method,
            "eps": format_rational(self.eps),
            "points": list(self.points),
            "size": self.size,
            "is_net": self.is_net,
            "violations": list(self.violations),
            "stats": clean(self.stats),
        }


def _heavy(space: RangeSpace, eps: Fraction) -> int:
    """Bitmask over range indices of the ranges of measure >= eps, the
    ones a net must hit."""
    return mask_of(space.measure_order[space.count_below(eps):])


def _hits(space: RangeSpace, point_mask: int) -> int:
    """Bitmask over range indices of the ranges that meet the point mask."""
    cols = space.incidence()
    hit = 0
    for p in iter_bits(point_mask):
        hit |= cols[p]
    return hit


def verify_net(
    space: RangeSpace,
    candidate,
    eps: Fraction,
    method: str = "verify",
    stats: dict | None = None,
) -> NetReport:
    """Exact check that candidate hits every range of measure >= eps.

    Candidate points must lie in the support; a zero-weight point is an
    error, not a silent pass.
    """
    eps = Fraction(eps)
    if not 0 < eps <= 1:
        raise ValueError(f"eps must be in (0, 1], got {eps}")
    pts = sorted(set(candidate))
    for p in pts:
        if not 0 <= p < space.n:
            raise InstanceError(f"candidate point {p} outside 0..{space.n - 1}")
        if space.weights[p] == 0:
            raise InstanceError(f"candidate point {p} has zero weight")
    missed = _heavy(space, eps) & ~_hits(space, mask_of(pts))
    violations = tuple(iter_bits(missed))
    return NetReport(
        method, eps, tuple(pts), not violations, violations, stats or {}
    )


def _greedy_hit(space: RangeSpace, masks: list[int], have: int = 0) -> list[int]:
    """Support points chosen greedily to hit every mask that have does
    not meet: most new hits first, ties to the lowest point index. A
    point's new hits are popcount(col[p] & todo) over the incidence
    columns of the targets. A target with no support point is a
    ValueError."""
    targets = [m & space.support_mask for m in masks if not (m & have)]
    if not all(targets):
        raise ValueError("a hitting-set target has no support point")
    cols = incidence_columns(targets, space.n)
    cands = [p for p in range(space.n) if cols[p]]
    todo = (1 << len(targets)) - 1
    chosen: list[int] = []
    while todo:
        best_p, best = -1, 0
        for p in cands:
            c = (cols[p] & todo).bit_count()
            if c > best:
                best_p, best = p, c
        chosen.append(best_p)
        todo &= ~cols[best_p]
    return chosen


def _repair(
    space: RangeSpace, groups: list[list[int]], net_mask: int
) -> tuple[int, int]:
    """Greedily finish each target group in turn on top of net_mask.
    Returns the grown net mask and the number of points added."""
    added = 0
    for targets in groups:
        pts = _greedy_hit(space, targets, net_mask)
        added += len(pts)
        net_mask |= mask_of(pts)
    return net_mask, added


def _quarter_groups(
    space: RangeSpace, bucket: tuple[int, ...], sep: Fraction
) -> tuple[int, list[list[int]]]:
    """Size of a greedy maximal sep-packing of the bucket, and per member
    Q the targets of its quarter-scale net: the traces R & Q of the
    bucket ranges R with P(R & Q) >= P(Q)/4.

    Maximality forces every bucket range into some member's group; a
    range without one is a TheoremViolationError.
    """
    members = greedy_packing(space, sep, list(bucket)).members
    groups: dict[int, list[int]] = {q: [] for q in members}
    for i in bucket:
        ri = space.ranges[i]
        homes = [
            q
            for q in members
            if 4 * space.mask_weight(ri & space.ranges[q]) >= space.range_weights[q]
        ]
        if not homes:
            raise TheoremViolationError(
                f"range {i} shares no quarter-mass packing member at scale {sep}"
            )
        for q in homes:
            groups[q].append(ri & space.ranges[q])
    return len(members), list(groups.values())


# -- dyadic decomposition ----------------------------------------------------


@dataclass(frozen=True)
class DyadicDecomposition:
    eps: Fraction
    z: int
    levels: tuple[Fraction, ...]  # scale i -> min(2^i eps, 1), i = 0..z
    buckets: tuple[tuple[int, ...], ...]  # per scale, indices of its ranges
    unions: tuple[int, ...]  # per scale, union mask of its bucket
    taus: tuple[Fraction, ...]  # capacity at each scale, i = 0..z


def build_decomposition(space: RangeSpace, eps: Fraction) -> DyadicDecomposition:
    """Split ranges into dyadic measure buckets with exact invariants.

    Bucket 0 holds [0, eps); bucket i in 1..z-1 holds [levels[i-1],
    levels[i]); the top bucket absorbs measure-1 ranges. Certifies
    P(bucket union) <= tau_i * levels[i] and, for i >= 1, the conditional
    lower bound P(R | union) >= 1/(2 tau_i) for every bucket member.
    """
    eps = Fraction(eps)
    z, levels = capacity_levels(eps)
    taus = tuple(alexander_capacity(space, lv) for lv in levels)
    # In measure order bucket b is the run between cuts[b] and cuts[b+1].
    order = space.measure_order
    cuts = [0] + [space.count_below(lv) for lv in levels[:z]] + [len(order)]
    buckets = []
    unions = []
    w = space.total_weight
    for b in range(z + 1):
        lo = cuts[b]
        bucket = tuple(sorted(order[lo:cuts[b + 1]]))
        u = 0
        for i in bucket:
            u |= space.ranges[i]
        buckets.append(bucket)
        unions.append(u)
        u_w = space.mask_weight(u)
        lv, tau = levels[b], taus[b]
        t_num, t_den = tau.numerator, tau.denominator
        # u_w / w > tau * lv, cross-multiplied.
        if u_w * t_den * lv.denominator > t_num * lv.numerator * w:
            raise TheoremViolationError(
                f"bucket {b} union measure exceeds tau*level at scale {lv}"
            )
        # P(R | union) >= 1/(2 tau) since P(R) >= level/2; the lightest
        # member, the run's first, is the one to check.
        if b >= 1 and u_w and 2 * space.sorted_weights[lo] * t_num < u_w * t_den:
            raise TheoremViolationError(
                f"conditional measure of range {order[lo]} in bucket {b} "
                f"fell below 1/(2*tau)"
            )
    return DyadicDecomposition(
        eps, z, levels, tuple(buckets), tuple(unions), taus,
    )


# -- size bound formulas (for reporting and regression ceilings) -------------


def stratified_size_bound(d: int, taus) -> float:
    """d * sum_i tau_i * ln(tau_i + 1) over scales i >= 1."""
    return max(d, 1) * sum(float(t) * math.log(float(t) + 1) for t in taus[1:])


def capacity_size_bound(d: int, tau, eps) -> float:
    """d * tau * ln(tau + 1) * max(ln(1/eps), ln 2)."""
    return (
        max(d, 1)
        * float(tau)
        * math.log(float(tau) + 1)
        * max(math.log(1 / float(eps)), LN2)
    )


def doubling_size_bound(d: int, taus, D: float) -> float:
    """sum_i (t_i + d) * tau_i over scales i >= 1, t_i = max(ln(D/tau_i), ln 2)."""
    total = 0.0
    for t in taus[1:]:
        ti = max(math.log(max(D, 1.0) / float(t)), LN2)
        total += (ti + max(d, 1)) * float(t)
    return total


def small_doubling_size_bound(d: int, D: float, eps) -> float:
    """d * D * max(ln(1/(eps*D)), ln 2)."""
    return max(d, 1) * max(D, 1.0) * max(math.log(1 / (float(eps) * max(D, 1.0))), LN2)


# -- i.i.d. construction ------------------------------------------------------


def iid_sample_size(
    eps: Fraction,
    delta: Fraction,
    d: int,
    sizing: str = "vc",
    tau: Fraction | None = None,
    C: float = DEFAULT_C,
) -> int:
    """Sample size for the one-shot i.i.d. builder.

    vc sizing: ceil(C * (d*ln(1/eps) + ln(1/delta)) / eps).
    capacity sizing: ceil(C * (d*ln(tau) + ln(1/delta)) / eps).
    """
    eps, delta = Fraction(eps), Fraction(delta)
    if not 0 < eps <= 1 or not 0 < delta <= 1:
        raise ValueError("eps and delta must be in (0, 1]")
    if C <= 0:
        raise ValueError("C must be positive")
    d = max(d, 0)
    if sizing == "vc":
        term = d * math.log(1 / float(eps))
    elif sizing == "capacity":
        if tau is None:
            raise ValueError("capacity sizing needs tau")
        term = d * math.log(float(tau))
    else:
        raise ValueError(f"unknown sizing: {sizing}")
    m = math.ceil(C * (term + math.log(1 / float(delta))) / float(eps))
    return max(m, 1)


def iid_net(
    space: RangeSpace,
    eps: Fraction,
    delta: Fraction,
    sizing: str = "vc",
    C: float = DEFAULT_C,
    seed: int = 0,
    d: int | None = None,
) -> NetReport:
    """One-shot i.i.d. draw at the theorem sizing, then an exact verify.

    No retries: the success probability is the object under test, so a
    failed draw is reported as is_net=False.
    """
    eps, delta = Fraction(eps), Fraction(delta)
    if d is None:
        d = vc_dimension(space).value
    tau = alexander_capacity(space, eps) if sizing == "capacity" else None
    m = iid_sample_size(eps, delta, d, sizing, tau, C)
    rng = stream_rng(seed, "iid", sizing)
    pts = draw_points(space, m, rng)
    stats = {"seed": seed, "draws": m, "sizing": sizing, "C": C, "d": d}
    if tau is not None:
        stats["tau"] = tau
    return verify_net(space, set(pts), eps, method="iid", stats=stats)


# -- stratified construction --------------------------------------------------


def stratified_net(
    space: RangeSpace,
    eps: Fraction,
    C: float = DEFAULT_C,
    seed: int = 0,
    d: int | None = None,
) -> NetReport:
    """Per-bucket conditional sampling at scale 1/(2 tau_i).

    Every bucket member has conditional measure >= 1/(2 tau_i) inside its
    bucket union, so a conditional net at that scale hits the whole
    bucket. Buckets at scale >= 1 are checked and redrawn with doubled
    samples up to STRATIFIED_RETRIES times, then repaired greedily;
    bucket 0 is sampled for size-accounting parity but needs no hits.
    """
    eps = Fraction(eps)
    if d is None:
        d = vc_dimension(space).value
    d_eff = max(d, 1)
    dec = build_decomposition(space, eps)
    rng = stream_rng(seed, "stratified")
    net_mask = 0
    draws = 0
    retries_used = 0
    repaired = 0
    level_sizes = []
    for b in range(dec.z + 1):
        bucket = dec.buckets[b]
        union = dec.unions[b]
        if not bucket or not space.mask_weight(union):
            level_sizes.append(0)
            continue
        tau = dec.taus[b]
        level_eps = Fraction(1, 2) / tau  # conditional scale 1/(2 tau)
        base_m = math.ceil(
            C * (d_eff * math.log(1 / float(level_eps)) + LN2) / float(level_eps)
        )
        need = mask_of(bucket)  # over range indices
        got = 0
        for attempt in range(STRATIFIED_RETRIES + 1):
            m = base_m * (2**attempt)
            pts = draw_points(space, m, rng, within_mask=union)
            draws += m
            got += len(pts)
            net_mask |= mask_of(pts)
            # Bucket 0 has no hitting requirement below the base scale.
            if b == 0 or not need & ~_hits(space, net_mask):
                break
            retries_used += 1
        if b >= 1:
            targets = [space.ranges[i] for i in bucket]
            net_mask, added = _repair(space, [targets], net_mask)
            repaired += added
        level_sizes.append(got)
    pts = list(iter_bits(net_mask))
    stats = {
        "seed": seed,
        "C": C,
        "d": d,
        "draws": draws,
        "level_draws": level_sizes,
        "retries": retries_used,
        "repair_points": repaired,
        "taus": list(dec.taus),
        "z": dec.z,
    }
    return verify_net(space, pts, eps, method="stratified", stats=stats)


# -- packing-guided construction ----------------------------------------------


def doubling_net(
    space: RangeSpace,
    eps: Fraction,
    C: float = DEFAULT_C,
    seed: int = 0,
    D: float | None = None,
    d: int | None = None,
) -> NetReport:
    """Packing-guided construction with a deterministic repair step.

    Per scale i >= 1: take a greedy maximal packing of the bucket at
    separation levels[i-1]; every bucket member then shares at least a
    quarter of some packing member's measure (asserted exactly). Draw one
    conditional sample sized C*(t_i + d)*tau_{i-1} with
    t_i = max(ln(D/tau_i), ln 2); whichever packing-member neighborhoods
    it fails to finely cover are finished off with greedy quarter-scale
    hitting sets, so the result always verifies. There are no redraws.
    """
    eps = Fraction(eps)
    if d is None:
        d = vc_dimension(space).value
    d_eff = max(d, 1)
    if D is None:
        D = doubling_constant(space, eps).upper
    D = max(D, 1.0)
    dec = build_decomposition(space, eps)
    rng = stream_rng(seed, "doubling")
    net_mask = 0
    draws = 0
    repaired = 0
    level_sizes = []
    packing_sizes = []
    for b in range(1, dec.z + 1):
        bucket = dec.buckets[b]
        union = dec.unions[b]
        if not bucket or not space.mask_weight(union):
            level_sizes.append(0)
            packing_sizes.append(0)
            continue
        packing_size, groups = _quarter_groups(space, bucket, dec.levels[b - 1])
        packing_sizes.append(packing_size)
        t_i = max(math.log(D / float(dec.taus[b])), LN2)
        m = math.ceil(C * (t_i + d_eff) * float(dec.taus[b - 1]))
        net_mask |= mask_of(draw_points(space, m, rng, within_mask=union))
        draws += m
        # Per packing member, greedily finish the quarter-scale net of its
        # group inside the member.
        net_mask, added = _repair(space, groups, net_mask)
        repaired += added
        level_sizes.append(m)
    pts = list(iter_bits(net_mask))
    stats = {
        "seed": seed,
        "C": C,
        "d": d,
        "D": D,
        "draws": draws,
        "level_draws": level_sizes,
        "packing_sizes": packing_sizes,
        "repair_points": repaired,
        "taus": list(dec.taus),
        "z": dec.z,
    }
    return verify_net(space, pts, eps, method="doubling", stats=stats)


def doubling_net_small_d(
    space: RangeSpace,
    eps: Fraction,
    C: float = DEFAULT_C,
    seed: int = 0,
    D: float | None = None,
    d: int | None = None,
) -> NetReport:
    """Variant for a small doubling constant (D <= 1/(2 eps)).

    Scales up to the cut i0 = ceil(log2(e/(D eps))) are covered by
    deterministic per-packing-member quarter-scale hitting sets (at most
    D members each); the remaining heavy ranges form a subfamily handled
    by the packing-guided builder at the rational scale levels[i0].
    Falls back to the plain builder outside the small-D regime.
    """
    eps = Fraction(eps)
    if d is None:
        d = vc_dimension(space).value
    if D is None:
        D = doubling_constant(space, eps).upper
    D = max(D, 1.0)
    DF = Fraction(D)  # exact binary value of the float
    if DF > Fraction(1, 2) / eps:
        rep = doubling_net(space, eps, C=C, seed=seed, D=D, d=d)
        stats = dict(rep.stats)
        stats["fallback"] = True
        return NetReport(
            "doubling-small", rep.eps, rep.points, rep.is_net,
            rep.violations, stats,
        )
    dec = build_decomposition(space, eps)
    # Rational cut: smallest i0 with 2^i0 >= e/(D*eps), capped at z.
    i0 = min(ceil_log2(E_UPPER / (DF * eps)), dec.z)
    i0 = max(i0, 1)
    net_mask = 0
    member_net_sizes = []
    for b in range(1, i0 + 1):
        bucket = dec.buckets[b]
        if not bucket:
            member_net_sizes.append(0)
            continue
        _, groups = _quarter_groups(space, bucket, dec.levels[b - 1])
        net_mask, added = _repair(space, groups, net_mask)
        member_net_sizes.append(added)
    tail = [
        i
        for b in range(i0 + 1, dec.z + 1)
        for i in dec.buckets[b]
    ]
    tail_stats: dict = {"size": 0}
    if tail:
        lam = dec.levels[i0]
        tail_rep = doubling_net(space.subfamily(tail), lam, C=C, seed=seed, d=d)
        net_mask |= tail_rep.mask
        tail_stats = {"size": tail_rep.size, "scale": lam,
                      "draws": tail_rep.stats.get("draws", 0)}
    pts = list(iter_bits(net_mask))
    stats = {
        "seed": seed,
        "C": C,
        "d": d,
        "D": D,
        "i0": i0,
        "z": dec.z,
        "member_net_sizes": member_net_sizes,
        "tail": tail_stats,
        "draws": tail_stats.get("draws", 0),
    }
    return verify_net(space, pts, eps, method="doubling-small", stats=stats)


# -- sequential disagreement sampling -----------------------------------------


def cal_net(
    space: RangeSpace,
    eps: Fraction,
    budget_n: int,
    seed: int = 0,
) -> NetReport:
    """Sequential builder: draw i.i.d. points, keep one only if it lies in
    a surviving (not yet hit) range, drop the ranges it hits.

    Runs until budget_n points are kept, min(2^budget_n, DRAW_CAP) points
    are drawn, or no range of positive measure survives. The net property
    is equivalent to every surviving range having measure below eps,
    which is exactly what the final verification reports.
    """
    eps = Fraction(eps)
    if budget_n < 1:
        raise ValueError("budget_n must be >= 1")
    rng = stream_rng(seed, "cal")
    cols = space.incidence()
    # Over range indices; a range of measure 0 can never be hit by a draw.
    surviving = mask_of(i for i, w in enumerate(space.range_weights) if w)
    kept: list[int] = []
    drawn = 0
    guard = min(1 << min(budget_n, 64), DRAW_CAP)
    while len(kept) < budget_n and drawn < guard and surviving:
        p = draw_points(space, 1, rng)[0]
        drawn += 1
        hit = surviving & cols[p]
        if hit:
            kept.append(p)
            surviving ^= hit
    stats = {
        "seed": seed,
        "kept": len(kept),
        "draws": drawn,
        "surviving": surviving.bit_count(),
        "budget_n": budget_n,
        "guard": guard,
    }
    return verify_net(space, set(kept), eps, method="cal", stats=stats)


# -- oracles -------------------------------------------------------------------


def greedy_net(space: RangeSpace, eps: Fraction) -> NetReport:
    """Deterministic greedy hitting set over the qualifying ranges."""
    eps = Fraction(eps)
    targets = [space.ranges[i] for i in iter_bits(_heavy(space, eps))]
    pts = _greedy_hit(space, targets)
    return verify_net(
        space, pts, eps, method="greedy",
        stats={"draws": 0, "targets": len(targets)},
    )


def _components(masks: list[int]) -> list[list[int]]:
    """Group mask indices into point-sharing connected components."""
    comps = []
    unseen = set(range(len(masks)))
    while unseen:
        i = unseen.pop()
        comp = [i]
        cover = masks[i]
        grew = True
        while grew:
            grew = False
            for j in list(unseen):
                if masks[j] & cover:
                    unseen.discard(j)
                    comp.append(j)
                    cover |= masks[j]
                    grew = True
        comps.append(comp)
    return comps


def _min_hit_component(
    space: RangeSpace, masks: list[int], node_budget: list[int]
) -> list[int]:
    """Exact minimum hitting set of one component (masks within the
    support) via branch and bound.

    Branches on the smallest uncovered mask; a greedy set of pairwise
    disjoint uncovered masks gives the admissible lower bound.
    """
    # Greedy upper bound primes the incumbent.
    best = _greedy_hit(space, masks)

    def lower_bound(unc: list[int]) -> int:
        used = 0
        count = 0
        for m in sorted(unc, key=lambda m: m.bit_count()):
            if not (m & used):
                count += 1
                used |= m
        return count

    def rec(unc: list[int], chosen: list[int]) -> None:
        nonlocal best
        node_budget[0] -= 1
        if node_budget[0] < 0:
            raise CapExceededError("hitting-set search exceeded node budget")
        if not unc:
            if len(chosen) < len(best):
                best = list(chosen)
            return
        if len(chosen) + lower_bound(unc) >= len(best):
            return
        pivot = min(unc, key=lambda m: m.bit_count())
        cands = sorted(
            iter_bits(pivot),
            key=lambda p: (-sum(1 for m in unc if m >> p & 1), p),
        )
        for p in cands:
            chosen.append(p)
            rec([m for m in unc if not (m >> p & 1)], chosen)
            chosen.pop()

    rec(masks, [])
    return best


def min_net_exact(space: RangeSpace, eps: Fraction) -> NetReport:
    """Minimum-cardinality net by exact branch and bound, for at most
    EXACT_NET_TARGETS qualifying ranges.

    Restricted to support points; supersets of another qualifying range
    are dropped (hitting the subset hits them), and point-disjoint
    components are solved independently within one budget of
    EXACT_NET_NODES search nodes.
    """
    eps = Fraction(eps)
    targets = [
        space.ranges[i] & space.support_mask
        for i in iter_bits(_heavy(space, eps))
    ]
    if len(targets) > EXACT_NET_TARGETS:
        raise CapExceededError(
            f"exact net oracle capped at {EXACT_NET_TARGETS} qualifying "
            f"ranges, got {len(targets)}"
        )
    targets = sorted(set(targets), key=lambda m: (m.bit_count(), m))
    pruned = []
    for i, m in enumerate(targets):
        if not any(m != s and m & s == s for s in targets):
            pruned.append(m)
    pts: list[int] = []
    budget = [EXACT_NET_NODES]
    for comp in _components(pruned):
        pts.extend(_min_hit_component(space, [pruned[i] for i in comp], budget))
    return verify_net(
        space, pts, eps, method="exact",
        stats={"draws": 0, "targets": len(targets),
               "kept_after_pruning": len(pruned)},
    )
