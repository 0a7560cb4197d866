"""Net constructions for finite weighted range spaces, a verifier, and
exact/greedy hitting-set oracles.

A candidate is a set of support points; it is a net at scale eps when it
meets every range of measure >= eps (inclusive). Randomized builders
report honest outcomes: one-shot methods may return is_net=False, while
the stratified and packing-guided builders carry deterministic repair
steps and always verify. They and the small-D head share one per-scale
loop, _scale_nets: draw into the bucket union, then repair the scale.
The four sampling builders share one input step, _inputs (eps, C and a
given D checked before any work, d from the VC walk when None), and
stratified_net and doubling_net one report step, _dyadic_report (the
loop on the stream named after the method, its per-scale stats, then
_report). Every builder reports through _report, verify_net's step
after its input checks, on its own net mask: the mask holds support
points by construction, so only a caller's candidate is checked.

The sampling builders take their draws as one mask (core.hit_mask): a
sample of m points is the set of distinct points it hits, and the draws
past the point where every candidate has been hit are not made. The
dyadic builders read one stream across scales, so they skip it past
those draws (core.draw_mask); iid_net drops its stream after its one
sample. Their stats still report the requested sizes. cal_net reads
its private stream in chunks and counts the draws it looked at.

Hits are bitmasks over range indices. The ranges a point set meets are
the OR of its points' incidence columns (RangeSpace.incidence), and the
heavy ranges, those of measure >= eps, are one comparison with the
space's bit-sliced range weights (RangeSpace.ranges_at_least), so a
net's violations are heavy & ~hits. A dyadic bucket is the difference of
two such comparisons, and a quarter group the comparison of bit-sliced
counters over the bucket's ranges with a quarter of a packing member's
weight. A group is built on demand, only when the member holds a support
point the net lacks, since the net meets every range of the group
otherwise; the repair builds traces only for the group's ranges the net
misses. That every bucket range shares a quarter of some member's weight
is checked apart from the groups, by a first fit over the members per
range.

Only the samples are random. The dyadic builders take the space's
decomposition at eps as an optional dec=; one shared between calls keeps
the seed-free parts they derive from it (each scale's packing and the
quarter groups built so far, the small-D head and tail, and each scale's
draw size per C, d and D) in its memo, so a sweep computes them at most
once per (instance, eps). It keeps doubling_net's report per (C, seed,
D, d) too, so the fallback of doubling_net_small_d, which makes the same
call, reads the doubling row's report rather than drawing again. A
builder called without dec= builds its own and keeps nothing past the
call.

One greedy scoring loop, _greedy_pick, serves every hitting set on a
column table it already holds: greedy_net and the repairs on the space's
incidence columns, and the exact search's incumbent on the columns
_reduce built for its masks.

The minimum net is a minimum hitting set of the heavy ranges: reduction
rules, then a branch and bound over index masks that, past
EXACT_NET_NODES, answers its incumbent with a lower end. One superset
filter, _minimal_masks, keeps the inclusion-minimal masks of a family by
ANDing incidence columns: min_net_exact runs it over the heavy ranges in
measure order on the space's own columns, and _reduce on columns of the
masks it has left, which the search reads. Every builder and the
verifier reject an eps outside (0, 1] before any work.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Callable

from .core import (
    DRAW_BLOCK,
    Budget,
    InstanceError,
    RangeSpace,
    TheoremViolationError,
    _add,
    _at_least,
    _unit_eps,
    _weigher,
    ceil_log2,
    components,
    draw_mask,
    draw_points,
    format_rational,
    hit_mask,
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
EXACT_NET_NODES = 5_000_000  # branch-and-bound budget of min_net_exact


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


def verify_net(
    space: RangeSpace,
    candidate,
    eps: Fraction,
    method: str = "verify",
    stats: dict | None = None,
) -> NetReport:
    """Exact check that candidate hits every range of measure >= eps.

    Candidate points must be ints (not bools or floats) in the support; a
    zero-weight point is an error, not a silent pass.
    """
    eps = _unit_eps(eps)
    pts = set(candidate)
    for p in pts:
        if type(p) is not int:
            raise InstanceError(f"candidate point {p!r} is not an integer")
    for p in sorted(pts):
        if not 0 <= p < space.n:
            raise InstanceError(f"candidate point {p} outside 0..{space.n - 1}")
        if space.weights[p] == 0:
            raise InstanceError(f"candidate point {p} has zero weight")
    return _report(space, mask_of(pts), eps, method, stats or {})


def _report(
    space: RangeSpace, mask: int, eps: Fraction, method: str, stats: dict
) -> NetReport:
    """verify_net's report step, which the builders call on their own net
    mask: its points are support points by construction and eps is in
    (0, 1]. The ranges the net meets are the OR of its points' incidence
    columns, and the heavy ranges it misses are its violations."""
    pts = tuple(iter_bits(mask))
    cols = space.incidence
    hits = 0
    for p in pts:
        hits |= cols[p]
    violations = tuple(iter_bits(space.ranges_at_least(eps) & ~hits))
    return NetReport(method, eps, pts, not violations, violations, stats)


def _greedy_pick(cols, cands: list[int], todo: int) -> list[int]:
    """Points of cands chosen greedily until every bit of todo is hit,
    where cols[p] is the bitmask of what point p hits: most new hits,
    popcount(cols[p] & todo), first, ties to the earliest candidate. A
    bit no candidate hits is a ValueError."""
    chosen: list[int] = []
    while todo:
        best_p, best = -1, 0
        for p in cands:
            c = (cols[p] & todo).bit_count()
            if c > best:
                best_p, best = p, c
        if not best:
            raise ValueError("a hitting-set target has no support point")
        chosen.append(best_p)
        todo &= ~cols[best_p]
    return chosen


def _scale_nets(
    space: RangeSpace, dec: DyadicDecomposition, scales: range, groups,
    rng=None, size=None,
) -> tuple[int, list[int], list[int]]:
    """Per scale b in scales: draw size(b) points with rng into the bucket
    union (no draw when size is None), then greedily finish each group
    in turn on top. groups(b) is (qs, group): group j has the point mask
    qs[j] = Q (-1 for all points) and group(j) = g, a bitmask over range
    indices of ranges R that each have a support point in Q. g is read
    only while Q holds a support point the net lacks: otherwise the net
    meets every R of g in Q already. The columns of the net's points in Q
    are cleared from g, leaving the ranges whose trace R & Q the net
    misses, and _greedy_pick hits them from the support points of Q the
    net lacks, scored by cols[p] & g. A scale whose bucket is empty or
    whose union holds no support point is skipped. Returns the net mask
    and, per scale, the draws made and the points the repair added."""
    cols, support = space.incidence, space.support_mask
    net_mask = 0
    draws, added = [], []
    for b in scales:
        union = dec.unions[b]
        m = k = 0
        if dec.buckets[b] and support & union:
            if size is not None:
                m = size(b)
                net_mask |= draw_mask(space, m, rng, within_mask=union)
            qs, group = groups(b)
            for j, q in enumerate(qs):
                free = q & support & ~net_mask
                if not free:
                    continue
                g = group(j)
                for x in iter_bits(q & net_mask):
                    g &= ~cols[x]
                if g:
                    pts = _greedy_pick(cols, list(iter_bits(free)), g)
                    k += len(pts)
                    net_mask |= mask_of(pts)
        draws.append(m)
        added.append(k)
    return net_mask, draws, added


def _dyadic_report(
    space: RangeSpace, dec: DyadicDecomposition, method: str, scales: range,
    groups, size, stats: dict,
) -> NetReport:
    """The dyadic builders' report step: _scale_nets over scales on the
    stream stream_rng(stats["seed"], method), its per-scale draws and
    repair points and dec's taus and z added to stats, then _report."""
    net_mask, level_draws, added = _scale_nets(
        space, dec, scales, groups, stream_rng(stats["seed"], method), size
    )
    stats.update(draws=sum(level_draws), level_draws=level_draws,
                 repair_points=sum(added), taus=list(dec.taus), z=dec.z)
    return _report(space, net_mask, dec.eps, method, stats)


def _quarter_group(space: RangeSpace, bucket: int, rq: int, wq: int) -> int:
    """The bitmask over range indices of the ranges R of bucket with
    4 w(R & Q) >= w(Q), Q = rq of weight wq > 0, read from bit-sliced
    counters over range indices: each point x of Q adds its weight at the
    bucket ranges holding x (core._add), and the group holds the counters
    at least ceil(wq/4) >= 1 (core._at_least)."""
    cols, weights = space.incidence, space.weights
    planes = [0] * wq.bit_length()  # every count is at most wq
    for x in iter_bits(rq):
        _add(planes, cols[x] & bucket, weights[x])
    return _at_least(planes, -(-wq // 4))


def _quarter_groups(
    space: RangeSpace, dec: DyadicDecomposition, b: int
) -> tuple[tuple[int, ...], Callable[[int], int]]:
    """The point masks Q of the members of a greedy maximal sep-packing
    of bucket b >= 1 of dec, sep = levels[b - 1], and group, where
    group(j) is member j's quarter group: the bitmask over range indices
    of the bucket ranges R with 4 w(R & Q) >= w(Q) (_quarter_group),
    built on the first call for j and kept. Kept in dec.memo, so a group
    is built at most once per decomposition, and only if the repair
    reads it.

    Maximality forces every bucket range to share a quarter of some
    member's weight. That is checked here, apart from the groups, by a
    first fit per bucket range in index order over the members; a range
    with no such member, the lowest such index, is a
    TheoremViolationError.
    """
    key = ("quarter", b)
    if key in dec.memo:
        return dec.memo[key]
    bucket, sep = dec.masks[b], dec.levels[b - 1]
    members = greedy_packing(space, sep, list(dec.buckets[b])).members
    ranges, weigh = space.ranges, _weigher(space)
    quarters = [(ranges[q], space.range_weights[q]) for q in members]
    for i in dec.buckets[b]:
        ri = ranges[i]
        for rq, wq in quarters:
            if 4 * weigh(ri & rq) >= wq:
                break
        else:
            raise TheoremViolationError(
                f"range {i} shares no quarter-mass packing member at scale {sep}"
            )
    built: list[int | None] = [None] * len(members)

    def group(j):
        g = built[j]
        if g is None:
            g = built[j] = _quarter_group(space, bucket, *quarters[j])
        return g

    dec.memo[key] = tuple(rq for rq, _ in quarters), group
    return dec.memo[key]


# -- dyadic decomposition ----------------------------------------------------


@dataclass(frozen=True)
class DyadicDecomposition:
    """The dyadic buckets of one space at one eps, each as its ascending
    range indices and as their bitmask. The builders handed one shared
    decomposition (the dec= argument) keep in memo, the first time one
    asks, what depends on (space, eps) and their own inputs alone, so
    they compute it once: each scale's packing and its members' quarter
    groups, each built when a repair first reads it, the small-D
    builder's head and tail per cut, each scale's draw size per builder
    and (C, d, D) it reads, and doubling_net's report per (C, seed, D,
    d), which the small-D fallback reuses. It records the space it was
    built for, and keeps nothing on it."""

    space: RangeSpace = field(compare=False, repr=False)
    eps: Fraction
    z: int
    levels: tuple[Fraction, ...]  # scale i -> min(2^i eps, 1), i = 0..z
    buckets: tuple[tuple[int, ...], ...]  # per scale, indices of its ranges
    masks: tuple[int, ...]  # per scale, bitmask over those indices
    unions: tuple[int, ...]  # per scale, union mask of its bucket
    taus: tuple[Fraction, ...]  # capacity at each scale, i = 0..z
    memo: dict = field(default_factory=dict, compare=False, repr=False)


def _decomposition(
    space: RangeSpace, eps: Fraction, dec: DyadicDecomposition | None
) -> DyadicDecomposition:
    """dec when given, else a new one. A dec built for another space or
    another eps is a ValueError."""
    if dec is None:
        return build_decomposition(space, eps)
    if dec.eps != eps:
        raise ValueError(f"decomposition is at scale {dec.eps}, not {eps}")
    if dec.space != space:
        raise ValueError("decomposition was built for another space")
    return dec


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
    # The same cuts as range-index masks: the ranges at or past each.
    every = (1 << len(order)) - 1
    past = [every] + [space.ranges_at_least(lv) for lv in levels[:z]] + [0]
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
    masks = tuple(past[b] ^ past[b + 1] for b in range(z + 1))
    return DyadicDecomposition(
        space, eps, z, levels, tuple(buckets), masks, tuple(unions), taus,
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
        * max(math.log(1 / _float_unit(eps)), LN2)
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
    return max(d, 1) * max(D, 1.0) * max(math.log(1 / (_float_unit(eps) * max(D, 1.0))), LN2)


def _check_C(C: float) -> None:
    """A ValueError unless the sample-size constant C is positive and
    finite; every sizing checks it before any work."""
    if not (C > 0 and math.isfinite(C)):
        raise ValueError(f"C must be positive and finite, got {C!r}")


def _float_unit(q, name: str = "eps") -> float:
    """float(q) for q in (0, 1] (core._unit_eps), which the size formulas
    divide by: a q that underflows to 0.0 is a ValueError naming it."""
    if x := float(_unit_eps(q, name)):
        return x
    raise ValueError(f"{name} is below the smallest positive float")


def _inputs(
    space: RangeSpace, eps, C: float, d: int | None, D: float | None = None
) -> tuple[Fraction, int]:
    """The sampling builders' input step: eps in (0, 1], C positive and
    finite and a given D finite, else a ValueError before any work; then
    eps as a Fraction and d, the VC walk's lower end when None."""
    eps = _unit_eps(eps)
    _check_C(C)
    if D is not None and not math.isfinite(D):
        raise ValueError(f"D must be finite, got {D!r}")
    if d is None:
        d = vc_dimension(space).lower
    return eps, d


def _sizing_D(space: RangeSpace, eps: Fraction, D: float | None) -> float:
    """The doubling value a packing-guided sizing uses: D, or the upper
    end of doubling_constant(space, eps) when None, at least 1."""
    if D is None:
        D = float(doubling_constant(space, eps).upper)
    return max(D, 1.0)


def _draw_count(x: float) -> int:
    """ceil(x) as a number of draws: a ValueError when x is not finite or
    the count would exceed sys.maxsize, the most draws a sample can take."""
    if not math.isfinite(x) or x > sys.maxsize:
        raise ValueError(f"sample size {x} is not a finite draw count")
    return math.ceil(x)


def _scale_sizes(dec: DyadicDecomposition, key: tuple, count):
    """size(b) = count(b), kept in dec.memo under key per scale the first
    time scale b asks, so builders on one shared dec size each scale once
    and a skipped scale is never sized. key holds every input count reads
    besides dec."""
    sizes = dec.memo.setdefault(key, {})

    def size(b):
        m = sizes.get(b)
        if m is None:
            m = sizes[b] = count(b)
        return m

    return size


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
    eps, delta = _float_unit(eps), _float_unit(delta, "delta")
    _check_C(C)
    d = max(d, 0)
    if sizing == "vc":
        term = d * math.log(1 / eps)
    elif sizing == "capacity":
        if tau is None:
            raise ValueError("capacity sizing needs tau")
        term = d * math.log(float(tau))
    else:
        raise ValueError(f"unknown sizing: {sizing}")
    m = _draw_count(C * (term + math.log(1 / delta)) / eps)
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
    _float_unit(delta, "delta"), _float_unit(eps)  # the sizing's floats
    if sizing not in ("vc", "capacity"):
        raise ValueError(f"unknown sizing: {sizing}")
    eps, d = _inputs(space, eps, C, d)
    tau = alexander_capacity(space, eps) if sizing == "capacity" else None
    m = iid_sample_size(eps, delta, d, sizing, tau, C)
    # The stream is private to this draw, so the draws that cannot change
    # the sample are not skipped past.
    net_mask = hit_mask(space, m, stream_rng(seed, "iid", sizing))[0]
    stats = {"seed": seed, "draws": m, "sizing": sizing, "C": C, "d": d}
    if tau is not None:
        stats["tau"] = tau
    return _report(space, net_mask, eps, "iid", stats)


# -- stratified construction --------------------------------------------------


def stratified_net(
    space: RangeSpace,
    eps: Fraction,
    C: float = DEFAULT_C,
    seed: int = 0,
    d: int | None = None,
    dec: DyadicDecomposition | None = None,
) -> NetReport:
    """Per-bucket conditional sampling at scale 1/(2 tau_i).

    Every bucket member has conditional measure >= 1/(2 tau_i) inside its
    bucket union, so a conditional net at that scale hits the whole
    bucket. Each bucket gets one draw; buckets at scale >= 1 are then
    repaired greedily, so the result always verifies. Bucket 0 is
    sampled for size-accounting parity but needs no hits.

    dec is build_decomposition(space, eps), built here when None; a
    caller running several seeds or builders at one eps can pass one,
    which keeps each scale's draw size per (C, d).
    """
    eps, d = _inputs(space, eps, C, d)
    d_eff = max(d, 1)
    dec = _decomposition(space, eps, dec)

    def count(b):
        level_eps = Fraction(1, 2) / dec.taus[b]  # conditional scale 1/(2 tau)
        return _draw_count(
            C * (d_eff * math.log(1 / float(level_eps)) + LN2) / float(level_eps)
        )

    # Bucket 0 has no hitting requirement below the base scale.
    return _dyadic_report(
        space, dec, "stratified", range(dec.z + 1),
        lambda b: ((-1,), lambda j: dec.masks[b]) if b else ((), None),
        _scale_sizes(dec, ("stratified-sizes", C, d_eff), count),
        {"seed": seed, "C": C, "d": d},
    )


# -- packing-guided construction ----------------------------------------------


def doubling_net(
    space: RangeSpace,
    eps: Fraction,
    C: float = DEFAULT_C,
    seed: int = 0,
    D: float | None = None,
    d: int | None = None,
    dec: DyadicDecomposition | None = None,
) -> NetReport:
    """Packing-guided construction with a deterministic repair step.

    Per scale i >= 1: take a greedy maximal packing of the bucket at
    separation levels[i-1]; every bucket member then shares at least a
    quarter of some packing member's measure (asserted exactly). Draw one
    conditional sample sized C*(t_i + d)*tau_{i-1} with
    t_i = max(ln(D/tau_i), ln 2); whichever packing-member neighborhoods
    it fails to finely cover are finished off with greedy quarter-scale
    hitting sets, so the result always verifies. There are no redraws.

    dec is build_decomposition(space, eps), built here when None; a
    shared one keeps the packings, quarter groups and draw sizes of each
    scale, and the report per (C, seed, D, d), which a second call with
    the same inputs returns.
    """
    eps, d = _inputs(space, eps, C, d, D)
    d_eff = max(d, 1)
    D = _sizing_D(space, eps, D)
    dec = _decomposition(space, eps, dec)
    # The stats echo C, seed, D and d as given, so the key tells 8 from 8.0.
    key = ("doubling",) + tuple((type(v), v) for v in (C, seed, D, d))
    if key in dec.memo:
        return dec.memo[key]

    def count(b):
        t_i = max(math.log(D / float(dec.taus[b])), LN2)
        return _draw_count(C * (t_i + d_eff) * float(dec.taus[b - 1]))

    scales = range(1, dec.z + 1)
    # Above scale 0 only an empty bucket is skipped.
    packing_sizes = [
        len(_quarter_groups(space, dec, b)[0]) if dec.buckets[b] else 0
        for b in scales
    ]
    # Per packing member, greedily finish the quarter-scale net of its
    # group inside the member.
    rep = _dyadic_report(
        space, dec, "doubling", scales,
        lambda b: _quarter_groups(space, dec, b),
        _scale_sizes(dec, ("doubling-sizes", C, d_eff, D), count),
        {"seed": seed, "C": C, "d": d, "D": D, "packing_sizes": packing_sizes},
    )
    dec.memo[key] = rep
    return rep


def _small_d_parts(space: RangeSpace, dec: DyadicDecomposition, i0: int):
    """The seed-free parts of doubling_net_small_d at the cut i0, kept in
    dec.memo: the head net mask (scales 1..i0, repaired from an empty
    net), its points added per scale, and the tail as (scale, subfamily,
    its decomposition, its doubling value), or None when no range lies
    above the cut."""
    key = ("small-d", i0)
    if key in dec.memo:
        return dec.memo[key]
    net_mask, _, member_net_sizes = _scale_nets(
        space, dec, range(1, i0 + 1), lambda b: _quarter_groups(space, dec, b)
    )
    tail = [i for b in range(i0 + 1, dec.z + 1) for i in dec.buckets[b]]
    tail_parts = None
    if tail:
        lam = dec.levels[i0]
        sub = space.subfamily(tail)
        tail_parts = (lam, sub, build_decomposition(sub, lam),
                      _sizing_D(sub, lam, None))
    dec.memo[key] = net_mask, tuple(member_net_sizes), tail_parts
    return dec.memo[key]


def doubling_net_small_d(
    space: RangeSpace,
    eps: Fraction,
    C: float = DEFAULT_C,
    seed: int = 0,
    D: float | None = None,
    d: int | None = None,
    dec: DyadicDecomposition | None = None,
) -> NetReport:
    """Variant for a small doubling constant (D <= 1/(2 eps)).

    Scales up to the cut i0 = ceil(log2(e/(D eps))) are covered by
    deterministic per-packing-member quarter-scale hitting sets (at most
    D members each); the remaining heavy ranges form a subfamily handled
    by the packing-guided builder at the rational scale levels[i0].
    Falls back to the plain builder outside the small-D regime.

    dec is build_decomposition(space, eps), built here when None; a
    shared one keeps the head and the tail's subfamily, decomposition
    and doubling value per cut, so only the tail's draw is per seed. The
    fallback hands it to doubling_net, so it reuses the report that a
    doubling call with the same seed, C, D and d kept there.
    """
    eps, d = _inputs(space, eps, C, d, D)
    D = _sizing_D(space, eps, D)
    DF = Fraction(D)  # exact binary value of the float
    if DF > Fraction(1, 2) / eps:
        rep = doubling_net(space, eps, C=C, seed=seed, D=D, d=d, dec=dec)
        return replace(rep, method="doubling-small",
                       stats={**rep.stats, "fallback": True})
    dec = _decomposition(space, eps, dec)
    # Rational cut: smallest i0 >= 1 with 2^i0 >= e/(D*eps), capped at z.
    i0 = max(min(ceil_log2(E_UPPER / (DF * eps)), dec.z), 1)
    net_mask, member_net_sizes, tail = _small_d_parts(space, dec, i0)
    tail_stats: dict = {"size": 0}
    if tail is not None:
        lam, sub, sub_dec, sub_D = tail
        tail_rep = doubling_net(sub, lam, C=C, seed=seed, D=sub_D, d=d,
                                dec=sub_dec)
        net_mask |= tail_rep.mask
        tail_stats = {"size": tail_rep.size, "scale": lam,
                      "draws": tail_rep.stats.get("draws", 0)}
    stats = {"seed": seed, "C": C, "d": d, "D": D, "i0": i0, "z": dec.z,
             "member_net_sizes": list(member_net_sizes), "tail": tail_stats,
             "draws": tail_stats.get("draws", 0)}
    return _report(space, net_mask, eps, "doubling-small", stats)


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
    which is exactly what the final verification reports. A budget_n that
    is not an int >= 1 (a bool included) is a ValueError before any work.
    """
    eps = _unit_eps(eps)
    if type(budget_n) is not int or budget_n < 1:
        raise ValueError(f"budget_n must be an integer >= 1, got {budget_n!r}")
    rng = stream_rng(seed, "cal")
    cols = space.incidence
    # Over range indices; a range of measure 0 can never be hit by a draw.
    surviving = space.ranges_at_least(Fraction(1, space.total_weight))
    kept: list[int] = []
    drawn = 0
    guard = min(1 << min(budget_n, 64), DRAW_CAP)
    # The stream is private and dropped after the loop, so points are
    # drawn in doubling chunks and drawn counts only those looked at.
    chunk = space.support_mask.bit_count()
    while len(kept) < budget_n and drawn < guard and surviving:
        for p in draw_points(space, min(chunk, guard - drawn), rng):
            drawn += 1
            hit = surviving & cols[p]
            if hit:
                kept.append(p)
                surviving ^= hit
                if len(kept) == budget_n or not surviving:
                    break
        chunk = min(2 * chunk, DRAW_BLOCK)
    stats = {
        "seed": seed,
        "kept": len(kept),
        "draws": drawn,
        "surviving": surviving.bit_count(),
        "budget_n": budget_n,
        "guard": guard,
    }
    return _report(space, mask_of(kept), eps, "cal", stats)


# -- oracles -------------------------------------------------------------------


def greedy_net(space: RangeSpace, eps: Fraction) -> NetReport:
    """Deterministic greedy hitting set over the qualifying ranges,
    scored on the space's incidence index masked by the heavy ranges."""
    eps = _unit_eps(eps)
    heavy = space.ranges_at_least(eps)
    cols = space.incidence
    cands = [p for p in iter_bits(space.support_mask) if cols[p] & heavy]
    pts = _greedy_pick(cols, cands, heavy)
    return _report(space, mask_of(pts), eps, "greedy",
                   {"draws": 0, "targets": heavy.bit_count()})


def _disjoint_bound(masks: list[int], cols, todo: int) -> int:
    """How many masks indexed by todo a first fit in index order keeps
    pairwise disjoint (an index drops once a kept mask meets it, by the OR
    of that mask's points' cols): no hitting set of them is smaller."""
    bound = 0
    while todo:
        meet = 0
        for p in iter_bits(masks[(todo & -todo).bit_length() - 1]):
            meet |= cols[p]
        todo &= ~meet
        bound += 1
    return bound


def _min_hit_component(
    kept: list[int], cols, comp: int, budget: Budget
) -> tuple[list[int], int]:
    """Minimum hitting set of the masks of kept (sorted by size and value,
    cols their columns, as _reduce returns them) in component comp, by
    branch and bound on index masks from a greedy incumbent, and a lower
    end: its size, or after a trip the root's disjoint bound. The pivot is
    the lowest uncovered index, the first smallest mask."""
    todo = 0
    for p in iter_bits(comp):
        todo |= cols[p]
    best = _greedy_pick(cols, list(iter_bits(comp)), todo)

    def rec(unc: int, chosen: list[int]) -> None:
        nonlocal best
        budget.spend()
        if not unc:
            if len(chosen) < len(best):
                best = list(chosen)
            return
        if len(chosen) + _disjoint_bound(kept, cols, unc) >= len(best):
            return
        pivot = kept[(unc & -unc).bit_length() - 1]
        for p in sorted(iter_bits(pivot),
                        key=lambda p: (-(cols[p] & unc).bit_count(), p)):
            chosen.append(p)
            rec(unc & ~cols[p], chosen)
            chosen.pop()

    if budget.run(rec, todo, []):
        return best, len(best)
    return best, _disjoint_bound(kept, cols, todo)


def _minimal_masks(
    masks, order, cols, alive: int, within: int = -1
) -> list[int]:
    """The inclusion-minimal distinct masks among masks[i] & within for the
    indices i set in alive: walk order and keep each masks[i] & within
    still alive when reached, dropping from alive at once every index
    whose mask holds all of its points, the AND of cols[p] (the bitmask
    over indices of the masks holding p) over them. order must put each
    proper subset before its supersets, as ascending size or, with every
    point of within weighted > 0, ascending weight does; then a superset
    dies before its turn, and of equal masks the first is kept."""
    kept: list[int] = []
    for i in order:
        if not alive:
            break
        if alive >> i & 1:
            m = masks[i] & within
            sup = alive
            for p in iter_bits(m):
                sup &= cols[p]
            alive ^= sup
            kept.append(m)
    return kept


def _reduce(masks: list[int], n: int) -> tuple[int, list[int], list[int]]:
    """Weihe's hitting-set reduction rules ("Covering trains by
    stations", ALENEX 1998) on nonempty point masks, to a fixpoint: take
    the point of a one-point mask and drop the masks it hits; drop a mask
    that contains another (_minimal_masks over the distinct masks left,
    sorted by size and value); drop a point from every mask when another
    point lies in all of its masks (the rest of their intersection),
    keeping the lowest of points with equal columns. Domination is a
    strict order, so every dropped point keeps a dominator and the
    minimum is preserved. Returns the taken points' mask, the masks left,
    sorted by size and value, and the last round's columns of them."""
    taken = 0
    while True:
        single = 0
        for m in masks:
            if not m & (m - 1):
                single |= m
        taken |= single
        cands = sorted({m for m in masks if not m & single})
        cands.sort(key=int.bit_count)
        cols = incidence_columns(cands, n)
        masks = _minimal_masks(cands, range(len(cands)), cols,
                               (1 << len(cands)) - 1)
        if len(masks) < len(cands):
            cols = incidence_columns(masks, n)
        drop = 0
        for p, col in enumerate(cols):
            if not col:
                continue
            common = -1
            for i in iter_bits(col):
                common &= masks[i]
            for q in iter_bits(common & ~(1 << p)):
                if q < p or cols[q] != col:
                    drop |= 1 << p
                    break
        if not drop:
            return taken, masks, cols
        masks = [m & ~drop for m in masks]


def min_net_exact(space: RangeSpace, eps: Fraction) -> NetReport:
    """Minimum-cardinality net: a minimum hitting set of the heavy ranges
    restricted to the support. Only their inclusion-minimal distinct
    masks matter, since a net that hits those hits every heavy range:
    _minimal_masks walks the heavy ranges in measure order, where every
    support point weighs > 0, on the space's incidence columns. Those
    masks are reduced once by _reduce, whose taken points lie in every
    minimum; each point-sharing component of what is left is solved by
    branch and bound on _reduce's columns within one budget of
    EXACT_NET_NODES nodes. Past it the net is the incumbent, and stat
    lower (present only below the size) sums the taken points and the
    components' lower ends. The stat targets counts the distinct heavy
    masks within the support, and kept_after_pruning the masks the branch
    and bound sees.
    """
    eps = _unit_eps(eps)
    support, heavy = space.support_mask, space.ranges_at_least(eps)
    minimal = _minimal_masks(
        space.ranges, space.measure_order[space.count_below(eps):],
        space.incidence, heavy, support,
    )
    taken, kept, cols = _reduce(minimal, space.n)
    budget = Budget(EXACT_NET_NODES, "hitting-set search")
    lower = taken.bit_count()
    for comp in components(kept):
        best, low = _min_hit_component(kept, cols, comp, budget)
        taken, lower = taken | mask_of(best), lower + low
    targets = len({space.ranges[i] & support for i in iter_bits(heavy)})
    stats = {"draws": 0, "targets": targets, "kept_after_pruning": len(kept)}
    if lower < taken.bit_count():
        stats["lower"] = lower
    return _report(space, taken, eps, "exact", stats)
