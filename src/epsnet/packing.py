"""Packings under the symmetric-difference metric and the packing bound.

A delta-packing is a set of ranges with pairwise rho >= delta. Finding
the largest one is a max clique in the "far graph". FarGraph, which
exact doubling reads too, sums every pair's distance at once in
bit-sliced counters and gives the graph at a threshold by one comparison
with them. max_clique is an exact branch-and-bound with greedy
colouring, limited by DEFAULT_CLIQUE_NODES search nodes alone. When a
greedy colouring in vertex order needs no more classes than the lower
bound a caller asks max_clique to beat, no clique beats it, and the call
returns at once without spending a node. Before it branches on a vertex
of the lowest colour it may branch on, the search runs unit propagation
over the colour classes below (Li and Quan, AAAI 2010); a conflict
settles that branch for one node, the node the search without
propagation would have spent first on it. So an exact answer, members
included, is the one that search gives, and a search trips only where
that search trips, with an incumbent at least as large. Its core.Budget
catches the trip, and max_clique answers a core.Bound either way, its
witness the clique, after a trip the incumbent below a greedy
colouring's class count. max_packing_exact labels its packing with the
Bound's exact, and doubling_constant reads both ends.

greedy_packing and max_packing_exact check that delta is in (0, 1].
haussler_certificate and projection_count_estimate check the packing
bound and the step behind it on a Packing they are handed, with its
delta; neither runs a packing search.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from struct import unpack_from
from typing import Sequence

from .core import (
    Bound,
    Budget,
    RangeSpace,
    TheoremViolationError,
    _add,
    _at_least,
    _float_unit,
    _unit_eps,
    _weigher,
    draw_mask,
    incidence_columns,
    point_lanes,
    stream_rng,
)

DEFAULT_CLIQUE_NODES = 200_000

# e < E_UPPER, used for exact-rational bound certificates.
E_UPPER = Fraction(2718281829, 10**9)

# FarGraph cuts its distance planes into spans of rows of at most this
# many pair bits (128 KiB).
_SPAN_BITS = 1 << 20


def _colour(cand: int, non_adj: list[int], kmin: int = 0,
            classes: list[int] | None = None) -> list[tuple[int, int]]:
    """Sequential greedy colouring of the vertices in cand, lowest bit
    first: (vertex, colour) pairs for the colours above kmin, colours
    1-based and ascending. Each colour class is independent, so a clique
    meets each at most once and the last colour bounds the clique number
    of the graph cand induces. The classes up to kmin are built by bit
    operations alone and never listed (San Segundo et al., BBMC, 2011): a
    search that needs more than kmin further vertices never branches on
    them. Given a list as classes, their bitmasks are appended to it in
    colour order."""
    out = []
    color = 0
    rest = cand
    while rest and color < kmin:
        color += 1
        avail = uncoloured = rest
        while avail:
            low = avail & -avail
            rest ^= low
            avail = (avail ^ low) & non_adj[low.bit_length() - 1]
        if classes is not None:
            classes.append(uncoloured ^ rest)
    while rest:
        color += 1
        avail = rest
        while avail:
            low = avail & -avail
            v = low.bit_length() - 1
            out.append((v, color))
            avail = (avail ^ low) & non_adj[v]
            rest ^= low
    return out


def _refuted(cand: int, classes: list[int], adj: list[int]) -> bool:
    """Unit propagation over colour classes (Li and Quan, AAAI 2010): True
    proves that no clique in cand meets every class, False proves
    nothing. A class that meets cand in one vertex u forces u, and cand
    shrinks to u's neighbours; a class that meets it in none refutes.
    Each class is independent, so a forced class leaves cand once u is
    taken and needs no further look."""
    while True:
        unforced = []
        for cls in classes:
            left = cand & cls
            if not left:
                return True
            if left & (left - 1):
                unforced.append(cls)
            else:
                cand &= adj[left.bit_length() - 1]
        if len(unforced) == len(classes):
            return False
        classes = unforced


def colour_bound(adj: list[int]) -> int:
    """Class count of a greedy colouring in vertex order: a certified
    upper bound on the clique number of the graph."""
    if not adj:
        return 0
    return _colour((1 << len(adj)) - 1, [~a for a in adj])[-1][1]


def _relabel(adj: list[int], order: list[int]) -> list[int]:
    """The symmetric graph adj with vertex order[i] renamed i: row i is
    adj[order[i]] with bit order[j] moved to bit j. Since adj is
    symmetric, column x of the reordered rows is vertex x's relabelled
    row, so one transpose does every move."""
    cols = incidence_columns([adj[v] for v in order], len(adj))
    return [cols[v] for v in order]


def max_clique(adj: list[int], lower_bound: int = 0) -> Bound:
    """Exact maximum clique of a graph given as adjacency bitmasks.

    Branch and bound: vertices ordered by descending degree, greedy
    colouring of each candidate set gives the pruning bound, and only
    the colours a node can still branch on are listed. With k = best -
    |clique| at node entry, a vertex v of colour k + 1 beats best only
    with one neighbour from each of the classes 1..k; unit propagation
    from v's neighbours over those classes (_refuted) that ends in a
    conflict drops v unsearched and spends one node for the child node
    it settles. Only branches that hold no improvement are cut and the
    branching order is kept, so every exact answer, members included,
    is the one the search without propagation returns; and since each
    node spent stands for a node that search spends in the same order,
    a search trips only where that one trips, never with a smaller
    incumbent.

    adj must be symmetric; a vertex in its own row or a neighbour index
    >= n raises ValueError. lower_bound primes the incumbent size: the
    answer is the exact Bound(max(lower_bound, clique number)) with the
    clique's members as witness, empty when no clique beats lower_bound.
    A greedy colouring in vertex order (colour_bound's) comes first; if
    it needs no more than lower_bound classes, no clique beats it, and
    the call returns Bound(lower_bound, lower_bound) at once, before the
    degree sort and without spending a node. A search that would expand
    more than DEFAULT_CLIQUE_NODES nodes, or pass Python's recursion
    limit, stops and returns Bound(incumbent size, max(incumbent size,
    class count), members): the largest clique it found that beats
    lower_bound (members empty and size lower_bound if none did).
    """
    n = len(adj)
    for v, a in enumerate(adj):
        if a >> v & 1:
            raise ValueError(f"max clique: vertex {v} is its own neighbour")
        if a >> n:
            raise ValueError(f"max clique: vertex {v} has a neighbour "
                             f"index past its {n} vertices")
    coloured = _colour((1 << n) - 1, [~a for a in adj], lower_bound)
    if not coloured:
        # No vertex is coloured above lower_bound, so no clique beats it:
        # the search's own answer, settled before any node is spent.
        return Bound(lower_bound, lower_bound)
    order = sorted(range(n), key=lambda v: adj[v].bit_count(), reverse=True)
    # Candidate masks shrink toward high bits as the search deepens.
    radj = _relabel(adj, order)
    non_adj = [~a for a in radj]

    best = lower_bound
    best_members: tuple[int, ...] = ()
    budget = Budget(DEFAULT_CLIQUE_NODES, "max clique search")
    spend = budget.spend

    def expand(cand: int, clique: list[int]) -> None:
        nonlocal best, best_members
        spend()
        kmin = best - len(clique)
        classes: list[int] = []
        colored = _colour(cand, non_adj, kmin, classes)
        for i in range(len(colored) - 1, -1, -1):
            v, c = colored[i]
            if len(clique) + c <= best:
                return
            nxt = cand & radj[v]
            if c == kmin + 1 and nxt and _refuted(nxt, classes, radj):
                # Best is still the entry value here, so a clique through
                # v that beats it needs one vertex from each class up to
                # kmin, and propagation refuted that: the child node is
                # settled, and spends the one node it stands for.
                spend()
            else:
                clique.append(v)
                if nxt:
                    expand(nxt, clique)
                elif len(clique) > best:
                    best = len(clique)
                    best_members = tuple(clique)
                clique.pop()
            cand &= ~(1 << v)

    finished = budget.run(expand, (1 << n) - 1, [])
    # expand refers to itself; dropping the name breaks that cycle so the
    # search tables are freed now rather than at a full collection.
    del expand
    upper = best if finished else max(best, coloured[-1][1])
    return Bound(best, upper, tuple(sorted(order[i] for i in best_members)))


@dataclass(frozen=True)
class Packing:
    delta: Fraction
    members: tuple[int, ...]  # range indices
    exact: bool


class FarGraph:
    """Far graphs of masks at any threshold on the weight of their
    symmetric difference, read from bit-sliced distance counters.

    The distances are held in B = total_weight.bit_length() planes. Plane
    k holds bit k of every pair distance: the distances from mask p to
    every mask q are bit q of row p's big-endian block of `stride` bytes,
    and the rows lie end to end. A point x of weight w adds w to the
    pairs it separates: in row p, to the masks without x when p holds x,
    else to the masks with x. That term is one bytes join of two prebuilt
    row blocks, picked by x's lane of core.point_lanes, and a
    ripple-carry add (core._add) puts it at the planes of w's set bits.
    So every pair is summed at once, in a few big-int operations per
    point and no step per pair, and the planes take O(m^2 log W) bits.
    The diagonal and the padding of the row blocks hold 0, so
    core._at_least never counts them.

    The finished planes are cut into spans of rows of at most _SPAN_BITS
    pair bits, one big int per plane and span, so that what the readers
    hold besides the planes stays small. distances: the distinct pair
    distances, ascending, from a depth-first descent that splits a
    span's pairs by one plane at a time. rows compares each span's planes
    with the threshold, for all its pairs at once, and reads the first j
    row blocks of the result; it keeps the last comparison, which serves
    every threshold with the same count of distances below it.
    """

    def __init__(self, space: RangeSpace, masks: Sequence[int]) -> None:
        m = len(masks)
        full = (1 << m) - 1
        # Up to 64 masks a row is one 64-bit word, which struct unpacks
        # straight to an int.
        stride = 8 if m <= 64 else (m + 7) >> 3
        planes = [0] * space.total_weight.bit_length()
        # x's point lane marks the rows that hold x with "1", and read
        # backwards it is x's incidence column.
        for w, inside in zip(space.weights, point_lanes(masks, space.n) if m else ()):
            if not w:
                continue  # x adds nothing
            col = int(inside[::-1], 2)
            if col == 0 or col == full:
                continue  # x separates no pair
            sides = {48: col.to_bytes(stride, "big"),
                     49: (full ^ col).to_bytes(stride, "big")}
            term = int.from_bytes(b"".join(map(sides.__getitem__, inside)), "big")
            _add(planes, term, w)
        # Split the planes by spans of rows, one whole plane at a time.
        size = m * stride
        step = max(1, (_SPAN_BITS >> 3) // stride) * stride
        spans = [(a, min(size, a + step), []) for a in range(0, size, step)]
        for k, plane in enumerate(planes):
            planes[k] = 0
            whole = plane.to_bytes(size, "big")
            for a, b, sliced in spans:
                sliced.append(int.from_bytes(whole[a:b], "big"))
        # Every pair p != q: the far graph below the least distance.
        pairs = b"".join([(full ^ (1 << p)).to_bytes(stride, "big") for p in range(m)])
        self._spans, self._stride, self._pairs = spans, stride, pairs
        values: set[int] = set()
        for a, b, sliced in spans:
            held = int.from_bytes(pairs[a:b], "big")
            stack = [(held, len(sliced), 0)] if held else []
            while stack:
                held, k, value = stack.pop()
                if not k:
                    values.add(value)
                    continue
                k -= 1
                high = held & sliced[k]
                if high != held:
                    stack.append((held ^ high, k, value))
                if high:
                    stack.append((high, k, value | 1 << k))
        self.distances = sorted(values)
        # The graph last compared and the count of distances below its
        # threshold.
        self._below, self._bytes = 0, pairs

    def rows(self, j: int, threshold: int) -> list[int]:
        """Adjacency bitmasks on the first j masks of the far graph at
        threshold: the pairs at distance >= threshold. Thresholds may come
        in any order."""
        below = bisect_left(self.distances, threshold)
        if below != self._below:
            self._below, self._bytes = below, self._pairs
            if below:  # threshold > distances[0] >= 0, as _at_least needs
                self._bytes = b"".join([_at_least(sliced, threshold).to_bytes(b - a, "big")
                                        for a, b, sliced in self._spans])
        low, stride, data = (1 << j) - 1, self._stride, self._bytes
        if stride == 8:  # one word a row
            return list(map(low.__and__, unpack_from(f">{j}Q", data)))
        return [int.from_bytes(data[i:i + stride], "big") & low
                for i in range(0, j * stride, stride)]


def greedy_packing(
    space: RangeSpace,
    delta: Fraction,
    indices: list[int] | None = None,
) -> Packing:
    """Maximal (not maximum) delta-packing by a single greedy sweep.

    Deterministic first-fit in index order. Maximality means every range
    is within delta of some chosen one. A delta outside (0, 1] is a
    ValueError.
    """
    delta = _unit_eps(delta, "delta")
    if indices is None:
        indices = list(range(len(space.ranges)))
    far = space.ceil_weight(delta)
    ranges, weigh = space.ranges, _weigher(space)
    chosen: list[int] = []
    chosen_masks: list[int] = []
    for i in indices:
        ri = ranges[i]
        for rj in chosen_masks:
            if weigh(ri ^ rj) < far:
                break
        else:
            chosen.append(i)
            chosen_masks.append(ri)
    return Packing(delta, tuple(sorted(chosen)), False)


def max_packing_exact(space: RangeSpace, delta: Fraction) -> Packing:
    """Maximum delta-packing via exact max clique of the far graph. Past
    the clique node budget, the search's incumbent, or the greedy packing
    if it held none larger, labelled with the clique Bound's exact. A
    delta outside (0, 1] is a ValueError, from greedy_packing."""
    greedy = greedy_packing(space, delta)
    delta = greedy.delta
    far = FarGraph(space, space.ranges).rows(len(space.ranges), space.ceil_weight(delta))
    # Seed the incumbent with the greedy packing's size so pruning bites
    # early; any clique the search holds, even when it trips, is as large.
    clique = max_clique(far, lower_bound=len(greedy.members) - 1)
    return Packing(delta, clique.witness or greedy.members, clique.exact)


@dataclass(frozen=True)
class HausslerReport:
    packing: Packing  # the packing the bound was checked on
    d_packed: int
    bound: float
    ok: bool


def _packed_dimension(space: RangeSpace, packing: Packing) -> int:
    """VC dimension of the packed family, from the walk over its members'
    masks: the walk's upper end, which is the exact value unless the walk
    trips its budget. Both certificates stay certificates with an upper
    end, since the packing bound and the sample size grow with d."""
    from .complexity import vc_of_masks  # local import avoids a cycle

    return vc_of_masks([space.ranges[i] for i in packing.members], space.n).upper


def haussler_certificate(
    space: RangeSpace, packing: Packing, strict: bool = True
) -> HausslerReport:
    """Check the packing bound on the given packing: any delta-packing has
    size at most e(d+1) * (2e/delta)^d where d is the dimension of the
    packed family and delta is packing.delta.

    Runs no packing search: the caller passes the packing, from
    max_packing_exact or greedy_packing. strict raises on violation; at
    d >= 1 a delta whose float is 0.0 is a ValueError."""
    delta = packing.delta
    if not packing.members:
        return HausslerReport(packing, -1, 0.0, True)
    d = max(_packed_dimension(space, packing), 0)
    if d == 0:
        bound = math.e * 1.0
    else:
        bound = math.e * (d + 1) * (2 * math.e / _float_unit(delta, "delta")) ** d
    ok = len(packing.members) <= bound * (1 + 1e-9)
    if strict and not ok:
        raise TheoremViolationError(
            f"packing bound failed: {len(packing.members)} ranges at "
            f"delta={delta} vs bound {bound:.3f} (d={d})"
        )
    return HausslerReport(packing, d, bound, ok)


def projection_count_estimate(
    space: RangeSpace,
    packing: Packing,
    sample_size: int | None = None,
    trials: int = 64,
    slack: Fraction = Fraction(1, 2),
    seed: int = 0,
    strict: bool = True,
) -> dict:
    """Certify the expected-trace-count step behind the packing bound on
    the given packing.

    For the delta-separated family F of the packing's members, delta =
    packing.delta, and an i.i.d. sample A of size ceil(2d/(delta*slack)),
    the family size obeys |F| <= E|F restricted to A| / (1 - slack). The
    expectation is estimated by trials draws; strict mode raises if the
    empirical mean violates the inequality with generous tolerance (3
    sigma). Runs no packing search. A slack outside (0, 1) or fewer than
    one trial is a ValueError before any work.
    """
    if not 0 < slack < 1:
        raise ValueError(f"slack must be in (0, 1), got {slack}")
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    if len(packing.members) <= 1:
        return {"family": len(packing.members), "ok": True, "mean": None,
                "sample_size": 0, "trials": 0}
    d = max(_packed_dimension(space, packing), 1)
    if sample_size is None:
        sample_size = math.ceil(Fraction(2 * d) / (packing.delta * slack))
    rng = stream_rng(seed, "lemma-traces")
    fam = len(packing.members)
    counts = []
    for _ in range(trials):
        amask = draw_mask(space, sample_size, rng)
        counts.append(len({space.ranges[i] & amask for i in packing.members}))
    mean = sum(counts) / trials
    target = fam * (1 - float(slack))
    var = sum((c - mean) ** 2 for c in counts) / max(trials - 1, 1)
    sigma = math.sqrt(var / trials)
    ok = mean >= target - 3 * sigma - 1e-9
    if strict and not ok:
        raise TheoremViolationError(
            f"expected trace count {mean:.3f} below {target:.3f} - 3 sigma"
        )
    return {"family": fam, "ok": ok, "mean": mean,
            "sample_size": sample_size, "trials": trials, "d": d}


def haussler_optimization_identity(d: int) -> dict:
    """Exact-rational verification of the optimization step in the packing
    bound proof: over slack t in (0,1), the coefficient (d+1)/(t*(1-t)^d)
    is minimized at t = 1/(d+1), where it equals
    (d+1)^2 * ((d+1)/d)^d <= e * (d+1)^2.

    Checks the closed form exactly and the e-bound via a rational bound
    on e; also verifies t* beats a grid of nearby rationals.
    """
    if d < 1:
        raise ValueError("d must be >= 1")
    t_star = Fraction(1, d + 1)

    def coeff(t: Fraction) -> Fraction:
        return Fraction(d + 1) / (t * (1 - t) ** d)

    at_star = coeff(t_star)
    closed = Fraction(d + 1) ** 2 * (Fraction(d + 1, d)) ** d
    if at_star != closed:
        raise TheoremViolationError("closed form mismatch at t* = 1/(d+1)")
    # ((d+1)/d)^d increases to e, so closed <= E_UPPER * (d+1)^2 exactly.
    if not closed <= E_UPPER * (d + 1) ** 2:
        raise TheoremViolationError("((d+1)/d)^d exceeded rational e upper bound")
    grid_ok = all(
        coeff(t_star) <= coeff(t_star + Fraction(k, 64 * (d + 1)))
        for k in range(-32, 33)
        if k != 0 and 0 < t_star + Fraction(k, 64 * (d + 1)) < 1
    )
    if not grid_ok:
        raise TheoremViolationError("t* = 1/(d+1) is not a grid minimizer")
    return {
        "d": d,
        "t_star": t_star,
        "value": closed,
        "e_bound": E_UPPER * (d + 1) ** 2,
        "grid_ok": grid_ok,
    }
