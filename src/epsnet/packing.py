"""Packings under the symmetric-difference metric and the packing bound.

A delta-packing is a set of ranges with pairwise rho >= delta. Finding
the largest one is a max clique in the "far graph"; small instances get
an exact branch-and-bound with greedy coloring, larger ones a seeded
greedy lower bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from operator import itemgetter

from .core import (
    CapExceededError,
    RangeSpace,
    TheoremViolationError,
    draw_points,
    stream_rng,
)

DEFAULT_CLIQUE_CAP = 400
DEFAULT_CLIQUE_NODES = 200_000

# e > 2718281828/10^9, used for exact-rational bound certificates.
E_LOWER = Fraction(2718281828, 10**9)
E_UPPER = Fraction(2718281829, 10**9)


def max_clique(adj: list[int], lower_bound: int = 0) -> tuple[int, tuple[int, ...]]:
    """Exact maximum clique of a graph given as adjacency bitmasks.

    Branch and bound: vertices ordered by descending degree, greedy
    coloring of each candidate set gives the pruning bound. lower_bound
    primes the incumbent size (the returned members may then be empty if
    nothing beats it). A search that would expand more than
    DEFAULT_CLIQUE_NODES nodes raises CapExceededError carrying the nodes
    spent.
    """
    budget = DEFAULT_CLIQUE_NODES
    n = len(adj)
    if n == 0:
        return 0, ()
    order = sorted(range(n), key=lambda v: adj[v].bit_count(), reverse=True)
    pos = {v: i for i, v in enumerate(order)}
    # Relabel so bit i corresponds to order[i]; candidate masks then shrink
    # toward high bits as the search deepens. The bit permutation runs on
    # binary strings, where character n-1-k holds bit k.
    pick = itemgetter(*[n - 1 - order[n - 1 - k] for k in range(n)])
    radj = [0] * n
    for v in range(n):
        radj[pos[v]] = int("".join(pick(format(adj[v], f"0{n}b"))), 2)

    best = lower_bound
    best_members: tuple[int, ...] = ()

    non_adj = [~a for a in radj]

    def color_bound(cand: int) -> list[tuple[int, int]]:
        """(vertex, color) pairs, colors 1-based, sorted by color asc."""
        out = []
        color = 0
        rest = cand
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

    nodes = 0

    def expand(cand: int, clique: list[int]) -> None:
        nonlocal best, best_members, nodes
        if nodes == budget:
            raise CapExceededError(
                f"max clique search exceeded its budget of {budget} "
                f"nodes", spent=nodes,
            )
        nodes += 1
        colored = color_bound(cand)
        for i in range(len(colored) - 1, -1, -1):
            v, c = colored[i]
            if len(clique) + c <= best:
                return
            clique.append(v)
            nxt = cand & radj[v]
            if nxt:
                expand(nxt, clique)
            elif len(clique) > best:
                best = len(clique)
                best_members = tuple(clique)
            clique.pop()
            cand &= ~(1 << v)

    try:
        expand((1 << n) - 1, [])
    finally:
        # expand refers to itself; dropping the name breaks that cycle so
        # the search tables are freed now rather than at a full collection.
        del expand
    return best, tuple(sorted(order[i] for i in best_members))


@dataclass(frozen=True)
class Packing:
    delta: Fraction
    members: tuple[int, ...]  # range indices
    exact: bool


def far_adjacency(space: RangeSpace, indices: list[int], delta: Fraction) -> list[int]:
    """Adjacency bitmasks over positions in indices of the far graph:
    an edge joins two ranges at distance rho >= delta."""
    k = len(indices)
    adj = [0] * k
    far = space.ceil_weight(delta)
    masks = [space.ranges[i] for i in indices]
    for a in range(k):
        for b in range(a + 1, k):
            if space.mask_weight(masks[a] ^ masks[b]) >= far:
                adj[a] |= 1 << b
                adj[b] |= 1 << a
    return adj


def greedy_packing(
    space: RangeSpace,
    delta: Fraction,
    indices: list[int] | None = None,
    rng=None,
    shuffle: bool = False,
) -> Packing:
    """Maximal (not maximum) delta-packing by a single greedy sweep.

    Deterministic first-fit in index order unless shuffle is set.
    Maximality means every range is within delta of some chosen one.
    """
    delta = Fraction(delta)
    if indices is None:
        indices = list(range(len(space.ranges)))
    order = list(indices)
    if shuffle:
        if rng is None:
            rng = stream_rng(0, "packing")
        rng.shuffle(order)
    far = space.ceil_weight(delta)
    chosen: list[int] = []
    for i in order:
        ri = space.ranges[i]
        if all(space.mask_weight(ri ^ space.ranges[j]) >= far for j in chosen):
            chosen.append(i)
    return Packing(delta, tuple(sorted(chosen)), False)


def max_packing_exact(
    space: RangeSpace,
    delta: Fraction,
    indices: list[int] | None = None,
    cap: int = DEFAULT_CLIQUE_CAP,
) -> Packing:
    """Maximum delta-packing via exact max clique of the far graph.
    Raises CapExceededError over the range cap or the clique node budget."""
    delta = Fraction(delta)
    if indices is None:
        indices = list(range(len(space.ranges)))
    if len(indices) > cap:
        raise CapExceededError(
            f"exact packing capped at {cap} ranges, got {len(indices)}"
        )
    if not indices:
        return Packing(delta, (), True)
    adj = far_adjacency(space, indices, delta)
    # Seed the incumbent with the greedy solution so pruning bites early.
    greedy = greedy_packing(space, delta, indices)
    greedy_local = [indices.index(i) for i in greedy.members]
    size, members = max_clique(adj, lower_bound=len(greedy_local) - 1)
    if size < len(greedy_local):
        members = tuple(greedy_local)
    return Packing(delta, tuple(sorted(indices[v] for v in members)), True)


@dataclass(frozen=True)
class HausslerReport:
    delta: Fraction
    packing: Packing  # the packing the bound was checked on
    d_packed: int
    bound: float
    ok: bool

    @property
    def packing_size(self) -> int:
        return len(self.packing.members)

    @property
    def packing_exact(self) -> bool:
        return self.packing.exact


def haussler_certificate(
    space: RangeSpace,
    delta: Fraction,
    cap: int = DEFAULT_CLIQUE_CAP,
    strict: bool = True,
) -> HausslerReport:
    """Check the packing bound: any delta-packing has size at most
    e(d+1) * (2e/delta)^d where d is the dimension of the packed family.

    Uses the exact maximum packing when it fits under cap and the clique
    node budget (else greedy, which still must obey the bound). strict
    raises on violation.
    """
    delta = Fraction(delta)
    if not 0 < delta <= 1:
        raise ValueError(f"delta must be in (0, 1], got {delta}")
    try:
        packing = max_packing_exact(space, delta, cap=cap)
    except CapExceededError:
        packing = greedy_packing(space, delta)
    if not packing.members:
        return HausslerReport(delta, packing, -1, 0.0, True)
    from .complexity import vc_dimension  # local import avoids a cycle

    sub = space.subfamily(packing.members)
    d = max(vc_dimension(sub).value, 0)
    if d == 0:
        bound = math.e * 1.0
    else:
        bound = math.e * (d + 1) * (2 * math.e / float(delta)) ** d
    ok = len(packing.members) <= bound * (1 + 1e-9)
    if strict and not ok:
        raise TheoremViolationError(
            f"packing bound failed: {len(packing.members)} ranges at "
            f"delta={delta} vs bound {bound:.3f} (d={d})"
        )
    return HausslerReport(delta, packing, d, bound, ok)


def projection_count_estimate(
    space: RangeSpace,
    delta: Fraction,
    sample_size: int | None = None,
    trials: int = 64,
    slack: Fraction = Fraction(1, 2),
    seed: int = 0,
    strict: bool = True,
) -> dict:
    """Certify the expected-trace-count step behind the packing bound.

    For a delta-separated family F and i.i.d. sample A of size
    ceil(2d/(delta*slack)), the family size obeys
    |F| <= E|F restricted to A| / (1 - slack). The expectation is
    estimated by trials draws; strict mode raises if the empirical
    mean violates the inequality with generous tolerance (3 sigma).
    """
    from .complexity import vc_dimension

    delta = Fraction(delta)
    packing = max_packing_exact(space, delta)
    if len(packing.members) <= 1:
        return {"family": len(packing.members), "ok": True, "mean": None,
                "sample_size": 0, "trials": 0}
    sub = space.subfamily(packing.members)
    d = max(vc_dimension(sub).value, 1)
    if sample_size is None:
        sample_size = math.ceil(Fraction(2 * d) / (delta * slack))
    rng = stream_rng(seed, "lemma-traces")
    fam = len(packing.members)
    counts = []
    for _ in range(trials):
        pts = draw_points(space, sample_size, rng)
        amask = 0
        for p in pts:
            amask |= 1 << p
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


def dudley_style_bound(d: int, delta: Fraction) -> float:
    """The cruder chaining-free packing estimate (c/delta)^{2d} with c = 2e,
    for comparison against the refined e(d+1)(2e/delta)^d."""
    if d <= 0:
        return math.e
    return (2 * math.e / float(delta)) ** (2 * d)


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
