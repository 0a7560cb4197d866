"""Independent brute-force oracles used to freeze expected values.

Everything here works on frozensets and direct enumeration, on purpose:
no bitmasks, no shared helpers with the package, so agreement is
evidence rather than tautology. The one-inclusion references read a
graph's vertices as the trace masks they are. Only run these at desk
scale.
"""

import math
from fractions import Fraction
from itertools import combinations, permutations, product


def as_sets(space):
    return [frozenset(_bits(r)) for r in space.ranges]


def _bits(mask):
    out = []
    i = 0
    while mask:
        if mask & 1:
            out.append(i)
        mask >>= 1
        i += 1
    return out


def oracle_incidence_columns(masks, n):
    """cols[x]: the masks containing point x, as a bitmask over their
    positions, one bit test per (point, mask) pair; bits at or past n
    are not points."""
    cols = []
    for x in range(n):
        col = 0
        for i, r in enumerate(masks):
            if r >> x & 1:
                col |= 1 << i
        cols.append(col)
    return cols


def oracle_far_rows(space, masks, threshold):
    """Far-graph rows over masks: bit q of row p is set when p != q and
    the symmetric difference of masks p and q weighs at least threshold,
    one pair at a time."""
    sets = [frozenset(_bits(r)) for r in masks]
    rows = []
    for p, a in enumerate(sets):
        row = 0
        for q, b in enumerate(sets):
            if p != q and set_weight(space, a ^ b) >= threshold:
                row |= 1 << q
        rows.append(row)
    return rows


class PairFarGraph:
    """The far-graph interface (distances, rows(j, threshold)) one pair at
    a time: distances are the distinct weights of the pairs' symmetric
    differences, and each rows call is oracle_far_rows on the first j
    masks, so thresholds may come in any order, as in FarGraph."""

    def __init__(self, space, masks):
        self.space, self.masks = space, list(masks)
        sets = [frozenset(_bits(r)) for r in self.masks]
        self.distances = sorted({set_weight(space, a ^ b)
                                 for a, b in combinations(sets, 2)})

    def rows(self, j, threshold):
        return oracle_far_rows(self.space, self.masks[:j], threshold)


def oracle_trace_vertices(space, sample):
    """Distinct traces on an ordered sample, one bit test per (range,
    sample position): bit j is set when sample[j] lies in the range."""
    out = set()
    for r in space.ranges:
        t = 0
        for j, p in enumerate(sample):
            if r >> p & 1:
                t |= 1 << j
        out.add(t)
    return tuple(sorted(out))


def set_weight(space, s):
    return sum(space.weights[p] for p in s)


def set_measure(space, s):
    return Fraction(set_weight(space, s), sum(space.weights))


def oracle_vc(space):
    """Largest shattered subset, by exhaustive enumeration."""
    fam = as_sets(space)
    if not fam:
        return -1
    best = 0
    ground = range(space.n)
    for size in range(1, space.n + 1):
        found = False
        for ys in combinations(ground, size):
            y = frozenset(ys)
            traces = {r & y for r in fam}
            if len(traces) == 2**size:
                best = size
                found = True
                break
        if not found:
            break
    return best


def oracle_pi(space, y):
    """Max distinct-trace count over subsets of size exactly y."""
    fam = as_sets(space)
    if y == 0:
        return 1 if fam else 0
    best = 0
    for ys in combinations(range(space.n), y):
        yset = frozenset(ys)
        best = max(best, len({r & yset for r in fam}))
    return best


def oracle_shallow(space, y, l):
    """Max count of traces of size <= l over subsets of size <= y."""
    fam = as_sets(space)
    if not fam:
        return 0
    best = 0
    for size in range(0, min(y, space.n) + 1):
        for ys in combinations(range(space.n), size):
            yset = frozenset(ys)
            traces = {r & yset for r in fam}
            best = max(best, sum(1 for t in traces if len(t) <= l))
    return best


def oracle_min_hitting(space, eps):
    """Smallest support subset meeting every range of measure >= eps."""
    eps = Fraction(eps)
    fam = [
        frozenset(_bits(r)) for i, r in enumerate(space.ranges)
        if space.measure(i) >= eps
    ]
    support = [p for p in range(space.n) if space.weights[p] > 0]
    for size in range(0, len(support) + 1):
        for pts in combinations(support, size):
            chosen = frozenset(pts)
            if all(r & chosen for r in fam):
                return size
    raise AssertionError("support itself always hits qualifying ranges")


def oracle_greedy_hitting(space, eps):
    """Greedy hitting set of the ranges of measure >= eps, one set per
    range (repeats count apart): pick the support point that meets the
    most ranges not yet hit, ties to the lowest point, until all are hit.
    The points in the order picked."""
    unhit = [s for s in as_sets(space) if set_measure(space, s) >= eps]
    support = [p for p in range(space.n) if space.weights[p] > 0]
    picked = []
    while unhit:
        best = max(support, key=lambda p: (sum(p in s for s in unhit), -p))
        if not any(best in s for s in unhit):
            raise AssertionError("a qualifying range holds no support point")
        picked.append(best)
        unhit = [s for s in unhit if best not in s]
    return picked


def oracle_max_packing(space, delta, eligible=None):
    """Largest pairwise delta-separated subfamily, by include/exclude
    recursion (every branch filters to the still-compatible tail)."""
    delta = Fraction(delta)
    fam = as_sets(space)
    idx = list(range(len(fam))) if eligible is None else list(eligible)

    def far(i, j):
        return set_measure(space, fam[i] ^ fam[j]) >= delta

    def rec(cands):
        if not cands:
            return 0
        first, rest = cands[0], cands[1:]
        with_first = 1 + rec([c for c in rest if far(first, c)])
        without = rec(rest) if len(rest) > with_first - 1 else 0
        return max(with_first, without)

    return rec(idx)


def oracle_clique_number(adj):
    """Clique number of the graph with adjacency rows adj: the largest
    vertex subset whose pairs are all edges, trying every subset from
    the largest size down."""
    n = len(adj)
    for size in range(n, 0, -1):
        for sub in combinations(range(n), size):
            if all(adj[a] >> b & 1 for a, b in combinations(sub, 2)):
                return size
    return 0


def oracle_tau(space, eps):
    """Capacity by dense scan: all range measures, eps, and midpoints."""
    eps = Fraction(eps)
    fam = as_sets(space)
    measures = sorted({set_measure(space, r) for r in fam})
    candidates = {eps, Fraction(1)}
    candidates.update(q for q in measures if eps <= q <= 1)
    ordered = sorted(candidates)
    for a, b in zip(ordered, ordered[1:]):
        candidates.add((a + b) / 2)

    def ratio(eps0):
        union = set()
        for r in fam:
            if set_measure(space, r) <= eps0:
                union |= r
        return set_measure(space, union) / eps0

    return max(
        max((ratio(e0) for e0 in candidates if eps <= e0 <= 1)), Fraction(1)
    )


def oracle_doubling(space, eps):
    """Doubling constant by dense scan over the same candidate scales."""
    eps = Fraction(eps)
    fam = as_sets(space)
    values = {eps, Fraction(1)}
    for r in fam:
        q = set_measure(space, r) / 2
        if eps <= q <= 1:
            values.add(q)
    for a, b in combinations(range(len(fam)), 2):
        q = set_measure(space, fam[a] ^ fam[b])
        if eps <= q <= 1:
            values.add(q)
    ordered = sorted(values)
    for a, b in zip(ordered, ordered[1:]):
        values.add((a + b) / 2)
    best = 0
    for eps0 in values:
        if not eps <= eps0 <= 1:
            continue
        eligible = [
            i for i, r in enumerate(fam)
            if set_measure(space, r) <= 2 * eps0
        ]
        if len(eligible) <= best:
            continue
        best = max(best, oracle_max_packing(space, eps0, eligible))
    return best


def oracle_star(space):
    """Largest set where each chosen point is isolated by some range."""
    fam = as_sets(space)
    if not fam:
        return 0
    best = 0
    for size in range(space.n, 0, -1):
        if size <= best:
            break
        for pts in combinations(range(space.n), size):
            t = frozenset(pts)
            if all(any(r & t == {x} for r in fam) for x in t):
                best = size
                break
    return best


def oracle_min_out_degree(n_vertices, edges):
    """Smallest max out-degree over all 2^|E| orientations of a graph
    given as (u, v, ...) edges: an orientation with out-degree <= d
    exists exactly when this is <= d."""
    best = len(edges)
    for pick in product((0, 1), repeat=len(edges)):
        degs = [0] * n_vertices
        for e, side in zip(edges, pick):
            degs[e[side]] += 1
        best = min(best, max(degs, default=0))
    return best


def reference_predict(orientation, v_idx, coord):
    """The edge-scan leave-one-out prediction: find the edge joining
    vertex v_idx to its flip in coord, if any, and return its head's bit
    there; with no such edge, v_idx's own bit."""
    graph = orientation.graph
    v = graph.vertices[v_idx]
    flipped = v ^ (1 << coord)
    for k, (a, b, c) in enumerate(graph.edges):
        if c == coord and {graph.vertices[a], graph.vertices[b]} == {v, flipped}:
            head = b if orientation.tails[k] == a else a
            return graph.vertices[head] >> coord & 1
    return v >> coord & 1


def oracle_geometric(kind, points):
    """The distinct nonempty traces of a geometric family on points, as
    frozensets of point indices: every coordinate a Fraction, every
    predicate evaluated on ordered pairs and triples of points (the
    orientation determinant (b - a, c - a, x - a) for halfspaces, the
    in-circle determinant for circumcircles). The
    families are closed intervals between two point coordinates, closed
    and open halfplanes left of a directed line through two points,
    closed disks with a segment between two points as diameter (a point
    disk when both are equal), closed and open circumcircle disks of
    three counterclockwise points, and closed and open halfspaces on the
    positive side of a plane through three points; the whole point set
    is always a trace. Points that do not span their space get halfplanes
    or halfspaces by a lift rather than a projection: with unit offsets
    of the first point added until the set spans, the traces on the
    points are the lifted set's traces cut back to them, since every
    halfspace meets both sets."""
    pts = [
        tuple(Fraction(c) for c in ((p,) if isinstance(p, (int, Fraction)) else p))
        for p in points
    ]
    if kind in ("halfplanes", "halfspaces3d"):
        lifted = list(pts)
        for axis in range(len(pts[0])):
            z = tuple(c + (k == axis) for k, c in enumerate(pts[0]))
            if _affine_rank(lifted + [z]) > _affine_rank(lifted):
                lifted.append(z)
        if len(lifted) > len(pts):
            cut = (frozenset(i for i in t if i < len(pts))
                   for t in oracle_geometric(kind, lifted))
            return {t for t in cut if t}

    def add_sides(values):
        traces.add(frozenset(i for i, v in enumerate(values) if v >= 0))
        traces.add(frozenset(i for i, v in enumerate(values) if v > 0))

    def orient2(a, b, x):
        return (b[0] - a[0]) * (x[1] - a[1]) - (b[1] - a[1]) * (x[0] - a[0])

    def cross(u, v):
        return (u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2],
                u[0] * v[1] - u[1] * v[0])

    def det3(u, v, w):
        return (u[0] * (v[1] * w[2] - v[2] * w[1])
                - u[1] * (v[0] * w[2] - v[2] * w[0])
                + u[2] * (v[0] * w[1] - v[1] * w[0]))

    def in_circle(a, b, c, x):
        rows = [(p[0] - x[0], p[1] - x[1],
                 (p[0] - x[0]) ** 2 + (p[1] - x[1]) ** 2) for p in (a, b, c)]
        (a0, a1, a2), (b0, b1, b2), (c0, c1, c2) = rows
        return (a0 * (b1 * c2 - b2 * c1) - a1 * (b0 * c2 - b2 * c0)
                + a2 * (b0 * c1 - b1 * c0))

    traces = {frozenset(range(len(pts)))}
    if kind == "intervals":
        for (lo,), (hi,) in product(pts, repeat=2):
            traces.add(frozenset(
                i for i, (x,) in enumerate(pts) if lo <= x <= hi))
    elif kind == "halfplanes":
        for a, b in product(pts, repeat=2):
            if a != b:
                add_sides([orient2(a, b, x) for x in pts])
    elif kind == "disks":
        for p, q in product(pts, repeat=2):
            traces.add(frozenset(
                i for i, x in enumerate(pts)
                if (x[0] - p[0]) * (x[0] - q[0]) + (x[1] - p[1]) * (x[1] - q[1]) <= 0))
        for a, b, c in permutations(pts, 3):
            if orient2(a, b, c) > 0:
                add_sides([in_circle(a, b, c, x) for x in pts])
    elif kind == "halfspaces3d":
        for a, b, c in permutations(pts, 3):
            u, v = ([p[k] - a[k] for k in range(3)] for p in (b, c))
            if any(cross(u, v)):
                add_sides([det3(u, v, [x[k] - a[k] for k in range(3)])
                           for x in pts])
    else:
        raise ValueError(kind)
    traces.discard(frozenset())
    return traces


def _affine_rank(pts):
    """Dimension of the affine hull of Fraction points, by Gaussian
    elimination on their differences from the first."""
    rows = [[c - b for c, b in zip(p, pts[0])] for p in pts[1:]]
    rank = 0
    for axis in range(len(pts[0])):
        pivot = next((r for r in rows if r[axis]), None)
        if pivot is None:
            continue
        rank += 1
        rows = [[a - b * r[axis] / pivot[axis] for a, b in zip(r, pivot)]
                for r in rows if r is not pivot]
    return rank


def dudley_style_bound(d, delta):
    """The cruder chaining-free packing estimate (c/delta)^{2d} with c = 2e,
    for comparison against the refined e(d+1)(2e/delta)^d."""
    if d <= 0:
        return math.e
    return (2 * math.e / float(delta)) ** (2 * d)


class ReferenceCliqueTrip(Exception):
    """The reference clique search ran out of nodes; members is its
    incumbent, as the members of the package's max_clique answer with
    exact False are."""

    def __init__(self, members):
        super().__init__(f"reference clique search tripped with {members}")
        self.members = members


def reference_max_clique(adj, lower_bound=0, nodes=200_000):
    """The package's max_clique as it stood before unit propagation: the
    vertex-order colouring check for the lower bound, then branch and
    bound over vertices in descending-degree order with greedy colouring,
    branching on the colours above best - |clique|. Past nodes search
    nodes it raises ReferenceCliqueTrip. Kept verbatim in behaviour (node
    order, members, trips) so that a faster search can be held to it."""
    n = len(adj)

    def colour(cand, rows, kmin):
        out, colour_no, rest = [], 0, cand
        while rest:
            colour_no += 1
            avail = rest
            while avail:
                low = avail & -avail
                v = low.bit_length() - 1
                if colour_no > kmin:
                    out.append((v, colour_no))
                avail = (avail ^ low) & ~rows[v]
                rest ^= low
        return out

    if lower_bound > 0 and not colour((1 << n) - 1, adj, lower_bound):
        return lower_bound, ()
    if n == 0:
        return 0, ()
    order = sorted(range(n), key=lambda v: bin(adj[v]).count("1"), reverse=True)
    rows = []
    for v in order:
        row = 0
        for j, u in enumerate(order):
            if adj[v] >> u & 1:
                row |= 1 << j
        rows.append(row)

    best, best_members, spent = lower_bound, (), 0

    def expand(cand, clique):
        nonlocal best, best_members, spent
        if spent == nodes:
            raise ReferenceCliqueTrip(tuple(sorted(order[i] for i in best_members)))
        spent += 1
        coloured = colour(cand, rows, best - len(clique))
        for v, c in reversed(coloured):
            if len(clique) + c <= best:
                return
            clique.append(v)
            nxt = cand & rows[v]
            if nxt:
                expand(nxt, clique)
            elif len(clique) > best:
                best = len(clique)
                best_members = tuple(clique)
            clique.pop()
            cand &= ~(1 << v)

    expand((1 << n) - 1, [])
    return best, tuple(sorted(order[i] for i in best_members))
