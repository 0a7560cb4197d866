"""One-inclusion graphs, bounded-out-degree orientations, and the
leave-one-out risk they certify.

Vertices are the distinct trace vectors of a family on an ordered sample
(one bit per sample position); edges join vectors at Hamming distance 1.
An orientation with out-degree at most d turns the graph into a
prediction rule whose leave-one-out error is exactly
out_degree(truth) / sample size.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .core import RangeSpace, TheoremViolationError, draw_points, stream_rng
from .complexity import vc_of_masks


class OrientationInfeasibleError(RuntimeError):
    pass


@dataclass(frozen=True)
class OneInclusionGraph:
    m: int
    vertices: tuple[int, ...]  # sorted distinct trace masks
    edges: tuple[tuple[int, int, int], ...]  # (u_idx, v_idx, coord), u < v

    @property
    def density(self) -> Fraction:
        if not self.vertices:
            return Fraction(0)
        return Fraction(len(self.edges), len(self.vertices))


def trace_vertices(space: RangeSpace, sample: list[int]) -> tuple[int, ...]:
    """Distinct trace masks of the family on an ordered sample.

    sample may repeat points; bit j of a trace is 1 iff sample[j] lies in
    the range.
    """
    for p in sample:
        if not 0 <= p < space.n:
            raise ValueError(f"sample point {p} outside 0..{space.n - 1}")
    out = set()
    for r in space.ranges:
        t = 0
        for j, p in enumerate(sample):
            if r >> p & 1:
                t |= 1 << j
        out.add(t)
    return tuple(sorted(out))


def build_oig(source, sample: list[int] | None = None, m: int | None = None) -> OneInclusionGraph:
    """One-inclusion graph of a family on a sample, or of explicit masks.

    Pass a RangeSpace plus sample positions, or an iterable of trace
    masks plus m (the mask 0 is a valid vertex there).
    """
    if isinstance(source, RangeSpace):
        if sample is None:
            raise ValueError("a RangeSpace source needs a sample")
        m = len(sample)
        vertices = trace_vertices(source, sample)
    else:
        if m is None:
            raise ValueError("explicit masks need m")
        vertices = tuple(sorted(set(source)))
        for v in vertices:
            if v < 0 or v >> m:
                raise ValueError(f"mask {v} does not fit in {m} bits")
    index = {v: i for i, v in enumerate(vertices)}
    edges = []
    for i, v in enumerate(vertices):
        for coord in range(m):
            w = v ^ (1 << coord)
            if w > v:
                j = index.get(w)
                if j is not None:
                    edges.append((i, j, coord))
    return OneInclusionGraph(m, vertices, tuple(edges))


def density_check(graph: OneInclusionGraph, d: int | None = None) -> dict:
    """Certify |E| <= d * |V| with d the exact dimension of the vertex
    family. Raises TheoremViolationError on failure."""
    if d is None:
        d = vc_of_masks(graph.vertices, graph.m).value
    v, e = len(graph.vertices), len(graph.edges)
    ok = e <= max(d, 0) * v
    if not ok:
        raise TheoremViolationError(
            f"one-inclusion density failed: {e} edges, {v} vertices, d={d}"
        )
    return {"vertices": v, "edges": e, "d": d,
            "density": graph.density, "ok": ok}


@dataclass(frozen=True)
class Orientation:
    graph: OneInclusionGraph
    tails: tuple[int, ...]  # tails[k] = vertex index the k-th edge exits

    def out_degree(self, v_idx: int) -> int:
        return sum(1 for t in self.tails if t == v_idx)

    @property
    def max_out_degree(self) -> int:
        if not self.tails:
            return 0
        degs = [0] * len(self.graph.vertices)
        for t in self.tails:
            degs[t] += 1
        return max(degs)


class _Dinic:
    """Deterministic max flow; arc order fixed by insertion order."""

    def __init__(self, n: int):
        self.n = n
        self.head: list[list[int]] = [[] for _ in range(n)]
        self.to: list[int] = []
        self.cap: list[int] = []

    def add(self, u: int, v: int, c: int) -> int:
        arc = len(self.to)
        self.head[u].append(arc)
        self.to.append(v)
        self.cap.append(c)
        self.head[v].append(arc + 1)
        self.to.append(u)
        self.cap.append(0)
        return arc

    def max_flow(self, s: int, t: int) -> int:
        flow = 0
        while True:
            level = [-1] * self.n
            level[s] = 0
            queue = [s]
            for u in queue:
                for arc in self.head[u]:
                    v = self.to[arc]
                    if self.cap[arc] > 0 and level[v] < 0:
                        level[v] = level[u] + 1
                        queue.append(v)
            if level[t] < 0:
                return flow
            it = [0] * self.n

            def dfs(u: int, pushed: int) -> int:
                if u == t:
                    return pushed
                while it[u] < len(self.head[u]):
                    arc = self.head[u][it[u]]
                    v = self.to[arc]
                    if self.cap[arc] > 0 and level[v] == level[u] + 1:
                        got = dfs(v, min(pushed, self.cap[arc]))
                        if got:
                            self.cap[arc] -= got
                            self.cap[arc ^ 1] += got
                            return got
                    it[u] += 1
                return 0

            while True:
                pushed = dfs(s, 1 << 62)
                if not pushed:
                    break
                flow += pushed


def orient_bounded(graph: OneInclusionGraph, d: int) -> Orientation:
    """Orientation with out-degree <= d via max flow, or raise.

    Network: source -> edge node (cap 1) -> its two endpoint vertex
    nodes (cap 1) -> sink (cap d). A saturating flow assigns each edge
    the endpoint that pays for it; that endpoint becomes the tail.
    """
    ne, nv = len(graph.edges), len(graph.vertices)
    if ne == 0:
        return Orientation(graph, ())
    if d < 0:
        raise OrientationInfeasibleError("negative out-degree bound")
    src, snk = ne + nv, ne + nv + 1
    net = _Dinic(ne + nv + 2)
    choice_arcs = []
    for k, (u, v, _) in enumerate(graph.edges):
        net.add(src, k, 1)
        a = net.add(k, ne + u, 1)
        b = net.add(k, ne + v, 1)
        choice_arcs.append((a, b))
    for i in range(nv):
        net.add(ne + i, snk, d)
    if net.max_flow(src, snk) < ne:
        raise OrientationInfeasibleError(
            f"no orientation with out-degree <= {d} for "
            f"{ne} edges on {nv} vertices"
        )
    tails = []
    for k, (u, v, _) in enumerate(graph.edges):
        a, b = choice_arcs[k]
        if net.cap[a] == 0:  # unit pushed toward u
            tails.append(u)
        elif net.cap[b] == 0:
            tails.append(v)
        else:
            raise AssertionError("saturating flow left an edge unassigned")
    return Orientation(graph, tuple(tails))


def predict(orientation: Orientation, v_idx: int, coord: int) -> int:
    """Predicted bit at coord, given the other m-1 coords of vertex v_idx.

    The truth's own bit at coord is not consulted. When the flipped
    vector is also a vertex the two candidates form an edge in this
    coordinate and the head's bit wins; otherwise the lone candidate
    decides.
    """
    graph = orientation.graph
    v = graph.vertices[v_idx]
    flipped = v ^ (1 << coord)
    for k, (a, b, c) in enumerate(graph.edges):
        if c != coord:
            continue
        pair = {graph.vertices[a], graph.vertices[b]}
        if pair == {v, flipped}:
            tail = orientation.tails[k]
            head = b if tail == a else a
            return graph.vertices[head] >> coord & 1
    return v >> coord & 1


def loo_error(orientation: Orientation, v_idx: int) -> Fraction:
    """Exact leave-one-out error of the orientation's rule when v_idx is
    the truth: mismatches over all m held-out coordinates."""
    graph = orientation.graph
    v = graph.vertices[v_idx]
    mistakes = 0
    for coord in range(graph.m):
        if predict(orientation, v_idx, coord) != (v >> coord & 1):
            mistakes += 1
    return Fraction(mistakes, graph.m)


def expected_risk_report(
    space: RangeSpace,
    m: int,
    d: int,
    trials: int = 32,
    seed: int = 0,
    strict: bool = True,
) -> dict:
    """Empirical check that every trace's leave-one-out error stays at or
    under d/m across random samples, and report the mean.

    Each trial draws an i.i.d. weighted sample, orients its graph with
    bound d, and evaluates loo_error at every vertex. Mistake counts
    equal out-degrees, so the per-vertex bound is deterministic once an
    orientation exists; existence for d at least the family dimension is
    part of what this certifies.
    """
    if m < 1 or d < 0:
        raise ValueError("need m >= 1 and d >= 0")
    rng = stream_rng(seed, "oig-risk", m)
    worst = Fraction(0)
    total = Fraction(0)
    count = 0
    bound = Fraction(d, m)
    for _ in range(trials):
        sample = draw_points(space, m, rng)
        graph = build_oig(space, sample)
        orientation = orient_bounded(graph, d)
        for v_idx in range(len(graph.vertices)):
            err = loo_error(orientation, v_idx)
            out_deg = orientation.out_degree(v_idx)
            if err != Fraction(out_deg, m):
                raise TheoremViolationError(
                    "leave-one-out error diverged from out-degree"
                )
            worst = max(worst, err)
            total += err
            count += 1
        if strict and worst > bound:
            raise TheoremViolationError(
                f"leave-one-out error {worst} exceeded {bound}"
            )
    return {
        "m": m,
        "d": d,
        "trials": trials,
        "vertices_checked": count,
        "mean": total / count if count else Fraction(0),
        "worst": worst,
        "bound": bound,
        "ok": worst <= bound,
    }
