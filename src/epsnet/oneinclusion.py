"""One-inclusion graphs, bounded-out-degree orientations, and the
leave-one-out risk they certify.

Vertices are the distinct trace vectors of a family on an ordered sample
(one bit per sample position); edges join vectors at Hamming distance 1.
An orientation with out-degree at most d turns the graph into a
prediction rule whose leave-one-out error is exactly
out_degree(truth) / sample size.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .core import (
    RangeSpace,
    TheoremViolationError,
    draw_points,
    incidence_columns,
    stream_rng,
)
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

    @cached_property
    def edge_at(self) -> dict[tuple[int, int], int]:
        """(vertex index, coord) -> index of the edge there, both ends."""
        out = {}
        for k, (u, v, coord) in enumerate(self.edges):
            out[u, coord] = out[v, coord] = k
        return out


def trace_vertices(space: RangeSpace, sample: list[int]) -> tuple[int, ...]:
    """Distinct trace masks of the family on an ordered sample.

    sample may repeat points; bit j of a trace is 1 iff sample[j] lies in
    the range.
    """
    for p in sample:
        if not 0 <= p < space.n:
            raise ValueError(f"sample point {p} outside 0..{space.n - 1}")
    # Row i of the transposed sample columns is range i's trace.
    cols = space.incidence
    traces = incidence_columns([cols[p] for p in sample], len(space.ranges))
    return tuple(sorted(set(traces)))


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
        return self.tails.count(v_idx)

    @property
    def max_out_degree(self) -> int:
        return max(Counter(self.tails).values(), default=0)


def orient_bounded(graph: OneInclusionGraph, d: int) -> Orientation:
    """Orientation with out-degree <= d by path reversal, or raise.

    Each edge in turn leaves its first endpoint. When that vertex passes
    d out-edges, a BFS-shortest path of out-edges to a vertex with fewer
    than d is reversed, which moves one out-edge to that vertex and
    leaves the path's inner vertices as they were. If no such vertex is
    reachable, the reachable set is closed under out-edges and carries
    more than d edges per vertex, so no orientation exists.
    """
    edges = graph.edges
    tails = [u for u, _, _ in edges]
    out: list[list[int]] = [[] for _ in graph.vertices]
    for k, (u, _, _) in enumerate(edges):
        out[u].append(k)
        if len(out[u]) <= d:
            continue
        via = {u: -1}  # vertex -> edge the BFS reached it by
        queue = [u]
        for y in queue:
            if len(out[y]) < d:
                break
            for e in out[y]:
                z = edges[e][0] + edges[e][1] - y
                if z not in via:
                    via[z] = e
                    queue.append(z)
        else:
            raise OrientationInfeasibleError(
                f"no orientation with out-degree <= {d} for "
                f"{len(edges)} edges on {len(graph.vertices)} vertices"
            )
        while y != u:
            e = via[y]
            x = tails[e]
            out[x].remove(e)
            out[y].append(e)
            tails[e] = y
            y = x
    return Orientation(graph, tuple(tails))


def predict(orientation: Orientation, v_idx: int, coord: int) -> int:
    """Predicted bit at coord, given the other m-1 coords of vertex v_idx.

    The truth's own bit at coord is not consulted. When the flipped
    vector is also a vertex the two candidates form an edge in this
    coordinate and the head's bit wins, so the prediction is wrong
    exactly when that edge leaves v_idx; otherwise the lone candidate
    decides.
    """
    bit = orientation.graph.vertices[v_idx] >> coord & 1
    k = orientation.graph.edge_at.get((v_idx, coord))
    if k is None:
        return bit
    return bit ^ (orientation.tails[k] == v_idx)


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
