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

from .core import RangeSpace, TheoremViolationError, incidence_columns, mask_of
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
        if type(p) is not int or not 0 <= p < space.n:
            raise ValueError(f"sample point {p!r} is not an integer in 0..{space.n - 1}")
    smask = mask_of(sample)
    distinct = list({r & smask for r in space.ranges})
    # Row i of their columns at the sample positions is distinct[i]'s trace.
    cols = incidence_columns(distinct, smask.bit_length())
    return tuple(sorted(incidence_columns([cols[p] for p in sample], len(distinct))))


def build_oig(source, sample: list[int] | None = None, m: int | None = None) -> OneInclusionGraph:
    """One-inclusion graph of a family on a sample, or of explicit masks.

    Pass a RangeSpace plus a nonempty list of sample positions, or an
    iterable of trace masks plus m (the mask 0 is a valid vertex there).
    """
    if isinstance(source, RangeSpace):
        if not sample:
            raise ValueError("a RangeSpace source needs a nonempty sample")
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
    full = (1 << m) - 1
    edges = []
    for i, v in enumerate(vertices):
        zeros = full ^ v  # edges go up, to v with one zero bit set
        while zeros:
            bit = zeros & -zeros
            j = index.get(v | bit)
            if j is not None:
                edges.append((i, j, bit.bit_length() - 1))
            zeros ^= bit
    return OneInclusionGraph(m, vertices, tuple(edges))


def density_check(graph: OneInclusionGraph, d: int | None = None) -> dict:
    """Certify |E| <= d * |V|, true at every d >= the dimension of the vertex
    family (by default the VC walk's upper end); raises TheoremViolationError."""
    if d is None:
        d = vc_of_masks(graph.vertices, graph.m).upper
    v, e = len(graph.vertices), len(graph.edges)
    if e > max(d, 0) * v:
        raise TheoremViolationError(
            f"one-inclusion density failed: {e} edges, {v} vertices, d={d}"
        )
    return {"vertices": v, "edges": e, "d": d,
            "density": graph.density, "ok": True}


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
    the truth: the held-out coordinates where an edge leaves v_idx (the
    rule's mistakes, see predict) over all m >= 1 of them."""
    graph = orientation.graph
    if not graph.m:
        raise ValueError("leave-one-out error needs a sample of m >= 1 points")
    edge_at, tails = graph.edge_at, orientation.tails
    mistakes = 0
    for coord in range(graph.m):
        k = edge_at.get((v_idx, coord))
        if k is not None and tails[k] == v_idx:
            mistakes += 1
    return Fraction(mistakes, graph.m)
