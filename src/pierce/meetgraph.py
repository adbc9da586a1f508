"""Graph layer over the family: which bodies meet on the curve, and what
that forces combinatorially.

Vertices are body indices ("colors").  An edge records that the two bodies
share a point of the reference curve.  The checks here are exact and meant
for desk-scale inputs; the independent-set search is capped accordingly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import UNIT_CIRCLE, ConvexBody, CurveModel, body_curve_arcs, meet_matrix

EXACT_INDEPENDENCE_CAP = 40


@dataclass(frozen=True, eq=False)
class ColorGraph:
    """Undirected simple graph on vertices 0..n-1.

    adj is its adjacency matrix: a square, symmetric bool array with a
    False diagonal, as meet_matrix builds it, and adj[u, v] says whether u
    and v are joined.  The graph keeps the given array, not a copy, and
    makes it read-only.
    """

    adj: np.ndarray

    def __post_init__(self) -> None:
        self.adj.setflags(write=False)

    @property
    def n(self) -> int:
        return self.adj.shape[0]

    @property
    def edge_count(self) -> int:
        return int(np.count_nonzero(self.adj)) // 2


def build_meet_graph(
    bodies: list[ConvexBody],
    curve: CurveModel = UNIT_CIRCLE,
    arcs: list[list[tuple[float, float]]] | None = None,
) -> ColorGraph:
    """Edge (i, j) whenever bodies i and j share a point of the curve.

    The edges are the meet_matrix of the bodies' body_curve_arcs in the
    curve's frame (CurveModel.to_unit); arcs is those lists when the
    caller already has them.
    """
    if arcs is None:
        arcs = body_curve_arcs(curve.to_unit(bodies))
    return ColorGraph(meet_matrix(arcs))


def _has_independent_set(graph: ColorGraph, size: int) -> bool:
    """Branch and bound for an independent set of the given size, which
    verify_p2, the one caller, keeps within 3..n. Exact.

    Vertices are taken in order of increasing degree so branches close
    early; bit k of a mask stands for the k-th vertex in that order. A
    branch closes when its candidates are too few, or else when a greedy
    clique cover splits them into too few cliques: an independent set
    takes at most one vertex from each clique, so the cover's size bounds
    the set. This is the colouring bound of Tomita and Seki's maximum
    clique search ("An efficient branch-and-bound algorithm for finding a
    maximum clique", DMTCS 2003) on the complement graph. A PG union is k
    disjoint cliques and a clustered family p - 1 pairwise-meeting
    clusters, so there the root closes at once.
    """
    order = np.argsort(graph.adj.sum(axis=1), kind="stable")
    rows = np.packbits(graph.adj[np.ix_(order, order)], axis=1, bitorder="little")
    neighbors = [int.from_bytes(row.tobytes(), "little") for row in rows]

    def cliques_reach(candidates: int, need: int) -> bool:
        # Whether a greedy clique cover of candidates takes need cliques:
        # each clique starts at the lowest vertex left and takes, lowest
        # first, every vertex left adjacent to all its members.
        count = 0
        while candidates:
            count += 1
            if count >= need:
                return True
            low = candidates & -candidates
            candidates ^= low
            common = candidates & neighbors[low.bit_length() - 1]
            while common:
                low = common & -common
                candidates ^= low
                common &= neighbors[low.bit_length() - 1]
        return False

    def extend(chosen: int, candidates: int) -> bool:
        if chosen == size:
            return True
        if chosen + candidates.bit_count() < size:
            return False
        if not cliques_reach(candidates, size - chosen):
            return False
        while chosen + candidates.bit_count() >= size:
            low = candidates & -candidates
            candidates ^= low
            if extend(chosen + 1, candidates & ~neighbors[low.bit_length() - 1]):
                return True
        return False

    return extend(0, (1 << graph.n) - 1)


def decides_p2(p: int, n: int) -> bool:
    """Whether verify_p2 decides the condition for p on n vertices: always
    for p = 2, where it only counts edges, and when n < p, where no p
    vertices exist, and otherwise up to EXACT_INDEPENDENCE_CAP vertices,
    read at call time."""
    return p == 2 or n < p or n <= EXACT_INDEPENDENCE_CAP


def verify_p2(graph: ColorGraph, p: int) -> bool:
    """True when every p vertices span at least one edge.

    Equivalently: the graph has no independent set of size p, i.e. the
    complement has no p-clique.  For p > 2 the search is exact and capped
    (decides_p2; the problem is NP-hard in general); past the cap it
    raises ValueError.
    """
    if p < 2:
        raise ValueError("p must be at least 2")
    if graph.n < p:
        return True
    if p == 2:
        return graph.edge_count == graph.n * (graph.n - 1) // 2
    if not decides_p2(p, graph.n):
        raise ValueError(f"exact independence check capped at n = {EXACT_INDEPENDENCE_CAP}")
    return not _has_independent_set(graph, p)


def turan_pair_check(graph: ColorGraph, p: int) -> tuple[int, float, bool]:
    """Count meeting pairs against the n^2/(2p) lower bound.

    The bound holds when the p-subset condition does (verify_p2) and
    n >= p(p-1); this only reports the counts.
    """
    meets = graph.edge_count
    bound = graph.n * graph.n / (2 * p)
    return meets, bound, meets >= bound
