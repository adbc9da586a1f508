"""Graph layer over the family: which bodies meet on the curve, and what
that forces combinatorially.

Vertices are body indices ("colors").  An edge records that the two bodies
share a point of the reference curve.  The checks here are exact and meant
for desk-scale inputs; the independent-set search is capped accordingly.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .errors import ConditionNotSatisfiedError
from .geometry import TOL_GEOM, ConvexBody, CurveModel, body_curve_arcs, meet_angles

EXACT_INDEPENDENCE_CAP = 40


@dataclass(frozen=True)
class ColorGraph:
    """Undirected simple graph on vertices 0..n-1."""

    n: int
    edges: frozenset[tuple[int, int]] = field(default_factory=frozenset)

    def __post_init__(self) -> None:
        if self.n < 0:
            raise ValueError("vertex count must be nonnegative")
        normalized = set()
        for e in self.edges:
            u, v = e
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise ValueError(f"edge {e} outside vertex range [0, {self.n})")
            normalized.add((min(u, v), max(u, v)))
        object.__setattr__(self, "edges", frozenset(normalized))

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def has_edge(self, u: int, v: int) -> bool:
        return (min(u, v), max(u, v)) in self.edges

    def neighbors(self, v: int) -> list[int]:
        out = []
        for a, b in self.edges:
            if a == v:
                out.append(b)
            elif b == v:
                out.append(a)
        return sorted(out)

    def degree(self, v: int) -> int:
        return sum(1 for a, b in self.edges if a == v or b == v)

    def complement(self) -> "ColorGraph":
        full = itertools.combinations(range(self.n), 2)
        return ColorGraph(self.n, frozenset(e for e in full if e not in self.edges))


def build_meet_graph(
    bodies: list[ConvexBody],
    curve: CurveModel,
    tol: float = TOL_GEOM,
    angles: np.ndarray | None = None,
) -> ColorGraph:
    """Edge (i, j) whenever bodies i and j share a point of the curve.

    angles is the bodies' meet_angles table when the caller already has it.
    """
    if angles is None:
        angles = meet_angles([body_curve_arcs(b, curve, tol) for b in bodies])
    i, j = np.nonzero(np.triu(~np.isnan(angles), 1))
    return ColorGraph(len(bodies), frozenset(zip(i.tolist(), j.tolist())))


def _has_independent_set(graph: ColorGraph, size: int) -> bool:
    """Branch and bound for an independent set of the given size. Exact."""
    if size <= 0:
        return True
    if size > graph.n:
        return False
    adj = [set() for _ in range(graph.n)]
    for a, b in graph.edges:
        adj[a].add(b)
        adj[b].add(a)
    # Consider vertices in order of increasing degree so branches close early.
    order = sorted(range(graph.n), key=lambda v: len(adj[v]))

    def extend(chosen: int, candidates: list[int]) -> bool:
        if chosen == size:
            return True
        if chosen + len(candidates) < size:
            return False
        for k, v in enumerate(candidates):
            rest = [w for w in candidates[k + 1 :] if w not in adj[v]]
            if extend(chosen + 1, rest):
                return True
            if chosen + (len(candidates) - k - 1) < size:
                return False
        return False

    return extend(0, order)


def verify_p2(graph: ColorGraph, p: int, max_exact: int = EXACT_INDEPENDENCE_CAP) -> bool:
    """True when every p vertices span at least one edge.

    Equivalently: the graph has no independent set of size p, i.e. the
    complement has no p-clique.  Exact search, capped at max_exact vertices
    (the problem is NP-hard in general); callers that know their graph is
    easy, like the cluster generator's post-check, may raise the cap.
    """
    if p < 2:
        raise ValueError("p must be at least 2")
    if graph.n < p:
        return True
    if p == 2:
        return graph.edge_count == graph.n * (graph.n - 1) // 2
    if graph.n > max_exact:
        raise ValueError(f"exact independence check capped at n = {max_exact}")
    return not _has_independent_set(graph, p)


def turan_pair_check(
    graph: ColorGraph, p: int, check: bool = True
) -> tuple[int, float, bool]:
    """Count meeting pairs against the n^2/(2p) lower bound.

    With check=True the p-subset condition is verified first and its
    failure raises; pass check=False to skip that (e.g. for graphs past
    the exact-search cap) and just report the counts.
    """
    if check and not verify_p2(graph, p):
        raise ConditionNotSatisfiedError(
            f"some {p} vertices span no edge; pair-count bound does not apply"
        )
    meets = graph.edge_count
    bound = graph.n * graph.n / (2 * p)
    return meets, bound, meets >= bound


def max_neighbor_degree_sum(graph: ColorGraph) -> tuple[int, int]:
    """Vertex maximizing g(v) = sum of deg(w) over neighbors w, with its g.

    On any graph the maximum satisfies g >= 4|E|^2 / n^2; ties break toward
    the smallest vertex index.
    """
    if graph.n < 1:
        raise ValueError("graph must have at least one vertex")
    deg = [0] * graph.n
    for a, b in graph.edges:
        deg[a] += 1
        deg[b] += 1
    g = [0] * graph.n
    for a, b in graph.edges:
        g[a] += deg[b]
        g[b] += deg[a]
    best = max(range(graph.n), key=lambda v: (g[v], -v))
    return best, g[best]
