import itertools

import numpy as np
import pytest
from conftest import arc_body, graph_from_edges
from lemmas import max_neighbor_degree_sum

from pierce.geometry import UNIT_CIRCLE
from pierce.meetgraph import (
    ColorGraph,
    build_meet_graph,
    turan_pair_check,
    verify_p2,
)


make_graph = graph_from_edges


def clique_edges(vertices):
    return set(itertools.combinations(sorted(vertices), 2))


def random_graph(rng, n, prob):
    edges = {e for e in itertools.combinations(range(n), 2) if rng.random() < prob}
    return make_graph(n, edges)


def independent_oracle(graph, size):
    for sub in itertools.combinations(range(graph.n), size):
        if not any(graph.adj[u, v] for u, v in itertools.combinations(sub, 2)):
            return True
    return False


def test_color_graph_validation():
    g = make_graph(4, {(2, 0), (1, 3)})
    assert g.adj[0, 2] and g.adj[2, 0] and g.adj[3, 1] and g.adj[1, 3]
    assert g.n == 4 and g.edge_count == 2
    # The graph keeps the given array and makes it read-only.
    src = g.adj.copy()
    kept = ColorGraph(src)
    assert kept.adj is src
    with pytest.raises(ValueError):
        kept.adj[0, 1] = True
    assert ColorGraph(np.zeros((0, 0), dtype=bool)).n == 0


def test_color_graph_accessors():
    g = make_graph(5, {(0, 1), (0, 2), (3, 4)})
    assert np.flatnonzero(g.adj[0]).tolist() == [1, 2]
    assert g.adj.sum(axis=1).tolist() == [2, 1, 1, 1, 1]
    comp = ColorGraph(~g.adj ^ np.eye(5, dtype=bool))
    assert comp.edge_count == 10 - 3
    assert not comp.adj[0, 1] and comp.adj[1, 2]


def test_build_meet_graph_complete():
    bodies = [arc_body(i, 0.9 + 0.01 * i, 1.3 + 0.01 * i) for i in range(7)]
    g = build_meet_graph(bodies, UNIT_CIRCLE)
    assert g.n == 7
    assert g.edge_count == 21


def test_build_meet_graph_disjoint():
    bodies = [arc_body(0, 0.0, 0.5), arc_body(1, 1.0, 1.5), arc_body(2, 2.0, 2.5)]
    g = build_meet_graph(bodies, UNIT_CIRCLE)
    assert g.edge_count == 0


def test_build_meet_graph_two_clusters():
    cluster_a = [arc_body(i, 0.4 + 0.02 * i, 0.9 + 0.02 * i) for i in range(3)]
    cluster_b = [arc_body(3 + i, 3.4 + 0.02 * i, 3.9 + 0.02 * i) for i in range(3)]
    g = build_meet_graph(cluster_a + cluster_b, UNIT_CIRCLE)
    want = make_graph(6, clique_edges({0, 1, 2}) | clique_edges({3, 4, 5}))
    assert np.array_equal(g.adj, want.adj)


def test_verify_p2_examples():
    k7 = make_graph(7, clique_edges(range(7)))
    assert verify_p2(k7, 2)
    assert not verify_p2(make_graph(5, set()), 5)
    two_cliques = make_graph(10, clique_edges(range(5)) | clique_edges(range(5, 10)))
    assert verify_p2(two_cliques, 3)
    assert not verify_p2(two_cliques, 2)
    # Vacuous when there are fewer vertices than p.
    assert verify_p2(make_graph(3, set()), 5)
    with pytest.raises(ValueError):
        verify_p2(k7, 1)
    with pytest.raises(ValueError):
        verify_p2(make_graph(41, set()), 3)


def test_verify_p2_against_exhaustive():
    rng = np.random.default_rng(17)
    for _ in range(200):
        n = int(rng.integers(2, 13))
        g = random_graph(rng, n, float(rng.uniform(0.1, 0.9)))
        p = int(rng.integers(2, n + 1))
        assert verify_p2(g, p) == (not independent_oracle(g, p))


def disjoint_cliques(rng, n, k):
    """k disjoint cliques of random sizes (at least one vertex each) on n
    shuffled vertices, plus the cliques' vertex lists."""
    cuts = np.sort(rng.choice(np.arange(1, n), size=k - 1, replace=False))
    labels = rng.permutation(n)
    groups = [labels[lo:hi].tolist() for lo, hi in zip([0, *cuts], [*cuts, n])]
    edges = set().union(*(clique_edges(g) for g in groups))
    return make_graph(n, edges), groups


def independence_number(graph):
    """The largest independent set's size, by exhaustive include/exclude
    recursion on the lowest vertex left, with no bound."""
    neighbors = [sum(1 << v for v in np.flatnonzero(row).tolist()) for row in graph.adj]

    def best(left):
        if not left:
            return 0
        low = left & -left
        v = low.bit_length() - 1
        return max(best(left ^ low), 1 + best(left & ~low & ~neighbors[v]))

    return best((1 << graph.n) - 1)


def test_verify_p2_on_disjoint_cliques():
    # k disjoint cliques have independence number k: any k + 1 vertices
    # hold two of one clique. So p = k + 1 holds, which the clique-cover
    # bound decides at the root, and p = k fails.
    rng = np.random.default_rng(31)
    for _ in range(40):
        n = int(rng.integers(3, 41))
        k = int(rng.integers(2, min(n, 5) + 1))
        g, groups = disjoint_cliques(rng, n, k)
        assert len(groups) == k and sum(map(len, groups)) == n
        assert independence_number(g) == k
        assert verify_p2(g, k + 1)
        assert not verify_p2(g, k)


def test_verify_p2_complement_clique_consistency():
    rng = np.random.default_rng(4)
    for _ in range(100):
        n = int(rng.integers(3, 11))
        g = random_graph(rng, n, 0.5)
        p = int(rng.integers(2, n + 1))
        has_clique = any(
            all(not g.adj[u, v] for u, v in itertools.combinations(sub, 2))
            for sub in itertools.combinations(range(n), p)
        )
        assert verify_p2(g, p) == (not has_clique)


def test_turan_pair_check_examples():
    k7 = make_graph(7, clique_edges(range(7)))
    meets, bound, ok = turan_pair_check(k7, 2)
    assert (meets, bound, ok) == (21, 49 / 4, True)

    two_cliques = make_graph(10, clique_edges(range(5)) | clique_edges(range(5, 10)))
    meets, bound, ok = turan_pair_check(two_cliques, 3)
    assert meets == 20
    assert bound == pytest.approx(100 / 6)
    assert ok

    meets, bound, ok = turan_pair_check(make_graph(5, set()), 3)
    assert meets == 0 and not ok


def test_turan_bound_holds_in_regime():
    # The n^2/(2p) count needs n >= p(p-1): with fewer vertices, p-1 near-equal
    # cliques can satisfy the p-subset condition with fewer pairs.
    rng = np.random.default_rng(23)
    seen_ok = 0
    for _ in range(800):
        n = int(rng.integers(6, 16))
        g = random_graph(rng, n, float(rng.uniform(0.2, 0.95)))
        p = int(rng.integers(2, 5))
        if p * (p - 1) > n:
            continue
        if not verify_p2(g, p):
            continue
        meets, bound, ok = turan_pair_check(g, p)
        assert ok, (n, p, meets, bound)
        seen_ok += 1
    assert seen_ok >= 50


def test_turan_bound_edge_of_regime():
    # p-1 equal cliques on exactly n = p(p-1) vertices: the extremal witness.
    for p in (3, 4, 5):
        n = p * (p - 1)
        edges = set()
        for c in range(p - 1):
            edges |= clique_edges(range(c * p, (c + 1) * p))
        g = make_graph(n, edges)
        assert verify_p2(g, p)
        meets, bound, ok = turan_pair_check(g, p)
        assert ok, (p, meets, bound)


def neighbor_degree_sums(graph):
    """Degrees and g(v) = sum of deg(w) over the neighbors w of v, by plain loops."""
    n = graph.n
    nbrs = [[w for w in range(n) if graph.adj[v, w]] for v in range(n)]
    deg = [len(a) for a in nbrs]
    return deg, [sum(deg[w] for w in a) for a in nbrs]


def reference_max_neighbor_degree_sum(graph):
    """The vertex with the largest g, the smallest index among equals, and its g."""
    g = neighbor_degree_sums(graph)[1]
    best = max(range(graph.n), key=lambda v: (g[v], -v))
    return best, g[best]


def test_max_neighbor_degree_sum_examples():
    cycle = make_graph(4, {(0, 1), (1, 2), (2, 3), (3, 0)})
    v, g = max_neighbor_degree_sum(cycle)
    assert (v, g) == (0, 4)
    assert g == 4 * cycle.edge_count**2 / cycle.n**2

    # Every vertex of the star has g = 4; the tie goes to the smallest index.
    star = make_graph(5, {(1, 0), (1, 2), (1, 3), (1, 4)})
    v, g = max_neighbor_degree_sum(star)
    assert (v, g) == (0, 4)
    assert 4 * star.edge_count**2 / star.n**2 == pytest.approx(2.56)

    with pytest.raises(ValueError):
        max_neighbor_degree_sum(make_graph(0, ()))


def test_max_neighbor_degree_sum_bound_random():
    for seed in range(100):
        g = random_graph(np.random.default_rng(seed), 20, 0.3)
        v, best = max_neighbor_degree_sum(g)
        assert (v, best) == reference_max_neighbor_degree_sum(g)
        assert best >= 4 * g.edge_count**2 / g.n**2 - 1e-12


def test_neighbor_degree_sum_identity():
    rng = np.random.default_rng(29)
    for _ in range(60):
        n = int(rng.integers(1, 16))
        g = random_graph(rng, n, float(rng.uniform(0, 1)))
        assert max_neighbor_degree_sum(g) == reference_max_neighbor_degree_sum(g)
        deg, gsum = neighbor_degree_sums(g)
        assert sum(gsum) == sum(d * d for d in deg)
