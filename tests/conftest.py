"""Shared fixtures and builders for the test suite."""

import functools
import itertools
import math

import numpy as np
from hypothesis import strategies as st

from pierce.geometry import (
    TOL_GEOM,
    TWO_PI,
    ConvexBody,
    Point2,
    containment_matrix,
    normalize_angle,
)
from pierce import lp
from pierce.highdim import _pseudo_divmod
from pierce.lp import PIVOT_TOL, TOL_LP, LPSolution
from pierce.meetgraph import ColorGraph
from pierce.witness import WitnessList, spread_threshold

from lemmas import cover_width, segment_intersection, separator_tuple_size

NUDGE_EPS = 1e-6

_NUDGE_DIRS = (
    (0.7071067811865476, 0.7071067811865476),
    (-0.7071067811865476, 0.7071067811865476),
    (-0.7071067811865476, -0.7071067811865476),
    (0.7071067811865476, -0.7071067811865476),
)

# Squares and triangles on a half-unit grid, so that shared vertices, shared
# edges, nesting and corner contacts come up often.
grid = st.integers(0, 8).map(lambda k: k / 2)
grid_square = st.tuples(grid, grid, st.integers(1, 6)).map(
    lambda t: [(t[0], t[1]), (t[0] + t[2] / 2, t[1]),
               (t[0] + t[2] / 2, t[1] + t[2] / 2), (t[0], t[1] + t[2] / 2)])
grid_triangle = st.lists(st.tuples(grid, grid), min_size=3, max_size=3).filter(
    lambda v: (v[1][0] - v[0][0]) * (v[2][1] - v[0][1])
    != (v[1][1] - v[0][1]) * (v[2][0] - v[0][0]))


def arc_body(body_id: int, lo: float, hi: float) -> ConvexBody:
    """Convex wedge whose unit-circle arc is exactly [lo, hi]; span under pi."""
    span = hi - lo
    assert 0.0 < span < math.pi
    steps = max(2, math.ceil(span / 0.5))
    r_out = 1.05 / math.cos(span / (2 * steps))
    pts = [(0.3 * math.cos(lo), 0.3 * math.sin(lo))]
    for k in range(steps + 1):
        t = lo + span * k / steps
        pts.append((r_out * math.cos(t), r_out * math.sin(t)))
    pts.append((0.3 * math.cos(hi), 0.3 * math.sin(hi)))
    return ConvexBody.from_vertices(body_id, pts)


def tangent_triangle(body_id: int, angle: float, turn: float) -> ConvexBody:
    """A triangle inside the unit disk whose one point on the unit circle is
    its vertex at angle: its other two vertices lie 0.6 from that vertex, at
    turn and turn + 0.5 radians from the direction to the centre."""
    vx, vy = math.cos(angle), math.sin(angle)
    ends = [(vx - 0.6 * math.cos(angle + t), vy - 0.6 * math.sin(angle + t))
            for t in (turn, turn + 0.5)]
    return ConvexBody.from_vertices(body_id, [(vx, vy), *ends])


def pg22_twice() -> list[ConvexBody]:
    """Two copies of PG(2,2), one inscribed triangle per line; the second is
    turned by half a spacing and has its seven points in another order."""
    lines = [(0, 1, 3), (1, 2, 4), (2, 3, 5), (3, 4, 6), (4, 5, 0), (5, 6, 1), (6, 0, 2)]
    bodies = []
    for turn, place in ((0.0, (0, 1, 2, 3, 4, 5, 6)), (math.pi / 7, (0, 1, 2, 4, 5, 3, 6))):
        for line in lines:
            angles = [turn + TWO_PI * place[v] / 7 for v in line]
            bodies.append(ConvexBody.from_vertices(
                len(bodies), [(math.cos(a), math.sin(a)) for a in angles]))
    return bodies


def pg_lines(q: int) -> tuple[int, list[list[int]]]:
    """Point count and lines of PG(2, q), q prime: the normalized nonzero
    vectors of F_q^3, where line l holds the points p with l.p = 0."""
    pts = [v for v in itertools.product(range(q), repeat=3)
           if any(v) and v[next(i for i, c in enumerate(v) if c)] == 1]
    return len(pts), [[i for i, p in enumerate(pts) if sum(a * b for a, b in zip(line, p)) % q == 0]
                      for line in pts]


def pg_union_polygons(q, copies) -> list[list[tuple[float, float]]]:
    """Inscribed PG(2, q) copies, one polygon per line, each copy a (turn,
    place) pair: turned by turn, with point v at angle TWO_PI * place[v] /
    size on the circle. Many edges pass through shared circle points."""
    size, lines = pg_lines(q)
    return [[(math.cos(a), math.sin(a))
             for a in sorted((turn + TWO_PI * place[v] / size) % TWO_PI for v in line)]
            for turn, place in copies for line in lines]


def containment_margin(body: ConvexBody, pt: Point2) -> float:
    """Signed clearance of pt: positive inside, negative outside.

    This is the smallest half-plane slack, which understates the true
    exterior distance near corners but has the correct sign everywhere.
    """
    p = np.asarray(pt, dtype=float)
    return float(np.min(body.offsets - body.normals @ p))


def graph_from_edges(n: int, edges) -> ColorGraph:
    """The ColorGraph on vertices 0..n-1 with the given (u, v) edges."""
    adj = np.zeros((n, n), dtype=bool)
    for u, v in edges:
        adj[u, v] = adj[v, u] = True
    return ColorGraph(adj)


@functools.cache
def _synthetic_arrays(n: int) -> tuple[np.ndarray, np.ndarray]:
    # Angles and pairs without color 0 of an n-entry synthetic list, built
    # once per n: the subset loops make tens of thousands of lists. Entry k
    # is (1 + k, n + 1 + k), or (0, n + 1 + k) when marked.
    k = np.arange(n)
    return TWO_PI * k / n, np.stack([1 + k, n + 1 + k], axis=1)


def synthetic_list(n: int, target_positions=()) -> WitnessList:
    """N entries at evenly spaced angles; color 0 occupies target_positions.

    Each other color occurs at most once.
    """
    angles, plain = _synthetic_arrays(n)
    pairs = plain.copy()
    pairs[list(target_positions), 0] = 0
    return WitnessList(angles, pairs, 2 * n + 1)


def circ_distance(a: int, b: int, n: int) -> int:
    """Shorter walking distance between two entry indices on a cycle of n."""
    if n <= 0:
        raise ValueError("cycle size must be positive")
    k = (b - a) % n
    return min(k, n - k)


def brute_spread(occ, n: int, alpha: float, d: int = 2) -> bool:
    """is_spread_out_d by enumeration: some separator_tuple_size(d) occurrences
    (one more for odd d) pairwise >= spread_threshold(alpha, n) apart, in
    circular distance for even d and linear distance for odd d."""
    j = separator_tuple_size(d)
    want = j if d % 2 == 0 else j + 1
    t = spread_threshold(alpha, n)
    dist = (lambda a, b: circ_distance(a, b, n)) if d % 2 == 0 else (lambda a, b: abs(a - b))
    return any(all(dist(a, b) >= t for a, b in itertools.combinations(pick, 2))
               for pick in itertools.combinations(occ, want))


def cover_is_valid(occ, n: int, alpha: float, cover, d: int = 2) -> bool:
    """Whether cover is an interval_cover answer for occ: at most j - 1
    circular intervals for even d, or j linear ones for odd d (j =
    separator_tuple_size(d)), each (lo, hi) of index length at most
    cover_width(alpha, n), together holding every occurrence."""
    j = separator_tuple_size(d)
    circular = d % 2 == 0
    width = cover_width(alpha, n)

    def length(lo, hi):
        return (hi - lo) % n if circular else hi - lo

    return (len(cover) <= (j - 1 if circular else j)
            and all(0 <= length(lo, hi) <= width for lo, hi in cover)
            and all(any(length(lo, v) <= length(lo, hi) and (circular or lo <= v)
                        for lo, hi in cover) for v in occ))


def random_pair_list(rng, n: int, universe: int) -> WitnessList:
    """N entries at evenly spaced angles with distinct random color pairs."""
    assert n <= universe * (universe - 1) // 2
    pairs = np.array(list(itertools.combinations(range(universe), 2)), dtype=np.intp)
    picks = rng.choice(len(pairs), size=n, replace=False)
    return WitnessList(TWO_PI * np.arange(n) / n, pairs[picks], universe)


def face_census(bodies: list[ConvexBody], candidates: list[Point2],
                clearance: float = 1e-7) -> dict[frozenset[int], Point2]:
    """Distinct containment signatures next to candidates, clear of all boundaries.

    Arrangement vertices (reference_candidates) lie on body boundaries, so
    each one is nudged NUDGE_EPS along the four diagonals, in order, and
    the nudged points are what get classified. A nudged point within
    clearance of any body boundary is skipped, so each kept signature
    corresponds to an open cell of the arrangement and the map value is one
    interior representative. Convexity makes cells with equal signature
    connected, so the count per depth is a face count.
    """
    nudged = [(x + dx * NUDGE_EPS, y + dy * NUDGE_EPS)
              for x, y in candidates for dx, dy in _NUDGE_DIRS]
    reps: dict[frozenset[int], Point2] = {}
    for pt in nudged:
        clean = True
        members = []
        for k, body in enumerate(bodies):
            margin = containment_margin(body, pt)
            if abs(margin) <= clearance:
                clean = False
                break
            if margin > 0.0:
                members.append(k)
        if not clean:
            continue
        sig = frozenset(members)
        if sig not in reps:
            reps[sig] = pt
    return reps


def _edges(body: ConvexBody) -> list[tuple[Point2, Point2]]:
    vs = [(float(x), float(y)) for x, y in body.vertices]
    return list(zip(vs, vs[1:] + vs[:1]))


def _rises(edge) -> bool:
    (x0, y0), (x1, y1) = edge
    return y1 - y0 >= -TOL_GEOM * math.hypot(x1 - x0, y1 - y0)


def _falls(edge) -> bool:
    (x0, y0), (x1, y1) = edge
    return y1 - y0 <= TOL_GEOM * math.hypot(x1 - x0, y1 - y0)


def _lowest_crossing(ea, eb) -> bool:
    # -e_y lies in the cone of the two edges' outward normals.
    (a1, a2), (b1, b2) = ea, eb
    den = (a2[0] - a1[0]) * (b2[1] - b1[1]) - (a2[1] - a1[1]) * (b2[0] - b1[0])
    return _falls(ea) and _rises(eb) if den > 0 else _rises(ea) and _falls(eb)


def reference_kept_vertices(body: ConvexBody) -> list[Point2]:
    """The vertices of one body that candidate_points keeps, in a plain
    loop: vertex k when its edge k - 1 falls and its edge k rises."""
    edges = _edges(body)
    out = []
    for k, (x, y) in enumerate(body.vertices.tolist()):
        if _falls(edges[k - 1]) and _rises(edges[k]):
            out.append((x, y))
    return out


def reference_candidates(bodies: list[ConvexBody], lowest: bool = False) -> list[Point2]:
    """The whole arrangement in candidate_points' order, in plain Python:
    every body's vertices, then segment_intersection over (i, j, edge of i,
    edge of j) for every body pair i < j.

    With lowest=True, only the points that pass candidate_points'
    lowest-vertex test, checked edge by edge: each body's
    reference_kept_vertices, and a crossing of two bodies' edges when -e_y
    lies in the cone of their outward normals.
    """
    out = []
    for body in bodies:
        out += reference_kept_vertices(body) if lowest else map(tuple, body.vertices.tolist())
    for a, b in itertools.combinations(bodies, 2):
        for ea in _edges(a):
            for eb in _edges(b):
                pt = segment_intersection(*ea, *eb)
                if pt is not None and (not lowest or _lowest_crossing(ea, eb)):
                    out.append(pt)
    return out


def reference_classes(bodies: list[ConvexBody], points) -> list[tuple[frozenset[int], Point2]]:
    """candidate_classes over the given points, with frozensets: each
    nonempty containment signature (read off containment_matrix) with its
    lowest point (least y, then least x), dominated signatures dropped, in
    the order of the key sum(2**i for body i in the signature)."""
    points = [(float(x), float(y)) for x, y in points]
    reps: dict[frozenset[int], Point2] = {}
    for pt, row in zip(points, containment_matrix(bodies, points)):
        sig = frozenset(np.flatnonzero(row).tolist())
        if sig and (sig not in reps or (pt[1], pt[0]) < (reps[sig][1], reps[sig][0])):
            reps[sig] = pt
    kept = [sig for sig in reps if not any(sig < other for other in reps)]
    return [(sig, reps[sig]) for sig in sorted(kept, key=lambda s: sum(1 << i for i in s))]


def reference_containment_matrix(bodies: list[ConvexBody], points: list[Point2]) -> np.ndarray:
    """containment_matrix as a loop over bodies: each body's column from its
    own half-planes."""
    inside = np.zeros((len(points), len(bodies)), dtype=bool)
    if not points:
        return inside
    pts = np.asarray(points, dtype=float)
    for k, body in enumerate(bodies):
        inside[:, k] = np.all(pts @ body.normals.T <= body.offsets + TOL_GEOM, axis=1)
    return inside


def arc_pieces(lo: float, hi: float) -> list[tuple[float, float]]:
    """Pieces of [0, 2*pi] of the arc from lo counterclockwise to hi, where
    hi - lo lies in [0, 2*pi]. An arc that holds angle 0 holds it at both
    ends: (s, 2*pi) and (0, e - 2*pi) through 0, (0, e) and (2*pi, 2*pi)
    from 0, and (0, 0) and (s, 2*pi) up to 2*pi."""
    span = hi - lo
    if span >= TWO_PI:
        return [(0.0, TWO_PI)]
    s = normalize_angle(lo)
    e = s + span
    if e > TWO_PI:
        return [(s, TWO_PI), (0.0, e - TWO_PI)]
    if s == 0.0:
        return [(0.0, e), (TWO_PI, TWO_PI)]
    if e == TWO_PI:
        return [(0.0, 0.0), (s, TWO_PI)]
    return [(s, e)]


def reference_intersection(a: list[tuple[float, float]],
                           b: list[tuple[float, float]]) -> list[tuple[float, float]]:
    """Common points of two piece lists, in body_curve_arcs' form: the
    pieces' pairwise overlaps, sorted and merged where they touch."""
    hits = [(max(a0, b0), min(a1, b1)) for a0, a1 in a for b0, b1 in b
            if max(a0, b0) <= min(a1, b1)]
    merged: list[tuple[float, float]] = []
    for lo, hi in sorted(hits):
        if merged and lo <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], hi))
        else:
            merged.append((lo, hi))
    return merged


def reference_meet_angle(a: list[tuple[float, float]],
                         b: list[tuple[float, float]]) -> float | None:
    """meet_angles for one pair, as a scalar rule: intersect, drop a last
    (2*pi, 2*pi), which is the point 0 again, glue the first and last arcs
    of the intersection into one arc through 0 when they touch 0 and 2*pi,
    and take the midpoint of the arc with the earliest start. None when the
    lists share no point."""
    common = reference_intersection(a, b)
    if not common:
        return None
    if len(common) > 1 and common[-1] == (TWO_PI, TWO_PI):
        common.pop()
    arcs = [(lo, hi - lo) for lo, hi in common]  # (start, length)
    if len(common) > 1 and common[0][0] == 0.0 and common[-1][1] == TWO_PI:
        start, end = common[-1][0], common[0][1]
        arcs = [(start, (TWO_PI - start) + end)] + arcs[1:-1]
    start, length = min(arcs)
    return normalize_angle(start + 0.5 * length)


def reference_body_curve_arcs(body: ConvexBody) -> list[tuple[float, float]]:
    """body_curve_arcs with one reference_intersection per cutting edge."""
    arcs = [(0.0, TWO_PI)]
    for n, off in zip(body.normals, body.offsets):
        c = off + TOL_GEOM
        if c >= 1.0:
            continue
        if c <= -1.0:
            return []
        delta = math.acos(c)
        phi = math.atan2(n[1], n[0])
        arcs = reference_intersection(arcs, arc_pieces(phi + delta, phi + TWO_PI - delta))
        if not arcs:
            return []
    return arcs


def reference_packing_solve(mat) -> LPSolution:
    """packing_solve with its scans as loops over numpy scalars, read from
    the tableau entry by entry: the leaving row has the most negative rhs
    below -TOL_LP, the first such row among ties, and the entering column
    the least reduced cost per unit of the leaving row's entries below
    -PIVOT_TOL, the first such column among ties. It starts from
    lp._tableau and pivots through lp._pivot, so a test can count the
    pivots of both; it never refactors, so it stands for packing_solve on
    LPs of fewer than REFACTOR_EVERY pivots."""
    mat = np.asarray(mat, dtype=float)
    m, n = mat.shape
    k = m + n
    tab = lp._tableau(mat)
    basis = list(range(m, k))
    pivots = 0
    while True:
        leaving = -1
        for i in range(n):
            if tab[i, k] < -TOL_LP and (leaving < 0 or tab[i, k] < tab[leaving, k]):
                leaving = i
        if leaving < 0:
            break
        entering = -1
        for j in range(k):
            a = tab[leaving, j]
            if a < -PIVOT_TOL and (
                    entering < 0 or tab[n, j] / -a < tab[n, entering] / -tab[leaving, entering]):
                entering = j
        if entering < 0:
            raise ValueError(f"packing program is unbounded in column {leaving}")
        lp._pivot(tab, basis, leaving, entering)
        pivots += 1
    # The packing is the surplus columns' reduced costs under unit class costs.
    values = np.zeros(n)
    cover = [0.0] * m
    for r in range(n):
        if basis[r] < m:
            values -= tab[r, m:k]
            cover[basis[r]] = float(tab[r, k])
    if np.any(mat @ values > 1.0 + TOL_LP) or np.any(values < -TOL_LP):
        raise ArithmeticError("simplex returned an infeasible optimum")
    packing = values.tolist()
    return LPSolution(tuple(packing), sum(packing), tuple(cover), pivots)


def reference_sturm_chain(p: list[int]) -> list[list[int]]:
    """The Sturm chain of p built on _pseudo_divmod alone: p, p', then each
    negated pseudo-remainder over its content, until a constant or a
    vanishing remainder."""
    chain = [p, [k * c for k, c in enumerate(p)][1:]]
    while len(chain[-1]) > 1:
        rem = _pseudo_divmod(chain[-2], chain[-1])[1]
        if not rem:
            break
        content = math.gcd(*rem)
        chain.append([-c // content for c in rem])
    return chain
