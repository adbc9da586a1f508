"""The paper's lemmas that bound the transversal without building it.

Only the tests run them, so they live here, beside the tests, and not in
src/pierce: the separator quadruples on a witness list (which colors a
quadruple pierces, its piercing point, exact piercing counts and their
mean), the short-interval side of the spread-out dichotomy, the rate
bounds, the neighbor-degree observation on the meet graph, points of the
higher-dimensional curves, and the segment crossing that the reference
candidates use. pierce.witness keeps the witness list and the planar
is_spread_out, which pierce stats prints; is_spread_out_d, its form for
dimension d, lives here with separator_tuple_size.
"""

import itertools
import math
from bisect import bisect_left
from fractions import Fraction

import numpy as np

from pierce.errors import PierceError
from pierce.geometry import (
    TOL_GEOM,
    ConvexBody,
    CurveModel,
    Point2,
    body_curve_arcs,
    meet_matrix,
    normalize_angle,
)
from pierce.highdim import MOMENT, CurveSpecD
from pierce.meetgraph import ColorGraph
from pierce.witness import WitnessList, _dichotomy_input, spread_threshold, witness_list


class DegenerateQuadrupleError(PierceError):
    """Raised when all four separator angles collapse to a single direction."""


def segment_intersection(a1: Point2, a2: Point2, b1: Point2, b2: Point2) -> Point2 | None:
    """Intersection point of two closed segments, or None.

    Endpoint touches count as intersections. Parallel segments return None
    even when they overlap, since no single point is canonical there.
    """
    d1x, d1y = a2[0] - a1[0], a2[1] - a1[1]
    d2x, d2y = b2[0] - b1[0], b2[1] - b1[1]
    den = d1x * d2y - d1y * d2x
    n1 = math.hypot(d1x, d1y)
    n2 = math.hypot(d2x, d2y)
    if n1 == 0.0 or n2 == 0.0 or abs(den) <= TOL_GEOM * n1 * n2:
        return None
    ex, ey = b1[0] - a1[0], b1[1] - a1[1]
    t = (ex * d2y - ey * d2x) / den
    u = (ex * d1y - ey * d1x) / den
    pad_t = TOL_GEOM / n1
    pad_u = TOL_GEOM / n2
    if -pad_t <= t <= 1.0 + pad_t and -pad_u <= u <= 1.0 + pad_u:
        return (a1[0] + t * d1x, a1[1] + t * d1y)
    return None


PointD = tuple[float, ...]


def curve_point(spec: CurveSpecD, t: float) -> PointD:
    """Point of the curve at parameter t."""
    if spec.kind == MOMENT:
        return tuple(t**k for k in range(1, spec.d + 1))
    return tuple(f(k * t) for k in range(1, spec.d // 2 + 1) for f in (math.sin, math.cos))


def max_neighbor_degree_sum(graph: ColorGraph) -> tuple[int, int]:
    """Vertex maximizing g(v) = sum of deg(w) over neighbors w, with its g.

    On any graph the maximum satisfies g >= 4|E|^2 / n^2; ties break toward
    the smallest vertex index.
    """
    if graph.n < 1:
        raise ValueError("graph must have at least one vertex")
    adj = graph.adj.astype(np.int64)
    g = adj @ adj.sum(axis=1)
    best = int(np.argmax(g))
    return best, int(g[best])


def build_witness_list(bodies: list[ConvexBody], curve: CurveModel) -> WitnessList:
    """One witness per body pair whose curve arcs share a point, in the
    curve's frame."""
    arcs = body_curve_arcs(curve.to_unit(bodies))
    return witness_list(arcs, meet_matrix(arcs))


def separator_tuple_size(d: int) -> int:
    """Points per separator tuple in dimension d: (d^2+d+2)/2 even, (d^2+1)/2 odd.

    Both numerators are even for their parity, so the division is exact.
    d=2 gives 4, the planar quadruple.
    """
    if d < 2:
        raise ValueError("dimension must be at least 2")
    if d % 2 == 0:
        return (d * d + d + 2) // 2
    return (d * d + 1) // 2


def _unwrapped(occ: list[int], n: int, circular: bool):
    # The linear order, or on the cycle each rotation that starts at an
    # occurrence, unwrapped past n; some optimal chain or cover starts at one.
    if not circular:
        yield occ
        return
    for s in range(len(occ)):
        yield occ[s:] + [v + n for v in occ[:s]]


def is_spread_out_d(occ, n: int, alpha: float, d: int = 2) -> bool:
    """pierce.witness.is_spread_out in dimension d: True when enough
    occurrences sit pairwise >= ceil(alpha*n) apart.

    occ are one color's entry indices in a list of n entries. Even d reads
    circular distances, on the closed curves of even d, and needs
    j = separator_tuple_size(d) occurrences, four at d = 2; odd d reads
    linear distances, on the open curves of odd d, and needs j + 1. The
    greedy chain (the first occurrence, then each earliest one at distance
    >= t from the last) is exact on a line; on the cycle it runs from every
    anchor and also needs the wrap gap back to the anchor >= t, since
    points are pairwise far exactly when their consecutive gaps are.
    """
    occ = _dichotomy_input(occ, n, alpha)
    circular = d % 2 == 0
    j = separator_tuple_size(d)
    want = j if circular else j + 1
    t = spread_threshold(alpha, n)
    for seq in _unwrapped(occ, n, circular):
        chain = seq[:1]
        for v in seq[1:]:
            if v - chain[-1] >= t:
                chain.append(v)
                if len(chain) == want:
                    break
        if len(chain) == want and (not circular or chain[0] + n - chain[-1] >= t):
            return True
    return False


def cover_width(alpha: float, n: int) -> int:
    """Largest integer interval length not exceeding alpha*n."""
    return math.floor(round(alpha * n, 9))


IndexInterval = tuple[int, int]


def interval_cover(occ, n: int, alpha: float, d: int = 2) -> list[IndexInterval] | None:
    """Fewest intervals of index width <= floor(alpha*n) covering occ, or None.

    The complement of is_spread_out_d: None when the color is spread out, or
    when the fewest intervals exceed the limit, j = separator_tuple_size(d)
    for odd d (linear) or j - 1 for even d (circular), three at d = 2.
    Intervals are (first, last) occurrence pairs. The greedy cover (each
    interval starts at the first uncovered occurrence) is exact on a line;
    on the cycle it runs from every anchor, and the first fewest wins.

    For odd d the two sides are exact complements at every alpha. For even
    d they are whenever j*ceil(alpha*n) <= n; beyond that the spread side
    cannot fire while a cover may still need j or more intervals, and None
    is returned for that case too.
    """
    if is_spread_out_d(occ, n, alpha, d):
        return None
    occ = _dichotomy_input(occ, n, alpha)
    circular = d % 2 == 0
    width = cover_width(alpha, n)
    best: list[IndexInterval] = []
    for seq in _unwrapped(occ, n, circular):
        cover: list[IndexInterval] = []
        for v in seq:
            if cover and v - cover[-1][0] <= width:
                cover[-1] = (cover[-1][0], v)
            else:
                cover.append((v, v))
        if not best or len(cover) < len(best):
            best = cover
    j = separator_tuple_size(d)
    limit = j - 1 if circular else j
    return [(lo % n, hi % n) for lo, hi in best] if len(best) <= limit else None


def _quad_indices(quad) -> tuple[int, int, int, int]:
    idx = tuple(quad)
    if len(idx) != 4:
        raise ValueError("a separator quadruple needs exactly four indices")
    a, b, c, d = idx
    if not (0 <= a < b < c < d):
        raise ValueError("separator indices must be distinct and increasing")
    return (int(a), int(b), int(c), int(d))


def _interval_has_occurrence(occ: list[int], lo: int, hi_excl: int, n: int) -> bool:
    # Index interval [lo, hi_excl) on the cycle; assumes 0 <= lo, hi_excl <= n.
    if lo < hi_excl:
        return bisect_left(occ, lo) < bisect_left(occ, hi_excl)
    return bisect_left(occ, lo) < len(occ) or bisect_left(occ, hi_excl) > 0


def quadruple_pierces(q: WitnessList, quad, color: int) -> bool:
    """True when each of the four separator-cut intervals holds the color."""
    a, b, c, d = _quad_indices(quad)
    n = len(q)
    if d >= n:
        raise ValueError("separator index out of range")
    occ = q.occurrences(color)
    if len(occ) == 0:
        return False
    return (_interval_has_occurrence(occ, a, b, n)
            and _interval_has_occurrence(occ, b, c, n)
            and _interval_has_occurrence(occ, c, d, n)
            and _interval_has_occurrence(occ, d, a, n))


def separator_angles(q: WitnessList, quad) -> tuple[float, float, float, float]:
    """Angle of each separator: the midpoint of its entry gap.

    Separator k sits weakly between entries k-1 and k, so its angle is the
    middle of that angular gap; a zero gap pins it to the shared angle.
    """
    idx = _quad_indices(quad)
    n = len(q)
    if idx[3] >= n:
        raise ValueError("separator index out of range")
    angles = q.angles
    out = []
    for k in idx:
        prev = angles[(k - 1) % n]
        gap = (angles[k] - prev) % (2.0 * math.pi)
        out.append(normalize_angle(prev + 0.5 * gap))
    return tuple(out)


def piercing_point(curve: CurveModel, q: WitnessList, quad) -> Point2:
    """Crossing of the two diagonal chords ya-yc and yb-yd spanned by the
    four separators (ya, yb, yc, yd)."""
    ya, yb, yc, yd = separator_angles(q, quad)
    spread = max(_angle_gap(x, y) for x, y in itertools.combinations((ya, yb, yc, yd), 2))
    if spread <= TOL_GEOM:
        raise DegenerateQuadrupleError("all separators collapse to one angle")
    z = segment_intersection(curve.point_at(ya), curve.point_at(yc),
                             curve.point_at(yb), curve.point_at(yd))
    if z is None:
        raise DegenerateQuadrupleError("separator chords do not cross")
    return z


def _angle_gap(x: float, y: float) -> float:
    d = abs(x - y) % (2.0 * math.pi)
    return min(d, 2.0 * math.pi - d)


def piercing_count_exact(occ: list[int], n: int) -> int:
    """Number of separator quadruples piercing a color, in closed form.

    Cutting the cycle at the occurrences splits the n indices into one block
    per occurrence; a quadruple pierces exactly when its four indices land in
    four distinct blocks, so the count is the degree-4 elementary symmetric
    polynomial of the block sizes.
    """
    m = len(occ)
    if m == 0:
        return 0
    gaps = [((occ[(k + 1) % m] - occ[k]) % n) if m > 1 else n for k in range(m)]
    e = [1, 0, 0, 0, 0]
    for g in gaps:
        for j in range(4, 0, -1):
            e[j] += e[j - 1] * g
    return e[4]


def expected_pierced(q: WitnessList) -> float:
    """Exact mean number of pierced colors over all separator quadruples."""
    n = len(q)
    if n < 4:
        return 0.0
    total = sum(piercing_count_exact(q.occurrences(c), n) for c in range(q.colors))
    return float(Fraction(total, math.comb(n, 4)))


def coverage_rate_bound(alpha: float) -> float:
    """Guaranteed covered fraction of an all-pairs-meeting family.

    The product of the piercing probability of a spread-out color,
    24*alpha^3*(1-3*alpha), with the guaranteed fraction of spread-out colors,
    1-3*sqrt(3*alpha). Near its maximum (alpha about 0.027) the value clears
    1/15800.
    """
    if not 0.0 < alpha < 1.0 / 3.0:
        raise ValueError("alpha must lie in (0, 1/3)")
    return 24.0 * alpha ** 3 * (1.0 - 3.0 * alpha) * (1.0 - 3.0 * math.sqrt(3.0 * alpha))


def non_spread_ratio_bound(gamma: float) -> float:
    """Upper bound on the non-spread color fraction when gamma*n^2/2 pairs meet."""
    if not 0.0 < gamma < 1.0:
        raise ValueError("gamma must lie in (0, 1)")
    return (1.0 - gamma / 2.0) / (1.0 - 3.0 * gamma / 20.0)
