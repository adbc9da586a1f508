"""Circular witness lists, spread-out colors, and separator quadruples.

A witness list is the circular list of meeting points of a multiset of
bodies, held as one weighted color per distinct body: for every pair of
colors that meet on the curve, one curve angle where they do. One rule,
_multiset_witness_list, builds it from a meet_angles table and the
weights: unit weights for build_witness_list, the rounded multiplicities
for run_pipeline. The paper's combinatorics (spread-out colors, interval
covers, quadruples that pierce a color and their counts) run on entry
indices of the sorted list; distances there are index distances, never
angles. The spread-out / short-cover dichotomy, is_spread_out and
interval_cover, takes one color's occurrence indices and the list size for
every dimension d: circular on the plane's circle and on the closed curves
of even d, linear on the open curves of odd d, with the separator tuple
size in place of four. The heavy-point search, find_heavy_point, instead
pins its separators at the list's distinct angles and weighs each color.
"""

import itertools
import math
from bisect import bisect_left
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import DegenerateQuadrupleError, InsufficientWitnessesError
from .geometry import (
    TOL_GEOM,
    TWO_PI,
    ConvexBody,
    CurveModel,
    Point2,
    body_curve_arcs,
    containment_matrix,
    meet_angles,
    normalize_angle,
    segment_intersection,
)


@dataclass(frozen=True, eq=False)
class WitnessList:
    """The circular witness list of a multiset, one color per distinct body.

    Color i stands for weights[i] identical copies of body i; a list built
    by build_witness_list has weight 1 for every body. Copies share their
    arcs, so every copy of i meets every copy of j at the same angle, and
    copies of i meet each other at one angle of i's own arcs. Entry k is the
    color pair pairs[k] = (i, j), i <= j, meeting at angles[k] in [0, 2*pi).

    Construction checks, once, that each pair's colors index weights; that
    entries are in (angle, pair) order, which fixes the entry indices the
    lemmas count in; and that each pair occurs at most once. len() counts
    the entries.
    """

    angles: np.ndarray   # (E,) meet angle of each entry
    pairs: np.ndarray    # (E, 2) the entry's two colors
    weights: np.ndarray  # weight of each color, indexed like the bodies
    _occ: dict[int, list[int]] = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        angles = np.asarray(self.angles, dtype=float)
        pairs = np.asarray(self.pairs, dtype=np.intp).reshape(-1, 2)
        weights = np.asarray(self.weights, dtype=np.int64)
        object.__setattr__(self, "angles", angles)
        object.__setattr__(self, "pairs", pairs)
        object.__setattr__(self, "weights", weights)
        if angles.shape != (len(pairs),) or weights.ndim != 1 or np.count_nonzero(weights < 0):
            raise ValueError("a witness list needs one angle per pair and nonnegative weights")
        if not len(pairs):
            return
        lo, hi = pairs[:, 0], pairs[:, 1]
        # Read as unsigned, a negative color is out of range too.
        if np.count_nonzero(pairs.view(np.uintp) >= len(weights)) or np.count_nonzero(lo > hi):
            raise ValueError("witness pairs must be colors (i, j), i <= j, indexing the weights")
        key = lo * len(weights) + hi
        if (np.count_nonzero(np.lexsort((key, angles)) != np.arange(len(key)))
                or not 0.0 <= angles[0] or not angles[-1] < TWO_PI):
            raise ValueError("witness entries must be in (angle, pair) order within [0, 2*pi)")
        key.sort()
        if np.count_nonzero(key[1:] == key[:-1]):
            raise ValueError("a color pair may witness at most once")

    def __len__(self) -> int:
        return len(self.angles)

    def occurrences(self, color: int) -> list[int]:
        """Sorted entry indices carrying the color; empty when absent."""
        if color not in self._occ:
            hit = (self.pairs[:, 0] == color) | (self.pairs[:, 1] == color)
            self._occ[color] = hit.nonzero()[0].tolist()
        return self._occ[color]


def _multiset_witness_list(angles: np.ndarray, m) -> WitnessList:
    """Witness list of the multiset with m[i] copies of body i, as weighted colors.

    angles is the bodies' meet_angles table. The entries are the meeting
    pairs of bodies with m > 0, and each body with m >= 2 paired with itself
    at its diagonal angle, where its copies meet each other.
    """
    weights = np.asarray(m, dtype=np.int64)
    used = weights > 0
    meets = ~np.isnan(angles) & used[:, None] & used[None, :]
    meets[np.diag_indices_from(meets)] &= weights >= 2
    i, j = np.nonzero(np.triu(meets))
    at = angles[i, j]
    # nonzero lists (i, j) in order, so a stable sort by angle gives (angle, pair) order.
    order = np.argsort(at, kind="stable")
    return WitnessList(at[order], np.stack([i, j], axis=1)[order], weights)


def build_witness_list(bodies: list[ConvexBody], curve: CurveModel) -> WitnessList:
    """One witness per body pair whose curve arcs share a point: the list at weight 1."""
    return _multiset_witness_list(meet_angles([body_curve_arcs(b, curve) for b in bodies]),
                                  np.ones(len(bodies), dtype=np.int64))


def spread_threshold(alpha: float, n: int) -> int:
    """Smallest integer distance t with t >= alpha*n, guarded against float fuzz."""
    return max(1, math.ceil(round(alpha * n, 9)))


def cover_width(alpha: float, n: int) -> int:
    """Largest integer interval length not exceeding alpha*n."""
    return math.floor(round(alpha * n, 9))


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


IndexInterval = tuple[int, int]


def _dichotomy_input(occ, n: int, alpha: float) -> list[int]:
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    if n < 1:
        raise ValueError("list size must be positive")
    occ = sorted(int(v) for v in occ)
    if occ and (occ[0] < 0 or occ[-1] >= n):
        raise ValueError("occurrence indices must lie in [0, n)")
    return occ


def _unwrapped(occ: list[int], n: int, circular: bool):
    # The linear order, or on the cycle each rotation that starts at an
    # occurrence, unwrapped past n; some optimal chain or cover starts at one.
    if not circular:
        yield occ
        return
    for s in range(len(occ)):
        yield occ[s:] + [v + n for v in occ[:s]]


def is_spread_out(occ, n: int, alpha: float, d: int = 2) -> bool:
    """True when enough occurrences sit pairwise >= ceil(alpha*n) apart.

    occ are one color's entry indices in a list of n entries. Even d reads
    circular distances and needs j = separator_tuple_size(d) occurrences,
    four at d = 2; odd d reads linear distances and needs j + 1. The greedy
    chain (the first occurrence, then each earliest one at distance >= t
    from the last) is exact on a line; on the cycle it runs from every
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


def interval_cover(occ, n: int, alpha: float, d: int = 2) -> list[IndexInterval] | None:
    """Fewest intervals of index width <= floor(alpha*n) covering occ, or None.

    The complement of is_spread_out: None when the color is spread out, or
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
    if is_spread_out(occ, n, alpha, d):
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
    """Crossing of the two diagonal chords spanned by the four separators."""
    return _chord_crossing(curve, separator_angles(q, quad))


def _chord_crossing(curve: CurveModel, angles) -> Point2:
    """Crossing of the chords ya-yc and yb-yd for separators (ya, yb, yc, yd)."""
    ya, yb, yc, yd = angles
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
    total = sum(piercing_count_exact(q.occurrences(c), n) for c in range(len(q.weights)))
    return float(Fraction(total, math.comb(n, 4)))


@dataclass(frozen=True)
class HeavyPointResult:
    """A heavy point z, the weight of the bodies containing it, and its score.

    quad holds four indices into the searched list's distinct angles, in
    increasing order, when z is the crossing of their chords; it is None when
    z is the curve point at one distinct angle, or a point of one body's arcs.
    """

    point: Point2
    covered: int
    pierced: int
    quad: tuple[int, int, int, int] | None


EXHAUSTIVE_LIMIT = 60


def find_heavy_point(q: WitnessList, bodies: list[ConvexBody],
                     curve: CurveModel) -> HeavyPointResult:
    """Heaviest point of a witness list: separators pinned at meet angles.

    Color i of the list is bodies[i], so q.weights needs one weight per body;
    ValueError names the first color that is not a body index, or the first
    body without a color.

    The A distinct angles of the entries (merged within TOL_GEOM by
    _angle_runs) are the only separator positions, and every
    quadruple of them is scored: color i adds weights[i] when each closed
    arc [a, b], [b, c], [c, d], [d, a] holds one of its angles, since its
    copies then contain both chords' crossing. Past EXHAUSTIVE_LIMIT angles,
    the EXHAUSTIVE_LIMIT with the most occurrence weight (the total weight of
    the colors meeting there) are kept, ties to the smaller angle.
    Quadruples are tried by decreasing score, ties in combinations order;
    the first whose chords cross is recounted as the weight of the bodies
    containing it. The result is that point or, when it covers more, the
    best point of the curve at a distinct angle, scored the same way; pierced
    is then the angle's occurrence weight and quad None. The result does
    not depend on the order of the entries.

    An empty list gives a point of the arcs of the heaviest body that meets
    the curve, ties to the lower index. It raises InsufficientWitnessesError
    when no color has positive weight, or when no such body meets the curve.

    Separators in the gaps between distinct angles are left out: a
    separator pinned at either neighbouring angle closes both arcs beside it
    over a superset of occurrences, so it never pierces less, and only
    pinned separators pierce bodies whose meets are all at their vertices.

    Cost: O(C(min(A, EXHAUSTIVE_LIMIT), 4)) table lookups in numpy, and one
    containment_matrix call for the A angle points.
    """
    if len(q.weights) > len(bodies):
        raise ValueError(f"witness color {len(bodies)} is not an index into bodies")
    if len(q.weights) < len(bodies):
        raise ValueError(f"body {len(q.weights)} has no witness color")
    if not q.weights.any():
        raise InsufficientWitnessesError("no color has positive weight")
    if len(q) == 0:
        # No two copies meet on the curve, so no curve point lies in two of
        # them, and a point of the heaviest body meeting the curve is the best one.
        order = np.argsort(-q.weights, kind="stable")
        for i in order[q.weights[order] > 0].tolist():
            arcs = body_curve_arcs(bodies[i], curve)
            if arcs:
                z = curve.point_at(meet_angles([arcs])[0, 0])
                count = int(containment_matrix(bodies, [z])[0] @ q.weights)
                return HeavyPointResult(point=z, covered=count, pierced=int(q.weights[i]), quad=None)
        raise InsufficientWitnessesError("no body of positive weight meets the curve")
    distinct, present = _occurrences(q)
    at_angle = q.weights @ present
    points = [curve.point_at(t) for t in distinct]
    covered = containment_matrix(bodies, points) @ q.weights
    k = int(np.argmax(covered))
    best = HeavyPointResult(point=points[k], covered=int(covered[k]),
                            pierced=int(at_angle[k]), quad=None)

    keep = np.arange(len(distinct))
    if len(keep) > EXHAUSTIVE_LIMIT:
        keep = np.sort(np.lexsort((distinct, -at_angle))[:EXHAUSTIVE_LIMIT])
    if len(keep) < 4:
        return best
    quads = _all_quadruples(len(keep))
    for value, rank in _by_decreasing_score(_weighted_scores(present[:, keep], q.weights, quads)):
        quad = tuple(int(v) for v in keep[quads[rank]])
        try:
            z = _chord_crossing(curve, [distinct[v] for v in quad])
        except DegenerateQuadrupleError:
            continue
        count = int(containment_matrix(bodies, [z])[0] @ q.weights)
        if count >= best.covered:
            best = HeavyPointResult(point=z, covered=count, pierced=value, quad=quad)
        break
    return best


def _occurrences(q: WitnessList) -> tuple[list[float], np.ndarray]:
    """The list's distinct angles, and whether each color occurs at each one."""
    distinct, run = _angle_runs(q.angles.tolist())
    present = np.zeros((len(q.weights), len(distinct)), dtype=bool)
    present[q.pairs[:, 0], run] = True
    present[q.pairs[:, 1], run] = True
    return distinct, present


def _by_decreasing_score(scores: np.ndarray):
    """(score, row) pairs in the order of a stable argsort of -scores.

    Made one score at a time: the first row usually gives a point, and the
    rest are never sorted.
    """
    for value in np.flatnonzero(np.bincount(scores))[::-1]:
        for rank in np.flatnonzero(scores == value):
            yield int(value), int(rank)


def _all_quadruples(n: int) -> np.ndarray:
    """Every increasing quadruple of range(n), in itertools.combinations order.

    Row (a, b, c, d) is the pair (a, b) followed by a pair (c, d) with c > b;
    in the lexicographic pair list those pairs are a suffix, so each (a, b)
    repeats once per pair of that suffix.
    """
    first, second = np.triu_indices(n, 1)
    # start[s]: how many pairs have a first index below s.
    start = np.zeros(n + 1, dtype=np.intp)
    np.cumsum(np.arange(n - 1, -1, -1), out=start[1:])
    lo = start[second + 1]
    counts = len(first) - lo
    tail = np.arange(int(counts.sum())) + np.repeat(lo - (np.cumsum(counts) - counts), counts)
    quads = np.empty((tail.size, 4), dtype=np.min_scalar_type(n - 1))
    quads[:, 0] = np.repeat(first, counts)
    quads[:, 1] = np.repeat(second, counts)
    quads[:, 2] = first[tail]
    quads[:, 3] = second[tail]
    return quads


def _angle_runs(angles: list[float]) -> tuple[list[float], np.ndarray]:
    """Distinct angles of sorted angles, and the index of the one each merges into.

    An angle within TOL_GEOM of the current run's first angle joins that
    run, which its first angle represents; a last run within TOL_GEOM of the
    first one across 2*pi joins the first.
    """
    out: list[float] = []
    owner: list[int] = []
    for t in angles:
        if not out or t - out[-1] > TOL_GEOM:
            out.append(t)
        owner.append(len(out) - 1)
    run = np.array(owner, dtype=np.intp)
    if len(out) > 1 and (out[0] + 2.0 * math.pi) - out[-1] <= TOL_GEOM:
        out.pop()
        run[run == len(out)] = 0
    return out, run


# Cells (colors x angle pairs, or quadruples) one scoring step holds at once.
_CHUNK = 1 << 15


def _weighted_scores(present: np.ndarray, weights: np.ndarray,
                     quads: np.ndarray) -> np.ndarray:
    """Pierced weight of each row (a, b, c, d), a < b < c < d < A, of quads.

    present[i, x] says color i occurs at distinct angle x. Color i adds
    weights[i] when each closed circular arc [a, b], [b, c], [c, d] and
    [d, a] holds one of its occurrences; only colors at two or more angles
    can. The arc presence is built once, as an A x A table of color bits
    packed in bytes; each row ANDs four lookups, and every byte of the
    result turns into weight through a 256-entry table of that byte's
    colors.
    """
    n_angles = present.shape[1]
    live = (weights > 0) & (present.sum(axis=1) >= 2)
    present, weights = present[live], weights[live]
    totals = np.zeros(quads.shape[0], dtype=np.int64)
    if not len(weights) or not quads.shape[0]:
        return totals
    # k[i, x]: occurrences of color i below angle x.
    k = np.zeros((len(weights), n_angles + 1), dtype=np.int64)
    np.cumsum(present, axis=1, out=k[:, 1:])
    wraps = np.arange(n_angles)[:, None] > np.arange(n_angles)[None, :]
    table = np.zeros((n_angles * n_angles, -(-len(weights) // 8)), dtype=np.uint8)
    step = 8 * max(1, _CHUNK // (8 * n_angles * n_angles))  # whole bytes of colors per block
    for r0 in range(0, len(weights), step):
        kb = k[r0:r0 + step]
        # Occurrences in [x, y], or in [x, A) and [0, y] when the arc wraps.
        count = kb[:, None, 1:] - kb[:, :-1, None] + np.where(wraps, kb[:, -1, None, None], 0)
        packed = np.packbits(count > 0, axis=0, bitorder="little")
        table[:, r0 // 8:r0 // 8 + packed.shape[0]] = packed.reshape(packed.shape[0], -1).T
    padded = np.zeros(8 * table.shape[1], dtype=np.int64)
    padded[:len(weights)] = weights
    byte_bits = np.unpackbits(np.arange(256, dtype=np.uint8)[:, None], axis=1, bitorder="little")
    byte_weight = byte_bits.astype(np.int64) @ padded.reshape(-1, 8).T  # (value, byte)
    byte = np.arange(table.shape[1])
    for lo in range(0, quads.shape[0], _CHUNK):
        a, b, c, d = quads[lo:lo + _CHUNK].T.astype(np.intp)
        hit = (table[a * n_angles + b] & table[b * n_angles + c]
               & table[c * n_angles + d] & table[d * n_angles + a])
        totals[lo:lo + _CHUNK] = byte_weight[hit, byte].sum(axis=1)
    return totals


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
