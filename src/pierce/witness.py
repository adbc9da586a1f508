"""Circular witness lists, spread-out colors, and separator quadruples.

A witness list is the circular list of meeting points of a family of
bodies, one color per body: for every pair of colors that meet on the
curve, one curve angle where they do. witness_list_from_angles builds it
from a meet_angles table; build_witness_list and pierce stats use it. The
paper's combinatorics (spread-out colors, interval covers, quadruples that
pierce a color and their counts) run on entry indices of the sorted list;
distances there are index distances, never angles. The spread-out / short-
cover dichotomy, is_spread_out and interval_cover, takes one color's
occurrence indices and the list size for every dimension d: circular on
the plane's circle and on the closed curves of even d, linear on the open
curves of odd d, with the separator tuple size in place of four. The
pipeline's heavy point does not come from here: it is the heaviest
candidate class (see run_pipeline).
"""

import itertools
import math
import operator
from bisect import bisect_left
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import DegenerateQuadrupleError
from .geometry import (
    TOL_GEOM,
    TWO_PI,
    ConvexBody,
    CurveModel,
    Point2,
    body_curve_arcs,
    meet_angles,
    normalize_angle,
    segment_intersection,
)


@dataclass(frozen=True, eq=False)
class WitnessList:
    """The circular witness list of a family, one color per body.

    Entry k is the color pair pairs[k] = (i, j), i < j, meeting at angles[k]
    in [0, 2*pi); the colors are range(colors).

    Construction checks, once, that each pair's colors are in that range and
    in increasing order; that entries are in (angle, pair) order, which
    fixes the entry indices the lemmas count in; and that each pair occurs
    at most once. len() counts the entries.
    """

    angles: np.ndarray   # (E,) meet angle of each entry
    pairs: np.ndarray    # (E, 2) the entry's two colors
    colors: int          # number of colors, one per body
    _occ: dict[int, list[int]] = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        angles = np.asarray(self.angles, dtype=float)
        pairs = np.asarray(self.pairs, dtype=np.intp).reshape(-1, 2)
        colors = operator.index(self.colors)
        object.__setattr__(self, "angles", angles)
        object.__setattr__(self, "pairs", pairs)
        object.__setattr__(self, "colors", colors)
        if angles.shape != (len(pairs),) or colors < 0:
            raise ValueError("a witness list needs one angle per pair and a color count >= 0")
        if not len(pairs):
            return
        lo, hi = pairs[:, 0], pairs[:, 1]
        # Read as unsigned, a negative color is out of range too.
        if np.count_nonzero(pairs.view(np.uintp) >= colors) or np.count_nonzero(lo >= hi):
            raise ValueError("witness pairs must be colors (i, j), i < j < colors")
        key = lo * colors + hi
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


def witness_list_from_angles(angles: np.ndarray) -> WitnessList:
    """The witness list of a meet_angles table: one entry per meeting pair i < j."""
    i, j = np.nonzero(np.triu(~np.isnan(angles), 1))
    at = angles[i, j]
    # nonzero lists (i, j) in order, so a stable sort by angle gives (angle, pair) order.
    order = np.argsort(at, kind="stable")
    return WitnessList(at[order], np.stack([i, j], axis=1)[order], len(angles))


def build_witness_list(bodies: list[ConvexBody], curve: CurveModel) -> WitnessList:
    """One witness per body pair whose curve arcs share a point."""
    return witness_list_from_angles(meet_angles([body_curve_arcs(b, curve) for b in bodies]))


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
