"""Planar primitives: convex polygon bodies, a reference circle, and arc math.

Angles are radians normalized to [0, 2*pi). A body's arcs on the circle are
kept as sorted (lo, hi) pieces of [0, 2*pi], and a list that holds angle 0
holds it at both ends, with a piece starting at 0 and a piece ending at
2*pi.

The kernels run in the curve's frame, where the curve is the unit circle:
CurveModel.to_unit maps a family there once, where the pipeline and verify
take it, and from_unit maps output points back. So the one tolerance,
TOL_GEOM, is read in units of the curve's radius, and an answer does not
depend on where the family sits or how large it is, as long as the input
carries the bits the tolerance needs (CurveModel.check_range, which
Instance runs). from_vertices, which sees no curve, applies it relative to
each body's extent, so it too judges a body alike at any scale.

Membership is a family's half-plane rows, Family.rows, the one place
TOL_GEOM enters it: containment_matrix reads them for points and
body_curve_arcs for the points of the unit circle. There is no per-body
test (no body_contains): one point against one body is
containment_matrix([body], [point]).
"""

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import InvalidBodyError

TWO_PI = 2.0 * math.pi

TOL_GEOM = 1e-9

Point2 = tuple[float, float]

# The block budget of the blocked numpy kernels (candidate_points,
# meet_matrix, containment_matrix and pipeline._maximal_rows): a block's
# largest temporary holds at most BLOCK_CELLS cells, 512 KiB as float64, or
# one row's cells when a single row is larger.
BLOCK_CELLS = 1 << 16


def normalize_angle(theta: float) -> float:
    """Map an angle to the canonical range [0, 2*pi)."""
    t = math.fmod(theta, TWO_PI)
    if t < 0.0:
        t += TWO_PI
    if t >= TWO_PI:
        t = 0.0
    return t


# The values that count as numbers: Python's ints and floats, by exact type
# so that bools (an int subclass) are not, and numpy's; strings that float()
# would parse are not. The exact-type test comes first, as it is the cheaper.
_PY_REALS = frozenset((int, float))
_NP_REALS = (np.integer, np.floating)


def _finite_floats(values, what: str) -> list[float]:
    """A sequence of values as floats; a ValueError naming what rejects any
    value that is not an int or float (see _PY_REALS), finite and within
    float range."""
    try:
        floats = [float(v) for v in values if type(v) in _PY_REALS or isinstance(v, _NP_REALS)]
        if len(floats) != len(values):
            raise TypeError
    except OverflowError:
        raise ValueError(f"{what} is too large for a float") from None
    except TypeError:
        raise ValueError(f"{what} must be numbers") from None
    if not all(map(math.isfinite, floats)):
        raise ValueError(f"{what} must be finite")
    return floats


@dataclass(frozen=True)
class CurveModel:
    """The reference convex curve: the circle of this center and radius."""

    center: Point2
    radius: float

    def __post_init__(self):
        center = _finite_floats(self.center, "curve center")
        if len(center) != 2:
            raise ValueError("curve center must be two numbers")
        (radius,) = _finite_floats((self.radius,), "curve radius")
        if not radius > 0.0:
            raise ValueError("curve radius must be positive")
        object.__setattr__(self, "center", tuple(center))
        object.__setattr__(self, "radius", radius)

    def point_at(self, theta: float) -> Point2:
        return (
            self.center[0] + self.radius * math.cos(theta),
            self.center[1] + self.radius * math.sin(theta),
        )

    def check_range(self, bodies) -> None:
        """Raise a ValueError, in one line naming the coordinate, its ulp
        and TOL_GEOM * radius, when the largest coordinate of the bodies'
        vertices and the center has an ulp above TOL_GEOM * radius / 8.

        The kernels read TOL_GEOM in units of the radius (to_unit), and no
        map restores bits the input lacks: past this bound a coordinate's
        rounding alone is over an eighth of the tolerance, and a solve and
        its verify can read one point's containment apart. The eighth is a
        margin: on the benchmark's families, shifted far from the origin,
        no answer moved at an ulp of 0.93 TOL_GEOM * radius, and some did
        at 1.86.
        """
        coords = np.concatenate([self.center, *(b.vertices.ravel() for b in bodies)])
        top = float(coords[np.argmax(np.abs(coords))])
        if math.ulp(top) > TOL_GEOM * self.radius / 8:
            raise ValueError(f"coordinate {top!r} has an ulp of {math.ulp(top):.3g}, over an "
                             f"eighth of TOL_GEOM*r = {TOL_GEOM * self.radius:.3g}")

    def to_unit(self, bodies) -> list["ConvexBody"]:
        """The bodies in the curve's frame, where the curve is the unit
        circle: each vertex v becomes (v - center) / radius. A shift and a
        uniform scale keep the normals, so a body keeps them and needs no
        new checks, and offsets[i] = normals[i] . vertices[i] again. The
        unit circle's frame is the input's own, so bodies come back as
        they are."""
        if self == UNIT_CIRCLE:
            return bodies
        units = [(b, self.to_unit_points(b.vertices)) for b in bodies]
        return [ConvexBody(b.id, u, b.normals, np.einsum("ij,ij->i", b.normals, u))
                for b, u in units]

    def to_unit_points(self, points: np.ndarray) -> np.ndarray:
        """A (k, 2) float array of points in the curve's frame, as to_unit
        maps vertices."""
        return points if self == UNIT_CIRCLE else (points - self.center) / self.radius

    def from_unit(self, points) -> list[Point2]:
        """Points of the curve's frame back in the input's: u becomes
        center + radius * u. The unit circle's come back as they are."""
        if self == UNIT_CIRCLE:
            return list(points)
        (cx, cy), r = self.center, self.radius
        return [(cx + r * x, cy + r * y) for x, y in points]


UNIT_CIRCLE = CurveModel((0.0, 0.0), 1.0)


@dataclass(eq=False)
class ConvexBody:
    """Convex polygon with interior, counterclockwise vertices and cached edge data.

    normals[i] is the outward unit normal of the edge from vertices[i] to
    vertices[i+1], and offsets[i] = normals[i] . vertices[i], so a point x is
    inside exactly when normals @ x <= offsets holds row by row. Every body
    has at least three vertices and a width above TOL_GEOM times its
    extent (from_vertices rejects the rest).
    """

    id: int
    vertices: np.ndarray
    normals: np.ndarray
    offsets: np.ndarray

    @classmethod
    def from_vertices(cls, body_id: int, vertices) -> "ConvexBody":
        """The body with these vertices, in either orientation.

        Raises InvalidBodyError, naming the body id, when the vertices are
        not a finite (m, 2) array of ints and floats (see _PY_REALS), when
        fewer than three remain after repeated ones are merged, when they do
        not turn one way, or when the polygon's width is too small:
        segments, points and collinear rings are not convex bodies. The
        tests are relative, so a body passes them at any scale: with the
        extent the diagonal of the vertices' bounding box, vertices within
        TOL_GEOM * extent of the one before are repeats, a turn from edge a
        to edge b goes the wrong way when a x b < -TOL_GEOM |a| |b|, and
        the width must be above TOL_GEOM * extent. The width of a convex
        polygon is the least, over its edges, of the farthest vertex's
        depth behind that edge: its offset minus the least projection of a
        vertex on its normal.
        """
        try:
            arr = np.asarray(vertices, dtype=float)
        except (TypeError, ValueError, OverflowError) as exc:
            raise InvalidBodyError(f"body {body_id}: vertices are not floats: {exc}") from None
        if arr.ndim != 2 or arr.shape[1] != 2 or arr.shape[0] < 1:
            raise InvalidBodyError(f"body {body_id}: vertices must be an (m, 2) array")
        if not (isinstance(vertices, np.ndarray) and vertices.dtype.kind in "iuf"
                or all(type(v) in _PY_REALS or isinstance(v, _NP_REALS)
                       for row in vertices for v in row)):
            raise InvalidBodyError(f"body {body_id}: vertices must be numbers")
        if not np.all(np.isfinite(arr)):
            raise InvalidBodyError(f"body {body_id}: vertices must be finite")
        extent = math.hypot(*(arr.max(axis=0) - arr.min(axis=0)))
        arr = _dedup_ring(arr, TOL_GEOM * extent)
        if arr.shape[0] < 3:
            raise InvalidBodyError(
                f"body {body_id}: {arr.shape[0]} distinct vertices; a body needs at least 3")
        if _signed_area2(arr) < 0.0:
            arr = arr[::-1].copy()
        edges = _next(arr) - arr
        turn = _next(edges)
        cross = edges[:, 0] * turn[:, 1] - edges[:, 1] * turn[:, 0]
        lengths = np.hypot(edges[:, 0], edges[:, 1])
        if np.any(cross < -TOL_GEOM * lengths * _next(lengths)):
            raise InvalidBodyError(f"body {body_id}: vertices do not describe a convex polygon")
        normals = np.column_stack((edges[:, 1], -edges[:, 0])) / lengths[:, None]
        offsets = np.einsum("ij,ij->i", normals, arr)
        width = (offsets - (normals @ arr.T).min(axis=1)).min()
        if width <= TOL_GEOM * extent:
            raise InvalidBodyError(f"body {body_id}: width {width:.3g} is at most TOL_GEOM times "
                                   f"its extent {extent:.3g}; a body needs interior")
        return cls(id=body_id, vertices=arr, normals=normals, offsets=offsets)


def _next(arr: np.ndarray) -> np.ndarray:
    # Row k + 1 at row k, cyclically: np.roll(arr, -1, axis=0) without its overhead.
    return np.concatenate((arr[1:], arr[:1]))


def _dedup_ring(arr: np.ndarray, tol: float) -> np.ndarray:
    # The ring without each vertex within tol of the one kept before it,
    # and without a last vertex within tol of the first.
    rows = arr.tolist()
    keep = [rows[0]]
    for row in rows[1:]:
        if math.hypot(row[0] - keep[-1][0], row[1] - keep[-1][1]) > tol:
            keep.append(row)
    if len(keep) > 1 and math.hypot(keep[0][0] - keep[-1][0], keep[0][1] - keep[-1][1]) <= tol:
        keep.pop()
    return np.array(keep, dtype=float)


def _signed_area2(arr: np.ndarray) -> float:
    nxt = _next(arr)
    return float(np.sum(arr[:, 0] * nxt[:, 1] - nxt[:, 0] * arr[:, 1]))


class Family(tuple):
    """A family of bodies, packed: the tuple of its bodies, with their
    stacked arrays. pack makes one; the kernels take either a Family or a
    sequence of bodies, which they pack. Each array group is built on first
    use and kept, so a family is stacked once however many kernel calls
    read it, and a group no call reads is never built (verify's containment
    over all bodies needs no edges). The kernels do not write to them.

    edges is (verts, nxt, prev, owner). verts stacks the bodies' vertices,
    body by body. Edge k of a body runs from its vertex k to vertex k + 1
    (mod m), so edges and vertices share their indices: edge r runs from
    verts[r] to verts[nxt[r]], prev[r] is the edge before it in its body,
    and owner[r] is its body's position in the family.

    rows is (normals, limits), the bodies' half-planes on one grid. Every
    body's edge normals fill the first slots of its row of a (bodies, width)
    grid, width being the family's most edges, and the other slots hold
    rows that always pass: normal 0, limit +inf. Flattened, edge e of body
    j is row j * width + e of normals, (bodies * width, 2), and of limits,
    (bodies * width, 1), which holds its offset + TOL_GEOM. These rows are
    membership, the one place the slack TOL_GEOM enters it: a point x lies
    in body j when normals @ x <= limits holds on all of j's rows
    (containment_matrix), and a point of the unit circle when its angle
    passes them all (body_curve_arcs). The slack is per edge, so past a
    vertex of angle a it reaches about TOL_GEOM / sin(a) beyond the body.
    """

    @cached_property
    def edges(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        verts = np.concatenate([body.vertices for body in self])
        nv = np.array([body.vertices.shape[0] for body in self])
        end = np.cumsum(nv)
        start = end - nv
        nxt = np.arange(1, end[-1] + 1)
        nxt[end - 1] = start
        prev = np.arange(-1, end[-1] - 1)
        prev[start] = end - 1
        owner = np.repeat(np.arange(len(self)), nv)
        return verts, nxt, prev, owner

    @cached_property
    def rows(self) -> tuple[np.ndarray, np.ndarray]:
        counts = np.array([len(body.offsets) for body in self])
        width = int(counts.max())
        real = np.arange(width) < counts[:, None]
        normals = np.zeros((len(self), width, 2))
        limits = np.full((len(self), width), np.inf)
        normals[real] = np.concatenate([body.normals for body in self])
        limits[real] = np.concatenate([body.offsets for body in self]) + TOL_GEOM
        return normals.reshape(-1, 2), limits.reshape(-1, 1)


def pack(bodies) -> Family:
    """The bodies as a Family: bodies itself when it is one, so that its
    arrays are kept, else a new Family of them."""
    return bodies if isinstance(bodies, Family) else Family(bodies)


def body_curve_arcs(bodies: Family | list[ConvexBody]) -> list[list[tuple[float, float]]]:
    """Each body's points of the unit circle, as sorted pieces (lo, hi) of
    [0, 2*pi], in the family's order: the bodies are in the curve's frame
    (CurveModel.to_unit).

    Membership is the family's half-plane rows (Family.rows), which
    containment_matrix reads too: an edge of normal (cos phi, sin phi)
    holds the angle theta when cos(theta - phi) <= c, c its row's limit,
    and a pad row (limit +inf) holds every angle. The pieces have
    0 <= lo <= hi <= 2*pi, and each lo is greater than the hi before it, so
    touching pieces are merged. Since 0 and 2*pi are the same point, a list
    that holds angle 0 has a piece starting at 0 and a piece ending at
    2*pi: an arc through 0 is the pieces (0, e) and (s, 2*pi), and the point
    0 alone is (0, 0) and (2*pi, 2*pi). No pieces means the body misses the
    curve.

    The angles an edge holds are one arc, from s = phi + acos(c), mod 2*pi,
    to e = s + 2*pi - 2 acos(c), cut in one of two ways. An arc that holds
    angle 0 is cut into (s, 2*pi) and (0, e), which hold it at both ends:
    e is brought back by 2*pi when it reaches 2*pi, and s is moved to 2*pi
    when it is 0, so the point 0 is (2*pi, 2*pi) or (0, 0) at that end.
    Any other arc is the one piece (s, e). The running pieces, which start
    as (0, 2*pi), become their overlaps with the edge's pieces. An overlap
    starts at 0, or ends at 2*pi, only when both of its pieces do, so the
    overlaps keep the rule. Pieces may touch or repeat until _merged merges
    them once at the end.
    """
    if not bodies:
        return []
    normals, limits = pack(bodies).rows
    # Each body's row of the (bodies, width) grid, in two tolist calls:
    # n holds its normals as nx, ny, nx, ny, ...
    rows = zip(normals.reshape(len(bodies), -1).tolist(), limits.reshape(len(bodies), -1).tolist())
    return [_curve_arcs(zip(n[::2], n[1::2], c)) for n, c in rows]


def _curve_arcs(rows) -> list[tuple[float, float]]:
    """One body's pieces, from its rows (nx, ny, limit)."""
    segs = [(0.0, TWO_PI)]
    # Scalar libm acos and atan2: numpy's differ in the last bit on some inputs.
    for nx, ny, c in rows:
        if c >= 1.0:
            continue
        if c <= -1.0:
            return []
        delta = math.acos(c)
        phi = math.atan2(ny, nx)
        # The edge's arc runs from phi + delta counterclockwise to
        # phi + 2*pi - delta; s is normalize_angle(phi + delta). An arc that
        # holds angle 0 is cut into (s, 2*pi) and (0, e), with e brought
        # back by 2*pi or s moved to 2*pi, and only such an arc then has
        # e < s: the span is further than 1e-8 from 0 and from 2*pi, since
        # c lies strictly between -1 and 1. Each running piece (a0, a1)
        # keeps its overlap with each of the edge's pieces. Every piece lies
        # in [0, 2*pi], so an overlap with (s, 2*pi) ends at a1, and one
        # with (0, e) starts at a0.
        s = math.fmod(phi + delta, TWO_PI)
        if s < 0.0:
            s += TWO_PI
        if s >= TWO_PI:
            s = 0.0
        e = s + ((phi + TWO_PI - delta) - (phi + delta))
        if e >= TWO_PI:
            e -= TWO_PI
        elif s == 0.0:
            s = TWO_PI
        hits = []
        if e < s:  # holds angle 0: (s, 2*pi) and (0, e)
            for a0, a1 in segs:
                lo = s if s > a0 else a0
                if lo <= a1:
                    hits.append((lo, a1))
                hi = e if e < a1 else a1
                if a0 <= hi:
                    hits.append((a0, hi))
        else:  # (s, e)
            for a0, a1 in segs:
                lo = s if s > a0 else a0
                hi = e if e < a1 else a1
                if lo <= hi:
                    hits.append((lo, hi))
        if not hits:
            return []
        segs = hits
    return _merged(segs)


def _merged(pieces) -> list[tuple[float, float]]:
    """The (lo, hi) pieces sorted, each merged into the one before when it
    starts at or before that one's end."""
    out = []
    for lo, hi in sorted(pieces):
        if out and lo <= out[-1][1]:
            if hi > out[-1][1]:
                out[-1] = (out[-1][0], hi)
        else:
            out.append((lo, hi))
    return out


def _padded_pieces(arcs: list[list[tuple[float, float]]]) -> tuple[np.ndarray, np.ndarray]:
    """The piece lists as (n, S) arrays lo and hi, S the most pieces of any
    list, padded with pieces [inf, -inf] that overlap nothing."""
    width = max((len(body) for body in arcs), default=0)
    pad = [(math.inf, -math.inf)]
    pieces = np.array([[*body, *pad * (width - len(body))] for body in arcs], dtype=float)
    lo, hi = pieces.reshape(len(arcs), width, 2).transpose(2, 0, 1)
    return lo, hi


def meet_matrix(arcs: list[list[tuple[float, float]]]) -> np.ndarray:
    """Whether each pair of bodies meets on the curve, from their body_curve_arcs.

    A symmetric bool (n, n) matrix with a False diagonal. Bodies i and j
    meet when some piece of i overlaps some piece of j (the larger lo is at
    most the smaller hi); two lists that both hold angle 0 overlap at their
    pieces starting at 0. These are meet_angle's comparisons, so off the
    diagonal meet[i, j] says whether meet_angle(arcs[i], arcs[j]) is not
    None, without the angle. The rows go in blocks of bodies whose
    (rows, n, S, S) temporaries hold at most BLOCK_CELLS cells, or one
    body's row when that is larger.
    """
    n = len(arcs)
    lo, hi = _padded_pieces(arcs)
    meet = np.zeros((n, n), dtype=bool)
    step = max(1, BLOCK_CELLS // max(1, n * lo.shape[1] ** 2))
    for top in range(0, n, step):
        rows = slice(top, top + step)
        start = np.maximum(lo[rows, None, :, None], lo[None, :, None, :])
        end = np.minimum(hi[rows, None, :, None], hi[None, :, None, :])
        meet[rows] = (start <= end).any(axis=(2, 3))
    np.fill_diagonal(meet, False)
    return meet


def meet_angle(a: list[tuple[float, float]], b: list[tuple[float, float]]) -> float | None:
    """Where two bodies meet on the curve, from their body_curve_arcs; None
    when the lists share no point.

    The pieces' pairwise overlaps merge into components (_merged). A last
    component (2*pi, 2*pi) is the point 0, which the first component
    holds, and is dropped. When the rest touch both 0 and 2*pi in two or
    more components, the first and last glue into one arc through 0. The
    meet is the midpoint of the arc with the earliest start.
    """
    # Each piece has lo <= hi, so two overlap when each starts before the other ends.
    comps = _merged([(max(a0, b0), min(a1, b1))
                     for a0, a1 in a for b0, b1 in b if a0 <= b1 and b0 <= a1])
    if not comps:
        return None
    if len(comps) >= 2 and comps[-1][0] == TWO_PI:
        del comps[-1]
    (lo, hi), last = comps[0], comps[-1][0]
    if len(comps) >= 2 and lo == 0.0 and comps[-1][1] == TWO_PI:
        if len(comps) == 2:
            return normalize_angle(last + 0.5 * ((TWO_PI - last) + hi))
        lo, hi = comps[1]
    return normalize_angle(lo + 0.5 * (hi - lo))


def candidate_points(bodies: Family | list[ConvexBody]) -> np.ndarray:
    """Body vertices and pairwise edge crossings that can be the lowest
    vertex of a cell of the arrangement, as the rows of a (points, 2) float
    array.

    A maximal containment class (one whose body set no other class's set
    contains) is the whole intersection of its closed convex bodies, since a
    point of that intersection inside another body would make a larger
    class. That intersection is a nonempty convex polygon, segment or point,
    and at its lowest vertex v (least y, then least x) -e_y lies in the cone
    of the outward normals of the edges through v (Farkas' lemma). By
    Caratheodory's theorem in the plane two of those edges suffice: two
    edges of one body meeting at its vertex v, or edges a and b of two
    bodies crossing at v. The outward normal of an edge (dx, dy) of a
    counterclockwise polygon is (dy, -dx), and -e_y lies in the cone of n_a
    and n_b when, with den = dx_a dy_b - dy_a dx_b, a falls and b rises if
    den > 0, or a rises and b falls otherwise. An edge rises when
    dy >= -TOL_GEOM * |edge| and falls when dy <= TOL_GEOM * |edge|, so a
    level edge does both. The list keeps a body's vertex k when its edge
    k - 1 falls and edge k rises (every body keeps its own lowest vertex),
    and a crossing of two bodies' edges when the cone test passes. So every
    maximal class whose bodies share a point has a point here, its lowest
    vertex, and any hitting set can be moved onto this list, which is what
    the exact oracle and the linear programs rely on. Bodies that only come
    within TOL_GEOM of a common point have no common cell: the slack of
    Family.rows alone makes them a class, and this list may miss it.

    The vertices and edges are the family's packed edges (see Family), so
    a body's vertex k is the head of its edge k, after edge k - 1.
    Order: the kept vertices, body by body; then the kept crossings of each
    body pair i < j in (i, j) order, within a pair by i's edge, then j's
    edge. Edges a and b (from s_a along d_a, from s_b along d_b) cross at
    s_a + t d_a, with t = (e x d_b) / den, u = (e x d_a) / den, e = s_b - s_a
    and den = d_a x d_b, when |den| > TOL_GEOM |d_a| |d_b| (the parallel
    test) and t and u lie in [0, 1], padded by TOL_GEOM over their edge's
    length. Points may repeat; callers merge them by containment signature.

    The crossings are found from the other side. Edges a (of body i) and b
    (of body j > i) pass the cone test and the parallel test,
    |den| > slack(a) |b| with slack(a) = TOL_GEOM |a|, exactly when, with f
    the falling one and r the rising one, den(f, r) > slack(a) |b|:
    den(f, r) is den(a, b) or its exact negation, and only one of den(f, r)
    and den(r, f) is positive, so a level edge, which both falls and rises,
    finds each pair once. So the crossings are enumerated over falling
    edges times rising edges of different bodies, in blocks of at most
    BLOCK_CELLS pairs, or one falling edge's row when that is larger; the t
    and u tests reject the pairs of far bodies.
    Each hit is turned so that a is the edge of the lower-index body, its
    point comes from the formulas above, term by term, and one lexsort on
    (i, j, a, b) restores the order above.

    A family of one body has no pair, so the list is its kept vertices,
    and the crossing pass is not run: every falling-by-rising pair would
    share its owner. verify_report meets this case whenever a report's
    weights sit on one body.
    """
    if not bodies:
        return np.empty((0, 2))
    verts, nxt, prev, owner = pack(bodies).edges
    dx, dy = (verts[nxt] - verts).T
    norm = np.hypot(dx, dy)
    slack = TOL_GEOM * norm
    rises, falls = dy >= -slack, dy <= slack
    lowest = falls[prev] & rises
    if len(bodies) < 2:
        return verts[lowest]

    sx, sy = verts.T
    pad = TOL_GEOM / norm
    fall, rise = np.flatnonzero(falls), np.flatnonzero(rises)
    rows = max(1, BLOCK_CELLS // max(1, rise.size))
    hits = []
    for top in range(0, fall.size, rows):
        f = fall[top:top + rows, None]
        den = dx[f] * dy[rise] - dy[f] * dx[rise]
        first = owner[f] < owner[rise]
        limit = np.where(first, slack[f] * norm[rise], slack[rise] * norm[f])
        i, j = np.nonzero((owner[f] != owner[rise]) & (den > limit))
        flip = ~first[i, j]
        a, b, den = f[i, 0], rise[j], den[i, j]
        a[flip], b[flip], den[flip] = b[flip], a[flip], -den[flip]
        ex, ey = sx[b] - sx[a], sy[b] - sy[a]
        t = (ex * dy[b] - ey * dx[b]) / den
        u = (ex * dy[a] - ey * dx[a]) / den
        hit = (t >= -pad[a]) & (t <= 1.0 + pad[a]) & (u >= -pad[b]) & (u <= 1.0 + pad[b])
        hits.append((a[hit], b[hit], t[hit]))
    # Every body has a falling edge, so there is at least one block.
    a, b, t = (np.concatenate(v) for v in zip(*hits))
    order = np.lexsort((b, a, owner[b], owner[a]))
    a, t = a[order], t[order]
    crossings = np.stack([sx[a] + t * dx[a], sy[a] + t * dy[a]], axis=1)
    return np.concatenate((verts[lowest], crossings))


def containment_matrix(bodies: Family | list[ConvexBody], points) -> np.ndarray:
    """Bool matrix of shape (len(points), len(bodies)): membership per pair.

    points is a (points, 2) array or a sequence of (x, y) pairs.

    One batched kernel for the per-body reference (a body's column is
    all(pts @ normals.T <= offsets + TOL_GEOM, axis=1)) on the family's
    packed grid of half-plane rows (see Family). For a block of points,
    normals @ pts.T <= limits is an (edges, points) bool array; reshaped to
    (bodies, width, points), its AND along the middle axis is the block's
    membership, transposed into the result. Each product entry is the same
    two-term dot product as the reference's, but BLAS may pick its kernel
    by matrix shape, so bit-identity with the reference is what the oracle
    tests check on the BLAS they run with, not a guarantee for every BLAS
    build. A block holds BLOCK_CELLS // (bodies * width) points, and at
    least one, so its (edges, points) temporaries hold at most BLOCK_CELLS
    cells, or one point's column when that is larger, whatever the point
    count.
    """
    inside = np.zeros((len(points), len(bodies)), dtype=bool)
    if not len(points) or not bodies:
        return inside
    pts = np.asarray(points, dtype=float)
    normals, limits = pack(bodies).rows
    step = max(1, BLOCK_CELLS // normals.shape[0])
    for lo in range(0, len(pts), step):
        block = pts[lo:lo + step]
        below = (normals @ block.T <= limits).reshape(len(bodies), -1, len(block))
        inside[lo:lo + step] = below.all(axis=1).T
    return inside
