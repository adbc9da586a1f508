import hashlib
import itertools
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pierce import geometry
from pierce.errors import InvalidBodyError
from pierce.geometry import (
    TWO_PI,
    ConvexBody,
    CurveModel,
    Family,
    UNIT_CIRCLE,
    body_curve_arcs,
    candidate_points,
    containment_matrix,
    meet_angle,
    meet_matrix,
    normalize_angle,
    pack,
)
from pierce.instances import gallery7, gen_pairwise
from pierce.pipeline import brute_min_transversal, candidate_classes

from conftest import (
    arc_pieces,
    containment_margin,
    face_census,
    grid,
    grid_square,
    grid_triangle,
    pg22_twice,
    pg_union_polygons,
    reference_body_curve_arcs,
    reference_candidates,
    reference_classes,
    reference_containment_matrix,
    reference_intersection,
    reference_kept_vertices,
    reference_meet_angle,
    tangent_triangle,
)
from lemmas import segment_intersection


def square(body_id, x0, y0, side=1.0):
    return ConvexBody.from_vertices(body_id, [
        (x0, y0), (x0 + side, y0), (x0 + side, y0 + side), (x0, y0 + side),
    ])


def regular_polygon(body_id, m, radius, center, phase=0.0):
    pts = [(center[0] + radius * math.cos(phase + TWO_PI * k / m),
            center[1] + radius * math.sin(phase + TWO_PI * k / m)) for k in range(m)]
    return ConvexBody.from_vertices(body_id, pts)


def arc_set_contains(arcs, theta, tol=0.0):
    t = normalize_angle(theta)
    return any(lo - tol <= t <= hi + tol for lo, hi in arcs)


def test_normalize_angle_range():
    assert normalize_angle(0.0) == 0.0
    assert normalize_angle(TWO_PI) == 0.0
    assert normalize_angle(-1.0) == pytest.approx(TWO_PI - 1.0)
    assert normalize_angle(7.5 * math.pi) == pytest.approx(1.5 * math.pi)
    for t in np.linspace(-30.0, 30.0, 101):
        assert 0.0 <= normalize_angle(float(t)) < TWO_PI


def test_interval_basics():
    # A plain arc, an arc through 0 as two pieces, the full circle and a
    # point: the angles each holds, and the midpoint where it meets itself.
    wrap = arc_pieces(6.0, 6.0 + 1.0)
    assert wrap == [(6.0, TWO_PI), (0.0, pytest.approx(7.0 - TWO_PI))]
    cases = [
        (arc_pieces(1.0, 2.5), [1.0, 2.5, 1.7], [2.51, 0.0], 1.75),
        (wrap, [6.1, 0.3, 0.0, TWO_PI], [3.0], normalize_angle(6.5)),
        (arc_pieces(0.0, TWO_PI), [0.0, 4.2], [], math.pi),
        (arc_pieces(2.0, 2.0), [2.0], [2.0001], 2.0),
    ]
    for arcs, inside, outside, mid in cases:
        assert all(arc_set_contains(arcs, t) for t in inside)
        assert not any(arc_set_contains(arcs, t) for t in outside)
        assert reference_meet_angle(arcs, arcs) == pytest.approx(mid)
        assert meet_angle(arcs, arcs) == reference_meet_angle(arcs, arcs)


def test_reference_intersection_known_cases():
    got = reference_intersection([(0.0, math.pi)], [(math.pi / 2, 1.5 * math.pi)])
    assert got == [(math.pi / 2, math.pi)]

    assert reference_intersection([(0.0, TWO_PI)], [(1.0, 2.0)]) == [(1.0, 2.0)]

    assert reference_intersection([(0.1, 0.2)], [(3.0, 3.1)]) == []

    # Two arcs through 0 overlap on both sides of it: the common arc is the
    # pieces (5.5, 2*pi) and (0, 8 - 2*pi).
    got = reference_intersection(arc_pieces(5.0, 5.0 + 3.0), arc_pieces(5.5, 5.5 + 3.0))
    assert got == [(0.0, pytest.approx(8.0 - TWO_PI)), (5.5, TWO_PI)]

    # Arcs ending at 2*pi and starting at 0 hold angle 0 at both ends, and
    # share only that point: (0, 0) and (2*pi, 2*pi).
    up_to_0, from_0 = arc_pieces(5.5, TWO_PI), arc_pieces(0.0, 0.3)
    assert up_to_0 == [(0.0, 0.0), (5.5, TWO_PI)] and from_0 == [(0.0, 0.3), (TWO_PI, TWO_PI)]
    assert reference_intersection(up_to_0, from_0) == [(0.0, 0.0), (TWO_PI, TWO_PI)]
    assert reference_intersection(up_to_0, [(0.0, TWO_PI)]) == up_to_0


def test_reference_intersection_random_against_sampling():
    rng = np.random.default_rng(42)
    thetas = np.linspace(0.0, TWO_PI, 721, endpoint=False)
    for _ in range(300):
        def random_set():
            arcs = []
            for _ in range(int(rng.integers(1, 3))):
                lo = float(rng.uniform(0.0, TWO_PI))
                arcs += arc_pieces(lo, lo + float(rng.uniform(0.0, TWO_PI)))
            return arcs

        sa, sb = random_set(), random_set()
        got = reference_intersection(sa, sb)
        bounds = [t for lo, hi in sa + sb + got for t in (lo, hi)]
        for t in thetas:
            t = float(t)
            if any(abs(normalize_angle(t - b)) < 1e-9 or abs(normalize_angle(b - t)) < 1e-9
                   for b in bounds):
                continue
            expect = arc_set_contains(sa, t) and arc_set_contains(sb, t)
            assert arc_set_contains(got, t) == expect
        # Where the two sets meet lies in both.
        meet = meet_angle(sa, sb)
        assert (meet is None) == (got == [])
        if got:
            assert arc_set_contains(sa, meet, 1e-12) and arc_set_contains(sb, meet, 1e-12)


def test_body_validation():
    with pytest.raises(InvalidBodyError):
        ConvexBody.from_vertices(0, np.empty((0, 2)))
    with pytest.raises(InvalidBodyError):
        ConvexBody.from_vertices(0, [(0, 0), (2, 0), (1, 1), (2, 2), (0, 2)])
    with pytest.raises(InvalidBodyError):
        ConvexBody.from_vertices(0, [(0, 0), (1, float("nan"))])

    # Clockwise input is accepted and flipped to counterclockwise.
    cw = ConvexBody.from_vertices(1, [(0, 0), (0, 1), (1, 1), (1, 0)])
    assert containment_matrix([cw], [(0.5, 0.5)]).tolist() == [[True]]

    # Repeated vertices collapse; a ring closing on its first vertex is fine.
    b = ConvexBody.from_vertices(2, [(0, 0), (0, 0), (1, 0), (1, 1), (0, 1), (0, 0)])
    assert b.vertices.shape == (4, 2)

    # A thin triangle is a body as long as its width is above TOL_GEOM
    # times its extent.
    thin = ConvexBody.from_vertices(3, [(0.0, 0.0), (1.0, 0.0), (0.5, 1e-6)])
    assert containment_matrix([thin], [(0.5, 5e-7), (0.5, -1e-8)]).tolist() == [[True], [False]]


_TOL = geometry.TOL_GEOM


@pytest.mark.parametrize("vertices", [
    np.empty((0, 2)),
    [(2.0, 3.0)],
    [(0.0, 0.0), (1.0, 1.0)],
    [(0.0, 0.0), (0.0, 0.0), (1.0, 1.0), (1.0, 1.0 + _TOL / 2), (0.0, 0.0)],
    # a chord strictly inside the unit circle, given with three vertices
    [(-0.2, 0.5), (0.0, 0.5), (0.2, 0.5)],
    [(0.0, 0.0), (1.0, 0.0), (0.5, _TOL / 2)],
], ids=["empty", "one-vertex", "two-vertices", "duplicates-to-two", "collinear-chord", "sliver"])
def test_from_vertices_rejects_bodies_without_interior(vertices):
    with pytest.raises(InvalidBodyError, match="body 7"):
        ConvexBody.from_vertices(7, vertices)


@pytest.mark.parametrize("scale", [10.0 ** k for k in range(-12, 13, 4)])
def test_from_vertices_judges_a_shape_alike_at_any_scale(scale):
    # Its tests are relative to the body's extent, so scaling moves no
    # verdict: a turned square keeps its split edge's midpoint and loses a
    # vertex repeated within a quarter of TOL_GEOM, a thin triangle is a
    # body, and the shapes without interior, or not convex, are not.
    def body(vertices):
        return ConvexBody.from_vertices(0, np.asarray(vertices, dtype=float) * scale)

    corners = _ngon(4, 0.1, 0.2, 1.0, 0.3)
    split = [corners[0], tuple(0.5 * (np.array(corners[0]) + corners[1])), *corners[1:]]
    repeat = (corners[2][0], corners[2][1] + _TOL / 4)
    assert body([*split[:4], repeat, *split[4:]]).vertices.tolist() == body(split).vertices.tolist()
    assert len(body(split).vertices) == 5
    body([(0.0, 0.0), (1.0, 0.0), (0.5, 1e-6)])
    for shape in ([(0, 0), (2, 0), (1, 1), (2, 2), (0, 2)], [(-0.2, 0.5), (0.0, 0.5), (0.2, 0.5)],
                  [(0.0, 0.0), (1.0, 0.0), (0.5, _TOL / 2)], [(0, 0), (1, 1), (1, 1 + _TOL / 2)]):
        with pytest.raises(InvalidBodyError):
            body(shape)


def test_containment_matrix_tolerance():
    sq = square(0, 0.0, 0.0)
    points = [(0.5, 0.5), (1.0, 1.0), (1.0 + 0.5e-9, 0.5), (1.0 + 1e-8, 0.5), (1.5, 0.5)]
    assert containment_matrix([sq], points)[:, 0].tolist() == [True, True, True, False, False]


def test_containment_margin_signs():
    sq = square(0, 0.0, 0.0)
    assert containment_margin(sq, (0.5, 0.5)) == pytest.approx(0.5)
    assert containment_margin(sq, (1.2, 0.5)) == pytest.approx(-0.2)
    assert abs(containment_margin(sq, (1.0, 0.5))) < 1e-12


def test_body_curve_arcs_slab():
    slab = ConvexBody.from_vertices(0, [(-2, -0.5), (2, -0.5), (2, 0.5), (-2, 0.5)])
    (arcs,) = body_curve_arcs([slab])
    # The arc through 0 is the first and the last piece.
    want = [(0.0, math.pi / 6), (5 * math.pi / 6, 7 * math.pi / 6), (11 * math.pi / 6, TWO_PI)]
    assert len(arcs) == 3
    for got, (lo, hi) in zip(arcs, want):
        assert got == (pytest.approx(lo, abs=1e-6), pytest.approx(hi, abs=1e-6))
    assert arcs[0][0] == 0.0 and arcs[-1][1] == TWO_PI


def test_body_curve_arcs_extremes():
    far = ConvexBody.from_vertices(0, [(10, 10), (11, 10), (10.5, 11)])
    big = square(1, -3.0, -3.0, side=6.0)
    # A chord-shaped sliver completely off the circle yields nothing.
    outside = ConvexBody.from_vertices(2, [(1.2, -0.1), (1.4, -0.1), (1.4, 0.1), (1.2, 0.1)])
    assert body_curve_arcs([far, big, outside]) == [[], [(0.0, TWO_PI)], []]
    assert body_curve_arcs([]) == []


def test_body_curve_arcs_against_sampling():
    rng = np.random.default_rng(7)
    for trial in range(120):
        m = int(rng.integers(3, 9))
        radius = float(rng.uniform(0.3, 2.2))
        center = (float(rng.uniform(-1.2, 1.2)), float(rng.uniform(-1.2, 1.2)))
        body = regular_polygon(trial, m, radius, center, phase=float(rng.uniform(0, TWO_PI)))
        (arcs,) = body_curve_arcs([body])
        for t in np.linspace(0.0, TWO_PI, 700, endpoint=False):
            t = float(t)
            pt = UNIT_CIRCLE.point_at(t)
            margin = containment_margin(body, pt)
            if abs(margin) <= 1e-6:
                continue
            assert arc_set_contains(arcs, t) == (margin > 0.0), (trial, t, margin)


def test_arcs_common_point_cases():
    cases = [
        ([(0.0, math.pi)], [(math.pi / 2, 1.5 * math.pi)], 0.75 * math.pi),
        ([(0.0, TWO_PI)], [(1.0, 2.0)], 1.5),
        ([(0.0, 0.5)], [(2.0, 2.5)], None),
        # Zero-length overlap still yields its angle.
        ([(1.0, 2.0)], [(2.0, 3.0)], 2.0),
        # Meeting only at angle 0, which both hold at both ends.
        ([(0.0, 0.0), (5.0, TWO_PI)], [(0.0, 1.0), (TWO_PI, TWO_PI)], 0.0),
    ]
    for a, b, want in cases:
        got = reference_meet_angle(a, b)
        assert got == (None if want is None else pytest.approx(want))
        assert meet_angle(a, b) == got


@pytest.mark.parametrize("a, b, want", [
    # Floats pinned from the rule that held the point 0 at one end only:
    # lists that hold only 0, arcs from exactly 0, arcs to exactly 2*pi,
    # and arcs through 0.
    (arc_pieces(0.0, 0.0), arc_pieces(0.0, 0.0), 0.0),
    (arc_pieces(0.0, 1.3), arc_pieces(0.0, 0.7), 0.35),
    (arc_pieces(0.0, 0.4), [(0.0, 0.0), (5.5, TWO_PI)], 0.0),
    ([(0.0, 0.0), (5.0, TWO_PI)], [(0.0, 0.0), (4.1, TWO_PI)], 5.641592653589793),
    ([(0.0, 1.0), (5.0, TWO_PI)], arc_pieces(0.0, 0.5), 0.25),
    ([(0.0, 1.0), (5.0, TWO_PI)], [(0.0, 0.0), (5.5, TWO_PI)], 5.891592653589793),
])
def test_meet_angle_at_the_point_0(a, b, want):
    assert meet_angle(a, b) == meet_angle(b, a) == reference_meet_angle(a, b) == want


_angle = st.one_of(st.sampled_from([0.0, 1.0, math.pi, TWO_PI - 1.0]),
                   st.floats(0.0, TWO_PI, exclude_max=True))
# Pieces of [0, 2*pi] that hold angle 0 at both ends when they hold it:
# arcs (two pieces when through 0), arcs ending at 2*pi, zero-length arcs,
# the point 0 and the full circle. A list may overlap or repeat pieces,
# which meet_angle takes as their union.
_arc = st.one_of(
    st.builds(lambda lo, span: arc_pieces(lo, lo + span), _angle,
              st.one_of(st.just(0.0), st.floats(0.0, TWO_PI))),
    st.builds(lambda s: [(0.0, 0.0), (s, TWO_PI)], _angle),
    st.builds(lambda t: arc_pieces(t, t), _angle),
    st.just(arc_pieces(0.0, 0.0)),
    st.just([(0.0, TWO_PI)]),
)
_pieces = st.lists(_arc, max_size=4).map(lambda arcs: [p for arc in arcs for p in arc])


# Lists of one or two zero-length pieces, sorted and apart: a curve touched
# once, or a chord's two ends.
_touch_arcs = st.lists(_angle, min_size=1, max_size=2, unique=True).map(
    lambda ts: sorted(p for t in ts for p in arc_pieces(t, t)))


def _pairwise_meets(arcs, rule=reference_meet_angle):
    # rule for every ordered pair, the diagonal included; NaN where it is None.
    n = len(arcs)
    out = np.full((n, n), np.nan)
    for i, j in itertools.product(range(n), repeat=2):
        angle = rule(arcs[i], arcs[j])
        if angle is not None:
            out[i, j] = angle
    return out


@settings(max_examples=400, deadline=None)
@given(st.lists(st.one_of(_pieces, _touch_arcs), max_size=6))
@example([arc_pieces(5.0, TWO_PI), arc_pieces(0.0, 1.0)])  # meet only at 0
@example([arc_pieces(5.0, TWO_PI), arc_pieces(0.0, 0.0)])
@example([[(0.0, TWO_PI)], [(0.0, 1.0), (2.0, 3.0), (5.0, TWO_PI)]])
@example([[(0.0, TWO_PI)], arc_pieces(5.0, TWO_PI + 1.0), [], [(0.0, TWO_PI)]])
def test_meet_angle_is_the_reference_bitwise(arcs):
    assert _pairwise_meets(arcs, meet_angle).tobytes() == _pairwise_meets(arcs).tobytes()


def test_meet_angle_bitwise_on_bench_families():
    inst = gallery7()
    families = [inst.bodies, gen_pairwise(12, 3).bodies]
    for bodies in families:
        arcs = body_curve_arcs(bodies)
        assert _pairwise_meets(arcs, meet_angle).tobytes() == _pairwise_meets(arcs).tobytes()


@settings(max_examples=400, deadline=None)
@given(st.lists(st.one_of(_pieces, _touch_arcs), max_size=6),
       st.sampled_from([1, geometry.BLOCK_CELLS]))
@example([arc_pieces(5.0, TWO_PI), arc_pieces(0.0, 1.0)], 1)  # meet only at 0
@example([arc_pieces(0.0, 0.0), arc_pieces(0.0, 0.0), arc_pieces(5.0, TWO_PI), [(1.0, 2.0)]],
         1)  # the point 0 alone
@example([[(0.0, TWO_PI)], [(2.0, 2.0)], [], [(0.0, TWO_PI)]], geometry.BLOCK_CELLS)
def test_meet_matrix_is_where_meet_angle_is_defined(arcs, cells):
    # cells sets the cells per block: 1 puts each block at one body.
    with mock.patch.object(geometry, "BLOCK_CELLS", cells):
        got = meet_matrix(arcs)
    want = ~np.isnan(_pairwise_meets(arcs, meet_angle))
    np.fill_diagonal(want, False)
    assert got.dtype == bool and got.shape == (len(arcs), len(arcs))
    assert not got.diagonal().any()
    assert np.array_equal(got, want)


def test_meet_matrix_bitwise_on_bench_families():
    for bodies in (gallery7().bodies, gen_pairwise(12, 3).bodies):
        arcs = body_curve_arcs(bodies)
        meets = ~np.isnan(_pairwise_meets(arcs))
        np.fill_diagonal(meets, False)
        want = meets.tobytes()
        assert meet_matrix(arcs).tobytes() == want
        with mock.patch.object(geometry, "BLOCK_CELLS", 1):
            assert meet_matrix(arcs).tobytes() == want


def test_meet_matrix_memory_stays_within_a_block_budget():
    # 300 bodies of 12 pieces each, every pair overlapping: unblocked, the
    # (n, n, S, S) overlaps would take 104 MB per float temporary.
    arcs = [[(0.5 * k + 0.001 * j, 0.5 * k + 0.001 * j + 0.4) for k in range(12)]
            for j in range(300)]
    tracemalloc.start()
    try:
        meet = meet_matrix(arcs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert meet.sum() == 300 * 299
    assert peak < meet.nbytes + (4 << 20)


@pytest.mark.parametrize("angle", [0.0, 1.0])
def test_bodies_touching_the_curve_at_a_shared_vertex_meet_there(angle):
    # Each triangle's only point on the circle is its vertex at angle, and
    # the two share that vertex: their arcs are slivers within TOL_GEOM of
    # it, through 0 when angle is 0.
    a, b = tangent_triangle(0, angle, -0.25), tangent_triangle(1, angle, 0.5)
    far = tangent_triangle(2, angle + 0.5, -0.25)
    arcs = body_curve_arcs([a, b, far])
    for pieces in arcs:
        assert pieces and sum(hi - lo for lo, hi in pieces) < 1e-6
    table = _pairwise_meets(arcs, meet_angle)
    assert np.array_equal(meet_matrix(arcs), [[0, 1, 0], [1, 0, 0], [0, 0, 0]])
    assert np.array_equal(~np.isnan(table), [[1, 1, 0], [1, 1, 0], [0, 0, 1]])
    assert abs(math.remainder(table[0, 1] - angle, TWO_PI)) < 1e-6


def test_segment_intersection_cases():
    assert segment_intersection((0, 0), (2, 2), (0, 2), (2, 0)) == pytest.approx((1.0, 1.0))
    # Endpoint touch counts.
    assert segment_intersection((0, 0), (1, 0), (1, 0), (1, 5)) == pytest.approx((1.0, 0.0))
    # Disjoint.
    assert segment_intersection((0, 0), (1, 0), (0, 1), (1, 1)) is None
    # Parallel overlapping is rejected by contract.
    assert segment_intersection((0, 0), (2, 0), (1, 0), (3, 0)) is None
    # Crossing far outside the parameter range.
    assert segment_intersection((0, 0), (1, 0), (5, -1), (5, 1)) is None


def test_candidate_points_two_squares():
    a = square(0, 0.0, 0.0)
    b = square(1, 0.5, 0.5)
    # The arrangement: 8 vertices plus 2 proper crossings, and nothing else.
    assert set(reference_candidates([a, b])) == {
        (0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0),
        (0.5, 0.5), (1.5, 0.5), (1.5, 1.5), (0.5, 1.5),
        (1.0, 0.5), (0.5, 1.0)}
    # Each square's bottom corners, whose edge before falls (or is level)
    # and edge after rises (or is level), and the crossing (1, 0.5) of a's
    # rising right edge with b's level bottom edge; (0.5, 1) is the top
    # left corner of the overlap, where a's top edge meets b's falling left
    # edge.
    cands = candidate_points([a, b])
    assert cands.tolist() == [[0.0, 0.0], [1.0, 0.0], [0.5, 0.5], [1.5, 0.5], [1.0, 0.5]]


# A shape moved 10 units right is far from every unmoved one.
_grid_shape = st.tuples(st.one_of(grid_square, grid_triangle), st.booleans()).map(lambda t: [(x + 10.0 * t[1], y) for x, y in t[0]])


@settings(max_examples=200, deadline=None)
@given(st.lists(_grid_shape, max_size=7), st.sampled_from([1, 5, 64, geometry.BLOCK_CELLS]))
@example([], geometry.BLOCK_CELLS)
@example([[(0, 0), (1, 0), (0, 1)], [(1, 0), (2, 0), (2, 1)]], 1)  # shared vertex
@example([[(0, 0), (1, 0), (1, 1), (0, 1)], [(1, 0), (2, 0), (2, 1), (1, 1)]], 5)  # shared edge
@example([[(0, 0), (2, 0), (2, 2), (0, 2)], [(0, 0), (3, 0), (3, 1)],
          [(1, 1), (1.5, 1), (1, 1.5)]], 1)  # collinear edges
@example([[(0, 0), (1, 0), (1, 1), (0, 1)], [(0, 2), (1, 3), (1, 3.5), (0, 2.5)],
          [(0, 3), (1, 4), (1, 4.5), (0, 3.5)]], 64)  # parallel
@example([[(0, 0), (1, 0), (0, 1)], [(10, 0), (11, 0), (10, 1)],
          [(0.5, 0.5), (0.6, 0.5), (0.5, 0.6)]], 1)  # apart
@example([[(0, 0), (1, 0), (1, 1), (0, 1)], [(0, 0), (4, 1e-10), (4, 1)]], 1)  # parallel within tol
@example([[(-1, -0.1), (0, 0), (-1, 0.1)],
          [(1 + 1.5 * _TOL, 0.1), (1.5 * _TOL, 0), (1 + 1.5 * _TOL, -0.1)]], 1)  # tips 1.5 tol apart
def test_candidate_points_match_reference(shapes, cells):
    # cells sets the falling-by-rising edge pairs per numpy block; 1, 5 and 64
    # split the falling edges over blocks.
    bodies = [ConvexBody.from_vertices(i, v) for i, v in enumerate(shapes)]
    with mock.patch.object(geometry, "BLOCK_CELLS", cells):
        got = candidate_points(bodies)
    want = reference_candidates(bodies, lowest=True)
    assert got.dtype == np.float64 and got.shape == (len(want), 2)
    assert [list(map(float, p)) for p in want] == got.tolist()


def test_candidate_points_memory_stays_within_a_block_budget():
    # 200 bodies of up to 16 edges, about 1,300 falling and 1,300 rising:
    # unblocked, the crossing tests' temporaries would take about 85 MB.
    bodies = gen_pairwise(200).bodies
    tracemalloc.start()
    try:
        cands = candidate_points(bodies)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(cands) > 15_000
    # Past the result, one block's temporaries take about 5 MB.
    assert peak < cands.nbytes + (8 << 20)


@pytest.mark.parametrize("instance, count, digest, full, full_digest", [
    (gallery7, 34, "3b6ebf84e326f4cb7d3d868427ddbbab52868c3ef18193f9d76870fcdc8ad620",
     140, "3565b0659cdddd0ac61f5499a914e700d99323682624a08e65d481a4bf4b4001"),
    (lambda: gen_pairwise(12, 3), 74,
     "3d795ddcf07e06768a4c6c62f3270124f61c56b3ba46cc0b6bcbfe69b778cde9",
     1482, "d4bea6232305ded6c5ccf2ae042535dc25dee21480c9f1746dc4cfbe1626a679"),
], ids=["gallery7", "pairwise12"])
def test_candidate_points_golden(instance, count, digest, full, full_digest):
    # The points and their order are pinned; the full arrangement keeps the
    # digest that candidate_points had before it dropped the points that
    # cannot be a cell's lowest vertex.
    bodies = instance().bodies
    cands = candidate_points(bodies)
    assert len(cands) == count
    assert hashlib.sha256(np.asarray(cands).tobytes()).hexdigest() == digest
    arrangement = np.array(reference_candidates(bodies))
    assert len(arrangement) == full
    assert hashlib.sha256(arrangement.tobytes()).hexdigest() == full_digest


def _ngon(k, cx, cy, radius, phase, stretch=1.0):
    return [(cx + stretch * radius * math.cos(phase + TWO_PI * j / k),
             cy + radius * math.sin(phase + TWO_PI * j / k)) for j in range(k)]


_coord = st.one_of(grid, st.floats(-3.0, 3.0))
_ngon_vertices = st.builds(
    _ngon, st.integers(3, 16), _coord, _coord, st.one_of(st.just(0.5), st.floats(0.01, 3.0)),
    st.floats(0.0, TWO_PI), st.sampled_from([1.0, 0.25, 3.0]))
_mixed_shape = st.one_of(_ngon_vertices, grid_square, grid_triangle)


# Offsets of a shifted copy: half the tolerance either way, and twice it.
_SHIFTS = [(_TOL / 2, 0.0), (-_TOL / 2, 0.0), (0.0, _TOL / 2), (0.0, -_TOL / 2),
           (2 * _TOL, 0.0), (0.0, 2 * _TOL), (-2 * _TOL, 2 * _TOL)]
_shifted_family = st.lists(
    st.tuples(_mixed_shape, st.none() | st.sampled_from(_SHIFTS)), min_size=1, max_size=5,
).map(lambda items: [copy for shape, shift in items for copy in (
    [shape] if shift is None else [shape, [(x + shift[0], y + shift[1]) for x, y in shape]])])


_pg_family = st.one_of(
    st.lists(st.tuples(st.floats(0.0, TWO_PI), st.permutations(range(7))), min_size=1, max_size=3)
    .map(lambda copies: pg_union_polygons(2, copies)),
    st.lists(st.tuples(st.floats(0.0, TWO_PI), st.permutations(range(13))), min_size=1, max_size=2)
    .map(lambda copies: pg_union_polygons(3, copies)),
)


def _classes_match_the_arrangement(bodies):
    """candidate_classes against the classes of the whole arrangement.

    The lowest-vertex lemma covers a class whose bodies share a point: the
    lowest vertex of their common cell is kept, so the class is found. Here
    that is a class with an arrangement vertex in all its bodies without
    the tolerance (containment_margin >= 0). A class whose bodies only come
    within TOL_GEOM of a common point has no cell, and the arrangement may
    witness it only at points the lowest-vertex test drops; then only
    subsets of it may stand in its place. Points are not compared: such a
    witness may lie far below a class's cell.
    """
    found = [frozenset(np.flatnonzero(row).tolist()) for row in candidate_classes(bodies).matrix()]
    full = reference_candidates(bodies)
    want = [sig for sig, _ in reference_classes(bodies, full)]
    rows = containment_matrix(bodies, full)
    pts = np.array(full)
    # containment_margin of every point (rows) in every body (columns)
    margins = np.array([(body.offsets - pts @ body.normals.T).min(axis=1) for body in bodies]).T
    exact = {frozenset(np.flatnonzero(row).tolist())
             for row, margin in zip(rows, np.where(rows, margins, np.inf).min(axis=1))
             if row.any() and margin >= 0.0}
    lost = set(want) - set(found)
    assert not lost & exact
    assert all(sig in want or any(sig < other for other in lost) for sig in found)
    if not lost:
        assert found == want  # the same classes in the same order


@settings(max_examples=200, deadline=None)
@given(st.one_of(st.lists(_mixed_shape, min_size=1, max_size=8), _shifted_family, _pg_family))
@example([[(0, 0), (1, 0), (0, 1)], [(1, 0), (2, 0), (2, 1)]])  # shared vertex
@example([[(0, 0), (1, 0), (1, 1), (0, 1)], [(1, 0), (2, 0), (2, 1), (1, 1)]])  # shared edge
@example([[(0, 0), (2, 0), (2, 2), (0, 2)], [(2, 1), (3, 0), (3, 2)]])  # corner on an edge
@example([[(0, 0), (2, 0), (2, 1), (0, 1)], [(1, 0.5), (3, 0.5), (3, 2), (1, 2)]])  # level edges
@example([[(0, 0), (2, 0), (1, 2)], [(0, 1), (2, 1), (1, 3)]])  # lowest vertex at a crossing
@example([[(0, 0), (2, 0), (1, 2)], [(2, 1), (0, 1), (0, 1.001), (2, 1.001)]])  # a band across
@example(pg_union_polygons(2, [(0.0, range(7)), (1e-5, range(7)), (1.2e-7, [0, 1, 2, 3, 5, 4, 6])]))
def test_lowest_candidates_keep_every_class(shapes):
    _classes_match_the_arrangement([ConvexBody.from_vertices(i, v) for i, v in enumerate(shapes)])


def test_lowest_candidates_keep_every_class_of_pg_unions():
    _classes_match_the_arrangement([ConvexBody.from_vertices(i, v) for i, v in enumerate(
        pg_union_polygons(3, [(0.0, range(13)), (0.1, [5, 0, 7, 1, 12, 3, 2, 9, 4, 11, 6, 10, 8])]))])
    _classes_match_the_arrangement(pg22_twice())


def _probe_points(bodies):
    """Vertices and edge crossings, points at exactly offset + tol of every
    axis-aligned edge and one ulp past it, and points within TOL_GEOM +- 1e-12
    of every edge."""
    tol = geometry.TOL_GEOM
    points = reference_candidates(bodies)
    for body in bodies:
        verts = [np.asarray(v) for v in body.vertices]
        for (nx, ny), off, v in zip(body.normals.tolist(), body.offsets.tolist(), verts):
            if abs(nx) == 1.0 and ny == 0.0:
                for at in (off + tol, math.nextafter(off + tol, math.inf)):
                    points.append((nx * at, float(v[1])))
            if abs(ny) == 1.0 and nx == 0.0:
                for at in (off + tol, math.nextafter(off + tol, math.inf)):
                    points.append((float(v[0]), ny * at))
            for d in (tol - 1e-12, tol + 1e-12):
                points.append(tuple((v + d * np.array([nx, ny])).tolist()))
    return points


# A box whose bottom edge climbs by rise times its width: level within
# TOL_GEOM, so that both its ends are kept, when |rise| is under TOL_GEOM.
_tilted_box = st.builds(
    lambda x, y, w, rise: [(x, y), (x + w, y + rise * w), (x + w, y + 1.0), (x, y + 1.0)],
    _coord, _coord, st.floats(0.1, 3.0),
    st.sampled_from([0.0, 0.5 * _TOL, -0.5 * _TOL, 0.99 * _TOL, -0.99 * _TOL, 2 * _TOL, -2 * _TOL]))


@settings(max_examples=300, deadline=None)
@given(st.one_of(_mixed_shape, _tilted_box))
@example([(0, 0), (1, 0), (1, 1), (0, 1)])  # a level bottom edge: both its ends
def test_candidate_points_of_one_body_are_its_kept_vertices(shape):
    # One body has no pair, so the list is the vertices whose edge before
    # falls and whose own edge rises, bit for bit, without a crossing pass.
    body = ConvexBody.from_vertices(0, shape)
    want = np.array(reference_kept_vertices(body), dtype=float).reshape(-1, 2)
    for family in ([body], pack([body])):
        got = candidate_points(family)
        assert got.dtype == np.float64 and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


@settings(max_examples=200, deadline=None)
@given(st.lists(_mixed_shape, max_size=8), st.sampled_from([1, 7, geometry.BLOCK_CELLS]))
@example([], geometry.BLOCK_CELLS)
@example([[(0, 0), (1, 0), (1, 1), (0, 1)], [(0.5, 0.5), (3, 0.5), (3, 1)],
          [(1, 1), (1.5, 1), (1, 1.5)]], 1)
@example([_ngon(16, 0, 0, 1, 0.1), _ngon(3, 0.5, 0, 1, 0.2), [(0, 0), (0.1, 0), (0, 0.5)]], 7)
def test_containment_matrix_is_the_per_body_reference(shapes, cells):
    # cells sets the cells per block: 1 puts each block at one point, and 7
    # at one or two.
    bodies = [ConvexBody.from_vertices(i, v) for i, v in enumerate(shapes)]
    points = _probe_points(bodies)
    with mock.patch.object(geometry, "BLOCK_CELLS", cells):
        for pts in (points, []):
            got = containment_matrix(bodies, pts)
            assert got.dtype == bool and got.shape == (len(pts), len(bodies))
            assert np.array_equal(got, reference_containment_matrix(bodies, pts))


def test_containment_matrix_memory_stays_within_a_block_budget():
    # The arrangement's 106k vertices against 100 bodies of up to 16 edges:
    # an unblocked (edges, points) product would take about 1.4 GB.
    bodies = gen_pairwise(100).bodies
    points = np.array(reference_candidates(bodies))
    assert len(points) > 100_000
    tracemalloc.start()
    try:
        inside = containment_matrix(bodies, points)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # Past the result, one block's temporaries take under 1 MB; a list of
    # points instead of this array would add about 4.4 MB for its conversion.
    budget = 8 << 20
    assert peak < inside.nbytes + budget


def _same_on_a_list_and_its_family(bodies):
    # The kernels pack a list themselves, so a list and its Family must give
    # the same bits.
    family = pack(bodies)
    assert type(family) is Family and pack(family) is family
    assert list(family) == list(bodies)
    got, want = candidate_points(family), candidate_points(bodies)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()
    for pts in (want, _probe_points(bodies)):
        assert np.array_equal(containment_matrix(family, pts), containment_matrix(bodies, pts))
    a, b = candidate_classes(family), candidate_classes(bodies)
    assert a.points == b.points and np.array_equal(a.matrix(), b.matrix())
    assert body_curve_arcs(family) == body_curve_arcs(bodies)


@pytest.mark.parametrize("bodies", [
    gallery7().bodies,
    [ConvexBody.from_vertices(i, v) for i, v in enumerate(
        pg_union_polygons(3, [(0.0, range(13)), (0.1, [5, 0, 7, 1, 12, 3, 2, 9, 4, 11, 6, 10, 8])]))],
], ids=["gallery7", "pg-union"])
def test_kernels_read_a_list_and_its_family_alike(bodies):
    _same_on_a_list_and_its_family(bodies)


@settings(max_examples=60, deadline=None)
@given(st.lists(_mixed_shape, min_size=1, max_size=6))
def test_kernels_read_a_drawn_list_and_its_family_alike(shapes):
    _same_on_a_list_and_its_family([ConvexBody.from_vertices(i, v) for i, v in enumerate(shapes)])


def test_a_family_stacks_its_bodies_in_order():
    bodies = gallery7().bodies
    family = pack(bodies)
    verts, nxt, prev, owner = family.edges
    assert family.edges is family.edges
    assert verts.tolist() == [v for body in bodies for v in body.vertices.tolist()]
    # Edge r runs from verts[r] to verts[nxt[r]] within its body, after edge prev[r].
    for r in range(len(verts)):
        body = bodies[owner[r]]
        k = r - int(np.flatnonzero(owner == owner[r])[0])
        m = len(body.vertices)
        assert verts[nxt[r]].tolist() == body.vertices[(k + 1) % m].tolist()
        assert nxt[prev[r]] == r
    normals, limits = family.rows
    width = max(len(body.offsets) for body in bodies)
    assert normals.shape == (len(bodies) * width, 2) and limits.shape == (len(bodies) * width, 1)
    for j, body in enumerate(bodies):
        rows = slice(j * width, j * width + len(body.offsets))
        assert normals[rows].tolist() == body.normals.tolist()
        assert limits[rows, 0].tolist() == (body.offsets + geometry.TOL_GEOM).tolist()
        assert (normals[rows.stop:(j + 1) * width] == 0).all()
        assert (limits[rows.stop:(j + 1) * width] == np.inf).all()
    empty = pack([])
    assert candidate_points(empty).shape == (0, 2)
    assert containment_matrix(empty, [(0.0, 0.0)]).shape == (1, 0)


def _box(x0, x1, y0, y1, turn=0):
    """Axis box turned by turn quarter turns about the origin (exactly)."""
    pts = [(x0, y0), (x1, y0), (x1, y1), (x0, y1)]
    for _ in range(turn):
        pts = [(-y, x) for x, y in pts]
    return pts


def _tangent_ngon(k, inradius, phase):
    # Every edge lies at distance inradius from the origin, up to rounding.
    return _ngon(k, 0.0, 0.0, inradius / math.cos(math.pi / k), phase)


_arc_shape = st.one_of(
    _ngon_vertices,
    # edges with c near 1: tangent from inside the circle
    st.builds(_tangent_ngon, st.integers(3, 16),
              st.sampled_from([1.0, 1.0 - _TOL, 1.0 + _TOL, 1.0 - 2 * _TOL, 1.0 - 1e-12]),
              st.floats(0.0, TWO_PI)),
    # edges with c near -1: a box outside the circle on the tangent line x = 1
    st.builds(lambda gap, w, turn: _box(1.0 + gap, 1.5, -w, w, turn),
              st.sampled_from([0.0, 1e-12, -1e-12, _TOL, 2 * _TOL, -_TOL]),
              st.floats(0.01, 1.0), st.integers(0, 3)),
    # an edge on y = +-tol has c = 0 and an arc ending at exactly 0 or 2*pi
    st.builds(lambda x0, x1, side, turn: _box(x0, x1, _TOL, 2.0, turn) if side
              else _box(x0, x1, -2.0, -_TOL, turn),
              st.floats(-2.0, 0.5), st.floats(0.6, 2.0), st.booleans(), st.integers(0, 3)),
    st.builds(lambda h: _box(-h, h, -h, h), st.floats(1.5, 4.0)),  # the full circle
)


def _check_pieces(arcs):
    # body_curve_arcs' form: pieces of [0, 2*pi], sorted, apart, and one
    # starting at 0 exactly when one ends at 2*pi.
    for lo, hi in arcs:
        assert 0.0 <= lo <= hi <= TWO_PI, arcs
    for (_, hi), (lo, _) in zip(arcs, arcs[1:]):
        assert lo > hi, arcs
    if arcs:
        assert (arcs[0][0] == 0.0) == (arcs[-1][1] == TWO_PI), arcs


_EDGE_CASES = {
    # the upper and the lower half circle: an arc from exactly 0 and one to
    # exactly 2*pi, each holding 0 at both ends
    "ends-at-0": (_box(-2.0, 2.0, _TOL, 2.0),
                  lambda arcs: arcs == [(0.0, arcs[0][1]), (TWO_PI, TWO_PI)]),
    "ends-at-2pi": (_box(-2.0, 2.0, -2.0, -_TOL),
                    lambda arcs: arcs == [(0.0, 0.0), (arcs[1][0], TWO_PI)]),
    "full": (_box(-3.0, 3.0, -3.0, 3.0), lambda arcs: arcs == [(0.0, TWO_PI)]),
    # a short arc through 0: its first and last piece
    "c-near-minus-1": (_box(1.0, 1.5, -0.5, 0.5),
                       lambda arcs: len(arcs) == 2 and arcs[0][0] == 0.0 and arcs[1][1] == TWO_PI),
    "c-at-minus-1": (_box(1.0 + _TOL, 1.5, -0.5, 0.5), lambda arcs: arcs == []),  # c rounds to -1
    "tangent": (_tangent_ngon(4, 1.0, 0.0), lambda arcs: arcs == [(0.0, TWO_PI)]),
    # eight arcs between the edges' tangent points, one of them through 0
    "tangent-slivers": (_tangent_ngon(8, 1.0 - 2 * _TOL, 0.3),
                        lambda arcs: len(arcs) == 9 and arcs[0][0] == 0.0 and arcs[-1][1] == TWO_PI),
    # a thin box across the circle cuts it in two short arcs
    "chord": (_box(-1e-3, 1e-3, -2.0, 2.0), lambda arcs: len(arcs) == 2),
    # a box whose edge misses the circle by half the tolerance touches it,
    # on a short arc around pi/2; at twice the tolerance it misses
    "edge-tangent": (_box(-1.0, 1.0, 1.0 + 0.5 * _TOL, 2.0),
                     lambda arcs: len(arcs) == 1 and arcs[0][0] < math.pi / 2 < arcs[0][1]
                     and arcs[0][1] - arcs[0][0] < 1e-4),
    "edge-apart": (_box(-1.0, 1.0, 1.0 + 2 * _TOL, 2.0), lambda arcs: arcs == []),
    # The two seam cuts on running pieces that hold 0 at both ends: the edge
    # x = 0.5 first cuts an arc through 0, then the edge on y = +-tol, last
    # in the ring, cuts from exactly 0 (normal (0, -1), limit 0, so
    # phi + delta is 0.0) or up to exactly 2*pi (normal (0, 1)). From 0,
    # the piece ending at 2*pi leaves the point (2*pi, 2*pi); up to 2*pi,
    # the piece starting at 0 leaves (0, 0).
    "from-0-after-a-cut": ([(3.0, _TOL), (3.0, 3.0), (0.5, 3.0), (0.5, _TOL)],
                           lambda arcs: arcs == [(0.0, arcs[0][1]), (TWO_PI, TWO_PI)]
                           and 0.0 < arcs[0][1] < math.pi / 2),
    "to-2pi-after-a-cut": ([(0.5, -_TOL), (0.5, -3.0), (3.0, -3.0), (3.0, -_TOL)],
                           lambda arcs: arcs == [(0.0, 0.0), (arcs[1][0], TWO_PI)]
                           and 3 * math.pi / 2 < arcs[1][0] < TWO_PI),
}


@pytest.mark.parametrize("shape, check", _EDGE_CASES.values(), ids=_EDGE_CASES.keys())
def test_body_curve_arcs_edge_cases(shape, check):
    body = ConvexBody.from_vertices(0, shape)
    (arcs,) = body_curve_arcs([body])
    assert arcs == reference_body_curve_arcs(body)
    _check_pieces(arcs)
    assert check(arcs), arcs


def test_body_curve_arcs_keep_the_seam_point_of_an_arc_ending_at_two_pi():
    # A wedge opening to the right whose apex lies about TOL_GEOM * sqrt(2)
    # past (1, 0), so that with the slack each slanted edge cuts the circle
    # at angle 0. The apex's last bits were searched so that, in floating
    # point, the lower edge's arc starts at exactly 0 and the upper edge's
    # arc ends at exactly 2*pi (one piece each, not through 0). The body
    # meets the circle only there, and the point 0 survives at both ends,
    # as (0, 0) and (2*pi, 2*pi), since both edges hold it at both ends.
    apex = 1.000000001414213
    body = ConvexBody.from_vertices(0, [(apex, 0.0), (apex + 1.0, -1.0), (apex + 1.0, 1.0)])
    assert body_curve_arcs([body]) == [[(0.0, 0.0), (TWO_PI, TWO_PI)]]
    assert reference_body_curve_arcs(body) == [(0.0, 0.0), (TWO_PI, TWO_PI)]


@settings(max_examples=300, deadline=None)
@given(st.one_of(_arc_shape, st.sampled_from([shape for shape, _ in _EDGE_CASES.values()])),
       st.sampled_from([UNIT_CIRCLE, CurveModel((0.25, -0.5), 1.75)]))
def test_body_curve_arcs_are_sorted_apart_pieces(shape, curve):
    body = ConvexBody.from_vertices(0, shape)
    (arcs,) = body_curve_arcs(curve.to_unit([body]))
    _check_pieces(arcs)
    # Each piece's ends are curve points in the body, up to rounding, with
    # the tolerance in units of the radius.
    for t in {t for piece in arcs for t in piece}:
        assert containment_margin(body, curve.point_at(t)) >= -2 * _TOL * curve.radius


@settings(max_examples=400, deadline=None)
@given(_arc_shape, st.sampled_from([UNIT_CIRCLE, CurveModel((0.25, -0.5), 1.75)]))
def test_body_curve_arcs_is_the_per_edge_reference(shape, curve):
    (body,) = curve.to_unit([ConvexBody.from_vertices(0, shape)])
    assert body_curve_arcs([body]) == [reference_body_curve_arcs(body)]


@settings(max_examples=200, deadline=None)
@given(st.lists(_arc_shape, min_size=1, max_size=6), st.integers(0, 6))
@example([_box(-2.0, 2.0, _TOL, 2.0), _ngon(16, 0.0, 0.0, 1.2, 0.3)], 1)
def test_the_family_arc_pass_is_the_per_body_reference(shapes, at):
    # One pass over the family's rows gives each body the per-body
    # reference's pieces, bit for bit: a triangle off the curve, which has
    # none, sits at a drawn place among shapes of 3 to 16 vertices, so that
    # the shorter bodies' rows are padded.
    shapes.insert(at % (len(shapes) + 1), [(3.0, 3.0), (4.0, 3.0), (3.5, 4.0)])
    bodies = [ConvexBody.from_vertices(i, v) for i, v in enumerate(shapes)]
    want = [reference_body_curve_arcs(body) for body in bodies]
    assert [] in want
    assert body_curve_arcs(bodies) == want
    assert body_curve_arcs(pack(bodies)) == want


def test_face_census_two_squares():
    a = square(0, 0.0, 0.0)
    b = square(1, 0.5, 0.5)
    census = face_census([a, b], reference_candidates([a, b]))
    depth2 = [sig for sig in census if len(sig) == 2]
    depth1 = [sig for sig in census if len(sig) == 1]
    assert depth2 == [frozenset({0, 1})]
    assert sorted(depth1) == [frozenset({0}), frozenset({1})]
    rep = census[frozenset({0, 1})]
    assert containment_matrix([a, b], [rep]).tolist() == [[True, True]]


def test_brute_min_transversal_examples():
    disjoint = [square(i, 3.0 * i, 0.0) for i in range(3)]
    got = brute_min_transversal(disjoint, k_max=3)
    assert got is not None and len(got) == 3
    assert brute_min_transversal(disjoint, k_max=2) is None

    overlapping = [square(0, 0.0, 0.0), square(1, 0.5, 0.5)]
    got = brute_min_transversal(overlapping, k_max=3)
    assert got is not None and len(got) == 1
    assert containment_matrix(overlapping, got[:1]).all()

    nested = [square(0, 0.0, 0.0, side=4.0), square(1, 1.0, 1.0)]
    got = brute_min_transversal(nested, k_max=2)
    assert got is not None and len(got) == 1


def test_brute_min_transversal_against_exhaustive():
    rng = np.random.default_rng(11)
    for trial in range(25):
        n = int(rng.integers(2, 5))
        bodies = []
        for i in range(n):
            cx, cy = rng.uniform(-1.0, 1.0, size=2)
            side = float(rng.uniform(0.6, 1.6))
            bodies.append(square(i, float(cx), float(cy), side))
        cands = reference_candidates(bodies)
        got = brute_min_transversal(bodies, k_max=3)

        # Exhaustive oracle over subsets of the arrangement's vertices of size <= 3.
        best = None
        for k in range(0, 4):
            for combo in itertools.combinations(range(len(cands)), k):
                pts = [cands[c] for c in combo]
                if containment_matrix(bodies, pts).any(axis=0).all():
                    best = k
                    break
            if best is not None:
                break

        if best is None:
            assert got is None
        else:
            assert got is not None
            assert len(got) == best
            assert containment_matrix(bodies, got).any(axis=0).all()


def test_the_unit_circle_frame_is_the_input_itself():
    bodies = [square(0, 0.0, 0.0), square(1, 0.5, 0.5)]
    assert UNIT_CIRCLE.to_unit(bodies) is bodies
    pts = np.array([[0.5, -0.25]])
    assert UNIT_CIRCLE.to_unit_points(pts) is pts
    assert UNIT_CIRCLE.from_unit([(0.5, -0.25)]) == [(0.5, -0.25)]


def test_to_unit_maps_a_body_into_the_curve_frame():
    curve = CurveModel((3.0, -2.0), 4.0)
    body = ConvexBody.from_vertices(5, [(3.0, -2.0), (7.0, -2.0), (3.0, 2.0)])
    (unit,) = curve.to_unit([body])
    assert unit.id == 5 and unit.normals is body.normals
    assert unit.vertices.tolist() == [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]
    # offsets[i] = normals[i] . vertices[i], as from_vertices makes them.
    assert np.array_equal(unit.offsets, np.einsum("ij,ij->i", unit.normals, unit.vertices))
    assert np.allclose(unit.offsets, ConvexBody.from_vertices(5, unit.vertices).offsets,
                       rtol=0.0, atol=1e-15)
    pts = np.array([(7.0, 2.0), (3.0, -4.0)])
    assert curve.to_unit_points(pts).tolist() == [[1.0, 1.0], [0.0, -0.5]]
    assert curve.from_unit([(1.0, 1.0), (0.0, -0.5)]) == [(7.0, 2.0), (3.0, -4.0)]


def test_curve_model_validation():
    with pytest.raises(ValueError):
        CurveModel((0.0, 0.0), 0.0)
    c = CurveModel((1.0, 2.0), 3.0)
    assert c.point_at(0.0) == pytest.approx((4.0, 2.0))
    assert c.point_at(math.pi / 2) == pytest.approx((1.0, 5.0))
    # Integers are stored as floats, the center as a pair.
    c = CurveModel([1, 2], 3)
    assert c.center == (1.0, 2.0) and type(c.center[0]) is float
    assert type(c.radius) is float


@pytest.mark.parametrize("center, radius, message", [
    ((float("nan"), 0.0), 1.0, "curve center must be finite"),
    ((float("inf"), 0.0), 1.0, "curve center must be finite"),
    ((10**400, 0.0), 1.0, "curve center is too large for a float"),
    (("a", 0.0), 1.0, "curve center must be numbers"),
    ((0.0,), 1.0, "curve center must be two numbers"),
    ((0.0, 0.0), 10**400, "curve radius is too large for a float"),
    ((0.0, 0.0), float("nan"), "curve radius must be finite"),
    ((0.0, 0.0), -1.0, "curve radius must be positive"),
    # Strings that float() parses and bools are not numbers.
    (("1", "2"), "3", "curve center must be numbers"),
    ((True, False), True, "curve center must be numbers"),
    ((0.0, 0.0), "3", "curve radius must be numbers"),
    ((np.timedelta64(1), 0.0), 1.0, "curve center must be numbers"),
])
def test_curve_model_rejects_bad_numbers(center, radius, message):
    with pytest.raises(ValueError, match=message):
        CurveModel(center, radius)


@pytest.mark.parametrize("vertices, message", [
    ([(10**400, 0), (1, 0), (0, 1)], "int too large"),
    ([("a", 0), (1, 0), (0, 1)], "could not convert"),
    ([(0, 0), (1, 0, 2), (0, 1)], "inhomogeneous"),
])
def test_body_rejects_vertices_that_are_not_floats(vertices, message):
    with pytest.raises(InvalidBodyError, match=f"body 5: vertices are not floats: .*{message}"):
        ConvexBody.from_vertices(5, vertices)


@pytest.mark.parametrize("vertices", [
    [("0", "0"), ("1", "0"), ("0", "1")],
    [(True, 0.0), (1.0, 0.0), (0.0, 1.0)],
    np.array([(0, 0), (1, 0), (0, 1)]).astype(str),
    np.array([(1, 0), (1, 1), (0, 1)], dtype=bool),
    [(np.timedelta64(0), 0.0), (1.0, 0.0), (0.0, 1.0)],
])
def test_body_rejects_strings_and_bools(vertices):
    # float() parses each of these, but they are not numbers.
    with pytest.raises(InvalidBodyError, match="body 5: vertices must be numbers"):
        ConvexBody.from_vertices(5, vertices)


def test_body_takes_python_and_numpy_numbers():
    want = ConvexBody.from_vertices(0, [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)]).vertices
    for vertices in ([(0, 0), (1, 0), (0, 1)], np.array([(0, 0), (1, 0), (0, 1)]),
                     [(np.int64(0), np.float32(0)), np.array([1.0, 0.0]), (0, 1)]):
        assert np.array_equal(ConvexBody.from_vertices(0, vertices).vertices, want)
