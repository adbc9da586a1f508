"""Rounding chain: classes, dual programs, rationalization, heavy point, greedy."""

import functools
import json
import math
import signal
import tracemalloc
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import pierce.pipeline
from pierce.errors import PipelineError
from pierce.geometry import (
    TOL_GEOM,
    TWO_PI,
    ConvexBody,
    Family,
    UNIT_CIRCLE,
    candidate_points,
    containment_matrix,
    lowest_common_point,
)
from pierce.instances import (Instance, _ring_points, _wedge_points, gallery7, gen_clustered,
                              gen_pairwise)
from pierce.lp import TOL_LP, packing_solve
from pierce.pipeline import (
    candidate_classes,
    certificate_failures,
    greedy_transversal,
    rationalize,
    run_pipeline,
    _limit_denominator,
    _maximal_rows,
    _signature_words,
)
from pierce.reports import verify_report

from conftest import (
    NUDGE_EPS,
    arc_body,
    grid_square,
    grid_triangle,
    pg22_twice,
    reference_candidates,
    reference_classes,
    tangent_triangle,
)
from lemmas import build_witness_list


def box(body_id: int, cx: float, cy: float, r: float = 0.4) -> ConvexBody:
    pts = [(cx - r, cy - r), (cx + r, cy - r), (cx + r, cy + r), (cx - r, cy + r)]
    return ConvexBody.from_vertices(body_id, pts)


# ---------------------------------------------------------------- classes


def signatures(classes):
    """Each class's body set, in class order."""
    return [frozenset(np.flatnonzero(row).tolist()) for row in classes.matrix()]


def test_candidate_classes_disjoint():
    bodies = [box(0, -2.0, 0.0), box(1, 2.0, 0.0)]
    cc = candidate_classes(bodies)
    assert sorted(sorted(s) for s in signatures(cc)) == [[0], [1]]
    assert len(cc.points) == 2


def test_candidate_classes_nested_signature_dominated():
    outer = box(0, 0.0, 0.0, 1.0)
    inner = box(1, 0.0, 0.0, 0.3)
    cc = candidate_classes([outer, inner])
    # every point of the inner square lies in the outer one, so the lone
    # maximal class is {0,1} and one point covers both bodies
    assert cc.matrix().tolist() == [[True, True]]
    assert len(greedy_transversal(candidate_classes([outer, inner]))) == 1


def test_candidate_classes_join_tips_within_the_tolerance():
    # b's tip lies 1.5 TOL_GEOM right of a's tip (0, 0), so the bodies'
    # bounding boxes are apart, yet b contains a's tip within its slack.
    # Their edges cross within the t and u padding, and that crossing is
    # the lowest point of the one class {0, 1}.
    a = ConvexBody.from_vertices(0, [(-1, -0.1), (0, 0), (-1, 0.1)])
    b = ConvexBody.from_vertices(1, [(1 + 1.5 * TOL_GEOM, 0.1), (1.5 * TOL_GEOM, 0),
                                     (1 + 1.5 * TOL_GEOM, -0.1)])
    assert containment_matrix([a, b], [(0.0, 0.0)]).tolist() == [[True, True]]
    cc = candidate_classes([a, b])
    assert signatures(cc) == [frozenset({0, 1})]
    assert cc.points == ((7.499998400106733e-10, 7.499997844995221e-11),)


def test_candidate_classes_incomplete(monkeypatch):
    # candidate_points keeps each polygon's lowest vertex, so only a
    # foreign candidate list leaves a body without a candidate.
    bodies = [box(0, 0.0, 0.0), box(1, 5.0, 0.0)]
    monkeypatch.setattr(pierce.pipeline, "candidate_points", lambda _: np.zeros((1, 2)))
    with pytest.raises(PipelineError, match=r"^candidates: no candidate inside bodies \[1\]$"):
        candidate_classes(bodies)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.one_of(grid_square, grid_triangle), min_size=1, max_size=6))
@example([[(0, 0), (1, 0), (0, 1)], [(1, 0), (2, 0), (2, 1)]])  # shared vertex
@example([[(0, 0), (1, 0), (1, 1), (0, 1)], [(1, 0), (2, 0), (2, 1), (1, 1)]])  # shared edge
@example([[(0, 0), (3, 0), (3, 3), (0, 3)], [(1, 1), (2, 1), (2, 2), (1, 2)]])  # nested
@example([[(0, 0), (1, 0), (1, 1), (0, 1)], [(1, 1), (2, 1), (2, 2), (1, 2)]])  # corner to corner
@example([[(0, 0), (2, 0), (2, 2), (0, 2)], [(2, 1), (3, 0), (3, 2)]])  # corner on an edge
def test_vertex_candidates_find_every_maximal_class(shapes):
    bodies = [ConvexBody.from_vertices(i, v) for i, v in enumerate(shapes)]
    base = reference_candidates(bodies)
    step = NUDGE_EPS / math.sqrt(2.0)
    nudged = base + [(x + sx * step, y + sy * step)
                     for x, y in base for sx, sy in ((1, 1), (-1, 1), (-1, -1), (1, -1))]
    got = signatures(candidate_classes(bodies))
    assert got == [sig for sig, _ in reference_classes(bodies, nudged)]
    # An eighth-unit grid over the shapes' range reaches cells no vertex is near.
    sample = [(i / 8, j / 8) for i in range(57) for j in range(57)]
    assert got == [sig for sig, _ in reference_classes(bodies, nudged + sample)]


@pytest.mark.parametrize("n", [1, 7, 8, 9, 17, 63, 64, 65, 129])
def test_candidate_classes_packed_dedup_matches_frozensets(n):
    # 7, 8, 9 and 17 bodies put the last signature bit just inside, at, and
    # past a byte; 63, 64, 65 and 129 just inside, at, and past a 64-bit
    # word, where the signatures take a second word. Each must list the
    # classes by the plain integer key of their body sets, each at its
    # lowest candidate.
    rng = np.random.default_rng(n)
    for _ in range(5):
        bodies = [box(i, *(rng.integers(0, 9, size=2) / 2), r=float(rng.integers(1, 5)) / 2)
                  for i in range(n)]
        cc = candidate_classes(bodies)
        want = reference_classes(bodies, candidate_points(bodies))
        assert list(cc.points) == [pt for _, pt in want]
        assert signatures(cc) == [sig for sig, _ in want]
        assert any(n - 1 in sig for sig in signatures(cc))
        assert cc.matrix().dtype == bool and not cc.matrix().flags.writeable


@pytest.mark.parametrize("n", [63, 64, 65, 130])
def test_candidate_classes_sort_by_the_integer_key_of_their_body_sets(monkeypatch, n):
    # Forty signatures of four bodies each, so that none holds another,
    # each drawn at two points, and every body alone at one more: the
    # classes must come in the order of the Python int sum(2**i for body i
    # in the set), each at its lowest point (least y, then least x),
    # wherever in the 64-bit words the bits fall. The bodies are ints, so
    # the one-point base case is stubbed out and the full path runs.
    rng = np.random.default_rng(n)
    rows = np.zeros((80 + n, n), dtype=bool)
    for r in range(40):
        rows[np.ix_([r, 40 + r], rng.choice(n, 4, replace=False))] = True
    rows[80:] = np.eye(n, dtype=bool)
    pts = np.column_stack([rng.permutation(len(rows)), rng.integers(0, 7, len(rows))]) / 2
    table = {tuple(pt): row for pt, row in zip(pts.tolist(), rows)}
    monkeypatch.setattr(pierce.pipeline, "lowest_common_point", lambda _: None)
    monkeypatch.setattr(pierce.pipeline, "candidate_points", lambda _: pts)
    monkeypatch.setattr(pierce.pipeline, "containment_matrix",
                        lambda _, cands: np.array([table[tuple(pt)] for pt in cands.tolist()]))
    cc = candidate_classes(list(range(n)))

    lowest: dict[int, tuple[float, float]] = {}
    for (x, y), row in zip(pts.tolist(), rows):
        key = sum(1 << i for i in np.flatnonzero(row).tolist())
        if key not in lowest or (y, x) < lowest[key][::-1]:
            lowest[key] = (x, y)
    want = sorted(key for key in lowest if not any(key != o and key & o == key for o in lowest))
    assert [sum(1 << i for i in np.flatnonzero(row).tolist()) for row in cc.matrix()] == want
    assert list(cc.points) == [lowest[key] for key in want]


# Bodies that hold one common point c, drawn four ways: a triangle around c,
# a triangle with a corner at c (a fan when several do), a box whose level
# bottom edge runs through c, and a wedge of the circle anchored where c
# meets it, which gen_clustered draws.  Quarter-unit coordinates and
# eighth-turn angles make shared vertices, shared edges and level edges
# come up often.
quarter = st.integers(1, 8).map(lambda k: k / 4)
turn = st.integers(0, 7).map(lambda k: k * math.pi / 4)


@st.composite
def body_at(draw, c):
    cx, cy = c
    kind = draw(st.sampled_from(("around", "corner", "level")))
    if kind == "around":  # three directions, each gap under half a turn
        a = draw(turn)
        return [(cx + r * math.cos(a + k * TWO_PI / 3), cy + r * math.sin(a + k * TWO_PI / 3))
                for k, r in enumerate(draw(st.lists(quarter, min_size=3, max_size=3)))]
    if kind == "corner":
        a, w = draw(turn), draw(st.integers(1, 3)) * math.pi / 4
        r, s = draw(quarter), draw(quarter)
        return [(cx, cy), (cx + r * math.cos(a), cy + r * math.sin(a)),
                (cx + s * math.cos(a + w), cy + s * math.sin(a + w))]
    left, right, h = draw(st.integers(0, 4)) / 4, draw(quarter), draw(quarter)
    return [(cx - left, cy), (cx + right, cy), (cx + right, cy + h), (cx - left, cy + h)]


@st.composite
def sharing_family(draw):
    if draw(st.booleans()):
        anchor = draw(turn)
        width = st.integers(1, 4).map(lambda k: k / 10)
        return [_wedge_points(anchor, *w)
                for w in draw(st.lists(st.tuples(width, width), min_size=1, max_size=6))]
    c = (draw(st.integers(-2, 2)) / 2, draw(st.integers(-2, 2)) / 2)
    return draw(st.lists(body_at(c), min_size=1, max_size=6))


def assert_base_case_is_the_full_path(shapes) -> bool:
    # The classes equal the full path's, point and row alike, and a family
    # whose one maximal class is not every body never takes the base case.
    # Returns whether the family has that one class.
    bodies = [ConvexBody.from_vertices(i, v) for i, v in enumerate(shapes)]
    got = candidate_classes(bodies)
    with mock.patch.object(pierce.pipeline, "lowest_common_point", return_value=None):
        full = candidate_classes(bodies)
    assert got.points == full.points
    assert got.matrix().tolist() == full.matrix().tolist()
    shared = full.matrix().shape[0] == 1 and full.matrix().all()
    if not shared:
        assert lowest_common_point(bodies) is None
    return shared


@settings(max_examples=150, deadline=None)
@given(sharing_family())
# A fan of three triangles at one corner.
@example([[(0, 0), (1, 1), (-0.25, 1)], [(0, 0), (0.5, 1), (-1, 1)], [(0, 0), (1, 0.5), (0, 1)]])
@example([_wedge_points(0.0, 0.1 * (1 + k % 3), 0.2) for k in range(5)])  # wedges at one anchor
# Two boxes on one level bottom edge.
@example([[(-1, 0), (1, 0), (1, 1), (-1, 1)], [(-0.5, 0), (2, 0), (2, 2), (-0.5, 2)]])
# A level bottom edge from c, whose far end the full path picks, as its
# crossing rounds to y = -2.8e-17: the base case must hand it over.
@example([[(0.25, 0.0), (-0.12499999999999994, 0.21650635094610968),
           (-0.1250000000000001, -0.2165063509461096)],
          [(0.1767766952966369, 0.17677669529663687), (-0.24148145657226705, 0.06470476127563025),
           (0.06470476127563007, -0.2414814565722671)],
          [(0.0, 0.0), (0.75, 0.0), (0.75, 0.25), (0.0, 0.25)]])
@example([[(0, 0), (1, 0), (1, 1), (0, 1)]])  # one body
def test_the_one_point_base_case_is_the_full_path_on_shared_points(shapes):
    assert assert_base_case_is_the_full_path(shapes)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.one_of(grid_square, grid_triangle), min_size=1, max_size=6))
@example([[(0, 0), (1, 0), (0, 1)], [(1, 0), (2, 0), (2, 1)]])  # shared vertex
@example([[(0, 0), (1, 0), (1, 1), (0, 1)], [(2, 0), (3, 0), (3, 1), (2, 1)]])  # apart
def test_the_one_point_base_case_is_the_full_path_on_grid_families(shapes):
    assert_base_case_is_the_full_path(shapes)


def test_the_one_point_base_case_skips_the_candidate_pass(monkeypatch):
    # A gen_pairwise family shares a point whose two rows meet alone, so the
    # base case answers; a fan's corner is where six rows meet, and a PG(2,2)
    # union shares no point, so both take the full path.
    calls = []
    monkeypatch.setattr(pierce.pipeline, "candidate_points",
                        lambda bodies: calls.append(len(bodies)) or candidate_points(bodies))
    cc = candidate_classes(gen_pairwise(200, 0).bodies)
    assert calls == [] and cc.matrix().shape == (1, 200) and cc.matrix().all()
    fan = [ConvexBody.from_vertices(i, v) for i, v in enumerate(
        [[(0, 0), (1, 1), (-0.25, 1)], [(0, 0), (0.5, 1), (-1, 1)], [(0, 0), (1, 0.5), (0, 1)]])]
    assert candidate_classes(fan).points == ((0.0, 0.0),) and calls == [3]
    assert len(candidate_classes(pg22_twice()).points) > 1 and calls == [3, 14]


def test_a_solve_and_its_verify_stack_each_family_once(monkeypatch):
    # Count the builds of each packed array group.
    built = []
    for name in ("edges", "rows"):
        def build(family, name=name, stack=getattr(Family, name).func):
            built.append(name)
            return stack(family)
        counted = functools.cached_property(build)
        counted.__set_name__(Family, name)
        monkeypatch.setattr(Family, name, counted)
    inst = gallery7()
    report = run_pipeline(inst.bodies, inst.curve, inst.p)
    assert report.filtered == () and sorted(built) == ["edges", "rows"]
    # Verify stacks the weighted bodies' edges and every body's rows.
    built.clear()
    assert verify_report(inst, report.to_dict()) == []
    assert sorted(built) == ["edges", "rows"]
    # A body that misses the curve: the active bodies are packed apart from
    # the whole family, whose rows the final containment reads.
    built.clear()
    far = ConvexBody.from_vertices(len(inst.bodies), [(5, 5), (6, 5), (5, 6)])
    report = run_pipeline([*inst.bodies, far], inst.curve, inst.p)
    assert report.filtered == (len(inst.bodies),) and report.flags["all_bodies_hit"]
    assert sorted(built) == ["edges", "rows", "rows"]


def test_maximal_rows_against_bruteforce():
    # Column c is bit c % 64 of word c // 64; the bits past the last column are 0.
    words = _signature_words(np.eye(130, dtype=bool))
    assert words.dtype == np.dtype("<u8") and words.shape == (130, 3)
    assert words.tolist() == [[1 << (c % 64) if w == c // 64 else 0 for w in range(3)]
                              for c in range(130)]
    rng = np.random.default_rng(4)
    for trial in range(120):
        k = int(rng.integers(1, 40))
        n = int(rng.integers(1, 131))
        rows = np.unique(rng.random((k, n)) < rng.uniform(0.2, 0.8), axis=0)
        if trial % 4 == 0:
            # Rows and their halves: chains of equal and of distinct popcounts.
            rows = np.unique(np.vstack([rows, rows & (np.cumsum(rows, axis=1) <= n // 2)]), axis=0)
        want = [not any(j != i and (rows[i] <= rows[j]).all() for j in range(rows.shape[0]))
                for i in range(rows.shape[0])]
        # budget sets the words per block: 1 makes blocks of one row, 12 and
        # 64 blocks of 2 to 8 rows, so that a block's survivors test each
        # other and the kept rows go in several steps.
        for budget in (1, 12, 64, pierce.pipeline.BLOCK_CELLS):
            with mock.patch.object(pierce.pipeline, "BLOCK_CELLS", budget):
                got = _maximal_rows(_signature_words(rows))
            assert got.tolist() == want, budget


def test_maximal_rows_memory_stays_within_a_block_budget():
    # 2048 rows with 64 of 128 bits set, then 2048 with 32: every row of the
    # second group is tested against the 2048 kept rows of the first. An
    # unblocked (rows, kept, words) uint64 temporary would take 64 MiB.
    rng = np.random.default_rng(9)
    rows = np.zeros((4096, 128), dtype=bool)
    for i, size in enumerate([64] * 2048 + [32] * 2048):
        rows[i, rng.permutation(128)[:size]] = True
    # Even rows of the second group are halves of rows of the first.
    rows[2048::2] = rows[:2048:2] & (np.cumsum(rows[:2048:2], axis=1) <= 32)
    words = _signature_words(rows)
    assert len(np.unique(words, axis=0)) == 4096
    tracemalloc.start()
    try:
        got = _maximal_rows(words)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got.tolist() == [True] * 2048 + [False, True] * 1024
    # One block's temporaries take about 576 KiB and the sorted and kept
    # copies of the rows 64 KiB each: the peak is near 0.85 MiB.
    budget = 2 << 20
    assert peak < budget


def test_fractional_sizes_trivial():
    tri = ConvexBody.from_vertices(0, [(0, 0), (1, 0), (0, 1)])
    lp = packing_solve(candidate_classes([tri]).matrix())
    assert math.fsum(lp.duals) == pytest.approx(1.0, abs=1e-9)
    assert lp.objective == pytest.approx(1.0, abs=1e-9)

    boxes = [box(i, 3.0 * i, 0.0) for i in range(4)]
    lp = packing_solve(candidate_classes(boxes).matrix())
    assert math.fsum(lp.duals) == pytest.approx(4.0, abs=1e-9)
    assert lp.objective == pytest.approx(4.0, abs=1e-9)


# Three bodies, ids 3, 5 and 8, whose pairs are the classes, each class
# also a cover point: tau* = 1.5, from a half on every class.
_TRIANGLE = np.array([[1, 1, 0], [0, 1, 1], [1, 0, 1]], dtype=bool)
_HALVES = [0.5, 0.5, 0.5]
_CERTIFICATES = {
    "valid": (_HALVES, _HALVES, []),
    "negative-cover-weight": ([1, 1, -0.25], _HALVES, [
        "negative cover weight -2.500e-01",
        "packing sum 1.500000000 != cover sum 2.000000000",
        "tau_star 1.5 < cover bound 2.000000000"]),
    "non-finite-packing": (_HALVES, [0.5, math.nan, 0.5], ["LP certificate weights are not finite"]),
    "non-finite-cover": ([0.5, math.inf, 0.5], _HALVES, ["LP certificate weights are not finite"]),
    "empty-cover": ([], _HALVES, [
        "body 3 has cover weight 0.000000000 < 1",
        "packing sum 1.500000000 != cover sum 0.000000000",
        "tau_star 1.5 < cover bound inf"]),
    "packing-load-over-1": (_HALVES, [1, 1, 0.5], [
        "class of bodies [3, 5] has packing load 2.000000000 > 1",
        "packing sum 2.500000000 != cover sum 1.500000000",
        "tau_star 1.5 > packing bound 1.250000000"]),
}


@pytest.mark.parametrize("cover, packing, want", _CERTIFICATES.values(), ids=_CERTIFICATES.keys())
def test_certificate_failures_read_weights_alike_in_any_container(cover, packing, want):
    # Solve passes tuples of floats, verify the report's JSON lists (ints
    # where the file has them), and a caller may pass numpy arrays: each
    # gives the same lines.
    cover_rows = _TRIANGLE[:len(cover)]
    forms = [(tuple(map(float, cover)), tuple(map(float, packing))),
             (json.loads(json.dumps(cover)), json.loads(json.dumps(packing))),
             (np.array(cover, dtype=float), np.array(packing, dtype=float))]
    for y, x in forms:
        assert certificate_failures([3, 5, 8], cover_rows, y, _TRIANGLE, x, 1.5) == want


def test_gallery_duality_and_value():
    bodies = gallery7().bodies
    lp = packing_solve(candidate_classes(bodies).matrix())
    assert abs(math.fsum(lp.duals) - lp.objective) <= 1e-6
    # the optimum splits weight over the five deep corners and two of the
    # three depth-4 faces; its exact value is 15/7 (frozen from the solver,
    # cross-checked against the scipy oracle in development)
    assert math.fsum(lp.duals) == pytest.approx(15.0 / 7.0, abs=1e-9)


def test_cover_leaves_out_duals_that_are_rounding():
    # Two of pg22_twice's class duals are zero up to rounding; the cover
    # keeps only the classes whose dual exceeds TOL_LP.
    inst = Instance(pg22_twice())
    duals = packing_solve(candidate_classes(inst.bodies).matrix()).duals
    assert any(0.0 < w <= TOL_LP for w in duals)
    report = run_pipeline(inst.bodies, inst.curve, inst.p)
    assert report.cover_weights and min(report.cover_weights) > TOL_LP
    assert len(report.cover_weights) == sum(w > TOL_LP for w in duals)
    assert report.flags["duality_ok"]
    assert verify_report(inst, report.to_dict()) == []


def test_duality_on_generated_instances():
    for seed in range(3):
        inst = gen_pairwise(7, seed=seed)
        lp = packing_solve(candidate_classes(inst.bodies).matrix())
        assert abs(math.fsum(lp.duals) - lp.objective) <= 1e-6
        assert math.fsum(lp.duals) <= 1.0 + 1e-9  # pairwise-meeting wedges share points
    for seed in range(3):
        inst = gen_clustered(4, 9, seed=seed)
        lp = packing_solve(candidate_classes(inst.bodies).matrix())
        assert abs(math.fsum(lp.duals) - lp.objective) <= 1e-6
        assert math.fsum(lp.duals) <= 3.0 + 1e-9  # one point per cluster always covers


# ---------------------------------------------------------------- rationalize


@settings(max_examples=500, deadline=None)
@given(
    st.one_of(
        st.sampled_from([0.0, 1.0, 0.5, 5e-324, 2.2250738585072014e-308, 1 / 3]),
        st.floats(0.0, 1.0),
        st.floats(0.0, 1e-300),  # subnormals and their neighbours
        st.builds(lambda j, e: j / 2 ** e, st.integers(0, 1 << 12), st.integers(0, 12))
        .filter(lambda v: v <= 1.0),  # dyadics
    ),
    st.integers(1, 10_000),
)
@example(0.5, 1)  # midway between 0 and 1
@example(0.25, 3)  # midway between 0 and 1/2
@example(0.75, 3)
def test_limit_denominator_is_the_fraction_method(v, max_denominator):
    want = Fraction(v).limit_denominator(max_denominator)
    assert _limit_denominator(v, max_denominator) == (want.numerator, want.denominator)


def test_limit_denominator_breaks_ties_as_the_fraction_method():
    # A dyadic v = j / 2**e can lie midway between two closest fractions
    # with denominators up to d: want and its mirror 2v - want. Every v and
    # d up to e = 8 is checked, and there are ties among them.
    ties = 0
    for e in range(1, 9):
        for j in range(1, 2 ** e, 2):
            v = j / 2 ** e
            for d in range(1, 2 ** e):
                want = Fraction(v).limit_denominator(d)
                assert _limit_denominator(v, d) == (want.numerator, want.denominator)
                ties += (2 * Fraction(v) - want).denominator <= d
    assert ties >= 15


def test_rationalize_exact_rationals():
    assert rationalize((0.5, 0.5), 10_000) == ((1, 1), 2)
    assert rationalize((1.0 / 3.0, 2.0 / 3.0), 100) == ((1, 2), 3)
    assert rationalize((0.0, 1.0), 10_000) == ((0, 1), 1)


def test_rationalize_validation():
    with pytest.raises(ValueError):
        rationalize((0.5,), 0)


def test_rationalize_repairs_infeasible_sum():
    # both weights 0.6 at a shared candidate exceed the packing constraint;
    # the repair must land on an exactly feasible integer pair
    m, d = rationalize((0.6, 0.6), 10, class_rows=[[True, True]])
    assert m[0] + m[1] <= d
    assert min(m) >= 0


def reference_rationalize(weights, max_denominator, signatures):
    """rationalize over frozenset classes, with a plain loop for the repair;
    also returns how many decrements the repair made."""
    w = [min(1.0, max(0.0, float(v))) for v in weights]

    def floored(d):
        return [int(math.floor(v * d + 1e-6)) for v in w]

    fracs = [Fraction(v).limit_denominator(max_denominator) for v in w]
    denom = math.lcm(*[f.denominator for f in fracs]) if fracs else 1
    if denom <= max_denominator:
        m, d = [int(f * denom) for f in fracs], denom
    else:
        d = max_denominator
        m = floored(d)
    if any(sum(m[i] for i in sig) > d for sig in signatures):
        d = max_denominator
        m = floored(d)
    repairs = 0
    while True:
        worst, excess = None, 0
        for sig in signatures:
            over = sum(m[i] for i in sig) - d
            if over > excess:
                worst, excess = sig, over
        if worst is None:
            break
        m[max(worst, key=lambda i: (m[i], -i))] -= 1
        repairs += 1
    return tuple(m), d, repairs


def test_rationalize_matches_the_signature_reference():
    rng = np.random.default_rng(12)
    repaired = 0
    for trial in range(300):
        k, n = int(rng.integers(0, 12)), int(rng.integers(1, 10))
        rows = rng.random((k, n)) < rng.uniform(0.2, 0.9)
        if trial % 3 == 0:
            weights = np.full(n, 0.6)  # every pair of members overloads its class
        elif trial % 3 == 1:
            weights = rng.choice([0.0, 0.25, 1 / 3, 0.5, 0.6, 0.7], n)  # tied m values
        else:
            weights = rng.uniform(0.0, 1.0, n)
        d_cap = int(rng.choice([1, 6, 10, 60, 500]))
        sigs = [frozenset(np.flatnonzero(row).tolist()) for row in rows]
        m, d, repairs = reference_rationalize(weights, d_cap, sigs)
        got = rationalize(weights, d_cap, class_rows=rows)
        assert got == (m, d)
        assert all(type(v) is int for v in got[0]) and type(got[1]) is int
        repaired += repairs > 0
    assert repaired >= 100

    # 40 bodies, weight 0.6 each, classes nested as the rows of a triangle:
    # row 0 holds every body and stays the first heaviest, so the repair is
    # a water level over 40 tied members.
    rows = np.triu(np.ones((40, 40), bool))
    sigs = [frozenset(np.flatnonzero(row).tolist()) for row in rows]
    m, d, repairs = reference_rationalize([0.6] * 40, 60, sigs)
    assert rationalize([0.6] * 40, 60, class_rows=rows) == (m, d)
    assert repairs == 40 * 36 - 60 and m == (1,) * 20 + (2,) * 20

    # A tie between two classes' loads goes to the lower-index class.
    rows = np.array([[1, 0, 0, 0, 1, 0, 0], [0, 0, 1, 1, 1, 0, 0], [0, 0, 0, 0, 0, 1, 1],
                     [1, 1, 0, 1, 1, 0, 0], [0, 0, 0, 0, 1, 0, 0]], bool)
    weights = [0.7, 0.7, 0.5000001, 0.5, 0.7, 0.5000001, 0.5]
    sigs = [frozenset(np.flatnonzero(row).tolist()) for row in rows]
    m, d, _ = reference_rationalize(weights, 500, sigs)
    assert rationalize(weights, 500, class_rows=rows) == (m, d)

    # Classes with tied loads take units in turn: two classes with no
    # common body (10 bodies of weight 0.3, 5 of 0.6), the Fano plane's
    # seven lines, and three disjoint Fano planes.
    two = np.zeros((2, 15), bool)
    two[0, :10] = two[1, 10:] = True
    fano = np.zeros((7, 7), bool)
    for k, line in enumerate([(0, 1, 2), (0, 3, 4), (0, 5, 6), (1, 3, 5), (1, 4, 6),
                              (2, 3, 6), (2, 4, 5)]):
        fano[k, line] = True
    for rows, weights in (
        (two, [0.3] * 10 + [0.6] * 5),
        (fano, [0.6] * 7),
        (np.kron(np.eye(3, dtype=bool), fano), [0.6] * 21),
    ):
        sigs = [frozenset(np.flatnonzero(row).tolist()) for row in rows]
        m, d, _ = reference_rationalize(weights, 60, sigs)
        assert rationalize(weights, 60, class_rows=rows) == (m, d)


def test_rationalize_stays_feasible_on_lp_outputs():
    for seed in (0, 1, 2, 5):
        inst = gen_clustered(3, 8, seed=seed)
        cc = candidate_classes(inst.bodies)
        lp = packing_solve(cc.matrix())
        m, d = rationalize(lp.values, 200, class_rows=cc.matrix())
        assert d <= 200
        for sig in signatures(cc):
            total = sum(m[i] for i in sig)
            assert isinstance(total, int)
            assert total <= d


@st.composite
def class_rows_and_weights(draw):
    n = draw(st.integers(1, 8))
    rows = draw(st.lists(st.lists(st.booleans(), min_size=n, max_size=n), max_size=10))
    # Exact small fractions take the continued-fraction path, random
    # floats mostly the floor path.
    weight = st.one_of(st.sampled_from([0.0, 0.25, 1 / 3, 0.5, 0.6, 2 / 3, 1.0]),
                       st.floats(0.0, 1.0))
    return np.array(rows, dtype=bool).reshape(len(rows), n), draw(st.lists(
        weight, min_size=n, max_size=n))


@settings(max_examples=300, deadline=None)
@given(class_rows_and_weights(), st.integers(1, 60))
@example((np.array([[True, False]]), [0.5, 0.25]), 60)  # fractions: D = 4
@example((np.array([[True, True]]), [0.6, 0.6]), 10)  # 3/5 + 3/5 > 1: floor at D = 10
@example((np.zeros((0, 3), bool), [0.001, 0.0, 0.002]), 7)  # floored to m = 0
def test_rationalize_is_feasible_for_any_weights(rows_weights, cap):
    """rounding_feasible_exact and coverage_le_denominator hold by
    construction. rationalize keeps the continued fractions only when every
    class load is at most D, and the floor path's repair ends when every
    load is; the heavy point's count is one of those loads. When m sums to
    0, run_pipeline gives one body a single copy, and a 0/1 row loads it at
    most once, with D >= 1. So verify's rechecks of these two flags guard
    against forged reports, not against solve."""
    rows, weights = rows_weights
    m, d = rationalize(weights, cap, class_rows=rows)
    assert 1 <= d <= cap and all(type(v) is int and v >= 0 for v in m)
    assert (rows.astype(np.int64) @ np.array(m, dtype=np.int64) <= d).all()


def test_fractional_transversal_covers_gallery():
    bodies = gallery7().bodies
    classes = candidate_classes(bodies)
    mat = classes.matrix()
    duals = packing_solve(mat).duals
    # every body carries at least one unit of point weight
    assert (mat.T @ np.asarray(duals) >= 1 - 1e-9).all()


# ---------------------------------------------------------------- greedy


def test_greedy_examples():
    assert len(greedy_transversal(candidate_classes([box(0, 0.0, 0.0)]))) == 1

    boxes = [box(i, 3.0 * i, 0.0) for i in range(4)]
    picks = greedy_transversal(candidate_classes(boxes))
    assert len(picks) == 4

    bodies = gallery7().bodies
    picks = greedy_transversal(candidate_classes(bodies))
    assert len(picks) >= 3
    inside = containment_matrix(bodies, picks)
    assert inside.any(axis=0).all()


def test_greedy_transversal_raises_on_a_body_in_no_class():
    # A forged class list whose one class misses body 1: no pick gains, and
    # the cover stops instead of looping; an alarm fails a cover that loops.
    def loops(signum, frame):
        raise AssertionError("greedy_transversal did not stop")

    classes = pierce.pipeline.CandidateClasses(((0.0, 0.0),), np.array([[True, False]]))
    handler = signal.signal(signal.SIGALRM, loops)
    signal.setitimer(signal.ITIMER_REAL, 2.0)
    try:
        with pytest.raises(PipelineError, match="^greedy cover stalled with unhit bodies$"):
            greedy_transversal(classes)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, handler)


# ---------------------------------------------------------------- pipeline


def test_run_pipeline_gallery():
    inst = gallery7()
    report = run_pipeline(inst.bodies, inst.curve, inst.p)
    assert len(report.transversal) == 3
    assert report.tau_star == pytest.approx(15.0 / 7.0, abs=1e-7)
    # the packing optimum has denominator 7, so rationalization is exact
    assert report.denominator == 7
    assert report.multiset_size == 15
    assert report.heavy_coverage <= report.denominator
    assert report.filtered == ()
    assert report.p_effective == 2
    assert all(report.flags.values()), report.flags


def test_run_pipeline_single_body():
    body = arc_body(0, 0.3, 1.1)
    report = run_pipeline([body])
    assert len(report.transversal) == 1
    assert report.tau_star == pytest.approx(1.0, abs=1e-9)
    assert report.flags["all_bodies_hit"]


def test_run_pipeline_cluster_instance():
    inst = gen_clustered(4, 60, seed=7)
    report = run_pipeline(inst.bodies, inst.curve, inst.p)
    bound = report.tau_star * (1 + math.log(60)) + 1
    assert len(report.transversal) <= bound
    assert report.flags["all_bodies_hit"]
    assert report.flags["duality_ok"]
    assert report.flags["rounding_feasible_exact"]
    assert not report.flags["condition_checked"]  # 60 exceeds the exact cap
    assert "condition_holds" not in report.flags
    assert report.p_effective == 4


def test_run_pipeline_checks_pairwise_condition_past_exact_cap():
    # For p = 2 the condition is an edge count, so n > 40 is still checked.
    inst = gen_pairwise(50)
    report = run_pipeline(inst.bodies, inst.curve, inst.p)
    assert report.flags["condition_checked"]
    assert report.flags["condition_holds"]


def test_run_pipeline_checks_the_condition_when_p_exceeds_the_bodies():
    # 42 bodies, past the exact cap, hold no 50 bodies at all, so the
    # condition holds trivially and is checked.
    inst = Instance(gen_clustered(3, 42, 1).bodies, p=50)
    report = run_pipeline(inst.bodies, inst.curve, inst.p)
    assert report.flags["condition_checked"] and report.flags["condition_holds"]
    assert verify_report(inst, report.to_dict()) == []


def inscribed(body_id: int, angles) -> ConvexBody:
    return ConvexBody.from_vertices(body_id, [(math.cos(a), math.sin(a)) for a in angles])


FANO_LINES = [(0, 1, 3), (1, 2, 4), (2, 3, 5), (3, 4, 6), (4, 5, 0), (5, 6, 1), (6, 0, 2)]


def fano(place) -> list[ConvexBody]:
    """PG(2,2)'s lines as triangles on seven evenly spaced circle points."""
    return [inscribed(i, [TWO_PI * place[v] / 7 for v in line])
            for i, line in enumerate(FANO_LINES)]


def three_bodies() -> Instance:
    # m = (0, 1, 1): the two weighted bodies do not meet, so no point holds
    # two copies, and body 0 carries no copy.
    return Instance([inscribed(0, (0.1, 0.3, 3.3, 5.0)), inscribed(1, (0.0, 0.3, 0.6)),
                     inscribed(2, (3.0, 3.3, 3.6))], p=3)


def test_run_pipeline_heavy_point_covers_a_copy():
    # PG(2,2) inscribed with its seven points reordered on the circle.
    bodies = fano((0, 1, 2, 4, 5, 3, 6))
    report = run_pipeline(bodies, UNIT_CIRCLE, 2)
    loads = candidate_classes(bodies).matrix() @ np.asarray(report.multiplicities)
    assert report.heavy_coverage > 0
    assert report.heavy_coverage == loads.max()
    assert report.flags["tau_epsilon_consistent"]


def test_run_pipeline_times_each_stage():
    inst = gallery7()
    report = run_pipeline(inst.bodies, inst.curve, inst.p)
    assert list(report.timings) == [
        "validate", "condition", "candidates", "lps", "rationalize", "heavy_point", "greedy"]
    assert report.to_dict()["stages"] == report.timings


def test_run_pipeline_heavy_point_with_no_meeting_copies():
    inst = three_bodies()
    report = run_pipeline(inst.bodies, inst.curve, inst.p)
    assert report.multiplicities == (0, 1, 1) and report.denominator == 1
    assert report.heavy_coverage >= 1
    assert report.flags["tau_epsilon_consistent"]
    assert verify_report(inst, report.to_dict()) == []


@pytest.mark.parametrize("name", ["three_bodies", "fano_reordered"])
def test_run_pipeline_gives_an_empty_rounding_one_copy_of_the_heaviest_body(monkeypatch, name):
    # rationalize's floor at D = max_denominator can round every weight to
    # 0, which only families past about 500 bodies reach: the multiset then
    # takes one copy of the body with the largest packing weight.
    real = pierce.pipeline.rationalize

    def all_zeros(weights, max_denominator, class_rows=None):
        return (0,) * len(weights), real(weights, max_denominator, class_rows=class_rows)[1]

    monkeypatch.setattr(pierce.pipeline, "rationalize", all_zeros)
    inst = _guard_instance(name)
    report = run_pipeline(inst.bodies, inst.curve, inst.p)
    heaviest = int(np.argmax(report.packing))
    assert report.multiplicities == tuple(int(j == heaviest) for j in range(len(inst.bodies)))
    assert report.multiset_size == report.heavy_coverage == 1
    assert verify_report(inst, report.to_dict()) == []


# Pinned transversal, tau_star, m and D of each family. The heavy point
# feeds none of them, so a change to it must leave them as they are.
# The transversal points are class representatives, each class's lowest
# candidate.
GUARD = {
    "gallery7": (
        ((-0.2997260998466961, -0.5711134774505473), (1.0, 0.0),
         (-0.5990311320975807, 0.19309642971379398)),
        2.142857142857143, (3, 3, 2, 2, 2, 2, 1), 7),
    "three_bodies": (
        ((0.9772788820250906, 0.07345119753531304), (-0.9371861618578371, -0.18944487717882913)),
        2.0, (0, 1, 1), 1),
    "fano": (
        ((-0.22252093395631423, 0.27903242548088025), (0.15398926418495196, -0.6746710485213225),
         (0.07941680184852384, 0.34794774335047157)),
        2.3333333333333335, (1, 1, 1, 1, 1, 1, 1), 3),
    "fano_reordered": (
        ((0.246979603717467, 0.0), (-0.9009688679024191, -0.433883739117558)),
        2.0, (0, 1, 1, 1, 0, 1, 0), 2),
}


def _guard_instance(name: str) -> Instance:
    if name == "gallery7":
        return gallery7()
    if name == "three_bodies":
        return three_bodies()
    return Instance(fano(range(7) if name == "fano" else (0, 1, 2, 4, 5, 3, 6)), p=2)


@pytest.mark.parametrize("name", sorted(GUARD))
def test_run_pipeline_pins_the_rounding_outputs(name):
    inst = _guard_instance(name)
    report = run_pipeline(inst.bodies, inst.curve, inst.p)
    transversal, tau_star, m, d = GUARD[name]
    assert np.allclose(report.transversal, transversal, rtol=0.0, atol=1e-12)
    assert report.tau_star == pytest.approx(tau_star, abs=1e-12)
    assert report.multiplicities == m and report.denominator == d
    assert verify_report(inst, report.to_dict()) == []


@pytest.mark.parametrize("name", ["clustered", "fano", "fano_reordered", "gallery7"])
def test_tau_star_and_classes_do_not_depend_on_body_order(name):
    # D, m, z and the transversal may move with the order: the LP vertex and
    # greedy's ties follow the body indices. tau* and the classes may not,
    # nor a class's representative, its lowest candidate, beyond the
    # rounding of a crossing computed from the other body's edge.
    inst = gen_clustered(4, 16, seed=0) if name == "clustered" else _guard_instance(name)
    n = len(inst.bodies)
    tau_star = run_pipeline(inst.bodies, inst.curve, inst.p).tau_star
    cc = candidate_classes(inst.bodies)
    classes = dict(zip(signatures(cc), cc.points))
    for order in (list(range(n))[::-1], np.random.default_rng(0).permutation(n).tolist()):
        bodies = [inst.bodies[i] for i in order]
        report = run_pipeline(bodies, inst.curve, inst.p)
        assert report.tau_star == pytest.approx(tau_star, abs=1e-9)
        cc = candidate_classes(bodies)
        relabelled = {frozenset(order[j] for j in sig): pt
                      for sig, pt in zip(signatures(cc), cc.points)}
        assert relabelled.keys() == classes.keys()
        for sig, pt in relabelled.items():
            assert np.allclose(pt, classes[sig], rtol=0.0, atol=TOL_GEOM), sig


def test_run_pipeline_filters_off_curve_bodies():
    far = box(7, 9.0, 9.0, 0.5)
    bodies = [arc_body(0, 0.2, 1.0), arc_body(1, 0.6, 1.4), far]
    report = run_pipeline(bodies, p=3)
    assert report.filtered == (2,)
    assert report.p_effective == 2
    assert report.flags["all_bodies_hit"]
    inside = containment_matrix(bodies, list(report.transversal))
    assert inside.any(axis=0).all()


def test_run_pipeline_names_a_shared_point_of_off_curve_bodies_once():
    # Two copies of one body off the curve share their vertex mean, and
    # the transversal, a set, holds it once.
    bodies = [arc_body(0, 0.2, 1.0), box(1, 9.0, 9.0, 0.5), box(2, 9.0, 9.0, 0.5)]
    inst = Instance(bodies, 4)
    report = run_pipeline(inst.bodies, inst.curve, inst.p)
    assert report.filtered == (1, 2)
    assert report.transversal[1:] == ((9.0, 9.0),)
    assert verify_report(inst, report.to_dict()) == []


def test_run_pipeline_keeps_a_body_within_tolerance_of_the_curve():
    # The triangle's bottom edge misses the circle by half of TOL_GEOM, so
    # its rows' slack puts the curve point (0, 1) in it, as in the square:
    # that one point hits both.
    y = 1.0 + 5e-10
    tri = ConvexBody.from_vertices(0, [(-1.0, y), (1.0, y), (0.0, 2.0)])
    sq = box(1, 0.0, 1.0, 0.5)
    bodies = [tri, sq]
    assert containment_matrix(bodies, [UNIT_CIRCLE.point_at(math.pi / 2)]).all()
    report = run_pipeline(bodies)
    assert report.filtered == ()
    assert len(report.transversal) == 1
    assert containment_matrix(bodies, list(report.transversal)).all()
    assert verify_report(Instance(bodies), report.to_dict()) == []


def test_run_pipeline_on_bodies_that_touch_the_curve_at_shared_vertices():
    # Two fans of three triangles, each fan touching the circle only at its
    # shared vertex and the triangles of a fan meeting only there: among any
    # three bodies two share a fan, and two points pierce all six.
    turns = (-1.0, -0.25, 0.5)
    bodies = [tangent_triangle(3 * g + k, angle, turn)
              for g, angle in enumerate((1.0, 1.0 + TWO_PI / 3)) for k, turn in enumerate(turns)]
    report = run_pipeline(bodies, UNIT_CIRCLE, 3)
    assert report.filtered == ()
    assert report.flags["condition_checked"] and report.flags["condition_holds"]
    assert report.tau_star == pytest.approx(2.0)
    assert len(report.transversal) == 2
    assert verify_report(Instance(bodies, 3), report.to_dict()) == []


# Axis-parallel rectangles: A and B share the edge x = 0, and C and D touch
# only at the corner (0.5, 0.5), inside the circle, so their arcs are apart.
RECTANGLES = {
    "A": (-2.0, 0.0, -2.0, 2.0), "B": (0.0, 2.0, -2.0, 2.0),
    "C": (0.5, 2.0, 0.5, 2.0), "D": (-2.0, 0.5, -2.0, 0.5),
}


@pytest.mark.parametrize("names, tau_star, transversal, holds", [
    ("AB", 1.0, ((0.0, -2.0),), True),
    ("CD", 1.0, ((0.5, 0.5),), False),
    ("ABCD", 2.0, ((0.0, -2.0), (0.5, 0.5)), False),
])
def test_run_pipeline_on_bodies_that_share_an_edge_or_a_corner(names, tau_star, transversal,
                                                               holds):
    bodies = [ConvexBody.from_vertices(i, [(x0, y0), (x1, y0), (x1, y1), (x0, y1)])
              for i, (x0, x1, y0, y1) in enumerate(RECTANGLES[k] for k in names)]
    report = run_pipeline(bodies)
    assert report.tau_star == tau_star
    assert report.transversal == transversal
    assert report.flags["condition_holds"] is holds
    assert report.flags["all_bodies_hit"]
    assert verify_report(Instance(bodies), report.to_dict()) == []


def test_identical_bodies_witness_at_one_angle():
    # four copies of one body: every pair meets at the same curve angle
    bodies = [ConvexBody.from_vertices(i, _ring_points(0.3, 2.0)) for i in range(4)]
    q = build_witness_list(bodies, UNIT_CIRCLE)
    assert len(q) == 6 and len(set(q.angles.tolist())) == 1
    assert q.pairs.tolist() == [[0, 1], [0, 2], [0, 3], [1, 2], [1, 3], [2, 3]]
    report = run_pipeline(bodies)
    assert report.tau_star == 1.0
    assert len(report.transversal) == 1
    assert verify_report(Instance(bodies), report.to_dict()) == []


def test_run_pipeline_errors():
    with pytest.raises(PipelineError):
        run_pipeline([])
    with pytest.raises(PipelineError):
        run_pipeline([box(0, 9.0, 9.0, 0.5)])


@pytest.mark.parametrize("p, error", [
    (np.int64(3), None),
    (2.5, "p must be an integer, not 2.5"),
    (0, "p must be at least 2"),
    (1, "p must be at least 2"),
    (True, "p must be at least 2"),
], ids=["int64", "float", "zero", "one", "true"])
def test_run_pipeline_reads_p_by_the_instance_rule(p, error):
    # run_pipeline once ran p = 0, 1 and True as 2, wrote a report for 2.5
    # that verify rejected, and wrote a numpy p_effective that json could
    # not dump. Now it takes p as Instance does, and raises as Instance does.
    inst = gallery7()
    if error:
        with pytest.raises(ValueError, match=f"^{error}$"):
            Instance(inst.bodies, p)
        with pytest.raises(ValueError, match=f"^{error}$"):
            run_pipeline(inst.bodies, inst.curve, p)
        return
    report = json.loads(json.dumps(run_pipeline(inst.bodies, inst.curve, p).to_dict()))
    assert report["p_effective"] == 3
    assert verify_report(Instance(inst.bodies, p), report) == []


def test_run_pipeline_deterministic_report():
    inst = gen_clustered(3, 12, seed=5)
    a = run_pipeline(inst.bodies, inst.curve, inst.p).to_dict()
    b = run_pipeline(inst.bodies, inst.curve, inst.p).to_dict()
    a.pop("stages")
    b.pop("stages")
    assert a == b


def test_report_json_round_trip():
    inst = gallery7()
    report = run_pipeline(inst.bodies, inst.curve, inst.p)
    blob = json.dumps(report.to_dict())
    back = json.loads(blob)
    assert back["D"] == report.denominator
    assert back["m"] == list(report.multiplicities)
    assert len(back["transversal"]) == len(report.transversal)
    assert back["flags"] == report.flags
