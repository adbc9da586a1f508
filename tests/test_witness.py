import itertools
import math
import re

import numpy as np
import pytest
from conftest import (
    arc_body,
    brute_spread,
    circ_distance,
    cover_is_valid,
    random_pair_list,
    reference_meet_angle,
    synthetic_list,
)
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from lemmas import (
    DegenerateQuadrupleError,
    build_witness_list,
    cover_width,
    coverage_rate_bound,
    expected_pierced,
    interval_cover,
    non_spread_ratio_bound,
    piercing_count_exact,
    piercing_point,
    is_spread_out_d,
    quadruple_pierces,
    separator_angles,
)
from pierce.geometry import (
    TWO_PI,
    UNIT_CIRCLE,
    body_curve_arcs,
    containment_matrix,
    meet_matrix,
)
from pierce.instances import gallery7, gen_clustered, gen_pairwise
from pierce.pipeline import candidate_classes
from pierce.witness import (
    WitnessList,
    is_spread_out,
    spread_threshold,
    witness_list,
)


def test_witness_list_sorting_and_occurrences():
    q = WitnessList([1.0, 2.0, 2.0], [(1, 2), (0, 1), (0, 2)], 3)
    assert q.angles.tolist() == [1.0, 2.0, 2.0]
    assert q.occurrences(2) == [0, 2]
    assert q.occurrences(0) == [1, 2]
    assert q.occurrences(9) == []
    # Angle tie broken by lexicographic color pair.
    with pytest.raises(ValueError, match="order"):
        WitnessList([1.0, 2.0, 2.0], [(1, 2), (0, 2), (0, 1)], 3)
    with pytest.raises(ValueError, match="order"):
        WitnessList([2.0, 1.0], [(0, 1), (1, 2)], 3)
    with pytest.raises(ValueError, match="at most once"):
        WitnessList([0.1, 0.2], [(0, 1), (0, 1)], 3)


@pytest.mark.parametrize("angles, pairs", [
    ([0.5], [(1, 0)]),             # colors out of order
    ([0.5], [(1, 1)]),             # a color paired with itself
    ([0.5], [(0, 3)]),             # color 3 of 3
    ([0.5], [(-1, 0)]),            # negative color
    ([-0.5], [(0, 1)]),            # angle below 0
    ([TWO_PI], [(0, 1)]),          # angle at 2*pi
    ([0.5, math.nan], [(0, 1), (0, 2)]),
    ([0.5, 0.6], [(0, 1)]),        # one angle too many
])
def test_witness_list_rejects_malformed_entries(angles, pairs):
    with pytest.raises(ValueError):
        WitnessList(angles, pairs, 3)


@pytest.mark.parametrize("angles, pairs, colors, error", [
    (["0.5"], [(0, 1)], 2, "witness angles must be numbers, not '0.5'"),
    ([True], [(0, 1)], 2, "witness angles must be numbers, not True"),
    (np.array(["0.5"]), [(0, 1)], 2, "witness angles must be numbers, not '0.5'"),
    # once truncated to the pair (0, 1)
    ([0.5], [(0.9, 1.7)], 2, "witness pairs must be integers, not 0.9"),
    ([0.5], [(0, 1.0)], 2, "witness pairs must be integers, not 1.0"),
    # a list's dtype (int64 here) hides the bool, so lists are read value by value
    ([0.5], [(True, 1)], 2, "witness pairs must be integers, not True"),
    ([0.5], [("0", 1)], 2, "witness pairs must be integers, not '0'"),
    ([0.5], np.array([[0.0, 1.0]]), 2, "witness pairs must be integers, not 0.0"),
    ([0.5], np.array([[False, True]]), 2, "witness pairs must be integers, not False"),
    ([0.5], [(0, 1)], 2.0, "witness colors must be an integer, not 2.0"),
    ([0.5], [(0, 1)], True, "witness colors must be an integer, not True"),
    ([0.5], [(0, 1)], "2", "witness colors must be an integer, not '2'"),
], ids=["str-angle", "bool-angle", "str-angle-array", "float-pair", "float-in-pair", "bool-in-pair",
        "str-in-pair", "float-pair-array", "bool-pair-array", "float-colors", "bool-colors",
        "str-colors"])
def test_witness_list_rejects_values_of_the_wrong_kind(angles, pairs, colors, error):
    with pytest.raises(ValueError, match=f"^{re.escape(error)}$"):
        WitnessList(angles, pairs, colors)


@pytest.mark.parametrize("angles, pairs, colors, error", [
    ([0.5], [(0, 10**30)], 3, f"witness pairs must fit in int64, not {10**30}"),
    ([0.5], [(0, 1)], 10**30, f"witness colors must fit in int64, not {10**30}"),
    ([10**400], [(0, 1)], 3, f"witness angles must fit in float64, not {10**400}"),
], ids=["pair", "colors", "angle"])
def test_witness_list_names_a_value_past_its_dtype(angles, pairs, colors, error):
    # Each once raised a bare OverflowError, from the cast or the range check.
    with pytest.raises(ValueError, match=f"^{re.escape(error)}$"):
        WitnessList(angles, pairs, colors)


def test_witness_list_orders_pairs_of_large_colors_exactly():
    # Once keyed as i * colors + j in int64, which wrapped: with 2**62 colors
    # (4, 5) had the key of (0, 5) and was read as a repeated pair.
    q = WitnessList([0.5, 0.5], [(0, 5), (4, 5)], 2**62)
    assert q.pairs.tolist() == [[0, 5], [4, 5]]
    with pytest.raises(ValueError, match="^witness entries must be in"):
        WitnessList([0.5, 0.5], [(4, 5), (0, 5)], 2**62)


def test_witness_list_takes_numpy_numbers_and_an_empty_list():
    q = WitnessList(np.array([0.5], dtype=np.float32), np.array([[0, 1]], dtype=np.int32),
                    np.int64(2))
    assert (q.angles.dtype, q.pairs.dtype, type(q.colors)) == (np.float64, np.intp, int)
    assert q.pairs.tolist() == [[0, 1]] and q.colors == 2
    assert WitnessList([1, np.float64(2.5)], [(np.int64(0), 1), (0, 2)], 3).angles.tolist() == [
        1.0, 2.5]
    empty = WitnessList([], [], 0)
    assert len(empty) == 0 and empty.pairs.shape == (0, 2)


@pytest.mark.parametrize("family", [
    lambda: gallery7().bodies,
    lambda: gen_pairwise(12, seed=3).bodies,
    lambda: gen_clustered(4, 16).bodies,
])
def test_unit_multiset_list_is_the_plain_list(family):
    bodies = family()
    arcs = body_curve_arcs(bodies)
    q = build_witness_list(bodies, UNIT_CIRCLE)
    unit = _replicated_list(arcs, [1] * len(bodies))
    for name in ("angles", "pairs", "colors"):
        np.testing.assert_array_equal(getattr(unit, name), getattr(q, name))
    # One entry per meeting pair i < j, in (angle, pair) order.
    ref = sorted((reference_meet_angle(arcs[i], arcs[j]), i, j)
                 for i, j in itertools.combinations(range(len(bodies)), 2)
                 if reference_meet_angle(arcs[i], arcs[j]) is not None)
    assert len(ref) > 0
    assert [(t, i, j) for t, (i, j) in zip(q.angles.tolist(), q.pairs.tolist())] == ref


def test_build_witness_list_single_meeting():
    a = arc_body(0, math.pi / 2, math.pi)
    b = arc_body(1, math.pi / 2, math.pi)
    q = build_witness_list([a, b], UNIT_CIRCLE)
    assert len(q) == 1
    assert q.angles[0] == pytest.approx(0.75 * math.pi, abs=1e-6)
    assert q.pairs[0].tolist() == [0, 1]


def test_build_witness_list_disjoint():
    bodies = [arc_body(0, 0.0, 0.5), arc_body(1, 1.0, 1.5), arc_body(2, 2.0, 2.5)]
    q = build_witness_list(bodies, UNIT_CIRCLE)
    assert len(q) == 0


def test_build_witness_list_sorted_weakly():
    rng = np.random.default_rng(3)
    bodies = []
    for i in range(8):
        lo = float(rng.uniform(0, TWO_PI))
        bodies.append(arc_body(i, lo, lo + float(rng.uniform(0.8, 2.5))))
    q = build_witness_list(bodies, UNIT_CIRCLE)
    angles = q.angles
    assert all(angles[k] <= angles[k + 1] for k in range(len(angles) - 1))
    pairs = [tuple(p) for p in q.pairs.tolist()]
    assert len(set(pairs)) == len(pairs)


def test_circ_distance():
    assert circ_distance(2, 9, 10) == 3
    assert circ_distance(4, 4, 10) == 0
    assert circ_distance(0, 5, 10) == 5
    assert circ_distance(9, 2, 10) == 3
    with pytest.raises(ValueError):
        circ_distance(0, 0, 0)


def test_thresholds_avoid_float_fuzz():
    # 0.1 * 30 is 3.0000000000000004 in binary floating point.
    assert spread_threshold(0.1, 30) == 3
    assert cover_width(0.1, 30) == 3
    assert spread_threshold(0.2, 40) == 8
    assert spread_threshold(0.027, 21) == 1
    assert cover_width(0.027, 21) == 0


def test_is_spread_out_examples():
    assert is_spread_out([0, 10, 20, 30], 40, 0.2)
    assert not is_spread_out([0, 10, 20], 40, 0.2)
    assert not is_spread_out([0, 1, 2, 3], 100, 0.1)
    assert not is_spread_out([], 100, 0.1)
    with pytest.raises(ValueError):
        is_spread_out([0, 1, 2, 3], 100, 0.0)


@pytest.mark.parametrize("occ, n, error", [
    # once read as [0, 3, 5, 8], which is spread out
    ([0.9, 3.2, 5.7, 8.1], 10, "occurrence index must be an integer, not 0.9"),
    # once parsed as integers
    (["1", "4"], 10, "occurrence index must be an integer, not '1'"),
    ([True, 4], 10, "occurrence index must be an integer, not True"),
    (np.array([1.0, 4.0]), 10, f"occurrence index must be an integer, not {np.float64(1.0)!r}"),
    ([1, 4], 10.0, "n must be an integer, not 10.0"),
    ([1, 4], True, "n must be an integer, not True"),
], ids=["floats", "strs", "bool", "float-array", "float-n", "bool-n"])
def test_is_spread_out_rejects_values_of_the_wrong_kind(occ, n, error):
    with pytest.raises(ValueError, match=f"^{re.escape(error)}$"):
        is_spread_out(occ, n, 0.2)


def test_is_spread_out_takes_numpy_integers():
    occ = [0, 3, 5, 8]
    assert is_spread_out(occ, 10, 0.2)
    assert is_spread_out(np.array(occ), np.int64(10), 0.2)
    assert is_spread_out([np.int32(v) for v in occ], 10, 0.2)
    assert not is_spread_out(np.array([], dtype=np.int64), 10, 0.2)


def test_is_spread_out_threshold_regression():
    # Minimum pairwise distance is exactly 3 = ceil(0.1 * 30); a naive
    # ceil(0.1 * 30) in floats would demand 4 and reject this.
    assert is_spread_out([0, 3, 10, 20], 30, 0.1)


def test_is_spread_out_against_exhaustive():
    rng = np.random.default_rng(5)
    for _ in range(300):
        n = int(rng.integers(4, 31))
        m = int(rng.integers(0, min(n, 12) + 1))
        occ = sorted(rng.choice(n, size=m, replace=False).tolist())
        alpha = float(rng.uniform(0.02, 0.45))
        assert is_spread_out(occ, n, alpha) == brute_spread(occ, n, alpha)
    # d = 3: six occurrences pairwise far apart on a line.
    for _ in range(200):
        n = int(rng.integers(6, 17))
        occ = sorted(rng.choice(n, size=int(rng.integers(0, n + 1)), replace=False).tolist())
        alpha = float(rng.uniform(0.02, 0.25))
        assert is_spread_out_d(occ, n, alpha, d=3) == brute_spread(occ, n, alpha, d=3)


def test_three_interval_cover_cluster():
    cover = interval_cover([0, 1, 2, 3], 100, 0.1)
    assert cover == [(0, 3)]
    assert cover_is_valid([0, 1, 2, 3], 100, 0.1, cover)


def test_three_interval_cover_spread_returns_none():
    assert interval_cover([0, 10, 20, 30], 40, 0.2) is None


def test_three_interval_cover_empty_color():
    assert interval_cover([], 10, 0.1) == []


def test_three_interval_cover_wraps():
    occ = [57, 58, 59, 0, 1, 29, 30, 31]
    cover = interval_cover(occ, 60, 0.1)
    assert cover is not None
    assert cover_is_valid(occ, 60, 0.1, cover)


def test_dichotomy_property():
    rng = np.random.default_rng(12)
    for _ in range(250):
        n = int(rng.integers(4, 31))
        universe = int(rng.integers(6, 12))
        if n > universe * (universe - 1) // 2:
            continue
        q = random_pair_list(rng, n, universe)
        alpha = float(rng.uniform(0.03, 0.12))
        for color in range(universe):
            occ = q.occurrences(color)
            spread = is_spread_out(occ, len(q), alpha)
            cover = interval_cover(occ, len(q), alpha)
            if spread:
                assert cover is None
            else:
                assert cover is not None
                assert cover_is_valid(occ, len(q), alpha, cover)


def test_interval_cover_takes_the_fewest_intervals():
    # Two tight groups that one interval of width 3 cannot both reach; in
    # the second, only the cover anchored at 10 joins 19 and 2 across the wrap.
    assert interval_cover([0, 1, 10, 11], 20, 0.15) == [(0, 1), (10, 11)]
    assert interval_cover([2, 10, 11, 19], 20, 0.15) == [(10, 11), (19, 2)]


def test_quadruple_pierces_enumeration():
    q = synthetic_list(8, (0, 2, 4, 6))
    count = sum(
        1 for quad in itertools.combinations(range(8), 4) if quadruple_pierces(q, quad, 0)
    )
    assert count == 16
    assert piercing_count_exact([0, 2, 4, 6], 8) == 16
    assert math.comb(8, 4) == 70


def test_quadruple_pierces_cases():
    q = synthetic_list(40, (0, 10, 20, 30))
    assert quadruple_pierces(q, (5, 15, 25, 35), 0)
    single = synthetic_list(12, (3,))
    assert all(
        not quadruple_pierces(single, quad, 0)
        for quad in itertools.combinations(range(12), 4)
    )
    with pytest.raises(ValueError):
        quadruple_pierces(q, (0, 1, 2), 0)
    with pytest.raises(ValueError):
        quadruple_pierces(q, (0, 1, 2, 40), 0)
    with pytest.raises(ValueError):
        quadruple_pierces(q, (0, 0, 1, 2), 0)


def test_piercing_count_exact_matches_enumeration():
    rng = np.random.default_rng(9)
    for _ in range(40):
        n = int(rng.integers(5, 14))
        m = int(rng.integers(1, min(n, 8) + 1))
        occ = sorted(rng.choice(n, size=m, replace=False).tolist())
        q = synthetic_list(n, occ)
        brute = sum(
            1 for quad in itertools.combinations(range(n), 4) if quadruple_pierces(q, quad, 0)
        )
        assert piercing_count_exact(occ, n) == brute


def test_separator_angles_midpoints():
    q = synthetic_list(4)
    # Entries at angles 0, pi/2, pi, 3pi/2; gap midpoints sit between them.
    ya, yb, yc, yd = separator_angles(q, (0, 1, 2, 3))
    assert ya == pytest.approx(1.75 * math.pi)
    assert yb == pytest.approx(0.25 * math.pi)
    assert yc == pytest.approx(0.75 * math.pi)
    assert yd == pytest.approx(1.25 * math.pi)


def test_piercing_point_symmetric():
    q = WitnessList(math.pi / 4 + np.arange(4) * math.pi / 2, [(k, k + 4) for k in range(4)], 8)
    z = piercing_point(UNIT_CIRCLE, q, (0, 1, 2, 3))
    assert z == pytest.approx((0.0, 0.0), abs=1e-12)


def test_piercing_point_chord_example():
    # Witness pairs hugging the target separators 0, pi/2, pi, 5pi/4.
    delta = 0.05
    targets = [0.0, math.pi / 2, math.pi, 1.25 * math.pi]
    angles, pairs = [], []
    for k, t in enumerate(targets):
        angles += [(t - delta) % TWO_PI, t + delta]
        pairs += [(2 * k, 2 * k + 8), (2 * k + 1, 2 * k + 9)]
    # The first witness wraps to the end of the circle.
    q = WitnessList(angles[1:] + angles[:1], pairs[1:] + pairs[:1], 16)
    z = piercing_point(UNIT_CIRCLE, q, (0, 2, 4, 6))
    assert z == pytest.approx((1.0 - math.sqrt(2.0), 0.0), abs=1e-12)
    assert math.hypot(*z) < 1.0


def test_piercing_point_degenerate():
    q = WitnessList([1.0] * 4, [(k, k + 4) for k in range(4)], 8)
    with pytest.raises(DegenerateQuadrupleError):
        piercing_point(UNIT_CIRCLE, q, (0, 1, 2, 3))


def test_piercing_soundness_random_instances():
    rng = np.random.default_rng(21)
    checked = 0
    for _ in range(30):
        k = int(rng.integers(4, 9))
        bodies = []
        for i in range(k):
            lo = float(rng.uniform(0, TWO_PI))
            bodies.append(arc_body(i, lo, lo + float(rng.uniform(1.0, 2.8))))
        q = build_witness_list(bodies, UNIT_CIRCLE)
        n = len(q)
        if n < 4:
            continue
        for quad in itertools.combinations(range(n), 4):
            hit = [c for c in range(k) if quadruple_pierces(q, quad, c)]
            if not hit:
                continue
            try:
                z = piercing_point(UNIT_CIRCLE, q, quad)
            except DegenerateQuadrupleError:
                continue
            assert containment_matrix([bodies[color] for color in hit], [z]).all()
            checked += len(hit)
    assert checked >= 1000


def test_expected_pierced_small():
    q = synthetic_list(8, (0, 2, 4, 6))
    assert expected_pierced(q) == pytest.approx(16.0 / 70.0)
    tiny = synthetic_list(3)
    assert expected_pierced(tiny) == 0.0


def _quadruples(n: int) -> np.ndarray:
    """Every increasing quadruple of range(n), in itertools.combinations order."""
    flat = itertools.chain.from_iterable(itertools.combinations(range(n), 4))
    return np.fromiter(flat, dtype=np.intp).reshape(-1, 4)


def _pierced_counts(q: WitnessList, quads: np.ndarray) -> np.ndarray:
    """Colors pierced by each row (a, b, c, d), a < b < c < d < N, of quads.

    The reference for quadruple_pierces over a whole list. With k(x) the
    number of a color's occurrences below entry index x and m their total,
    the color is pierced when each of [a, b), [b, c), [c, d) and the
    wrapping [d, a) holds an occurrence: k(a) < k(b) < k(c) < k(d) and
    either k(d) < m or k(a) > 0. Rows are compared in blocks.
    """
    present = np.zeros((q.colors, len(q) + 1), dtype=np.int64)
    for color in range(q.colors):
        present[color, np.asarray(q.occurrences(color), dtype=np.intp) + 1] = 1
    k = np.cumsum(present, axis=1)
    m = k[:, -1:]
    totals = np.zeros(len(quads), dtype=np.int64)
    for lo in range(0, len(quads), 4096):
        ka, kb, kc, kd = (k[:, col] for col in quads[lo:lo + 4096].T.astype(np.intp))
        hit = (ka < kb) & (kb < kc) & (kc < kd) & ((kd < m) | (ka > 0))
        totals[lo:lo + 4096] = hit.sum(axis=0)
    return totals


@st.composite
def _pierce_case(draw, n_lo, n_hi):
    """A witness list and quadruple rows for the pierced-count reference.

    Entries sit at evenly spaced angles. Most carry a pair from a small
    palette, so colors recur and their occurrences wrap past index 0; a few
    carry a color of their own, which occurs once. Rows always include ones
    that touch indices 0 and N - 1. Short lists get N^2 rows of their
    exhaustive enumeration (all of them below N = 8), long lists 200 sampled
    rows.
    """
    n = draw(st.integers(n_lo, n_hi))
    palette = next(p for p in range(2, n + 2) if p * (p - 1) // 2 >= n)
    pairs = list(itertools.combinations(range(palette), 2))
    picks = draw(st.permutations(range(len(pairs))))
    lonely = draw(st.sets(st.integers(0, n - 1), max_size=6))
    own = {k: palette + r for r, k in enumerate(sorted(lonely))}
    colors = [(k % palette, own[k]) if k in own else pairs[picks[k]] for k in range(n)]
    q = WitnessList(TWO_PI * np.arange(n) / n, colors, palette + len(own))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if n <= 60:
        every = _quadruples(n)
        rows = every[np.sort(rng.choice(len(every), min(len(every), n * n), replace=False))]
    else:
        rows = np.array([rng.choice(n, size=4, replace=False) for _ in range(200)])
        rows.sort(axis=1)
    edges = [(0, 1, 2, n - 1), (0, n - 3, n - 2, n - 1), (0, 1, n - 2, n - 1)]
    return q, np.vstack([rows, np.array(edges, dtype=rows.dtype)])


@settings(max_examples=40, deadline=None)
@given(st.one_of(_pierce_case(4, 60), _pierce_case(65, 120)))
def test_pierced_counts_match_quadruple_pierces(case):
    q, quads = case
    got = _pierced_counts(q, quads)
    for row, count in zip(quads.tolist(), got.tolist()):
        assert count == sum(quadruple_pierces(q, row, c) for c in range(q.colors)), row


def _replicated_list(arcs, m) -> WitnessList:
    """The multiset's witness list with every copy a color of its own.

    Copy a of body i and copy b of body j meet at the bodies' meet angle,
    and two copies of body i at meet_angle(arcs[i], arcs[i]), a point of its
    own arcs.
    """
    copies = [arcs[i] for i, w in enumerate(m) for _ in range(w)]
    return witness_list(copies, meet_matrix(copies))


@st.composite
def _weighted_family(draw):
    """Arc bodies with multiplicities up to 3. Arc ends sit on a grid of
    sixteenths of the circle, so distinct pairs often meet at one angle."""
    k = draw(st.integers(2, 6))
    bodies = []
    for i in range(k):
        lo = draw(st.integers(0, 15)) * TWO_PI / 16
        bodies.append(arc_body(i, lo, lo + draw(st.integers(1, 7)) * TWO_PI / 16))
    m = draw(st.lists(st.integers(0, 3), min_size=k, max_size=k).filter(any))
    return bodies, m


@settings(max_examples=200, deadline=None)
@given(_weighted_family())
def test_heaviest_class_dominates_the_replicated_list(case):
    # Every copy a quadruple of the copies' list pierces contains the chords'
    # crossing, so some class holds at least that many copies.
    bodies, m = case
    ref = _replicated_list(body_curve_arcs(bodies), m)
    assume(4 <= len(ref) <= 60)
    # Every quadruple of the copies' list, gap separators included.
    best_pierced = int(_pierced_counts(ref, _quadruples(len(ref))).max())
    loads = candidate_classes(bodies).matrix() @ np.asarray(m)
    assert loads.max() >= best_pierced


def test_coverage_rate_bound():
    v = coverage_rate_bound(0.027)
    assert v == pytest.approx(6.346e-5, rel=1e-3)
    assert v >= 1.0 / 15800.0
    grid = [0.022 + k * 1e-4 for k in range(101)]
    best = max(grid, key=coverage_rate_bound)
    assert abs(best - 0.027) <= 5e-3
    assert coverage_rate_bound(1e-6) < 1e-12
    with pytest.raises(ValueError):
        coverage_rate_bound(0.34)
    with pytest.raises(ValueError):
        coverage_rate_bound(0.0)


def test_non_spread_ratio_bound():
    assert non_spread_ratio_bound(0.5) == pytest.approx(0.8108, abs=1e-4)
    assert non_spread_ratio_bound(0.5) <= 1 - 0.5 / 4
    assert non_spread_ratio_bound(1 - 1e-9) == pytest.approx(0.5882, abs=1e-3)
    assert non_spread_ratio_bound(1 - 1e-9) <= 0.75
    for gamma in np.linspace(1e-3, 1 - 1e-3, 1000):
        g = float(gamma)
        assert non_spread_ratio_bound(g) <= 1 - g / 4
    with pytest.raises(ValueError):
        non_spread_ratio_bound(0.0)
    with pytest.raises(ValueError):
        non_spread_ratio_bound(1.0)
