"""Higher-dimensional curves: tuple sizes, crossing counts, generalized spread."""

import math
from fractions import Fraction

import numpy as np
import pytest

from pierce.highdim import (
    CARATHEODORY,
    MOMENT,
    CurveSpecD,
    curve_point,
    hyperplane_crossings,
    interval_cover_general,
    separator_tuple_size,
    spread_out_general,
)
from pierce.witness import cover_width, interval_covers, is_spread_out

from conftest import synthetic_list


def test_separator_tuple_size_table():
    assert [separator_tuple_size(d) for d in range(2, 7)] == [4, 5, 11, 13, 22]
    with pytest.raises(ValueError):
        separator_tuple_size(1)


def test_separator_tuple_size_parity_formula():
    for d in range(2, 21):
        expect = (d * d + d + 2) / 2 if d % 2 == 0 else (d * d + 1) / 2
        assert separator_tuple_size(d) == expect


def test_curve_spec_validation():
    CurveSpecD(MOMENT, 3)
    CurveSpecD(CARATHEODORY, 4)
    with pytest.raises(ValueError):
        CurveSpecD(CARATHEODORY, 3)
    with pytest.raises(ValueError):
        CurveSpecD(MOMENT, 1)
    with pytest.raises(ValueError):
        CurveSpecD("spiral", 2)


def test_curve_point_examples():
    assert curve_point(CurveSpecD(MOMENT, 3), 2.0) == (2.0, 4.0, 8.0)
    x, y = curve_point(CurveSpecD(CARATHEODORY, 2), math.pi / 2)
    assert x == pytest.approx(1.0)
    assert y == pytest.approx(0.0, abs=1e-12)
    assert curve_point(CurveSpecD(CARATHEODORY, 4), 0.0) == (0.0, 1.0, 0.0, 1.0)


def test_hyperplane_crossings_validation():
    spec = CurveSpecD(MOMENT, 3)
    with pytest.raises(ValueError):
        hyperplane_crossings(spec, (0.0, 0.0, 0.0), 1.0)
    with pytest.raises(ValueError):
        hyperplane_crossings(spec, (1.0, 0.0), 0.0)


def test_moment_crossings_simple():
    spec = CurveSpecD(MOMENT, 3)
    # first coordinate zero: the polynomial is t, one simple root
    assert hyperplane_crossings(spec, (1.0, 0.0, 0.0), 0.0) == 1
    # t^2 = 4 crosses twice
    assert hyperplane_crossings(spec, (0.0, 1.0, 0.0), 4.0) == 2
    # t^2 = -1 never
    assert hyperplane_crossings(spec, (0.0, 1.0, 0.0), -1.0) == 0
    # repeated root counted once: t^2 - 2t + 1 = (t-1)^2
    assert hyperplane_crossings(CurveSpecD(MOMENT, 2), (-2.0, 1.0), -1.0) == 1


def test_moment_crossings_match_constructed_roots():
    # build polynomials from known distinct integer roots and recover them
    rng = np.random.default_rng(3)
    for _ in range(60):
        d = int(rng.integers(2, 7))
        n_roots = int(rng.integers(1, d + 1))
        roots = rng.choice(np.arange(-8, 9), size=n_roots, replace=False)
        coeffs = [Fraction(1)]
        for r in roots:
            coeffs = [Fraction(0)] + coeffs
            for i in range(len(coeffs) - 1):
                coeffs[i] -= Fraction(int(r)) * coeffs[i + 1]
        # coeffs[0] + coeffs[1] t + ... ; the hyperplane carries t^1..t^d
        normal = [float(coeffs[k]) if k < len(coeffs) else 0.0 for k in range(1, d + 1)]
        offset = -float(coeffs[0])
        spec = CurveSpecD(MOMENT, d)
        assert hyperplane_crossings(spec, normal, offset) == n_roots
        # restricting the window below the smallest root finds nothing
        assert hyperplane_crossings(spec, normal, offset, t_range=(-200, -100)) == 0


def test_moment_crossings_never_exceed_dimension():
    rng = np.random.default_rng(11)
    for d in range(2, 7):
        spec = CurveSpecD(MOMENT, d)
        for _ in range(100):
            normal = rng.integers(-9, 10, size=d)
            if not normal.any():
                normal[0] = 1
            offset = float(rng.integers(-9, 10))
            assert hyperplane_crossings(spec, [float(v) for v in normal], offset) <= d


def test_closed_curve_crossings():
    circle = CurveSpecD(CARATHEODORY, 2)
    # the line y = 0 cuts the unit circle twice
    assert hyperplane_crossings(circle, (0.0, 1.0), 0.0) == 2
    # the line y = 2 misses it
    assert hyperplane_crossings(circle, (0.0, 1.0), 2.0) == 0
    rng = np.random.default_rng(7)
    for d in (2, 4, 6):
        spec = CurveSpecD(CARATHEODORY, d)
        for _ in range(80):
            normal = rng.normal(size=d)
            offset = float(rng.normal())
            count = hyperplane_crossings(spec, normal.tolist(), offset)
            assert count <= d
            assert count % 2 == 0  # a closed curve leaves as often as it enters


def test_spread_out_general_matches_planar():
    rng = np.random.default_rng(19)
    checked = 0
    for _ in range(300):
        n = int(rng.integers(8, 31))
        count = int(rng.integers(1, n + 1))
        positions = sorted(rng.choice(n, size=count, replace=False).tolist())
        alpha = float(rng.uniform(0.02, 0.3))
        q = synthetic_list(n, target_positions=positions)
        planar = is_spread_out(q, 0, alpha)
        general = spread_out_general(positions, n, alpha, d=2)
        assert planar == general
        checked += 1
    assert checked == 300


def test_spread_out_general_linear_examples():
    # d=3: tuple size 5, so six linearly separated occurrences are needed
    occ = [0, 10, 20, 30, 40, 50]
    assert spread_out_general(occ, 60, 0.1, d=3)
    assert not spread_out_general(occ[:5], 60, 0.1, d=3)
    # circular wrap helps even d but not odd d
    ends = [0, 1, 2, 3, 4, 59]
    assert not spread_out_general(ends, 60, 0.08, d=3)


def test_spread_out_general_validation():
    with pytest.raises(ValueError):
        spread_out_general([0], 10, 0.0, d=2)
    with pytest.raises(ValueError):
        spread_out_general([10], 10, 0.1, d=2)
    with pytest.raises(ValueError):
        spread_out_general([0], 0, 0.1, d=2)


def test_general_dichotomy_small_instances():
    # exactly one of spread / short cover, for both parities; the circular
    # side is only a complement while j points at the threshold distance fit
    # on the cycle, so alpha is drawn inside that regime
    rng = np.random.default_rng(23)
    for d in (2, 3, 4):
        j = separator_tuple_size(d)
        limit = j if d % 2 == 1 else j - 1
        for _ in range(250):
            n = int(rng.integers(6, 31))
            count = int(rng.integers(1, n + 1))
            occ = sorted(rng.choice(n, size=count, replace=False).tolist())
            if d % 2 == 1:
                alpha_hi = 0.25
            else:
                alpha_hi = min(0.25, (n // j) / n)
                if alpha_hi <= 0.02:
                    continue
            alpha = float(rng.uniform(0.02, alpha_hi))
            spread = spread_out_general(occ, n, alpha, d)
            cover = interval_cover_general(occ, n, alpha, d)
            assert spread == (cover is None)
            if cover is not None:
                assert len(cover) <= limit
                width = cover_width(alpha, n)
                for lo, hi in cover:
                    span = (hi - lo) % n if d % 2 == 0 else hi - lo
                    assert 0 <= span <= width
                for pos in occ:
                    assert any(
                        interval_covers(iv, pos, n)
                        if d % 2 == 0
                        else iv[0] <= pos <= iv[1]
                        for iv in cover
                    )


def test_dichotomy_breaks_outside_regime():
    # four points pairwise >= 6 cannot fit on a 22-cycle, so this dense set
    # is not spread out, yet no three width-5 intervals cover it either;
    # the cover probe reports None rather than inventing a wide cover
    occ = [1, 2, 4, 6, 7, 8, 9, 11, 12, 13, 14, 15, 16, 17, 18, 19]
    alpha = 0.2381
    assert not spread_out_general(occ, 22, alpha, d=2)
    assert interval_cover_general(occ, 22, alpha, d=2) is None

