"""Higher-dimensional curves: tuple sizes, crossing counts, and the spread /
cover dichotomy beyond the plane."""

import hashlib
import math
from fractions import Fraction

import numpy as np
import pytest
import sympy
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from pierce.geometry import _finite_floats
from pierce.highdim import (
    CARATHEODORY,
    MOMENT,
    CurveSpecD,
    _closed_basis,
    _pseudo_rem,
    _sturm_chain,
    _trim,
    hyperplane_crossings,
)
from conftest import cover_is_valid, reference_sturm_chain
from lemmas import curve_point, interval_cover, is_spread_out_d, separator_tuple_size


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


@pytest.mark.parametrize("kind, d", [
    (CARATHEODORY, 4.0), (MOMENT, 3.0), (MOMENT, "3"), (CARATHEODORY, "4"), (MOMENT, True),
    (MOMENT, np.timedelta64(4)),
])
def test_curve_spec_takes_an_integer_dimension(kind, d):
    # A float d would reach _closed_basis and fail there with a bare
    # TypeError; a str d would fail the comparison with one.
    with pytest.raises(ValueError, match=r"^d must be an integer, not "):
        CurveSpecD(kind, d)


@pytest.mark.parametrize("d", [np.int64(4), np.int32(4), np.uint8(4)])
@pytest.mark.parametrize("kind, crossings", [(MOMENT, 2), (CARATHEODORY, 4)])
def test_curve_spec_reads_a_numpy_integer_as_an_int(kind, crossings, d):
    spec = CurveSpecD(kind, d)
    assert type(spec.d) is int and spec == CurveSpecD(kind, 4)
    # t^4 = 1/2 on the moment curve, cos 2t = 1/2 on the closed one
    assert hyperplane_crossings(spec, [0.0, 0.0, 0.0, 1.0], 0.5) == crossings


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
    with pytest.raises(ValueError, match="normal"):
        hyperplane_crossings(spec, (10**400, 1, 1), 0.0)
    nan, inf = float("nan"), float("inf")
    for kind, d in ((MOMENT, 2), (CARATHEODORY, 2)):
        spec = CurveSpecD(kind, d)
        for normal, offset, bad in [
            ((1.0, nan), 0.0, "normal"),
            ((inf, 1.0), 0.0, "normal"),
            ((1.0, -inf), 0.0, "normal"),
            ((1.0, 1.0), nan, "offset"),
            ((1.0, 1.0), inf, "offset"),
            # integers too large for a float
            ((10**400, 1), 0.0, "normal"),
            ((1.0, 1.0), 10**400, "offset"),
        ]:
            with pytest.raises(ValueError, match=bad):
                hyperplane_crossings(spec, normal, offset)


@pytest.mark.parametrize("normal, offset, bad", [
    (("1", "0"), "0", "normal"),
    ((1, 0), "0", "offset"),
    ((True, 0), 0, "normal"),
    ((1, 0), False, "offset"),
    ((np.timedelta64(1), 1.0), 0, "normal"),
])
def test_hyperplane_crossings_reject_strings_and_bools(normal, offset, bad):
    # float() parses each of these, but they are not numbers.
    with pytest.raises(ValueError, match=f"hyperplane {bad} must be numbers"):
        hyperplane_crossings(CurveSpecD(MOMENT, 2), normal, offset)


def _first_input_fault(d, normal, offset) -> str | None:
    """The message of the first fault in a normal and offset, by
    _finite_floats and the other checks, in the order the arguments are
    checked: the normal's values, its length, that it is nonzero, then the
    offset.  None when there is none."""
    try:
        coeffs = _finite_floats(normal, "hyperplane normal")
        if len(coeffs) != d:
            return "normal length must match the dimension"
        if not any(coeffs):
            return "hyperplane normal must be nonzero"
        _finite_floats((offset,), "hyperplane offset")
    except ValueError as exc:
        return str(exc)
    return None


# Ints and floats of every kind, numpy's too, and what _finite_floats
# rejects: bools, numeric strings, None, NaN, +-inf, ints past float range
# and np.timedelta64.
_input_value = st.one_of(
    st.integers(-9, 9),
    st.floats(),
    st.sampled_from([10**400, -10**400, True, False, "1", "nan", None,
                     np.float64("inf"), np.float32("nan"), np.bool_(True), np.timedelta64(1, "s")]),
    st.builds(np.float64, st.floats(-1e3, 1e3)),
    st.builds(np.float32, st.floats(-1e3, 1e3, width=32)),
    st.builds(np.int64, st.integers(-9, 9)),
)


@st.composite
def crossing_inputs(draw):
    """d (2-4), a normal of d values, of d + 1 a tenth of the time, and an
    offset; ints half the time, so that many inputs are valid."""
    d = draw(st.integers(2, 4))
    value = st.integers(-9, 9) | _input_value
    size = d + draw(st.sampled_from([0] * 9 + [1]))
    return d, draw(st.lists(value, min_size=size, max_size=size)), draw(value)


@settings(max_examples=300, deadline=None)
@given(crossing_inputs())
@example((2, [float("nan"), "1"], 0.0))  # a wrong type is named before a non-finite value
@example((2, ["1", 10**400], 0.0))  # and a value past float range before a wrong type
@example((2, [0, 0.0], float("nan")))  # a zero normal is named before the offset
@example((2, [1, 2, 3], "1"))  # as is a wrong length
def test_hyperplane_crossings_take_what_finite_floats_takes(case):
    # The one input pass accepts and rejects as the checks do, with their
    # messages, and an accepted input counts as its floats do.
    d, normal, offset = case
    fault = _first_input_fault(d, normal, offset)
    spec = CurveSpecD(MOMENT, d)
    if fault is not None:
        with pytest.raises(ValueError) as info:
            hyperplane_crossings(spec, normal, offset)
        assert str(info.value) == fault
    else:
        floats = [float(v) for v in normal]
        assert hyperplane_crossings(spec, normal, offset) == hyperplane_crossings(
            spec, floats, float(offset))


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


def test_moment_crossings_count_repeated_roots_once():
    # Products of (t - r)^k with distinct integer roots r, a scale and maybe
    # (1 + t^2)^j, which has no real root.  Their Sturm chains end at a
    # non-constant gcd(p, p'), and each root counts once however often it
    # repeats.
    rng = np.random.default_rng(29)
    cases = [({1: 2, -2: 3}, 1, 0)]  # (t - 1)^2 (t + 2)^3
    for _ in range(400):
        roots = rng.choice(np.arange(-3, 4), size=int(rng.integers(1, 4)), replace=False)
        cases.append(({int(r): int(rng.integers(1, 4)) for r in roots},
                      int(rng.choice([-3, -1, 1, 2])), int(rng.integers(0, 3))))
    for roots, scale, circles in cases:
        poly = [scale]
        for r, k in roots.items():
            for _ in range(k):
                poly = _times(poly, [-r, 1])
        for _ in range(circles):
            poly = _times(poly, [1, 0, 1])
        d = max(2, len(poly) - 1)
        normal = [float(c) for c in poly[1:]] + [0.0] * (d + 1 - len(poly))
        assert hyperplane_crossings(CurveSpecD(MOMENT, d), normal, -float(poly[0])) == len(roots)


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


T = sympy.Symbol("t")


def _sympy_roots(coeffs) -> int:
    """Distinct real roots of sum coeffs[i] t^i on the line."""
    poly = sympy.Poly([sympy.Rational(c) for c in reversed(coeffs)], T, domain="QQ")
    return int(poly.count_roots())


def _times(p, q):
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


@st.composite
def moment_inputs(draw):
    """Coefficients (constant first) of degree 1-8.

    Half are products of (t - r)^k, often with repeated roots, times a scale
    and maybe t^2 + c.  The other half have arbitrary float coefficients,
    such as the non-dyadic 0.1.
    """
    if draw(st.booleans()):
        coeffs = [Fraction(draw(st.sampled_from([1, -1, 2, -3, 0.5])))]
        for r, k in draw(st.lists(st.tuples(st.integers(-6, 6), st.integers(1, 3)),
                                  min_size=1, max_size=3)):
            for _ in range(k):
                coeffs = _times(coeffs, [Fraction(-r, 2), Fraction(1)])
        if draw(st.booleans()):
            coeffs = _times(coeffs, [Fraction(draw(st.integers(1, 3))), 0, 1])
        assume(len(coeffs) <= 9)
        coeffs = [float(c) for c in coeffs]
    else:
        value = st.sampled_from([0.0, 0.1, -0.3, 1 / 3, 2.5, -7.0]) | st.floats(
            -10, 10, allow_nan=False, allow_subnormal=False)
        coeffs = draw(st.lists(value, min_size=2, max_size=9))
        assume(any(c != 0.0 for c in coeffs[1:]))
    return coeffs


@settings(max_examples=200, deadline=None)
@given(moment_inputs())
# double roots: t^2 (1 - 2t) and t^2 (3 + t^4); then non-dyadic coefficients
@example([0.0, 0.0, 1.0, -2.0])
@example([0.0, 0.0, 3.0, 0.0, 0.0, 0.0, 1.0])
@example([-0.1, 0.1, 0.1])
def test_moment_crossings_match_sympy(coeffs):
    d = max(2, len(coeffs) - 1)
    normal = coeffs[1:] + [0.0] * (d + 1 - len(coeffs))
    spec = CurveSpecD(MOMENT, d)
    assert hyperplane_crossings(spec, normal, -coeffs[0]) == _sympy_roots(coeffs)


U = sympy.Symbol("u", real=True)


def _sympy_closed_count(d, normal, offset) -> int:
    """Distinct common points of the closed curve and the hyperplane, by sympy:
    real roots of the composition in u = tan(t/2), cleared of (1 + u^2)^(d/2),
    plus one when t = pi (u = infinity) lies on the hyperplane."""
    a = [sympy.Rational(c) for c in normal]
    b = sympy.Rational(offset)
    f = -b
    for k in range(1, d // 2 + 1):
        # e^(ikt) = (1 + iu)^(2k) / (1 + u^2)^k
        re, im = sympy.expand((1 + sympy.I * U) ** (2 * k)).as_real_imag()
        f += (a[2 * k - 2] * im + a[2 * k - 1] * re) / (1 + U**2) ** k
    poly = sympy.Poly(sympy.numer(sympy.together(f)), U)
    roots = int(poly.count_roots()) if poly.degree() > 0 else 0
    at_pi = -b + sum(a[2 * k - 1] * sympy.cos(k * sympy.pi) for k in range(1, d // 2 + 1))
    return roots + int(at_pi == 0)


@st.composite
def closed_inputs(draw):
    """Dimension 2, 4 or 6, a nonzero normal and an offset.

    Small values like 1 and 0.5 make tangencies and the point t = pi common;
    a third of the offsets are the composition's value at t = pi, so the
    u-polynomial drops degree.
    """
    d = draw(st.sampled_from([2, 4, 6]))
    value = st.sampled_from([0.0, 1.0, -1.0, 0.5, 2.0, 0.1]) | st.floats(
        -4, 4, allow_nan=False, allow_subnormal=False)
    normal = draw(st.lists(value, min_size=d, max_size=d))
    assume(any(c != 0.0 for c in normal))
    at_pi = sum(normal[2 * k - 1] * (-1) ** k for k in range(1, d // 2 + 1))
    offset = draw(value | st.just(at_pi))
    return d, normal, offset


@settings(max_examples=100, deadline=None)
@given(closed_inputs())
@example((2, [0.0, 1.0], -1.0))  # cos t = -1: the constant 2, common at t = pi only
@example((4, [0.0, 0.0, 1.0, 0.0], 0.0))  # sin 2t = 0, degree drop
def test_closed_curve_counts_match_sympy(case):
    d, normal, offset = case
    spec = CurveSpecD(CARATHEODORY, d)
    assert hyperplane_crossings(spec, normal, offset) == _sympy_closed_count(d, normal, offset)


def test_crossings_match_sympy_beyond_the_ladder():
    # The bench ladder stops at d = 8; these degrees lengthen the chain and
    # grow its integers.  Moment: normal floats, and products of (t - r/2)^k
    # (repeated roots) times a 1 + c t^2 without real roots.
    # Closed: normal floats, a third of the offsets the composition at t = pi,
    # so that the u-polynomial drops degree.
    rng = np.random.default_rng(48)
    for d in (10, 12, 16):
        for j in range(8):
            if j % 2:
                coeffs = rng.normal(size=d + 1).tolist()
            else:
                coeffs = [Fraction(1), Fraction(0), Fraction(int(rng.integers(1, 4)))]
                while len(coeffs) <= d:
                    r = Fraction(int(rng.integers(-6, 7)), 2)
                    for _ in range(min(int(rng.integers(1, 4)), d + 1 - len(coeffs))):
                        coeffs = _times(coeffs, [-r, Fraction(1)])
                coeffs = [float(c) for c in coeffs]
            spec = CurveSpecD(MOMENT, d)
            assert hyperplane_crossings(spec, coeffs[1:], -coeffs[0]) == _sympy_roots(coeffs)
    for d in (8, 12):
        for j in range(6):
            # multiples of 2^-10, so that the offset at t = pi is exact
            normal = (np.round(rng.normal(size=d) * 1024) / 1024).tolist()
            offset = float(rng.normal())
            if j % 3 == 0:
                offset = sum(normal[2 * k - 1] * (-1) ** k for k in range(1, d // 2 + 1))
            spec = CurveSpecD(CARATHEODORY, d)
            assert hyperplane_crossings(spec, normal, offset) == _sympy_closed_count(d, normal, offset)


_coefficient = st.integers(-3, 3) | st.integers(-2**60, 2**60)


@st.composite
def integer_polys(draw):
    """Integer polynomials of degree 1-8, leading coefficient of either sign.

    Half have coefficients small (so that the top of a chain step cancels)
    or up to 2^60.  The other half are products of t - r, t^2 + c and
    t^k + 1, whose chains end at a non-constant gcd(p, p') or take steps
    of degree gap two or more.
    """
    if draw(st.booleans()):
        n = draw(st.integers(1, 8))
        return draw(st.lists(_coefficient, min_size=n, max_size=n)) + [draw(_coefficient.filter(bool))]
    poly = [draw(st.sampled_from([1, -1, 2, -3]))]
    factor = (st.builds(lambda r: [-r, 1], st.integers(-3, 3))
              | st.builds(lambda c: [c, 0, 1], st.integers(-2, 2))
              | st.builds(lambda k: [1] + [0] * (k - 1) + [1], st.integers(3, 5)))
    for f in draw(st.lists(factor, min_size=1, max_size=4)):
        poly = [int(c) for c in _times(poly, f)]
    assume(len(poly) <= 9)
    return poly


def _assert_subresultant_chain(p):
    """_sturm_chain(p) is the subresultant chain: the same signs as the
    primitive reference chain, +- sympy's subresultants, and exact divisions."""
    chain = list(_sturm_chain(p))
    reference = reference_sturm_chain(p)
    # Each member over its positive content is the primitive member: the two
    # chains differ by positive scales, which leave every sign as it is.
    assert chain[:2] == reference[:2]
    assert [[c // math.gcd(*m) for c in m] for m in chain[2:]] == reference[2:]
    poly = sympy.Poly(p[::-1], T)
    subresultants = [[int(c) for c in q.all_coeffs()[::-1]]
                     for q in sympy.subresultants(poly, poly.diff(T))]
    assert len(chain) == len(subresultants)
    assert all(m in (s, [-c for c in s]) for m, s in zip(chain, subresultants))
    # Every division is exact: each pseudo-remainder is -g h^gap times the
    # next member, and g^gap / h^(gap - 1) leaves no remainder.
    g = h = 1
    for a, b, c in zip(chain, chain[1:], chain[2:]):
        gap = len(a) - len(b)
        assert _pseudo_rem(a, b) == [-g * h**gap * x for x in c]
        g = abs(b[-1])
        h, left = divmod(g**gap, h ** (gap - 1))
        assert left == 0


@settings(max_examples=200, deadline=None)
@given(integer_polys())
@example([1, 2, 1])  # (t + 1)^2 by p' = 2t + 2: no remainder
@example([5, 0, 1])  # the first step's top cancels
@example([1, 0, 0, 0, 1])  # t^4 + 1, whose first remainder is a constant
@example([0, 1, 0, 0, 0, 1])  # t^5 + t: p' by the remainder -t, a degree gap of 3
@example([-2**60, 3, -2**60])
@example([2, 0, 0, -3, 0, 0, 1])  # (t^3 - 1)(t^3 - 2): a gap of 2 after the first step
def test_sturm_chain_is_the_reference_chain_on_drawn_polynomials(p):
    _assert_subresultant_chain(p)


def _dyadic_integers(values: list[float]) -> list[int]:
    # The floats times their common power-of-two denominator.
    ratios = [v.as_integer_ratio() for v in values]
    scale = max(den for _, den in ratios)
    return [num * (scale // den) for num, den in ratios]


def _chain_polys():
    """2,000 seeded moment polynomials (d 2-8; half small integers, half
    normal floats), 300 closed-curve polynomials in u (d 2, 4, 6) and
    products of repeated roots such as t^2 (1 - 2t)."""
    rng = np.random.default_rng(5)
    polys = []
    for j in range(2000):
        d = 2 + j % 7
        if j % 2:
            data = [float(v) for v in rng.integers(-9, 10, size=d + 1)]
        else:
            data = rng.normal(size=d + 1).tolist()
        polys.append(_trim(_dyadic_integers(data)))
    for j in range(300):
        d = (2, 4, 6)[j % 3]
        weights = _dyadic_integers(rng.normal(size=d + 1).tolist())
        polys.append(_trim([sum(w * c for w, c in zip(weights, column))
                            for column in _closed_basis(d)]))
    for roots in [(1, 1), (0, 0), (1, 1, 1, -2, -2), (0.5, 0.5, -3, -3, -3, 2), (2, 2, 2, 2)]:
        poly = [Fraction(1)]
        for r in roots:
            poly = _times(poly, [Fraction(-r), Fraction(1)])
        polys.append(_dyadic_integers([float(c) for c in poly]))
    # t^2 (1 - 2t), t^2 (3 + t^4) and (1 + t^2)^2; t^5 + t, whose chain takes
    # a gap of 3, and (t^3 - 1)(t^3 - 2)(t^3 + 1), in every third power alone
    polys += [[0, 0, 1, -2], [0, 0, 3, 0, 0, 0, 1], [1, 0, 2, 0, 1], [0, 1, 0, 0, 0, 1],
              [2, 0, 0, -1, 0, 0, -2, 0, 0, 1]]
    return [p for p in polys if len(p) >= 2]


def test_sturm_chain_is_the_reference_chain():
    for p in _chain_polys():
        _assert_subresultant_chain(p)


def _golden_crossing_inputs():
    """3,010 moment inputs (d 2-8) and 300 closed ones (d 2, 4, 6), seeded.

    Two thirds of the moment data are small integers, which make repeated
    roots and degree gaps in the chain common; the rest are normal floats.
    A fifth of the closed offsets are the composition at t = pi, so the
    u-polynomial drops degree.
    """
    rng = np.random.default_rng(25)
    cases = []
    for d in range(2, 9):
        for j in range(430):
            if j % 3:
                normal = [int(v) for v in rng.integers(-9, 10, size=d)]
                offset = int(rng.integers(-9, 10))
            else:
                normal, offset = rng.normal(size=d).tolist(), float(rng.normal())
            if not any(normal):
                normal[-1] = 1
            if j % 2:
                # two draws that once chose a window, kept so that the later
                # inputs, and the pinned counts, stay the same
                rng.integers(-8, 8), rng.integers(1, 9)
            cases.append((CurveSpecD(MOMENT, d), normal, offset))
    for d in (2, 4, 6):
        for j in range(100):
            if j % 2:
                normal = rng.normal(size=d).tolist()
            else:
                normal = [float(v) for v in rng.integers(-2, 3, size=d)]
            if not any(normal):
                normal[0] = 1.0
            offset = float(rng.uniform(-1.0, 1.0))
            if j % 5 == 0:
                offset = sum(normal[2 * k - 1] * (-1) ** k for k in range(1, d // 2 + 1))
            cases.append((CurveSpecD(CARATHEODORY, d), normal, offset))
    return cases


def test_crossing_counts_golden():
    # The counts of a fixed input set are pinned, so a faster kernel must
    # give every count the one before it gave.
    counts = [hyperplane_crossings(spec, normal, offset)
              for spec, normal, offset in _golden_crossing_inputs()]
    assert len(counts) == 3310
    digest = "37ba863e8e71e93d769b137eff8d5f91ed689e38979c9df5cec121a76c5a95b8"
    assert hashlib.sha256(bytes(counts)).hexdigest() == digest


def test_closed_curve_close_pair_of_crossings():
    # the chord at offset 0.9999999 cuts an arc of 8.9e-4 rad, shorter than
    # 2 pi / 4096: a 4096-point sign sample missed it at 44 of these angles
    circle = CurveSpecD(CARATHEODORY, 2)
    angles = [0.7 + 0.0001 * k for k in range(100)]
    counts = [hyperplane_crossings(circle, (math.sin(a), math.cos(a)), 0.9999999)
              for a in angles]
    assert counts == [2] * 100


def test_closed_curve_exact_cases():
    circle = CurveSpecD(CARATHEODORY, 2)
    # sin t = 0 at t = 0 and t = pi; the second is u = infinity
    assert hyperplane_crossings(circle, (1.0, 0.0), 0.0) == 2
    # cos t = +-1 touches once: at t = 0 (a double root in u), at t = pi (a constant)
    assert hyperplane_crossings(circle, (0.0, 1.0), 1.0) == 1
    assert hyperplane_crossings(circle, (0.0, 1.0), -1.0) == 1
    # degree drops at d = 4 and 6, t = pi among the common points
    four, six = CurveSpecD(CARATHEODORY, 4), CurveSpecD(CARATHEODORY, 6)
    assert hyperplane_crossings(four, (0.0, 0.0, 1.0, 0.0), 0.0) == 4  # sin 2t = 0
    assert hyperplane_crossings(four, (0.0, 0.0, 0.0, 1.0), 1.0) == 2  # cos 2t = 1
    assert hyperplane_crossings(four, (1.0, 0.0, 1.0, 0.0), 0.0) == 4  # sin t (1 + 2 cos t) = 0
    assert hyperplane_crossings(six, (0.0, 0.0, 0.0, 0.0, 1.0, 0.0), 0.0) == 6  # sin 3t = 0
    assert hyperplane_crossings(six, (0.0, 0.0, 0.0, 0.0, 0.0, 1.0), -1.0) == 3  # cos 3t = -1


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


def test_spread_out_general_linear_examples():
    # d=3: tuple size 5, so six linearly separated occurrences are needed
    occ = [0, 10, 20, 30, 40, 50]
    assert is_spread_out_d(occ, 60, 0.1, d=3)
    assert not is_spread_out_d(occ[:5], 60, 0.1, d=3)
    # circular wrap helps even d but not odd d
    ends = [0, 1, 2, 3, 4, 59]
    assert not is_spread_out_d(ends, 60, 0.08, d=3)


def test_spread_out_general_validation():
    with pytest.raises(ValueError):
        is_spread_out_d([0], 10, 0.0, d=2)
    with pytest.raises(ValueError):
        is_spread_out_d([10], 10, 0.1, d=2)
    with pytest.raises(ValueError):
        is_spread_out_d([0], 0, 0.1, d=2)


def test_general_dichotomy_small_instances():
    # exactly one of spread / short cover, for both parities; the circular
    # side is only a complement while j points at the threshold distance fit
    # on the cycle, so alpha is drawn inside that regime
    rng = np.random.default_rng(23)
    for d in (2, 3, 4):
        j = separator_tuple_size(d)
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
            spread = is_spread_out_d(occ, n, alpha, d)
            cover = interval_cover(occ, n, alpha, d)
            assert spread == (cover is None)
            if cover is not None:
                assert cover_is_valid(occ, n, alpha, cover, d)


def test_dichotomy_breaks_outside_regime():
    # four points pairwise >= 6 cannot fit on a 22-cycle, so this dense set
    # is not spread out, yet no three width-5 intervals cover it either;
    # the cover probe reports None rather than inventing a wide cover
    occ = [1, 2, 4, 6, 7, 8, 9, 11, 12, 13, 14, 15, 16, 17, 18, 19]
    alpha = 0.2381
    assert not is_spread_out_d(occ, 22, alpha, d=2)
    assert interval_cover(occ, 22, alpha, d=2) is None

