"""Convex curves in d dimensions and their exact hyperplane crossing counts.

A convex curve meets every hyperplane at most d times.  The two workhorses
are the moment curve (t, t^2, ..., t^d), open and linearly ordered, and for
even d the closed trigonometric curve (sin t, cos t, ..., sin(d/2 t),
cos(d/2 t)), circularly ordered.  On these curves' witness lists the
spread-out side of the spread-out / short-cover dichotomy, is_spread_out,
lives in pierce.witness, and the short-cover side, interval_cover, beside
its tests in tests/lemmas.py.

Crossing counts are exact on both curves.  One pass checks the caller's
float data, dyadic rationals, and takes their exact ratios, scaled to an
integer polynomial (on the closed curve, in u = tan(t/2)).  A streamed
Sturm chain counts its distinct real roots.  Its members are the
subresultant remainder sequence of p and p' (Collins, J. ACM 14, 1967;
Brown and Traub, J. ACM 18, 1971; Knuth, TAOCP vol. 2, 4.6.1, Algorithm
C): each pseudo-remainder is divided by a factor known before the
division, exactly, with no gcd, and each member is a positive multiple of
the rational Sturm member, so it has that member's signs.  A step whose
degrees differ by one, the usual step, is one fused pass over the
coefficients, and other steps divide term by term.  Counts cover the whole
curve: they read each member's signs at +-infinity from its leading
coefficient and degree, and count the variations as the members arrive.
"""

from __future__ import annotations

import functools
import math
import operator
from collections.abc import Iterator
from dataclasses import dataclass

from .geometry import _NP_REALS, _PY_REALS, _finite_floats

MOMENT = "moment"
CARATHEODORY = "caratheodory"


@dataclass(frozen=True)
class CurveSpecD:
    kind: str
    d: int

    def __post_init__(self) -> None:
        if self.kind not in (MOMENT, CARATHEODORY):
            raise ValueError(f"unknown curve kind {self.kind!r}")
        # An integer, numpy's included, read as Instance reads p; a bool
        # reads as 0 or 1, so it is turned away.
        if isinstance(self.d, bool) or not hasattr(type(self.d), "__index__"):
            raise ValueError(f"d must be an integer, not {self.d!r}")
        object.__setattr__(self, "d", operator.index(self.d))
        if self.d < 2:
            raise ValueError("dimension must be at least 2")
        if self.kind == CARATHEODORY and self.d % 2 != 0:
            raise ValueError("the closed trigonometric curve needs even dimension")


# ----------------------------------------------------------------- Sturm

IntPoly = list[int]  # coefficients, constant term first, leading one nonzero


def _trim(p: IntPoly) -> IntPoly:
    while p and p[-1] == 0:
        p.pop()
    return p


def _pseudo_rem(a: IntPoly, b: IntPoly) -> IntPoly:
    """r with |lc(b)|^(deg a - deg b + 1) a = q b + r and deg r < deg b.

    The scale makes every quotient digit an integer, and being positive, it
    leaves r a positive multiple of the remainder of a by b over the
    rationals.  _sturm_chain fuses the step of degree gap one; this
    term-by-term division serves the other gaps.
    """
    lead = b[-1]
    rem = [abs(lead) ** (len(a) - len(b) + 1) * c for c in a]
    while len(rem) >= len(b):
        shift = len(rem) - len(b)
        factor = rem[-1] // lead  # exact, by the scale
        for i, c in enumerate(b):
            rem[i + shift] -= factor * c
        rem.pop()
        _trim(rem)
    return rem


def _sturm_chain(p: IntPoly) -> Iterator[IntPoly]:
    """p (degree >= 1), p', then negated pseudo-remainders, one at a time.

    The members after p' are the subresultant remainders (Knuth's Algorithm
    C, TAOCP vol. 2, 4.6.1).  With two integers g = h = 1 at the start, a
    step from a to b, of gap = deg a - deg b, divides the negated
    pseudo-remainder by g h^gap, then sets g = |lc(b)| and h = g^gap /
    h^(gap - 1) (h = g when gap = 1).  Both divisions are exact by the
    subresultant theorem (Collins 1967; Brown and Traub 1971), and the
    divisor is known before the remainder is made, so no gcd is taken.
    The pseudo-division scale |lc(b)|^(gap + 1), g and h are positive, so
    each member is a positive multiple of the rational chain's member and
    has its sign pattern: the signs, degrees and length of the chain, and
    every count, are those of the rational chain.  The chain ends at a
    constant or before a vanishing remainder.

    In the usual step, deg a = deg b + 1 (p by p', and every step of a chain
    without degree gaps), the two division steps fuse: with beta = lc(b),
    the quotient digits are c1 = beta a_top and c0 = beta a_top-1 - a_top
    b_top-1, and r_i = beta^2 a_i - c1 b_i-1 - c0 b_i for i < deg b, where
    b_-1 = 0.  These are the integers _pseudo_rem computes.

    When p has multiple roots the last member is gcd(p, p') up to a
    constant, and every member is it times a member of the square-free
    part's chain.  At each of +-infinity that factor has one sign along the
    whole chain, so it leaves the sign variations there, and the count of
    distinct roots, as they are for the square-free part.
    """
    a, b = p, [k * p[k] for k in range(1, len(p))]
    yield a
    yield b
    g = h = 1
    while (n := len(b)) > 1:
        gap = len(a) - n
        if gap == 1:
            beta, top = b[-1], a[-1]
            scale, c1, c0 = beta * beta, beta * top, beta * a[-2] - top * b[-2]
            rem = [scale * a[0] - c0 * b[0]]
            rem += [scale * a[i] - c1 * b[i - 1] - c0 * b[i] for i in range(1, n - 1)]
            _trim(rem)
        else:
            rem = _pseudo_rem(a, b)
        if not rem:
            return
        divisor = g * h**gap
        g = abs(b[-1])
        h = g if gap == 1 else g**gap // h ** (gap - 1)
        a, b = b, [-c // divisor for c in rem]  # exact: see the docstring
        yield b


def _distinct_roots(p: IntPoly) -> int:
    """Distinct real roots of p on the whole line, exactly.

    Sturm's theorem on _sturm_chain(p): the sign variations at -infinity
    minus those at +infinity.  Every member is a positive multiple of the
    rational Sturm member, so the subresultant scales change no sign.
    """
    if len(p) < 2:
        return 0  # a nonzero constant
    # At +infinity a member has the sign of its leading coefficient, at
    # -infinity that sign times (-1)^degree.  Neighbours whose degrees have
    # the same parity vary at both ends or at neither; the others vary at
    # -infinity alone when their leading signs agree, and at +infinity alone
    # when they differ.
    chain = _sturm_chain(p)
    q = next(chain)
    roots = 0
    for r in chain:
        if (len(q) ^ len(r)) & 1:
            roots += 1 if (q[-1] > 0) == (r[-1] > 0) else -1
        q = r
    return roots


@functools.cache
def _closed_basis(d: int) -> tuple[tuple[int, ...], ...]:
    """Columns of the rows (1 + u^2)^(d/2) times 1, sin t, cos t, ...,
    sin(d/2 t), cos(d/2 t).

    Each row holds the coefficients, constant term first, of a polynomial of
    degree at most d in u = tan(t/2): since e^(it) = (1 + iu)^2 / (1 + u^2),
    sin kt and cos kt are the imaginary and real parts of (1 + iu)^(2k)
    over (1 + u^2)^k.  Column j holds the rows' u^j coefficients, so that a
    weighted sum of rows is one dot product per column.
    """
    half = d // 2

    def times_circle(p: list[int], power: int) -> tuple[int, ...]:
        # p times (1 + u^2)^power
        out = [0] * (d + 1)
        for i, c in enumerate(p):
            for j in range(power + 1):
                out[i + 2 * j] += c * math.comb(power, j)
        return tuple(out)

    rows = [times_circle([1], half)]
    for k in range(1, half + 1):
        # coefficient of u^j in (1 + iu)^(2k) is comb(2k, j) i^j
        binom = [math.comb(2 * k, j) for j in range(2 * k + 1)]
        real = [c * (1, 0, -1, 0)[j % 4] for j, c in enumerate(binom)]
        imag = [c * (0, 1, 0, -1)[j % 4] for j, c in enumerate(binom)]
        rows += [times_circle(imag, half - k), times_circle(real, half - k)]
    return tuple(zip(*rows))


def hyperplane_crossings(spec: CurveSpecD, normal, offset: float) -> int:
    """Distinct points the curve shares with the hyperplane normal . x = offset.

    This is what the paper's "meets every hyperplane at most d times"
    counts: a point where the curve only touches the hyperplane counts once,
    like a crossing.  The count is exact and covers the whole curve: the
    float data, dyadic rationals, make an integer polynomial whose distinct
    real roots a Sturm chain counts.

    Moment curve: the polynomial is the composition, of degree at most d in
    t, over the whole line.  Closed curve: with u = tan(t/2), the
    composition times (1 + u^2)^(d/2) is a polynomial of degree at most d in
    u, whose real roots are the points with t in (-pi, pi).  Its u^d
    coefficient is the composition at t = pi (u = infinity), so that point
    is common exactly when the degree drops.

    The normal and offset must be finite ints or floats (numpy's too; see
    _finite_floats); a ValueError naming the argument rejects any other.
    """
    # One pass checks the values and takes their exact ratios.  It accepts what
    # the checks below accept; they run on a reject alone, to name its fault.
    try:
        nums, dens = zip(*[float(v).as_integer_ratio() for v in (offset, *normal)
                           if type(v) in _PY_REALS or isinstance(v, _NP_REALS)])
        valid = len(nums) == len(normal) + 1 == spec.d + 1 and any(nums[1:])
    except (OverflowError, TypeError, ValueError):  # past float range, inf, nan, no sequence
        valid = False
    if not valid:
        coeffs = _finite_floats(normal, "hyperplane normal")
        if len(coeffs) != spec.d:
            raise ValueError("normal length must match the dimension")
        if not any(coeffs):
            raise ValueError("hyperplane normal must be nonzero")
        _finite_floats((offset,), "hyperplane offset")

    # The floats times their common power-of-two denominator: integers in
    # the same ratios, exactly, with the offset moved across.
    scale = max(dens)
    weights = [num * (scale // den) for num, den in zip(nums, dens)]
    weights[0] = -weights[0]
    if spec.kind == MOMENT:
        return _distinct_roots(_trim(weights))
    poly = _trim([sum(map(operator.mul, weights, column)) for column in _closed_basis(spec.d)])
    return _distinct_roots(poly) + (len(poly) <= spec.d)
