"""Convex curves in d dimensions and the generalized spread condition.

A convex curve meets every hyperplane at most d times.  The two workhorses
are the moment curve (t, t^2, ..., t^d), open and linearly ordered, and for
even d the closed trigonometric curve (sin t, cos t, ..., sin(d/2 t),
cos(d/2 t)), circularly ordered.  Separator tuples grow from the planar
quadruple to a size determined only by the dimension, and the spread-out /
short-cover dichotomy carries over with the tuple size in place of four.

Crossing counts for the moment curve are computed exactly over the rationals
with Sturm chains; the closed curve falls back to dense sign sampling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .witness import (
    IndexInterval,
    _spread_chain,
    cover_width,
    min_circular_cover,
    spread_threshold,
)

MOMENT = "moment"
CARATHEODORY = "caratheodory"

PointD = tuple[float, ...]


@dataclass(frozen=True)
class CurveSpecD:
    kind: str
    d: int

    def __post_init__(self) -> None:
        if self.kind not in (MOMENT, CARATHEODORY):
            raise ValueError(f"unknown curve kind {self.kind!r}")
        if self.d < 2:
            raise ValueError("dimension must be at least 2")
        if self.kind == CARATHEODORY and self.d % 2 != 0:
            raise ValueError("the closed trigonometric curve needs even dimension")

    @property
    def closed(self) -> bool:
        return self.kind == CARATHEODORY


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


def curve_point(spec: CurveSpecD, t: float) -> PointD:
    """Point of the curve at parameter t."""
    if spec.kind == MOMENT:
        return tuple(t**k for k in range(1, spec.d + 1))
    out: list[float] = []
    for k in range(1, spec.d // 2 + 1):
        out.append(math.sin(k * t))
        out.append(math.cos(k * t))
    return tuple(out)


# ----------------------------------------------------------------- Sturm

Poly = list[Fraction]


def _poly_trim(p: Poly) -> Poly:
    while p and p[-1] == 0:
        p.pop()
    return p


def _poly_eval(p: Poly, x: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(p):
        acc = acc * x + c
    return acc


def _poly_deriv(p: Poly) -> Poly:
    return [c * k for k, c in enumerate(p)][1:]


def _poly_rem(num: Poly, den: Poly) -> Poly:
    out = _poly_trim(list(num))
    dn = len(den) - 1
    lead = den[-1]
    while len(out) - 1 >= dn:
        shift = len(out) - 1 - dn
        factor = out[-1] / lead
        for i, c in enumerate(den):
            out[i + shift] -= factor * c
        out.pop()
        _poly_trim(out)
    return out


def _sturm_chain(p: Poly) -> list[Poly]:
    # Standard chain: p, p', then negated remainders until a constant or a
    # vanishing remainder (the latter means p had multiple roots; stopping at
    # the gcd still counts distinct roots, as the whole chain is then a
    # common multiple of a proper chain for the square-free part).
    chain = [_poly_trim(list(p))]
    if len(chain[0]) > 1:
        chain.append(_poly_trim(_poly_deriv(chain[0])))
    while len(chain[-1]) > 1:
        rem = _poly_trim(_poly_rem(chain[-2], chain[-1]))
        if not rem:
            break
        scale = abs(rem[-1])  # positive, so the sign pattern is unchanged
        chain.append([-c / scale for c in rem])
    return [c for c in chain if c]


def _sign_variations(chain: list[Poly], x: Fraction) -> int:
    signs = []
    for p in chain:
        v = _poly_eval(p, x)
        if v != 0:
            signs.append(1 if v > 0 else -1)
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def _distinct_roots_between(p: Poly, lo: Fraction, hi: Fraction) -> int:
    """Distinct real roots of p in (lo, hi], exactly, via a Sturm chain."""
    chain = _sturm_chain(p)
    return _sign_variations(chain, lo) - _sign_variations(chain, hi)


def _cauchy_bound(p: Poly) -> Fraction:
    lead = abs(p[-1])
    rest = max((abs(c) for c in p[:-1]), default=Fraction(0))
    return Fraction(1) + rest / lead


def hyperplane_crossings(
    spec: CurveSpecD,
    normal,
    offset: float,
    t_range: tuple[float, float] | None = None,
    samples: int = 4096,
) -> int:
    """How often the curve crosses the hyperplane normal . x = offset.

    Moment curve: the composition is a polynomial of degree at most d, and
    the count is its number of distinct real roots, computed exactly over
    the rationals (whole line by default, or restricted to (lo, hi]).
    Closed curve: sign changes of the composition over a dense circular
    sample (linear when an explicit t_range is given).
    """
    coeffs = [float(c) for c in normal]
    if len(coeffs) != spec.d:
        raise ValueError("normal length must match the dimension")
    if not any(c != 0.0 for c in coeffs):
        raise ValueError("hyperplane normal must be nonzero")

    if spec.kind == MOMENT:
        poly = _poly_trim([Fraction(-float(offset))] + [Fraction(c) for c in coeffs])
        if len(poly) <= 1:
            return 0
        if t_range is None:
            bound = _cauchy_bound(poly)
            lo, hi = -bound, bound
        else:
            lo, hi = Fraction(float(t_range[0])), Fraction(float(t_range[1]))
        return _distinct_roots_between(poly, lo, hi)

    if samples < 8:
        raise ValueError("need at least 8 samples")
    closed = t_range is None
    lo_f, hi_f = (0.0, 2.0 * math.pi) if closed else (float(t_range[0]), float(t_range[1]))

    def f(t: float) -> float:
        pt = curve_point(spec, t)
        return sum(c * v for c, v in zip(coeffs, pt)) - float(offset)

    step = (hi_f - lo_f) / samples
    values = [f(lo_f + step * k) for k in range(samples if closed else samples + 1)]
    signs = [1 if v > 0 else -1 for v in values if v != 0.0]
    if len(signs) < 2:
        return 0
    pairs = zip(signs, signs[1:] + ([signs[0]] if closed else []))
    return sum(1 for a, b in pairs if a != b)


# ------------------------------------------------------- spread dichotomy


def _linear_spread(occ: list[int], t: int, want: int) -> bool:
    # greedy left-to-right selection is optimal on a line
    if len(occ) < want:
        return False
    count = 1
    last = occ[0]
    for pos in occ[1:]:
        if pos - last >= t:
            count += 1
            last = pos
            if count == want:
                return True
    return count >= want


def spread_out_general(occurrences, n: int, alpha: float, d: int) -> bool:
    """True when enough occurrences sit pairwise >= ceil(alpha*n) apart.

    The required count is the separator tuple size plus one for odd d
    (linear distances) or the tuple size itself for even d (circular
    distances).  d=2 coincides with the planar four-point test.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    if n < 1:
        raise ValueError("list size must be positive")
    occ = sorted(int(v) for v in occurrences)
    if any(v < 0 or v >= n for v in occ):
        raise ValueError("occurrence indices must lie in [0, n)")
    j = separator_tuple_size(d)
    want = j + 1 if d % 2 == 1 else j
    if len(occ) < want:
        return False
    t = spread_threshold(alpha, n)
    if d % 2 == 1:
        return _linear_spread(occ, t, want)
    return _spread_chain(occ, n, t, want)


def _linear_cover(occ: list[int], width: int) -> list[IndexInterval]:
    # fewest intervals of the given width: start each at the first uncovered
    # occurrence
    cover: list[IndexInterval] = []
    k = 0
    while k < len(occ):
        start = occ[k]
        end = start
        while k < len(occ) and occ[k] - start <= width:
            end = occ[k]
            k += 1
        cover.append((start, end))
    return cover


def interval_cover_general(
    occurrences, n: int, alpha: float, d: int
) -> list[IndexInterval] | None:
    """Short-interval cover of the occurrences, or None when spread out.

    Complements spread_out_general with intervals of index width
    floor(alpha*n), at most j of them for odd d (linear) or j-1 for even d
    (circular), where j is the separator tuple size.  Intervals are
    (first, last) occurrence pairs.

    For odd d the two sides are exact complements at every alpha.  For even
    d they complement each other whenever j*ceil(alpha*n) <= n; beyond that
    the spread side cannot fire (j points pairwise that far apart do not fit
    on the cycle) while a cover may still need j or more intervals, and None
    is returned for that case too.
    """
    if spread_out_general(occurrences, n, alpha, d):
        return None
    occ = sorted(int(v) for v in occurrences)
    j = separator_tuple_size(d)
    limit = j if d % 2 == 1 else j - 1
    width = cover_width(alpha, n)
    if not occ:
        return []
    if d % 2 == 1:
        cover = _linear_cover(occ, width)
        return cover if len(cover) <= limit else None
    return min_circular_cover(occ, n, width, limit)

