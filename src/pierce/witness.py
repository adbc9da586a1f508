"""Circular witness lists and spread-out colors.

A witness list is the circular list of meeting points of a family of
bodies, one color per body: for every pair of colors that meet on the
curve, one curve angle where they do. witness_list builds it from the
bodies' arcs and their meet_matrix, and pierce stats prints its size and
how many colors are spread out. The paper's combinatorics run on entry
indices of the sorted list; distances there are index distances, never
angles. is_spread_out takes one color's occurrence indices and the list
size, and reads circular distances, as on the plane's circle. The paper's
other lemmas on the list (interval covers, separator quadruples and their
counts, the rate bounds, and the spread-out test of dimension d) bound the
transversal but do not build it, so they live beside their tests, in
tests/lemmas.py. The pipeline's heavy point does not come
from here: it is the heaviest candidate class (see run_pipeline).
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .geometry import _INTS, _REALS, TWO_PI, _as_array, _as_int, meet_angle


@dataclass(frozen=True, eq=False)
class WitnessList:
    """The circular witness list of a family, one color per body.

    Entry k is the color pair pairs[k] = (i, j), i < j, meeting at angles[k]
    in [0, 2*pi); the colors are range(colors).

    Construction checks, once, that the angles are numbers and the pairs and
    colors integers (_REALS and _INTS, by _as_array and _as_int), each
    within intp; that each pair's colors are in that range and in
    increasing order; that entries are in (angle, pair) order, which fixes
    the entry indices the lemmas count in; and that each pair occurs at
    most once. len() counts the entries.
    """

    angles: np.ndarray   # (E,) meet angle of each entry
    pairs: np.ndarray    # (E, 2) the entry's two colors
    colors: int          # number of colors, one per body
    _occ: dict[int, list[int]] = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        angles = _as_array(self.angles, _REALS, "witness angles")
        pairs = _as_array(self.pairs, _INTS, "witness pairs").reshape(-1, 2)
        colors = _as_int(self.colors, "witness colors")
        _as_array(colors, _INTS, "witness colors")  # within intp, as the pairs are
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
        if (np.count_nonzero(np.lexsort((hi, lo, angles)) != np.arange(len(pairs)))
                or not 0.0 <= angles[0] or not angles[-1] < TWO_PI):
            raise ValueError("witness entries must be in (angle, pair) order within [0, 2*pi)")
        rows = pairs[np.lexsort((hi, lo))]
        if np.count_nonzero((rows[1:] == rows[:-1]).all(axis=1)):
            raise ValueError("a color pair may witness at most once")

    def __len__(self) -> int:
        return len(self.angles)

    def occurrences(self, color: int) -> list[int]:
        """Sorted entry indices carrying the color; empty when absent."""
        if color not in self._occ:
            hit = (self.pairs[:, 0] == color) | (self.pairs[:, 1] == color)
            self._occ[color] = hit.nonzero()[0].tolist()
        return self._occ[color]


def witness_list(arcs: list[list[tuple[float, float]]], meets: np.ndarray) -> WitnessList:
    """The witness list with one entry, at its meet_angle, for each pair
    i < j of these body_curve_arcs that meets (their meet_matrix) marks."""
    i, j = np.nonzero(np.triu(meets, 1))
    at = np.array([meet_angle(arcs[a], arcs[b]) for a, b in zip(i.tolist(), j.tolist())],
                  dtype=float)
    # nonzero lists (i, j) in order, so a stable sort by angle gives (angle, pair) order.
    order = np.argsort(at, kind="stable")
    return WitnessList(at[order], np.stack([i, j], axis=1)[order], len(arcs))


def spread_threshold(alpha: float, n: int) -> int:
    """Smallest integer distance t with t >= alpha*n, guarded against float fuzz."""
    return max(1, math.ceil(round(alpha * n, 9)))


def _dichotomy_input(occ, n: int, alpha: float) -> list[int]:
    """occ sorted, after the checks is_spread_out and the lemmas share:
    alpha in (0, 1), and n and each occurrence integers (_as_int), n
    positive and the occurrences in [0, n); a ValueError names the first
    that fails."""
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    if _as_int(n, "n") < 1:
        raise ValueError("list size must be positive")
    occ = sorted([_as_int(v, "occurrence index") for v in occ])
    if occ and (occ[0] < 0 or occ[-1] >= n):
        raise ValueError("occurrence indices must lie in [0, n)")
    return occ


def is_spread_out(occ, n: int, alpha: float) -> bool:
    """True when four occurrences, the planar separator quadruple, sit
    pairwise >= ceil(alpha*n) apart on the cycle.

    occ are one color's entry indices in a list of n entries, and the
    distances are circular. The greedy chain (the first occurrence, then
    each earliest one at distance >= t from the last) runs from every
    anchor and also needs the wrap gap back to the anchor >= t, since
    points are pairwise far exactly when their consecutive gaps are.
    """
    occ = _dichotomy_input(occ, n, alpha)
    t = spread_threshold(alpha, n)
    # Each rotation of the cycle that starts at an occurrence, unwrapped
    # past n; some optimal chain starts at one.
    for s in range(len(occ)):
        seq = occ[s:] + [v + n for v in occ[:s]]
        chain = seq[:1]
        for v in seq[1:]:
            if v - chain[-1] >= t:
                chain.append(v)
                if len(chain) == 4:
                    break
        if len(chain) == 4 and chain[0] + n - chain[-1] >= t:
            return True
    return False
