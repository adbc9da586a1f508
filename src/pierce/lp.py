"""A small dense simplex for the fractional packing program.

The transversal pipeline solves one linear program: maximize sum(x) subject
to mat @ x <= 1, x >= 0, where mat is the 0/1 class matrix (one row per
candidate class, one column per body).  Every rhs is 1, so the slack basis
is feasible and a single phase of primal simplex reaches the optimum.
Bland's rule picks the entering and leaving variables, so cycling cannot
occur.  Problems here are tiny (at most a few hundred rows and columns), so
no effort is spent on sparsity or factorization; the tableau is renormalized
by direct pivoting.  The row duals, read off the slack columns of the
optimal tableau, are the fractional cover of the classes.

Each pivot's two scans, for the entering column and for the leaving row,
are Python loops over Python floats: the reduced costs, the entering column
and the rhs are each converted once per pivot with tolist(), since reading
numpy scalars one by one costs more than the loop.  Vectorized numpy scans
(flatnonzero for the entering column, a masked ratio minimum with the same
tie rule) do not pay on matrices this small, where each numpy call's fixed
cost dominates.  Over the bench's seed-1 class matrices on a 2-vCPU host,
best of 15: pg-union 0.027 s with these scans, 0.037 s reading numpy
scalars, 0.035 s with numpy scans; small-batch 0.0081, 0.0082 and 0.0127 s.
Nor does a ratio loop over only the rows that flatnonzero finds positive in
the entering column: over the seed 1-3 class matrices, best of 21, it
matched the full loop on pg-union and was 15% slower on small-batch.

The rest of a pivot's fixed cost is kept low by carrying state instead of
rebuilding it: the basis costs cb are an array updated at the leaving row
after each pivot (not cost[basis] gathered from the list), the tableau's
coefficient and rhs views are taken once, and the rank-1 update is a
broadcast product, the same products as np.outer.  On the 84 seed 1-3
pg-union class matrices (3,150 pivots) a pivot then costs about 25 us.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

TOL_LP = 1e-7
PIVOT_TOL = 1e-9


@dataclass(frozen=True)
class LPSolution:
    """values (one per column) and objective at the optimum; duals[i] is the
    optimum's rate of change in row i's rhs, so every dual is >= 0."""

    values: tuple[float, ...]
    objective: float
    duals: tuple[float, ...]


def _pivot(tab: np.ndarray, basis: list[int], row: int, col: int) -> None:
    tab[row] /= tab[row, col]
    factor = tab[:, col].copy()
    factor[row] = 0.0
    tab -= factor[:, None] * tab[row]
    basis[row] = col


def packing_solve(mat) -> LPSolution:
    """max sum(x) subject to mat @ x <= 1, x >= 0, for a 0/1 matrix mat.

    The program is minimized as -sum(x) on the tableau [mat | I | 1], from
    the slack basis.  The reduced-cost row is recomputed via the basis cost
    instead of being carried, trading a little arithmetic for simpler
    invariants.  Raises ValueError when the program is unbounded, which for
    a 0/1 matrix means a zero column: a body in no class.
    """
    mat = np.asarray(mat, dtype=float)
    m, n = mat.shape
    k = n + m
    tab = np.zeros((m, k + 1))
    tab[:, :n] = mat
    tab[:, n:k] = np.eye(m)
    tab[:, k] = 1.0
    basis = list(range(n, k))
    cost = np.zeros(k)
    cost[:n] = -1.0
    cb = np.zeros(m)
    lhs, rhs = tab[:, :k], tab[:, k]
    while True:
        reduced = cost - cb @ lhs
        entering = -1
        for j, rc in enumerate(reduced.tolist()):
            if rc < -TOL_LP:
                entering = j
                break
        if entering < 0:
            break
        ratio = math.inf
        leaving = -1
        for i, (a, b) in enumerate(zip(lhs[:, entering].tolist(), rhs.tolist())):
            if a > PIVOT_TOL:
                r = b / a
                if r < ratio - PIVOT_TOL or (
                    abs(r - ratio) <= PIVOT_TOL
                    and (leaving < 0 or basis[i] < basis[leaving])
                ):
                    ratio = r
                    leaving = i
        if leaving < 0:
            raise ValueError(f"packing program is unbounded in column {entering}")
        _pivot(tab, basis, leaving, entering)
        cb[leaving] = cost[entering]

    x = np.zeros(k)
    x[basis] = rhs
    values = x[:n]
    if np.any(mat @ values > 1.0 + TOL_LP) or np.any(values < -TOL_LP):
        raise ArithmeticError("simplex returned an infeasible optimum")
    # The reduced cost of row i's slack column is the row price of the
    # minimized program negated, which is the dual of the maximized one.
    duals = reduced[n:]
    objective = float(np.dot(np.ones(n), values))
    return LPSolution(tuple(float(v) for v in values), objective, tuple(duals.tolist()))
