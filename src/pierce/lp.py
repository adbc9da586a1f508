"""A small dense simplex for the fractional packing program.

The transversal pipeline solves one linear program: maximize sum(x) subject
to mat @ x <= 1, x >= 0, where mat is the 0/1 class matrix (one row per
candidate class, one column per body).  Every rhs is 1, so the slack basis
is feasible and a single phase of primal simplex reaches the optimum.
Bland's rule picks the entering and leaving variables, so cycling cannot
occur.  Problems here are tiny (at most a few hundred rows and columns), so
no effort is spent on sparsity or factorization; the tableau is renormalized
by direct pivoting.

The cost row rides in the tableau as its last row, and each pivot's rank-1
update keeps it equal to the reduced costs, so the entering column is the
row's first entry below -TOL_LP.  The row duals, the reduced costs of the
slack columns, are the fractional cover of the classes; they are computed
once from the final basis, so the rounding the cost row gathers over the
pivots does not reach them.

The ratio test is a loop over the entering column and the rhs, each
converted to Python floats once per pivot with tolist(), since reading
numpy scalars one by one costs more than the loop.
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

    The program is minimized as -sum(x) on the tableau [mat | I | 1] over
    the cost row [-1 | 0 | 0], from the slack basis.  The pivots keep the
    cost row equal to the reduced costs, and the entering column is its
    first entry below -TOL_LP.  At the optimum the duals are computed once
    from the final basis.  Raises ValueError when the program is unbounded,
    which for a 0/1 matrix means a zero column: a body in no class.
    """
    mat = np.asarray(mat, dtype=float)
    m, n = mat.shape
    k = n + m
    if not k:
        return LPSolution((), 0.0, ())
    tab = np.zeros((m + 1, k + 1))
    tab[:m, :n] = mat
    tab[:m, n:k] = np.eye(m)
    tab[:m, k] = 1.0
    tab[m, :n] = -1.0
    basis = list(range(n, k))
    cost = tab[m, :k].copy()
    lhs, rhs, reduced = tab[:m, :k], tab[:m, k], tab[m, :k]
    while True:
        below = reduced < -TOL_LP
        entering = int(below.argmax())
        if not below[entering]:
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

    x = np.zeros(k)
    x[basis] = rhs
    values = x[:n]
    if np.any(mat @ values > 1.0 + TOL_LP) or np.any(values < -TOL_LP):
        raise ArithmeticError("simplex returned an infeasible optimum")
    # The reduced cost of row i's slack column is the row price of the
    # minimized program negated, which is the dual of the maximized one.
    duals = (cost - cost[basis] @ lhs)[n:]
    objective = float(np.dot(np.ones(n), values))
    return LPSolution(tuple(float(v) for v in values), objective, tuple(duals.tolist()))
