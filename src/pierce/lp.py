"""A small dense linear-programming solver.

Two-phase primal simplex on an explicit tableau, with Bland's rule for
entering and leaving variables so cycling cannot occur.  Problems here are
tiny (at most a few hundred rows and columns), so no effort is spent on
sparsity or factorization; the tableau is renormalized by direct pivoting.

All variables are implicitly bounded below by zero, which is the shape of
every program the transversal pipeline produces.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

TOL_LP = 1e-7
PIVOT_TOL = 1e-9

LEQ = "<="
GEQ = ">="


@dataclass(frozen=True)
class LPProblem:
    """min/max objective @ x subject to rows[i] @ x (sense[i]) rhs[i], x >= 0."""

    objective: tuple[float, ...]
    rows: tuple[tuple[float, ...], ...]
    senses: tuple[str, ...]
    rhs: tuple[float, ...]
    direction: str = "min"

    def __post_init__(self) -> None:
        object.__setattr__(self, "objective", tuple(float(c) for c in self.objective))
        object.__setattr__(
            self, "rows", tuple(tuple(float(a) for a in row) for row in self.rows)
        )
        object.__setattr__(self, "senses", tuple(self.senses))
        object.__setattr__(self, "rhs", tuple(float(b) for b in self.rhs))
        n = len(self.objective)
        if n == 0:
            raise ValueError("objective must have at least one variable")
        if not (len(self.rows) == len(self.senses) == len(self.rhs)):
            raise ValueError("rows, senses and rhs must have equal lengths")
        for row in self.rows:
            if len(row) != n:
                raise ValueError(f"row length {len(row)} != variable count {n}")
        for s in self.senses:
            if s not in (LEQ, GEQ):
                raise ValueError(f"unknown sense {s!r}")
        if self.direction not in ("min", "max"):
            raise ValueError(f"unknown direction {self.direction!r}")
        values = list(self.objective) + list(self.rhs) + [a for r in self.rows for a in r]
        if not all(np.isfinite(values)):
            raise ValueError("problem data must be finite")


@dataclass(frozen=True)
class LPSolution:
    """values and objective at the optimum; duals[i] is the optimum's rate of
    change in rhs[i], so a max problem's LEQ rows and a min problem's GEQ rows
    get duals >= 0.  values and duals are empty unless status is optimal."""

    values: tuple[float, ...]
    objective: float
    status: str  # optimal | infeasible | unbounded
    duals: tuple[float, ...] = ()


def _pivot(tab: np.ndarray, basis: list[int], row: int, col: int) -> None:
    tab[row] /= tab[row, col]
    factor = tab[:, col].copy()
    factor[row] = 0.0
    tab -= np.outer(factor, tab[row])
    basis[row] = col


def _bland_simplex(tab: np.ndarray, basis: list[int], cost: np.ndarray) -> str:
    """Minimize cost @ x over the canonical tableau. Returns optimal|unbounded.

    tab has shape (m, k+1) with the rhs in the last column; basis columns are
    an identity submatrix.  The reduced-cost row is recomputed via the basis
    cost instead of being carried, trading a little arithmetic for simpler
    invariants.
    """
    m, width = tab.shape
    k = width - 1
    while True:
        reduced = cost - cost[basis] @ tab[:, :k]
        entering = -1
        for j in range(k):
            if reduced[j] < -TOL_LP:
                entering = j
                break
        if entering < 0:
            return "optimal"
        ratio = np.inf
        leaving = -1
        for i in range(m):
            a = tab[i, entering]
            if a > PIVOT_TOL:
                r = tab[i, k] / a
                if r < ratio - PIVOT_TOL or (
                    abs(r - ratio) <= PIVOT_TOL
                    and (leaving < 0 or basis[i] < basis[leaving])
                ):
                    ratio = r
                    leaving = i
        if leaving < 0:
            return "unbounded"
        _pivot(tab, basis, leaving, entering)


def lp_solve(problem: LPProblem) -> LPSolution:
    """Solve the problem exactly to within TOL_LP feasibility."""
    n = len(problem.objective)
    m = len(problem.rows)
    sign = 1.0 if problem.direction == "min" else -1.0
    c = sign * np.asarray(problem.objective, dtype=float)

    if m == 0:
        # Only the x >= 0 bounds: minimum at the origin unless some cost
        # coefficient rewards growing a variable without limit.
        if np.any(c < -TOL_LP):
            return LPSolution((), 0.0, "unbounded")
        return LPSolution(tuple(0.0 for _ in range(n)), 0.0, "optimal")

    a = np.asarray(problem.rows, dtype=float)
    b = np.asarray(problem.rhs, dtype=float)
    flip = np.where(b < 0.0, -1.0, 1.0)
    a *= flip[:, None]
    b *= flip
    senses = [
        s if f > 0 else (GEQ if s == LEQ else LEQ) for s, f in zip(problem.senses, flip)
    ]

    # Columns: n structural, m slack/surplus, then artificials for GEQ rows.
    art_rows = [i for i in range(m) if senses[i] == GEQ]
    n_art = len(art_rows)
    k = n + m + n_art
    tab = np.zeros((m, k + 1))
    tab[:, :n] = a
    tab[:, k] = b
    basis = [0] * m
    art_col = {}
    for i in range(m):
        if senses[i] == LEQ:
            tab[i, n + i] = 1.0
            basis[i] = n + i
    for t, i in enumerate(art_rows):
        tab[i, n + i] = -1.0
        tab[i, n + m + t] = 1.0
        basis[i] = n + m + t
        art_col[i] = n + m + t

    if n_art:
        phase1 = np.zeros(k)
        phase1[n + m :] = 1.0
        status = _bland_simplex(tab, basis, phase1)
        assert status == "optimal"  # phase 1 is bounded below by zero
        infeas = sum(tab[i, k] for i in range(m) if basis[i] >= n + m)
        if infeas > TOL_LP:
            return LPSolution((), 0.0, "infeasible")
        # Pivot any degenerate artificial out of the basis.  A pivot always
        # exists: pivots keep each surplus column the exact negative of its
        # row's artificial column, so a basic artificial's row holds -1 in
        # that surplus column, and no row is ever dropped as redundant.
        for i in range(m):
            if basis[i] >= n + m:
                piv = next(j for j in range(n + m) if abs(tab[i, j]) > 1e-8)
                _pivot(tab, basis, i, piv)

    tab = np.hstack([tab[:, : n + m], tab[:, k:]])
    k = n + m
    phase2 = np.zeros(k)
    phase2[:n] = c
    status = _bland_simplex(tab, basis, phase2)
    if status == "unbounded":
        return LPSolution((), 0.0, "unbounded")

    x = np.zeros(k)
    for i, bcol in enumerate(basis):
        x[bcol] = tab[i, k]
    values = x[:n]
    # The reduced cost of row i's slack (+e_i) or surplus (-e_i) column is
    # -pi_i or +pi_i, where pi = c_B B^-1 prices the rows of the flipped,
    # minimized problem; undo the flip and the direction.
    reduced = phase2 - phase2[basis] @ tab[:, :k]
    row_sign = np.where(np.asarray(senses) == LEQ, -1.0, 1.0)
    duals = sign * flip * row_sign * reduced[n:]

    residuals_ok = True
    for i in range(len(problem.rows)):
        lhs = float(np.dot(problem.rows[i], values))
        if problem.senses[i] == LEQ and lhs > problem.rhs[i] + TOL_LP:
            residuals_ok = False
        if problem.senses[i] == GEQ and lhs < problem.rhs[i] - TOL_LP:
            residuals_ok = False
    if not residuals_ok or np.any(values < -TOL_LP):
        raise ArithmeticError("simplex returned an infeasible optimum")

    objective = float(np.dot(problem.objective, values))
    return LPSolution(
        tuple(float(v) for v in values), objective, "optimal", tuple(duals.tolist())
    )
