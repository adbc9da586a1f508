import time
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from pierce import lp
from pierce.errors import PipelineError
from pierce.geometry import TWO_PI, ConvexBody
from pierce.lp import TOL_LP, _pivot, packing_solve
from pierce.pipeline import DUALITY_TOL, candidate_classes

from conftest import pg22_twice, pg_lines, pg_union_polygons, reference_packing_solve


def highs(mat: np.ndarray):
    """HiGHS optimum of max sum(x), mat @ x <= 1: (objective, row duals)."""
    k, n = mat.shape
    res = linprog(-np.ones(n), A_ub=mat, b_ub=np.ones(k), method="highs")
    assert res.status == 0
    return -res.fun, -res.ineqlin.marginals


def random_packing(rng: np.random.Generator) -> np.ndarray:
    """A random 0/1 matrix with no zero column, often with repeated rows and
    columns, which make the optimum degenerate."""
    k, n = int(rng.integers(1, 9)), int(rng.integers(1, 8))
    mat = (rng.random((k, n)) < rng.uniform(0.2, 0.8)).astype(float)
    for j in np.flatnonzero(~mat.any(axis=0)):
        mat[rng.integers(k), j] = 1.0
    if rng.random() < 0.3:
        mat = np.vstack([mat, mat[rng.integers(k, size=int(rng.integers(1, 3)))]])
    if rng.random() < 0.3:
        mat = np.hstack([mat, mat[:, rng.integers(n, size=int(rng.integers(1, 3)))]])
    return mat


def assert_primal(mat: np.ndarray, got) -> None:
    x = np.asarray(got.values)
    assert x.shape == (mat.shape[1],)
    assert np.all(x >= -TOL_LP) and np.all(mat @ x <= 1.0 + TOL_LP)
    assert got.objective == pytest.approx(x.sum(), abs=1e-12)


def assert_dual(mat: np.ndarray, got) -> None:
    """Dual feasibility, strong duality and complementary slackness."""
    x, y = np.asarray(got.values), np.asarray(got.duals)
    assert y.shape == (mat.shape[0],)
    assert np.all(y >= -1e-9) and np.all(mat.T @ y >= 1.0 - 1e-9)
    assert float(y.sum()) == pytest.approx(got.objective, abs=1e-9)
    assert np.abs(y * (1.0 - mat @ x)).max() <= 1e-9
    assert np.abs(x * (mat.T @ y - 1.0)).max() <= 1e-9


def assert_optimal(mat: np.ndarray, got) -> None:
    assert_primal(mat, got)
    assert_dual(mat, got)


# The Fano plane: 7 lines of 3 points, every point on 3 lines.
FANO = np.array([[float(j in (i, (i + 1) % 7, (i + 3) % 7)) for j in range(7)] for i in range(7)])


def test_pivot_matches_row_loop():
    # the rank-1 update, in blocks of PIVOT_BLOCK rows, does the same
    # per-entry arithmetic as eliminating the pivot column row by row, so
    # the tableaus agree exactly
    rng = np.random.default_rng(5)
    for _ in range(50):
        m, k = rng.integers(1, 3 * lp.PIVOT_BLOCK), rng.integers(2, 10)
        tab = rng.normal(size=(m, k)) * (rng.random((m, k)) < 0.6)
        row, col = int(rng.integers(m)), int(rng.integers(k))
        tab[row, col] = rng.uniform(0.5, 2.0)
        want = tab.copy()
        want[row] /= want[row, col]
        for i in range(m):
            if i != row and abs(want[i, col]) > 0.0:
                want[i] -= want[i, col] * want[row]
        basis = [0] * m
        _pivot(tab, basis, row, col)
        assert np.array_equal(tab, want) and basis[row] == col


def test_lp_examples():
    one = packing_solve(np.ones((1, 1)))
    assert (one.values, one.objective, one.duals) == ((1.0,), 1.0, (1.0,))
    assert packing_solve(np.zeros((0, 0))) == lp.LPSolution((), 0.0, (), 0)
    assert packing_solve(np.zeros((2, 0))) == lp.LPSolution((), 0.0, (0.0, 0.0), 0)
    eye = packing_solve(np.eye(4, dtype=bool))
    assert eye.objective == 4.0 and eye.values == eye.duals == (1.0,) * 4
    full = packing_solve(np.ones((3, 5)))
    assert full.objective == pytest.approx(1.0)
    assert_optimal(np.ones((3, 5)), full)
    got = packing_solve(FANO)
    assert got.objective == pytest.approx(7 / 3)
    assert_optimal(FANO, got)


def test_degenerate_ties_reach_an_optimum():
    # Every rhs of the cover is -1, so the first leaving row ties with every
    # other, and equal rows and columns tie the entering test too.
    got = packing_solve(np.ones((2, 2)))
    assert got.objective == pytest.approx(1.0)
    assert_optimal(np.ones((2, 2)), got)
    mat = np.array([[1.0, 0.0, 1.0], [1.0, 1.0, 0.0], [0.0, 1.0, 1.0]])
    got = packing_solve(mat)
    assert got.objective == pytest.approx(1.5)
    assert_optimal(mat, got)
    assert got.values == pytest.approx((0.5, 0.5, 0.5))
    # Duplicate rows and columns: the optimum is degenerate and its duals
    # are not unique.
    twins = np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    got = packing_solve(twins)
    assert got.objective == pytest.approx(2.0)
    assert_optimal(twins, got)


def test_cost_row_carries_the_reduced_costs():
    # The tableau's last row starts as the perturbed class costs and rides
    # through every pivot; after each one it must equal the reduced costs
    # recomputed from the basis, cost - cost[basis] @ lhs, up to rounding.
    rng = np.random.default_rng(29)
    mats = [random_packing(rng) for _ in range(200)]
    mats.append(candidate_classes(pg22_twice()).matrix())
    for mat in mats:
        m, n = mat.shape
        cost = np.zeros(m + n)
        cost[:m] = lp.class_costs(m)
        drift = []

        def check(tab, basis, row, col):
            _pivot(tab, basis, row, col)
            want = cost - cost[basis] @ tab[:n, : m + n]
            drift.append(np.abs(tab[n, : m + n] - want).max())

        with mock.patch.object(lp, "_pivot", check):
            packing_solve(mat)
        assert drift and max(drift) <= 1e-12


def test_refactoring_keeps_the_optimum(monkeypatch):
    # Rebuilt from the matrix after every pivot, the tableau still ends on
    # an optimum, HiGHS's.
    monkeypatch.setattr(lp, "REFACTOR_EVERY", 1)
    rng = np.random.default_rng(31)
    for _ in range(100):
        mat = random_packing(rng)
        got = packing_solve(mat)
        assert_optimal(mat, got)
        assert got.objective == pytest.approx(highs(mat)[0], abs=1e-9)


def test_refactor_raises_when_the_basic_values_drift(monkeypatch):
    # Pivots that move one basic value past its exact update: the next
    # refactor takes the rebuilt values when the tableau is off by at most
    # DRIFT_TOL, and stops when it is off by more.
    def drifting(step):
        def pivot(tab, basis, row, col):
            _pivot(tab, basis, row, col)
            tab[0, -1] += step
        return pivot

    monkeypatch.setattr(lp, "REFACTOR_EVERY", 1)
    monkeypatch.setattr(lp, "_pivot", drifting(1e-9))
    assert_optimal(FANO, packing_solve(FANO))
    monkeypatch.setattr(lp, "_pivot", drifting(1e-3))
    with pytest.raises(PipelineError, match=r"^lps: basic values drifted by 0\.001 from the tableau's$"):
        packing_solve(FANO)


def test_pivot_budget_raises_naming_the_stage_pivots_rows_and_columns(monkeypatch):
    pivots = packing_solve(FANO).pivots
    assert 1 < pivots <= lp.PIVOT_BUDGET * 14
    # A budget of pivots - 1.5 stops the solve before its last pivot.
    monkeypatch.setattr(lp, "PIVOT_BUDGET", (pivots - 1.5) / 14)
    with pytest.raises(PipelineError, match=(
            rf"^lps: no optimum after {pivots - 1} pivots on 7 rows and 7 columns$")):
        packing_solve(FANO)


def test_an_optimum_only_for_the_perturbed_costs_raises(monkeypatch):
    # Class 0 holds both bodies, and classes 1 and 2 one each. At these
    # costs classes 1 and 2 cover for less than class 0, so the final basis
    # prices the packing at 2 on class 0: a basis that is not optimal once
    # the costs are 1 again, which packing_solve must not return.
    monkeypatch.setattr(lp, "class_costs", lambda m: [1.0, 0.3, 0.3])
    with pytest.raises(ArithmeticError, match="^simplex returned an infeasible optimum$"):
        packing_solve(np.array([[1.0, 1.0], [1.0, 0.0], [0.0, 1.0]]))


def test_zero_column_raises():
    with pytest.raises(ValueError, match="unbounded in column 1"):
        packing_solve(np.array([[1.0, 0.0], [1.0, 0.0]]))
    with pytest.raises(ValueError, match="unbounded"):
        packing_solve(np.zeros((0, 2)))


def test_lp_matches_scipy_randomized():
    rng = np.random.default_rng(7)
    for _ in range(300):
        mat = random_packing(rng)
        want, _ = highs(mat)
        assert packing_solve(mat).objective == pytest.approx(want, abs=1e-7)


def test_lp_optimal_solutions_are_feasible():
    # Up to the size of the bench's class matrices (79 x 39).
    rng = np.random.default_rng(19)
    for _ in range(40):
        k, n = int(rng.integers(20, 80)), int(rng.integers(10, 40))
        mat = rng.random((k, n)) < rng.uniform(0.1, 0.5)
        mat[rng.integers(k, size=n), np.arange(n)] = True
        assert_primal(mat, packing_solve(mat))


def test_lp_duality_pair():
    # The packing is read off the cover's tableau; both must be optimal
    # solutions of their programs on their own.
    rng = np.random.default_rng(2)
    for _ in range(300):
        mat = random_packing(rng)
        assert_dual(mat, packing_solve(mat))


def test_lp_duals_match_highs():
    # The duals are unique when the optimal basis is nondegenerate (every
    # basic variable, structural or slack, is positive); there they must
    # match HiGHS.  Degenerate optima still meet assert_optimal.
    rng = np.random.default_rng(23)
    unique = degenerate = 0
    for _ in range(400):
        mat = random_packing(rng)
        got = packing_solve(mat)
        x = np.asarray(got.values)
        positive = np.sum(x > 1e-9) + np.sum(1.0 - mat @ x > 1e-9)
        _, want = highs(mat)
        assert_optimal(mat, got)
        if positive == mat.shape[0]:
            np.testing.assert_allclose(got.duals, want, rtol=1e-7, atol=1e-9)
            unique += 1
        else:
            degenerate += 1
    assert unique >= 50 and degenerate >= 50, (unique, degenerate)


@st.composite
def degenerate_packings(draw):
    """A small 0/1 matrix with no zero column, with repeated rows and
    columns, so that the ratio test ties and pivots are degenerate."""
    k, n = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    cells = draw(st.lists(st.booleans(), min_size=k * n, max_size=k * n))
    mat = np.array(cells, dtype=bool).reshape(k, n)
    mat[draw(st.lists(st.integers(0, k - 1), min_size=n, max_size=n)), np.arange(n)] = True
    rows = draw(st.lists(st.integers(0, k - 1), max_size=3))
    cols = draw(st.lists(st.integers(0, n - 1), max_size=3))
    mat = np.vstack([mat, mat[rows]])
    return np.hstack([mat, mat[:, cols]])


@settings(max_examples=300, deadline=None)
@given(degenerate_packings())
def test_packing_solve_is_the_loop_scan_reference(mat):
    # Same leaving and entering choices: the same pivots, in the same
    # number, and so the same solution to the bit.
    got = []
    for solve in (packing_solve, reference_packing_solve):
        with mock.patch.object(lp, "_pivot", wraps=lp._pivot) as pivot:
            got.append((solve(mat), pivot.call_count))
    (sol, pivots), (want, want_pivots) = got
    assert pivots == want_pivots == sol.pivots == want.pivots < lp.REFACTOR_EVERY
    assert (sol.values, sol.objective, sol.duals) == (want.values, want.objective, want.duals)


@st.composite
def pg_incidences(draw):
    """Up to three copies of the point-line incidence matrix of PG(2, q),
    side by side, each with its points in its own order, and the columns
    then shuffled: degenerate 0/1 programs like those of PG unions."""
    q = draw(st.sampled_from([2, 3, 5]))
    size, lines = pg_lines(q)
    inc = np.zeros((size, size))
    for j, line in enumerate(lines):
        inc[line, j] = 1.0
    mat = np.hstack([inc[draw(st.permutations(range(size)))] for _ in range(draw(st.integers(1, 3)))])
    return mat[:, draw(st.permutations(range(mat.shape[1])))]


@settings(max_examples=60, deadline=None)
@given(pg_incidences())
def test_shuffled_pg_incidences_reach_the_highs_optimum(mat):
    got = packing_solve(mat)
    assert_optimal(mat, got)
    assert got.objective == pytest.approx(highs(mat)[0], abs=1e-9)


def test_a_pg_union_of_156_bodies_solves_within_the_budget():
    # Twelve turned copies of PG(2, 3), drawn as the bench's pg_union(3, 12)
    # draws them: 156 bodies and 897 classes. A primal simplex with Bland's
    # rule ran for minutes on such a class matrix without an optimum.
    rng = np.random.default_rng(0)
    size = pg_lines(3)[0]
    copies = [(TWO_PI / size * (c + rng.uniform(0.2, 0.8)) / 12, rng.permutation(size))
              for c in range(12)]
    polygons = pg_union_polygons(3, copies)
    mat = candidate_classes([ConvexBody.from_vertices(i, v) for i, v in enumerate(polygons)]).matrix()
    assert mat.shape == (897, 156)
    start = time.perf_counter()
    got = packing_solve(mat)
    seconds = time.perf_counter() - start
    assert abs(got.objective - highs(mat)[0]) <= DUALITY_TOL
    assert_primal(mat, got)
    assert seconds < 2.0, seconds
