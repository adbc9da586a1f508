import numpy as np
import pytest
from scipy.optimize import linprog

from pierce.lp import GEQ, LEQ, TOL_LP, LPProblem, LPSolution, _pivot, lp_solve


def solve_with_scipy(problem: LPProblem):
    """Reference answer via scipy's HiGHS backend."""
    sign = 1.0 if problem.direction == "min" else -1.0
    c = sign * np.asarray(problem.objective)
    a_ub, b_ub = [], []
    for row, sense, rhs in zip(problem.rows, problem.senses, problem.rhs):
        if sense == LEQ:
            a_ub.append(list(row))
            b_ub.append(rhs)
        else:
            a_ub.append([-v for v in row])
            b_ub.append(-rhs)
    res = linprog(c, A_ub=a_ub or None, b_ub=b_ub or None, method="highs")
    if res.status == 2:
        return "infeasible", None
    if res.status == 3:
        return "unbounded", None
    assert res.status == 0
    return "optimal", sign * res.fun


def test_pivot_matches_row_loop():
    # the rank-1 update does the same per-entry arithmetic as eliminating
    # the pivot column row by row, so the tableaus agree exactly
    rng = np.random.default_rng(5)
    for _ in range(50):
        m, k = rng.integers(1, 8), rng.integers(2, 10)
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
    assert lp_solve(LPProblem((1,), ((1,),), (LEQ,), (3,), "max")).objective == pytest.approx(3)
    assert lp_solve(LPProblem((0,), ((1,),), (LEQ,), (-1,), "min")).status == "infeasible"
    assert lp_solve(LPProblem((1,), ((1,),), (GEQ,), (1,), "max")).status == "unbounded"


def test_lp_validation():
    with pytest.raises(ValueError):
        LPProblem((), (), (), ())
    with pytest.raises(ValueError):
        LPProblem((1, 2), ((1,),), (LEQ,), (1,))
    with pytest.raises(ValueError):
        LPProblem((1,), ((1,),), ("==",), (1,))
    with pytest.raises(ValueError):
        LPProblem((1,), ((1,),), (LEQ,), (float("nan"),))
    with pytest.raises(ValueError):
        LPProblem((1,), ((1,),), (LEQ,), (1,), "solve")


def test_lp_no_constraints():
    got = lp_solve(LPProblem((2.0, 1.0), (), (), (), "min"))
    assert got.status == "optimal" and got.objective == 0.0
    assert lp_solve(LPProblem((2.0, 1.0), (), (), (), "max")).status == "unbounded"


def test_lp_cover_shape():
    # Minimum fractional cover of one "body" containing both candidates.
    p = LPProblem(
        objective=(1.0, 1.0),
        rows=((1.0, 1.0),),
        senses=(GEQ,),
        rhs=(1.0,),
        direction="min",
    )
    got = lp_solve(p)
    assert got.status == "optimal"
    assert got.objective == pytest.approx(1.0)


def test_lp_beale_cycling_guard():
    # Beale's classic degenerate example; Bland's rule must terminate.
    p = LPProblem(
        objective=(-0.75, 150.0, -0.02, 6.0),
        rows=(
            (0.25, -60.0, -0.04, 9.0),
            (0.5, -90.0, -0.02, 3.0),
            (0.0, 0.0, 1.0, 0.0),
        ),
        senses=(LEQ, LEQ, LEQ),
        rhs=(0.0, 0.0, 1.0),
        direction="min",
    )
    got = lp_solve(p)
    assert got.status == "optimal"
    assert got.objective == pytest.approx(-0.05)


def test_lp_duality_pair():
    # Primal min c@x, Ax >= b versus dual max b@y, A^T y <= c.
    rng = np.random.default_rng(2)
    for _ in range(50):
        n, m = int(rng.integers(2, 6)), int(rng.integers(2, 6))
        a = rng.uniform(0.2, 3.0, size=(m, n))
        b = rng.uniform(0.5, 2.0, size=m)
        c = rng.uniform(0.5, 2.0, size=n)
        primal = lp_solve(
            LPProblem(tuple(c), tuple(map(tuple, a)), (GEQ,) * m, tuple(b), "min")
        )
        dual = lp_solve(
            LPProblem(tuple(b), tuple(map(tuple, a.T)), (LEQ,) * n, tuple(c), "max")
        )
        assert primal.status == "optimal" and dual.status == "optimal"
        assert primal.objective == pytest.approx(dual.objective, abs=1e-6)


def test_lp_matches_scipy_randomized():
    rng = np.random.default_rng(7)
    statuses = {"optimal": 0, "infeasible": 0, "unbounded": 0}
    for _ in range(200):
        n = int(rng.integers(1, 7))
        m = int(rng.integers(1, 9))
        rows = tuple(tuple(rng.uniform(-5, 5, size=n).tolist()) for _ in range(m))
        senses = tuple(rng.choice([LEQ, GEQ]) for _ in range(m))
        rhs = tuple(rng.uniform(-5, 5, size=m).tolist())
        obj = tuple(rng.uniform(-5, 5, size=n).tolist())
        direction = "min" if rng.random() < 0.5 else "max"
        p = LPProblem(obj, rows, senses, rhs, direction)
        got = lp_solve(p)
        want_status, want_obj = solve_with_scipy(p)
        assert got.status == want_status, (p, got)
        statuses[got.status] += 1
        if want_status == "optimal":
            assert got.objective == pytest.approx(want_obj, abs=1e-6)
    # The generator must exercise all three outcomes to mean anything.
    assert min(statuses.values()) >= 5


def test_lp_optimal_solutions_are_feasible():
    rng = np.random.default_rng(19)
    for _ in range(60):
        n = int(rng.integers(1, 6))
        m = int(rng.integers(1, 7))
        rows = tuple(tuple(rng.uniform(-4, 4, size=n).tolist()) for _ in range(m))
        senses = tuple(rng.choice([LEQ, GEQ]) for _ in range(m))
        rhs = tuple(rng.uniform(-3, 5, size=m).tolist())
        obj = tuple(rng.uniform(-2, 2, size=n).tolist())
        got = lp_solve(LPProblem(obj, rows, senses, rhs, "min"))
        if got.status != "optimal":
            continue
        x = np.asarray(got.values)
        assert np.all(x >= -TOL_LP)
        for row, sense, b in zip(rows, senses, rhs):
            lhs = float(np.dot(row, x))
            if sense == LEQ:
                assert lhs <= b + TOL_LP
            else:
                assert lhs >= b - TOL_LP
