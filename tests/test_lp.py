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
    assert got.status == "optimal" and got.objective == 0.0 and got.duals == ()
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


def highs_duals(problem: LPProblem) -> np.ndarray:
    """HiGHS row marginals as rates of change of the objective in each rhs."""
    sign = 1.0 if problem.direction == "min" else -1.0
    flip = np.array([1.0 if s == LEQ else -1.0 for s in problem.senses])
    res = linprog(
        sign * np.asarray(problem.objective),
        A_ub=flip[:, None] * np.asarray(problem.rows),
        b_ub=flip * np.asarray(problem.rhs),
        method="highs",
    )
    assert res.status == 0
    return sign * flip * res.ineqlin.marginals


def assert_optimal_duals(problem: LPProblem, got) -> None:
    """Dual feasibility, strong duality and complementary slackness."""
    a, b = np.asarray(problem.rows), np.asarray(problem.rhs)
    c, x, y = np.asarray(problem.objective), np.asarray(got.values), np.asarray(got.duals)
    # A max problem's objective grows with a LEQ row's rhs and shrinks with a
    # GEQ row's; a min problem's the other way round.
    grows = np.array([s == LEQ for s in problem.senses]) == (problem.direction == "max")
    assert np.all(np.where(grows, y, -y) >= -1e-9)
    reduced = c - a.T @ y
    assert np.all((reduced if problem.direction == "min" else -reduced) >= -1e-9)
    assert float(y @ b) == pytest.approx(got.objective, abs=1e-8)
    assert np.abs(y * (b - a @ x)).max() <= 1e-8
    assert np.abs(x * reduced).max() <= 1e-8


def test_lp_duals_match_highs():
    rng = np.random.default_rng(23)
    seen = {"min": 0, "max": 0, "geq": 0, "flipped": 0, "split": 0}
    for _ in range(400):
        n, m = int(rng.integers(1, 6)), int(rng.integers(1, 7))
        rows = rng.uniform(-5, 5, size=(m, n))
        senses = [str(s) for s in rng.choice([LEQ, GEQ], size=m)]
        rhs = rng.uniform(-5, 5, size=m)
        direction = "min" if rng.random() < 0.5 else "max"
        p = LPProblem(tuple(rng.uniform(-5, 5, size=n)), rows, senses, rhs, direction)
        got = lp_solve(p)
        if got.status != "optimal":
            continue
        want = highs_duals(p)
        assert len(got.duals) == m
        np.testing.assert_allclose(got.duals, want, rtol=1e-6, atol=1e-7)
        assert_optimal_duals(p, got)
        live = np.abs(want) > 1e-6
        seen[direction] += 1
        seen["geq"] += int(np.any(live & (np.asarray(senses) == GEQ)))
        seen["flipped"] += int(np.any(live & (rhs < 0)))
        if not live.any():
            continue
        # A redundant copy of a binding row, scaled by s (s < 0 flips its
        # sense and the sign of its rhs).  The copy is kept as its own row,
        # and the two duals share the original's: y_r + s * y_copy.
        r = int(np.flatnonzero(live)[0])
        s = float(rng.choice([2.0, -1.0]))
        sense = senses[r] if s > 0 else (GEQ if senses[r] == LEQ else LEQ)
        twin = LPProblem(
            p.objective, np.vstack([rows, s * rows[r]]), senses + [sense],
            np.append(rhs, s * rhs[r]), direction,
        )
        split = lp_solve(twin)
        assert split.status == "optimal"
        assert split.objective == pytest.approx(got.objective, abs=1e-7)
        duals = np.asarray(split.duals)
        np.testing.assert_allclose(duals[:r], want[:r], rtol=1e-6, atol=1e-7)
        np.testing.assert_allclose(duals[r + 1 : m], want[r + 1 :], rtol=1e-6, atol=1e-7)
        assert duals[r] + s * duals[m] == pytest.approx(want[r], rel=1e-6, abs=1e-7)
        assert_optimal_duals(twin, split)
        seen["split"] += 1
    assert min(seen.values()) >= 20, seen
