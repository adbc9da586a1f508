"""Correctness gate: rechecks run outputs outside the timed region.

Each check returns a list of problem strings, empty when the output holds.
The oracles are independent of pierce's own verifier: scipy HiGHS for the
LP optimum and sympy for real-root counts.
"""

from __future__ import annotations

import numpy as np

from pierce.geometry import containment_matrix
from pierce.highdim import MOMENT
from pierce.instances import Instance
from pierce.pipeline import CandidateClasses, candidate_classes

TAU_TOL = 1e-6


def report_classes(instance: Instance, report: dict) -> CandidateClasses:
    """Candidate classes of the bodies the report did not filter out."""
    filtered = {int(i) for i in report["filtered"]}
    return candidate_classes([b for i, b in enumerate(instance.bodies) if i not in filtered])


def highs_tau_star(classes: CandidateClasses) -> float:
    """Fractional transversal number of the class matrix, solved by HiGHS."""
    from scipy.optimize import linprog

    mat = classes.matrix().astype(float)  # (classes, bodies)
    res = linprog(
        np.ones(mat.shape[0]),
        A_ub=-mat.T,
        b_ub=-np.ones(mat.shape[1]),
        bounds=(0, None),
        method="highs",
    )
    if res.status != 0:
        raise ArithmeticError(f"HiGHS cover LP ended with status {res.status}")
    return float(res.fun)


def check_solve(instance: Instance, report: dict, tau_highs: float) -> list[str]:
    """Transversal hits every body, and tau* matches HiGHS on the classes."""
    problems = []
    points = [tuple(float(v) for v in pt) for pt in report["transversal"]]
    hit = (
        containment_matrix(instance.bodies, points).any(axis=0)  # one entry per body
        if points
        else np.zeros(len(instance.bodies), dtype=bool)
    )
    missed = [b.id for b, ok in zip(instance.bodies, hit) if not ok]
    if missed:
        problems.append(f"bodies {missed} contain no transversal point")
    tau = float(report["tau_star"])
    if abs(tau - tau_highs) > TAU_TOL:
        problems.append(f"tau* {tau!r} but HiGHS gives {tau_highs!r}")
    if instance.meta.get("kind") == "pg-union" and not tau > 1.0 + TAU_TOL:
        problems.append(f"PG union admitted with tau* {tau!r} <= 1")
    return problems


def moment_roots(normal, offset) -> int:
    """Distinct real roots of offset = sum normal[k-1] t^k, counted by sympy."""
    import sympy

    t = sympy.Symbol("t")
    expr = -sympy.Rational(offset) + sum(
        sympy.Rational(c) * t ** (k + 1) for k, c in enumerate(normal)
    )
    return int(sympy.Poly(expr, t).count_roots())


def check_crossing(case, count: int, expected: int | None) -> list[str]:
    """Moment: equals the sympy count. Closed: even and at most d."""
    if case.kind == MOMENT:
        if count != expected:
            return [f"moment d={case.d}: {count} crossings, sympy counts {expected}"]
        return []
    if count > case.d or count % 2:
        return [f"closed d={case.d}: {count} crossings is odd or above d"]
    return []
