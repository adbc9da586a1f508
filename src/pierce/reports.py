"""Report files and the independent recheck of a finished run.

A report is the JSON form of a TransversalReport.  verify_report loads one
next to its instance and re-derives every claim from scratch: geometry of
the output points, the dual program values, exact integer feasibility of
the multiplicities, and the heavy-point accounting, whose recount may
exceed neither D nor the heaviest class load max(classes.matrix() @ m).
It trusts nothing in the file beyond the numbers it is checking.
"""

from __future__ import annotations

import json
import math

import numpy as np

from .geometry import TOL_GEOM, body_contains, containment_matrix
from .instances import Instance
from .pipeline import DUALITY_TOL, TransversalReport, candidate_classes, solve_lp_pair

REQUIRED_KEYS = ("transversal", "tau_star", "m", "D", "z", "coverage", "flags")


def save_report(report: TransversalReport | dict, path: str) -> None:
    data = report.to_dict() if isinstance(report, TransversalReport) else report
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=1)
        fh.write("\n")


def load_report(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def verify_report(instance: Instance, report: dict) -> list[str]:
    """Re-derive every claim in the report; returns failure descriptions."""
    failures: list[str] = []
    for key in REQUIRED_KEYS:
        if key not in report:
            failures.append(f"missing key {key!r}")
    if failures:
        return failures

    bodies = instance.bodies
    filtered = set(int(i) for i in report.get("filtered", []))
    active = [b for i, b in enumerate(bodies) if i not in filtered]
    if not active:
        return ["no active bodies left after the filtered list"]

    m = [int(v) for v in report["m"]]
    d = int(report["D"])
    if len(m) != len(active):
        failures.append(f"m has {len(m)} entries for {len(active)} active bodies")
        return failures
    if d < 1 or any(v < 0 for v in m):
        failures.append("multiplicities must be nonnegative with D >= 1")
    total = sum(m)
    cov = report["coverage"]
    if total != int(cov["multiset_size"]):
        failures.append(
            f"multiset size {cov['multiset_size']} != sum of multiplicities {total}"
        )

    transversal = [tuple(float(v) for v in pt) for pt in report["transversal"]]
    if not transversal:
        failures.append("empty transversal")
    else:
        inside = containment_matrix(bodies, transversal, TOL_GEOM)
        missed = [bodies[i].id for i in range(len(bodies)) if not inside[:, i].any()]
        if missed:
            failures.append(f"transversal misses bodies {missed}")

    classes = candidate_classes(active)
    ft, fp = solve_lp_pair(classes)
    if abs(ft.size - fp.size) > DUALITY_TOL:
        failures.append(f"duality gap {abs(ft.size - fp.size):.3e}")
    if abs(float(report["tau_star"]) - ft.size) > DUALITY_TOL:
        failures.append(
            f"tau_star {report['tau_star']} != re-solved value {ft.size:.9f}"
        )

    loads = classes.matrix() @ np.asarray(m, dtype=np.int64)
    for sig, load in zip(classes.signatures, loads.tolist()):
        if load > d:
            failures.append(f"multiplicity sum {load} > D={d} at class {sorted(sig)}")
            break

    z = report["z"]
    if z is None:
        failures.append("missing heavy point")
    else:
        zx, zy = float(z[0]), float(z[1])
        recount = sum(
            m[i] for i, b in enumerate(active) if body_contains(b, (zx, zy), TOL_GEOM)
        )
        if recount != int(cov["count"]):
            failures.append(
                f"heavy point covers {recount} copies, report says {cov['count']}"
            )
        if recount > d:
            failures.append(f"heavy coverage {recount} exceeds D={d}")
        best_load = int(loads.max())
        if recount > best_load:
            failures.append(
                f"heavy coverage {recount} exceeds the best class load {best_load}"
            )
        if total > 0:
            eps = recount / total
            if abs(eps - float(cov["epsilon"])) > 1e-9:
                failures.append(f"epsilon mismatch: {eps} vs {cov['epsilon']}")
            if eps == 0:
                failures.append("heavy point covers no copy")
            else:
                slack = len(active) / d + 1e-9
                if ft.size > 1.0 / eps + slack:
                    failures.append(
                        f"tau_star {ft.size:.6f} above 1/epsilon + slack "
                        f"{1.0 / eps + slack:.6f}"
                    )

    if not math.isfinite(float(report["tau_star"])):
        failures.append("tau_star is not finite")
    return failures
