"""Report files and the independent recheck of a finished run.

A report is the JSON form of a TransversalReport, laid out as
pipeline.SHAPES lists it.  pipeline parses that table once, into PATHS,
HEADS and OBJECTS, for its three readers: TransversalReport.to_dict writes a
report by that parse, _shape_failures checks one against it, and pierce plot
takes its transversal check from it; no module parses SHAPES again.
verify_report loads a report next to its instance and re-derives every
claim from scratch: which bodies miss the curve, geometry of the output
points, tau_star from the report's LP certificate, exact integer
feasibility of the multiplicities, the heavy-point accounting, and the
flags, by the rules run_pipeline writes them with (pipeline.flag_values).
The report claims the heaviest point, so its recount must equal the
heaviest load max(rows @ m) over the candidate rows, the bodies
containing each candidate point, and may not exceed D.  Only the bodies with a nonzero multiplicity or packing weight
load a point, so the candidate points are those of that weighted
sub-family.  The certificate is a cover (points with weights) and a
packing (one weight per active body);
verify_report proves tau_star by weak duality from containment and the
candidate rows' loads alone, builds no classes and solves no linear
program.  It trusts nothing in the file beyond the numbers it is checking.
"""

from __future__ import annotations

import json
from collections import Counter

import numpy as np

from .geometry import candidate_points, containment_matrix
from .instances import Instance, write_text
from .pipeline import (HEADS, OBJECTS, PATHS, TransversalReport, certificate_failures, flag_values,
                       validate)


def save_report(report: TransversalReport, path: str | None) -> None:
    """Writes the report's JSON to the file at path, or to stdout when
    path is None (instances.write_text)."""
    write_text(json.dumps(report.to_dict(), indent=1), path)


def load_report(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def verify_report(instance: Instance, report: dict) -> list[str]:
    """Re-derive every claim in the report; returns failure descriptions.

    A report that cannot be read (not an object, a missing key, a value of
    the wrong type) fails with a description too, and raises nothing.

    Class loads are read off the candidate rows, row k holding the active
    bodies that contain candidate point k, and no classes are built.  The
    candidate points are those of the weighted bodies W: the active bodies
    whose m entry, or whose packing entry when the packing has one per
    active body, is nonzero.  A negative packing entry counts too, since
    any superset of the weights' support will do.  When W is empty or m has
    a negative entry, the candidates are every active body's.

    With nonnegative weights supported on W, a point's load is the weight
    of the W-bodies that contain it.  Those bodies lie in a maximal class
    of the W sub-family, and candidate_points(W) keeps the lowest vertex of
    that class's cell (Farkas' lemma, and Caratheodory's theorem in the
    plane), a point in all of them.  So the heaviest row weighs as much as
    the heaviest class of the whole arrangement, and no row weighs more,
    save classes of bodies that meet only within TOL_GEOM (see
    candidate_points' docstring).  This holds for the packing, which
    certificate_failures clips at 0, and for m >= 0.  A negative m fails on
    its own, so the rows that are no class can only add lines to a report
    that fails already.  W's candidates are a subsequence of the whole
    family's, with the same floats, so every row read here is one of the
    full list's rows; where rows tie for the heaviest load, the one named
    may differ from the full list's first.

    Like solve, verify runs in the curve's frame: pipeline.validate maps
    the instance's bodies there, and CurveModel.to_unit_points the report's
    points, which are in the input's frame. A transversal is a set, so one
    that repeats a point fails.

    The flags are rechecked by pipeline.flag_values, the rules solve
    writes them with, on the numbers verify re-derives: the skip rule for
    condition_checked, the certificate's verdict for duality_ok, the
    heaviest m-load and the recount at z for rounding_feasible_exact and
    coverage_le_denominator, sum(m), D and tau_star for
    tau_epsilon_consistent, the transversal's size less the filtered
    bodies for greedy_within_log_bound, and the missed bodies for
    all_bodies_hit. Each flag whose value differs fails with a line naming
    it, and the checks above read the same verdicts. condition_holds is
    taken as given: rechecking it would cost the meet graph and verify_p2
    on every checked family, about 25% more verify time on pg-union
    families (README, Reports).
    """
    failures = _shape_failures(report)
    if failures:
        return failures
    tau_star = float(report["tau_star"])

    bodies, filtered, active, p_eff = validate(instance.bodies, instance.curve, instance.p)
    claimed, filtered = report["filtered"], list(filtered)
    if claimed != filtered:
        failures.append(f"filtered {claimed}, but the bodies missing the curve are {filtered}")
    if report["p_effective"] != p_eff:
        failures.append(
            f"p_effective {report['p_effective']} != max(2, p - {len(filtered)}) = {p_eff}"
        )
    if not active:
        return failures + ["no body meets the curve"]

    m = report["m"]
    d = report["D"]
    if len(m) != len(active):
        failures.append(f"m has {len(m)} entries for {len(active)} active bodies")
        return failures
    nonnegative = all(v >= 0 for v in m)
    if d < 1 or not nonnegative:
        failures.append("multiplicities must be nonnegative with D >= 1")
    if sum(map(abs, m)) > 2**63 - 1:
        # The loads below are int64 sums of entries of m, which could wrap.
        return failures + ["multiplicities sum past 2**63 - 1"]
    total = sum(m)
    cov = report["coverage"]
    if total != cov["multiset_size"]:
        failures.append(
            f"multiset size {cov['multiset_size']} != sum of multiplicities {total}"
        )
    if total == 0:
        failures.append("multiset is empty: m sums to 0")

    # The weighted bodies' candidates carry the heaviest loads (see above).
    lp = report["lp"]
    packing = lp["packing"] if len(lp["packing"]) == len(active) else [0] * len(active)
    weighted = [b for b, w, x in zip(active, m, packing) if w or x] if nonnegative else []
    candidates = candidate_points(weighted or active)
    given = report["transversal"] + lp["cover_points"] + [report["z"]]
    # One containment call for every point checked, in the curve's frame:
    # the transversal against all bodies, the rest read on the active
    # bodies' columns.
    given = instance.curve.to_unit_points(np.asarray(given, dtype=float).reshape(-1, 2))
    inside = containment_matrix(bodies, np.concatenate([given, candidates]))
    n_t = len(report["transversal"])
    n_c = n_t + len(lp["cover_points"])
    hit = inside[:n_t]
    if filtered:
        inside = np.delete(inside, filtered, axis=1)
    cover_rows, z_row, rows = inside[n_t:n_c], inside[n_c], inside[n_c + 1:]

    missed = [bodies[i].id for i in np.flatnonzero(~hit.any(axis=0))]
    if not report["transversal"]:
        failures.append("empty transversal")
    else:
        if missed:
            failures.append(f"transversal misses bodies {missed}")
        points = list(map(tuple, report["transversal"]))
        if len(set(points)) < len(points):
            repeated = [list(pt) for pt, k in Counter(points).items() if k > 1]
            failures.append(f"transversal repeats points {repeated}")

    n_cover, n_packing = len(lp["cover_weights"]), len(lp["packing"])
    if n_cover != len(cover_rows):
        certificate = [f"lp has {n_cover} cover weights for {len(cover_rows)} cover points"]
    elif n_packing != len(active):
        certificate = [f"lp packing has {n_packing} entries for {len(active)} active bodies"]
    else:
        certificate = certificate_failures([b.id for b in active], cover_rows,
                                           lp["cover_weights"], rows, lp["packing"], tau_star)
    failures += certificate

    weights = np.asarray(m, dtype=np.int64)
    loads = rows @ weights
    top = int(np.argmax(loads))
    best_load = int(loads[top])
    recount = int(z_row @ weights)
    # None for condition_holds: verify takes it as given (see above).
    found = flag_values(p_eff, len(active), None, not certificate, best_load, recount, total, d,
                        tau_star, len(report["transversal"]) - len(filtered), missed)
    if not found["rounding_feasible_exact"]:
        members = [active[i].id for i in np.flatnonzero(rows[top])]
        failures.append(f"multiplicity sum {best_load} > D={d} at class {members}")

    if recount != cov["count"]:
        failures.append(f"heavy point covers {recount} copies, report says {cov['count']}")
    if not found["coverage_le_denominator"]:
        failures.append(f"heavy coverage {recount} exceeds D={d}")
    if recount > best_load:
        failures.append(f"heavy coverage {recount} exceeds the best class load {best_load}")
    elif recount < best_load:
        failures.append(f"heavy coverage {recount} is below the best class load {best_load}")
    if total > 0:
        eps = recount / total
        if abs(eps - float(cov["epsilon"])) > 1e-9:
            failures.append(f"epsilon mismatch: {eps} vs {cov['epsilon']}")
        if eps == 0:
            failures.append("heavy point covers no copy")
        elif d >= 1 and not found["tau_epsilon_consistent"]:  # D < 1 is reported above
            failures.append(f"tau_star {tau_star:.6f} above 1/epsilon + slack, "
                            f"epsilon = {eps:.6f} and D = {d}")

    flags = report["flags"]
    failures += [f"flag {flag} is {flags[flag]}, but verify finds {value}"
                 for flag, value in found.items() if value is not None and flags[flag] != value]
    return failures


def _shape_failures(report) -> list[str]:
    """Why the report cannot be read at all: a missing key or a wrong type."""
    if not isinstance(report, dict):
        return ["report is not a JSON object"]
    failures = [f"missing key {key!r}" for key in HEADS if key not in report]
    failures += [f"unknown key {key!r}" for key in report if key not in HEADS and key != "stages"]
    failures += [f"{key} is not a JSON object"
                 for key in OBJECTS if key in report and not isinstance(report[key], dict)]
    if failures:
        return failures
    for path, parent, key, _, what, ok in PATHS.values():
        holder = report[parent] if parent else report
        if key not in holder:
            failures.append(f"missing key {path!r}")
        elif not ok(holder[key]):
            failures.append(f"{path} is not {what}")
    return failures
