"""LP-duality rounding from fractional to integer transversals.

The chain: deduplicate candidate points into maximal containment classes,
solve the fractional transversal (the cover) by a dual simplex and read the
fractional packing (its exact dual over the same 0/1 matrix) off the
optimal tableau, check the pair as a weak-duality certificate for tau*
(lp.packing_solve raises PipelineError, naming the lps stage, on an LP
past its pivot budget or a tableau that drifts), turn the packing weights into
integer multiplicities m(S)/D, take the heavy point of the multiset with
m(S) copies of each body S, and finish with a greedy verified hitting set.
The heavy point is the point of the heaviest class: the class loads
classes @ m count the copies containing each class's point, and the bodies
containing any point lie within some maximal class (candidate_points keeps
a vertex of every cell; see its docstring), so their maximum is the most
copies any point covers.  Every stage's claim is re-checked and the outcome
recorded in the report flags rather than trusted, each by its one rule in
flag_values, which verify_report applies too; the report carries the LP
certificate so that verify_report can prove tau* without a solver.  SHAPES
is the report's one layout, parsed once into PATHS, HEADS and OBJECTS, which
its three readers walk: TransversalReport.to_dict writes the report,
verify_report's shape check reads it, and pierce plot takes its transversal
check.  The chain runs in the curve's frame, which
validate, the step that verify_report shares, sets up; the report's points
are mapped back to the input's coordinates.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .errors import PipelineError
from .geometry import (
    _INTS,
    BLOCK_CELLS,
    UNIT_CIRCLE,
    ConvexBody,
    CurveModel,
    Point2,
    _is_finite,
    body_curve_arcs,
    candidate_points,
    containment_matrix,
    lowest_common_point,
    pack,
)
from .instances import _check_p, _is_point
from .lp import TOL_LP, packing_solve
from .meetgraph import build_meet_graph, decides_p2, verify_p2

DUALITY_TOL = 1e-6
MULTISET_BUDGET = 500


@dataclass(frozen=True, eq=False)
class CandidateClasses:
    """Maximal containment classes of the candidate arrangement.

    A class whose body set is contained in another's is dominated for both
    programs: the cover can move its weight to the larger class, and the
    packing constraint at the smaller class is implied by the larger one.
    Only maximal classes are kept, each with its lowest candidate (least y,
    then least x) as its representative, in the order of their body sets
    read as binary numbers (see candidate_classes).  matrix() is the
    classes as a read-only (classes x bodies) bool matrix whose row j holds
    the bodies that contain points[j].
    """

    points: tuple[Point2, ...]
    _matrix: np.ndarray

    def matrix(self) -> np.ndarray:
        return self._matrix


def _is_list_of(ok):
    return lambda v: isinstance(v, list) and all(map(ok, v))


def _is_integer(v) -> bool:
    return type(v) in _INTS


# The booleans flag_values writes, save condition_holds, which it writes
# exactly when condition_checked is true, as a skipped check observes no
# outcome.
FLAGS = ("condition_checked", "duality_ok", "rounding_feasible_exact", "coverage_le_denominator",
         "tau_epsilon_consistent", "greedy_within_log_bound", "all_bodies_hit")


def _is_flags(v) -> bool:
    if not (isinstance(v, dict) and all(type(flag) is bool for flag in v.values())):
        return False
    return v.keys() == ({*FLAGS, "condition_holds"} if v.get("condition_checked") else set(FLAGS))


# The report's layout, in the order to_dict writes it: each dotted key path
# with the TransversalReport field its value comes from, and what
# verify_report requires of the value.  A report also holds an object at
# each dot, and stages, the stage timings, which verify reads no key of.
SHAPES = {
    "transversal": ("transversal", "a list of points", _is_list_of(_is_point)),
    "tau_star": ("tau_star", "a finite number", _is_finite),
    "m": ("multiplicities", "a list of integers", _is_list_of(_is_integer)),
    "D": ("denominator", "an integer", _is_integer),
    "z": ("heavy_point", "a point", _is_point),
    "coverage.count": ("heavy_coverage", "an integer", _is_integer),
    "coverage.epsilon": ("epsilon", "a finite number", _is_finite),
    "coverage.multiset_size": ("multiset_size", "an integer", _is_integer),
    "p_effective": ("p_effective", "an integer", _is_integer),
    "filtered": ("filtered", "a list of integers", _is_list_of(_is_integer)),
    "lp.cover_points": ("cover_points", "a list of points", _is_list_of(_is_point)),
    "lp.cover_weights": ("cover_weights", "a list of numbers", _is_list_of(_is_finite)),
    "lp.packing": ("packing", "a list of numbers", _is_list_of(_is_finite)),
    "flags": ("flags", "an object of the booleans run_pipeline writes", _is_flags),
}

# SHAPES parsed once, for its three readers (to_dict, verify's shape check
# and pierce plot): PATHS maps each path to (path, parent, key, field, what,
# ok), parent "" at the top level, so that a reader walks its values; HEADS
# holds the top-level keys in written order, and OBJECTS those of them that
# hold an object.
PATHS = {path: (path, *path.rpartition(".")[::2], *shape) for path, shape in SHAPES.items()}
HEADS = dict.fromkeys(parent or key for _, parent, key, *_ in PATHS.values())
OBJECTS = tuple(dict.fromkeys(parent for _, parent, *_ in PATHS.values() if parent))


@dataclass(frozen=True)
class TransversalReport:
    """One run's results: to_dict writes the report, laid out as SHAPES lists it."""

    transversal: tuple[Point2, ...]
    tau_star: float
    multiplicities: tuple[int, ...]
    denominator: int
    heavy_point: Point2
    heavy_coverage: int
    epsilon: float
    multiset_size: int
    p_effective: int
    filtered: tuple[int, ...]
    cover_points: tuple[Point2, ...]
    cover_weights: tuple[float, ...]
    packing: tuple[float, ...]
    flags: dict[str, bool]
    timings: dict[str, float]

    def to_dict(self) -> dict:
        """The report as JSON values, HEADS in order and then stages:
        tuples become lists, points included, and flags is copied. A
        top-level path's parent is "", which is no head, so out.get puts
        its value in out itself."""
        out = {key: {} if key in OBJECTS else None for key in HEADS}
        for _, parent, key, field, _, _ in PATHS.values():
            value = getattr(self, field)
            if isinstance(value, tuple):
                value = list(map(list, value) if value and isinstance(value[0], tuple) else value)
            out.get(parent, out)[key] = dict(value) if isinstance(value, dict) else value
        out["stages"] = dict(self.timings)
        return out


def candidate_classes(bodies: list[ConvexBody]) -> CandidateClasses:
    """The maximal containment classes of candidate_points(bodies).

    Base case: when the bodies share a point, their one maximal class is
    every body, and lowest_common_point, a linear-time LP in the plane
    (Seidel, Discrete Comput. Geom. 6, 1991), finds its point, the lowest
    candidate inside every body, without the candidate pass: the classes
    are that point and an all-true 1 x n row. The kernel answers only when
    two rows alone, neither a level edge, meet at the lowest common point;
    otherwise (no common point, a third row there, a level edge, a point
    that misses a body) it returns None and the full path below runs. The
    input chooses; there is no option.

    Full path: each candidate has a signature, the set of bodies containing
    it, packed by _signature_words into ceil(n / 64) uint64 words for n
    bodies. One stable lexsort, on the words with the most significant word
    as the primary key and then on y and x, sorts the signatures as the
    binary numbers sum(2**i for body i in the set) and the candidates of
    equal signatures in (y, x) order, so the first of each run of equal
    signatures is its lowest candidate (least y, then least x), the
    representative. _maximal_rows then drops dominated signatures, in blocks
    within BLOCK_CELLS words. That drops the empty signature of candidates
    inside no body too: every body contains a candidate, so some other
    signature exists, and the empty one lies inside it. The classes keep
    that signature order, so neither their order nor their points depend on
    the candidates' order, and a turned family has its classes in the same
    order. Bodies that contain no candidate raise
    PipelineError("candidates: no candidate inside bodies [ids]").
    """
    point = lowest_common_point(bodies)
    if point is not None:
        matrix = np.ones((1, len(bodies)), dtype=bool)
        matrix.setflags(write=False)
        return CandidateClasses((point,), matrix)
    candidates = candidate_points(bodies)
    inside = containment_matrix(bodies, candidates)
    covered = inside.any(axis=0)
    if not covered.all():
        missing = [bodies[i].id for i in np.flatnonzero(~covered)]
        raise PipelineError(f"candidates: no candidate inside bodies {missing}")
    words = _signature_words(inside)
    order = np.lexsort((candidates[:, 0], candidates[:, 1], *words.T))
    ranked = words[order]
    run = np.ones(len(order), dtype=bool)
    run[1:] = (ranked[1:] != ranked[:-1]).any(axis=1)
    first = order[run]
    chosen = first[_maximal_rows(words[first])]
    points = tuple(map(tuple, candidates[chosen].tolist()))
    matrix = inside[chosen]
    matrix.setflags(write=False)
    return CandidateClasses(points, matrix)


def _signature_words(rows: np.ndarray) -> np.ndarray:
    """Bool rows packed into little-endian uint64 words, ceil(columns / 64)
    per row and at least one, since _maximal_rows divides by the count.

    Bit j of word w holds column 64 * w + j; the bits past the last column are 0.
    """
    k, n = rows.shape
    packed = np.zeros((k, max(1, -(-n // 64)) * 8), dtype=np.uint8)
    packed[:, :-(-n // 8)] = np.packbits(rows, axis=1, bitorder="little")
    return packed.view("<u8")


def _maximal_rows(words: np.ndarray) -> np.ndarray:
    """Mask of rows not strictly contained in another row (rows are unique).

    words is a (rows, words) uint64 array of signatures as _signature_words
    packs them. Row r lies in row s when r & ~s is 0 in every word, and
    then s has the larger popcount, since the rows are unique. Domination
    by any superset implies domination by some maximal superset, so one
    pass over the rows in order of decreasing popcount, in blocks, keeps
    every maximal row: each block is tested against the maximal rows kept
    from earlier blocks, and then its survivors against each other, where
    a row lies in itself once and in no other survivor unless dominated.
    The blocks, and the steps over the kept rows, have one size,
    isqrt(BLOCK_CELLS // words) rows and at least one, so that the
    (rows, rows, words) temporaries hold at most BLOCK_CELLS words, or one
    row's words when a row is longer.
    """
    k, w = words.shape
    pop = np.unpackbits(words.view(np.uint8), axis=1).sum(axis=1, dtype=np.int64)
    order = np.argsort(-pop, kind="stable")
    ranked = words[order]
    keep = np.zeros(k, dtype=bool)
    outside = ~ranked  # ~s for each row s; the kept ones are packed to the front
    n_kept = 0
    rows = max(1, math.isqrt(BLOCK_CELLS // w))
    for lo in range(0, k, rows):
        part = ranked[lo:lo + rows, None, :]
        hit = np.zeros(len(part), dtype=bool)
        for top in range(0, n_kept, rows):
            hit |= ((part & outside[top:min(top + rows, n_kept)]) == 0).all(axis=2).any(axis=1)
            if hit.all():
                break
        else:
            # Some rows survived the kept ones: test them against each other.
            live = np.flatnonzero(~hit)
            inner = ((part[live] & outside[lo + live]) == 0).all(axis=2).sum(axis=1)
            live = live[inner == 1]
            keep[lo + live] = True
            outside[n_kept:n_kept + len(live)] = outside[lo + live]
            n_kept += len(live)
    out = np.empty(k, dtype=bool)
    out[order] = keep
    return out


def certificate_failures(
    ids, cover_rows: np.ndarray, cover_weights, class_rows: np.ndarray, packing, tau_star
) -> list[str]:
    """Check an LP certificate for tau_star; returns failure descriptions.

    cover_rows[j, i] says whether cover point j lies in body i, class_rows
    likewise for the candidate classes, and ids names the bodies.  Weights
    are clipped at 0 first, so a negative weight can neither lower a sum nor
    raise a load.  The clipped cover y, whose lightest body gets weight h,
    scaled by 1/min(1, h) is a feasible cover; the clipped packing x, whose
    heaviest class has load L, scaled by 1/max(1, L) is a feasible packing.
    By weak duality sum(x)/max(1, L) <= tau* <= sum(y)/min(1, h), and
    tau_star passes when it lies within DUALITY_TOL of both bounds, which
    puts it within DUALITY_TOL of tau*.  Body weights, class loads, negative
    weights and the two sums are each checked against DUALITY_TOL too.
    """
    # Python floats for the scalar checks: the weight lists are short, and
    # numpy's per-call cost would outweigh them.
    y = [float(v) for v in cover_weights]
    x = [float(v) for v in packing]
    if not (all(map(math.isfinite, y)) and all(map(math.isfinite, x))):
        return ["LP certificate weights are not finite"]
    failures = []
    for name, w in (("cover", y), ("packing", x)):
        if w and min(w) < -DUALITY_TOL:
            failures.append(f"negative {name} weight {min(w):.3e}")
    y, x = np.maximum(y, 0.0), np.maximum(x, 0.0)
    hit = y @ cover_rows
    low = int(np.argmin(hit))
    if hit[low] < 1.0 - DUALITY_TOL:
        failures.append(f"body {ids[low]} has cover weight {hit[low]:.9f} < 1")
    loads = class_rows @ x
    top = int(np.argmax(loads))
    if loads[top] > 1.0 + DUALITY_TOL:
        members = [ids[i] for i in np.flatnonzero(class_rows[top])]
        failures.append(f"class of bodies {members} has packing load {loads[top]:.9f} > 1")
    sum_y, sum_x = math.fsum(y.tolist()), math.fsum(x.tolist())
    if abs(sum_x - sum_y) > DUALITY_TOL:
        failures.append(f"packing sum {sum_x:.9f} != cover sum {sum_y:.9f}")
    upper = sum_y / min(1.0, hit[low]) if hit[low] > 0 else math.inf
    lower = sum_x / max(1.0, loads[top])
    if upper > tau_star + DUALITY_TOL:
        failures.append(f"tau_star {tau_star!r} < cover bound {upper:.9f}")
    if lower < tau_star - DUALITY_TOL:
        failures.append(f"tau_star {tau_star!r} > packing bound {lower:.9f}")
    return failures


def rationalize(
    weights,
    max_denominator: int,
    class_rows=None,
) -> tuple[tuple[int, ...], int]:
    """Integer multiplicities m and denominator D with m/D near the weights.

    class_rows is a 0/1 matrix, one row per class and one column per
    weight; None means no rows.  The weights' continued fractions give a
    common denominator D, kept when it is at most max_denominator and the
    packing feasibility class_rows @ m <= D holds.  Otherwise m is floored
    once at D = max_denominator, and while a row of class_rows is over D,
    the first heaviest row's member with the largest m (the lowest index
    among equals) loses one.
    """
    if max_denominator < 1:
        raise ValueError("max_denominator must be at least 1")
    w = [min(1.0, max(0.0, float(v))) for v in weights]
    fracs = [_limit_denominator(v, max_denominator) for v in w]
    d = math.lcm(*[q for _, q in fracs])
    m = [p * (d // q) for p, q in fracs] if d <= max_denominator else None
    rows = np.asarray(np.zeros((0, len(w))) if class_rows is None else class_rows, dtype=np.int64)
    if m is None or (rows @ np.array(m, dtype=np.int64) > d).any():
        d = max_denominator
        m = [int(math.floor(v * d + 1e-6)) for v in w]
        loads = rows @ np.array(m, dtype=np.int64)
        while (loads > d).any():
            worst = np.flatnonzero(rows[int(np.argmax(loads))]).tolist()
            top = max(worst, key=lambda i: (m[i], -i))
            m[top] -= 1
            loads -= rows[:, top]
    return tuple(m), d


def _limit_denominator(v: float, max_denominator: int) -> tuple[int, int]:
    """Fraction(v).limit_denominator(max_denominator) as (numerator, denominator).

    The same continued-fraction recurrence on the integers of
    v.as_integer_ratio(), without building Fractions: the last convergent
    p1/q1 with q1 <= max_denominator, or the semiconvergent beyond it when
    that is strictly closer to v. The two lie on either side of v and
    1 / (q1 * (q0 + k*q1)) apart, and p1/q1 is d / (q1 * den) from v, so
    p1/q1 wins, ties included, exactly when 2 * d * (q0 + k*q1) <= den, the
    choice the stdlib makes. Both results are in lowest terms.
    """
    num, den = v.as_integer_ratio()
    if den <= max_denominator:
        return num, den
    p0, q0, p1, q1 = 0, 1, 1, 0
    n, d = num, den
    while True:
        a = n // d
        q2 = q0 + a * q1
        if q2 > max_denominator:
            break
        p0, q0, p1, q1 = p1, q1, p0 + a * p1, q2
        n, d = d, n - a * d
    k = (max_denominator - q0) // q1
    if 2 * d * (q0 + k * q1) <= den:
        return p1, q1
    return p0 + k * p1, q0 + k * q1


def greedy_transversal(classes: CandidateClasses) -> list[Point2]:
    """Greedy maximum-coverage hitting set over candidate classes."""
    mat = classes.matrix()
    unhit = np.ones(mat.shape[1], dtype=bool)
    picks: list[Point2] = []
    while unhit.any():
        gains = (mat & unhit).sum(axis=1)
        best = int(np.argmax(gains))
        if gains[best] == 0:
            raise PipelineError("greedy cover stalled with unhit bodies")
        picks.append(classes.points[best])
        unhit &= ~mat[best]
    return picks


def brute_min_transversal(bodies: list[ConvexBody], k_max: int) -> list[Point2] | None:
    """Smallest set of candidate points hitting every body, up to size k_max.

    Exact search over the maximal classes of candidate_classes(bodies),
    each standing for its representative point, its lowest candidate: a
    depth-first cover search at increasing sizes, trying the classes in
    order of decreasing size, then sorted members. Returns None when no
    hitting set of size <= k_max exists among the candidate points, which
    hold the lowest vertex of every cell (see candidate_points). The bodies
    are in the curve's frame (CurveModel.to_unit); a body without a
    candidate raises candidate_classes' PipelineError.
    """
    classes = candidate_classes(bodies)
    rep = {frozenset(np.flatnonzero(row).tolist()): pt
           for row, pt in zip(classes.matrix(), classes.points)}
    atoms = sorted(rep, key=lambda s: (-len(s), sorted(s)))

    def search(uncovered: frozenset[int], budget: int, chosen: list[frozenset[int]]) -> list[frozenset[int]] | None:
        if not uncovered:
            return list(chosen)
        if budget == 0:
            return None
        gain = max(len(a & uncovered) for a in atoms)
        if gain * budget < len(uncovered):
            return None
        pivot = min(uncovered, key=lambda b: sum(1 for a in atoms if b in a))
        options = [a for a in atoms if pivot in a]
        options.sort(key=lambda a: -len(a & uncovered))
        for a in options:
            chosen.append(a)
            got = search(uncovered - a, budget - 1, chosen)
            if got is not None:
                return got
            chosen.pop()
        return None

    full = frozenset(range(len(bodies)))
    for k in range(0, k_max + 1):
        got = search(full, k, [])
        if got is not None:
            return [rep[s] for s in got]
    return None


def flag_values(p_eff, n_active, holds, certified, best_load, recount, total, d, tau_star, size,
                missed) -> dict[str, bool]:
    """The report's flags, in the report's key order, each by its one rule.

    run_pipeline passes the numbers its stages compute, and verify_report
    the ones it re-derives, so a flag is written and rechecked alike:

    - condition_checked: verify_p2 decides the condition for p_eff on the
      n_active bodies (decides_p2). Only then is condition_holds written,
      as holds, since a skipped check observes neither outcome; verify
      passes None, taking it as given.
    - duality_ok: certified, the verdict on the LP certificate.
    - rounding_feasible_exact: best_load, the heaviest m-load of a class,
      is at most D = d.
    - coverage_le_denominator: recount, the m-load at the heavy point, is
      at most d.
    - tau_epsilon_consistent: epsilon = recount / total is positive, and
      tau_star is at most 1/epsilon plus a slack of n_active/d + 1e-9.
    - greedy_within_log_bound: size, the transversal's points less one per
      filtered body, is at most tau_star * (1 + ln n_active) + 1.
    - all_bodies_hit: missed, the bodies the transversal misses, is empty.
    """
    flags = {"condition_checked": decides_p2(p_eff, n_active)}
    if flags["condition_checked"]:
        flags["condition_holds"] = holds
    flags["duality_ok"] = certified
    flags["rounding_feasible_exact"] = best_load <= d
    flags["coverage_le_denominator"] = recount <= d
    epsilon = recount / total if total > 0 else 0.0
    flags["tau_epsilon_consistent"] = (
        epsilon > 0 and d >= 1 and tau_star <= 1.0 / epsilon + (n_active / d + 1e-9))
    flags["greedy_within_log_bound"] = size <= tau_star * (1 + math.log(max(n_active, 1))) + 1
    flags["all_bodies_hit"] = len(missed) == 0
    return flags


def validate(bodies: list[ConvexBody], curve: CurveModel, p: int):
    """The one way into the curve's frame, which solve, verify, oracle and
    stats share: (family, filtered, active, p_eff).

    family is the bodies in the curve's frame (CurveModel.to_unit),
    packed, with their body_curve_arcs built (Family.arcs); filtered the
    indices of the bodies without arcs, which miss the curve; active the
    others, packed, carrying the arcs family built for them, so that no
    body's arcs are built twice; p_eff is p less one per filtered body, and
    at least 2. The condition and candidate stages read active and the
    final containment family: one packed object, stacked once, when every
    body meets the curve. p must pass Instance's rule
    (instances._check_p), else a ValueError is raised.
    """
    p = _check_p(p)
    family = pack(curve.to_unit(bodies))
    arcs = body_curve_arcs(family)
    filtered = tuple(i for i, a in enumerate(arcs) if not a)
    active = pack(b for b, a in zip(family, arcs) if a) if filtered else family
    active.arcs = [a for a in arcs if a]
    return family, filtered, active, max(2, p - len(filtered))


def run_pipeline(
    bodies: list[ConvexBody],
    curve: CurveModel = UNIT_CIRCLE,
    p: int = 2,
) -> TransversalReport:
    """Full rounding chain from a family to a verified integer transversal.

    Every stage runs in the curve's frame (see validate), and the report's
    points are mapped back to the input's (CurveModel.from_unit). The
    flags are flag_values of the numbers the stages compute, the rules
    verify_report rechecks them by; the condition stage runs verify_p2
    only where flag_values' skip rule, decides_p2, checks the condition,
    on the meet graph of the active bodies' arcs from validate. The seven
    stage clocks run back to back and the last, greedy, stops once the
    report is built, so report.timings sums to the whole run but for the
    few clock reads between stages.
    """
    timings: dict[str, float] = {}

    t0 = time.perf_counter()
    family, filtered, active, p_eff = validate(bodies, curve, p)
    if not active:  # an empty family included
        raise PipelineError("validate: no body meets the curve")
    timings["validate"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    # A skipped check builds no meet graph, and flag_values writes no condition_holds.
    holds = decides_p2(p_eff, len(active)) and verify_p2(build_meet_graph(active), p_eff)
    timings["condition"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    classes = candidate_classes(active)
    timings["candidates"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    mat = classes.matrix()
    lp = packing_solve(mat)
    tau_star = lp.objective
    packing = tuple(min(1.0, max(0.0, v)) for v in lp.values)
    # Duals within the solver's optimality tolerance of zero are rounding.
    support = [j for j, w in enumerate(lp.duals) if w > TOL_LP]
    cover_weights = tuple(lp.duals[j] for j in support)
    # The certificate the report carries, as verify_report reads it.
    certified = not certificate_failures(
        [b.id for b in active], mat[support], cover_weights, mat, packing, tau_star)
    timings["lps"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    d_cap = max(1, int(MULTISET_BUDGET / max(tau_star, 1.0)))
    m, d = rationalize(packing, d_cap, class_rows=mat)
    if sum(m) == 0:
        m = list(m)
        m[int(np.argmax(packing))] = 1
        m = tuple(m)
    loads = mat @ np.array(m, dtype=np.int64)
    timings["rationalize"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    # Ties go to the lower class index.
    k = int(np.argmax(loads))
    z, covered = classes.points[k], int(loads[k])
    total = sum(m)
    epsilon = covered / total
    timings["heavy_point"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    # A filtered body gets its vertex mean, a point inside it.
    transversal = greedy_transversal(classes) + [
        tuple(family[i].vertices.mean(axis=0).tolist()) for i in filtered]
    missed = np.flatnonzero(~containment_matrix(family, transversal).any(axis=0))
    # The report's points, back in the input's frame. A transversal is a
    # set, so a point repeated, here or by the map, is kept once.
    transversal = tuple(dict.fromkeys(curve.from_unit(transversal)))
    # The report holds timings itself, so its build is on the greedy clock.
    report = TransversalReport(
        transversal=transversal,
        tau_star=tau_star,
        multiplicities=m,
        denominator=d,
        heavy_point=curve.from_unit([z])[0],
        heavy_coverage=covered,
        epsilon=epsilon,
        multiset_size=total,
        p_effective=p_eff,
        filtered=filtered,
        cover_points=tuple(curve.from_unit(classes.points[j] for j in support)),
        cover_weights=cover_weights,
        packing=packing,
        flags=flag_values(p_eff, len(active), holds, certified, covered, covered, total, d, tau_star,
                          len(transversal) - len(filtered), missed),
        timings=timings,
    )
    timings["greedy"] = time.perf_counter() - t0
    return report
