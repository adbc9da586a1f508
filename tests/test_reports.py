"""The independent recheck of a finished report."""

import copy
import itertools
import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pierce.lp
import pierce.pipeline
import pierce.reports
from pierce.geometry import (
    TWO_PI, ConvexBody, candidate_points, containment_matrix,
)
from pierce.instances import Instance, gallery7, gen_clustered, gen_pairwise
from pierce.pipeline import candidate_classes, run_pipeline
from pierce.reports import verify_report

from conftest import arc_body, pg22_twice


def test_verify_report_accepts_a_run():
    inst = gen_pairwise(6)
    report = run_pipeline(inst.bodies, inst.curve, inst.p).to_dict()
    assert verify_report(inst, report) == []


@pytest.mark.parametrize("inst", [gallery7(), gen_pairwise(10, 1)], ids=["gallery7", "pairwise-10-1"])
def test_verify_report_rejects_a_repeated_transversal_point(inst):
    # A transversal is a set: a repeat would inflate the size that
    # greedy_within_log_bound reads.
    report = run_pipeline(inst.bodies, inst.curve, inst.p).to_dict()
    first = report["transversal"][0]
    report["transversal"].append(list(first))
    assert verify_report(inst, report) == [f"transversal repeats points [{first}]"]


@pytest.mark.parametrize("family", [
    lambda: gen_clustered(3, 12, 1),
    lambda: gen_pairwise(12, 3),
    lambda: Instance(pg22_twice(), p=3),
], ids=["clustered", "pairwise", "pg22x2"])
@pytest.mark.parametrize("renumber", [lambda k: 100 + 7 * k, lambda k: -1 - k],
                         ids=["spaced", "negative"])
def test_body_ids_other_than_positions_change_no_report(family, renumber):
    # Reports name bodies by position, so after a JSON round trip with other
    # ids the report is the 0..n-1 run's, and verify accepts it.
    inst = family()
    assert [b.id for b in inst.bodies] == list(range(len(inst.bodies)))
    data = inst.to_dict()
    for k, body in enumerate(data["bodies"]):
        body["id"] = renumber(k)
    renumbered = Instance.from_dict(json.loads(json.dumps(data)))
    assert [b.id for b in renumbered.bodies] == [renumber(k) for k in range(len(inst.bodies))]
    want = run_pipeline(inst.bodies, inst.curve, inst.p).to_dict()
    got = run_pipeline(renumbered.bodies, renumbered.curve, renumbered.p).to_dict()
    del want["stages"], got["stages"]
    assert got == want
    assert verify_report(renumbered, got) == []


def test_verify_report_rejects_heavy_point_covering_nothing():
    inst = gen_pairwise(6)
    report = run_pipeline(inst.bodies, inst.curve, inst.p).to_dict()
    best = report["coverage"]["count"]
    report["z"] = [5.0, 5.0]
    report["coverage"] = dict(report["coverage"], count=0, epsilon=0.0)
    assert verify_report(inst, report) == [
        f"heavy coverage 0 is below the best class load {best}", "heavy point covers no copy",
        "flag tau_epsilon_consistent is True, but verify finds False"]


def test_verify_report_rejects_a_lighter_class_as_the_heavy_point():
    inst = Instance(pg22_twice(), p=3)
    report = run_pipeline(inst.bodies, inst.curve, inst.p).to_dict()
    classes = candidate_classes(inst.bodies)
    loads = classes.matrix() @ np.asarray(report["m"])
    assert report["coverage"]["count"] == loads.max()
    # The lightest class that holds a copy, with its count stated truthfully.
    k = min(np.flatnonzero(loads > 0), key=lambda j: loads[j])
    assert loads[k] < loads.max()
    total = report["coverage"]["multiset_size"]
    report.update(z=list(classes.points[k]), coverage=dict(
        report["coverage"], count=int(loads[k]), epsilon=int(loads[k]) / total))
    assert verify_report(inst, report) == [
        f"heavy coverage {loads[k]} is below the best class load {loads.max()}"]


def test_verify_report_rejects_a_heavy_point_outside_every_body():
    inst = gallery7()
    report = run_pipeline(inst.bodies, inst.curve, inst.p).to_dict()
    count, eps = report["coverage"]["count"], report["coverage"]["epsilon"]
    report["z"] = [5.0, 5.0]
    assert verify_report(inst, report) == [
        f"heavy point covers 0 copies, report says {count}",
        f"heavy coverage 0 is below the best class load {count}",
        f"epsilon mismatch: 0.0 vs {eps}",
        "heavy point covers no copy",
        "flag tau_epsilon_consistent is True, but verify finds False",
    ]


def test_verify_report_rejects_coverage_above_the_best_class_load(monkeypatch):
    inst = gallery7()
    assert [b.id for b in inst.bodies] == list(range(len(inst.bodies)))
    report = run_pipeline(inst.bodies, inst.curve, inst.p).to_dict()
    assert verify_report(inst, report) == []
    # An optimal packing loads several classes fully, so put one copy on each
    # body at z: the class holding z is then the one heaviest.
    at_z = set(np.flatnonzero(containment_matrix(inst.bodies, [report["z"]])[0]).tolist())
    m = [int(i in at_z) for i in range(len(inst.bodies))]
    report.update(m=m, coverage={"count": len(at_z), "epsilon": 1.0,
                                 "multiset_size": len(at_z)})
    assert not [f for f in verify_report(inst, report) if "best class load" in f]
    loads = []

    def without_z(bodies):
        # bodies is the sub-family verify passes in: its columns are
        # bodies' ids, which are positions in the gallery family.
        ids = np.array([b.id for b in bodies])
        full = candidate_points(bodies)
        rows = containment_matrix(bodies, full)
        kept = [k for k, row in enumerate(rows) if not at_z <= set(ids[row].tolist())]
        assert len(kept) < len(full)
        loads.extend(sum(m[i] for i in ids[rows[k]]) for k in kept)
        return [full[k] for k in kept]

    monkeypatch.setattr(pierce.reports, "candidate_points", without_z)
    failures = verify_report(inst, report)
    assert max(loads) < len(at_z)
    assert [f for f in failures if "best class load" in f] == [
        f"heavy coverage {len(at_z)} exceeds the best class load {max(loads)}"]


def _weighted_rows_reach_the_class_loads(bodies, rng, draws):
    """The lemma verify_report leans on: for sparse nonnegative x and m, the
    rows of the weighted bodies' candidate points reach the heaviest class
    load of the whole family, exactly for integers."""
    classes = candidate_classes(bodies).matrix()
    n = len(bodies)
    for _ in range(draws):
        keep_x, keep_m = rng.choice([0.1, 0.3, 0.8], size=2)
        x = rng.uniform(0.0, 1.0, n) * (rng.uniform(size=n) < keep_x)
        m = rng.integers(0, 12, n) * (rng.uniform(size=n) < keep_m)
        weighted = [b for b, xi, mi in zip(bodies, x, m) if xi or mi] or bodies
        rows = containment_matrix(bodies, candidate_points(weighted))
        assert (rows @ x).max() == pytest.approx((classes @ x).max(), rel=1e-12)
        assert (rows @ m).max() == (classes @ m).max()


@pytest.mark.parametrize("bodies", [gallery7().bodies, pg22_twice()], ids=["gallery7", "pg22x2"])
def test_candidate_rows_have_the_maximal_class_loads(bodies):
    rows = containment_matrix(bodies, candidate_points(bodies))
    classes = candidate_classes(bodies).matrix()
    rng = np.random.default_rng(5)
    for _ in range(50):
        # Nonnegative weights, with some zeros so that not every body counts.
        x = rng.uniform(0.0, 1.0, len(bodies)) * (rng.uniform(size=len(bodies)) < 0.8)
        m = rng.integers(0, 12, len(bodies))
        assert (rows @ x).max() == pytest.approx((classes @ x).max(), rel=1e-12)
        assert (rows @ m).max() == (classes @ m).max()
    _weighted_rows_reach_the_class_loads(bodies, rng, 50)


def _random_polygon(rng, body_id):
    # Vertices at sorted random angles on a random ellipse: convex, and in
    # general position with the other bodies, so no class of the family
    # meets only within TOL_GEOM.
    center = rng.uniform(-1.0, 1.0, 2)
    axes = rng.uniform(0.3, 1.5, 2)
    t = np.sort(rng.uniform(0.0, TWO_PI, int(rng.integers(3, 9))))
    return ConvexBody.from_vertices(
        body_id, center + axes * np.column_stack((np.cos(t), np.sin(t))))


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 10), st.integers(0, 2**32 - 1))
def test_weighted_candidate_rows_have_the_class_loads_of_random_families(n, seed):
    rng = np.random.default_rng(seed)
    bodies = [_random_polygon(rng, i) for i in range(n)]
    _weighted_rows_reach_the_class_loads(bodies, rng, 10)


def _gallery_report():
    inst = gallery7()
    report = run_pipeline(inst.bodies, inst.curve, inst.p).to_dict()
    assert verify_report(inst, report) == []
    return inst, report


def _numbers(pattern, failures):
    """The numbers pattern captures from the one failure it matches."""
    hits = [m for m in (re.fullmatch(pattern, f) for f in failures) if m]
    assert len(hits) == 1, failures
    return [float(v) for v in hits[0].groups()]


def test_verify_report_checks_the_cover_certificate():
    inst, report = _gallery_report()
    lp = report["lp"]
    lowered = copy.deepcopy(report)
    lowered["lp"]["cover_weights"][0] -= 0.1
    weight, bound = _numbers(r"body \d+ has cover weight (\S+) < (1)", verify_report(inst, lowered))
    assert weight == pytest.approx(0.9, abs=1e-9) and bound == 1

    raised = copy.deepcopy(report)
    raised["lp"]["packing"][0] += 0.1
    load, bound = _numbers(r"class of bodies \[.*\] has packing load (\S+) > (1)",
                           verify_report(inst, raised))
    assert load == pytest.approx(1.1, abs=1e-9) and bound == 1

    # More cover weight still covers every body, but no longer matches the packing.
    heavier = copy.deepcopy(report)
    heavier["lp"]["cover_weights"][0] += 0.01
    sum_x, sum_y = _numbers(r"packing sum (\S+) != cover sum (\S+)", verify_report(inst, heavier))
    assert sum_x == pytest.approx(sum(lp["packing"]), abs=1e-9)
    assert sum_y == pytest.approx(sum(lp["cover_weights"]) + 0.01, abs=1e-9)

    high = dict(report, tau_star=report["tau_star"] + 1e-3)
    tau, bound = _numbers(r"tau_star (\S+) > packing bound (\S+)", verify_report(inst, high))
    assert tau == high["tau_star"] and bound == pytest.approx(15 / 7, abs=1e-9)
    low = dict(report, tau_star=report["tau_star"] - 1e-3)
    tau, bound = _numbers(r"tau_star (\S+) < cover bound (\S+)", verify_report(inst, low))
    assert tau == low["tau_star"] and bound == pytest.approx(15 / 7, abs=1e-9)

    # Negative weights at a point outside every body hit no body, so they
    # must not pull the cover sum down to a lowered packing and tau_star.
    far = copy.deepcopy(report)
    far["lp"]["cover_points"] += [[9.0, 9.0]] * 1001
    far["lp"]["cover_weights"] += [-9.99e-7] * 1001
    scale = 1 - 1e-3 / sum(lp["packing"])
    far["lp"]["packing"] = [w * scale for w in lp["packing"]]
    far["tau_star"] = report["tau_star"] - 1e-3
    tau, bound = _numbers(r"tau_star (\S+) < cover bound (\S+)", verify_report(inst, far))
    assert tau == far["tau_star"] and bound == pytest.approx(15 / 7, abs=1e-9)

    # Both weight lists scaled by less than DUALITY_TOL still pass the
    # per-row checks, and their sums agree, but they prove only 15/7.
    for sign, pattern in ((-1, r"tau_star (\S+) < cover bound (\S+)"),
                          (1, r"tau_star (\S+) > packing bound (\S+)")):
        scaled = copy.deepcopy(report)
        factor = 1 + sign * 0.9 * pierce.pipeline.DUALITY_TOL
        for key in ("cover_weights", "packing"):
            scaled["lp"][key] = [w * factor for w in lp[key]]
        scaled["tau_star"] = sum(scaled["lp"]["packing"])
        assert abs(scaled["tau_star"] - report["tau_star"]) > pierce.pipeline.DUALITY_TOL
        tau, bound = _numbers(pattern, verify_report(inst, scaled))
        assert tau == scaled["tau_star"] and bound == pytest.approx(15 / 7, abs=1e-9)

    missing = {k: v for k, v in report.items() if k != "lp"}
    assert verify_report(inst, missing) == ["missing key 'lp'"]


def test_verify_report_rederives_the_filtered_bodies():
    inst, report = _gallery_report()
    # Claim that only body 0 meets the curve: the LP over it alone is
    # tau* = 1, and every other claim is made consistent with that.
    in_first = containment_matrix(inst.bodies[:1], report["transversal"])[:, 0]
    z = report["transversal"][int(np.flatnonzero(in_first)[0])]
    forged = dict(
        report, filtered=[1, 2, 3, 4, 5, 6], p_effective=2, tau_star=1.0, m=[1], D=1, z=z,
        coverage={"count": 1, "epsilon": 1.0, "multiset_size": 1},
        lp={"cover_points": [z], "cover_weights": [1.0], "packing": [1.0]},
    )
    failures = verify_report(inst, forged)
    assert "filtered [1, 2, 3, 4, 5, 6], but the bodies missing the curve are []" in failures
    assert "m has 1 entries for 7 active bodies" in failures

    far = ConvexBody.from_vertices(7, [(8.5, 8.5), (9.5, 8.5), (9.5, 9.5), (8.5, 9.5)])
    bodies = [arc_body(0, 0.2, 1.0), arc_body(1, 0.6, 1.4), far]
    off_curve = Instance(bodies, p=3)
    report = run_pipeline(bodies, p=3).to_dict()
    assert report["filtered"] == [2] and verify_report(off_curve, report) == []
    assert verify_report(off_curve, dict(report, filtered=[])) == [
        "filtered [], but the bodies missing the curve are [2]"]
    assert verify_report(off_curve, dict(report, p_effective=3)) == [
        "p_effective 3 != max(2, p - 1) = 2"]


@pytest.fixture(scope="module")
def gallery_run():
    inst = gallery7()
    return inst, run_pipeline(inst.bodies, inst.curve, inst.p).to_dict()


def test_verify_report_fails_when_no_body_meets_the_curve(gallery_run):
    # Solve raises on such a family, so a report for it is forged: its
    # filtered and p_effective claims hold, and nothing else is read.
    _, report = gallery_run
    far = [ConvexBody.from_vertices(i, [(8.5 + i, 8.5), (9.5 + i, 8.5), (9.5 + i, 9.5)])
           for i in range(2)]
    forged = dict(report, filtered=[0, 1], p_effective=2)
    assert verify_report(Instance(far), forged) == ["no body meets the curve"]


def test_verify_report_names_a_flag_its_check_contradicts(gallery_run):
    inst, report = gallery_run
    short = dict(report, transversal=report["transversal"][:1])
    missed = np.flatnonzero(~containment_matrix(inst.bodies, short["transversal"])[0]).tolist()
    assert missed and report["flags"]["all_bodies_hit"]
    assert verify_report(inst, short) == [
        f"transversal misses bodies {missed}", "flag all_bodies_hit is True, but verify finds False"]


def test_verify_report_fails_an_unknown_top_level_key(gallery_run):
    # Every key but stages is one that verify reads.
    inst, report = gallery_run
    assert verify_report(inst, dict(report, extra=1)) == ["unknown key 'extra'"]
    assert verify_report(inst, dict(report, stages="anything")) == []
    assert verify_report(inst, {k: v for k, v in report.items() if k != "stages"}) == []


def test_verify_report_fails_on_zero_denominator(gallery_run):
    inst, report = gallery_run
    failures = verify_report(inst, dict(report, D=0))
    assert failures[0] == "multiplicities must be nonnegative with D >= 1"
    assert "heavy coverage 7 exceeds D=0" in failures


def test_verify_report_without_weights_reads_every_active_body(gallery_run):
    # No body is weighted, so verify reads every active body's candidates:
    # the lines are those it gave when it always did.
    inst, report = gallery_run
    zero = [0] * len(report["m"])
    unweighted = dict(report, m=zero, lp=dict(report["lp"], packing=[0.0] * len(zero)))
    assert verify_report(inst, unweighted) == [
        "multiset size 15 != sum of multiplicities 0",
        "multiset is empty: m sums to 0",
        "packing sum 0.000000000 != cover sum 2.142857143",
        "tau_star 2.142857142857143 > packing bound 0.000000000",
        "heavy point covers 0 copies, report says 7",
        "flag duality_ok is True, but verify finds False",
        "flag tau_epsilon_consistent is True, but verify finds False",
    ]
    # A packing of the wrong length weights nothing either.
    short = dict(report, m=zero, lp=dict(report["lp"], packing=report["lp"]["packing"][:-1]))
    assert verify_report(inst, short) == [
        "multiset size 15 != sum of multiplicities 0",
        "multiset is empty: m sums to 0",
        "lp packing has 6 entries for 7 active bodies",
        "heavy point covers 0 copies, report says 7",
        "flag duality_ok is True, but verify finds False",
        "flag tau_epsilon_consistent is True, but verify finds False",
    ]


def test_verify_report_reads_the_candidates_of_every_body_with_a_weight():
    # The run weights body 0 alone, and its candidates miss the point where
    # all six bodies meet. A packing that weights the other five overloads
    # that point, and a negative m must see the rows without body 0.
    inst = gen_pairwise(6)
    report = run_pipeline(inst.bodies, inst.curve, inst.p).to_dict()
    assert report["m"] == [1, 0, 0, 0, 0, 0] and report["lp"]["packing"][1:] == [0.0] * 5
    spread = dict(report["lp"], packing=[0.0] + [0.6] * 5)
    assert verify_report(inst, dict(report, lp=spread)) == [
        "class of bodies [0, 1, 2, 3, 4, 5] has packing load 3.000000000 > 1",
        "packing sum 3.000000000 != cover sum 1.000000000",
        "flag duality_ok is True, but verify finds False",
    ]
    assert verify_report(inst, dict(report, m=[-1, 0, 0, 0, 0, 0])) == [
        "multiplicities must be nonnegative with D >= 1",
        "multiset size 1 != sum of multiplicities -1",
        "heavy point covers -1 copies, report says 1",
        "heavy coverage -1 is below the best class load 0",
        "flag tau_epsilon_consistent is True, but verify finds False",
    ]


def test_a_class_line_names_a_class_of_the_load_it_prints(gallery_run):
    # With the packing of the wrong length, only m's support is weighted,
    # and rows of equal load may name another class than the whole family's
    # first heaviest. The class named must still carry the printed sum, the
    # heaviest class load, and be the body set at a candidate point.
    inst, report = gallery_run
    bodies = inst.bodies
    classes = candidate_classes(bodies).matrix()
    rows = {frozenset(np.flatnonzero(row).tolist())
            for row in containment_matrix(bodies, candidate_points(bodies))}
    lp = dict(report["lp"], packing=[])
    named = 0
    for m in itertools.product([0, 1], repeat=len(bodies)):
        lines = [f for f in verify_report(inst, dict(report, m=list(m), D=1, lp=lp))
                 if "at class" in f]
        best = int((classes @ m).max())
        assert len(lines) == (best > 1)
        for line in lines:
            load, members = re.fullmatch(r"multiplicity sum (\d+) > D=1 at class \[(.*)\]",
                                         line).groups()
            members = [int(v) for v in members.split(", ")]
            assert int(load) == best == sum(m[i] for i in members)
            assert frozenset(members) in rows
            named += 1
    assert named > 100


def test_verify_report_fails_on_empty_coverage(gallery_run):
    inst, report = gallery_run
    assert verify_report(inst, dict(report, coverage={})) == [
        "missing key 'coverage.count'",
        "missing key 'coverage.epsilon'",
        "missing key 'coverage.multiset_size'",
    ]


def test_verify_report_fails_on_a_one_coordinate_heavy_point(gallery_run):
    inst, report = gallery_run
    assert verify_report(inst, dict(report, z=[0.1])) == ["z is not a point"]


def test_verify_report_fails_on_a_report_that_is_not_an_object(gallery_run):
    inst, report = gallery_run
    assert verify_report(inst, list(report)) == ["report is not a JSON object"]
    assert verify_report(inst, [report]) == ["report is not a JSON object"]


def test_verify_report_fails_on_wrong_types(gallery_run):
    inst, report = gallery_run
    cov = report["coverage"]
    # The non-integer counts each passed when they were read through int().
    cases = [
        ("D", None, "D is not an integer"),
        ("D", report["D"] + 0.9, "D is not an integer"),
        ("D", True, "D is not an integer"),
        ("tau_star", float("nan"), "tau_star is not a finite number"),
        # JSON keeps integers beyond float range exact, and no float holds them.
        ("tau_star", 10**400, "tau_star is not a finite number"),
        ("tau_star", -10**400, "tau_star is not a finite number"),
        ("z", [10**400, 0], "z is not a point"),
        # solve always writes a heavy point, so a null one is no report of it.
        ("z", None, "z is not a point"),
        ("m", "abc", "m is not a list of integers"),
        ("m", [v + 0.5 for v in report["m"]], "m is not a list of integers"),
        ("p_effective", report["p_effective"] + 0.5, "p_effective is not an integer"),
        ("coverage", dict(cov, count=cov["count"] + 0.7), "coverage.count is not an integer"),
        ("coverage", dict(cov, multiset_size=cov["multiset_size"] + 0.7),
         "coverage.multiset_size is not an integer"),
        ("filtered", [0.0], "filtered is not a list of integers"),
        ("transversal", [[1.0]], "transversal is not a list of points"),
        ("lp", None, "lp is not a JSON object"),
    ]
    for key, value, failure in cases:
        assert verify_report(inst, dict(report, **{key: value})) == [failure]
    weights = report["lp"]["cover_weights"]
    for bad in ([True] * len(weights), [10**400, *weights[1:]]):
        lp = dict(report["lp"], cover_weights=bad)
        assert verify_report(inst, dict(report, lp=lp)) == [
            "lp.cover_weights is not a list of numbers"]


def test_the_report_writer_and_verify_read_the_same_keys(gallery_run):
    # to_dict writes SHAPES' paths and stages, and no other key. stages
    # is an object that verify reads no key of; flags is read whole.
    _, report = gallery_run
    leaves = set()
    for key, value in report.items():
        if key == "stages":
            assert isinstance(value, dict)
        elif isinstance(value, dict) and key != "flags":
            leaves.update(f"{key}.{sub}" for sub in value)
        else:
            leaves.add(key)
    assert leaves == set(pierce.pipeline.SHAPES)
    # A flag added to run_pipeline alone, or to the flags' shape alone, fails
    # here too: the shape takes the flags of a run that checks the condition
    # and of one that skips it, and no fewer.
    _, _, is_flags = pierce.pipeline.SHAPES["flags"]
    skipped = gen_clustered(3, 42, seed=1)
    skipped = run_pipeline(skipped.bodies, skipped.curve, skipped.p).flags
    assert report["flags"]["condition_checked"] and not skipped["condition_checked"]
    for flags in (report["flags"], skipped):
        assert is_flags(flags)
        for key in flags:
            assert not is_flags({k: v for k, v in flags.items() if k != key}), key


def test_the_report_is_written_in_the_order_shapes_lists(gallery_run):
    # The golden digests hash sorted keys, so this pins the written order:
    # SHAPES' paths, an object's keys in the order of their paths, and
    # then stages.
    _, report = gallery_run
    written = []
    for key, value in report.items():
        leaf = key in pierce.pipeline.SHAPES or key == "stages"
        written += [key] if leaf else [f"{key}.{sub}" for sub in value]
    assert written == [*pierce.pipeline.SHAPES, "stages"]


@pytest.mark.parametrize("edit", [
    lambda good: {},
    lambda good: "nonsense",
    lambda good: None,
    lambda good: {"all_bodies_hit": False},
    lambda good: {**good, "bogus": 3},
    lambda good: {k: v for k, v in good.items() if k != "duality_ok"},
    lambda good: {**good, "duality_ok": 1},
    lambda good: {**good, "duality_ok": np.bool_(True)},
    lambda good: {**good, "condition_checked": False},
], ids=["empty", "a-string", "null", "one-flag", "extra-key", "missing-flag", "an-int",
        "numpy-bool", "holds-without-check"])
def test_verify_report_fails_on_malformed_flags(gallery_run, edit):
    inst, report = gallery_run
    assert verify_report(inst, dict(report, flags=edit(report["flags"]))) == [
        "flags is not an object of the booleans run_pipeline writes"]


def test_verify_report_fails_without_flags(gallery_run):
    inst, report = gallery_run
    no_flags = {k: v for k, v in report.items() if k != "flags"}
    assert verify_report(inst, no_flags) == ["missing key 'flags'"]


def test_verify_report_fails_on_multiplicities_past_int64(gallery_run):
    inst, report = gallery_run
    # 2**62 + 1 copies of each of bodies 3-6 load their class with 2**64 + 4,
    # far above D, but int64 sums read that load as 4, and every other row
    # as at most D; at the class point, every claim then checked out.
    classes = candidate_classes(inst.bodies)
    k = next(j for j, row in enumerate(classes.matrix())
             if np.flatnonzero(row).tolist() == [3, 4, 5, 6])
    m = [0, 0, 0] + [2**62 + 1] * 4
    forged = dict(report, m=m, D=2**62 + 1, z=list(classes.points[k]), coverage={
        "count": 4, "epsilon": 4 / sum(m), "multiset_size": sum(m)})
    assert verify_report(inst, forged) == ["multiplicities sum past 2**63 - 1"]
    # 10**30 does not fit int64 at all, which raised OverflowError.
    huge = dict(report, m=[10**30] * 7)
    assert verify_report(inst, huge)[-1] == "multiplicities sum past 2**63 - 1"


def test_one_simplex_per_run_and_none_in_verify(monkeypatch):
    inst = gallery7()
    solve = pierce.lp.packing_solve
    shapes = []

    def counted(mat):
        shapes.append(mat.shape)
        return solve(mat)

    monkeypatch.setattr(pierce.pipeline, "packing_solve", counted)
    report = run_pipeline(inst.bodies, inst.curve, inst.p).to_dict()
    assert len(shapes) == 1 and shapes[0][1] == len(inst.bodies)

    def refuse(mat):
        raise AssertionError("verify_report called the LP solver")

    monkeypatch.setattr(pierce.lp, "packing_solve", refuse)
    monkeypatch.setattr(pierce.pipeline, "packing_solve", refuse)
    assert verify_report(inst, report) == []
