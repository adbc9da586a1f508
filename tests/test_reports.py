"""The independent recheck of a finished report."""

import pierce.reports
from pierce.geometry import body_contains
from pierce.instances import gallery7, gen_pairwise
from pierce.pipeline import CandidateClasses, candidate_classes, run_pipeline
from pierce.reports import verify_report


def test_verify_report_accepts_a_run():
    inst = gen_pairwise(6)
    report = run_pipeline(inst.bodies, inst.curve, inst.p).to_dict()
    assert verify_report(inst, report) == []


def test_verify_report_rejects_heavy_point_covering_nothing():
    inst = gen_pairwise(6)
    report = run_pipeline(inst.bodies, inst.curve, inst.p).to_dict()
    report["z"] = [5.0, 5.0]
    report["coverage"] = dict(report["coverage"], count=0, epsilon=0.0)
    assert verify_report(inst, report) == ["heavy point covers no copy"]


def test_verify_report_rejects_coverage_above_the_best_class_load(monkeypatch):
    inst = gallery7()
    report = run_pipeline(inst.bodies, inst.curve, inst.p).to_dict()
    assert verify_report(inst, report) == []
    # An optimal packing loads several classes fully, so put one copy on each
    # body at z: the class holding z is then the one heaviest.
    at_z = {i for i, b in enumerate(inst.bodies) if body_contains(b, tuple(report["z"]))}
    m = [int(i in at_z) for i in range(len(inst.bodies))]
    report.update(m=m, coverage={"count": len(at_z), "epsilon": 1.0,
                                 "multiset_size": len(at_z)})
    assert not [f for f in verify_report(inst, report) if "best class load" in f]
    loads = []

    def without_z(bodies):
        full = candidate_classes(bodies)
        kept = [k for k, sig in enumerate(full.signatures) if not at_z <= sig]
        assert len(kept) == len(full.signatures) - 1
        loads.extend(sum(m[i] for i in full.signatures[k]) for k in kept)
        return CandidateClasses(tuple(full.points[k] for k in kept),
                                tuple(full.signatures[k] for k in kept), full.n_bodies)

    monkeypatch.setattr(pierce.reports, "candidate_classes", without_z)
    failures = verify_report(inst, report)
    assert max(loads) < len(at_z)
    assert [f for f in failures if "best class load" in f] == [
        f"heavy coverage {len(at_z)} exceeds the best class load {max(loads)}"]
