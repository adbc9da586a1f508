"""The independent recheck of a finished report."""

from pierce.instances import gen_pairwise
from pierce.pipeline import run_pipeline
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
