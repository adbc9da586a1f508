"""Tests of the benchmark itself: python3 -m pytest bench"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "bench"))

import gate  # noqa: E402
import run  # noqa: E402
import spec  # noqa: E402
import workloads  # noqa: E402
from pierce.instances import gallery7  # noqa: E402
from pierce.meetgraph import build_meet_graph  # noqa: E402
from pierce.pipeline import run_pipeline  # noqa: E402
from pierce.reports import verify_report  # noqa: E402

TINY_SECONDS = "0.5"


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "bench/run.py", *args], cwd=cwd, capture_output=True,
        text=True, timeout=300,
    )


def tiny_run(workload, trace, tmp_path, seed=0):
    out = tmp_path / f"{workload}-{trace}-{seed}.json"
    proc = bench("--workload", workload, "--seed", str(seed), "--seconds", TINY_SECONDS,
                 "--trace", str(trace), "--out", str(out),
                 "--spans", str(tmp_path / "spans.jsonl"))
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    return last, json.loads(out.read_text())


@pytest.mark.parametrize("workload", list(spec.WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_smoke_run(workload, trace, tmp_path):
    last, saved = tiny_run(workload, trace, tmp_path)
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0 and last["attempted"] >= 1
    wanted = spec.PER_LAYER if trace else spec.END_TO_END
    assert {name: unit for name, unit, *_ in wanted} == {
        name: m["unit"] for name, m in last["metrics"].items()
    }
    if not trace:
        assert all(m["value"] > 0 for m in last["metrics"].values())
    assert saved["all_metrics"]["failed_frac"]["value"] == 0
    if workload == "small-batch" and trace:
        # The clustered n = 42 family is past the exact condition check's cap.
        assert saved["all_metrics"]["meetgraph.condition_skipped"]["value"] == 1


def test_layer_spans_nest_under_the_pipeline_call(tmp_path):
    last, _ = tiny_run("pg-union", 1, tmp_path)
    metrics = {name: m["value"] for name, m in last["metrics"].items()}
    for name in ("geometry.candidate_points_s", "lp.cover_solve_s", "lp.packing_solve_s",
                 "pipeline.rationalize_s", "witness.build_witness_list_s",
                 "witness.find_heavy_point_s", "meetgraph.verify_p2_s"):
        assert metrics[name] > 0, name
    assert metrics["pipeline.D"] > 1 and metrics["witness.entries_n"] > 0
    spans = [json.loads(line) for line in (tmp_path / "spans.jsonl").read_text().splitlines()]
    by_id = {s["id"]: s for s in spans}

    def top(span):
        while span["parent"] is not None:
            parent = by_id[span["parent"]]
            assert parent["trace"] == span["trace"]
            assert parent["start"] <= span["start"] <= span["end"] <= parent["end"]
            span = parent
        return span["name"]

    assert {top(s) for s in spans if s["name"].startswith("lp.")} == {
        "run_pipeline", "verify_report"}
    assert {top(s) for s in spans if s["name"] == "witness.find_heavy_point"} == {"run_pipeline"}


def test_patched_restores_the_module():
    import pierce.pipeline

    original = pierce.pipeline.rationalize
    tracer = run.Tracer()
    with tracer.patched(pierce.pipeline, {"rationalize": ("pipeline.rationalize", None),
                                          "no_such_layer": ("x", None)}) as missing:
        assert pierce.pipeline.rationalize is not original
        assert pierce.pipeline.rationalize([0.5, 0.5], 10) == original([0.5, 0.5], 10)
        assert missing == ["no_such_layer"]
    assert pierce.pipeline.rationalize is original
    assert [s.name for s in tracer.spans] == ["pipeline.rationalize"]


def test_same_seed_gives_same_pool_and_counts(tmp_path):
    a = workloads.build("highdim-crossings", 4, 0.05)
    b = workloads.build("highdim-crossings", 4, 0.05)
    c = workloads.build("highdim-crossings", 5, 0.05)
    assert workloads.fingerprint(a) == workloads.fingerprint(b)
    assert workloads.fingerprint(a) != workloads.fingerprint(c)
    # The planar corpora are fixed; the seed turns each family.
    assert workloads.fingerprint(workloads.build("pg-union", 4, 0.05)) != workloads.fingerprint(
        workloads.build("pg-union", 5, 0.05))
    _, first = tiny_run("pg-union", 1, tmp_path, seed=7)
    _, second = tiny_run("pg-union", 1, tmp_path, seed=7)
    counts = {k for k, m in first["all_metrics"].items() if m["unit"] == "count"}
    assert counts
    for name in counts:
        assert first["all_metrics"][name] == second["all_metrics"][name], name


def test_views_are_congruent_and_solve_alike():
    # A PG(2,2) x 3 family whose D is 6 or 60 depending on its candidates'
    # order, which a mirror image would reverse.
    base = workloads.pg_union(2, 3, workloads.CORPUS_SEED, 20_300)
    views = [workloads.view(base, v, 0) for v in (1, 2, 3)]

    def radii(inst):
        return sorted(round(float(r), 9) for b in inst.bodies
                      for r in np.hypot(b.vertices[:, 0], b.vertices[:, 1]))

    assert all(not np.allclose(v.bodies[0].vertices, base.bodies[0].vertices) for v in views)
    assert all(radii(v) == radii(base) for v in views)
    reports = [_solved(inst) for inst in [base, *views]]
    assert len({(r["D"], len(r["transversal"])) for r in reports}) == 1
    assert max(r["tau_star"] for r in reports) - min(r["tau_star"] for r in reports) < 1e-9


def test_timings_are_scaled_by_the_reference_work_around_them():
    slow = run.Pass(traced=False, refs=[run.REF_S, 3 * run.REF_S, 2 * run.REF_S])
    slow.solve = [run.Op(0, 1.0, None, ref=0), run.Op(1, 1.0, None, ref=1)]
    assert slow.scaled(slow.solve[0]) == pytest.approx(0.5)  # refs 1x and 3x around it
    assert slow.scaled(slow.solve[1]) == pytest.approx(0.4)  # refs 3x and 2x
    calm = run.Pass(traced=False, refs=[run.REF_S, run.REF_S])
    calm.solve = [run.Op(0, 2.0, None), run.Op(1, 0.1, None, error="boom")]
    # Input 0: median of 0.5, 2.0, 2.0; input 1: its failed calls do not count.
    assert run.per_input([slow, calm, calm], "solve") == pytest.approx([2.0, 0.4])
    assert run.per_input([slow], "solve", scaled=False) == [1.0, 1.0]


def _solved(instance):
    return run_pipeline(instance.bodies, instance.curve, instance.p).to_dict()


def _tau_highs(instance, report):
    return gate.highs_tau_star(gate.report_classes(instance, report))


def test_dropped_transversal_point_trips_gate():
    inst = gallery7()
    report = _solved(inst)
    tau = _tau_highs(inst, report)
    assert gate.check_solve(inst, report, tau) == []
    # Every point still lies in some body after the drop, so a check along
    # the point axis would pass; the body axis must not.
    dropped = None
    for k in range(len(report["transversal"])):
        trial = dict(report, transversal=report["transversal"][:k] + report["transversal"][k + 1:])
        if gate.check_solve(inst, trial, tau):
            dropped = trial
            break
    assert dropped is not None
    assert any("contain no transversal point" in p for p in gate.check_solve(inst, dropped, tau))
    assert verify_report(inst, dropped)


def test_nudged_tau_trips_gate():
    inst = workloads.pg_union(2, 2, 1)
    report = _solved(inst)
    tau = _tau_highs(inst, report)
    nudged = dict(report, tau_star=report["tau_star"] + 1e-4)
    assert any("HiGHS" in p for p in gate.check_solve(inst, nudged, tau))
    assert verify_report(inst, nudged)


def test_crossing_checks():
    moment = workloads.CrossingCase("moment", 2, (0, 1), 0)  # t^2 = 0: one root
    assert gate.moment_roots(moment.normal, moment.offset) == 1
    assert gate.check_crossing(moment, 1, 1) == []
    assert gate.check_crossing(moment, 2, 1)
    closed = workloads.CrossingCase("caratheodory", 4, (1.0, 0.0, 0.0, 0.0), 0.0)
    assert gate.check_crossing(closed, 4, None) == []
    assert gate.check_crossing(closed, 3, None)
    assert gate.check_crossing(closed, 6, None)


def test_pg_union_ladder_has_teeth():
    n_pts, lines = workloads.pg_lines(3)
    assert n_pts == 13 and len(lines) == 13
    assert all(len(set(a) & set(b)) == 1 for a in lines for b in lines if a != b)
    inst = workloads.pg_union(2, 3, 11)
    assert len(inst.bodies) == 21 and inst.p == 4
    assert not workloads._has_common_point(inst.bodies)
    graph = build_meet_graph(inst.bodies, inst.curve)
    assert graph.edge_count >= 3 * 21  # every copy's seven lines pairwise meet


def test_tail_keeps_ten_samples_beyond():
    value, label = run.tail([float(v) for v in range(1, 41)])
    assert value == 30.0 and label == "p75.00 of 40"
    value, label = run.tail([3.0, 1.0, 2.0])
    assert value == 3.0 and label.startswith("max of 3")


def test_benchmark_json_matches_spec():
    committed = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert committed == spec.benchmark_json()
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer") for m in committed[key]]
    assert len(names) == len(set(names))
    bounds = {m["name"]: m["bound"] for m in committed["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


def test_without_sources_exits_nonzero(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "pg-union", "--seed", "0", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert "metrics" not in proc.stdout


def test_compare_prints_deltas(tmp_path):
    def result(wall, points):
        return {"metrics": {"wall_s": {"value": wall, "unit": "s"},
                            "transversal_points": {"value": points, "unit": "count"}}}

    (tmp_path / "a.json").write_text(json.dumps(result(10.0, 40)))
    (tmp_path / "b.json").write_text(json.dumps(result(13.0, 40)))
    proc = bench("--compare", str(tmp_path / "a.json"), str(tmp_path / "b.json"))
    assert proc.returncode == 0
    lines = {line.split()[0]: line for line in proc.stdout.splitlines()[1:]}
    assert "REGRESSION" in lines["wall_s"] and "30.0%" in lines["wall_s"]
    assert lines["transversal_points"].endswith("same")
