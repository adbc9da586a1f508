"""What the benchmark measures: workloads, metrics, units, bounds.

``BENCHMARK.json`` at the repository root is written from this module by
``python3 bench/run.py --write-spec``; a test keeps the two equal.
"""

from __future__ import annotations

import json
from pathlib import Path

RUN_SECONDS = 20
STAGES = (
    "validate", "condition", "candidates", "lps", "rationalize",
    "replicate", "witnesses", "heavy_point", "greedy",
)

WORKLOADS = {
    "pg-union": (
        "a fixed ladder of rotated PG(2,q) unions (n 14-39), turned by the seed: tau* > 1 "
        "and D > 1, so the LPs, rationalize, the witness list and the heavy point work"
    ),
    "small-batch": (
        "about 150 tiny families (pairwise, clustered, PG(2,2), gallery) and one n = 42 "
        "family: fixed per-call cost and the exact meets-graph check dominate"
    ),
    "highdim-crossings": (
        "exact Sturm crossing counts on moment curves (d 2-8) and sampled counts "
        "on closed trigonometric curves: the only workload for pierce.highdim"
    ),
}

# name, unit, better, bound (share of the parent's median it may worsen by)
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("wall_s", "s", "lower", 0.25),
    ("solve_p50_s", "s", "lower", 0.25),
    ("solve_tail_s", "s", "lower", 0.25),
    ("verify_p50_s", "s", "lower", 0.25),
    ("crossing_p50_us", "us", "lower", 0.25),
    ("crossing_tail_us", "us", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.2),
    ("transversal_points", "count", "lower", 0.2),
)

# name, unit, better
PER_LAYER = (
    ("geometry.body_curve_arcs_s", "s", "lower"),
    ("geometry.candidate_points_s", "s", "lower"),
    ("geometry.candidates_n", "count", "lower"),
    ("geometry.containment_matrix_s", "s", "lower"),
    ("geometry.containment_cells", "count", "lower"),
    ("pipeline.candidate_classes_s", "s", "lower"),
    ("pipeline.classes_n", "count", "lower"),
    ("lp.cover_solve_s", "s", "lower"),
    ("lp.packing_solve_s", "s", "lower"),
    ("lp.rows", "count", "lower"),
    ("lp.cols", "count", "lower"),
    ("pipeline.rationalize_s", "s", "lower"),
    ("pipeline.D", "count", "lower"),
    ("pipeline.replicate_s", "s", "lower"),
    ("pipeline.multiset_size", "count", "lower"),
    ("witness.build_witness_list_s", "s", "lower"),
    ("witness.entries_n", "count", "lower"),
    ("witness.find_heavy_point_s", "s", "lower"),
    ("meetgraph.build_meet_graph_s", "s", "lower"),
    ("meetgraph.verify_p2_s", "s", "lower"),
    ("meetgraph.condition_skipped", "count", "lower"),
    ("reports.verify_report_s", "s", "lower"),
    ("highdim.moment_s", "s", "lower"),
    ("highdim.closed_s", "s", "lower"),
    ("highdim.calls_n", "count", "higher"),
    *((f"stage.{key}_s", "s", "lower") for key in STAGES),
    ("instances.gen_s", "s", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
    # Figures that read 0 on the current code (no failures; some heavy points
    # cover no copy), which the end-to-end list does not allow.  Every run
    # also prints them.
    ("heavy_epsilon_min", "ratio", "higher"),
    ("failed_frac", "ratio", "lower"),
)


def benchmark_json() -> dict:
    return {
        "command": ["python3", "bench/run.py"],
        "paths": ["bench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": k, "why": v} for k, v in WORKLOADS.items()],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bd} for n, u, b, bd in END_TO_END
        ],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER],
    }


def write_benchmark_json(root: Path) -> Path:
    path = root / "BENCHMARK.json"
    path.write_text(json.dumps(benchmark_json(), indent=2) + "\n", encoding="utf-8")
    return path
