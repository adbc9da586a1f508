"""Benchmark ladder for pierce: solve, verify and crossing-count latency.

    python3 bench/run.py --workload pg-union --seed 3 --seconds 20 --trace 0
    python3 bench/run.py --compare old.json new.json
    python3 bench/run.py --write-spec

Run it from a checkout of the repository: it imports pierce from the
checkout's ``src/`` and exits with code 2 when that is missing.  The timed
work runs in this process, which starts no threads of its own; numpy's
BLAS keeps its default threads, as it does for any caller of pierce.

A set-up imports pierce, builds the workload's pool from ``--seed``
(``bench/workloads.py``) and warms up on small inputs.  A run sets up
once itself, then ``SETUP_REPS - 1`` more times, one after another, each in
a fresh interpreter, so that every set-up pays the cold imports and first
calls.  Each is timed from the start of this script, in reference seconds
(see below; the slowdown is gauged right after it), and ``setup_s`` is
their median.  The run then makes the workload's fixed number of passes
over the pool: a pass calls ``run_pipeline`` and then ``verify_report`` on every
planar family, and ``hyperplane_crossings`` on every crossing input, timing
each call from outside.  Each call starts after a garbage collection, so
the collector's work inside it depends on that call alone.

Times are reported in reference seconds.  The host is shared, and its speed
swings by up to 2x for seconds to minutes at a time, for every process on
it alike, so raw wall times of the same code spread past any useful bound
from run to run.  A pass therefore also times ``reference_work``, a fixed
piece of work that runs no pierce code, before every planar family and
every ``CROSSINGS_PER_REF`` crossing calls.  A call's time is divided by how
much slower than ``REF_S`` the reference work ran just before and just after
it: on the reference host, unslowed, that leaves it as measured.  An input's
time is the median of its scaled timings, one per pass; the percentiles are
taken over inputs, and ``wall_s`` is the sum of the inputs' times.  A change
that slows pierce slows its calls and not the reference work, so it shows in
full.  The raw figures are printed too.  The work is fixed so that every run
yields the same samples; pools are sized so that it takes about
``--seconds`` on a 2-core 2 GHz Xeon host, and ``--seconds`` scales the
pools.

``--trace 1`` halves the pool and makes the passes once as above, then again
with a span around every call and around every call to a layer function
that pierce looks up in ``pierce.pipeline`` (those names are wrapped for the
traced passes only), so the layer spans nest under the ``run_pipeline`` or
``verify_report`` span that made them.  The per-layer metrics are sums of
span durations and counts.

The gate (``bench/gate.py``) checks every output after the timed work.  The
last stdout line is the JSON result; the exit code is 0 only when every
check passed.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()  # set-up time counts from here: imports are part of it

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from collections import defaultdict  # noqa: E402
from contextlib import contextmanager  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from fractions import Fraction  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import spec  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPS = 3
SETUP_TIMEOUT_S = 120
# A run_pipeline span may exceed the sum of report.timings by this much:
# the report object is built after the last stage clock stops.
STAGE_GAP_FRAC = 0.02
STAGE_GAP_S = 0.002
# Share of pg-union families that must come out with D > 1.
D_ABOVE_ONE_SHARE = 0.25
TAIL_BEYOND = 10


def load_pierce() -> str | None:
    """Put the checkout's src/ first on sys.path; return an error or None."""
    src = ROOT / "src"
    if not (src / "pierce" / "__init__.py").is_file():
        return f"pierce sources not found under {src}"
    sys.path.insert(0, str(src))
    import pierce

    if Path(pierce.__file__).resolve().parent != (src / "pierce").resolve():
        return f"imported pierce from {pierce.__file__}, not from {src}"
    return None


# ------------------------------------------------------------------ spans


@dataclass
class Span:
    sid: int
    trace: str  # one id per family or crossing input
    name: str
    parent: int | None
    root: int  # the outermost span this one descends from
    start: float
    end: float = 0.0
    counts: dict[str, int] = field(default_factory=dict)


@dataclass
class Tracer:
    """Spans kept in memory and written out when the run ends."""

    origin: float = field(default_factory=time.perf_counter)
    spans: list[Span] = field(default_factory=list)
    stack: list[Span] = field(default_factory=list)

    def open(self, name: str, trace: str | None = None) -> Span:
        parent = self.stack[-1] if self.stack else None
        sid = len(self.spans)
        span = Span(sid, trace if parent is None else parent.trace, name,
                    None if parent is None else parent.sid,
                    sid if parent is None else parent.root, time.perf_counter())
        self.spans.append(span)
        self.stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self.stack.pop()

    def wrap(self, fn, name, counts):
        """fn with a span around each call; name and counts may read the call."""
        def traced(*args, **kwargs):
            span = self.open(name(*args) if callable(name) else name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.close(span)
            if counts is not None:
                span.counts = counts(args, out)
            return out

        return traced

    @contextmanager
    def patched(self, module, layers: dict):
        """Wrap module.<attr> for each attr in layers; yields the attrs missing."""
        saved = {attr: getattr(module, attr) for attr in layers if hasattr(module, attr)}
        for attr, (name, counts) in layers.items():
            if attr in saved:
                setattr(module, attr, self.wrap(saved[attr], name, counts))
        try:
            yield sorted(set(layers) - set(saved))
        finally:
            for attr, fn in saved.items():
                setattr(module, attr, fn)

    def layer_figures(self, skip_under: str) -> tuple[dict[str, float], dict[str, list[int]]]:
        """Summed durations and all counts, per span name, except below `skip_under`."""
        seconds: dict[str, float] = defaultdict(float)
        counts: dict[str, list[int]] = defaultdict(list)
        for s in self.spans:
            if s.root != s.sid and self.spans[s.root].name == skip_under:
                continue
            seconds[s.name] += s.end - s.start
            for key, value in s.counts.items():
                counts[key].append(value)
        return seconds, counts

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                rec = {
                    "id": s.sid, "trace": s.trace, "name": s.name, "parent": s.parent,
                    "start": s.start - self.origin, "end": s.end - self.origin,
                }
                if s.counts:
                    rec["counts"] = s.counts
                fh.write(json.dumps(rec) + "\n")


def _lp_name(problem) -> str:
    return "lp.cover_solve" if problem.direction == "min" else "lp.packing_solve"


# The layer functions run_pipeline looks up in pierce.pipeline when it calls
# them: attribute -> (span name, counts read from (args, result)).
PIPELINE_LAYERS = {
    "body_curve_arcs": ("geometry.body_curve_arcs", None),
    "build_meet_graph": ("meetgraph.build_meet_graph", None),
    "verify_p2": ("meetgraph.verify_p2", None),
    "candidate_classes": ("pipeline.candidate_classes",
                          lambda a, out: {"pipeline.classes_n": len(out.points)}),
    "candidate_points": ("geometry.candidate_points",
                         lambda a, out: {"geometry.candidates_n": len(out)}),
    "containment_matrix": ("geometry.containment_matrix",
                           lambda a, out: {"geometry.containment_cells": int(out.size)}),
    "lp_solve": (_lp_name,
                 lambda a, out: {"lp.rows": len(a[0].rows), "lp.cols": len(a[0].objective)}),
    "rationalize": ("pipeline.rationalize", lambda a, out: {"pipeline.D": out[1]}),
    "replicate": ("pipeline.replicate", lambda a, out: {"pipeline.multiset_size": len(out[0])}),
    "_multiset_witness_list": ("witness.build_witness_list",
                               lambda a, out: {"witness.entries_n": len(out)}),
    "find_heavy_point": ("witness.find_heavy_point", None),
}


# ----------------------------------------------------------------- passes


@dataclass
class Op:
    case: int
    seconds: float
    output: object
    error: str | None = None
    ref: int = 0  # index, in its pass's refs, of the reference timing just before it


@dataclass
class Pass:
    traced: bool
    wall: float = 0.0
    solve: list[Op] = field(default_factory=list)
    verify: list[Op] = field(default_factory=list)
    cross: list[Op] = field(default_factory=list)
    refs: list[float] = field(default_factory=list)  # reference_work timings

    def scaled(self, op: Op) -> float:
        """op's time in reference seconds: divided by how much slower than
        REF_S the reference work ran just before and just after it."""
        around = self.refs[op.ref:op.ref + 2]
        return op.seconds * REF_S * len(around) / sum(around)


# The time reference_work takes on the reference host (2-core 2 GHz Xeon)
# when nothing slows it: about its fastest timing over a minute.
REF_S = 0.0022
# Crossing calls between two reference timings.
CROSSINGS_PER_REF = 25


def reference_work() -> None:
    """Fixed work that runs no pierce code, in the program's mix: integer,
    Fraction and small-array arithmetic.  Timed between the calls, it gauges
    how fast the shared host runs at the moment."""
    s = 0
    for i in range(8000):
        s += i * i % 7
    for i in range(300):
        Fraction(i, 7) * Fraction(3, i + 2) + Fraction(1, 3)
    a = np.arange(64.0)
    for _ in range(120):
        a = np.sqrt(a * a + 1.0)


def host_slowdown(reps: int = 9) -> float:
    """How many times REF_S reference_work takes now: the median of reps timings."""
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        reference_work()
        times.append(time.perf_counter() - t0)
    return statistics.median(times) / REF_S


def _time_reference(res: Pass) -> None:
    gc.collect()
    gc.freeze()
    t0 = time.perf_counter()
    reference_work()
    res.refs.append(time.perf_counter() - t0)


def _timed(res: Pass, op: Op) -> Op:
    op.ref = len(res.refs) - 1
    return op


def _call(tracer: Tracer | None, name: str, trace: str, case: int, fn, *args) -> Op:
    """One timed call; a span around it when tracing."""
    # Collect what earlier calls left and freeze the survivors, so the
    # collections inside this call scan only what it allocates.
    gc.collect()
    gc.freeze()
    span = tracer.open(name, trace) if tracer is not None else None
    t0 = time.perf_counter()
    try:
        out, err = fn(*args), None
    except Exception:  # counted as a failed operation; the run goes on
        out, err = None, traceback.format_exc(limit=4)
    t1 = time.perf_counter()
    if span is not None:
        tracer.close(span)
        span.start, span.end = t0, t1
    return Op(case, t1 - t0, out, err)


def schedule(wl) -> list[tuple[str, int]]:
    """Planar families ("p") and crossing inputs ("x") spread evenly over a pass.

    The host's speed drifts over seconds, so each kind of call is spread
    across the whole pass rather than run in one block.
    """
    keyed = [((i + 0.5) / len(wl.planar), "p", i) for i in range(len(wl.planar))]
    keyed += [((j + 0.5) / len(wl.crossings), "x", j) for j in range(len(wl.crossings))]
    return [(kind, i) for _, kind, i in sorted(keyed)]


def run_pass(wl, specs, tracer: Tracer | None = None) -> Pass:
    from pierce.highdim import hyperplane_crossings
    from pierce.pipeline import run_pipeline
    from pierce.reports import verify_report

    res = Pass(traced=tracer is not None)
    start = time.perf_counter()
    for kind, i in schedule(wl):
        if kind == "p" or len(res.cross) % CROSSINGS_PER_REF == 0:
            _time_reference(res)
        if kind == "x":
            case = wl.crossings[i]
            name = "highdim.moment" if case.kind == "moment" else "highdim.closed"
            res.cross.append(_timed(res, _call(tracer, name, f"x{i}", i, hyperplane_crossings,
                                               specs[i], case.normal, case.offset)))
            continue
        inst = wl.planar[i].instance
        op = _timed(res, _call(tracer, "run_pipeline", f"p{i}", i, run_pipeline,
                               inst.bodies, inst.curve, inst.p))
        res.solve.append(op)
        if op.output is not None:
            res.verify.append(_timed(res, _call(tracer, "verify_report", f"p{i}", i,
                                                verify_report, inst, op.output.to_dict())))
    _time_reference(res)
    res.wall = time.perf_counter() - start
    return res


def traced_passes(wl, specs, tracer: Tracer) -> tuple[list[Pass], list[str]]:
    """The workload's passes with spans, and the layer names not found."""
    import pierce.pipeline

    with tracer.patched(pierce.pipeline, PIPELINE_LAYERS) as missing:
        return [run_pass(wl, specs, tracer) for _ in range(wl.passes)], missing


# ------------------------------------------------------------------- gate


def run_gate(wl, passes: list[Pass]) -> tuple[int, list[str]]:
    """Check every output of every pass; returns (failed operations, messages)."""
    import gate

    failed, messages = 0, []

    def record(label: str, problems: list[str]) -> None:
        nonlocal failed
        if problems:
            failed += 1
            messages.extend(f"{label}: {p}" for p in problems)

    def guarded(check) -> list[str]:
        try:
            return check()
        except Exception:  # an oracle that breaks is a failed check, not a crash
            return [traceback.format_exc(limit=4)]

    def solve_problems(case, rep) -> list[str]:
        classes = gate.report_classes(case.instance, rep)
        return gate.check_solve(case.instance, rep, gate.highs_tau_star(classes))

    first: dict[int, dict] = {}
    d_above_one = 0
    for p in passes:
        for op in p.solve:
            case = wl.planar[op.case]
            label = f"solve {case.label} #{op.case}"
            if op.error:
                record(label, [op.error])
                continue
            rep = op.output.to_dict()
            rep.pop("stages")
            if op.case not in first:
                first[op.case] = rep
                record(label, guarded(lambda: solve_problems(case, rep)))
                d_above_one += rep["D"] > 1
            elif rep != first[op.case]:
                record(label, ["report differs from the first solve of this family"])
            if p.traced:
                span, stages = op.seconds, sum(op.output.timings.values())
                if not (stages <= span and span - stages <= STAGE_GAP_FRAC * span + STAGE_GAP_S):
                    record(label, [f"stage times sum to {stages:.6f} s in a "
                                   f"{span:.6f} s run_pipeline span"])
        for op in p.verify:
            label = f"verify {wl.planar[op.case].label} #{op.case}"
            record(label, [op.error] if op.error else op.output)

    roots: dict[int, int] = {}  # sympy's count per moment input, computed once

    def crossing_problems(j, case, count) -> list[str]:
        if case.kind == "moment" and j not in roots:
            roots[j] = gate.moment_roots(case.normal, case.offset)
        return gate.check_crossing(case, count, roots.get(j))

    for p in passes:
        for op in p.cross:
            case = wl.crossings[op.case]
            label = f"crossings {case.kind} d={case.d} #{op.case}"
            if op.error:
                record(label, [op.error])
                continue
            record(label, guarded(lambda: crossing_problems(op.case, case, op.output)))

    if wl.name == "pg-union" and d_above_one < D_ABOVE_ONE_SHARE * len(wl.planar):
        record("pg-union ladder", [f"only {d_above_one} of {len(wl.planar)} families have D > 1"])
    return failed, messages


# ---------------------------------------------------------------- metrics


def tail(samples: list[float]) -> tuple[float, str]:
    """Highest percentile with TAIL_BEYOND samples above it, and its label."""
    xs = sorted(samples)
    n = len(xs)
    if n <= TAIL_BEYOND:
        return xs[-1], f"max of {n} (fewer than {TAIL_BEYOND + 1} samples)"
    return xs[n - TAIL_BEYOND - 1], f"p{100.0 * (n - TAIL_BEYOND) / n:.2f} of {n}"


def per_input(passes: list[Pass], kind: str, scaled: bool = True) -> list[float]:
    """Each input's median time over the passes, in reference seconds unless not scaled."""
    times: dict[int, list[float]] = defaultdict(list)
    for p in passes:
        for op in getattr(p, kind):
            if op.error is None:
                times[op.case].append(p.scaled(op) if scaled else op.seconds)
    return [statistics.median(v) for v in times.values()]


def end_to_end(wl, passes: list[Pass], setup_s: float, rss_mb: float) -> tuple[dict, dict]:
    solve, verify, cross = (per_input(passes, kind) for kind in ("solve", "verify", "cross"))
    wall = sum(solve) + sum(verify) + sum(cross)
    cross = [s * 1e6 for s in cross]
    reports = {op.case: op.output for p in passes for op in p.solve if op.output is not None}
    solve_tail, solve_pct = tail(solve)
    cross_tail, cross_pct = tail(cross)
    values = {
        "setup_s": setup_s,
        "wall_s": wall,
        "solve_p50_s": statistics.median(solve),
        "solve_tail_s": solve_tail,
        "verify_p50_s": statistics.median(verify),
        "crossing_p50_us": statistics.median(cross),
        "crossing_tail_us": cross_tail,
        "peak_rss_mb": rss_mb,
        "transversal_points": sum(len(r.transversal) for r in reports.values()),
        "heavy_epsilon_min": min((r.epsilon for r in reports.values()), default=0.0),
    }
    notes = {
        "passes": len(passes),
        "pool": f"{len(wl.planar)} planar families, {len(wl.crossings)} crossing inputs",
        "solve_tail_s": solve_pct,
        "crossing_tail_us": cross_pct,
        "samples": (f"{len(solve)} solve, {len(verify)} verify, {len(cross)} crossing inputs, "
                    f"each the median of {len(passes)} timings"),
        "host speed": ("reference work took "
                       + ", ".join(f"{statistics.median(p.refs) / REF_S:.3f}" for p in passes)
                       + " x REF_S in the passes (medians)"),
        "unscaled": "p50 of the raw timings: " + ", ".join(
            f"{kind} {statistics.median(per_input(passes, kind, scaled=False)) * mult:.6g} {unit}"
            for kind, mult, unit in (("solve", 1, "s"), ("verify", 1, "s"), ("cross", 1e6, "us"))),
    }
    return values, notes


def per_layer(traced: list[Pass], tracer: Tracer, gen_s: float, overhead: float) -> dict:
    """Per-layer figures of the traced run, summed over all its work.

    The layer calls that verify_report makes to recheck a report are left
    out, so each figure counts the solve's work once.
    """
    seconds, counts = tracer.layer_figures(skip_under="verify_report")
    row = {name: 0 for name, *_ in spec.PER_LAYER}
    # A layer metric "x.y_s" is the summed duration of the spans named "x.y".
    row.update({f"{name}_s": value for name, value in seconds.items() if f"{name}_s" in row})
    row.update({name: sum(values) for name, values in counts.items()})
    row["pipeline.D"] = max(counts.get("pipeline.D", [0]))
    row["reports.verify_report_s"] = seconds["verify_report"]
    reports = [op.output for p in traced for op in p.solve if op.output is not None]
    row["meetgraph.condition_skipped"] = len({
        op.case for p in traced for op in p.solve
        if op.output is not None and not op.output.flags["condition_checked"]})
    for key in spec.STAGES:
        row[f"stage.{key}_s"] = sum(r.timings.get(key, 0.0) for r in reports)
    row["highdim.calls_n"] = sum(len(p.cross) for p in traced)
    row["instances.gen_s"] = gen_s
    row["trace.overhead_frac"] = overhead
    return row


# -------------------------------------------------------------------- run


def set_up(args):
    """Build the pool and warm up: the gallery family and one input of each crossing kind.

    Returns the pool, its curve specs and the time its generation took.
    """
    import workloads
    from pierce.highdim import CurveSpecD, hyperplane_crossings
    from pierce.instances import gallery7
    from pierce.pipeline import run_pipeline
    from pierce.reports import verify_report

    # A traced run makes its passes twice, untraced and traced, on half the pool.
    scale = args.seconds / spec.RUN_SECONDS / (2 if args.trace else 1)
    t0 = time.perf_counter()
    wl = workloads.build(args.workload, args.seed, scale)
    specs = [CurveSpecD(c.kind, c.d) for c in wl.crossings]
    gen_s = time.perf_counter() - t0
    warm = gallery7()
    verify_report(warm, run_pipeline(warm.bodies, warm.curve, warm.p).to_dict())
    for kind in {c.kind for c in wl.crossings}:
        j = next(j for j, c in enumerate(wl.crossings) if c.kind == kind)
        hyperplane_crossings(specs[j], wl.crossings[j].normal, wl.crossings[j].offset)
    return wl, specs, gen_s


def fresh_set_ups(args) -> tuple[list[tuple[float, float]], list[str], list[str]]:
    """SETUP_REPS - 1 set-ups, each in a fresh interpreter, one at a time.

    A set-up in this process would find modules imported and first calls
    made, and hide a regression there.  Returns their times with the host
    slowdown measured right after each, the pool fingerprints they printed,
    and problems met.
    """
    cmd = [sys.executable, str(Path(__file__).resolve()), "--set-up-only",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    times, prints, problems = [], [], []
    for _ in range(SETUP_REPS - 1):
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=SETUP_TIMEOUT_S)
        if proc.returncode != 0:
            problems.append(f"set-up: exit {proc.returncode}: {proc.stderr.strip()[-2000:]}")
            continue
        fingerprint, seconds, slowdown = proc.stdout.split()[-3:]
        prints.append(fingerprint)
        times.append((float(seconds), float(slowdown)))
    return times, prints, problems


def measure(args) -> int:
    err = load_pierce()
    if err:
        print(f"bench: {err}", file=sys.stderr)
        return 2
    import workloads

    wl, specs, gen_s = set_up(args)
    own_setup = (time.perf_counter() - T_START, host_slowdown())
    if args.set_up_only:
        print(workloads.fingerprint(wl), *own_setup)
        return 0
    setups, prints, problems = fresh_set_ups(args)
    setups.insert(0, own_setup)
    if any(fp != workloads.fingerprint(wl) for fp in prints):
        problems.append("set-up: a fresh interpreter built a different pool")

    passes = [run_pass(wl, specs) for _ in range(wl.passes)]
    traced: list[Pass] = []
    if args.trace:
        tracer = Tracer()
        traced, missing = traced_passes(wl, specs, tracer)
        overhead = sum(p.wall for p in traced) / sum(p.wall for p in passes) - 1.0
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    failed, messages = run_gate(wl, passes + traced)
    failed += len(problems)
    messages += problems
    attempted = sum(len(p.solve) + len(p.verify) + len(p.cross) for p in passes + traced)

    setup_s = statistics.median(raw / slowdown for raw, slowdown in setups)
    values, notes = end_to_end(wl, passes, setup_s, rss_mb)
    values["failed_frac"] = failed / attempted
    notes["setup_s"] = ("median of set-ups, raw s / host slowdown: "
                        + ", ".join(f"{raw:.3f} / {slowdown:.3f}" for raw, slowdown in setups))
    if args.trace:
        values.update(per_layer(traced, tracer, gen_s, overhead))
        path = Path(args.spans) if args.spans else (
            ROOT / ".bench_out" / f"spans-{args.workload}-s{args.seed}.jsonl")
        tracer.write(path)
        notes["spans"] = f"{len(tracer.spans)} spans in {path}"
        if missing:
            notes["not traced"] = f"pierce.pipeline has no {', '.join(missing)}"
        notes["stage sum"] = (f"checked: 0 <= run_pipeline span - sum of stages <= "
                              f"{STAGE_GAP_FRAC:.0%} of the span + {STAGE_GAP_S * 1e3:g} ms")
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": values[name], "unit": unit}
                          for name, unit, *_ in (spec.PER_LAYER if args.trace
                                                 else spec.END_TO_END)}}

    units = {m[0]: m[1] for m in spec.END_TO_END + spec.PER_LAYER}
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  "
          f"trace {args.trace}")
    for key, note in notes.items():
        print(f"  {key}: {note}")
    for name, value in values.items():
        print(f"  {name:34s} {value:>14.6g} {units[name]}")
    for msg in messages[:20]:
        print(f"FAIL {msg}", file=sys.stderr)
    if len(messages) > 20:
        print(f"FAIL ... {len(messages) - 20} more", file=sys.stderr)
    if args.out:
        saved = dict(result, workload=args.workload, seed=args.seed, trace=args.trace,
                     all_metrics={k: {"value": v, "unit": units[k]} for k, v in values.items()},
                     notes=notes, problems=messages)
        Path(args.out).write_text(json.dumps(saved, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0 if failed == 0 else 1


# ---------------------------------------------------------------- compare


def compare(old_path: str, new_path: str) -> int:
    """Print per-metric deltas between two result files."""
    def load(path):
        data = json.loads(Path(path).read_text(encoding="utf-8"))
        return data.get("all_metrics") or data["metrics"]

    old, new = load(old_path), load(new_path)
    better = {m[0]: m[2] for m in spec.END_TO_END + spec.PER_LAYER}
    bounds = {m[0]: m[3] for m in spec.END_TO_END}
    print(f"{'metric':34s} {'unit':>6s} {'old':>12s} {'new':>12s} {'delta':>12s} "
          f"{'change':>8s}  verdict")
    for name in [n for n in old if n in new]:
        a, b = old[name]["value"], new[name]["value"]
        delta = b - a
        rel = delta / abs(a) if a else float("inf") if delta else 0.0
        worse = (delta > 0) if better.get(name, "lower") == "lower" else (delta < 0)
        verdict = "same" if delta == 0 else ("worse" if worse else "better")
        if worse and name in bounds and abs(rel) > bounds[name]:
            verdict = f"REGRESSION (bound {bounds[name]:.0%})"
        print(f"{name:34s} {old[name]['unit']:>6s} {a:12.6g} {b:12.6g} {delta:12.4g} "
              f"{rel:8.1%}  {verdict}")
    for name in sorted(set(old) ^ set(new)):
        print(f"{name:34s} only in {'old' if name in old else 'new'}")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=list(spec.WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="also save the result, with every metric, to this file")
    ap.add_argument("--spans", help="where --trace 1 writes its spans (JSON lines)")
    ap.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"),
                    help="print per-metric deltas between two --out files")
    ap.add_argument("--set-up-only", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--write-spec", action="store_true",
                    help="write BENCHMARK.json at the repository root and exit")
    args = ap.parse_args(argv)
    if args.write_spec:
        print(spec.write_benchmark_json(ROOT))
        return 0
    if args.compare:
        return compare(*args.compare)
    if not args.workload:
        ap.error("--workload is required")
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    return measure(args)


if __name__ == "__main__":
    sys.exit(main())
