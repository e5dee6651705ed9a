#!/usr/bin/env python3
"""cavpuck benchmark.

    python3 perfbench/run.py --workload {cli_session,sweep_map,fit_batch} \\
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout; the package is imported from ./src, never
from an installed copy.  Set-up (input generation, spectrum synthesis,
warm-up) runs three times and ``setup_s`` is its median.  The timed phase
then runs a fixed number of whole cycles of the workload: the fewest that
take at least S seconds at the workload's reference pace (its ``CYCLE_S``),
so the same seed and S always run the same operations.  Every output is
checked afterwards (see workloads.py).

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` is the traced
run: span wrappers go around every layer function, each operation runs once
traced and once untraced (alternating which goes first) to give the tracing
overhead, and one short cycle of each other workload follows, so that every
layer metric is measured whichever workload is named.  Spans are written to
``.perfbench_work/`` when the run ends.

Human-readable lines come first; the last line of standard output is the
JSON result.  Exits 2, printing no result, when ./src/cavpuck is missing.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import itertools
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

import numpy
import workloads as wl
from spans import LAYERS, Recorder, self_times

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
SETUP_REPEATS = 3
TAIL_BEYOND = 10   # op_tail_ms: the highest percentile with this many samples beyond it

# Error types a sweep row is counted under; anything else lands in "other".
ROW_ERROR_TYPES = ("ValueError", "PeaksNotResolvedError", "GridTooCoarseError", "OutOfRangeError")


def env_stamp():
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": importlib.metadata.version("scipy"),
        "blas": blas,
        "blas_env": {k: os.environ.get(k) for k in (
            "OPENBLAS_CORETYPE", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "CAVPUCK_WORKERS": os.environ.get("CAVPUCK_WORKERS"),
    }


def setup(workload, seed, trace):
    """Run set-up SETUP_REPEATS times; (inputs, ops, per-repeat seconds)."""
    times = []
    for _ in range(SETUP_REPEATS):
        ops = None  # free the previous repeat's spectra before building new ones
        t0 = time.perf_counter()
        inputs = workload.make_inputs(seed)
        ops = workload.prepare(inputs, trace)
        workload.warm_up(ops)
        times.append(time.perf_counter() - t0)
    return inputs, ops, times


def tail(latencies):
    """(value, percentile, samples beyond it): the highest percentile with
    TAIL_BEYOND samples beyond it, or the maximum when there are too few."""
    s = sorted(latencies)
    n = len(s)
    if n <= TAIL_BEYOND:
        return s[-1], 100.0, 0
    return s[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, TAIL_BEYOND


def peak_rss_mb(children):
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0  # KiB on Linux


def run_ops(ops, cycle, cycles):
    """The ops of a run: `cycles` whole cycles, in order, wrapping round.
    The count is fixed before the run starts, so the same seed and
    --seconds always run the same operations and report the same attempted
    and failed counts, however fast the machine is that day."""
    return list(itertools.islice(itertools.cycle(ops), cycle * cycles))


def cycle_count(seconds, cycle_s):
    """The fewest whole cycles that take at least `seconds` at the
    workload's reference pace of `cycle_s` seconds a cycle (at least one)."""
    return max(1, math.ceil(seconds / cycle_s - 1e-9))


def run_untraced(ops):
    records = []
    t0 = time.perf_counter()
    for op in ops:
        start = time.perf_counter()
        raw = op.run()
        records.append((op, raw, time.perf_counter() - start))
    return records, time.perf_counter() - t0


def run_traced(ops, coverage, rec):
    """Traced records, plus the summed traced and untraced time of the
    paired operations."""
    op_ids = itertools.count(1)
    records, traced_s, untraced_s = [], 0.0, 0.0

    def traced(op):
        rec.op_id = next(op_ids)
        start = time.perf_counter()
        with rec.span("op", kind=op.kind):
            raw = op.run_traced(rec)
        records.append((op, raw, time.perf_counter() - start))
        return records[-1][2]

    def untraced(op):
        start = time.perf_counter()
        op.run()
        return time.perf_counter() - start

    for i, op in enumerate(ops):
        if i % 2:
            untraced_s += untraced(op)
            traced_s += traced(op)
        else:
            traced_s += traced(op)
            untraced_s += untraced(op)
    for op in coverage:
        traced(op)
    return records, traced_s, untraced_s


def _median(values, scale=1.0):
    return statistics.median(values) * scale if values else 0.0


def layer_metrics(spans, outcomes, n_ops, overhead_pct):
    """Every per-layer metric, from the spans and checked outcomes of a traced run."""
    dur = defaultdict(list)
    for s in spans:
        dur[s["name"]].append(s["end"] - s["start"])
    by_id = {s["id"]: s for s in spans}
    selfs = self_times(spans)
    m = {}

    def put(name, value, unit):
        m[name] = {"value": float(value), "unit": unit}

    put("cli.import_ms", _median(dur["cli.import"], 1e3), "ms")
    for cmd in ("modes", "spectrum", "fit", "sweep", "sensitivity"):
        vals = [s["end"] - s["start"] for s in spans
                if s["name"] == "cli.main" and s["attrs"].get("command") == cmd]
        put(f"cli.{cmd}_ms", _median(vals, 1e3), "ms")
    exits = Counter(o.cause for o in outcomes)
    put("cli.exit2", exits["exit2"], "count")
    put("cli.exit3", exits["exit3"], "count")

    put("scenario.load_ms", _median(dur["scenario.bundled_scenario"], 1e3), "ms")
    put("cmt.coupled_eigenmodes_us", _median(dur["cmt.coupled_eigenmodes"], 1e6), "us")
    put("cmt.calls", len(dur["cmt.coupled_eigenmodes"]), "count")

    # a call that raised carries no size attributes
    points = [s["attrs"]["points"] for s in spans
              if s["name"] == "network.synthesize_s21" and "points" in s["attrs"]]
    put("network.synthesize_s21_ms", _median(dur["network.synthesize_s21"], 1e3), "ms")
    put("network.grid_points_median", _median(points), "count")
    put("network.grid_points_max", max(points, default=0), "count")
    for fn in ("find_peaks_and_notch", "phase_derivative", "write_spectrum_csv",
               "read_spectrum_csv"):
        put(f"network.{fn}_ms", _median(dur[f"network.{fn}"], 1e3), "ms")
    put("network.csv_bytes", _median([s["attrs"]["bytes"] for s in spans
                                      if s["name"] == "network.write_spectrum_csv"
                                      and "bytes" in s["attrs"]]), "B")

    for est in ("q_three_db", "fit_lorentzian", "q_phase_slope"):
        put(f"extract.{est}_ms", _median(dur[f"extract.{est}"], 1e3), "ms")
        mine = [o for o in outcomes if o.estimator == est]
        raised = sum(o.cause.startswith(("raised", "exit")) for o in mine)
        out_of_tol = sum(o.cause == "out_of_tol" for o in mine)
        put(f"extract.{est}.fail", raised + out_of_tol, "count")
        put(f"extract.{est}.raised", raised, "count")
        put(f"extract.{est}.out_of_tol", out_of_tol, "count")
        put(f"extract.{est}.q_err_rel",
            _median([abs(o.q_err) for o in mine if o.q_err is not None]), "ratio")

    sweeps = [s for s in spans if s["name"] == "sweep.run_sweep" and "rows" in s["attrs"]]
    # means, not medians: the plans mix 10 ms and 1 s sweeps, and the two
    # worker counts run the same plans, so their totals compare directly
    for name, workers in (("sweep.run_sweep_ms", None), ("sweep.run_sweep_workers1_ms", 1)):
        vals = [s["end"] - s["start"] for s in sweeps if s["attrs"]["workers"] == workers]
        put(name, 1e3 * statistics.fmean(vals) if vals else 0.0, "ms")
    put("sweep.rows", sum(s["attrs"]["rows"] for s in sweeps), "count")
    row_errors = Counter()
    for o in outcomes:
        row_errors.update(o.row_errors)
    for name in ROW_ERROR_TYPES:
        put(f"sweep.error_rows.{name}", row_errors.pop(name, 0), "count")
    put("sweep.error_rows.other", sum(row_errors.values()), "count")

    # time in the sensitivity layer per CLI sensitivity call (its outermost spans)
    per_op = defaultdict(float)
    for s in spans:
        parent = by_id.get(s["parent"])
        if s["name"].startswith("sensitivity.") and not (
                parent and parent["name"].startswith("sensitivity.")):
            per_op[s["op"]] += s["end"] - s["start"]
    put("sensitivity.responsivity_us", _median(list(per_op.values()), 1e6), "us")

    self_by_layer = Counter()
    for s in spans:
        self_by_layer[s["name"].split(".", 1)[0]] += selfs[s["id"]]
    for layer in LAYERS:
        put(f"{layer}.self_ms", 1e3 * self_by_layer[layer] / n_ops, "ms")
    put("bench.self_ms", 1e3 * self_by_layer["op"] / n_ops, "ms")
    put("trace.overhead_pct", overhead_pct, "%")
    put("trace.spans", len(spans), "count")
    return m


def main(argv=None):
    p = argparse.ArgumentParser(description="cavpuck benchmark")
    p.add_argument("--workload", required=True, choices=("cli_session", "sweep_map", "fit_batch"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (ROOT / "src" / "cavpuck" / "__init__.py").is_file():
        print(f"error: no cavpuck package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import cavpuck

    if Path(cavpuck.__file__).resolve().parent != ROOT / "src" / "cavpuck":
        print(f"error: imported cavpuck from {cavpuck.__file__}, not ./src", file=sys.stderr)
        return 2
    env = env_stamp()
    # the workloads run at the program's default worker count
    os.environ.pop("CAVPUCK_WORKERS", None)
    scratch = WORK / f"{args.workload}-{os.getpid()}"
    try:
        return _run(args, env, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def _run(args, env, scratch):
    workload = wl.WORKLOADS[args.workload](scratch)
    inputs, ops, setup_times = setup(workload, args.seed, bool(args.trace))
    digest = wl.inputs_hash(inputs)

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    whys = {w["name"]: w["why"] for w in spec["workloads"]}
    print(f"why: {whys[args.workload]}")
    print(f"inputs_sha256 {digest}")
    print(f"env {json.dumps(env, sort_keys=True)}")

    if args.trace:
        rec = Recorder()
        coverage = []
        for other, cls in wl.WORKLOADS.items():
            if other != args.workload:
                coverage += cls(scratch / other).coverage_ops(args.seed)
        run = run_ops(ops, workload.cycle, cycle_count(args.seconds, workload.TRACED_CYCLE_S))
        records, traced_s, untraced_s = run_traced(run, coverage, rec)
        all_outcomes = [op.check(raw) for op, raw, _ in records]
        overhead = 100.0 * (traced_s - untraced_s) / untraced_s
        metrics = layer_metrics(rec.spans, all_outcomes, len(records), overhead)
        # the result line counts the named workload; the coverage cycle feeds the layers
        outcomes = all_outcomes[:len(records) - len(coverage)]
        correct = not any(o.mismatch for o in all_outcomes)
        WORK.mkdir(exist_ok=True)
        spans_path = WORK / f"spans-{args.workload}-seed{args.seed}.json"
        spans_path.write_text(json.dumps(rec.spans))
        print(f"spans {len(rec.spans)} written to {spans_path.relative_to(ROOT)}; "
              f"traced {traced_s:.3f} s vs untraced {untraced_s:.3f} s on the same operations")
    else:
        run = run_ops(ops, workload.cycle, cycle_count(args.seconds, workload.CYCLE_S))
        records, elapsed = run_untraced(run)
        outcomes = [op.check(raw) for op, raw, _ in records]
        correct = not any(o.mismatch for o in outcomes)

    units = sum(o.rows for o in outcomes)
    ok_units = sum(o.ok_rows for o in outcomes)
    causes = Counter(o.cause for o in outcomes if not o.ok)
    row_causes = Counter()
    for o in outcomes:
        row_causes.update(o.row_errors)
    unit = "row" if args.workload == "sweep_map" else "op"
    print(f"fail_ratio {1 - ok_units / units:.6f} ({units - ok_units} of {units} {unit}s); "
          f"failed ops by cause {dict(causes)}; error rows by type {dict(row_causes)}")
    for o in outcomes:
        if o.mismatch:
            print(f"MISMATCH {o.cause}")

    if not args.trace:
        lat = [d for _, _, d in records]
        tail_value, tail_pct, beyond = tail(lat)
        ok_ops = sum(o.ok for o in outcomes)
        metrics = {
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
            "ok_ops_per_s": {"value": ok_ops / elapsed, "unit": "1/s"},
            "op_p50_ms": {"value": 1e3 * statistics.median(lat), "unit": "ms"},
            "op_tail_ms": {"value": 1e3 * tail_value, "unit": "ms"},
            "ok_ratio": {"value": ok_units / units, "unit": "ratio"},
            "peak_rss_mb": {"value": peak_rss_mb(args.workload == "cli_session"),
                            "unit": "MB"},
            "ok_rows_per_s": {"value": ok_units / elapsed, "unit": "1/s"},
        }
        print(f"setup runs {[round(t, 4) for t in setup_times]} s; timed phase {elapsed:.3f} s, "
              f"{len(lat)} ops ({ok_ops} ok)")
        print(f"op_tail_ms is p{tail_pct:.1f} of {len(lat)} samples ({beyond} beyond it)")
    for name, v in metrics.items():
        print(f"  {name:40s} {v['value']:.6g} {v['unit']}")

    result = {"correct": correct, "attempted": units, "failed": units - ok_units,
              "metrics": metrics}
    WORK.mkdir(exist_ok=True)
    report = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, inputs_sha256=digest, env=env,
                  failed_by_cause=dict(causes), error_rows_by_type=dict(row_causes),
                  setup_runs_s=setup_times)
    (WORK / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
