#!/usr/bin/env python3
"""Benchmark of the crosstwist certifier: one workload per process, checked outputs.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload corpus|ladder|cli --seed N --seconds S --trace 0|1

With ``--trace 0`` it sets up the workload's inputs several times (the median
is ``setup_s``), then runs passes over the workload's jobs until ``S``
seconds have been measured, and reports the median pass.  With ``--trace 1``
it runs one untraced and one traced pass and reports per-layer metrics from
the traced one.  Human-readable lines come first; the last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  Every job's output is checked; a wrong output or an exception
counts as a failed job and never aborts the run.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"
SETUP_REPEATS = 3

E2E_UNITS = {
    "setup_s": "s",
    "total_s": "s",
    "q_s": "s",
    "gf5_s": "s",
    "largest_s": "s",
    "peak_rss_mb": "MB",
}
# Reported on the workloads that have them, but not gated: a gated metric must
# exist, and be nonzero, on every workload.
BUCKET_METRICS = ("detect_s", "emit_s", "validate_s", "build_s", "twist_s", "verify_iso_s")


def run_pass(workload, jobs, golden: dict, tracer=None) -> list[dict]:
    """Run each job (timed), then check its output (untimed)."""
    ctx: dict = {}
    records = []
    for job in jobs:
        value, error = None, None
        start = time.perf_counter()
        try:
            if tracer is None:
                value = job.run(ctx)
            else:
                tracer.active = True
                with tracer.span("bench.job", job=job.id):
                    value = job.run(ctx)
        except Exception as exc:  # a failing job is a result, not a crash
            error = f"{type(exc).__name__}: {exc}"
        finally:
            if tracer is not None:
                tracer.active = False
        seconds = time.perf_counter() - start
        signature = None
        if error is None:
            try:
                signature = job.check(value)
                expected = golden.get(f"{workload.name}:{job.id}")
                if job.fixed and expected != signature:
                    error = f"golden {expected!r}, got {signature!r}"
            except Exception as exc:
                error = f"{type(exc).__name__}: {exc}"
        records.append({"job": job, "seconds": seconds, "signature": signature, "error": error})
        del value
    return records


def pass_metrics(records: list[dict], largest: str) -> dict[str, float]:
    out: dict[str, float] = defaultdict(float)
    for rec in records:
        job, seconds = rec["job"], rec["seconds"]
        out["total_s"] += seconds
        out[f"{job.field}_s"] += seconds
        for bucket in job.buckets:
            out[f"{bucket}_s"] += seconds
        if job.id == largest:
            out["largest_s"] = seconds
    return out


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def report_failures(records) -> int:
    failed = [r for r in records if r["error"] is not None]
    for rec in failed:
        print(f"FAILED {rec['job'].id}: {rec['error']}")
    return len(failed)


def untraced_run(wl, args, workdir: Path, golden: dict) -> dict:
    setups = []
    for _ in range(SETUP_REPEATS):
        gc.collect()
        start = time.perf_counter()
        inputs = wl.setup(args.seed, workdir)
        setups.append(time.perf_counter() - start)

    passes, all_records = [], []
    measured = 0.0
    while not passes or measured < args.seconds:
        jobs = wl.jobs(inputs, workdir)
        gc.collect()
        records = run_pass(wl, jobs, golden)
        all_records.extend(records)
        passes.append(records)
        measured += sum(r["seconds"] for r in records)

    per_pass = [pass_metrics(records, wl.largest) for records in passes]
    metrics = {name: statistics.median(p[name] for p in per_pass) for name in ("total_s", "q_s", "gf5_s", "largest_s")}
    metrics["setup_s"] = statistics.median(setups)
    metrics["peak_rss_mb"] = peak_rss_mb()

    failed = report_failures(all_records)
    attempted = len(all_records)
    print(f"workload {wl.name}: seed {args.seed}, {len(passes)} passes, {len(passes[0])} jobs per pass")
    for name, unit in E2E_UNITS.items():
        print(f"  {name:<16} {metrics[name]:.6f} {unit}")
    print(f"  {'jobs_failed_share':<16} {failed / attempted:.6f} ({failed} of {attempted} jobs)")
    for name in BUCKET_METRICS:
        if any(name in p for p in per_pass):
            print(f"  {name:<16} {statistics.median(p[name] for p in per_pass):.6f} s  (not gated)")
    if wl.name == "ladder":
        print("  per-rung table (median seconds over passes, not gated):")
        by_job = defaultdict(list)
        for rec in all_records:
            by_job[rec["job"].id].append(rec["seconds"])
        for job_id, times in by_job.items():
            tag, rung = job_id.split("/")
            family, _, dims = rung.rpartition("-")
            print(f"    {family:<12} {dims:<5} {tag:<4} {statistics.median(times):.4f} s")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in E2E_UNITS.items()},
    }


def traced_run(wl, args, workdir: Path, golden: dict) -> dict:
    from tracer import Tracer, per_layer_values

    inputs = wl.setup(args.seed, workdir)
    gc.collect()
    plain = run_pass(wl, wl.jobs(inputs, workdir), golden)
    tracer = Tracer()
    tracer.install()
    try:
        gc.collect()
        traced = run_pass(wl, wl.jobs(inputs, workdir), golden, tracer)
    finally:
        tracer.restore()

    failed = report_failures(plain) + report_failures(traced)
    for a, b in zip(plain, traced):
        if a["error"] is None and b["error"] is None and a["signature"] != b["signature"]:
            print(f"FAILED {b['job'].id}: traced outcome differs from the untraced one")
            failed += 1
    overhead = sum(r["seconds"] for r in traced) - sum(r["seconds"] for r in plain)
    values = per_layer_values(tracer, overhead)
    OUT_DIR.mkdir(exist_ok=True)
    spans_path = OUT_DIR / f"trace-{wl.name}.jsonl"
    tracer.write_spans(spans_path)
    print(f"workload {wl.name}: seed {args.seed}, traced pass of {len(traced)} jobs, "
          f"{len(tracer.spans)} spans written to {spans_path.relative_to(ROOT)}")
    for name, (value, unit) in values.items():
        print(f"  {name:<48} {value} {unit}")
    return {
        "correct": failed == 0,
        "attempted": len(plain) + len(traced),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=("corpus", "ladder", "cli"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "crosstwist" / "__init__.py").is_file():
        print(f"error: no crosstwist sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    from workloads import WORKLOADS, load_golden

    wl = WORKLOADS[args.workload]
    workdir = OUT_DIR / f"{wl.name}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        run = traced_run if args.trace else untraced_run
        result = run(wl, args, workdir, load_golden())
    except Exception:
        traceback.print_exc()
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
