"""statabft benchmark: end-to-end CPU time, set-up and memory, or per-layer trace.

Usage (from the repository root):

    python3 perfbench/run.py --workload sweep_default --seed 0 --seconds 44 --trace 0

A run lasts about --seconds. It starts worker processes one after another;
each cold-imports statabft from src/, resolves the workload's config, and
calls `statabft.cli.main` in-process (see worker.py). Workers run one at a
time, so the only parallelism is the sweep's own thread pool, which keeps its
default size (REALM_SIM_THREADS is removed from the workers' environment).
Several short processes rather than one long one sample the machine's
run-to-run drift and give several cold set-ups per run.

With --trace 0 the run reports the end-to-end metrics setup_s,
cpu_per_item_ms and peak_rss_mb, each the median over the run's workers.
The two times are scaled by the reference kernel (reference.py). Wall-clock
items_per_s and the error rate, `failed / attempted` of the result line, are
printed but are not metrics: the first is too noisy to gate on a shared
host, the second is 0 when the program is correct. With --trace 1 each
worker makes one untraced and one traced invocation, and the run reports the
per-layer metrics of tracing.py plus trace.overhead_s (traced minus untraced
wall time).

Every invocation's outputs are checked (checks.py) and must be byte-identical
to the run's first invocation. The last line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

from cases import WORKLOADS
from reference import REFERENCE_S
from tracing import COUNT_METRICS

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKER = os.path.join(ROOT, "perfbench", "worker.py")

# a worker that has not finished this long after the run's end is killed,
# which keeps a run under 180 s for --seconds up to 60
GRACE_S = 100

END_TO_END_UNITS = {"setup_s": "s", "cpu_per_item_ms": "ms", "peak_rss_mb": "MB"}
RATIOS = ("faults.flip_yield", "gemm.useful_frac", "energy.overlap")


def _layer_unit(name):
    if name.endswith("_s"):
        return "s"
    return "ratio" if name in RATIOS else "count"


def _run_worker(job, timeout):
    """One worker process; returns its result dict or an error string."""
    env = dict(os.environ)
    env.pop("REALM_SIM_THREADS", None)
    try:
        proc = subprocess.run(
            [sys.executable, WORKER, json.dumps(job)],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        return f"worker timed out after {timeout:.0f} s"
    if proc.returncode != 0:
        return f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}"
    try:
        return json.loads(proc.stdout)
    except json.JSONDecodeError:
        return f"worker printed no result: {proc.stdout[-500:]!r}"


def _run_workers(job, seconds):
    start = time.perf_counter()
    deadline, hard_deadline = start + seconds, start + seconds + GRACE_S
    results, errors, took = [], [], []
    while True:
        t0 = time.perf_counter()
        res = _run_worker(job, hard_deadline - t0)
        took.append(time.perf_counter() - t0)
        if isinstance(res, str):
            # a broken program fails every worker alike, so stop at the first
            errors.append(res)
            break
        results.append(res)
        if time.perf_counter() + statistics.median(took) > deadline:
            break
    return results, errors


def _mark_outputs(invocations):
    """Failed checks, and outputs that differ from the first passing invocation."""
    reference = next((inv["digest"] for inv in invocations if not inv["problems"]), None)
    failed = 0
    for i, inv in enumerate(invocations):
        if not inv["problems"] and inv["digest"] != reference:
            inv["problems"].append(f"outputs of invocation {i} differ from the first")
        failed += bool(inv["problems"])
    return failed


def _trace_metrics(results, problems):
    layers = [r["traced"]["layers"] for r in results]
    metrics = {}
    for name in layers[0]:
        values = [lay[name] for lay in layers]
        if name in COUNT_METRICS and len(set(values)) > 1:
            problems.append(f"count {name} differs between traced invocations: {values}")
        metrics[name] = statistics.median(values)
    traced = statistics.median(r["traced"]["wall_s"] for r in results)
    untraced = statistics.median(r["invocations"][0]["wall_s"] for r in results)
    metrics["trace.overhead_s"] = traced - untraced
    return {k: {"value": v, "unit": _layer_unit(k)} for k, v in metrics.items()}


def _timed_metrics(results, invocations):
    """Gated metrics, scaled to the reference host, and the unscaled figures."""
    items = results[0]["items"]
    unscaled = {
        "setup_s": [r["setup_s"] for r in results],
        "cpu_per_item_ms": [1000.0 * r["invocations"][0]["cpu_s"] / items for r in results],
        "items_per_s": [items / inv["wall_s"] for inv in invocations],
    }
    scale = [REFERENCE_S / r["ref_s"] for r in results]
    values = {
        "setup_s": statistics.median(v * k for v, k in zip(unscaled["setup_s"], scale)),
        "cpu_per_item_ms": statistics.median(
            v * k for v, k in zip(unscaled["cpu_per_item_ms"], scale)),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in results),
    }
    metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    return metrics, {k: statistics.median(v) for k, v in unscaled.items()}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not os.path.isfile(os.path.join(ROOT, "src", "statabft", "cli.py")):
        print(f"error: statabft sources not found under {ROOT}/src", file=sys.stderr)
        return 2

    job = {"workload": args.workload, "seed": args.seed, "trace": bool(args.trace)}
    results, errors = _run_workers(job, args.seconds)
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds} trace {args.trace}")
    for e in errors:
        print(f"worker failed: {e}")
    if not results:
        print("error: no worker produced a result", file=sys.stderr)
        return 1

    invocations = [inv for r in results for inv in r["invocations"]]
    if args.trace:
        invocations += [r["traced"] for r in results]
    failed = _mark_outputs(invocations) + len(errors)
    attempted = len(invocations) + len(errors)
    problems = [p for inv in invocations for p in inv["problems"]]
    unscaled = {}
    if args.trace:
        metrics = _trace_metrics(results, problems)
    else:
        metrics, unscaled = _timed_metrics(results, invocations)

    n_workers, n_inv, items = len(results), len(invocations), results[0]["items"]
    notes = {
        "setup_s": f"median of {n_workers} worker set-ups, scaled; "
                   f"unscaled {unscaled.get('setup_s', 0):.6g} s",
        "cpu_per_item_ms": f"median of {n_inv} invocations of {items} items, scaled; "
                           f"unscaled {unscaled.get('cpu_per_item_ms', 0):.6g} ms",
        "peak_rss_mb": f"median of {n_workers} workers",
    }
    for name, m in metrics.items():
        note = notes.get(name, f"median of {n_workers} traced invocations")
        print(f"{name:<28} {m['value']:.6g} {m['unit']:<6} ({note})")
    if unscaled:
        print(f"{'items_per_s':<28} {unscaled['items_per_s']:.6g} {'1/s':<6} "
              f"(median of {n_inv} invocations, unscaled; not gated, see README)")
    print(f"{'error_rate':<28} {failed / attempted:.6g} {'ratio':<6} "
          f"({failed} failed of {attempted} attempted)")
    for p in sorted(set(problems)):
        print(f"problem: {p}")
    passing = next((inv for inv in invocations if not inv["problems"]), None)
    record = {
        "environment": results[0]["env"],
        "simulated": passing["stats"] if passing else None,
        "samples": {
            "setup_s": [r["setup_s"] for r in results],
            "wall_s": [inv["wall_s"] for inv in invocations],
            "cpu_s": [inv["cpu_s"] for inv in invocations],
            "ref_s": [r["ref_s"] for r in results],
        },
    }
    print("record " + json.dumps(record, sort_keys=True))
    correct = failed == 0 and not problems
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
