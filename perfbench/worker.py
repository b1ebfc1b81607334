"""One benchmark worker process: cold set-up, then CLI invocations in-process.

Usage: python3 perfbench/worker.py '{"workload": ..., "seed": N, "trace": false}'

The worker imports statabft from src/ and resolves the workload's config (the
set-up the program pays before its first GEMM or injection). It then calls
`statabft.cli.main` once, with passes of the reference kernel right before
and right after, and for a traced job once more under the tracer. Each
invocation's outputs are checked. It prints one JSON object on stdout.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time

import checks
from cases import WORK_DIR, WORKLOADS, items_per_invocation
from reference import reference_passes

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _git_commit():
    """The checked-out commit, read from .git without running git; None outside a repo."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.isfile(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def invoke(cli, argv, out_dir, command, items, span=contextlib.nullcontext):
    """Run one CLI invocation and check its outputs (checks are not timed).

    ``span`` opens the tracer's root span around cli.main in a traced run.
    """
    shutil.rmtree(out_dir, ignore_errors=True)
    stdout, stderr = io.StringIO(), io.StringIO()
    error = None
    c0, w0 = time.process_time(), time.perf_counter()
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr), span():
            rc = cli.main(argv)
    except (Exception, SystemExit) as e:
        rc, error = None, repr(e)
    wall, cpu = time.perf_counter() - w0, time.process_time() - c0
    problems, stats, digest = [], {}, None
    if rc != 0:
        problems.append(f"exit code {rc}: {error or stderr.getvalue().strip()}")
    else:
        problems, stats, digest = checks.inspect(command, out_dir, items, stdout.getvalue())
    return {"wall_s": wall, "cpu_s": cpu, "problems": problems, "stats": stats, "digest": digest}


def main():
    job = json.loads(sys.argv[1])
    spec = WORKLOADS[job["workload"]]
    command = spec["command"]
    config = os.path.join("perfbench", "configs", spec["config"]) if spec["config"] else None
    out_dir = os.path.join(WORK_DIR, job["workload"])
    argv = (["--config", config] if config else []) + [
        "--seed", str(job["seed"]), "--out", out_dir, command
    ]

    t0 = time.perf_counter()
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from statabft import cli, config as config_mod

    cfg = config_mod.load_config(config) if config else config_mod.ExperimentConfig()
    cfg = config_mod.override_seed(cfg, job["seed"])
    items = items_per_invocation(command, cfg)
    setup_s = time.perf_counter() - t0

    import numpy
    from statabft import energy

    result = {
        "setup_s": setup_s,
        "items": items,
        "env": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "git_commit": _git_commit(),
            "seed": job["seed"],
            "sweep_workers": energy.max_workers(16),
        },
    }
    passes = reference_passes()
    result["invocations"] = [invoke(cli, argv, out_dir, command, items)]
    result["ref_s"] = statistics.median(passes + reference_passes())
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if job["trace"]:
        from tracing import Tracer, instrument, layer_metrics

        tracer = Tracer()
        with instrument(tracer):
            traced = invoke(
                cli, argv, out_dir, command, items, span=lambda: tracer.root("cli.main")
            )
        traced["layers"] = layer_metrics(tracer)
        result["traced"] = traced
    json.dump(result, sys.stdout)


if __name__ == "__main__":
    main()
