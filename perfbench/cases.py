"""The benchmark's workloads, shared by run.py and its worker processes.

Each workload is one `statabft` subcommand with an optional config file from
perfbench/configs/. The seed is passed through the CLI's global --seed, so
the program receives only the inputs that seed generates.
"""

WORKLOADS = {
    # stock sweep, no config file: the north-star output
    "sweep_default": {"command": "sweep", "config": None},
    # one deep GEMM stream at a single fault level: GEMM kernel and workload draws
    "compare_deep": {"command": "compare", "config": "compare_deep.json"},
    # planted calibration grid: uniform injections, no GEMM, config parse in set-up
    "calibrate_planted": {"command": "calibrate", "config": "calibrate_planted.json"},
}

# what each subcommand writes into --out; the output checks require all of them
OUTPUT_FILES = {
    "sweep": ("resolved_config.json", "sweep.csv", "sweep_summary.csv"),
    "compare": ("resolved_config.json", "detectors.csv"),
    "calibrate": ("resolved_config.json", "grid.csv", "params.json"),
}

WORK_DIR = ".perfbench_work"


def items_per_invocation(command, cfg):
    """Simulated items one invocation completes under the resolved config.

    An item is one GEMM evaluation (trials x voltages for sweep, gemm_count
    for compare) or one calibration injection (grid cells x trials).
    """
    if command == "sweep":
        return cfg.sweep_trials * len(cfg.voltages())
    if command == "compare":
        return cfg.workload.gemm_count
    cal = cfg.calibrate
    return len(cal.freq_axis) * len(cal.mag_log2_axis) * cal.trials
