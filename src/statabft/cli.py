"""Command-line entry point.

Subcommands: verify, calibrate, compare, sweep, inject. Global flags:
--config PATH, --seed N, --out DIR, --format csv|json. Exit codes: 0 on
success, 1 when the experiment itself fails (a verification check fails, no
boundary can be fitted), 2 for configuration or environment problems, 141
(128 + SIGPIPE) when stdout is closed early, as by ``| head``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import asdict, fields, replace

import numpy as np

from . import __version__
from .calibration import (
    GridCellError,
    NoBoundaryError,
    QualityGrid,
    fit_critical_region,
    norm_distortion_oracle,
    planted_step_oracle,
    quality_grid,
    zero_factory,
)
from .config import ConfigError, ExperimentConfig, load_config, override_seed, resolved_dict
from .detectors import RowDecisions, save_params
from .energy import (
    CompareRow,
    SweepPoint,
    compare_detectors,
    energy_saving,
    stream,
    sweep_detectors,
)
from .faults import corruption
from .gemm import predicted_output_checksum
from .rng import check_seed
from .workloads import workload_matrices


def _jsonable(v):
    if isinstance(v, float):
        if math.isinf(v):
            return "inf" if v > 0 else "-inf"
        if math.isnan(v):
            return "nan"
    if isinstance(v, (np.integer,)):
        return int(v)
    if isinstance(v, (np.floating,)):
        return _jsonable(float(v))
    if isinstance(v, np.ndarray):
        return [_jsonable(x) for x in v.tolist()]
    if isinstance(v, dict):
        return {k: _jsonable(x) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [_jsonable(x) for x in v]
    return v


def _fmt(v) -> str:
    if isinstance(v, bool):
        return str(int(v))
    if isinstance(v, float):
        return f"{v:.10g}"
    return str(v)


def _csv_text(header: list[str], rows) -> str:
    """One line per row, each cell through ``_fmt``, under a header line."""
    lines = [",".join(header)]
    lines += [",".join(_fmt(v) for v in r) for r in rows]
    return "\n".join(lines) + "\n"


def _json_text(doc) -> str:
    return json.dumps(_jsonable(doc), indent=2) + "\n"


def _write_text(path: str, text: str) -> None:
    with open(path, "w") as fh:
        fh.write(text)


def _write_table(out_dir: str, name: str, fmt: str, header: list[str], rows: list[list]) -> str:
    path = os.path.join(out_dir, f"{name}.{fmt}")
    if fmt == "json":
        text = _json_text([dict(zip(header, r)) for r in rows])
    else:
        text = _csv_text(header, rows)
    _write_text(path, text)
    return path


def grid_to_csv(grid: QualityGrid) -> str:
    """The ``grid.csv`` that ``calibrate`` writes: one row per cell, freq-major."""
    rows = (
        (int(f), float(m), float(q), bool(acc))
        for f, qs, accs in zip(grid.freq_axis, grid.quality, grid.acceptable)
        for m, q, acc in zip(grid.mag_log2_axis, qs, accs)
    )
    return _csv_text(["freq", "mag_log2", "quality", "acceptable"], rows)


def _prepare_out(cfg: ExperimentConfig, command: str, out_dir: str) -> str:
    os.makedirs(out_dir, exist_ok=True)
    echo = {"version": __version__, "command": command, "config": resolved_dict(cfg)}
    _write_text(os.path.join(out_dir, "resolved_config.json"), _json_text(echo))
    return out_dir


def cmd_verify(cfg: ExperimentConfig, args) -> int:
    # imported here so the other subcommands do not load the checks at start-up
    from .verify import run_checks

    results = run_checks(cases=args.cases, seed=cfg.workload.seed)
    width = max(len(r.name) for r in results) + 2
    for r in results:
        line = f"{r.name:<{width}} cases={r.cases:<6} {'PASS' if r.passed else 'FAIL'}"
        if not r.passed:
            line += f"  ({r.detail})"
        print(line)
    failed = [r for r in results if not r.passed]
    if args.out_dir:
        out = _prepare_out(cfg, "verify", args.out_dir)
        _write_table(
            out,
            "verify_report",
            cfg.output.format,
            ["check", "cases", "passed", "detail"],
            [[r.name, r.cases, r.passed, r.detail] for r in results],
        )
    if failed:
        print(f"{len(failed)} of {len(results)} checks failed", file=sys.stderr)
        return 1
    print(f"all {len(results)} checks passed")
    return 0


def cmd_calibrate(cfg: ExperimentConfig, args) -> int:
    cal = cfg.calibrate
    if cal.oracle == "planted":
        oracle = planted_step_oracle(cal.planted)
    else:
        oracle = norm_distortion_oracle(cal.norm_kind)
    grid = quality_grid(
        oracle,
        cal.mag_log2_axis,
        cal.freq_axis,
        epsilon=cal.epsilon,
        trials=cal.trials,
        seed=cfg.workload.seed,
        clean_factory=zero_factory(cal.target_rows, cal.target_cols),
    )
    params = fit_critical_region(grid)

    out = _prepare_out(cfg, "calibrate", args.out_dir or cfg.output.dir)
    _write_text(os.path.join(out, "grid.csv"), grid_to_csv(grid))
    provenance = (
        f"statabft {__version__} calibrate oracle={cal.oracle} "
        f"seed={cfg.workload.seed} epsilon={cal.epsilon} trials={cal.trials}"
    )
    save_params(params, os.path.join(out, "params.json"), provenance=provenance)
    print(
        f"fitted a={params.a:.4f} b={params.b:.4f} theta_freq={params.theta_freq} "
        f"-> {os.path.join(out, 'params.json')}"
    )
    return 0


def _row(record, header) -> tuple:
    """The ``header`` fields of a flat dataclass record, as is (``astuple`` would deep-copy each)."""
    return tuple(getattr(record, name) for name in header)


def cmd_compare(cfg: ExperimentConfig, args) -> int:
    rows = compare_detectors(cfg.workload, cfg.detector_specs(), cfg.fault)
    out = _prepare_out(cfg, "compare", args.out_dir or cfg.output.dir)
    header = [f.name for f in fields(CompareRow)]
    table = [_row(r, header) for r in rows]
    path = _write_table(out, "detectors", cfg.output.format, header, table)
    for r in rows:
        print(
            f"{r.detector:<12} recovery_rate={r.recovery_rate:.4f} "
            f"undetected_critical={r.undetected_critical_rate:.4f} "
            f"mean_freq_eff={r.mean_freq_eff:.3f} mean_msd={r.mean_msd:.4g}"
        )
    print(f"wrote {path}")
    return 0


def cmd_sweep(cfg: ExperimentConfig, args) -> int:
    results = sweep_detectors(
        cfg.workload, cfg.detector_specs(), cfg.fault, cfg.voltages(), cfg.energy
    )
    out = _prepare_out(cfg, "sweep", args.out_dir or cfg.output.dir)
    header = [f.name for f in fields(SweepPoint)]
    rows = [_row(p, header) for res in results.values() for p in res.points]
    for res in results.values():
        rows.append(_row(replace(res.optimum, detector=f"{res.optimum.detector}_optimum"), header))
    path = _write_table(out, "sweep", cfg.output.format, header, rows)

    classical = results.get("classical")
    summary_rows = []
    for label, res in results.items():
        p = res.optimum
        saving = energy_saving(res, classical) if classical else math.nan
        summary_rows.append(
            [label, p.voltage, p.ber, p.recovery_rate, p.energy_total,
             p.latency_factor, p.quality_proxy, saving]
        )
        msg = (
            f"{label:<12} optimum v={p.voltage:.3f} energy={p.energy_total:.4g} "
            f"recovery_rate={p.recovery_rate:.4f}"
        )
        if classical and label != "classical":
            msg += f" saving_vs_classical={100 * saving:.1f}%"
        print(msg)
    _write_table(
        out,
        "sweep_summary",
        cfg.output.format,
        ["detector", "opt_voltage", "ber", "recovery_rate", "energy_total",
         "latency_factor", "quality_proxy", "energy_saving_vs_classical"],
        summary_rows,
    )
    print(f"wrote {path}")
    return 0


def _decision(v: RowDecisions) -> str:
    return "recover" if v.recovers else "pass"


def cmd_inject(cfg: ExperimentConfig, args) -> int:
    spec = cfg.workload
    if not (0 <= args.index < spec.gemm_count):
        raise ConfigError(f"--index must be in [0, {spec.gemm_count}), got {args.index}")
    w, x = workload_matrices(spec, args.index)
    # the trial compare and sweep score: clean values only at the corrupted elements
    record = corruption(spec.m, spec.n, *stream(spec, cfg.fault, [args.index]), cfg.fault)
    events = record.events()
    predicted = predicted_output_checksum(w, x)
    diff = record.diff()
    verdicts = {d.kind: d.decide(diff).row(0) for d in cfg.detector_specs()}

    doc = {
        "version": __version__,
        "gemm_index": args.index,
        "shape": {"m": spec.m, "k": spec.k, "n": spec.n},
        "fault": resolved_dict(cfg)["fault"],
        "events": [asdict(e) for e in events],
        "predicted_checksum": predicted.data,
        "observed_checksum": predicted.data - diff[0],
        "diff": diff[0],
        "verdicts": {
            kind: {"msd": v.msd, "theta_mag": v.theta_mag, "freq_eff": v.freq_eff,
                   "decision": _decision(v)}
            for kind, v in verdicts.items()
        },
    }
    text = _json_text(doc)
    if args.out_dir:
        out = _prepare_out(cfg, "inject", args.out_dir)
        path = os.path.join(out, "inject.json")
        _write_text(path, text)
        decisions = ", ".join(f"{kind} {_decision(v)}" for kind, v in verdicts.items())
        print(f"{len(events)} events, verdicts {decisions}; wrote {path}")
    else:
        print(text, end="")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="statabft",
        description="Statistical ABFT simulator for undervolted quantized GEMM arrays.",
    )
    parser.add_argument("--config", metavar="PATH", help="JSON experiment config")
    parser.add_argument("--seed", type=int, metavar="N", help="override workload and fault seeds")
    parser.add_argument("--out", dest="out_dir", metavar="DIR", help="output directory")
    parser.add_argument("--format", choices=["csv", "json"], help="tabular output format")
    parser.add_argument("--version", action="version", version=f"statabft {__version__}")

    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="run randomized invariant checks")
    p_verify.add_argument("--cases", type=int, default=200, help="cases per check")
    p_verify.set_defaults(handler=cmd_verify)

    p_cal = sub.add_parser("calibrate", help="fit critical-region params from a quality grid")
    p_cal.set_defaults(handler=cmd_calibrate)

    p_cmp = sub.add_parser("compare", help="score all detectors on one faulted GEMM stream")
    p_cmp.set_defaults(handler=cmd_compare)

    p_sweep = sub.add_parser("sweep", help="voltage sweep with energy accounting")
    p_sweep.set_defaults(handler=cmd_sweep)

    p_inj = sub.add_parser("inject", help="single-GEMM injection dump (JSON)")
    p_inj.add_argument("--index", type=int, default=0, help="GEMM index in the stream")
    p_inj.set_defaults(handler=cmd_inject)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    try:
        cfg = load_config(args.config) if args.config else ExperimentConfig()
        if args.seed is not None:
            check_seed(args.seed, "--seed")
            cfg = override_seed(cfg, args.seed)
        if args.format:
            cfg = replace(cfg, output=replace(cfg.output, format=args.format))
        return args.handler(cfg, args)
    except (NoBoundaryError, GridCellError) as e:
        print(f"experiment failed: {e}", file=sys.stderr)
        return 1
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the reader left; the SIGPIPE note in the Python docs points stdout at
        # devnull so that the flush at shutdown does not raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
