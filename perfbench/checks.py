"""Output checks and simulated statistics for one CLI invocation.

`inspect(command, out_dir, items)` reads what the invocation wrote and
returns (problems, stats, digest): a list of failed checks, the simulated
statistics recorded beside the metrics (ungated), and one sha256 over every
output file, used to require byte-identical outputs across invocations.
"""

from __future__ import annotations

import csv
import hashlib
import os

from cases import OUTPUT_FILES

# acceptance criterion 7: calibrating the planted oracle recovers (2.0, 40.0, 4)
PLANTED = (2.0, 40.0, 4)
A_TOL = 0.1
B_TOL = 1.0


def _rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _in_unit(value):
    return 0.0 <= float(value) <= 1.0


def _check_detector_rates(rates, where):
    """rates: detector -> recovery rate (float) at one operating point."""
    problems = []
    if rates.get("none", 0.0) != 0.0:
        problems.append(f"{where}: none recovered at rate {rates['none']}")
    if "dmr" in rates and "classical" in rates and rates["dmr"] != rates["classical"]:
        problems.append(f"{where}: dmr {rates['dmr']} != classical {rates['classical']}")
    if "statistical" in rates and "classical" in rates and rates["statistical"] > rates["classical"]:
        problems.append(
            f"{where}: statistical {rates['statistical']} > classical {rates['classical']}"
        )
    return problems


def _sweep(out_dir, items):
    problems, stats = [], {}
    rows = _rows(os.path.join(out_dir, "sweep.csv"))
    points = [r for r in rows if not r["detector"].endswith("_optimum")]
    optima = {r["detector"][: -len("_optimum")]: r for r in rows if r["detector"].endswith("_optimum")}
    for r in rows:
        for key in ("recovery_rate", "quality_proxy"):
            if not _in_unit(r[key]):
                problems.append(f"sweep {r['detector']} v={r['voltage']}: {key} {r[key]} outside [0, 1]")
    by_voltage = {}
    for r in points:
        by_voltage.setdefault(r["voltage"], {})[r["detector"]] = float(r["recovery_rate"])
    for v, rates in by_voltage.items():
        problems += _check_detector_rates(rates, f"sweep v={v}")
    kinds = sorted({r["detector"] for r in points})
    if sorted(optima) != kinds:
        problems.append(f"sweep optimum rows {sorted(optima)} != detectors {kinds}")
    for kind in kinds:
        mine = [r for r in points if r["detector"] == kind]
        best = min(mine, key=lambda r: (float(r["energy_total"]), -float(r["voltage"])))
        opt = optima.get(kind)
        if opt is not None and (opt["voltage"], opt["energy_total"]) != (best["voltage"], best["energy_total"]):
            problems.append(
                f"sweep {kind}_optimum at v={opt['voltage']} is not the minimum energy_total "
                f"(v={best['voltage']})"
            )
    if len(points) != len(by_voltage) * len(kinds):
        problems.append(f"sweep has {len(points)} points, not one per voltage and detector")
    for r in _rows(os.path.join(out_dir, "sweep_summary.csv")):
        stats[r["detector"]] = {
            "opt_voltage": float(r["opt_voltage"]),
            "energy_saving_vs_classical": float(r["energy_saving_vs_classical"]),
        }
    return problems, {"optimum": stats}


def _compare(out_dir, items):
    problems, rates, stats = [], {}, {}
    for r in _rows(os.path.join(out_dir, "detectors.csv")):
        if int(r["trials"]) != items:
            problems.append(f"compare {r['detector']}: trials {r['trials']} != gemm_count {items}")
        for key in ("recovery_rate", "undetected_critical_rate"):
            if not _in_unit(r[key]):
                problems.append(f"compare {r['detector']}: {key} {r[key]} outside [0, 1]")
        rates[r["detector"]] = float(r["recovery_rate"])
        stats[r["detector"]] = {
            "recovery_rate": float(r["recovery_rate"]),
            "undetected_critical_rate": float(r["undetected_critical_rate"]),
        }
    problems += _check_detector_rates(rates, "compare")
    return problems, {"compare": stats}


def _calibrate(out_dir, items):
    from statabft.detectors import load_params

    problems = []
    try:
        params, _ = load_params(os.path.join(out_dir, "params.json"))
    except ValueError as e:
        return [f"params.json does not load: {e}"], {}
    a, b, theta_freq = PLANTED
    if abs(params.a - a) > A_TOL or abs(params.b - b) > B_TOL or params.theta_freq != theta_freq:
        problems.append(
            f"fitted ({params.a}, {params.b}, {params.theta_freq}) misses planted {PLANTED}"
        )
    return problems, {"fitted": {"a": params.a, "b": params.b, "theta_freq": params.theta_freq}}


_INSPECTORS = {"sweep": _sweep, "compare": _compare, "calibrate": _calibrate}


def inspect(command, out_dir, items, stdout):
    missing = [f for f in OUTPUT_FILES[command] if not os.path.isfile(os.path.join(out_dir, f))]
    if missing:
        return [f"missing outputs {missing}"], {}, None
    total = hashlib.sha256(stdout.encode())
    tables = {}
    for name in sorted(os.listdir(out_dir)):
        with open(os.path.join(out_dir, name), "rb") as fh:
            data = fh.read()
        tables[name] = hashlib.sha256(data).hexdigest()
        total.update(name.encode() + b"\0" + data)
    try:
        problems, stats = _INSPECTORS[command](out_dir, items)
    except (KeyError, ValueError) as e:
        problems, stats = [f"malformed output: {e!r}"], {}
    stats["sha256"] = tables
    return problems, stats, total.hexdigest()
