"""Where does each detector let you push the supply voltage?

Sweeps a GEMM workload across the synthetic voltage/BER curve and accounts
energy per detector: compute energy falls quadratically with voltage, but
every recovery re-runs the workload at nominal voltage. A detector that
recovers on every blip pays for it; one that only recovers when quality is
actually at risk keeps descending. The optimum row marks each detector's
energy-minimal operating point.

    python3 demos/voltage_sweep.py
    python3 demos/voltage_sweep.py --gemms 100
"""
from __future__ import annotations

import argparse

from statabft.detectors import DetectorSpec
from statabft.energy import EnergyConfig, energy_saving, sweep_detectors
from statabft.faults import FaultConfig, default_table
from statabft.workloads import WorkloadSpec

DETECTORS = (
    DetectorSpec(kind="none"),
    DetectorSpec(kind="classical"),
    DetectorSpec(),  # statistical on the stock critical region
    DetectorSpec(kind="dmr"),
)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--gemms", type=int, default=60, help="workload GEMMs, each one trial per voltage")
    ap.add_argument("--dim", type=int, default=32, help="square GEMM dimension")
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    spec = WorkloadSpec(
        m=args.dim, k=args.dim, n=args.dim, gemm_count=args.gemms, seed=args.seed
    )
    table = default_table()
    voltages = [float(v) for v in table.voltages]
    results = sweep_detectors(
        spec,
        DETECTORS,
        FaultConfig(seed=args.seed),  # BER mode; each voltage takes its BER from the table
        voltages,
        EnergyConfig(table=table),
    )

    nominal = results["none"].points[0].energy_total
    print(f"workload: {args.gemms} x GEMM {args.dim}^3, one trial each per point")
    print(f"energy normalized to unprotected nominal = {nominal:.0f} MAC units\n")

    print(f"{'V':>5}", end="")
    for kind in ("none", "classical", "statistical", "dmr"):
        print(f" {kind:>12}", end="")
    print("   classical recov  statistical recov")
    for i, v in enumerate(voltages):
        print(f"{v:>5.2f}", end="")
        for kind in ("none", "classical", "statistical", "dmr"):
            p = results[kind].points[i]
            print(f" {p.energy_total / nominal:>12.3f}", end="")
        pc = results["classical"].points[i]
        ps = results["statistical"].points[i]
        print(f"   {pc.recovery_rate:>15.2f}  {ps.recovery_rate:>17.2f}")

    print("\noptima:")
    for kind in ("none", "classical", "statistical", "dmr"):
        opt = results[kind].optimum
        print(
            f"  {kind:<12} v={opt.voltage:.2f}  "
            f"energy={opt.energy_total / nominal:.3f}x nominal  "
            f"recovery_rate={opt.recovery_rate:.2f}"
        )
    saving = energy_saving(results["statistical"], results["classical"])
    print(f"\nstatistical vs classical at their optima: {saving * 100:.1f}% saved")


if __name__ == "__main__":
    main()
