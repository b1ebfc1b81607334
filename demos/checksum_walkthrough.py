"""Walk one GEMM through checksum detection, step by step.

Runs a small int8 matrix product, flips a few bits in the accumulator
outputs, and prints everything the detector sees: the predicted column
checksum, the observed one, the per-column differences, the magnitude-sum
discriminant, and the resulting decision for each detector in the family.
Run it twice with different seeds to watch the decisions change with the
fault pattern.

    python3 demos/checksum_walkthrough.py
    python3 demos/checksum_walkthrough.py --ber 0.01 --seed 3
"""
from __future__ import annotations

import argparse

import numpy as np

from statabft.detectors import DEFAULT_PARAMS, ChecksumPair, DetectorSpec, theta_mag
from statabft.faults import FaultConfig, corruption
from statabft.gemm import AccumMatrix, checksum, gemm, predicted_output_checksum
from statabft.workloads import random_quant_matrix


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--ber", type=float, default=0.002, help="per-bit flip probability")
    ap.add_argument("--seed", type=int, default=1, help="fault stream seed")
    args = ap.parse_args()

    w = random_quant_matrix(8, 12, "uniform", 100)
    x = random_quant_matrix(12, 6, "uniform", 200)
    fault = FaultConfig(mode="ber", ber=args.ber, seed=args.seed)
    clean = gemm(w, x)
    # one trial, on the fault's own seed, reading clean values from the dense product
    record = corruption(w.rows, x.cols, lambda _, rows, cols: clean.data[rows, cols], [fault.seed], fault)
    events = record.events()
    corrupted = AccumMatrix(record.apply(clean.data[np.newaxis].copy())[0])

    print(f"GEMM 8x12 @ 12x6, ber={args.ber:g}, seed={args.seed}")
    print(f"flips applied: {len(events)}")
    for ev in events:
        print(f"  ({ev.row},{ev.col}) {ev.before} -> {ev.after}")

    # the predicted checksum comes from the inputs, the observed one from the corrupted output
    pair = ChecksumPair.from_vectors(predicted_output_checksum(w, x), checksum(corrupted))
    diff = np.asarray(pair.diff.data)
    print("\npredicted column sums:", np.asarray(pair.predicted.data))
    print("observed column sums: ", np.asarray(pair.observed.data))
    print("difference d:         ", diff)
    print(f"MSD = |sum d| = {pair.msd()}")

    # both statistical detectors below decide on the stock region, DEFAULT_PARAMS
    t_mag = theta_mag(pair.msd(), DEFAULT_PARAMS)
    print(f"theta_mag(MSD) = {t_mag:.3f}  (columns above this log2 magnitude count)")

    for name, spec in (
        ("classical", DetectorSpec(kind="classical")),
        ("msd-threshold", DetectorSpec(kind="msd", msd_threshold=2**20)),
        ("statistical", DetectorSpec(kind="statistical")),
        ("statistical_lzc", DetectorSpec(kind="statistical_lzc")),
    ):
        decision = spec.evaluate(pair)
        print(
            f"{name:<15} freq_eff={decision.freq_eff}  "
            f"decision={'recover' if decision.recovers else 'pass'}"
        )


if __name__ == "__main__":
    main()
