"""Compare the two fault models on the same accumulator matrix.

The "ber" mode flips output bits independently inside a bit window, so the
error count fluctuates and the magnitude-sum discriminant scatters across
orders of magnitude. The "uniform" mode plants exactly freq errors of a
fixed additive magnitude, so MSD = freq * mag holds exactly (no wraparound
at these sizes) and the statistical detector's inputs are fully controlled.
This script prints a few draws of each so the contrast is visible.
"""
from __future__ import annotations

import numpy as np

from statabft.detectors import ChecksumPair
from statabft.faults import FaultConfig, inject_uniform, sample_bitflips
from statabft.gemm import AccumMatrix, checksum

DIM = 32


def show_ber(ber: float, seeds: range) -> None:
    zero = AccumMatrix(np.zeros((DIM, DIM), dtype=np.int32))
    base = checksum(zero, "row")
    print(f"\nber mode, p={ber:g}, window bits [16, 31]:")
    print(f"{'seed':>6} {'flips':>6} {'nonzero cols':>13} {'MSD':>14}")
    for seed in seeds:
        corrupted, events = sample_bitflips(zero, FaultConfig(mode="ber", ber=ber, seed=seed))
        pair = ChecksumPair.from_vectors(base, checksum(corrupted, "row"))
        print(f"{seed:>6} {len(events):>6} {np.count_nonzero(pair.diff):>13} {pair.msd():>14}")


def show_uniform(freq: int, mag: int, seeds: range) -> None:
    zero = AccumMatrix(np.zeros((DIM, DIM), dtype=np.int32))
    base = checksum(zero, "row")
    print(f"\nuniform mode, freq={freq}, mag={mag} (expect MSD = {freq * mag}):")
    print(f"{'seed':>6} {'events':>6} {'nonzero cols':>13} {'MSD':>14}")
    for seed in seeds:
        cfg = FaultConfig(mode="uniform", freq=freq, mag=mag, seed=seed)
        corrupted, events = inject_uniform(zero, cfg)
        pair = ChecksumPair.from_vectors(base, checksum(corrupted, "row"))
        print(f"{seed:>6} {len(events):>6} {np.count_nonzero(pair.diff):>13} {pair.msd():>14}")


def main() -> None:
    print(f"zero {DIM}x{DIM} int32 accumulator, checksummed along columns")
    show_ber(1e-4, range(5))
    show_ber(1e-3, range(5))
    show_uniform(4, 1 << 12, range(5))
    show_uniform(16, 1 << 8, range(5))


if __name__ == "__main__":
    main()
