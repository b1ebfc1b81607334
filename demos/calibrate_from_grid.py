"""Recover critical-region parameters from a planted quality oracle.

The calibration path never sees the parameters it is trying to find. It
probes a grid of (frequency, magnitude) injection points, asks a quality
oracle whether each cell's output is acceptable, and fits the acceptable
region's boundary. Here the oracle is synthetic with known parameters, so
the fit error is measurable directly.
"""
from __future__ import annotations

from statabft.calibration import (
    DEFAULT_FREQ_AXIS,
    DEFAULT_MAG_AXIS,
    fit_critical_region,
    planted_step_oracle,
    quality_grid,
)
from statabft.detectors import DEFAULT_PARAMS

# plant the stock critical region (a=2, b=40, theta_freq=4)
TRUE = DEFAULT_PARAMS


def main() -> None:
    oracle = planted_step_oracle(TRUE)
    grid = quality_grid(
        oracle,
        DEFAULT_MAG_AXIS,
        DEFAULT_FREQ_AXIS,
        epsilon=0.5,
        trials=1,
        seed=0,
    )

    # Render the acceptability map: rows are magnitudes (descending),
    # columns are frequencies.
    print("acceptability grid ('.' acceptable, '#' not):")
    print("        " + " ".join(f"{int(f):>4d}" for f in grid.freq_axis))
    for mi in range(grid.mag_log2_axis.size - 1, -1, -1):
        marks = " ".join(
            "   ." if grid.acceptable[fi, mi] else "   #"
            for fi in range(grid.freq_axis.size)
        )
        print(f"m={grid.mag_log2_axis[mi]:5.1f} {marks}")

    fit = fit_critical_region(grid)
    print("\nfit vs planted truth:")
    print(f"  a          {fit.a:8.4f}   (true {TRUE.a})")
    print(f"  b          {fit.b:8.4f}   (true {TRUE.b})")
    print(f"  theta_freq {fit.theta_freq:8d}   (true {TRUE.theta_freq})")
    print(
        f"\nfitted rule: recover when more than {fit.theta_freq} columns have "
        f"log2|d_j| above theta_mag = {fit.b:.2f} - {fit.a - 1:.2f} * log2(MSD)"
    )


if __name__ == "__main__":
    main()
