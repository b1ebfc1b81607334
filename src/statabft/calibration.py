"""Quality grids and critical-region calibration.

A quality grid sweeps uniform injections over a (frequency, magnitude)
lattice, scores each cell with a workload-quality oracle, and marks cells
acceptable when mean degradation stays within an epsilon budget. A cell's
trials are injected a block at a time, as one (trials x rows x cols) stack
in one vectorized pass, so the grid's cost per injection is a few array
operations plus the oracle call, and its memory is bounded by the block
size, not by the trial count. Fitting a
line to the acceptable/unacceptable boundary recovers critical-region
parameters (a, b, theta_freq) for the statistical detector.

The boundary model is theta_mag = b - (a - 1) * log2(MSD) with
MSD = freq * mag for uniform injections, i.e. in (t, m) = (log2 freq,
log2 mag) coordinates the boundary is the line m = (b - (a - 1) t) / a.
The fit regresses m on t over boundary midpoints (between each acceptable
cell and its unacceptable 4-neighbors) and maps slope/intercept back to
(a, b). Regressing on t rather than on log2(MSD) = t + m sidesteps the
errors-in-regressor bias that grid quantization would otherwise inject,
while describing exactly the same boundary line.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .detectors import DEFAULT_PARAMS, CriticalRegionParams
from .faults import BLOCK_LANES, inject_uniform_stack
from .gemm import AccumMatrix
from .resilience import NORM_KINDS
from .rng import derive_seed
# not called: the benchmark's tracer (perfbench/tracing.py) looks inject_uniform up in this module
from .faults import inject_uniform

# fallback slope when a grid shows no magnitude structure above theta_freq:
# effectively flat, but strictly a > 1 so the params remain loadable
_FLAT_A = 1.0 + 2.0**-20

MAX_MAG_LOG2 = 30.0

# elements of a calibration target (1024 x 1024): one trial's priority draws
# then fill at most one injection block of BLOCK_LANES uint64s (8 MiB)
MAX_TARGET_ELEMENTS = 2**20

DEFAULT_FREQ_AXIS = (1, 2, 3, 4, 6, 8, 11, 16, 23, 32, 45, 64, 91, 128, 181, 256)
DEFAULT_MAG_AXIS = tuple(12.0 + 0.5 * i for i in range(16))
ORACLES = ("planted", "norm_distortion")


class NoBoundaryError(RuntimeError):
    """Grid has no fittable acceptable/unacceptable boundary; widen the axes."""


class GridCellError(RuntimeError):
    """Oracle or injection failure, annotated with the grid cell coordinates."""

    def __init__(self, freq: int, mag_log2: float, msg: str):
        super().__init__(f"cell (freq={freq}, mag_log2={mag_log2}): {msg}")
        self.freq = freq
        self.mag_log2 = mag_log2


@dataclass(frozen=True)
class OracleCase:
    """One injected trial handed to a quality oracle."""

    clean: AccumMatrix
    corrupted: AccumMatrix
    freq: int
    mag: int
    mag_log2: float
    trial_index: int


QualityOracle = Callable[[OracleCase], float]


@dataclass(frozen=True, eq=False)
class QualityGrid:
    """Mean degradation per (freq, mag) cell plus the acceptability mask.

    quality has shape (len(freq_axis), len(mag_log2_axis)).
    """

    freq_axis: np.ndarray
    mag_log2_axis: np.ndarray
    quality: np.ndarray
    acceptable: np.ndarray
    epsilon: float

    def __post_init__(self):
        fa = np.asarray(self.freq_axis, dtype=np.int64)
        ma = np.asarray(self.mag_log2_axis, dtype=np.float64)
        q = np.asarray(self.quality, dtype=np.float64)
        acc = np.asarray(self.acceptable, dtype=bool)
        if fa.ndim != 1 or fa.size < 2 or np.any(fa < 1) or np.any(np.diff(fa) <= 0):
            raise ValueError("freq_axis must be >= 2 strictly increasing positives")
        if ma.ndim != 1 or ma.size < 2 or np.any(np.diff(ma) <= 0):
            raise ValueError("mag_log2_axis must be >= 2 strictly increasing values")
        shape = (fa.size, ma.size)
        if q.shape != shape or acc.shape != shape:
            raise ValueError(f"quality/acceptable must have shape {shape}")
        if np.any(q < 0) or not np.all(np.isfinite(q)):
            raise ValueError("quality values must be finite and >= 0")
        if not np.array_equal(acc, q <= self.epsilon):
            raise ValueError("acceptable mask inconsistent with quality <= epsilon")
        for name, arr in (("freq_axis", fa), ("mag_log2_axis", ma),
                          ("quality", q), ("acceptable", acc)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)


@dataclass(frozen=True)
class CalibrationSettings:
    """What a calibration run sweeps: oracle, grid axes, trials and target size."""

    oracle: str = "planted"
    epsilon: float = 0.5
    trials: int = 8
    freq_axis: tuple[int, ...] = DEFAULT_FREQ_AXIS
    mag_log2_axis: tuple[float, ...] = DEFAULT_MAG_AXIS
    planted: CriticalRegionParams = DEFAULT_PARAMS
    norm_kind: str = "layer_norm"
    target_rows: int = 16
    target_cols: int = 16

    def __post_init__(self):
        if self.oracle not in ORACLES:
            raise ValueError(f"oracle must be one of {ORACLES}, got {self.oracle!r}")
        if not self.epsilon >= 0:
            raise ValueError(f"epsilon must be >= 0, got {self.epsilon}")
        if self.trials < 1:
            raise ValueError(f"trials must be >= 1, got {self.trials}")
        if self.norm_kind not in NORM_KINDS:
            raise ValueError(f"norm_kind must be one of {NORM_KINDS}, got {self.norm_kind!r}")
        for name in ("target_rows", "target_cols"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.target_rows * self.target_cols > MAX_TARGET_ELEMENTS:
            raise ValueError(
                f"target_rows must make target_rows * target_cols <= {MAX_TARGET_ELEMENTS} "
                f"(a 1024 x 1024 target), got {self.target_rows} * {self.target_cols}"
            )
        for name, lo, hi in (("freq_axis", 1, math.inf), ("mag_log2_axis", 0, MAX_MAG_LOG2)):
            axis = getattr(self, name)
            if len(axis) < 2 or not lo <= min(axis) <= max(axis) <= hi:
                raise ValueError(f"{name} needs >= 2 values in [{lo}, {hi}], got {list(axis)}")
            if any(b <= a for a, b in zip(axis, axis[1:])):
                raise ValueError(f"{name} must be strictly increasing")
        if max(self.freq_axis) > self.target_rows * self.target_cols:
            raise ValueError(
                f"freq_axis max {max(self.freq_axis)} exceeds injection target size "
                f"{self.target_rows}x{self.target_cols}"
            )


def _default_factory(seed: int) -> AccumMatrix:
    return AccumMatrix(np.zeros((16, 16), dtype=np.int32))


def _clean_blocks(clean_factory, seeds: list[int]):
    """(first trial, clean matrices) of each block of consecutive trials.

    A block holds max(1, BLOCK_LANES // elements) trials, sized by its first matrix.
    """
    t = 0
    while t < len(seeds):
        block = [clean_factory(seeds[t])]
        end = t + max(1, BLOCK_LANES // block[0].data.size)
        block += [clean_factory(s) for s in seeds[t + 1 : end]]
        yield t, block
        t += len(block)


def quality_grid(
    oracle: QualityOracle,
    mag_log2_axis,
    freq_axis,
    *,
    epsilon: float,
    trials: int = 32,
    seed: int = 0,
    clean_factory: Callable[[int], AccumMatrix] | None = None,
) -> QualityGrid:
    """Score every (freq, mag) cell with ``trials`` uniform injections.

    Per trial the clean matrix comes from ``clean_factory`` (all-zero 16x16
    by default), which must return one shape per grid, and exactly ``freq``
    elements get ``round(2**mag_log2)`` added; the oracle maps the injected
    case to a degradation score >= 0. Seeds are derived per (cell, trial), so
    cells are independent and the whole grid is reproducible from ``seed``.

    A cell injects its trials in blocks of max(1, BLOCK_LANES // elements):
    the block's clean matrices are stacked and corrupted in one vectorized
    pass (``inject_uniform_stack``), which equals ``inject_uniform`` trial
    by trial, and the oracle then scores each trial in order. Block sizes
    change no result. Oracle or injection failures, and a clean matrix of
    another shape, surface as GridCellError carrying the cell coordinates.
    """
    mag_axis = np.asarray(mag_log2_axis, dtype=np.float64)
    freqs = np.asarray(freq_axis, dtype=np.int64)
    if np.any(mag_axis < 0) or np.any(mag_axis > MAX_MAG_LOG2):
        raise ValueError(f"mag_log2 values must lie in [0, {MAX_MAG_LOG2}]")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if not (epsilon >= 0):
        raise ValueError("epsilon must be >= 0")
    if clean_factory is None:
        clean_factory = _default_factory

    quality = np.zeros((freqs.size, mag_axis.size))
    shape = None
    for i, f in enumerate(freqs.tolist()):
        for j, m in enumerate(mag_axis.tolist()):
            mag = int(round(2.0**m))
            cell = i * mag_axis.size + j
            # column 0 seeds trial t's clean matrix, column 1 its injection
            seeds = derive_seed(seed, cell, np.arange(trials)[:, np.newaxis], np.arange(2))
            total = 0.0
            for t0, cleans in _clean_blocks(clean_factory, seeds[:, 0].tolist()):
                shape = shape or cleans[0].data.shape
                odd = {c.data.shape for c in cleans} - {shape}
                if odd:
                    raise GridCellError(
                        f, m, f"clean_factory returned shape {odd.pop()} after {shape}; "
                        "it must return one shape per grid"
                    )
                try:
                    corrupted = inject_uniform_stack(
                        np.stack([c.data for c in cleans]), seeds[t0 : t0 + len(cleans), 1], f, mag
                    )
                except ValueError as e:
                    raise GridCellError(f, m, str(e)) from e
                for t, (clean, bad) in enumerate(zip(cleans, corrupted), start=t0):
                    case = OracleCase(
                        clean=clean, corrupted=AccumMatrix(bad),
                        freq=f, mag=mag, mag_log2=m, trial_index=t,
                    )
                    try:
                        score = float(oracle(case))
                    except Exception as e:
                        raise GridCellError(f, m, str(e)) from e
                    if not (score >= 0.0 and math.isfinite(score)):
                        raise GridCellError(f, m, f"oracle returned {score!r}")
                    total += score
            quality[i, j] = total / trials

    return QualityGrid(
        freq_axis=freqs,
        mag_log2_axis=mag_axis,
        quality=quality,
        acceptable=quality <= epsilon,
        epsilon=epsilon,
    )


def planted_step_oracle(params: CriticalRegionParams) -> QualityOracle:
    """Degradation 1.0 exactly inside the critical region of ``params``.

    The region test uses the axis coordinates (freq, log2 mag) directly with
    MSD = freq * mag, so the planted boundary is sharp: freq > theta_freq
    and log2(mag) > b - (a - 1) * (log2(freq) + log2(mag)).
    """

    def oracle(case: OracleCase) -> float:
        if case.freq <= params.theta_freq or case.freq < 1:
            return 0.0
        bound = params.b - (params.a - 1.0) * (math.log2(case.freq) + case.mag_log2)
        return 1.0 if case.mag_log2 > bound else 0.0

    return oracle


def norm_distortion_oracle(norm_kind: str = "layer_norm") -> QualityOracle:
    """Degradation = fraction of normalized outputs moved > 1% by the fault.

    The injected matrix is treated as one hidden-state vector (flattened,
    dequantized by a float cast) feeding a normalization layer.
    """
    from .resilience import apply_norm, measure_change

    def oracle(case: OracleCase) -> float:
        before = case.clean.data.astype(np.float64).ravel()
        after = case.corrupted.data.astype(np.float64).ravel()
        res = measure_change(apply_norm(before, norm_kind), apply_norm(after, norm_kind))
        return res.changed_fraction

    return oracle


def fit_critical_region(grid: QualityGrid) -> CriticalRegionParams:
    """Recover (a, b, theta_freq) from a quality grid.

    theta_freq is the largest frequency whose row and every lower row are
    fully acceptable (0 if none). The magnitude boundary is then fitted over
    rows with freq > theta_freq: every (acceptable cell, unacceptable
    4-neighbor) pair contributes its midpoint, and least squares on those
    midpoints in (log2 freq, log2 mag) gives the line mapped back to (a, b).

    Grids that are entirely acceptable, entirely unacceptable, or whose
    boundary has no frequency extent raise NoBoundaryError. Grids whose rows
    above theta_freq are uniformly unacceptable (a pure frequency boundary)
    return a flat magnitude bound at the lowest calibrated magnitude.
    """
    acc = grid.acceptable
    if acc.all():
        raise NoBoundaryError("grid entirely acceptable; extend axes upward")
    if not acc.any():
        raise NoBoundaryError("grid entirely unacceptable; extend axes downward")

    freqs = grid.freq_axis
    t_axis = np.log2(freqs.astype(np.float64))
    m_axis = grid.mag_log2_axis
    n_rows, n_cols = acc.shape

    theta_freq = 0
    for i in range(n_rows):
        if acc[i].all():
            theta_freq = int(freqs[i])
        else:
            break

    ts: list[float] = []
    ms: list[float] = []
    for i in range(n_rows):
        if freqs[i] <= theta_freq:
            continue
        for j in range(n_cols):
            if not acc[i, j]:
                continue
            if j + 1 < n_cols and not acc[i, j + 1]:
                ts.append(t_axis[i])
                ms.append(0.5 * (m_axis[j] + m_axis[j + 1]))
            if j > 0 and not acc[i, j - 1]:
                ts.append(t_axis[i])
                ms.append(0.5 * (m_axis[j] + m_axis[j - 1]))
            if i + 1 < n_rows and not acc[i + 1, j]:
                ts.append(0.5 * (t_axis[i] + t_axis[i + 1]))
                ms.append(m_axis[j])
            if i > 0 and freqs[i - 1] > theta_freq and not acc[i - 1, j]:
                ts.append(0.5 * (t_axis[i] + t_axis[i - 1]))
                ms.append(m_axis[j])

    if not ts:
        above = [i for i in range(n_rows) if freqs[i] > theta_freq]
        if above and not any(acc[i].any() for i in above):
            return CriticalRegionParams(
                a=_FLAT_A, b=float(m_axis[0]), theta_freq=theta_freq
            )
        raise NoBoundaryError("no acceptable/unacceptable boundary above theta_freq")
    if len(set(ts)) < 2:
        raise NoBoundaryError("boundary has no frequency extent; widen the freq axis")

    slope, intercept = np.polyfit(np.array(ts), np.array(ms), 1)
    # m = (b - (a-1) t) / a  =>  slope = -(a-1)/a, intercept = b/a
    slope = float(min(max(slope, -1.0 + 1e-9), 0.0))
    a = 1.0 / (1.0 + slope)
    b = float(intercept) * a
    return CriticalRegionParams(a=float(a), b=b, theta_freq=theta_freq)


# --- grid CSV, as calibrate writes it --------------------------------------
#
# Columns: freq,mag_log2,quality,acceptable. One row per cell, freq-major.


def grid_to_csv(grid: QualityGrid) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["freq", "mag_log2", "quality", "acceptable"])
    for i, f in enumerate(grid.freq_axis):
        for j, m in enumerate(grid.mag_log2_axis):
            writer.writerow(
                [int(f), f"{float(m):.10g}", f"{grid.quality[i, j]:.10g}",
                 int(grid.acceptable[i, j])]
            )
    return buf.getvalue()
