"""Quality grids and critical-region calibration.

A quality grid sweeps uniform injections over a (frequency, magnitude)
lattice, scores each cell with a workload-quality oracle, and marks cells
acceptable when mean degradation stays within an epsilon budget. Trial t is
the same in every cell: one clean matrix and one set of injection
priorities, so neighbouring cells are compared on common random numbers.
Trials go a block at a time. A block makes one clean-factory call, which
builds its (trials x rows x cols) stack, and one read-only view of it and
of its trial indices, which every cell shares; one draw of its injection
priorities, from which ``faults.uniform_position_sets`` yields one
read-only (trials x freq) position matrix per frequency, which all of that
frequency's magnitudes share; per cell, one oracle call, which scores the
``OracleBlock`` into one array of per-trial scores; and one check of all
its cells' scores. A cell's ``faults.Corruption`` record and its corrupted
stack are built only when its oracle reads ``OracleBlock.record`` or
``OracleBlock.corrupted``, the stack in one vectorized pass into a copy of
the clean stack, so an oracle that reads only the cell's coordinates costs
no record, no clean-value read and no injection write at all. No Python
object is built per trial, so the grid's cost per injection is a few array
operations. A block
holds at most ``BLOCK_LANES`` clean elements and at most ``BLOCK_LANES``
scores, and each cell's score sum carries across blocks, so memory is
bounded by the block size, not by the trial count. A line fitted to the
acceptable/unacceptable boundary recovers critical-region parameters
(a, b, theta_freq) for the statistical detector.

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

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

import numpy as np

from .detectors import DEFAULT_PARAMS, CriticalRegionParams
from .faults import BLOCK_LANES, INT32_MAX, INT32_MIN, Corruption, uniform_position_sets, uniform_record
from .faults import check_uniform_elements, check_uniform_freq
from .resilience import NORM_KINDS
from .rng import check_seed, derive_seed
from .workloads import WorkloadSpec
# not called: the benchmark's tracer (perfbench/tracing.py) looks inject_uniform up in this module
from .faults import inject_uniform

# fallback slope when a grid shows no magnitude structure above theta_freq:
# effectively flat, but strictly a > 1 so the params remain loadable
_FLAT_A = 1.0 + 2.0**-20

MAX_MAG_LOG2 = 30.0

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


@dataclass(frozen=True, eq=False)
class OracleBlock:
    """A block of one grid cell's injected trials, handed to a quality oracle in one call.

    ``clean`` and ``corrupted`` are read-only int32 (len(trials) x rows x
    cols) stacks, row i holding trial ``trials[i]`` (its index, shared by
    every cell) before and after injection. ``positions`` is the read-only
    int64 (len(trials) x freq) matrix of the row-major elements each trial
    hits at the cell's frequency, which all its mags share. ``record`` and
    ``corrupted`` are derived from it on first read and cached: ``record``
    is the cell's ``faults.Corruption``, those elements' clean values and
    ``mag`` added to them (wrapping in INT32), and ``corrupted`` writes it
    into a copy of ``clean`` in one vectorized pass, which equals
    ``inject_uniform`` trial by trial. An oracle that reads neither costs no
    record and no write. A ``clean``, ``positions`` or ``trials`` that is a
    read-only ndarray is kept as it is (the grid passes each block's once to
    every cell, and each freq's once to its mags), and any other is held
    through a read-only view, so its owner may still write it.
    """

    clean: np.ndarray
    positions: np.ndarray
    freq: int
    mag: int
    mag_log2: float
    trials: np.ndarray

    def __post_init__(self):
        for name in ("clean", "positions", "trials"):
            object.__setattr__(self, name, _read_only(getattr(self, name)))

    @cached_property
    def record(self) -> Corruption:
        return uniform_record(
            self.positions, self.clean.shape[2], lambda t, r, c: self.clean[t, r, c], self.mag
        )

    @cached_property
    def corrupted(self) -> np.ndarray:
        stack = self.record.apply(self.clean.copy())
        stack.setflags(write=False)
        return stack


def _read_only(arr) -> np.ndarray:
    """``arr`` if it is a read-only ndarray, else a read-only view of it."""
    if isinstance(arr, np.ndarray) and not arr.flags.writeable:
        return arr
    view = np.asarray(arr).view()
    view.setflags(write=False)
    return view


# maps a block to a float array of one degradation score >= 0 per trial
QualityOracle = Callable[[OracleBlock], np.ndarray]
# maps the uint64 seeds of a block of trials to their (seeds x rows x cols) clean stack
CleanFactory = Callable[[np.ndarray], np.ndarray]


def _grid_axes(freq_axis, mag_log2_axis) -> tuple[np.ndarray, np.ndarray]:
    """The grid's axes as int64 and float64 arrays, each >= 2 strictly increasing values."""
    fa = np.asarray(freq_axis, dtype=np.int64)
    ma = np.asarray(mag_log2_axis, dtype=np.float64)
    if fa.ndim != 1 or fa.size < 2 or np.any(fa < 1) or np.any(np.diff(fa) <= 0):
        raise ValueError("freq_axis must be >= 2 strictly increasing positives")
    if ma.ndim != 1 or ma.size < 2 or np.any(np.diff(ma) <= 0):
        raise ValueError("mag_log2_axis must be >= 2 strictly increasing values")
    return fa, ma


def _check_grid(mag_log2_axis, freq_axis, trials: int, epsilon: float):
    """``_grid_axes``, after the mag_log2 range, trials >= 1 and epsilon >= 0, in that order."""
    mags = np.asarray(mag_log2_axis, dtype=np.float64)
    if not np.all((mags >= 0) & (mags <= MAX_MAG_LOG2)):
        raise ValueError(f"mag_log2_axis values must lie in [0, {MAX_MAG_LOG2}]")
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if not epsilon >= 0:
        raise ValueError(f"epsilon must be >= 0, got {epsilon}")
    return _grid_axes(freq_axis, mags)


@dataclass(frozen=True, eq=False)
class QualityGrid:
    """Mean degradation per (freq, mag) cell plus the acceptability mask.

    quality has shape (len(freq_axis), len(mag_log2_axis)); acceptable is
    derived from it as quality <= epsilon.
    """

    freq_axis: np.ndarray
    mag_log2_axis: np.ndarray
    quality: np.ndarray
    epsilon: float
    acceptable: np.ndarray = field(init=False)

    def __post_init__(self):
        fa, ma = _grid_axes(self.freq_axis, self.mag_log2_axis)
        q = np.asarray(self.quality, dtype=np.float64)
        shape = (fa.size, ma.size)
        if q.shape != shape:
            raise ValueError(f"quality must have shape {shape}")
        if np.any(q < 0) or not np.all(np.isfinite(q)):
            raise ValueError("quality values must be finite and >= 0")
        acc = q <= self.epsilon
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
        if self.norm_kind not in NORM_KINDS:
            raise ValueError(f"norm_kind must be one of {NORM_KINDS}, got {self.norm_kind!r}")
        for name in ("target_rows", "target_cols"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        elements, size = self.target_rows * self.target_cols, "target_rows * target_cols"
        check_uniform_elements(elements, "target_rows", size)
        # before the grid rules, so that a freq too large for int64 is refused here
        check_uniform_freq(max(self.freq_axis, default=0), elements, "freq_axis", size)
        _check_grid(self.mag_log2_axis, self.freq_axis, self.trials, self.epsilon)


def zero_factory(rows: int, cols: int) -> CleanFactory:
    """The clean factory of all-zero int32 (seeds x rows x cols) stacks."""

    def factory(seeds: np.ndarray) -> np.ndarray:
        return np.zeros((len(seeds), rows, cols), dtype=np.int32)

    return factory


def _clean_stack(clean_factory: CleanFactory, seeds, shape, f: int, m: float) -> np.ndarray:
    """The factory's int32 (len(seeds) x rows x cols) stack for ``seeds``, checked.

    ``shape`` is the grid's (rows, cols), or None for the probe that finds it.
    """
    stack = np.asarray(clean_factory(seeds))
    problem = None
    if stack.ndim != 3 or len(stack) != len(seeds) or stack.size == 0:
        problem = (
            f"shape {stack.shape} for {len(seeds)} seeds; "
            "it must be a non-empty (seeds x rows x cols) stack"
        )
    elif shape is not None and stack.shape[1:] != shape:
        problem = f"shape {stack.shape[1:]} after {shape}; it must return one shape per grid"
    elif stack.dtype != np.int32:
        if not np.issubdtype(stack.dtype, np.integer):
            problem = f"{stack.dtype} values; they must be integers"
        elif stack.min() < INT32_MIN or stack.max() > INT32_MAX:
            problem = f"values spanning [{stack.min()}, {stack.max()}], outside INT32"
    if problem:
        raise GridCellError(f, m, f"clean_factory returned {problem}")
    return np.ascontiguousarray(stack, dtype=np.int32)


def _check_scores(scores: np.ndarray, freqs, mags, cells: int) -> None:
    """Refuse the first of the first ``cells`` cells, freq-major, with a score not finite and >= 0.

    ``scores[i, j, 1:]`` holds cell (i, j)'s score of each trial of a block, and
    the GridCellError names that cell and its first such score in trial order.
    """
    block = scores[:, :, 1:]
    bad = ~(np.isfinite(block) & (block >= 0.0)).reshape(-1, block.shape[2])[:cells]
    if bad.any():
        cell, trial = np.unravel_index(np.argmax(bad), bad.shape)
        i, j = divmod(int(cell), len(mags))
        raise GridCellError(int(freqs[i]), mags[j][0], f"oracle returned {float(block[i, j, trial])!r}")


def quality_grid(
    oracle: QualityOracle,
    mag_log2_axis,
    freq_axis,
    *,
    epsilon: float,
    trials: int = CalibrationSettings.trials,
    seed: int = WorkloadSpec.seed,
    clean_factory: CleanFactory = zero_factory(CalibrationSettings.target_rows,
                                               CalibrationSettings.target_cols),
) -> QualityGrid:
    """Score every (freq, mag) cell with ``trials`` uniform injections.

    Trial t has seeds ``derive_seed(seed, t, 0)`` for its clean matrix and
    ``derive_seed(seed, t, 1)`` for its injection in every cell, so cells
    share their trials (common random numbers) and the whole grid is
    reproducible from ``seed``, which must lie in [0, 2**64). In each trial
    exactly ``freq`` elements get ``round(2**mag_log2)`` added: the ``freq``
    smallest of the trial's priorities, so a trial's positions at one freq
    hold those at every lower freq, and all mags of a freq share them.

    Trials go in blocks of max(1, BLOCK_LANES // max(elements, cells)),
    sized by one probe call of ``clean_factory`` per grid. Per block,
    ``clean_factory(seeds)`` maps the block's uint64 clean seeds to an
    integer (len(seeds) x rows x cols) stack (by default all zeros, of
    ``CalibrationSettings``' stock 16 x 16 target), with values inside INT32
    and one (rows, cols) for the whole grid; one ``uniform_position_sets``
    call draws the priorities once for every freq and yields each freq's
    read-only position matrix, which the ``OracleBlock`` of each of its mags
    holds; per cell, one oracle call maps the ``OracleBlock`` to a float
    array of one degradation score >= 0 per trial; and one check of the
    block's scores finds any that is negative or not finite. A cell's
    ``record`` (its positions' clean values and its mag) and ``corrupted``
    stack are built only if the oracle reads them. A cell's quality is the
    mean of its scores, summed in trial order with the sum carried across
    blocks, so block sizes change no result and memory does not grow with
    ``trials``.
    A malformed stack, a freq the target cannot hold, an oracle failure, and
    a score array of another shape or with a negative or non-finite score
    raise GridCellError carrying the cell coordinates: the first cell for the
    factory, a freq's first mag for its size, checked once on the probed
    shape before any draw. Within a block the first failing cell in
    freq-major order is named, with its first bad score in trial order, so
    a bad score wins over a later cell's oracle failure.
    """
    # every grid rule, before any factory or oracle call
    freqs, mag_axis = _check_grid(mag_log2_axis, freq_axis, trials, epsilon)
    check_seed(seed)

    mags = [(m, int(round(2.0**m))) for m in mag_axis.tolist()]
    f0, m0 = int(freqs[0]), mags[0][0]
    probe_seed = np.array([derive_seed(seed, 0, 0)], dtype=np.uint64)
    rows, cols = _clean_stack(clean_factory, probe_seed, None, f0, m0).shape[1:]
    freq_list = freqs.tolist()
    # the uniform-injection size rules, on the probed target before any draw;
    # the first freq they refuse names its cell
    for f in freq_list:
        try:
            check_uniform_elements(rows * cols)
            check_uniform_freq(f, rows * cols)
        except ValueError as e:
            raise GridCellError(f, m0, str(e)) from e
    # a block holds at most BLOCK_LANES clean elements and at most BLOCK_LANES scores
    step = max(1, BLOCK_LANES // max(rows * cols, freqs.size * mag_axis.size))
    # sums[i, j]: cell (i, j)'s scores summed one after another in trial order
    # from 0.0, as a Python sum does and np.sum does not
    sums = np.zeros((freqs.size, mag_axis.size))
    for t0 in range(0, trials, step):
        # read-only once per block, so that no cell's OracleBlock makes a view
        block_trials = _read_only(np.arange(t0, min(t0 + step, trials)))
        # seeds[i]: column 0 seeds trial block_trials[i]'s clean matrix, column 1 its injection
        seeds = derive_seed(seed, block_trials[:, np.newaxis], np.arange(2))
        clean = _read_only(_clean_stack(clean_factory, seeds[:, 0], (rows, cols), f0, m0))
        # scores[i, j]: cell (i, j)'s carried sum, then its score of each trial of the block
        scores = np.empty((freqs.size, mag_axis.size, 1 + len(block_trials)))
        scores[:, :, 0] = sums
        position_sets = uniform_position_sets(seeds[:, 1], rows * cols, freq_list)
        for i, (f, positions) in enumerate(zip(freq_list, position_sets)):
            # read-only once per freq, so that no cell's OracleBlock makes a view
            positions.setflags(write=False)
            for j, (m, mag) in enumerate(mags):
                block = OracleBlock(
                    clean=clean, positions=positions, freq=f, mag=mag, mag_log2=m,
                    trials=block_trials,
                )
                try:
                    cell = np.asarray(oracle(block), dtype=np.float64)
                    if cell.shape != block_trials.shape:
                        raise ValueError(
                            f"oracle returned shape {cell.shape} for {len(block_trials)} trials"
                        )
                except Exception as e:
                    # a bad score of an earlier cell is the grid's first failure
                    _check_scores(scores, freq_list, mags, i * len(mags) + j)
                    raise GridCellError(f, m, str(e)) from e
                scores[i, j, 1:] = cell
        _check_scores(scores, freq_list, mags, freqs.size * mag_axis.size)
        # np.add.accumulate, unlike np.sum, adds one trial after another
        sums = np.add.accumulate(scores, axis=2)[:, :, -1]

    quality = sums / trials
    return QualityGrid(
        freq_axis=freqs,
        mag_log2_axis=mag_axis,
        quality=quality,
        epsilon=epsilon,
    )


def planted_step_oracle(params: CriticalRegionParams) -> QualityOracle:
    """Degradation 1.0 exactly inside the critical region of ``params``.

    The region test uses the axis coordinates (freq, log2 mag) directly with
    MSD = freq * mag, so the planted boundary is sharp: freq > theta_freq
    and log2(mag) > b - (a - 1) * (log2(freq) + log2(mag)). Every trial of a
    block shares its cell's score.
    """

    def score(freq: int, mag_log2: float) -> float:
        if freq <= params.theta_freq or freq < 1:
            return 0.0
        bound = params.b - (params.a - 1.0) * (math.log2(freq) + mag_log2)
        return 1.0 if mag_log2 > bound else 0.0

    def oracle(block: OracleBlock) -> np.ndarray:
        return np.full(len(block.trials), score(block.freq, block.mag_log2))

    return oracle


def norm_distortion_oracle(norm_kind: str = CalibrationSettings.norm_kind) -> QualityOracle:
    """Degradation = fraction of normalized outputs moved > 1% by the fault.

    Each trial's injected matrix is treated as one hidden-state vector
    (flattened, dequantized by a float cast) feeding a normalization layer;
    a block's vectors are normalized row by row in one call.
    """
    from .resilience import apply_norm, changed_fraction

    def oracle(block: OracleBlock) -> np.ndarray:
        n = len(block.trials)
        before = block.clean.reshape(n, -1).astype(np.float64)
        after = block.corrupted.reshape(n, -1).astype(np.float64)
        return changed_fraction(apply_norm(before, norm_kind), apply_norm(after, norm_kind))

    return oracle


# right, left, down, up: the neighbours of a cell in the order its midpoints go
_NEIGHBOURS = np.array([(0, 1), (0, -1), (1, 0), (-1, 0)])


def _boundary_midpoints(acc, above, t_axis, m_axis) -> tuple[np.ndarray, np.ndarray]:
    """The (t, m) midpoint of each (acceptable, unacceptable 4-neighbour) pair in rows ``above``.

    ``acc`` is the (rows x cols) acceptability mask, ``above`` the rows that
    take part, and ``t_axis`` and ``m_axis`` the cells' coordinates. The
    midpoints go cell by cell in row-major order, and a cell's by neighbour
    right, left, down, up.
    """
    rows, cols = acc.shape
    # unacceptable cells of the rows taking part, inside a border that is neither
    bad = np.zeros((rows + 2, cols + 2), dtype=bool)
    bad[1:-1, 1:-1] = ~acc & above[:, np.newaxis]
    i, j = np.nonzero(acc & above[:, np.newaxis])
    # k[c, d], l[c, d]: the d-th neighbour of the c-th cell
    k = i[:, np.newaxis] + _NEIGHBOURS[:, 0]
    l = j[:, np.newaxis] + _NEIGHBOURS[:, 1]
    cell, d = np.nonzero(bad[k + 1, l + 1])
    i, j, k, l = i[cell], j[cell], k[cell, d], l[cell, d]
    # the midpoint of a cell with its row or column neighbour keeps the shared
    # coordinate exactly, as 0.5 * (x + x) == x
    return 0.5 * (t_axis[i] + t_axis[k]), 0.5 * (m_axis[j] + m_axis[l])


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

    theta_freq = 0
    for i in range(len(freqs)):
        if acc[i].all():
            theta_freq = int(freqs[i])
        else:
            break

    ts, ms = _boundary_midpoints(acc, freqs > theta_freq, t_axis, m_axis)
    if not ts.size:
        # The lowest row above theta_freq that holds an acceptable cell either
        # holds an unacceptable one too (a horizontal pair) or is fully
        # acceptable; then it is not the first row above theta_freq, which is
        # not fully acceptable, so the row below it is above theta_freq and
        # fully unacceptable (a vertical pair). No pair therefore means no
        # acceptable cell above theta_freq: a pure frequency boundary.
        return CriticalRegionParams(a=_FLAT_A, b=float(m_axis[0]), theta_freq=theta_freq)
    # a set, not np.unique, whose first call imports numpy.ma
    if len(set(ts.tolist())) < 2:
        raise NoBoundaryError("boundary has no frequency extent; widen the freq axis")

    slope, intercept = np.polyfit(ts, ms, 1)
    # m = (b - (a-1) t) / a  =>  slope = -(a-1)/a, intercept = b/a
    slope = float(min(max(slope, -1.0 + 1e-9), 0.0))
    a = 1.0 / (1.0 + slope)
    b = float(intercept) * a
    return CriticalRegionParams(a=float(a), b=b, theta_freq=theta_freq)

