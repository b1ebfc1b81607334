"""Fault injection into INT32 GEMM outputs, plus the voltage -> BER table.

Two fault modes:

* "ber": every bit inside ``bit_window`` of every output element flips
  independently with probability ``ber``. The candidate bits are indexed
  elements in row-major order, bits from the low end of the window up, and
  ``geometric_flips`` visits only the bits that flip: the gap before the next
  flip is geometric, ``floor(log(U) / log(1 - ber))`` for a uniform U in
  (0, 1] (Devroye, *Non-Uniform Random Variate Generation*, 1986, ch. X).
  Flip j takes SplitMix64 draws 2j (its gap) and 2j + 1 (a thinning uniform
  ``u`` in [0, ber)), so a (seed, matrix shape, window, ber) tuple fixes the
  corruption pattern exactly, however the draws are batched: a stream of
  trials, one seed each, is sampled in one pass whose chunks span the trials
  still drawing, in blocks of about ``rng.DRAW_BLOCK`` values, and each
  trial's flips are the ones it would draw alone. Keeping only the
  flips with ``u < ber'`` gives an exact sample at any lower ``ber'`` from the
  same draws, and the lower-BER flips are a subset of the higher-BER ones.
  A gap goes through float64 ``log``, so patterns are bit-identical across
  platforms only as far as their ``log`` results agree.

* "uniform": exactly ``freq`` output elements at distinct positions each get
  ``mag`` added (wrapping in INT32). When no element wraps, the checksum sum
  deviation is exactly freq * mag, which is what makes this mode useful for
  planting errors of known severity. Each element draws one SplitMix64
  priority and the ``freq`` smallest are hit: ``uniform_positions`` takes the
  row's ``freq``-th smallest priority (``np.partition``) and keeps every
  element at or below it, which is exactly ``freq`` of them because no two
  priorities of an output tie. Trials draw in row blocks of about
  ``rng.DRAW_BLOCK`` priorities, and one draw serves any number of freqs
  (``uniform_position_sets``): a row's positions at a freq hold those at
  every lower one, and one ``np.sort`` of its priorities gives every freq's
  threshold.

Both modes record what they corrupt in one array record, ``Corruption``,
the only source of checksum differences (``diff``), event logs (``events``)
and corrupted dense stacks (``apply``). ``SparseFlips.at`` builds it in BER
mode (``SparseFlips.rows`` for the touched rows of several BERs at once)
and ``uniform_corruption`` in uniform mode (``uniform_record`` of the
positions from ``uniform_positions``, the one-freq case of
``uniform_position_sets``, which serves several freqs from one draw),
``corruption`` in either mode, all for a stream of trials with one seed
each. Each reads clean values only at the corrupted elements, through one
callback call for all the trials it is given,
``entries(trials, rows, cols)``, so its caller bounds that call by the
trials it passes: comparisons and sweeps pass a block of trials at a time
and ``inject`` one, all with ``workloads.workload_entries``, which draws only
the operand rows and columns those elements read; the dense injectors (``sample_bitflips``,
``inject_uniform``) pass a one-trial stream on ``FaultConfig.seed``, read the
matrix and ``apply`` the record to a copy of it, and a calibration cell
builds its record with ``uniform_record`` from its freq's positions and
reads and corrupts a stack of trials. A ``FaultConfig`` roots every trial
seed and is the only source of a bit window.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, replace
from typing import Iterator

import numpy as np

from .gemm import AccumMatrix
from .rng import DRAW_BLOCK, check_seed, u64_stream, unit_floats

BER_MODE = "ber"
UNIFORM_MODE = "uniform"

INT32_MIN = -(2**31)
INT32_MAX = 2**31 - 1

# BER values of exactly zero are floored to this in log space before
# interpolation; exact table rows are returned verbatim.
LOG_BER_FLOOR = 1e-15

# ber_at matches a table row within this many volts: a quarter of the 1e-10
# rounding of sweep voltages, so two distinct sweep voltages never match one row
ROW_TOLERANCE = 2.5e-11

# 64-bit values per trial row that one vectorized block holds (8 MiB per
# temporary): the calibration grid injects its trials in blocks of
# max(1, BLOCK_LANES // lanes) rows, and scoring sizes its blocks by it (see
# energy._evidence), so memory stays bounded however many trials there
# are. Results do not depend on it, but it also caps the flips one trial may
# expect (see geometric_flips) and the elements of one uniform-mode output
# (see uniform_positions).
BLOCK_LANES = 2**20

# flips drawn by the first batch of geometric_flips; each later batch doubles.
# Results do not depend on it: the k-th draw is a pure function of (seed, k).
_SKIP_CHUNK = 64


@dataclass(frozen=True)
class FaultConfig:
    """Which fault mode to apply and with what parameters.

    mode="ber" uses ``ber`` and ``bit_window`` (inclusive bit positions
    within the 32-bit accumulator); mode="uniform" uses ``freq`` and ``mag``.
    ``seed`` roots the fault stream in either mode. ``FaultConfig()`` is the
    stock ``fault`` config section: BER mode at 1e-6.
    """

    mode: str = BER_MODE
    ber: float = 1e-6
    bit_window: tuple[int, int] = (16, 31)
    mag: int = 0
    freq: int = 0
    seed: int = 0

    def __post_init__(self):
        if self.mode not in (BER_MODE, UNIFORM_MODE):
            raise ValueError(f"mode must be {BER_MODE!r} or {UNIFORM_MODE!r}, got {self.mode!r}")
        if not (0.0 <= self.ber <= 1.0):
            raise ValueError(f"ber must be in [0, 1], got {self.ber}")
        if len(self.bit_window) != 2 or not (0 <= self.bit_window[0] <= self.bit_window[1] <= 31):
            raise ValueError(
                f"bit_window must be (lo, hi) with 0 <= lo <= hi <= 31, got {self.bit_window}"
            )
        lo, hi = self.bit_window
        object.__setattr__(self, "bit_window", (int(lo), int(hi)))
        if not (INT32_MIN <= self.mag <= INT32_MAX):
            raise ValueError(f"mag must fit INT32, got {self.mag}")
        check_seed(self.seed)


@dataclass(frozen=True)
class ErrorEvent:
    """One corrupted output element: position, values, and flipped bits.

    ``flipped_bits`` lists bit positions for mode="ber" and is empty for
    mode="uniform". ``before != after`` always holds; no-op flips are never
    logged.
    """

    row: int
    col: int
    before: int
    after: int
    flipped_bits: tuple[int, ...] = ()


def _wrap_int32(v: np.ndarray) -> np.ndarray:
    """An int64 array wrapped into INT32 (modulo 2**32), as int64: the int32 cast wraps."""
    return v.astype(np.int32).astype(np.int64)


def geometric_flips(seeds, n_bits: int, ber: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The candidate bits that flip in each trial of a stream, and one thinning uniform each.

    Trial t draws on ``seeds[t]`` (uint64), and each of its ``n_bits`` bits
    flips independently with probability ``ber``. Returns the trial (int64),
    index (int64) and thinning uniform ``u`` in [0, ber) (float64) of every
    flip, sorted by (trial, index): the flips with ``u < ber'`` are an exact
    sample at any ``ber' <= ber``. The trials still drawing take each chunk
    together, in blocks of about ``DRAW_BLOCK`` values, and a trial drops out
    once its chunk runs past its last bit. A trial may expect at most
    ``BLOCK_LANES`` flips (``n_bits * ber``), since its flips are held at once
    (about 120 bytes each); more raise ValueError before any draw.
    """
    if not 0.0 <= ber <= 1.0:
        raise ValueError(f"ber must be in [0, 1], got {ber}")
    if n_bits * ber > BLOCK_LANES:
        raise ValueError(
            f"ber {ber:g} over {n_bits} candidate bits expects {n_bits * ber:.0f} flips "
            f"per trial, more than {BLOCK_LANES}; lower the BER or the output size"
        )
    seeds = np.asarray(seeds, dtype=np.uint64).ravel()
    if ber == 0.0:
        return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64), np.zeros(0)
    # log(1 - ber) is -inf at ber == 1 (where math.log1p raises), and every
    # gap log(U) / -inf is then 0: all bits flip
    log_q = math.log1p(-ber) if ber < 1.0 else -math.inf
    trials, indices, thinning = [], [], []
    active, last = np.arange(seeds.size), np.full(seeds.size, -1, dtype=np.int64)
    done, chunk = 0, _SKIP_CHUNK
    while active.size:
        going = []
        step = max(1, DRAW_BLOCK // (2 * chunk))
        for start in range(0, active.size, step):
            rows = active[start : start + step]
            unit = unit_floats(u64_stream(seeds[rows, np.newaxis], 2 * chunk, 2 * done))
            # log1p(-unit) is log(U) for U = 1 - unit in (0, 1]; a gap past the
            # last bit ends the sample, so clip before the integer cast
            gaps = np.minimum(np.floor(np.log1p(-unit[:, 0::2]) / log_q), n_bits)
            idx = last[rows, np.newaxis] + np.cumsum(gaps.astype(np.int64) + 1, axis=1)
            keep = idx < n_bits
            trials.append(np.broadcast_to(rows[:, np.newaxis], idx.shape)[keep])
            indices.append(idx[keep])
            thinning.append(ber * unit[:, 1::2][keep])
            going.append(rows[keep[:, -1]])
            last[rows] = idx[:, -1]
        active, done, chunk = np.concatenate(going), done + chunk, 2 * chunk
    # each chunk's flips follow the last chunk's, so a stable sort by trial sorts all
    trial = np.concatenate(trials)
    order = np.argsort(trial, kind="stable")
    return trial[order], np.concatenate(indices)[order], np.concatenate(thinning)[order]


@dataclass(frozen=True, eq=False)
class Corruption:
    """Every corrupted element of a stream of same-shaped outputs (trials).

    Flat arrays with one entry per corrupted element, sorted by (trial,
    element): the row-major ``element`` of trial ``trial``'s output goes from
    ``before`` to ``after`` (int64 in INT32 range, never equal). ``mask`` holds
    the flipped bits (uint32) in BER mode and is None in uniform mode.
    """

    n_trials: int
    n_cols: int
    trial: np.ndarray
    element: np.ndarray
    before: np.ndarray
    after: np.ndarray
    mask: np.ndarray | None = None

    def diff(self) -> np.ndarray:
        """The (n_trials x n_cols) checksum differences: ``-sum(after - before)`` per column."""
        d = np.zeros((self.n_trials, self.n_cols), dtype=np.int64)
        np.add.at(d, (self.trial, self.element % self.n_cols), self.before - self.after)
        return d

    def events(self) -> list[ErrorEvent]:
        """The event log of a one-trial record, in row-major order."""
        if self.n_trials != 1:
            raise ValueError(f"events are per output; this record holds {self.n_trials} trials")
        rows, cols = np.divmod(self.element, self.n_cols)
        masks = np.zeros_like(self.element) if self.mask is None else self.mask
        columns = (x.tolist() for x in (rows, cols, self.before, self.after, masks))
        return [
            ErrorEvent(r, c, b, a, tuple(bit for bit in range(32) if m >> bit & 1))
            for r, c, b, a, m in zip(*columns)
        ]

    def apply(self, stack: np.ndarray) -> np.ndarray:
        """Write ``after`` into an int32 (n_trials x rows x n_cols) stack in place; return it.

        The writes go through a flat (n_trials x rows * n_cols) view, so a
        stack whose rows and columns cannot be viewed flat raises ValueError.
        """
        if stack.ndim != 3 or (stack.shape[0], stack.shape[2]) != (self.n_trials, self.n_cols):
            raise ValueError(f"stack shape {stack.shape} is not ({self.n_trials}, rows, {self.n_cols})")
        flat = stack.reshape(self.n_trials, stack.shape[1] * self.n_cols)
        # reshape copies when it cannot view, and a copy never overlaps its source
        if stack.size and not np.may_share_memory(flat, stack):
            raise ValueError("stack rows and columns must be viewable flat to write in place")
        flat[self.trial, self.element] = self.after
        return stack


@dataclass(frozen=True, eq=False)
class SparseFlips:
    """The bit flips of a stream of same-shaped outputs (trials) at a top BER.

    Holds O(flips) data and no output matrix, as flat arrays with one entry per
    flip, sorted by (trial, element): the flip hits the row-major ``element``
    of trial ``trial``'s output with the one-bit ``mask``; ``u`` is its
    thinning uniform and ``clean`` the clean value of the element it hits.
    ``rows(bers)`` thins the flips to any ``bers`` up to the top one at once,
    and ``at(ber)`` to one.
    """

    n_trials: int
    n_cols: int
    ber: float
    trial: np.ndarray  # int64
    element: np.ndarray  # int64
    mask: np.ndarray  # uint32
    u: np.ndarray  # float64
    clean: np.ndarray  # int64

    @classmethod
    def draw(
        cls, n_rows: int, n_cols: int, entries, seeds, bit_window: tuple[int, int], ber: float
    ):
        """The flips at ``ber`` inside ``bit_window`` of a stream of n_rows x n_cols outputs.

        Trial t is drawn on ``seeds[t]``, all trials in one ``geometric_flips``
        pass, and one ``entries(trials, rows, cols)`` call gives the clean
        values at every flipped element, so a caller bounds the entries read
        at once by the trials it passes (the scorer passes a block of them).
        """
        seeds = np.asarray(seeds, dtype=np.uint64).ravel()
        lo, hi = bit_window
        width = hi - lo + 1
        trial, idx, u = geometric_flips(seeds, n_rows * n_cols * width, ber)
        element, bits = np.divmod(idx, width)
        mask = np.left_shift(np.uint32(1), (bits + lo).astype(np.uint32))
        rows, cols = np.divmod(element, n_cols)
        clean = np.asarray(entries(trial, rows, cols), dtype=np.int64)
        return cls(seeds.size, n_cols, ber, trial, element, mask, u, clean)

    def rows(self, bers) -> tuple[np.ndarray, np.ndarray, Corruption]:
        """The (BER, trial) rows corrupted at each of ``bers``: ``(level, trial, record)``.

        Row i is trial ``trial[i]`` at ``bers[level[i]]``, and trial i of
        ``record`` holds its corrupted elements. Rows go BER by BER in the
        order given, trials ascending; a (BER, trial) pair with no corrupted
        element has no row. Each BER keeps the flips whose thinning uniform
        lies below it, and flips that hit one element merge into one entry.
        """
        if not all(0.0 <= ber <= self.ber for ber in bers):
            raise ValueError(f"each ber must be in [0, {self.ber}], got {list(bers)}")
        keeps = [np.flatnonzero(self.u < ber) for ber in bers]
        level = np.repeat(np.arange(len(keeps)), [k.size for k in keeps])
        keep = np.concatenate([np.zeros(0, dtype=np.int64), *keeps])
        trial, element = self.trial[keep], self.element[keep]
        # the kept flips are sorted by (BER, trial, element): each run of one
        # (BER, trial) is one row, and each run of one key one corrupted element
        new = np.ones(keep.size, dtype=bool)
        new[1:] = (level[1:] != level[:-1]) | (trial[1:] != trial[:-1])
        first = new.copy()
        first[1:] |= element[1:] != element[:-1]
        starts, heads = np.flatnonzero(first), np.flatnonzero(new)
        mask = np.bitwise_or.reduceat(self.mask[keep], starts)
        before = self.clean[keep][starts]
        after = _wrap_int32(before ^ mask.astype(np.int64))
        row = np.cumsum(new)[starts] - 1
        return level[heads], trial[heads], Corruption(heads.size, self.n_cols, row, element[starts], before, after, mask)

    def at(self, ber: float) -> Corruption:
        """The elements corrupted at ``ber``, by the flips whose thinning uniform lies below it."""
        _, trials, record = self.rows([ber])
        return replace(record, n_trials=self.n_trials, trial=trials[record.trial])


def check_uniform_elements(elements: int, name: str = "n", size: str = "n") -> None:
    """Refuse more than ``BLOCK_LANES`` elements: uniform injection holds an output's priorities at once."""
    if elements > BLOCK_LANES:
        raise ValueError(f"{name} must make {size} <= {BLOCK_LANES} for uniform injection, got {elements}")


def check_uniform_freq(freq: int, elements: int, name: str = "freq", size: str = "n") -> None:
    """Refuse a ``freq`` outside [0, elements]: uniform injection hits ``freq`` distinct elements."""
    if not 0 <= freq <= elements:
        raise ValueError(f"{name} must be in [0, {size} = {elements}], got {freq}")


def _ranked_draws(seeds: np.ndarray, n: int, ranks: list[int]) -> list[tuple[np.ndarray, np.ndarray]]:
    """Each row block's (rows x n) priorities and each row's priority of each of ``ranks``."""
    blocks = []
    step = max(1, DRAW_BLOCK // n)
    for start in range(0, len(seeds) if ranks else 0, step):
        priorities = u64_stream(seeds[start : start + step], n)
        # one sort ranks every threshold; one partition is cheaper for a single one
        if len(ranks) == 1:
            ranked = np.partition(priorities, ranks[0], axis=1)
        else:
            ranked = np.sort(priorities, axis=1)
        blocks.append((priorities, ranked[:, ranks]))
    return blocks


def _positions_at(blocks, n: int, freq: int, column: int) -> np.ndarray:
    """The positions whose priority is at most each row's threshold in ``column`` of ``blocks``."""
    positions = np.empty((sum(len(p) for p, _ in blocks), freq), dtype=np.int64)
    start = 0
    for priorities, kths in blocks:
        hits = np.flatnonzero(priorities <= kths[:, column, np.newaxis])
        # row i's hits are flat indices offset by i * n; a row with more than
        # freq of them (a tie) fails the reshape
        rows = len(priorities)
        offsets = np.arange(0, rows * n, n)[:, np.newaxis]
        np.subtract(hits.reshape(rows, freq), offsets, out=positions[start : start + rows])
        start += rows
    return positions


def uniform_position_sets(seeds, n: int, freqs) -> Iterator[np.ndarray]:
    """Per freq of ``freqs``, in order: ``uniform_positions(seeds, n, freq)``, from one draw.

    A row's positions at ``freq`` are the elements whose priority is at most
    its ``freq``-th smallest, so one draw of the priorities gives every freq:
    each row block is drawn once, and one ``np.sort`` of it gives the
    threshold of every freq strictly between 0 and ``n`` (``np.partition`` at
    the one rank when there is one such freq; freq 0 and ``n`` need no draw).
    ``check_uniform_elements`` and then ``check_uniform_freq`` on each freq
    in order refuse ``n`` and ``freqs`` before any draw. Every row's
    priorities are held until the last freq that needs them is served.
    """
    check_uniform_elements(n)
    for freq in freqs:
        check_uniform_freq(freq, n)
    seeds = np.asarray(seeds, dtype=np.uint64).reshape(-1, 1)
    ranks = [freq - 1 for freq in freqs if 0 < freq < n]
    blocks = _ranked_draws(seeds, n, ranks)
    column = 0
    for freq in freqs:
        if freq in (0, n):
            yield np.tile(np.arange(freq), (len(seeds), 1))
            continue
        positions = _positions_at(blocks, n, freq, column)
        column += 1
        if column == len(ranks):
            blocks = []  # no later freq reads the priorities
        yield positions


def uniform_positions(seeds, n: int, freq: int) -> np.ndarray:
    """Row r: the ``freq`` of ``n`` row-major elements hit by uniform injection on ``seeds[r]``.

    Each element gets one SplitMix64 priority draw under the row's seed
    (row-major order, same stream discipline as the BER mode) and the
    ``freq`` smallest priorities are taken, which selects position sets
    uniformly. They are the elements whose priority is at most the row's
    ``freq``-th smallest, so a mask against that value gives them in
    ascending order. Exactly ``freq`` pass, as no two priorities of a row tie:
    priority i is ``mix64(seed + (i + 1) * GAMMA)``, the inputs are distinct
    modulo 2**64 because GAMMA is odd, and ``mix64`` is a bijection.
    Rows are drawn ``max(1, DRAW_BLOCK // n)`` at a time, so a temporary
    holds about ``DRAW_BLOCK`` priorities (one row's ``n`` when that is
    more), and every row's priorities are held until its positions are
    taken. Returns an int64 (len(seeds) x freq) matrix, each row ascending.
    A row's ``n`` priorities are held at once, so ``check_uniform_elements``
    and then ``check_uniform_freq`` refuse ``n`` and ``freq`` before any draw.
    It is the one-freq case of ``uniform_position_sets``.
    """
    return next(uniform_position_sets(seeds, n, [freq]))


def uniform_record(positions, n_cols: int, entries, mag: int) -> Corruption:
    """``mag`` added (wrapping in INT32) to each trial's elements in its row of ``positions``.

    Row t of the int64 (trials x freq) ``positions`` holds the row-major
    elements of trial t's n_cols-wide output that are hit, as
    ``uniform_positions`` gives them, and ``entries(trials, rows, cols)``
    gives their clean values in one call. mag == 0 corrupts nothing.
    """
    # adding 0 changes no element, so mag == 0 keeps none of the positions
    positions = positions[:, : positions.shape[1] if mag else 0]
    trial = np.repeat(np.arange(len(positions)), positions.shape[1])
    element = positions.ravel()
    # two passes, but about half the time of one np.divmod of int64 elements
    rows = element // n_cols
    before = np.asarray(entries(trial, rows, element - rows * n_cols), dtype=np.int64)
    return Corruption(len(positions), n_cols, trial, element, before, _wrap_int32(before + mag))


def uniform_corruption(seeds, n_rows: int, n_cols: int, entries, freq: int, mag: int) -> Corruption:
    """``mag`` added (wrapping in INT32) to the ``freq`` elements ``uniform_positions`` picks.

    Trial t is an n_rows x n_cols output injected on ``seeds[t]``, and
    ``entries(trials, rows, cols)`` gives the clean values at the picked
    elements. mag == 0 corrupts nothing. It is ``uniform_record`` of the
    trials' positions.
    """
    return uniform_record(uniform_positions(seeds, n_rows * n_cols, freq), n_cols, entries, mag)


def corruption(n_rows: int, n_cols: int, entries, seeds, cfg: FaultConfig) -> Corruption:
    """The elements ``cfg`` corrupts in a stream of n_rows x n_cols outputs, in either mode.

    Trial t is injected on ``seeds[t]``, so ``cfg.seed`` is not read here: a
    one-trial caller passes ``[cfg.seed]``, a stream its trials' seeds derived
    from it. ``entries(trials, rows, cols)`` gives the clean values at the
    corrupted elements.
    """
    if cfg.mode == BER_MODE:
        return SparseFlips.draw(n_rows, n_cols, entries, seeds, cfg.bit_window, cfg.ber).at(cfg.ber)
    return uniform_corruption(seeds, n_rows, n_cols, entries, cfg.freq, cfg.mag)


def _dense_injection(y: AccumMatrix, cfg: FaultConfig, mode: str, name: str):
    if cfg.mode != mode:
        raise ValueError(f"{name} needs mode={mode!r}, got {cfg.mode!r}")
    record = corruption(*y.data.shape, lambda _, r, c: y.data[r, c], [cfg.seed], cfg)
    return AccumMatrix(record.apply(y.data[np.newaxis].copy())[0]), record.events()


def sample_bitflips(y: AccumMatrix, cfg: FaultConfig) -> tuple[AccumMatrix, list[ErrorEvent]]:
    """Apply per-bit Bernoulli flips inside cfg.bit_window to every element."""
    return _dense_injection(y, cfg, BER_MODE, "sample_bitflips")


def inject_uniform(y: AccumMatrix, cfg: FaultConfig) -> tuple[AccumMatrix, list[ErrorEvent]]:
    """Add cfg.mag to exactly cfg.freq distinct elements, chosen uniformly.

    mag == 0 or freq == 0 yields an untouched copy and an empty log.
    """
    return _dense_injection(y, cfg, UNIFORM_MODE, "inject_uniform")


def apply_fault(y: AccumMatrix, cfg: FaultConfig) -> tuple[AccumMatrix, list[ErrorEvent]]:
    """Dispatch on cfg.mode."""
    if cfg.mode == BER_MODE:
        return sample_bitflips(y, cfg)
    return inject_uniform(y, cfg)


class TableFormatError(ValueError):
    """CSV table rejected; message carries the 1-based line number."""


@dataclass(frozen=True, eq=False)
class VoltageBerTable:
    """Operating points: strictly descending voltages, non-decreasing BERs.

    Queries between rows interpolate log-linearly in (voltage, log10 BER).
    Row voltages, within ROW_TOLERANCE, return the stored BER verbatim,
    including 0.0.
    """

    voltages: np.ndarray
    bers: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.voltages, dtype=np.float64)
        b = np.asarray(self.bers, dtype=np.float64)
        if v.ndim != 1 or v.size < 2 or v.shape != b.shape:
            raise ValueError("table needs matching 1-D voltage/ber arrays with >= 2 rows")
        if not np.all(np.isfinite(v)):
            raise ValueError("voltages must be finite")
        if not np.all(np.diff(v) < 0):
            raise ValueError("voltages must be strictly descending")
        if np.any(b < 0) or np.any(b > 1):
            raise ValueError("ber values must lie in [0, 1]")
        if not np.all(np.diff(b) >= 0):
            raise ValueError("ber must be non-decreasing as voltage drops")
        v.setflags(write=False)
        b.setflags(write=False)
        object.__setattr__(self, "voltages", v)
        object.__setattr__(self, "bers", b)

    @property
    def v_max(self) -> float:
        return float(self.voltages[0])

    @property
    def v_min(self) -> float:
        return float(self.voltages[-1])

    def ber_at(self, v: float) -> float:
        """BER at voltage ``v``; raises ValueError outside the table span.

        A voltage within ROW_TOLERANCE of a row is that row's voltage, so float
        error in a computed voltage still returns the stored BER verbatim.
        """
        nearest = int(np.argmin(np.abs(self.voltages - v)))
        if abs(float(self.voltages[nearest]) - v) <= ROW_TOLERANCE:
            return float(self.bers[nearest])
        if not (self.v_min <= v <= self.v_max):
            raise ValueError(
                f"voltage {v} outside table span [{self.v_min}, {self.v_max}]"
            )
        # voltages descend, so search on the negated axis
        i = int(np.searchsorted(-self.voltages, -v)) - 1
        v0, v1 = float(self.voltages[i]), float(self.voltages[i + 1])
        b0 = max(float(self.bers[i]), LOG_BER_FLOOR)
        b1 = max(float(self.bers[i + 1]), LOG_BER_FLOOR)
        t = (v0 - v) / (v0 - v1)
        return 10.0 ** ((1 - t) * math.log10(b0) + t * math.log10(b1))

    @classmethod
    def from_csv(cls, path: str) -> "VoltageBerTable":
        """Parse a ``voltage,ber`` CSV file (header row required)."""
        rows = []
        header = None
        with open(path, newline="") as fh:
            for lineno, row in enumerate(csv.reader(fh), start=1):
                if not row or all(not c.strip() for c in row):
                    continue
                if header is None:
                    header = [c.strip().lower() for c in row]
                    if header != ["voltage", "ber"]:
                        raise TableFormatError(
                            f"line {lineno}: header must be 'voltage,ber', got {','.join(row)!r}"
                        )
                    continue
                if len(row) != 2:
                    raise TableFormatError(f"line {lineno}: expected 2 fields, got {len(row)}")
                try:
                    rows.append((float(row[0]), float(row[1])))
                except ValueError:
                    raise TableFormatError(f"line {lineno}: non-numeric field in {row!r}") from None
        if header is None:
            raise TableFormatError("line 1: empty table")
        if len(rows) < 2:
            raise TableFormatError(f"table needs >= 2 data rows, got {len(rows)}")
        try:
            return cls(
                np.array([r[0] for r in rows]),
                np.array([r[1] for r in rows]),
            )
        except ValueError as e:
            raise TableFormatError(str(e)) from None


def default_table() -> VoltageBerTable:
    """Synthetic undervolting curve: 1e-12 at 0.90 V up to 1e-4 at 0.60 V.

    Log-linear in between, sampled every 20 mV. Stands in for silicon
    characterization data when none is supplied.
    """
    voltages = np.round(np.arange(0.90, 0.60 - 1e-9, -0.02), 10)
    exponents = -12.0 + (0.90 - voltages) / 0.30 * 8.0
    return VoltageBerTable(voltages, 10.0**exponents)
