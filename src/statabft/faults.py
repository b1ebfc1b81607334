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
  corruption pattern exactly, however the draws are batched. Keeping only the
  flips with ``u < ber'`` gives an exact sample at any lower ``ber'`` from the
  same draws, and the lower-BER flips are a subset of the higher-BER ones.
  A gap goes through float64 ``log``, so patterns are bit-identical across
  platforms only as far as their ``log`` results agree.

* "uniform": exactly ``freq`` output elements at distinct positions each get
  ``mag`` added (wrapping in INT32). When no element wraps, the checksum sum
  deviation is exactly freq * mag, which is what makes this mode useful for
  planting errors of known severity.

Each mode builds its ground-truth event log in one place, reading clean values
only at the elements it touches through a callback ``entries(rows, cols)``;
``output_events`` picks the mode's builder. Comparisons, sweeps and ``inject``
pass ``workloads.workload_entries``, which draws only the operand rows and
columns the corrupted elements read; the dense injectors (``sample_bitflips``,
``inject_uniform``) read them from the matrix and return it with the log
replayed onto it by ``replay_events``. A ``FaultConfig`` is the only source of
a fault's seed and bit window.

Uniform positions come from one sampler, ``uniform_positions``, which draws
the positions of many trials at once, one seed per trial. The uniform event
log is its one-trial case. ``inject_uniform_stack`` corrupts a whole
(trials x rows x cols) stack of dense matrices with it in one vectorized
pass and builds no event log; the calibration grid injects this way, and
each of its trials equals ``inject_uniform`` on that trial's seed.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .gemm import AccumMatrix
from .rng import MASK64, u64_rows, u64_stream, unit_floats

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
# temporary): the calibration grid injects, and scoring decides, its trials
# in blocks of max(1, BLOCK_LANES // lanes) rows, so memory stays bounded
# however many trials there are. Results do not depend on it.
BLOCK_LANES = 2**20

# flips drawn by the first batch of geometric_flips; each later batch doubles.
# Results do not depend on it: the k-th draw is a pure function of (seed, k).
_SKIP_CHUNK = 64


@dataclass(frozen=True)
class FaultConfig:
    """Which fault mode to apply and with what parameters.

    mode="ber" uses ``ber`` and ``bit_window`` (inclusive bit positions
    within the 32-bit accumulator); mode="uniform" uses ``freq`` and ``mag``.
    ``seed`` roots the fault stream in either mode.
    """

    mode: str
    ber: float = 0.0
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
        if self.freq < 0:
            raise ValueError(f"freq must be >= 0, got {self.freq}")
        if not (INT32_MIN <= self.mag <= INT32_MAX):
            raise ValueError(f"mag must fit INT32, got {self.mag}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


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


def _wrap_int32(v: int) -> int:
    return ((v - INT32_MIN) % 2**32) + INT32_MIN


def geometric_flips(seed: int, n_bits: int, ber: float) -> tuple[np.ndarray, np.ndarray]:
    """Indices of the candidate bits that flip, and one thinning uniform each.

    Each of ``n_bits`` bits flips independently with probability ``ber``.
    Returns the flipped indices in ascending order (int64) and, per flip, a
    uniform ``u`` in [0, ber) (float64): the flips with ``u < ber'`` are an
    exact sample at any ``ber' <= ber``.
    """
    if not 0.0 <= ber <= 1.0:
        raise ValueError(f"ber must be in [0, 1], got {ber}")
    if ber == 0.0:
        return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.float64)
    # log(1 - ber) is -inf at ber == 1 (where math.log1p raises), and every
    # gap log(U) / -inf is then 0: all bits flip
    log_q = math.log1p(-ber) if ber < 1.0 else -math.inf
    indices, thinning = [], []
    last, done, chunk = -1, 0, _SKIP_CHUNK
    while True:
        unit = unit_floats(u64_stream(seed, 2 * chunk, 2 * done))
        # log1p(-unit) is log(U) for U = 1 - unit in (0, 1]; a gap past the
        # last bit ends the sample, so clip before the integer cast
        gaps = np.minimum(np.floor(np.log1p(-unit[0::2]) / log_q), n_bits)
        idx = last + np.cumsum(gaps.astype(np.int64) + 1)
        k = int(np.searchsorted(idx, n_bits))
        indices.append(idx[:k])
        thinning.append(ber * unit[1::2][:k])
        if k < chunk:
            return np.concatenate(indices), np.concatenate(thinning)
        last, done, chunk = int(idx[-1]), done + chunk, 2 * chunk


def _flip_sites(seed: int, n_elements: int, bit_window: tuple[int, int], ber: float):
    """Element index, bit mask and thinning uniform of every flipped bit."""
    lo, hi = bit_window
    width = hi - lo + 1
    idx, u = geometric_flips(seed, n_elements * width, ber)
    elements, bits = np.divmod(idx, width)
    return elements, np.left_shift(np.uint32(1), (bits + lo).astype(np.uint32)), u


@dataclass(frozen=True, eq=False)
class SparseFlips:
    """The bit flips of a stream of same-shaped outputs (trials) at a top BER.

    Holds O(flips) data and no output matrix, as flat arrays with one entry per
    flip, sorted by (trial, element): the flip hits the row-major ``element``
    of trial ``trial``'s output with the one-bit ``mask``; ``u`` is its
    thinning uniform and ``clean`` the clean value of the element it hits.
    ``events(ber)`` and ``diff(ber)`` thin the flips to any ``ber`` up to the
    top one.
    """

    n_trials: int
    n_cols: int
    ber: float
    bit_window: tuple[int, int]
    trial: np.ndarray  # int64
    element: np.ndarray  # int64
    mask: np.ndarray  # uint32
    u: np.ndarray  # float64
    clean: np.ndarray  # int64

    @classmethod
    def draw(cls, n_rows: int, n_cols: int, entries, cfg: FaultConfig):
        """The flips of ``cfg``'s (seed, ber, bit_window) in one n_rows x n_cols output.

        ``entries(rows, cols)`` gives the clean values at the flipped elements.
        """
        elements, masks, u = _flip_sites(cfg.seed, n_rows * n_cols, cfg.bit_window, cfg.ber)
        clean = np.asarray(entries(*np.divmod(elements, n_cols)), dtype=np.int64)
        trial = np.zeros(elements.size, dtype=np.int64)
        return cls(1, n_cols, cfg.ber, cfg.bit_window, trial, elements, masks, u, clean)

    @classmethod
    def stack(cls, parts: list["SparseFlips"]) -> "SparseFlips":
        """One stream of one-trial draws of one shape, ber and bit window; trial t is parts[t]."""
        trial = np.repeat(np.arange(len(parts)), [p.u.size for p in parts])
        arrays = (np.concatenate([getattr(p, f) for p in parts]) for f in ("element", "mask", "u", "clean"))
        first = parts[0]
        return cls(len(parts), first.n_cols, first.ber, first.bit_window, trial, *arrays)

    def _corrupted(self, ber: float):
        """Trial, element, mask, clean and corrupted value of each element corrupted at ``ber``."""
        if not 0.0 <= ber <= self.ber:
            raise ValueError(f"ber must be in [0, {self.ber}], got {ber}")
        keep = self.u < ber
        trial, element = self.trial[keep], self.element[keep]
        # the kept flips stay sorted by (trial, element): each run of one key is one element
        first = np.ones(trial.size, dtype=bool)
        first[1:] = (trial[1:] != trial[:-1]) | (element[1:] != element[:-1])
        starts = np.flatnonzero(first)
        mask = np.bitwise_or.reduceat(self.mask[keep], starts)
        before = self.clean[keep][starts]
        after = _wrap_int32(before ^ mask.astype(np.int64))
        return trial[starts], element[starts], mask, before, after

    def events(self, ber: float) -> list[ErrorEvent]:
        """The corrupted elements of a one-trial draw at ``ber``, in row-major order."""
        if self.n_trials != 1:
            raise ValueError(f"events are per output; these flips hold {self.n_trials} trials")
        _, element, mask, before, after = self._corrupted(ber)
        rows, cols = np.divmod(element, self.n_cols)
        lo, hi = self.bit_window
        return [
            ErrorEvent(
                row=r, col=c, before=b, after=a,
                flipped_bits=tuple(bit for bit in range(lo, hi + 1) if m >> bit & 1),
            )
            for r, c, m, b, a in zip(*(x.tolist() for x in (rows, cols, mask, before, after)))
        ]

    def diff(self, ber: float) -> np.ndarray:
        """The (n_trials x n_cols) checksum-difference matrix at ``ber``.

        Row t is trial t's ``checksum_diff``: ``-sum(after - before)`` per column.
        """
        trial, element, _, before, after = self._corrupted(ber)
        d = np.zeros((self.n_trials, self.n_cols), dtype=np.int64)
        np.add.at(d, (trial, element % self.n_cols), before - after)
        return d


def uniform_positions(seeds, n: int, freq: int) -> np.ndarray:
    """Row r: the ``freq`` of ``n`` row-major elements hit by uniform injection on ``seeds[r]``.

    Each element gets one SplitMix64 priority draw under the row's seed
    (row-major order, same stream discipline as the BER mode) and the
    ``freq`` smallest priorities are taken, which selects position sets
    uniformly. Returns an int64 (len(seeds) x freq) matrix, each row ascending.
    """
    if freq > n:
        raise ValueError(f"freq {freq} exceeds element count {n}")
    if freq < 0:
        raise ValueError(f"freq must be >= 0, got {freq}")
    if freq in (0, n):
        return np.tile(np.arange(freq), (len(seeds), 1))
    positions = np.argpartition(u64_rows(seeds, n), freq, axis=1)[:, :freq]
    positions.sort(axis=1)
    return positions


def inject_uniform_stack(clean: np.ndarray, seeds, freq: int, mag: int) -> np.ndarray:
    """``mag`` added (wrapping in INT32) to ``freq`` uniform elements of each matrix of a stack.

    ``clean`` is an int32 (trials x rows x cols) stack; trial t's elements
    are ``uniform_positions`` on ``seeds[t]``, so it equals ``inject_uniform``
    on ``FaultConfig(mode="uniform", freq=freq, mag=mag, seed=seeds[t])``.
    Returns a new stack.
    """
    flat = clean.reshape(len(clean), -1)
    out = flat.copy()
    positions = uniform_positions(seeds, flat.shape[1], freq)
    if freq and mag:
        before = np.take_along_axis(flat, positions, axis=1).astype(np.int64)
        np.put_along_axis(out, positions, _wrap_int32(before + mag), axis=1)
    return out.reshape(clean.shape)


def _uniform_events(n_rows: int, n_cols: int, entries, seed: int, freq: int, mag: int):
    """``mag`` added (wrapping in INT32) to the ``freq`` elements that ``uniform_positions`` picks.

    ``entries(rows, cols)`` gives the clean values there. freq == 0 or
    mag == 0 logs nothing.
    """
    positions = uniform_positions([seed & MASK64], n_rows * n_cols, freq)[0]
    if freq == 0 or mag == 0:
        return []
    rows, cols = np.divmod(positions, n_cols)
    before = entries(rows, cols).astype(np.int64)
    after = _wrap_int32(before + mag)
    return [ErrorEvent(*e) for e in zip(*(a.tolist() for a in (rows, cols, before, after)))]


def output_events(n_rows: int, n_cols: int, entries, cfg: FaultConfig) -> list[ErrorEvent]:
    """The event log of ``cfg`` on an n_rows x n_cols output, from its mode's builder.

    ``entries(rows, cols)`` gives the clean values at the corrupted elements.
    """
    if cfg.mode == BER_MODE:
        return SparseFlips.draw(n_rows, n_cols, entries, cfg).events(cfg.ber)
    return _uniform_events(n_rows, n_cols, entries, cfg.seed, cfg.freq, cfg.mag)


def checksum_diff(events: list[ErrorEvent], n_cols: int) -> np.ndarray:
    """Per-column checksum difference an event log leaves: ``-sum(after - before)``."""
    d = np.zeros(n_cols, dtype=np.int64)
    for e in events:
        d[e.col] -= e.after - e.before
    return d


def _replayed(y: AccumMatrix, cfg: FaultConfig, mode: str, name: str):
    if cfg.mode != mode:
        raise ValueError(f"{name} needs mode={mode!r}, got {cfg.mode!r}")
    events = output_events(*y.data.shape, lambda rows, cols: y.data[rows, cols], cfg)
    return replay_events(y, events), events


def sample_bitflips(y: AccumMatrix, cfg: FaultConfig) -> tuple[AccumMatrix, list[ErrorEvent]]:
    """Apply per-bit Bernoulli flips inside cfg.bit_window to every element."""
    return _replayed(y, cfg, BER_MODE, "sample_bitflips")


def inject_uniform(y: AccumMatrix, cfg: FaultConfig) -> tuple[AccumMatrix, list[ErrorEvent]]:
    """Add cfg.mag to exactly cfg.freq distinct elements, chosen uniformly.

    mag == 0 or freq == 0 yields an untouched copy and an empty log.
    """
    return _replayed(y, cfg, UNIFORM_MODE, "inject_uniform")


def apply_fault(y: AccumMatrix, cfg: FaultConfig) -> tuple[AccumMatrix, list[ErrorEvent]]:
    """Dispatch on cfg.mode."""
    if cfg.mode == BER_MODE:
        return sample_bitflips(y, cfg)
    return inject_uniform(y, cfg)


def replay_events(y: AccumMatrix, events: list[ErrorEvent]) -> AccumMatrix:
    """Re-apply an event log onto the clean matrix it was recorded against.

    Raises if any event's ``before`` does not match the matrix, which would
    mean the log and matrix are from different runs.
    """
    out = y.data.copy()
    for e in events:
        if int(out[e.row, e.col]) != e.before:
            raise ValueError(
                f"event at ({e.row}, {e.col}) expects before={e.before}, "
                f"matrix has {int(out[e.row, e.col])}"
            )
        out[e.row, e.col] = e.after
    return AccumMatrix(out)


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
