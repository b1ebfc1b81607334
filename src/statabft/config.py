"""Experiment configuration: JSON file -> validated dataclasses.

Every setting is a field of the dataclass that owns it, and ``ExperimentConfig()``
is the stock experiment. Each JSON section is read onto a copy of its default
object: unknown keys are rejected, a value must have the JSON type of the default
it replaces, and the owning dataclass checks the bounds, naming the offending
field first in its ValueError. ConfigError carries the dotted key path and the
reason, and maps to exit code 2 at the CLI.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import asdict, dataclass, fields, replace
from functools import partial

from .calibration import CalibrationSettings
from .detectors import (
    DETECTOR_KINDS,
    CriticalRegionParams,
    DetectorSpec,
    _is_finite_number,
    load_params,
    params_from_doc,
)
from .energy import EnergyConfig
from .faults import UNIFORM_MODE, FaultConfig, VoltageBerTable, check_uniform_elements, check_uniform_freq
from .workloads import WorkloadSpec


class ConfigError(ValueError):
    """Configuration rejected; the message says which key and why."""


@dataclass(frozen=True)
class SweepSettings:
    """The voltages a sweep runs at (empty: the energy table's own) and the kinds it compares."""

    voltages: tuple[float, ...] = ()
    detectors: tuple[str, ...] = ("none", "classical", "statistical", "dmr")

    def __post_init__(self):
        if not all(v > 0 for v in self.voltages):
            raise ValueError(f"voltages must all be > 0, got {list(self.voltages)}")
        if len(set(self.voltages)) != len(self.voltages):
            raise ValueError(f"voltages must be distinct, got {list(self.voltages)}")
        kinds = self.detectors
        if not kinds or len(set(kinds)) != len(kinds) or not set(kinds) <= set(DETECTOR_KINDS):
            raise ValueError(f"detectors must list unique kinds from {DETECTOR_KINDS}")


@dataclass(frozen=True)
class OutputSettings:
    """Where a run writes its files, and the format of its result tables."""

    dir: str = "out"
    format: str = "csv"

    def __post_init__(self):
        if self.format not in ("csv", "json"):
            raise ValueError(f"format must be 'csv' or 'json', got {self.format!r}")


@dataclass(frozen=True)
class ExperimentConfig:
    """Fully-resolved experiment settings, one field per JSON section, ready for any subcommand."""

    # frozen, so one shared default instance each
    workload: WorkloadSpec = WorkloadSpec()
    fault: FaultConfig = FaultConfig()
    # the spec each kind in sweep.detectors is built from; its own kind is not a setting
    detector: DetectorSpec = DetectorSpec()
    energy: EnergyConfig = EnergyConfig()
    sweep: SweepSettings = SweepSettings()
    calibrate: CalibrationSettings = CalibrationSettings()
    output: OutputSettings = OutputSettings()
    params_provenance: str = ""

    def __post_init__(self):
        elements, size = self.workload.m * self.workload.n, "workload.m * workload.n"
        check_uniform_freq(self.fault.freq, elements, "fault.freq", size)
        if self.fault.mode == UNIFORM_MODE:
            check_uniform_elements(elements, "fault.mode", size)
        # (3 + detect_overhead) nominal GEMMs bound every energy a sweep reports
        nominal = self.workload.macs_per_gemm * self.energy.e_mac_nom
        if not math.isfinite(nominal * (3 + self.energy.detect_overhead)):
            raise ValueError("energy e_mac_nom and detect_overhead overflow the per-GEMM energy")
        # every sweep energy is at least the compute at the lowest voltage; savings divide by one
        # float * overflows to inf where ** raises, so a huge voltage is left to the table check
        ratio = min(self.voltages()) / self.energy.v_nom
        if not nominal * ratio * ratio > 0:
            raise ValueError("energy per-GEMM energy at the lowest sweep voltage underflows to 0")

    @property
    def sweep_trials(self) -> int:
        """workload.gemm_count, the sweep's trial count; perfbench/cases.py reads it."""
        return self.workload.gemm_count

    def voltages(self) -> tuple[float, ...]:
        return self.sweep.voltages or tuple(float(v) for v in self.energy.table.voltages)

    def detector_specs(self) -> tuple[DetectorSpec, ...]:
        """The comparison set: the ``detector`` spec under each kind of sweep.detectors."""
        return tuple(replace(self.detector, kind=k) for k in self.sweep.detectors)


_RANGE = ("v_min", "v_max", "v_step")
# a v_min/v_max/v_step range gives voltages rounded to this many decimals
_VOLTAGE_DECIMALS = 10
_MAX_RANGE_VOLTAGES = 10_000
_TYPE_NAMES = {int: "integer", str: "string"}


def _fail(path, msg: str) -> ConfigError:
    where = ".".join(str(p) for p in path) or "<root>"
    return ConfigError(f"{where}: {msg}")


def _value(path, v, like):
    """``v`` checked against a default value, a type, or a 1-tuple of either.

    Booleans are not numbers, and a float takes only a number that converts to
    a finite float. Lists must be non-empty; their items are converted to the
    item type.
    """
    if isinstance(like, CriticalRegionParams):
        doc = _object(path, v, [f.name for f in fields(like)])
        return _build(path, lambda **keys: params_from_doc(keys), doc)
    if isinstance(like, tuple):
        if not isinstance(v, list) or not v:
            raise _fail(path, f"expected a non-empty list, got {json.dumps(v)}")
        t = like[0] if isinstance(like[0], type) else type(like[0])
        return tuple(t(_value(path, x, t)) for x in v)
    t = like if isinstance(like, type) else type(like)
    if t is float and not _is_finite_number(v):
        raise _fail(path, f"expected a finite number, got {json.dumps(v)}")
    if t is not float and (isinstance(v, bool) or not isinstance(v, t)):
        raise _fail(path, f"expected {_TYPE_NAMES[t]}, got {json.dumps(v)}")
    return v


def _object(path, v, keys) -> dict:
    if not isinstance(v, dict):
        raise _fail(path, f"must be a JSON object, got {json.dumps(v)}")
    unknown = sorted(set(v) - set(keys))
    if unknown:
        raise _fail(path, f"unknown keys {unknown}")
    return v


def _fields(obj, skip=()) -> dict:
    return {f.name: getattr(obj, f.name) for f in fields(obj) if f.name not in skip}


def _build(path, make, values: dict):
    """``make(**values)``; a ValueError is placed at the given (dotted) key it starts with."""
    try:
        return make(**values)
    except ValueError as e:
        name, _, reason = str(e).partition(" ")
        if name.split(".")[0] not in values:
            raise _fail(path, str(e)) from None
        raise _fail([*path, *name.split(".")], reason) from None


def _call(path, fn, arg):
    """``fn(arg)``, with an unreadable file or a rejected value reported at ``path``."""
    try:
        return fn(arg)
    except FileNotFoundError:
        raise _fail(path, f"no such file: {arg}") from None
    except OSError as e:
        raise _fail(path, f"cannot read {arg}: {e.strerror or e}") from None
    except ValueError as e:
        raise _fail(path, str(e)) from None
    except RecursionError:
        raise _fail(path, f"{arg} nests too deeply to parse") from None


def _voltage_range(v_min: float, v_max: float, v_step: float) -> tuple[float, ...]:
    """v_max, v_max - v_step, ... down to v_min, each rounded to 1e-10.

    The step count allows the last step to fall short of v_min by min(1e-9,
    v_step / 2), which absorbs float error in (v_max - v_min) / v_step without
    ever adding a whole step; a last voltage that still rounds below v_min is
    dropped, so no voltage lies below it.
    """
    where = ["sweep", "v_step"]
    if not v_step > 0:
        raise _fail(where, "must be > 0")
    if v_step < 10.0**-_VOLTAGE_DECIMALS:
        raise _fail(
            where,
            f"{v_step:g} is finer than the 1e-{_VOLTAGE_DECIMALS} rounding of sweep "
            "voltages, so it can only repeat voltages",
        )
    # v_max - v_min may overflow to inf, which the bound rejects
    steps = (v_max - v_min + min(1e-9, v_step / 2)) / v_step
    if not steps < _MAX_RANGE_VOLTAGES:
        raise _fail(where, f"the range gives more than {_MAX_RANGE_VOLTAGES} voltages")
    voltages = (round(v_max - i * v_step, _VOLTAGE_DECIMALS) for i in range(math.floor(steps) + 1))
    return tuple(v for v in voltages if v >= v_min)


def parse_config(doc: dict, base_dir: str = ".") -> ExperimentConfig:
    """Validate a config document and resolve it against the defaults."""
    base = ExperimentConfig()
    likes = {
        "workload": _fields(base.workload),
        "fault": {**_fields(base.fault), "voltage": float},
        "detector": {**_fields(base.detector, skip=("kind",)), "params_file": str},
        "energy": {**_fields(base.energy, skip=("table",)), "table_file": str},
        "sweep": {**_fields(base.sweep), "voltages": (float,), **dict.fromkeys(_RANGE, float)},
        "calibrate": _fields(base.calibrate),
        "output": _fields(base.output),
    }
    _object([], doc, likes)
    given = {}
    for s, like in likes.items():
        sec = _object([s], doc.get(s, {}), like)
        given[s] = {k: _value([s, k], v, like[k]) for k, v in sec.items()}
    fl, det, en, sw = (given[s] for s in ("fault", "detector", "energy", "sweep"))

    if "table_file" in en:
        path = os.path.join(base_dir, en.pop("table_file"))
        en["table"] = _call(["energy", "table_file"], VoltageBerTable.from_csv, path)
    if "voltage" in fl:
        if "ber" in fl:
            raise _fail(["fault"], "give either ber or voltage, not both")
        table = en.get("table", base.energy.table)
        fl["ber"] = _call(["fault", "voltage"], table.ber_at, fl.pop("voltage"))
    provenance = ""
    if "params_file" in det:
        if "params" in det:
            raise _fail(["detector"], "give either params or params_file, not both")
        path = os.path.join(base_dir, det.pop("params_file"))
        det["params"], provenance = _call(["detector", "params_file"], load_params, path)

    if "voltages" in sw and any(k in sw for k in _RANGE):
        raise _fail(["sweep"], "give either voltages or a v_min/v_max/v_step range")
    if "voltages" in sw:
        sw["voltages"] = tuple(sorted(sw["voltages"], reverse=True))
    elif any(k in sw for k in _RANGE):
        missing = set(_RANGE) - set(sw)
        if missing:
            raise _fail(["sweep"], f"range needs v_min/v_max/v_step, missing {sorted(missing)}")
        v_min, v_max, v_step = (sw.pop(k) for k in _RANGE)
        if v_min > v_max:
            raise _fail(["sweep"], "v_min must be <= v_max")
        sw["voltages"] = _voltage_range(v_min, v_max, v_step)

    parts = {s: _build([s], partial(replace, getattr(base, s)), given[s]) for s in given}
    return _build([], partial(replace, base), {**parts, "params_provenance": provenance})


def load_config(path: str) -> ExperimentConfig:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except json.JSONDecodeError as e:
        raise ConfigError(f"config is not valid JSON: {e}") from None
    except RecursionError:
        raise ConfigError(f"config nests too deeply to parse: {path}") from None
    return parse_config(doc, base_dir=os.path.dirname(os.path.abspath(path)))


def override_seed(cfg: ExperimentConfig, seed: int) -> ExperimentConfig:
    """Apply a CLI --seed to both the workload and fault streams."""
    seeded = partial(replace, seed=seed)
    return replace(cfg, workload=seeded(cfg.workload), fault=seeded(cfg.fault))


def resolved_dict(cfg: ExperimentConfig) -> dict:
    """The fully-defaulted config as a JSON-ready document (the run echo)."""
    doc = {
        name: {k: list(v) if isinstance(v, tuple) else v for k, v in section.items()}
        for name, section in asdict(cfg).items()
        if name != "params_provenance"
    }
    del doc["detector"]["kind"]
    doc["detector"]["provenance"] = cfg.params_provenance
    table = cfg.energy.table
    doc["energy"]["table"] = [
        {"voltage": float(v), "ber": float(b)} for v, b in zip(table.voltages, table.bers)
    ]
    doc["sweep"]["voltages"] = [float(v) for v in cfg.voltages()]
    return doc
