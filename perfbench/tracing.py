"""Span tracer for the benchmark's traced run.

`instrument(tracer)` wraps public functions of each statabft layer at the
name its caller looks up (``statabft.energy.run_array``, not
``statabft.systolic.run_array``), so nothing under src/ changes. Every call
records a span (id, name, start, end, parent, thread id, trial index) in
memory, and counts are taken at the same boundaries. The patches are undone
when the block ends.

A span's layer is the part of its name before the first dot. Self time is a
span's duration minus the part of it that its child spans cover. Children are
the spans opened beneath it on its own thread, plus the first span a pool
thread opens while it is the innermost span on the invoking thread; their
union is subtracted, so time the sweep's pool overlaps is not counted twice.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import importlib
import itertools
import threading
from collections import Counter, defaultdict
from time import perf_counter

BOOKKEEPING = "trace.bookkeeping"


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.inputs = set()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._root_stack = None

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def count(self, key, n=1):
        with self._lock:
            self.counts[key] += n

    def add_input(self, digest):
        with self._lock:
            self.inputs.add(digest)

    def set_trial(self, index):
        self._local.trial = index

    def _parent(self, stack):
        if stack:
            return stack[-1]
        try:
            return self._root_stack[-1]
        except (IndexError, TypeError):
            return (None, None)

    def call(self, name, fn, args, kwargs, before=None, after=None):
        stack = self._stack()
        parent_id, parent_name = self._parent(stack)
        if before is not None:
            before(self, args)
        sid = next(self._ids)
        stack.append((sid, name))
        start = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = perf_counter()
            stack.pop()
            tid = threading.get_ident()
            trial = getattr(self._local, "trial", None)
            self.spans.append((sid, name, start, end, parent_id, tid, trial))
        if after is not None:
            after(self, args, result, parent_name)
            # a sibling span, so the hook's cost is not charged to the parent's self time
            self.spans.append((next(self._ids), BOOKKEEPING, end, perf_counter(), parent_id, tid, trial))
        return result

    def wrap(self, fn, name, before=None, after=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs, before, after)

        return traced

    @contextlib.contextmanager
    def root(self, name):
        """Open the invocation's root span on the calling thread."""
        self._root_stack = self._stack()
        sid = next(self._ids)
        self._root_stack.append((sid, name))
        start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            self._root_stack.pop()
            self.spans.append((sid, name, start, end, None, threading.get_ident(), None))
            self._root_stack = None


# --- counting hooks --------------------------------------------------------


def _count_gemm(tracer, args, result, parent):
    w, x = args[0], args[1]
    tracer.count("gemm.macs", w.rows * w.cols * x.cols)
    h = hashlib.sha256(repr((w.data.shape, x.data.shape)).encode())
    h.update(w.data.tobytes())
    h.update(x.data.tobytes())
    tracer.add_input(h.digest())


def _count_flips(tracer, args, result, parent):
    # a flip is one corrupted element (one ErrorEvent); bits_flipped counts its bits
    tracer.count("faults.flips", len(result[1]))
    tracer.count("faults.bits_flipped", sum(len(e.flipped_bits) for e in result[1]))


def _count_u64(tracer, args, result, parent):
    tracer.count("rng.u64_drawn", len(result))
    if parent == "faults.sample_bitflips":
        tracer.count("faults.bits_drawn", len(result))


def _count_cells(tracer, args, result, parent):
    tracer.count("calibration.cells", len(args[1]) * len(args[2]))


def _trial_from_index(tracer, args):
    tracer.set_trial(args[1])


def _trial_from_injection(tracer, args):
    tracer.set_trial(tracer.counts["calibration.injections"])
    tracer.count("calibration.injections")


# (module, attribute, span name, before hook, after hook); an attribute
# "Class.method" patches the class, which is where callers look methods up
PROBES = (
    ("statabft.cli", "load_config", "config.load_config", None, None),
    ("statabft.cli", "sweep_detectors", "energy.sweep_detectors", None, None),
    ("statabft.cli", "compare_detectors", "energy.compare_detectors", None, None),
    ("statabft.cli", "energy_saving", "energy.energy_saving", None, None),
    ("statabft.energy", "_score_stream", "energy.score_stream", None, None),
    ("statabft.energy", "workload_matrices", "workloads.workload_matrices", _trial_from_index, None),
    ("statabft.energy", "run_array", "systolic.run_array", None, None),
    ("statabft.energy", "detect_statistical", "detectors.detect_statistical", None, None),
    ("statabft.energy", "derive_seed", "rng.derive_seed", None, None),
    ("statabft.workloads", "u64_stream", "rng.u64_stream", None, _count_u64),
    ("statabft.workloads", "derive_seed", "rng.derive_seed", None, None),
    ("statabft.systolic", "gemm", "gemm.gemm", None, _count_gemm),
    ("statabft.systolic", "predicted_output_checksum", "gemm.predicted_output_checksum", None, None),
    ("statabft.systolic", "checksum", "gemm.checksum", None, None),
    ("statabft.systolic", "apply_fault", "faults.apply_fault", None, None),
    ("statabft.systolic", "statistical_unit", "systolic.statistical_unit", None, None),
    ("statabft.faults", "sample_bitflips", "faults.sample_bitflips", None, _count_flips),
    ("statabft.faults", "inject_uniform", "faults.inject_uniform", None, None),
    ("statabft.faults", "u64_stream", "rng.u64_stream", None, _count_u64),
    ("statabft.faults", "unit_floats", "rng.unit_floats", None, None),
    ("statabft.detectors", "DetectorSpec.evaluate", "detectors.evaluate", None, None),
    ("statabft.detectors", "ChecksumPair.msd", "detectors.msd", None, None),
    ("statabft.detectors", "ChecksumPair.from_vectors", "detectors.from_vectors", None, None),
    ("statabft.cli", "quality_grid", "calibration.quality_grid", None, _count_cells),
    ("statabft.cli", "fit_critical_region", "calibration.fit_critical_region", None, None),
    ("statabft.calibration", "inject_uniform", "faults.inject_uniform", _trial_from_injection, None),
    ("statabft.calibration", "derive_seed", "rng.derive_seed", None, None),
    ("statabft.cli", "_prepare_out", "cli.write", None, None),
    ("statabft.cli", "_write_table", "cli.write", None, None),
    ("statabft.cli", "_write_text", "cli.write", None, None),
    ("statabft.cli", "grid_to_csv", "cli.write", None, None),
    ("statabft.cli", "save_params", "cli.write", None, None),
)

# factories whose returned oracle is traced as one calibration.oracle span per call
ORACLE_FACTORIES = (
    ("statabft.cli", "planted_step_oracle"),
    ("statabft.cli", "norm_distortion_oracle"),
)


def _owner(module, attr):
    owner = importlib.import_module(module)
    if "." in attr:
        cls, attr = attr.split(".")
        owner = getattr(owner, cls)
    return owner, attr


def _oracle_factory(tracer, factory):
    @functools.wraps(factory)
    def make(*args, **kwargs):
        return tracer.wrap(factory(*args, **kwargs), "calibration.oracle")

    return make


@contextlib.contextmanager
def instrument(tracer):
    saved = []
    try:
        for module, attr, name, before, after in PROBES:
            owner, attr = _owner(module, attr)
            raw = owner.__dict__[attr]
            if isinstance(raw, classmethod):
                new = classmethod(tracer.wrap(raw.__func__, name, before, after))
            else:
                new = tracer.wrap(raw, name, before, after)
            saved.append((owner, attr, raw))
            setattr(owner, attr, new)
        for module, attr in ORACLE_FACTORIES:
            owner, attr = _owner(module, attr)
            raw = owner.__dict__[attr]
            saved.append((owner, attr, raw))
            setattr(owner, attr, _oracle_factory(tracer, raw))
        yield tracer
    finally:
        for owner, attr, raw in reversed(saved):
            setattr(owner, attr, raw)


# --- per-layer metrics -----------------------------------------------------


def _covered(intervals, lo, hi):
    """Length of the union of intervals, clipped to [lo, hi]."""
    total, cur_lo, cur_hi = 0.0, None, None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans):
    children = defaultdict(list)
    for sid, name, start, end, parent, *_ in spans:
        children[parent].append((start, end))
    return {
        sid: (end - start) - _covered(children.get(sid, ()), start, end)
        for sid, name, start, end, *_ in spans
    }


def layer_metrics(tracer):
    """Per-layer metrics of one traced invocation (names match BENCHMARK.json)."""
    spans = tracer.spans
    own = self_times(spans)
    names = {s[0]: s[1] for s in spans}
    calls = Counter(s[1] for s in spans)
    layer_self = defaultdict(float)
    span_self = defaultdict(float)
    inclusive = defaultdict(float)
    write_s = 0.0
    for sid, name, start, end, parent, *_ in spans:
        layer_self[name.split(".")[0]] += own[sid]
        span_self[name] += own[sid]
        inclusive[name] += end - start
        if name == "cli.write" and names.get(parent) != "cli.write":
            write_s += end - start
    c = tracer.counts
    gemms = calls["gemm.gemm"]
    energy_wall = inclusive["energy.sweep_detectors"] + inclusive["energy.compare_detectors"]
    return {
        "faults.self_s": layer_self["faults"],
        "faults.uniform_self_s": span_self["faults.inject_uniform"],
        "faults.bits_drawn": c["faults.bits_drawn"],
        "faults.flips": c["faults.flips"],
        "faults.bits_flipped": c["faults.bits_flipped"],
        "faults.flip_yield": c["faults.flips"] / c["faults.bits_drawn"] if c["faults.bits_drawn"] else 0.0,
        "rng.u64_drawn": c["rng.u64_drawn"],
        "rng.self_s": layer_self["rng"],
        "gemm.calls": gemms,
        "gemm.macs": c["gemm.macs"],
        "gemm.self_s": layer_self["gemm"],
        "gemm.useful_frac": len(tracer.inputs) / gemms if gemms else 0.0,
        "workloads.calls": calls["workloads.workload_matrices"],
        "workloads.self_s": layer_self["workloads"],
        "detectors.pairs": calls["detectors.from_vectors"],
        "detectors.evaluate_calls": calls["detectors.evaluate"],
        "detectors.msd_calls": calls["detectors.msd"],
        "detectors.self_s": layer_self["detectors"],
        "systolic.calls": calls["systolic.run_array"],
        "systolic.self_s": layer_self["systolic"],
        "systolic.stat_unit_s": inclusive["systolic.statistical_unit"],
        "energy.self_s": layer_self["energy"],
        "energy.overlap": inclusive["energy.score_stream"] / energy_wall if energy_wall else 0.0,
        "calibration.cells": c["calibration.cells"],
        "calibration.oracle_calls": calls["calibration.oracle"],
        "calibration.oracle_s": inclusive["calibration.oracle"],
        "calibration.self_s": layer_self["calibration"],
        "config.parse_s": inclusive["config.load_config"],
        "cli.write_s": write_s,
        "trace.spans": len(spans),
    }


# metrics that are counts: they must repeat exactly across traced invocations
COUNT_METRICS = (
    "faults.bits_drawn", "faults.flips", "faults.bits_flipped", "faults.flip_yield", "rng.u64_drawn",
    "gemm.calls", "gemm.macs", "gemm.useful_frac", "workloads.calls",
    "detectors.pairs", "detectors.evaluate_calls", "detectors.msd_calls",
    "systolic.calls", "calibration.cells", "calibration.oracle_calls", "trace.spans",
)
