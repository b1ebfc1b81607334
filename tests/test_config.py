import inspect
import json
import math
import os
import re
from dataclasses import fields, is_dataclass
from typing import get_type_hints

import numpy as np
import pytest

from statabft import faults
from statabft.calibration import (
    DEFAULT_FREQ_AXIS,
    DEFAULT_MAG_AXIS,
    CalibrationSettings,
    norm_distortion_oracle,
    quality_grid,
)
from statabft.cli import main
from statabft.config import (
    ConfigError,
    ExperimentConfig,
    load_config,
    override_seed,
    parse_config,
    resolved_dict,
)
from statabft.detectors import DEFAULT_PARAMS, CriticalRegionParams, save_params
from statabft.energy import sweep_detectors, total_energy
from statabft.faults import default_table
from statabft.verify import run_checks


def test_empty_config_gives_stock_experiment():
    cfg = parse_config({})
    assert cfg.workload.m == cfg.workload.k == cfg.workload.n == 64
    assert cfg.workload.gemm_count == 200
    assert cfg.workload.distribution == "uniform"
    assert cfg.fault.mode == "ber" and cfg.fault.ber == 1e-6
    assert cfg.fault.bit_window == (16, 31)
    assert cfg.detector.params == DEFAULT_PARAMS
    assert cfg.energy.v_nom == 0.9
    assert cfg.sweep.voltages == ()
    assert cfg.sweep.detectors == ("none", "classical", "statistical", "dmr")
    assert cfg.calibrate.freq_axis == DEFAULT_FREQ_AXIS
    assert cfg.calibrate.mag_log2_axis == DEFAULT_MAG_AXIS
    assert cfg.output.dir == "out" and cfg.output.format == "csv"
    # without explicit sweep voltages, the table's own rows drive the sweep
    assert cfg.voltages() == tuple(float(v) for v in cfg.energy.table.voltages)


def test_library_defaults_are_their_sections_defaults():
    # an entry point's default is its config section's default, or there is none
    stock = ExperimentConfig()
    cal = stock.calibrate
    homes = {
        ("quality_grid", "trials"): cal.trials,
        ("quality_grid", "seed"): stock.workload.seed,
        ("norm_distortion_oracle", "norm_kind"): cal.norm_kind,
    }
    found = []
    for fn in (quality_grid, norm_distortion_oracle, sweep_detectors, total_energy, run_checks):
        for name, p in inspect.signature(fn).parameters.items():
            if p.default is inspect.Parameter.empty:
                continue
            found.append((fn.__name__, name))
            if name == "clean_factory":
                # the all-zero stack of the section's target
                stack = p.default(np.zeros(2, dtype=np.uint64))
                assert stack.shape == (2, cal.target_rows, cal.target_cols) and not stack.any()
            else:
                assert p.default == homes.get((fn.__name__, name), "no home")
    assert sorted(found) == sorted([*homes, ("quality_grid", "clean_factory")])


def _same(x, y) -> bool:
    """Field-by-field equality of nested dataclasses, comparing numpy arrays by value."""
    if is_dataclass(x):
        pairs = ((getattr(x, f.name), getattr(y, f.name)) for f in fields(x))
        return type(x) is type(y) and all(_same(a, b) for a, b in pairs)
    return np.array_equal(x, y) if isinstance(x, np.ndarray) else x == y


def test_every_section_default_is_its_class_called_with_no_arguments():
    # a section's stock values live on its own dataclass, not in ExperimentConfig
    hints = get_type_hints(ExperimentConfig)
    stock = ExperimentConfig()
    sections = [f.name for f in fields(stock) if is_dataclass(hints[f.name])]
    assert sections == ["workload", "fault", "detector", "energy", "sweep", "calibrate", "output"]
    for name in sections:
        assert _same(getattr(stock, name), hints[name]()), name


def test_sweep_trials_is_the_workload_gemm_count():
    # the benchmark harness reads cfg.sweep_trials; it is no setting of its own
    assert ExperimentConfig().sweep_trials == ExperimentConfig().workload.gemm_count == 200
    cfg = parse_config({"workload": {"gemm_count": 37}})
    assert cfg.sweep_trials == 37
    with pytest.raises(AttributeError):
        cfg.sweep_trials = 5
    assert "trials" not in resolved_dict(cfg)["sweep"]


def test_unknown_keys_rejected_everywhere():
    with pytest.raises(ConfigError, match="<root>"):
        parse_config({"wrkload": {}})
    with pytest.raises(ConfigError, match="workload"):
        parse_config({"workload": {"rows": 4}})
    with pytest.raises(ConfigError, match="fault"):
        parse_config({"fault": {"rate": 0.1}})
    with pytest.raises(ConfigError, match="sweep"):
        parse_config({"sweep": {"volts": [0.8]}})


def test_schema_bounds_enforced():
    with pytest.raises(ConfigError, match="workload.m"):
        parse_config({"workload": {"m": 0}})
    with pytest.raises(ConfigError, match="fault.ber"):
        parse_config({"fault": {"ber": 1.5}})
    with pytest.raises(ConfigError, match="detector.params.a"):
        parse_config({"detector": {"params": {"a": 1.0, "b": 40, "theta_freq": 4}}})


def test_fault_ber_xor_voltage():
    with pytest.raises(ConfigError, match="not both"):
        parse_config({"fault": {"ber": 1e-5, "voltage": 0.8}})
    cfg = parse_config({"fault": {"voltage": 0.8}})
    expected = cfg.energy.table.ber_at(0.8)
    assert expected > 0
    assert cfg.fault.ber == pytest.approx(expected)
    with pytest.raises(ConfigError, match="fault.voltage"):
        parse_config({"fault": {"voltage": 0.3}})


def test_detector_params_inline_and_file(tmp_path):
    doc = {"detector": {"params": {"a": 1.9, "b": 38.5, "theta_freq": 3}}}
    cfg = parse_config(doc)
    assert cfg.detector.params == CriticalRegionParams(a=1.9, b=38.5, theta_freq=3)
    assert cfg.params_provenance == ""

    p = tmp_path / "params.json"
    save_params(CriticalRegionParams(a=2.1, b=41.0, theta_freq=5), str(p), "calibrated on grid 7")
    cfg2 = parse_config({"detector": {"params_file": "params.json"}}, base_dir=str(tmp_path))
    assert cfg2.detector.params == CriticalRegionParams(a=2.1, b=41.0, theta_freq=5)
    assert cfg2.params_provenance == "calibrated on grid 7"

    with pytest.raises(ConfigError, match="not both"):
        parse_config(
            {"detector": {"params": {"a": 2, "b": 40, "theta_freq": 4}, "params_file": "x"}}
        )
    with pytest.raises(ConfigError, match="no such file"):
        parse_config({"detector": {"params_file": "missing.json"}}, base_dir=str(tmp_path))


def test_table_file_resolution(tmp_path):
    table_csv = "voltage,ber\n0.9,0\n0.7,1e-6\n0.5,1e-3\n"
    (tmp_path / "table.csv").write_text(table_csv)
    cfg = parse_config({"energy": {"table_file": "table.csv"}}, base_dir=str(tmp_path))
    assert cfg.energy.table.ber_at(0.9) == 0.0
    assert cfg.energy.table.ber_at(0.5) == 1e-3
    assert cfg.voltages() == (0.9, 0.7, 0.5)

    (tmp_path / "bad.csv").write_text("voltage,ber\n0.5,1e-3\n0.9,0\n")
    with pytest.raises(ConfigError, match="table_file"):
        parse_config({"energy": {"table_file": "bad.csv"}}, base_dir=str(tmp_path))
    with pytest.raises(ConfigError, match="no such file"):
        parse_config({"energy": {"table_file": "nope.csv"}}, base_dir=str(tmp_path))


def test_sweep_voltages_explicit_and_range():
    cfg = parse_config({"sweep": {"voltages": [0.7, 0.9, 0.8]}})
    # normalized to descending order
    assert cfg.sweep.voltages == (0.9, 0.8, 0.7)
    assert cfg.voltages() == (0.9, 0.8, 0.7)

    cfg = parse_config({"sweep": {"v_min": 0.6, "v_max": 0.9, "v_step": 0.1}})
    assert cfg.sweep.voltages == (0.9, 0.8, 0.7, 0.6)

    with pytest.raises(ConfigError, match="either voltages or"):
        parse_config({"sweep": {"voltages": [0.8], "v_min": 0.6, "v_max": 0.9, "v_step": 0.1}})
    with pytest.raises(ConfigError, match="missing"):
        parse_config({"sweep": {"v_min": 0.6, "v_max": 0.9}})
    with pytest.raises(ConfigError, match="v_min"):
        parse_config({"sweep": {"v_min": 0.9, "v_max": 0.6, "v_step": 0.1}})


def test_sweep_range_counts_its_steps():
    # the stock table's rows, 20 mV apart, and a range ending off the step grid
    cfg = parse_config({"sweep": {"v_min": 0.6, "v_max": 0.9, "v_step": 0.02}})
    assert cfg.sweep.voltages == tuple(float(v) for v in default_table().voltages)
    cfg = parse_config({"sweep": {"v_min": 0.61, "v_max": 0.87, "v_step": 0.013}})
    assert cfg.sweep.voltages[-1] == 0.61 and len(cfg.sweep.voltages) == 21
    cfg = parse_config({"sweep": {"v_min": 0.6, "v_max": 0.6, "v_step": 0.5}})
    assert cfg.sweep.voltages == (0.6,)
    # the finest step allowed still gives distinct voltages
    cfg = parse_config({"sweep": {"v_min": 0.7, "v_max": 0.7 + 1e-9, "v_step": 1e-10}})
    assert cfg.sweep.voltages[:2] == (0.700000001, 0.7000000009)
    assert len(set(cfg.sweep.voltages)) == len(cfg.sweep.voltages)


def test_sweep_range_never_steps_below_v_min():
    # a step finer than the 1e-9 float allowance once gave 21 voltages, 10 below v_min
    cfg = parse_config({"sweep": {"v_min": 0.7, "v_max": 0.700000001, "v_step": 1e-10}})
    assert len(cfg.sweep.voltages) == 11
    assert min(cfg.sweep.voltages) == 0.7
    # off the step grid, the range ends at its last whole step above v_min
    cfg = parse_config({"sweep": {"v_min": 0.7, "v_max": 0.7000000012, "v_step": 1e-9}})
    assert cfg.sweep.voltages == (0.7000000012, 0.7000000002)
    # within the 1e-9 float allowance of v_min, a last voltage below it is dropped
    cfg = parse_config({"sweep": {"v_min": 0.7, "v_max": 0.7000000015, "v_step": 1e-9}})
    assert cfg.sweep.voltages == (0.7000000015, 0.7000000005)
    cfg = parse_config({"sweep": {"v_min": 0.7, "v_max": 0.700000005, "v_step": 2e-9}})
    assert cfg.sweep.voltages == (0.700000005, 0.700000003, 0.700000001)
    # a range that ends on v_min up to float error keeps v_min itself
    cfg = parse_config({"sweep": {"v_min": 0.6, "v_max": 0.9, "v_step": 0.02}})
    assert len(cfg.sweep.voltages) == 16 and cfg.sweep.voltages[-1] == 0.6


@pytest.mark.parametrize(
    "sweep, message",
    [
        ({"v_min": 0.6, "v_max": 0.9, "v_step": 0.0}, "sweep.v_step: must be > 0"),
        ({"v_min": 0.6, "v_max": 0.9, "v_step": 1e-300}, "sweep.v_step: 1e-300 is finer"),
        ({"v_min": 0.6, "v_max": 0.9, "v_step": 5e-11}, "sweep.v_step: 5e-11 is finer"),
        ({"v_min": 0.6, "v_max": 0.9, "v_step": 1e-9}, "sweep.v_step: the range gives more"),
        ({"v_min": -1.7e308, "v_max": 1.7e308, "v_step": 1.0}, "sweep.v_step: the range gives"),
        ({"voltages": [0.7, 0.7]}, r"sweep.voltages: must be distinct, got \[0.7, 0.7\]"),
    ],
)
def test_sweep_voltages_that_repeat_or_never_end_are_rejected(sweep, message):
    with pytest.raises(ConfigError, match=message):
        parse_config({"sweep": sweep})


def test_sweep_detector_set():
    cfg = parse_config({"sweep": {"detectors": ["classical", "statistical"]}})
    assert cfg.sweep.detectors == ("classical", "statistical")
    specs = cfg.detector_specs()
    assert [s.kind for s in specs] == ["classical", "statistical"]
    assert specs[1].params == DEFAULT_PARAMS
    params = {"a": 1.5, "b": 30.0, "theta_freq": 2}
    cfg = parse_config({"detector": {"params": params},
                        "sweep": {"detectors": ["statistical_lzc", "statistical"]}})
    assert [s.params for s in cfg.detector_specs()] == [CriticalRegionParams(**params)] * 2
    with pytest.raises(ConfigError, match="unique"):
        parse_config({"sweep": {"detectors": ["none", "none"]}})


def test_msd_detector_threshold_plumbed():
    cfg = parse_config({"detector": {"msd_threshold": 4096},
                        "sweep": {"detectors": ["msd"]}})
    (spec,) = cfg.detector_specs()
    assert spec.kind == "msd" and spec.msd_threshold == 4096


def test_calibrate_axes_validation():
    with pytest.raises(ConfigError, match="freq_axis"):
        parse_config({"calibrate": {"freq_axis": [1, 1, 2]}})
    with pytest.raises(ConfigError, match="mag_log2_axis"):
        parse_config({"calibrate": {"mag_log2_axis": [5.0, 4.0]}})
    # max freq must fit in the injection target, and a max below 0 gets the same message
    for axis, got in (([1, 300], 300), ([-2, -1], -1)):
        message = f"calibrate.freq_axis: must be in [0, target_rows * target_cols = 256], got {got}"
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            parse_config({"calibrate": {"freq_axis": axis, "target_rows": 16, "target_cols": 16}})
    cfg = parse_config(
        {"calibrate": {"freq_axis": [1, 300], "target_rows": 32, "target_cols": 16}}
    )
    assert cfg.calibrate.freq_axis == (1, 300)
    # each bound admits the value exactly on it
    cfg = parse_config({"calibrate": {"freq_axis": [1, 256], "target_rows": 16, "target_cols": 16}})
    assert cfg.calibrate.freq_axis == (1, 256)
    cfg = parse_config({"calibrate": {"target_rows": 1024, "target_cols": 1024}})
    assert cfg.calibrate.target_rows * cfg.calibrate.target_cols == 2**20
    cfg = parse_config({"workload": {"m": 4, "n": 4}, "fault": {"mode": "uniform", "freq": 16}})
    assert cfg.fault.freq == 16


def test_load_config_errors(tmp_path):
    with pytest.raises(ConfigError, match="not found"):
        load_config(str(tmp_path / "none.json"))
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError, match="valid JSON"):
        load_config(str(bad))
    arr = tmp_path / "arr.json"
    arr.write_text("[1, 2]")
    with pytest.raises(ConfigError, match="root"):
        load_config(str(arr))
    good = tmp_path / "good.json"
    good.write_text(json.dumps({"workload": {"m": 8, "k": 8, "n": 8}}))
    cfg = load_config(str(good))
    assert cfg.workload.m == 8


def test_override_seed_touches_both_streams():
    cfg = parse_config({"workload": {"seed": 1}, "fault": {"seed": 2}})
    out = override_seed(cfg, 77)
    assert out.workload.seed == 77
    assert out.fault.seed == 77
    # everything else untouched
    assert out.workload.m == cfg.workload.m
    assert out.detector == cfg.detector


@pytest.mark.parametrize("section", ["workload", "fault"])
def test_seeds_are_bounded_to_64_bits(section):
    # derive_seed keeps 64 bits, so a larger seed would alias a smaller one
    for bad in (2**64, 2**64 + 5, -1):
        with pytest.raises(ConfigError, match=rf"^{section}\.seed: must be in \[0, 2\*\*64\)"):
            parse_config({section: {"seed": bad}})
    cfg = parse_config({section: {"seed": 2**64 - 1}})
    assert getattr(cfg, section).seed == 2**64 - 1


def test_resolved_dict_round_trips_through_parse():
    doc = {
        "workload": {"m": 16, "k": 32, "n": 8, "gemm_count": 12, "seed": 5},
        "fault": {"mode": "ber", "ber": 2e-5, "seed": 9},
        "detector": {"params": {"a": 2.2, "b": 39.0, "theta_freq": 6}},
        "sweep": {"voltages": [0.9, 0.7]},
        "output": {"format": "json"},
    }
    cfg = parse_config(doc)
    echo = resolved_dict(cfg)
    assert echo["workload"]["m"] == 16
    assert echo["fault"]["ber"] == 2e-5
    assert echo["detector"]["params"]["a"] == 2.2
    assert echo["sweep"]["voltages"] == [0.9, 0.7]
    assert echo["workload"]["gemm_count"] == 12
    assert echo["output"]["format"] == "json"
    # the echo is JSON-serializable and reparses to the same config
    again = parse_config(
        {
            "workload": echo["workload"],
            "fault": {k: v for k, v in echo["fault"].items()},
            "detector": {
                "params": echo["detector"]["params"],
                "msd_threshold": echo["detector"]["msd_threshold"],
            },
            "sweep": {
                "voltages": echo["sweep"]["voltages"],
                "detectors": echo["sweep"]["detectors"],
            },
            "output": echo["output"],
        }
    )
    assert again.workload == cfg.workload
    assert again.fault == cfg.fault
    assert again.detector == cfg.detector
    assert again.sweep.voltages == cfg.sweep.voltages
    json.dumps(echo)


def test_experiment_config_default_constructible():
    cfg = ExperimentConfig()
    assert cfg.detector.params == DEFAULT_PARAMS
    assert len(cfg.voltages()) == 16


@pytest.mark.parametrize(
    "doc, key",
    [
        ({"workload": {"m": True}}, "workload.m"),
        ({"workload": {"m": "64"}}, "workload.m"),
        ({"workload": 3}, "workload"),
        ({"fault": {"bit_window": [16]}}, "fault.bit_window"),
        ({"fault": {"bit_window": ["a", 31]}}, "fault.bit_window"),
        ({"calibrate": {"freq_axis": 4}}, "calibrate.freq_axis"),
        ({"output": {"format": "xml"}}, "output.format"),
        ({"energy": {"v_nom": math.inf}}, "energy.v_nom: expected a finite number"),
        ({"energy": {"v_nom": 10**400}}, "energy.v_nom: expected a finite number"),
        ({"energy": {"detect_overhead": math.inf}}, "energy.detect_overhead"),
        ({"energy": {"e_mac_nom": math.inf}}, "energy.e_mac_nom"),
        ({"energy": {"detect_overhead": 1e308}}, "energy: e_mac_nom and detect_overhead overflow"),
        ({"energy": {"e_mac_nom": 1e304}}, "energy: e_mac_nom and detect_overhead overflow"),
        ({"fault": {"ber": math.nan}}, "fault.ber"),
        ({"sweep": {"voltages": [0.8, -math.inf]}}, "sweep.voltages"),
        (
            {"workload": {"m": 4, "n": 4}, "fault": {"mode": "uniform", "freq": 17}},
            "fault.freq: must be in [0, workload.m * workload.n = 16], got 17",
        ),
        (
            {"workload": {"m": 2048, "n": 1024}, "fault": {"mode": "uniform"}},
            "fault.mode: must make workload.m * workload.n <= 1048576 for uniform injection, got 2097152",
        ),
        (
            {"calibrate": {"target_rows": 1024, "target_cols": 1025}},
            "calibrate.target_rows: must make target_rows * target_cols <= 1048576 for uniform injection, "
            "got 1049600",
        ),
    ],
)
def test_json_types_rejected_at_their_key(doc, key):
    with pytest.raises(ConfigError, match=re.escape(key)):
        parse_config(doc)


def test_uniform_size_rules_follow_faults_block_lanes(monkeypatch):
    # one home: with the bound at 256 the stock 16 x 16 calibrate target sits exactly on it
    monkeypatch.setattr(faults, "BLOCK_LANES", 256)
    assert faults.uniform_positions([0], 256, 1).shape == (1, 1)
    cfg = parse_config({"workload": {"m": 16, "n": 16}, "fault": {"mode": "uniform"}})
    assert cfg.calibrate.target_rows * cfg.calibrate.target_cols == 256
    with pytest.raises(ValueError, match=r"^n must make n <= 256 for uniform injection, got 257$"):
        faults.uniform_positions([0], 257, 1)
    message = "fault.mode: must make workload.m * workload.n <= 256 for uniform injection, got 257"
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        parse_config({"workload": {"m": 1, "n": 257}, "fault": {"mode": "uniform"}})
    message = "target_rows must make target_rows * target_cols <= 256 for uniform injection, got 257"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        CalibrationSettings(target_rows=1, target_cols=257)


def test_readme_full_config_example_parses(tmp_path):
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme) as fh:
        text = fh.read()
    section = text[text.index("### Config file"):]
    doc = json.loads(section[section.index("```json") + len("```json"):section.index("\n```\n")])
    (tmp_path / doc["energy"]["table_file"]).write_text("voltage,ber\n0.9,0\n0.6,1e-4\n")
    cfg = parse_config(doc, base_dir=str(tmp_path))
    # integer JSON values are accepted on float axes and stored as floats
    assert cfg.calibrate.mag_log2_axis == (12.0, 14.0, 16.0, 18.0)
    assert cfg.detector.msd_threshold == 1048576
    assert cfg.sweep.detectors == ("classical", "statistical")


@pytest.mark.parametrize(
    "content", ['{"a": null, "b": 40, "theta_freq": 4}', '["a", "b", "theta_freq"]']
)
def test_malformed_params_file_is_a_config_error(tmp_path, content):
    (tmp_path / "params.json").write_text(content)
    with pytest.raises(ConfigError, match="detector.params_file"):
        parse_config({"detector": {"params_file": "params.json"}}, base_dir=str(tmp_path))


@pytest.mark.parametrize(
    "doc, key",
    [
        ({"detector": {"params_file": ""}}, "detector.params_file"),
        ({"energy": {"table_file": "."}}, "energy.table_file"),
    ],
    ids=["params_file", "table_file"],
)
def test_unreadable_file_exits_two_at_its_key(tmp_path, capsys, doc, key):
    # both paths name the config's own directory, which open() cannot read
    path = tmp_path / "c.json"
    path.write_text(json.dumps(doc))
    assert main(["--config", str(path), "compare"]) == 2
    assert capsys.readouterr().err.startswith(f"error: {key}: cannot read ")


def test_malformed_params_file_exits_two(tmp_path, capsys):
    (tmp_path / "params.json").write_text('{"a": null, "b": 40, "theta_freq": 4}')
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"detector": {"params_file": "params.json"}}))
    assert main(["--config", str(path), "compare"]) == 2
    assert "detector.params_file: " in capsys.readouterr().err


@pytest.mark.parametrize("key", ["a", "b"])
def test_params_too_large_for_a_float_are_rejected(key):
    params = {"a": 2.0, "b": 40, "theta_freq": 4}
    params[key] = 10**400
    with pytest.raises(ConfigError, match=f"detector.params.{key}: must be a finite number"):
        parse_config({"detector": {"params": params}})


def test_params_too_large_for_a_float_exit_two(tmp_path, capsys):
    path = tmp_path / "c.json"
    path.write_text('{"detector": {"params": {"a": 1' + "0" * 400 + ', "b": 40, "theta_freq": 4}}}')
    assert main(["--config", str(path), "compare"]) == 2
    assert "detector.params.a: must be a finite number" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["Infinity", "1e400", "1" + "0" * 400])
def test_non_finite_float_values_exit_two(tmp_path, capsys, value):
    path = tmp_path / "c.json"
    path.write_text('{"energy": {"v_nom": ' + value + "}}")
    assert main(["--config", str(path), "sweep"]) == 2
    assert "energy.v_nom: expected a finite number" in capsys.readouterr().err


def test_finite_energies_that_overflow_exit_two(tmp_path, capsys):
    path = tmp_path / "c.json"
    path.write_text('{"energy": {"detect_overhead": 1e308}}')
    assert main(["--config", str(path), "sweep"]) == 2
    assert "energy: e_mac_nom and detect_overhead overflow" in capsys.readouterr().err


@pytest.mark.parametrize(
    "doc",
    [
        {"stat_unit": {"log2_mode": "lzc"}},
        {"detector": {"kind": "statistical"}},
        {"energy": {"area_overhead": 0.0142}},
        {"sweep": {"trials": 200}},
    ],
)
def test_removed_keys_exit_two(tmp_path, capsys, doc):
    path = tmp_path / "c.json"
    path.write_text(json.dumps(doc))
    assert main(["--config", str(path), "compare"]) == 2
    assert "unknown keys" in capsys.readouterr().err


def test_zero_energy_at_the_lowest_voltage_exits_two(tmp_path, capsys):
    # (0.6 / 1e300)**2 underflows, and energy_saving would divide by the 0
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"energy": {"v_nom": 1e300}, "workload": {"gemm_count": 5}}))
    assert main(["--config", str(path), "sweep"]) == 2
    assert "energy: per-GEMM energy at the lowest sweep voltage" in capsys.readouterr().err
