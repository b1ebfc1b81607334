import argparse
import csv
import errno
import hashlib
import json
import math
import os
import subprocess
import sys
import threading
from dataclasses import replace

import numpy as np
import pytest

from statabft import energy, faults, verify
from statabft.calibration import QualityGrid
from statabft.cli import build_parser, grid_to_csv, main
from statabft.detectors import load_params


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


SMALL_WORKLOAD = {"m": 8, "k": 16, "n": 8, "gemm_count": 12}


def test_verify_passes(capsys):
    rc = main(["verify", "--cases", "40"])
    assert rc == 0
    assert capsys.readouterr().out == (
        "checksum-identities       cases=40     PASS\n"
        "stat-unit-reference       cases=40     PASS\n"
        "event-replay              cases=25     PASS\n"
        "uniform-msd-relation      cases=40     PASS\n"
        "ber-table-interpolation   cases=40     PASS\n"
        "lzc-agreement-band        cases=40     PASS\n"
        "sparse-evidence           cases=25     PASS\n"
        "all 7 checks passed\n"
    )


def test_verify_planted_failure_exits_one(monkeypatch, capsys):
    broken = lambda s, c: "row identity broken"
    planted = tuple(
        replace(k, test=broken) if k.name == "checksum-identities" else k for k in verify.CHECKS
    )
    monkeypatch.setattr(verify, "CHECKS", planted)
    rc = main(["verify", "--cases", "20"])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.out.splitlines()[0] == (
        "checksum-identities       cases=1      FAIL  (row identity broken at case 0)"
    )
    assert "failed" in captured.err


def test_parser_has_no_hidden_option():
    # a test hook must not come back as an option that --help does not show
    parser = build_parser()
    subparsers = next(
        a for a in parser._actions if isinstance(a, argparse._SubParsersAction)
    ).choices.values()
    for p in (parser, *subparsers):
        hidden = [a.option_strings for a in p._actions if a.help == argparse.SUPPRESS]
        assert not hidden, f"{p.prog}: {hidden}"


def test_verify_report_file(tmp_path, capsys):
    out_dir = str(tmp_path / "report")
    rc = main(["--out", out_dir, "verify", "--cases", "20"])
    assert rc == 0
    report = os.path.join(out_dir, "verify_report.csv")
    assert os.path.exists(report)
    with open(report) as fh:
        rows = list(csv.DictReader(fh))
    assert all(r["passed"] == "1" for r in rows)
    assert os.path.exists(os.path.join(out_dir, "resolved_config.json"))


def test_missing_config_is_exit_two(capsys):
    rc = main(["--config", "/nonexistent/config.json", "verify"])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_invalid_config_is_exit_two(tmp_path, capsys):
    cfg = write_config(tmp_path, {"fault": {"ber": 2.0}})
    rc = main(["--config", cfg, "compare"])
    assert rc == 2
    assert "fault.ber" in capsys.readouterr().err


def test_nan_lzc_bound_is_exit_two_with_one_error_line(tmp_path, capsys):
    # the params pass config, but the LZC bound's inf - inf is NaN: one error line, no warning
    params = {"a": 1e308, "b": 1e308, "theta_freq": 0}
    cfg = write_config(
        tmp_path, {"detector": {"params": params}, "sweep": {"detectors": ["statistical_lzc"]}}
    )
    assert main(["--config", cfg, "--out", str(tmp_path / "out"), "compare"]) == 2
    assert capsys.readouterr().err == (
        "error: the LZC bound of CriticalRegionParams(a=1e+308, b=1e+308, theta_freq=0) is NaN\n"
    )


def test_negative_seed_is_exit_two(capsys):
    rc = main(["--seed", "-1", "verify"])
    assert rc == 2
    assert "--seed" in capsys.readouterr().err


def test_calibrate_writes_grid_and_params(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        {
            "calibrate": {
                "oracle": "planted",
                "trials": 2,
                "freq_axis": [1, 2, 4, 8, 16, 32],
                "mag_log2_axis": [14.0, 15.0, 16.0, 17.0, 18.0, 19.0],
            }
        },
    )
    out_dir = str(tmp_path / "cal")
    rc = main(["--config", cfg, "--out", out_dir, "calibrate"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "fitted a=" in out and "theta_freq=4" in out

    params, provenance = load_params(os.path.join(out_dir, "params.json"))
    assert params.a > 1.0
    assert params.theta_freq == 4
    assert provenance.startswith("statabft ")
    assert "oracle=planted" in provenance

    with open(os.path.join(out_dir, "grid.csv")) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 6 * 6
    assert {r["acceptable"] for r in rows} == {"0", "1"}


def test_grid_csv_renders_every_cell_freq_major():
    # ten significant digits, integer freqs and 0/1 acceptability from the grid's np.bool_ mask
    grid = QualityGrid(
        freq_axis=[1, 4],
        mag_log2_axis=[3.0, 12.25],
        quality=[[1 / 3, 1e-12], [12345.678901234, 2.0]],
        epsilon=0.5,
    )
    assert isinstance(grid.acceptable[0, 0], np.bool_)
    assert grid_to_csv(grid) == (
        "freq,mag_log2,quality,acceptable\n"
        "1,3,0.3333333333,1\n"
        "1,12.25,1e-12,1\n"
        "4,3,12345.6789,0\n"
        "4,12.25,2,0\n"
    )


def test_calibrate_no_boundary_is_exit_one(tmp_path, capsys):
    # boundary far above the calibrated magnitude window: all acceptable
    cfg = write_config(
        tmp_path,
        {
            "calibrate": {
                "oracle": "planted",
                "trials": 1,
                "freq_axis": [1, 2, 4],
                "mag_log2_axis": [1.0, 2.0],
            }
        },
    )
    rc = main(["--config", cfg, "--out", str(tmp_path / "o"), "calibrate"])
    assert rc == 1
    assert "experiment failed" in capsys.readouterr().err


def test_compare_outputs(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        {
            "workload": SMALL_WORKLOAD,
            "fault": {"mode": "ber", "ber": 0.004},
        },
    )
    out_dir = str(tmp_path / "cmp")
    rc = main(["--config", cfg, "--out", out_dir, "compare"])
    out = capsys.readouterr().out
    assert rc == 0
    with open(os.path.join(out_dir, "detectors.csv")) as fh:
        rows = list(csv.DictReader(fh))
    assert [r["detector"] for r in rows] == ["none", "classical", "statistical", "dmr"]
    assert all(r["trials"] == "12" for r in rows)
    for r in rows:
        assert 0.0 <= float(r["recovery_rate"]) <= 1.0
    assert "recovery_rate=" in out


def test_compare_json_format(tmp_path):
    cfg = write_config(
        tmp_path,
        {"workload": SMALL_WORKLOAD, "output": {"format": "json"}},
    )
    out_dir = str(tmp_path / "cmpj")
    rc = main(["--config", cfg, "--out", out_dir, "compare"])
    assert rc == 0
    with open(os.path.join(out_dir, "detectors.json")) as fh:
        docs = json.load(fh)
    assert len(docs) == 4
    assert {d["detector"] for d in docs} == {"none", "classical", "statistical", "dmr"}


def test_format_flag_overrides_config(tmp_path):
    cfg = write_config(tmp_path, {"workload": SMALL_WORKLOAD})
    out_dir = str(tmp_path / "fmt")
    rc = main(["--config", cfg, "--out", out_dir, "--format", "json", "compare"])
    assert rc == 0
    assert os.path.exists(os.path.join(out_dir, "detectors.json"))
    assert not os.path.exists(os.path.join(out_dir, "detectors.csv"))


def sweep_config(tmp_path):
    return write_config(
        tmp_path,
        {
            "workload": dict(SMALL_WORKLOAD, gemm_count=6),
            "sweep": {"voltages": [0.9, 0.8]},
        },
    )


def test_sweep_outputs(tmp_path, capsys):
    out_dir = str(tmp_path / "sweep")
    rc = main(["--config", sweep_config(tmp_path), "--out", out_dir, "sweep"])
    out = capsys.readouterr().out
    assert rc == 0
    with open(os.path.join(out_dir, "sweep.csv")) as fh:
        rows = list(csv.DictReader(fh))
    # 4 detectors x 2 voltages plus one optimum row per detector
    assert len(rows) == 4 * 2 + 4
    optima = [r for r in rows if r["detector"].endswith("_optimum")]
    assert len(optima) == 4
    with open(os.path.join(out_dir, "sweep_summary.csv")) as fh:
        summary = list(csv.DictReader(fh))
    assert [r["detector"] for r in summary] == ["none", "classical", "statistical", "dmr"]
    assert "energy_saving_vs_classical" in summary[0]
    assert "optimum v=" in out


def test_sweep_deterministic_across_runs_and_threads(tmp_path, monkeypatch):
    def start(self):
        raise AssertionError("the sweep started a thread")

    texts = []
    for i in range(2):
        if i:  # the second run forbids thread starts: the sweep scores serially
            monkeypatch.setattr(threading.Thread, "start", start)
        out_dir = str(tmp_path / f"sweep{i}")
        rc = main(["--config", sweep_config(tmp_path), "--out", out_dir, "sweep"])
        assert rc == 0
        with open(os.path.join(out_dir, "sweep.csv")) as fh:
            texts.append(fh.read())
    assert texts[0] == texts[1]


def test_sweep_rejects_uniform_faults(tmp_path, capsys):
    # the sweep draws BER faults from the voltage table, so a uniform fault
    # config would be silently ignored; compare still takes it
    cfg = write_config(
        tmp_path,
        {
            "workload": dict(SMALL_WORKLOAD, gemm_count=2),
            "fault": {"mode": "uniform", "freq": 5, "mag": 100},
        },
    )
    assert main(["--config", cfg, "--out", str(tmp_path / "sweep"), "sweep"]) == 2
    assert "fault.mode" in capsys.readouterr().err
    assert not (tmp_path / "sweep").exists()
    assert main(["--config", cfg, "--out", str(tmp_path / "cmp"), "compare"]) == 0


class ClosedPipe:
    """A stdout whose reader has gone, as when the output is piped into head."""

    def __init__(self, fd):
        self.fd = fd

    def write(self, text):
        raise BrokenPipeError(errno.EPIPE, "Broken pipe")

    def flush(self):
        pass

    def fileno(self):
        return self.fd


def test_closed_stdout_exits_141_silently(tmp_path, capsys, monkeypatch):
    fd = os.open(tmp_path / "stdout", os.O_WRONLY | os.O_CREAT)
    try:
        monkeypatch.setattr(sys, "stdout", ClosedPipe(fd))
        rc = main(["--config", sweep_config(tmp_path), "--out", str(tmp_path / "s"), "sweep"])
    finally:
        os.close(fd)
    assert rc == 141
    assert capsys.readouterr().err == ""


def test_seed_override_changes_results(tmp_path):
    cfg = write_config(
        tmp_path, {"workload": SMALL_WORKLOAD, "fault": {"mode": "ber", "ber": 0.004}}
    )
    outputs = {}
    for seed in ("3", "3", "4"):
        out_dir = str(tmp_path / f"seed{seed}-{len(outputs)}")
        rc = main(["--config", cfg, "--seed", seed, "--out", out_dir, "compare"])
        assert rc == 0
        with open(os.path.join(out_dir, "detectors.csv")) as fh:
            outputs[out_dir] = fh.read()
    texts = list(outputs.values())
    assert texts[0] == texts[1]
    assert texts[0] != texts[2]


def test_inject_stdout_json(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        {"workload": SMALL_WORKLOAD, "fault": {"mode": "ber", "ber": 0.02, "seed": 1}},
    )
    rc = main(["--config", cfg, "inject", "--index", "2"])
    out = capsys.readouterr().out
    assert rc == 0
    doc = json.loads(out)
    assert doc["gemm_index"] == 2
    assert doc["shape"] == {"m": 8, "k": 16, "n": 8}
    assert len(doc["predicted_checksum"]) == 8
    assert len(doc["diff"]) == 8
    assert set(doc["verdicts"]) == {"none", "classical", "statistical", "dmr"}
    for v in doc["verdicts"].values():
        assert v["decision"] in ("pass", "recover")
    if doc["events"]:
        e = doc["events"][0]
        assert set(e) == {"row", "col", "before", "after", "flipped_bits"}


def test_inject_file_output(tmp_path, capsys):
    cfg = write_config(tmp_path, {"workload": SMALL_WORKLOAD})
    out_dir = str(tmp_path / "inj")
    rc = main(["--config", cfg, "--out", out_dir, "inject"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "wrote" in out
    with open(os.path.join(out_dir, "inject.json")) as fh:
        doc = json.load(fh)
    assert doc["gemm_index"] == 0


def test_output_dir_covers_calibrate_compare_and_sweep_only(tmp_path, monkeypatch, capsys):
    # verify and inject write files only under --out, as README's --out paragraph says
    monkeypatch.chdir(tmp_path)
    cfg = write_config(tmp_path, {"output": {"dir": "mine"}})
    assert main(["--config", cfg, "verify", "--cases", "5"]) == 0
    assert main(["--config", cfg, "inject", "--index", "1"]) == 0
    assert sorted(os.listdir(tmp_path)) == ["config.json"]
    assert main(["--config", cfg, "compare"]) == 0
    assert os.path.exists(tmp_path / "mine" / "detectors.csv")


def test_inject_index_out_of_range(tmp_path, capsys):
    cfg = write_config(tmp_path, {"workload": dict(SMALL_WORKLOAD, gemm_count=2)})
    rc = main(["--config", cfg, "inject", "--index", "5"])
    assert rc == 2
    assert "--index" in capsys.readouterr().err


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("statabft ")


def test_missing_subcommand_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_resolved_config_echo_contents(tmp_path):
    cfg = write_config(tmp_path, {"workload": SMALL_WORKLOAD, "fault": {"voltage": 0.8}})
    out_dir = str(tmp_path / "echo")
    rc = main(["--config", cfg, "--out", out_dir, "--seed", "42", "compare"])
    assert rc == 0
    with open(os.path.join(out_dir, "resolved_config.json")) as fh:
        echo = json.load(fh)
    assert echo["command"] == "compare"
    assert echo["config"]["workload"]["seed"] == 42
    assert echo["config"]["fault"]["seed"] == 42
    # voltage was translated to a concrete BER before the echo
    assert echo["config"]["fault"]["ber"] > 0


def test_stock_echo_layout(tmp_path):
    out_dir = str(tmp_path / "echo")
    assert main(["--out", out_dir, "compare"]) == 0
    with open(os.path.join(out_dir, "resolved_config.json")) as fh:
        config = json.load(fh)["config"]
    # the sections in JSON order, each with its keys in the order of its dataclass fields
    assert [(section, list(keys)) for section, keys in config.items()] == [
        ("workload", ["m", "k", "n", "gemm_count", "distribution", "seed"]),
        ("fault", ["mode", "ber", "bit_window", "mag", "freq", "seed"]),
        ("detector", ["params", "msd_threshold", "provenance"]),
        ("energy", ["v_nom", "e_mac_nom", "detect_overhead", "table"]),
        ("sweep", ["voltages", "detectors"]),
        ("calibrate", ["oracle", "epsilon", "trials", "freq_axis", "mag_log2_axis", "planted",
                       "norm_kind", "target_rows", "target_cols"]),
        ("output", ["dir", "format"]),
    ]
    # the detector kind is no setting; the params' provenance is echoed in its place
    assert "kind" not in config["detector"] and config["detector"]["provenance"] == ""


# sha256 of the stock result tables at seed 0; a change that alters a table on
# purpose updates its digest here and says why
STOCK_DIGESTS = {
    ("sweep", "sweep.csv"):
        "a8fb38cd4b88e834d2f105074fd501a19022ce436b57ddeeecb81a6ae3b2ab72",
    ("sweep", "sweep_summary.csv"):
        "0b08351930aefa240550eac92b677e59ec9e77c5514e65dd0aa279c0a6b381da",
    ("compare", "detectors.csv"):
        "48ab98c935c69d0795ba2ffb2a05611abe3af3fc5044d6b277ed1b2752ff4fa8",
    ("calibrate", "grid.csv"):
        "b788508b93756ebc1e35f7feff8df94eaa9df5590b9b84aa463c8ae2024426e8",
    ("sweep", "resolved_config.json"):
        "29550009b8143bb380b6bfe97da5ee86753b4b069b5533ae4c686b021c0960e2",
}


def test_stock_tables_keep_their_digests(tmp_path):
    for command in ("sweep", "compare", "calibrate"):
        assert main(["--seed", "0", "--out", str(tmp_path / command), command]) == 0
    digests = {
        (command, name): hashlib.sha256((tmp_path / command / name).read_bytes()).hexdigest()
        for command, name in STOCK_DIGESTS
    }
    assert digests == STOCK_DIGESTS


# sha256 of the JSON files at seed 0: the tables under --format json and
# inject's dump, pinned like STOCK_DIGESTS
JSON_DIGESTS = {
    ("sweep", "sweep.json"):
        "54d714676303d4346eafd1abef54bf32e1ba30055c68509706cf33942e877635",
    ("sweep", "sweep_summary.json"):
        "5e3eff5f90d29fe06de5ce664f154a3c79047cfa0f739454165e1d8d9f9e970d",
    ("compare", "detectors.json"):
        "b5d76ffe8474d79c9c22c533252384c670165cf26433d834d7533e33b57cd3c8",
    ("inject", "inject.json"):
        "c6d3c7693fff6a8b8b3aac147337ec5a613245992f9460942ef491645fe94112",
}


def test_stock_json_outputs_keep_their_digests(tmp_path, capsys):
    for command in ("sweep", "compare"):
        out = str(tmp_path / command)
        assert main(["--seed", "0", "--format", "json", "--out", out, command]) == 0
    assert main(["--seed", "0", "--out", str(tmp_path / "inject"), "inject", "--index", "3"]) == 0
    digests = {
        (command, name): hashlib.sha256((tmp_path / command / name).read_bytes()).hexdigest()
        for command, name in JSON_DIGESTS
    }
    assert digests == JSON_DIGESTS


def test_sweep_voltage_above_v_nom_exits_two_before_scoring(tmp_path, capsys, monkeypatch):
    calls = []
    monkeypatch.setattr(energy, "_score_stream", lambda *args: calls.append(args))
    cfg = write_config(tmp_path, {"energy": {"v_nom": 0.8}})
    assert main(["--config", cfg, "--out", str(tmp_path / "sw"), "sweep"]) == 2
    assert capsys.readouterr().err == "error: voltage must be in (0, 0.8], got 0.9\n"
    assert calls == [] and not (tmp_path / "sw").exists()
    # compare reads no voltage, so the same config still runs it
    monkeypatch.undo()
    assert main(["--config", cfg, "--out", str(tmp_path / "cmp"), "compare"]) == 0


def _run_child(code, **kwargs):
    """``python -c code`` with statabft importable from this checkout."""
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    return subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, **kwargs
    )


def _loaded_by_cli_import(module):
    out = _run_child(f"import sys, statabft.cli; print({module!r} in sys.modules)")
    assert out.returncode == 0, out.stderr
    return out.stdout.strip() == "True"


def test_cli_import_does_not_load_jsonschema():
    assert not _loaded_by_cli_import("jsonschema")


def test_cli_import_does_not_load_concurrent_futures():
    # the sweep scores its voltages serially; nothing imports an executor
    assert not _loaded_by_cli_import("concurrent.futures")


CONFIGS = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "configs")


@pytest.mark.parametrize(
    "argv",
    [
        ["calibrate"],
        ["--config", os.path.join(CONFIGS, "calibrate_planted.json"), "calibrate"],
        ["compare"],
        ["--config", os.path.join(CONFIGS, "compare_deep.json"), "compare"],
        ["sweep"],
    ],
    ids=["calibrate", "calibrate_planted", "compare", "compare_deep", "sweep"],
)
def test_no_command_imports_numpy_ma(tmp_path, argv):
    # numpy.ma costs a cold run about 24 ms at its first import (np.unique, for one, imports it)
    argv = ["--out", str(tmp_path)] + argv
    code = (
        f"import sys, statabft.cli; rc = statabft.cli.main({argv!r}); "
        "print(rc, 'numpy.ma' in sys.modules)"
    )
    out = _run_child(code)
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines()[-1] == "0 False"


def test_inject_runs_no_dense_gemm_and_matches_the_dense_oracle(tmp_path, capsys, monkeypatch):
    from statabft.energy import stream
    from statabft.faults import FaultConfig
    from statabft.systolic import run_array
    from statabft.workloads import WorkloadSpec, workload_matrices

    def dense(*args, **kwargs):
        raise AssertionError("inject ran a dense GEMM")

    spec = WorkloadSpec(**SMALL_WORKLOAD)
    for doc, fault in (
        ({"mode": "ber", "ber": 0.02, "bit_window": [0, 31], "seed": 1},
         FaultConfig(mode="ber", ber=0.02, bit_window=(0, 31), seed=1)),
        ({"mode": "uniform", "freq": 40, "mag": 2**31 - 1, "seed": 1},
         FaultConfig(mode="uniform", freq=40, mag=2**31 - 1, seed=1)),
    ):
        cfg = write_config(tmp_path, {"workload": SMALL_WORKLOAD, "fault": doc})
        modules = [m for n, m in sys.modules.items() if n.split(".")[0] == "statabft"]
        with monkeypatch.context() as patched:
            # every name the dense product can be reached by, in every loaded module
            for module in modules:
                for name in ("gemm", "run_array"):
                    if hasattr(module, name):
                        patched.setattr(module, name, dense)
            assert main(["--config", cfg, "inject", "--index", "3"]) == 0
        got = json.loads(capsys.readouterr().out)
        w, x = workload_matrices(spec, 3)
        sim = run_array(w, x, fault=replace(fault, seed=int(stream(spec, fault, [3])[1][0])))
        assert got["events"] and len(got["events"]) == len(sim.events)
        assert got["observed_checksum"] == sim.observed.data.tolist()
        assert got["predicted_checksum"] == sim.predicted.data.tolist()
        assert "cycles" not in got


def test_inject_index_t_is_compares_trial_t(tmp_path, capsys):
    from statabft.config import load_config
    from statabft.detectors import ChecksumPair
    from statabft.energy import stream
    from statabft.faults import corruption

    kinds = ["none", "classical", "msd", "statistical", "statistical_lzc", "dmr"]
    path = write_config(tmp_path, {
        "workload": SMALL_WORKLOAD,
        "fault": {"ber": 0.003, "seed": 3},
        "sweep": {"detectors": kinds},
    })
    cfg = load_config(path)
    n = cfg.workload.gemm_count
    recoveries = dict.fromkeys(kinds, 0)
    trials = stream(cfg.workload, cfg.fault, range(n))
    diffs = corruption(cfg.workload.m, cfg.workload.n, *trials, cfg.fault).diff()
    for t, diff in enumerate(diffs):
        pair = ChecksumPair.from_diff(diff)
        assert main(["--config", path, "inject", "--index", str(t)]) == 0
        got = json.loads(capsys.readouterr().out)
        assert got["diff"] == pair.diff.tolist()
        for spec in cfg.detector_specs():
            v = spec.evaluate(pair)
            seen = got["verdicts"][spec.kind]
            assert list(seen) == ["msd", "theta_mag", "freq_eff", "decision"]
            theta = math.inf if seen["theta_mag"] == "inf" else seen["theta_mag"]
            assert (seen["msd"], theta, seen["freq_eff"], seen["decision"]) == (
                v.msd, v.theta_mag, v.freq_eff, "recover" if v.recovers else "pass"
            )
            recoveries[spec.kind] += seen["decision"] == "recover"
    out_dir = str(tmp_path / "cmp")
    assert main(["--config", path, "--out", out_dir, "compare"]) == 0
    with open(os.path.join(out_dir, "detectors.csv")) as fh:
        rates = {r["detector"]: float(r["recovery_rate"]) for r in csv.DictReader(fh)}
    for kind in kinds:
        assert rates[kind] * n == pytest.approx(recoveries[kind], abs=1e-6)
    # not vacuous: classical passes a trial, and statistical recovers some but fewer
    assert 0 < recoveries["statistical"] < recoveries["classical"] < n


def test_inject_takes_every_trial_the_default_sweep_scores(capsys):
    # the default sweep scores GEMMs 0..199; inject --index 150 is trial 150 of compare
    from statabft.config import ExperimentConfig
    from statabft.energy import stream
    from statabft.faults import corruption

    assert main(["inject", "--index", "150"]) == 0
    got = json.loads(capsys.readouterr().out)
    cfg = ExperimentConfig()
    spec, fault = cfg.workload, cfg.fault
    diffs = corruption(spec.m, spec.n, *stream(spec, fault, range(spec.gemm_count)), fault).diff()
    assert got["diff"] == diffs[150].tolist()
    assert main(["inject", "--index", "200"]) == 2
    assert "--index must be in [0, 200)" in capsys.readouterr().err


def test_compare_sweep_and_inject_build_trials_through_one_builder(tmp_path, monkeypatch):
    from statabft import cli, energy

    built = []
    real = energy.stream

    def spy(spec, fault, trials):
        built.extend(np.asarray(trials).tolist())
        return real(spec, fault, trials)

    monkeypatch.setattr(energy, "stream", spy)
    monkeypatch.setattr(cli, "stream", spy)
    cfg = write_config(tmp_path, {"workload": SMALL_WORKLOAD, "sweep": {"voltages": [0.9, 0.7]}})
    n = SMALL_WORKLOAD["gemm_count"]
    for command, indices in (("compare", range(n)), ("sweep", range(n)), ("inject", [5])):
        built.clear()
        extra = ["--index", "5"] if command == "inject" else []
        assert main(["--config", cfg, "--out", str(tmp_path / command), command, *extra]) == 0
        assert built == list(indices), command


@pytest.mark.parametrize("command", ["compare", "sweep"])
@pytest.mark.parametrize("gemm_count", [10**8, 2**62])
def test_stream_over_the_lane_bound_exits_two(tmp_path, capsys, command, gemm_count):
    # 10**8 x 64 lanes are over the 2**24-lane cap: exit 2 before any trial is scored
    cfg = write_config(tmp_path, {"workload": {"gemm_count": gemm_count}})
    assert main(["--config", cfg, "--out", str(tmp_path / "out"), command]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: workload.gemm_count: ") and "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_compare_over_the_flip_bound_exits_two(tmp_path, capsys, monkeypatch):
    # 2**28 expected flips in one GEMM; refused before the sampler draws
    def no_draw(*args):
        raise AssertionError("drew")

    monkeypatch.setattr(faults, "u64_stream", no_draw)
    workload = {"m": 4096, "n": 4096, "k": 1, "gemm_count": 1}
    cfg = write_config(tmp_path, {"workload": workload, "fault": {"ber": 1.0}})
    assert main(["--config", cfg, "compare"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ber 1 over 268435456 candidate bits expects ")
    assert "Traceback" not in err


def test_uniform_compare_over_the_element_bound_exits_two(tmp_path, capsys, monkeypatch):
    # 2**24 priorities per GEMM; refused when the config loads, before any draw
    def no_draw(*args):
        raise AssertionError("drew")

    monkeypatch.setattr(faults, "u64_stream", no_draw)
    workload = {"m": 4096, "n": 4096, "k": 1, "gemm_count": 1}
    fault = {"mode": "uniform", "freq": 1, "mag": 1}
    cfg = write_config(tmp_path, {"workload": workload, "fault": fault})
    assert main(["--config", cfg, "--out", str(tmp_path / "out"), "compare"]) == 2
    err = capsys.readouterr().err
    assert err == (
        "error: fault.mode: must make workload.m * workload.n <= 1048576 for uniform injection, "
        "got 16777216\n"
    )
    assert not (tmp_path / "out").exists()


def test_uniform_compare_at_the_element_bound_runs(tmp_path, capsys):
    # a 1024 x 1024 output is 2**20 elements, exactly one block of priorities
    workload = {"m": 1024, "n": 1024, "k": 1, "gemm_count": 1}
    fault = {"mode": "uniform", "freq": 3, "mag": 5}
    cfg = write_config(tmp_path, {"workload": workload, "fault": fault})
    assert main(["--config", cfg, "--out", str(tmp_path / "out"), "compare"]) == 0
    rows = {r["detector"]: r for r in csv.DictReader(open(tmp_path / "out" / "detectors.csv"))}
    assert float(rows["classical"]["recovery_rate"]) == 1.0
    assert float(rows["none"]["mean_msd"]) == 15.0


def test_calibrate_target_over_the_size_bound_exits_two(tmp_path, capsys):
    # 10**12 elements per trial: one clean matrix alone would take 4 TB
    cfg = write_config(tmp_path, {"calibrate": {"target_rows": 10**6, "target_cols": 10**6}})
    assert main(["--config", cfg, "--out", str(tmp_path / "out"), "calibrate"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: calibrate.target_rows: must make target_rows * target_cols <= 1048576")
    assert "Traceback" not in err and not (tmp_path / "out").exists()


def test_sweep_scores_statistical_lzc_beside_statistical(tmp_path):
    cfg = write_config(
        tmp_path,
        {"workload": dict(SMALL_WORKLOAD, gemm_count=8),
         "sweep": {"detectors": ["classical", "statistical", "statistical_lzc"]}},
    )
    out_dir = str(tmp_path / "sw")
    assert main(["--config", cfg, "--out", out_dir, "sweep"]) == 0
    with open(os.path.join(out_dir, "sweep_summary.csv")) as fh:
        rows = {r["detector"]: r for r in csv.DictReader(fh)}
    assert list(rows) == ["classical", "statistical", "statistical_lzc"]


def test_sweep_step_finer_than_voltage_rounding_exits_two_at_once(tmp_path):
    # v - 1e-300 == v in floats, so stepping down from v_max never ended; run in
    # a child process, so that a hang fails this test instead of stalling the suite
    cfg = write_config(tmp_path, {"sweep": {"v_min": 0.6, "v_max": 0.9, "v_step": 1e-300}})
    args = ["--config", cfg, "--out", str(tmp_path / "out"), "sweep"]
    code = (
        "import time, statabft.cli; t = time.perf_counter(); "
        f"rc = statabft.cli.main({args!r}); print(rc, time.perf_counter() - t)"
    )
    out = _run_child(code, timeout=60)
    rc, elapsed = out.stdout.split()
    assert rc == "2" and float(elapsed) < 1.0
    assert out.stderr.startswith("error: sweep.v_step: ") and "Traceback" not in out.stderr
    assert not (tmp_path / "out").exists()


def test_duplicate_sweep_voltages_exit_two(tmp_path, capsys):
    cfg = write_config(tmp_path, {"sweep": {"voltages": [0.7, 0.8, 0.7]}})
    rc = main(["--config", cfg, "--out", str(tmp_path / "out"), "sweep"])
    assert rc == 2
    assert "sweep.voltages: must be distinct" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
