"""End-to-end acceptance suite.

One test per acceptance criterion, each printing a single pass/fail line
(run with -s to see them inline). The checks are scaled-down quantitative
versions of the package's headline behaviors; the whole file is budgeted to
run in well under ten minutes on a laptop.
"""

import json
import math
import os

import numpy as np
import pytest

from statabft.calibration import (
    DEFAULT_FREQ_AXIS,
    DEFAULT_MAG_AXIS,
    fit_critical_region,
    planted_step_oracle,
    quality_grid,
)
from statabft.cli import main
from statabft.detectors import (
    DEFAULT_PARAMS,
    ChecksumPair,
    DetectorSpec,
    detect_statistical,
    theta_mag,
)
from statabft.energy import EnergyConfig, compare_detectors, sweep_detectors
from statabft.faults import FaultConfig, default_table, inject_uniform
from statabft.gemm import AccumMatrix, checksum, gemm, predicted_output_checksum
from statabft.rng import derive_seed, u64_stream
from statabft.verify import run_check
from statabft.workloads import WorkloadSpec, random_quant_matrix

P = DEFAULT_PARAMS  # a=2, b=40, theta_freq=4


def report(num: int, name: str, ok: bool, detail: str = "") -> bool:
    line = f"criterion {num:02d} {name}: {'PASS' if ok else 'FAIL'}"
    if detail and not ok:
        line += f"  ({detail})"
    print(line)
    return ok


@pytest.fixture(scope="module")
def default_sweep():
    """One voltage sweep over the full synthetic table, shared by criteria 9-10."""
    spec = WorkloadSpec(m=64, k=64, n=64, gemm_count=200, seed=0)
    detectors = (
        DetectorSpec(kind="classical"),
        DetectorSpec(kind="statistical", params=P),
    )
    table = default_table()
    voltages = [float(v) for v in table.voltages]
    return voltages, sweep_detectors(
        spec, detectors, FaultConfig(mode="ber"), voltages, EnergyConfig(table=table)
    )


def test_criterion_01_checksum_identity():
    bad = 0
    for c in range(1000):
        s = derive_seed(0, 11, c)
        dims = [int(v % np.uint64(64)) + 1 for v in u64_stream(s, 3)]
        m, k, n = dims
        w = random_quant_matrix(m, k, "uniform", derive_seed(s, 0))
        x = random_quant_matrix(k, n, "uniform", derive_seed(s, 1))
        if checksum(gemm(w, x), "row") != predicted_output_checksum(w, x):
            bad += 1
    assert report(1, "checksum identity (1000 GEMMs)", bad == 0, f"{bad} mismatches")


def test_criterion_03_single_bit_flip_exhaustion():
    w = random_quant_matrix(8, 8, "uniform", 301)
    x = random_quant_matrix(8, 8, "uniform", 302)
    y = gemm(w, x)
    predicted = predicted_output_checksum(w, x)
    missed = 0
    nonconservative = 0
    for r in range(8):
        for c in range(8):
            for bit in range(32):
                data = y.data.copy()
                v = int(data[r, c]) & 0xFFFFFFFF
                v ^= 1 << bit
                data[r, c] = v - 2**32 if v >= 2**31 else v
                pair = ChecksumPair.from_vectors(
                    predicted, checksum(AccumMatrix(data), "row")
                )
                cl = DetectorSpec(kind="classical").evaluate(pair)
                st = detect_statistical(pair, P)
                if not cl.recovers:
                    missed += 1
                if st.recovers and not cl.recovers:
                    nonconservative += 1
    ok = missed == 0 and nonconservative == 0
    assert report(
        3,
        "single-bit-flip exhaustion (2048 flips)",
        ok,
        f"{missed} undetected, {nonconservative} non-conservative",
    )


def test_criterion_04_stat_unit_oracle_equivalence():
    exact = run_check("stat-unit-reference", 10_000, seed=13)
    band = run_check("lzc-agreement-band", 10_000, seed=13)
    ok = exact.passed and band.passed
    assert report(
        4,
        "stat-unit oracle equivalence (10k pairs)",
        ok,
        exact.detail or band.detail,
    )


def test_criterion_05_theta_mag_analytics():
    exact_points = (
        theta_mag(2**20, P) == 20.0
        and theta_mag(1, P) == 40.0
        and math.isinf(theta_mag(0, P))
    )
    msds = sorted({2**k for k in range(0, 49)} | {3 * 2**k for k in range(0, 46)})
    thetas = [theta_mag(m, P) for m in msds]
    monotone = all(b < a for a, b in zip(thetas, thetas[1:]))
    ok = exact_points and monotone
    assert report(5, "theta_mag closed form and monotonicity", ok)


def test_criterion_06_uniform_msd_relation():
    zero = AccumMatrix(np.zeros((16, 16), dtype=np.int32))
    base = checksum(zero, "row")
    bad = 0
    for i in range(8):
        for j in range(8):
            freq, mag = 2**i, 2 ** (4 + j)
            cfg = FaultConfig(mode="uniform", freq=freq, mag=mag, seed=derive_seed(14, i, j))
            corrupted, events = inject_uniform(zero, cfg)
            pair = ChecksumPair.from_vectors(base, checksum(corrupted, "row"))
            if pair.msd() != freq * mag or len(events) != freq:
                bad += 1
    assert report(6, "uniform injection MSD = freq x mag (8x8 grid)", bad == 0)


def test_criterion_07_planted_calibration_recovery():
    oracle = planted_step_oracle(P)
    worst = (0.0, 0.0)
    bad = 0
    for seed in range(20):
        grid = quality_grid(
            oracle,
            DEFAULT_MAG_AXIS,
            DEFAULT_FREQ_AXIS,
            epsilon=0.5,
            trials=1,
            seed=seed,
        )
        fit = fit_critical_region(grid)
        da, db = abs(fit.a - P.a), abs(fit.b - P.b)
        worst = (max(worst[0], da), max(worst[1], db))
        if da > 0.1 or db > 1.0 or fit.theta_freq != P.theta_freq:
            bad += 1
    assert report(
        7,
        "planted calibration recovery (20 seeds)",
        bad == 0,
        f"worst |da|={worst[0]:.4f} |db|={worst[1]:.4f}",
    )


def test_criterion_08_normalization_amplification():
    from statabft.resilience import NormPipelineConfig, norm_amplification

    golden = {
        "layer_norm": (0.999755859375, 316.0177839311933),
        "rms_norm": (1.0, 393.4086859920963),
        "none": (0.000244140625, 82446.39825255991),
    }
    results = {
        kind: norm_amplification(
            NormPipelineConfig(norm_kind=kind, seed=0),
            error_mag=float(2**15),
            error_index=100,
        )
        for kind in golden
    }
    thresholds = (
        results["layer_norm"].changed_fraction > 0.9
        and results["rms_norm"].changed_fraction > 0.5
        and results["none"].changed_fraction == 1.0 / 4096.0
    )
    frozen = all(
        results[kind].changed_fraction == golden[kind][0]
        and results[kind].max_rel_change == pytest.approx(golden[kind][1], rel=1e-12)
        for kind in golden
    )
    ok = thresholds and frozen
    assert report(8, "normalization amplification (error 2^15)", ok)


def test_criterion_09_recovery_rate_reduction(default_sweep):
    table = default_table()
    v = 0.63
    ber = table.ber_at(v)
    lam = ber * 64 * 64 * 16  # expected flips per GEMM in the upper-half window
    in_band = 1.0 <= lam <= float(P.theta_freq)

    spec = WorkloadSpec(m=64, k=64, n=64, gemm_count=1000, seed=0)
    rows = {
        r.detector: r
        for r in compare_detectors(
            spec,
            (DetectorSpec(kind="classical"), DetectorSpec(kind="statistical", params=P)),
            FaultConfig(mode="ber", ber=ber, seed=1),
        )
    }
    rates_ok = (
        rows["classical"].recovery_rate > 0.5
        and rows["statistical"].recovery_rate < 0.05
    )

    voltages, results = default_sweep
    cl = {p.voltage: p for p in results["classical"].points}
    st = {p.voltage: p for p in results["statistical"].points}
    pointwise = all(st[v].energy_total <= cl[v].energy_total + 1e-9 for v in voltages)
    opt_v = results["statistical"].optimum.voltage
    strict_at_opt = st[opt_v].energy_total < cl[opt_v].energy_total
    ok = in_band and rates_ok and pointwise and strict_at_opt
    assert report(
        9,
        "recovery-rate reduction at matched voltage",
        ok,
        f"lambda={lam:.3f} classical={rows['classical'].recovery_rate:.3f} "
        f"statistical={rows['statistical'].recovery_rate:.3f}",
    )


def test_criterion_10_energy_sweet_spot(default_sweep):
    voltages, results = default_sweep
    v_hi, v_lo = max(voltages), min(voltages)
    cl_opt = results["classical"].optimum
    st_opt = results["statistical"].optimum
    interior = v_lo < cl_opt.voltage < v_hi
    ordered = st_opt.voltage <= cl_opt.voltage
    ok = interior and ordered
    assert report(
        10,
        "interior energy sweet spot",
        ok,
        f"classical opt {cl_opt.voltage:.2f}, statistical opt {st_opt.voltage:.2f}",
    )


def test_criterion_11_deterministic_outputs(tmp_path):
    cfg_doc = {
        "workload": {"m": 16, "k": 16, "n": 16, "gemm_count": 20, "seed": 5},
        "fault": {"mode": "ber", "ber": 0.0002, "seed": 7},
        "sweep": {"voltages": [0.9, 0.76, 0.62]},
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(cfg_doc))

    outputs = {"compare": [], "sweep": []}
    for run in range(2):
        for cmd, fname in (("compare", "detectors.csv"), ("sweep", "sweep.csv")):
            out_dir = str(tmp_path / f"{cmd}{run}")
            rc = main(["--config", str(cfg_path), "--out", out_dir, cmd])
            assert rc == 0
            with open(os.path.join(out_dir, fname), "rb") as fh:
                outputs[cmd].append(fh.read())
    ok = (
        outputs["compare"][0] == outputs["compare"][1]
        and outputs["sweep"][0] == outputs["sweep"][1]
        and len(outputs["compare"][0]) > 0
        and len(outputs["sweep"][0]) > 0
    )
    assert report(11, "byte-identical compare/sweep outputs", ok)
