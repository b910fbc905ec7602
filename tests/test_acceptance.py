"""Acceptance checks: one test per release criterion.

Every test prints a single summary line (visible with pytest -s or in
captured output on failure) stating the measured quantity, the elapsed
time against its budget, and PASS or FAIL. Statistical criteria use
frozen seeds, so results are reproducible run to run.
"""

import time

import numpy as np
import pytest

from conftest import binarize_group
from hbq import (
    QuantConfig,
    bit_report,
    build_calib_stats,
    decode_layer,
    dequantize_layer,
    encode_layer,
    hbllm_quantize,
)
from hbq.cli import AB_CANDIDATE_COUNTS, run
from hbq.errors import IntegrityError
from hbq.grouping import compute_ciq, quantize_lines
from hbq.haar import Axis, haar_fwd_rows, haar_inv_rows


@pytest.fixture(scope="module", autouse=True)
def _warm_kernels():
    # one tiny layer through calibration, the planner and compensation
    # first, so any one-time cost of a first call (BLAS and LAPACK set-up,
    # first allocations) stays out of the timed budgets; nothing compiles
    rng = np.random.default_rng(0)
    w = rng.normal(size=(4, 16)).astype(np.float32)
    hbllm_quantize(w, np.eye(16, dtype=np.float32), beta=8)


def _report(num, name, ok, detail, elapsed, budget):
    status = "PASS" if ok and elapsed < budget else "FAIL"
    print(
        f"criterion {num:02d} {name}: {detail} "
        f"time={elapsed:.2f}s/{budget:g}s {status}"
    )
    assert ok, detail
    assert elapsed < budget


def test_criterion_01_transform_roundtrip_and_energy():
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    v = rng.normal(size=(1000, 128)).astype(np.float32)
    c = haar_fwd_rows(v)
    back = haar_inv_rows(c)
    rt = float(np.max(np.abs(back.astype(np.float64) - v.astype(np.float64))))
    ev = np.sum(v.astype(np.float64) ** 2, axis=1)
    ec = 2.0 * np.sum(c.astype(np.float64) ** 2, axis=1)
    energy = float(np.max(np.abs(ev - ec) / ev))
    elapsed = time.perf_counter() - t0
    ok = rt <= 1e-6 and energy <= 1e-6
    _report(1, "transform exactness", ok,
            f"roundtrip={rt:.2e} energy_rel={energy:.2e}", elapsed, 1.0)


def test_criterion_02_binarizer_scale_optimality():
    t0 = time.perf_counter()
    rng = np.random.default_rng(102)
    worst = -np.inf
    for _ in range(500):
        size = int(rng.integers(1, 13))
        v = rng.normal(scale=float(rng.uniform(0.2, 3.0)), size=size)
        mu = float(np.mean(v))
        _, _, sse = binarize_group(v, mu)
        # exhaustive scale grid; signs are forced to sign(v - mu) for any
        # positive scale, so sweeping alpha alone covers the search space
        dev = np.abs(v - mu)
        grid = np.arange(0.0, float(dev.max()) + 1e-4, 1e-4)
        grid_sse = float(np.min(((dev[None, :] - grid[:, None]) ** 2).sum(axis=1)))
        worst = max(worst, sse - grid_sse)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-6
    _report(2, "binarizer optimality", ok,
            f"max(analytic-grid)={worst:.2e} over 500 groups", elapsed, 5.0)


def test_criterion_03_candidate_search_dominance():
    from conftest import structured_rows

    t0 = time.perf_counter()
    rng = np.random.default_rng(103)
    rows = structured_rows(rng, 200, 128)

    sse = {}
    for count in AB_CANDIDATE_COUNTS:  # nested grids: 14, 40, 79, 157
        plans = quantize_lines(rows, QuantConfig(n_candidates=count))
        sse[count] = plans.sse[:, 0] + plans.sse[:, 1]
    mono = (
        np.all(sse[40] <= sse[14])
        and np.all(sse[79] <= sse[40])
        and np.all(sse[157] <= sse[79])
    )

    w_t = quantize_lines(rows, QuantConfig()).weights()
    w_r = quantize_lines(rows, QuantConfig(haar_enabled=False)).weights()
    r64 = rows.astype(np.float64)
    err_t = np.sum((r64 - w_t) ** 2, axis=1)
    err_r = np.sum((r64 - w_r) ** 2, axis=1)
    wins = int(np.sum(err_t <= err_r))

    elapsed = time.perf_counter() - t0
    ok = bool(mono) and wins >= 180
    _report(3, "candidate search dominance", ok,
            f"nested_monotonic={bool(mono)} four_group_wins={wins}/200",
            elapsed, 30.0)


def test_criterion_04_shared_mean_storage_delta():
    t0 = time.perf_counter()
    rng = np.random.default_rng(104)
    w = rng.normal(size=(4, 256)).astype(np.float32)
    x = rng.normal(size=(256, 64)).astype(np.float32)
    reports = {}
    for share in (True, False):
        cfg = QuantConfig(share_mean=share, k_candidates=(0,))
        q = hbllm_quantize(w.copy(), x, beta=128, cfg=cfg)
        reports[share] = bit_report(q)
    delta = (
        reports[False].avg_bits_per_weight - reports[True].avg_bits_per_weight
    )
    elapsed = time.perf_counter() - t0
    ok = delta == 0.25
    _report(4, "shared-mean storage delta", ok,
            f"delta={delta!r} bits/weight (exact)", elapsed, 1.0)


def test_criterion_05_compensation_benefit(monkeypatch):
    import hbq.pipeline as pipeline

    t0 = time.perf_counter()
    wins = 0
    for seed in range(200):
        rng = np.random.default_rng(seed)
        w = rng.normal(size=(64, 64)).astype(np.float32)
        x = rng.normal(size=(64, 256)).astype(np.float32)
        calib = build_calib_stats(x)
        # beta=16 so the layer spans several blocks; a single block would
        # leave no tail columns for the update to act on
        q_on = hbllm_quantize(w.copy(), x, beta=16, calib=calib)
        with monkeypatch.context() as m:
            m.setattr(pipeline, "compensate", lambda *args: None)
            q_off = hbllm_quantize(w.copy(), x, beta=16, calib=calib)
        w64 = w.astype(np.float64)
        x64 = x.astype(np.float64)
        e_on = np.linalg.norm((w64 - dequantize_layer(q_on)) @ x64)
        e_off = np.linalg.norm((w64 - dequantize_layer(q_off)) @ x64)
        wins += e_on <= e_off
    elapsed = time.perf_counter() - t0
    ok = wins >= 190
    _report(5, "compensation benefit", ok,
            f"wins={wins}/200 (need >=190)", elapsed, 120.0)


def test_criterion_06_reconstruction_level_bounds():
    t0 = time.perf_counter()
    cfg = QuantConfig(k_candidates=(0,))
    worst_block = 0
    for seed in range(50):
        rng = np.random.default_rng(seed)
        w = rng.normal(size=(64, 128)).astype(np.float32)
        x = rng.normal(size=(128, 256)).astype(np.float32)
        q = hbllm_quantize(w, x, beta=128, cfg=cfg)
        deq = dequantize_layer(q)
        worst_block = max(worst_block, int(compute_ciq(deq).max()))

    rng = np.random.default_rng(99)
    w = rng.normal(size=(64, 4096)).astype(np.float32)
    x = rng.normal(size=(4096, 512)).astype(np.float32)
    q = hbllm_quantize(w, x, beta=128, cfg=cfg)
    worst_layer = int(compute_ciq(dequantize_layer(q)).max())

    elapsed = time.perf_counter() - t0
    ok = worst_block <= 32 and worst_layer <= 1024
    _report(6, "distinct-level bounds", ok,
            f"block_max={worst_block}/32 layer_max={worst_layer}/1024",
            elapsed, 60.0)


def _dyadic_two_level_block(rng, n, width):
    # transform bands holding two dyadic values in equal counts: pooled
    # mean and every deviation are then binary16-exact under any split
    grid = np.array(
        [-1.5, -1.25, -0.75, -0.5, -0.25, 0.25, 0.5, 0.75, 1.25, 1.5]
    )
    half = width // 2
    coeffs = np.empty((n, width), dtype=np.float32)
    for i in range(n):
        for lo in (0, half):
            a, b = rng.choice(grid, size=2, replace=False)
            vals = np.full(half, np.float32(a))
            vals[: half // 2] = np.float32(b)
            rng.shuffle(vals)
            coeffs[i, lo : lo + half] = vals
    low, high = coeffs[:, :half], coeffs[:, half:]
    w = np.empty_like(coeffs)
    w[:, 0::2] = low + high
    w[:, 1::2] = low - high
    return w


def test_criterion_07_end_to_end_fixed_point():
    t0 = time.perf_counter()
    rng = np.random.default_rng(107)
    w = np.hstack([_dyadic_two_level_block(rng, 16, 16) for _ in range(4)])
    x = np.eye(64, dtype=np.float32)
    q = hbllm_quantize(w.copy(), x, beta=16)
    err = q.diagnostics["total_error"]
    exact = np.array_equal(dequantize_layer(q), w)
    elapsed = time.perf_counter() - t0
    ok = err <= 1e-4 and exact
    _report(7, "fixed-point reconstruction", ok,
            f"frobenius={err:.2e} bit_exact={exact}", elapsed, 5.0)


def test_criterion_08_container_integrity():
    t0 = time.perf_counter()
    rng = np.random.default_rng(108)
    modes = (Axis.ROW, Axis.COL)
    stable = corrupt_ok = report_ok = 0
    for i in range(100):
        n = int(rng.choice([2, 4, 6, 8]))
        beta = int(rng.choice([8, 16]))
        m = beta * int(rng.integers(1, 4))
        cfg = QuantConfig(
            share_mean=bool(rng.integers(0, 2)),
            haar_enabled=bool(rng.integers(0, 2)),
            k_candidates=(0,) if rng.integers(0, 2) else (0, 2),
        )
        w = rng.normal(size=(n, m)).astype(np.float32)
        x = rng.normal(size=(m, 2 * m)).astype(np.float32)
        q = hbllm_quantize(w, x, beta=beta, mode=modes[i % 2], cfg=cfg)
        blob = encode_layer(q)
        stable += encode_layer(decode_layer(blob)) == blob

        bad = bytearray(blob)
        pos = int(rng.integers(0, len(bad)))
        bad[pos] ^= int(rng.integers(1, 256))
        try:
            decode_layer(bytes(bad))
        except IntegrityError:
            corrupt_ok += 1

        r = bit_report(q)
        payload = (len(blob) - 32 - 2 * len(cfg.k_candidates) - 4) * 8
        report_ok += abs(r.total_bits - payload) <= 0.01 * payload
    elapsed = time.perf_counter() - t0
    ok = stable == 100 and corrupt_ok == 100 and report_ok == 100
    _report(8, "container integrity", ok,
            f"reencode={stable}/100 corruption_caught={corrupt_ok}/100 "
            f"report_within_1pct={report_ok}/100", elapsed, 30.0)


def test_criterion_09_determinism(tmp_path, capsys):
    t0 = time.perf_counter()
    w = tmp_path / "w.rts"
    x = tmp_path / "x.rts"
    assert run(["gen", "--rows", "16", "--cols", "64", "--seed", "5",
                "--out", str(w)]) == 0
    assert run(["gen", "--rows", "64", "--cols", "128", "--seed", "6",
                "--out", str(x)]) == 0
    outs = []
    for name in ("a.hbq", "b.hbq"):
        out = tmp_path / name
        assert run(["quantize", str(w), str(x), "--out", str(out),
                    "--beta", "16"]) == 0
        outs.append(out.read_bytes())
    capsys.readouterr()  # drop gen/quantize chatter before the summary line
    identical = outs[0] == outs[1]
    elapsed = time.perf_counter() - t0
    _report(9, "determinism", identical,
            f"byte_identical={identical} ({len(outs[0])} bytes)",
            elapsed, 10.0)


def test_criterion_10_salient_selection_efficacy():
    t0 = time.perf_counter()
    good = 0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        w = rng.normal(size=(64, 128)).astype(np.float32)
        w[:, int(rng.integers(0, 128))] *= 50.0
        x = rng.normal(size=(128, 256)).astype(np.float32)
        q = hbllm_quantize(w, x, beta=128)
        diag = q.diagnostics["per_block"][0]
        good += (
            diag["chosen_k"] >= 2
            and diag["error"] <= diag["trial_errors"][0]
        )
    elapsed = time.perf_counter() - t0
    ok = good >= 95
    _report(10, "salient selection efficacy", ok,
            f"outlier_isolated={good}/100 (need >=95)", elapsed, 60.0)
