"""The numpy kernels against the scalar reference in reference_kernels.py.

They must agree bit for bit, not merely to tolerance: the reference scan
defines the bits a container stores, and the batched planner must store
the same ones however its lines are chunked."""

import numpy as np

import reference_kernels as R
from hbq import _kernels as K
from hbq.config import nearest_rank, percentile_levels


def _ranks(nvals, n_candidates=40):
    return np.array(
        [nearest_rank(lv, nvals) for lv in percentile_levels(n_candidates)],
        dtype=np.int64,
    )


def _assert_f16_round_agrees(vals):
    # the vectorized rounder stores the scalar reference's bits, sign of
    # zero included
    vals = np.asarray(vals, np.float64)
    want = np.array([R.f16_round(float(v)) for v in vals])
    assert K.f16_round(vals).tobytes() == want.tobytes()


def test_f16_round_matches_numpy_on_random_values():
    rng = np.random.default_rng(0)
    exps = rng.uniform(-8, 6, size=20000)
    vals = np.sign(rng.normal(size=20000)) * 10.0**exps
    with np.errstate(over="ignore"):
        for v in vals:
            want = float(np.float16(v))
            assert R.f16_round(float(v)) == want
    _assert_f16_round_agrees(vals)


def test_f16_round_matches_numpy_on_tie_midpoints():
    # exact midpoints between adjacent binary16 values exercise the
    # ties-to-even branch
    rng = np.random.default_rng(1)
    base = rng.normal(scale=100.0, size=2000).astype(np.float16)
    nxt = np.nextafter(base, np.float16(np.inf), dtype=np.float16)
    ok = np.isfinite(base) & np.isfinite(nxt) & (base != nxt)
    mids = (base[ok].astype(np.float64) + nxt[ok].astype(np.float64)) / 2.0
    for v in mids:
        assert R.f16_round(float(v)) == float(np.float16(v))
    _assert_f16_round_agrees(mids)


def test_f16_round_edge_cases():
    edges = (0.0, -0.0, 65504.0, 65520.0, 1e9, -1e9, 6e-8, -6e-8, 5.96e-8)
    for v in edges:
        got = R.f16_round(v)
        with np.errstate(over="ignore"):
            want = float(np.float16(v))
        assert got == want or (np.isnan(got) and np.isnan(want))
        if v == 0.0 or v == -0.0:
            assert np.copysign(1.0, got) == np.copysign(1.0, v)
    _assert_f16_round_agrees(edges)


def test_haar_kernels_bitwise_identical():
    rng = np.random.default_rng(2)
    for n, d in [(1, 2), (7, 64), (64, 128), (3, 1000)]:
        m = rng.normal(size=(n, d)).astype(np.float32) * 3.7
        fwd_ref = R.haar_fwd_rows(m)
        fwd = K.haar_fwd_rows(m)
        assert np.array_equal(fwd_ref, fwd)
        inv_ref = R.haar_inv_rows(fwd_ref)
        inv = K.haar_inv_rows(fwd)
        assert np.array_equal(inv_ref, inv)


def _trial_lines(rng, kind, n, d):
    if kind == "plateau":
        base = rng.normal(size=(n, max(d // 4, 1)))
        return np.repeat(base, 4, axis=1)[:, :d].astype(np.float32)
    scale = rng.choice([1e-4, 1.0, 1e4])
    lines = (rng.normal(size=(n, d)) * scale).astype(np.float32)
    if kind == "spiky":
        lines[:, rng.integers(0, d)] *= 50.0
    return np.ascontiguousarray(lines)


def _assert_same_bits(got, want, ctx):
    # np.array_equal treats -0.0 == 0.0 as equal; stored binary16 does not
    assert got.dtype == want.dtype, ctx
    assert got.shape == want.shape, ctx
    assert got.tobytes() == want.tobytes(), ctx


def _assert_matches_reference(lines, split, share, n_candidates=40):
    d = lines.shape[1]
    r0 = _ranks(split, n_candidates)
    r1 = _ranks(d - split, n_candidates) if split < d else np.zeros(0, np.int64)
    out_ref = R.plan_lines(lines, split, r0, r1, share)
    out = K.plan_lines(lines, split, r0, r1, share)
    for got, want in zip(out_ref, out):
        _assert_same_bits(got, want, (d, split, share))
    return out


def test_plan_lines_backends_bitwise_identical():
    # split == d plans raw lines as one band, odd widths included
    rng = np.random.default_rng(3)
    cases = []
    for d in (2, 3, 4, 8, 33, 64, 128):
        for split in sorted({d // 2 if d >= 4 and d % 2 == 0 else d, d}):
            for kind in ("gauss", "plateau", "spiky"):
                for share in (True, False):
                    cases.append((d, split, kind, share))
    for d, split, kind, share in cases:
        n = int(rng.integers(1, 6))
        lines = _trial_lines(rng, kind, n, d)
        _assert_matches_reference(lines, split, share)


def test_plan_lines_all_overflow_falls_back_identically():
    # every candidate's deviation scale exceeds the binary16 maximum, so
    # no candidate can win; planner and reference must emit the same zeroed plan
    # with infinite sse (callers reject it before anything is stored)
    lines = np.array([[4e5, -5e5, 3e5, -2e5]], dtype=np.float32)
    r0 = _ranks(4)
    for share in (True, False):
        out_ref = R.plan_lines(lines, 4, r0, np.zeros(0, np.int64), share)
        out = K.plan_lines(lines, 4, r0, np.zeros(0, np.int64), share)
        for got, want in zip(out_ref, out):
            _assert_same_bits(got, want, share)
        thr_idx, _thr, mu_sp, mu_de, al_sp, al_de, sse, _sp, signs, recon = out_ref
        assert thr_idx[0, 0] == 0
        assert mu_sp[0, 0] == 0.0 and mu_de[0, 0] == 0.0
        assert al_sp[0, 0] == 0.0 and al_de[0, 0] == 0.0
        assert np.isinf(sse[0, 0])
        assert np.all(recon == 0.0)
        assert np.array_equal(signs[0], np.array([1, -1, 1, -1], np.int8))


def test_plan_lines_partial_overflow_picks_same_finite_candidate():
    # thresholds that isolate the two big values overflow binary16 and
    # must be skipped by planner and reference; wider sparse groups stay finite
    lines = np.array(
        [[99000.0, -99000.0, 50.0, -50.0, 25.0, -25.0, 10.0, -10.0]],
        dtype=np.float32,
    )
    r0 = _ranks(8)
    for share in (True, False):
        out_ref = R.plan_lines(lines, 8, r0, np.zeros(0, np.int64), share)
        out = K.plan_lines(lines, 8, r0, np.zeros(0, np.int64), share)
        for got, want in zip(out_ref, out):
            _assert_same_bits(got, want, share)
        sse, recon = out_ref[6], out_ref[9]
        assert np.isfinite(sse[0, 0])
        assert np.any(recon != 0.0)


def test_plan_lines_across_chunk_boundaries(monkeypatch):
    # shrink the batch budget to 5 lines per 8-wide band so 23 lines
    # cross four chunk boundaries, the last chunk a partial one
    monkeypatch.setattr(K, "_CHUNK_VALUES", 5 * 40 * 8)
    rng = np.random.default_rng(4)
    for kind in ("gauss", "plateau", "spiky"):
        lines = _trial_lines(rng, kind, 23, 16)
        for share in (True, False):
            _assert_matches_reference(lines, 8, share)


def test_plan_lines_mixed_overflow_lines_in_one_batch():
    # an all-overflow line between finite ones: its zeroed fallback plan
    # must not leak into the neighbouring lines of the same batch
    rng = np.random.default_rng(5)
    all_over = [4e5, -5e5, 3e5, -2e5, 4e5, -5e5, 3e5, -2e5]
    partial = [99000.0, -99000.0, 50.0, -50.0, 25.0, -25.0, 10.0, -10.0]
    lines = np.array(
        [rng.normal(size=8), all_over, partial, rng.normal(size=8) * 1e-4,
         all_over],
        dtype=np.float32,
    )
    for split in (8, 4):
        for share in (True, False):
            out = _assert_matches_reference(lines, split, share)
            sse = out[6]
            assert np.all(np.isinf(sse[[1, 4], 0]))
            assert np.all(np.isfinite(sse[[0, 3], 0]))
            if split == 8:
                assert np.isfinite(sse[2, 0])
            r0 = _ranks(split)
            r1 = _ranks(8 - split) if split < 8 else np.zeros(0, np.int64)
            for i in range(lines.shape[0]):
                alone = K.plan_lines(lines[i : i + 1], split, r0, r1, share)
                for got, want in zip(out, alone):
                    _assert_same_bits(got[i], want[0], (i, split, share))


def test_plan_lines_signed_zero_and_mean_overflow_bitwise():
    # The reference sums start from +0.0, so a band of -0.0 values has mean
    # +0.0 there; the stored binary16 mean is 0x0000, never 0x8000. A band
    # whose mean overflows binary16 gets the zeroed fallback in both.
    # Each line is planned alone and between ordinary lines.
    rng = np.random.default_rng(6)
    cases = {
        "all -0.0": [-0.0] * 8,
        "mixed +-0.0": [-0.0, -0.0, -0.0, -0.0, 0.0, -0.0, 3.0, -1.5],
        "mean overflows binary16": [7e4] * 8,
    }
    for name, values in cases.items():
        line = np.array([values], dtype=np.float32)
        batch = np.vstack([rng.normal(size=(2, 8)), line, rng.normal(size=(1, 8))])
        for lines, row in ((line, 0), (batch.astype(np.float32), 2)):
            for split in (8, 4):
                for share in (True, False):
                    out = _assert_matches_reference(lines, split, share)
                    if name == "mean overflows binary16":
                        assert np.isinf(out[6][row, 0])


def test_plan_lines_sse_is_the_in_order_sum():
    # With one line and one candidate only the summed axis is left, where a
    # numpy reduce would sum pairwise. sse must still be the in-order f64
    # sum, from 0.0, of the squared errors of the returned reconstruction.
    rng = np.random.default_rng(7)
    lines = rng.normal(size=(3, 64)).astype(np.float32)
    for n_lines in (1, 3):
        for n_candidates in (1, 40):
            for share in (True, False):
                out = K.plan_lines(
                    lines[:n_lines], 64, _ranks(64, n_candidates),
                    np.zeros(0, np.int64), share,
                )
                for i in range(n_lines):
                    want = 0.0
                    for a, b in zip(lines[i], out[9][i]):
                        d = np.float64(a) - np.float64(b)
                        want += d * d
                    _assert_same_bits(out[6][i, :1], np.array([want]), (i, share))


def test_plan_lines_wide_dynamic_range_line_bitwise():
    # Six decades in one line: a sum that slips into float32 anywhere in
    # the reference scan stores a different binary16 mean.
    rng = np.random.default_rng(7)
    line = rng.normal(size=64) * 10.0 ** rng.uniform(-3, 3, 64)
    lines = line.astype(np.float32).reshape(1, 64)
    for share in (True, False):
        _assert_matches_reference(lines, 64, share, n_candidates=1)
