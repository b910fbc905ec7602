from dataclasses import replace

import numpy as np
import pytest
from conftest import same_plans

from hbq.calib import build_calib_stats
from hbq.config import QuantConfig
from hbq.errors import ConfigError, NumericError, ShapeError
from hbq.formats import decode_layer, encode_layer
from hbq.grouping import compute_ciq, quantize_lines
from hbq.haar import Axis
from hbq.pipeline import (
    QuantizedBlock,
    QuantizedLayer,
    compensate,
    dequantize_layer,
    hbllm_quantize,
    reconstruct_block,
)
from reference_blocks import quantize_block
from hbq.salient import SalientMask, top_k_mask
from hbq.tensor import frobenius_error


def empty_mask(width):
    return SalientMask(np.zeros(width, dtype=bool))


def dyadic_two_level_block(rng, n, width):
    """Rows whose transform bands each hold two values in equal counts.

    Every threshold split then reconstructs exactly: the pooled mean sits
    halfway between the two values and every deviation equals their half
    gap, so mu and alpha are narrowing-exact and each sign lands back on
    an original value.
    """
    grid = np.array([-1.5, -1.25, -0.75, -0.5, -0.25, 0.25, 0.5, 0.75, 1.25, 1.5])
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


# --- block quantizers ---


def test_row_haarquant_empty_mask_matches_plain_rows():
    rng = np.random.default_rng(0)
    w = rng.normal(size=(6, 16)).astype(np.float32)
    cfg = QuantConfig()
    block, _ = quantize_block(w, empty_mask(16), Axis.ROW, cfg)
    plans = quantize_lines(w, cfg)
    assert block.salient_plans.lines == 0
    assert block.nonsalient_plans.lines == 6
    assert np.array_equal(block.nonsalient_plans.signs, plans.signs)
    assert np.array_equal(block.nonsalient_plans.thr_val[:, 0], plans.thr_val[:, 0])


def test_row_haarquant_crafted_block_is_exact():
    w = np.array([[2.0, 4.0, 6.0, 10.0], [1.0, 1.0, 1.0, 1.0]], dtype=np.float32)
    block, _ = quantize_block(w, empty_mask(4), Axis.ROW, QuantConfig())
    recon = reconstruct_block(block, Axis.ROW)
    assert frobenius_error(w, recon) == 0.0


def test_row_haarquant_residual_pass_beats_none_on_outlier():
    rng = np.random.default_rng(2)
    w = rng.normal(size=(64, 128)).astype(np.float32)
    w[:, 9] *= 50.0
    cfg = QuantConfig()
    scores = np.linalg.norm(w, axis=0)
    mask = top_k_mask(scores, 2)
    err_res, err_none = (
        frobenius_error(
            w, reconstruct_block(quantize_block(w, m, Axis.ROW, cfg)[0], Axis.ROW)
        )
        for m in (mask, empty_mask(128))
    )
    assert err_res < err_none


def test_col_haarquant_empty_mask_matches_plain_columns():
    rng = np.random.default_rng(3)
    w = rng.normal(size=(8, 5)).astype(np.float32)
    cfg = QuantConfig()
    block, _ = quantize_block(w, empty_mask(5), Axis.COL, cfg)
    plans = quantize_lines(w.T, cfg)
    assert np.array_equal(block.nonsalient_plans.signs, plans.signs)


@pytest.mark.parametrize("k", [0, 2, 4])
@pytest.mark.parametrize("share", [True, False])
def test_col_haarquant_one_call_matches_two(k, share):
    # COL plans every column in one call and splits the plans by the mask;
    # planning non-salient and salient columns apart gives the same bits
    rng = np.random.default_rng([22, k])
    w = rng.normal(size=(8, 12)).astype(np.float32)
    w[:, 3] *= 30.0
    cfg = QuantConfig(share_mean=share)
    mask = top_k_mask(np.linalg.norm(w, axis=0), k)
    block, recon = quantize_block(w, mask, Axis.COL, cfg)
    nonsalient = quantize_lines(w[:, ~mask.bits].T, cfg)
    assert same_plans(block.nonsalient_plans, nonsalient)
    want = np.empty((12, 8), np.float32)  # one row per column
    want[~mask.bits] = nonsalient.weights()
    assert block.salient_plans.lines == k
    if k:
        salient = quantize_lines(w[:, mask.bits].T, cfg)
        assert same_plans(block.salient_plans, salient)
        want[mask.bits] = salient.weights()
    assert recon.tobytes() == np.ascontiguousarray(want.T).tobytes()


def test_col_haarquant_sign_bits_one_per_weight():
    rng = np.random.default_rng(4)
    w = rng.normal(size=(16, 12)).astype(np.float32)
    mask = top_k_mask(np.linalg.norm(w, axis=0), 4)
    block, _ = quantize_block(w, mask, Axis.COL, QuantConfig())
    total_signs = block.nonsalient_plans.signs.size + block.salient_plans.signs.size
    assert total_signs == 16 * 12


def test_row_haarquant_salient_columns_get_two_passes():
    rng = np.random.default_rng(5)
    w = rng.normal(size=(8, 12)).astype(np.float32)
    mask = top_k_mask(np.linalg.norm(w, axis=0), 2)
    block, _ = quantize_block(w, mask, Axis.ROW, QuantConfig())
    total_signs = block.nonsalient_plans.signs.size + block.salient_plans.signs.size
    # every weight has a row-pass bit; salient columns add a residual bit
    assert total_signs == 8 * 12 + 2 * 8


@pytest.mark.parametrize(
    "mode", [Axis.ROW, Axis.COL], ids=["row_haarquant", "col_haarquant"]
)
@pytest.mark.parametrize("haar", [True, False])
@pytest.mark.parametrize("k", [0, 2])
def test_quantizer_recon_equals_reconstruct_block(mode, haar, k):
    # quantize-time error and compensation use the recon the quantizer
    # returns; load uses reconstruct_block; the two must agree bitwise
    rng = np.random.default_rng(21)
    w = rng.normal(size=(8, 12)).astype(np.float32)
    w[:, 7] *= 30.0
    mask = top_k_mask(np.linalg.norm(w, axis=0), k)
    block, recon = quantize_block(w, mask, mode, QuantConfig(haar_enabled=haar))
    assert recon.shape == (8, 12)
    assert np.array_equal(recon, reconstruct_block(block, mode))


def test_block_shape_validation():
    rng = np.random.default_rng(6)
    w = rng.normal(size=(4, 6)).astype(np.float32)
    block, _ = quantize_block(w, empty_mask(6), Axis.ROW, QuantConfig())
    three_rows, _ = quantize_block(w[:3], empty_mask(6), Axis.ROW, QuantConfig())
    malformed = (
        QuantizedBlock(
            mask=empty_mask(5),
            nonsalient_plans=block.nonsalient_plans,
            salient_plans=block.salient_plans,
        ),
        QuantizedBlock(
            mask=empty_mask(6),
            nonsalient_plans=three_rows.nonsalient_plans,
            salient_plans=block.salient_plans,
        ),
    )
    for bad in malformed:
        with pytest.raises(ShapeError):
            QuantizedLayer(
                blocks=[bad], n=4, m=bad.mask.bits.size, beta=6, mode=Axis.ROW,
                damping=0.01, cfg=QuantConfig(),
            )


def test_row_haarquant_odd_width_rejected():
    w = np.zeros((2, 5), dtype=np.float32)
    with pytest.raises(ShapeError):
        quantize_block(w, empty_mask(5), Axis.ROW, QuantConfig())
    # raw mode has no pairing constraint
    raw = QuantConfig(haar_enabled=False)
    block, _ = quantize_block(w, empty_mask(5), Axis.ROW, raw)
    assert reconstruct_block(block, Axis.ROW).shape == (2, 5)


# --- compensation ---


def test_compensate_zero_residual_leaves_w_unchanged():
    rng = np.random.default_rng(7)
    w = rng.normal(size=(3, 6)).astype(np.float32)
    before = w.copy()
    u = np.triu(rng.normal(size=(6, 6)).astype(np.float32))
    np.fill_diagonal(u, 1.0)
    compensate(w, w[:, :2].copy(), u, 0, 2)
    assert np.array_equal(w, before)


def test_compensate_worked_example():
    # single-column block, U = [[0.5, 0.1], [0, 0.4]], residual 0.2:
    # E = 0.2 / 0.5 = 0.4, trailing column drops by E * 0.1 = 0.04
    w = np.array([[1.0, 2.0]], dtype=np.float32)
    recon = np.array([[0.8]], dtype=np.float32)
    u = np.array([[0.5, 0.1], [0.0, 0.4]], dtype=np.float32)
    compensate(w, recon, u, 0, 1)
    assert w[0, 0] == np.float32(1.0)
    assert w[0, 1] == pytest.approx(1.96, abs=1e-7)


def test_compensate_last_block_is_noop():
    w = np.array([[1.0, 2.0]], dtype=np.float32)
    before = w.copy()
    u = np.array([[0.5, 0.1], [0.0, 0.4]], dtype=np.float32)
    compensate(w, np.array([[0.5]], dtype=np.float32), u, 1, 1)
    assert np.array_equal(w, before)


def test_compensate_last_block_returns_before_reading_residual():
    # The last block has nothing to its right: w stays bit-identical even
    # when its residual is not finite, and a zero on the block's float32
    # diagonal is still refused.
    rng = np.random.default_rng(8)
    w = rng.normal(size=(3, 6)).astype(np.float32)
    before = w.copy()
    u = np.triu(rng.normal(size=(6, 6)).astype(np.float32))
    np.fill_diagonal(u, 1.0)
    recon = np.full((3, 2), np.nan, dtype=np.float32)
    compensate(w, recon, u, 4, 2)
    assert w.tobytes() == before.tobytes()
    u[5, 5] = 0.0
    with pytest.raises(NumericError, match="diagonal at 5"):
        compensate(w, recon, u, 4, 2)
    assert w.tobytes() == before.tobytes()


def test_compensate_zero_diagonal_rejected():
    w = np.ones((1, 2), dtype=np.float32)
    u = np.array([[0.0, 0.1], [0.0, 0.4]], dtype=np.float32)
    with pytest.raises(NumericError, match="diagonal at 0"):
        compensate(w, np.zeros((1, 1), dtype=np.float32), u, 0, 1)


@pytest.mark.parametrize("bad", ["factor", "residual"])
def test_compensate_non_finite_input_names_block(bad):
    # the scan solve_triangular's check_finite made, raised as a numeric
    # error naming the block
    w = np.ones((2, 6), dtype=np.float32)
    u = np.triu(np.full((6, 6), 0.5, dtype=np.float32))
    recon = np.zeros((2, 2), dtype=np.float32)
    if bad == "factor":
        u[2, 3] = np.inf  # off the diagonal of the block's sub-block
    else:
        recon[1, 0] = np.nan
    before = w.copy()
    with pytest.raises(NumericError, match=r"block \[2, 4\)"):
        compensate(w, recon, u, 2, 2)
    assert w.tobytes() == before.tobytes()


def test_compensate_bounds_checked():
    w = np.ones((1, 2), dtype=np.float32)
    u = np.eye(2, dtype=np.float32)
    with pytest.raises(ShapeError):
        compensate(w, np.zeros((1, 2), dtype=np.float32), u, 1, 2)
    with pytest.raises(ShapeError):
        compensate(w, np.zeros((1, 1), dtype=np.float32), np.eye(3), 0, 1)


def _compensate_full_widening(w, recon_block, chol_inv, b, beta):
    # compensate as it was before it widened only the block's rows: the
    # whole factor goes to float64 first
    from scipy.linalg import solve_triangular

    u = np.asarray(chol_inv, dtype=np.float64)
    resid = w[:, b : b + beta].astype(np.float64) - np.asarray(
        recon_block, dtype=np.float64
    )
    if b + beta == w.shape[1]:
        return
    u_bb = u[b : b + beta, b : b + beta]
    e = solve_triangular(u_bb, resid.T, lower=False, trans="T").T
    tail = w[:, b + beta :].astype(np.float64)
    w[:, b + beta :] = (tail - e @ u[b : b + beta, b + beta :]).astype(np.float32)


@pytest.mark.parametrize(
    "n,m,beta", [(3, 10, 4), (8, 64, 16), (5, 96, 32), (4, 6, 1), (1, 40, 8)]
)
def test_compensate_bitwise_equals_full_widening(n, m, beta):
    rng = np.random.default_rng(m)
    x = rng.normal(size=(m, 2 * m)).astype(np.float32)
    u = build_calib_stats(x).chol_inv
    w = rng.normal(size=(n, m)).astype(np.float32)
    want = w.copy()
    for b in range(0, m, beta):  # a remainder block and a last block included
        width = min(beta, m - b)
        recon = np.round(w[:, b : b + width] * 2.0) / 2.0
        compensate(w, recon, u, b, width)
        _compensate_full_widening(want, recon, u, b, width)
        assert w.tobytes() == want.tobytes(), b


@pytest.mark.parametrize(
    "n,m,beta",
    [(1, 640, 64), (16, 1024, 128), (64, 520, 40), (8, 390, 64), (33, 777, 30)],
)
@pytest.mark.parametrize("columns", [None, 64, 192])
def test_compensate_chunks_keep_the_bits(monkeypatch, n, m, beta, columns):
    # products over 64- or 192-column chunks (the last taking the rest) or,
    # when the trailing width is not a multiple of 8 (390, 777), over the
    # whole tail, subtracted in place: the bits of one product over the
    # whole slab, widened, subtracted and narrowed; the last block leaves w
    # as it is
    import hbq.pipeline as pipeline

    if columns is not None:
        monkeypatch.setattr(pipeline, "_COMPENSATE_VALUES", columns * n)
        if m % 8 == 0:
            assert len(list(pipeline._tail_chunks(beta, m, n))) > 1
    rng = np.random.default_rng([n, m])
    x = rng.normal(size=(m, m + 64)).astype(np.float32)
    u = build_calib_stats(x).chol_inv
    w = rng.normal(size=(n, m)).astype(np.float32)
    want = w.copy()
    for b in range(0, m, beta):
        width = min(beta, m - b)
        recon = np.round(w[:, b : b + width] * 2.0) / 2.0
        compensate(w, recon, u, b, width)
        _compensate_full_widening(want, recon, u, b, width)
        assert w.tobytes() == want.tobytes(), b


@pytest.mark.parametrize("n", [33, 64, 256])
@pytest.mark.parametrize("tail", [131, 192, 195, 264, 323, 1000])
def test_tail_chunks_keep_the_float64_product_bits(monkeypatch, n, tail):
    # before the float32 rounding that would hide most differences: each
    # chunk's product is the product over the whole tail, bit for bit.
    # Chunked at 64 columns, tails of 131, 195 and 323 columns would not
    # be, so they go whole
    import hbq.pipeline as pipeline

    monkeypatch.setattr(pipeline, "_COMPENSATE_VALUES", 64 * n)
    beta = 128
    rng = np.random.default_rng([n, tail])
    e = rng.normal(size=(n, beta))
    u = rng.normal(size=(beta, beta + tail)).astype(np.float32).astype(np.float64)
    whole = e @ u[:, beta:]
    chunks = list(pipeline._tail_chunks(beta, beta + tail, n))
    assert len(chunks) > 1 or tail % 8
    for a, b in chunks:
        assert (e @ u[:, a:b].copy()).tobytes() == whole[:, a - beta : b - beta].tobytes()


def test_compensate_working_set_is_below_one_float64_slab():
    # the first 128-column block of a 1024x2048 layer: ~6.5 MiB of
    # temporaries, against 15 MiB for one float64 copy of the trailing slab
    import tracemalloc

    n, m, beta = 1024, 2048, 128
    rng = np.random.default_rng(3)
    u = np.triu(rng.uniform(-0.01, 0.01, (m, m)).astype(np.float32))
    np.fill_diagonal(u, 1.0)
    w = rng.standard_normal((n, m), dtype=np.float32)
    recon = np.round(w[:, :beta])
    tracemalloc.start()
    try:
        compensate(w, recon, u, 0, beta)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.isfinite(w).all()
    assert peak < n * (m - beta) * 8


def test_compensation_reduces_activation_error(monkeypatch):
    # the whole point of the factor dance: with compensation the product
    # (W - What) X should rarely get worse
    import hbq.pipeline as pipeline
    from conftest import reference_product

    wins = 0
    trials = 200
    for seed in range(trials):
        rng = np.random.default_rng(9000 + seed)
        w = rng.normal(size=(16, 16)).astype(np.float32)
        x = rng.normal(size=(16, 64)).astype(np.float32)
        qa = hbllm_quantize(w.copy(), x, beta=4)
        with monkeypatch.context() as m:
            m.setattr(pipeline, "compensate", lambda *args: None)
            qb = hbllm_quantize(w.copy(), x, beta=4)
        ea = np.linalg.norm(reference_product(w - dequantize_layer(qa), x))
        eb = np.linalg.norm(reference_product(w - dequantize_layer(qb), x))
        wins += ea <= eb
    assert wins >= 0.95 * trials


# --- layer pipeline ---


def test_hbllm_fixed_point_zero_error():
    # band structure must be exact per block, since each block of beta
    # columns is transformed on its own
    rng = np.random.default_rng(10)
    w = np.hstack([dyadic_two_level_block(rng, 8, 16) for _ in range(2)])
    x = np.eye(32, dtype=np.float32)
    q = hbllm_quantize(w.copy(), x, beta=16)
    assert q.diagnostics["total_error"] == 0.0
    assert all(blk["chosen_k"] == 0 for blk in q.diagnostics["per_block"])
    assert np.array_equal(dequantize_layer(q), w)


def test_hbllm_haar_beats_raw_on_most_layers():
    wins = 0
    seeds = 50
    for seed in range(seeds):
        rng = np.random.default_rng(1000 + seed)
        w = rng.normal(size=(64, 128)).astype(np.float32)
        x = rng.normal(size=(128, 256)).astype(np.float32)
        wn = float(np.linalg.norm(w))
        qa = hbllm_quantize(w.copy(), x, beta=128, cfg=QuantConfig(haar_enabled=True))
        qb = hbllm_quantize(w.copy(), x, beta=128, cfg=QuantConfig(haar_enabled=False))
        ea = frobenius_error(w, dequantize_layer(qa)) / wn
        eb = frobenius_error(w, dequantize_layer(qb)) / wn
        wins += ea < eb
    assert wins >= 0.8 * seeds


def test_hbllm_deterministic():
    rng = np.random.default_rng(11)
    w = rng.normal(size=(16, 32)).astype(np.float32)
    x = rng.normal(size=(32, 64)).astype(np.float32)
    qa = hbllm_quantize(w.copy(), x, beta=8)
    qb = hbllm_quantize(w.copy(), x, beta=8)
    assert np.array_equal(dequantize_layer(qa), dequantize_layer(qb))
    assert qa.diagnostics["total_error"] == qb.diagnostics["total_error"]
    for a, b in zip(qa.blocks, qb.blocks):
        assert np.array_equal(a.mask.bits, b.mask.bits)


def test_hbllm_reported_error_matches_dequantize():
    rng = np.random.default_rng(12)
    w = rng.normal(size=(8, 24)).astype(np.float32)
    w_orig = w.copy()
    x = rng.normal(size=(24, 48)).astype(np.float32)
    q = hbllm_quantize(w, x, beta=8)
    external = frobenius_error(w_orig, dequantize_layer(q))
    assert q.diagnostics["total_error"] == external


def test_hbllm_mutates_only_trailing_columns():
    rng = np.random.default_rng(13)
    w = rng.normal(size=(8, 32)).astype(np.float32)
    w_orig = w.copy()
    hbllm_quantize(w, rng.normal(size=(32, 64)).astype(np.float32), beta=8)
    # compensation only ever writes right of the current block, so the
    # first block's columns survive bit for bit; later ones shift
    assert np.array_equal(w[:, :8], w_orig[:, :8])
    assert not np.array_equal(w[:, 8:], w_orig[:, 8:])


def test_hbllm_col_mode_runs():
    rng = np.random.default_rng(14)
    w = rng.normal(size=(16, 24)).astype(np.float32)
    x = rng.normal(size=(24, 32)).astype(np.float32)
    q = hbllm_quantize(w.copy(), x, beta=8, mode=Axis.COL)
    assert q.mode is Axis.COL
    recon = dequantize_layer(q)
    assert recon.shape == (16, 24)
    assert frobenius_error(w, recon) < float(np.linalg.norm(w))


def _all_k_trials(w_block, scores, mode, cfg):
    # reference K selection: one COL trial per candidate, kept only on
    # strict improvement
    best, errors = None, {}
    for k in sorted(cfg.k_candidates):
        mask = top_k_mask(scores, k)
        block, recon = quantize_block(w_block, mask, Axis.COL, cfg)
        errors[k] = frobenius_error(w_block, recon)
        if best is None or errors[k] < best[0]:
            best = (errors[k], block, recon)
    return best[1], best[2], errors


@pytest.mark.parametrize(
    "k_candidates", [(0, 2, 4, 8), (2, 4)], ids=["with-k0", "no-k0"]
)
def test_hbllm_col_mode_one_trial_same_bytes(monkeypatch, k_candidates):
    # COL mode plans each column on its own, so every K reconstructs a
    # block identically: trying only the smallest K stores the same bytes
    import hbq.pipeline as pipeline

    cfg = QuantConfig(k_candidates=k_candidates)
    for seed in range(3):
        rng = np.random.default_rng(1400 + seed)
        w = rng.normal(size=(16, 64)).astype(np.float32)
        w[:, rng.choice(64, size=4, replace=False)] *= 30.0
        x = rng.normal(size=(64, 96)).astype(np.float32)
        q = hbllm_quantize(w.copy(), x, beta=32, mode=Axis.COL, cfg=cfg)
        with monkeypatch.context() as m:
            m.setattr(pipeline, "_select_salient_full", _all_k_trials)
            want = hbllm_quantize(w.copy(), x, beta=32, mode=Axis.COL, cfg=cfg)
        assert encode_layer(q) == encode_layer(want)
        blocks = zip(q.diagnostics["per_block"], want.diagnostics["per_block"])
        for blk, ref in blocks:
            assert len(set(ref["trial_errors"].values())) == 1
            assert list(blk["trial_errors"]) == [min(k_candidates)]
            assert blk["error"] == ref["error"]


def test_hbllm_ciq_bound_row_mode():
    rng = np.random.default_rng(15)
    w = rng.normal(size=(8, 512)).astype(np.float32)
    x = rng.normal(size=(512, 64)).astype(np.float32)
    q = hbllm_quantize(w.copy(), x, beta=128, cfg=QuantConfig(k_candidates=(0,)))
    recon = dequantize_layer(q)
    assert compute_ciq(recon).max() <= 32 * (512 // 128)


def test_hbllm_small_blocks_fall_back_to_k0():
    rng = np.random.default_rng(16)
    w = rng.normal(size=(4, 4)).astype(np.float32)
    x = rng.normal(size=(4, 8)).astype(np.float32)
    q = hbllm_quantize(w.copy(), x, beta=2, cfg=QuantConfig(k_candidates=(2, 4)))
    assert all(blk.mask.k == 0 for blk in q.blocks)


def test_hbllm_calib_reuse():
    from hbq.calib import build_calib_stats

    rng = np.random.default_rng(17)
    w = rng.normal(size=(4, 8)).astype(np.float32)
    x = rng.normal(size=(8, 16)).astype(np.float32)
    stats = build_calib_stats(x)
    qa = hbllm_quantize(w.copy(), x, beta=4, calib=stats)
    qb = hbllm_quantize(w.copy(), x, beta=4)
    assert np.array_equal(dequantize_layer(qa), dequantize_layer(qb))
    with pytest.raises(ShapeError):
        hbllm_quantize(w.copy(), rng.normal(size=(8, 4)).astype(np.float32),
                       beta=4, calib=build_calib_stats(np.eye(4, dtype=np.float32)))


def test_hbllm_validation():
    rng = np.random.default_rng(18)
    w = rng.normal(size=(4, 8)).astype(np.float32)
    x = rng.normal(size=(8, 4)).astype(np.float32)
    with pytest.raises(ConfigError):
        hbllm_quantize(w.copy(), x, beta=3)  # odd beta in ROW mode
    with pytest.raises(ConfigError):
        hbllm_quantize(w.copy(), x, beta=0)
    with pytest.raises(ShapeError):
        hbllm_quantize(w.copy(), rng.normal(size=(6, 4)).astype(np.float32))
    x_nan = x.copy()
    x_nan[3, 1] = np.nan
    with pytest.raises(ShapeError, match="activations contains non-finite"):
        hbllm_quantize(w.copy(), x_nan, beta=4)
    w5 = rng.normal(size=(5, 8)).astype(np.float32)
    with pytest.raises(ConfigError):
        hbllm_quantize(w5.copy(), x, beta=8, mode=Axis.COL)  # odd rows
    with pytest.raises(ConfigError):
        hbllm_quantize(w5.copy(), x, beta=8)  # odd rows + residual pass
    q = hbllm_quantize(w5.copy(), x, beta=8, cfg=QuantConfig(k_candidates=(0,)))
    assert q.n == 5  # fine without the residual pass


def test_hbllm_mode_must_be_an_axis(monkeypatch):
    # a mode that is not an axis is refused before calibration runs; the
    # axis values "row" and "col" stand for Axis.ROW and Axis.COL
    rng = np.random.default_rng(24)
    w = rng.normal(size=(4, 16)).astype(np.float32)
    x = rng.normal(size=(16, 32)).astype(np.float32)
    for mode, axis in (("row", Axis.ROW), ("col", Axis.COL)):
        q = hbllm_quantize(w.copy(), x, beta=8, mode=mode)
        assert q.mode is axis
        want = hbllm_quantize(w.copy(), x, beta=8, mode=axis)
        assert encode_layer(q) == encode_layer(want)

    def no_calibration(*args, **kwargs):
        raise AssertionError("calibration ran for an invalid mode")

    monkeypatch.setattr("hbq.pipeline.build_calib_stats", no_calibration)
    for bad in ("ROW", "rows", 0, None):
        with pytest.raises(ConfigError, match="mode"):
            hbllm_quantize(w.copy(), x, beta=8, mode=bad)


def test_hbllm_odd_rows_without_residual_pass_in_row_mode():
    # every K is at least the 2-wide block, so each block falls back to
    # K = 0 and no residual pass runs: odd rows are fine, and the container
    # is the one K = 0 alone gives, apart from the K list its header stores
    rng = np.random.default_rng(23)
    w = rng.normal(size=(5, 4)).astype(np.float32)
    x = rng.normal(size=(4, 8)).astype(np.float32)
    q, q0 = (
        hbllm_quantize(w.copy(), x, beta=2, cfg=QuantConfig(k_candidates=ks))
        for ks in ((2, 4), (0,))
    )
    assert q.cfg.k_candidates == (2, 4)
    assert encode_layer(replace(q, cfg=q0.cfg)) == encode_layer(q0)


def test_hbllm_odd_remainder_rejected():
    rng = np.random.default_rng(19)
    w = rng.normal(size=(4, 9)).astype(np.float32)
    x = rng.normal(size=(9, 4)).astype(np.float32)
    with pytest.raises(ConfigError):
        hbllm_quantize(w.copy(), x, beta=4)  # 9 % 4 == 1: odd trailing block


def test_hbllm_raw_mode_accepts_odd_shapes():
    # without the transform no Haar pairs are formed, so odd beta, odd
    # remainder blocks and odd COL row counts all quantize and round-trip
    cfg = QuantConfig(haar_enabled=False)
    for n, m, beta, mode in ((3, 6, 3, Axis.ROW), (3, 6, 3, Axis.COL),
                             (5, 7, 3, Axis.ROW)):
        rng = np.random.default_rng(n * m)
        w = rng.normal(size=(n, m)).astype(np.float32)
        x = rng.normal(size=(m, 2 * m)).astype(np.float32)
        q = hbllm_quantize(w, x, beta=beta, mode=mode, cfg=cfg)
        widths = [b.mask.bits.size for b in q.blocks]
        assert widths == [beta] * (m // beta) + ([m % beta] if m % beta else [])
        blob = encode_layer(q)
        back = decode_layer(blob)
        assert encode_layer(back) == blob
        assert dequantize_layer(back).tobytes() == dequantize_layer(q).tobytes()


def test_layer_validation():
    rng = np.random.default_rng(20)
    w = rng.normal(size=(4, 8)).astype(np.float32)
    block, _ = quantize_block(w, empty_mask(8), Axis.ROW, QuantConfig())
    with pytest.raises(ShapeError):
        QuantizedLayer(
            blocks=[block], n=4, m=10, beta=8, mode=Axis.ROW,
            damping=0.01, cfg=QuantConfig(),
        )
    with pytest.raises(ShapeError):
        QuantizedLayer(
            blocks=[block], n=4, m=8, beta=8, mode=Axis.COL,
            damping=0.01, cfg=QuantConfig(),
        )
    # two 8-wide blocks on one 16-wide span: the widths sum to m, but the
    # encoder would write records the decoder rejects
    with pytest.raises(ShapeError):
        QuantizedLayer(
            blocks=[block, block], n=4, m=16, beta=16, mode=Axis.ROW,
            damping=0.01, cfg=QuantConfig(),
        )
