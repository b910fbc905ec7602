import numpy as np
import pytest
from conftest import same_plans

from hbq.config import QuantConfig
from hbq.errors import ConfigError, ShapeError
from hbq.formats import decode_layer, encode_layer
from hbq.grouping import LinePlans, quantize_lines
from hbq.haar import Axis
from hbq.pipeline import QuantizedBlock, _select_salient_full, hbllm_quantize
from hbq.salient import SalientMask, column_scores, fill_avg, top_k_mask
from hbq.tensor import frobenius_error


def mask_of(bits):
    return SalientMask(bits)


def test_column_scores_known():
    col = np.array([[3.0], [4.0]])
    assert column_scores(col, "l2")[0] == 5.0
    assert column_scores(col, "l1")[0] == 7.0


def test_column_scores_matches_oracle():
    rng = np.random.default_rng(3)
    s = rng.normal(size=(8, 8))
    got2 = column_scores(s, "l2")
    got1 = column_scores(s, "l1")
    for j in range(8):
        want2 = float(np.sqrt(sum(float(s[i, j]) ** 2 for i in range(8))))
        want1 = float(sum(abs(float(s[i, j])) for i in range(8)))
        assert got2[j] == pytest.approx(want2, rel=1e-9)
        assert got1[j] == pytest.approx(want1, rel=1e-9)


def test_column_scores_validation():
    with pytest.raises(ConfigError):
        column_scores(np.ones((2, 2)), "linf")
    with pytest.raises(ShapeError):
        column_scores(np.ones(4), "l2")


def test_top_k_stable_tie_break():
    scores = [5.0, 5.0, 3.0, 5.0]
    mask = top_k_mask(scores, 2)
    assert np.array_equal(mask.bits, [True, True, False, False])
    assert mask.k == 2


def test_top_k_matches_sort_oracle():
    rng = np.random.default_rng(5)
    for _ in range(20):
        scores = rng.normal(size=12)
        k = int(rng.integers(0, 12))
        mask = top_k_mask(scores, k)
        # oracle: sort by (-score, index), take first k
        want = sorted(range(12), key=lambda j: (-scores[j], j))[:k]
        assert sorted(mask.indices.tolist()) == sorted(want)


def test_top_k_validation():
    with pytest.raises(ConfigError):
        top_k_mask([1.0, 2.0], 2)  # K must stay < width


def test_mask_validation():
    with pytest.raises(ConfigError):
        mask_of([True, True])  # no non-salient column left
    with pytest.raises(ShapeError):
        mask_of([[False, True], [False, False]])  # one bit per column
    m = mask_of([False, True, False])
    assert m.k == 1
    assert m.indices.tolist() == [1]


def test_select_salient_k0_forced():
    rng = np.random.default_rng(7)
    w = rng.normal(size=(8, 8)).astype(np.float32)
    scores = np.ones(8)
    cfg = QuantConfig(k_candidates=(0,))
    mask = _select_salient_full(w, scores, Axis.ROW, cfg)[0].mask
    assert mask.k == 0


def test_select_salient_prefers_outlier_column():
    # Needs a realistic band width: with >=64 values per band the coarsest
    # threshold still keeps several values in the sparse group, so a lone
    # scaled column cannot be absorbed per row and the residual pass wins.
    rng = np.random.default_rng(11)
    w = rng.normal(size=(64, 128)).astype(np.float32)
    w[:, 37] *= 50.0
    scores = column_scores(np.abs(w), "l2")
    cfg = QuantConfig(k_candidates=(0, 2))
    mask = _select_salient_full(w, scores, Axis.ROW, cfg)[0].mask
    assert mask.k == 2
    assert 37 in mask.indices


def test_select_salient_superset_never_worse():
    rng = np.random.default_rng(13)
    w = rng.normal(size=(16, 16)).astype(np.float32)
    w[:, 5] *= 20.0
    scores = column_scores(np.abs(w), "l2")
    errs_small, errs_big = (
        _select_salient_full(w, scores, Axis.ROW, QuantConfig(k_candidates=ks))[2]
        for ks in ((0, 2), (0, 2, 4, 8))
    )
    assert min(errs_big.values()) <= min(errs_small.values())


def _per_k_trials(w, scores, cfg):
    # the ROW trial loop planned one K at a time: two quantize_lines calls
    # per K, strict improvement in ascending K
    best, errors = None, {}
    for k in sorted({k for k in cfg.k_candidates if k < w.shape[1]}) or [0]:
        mask = top_k_mask(scores, k)
        nonsalient = quantize_lines(fill_avg(w, mask), cfg)
        recon = nonsalient.weights()
        salient = LinePlans.empty(w.shape[0])
        if k:
            idx = mask.indices
            salient = quantize_lines((w[:, idx] - recon[:, idx]).T, cfg)
            recon[:, idx] += salient.weights().T
        errors[k] = frobenius_error(w, recon)
        if best is None or errors[k] < best[0]:
            best = (errors[k], QuantizedBlock(mask, nonsalient, salient), recon)
    return best[1], best[2], errors


@pytest.mark.parametrize(
    "ks",
    [(0, 2, 4, 8), (8, 2, 4, 2, 0, 8), (2, 6), (0, 4, 16, 40), (16, 40), (0,)],
    ids=["default", "duplicates", "no-k0", "k-at-width", "all-above-width", "k0"],
)
@pytest.mark.parametrize("share", [True, False], ids=["shared", "own-means"])
def test_select_salient_stacked_matches_per_k_loop(ks, share):
    # all K trials of a block are planned in one call per stage; every
    # trial's error, the winner's plans and its reconstruction are those
    # of planning each K on its own
    cfg = QuantConfig(k_candidates=ks, share_mean=share)
    for seed in range(4):
        rng = np.random.default_rng([23, seed])
        w = rng.normal(size=(12, 16)).astype(np.float32)
        w[:, rng.choice(16, size=3, replace=False)] *= rng.uniform(1, 40, 3)
        scores = column_scores(np.abs(w), "l2")
        block, recon, errors = _select_salient_full(w, scores, Axis.ROW, cfg)
        want_block, want_recon, want_errors = _per_k_trials(w, scores, cfg)
        assert list(errors.items()) == list(want_errors.items())
        assert recon.tobytes() == want_recon.tobytes()
        assert np.array_equal(block.mask.bits, want_block.mask.bits)
        assert same_plans(block.nonsalient_plans, want_block.nonsalient_plans)
        assert same_plans(block.salient_plans, want_block.salient_plans)


def test_k_candidates_validation():
    # the K trial loop trusts QuantConfig for these; K >= width falls back
    # to K=0 (test_hbllm_small_blocks_fall_back_to_k0)
    with pytest.raises(ConfigError):
        QuantConfig(k_candidates=())
    with pytest.raises(ConfigError):
        QuantConfig(k_candidates=(0, 1))  # odd K
    with pytest.raises(ConfigError):
        QuantConfig(k_candidates=(-2, 0))


def test_norm_validation():
    with pytest.raises(ConfigError, match="norm"):
        QuantConfig(norm="l3")


def test_k_candidates_fit_hbq1():
    # HBQ1 stores each K as a u16 and the number of Ks as a u8; the largest
    # list it can hold still quantizes and round-trips
    widest = tuple(range(0, 508, 2)) + (65534,)  # 255 entries
    cfg = QuantConfig(k_candidates=widest)
    rng = np.random.default_rng(19)
    w = rng.normal(size=(4, 8)).astype(np.float32)
    x = rng.normal(size=(8, 16)).astype(np.float32)
    blob = encode_layer(hbllm_quantize(w, x, beta=8, cfg=cfg))
    assert decode_layer(blob).cfg.k_candidates == widest
    for ks in ((0, 65536), tuple(range(0, 512, 2))):  # a K above u16; 256 Ks
        with pytest.raises(ConfigError, match="k_candidates"):
            QuantConfig(k_candidates=ks)


def test_select_salient_deterministic():
    rng = np.random.default_rng(17)
    w = rng.normal(size=(8, 8)).astype(np.float32)
    scores = column_scores(np.abs(w), "l1")
    cfg = QuantConfig(k_candidates=(0, 2, 4))
    a = _select_salient_full(w, scores, Axis.ROW, cfg)[0].mask
    b = _select_salient_full(w, scores, Axis.ROW, cfg)[0].mask
    assert np.array_equal(a.bits, b.bits)


def test_fill_avg_two_neighbor_mean():
    w = np.array([[1.0, 99.0, 3.0]], dtype=np.float32)
    filled = fill_avg(w, mask_of([False, True, False]))
    assert np.array_equal(filled, np.array([[1.0, 2.0, 3.0]], dtype=np.float32))


def test_fill_avg_edge_single_neighbor():
    w = np.array([[99.0, 4.0, 6.0]], dtype=np.float32)
    filled = fill_avg(w, mask_of([True, False, False]))
    assert np.array_equal(filled, np.array([[4.0, 4.0, 6.0]], dtype=np.float32))


def test_fill_avg_consecutive_holes_see_originals():
    w = np.array([[1.0, -5.0, 7.0, 5.0]], dtype=np.float32)
    filled = fill_avg(w, mask_of([False, True, True, False]))
    assert np.array_equal(filled, np.array([[1, 3, 3, 5]], dtype=np.float32))


def test_fill_avg_matches_scan_oracle():
    rng = np.random.default_rng(19)
    for _ in range(20):
        d = int(rng.integers(3, 12))
        w = rng.normal(size=(4, d)).astype(np.float32)
        bits = rng.random(d) < 0.4
        if bits.all():
            bits[int(rng.integers(0, d))] = False
        got = fill_avg(w, mask_of(bits))
        for j in np.flatnonzero(bits):
            left = next((i for i in range(j - 1, -1, -1) if not bits[i]), None)
            right = next((i for i in range(j + 1, d) if not bits[i]), None)
            if left is None:
                want = w[:, right]
            elif right is None:
                want = w[:, left]
            else:
                want = (w[:, left] + w[:, right]) * np.float32(0.5)
            assert np.array_equal(got[:, j], want)
        # unmasked columns are bit-identical
        keep = ~bits
        assert np.array_equal(got[:, keep], w[:, keep])


def test_fill_avg_adjacent_holes_at_both_edges_match_the_loop():
    # runs of holes at both block edges and inside, against the
    # column-by-column loop fill_avg replaced
    rng = np.random.default_rng(20)
    bits = np.array([1, 1, 0, 1, 1, 0, 0, 1, 0, 1, 1, 1], bool)
    w = rng.normal(size=(5, bits.size)).astype(np.float32)
    want = w.copy()
    keep = np.flatnonzero(~bits)
    for j in np.flatnonzero(bits):
        pos = np.searchsorted(keep, j)
        left = keep[pos - 1] if pos > 0 else None
        right = keep[pos] if pos < keep.size else None
        if left is None:
            want[:, j] = w[:, right]
        elif right is None:
            want[:, j] = w[:, left]
        else:
            want[:, j] = (w[:, left] + w[:, right]) * np.float32(0.5)
    assert fill_avg(w, mask_of(bits)).tobytes() == want.tobytes()


def test_fill_avg_k0_is_plain_copy():
    w = np.array([[1.0, 2.0]], dtype=np.float32)
    filled = fill_avg(w, mask_of([False, False]))
    assert np.array_equal(filled, w)
    filled[0, 0] = 9.0
    assert w[0, 0] == 1.0  # a copy, not a view


def test_fill_avg_width_mismatch():
    with pytest.raises(ShapeError):
        fill_avg(np.ones((2, 3), dtype=np.float32), mask_of([False, True]))
