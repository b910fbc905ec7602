from fractions import Fraction

import numpy as np
import pytest

import reference_kernels as R
from hbq.cli import AB_CANDIDATE_COUNTS
from hbq.config import QuantConfig, nearest_rank, percentile_levels
from hbq.errors import NumericError, ShapeError
from conftest import binarize_group, candidate_thresholds, shared_mean
from hbq.grouping import CIQ_TOLERANCE, LinePlans, compute_ciq, quantize_lines
from hbq.haar import haar_fwd_rows, haar_inv_rows


def plan_band(band, n_candidates=40, share_mean=True) -> LinePlans:
    """Plan one band as a raw one-line layer."""
    cfg = QuantConfig(
        n_candidates=n_candidates, share_mean=share_mean, haar_enabled=False
    )
    row = np.asarray(band, np.float32).reshape(1, -1)
    return quantize_lines(row, cfg)


def f16(x):
    # the narrowing the planner applies to stored scalars
    return float(np.float64(np.float16(x)))


def oracle_split_sse(band, t, share):
    """Independent evaluation of one threshold: narrowed mu/alpha, f32 recon."""
    v = np.asarray(band, dtype=np.float64)
    sp = np.abs(v) >= t
    n_sp = int(sp.sum())
    n_de = v.size - n_sp
    if share:
        mu_s = mu_d = f16(v.mean())
    else:
        mu_s = f16(v[sp].mean())
        mu_d = f16(v[~sp].mean()) if n_de else 0.0
    al_s = f16(np.abs(v[sp] - mu_s).mean())
    al_d = f16(np.abs(v[~sp] - mu_d).mean()) if n_de else 0.0
    mu = np.where(sp, mu_s, mu_d)
    al = np.where(sp, al_s, al_d)
    s = np.where(v >= mu, 1.0, -1.0)
    rec = (mu + al * s).astype(np.float32)
    return float(np.sum((v - rec.astype(np.float64)) ** 2))


def oracle_best_sse(band, n_candidates, share):
    v = np.asarray(band, dtype=np.float32)
    srt = np.sort(np.abs(v))
    ranks = sorted({nearest_rank(lv, v.size) for lv in percentile_levels(n_candidates)})
    return min(oracle_split_sse(v, srt[r - 1], share) for r in ranks)


# ---------------------------------------------------------------------------
# binarize_group
# ---------------------------------------------------------------------------


def test_binarize_known_group():
    alpha, signs, sse = binarize_group([1.0, 2.0, 3.0, 4.0], 2.5)
    assert alpha == 1.0
    assert np.array_equal(signs, np.array([-1, -1, 1, 1], dtype=np.int8))
    assert sse == 1.0


def test_binarize_symmetric_pair_exact():
    for a in (0.5, 1.0, 3.25):
        alpha, signs, sse = binarize_group([-a, a], 0.0)
        assert alpha == a
        assert sse == 0.0


def test_binarize_singleton():
    alpha, signs, sse = binarize_group([5.0], 5.0)
    assert alpha == 0.0
    assert signs[0] == 1  # sign(0) is +1
    assert sse == 0.0


def test_binarize_empty_rejected():
    with pytest.raises(ShapeError):
        binarize_group([], 0.0)


def test_binarize_alpha_is_grid_minimum():
    rng = np.random.default_rng(31)
    grid = np.arange(0.0, 3.0 + 1e-9, 1e-4)
    for _ in range(30):
        size = int(rng.integers(1, 13))
        g = rng.uniform(-1.5, 1.5, size)
        mu = float(rng.uniform(-0.5, 0.5))
        alpha, signs, sse = binarize_group(g, mu)
        s = signs.astype(np.float64)
        grid_sse = np.min(
            ((g[None, :] - (mu + grid[:, None] * s[None, :])) ** 2).sum(axis=1)
        )
        assert sse <= grid_sse + 1e-6


# ---------------------------------------------------------------------------
# shared_mean
# ---------------------------------------------------------------------------


def test_shared_mean_known():
    assert shared_mean([1.0, 3.0], [5.0, 7.0, 9.0]) == 5.0
    assert shared_mean([4.25], []) == 4.25


def test_shared_mean_matches_concat_oracle():
    rng = np.random.default_rng(37)
    for _ in range(25):
        v = rng.normal(size=int(rng.integers(1, 40)))
        cut = int(rng.integers(0, v.size + 1))
        got = shared_mean(v[:cut], v[cut:])
        assert got == pytest.approx(float(np.mean(v)), rel=0, abs=1e-12)


def test_shared_mean_both_empty_rejected():
    with pytest.raises(ShapeError):
        shared_mean([], [])


# ---------------------------------------------------------------------------
# candidate_thresholds
# ---------------------------------------------------------------------------


def test_thresholds_midpoint_for_single_candidate():
    band = np.arange(1.0, 101.0)
    got = candidate_thresholds(band, 1)
    assert got.shape == (1,)
    assert got[0] == 50.0  # nearest-rank 50th percentile of 1..100


def test_thresholds_two_candidates_hit_10_and_90():
    band = np.arange(1.0, 101.0)
    got = candidate_thresholds(band, 2)
    assert np.array_equal(got, np.array([10.0, 90.0], dtype=np.float32))


def test_thresholds_forty_strictly_ordered():
    band = np.arange(1.0, 101.0)
    got = candidate_thresholds(band, 40)
    assert got.shape == (40,)
    assert got[0] == 10.0 and got[-1] == 90.0
    assert np.all(np.diff(got) > 0)


def test_thresholds_use_absolute_values():
    got = candidate_thresholds([-4.0, 1.0], 2)
    assert np.array_equal(got, np.array([1.0, 4.0], dtype=np.float32))


# ---------------------------------------------------------------------------
# plan_band
# ---------------------------------------------------------------------------


def test_plan_band_isolates_outlier():
    band = np.array([0.1, -0.1, 0.2, 8.0], dtype=np.float32)
    plan = plan_band(band, n_candidates=40, share_mean=True)
    # best split puts only the outlier in the sparse group
    assert np.array_equal(plan.cells[0] >= 2, [False, False, False, True])
    assert plan.thr_val[0, 0] == np.float32(8.0)
    assert plan.sse[0, 0] == pytest.approx(0.0467, abs=2e-3)
    # exhaustive oracle over every distinct split agrees
    srt = np.sort(np.abs(band))
    best = min(oracle_split_sse(band, t, True) for t in srt)
    assert plan.sse[0, 0] == pytest.approx(best, rel=1e-9)
    # single-group binarization is an order of magnitude worse
    single = oracle_split_sse(band, float(srt[0]), True)
    assert single == pytest.approx(11.85, abs=5e-2)
    assert plan.sse[0, 0] < single / 100


def test_plan_band_constant_band():
    plan = plan_band([0.5, 0.5, 0.5, 0.5], n_candidates=4)
    assert plan.sse[0, 0] == 0.0
    assert plan.scalars[0, 0, 3] == 0.0  # alpha_sparse
    assert plan.scalars[0, 0, 2] == 0.0  # alpha_dense
    assert plan.scalars[0, 0, 0] == 0.5  # sharing is on: pooled mean fills both slots
    assert bool((plan.cells[0] >= 2).all())
    # with per-group means the empty dense group stores zeros
    plan_off = plan_band([0.5, 0.5, 0.5, 0.5], n_candidates=4, share_mean=False)
    assert plan_off.sse[0, 0] == 0.0
    assert plan_off.scalars[0, 0, 0] == 0.0  # mu_dense
    assert plan_off.scalars[0, 0, 2] == 0.0  # alpha_dense
    assert bool((plan_off.cells[0] >= 2).all())


def test_plan_band_tie_breaks_to_first_index():
    plan = plan_band([1.0, -1.0, 1.0, -1.0], n_candidates=8)
    assert plan.thr_idx[0, 0] == 0
    assert plan.sse[0, 0] == 0.0


def test_plan_band_matches_oracle_random():
    rng = np.random.default_rng(41)
    for _ in range(40):
        size = int(rng.integers(2, 65))
        band = rng.normal(scale=rng.uniform(0.2, 4.0), size=size).astype(np.float32)
        n = int(rng.integers(1, 41))
        share = bool(rng.integers(0, 2))
        plan = plan_band(band, n_candidates=n, share_mean=share)
        assert plan.sse[0, 0] == pytest.approx(
            oracle_best_sse(band, n, share), rel=1e-9
        )


def test_plan_band_nested_candidates_monotonic():
    grids = [
        {Fraction(num, den) for num, den in percentile_levels(c)}
        for c in AB_CANDIDATE_COUNTS
    ]
    assert all(small < big for small, big in zip(grids, grids[1:]))
    rng = np.random.default_rng(43)
    for _ in range(25):
        band = rng.normal(scale=2.0, size=int(rng.integers(4, 129))).astype(np.float32)
        sses = [plan_band(band, c).sse[0, 0] for c in AB_CANDIDATE_COUNTS]
        # candidate sets are nested, so refinement never hurts
        assert sses[1] <= sses[0] and sses[2] <= sses[1] and sses[3] <= sses[2]


def test_plan_band_beats_single_group():
    rng = np.random.default_rng(47)
    for _ in range(60):
        band = rng.normal(scale=1.5, size=int(rng.integers(4, 129))).astype(np.float32)
        plan = plan_band(band, n_candidates=40, share_mean=True)
        srt = np.sort(np.abs(band))
        single = oracle_split_sse(band, float(srt[0]), True)
        assert plan.sse[0, 0] <= single + 1e-9


def test_per_group_means_not_universally_better():
    # With a fixed sign pattern the scale is a mean absolute deviation, not
    # a free least-squares fit, so a pooled mean can beat per-group means.
    # This band is such a case at the t=7.5 split; the stronger claim
    # "own means never lose" is deliberately not asserted anywhere.
    band = np.array([-8.0, -7.5, 9.0, 6.5], dtype=np.float32)
    off = oracle_split_sse(band, 7.5, share=False)
    on = oracle_split_sse(band, 7.5, share=True)
    assert on < off


def test_plan_band_sse_matches_its_own_fields():
    rng = np.random.default_rng(53)
    for _ in range(20):
        band = rng.normal(scale=2.0, size=24).astype(np.float32)
        plan = plan_band(band, n_candidates=16, share_mean=False)
        v = band.astype(np.float64)
        mu_d, mu_s, al_d, al_s = (float(x) for x in plan.scalars[0, 0])
        sparse = plan.cells[0] >= 2
        mu = np.where(sparse, mu_s, mu_d)
        al = np.where(sparse, al_s, al_d)
        s = np.where(v >= mu, 1.0, -1.0)
        rec = (mu + al * s).astype(np.float32)
        want = float(np.sum((v - rec.astype(np.float64)) ** 2))
        assert plan.sse[0, 0] == pytest.approx(want, rel=1e-9)


def test_line_plans_validates_shapes():
    plans = quantize_lines(np.ones((3, 8), np.float32), QuantConfig())
    fields = {name: getattr(plans, name) for name in (
        "thr_idx", "thr_val", "scalars", "sse", "cells")}
    LinePlans(**fields)
    for name, bad in (
        ("thr_idx", fields["thr_idx"][:, :1]),  # one band, the scalars two
        ("thr_idx", fields["thr_idx"][:2]),
        ("thr_idx", np.zeros((3, 4), np.uint8)),  # neither one band nor two
        ("cells", fields["cells"][:, :7]),  # two bands of an odd width
        ("scalars", fields["scalars"][:, :1]),  # one band of two
        ("scalars", fields["scalars"][..., :3]),  # three slots, not four
        ("cells", fields["cells"][:2]),
    ):
        with pytest.raises(ShapeError):
            LinePlans(**{**fields, name: bad})


def test_ranks_computed_once_per_grid_and_width():
    from hbq.grouping import _ranks

    ranks = _ranks(40, 64)
    assert ranks.tolist() == [nearest_rank(lv, 64) for lv in percentile_levels(40)]
    assert _ranks(40, 64) is ranks  # shared by every call ...
    with pytest.raises(ValueError):
        ranks[0] = 1  # ... so no caller may write to it


# ---------------------------------------------------------------------------
# quantize_lines
# ---------------------------------------------------------------------------


def test_quantize_lines_two_element_bands_exact():
    plans = quantize_lines([[2.0, 4.0, 6.0, 10.0]], QuantConfig())
    assert plans.lines == 1
    # <=2 values per band: the coefficients are stored exactly
    want = np.array([[3, 8, -1, -2]], dtype=np.float32)
    assert np.array_equal(plans.recon(), want)
    assert plans.sse[0, 0] == 0.0
    assert plans.sse[0, 1] == 0.0
    assert np.array_equal(plans.weights(), np.array([[2, 4, 6, 10]], np.float32))


def test_quantize_lines_zero_matrix():
    plans = quantize_lines(np.zeros((3, 8), dtype=np.float32), QuantConfig())
    assert np.all(plans.weights() == 0.0)
    assert np.all(plans.scalars[..., 3] == 0.0)  # alpha_sparse
    assert plans.scalars.shape == (3, 2, 4)


def test_quantize_lines_col_axis_matches_row_of_transpose():
    rng = np.random.default_rng(59)
    m = rng.normal(size=(8, 6)).astype(np.float32)
    cfg = QuantConfig()
    # column lines arrive as a transposed view
    col_plans = quantize_lines(m.T, cfg)
    row_plans = quantize_lines(np.ascontiguousarray(m.T), cfg)
    assert np.array_equal(col_plans.weights(), row_plans.weights())
    assert col_plans.lines == row_plans.lines == 6
    assert np.array_equal(col_plans.cells, row_plans.cells)
    assert np.array_equal(col_plans.thr_val[:, 0], row_plans.thr_val[:, 0])


def test_quantize_lines_raw_mode_single_band():
    rng = np.random.default_rng(61)
    m = rng.normal(size=(4, 7)).astype(np.float32)  # odd width fine when raw
    cfg = QuantConfig(haar_enabled=False)
    plans = quantize_lines(m, cfg)
    assert plans.thr_idx.shape == (4, 1)
    assert plans.width == 7
    assert plans.weights().shape == m.shape


def test_quantize_lines_haar_beats_raw_on_most_rows():
    # weight-domain error of a transformed 4-group plan vs a raw 2-group
    # plan; on rows with smooth structure plus outliers the transform wins
    # on the vast majority (on white noise it is a wash by construction:
    # band variances sum to the row variance)
    from conftest import structured_rows

    rng = np.random.default_rng(67)
    m = structured_rows(rng, 64, 128)
    cfg_h = QuantConfig()
    cfg_r = QuantConfig(haar_enabled=False)
    plans_h = quantize_lines(m, cfg_h)
    plans_r = quantize_lines(m, cfg_r)
    wins = 0
    for ph, pr in zip(plans_h.sse, plans_r.sse):
        haar_weight_sse = 2.0 * (ph[0] + ph[1])
        if haar_weight_sse <= pr[0]:
            wins += 1
    assert wins >= 0.90 * 64


def test_plans_recon_matches_planner_recon():
    # the plans alone rebuild, bit for bit, the reconstruction the scalar
    # reference planner scores, band by band on the transformed lines
    # on short lines and on lines long enough for weights() to gather
    # from its table of output pairs
    rng = np.random.default_rng(71)
    m = rng.normal(size=(8, 32)).astype(np.float32)
    wide = rng.normal(size=(4, 128)).astype(np.float32)
    for cfg, lines in (
        (QuantConfig(), m),
        (QuantConfig(haar_enabled=False), m),
        (QuantConfig(share_mean=False), m),
        (QuantConfig(share_mean=False), m.T),
        (QuantConfig(), wide),
        (QuantConfig(share_mean=False), wide[:, :64]),
    ):
        plans = quantize_lines(lines, cfg)
        lines = np.ascontiguousarray(lines)
        split = lines.shape[1] // 2 if cfg.haar_enabled else lines.shape[1]
        coeffs = haar_fwd_rows(lines) if cfg.haar_enabled else lines
        levels = percentile_levels(cfg.n_candidates)
        ranks = np.array([nearest_rank(lv, split) for lv in levels])
        recon = R.plan_lines(coeffs.reshape(-1, split), ranks, cfg.share_mean)[-1]
        recon = recon.reshape(coeffs.shape)
        assert plans.recon().tobytes() == recon.tobytes()
        synth = haar_inv_rows(recon) if cfg.haar_enabled else recon
        assert plans.weights().tobytes() == synth.tobytes()


# ---------------------------------------------------------------------------
# compute_ciq
# ---------------------------------------------------------------------------


def test_ciq_known_cases():
    assert compute_ciq([1.5, 1.5, 9.5, 9.5, 1.5]).tolist() == [2]
    assert compute_ciq(np.full(64, 3.25)).tolist() == [1]
    assert compute_ciq([1.0, 1.0 + 1e-12, 2.0]).tolist() == [2]
    assert compute_ciq([]).tolist() == [0]


def test_ciq_counts_each_row():
    m = np.array([[1.5, 1.5, 9.5, 9.5], [3.25] * 4, [0.0, 1.0, 2.0, 3.0]])
    assert compute_ciq(m).tolist() == [2, 1, 4]
    assert compute_ciq(m.T).tolist() == [3, 3, 3, 3]
    assert compute_ciq(np.zeros((3, 0))).tolist() == [0, 0, 0]


def test_ciq_tolerance_merges_neighbors():
    t = CIQ_TOLERANCE
    assert compute_ciq([0.0, 0.6 * t, 1.2 * t]).tolist() == [1]  # chain merge
    assert compute_ciq([0.0, 1.1 * t, 2.2 * t]).tolist() == [3]


def test_ciq_single_row_block_bound():
    # per band <= 2 groups x 2 levels = 4 coefficient values; two bands
    # combine through l+h and l-h into at most 4*4*2 = 32 weight values
    rng = np.random.default_rng(73)
    for _ in range(10):
        row = rng.normal(scale=2.0, size=128).astype(np.float32).reshape(1, -1)
        back = quantize_lines(row, QuantConfig()).weights()
        assert compute_ciq(back).max() <= 32


def test_plan_band_rejects_binary16_overflow():
    # deviation scale beyond the binary16 maximum cannot be stored; the
    # planner must fail loudly instead of emitting a zeroed plan
    band = np.array([4e5, -5e5, 3e5, -2e5], dtype=np.float32)
    with pytest.raises(NumericError, match="binary16"):
        plan_band(band)


def test_quantize_lines_rejects_binary16_overflow():
    rng = np.random.default_rng(7)
    m = rng.normal(size=(4, 16)).astype(np.float32)
    m[2] *= 3e5  # one line of overflow-scale weights poisons the batch
    with pytest.raises(NumericError, match="binary16"):
        quantize_lines(m, QuantConfig(haar_enabled=False))
