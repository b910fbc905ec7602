"""The numpy kernels and the Haar row pair against the scalar reference in
reference_kernels.py.

They must agree bit for bit, not merely to tolerance: the reference scan
defines the bits a container stores, and the batched planner must store
the same ones however its lines are chunked."""

import numpy as np
import pytest
from conftest import structured_rows
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import reference_kernels as R
from hbq import _kernels as K
from hbq.config import nearest_rank, percentile_levels
from hbq.grouping import LinePlans
from hbq.haar import haar_fwd_rows, haar_inv_rows
from hbq.salient import column_scores, fill_avg, top_k_mask


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
        fwd = haar_fwd_rows(m)
        assert np.array_equal(fwd_ref, fwd)
        inv_ref = R.haar_inv_rows(fwd_ref)
        inv = haar_inv_rows(fwd)
        assert np.array_equal(inv_ref, inv)


def _trial_lines(rng, kind, n, d):
    if kind == "plateau":
        base = rng.normal(size=(n, -(-d // 4)))
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


def _plan(lines, split, ranks, share):
    """K.plan_lines on every band as a row of its own (a line split at
    split holds two), its outputs viewed back per (line, band) and per
    (line, position), then the reconstruction LinePlans.recon() makes of
    them: the reference's output order."""
    n = lines.shape[0]
    out = K.plan_lines(lines.reshape(-1, split), ranks, share)
    out = [a.reshape(n, -1) for a in out]
    return (*out, LinePlans(*out).recon())


def _assert_matches_reference(lines, split, share, n_candidates=40, ranks=None):
    n, d = lines.shape
    if ranks is None:
        ranks = _ranks(split, n_candidates)
    want = R.plan_lines(lines.reshape(-1, split), ranks, share)
    want = [a.reshape(n, -1) for a in want]
    out = _plan(lines, split, ranks, share)
    for got, ref in zip(out, want, strict=True):
        _assert_same_bits(got, ref, (d, split, share))
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
    for share in (True, False):
        out = _assert_matches_reference(lines, 4, share)
        thr_idx, _thr, mu_sp, mu_de, al_sp, al_de, sse, _sp, signs, recon = out
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
    for share in (True, False):
        out = _assert_matches_reference(lines, 8, share)
        sse, recon = out[6], out[9]
        assert np.isfinite(sse[0, 0])
        assert np.any(recon != 0.0)


def test_plan_lines_across_chunk_boundaries(monkeypatch):
    # shrink the screen's budget to 5 band rows 8 wide, so the 46 band rows
    # of 23 lines cross nine chunk boundaries, the last chunk a partial
    # one, with sharing on and off. Band row 2i is line i's low band and
    # 2i + 1 its high band, so the chunks starting at rows 5, 15, 25, 35
    # and 45 split a line between its two bands. With shared means every
    # other line's low band and every fourth line's high band have a mean
    # that overflows binary16, so each chunk mixes zeroed plans with
    # finite ones.
    monkeypatch.setattr(K, "_SCREEN_VALUES", 5 * (8 + 40))
    rng = np.random.default_rng(4)
    for kind in ("gauss", "plateau", "spiky"):
        lines = _trial_lines(rng, kind, 23, 16)
        _assert_matches_reference(lines, 8, False)
        lines[::2, :8] += np.float32(1e5)
        lines[1::4, 8:] -= np.float32(1e5)
        out = _assert_matches_reference(lines, 8, True)
        assert np.all(np.isinf(out[6][::2, 0]))
        assert np.all(np.isinf(out[6][1::4, 1]))


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
            for i in range(lines.shape[0]):
                alone = _plan(lines[i : i + 1], split, _ranks(split), share)
                for got, want in zip(out, alone, strict=True):
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
    # sum, from 0.0, of the squared errors of the plan's reconstruction.
    rng = np.random.default_rng(7)
    lines = rng.normal(size=(3, 64)).astype(np.float32)
    for n_lines in (1, 3):
        for n_candidates in (1, 40):
            for share in (True, False):
                out = _plan(lines[:n_lines], 64, _ranks(64, n_candidates), share)
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


# ---------------------------------------------------------------------------
# The screen: its prefix-sum estimates must never change a stored bit,
# with shared means or each group's own. Each case below is checked
# against the reference scan.
# ---------------------------------------------------------------------------


def test_screen_exact_ties_between_candidates():
    # Plateau lines put many candidates on one tie run (the same sparse
    # set); 256 candidates on narrow bands repeat ranks. Tied candidates
    # have equal errors, and the first index must win.
    rng = np.random.default_rng(8)
    for d in (1, 2, 3, 4, 5, 8, 16):
        for kind in ("plateau", "gauss"):
            lines = _trial_lines(rng, kind, 4, d)
            for n_candidates in (40, 256):
                for share in (True, False):
                    _assert_matches_reference(lines, d, share, n_candidates)
    # Different sparse sets, equal errors: every candidate's group means
    # are 0 and it rounds both scales to 1.0, so all 40 reconstruct the
    # line alike and index 0 wins.
    e = np.float32(1.0 - 2.0**-14)
    line = np.array([[1, -1, 1, -1, 1, -1, e, -e]], np.float32)
    for share in (True, False):
        thr_idx, thr_val, *_ = _assert_matches_reference(line, 8, share)
        assert thr_idx[0, 0] == 0 and thr_val[0, 0] == e
    # The same with noise: mean 1, and every deviation within 2**-25 of 1,
    # so every candidate stores both scales as 1.0 and levels {0, 2}, and
    # all tie exactly. The deviations of the tiny values are not exact in
    # float64, so the lower bounds of the tied candidates differ in their
    # last bits and the best one falls on a later candidate; candidate 0
    # is scored only because its bound reaches that candidate's error.
    tiny = [-5.329719345438348e-14, 2.945602789461432e-11, -4.2149633392926655e-14,
            1.4345733531217347e-13, 1.76237868743101e-08, 2.825554373808714e-11,
            6.146613843989804e-14]
    line = np.array([[2, 0, tiny[0], 2, tiny[1], tiny[2], 2, tiny[3], 2, tiny[4],
                      2, 2, tiny[5], 2, 2, tiny[6]]], np.float32)
    thr_idx, *_, recon = _assert_matches_reference(line, 16, True)
    assert thr_idx[0, 0] == 0
    assert set(recon[0].tolist()) == {0.0, 2.0}
    _assert_matches_reference(line, 16, False)


def test_screen_scale_on_binary16_midpoint():
    # The sparse deviations sum to exactly 5 * (1 + 2**-11) in position
    # order, where the tiny values are lost against the running total, so
    # the scale sits on the midpoint between binary16 1.0 and 1 + 2**-10 and
    # ties to even (1.0). Summed smallest first, the tiny values survive and
    # the quotient lands above the midpoint: the screen must redo the sum.
    a = 10245 / 4096  # 2.5 * (1 + 2**-11)
    s, tiny = 2.0**-52, 2.0**-60
    line = np.array([[a, -a, s, s, s, tiny, -tiny, 0.0]], np.float32)
    by_size = 0.0
    for x in sorted(abs(float(x)) for x in line[0, 2:5]) + [a, a]:
        by_size += x
    assert by_size / 5 > 1 + 2.0**-11
    out = _assert_matches_reference(line, 8, True, n_candidates=1)
    assert out[4][0, 0] == 1.0  # al_sp


def test_screen_plateau_and_small_integer_lines():
    rng = np.random.default_rng(9)
    for d, split in ((8, 4), (16, 8), (64, 32), (33, 33)):
        plateau = _trial_lines(rng, "plateau", 6, d)
        ints = rng.integers(-3, 4, size=(6, d)).astype(np.float32)
        ints[0] = 0.0
        ints[1] = 2.0
        for lines in (plateau, ints, ints * np.float32(2.0**-20)):
            for n_candidates in (2, 7, 40):
                for share in (True, False):
                    _assert_matches_reference(lines, split, share, n_candidates)


def test_screen_large_mean_tiny_spread_lines():
    # deviations far below the mean: the binary16 mean is off by up to half
    # its grid step, and every deviation is a small difference of big values
    rng = np.random.default_rng(10)
    for mean in (1000.0, 1000.25, -3e4, 6.5e4):
        lines = (mean + rng.normal(size=(5, 32)) * 1e-3).astype(np.float32)
        lines[0, 0] += np.float32(0.5)
        for share in (True, False):
            _assert_matches_reference(lines, 16, share)
            _assert_matches_reference(lines, 32, share, n_candidates=256)


def test_screen_own_mean_sign_of_zero():
    # Each line's winning dense group is its four tiny values. Their
    # position-order sum is a tiny negative in the first line, so the
    # dense mean is -0.0 (stored as 0x8000), and a tiny positive in the
    # second (+0.0). The mean's interval then spans zeros of both signs,
    # which must send the sum to be redone in position order.
    lines = np.array(
        [[3, -3, 2.5, -2.5, -1e-30, 1e-31, -2e-30, 0],
         [3, -3, 2.5, -2.5, 1e-30, -1e-31, 2e-30, 0]],
        np.float32,
    )
    for row in (lines[:1], lines[1:]):
        _assert_matches_reference(row, 8, False)
    out = _assert_matches_reference(lines, 8, False)
    mu_de = out[3][:, 0]
    assert mu_de.tolist() == [0.0, 0.0]
    assert np.signbit(mu_de).tolist() == [True, False]


def test_screen_own_mean_on_binary16_midpoint():
    # In position order the tiny part 2**-43 of d is lost against A, so the
    # dense mean's sum, total - sparse sum, is exactly d - 2**-43: the
    # midpoint between binary16 16 and 17 times 2**-24, which ties to even
    # (16). The screen's own dense sums keep it and land above the midpoint,
    # so the mean must come from the position-order sum.
    a = np.float32(1024.0)
    d = np.float32(2.0**-20 + 2.0**-25 + 2.0**-43)
    assert float(d) == 2.0**-20 + 2.0**-25 + 2.0**-43
    line = np.array([[a, d, -a]], np.float32)
    total = 0.0
    for x in line[0]:
        total += float(x)
    assert total == 2.0**-20 + 2.0**-25
    out = _assert_matches_reference(line, 3, False)
    assert out[3][0, 0] == 2.0**-20  # mu_de
    assert out[2][0, 0] == 0.0 and out[4][0, 0] == 1024.0  # mu_sp, al_sp


def test_screen_own_mean_at_the_threshold():
    # The dense values lie just inside the threshold 1, and their binary16
    # mean rounds onto it (to -1 in the second line), so every dense value
    # is on the same side of its group's mean. The winning split
    # reconstructs every value exactly.
    e = np.float32(1.0 - 2.0**-20)
    lines = np.array(
        [[1, -1, 1, -1, e, e, e, e], [1, -1, 1, -1, -e, -e, -e, -e]],
        np.float32,
    )
    out = _assert_matches_reference(lines, 8, False)
    assert out[3][:, 0].tolist() == [1.0, -1.0]  # mu_de
    assert np.array_equal(out[9], lines)
    assert np.all(out[6] == 0.0)


def test_screen_own_means_one_sided_sparse_group():
    # Every sparse value on one side of zero: sorted by value, the sparse
    # group is one run at either end of the line, with no part on the
    # other side of the dense group.
    rng = np.random.default_rng(11)
    dense = rng.normal(size=(4, 8)) * 0.1
    spikes = rng.uniform(4.0, 8.0, size=(4, 4))
    for sign in (1.0, -1.0):
        lines = np.hstack([sign * spikes, dense]).astype(np.float32)
        lines = lines[:, rng.permutation(12)]
        for n_candidates in (7, 40):
            _assert_matches_reference(lines, 12, False, n_candidates)


_values = st.one_of(
    st.floats(width=32, allow_nan=False, allow_infinity=False),
    st.floats(-4.0, 4.0, width=32),
    st.integers(-4, 4).map(float),
)


@st.composite
def _planner_inputs(draw):
    d = draw(st.integers(1, 16))
    n = draw(st.integers(1, 3))
    vals = draw(st.lists(_values, min_size=n * d, max_size=n * d))
    lines = np.array(vals, np.float32).reshape(n, d)
    # one band, or two equal bands
    split = draw(st.sampled_from((d, d // 2) if d % 2 == 0 else (d,)))
    if draw(st.booleans()):
        ranks = _ranks(split, draw(st.sampled_from((1, 2, 7, 40, 256))))
    else:  # any ranks, in any order, repeats included
        drawn = st.lists(st.integers(1, split), min_size=1, max_size=12)
        ranks = np.array(draw(drawn), np.int64)
    return lines, split, ranks


@settings(
    max_examples=200,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(_planner_inputs())
def test_screen_matches_reference_on_random_lines(case):
    lines, split, ranks = case
    for share in (True, False):
        _assert_matches_reference(lines, split, share, ranks=ranks)


def test_plan_lines_on_shuffled_grid_ranks_matches_reference():
    # A grid's nearest ranks come in nondecreasing order, so equal ranks are
    # neighbours and each run of them is screened once, as np.unique would
    # find them. Shuffled, some equal ranks are apart and screened twice;
    # the plans must still be the reference's.
    grid = _ranks(8, 256)
    distinct, inv = K._distinct(grid)
    want, want_inv = np.unique(grid, return_inverse=True)
    assert np.array_equal(distinct, want) and np.array_equal(inv, want_inv)
    rng = np.random.default_rng(15)
    for _ in range(60):
        nv = int(rng.choice([4, 8, 16]))
        ranks = rng.permutation(_ranks(nv, int(rng.choice([40, 256]))))
        assert K._distinct(ranks)[0].size > np.unique(ranks).size
        lines = _trial_lines(rng, str(rng.choice(["gauss", "plateau", "spiky"])), 3, nv)
        for share in (True, False):
            _assert_matches_reference(lines, nv, share, ranks=ranks)


# ---------------------------------------------------------------------------
# The lower bound. The screen rounds and scores a line's best-bound
# candidate, then only the candidates whose bound reaches its error, so no
# bound may exceed its candidate's exact error.
# ---------------------------------------------------------------------------


def _record(name, rows, ranks, share):
    """Plan ``rows`` once; what K.<name> returned, call after call."""
    seen = []
    real = getattr(K, name)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(K, name, lambda *a: seen.append(real(*a)) or seen[-1])
        K.plan_lines(rows, ranks, share)
    return seen


def _bounds(rows, ranks, share):
    """The screen's lower bound of every (band row, candidate)."""
    return np.vstack(_record("_lower_bounds", rows, ranks, share))


def _assert_bounds_sound(lines, split, share, ranks=None):
    # The screen bounds each distinct rank once, in ascending order. The
    # reference planner given one rank alone returns its exact error.
    rows = lines.reshape(-1, split)
    ranks = np.unique(_ranks(split) if ranks is None else ranks)
    lower = _bounds(rows, ranks, share)
    exact = np.stack(
        [R.plan_lines(rows, ranks[k : k + 1], share)[6] for k in range(ranks.size)],
        axis=1,
    )
    fin = np.isfinite(exact)
    assert np.all(lower[fin] <= exact[fin]), (share, lower[fin] - exact[fin])


@settings(
    max_examples=200,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(_planner_inputs())
def test_lower_bound_never_exceeds_exact_error_on_random_lines(case):
    lines, split, ranks = case
    for share in (True, False):
        _assert_bounds_sound(lines, split, share, ranks)


def test_lower_bound_never_exceeds_exact_error_on_adversarial_lines():
    rng = np.random.default_rng(12)
    a = 10245 / 4096
    e = 1.0 - 2.0**-20
    wide = rng.normal(size=(2, 64)) * 10.0 ** rng.uniform(-3, 3, (2, 64))
    families = {
        "plateau": _trial_lines(rng, "plateau", 4, 16),
        "small integers": rng.integers(-3, 4, size=(4, 16)),
        "large mean, tiny spread": np.vstack(
            [mean + rng.normal(size=(2, 16)) * 1e-3
             for mean in (1000.0, 1000.25, -3e4, 6.5e4)]
        ),
        # Beside 2048 float32 levels are 2**-13 or 2**-12 apart, as far
        # apart as the values. Rounding m - a and m + a unevenly can then
        # fit the line better than the best symmetric levels: the float32
        # narrowing is what the bound's slack must cover here.
        "float32 grid spread": [
            2048.0 + np.array([-10, 30, -10, -20, 20, -20, -10, 10]) * 2.0**-13
        ],
        "binary16 midpoint scale": [[a, -a, 2.0**-52, 2.0**-52, 2.0**-52,
                                     2.0**-60, -(2.0**-60), 0.0]],
        "binary16 midpoint mean": [[1024.0, 2.0**-20 + 2.0**-25 + 2.0**-43,
                                    -1024.0]],
        "mean on the threshold": [[1, -1, 1, -1, e, e, e, e],
                                  [1, -1, 1, -1, -e, -e, -e, -e]],
        "overflow": [[4e5, -5e5, 3e5, -2e5, 4e5, -5e5, 3e5, -2e5],
                     [99000.0, -99000.0, 50.0, -50.0, 25.0, -25.0, 10.0, -10.0],
                     [7e4] * 8],
        "-0.0": [[-0.0] * 8, [-0.0, -0.0, -0.0, -0.0, 0.0, -0.0, 3.0, -1.5],
                 [3, -3, 2.5, -2.5, -1e-30, 1e-31, -2e-30, 0]],
        "wide dynamic range": wide,
    }
    for name, lines in families.items():
        lines = np.asarray(lines, np.float32)
        for share in (True, False):
            for n_candidates in (40, 256):
                _assert_bounds_sound(lines, lines.shape[1], share,
                                     _ranks(lines.shape[1], n_candidates))


def test_screen_scores_candidates_past_the_best_bound():
    # Two different sparse sets with nearly the same bound: the binary16
    # scales of the one with the best bound lose more to rounding, so the
    # winner is another candidate, which only the second scoring round,
    # over the bounds that reach the first's error, finds.
    line = np.array([[6, 2, 0, -6, 4, -3]], np.float32) * np.float32(0.37)
    ranks = np.unique(_ranks(6))
    for share in (True, False):
        thr_idx = _assert_matches_reference(line, 6, share, ranks=ranks)[0]
        lower = _bounds(line, ranks, share)[0]
        assert np.argmin(lower) != thr_idx[0, 0]
        _assert_bounds_sound(line, 6, share, ranks)


def test_screen_at_benchmark_band_widths():
    # The bound's slack grows with the band width, and the random lines
    # above are at most 16 wide. These are Haar bands 64 and 128 wide of
    # weight-like rows, as a block 128 or 256 wide is planned, with and
    # without its most salient columns filled in, at 40 candidates.
    rng = np.random.default_rng(13)
    for nv in (64, 128):
        rows = structured_rows(rng, 6, 2 * nv)
        filled = fill_avg(rows, top_k_mask(column_scores(rows), 8))
        for w in (rows, filled):
            lines = haar_fwd_rows(w)
            for share in (True, False):
                _assert_matches_reference(lines, nv, share)
                _assert_bounds_sound(lines, nv, share)
                # the bound is tight enough to leave one candidate a row
                # the scales; own means come back (2, lines, candidates)
                calls = _record("_f16_quotients", lines.reshape(-1, nv), _ranks(nv), share)
                scales = [a for a in calls if a.ndim == 2]
                assert sum(a.shape[1] for a in scales) == 2 * lines.shape[0]
