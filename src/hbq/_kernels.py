"""Hot numeric kernels: the threshold planner, the row Haar pair and the
binary16 rounder, vectorized with numpy.

The planner evaluates one band of a whole chunk of lines in a single pass,
with chunks sized so the temporaries stay bounded, and takes each line's
winner with a first-index argmin. Its per-candidate tensors are
position-major, (band width x lines x candidates): a sum over positions is
then a reduce over axis 0, which adds whole slices in position order and
writes only the (lines x candidates) result. With shared means the mean,
the deviations and the signs depend only on the line, so they are computed
once per (position, line). A line whose every candidate overflows binary16
gets a zeroed plan on its own, without touching its neighbours.

The planner narrows group scalars to IEEE-754 binary16 (round to nearest,
ties to even) *during* the threshold search, so the selected split minimizes
the error that will actually be stored.

``tests/reference_kernels.py`` holds a scalar, one-line-at-a-time version of
every kernel here; ``tests/test_kernels.py`` checks these against it bit for
bit.
"""

from __future__ import annotations

import numpy as np

# perfbench records these in each result's environment; nothing sets them
HAS_NUMBA = USE_NUMBA = False

_HALF = np.float32(0.5)


def f16_round(x):
    """Vectorized binary16 narrowing: float64 array in, float64 grid values out."""
    with np.errstate(over="ignore"):
        return np.asarray(x, np.float64).astype(np.float16).astype(np.float64)


# ---------------------------------------------------------------------------
# single-level Haar along rows
# ---------------------------------------------------------------------------


def haar_fwd_rows(m: np.ndarray) -> np.ndarray:
    h = m.shape[1] // 2
    out = np.empty_like(m)
    out[:, :h] = (m[:, 0::2] + m[:, 1::2]) * _HALF
    out[:, h:] = (m[:, 0::2] - m[:, 1::2]) * _HALF
    return out


def haar_inv_rows(c: np.ndarray) -> np.ndarray:
    h = c.shape[1] // 2
    out = np.empty_like(c)
    out[:, 0::2] = c[:, :h] + c[:, h:]
    out[:, 1::2] = c[:, :h] - c[:, h:]
    return out


# ---------------------------------------------------------------------------
# band planner: threshold search + sign binarization
# ---------------------------------------------------------------------------
#
# Lines are matrix rows. Each line is split at band_split into two bands
# (band_split == line length means one band covering the raw line). Per
# band, every candidate threshold t = sorted(|band|)[rank-1] splits
# positions into sparse (|c| >= t) and dense (|c| < t); group means (pooled
# when share_mean) and mean-absolute-deviation scales are narrowed to
# binary16, signs are taken against the narrowed mean with sign(0) = +1,
# and the candidate with the smallest narrowed reconstruction SSE wins
# (first index on ties). Empty dense groups degenerate to single-group
# binarization and store mu = alpha = 0.
#
# Every float64 sum runs over positions in order, starting from +0.0, so
# the stored bits do not depend on how lines are batched. Starting from
# +0.0 matters for the sign of zero: a band of -0.0 values sums to +0.0,
# and its mean is stored as binary16 0x0000, not 0x8000.

# Element budget of one batched evaluation: lines are planned in chunks
# whose (lines x candidates x band width) temporaries hold at most this
# many values (64 lines of a 64-wide band at 40 candidates), so peak memory
# does not grow with the number of lines or the band width.
_CHUNK_VALUES = 64 * 40 * 64


def _sum_positions(a):
    """Sum ``a`` over axis 0 in position order, starting from +0.0.

    This is the scan ``0.0 + a[0] + a[1] + ...``. On a C-contiguous array
    numpy reduces the outer axis by adding whole slices in order, writing
    no full-size output. It switches to pairwise summation only when the
    summed axis is all that is left (one line and one candidate), so that
    case goes through ``cumsum``. Adding +0.0 maps an all ``-0.0`` sum to
    ``+0.0`` and changes no other value.
    """
    if a.size == a.shape[0]:
        return np.cumsum(a, axis=0)[-1] + 0.0
    return np.add.reduce(a, axis=0) + 0.0


def _plan_band(v, ranks, share):
    """Plan one band on every line of ``v`` (lines x band width) at once.

    Returns per-line (best index, threshold, mu_s, mu_d, al_s, al_d, sse)
    and the per-position (sparse, signs, recon) of the winning candidates.
    """
    n, nv = v.shape
    ncand = ranks.shape[0]
    rows = np.arange(n)
    v64 = v.astype(np.float64)
    t = np.sort(np.abs(v64), axis=1)[:, ranks - 1]  # (lines, candidates)

    # Position-major: per-candidate tensors are (band width, lines,
    # candidates), so every sum over positions is a _sum_positions over
    # axis 0, in position order.
    vt = np.ascontiguousarray(v64.T)  # (nv, lines)
    vc = vt[:, :, None]
    sp = np.abs(vc) >= t
    n_sp = np.add.reduce(sp, axis=0, dtype=np.intp)
    n_de = nv - n_sp
    de_den = np.maximum(n_de, 1)
    total = _sum_positions(vt)  # (lines,)
    # a candidate whose scalars overflow binary16 gets inf or nan scalars
    # and a non-finite error; the selection below discards it
    with np.errstate(over="ignore", invalid="ignore"):
        if share:
            # one mean per line: deviations and signs do not depend on
            # the candidate, and the sparse sum is never read
            mu = f16_round(total / nv)
            mu_s = mu_d = np.broadcast_to(mu[:, None], t.shape)
            pos = vt >= mu  # (nv, lines)
            dev = np.abs(vc - mu[:, None])
        else:
            sum_sp = _sum_positions(np.where(sp, vc, 0.0))
            mu_s = f16_round(sum_sp / n_sp)
            mu_d = np.where(
                n_de > 0, f16_round((total[:, None] - sum_sp) / de_den), 0.0
            )
            mu_pos = np.where(sp, mu_s, mu_d)
            pos = vc >= mu_pos
            dev = np.abs(vc - mu_pos, out=mu_pos)
        part = np.where(sp, dev, 0.0)
        al_s = f16_round(_sum_positions(part) / n_sp)
        # dense part: x - x = 0 and x - 0 = x are exact (an infinite
        # deviation comes only from an overflowed mean, discarded below)
        part = np.subtract(dev, part, out=part)
        al_d = np.where(n_de > 0, f16_round(_sum_positions(part) / de_den), 0.0)
        del dev, part

        # The four reconstruction levels of each (line, candidate), narrowed
        # to f32 once, indexed by 2 * sparse + (v >= mu).
        levels = np.stack(
            [mu_d - al_d, mu_d + al_d, mu_s - al_s, mu_s + al_s], axis=-1
        ).astype(np.float32)  # (lines, candidates, 4)
        if share:
            # pos is per (position, line): gather whole candidate rows
            table = levels.transpose(0, 2, 1).reshape(n * 4, ncand)
            dense_row = 4 * rows + pos
            rec = np.take(table, dense_row, axis=0)
            np.copyto(rec, np.take(table, dense_row + 2, axis=0), where=sp)
        else:
            rec = np.where(
                sp,
                np.where(pos, levels[..., 3], levels[..., 2]),
                np.where(pos, levels[..., 1], levels[..., 0]),
            )
        diff = vc - rec
        errs = _sum_positions(np.square(diff, out=diff))  # (lines, candidates)

    # Candidates whose scalars overflow binary16 have inf/nan error and
    # never win. A line on which every candidate overflows gets a zeroed
    # plan with infinite sse (callers reject it before anything is stored);
    # its neighbours keep their own winners.
    pick = np.where(np.isnan(errs), np.inf, errs)
    best = np.argmin(pick, axis=1)  # first minimum: smaller index wins ties
    ok = np.isfinite(pick[rows, best])
    best[~ok] = 0
    okc = ok[:, None]
    pos_best = pos.T if share else pos[:, rows, best].T
    return (
        best,
        t[rows, best],
        np.where(ok, mu_s[rows, best], 0.0),
        np.where(ok, mu_d[rows, best], 0.0),
        np.where(ok, al_s[rows, best], 0.0),
        np.where(ok, al_d[rows, best], 0.0),
        np.where(ok, errs[rows, best], np.inf),
        sp[:, rows, best].T,
        np.where(np.where(okc, pos_best, v64 >= 0.0), 1, -1),
        np.where(okc, rec[:, rows, best].T, np.float32(0.0)),
    )


def plan_lines(lines, band_split, ranks0, ranks1, share):
    """Plan every line of ``lines`` (lines x width), band by band.

    ranks0 and ranks1 are the 1-based nearest ranks of the candidate
    thresholds in the first and second band. Returns per (line, band)
    thr_idx, thr_val, mu_sp, mu_de, al_sp, al_de and sse, each with two
    band columns (the second unused when band_split == width), and per
    position sparse, signs and recon.
    """
    n_lines, d = lines.shape
    nbands = 1 if band_split >= d else 2
    thr_idx = np.zeros((n_lines, 2), np.uint8)
    thr_val = np.zeros((n_lines, 2), np.float32)
    mu_sp = np.zeros((n_lines, 2), np.float32)
    mu_de = np.zeros((n_lines, 2), np.float32)
    al_sp = np.zeros((n_lines, 2), np.float32)
    al_de = np.zeros((n_lines, 2), np.float32)
    sse = np.zeros((n_lines, 2), np.float64)
    sparse = np.zeros((n_lines, d), np.uint8)
    signs = np.zeros((n_lines, d), np.int8)
    recon = np.zeros((n_lines, d), np.float32)
    per_line = (thr_idx, thr_val, mu_sp, mu_de, al_sp, al_de, sse)
    per_pos = (sparse, signs, recon)
    for b in range(nbands):
        if b == 0:
            lo, hi, ranks = 0, (band_split if nbands == 2 else d), ranks0
        else:
            lo, hi, ranks = band_split, d, ranks1
        step = max(1, _CHUNK_VALUES // (len(ranks) * (hi - lo)))
        for i in range(0, n_lines, step):
            rs = slice(i, i + step)
            out = _plan_band(lines[rs, lo:hi], ranks, share)
            for dst, src in zip(per_line, out[:7]):
                dst[rs, b] = src
            for dst, src in zip(per_pos, out[7:]):
                dst[rs, lo:hi] = src
    return thr_idx, thr_val, mu_sp, mu_de, al_sp, al_de, sse, sparse, signs, recon
