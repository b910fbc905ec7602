"""Hot numeric kernels: the threshold planner and the binary16 rounder,
vectorized with numpy. The Haar row pair lives in ``haar.py``.

The planner searches one band of a chunk of lines at a time and takes
each line's winning candidate threshold with a first-index argmin. Chunks
are sized so the temporaries stay bounded however many lines a band has.
It has two paths, which store the same bits.

**Screened path** (shared means, the default). The mean, the deviations
dev = |v - mu| and the signs depend only on the line, and each candidate's
sparse set is a suffix of the line's |v| order, starting at the first
index of its threshold's tie run. Prefix sums over that order of dev,
dev·[v >= mu] and [v >= mu] give every candidate's group counts and
deviation sums with one gather, so a band costs O(nv log nv + C) per line
(nv the band width, C the number of candidates) instead of O(nv · C).

- The scales are binary16 roundings of deviation sums over counts. Each
  prefix-sum total carries a float64 error bound; where both ends of that
  interval round to the same binary16 value, the value is exact. The rare
  (line, candidate) whose interval straddles a rounding midpoint or the
  overflow edge has its sum redone in position order.
- The error of a candidate is Σdev² - 2·Σ o·D + Σ n·o² over its four
  (group, sign) cells, where o is the cell's float32 level minus the mean
  (sign-adjusted) and D and n the cell's deviation sum and count. Its
  bound covers both this estimate's rounding and that of the position-
  order sum. Every candidate whose lower bound reaches the line's smallest
  upper bound has its error computed exactly, in position order; the
  winner is the first-index argmin of those exact errors. Any candidate
  left out is strictly worse than one that was kept, so winner, error and
  stored bits are the dense path's.
- Equal ranks are scored once. Of the ranks on one tie run (one sparse
  set) only the first is evaluated exactly and the others share its
  error, so the first index still wins.
- A line whose mean overflows binary16 has no finite candidate; it is
  screened around 0 and gets the zeroed plan.

**Dense path** (``share_mean=False``, whose group means and so whose
deviations depend on the candidate). Every candidate is evaluated on every
position of the chunk in one pass. The per-candidate tensors are
position-major, (band width x lines x candidates): a sum over positions
is then a reduce over axis 0, which adds whole slices in position order.

On either path a line whose every candidate overflows binary16 gets a
zeroed plan on its own, without touching its neighbours.

The planner narrows group scalars to IEEE-754 binary16 (round to nearest,
ties to even) *during* the threshold search, so the selected split minimizes
the error that will actually be stored.

``tests/reference_kernels.py`` holds a scalar, one-line-at-a-time version of
every kernel here and of the Haar row pair; ``tests/test_kernels.py`` checks
these against it bit for bit.
"""

from __future__ import annotations

import numpy as np

# perfbench records these in each result's environment; nothing sets them
HAS_NUMBA = USE_NUMBA = False


def f16_round(x):
    """Vectorized binary16 narrowing: float64 array in, float64 grid values out."""
    with np.errstate(over="ignore"):
        return np.asarray(x, np.float64).astype(np.float16).astype(np.float64)


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
# Every float64 sum that decides a stored bit runs over positions in
# order, starting from +0.0, so the stored bits do not depend on how lines
# are batched. Starting from +0.0 matters for the sign of zero: a band of
# -0.0 values sums to +0.0, and its mean is stored as binary16 0x0000, not
# 0x8000.

# Element budget of one dense evaluation: lines are planned in chunks
# whose (lines x candidates x band width) temporaries hold at most this
# many values (64 lines of a 64-wide band at 40 candidates), so peak memory
# does not grow with the number of lines or the band width.
_CHUNK_VALUES = 64 * 40 * 64

# Element budget of one screen call: its temporaries are (lines x (band
# width + candidates)), and a chunk holds at most this many such values
# (256 lines of a 64-wide band at 40 candidates, a traced peak of ~2.4 MB
# against ~4 MB for a dense chunk).
_SCREEN_VALUES = 256 * (64 + 40)

# The screen's error bounds, in float64 roundings (2**-53) of the line's
# magnitudes, per position of the band plus a constant. Accounting for the
# prefix sums, the cell arithmetic and the position-order sum needs about
# 21·nv + 40 of them; _SLACK · (nv + 8) keeps a margin of three or more,
# and still ranks the candidates to ~1e-12 of a line's error.
_SLACK = 64.0
_ULP = 2.0**-53


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


def _shared_means(v):
    """Each line's binary16 mean: the position-order sum over the width."""
    vt = np.ascontiguousarray(v.T, dtype=np.float64)  # (nv, lines)
    return f16_round(_sum_positions(vt) / v.shape[1])


def _plan_band(v, ranks):
    """Plan one band on every line of ``v`` (lines x band width) at once
    with each group's own mean, evaluating every candidate on every
    position (the dense path).

    Returns per-line (best index, threshold, mu_s, mu_d, al_s, al_d, sse)
    and the per-position (sparse, signs, recon) of the winning candidates.
    """
    n, nv = v.shape
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
        sum_sp = _sum_positions(np.where(sp, vc, 0.0))
        mu_s = f16_round(sum_sp / n_sp)
        mu_d = np.where(n_de > 0, f16_round((total[:, None] - sum_sp) / de_den), 0.0)
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
    return (
        best,
        t[rows, best],
        np.where(ok, mu_s[rows, best], 0.0),
        np.where(ok, mu_d[rows, best], 0.0),
        np.where(ok, al_s[rows, best], 0.0),
        np.where(ok, al_d[rows, best], 0.0),
        np.where(ok, errs[rows, best], np.inf),
        sp[:, rows, best].T,
        np.where(np.where(okc, pos[:, rows, best].T, v64 >= 0.0), 1, -1),
        np.where(okc, rec[:, rows, best].T, np.float32(0.0)),
    )


def _group_sums(v, mu, li, thr, sparse):
    """Position-order sums of dev over the sparse (or dense) group of
    (line ``li``, threshold ``thr``) pairs, one pair per column, as the
    dense path sums them."""
    vs = np.ascontiguousarray(v[li].T, dtype=np.float64)  # (nv, pairs)
    dev = np.abs(vs - mu[li])
    return _sum_positions(np.where((np.abs(vs) >= thr) == sparse, dev, 0.0))


def _scales(v, mu, thr, dsums, counts, width):
    """binary16 of dsums / counts, for the sparse ([0]) and dense ([1])
    groups of every (line, candidate), each sum known to within ``width``.

    Where the two ends of the interval round alike that is the value; the
    other pairs redo their sum in position order. The low end is clamped
    at 0, so a zero sum gives +0.0.
    """
    den = np.maximum(counts, 1)
    lo = f16_round(np.maximum(dsums - width, 0.0) / den)
    hi = f16_round((dsums + width) / den)
    g, li, ki = np.nonzero(lo != hi)
    if li.size:
        exact = _group_sums(v, mu, li, thr[li, ki], g == 0)
        lo[g, li, ki] = f16_round(exact / den[g, li, ki])
    return np.where(counts > 0, lo, 0.0)


def _sorted_sums(v64, mu_c, ranks):
    """Sort each line by |v| and sum over that order.

    Returns per (line, candidate) the threshold and the dense count (the
    first index of the threshold's tie run), the dense group's sums of dev,
    dev·[v >= mu] and [v >= mu] (3, lines, candidates), the same over the
    whole line (3, lines, 1), and the line's Σdev² (lines, 1).
    """
    n, nv = v64.shape
    rc = np.arange(n)[:, None]
    order = np.argsort(np.abs(v64), axis=1)
    vs = v64[rc, order]
    srt = np.abs(vs)
    run = np.zeros((n, nv), np.intp)
    run[:, 1:] = np.where(srt[:, 1:] != srt[:, :-1], np.arange(1, nv), 0)
    n_de = np.maximum.accumulate(run, axis=1)[:, ranks - 1]
    dev = np.abs(vs - mu_c)
    pos = vs >= mu_c
    pre = np.zeros((3, n, nv + 1))
    pre[0, :, 1:] = dev
    np.multiply(dev, pos, out=pre[1, :, 1:])
    pre[2, :, 1:] = pos
    np.cumsum(pre, axis=2, out=pre)
    dense = np.take(pre.reshape(3, -1), n_de + (nv + 1) * rc, axis=1)
    q_all = np.einsum("ij,ij->i", dev, dev)[:, None]
    return srt[:, ranks - 1], n_de, dense, pre[:, :, nv:].copy(), q_all


def _error_bounds(levels, mu_c, nv, n_de, dense, total, q_all, bound):
    """Lower and upper bounds on each candidate's position-order error.

    With o a cell's level minus the mean (sign-adjusted), |v - level| =
    |dev - o| in the cell, so the cell's error is Σdev² + o·(n·o - 2·Σdev).
    The estimate sums that over the four (group, sign) cells. Its bound is
    ``bound`` times the line's magnitudes and covers the rounding of this
    estimate and of the position-order sum.
    """
    (d_de, dp_de, c_de), (d_all, dp_all, c_all) = dense, total
    dp_sp = dp_all - dp_de
    c_sp = c_all - c_de
    cells = (
        (d_de - dp_de, n_de - c_de),
        (dp_de, c_de),
        (d_all - d_de - dp_sp, nv - n_de - c_sp),
        (dp_sp, c_sp),
    )
    o = levels - mu_c
    o[0::2] *= -1.0
    est = np.repeat(q_all, n_de.shape[1], axis=1)
    for oc, (dc, nc) in zip(o, cells):
        est += oc * (nc * oc - 2.0 * dc)
    o_max = np.abs(o).max(axis=0)
    err = bound * (q_all + 2.0 * o_max * d_all + nv * (o_max * o_max))
    return est - err, est + err


def _screen_band(v, ranks_in):
    """Plan one band of ``v`` with one mean per line by the screen; same
    returns as ``_plan_band``."""
    n, nv = v.shape
    rows = np.arange(n)
    rc = rows[:, None]
    # A line whose mean overflows binary16 has no finite candidate. It is
    # screened around 0 instead and gets the zeroed plan below.
    mu = _shared_means(v)
    fin = np.isfinite(mu)
    mu[~fin] = 0.0
    # equal ranks are the same candidate: screen each rank once
    ranks = np.unique(ranks_in)
    inv = np.searchsorted(ranks, ranks_in)
    ncand = ranks.size
    v64 = v.astype(np.float64)
    mu_c = mu[:, None]
    t, n_de, dense, total, q_all = _sorted_sums(v64, mu_c, ranks)
    d_all = total[0]
    bound = _SLACK * (nv + 8) * _ULP
    dsums = np.stack([d_all - dense[0], dense[0]])
    al_s, al_d = _scales(v, mu, t, dsums, np.stack([nv - n_de, n_de]), bound * d_all)
    # a candidate with an overflowed scale or mean has infinite error and
    # never wins
    finite = np.isfinite(al_s) & np.isfinite(al_d) & fin[:, None]
    al_s[~finite] = 0.0
    al_d[~finite] = 0.0

    # the four f32 levels of each candidate, indexed by 2 * sparse + (v >= mu)
    levels = np.empty((4, n, ncand), np.float32)
    for c, al in enumerate((-al_d, al_d, -al_s, al_s)):
        levels[c] = mu_c + al
    lower, upper = _error_bounds(levels, mu_c, nv, n_de, dense, total, q_all, bound)
    upper[~finite] = np.inf
    keep = finite & (lower <= upper.min(axis=1, keepdims=True))
    # candidates on one tie run are one candidate: evaluate the first
    # and give the others its error
    new_run = np.ones(t.shape, bool)
    new_run[:, 1:] = n_de[:, 1:] != n_de[:, :-1]
    keep &= new_run
    first = np.maximum.accumulate(np.where(new_run, np.arange(ncand), 0), axis=1)

    # exact, position-order errors of the candidates that could win
    li, ki = np.nonzero(keep)
    vp = np.ascontiguousarray(v64[li].T)  # (nv, pairs)
    cell = 2 * (np.abs(vp) >= t[li, ki]) + (vp >= mu[li])
    diff = vp - levels[:, li, ki][cell, np.arange(li.size)]
    errs = np.full(t.shape, np.inf)
    errs[li, ki] = _sum_positions(np.square(diff, out=diff))
    errs = errs[rc, first]

    # back to the caller's candidates; first minimum: smaller index wins ties
    best = np.argmin(errs[:, inv], axis=1)
    k = inv[best]
    ok = np.isfinite(errs[rows, k])
    best[~ok] = 0
    k[~ok] = inv[0]
    okc = ok[:, None]
    sparse = np.abs(v64) >= t[rows, k][:, None]
    rec = levels[:, rows, k].T[rc, 2 * sparse + (v64 >= mu_c)]
    return (
        best,
        t[rows, k],
        np.where(ok, mu, 0.0),
        np.where(ok, mu, 0.0),
        np.where(ok, al_s[rows, k], 0.0),
        np.where(ok, al_d[rows, k], 0.0),
        np.where(ok, errs[rows, k], np.inf),
        sparse,
        np.where(np.where(okc, v64 >= mu_c, v64 >= 0.0), 1, -1),
        np.where(okc, rec, np.float32(0.0)),
    )


def _band_plans(v, ranks, share):
    """Yield (lines, plan) pairs that cover the band ``v`` in chunks of
    lines: the screen plans shared-mean bands, the dense path the rest."""
    n, nv = v.shape
    if share:
        plan, step = _screen_band, _SCREEN_VALUES // (nv + len(ranks))
    else:
        plan, step = _plan_band, _CHUNK_VALUES // (nv * len(ranks))
    step = max(1, step)
    for i in range(0, n, step):
        yield slice(i, i + step), plan(v[i : i + step], ranks)


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
        for rs, out in _band_plans(lines[:, lo:hi], ranks, share):
            for dst, src in zip(per_line, out[:7]):
                dst[rs, b] = src
            for dst, src in zip(per_pos, out[7:]):
                dst[rs, lo:hi] = src
    return thr_idx, thr_val, mu_sp, mu_de, al_sp, al_de, sse, sparse, signs, recon
