"""Hot numeric kernels: the threshold planner and the binary16 rounder,
vectorized with numpy. The Haar row pair lives in ``haar.py``.

The planner takes rows of one width, each row one band (the caller
reshapes a line's Haar bands into rows of their own), screens a chunk of
rows at a time and takes each row's winning candidate threshold with a
first-index argmin. Chunks are sized so the temporaries stay bounded
however many rows there are. A row costs O(nv log nv + C) (nv the band
width, C the number of candidates), with group means shared or each
group's own. Below, a "line" is one such row.

- **Sums over the |v| order.** Each candidate's sparse set is a suffix of
  the line's |v| order, starting at the first index of its threshold's tie
  run. With c the line's binary16 mean (the shared mean), prefix sums over
  that order of dev = |v - c|, dev·[v >= c] and [v >= c] give every
  candidate's group counts and sums with one gather.
- **Own means** (``share_mean=False``). A group's sum of x = v - c is
  2·Σdev·[v >= c] - Σdev, which gives its binary16 mean by the interval
  test below. Sorted by value, a line's dense group is the run of values
  between -t and t, and the values below a mean are a prefix, so prefix
  sums of x over the value order re-split each group at its own mean into
  the same (dev, dev·pos, pos) sums, relative to c. The scales' deviation
  sums follow as Σdev - y·(2·npos - n), with y the group mean minus c.
- **Binary16 scalars.** Means and scales are binary16 roundings of sums
  over counts. Each sum carries a float64 error bound; where both ends of
  that interval round to the same binary16 value, sign of zero included,
  the value is exact. The rare (line, candidate) whose interval straddles
  a rounding midpoint or the overflow edge has its sum redone in position
  order.
- **Errors.** The error of a candidate is Σx² - 2·Σ o·D + Σ n·o² over its
  four (group, sign) cells, where o is the cell's float32 level minus c
  (sign-adjusted) and D and n the cell's sum and count. Its bound covers
  both this estimate's rounding and that of the position-order sum. Every
  candidate whose lower bound reaches the line's smallest upper bound has
  its error computed exactly, in position order; the winner is the
  first-index argmin of those exact errors. Any candidate left out is
  strictly worse than one that was kept, so winner, error and stored bits
  are those of evaluating every candidate on every position.
- **Ties.** Equal ranks are scored once. Of the ranks on one tie run (one
  sparse set) only the first is evaluated exactly and the others share
  its error, so the first index still wins.

A line whose every candidate overflows binary16 gets a zeroed plan on its
own, without touching its neighbours. With shared means that includes a
line whose mean overflows; it is screened around 0.

The planner narrows group scalars to IEEE-754 binary16 (round to nearest,
ties to even) *during* the threshold search, so the selected split minimizes
the error that will actually be stored.

``tests/reference_kernels.py`` holds a scalar, one-line-at-a-time version of
every kernel here and of the Haar row pair; ``tests/test_kernels.py`` checks
these against it bit for bit. Its planner takes whole lines and a band
split, so the tests hand this one the same lines reshaped to band rows.
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
# Each row is one band. Every candidate threshold t = sorted(|band|)[rank-1]
# splits positions into sparse (|c| >= t) and dense (|c| < t); group means
# (pooled when share_mean) and mean-absolute-deviation scales are narrowed to
# binary16, signs are taken against the narrowed mean with sign(0) = +1,
# and the candidate with the smallest narrowed reconstruction SSE wins
# (first index on ties). Empty dense groups degenerate to single-group
# binarization and store mu = alpha = 0.
#
# Every float64 sum that decides a stored bit runs over positions in
# order, starting from +0.0, so the stored bits do not depend on how lines
# are batched. Starting from +0.0 matters for the sign of zero: a band of
# -0.0 values sums to +0.0, and its mean is stored as binary16 0x0000, not
# 0x8000. A small negative sum still gives a -0.0 mean (0x8000).

# Element budget of one screen call: its temporaries are (lines x (band
# width + candidates)), and a chunk holds at most this many such values
# (256 lines of a 64-wide band at 40 candidates, a traced peak of ~2.4 MB
# with shared means).
_SCREEN_VALUES = 256 * (64 + 40)

# The screen's error bounds, in float64 roundings (2**-53) of the line's
# magnitudes, per position of the band plus a constant. Accounting for the
# prefix sums, the cell arithmetic and the position-order sum needs about
# 21·nv + 40 of them with shared means, and about twice that for own
# means, whose cell sums combine up to six prefix sums; _SLACK · (nv + 8)
# keeps a margin, and still ranks the candidates to ~1e-12 of a line's
# error.
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


def _group_sums(v, li, thr, sparse, mu=None):
    """Position-order sums over the sparse (or dense) group of (line
    ``li``, threshold ``thr``) pairs, one pair per column: of |v - mu|,
    with ``mu`` per pair, or of v itself when ``mu`` is None."""
    vs = np.ascontiguousarray(v[li].T, dtype=np.float64)  # (nv, pairs)
    term = vs if mu is None else np.abs(vs - mu)
    return _sum_positions(np.where((np.abs(vs) >= thr) == sparse, term, 0.0))


def _scales(v, means, thr, dsums, counts, width):
    """binary16 of dsums / counts, for the dense ([0]) and sparse ([1])
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
        exact = _group_sums(v, li, thr[li, ki], g == 1, means[g, li, ki])
        lo[g, li, ki] = f16_round(exact / den[g, li, ki])
    return np.where(counts > 0, lo, 0.0)


def _sorted_sums(v64, c, ranks):
    """Sort each line by |v| and sum over that order.

    Returns per (line, candidate) the threshold and the dense count (the
    first index of the threshold's tie run); the sums of dev, dev·[v >= c]
    and [v >= c] over the dense and the sparse group (2, 3, lines,
    candidates); and the line's Σdev and Σdev² (lines, 1).
    """
    n, nv = v64.shape
    rc = np.arange(n)[:, None]
    order = np.argsort(np.abs(v64), axis=1)
    vs = v64[rc, order]
    srt = np.abs(vs)
    run = np.zeros((n, nv), np.intp)
    run[:, 1:] = np.where(srt[:, 1:] != srt[:, :-1], np.arange(1, nv), 0)
    n_de = np.maximum.accumulate(run, axis=1)[:, ranks - 1]
    dev = np.abs(vs - c)
    pos = vs >= c
    pre = np.zeros((3, n, nv + 1))
    pre[0, :, 1:] = dev
    np.multiply(dev, pos, out=pre[1, :, 1:])
    pre[2, :, 1:] = pos
    np.cumsum(pre, axis=2, out=pre)
    sums = np.empty((2, 3, n, ranks.size))
    at = n_de + (nv + 1) * rc  # every index is in range; "clip" writes unbuffered
    np.take(pre.reshape(3, -1), at, axis=1, out=sums[0], mode="clip")
    np.subtract(pre[:, :, nv:], sums[0], out=sums[1])
    q_all = np.einsum("ij,ij->i", dev, dev)[:, None]
    return srt[:, ranks - 1], n_de, sums, pre[0, :, nv:].copy(), q_all


def _own_means(v, c, line_sums, thr, counts, sums, width):
    """Each group's own binary16 mean (2, lines, candidates), 0 for an
    empty group.

    Σv of a group is 2·Σdev·[v >= c] - Σdev + n·c, known to within
    ``width``. An interval whose ends round apart, or to zeros of opposite
    sign (a -0.0 mean is stored as 0x8000), has its sum redone in position
    order: the sparse group's directly, the dense group's as the line's
    sum minus it.
    """
    den = np.maximum(counts, 1)
    s = 2.0 * sums[:, 1] - sums[:, 0] + counts * c
    lo = f16_round((s - width) / den)
    hi = f16_round((s + width) / den)
    redo = (lo != hi) | (np.signbit(lo) != np.signbit(hi))
    g, li, ki = np.nonzero(redo & (counts > 0))
    if li.size:
        sp = _group_sums(v, li, thr[li, ki], True)
        exact = np.where(g == 1, sp, line_sums[li] - sp)
        lo[g, li, ki] = f16_round(exact / den[g, li, ki])
    return np.where(counts > 0, lo, 0.0)


def _keys(rows, vals):
    """Complex keys row + i·value: lines of ascending values, one after
    another, are one ascending array, so one searchsorted serves them all."""
    k = np.empty(np.broadcast_shapes(rows.shape, vals.shape), np.complex128)
    k.real, k.imag = rows, vals
    return k.ravel()


def _split_at_means(v64, c, thr, n_de, counts, means):
    """Re-split each group of every (line, candidate) at its own mean.

    Returns the sums of x = v - c, signed by [v >= mean] (the dev of the
    shared layout), of x·[v >= mean] and of [v >= mean], over the dense
    and the sparse group (2, 3, lines, candidates).

    Sorted by value, the sparse negatives (v <= -t) come first and the
    dense group is the next n_de values. The values below a mean are a
    prefix, so a group's part below its mean is one run (dense) or two
    runs (sparse) of one prefix sum of x.
    """
    n, nv = v64.shape
    rc = np.arange(n)[:, None]
    vs = np.sort(v64, axis=1)
    keys = _keys(rc, vs)
    pre = np.zeros((n, nv + 1))
    np.cumsum(vs - c, axis=1, out=pre[:, 1:])

    def count(q, side):  # per line, how many values lie left of q
        at = np.searchsorted(keys, _keys(rc, q), side).reshape(q.shape)
        return at - nv * rc

    a = count(-thr, "right")
    e = a + n_de
    b = count(means, "left")
    ends = np.stack(
        [a, np.clip(b[0], a, e), e, np.minimum(b[1], a), np.maximum(b[1], e)]
    )
    pa, pd, pe, p1, p2 = np.take(pre, ends + (nv + 1) * rc)
    s_de = pe - pa
    total = np.stack([s_de, pre[:, nv:] - s_de])
    below = np.stack([pd - pa, p1 + (p2 - pe)])
    n_below = np.stack([ends[1] - a, ends[3] + ends[4] - e])
    return np.stack([total - 2.0 * below, total - below, counts - n_below], axis=1)


def _error_bounds(levels, c, nv, counts, sums, d_all, q_all, bound):
    """Lower and upper bounds on each candidate's position-order error.

    With o a cell's level minus c (sign-adjusted) and D its signed sum of
    x = v - c, the cell's error is Σx² + o·(n·o - 2·D). The estimate sums
    that over the four (group, sign) cells. Its bound is ``bound`` times
    the line's magnitudes and covers the rounding of this estimate and of
    the position-order sum.
    """
    o = levels - c
    o[0::2] *= -1.0
    est = np.repeat(q_all, counts.shape[2], axis=1)
    for g in (0, 1):
        d, dp, npos = sums[g]
        cells = ((d - dp, counts[g] - npos), (dp, npos))
        for oc, (dc, nc) in zip(o[2 * g : 2 * g + 2], cells):
            est += oc * (nc * oc - 2.0 * dc)
    o_max = np.abs(o).max(axis=0)
    err = bound * (q_all + 2.0 * o_max * d_all + nv * (o_max * o_max))
    return est - err, est + err


def _screen_band(v, ranks_in, share):
    """Plan every row of ``v`` (rows x band width) as one band.

    Returns per row (best index, threshold, mu_s, mu_d, al_s, al_d, sse)
    and per position (sparse, signs) of the winning candidates.
    """
    n, nv = v.shape
    rows = np.arange(n)
    rc = rows[:, None]
    line_sums = _sum_positions(np.ascontiguousarray(v.T, dtype=np.float64))
    # The shared mean; a line where it overflows binary16 is screened
    # around 0 instead.
    mu = f16_round(line_sums / nv)
    fin = np.isfinite(mu)
    mu[~fin] = 0.0
    # equal ranks are the same candidate: screen each rank once
    ranks = np.unique(ranks_in)
    inv = np.searchsorted(ranks, ranks_in)
    ncand = ranks.size
    v64 = v.astype(np.float64)
    c = mu[:, None]
    t, n_de, sums, d_all, q_all = _sorted_sums(v64, c, ranks)
    counts = np.stack([n_de, nv - n_de])
    bound = _SLACK * (nv + 8) * _ULP
    if share:
        # a line whose mean overflowed has no finite candidate and gets
        # the zeroed plan below
        means = np.broadcast_to(c, counts.shape)
        finite = fin[:, None]
        dsums, width = sums[:, 0], bound * d_all
    else:
        width = bound * (d_all + nv * np.abs(c))
        means = _own_means(v, c, line_sums, t, counts, sums, width)
        finite = np.isfinite(means).all(axis=0)
        means = np.where(finite, means, 0.0)
        sums = _split_at_means(v64, c, t, n_de, counts, means)
        y = means - c
        dsums = sums[:, 0] - y * (2.0 * sums[:, 2] - counts)
        width = bound * (d_all + nv * np.abs(y))
    al = _scales(v, means, t, dsums, counts, width)
    # a candidate with an overflowed scale or mean has infinite error and
    # never wins
    finite = finite & np.isfinite(al).all(axis=0)
    al[:, ~finite] = 0.0

    # the four f32 levels of each candidate, indexed by 2 * sparse + (v >= mu)
    levels = np.empty((4, n, ncand), np.float32)
    levels[0::2] = means - al
    levels[1::2] = means + al
    lower, upper = _error_bounds(levels, c, nv, counts, sums, d_all, q_all, bound)
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
    sp = np.abs(vp) >= t[li, ki]
    m_de, m_sp = means[:, li, ki]
    cell = 2 * sp + (vp >= np.where(sp, m_sp, m_de))
    diff = vp - levels[:, li, ki][cell, np.arange(li.size)]
    errs = np.full(t.shape, np.inf)
    errs[li, ki] = _sum_positions(np.square(diff, out=diff))
    errs = errs[rc, first]

    # back to the caller's candidates; first minimum: smaller index wins
    # ties. A line with no finite candidate keeps mu = alpha = 0 and signs
    # against 0.
    best = np.argmin(errs[:, inv], axis=1)
    k = inv[best]
    ok = np.isfinite(errs[rows, k])
    best[~ok] = 0
    k[~ok] = inv[0]
    mu_de, mu_sp = np.where(ok, means[:, rows, k], 0.0)
    al_de, al_sp = np.where(ok, al[:, rows, k], 0.0)
    sparse = np.abs(v64) >= t[rows, k][:, None]
    pos = v64 >= np.where(sparse, mu_sp[:, None], mu_de[:, None])
    return (
        best,
        t[rows, k],
        mu_sp,
        mu_de,
        al_sp,
        al_de,
        np.where(ok, errs[rows, k], np.inf),
        sparse,
        np.where(pos, 1, -1),
    )


def plan_lines(lines, ranks, share):
    """Plan every row of ``lines`` (rows x band width) as one band.

    ranks are the 1-based nearest ranks of the candidate thresholds in a
    row. Returns per row thr_idx, thr_val, mu_sp, mu_de, al_sp, al_de and
    sse, and per position sparse and signs. Rows are planned in chunks
    holding at most ``_SCREEN_VALUES`` values of rows x (band width +
    candidates).
    """
    n, nv = lines.shape
    out = [np.zeros(n, dt) for dt in (np.uint8,) + (np.float32,) * 5 + (np.float64,)]
    out += [np.zeros((n, nv), dt) for dt in (bool, np.int8)]
    step = max(1, _SCREEN_VALUES // (nv + len(ranks)))
    for i in range(0, n, step):
        for dst, src in zip(out, _screen_band(lines[i : i + step], ranks, share)):
            dst[i : i + step] = src
    return tuple(out)
