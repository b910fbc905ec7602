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
  that order of dev = |v - c| (and, for own means, of dev·[v >= c]) give
  every candidate's group counts and sums with one gather.
- **Own means** (``share_mean=False``). A group's sum of x = v - c is
  2·Σdev·[v >= c] - Σdev, which gives its binary16 mean by the interval
  test below. Sorted by value, a line's dense group is the run of values
  between -t and t, and the values below a mean are a prefix, so prefix
  sums of x over the value order re-split each group at its own mean into
  the same (dev, dev·pos, pos) sums, relative to c. The scales' deviation
  sums follow as Σdev - y·(2·npos - n), with y the group mean minus c.
- **Binary16 scalars.** Means and scales are binary16 roundings of sums
  over counts, and one routine, ``_f16_quotients``, rounds them all. Each
  sum carries a float64 error bound; where both ends of that interval
  round to the same binary16 value, sign of zero included, the value is
  exact. The rare group whose interval straddles a rounding midpoint,
  zero or the overflow edge has its sum redone in position order by a
  callback: a scale's Σ|v - mu|, an own mean's sparse Σv, and its dense
  Σv as the line's sum minus that. Own means are rounded for every
  candidate; scales only for the candidates that are scored.
- **Levels.** A band stores four float32 levels mu -/+ alpha, indexed by
  cell = 2·sparse + (v >= mu). ``band_levels`` builds them levels-last,
  one row of four per band, so the screen's scoring and
  ``grouping.LinePlans.recon`` both read a position's level at
  4·row + cell of the flat table.
- **Errors.** With a group's mean and signs fixed, the error of any scale
  is at least Σdev² - (Σdev)²/n (dev about the group's mean), so the
  group sums give a lower bound on every candidate's error with nothing
  rounded to binary16; a derived slack (``_lower_bounds``) covers the
  float32 narrowing of the four levels and float64 rounding. Each line's
  candidate with the best bound is scored: its scales are rounded and its
  error computed exactly, in position order. So is every other candidate
  whose bound reaches that error, and the winner is the first-index
  argmin of the scored errors. Any candidate left out is strictly worse
  than one that was scored, so winner, error and stored bits are those of
  evaluating every candidate on every position.
- **Ties.** Equal ranks, which come in runs, are screened once. Of the
  ranks on one tie run (one sparse set) only the first can be scored and
  the others share its error, so the first index still wins.

A line whose every candidate overflows binary16 gets a zeroed plan on its
own, without touching its neighbours. With shared means that includes a
line whose mean overflows; it is screened around 0.

The planner narrows group scalars to IEEE-754 binary16 (round to nearest,
ties to even) *during* the threshold search, so the selected split minimizes
the error that will actually be stored.

``tests/reference_kernels.py`` holds a scalar, one-band-at-a-time version of
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
# (256 lines of a 64-wide band at 40 candidates, a tracemalloc peak of
# ~1.6 MB with shared means and ~4.2 MB with own means).
_SCREEN_VALUES = 256 * (64 + 40)

# The screen's float64 slack: _SLACK·(nv + 8) roundings (2**-53) of a
# line's magnitudes, per position of the band plus a constant.
# - A group sum taken from prefix sums is known to within that many of the
#   line's Σdev (plus nv·|y| with own means). Accounting for the prefix
#   sums, their arithmetic and the position-order sum needs about
#   21·nv + 40 with shared means and twice that with own means, whose sums
#   combine up to six prefix sums.
# - The lower bound is off by at most that many of the magnitudes it sums
#   (the line's Σdev², the groups' (Σdev)²/n and, with own means,
#   2·|y|·(|Σx| + Σdev) + n·y²): nv + 3 for Σdev², nv + 2 for the
#   position-order error it is held against and a few for its own
#   arithmetic, and with own means about 21·nv + 50 of 2·|y|·Σdev for a
#   group's Σx.
# The margin still ranks candidates to ~1e-12 of a line's error.
_SLACK = 64.0
_ULP = 2.0**-53
# float32 narrowing of a level: |fl32(l) - l| <= 2**-24·|l|
_ULP32 = 2.0**-24


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


def _f16_quotients(s, counts, width, exact):
    """binary16 of each group sum ``s`` over its count, 0 for an empty
    group; every sum is known to within ``width``.

    Where the two ends of the interval round alike, sign of zero included
    (a -0.0 mean is stored as 0x8000), that is the value. The groups whose
    ends round apart have their sum redone in position order by
    ``exact(*index)``, given the groups' index into ``s``.
    """
    den = np.maximum(counts, 1)
    lo = f16_round((s - width) / den)
    hi = f16_round((s + width) / den)
    redo = (lo != hi) | (np.signbit(lo) != np.signbit(hi))
    idx = np.nonzero(redo & (counts > 0))
    if idx[0].size:
        lo[idx] = f16_round(exact(*idx) / den[idx])
    return np.where(counts > 0, lo, 0.0)


def band_levels(scalars):
    """The four float32 levels mu -/+ alpha of each band, levels last and
    indexed by 2·sparse + (v >= mu), from its scalars taken in float64:
    (bands, 4) of mu_dense, mu_sparse, alpha_dense, alpha_sparse."""
    out = np.empty(scalars.shape, np.float32)
    mu, al = scalars[:, :2], scalars[:, 2:]
    np.subtract(mu, al, out=out[:, 0::2], dtype=np.float64, casting="unsafe")
    np.add(mu, al, out=out[:, 1::2], dtype=np.float64, casting="unsafe")
    return out


def _sorted_sums(v64, c, ranks, share):
    """Sort each line by |v| and sum over that order.

    Returns per (line, candidate) the threshold and the dense count (the
    first index of the threshold's tie run); the sums of dev and, for own
    means, of dev·[v >= c] over the dense and the sparse group (2, 1 or 2,
    lines, candidates); and the line's Σdev and Σdev² (lines, 1).
    """
    n, nv = v64.shape
    rc = np.arange(n)[:, None]
    order = np.argsort(np.abs(v64), axis=1)
    vs = v64[rc, order]
    srt = np.abs(vs)
    run = np.zeros((n, nv), np.intp)
    np.multiply(srt[:, 1:] != srt[:, :-1], np.arange(1, nv), out=run[:, 1:])
    n_de = np.maximum.accumulate(run, axis=1)[:, ranks - 1]
    dev = np.abs(vs - c)
    pre = np.zeros((1 if share else 2, n, nv + 1))
    pre[0, :, 1:] = dev
    if not share:
        np.multiply(dev, vs >= c, out=pre[1, :, 1:])
    np.cumsum(pre, axis=2, out=pre)
    sums = np.empty((2, len(pre), n, ranks.size))
    at = n_de + (nv + 1) * rc  # every index is in range; "clip" writes unbuffered
    np.take(pre.reshape(len(pre), -1), at, axis=1, out=sums[0], mode="clip")
    np.subtract(pre[:, :, nv:], sums[0], out=sums[1])
    q_all = np.einsum("ij,ij->i", dev, dev)[:, None]
    return srt[:, ranks - 1], n_de, sums, pre[0, :, nv:].copy(), q_all


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




def _lower_bounds(v64, q_all, counts, dsums, width, bound, shift=None):
    """A lower bound on each candidate's position-order error (lines,
    candidates), from its group sums alone: nothing is rounded to binary16.

    Fix a group's n values, its stored mean m and the signs against m. Any
    scale a reconstructs them with error Σ(dev - a)², dev = |v - m|, at
    least Σdev² - (Σdev)²/n, so the scale's binary16 rounding costs the
    bound nothing. Over both groups Σdev² is the line's Σdev² about c,
    ``q_all``, less 2·y·Σx - n·y² per group with own means (``shift`` =
    (y, Σx, the line's Σdev), y the group's mean minus c and x = v - c).
    Each Σdev is taken at the top of its interval ``width``. That is B.
    The float32 levels move each reconstruction r by at most 2**-24·|r|,
    so by at most 2**-24·(‖v‖ + √E0) over the line, E0 >= B the error
    before narrowing. The error E is then at least
    (√E0·(1 - 2**-24) - 2**-24·‖v‖)², so at least
    B·(1 - 2**-23) - 2**-23·‖v‖·√B. float64 rounding costs ``bound``
    times the magnitudes summed (see _SLACK); ‖v‖ is taken that much too
    large to cover its own.
    """
    d_hi = dsums + width
    sq = d_hi * d_hi / np.maximum(counts, 1)
    sq = sq[0] + sq[1]
    low, mag = q_all - sq, q_all + sq
    if shift is not None:
        y, s, d_all = shift
        low -= (2.0 * y * s - counts * y * y).sum(axis=0)
        mag += (2.0 * np.abs(y) * (np.abs(s) + d_all) + counts * y * y).sum(axis=0)
    b = np.maximum(low, 0.0)
    norm = np.sqrt(np.einsum("ij,ij->i", v64, v64))[:, None] * (1.0 + bound)
    return low - 2.0 * _ULP32 * (b + norm * np.sqrt(b)) - bound * mag


def _distinct(ranks_in):
    """The distinct ranks of nondecreasing ``ranks_in``, ascending, and each
    given rank's index among them: a rank that differs from the one before
    it starts a new entry. Equal ranks that are not neighbours get entries
    of their own; screening one twice changes no result."""
    new = np.ones(ranks_in.size, bool)
    new[1:] = ranks_in[1:] != ranks_in[:-1]
    return ranks_in[new], np.cumsum(new) - 1


def _screen_band(v, ranks, inv, share):
    """Plan every row of ``v`` (rows x band width) as one band, screening
    the distinct ``ranks`` once; ``inv`` maps the caller's candidates to
    them (``_distinct``).

    Returns per row (best index, threshold, scalars, sse), the scalars in
    ``band_levels`` order (rows, 4), and per position (sparse, signs) of
    the winning candidates.
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
    ncand = ranks.size
    v64 = v.astype(np.float64)
    c = mu[:, None]
    t, n_de, sums, d_all, q_all = _sorted_sums(v64, c, ranks, share)
    counts = np.stack([n_de, nv - n_de])
    bound = _SLACK * (nv + 8) * _ULP
    if share:
        # a line whose mean overflowed has no finite candidate and gets
        # the zeroed plan below
        means = np.broadcast_to(c, counts.shape)
        finite = fin[:, None]
        dsums, width = sums[:, 0], bound * d_all
        shift = None
    else:
        def own_sum(g, li, ki):
            sp = _group_sums(v, li, t[li, ki], True)
            return np.where(g == 1, sp, line_sums[li] - sp)

        s = 2.0 * sums[:, 1] - sums[:, 0] + counts * c
        width = bound * (d_all + nv * np.abs(c))
        means = _f16_quotients(s, counts, width, own_sum)
        finite = np.isfinite(means).all(axis=0)
        means = np.where(finite, means, 0.0)
        sums = _split_at_means(v64, c, t, n_de, counts, means)
        y = means - c
        dsums = sums[:, 0] - y * (2.0 * sums[:, 2] - counts)
        width = bound * (d_all + nv * np.abs(y))
        shift = (y, 2.0 * sums[:, 1] - sums[:, 0], d_all)
    lower = _lower_bounds(v64, q_all, counts, dsums, width, bound, shift)
    width = np.broadcast_to(width, counts.shape)

    # candidates on one tie run are one candidate: score the first and
    # give the others its error
    new_run = np.ones(t.shape, bool)
    new_run[:, 1:] = n_de[:, 1:] != n_de[:, :-1]
    first = np.maximum.accumulate(np.where(new_run, np.arange(ncand), 0), axis=1)
    cand = finite & new_run
    lower = np.where(cand, lower, np.inf)

    errs = np.full(t.shape, np.inf)
    al = np.zeros(counts.shape)

    def score(li, ki):
        # round the pairs' scales and compute their errors exactly, in
        # position order
        if not li.size:
            return
        at = (slice(None), li, ki)
        m, thr = means[at], t[li, ki]
        a = _f16_quotients(dsums[at], counts[at], width[at],
                           lambda g, p: _group_sums(v, li[p], thr[p], g == 1, m[g, p]))
        # an overflowed scale has infinite error and never wins
        ok = np.isfinite(a).all(axis=0)
        a[:, ~ok] = 0.0
        vp = np.ascontiguousarray(v64[li].T)  # (nv, pairs)
        sp = np.abs(vp) >= thr
        cell = 2 * sp + (vp >= np.where(sp, m[1], m[0]))
        cell += 4 * np.arange(li.size)
        diff = vp - band_levels(np.concatenate([m, a]).T).ravel()[cell]
        al[at] = a
        err = _sum_positions(np.square(diff, out=diff))
        errs[li, ki] = np.where(ok, err, np.inf)

    # Score the best bound of each line, then every other candidate whose
    # bound reaches its error; any candidate left out is strictly worse.
    kb = np.argmin(lower, axis=1)
    li = np.flatnonzero(cand.any(axis=1))
    score(li, kb[li])
    more = cand & (lower <= errs[rows, kb][:, None])
    more[rows, kb] = False
    score(*np.nonzero(more))

    # back to the caller's candidates; first minimum: smaller index wins
    # ties. A line with no finite candidate keeps mu = alpha = 0 and signs
    # against 0.
    errs = errs[rc, first]
    best = np.argmin(errs[:, inv], axis=1)
    k = inv[best]
    ok = np.isfinite(errs[rows, k])
    best[~ok] = 0
    k[~ok] = 0
    scalars = np.concatenate([means[:, rows, k], al[:, rows, first[rows, k]]]).T
    scalars[~ok] = 0.0
    sparse = np.abs(v64) >= t[rows, k][:, None]
    pos = v64 >= np.where(sparse, scalars[:, 1:2], scalars[:, :1])
    return (
        best,
        t[rows, k],
        scalars,
        np.where(ok, errs[rows, k], np.inf),
        sparse,
        pos.view(np.int8) * 2 - 1,
    )


def plan_lines(lines, ranks, share):
    """Plan every row of ``lines`` (rows x band width) as one band.

    ranks are the 1-based nearest ranks of the candidate thresholds in a
    row, in nondecreasing order: the nearest ranks of an ascending
    percentile grid (other orders give the same result, screening some
    ranks twice). Returns per row thr_idx, thr_val, the float32 scalars
    (rows, 4) in ``band_levels`` order and sse, and per position sparse
    and signs. Rows are planned in chunks holding at most
    ``_SCREEN_VALUES`` values of rows x (band width + candidates).
    """
    n, nv = lines.shape
    out = [np.zeros(n, np.uint8), np.zeros(n, np.float32), np.zeros((n, 4), np.float32),
           np.zeros(n), np.zeros((n, nv), bool), np.zeros((n, nv), np.int8)]
    # equal ranks are the same candidate: screen each run of them once
    distinct, inv = _distinct(np.asarray(ranks))
    step = max(1, _SCREEN_VALUES // (nv + len(ranks)))
    for i in range(0, n, step):
        chunk = _screen_band(lines[i : i + step], distinct, inv, share)
        for dst, src in zip(out, chunk):
            dst[i : i + step] = src
    return tuple(out)
