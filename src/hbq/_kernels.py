"""Hot numeric kernels with two interchangeable implementations.

Every kernel exists twice: a numba ``@njit`` version (``*_nb``) and a
vectorized pure-numpy fallback (``*_np``). The module-level names used by the
rest of the package (``plan_lines``, ``haar_fwd_rows``, ``haar_inv_rows``)
are bound at import time: numba (the optional ``jit`` extra) is used when it
imports cleanly and the ``HBQ_NUMBA`` environment variable is not set to
``0``; otherwise numpy. Both variants stay importable regardless (without
numba the ``*_nb`` functions run as plain Python), so the tests can compare
them in one process.

The jit planner scans one line and one band at a time. The numpy planner
instead evaluates one band of a whole chunk of lines in a single pass, with
chunks sized so the temporaries stay bounded, and takes each line's winner
with a first-index argmin. Its per-candidate tensors are position-major,
(band width x lines x candidates): a sum over positions is then a reduce
over axis 0, which adds whole slices in position order, the jit scan's
order, and writes only the (lines x candidates) result. With shared means
the mean, the deviations and the signs depend only on the line, so they
are computed once per (position, line). A line whose every candidate
overflows binary16 gets the jit path's zeroed plan on its own, without
touching its neighbours.

The planner narrows group scalars to IEEE-754 binary16 (round to nearest,
ties to even) *during* the threshold search, so the selected split minimizes
the error that will actually be stored. numba has no float16 on CPU, so the
njit path carries an exact scalar implementation of the rounding; the numpy
path uses ``astype(float16)``. Both produce identical values (see
tests/test_kernels.py).
"""

from __future__ import annotations

import math
import os

import numpy as np

try:
    from numba import njit

    HAS_NUMBA = True
except ImportError:  # pragma: no cover - exercised only without numba installed
    HAS_NUMBA = False

    def njit(*args, **kwargs):
        def wrap(fn):
            return fn

        if args and callable(args[0]):
            return args[0]
        return wrap


USE_NUMBA = HAS_NUMBA and os.environ.get("HBQ_NUMBA", "1") != "0"

_HALF = np.float32(0.5)


# ---------------------------------------------------------------------------
# binary16 narrowing
# ---------------------------------------------------------------------------


@njit(cache=True)
def _round_half_even(q: float) -> float:
    # q >= 0 with exactly representable fractional part
    f = math.floor(q)
    r = q - f
    if r > 0.5:
        return f + 1.0
    if r < 0.5:
        return f
    if (int(f) & 1) == 0:
        return f
    return f + 1.0


@njit(cache=True)
def f16_round_nb(x: float) -> float:
    """Nearest binary16 value of ``x`` (float64 in, float64 out).

    Matches numpy's float64 -> float16 cast bit for bit on finite inputs,
    including subnormals, ties, and overflow to infinity.
    """
    if x != x or x == np.inf or x == -np.inf or x == 0.0:
        return x
    s = 1.0
    a = x
    if a < 0.0:
        s = -1.0
        a = -a
    man, ex = math.frexp(a)  # a = man * 2**ex, man in [0.5, 1)
    e = ex - 1  # a = (2*man) * 2**e
    if e > 15:
        return s * np.inf
    if e >= -14:
        # normal half: 11-bit significand q in [1024, 2048)
        q = _round_half_even(man * 2048.0)
        if q >= 2048.0:
            e += 1
            if e > 15:
                return s * np.inf
            q = 1024.0
        return s * q * 2.0 ** (e - 10)
    # subnormal half: fixed quantum 2**-24
    q = _round_half_even(a * 16777216.0)
    return s * q * 2.0 ** -24


def f16_round_np(x):
    """Vectorized binary16 narrowing: float64 array in, float64 grid values out."""
    with np.errstate(over="ignore"):
        return np.asarray(x, np.float64).astype(np.float16).astype(np.float64)


# ---------------------------------------------------------------------------
# single-level Haar along rows
# ---------------------------------------------------------------------------


@njit(cache=True)
def haar_fwd_rows_nb(m: np.ndarray) -> np.ndarray:
    rows, d = m.shape
    h = d // 2
    out = np.empty((rows, d), np.float32)
    for i in range(rows):
        for k in range(h):
            a = m[i, 2 * k]
            b = m[i, 2 * k + 1]
            out[i, k] = (a + b) * _HALF
            out[i, h + k] = (a - b) * _HALF
    return out


def haar_fwd_rows_np(m: np.ndarray) -> np.ndarray:
    h = m.shape[1] // 2
    out = np.empty_like(m)
    out[:, :h] = (m[:, 0::2] + m[:, 1::2]) * _HALF
    out[:, h:] = (m[:, 0::2] - m[:, 1::2]) * _HALF
    return out


@njit(cache=True)
def haar_inv_rows_nb(c: np.ndarray) -> np.ndarray:
    rows, d = c.shape
    h = d // 2
    out = np.empty((rows, d), np.float32)
    for i in range(rows):
        for k in range(h):
            lo = c[i, k]
            hi = c[i, h + k]
            out[i, 2 * k] = lo + hi
            out[i, 2 * k + 1] = lo - hi
    return out


def haar_inv_rows_np(c: np.ndarray) -> np.ndarray:
    h = c.shape[1] // 2
    out = np.empty_like(c)
    out[:, 0::2] = c[:, :h] + c[:, h:]
    out[:, 1::2] = c[:, :h] - c[:, h:]
    return out


# ---------------------------------------------------------------------------
# band planner: threshold search + sign binarization
# ---------------------------------------------------------------------------
#
# Contract shared by both implementations. Lines are matrix rows. Each line
# is split at band_split into two bands (band_split == line length means one
# band covering the raw line). Per band, every candidate threshold
# t = sorted(|band|)[rank-1] splits positions into sparse (|c| >= t) and
# dense (|c| < t); group means (pooled when share_mean) and mean-absolute-
# deviation scales are narrowed to binary16, signs are taken against the
# narrowed mean with sign(0) = +1, and the candidate with the smallest
# narrowed reconstruction SSE wins (first index on ties). Empty dense groups
# degenerate to single-group binarization and store mu = alpha = 0.
#
# Every float64 sum runs over positions in order, starting from +0.0, so
# both backends select the same candidate and store the same bits. Starting
# from +0.0 matters for the sign of zero: a band of -0.0 values sums to
# +0.0, and its mean is stored as binary16 0x0000, not 0x8000. The jit
# kernel's sums and deviations are typed np.float64 explicitly: run as plain
# Python (numba absent), a float32 value plus a Python float is a float32
# under NumPy 2, and a sum started from 0.0 would accumulate in float32.


@njit(cache=True)
def _plan_band_nb(v, ranks, share, sparse_out, signs_out, recon_out):
    nv = v.shape[0]
    ncand = ranks.shape[0]
    absv = np.abs(v)
    srt = np.sort(absv)

    total = np.float64(0.0)
    for j in range(nv):
        total += v[j]
    mu_band = f16_round_nb(total / nv)

    best_idx = 0
    best_err = np.inf
    best_mu_s = 0.0
    best_mu_d = 0.0
    best_al_s = 0.0
    best_al_d = 0.0
    for k in range(ncand):
        t = srt[ranks[k] - 1]
        n_sp = 0
        sum_sp = np.float64(0.0)
        for j in range(nv):
            if absv[j] >= t:
                n_sp += 1
                sum_sp += v[j]
        n_de = nv - n_sp
        if share:
            mu_s = mu_band
            mu_d = mu_band
        else:
            mu_s = f16_round_nb(sum_sp / n_sp)
            mu_d = f16_round_nb((total - sum_sp) / n_de) if n_de > 0 else 0.0
        dev_sp = np.float64(0.0)
        dev_de = np.float64(0.0)
        for j in range(nv):
            if absv[j] >= t:
                dev_sp += abs(np.float64(v[j]) - mu_s)
            else:
                dev_de += abs(np.float64(v[j]) - mu_d)
        al_s = f16_round_nb(dev_sp / n_sp)
        al_d = f16_round_nb(dev_de / n_de) if n_de > 0 else 0.0
        err = 0.0
        for j in range(nv):
            if absv[j] >= t:
                mu = mu_s
                al = al_s
            else:
                mu = mu_d
                al = al_d
            rv = np.float32(mu + al) if v[j] >= mu else np.float32(mu - al)
            dd = np.float64(v[j]) - np.float64(rv)
            err += dd * dd
        if err < best_err:
            best_err = err
            best_idx = k
            best_mu_s = mu_s
            best_mu_d = mu_d
            best_al_s = al_s
            best_al_d = al_d

    best_t = srt[ranks[best_idx] - 1]
    for j in range(nv):
        if absv[j] >= best_t:
            mu = best_mu_s
            al = best_al_s
            sparse_out[j] = 1
        else:
            mu = best_mu_d
            al = best_al_d
            sparse_out[j] = 0
        if v[j] >= mu:
            signs_out[j] = 1
            recon_out[j] = np.float32(mu + al)
        else:
            signs_out[j] = -1
            recon_out[j] = np.float32(mu - al)
    return best_idx, best_t, best_mu_s, best_mu_d, best_al_s, best_al_d, best_err


@njit(cache=True)
def plan_lines_nb(lines, band_split, ranks0, ranks1, share):
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
    for i in range(n_lines):
        for b in range(nbands):
            if b == 0:
                lo = 0
                hi = band_split if nbands == 2 else d
                ranks = ranks0
            else:
                lo = band_split
                hi = d
                ranks = ranks1
            idx, t, m_s, m_d, a_s, a_d, err = _plan_band_nb(
                lines[i, lo:hi],
                ranks,
                share,
                sparse[i, lo:hi],
                signs[i, lo:hi],
                recon[i, lo:hi],
            )
            thr_idx[i, b] = idx
            thr_val[i, b] = t
            mu_sp[i, b] = np.float32(m_s)
            mu_de[i, b] = np.float32(m_d)
            al_sp[i, b] = np.float32(a_s)
            al_de[i, b] = np.float32(a_d)
            sse[i, b] = err
    return thr_idx, thr_val, mu_sp, mu_de, al_sp, al_de, sse, sparse, signs, recon


# Element budget of one batched numpy evaluation: lines are planned in
# chunks whose (lines x candidates x band width) temporaries hold at most
# this many values (64 lines of a 64-wide band at 40 candidates), so peak
# memory does not grow with the number of lines or the band width.
_CHUNK_VALUES = 64 * 40 * 64


def _sum_positions(a):
    """Sum ``a`` over axis 0 in position order, starting from +0.0.

    This is the jit scan's accumulation: ``0.0 + a[0] + a[1] + ...``. On a
    C-contiguous array numpy reduces the outer axis by adding whole slices
    in order, writing no full-size output. It switches to pairwise
    summation only when the summed axis is all that is left (one line and
    one candidate), so that case goes through ``cumsum``. Adding +0.0 maps
    an all ``-0.0`` sum to the jit's ``+0.0`` and changes no other value.
    """
    if a.size == a.shape[0]:
        return np.cumsum(a, axis=0)[-1] + 0.0
    return np.add.reduce(a, axis=0) + 0.0


def _plan_band_np(v, ranks, share):
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
    # axis 0 in the jit path's order.
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
            mu = f16_round_np(total / nv)
            mu_s = mu_d = np.broadcast_to(mu[:, None], t.shape)
            pos = vt >= mu  # (nv, lines)
            dev = np.abs(vc - mu[:, None])
        else:
            sum_sp = _sum_positions(np.where(sp, vc, 0.0))
            mu_s = f16_round_np(sum_sp / n_sp)
            mu_d = np.where(
                n_de > 0, f16_round_np((total[:, None] - sum_sp) / de_den), 0.0
            )
            mu_pos = np.where(sp, mu_s, mu_d)
            pos = vc >= mu_pos
            dev = np.abs(vc - mu_pos, out=mu_pos)
        part = np.where(sp, dev, 0.0)
        al_s = f16_round_np(_sum_positions(part) / n_sp)
        # dense part: x - x = 0 and x - 0 = x are exact (an infinite
        # deviation comes only from an overflowed mean, discarded below)
        part = np.subtract(dev, part, out=part)
        al_d = np.where(n_de > 0, f16_round_np(_sum_positions(part) / de_den), 0.0)
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

    # Candidates whose scalars overflow binary16 have inf/nan error; the jit
    # scan skips them through its strict < comparison, so mask them out of
    # the argmin the same way. A line on which every candidate overflows
    # mirrors the jit path's zero-initialized fallback (callers reject inf
    # sse anyway); its neighbours keep their own winners.
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


def plan_lines_np(lines, band_split, ranks0, ranks1, share):
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
            out = _plan_band_np(lines[rs, lo:hi], ranks, share)
            for dst, src in zip(per_line, out[:7]):
                dst[rs, b] = src
            for dst, src in zip(per_pos, out[7:]):
                dst[rs, lo:hi] = src
    return thr_idx, thr_val, mu_sp, mu_de, al_sp, al_de, sse, sparse, signs, recon


if USE_NUMBA:
    plan_lines = plan_lines_nb
    haar_fwd_rows = haar_fwd_rows_nb
    haar_inv_rows = haar_inv_rows_nb
else:
    plan_lines = plan_lines_np
    haar_fwd_rows = haar_fwd_rows_np
    haar_inv_rows = haar_inv_rows_np
