"""Scalar reference versions of the kernels in ``hbq._kernels`` and of the
Haar row pair in ``hbq.haar``.

Plain Python, one value, one line and one band at a time, written to be
read rather than to be fast. ``tests/test_kernels.py`` checks the numpy
kernels against these bit for bit, not merely to tolerance, so that the
stored bits are the ones this scan defines. The binary16 rounder here is
exact scalar arithmetic and does not use numpy's float16 cast.

The planner's float64 sums and deviations are typed ``np.float64``
explicitly: a float32 value plus a Python float is a float32 under
NumPy 2, so a sum started from ``0.0`` would accumulate in float32.
Candidates whose scalars overflow binary16 produce inf and nan on the
way; ``np.errstate`` keeps those expected warnings out of the test output.
"""

import math

import numpy as np

_HALF = np.float32(0.5)


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


def f16_round(x: float) -> float:
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


def haar_fwd_rows(m: np.ndarray) -> np.ndarray:
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


def haar_inv_rows(c: np.ndarray) -> np.ndarray:
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


def _plan_band(v, ranks, share, sparse_out, signs_out, recon_out):
    nv = v.shape[0]
    ncand = ranks.shape[0]
    absv = np.abs(v)
    srt = np.sort(absv)

    total = np.float64(0.0)
    for j in range(nv):
        total += v[j]
    mu_band = f16_round(total / nv)

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
            mu_s = f16_round(sum_sp / n_sp)
            mu_d = f16_round((total - sum_sp) / n_de) if n_de > 0 else 0.0
        dev_sp = np.float64(0.0)
        dev_de = np.float64(0.0)
        for j in range(nv):
            if absv[j] >= t:
                dev_sp += abs(np.float64(v[j]) - mu_s)
            else:
                dev_de += abs(np.float64(v[j]) - mu_d)
        al_s = f16_round(dev_sp / n_sp)
        al_d = f16_round(dev_de / n_de) if n_de > 0 else 0.0
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
        # strict <: a candidate with inf or nan error never wins
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


def plan_lines(lines, band_split, ranks0, ranks1, share):
    """Same contract and outputs as ``hbq._kernels.plan_lines``."""
    n_lines, d = lines.shape
    nbands = 1 if band_split >= d else 2
    thr_idx = np.zeros((n_lines, nbands), np.uint8)
    thr_val = np.zeros((n_lines, nbands), np.float32)
    mu_sp = np.zeros((n_lines, nbands), np.float32)
    mu_de = np.zeros((n_lines, nbands), np.float32)
    al_sp = np.zeros((n_lines, nbands), np.float32)
    al_de = np.zeros((n_lines, nbands), np.float32)
    sse = np.zeros((n_lines, nbands), np.float64)
    sparse = np.zeros((n_lines, d), np.uint8)
    signs = np.zeros((n_lines, d), np.int8)
    recon = np.zeros((n_lines, d), np.float32)
    with np.errstate(over="ignore", invalid="ignore"):
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
                idx, t, m_s, m_d, a_s, a_d, err = _plan_band(
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
