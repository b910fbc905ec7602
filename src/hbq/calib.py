"""Calibration statistics: the l2 Hessian, its damped inverse factor, and
per-entry saliency.

H = 2 X X^T is built from a features x samples activation matrix and damped
by lambda I. Block compensation needs the upper U with U^T U = (H+lambda I)^-1,
and one Cholesky factorization plus one triangular inverse give it (never a
general inverse, never a factorization of the inverse): with J the
index-reversing permutation, J (H + lambda I) J = L L^T, and
U = J L^-1 J (see damped_cholesky_inverse). The column sums of U*U are
diag((H + lambda I)^-1), the [H^-1]_ii of the saliency metric. The damped
diagonal stands in for the undamped one, which need not exist.

Calibration never holds a float64 copy of X. ``build_hessian`` holds H
beside two float64 row blocks of X and one block product per worker
thread; ``build_calib_stats`` then drops H once its float64 copy exists,
so factoring holds that copy, which LAPACK factors and inverts in place,
and the float32 factor. On a 2048 x 4096 X (tracemalloc, X not counted)
that is 50 MiB on one worker (49 on two) and then 48 MiB; one float64
copy of X is 64 MiB by itself.

The three LAPACK routines hbq uses (dpotrf and dtrtri here, dtrtrs in
``pipeline.compensate``) come from scipy's LAPACK extension module, loaded
by ``_lapack`` without importing scipy.linalg: that package import loads
hundreds of modules that quantize never uses.
"""

from __future__ import annotations

import ctypes
import importlib.machinery
import importlib.util
import numbers
import os
import queue
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NumericError, ShapeError
from .tensor import as_matrix

__all__ = [
    "CalibStats",
    "build_hessian",
    "resolve_damping",
    "damped_cholesky_inverse",
    "build_calib_stats",
    "saliency_matrix",
]


# float64 values of X per row block in ``build_hessian`` on one worker: 512
# features of 4096 samples. Each of w workers holds two blocks 1/w as high,
# so the blocks of all workers together hold as many values as one worker's.
# Blocks of 256 features took ~12% longer at 2048x4096 on one worker. X is
# split in two at least: as one block, X widened, its whole product and H
# would all be held at once.
_HESSIAN_VALUES = 1 << 21


@dataclass(frozen=True)
class CalibStats:
    """Everything block compensation and saliency need, built once from the
    m x m Hessian H, which is not kept.

    damping: the lambda actually applied (resolved if auto).
    chol_inv: upper-triangular m x m U with U^T U = (H + lambda I)^-1, float32.
    hinv_diag: diag((H + lambda I)^-1), float64, all > 0.
    """

    damping: float
    chol_inv: np.ndarray
    hinv_diag: np.ndarray


def _lapack():
    """scipy's LAPACK extension module, ``scipy.linalg._flapack``.

    It is loaded on first use without running scipy/linalg/__init__.py:
    finding the package's spec imports only the top-level scipy package.
    The module is registered under its real name, so a later
    ``import scipy.linalg`` reuses it and ``scipy.linalg.lapack.dpotrf``
    is this module's ``dpotrf``.

    One difference remains in such a process: Python binds a submodule to
    its package only when it loads the submodule itself, so the attribute
    ``scipy.linalg._flapack`` is never set and reading it raises
    AttributeError. ``from scipy.linalg import _flapack``,
    ``scipy.linalg.lapack`` and ``get_lapack_funcs`` find the module in
    ``sys.modules`` and work. Nothing in hbq reads the attribute.
    """
    name = "scipy.linalg._flapack"
    module = sys.modules.get(name)
    if module is None:
        package = importlib.util.find_spec("scipy.linalg")
        spec = importlib.machinery.PathFinder.find_spec(
            name, package.submodule_search_locations
        )
        module = importlib.util.module_from_spec(spec)
        sys.modules[name] = module
        spec.loader.exec_module(module)
    return module


def _blas_threads() -> int | None:
    """Threads one call of numpy's BLAS runs on, as numpy's OpenBLAS reports
    it, or None when numpy's BLAS has no such report."""
    try:
        blas = ctypes.CDLL(np._core._multiarray_umath.__file__)
        get_num_threads = blas.scipy_openblas_get_num_threads64_
    except (AttributeError, OSError):
        return None
    get_num_threads.argtypes = []
    get_num_threads.restype = ctypes.c_int
    return get_num_threads()


def _hessian_workers() -> int:
    """Threads ``build_hessian`` runs block products on: the CPUs this
    process may use over the threads of one BLAS call, at least one, and
    one when BLAS does not report its threads."""
    threads = _blas_threads()
    if not threads:
        return 1
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return max(1, (cpus or 1) // threads)


def build_hessian(x) -> np.ndarray:
    """H = 2 X X^T from features x samples activations, by row blocks of X.

    A strip of H is the block products of one block of features with
    itself and with each later block. Each block is widened to float64
    into a reused buffer. A diagonal block of H is numpy's ``a @ a.T``, a
    symmetric rank-k update with one triangle mirrored onto the other; an
    off-diagonal block is one product ``a @ b.T`` into a reused buffer,
    written as itself and as its transpose. Every entry is the float64 dot
    product of two rows of X over all samples, in the order one product
    over all of X takes it, doubled exactly and rounded once to float32,
    so H is exactly symmetric, bit for bit, as ``damped_cholesky_inverse``
    requires.

    When BLAS runs fewer threads per call than the process has CPUs
    (``_hessian_workers``), the strips run on a pool of threads that lives
    for this call, longest strip first; numpy releases the GIL in the
    products and copies, and no two strips write the same entries of H.
    Each of w workers holds two float64 blocks and one block product, its
    blocks 1/w as high as one worker's, so beside H the build holds no
    more than one worker's two blocks of ``_HESSIAN_VALUES`` and their
    product, never a float64 copy of X.
    """
    xm = as_matrix(x, "activations", check_finite=True)
    m, s = xm.shape
    workers = _hessian_workers()
    rows = max(1, min((m + 1) // 2, _HESSIAN_VALUES // s) // workers)
    starts = range(0, m, rows)
    workers = min(workers, len(starts))
    h = np.empty((m, m), np.float32)
    # each worker's (block, pair, product), all cut from one array: made
    # separately, their freed pages stayed in the C heap between calls,
    # which raised long-input's peak RSS by up to 23 MB
    pairs = min(rows, m - rows)
    buffers = queue.SimpleQueue()
    for own in np.split(np.empty(workers * ((rows + pairs) * s + rows * rows)), workers):
        block, pair, prod = np.split(own, [rows * s, (rows + pairs) * s])
        buffers.put((block.reshape(rows, s), pair.reshape(pairs, s), prod))

    def strip(i):
        block, pair, prod = buffers.get()
        a = block[: min(rows, m - i)]
        a[...] = xm[i : i + rows]  # widening f32 to f64 is exact
        ia = slice(i, i + len(a))
        p = np.matmul(a, a.T, out=prod[: len(a) ** 2].reshape(len(a), -1))
        np.multiply(p, 2.0, out=h[ia, ia])
        for j in range(i + rows, m, rows):
            b = pair[: min(rows, m - j)]
            b[...] = xm[j : j + rows]
            p = np.matmul(a, b.T, out=prod[: len(a) * len(b)].reshape(len(a), -1))
            jb = slice(j, j + len(b))
            np.multiply(p, 2.0, out=h[ia, jb])
            h[jb, ia] = h[ia, jb].T  # the rounded block, mirrored
        buffers.put((block, pair, prod))

    if workers == 1:
        for i in starts:
            strip(i)
    else:
        with ThreadPoolExecutor(workers) as pool:
            list(pool.map(strip, starts))  # raises what a strip raised
    return h


def _check_damping(damping) -> float | None:
    """damping as a float, or None for "auto" or None; anything else that
    is not a finite real number >= 0 raises ConfigError. No Hessian needed."""
    if damping is None or (isinstance(damping, str) and damping == "auto"):
        return None
    lam = float(damping) if isinstance(damping, numbers.Real) else np.nan
    if not (np.isfinite(lam) and lam >= 0):
        raise ConfigError(f"damping must be 'auto' or a finite number >= 0, got {damping!r}")
    return lam


def resolve_damping(h: np.ndarray, damping) -> float:
    """Resolve 'auto' to 0.01 * mean(diag(H)); validate explicit values."""
    lam = _check_damping(damping)
    if lam is None:
        return float(0.01 * np.mean(np.diag(h).astype(np.float64)))
    return lam


def damped_cholesky_inverse(h, lam: float) -> tuple[np.ndarray, np.ndarray]:
    """Upper U with U^T U = (H + lam I)^-1, plus diag((H + lam I)^-1).

    A = H + lam I is factored once, in reversed index order: J A J = L L^T
    with J the reversal (J = J^T = J^-1). Then A = J L L^T J, so
    A^-1 = (J L^-T J)(J L^-1 J) = U^T U with U = J L^-1 J. Reversing both
    indices of the lower-triangular L^-1 makes it upper triangular, and its
    diagonal (the reversed 1 / diag(L)) stays positive, so U is the unique
    upper Cholesky factor of A^-1. diag(A^-1) = diag(U^T U) is the column
    sums of U*U.

    H must be exactly symmetric, as ``build_hessian`` makes it: LAPACK is
    handed the transpose of J H J, which is J H J itself only then.

    Raises a numeric error naming the failing pivot, counted in the reversed
    elimination order, and the column of H it falls on, when H + lam I is not
    positive definite.
    """
    return _inverse_factor(_reversed_damped(h, lam))


def _reversed_damped(h, lam: float) -> np.ndarray:
    """J (H + lam I) J in float64, Fortran-ordered for LAPACK to overwrite;
    the checks of ``damped_cholesky_inverse``."""
    hm = as_matrix(h, "hessian")
    m = hm.shape[0]
    if hm.shape[1] != m:
        raise ShapeError(f"hessian must be square, got {hm.shape}")
    if lam < 0:
        raise ConfigError(f"damping must be >= 0, got {lam}")
    # J H J, copied in C order (a sequential read of H); its transpose,
    # equal to it by symmetry, is Fortran-ordered
    a = np.array(hm[::-1, ::-1], dtype=np.float64).T
    a[np.diag_indices(m)] += lam
    return a


def _inverse_factor(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``damped_cholesky_inverse`` from ``_reversed_damped``'s array, which
    LAPACK factors and inverts in place."""
    m = a.shape[0]
    # loaded here, not at import, so dequantize, inspect and gen never load it
    lapack = _lapack()
    c, info = lapack.dpotrf(a, lower=1, clean=1, overwrite_a=1)  # L
    if info > 0:
        raise NumericError(
            "damped hessian is not positive definite: factorization failed at "
            f"pivot {info - 1} (column {m - info})"
        )
    c, info = lapack.dtrtri(c, lower=1, overwrite_c=1)  # L^-1
    if info != 0:
        raise NumericError(f"triangular inversion failed at pivot {info - 1}")
    u = c[::-1, ::-1]
    return u.astype(np.float32), np.einsum("ij,ij->j", u, u)


def build_calib_stats(x, damping="auto") -> CalibStats:
    """Build CalibStats from a features x samples activation matrix; a bad
    damping raises ConfigError before the Hessian is built. H is dropped
    once its damped float64 copy exists, so it is not held while LAPACK
    factors the copy."""
    _check_damping(damping)
    h = build_hessian(x)
    lam = resolve_damping(h, damping)
    a = _reversed_damped(h, lam)
    del h
    u, hinv_diag = _inverse_factor(a)
    return CalibStats(damping=lam, chol_inv=u, hinv_diag=hinv_diag)


def saliency_matrix(w, hinv_diag) -> np.ndarray:
    """s_ij = w_ij^2 / hinv_diag_j^2, float64 elementwise."""
    wm = as_matrix(w, "weights")
    d = np.asarray(hinv_diag, dtype=np.float64).ravel()
    if d.size != wm.shape[1]:
        raise ShapeError(
            f"hinv_diag length {d.size} != weight columns {wm.shape[1]}"
        )
    if np.any(d <= 0) or not np.all(np.isfinite(d)):
        raise NumericError("hinv_diag entries must be positive and finite")
    w64 = wm.astype(np.float64)
    return (w64 * w64) / (d * d)[None, :]
