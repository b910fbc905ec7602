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

The three LAPACK routines hbq uses (dpotrf and dtrtri here, dtrtrs in
``pipeline.compensate``) come from scipy's LAPACK extension module, loaded
by ``_lapack`` without importing scipy.linalg: that package import loads
hundreds of modules that quantize never uses.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import sys
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


def build_hessian(x) -> np.ndarray:
    """H = 2 X X^T from features x samples activations.

    H is exactly symmetric, bit for bit, as ``damped_cholesky_inverse``
    requires: numpy computes ``a @ a.T`` as a symmetric rank-k update and
    mirrors one triangle onto the other.
    """
    xm = as_matrix(x, "activations", check_finite=True)
    x64 = xm.astype(np.float64)
    p = x64 @ x64.T
    del x64  # the float64 copy of X is the largest array here
    # 2·p is exact in float64 and equals p + p.T for a symmetric p; it is
    # rounded once, straight into the result
    h = np.empty(p.shape, np.float32)
    return np.multiply(p, 2.0, out=h)


def resolve_damping(h: np.ndarray, damping) -> float:
    """Resolve 'auto' to 0.01 * mean(diag(H)); validate explicit values."""
    if damping is None or damping == "auto":
        return float(0.01 * np.mean(np.diag(h).astype(np.float64)))
    lam = float(damping)
    if not np.isfinite(lam) or lam < 0:
        raise ConfigError(f"damping must be >= 0, got {damping!r}")
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
    hm = as_matrix(h, "hessian")
    m = hm.shape[0]
    if hm.shape[1] != m:
        raise ShapeError(f"hessian must be square, got {hm.shape}")
    if lam < 0:
        raise ConfigError(f"damping must be >= 0, got {lam}")
    # loaded here, not at import, so dequantize, inspect and gen never load it
    lapack = _lapack()

    # J A J, copied in C order (a sequential read of H); its transpose,
    # equal to it by symmetry, is Fortran-ordered, so LAPACK factors and
    # inverts it in place
    a = np.array(hm[::-1, ::-1], dtype=np.float64).T
    a[np.diag_indices(m)] += lam
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
    """Build CalibStats from a features x samples activation matrix."""
    h = build_hessian(x)
    lam = resolve_damping(h, damping)
    u, hinv_diag = damped_cholesky_inverse(h, lam)
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
