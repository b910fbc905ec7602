"""Minimal dense-matrix helpers shared by every stage of the pipeline.

Weights, activations, and residuals are plain 2-D float32 ndarrays in
row-major (C) order. Accumulation happens in float64 and results are
narrowed back to float32, so desk-scale fidelity checks stay tight while
the stored values match what the file formats can hold.
"""

from __future__ import annotations

import numpy as np

from .errors import ShapeError

__all__ = ["as_matrix", "frobenius_error"]


def as_matrix(a, name: str = "matrix", check_finite: bool = False) -> np.ndarray:
    """Validate and return `a` as a C-contiguous 2-D float32 array.

    check_finite=True rejects NaN/Inf entries, which is required for
    anything read from a file before it enters the pipeline.
    """
    arr = np.ascontiguousarray(a, dtype=np.float32)
    if arr.ndim != 2:
        raise ShapeError(f"{name} must be 2-D, got shape {arr.shape}")
    if arr.shape[0] < 1 or arr.shape[1] < 1:
        raise ShapeError(f"{name} must be non-empty, got shape {arr.shape}")
    if check_finite and not np.all(np.isfinite(arr)):
        raise ShapeError(f"{name} contains non-finite entries")
    return arr


def frobenius_error(a: np.ndarray, b: np.ndarray) -> float:
    """Frobenius norm of (a - b), accumulated in float64."""
    a = as_matrix(a, "left operand")
    b = as_matrix(b, "right operand")
    if a.shape != b.shape:
        raise ShapeError(
            f"frobenius_error shape mismatch: {a.shape} vs {b.shape}"
        )
    d = a.astype(np.float64) - b.astype(np.float64)
    return float(np.sqrt(np.sum(d * d)))
