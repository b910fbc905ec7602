"""Single-level 1-D Haar analysis/synthesis along matrix rows or columns.

The kernels are the fixed stride-2 pair [1/2, 1/2] and [1/2, -1/2] with the
matching (l + h, l - h) synthesis; one multiply-add per kernel per output
coefficient. They are averaging kernels, not the 1/sqrt(2)-scaled orthonormal
pair, so instead of norm preservation the energy identity

    sum(v^2) == 2 * (sum(low^2) + sum(high^2))

holds. Odd lengths are rejected rather than padded: padding would silently
change reconstruction shapes and bit accounting downstream.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from ._kernels import haar_fwd_rows, haar_inv_rows
from .errors import ShapeError
from .tensor import as_matrix

__all__ = [
    "Axis",
    "HaarCoeffs",
    "haar_matrix",
    "inverse_haar_matrix",
    "raw_lines",
]


class Axis(Enum):
    """Direction a transform runs along: each ROW, or each COL."""

    ROW = "row"
    COL = "col"


@dataclass(frozen=True)
class HaarCoeffs:
    """Coefficients of a single-level transform of one matrix.

    mat lays out [low | high] horizontally for ROW, low rows above high
    rows for COL. band_split is where the low band ends along the
    transformed axis, always exactly half of it.

    band_split == axis length marks an untransformed passthrough: mat is
    raw values treated as one band (the no-transform baseline), and
    synthesis is the identity. Built via raw_lines(), never haar_matrix().
    """

    mat: np.ndarray
    axis: Axis
    band_split: int

    def __post_init__(self):
        m = as_matrix(self.mat, "coefficients")
        object.__setattr__(self, "mat", m)
        length = m.shape[1] if self.axis is Axis.ROW else m.shape[0]
        if self.band_split == length:
            return  # raw passthrough, any length
        if length % 2 != 0:
            raise ShapeError(f"transformed axis length {length} is odd")
        if self.band_split != length // 2:
            raise ShapeError(
                f"band_split {self.band_split} != half of axis length {length}"
            )

    @property
    def is_raw(self) -> bool:
        length = self.mat.shape[1] if self.axis is Axis.ROW else self.mat.shape[0]
        return self.band_split == length


def haar_matrix(m, axis: Axis) -> HaarCoeffs:
    """Transform every row (ROW) or every column (COL) of a matrix."""
    mat = as_matrix(m)
    length = mat.shape[1] if axis is Axis.ROW else mat.shape[0]
    if length % 2 != 0:
        raise ShapeError(
            f"{axis.value} transform needs an even axis length, got {length}"
        )
    if axis is Axis.ROW:
        out = haar_fwd_rows(mat)
    else:
        # column transform == row transform of the transpose
        out = np.ascontiguousarray(haar_fwd_rows(np.ascontiguousarray(mat.T)).T)
    return HaarCoeffs(mat=out, axis=axis, band_split=length // 2)


def raw_lines(m, axis: Axis) -> HaarCoeffs:
    """Wrap a matrix untransformed, one band per line (baseline mode)."""
    mat = as_matrix(m)
    length = mat.shape[1] if axis is Axis.ROW else mat.shape[0]
    return HaarCoeffs(mat=mat, axis=axis, band_split=length)


def inverse_haar_matrix(c: HaarCoeffs) -> np.ndarray:
    """Exact synthesis along the recorded axis (identity for raw lines)."""
    if c.is_raw:
        return c.mat.copy()
    if c.axis is Axis.ROW:
        return haar_inv_rows(c.mat)
    return np.ascontiguousarray(haar_inv_rows(np.ascontiguousarray(c.mat.T)).T)
