"""Single-level 1-D Haar analysis/synthesis of every row of a matrix.

The kernels are the fixed stride-2 pair [1/2, 1/2] and [1/2, -1/2] with the
matching (l + h, l - h) synthesis; one multiply-add per kernel per output
coefficient. They are averaging kernels, not the 1/sqrt(2)-scaled orthonormal
pair, so instead of norm preservation the energy identity

    sum(v^2) == 2 * (sum(low^2) + sum(high^2))

holds. A row of even length d transforms to [low | high], each d/2 wide.
Callers check the length: ``grouping.band_split`` rejects odd lines rather
than padding them, since padding would silently change reconstruction
shapes and bit accounting downstream.
"""

from __future__ import annotations

from enum import Enum

import numpy as np

__all__ = ["Axis", "haar_fwd_rows", "haar_inv_rows"]

_HALF = np.float32(0.5)


class Axis(Enum):
    """Direction a block's lines run along: each ROW, or each COL."""

    ROW = "row"
    COL = "col"


def haar_fwd_rows(m: np.ndarray) -> np.ndarray:
    """[low | high] of every row of m (even width)."""
    h = m.shape[1] // 2
    out = np.empty_like(m)
    out[:, :h] = (m[:, 0::2] + m[:, 1::2]) * _HALF
    out[:, h:] = (m[:, 0::2] - m[:, 1::2]) * _HALF
    return out


def haar_inv_rows(c: np.ndarray) -> np.ndarray:
    """Exact synthesis of every [low | high] row of c."""
    h = c.shape[1] // 2
    out = np.empty_like(c)
    out[:, 0::2] = c[:, :h] + c[:, h:]
    out[:, 1::2] = c[:, :h] - c[:, h:]
    return out
