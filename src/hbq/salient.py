"""Salient-column scoring, top-K masks, and hole filling.

Columns whose quantization error disproportionately affects layer output get
special treatment. Which K of the top-scoring columns are salient is decided
by trial quantization in ``pipeline._select_salient_full``, so "how many
columns are salient" is measured, not a fixed ratio.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ConfigError, ShapeError
from .tensor import as_matrix

__all__ = [
    "SalientMask",
    "column_scores",
    "top_k_mask",
    "fill_avg",
]


@dataclass(frozen=True)
class SalientMask:
    """Which columns of one block get the salient treatment: one bit per
    column, so the block's width is bits.size. The mask holds a read-only
    copy of the bits, so K is counted once."""

    bits: np.ndarray

    def __post_init__(self):
        bits = np.array(self.bits, dtype=bool)
        bits.flags.writeable = False
        object.__setattr__(self, "bits", bits)
        if bits.ndim != 1:
            raise ShapeError(f"mask bits must be one row, got shape {bits.shape}")
        if bits.all():
            raise ConfigError("at least one column must stay non-salient")

    @cached_property
    def k(self) -> int:
        return int(self.bits.sum())

    @property
    def indices(self) -> np.ndarray:
        return np.flatnonzero(self.bits)


def column_scores(s, norm: str = "l2") -> np.ndarray:
    """Per-column l2 (or l1) norms of a block-restricted saliency matrix."""
    arr = np.asarray(s, dtype=np.float64)
    if arr.ndim != 2 or arr.size == 0:
        raise ShapeError(f"expected a non-empty 2-D matrix, got shape {arr.shape}")
    if norm == "l2":
        return np.sqrt(np.sum(arr * arr, axis=0))
    if norm == "l1":
        return np.sum(np.abs(arr), axis=0)
    raise ConfigError(f"norm must be 'l1' or 'l2', got {norm!r}")


def top_k_mask(scores, k: int) -> SalientMask:
    """Mask of the K highest-scoring columns, one score per column; ties go
    to the lower index."""
    sc = np.asarray(scores, dtype=np.float64).ravel()
    if not 0 <= k < sc.size:
        raise ConfigError(f"K must satisfy 0 <= K < {sc.size}, got {k}")
    bits = np.zeros(sc.size, dtype=bool)
    if k:
        order = np.argsort(-sc, kind="stable")  # stable: lower index wins ties
        bits[order[:k]] = True
    return SalientMask(bits)


def fill_avg(w_block, mask: SalientMask) -> np.ndarray:
    """Replace each salient column, per row, by the mean of its nearest
    non-salient neighbors (single neighbor at block edges).

    Consecutive holes all look through to the same non-salient columns,
    never to other filled values, so the result is order-independent.
    """
    wm = as_matrix(w_block, "block").copy()
    if mask.bits.size != wm.shape[1]:
        raise ShapeError(f"mask width {mask.bits.size} != block width {wm.shape[1]}")
    if mask.k == 0:
        return wm
    keep = np.flatnonzero(~mask.bits)  # non-empty: mask validation ensures it
    holes = mask.indices
    pos = np.searchsorted(keep, holes)
    # a hole's nearest non-salient neighbours; at a block edge both are the
    # one neighbour it has
    left = keep[np.maximum(pos - 1, 0)]
    right = keep[np.minimum(pos, keep.size - 1)]
    fill = wm[:, left]
    two = left != right
    fill[:, two] = (fill[:, two] + wm[:, right[two]]) * np.float32(0.5)
    wm[:, holes] = fill
    return wm
