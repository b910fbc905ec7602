"""Per-band sparse/dense grouping and sign binarization with scale search.

Each line (matrix row in ROW mode, column in COL mode) is split at the band
boundary into a low and a high band. Within a band, every candidate
threshold t (an absolute-value percentile of the band) separates sparse
positions (|c| >= t) from dense ones, each group is binarized around its
mean (or around the pooled mean when sharing is on), and the candidate with
the smallest reconstruction error wins.

Planned scalars are narrowed to binary16 at plan time, not at write time:
the error the search optimizes is then exactly the error of what the file
stores, and decode reproduces quantize-time reconstructions bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ._kernels import plan_lines
from .config import QuantConfig, nearest_rank, percentile_levels
from .errors import ConfigError, NumericError, ShapeError
from .haar import Axis, HaarCoeffs

__all__ = [
    "LinePlans",
    "band_bounds",
    "plan_band",
    "quantize_lines",
    "compute_ciq",
]


def band_bounds(width: int, split: int) -> list[tuple[int, int]]:
    """[lo, hi) position ranges of the bands of a line split at split."""
    return [(0, split)] if split == width else [(0, split), (split, width)]


@dataclass(frozen=True, eq=False)
class LinePlans:
    """Winning groupings of a set of lines, as arrays (one line per row).

    Lines hold width positions, split into bands at split: one band when
    split == width (untransformed lines), else [0, split) and
    [split, width). Per (line, band): thr_idx, the binary16-representable
    mu_sparse/mu_dense/alpha_sparse/alpha_dense (mu_dense and alpha_dense
    are 0.0 when the dense group is empty; with mean sharing both mu slots
    hold the pooled mean), and thr_val/sse, diagnostics that are never
    serialized and read NaN after decode. Per position: sparse (group
    membership) and signs (+1/-1).
    """

    split: int
    thr_idx: np.ndarray
    mu_sparse: np.ndarray
    mu_dense: np.ndarray
    alpha_sparse: np.ndarray
    alpha_dense: np.ndarray
    sparse: np.ndarray
    signs: np.ndarray = field(repr=False)
    thr_val: np.ndarray = field(repr=False)
    sse: np.ndarray = field(repr=False)

    def __post_init__(self):
        lines, width = self.signs.shape
        if not 1 <= self.split <= width:
            raise ShapeError(f"band split {self.split} outside [1, {width}]")
        bands = (lines, 1 if self.split == width else 2)
        for name in ("thr_idx", "mu_sparse", "mu_dense", "alpha_sparse",
                     "alpha_dense", "thr_val", "sse"):
            if getattr(self, name).shape != bands:
                raise ShapeError(f"{name} shape {getattr(self, name).shape} != {bands}")
        if self.sparse.shape != (lines, width):
            raise ShapeError(f"sparse shape {self.sparse.shape} != {(lines, width)}")

    @classmethod
    def empty(cls, width: int) -> LinePlans:
        """A set of zero lines of length width (e.g. no salient columns)."""
        f32 = np.zeros((0, 1), np.float32)
        return cls(width, np.zeros((0, 1), np.uint8), f32, f32, f32, f32,
                   np.zeros((0, width), bool), np.zeros((0, width), np.int8),
                   f32, np.zeros((0, 1), np.float64))

    @property
    def lines(self) -> int:
        return self.signs.shape[0]

    @property
    def width(self) -> int:
        return self.signs.shape[1]

    @property
    def bands(self) -> list[tuple[int, int]]:
        return band_bounds(self.width, self.split)

    def recon(self) -> np.ndarray:
        """Dequantize every line from its plan and sign bits alone.

        Matches planner reconstructions bit for bit: the same f64
        mu + alpha*sign evaluation narrowed to f32 at the end.
        """
        band = np.zeros(self.width, np.intp)
        band[self.split :] = 1
        mu = np.where(self.sparse, self.mu_sparse[:, band], self.mu_dense[:, band])
        al = np.where(
            self.sparse, self.alpha_sparse[:, band], self.alpha_dense[:, band]
        )
        return (mu.astype(np.float64) + al.astype(np.float64) * self.signs).astype(
            np.float32
        )


def _ranks_for(levels, nvals: int) -> np.ndarray:
    return np.array([nearest_rank(lv, nvals) for lv in levels], dtype=np.int64)


def _line_plans(out, split: int) -> tuple[LinePlans, np.ndarray]:
    """Wrap plan_lines output; reject lines whose scalars overflow binary16."""
    thr_idx, thr_val, mu_s, mu_d, al_s, al_d, sse, sparse, signs, recon = out
    nb = 1 if split == signs.shape[1] else 2
    if not np.all(np.isfinite(sse[:, :nb])):
        raise NumericError("band statistics exceed the binary16 scalar range")
    plans = LinePlans(
        split=split,
        thr_idx=thr_idx[:, :nb],
        mu_sparse=mu_s[:, :nb],
        mu_dense=mu_d[:, :nb],
        alpha_sparse=al_s[:, :nb],
        alpha_dense=al_d[:, :nb],
        sparse=sparse.view(bool),
        signs=signs,
        thr_val=thr_val[:, :nb],
        sse=sse[:, :nb],
    )
    return plans, recon


def plan_band(
    band, n_candidates: int = 40, share_mean: bool = True, levels=None
) -> LinePlans:
    """Search candidate thresholds on one band, return its one-line plan.

    Ties break toward the smaller threshold index. levels overrides the
    default evenly spaced percentile levels (used for nested A/B sweeps).
    """
    v = np.ascontiguousarray(band, dtype=np.float32).reshape(1, -1)
    if v.size == 0:
        raise ShapeError("band must be non-empty")
    if levels is None:
        levels = percentile_levels(n_candidates)
    ranks = _ranks_for(levels, v.shape[1])
    out = plan_lines(v, v.shape[1], ranks, np.zeros(0, np.int64), share_mean)
    return _line_plans(out, v.shape[1])[0]


def quantize_lines(
    coeffs: HaarCoeffs, cfg: QuantConfig
) -> tuple[LinePlans, np.ndarray]:
    """Plan every line of a coefficient matrix and reconstruct it.

    ROW lines are matrix rows split at band_split into [low | high]; COL
    lines are matrix columns. Raw (untransformed) coefficients are planned
    as one band per line. recon has the same orientation as coeffs.mat.
    """
    mat = coeffs.mat
    if coeffs.axis is Axis.ROW:
        lines = mat
    else:
        lines = np.ascontiguousarray(mat.T)
    d = lines.shape[1]
    if cfg.haar_enabled and coeffs.is_raw:
        raise ConfigError("transform enabled but coefficients are raw lines")
    if not cfg.haar_enabled and not coeffs.is_raw:
        raise ConfigError("transform disabled but coefficients are transformed")
    split = d if coeffs.is_raw else coeffs.band_split

    levels = cfg.levels()
    ranks0 = _ranks_for(levels, split)
    ranks1 = (
        np.zeros(0, np.int64) if split == d else _ranks_for(levels, d - split)
    )
    out = plan_lines(lines, split, ranks0, ranks1, cfg.share_mean)
    plans, recon = _line_plans(out, split)
    if coeffs.axis is Axis.COL:
        recon = np.ascontiguousarray(recon.T)
    return plans, recon


def compute_ciq(recon_row, tolerance: float = 1e-9) -> int:
    """Count distinct values in a reconstructed row.

    Sorted-adjacent merge: neighbors within tolerance collapse into one
    level (transitively), so near-duplicates from float noise count once.
    """
    if tolerance < 0:
        raise ShapeError("tolerance must be non-negative")
    v = np.sort(np.asarray(recon_row, dtype=np.float64).ravel())
    if v.size == 0:
        return 0
    return 1 + int(np.count_nonzero(np.diff(v) > tolerance))
