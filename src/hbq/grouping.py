"""Per-band sparse/dense grouping and sign binarization with scale search.

A line is one row of the matrix handed to ``quantize_lines``; which way
lines run through a weight block is the pipeline's business. With the
transform on, each line is Haar-transformed and split at ``band_split``
into a low and a high band; with it off, the raw line is one band. Within a
band, every candidate threshold t (an absolute-value percentile of the
band) separates sparse positions (|c| >= t) from dense ones, each group is
binarized around its mean (or around the pooled mean when sharing is on),
and the candidate with the smallest reconstruction error wins.

Planned scalars are narrowed to binary16 at plan time, not at write time:
the error the search optimizes is then exactly the error of what the file
stores, and decode reproduces quantize-time reconstructions bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ._kernels import plan_lines
from .config import QuantConfig, nearest_rank
from .errors import NumericError, ShapeError
from .haar import haar_fwd_rows, haar_inv_rows
from .tensor import as_matrix

CIQ_TOLERANCE = 1e-9

__all__ = [
    "LinePlans",
    "band_bounds",
    "band_split",
    "quantize_lines",
    "compute_ciq",
]


def band_split(width: int, cfg: QuantConfig) -> int:
    """Where the low band of a line of width positions ends: half of it
    with the transform on, all of it (one raw band) with it off."""
    if not cfg.haar_enabled:
        return width
    if width % 2 != 0:
        raise ShapeError(f"transformed line length {width} is odd")
    return width // 2


def band_bounds(width: int, split: int) -> list[tuple[int, int]]:
    """[lo, hi) position ranges of the bands of a line split at split."""
    return [(0, split)] if split == width else [(0, split), (split, width)]


@dataclass(frozen=True, eq=False)
class LinePlans:
    """Winning groupings of a set of lines, as arrays (one line per row).

    Lines hold width positions, split into bands at split: one band when
    split == width (untransformed lines), else the Haar low band [0, split)
    and high band [split, width), split == width // 2. Per (line, band):
    thr_idx, the binary16-representable mu_sparse/mu_dense/alpha_sparse/
    alpha_dense (mu_dense and alpha_dense are 0.0 when the dense group is
    empty; with mean sharing both mu slots hold the pooled mean), and
    thr_val/sse, diagnostics that are never serialized and read NaN after
    decode. Per position: sparse (group membership) and signs (+1/-1).
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
        if self.split != width and (width % 2 or self.split != width // 2):
            raise ShapeError(
                f"band split {self.split} is neither {width} nor half of it"
            )
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

    def weights(self) -> np.ndarray:
        """recon() synthesized back to the line domain, one row per line."""
        coeffs = self.recon()
        return coeffs if self.split == self.width else haar_inv_rows(coeffs)


def _ranks_for(levels, nvals: int) -> np.ndarray:
    return np.array([nearest_rank(lv, nvals) for lv in levels], dtype=np.int64)


def _line_plans(out, split: int) -> tuple[LinePlans, np.ndarray]:
    """Wrap plan_lines output; reject lines whose scalars overflow binary16."""
    thr_idx, thr_val, mu_s, mu_d, al_s, al_d, sse, sparse, signs, recon = out
    if not np.all(np.isfinite(sse)):
        raise NumericError("band statistics exceed the binary16 scalar range")
    plans = LinePlans(
        split=split,
        thr_idx=thr_idx,
        mu_sparse=mu_s,
        mu_dense=mu_d,
        alpha_sparse=al_s,
        alpha_dense=al_d,
        sparse=sparse.view(bool),
        signs=signs,
        thr_val=thr_val,
        sse=sse,
    )
    return plans, recon


def quantize_lines(lines, cfg: QuantConfig) -> tuple[LinePlans, np.ndarray]:
    """Plan every row of lines as one line and reconstruct it.

    Lines are transformed when cfg.haar_enabled, planned band by band, and
    synthesized back: recon holds the planner's reconstruction of each
    line in the domain of lines, bit for bit what plans.weights() gives.
    """
    mat = as_matrix(lines, "lines")
    width = mat.shape[1]
    split = band_split(width, cfg)
    raw = split == width
    levels = cfg.levels()
    ranks0 = _ranks_for(levels, split)
    ranks1 = np.zeros(0, np.int64) if raw else _ranks_for(levels, width - split)
    coeffs = mat if raw else haar_fwd_rows(mat)
    out = plan_lines(coeffs, split, ranks0, ranks1, cfg.share_mean)
    plans, recon = _line_plans(out, split)
    return plans, recon if raw else haar_inv_rows(recon)


def compute_ciq(recon) -> np.ndarray:
    """Count the distinct values in each row of a reconstructed matrix (a
    vector is one row).

    Sorted-adjacent merge: a value starts a new level when it lies more than
    CIQ_TOLERANCE above its sorted predecessor, so near-duplicates from
    float noise count once (transitively).
    """
    v = np.sort(np.atleast_2d(np.asarray(recon, dtype=np.float64)), axis=-1)
    return np.count_nonzero(np.diff(v, prepend=-np.inf) > CIQ_TOLERANCE, axis=-1)
