"""Per-band sparse/dense grouping and sign binarization with scale search.

A line is one row of the matrix handed to ``quantize_lines``; which way
lines run through a weight block is the pipeline's business. With the
transform on, each line is Haar-transformed into a low and a high band of
equal width; with it off, the raw line is one band. The planner sees only
bands: each band is a row of its own. Within a band, every candidate
threshold t (an absolute-value percentile of the band) separates sparse
positions (|c| >= t) from dense ones, each group is binarized around its
mean (or around the pooled mean when sharing is on), and the candidate
with the smallest reconstruction error wins.

Planned scalars are narrowed to binary16 at plan time, not at write time:
the error the search optimizes is then exactly the error of what the file
stores, and decode reproduces quantize-time reconstructions bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from functools import lru_cache

import numpy as np

from ._kernels import band_levels, plan_lines
from .config import QuantConfig, nearest_rank, percentile_levels
from .errors import NumericError, ShapeError
from .haar import haar_fwd_rows, haar_inv_rows
from .tensor import as_matrix

CIQ_TOLERANCE = 1e-9

__all__ = [
    "LinePlans",
    "band_split",
    "quantize_lines",
    "compute_ciq",
]


def band_split(width: int, cfg: QuantConfig) -> int:
    """The width of each band of a line of width positions: half of it
    with the transform on, all of it (one raw band) with it off."""
    if not cfg.haar_enabled:
        return width
    if width % 2 != 0:
        raise ShapeError(f"transformed line length {width} is odd")
    return width // 2


@dataclass(frozen=True, eq=False)
class LinePlans:
    """Winning groupings of a set of lines, as arrays (one line per row).

    A line of width positions holds one band (an untransformed line) or
    two of width // 2, the Haar low and high band. Per (line, band):
    thr_idx, the binary16-representable mu_sparse/mu_dense/alpha_sparse/
    alpha_dense (mu_dense and alpha_dense are 0.0 when the dense group is
    empty; with mean sharing both mu slots hold the pooled mean), and
    thr_val/sse, diagnostics that are never serialized and read NaN after
    decode. Per position: sparse (group membership) and signs (+1/-1).
    The fields are in ``plan_lines``' output order.
    """

    thr_idx: np.ndarray
    thr_val: np.ndarray = field(repr=False)
    mu_sparse: np.ndarray
    mu_dense: np.ndarray
    alpha_sparse: np.ndarray
    alpha_dense: np.ndarray
    sse: np.ndarray = field(repr=False)
    sparse: np.ndarray
    signs: np.ndarray = field(repr=False)

    def __post_init__(self):
        lines, width = self.signs.shape
        bands = self.thr_idx.shape[-1]
        if bands not in (1, 2) or width % bands:
            raise ShapeError(f"lines of width {width} do not hold {bands} bands")
        for name in ("thr_idx", "thr_val", "mu_sparse", "mu_dense",
                     "alpha_sparse", "alpha_dense", "sse"):
            if getattr(self, name).shape != (lines, bands):
                raise ShapeError(
                    f"{name} shape {getattr(self, name).shape} != {(lines, bands)}"
                )
        if self.sparse.shape != (lines, width):
            raise ShapeError(f"sparse shape {self.sparse.shape} != {(lines, width)}")

    @classmethod
    def empty(cls, width: int) -> LinePlans:
        """A set of zero lines of length width (e.g. no salient columns)."""
        f32 = np.zeros((0, 1), np.float32)
        return cls(np.zeros((0, 1), np.uint8), f32, f32, f32, f32, f32,
                   np.zeros((0, 1), np.float64), np.zeros((0, width), bool),
                   np.zeros((0, width), np.int8))

    @classmethod
    def concat(cls, parts: list[LinePlans]) -> LinePlans:
        """The lines of every part, in order (parts of one width and band
        count)."""
        if len(parts) == 1:
            return parts[0]
        return cls(*(np.concatenate([getattr(p, name) for p in parts])
                     for name in _FIELDS))

    def select(self, rows) -> LinePlans:
        """The plans of some of the lines: rows (a slice, index array or
        boolean mask) indexes the first axis of every field."""
        return LinePlans(*(getattr(self, name)[rows] for name in _FIELDS))

    @property
    def lines(self) -> int:
        return self.signs.shape[0]

    @property
    def width(self) -> int:
        return self.signs.shape[1]

    def recon(self) -> np.ndarray:
        """Dequantize every line from its plan and sign bits alone: each
        position takes the level of its group and sign from its band's
        four float32 levels, the ones the planner scores
        (``_kernels.band_levels``).
        """
        bands = self.thr_idx.shape[1]
        n = self.lines * bands
        rows = (n, self.width // bands)
        mu, al = np.array([self.mu_dense, self.mu_sparse, self.alpha_dense,
                           self.alpha_sparse], np.float64).reshape(2, 2, n)
        # cell = 2·sparse + (sign > 0) in uint8 (on small blocks a Python-int
        # factor costs more than the gather); the levels-last (band rows, 4)
        # table is read at 4·row + cell
        sparse = self.sparse.reshape(rows).view(np.uint8)
        cell = sparse + sparse
        cell += self.signs.reshape(rows) > 0
        at = cell + np.arange(0, 4 * n, 4)[:, None]
        return band_levels(mu, al).ravel()[at].reshape(self.lines, self.width)

    def weights(self) -> np.ndarray:
        """recon() synthesized back to the line domain, one row per line."""
        coeffs = self.recon()
        return coeffs if self.thr_idx.shape[1] == 1 else haar_inv_rows(coeffs)


_FIELDS = tuple(f.name for f in fields(LinePlans))


@lru_cache(maxsize=64)
def _ranks(n_candidates: int, split: int) -> np.ndarray:
    """The nearest ranks of the n_candidates grid in a band of split values,
    read-only: every call with the same grid and width shares one array."""
    levels = percentile_levels(n_candidates)
    ranks = np.array([nearest_rank(lv, split) for lv in levels], np.int64)
    ranks.flags.writeable = False
    return ranks


def quantize_lines(lines, cfg: QuantConfig) -> LinePlans:
    """Plan every row of lines as one line.

    With cfg.haar_enabled the lines are transformed, and the (n, width)
    coefficients are viewed, without a copy, as (n·2, width/2) band rows:
    each line's low band, then its high band. One ``plan_lines`` call plans
    every band row, and its outputs are viewed back as (n, bands) and
    (n, width). ``plans.weights()`` reconstructs the lines.
    """
    mat = as_matrix(lines, "lines")
    n, width = mat.shape
    split = band_split(width, cfg)
    coeffs = mat if split == width else haar_fwd_rows(mat)
    ranks = _ranks(cfg.n_candidates, split)
    out = plan_lines(coeffs.reshape(-1, split), ranks, cfg.share_mean)
    plans = LinePlans(*(a.reshape(n, -1) for a in out))
    if not np.all(np.isfinite(plans.sse)):
        raise NumericError("band statistics exceed the binary16 scalar range")
    return plans


def compute_ciq(recon) -> np.ndarray:
    """Count the distinct values in each row of a reconstructed matrix (a
    vector is one row).

    Sorted-adjacent merge: a value starts a new level when it lies more than
    CIQ_TOLERANCE above its sorted predecessor, so near-duplicates from
    float noise count once (transitively).
    """
    v = np.sort(np.atleast_2d(np.asarray(recon, dtype=np.float64)), axis=-1)
    return np.count_nonzero(np.diff(v, prepend=-np.inf) > CIQ_TOLERANCE, axis=-1)
