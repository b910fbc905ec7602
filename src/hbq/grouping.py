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

# The shortest two-band line whose weights are gathered from a table of
# its 16 possible output pairs (``LinePlans.weights``). The table costs 32
# floats per line, so it pays once a line has twice as many pairs as the
# table has entries: per 2^17 positions it took 0.34 ms against 0.45 ms for
# recon() and the inverse transform on 128-wide lines, the same at 64, and
# 0.82 against 0.67 ms at 32 (numpy 2.4, 2-vCPU EPYC).
_PAIR_TABLE_WIDTH = 64

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
    thr_idx; scalars, the band's four binary16-representable scalars as
    float32 in ``_kernels.band_levels`` order: mu_dense, mu_sparse,
    alpha_dense, alpha_sparse (mu_dense and alpha_dense are 0.0 when the
    dense group is empty; with mean sharing both mu slots hold the pooled
    mean); and thr_val/sse, diagnostics that are never serialized and read
    NaN after decode. Per position: sparse (group membership) and signs
    (+1/-1). The fields are in ``plan_lines``' output order.
    """

    thr_idx: np.ndarray
    thr_val: np.ndarray = field(repr=False)
    scalars: np.ndarray
    sse: np.ndarray = field(repr=False)
    sparse: np.ndarray
    signs: np.ndarray = field(repr=False)

    def __post_init__(self):
        lines, width = self.signs.shape
        bands = self.thr_idx.shape[-1]
        if bands not in (1, 2) or width % bands:
            raise ShapeError(f"lines of width {width} do not hold {bands} bands")
        for name, shape in (("thr_idx", (lines, bands)), ("thr_val", (lines, bands)),
                            ("scalars", (lines, bands, 4)), ("sse", (lines, bands)),
                            ("sparse", (lines, width))):
            if getattr(self, name).shape != shape:
                raise ShapeError(f"{name} shape {getattr(self, name).shape} != {shape}")

    @classmethod
    def empty(cls, width: int) -> LinePlans:
        """A set of zero lines of length width (e.g. no salient columns)."""
        return cls(np.zeros((0, 1), np.uint8), np.zeros((0, 1), np.float32),
                   np.zeros((0, 1, 4), np.float32), np.zeros((0, 1)),
                   np.zeros((0, width), bool), np.zeros((0, width), np.int8))

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

    def _cells(self) -> tuple[np.ndarray, np.ndarray]:
        """Each band row's cells and levels: per position, cell = 2·sparse +
        (sign > 0) in uint8 (band rows, positions); per band row, the four
        float32 levels the planner scores (``_kernels.band_levels``),
        levels last. A position's value is its row's level at its cell."""
        bands = self.thr_idx.shape[1]
        rows = (self.lines * bands, self.width // bands)
        # uint8 arithmetic: on small blocks a Python-int factor costs more
        # than the gather
        sparse = self.sparse.reshape(rows).view(np.uint8)
        cell = sparse + sparse
        cell += self.signs.reshape(rows) > 0
        return cell, band_levels(self.scalars.reshape(rows[0], 4))

    def recon(self) -> np.ndarray:
        """Dequantize every line from its plan and sign bits alone, as
        transform coefficients: each position takes its band row's level at
        its cell, read from the levels-last table at 4·row + cell."""
        cell, levels = self._cells()
        at = cell + np.arange(0, 4 * len(levels), 4)[:, None]
        return levels.ravel()[at].reshape(self.lines, self.width)

    def weights(self) -> np.ndarray:
        """recon() synthesized back to the line domain, one row per line.

        Output pair j of a two-band line is [low + high, low - high] of
        position j of its low and of its high band, so the line has 16
        possible pairs, one per pair of cells. From ``_PAIR_TABLE_WIDTH``
        positions up, a table of them, made with the float32 sum and
        difference ``haar_inv_rows`` takes of recon(), is gathered from as
        8-byte items: one gather writes both outputs of a pair, with the
        bits of the inverse transform of recon(), which shorter lines take.
        """
        if self.thr_idx.shape[1] == 1:
            return self.recon()
        if self.width < _PAIR_TABLE_WIDTH:
            return haar_inv_rows(self.recon())
        cell, levels = self._cells()
        lines, half = self.lines, self.width // 2
        cell = cell.reshape(lines, 2, half)
        pair = cell[:, 0] << 2  # 4·low cell + high cell
        pair += cell[:, 1]
        levels = levels.reshape(lines, 2, 4)
        low, high = levels[:, 0, :, None], levels[:, 1, None, :]
        table = np.empty((lines, 4, 4, 2), np.float32)  # [sum, difference]
        np.add(low, high, out=table[..., 0])
        np.subtract(low, high, out=table[..., 1])
        at = pair + np.arange(0, 16 * lines, 16)[:, None]
        pairs = table.view(np.uint64).ravel()[at]
        return pairs.view(np.float32).reshape(lines, self.width)


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
    idx, thr, scalars, *rest = (a.reshape(n, -1) for a in out)
    plans = LinePlans(idx, thr, scalars.reshape(n, -1, 4), *rest)
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
