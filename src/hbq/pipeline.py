"""End-to-end block pipeline: saliency -> trial selection -> quantize ->
trailing error compensation.

Blocks of beta columns are processed left to right. Each block is quantized
by Row-HaarQuant (fill salient holes, transform and binarize rows, then
column-quantize the salient residual) or Col-HaarQuant (column-quantize
non-salient and salient columns separately). The block's residual is then
propagated into not-yet-quantized columns through the Cholesky factor of
the damped inverse Hessian, so later blocks absorb earlier blocks' error.

This is the only module that knows which way lines run through a block:
``grouping.quantize_lines`` plans the rows of whatever matrix it is given,
so column lines are handed to it transposed and their reconstructions are
transposed back.

The input weight matrix is consumed: compensation mutates it in place.
Callers needing the original must copy first.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, field
from itertools import zip_longest

import numpy as np

from .calib import CalibStats, build_calib_stats, saliency_matrix
from .config import QuantConfig
from .errors import ConfigError, NumericError, ShapeError
from .grouping import LinePlans, quantize_lines
from .haar import Axis
from .salient import SalientMask, column_scores, fill_avg, top_k_mask
from .tensor import as_matrix, frobenius_error

__all__ = [
    "QuantizedBlock",
    "QuantizedLayer",
    "block_spans",
    "row_haarquant",
    "col_haarquant",
    "reconstruct_block",
    "compensate",
    "hbllm_quantize",
    "dequantize_layer",
]


def block_spans(m: int, beta: int) -> Iterator[tuple[int, int]]:
    """Each block's (first column, width): beta-wide blocks from the left,
    the last holding the remainder. Lazy, because a decoder takes m and
    beta from an untrusted header."""
    return ((b, min(beta, m - b)) for b in range(0, m, beta))


@dataclass
class QuantizedBlock:
    """One quantized block of n rows and beta (or remainder) columns.

    ROW mode: nonsalient_plans holds one line per matrix row of the
    hole-filled block; salient_plans one column line of n residuals per
    salient column. COL mode: nonsalient_plans holds one column line per
    non-salient column; salient_plans one per salient column (quantized
    directly, no residual to subtract). The block stores no shape or
    position: its width is the mask's, its rows follow from the non-salient
    plans and the mode, and QuantizedLayer.spans places it.
    """

    mode: Axis
    mask: SalientMask
    nonsalient_plans: LinePlans
    salient_plans: LinePlans

    def __post_init__(self):
        n, width = self.shape
        k = self.mask.k
        nonsalient = (n, width) if self.mode is Axis.ROW else (width - k, n)
        for name, want in (("nonsalient", nonsalient), ("salient", (k, n))):
            got = getattr(self, f"{name}_plans").signs.shape
            if got != want:
                raise ShapeError(f"{name} plans have shape {got}, expected {want}")

    @property
    def shape(self) -> tuple[int, int]:
        plans = self.nonsalient_plans
        rows = plans.lines if self.mode is Axis.ROW else plans.width
        return rows, self.mask.bits.size


@dataclass
class QuantizedLayer:
    """An n x m layer: one block per span, in order, plus the settings
    needed to reconstruct them. Each block is in the layer's mode and has
    n rows and its span's width; nothing else records where a block sits."""

    blocks: list[QuantizedBlock]
    n: int
    m: int
    beta: int
    mode: Axis
    damping: float
    cfg: QuantConfig
    diagnostics: dict | None = field(default=None, compare=False)

    def __post_init__(self):
        for i, (block, span) in enumerate(zip_longest(self.blocks, self.spans)):
            if block is None or span is None or block.shape != (self.n, span[1]):
                raise ShapeError(f"block {i} does not fit span {span} of {self.n} rows")
            if block.mode is not self.mode:
                raise ShapeError("blocks disagree on mode")

    @property
    def spans(self) -> Iterator[tuple[int, int]]:
        """Each block's (first column, width), in block order."""
        return block_spans(self.m, self.beta)


def row_haarquant(
    w_block, mask: SalientMask, cfg: QuantConfig
) -> tuple[QuantizedBlock, np.ndarray]:
    """Fill holes, row-quantize, then column-quantize the salient residual.

    Returns the block and its weight-domain reconstruction.
    """
    wm = as_matrix(w_block, "block")
    n = wm.shape[0]
    row_plans = quantize_lines(fill_avg(wm, mask), cfg)
    recon = row_plans.weights()
    salient_plans = LinePlans.empty(n)
    if mask.k:
        idx = mask.indices
        residual = wm[:, idx] - recon[:, idx]
        salient_plans = quantize_lines(residual.T, cfg)
        recon[:, idx] = recon[:, idx] + salient_plans.weights().T
    return QuantizedBlock(Axis.ROW, mask, row_plans, salient_plans), recon


def col_haarquant(
    w_block, mask: SalientMask, cfg: QuantConfig
) -> tuple[QuantizedBlock, np.ndarray]:
    """Column-quantize non-salient and salient columns independently.

    Returns the block and its weight-domain reconstruction.
    """
    wm = as_matrix(w_block, "block")
    n, width = wm.shape
    recon = np.zeros((width, n), dtype=np.float32)  # one row per column
    keep = np.flatnonzero(~mask.bits)
    nonsal_plans = quantize_lines(wm[:, keep].T, cfg)
    recon[keep] = nonsal_plans.weights()
    salient_plans = LinePlans.empty(n)
    if mask.k:
        idx = mask.indices
        salient_plans = quantize_lines(wm[:, idx].T, cfg)
        recon[idx] = salient_plans.weights()
    recon = np.ascontiguousarray(recon.T)
    return QuantizedBlock(Axis.COL, mask, nonsal_plans, salient_plans), recon


def reconstruct_block(block: QuantizedBlock) -> np.ndarray:
    """Dequantize one block from its plans alone (no original data)."""
    n, width = block.shape
    idx = block.mask.indices
    if block.mode is Axis.ROW:
        recon = block.nonsalient_plans.weights()
        if block.mask.k:
            recon[:, idx] = recon[:, idx] + block.salient_plans.weights().T
        return recon
    recon = np.zeros((width, n), dtype=np.float32)  # one row per column
    recon[~block.mask.bits] = block.nonsalient_plans.weights()
    if block.mask.k:
        recon[idx] = block.salient_plans.weights()
    return np.ascontiguousarray(recon.T)


def compensate(w, recon_block, chol_inv, b: int, beta: int) -> None:
    """Push the block's residual into trailing columns of w, in place.

    E = (W_blk - B_blk) U_bb^-1 by triangular back-substitution on the
    diagonal sub-block of the factor, then W_tail -= E U_{blk->tail}.
    """
    n, m = w.shape
    if not (0 <= b and b + beta <= m):
        raise ShapeError(f"block [{b}, {b + beta}) outside {m} columns")
    u = np.asarray(chol_inv)
    if u.shape != (m, m):
        raise ShapeError(f"factor shape {u.shape} != ({m}, {m})")
    # only the block's rows are read; widening f32 to f64 is exact
    u = u[b : b + beta].astype(np.float64)
    u_bb = u[:, b : b + beta]
    if np.any(np.diag(u_bb) == 0.0):
        bad = int(np.flatnonzero(np.diag(u_bb) == 0.0)[0])
        raise NumericError(f"triangular factor has zero diagonal at {b + bad}")
    resid = w[:, b : b + beta].astype(np.float64) - np.asarray(
        recon_block, dtype=np.float64
    )
    if b + beta == m:
        return  # nothing to the right: E would be discarded
    from scipy.linalg import solve_triangular  # local: see calib's lapack

    e = solve_triangular(u_bb, resid.T, lower=False, trans="T").T
    tail = w[:, b + beta :].astype(np.float64)
    w[:, b + beta :] = (tail - e @ u[:, b + beta :]).astype(np.float32)


def _validate_layer_inputs(w, x, beta, mode, cfg):
    try:
        mode = Axis(mode)
    except ValueError:
        raise ConfigError(
            f"mode must be an Axis, 'row' or 'col', got {mode!r}"
        ) from None
    wm = as_matrix(w, "weights", check_finite=True)
    xm = as_matrix(x, "activations", check_finite=True)
    n, m = wm.shape
    if xm.shape[0] != m:
        raise ShapeError(
            f"activation features {xm.shape[0]} != weight columns {m}"
        )
    if not isinstance(beta, (int, np.integer)) or beta < 1:
        raise ConfigError(f"beta must be a positive integer, got {beta}")
    beta = int(min(beta, m))
    if not cfg.haar_enabled:
        return wm, xm, beta, mode  # raw lines: no Haar pairs to keep whole
    rem = m % beta
    if mode is Axis.ROW:
        if beta % 2 != 0:
            raise ConfigError(f"ROW mode needs even beta, got {beta}")
        if rem % 2 != 0:
            raise ConfigError(
                f"remainder block of {rem} columns is odd; ROW mode needs even"
            )
        # a residual pass pairs rows; it runs where some block tries a K > 0
        if n % 2 != 0 and any(
            _trial_ks(cfg.k_candidates, width, mode)[-1] > 0
            for _, width in block_spans(m, beta)
        ):
            raise ConfigError(
                f"salient residual pass needs even rows in ROW mode, got {n}"
            )
    else:
        if n % 2 != 0:
            raise ConfigError(f"COL mode needs even row count, got {n}")
    return wm, xm, beta, mode


def _trial_ks(k_candidates, width: int, mode: Axis) -> list[int]:
    """The distinct K below width, ascending ([0] if there is none); COL mode
    tries only the first. QuantConfig keeps every K even and >= 0."""
    ks = sorted({int(k) for k in k_candidates if k < width}) or [0]
    return ks[:1] if mode is Axis.COL else ks


def _select_salient_full(w_block, scores, k_candidates, cfg, mode):
    """Run one trial per K; return (mask, winning block, per-K errors,
    winning reconstruction).

    Candidates are tried in ascending order with strict improvement
    required, so equal errors resolve to the smaller K. COL mode plans
    every column on its own, so every K reconstructs the block identically
    and only the smallest K is tried. The winning trial block and its
    reconstruction are returned for reuse: trials run without compensation,
    so the final quantization of the same values would reproduce them
    exactly.
    """
    wm = as_matrix(w_block, "block")
    quantize = row_haarquant if mode is Axis.ROW else col_haarquant
    best = None
    errors: dict[int, float] = {}
    for k in _trial_ks(k_candidates, wm.shape[1], mode):
        mask = top_k_mask(scores, k)
        block, recon = quantize(wm, mask, cfg)
        err = frobenius_error(wm, recon)
        errors[k] = err
        if best is None or err < best[0]:
            best = (err, mask, block, recon)
    return best[1], best[2], errors, best[3]


def hbllm_quantize(
    w,
    x,
    beta: int = 128,
    damping="auto",
    mode: Axis = Axis.ROW,
    cfg: QuantConfig = QuantConfig(),
    calib: CalibStats | None = None,
) -> QuantizedLayer:
    """Quantize one layer blockwise with compensation; w is consumed.

    mode may be an Axis or its value, "row" or "col" (so mode="row" is
    Axis.ROW); anything else raises ConfigError before any work is done.
    calib, when given, must match w's column count and skips the Hessian
    build (the CLI reuses one CalibStats across A/B runs).
    """
    wm, xm, beta, mode = _validate_layer_inputs(w, x, beta, mode, cfg)
    n, m = wm.shape
    if calib is None:
        calib = build_calib_stats(xm, damping)
    if calib.chol_inv.shape[0] != m:
        raise ShapeError(
            f"calibration width {calib.chol_inv.shape[0]} != weight columns {m}"
        )
    w_orig = wm.copy()
    recon_full = np.empty_like(wm)
    blocks: list[QuantizedBlock] = []
    per_block: list[dict] = []
    for b, width in block_spans(m, beta):
        w_blk = np.ascontiguousarray(wm[:, b : b + width])
        if cfg.score_raw_weights:
            scores = column_scores(w_blk, cfg.norm)
        else:
            sal = saliency_matrix(w_blk, calib.hinv_diag[b : b + width])
            scores = column_scores(sal, cfg.norm)
        mask, block, trial_errors, recon = _select_salient_full(
            w_blk, scores, cfg.k_candidates, cfg, mode
        )
        err = trial_errors[mask.k]
        thresholds = block.nonsalient_plans.thr_val[:, 0].astype(np.float64)
        per_block.append(
            {
                "block": len(blocks),
                "col_offset": b,
                "width": width,
                "chosen_k": mask.k,
                "error": err,
                "trial_errors": trial_errors,
                "row_threshold_mean": float(np.mean(thresholds)),
            }
        )
        recon_full[:, b : b + width] = recon
        compensate(wm, recon, calib.chol_inv, b, width)
        blocks.append(block)
    layer = QuantizedLayer(
        blocks=blocks,
        n=n,
        m=m,
        beta=beta,
        mode=mode,
        damping=calib.damping,
        cfg=cfg,
    )
    layer.diagnostics = {
        "per_block": per_block,
        "total_error": frobenius_error(w_orig, recon_full),
    }
    return layer


def dequantize_layer(q: QuantizedLayer) -> np.ndarray:
    """Assemble the full n x m reconstruction from per-block plans."""
    out = np.empty((q.n, q.m), dtype=np.float32)
    for (b, width), block in zip(q.spans, q.blocks):
        out[:, b : b + width] = reconstruct_block(block)
    return out
