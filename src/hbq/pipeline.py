"""End-to-end block pipeline: saliency -> trial selection -> quantize ->
trailing error compensation.

Blocks of beta columns are processed left to right. Each block is quantized
by Row-HaarQuant (fill salient holes, transform and binarize rows, then
column-quantize the salient residual) or Col-HaarQuant (column-quantize
non-salient and salient columns separately). The block's residual is then
propagated into not-yet-quantized columns through the Cholesky factor of
the damped inverse Hessian, so later blocks absorb earlier blocks' error.

The input weight matrix is consumed: compensation mutates it in place.
Callers needing the original must copy first.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import solve_triangular

from .calib import CalibStats, build_calib_stats, saliency_matrix
from .config import QuantConfig
from .errors import ConfigError, NumericError, ShapeError
from .grouping import LinePlans, quantize_lines
from .haar import Axis, HaarCoeffs, haar_matrix, inverse_haar_matrix, raw_lines
from .salient import SalientMask, _select_salient_full, column_scores, fill_avg
from .tensor import as_matrix, frobenius_error

__all__ = [
    "QuantizedBlock",
    "QuantizedLayer",
    "row_haarquant",
    "col_haarquant",
    "reconstruct_block",
    "compensate",
    "hbllm_quantize",
    "dequantize_layer",
]


@dataclass
class QuantizedBlock:
    """One quantized block of beta (or remainder) columns.

    ROW mode: nonsalient_plans holds one row-axis line per matrix row of
    the hole-filled block; salient_plans holds one column-axis residual
    line per salient column. COL mode: nonsalient_plans holds one
    column-axis line per non-salient column; salient_plans one per salient
    column (quantized directly, no residual to subtract).
    """

    mode: Axis
    mask: SalientMask
    nonsalient_plans: LinePlans
    salient_plans: LinePlans
    block_col_offset: int
    shape: tuple[int, int]

    def __post_init__(self):
        n, width = self.shape
        if self.mask.block_width != width:
            raise ShapeError(
                f"mask width {self.mask.block_width} != block width {width}"
            )
        if self.salient_plans.lines != self.mask.k:
            raise ShapeError(
                f"{self.salient_plans.lines} salient plans for K={self.mask.k}"
            )
        expected = n if self.mode is Axis.ROW else width - self.mask.k
        if self.nonsalient_plans.lines != expected:
            raise ShapeError(
                f"{self.nonsalient_plans.lines} non-salient plans, expected {expected}"
            )


@dataclass
class QuantizedLayer:
    """Ordered blocks plus the settings needed to reconstruct them."""

    blocks: list[QuantizedBlock]
    n: int
    m: int
    beta: int
    mode: Axis
    damping: float
    cfg: QuantConfig
    diagnostics: dict | None = field(default=None, compare=False)

    def __post_init__(self):
        if sum(b.shape[1] for b in self.blocks) != self.m:
            raise ShapeError("block widths do not sum to layer width")
        if any(b.shape[0] != self.n for b in self.blocks):
            raise ShapeError("blocks disagree on row count")
        if any(b.mode is not self.mode for b in self.blocks):
            raise ShapeError("blocks disagree on mode")


def _coeffs_for(mat: np.ndarray, axis: Axis, cfg: QuantConfig) -> HaarCoeffs:
    if cfg.haar_enabled:
        return haar_matrix(mat, axis)
    return raw_lines(mat, axis)


def _quantize_matrix(mat, axis, cfg) -> tuple[LinePlans, np.ndarray]:
    """Transform, plan, and reconstruct one matrix; recon in weight domain."""
    coeffs = _coeffs_for(mat, axis, cfg)
    plans, recon_coeffs = quantize_lines(coeffs, cfg)
    recon = inverse_haar_matrix(
        HaarCoeffs(recon_coeffs, axis, coeffs.band_split)
    )
    return plans, recon


def row_haarquant(
    w_block, mask: SalientMask, cfg: QuantConfig, col_offset: int = 0
) -> tuple[QuantizedBlock, np.ndarray]:
    """Fill holes, row-quantize, then column-quantize the salient residual.

    Returns the block and its weight-domain reconstruction.
    """
    wm = as_matrix(w_block, "block")
    n, width = wm.shape
    if cfg.haar_enabled and width % 2 != 0:
        raise ShapeError(f"row transform needs even block width, got {width}")
    filled = fill_avg(wm, mask)
    row_plans, recon = _quantize_matrix(filled, Axis.ROW, cfg)
    salient_plans = LinePlans.empty(n)
    if mask.k:
        if cfg.haar_enabled and n % 2 != 0:
            raise ShapeError(
                f"salient residual column transform needs even rows, got {n}"
            )
        idx = mask.indices
        residual = np.ascontiguousarray(wm[:, idx] - recon[:, idx])
        salient_plans, sal = _quantize_matrix(residual, Axis.COL, cfg)
        recon[:, idx] = recon[:, idx] + sal
    block = QuantizedBlock(
        mode=Axis.ROW,
        mask=mask,
        nonsalient_plans=row_plans,
        salient_plans=salient_plans,
        block_col_offset=col_offset,
        shape=(n, width),
    )
    return block, recon


def col_haarquant(
    w_block, mask: SalientMask, cfg: QuantConfig, col_offset: int = 0
) -> tuple[QuantizedBlock, np.ndarray]:
    """Column-quantize non-salient and salient columns independently.

    Returns the block and its weight-domain reconstruction.
    """
    wm = as_matrix(w_block, "block")
    n, width = wm.shape
    if cfg.haar_enabled and n % 2 != 0:
        raise ShapeError(f"column transform needs even row count, got {n}")
    recon = np.zeros((n, width), dtype=np.float32)
    keep = np.flatnonzero(~mask.bits)
    nonsal_plans, nonsal = _quantize_matrix(
        np.ascontiguousarray(wm[:, keep]), Axis.COL, cfg
    )
    recon[:, keep] = nonsal
    salient_plans = LinePlans.empty(n)
    if mask.k:
        salient_plans, sal = _quantize_matrix(
            np.ascontiguousarray(wm[:, mask.indices]), Axis.COL, cfg
        )
        recon[:, mask.indices] = sal
    block = QuantizedBlock(
        mode=Axis.COL,
        mask=mask,
        nonsalient_plans=nonsal_plans,
        salient_plans=salient_plans,
        block_col_offset=col_offset,
        shape=(n, width),
    )
    return block, recon


def _weights(plans: LinePlans, axis: Axis) -> np.ndarray:
    """Weight-domain matrix of a plan set whose lines run along axis."""
    coeffs = plans.recon()
    if axis is Axis.COL:
        coeffs = np.ascontiguousarray(coeffs.T)
    return inverse_haar_matrix(HaarCoeffs(coeffs, axis, plans.split))


def reconstruct_block(block: QuantizedBlock) -> np.ndarray:
    """Dequantize one block from its plans alone (no original data)."""
    n, width = block.shape
    idx = block.mask.indices
    if block.mode is Axis.ROW:
        recon = _weights(block.nonsalient_plans, Axis.ROW)
        if block.mask.k:
            recon[:, idx] = recon[:, idx] + _weights(block.salient_plans, Axis.COL)
        return recon
    recon = np.zeros((n, width), dtype=np.float32)
    recon[:, ~block.mask.bits] = _weights(block.nonsalient_plans, Axis.COL)
    if block.mask.k:
        recon[:, idx] = _weights(block.salient_plans, Axis.COL)
    return recon


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
    e = solve_triangular(u_bb, resid.T, lower=False, trans="T").T
    tail = w[:, b + beta :].astype(np.float64)
    w[:, b + beta :] = (tail - e @ u[:, b + beta :]).astype(np.float32)


def _validate_layer_inputs(w, x, beta, mode, cfg):
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
        return wm, xm, beta  # raw lines: no Haar pairs to keep whole
    rem = m % beta
    if mode is Axis.ROW:
        if beta % 2 != 0:
            raise ConfigError(f"ROW mode needs even beta, got {beta}")
        if rem % 2 != 0:
            raise ConfigError(
                f"remainder block of {rem} columns is odd; ROW mode needs even"
            )
        if n % 2 != 0 and any(k > 0 for k in cfg.k_candidates):
            raise ConfigError(
                f"salient residual pass needs even rows in ROW mode, got {n}"
            )
    else:
        if n % 2 != 0:
            raise ConfigError(f"COL mode needs even row count, got {n}")
    return wm, xm, beta


def _block_candidates(cfg: QuantConfig, width: int) -> list[int]:
    cands = [k for k in cfg.k_candidates if k < width]
    return cands if cands else [0]


def hbllm_quantize(
    w,
    x,
    beta: int = 128,
    damping="auto",
    mode: Axis = Axis.ROW,
    cfg: QuantConfig = QuantConfig(),
    calib: CalibStats | None = None,
    compensation: bool = True,
) -> QuantizedLayer:
    """Quantize one layer blockwise with compensation; w is consumed.

    calib, when given, must match w's column count and skips the Hessian
    build (the CLI reuses one CalibStats across A/B runs). compensation=False
    quantizes blocks independently, for A/B comparison.
    """
    wm, xm, beta = _validate_layer_inputs(w, x, beta, mode, cfg)
    n, m = wm.shape
    if calib is None:
        calib = build_calib_stats(xm, damping)
    if calib.hessian.shape[0] != m:
        raise ShapeError(
            f"calibration width {calib.hessian.shape[0]} != weight columns {m}"
        )
    w_orig = wm.copy()
    recon_full = np.empty_like(wm)
    blocks: list[QuantizedBlock] = []
    per_block: list[dict] = []
    for b in range(0, m, beta):
        width = min(beta, m - b)
        w_blk = np.ascontiguousarray(wm[:, b : b + width])
        if cfg.score_raw_weights:
            scores = column_scores(w_blk, cfg.norm)
        else:
            sal = saliency_matrix(w_blk, calib.hinv_diag[b : b + width])
            scores = column_scores(sal, cfg.norm)
        cands = _block_candidates(cfg, width)
        mask, block, trial_errors, recon = _select_salient_full(
            w_blk, scores, cands, cfg, mode, b
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
        if compensation:
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
    for block in q.blocks:
        b = block.block_col_offset
        out[:, b : b + block.shape[1]] = reconstruct_block(block)
    return out
