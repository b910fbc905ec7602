"""End-to-end block pipeline: saliency -> trial selection -> quantize ->
trailing error compensation.

Blocks of beta columns are processed left to right. ``_quantize_trials``
quantizes a block by Row-HaarQuant (fill salient holes, transform and
binarize rows, then column-quantize the salient residual) or Col-HaarQuant
(column-quantize non-salient and salient columns separately). The block's
residual is then propagated into not-yet-quantized columns through the
Cholesky factor of the damped inverse Hessian, so later blocks absorb
earlier blocks' error.

This is the only module that knows which way lines run through a block:
``line_shapes`` states it, ``QuantizedLayer.line_sets`` places each
block's lines among the layer's, ``dequantize_layer`` writes them into the
weights, and ``formats`` reads the layout from here. A COL block's
quantize-time weights are its columns' weights, transposed.
``grouping.quantize_lines`` plans the rows of whatever matrix it is given,
so column lines are handed to it transposed.

``hbllm_quantize`` compensates its own copy of the weights, never the
caller's array, and each block's columns of the copy then take its
reconstruction.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, field
from itertools import zip_longest

import numpy as np

from .calib import CalibStats, _lapack, build_calib_stats, saliency_matrix
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
    "line_shapes",
    "compensate",
    "hbllm_quantize",
    "dequantize_layer",
]


# Positions reconstructed per ``LinePlans.weights()`` call on load, so a
# load holds one batch of temporaries at a time (~9 bytes a position, 1.2
# MB). The 256x1024 reference layer's 262,144 non-salient positions take
# two calls; in one call (2^19) it loaded no faster: 1.50-2.04 ms against
# 1.56-2.38 ms, medians of 300 loads in three alternating pairs of
# processes (2-vCPU EPYC, numpy 2.4).
_LOAD_VALUES = 1 << 17

# float64 values of E U_{blk->tail} per product in ``compensate``: 256
# columns of a 1024-row layer. The benchmark layers (256 and 8 rows) take
# each product whole.
_COMPENSATE_VALUES = 1 << 18


def block_spans(m: int, beta: int) -> Iterator[tuple[int, int]]:
    """Each block's (first column, width): beta-wide blocks from the left,
    the last holding the remainder. Lazy, because a decoder takes m and
    beta from an untrusted header."""
    return ((b, min(beta, m - b)) for b in range(0, m, beta))


def line_shapes(
    mode: Axis, n: int, mask: SalientMask
) -> tuple[tuple[int, int], tuple[int, int]]:
    """The (lines, length) of a block's non-salient and salient plans.

    ROW: one line per row of the n x width hole-filled block, then one
    residual line of n per salient column. COL: one line of n per
    non-salient column, then one per salient column.
    """
    width, k = mask.bits.size, mask.k
    return ((n, width) if mode is Axis.ROW else (width - k, n)), (k, n)


@dataclass
class QuantizedBlock:
    """One quantized block: its salient mask and the plans of its lines.

    The block stores no mode, shape or position: the layer holds the mode,
    ``line_shapes`` lays the lines out, the mask gives the width and
    QuantizedLayer.spans places the block. Each K trial of a block is one
    (``_quantize_trials``), and a layer gives its blocks back as views
    (``QuantizedLayer.blocks``).
    """

    mask: SalientMask
    nonsalient_plans: LinePlans
    salient_plans: LinePlans


@dataclass
class QuantizedLayer:
    """An n x m layer: one salient mask per span, in order, the plans of
    its lines, and the settings needed to reconstruct them.

    plans holds every line of one length in one LinePlans, keyed by the
    length, in HBQ1 file order: block after block, each block's
    non-salient lines and then its salient lines (``line_shapes`` for n
    rows and the span's width). A length may hold both kinds of line, and
    in ROW mode a remainder block's lines have a length of their own.
    ``line_sets`` finds each block's lines; ``blocks`` views them block by
    block.
    """

    masks: list[SalientMask]
    plans: dict[int, LinePlans]
    n: int
    m: int
    beta: int
    mode: Axis
    damping: float
    cfg: QuantConfig
    diagnostics: dict | None = field(default=None, compare=False)

    def __post_init__(self):
        self.mode = Axis(self.mode)
        lines: dict[int, int] = {}
        for i, (mask, span) in enumerate(zip_longest(self.masks, self.spans)):
            if mask is None or span is None or mask.bits.size != span[1]:
                raise ShapeError(f"block {i} does not fit span {span} of {self.n} rows")
            for count, length in line_shapes(self.mode, self.n, mask):
                if count:
                    lines[length] = lines.get(length, 0) + count
        want = {length: (count, length) for length, count in lines.items()}
        got = {length: p.cells.shape for length, p in self.plans.items()}
        if got != want:
            raise ShapeError(f"plans by line length have shapes {got}, expected {want}")

    @property
    def spans(self) -> Iterator[tuple[int, int]]:
        """Each block's (first column, width), in block order."""
        return block_spans(self.m, self.beta)

    def line_sets(self) -> Iterator[tuple[tuple[int, int], SalientMask, tuple]]:
        """Per block, in order: its span, its mask, and where its
        non-salient and its salient lines sit in plans, as (length, first
        line, lines) each."""
        ends: dict[int, int] = {}
        for span, mask in zip(self.spans, self.masks):
            sets = []
            for count, length in line_shapes(self.mode, self.n, mask):
                start = ends.get(length, 0)
                ends[length] = start + count
                sets.append((length, start, count))
            yield span, mask, tuple(sets)

    @property
    def blocks(self) -> list[QuantizedBlock]:
        """Each block's mask and plans, in order; the plans are row slices
        of the layer's, not copies."""
        return [
            QuantizedBlock(mask, *(
                self.plans[length].select(slice(start, start + count)) if count
                else LinePlans.empty(length)
                for length, start, count in sets
            ))
            for _, mask, sets in self.line_sets()
        ]


def _quantize_trials(
    wm: np.ndarray, masks: list[SalientMask], mode: Axis, cfg: QuantConfig
) -> list[tuple[QuantizedBlock, np.ndarray]]:
    """Quantize block wm under each mask, in order: each trial's block and
    its weight-domain reconstruction, with one ``quantize_lines`` call per
    stage for all of them.

    ROW plans the hole-filled rows, then the residual the rows leave in the
    salient columns. COL plans every column and splits the plans into the
    non-salient and the salient columns. A line's plan does not depend on
    the lines planned with it, so each trial's plans, taken out of the
    stack, are those it gets on its own. They are copies, so a kept block
    holds only its own lines.
    """
    if mode is Axis.COL:
        # non-salient and salient lines alike are columns of n, so the
        # block's weights are its columns' weights whatever the mask
        plans = quantize_lines(wm.T, cfg)
        recon = np.ascontiguousarray(plans.weights().T)
        return [(QuantizedBlock(m, plans.select(~m.bits), plans.select(m.bits)), recon)
                for m in masks]
    n = wm.shape[0]
    stack = quantize_lines(np.concatenate([fill_avg(wm, m) for m in masks]), cfg)
    bases = stack.weights().reshape(len(masks), n, -1)
    residuals = np.concatenate(
        [(wm[:, m.indices] - b[:, m.indices]).T for m, b in zip(masks, bases)]
    )
    plans = quantize_lines(residuals, cfg) if len(residuals) else LinePlans.empty(n)
    weights = plans.weights()
    trials, end = [], 0
    for i, (mask, base) in enumerate(zip(masks, bases)):
        lines = np.arange(end, end + mask.k)
        end += mask.k
        block = QuantizedBlock(mask, stack.select(np.arange(i * n, (i + 1) * n)),
                               plans.select(lines) if mask.k else LinePlans.empty(n))
        if mask.k:
            base[:, mask.indices] += weights[lines].T
        trials.append((block, base))
    return trials


def _tail_chunks(start: int, m: int, n: int) -> Iterator[tuple[int, int]]:
    """The column ranges of [start, m) that ``compensate`` takes its
    product over: ``_COMPENSATE_VALUES`` / n columns, rounded down to a
    multiple of 64 (at least 64), the last range taking what is left
    (less than twice that).

    Each column's float64 dot product then has the bits it has in one
    product over the whole tail. Measured with OpenBLAS, not read from its
    source: narrow ranges, and the last columns of a tail that is not a
    multiple of 8 wide, can be summed in another order, so such a tail is
    one range. Rounded to float32, such a difference would almost never
    show.
    """
    step = max(64, _COMPENSATE_VALUES // n // 64 * 64)
    if (m - start) % 8:
        step = m - start
    stop = start
    while stop < m:
        start, stop = stop, (m if m - stop < 2 * step else stop + step)
        yield start, stop


def compensate(w, recon_block, chol_inv, b: int, beta: int) -> None:
    """Push the block's residual into trailing columns of w, in place.

    E = (W_blk - B_blk) U_bb^-1 by triangular back-substitution on the
    diagonal sub-block of the factor (LAPACK dtrtrs, from scipy's LAPACK
    extension as ``calib`` loads it), then W_tail -= E U_{blk->tail}.

    w must be float32. The product E U_{blk->tail} is taken in column
    chunks (``_tail_chunks``) and subtracted from the float32 tail in
    float64, rounded once: the bits of one product over the whole tail,
    widened, subtracted and narrowed. Beside w it holds the float64
    residual, which the solve overwrites with E, and one chunk's factor
    columns and product, never a float64 copy of the tail.
    """
    n, m = w.shape
    if not (0 <= b and b + beta <= m):
        raise ShapeError(f"block [{b}, {b + beta}) outside {m} columns")
    u = np.asarray(chol_inv)
    if u.shape != (m, m):
        raise ShapeError(f"factor shape {u.shape} != ({m}, {m})")
    u = u[b : b + beta]  # only the block's rows are read
    zero = np.flatnonzero(np.diag(u[:, b : b + beta]) == 0.0)
    if zero.size:
        bad = b + int(zero[0])
        raise NumericError(f"triangular factor has zero diagonal at {bad}")
    if b + beta == m:
        return  # nothing to the right: E would be discarded
    # widening f32 to f64 is exact
    u_bb = u[:, b : b + beta].astype(np.float64)
    resid = np.subtract(w[:, b : b + beta], recon_block, dtype=np.float64)
    block = f"block [{b}, {b + beta})"
    if not (np.isfinite(u_bb).all() and np.isfinite(resid).all()):
        raise NumericError(f"{block}: residual or factor is not finite")
    # U_bb^T E^T = R^T: U_bb^T, the Fortran-ordered view of U_bb, is the
    # lower triangle LAPACK solves with; R^T is Fortran-ordered too, so E^T
    # overwrites it
    e, info = _lapack().dtrtrs(u_bb.T, resid.T, lower=1, trans=0, overwrite_b=1)
    if info != 0:
        raise NumericError(f"{block}: triangular solve failed (info {info})")
    e = e.T
    for start, stop in _tail_chunks(b + beta, m, n):
        tail = w[:, start:stop]
        prod = e @ u[:, start:stop].astype(np.float64)
        np.subtract(tail, prod, out=tail, dtype=np.float64, casting="unsafe")


def _validate_layer_inputs(w, x, beta, mode, cfg):
    try:
        mode = Axis(mode)
    except ValueError:
        raise ConfigError(
            f"mode must be an Axis, 'row' or 'col', got {mode!r}"
        ) from None
    wm = as_matrix(w, "weights", check_finite=True)
    xm = as_matrix(x, "activations")  # build_hessian rejects non-finite X
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


def _select_salient_full(w_block, scores, mode, cfg):
    """Run one trial per K of cfg.k_candidates; return (winning block,
    winning reconstruction, per-K errors). The winning mask is block.mask.

    Every trial's lines go through the planner together, one call per
    stage (``_quantize_trials``). Candidates are compared in ascending
    order with strict improvement required, so equal errors resolve to the
    smaller K. COL mode plans every column on its own, so every K
    reconstructs the block identically and only the smallest K is tried.
    The winning trial block and its reconstruction are returned for reuse:
    trials run without compensation, so the final quantization of the same
    values would reproduce them exactly.
    """
    wm = as_matrix(w_block, "block")
    ks = _trial_ks(cfg.k_candidates, wm.shape[1], mode)
    trials = _quantize_trials(wm, [top_k_mask(scores, k) for k in ks], mode, cfg)
    best = None
    errors: dict[int, float] = {}
    for k, (block, recon) in zip(ks, trials):
        errors[k] = err = frobenius_error(wm, recon)
        if best is None or err < best[0]:
            best = (err, block, recon)
    return best[1], best[2], errors


def hbllm_quantize(
    w,
    x,
    beta: int = 128,
    damping="auto",
    mode: Axis = Axis.ROW,
    cfg: QuantConfig = QuantConfig(),
    calib: CalibStats | None = None,
) -> QuantizedLayer:
    """Quantize one layer blockwise with compensation; w is left as it is.

    mode may be an Axis or its value, "row" or "col" (so mode="row" is
    Axis.ROW); anything else raises ConfigError before any work is done,
    as does a damping that ``build_calib_stats`` refuses.
    calib, when given, must match w's column count and skips the Hessian
    build (the CLI reuses one CalibStats across A/B runs); x is then read
    for its shape alone.
    """
    wm, xm, beta, mode = _validate_layer_inputs(w, x, beta, mode, cfg)
    n, m = wm.shape
    if calib is None:
        calib = build_calib_stats(xm, damping)
    if calib.chol_inv.shape[0] != m:
        raise ShapeError(
            f"calibration width {calib.chol_inv.shape[0]} != weight columns {m}"
        )
    work = wm.copy()
    masks: list[SalientMask] = []
    parts: dict[int, list[LinePlans]] = {}  # each length's plans, in file order
    per_block: list[dict] = []
    for b, width in block_spans(m, beta):
        w_blk = np.ascontiguousarray(work[:, b : b + width])
        scores = column_scores(
            w_blk if cfg.score_raw_weights
            else saliency_matrix(w_blk, calib.hinv_diag[b : b + width]),
            cfg.norm,
        )
        block, recon, trial_errors = _select_salient_full(w_blk, scores, mode, cfg)
        thresholds = block.nonsalient_plans.thr_val[:, 0].astype(np.float64)
        per_block.append(
            {
                "block": len(masks),
                "col_offset": b,
                "width": width,
                "chosen_k": block.mask.k,
                "error": trial_errors[block.mask.k],
                "trial_errors": trial_errors,
                "row_threshold_mean": float(np.mean(thresholds)),
            }
        )
        compensate(work, recon, calib.chol_inv, b, width)
        work[:, b : b + width] = recon
        masks.append(block.mask)
        for p in (block.nonsalient_plans, block.salient_plans):
            if p.lines:
                parts.setdefault(p.width, []).append(p)
    plans = {length: LinePlans.concat(p) for length, p in parts.items()}
    layer = QuantizedLayer(masks, plans, n, m, beta, mode, calib.damping, cfg)
    layer.diagnostics = {
        "per_block": per_block,
        "total_error": frobenius_error(wm, work),
    }
    return layer


def dequantize_layer(q: QuantizedLayer) -> np.ndarray:
    """The n x m reconstruction, rebuilt one line length at a time.

    Each length's lines are reconstructed (``LinePlans.weights``) in
    batches of at most ``_LOAD_VALUES`` positions, and each batch's lines
    go straight to their place in the output. A ROW block's rows are
    copied into its columns; its salient lines, one per salient column,
    are then added to those columns. Those lines have length n, which is
    rebuilt last, so every row is written before a residual is added to it
    (within length n, which a block's rows may share, file order keeps
    that). A COL block's lines are gathered in a block buffer, one row per
    column, and transposed into its columns once. A line's weights do not
    depend on the lines reconstructed with it, so each block equals its
    plans' weights assembled on their own, bit for bit.
    """
    out = np.empty((q.n, q.m), np.float32)
    col = q.mode is Axis.COL
    # per length, in file order: (first line, lines, the block's columns,
    # which of them the lines fill), where None means the block's rows
    places: dict[int, list] = {}
    for (b, width), mask, (own, salient) in q.line_sets():
        cols = out[:, b : b + width]
        if col:
            # a COL block's non-salient then salient lines are adjacent in
            # length n; a stable sort of the bits lists their columns
            order = np.argsort(mask.bits, kind="stable")
            places.setdefault(own[0], []).append((own[1], width, cols, order))
            continue
        places.setdefault(own[0], []).append((own[1], own[2], cols, None))
        if salient[2]:
            places.setdefault(salient[0], []).append((*salient[1:], cols, mask.indices))
    pending: dict[int, np.ndarray] = {}  # COL block buffers, by first line
    for length in sorted(places, key=lambda length: not col and length == q.n):
        plans = q.plans[length]
        step = max(1, _LOAD_VALUES // length)
        for first in range(0, plans.lines, step):
            last = min(first + step, plans.lines)
            weights = plans.select(slice(first, last)).weights()
            for start, count, cols, order in places[length]:
                lo, hi = max(first, start), min(last, start + count)
                if lo >= hi:
                    continue
                lines = weights[lo - first : hi - first]
                lo, hi = lo - start, hi - start  # the block's own lines
                if order is None:
                    cols[lo:hi] = lines
                elif not col:
                    cols[:, order[lo:hi]] += lines.T
                else:
                    if lo == 0:
                        pending[start] = np.empty((count, q.n), np.float32)
                    pending[start][order[lo:hi]] = lines
                    if hi == count:
                        cols[...] = pending.pop(start).T
    return out
