"""One block quantized on its own, and one block dequantized on its own, as
the tests drive them.

The library quantizes all of a block's K trials together
(``hbq.pipeline._quantize_trials``); a line's plan does not depend on the
lines planned with it, so one trial taken alone is the same block. It
dequantizes a layer one line length at a time, writing each line straight
into the output (``hbq.pipeline.dequantize_layer``); ``reconstruct_block``
is the block-by-block reference it matches bit for bit.
"""

import numpy as np

from hbq.haar import Axis
from hbq.pipeline import _quantize_trials
from hbq.tensor import as_matrix


def quantize_block(w_block, mask, mode, cfg):
    """Quantize one block under one mask; return it and its weight-domain
    reconstruction."""
    return _quantize_trials(as_matrix(w_block, "block"), [mask], mode, cfg)[0]


def reconstruct_block(block, mode):
    """Dequantize one block of a layer in mode from its plans alone: ROW
    adds each salient line to its column of the non-salient rows, COL puts
    each line in its column."""
    mask = block.mask
    nonsalient = block.nonsalient_plans.weights()
    salient = block.salient_plans.weights()
    if mode is Axis.ROW:
        nonsalient[:, mask.indices] += salient.T
        return nonsalient
    recon = np.empty((mask.bits.size, nonsalient.shape[1]), np.float32)
    recon[~mask.bits] = nonsalient  # one row per column
    recon[mask.bits] = salient
    return np.ascontiguousarray(recon.T)
