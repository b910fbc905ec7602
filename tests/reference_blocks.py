"""One block quantized on its own, and one block dequantized on its own, as
the tests drive them.

The library quantizes all of a block's K trials together
(``hbq.pipeline._quantize_trials``); a line's plan does not depend on the
lines planned with it, so one trial taken alone is the same block. It
dequantizes a layer with one reconstruction per line shape
(``hbq.pipeline.dequantize_layer``); ``reconstruct_block`` is the
block-by-block reference it matches bit for bit.
"""

from hbq.pipeline import _assemble, _quantize_trials
from hbq.tensor import as_matrix


def quantize_block(w_block, mask, mode, cfg):
    """Quantize one block under one mask; return it and its weight-domain
    reconstruction."""
    return _quantize_trials(as_matrix(w_block, "block"), [mask], mode, cfg)[0]


def reconstruct_block(block, mode):
    """Dequantize one block of a layer in mode from its plans alone."""
    return _assemble(mode, block.mask, block.nonsalient_plans.weights(),
                     block.salient_plans.weights())
