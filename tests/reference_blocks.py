"""One block quantized on its own, as the tests drive it.

The library quantizes all of a block's K trials together
(``hbq.pipeline._quantize_trials``); a line's plan does not depend on the
lines planned with it, so one trial taken alone is the same block.
"""

from hbq.pipeline import _quantize_trials
from hbq.tensor import as_matrix


def quantize_block(w_block, mask, mode, cfg):
    """Quantize one block under one mask; return it and its weight-domain
    reconstruction."""
    return _quantize_trials(as_matrix(w_block, "block"), [mask], mode, cfg)[0]
