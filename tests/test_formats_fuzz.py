"""Property test of the HBQ1 decoder against arbitrary and mutated bytes.

For any input, decode_layer either returns a layer that encodes back to
exactly the same bytes, or raises IntegrityError; any other exception, or a
layer that re-encodes differently, is a decoder bug. Mutations recompute the
CRC so they reach the parser instead of stopping at the checksum.
"""

import struct
import zlib

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from hbq.config import QuantConfig
from hbq.errors import IntegrityError
from hbq.formats import HBQ_MAGIC, decode_layer, encode_layer
from hbq.haar import Axis
from hbq.pipeline import hbllm_quantize


def _layer(seed, n, m, beta, mode, cfg, outliers=()):
    rng = np.random.default_rng(seed)
    w = rng.normal(size=(n, m)).astype(np.float32)
    w[:, list(outliers)] *= np.float32(8.0)
    x = rng.integers(-3, 4, size=(m, 2 * m)).astype(np.float32)
    return encode_layer(hbllm_quantize(w, x, beta=beta, mode=mode, cfg=cfg))


# small valid containers covering both modes, both mean layouts, raw lines,
# salient columns and a remainder block
SEEDS = [
    _layer(1, 2, 8, 4, Axis.ROW, QuantConfig(n_candidates=4)),
    _layer(2, 4, 10, 4, Axis.ROW, QuantConfig(share_mean=False, k_candidates=(2,)),
           outliers=(1, 6)),
    _layer(3, 4, 8, 8, Axis.COL, QuantConfig(n_candidates=3, k_candidates=(2, 4)),
           outliers=(2,)),
    _layer(4, 3, 6, 4, Axis.ROW, QuantConfig(haar_enabled=False, n_candidates=2)),
]

_settings = settings(
    max_examples=1000,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)


def _with_crc(payload: bytes) -> bytes:
    return payload + struct.pack("<I", zlib.crc32(payload))


def _check(blob: bytes) -> None:
    try:
        q = decode_layer(blob)
    except IntegrityError:
        return
    assert encode_layer(q) == blob


@_settings
@given(st.binary(max_size=200))
def test_random_bytes(blob):
    _check(blob)


@_settings
@given(st.binary(max_size=200))
def test_random_payload_behind_magic_with_crc(tail):
    _check(_with_crc(HBQ_MAGIC + tail))


@st.composite
def mutated(draw):
    payload = bytearray(draw(st.sampled_from(SEEDS))[:-4])
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(("set", "flip", "cut", "insert")))
        at = draw(st.integers(0, len(payload)))
        if kind == "set" and at < len(payload):
            payload[at] = draw(st.integers(0, 255))
        elif kind == "flip" and at < len(payload):
            payload[at] ^= 1 << draw(st.integers(0, 7))
        elif kind == "cut":
            del payload[at : at + draw(st.integers(1, 8))]
        elif kind == "insert":
            payload[at:at] = draw(st.binary(min_size=1, max_size=8))
    return _with_crc(bytes(payload))


@_settings
@given(mutated())
def test_mutated_containers(blob):
    _check(blob)


def test_seed_containers_roundtrip():
    for blob in SEEDS:
        _check(blob)
        decode_layer(blob)
