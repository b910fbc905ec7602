import hashlib
from dataclasses import fields

import numpy as np
import pytest

from hbq.cli import AB_CANDIDATE_COUNTS
from hbq.config import QuantConfig
from hbq.errors import IntegrityError
from hbq.formats import (
    _pack_bits,
    _unpack_bits,
    bit_report,
    decode_layer,
    decode_tensor,
    encode_layer,
    encode_tensor,
    read_tensor,
    write_tensor,
)
from hbq.grouping import LinePlans
from hbq import pipeline
from hbq.haar import Axis
from hbq.pipeline import dequantize_layer, hbllm_quantize
from reference_blocks import reconstruct_block

_HEADER_BYTES = 32  # fixed part, before the k-candidate list

# encode_layer output for the deterministic 2x4 toy layer below, frozen
# the first time it was produced; guards the byte layout against drift
GOLDEN_2X4_HEX = (
    "484251310100020000000400000004000000007b14ae47e17a943f0328000004"
    "000002000400080000000000040000000000804500410000030000be00380000"
    "030600003c000000000300000000000000030feea1a6a4"
)


def toy_layer():
    w = np.array([[2.0, 4.0, 6.0, 10.0], [1.0, 1.0, 1.0, 1.0]], dtype=np.float32)
    x = np.eye(4, dtype=np.float32)
    return hbllm_quantize(w.copy(), x, beta=4)


def random_layer(seed, n=8, m=32, beta=8, mode=Axis.ROW, cfg=QuantConfig()):
    rng = np.random.default_rng(seed)
    w = rng.normal(size=(n, m)).astype(np.float32)
    x = rng.normal(size=(m, 2 * m)).astype(np.float32)
    return hbllm_quantize(w, x, beta=beta, mode=mode, cfg=cfg)


# --- sign packing ---


def pack_signs(signs) -> bytes:
    """+1/-1 signs as the encoder stores them: +1 as bit 1, LSB-first."""
    return _pack_bits(np.asarray(signs) > 0).tobytes()


def unpack_signs(data: bytes, count: int) -> np.ndarray:
    """Inverse of pack_signs, through the decoder's bit reader."""
    bits = _unpack_bits(np.frombuffer(data, np.uint8), count)
    return np.where(bits, 1, -1).astype(np.int8)


def test_pack_signs_bit_layout():
    assert pack_signs([1, -1, -1, 1]) == b"\x09"
    assert pack_signs([1] * 8) == b"\xff"
    assert pack_signs([-1] * 3) == b"\x00"


def test_pack_signs_roundtrip():
    rng = np.random.default_rng(0)
    signs = np.where(rng.random(1000) < 0.5, 1, -1).astype(np.int8)
    assert np.array_equal(unpack_signs(pack_signs(signs), 1000), signs)


# --- raw tensor container ---


def test_tensor_roundtrip_2d():
    rng = np.random.default_rng(1)
    a = rng.normal(size=(5, 7)).astype(np.float32)
    out = decode_tensor(encode_tensor(a))
    assert out.dtype == np.float32
    assert np.array_equal(out, a)
    assert out.flags.writeable


def test_tensor_roundtrip_1d():
    a = np.array([1.5, -2.25, 0.0], dtype=np.float32)
    assert np.array_equal(decode_tensor(encode_tensor(a)), a)


def test_tensor_file_roundtrip(tmp_path):
    a = np.arange(12, dtype=np.float32).reshape(3, 4)
    path = tmp_path / "t.rts"
    write_tensor(path, a)
    assert np.array_equal(read_tensor(path), a)


@pytest.mark.parametrize("a", [
    np.arange(12, dtype=np.float32).reshape(3, 4),
    np.arange(12, dtype=">f4").reshape(3, 4),  # byte-swapped
    np.arange(24, dtype=np.float64).reshape(4, 6)[:, ::2],  # widened, strided
    np.float32(2.5),
    np.zeros((2, 0, 3), np.float32),
])
def test_tensor_file_holds_the_encoded_bytes(tmp_path, a):
    # write_tensor writes the array's own memory where it can; the file is
    # encode_tensor's bytes whatever the input's dtype and layout
    path = tmp_path / "t.rts"
    write_tensor(path, a)
    assert path.read_bytes() == encode_tensor(a)


def test_tensor_bad_magic():
    blob = bytearray(encode_tensor(np.zeros(2, dtype=np.float32)))
    blob[0] ^= 0xFF
    with pytest.raises(IntegrityError, match="magic"):
        decode_tensor(bytes(blob))


def test_tensor_unknown_dtype():
    blob = bytearray(encode_tensor(np.zeros(2, dtype=np.float32)))
    blob[4] = 9
    with pytest.raises(IntegrityError, match="dtype"):
        decode_tensor(bytes(blob))


def test_tensor_payload_length_mismatch():
    blob = encode_tensor(np.zeros(4, dtype=np.float32))
    with pytest.raises(IntegrityError, match="payload"):
        decode_tensor(blob[:-4])
    with pytest.raises(IntegrityError, match="payload"):
        decode_tensor(blob + b"\x00" * 4)


def test_tensor_truncated():
    with pytest.raises(IntegrityError, match="truncated"):
        decode_tensor(b"RTS1\x00")


def test_tensor_truncated_inside_dims():
    # a rank-2 header needs 6 + 8 bytes; this one ends after the first dim
    blob = encode_tensor(np.zeros((3, 5), dtype=np.float32))
    with pytest.raises(IntegrityError, match="truncated"):
        decode_tensor(blob[:10])


# --- quantized layer container ---


def test_golden_bytes_stable():
    assert encode_layer(toy_layer()).hex() == GOLDEN_2X4_HEX


def exact_layer(seed, mode, cfg, outliers=(), n=8, m=32, beta=8):
    """A layer whose Hessian is exact in any summation order.

    Small-integer activations make every product and partial sum of
    X X^T an exact integer, so BLAS blocking and threading cannot move
    the calibration, and with it the container bytes.
    """
    rng = np.random.default_rng(seed)
    w = rng.normal(size=(n, m)).astype(np.float32)
    w[:, list(outliers)] *= np.float32(8.0)
    x = rng.integers(-3, 4, size=(m, 2 * m)).astype(np.float32)
    return hbllm_quantize(w, x, beta=beta, mode=mode, cfg=cfg)


# sha256 of encode_layer output, frozen when first produced; the first six
# are the test_reencode_idempotent configs, the last two have salient
# columns in some (ROW) or all (COL, K=0 not offered) blocks
GOLDEN_SHA256 = {
    "row-default": (
        3, QuantConfig(), Axis.ROW, (), (0, 2, 0, 0),
        "41073bdc0d95a647bc760d3d67296bd9309ef822ec7f9f8d99c051f1d8e079aa",
    ),
    "row-own-means": (
        3, QuantConfig(share_mean=False), Axis.ROW, (), (4, 0, 0, 2),
        "7f572425b1a7e7c902db3caed4b17af8c2b745209d90d0f374e9545de339ee2c",
    ),
    "row-raw": (
        3, QuantConfig(haar_enabled=False), Axis.ROW, (), (0, 0, 4, 0),
        "097595761a46fa6664a39989d960d0b49b63c8df06bd6386fe3706d26cea2eec",
    ),
    "col-l1-20": (
        3, QuantConfig(norm="l1", n_candidates=20), Axis.COL, (), (0, 0, 0, 0),
        "1bb56969b0d2075b09d7c9e85e966e4b6c187fc0cb3f77a5a7beffe876d65b5c",
    ),
    "col-k02": (
        3, QuantConfig(k_candidates=(0, 2)), Axis.COL, (), (0, 0, 0, 0),
        "1dbd1638dc7a66bb77e9745a5b1eb13173ee11dca149c757c626d73defb8d4bb",
    ),
    "row-raw-scores": (
        3, QuantConfig(score_raw_weights=True), Axis.ROW, (), (0, 2, 0, 0),
        "81658a38a9183f3c03f0f6855a992caddde3d2978808fe7a3249bd089c1dc935",
    ),
    "row-salient": (
        4, QuantConfig(), Axis.ROW, (3, 12, 13, 26), (4, 0, 4, 0),
        "71eb66a3883fae5d7e129746889175e2b91c3dff1ce8ff94d27e7d8db77943a1",
    ),
    "col-salient": (
        4, QuantConfig(k_candidates=(2, 4)), Axis.COL, (3, 12, 13, 26), (2, 2, 2, 2),
        "7c3f1c2e3fb9549488633fd0ffbabf1c3e1ce0981d964375f8db22cb0c74c5ec",
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_SHA256))
def test_golden_container_hashes(name):
    seed, cfg, mode, outliers, ks, digest = GOLDEN_SHA256[name]
    q = exact_layer(seed, mode, cfg, outliers)
    assert tuple(b.mask.k for b in q.blocks) == ks
    blob = encode_layer(q)
    assert hashlib.sha256(blob).hexdigest() == digest
    assert encode_layer(decode_layer(blob)) == blob


def assert_decoded_plans(got, want):
    """Decoded plans hold the quantize-time plans field by field and bit
    for bit; thr_val and sse are never stored and read NaN. A set of no
    lines needs only the same width."""
    if want.lines == 0:
        assert (got.lines, got.width) == (0, want.width)
        return
    for f in fields(LinePlans):
        a, b = getattr(got, f.name), getattr(want, f.name)
        assert (a.dtype, a.shape) == (b.dtype, b.shape), f.name
        if f.name in ("thr_val", "sse"):
            assert np.isnan(a).all(), f.name
        else:
            assert a.tobytes() == b.tobytes(), f.name


def assert_same_layer(got, want):
    """Every block's mask and plans, and the reconstruction, bit for bit."""
    assert len(got.blocks) == len(want.blocks)
    for a, b in zip(got.blocks, want.blocks):
        assert a.mask.bits.tobytes() == b.mask.bits.tobytes()
        assert_decoded_plans(a.nonsalient_plans, b.nonsalient_plans)
        assert_decoded_plans(a.salient_plans, b.salient_plans)
    assert dequantize_layer(got).tobytes() == dequantize_layer(want).tobytes()


def test_decode_reproduces_reconstruction():
    q = random_layer(2)
    q2 = decode_layer(encode_layer(q))
    assert_same_layer(q2, q)
    assert (q2.n, q2.m, q2.beta, q2.mode) == (q.n, q.m, q.beta, q.mode)
    assert q2.damping == q.damping
    assert q2.cfg == QuantConfig()


@pytest.mark.parametrize(
    "cfg,mode",
    [
        (QuantConfig(), Axis.ROW),
        (QuantConfig(share_mean=False), Axis.ROW),
        (QuantConfig(haar_enabled=False), Axis.ROW),
        (QuantConfig(norm="l1", n_candidates=20), Axis.COL),
        (QuantConfig(k_candidates=(0, 2)), Axis.COL),
        (QuantConfig(score_raw_weights=True), Axis.ROW),
        *((QuantConfig(n_candidates=c), Axis.ROW) for c in AB_CANDIDATE_COUNTS),
    ],
)
def test_reencode_idempotent(cfg, mode):
    q = random_layer(3, cfg=cfg, mode=mode)
    blob = encode_layer(q)
    q2 = decode_layer(blob)
    assert encode_layer(q2) == blob
    assert q2.cfg == cfg
    assert_same_layer(q2, q)


def test_flip_any_byte_raises_integrity_error():
    blob = encode_layer(toy_layer())
    for i in range(len(blob)):
        bad = bytearray(blob)
        bad[i] ^= 0x01
        with pytest.raises(IntegrityError):
            decode_layer(bytes(bad))


def test_truncation_raises_integrity_error():
    blob = encode_layer(toy_layer())
    for cut in (0, 1, 7, len(blob) // 2, len(blob) - 1):
        with pytest.raises(IntegrityError):
            decode_layer(blob[:cut])


def _with_crc(payload: bytes) -> bytes:
    import struct
    import zlib

    return payload + struct.pack("<I", zlib.crc32(payload))


def test_bad_magic_reported_when_crc_valid():
    blob = encode_layer(toy_layer())
    payload = bytearray(blob[:-4])
    payload[:4] = b"XXXX"
    with pytest.raises(IntegrityError, match="magic"):
        decode_layer(_with_crc(bytes(payload)))


def test_bad_version_reported_when_crc_valid():
    blob = encode_layer(toy_layer())
    payload = bytearray(blob[:-4])
    payload[4] = 9
    with pytest.raises(IntegrityError, match="version"):
        decode_layer(_with_crc(bytes(payload)))


def test_corrupt_crc_is_crc_error():
    blob = bytearray(encode_layer(toy_layer()))
    blob[-1] ^= 0xFF
    with pytest.raises(IntegrityError, match="CRC"):
        decode_layer(bytes(blob))


# the toy container's first line record: after the 32-byte header, four
# k candidates, the block's offset/width and its one-byte salient mask
_TOY_LINE0 = _HEADER_BYTES + 2 * 4 + 8 + 1
_TOY_MU0 = _TOY_LINE0 + 1  # the shared mean of band 0, after its index
_TOY_ALPHA0 = _TOY_MU0 + 2  # alpha_sparse, then alpha_dense


def _toy_with(offset: int, fmt: str, value) -> bytes:
    """The toy container with one field rewritten and the CRC fixed up."""
    import struct

    payload = bytearray(encode_layer(toy_layer())[:-4])
    struct.pack_into(fmt, payload, offset, value)
    return _with_crc(bytes(payload))


@pytest.mark.parametrize(
    "offset,value",
    [
        (_TOY_ALPHA0, float("nan")),
        (_TOY_ALPHA0 + 2, float("inf")),
        (_TOY_MU0, float("-inf")),
        (_TOY_MU0, float("nan")),
        (_TOY_ALPHA0, -1.0),
    ],
)
def test_decode_rejects_bad_scalars(offset, value):
    # non-finite means or scales, or a negative scale, would dequantize to
    # non-finite or sign-flipped weights; they are corruption
    with pytest.raises(IntegrityError, match=f"scalar at byte {offset}$"):
        decode_layer(_toy_with(offset, "<e", value))


def test_decode_reports_first_bad_scalar():
    import struct

    payload = bytearray(encode_layer(toy_layer())[:-4])
    struct.pack_into("<e", payload, _TOY_ALPHA0 + 17, float("nan"))  # line 1
    struct.pack_into("<e", payload, _TOY_ALPHA0 + 2, -2.0)  # line 0
    with pytest.raises(IntegrityError, match=f"byte {_TOY_ALPHA0 + 2}$"):
        decode_layer(_with_crc(bytes(payload)))


@pytest.mark.parametrize(
    "offset,fmt,value,match",
    [
        (6, "<I", 0, "n must be"),
        (10, "<I", 0, "m must be"),
        (14, "<I", 0, "beta must be"),
        (19, "<d", float("nan"), "damping"),
        (19, "<d", -1.0, "damping"),
        (28, "<H", 0, "candidates"),
        (28, "<H", 257, "candidates"),
        (31, "<B", 0, "k-candidate list"),
        (_HEADER_BYTES, "<H", 3, "even"),
        (_TOY_LINE0 - 1, "<B", 0x0F, "non-salient"),
        (_TOY_LINE0, "<B", 40, "threshold index"),
        (_TOY_LINE0 + 8, "<B", 255, "threshold index"),  # band 1 of line 0
    ],
)
def test_decode_rejects_bad_fields(offset, fmt, value, match):
    with pytest.raises(IntegrityError, match=f"{match}.* at byte {offset}$"):
        decode_layer(_toy_with(offset, fmt, value))


@pytest.mark.parametrize(
    "offset,match",
    [
        (27, "unknown flag bits"),
        (_TOY_LINE0 - 1, "padding"),  # the 4-column salient mask
        (_TOY_LINE0 + 7, "padding"),  # band 0 sparse bitmap of line 0
        (_TOY_LINE0 + 15, "padding"),  # band 1 sparse bitmap of line 0
        (_TOY_LINE0 + 16, "padding"),  # sign bits of line 0
        (_TOY_LINE0 + 17 + 16, "padding"),  # sign bits of line 1
    ],
)
def test_decode_rejects_noncanonical_bits(offset, match):
    # a set bit that no field reads would be dropped by re-encoding, so the
    # container would not be the encoding of the layer it decodes to
    payload = bytearray(encode_layer(toy_layer())[:-4])
    payload[offset] |= 0x80
    with pytest.raises(IntegrityError, match=f"{match}.* at byte {offset}$"):
        decode_layer(_with_crc(bytes(payload)))


@pytest.mark.parametrize("mode", [Axis.ROW, Axis.COL])
def test_decode_huge_line_count_is_truncation(mode):
    # a CRC-valid header claiming ~2^31 rows must fail on the byte count,
    # before any array of that size exists
    import tracemalloc

    q = hbllm_quantize(
        np.ones((2, 4), np.float32), np.eye(4, dtype=np.float32), beta=4, mode=mode
    )
    blob = encode_layer(q)
    payload = bytearray(blob[:-4])
    payload[6:10] = (2**31).to_bytes(4, "little")
    tracemalloc.start()
    try:
        with pytest.raises(IntegrityError, match="truncated"):
            decode_layer(_with_crc(bytes(payload)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * len(blob) + 2**20


def test_decode_huge_block_count_fails_fast():
    # a CRC-valid header claiming 2^32 - 1 one-column blocks and holding no
    # block bytes must fail on the first block, without listing every span
    import struct
    import time

    payload = bytearray(encode_layer(toy_layer())[: _HEADER_BYTES + 2 * 4])
    struct.pack_into("<II", payload, 10, 2**32 - 1, 1)  # m, beta
    t0 = time.perf_counter()
    with pytest.raises(IntegrityError, match="truncated"):
        decode_layer(_with_crc(bytes(payload)))
    assert time.perf_counter() - t0 < 1.0


# A ROW layer of three blocks (16, 16 and a 12-wide remainder), each with
# salient residual records, and a COL layer of three blocks; 12-wide and
# 12-long lines end their sign bits and band bitmaps with padding bits.
_MULTI_BLOCK = {
    "row": (7, Axis.ROW, QuantConfig(), 8, 44, (8, 4, 8)),
    "col": (7, Axis.COL, QuantConfig(k_candidates=(2, 4)), 12, 40, (2, 2, 2)),
}


def _multi_block(kind):
    seed, mode, cfg, n, m, ks = _MULTI_BLOCK[kind]
    q = exact_layer(seed, mode, cfg, (3, 20, 21, 36), n=n, m=m, beta=16)
    assert tuple(b.mask.k for b in q.blocks) == ks
    return q


def _record_offsets(q):
    """Per block, the byte offset of each plan set's first line record in
    encode_layer(q) and the set's field layout, worked out from the HBQ1
    layout: ``at[block][s](line, field, band=0, j=0)``, s 0 for the
    non-salient and 1 for the salient set; field is "idx", "scalar" (the
    j-th stored scalar), "sparse" (the band's bitmap) or "signs"."""
    cfg = q.cfg
    bands = 2 if cfg.haar_enabled else 1
    scalars = 3 if cfg.share_mean else 4
    pos = _HEADER_BYTES + 2 * len(cfg.k_candidates)
    at = []
    for (_, width), block in zip(q.spans, q.blocks):
        pos += 8 + (width + 7) // 8
        sets = []
        for plans in (block.nonsalient_plans, block.salient_plans):
            lines, length = plans.signs.shape
            band = 1 + 2 * scalars + (length // bands + 7) // 8
            rec = bands * band + (length + 7) // 8

            def offset(line, field, b=0, j=0, start=pos, band=band, rec=rec):
                base = start + line * rec
                return base + {
                    "idx": b * band,
                    "scalar": b * band + 1 + 2 * j,
                    "sparse": b * band + 1 + 2 * scalars,
                    "signs": bands * band,
                }[field]

            sets.append(offset)
            pos += lines * rec
        at.append(sets)
    return at


def _corrupted(q, edits) -> bytes:
    """encode_layer(q) with each (offset, fmt, value) packed in, or with
    value OR-ed into the byte when fmt is "|", and the CRC fixed up."""
    import struct

    payload = bytearray(encode_layer(q)[:-4])
    for offset, fmt, value in edits:
        if fmt == "|":
            payload[offset] |= value
        else:
            struct.pack_into(fmt, payload, offset, value)
    return _with_crc(bytes(payload))


_BAD_INDEX = "threshold index beyond 40 candidates"
_BAD_SCALAR = "non-finite or negative plan scalar"
_PADDING = "nonzero padding bits"


def _multi_block_cases(kind):
    """(edits, message, offset) of corrupted multi-block layers: one bad
    field, then two in different blocks, where a block-by-block read
    reports the earlier block's fault whatever the kinds."""
    at = _record_offsets(_multi_block(kind))
    idx2 = at[2][0](3, "idx", b=1)
    scalar1 = at[1][1](1, "scalar", j=1)  # alpha_sparse of a salient line
    signs2 = at[2][0](1, "signs") + 1  # the last sign byte of a 12-wide line
    pad1 = at[1][1](0, "sparse", b=1)  # a salient band bitmap of 4 or 6 bits
    idx0_sal = at[0][1](0, "idx")
    return [
        ([(idx2, "<B", 40)], _BAD_INDEX, idx2),
        ([(scalar1, "<e", float("nan"))], _BAD_SCALAR, scalar1),
        ([(scalar1, "<e", -1.0)], _BAD_SCALAR, scalar1),
        ([(signs2, "|", 0x80)], _PADDING, signs2),
        ([(idx2, "<B", 255), (scalar1, "<e", float("inf"))], _BAD_SCALAR, scalar1),
        ([(signs2, "|", 0x80), (scalar1, "<e", -2.0)], _BAD_SCALAR, scalar1),
        ([(pad1, "|", 0x80), (idx2, "<B", 41)], _PADDING, pad1),
        ([(idx2, "<B", 200), (idx0_sal, "<B", 99)], _BAD_INDEX, idx0_sal),
        # the salient set of block 0 comes before the non-salient set of
        # block 1 in the file
        ([(at[1][0](0, "idx"), "<B", 77), (at[0][1](1, "scalar"), "<e", float("nan"))],
         _BAD_SCALAR, at[0][1](1, "scalar")),
    ]


@pytest.mark.parametrize("kind", sorted(_MULTI_BLOCK))
def test_decode_reports_first_fault_of_a_multi_block_layer(kind):
    q = _multi_block(kind)
    for edits, message, offset in _multi_block_cases(kind):
        with pytest.raises(IntegrityError, match=f"^{message} at byte {offset}$"):
            decode_layer(_corrupted(q, edits))


@pytest.mark.parametrize("kind", sorted(_MULTI_BLOCK))
def test_decode_reports_a_bad_record_before_a_later_malformed_block(kind):
    # a bad field in block 1 is reported before a set padding bit of block
    # 2's salient mask, and before bytes trailing the last block
    q = _multi_block(kind)
    at = _record_offsets(q)
    scalar1 = at[1][0](0, "scalar")
    mask2 = at[2][0](0, "idx") - 1  # the 12-wide mask's second byte
    if q.blocks[2].mask.bits.size == 12:
        with pytest.raises(IntegrityError, match=f"^{_PADDING} at byte {mask2}$"):
            decode_layer(_corrupted(q, [(mask2, "|", 0x80)]))
        bad = _corrupted(q, [(mask2, "|", 0x80), (scalar1, "<e", float("nan"))])
        with pytest.raises(IntegrityError, match=f"^{_BAD_SCALAR} at byte {scalar1}$"):
            decode_layer(bad)
    payload = bytearray(encode_layer(q)[:-4])
    end = len(payload)
    trailing = _with_crc(bytes(payload) + b"\0")
    with pytest.raises(IntegrityError, match=f"^unexpected trailing bytes at byte {end}$"):
        decode_layer(trailing)
    payload += b"\0"
    import struct

    struct.pack_into("<e", payload, scalar1, float("nan"))
    with pytest.raises(IntegrityError, match=f"^{_BAD_SCALAR} at byte {scalar1}$"):
        decode_layer(_with_crc(bytes(payload)))


@pytest.mark.parametrize("kind", sorted(_MULTI_BLOCK))
@pytest.mark.parametrize("batch", [None, 100])
def test_dequantize_layer_equals_each_reconstructed_block(kind, batch, monkeypatch):
    # one weights() call per line shape for the whole layer, or per batch
    # of sets of at most 100 positions, gives each block's
    # reconstruct_block bit for bit, remainder block included, before and
    # after a round trip through the container
    if batch is not None:
        monkeypatch.setattr(pipeline, "_LOAD_VALUES", batch)
    q = _multi_block(kind)
    for layer in (q, decode_layer(encode_layer(q))):
        want = np.concatenate(
            [reconstruct_block(block, layer.mode) for block in layer.blocks], axis=1
        )
        assert dequantize_layer(layer).tobytes() == want.tobytes()
    assert_same_layer(decode_layer(encode_layer(q)), q)


# --- bit accounting ---


def test_share_mean_delta_exact_quarter_bit():
    rng = np.random.default_rng(4)
    w = rng.normal(size=(4, 256)).astype(np.float32)
    x = rng.normal(size=(256, 64)).astype(np.float32)
    cfg_on = QuantConfig(k_candidates=(0,), share_mean=True)
    cfg_off = QuantConfig(k_candidates=(0,), share_mean=False)
    r_on = bit_report(hbllm_quantize(w.copy(), x, beta=128, cfg=cfg_on))
    r_off = bit_report(hbllm_quantize(w.copy(), x, beta=128, cfg=cfg_off))
    assert r_off.avg_bits_per_weight - r_on.avg_bits_per_weight == 0.25
    # everything except the stored means is structurally identical
    assert r_on.sign_bits == r_off.sign_bits
    assert r_on.mask_bits == r_off.mask_bits
    assert r_on.index_bits == r_off.index_bits


def test_col_mode_scalar_overhead_example():
    # tall column lines amortize the per-line scalars: two bands store
    # 6 scalars and 2 indices over 4096 weights each
    rng = np.random.default_rng(5)
    w = rng.normal(size=(4096, 4)).astype(np.float32)
    x = rng.normal(size=(4, 8)).astype(np.float32)
    q = hbllm_quantize(w, x, beta=4, mode=Axis.COL, cfg=QuantConfig(k_candidates=(0,)))
    r = bit_report(q)
    assert r.scalar_bits == 4 * 6 * 16
    assert r.index_bits == 4 * 2 * 8
    per_weight = (r.scalar_bits + r.index_bits) / r.total_weights
    assert per_weight == pytest.approx((6 * 16 + 2 * 8) / 4096, rel=1e-12)
    assert r.sign_bits == r.total_weights
    # signs + scalars + indices land near 1.03 bits; group-membership
    # masks come on top of that
    before_masks = (r.sign_bits + r.scalar_bits + r.index_bits) / r.total_weights
    assert abs(before_masks - 1.03) < 0.01


def test_report_total_matches_payload_exactly():
    for seed, cfg, mode in [
        (6, QuantConfig(), Axis.ROW),
        (7, QuantConfig(share_mean=False), Axis.COL),
        (8, QuantConfig(haar_enabled=False), Axis.ROW),
    ]:
        q = random_layer(seed, cfg=cfg, mode=mode)
        blob = encode_layer(q)
        r = bit_report(q)
        k_bytes = 2 * len(cfg.k_candidates)
        payload_bits = (len(blob) - _HEADER_BYTES - k_bytes - 4) * 8
        assert r.total_bits == payload_bits
        assert r.avg_bits_per_weight == r.total_bits / (q.n * q.m)


def test_avg_bits_close_to_file_size_on_real_layer():
    rng = np.random.default_rng(9)
    w = rng.normal(size=(64, 512)).astype(np.float32)
    x = rng.normal(size=(512, 128)).astype(np.float32)
    q = hbllm_quantize(w, x, beta=128)
    blob = encode_layer(q)
    r = bit_report(q)
    assert abs(r.avg_bits_per_weight * q.n * q.m - len(blob) * 8) <= 0.01 * len(blob) * 8


def test_salient_residual_adds_row_sign_bits():
    rng = np.random.default_rng(10)
    w = rng.normal(size=(8, 32)).astype(np.float32)
    w[:, 3] *= 50.0
    x = rng.normal(size=(32, 64)).astype(np.float32)
    q_k = hbllm_quantize(w.copy(), x, beta=32, cfg=QuantConfig(k_candidates=(2,)))
    q_0 = hbllm_quantize(w.copy(), x, beta=32, cfg=QuantConfig(k_candidates=(0,)))
    r_k, r_0 = bit_report(q_k), bit_report(q_0)
    assert all(b.mask.k == 2 for b in q_k.blocks)
    assert r_k.sign_bits - r_0.sign_bits == 8 * 2  # n rows x K residual columns
    assert r_k.total_weights == r_0.total_weights


def test_list_k_candidates_hash_and_round_trip_as_a_tuple():
    cfg = QuantConfig(k_candidates=[0, 2])
    assert cfg.k_candidates == (0, 2)
    assert hash(cfg) == hash(QuantConfig(k_candidates=(0, 2)))
    q = random_layer(12, cfg=cfg)
    assert decode_layer(encode_layer(q)).cfg == cfg


def test_report_components_nonnegative_and_additive():
    q = random_layer(11, cfg=QuantConfig(k_candidates=(0, 2)))
    r = bit_report(q)
    parts = (r.sign_bits, r.scalar_bits, r.mask_bits, r.index_bits,
             r.container_overhead_bits)
    assert all(p >= 0 for p in parts)
    assert sum(parts) == r.total_bits
    assert r.avg_bits_per_weight == pytest.approx(r.total_bits / r.total_weights)
