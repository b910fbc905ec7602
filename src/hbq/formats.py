"""Bit-exact file containers and storage accounting.

Two formats: RTS1 carries raw float32 tensors in and out of the tool, and
HBQ1 carries a quantized layer. Every multi-byte integer is little-endian,
every bitset is LSB-first and zero-padded to a whole byte, and all plan
scalars are IEEE-754 binary16. The HBQ1 payload ends with a CRC-32 of all
preceding bytes; decode verifies it before trusting anything else, so any
single corrupted byte surfaces as a CRC error rather than a parse error.
"""

from __future__ import annotations

import functools
import struct
import zlib
from dataclasses import dataclass

import numpy as np

from .config import MAX_CANDIDATES, QuantConfig
from .errors import ConfigError, IntegrityError, ShapeError
from .grouping import LinePlans, band_bounds
from .haar import Axis
from .pipeline import QuantizedBlock, QuantizedLayer
from .salient import SalientMask

__all__ = [
    "RAW_MAGIC",
    "HBQ_MAGIC",
    "HBQ_VERSION",
    "encode_tensor",
    "decode_tensor",
    "write_tensor",
    "read_tensor",
    "encode_layer",
    "decode_layer",
    "BitReport",
    "bit_report",
]

RAW_MAGIC = b"RTS1"
HBQ_MAGIC = b"HBQ1"
HBQ_VERSION = 1
_SCALAR_F16 = 0
_DTYPE_F32 = 0

# magic, version, n, m, beta, mode, lambda, flags, n_candidates,
# scalar code, k-candidate count
_HEADER = struct.Struct("<4sHIIIBdBHBB")
_FLAG_SHARE = 1
_FLAG_HAAR = 2
_FLAG_L1 = 4
_FLAG_RAW_SCORES = 8


def _pack_bits(bits) -> np.ndarray:
    """Pack along the last axis, LSB-first, zero-padded to whole bytes."""
    return np.packbits(np.asarray(bits, dtype=bool), axis=-1, bitorder="little")


def _unpack_bits(packed: np.ndarray, count: int) -> np.ndarray:
    """The first count bits along the last axis of packed bytes."""
    return np.unpackbits(packed, axis=-1, count=count, bitorder="little").view(bool)


def _bitset_bytes(count: int) -> int:
    return (count + 7) // 8


def _padding_bits(count: int) -> int:
    """The padding bits of the last byte of a bitset of count bits."""
    return (0xFF << (count % 8)) & 0xFF if count % 8 else 0


# --- RTS1 raw tensors ---


def encode_tensor(a) -> bytes:
    arr = np.ascontiguousarray(a, dtype="<f4")
    if arr.ndim > 255:
        raise ShapeError("tensor rank exceeds container limit")
    out = bytearray(RAW_MAGIC)
    out += struct.pack("<BB", _DTYPE_F32, arr.ndim)
    for dim in arr.shape:
        out += struct.pack("<I", dim)
    out += arr.tobytes()
    return bytes(out)


def decode_tensor(data: bytes) -> np.ndarray:
    data = bytes(data)
    if len(data) < 6:
        raise IntegrityError(f"raw tensor truncated at byte {len(data)}")
    if data[:4] != RAW_MAGIC:
        raise IntegrityError("bad raw tensor magic at byte 0")
    dtype_code, rank = struct.unpack_from("<BB", data, 4)
    if dtype_code != _DTYPE_F32:
        raise IntegrityError(f"unknown dtype code {dtype_code} at byte 4")
    end = 6 + 4 * rank
    if len(data) < end:
        raise IntegrityError(f"raw tensor truncated at byte {len(data)}")
    dims = struct.unpack_from(f"<{rank}I", data, 6) if rank else ()
    expected = int(np.prod(dims, dtype=np.int64)) * 4
    if len(data) - end != expected:
        raise IntegrityError(
            f"payload is {len(data) - end} bytes, dims need {expected}"
        )
    arr = np.frombuffer(data, dtype="<f4", offset=end).reshape(dims)
    return arr.astype(np.float32, copy=True)


def write_tensor(path, a) -> None:
    with open(path, "wb") as fh:
        fh.write(encode_tensor(a))


def read_tensor(path) -> np.ndarray:
    with open(path, "rb") as fh:
        return decode_tensor(fh.read())


# --- HBQ1 quantized layers ---


def _scalar_names(share: bool) -> tuple[str, ...]:
    """Stored scalars per band, in file order (the scales come last)."""
    means = ("mu_sparse",) if share else ("mu_sparse", "mu_dense")
    return means + ("alpha_sparse", "alpha_dense")


@functools.lru_cache(maxsize=64)
def _line_dtype(width: int, split: int, share: bool) -> np.dtype:
    """One line record: per band a threshold index, the binary16 scalars
    and the sparse-group bitmap, then the line's sign bits."""
    fields = []
    for b, (lo, hi) in enumerate(band_bounds(width, split)):
        fields += [
            (f"idx{b}", "u1"),
            (f"scalars{b}", "<f2", (len(_scalar_names(share)),)),
            (f"sparse{b}", "u1", (_bitset_bytes(hi - lo),)),
        ]
    fields.append(("signs", "u1", (_bitset_bytes(width),)))
    return np.dtype(fields)


@functools.lru_cache(maxsize=64)
def _record_padding(width: int, split: int, share: bool) -> np.ndarray:
    """Per byte of a line record, the padding bits of its bitsets."""
    dt = _line_dtype(width, split, share)
    padding = np.zeros(dt.itemsize, np.uint8)
    bands = band_bounds(width, split)
    bitsets = [(f"sparse{b}", hi - lo) for b, (lo, hi) in enumerate(bands)]
    for name, count in bitsets + [("signs", width)]:
        padding[dt.fields[name][1] + dt[name].itemsize - 1] = _padding_bits(count)
    padding.flags.writeable = False
    return padding


def _encode_plans(plans: LinePlans, share: bool) -> bytes:
    rec = np.empty(plans.lines, _line_dtype(plans.width, plans.split, share))
    for b, (lo, hi) in enumerate(plans.bands):
        rec[f"idx{b}"] = plans.thr_idx[:, b]
        rec[f"scalars{b}"] = np.stack(
            [getattr(plans, name)[:, b] for name in _scalar_names(share)], axis=1
        )
        rec[f"sparse{b}"] = _pack_bits(plans.sparse[:, lo:hi])
    rec["signs"] = _pack_bits(plans.signs > 0)
    return rec.tobytes()


def encode_layer(q: QuantizedLayer) -> bytes:
    cfg = q.cfg
    flags = (
        (_FLAG_SHARE if cfg.share_mean else 0)
        | (_FLAG_HAAR if cfg.haar_enabled else 0)
        | (_FLAG_L1 if cfg.norm == "l1" else 0)
        | (_FLAG_RAW_SCORES if cfg.score_raw_weights else 0)
    )
    mode_code = 0 if q.mode is Axis.ROW else 1
    out = bytearray(
        _HEADER.pack(
            HBQ_MAGIC, HBQ_VERSION, q.n, q.m, q.beta, mode_code, float(q.damping),
            flags, cfg.n_candidates, _SCALAR_F16, len(cfg.k_candidates),
        )
    )
    for k in cfg.k_candidates:
        out += struct.pack("<H", k)
    for block in q.blocks:
        out += struct.pack("<II", block.block_col_offset, block.shape[1])
        out += _pack_bits(block.mask.bits).tobytes()
        out += _encode_plans(block.nonsalient_plans, cfg.share_mean)
        out += _encode_plans(block.salient_plans, cfg.share_mean)
    out += struct.pack("<I", zlib.crc32(bytes(out)))
    return bytes(out)


def _reject_first(bad: np.ndarray, rec: np.ndarray, pos: int, field: str, what: str):
    """Raise at the byte offset of the first True of bad, indexed (line,
    band) or (line, band, scalar); C order over those is byte order."""
    if bad.any():
        row, b, *j = np.argwhere(bad)[0]
        at = pos + row * rec.itemsize + rec.dtype.fields[f"{field}{b}"][1] + 2 * sum(j)
        raise IntegrityError(f"{what} at byte {at}")


def _decode_plans(
    data: bytes, pos: int, end: int, count: int, width: int, cfg: QuantConfig
) -> tuple[LinePlans, int]:
    """Decode count line records of length width at pos; return the plans
    and the position after them."""
    if count == 0:
        return LinePlans.empty(width), pos
    if cfg.haar_enabled and width % 2 != 0:
        raise IntegrityError(f"odd transformed line length {width} at byte {pos}")
    split = width // 2 if cfg.haar_enabled else width
    dt = _line_dtype(width, split, cfg.share_mean)
    if count * dt.itemsize > end - pos:
        raise IntegrityError(f"container truncated at byte {pos}")
    rec = np.frombuffer(data, dt, count=count, offset=pos)
    bands = band_bounds(width, split)
    thr_idx = np.stack([rec[f"idx{b}"] for b in range(len(bands))], axis=1)
    scalars = np.stack([rec[f"scalars{b}"] for b in range(len(bands))], axis=1)
    scalars = scalars.astype(np.float32)  # (line, band, scalar)
    _reject_first(thr_idx >= cfg.n_candidates, rec, pos, "idx",
                  f"threshold index beyond {cfg.n_candidates} candidates")
    bad = ~np.isfinite(scalars)
    bad[..., -2:] |= scalars[..., -2:] < 0  # the scales
    _reject_first(bad, rec, pos, "scalars", "non-finite or negative plan scalar")
    # set padding bits would be dropped by re-encoding
    raw = np.frombuffer(data, np.uint8, count * dt.itemsize, pos)
    padded = raw.reshape(count, -1) & _record_padding(width, split, cfg.share_mean)
    if padded.any():
        at = pos + int(np.flatnonzero(padded)[0])
        raise IntegrityError(f"nonzero padding bits at byte {at}")
    named = {n: scalars[..., j] for j, n in enumerate(_scalar_names(cfg.share_mean))}
    named.setdefault("mu_dense", named["mu_sparse"])
    sparse = [
        _unpack_bits(rec[f"sparse{b}"], hi - lo) for b, (lo, hi) in enumerate(bands)
    ]
    nan = np.full(thr_idx.shape, np.nan)
    plans = LinePlans(
        split=split,
        thr_idx=thr_idx,
        sparse=np.concatenate(sparse, axis=1),
        signs=np.where(_unpack_bits(rec["signs"], width), 1, -1).astype(np.int8),
        thr_val=nan.astype(np.float32),
        sse=nan,
        **named,
    )
    return plans, pos + count * dt.itemsize


def decode_layer(data: bytes) -> QuantizedLayer:
    data = bytes(data)
    if len(data) < _HEADER.size + 4:
        raise IntegrityError(f"container truncated at byte {len(data)}")
    (stored_crc,) = struct.unpack_from("<I", data, len(data) - 4)
    if zlib.crc32(data[:-4]) != stored_crc:
        raise IntegrityError(f"CRC mismatch at byte {len(data) - 4}")
    (magic, version, n, m, beta, mode_code, damping, flags, n_candidates,
     scalar_code, k_count) = _HEADER.unpack_from(data, 0)
    if magic != HBQ_MAGIC:
        raise IntegrityError("bad magic at byte 0")
    if version != HBQ_VERSION:
        raise IntegrityError(f"unsupported version {version} at byte 4")
    if scalar_code != _SCALAR_F16:
        raise IntegrityError(f"unknown scalar code {scalar_code}")
    if mode_code not in (0, 1):
        raise IntegrityError(f"unknown mode code {mode_code}")
    if flags & ~(_FLAG_SHARE | _FLAG_HAAR | _FLAG_L1 | _FLAG_RAW_SCORES):
        raise IntegrityError(f"unknown flag bits {flags:#04x} at byte 27")
    for ok, what, off in (
        (n >= 1, f"n must be >= 1, got {n}", 6),
        (m >= 1, f"m must be >= 1, got {m}", 10),
        (beta >= 1, f"beta must be >= 1, got {beta}", 14),
        (np.isfinite(damping) and damping >= 0, f"bad damping {damping}", 19),
        (0 < n_candidates <= MAX_CANDIDATES, f"bad candidates {n_candidates}", 28),
        (k_count >= 1, "empty k-candidate list", 31),
    ):
        if not ok:
            raise IntegrityError(f"{what} at byte {off}")
    mode = Axis.ROW if mode_code == 0 else Axis.COL
    pos, end = _HEADER.size, len(data) - 4
    if pos + 2 * k_count > end:
        raise IntegrityError(f"container truncated at byte {pos}")
    k_candidates = tuple(int(k) for k in np.frombuffer(data, "<u2", k_count, pos))
    try:
        cfg = QuantConfig(
            n_candidates=n_candidates,
            share_mean=bool(flags & _FLAG_SHARE),
            haar_enabled=bool(flags & _FLAG_HAAR),
            norm="l1" if flags & _FLAG_L1 else "l2",
            k_candidates=k_candidates,
            score_raw_weights=bool(flags & _FLAG_RAW_SCORES),
        )
    except ConfigError as exc:
        raise IntegrityError(f"{exc} at byte {pos}") from None
    pos += 2 * k_count
    blocks = []
    for b in range(0, m, beta):
        width = min(beta, m - b)
        mask_end = pos + 8 + _bitset_bytes(width)
        if mask_end > end:
            raise IntegrityError(f"container truncated at byte {pos}")
        if struct.unpack_from("<II", data, pos) != (b, width):
            raise IntegrityError(f"block record disagrees with header at byte {pos}")
        packed = np.frombuffer(data, np.uint8, mask_end - pos - 8, pos + 8)
        if packed[-1] & _padding_bits(width):
            raise IntegrityError(f"nonzero padding bits at byte {mask_end - 1}")
        bits = _unpack_bits(packed, width)
        if bits.all():
            raise IntegrityError(f"no non-salient column in mask at byte {pos + 8}")
        mask = SalientMask(block_width=width, bits=bits)
        pos = mask_end
        count, length = (n, width) if mode is Axis.ROW else (width - mask.k, n)
        nonsal, pos = _decode_plans(data, pos, end, count, length, cfg)
        salient, pos = _decode_plans(data, pos, end, mask.k, n, cfg)
        blocks.append(
            QuantizedBlock(
                mode=mode,
                mask=mask,
                nonsalient_plans=nonsal,
                salient_plans=salient,
                block_col_offset=b,
                shape=(n, width),
            )
        )
    if pos != end:
        raise IntegrityError(f"unexpected trailing bytes at byte {pos}")
    return QuantizedLayer(
        blocks=blocks, n=n, m=m, beta=beta, mode=mode, damping=damping, cfg=cfg
    )


# --- storage accounting ---


@dataclass(frozen=True)
class BitReport:
    """Where the stored bits go, and the resulting average per weight.

    Counts mirror the HBQ1 payload exactly: sign_bits and mask_bits are
    raw bit counts, byte-padding and per-block headers land in
    container_overhead_bits. The fixed file header and CRC are excluded.
    """

    sign_bits: int
    scalar_bits: int
    mask_bits: int
    index_bits: int
    container_overhead_bits: int
    total_weights: int
    avg_bits_per_weight: float

    @property
    def total_bits(self) -> int:
        return (
            self.sign_bits
            + self.scalar_bits
            + self.mask_bits
            + self.index_bits
            + self.container_overhead_bits
        )


def _pad_bits(count: int) -> int:
    return (-count) % 8


def bit_report(q: QuantizedLayer) -> BitReport:
    scalars_per_band = len(_scalar_names(q.cfg.share_mean))
    sign = scalar = mask = index = overhead = 0
    for block in q.blocks:
        width = block.shape[1]
        overhead += 64  # per-block column offset and width
        mask += width
        overhead += _pad_bits(width)
        for plans in (block.nonsalient_plans, block.salient_plans):
            lines = plans.lines
            for lo, hi in plans.bands:
                index += 8 * lines
                scalar += 16 * scalars_per_band * lines
                mask += (hi - lo) * lines
                overhead += _pad_bits(hi - lo) * lines
            sign += plans.width * lines
            overhead += _pad_bits(plans.width) * lines
    weights = q.n * q.m
    total = sign + scalar + mask + index + overhead
    return BitReport(
        sign_bits=sign,
        scalar_bits=scalar,
        mask_bits=mask,
        index_bits=index,
        container_overhead_bits=overhead,
        total_weights=weights,
        avg_bits_per_weight=total / weights,
    )
