"""Bit-exact file containers and storage accounting.

Two formats: RTS1 carries raw float32 tensors in and out of the tool, and
HBQ1 carries a quantized layer. Every multi-byte integer is little-endian,
every bitset is LSB-first and zero-padded to a whole byte, and all plan
scalars are IEEE-754 binary16; ``_SLOTS`` states which of a plan's four
scalars per band HBQ1 stores, and in what order. The HBQ1 payload ends
with a CRC-32 of all preceding bytes; decode verifies it before trusting
anything else, so any single corrupted byte surfaces as a CRC error rather
than a parse error.
"""

from __future__ import annotations

import functools
import os
import stat
import struct
import zlib
from dataclasses import dataclass

import numpy as np

from .config import MAX_CANDIDATES, QuantConfig
from .errors import ConfigError, IntegrityError, ShapeError
from .grouping import LinePlans, band_split
from .haar import Axis
from .pipeline import QuantizedLayer, block_spans, line_shapes
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
# per block, before its mask: first column, width
_BLOCK = struct.Struct("<II")
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


def _tensor_header(arr: np.ndarray) -> bytes:
    return RAW_MAGIC + struct.pack(f"<BB{arr.ndim}I", _DTYPE_F32, arr.ndim, *arr.shape)


def encode_tensor(a) -> bytes:
    arr = np.ascontiguousarray(a, dtype="<f4")
    return _tensor_header(arr) + arr.tobytes()


def _tensor_layout(head: bytes, size: int) -> tuple[tuple[int, ...], int]:
    """The dims and payload offset of an RTS1 tensor of size bytes, from
    its first bytes (all of them, or at least ``_TENSOR_HEAD``); raises
    IntegrityError when the header is bad or the size disagrees with it."""
    if size < 6:
        raise IntegrityError(f"raw tensor truncated at byte {size}")
    if head[:4] != RAW_MAGIC:
        raise IntegrityError("bad raw tensor magic at byte 0")
    dtype_code, rank = struct.unpack_from("<BB", head, 4)
    if dtype_code != _DTYPE_F32:
        raise IntegrityError(f"unknown dtype code {dtype_code} at byte 4")
    end = 6 + 4 * rank
    if size < end:
        raise IntegrityError(f"raw tensor truncated at byte {size}")
    dims = struct.unpack_from(f"<{rank}I", head, 6) if rank else ()
    expected = int(np.prod(dims, dtype=np.int64)) * 4
    if size - end != expected:
        raise IntegrityError(f"payload is {size - end} bytes, dims need {expected}")
    return dims, end


# the longest RTS1 header: magic, dtype, rank 255 and its dims
_TENSOR_HEAD = 6 + 4 * 255


def decode_tensor(data: bytes) -> np.ndarray:
    data = bytes(data)
    dims, end = _tensor_layout(data, len(data))
    arr = np.frombuffer(data, dtype="<f4", offset=end).reshape(dims)
    return arr.astype(np.float32, copy=True)


def write_tensor(path, a) -> None:
    """The bytes of ``encode_tensor``, written from the array itself: a
    little-endian float32 C-ordered array is not copied."""
    arr = np.ascontiguousarray(a, dtype="<f4")
    with open(path, "wb") as fh:
        fh.write(_tensor_header(arr))
        fh.write(arr.data)


def read_tensor(path) -> np.ndarray:
    """``decode_tensor`` of the file's bytes, with the same errors; the
    payload of a regular file is read once, straight into the array."""
    with open(path, "rb") as fh:
        info = os.fstat(fh.fileno())
        if not stat.S_ISREG(info.st_mode):  # a pipe: its size is not known
            return decode_tensor(fh.read())
        size = info.st_size
        dims, end = _tensor_layout(fh.read(_TENSOR_HEAD), size)
        arr = np.empty(dims, "<f4")
        fh.seek(end)
        if fh.readinto(arr.reshape(-1).view(np.uint8)) != arr.nbytes or fh.read(1):
            raise IntegrityError(f"raw tensor {path} changed size while being read")
    return arr.astype(np.float32, copy=False)


# --- HBQ1 quantized layers ---


# The binary16 scalars HBQ1 stores per band, by share_mean: slot i of
# LinePlans.scalars (mu_dense, mu_sparse, alpha_dense, alpha_sparse) is
# stored scalar _SLOTS[share][i]. A shared mean fills both mu slots, which
# write and read the one stored mean; the scales come last, alpha_sparse
# first.
_SLOTS = {True: (0, 0, 2, 1), False: (1, 0, 3, 2)}


@functools.lru_cache(maxsize=64)
def _line_dtype(width: int, bands: int, share: bool) -> np.dtype:
    """One line record: per band a threshold index, the binary16 scalars
    and the sparse-group bitmap, then the line's sign bits."""
    band = np.dtype([
        ("idx", "u1"),
        ("scalars", "<f2", (len(set(_SLOTS[share])),)),
        ("sparse", "u1", (_bitset_bytes(width // bands),)),
    ])
    signs = ("signs", "u1", (_bitset_bytes(width),))
    return np.dtype([("bands", band, (bands,)), signs])


@functools.lru_cache(maxsize=64)
def _record_padding(width: int, bands: int, share: bool) -> np.ndarray:
    """Per byte of a line record, the padding bits of its bitsets."""
    rec = np.zeros((), _line_dtype(width, bands, share))
    rec["bands"]["sparse"][:, -1] = _padding_bits(width // bands)
    rec["signs"][-1] = _padding_bits(width)
    padding = rec.reshape(1).view(np.uint8)
    padding.flags.writeable = False
    return padding


def _encode_plans(plans: LinePlans, share: bool) -> np.ndarray:
    """The line records of plans, one per line."""
    lines, bands = plans.thr_idx.shape
    rec = np.empty(lines, _line_dtype(plans.width, bands, share))
    per_band = rec["bands"]
    per_band["idx"] = plans.thr_idx
    per_band["scalars"][..., _SLOTS[share]] = plans.scalars
    per_band["sparse"] = _pack_bits(
        plans.sparse.reshape(lines, bands, plans.width // bands)
    )
    rec["signs"] = _pack_bits(plans.signs > 0)
    return rec


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
    # each length's records are made once and written set by set
    records = {length: _encode_plans(p, cfg.share_mean) for length, p in q.plans.items()}
    for span, mask, sets in q.line_sets():
        out += _BLOCK.pack(*span)
        out += _pack_bits(mask.bits).tobytes()
        for length, start, count in sets:
            if count:
                out += records[length][start : start + count].tobytes()
    out += struct.pack("<I", zlib.crc32(bytes(out)))
    return bytes(out)


def _records_size(count: int, length: int, cfg: QuantConfig, pos: int) -> int:
    """The bytes of count line records of length at pos (none for no
    lines); a length the transform cannot split is corruption."""
    if not count:
        return 0
    try:
        split = band_split(length, cfg)
    except ShapeError as exc:
        raise IntegrityError(f"{exc} at byte {pos}") from None
    return count * _line_dtype(length, length // split, cfg.share_mean).itemsize


def _reject_first(faults, dt: np.dtype, pos: int, cfg: QuantConfig):
    """Raise at the first fault of one record set at pos, by check in the
    order threshold index, scalars, padding, and by byte within a check.
    faults are (line, band), (line, band, scalar) and (line, byte) masks;
    C order over each is byte order."""
    idx, scalars, padded = faults
    band = dt["bands"].base
    for bad, field, what in (
        (idx, "idx", f"threshold index beyond {cfg.n_candidates} candidates"),
        (scalars, "scalars", "non-finite or negative plan scalar"),
    ):
        if bad.any():
            row, b, *j = np.argwhere(bad)[0]
            at = pos + row * dt.itemsize + b * band.itemsize + band.fields[field][1]
            raise IntegrityError(f"{what} at byte {at + 2 * sum(j)}")
    at = pos + int(np.flatnonzero(padded)[0])
    raise IntegrityError(f"nonzero padding bits at byte {at}")


def _decode_records(data: bytes, sets: list, cfg: QuantConfig) -> dict[int, LinePlans]:
    """The plans of every line of each length, from the record sets
    (position, lines, length) in file order: ``QuantizedLayer.plans``.

    The records of one length are gathered into one array, checked once
    and unpacked once into one LinePlans. A failed check raises at the
    first fault of the first faulty set in file order (``_reject_first``),
    as reading set by set would.
    """
    plans: dict[int, LinePlans] = {}
    by_length: dict[int, list[int]] = {}
    for i, (_, count, length) in enumerate(sets):
        if count:
            by_length.setdefault(length, []).append(i)
    first_fault = None  # (set index, its faults, record dtype)
    for length, members in by_length.items():
        split = band_split(length, cfg)
        bands = length // split
        dt = _line_dtype(length, bands, cfg.share_mean)
        counts = np.array([sets[i][1] for i in members])
        ends = np.cumsum(counts)
        starts = ends - counts
        raw = np.concatenate([np.frombuffer(data, np.uint8, sets[i][1] * dt.itemsize,
                                            sets[i][0]) for i in members])
        rec = raw.view(dt)
        per_band = rec["bands"]
        thr_idx = per_band["idx"]
        slots = _SLOTS[cfg.share_mean]
        stored = per_band["scalars"].astype(np.float32)  # (line, band, scalar)
        bad_scalars = ~np.isfinite(stored)
        bad_scalars[..., slots[2:]] |= stored[..., slots[2:]] < 0  # the scales
        # set padding bits would be dropped by re-encoding
        faults = (
            thr_idx >= cfg.n_candidates,
            bad_scalars,
            raw.reshape(rec.size, -1) & _record_padding(length, bands, cfg.share_mean),
        )
        if any(f.any() for f in faults):
            bad = np.logical_or.reduce([f.reshape(rec.size, -1).any(axis=1) for f in faults])
            k = int(np.searchsorted(ends, np.argmax(bad), side="right"))
            if first_fault is None or members[k] < first_fault[0]:
                first_fault = (members[k], [f[starts[k] : ends[k]] for f in faults], dt)
        nan = np.full(thr_idx.shape, np.nan)
        signs = _unpack_bits(rec["signs"], length).view(np.int8)
        signs += signs  # bit 1 is +1, bit 0 is -1
        signs -= 1
        plans[length] = LinePlans(
            thr_idx=thr_idx,
            thr_val=nan.astype(np.float32),
            scalars=stored[..., slots],
            sse=nan,
            sparse=_unpack_bits(per_band["sparse"], split).reshape(rec.size, length),
            signs=signs,
        )
    if first_fault is not None:
        i, faults, dt = first_fault
        _reject_first(faults, dt, sets[i][0], cfg)
    return plans


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
    masks: list[SalientMask] = []
    sets: list[tuple[int, int, int]] = []  # (position, lines, length)
    try:
        # block records and masks, in file order; line records are only
        # measured against the end here, before any array of them is made
        for span in block_spans(m, beta):
            width = span[1]
            mask_at = pos + _BLOCK.size
            mask_end = mask_at + _bitset_bytes(width)
            if mask_end > end:
                raise IntegrityError(f"container truncated at byte {pos}")
            if _BLOCK.unpack_from(data, pos) != span:
                raise IntegrityError(f"block record disagrees with header at byte {pos}")
            packed = np.frombuffer(data, np.uint8, mask_end - mask_at, mask_at)
            if packed[-1] & _padding_bits(width):
                raise IntegrityError(f"nonzero padding bits at byte {mask_end - 1}")
            bits = _unpack_bits(packed, width)
            if bits.all():
                raise IntegrityError(f"no non-salient column in mask at byte {mask_at}")
            masks.append(SalientMask(bits))
            pos = mask_end
            for count, length in line_shapes(mode, n, masks[-1]):
                size = _records_size(count, length, cfg, pos)
                if size > end - pos:
                    raise IntegrityError(f"container truncated at byte {pos}")
                sets.append((pos, count, length))
                pos += size
        if pos != end:
            raise IntegrityError(f"unexpected trailing bytes at byte {pos}")
    except IntegrityError:
        # a faulty record before the malformed part is reported first, as a
        # block-by-block read would
        _decode_records(data, sets, cfg)
        raise
    return QuantizedLayer(masks, _decode_records(data, sets, cfg), n=n, m=m, beta=beta,
                          mode=mode, damping=damping, cfg=cfg)


# --- storage accounting ---


@dataclass(frozen=True)
class BitReport:
    """Where the stored bits go; totals and averages derive from these.

    Counts mirror the HBQ1 payload exactly: sign_bits and mask_bits are
    raw bit counts, and byte padding and the per-block records land in
    container_overhead_bits. The fixed file header and CRC are excluded.
    """

    sign_bits: int
    scalar_bits: int
    mask_bits: int
    index_bits: int
    container_overhead_bits: int
    total_weights: int

    @property
    def total_bits(self) -> int:
        return (
            self.sign_bits
            + self.scalar_bits
            + self.mask_bits
            + self.index_bits
            + self.container_overhead_bits
        )

    @property
    def avg_bits_per_weight(self) -> float:
        return self.total_bits / self.total_weights


def bit_report(q: QuantizedLayer) -> BitReport:
    share = q.cfg.share_mean
    scalars_per_band = len(set(_SLOTS[share]))
    sign = scalar = mask = index = stored = 0
    for _, width in q.spans:
        mask += width
        stored += 8 * (_BLOCK.size + _bitset_bytes(width))
    for plans in q.plans.values():
        lines, bands = plans.thr_idx.shape
        stored += 8 * lines * _line_dtype(plans.width, bands, share).itemsize
        index += 8 * bands * lines
        scalar += 16 * scalars_per_band * bands * lines
        mask += plans.width * lines  # the bands' bitmaps cover the line
        sign += plans.width * lines
    return BitReport(
        sign_bits=sign,
        scalar_bits=scalar,
        mask_bits=mask,
        index_bits=index,
        container_overhead_bits=stored - sign - scalar - mask - index,
        total_weights=q.n * q.m,
    )
