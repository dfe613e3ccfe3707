"""Delta encodings: DELTA_BINARY_PACKED, DELTA_LENGTH_BYTE_ARRAY,
DELTA_BYTE_ARRAY — vectorized numpy re-implementations of the formats in
the reference's encoding/delta package (binary_packed.go:55-181,
length_byte_array.go:20-63, byte_array.go:27-215), derived from the public
Parquet spec:

DELTA_BINARY_PACKED (frame-of-reference + bit-packing; the north rule's
codec for near-monotonic timestamp columns):

    header: uvarint block_size (128) | uvarint miniblocks_per_block (4)
            | uvarint total_count | svarint first_value
    block:  svarint min_delta | miniblock bit widths (1 byte each)
            | bit-packed miniblocks (32 values each, LSB-first)

All delta arithmetic is modular in the value width (two's-complement
wraparound), so sequences touching INT64 min/max round-trip exactly —
the 64-bit-width-forcing vector from encoding_test.go:141-151 is in the
test suite.

DELTA_LENGTH_BYTE_ARRAY: value lengths as a DELTA_BINARY_PACKED int32
block, then the concatenated value bytes (Arrow string/binary layout is
exactly (offsets, data), so this is nearly zero-copy).

DELTA_BYTE_ARRAY: incremental (front) coding — shared-prefix length with
the previous value + suffix; prefix lengths and suffix lengths each
DELTA_BINARY_PACKED, suffix bytes concatenated. The prefix scan is capped
at 64 bytes like the reference's linear path (byte_array.go:11-13).
"""

from __future__ import annotations

import ctypes

import numpy as np

from . import native
from ._util import (
    pack_bits,
    packed_byte_len,
    svarint_decode,
    svarint_encode,
    unpack_bits,
    uvarint_decode,
    uvarint_encode,
)

BLOCK_SIZE = 128
MINIBLOCKS = 4
MINIBLOCK_SIZE = BLOCK_SIZE // MINIBLOCKS  # 32

_U64 = np.uint64
_MASK64 = np.uint64(0xFFFFFFFFFFFFFFFF)


def _to_u64(values: np.ndarray, bits: int) -> np.ndarray:
    if bits == 32:
        return values.view(np.uint32).astype(np.uint64)
    return values.astype(np.int64, copy=False).view(np.uint64)


def _from_u64(values: np.ndarray, bits: int) -> np.ndarray:
    if bits == 32:
        return (values & _U64(0xFFFFFFFF)).astype(np.uint32).view(np.int32)
    return values.view(np.int64)


def encode_binary_packed(values: np.ndarray, bits: int) -> bytes:
    """values: int32 (bits=32) or int64 (bits=64) ndarray. Runs
    ``dbp_encode`` in _delta_native.c when it loads; the numpy encoder
    (``_encode_binary_packed_numpy``) is the reference and the fallback,
    and both write the same bytes."""
    lib = _native()
    if lib is not None:
        v = _native_input(values, bits)
        if v is not None:
            # dbp_encode_bound: the header, then per block of 128 deltas
            # a min varint, 4 width bytes and 128 64-bit values
            out = np.empty(24 + -(-(len(v) - 1) // BLOCK_SIZE) * 1038, dtype=np.uint8)
            fn = lib.dbp_encode
            fn.restype = ctypes.c_int64
            k = fn(
                v.ctypes.data_as(ctypes.c_void_p),
                ctypes.c_int64(len(v)),
                ctypes.c_int32(bits),
                out.ctypes.data_as(ctypes.c_void_p),
                ctypes.c_int64(len(out)),
            )
            if k < 0:
                raise RuntimeError(f"native dbp_encode failed rc={k}")
            return out[:k].tobytes()
    return _encode_binary_packed_numpy(values, bits)


def _native_input(values, bits: int) -> np.ndarray | None:
    """values as the contiguous int32/int64 array dbp_encode reads, with
    the numpy encoder's conversion (a 4-byte view for bits 32, a cast to
    int64 for bits 64); None for an input only the numpy encoder takes."""
    if not isinstance(values, np.ndarray) or values.dtype.kind not in "iu":
        return None
    if bits == 32 and values.dtype.itemsize == 4:
        return np.ascontiguousarray(values).view(np.int32)
    if bits == 64:
        return np.ascontiguousarray(values.astype(np.int64, copy=False))
    return None


def _encode_binary_packed_numpy(values: np.ndarray, bits: int) -> bytes:
    n = len(values)
    header = (
        uvarint_encode(BLOCK_SIZE)
        + uvarint_encode(MINIBLOCKS)
        + uvarint_encode(n)
    )
    if n == 0:
        return header + svarint_encode(0, bits)
    u = _to_u64(values, bits)
    header += svarint_encode(int(values[0]), bits)
    if n == 1:
        return header

    mask = _MASK64 if bits == 64 else _U64(0xFFFFFFFF)
    deltas = (u[1:] - u[:-1]) & mask
    nd = len(deltas)
    nblocks = (nd + BLOCK_SIZE - 1) // BLOCK_SIZE
    # parquet wire semantics (delta_binary_packed.md, matched by the
    # reference's binary_packed.go and by arrow): the last block's
    # UNNEEDED miniblocks (those entirely past the value count) have a
    # width byte but NO body; needed miniblocks have full-size bodies
    # whose padding values may be arbitrary (we use the last delta so
    # they stay within the block's [min, max] range)
    mb_needed = (nd + MINIBLOCK_SIZE - 1) // MINIBLOCK_SIZE
    pad = nblocks * BLOCK_SIZE - nd
    if pad:
        deltas = np.concatenate((deltas, np.full(pad, deltas[-1], dtype=np.uint64)))
    # signed interpretation for per-block min:
    if bits == 32:
        signed_view = (deltas & _U64(0xFFFFFFFF)).astype(np.uint32).view(np.int32).astype(np.int64)
    else:
        signed_view = deltas.view(np.int64)

    blocks = deltas.reshape(nblocks, BLOCK_SIZE)
    sblocks = signed_view.reshape(nblocks, BLOCK_SIZE)
    block_mins = sblocks.min(axis=1)
    mins_u = (block_mins.astype(np.int64).view(np.uint64)) & mask
    adjusted = (blocks - mins_u[:, None]) & mask
    mbs = adjusted.reshape(nblocks * MINIBLOCKS, MINIBLOCK_SIZE)
    maxes = mbs.max(axis=1)
    # bit_length via searchsorted over powers of two (exact for uint64,
    # unlike log2 floats)
    powers = (np.uint64(1) << np.arange(64, dtype=np.uint64)).astype(np.uint64)
    widths_all = np.searchsorted(powers, maxes, side="right").astype(np.int32)
    widths_all[mb_needed:] = 0  # unneeded trailing miniblocks: width 0, no body
    # pack all miniblocks of equal width together (one vectorized
    # packbits per DISTINCT width instead of one call per miniblock)
    payloads: dict[int, bytes] = {}
    for w in np.unique(widths_all[:mb_needed]):
        w = int(w)
        if w == 0:
            continue
        sel = np.nonzero(widths_all[:mb_needed] == w)[0]
        shifts = np.arange(w, dtype=np.uint64)
        bits_arr = (
            (mbs[sel][:, :, None] >> shifts[None, None, :]) & _U64(1)
        ).astype(np.uint8)
        packed = np.packbits(
            bits_arr.reshape(len(sel), MINIBLOCK_SIZE * w),
            axis=1,
            bitorder="little",
        )
        for j, mb_idx in enumerate(sel):
            payloads[int(mb_idx)] = packed[j].tobytes()
    out = [header]
    for b in range(nblocks):
        out.append(svarint_encode(int(block_mins[b]), bits))
        ws = widths_all[b * MINIBLOCKS : (b + 1) * MINIBLOCKS]
        out.append(bytes(int(x) for x in ws))
        for i in range(MINIBLOCKS):
            p = payloads.get(b * MINIBLOCKS + i)
            if p is not None:
                out.append(p)
    return b"".join(out)


def decode_binary_packed(buf: bytes, bits: int, pos: int = 0) -> tuple[np.ndarray, int]:
    """Return (values ndarray int32/int64, end position)."""
    block_size, pos = uvarint_decode(buf, pos)
    miniblocks, pos = uvarint_decode(buf, pos)
    n, pos = uvarint_decode(buf, pos)
    first, pos = svarint_decode(buf, pos)
    # the spec's header rules; they also keep a corrupt header from
    # dividing by zero below
    if (
        block_size <= 0
        or block_size % 128
        or miniblocks <= 0
        or block_size % miniblocks
        or (block_size // miniblocks) % 32
    ):
        raise ValueError(
            f"DELTA_BINARY_PACKED: bad header ({block_size} values per "
            f"block, {miniblocks} miniblocks)"
        )
    dtype = np.int32 if bits == 32 else np.int64
    if n == 0:
        return np.empty(0, dtype=dtype), pos
    if n == 1:
        return np.array([first], dtype=dtype), pos

    mb_size = block_size // miniblocks
    mask = _MASK64 if bits == 64 else _U64(0xFFFFFFFF)
    nd = n - 1
    nblocks = (nd + block_size - 1) // block_size
    # unneeded trailing miniblocks carry a width byte but no body (their
    # width "should be zero but readers must accept arbitrary values")
    mb_needed = (nd + mb_size - 1) // mb_size
    # pass 1: walk headers, record every miniblock's (width, byte start)
    mins = []
    n_mb = nblocks * miniblocks
    mb_w = np.zeros(n_mb, dtype=np.int32)
    mb_start = np.empty(n_mb, dtype=np.int64)
    k = 0
    for _ in range(nblocks):
        mn, pos = svarint_decode(buf, pos)
        mins.append(mn & 0xFFFFFFFFFFFFFFFF)
        widths = buf[pos : pos + miniblocks]
        pos += miniblocks
        for w in widths:
            if k < mb_needed:
                mb_w[k] = w
                mb_start[k] = pos
                pos += packed_byte_len(mb_size, w)
            k += 1
    # pass 2: unpack all miniblocks of equal width together (one
    # vectorized unpackbits per DISTINCT width instead of one numpy
    # round-trip per 32-value miniblock)
    deltas = np.zeros(n_mb * mb_size, dtype=np.uint64)
    buf_np = np.frombuffer(buf, dtype=np.uint8)
    for w in np.unique(mb_w):
        w = int(w)
        if w == 0:
            continue
        sel = np.nonzero(mb_w == w)[0]
        nbytes = packed_byte_len(mb_size, w)
        raw = buf_np[mb_start[sel][:, None] + np.arange(nbytes)[None, :]]
        bits_arr = np.unpackbits(
            raw, axis=1, count=mb_size * w, bitorder="little"
        )
        shifts = np.arange(w, dtype=np.uint64)
        vals = (
            bits_arr.reshape(len(sel), mb_size, w).astype(np.uint64)
            << shifts[None, None, :]
        ).sum(axis=2, dtype=np.uint64)
        dst = (sel[:, None] * mb_size + np.arange(mb_size)[None, :]).ravel()
        deltas[dst] = vals.ravel()
    mins_u = np.array(mins, dtype=np.uint64)
    deltas = (
        (deltas.reshape(nblocks, block_size) + mins_u[:, None]) & mask
    ).ravel()[:nd]
    acc = np.empty(n, dtype=np.uint64)
    acc[0] = np.uint64(first & 0xFFFFFFFFFFFFFFFF)
    np.cumsum(deltas, out=acc[1:])
    acc[1:] = (acc[1:] + acc[0]) & mask
    acc[0] &= mask
    return _from_u64(acc, bits), pos


# ---------------------------------------------------- DELTA_LENGTH_BYTE_ARRAY


def encode_length_byte_array(data: bytes, offsets: np.ndarray) -> bytes:
    """offsets: int32/int64 monotonically increasing, len = n+1.

    Exact parquet wire form (delta_length_byte_array.md): the
    DELTA_BINARY_PACKED length block is self-terminating, so the value
    bytes follow it with no framing."""
    lengths = np.diff(offsets).astype(np.int32)
    return encode_binary_packed(lengths, 32) + bytes(data)


def decode_length_byte_array(buf: bytes) -> tuple[bytes, np.ndarray]:
    lengths, pos = decode_binary_packed(buf, 32)
    offsets = np.zeros(len(lengths) + 1, dtype=np.int64)
    np.cumsum(lengths, out=offsets[1:])
    data = buf[pos : pos + int(offsets[-1])]
    return data, offsets


# -------------------------------------------------------- DELTA_BYTE_ARRAY

_PREFIX_CAP = 64


def _common_prefix_lengths(buf: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Vectorized shared-prefix length of each value with its predecessor
    (first value gets 0). Capped at _PREFIX_CAP bytes."""
    n = len(offsets) - 1
    out = np.zeros(n, dtype=np.int64)
    if n <= 1:
        return out
    starts = offsets[:-1].astype(np.int64)
    lens = np.diff(offsets).astype(np.int64)
    cap = np.minimum(np.minimum(lens[:-1], lens[1:]), _PREFIX_CAP)
    # gather first _PREFIX_CAP bytes of value i and i+1, pad with distinct
    # sentinels beyond each value's length so comparison stops at min length
    k = _PREFIX_CAP
    col = np.arange(k, dtype=np.int64)
    idx_a = starts[:-1, None] + col[None, :]
    idx_b = starts[1:, None] + col[None, :]
    valid_a = col[None, :] < lens[:-1, None]
    valid_b = col[None, :] < lens[1:, None]
    total = len(buf)
    if total == 0:
        return out  # all-empty strings: every prefix length is 0
    a = buf[np.minimum(idx_a, total - 1)]
    b = buf[np.minimum(idx_b, total - 1)]
    a = np.where(valid_a, a, 256)  # sentinel 256 > any byte
    b = np.where(valid_b, b, -1)
    neq = a != b
    any_neq = neq.any(axis=1)
    first_neq = np.argmax(neq, axis=1)
    prefix = np.where(any_neq, first_neq, k)
    out[1:] = np.minimum(prefix, cap)
    return out


def encode_byte_array(data: bytes, offsets: np.ndarray) -> bytes:
    buf = np.frombuffer(data, dtype=np.uint8).astype(np.int64)
    offsets = np.asarray(offsets, dtype=np.int64)
    n = len(offsets) - 1
    lens = np.diff(offsets)
    prefix = _common_prefix_lengths(buf, offsets)
    suffix_lens = (lens - prefix).astype(np.int32)
    # gather suffix bytes: for value i, bytes [start+prefix, start+len)
    starts = offsets[:-1] + prefix
    raw = np.frombuffer(data, dtype=np.uint8)
    if n and int(suffix_lens.sum()):
        seg_starts = np.repeat(starts, suffix_lens)
        within = np.arange(int(suffix_lens.sum()), dtype=np.int64) - np.repeat(
            np.cumsum(suffix_lens) - suffix_lens, suffix_lens
        )
        suffix_bytes = raw[seg_starts + within].tobytes()
    else:
        suffix_bytes = b""
    # exact parquet wire form (delta_byte_array.md): prefix-length block,
    # then the suffixes as DELTA_LENGTH_BYTE_ARRAY — both delta blocks
    # are self-terminating, no framing
    pblock = encode_binary_packed(prefix.astype(np.int32), 32)
    sblock = encode_binary_packed(suffix_lens, 32)
    return pblock + sblock + suffix_bytes


def _native():
    """The optional C kernels in _delta_native.c: DELTA_BINARY_PACKED
    encode, and front-coding decode (the reconstruction is sequential by
    nature; a per-value Python loop otherwise bounds the codec's
    throughput on sorted url-like columns)."""
    return native.load("_delta_native.c")


def decode_byte_array(buf: bytes) -> tuple[bytes, np.ndarray]:
    prefix, pos = decode_binary_packed(buf, 32)
    suffix_lens, pos = decode_binary_packed(buf, 32, pos)
    n = len(prefix)
    lens = prefix.astype(np.int64) + suffix_lens.astype(np.int64)
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(lens, out=offsets[1:])
    suffixes = bytes(buf[pos:])
    lib = _native()
    if lib is not None and n:
        out_np = np.empty(int(offsets[-1]), dtype=np.uint8)
        pref32 = np.ascontiguousarray(prefix, dtype=np.int32)
        slen32 = np.ascontiguousarray(suffix_lens, dtype=np.int32)
        lib.dba_decode(
            suffixes,
            ctypes.c_long(n),
            offsets.ctypes.data_as(ctypes.POINTER(ctypes.c_long)),
            pref32.ctypes.data_as(ctypes.POINTER(ctypes.c_int)),
            slen32.ctypes.data_as(ctypes.POINTER(ctypes.c_int)),
            out_np.ctypes.data_as(ctypes.POINTER(ctypes.c_ubyte)),
        )
        return out_np.tobytes(), offsets
    out = bytearray(int(offsets[-1]))
    mv = memoryview(out)
    smv = memoryview(suffixes)
    spos = 0
    prev_start = 0
    for i in range(n):
        start = int(offsets[i])
        p = int(prefix[i])
        sl = int(suffix_lens[i])
        if p:
            mv[start : start + p] = mv[prev_start : prev_start + p]
        if sl:
            mv[start + p : start + p + sl] = smv[spos : spos + sl]
            spos += sl
        prev_start = start
    return bytes(out), offsets
