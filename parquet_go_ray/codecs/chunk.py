"""Column-chunk container: encode any pyarrow Array to a self-describing
byte blob and back, bit-identically.

This is the engine's unit of work — the analogue of a Parquet page +
header in the reference (writer.go:1107-1215, page.go:22-85): codec id,
physical type, value count, null count, the original Arrow type (so the
logical type round-trips exactly), a validity bitmap, the codec payload
and a CRC32.

Layout (little-endian):

    magic   "RC" + format_version + "\\0"  4 bytes
    codec   u8   | ptype u8 | flags u8 | flba_width u8
    n       u32  | n_null u32
    type_len u32 | validity_len u32 | payload_len u32
    arrow_type   (serialized single-field schema)
    validity     (np.packbits little-endian of the valid mask; only if n_null>0)
    payload      (codec bytes)
    crc32   u32  (of everything above; the chunk record carries it too)

Null handling follows Parquet semantics (only non-null values are
encoded; the validity bitmap restores positions — the flat-schema
equivalent of definition levels, value.go:39-42 / writer.go:809-822).
"""

from __future__ import annotations

import struct
import zlib

import numpy as np
import pyarrow as pa

from . import bytestreamsplit as bss
from . import alp, delta, dictionary, fsst, plain, rle, xorfloat
from . import registry as R

# byte 2 embeds the wire FORMAT_VERSION so a chunk written at any other
# version is rejected up front (the CRC covers encoded bytes, so a
# mis-versioned decode would otherwise pass the checksum and silently
# misdecode — e.g. the v5->v6 delta-framing change)
MAGIC = b"RC" + bytes([R.FORMAT_VERSION]) + b"\0"
_HDR = struct.Struct("<4sBBBBIIIII")


class ChunkError(ValueError):
    pass


# --------------------------------------------------------------------------
# arrow type -> physical mapping


def physical_type(ty: pa.DataType) -> int:
    if pa.types.is_boolean(ty):
        return R.BOOLEAN
    if (
        pa.types.is_int8(ty)
        or pa.types.is_int16(ty)
        or pa.types.is_int32(ty)
        or pa.types.is_uint8(ty)
        or pa.types.is_uint16(ty)
        or pa.types.is_date32(ty)
        or pa.types.is_time32(ty)
    ):
        return R.INT32
    if (
        pa.types.is_int64(ty)
        or pa.types.is_uint32(ty)
        or pa.types.is_uint64(ty)
        or pa.types.is_timestamp(ty)
        or pa.types.is_date64(ty)
        or pa.types.is_time64(ty)
        or pa.types.is_duration(ty)
    ):
        return R.INT64
    if pa.types.is_float32(ty):
        return R.FLOAT
    if pa.types.is_float64(ty):
        return R.DOUBLE
    if dictionary.is_byte_array(ty):
        return R.BYTE_ARRAY
    if pa.types.is_fixed_size_binary(ty):
        return R.FIXED_LEN_BYTE_ARRAY
    if pa.types.is_decimal(ty):
        return R.FIXED_LEN_BYTE_ARRAY
    if pa.types.is_float16(ty):
        # parquet parity: FLOAT16 is FLBA(2) on the wire (the logical
        # annotation rides the serialized arrow type here); BSS on the
        # two byte planes is the effective lightweight encoding, and
        # _cast_back's equal-bit-width view restores halffloat exactly
        return R.FIXED_LEN_BYTE_ARRAY
    if pa.types.is_list(ty) or pa.types.is_large_list(ty):
        return R.P_LIST
    if pa.types.is_struct(ty) and ty.num_fields > 0:
        return R.P_STRUCT
    if pa.types.is_map(ty):
        return R.P_MAP
    return R.OTHER


def _to_physical_values(values: pa.Array, ptype: int):
    """Null-free array -> numpy values / (data, offsets) / pa.Array."""
    ty = values.type
    if ptype == R.BOOLEAN:
        return values.to_numpy(zero_copy_only=False)
    if ptype == R.INT32:
        if not pa.types.is_int32(ty):
            if ty.bit_width == 32:
                values = values.view(pa.int32())
            else:
                values = values.cast(pa.int32())
        out = values.to_numpy(zero_copy_only=False)
        if out.dtype != np.int32:
            out = out.view(np.int32)
        return out
    if ptype == R.INT64:
        if pa.types.is_uint64(ty):
            return values.to_numpy(zero_copy_only=False).view(np.int64)
        if not pa.types.is_int64(ty):
            if ty.bit_width == 64:
                values = values.view(pa.int64())
            else:
                values = values.cast(pa.int64())
        out = values.to_numpy(zero_copy_only=False)
        if out.dtype != np.int64:
            out = out.view(np.int64)
        return out
    if ptype in (R.FLOAT, R.DOUBLE):
        return values.to_numpy(zero_copy_only=False)
    if ptype == R.BYTE_ARRAY:
        # string/binary layouts are read directly (int32 or int64
        # offsets) — no cast, so the value bytes are never copied
        if not dictionary.is_byte_array(ty):
            values = values.cast(pa.large_binary())
        return dictionary._byte_array_buffers(values)
    if ptype == R.FIXED_LEN_BYTE_ARRAY:
        values = _as_flba(values)
        w = values.type.byte_width
        bufs = values.buffers()
        data = memoryview(bufs[1])[values.offset * w : (values.offset + len(values)) * w]
        return bytes(data), w
    raise ChunkError(f"no physical value extraction for ptype {ptype}")


def _as_flba(values: pa.Array) -> pa.Array:
    """The FIXED_LEN_BYTE_ARRAY view (same buffers) of a fixed-width
    binary, decimal or float16 array."""
    if pa.types.is_fixed_size_binary(values.type):
        return values
    bufs = values.buffers()
    return pa.Array.from_buffers(
        pa.binary(values.type.byte_width),
        len(values),
        [bufs[0], bufs[1]],
        offset=values.offset,
    )


# --------------------------------------------------------------------------
# payload encode/decode per (codec, ptype)


def _encode_payload(
    values: pa.Array, ptype: int, codec: int, ctx: dict | None = None
) -> tuple[bytes, int]:
    """Return (payload, flba_width). `ctx` can carry selector artifacts
    (e.g. a trial-trained FSST table) to avoid redundant work."""
    if R.is_extension(codec):
        if codec not in R.EXTENSION_CODECS:
            raise ChunkError(
                f"extension codec {codec} not registered in this process "
                "(register_codec must run at worker import — see registry.py)"
            )
        return R.EXTENSION_CODECS[codec][0](values), 0
    if codec == R.ARROW_IPC:
        return _ipc_serialize(values), 0
    if ptype == R.BOOLEAN:
        v = _to_physical_values(values, ptype)
        if codec == R.PLAIN:
            return plain.encode_booleans(v), 0
        if codec == R.RLE:
            return rle.encode_booleans(v), 0
    elif ptype in (R.INT32, R.INT64):
        bits = 32 if ptype == R.INT32 else 64
        if codec == R.DICT:
            return dictionary.encode(_as_int_array(values, bits)), 0
        v = _to_physical_values(values, ptype)
        if codec == R.PLAIN:
            return plain.encode_fixed(v), 0
        if codec == R.RLE:
            return rle.encode_ints(v, bits), 0
        if codec == R.DELTA_BINARY_PACKED:
            return delta.encode_binary_packed(v, bits), 0
        if codec == R.BYTE_STREAM_SPLIT:
            return bss.encode(v), 0
    elif ptype in (R.FLOAT, R.DOUBLE):
        if codec == R.DICT:
            return dictionary.encode(values), 0
        v = _to_physical_values(values, ptype)
        if codec == R.PLAIN:
            return plain.encode_fixed(v), 0
        if codec == R.BYTE_STREAM_SPLIT:
            return bss.encode(v), 0
        if codec == R.XOR_FLOAT:
            return xorfloat.encode(np.asarray(v)), 0
        if codec == R.ALP_FLOAT:
            return alp.encode(np.asarray(v)), 0
    elif ptype == R.BYTE_ARRAY:
        if codec == R.DICT_SHARED:
            # indexes only; the dictionary page is written once per file
            # (writer.go:340-347 parity — one dict per column per row
            # group instead of one per page)
            st = ctx["shared_dict"]
            return dictionary.encode_shared(st.insert(values), len(st)), 0
        if codec == R.DICT:
            return dictionary.encode(values), 0
        data, offsets = _to_physical_values(values, ptype)
        if codec == R.PLAIN:
            return plain.encode_byte_array(data, offsets), 0
        if codec == R.DELTA_LENGTH_BYTE_ARRAY:
            return delta.encode_length_byte_array(data, offsets), 0
        if codec == R.DELTA_BYTE_ARRAY:
            return delta.encode_byte_array(data, offsets), 0
        if codec == R.FSST:
            table = (ctx or {}).get("fsst_table")
            return fsst.encode_byte_array(data, offsets, table), 0
    elif ptype == R.FIXED_LEN_BYTE_ARRAY:
        if codec == R.DICT:
            arr = _as_flba(values)
            return dictionary.encode(arr), arr.type.byte_width
        data, w = _to_physical_values(values, ptype)
        if codec == R.PLAIN:
            return data, w
        if codec == R.BYTE_STREAM_SPLIT:
            return bss.encode(np.frombuffer(data, dtype=np.dtype((np.void, w)))), w
    raise ChunkError(
        f"codec {R.CODEC_NAMES.get(codec)} unsupported for {R.PTYPE_NAMES.get(ptype)}"
    )


def _as_int_array(values: pa.Array, bits: int) -> pa.Array:
    target = pa.int32() if bits == 32 else pa.int64()
    if values.type == target:
        return values
    if values.type.bit_width == bits:
        return values.view(target)
    return values.cast(target)


def _ipc_serialize(values: pa.Array) -> bytes:
    batch = pa.record_batch([values], names=["c"])
    sink = pa.BufferOutputStream()
    with pa.ipc.new_stream(sink, batch.schema) as w:
        w.write_batch(batch)
    return sink.getvalue().to_pybytes()


def _ipc_deserialize(buf: bytes) -> pa.Array:
    with pa.ipc.open_stream(pa.py_buffer(buf)) as r:
        table = r.read_all()
    return table.column("c").combine_chunks()


def _decode_payload(
    payload: bytes, ptype: int, codec: int, n: int, flba_width: int,
    shared_dict: pa.Array | None = None,
):
    """Decode to numpy values / (data, offsets) / pa.Array (null-free)."""
    if R.is_extension(codec):
        if codec not in R.EXTENSION_CODECS:
            raise ChunkError(
                f"extension codec {codec} not registered in this process "
                "(register_codec must run at worker import — see registry.py)"
            )
        out = R.EXTENSION_CODECS[codec][1](payload, n)
        if ptype in (R.BOOLEAN, R.INT32, R.INT64, R.FLOAT, R.DOUBLE):
            return np.asarray(out)
        return out if isinstance(out, pa.Array) else pa.array(out)
    if codec == R.ARROW_IPC:
        return _ipc_deserialize(payload)
    if ptype == R.BOOLEAN:
        if codec == R.PLAIN:
            return plain.decode_booleans(payload, n)
        if codec == R.RLE:
            return rle.decode_booleans(payload)
    elif ptype in (R.INT32, R.INT64):
        bits = 32 if ptype == R.INT32 else 64
        dtype = np.int32 if bits == 32 else np.int64
        if codec == R.DICT:
            vals, idx = dictionary.decode(payload, "INT32" if bits == 32 else "INT64", n)
            return vals.to_numpy(zero_copy_only=False)[idx]
        if codec == R.PLAIN:
            return plain.decode_fixed(payload, dtype, n)
        if codec == R.RLE:
            return rle.decode_ints(payload, bits)
        if codec == R.DELTA_BINARY_PACKED:
            return delta.decode_binary_packed(payload, bits)[0]
        if codec == R.BYTE_STREAM_SPLIT:
            return bss.decode(payload, dtype, n)
    elif ptype in (R.FLOAT, R.DOUBLE):
        dtype = np.float32 if ptype == R.FLOAT else np.float64
        if codec == R.DICT:
            vals, idx = dictionary.decode(payload, "FLOAT" if ptype == R.FLOAT else "DOUBLE", n)
            return vals.to_numpy(zero_copy_only=False)[idx]
        if codec == R.PLAIN:
            return plain.decode_fixed(payload, dtype, n)
        if codec == R.BYTE_STREAM_SPLIT:
            return bss.decode(payload, dtype, n)
        if codec == R.XOR_FLOAT:
            return xorfloat.decode(payload, dtype)
        if codec == R.ALP_FLOAT:
            return alp.decode(payload, dtype)
    elif ptype == R.BYTE_ARRAY:
        if codec == R.DICT_SHARED:
            if shared_dict is None:
                raise ChunkError(
                    "dict_shared chunk requires the file's dict page"
                )
            return dictionary.decode_shared(payload, shared_dict)
        if codec == R.DICT:
            vals, idx = dictionary.decode(payload, "BYTE_ARRAY", n)
            return vals.take(pa.array(idx))
        if codec == R.PLAIN:
            return plain.decode_byte_array(payload, n)
        if codec == R.DELTA_LENGTH_BYTE_ARRAY:
            return delta.decode_length_byte_array(payload)
        if codec == R.DELTA_BYTE_ARRAY:
            return delta.decode_byte_array(payload)
        if codec == R.FSST:
            return fsst.decode_byte_array(payload, n)
    elif ptype == R.FIXED_LEN_BYTE_ARRAY:
        if codec == R.DICT:
            vals, idx = dictionary.decode(payload, "FIXED_LEN_BYTE_ARRAY", n, flba_width)
            return vals.take(pa.array(idx))
        if codec == R.PLAIN:
            return payload
        if codec == R.BYTE_STREAM_SPLIT:
            return bss.decode(payload, np.dtype((np.void, flba_width)), n).tobytes()
    raise ChunkError(f"cannot decode codec={codec} ptype={ptype}")


# --------------------------------------------------------------------------
# public API


def encode_array(
    arr,
    codec: int | None = None,
    compression: str | None = None,
    ctx: dict | None = None,
) -> bytes:
    """Encode a pyarrow Array/ChunkedArray into a chunk blob.

    codec=None -> automatic selection (see selector.py).
    compression -> optional general-purpose codec ("zstd"/"snappy"/
    "lz4"/"gzip"/"brotli") applied to the encoded payload, mirroring the
    reference's page-compression layer (writer.go:1130-1135).
    ctx -> optional shared state dict: pass {"fsst_table": SymbolTable}
    to reuse a previously trained table (per-partition actor state);
    after the call it holds the artifacts used, for the caller to cache.
    """
    if isinstance(arr, pa.ChunkedArray):
        arr = arr.combine_chunks()
    # dictionary-typed INPUT: encode the dense values (the engine's own
    # dictionary codec is chosen by the selector, not by the input's
    # arrow representation), but serialize the ORIGINAL logical type so
    # decode hands back a dictionary array — the reference round-trips
    # dictionary columns as dictionary (dictionary.go), not as dense
    orig_type = arr.type
    if pa.types.is_dictionary(arr.type):
        arr = arr.dictionary_decode()
    ptype = physical_type(arr.type)
    n = len(arr)
    n_null = arr.null_count

    # structural: lists encode as offsets chunk + child chunk; structs
    # shred into per-field child chunks (node.go:393-415 /
    # schema.go:216-280 semantics, expressed as Arrow children instead
    # of rep/def levels); maps shred as list-of-struct
    if ptype == R.P_LIST:
        return _encode_list(arr)
    if ptype == R.P_STRUCT:
        return _encode_struct(arr)
    if ptype == R.P_MAP:
        return _encode_map(arr)

    if ctx is None:
        ctx = {}
    if ptype == R.OTHER:
        codec = R.ARROW_IPC
        values = arr  # nulls stay inside the IPC payload
        n_null = 0
        validity = b""
    else:
        if n_null:
            valid_mask = ~np.asarray(arr.is_null())
            validity = np.packbits(valid_mask, bitorder="little").tobytes()
            values = arr.drop_null()
        else:
            validity = b""
            values = arr
        if codec is None:
            from . import selector

            codec = selector.select(values, ptype, ctx, compression)
        shared_ok = (
            codec == R.DICT_SHARED
            and ptype == R.BYTE_ARRAY
            and "shared_dict" in ctx
        )
        if not shared_ok and not R.can_encode(ptype, codec):
            raise ChunkError(
                f"codec {R.CODEC_NAMES.get(codec)} invalid for {R.PTYPE_NAMES.get(ptype)}"
            )

    payload, flba_width = _encode_payload(values, ptype, codec, ctx)
    flags = 1 if n_null else 0
    if compression:
        payload = _compress(payload, compression)
        flags |= 4
    type_bytes = pa.schema([pa.field("c", orig_type)]).serialize().to_pybytes()
    header = _HDR.pack(
        MAGIC,
        codec,
        ptype,
        flags,
        flba_width,
        n,
        n_null,
        len(type_bytes),
        len(validity),
        len(payload),
    )
    return _with_crc(header, type_bytes, validity, payload)


def _with_crc(*parts) -> bytes:
    """A chunk blob: its parts joined with one copy, then the crc32 of
    them all as the trailer (every writer ends here)."""
    crc = 0
    for part in parts:
        crc = zlib.crc32(part, crc)
    return b"".join((*parts, struct.pack("<I", crc)))


def blob_crc32(blob) -> int:
    """The CRC32 a chunk record carries for `blob`: its trailer, the
    crc32 of everything before it. O(1): decode checks the record
    against the trailer here, and ``_parse_chunk`` checks the trailer
    against the body in the one full pass."""
    if len(blob) < 4:
        raise ChunkError(f"buffer too short for a chunk: {len(blob)} bytes")
    return struct.unpack_from("<I", blob, len(blob) - 4)[0]


# Records written before they carried the trailer hold zlib.crc32 of the
# whole blob. For a blob that ends in the CRC of its body that is CRC-32's
# residue, one constant for every blob, so such a record names no blob.
_WHOLE_BLOB_CRC = 0x2144DF1C


def record_crc_matches(blob, crc: int) -> bool:
    """Whether a chunk record's `crc` is the one written for `blob`, in
    O(1). A record from before records carried the trailer matches any
    blob; its blob's body is still checked when the blob is parsed."""
    return len(blob) >= 4 and crc in (blob_crc32(blob), _WHOLE_BLOB_CRC)


def blob_intact(blob, crc: int) -> bool:
    """fsck's check of a stored chunk without decoding it: its record's
    `crc` matches, and its trailer is the crc32 of its body (one full
    pass)."""
    return record_crc_matches(blob, crc) and (
        zlib.crc32(memoryview(blob)[:-4]) == blob_crc32(blob)
    )


def _compress(payload: bytes, compression: str) -> bytes:
    comp_id = R.COMPRESSION_IDS[compression]
    out = pa.Codec(compression).compress(payload, asbytes=True)
    return struct.pack("<BI", comp_id, len(payload)) + out


def _decompress(payload: bytes) -> bytes:
    comp_id, raw_len = struct.unpack_from("<BI", payload, 0)
    name = R.COMPRESSIONS[comp_id]
    return pa.Codec(name).decompress(payload[5:], raw_len, asbytes=True)


def _encode_list(arr: pa.Array) -> bytes:
    # normalize: record validity, then make null slots empty lists so that
    # offsets are monotone and the child holds exactly the kept values
    n = len(arr)
    n_null = arr.null_count
    if n_null:
        valid_mask = ~np.asarray(arr.is_null())
        validity = np.packbits(valid_mask, bitorder="little").tobytes()
    else:
        validity = b""
    offsets = np.asarray(arr.offsets, dtype=np.int64)
    lengths = np.diff(offsets)
    if n_null:
        lengths = np.where(valid_mask, lengths, 0)
    norm_offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(lengths, out=norm_offsets[1:])
    child = arr.flatten()  # null/empty slots contribute no values

    off_chunk = encode_array(pa.array(norm_offsets, type=pa.int64()))
    child_chunk = encode_array(child)
    payload = (
        struct.pack("<I", len(off_chunk)) + off_chunk + child_chunk
    )
    type_bytes = pa.schema([pa.field("c", arr.type)]).serialize().to_pybytes()
    header = _HDR.pack(
        MAGIC, R.LIST, R.P_LIST, 1 if n_null else 0, 0, n, n_null,
        len(type_bytes), len(validity), len(payload),
    )
    return _with_crc(header, type_bytes, validity, payload)


def _encode_struct(arr: pa.Array) -> bytes:
    """Struct shredding: parent validity bitmap + one recursively encoded
    chunk per child field (each child gets its own codec selection — a
    numeric field delta-packs, a string field dictionary/FSST-encodes)."""
    n = len(arr)
    n_null = arr.null_count
    if n_null:
        valid_mask = ~np.asarray(arr.is_null())
        validity = np.packbits(valid_mask, bitorder="little").tobytes()
    else:
        validity = b""
    parts = []
    for i in range(arr.type.num_fields):
        child_chunk = encode_array(arr.field(i))
        parts.append(struct.pack("<I", len(child_chunk)))
        parts.append(child_chunk)
    payload = b"".join(parts)
    type_bytes = pa.schema([pa.field("c", arr.type)]).serialize().to_pybytes()
    header = _HDR.pack(
        MAGIC, R.STRUCT, R.P_STRUCT, 1 if n_null else 0, 0, n, n_null,
        len(type_bytes), len(validity), len(payload),
    )
    return _with_crc(header, type_bytes, validity, payload)


def _decode_struct(payload, ty, n, n_null, validity) -> pa.Array:
    children = []
    pos = 0
    while pos < len(payload):
        (ln,) = struct.unpack_from("<I", payload, pos)
        pos += 4
        children.append(decode_array(payload[pos : pos + ln]))
        pos += ln
    validity_buf = pa.py_buffer(validity) if n_null else None
    return pa.Array.from_buffers(ty, n, [validity_buf], children=children)


def _encode_map(arr: pa.Array) -> bytes:
    """Map shredding: offsets chunk + key/value children as one struct
    chunk (maps are list-of-struct; schema.go:216-280's map path)."""
    n = len(arr)
    n_null = arr.null_count
    if n_null:
        valid_mask = ~np.asarray(arr.is_null())
        validity = np.packbits(valid_mask, bitorder="little").tobytes()
    else:
        validity = b""
    offsets = np.asarray(arr.offsets, dtype=np.int64)
    lengths = np.diff(offsets)
    if n_null:
        lengths = np.where(valid_mask, lengths, 0)
    norm_offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(lengths, out=norm_offsets[1:])
    # keys/items are parent-wide children; slice to this array's extent.
    # (Null slots with nonzero extents would misalign; Arrow map arrays
    # from parquet/ipc always have zero-extent null slots.)
    lo, hi = int(offsets[0]), int(offsets[-1])
    entries = pa.StructArray.from_arrays(
        [arr.keys.slice(lo, hi - lo), arr.items.slice(lo, hi - lo)],
        ["key", "value"],
    )
    off_chunk = encode_array(pa.array(norm_offsets, type=pa.int64()))
    child_chunk = encode_array(entries)
    payload = struct.pack("<I", len(off_chunk)) + off_chunk + child_chunk
    type_bytes = pa.schema([pa.field("c", arr.type)]).serialize().to_pybytes()
    header = _HDR.pack(
        MAGIC, R.MAP, R.P_MAP, 1 if n_null else 0, 0, n, n_null,
        len(type_bytes), len(validity), len(payload),
    )
    return _with_crc(header, type_bytes, validity, payload)


def _decode_map(payload, ty, n, n_null, validity) -> pa.Array:
    (off_len,) = struct.unpack_from("<I", payload, 0)
    offsets = decode_array(payload[4 : 4 + off_len]).to_numpy(zero_copy_only=False)
    entries = decode_array(payload[4 + off_len :])
    # the entries chunk round-trips as a plain struct, whose fields are
    # nullable; the map invariant requires the EXACT declared entry
    # type (non-nullable key field) or Arrow's MapScalar aborts on any
    # per-row access. Rebuild the struct under the declared field
    # metadata (zero-copy: same child arrays).
    want = ty.field(0).type
    if entries.type != want:
        entries = pa.StructArray.from_arrays(
            [entries.field(i) for i in range(want.num_fields)],
            fields=list(want),
        )
    validity_buf = pa.py_buffer(validity) if n_null else None
    return pa.Array.from_buffers(
        ty,
        n,
        [validity_buf, pa.py_buffer(offsets.astype(np.int32).tobytes())],
        children=[entries],
    )


def _parse_chunk(buf: bytes):
    """Header parse + CRC verify shared by decode_array and the
    encoded-domain predicate path (dict_domain_mask). Returns
    (codec, ptype, flba_width, n, n_null, ty, validity, payload) with
    the payload already decompressed."""
    if len(buf) < _HDR.size + 4:
        raise ChunkError(f"buffer too short for a chunk: {len(buf)} bytes")
    (
        magic, codec, ptype, _flags, flba_width, n, n_null,
        type_len, validity_len, payload_len,
    ) = _HDR.unpack_from(buf, 0)
    if magic != MAGIC:
        if magic[:2] == b"RC" and magic[3:4] == b"\0":
            raise ChunkError(
                f"chunk written at format version {magic[2]} "
                f"(0x31='1' means a legacy pre-versioned store); this build "
                f"decodes only version {R.FORMAT_VERSION} — re-encode the store"
            )
        raise ChunkError("bad magic")
    pos = _HDR.size
    body_len = pos + type_len + validity_len + payload_len
    if body_len + 4 != len(buf):
        raise ChunkError(
            f"chunk is {len(buf)} bytes, its header says {body_len + 4}"
        )
    if zlib.crc32(memoryview(buf)[:body_len]) != blob_crc32(buf):
        raise ChunkError("chunk checksum mismatch")
    ty = pa.ipc.read_schema(pa.py_buffer(buf[pos : pos + type_len])).field(0).type
    pos += type_len
    validity = buf[pos : pos + validity_len]
    pos += validity_len
    payload = buf[pos : pos + payload_len]
    if _flags & 4:
        payload = _decompress(payload)
    return codec, ptype, flba_width, n, n_null, ty, validity, payload


def decode_array(buf: bytes, shared_dict: pa.Array | None = None) -> pa.Array:
    """Decode a chunk blob back to a pyarrow Array (bit-identical).
    `shared_dict` resolves dict_shared payloads (the file-level dict
    page decoded by the caller, stages/decode.decode_chunk_table)."""
    codec, ptype, flba_width, n, n_null, ty, validity, payload = (
        _parse_chunk(buf)
    )

    if ptype == R.P_LIST:
        return _decode_list(payload, ty, n, n_null, validity)
    if ptype == R.P_STRUCT:
        return _decode_struct(payload, ty, n, n_null, validity)
    if ptype == R.P_MAP:
        return _decode_map(payload, ty, n, n_null, validity)

    decoded = _decode_payload(
        payload, ptype, codec, n - n_null, flba_width, shared_dict
    )
    return _reassemble(decoded, ty, ptype, n, n_null, validity, flba_width)


def _valid_mask(validity: bytes, n: int) -> np.ndarray:
    return np.unpackbits(
        np.frombuffer(validity, dtype=np.uint8), count=n, bitorder="little"
    ).astype(bool)


def _reassemble(decoded, ty, ptype, n, n_null, validity, flba_width) -> pa.Array:
    if ptype == R.OTHER:
        out = decoded
        if out.type != ty:
            out = out.cast(ty)
        return out
    validity_buf = pa.py_buffer(validity) if n_null else None
    if ptype == R.BOOLEAN:
        full = np.zeros(n, dtype=bool)
        _fill(full, decoded, n_null, validity, n)
        data = pa.py_buffer(np.packbits(full, bitorder="little").tobytes())
        return pa.Array.from_buffers(pa.bool_(), n, [validity_buf, data])
    if ptype in (R.INT32, R.INT64, R.FLOAT, R.DOUBLE):
        dtype = {R.INT32: np.int32, R.INT64: np.int64, R.FLOAT: np.float32, R.DOUBLE: np.float64}[ptype]
        full = np.zeros(n, dtype=dtype)
        _fill(full, np.asarray(decoded, dtype=dtype), n_null, validity, n)
        storage = pa.Array.from_buffers(
            pa.from_numpy_dtype(dtype), n, [validity_buf, pa.py_buffer(full.tobytes())]
        )
        return _cast_back(storage, ty)
    if ptype == R.BYTE_ARRAY:
        if isinstance(decoded, pa.Array):  # DICT path returns a pa array
            data, offsets = dictionary._byte_array_buffers(decoded)
        else:
            data, offsets = decoded  # data: any buffer, handed to Arrow as is
        if n_null:
            mask = _valid_mask(validity, n)
            lengths = np.diff(offsets)
            full_len = np.zeros(n, dtype=np.int64)
            full_len[mask] = lengths
            offsets = np.zeros(n + 1, dtype=np.int64)
            np.cumsum(full_len, out=offsets[1:])
        storage = pa.Array.from_buffers(
            pa.large_binary(), n,
            [validity_buf, pa.py_buffer(np.asarray(offsets, dtype=np.int64)), pa.py_buffer(data)],
        )
        try:
            return _cast_back(storage, ty)  # validates UTF-8 for strings
        except pa.ArrowInvalid as e:
            raise ChunkError(f"decoded values are not valid {ty}: {e}") from e
    if ptype == R.FIXED_LEN_BYTE_ARRAY:
        if isinstance(decoded, pa.Array):  # DICT path returns a pa array
            decoded = _flba_bytes(decoded.combine_chunks() if isinstance(decoded, pa.ChunkedArray) else decoded)
        w = flba_width
        if n_null:
            mask = _valid_mask(validity, n)
            full = np.zeros(n * w, dtype=np.uint8)
            src = np.frombuffer(decoded, dtype=np.uint8)
            idx = np.repeat(np.nonzero(mask)[0] * w, w) + np.tile(np.arange(w), int(mask.sum()))
            full[idx] = src
            decoded = full.tobytes()
        storage = pa.Array.from_buffers(
            pa.binary(w), n, [validity_buf, pa.py_buffer(bytes(decoded))]
        )
        return _cast_back(storage, ty)
    raise ChunkError(f"reassemble: bad ptype {ptype}")


def _flba_bytes(arr: pa.Array) -> bytes:
    w = arr.type.byte_width
    bufs = arr.buffers()
    return bytes(memoryview(bufs[1])[arr.offset * w : (arr.offset + len(arr)) * w])


def _fill(full: np.ndarray, values: np.ndarray, n_null: int, validity: bytes, n: int) -> None:
    if n_null:
        full[_valid_mask(validity, n)] = values
    else:
        full[:] = values


def _cast_back(storage: pa.Array, ty: pa.DataType) -> pa.Array:
    if storage.type == ty:
        return storage
    if pa.types.is_dictionary(ty):
        # dictionary-typed input round-trips as dictionary. Re-indexing
        # is LOGICALLY exact always, and representation-exact when the
        # input dictionary is first-occurrence-ordered with no unused
        # values (what dictionary_encode and dataset reads produce) —
        # same bar as the reference, whose dictionary pages are written
        # in writer-insertion order (dictionary.go), not input order
        enc = _cast_back(storage, ty.value_type).dictionary_encode()
        if enc.type != ty:
            enc = pa.DictionaryArray.from_arrays(
                enc.indices.cast(ty.index_type),
                enc.dictionary.cast(ty.value_type),
                ordered=ty.ordered,
            )
        return enc
    if pa.types.is_decimal(ty):
        return pa.Array.from_buffers(
            ty, len(storage), [storage.buffers()[0], storage.buffers()[1]], offset=storage.offset
        )
    if pa.types.is_uint64(ty):
        return storage.view(pa.uint64())
    try:
        if storage.type.bit_width == ty.bit_width and not pa.types.is_binary(ty) and not pa.types.is_string(ty):
            return storage.view(ty)
    except (ValueError, AttributeError):
        pass
    return storage.cast(ty)


def _decode_list(payload, ty, n, n_null, validity) -> pa.Array:
    (off_len,) = struct.unpack_from("<I", payload, 0)
    off_chunk = payload[4 : 4 + off_len]
    child_chunk = payload[4 + off_len :]
    offsets = decode_array(off_chunk).to_numpy(zero_copy_only=False)
    child = decode_array(child_chunk)
    validity_buf = pa.py_buffer(validity) if n_null else None
    storage = pa.Array.from_buffers(
        pa.large_list(child.type),
        n,
        [validity_buf, pa.py_buffer(offsets.astype(np.int64).tobytes())],
        children=[child],
    )
    if storage.type != ty:
        storage = storage.cast(ty)
    return storage


def dict_domain_mask(
    buf: bytes, wanted, shared_dict: pa.Array | None = None
):
    """Row-level membership mask evaluated in the ENCODED domain.

    For DICT / dict_shared chunks the predicate runs against the
    dictionary (O(dict) value comparisons) and then tests int codes —
    no row value is ever materialized, which is the classic
    late-materialization win for low-cardinality columns (the
    reference's dictionary pages admit the same trick via
    Page.Dictionary, page.go). Nulls are False. Returns None when the
    chunk's codec has no encoded domain to evaluate in — the caller
    decodes and filters normally, so exactness never depends on which
    codec the selector picked."""
    codec, ptype, flba_width, n, n_null, _ty, validity, payload = (
        _parse_chunk(buf)
    )
    if ptype in (R.P_LIST, R.P_STRUCT, R.P_MAP, R.OTHER):
        return None
    if codec == R.DICT:
        nonnull = dictionary.domain_mask(
            payload, R.PTYPE_NAMES[ptype], wanted, flba_width
        )
    elif codec == R.DICT_SHARED:
        if shared_dict is None:
            raise ChunkError("dict_shared chunk requires the file's dict page")
        nonnull = dictionary.domain_mask_shared(payload, shared_dict, wanted)
    else:
        return None
    if n_null:
        full = np.zeros(n, dtype=bool)
        full[_valid_mask(validity, n)] = nonnull
        return full
    return nonnull


def dict_domain_mask_pred(
    buf: bytes, pred, shared_dict: pa.Array | None = None
):
    """dict_domain_mask generalized to an arbitrary vectorized predicate
    over the DICTIONARY values (`pred: pa.Array -> bool mask`, nulls in
    the result treated as False): the predicate runs once over the
    n_distinct dictionary entries — O(dict) pattern evaluations instead
    of O(rows) — then row membership is an integer test on the codes.
    This is how LIKE-style prefix/suffix/substring predicates stay in
    the encoded domain. Returns None when the chunk's codec has no
    dictionary to evaluate in (caller decodes and applies `pred` to the
    rows, so exactness never depends on the selector's codec choice)."""
    import pyarrow.compute as pc

    codec, ptype, flba_width, n, n_null, _ty, validity, payload = (
        _parse_chunk(buf)
    )
    if ptype in (R.P_LIST, R.P_STRUCT, R.P_MAP, R.OTHER):
        return None
    if codec == R.DICT:
        values, indexes = dictionary.decode(
            payload, R.PTYPE_NAMES[ptype], 0, flba_width
        )
    elif codec == R.DICT_SHARED:
        if shared_dict is None:
            raise ChunkError("dict_shared chunk requires the file's dict page")
        values = shared_dict
        indexes = dictionary.shared_indexes(payload)
    else:
        return None
    m = pred(values)
    if isinstance(m, (pa.Array, pa.ChunkedArray)):
        m = pc.fill_null(m, False).to_numpy(zero_copy_only=False)
    codes = np.nonzero(np.asarray(m, dtype=bool))[0]
    nonnull = np.isin(indexes, codes)
    if n_null:
        full = np.zeros(n, dtype=bool)
        full[_valid_mask(validity, n)] = nonnull
        return full
    return nonnull


def null_mask(buf: bytes) -> np.ndarray:
    """Row mask of NULLs parsed from the chunk header's validity bitmap
    ALONE — the encoded payload is never touched. IS NULL predicates
    need no value decode at all: null-count stats classify chunks
    driver-side, and boundary chunks resolve row-level from this
    bitmap."""
    _codec, _ptype, _flba, n, n_null, _ty, validity, _payload = (
        _parse_chunk(buf)
    )
    if not n_null:
        return np.zeros(n, dtype=bool)
    m = np.ones(n, dtype=bool)
    m[_valid_mask(validity, n)] = False
    return m


def dict_domain_counts(buf: bytes, shared_dict: pa.Array | None = None):
    """Per-distinct-value row counts evaluated in the ENCODED domain —
    the GROUP-BY-count sibling of dict_domain_mask: decode the
    dictionary and the int index stream only, then np.bincount the
    codes. Row values are never materialized; only the dictionary
    (n_distinct values) is. Returns (values, counts, n_null) with
    `values` in the chunk's logical type and counts aligned to it, or
    None when the chunk's codec has no encoded domain (the caller
    decodes and value_counts normally, so results never depend on the
    selector's codec choice). Nulls are excluded from counts and
    reported separately (SQL GROUP BY surfaces them as their own
    group)."""
    codec, ptype, flba_width, n, n_null, ty, validity, payload = (
        _parse_chunk(buf)
    )
    if ptype in (R.P_LIST, R.P_STRUCT, R.P_MAP, R.OTHER):
        return None
    if codec == R.DICT:
        values, indexes = dictionary.decode(
            payload, R.PTYPE_NAMES[ptype], 0, flba_width
        )
        values = _reassemble(
            values, ty, ptype, len(values), 0, b"", flba_width
        )
    elif codec == R.DICT_SHARED:
        if shared_dict is None:
            raise ChunkError("dict_shared chunk requires the file's dict page")
        # the dict page stores values in their stored form (e.g.
        # large_binary for strings); surface them in this chunk's
        # logical type so counts from shared and chunk-local dicts concat
        values = _cast_back(shared_dict, ty)
        indexes = dictionary.shared_indexes(payload)
    else:
        return None
    counts = np.bincount(indexes, minlength=len(values)).astype(np.int64)
    return values, counts, n_null


def dict_domain_values(buf: bytes):
    """Distinct non-null values of a DICT chunk from its dictionary
    alone — the index stream is never decoded (codes outnumber the
    dictionary by orders of magnitude on low-cardinality columns).
    Exact because a chunk-local dictionary is built first-seen from the
    chunk's OWN values: every entry occurs at least once. Returns
    (values, n_null), or None for dict_shared chunks (the file-level
    dictionary is a superset of any one chunk — the caller must count
    codes via dict_domain_counts) and for codecs with no encoded
    domain."""
    codec, ptype, flba_width, n, n_null, ty, validity, payload = (
        _parse_chunk(buf)
    )
    if ptype in (R.P_LIST, R.P_STRUCT, R.P_MAP, R.OTHER) or codec != R.DICT:
        return None
    values = dictionary.decode_values(
        payload, R.PTYPE_NAMES[ptype], flba_width
    )
    return _reassemble(values, ty, ptype, len(values), 0, b"", flba_width), n_null
