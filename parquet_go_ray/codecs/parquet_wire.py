"""Wire-level Parquet writer: emits real ``.parquet`` files readable by
pyarrow / DuckDB / the reference itself, with every page payload produced
by THIS repo's own encoders (plain / rle / dictionary / delta /
bytestreamsplit) and the footer serialized by a hand-rolled thrift
compact-protocol writer (no thrift dependency).

This is the byte-level interop proof for the codec layer: the reference
writes parquet files (writer.go:568-692, format structs in format/*.go);
we re-emit the same wire format from the Ray-native engine, so any
parquet reader — including parquet-go — decodes our encodings directly.
Encodings emitted: PLAIN, RLE (booleans + def levels),
RLE_DICTIONARY (+ PLAIN dict pages), DELTA_BINARY_PACKED,
DELTA_LENGTH_BYTE_ARRAY, DELTA_BYTE_ARRAY, BYTE_STREAM_SPLIT — the same
wire formats implemented in encoding/{plain,rle,delta,bytestreamsplit}
of the reference and cross-checked here by pyarrow/DuckDB read-back.

Scope: flat schemas (the web-page table shape and the TPC-H-ish test
tables). Nested columns are the chunk store's job (codecs/chunk.py);
wire export targets interop, where flat columns are the 99% case.
"""

from __future__ import annotations

import struct
import zlib

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from . import bytestreamsplit as bss
from . import delta, plain, rle, selector
from .dictionary import _byte_array_buffers

# ---------------------------------------------------------------------------
# thrift compact protocol (write-only, just what parquet footers need)

_CT_STOP = 0
_CT_TRUE = 1
_CT_FALSE = 2
_CT_I32 = 5
_CT_I64 = 6
_CT_BINARY = 8
_CT_LIST = 9
_CT_STRUCT = 12


def _uvarint(n: int) -> bytes:
    out = bytearray()
    while True:
        b = n & 0x7F
        n >>= 7
        if n:
            out.append(b | 0x80)
        else:
            out.append(b)
            return bytes(out)


def _zigzag(n: int) -> int:
    return (n << 1) ^ (n >> 63) if n < 0 else n << 1


def ts(fields: list[tuple[int, str, object]]) -> bytes:
    """Serialize a thrift struct from (field_id, kind, value) triples.
    kind: i32 | i64 | bin | bool | list | struct. None values are skipped
    (optional fields). list/struct values must be pre-encoded bytes."""
    out = bytearray()
    last = 0
    for fid, kind, val in fields:
        if val is None:
            continue
        if kind == "bool":
            t = _CT_TRUE if val else _CT_FALSE
            payload = b""
        elif kind == "i32" or kind == "i64":
            t = _CT_I32 if kind == "i32" else _CT_I64
            payload = _uvarint(_zigzag(int(val)))
        elif kind == "bin":
            raw = val if isinstance(val, bytes) else str(val).encode()
            t = _CT_BINARY
            payload = _uvarint(len(raw)) + raw
        elif kind == "list":
            t = _CT_LIST
            payload = val
        elif kind == "struct":
            t = _CT_STRUCT
            payload = val
        else:  # pragma: no cover
            raise ValueError(kind)
        delta_id = fid - last
        if 0 < delta_id <= 15:
            out.append((delta_id << 4) | t)
        else:
            out.append(t)
            out += _uvarint(_zigzag(fid))
        out += payload
        last = fid
    out.append(_CT_STOP)
    return bytes(out)


def tlist(elem_kind: str, items: list) -> bytes:
    """Serialize a thrift list. elem_kind: i32 | i64 | bin | bool | struct."""
    t = {
        "i32": _CT_I32,
        "i64": _CT_I64,
        "bin": _CT_BINARY,
        "bool": _CT_TRUE,
        "struct": _CT_STRUCT,
    }[elem_kind]
    n = len(items)
    out = bytearray()
    if n < 15:
        out.append((n << 4) | t)
    else:
        out.append(0xF0 | t)
        out += _uvarint(n)
    for it in items:
        if elem_kind in ("i32", "i64"):
            out += _uvarint(_zigzag(int(it)))
        elif elem_kind == "bin":
            raw = it if isinstance(it, bytes) else str(it).encode()
            out += _uvarint(len(raw)) + raw
        elif elem_kind == "bool":
            out.append(_CT_TRUE if it else _CT_FALSE)
        else:
            out += it
    return bytes(out)


# ---------------------------------------------------------------------------
# parquet format enums (format/parquet.thrift)

T_BOOLEAN, T_INT32, T_INT64, T_INT96, T_FLOAT, T_DOUBLE, T_BYTE_ARRAY, T_FLBA = range(8)

E_PLAIN = 0
E_RLE = 3
E_DELTA_BINARY_PACKED = 5
E_DELTA_LENGTH_BYTE_ARRAY = 6
E_DELTA_BYTE_ARRAY = 7
E_RLE_DICTIONARY = 8
E_BYTE_STREAM_SPLIT = 9

_COMPRESSION_IDS = {
    None: 0,
    "none": 0,
    "snappy": 1,
    "gzip": 2,
    "brotli": 4,
    "lz4": 7,  # LZ4_RAW (the non-deprecated block format)
    "zstd": 6,
}

_PAGE_DATA = 0
_PAGE_DICT = 2

_REQUIRED, _OPTIONAL = 0, 1

ENCODING_NAMES = {
    E_PLAIN: "plain",
    E_RLE: "rle",
    E_DELTA_BINARY_PACKED: "delta_binary_packed",
    E_DELTA_LENGTH_BYTE_ARRAY: "delta_length_byte_array",
    E_DELTA_BYTE_ARRAY: "delta_byte_array",
    E_RLE_DICTIONARY: "rle_dictionary",
    E_BYTE_STREAM_SPLIT: "byte_stream_split",
}
_ENCODING_IDS = {v: k for k, v in ENCODING_NAMES.items()}


def supports_schema(schema: pa.Schema) -> bool:
    """True when every column is a shape the wire writer emits: flat
    primitives, lists, structs, maps, and their nestings."""
    try:
        for field in schema:
            ty = field.type
            if pa.types.is_dictionary(ty) and (
                pa.types.is_string(ty.value_type)
                or pa.types.is_large_string(ty.value_type)
            ):
                continue  # decoded + ENUM-annotated at write time
            _build_wnode(field.name, ty, field.nullable)
        return True
    except (ValueError, KeyError):
        return False


class _Logical:
    """LogicalType union field builders (union = struct with one field)."""

    @staticmethod
    def string() -> bytes:
        return ts([(1, "struct", ts([]))])

    @staticmethod
    def date() -> bytes:
        return ts([(6, "struct", ts([]))])

    @staticmethod
    def timestamp(unit_field: int, utc: bool) -> bytes:
        unit = ts([(unit_field, "struct", ts([]))])
        return ts([(8, "struct", ts([(1, "bool", utc), (2, "struct", unit)]))])

    @staticmethod
    def null() -> bytes:
        return ts([(11, "struct", ts([]))])

    @staticmethod
    def time(unit_field: int, utc: bool) -> bytes:
        unit = ts([(unit_field, "struct", ts([]))])
        return ts([(7, "struct", ts([(1, "bool", utc), (2, "struct", unit)]))])

    @staticmethod
    def list_() -> bytes:
        return ts([(3, "struct", ts([]))])

    @staticmethod
    def enum() -> bytes:
        return ts([(4, "struct", ts([]))])

    @staticmethod
    def json() -> bytes:
        return ts([(12, "struct", ts([]))])

    @staticmethod
    def bson() -> bytes:
        return ts([(13, "struct", ts([]))])

    @staticmethod
    def decimal(scale: int, precision: int) -> bytes:
        return ts(
            [(5, "struct", ts([(1, "i32", scale), (2, "i32", precision)]))]
        )

    @staticmethod
    def integer(bits: int, signed: bool) -> bytes:
        # bitWidth is thrift byte (i8): compact writes it as a plain byte
        inner = bytearray()
        inner.append(0x13)  # field 1, type BYTE
        inner.append(bits & 0xFF)
        inner.append(0x11 if signed else 0x12)  # field 2 (delta 1), bool
        inner.append(_CT_STOP)
        return ts([(10, "struct", bytes(inner))])


# field-metadata key carrying an explicit logical annotation; the
# reader writes the same key back, so annotated files round-trip
# through our read->write path (type.go:1494,1570,1664 — ENUM/JSON/BSON
# logical kinds the Go reference models as string/byte-array nodes)
ANNOTATION_META_KEY = b"parquet.logical_type"


class _ColType:
    """Physical + logical typing for one Arrow column."""

    def __init__(self, ty: pa.DataType, annotation: str | None = None):
        self.arrow = ty
        self.type_length = None
        self.converted = None
        self.logical = None
        self.scale = self.precision = None
        if pa.types.is_null(ty):
            # LogicalType NULL over INT32 (pyarrow's own mapping): every
            # value is null, so pages carry def levels and zero values
            self.physical = T_INT32
            self.logical = _Logical.null()
        elif pa.types.is_boolean(ty):
            self.physical = T_BOOLEAN
        elif pa.types.is_integer(ty) and ty.bit_width <= 32:
            self.physical = T_INT32
            if ty.bit_width < 32 or not pa.types.is_signed_integer(ty):
                signed = pa.types.is_signed_integer(ty)
                self.converted = {
                    (8, True): 15, (16, True): 16, (32, True): 17,
                    (8, False): 11, (16, False): 12, (32, False): 13,
                }[(ty.bit_width, signed)]
                self.logical = _Logical.integer(ty.bit_width, signed)
        elif pa.types.is_int64(ty):
            self.physical = T_INT64
        elif pa.types.is_uint64(ty):
            self.physical = T_INT64
            self.converted = 14
            self.logical = _Logical.integer(64, False)
        elif pa.types.is_date32(ty) or pa.types.is_date64(ty):
            # DATE is days-since-epoch in parquet; date64 ms cast at encode
            self.physical = T_INT32
            self.converted = 6
            self.logical = _Logical.date()
        elif pa.types.is_time32(ty) or pa.types.is_time64(ty):
            # TIME logical type (time.go parity); parquet units are
            # MILLIS/MICROS/NANOS — time32('s') must be cast by the caller
            unit = {"ms": 1, "us": 2, "ns": 3}.get(ty.unit)
            if unit is None:
                raise ValueError(f"unsupported time unit {ty.unit}")
            self.physical = T_INT32 if pa.types.is_time32(ty) else T_INT64
            self.logical = _Logical.time(unit, False)
            if ty.unit == "ms":
                self.converted = 7
            elif ty.unit == "us":
                self.converted = 8
        elif pa.types.is_timestamp(ty):
            self.physical = T_INT64
            unit = {"ms": 1, "us": 2, "ns": 3}.get(ty.unit)
            if unit is None:
                raise ValueError(f"unsupported timestamp unit {ty.unit}")
            utc = ty.tz is not None
            self.logical = _Logical.timestamp(unit, utc)
            if utc and ty.unit in ("ms", "us"):
                self.converted = 9 if ty.unit == "ms" else 10
        elif pa.types.is_float32(ty):
            self.physical = T_FLOAT
        elif pa.types.is_float64(ty):
            self.physical = T_DOUBLE
        elif pa.types.is_string(ty) or pa.types.is_large_string(ty):
            self.physical = T_BYTE_ARRAY
            self.converted = 0
            self.logical = _Logical.string()
        elif pa.types.is_binary(ty) or pa.types.is_large_binary(ty):
            self.physical = T_BYTE_ARRAY
        elif pa.types.is_fixed_size_binary(ty):
            self.physical = T_FLBA
            self.type_length = ty.byte_width
        elif pa.types.is_decimal128(ty):
            self.physical = T_FLBA
            self.type_length = 16
            self.converted = 5
            self.scale, self.precision = ty.scale, ty.precision
            self.logical = _Logical.decimal(ty.scale, ty.precision)
        else:
            raise ValueError(
                f"wire export supports flat primitive columns only, got {ty}"
            )
        if annotation:
            # explicit ENUM/JSON/BSON tag (ConvertedType 4/19/20 +
            # LogicalType union fields 4/12/13); all three annotate the
            # BYTE_ARRAY physical type only
            if self.physical != T_BYTE_ARRAY:
                raise ValueError(
                    f"{annotation} annotation requires a string/binary "
                    f"column, got {ty}"
                )
            if annotation == "ENUM":
                self.converted, self.logical = 4, _Logical.enum()
            elif annotation == "JSON":
                self.converted, self.logical = 19, _Logical.json()
            elif annotation == "BSON":
                self.converted, self.logical = 20, _Logical.bson()
            else:
                raise ValueError(f"unknown logical annotation {annotation}")

    def schema_element(self, name: str, optional: bool) -> bytes:
        return ts(
            [
                (1, "i32", self.physical),
                (2, "i32", self.type_length),
                (3, "i32", _OPTIONAL if optional else _REQUIRED),
                (4, "bin", name),
                (6, "i32", self.converted),
                (7, "i32", self.scale),
                (8, "i32", self.precision),
                (10, "struct", self.logical),
            ]
        )


# ---------------------------------------------------------------------------
# value encoders (null-free arrays -> raw parquet encoding bytes)


def _fixed_np(arr: pa.Array, ct: _ColType) -> np.ndarray:
    ty = arr.type
    if pa.types.is_null(ty):
        return np.zeros(0, dtype=np.int32)  # null type has no values
    if pa.types.is_timestamp(ty):
        return arr.view(pa.int64()).to_numpy()
    if pa.types.is_date32(ty):
        return arr.view(pa.int32()).to_numpy()
    if pa.types.is_date64(ty):
        # ms -> days (parquet DATE)
        return (arr.view(pa.int64()).to_numpy() // 86400000).astype(np.int32)
    if pa.types.is_time32(ty):
        return arr.view(pa.int32()).to_numpy()
    if pa.types.is_time64(ty):
        return arr.view(pa.int64()).to_numpy()
    if ct.physical == T_INT32 and ty.bit_width < 32:
        return pc.cast(arr, pa.int32()).to_numpy()
    if pa.types.is_uint32(ty):
        return arr.to_numpy().view(np.int32)
    if pa.types.is_uint64(ty):
        return arr.to_numpy().view(np.int64)
    return arr.to_numpy()


def _flba_bytes(arr: pa.Array, ct: _ColType) -> bytes:
    w = ct.type_length
    buf = arr.buffers()[1]
    raw = np.frombuffer(buf, dtype=np.uint8, count=len(arr) * w, offset=arr.offset * w)
    if pa.types.is_decimal128(arr.type):
        # arrow stores decimal128 little-endian; parquet FLBA decimals are
        # big-endian two's complement
        raw = raw.reshape(len(arr), w)[:, ::-1].reshape(-1)
    return raw.tobytes()


def _encode_values(arr: pa.Array, enc: int, ct: _ColType) -> bytes:
    """arr has no nulls. Returns the raw data-page value bytes."""
    p = ct.physical
    if enc == E_PLAIN:
        if p == T_BOOLEAN:
            return plain.encode_booleans(arr.to_numpy(zero_copy_only=False))
        if p == T_BYTE_ARRAY:
            data, offsets = _byte_array_buffers(arr)
            return plain.encode_byte_array(data, offsets)
        if p == T_FLBA:
            return _flba_bytes(arr, ct)
        return plain.encode_fixed(_fixed_np(arr, ct))
    if enc == E_RLE:  # boolean values: 4-byte LE length + hybrid stream
        body = rle.encode(
            arr.to_numpy(zero_copy_only=False).astype(np.uint64), 1
        )
        return struct.pack("<I", len(body)) + body
    if enc == E_DELTA_BINARY_PACKED:
        v = _fixed_np(arr, ct)
        return delta.encode_binary_packed(v, 32 if p == T_INT32 else 64)
    if enc == E_DELTA_LENGTH_BYTE_ARRAY:
        data, offsets = _byte_array_buffers(arr)
        return delta.encode_length_byte_array(data, offsets)
    if enc == E_DELTA_BYTE_ARRAY:
        data, offsets = _byte_array_buffers(arr)
        return delta.encode_byte_array(data, offsets)
    if enc == E_BYTE_STREAM_SPLIT:
        return bss.encode(_fixed_np(arr, ct))
    raise ValueError(f"cannot encode physical type {p} as {ENCODING_NAMES[enc]}")


def _def_levels(validity: np.ndarray) -> bytes:
    body = rle.encode(validity.astype(np.uint64), 1)
    return struct.pack("<I", len(body)) + body


def _candidates(ct: _ColType) -> list[int]:
    p = ct.physical
    if p == T_BOOLEAN:
        return [E_PLAIN, E_RLE]
    if p in (T_INT32, T_INT64):
        return [E_PLAIN, E_DELTA_BINARY_PACKED]
    if p == T_BYTE_ARRAY:
        return [E_PLAIN, E_DELTA_LENGTH_BYTE_ARRAY, E_DELTA_BYTE_ARRAY]
    return [E_PLAIN]


def _dictionary(arr: pa.Array) -> tuple[pa.Array, pa.Array]:
    """(dictionary, indices); a null value gets a null index."""
    denc = pc.dictionary_encode(arr)
    if isinstance(denc, pa.ChunkedArray):
        denc = denc.combine_chunks()
    return denc.dictionary, denc.indices


def _index_width(n_dict: int) -> int:
    return max(1, (n_dict - 1).bit_length())


def _index_values(idx: np.ndarray, width: int) -> bytes:
    """RLE_DICTIONARY page values: bit-width byte + hybrid index stream."""
    return bytes([width]) + rle.encode(idx.astype(np.uint64, copy=False), width)


def _select_encoding(arr: pa.Array, ct: _ColType) -> int:
    """Pick this column chunk's parquet encoding with the codec selector
    (`selector.sample` + `selector.smallest`), trial-encoding the sample
    with the wire's own page encoders and judging raw sizes. The
    RLE_DICTIONARY trial scores the sample's dict page plus its index
    values. FSST has no parquet code, so text gets the best spec
    encoding."""
    nn = arr.drop_null() if arr.null_count else arr
    if len(nn) == 0:
        return E_PLAIN
    cands = _candidates(ct) + ([E_RLE_DICTIONARY] if ct.physical != T_BOOLEAN else [])

    def size(sample: pa.Array, enc: int) -> int:
        if enc != E_RLE_DICTIONARY:
            return len(_encode_values(sample, enc, ct))
        vals, idx = _dictionary(sample)
        return len(_encode_values(vals, E_PLAIN, ct)) + len(
            _index_values(idx.to_numpy(), _index_width(len(vals)))
        )

    return selector.smallest(selector.sample(nn), cands, size)


def _column_encoding(
    arr: pa.Array, ct: _ColType, encoding: str | None
) -> tuple[int, pa.Array | None, pa.Array | None]:
    """(encoding, dict_values, dict_indices) of one column chunk: the
    forced `encoding`, else the selector's pick. The whole array is
    dictionary-encoded only for RLE_DICTIONARY."""
    enc = _select_encoding(arr, ct) if encoding is None else _ENCODING_IDS[encoding]
    if enc != E_RLE_DICTIONARY:
        return enc, None, None
    return (enc, *_dictionary(arr))


# ---------------------------------------------------------------------------
# file writer


def _compress_page(raw: bytes, compression: str | None) -> bytes:
    if not compression or compression == "none":
        return raw
    if compression == "lz4":
        # parquet's LZ4_RAW is the lz4 BLOCK format (codec id 7);
        # pa.Codec("lz4") is the frame format and not wire-compatible
        return pa.Codec("lz4_raw").compress(raw, asbytes=True)
    return pa.Codec(compression).compress(raw, asbytes=True)


def _page_header(
    kind: int,
    raw_len: int,
    comp_len: int,
    crc: int,
    num_values: int,
    enc: int,
) -> bytes:
    if kind == _PAGE_DICT:
        inner = ts([(1, "i32", num_values), (2, "i32", enc)])
        fields = [
            (1, "i32", kind),
            (2, "i32", raw_len),
            (3, "i32", comp_len),
            (4, "i32", crc),
            (7, "struct", inner),
        ]
    else:
        inner = ts(
            [
                (1, "i32", num_values),
                (2, "i32", enc),
                (3, "i32", E_RLE),
                (4, "i32", E_RLE),
            ]
        )
        fields = [
            (1, "i32", kind),
            (2, "i32", raw_len),
            (3, "i32", comp_len),
            (4, "i32", crc),
            (5, "struct", inner),
        ]
    return ts(fields)


def _crc32_signed(data: bytes) -> int:
    v = zlib.crc32(data) & 0xFFFFFFFF
    return v - (1 << 32) if v >= (1 << 31) else v


_STAT_TRUNC = 64


def _utf8_safe_prefix(raw: bytes) -> bytes:
    """Longest valid-UTF-8 prefix of a byte-truncated string. Values come
    from Arrow string columns (always valid UTF-8), so only the final
    codepoint can be cut — back off at most 3 continuation bytes."""
    for back in range(4):
        cut = raw[: len(raw) - back]
        try:
            cut.decode()
            return cut
        except UnicodeDecodeError:
            continue
    return b""


def _utf8_increment(prefix: bytes) -> bytes | None:
    """Smallest-effort valid-UTF-8 upper bound strictly above every
    string starting with `prefix` (parquet-mr BinaryTruncator semantics):
    replace the last codepoint c with c+1 (skipping the surrogate gap —
    UTF-8 byte order preserves codepoint order, so the result still
    bounds in byte order); drop trailing U+10FFFF codepoints first.
    None when every codepoint is U+10FFFF (no finite bound)."""
    cps = list(prefix.decode())
    while cps:
        c = ord(cps[-1])
        if c >= 0x10FFFF:
            cps.pop()
            continue
        c += 1
        if 0xD800 <= c <= 0xDFFF:
            c = 0xE000
        cps[-1] = chr(c)
        return "".join(cps).encode()
    return None


def _stat_value(
    scalar: pa.Scalar, ct: _ColType, is_max: bool = False
) -> bytes | None:
    """One bound as parquet's plain single-value encoding, or None when
    the type's wire stats are skipped (FLBA/decimal/unsigned orderings).
    Long byte-array bounds are TRUNCATED conservatively, the same way
    pyarrow's writer does: a min keeps its 64-byte prefix (a valid
    lower bound); a max keeps the prefix with its last non-0xFF byte
    incremented (a valid upper bound), or is dropped when the prefix
    is all 0xFF. String (UTF8) bounds cut at codepoint boundaries and
    increment the last codepoint, so a truncated bound is always valid
    UTF-8 (a byte-level cut mid-codepoint crashes pyarrow's stats
    decode on read)."""
    p = ct.physical
    if scalar.as_py() is None:
        return None
    if ct.converted in (11, 12, 13, 14):  # unsigned orderings: skip
        return None
    if p == T_BOOLEAN:
        return b"\x01" if scalar.as_py() else b"\x00"
    if p == T_INT32:
        return struct.pack("<i", scalar.cast(pa.int32()).as_py())
    if p == T_INT64:
        return struct.pack("<q", scalar.cast(pa.int64()).as_py())
    if p == T_FLOAT:
        return struct.pack("<f", scalar.as_py())
    if p == T_DOUBLE:
        return struct.pack("<d", scalar.as_py())
    if p == T_BYTE_ARRAY:
        v = scalar.as_py()
        is_str = isinstance(v, str)
        raw = v.encode() if is_str else v
        if len(raw) <= _STAT_TRUNC:
            return raw
        if is_str:
            pref = _utf8_safe_prefix(raw[:_STAT_TRUNC])
            return pref if not is_max else _utf8_increment(pref)
        if not is_max:
            return raw[:_STAT_TRUNC]
        pref = bytearray(raw[:_STAT_TRUNC])
        for i in range(len(pref) - 1, -1, -1):
            if pref[i] != 0xFF:
                pref[i] += 1
                return bytes(pref[: i + 1])
        return None
    return None


def _sliced_binary_bounds(nn: pa.Array) -> tuple[bytes, bytes] | None:
    """Truncated (lo, hi) bounds for a byte-array column WITHOUT scanning
    full values: min/max over 65-byte prefixes (pc.binary_slice touches
    only offsets + ≤65 B/value, so MB-sized html pages still get usable
    bounds). min-of-prefixes ≤ every value, so its 64-byte cut is a valid
    lower bound; for the upper bound, any value whose 65-byte prefix is
    ≤ the prefix-max is < increment(prefix-max[:64]) — the same
    last-non-0xFF-byte increment pyarrow's writer uses. None only when
    the 64-byte prefix is all 0xFF (no finite upper bound)."""
    ty = nn.type
    is_str = pa.types.is_string(ty) or pa.types.is_large_string(ty)
    if pa.types.is_string(ty):
        nn = nn.cast(pa.binary())
    elif pa.types.is_large_string(ty):
        nn = nn.cast(pa.large_binary())
    mm = pc.min_max(pc.binary_slice(nn, 0, _STAT_TRUNC + 1))
    lo = mm["min"].as_py()[:_STAT_TRUNC]
    hi = mm["max"].as_py()
    if is_str:
        lo = _utf8_safe_prefix(lo)
    if len(hi) > _STAT_TRUNC:
        if is_str:
            hi = _utf8_increment(_utf8_safe_prefix(hi[:_STAT_TRUNC]))
            return None if hi is None else (lo, hi)
        pref = bytearray(hi[:_STAT_TRUNC])
        for i in range(len(pref) - 1, -1, -1):
            if pref[i] != 0xFF:
                pref[i] += 1
                return lo, bytes(pref[: i + 1])
        return None
    return lo, hi


def _stats_blob(nn: pa.Array, ct: _ColType, null_count: int) -> bytes:
    """ColumnMetaData.statistics: null_count always; min_value/max_value
    when the type supports wire-order bounds — exact for fixed-width
    types, conservatively truncated for long byte arrays (the chunk
    store's lineage stats handle truncation semantics separately).
    `nn` must be null-free (the chunk's stored values)."""
    fields: list = [(3, "i64", null_count)]
    if len(nn) and ct.physical != T_FLBA and ct.converted not in (11, 12, 13, 14):
        try:
            if (
                ct.physical == T_BYTE_ARRAY
                and nn.nbytes // max(1, len(nn)) > _STAT_TRUNC
            ):
                # long values (html/text): prefix-sliced scan, never a
                # full-payload comparison pass
                b = _sliced_binary_bounds(nn)
                if b is not None:
                    fields += [(5, "bin", b[1]), (6, "bin", b[0])]
            else:
                mm = pc.min_max(nn)
                lo = _stat_value(mm["min"], ct)
                hi = _stat_value(mm["max"], ct, is_max=True)
                if lo is not None and hi is not None:
                    fields += [(5, "bin", hi), (6, "bin", lo)]
        except Exception:
            pass
    return ts(fields)


class _ColumnChunkResult:
    __slots__ = (
        "pages",
        "encodings",
        "value_encoding",
        "data_page_offset",
        "dict_page_offset",
        "total_raw",
        "total_comp",
        "num_values",
        "stats",
        "page_locations",  # (file offset, header+body size, first_row_index)
        "page_stats",  # per data page: dict or None (no ColumnIndex then)
        "bloom",  # SplitBlockFilter or None
    )

    def __init__(self):
        self.stats = None
        self.page_locations = []
        self.page_stats = []
        self.bloom = None


def _page_bounds(nn: pa.Array, ct: _ColType):
    """Per-page ColumnIndex bounds: {lo, hi (plain bytes), lo_py, hi_py}
    or None when the type rules skip stats (same rules as the
    chunk-level statistics blob). Long byte arrays (html/text) get
    truncated bounds from the prefix-sliced scan so their pages stay
    prunable; boundary-order comparison then uses the WRITTEN bound
    bytes, which for BYTE_ARRAY order the same as the values."""
    if not len(nn) or ct.physical == T_FLBA or ct.converted in (11, 12, 13, 14):
        return None
    try:
        if ct.physical == T_BYTE_ARRAY and nn.nbytes // max(1, len(nn)) > _STAT_TRUNC:
            b = _sliced_binary_bounds(nn)
            if b is None:
                return None
            return {"lo": b[0], "hi": b[1], "lo_py": b[0], "hi_py": b[1]}
        mm = pc.min_max(nn)
        lo = _stat_value(mm["min"], ct)
        hi = _stat_value(mm["max"], ct, is_max=True)
        if lo is None or hi is None:
            return None
        lo_py, hi_py = mm["min"].as_py(), mm["max"].as_py()
        if ct.physical == T_BYTE_ARRAY:
            # bytes, not str: pages of one chunk may mix the sliced and
            # exact paths — boundary order must compare one type
            lo_py, hi_py = lo, hi
        return {"lo": lo, "hi": hi, "lo_py": lo_py, "hi_py": hi_py}
    except Exception:
        return None


def _column_index_blob(res: _ColumnChunkResult) -> bytes | None:
    """ColumnIndex thrift for one chunk (column_index.go:259-272 role):
    per-page null_pages/min/max/null_counts + boundary_order. None when
    any non-null page lacks bounds (indexes are optional per chunk)."""
    if not res.page_stats or any(
        ps is None for ps in res.page_stats
    ):
        return None
    null_pages, mins, maxs, null_counts = [], [], [], []
    seq = []
    for ps in res.page_stats:
        if ps["null_page"]:
            null_pages.append(True)
            mins.append(b"")
            maxs.append(b"")
        else:
            null_pages.append(False)
            mins.append(ps["lo"])
            maxs.append(ps["hi"])
            seq.append((ps["lo_py"], ps["hi_py"]))
        null_counts.append(ps["null_count"])
    boundary = 0  # UNORDERED
    try:
        if all(
            a[0] <= b[0] and a[1] <= b[1] for a, b in zip(seq, seq[1:])
        ):
            boundary = 1  # ASCENDING
        elif all(
            a[0] >= b[0] and a[1] >= b[1] for a, b in zip(seq, seq[1:])
        ):
            boundary = 2  # DESCENDING
    except TypeError:
        pass
    return ts(
        [
            (1, "list", tlist("bool", null_pages)),
            (2, "list", tlist("bin", mins)),
            (3, "list", tlist("bin", maxs)),
            (4, "i32", boundary),
            (5, "list", tlist("i64", null_counts)),
        ]
    )


def _offset_index_blob(res: _ColumnChunkResult) -> bytes:
    locs = [
        ts([(1, "i64", off), (2, "i32", size), (3, "i64", first_row)])
        for off, size, first_row in res.page_locations
    ]
    return ts([(1, "list", tlist("struct", locs))])


def _write_column_chunk(
    out,
    arr: pa.Array,
    ct: _ColType,
    optional: bool,
    compression: str | None,
    encoding: str | None,
    page_rows: int,
    page_version: int = 1,
    want_bloom: bool = False,
) -> _ColumnChunkResult:
    res = _ColumnChunkResult()
    res.num_values = len(arr)
    res.total_raw = res.total_comp = 0
    res.dict_page_offset = None
    res.pages = 0

    enc, dict_vals, dict_idx = _column_encoding(arr, ct, encoding)
    nn_all = arr.drop_null() if arr.null_count else arr
    res.stats = _stats_blob(nn_all, ct, arr.null_count)
    if want_bloom:
        from . import sbbf

        res.bloom = sbbf.build_for_values(nn_all, ct.physical)

    def emit(kind: int, raw: bytes, num_values: int, page_enc: int) -> int:
        offset = out.tell()
        comp = _compress_page(raw, compression)
        header = _page_header(
            kind, len(raw), len(comp), _crc32_signed(comp), num_values, page_enc
        )
        out.write(header)
        out.write(comp)
        res.total_raw += len(header) + len(raw)
        res.total_comp += len(header) + len(comp)
        res.pages += 1
        return offset, len(header) + len(comp)

    def emit_v2(
        levels: bytes, values_raw: bytes, num_values: int, num_nulls: int,
        num_rows: int, page_enc: int,
    ) -> tuple[int, int]:
        # DataPage V2 (writer.go:365-370's modern layout): rep/def level
        # streams stay uncompressed ahead of the (compressed) values
        offset = out.tell()
        comp_vals = _compress_page(values_raw, compression)
        body = levels + comp_vals
        inner = ts(
            [
                (1, "i32", num_values),
                (2, "i32", num_nulls),
                (3, "i32", num_rows),
                (4, "i32", page_enc),
                (5, "i32", len(levels)),  # definition_levels_byte_length
                (6, "i32", 0),  # repetition_levels_byte_length (flat)
                (7, "bool", bool(compression)),
            ]
        )
        header = ts(
            [
                (1, "i32", 3),  # DATA_PAGE_V2
                (2, "i32", len(levels) + len(values_raw)),
                (3, "i32", len(body)),
                (4, "i32", _crc32_signed(body)),
                (8, "struct", inner),
            ]
        )
        out.write(header)
        out.write(body)
        res.total_raw += len(header) + len(levels) + len(values_raw)
        res.total_comp += len(header) + len(body)
        res.pages += 1
        return offset, len(header) + len(body)

    if enc == E_RLE_DICTIONARY:
        dict_raw = _encode_values(dict_vals, E_PLAIN, ct)
        res.dict_page_offset, _ = emit(
            _PAGE_DICT, dict_raw, len(dict_vals), E_PLAIN
        )
        source = dict_idx  # pages slice the index stream
        width = _index_width(len(dict_vals))
    else:
        source = arr

    res.data_page_offset = None
    n = len(arr)
    for start in range(0, max(n, 1), page_rows):
        page = source.slice(start, page_rows) if n else source
        n_page = len(page)
        validity = np.ones(n_page, dtype=bool)
        if page.null_count:
            validity = ~np.asarray(pc.is_null(page))
        values = page.drop_null() if page.null_count else page
        if enc == E_RLE_DICTIONARY:
            value_bytes = _index_values(values.to_numpy(zero_copy_only=False), width)
        else:
            value_bytes = _encode_values(values, enc, ct)
        if page_version == 2:
            levels = b""
            if optional:
                levels = rle.encode(validity.astype(np.uint64), 1)
            off, size = emit_v2(
                levels, value_bytes, n_page, n_page - len(values), n_page, enc
            )
        else:
            parts = []
            if optional:
                parts.append(_def_levels(validity))
            parts.append(value_bytes)
            off, size = emit(_PAGE_DATA, b"".join(parts), n_page, enc)
        if res.data_page_offset is None:
            res.data_page_offset = off
        res.page_locations.append((off, size, start if n else 0))
        # per-page ColumnIndex stats come from the ORIGINAL values (the
        # dict path's `page` holds indexes)
        orig = arr.slice(start, page_rows) if n else arr
        orig_nn = orig.drop_null() if orig.null_count else orig
        if len(orig_nn) == 0:
            res.page_stats.append(
                {"null_page": True, "null_count": len(orig), "lo": b"", "hi": b"",
                 "lo_py": None, "hi_py": None}
            )
        else:
            b = _page_bounds(orig_nn, ct)
            res.page_stats.append(
                None
                if b is None
                else {"null_page": False, "null_count": orig.null_count, **b}
            )
        if n == 0:
            break

    encodings = [enc]
    if enc == E_RLE_DICTIONARY:
        encodings = [E_PLAIN, E_RLE_DICTIONARY]
    if optional:
        encodings.append(E_RLE)
    res.encodings = sorted(set(encodings))
    res.value_encoding = enc
    return res


# ---------------------------------------------------------------------------
# general Dremel shredding (struct / map / nested list columns)


class _WNode:
    """Schema node for general nested emission."""

    __slots__ = ("kind", "name", "optional", "ct", "children", "arrow")

    def __init__(self, kind, name, optional, ct=None, children=None, arrow=None):
        self.kind = kind  # leaf | struct | list | map
        self.name = name
        self.optional = optional
        self.ct = ct
        self.children = children or []
        self.arrow = arrow


def _build_wnode(name: str, ty: pa.DataType, nullable: bool) -> _WNode:
    if pa.types.is_struct(ty):
        kids = [
            _build_wnode(f.name, f.type, f.nullable) for f in ty
        ]
        return _WNode("struct", name, nullable, children=kids, arrow=ty)
    if pa.types.is_list(ty) or pa.types.is_large_list(ty):
        f = ty.value_field
        return _WNode(
            "list",
            name,
            nullable,
            children=[_build_wnode("element", f.type, f.nullable)],
            arrow=ty,
        )
    if pa.types.is_map(ty):
        return _WNode(
            "map",
            name,
            nullable,
            children=[
                _build_wnode("key", ty.key_type, False),
                _build_wnode("value", ty.item_field.type, ty.item_field.nullable),
            ],
            arrow=ty,
        )
    return _WNode("leaf", name, nullable, ct=_ColType(ty), arrow=ty)


def _wnode_schema_elems(node: _WNode, out: list) -> None:
    opt = _OPTIONAL if node.optional else _REQUIRED
    if node.kind == "leaf":
        out.append(node.ct.schema_element(node.name, node.optional))
        return
    if node.kind == "struct":
        out.append(
            ts([(3, "i32", opt), (4, "bin", node.name), (5, "i32", len(node.children))])
        )
        for c in node.children:
            _wnode_schema_elems(c, out)
        return
    if node.kind == "list":
        out.append(
            ts(
                [
                    (3, "i32", opt),
                    (4, "bin", node.name),
                    (5, "i32", 1),
                    (6, "i32", 3),
                    (10, "struct", _Logical.list_()),
                ]
            )
        )
        out.append(ts([(3, "i32", 2), (4, "bin", b"list"), (5, "i32", 1)]))
        _wnode_schema_elems(node.children[0], out)
        return
    # map
    out.append(
        ts(
            [
                (3, "i32", opt),
                (4, "bin", node.name),
                (5, "i32", 1),
                (6, "i32", 1),  # ConvertedType MAP
                (10, "struct", ts([(2, "struct", ts([]))])),  # LogicalType MAP
            ]
        )
    )
    out.append(ts([(3, "i32", 2), (4, "bin", b"key_value"), (5, "i32", 2)]))
    _wnode_schema_elems(node.children[0], out)
    _wnode_schema_elems(node.children[1], out)


def _shred(arr: pa.Array, node: _WNode) -> list[dict]:
    """Dremel level generation: walk the value tree, expanding entries
    at each repeated level; returns per-leaf dicts with (path, ct,
    rep, def, dense, max_def, max_rep). The mirror of the reader's
    assembler (node.go:393-415 / column_buffer.go:421-450 semantics)."""
    out: list[dict] = []
    n = len(arr)

    def valid_mask(a: pa.Array) -> np.ndarray:
        if a.null_count == 0:
            return np.ones(len(a), dtype=bool)
        return ~np.asarray(pc.is_null(a))

    def walk(a, nd: _WNode, path, index, rep, deff, live, d, r):
        if nd.optional:
            d2 = d + 1
            av = valid_mask(a)
            valid = np.zeros(len(index), dtype=bool)
            valid[live] = av[index[live]]
            newlive = live & valid
            deff = deff.copy()
            deff[newlive] += 1
            live = newlive
        else:
            d2 = d
        p = f"{path}.{nd.name}" if path else nd.name
        if nd.kind == "leaf":
            idx = index[live]
            dense = a.take(pa.array(idx, type=pa.int64())) if len(idx) else a.slice(0, 0)
            out.append(
                {
                    "path": p,
                    "names": p.split("."),
                    "ct": nd.ct,
                    "rep": rep,
                    "def": deff,
                    "dense": dense,
                    "max_def": d2,
                    "max_rep": r,
                }
            )
            return
        if nd.kind == "struct":
            for i, c in enumerate(nd.children):
                walk(a.field(i), c, p, index, rep, deff, live, d2, r)
            return
        # list / map: one repeated level
        r2 = r + 1
        d3 = d2 + 1
        offsets = np.asarray(a.offsets, dtype=np.int64)
        counts = np.zeros(len(index), dtype=np.int64)
        counts[live] = offsets[index[live] + 1] - offsets[index[live]]
        live_exp = live & (counts > 0)
        entries_per = np.where(live_exp, counts, 1)
        total = int(entries_per.sum())
        starts = np.cumsum(entries_per) - entries_per
        new_rep = np.full(total, r2, dtype=np.uint8)
        new_rep[starts] = rep
        new_def = np.repeat(deff, entries_per)
        exp_mask = np.repeat(live_exp, entries_per)
        new_def[exp_mask] = d3
        new_live = exp_mask
        base = np.repeat(np.where(live_exp, offsets[index] if len(index) else 0, 0), entries_per)
        within = np.arange(total, dtype=np.int64) - np.repeat(starts, entries_per)
        new_index = base + within
        mid = f"{p}.list" if nd.kind == "list" else f"{p}.key_value"
        if nd.kind == "list":
            walk(
                a.values, nd.children[0], mid, new_index, new_rep, new_def,
                new_live, d3, r2,
            )
        else:
            walk(a.keys, nd.children[0], mid, new_index, new_rep, new_def, new_live, d3, r2)
            walk(a.items, nd.children[1], mid, new_index, new_rep, new_def, new_live, d3, r2)

    index0 = np.arange(n, dtype=np.int64)
    walk(
        arr,
        node,
        "",
        index0,
        np.zeros(n, dtype=np.uint8),
        np.zeros(n, dtype=np.uint8),
        np.ones(n, dtype=bool),
        0,
        0,
    )
    return out


def _write_general_column_chunk(
    out,
    leaf: dict,
    compression: str | None,
    encoding: str | None,
    page_rows: int,
) -> _ColumnChunkResult:
    """Column chunk for a shredded nested leaf: data pages split at
    ROW boundaries (rep==0 marks row starts — a page never splits a
    record, per the spec), each carrying RLE rep/def streams at
    schema-derived widths then the dense element values through the
    normal encodings. Per-page ColumnIndex bounds come from each
    page's dense values, so nested leaves prune like flat columns
    (column_index.go:259-272 emits entries for every leaf)."""
    ct: _ColType = leaf["ct"]
    dense: pa.Array = leaf["dense"]
    if dense.null_count:
        dense = dense.drop_null()
    rep, deff = leaf["rep"], leaf["def"]
    max_def, max_rep = leaf["max_def"], leaf["max_rep"]
    res = _ColumnChunkResult()
    res.total_raw = res.total_comp = 0
    res.dict_page_offset = None
    res.pages = 0
    res.num_values = len(rep)

    enc, dict_vals, dict_idx = _column_encoding(dense, ct, encoding)

    def emit(kind: int, raw: bytes, num_values: int, page_enc: int):
        offset = out.tell()
        comp = _compress_page(raw, compression)
        header = _page_header(
            kind, len(raw), len(comp), _crc32_signed(comp), num_values, page_enc
        )
        out.write(header)
        out.write(comp)
        res.total_raw += len(header) + len(raw)
        res.total_comp += len(header) + len(comp)
        res.pages += 1
        return offset, len(header) + len(comp)

    idx_np = width = None
    if enc == E_RLE_DICTIONARY:
        dict_raw = _encode_values(dict_vals, E_PLAIN, ct)
        res.dict_page_offset, _ = emit(_PAGE_DICT, dict_raw, len(dict_vals), E_PLAIN)
        width = _index_width(len(dict_vals))
        idx_np = dict_idx.to_numpy(zero_copy_only=False).astype(np.uint64)

    wr = max(1, max_rep.bit_length()) if max_rep > 0 else 0
    wd = max(1, max_def.bit_length()) if max_def > 0 else 0
    # entry index of each row start; dense-value count before each entry
    # (dense rides exactly the deff==max_def entries, in entry order)
    row_starts = np.flatnonzero(rep == 0)
    n_rows = len(row_starts)
    dense_before = np.concatenate(
        ([0], np.cumsum(deff == max_def, dtype=np.int64))
    )

    res.data_page_offset = None
    for r0 in range(0, max(n_rows, 1), page_rows):
        if n_rows:
            a = int(row_starts[r0])
            b = (
                int(row_starts[r0 + page_rows])
                if r0 + page_rows < n_rows
                else len(rep)
            )
        else:
            a = b = 0
        d0, d1 = int(dense_before[a]), int(dense_before[b])
        parts = []
        if max_rep > 0:
            body = rle.encode(rep[a:b].astype(np.uint64), wr)
            parts.append(struct.pack("<I", len(body)) + body)
        if max_def > 0:
            body = rle.encode(deff[a:b].astype(np.uint64), wd)
            parts.append(struct.pack("<I", len(body)) + body)
        if enc == E_RLE_DICTIONARY:
            parts.append(_index_values(idx_np[d0:d1], width))
        else:
            parts.append(_encode_values(dense.slice(d0, d1 - d0), enc, ct))
        off, size = emit(_PAGE_DATA, b"".join(parts), b - a, enc)
        if res.data_page_offset is None:
            res.data_page_offset = off
        res.page_locations.append((off, size, r0 if n_rows else 0))
        page_dense = dense.slice(d0, d1 - d0)
        if len(page_dense) == 0:
            res.page_stats.append(
                {"null_page": True, "null_count": b - a, "lo": b"",
                 "hi": b"", "lo_py": None, "hi_py": None}
            )
        else:
            bnd = _page_bounds(page_dense, ct)
            res.page_stats.append(
                None
                if bnd is None
                else {
                    "null_page": False,
                    "null_count": (b - a) - (d1 - d0),
                    **bnd,
                }
            )
        if n_rows == 0:
            break

    res.stats = _stats_blob(dense, ct, res.num_values - len(dense))
    encodings = [enc, E_RLE]
    if enc == E_RLE_DICTIONARY:
        encodings.append(E_PLAIN)
    res.encodings = sorted(set(encodings))
    res.value_encoding = enc
    return res


def _list_levels(arr: pa.Array) -> tuple[np.ndarray, np.ndarray, int]:
    """(rep, def, n_dense) for the standard 3-level list layout
    (optional list group / repeated / optional element):
    def 0 = null list, 1 = empty list, 2 = null element, 3 = value;
    rep 0 = row start, 1 = continuation. n_dense counts def==3 entries
    (the values actually stored)."""
    n = len(arr)
    if n == 0:
        return np.empty(0, np.uint8), np.empty(0, np.uint8), 0
    offs = np.asarray(arr.offsets, dtype=np.int64)
    valid = np.ones(n, dtype=bool)
    if arr.null_count:
        valid = ~np.asarray(pc.is_null(arr))
    counts = np.where(valid, offs[1:] - offs[:-1], 0)
    entries = np.where(counts > 0, counts, 1)
    total = int(entries.sum())
    starts = np.cumsum(entries) - entries
    rep = np.ones(total, dtype=np.uint8)
    rep[starts] = 0
    flat = arr.flatten()  # elements of valid rows, in row order
    elem_valid = np.ones(len(flat), dtype=bool)
    if flat.null_count:
        elem_valid = ~np.asarray(pc.is_null(flat))
    deff = np.empty(total, dtype=np.uint8)
    elem_mask = np.ones(total, dtype=bool)
    single = starts[counts == 0]
    elem_mask[single] = False
    deff[elem_mask] = 2 + elem_valid
    deff[starts[~valid]] = 0
    deff[starts[valid & (counts == 0)]] = 1
    return rep, deff, int(elem_valid.sum())


def _write_list_column_chunk(
    out,
    arr: pa.Array,
    ct: _ColType,
    compression: str | None,
    encoding: str | None,
    page_rows: int,
) -> _ColumnChunkResult:
    """Column chunk for a single-level list column: rep + def level
    streams (RLE, 4-byte length prefix) ahead of the element values,
    which use the same encodings as flat columns (the element array is
    what gets encoded — node.go:393-415's shredding at wire level)."""
    if isinstance(arr, pa.ChunkedArray):
        arr = arr.combine_chunks()
    res = _ColumnChunkResult()
    res.total_raw = res.total_comp = 0
    res.dict_page_offset = None
    res.pages = 0
    res.num_values = 0

    dense = arr.flatten()
    if dense.null_count:
        dense = dense.drop_null()

    enc, dict_vals, dict_idx = _column_encoding(dense, ct, encoding)

    def emit(kind: int, raw: bytes, num_values: int, page_enc: int):
        offset = out.tell()
        comp = _compress_page(raw, compression)
        header = _page_header(
            kind, len(raw), len(comp), _crc32_signed(comp), num_values, page_enc
        )
        out.write(header)
        out.write(comp)
        res.total_raw += len(header) + len(raw)
        res.total_comp += len(header) + len(comp)
        res.pages += 1
        return offset, len(header) + len(comp)

    if enc == E_RLE_DICTIONARY:
        dict_raw = _encode_values(dict_vals, E_PLAIN, ct)
        res.dict_page_offset, _ = emit(_PAGE_DICT, dict_raw, len(dict_vals), E_PLAIN)
        width = _index_width(len(dict_vals))
        idx_np = dict_idx.to_numpy(zero_copy_only=False).astype(np.uint64)

    res.data_page_offset = None
    n = len(arr)
    cursor = 0
    for start in range(0, max(n, 1), page_rows):
        page = arr.slice(start, page_rows) if n else arr
        rep, deff, n_dense = _list_levels(page)
        rep_body = rle.encode(rep.astype(np.uint64), 1)
        def_body = rle.encode(deff.astype(np.uint64), 2)
        parts = [
            struct.pack("<I", len(rep_body)) + rep_body,
            struct.pack("<I", len(def_body)) + def_body,
        ]
        if enc == E_RLE_DICTIONARY:
            parts.append(_index_values(idx_np[cursor : cursor + n_dense], width))
        else:
            parts.append(
                _encode_values(dense.slice(cursor, n_dense), enc, ct)
            )
        page_dense = dense.slice(cursor, n_dense)
        cursor += n_dense
        off, size = emit(_PAGE_DATA, b"".join(parts), len(rep), enc)
        if res.data_page_offset is None:
            res.data_page_offset = off
        res.page_locations.append((off, size, start if n else 0))
        # per-page ColumnIndex bounds over the page's leaf VALUES;
        # null_count counts def < max_def entries (null/empty lists and
        # null elements)
        if n_dense == 0:
            res.page_stats.append(
                {"null_page": True, "null_count": len(rep), "lo": b"",
                 "hi": b"", "lo_py": None, "hi_py": None}
            )
        else:
            b = _page_bounds(page_dense, ct)
            res.page_stats.append(
                None
                if b is None
                else {"null_page": False, "null_count": len(rep) - n_dense, **b}
            )
        res.num_values += len(rep)
        if n == 0:
            break

    res.stats = _stats_blob(dense, ct, res.num_values - len(dense))
    encodings = [enc, E_RLE]
    if enc == E_RLE_DICTIONARY:
        encodings.append(E_PLAIN)
    res.encodings = sorted(set(encodings))
    res.value_encoding = enc
    return res


def write_table(
    table: pa.Table,
    path: str,
    compression: str | None = None,
    rows_per_group: int | None = None,
    encodings: dict[str, str] | None = None,
    page_rows: int = 8192,
    sorting_columns: list[tuple[str, bool, bool]] | None = None,
    bloom_columns: tuple[str, ...] = (),
    data_page_version: int = 1,
    page_index: bool = True,
    key_value_metadata: dict | None = None,
) -> dict:
    """Write `table` as a real parquet file at `path`.

    encodings: optional per-column forced encoding name (see
    ENCODING_NAMES values); unlisted columns auto-select.
    sorting_columns: [(column, descending, nulls_first)] recorded in the
    row-group metadata (sorting.go / row_group.go:80 parity) so readers
    can exploit the order.
    bloom_columns: flat columns that get a standard split-block bloom
    filter sidecar (bloom.go:99-117), readable by any parquet reader.
    data_page_version: 2 emits DataPage V2 for flat columns (uncompressed
    level streams ahead of compressed values, writer.go:365-370 layout).
    page_index: emit ColumnIndex/OffsetIndex structures in the footer
    region (column_index.go:259-272, writer.go:1291-1330 parity).
    Returns {"rows", "bytes", "encodings": {col: name}}.
    """
    # Arrow dictionary-of-string columns export as ENUM-annotated
    # BYTE_ARRAY (type.go:1494 — the reference's Enum kind is a string
    # node): decode the indices and tag the field; an explicit
    # ANNOTATION_META_KEY on the field is preserved over the default
    for i, field in enumerate(table.schema):
        ty = field.type
        if pa.types.is_dictionary(ty) and (
            pa.types.is_string(ty.value_type)
            or pa.types.is_large_string(ty.value_type)
        ):
            md = dict(field.metadata or {})
            md.setdefault(ANNOTATION_META_KEY, b"ENUM")
            table = table.set_column(
                i,
                pa.field(field.name, ty.value_type, field.nullable, md),
                table.column(i).cast(ty.value_type),
            )

    def _annotation(field: pa.Field) -> str | None:
        raw = (field.metadata or {}).get(ANNOTATION_META_KEY)
        return raw.decode().upper() if raw else None

    cols = []
    for name in table.column_names:
        field = table.schema.field(name)
        ty = field.type
        if pa.types.is_list(ty) or pa.types.is_large_list(ty):
            try:
                cols.append((name, "list", _ColType(ty.value_type)))
                continue
            except ValueError:
                pass  # nested element type -> general shredding
        elif not (pa.types.is_struct(ty) or pa.types.is_map(ty)):
            cols.append((name, "flat", _ColType(ty, _annotation(field))))
            continue
        cols.append((name, "general", _build_wnode(name, ty, field.nullable)))
    # optionality comes from the Arrow field's declared nullability, not
    # from observed nulls: a multi-shard export must emit a consistent
    # REQUIRED/OPTIONAL schema for every shard of the same logical column
    # (a shard that happens to contain no nulls is still OPTIONAL)
    optional = {
        name: bool(
            table.schema.field(name).nullable or table.column(name).null_count
        )
        for name, _, _ in cols
    }
    chosen: dict[str, str] = {}
    rows_per_group = rows_per_group or max(1, table.num_rows) if table.num_rows else 1

    with open(path, "wb") as out:
        out.write(b"PAR1")
        groups: list[dict] = []  # per group: {"leaves": [...], "rows": n}
        nrows_total = table.num_rows
        for g_start in range(0, max(nrows_total, 1), rows_per_group):
            g = table.slice(g_start, rows_per_group)
            leaves = []
            for name, shape, ct in cols:
                arr = g.column(name)
                if isinstance(arr, pa.ChunkedArray):
                    arr = arr.combine_chunks()
                if shape == "general":
                    results = [
                        (
                            leaf["ct"],
                            leaf["names"],
                            _write_general_column_chunk(
                                out,
                                leaf,
                                compression,
                                (encodings or {}).get(name),
                                page_rows,
                            ),
                        )
                        for leaf in _shred(arr, ct)  # ct is the _WNode here
                    ]
                    chosen[name] = ENCODING_NAMES[results[0][2].value_encoding]
                elif shape == "list":
                    r = _write_list_column_chunk(
                        out,
                        arr,
                        ct,
                        compression,
                        (encodings or {}).get(name),
                        page_rows,
                    )
                    results = [(ct, [name, "list", "element"], r)]
                    chosen[name] = ENCODING_NAMES[r.value_encoding]
                else:
                    r = _write_column_chunk(
                        out,
                        arr,
                        ct,
                        optional[name],
                        compression,
                        (encodings or {}).get(name),
                        page_rows,
                        page_version=data_page_version,
                        want_bloom=name in bloom_columns,
                    )
                    results = [(ct, [name], r)]
                    chosen[name] = ENCODING_NAMES[r.value_encoding]
                for leaf_ct, path_in_schema, r in results:
                    leaves.append(
                        {"ct": leaf_ct, "names": path_in_schema, "res": r}
                    )
            groups.append({"leaves": leaves, "rows": g.num_rows})
            if nrows_total == 0:
                break

        # bloom filters, then ColumnIndex / OffsetIndex blobs — all after
        # the data pages, before the footer (writer.go:1291-1330 order)
        for grp in groups:
            for leaf in grp["leaves"]:
                r = leaf["res"]
                leaf["bloom_off"] = leaf["bloom_len"] = None
                if r.bloom is not None:
                    blob = r.bloom.serialize()
                    leaf["bloom_off"] = out.tell()
                    leaf["bloom_len"] = len(blob)
                    out.write(blob)
        for grp in groups:
            for leaf in grp["leaves"]:
                leaf["ci_off"] = leaf["ci_len"] = None
                if page_index:
                    blob = _column_index_blob(leaf["res"])
                    if blob is not None:
                        leaf["ci_off"] = out.tell()
                        leaf["ci_len"] = len(blob)
                        out.write(blob)
        for grp in groups:
            for leaf in grp["leaves"]:
                leaf["oi_off"] = leaf["oi_len"] = None
                if page_index and leaf["res"].page_locations:
                    blob = _offset_index_blob(leaf["res"])
                    leaf["oi_off"] = out.tell()
                    leaf["oi_len"] = len(blob)
                    out.write(blob)

        # sorting_columns -> leaf ordinals (flat leaves only)
        sort_blob = None
        if sorting_columns and groups:
            leaf_names = [
                ".".join(leaf["names"]) for leaf in groups[0]["leaves"]
            ]
            scs = []
            for col_name, descending, nulls_first in sorting_columns:
                if col_name in leaf_names:
                    scs.append(
                        ts(
                            [
                                (1, "i32", leaf_names.index(col_name)),
                                (2, "bool", descending),
                                (3, "bool", nulls_first),
                            ]
                        )
                    )
            if scs:
                sort_blob = tlist("struct", scs)

        row_groups = []
        n_leaves = 0
        for grp in groups:
            col_chunks = []
            total_bytes = 0
            for leaf in grp["leaves"]:
                r = leaf["res"]
                meta = ts(
                    [
                        (1, "i32", leaf["ct"].physical),
                        (2, "list", tlist("i32", r.encodings)),
                        (3, "list", tlist("bin", leaf["names"])),
                        (4, "i32", _COMPRESSION_IDS[compression]),
                        (5, "i64", r.num_values),
                        (6, "i64", r.total_raw),
                        (7, "i64", r.total_comp),
                        (9, "i64", r.data_page_offset),
                        (11, "i64", r.dict_page_offset),
                        (12, "struct", r.stats),
                        (14, "i64", leaf["bloom_off"]),
                        (15, "i32", leaf["bloom_len"]),
                    ]
                )
                first_off = (
                    r.dict_page_offset
                    if r.dict_page_offset is not None
                    else r.data_page_offset
                )
                col_chunks.append(
                    ts(
                        [
                            (2, "i64", first_off),
                            (3, "struct", meta),
                            (4, "i64", leaf["oi_off"]),
                            (5, "i32", leaf["oi_len"]),
                            (6, "i64", leaf["ci_off"]),
                            (7, "i32", leaf["ci_len"]),
                        ]
                    )
                )
                total_bytes += r.total_comp
            n_leaves = len(col_chunks)
            row_groups.append(
                ts(
                    [
                        (1, "list", tlist("struct", col_chunks)),
                        (2, "i64", total_bytes),
                        (3, "i64", grp["rows"]),
                        (4, "list", sort_blob),
                    ]
                )
            )

        root = ts([(4, "bin", b"schema"), (5, "i32", len(cols))])
        schema_elems = [root]
        for name, shape, ct in cols:
            if shape == "general":
                _wnode_schema_elems(ct, schema_elems)
            elif shape == "list":
                schema_elems.append(
                    ts(
                        [
                            (3, "i32", _OPTIONAL),
                            (4, "bin", name),
                            (5, "i32", 1),
                            (6, "i32", 3),  # ConvertedType LIST
                            (10, "struct", _Logical.list_()),
                        ]
                    )
                )
                schema_elems.append(
                    ts([(3, "i32", 2), (4, "bin", b"list"), (5, "i32", 1)])
                )
                schema_elems.append(ct.schema_element("element", True))
            else:
                schema_elems.append(ct.schema_element(name, optional[name]))
        # column_orders (TypeDefinedOrder per leaf): without this,
        # readers must distrust min_value/max_value in statistics
        type_order = ts([(1, "struct", ts([]))])
        fields = [
            (1, "i32", 1),
            (2, "list", tlist("struct", schema_elems)),
            (3, "i64", nrows_total),
            (4, "list", tlist("struct", row_groups)),
        ]
        # footer key/value metadata (writer.go:214-231 SetKeyValueMetadata
        # parity): the Arrow schema's metadata plus explicit pairs
        kv: dict[bytes, bytes] = {}
        if table.schema.metadata:
            kv.update(table.schema.metadata)
        for k, v in (key_value_metadata or {}).items():
            kv[k.encode() if isinstance(k, str) else bytes(k)] = (
                v.encode() if isinstance(v, str) else bytes(v)
            )
        if kv:
            fields.append(
                (5, "list", tlist(
                    "struct",
                    [ts([(1, "bin", k), (2, "bin", v)]) for k, v in kv.items()],
                ))
            )
        fields += [
            (6, "bin", b"parquet_go_ray wire writer"),
            (7, "list", tlist("struct", [type_order] * n_leaves)),
        ]
        footer = ts(fields)
        out.write(footer)
        out.write(struct.pack("<I", len(footer)))
        out.write(b"PAR1")
        size = out.tell()
    return {"rows": nrows_total, "bytes": size, "encodings": chosen}
