"""Dictionary encoding (symbol table + RLE/bit-packed indexes).

Semantics follow the reference's Dictionary layer (dictionary.go:47-87):
values map to dense int32 indexes in first-seen order (`Insert`
probe-or-insert); the wire form pairs a PLAIN-encoded dictionary page with
an RLE/bit-packed index stream (1-byte bit width header, as in
encoding/rle/dictionary.go:11-59). The hash-probe machinery
(hashprobe/hashprobe.go) is replaced by Arrow's `dictionary_encode`
kernel, which also assigns codes in order of first appearance.

Wire layout (per chunk):

    [uvarint n_dict][uvarint len(dict_payload)][dict values PLAIN]
    [u8 index bit width][uvarint n_indexes][RLE/bit-packed hybrid indexes]
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from . import plain, rle
from ._util import bit_width, uvarint_decode, uvarint_encode


def encode_indexes(indexes: np.ndarray, n_dict: int) -> bytes:
    width = bit_width(max(0, n_dict - 1))
    return (
        bytes([width])
        + uvarint_encode(len(indexes))
        + rle.encode(indexes.astype(np.uint64), width)
    )


def is_byte_array(ty: pa.DataType) -> bool:
    """string, binary and their large variants: (offsets, data) layout."""
    return pa.types.is_string(ty) or pa.types.is_large_string(ty) or pa.types.is_binary(ty) or pa.types.is_large_binary(ty)


def _plain_encode_values(arr: pa.Array) -> bytes:
    ty = arr.type
    if is_byte_array(ty):
        data, offsets = _byte_array_buffers(arr)
        return plain.encode_byte_array(data, offsets)
    if pa.types.is_boolean(ty):
        return plain.encode_booleans(arr.to_numpy(zero_copy_only=False))
    if pa.types.is_fixed_size_binary(ty):
        return b"".join(v.as_py() for v in arr)
    return plain.encode_fixed(arr.to_numpy(zero_copy_only=False))


def _byte_array_buffers(arr: pa.Array):
    """Zero-copy (data, offsets) of a string/binary array with no nulls.
    `data` is a memoryview over the Arrow buffer — NO copy of the value
    bytes is made (encoders consume it via np.frombuffer, also
    zero-copy); only the small offsets array is widened to int64."""
    if pa.types.is_large_string(arr.type) or pa.types.is_large_binary(arr.type):
        off_dtype = np.int64
    else:
        off_dtype = np.int32
    bufs = arr.buffers()
    offsets = np.frombuffer(bufs[1], dtype=off_dtype, count=len(arr) + 1, offset=arr.offset * np.dtype(off_dtype).itemsize)
    data_buf = bufs[2]
    data = memoryview(data_buf)[int(offsets[0]) : int(offsets[-1])] if data_buf is not None else memoryview(b"")
    if int(offsets[0]) != 0:
        offsets = offsets - offsets[0]
    return data, offsets.astype(np.int64)


class DictState:
    """Accumulating first-seen dictionary shared across the chunks of
    one output file (writer.go:340-347 / dictionary.go:306-311 parity:
    one dictionary per column per row group, indexes stay valid as the
    dictionary only ever appends). String/binary values only."""

    def __init__(self):
        self._values: list[bytes] = []
        self._pd_index = None

    def __len__(self) -> int:
        return len(self._values)

    def insert(self, arr: pa.Array) -> np.ndarray:
        """Probe-or-insert (first-seen dense ids); returns int64 indexes.
        Vectorized via a pandas hash index (get_indexer), new values
        appended in first-occurrence order."""
        import pandas as pd

        vals = arr.cast(pa.large_binary()).to_numpy(zero_copy_only=False)
        if self._pd_index is not None:
            codes = self._pd_index.get_indexer(vals)
        else:
            codes = np.full(len(vals), -1, dtype=np.int64)
        miss = codes < 0
        if miss.any():
            new_vals = pd.unique(vals[miss])
            self._values.extend(new_vals)
            self._pd_index = pd.Index(np.array(self._values, dtype=object))
            codes[miss] = self._pd_index.get_indexer(vals[miss])
        return codes.astype(np.int64)

    def values_array(self) -> pa.Array:
        return pa.array(self._values, type=pa.large_binary())


def encode_shared(indexes: np.ndarray, dict_size: int) -> bytes:
    """Index-only payload referencing the file-level dict page."""
    return uvarint_encode(dict_size) + encode_indexes(indexes, dict_size)


def decode_shared(buf: bytes, values: pa.Array) -> pa.Array:
    """Resolve an index-only payload against the file-level dict page."""
    _size, pos = uvarint_decode(buf, 0)
    width = buf[pos]
    n_idx, p = uvarint_decode(buf, pos + 1)
    indexes = rle.decode(buf[p:], width, n_idx).astype(np.int64)
    return values.take(pa.array(indexes))


def encode(arr: pa.Array) -> bytes:
    """arr: null-free pyarrow array of a dictionary-supported type."""
    denc = arr.dictionary_encode()
    dictionary = denc.dictionary
    indexes = denc.indices.to_numpy(zero_copy_only=False).astype(np.int64)
    dict_payload = _plain_encode_values(dictionary)
    return (
        uvarint_encode(len(dictionary))
        + uvarint_encode(len(dict_payload))
        + dict_payload
        + encode_indexes(indexes, len(dictionary))
    )


def decode(
    buf: bytes, ptype: str, n: int, flba_width: int = 0
) -> tuple[pa.Array, np.ndarray]:
    """Return (dictionary values array, int32 indexes)."""
    n_dict, pos = uvarint_decode(buf, 0)
    dlen, pos = uvarint_decode(buf, pos)
    dict_payload = buf[pos : pos + dlen]
    pos += dlen
    values = _plain_decode_values(dict_payload, ptype, n_dict, flba_width)
    width = buf[pos]
    n_idx, p = uvarint_decode(buf, pos + 1)
    indexes = rle.decode(buf[p:], width, n_idx).astype(np.int32)
    return values, indexes


def _plain_decode_values(buf: bytes, ptype: str, n: int, flba_width: int) -> pa.Array:
    if ptype == "BYTE_ARRAY":
        data, offsets = plain.decode_byte_array(buf, n)
        return pa.Array.from_buffers(
            pa.large_binary(),
            n,
            [None, pa.py_buffer(offsets.astype(np.int64).tobytes()), pa.py_buffer(data)],
        )
    if ptype == "BOOLEAN":
        return pa.array(plain.decode_booleans(buf, n))
    if ptype == "FIXED_LEN_BYTE_ARRAY":
        return pa.Array.from_buffers(
            pa.binary(flba_width), n, [None, pa.py_buffer(buf)]
        )
    dtype = {
        "INT32": np.int32,
        "INT64": np.int64,
        "FLOAT": np.float32,
        "DOUBLE": np.float64,
    }[ptype]
    return pa.array(plain.decode_fixed(buf, dtype, n))


def domain_match_codes(values: pa.Array, wanted) -> np.ndarray:
    """Dictionary codes whose VALUE is in `wanted` — O(dict-size) value
    comparisons instead of O(rows). str coerces to bytes for binary
    dictionaries (chunk byte-array dicts store large_binary)."""
    import pyarrow.compute as pc

    ty = values.type
    if pa.types.is_binary(ty) or pa.types.is_large_binary(ty):
        wanted = [
            w.encode() if isinstance(w, str) else bytes(w) for w in wanted
        ]
        value_set = pa.array(wanted, type=ty)
    else:
        value_set = pa.array(list(wanted)).cast(ty)
    m = pc.is_in(values, value_set=value_set)
    return np.nonzero(m.to_numpy(zero_copy_only=False))[0]


def domain_mask(buf: bytes, ptype: str, wanted, flba_width: int = 0) -> np.ndarray:
    """Membership mask over a DICT chunk's rows, evaluated in the
    encoded domain: decode the dictionary + the int index stream only —
    the take() that materializes row values never runs."""
    values, indexes = decode(buf, ptype, 0, flba_width)
    return np.isin(indexes, domain_match_codes(values, wanted))


def domain_mask_shared(buf: bytes, shared_values: pa.Array, wanted) -> np.ndarray:
    """domain_mask for a dict_shared (index-only) chunk payload against
    the file-level dict page."""
    _size, pos = uvarint_decode(buf, 0)
    width = buf[pos]
    n_idx, p = uvarint_decode(buf, pos + 1)
    indexes = rle.decode(buf[p:], width, n_idx)
    return np.isin(indexes, domain_match_codes(shared_values, wanted))


def shared_indexes(buf: bytes) -> np.ndarray:
    """Just the int index stream of a dict_shared (index-only) payload —
    the encoded-domain entry point shared by masks and group counts."""
    _size, pos = uvarint_decode(buf, 0)
    width = buf[pos]
    n_idx, p = uvarint_decode(buf, pos + 1)
    return rle.decode(buf[p:], width, n_idx).astype(np.int64)


def decode_values(buf: bytes, ptype: str, flba_width: int = 0) -> pa.Array:
    """Just the dictionary VALUES of a dict payload — the index stream
    is never touched (DISTINCT pushdown reads dictionaries, not codes)."""
    n_dict, pos = uvarint_decode(buf, 0)
    dlen, pos = uvarint_decode(buf, pos)
    return _plain_decode_values(buf[pos : pos + dlen], ptype, n_dict, flba_width)
