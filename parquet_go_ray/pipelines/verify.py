"""Round-trip verification: decoded output ≡ original input.

Distributed, order-insensitive, O(1) driver memory: each batch maps to
one (row_count, sum-of-row-hashes mod 2^64) pair; equal multisets of
rows give equal sums. Row hashes are computed Arrow-native: byte-array
columns run a segmented FNV-1a directly over the value buffers (C
kernel when a compiler exists), fixed-width columns get a vectorized
splitmix over their bit patterns, and nulls mix in a sentinel — no
pandas object conversion of MB-scale payloads anywhere. Batches with
column types outside that set fall back to pandas' siphash. The
per-url byte-identical `text` check reduces to hash equality here, and
pytest additionally does exact per-row comparison at small scale.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

import ray.data

_MOD = np.uint64(0xFFFFFFFFFFFFFFFF)
_U64 = np.uint64
_PRIME = _U64(1099511628211)
_NULL_SENTINEL = _U64(0x9E3779B97F4A7C15)


def _splitmix(x: np.ndarray) -> np.ndarray:
    with np.errstate(over="ignore"):
        z = (x + _U64(0x9E3779B97F4A7C15)).astype(np.uint64)
        z = (z ^ (z >> _U64(30))) * _U64(0xBF58476D1CE4E5B9)
        z = (z ^ (z >> _U64(27))) * _U64(0x94D049BB133111EB)
        return z ^ (z >> _U64(31))


def _fnv_segments(data, offsets: np.ndarray) -> np.ndarray:
    from ..codecs import native

    n = len(offsets) - 1
    out = np.empty(n, dtype=np.uint64)
    lib = native.load("_hash_native.c")
    if lib is not None and n:
        import ctypes

        buf = bytes(data) if not isinstance(data, bytes) else data
        lib.fnv1a_segments(
            buf,
            offsets.ctypes.data_as(ctypes.POINTER(ctypes.c_long)),
            ctypes.c_long(n),
            out.ctypes.data_as(ctypes.POINTER(ctypes.c_uint64)),
        )
        return out
    # numpy fallback: FNV over bytes, looped per byte position of the
    # longest value only for short columns; per-row python loop otherwise
    mv = memoryview(data)
    for i in range(n):
        h = 1469598103934665603
        for b in mv[int(offsets[i]) : int(offsets[i + 1])]:
            h = ((h ^ b) * 1099511628211) & 0xFFFFFFFFFFFFFFFF
        out[i] = h
    return out


def _column_hash(arr: pa.Array) -> np.ndarray:
    """uint64 per-row hash of one flat column; raises TypeError on
    unsupported layouts (caller falls back to pandas)."""
    import pyarrow.compute as pc

    ty = arr.type
    validity = None
    if arr.null_count:
        validity = ~np.asarray(pc.is_null(arr))
    from ..codecs.dictionary import _byte_array_buffers, is_byte_array

    if is_byte_array(ty):
        filled = arr
        if validity is not None:
            fill = "" if pa.types.is_string(ty) or pa.types.is_large_string(ty) else b""
            filled = arr.fill_null(fill)
        data, offsets = _byte_array_buffers(filled)
        h = _fnv_segments(data, offsets)
    elif pa.types.is_boolean(ty):
        filled = arr.fill_null(False) if validity is not None else arr
        h = _splitmix(filled.to_numpy(zero_copy_only=False).astype(np.uint64))
    elif pa.types.is_timestamp(ty) or pa.types.is_int64(ty) or pa.types.is_uint64(ty):
        # fill nulls on the Arrow side BEFORE to_numpy: a nullable int64
        # would otherwise round-trip through float64 (NaN for nulls) and
        # round |v| > 2^53 values, hashing distinct values equal
        v = arr if pa.types.is_int64(ty) else arr.view(pa.int64())
        if validity is not None:
            v = v.fill_null(0)
        h = _splitmix(v.to_numpy(zero_copy_only=False).view(np.uint64))
    elif pa.types.is_integer(ty) or pa.types.is_date32(ty):
        v = arr.view(pa.int32()) if pa.types.is_date32(ty) else arr
        if validity is not None:
            v = v.fill_null(0)
        x = v.to_numpy(zero_copy_only=False)
        h = _splitmix(x.astype(np.int64).view(np.uint64))
    elif pa.types.is_float64(ty) or pa.types.is_float32(ty):
        x = arr.to_numpy(zero_copy_only=False).astype(np.float64)
        h = _splitmix(x.view(np.uint64))
    else:
        raise TypeError(f"no arrow-native hash for {ty}")
    if validity is not None:
        h = np.where(validity, h, _NULL_SENTINEL)
    return h


def _batch_hash(t: pa.Table) -> pa.Table:
    try:
        h = np.full(t.num_rows, _U64(14695981039346656037 & (2**64 - 1)), dtype=np.uint64)
        for name in sorted(t.column_names):
            col = t.column(name)
            if isinstance(col, pa.ChunkedArray):
                col = col.combine_chunks()
            with np.errstate(over="ignore"):
                h = (h ^ _column_hash(col)) * _PRIME
    except TypeError:
        df = t.to_pandas()[sorted(t.column_names)]
        h = pd.util.hash_pandas_object(df, index=False).to_numpy().astype(np.uint64)
    with np.errstate(over="ignore"):
        s = np.add.reduce(h, dtype=np.uint64) if len(h) else _U64(0)
    return pa.table(
        {
            "rows": pa.array([t.num_rows], type=pa.int64()),
            "hsum": pa.array(np.array([s], dtype=np.uint64)),
        }
    )


def dataset_checksum(ds: ray.data.Dataset) -> tuple[int, int]:
    """Return (row_count, order-insensitive checksum)."""
    parts = ds.map_batches(
        _batch_hash, batch_format="pyarrow", zero_copy_batch=True
    ).to_pandas()
    rows = int(parts["rows"].sum())
    hsum = int(np.bitwise_and(
        np.add.reduce(parts["hsum"].to_numpy(dtype=np.uint64), dtype=np.uint64),
        _MOD,
    )) if len(parts) else 0
    return rows, hsum


def verify_roundtrip(
    input_ds: ray.data.Dataset, decoded_ds: ray.data.Dataset
) -> dict:
    # the two sides are independent pipelines over different files —
    # submit both from driver threads so the Ray scheduler interleaves
    # them instead of idling the cluster between two sequential passes
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=2) as ex:
        f_in = ex.submit(dataset_checksum, input_ds)
        f_out = ex.submit(dataset_checksum, decoded_ds)
        in_rows, in_sum = f_in.result()
        out_rows, out_sum = f_out.result()
    return {
        "rows_in": in_rows,
        "rows_out": out_rows,
        "checksum_in": in_sum,
        "checksum_out": out_sum,
        "ok": in_rows == out_rows and in_sum == out_sum,
    }
