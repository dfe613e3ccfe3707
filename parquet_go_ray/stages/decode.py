"""Decode stage: encoded chunk records/files -> original Arrow batches.

Bit-identical inverse of stages/encode.py (the analogue of the
reference's page-decode path, column.go:541-690). Each chunk group is
self-contained (all columns of one row slice), so decode needs no
shuffle: one task per chunk file.
"""

from __future__ import annotations

import io

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from ..codecs import chunk as chunk_mod


def _verified(blob: bytes, crc: int, column: str, read, **kwargs):
    """read(blob, **kwargs) (decode_array, or a mask read from the chunk)
    after checking `blob` against its chunk record's CRC32. The record is
    compared with the blob's trailer in O(1), and `read`'s parse checks
    the trailer against the body in the one full CRC pass; so a flipped
    body or trailer byte, or another chunk's blob, is refused. A
    ChunkError from either check, or from the read, names the column."""
    try:
        if not chunk_mod.record_crc_matches(blob, crc):
            raise chunk_mod.ChunkError("chunk payload checksum mismatch")
        return read(blob, **kwargs)
    except chunk_mod.ChunkError as e:
        raise chunk_mod.ChunkError(f"{e} for column {column}") from e


def decode_chunk_table(chunks: pa.Table) -> pa.Table:
    """Decode a chunk-record table (possibly several chunk groups).
    File-level dict pages (codec "dict_page") are decoded first and
    resolve any dict_shared chunks in the same table."""
    import pyarrow.compute as pc

    shared_dicts: dict[str, pa.Array] = {}
    dict_mask = pc.equal(chunks.column("codec"), "dict_page")
    if pc.any(dict_mask).as_py():
        pages = chunks.filter(dict_mask)
        for col, payload in zip(pages.column("column"), pages.column("payload")):
            shared_dicts[col.as_py()] = chunk_mod.decode_array(payload.as_buffer())
        chunks = chunks.filter(pc.invert(dict_mask))
    ids = chunks.column("chunk_id").to_numpy(zero_copy_only=False)
    tables = []
    if len(ids) == 0:
        if shared_dicts:  # group filter kept only dict pages
            return pa.table({})
        raise ValueError("empty chunk table")
    change = np.nonzero(ids[1:] != ids[:-1])[0] + 1
    starts = np.concatenate(([0], change, [len(ids)]))
    for a, b in zip(starts[:-1], starts[1:]):
        group = chunks.slice(int(a), int(b - a))
        order = np.argsort(group.column("col_idx").to_numpy(zero_copy_only=False))
        names, arrays = [], []
        cols = group.column("column")
        crcs = group.column("crc32")
        payloads = group.column("payload")
        for i in order:
            name = cols[int(i)].as_py()
            names.append(name)
            arrays.append(
                _verified(
                    payloads[int(i)].as_buffer(),
                    crcs[int(i)].as_py(),
                    name,
                    chunk_mod.decode_array,
                    shared_dict=shared_dicts.get(name),
                )
            )
        tables.append(pa.table(dict(zip(names, arrays))))
    return pa.concat_tables(tables)


class ChunkFileDecoder:
    """map_batches callable over `read_binary_files` of chunk parquet files.

    With `columns`, only the requested columns' payload rows are decoded —
    and when the input batch carries file *paths* instead of bytes, the
    chunk file is read with a parquet row filter so non-selected columns'
    payloads never leave storage (the reference reads only selected
    columns' pages, column.go:541-690)."""

    def __init__(
        self,
        columns: list[str] | None = None,
        chunk_ids: set[str] | None = None,
    ):
        self.columns = list(columns) if columns else None
        self.chunk_ids = sorted(chunk_ids) if chunk_ids is not None else None

    def _filters(self):
        filters = []
        if self.columns:
            filters.append(("column", "in", self.columns))
        if self.chunk_ids is not None:
            # "__dict__" rows are file-level dict pages that dict_shared
            # chunks of ANY selected group may reference — always admit
            filters.append(("chunk_id", "in", self.chunk_ids + ["__dict__"]))
        return filters or None

    def __call__(self, batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        outs = []
        if "bytes" in batch.column_names:
            for item in batch.column("bytes"):
                chunks = pq.read_table(io.BytesIO(item.as_py()))
                if self.columns is not None:
                    chunks = chunks.filter(
                        pc.is_in(
                            chunks.column("column"), value_set=pa.array(self.columns)
                        )
                    )
                if self.chunk_ids is not None:
                    chunks = chunks.filter(
                        pc.is_in(
                            chunks.column("chunk_id"),
                            value_set=pa.array(self.chunk_ids + ["__dict__"]),
                        )
                    )
                if chunks.num_rows:
                    outs.append(decode_chunk_table(chunks))
        else:  # path batches: projected + group-filtered read of the file
            col = "path" if "path" in batch.column_names else "item"
            filters = self._filters()
            for path in batch.column(col).to_pylist():
                chunks = pq.read_table(path, filters=filters)
                if chunks.num_rows:
                    outs.append(decode_chunk_table(chunks))
        if not outs:
            return pa.table({})
        return pa.concat_tables(outs)


def isnull_chunk_table(
    chunks: pa.Table,
    column: str,
    full_ids: set[str],
    columns: list[str] | None = None,
) -> pa.Table:
    """Rows where `column` IS NULL, without ever decoding that column's
    payload: chunk groups in `full_ids` (n_null == n from the manifest)
    match wholesale — only the OUTPUT columns decode; other groups build
    the row mask from the chunk header's validity bitmap
    (chunk_mod.null_mask). The caller is expected to have pruned
    n_null == 0 chunks driver-side from the stats, so everything that
    reaches here contributes rows."""
    import pyarrow.compute as pc

    shared_dicts: dict[str, pa.Array] = {}
    dict_mask = pc.equal(chunks.column("codec"), "dict_page")
    if pc.any(dict_mask).as_py():
        pages = chunks.filter(dict_mask)
        for col, payload in zip(pages.column("column"), pages.column("payload")):
            shared_dicts[col.as_py()] = chunk_mod.decode_array(payload.as_buffer())
        chunks = chunks.filter(pc.invert(dict_mask))
    ids = chunks.column("chunk_id").to_numpy(zero_copy_only=False)
    if len(ids) == 0:
        return pa.table({})
    change = np.nonzero(ids[1:] != ids[:-1])[0] + 1
    starts = np.concatenate(([0], change, [len(ids)]))
    tables = []
    for a, b in zip(starts[:-1], starts[1:]):
        group = chunks.slice(int(a), int(b - a))
        names = group.column("column").to_pylist()
        payloads = group.column("payload")
        crcs = group.column("crc32")
        sel = None
        if group.column("chunk_id")[0].as_py() not in full_ids:
            try:
                pred_i = names.index(column)
            except ValueError:
                raise chunk_mod.ChunkError(
                    f"null-scan column {column!r} missing from chunk group"
                ) from None
            mask = _verified(
                payloads[pred_i].as_buffer(), crcs[pred_i].as_py(), column,
                chunk_mod.null_mask,
            )
            if not mask.any():
                continue
            sel = pa.array(mask)
        order = np.argsort(
            group.column("col_idx").to_numpy(zero_copy_only=False)
        )
        out_names, out_arrays = [], []
        for i in order:
            name = names[int(i)]
            if columns is not None and name not in columns:
                continue
            arr = _verified(
                payloads[int(i)].as_buffer(), crcs[int(i)].as_py(), name,
                chunk_mod.decode_array, shared_dict=shared_dicts.get(name),
            )
            out_names.append(name)
            out_arrays.append(arr if sel is None else arr.filter(sel))
        tables.append(pa.table(dict(zip(out_names, out_arrays))))
    if not tables:
        return pa.table({})
    return pa.concat_tables(tables)


def search_chunk_table(
    chunks: pa.Table,
    column: str,
    wanted=None,
    columns: list[str] | None = None,
    pred=None,
) -> pa.Table:
    """decode_chunk_table with an ENCODED-DOMAIN predicate: the search
    column's mask comes from chunk_mod.dict_domain_mask (dictionary
    matched once, codes tested as ints — row values never materialized)
    and a chunk group whose mask is all-false skips decoding its other
    columns entirely. This fires even when min/max stats cannot prune —
    a low-cardinality column's every chunk typically spans the whole
    value range, so stats keep everything while the dictionary knows
    the group has no matching rows at all. Chunks whose codec has no
    encoded domain (dict_domain_mask -> None) fall back to decode +
    pc.is_in, so results never depend on the selector's codec choice.

    With `pred` (instead of `wanted`): an arbitrary vectorized predicate
    (pa.Array -> bool mask, nulls False) evaluated over the DICTIONARY
    values — O(dict) pattern evaluations — falling back to pred over the
    decoded rows for non-dict codecs. The pred sees storage-typed values
    (byte-array dictionaries are large_binary), so use type-agnostic
    kernels (pc.starts_with & friends accept binary inputs)."""
    import pyarrow.compute as pc

    if (wanted is None) == (pred is None):
        raise ValueError("pass exactly one of wanted / pred")

    shared_dicts: dict[str, pa.Array] = {}
    dict_mask = pc.equal(chunks.column("codec"), "dict_page")
    if pc.any(dict_mask).as_py():
        pages = chunks.filter(dict_mask)
        for col, payload in zip(pages.column("column"), pages.column("payload")):
            shared_dicts[col.as_py()] = chunk_mod.decode_array(payload.as_buffer())
        chunks = chunks.filter(pc.invert(dict_mask))
    ids = chunks.column("chunk_id").to_numpy(zero_copy_only=False)
    if len(ids) == 0:
        return pa.table({})
    change = np.nonzero(ids[1:] != ids[:-1])[0] + 1
    starts = np.concatenate(([0], change, [len(ids)]))
    tables = []
    for a, b in zip(starts[:-1], starts[1:]):
        group = chunks.slice(int(a), int(b - a))
        names = group.column("column").to_pylist()
        payloads = group.column("payload")
        crcs = group.column("crc32")
        try:
            pred_i = names.index(column)
        except ValueError:
            raise chunk_mod.ChunkError(
                f"search column {column!r} missing from chunk group"
            ) from None
        blob = payloads[pred_i].as_buffer()
        if pred is not None:
            mask = _verified(
                blob, crcs[pred_i].as_py(), column,
                chunk_mod.dict_domain_mask_pred,
                pred=pred, shared_dict=shared_dicts.get(column),
            )
        else:
            mask = _verified(
                blob, crcs[pred_i].as_py(), column,
                chunk_mod.dict_domain_mask,
                wanted=wanted, shared_dict=shared_dicts.get(column),
            )
        pred_arr = None
        if mask is None:  # codec has no encoded domain: decode + compare
            pred_arr = chunk_mod.decode_array(
                blob, shared_dict=shared_dicts.get(column)
            )
            if pred is not None:
                m = pred(pred_arr)
                if isinstance(m, (pa.Array, pa.ChunkedArray)):
                    m = pc.fill_null(m, False).to_numpy(
                        zero_copy_only=False
                    )
                mask = np.asarray(m, dtype=bool)
            else:
                vs = pa.array(list(wanted))
                if pa.types.is_string(
                    pred_arr.type
                ) or pa.types.is_large_string(pred_arr.type):
                    vs = vs.cast(pred_arr.type)
                mask = pc.is_in(pred_arr, value_set=vs).to_numpy(
                    zero_copy_only=False
                )
        if not mask.any():
            continue  # whole group skipped: other columns never decode
        sel = pa.array(mask)
        order = np.argsort(
            group.column("col_idx").to_numpy(zero_copy_only=False)
        )
        out_names, out_arrays = [], []
        for i in order:
            name = names[int(i)]
            if columns is not None and name not in columns:
                continue
            if name == column and pred_arr is not None:
                arr = pred_arr
            else:
                arr = _verified(
                    payloads[int(i)].as_buffer(), crcs[int(i)].as_py(), name,
                    chunk_mod.decode_array, shared_dict=shared_dicts.get(name),
                )
            out_names.append(name)
            out_arrays.append(arr.filter(sel))
        tables.append(pa.table(dict(zip(out_names, out_arrays))))
    if not tables:
        return pa.table({})
    return pa.concat_tables(tables)
