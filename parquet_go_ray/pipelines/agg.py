"""Aggregate pushdown over the encode store: answers that never decode
row values.

Two levels, mirroring what a columnar engine gets from its metadata:

- ``aggregate_meta``: COUNT/COUNT(col)/MIN/MAX straight from the
  manifest's ColumnIndex-style per-chunk stats (column_index.go:259-272
  parity) — no chunk file is ever opened. The manifest is ~1e-5 of the
  data; it is read as a column-pruned, predicate-pushed Dataset so the
  fold is distributed, and only per-task partials (a few numbers)
  reach the driver.

- ``group_count_store``: GROUP BY <col> COUNT(*) evaluated in the
  ENCODED domain (codecs/chunk.dict_domain_counts): each task reads
  only its chunk files' rows for the one column, bincounts the
  dictionary CODES, and ships (value, count) partials — the row values
  themselves are materialized nowhere; only each chunk's dictionary
  (n_distinct values) is. Chunks whose codec has no encoded domain
  fall back to decode + value_counts inside the same task, so results
  never depend on the selector's codec choice. The merge is a Ray
  groupby over distinct-value-bounded partials.

Both fall back to the decode path when the store carries tombstones
(deleted rows are invisible to chunk stats; correctness beats the
shortcut).
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

import ray.data


def _manifest_files(store: str) -> list[str]:
    from ..state import manifest as M

    return [str(p) for p in M.lineage_files(store)]


def aggregate_meta(store: str, column: str) -> pa.Table:
    """One-row (n_rows, n_nulls, vmin, vmax, vsum) for `column`, from
    manifest stats alone. COUNT/MIN/MAX/SUM are exact for integer /
    boolean columns (chunk sums serialize as arbitrary-precision ints);
    float sums are a deterministic fold of per-chunk IEEE partials;
    string stats are TRUNCATED at write time (parquet convention) so
    callers needing exact string bounds must decode. `vsum` is null
    when any chunk predates the sum stat or the type isn't summable.
    Falls back to a decode-based scan when tombstones exist."""
    from ..state import manifest as M
    from .tombstone import load_tombstones

    M.check_format_version(store, "aggregate")
    if load_tombstones(store):
        from .decode import decode_dataset

        def part(t: pa.Table) -> pa.Table:
            from ..stages.encode import _stat_sum

            col = t.column(column).combine_chunks()
            vsum = _stat_sum(col)
            return pa.table(
                {
                    "n": pa.array([t.num_rows], pa.int64()),
                    "nn": pa.array([col.null_count], pa.int64()),
                    "vmin": pa.array(
                        [json.dumps(pc.min(col).as_py(), default=str)],
                        pa.string(),
                    ),
                    "vmax": pa.array(
                        [json.dumps(pc.max(col).as_py(), default=str)],
                        pa.string(),
                    ),
                    "vsum": pa.array([vsum], pa.string()),
                    "sum_missing": pa.array([vsum is None], pa.bool_()),
                }
            )

        parts = (
            decode_dataset(store, columns=[column])
            .map_batches(part, batch_format="pyarrow")
            .to_pandas()
        )
    else:
        # pre-vsum stores lack the column entirely: detect from the
        # first manifest footer (metadata-only) and degrade to
        # vsum=null rather than erroring
        files = _manifest_files(store)
        if not files:
            raise FileNotFoundError(f"no manifest under {store}")
        have_vsum = "vsum" in pq.read_schema(files[0]).names
        cols = ["chunk_id", "column", "n", "n_null", "vmin", "vmax"]
        if have_vsum:
            cols.append("vsum")

        def fold(batch: pa.Table) -> pa.Table:
            batch = batch.filter(
                pc.not_equal(batch.column("chunk_id"), "__dict__")
            )
            lo = [json.loads(v) for v in batch.column("vmin").to_pylist() if v]
            hi = [json.loads(v) for v in batch.column("vmax").to_pylist() if v]
            sums = (
                batch.column("vsum").to_pylist()
                if "vsum" in batch.column_names
                else [None] * batch.num_rows
            )
            missing = any(v is None for v in sums)
            total = sum(json.loads(v) for v in sums if v is not None)
            return pa.table(
                {
                    "n": pa.array(
                        [int(np.sum(batch.column("n").to_numpy()))], pa.int64()
                    ),
                    "nn": pa.array(
                        [int(np.sum(batch.column("n_null").to_numpy()))],
                        pa.int64(),
                    ),
                    "vmin": pa.array(
                        [json.dumps(min(lo)) if lo else None], pa.string()
                    ),
                    "vmax": pa.array(
                        [json.dumps(max(hi)) if hi else None], pa.string()
                    ),
                    "vsum": pa.array([json.dumps(total)], pa.string()),
                    "sum_missing": pa.array([missing], pa.bool_()),
                }
            )

        parts = (
            ray.data.read_parquet(
                files,
                columns=cols,
                filter=(pc.field("column") == column),
            )
            .map_batches(fold, batch_format="pyarrow")
            .to_pandas()
        )
    lo = [json.loads(v) for v in parts["vmin"].dropna()]
    hi = [json.loads(v) for v in parts["vmax"].dropna()]
    if parts["sum_missing"].any():
        vsum = None
    else:
        vsum = sum(json.loads(v) for v in parts["vsum"].dropna())
    return pa.table(
        {
            "n_rows": pa.array([int(parts["n"].sum())], pa.int64()),
            "n_nulls": pa.array([int(parts["nn"].sum())], pa.int64()),
            "vmin": [min(lo) if lo else None],
            "vmax": [max(hi) if hi else None],
            "vsum": [vsum],
        }
    )


def group_count_store(
    store: str, column: str, out_value: str = "value", out_count: str = "n"
) -> ray.data.Dataset:
    """GROUP BY `column` COUNT(*) over the store, counted in the encoded
    domain wherever the chunk is dictionary-coded. Shuffle volume is
    (value, count) partials — bounded by distinct values × tasks, never
    row count. Null keys count into a null group, as SQL does."""
    from ..codecs import chunk as chunk_mod
    from ..state import manifest as M
    from .decode import chunk_files
    from .tombstone import load_tombstones

    M.check_format_version(store, "aggregate")
    if load_tombstones(store):
        from .decode import decode_dataset

        ds = decode_dataset(store, columns=[column])

        def vc(t: pa.Table) -> pa.Table:
            import pyarrow.compute as pc

            c = pc.value_counts(t.column(column).combine_chunks())
            return pa.table(
                {"value": c.field("values"), "n": c.field("counts").cast(pa.int64())}
            )

        parts = ds.map_batches(vc, batch_format="pyarrow")
    else:
        files = chunk_files(store)
        if not files:
            raise FileNotFoundError(f"no encoded chunks under {store}")

        def count_file(batch: pa.Table) -> pa.Table:
            import pyarrow.compute as pc

            col = "path" if "path" in batch.column_names else "item"
            vals, cnts = [], []
            nulls = 0
            for path in batch.column(col).to_pylist():
                chunks = pq.read_table(
                    path, filters=[("column", "==", column)]
                )
                shared = None
                for cid, payload in zip(
                    chunks.column("chunk_id").to_pylist(),
                    chunks.column("payload").to_pylist(),
                ):
                    if cid == "__dict__":
                        shared = chunk_mod.decode_array(payload)
                for cid, payload in zip(
                    chunks.column("chunk_id").to_pylist(),
                    chunks.column("payload").to_pylist(),
                ):
                    if cid == "__dict__":
                        continue
                    got = chunk_mod.dict_domain_counts(payload, shared)
                    if got is not None:
                        v, c, nn = got
                        nulls += nn
                        keep = c > 0  # dict may hold values from other chunks
                        vals.append(v.filter(pa.array(keep)))
                        cnts.append(c[keep])
                    else:
                        arr = chunk_mod.decode_array(payload, shared_dict=shared)
                        nulls += arr.null_count
                        vc_ = pc.value_counts(arr.drop_null())
                        vals.append(vc_.field("values"))
                        cnts.append(
                            vc_.field("counts").cast(pa.int64()).to_numpy()
                        )
            if not vals:
                raise chunk_mod.ChunkError(
                    f"column {column!r} missing from chunk files"
                )
            value = pa.concat_arrays([v.combine_chunks() if isinstance(v, pa.ChunkedArray) else v for v in vals])
            n = pa.array(np.concatenate([np.asarray(c) for c in cnts]), pa.int64())
            t = pa.table({"value": value, "n": n})
            # combine within the task so partials are distinct-bounded
            t = pa.TableGroupBy(t, "value").aggregate([("n", "sum")])
            t = t.rename_columns(["value", "n"])
            if nulls:
                t = pa.concat_tables(
                    [
                        t,
                        pa.table(
                            {
                                "value": pa.array([None], t.column("value").type),
                                "n": pa.array([nulls], pa.int64()),
                            }
                        ),
                    ]
                )
            return t

        parts = ray.data.from_items(
            files, override_num_blocks=max(1, min(64, len(files)))
        ).map_batches(count_file, batch_format="pyarrow", batch_size=None)

    # hash-partitioned fold, NOT groupby("value").sum: Ray's per-key
    # aggregate pays Python-per-key time that explodes on high-
    # cardinality columns (39.7 s for one float sum over 147k keys at
    # sf0.1 — SCALE.md engine rule); each partition folds its values in
    # one Arrow hash-aggregate pass instead
    def merge_pt(t: pa.Table) -> pa.Table:
        g = pa.TableGroupBy(t.select(["value", "n"]), "value").aggregate(
            [("n", "sum")]
        )
        return g.rename_columns(["value", "n"])

    merged = (
        parts.map_batches(_add_value_partition, batch_format="pyarrow")
        .groupby("pt")
        .map_groups(merge_pt, batch_format="pyarrow")
    )

    def finish(t: pa.Table) -> pa.Table:
        t = t.rename_columns([out_value, out_count])
        return t.set_column(
            1, out_count, t.column(out_count).cast(pa.int64())
        )

    return merged.map_batches(finish, batch_format="pyarrow")


def _add_value_partition(t: pa.Table, partitions: int = 64) -> pa.Table:
    """Stable hash partition of the 'value' column (null -> a reserved
    token), so distinct/count merges exchange on a small int key."""
    from ..functions.hashing import stable_hash_strings

    try:
        s = pc.cast(t.column("value"), pa.string())
        arr = s.to_pandas().fillna("\x00<null>").to_numpy(dtype=object)
    except pa.ArrowInvalid:
        arr = np.array(
            ["\x00<null>" if v is None else repr(v) for v in t.column("value").to_pylist()],
            dtype=object,
        )
    pt = (stable_hash_strings(arr) % np.uint64(partitions)).astype(np.int64)
    return t.append_column("pt", pa.array(pt))


def distinct_store(
    store: str, column: str, out_value: str = "value"
) -> ray.data.Dataset:
    """SELECT DISTINCT `column` evaluated from chunk DICTIONARIES: a
    chunk-local dictionary is built first-seen from the chunk's own
    values, so its entries ARE the chunk's distinct set — no index
    stream, let alone row values, is decoded (dict_domain_values).
    dict_shared chunks fall back to code counts (the file dictionary is
    a superset of any one chunk) and other codecs to decode + unique,
    inside the same task. Shuffle volume: per-task distinct values
    only. Null appears as its own row when present, as SQL DISTINCT
    surfaces it."""
    from ..codecs import chunk as chunk_mod
    from ..state import manifest as M
    from .decode import chunk_files
    from .tombstone import load_tombstones

    M.check_format_version(store, "aggregate")
    if load_tombstones(store):
        from .decode import decode_dataset

        ds = decode_dataset(store, columns=[column])

        def uniq(t: pa.Table) -> pa.Table:
            return pa.table(
                {"value": pc.unique(t.column(column).combine_chunks())}
            )

        parts = ds.map_batches(uniq, batch_format="pyarrow")
    else:
        files = chunk_files(store)
        if not files:
            raise FileNotFoundError(f"no encoded chunks under {store}")

        def distinct_file(batch: pa.Table) -> pa.Table:
            col = "path" if "path" in batch.column_names else "item"
            vals = []
            saw_null = False
            for path in batch.column(col).to_pylist():
                chunks = pq.read_table(
                    path, filters=[("column", "==", column)]
                )
                shared = None
                payloads = chunks.column("payload").to_pylist()
                cids = chunks.column("chunk_id").to_pylist()
                for cid, payload in zip(cids, payloads):
                    if cid == "__dict__":
                        shared = chunk_mod.decode_array(payload)
                for cid, payload in zip(cids, payloads):
                    if cid == "__dict__":
                        continue
                    got = chunk_mod.dict_domain_values(payload)
                    if got is not None:
                        v, nn = got
                    else:
                        counted = chunk_mod.dict_domain_counts(
                            payload, shared
                        )
                        if counted is not None:
                            dv, c, nn = counted
                            v = dv.filter(pa.array(c > 0))
                        else:
                            arr = chunk_mod.decode_array(
                                payload, shared_dict=shared
                            )
                            nn = arr.null_count
                            v = pc.unique(arr.drop_null())
                    saw_null = saw_null or nn > 0
                    vals.append(
                        v.combine_chunks()
                        if isinstance(v, pa.ChunkedArray)
                        else v
                    )
            if not vals:
                raise chunk_mod.ChunkError(
                    f"column {column!r} missing from chunk files"
                )
            value = pc.unique(pa.concat_arrays(vals))
            t = pa.table({"value": value})
            if saw_null:
                t = pa.concat_tables(
                    [t, pa.table({"value": pa.array([None], value.type)})]
                )
            return t

        parts = ray.data.from_items(
            files, override_num_blocks=max(1, min(64, len(files)))
        ).map_batches(distinct_file, batch_format="pyarrow", batch_size=None)

    # hash-partitioned unique fold (same engine rule as group counts):
    # each partition reduces to its own distinct set in one pc.unique
    def merge_pt(t: pa.Table) -> pa.Table:
        u = pc.unique(t.column("value").combine_chunks())
        return pa.table({"value": u})

    merged = (
        parts.map_batches(_add_value_partition, batch_format="pyarrow")
        .groupby("pt")
        .map_groups(merge_pt, batch_format="pyarrow")
    )

    def finish(t: pa.Table) -> pa.Table:
        return t.select(["value"]).rename_columns([out_value])

    return merged.map_batches(finish, batch_format="pyarrow")


def aggregate_range(
    store: str,
    agg_col: str,
    where_col: str,
    lo=None,
    hi=None,
) -> pa.Table:
    """Filtered aggregate with zone-map short-circuiting: one-row
    (n_rows, vsum) of `agg_col` over rows where `where_col` is in
    [lo, hi]. Chunks whose [vmin, vmax] lie FULLY inside the predicate
    contribute their manifest stats (n, vsum — no decode); chunks
    strictly outside are skipped; only BOUNDARY chunks decode, and those
    read just the two columns involved. On a store sorted/clustered by
    `where_col` the boundary set is O(1) chunks regardless of corpus
    size — the classic zone-map aggregate. Exactness matches
    aggregate_meta (integer sums exact; boundary-chunk nulls in
    `where_col` never match, as in SQL). Tombstoned stores fall back to
    a full decode-and-filter scan."""
    from ..codecs import chunk as chunk_mod
    from ..state import manifest as M
    from .decode import chunk_files
    from .tombstone import load_tombstones

    M.check_format_version(store, "aggregate")
    tombs = load_tombstones(store)
    if tombs:
        from .decode import decode_dataset

        def part_t(t: pa.Table) -> pa.Table:
            m = pa.array(np.ones(t.num_rows, dtype=bool))
            w = t.column(where_col)
            if lo is not None:
                m = pc.and_(m, pc.greater_equal(w, lo))
            if hi is not None:
                m = pc.and_(m, pc.less_equal(w, hi))
            m = pc.fill_null(m, False)
            kept = t.filter(m)
            return pa.table(
                {
                    "n": pa.array([kept.num_rows], pa.int64()),
                    "s": pa.array(
                        [int(pc.sum(kept.column(agg_col)).as_py() or 0)],
                        pa.int64(),
                    ),
                }
            )

        parts = (
            decode_dataset(store, columns=[where_col, agg_col])
            .map_batches(part_t, batch_format="pyarrow")
            .to_pandas()
        )
        return pa.table(
            {
                "n_rows": pa.array([int(parts["n"].sum())], pa.int64()),
                "vsum": pa.array([int(parts["s"].sum())], pa.int64()),
            }
        )

    # classify chunks from the manifest (metadata only): the where
    # column's rows give [vmin, vmax]; the agg column's rows (same
    # chunk_id) give (n, vsum) for the interior contribution. Pre-vsum
    # stores classify every overlapping chunk as boundary (decode).
    mfiles = _manifest_files(store)
    cols = ["shard", "file", "chunk_id", "column", "n", "n_null", "vmin", "vmax"]
    if mfiles and "vsum" in pq.read_schema(mfiles[0]).names:
        cols.append("vsum")
    t = M.lineage_table(
        store,
        columns=cols,
        filters=[("column", "in", [where_col, agg_col])],
    )
    if t is None:
        raise FileNotFoundError(f"no manifest under {store}")
    rows = [r for r in t.to_pylist() if r["chunk_id"] != "__dict__"]
    where_rows = {r["chunk_id"]: r for r in rows if r["column"] == where_col}
    agg_rows = {r["chunk_id"]: r for r in rows if r["column"] == agg_col}
    interior_n = 0
    interior_sum = 0
    boundary: dict[str, set[str]] = {}
    root = Path(store) / "data"
    # interior = the where column's [vmin, vmax] lies fully inside the
    # predicate AND the chunk has no where-nulls (a null never matches):
    # every row of such a chunk matches, so (n, vsum) come from stats
    for cid, wr in where_rows.items():
        vmin = json.loads(wr["vmin"]) if wr.get("vmin") else None
        vmax = json.loads(wr["vmax"]) if wr.get("vmax") else None
        ar = agg_rows.get(cid)
        if ar is None:
            continue
        if (lo is not None and vmax is not None and vmax < lo) or (
            hi is not None and vmin is not None and vmin > hi
        ):
            continue
        inside = (
            vmin is not None
            and vmax is not None
            and (lo is None or vmin >= lo)
            and (hi is None or vmax <= hi)
            and wr["n_null"] == 0
        )
        if inside and ar.get("vsum") is not None:
            interior_n += int(wr["n"])
            interior_sum += json.loads(ar["vsum"])
        else:
            boundary.setdefault(
                str(root / wr["shard"] / f"{wr['file']}.parquet"), set()
            ).add(cid)

    bn = bs = 0
    if boundary:
        items = [
            {"path": p, "chunk_ids": sorted(cids)}
            for p, cids in sorted(boundary.items())
        ]

        def part_b(batch: pa.Table) -> pa.Table:
            from ..stages.decode import decode_chunk_table

            n = s = 0
            for row in batch.to_pylist():
                chunks = pq.read_table(
                    row["path"],
                    filters=[
                        ("column", "in", [where_col, agg_col]),
                        ("chunk_id", "in", row["chunk_ids"] + ["__dict__"]),
                    ],
                )
                dec = decode_chunk_table(chunks)
                w = dec.column(where_col)
                m = pa.array(np.ones(dec.num_rows, dtype=bool))
                if lo is not None:
                    m = pc.and_(m, pc.greater_equal(w, lo))
                if hi is not None:
                    m = pc.and_(m, pc.less_equal(w, hi))
                kept = dec.filter(pc.fill_null(m, False))
                n += kept.num_rows
                s += int(pc.sum(kept.column(agg_col)).as_py() or 0)
            return pa.table(
                {"n": pa.array([n], pa.int64()), "s": pa.array([s], pa.int64())}
            )

        parts = (
            ray.data.from_items(
                items, override_num_blocks=max(1, min(64, len(items)))
            )
            .map_batches(part_b, batch_format="pyarrow", batch_size=None)
            .to_pandas()
        )
        bn, bs = int(parts["n"].sum()), int(parts["s"].sum())
    return pa.table(
        {
            "n_rows": pa.array([interior_n + bn], pa.int64()),
            "vsum": pa.array([interior_sum + bs], pa.int64()),
        }
    )


def histogram_store(store: str, column: str, width: int) -> pa.Table:
    """Exact fixed-width histogram (GROUP BY floor(col/width)) with
    zone-map short-circuiting: a chunk whose [vmin, vmax] falls inside
    ONE bucket contributes its manifest row count without decoding —
    on a store clustered by `column` that is almost every chunk
    (chmod-000 pytest) — and only bucket-straddling chunks decode, one
    column each, bincounting in their own task. NULLs never count
    (mirror the SQL oracle's IS NOT NULL). Tombstoned stores fall back
    to the full decode-and-count scan. The distribution profile of a
    petabyte clustered column costs manifest I/O plus a handful of
    boundary chunks."""
    from ..state import manifest as M
    from .tombstone import load_tombstones, tomb_mask

    M.check_format_version(store, "histogram")
    tombs = load_tombstones(store)

    def bucketize(vals: np.ndarray) -> pd.Series:
        return pd.Series(np.floor_divide(vals, width).astype(np.int64))

    if tombs:
        from .decode import decode_dataset

        def part_t(t: pa.Table) -> pd.DataFrame:
            col = t.column(column)
            col = col.filter(pc.is_valid(col))
            b = bucketize(col.to_numpy(zero_copy_only=False))
            g = b.value_counts()
            return pd.DataFrame(
                {"bucket": g.index.to_numpy(np.int64), "n": g.to_numpy(np.int64)}
            )

        parts = (
            decode_dataset(store, columns=[column])
            .map_batches(part_t, batch_format="pyarrow")
            .to_pandas()
        )
        g = parts.groupby("bucket", as_index=False)["n"].sum().sort_values("bucket")
        return pa.table(
            {
                "bucket": pa.array(g["bucket"].to_numpy(np.int64)),
                "n": pa.array(g["n"].to_numpy(np.int64)),
            }
        )

    t = M.lineage_table(
        store,
        columns=["shard", "file", "chunk_id", "column", "n", "n_null", "vmin", "vmax"],
        filters=[("column", "==", column)],
    )
    if t is None:
        raise FileNotFoundError(f"no manifest under {store}")
    interior: dict[int, int] = {}
    boundary: dict[str, set[str]] = {}
    root = Path(store) / "data"
    for r in t.to_pylist():
        if r["chunk_id"] == "__dict__":
            continue
        nn = int(r["n"]) - int(r["n_null"])
        if nn == 0:
            continue
        vmin = json.loads(r["vmin"]) if r.get("vmin") else None
        vmax = json.loads(r["vmax"]) if r.get("vmax") else None
        if (
            vmin is not None
            and vmax is not None
            and int(r["n_null"]) == 0
            and vmin // width == vmax // width
        ):
            b = int(vmin // width)
            interior[b] = interior.get(b, 0) + nn
        else:
            boundary.setdefault(
                str(root / r["shard"] / f"{r['file']}.parquet"), set()
            ).add(r["chunk_id"])

    counts: dict[int, int] = dict(interior)
    if boundary:
        items = [
            {"path": p, "chunk_ids": sorted(cids)}
            for p, cids in sorted(boundary.items())
        ]

        def part_b(batch: pa.Table) -> pd.DataFrame:
            from ..stages.decode import decode_chunk_table

            out: dict[int, int] = {}
            for row in batch.to_pylist():
                chunks = pq.read_table(
                    row["path"],
                    filters=[
                        ("column", "in", [column]),
                        ("chunk_id", "in", row["chunk_ids"] + ["__dict__"]),
                    ],
                )
                dec = decode_chunk_table(chunks)
                col = dec.column(column)
                col = col.filter(pc.is_valid(col))
                b = bucketize(col.to_numpy(zero_copy_only=False))
                for k, v in b.value_counts().items():
                    out[int(k)] = out.get(int(k), 0) + int(v)
            return pd.DataFrame(
                {
                    "bucket": np.array(sorted(out), dtype=np.int64),
                    "n": np.array([out[k] for k in sorted(out)], dtype=np.int64),
                }
            )

        parts = (
            ray.data.from_items(
                items, override_num_blocks=max(1, min(64, len(items)))
            )
            .map_batches(part_b, batch_format="pyarrow", batch_size=None)
            .to_pandas()
        )
        for _, row in parts.iterrows():
            b = int(row["bucket"])
            counts[b] = counts.get(b, 0) + int(row["n"])
    ks = sorted(counts)
    return pa.table(
        {
            "bucket": pa.array(np.array(ks, dtype=np.int64)),
            "n": pa.array(np.array([counts[k] for k in ks], dtype=np.int64)),
        }
    )
