"""Row deletion on the encode store WITHOUT rewriting it: tombstones.

No analogue in the reference (parquet-go files are write-once,
writer.go); this exists because a 100 TB corpus store receives deletion
obligations (opt-outs, retractions, right-to-be-forgotten batches) long
before its next full rewrite. Two-phase delta-lake shape:

  1. `delete_where(store, column, values)` appends a TOMBSTONE file —
     KBs of typed values, atomic rename, zero data touched. The read
     paths (`decode_dataset`, `decode_dataset_pruned`, `point_lookup`)
     load surviving tombstones ONCE at plan time (driver-side, metadata
     scale) and apply them as a vectorized anti-filter (invert(is_in))
     after decode. Deletes are small by contract — corpus-scale removal
     is a curation rewrite, not a tombstone.
  2. `purge_tombstones(store)` physically reclaims: only shards whose
     per-chunk [vmin, vmax] stats CAN contain a tombstoned value
     (conservative on missing / truncated / cross-typed stats) are
     re-encoded without the matching rows, under the compaction
     intent-log protocol (`purge-<hash>` groups, pipelines/compact.py);
     the tombstone files present at plan time are removed only after
     every candidate shard commits. A crash mid-purge leaves the
     tombstones in place, so reads stay correct and a re-run completes
     the remainder — idempotent, never duplicates or resurrects rows.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

import ray
import ray.data

_COLUMN_META = b"tombstone_column"


def _tomb_dir(store_dir: str) -> Path:
    return Path(store_dir) / "tombstones"


def delete_where(store_dir: str, column: str, values) -> dict:
    """Record a deletion: every row whose `column` equals any of
    `values` disappears from subsequent reads. Values keep their Arrow
    type (string keys, int ids, ...). Idempotent: re-issuing the same
    delete is a no-op (content-addressed file name)."""
    from ..state import manifest

    manifest.check_format_version(store_dir, "delete")
    if isinstance(values, pa.ChunkedArray):
        values = values.combine_chunks()
    arr = values if isinstance(values, pa.Array) else pa.array(values)
    arr = pc.unique(arr)
    if not len(arr):
        return {"column": column, "values": 0, "file": None}
    tid = hashlib.sha1(
        column.encode() + b"\x00" + str(arr.to_pylist()).encode()
    ).hexdigest()[:12]
    d = _tomb_dir(store_dir)
    d.mkdir(parents=True, exist_ok=True)
    dest = d / f"ts-{tid}.parquet"
    if not dest.exists():
        t = pa.table({"value": arr}).replace_schema_metadata(
            {_COLUMN_META: column.encode()}
        )
        tmp = d / f".ts-{tid}.tmp{os.getpid()}"
        pq.write_table(t, tmp)
        os.replace(tmp, dest)
    return {"column": column, "values": len(arr), "file": str(dest)}


def load_tombstones(store_dir: str) -> dict[str, pa.Array]:
    """column -> deduped value array, across every surviving tombstone
    file. Driver-side by design: tombstones are KB-scale metadata."""
    out: dict[str, list[pa.Array]] = {}
    d = _tomb_dir(store_dir)
    if not d.is_dir():
        return {}
    for p in sorted(d.glob("ts-*.parquet")):
        t = pq.read_table(p)
        col = (t.schema.metadata or {}).get(_COLUMN_META)
        if col is None:
            continue
        out.setdefault(col.decode(), []).append(
            t.column("value").combine_chunks()
        )
    return {
        c: pc.unique(pa.concat_arrays(arrs)) for c, arrs in out.items()
    }


def plan_tombstone_projection(
    store_dir: str, columns: list[str] | None
) -> tuple[dict[str, pa.Array], list[str] | None, list[str]]:
    """Load surviving tombstones and widen a column projection so every
    tombstoned column rides the decode for the anti-filter: returns
    (tombs, columns_to_decode, drop_after). Read operators that accept
    a `columns` projection use this so deletion semantics never depend
    on whether the caller happened to project the tombstoned column —
    the route-independence contract the query router relies on."""
    tombs = load_tombstones(store_dir)
    if not tombs or columns is None:
        return tombs, columns, []
    drop = [c for c in tombs if c not in columns]
    cols = list(columns) + drop if drop else columns
    return tombs, cols, drop


def tomb_mask(t: pa.Table, tombs: dict[str, pa.Array]):
    """Boolean keep-mask for a decoded table under `tombs` (None when
    nothing applies) — the same filter anti_filter applies, exposed for
    operators that must filter BEFORE an order-dependent truncation
    (top-k) rather than as a trailing Dataset stage."""
    mask = None
    for col, vals in tombs.items():
        if col in t.column_names:
            m = pc.invert(pc.is_in(t.column(col), value_set=vals))
            mask = m if mask is None else pc.and_(mask, m)
    return mask


def anti_filter(
    ds: ray.data.Dataset,
    tombs: dict[str, pa.Array],
    drop: list[str] | None = None,
) -> ray.data.Dataset:
    """Apply tombstones to a decoded Dataset: one vectorized
    invert(is_in) per tombstoned column, then drop any columns that
    were decoded only for the filter. The tombstone dict rides the
    object store once (`ray.put`), not per batch."""
    if not tombs:
        return ds
    ref = ray.put(tombs)
    drop = list(drop or [])

    def filt(t: pa.Table) -> pa.Table:
        tb = ray.get(ref)
        for col, vals in tb.items():
            if col in t.column_names:
                t = t.filter(
                    pc.invert(
                        pc.is_in(t.column(col), value_set=vals)
                    )
                )
        if drop:
            t = t.drop_columns([c for c in drop if c in t.column_names])
        return t

    return ds.map_batches(filt, batch_format="pyarrow", zero_copy_batch=True)


def store_bloom_columns(store_dir: str) -> tuple[str, ...]:
    """The store's bloom sidecar config, for rewrites (purge / upsert /
    changelog append) to preserve: primarily from the persisted job
    meta; for stores written before the meta carried it, inferred from
    one chunk file's (column, bloom) sidecar rows (documented
    approximation — job meta is authoritative on every new store)."""
    from ..state import manifest

    meta = manifest.load_job_meta(store_dir)
    if meta and "bloom_columns" in meta:
        return tuple(meta["bloom_columns"])
    from .decode import chunk_files

    files = chunk_files(store_dir)
    if not files:
        return ()
    t = pq.read_table(files[0], columns=["column", "bloom"])
    cols = {
        c.as_py()
        for c, b in zip(t.column("column"), t.column("bloom"))
        if b.is_valid
    }
    return tuple(sorted(cols))


def _maybe_contains(vmin_json, vmax_json, values: list) -> bool:
    """Conservative per-chunk candidacy: False ONLY when the stats
    prove no tombstoned value can be in [vmin, vmax]. Missing stats,
    truncated-to-+inf vmax, or cross-typed comparisons stay True."""
    try:
        vmin = json.loads(vmin_json) if vmin_json else None
        vmax = json.loads(vmax_json) if vmax_json else None
        for v in values:
            lo_ok = vmin is None or vmin <= v
            hi_ok = vmax is None or v <= vmax
            if lo_ok and hi_ok:
                return True
        return False
    except Exception:
        return True


def upsert_files(
    store_dir: str,
    files: list[str],
    key_col: str,
    rows_per_chunk: int = 4096,
    compression=None,
) -> dict:
    """Upsert new/changed rows into an existing store — the write side
    of the incremental-crawl loop (snapshot_diff classifies,
    upsert_files applies 'added'+'changed'). MERGE-ON-WRITE sequence:

      1. tombstone the incoming keys (delete_where)
      2. purge them physically (purge_tombstones) — ONLY old shards
         exist at this point, and only the stats-candidate subset
         rewrites, so a lazy tombstone can never hide the new versions
      3. append the new rows as ordinary shards (resumable encode_job)

    Crash-safe at every seam: a crash before 2 completes leaves the
    tombstone filtering old versions (reads see the pre-upsert corpus
    minus the keys — the transient merge state); a crash during 3
    resumes (completed shards skip). Re-running the whole upsert is
    idempotent. The key list is read COLUMN-PRUNED from the incoming
    files; an upsert batch is bounded by the crawl increment, not the
    corpus."""
    from ..state import manifest
    from .encode import encode_job

    # shard identity is the input file STEM (resume contract): an
    # increment file reusing an existing shard's name would be silently
    # resume-skipped in step 3 — refuse up front
    existing = manifest.completed_shards(store_dir)
    clash = sorted({Path(f).stem for f in files} & existing)
    if clash:
        raise ValueError(
            f"upsert_files: increment file stems collide with existing "
            f"shards {clash[:5]} — name crawl increments uniquely "
            f"(e.g. docs-<snapshot>-<n>.parquet)"
        )

    keys = pa.concat_arrays(
        [
            pq.read_table(f, columns=[key_col]).column(key_col).combine_chunks()
            for f in files
        ]
    )
    bloom_cols = store_bloom_columns(store_dir)
    tomb = delete_where(store_dir, key_col, keys)
    purged = purge_tombstones(
        store_dir, rows_per_chunk=rows_per_chunk, compression=compression
    )
    summary = encode_job(
        files,
        store_dir,
        rows_per_chunk=rows_per_chunk,
        compression=compression,
        resume=True,
        bloom_columns=bloom_cols,
    )
    return {
        "keys_tombstoned": tomb["values"],
        "rows_replaced": purged["rows_removed"],
        "rows_appended": summary["rows"],
        "shards_written": summary["shards_written"],
    }


def apply_changelog(
    store_dir: str,
    changelog_files: list[str],
    key_col: str,
    op_col: str = "op",
    rows_per_chunk: int = 4096,
    compression=None,
) -> dict:
    """Apply a CDC-style changelog batch to the store: rows with
    `op_col` == 'delete' carry only the key; rows with 'upsert' carry
    the full record (the op column is stripped before writing). A key
    present under BOTH ops ends up upserted (the upsert's own
    tombstone step supersedes the delete).

    Batch-level exactly-once: the staged upsert shards are named from
    the batch's content hash and an `_changelog/<hash>.applied` marker
    commits the batch — re-running an applied batch is a no-op, and a
    crashed run finishes through the same resume seams the plain
    upsert has (tombstones filter until the purge completes, encode
    resume skips finished shards)."""
    import hashlib
    import json as _json
    import os

    from ..state import manifest
    from .encode import encode_job

    tables = [pq.read_table(f) for f in changelog_files]
    log = pa.concat_tables(tables, promote_options="default")
    if op_col not in log.column_names:
        raise ValueError(f"changelog has no {op_col!r} column")
    ops = log.column(op_col)
    known = pc.is_in(ops, value_set=pa.array(["upsert", "delete"]))
    if not pc.all(known).as_py():
        bad = sorted(
            set(log.filter(pc.invert(known)).column(op_col).to_pylist())
        )
        raise ValueError(f"unknown changelog ops: {bad[:5]}")
    batch_id = hashlib.sha1()
    for f in sorted(changelog_files):
        batch_id.update(Path(f).read_bytes())
    batch = batch_id.hexdigest()[:12]
    marker_dir = Path(store_dir) / "_changelog"
    marker = marker_dir / f"{batch}.applied"
    if marker.exists():
        return {**_json.loads(marker.read_text()), "already_applied": True}

    ups = log.filter(pc.equal(ops, "upsert")).drop_columns([op_col])
    del_rows = log.filter(pc.equal(ops, "delete"))
    up_keys = set(ups.column(key_col).to_pylist())
    del_keys = [
        k
        for k in del_rows.column(key_col).to_pylist()
        if k not in up_keys
    ]
    deleted = 0
    if del_keys:
        deleted = delete_where(store_dir, key_col, del_keys)["values"]
        purge_tombstones(
            store_dir, rows_per_chunk=rows_per_chunk, compression=compression
        )
    summary = {"keys_deleted": deleted, "rows_upserted": int(ups.num_rows)}
    if ups.num_rows:
        import tempfile

        stage = tempfile.mkdtemp(prefix="pgr_changelog_")
        staged = os.path.join(stage, f"cdc-{batch}.parquet")
        pq.write_table(ups, staged)
        stem = Path(staged).stem
        if stem in manifest.completed_shards(store_dir):
            # crashed after the upsert finished, before the marker:
            # the batch's shard is fully committed — just mark
            pass
        else:
            keys = ups.column(key_col).combine_chunks()
            delete_where(store_dir, key_col, keys)
            purge_tombstones(
                store_dir,
                rows_per_chunk=rows_per_chunk,
                compression=compression,
            )
            encode_job(
                [staged],
                store_dir,
                rows_per_chunk=rows_per_chunk,
                compression=compression,
                resume=True,
                bloom_columns=store_bloom_columns(store_dir),
            )
    marker_dir.mkdir(parents=True, exist_ok=True)
    tmp = marker.with_suffix(".tmp")
    tmp.write_text(_json.dumps(summary))
    os.replace(tmp, marker)
    return summary


def purge_tombstones(
    store_dir: str,
    rows_per_chunk: int = 4096,
    compression: str | None = None,
    rename=None,
) -> dict:
    """Physically remove tombstoned rows, then retire the tombstone
    files that were present at plan time. Safe to re-run.

    `rename(shard) -> new_shard` overrides the rewritten shard's name
    (default: "purge-<sha>"). Bucketed layouts (spj / textindex) pass a
    renamer that keeps the bucket prefix (`bucket=00004` ->
    `bucket=00004+g<hex>`) so hash pruning survives the rewrite; the
    function must be DETERMINISTIC in the input name (retry idempotence
    keys on it) and must never return its input (the old shard is
    dropped after the new one commits)."""
    from ..state import manifest
    from .compact import _drop_shard, _recover, _write_members

    manifest.check_format_version(store_dir, "purge")
    _recover(store_dir)
    if rename is None:
        meta = manifest.load_job_meta(store_dir) or {}
        if meta.get("mode") == "merged_sorted":
            # range-layout stores must stay in the range=NNNNN namespace
            # (the range readers key grouping/join/order on it): rewrite
            # as a new GENERATION of the same range, which the readers
            # already merge in-task (ADVICE r4 #4)
            def rename(shard: str) -> str:
                base = shard.split("+g")[0]
                gen = hashlib.sha1(f"purge|{shard}".encode()).hexdigest()[:8]
                return f"{base}+g{gen}"

    tombs = load_tombstones(store_dir)
    tomb_files = sorted(_tomb_dir(store_dir).glob("ts-*.parquet"))
    if not tombs:
        return {"shards_rewritten": 0, "rows_removed": 0, "tombstones_retired": 0}

    # candidate shards from the per-chunk stats (metadata-scale scan)
    candidates: set[str] = set()
    all_shards = manifest.completed_shards(store_dir)
    for col, vals in tombs.items():
        pyvals = vals.to_pylist()
        lt = manifest.lineage_table(
            store_dir,
            columns=["shard", "column", "vmin", "vmax"],
            filters=[("column", "==", col)],
        )
        if lt is None:
            candidates |= all_shards
            continue
        seen_for_col: set[str] = set()
        for r in lt.to_pylist():
            seen_for_col.add(r["shard"])
            if r["shard"] in candidates:
                continue
            if _maybe_contains(r.get("vmin"), r.get("vmax"), pyvals):
                candidates.add(r["shard"])
        # shards with no lineage row for the column (legacy/json-only
        # manifests) stay conservative
        candidates |= all_shards - seen_for_col
    candidates &= all_shards
    if not candidates:
        for p in tomb_files:
            p.unlink()
        return {
            "shards_rewritten": 0,
            "rows_removed": 0,
            "tombstones_retired": len(tomb_files),
        }

    tombs_ref = ray.put(tombs)
    # rewritten shards keep the store's ORIGINAL bloom config: a purge
    # that dropped e.g. the doc_id sidecars would silently remove those
    # shards from point_lookup's probe set (ADVICE r4 #2)
    bloom_cols = store_bloom_columns(store_dir)
    # member files come from the manifest lineage, never a glob: an
    # orphaned chunk file (task committed data, crashed before the
    # manifest) must not be folded into the rewrite as duplicate rows
    # (ADVICE r4 #5)
    file_map = manifest.shard_file_map(store_dir, candidates)

    def purge_shard(batch: pa.Table) -> pa.Table:
        from ..stages.decode import decode_chunk_table
        from ..stages.encode import ChunkEncoder

        out = []
        tb = ray.get(tombs_ref)
        for row in batch.to_pylist():
            shard, shard_files = row["shard"], row["files"]
            gid = (
                rename(shard)
                if rename is not None
                else "purge-" + hashlib.sha1(shard.encode()).hexdigest()[:12]
            )
            if gid == shard:
                raise ValueError(
                    f"purge rename must produce a NEW shard name, got {gid!r}"
                )
            if (manifest.manifest_dir(store_dir) / f"{gid}.json").exists():
                # a retried task already committed this purge group
                _drop_shard(store_dir, shard)
                mf = manifest.manifest_dir(store_dir) / f"{gid}.members.json"
                if mf.exists():
                    mf.unlink()
                out.append({"shard": shard, "removed": 0})
                continue
            parts = []
            for f in shard_files:
                parts.append(decode_chunk_table(pq.read_table(f)))
            parts = [p for p in parts if p.num_columns]
            if not parts:
                out.append({"shard": shard, "removed": 0})
                continue
            rows = pa.concat_tables(parts, promote_options="default")
            before = rows.num_rows
            for col, vals in tb.items():
                if col in rows.column_names:
                    rows = rows.filter(
                        pc.invert(pc.is_in(rows.column(col), value_set=vals))
                    )
            removed = before - rows.num_rows
            if removed == 0:
                out.append({"shard": shard, "removed": 0})
                continue
            _write_members(store_dir, gid, [shard])
            if rows.num_rows:
                ChunkEncoder(
                    output_dir=store_dir,
                    rows_per_chunk=rows_per_chunk,
                    skip_completed=False,
                    compression=compression,
                    bloom_columns=bloom_cols,
                ).encode_shard(rows, gid)
            # (whole-shard deletion commits NO new manifest: dropping the
            # member is the entire change. A crash before the drop rolls
            # the intent back and the still-present tombstones keep reads
            # correct until the re-run — the safe direction either way.)
            _drop_shard(store_dir, shard)
            (manifest.manifest_dir(store_dir) / f"{gid}.members.json").unlink()
            out.append({"shard": shard, "removed": removed})
        return pa.Table.from_pylist(
            out,
            schema=pa.schema([("shard", pa.string()), ("removed", pa.int64())]),
        )

    items = [
        {"shard": s, "files": file_map.get(s, [])} for s in sorted(candidates)
    ]
    res = (
        ray.data.from_items(items, override_num_blocks=len(items))
        .map_batches(purge_shard, batch_format="pyarrow")
        .to_pandas()
    )
    # every candidate committed: the tombstones recorded at plan time
    # are fully materialized into the data — retire them
    for p in tomb_files:
        if p.exists():
            p.unlink()
    return {
        "shards_rewritten": int((res["removed"] > 0).sum()),
        "rows_removed": int(res["removed"].sum()),
        "tombstones_retired": len(tomb_files),
    }
