"""Zero-shuffle merge of SORTED encode stores — the LSM level merge.

The reference merges sorted row groups row-by-row through a heap
(merge.go:84-99, MergeRowGroups); at store scale that serializes on a
single reader. Here the merge is RANGE-PLANNED instead: the driver
reads only the inputs' manifests (per-chunk [vmin, vmax, n] on the
sort key — metadata ~1e-5 of the data), cuts the key domain into R
row-balanced ranges, and each range becomes one independent task that
reads just the chunks intersecting its range from every input
(chunk-id-filtered parquet reads), drops rows outside [lo, hi), sorts
the range in-memory, and commits it as shard ``range=NNNNN`` of the
output store with its manifest written in-task. No two tasks share a
row, ranges are disjoint and ordered, so the output store is GLOBALLY
sorted by construction — with zero all-to-all: the only cross-node
bytes are each task's own chunk reads.

Resume: a range whose output shard manifest exists is skipped, so a
crashed merge continues where it stopped. Skew: boundaries are cut
from per-chunk row counts; a single key duplicated beyond a range's
budget lands in one range (documented — the same bound any
range-partitioned sort has). NULL sort keys route to the final range
(nulls-last, matching the store's stat ordering).

Incremental ingest (`merge_into`): a new store's rows route into the
EXISTING ranges (bounds frozen in the meta) as a GENERATION of shards
(``range=NNNNN+g<hex>``, the text index's generation scheme) — the
base shards are never rewritten, so an increment costs O(increment).
Readers group a range's generations together and merge-sort them
in-task; `compact_merged` folds generations back to one shard per
range.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

import ray.data


def _key_chunks(store_dir: str, key: str) -> list[dict]:
    """Per-chunk (path, chunk_id, vmin, vmax, n, nulls_only) metadata
    rows for the sort key, from the manifest only."""
    from ..state import manifest

    t = manifest.lineage_table(
        store_dir,
        columns=["shard", "file", "chunk_id", "column", "vmin", "vmax", "n", "n_null"],
        filters=[("column", "==", key)],
    )
    if t is None:
        raise FileNotFoundError(f"no manifest under {store_dir}")
    root = Path(store_dir) / "data"
    out = []
    for r in t.to_pylist():
        vmin = json.loads(r["vmin"]) if r.get("vmin") else None
        vmax = json.loads(r["vmax"]) if r.get("vmax") else None
        out.append(
            {
                "path": str(root / r["shard"] / f"{r['file']}.parquet"),
                "chunk_id": r["chunk_id"],
                "vmin": vmin,
                "vmax": vmax,
                "n": int(r["n"]),
                "all_null": r["n_null"] == r["n"],
                "has_null": bool(r["n_null"]),
            }
        )
    if not out:
        raise ValueError(f"sort key {key!r} not present in {store_dir}")
    return out


def _cut_boundaries(chunks: list[dict], num_ranges: int) -> list:
    """Row-balanced cut points over the key domain, derived from chunk
    [vmin, vmax, n] stats: each chunk's rows are attributed to its vmin
    (a conservative histogram — exact balance needs the data, but chunk
    stats get within a chunk of it)."""
    pts = sorted(
        (c["vmin"], c["n"]) for c in chunks if c["vmin"] is not None
    )
    if not pts:
        return []
    total = sum(n for _, n in pts)
    per = max(1, total // num_ranges)
    bounds = []
    acc = 0
    for v, n in pts:
        if acc >= per * (len(bounds) + 1) and (not bounds or v > bounds[-1]):
            bounds.append(v)
        acc += n
    return bounds


ROWS_PER_RANGE_TARGET = 1_000_000  # ~a worker-heap-sized range


def merge_sorted_stores(
    store_dirs: list[str],
    out_dir: str,
    key: str,
    num_ranges: int | None = None,
    rows_per_chunk: int = 4096,
    resume: bool = True,
    bounds: list | None = None,
    extra_sort_keys: tuple[str, ...] = (),
) -> dict:
    """Merge k stores, each sorted (or not — only the OUTPUT's order is
    guaranteed) into one globally sorted store. Returns a summary.

    `bounds` overrides the stats-derived cut points — pass another
    merged store's recorded bounds to CO-RANGE-PARTITION two tables on
    compatible keys, which makes range_join a zero-shuffle local join
    per co-indexed shard.

    `extra_sort_keys` order ties of `key` (the reference's
    SortingColumns, sorting.go:79-133): partitioning stays on `key`
    alone, but since every tie of a boundary value lands in ONE range,
    the in-task (key, *extra) sort yields the global multi-key order."""
    from ..codecs.registry import FORMAT_VERSION
    from ..state import manifest

    for s in store_dirs:
        manifest.check_format_version(s, "merge")
    # surviving tombstones of each input must not leak into the merge:
    # loaded driver-side (KB metadata), shipped once via the object
    # store, applied as a vectorized anti-filter inside each range task
    from .tombstone import load_tombstones

    tombs = {s: load_tombstones(s) for s in store_dirs}
    tombs_ref = ray.put(tombs) if any(tombs.values()) else None
    metas = {s: _key_chunks(s, key) for s in store_dirs}
    if bounds is None:
        if num_ranges is None:
            # a range is the in-task memory unit for merge, read and
            # compact alike — size the count so a range fits a worker's
            # heap instead of making the caller guess
            total = sum(c["n"] for cs in metas.values() for c in cs)
            num_ranges = max(1, -(-total // ROWS_PER_RANGE_TARGET))
        bounds = _cut_boundaries(
            [c for cs in metas.values() for c in cs], num_ranges
        )
    manifest.write_job_meta(
        out_dir,
        {
            "mode": "merged_sorted",
            "key": key,
            "inputs": [str(s) for s in store_dirs],
            "format_version": FORMAT_VERSION,
            "sorted_by": [key, *extra_sort_keys],
            "bounds": list(bounds),
        },
    )
    done = set(manifest.completed_shards(out_dir)) if resume else set()
    items = _range_items(metas, bounds, lambda i: f"range={i:05d}", done)
    if not items:
        return {"ranges": 0, "rows": 0, "skipped": len(done)}
    summary = _encode_ranges(
        items, out_dir, [key, *extra_sort_keys], tombs_ref, rows_per_chunk
    )
    return {
        "ranges": int(len(summary)),
        "rows": int(summary["rows"].sum()),
        "enc_nbytes": int(summary["enc_nbytes"].sum()),
        "skipped": len(done),
    }


def _range_items(
    metas: dict[str, list[dict]], bounds: list, shard_of, done: set
) -> list[dict]:
    """One task item per key range (-inf, b0), [b0, b1), ... [bk, +inf]
    whose shard (`shard_of(range index)`) is not in `done`: the
    chunk files and chunk ids of every input store that intersect the
    range. NULL keys route to the last range."""
    lows = [None] + list(bounds)
    highs = list(bounds) + [None]
    items = []
    for i, (lo, hi) in enumerate(zip(lows, highs)):
        shard = shard_of(i)
        if shard in done:
            continue
        last = hi is None
        per_store = []
        for s, chunks in metas.items():
            wanted = [
                c
                for c in chunks
                # last range also takes every null-carrying chunk: its
                # NULL rows belong here (nulls-last) even when its value
                # range lands in an earlier range — the row filters keep
                # each row in exactly one range
                if (c["has_null"] and last)
                or (
                    not c["all_null"]
                    and (hi is None or c["vmin"] is None or c["vmin"] < hi)
                    and (lo is None or c["vmax"] is None or c["vmax"] >= lo)
                )
            ]
            paths = sorted({c["path"] for c in wanted})
            ids = sorted({c["chunk_id"] for c in wanted})
            if paths:
                per_store.append(
                    {"store": str(s), "paths": paths, "chunk_ids": ids}
                )
        if per_store:
            items.append(
                {
                    "shard": shard,
                    "lo": json.dumps(lo),
                    "hi": json.dumps(hi),
                    "last": last,
                    "sources": json.dumps(per_store),
                }
            )
    return items


def _range_rows(row: dict, key: str, all_tombs: dict) -> pa.Table | None:
    """Decode one range item's rows: the listed chunks of every source
    (with their files' dict pages), minus each source's tombstoned rows,
    filtered to the range's [lo, hi) on `key`. None when nothing is
    left."""
    from ..stages.decode import decode_chunk_table

    lo = json.loads(row["lo"])
    hi = json.loads(row["hi"])
    parts = []
    for src in json.loads(row["sources"]):
        ids = src["chunk_ids"] + ["__dict__"]
        for path in src["paths"]:
            t = pq.read_table(path, filters=[("chunk_id", "in", ids)])
            if not t.num_rows:
                continue
            st = decode_chunk_table(t)
            for tcol, vals in all_tombs.get(src["store"], {}).items():
                if tcol in st.column_names:
                    st = st.filter(
                        pc.invert(pc.is_in(st.column(tcol), value_set=vals))
                    )
            parts.append(st)
    if not parts:
        return None
    merged = pa.concat_tables(parts, promote_options="default")
    col = merged.column(key)
    if row["last"]:
        if lo is None:  # single-range merge: everything is here
            keep = None
        else:
            # Kleene OR: a NULL key compares to NULL, and the
            # non-Kleene kernel would turn (True | NULL) into NULL,
            # which filter() silently DROPS — losing every null row
            keep = pc.or_kleene(
                pc.is_null(col), pc.greater_equal(col, pa.scalar(lo))
            )
    else:
        keep = pc.is_valid(col)
        if lo is not None:
            keep = pc.and_kleene(keep, pc.greater_equal(col, pa.scalar(lo)))
        if hi is not None:
            keep = pc.and_kleene(keep, pc.less(col, pa.scalar(hi)))
    if keep is not None:
        merged = merged.filter(keep)
    return merged if merged.num_rows else None


def _encode_ranges(
    items: list[dict],
    out_dir: str,
    sort_keys: list[str],
    tombs_ref,
    rows_per_chunk: int,
):
    """One task per range item: decode its rows, sort them by
    `sort_keys` (the range key first) and write them as the item's
    shard through `encode_shard`, which commits its manifest in-task.
    Returns the summary rows as a pandas frame."""
    from ..stages.encode import ChunkEncoder, summary_table

    enc = ChunkEncoder(
        output_dir=out_dir,
        rows_per_chunk=rows_per_chunk,
        bloom_columns=(),
        skip_completed=False,
    )

    def encode_range(batch: pa.Table) -> pa.Table:
        all_tombs = ray.get(tombs_ref) if tombs_ref is not None else {}
        out = []
        for row in batch.to_pylist():
            rows = _range_rows(row, sort_keys[0], all_tombs)
            if rows is None:
                continue
            rows = rows.sort_by([(k, "ascending") for k in sort_keys])
            out.append(enc.encode_shard(rows, row["shard"]))
        return summary_table(out)

    return (
        ray.data.from_items(items, override_num_blocks=len(items))
        .map_batches(encode_range, batch_format="pyarrow", batch_size=None)
        .to_pandas()
    )


def _sorted_by(meta: dict) -> list[str]:
    sb = meta.get("sorted_by", meta.get("key"))
    return [sb] if isinstance(sb, str) else list(sb)


def _base_files(store_dir: str) -> dict[str, list[str]]:
    """base range name -> chunk files across ALL generations. Fails
    LOUDLY on shards outside the ``range=`` namespace: the range
    readers (groupby/join/ordered read) would otherwise silently treat
    a stray shard as its own base (duplicate group keys, dropped join
    rows, broken global order). purge_tombstones on a merged store
    uses a range-preserving renamer precisely so this never fires."""
    from ..state import manifest

    t = manifest.lineage_table(store_dir, columns=["shard", "file"])
    if t is None:
        raise FileNotFoundError(f"no manifest under {store_dir}")
    root = Path(store_dir) / "data"
    out: dict[str, set] = {}
    for s, f in zip(t.column("shard").to_pylist(), t.column("file").to_pylist()):
        if not s.startswith("range="):
            raise ValueError(
                f"merged store {store_dir} has shard {s!r} outside the "
                "range=NNNNN namespace — rewrites of merged stores must "
                "use a range-preserving renamer"
            )
        out.setdefault(s.split("+g")[0], set()).add(
            str(root / s / f"{f}.parquet")
        )
    return {b: sorted(fs) for b, fs in out.items()}


def merge_into(
    out_dir: str,
    new_stores: list[str],
    rows_per_chunk: int = 4096,
    generation: str | None = None,
) -> dict:
    """LSM minor ingest: route `new_stores`' rows into the EXISTING
    ranges of a merged store as a new GENERATION of shards
    (``range=NNNNN+g<hex>``) — base shards are never rewritten, the
    bounds are frozen in the meta, and the increment costs
    O(increment). The generation id is derived from the inputs'
    CONTENT (their manifests' content-hashed chunk-file names plus
    surviving tombstone ids), never from the directory names alone —
    restaging different data at the same paths is a new generation,
    while re-running the same ingest resume-skips (idempotent, the
    result says ``already_applied``). Pass `generation` to label the
    ingest explicitly (e.g. a snapshot date). Readers merge a range's
    generations in-task; run compact_merged to fold them back to one
    shard per range."""
    import hashlib

    from ..state import manifest
    from .tombstone import _tomb_dir, load_tombstones

    meta = manifest.load_job_meta(out_dir) or {}
    if meta.get("mode") != "merged_sorted":
        raise ValueError(f"{out_dir} is not a range-merged store")
    key = meta["key"]
    sort_keys = _sorted_by(meta)
    bounds = meta["bounds"]
    for s in new_stores:
        manifest.check_format_version(s, "merge_into")
    tombs = {s: load_tombstones(s) for s in new_stores}
    tombs_ref = ray.put(tombs) if any(tombs.values()) else None
    metas = {s: _key_chunks(s, key) for s in new_stores}
    if generation is not None:
        gen = generation
    else:
        h = hashlib.sha1()
        for s in sorted(new_stores):
            # chunk-file names are content hashes, so (file, chunk_id)
            # pairs identify the data; tombstone file ids are
            # content-addressed over (column, values)
            for c in sorted(
                (Path(c["path"]).name, c["chunk_id"]) for c in metas[s]
            ):
                h.update(repr(c).encode())
            for p in sorted(_tomb_dir(s).glob("ts-*.parquet")):
                h.update(p.name.encode())
        gen = h.hexdigest()[:8]
    done = set(manifest.completed_shards(out_dir))
    items = _range_items(metas, bounds, lambda i: f"range={i:05d}+g{gen}", done)
    if not items:
        # 'already_applied' (this exact content landed before, shards
        # committed) is a different answer from 'no matching rows'
        applied = any(s.endswith(f"+g{gen}") for s in done)
        return {
            "ranges": 0,
            "rows": 0,
            "generation": gen,
            "skipped": True,
            "already_applied": applied,
        }

    summary = _encode_ranges(items, out_dir, sort_keys, tombs_ref, rows_per_chunk)
    return {
        "ranges": int(len(summary)),
        "rows": int(summary["rows"].sum()),
        "generation": gen,
        "skipped": False,
    }


def compact_merged(out_dir: str, rows_per_chunk: int = 4096) -> dict:
    """Fold each range's shard GENERATIONS back into one shard — the
    maintenance step after a stream of merge_into increments, under
    the compaction intent-log crash protocol (pipelines/compact.py):
    deterministic merged-shard name from the member set, idempotent
    retries, query answers unchanged."""
    import hashlib

    from ..stages.encode import ChunkEncoder
    from ..state import manifest
    from .compact import _drop_shard, _recover, _write_members

    manifest.check_format_version(out_dir, "compact")
    meta = manifest.load_job_meta(out_dir) or {}
    if meta.get("mode") != "merged_sorted":
        raise ValueError(f"{out_dir} is not a range-merged store")
    sort_keys = _sorted_by(meta)
    _recover(out_dir)
    groups: dict[str, list[str]] = {}
    for shard in manifest.completed_shards(out_dir):
        groups.setdefault(shard.split("+g")[0], []).append(shard)
    todo = {b: sorted(ss) for b, ss in groups.items() if len(ss) > 1}
    if not todo:
        return {"ranges_compacted": 0, "shards_merged": 0}
    # member files from the manifest lineage, never a glob: orphaned
    # chunk files (committed data, crashed before record_shard) must
    # not fold into the compacted shard as duplicate rows (ADVICE r4 #5)
    file_map = manifest.shard_file_map(
        out_dir, {s for ms in todo.values() for s in ms}
    )
    items = [
        {
            "base": b,
            "members": ms,
            "files": [f for m in ms for f in file_map.get(m, [])],
        }
        for b, ms in sorted(todo.items())
    ]

    enc = ChunkEncoder(
        output_dir=out_dir,
        rows_per_chunk=rows_per_chunk,
        bloom_columns=(),
        skip_completed=False,
    )

    def compact_range(batch: pa.Table) -> pa.Table:
        from ..stages.decode import decode_chunk_table
        from ..state import manifest as M

        out = []
        for row in batch.to_pylist():
            base, members = row["base"], row["members"]
            gid = (
                base
                + "+g"
                + hashlib.sha1(("|".join(members)).encode()).hexdigest()[:8]
            )
            if (M.manifest_dir(out_dir) / f"{gid}.json").exists():
                for m in members:
                    _drop_shard(out_dir, m)
                mf = M.manifest_dir(out_dir) / f"{gid}.members.json"
                if mf.exists():
                    mf.unlink()
                out.append({"base": base, "merged": len(members)})
                continue
            parts = []
            for f in row["files"]:
                parts.append(decode_chunk_table(pq.read_table(f)))
            rows_t = pa.concat_tables(parts, promote_options="default")
            rows_t = rows_t.sort_by(
                [(k, "ascending") for k in sort_keys]
            )
            _write_members(out_dir, gid, members)
            enc.encode_shard(rows_t, gid)
            for m in members:
                _drop_shard(out_dir, m)
            (M.manifest_dir(out_dir) / f"{gid}.members.json").unlink()
            out.append({"base": base, "merged": len(members)})
        return pa.Table.from_pylist(
            out,
            schema=pa.schema([("base", pa.string()), ("merged", pa.int64())]),
        )

    res = (
        ray.data.from_items(items, override_num_blocks=len(items))
        .map_batches(compact_range, batch_format="pyarrow", batch_size=None)
        .to_pandas()
    )
    return {
        "ranges_compacted": int(len(res)),
        "shards_merged": int(res["merged"].sum()),
    }


def range_join(
    left: str,
    right: str,
    how: str = "inner",
    left_columns: list[str] | None = None,
    right_columns: list[str] | None = None,
    right_suffix: str = "_r",
) -> ray.data.Dataset:
    """Join two CO-RANGE-PARTITIONED merged stores with zero shuffle —
    the range-layout sibling of spj.storage_partitioned_join: both
    stores were merged with IDENTICAL bounds (pass one store's recorded
    bounds into the other's merge), so equal key values live in
    co-indexed range shards and each shard pair joins locally (Acero).
    Key COLUMN NAMES may differ (o_custkey vs c_custkey); bound VALUES
    must match exactly — checked from the metas, refused otherwise."""
    from ..stages.decode import ChunkFileDecoder
    from ..state import manifest

    lm = manifest.load_job_meta(left) or {}
    rm = manifest.load_job_meta(right) or {}
    for d, m in ((left, lm), (right, rm)):
        if m.get("mode") != "merged_sorted":
            raise ValueError(f"{d} is not a range-merged store")
        if "bounds" not in m:
            raise ValueError(f"{d} predates recorded bounds — re-merge")
    if lm["bounds"] != rm["bounds"]:
        raise ValueError(
            "stores are not co-range-partitioned: bounds differ "
            f"({len(lm['bounds'])} vs {len(rm['bounds'])} cut points)"
        )
    lkey, rkey = lm["key"], rm["key"]
    if left_columns is not None and lkey not in left_columns:
        left_columns = [lkey] + list(left_columns)
    if right_columns is not None and rkey not in right_columns:
        right_columns = [rkey] + list(right_columns)

    # generations group under their base range on both sides
    lf, rf = _base_files(left), _base_files(right)
    keep_left = how in ("left outer", "full outer")
    keep_right = how in ("right outer", "full outer")
    items = []
    for i in range(len(lm["bounds"]) + 1):
        shard = f"range={i:05d}"
        lfs, rfs = lf.get(shard, []), rf.get(shard, [])
        if how == "inner" and not (lfs and rfs):
            continue
        if (not lfs and not keep_right) or (not rfs and not keep_left):
            continue
        if not lfs and not rfs:
            continue
        items.append({"left_files": lfs, "right_files": rfs})
    if not items:
        raise FileNotFoundError("no populated co-ranges to join")

    ldec = ChunkFileDecoder(columns=left_columns)
    rdec = ChunkFileDecoder(columns=right_columns)
    lschema = rschema = None
    if keep_left or keep_right:
        first_l = next((fs[0] for fs in lf.values() if fs), None)
        first_r = next((fs[0] for fs in rf.values() if fs), None)
        if first_l:
            lschema = ldec(pa.table({"path": pa.array([first_l])})).schema
        if first_r:
            rschema = rdec(pa.table({"path": pa.array([first_r])})).schema
        # a side with NO data files anywhere cannot supply the schema
        # its padded empty tables need — refuse clearly, don't TypeError
        if keep_right and lschema is None:
            raise ValueError(
                f"outer join preserves right rows but left store {left} "
                "has no data files to take a schema from"
            )
        if keep_left and rschema is None:
            raise ValueError(
                f"outer join preserves left rows but right store {right} "
                "has no data files to take a schema from"
            )

    def join_range(batch: pa.Table) -> pa.Table:
        outs = []
        for row in batch.to_pylist():
            lt = (
                ldec(pa.table({"path": pa.array(row["left_files"])}))
                if row["left_files"]
                else pa.table({f.name: pa.array([], f.type) for f in lschema})
            )
            rt = (
                rdec(pa.table({"path": pa.array(row["right_files"])}))
                if row["right_files"]
                else pa.table({f.name: pa.array([], f.type) for f in rschema})
            )
            outs.append(
                lt.join(
                    rt,
                    keys=lkey,
                    right_keys=rkey,
                    join_type=how,
                    right_suffix=right_suffix,
                )
            )
        return pa.concat_tables(outs, promote_options="default")

    return ray.data.from_items(
        items, override_num_blocks=len(items)
    ).map_batches(join_range, batch_format="pyarrow", batch_size=None)


def groupby_merged_store(
    store_dir: str,
    aggregations: list[tuple[str, str]],
) -> ray.data.Dataset:
    """GROUP BY the merge key of a range-merged store with ZERO
    shuffle — the range-partitioned sibling of
    spj.storage_partitioned_groupby: the merge assigned every key to
    exactly one range shard (boundaries are half-open; NULLs all in
    the last range), so each shard task computes COMPLETE groups
    locally and no merge stage exists. `aggregations` is (column,
    arrow_fn) pairs; output columns follow Arrow naming."""
    from ..state import manifest
    from ..stages.decode import ChunkFileDecoder

    manifest.check_format_version(store_dir, "groupby")
    meta = manifest.load_job_meta(store_dir) or {}
    if meta.get("mode") != "merged_sorted":
        raise ValueError(f"{store_dir} is not a range-merged store")
    key = meta["key"]
    need = list(
        dict.fromkeys([key] + [c for c, _ in aggregations if c != key])
    )
    # group by BASE range: a range's generations (merge_into appends)
    # must aggregate together or groups would split
    by_shard = _base_files(store_dir)
    items = [
        {"shard": s, "files": fs} for s, fs in sorted(by_shard.items())
    ]
    dec = ChunkFileDecoder(columns=need)

    def agg_shard(batch: pa.Table) -> pa.Table:
        outs = []
        for row in batch.to_pylist():
            parts = []
            for path in row["files"]:
                got = dec(pa.table({"path": pa.array([path])}))
                if got.num_rows:
                    parts.append(got)
            if not parts:
                continue
            t = pa.concat_tables(parts, promote_options="default")
            outs.append(
                pa.TableGroupBy(t, key).aggregate(list(aggregations))
            )
        if not outs:
            return pa.table({})
        return pa.concat_tables(outs, promote_options="default")

    return ray.data.from_items(
        items, override_num_blocks=len(items)
    ).map_batches(agg_shard, batch_format="pyarrow", batch_size=None)


def read_merged_sorted(out_dir: str) -> ray.data.Dataset:
    """Decode a merged store in GLOBAL key order: one task per RANGE
    decodes that range's files — all generations — and re-sorts them
    in-task (a no-op cost for a compacted range, the generation merge
    for an ingested one); ranges are disjoint and emitted in order, so
    the stream is totally ordered."""
    from ..stages.decode import ChunkFileDecoder
    from ..state import manifest

    manifest.check_format_version(out_dir, "decode")
    meta = manifest.load_job_meta(out_dir) or {}
    sort_keys = _sorted_by(meta) if meta.get("mode") == "merged_sorted" else None
    by_base = _base_files(out_dir)
    items = [
        {"files": by_base[b]} for b in sorted(by_base)
    ]
    dec = ChunkFileDecoder()

    def read_range(batch: pa.Table) -> pa.Table:
        outs = []
        for row in batch.to_pylist():
            t = dec(pa.table({"path": pa.array(row["files"])}))
            if t.num_rows:
                outs.append(t)
        if not outs:
            return pa.table({})
        out = pa.concat_tables(outs, promote_options="default")
        if sort_keys:
            out = out.sort_by([(k, "ascending") for k in sort_keys])
        return out

    # the streaming executor reorders finished blocks by default —
    # an ORDERED read must pin preserve_order; the DataContext is
    # snapshotted into the dataset at creation, so flipping it back
    # right after construction leaves other pipelines untouched
    ctx = ray.data.DataContext.get_current()
    prev = ctx.execution_options.preserve_order
    ctx.execution_options.preserve_order = True
    try:
        return ray.data.from_items(
            items, override_num_blocks=len(items)
        ).map_batches(
            read_range,
            batch_format="pyarrow",
            batch_size=None,
            zero_copy_batch=True,
        )
    finally:
        ctx.execution_options.preserve_order = prev
