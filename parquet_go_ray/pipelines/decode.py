"""The decode job: encoded chunk store -> original table (bit-identical).

Each chunk file is self-contained, so decode is an embarrassingly
parallel `read_binary_files -> map_batches(ChunkFileDecoder)` stream —
no shuffle, no driver materialization.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

import ray.data

from ..stages.decode import ChunkFileDecoder


def chunk_files(encoded_dir: str) -> list[str]:
    """Chunk files listed from the manifest when present (the manifest is
    the source of truth — stale files from a differently-batched partial
    run are ignored), else a directory glob for un-manifested stores."""
    from ..state import manifest

    t = manifest.lineage_table(encoded_dir, columns=["shard", "file"])
    root = Path(encoded_dir) / "data"
    if t is not None and "file" in t.column_names:
        pairs = {
            (s, f)
            for s, f in zip(
                t.column("shard").to_pylist(), t.column("file").to_pylist()
            )
        }
        return sorted(str(root / s / f"{f}.parquet") for s, f in pairs)
    return sorted(str(p) for p in root.glob("*/*.parquet"))


def chunk_groups_pruned(
    encoded_dir: str,
    column: str,
    lo=None,
    hi=None,
) -> tuple[list[str], set[str]]:
    """(files, chunk_ids) whose per-chunk [vmin, vmax] for `column`
    intersects [lo, hi] — Search/Find parity (search.go:6-116) over the
    manifest's ColumnIndex-style stats. Chunks without stats are kept
    (conservative). The manifest read is column-pruned and row-filtered
    (predicate pushdown on `column`); this runs driver-side over
    metadata ~1e-5 the size of the data."""
    import json

    from ..state import manifest

    files = set()
    ids = set()
    root = Path(encoded_dir) / "data"
    t = manifest.lineage_table(
        encoded_dir,
        columns=["shard", "file", "chunk_id", "column", "vmin", "vmax"],
        filters=[("column", "==", column)],
    )
    if t is None:
        return [], set()
    for r in t.to_pylist():
        vmin = json.loads(r["vmin"]) if r.get("vmin") else None
        vmax = json.loads(r["vmax"]) if r.get("vmax") else None
        if lo is not None and vmax is not None and vmax < lo:
            continue
        if hi is not None and vmin is not None and vmin > hi:
            continue
        files.add(str(root / r["shard"] / f"{r['file']}.parquet"))
        ids.add(r["chunk_id"])
    return sorted(files), ids


def chunk_files_pruned(
    encoded_dir: str,
    column: str,
    lo=None,
    hi=None,
) -> list[str]:
    """File-level view of chunk_groups_pruned (kept for callers that
    only need the file list)."""
    return chunk_groups_pruned(encoded_dir, column, lo, hi)[0]


def decode_dataset_pruned_distributed(
    encoded_dir: str,
    column: str,
    lo=None,
    hi=None,
    residual: bool = True,
) -> ray.data.Dataset:
    """Fully distributed stats pruning: the manifests are read as a
    Dataset (column-pruned, predicate pushed down), the [vmin, vmax]
    intersection test runs in map_batches, and surviving (file,
    chunk_id) rows flow straight into per-batch projected decodes — the
    matching-file list never materializes on the driver. At 10^12 docs
    the manifest is ~1e-5 of the data but still TBs; this is the path
    that scales past driver memory. A file whose matching rows span two
    batches is read twice with disjoint chunk-id filters (correct,
    slightly redundant)."""
    import json

    from ..state import manifest as M

    man_files = [str(p) for p in M.lineage_files(encoded_dir)]
    if not man_files:
        import pyarrow as pa

        return ray.data.from_arrow(pa.table({}))
    root = str(Path(encoded_dir) / "data")
    lin = ray.data.read_parquet(
        man_files,
        columns=["shard", "file", "chunk_id", "column", "vmin", "vmax"],
        filter=(pc.field("column") == column),
    )

    def prune(batch):
        import pandas as pd

        keep_rows = []
        for r in batch.to_pylist():
            vmin = json.loads(r["vmin"]) if r.get("vmin") else None
            vmax = json.loads(r["vmax"]) if r.get("vmax") else None
            if lo is not None and vmax is not None and vmax < lo:
                continue
            if hi is not None and vmin is not None and vmin > hi:
                continue
            keep_rows.append(
                {
                    "path": f"{root}/{r['shard']}/{r['file']}.parquet",
                    "chunk_id": r["chunk_id"],
                }
            )
        return pd.DataFrame(keep_rows, columns=["path", "chunk_id"])

    def decode_matches(batch):
        import pyarrow as pa
        import pyarrow.parquet as pq

        from ..stages.decode import decode_chunk_table

        outs = []
        df = batch.to_pandas()
        for path, grp in df.groupby("path", sort=False):
            ids = sorted(set(grp["chunk_id"])) + ["__dict__"]
            chunks = pq.read_table(path, filters=[("chunk_id", "in", ids)])
            if chunks.num_rows:
                t = decode_chunk_table(chunks)
                if t.num_rows:
                    outs.append(t)
        if not outs:
            return pa.table({})
        return pa.concat_tables(outs)

    ds = lin.map_batches(prune, batch_format="pyarrow").map_batches(
        decode_matches, batch_format="pyarrow"
    )
    if residual:
        ds = _residual_filter(ds, column, lo, hi)
    from .tombstone import anti_filter, load_tombstones

    # all columns decode on this path, so the anti-filter always sees
    # the tombstoned columns — deletes never resurrect on the
    # driver-memory-free route either
    return anti_filter(ds, load_tombstones(encoded_dir))


def decode_dataset_pruned(
    encoded_dir: str,
    column: str,
    lo=None,
    hi=None,
    residual: bool = True,
) -> ray.data.Dataset:
    """Decode only the chunk GROUPS that can contain rows with column in
    [lo, hi] (file pruning + a parquet row filter on chunk_id inside
    kept files, so non-matching groups' payloads never leave storage);
    apply the exact residual predicate after decode."""
    files, keep_ids = chunk_groups_pruned(encoded_dir, column, lo, hi)
    if not files:
        import pyarrow as pa

        return ray.data.from_arrow(pa.table({}))
    ds = ray.data.from_items(files, override_num_blocks=len(files)).map_batches(
        ChunkFileDecoder(chunk_ids=keep_ids),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )
    if residual:
        ds = _residual_filter(ds, column, lo, hi)
    from .tombstone import anti_filter, load_tombstones

    return anti_filter(ds, load_tombstones(encoded_dir))


def _residual_filter(ds: ray.data.Dataset, column: str, lo, hi) -> ray.data.Dataset:
    """Exact predicate applied after the conservative stats pruning."""

    def filt(t):
        import pyarrow as pa

        col = t.column(column)
        ty = col.type if not isinstance(col, pa.ChunkedArray) else col.type
        # stats store temporals as epoch integers; compare in int64
        if (pa.types.is_timestamp(ty) or pa.types.is_date64(ty)) and isinstance(
            (lo if lo is not None else hi), int
        ):
            col = pc.cast(col, pa.int64())
        mask = None
        if lo is not None:
            mask = pc.greater_equal(col, lo)
        if hi is not None:
            m2 = pc.less_equal(col, hi)
            mask = m2 if mask is None else pc.and_(mask, m2)
        return t.filter(mask) if mask is not None else t

    return ds.map_batches(filt, batch_format="pyarrow", zero_copy_batch=True)


def point_lookup(
    encoded_dir: str, column: str, keys: list, concurrency: int | None = None
) -> ray.data.Dataset:
    """Exact-match lookup on the encoded store via the per-chunk bloom
    sidecars (bloom.go:16-55 parity): a distributed probe stage reads
    ONLY the (column, bloom) columns of each chunk file (column-pruned
    parquet read — payloads untouched), then only candidate chunks are
    decoded and exactly filtered."""
    import ray

    from ..functions.hashing import BloomFilter, stable_hash_strings

    files = chunk_files(encoded_dir)
    key_hashes = stable_hash_strings(keys)
    hashes_ref = ray.put(key_hashes)
    key_set_ref = ray.put(set(keys))

    def probe(batch):
        import numpy as np
        import pandas as pd
        import pyarrow.parquet as pq

        hs = ray.get(hashes_ref)
        hits = []
        for path in batch["item"]:
            t = pq.read_table(path, columns=["column", "bloom"])
            # a file with NO valid bloom sidecar for the column (written
            # by a differently-configured job, or a legacy rewrite) is
            # admitted conservatively — a missing filter can never prove
            # absence, only a present-and-negative one can
            probed = False
            admit = False
            for col, bloom in zip(t.column("column"), t.column("bloom")):
                if col.as_py() != column or not bloom.is_valid:
                    continue
                probed = True
                # k and m travel in the sidecar header, so encode-time
                # parameter changes can never silently break probes
                bf = BloomFilter.from_bytes(bloom.as_py())
                if bf.contains_hashes(hs).any():
                    admit = True
                    break  # one hit admits the whole file
            if admit or not probed:
                hits.append(path)
        return pd.DataFrame({"path": hits})

    cand = ray.data.from_items(files).map_batches(probe, batch_format="pandas")
    cand_files = [r["path"] for r in cand.take_all()]  # tiny: file names only
    if not cand_files:
        import pyarrow as pa

        return ray.data.from_arrow(pa.table({}))
    ds = ray.data.read_binary_files(cand_files).map_batches(
        ChunkFileDecoder(), batch_format="pyarrow", zero_copy_batch=True
    )

    def exact(t):
        keyset = ray.get(key_set_ref)
        mask = pc.is_in(t.column(column), value_set=__import__("pyarrow").array(list(keyset)))
        return t.filter(mask)

    ds = ds.map_batches(exact, batch_format="pyarrow", zero_copy_batch=True)
    from .tombstone import anti_filter, load_tombstones

    # a point lookup must not resurrect deleted rows
    return anti_filter(ds, load_tombstones(encoded_dir))


def decode_dataset(
    encoded_dir: str,
    columns: list[str] | None = None,
    concurrency: int | None = None,
    apply_tombstones: bool = True,
) -> ray.data.Dataset:
    """Decode the store as a streaming Dataset. With `columns`, each task
    reads chunk files with a parquet row filter on the `column` field, so
    only the requested columns' payloads are read and decoded (the
    reference's selected-columns page read, column.go:541-690).
    Surviving tombstones (pipelines/tombstone.py) are applied as a
    vectorized anti-filter; a projection that excludes a tombstoned
    column transparently decodes it for the filter and drops it."""
    from ..state import manifest
    from .tombstone import anti_filter, load_tombstones

    manifest.check_format_version(encoded_dir, "decode")
    files = chunk_files(encoded_dir)
    if not files:
        raise FileNotFoundError(f"no encoded chunks under {encoded_dir}")
    tombs = load_tombstones(encoded_dir) if apply_tombstones else {}
    decode_cols, drop = columns, []
    if tombs and columns is not None:
        drop = [c for c in tombs if c not in columns]
        if drop:
            decode_cols = list(columns) + drop
    # path-based tasks (pq.read_table in-task) rather than
    # read_binary_files: the file bytes never round-trip through the
    # object store, and column projection pushes into the parquet read
    ds = ray.data.from_items(files, override_num_blocks=len(files))
    ds = ds.map_batches(
        ChunkFileDecoder(columns=decode_cols),
        batch_format="pyarrow",
        concurrency=concurrency,
        zero_copy_batch=True,
    )
    return anti_filter(ds, tombs, drop=drop)


def search_dict_domain(
    encoded_dir: str,
    column: str,
    values,
    columns: list[str] | None = None,
) -> ray.data.Dataset:
    """Membership search evaluated in the DICTIONARY domain of the
    encoded store (late materialization): each task matches `values`
    against its chunks' dictionaries once — O(dict) comparisons — and
    tests int codes, so the search column's row values are never
    materialized, and a chunk group with zero matches skips decoding
    its other columns entirely. Complements decode_dataset_pruned:
    stats pruning wins on range predicates over ordered columns; the
    dictionary domain wins on equality/membership over low-cardinality
    columns whose every chunk spans the full value range (lang,
    event_type, source), where min/max stats keep everything. Non-dict
    chunks fall back to decode + compare inside the same task, so
    exactness never depends on the selector's codec choice."""
    from ..stages.decode import search_chunk_table
    from .tombstone import anti_filter, plan_tombstone_projection

    files = chunk_files(encoded_dir)
    if not files:
        import pyarrow as pa

        return ray.data.from_arrow(pa.table({}))
    # deletes must not resurrect on the dictionary-domain route: widen
    # the projection with any tombstoned columns, anti-filter, drop
    tombs, eff_columns, drop = plan_tombstone_projection(encoded_dir, columns)
    read_cols = None
    if eff_columns is not None:
        read_cols = sorted(set(eff_columns) | {column})

    def search(batch):
        import pyarrow as pa
        import pyarrow.parquet as pq

        filters = (
            [("column", "in", read_cols)] if read_cols is not None else None
        )
        outs = []
        col = "path" if "path" in batch.column_names else "item"
        for path in batch.column(col).to_pylist():
            chunks = pq.read_table(path, filters=filters)
            if chunks.num_rows:
                t = search_chunk_table(
                    chunks, column, values, columns=eff_columns
                )
                if t.num_rows:
                    outs.append(t)
        if not outs:
            return pa.table({})
        return pa.concat_tables(outs)

    ds = ray.data.from_items(files, override_num_blocks=len(files)).map_batches(
        search, batch_format="pyarrow", zero_copy_batch=True
    )
    return anti_filter(ds, tombs, drop=drop)


def topk_store(
    encoded_dir: str,
    column: str,
    k: int,
    columns: list[str] | None = None,
    tiebreak: str | None = None,
) -> ray.data.Dataset:
    """ORDER BY `column` DESC LIMIT k answered with STATS pruning: from
    the manifest alone, chunks sorted by vmin descending accumulate
    until >= k rows — their smallest vmin is a LOWER bound L on the
    k-th largest value (every row in an accepted chunk is >= its vmin)
    — and only chunks with vmax >= L can contribute, so everything
    else never opens. Survivors decode distributed with per-task
    top-k partials; the driver merges k rows. On a store clustered by
    `column` the candidate set is O(k/rows_per_chunk) chunks
    (chmod-000 pytest). `tiebreak` (ascending) makes boundary ties
    deterministic."""
    import json as _json

    from ..stages.decode import decode_chunk_table
    from ..state import manifest

    t = manifest.lineage_table(
        encoded_dir,
        columns=["shard", "file", "chunk_id", "column", "n", "n_null", "vmin", "vmax"],
        filters=[("column", "==", column)],
    )
    if t is None:
        raise FileNotFoundError(f"no manifest under {encoded_dir}")
    recs = []
    for r in t.to_pylist():
        vmin = _json.loads(r["vmin"]) if r.get("vmin") else None
        vmax = _json.loads(r["vmax"]) if r.get("vmax") else None
        recs.append((r, vmin, vmax, int(r["n"]) - int(r["n_null"])))
    from .tombstone import load_tombstones, tomb_mask

    tombs = load_tombstones(encoded_dir)
    # lower bound L on the k-th largest value, from vmin stats alone.
    # With surviving tombstones the manifest row counts overcount live
    # rows, so the bound could over-prune; disable it (decode every
    # non-empty chunk) until a purge restores exact counts — deletes
    # must filter BEFORE the k-truncation, never after.
    by_vmin = sorted(
        (x for x in recs if x[1] is not None),
        key=lambda x: x[1],
        reverse=True,
    )
    acc, L = 0, None
    if not tombs:
        for _r, vmin, _vmax, nn in by_vmin:
            acc += nn
            L = vmin
            if acc >= k:
                break
    files: set[str] = set()
    ids: set[str] = set()
    root = Path(encoded_dir) / "data"
    for r, _vmin, vmax, nn in recs:
        if nn == 0:
            continue
        # conservative: missing stats, or vmax can reach the bound
        if L is not None and vmax is not None and vmax < L:
            continue
        files.add(str(root / r["shard"] / f"{r['file']}.parquet"))
        ids.add(r["chunk_id"])
    if not files:
        return ray.data.from_arrow(pa.table({}))
    read_cols = None
    if columns is not None:
        need = set(columns) | {column} | set(tombs)
        if tiebreak:
            need.add(tiebreak)
        read_cols = sorted(need)
    id_list = sorted(ids) + ["__dict__"]

    def partial(batch: pa.Table) -> pa.Table:
        filters = [("chunk_id", "in", id_list)]
        if read_cols is not None:
            filters.append(("column", "in", read_cols))
        outs = []
        pcol = "path" if "path" in batch.column_names else "item"
        for path in batch.column(pcol).to_pylist():
            chunks = pq.read_table(path, filters=filters)
            if chunks.num_rows:
                got = decode_chunk_table(chunks)
                if got.num_rows:
                    outs.append(got)
        if not outs:
            return pa.table({})
        t = pa.concat_tables(outs, promote_options="default")
        t = t.filter(pc.is_valid(t.column(column)))
        if tombs:
            m = tomb_mask(t, tombs)
            if m is not None:
                t = t.filter(m)
        keys = [(column, "descending")]
        if tiebreak:
            keys.append((tiebreak, "ascending"))
        return t.sort_by(keys).slice(0, k)

    parts = (
        ray.data.from_items(
            sorted(files), override_num_blocks=len(files)
        )
        .map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
        .to_arrow_refs()
    )
    import ray as _ray

    tables = [x for x in (_ray.get(r) for r in parts) if x.num_rows]
    if not tables:
        return ray.data.from_arrow(pa.table({}))
    merged = pa.concat_tables(tables, promote_options="default")
    keys = [(column, "descending")]
    if tiebreak:
        keys.append((tiebreak, "ascending"))
    out = merged.sort_by(keys).slice(0, k)
    if columns is not None:
        out = out.select([c for c in columns if c in out.column_names])
    return ray.data.from_arrow(out)


def quantile_store(
    encoded_dir: str,
    column: str,
    q: float = 0.5,
    out_name: str | None = None,
) -> ray.data.Dataset:
    """EXACT continuous quantile (quantile_cont / median) answered with
    STATS pruning: the two bracketing ranks r1=floor((N-1)q),
    r2=ceil((N-1)q) are located from manifest (n, n_null, vmin, vmax)
    rows ALONE — a chunk whose values are all guaranteed below r1
    (possible-<=count at its vmax still <= r1) or all above r2
    (guaranteed-<count at its vmin already > r2) never opens; skipped-
    below counts become the rank offset inside the surviving values.
    On a store CLUSTERED by `column` the candidate set is O(1) chunks
    (chmod-000 pytest); unclustered stores degrade gracefully to
    decoding overlapping chunks, still exact. Surviving tombstones make
    manifest counts overcount live rows, so pruning disables and every
    chunk decodes (deletes filter BEFORE selection), mirroring
    topk_store's contract. Only `column` is ever decoded."""
    import json as _json

    from ..stages.decode import decode_chunk_table
    from ..state import manifest
    from .tombstone import load_tombstones, tomb_mask

    t = manifest.lineage_table(
        encoded_dir,
        columns=["shard", "file", "chunk_id", "column", "n", "n_null", "vmin", "vmax"],
        filters=[("column", "==", column)],
    )
    if t is None:
        raise FileNotFoundError(f"no manifest under {encoded_dir}")
    tombs = load_tombstones(encoded_dir)
    recs = []
    for r in t.to_pylist():
        vmin = _json.loads(r["vmin"]) if r.get("vmin") else None
        vmax = _json.loads(r["vmax"]) if r.get("vmax") else None
        recs.append((r, vmin, vmax, int(r["n"]) - int(r["n_null"])))
    total = sum(nn for _r, _a, _b, nn in recs)
    if total == 0:
        return ray.data.from_arrow(pa.table({out_name or f"q{q}": pa.array([], pa.float64())}))
    pos = (total - 1) * q
    r1, r2 = int(np.floor(pos)), int(np.ceil(pos))
    frac = pos - np.floor(pos)

    n_below = 0
    files: set[str] = set()
    ids: set[str] = set()
    root = Path(encoded_dir) / "data"
    stats_ok = not tombs and all(
        a is not None and b is not None for _r, a, b, nn in recs if nn
    )
    if stats_ok:
        # O(C log C): prefix sums over stats sorted by vmax (for the
        # guaranteed-below count) and by vmin (for the possible-<= count)
        import bisect

        live = [(a, b, nn) for _r, a, b, nn in recs if nn]
        by_vmax = sorted((b, nn) for a, b, nn in live)
        vmax_keys = [x[0] for x in by_vmax]
        vmax_cum = np.concatenate(([0], np.cumsum([x[1] for x in by_vmax])))
        by_vmin = sorted((a, nn) for a, b, nn in live)
        vmin_keys = [x[0] for x in by_vmin]
        vmin_cum = np.concatenate(([0], np.cumsum([x[1] for x in by_vmin])))
    for r, vmin, vmax, nn in recs:
        if nn == 0:
            continue
        if stats_ok:
            # values certainly < vmin of this chunk
            lt_vmin = int(vmax_cum[bisect.bisect_left(vmax_keys, vmin)])
            # values possibly <= vmax of this chunk
            le_vmax = int(vmin_cum[bisect.bisect_right(vmin_keys, vmax)])
            if le_vmax <= r1:
                n_below += nn  # guaranteed entirely below rank r1
                continue
            if lt_vmin > r2:
                continue  # guaranteed entirely above rank r2
        files.add(str(root / r["shard"] / f"{r['file']}.parquet"))
        ids.add(r["chunk_id"])
    id_list = sorted(ids) + ["__dict__"]
    read_cols = sorted({column} | set(tombs))

    def vals(batch: pa.Table) -> pa.Table:
        outs = []
        pcol = "path" if "path" in batch.column_names else "item"
        for path in batch.column(pcol).to_pylist():
            chunks = pq.read_table(
                path,
                filters=[("chunk_id", "in", id_list), ("column", "in", read_cols)],
            )
            if chunks.num_rows:
                got = decode_chunk_table(chunks)
                if got.num_rows:
                    outs.append(got)
        if not outs:
            return pa.table({column: pa.array([], pa.float64())})
        tt = pa.concat_tables(outs, promote_options="default")
        if tombs:
            m = tomb_mask(tt, tombs)
            if m is not None:
                tt = tt.filter(m)
        col = tt.column(column)
        col = col.filter(pc.is_valid(col))
        return pa.table({column: pc.cast(col, pa.float64())})

    parts = (
        ray.data.from_items(sorted(files), override_num_blocks=max(1, len(files)))
        .map_batches(vals, batch_format="pyarrow", zero_copy_batch=True)
        .to_arrow_refs()
    )
    import ray as _ray

    arrs = [x.column(column).to_numpy(zero_copy_only=False) for x in (_ray.get(p) for p in parts)]
    v = np.sort(np.concatenate([a for a in arrs if len(a)] or [np.array([], np.float64)]))
    if tombs:
        # counts were unreliable: recompute ranks over the LIVE values
        total = len(v)
        if total == 0:
            return ray.data.from_arrow(
                pa.table({out_name or f"q{q}": pa.array([], pa.float64())})
            )
        pos = (total - 1) * q
        r1, r2 = int(np.floor(pos)), int(np.ceil(pos))
        frac = pos - np.floor(pos)
        n_below = 0
    lo = float(v[r1 - n_below])
    hi = float(v[r2 - n_below])
    name = out_name or f"q{q}"
    return ray.data.from_arrow(
        pa.table({name: pa.array([lo + frac * (hi - lo)], pa.float64())})
    )


def take_rows(
    encoded_dir: str,
    indices,
    columns: list[str] | None = None,
) -> ray.data.Dataset:
    """Scattered GLOBAL-POSITION reads over the encode store —
    SeekToRow (column.go:127-149) generalized from one range to an
    arbitrary index set: the manifest's per-chunk row counts give
    cumulative offsets (metadata only, driver-side), each index maps to
    (file, chunk, local offset), and only the hit chunks' files open —
    a 1000-row sample of a petabyte store decodes at most 1000 chunks,
    each once, however many indices land in it. Output carries `_row`
    (the global position, in the store's manifest order) next to the
    decoded columns. Indices are deduped; out-of-range raises.
    Positions address the PHYSICAL manifest order (deleted rows keep
    their slot until a purge rewrites); a tombstoned row's position
    returns nothing rather than resurrecting the deleted row."""
    import json as _json

    from ..stages.decode import decode_chunk_table
    from ..state import manifest

    idx = np.unique(np.asarray(list(indices), dtype=np.int64))
    if idx.size and idx[0] < 0:
        raise IndexError("negative row index")
    t = manifest.lineage_table(
        encoded_dir,
        columns=["shard", "file", "chunk_id", "col_idx", "n"],
        filters=[("col_idx", "==", 0)],
    )
    if t is None:
        raise FileNotFoundError(f"no manifest under {encoded_dir}")
    # deterministic global order: (shard, file) sorted, chunks in their
    # manifest (= write) order within a file
    recs = t.to_pylist()
    by_file: dict[tuple[str, str], list[dict]] = {}
    for r in recs:
        by_file.setdefault((r["shard"], r["file"]), []).append(r)
    ordered = []
    for sf in sorted(by_file):
        ordered.extend(by_file[sf])
    ns = np.array([r["n"] for r in ordered], dtype=np.int64)
    cum = np.concatenate(([0], np.cumsum(ns)))
    total = int(cum[-1])
    if idx.size and idx[-1] >= total:
        raise IndexError(f"row {int(idx[-1])} >= store rows {total}")
    pos = np.searchsorted(cum, idx, side="right") - 1
    root = Path(encoded_dir) / "data"
    plans: dict[str, dict[str, dict]] = {}
    for ci in np.unique(pos):
        r = ordered[int(ci)]
        path = str(root / r["shard"] / f"{r['file']}.parquet")
        sel = idx[pos == ci]
        plans.setdefault(path, {})[r["chunk_id"]] = {
            "local": (sel - cum[int(ci)]).tolist(),
            "base": int(cum[int(ci)]),
        }
    items = [
        {"path": p, "chunks": _json.dumps(cmap)}
        for p, cmap in sorted(plans.items())
    ]
    if not items:
        return ray.data.from_arrow(pa.table({}))
    from .tombstone import anti_filter, plan_tombstone_projection

    tombs, eff_columns, drop = plan_tombstone_projection(encoded_dir, columns)
    read_cols = sorted(eff_columns) if eff_columns is not None else None

    def fetch(batch: pa.Table) -> pa.Table:
        outs = []
        for row in batch.to_pylist():
            cmap = _json.loads(row["chunks"])
            filters = [("chunk_id", "in", sorted(cmap) + ["__dict__"])]
            if read_cols is not None:
                filters.append(("column", "in", read_cols))
            chunks = pq.read_table(row["path"], filters=filters)
            dict_rows = chunks.filter(
                pc.equal(chunks.column("codec"), "dict_page")
            )
            data = chunks.filter(
                pc.not_equal(chunks.column("codec"), "dict_page")
            )
            ids = data.column("chunk_id").to_numpy(zero_copy_only=False)
            if len(ids) == 0:
                continue
            change = np.nonzero(ids[1:] != ids[:-1])[0] + 1
            starts = np.concatenate(([0], change, [len(ids)]))
            for a, b in zip(starts[:-1], starts[1:]):
                group = data.slice(int(a), int(b - a))
                if dict_rows.num_rows:
                    group = pa.concat_tables([dict_rows, group])
                dec = decode_chunk_table(group)
                plan = cmap[str(ids[int(a)])]
                local = np.asarray(plan["local"], dtype=np.int64)
                out = dec.take(pa.array(local))
                out = out.add_column(
                    0,
                    "_row",
                    pa.array(local + plan["base"], pa.int64()),
                )
                outs.append(out)
        if not outs:
            return pa.table({})
        return pa.concat_tables(outs)

    ds = ray.data.from_items(
        items, override_num_blocks=len(items)
    ).map_batches(fetch, batch_format="pyarrow", batch_size=None)
    return anti_filter(ds, tombs, drop=drop)


def isnull_scan(
    encoded_dir: str,
    column: str,
    columns: list[str] | None = None,
) -> ray.data.Dataset:
    """IS NULL scan answered from null-count STATISTICS: the manifest's
    per-chunk (n, n_null) classify chunks driver-side over metadata —
    n_null == 0 chunks are skipped without opening their file,
    n_null == n chunks match wholesale (only output columns decode),
    and boundary chunks resolve row-level from the chunk header's
    validity bitmap (chunk_mod.null_mask) — the predicate column's
    encoded payload is NEVER decoded on any path. The IS NULL sibling
    of aggregate_range's three-way zone-map classification."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from ..stages.decode import isnull_chunk_table
    from ..state import manifest

    t = manifest.lineage_table(
        encoded_dir,
        columns=["shard", "file", "chunk_id", "n", "n_null"],
        filters=[("column", "==", column)],
    )
    if t is None:
        return ray.data.from_arrow(pa.table({}))
    root = Path(encoded_dir) / "data"
    files: set[str] = set()
    keep_ids: set[str] = set()
    full_ids: set[str] = set()
    for r in t.to_pylist():
        if not r["n_null"]:
            continue  # provably no NULL rows: file may never open
        files.add(str(root / r["shard"] / f"{r['file']}.parquet"))
        keep_ids.add(r["chunk_id"])
        if r["n_null"] == r["n"]:
            full_ids.add(r["chunk_id"])
    if not files:
        return ray.data.from_arrow(pa.table({}))
    # route-independent deletes: widen projection, anti-filter, drop
    from .tombstone import anti_filter, plan_tombstone_projection

    tombs, eff_columns, drop = plan_tombstone_projection(encoded_dir, columns)
    read_cols = None
    if eff_columns is not None:
        read_cols = sorted(set(eff_columns) | {column})
    id_list = sorted(keep_ids) + ["__dict__"]

    def scan(batch):
        filters = [("chunk_id", "in", id_list)]
        if read_cols is not None:
            filters.append(("column", "in", read_cols))
        outs = []
        col = "path" if "path" in batch.column_names else "item"
        for path in batch.column(col).to_pylist():
            chunks = pq.read_table(path, filters=filters)
            if chunks.num_rows:
                got = isnull_chunk_table(chunks, column, full_ids, eff_columns)
                if got.num_rows:
                    outs.append(got)
        if not outs:
            return pa.table({})
        return pa.concat_tables(outs)

    ds = ray.data.from_items(
        sorted(files), override_num_blocks=len(files)
    ).map_batches(scan, batch_format="pyarrow", zero_copy_batch=True)
    return anti_filter(ds, tombs, drop=drop)


def search_pattern(
    encoded_dir: str,
    column: str,
    mode: str,
    needle: str,
    columns: list[str] | None = None,
) -> ray.data.Dataset:
    """LIKE-style pattern search over the encoded store, evaluated in
    the DICTIONARY domain: 'prefix' (LIKE 'x%'), 'suffix' (LIKE '%x'),
    'contains' (LIKE '%x%') and 'regex' (unanchored RE2, the engine
    DuckDB's regexp_matches also uses). The pattern kernel runs once over each
    chunk's n_distinct dictionary entries (O(dict), not O(rows)); row
    membership is then an integer test on the codes, and a zero-match
    chunk group never decodes its other columns. 'prefix' additionally
    prunes chunks driver-side from the manifest's [vmin, vmax] stats —
    matching rows live in [needle, next-prefix), exactly the range scan
    the reference's Search admits (search.go:6-116) — so on a store
    clustered by `column` only the boundary region's files open at all.
    Suffix/contains have no order relation for stats to use; they rely
    on the dictionary domain alone. Non-dict chunks fall back to decode
    + the same kernel, so results never depend on codec choice."""
    import pyarrow as pa
    import pyarrow.compute as pc
    import pyarrow.parquet as pq

    from ..stages.decode import search_chunk_table

    kernels = {
        "prefix": pc.starts_with,
        "suffix": pc.ends_with,
        "contains": pc.match_substring,
        "regex": pc.match_substring_regex,  # RE2, same engine as DuckDB
    }
    if mode not in kernels:
        raise ValueError(f"unknown pattern mode {mode!r}")
    if not needle:
        raise ValueError("empty pattern")
    kern = kernels[mode]

    def pred(values):
        return kern(values, pattern=needle)

    chunk_ids = None
    if mode == "prefix" and ord(needle[-1]) < 0x10FFFF:
        # strings with this prefix sort inside [needle, next-prefix)
        hi = needle[:-1] + chr(ord(needle[-1]) + 1)
        files, chunk_ids = chunk_groups_pruned(
            encoded_dir, column, lo=needle, hi=hi
        )
    else:
        files = chunk_files(encoded_dir)
    if not files:
        return ray.data.from_arrow(pa.table({}))
    # route-independent deletes: widen projection, anti-filter, drop
    from .tombstone import anti_filter, plan_tombstone_projection

    tombs, eff_columns, drop = plan_tombstone_projection(encoded_dir, columns)
    read_cols = None
    if eff_columns is not None:
        read_cols = sorted(set(eff_columns) | {column})
    id_list = sorted(chunk_ids) + ["__dict__"] if chunk_ids else None

    def search(batch):
        filters = []
        if read_cols is not None:
            filters.append(("column", "in", read_cols))
        if id_list is not None:
            filters.append(("chunk_id", "in", id_list))
        outs = []
        col = "path" if "path" in batch.column_names else "item"
        for path in batch.column(col).to_pylist():
            chunks = pq.read_table(path, filters=filters or None)
            if chunks.num_rows:
                t = search_chunk_table(
                    chunks, column, columns=eff_columns, pred=pred
                )
                if t.num_rows:
                    outs.append(t)
        if not outs:
            return pa.table({})
        return pa.concat_tables(outs)

    ds = ray.data.from_items(
        files, override_num_blocks=len(files)
    ).map_batches(search, batch_format="pyarrow", zero_copy_batch=True)
    return anti_filter(ds, tombs, drop=drop)
