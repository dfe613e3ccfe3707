"""Derived-column FAMILIES: materialize a new column onto an existing
encode store WITHOUT rewriting it — the columnar answer to "backfill a
quality score / token count / language tag across a 100 TB corpus".

Write (`add_derived_column`): one task per shard decodes only the
input columns of each base chunk group, computes the derived array
with a vectorized fn, encodes it through the ordinary chunk codec
path, and writes it as a PARALLEL chunk file under
``<store>/families/<family>/data/<shard>/<same-file-name>.parquet``
with the SAME chunk_ids as the base file. The base store's bytes are
never touched; the family has its own manifest (stats and all), so
every metadata trick (stats pruning, aggregate pushdown) applies to
the derived column too.

Read (`decode_with_family`): per base-file tasks read the base file
and its family siblings, concatenate the chunk records, and group by
chunk_id — alignment is by construction (derived chunks were cut from
the base groups), so the zip needs no join and no shuffle.

A family is pinned to the base layout it was derived from: rewriting
the base (compaction, upsert, purge) invalidates its families — the
reader fails loudly on a chunk-id mismatch rather than mis-aligning.

Reference analogue: none (parquet-go rewrites files to add columns);
this is the Ray-Data-native column-family layout that makes derive
passes O(new column) instead of O(table).
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

import ray.data

from ..codecs import chunk as chunk_mod


def family_dir(store_dir: str, family: str) -> str:
    return str(Path(store_dir) / "families" / family)


def _shard_files(store_dir: str) -> dict[str, list[str]]:
    """shard -> base chunk-file paths, from the base manifest."""
    from ..state import manifest

    t = manifest.lineage_table(store_dir, columns=["shard", "file"])
    if t is None:
        raise FileNotFoundError(f"no manifest under {store_dir}")
    root = Path(store_dir) / "data"
    out: dict[str, set[str]] = {}
    for s, f in zip(t.column("shard").to_pylist(), t.column("file").to_pylist()):
        out.setdefault(s, set()).add(str(root / s / f"{f}.parquet"))
    return {s: sorted(fs) for s, fs in out.items()}


def add_derived_column(
    store_dir: str,
    family: str,
    column: str,
    fn,
    input_columns: list[str],
    resume: bool = True,
) -> dict:
    """Materialize `column = fn(input_columns)` as a family of the
    store. `fn` receives one pa.Table per chunk group (the input
    columns, group-aligned) and must return an array of the group's
    row count. One task per shard; a shard whose family manifest
    already exists is resume-skipped, so a crashed backfill re-runs
    incrementally."""

    def table_fn(t: pa.Table) -> pa.Table:
        arr = fn(t)
        if isinstance(arr, pa.ChunkedArray):
            arr = arr.combine_chunks()
        if not isinstance(arr, pa.Array):
            arr = pa.array(arr)
        return pa.table({column: arr})

    return add_derived_columns(
        store_dir, family, [column], table_fn, input_columns, resume=resume
    )


def add_derived_columns(
    store_dir: str,
    family: str,
    out_columns: list[str],
    fn,
    input_columns: list[str],
    resume: bool = True,
) -> dict:
    """Multi-column derive: ONE decode pass over the input columns
    backfills several derived columns at once (`fn: pa.Table ->
    pa.Table` with exactly `out_columns`), the way a real pipeline
    attaches (lang, quality, n_tokens) together instead of reading the
    corpus three times. Same layout contract as the single-column
    form: sibling chunk files, matching chunk_ids, own manifest,
    per-shard resume."""
    from ..state import manifest
    from ..stages.encode import (
        CHUNK_SCHEMA,
        chunk_record,
        lineage_of,
        summary_row,
        write_chunk_file,
    )

    from ..codecs.registry import FORMAT_VERSION

    fam_dir = family_dir(store_dir, family)
    manifest.check_format_version(store_dir, "derive")
    manifest.write_job_meta(
        fam_dir,
        {
            "mode": "derived_family",
            "family": family,
            "column": out_columns[0],
            "columns": list(out_columns),
            "input_columns": list(input_columns),
            "format_version": FORMAT_VERSION,
        },
    )
    by_shard = _shard_files(store_dir)
    done = set(manifest.completed_shards(fam_dir)) if resume else set()
    todo = sorted(s for s in by_shard if s not in done)
    if not todo:
        return {"shards": 0, "rows": 0, "enc_nbytes": 0, "skipped": len(done)}
    items = [{"shard": s, "files": by_shard[s]} for s in todo]
    read_cols = sorted(set(input_columns))

    def derive_shard(batch: pa.Table) -> pa.Table:
        out = []
        for row in batch.to_pylist():
            shard, files = row["shard"], row["files"]
            shard_lineages = []
            rows_n = 0
            enc_n = 0
            for path in files:
                chunks = pq.read_table(
                    path, filters=[("column", "in", read_cols)]
                )
                recs = []
                for cid, sub in _iter_groups(chunks):
                    inputs = _decode_group(sub, input_columns)
                    out_t = fn(inputs)
                    if sorted(out_t.column_names) != sorted(out_columns):
                        raise ValueError(
                            f"derived fn returned columns "
                            f"{out_t.column_names}, expected {out_columns}"
                        )
                    if out_t.num_rows != inputs.num_rows:
                        raise ValueError(
                            f"derived fn returned {out_t.num_rows} rows for "
                            f"a {inputs.num_rows}-row chunk group"
                        )
                    for j, col in enumerate(out_columns):
                        arr = out_t.column(col).combine_chunks()
                        blob = chunk_mod.encode_array(arr)
                        # families sit above any base col_idx so zipped
                        # groups order base columns first, deterministically
                        recs.append(
                            chunk_record(cid, shard, 1000 + j, col, arr, blob)
                        )
                    rows_n += out_t.num_rows
                if not recs:
                    continue
                t = pa.Table.from_pylist(recs, schema=CHUNK_SCHEMA)
                written = write_chunk_file(t, fam_dir)
                lin = lineage_of(written)
                shard_lineages.append(lin)
                enc_n += int(
                    np.sum(np.asarray(lin.column("enc_nbytes"), dtype=np.int64))
                )
            lin_all = pa.concat_tables(shard_lineages)
            manifest.record_shard_table(fam_dir, shard, lin_all)
            sr = summary_row(shard, lin_all, True)
            sr["rows"] = rows_n
            out.append(sr)
        from ..stages.encode import SUMMARY_SCHEMA

        return pa.Table.from_pylist(out, schema=SUMMARY_SCHEMA)

    summary = (
        ray.data.from_items(items, override_num_blocks=len(items))
        .map_batches(derive_shard, batch_format="pyarrow", batch_size=None)
        .to_pandas()
    )
    return {
        "shards": int(len(summary)),
        "rows": int(summary["rows"].sum()),
        "enc_nbytes": int(summary["enc_nbytes"].sum()),
        "skipped": len(done),
    }


def _iter_groups(chunks: pa.Table):
    """Yield (chunk_id, group-slice) over a chunk-record table, dict
    pages excluded from grouping but visible to _decode_group via the
    caller passing the full slice range's table."""
    import pyarrow.compute as pc

    data = chunks.filter(pc.not_equal(chunks.column("codec"), "dict_page"))
    ids = data.column("chunk_id").to_numpy(zero_copy_only=False)
    if len(ids) == 0:
        return
    change = np.nonzero(ids[1:] != ids[:-1])[0] + 1
    starts = np.concatenate(([0], change, [len(ids)]))
    # dict pages ride along with every group (cheap: decoded once per
    # group only when a dict_shared chunk references them)
    pages = chunks.filter(pc.equal(chunks.column("codec"), "dict_page"))
    for a, b in zip(starts[:-1], starts[1:]):
        group = data.slice(int(a), int(b - a))
        if pages.num_rows:
            group = pa.concat_tables([pages, group])
        yield ids[int(a)], group


def _decode_group(group: pa.Table, want: list[str]) -> pa.Table:
    """Decode the wanted columns of ONE chunk group."""
    from ..stages.decode import decode_chunk_table

    t = decode_chunk_table(group)
    return t.select([c for c in want if c in t.column_names])


def list_families(store_dir: str) -> dict[str, list[str]]:
    """family name -> derived column names, from the family metas."""
    from ..state import manifest

    root = Path(store_dir) / "families"
    if not root.is_dir():
        return {}
    out = {}
    for d in sorted(p for p in root.iterdir() if p.is_dir()):
        meta = manifest.load_job_meta(str(d)) or {}
        if meta.get("mode") == "derived_family":
            out[d.name] = list(meta.get("columns", [meta["column"]]))
    return out


def drop_family(store_dir: str, family: str) -> bool:
    """Delete a family (e.g. after the base was rewritten and the
    family went stale). Returns True if it existed."""
    import shutil

    d = Path(family_dir(store_dir, family))
    if not d.is_dir():
        return False
    shutil.rmtree(d)
    return True


def search_family_range(
    store_dir: str,
    family: str,
    lo=None,
    hi=None,
    columns: list[str] | None = None,
    column: str | None = None,
) -> ray.data.Dataset:
    """Range predicate on a DERIVED column, pruned by the FAMILY's own
    manifest stats: chunk groups whose family [vmin, vmax] cannot
    intersect [lo, hi] are skipped driver-side — neither their family
    chunks nor their (much larger) base chunks are ever read. Surviving
    groups zip base + family and apply the residual row filter. This is
    the payoff of families being full stores: a backfilled quality
    score immediately prunes reads of the corpus it scores."""
    import json

    import pyarrow.compute as pc

    from ..stages.decode import decode_chunk_table
    from ..state import manifest

    fams = list_families(store_dir)
    if family not in fams:
        raise FileNotFoundError(f"no such family: {family}")
    fam_cols = fams[family]
    if column is None:
        if len(fam_cols) != 1:
            raise ValueError(
                f"family {family!r} has columns {fam_cols}; pass column="
            )
        col = fam_cols[0]
    elif column in fam_cols:
        col = column
    else:
        raise ValueError(f"family {family!r} has no column {column!r}")
    fam_root = Path(family_dir(store_dir, family))
    t = manifest.lineage_table(
        str(fam_root),
        columns=["shard", "file", "chunk_id", "column", "vmin", "vmax"],
        filters=[("column", "==", col)],
    )
    if t is None:
        raise FileNotFoundError(f"family {family} has no manifest")
    keep_ids: set[str] = set()
    files: set[tuple[str, str]] = set()
    for r in t.to_pylist():
        vmin = json.loads(r["vmin"]) if r.get("vmin") else None
        vmax = json.loads(r["vmax"]) if r.get("vmax") else None
        if lo is not None and vmax is not None and vmax < lo:
            continue
        if hi is not None and vmin is not None and vmin > hi:
            continue
        keep_ids.add(r["chunk_id"])
        files.add((r["shard"], r["file"]))
    if not files:
        return ray.data.from_arrow(pa.table({}))
    # base-store tombstones apply to family-routed reads too: widen the
    # projection so the anti-filter sees the tombstoned columns
    from .tombstone import anti_filter, plan_tombstone_projection

    tombs, eff_columns, drop = plan_tombstone_projection(store_dir, columns)
    base_root = Path(store_dir) / "data"
    pairs = sorted(files)
    id_list = sorted(keep_ids) + ["__dict__"]
    base_cols = None
    if eff_columns is not None:
        base_cols = [c for c in eff_columns if c != col]

    def scan(batch: pa.Table) -> pa.Table:
        pcol = "path" if "path" in batch.column_names else "item"
        outs = []
        for packed in batch.column(pcol).to_pylist():
            shard, fname = packed.split("||")
            filters = [("chunk_id", "in", id_list)]
            fam_t = pq.read_table(
                fam_root / "data" / shard / f"{fname}.parquet",
                filters=filters,
            )
            base_path = base_root / shard / f"{fname}.parquet"
            parts = [fam_t]
            if base_cols is None or base_cols:
                bf = list(filters)
                if base_cols is not None:
                    bf.append(("column", "in", base_cols))
                base_t = pq.read_table(base_path, filters=bf)
                if base_t.num_rows:
                    parts.append(base_t)
            combined = pa.concat_tables(parts).sort_by(
                [("chunk_id", "ascending"), ("col_idx", "ascending")]
            )
            got = decode_chunk_table(combined)
            if not got.num_rows:
                continue
            keep = pc.is_valid(got.column(col))
            if lo is not None:
                keep = pc.and_kleene(
                    keep, pc.greater_equal(got.column(col), pa.scalar(lo))
                )
            if hi is not None:
                keep = pc.and_kleene(
                    keep, pc.less_equal(got.column(col), pa.scalar(hi))
                )
            got = got.filter(keep)
            if eff_columns is not None:
                got = got.select(
                    [c for c in eff_columns if c in got.column_names]
                )
            if got.num_rows:
                outs.append(got)
        if not outs:
            return pa.table({})
        return pa.concat_tables(outs)

    ds = ray.data.from_items(
        [f"{s}||{f}" for s, f in pairs], override_num_blocks=len(pairs)
    ).map_batches(scan, batch_format="pyarrow", zero_copy_batch=True)
    return anti_filter(ds, tombs, drop=drop)


def decode_with_family(
    store_dir: str,
    families: list[str] | None = None,
    columns: list[str] | None = None,
) -> ray.data.Dataset:
    """Decode the store ZIPPED with one or more derived-column families
    — per base-file tasks, no join, no shuffle: each task reads the
    base chunk file plus its family siblings (same shard, same file
    name, same chunk_ids), concatenates the chunk records, and the
    ordinary group decode emits base + derived columns side by side.
    Column projection pushes into every file read. A family whose
    chunk ids no longer match the base (the base was rewritten after
    the derive) fails the zip loudly rather than mis-aligning."""
    from ..state import manifest

    manifest.check_format_version(store_dir, "decode")
    fams = list_families(store_dir)
    if families is not None:
        missing = [f for f in families if f not in fams]
        if missing:
            raise FileNotFoundError(f"no such families: {missing}")
        fams = {f: fams[f] for f in families}
    # base-store tombstones ride the zip: widen, anti-filter, drop
    from .tombstone import anti_filter, plan_tombstone_projection

    tombs, eff_columns, drop = plan_tombstone_projection(store_dir, columns)
    derived_cols = {c for cs in fams.values() for c in cs}
    base_cols = None
    want_fams = fams
    if eff_columns is not None:
        base_cols = [c for c in eff_columns if c not in derived_cols]
        want_fams = {
            f: cs for f, cs in fams.items() if set(cs) & set(eff_columns)
        }
    fam_order = sorted(want_fams)
    fam_roots = {f: Path(family_dir(store_dir, f)) / "data" for f in fam_order}
    from .decode import chunk_files

    files = chunk_files(store_dir)
    if not files:
        raise FileNotFoundError(f"no encoded chunks under {store_dir}")

    def decode_zip(batch: pa.Table) -> pa.Table:
        from ..stages.decode import decode_chunk_table

        col = "path" if "path" in batch.column_names else "item"
        outs = []
        for path in batch.column(col).to_pylist():
            p = Path(path)
            shard, fname = p.parent.name, p.name
            parts = []
            if base_cols is None or base_cols:
                base = pq.read_table(
                    path,
                    filters=[("column", "in", base_cols)]
                    if base_cols is not None
                    else None,
                )
                if base.num_rows:
                    parts.append(base)
            for i, f in enumerate(fam_order):
                fp = fam_roots[f] / shard / fname
                if not fp.exists():
                    raise FileNotFoundError(
                        f"family {f!r} has no sibling for {shard}/{fname} — "
                        "was the base store rewritten after the derive?"
                    )
                ft = pq.read_table(fp)
                # deterministic zip order when several families ride:
                # family i's columns keep their internal offset (stored
                # col_idx = 1000+j) but shift to a per-family band
                old = ft.column("col_idx").to_numpy(zero_copy_only=False)
                ft = ft.set_column(
                    ft.schema.get_field_index("col_idx"),
                    "col_idx",
                    pa.array(
                        (1000 + i * 100 + (old - 1000)).astype(old.dtype),
                        type=ft.schema.field("col_idx").type,
                    ),
                )
                parts.append(ft)
            if not parts:
                continue
            combined = pa.concat_tables(parts).sort_by(
                [("chunk_id", "ascending"), ("col_idx", "ascending")]
            )
            outs.append(decode_chunk_table(combined))
        if not outs:
            return pa.table({})
        out = pa.concat_tables(outs)
        if eff_columns is not None:
            out = out.select(
                [c for c in eff_columns if c in out.column_names]
            )
        return out

    ds = ray.data.from_items(
        files, override_num_blocks=len(files)
    ).map_batches(decode_zip, batch_format="pyarrow", zero_copy_batch=True)
    return anti_filter(ds, tombs, drop=drop)
