"""CLI: python -m parquet_go_ray <command> ...

Commands (the pipelines a reference user runs day-to-day):

  encode   INPUT_DIR OUT_DIR [--mode direct|lang_local|lang_salted]
           [--compression zstd|snappy|lz4|gzip] [--rows-per-chunk N]
           [--no-resume]
  decode   ENCODED_DIR OUT_DIR          # back to parquet
  verify   INPUT_DIR ENCODED_DIR       # order-insensitive bit-identity
  describe ENCODED_DIR                  # schema/codec/stats summary
  compact  ENCODED_DIR [--target-mb N]  # bin-pack small shards
  fsck     ENCODED_DIR [--shallow]      # consistency + CRC check
  curate   INPUT_DIR OUT_DIR [--langs en,de] [--min-chars N] [--gopher]
           [--dedup-mode pairs|clusters] [--decontaminate-against EVAL.parquet]
           [--redact-pii]
           # full curation chain -> partitioned parquet corpus
  audit    INPUT_DIR [--text-col text] [--lang-col lang]
           # corpus report: counts, lang histogram, length percentiles,
           # Gopher keep rate, HLL duplicate estimate (all bounded partials)
  vector   build STORE_DIR INPUT [--pq] [--centroids N] | append STORE_DIR INPUT
           | compact STORE_DIR | search STORE_DIR INPUT --query-id ID [--k N]
           # ANN store: IVF/IVFPQ build, frozen-quantizer appends,
           # generation compaction, probe-pruned search
  bench    [--scaling]                  # same as bench.py

Global: --address auto attaches to a running cluster (ray job submit).

Owns its Ray session (the driver contract only forbids ray.init inside
__ray_entry__ / library code).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path


def _init_ray(num_cpus: int | None, address: str | None = None):
    """Own the Ray session. address='local' starts an in-process node;
    'auto' (the `ray job submit` case) attaches to the running cluster,
    where num_cpus is the cluster's to decide."""
    import os

    import ray

    addr = address or os.environ.get("RAY_ADDRESS") or "local"
    if not ray.is_initialized():
        kw = {"num_cpus": num_cpus} if addr == "local" else {}
        ray.init(
            address=addr,
            include_dashboard=False,
            ignore_reinit_error=True,
            logging_level="ERROR",
            **kw,
        )
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False
    from .tuning import apply_data_context_tuning

    apply_data_context_tuning()


def cmd_encode(args) -> int:
    _init_ray(args.num_cpus, getattr(args, "address", None))
    from .pipelines.encode import encode_job

    files = sorted(str(p) for p in Path(args.input_dir).glob("*.parquet"))
    if not files:
        print(f"no parquet files under {args.input_dir}", file=sys.stderr)
        return 2
    overrides = dict(kv.split("=", 1) for kv in args.codec) or None
    compression = args.compression
    if compression and "=" in compression:
        compression = dict(kv.split("=", 1) for kv in compression.split(","))
    summary = encode_job(
        files,
        args.out_dir,
        mode=args.mode,
        rows_per_chunk=args.rows_per_chunk,
        resume=not args.no_resume,
        compression=compression,
        codec_overrides=overrides,
    )
    print(json.dumps(summary))
    return 0


def cmd_export(args) -> int:
    """Export parquet shards (or an encoded chunk store) as wire-level
    parquet written by our own encoders — readable by any parquet
    reader, including the reference."""
    _init_ray(args.num_cpus, getattr(args, "address", None))
    from .pipelines.export import export_parquet_job, export_store

    src = Path(args.input)
    if (src / "manifests").exists() or (src / "data").exists():
        summary = export_store(
            str(src), args.out_dir, compression=args.compression
        )
    else:
        import pyarrow.parquet as pq

        from .codecs.parquet_wire import supports_schema

        files = sorted(str(p) for p in src.glob("*.parquet"))
        if not files:
            print(f"no parquet files under {src}", file=sys.stderr)
            return 2
        flat = [f for f in files if supports_schema(pq.read_schema(f))]
        unsupported = sorted(set(files) - set(flat))
        if unsupported:
            print(
                f"skipping {len(unsupported)} file(s) with unsupported column types: "
                + ", ".join(Path(f).name for f in unsupported),
                file=sys.stderr,
            )
        if not flat:
            return 2
        summary = export_parquet_job(
            flat, args.out_dir, compression=args.compression
        )
        summary["files_unsupported"] = len(unsupported)
    print(json.dumps(summary))
    return 0


def cmd_decode(args) -> int:
    _init_ray(args.num_cpus, getattr(args, "address", None))
    from .pipelines.decode import decode_dataset

    ds = decode_dataset(args.encoded_dir)
    ds.write_parquet(args.out_dir)
    print(json.dumps({"rows": ds.count(), "out": args.out_dir}))
    return 0


def cmd_verify(args) -> int:
    _init_ray(args.num_cpus, getattr(args, "address", None))
    import ray.data

    from .pipelines.decode import decode_dataset
    from .pipelines.verify import verify_roundtrip

    files = sorted(str(p) for p in Path(args.input_dir).glob("*.parquet"))
    res = verify_roundtrip(
        ray.data.read_parquet(files), decode_dataset(args.encoded_dir)
    )
    print(json.dumps(res))
    return 0 if res["ok"] else 1


def cmd_describe(args) -> int:
    from .state import manifest

    meta_rows = 0
    per_col: dict[str, dict] = {}
    lt = manifest.lineage_table(
        args.encoded_dir,
        columns=["shard", "column", "codec", "col_idx", "n", "raw_nbytes",
                 "enc_nbytes", "n_null"],
    )
    if lt is not None and lt.num_rows:
        df = lt.to_pandas()
        n_shards = df["shard"].nunique()
        meta_rows = int(df.loc[df["col_idx"] == 0, "n"].sum())
        for name, g in df.groupby("column", sort=False):
            per_col[name] = {
                "codecs": g["codec"].value_counts().to_dict(),
                "raw": int(g["raw_nbytes"].sum()),
                "enc": int(g["enc_nbytes"].sum()),
                "nulls": int(g["n_null"].sum()),
                "chunks": len(g),
            }
    else:
        shards = manifest.load_all(args.encoded_dir)
        n_shards = len(shards)
        for m in shards:
            meta_rows += m.get("rows", 0)
            for r in m["records"]:
                c = per_col.setdefault(
                    r["column"],
                    {"codecs": {}, "raw": 0, "enc": 0, "nulls": 0, "chunks": 0},
                )
                c["codecs"][r["codec"]] = c["codecs"].get(r["codec"], 0) + 1
                c["raw"] += r["raw_nbytes"]
                c["enc"] += r["enc_nbytes"]
                c["nulls"] += r["n_null"]
                c["chunks"] += 1
    print(f"shards: {n_shards}  rows: {meta_rows}")
    print(f"{'column':12s} {'chunks':>7s} {'raw MB':>9s} {'enc MB':>9s} {'ratio':>6s}  codecs")
    for name, c in per_col.items():
        ratio = c["enc"] / max(1, c["raw"])
        codecs = ",".join(f"{k}:{v}" for k, v in sorted(c["codecs"].items()))
        print(
            f"{name:12s} {c['chunks']:7d} {c['raw']/1e6:9.2f} {c['enc']/1e6:9.2f} "
            f"{ratio:6.3f}  {codecs}"
        )
    return 0


def cmd_show(args) -> int:
    """Pretty-print the first N decoded rows (print.go PrintRowGroup
    parity; decode is column-projected if --columns given)."""
    _init_ray(args.num_cpus, getattr(args, "address", None))
    from .pipelines.decode import decode_dataset

    cols = args.columns.split(",") if args.columns else None
    ds = decode_dataset(args.encoded_dir, columns=cols)
    shown = 0
    for batch in ds.iter_batches(batch_size=args.n, batch_format="pandas"):
        with_idx = batch.head(args.n - shown)
        print(with_idx.to_string(max_colwidth=48))
        shown += len(with_idx)
        if shown >= args.n:
            break
    return 0


def cmd_compact(args) -> int:
    """Bin-pack small shards (LSM-style store maintenance; see
    pipelines/compact.py for the crash-safety protocol)."""
    _init_ray(args.num_cpus, getattr(args, "address", None))
    from .pipelines.compact import compact_store

    print(json.dumps(compact_store(args.encoded_dir, target_bytes=args.target_mb << 20)))
    return 0


def cmd_delete(args) -> int:
    """Record a tombstone delete (no data rewritten; reads filter it
    immediately). Values are parsed as int when possible, else kept as
    strings — matching the column's type is the caller's contract."""
    from .pipelines.tombstone import delete_where

    vals = []
    for v in args.values:
        try:
            vals.append(int(v))
        except ValueError:
            vals.append(v)
    print(json.dumps(delete_where(args.encoded_dir, args.column, vals)))
    return 0


def cmd_purge(args) -> int:
    """Physically reclaim tombstoned rows (stats-pruned shard rewrites
    under the compaction intent-log protocol), then retire the
    tombstone files."""
    _init_ray(args.num_cpus, getattr(args, "address", None))
    from .pipelines.tombstone import purge_tombstones

    print(json.dumps(purge_tombstones(args.encoded_dir)))
    return 0


def cmd_fsck(args) -> int:
    """Distributed store consistency check (manifest vs files vs CRCs);
    exit 1 when errors are found."""
    _init_ray(args.num_cpus, getattr(args, "address", None))
    from .pipelines.fsck import fsck_store

    res = fsck_store(args.encoded_dir, deep=not args.shallow)
    print(json.dumps(res))
    return 0 if res["ok"] else 1


def cmd_curate(args) -> int:
    """Run the complete curation chain over a directory of document
    parquet shards and write the curated (doc_id, text) corpus as
    PARTITIONED parquet (many files, one per output block) — the layout
    a failed downstream job can resume over shard by shard."""
    _init_ray(args.num_cpus, getattr(args, "address", None))
    from .pipelines.dedup import curate_corpus_full

    import ray.data

    files = sorted(str(p) for p in Path(args.input_dir).glob("*.parquet"))
    if not files:
        print(f"no parquet files under {args.input_dir}", file=sys.stderr)
        return 2
    ds = ray.data.read_parquet(files)
    bench_ds = (
        ray.data.read_parquet(args.decontaminate_against)
        if args.decontaminate_against
        else None
    )
    out = curate_corpus_full(
        ds,
        bench_ds=bench_ds,
        langs=tuple(args.langs.split(",")) if args.langs else None,
        min_chars=args.min_chars,
        jaccard_threshold=args.jaccard_threshold,
        dedup_mode=args.dedup_mode,
        quality="gopher" if args.gopher else None,
        redact=args.redact_pii,
    )
    out.write_parquet(args.out_dir)
    n = ray.data.read_parquet(args.out_dir).count()
    print(json.dumps({"kept_docs": int(n), "out_dir": args.out_dir}))
    return 0


def cmd_ingest(args) -> int:
    """Ingest a directory of JSONL / CSV / ORC / Feather(Arrow-IPC) /
    parquet files into an encoded chunk store: non-parquet sources
    stage into a parquet layout first (JSONL/CSV stream through
    ray.data readers, one shard per output block; ORC/Feather stage one
    task per input file via the pyarrow readers, staged shard named by
    the input stem — re-running skips already-staged files), then the
    normal path-planned encode job runs over the staged shards. Parquet
    input skips the staging pass."""
    _init_ray(args.num_cpus, getattr(args, "address", None))
    import ray.data

    from .pipelines.encode import encode_job

    fmt = args.format
    pats = {
        "jsonl": "*.jsonl",
        "csv": "*.csv",
        "parquet": "*.parquet",
        "orc": "*.orc",
        "feather": "*.feather",
    }
    files = sorted(str(p) for p in Path(args.input_dir).glob(pats[fmt]))
    if not files:
        print(f"no {pats[fmt]} files under {args.input_dir}", file=sys.stderr)
        return 2
    if fmt == "parquet":
        shard_files = files
    elif fmt in ("orc", "feather"):
        staging = Path(args.staging or str(Path(args.out_dir) / "_staged"))
        staging.mkdir(parents=True, exist_ok=True)

        def stage(batch):
            import pyarrow as pa
            import pyarrow.parquet as _pq

            done = []
            col = "path" if "path" in batch.column_names else "item"
            for path in batch.column(col).to_pylist():
                dst = staging / (Path(path).stem + ".parquet")
                if not dst.exists():  # resumable: stem-named shards
                    if fmt == "orc":
                        from pyarrow import orc as _orc

                        t = _orc.ORCFile(path).read()
                    else:
                        from pyarrow import feather as _feather

                        t = _feather.read_table(path)
                    tmp = dst.with_suffix(".tmp")
                    _pq.write_table(t, tmp)
                    tmp.rename(dst)
                done.append(str(dst))
            return pa.table({"staged": pa.array(done)})

        list(
            ray.data.from_items(files, override_num_blocks=len(files))
            .map_batches(stage, batch_format="pyarrow")
            .iter_batches()
        )
        shard_files = sorted(str(p) for p in staging.glob("*.parquet"))
    else:
        staging = args.staging or str(Path(args.out_dir) / "_staged")
        ds = (
            ray.data.read_json(files)
            if fmt == "jsonl"
            else ray.data.read_csv(files)
        )
        ds.write_parquet(staging)
        shard_files = sorted(str(p) for p in Path(staging).glob("*.parquet"))
    summary = encode_job(
        shard_files,
        args.out_dir,
        rows_per_chunk=args.rows_per_chunk,
        compression=args.compression,
        bloom_columns=tuple(args.bloom.split(",")) if args.bloom else (),
    )
    print(json.dumps({"format": fmt, **{k: summary[k] for k in ("rows", "sec") if k in summary}, "out_dir": args.out_dir}))
    return 0


def cmd_text_index(args) -> int:
    """Build (or incrementally update) the inverted text index over a
    parquet corpus directory."""
    _init_ray(args.num_cpus, getattr(args, "address", None))
    from .pipelines.textindex import (
        build_text_index,
        compact_index,
        update_text_index,
    )

    if args.compact:
        info = compact_index(args.index_dir)
        print(json.dumps({**info, "index_dir": args.index_dir}))
        return 0
    files = sorted(str(p) for p in Path(args.input_dir).glob("*.parquet"))
    if not files:
        print(f"no parquet files under {args.input_dir}", file=sys.stderr)
        return 2
    if args.update:
        info = update_text_index(args.index_dir, files)
    else:
        info = build_text_index(
            files,
            args.index_dir,
            text_col=args.text_col,
            id_col=args.id_col,
            num_buckets=args.buckets,
        )
    print(json.dumps({**info, "index_dir": args.index_dir}))
    return 0


def cmd_search(args) -> int:
    """Query the inverted index: doc-id search (AND/OR), BM25 top-k,
    exact phrase, or proximity (--near, two tokens within --window)."""
    _init_ray(args.num_cpus, getattr(args, "address", None))
    from .pipelines.textindex import (
        near_docs,
        phrase_docs,
        search_docs,
        search_ranked,
    )

    if args.phrase:
        ds = phrase_docs(args.index_dir, " ".join(args.tokens))
    elif args.near:
        if len(args.tokens) != 2:
            print("--near takes exactly two tokens", file=sys.stderr)
            return 2
        ds = near_docs(
            args.index_dir, args.tokens[0], args.tokens[1], window=args.window
        )
    elif args.rank:
        ds = search_ranked(args.index_dir, args.tokens, k=args.k)
    else:
        ds = search_docs(args.index_dir, args.tokens, mode=args.mode)
    rows = ds.to_pandas()
    if args.rank:
        rows = rows.sort_values(
            ["score", "doc_id"], ascending=[False, True]
        ).head(args.k or len(rows))
    print(rows.to_string(index=False))
    print(json.dumps({"matches": len(rows)}))
    return 0


def cmd_derive(args) -> int:
    """Backfill a derived column onto an existing store as a column
    FAMILY — the base store's bytes are never rewritten."""
    _init_ray(args.num_cpus, getattr(args, "address", None))
    from .pipelines.derive import add_derived_column

    src = args.input

    def token_count(t):
        import pyarrow as pa
        import pyarrow.compute as pc

        return pc.list_value_length(
            pc.split_pattern(t.column(src).combine_chunks(), pattern=" ")
        ).cast(pa.int64())

    def char_count(t):
        import pyarrow as pa
        import pyarrow.compute as pc

        return pc.utf8_length(t.column(src).combine_chunks()).cast(pa.int64())

    fn = {"token_count": token_count, "char_count": char_count}[args.kind]
    info = add_derived_column(
        args.store_dir, args.family, args.column, fn, [src]
    )
    print(json.dumps({**info, "store": args.store_dir, "family": args.family}))
    return 0


def cmd_merge(args) -> int:
    """Range-planned merge of sorted stores into one globally sorted
    store (zero all-to-all; resumable per range). --into ingests the
    stores as a generation of an EXISTING merged store; --compact
    folds generations back to one shard per range."""
    _init_ray(args.num_cpus, getattr(args, "address", None))
    from .pipelines.merge_store import (
        compact_merged,
        merge_into,
        merge_sorted_stores,
    )

    if args.compact:
        info = compact_merged(args.out_dir)
    elif args.into:
        info = merge_into(args.out_dir, args.stores)
    else:
        info = merge_sorted_stores(
            args.stores, args.out_dir, args.key, num_ranges=args.ranges
        )
    print(json.dumps({**info, "out_dir": args.out_dir}))
    return 0


def cmd_changelog(args) -> int:
    """Apply a CDC changelog batch (op column: upsert/delete) to the
    store, batch-level exactly-once."""
    _init_ray(args.num_cpus, getattr(args, "address", None))
    from .pipelines.tombstone import apply_changelog

    files = sorted(str(p) for p in Path(args.input_dir).glob("*.parquet"))
    if not files:
        print(f"no parquet files under {args.input_dir}", file=sys.stderr)
        return 2
    info = apply_changelog(
        args.store_dir, files, key_col=args.key, op_col=args.op_col
    )
    print(json.dumps({**info, "store": args.store_dir}))
    return 0


def cmd_query(args) -> int:
    """Routed predicate scan over an encode store. --where forms:
    'col == v', 'col in a,b,c', 'col between lo hi', 'col <= v',
    'col >= v', 'col prefix s' (also suffix/contains/regex),
    'col is_null', or omitted for a full scan. --explain prints the
    plan (path + prune counts) without executing."""
    _init_ray(args.num_cpus, getattr(args, "address", None))
    from .pipelines.query import explain, scan

    if args.topk:
        from .pipelines.decode import topk_store

        cols = args.columns.split(",") if args.columns else None
        df = topk_store(
            args.store_dir, args.topk, args.limit, columns=cols
        ).to_pandas()
        print(df.to_string(index=False))
        print(json.dumps({"matches": len(df)}))
        return 0
    if args.median:
        from .pipelines.decode import quantile_store

        df = quantile_store(
            args.store_dir, args.median, args.q, out_name="value"
        ).to_pandas()
        print(json.dumps({"column": args.median, "q": args.q,
                          "value": float(df["value"].iloc[0])}))
        return 0
    if args.histogram:
        from .pipelines.agg import histogram_store

        df = histogram_store(
            args.store_dir, args.histogram, args.width
        ).to_pandas()
        print(df.to_string(index=False))
        print(json.dumps({"buckets": len(df), "width": args.width}))
        return 0
    column = pred = None
    if args.where:
        parts = args.where.split()
        column, op = parts[0], parts[1]
        rest = parts[2:]
        if op == "is_null":
            pred = ("is_null",)
        elif op == "between":
            pred = ("between", _lit(rest[0]), _lit(rest[1]))
        elif op == "in":
            pred = ("in", [_lit(v) for v in rest[0].split(",")])
        elif op in ("==", "<=", ">="):
            pred = (op, _lit(rest[0]))
        elif op in ("prefix", "suffix", "contains", "regex"):
            pred = (op, rest[0])
        else:
            print(f"unknown predicate op {op!r}", file=sys.stderr)
            return 2
    if args.explain:
        print(json.dumps(explain(args.store_dir, column, pred)))
        return 0
    cols = args.columns.split(",") if args.columns else None
    ds = scan(args.store_dir, column, pred, columns=cols)
    n = 0
    shown = 0
    for b in ds.iter_batches(batch_size=4096, batch_format="pyarrow"):
        if shown < args.limit:
            take = min(args.limit - shown, b.num_rows)
            print(b.slice(0, take).to_pandas().to_string(index=False))
            shown += take
        n += b.num_rows
    print(json.dumps({"matches": n}))
    return 0


def _lit(s: str):
    """int if it parses, else float, else the string itself."""
    for cast in (int, float):
        try:
            return cast(s)
        except ValueError:
            pass
    return s


def cmd_index_build(args) -> int:
    """Persist the exact-dedup index (16 B/doc content hashes, one
    shard per hash partition, epoch-versioned) of a curated corpus —
    the artifact later snapshots dedupe against without re-reading
    this corpus."""
    _init_ray(args.num_cpus, getattr(args, "address", None))
    import ray.data

    from .pipelines.dedup import build_dedup_index

    files = sorted(str(p) for p in Path(args.input_dir).glob("*.parquet"))
    if not files:
        print(f"no parquet files under {args.input_dir}", file=sys.stderr)
        return 2
    ds = ray.data.read_parquet(files, columns=[args.id_col, args.text_col])
    meta = build_dedup_index(
        ds, args.index_dir, text_col=args.text_col, id_col=args.id_col
    )
    print(json.dumps({**meta, "index_dir": args.index_dir}))
    return 0


def cmd_snapshot_dedupe(args) -> int:
    """Dedupe a NEW crawl snapshot against an existing dedup index
    (incremental cross-snapshot exact dedup) and write the surviving
    docs as partitioned parquet."""
    _init_ray(args.num_cpus, getattr(args, "address", None))
    import ray.data

    from .pipelines.dedup import dedupe_against_index

    files = sorted(str(p) for p in Path(args.input_dir).glob("*.parquet"))
    if not files:
        print(f"no parquet files under {args.input_dir}", file=sys.stderr)
        return 2
    ds = ray.data.read_parquet(files, columns=[args.id_col, args.text_col])
    out = dedupe_against_index(
        ds,
        args.index_dir,
        text_col=args.text_col,
        id_col=args.id_col,
        payload_cols=(args.text_col,),
    )
    out.write_parquet(args.out_dir)
    n = ray.data.read_parquet(args.out_dir).count()
    print(json.dumps({"kept_docs": int(n), "out_dir": args.out_dir}))
    return 0


def cmd_vector(args) -> int:
    """ANN vector-store operations: build an IVF or IVFPQ store from an
    embedding table, append an increment under the store's frozen
    quantizers, fold generation files (compact), and search. The
    store-side semantics live in pipelines/similarity.py; this verb
    makes them operable like the rest of the engine (incl. via
    `ray job submit -- python -m parquet_go_ray vector ...`)."""
    _init_ray(args.num_cpus, getattr(args, "address", None))
    import numpy as np
    import pyarrow.parquet as pq
    import ray.data

    from .pipelines import similarity as S

    def _files(d: str) -> list[str]:
        p = Path(d)
        if p.is_file():
            return [str(p)]
        return sorted(str(f) for f in p.glob("*.parquet"))

    def _read(d: str) -> ray.data.Dataset:
        files = _files(d)
        if not files:
            raise SystemExit(f"no parquet files under {d}")
        return ray.data.read_parquet(
            files, columns=[args.id_col, args.vec_col]
        )

    if args.action == "build":
        if not args.input_dir:
            raise SystemExit("vector build needs INPUT after STORE_DIR")
        ds = _read(args.input_dir)
        if args.pq:
            info = S.build_ivfpq_store(
                ds, args.store_dir, vec_col=args.vec_col,
                id_col=args.id_col, n_centroids=args.centroids,
            )
        else:
            info = S.build_ivf_store(
                ds, args.store_dir, vec_col=args.vec_col,
                id_col=args.id_col, n_centroids=args.centroids,
            )
        print(json.dumps(info))
    elif args.action == "append":
        if not args.input_dir:
            raise SystemExit("vector append needs INPUT after STORE_DIR")
        r = S.ivfpq_append(
            args.store_dir, _read(args.input_dir),
            generation=args.generation,
        )
        print(json.dumps(r))
    elif args.action == "compact":
        print(json.dumps(S.ivfpq_compact(args.store_dir)))
    elif args.action == "fsck":
        res = S.fsck_vector_store(args.store_dir, deep=not args.shallow)
        print(json.dumps(res))
        return 0 if res["ok"] else 1
    else:  # search
        if not args.input_dir or args.query_id is None:
            raise SystemExit(
                "vector search needs the raw table (INPUT) and --query-id"
            )
        qt = pq.read_table(
            _files(args.input_dir),
            columns=[args.id_col, args.vec_col],
            filters=[(args.id_col, "==", args.query_id)],
        )
        if qt.num_rows == 0:
            raise SystemExit(f"{args.id_col}={args.query_id} not found")
        query = np.asarray(qt.column(args.vec_col)[0].as_py(), dtype=np.float64)
        if (Path(args.store_dir) / "_ivfpq_meta.json").exists():
            out = S.ivfpq_topk_store(
                args.store_dir, _read(args.input_dir), query,
                k=args.k, n_probe=args.probes, rerank=args.rerank,
            )
        else:
            out = S.ivf_topk_store(
                args.store_dir, query, k=args.k, n_probe=args.probes
            )
        print(
            json.dumps(
                {
                    "query_id": args.query_id,
                    "ids": [int(i) for i in out[args.id_col]],
                }
            )
        )
    return 0


def cmd_audit(args) -> int:
    """One-shot corpus audit: row count, language histogram, length
    percentiles, Gopher keep rate, exact-duplicate fraction — every
    stat a bounded mergeable partial (hashes/counts shuffle, text
    never does). The 'what am I about to train on' report."""
    _init_ray(args.num_cpus, getattr(args, "address", None))
    import numpy as np
    import pyarrow as pa
    import pyarrow.compute as pc

    import ray.data

    files = sorted(str(p) for p in Path(args.input_dir).glob("*.parquet"))
    if not files:
        print(f"no parquet files under {args.input_dir}", file=sys.stderr)
        return 2
    ds = ray.data.read_parquet(files)
    cols = set(ds.schema().names)
    text_col, lang_col = args.text_col, args.lang_col

    def partial(t: pa.Table):
        import pandas as pd

        from .functions.hashing import content_hash128
        from .functions.sketch import hll_registers
        from .functions.text import gopher_quality

        txt = t.column(text_col)
        lens = pc.utf8_length(txt).to_numpy()
        h1, _ = content_hash128([x.encode() for x in txt.to_pylist()])
        keep = int(pc.sum(gopher_quality(txt)["keep"]).as_py() or 0)
        out = {
            "n": np.array([len(t)], dtype=np.int64),
            "keep": np.array([keep], dtype=np.int64),
            "len_hist": [np.bincount(
                np.minimum(lens // 64, 1023).astype(np.int64), minlength=1024
            ).tobytes()],
            # distinct-count SKETCH, not the hashes themselves: the
            # driver folds 4 KiB registers per batch, never doc hashes
            "hll": [hll_registers(h1).tobytes()],
        }
        if lang_col in cols:
            vc = pd.Series(t.column(lang_col).to_pandas()).value_counts()
            out["langs"] = [dict(zip(vc.index, [int(v) for v in vc]))]
        else:
            out["langs"] = [{}]
        return pd.DataFrame(out)

    from .functions.sketch import hll_estimate, hll_merge

    parts = ds.map_batches(partial, batch_format="pyarrow").to_pandas()
    n = int(parts["n"].sum())
    hist = np.zeros(1024, dtype=np.int64)
    langs: dict = {}
    regs = None
    for row in parts.itertuples(index=False):
        hist += np.frombuffer(row.len_hist, dtype=np.int64)
        for k, v in row.langs.items():
            langs[k] = langs.get(k, 0) + v
        r = np.frombuffer(row.hll, dtype=np.uint8)
        regs = r if regs is None else hll_merge(regs, r)
    distinct = int(round(hll_estimate(regs))) if regs is not None else 0
    cdf = np.cumsum(hist)
    def pctl(q):
        r = int(np.searchsorted(cdf, q * n))
        return int(min(r, 1023) * 64)
    report = {
        "docs": n,
        "distinct_texts_est": min(distinct, n),
        "duplicate_fraction_est": round(max(0.0, 1 - distinct / max(n, 1)), 4),
        "gopher_keep_rate": round(float(parts["keep"].sum()) / max(n, 1), 4),
        "length_p50": pctl(0.5), "length_p90": pctl(0.9), "length_p99": pctl(0.99),
        "langs": dict(sorted(langs.items(), key=lambda kv: -kv[1])),
    }
    print(json.dumps(report))
    return 0


def cmd_bench(args) -> int:
    sys.argv = ["bench.py"] + (["--scaling"] if args.scaling else [])
    repo = Path(__file__).resolve().parent.parent
    sys.path.insert(0, str(repo))
    import bench

    if args.scaling:
        print(json.dumps(bench.run_scaling()))
    else:
        print(json.dumps(bench.run_bench()))
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(prog="parquet_go_ray")
    p.add_argument("--num-cpus", type=int, default=None)
    p.add_argument(
        "--address", default=None,
        help="Ray address: 'local' (default) starts a node; 'auto' attaches "
        "to a running cluster — the `ray job submit` entrypoint mode",
    )
    sub = p.add_subparsers(dest="cmd", required=True)

    e = sub.add_parser("encode")
    e.add_argument("input_dir")
    e.add_argument("out_dir")
    e.add_argument("--mode", default="direct",
                   choices=["direct", "lang_local", "lang_salted"])
    e.add_argument(
        "--codec", action="append", default=[], metavar="COL=CODEC",
        help="per-column codec override (struct-tag parity, e.g. text=fsst)",
    )
    e.add_argument(
        "--compression", default=None,
        help="page-compression codec for every column (e.g. zstd), or "
        "per-column pairs 'text=zstd,props=snappy,*=lz4' ('*' = default; "
        "columns without an entry stay uncompressed)",
    )
    e.add_argument("--rows-per-chunk", type=int, default=4096)
    e.add_argument("--no-resume", action="store_true")
    e.set_defaults(fn=cmd_encode)

    x = sub.add_parser("export")
    x.add_argument("input", help="parquet dir or encoded chunk store")
    x.add_argument("out_dir")
    x.add_argument("--compression", default=None)
    x.add_argument("--num-cpus", type=int, default=None)
    x.set_defaults(fn=cmd_export)

    d = sub.add_parser("decode")
    d.add_argument("encoded_dir")
    d.add_argument("out_dir")
    d.set_defaults(fn=cmd_decode)

    v = sub.add_parser("verify")
    v.add_argument("input_dir")
    v.add_argument("encoded_dir")
    v.set_defaults(fn=cmd_verify)

    s = sub.add_parser("describe")
    s.add_argument("encoded_dir")
    s.set_defaults(fn=cmd_describe)

    sh = sub.add_parser("show")
    sh.add_argument("encoded_dir")
    sh.add_argument("-n", type=int, default=10)
    sh.add_argument("--columns", default=None, help="comma-separated projection")
    sh.set_defaults(fn=cmd_show)

    c = sub.add_parser("compact")
    c.add_argument("encoded_dir")
    c.add_argument("--target-mb", type=int, default=64)
    c.set_defaults(fn=cmd_compact)

    f = sub.add_parser("fsck")
    f.add_argument("encoded_dir")
    f.add_argument("--shallow", action="store_true",
                   help="skip payload decodes; structure + CRCs only")
    f.set_defaults(fn=cmd_fsck)

    dl = sub.add_parser("delete")
    dl.add_argument("encoded_dir")
    dl.add_argument("column")
    dl.add_argument("values", nargs="+")
    dl.set_defaults(fn=cmd_delete)

    pg = sub.add_parser("purge")
    pg.add_argument("encoded_dir")
    pg.set_defaults(fn=cmd_purge)

    cu = sub.add_parser("curate")
    cu.add_argument("input_dir")
    cu.add_argument("out_dir")
    cu.add_argument("--langs", default=None, help="comma-separated keep list")
    cu.add_argument("--min-chars", type=int, default=0)
    cu.add_argument("--jaccard-threshold", type=float, default=0.7)
    cu.add_argument("--dedup-mode", default="pairs", choices=["pairs", "clusters"])
    cu.add_argument("--gopher", action="store_true", help="apply Gopher quality rules")
    cu.add_argument("--redact-pii", action="store_true",
                    help="scrub emails/IPs/phones from the output text")
    cu.add_argument(
        "--decontaminate-against", default=None,
        help="parquet file/dir of eval docs to decontaminate against",
    )
    cu.set_defaults(fn=cmd_curate)

    ig = sub.add_parser("ingest")
    ig.add_argument("input_dir")
    ig.add_argument("out_dir")
    ig.add_argument(
        "--format",
        default="jsonl",
        choices=["jsonl", "csv", "parquet", "orc", "feather"],
    )
    ig.add_argument("--staging", default=None)
    ig.add_argument("--rows-per-chunk", type=int, default=4096)
    ig.add_argument("--compression", default=None)
    ig.add_argument("--bloom", default=None, help="comma-separated bloom columns")
    ig.set_defaults(fn=cmd_ingest)

    ib = sub.add_parser("index-build")
    ib.add_argument("input_dir")
    ib.add_argument("index_dir")
    ib.add_argument("--text-col", default="text")
    ib.add_argument("--id-col", default="doc_id")
    ib.set_defaults(fn=cmd_index_build)

    sd = sub.add_parser("snapshot-dedupe")
    sd.add_argument("input_dir")
    sd.add_argument("index_dir")
    sd.add_argument("out_dir")
    sd.add_argument("--text-col", default="text")
    sd.add_argument("--id-col", default="doc_id")
    sd.set_defaults(fn=cmd_snapshot_dedupe)

    ti = sub.add_parser("text-index")
    ti.add_argument("input_dir")
    ti.add_argument("index_dir")
    ti.add_argument("--text-col", default="text")
    ti.add_argument("--id-col", default="doc_id")
    ti.add_argument("--buckets", type=int, default=32)
    ti.add_argument(
        "--update",
        action="store_true",
        help="apply input as a crawl increment to an existing index",
    )
    ti.add_argument(
        "--compact",
        action="store_true",
        help="merge shard generations (input_dir ignored)",
    )
    ti.set_defaults(fn=cmd_text_index)

    se = sub.add_parser("search")
    se.add_argument("index_dir")
    se.add_argument("tokens", nargs="+")
    se.add_argument("--mode", choices=("and", "or"), default="and")
    se.add_argument("--rank", action="store_true", help="BM25 ranking")
    se.add_argument("--k", type=int, default=None)
    se.add_argument(
        "--phrase", action="store_true", help="exact consecutive phrase"
    )
    se.add_argument(
        "--near", action="store_true", help="two tokens within --window"
    )
    se.add_argument("--window", type=int, default=4)
    se.set_defaults(fn=cmd_search)

    dv = sub.add_parser("derive")
    dv.add_argument("store_dir")
    dv.add_argument("family")
    dv.add_argument("column", help="name of the new derived column")
    dv.add_argument(
        "--kind",
        choices=("token_count", "char_count"),
        required=True,
        help="built-in derivation (library callers pass any fn)",
    )
    dv.add_argument("--input", required=True, help="source column")
    dv.set_defaults(fn=cmd_derive)

    mg = sub.add_parser("merge")
    mg.add_argument("out_dir")
    mg.add_argument("key", nargs="?", default=None)
    mg.add_argument("stores", nargs="*")
    mg.add_argument("--ranges", type=int, default=None)
    mg.add_argument(
        "--into",
        action="store_true",
        help="ingest stores as a generation of an existing merged store "
        "(the positional key is ignored; pass '-')",
    )
    mg.add_argument("--compact", action="store_true")
    mg.set_defaults(fn=cmd_merge)

    cl = sub.add_parser("changelog")
    cl.add_argument("store_dir")
    cl.add_argument("input_dir")
    cl.add_argument("--key", default="doc_id")
    cl.add_argument("--op-col", default="op")
    cl.set_defaults(fn=cmd_changelog)

    qr = sub.add_parser("query")
    qr.add_argument("store_dir")
    qr.add_argument("--where", default=None)
    qr.add_argument("--columns", default=None)
    qr.add_argument("--limit", type=int, default=20)
    qr.add_argument(
        "--topk",
        default=None,
        help="ORDER BY <col> DESC LIMIT --limit via stats-pruned top-k",
    )
    qr.add_argument(
        "--median",
        default=None,
        help="exact quantile of <col> via stats-pruned selection",
    )
    qr.add_argument("--q", type=float, default=0.5,
                    help="quantile for --median (default 0.5)")
    qr.add_argument(
        "--histogram",
        default=None,
        help="exact fixed-width histogram of <col> via zone-map stats",
    )
    qr.add_argument("--width", type=int, default=100,
                    help="bucket width for --histogram")
    qr.add_argument("--explain", action="store_true")
    qr.set_defaults(fn=cmd_query)

    au = sub.add_parser("audit")
    au.add_argument("input_dir")
    au.add_argument("--text-col", default="text")
    au.add_argument("--lang-col", default="lang")
    au.set_defaults(fn=cmd_audit)

    vc = sub.add_parser("vector")
    vc.add_argument(
        "action", choices=["build", "append", "compact", "search", "fsck"]
    )
    vc.add_argument("store_dir")
    vc.add_argument("input_dir", nargs="?", default=None)
    vc.add_argument("--pq", action="store_true",
                    help="build an IVFPQ store (codes + rerank) "
                    "instead of plain IVF")
    vc.add_argument("--centroids", type=int, default=16)
    vc.add_argument("--vec-col", default="embedding")
    vc.add_argument("--id-col", default="vec_id")
    vc.add_argument("--generation", default=None)
    vc.add_argument("--query-id", type=int, default=None)
    vc.add_argument("--k", type=int, default=10)
    vc.add_argument("--probes", type=int, default=4)
    vc.add_argument("--rerank", type=int, default=100)
    vc.add_argument("--shallow", action="store_true",
                    help="fsck: names + metadata only, no shard reads")
    vc.set_defaults(fn=cmd_vector)

    b = sub.add_parser("bench")
    b.add_argument("--scaling", action="store_true")
    b.set_defaults(fn=cmd_bench)

    args = p.parse_args(argv)
    rc = args.fn(args)
    import ray

    if ray.is_initialized():
        ray.shutdown()
    return rc


if __name__ == "__main__":
    raise SystemExit(main())
