"""The encode job: web-page parquet -> encoded chunk store + manifest.

Every mode ends in the same shard body, `ChunkEncoder.encode_shard`,
the one every chunk-store writer in the package uses: resume check,
chunking, encode, one packed chunk file per shard, the shard's manifest
committed in-task, one summary row back to the driver. The modes differ
only in how rows reach it. (A globally url-sorted store is a
range-merged one: `merge_store.merge_sorted_stores`.)

Modes:
- "direct" (default): input-shard-aligned, no shuffle; tasks get shard
  PATHS (`PathPlanEncoder`) and read their shards themselves, so the
  driver never probes footers; resume skips whole completed shards.
- "lang_local": skew-aware layout with ZERO shuffle — each task sorts
  its own shard by (lang, warc_ts) before chunking, so chunks are
  language-homogeneous runs and the per-run selection caches hold
  per-language FSST/dict tables. Measured at sf0.1: ratio 0.334 at
  ~1.2x direct wall time (direct 0.339, lang_salted 0.329 at ~8x) —
  most of the salted ratio win without moving any payload.
- "lang_salted" (north-rule skew handling): explicit
  `groupby(lang, salt)` shuffle before encoding, salt = hash(url) %
  salts, so hot languages (en is ~40% of rows) split into bounded
  partitions; each (lang, salt) group is a deterministic shard with
  denser per-language dictionaries/FSST tables; resumed runs re-shuffle
  but skip the encode+write work of durable partitions.
- "zorder": global sample-sort on a Morton key over two int-like
  columns — range predicates on EITHER column prune chunk stats
  (Z-ORDER BY clustering; single-column sort helps only its own column).
- "bucket": groupby on hash(key) % B; every bucket is a shard, the
  layout storage-partitioned joins pair on.

At 100 TB: lineage rows are ~1e-5 of the data volume and only
block-split shards send theirs to the driver. Chunk files land under one
directory per shard, so a failed run resumes by skipping manifested
shards.
"""

from __future__ import annotations

import time
from pathlib import Path

import numpy as np
import pyarrow as pa

import ray
import ray.data

from ..codecs.registry import FORMAT_VERSION as _FORMAT_VERSION
from ..stages.encode import (
    ChunkEncoder,
    PathPlanEncoder,
    _table_from_ipc,
    chunk_id_for,
    summary_table,
)
from ..state import manifest

DEFAULT_ROWS_PER_CHUNK = 4096
DEFAULT_SALTS = 8
MODES = ("direct", "lang_local", "lang_salted", "zorder", "bucket")


def _add_salt_arrow(batch: pa.Table, salt_map: dict[str, int]) -> pa.Table:
    """Append the salt column zero-copy: only the url column is hashed
    (numpy over the string values), the payload columns are untouched —
    no pandas conversion of MB-scale html anywhere near this stage.
    salt_map gives each language its salt count (proportional to its
    frequency: hot keys split into bounded partitions, rare keys stay
    whole — cold languages shredded into tiny partitions would encode
    worse, not better)."""
    from ..functions.hashing import stable_hash_strings

    urls = batch.column("url").to_numpy(zero_copy_only=False)
    langs = batch.column("lang").to_numpy(zero_copy_only=False)
    mods = np.array([salt_map.get(l, 1) for l in langs], dtype=np.uint64)
    salt = (stable_hash_strings(urls) % np.maximum(mods, 1)).astype(np.int32)
    return batch.append_column("_salt", pa.array(salt, type=pa.int32()))


def _salt_counts(
    ds, salts: int, rows_per_partition: int = 50_000
) -> dict[str, int]:
    """Per-language salt counts from a tiny count aggregation: a
    language gets ceil(count / rows_per_partition) partitions, capped at
    `salts` (the skew bound for the hottest key). Only (lang, count)
    pairs reach the driver."""
    counts = ds.groupby("lang").count().to_pandas()
    out = {}
    for lang, n in zip(counts["lang"], counts["count()"]):
        out[str(lang)] = int(min(salts, max(1, -(-int(n) // rows_per_partition))))
    return out


def encode_job(*args, **kwargs) -> dict:
    """Run the encode job; returns a summary dict (rows, bytes, seconds).

    Pipelines here are built (and executed) under a SMALL streaming
    runahead (tuning.ENCODE_RUNAHEAD): the encode kernel is memory-
    bandwidth bound and a large per-task runahead maximizes concurrent
    bus pressure — measured 0.197 s at buffer 4 vs 0.303 s at 32 on
    the sf0.1 headline. See tuning.runahead for the measurements."""
    from ..tuning import ENCODE_RUNAHEAD, runahead

    with runahead(ENCODE_RUNAHEAD):
        return _encode_job_impl(*args, **kwargs)


def _encode_salted_group(group: pa.Table, encoder: ChunkEncoder) -> pa.Table:
    """lang_salted's map_groups body: one (lang, salt) partition is one
    shard, encoded with the store's per-language selection cache so the
    FSST tables specialize to the language whose partitions this worker
    encodes — the point of the salted layout. The partition lands in ONE
    packed file, so dict-winning string columns write their accumulated
    per-language dictionary once per file."""
    lang = group.column("lang")[0].as_py()
    salt = group.column("_salt")[0].as_py()
    row = encoder.encode_shard(
        group.drop_columns(["_salt"]),
        f"lang={lang}-s{salt:02d}",
        cache=encoder._cache(lang),
    )
    return summary_table([] if row is None else [row])


def _encode_job_impl(
    input_files: list[str],
    output_dir: str,
    mode: str = "direct",
    rows_per_chunk: int = DEFAULT_ROWS_PER_CHUNK,
    salts: int = DEFAULT_SALTS,
    resume: bool = True,
    columns: list[str] | None = None,
    compression: str | None = None,
    override_num_blocks: int | None = None,
    bloom_columns: tuple[str, ...] = ("url",),
    codec_overrides: dict[str, str] | None = None,
    zorder_cols: tuple[str, str] = ("warc_ts", "n_chars"),
    bucket_key: str = "url",
    num_buckets: int = 32,
) -> dict:
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    t0 = time.time()
    input_files = sorted(input_files)
    if resume:
        # refuse to mix chunk formats in one store (ADVICE r2): a store
        # written at another FORMAT_VERSION must not be extended
        manifest.check_format_version(output_dir, "resume into")
    done = manifest.completed_shards(output_dir) if resume else set()
    # job meta (incl. format_version) goes down BEFORE any chunk is
    # written so even a crashed run leaves a version-stamped store
    job_meta = {
        "mode": mode,
        "compression": compression,
        "rows_per_chunk": rows_per_chunk,
        "salts": salts,
        "input_files": len(input_files),
        "format_version": _FORMAT_VERSION,
        # persisted so rewrites (purge/compact/upsert) keep the SAME
        # bloom sidecar config — a purge must never silently drop the
        # store's point-lookup capability (ADVICE r4 #2)
        "bloom_columns": list(bloom_columns),
    }
    if mode == "bucket":
        # the co-partitioning contract: storage_partitioned_join pairs
        # two stores only when these specs agree (same bucket count,
        # same hash version, same key kind)
        from ..functions.hashing import BUCKET_HASH_VERSION, bucket_kind
        import pyarrow.parquet as _pq

        key_field = _pq.read_schema(input_files[0]).field(bucket_key)
        job_meta["bucketing"] = {
            "key": bucket_key,
            "num_buckets": int(num_buckets),
            "hash": BUCKET_HASH_VERSION,
            "kind": bucket_kind(key_field.type),
        }
    manifest.write_job_meta(output_dir, job_meta)

    def encoder(**kwargs) -> ChunkEncoder:
        return ChunkEncoder(
            output_dir=output_dir,
            rows_per_chunk=rows_per_chunk,
            compression=compression,
            bloom_columns=bloom_columns,
            codec_overrides=codec_overrides,
            **kwargs,
        )

    skipped = 0
    if mode in ("direct", "lang_local"):
        pending = [f for f in input_files if Path(f).stem not in done]
        skipped = len(input_files) - len(pending)
        if not pending:
            return {"rows": 0, "shards_skipped": skipped, "sec": 0.0}
        # shard-aligned tasks planned from the file LIST: read_parquet's
        # planning probes every footer on the driver (~2 ms/file —
        # minutes at 10^5 shards); PathPlanEncoder reads shards inside
        # the tasks. Every task owns whole shards and commits their
        # manifests in-task, packing each shard into ONE parquet file
        # (file count tracks task count, not chunk count — at 100 TB
        # this is the difference between 10^6 and 10^8 output files).
        # Stateless tasks, not an actor pool: tasks schedule elastically
        # and reuse warm workers — no pool-startup serialization
        # (measured 7.6s vs 13.7s at 32 CPUs)
        nblocks = override_num_blocks or len(pending)
        enc = encoder(
            skip_completed=resume,
            # lang_local: the skew-aware layout WITHOUT a shuffle — each
            # task sorts its own shard by (lang, warc_ts) before
            # chunking: language-homogeneous chunks specialize the
            # per-language FSST/dict tables AND timestamps stay
            # delta-packable ((lang, url) keys lose the ts ordering —
            # measured 0.3257 vs 0.3226 per-chunk ratio)
            local_sort=("lang", "warc_ts") if mode == "lang_local" else None,
        )
        ds = ray.data.from_items(
            [{"path": f} for f in pending],
            override_num_blocks=max(1, min(nblocks, len(pending))),
        )
        lineage = ds.map_batches(
            PathPlanEncoder(enc, columns=columns),
            batch_format="pyarrow",
            batch_size=None,
            zero_copy_batch=True,
        )
    elif mode == "zorder":
        # Z-ORDER BY clustering: one global sample sort on the Morton
        # interleave of two int-like columns, then encode. Chunk
        # [vmin, vmax] stats on BOTH columns become tight, so
        # decode_dataset_pruned range queries on either column prune —
        # the multi-column locality a single-column sort can't give.
        import pyarrow.compute as _pc

        from ..functions.hashing import morton_key
        from ..sources.pathwise import read_parquet_pathwise

        ca, cb = zorder_cols

        def _as_i64(col):
            return _pc.cast(col, pa.int64())

        # bounds pass: 32 bytes per batch reach the driver, columns
        # pruned at the read (the quantizer needs global min/max)
        def _bounds(t: pa.Table) -> pa.Table:
            va = _as_i64(t.column(ca).combine_chunks())
            vb = _as_i64(t.column(cb).combine_chunks())
            return pa.table(
                {
                    "a_min": [_pc.min(va).as_py()],
                    "a_max": [_pc.max(va).as_py()],
                    "b_min": [_pc.min(vb).as_py()],
                    "b_max": [_pc.max(vb).as_py()],
                }
            )

        bp = (
            ray.data.read_parquet(input_files, columns=[ca, cb])
            .map_batches(_bounds, batch_format="pyarrow")
            .to_pandas()
        )
        a_min, a_max = int(bp["a_min"].min()), int(bp["a_max"].max())
        b_min, b_max = int(bp["b_min"].min()), int(bp["b_max"].max())

        def _quant(v: np.ndarray, lo: int, hi: int) -> np.ndarray:
            span = hi - lo
            v = v.astype(np.int64) - lo
            if span >= (1 << 31):
                v = (v.astype(np.float64) * (((1 << 31) - 1) / span)).astype(
                    np.int64
                )
            return v

        def add_zkey(t: pa.Table) -> pa.Table:
            va = _as_i64(t.column(ca).combine_chunks()).to_numpy(
                zero_copy_only=False
            )
            vb = _as_i64(t.column(cb).combine_chunks()).to_numpy(
                zero_copy_only=False
            )
            key = morton_key(_quant(va, a_min, a_max), _quant(vb, b_min, b_max))
            return t.append_column("_zkey", pa.array(key, type=pa.int64()))

        enc = encoder(skip_completed=False)

        def encode_block(t: pa.Table) -> pa.Table:
            # post-shuffle blocks have no source file: each block is a
            # shard named by its content hash and commits its manifest
            t = t.drop_columns(["_zkey"])
            return summary_table([enc.encode_shard(t, f"zorder-{chunk_id_for(t)}")])

        ds = read_parquet_pathwise(input_files, columns=columns)
        lineage = (
            ds.map_batches(add_zkey, batch_format="pyarrow")
            .sort("_zkey")
            .map_batches(
                encode_block,
                batch_format="pyarrow",
                batch_size=None,
                zero_copy_batch=True,
            )
        )
    elif mode == "bucket":
        # hash-bucketed layout (the storage-partitioned-join producer):
        # one explicit groupby shuffle on bucket = hash(key) % B, after
        # which every bucket is a deterministic shard of the store.
        # The payoff is not this job but every DOWNSTREAM equi-join on
        # the key: two co-bucketed stores join with zero shuffle forever
        # (pipelines/spj.py), amortizing one shuffle across all joins —
        # at 100 TB that trades one all-to-all now for none later.
        from ..functions.hashing import bucket_ids
        from ..sources.pathwise import read_parquet_pathwise

        ds = read_parquet_pathwise(input_files, columns=columns)
        enc = encoder(skip_completed=resume)

        def add_bucket(batch: pa.Table) -> pa.Table:
            b = bucket_ids(batch.column(bucket_key), num_buckets)
            return batch.append_column("_bucket", pa.array(b, type=pa.int32()))

        def encode_bucket(group: pa.Table) -> pa.Table:
            # one map_groups call owns its bucket entirely: manifest
            # committed in-task, nothing further shuffles. Buckets are
            # hash-mixed (no per-bucket content skew), so the store's one
            # selection cache serves every bucket a worker encodes
            bucket = group.column("_bucket")[0].as_py()
            row = enc.encode_shard(
                group.drop_columns(["_bucket"]), f"bucket={bucket:05d}"
            )
            return summary_table([] if row is None else [row])

        lineage = (
            ds.map_batches(
                add_bucket, batch_format="pyarrow", zero_copy_batch=True
            )
            .groupby("_bucket")
            .map_groups(encode_bucket, batch_format="pyarrow")
        )
    else:  # lang_salted
        from ..sources.pathwise import read_parquet_pathwise

        ds = read_parquet_pathwise(input_files, columns=columns)
        enc = encoder(skip_completed=resume)
        # adaptive salting: one tiny count-by-lang pass sizes each key's
        # partition count (hot keys split, rare keys stay whole)
        salt_map = _salt_counts(
            read_parquet_pathwise(input_files, columns=["lang"]), salts
        )
        lineage = (
            ds.map_batches(
                _add_salt_arrow,
                fn_kwargs={"salt_map": salt_map},
                batch_format="pyarrow",
                zero_copy_batch=True,
            )
            .groupby(["lang", "_salt"])
            .map_groups(
                _encode_salted_group,
                fn_kwargs={"encoder": enc},
                batch_format="pyarrow",
            )
        )

    # Manifest commit: complete shards already wrote their manifests
    # inside the encode tasks (no shuffle); only block-split shards ride
    # back as tiny lineage blobs and are merged here. The collected
    # summary is one row per (shard, task) — metadata, ~1e-5 of data.
    summary = lineage.to_pandas()
    incomplete = summary[~summary["complete"]] if len(summary) else summary
    if len(incomplete):
        for shard, grp in incomplete.groupby("shard"):
            parts = [_table_from_ipc(b) for b in grp["lineage_ipc"]]
            manifest.record_shard_table(output_dir, shard, pa.concat_tables(parts))
    sec = time.time() - t0
    return {
        "rows": int(summary["rows"].sum()) if len(summary) else 0,
        "raw_nbytes": int(summary["raw_nbytes"].sum()) if len(summary) else 0,
        "enc_nbytes": int(summary["enc_nbytes"].sum()) if len(summary) else 0,
        "shards_written": int(summary["shard"].nunique()) if len(summary) else 0,
        "shards_skipped": skipped,
        "sec": sec,
    }
