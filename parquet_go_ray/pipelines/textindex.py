"""Distributed inverted text index over a document corpus, stored AS an
encode-store so every store trick applies to the postings themselves.

Build: tokenize (vectorized Arrow split, per-doc distinct) ->
(token, doc_id) pairs -> ONE groupby shuffle into hash(token) % B
buckets -> each bucket task sorts its postings by (token, doc_id) and
encodes them with the ordinary chunk pipeline (token dictionary/FSST +
doc_id delta-packing — posting lists compress the way they do in real
search engines) and commits its shard manifest in-task.

Query: the bucket layout makes lookups HASH-PRUNED I/O — a query for k
tokens opens only those tokens' buckets (≤ k of B), and within a bucket
the encoded-domain membership test (stages/decode.search_chunk_table)
touches dictionary codes, decoding only chunks that contain a queried
token; chunk [vmin, vmax] stats on the sorted token column prune the
rest. AND-search is a doc_id count aggregate over the matching
postings — tiny keyed rows, never text.

Scale: the only all-to-all is the build's (token, doc_id) pair shuffle
(≈ 16 B + token bytes per posting). Queries move posting rows for the
queried tokens only. The tokenizer (split on single spaces, empties
dropped) deliberately matches the vocab_topk oracle so results stay
SQL-checkable.

Positions: each posting carries the token's in-doc position list
(`pos`, list<int32> — ~half the index's encoded bytes at ratio ~0.24),
enabling exact phrase search (phrase_docs) by intersecting shifted
position sets per candidate doc. Boolean/ranked queries pass a column
projection to lookup_postings so the positional payload is filtered
out at the chunk-file read and never costs them anything.
"""

from __future__ import annotations

import re
from pathlib import Path

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

import ray.data

TOKENIZER = "space-split-v1"

_EMPTY_POSTINGS = pa.table(
    {
        "token": pa.array([], pa.string()),
        "doc_id": pa.array([], pa.int64()),
        "tf": pa.array([], pa.int64()),
        "dl": pa.array([], pa.int64()),
        "pos": pa.array([], pa.list_(pa.int32())),
    }
)


def _make_pairs(text_col: str, id_col: str, num_buckets: int):
    """Batch transform emitting BOTH index row families from ONE corpus
    read / ONE shuffle, separated by disjoint bucket ranges:

    - postings (token, doc_id, tf, dl), _bucket = hash(token) % B —
      per distinct token per doc, all Arrow kernels. `dl` (document
      length = split-piece count, the BM25 normalizer) rides every
      posting row Lucene-style so ranking needs no doc-side join.
    - doc rows (doc_id, dl), _bucket = B + hash(doc_id) % B — the
      doc-length side table that makes membership probes and the
      (n_docs, dl_sum) corpus constants hash-pruned and incrementally
      maintainable (update_text_index) without ever rescanning the
      whole index."""
    from ..functions.hashing import bucket_ids

    def pairs(batch: pa.Table) -> pa.Table:
        toks = pc.split_pattern(
            batch.column(text_col).combine_chunks(), pattern=" "
        )
        flat = pc.list_flatten(toks)
        parent = pc.list_parent_indices(toks)
        ids = batch.column(id_col).combine_chunks()
        # in-doc position of every token instance (split-piece index):
        # arange over the flat stream minus each doc's start offset —
        # the positional payload phrase queries verify adjacency against
        dl = pc.list_value_length(toks).cast(pa.int64())
        dl_np = dl.to_numpy(zero_copy_only=False)
        lens_i = np.nan_to_num(
            np.asarray(dl_np, dtype=np.float64), nan=0.0
        ).astype(np.int64)
        starts = np.zeros(len(lens_i), dtype=np.int64)
        np.cumsum(lens_i[:-1], out=starts[1:])
        pos_in_doc = (
            np.arange(len(flat), dtype=np.int64) - np.repeat(starts, lens_i)
        ).astype(np.int32)
        t = pa.table(
            {
                "token": flat,
                "doc_id": ids.take(parent),
                "pos": pa.array(pos_in_doc, pa.int32()),
            }
        )
        t = pa.TableGroupBy(t, ["token", "doc_id"]).aggregate(
            [("pos", "list"), ("pos", "count")]
        )
        t = t.rename_columns(["token", "doc_id", "pos", "tf"])
        ids_np = ids.to_numpy(zero_copy_only=False)
        order = np.argsort(ids_np, kind="stable")
        loc = np.searchsorted(
            ids_np[order], t.column("doc_id").to_numpy(zero_copy_only=False)
        )
        t = t.append_column(
            "dl",
            pa.array(
                np.asarray(dl_np, dtype=np.float64)[order[loc]].astype(
                    np.int64
                ),
                pa.int64(),
            )
            if dl.null_count
            else pa.array(dl_np[order[loc]].astype(np.int64), pa.int64()),
        )
        t = t.set_column(
            t.schema.get_field_index("tf"),
            "tf",
            t.column("tf").cast(pa.int64()),
        )
        t = t.select(["token", "doc_id", "tf", "dl", "pos"])
        b = bucket_ids(t.column("token"), num_buckets)
        t = t.append_column("_bucket", pa.array(b, type=pa.int32()))
        docs = pa.table(
            {
                "token": pa.array([None] * len(ids), pa.string()),
                "doc_id": ids,
                "tf": pa.array(
                    np.zeros(len(ids), dtype=np.int64), pa.int64()
                ),
                "dl": dl,
                "pos": pa.array(
                    [None] * len(ids), pa.list_(pa.int32())
                ),
                "_bucket": pa.array(
                    bucket_ids(ids, num_buckets) + np.int32(num_buckets),
                    type=pa.int32(),
                ),
            }
        )
        return pa.concat_tables([t, docs])

    return pairs


def _make_encode_bucket(
    out_dir: str, num_buckets: int, rows_per_chunk: int, gen: str | None
):
    """Bucket-group encoder handling both shard families; `gen` suffixes
    shard names for incremental appends (unique manifest entries — an
    update never overwrites a base shard's manifest)."""
    from ..stages.encode import ChunkEncoder, summary_table

    suffix = f"+g{gen}" if gen else ""
    enc = ChunkEncoder(
        output_dir=out_dir,
        rows_per_chunk=rows_per_chunk,
        bloom_columns=(),
        skip_completed=False,
    )

    def encode_bucket(group: pa.Table) -> pa.Table:
        bucket = group.column("_bucket")[0].as_py()
        if bucket >= num_buckets:
            shard = f"docs={bucket - num_buckets:05d}{suffix}"
            group = group.select(["doc_id", "dl"]).sort_by(
                [("doc_id", "ascending")]
            )
        else:
            shard = f"bucket={bucket:05d}{suffix}"
            group = group.drop_columns(["_bucket"]).sort_by(
                [("token", "ascending"), ("doc_id", "ascending")]
            )
        return summary_table([enc.encode_shard(group, shard)])

    return encode_bucket


def build_text_index(
    input_files: list[str],
    out_dir: str,
    text_col: str = "text",
    id_col: str = "doc_id",
    num_buckets: int = 32,
    rows_per_chunk: int = 8192,
) -> dict:
    """Build the inverted index store; returns the encode summary."""
    from ..codecs.registry import FORMAT_VERSION
    from ..functions.hashing import BUCKET_HASH_VERSION
    from ..sources.pathwise import read_parquet_pathwise
    from ..state import manifest

    manifest.write_job_meta(
        out_dir,
        {
            "mode": "text_index",
            "tokenizer": TOKENIZER,
            "text_col": text_col,
            "id_col": id_col,
            "format_version": FORMAT_VERSION,
            "bucketing": {
                "key": "token",
                "num_buckets": int(num_buckets),
                "hash": BUCKET_HASH_VERSION,
                "kind": "str",
            },
        },
    )
    ds = read_parquet_pathwise(input_files, columns=[id_col, text_col])
    summary = (
        ds.map_batches(
            _make_pairs(text_col, id_col, num_buckets),
            batch_format="pyarrow",
            zero_copy_batch=True,
        )
        .groupby("_bucket")
        .map_groups(
            _make_encode_bucket(out_dir, num_buckets, rows_per_chunk, None),
            batch_format="pyarrow",
        )
        .to_pandas()
    )
    # corpus constants for BM25, folded from the doc-length side table
    # (one distributed pass over the COMPACT doc shards — never a
    # second read of the corpus)
    n_docs, dl_sum = _doc_stats(out_dir)
    meta = manifest.load_job_meta(out_dir) or {}
    meta["n_docs"] = int(n_docs)
    meta["dl_sum"] = int(dl_sum)
    manifest.write_job_meta(out_dir, meta)
    return {
        "postings": int(summary["rows"].sum()) - n_docs,
        "buckets": int(summary["shard"].nunique()),
        "enc_nbytes": int(summary["enc_nbytes"].sum()),
        "n_docs": int(n_docs),
        "dl_sum": int(dl_sum),
    }


_DOC_RE = re.compile(r"^docs=(\d+)(?:\+g[0-9a-f]+)?$")


def _doc_files(index_dir: str) -> dict[int, list[str]]:
    """doc-bucket index -> chunk files (all generations)."""
    from ..state import manifest

    t = manifest.lineage_table(index_dir, columns=["shard", "file"])
    root = Path(index_dir) / "data"
    out: dict[int, set[str]] = {}
    if t is None:
        return {}
    for s, f in zip(t.column("shard").to_pylist(), t.column("file").to_pylist()):
        m = _DOC_RE.match(s)
        if m:
            out.setdefault(int(m.group(1)), set()).add(
                str(root / s / f"{f}.parquet")
            )
    return {b: sorted(fs) for b, fs in out.items()}


def _doc_stats(index_dir: str, buckets: set[int] | None = None) -> tuple[int, int]:
    """(n_docs, dl_sum) folded from the doc-length shards — per-task
    partials are two integers. `buckets` restricts to a subset (used by
    update to fold only its new generation's rows via _probe_docs
    instead)."""
    from ..codecs import chunk as chunk_mod

    by_bucket = _doc_files(index_dir)
    files = sorted(
        f
        for b, fs in by_bucket.items()
        if buckets is None or b in buckets
        for f in fs
    )
    if not files:
        return 0, 0

    def part(batch: pa.Table) -> pa.Table:
        col = "path" if "path" in batch.column_names else "item"
        n = 0
        s = 0
        for path in batch.column(col).to_pylist():
            chunks = pq.read_table(path, filters=[("column", "==", "dl")])
            for payload in chunks.column("payload").to_pylist():
                arr = chunk_mod.decode_array(payload)
                n += len(arr)
                s += int(pc.sum(arr).as_py() or 0)
        return pa.table(
            {"n": pa.array([n], pa.int64()), "s": pa.array([s], pa.int64())}
        )

    parts = (
        ray.data.from_items(
            files, override_num_blocks=max(1, min(64, len(files)))
        )
        .map_batches(part, batch_format="pyarrow", batch_size=None)
        .to_pandas()
    )
    return int(parts["n"].sum()), int(parts["s"].sum())


def _index_meta(index_dir: str) -> dict:
    from ..state import manifest

    meta = manifest.load_job_meta(index_dir) or {}
    if meta.get("mode") != "text_index":
        raise ValueError(f"{index_dir} is not a text index store")
    return meta


def lookup_postings(
    index_dir: str,
    tokens: list[str],
    columns: list[str] | None = None,
) -> ray.data.Dataset:
    """(token, doc_id) postings for the queried tokens. I/O is pruned
    three ways: only the tokens' hash buckets open at all, inside a
    bucket the encoded-domain membership test decodes only chunks whose
    dictionary (or stats range) can contain a queried token, and with
    `columns` given, non-selected payload rows (e.g. the positional
    lists, half the index's bytes) never leave storage — the chunk file
    is read with a parquet row filter on the column name."""
    from ..functions.hashing import bucket_ids
    from ..state import manifest
    from .spj import _bucket_files

    meta = _index_meta(index_dir)
    manifest.check_format_version(index_dir, "search")
    nb = int(meta["bucketing"]["num_buckets"])
    tokens = sorted(set(tokens))
    wanted_buckets = set(
        bucket_ids(pa.array(tokens, pa.string()), nb).tolist()
    )
    by_bucket = _bucket_files(index_dir)
    if not by_bucket:
        raise FileNotFoundError(f"no index shards under {index_dir}")
    files = sorted(
        f for b, fs in by_bucket.items() if b in wanted_buckets for f in fs
    )
    empty = (
        _EMPTY_POSTINGS
        if columns is None
        else _EMPTY_POSTINGS.select(columns)
    )
    if not files:
        # every queried token hashes to a bucket no posting ever reached:
        # provably zero matches without opening anything
        return ray.data.from_arrow(empty)
    # the predicate column must be present in each decoded chunk group
    read_cols = (
        None if columns is None else sorted(set(columns) | {"token"})
    )

    def probe(batch: pa.Table) -> pa.Table:
        from ..stages.decode import search_chunk_table

        col = "path" if "path" in batch.column_names else "item"
        outs = []
        for path in batch.column(col).to_pylist():
            chunks = pq.read_table(
                path,
                filters=None
                if read_cols is None
                else [("column", "in", read_cols)],
            )
            got = search_chunk_table(
                chunks, "token", list(tokens), columns=columns
            )
            if got.num_rows:
                outs.append(got)
        if not outs:
            return empty
        return pa.concat_tables(outs)

    return ray.data.from_items(
        files, override_num_blocks=len(files)
    ).map_batches(probe, batch_format="pyarrow", batch_size=None)


def search_docs(
    index_dir: str, tokens: list[str], mode: str = "and"
) -> ray.data.Dataset:
    """doc_ids matching ALL (mode='and') or ANY (mode='or') tokens.
    The merge is a doc_id count aggregate over matching postings —
    keyed 8-byte rows, text never moves."""
    tokens = sorted(set(tokens))
    # membership needs only the 8-byte doc_id keys — the tf/dl/pos
    # payload never even leaves the chunk files
    posts = lookup_postings(index_dir, tokens, columns=["doc_id"])
    if mode == "or":
        uniq = posts.groupby("doc_id").count()
        return uniq.map_batches(
            lambda t: t.select(["doc_id"]), batch_format="pyarrow"
        )
    if mode != "and":
        raise ValueError(f"unknown mode {mode!r}")
    n = len(tokens)
    counts = posts.groupby("doc_id").count()

    def keep(t: pa.Table) -> pa.Table:
        m = pc.equal(t.column("count()"), n)
        return t.filter(m).select(["doc_id"])

    return counts.map_batches(keep, batch_format="pyarrow")


def search_ranked(
    index_dir: str, tokens: list[str], k: int | None = None
) -> ray.data.Dataset:
    """BM25-ranked disjunctive search (k1=1.2, b=0.75) computed from the
    INDEX ALONE: tf and dl ride each posting row, df per term is the
    posting count inside that term's bucket (exact — a token's every
    posting lives in its one bucket), and (n_docs, dl_sum) were folded
    into the index meta at build. The corpus is never touched.

    Scores use the repo's exact-integer BM25 discipline (ln quantized
    to millis, per-term contributions floored to integer millis, final
    score an order-free integer sum), so results hash-match the
    corpus-side q_bm25_scores / the DuckDB oracle for the same terms.

    The matched postings are materialized once (they are the PRUNED
    read — k tokens' buckets, not the corpus) because df must be global
    before scoring; with k given, per-partition top-k partials merge to
    the final k rows."""
    meta = _index_meta(index_dir)
    if "n_docs" not in meta or "dl_sum" not in meta:
        raise ValueError(
            f"{index_dir} predates ranked search — rebuild the index"
        )
    tokens = sorted({t for t in tokens if t})
    n_docs = int(meta["n_docs"])
    avgdl = np.float64(int(meta["dl_sum"])) / np.float64(n_docs)
    # ranking reads tf/dl only — the positional payload (half the
    # index's bytes) is filtered out at the chunk-file read itself
    posts = lookup_postings(
        index_dir, tokens, columns=["token", "doc_id", "tf", "dl"]
    ).materialize()
    dfs = posts.groupby("token").count().to_pandas()
    df_map = dict(zip(dfs["token"], dfs["count()"].astype(np.int64)))
    idf_millis = {
        t: int(
            np.floor(
                np.log((n_docs - d + 0.5) / (d + 0.5) + 1.0) * 1000 + 0.5
            )
        )
        for t, d in df_map.items()
    }

    def contrib(t: pa.Table) -> pa.Table:
        tf = t.column("tf").to_numpy(zero_copy_only=False).astype(np.float64)
        dl = t.column("dl").to_numpy(zero_copy_only=False).astype(np.float64)
        idf = np.array(
            [idf_millis[x] for x in t.column("token").to_pylist()],
            dtype=np.int64,
        )
        # the identical IEEE expression tree as q_bm25_scores / the SQL
        norm = 1.2 * (0.25 + 0.75 * (dl / avgdl))
        c = np.floor((idf * (tf * 2.2)) / (tf + norm) * 1000.0 + 0.5)
        return pa.table(
            {
                "doc_id": t.column("doc_id"),
                "contrib": pa.array(c.astype(np.int64), pa.int64()),
            }
        )

    scores = (
        posts.map_batches(contrib, batch_format="pyarrow")
        .groupby("doc_id")
        .sum("contrib")
    )

    def finish(t: pa.Table) -> pa.Table:
        t = t.rename_columns(["doc_id", "score"])
        return t.set_column(1, "score", t.column("score").cast(pa.int64()))

    scores = scores.map_batches(finish, batch_format="pyarrow")
    if k is not None:
        # per-partition top-k partials, then one k-sized merge
        def topk(t: pa.Table) -> pa.Table:
            return t.sort_by(
                [("score", "descending"), ("doc_id", "ascending")]
            ).slice(0, k)

        part = scores.map_batches(topk, batch_format="pyarrow").to_pandas()
        part = part.sort_values(
            ["score", "doc_id"], ascending=[False, True]
        ).head(k)
        return ray.data.from_pandas(part.reset_index(drop=True))
    return scores


def _purge_rename(shard: str) -> str:
    """Layout-preserving purge shard name: keep the bucket prefix, swap
    the generation suffix for a deterministic purge hash — hash pruning
    survives the rewrite."""
    import hashlib

    base = shard.split("+g")[0]
    h = hashlib.sha1(("purge|" + shard).encode()).hexdigest()[:8]
    return f"{base}+g{h}"


def _probe_docs(index_dir: str, ids) -> pa.Table:
    """(doc_id, dl) rows for the given ids that EXIST in the index —
    hash-pruned: only the ids' doc buckets open, and inside a bucket the
    membership test runs in the encoded domain / falls back to decode +
    filter (search_chunk_table). Used by update_text_index for
    replacement detection; the id list is a crawl increment, bounded by
    contract."""
    from ..functions.hashing import bucket_ids
    from ..stages.decode import search_chunk_table

    meta = _index_meta(index_dir)
    nb = int(meta["bucketing"]["num_buckets"])
    ids = pa.array(sorted(set(pa.array(ids).to_pylist())), pa.int64())
    wanted = set(bucket_ids(ids, nb).tolist())
    by_bucket = _doc_files(index_dir)
    files = sorted(
        f for b, fs in by_bucket.items() if b in wanted for f in fs
    )
    id_list = ids.to_pylist()

    def probe(batch: pa.Table) -> pa.Table:
        col = "path" if "path" in batch.column_names else "item"
        outs = []
        for path in batch.column(col).to_pylist():
            chunks = pq.read_table(path)
            got = search_chunk_table(chunks, "doc_id", id_list)
            if got.num_rows:
                outs.append(got.select(["doc_id", "dl"]))
        if not outs:
            return pa.table(
                {
                    "doc_id": pa.array([], pa.int64()),
                    "dl": pa.array([], pa.int64()),
                }
            )
        return pa.concat_tables(outs)

    if not files:
        return pa.table(
            {"doc_id": pa.array([], pa.int64()), "dl": pa.array([], pa.int64())}
        )
    got = (
        ray.data.from_items(files, override_num_blocks=len(files))
        .map_batches(probe, batch_format="pyarrow", batch_size=None)
        .to_arrow_refs()
    )
    import ray as _ray

    return pa.concat_tables([_ray.get(r) for r in got])


def update_text_index(
    index_dir: str,
    increment_files: list[str],
    rows_per_chunk: int = 8192,
) -> dict:
    """Incrementally maintain the index across a crawl increment —
    docs whose ids already exist are REPLACED, new ids are added.
    Merge-on-write, mirroring the store's upsert_files protocol:

      1. probe the doc-length shards for the increment's ids
         (hash-pruned reads; captures each replaced doc's old dl)
      2. tombstone the replaced ids, then physically purge them —
         stats-candidate chunks only; after the purge no tombstone
         survives, so queries stay filter-free
      3. append the increment's postings + doc rows as a new
         GENERATION of shards (`bucket=NNNNN+g<hex>`) — base shard
         manifests are never touched, and a crashed append re-runs
         idempotently (same content, new generation)
      4. fold the increment's (n_docs, dl_sum) deltas into the meta
         using the probed old lengths — no full-index rescan, exact

    The index's answers after an update are identical to a fresh
    rebuild over the updated corpus (asserted integer-exactly by the
    BM25 gate query's oracle)."""
    import uuid

    from ..sources.pathwise import read_parquet_pathwise
    from ..state import manifest
    from .tombstone import delete_where, purge_tombstones

    meta = _index_meta(index_dir)
    manifest.check_format_version(index_dir, "update")
    nb = int(meta["bucketing"]["num_buckets"])
    text_col, id_col = meta["text_col"], meta["id_col"]

    inc_ids = pa.concat_arrays(
        [
            pq.read_table(f, columns=[id_col])
            .column(id_col)
            .combine_chunks()
            .cast(pa.int64())
            for f in increment_files
        ]
    )
    found = _probe_docs(index_dir, inc_ids)
    replaced = found.column("doc_id").to_pylist()
    old_dl = int(pc.sum(found.column("dl")).as_py() or 0)
    if replaced:
        delete_where(index_dir, "doc_id", replaced)
        purge_tombstones(
            index_dir,
            rows_per_chunk=rows_per_chunk,
            rename=_purge_rename,
        )

    gen = uuid.uuid4().hex[:8]
    ds = read_parquet_pathwise(increment_files, columns=[id_col, text_col])
    summary = (
        ds.map_batches(
            _make_pairs(text_col, id_col, nb),
            batch_format="pyarrow",
            zero_copy_batch=True,
        )
        .groupby("_bucket")
        .map_groups(
            _make_encode_bucket(index_dir, nb, rows_per_chunk, gen),
            batch_format="pyarrow",
        )
        .to_pandas()
    )
    # increment constants folded from the NEW generation's doc shards
    # (compact, driver-side: generation size == crawl increment size)
    inc_docs, inc_dl = _gen_doc_stats(index_dir, gen)
    meta = _index_meta(index_dir)
    meta["n_docs"] = int(meta["n_docs"]) + inc_docs - len(replaced)
    meta["dl_sum"] = int(meta["dl_sum"]) + inc_dl - old_dl
    manifest.write_job_meta(index_dir, meta)
    return {
        "replaced": len(replaced),
        "added": inc_docs - len(replaced),
        "generation": gen,
        "n_docs": meta["n_docs"],
        "dl_sum": meta["dl_sum"],
    }


def _gen_doc_stats(index_dir: str, gen: str) -> tuple[int, int]:
    """(n_docs, dl_sum) of one generation's doc shards only."""
    from ..codecs import chunk as chunk_mod
    from ..state import manifest

    t = manifest.lineage_table(index_dir, columns=["shard", "file"])
    root = Path(index_dir) / "data"
    files = sorted(
        {
            str(root / s / f"{f}.parquet")
            for s, f in zip(
                t.column("shard").to_pylist(), t.column("file").to_pylist()
            )
            if s.startswith("docs=") and s.endswith(f"+g{gen}")
        }
    )
    n = s_ = 0
    for path in files:
        chunks = pq.read_table(path, filters=[("column", "==", "dl")])
        for payload in chunks.column("payload").to_pylist():
            arr = chunk_mod.decode_array(payload)
            n += len(arr)
            s_ += int(pc.sum(arr).as_py() or 0)
    return n, s_


def compact_index(index_dir: str, rows_per_chunk: int = 8192) -> dict:
    """Merge each bucket's shard GENERATIONS back into one shard — the
    maintenance step that bounds file counts after a stream of
    update_text_index increments. One task per multi-generation bucket
    decodes its families' files, re-sorts, re-encodes as a single new
    generation (deterministic name from the member set, so retries are
    idempotent) and drops the members under the compaction intent-log
    crash protocol (pipelines/compact.py): a crash before commit rolls
    back, after commit finishes the drops. Query results are unchanged
    by construction; the meta constants don't move."""
    import hashlib

    from ..stages.encode import ChunkEncoder
    from ..state import manifest
    from .compact import _drop_shard, _recover, _write_members

    manifest.check_format_version(index_dir, "compact")
    _index_meta(index_dir)
    _recover(index_dir)

    # group shards by (family, bucket) from the manifest (metadata only)
    groups: dict[str, list[str]] = {}
    for shard in manifest.completed_shards(index_dir):
        base = shard.split("+g")[0]
        if _BUCKET_RE_ANY.match(shard):
            groups.setdefault(base, []).append(shard)
    todo = {b: sorted(ss) for b, ss in groups.items() if len(ss) > 1}
    if not todo:
        return {"buckets_compacted": 0, "shards_merged": 0}

    items = [{"base": b, "members": ms} for b, ms in sorted(todo.items())]

    enc = ChunkEncoder(
        output_dir=index_dir,
        rows_per_chunk=rows_per_chunk,
        bloom_columns=(),
        skip_completed=False,
    )

    def compact_bucket(batch: pa.Table) -> pa.Table:
        from ..stages.decode import decode_chunk_table

        out = []
        for row in batch.to_pylist():
            base, members = row["base"], row["members"]
            gid = (
                base
                + "+g"
                + hashlib.sha1(("|".join(members)).encode()).hexdigest()[:8]
            )
            if (manifest.manifest_dir(index_dir) / f"{gid}.json").exists():
                for m in members:  # retried task: finish the drops
                    _drop_shard(index_dir, m)
                mf = manifest.manifest_dir(index_dir) / f"{gid}.members.json"
                if mf.exists():
                    mf.unlink()
                out.append({"base": base, "merged": len(members)})
                continue
            parts = []
            for m in members:
                for f in sorted(
                    (Path(index_dir) / "data" / m).glob("*.parquet")
                ):
                    parts.append(decode_chunk_table(pq.read_table(f)))
            rows_t = pa.concat_tables(
                [p for p in parts if p.num_columns],
                promote_options="default",
            )
            sort_keys = (
                [("token", "ascending"), ("doc_id", "ascending")]
                if "token" in rows_t.column_names
                else [("doc_id", "ascending")]
            )
            rows_t = rows_t.sort_by(sort_keys)
            _write_members(index_dir, gid, members)
            enc.encode_shard(rows_t, gid)
            for m in members:
                _drop_shard(index_dir, m)
            (manifest.manifest_dir(index_dir) / f"{gid}.members.json").unlink()
            out.append({"base": base, "merged": len(members)})
        return pa.Table.from_pylist(
            out,
            schema=pa.schema([("base", pa.string()), ("merged", pa.int64())]),
        )

    res = (
        ray.data.from_items(items, override_num_blocks=len(items))
        .map_batches(compact_bucket, batch_format="pyarrow", batch_size=None)
        .to_pandas()
    )
    return {
        "buckets_compacted": int(len(res)),
        "shards_merged": int(res["merged"].sum()),
    }


_BUCKET_RE_ANY = re.compile(r"^(bucket|docs)=(\d+)(?:\+g[0-9a-f]+)?$")


def phrase_docs(index_dir: str, phrase: str) -> ray.data.Dataset:
    """Exact phrase search from the positional postings: doc_ids whose
    token stream contains the phrase's tokens CONSECUTIVELY. Candidate
    postings come from the tokens' buckets only (hash-pruned, like any
    lookup); adjacency is verified per candidate doc by intersecting
    position sets — start positions of token_0 survive iff start+i is a
    position of token_i for every i. The verify shuffle carries only
    the candidate docs' posting rows (k rows × positions per doc)."""
    tokens = [t for t in phrase.split(" ") if t]
    if not tokens:
        raise ValueError("empty phrase")
    if len(tokens) == 1:
        return search_docs(index_dir, tokens)
    posts = lookup_postings(index_dir, tokens)
    if "pos" not in posts.schema().names:
        raise ValueError(
            f"{index_dir} predates positional postings — rebuild the index"
        )
    need = list(tokens)

    def check(group: pa.Table) -> pa.Table:
        # positions stay numpy VIEWS over the list buffers: one flatten,
        # per-token slices from the offsets — no Python int lists
        by_tok = _pos_views(group)
        empty = pa.table({"doc_id": pa.array([], pa.int64())})
        if any(t not in by_tok for t in need):
            return empty
        starts = by_tok[need[0]]
        for i, t in enumerate(need[1:], 1):
            starts = starts[np.isin(starts + i, by_tok[t])]
            if starts.size == 0:
                return empty
        return pa.table(
            {"doc_id": pa.array([group.column("doc_id")[0].as_py()], pa.int64())}
        )

    return posts.groupby("doc_id").map_groups(check, batch_format="pyarrow")


def _pos_views(group: pa.Table) -> dict[str, np.ndarray]:
    """token -> int64 numpy view of its position list, sliced zero-copy
    from the ListArray buffers (null pos rows — doc-family strays —
    are skipped)."""
    toks = group.column("token").to_pylist()
    posl = group.column("pos").combine_chunks()
    vals = posl.values.to_numpy(zero_copy_only=False).astype(np.int64)
    offs = posl.offsets.to_numpy(zero_copy_only=False)
    valid = ~np.asarray(posl.is_null())
    out: dict[str, np.ndarray] = {}
    for i, t in enumerate(toks):
        if valid[i]:
            out[t] = vals[offs[i] : offs[i + 1]]
    return out


def near_docs(
    index_dir: str, token_a: str, token_b: str, window: int = 4
) -> ray.data.Dataset:
    """Proximity search from the positional postings: doc_ids where
    `token_a` and `token_b` occur within `window` split-piece positions
    of each other (either order). Same pruning shape as phrase_docs —
    two hash buckets of I/O, then a per-candidate-doc verify over the
    two position arrays: for each position p of token_a, the nearest
    position of token_b is found by one binary search (the arrays are
    ascending by construction) and the doc matches iff some gap is
    ≤ window."""
    if token_a == token_b:
        raise ValueError("proximity needs two distinct tokens")
    if window < 1:
        raise ValueError("window must be >= 1")
    posts = lookup_postings(index_dir, [token_a, token_b])
    if "pos" not in posts.schema().names:
        raise ValueError(
            f"{index_dir} predates positional postings — rebuild the index"
        )

    def check(group: pa.Table) -> pa.Table:
        by_tok = _pos_views(group)
        empty = pa.table({"doc_id": pa.array([], pa.int64())})
        a = by_tok.get(token_a)
        b = by_tok.get(token_b)
        if a is None or b is None:
            return empty
        # nearest b-position to each a-position via binary search
        j = np.searchsorted(b, a)
        right = b[np.minimum(j, len(b) - 1)] - a
        left = a - b[np.maximum(j - 1, 0)]
        gap = np.minimum(np.abs(right), np.abs(left))
        if not (gap <= window).any():
            return empty
        return pa.table(
            {
                "doc_id": pa.array(
                    [group.column("doc_id")[0].as_py()], pa.int64()
                )
            }
        )

    return posts.groupby("doc_id").map_groups(check, batch_format="pyarrow")
