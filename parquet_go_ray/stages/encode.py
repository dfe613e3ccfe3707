"""Encode stage: Arrow batches -> encoded column chunks (+ lineage).

The unit of output is a *chunk group*: all columns of one row-slice,
stored as rows of (column, codec, payload) in a parquet file — the
Ray-native analogue of a row group's column chunks in the reference
(writer.go:568-692). Many chunk groups of one shard pack into a single
file per encode task (the analogue of many row groups per file), so the
file count tracks the task count, not the chunk count. Chunk ids are
content-derived (sha1 over the IPC serialization of the whole slice —
every column, offsets normalized), so task retries are idempotent and a
resumed run reproduces identical ids for identical input slices.

`ChunkEncoder.encode_shard` is the one shard body: resume check,
chunking, encode, one chunk file, manifest commit, summary row. Its
callers are every chunk-store writer in the package:
- `PathPlanEncoder` (encode modes direct and lang_local), through
  `ChunkEncoder.__call__`, its table-returning form;
- the zorder, bucket and lang_salted block and group bodies in
  pipelines/encode.py;
- `compact_store` and `purge_tombstones`;
- `merge_sorted_stores`, `merge_into` and `compact_merged`
  (pipelines/merge_store.py);
- the text index's bucket encoder and `compact_index`.
Derived-column families (pipelines/derive.py) write their own files,
because their chunk ids and column slots come from the base store,
but build their records with the same `chunk_record`.

Codec selection state (the winning codec id + the trained FSST symbol
table per column) is cached per worker process: Ray reuses workers
across tasks, so the sampling/training cost is paid once per worker
instead of once per 4096-row chunk — the load-once-per-actor pattern,
without requiring an actor pool. A drift guard re-runs selection when a
chunk's ratio degrades vs the ratio at selection time, and every
RESELECT_EVERY chunks regardless.
"""

from __future__ import annotations

import hashlib
import os
import uuid
import zlib
from pathlib import Path

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from ..codecs import chunk as chunk_mod
from ..codecs import registry as R

CHUNK_SCHEMA = pa.schema(
    [
        pa.field("chunk_id", pa.string()),
        pa.field("shard", pa.string()),
        # stem of the parquet file this chunk group is stored in (many
        # chunk groups share one file); "" in in-memory mode
        pa.field("file", pa.string()),
        pa.field("col_idx", pa.int32()),
        pa.field("column", pa.string()),
        pa.field("codec", pa.string()),
        pa.field("n", pa.int64()),
        pa.field("n_null", pa.int64()),
        pa.field("raw_nbytes", pa.int64()),
        pa.field("enc_nbytes", pa.int64()),
        pa.field("crc32", pa.int64()),
        # per-chunk column statistics (ColumnIndexer parity,
        # column_index.go:259-272): JSON-encoded min/max of the non-null
        # values (numbers as numbers, timestamps as epoch micros,
        # strings truncated to 64 chars), null for binary/nested
        pa.field("vmin", pa.string()),
        pa.field("vmax", pa.string()),
        # JSON-encoded sum of the non-null values — SUM/AVG aggregate
        # pushdown from the manifest alone (agg.aggregate_meta). EXACT
        # for integer/boolean columns (Python ints serialize with
        # arbitrary precision); floats carry a per-chunk IEEE sum and
        # are flagged approximate by the aggregator; null elsewhere
        pa.field("vsum", pa.string()),
        # optional split-block-style bloom sidecar for key columns
        # (bloom.go:99-117 parity): probe before decode
        pa.field("bloom", pa.large_binary()),
        pa.field("payload", pa.large_binary()),
    ]
)

_STAT_TRUNC = 64


def _stat_bounds(arr: pa.Array):
    """(vmin, vmax) as JSON strings, or (None, None) for types without
    min/max stats (time, duration, decimal, binary, nested)."""
    import json

    import pyarrow.compute as pc

    if len(arr) == arr.null_count:
        return None, None
    if pa.types.is_float16(arr.type):
        # Arrow has no halffloat min_max kernel; float32 holds every
        # half value exactly
        arr = arr.cast(pa.float32())
    ty = arr.type
    if pa.types.is_timestamp(ty):
        mm = pc.min_max(arr.view(pa.int64()))
        return json.dumps(mm["min"].as_py()), json.dumps(mm["max"].as_py())
    if (
        pa.types.is_integer(ty)
        or pa.types.is_floating(ty)
        or pa.types.is_date(ty)
        or pa.types.is_boolean(ty)
    ):
        mm = pc.min_max(arr)
        lo, hi = mm["min"].as_py(), mm["max"].as_py()
        if pa.types.is_date(ty):
            lo, hi = str(lo), str(hi)
        return json.dumps(lo), json.dumps(hi)
    if pa.types.is_string(ty) or pa.types.is_large_string(ty):
        mm = pc.min_max(arr)
        lo, hi = mm["min"].as_py(), mm["max"].as_py()
        lo = lo[:_STAT_TRUNC]  # truncated min is still a lower bound
        if len(hi) > _STAT_TRUNC:
            hi = _truncate_upper(hi)
            if hi is None:
                # every retained codepoint is U+10FFFF: no finite
                # truncated upper bound exists — treat as +inf
                return json.dumps(lo), None
        return json.dumps(lo), json.dumps(hi)
    return None, None


def _stat_sum(arr: pa.Array):
    """JSON-encoded sum of the non-null values for summable types
    (int/uint/bool: exact — Python ints are arbitrary-precision; float:
    the chunk's IEEE partial sum), else None."""
    import json

    import pyarrow.compute as pc

    if len(arr) == arr.null_count:
        return json.dumps(0)
    if pa.types.is_float16(arr.type):
        arr = arr.cast(pa.float32())  # no halffloat sum kernel either
    ty = arr.type
    if pa.types.is_integer(ty) or pa.types.is_boolean(ty):
        return json.dumps(int(pc.sum(arr).as_py()))
    if pa.types.is_floating(ty):
        return json.dumps(float(pc.sum(arr).as_py()))
    return None


def _truncate_upper(s: str, limit: int = _STAT_TRUNC) -> str | None:
    """Parquet-style truncated upper bound: keep `limit` chars, then
    increment the last incrementable codepoint (dropping any trailing
    U+10FFFF runs). Returns None when no finite upper bound exists."""
    prefix = s[:limit]
    for i in range(len(prefix) - 1, -1, -1):
        cp = ord(prefix[i])
        if cp < 0x10FFFF:
            nxt = cp + 1
            if 0xD800 <= nxt <= 0xDFFF:  # skip the surrogate gap
                nxt = 0xE000
            return prefix[:i] + chr(nxt)
    return None


def _hash_flat_array(h, arr: pa.Array) -> bool:
    """Feed arr's logical content into hash h with zero copies of the
    value bytes (memoryview slices of the Arrow buffers, offsets
    normalized). Returns False for layouts it can't handle (caller falls
    back to IPC serialization for that column)."""
    ty = arr.type
    if arr.null_count:
        import pyarrow.compute as pc

        mask = np.asarray(pc.is_null(arr))
        h.update(np.packbits(mask).tobytes())
    try:
        if (
            pa.types.is_string(ty)
            or pa.types.is_large_string(ty)
            or pa.types.is_binary(ty)
            or pa.types.is_large_binary(ty)
        ):
            from ..codecs.dictionary import _byte_array_buffers

            data, offsets = _byte_array_buffers(arr)
            h.update(offsets.tobytes())
            h.update(data)
            return True
        if pa.types.is_fixed_size_binary(ty) or pa.types.is_decimal(ty):
            w = ty.byte_width
            buf = arr.buffers()[1]
            h.update(memoryview(buf)[arr.offset * w : (arr.offset + len(arr)) * w])
            return True
        width = getattr(ty, "bit_width", 0)
        if width and width % 8 == 0 and not pa.types.is_boolean(ty):
            w = width // 8
            buf = arr.buffers()[1]
            h.update(memoryview(buf)[arr.offset * w : (arr.offset + len(arr)) * w])
            return True
    except Exception:
        return False
    return False


def chunk_id_for(table: pa.Table) -> str:
    """Deterministic content-derived chunk id over EVERY column's logical
    content (offsets normalized, so two different slices sharing a parent
    buffer hash differently) — retries stay idempotent and distinct
    slices can never silently overwrite each other. Flat columns hash
    their buffers zero-copy in one pass; nested/boolean columns fall back
    to hashing their IPC serialization."""
    h = hashlib.sha1()
    h.update(str(table.num_rows).encode())
    for name in table.column_names:
        col = table.column(name)
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        h.update(name.encode())
        if not _hash_flat_array(h, col):
            sink = pa.BufferOutputStream()
            batch = pa.record_batch([col], names=[name])
            with pa.ipc.new_stream(sink, batch.schema) as w:
                w.write_batch(batch)
            h.update(memoryview(sink.getvalue()))
    return h.hexdigest()[:16]


# ---------------------------------------------------------------------------
# per-worker codec-selection cache
#
# Keyed by (column name, dtype) inside a per-JOB namespace; Ray reuses
# worker processes across tasks AND across jobs, so the selector's
# sampling + FSST training amortize over every chunk a worker encodes
# for one job (writer.go:340-347's per-writer dictionary state, made
# per-worker) — but a selection trained on job A's `text` column must
# never be reused for job B's unrelated `text` column (two corpora
# sharing a long-lived cluster would cross-contaminate codec choices,
# and the drift guard needs DRIFT_HYSTERESIS consecutive bad chunks to
# notice). The namespace key is the STORE identity (output_dir +
# encode config; a fresh nonce for in-memory jobs), shipped in the
# serialized ChunkEncoder — re-runs against the same store stay warm,
# other stores stay invisible; stale namespaces are evicted FIFO so
# long-lived workers stay bounded. Entries re-validate on ratio drift
# and on a fixed cadence.

RESELECT_EVERY = 64  # chunks between forced (fully fresh) re-selections
RETRAIN_SLACK = 0.3  # ratio degradation that counts as drift
DRIFT_HYSTERESIS = 2  # consecutive drift chunks before re-selecting
MAX_CACHE_NAMESPACES = 8  # concurrent jobs a worker keeps state for

_COLUMN_CACHE: dict[str, dict] = {}


def _namespace_cache(store: dict[str, dict], ns: str) -> dict:
    cache = store.get(ns)
    if cache is None:
        while len(store) >= MAX_CACHE_NAMESPACES:
            store.pop(next(iter(store)))
        cache = store[ns] = {}
    return cache


def _comp_for(compression, name: str) -> str | None:
    """Resolve per-column compression (reference parity: per-column
    compress.Codec via struct tags / WriterConfig, config.go:202-216).
    A plain string applies to every column; a dict maps column -> codec
    with '*' as the default (None/missing = uncompressed)."""
    if isinstance(compression, dict):
        return compression.get(name, compression.get("*"))
    return compression


def _encode_column_cached(
    arr: pa.Array,
    name: str,
    override: int | None,
    compression: str | None,
    cache: dict[str, dict],
    shared_dicts: dict | None = None,
) -> bytes:
    """Encode one column chunk, consulting/maintaining the selection cache.

    Natural chunk-to-chunk ratio variance must not thrash the cache (a
    re-selection trial-encodes every candidate and trains an FSST table —
    the very cost the cache exists to amortize), so invalidation needs
    DRIFT_HYSTERESIS consecutive bad chunks, and a drift-triggered
    re-selection reuses the previous FSST table as its trial table (a
    stale table only mis-ranks FSST itself, and only pessimistically;
    the periodic RESELECT_EVERY pass always retrains from scratch)."""
    key = (name, str(arr.type))
    ent = cache.get(key)
    if ent is not None and override is not None and ent["codec"] != override:
        ent = None
    if ent is not None and ent["uses"] < RESELECT_EVERY:
        codec = ent["codec"]
        ctx = ent["ctx"]
        if (
            shared_dicts is not None
            and codec == R.CODEC_IDS["dict"]
            and chunk_mod.physical_type(arr.type) == 5  # BYTE_ARRAY
        ):
            # dict-winning string column in a packed file: emit indexes
            # only; the accumulated dictionary is written ONCE per file
            # as a dict page (writer.go:340-347 parity)
            from ..codecs.dictionary import DictState

            ctx = dict(ctx)
            ctx["shared_dict"] = shared_dicts.setdefault(name, DictState())
            codec = R.CODEC_IDS["dict_shared"]
        blob = chunk_mod.encode_array(arr, codec, compression, ctx)
        ent["uses"] += 1
        ratio = len(blob) / max(1, arr.nbytes)
        if ratio > ent["baseline"] * (1 + RETRAIN_SLACK):
            ent["drift"] = ent.get("drift", 0) + 1
            if ent["drift"] >= DRIFT_HYSTERESIS:
                stale = cache.pop(key)
                table = stale["ctx"].get("fsst_table")
                if table is not None and stale["codec"] != R.CODEC_IDS["fsst"]:
                    cache[("__hint__",) + key] = table
        else:
            ent["drift"] = 0
        return blob
    ctx = {}
    hint = cache.pop(("__hint__",) + key, None)
    if hint is not None:
        ctx["fsst_table"] = hint
    blob = chunk_mod.encode_array(arr, override, compression, ctx)
    cache[key] = {
        "codec": blob[4],
        "ctx": ctx,
        "uses": 1,
        "drift": 0,
        "baseline": len(blob) / max(1, arr.nbytes),
    }
    return blob


def encode_table(
    table: pa.Table,
    shard: str = "mem",
    codec_overrides: dict[str, int] | None = None,
    compression: str | None = None,
    bloom_columns: tuple[str, ...] = ("url",),
    cache: dict[str, dict] | None = None,
    shared_dicts: dict | None = None,
) -> pa.Table:
    """Encode all columns of a table slice into a chunk-record table.

    `cache` is the per-worker selection cache (codec id + ctx + drift
    guard); `shared_dicts` (column -> DictState) enables file-level dict
    pages for dict-winning string columns."""
    cid = chunk_id_for(table)
    records = []
    for i, name in enumerate(table.column_names):
        arr = table.column(name).combine_chunks()
        codec = (codec_overrides or {}).get(name)
        comp = _comp_for(compression, name)
        if cache is not None:
            blob = _encode_column_cached(
                arr, name, codec, comp, cache, shared_dicts
            )
        else:
            blob = chunk_mod.encode_array(arr, codec, comp)
        bloom = None
        if name in bloom_columns and table.num_rows:
            from ..functions.hashing import BloomFilter

            vals = arr.drop_null().to_numpy(zero_copy_only=False)
            if len(vals):
                bloom = BloomFilter(vals).to_bytes()
        records.append(chunk_record(cid, shard, i, name, arr, blob, bloom=bloom))
    return pa.Table.from_pylist(records, schema=CHUNK_SCHEMA)


def chunk_record(
    chunk_id: str,
    shard: str,
    col_idx: int,
    column: str,
    arr: pa.Array,
    blob: bytes,
    bloom: bytes | None = None,
    dict_page: bool = False,
) -> dict:
    """One CHUNK_SCHEMA row for the encoded column chunk `blob` of
    `arr` — the only place chunk records are built: data chunks
    (encode_table), file-level dict pages (`dict_page`: codec
    "dict_page", no stats) and derived-family chunks. A data chunk's
    codec is the one recorded in the blob; `file` is filled at write
    time."""
    vmin, vmax = (None, None) if dict_page else _stat_bounds(arr)
    return {
        "chunk_id": chunk_id,
        "shard": shard,
        "file": "",
        "col_idx": col_idx,
        "column": column,
        "codec": "dict_page" if dict_page else R.CODEC_NAMES[blob[4]],
        "n": len(arr),
        "n_null": arr.null_count,
        "raw_nbytes": arr.nbytes,
        "enc_nbytes": len(blob),
        "crc32": zlib.crc32(blob),
        "vmin": vmin,
        "vmax": vmax,
        "vsum": None if dict_page else _stat_sum(arr),
        "bloom": bloom,
        "payload": blob,
    }


def lineage_of(chunks: pa.Table) -> pa.Table:
    """Chunk records minus payloads/blooms (the manifest rows; blooms
    stay in the chunk files and are probed with column-pruned reads)."""
    return chunks.drop_columns(["payload", "bloom"])


# Tiny per-shard-group rows returned by the persisted encode stage: one
# row per (shard, task) instead of one row per chunk-column. Complete
# shards had their manifest written in-task (no shuffle anywhere in the
# job); groups that only saw part of a shard (block-split inputs) carry
# their lineage as an IPC blob for a driver-side merge — at scale,
# shards >> cores and blocks align to shards, so the blob path is the
# rare exception, not the rule.
SUMMARY_SCHEMA = pa.schema(
    [
        pa.field("shard", pa.string()),
        pa.field("complete", pa.bool_()),
        pa.field("rows", pa.int64()),
        pa.field("raw_nbytes", pa.int64()),
        pa.field("enc_nbytes", pa.int64()),
        pa.field("lineage_ipc", pa.large_binary()),
    ]
)


def _table_ipc(t: pa.Table) -> bytes:
    sink = pa.BufferOutputStream()
    with pa.ipc.new_stream(sink, t.schema) as w:
        w.write_table(t)
    return sink.getvalue().to_pybytes()


def _table_from_ipc(b: bytes) -> pa.Table:
    with pa.ipc.open_stream(pa.py_buffer(b)) as r:
        return r.read_all()


def summary_row(
    shard: str, lineage: pa.Table, complete: bool
) -> dict:
    import pyarrow.compute as pc

    first_col = lineage.filter(pc.equal(lineage.column("col_idx"), 0))
    return {
        "shard": shard,
        "complete": complete,
        "rows": int(pc.sum(first_col.column("n")).as_py() or 0),
        "raw_nbytes": int(pc.sum(lineage.column("raw_nbytes")).as_py() or 0),
        "enc_nbytes": int(pc.sum(lineage.column("enc_nbytes")).as_py() or 0),
        "lineage_ipc": None if complete else _table_ipc(lineage),
    }


def summary_table(rows: list[dict]) -> pa.Table:
    return pa.Table.from_pylist(rows, schema=SUMMARY_SCHEMA)


def write_chunk_file(chunks: pa.Table, output_dir: str) -> pa.Table:
    """Write one or many chunk groups of one shard as a single parquet
    file (atomic rename); file name = first chunk id, deterministic for
    deterministic batching. Returns the chunk table with the `file`
    column filled in."""
    shard = chunks.column("shard")[0].as_py()
    cid = chunks.column("chunk_id")[0].as_py()
    chunks = chunks.set_column(
        chunks.schema.get_field_index("file"),
        "file",
        pa.array([cid] * chunks.num_rows, type=pa.string()),
    )
    d = Path(output_dir) / "data" / shard
    d.mkdir(parents=True, exist_ok=True)
    path = d / f"{cid}.parquet"
    tmp = str(path) + f".tmp{os.getpid()}"
    # payloads are already encoded — store uncompressed
    pq.write_table(chunks, tmp, compression="NONE")
    os.replace(tmp, path)
    return chunks


class ChunkEncoder:
    """Shard encoder shipped as an INSTANCE inside the encode stage's
    callables -> stateless Ray tasks (elastic, no pool startup) whose
    codec-selection state lives in the per-worker cache. `encode_shard`
    is the whole-shard unit every chunk-store writer shares (see the
    module docstring for the list); `__call__` returns it as a table.

    output_dir=None  -> emit full chunk records (in-memory mode)
    output_dir=str   -> write chunk files, emit summary rows only
    """

    def __init__(
        self,
        output_dir: str | None = None,
        codec_overrides: dict[str, str] | None = None,
        rows_per_chunk: int = 4096,
        skip_completed: bool = True,
        compression: str | None = None,
        bloom_columns: tuple[str, ...] = ("url",),
        max_chunk_bytes: int = 64 << 20,
        local_sort: tuple[str, ...] | None = None,
    ):
        # local_sort: sort each task's shard rows by these keys BEFORE
        # chunking — an in-task O(shard log shard) sort with ZERO
        # shuffle. Sorting by (lang, url) makes chunks
        # language-homogeneous (the per-chunk FSST tables specialize for
        # free) and groups urls by host for prefix-sharing codecs:
        # measured url ratio 0.479 -> 0.348, lang 0.145 -> 0.016 at the
        # cost of timestamp delta packing (0.30 -> 0.53 on a small
        # column). Row order is not semantic for the corpus store and
        # the verify checksum is order-insensitive.
        self.local_sort = tuple(local_sort) if local_sort else None
        self.output_dir = output_dir
        self.rows_per_chunk = rows_per_chunk
        # wide-row guard: a chunk is capped by BYTES as well as rows, so
        # MB-scale html/media payloads cannot blow a worker's heap
        # (the analogue of the reference's page-size cut, writer.go:1074-1087)
        self.max_chunk_bytes = max_chunk_bytes
        self.skip_completed = skip_completed
        self.compression = compression
        self.bloom_columns = tuple(bloom_columns)
        self.codec_overrides = {
            k: R.CODEC_IDS[v] for k, v in (codec_overrides or {}).items()
        }
        # per-STORE cache namespace (VERDICT r3 #1): shipped in the
        # serialized instance to every task, so all tasks of this job
        # share worker-local state while jobs writing OTHER stores on
        # the same reused workers cannot see (or poison) it. Keyed by
        # store identity + encode config rather than a per-call nonce:
        # re-running a job against the same store (resume, retry, a
        # steady ingest loop) is the same corpus by construction, and
        # re-warming selection + FSST training per run would tax every
        # worker's first chunks for nothing (the drift guard still
        # catches a store whose content genuinely changed).
        # In-memory jobs (output_dir=None) have no store identity and
        # get a fresh nonce.
        if output_dir is None:
            self.cache_namespace = uuid.uuid4().hex
        else:
            self.cache_namespace = "|".join(
                (
                    str(output_dir),
                    str(compression),
                    str(sorted(self.codec_overrides.items())),
                    str(self.local_sort),
                )
            )
        # the store's completed shards, listed once per deserialized
        # instance (once per task) on the first resume check
        self._completed: set[str] | None = None

    def _shard_done(self, shard: str) -> bool:
        if not (self.output_dir and self.skip_completed):
            return False
        if self._completed is None:
            from ..state import manifest

            self._completed = manifest.completed_shards(self.output_dir)
        return shard in self._completed

    def _chunk_rows(self, table: pa.Table) -> int:
        if table.num_rows == 0:
            return self.rows_per_chunk
        row_bytes = max(1, table.nbytes // table.num_rows)
        return max(1, min(self.rows_per_chunk, self.max_chunk_bytes // row_bytes))

    def _cache(self, run: str | None = None) -> dict:
        """The worker's codec-selection cache under this store's
        namespace, so a reused worker never bleeds one store's
        selections into another: one cache for the whole store, or with
        `run` (a key run such as a language) one cache per run, so each
        language keeps its own specialized FSST tables."""
        if run is None:
            return _namespace_cache(_COLUMN_CACHE, self.cache_namespace)
        return _namespace_cache(_LANG_CACHES, self.cache_namespace).setdefault(
            f"run:{run}", {}
        )

    def _encode_groups(
        self, group: pa.Table, shard: str, cache: dict
    ) -> list[pa.Table]:
        """Encode one shard group into chunk-record tables (the per-task
        inner loop)."""
        if self.local_sort and group.num_rows:
            keys = [k for k in self.local_sort if k in group.column_names]
            if keys:
                group = group.sort_by([(k, "ascending") for k in keys])
        step = self._chunk_rows(group)
        # after a local sort whose leading key is a categorical (lang),
        # chunks are key-homogeneous runs: select codecs/tables per
        # (key, column) instead of per column, so each language keeps
        # its own specialized FSST table in the worker cache
        cache_key_col = (
            self.local_sort[0]
            if self.local_sort
            and group.num_rows
            and self.local_sort[0] in group.column_names
            else None
        )
        # file-level shared dictionaries only pay off when the file
        # holds several chunk groups
        shared: dict | None = (
            {} if self.output_dir and group.num_rows > step else None
        )
        groups = []
        for start in range(0, group.num_rows, step):
            piece = group.slice(start, step)
            piece_cache = cache
            if cache_key_col is not None:
                kc = piece.column(cache_key_col)
                # (first, last) key: a pure run shares its language's
                # cached tables; a boundary chunk spanning several
                # languages trains on its own mixed content instead of
                # borrowing the leading language's table
                piece_cache = self._cache(f"{kc[0].as_py()}|{kc[-1].as_py()}")
            groups.append(
                encode_table(
                    piece,
                    shard,
                    self.codec_overrides,
                    self.compression,
                    self.bloom_columns,
                    cache=piece_cache,
                    shared_dicts=shared,
                )
            )
        if shared:
            groups.append(_dict_page_rows(shared, shard, self.compression))
        return groups

    def encode_shard(
        self,
        group: pa.Table,
        shard: str,
        complete: bool = True,
        cache: dict | None = None,
    ) -> dict | pa.Table | None:
        """Encode one shard group end to end: skip it if resume finds it
        done, chunk and encode it, write its chunk file, commit its
        manifest when `complete` (the group is the whole shard; pieces
        of a block-split shard leave the commit to the driver's lineage
        merge) and return its summary row. Returns None for a skipped
        shard and the chunk records in in-memory mode. `cache` replaces
        the store's selection cache (e.g. a per-language one)."""
        if self._shard_done(shard):
            return None
        if cache is None:
            cache = self._cache()
        chunks = pa.concat_tables(self._encode_groups(group, shard, cache))
        if not self.output_dir:
            return chunks
        chunks = write_chunk_file(chunks, self.output_dir)
        lineage = lineage_of(chunks)
        if complete:
            from ..state import manifest

            manifest.record_shard_table(self.output_dir, shard, lineage)
        return summary_row(shard, lineage, complete)

    def __call__(
        self, rows: pa.Table, shard: str = "mem", complete: bool = True
    ) -> pa.Table:
        """`encode_shard` as a table-returning map callable: the summary
        table of `rows` as shard `shard` (empty if resume skipped it),
        or its chunk records in in-memory mode. The direct path calls
        this name, which perfbench traces as `stages.chunk_encoder`."""
        out = self.encode_shard(rows, shard, complete)
        if self.output_dir:
            return summary_table([] if out is None else [out])
        return out


def _dict_page_rows(
    shared: dict, shard: str, compression: str | None
) -> pa.Table:
    """One dict-page row per shared-dict column: the accumulated
    dictionary values as a self-contained chunk, referenced by every
    dict_shared chunk in the same file."""
    records = []
    for name, st in shared.items():
        # a state exists only because some chunk was promoted to
        # dict_shared and references this page — emit it even when the
        # accumulated dictionary is empty (an all-null chunk run), or
        # that chunk becomes undecodable
        vals = st.values_array()
        blob = chunk_mod.encode_array(vals, None, _comp_for(compression, name))
        records.append(
            chunk_record("__dict__", shard, -1, name, vals, blob, dict_page=True)
        )
    return pa.Table.from_pylist(records, schema=CHUNK_SCHEMA)


def _lineage_schema() -> pa.Schema:
    """Schema of lineage (manifest) rows — chunk records minus the
    payload/bloom blobs; must stay the exact complement of lineage_of."""
    return pa.schema([f for f in CHUNK_SCHEMA if f.name not in ("payload", "bloom")])


class PathPlanEncoder:
    """Encode stage for PATH-planned jobs: the task receives shard PATHS
    (not rows) and reads each shard itself before handing it to the
    wrapped ChunkEncoder (`__call__`, i.e. `encode_shard`) — one shard
    in memory at a time. The footer it reads to size the shard also tells it whether
    the rows it encodes are the whole shard.

    Why: ray.data.read_parquet's planning probes every file's footer on
    the DRIVER (~2 ms/file measured) — a serial stall that reaches
    minutes at 10^5 shards before the first task runs. Planning from
    the file list alone is O(1) per shard on the driver; footers are
    read inside the tasks, in parallel, like the decode path already
    does. Trade-off: a single oversized shard is not dynamically
    block-split (this engine's own layout caps shard sizes, so the cap
    is the writer's contract)."""

    def __init__(
        self,
        encoder: "ChunkEncoder",
        columns: list[str] | None = None,
        max_task_bytes: int = 1 << 30,
    ):
        self.encoder = encoder
        self.columns = columns
        # oversized-shard guard: a file whose footer reports more than
        # this many bytes streams row-group-wise instead of loading
        # whole; the per-piece lineage rides back incomplete and the
        # driver's existing block-split manifest merge completes it
        self.max_task_bytes = max_task_bytes

    def __call__(self, batch: pa.Table) -> pa.Table:
        outs = []
        for p in batch.column("path").to_pylist():
            md = pq.read_metadata(p)
            total = sum(
                md.row_group(g).total_byte_size for g in range(md.num_row_groups)
            )
            if total > self.max_task_bytes and md.num_row_groups > 1:
                f = pq.ParquetFile(p)
                pieces = (
                    f.read_row_group(g, columns=self.columns)
                    for g in range(md.num_row_groups)
                )
            else:
                pieces = [pq.read_table(p, columns=self.columns)]
            for piece in pieces:
                if not piece.num_rows:
                    continue
                # a row-group piece is not the whole shard: its lineage
                # rides back incomplete and the driver's merge commits
                # the shard manifest once every piece arrived
                outs.append(
                    self.encoder(
                        piece, Path(p).stem, complete=piece.num_rows == md.num_rows
                    )
                )
        if not outs:
            return summary_table([])
        return pa.concat_tables(outs)


def split_by_shard(batch: pa.Table, default_shard: str = "mem"):
    """Yield (shard, source_path | None, subtable) groups; uses the
    read_parquet `path` column when present (one group per input file),
    else one default group."""
    if "path" not in batch.column_names:
        yield default_shard, None, batch
        return
    paths = batch.column("path").to_numpy(zero_copy_only=False)
    data = batch.drop_columns(["path"])
    if len(paths) == 0:
        return
    # boundaries on the raw path strings (no per-row parsing); the stem
    # is computed once per group, not once per row
    change = np.nonzero(paths[1:] != paths[:-1])[0] + 1
    starts = np.concatenate(([0], change, [len(paths)]))
    for a, b in zip(starts[:-1], starts[1:]):
        p = paths[a]
        yield Path(p).stem, p, data.slice(int(a), int(b - a))


# per-worker per-language-run selection caches for lang_local runs and
# lang_salted partitions (workers are reused across tasks, so each
# language's tables amortize over every chunk the worker encodes);
# namespaced per store like _COLUMN_CACHE so reused workers never mix
# corpora
_LANG_CACHES: dict[str, dict] = {}
