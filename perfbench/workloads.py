"""The benchmark's workloads. Each operation has a timed produce half
(encode or export) and a timed consume half (decode or read-back);
checking the result against the generated input is never timed.

- ``store_roundtrip``: ``pipelines.encode.encode_job`` (direct mode) writes
  the web table into a fresh store, ``pipelines.decode.decode_dataset``
  streams it back to the main process. Ray scheduling, stages, the manifest and
  chunk-file I/O do most of the work; the per-worker selection cache is
  warm after each job's first chunk.
- ``cold_chunks``: in-process, no Ray. ``stages.encode.encode_table`` with
  no selection cache on one 4096-row chunk, then
  ``stages.decode.decode_chunk_table``. Codec selection dominates.
- ``wire_export``: ``pipelines.export.export_parquet_job`` with zstd writes
  Parquet through ``codecs.parquet_wire``; pyarrow reads it back.
"""

from __future__ import annotations

import shutil
import statistics
import time
from pathlib import Path

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from . import gen

ROWS = 100_000  # sf0.1 of the F1 table
ROWS_PER_SHARD = 6_250  # 16 input shards
CHUNK_ROWS = 4_096  # the encode job's rows per chunk
READ_BACKS = 7  # pyarrow reads of each export


class Mismatch(Exception):
    """The program's output differs from the generated input."""


def _by_url(t: pa.Table) -> pa.Table:
    return t.select(gen.COLUMNS).take(pc.sort_indices(t, [("url", "ascending")]))


def check_same_rows(got: pa.Table, expected_by_url: pa.Table) -> None:
    """Rows matched by url must equal the input, value for value."""
    if got.num_rows != expected_by_url.num_rows:
        raise Mismatch(f"{got.num_rows} rows, expected {expected_by_url.num_rows}")
    if sorted(got.column_names) != sorted(gen.COLUMNS):
        raise Mismatch(f"columns {got.column_names}")
    got = _by_url(got)
    for c in gen.COLUMNS:
        if not got.column(c).equals(expected_by_url.column(c)):
            raise Mismatch(f"column {c} differs")


def _dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def _flip_payload_byte(path: Path, payload: bytes) -> None:
    """Flip one byte in the middle of ``payload`` where it sits in the
    (uncompressed) chunk file."""
    data = bytearray(path.read_bytes())
    at = data.find(payload[:64])
    if at < 0:
        raise RuntimeError(f"payload not found in {path}")
    data[at + len(payload) // 2] ^= 0xFF
    path.write_bytes(bytes(data))


def _timed(tracer, span: str, fn, *args):
    """Call ``fn``; return its result and wall seconds. With a tracer the
    call is also recorded as a span named ``span``."""
    if tracer is not None:
        fn = tracer.wrap(span, fn)
    t0 = time.perf_counter()
    out = fn(*args)
    return out, time.perf_counter() - t0


def _read_one_thread(files: list[str]) -> pa.Table:
    return pq.read_table(files, use_threads=False)


class _RayWorkload:
    """Shared input handling for the two Ray pipelines: the table is
    written as 16 parquet shards, plus a one-shard sample for warm-up."""

    uses_ray = True
    setup_repeats = 3
    min_ops = 3

    def __init__(self, run_dir: Path, seed: int):
        self.run_dir = run_dir
        self.tracer = None  # set for the traced phase
        shards = gen.generate(seed, ROWS, ROWS_PER_SHARD)
        table = pa.concat_tables(shards)
        self.raw_bytes = table.nbytes
        self.expected = _by_url(table)
        (run_dir / "input").mkdir(parents=True)
        (run_dir / "warm_input").mkdir()
        self.files = gen.write_shards(shards, run_dir / "input")
        self.warm_files = gen.write_shards([shards[0].slice(0, 512)], run_dir / "warm_input")
        self._n = 0

    def _fresh(self, kind: str) -> Path:
        # a new path per job: the program namespaces its per-worker
        # selection cache by output path, so a reused path would carry
        # warm state from one job into the next
        self._n += 1
        return self.run_dir / f"{kind}-{self._n:04d}"


class StoreRoundtrip(_RayWorkload):
    name = "store_roundtrip"
    imports = ("ray.data", "parquet_go_ray.pipelines.encode", "parquet_go_ray.pipelines.decode")
    spans = (
        "codecs.select",
        "codecs.encode_array",
        "codecs.decode_array",
        "stages.encode_table",
        "stages.write_chunk_file",
        "stages.chunk_encoder",
        "stages.path_read",
        "stages.decode_chunk_table",
        "stages.chunk_file_read",
        "state.manifest.record_shard_table",
    )

    def _encode(self, files, store):
        from parquet_go_ray.pipelines.encode import encode_job

        return encode_job(files, str(store), mode="direct")

    def _decode(self, store):
        from parquet_go_ray.pipelines.decode import decode_dataset

        ds = decode_dataset(str(store))
        return pa.concat_tables(list(ds.iter_batches(batch_format="pyarrow", batch_size=None)))

    def warmup(self) -> None:
        store = self._fresh("warm")
        self._encode(self.warm_files, store)
        self._decode(store)
        shutil.rmtree(store)

    def produce(self):
        store = self._fresh("store")
        _, sec = _timed(self.tracer, "pipelines.encode_job", self._encode, self.files, store)
        return store, sec

    def consume(self, store) -> float:
        got, sec = _timed(self.tracer, "pipelines.decode", self._decode, store)
        check_same_rows(got, self.expected)
        return sec

    def stored_bytes(self, store) -> int:
        return _dir_bytes(store)

    def corrupt(self, store):
        path = sorted((store / "data").rglob("*.parquet"))[0]
        payload = max(pq.read_table(path, columns=["payload"]).column("payload").to_pylist(), key=len)
        _flip_payload_byte(path, payload)
        return store, f"flipped one payload byte in {path.name}"

    def discard(self, store) -> None:
        shutil.rmtree(store, ignore_errors=True)


class WireExport(_RayWorkload):
    name = "wire_export"
    imports = ("ray.data", "parquet_go_ray.pipelines.export", "parquet_go_ray.codecs.parquet_wire")
    spans = ("codecs.wire.select_encoding", "codecs.wire.write_table", "pipelines.export.task")

    def _export(self, files, out):
        from parquet_go_ray.pipelines.export import export_parquet_job

        return export_parquet_job(files, str(out), compression="zstd")

    def warmup(self) -> None:
        out = self._fresh("warm")
        self._export(self.warm_files, out)
        pq.read_table(sorted(out.glob("*.parquet")))
        shutil.rmtree(out)

    def produce(self):
        out = self._fresh("export")
        _, sec = _timed(self.tracer, "pipelines.export", self._export, self.files, out)
        return out, sec

    def consume(self, out) -> float:
        files = sorted(str(p) for p in out.glob("*.parquet"))
        # one read-back takes ~0.2 s, short enough for host jitter to
        # show, so the median of several reads is what is reported; a
        # single reader thread keeps it from depending on how busy the
        # host's other CPUs are
        secs = []
        for _ in range(READ_BACKS):
            got, sec = _timed(self.tracer, "wire.read_back", _read_one_thread, files)
            secs.append(sec)
        check_same_rows(got, self.expected)
        return statistics.median(secs)

    def stored_bytes(self, out) -> int:
        return _dir_bytes(out)

    def corrupt(self, out):
        path = sorted(out.glob("*.parquet"))[0]
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        return out, f"truncated {path.name} to half"

    def discard(self, out) -> None:
        shutil.rmtree(out, ignore_errors=True)


class ColdChunks:
    """One operation is one new 4096-row chunk, encoded with no selection
    cache, as every worker's first chunk and every library call is. Each
    chunk is generated just before its operation, outside the clock, so
    the run holds one chunk at a time and its peak memory stays steady
    (a held pool of chunks left it to the allocator's caching)."""

    name = "cold_chunks"
    uses_ray = False
    imports = ("parquet_go_ray.stages.encode", "parquet_go_ray.stages.decode")
    setup_repeats = 7  # a 0.2 s import, cheap enough to repeat more often
    min_ops = 40  # ten or more chunk timings beyond p75
    spans = (
        "codecs.select",
        "codecs.encode_array",
        "codecs.decode_array",
        "stages.encode_table",
        "stages.decode_chunk_table",
    )

    def __init__(self, run_dir: Path, seed: int):
        self.tracer = None  # set for the traced phase
        self.seed = seed
        self.raw_bytes = None
        self._n = 0
        self._chunk = None

    def warmup(self) -> None:
        from parquet_go_ray.stages import decode, encode

        decode.decode_chunk_table(encode.encode_table(gen.generate_shard(self.seed, 0, 512)))

    def produce(self):
        from parquet_go_ray.stages import encode

        self._n += 1
        self._chunk = gen.generate_shard(self.seed, self._n, CHUNK_ROWS)
        self.raw_bytes = self._chunk.nbytes
        return _timed(self.tracer, "chunk.encode", encode.encode_table, self._chunk)

    def consume(self, enc) -> float:
        from parquet_go_ray.stages import decode

        got, sec = _timed(self.tracer, "chunk.decode", decode.decode_chunk_table, enc)
        if not got.equals(self._chunk):
            raise Mismatch("decoded chunk differs from its input")
        return sec

    def stored_bytes(self, enc) -> int:
        return sum(enc.column("enc_nbytes").to_pylist())

    def corrupt(self, enc):
        payloads = enc.column("payload").to_pylist()
        i = max(range(len(payloads)), key=lambda k: len(payloads[k]))
        blob = bytearray(payloads[i])
        blob[len(blob) // 2] ^= 0xFF
        payloads[i] = bytes(blob)
        field = enc.schema.field("payload")
        enc = enc.set_column(enc.schema.get_field_index("payload"), field, pa.array(payloads, type=field.type))
        return enc, f"flipped one payload byte of column {enc.column('column')[i].as_py()}"

    def discard(self, enc) -> None:
        pass


WORKLOADS = {w.name: w for w in (StoreRoundtrip, ColdChunks, WireExport)}
