"""End-to-end pipeline tests: encode job -> chunk store + manifest ->
decode job -> bit-identical verification; checkpoint resume (FIXTURES F6)."""

import shutil
from pathlib import Path

import pyarrow as pa
import pytest

from parquet_go_ray.sources import webpages


@pytest.fixture(scope="module")
def web_small(ray_session):
    return webpages.shard_files(webpages.ensure(0.001))


def test_generator_deterministic():
    t1 = webpages.generate_shard(0.001, 0, 100)
    t2 = webpages.generate_shard(0.001, 0, 100)
    assert t1.equals(t2)
    assert t1.schema.equals(webpages.SCHEMA)
    # urls unique
    assert len(set(t1.column("url").to_pylist())) == 100


def test_encode_decode_exact(ray_session, web_small, tmp_path):
    import ray.data

    from parquet_go_ray.pipelines.decode import decode_dataset
    from parquet_go_ray.pipelines.encode import encode_job
    from parquet_go_ray.state import manifest

    out = str(tmp_path / "enc")
    summary = encode_job(web_small, out, rows_per_chunk=1024)
    assert summary["rows"] == 6250
    assert summary["enc_nbytes"] < summary["raw_nbytes"] * 0.6  # must compress
    hist = manifest.codec_histogram(out)
    assert "fsst" in hist or "dict" in hist

    src = ray.data.read_parquet(web_small).to_pandas().sort_values("url").reset_index(drop=True)
    dec = decode_dataset(out).to_pandas().sort_values("url").reset_index(drop=True)
    dec = dec[src.columns]
    for col in src.columns:
        assert (src[col] == dec[col]).all(), col


def test_resume_skips_completed(ray_session, tmp_path):
    import ray.data

    from parquet_go_ray.pipelines.decode import decode_dataset
    from parquet_go_ray.pipelines.encode import encode_job
    from parquet_go_ray.pipelines.verify import verify_roundtrip

    files = webpages.shard_files(webpages.ensure(0.01))
    assert len(files) >= 2
    out = str(tmp_path / "enc")
    # simulate a job killed after the first shard completed
    s1 = encode_job(files[:1], out)
    assert s1["shards_written"] == 1
    # resumed run encodes only the remainder
    s2 = encode_job(files, out)
    assert s2["shards_skipped"] == 1
    assert s2["shards_written"] == len(files) - 1
    res = verify_roundtrip(ray.data.read_parquet(files), decode_dataset(out))
    assert res["ok"], res


def test_salted_mode(ray_session, web_small, tmp_path):
    import ray.data

    from parquet_go_ray.pipelines.decode import decode_dataset
    from parquet_go_ray.pipelines.encode import encode_job
    from parquet_go_ray.pipelines.verify import verify_roundtrip

    out = str(tmp_path / "enc_salted")
    summary = encode_job(web_small, out, mode="lang_salted", salts=4)
    assert summary["rows"] == 6250
    res = verify_roundtrip(ray.data.read_parquet(web_small), decode_dataset(out))
    assert res["ok"], res


def test_lang_local_mode(ray_session, web_small, tmp_path):
    """Shuffle-free skew mode: in-task (lang, warc_ts) sort before
    chunking; round-trip stays bit-identical (order-insensitive) and the
    ratio must not regress past direct mode's."""
    import ray.data

    from parquet_go_ray.pipelines.decode import decode_dataset
    from parquet_go_ray.pipelines.encode import encode_job
    from parquet_go_ray.pipelines.verify import verify_roundtrip

    out = str(tmp_path / "enc_ll")
    summary = encode_job(web_small, out, mode="lang_local")
    assert summary["rows"] == 6250
    res = verify_roundtrip(ray.data.read_parquet(web_small), decode_dataset(out))
    assert res["ok"], res

    out_d = str(tmp_path / "enc_direct")
    direct = encode_job(web_small, out_d, mode="direct")
    assert summary["enc_nbytes"] <= direct["enc_nbytes"] * 1.01


def test_selection_plan_reused_and_drifted_chunk_selects_alone():
    """A chunk reuses its plan entry (codec and FSST table); a chunk that
    encodes worse than the entry's baseline × (1 + RETRAIN_SLACK)
    selects for itself alone and keeps the smaller blob, and the plan
    is not changed; one chunk encoded twice with one plan gives the same
    bytes."""
    import numpy as np

    from parquet_go_ray.codecs import chunk as chunk_mod
    from parquet_go_ray.stages.encode import RETRAIN_SLACK, encode_table

    plan: dict = {}
    t1 = webpages.generate_shard(0.001, 0, 512).select(["text", "url"])
    encode_table(t1, plan=plan)
    key = ("text", "string")  # plan entries key by (column, dtype)
    assert set(plan) == {key, ("url", "string")}
    entries = {k: dict(e) for k, e in plan.items()}
    ctxs = {k: dict(e["ctx"]) for k, e in plan.items()}
    assert ctxs[key].get("fsst_table") is not None

    # reused: the second chunk's text blob is the entry's codec with the
    # entry's table, not a selection of its own
    t2 = webpages.generate_shard(0.001, 1, 512).select(["text", "url"])
    second = encode_table(t2, plan=plan)
    text2 = t2.column("text").combine_chunks()
    assert second.column("payload")[0].as_py() == chunk_mod.encode_array(
        text2, plan[key]["codec"], None, dict(plan[key]["ctx"])
    )
    assert encode_table(t2, plan=plan).equals(second)

    # drifted: incompressible random hex, distinct per row, so neither
    # dict nor the entry's FSST table helps
    rng = np.random.default_rng(9)
    letters = np.frombuffer(b"abcdefghijklmnopqrstuvwxyz0123456789", dtype="S1")
    rnd = pa.array([b"".join(rng.choice(letters, 200)).decode() for _ in range(512)])
    drifted = encode_table(pa.table({"text": rnd, "url": t1.column("url")}), plan=plan)
    with_entry = chunk_mod.encode_array(rnd, plan[key]["codec"], None, dict(plan[key]["ctx"]))
    own = chunk_mod.encode_array(rnd)
    assert len(with_entry) > plan[key]["baseline"] * (1 + RETRAIN_SLACK) * rnd.nbytes
    assert len(own) < len(with_entry)
    assert drifted.column("payload")[0].as_py() == own
    assert plan == entries
    assert all(plan[k]["ctx"] == ctxs[k] for k in plan)


def test_discarded_dict_shared_blob_leaves_its_values_in_the_dict_page():
    """A dict-winning string column in a packed file emits indexes into
    the file's dict page. When such a chunk drifts and its own selection
    is smaller, the values it inserted stay in the page: the page only
    appends, so the kept chunks' indexes stay valid and the file decodes
    exactly."""
    from parquet_go_ray.codecs import registry as R
    from parquet_go_ray.stages.decode import decode_chunk_table
    from parquet_go_ray.stages.encode import _dict_page_rows, encode_table

    # baseline 0: every chunk drifts and keeps the smaller blob
    plan = {("s", "string"): {"codec": R.DICT, "ctx": {}, "baseline": 0.0}}
    shared: dict = {}
    # 70k scattered values: 17-bit indexes still beat any own encoding
    a = pa.table({"s": [f"{(i * 2654435761) % 2**32:08x}" for i in range(70_000)]})
    # sequential values: front coding beats 17-bit indexes
    b = pa.table({"s": [f"{i:05d}" for i in range(4096)]})
    ca = encode_table(a, plan=plan, shared_dicts=shared, bloom_columns=())
    cb = encode_table(b, plan=plan, shared_dicts=shared, bloom_columns=())
    assert ca.column("codec").to_pylist() == ["dict_shared"]
    assert cb.column("codec").to_pylist() == ["delta_byte_array"]
    assert len(shared["s"]) == 70_000 + 4096
    page = _dict_page_rows(shared, "mem", None)
    assert page.column("n").to_pylist() == [70_000 + 4096]
    out = decode_chunk_table(pa.concat_tables([ca, cb, page]))
    assert out.equals(pa.concat_tables([a, b]))


def test_store_bytes_depend_only_on_input(ray_session, tmp_path):
    """Chunk files are a function of the input, the encode config and
    the shard, not of which worker encoded which shard: direct and
    lang_local stores hash the same across two runs, a run with one task
    for every shard, and a resume after one shard's chunk files and
    manifest were deleted."""
    import hashlib

    import pyarrow.parquet as pq

    from parquet_go_ray.pipelines.encode import encode_job

    (tmp_path / "in").mkdir()
    files = []
    for i in range(6):
        f = str(tmp_path / "in" / f"shard-{i:05d}.parquet")
        pq.write_table(webpages.generate_shard(0.001, i, 5000), f)
        files.append(f)

    def hashes(out):
        d = Path(out) / "data"
        return {
            str(p.relative_to(d)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(d.rglob("*.parquet"))
        }

    for mode in ("direct", "lang_local"):
        runs = []
        for k, kw in enumerate(({}, {}, {"override_num_blocks": 1})):
            out = str(tmp_path / f"{mode}{k}")
            encode_job(files, out, mode=mode, **kw)
            runs.append(hashes(out))
        out = tmp_path / f"{mode}0"
        shutil.rmtree(out / "data" / "shard-00003")
        for p in (out / "_manifest").glob("shard-00003.*"):
            p.unlink()
        assert encode_job(files, str(out), mode=mode)["shards_skipped"] == 5
        runs.append(hashes(out))
        assert len(runs[0]) == 6
        assert all(r == runs[0] for r in runs[1:]), mode


def test_compressed_encode_job(ray_session, web_small, tmp_path):
    import ray.data

    from parquet_go_ray.pipelines.decode import decode_dataset
    from parquet_go_ray.pipelines.encode import encode_job
    from parquet_go_ray.pipelines.verify import verify_roundtrip

    out = str(tmp_path / "enc_zstd")
    summary = encode_job(web_small, out, compression="zstd")
    res = verify_roundtrip(ray.data.read_parquet(web_small), decode_dataset(out))
    assert res["ok"], res
    # zstd layer must further shrink the lightweight-encoded payloads
    assert summary["enc_nbytes"] < summary["raw_nbytes"] * 0.45


def test_sorted_mode_is_gone(tmp_path):
    """A globally sorted store is a range-merged one; encode_job refuses
    the old mode before it writes anything."""
    from parquet_go_ray.pipelines.encode import encode_job

    out = tmp_path / "enc_sorted"
    with pytest.raises(ValueError, match="unknown mode 'sorted'"):
        encode_job([], str(out), mode="sorted")
    assert not out.exists()


def test_merged_store_shares_dict_pages(ray_session, tmp_path):
    """merge_sorted_stores writes through the shared shard body: a
    low-cardinality string column is stored as dict_shared chunks with
    one dict page per chunk file, and the store decodes to its input."""
    import numpy as np
    import pandas as pd
    import pyarrow.parquet as pq

    from parquet_go_ray.codecs import registry as R
    from parquet_go_ray.pipelines.encode import encode_job
    from parquet_go_ray.pipelines.merge_store import (
        merge_sorted_stores,
        read_merged_sorted,
    )
    from parquet_go_ray.state import manifest

    rng = np.random.default_rng(5)
    stores, frames = [], []
    for name, ids in (("a", np.arange(700)), ("b", np.arange(1000, 1500))):
        t = pa.table(
            {
                "doc_id": pa.array(ids, pa.int64()),
                "k": pa.array(rng.integers(0, 100, len(ids)), pa.int64()),
                "lang": pa.array(rng.choice(["en", "de", "fr", "ja"], len(ids))),
            }
        )
        p = str(tmp_path / f"{name}.parquet")
        pq.write_table(t, p)
        out = str(tmp_path / f"{name}_store")
        encode_job([p], out, rows_per_chunk=64, bloom_columns=())
        stores.append(out)
        frames.append(t.to_pandas())
    merged = str(tmp_path / "merged")
    merge_sorted_stores(stores, merged, "k", num_ranges=2, rows_per_chunk=64)

    lin = manifest.lineage_table(
        merged, columns=["shard", "file", "column", "codec"]
    ).to_pandas()
    langs = lin[lin["column"] == "lang"]
    assert "dict_shared" in set(langs["codec"])
    pages = langs[langs["codec"] == "dict_page"].groupby(["shard", "file"]).size()
    assert len(pages) == lin.groupby(["shard", "file"]).ngroups
    assert set(pages) == {1}
    # string chunks only ever get byte-array codecs
    byte_array = {R.CODEC_NAMES[c] for c in R.SUPPORTED[R.BYTE_ARRAY]}
    assert set(langs["codec"]) <= byte_array | {"dict_shared", "dict_page"}

    got = read_merged_sorted(merged).to_pandas()
    want = pd.concat(frames, ignore_index=True)
    pd.testing.assert_frame_equal(
        got.sort_values("doc_id", ignore_index=True)[list(want.columns)],
        want.sort_values("doc_id", ignore_index=True),
    )


def test_salted_resume_skips(ray_session, web_small, tmp_path):
    from parquet_go_ray.pipelines.encode import encode_job
    from parquet_go_ray.state import manifest

    out = str(tmp_path / "enc_salted_resume")
    encode_job(web_small, out, mode="lang_salted", salts=2)
    done = manifest.completed_shards(out)
    assert done
    # resumed run: durable partitions are skipped inside the groups
    before = {s: manifest.load_shard(out, s)["completed_at"] for s in done}
    encode_job(web_small, out, mode="lang_salted", salts=2)
    after = {s: manifest.load_shard(out, s)["completed_at"] for s in done}
    assert before == after  # manifests untouched -> no re-encode happened


def test_direct_resume_after_crash_window(ray_session, web_small, tmp_path):
    """Kill window between chunk-file write and manifest commit: the
    shard's chunk file exists but no manifest. Resume must re-encode
    that shard idempotently (same deterministic file name, overwritten
    atomically) and end green."""
    import ray.data

    from parquet_go_ray.pipelines.decode import decode_dataset
    from parquet_go_ray.pipelines.encode import encode_job
    from parquet_go_ray.pipelines.verify import verify_roundtrip
    from parquet_go_ray.state import manifest

    out = str(tmp_path / "enc_crash")
    encode_job(web_small, out)
    done = sorted(manifest.completed_shards(out))
    victim = done[0]
    # simulate the crash: manifest gone, chunk file(s) still on disk
    (manifest.manifest_dir(out) / f"{victim}.json").unlink()
    (manifest.manifest_dir(out) / f"{victim}.parquet").unlink()
    files_before = sorted(
        p.name for p in (manifest.data_dir(out) / victim).glob("*.parquet")
    )
    s = encode_job(web_small, out)  # resume
    assert s["shards_written"] == 1  # only the victim re-encoded
    assert sorted(manifest.completed_shards(out)) == done
    files_after = sorted(
        p.name for p in (manifest.data_dir(out) / victim).glob("*.parquet")
    )
    assert files_before == files_after  # deterministic names, no strays
    res = verify_roundtrip(ray.data.read_parquet(web_small), decode_dataset(out))
    assert res["ok"], res


def test_encoder_retry_idempotent(web_small):
    """A retried task (same input batch) must produce the same chunk ids
    and byte-identical chunk files."""
    import pyarrow.parquet as pq

    from parquet_go_ray.stages.encode import ChunkEncoder

    import shutil
    from pathlib import Path

    t = pq.read_table(web_small[0])
    shard = Path(web_small[0]).stem
    outdir = "/tmp/retry_idem"
    shutil.rmtree(outdir, ignore_errors=True)
    enc = ChunkEncoder(output_dir=outdir, skip_completed=False)
    s1 = enc(t, shard)

    f = sorted(Path(outdir, "data").glob("*/*.parquet"))[0]
    first = pq.read_table(f)
    s2 = ChunkEncoder(output_dir=outdir, skip_completed=False)(t, shard)  # "retry"
    second = pq.read_table(f)
    assert s1.column("shard").to_pylist() == s2.column("shard").to_pylist() == [shard]
    assert first.column("chunk_id").to_pylist() == second.column("chunk_id").to_pylist()
    shutil.rmtree(outdir, ignore_errors=True)


def test_salted_partial_resume(ray_session, web_small, tmp_path):
    """A killed salted run with only SOME (lang, salt) partitions durable
    must resume green: the skip path emits empty lineage tables whose
    schema unifies with the encode path's (regression: the skip schema
    kept `bloom` while lineage_of dropped it)."""
    import ray.data

    from parquet_go_ray.pipelines.decode import decode_dataset
    from parquet_go_ray.pipelines.encode import encode_job
    from parquet_go_ray.pipelines.verify import verify_roundtrip
    from parquet_go_ray.state import manifest

    out = str(tmp_path / "enc_salted_partial")
    encode_job(web_small, out, mode="lang_salted", salts=2)
    done = sorted(manifest.completed_shards(out))
    assert len(done) >= 4
    # simulate a crash after only half the partitions were manifested
    keep = set(done[: len(done) // 2])
    for s in done:
        if s not in keep:
            (manifest.manifest_dir(out) / f"{s}.json").unlink()
            (manifest.manifest_dir(out) / f"{s}.parquet").unlink()
    before = {s: manifest.load_shard(out, s)["completed_at"] for s in keep}
    summary = encode_job(web_small, out, mode="lang_salted", salts=2)
    assert summary["shards_written"] == len(done) - len(keep)
    after = {s: manifest.load_shard(out, s)["completed_at"] for s in keep}
    assert before == after  # durable partitions were skipped, not redone
    assert sorted(manifest.completed_shards(out)) == done
    res = verify_roundtrip(ray.data.read_parquet(web_small), decode_dataset(out))
    assert res["ok"], res


def test_cli_smoke(ray_session, web_small, tmp_path):
    import subprocess
    import sys

    out = str(tmp_path / "cli_enc")
    env_dir = str(Path(web_small[0]).parent)
    r = subprocess.run(
        [sys.executable, "-m", "parquet_go_ray", "--num-cpus", "4",
         "encode", env_dir, out],
        capture_output=True, text=True, cwd="/root/repo",
    )
    assert r.returncode == 0, r.stderr[-500:]
    r = subprocess.run(
        [sys.executable, "-m", "parquet_go_ray", "describe", out],
        capture_output=True, text=True, cwd="/root/repo",
    )
    assert r.returncode == 0 and "column" in r.stdout
    # the job plan is recorded with the job and described: per column,
    # the codec the sample chose and the ratio it reached
    from parquet_go_ray.codecs.registry import CODEC_IDS
    from parquet_go_ray.state import manifest

    plan = manifest.load_job_meta(out)["plan"]
    assert set(plan) == set(webpages.SCHEMA.names)
    assert all(e["codec"] in CODEC_IDS and 0 < e["ratio"] for e in plan.values())
    line = next(x for x in r.stdout.splitlines() if x.startswith("job plan"))
    assert f"url={plan['url']['codec']}" in line


def test_checksum_detects_change(ray_session, web_small):
    import ray.data

    from parquet_go_ray.pipelines.verify import dataset_checksum

    src = ray.data.read_parquet(web_small)
    rows, h1 = dataset_checksum(src)

    def mutate(t: pa.Table) -> pa.Table:
        text = t.column("text").to_pylist()
        text[0] = text[0] + "!"
        return t.set_column(t.schema.get_field_index("text"), "text", pa.array(text))

    mutated = src.map_batches(mutate, batch_format="pyarrow")
    rows2, h2 = dataset_checksum(mutated)
    assert rows == rows2
    assert h1 != h2


def test_roundtrip_stage(ray_session, web_small):
    import ray.data

    from parquet_go_ray.pipelines.roundtrip import roundtrip_dataset
    from parquet_go_ray.pipelines.verify import verify_roundtrip

    src = ray.data.read_parquet(web_small)
    rt = roundtrip_dataset(ray.data.read_parquet(web_small))
    assert verify_roundtrip(src, rt)["ok"]


def test_bytes_capped_chunking():
    import numpy as np

    from parquet_go_ray.stages.decode import decode_chunk_table
    from parquet_go_ray.stages.encode import ChunkEncoder

    rng = np.random.default_rng(2)
    # 200 rows x ~1 MB each; with a 16 MiB cap a single chunk must hold
    # far fewer than the 4096-row default
    payload = [rng.integers(0, 256, 1_000_000).astype(np.uint8).tobytes() for _ in range(40)]
    t = pa.table({"id": list(range(40)), "blob": pa.array(payload, type=pa.large_binary())})
    enc = ChunkEncoder(rows_per_chunk=4096, max_chunk_bytes=16 << 20)
    chunks = enc(t)
    n_per_chunk = chunks.to_pandas().groupby("chunk_id")["n"].first()
    assert n_per_chunk.max() <= 16
    assert decode_chunk_table(chunks).equals(t)


def test_encode_shard_bytes_capped(tmp_path):
    """The whole-shard method every store writer calls (bucket and
    lang_salted groups, compaction, purge) obeys the byte cap too."""
    import numpy as np
    import pyarrow.compute as pc
    import pyarrow.parquet as pq

    from parquet_go_ray.stages.decode import decode_chunk_table
    from parquet_go_ray.stages.encode import ChunkEncoder

    rng = np.random.default_rng(2)
    payload = [rng.integers(0, 256, 1_000_000).astype(np.uint8).tobytes() for _ in range(40)]
    t = pa.table({"id": list(range(40)), "blob": pa.array(payload, type=pa.large_binary())})
    enc = ChunkEncoder(
        output_dir=str(tmp_path), rows_per_chunk=4096, max_chunk_bytes=16 << 20
    )
    row = enc.encode_shard(t, "bucket=00000")
    assert row["complete"] and row["rows"] == 40
    (f,) = (tmp_path / "data" / "bucket=00000").glob("*.parquet")
    chunks = pq.read_table(f)
    data = chunks.filter(pc.greater_equal(chunks["col_idx"], 0))
    n_per_chunk = data.to_pandas().groupby("chunk_id")["n"].first()
    assert len(n_per_chunk) >= 3 and n_per_chunk.max() <= 16
    assert decode_chunk_table(chunks).equals(t)


def test_flipped_payload_byte_raises_chunk_error():
    from parquet_go_ray.codecs.chunk import ChunkError
    from parquet_go_ray.stages.decode import decode_chunk_table
    from parquet_go_ray.stages.encode import encode_table

    chunks = encode_table(webpages.generate_shard(0.001, 0, 200), bloom_columns=())
    payloads = chunks.column("payload").to_pylist()
    blob = bytearray(payloads[2])
    blob[len(blob) // 2] ^= 0x01
    payloads[2] = bytes(blob)
    i = chunks.schema.get_field_index("payload")
    bad = chunks.set_column(i, "payload", pa.array(payloads, chunks.schema.field(i).type))
    with pytest.raises(ChunkError, match="checksum mismatch for column html"):
        decode_chunk_table(bad)


def test_chunk_id_deterministic():
    from parquet_go_ray.stages.encode import chunk_id_for

    t = webpages.generate_shard(0.001, 0, 50)
    assert chunk_id_for(t) == chunk_id_for(t)
    assert chunk_id_for(t.slice(0, 25)) != chunk_id_for(t.slice(25, 25))


def test_chunk_id_covers_all_columns(ray_session, tmp_path):
    """Regression: a constant first column with equal-length slices must
    not collide (ids formerly hashed only column 0's buffers — two
    distinct 256-row slices silently overwrote each other)."""
    import ray.data

    from parquet_go_ray.pipelines.decode import decode_dataset
    from parquet_go_ray.pipelines.encode import encode_job
    from parquet_go_ray.stages.encode import chunk_id_for

    t = pa.table(
        {
            "const": ["x"] * 512,
            "v": list(range(512)),
        }
    )
    assert chunk_id_for(t.slice(0, 256)) != chunk_id_for(t.slice(256, 256))

    src = tmp_path / "const.parquet"
    import pyarrow.parquet as pq

    pq.write_table(t, src)
    out = str(tmp_path / "enc_const")
    encode_job([str(src)], out, rows_per_chunk=256, bloom_columns=())
    dec = decode_dataset(out).to_pandas().sort_values("v").reset_index(drop=True)
    assert len(dec) == 512
    assert dec["v"].tolist() == list(range(512))


def test_pathplan_oversized_shard_streams_row_groups(ray_session, tmp_path, monkeypatch):
    """A shard over PathPlanEncoder's byte budget streams row-group-wise
    (never whole-file in task memory); per-piece lineage rides back
    incomplete and the driver merge commits the full shard manifest —
    the decode sees one complete shard either way."""
    import pyarrow.parquet as pq

    import ray.data

    from parquet_go_ray.pipelines.decode import decode_dataset
    from parquet_go_ray.pipelines.encode import encode_job
    from parquet_go_ray.stages import encode as E
    from parquet_go_ray.state import manifest

    t = pa.table(
        {
            "url": [f"https://ex.com/{i}" for i in range(4000)],
            "text": [f"body {i} " * 12 for i in range(4000)],
            "v": list(range(4000)),
        }
    )
    src = tmp_path / "big.parquet"
    pq.write_table(t, src, row_group_size=1000)  # 4 row groups

    # force the streaming path regardless of actual size
    orig_init = E.PathPlanEncoder.__init__

    def tiny_budget(self, encoder, columns=None, max_task_bytes=1 << 30):
        orig_init(self, encoder, columns=columns, max_task_bytes=1)

    monkeypatch.setattr(E.PathPlanEncoder, "__init__", tiny_budget)
    out = str(tmp_path / "enc_big")
    s = encode_job([str(src)], out, rows_per_chunk=512, bloom_columns=())
    assert s["rows"] == 4000
    assert "big" in manifest.completed_shards(out)  # driver merge committed
    dec = decode_dataset(out).to_pandas().sort_values("v").reset_index(drop=True)
    assert dec["v"].tolist() == list(range(4000))
    assert dec["text"].tolist() == t.column("text").to_pylist()


def test_frame_sampler_explode_layout():
    """FrameSampler: one row per sampled frame, frame 0 always included,
    deterministic timestamps, short payloads clamp to available frames,
    and the non-stub path raises at the documented decoder seam."""
    import pandas as pd
    import pytest

    from parquet_go_ray.stages.multimodal import FrameSampler

    fs = FrameSampler(n_frames=4, decode_stub=True)
    batch = pd.DataFrame(
        {
            "doc_id": [1, 2, 3],
            "payload": [b"x" * 100_000, b"tiny", b""],
        }
    )
    out = fs(batch)
    assert list(out.columns) == ["doc_id", "frame_idx", "frame_ts_ms", "frame_bytes"]
    g = out.groupby("doc_id")
    assert g.size()[1] == 4         # long payload: full sample
    assert g.size()[2] >= 1         # short payload clamps, never zero
    assert (g["frame_idx"].min() == 0).all()  # frame 0 always sampled
    assert (out["frame_ts_ms"] == out["frame_idx"] * 40).all()
    # deterministic
    out2 = fs(batch)
    assert out.equals(out2)
    # frames come from the payload (stub slices contiguously)
    f0 = out[(out["doc_id"] == 1) & (out["frame_idx"] == 0)]["frame_bytes"].iloc[0]
    assert f0 and set(f0) == {ord("x")}
    with pytest.raises(NotImplementedError):
        FrameSampler(decode_stub=False)(batch.iloc[:1])


def test_image_resizer_dims_and_determinism():
    """ImageResizer: exact target dims, recorded source dims, payload
    bytes = target*target, deterministic, and the non-stub path raises
    at the decoder seam."""
    import pandas as pd
    import pytest

    from parquet_go_ray.stages.multimodal import ImageResizer

    rz = ImageResizer(target=16, decode_stub=True)
    batch = pd.DataFrame(
        {"doc_id": [1, 2, 3], "payload": [bytes(range(256)) * 16, b"abc", b""]}
    )
    out = rz(batch)
    assert (out["height"] == 16).all() and (out["width"] == 16).all()
    assert all(len(p) == 16 * 16 for p in out["payload"])
    assert out["src_height"][0] == out["src_width"][0] == 64  # sqrt(4096)
    assert out.equals(rz(batch))
    # resize of a constant image is constant
    const = rz(pd.DataFrame({"doc_id": [9], "payload": [b"\x07" * 400]}))
    assert set(const["payload"][0]) == {7}
    with pytest.raises(NotImplementedError):
        ImageResizer(decode_stub=False)(batch.iloc[:1])


def test_codec_cache_isolated_across_jobs(ray_session, tmp_path):
    """Two encode jobs sharing a column NAME in one Ray session must not
    share codec selections: Ray reuses worker processes across jobs, so
    selection state kept in a worker would let job A's selection for
    `text` poison job B's unrelated `text` column. Each job samples its
    own plan, so job B's output must be byte-identical to a standalone
    run of job B."""
    import random

    import pyarrow.parquet as pq

    from parquet_go_ray.pipelines.encode import encode_job

    rng = random.Random(7)
    # corpus A: one constant value -> dict codec wins at ~0 ratio.
    # Enough shards that EVERY worker in the session encodes some of A.
    fa = []
    for i in range(12):
        f = str(tmp_path / f"a{i}.parquet")
        pq.write_table(
            pa.table({"text": ["the same boilerplate line"] * 2000}), f
        )
        fa.append(f)
    # corpus B: high-entropy unique strings -> a dict selection trained
    # on A would be badly wrong here
    fb = []
    for i in range(4):
        f = str(tmp_path / f"b{i}.parquet")
        pq.write_table(
            pa.table(
                {"text": ["%032x" % rng.getrandbits(128) for _ in range(2000)]}
            ),
            f,
        )
        fb.append(f)

    def enc_bytes(files, out):
        s = encode_job(files, str(tmp_path / out), rows_per_chunk=2048)
        return s["enc_nbytes"]

    standalone_b = enc_bytes(fb, "b_alone")
    enc_bytes(fa, "a_first")  # every worker encodes corpus A first
    poisoned_b = enc_bytes(fb, "b_after_a")
    assert poisoned_b == standalone_b


def test_raw_raster_resizer_bilinear_real():
    """RawRasterResizer has NO stubbed seam: exact dims, constant image
    stays constant, a horizontal gradient stays monotone per row, and a
    2x2->4x4 upscale reproduces the hand-computed bilinear values."""
    import numpy as np
    import pandas as pd

    from parquet_go_ray.stages.multimodal import RawRasterResizer

    # constant RGB image -> constant output
    const = np.full((10, 7, 3), 123, dtype=np.uint8)
    grad = np.tile(
        np.linspace(0, 255, 32, dtype=np.uint8)[None, :, None], (8, 1, 3)
    )
    batch = pd.DataFrame(
        {
            "media_id": np.array([1, 2], dtype=np.int64),
            "payload": pd.Series([const.tobytes(), grad.tobytes()], dtype=object),
            "height": [10, 8],
            "width": [7, 32],
            "channels": [3, 3],
        }
    )
    out = RawRasterResizer(target_h=4, target_w=16)(batch)
    assert list(out["height"]) == [4, 4] and list(out["width"]) == [16, 16]
    a = np.frombuffer(out["payload"].iloc[0], dtype=np.uint8).reshape(4, 16, 3)
    assert (a == 123).all()
    g = np.frombuffer(out["payload"].iloc[1], dtype=np.uint8).reshape(4, 16, 3)
    assert (np.diff(g[0, :, 0].astype(int)) >= 0).all()  # monotone gradient
    # hand-checked 2x2 -> 4x4 bilinear (pixel-center convention):
    # fy=fx=[0, .5] weights -> corners exact, midpoints = averages
    sq = np.array([[0, 100], [200, 60]], dtype=np.uint8)[..., None]
    b = pd.DataFrame(
        {
            "media_id": np.array([3], dtype=np.int64),
            "payload": pd.Series([sq.tobytes()], dtype=object),
            "height": [2],
            "width": [2],
            "channels": [1],
        }
    )
    r = RawRasterResizer(target_h=4, target_w=4)(b)
    m = np.frombuffer(r["payload"].iloc[0], dtype=np.uint8).reshape(4, 4)
    expect = np.array(
        [[0, 25, 75, 100],
         [50, 60, 80, 90],
         [150, 130, 90, 70],
         [200, 165, 95, 60]]
    )
    assert (m == expect).all(), m


def test_raw_video_frame_sampler_exact():
    """RawVideoFrameSampler has NO stubbed seam: exact byte slicing,
    evenly spaced frame selection always including frame 0, fps-derived
    timestamps, and its output chains straight into RawRasterResizer."""
    import numpy as np
    import pandas as pd

    from parquet_go_ray.stages.multimodal import (
        RawRasterResizer,
        RawVideoFrameSampler,
    )

    h, w, c = 2, 3, 1
    fb = h * w * c
    # 10 frames, frame i filled with byte value i*10
    vid = b"".join(bytes([i * 10]) * fb for i in range(10))
    # 2 frames only -> sampler must clamp to 2
    short = b"".join(bytes([7 + i]) * fb for i in range(2))
    batch = pd.DataFrame(
        {
            "media_id": np.array([5, 9], dtype=np.int64),
            "payload": pd.Series([vid, short], dtype=object),
            "n_frames": pd.Series([10, 2], dtype="int64"),
            "height": pd.Series([h, h], dtype="int64"),
            "width": pd.Series([w, w], dtype="int64"),
            "channels": pd.Series([c, c], dtype="int64"),
            "fps": pd.Series([25.0, 50.0], dtype="float64"),
        }
    )
    out = RawVideoFrameSampler(n_frames=4)(batch)
    # linspace(0, 9, 4) -> frames 0, 3, 6, 9; linspace(0, 1, 2) -> 0, 1
    assert list(out["media_id"]) == [5, 5, 5, 5, 9, 9]
    assert list(out["frame_idx"]) == [0, 3, 6, 9, 0, 1]
    # 25 fps -> 40ms/frame; 50 fps -> 20ms/frame
    assert list(out["frame_ts_ms"]) == [0, 120, 240, 360, 0, 20]
    for _, row in out.iterrows():
        assert len(row["payload"]) == fb
    assert out["payload"].iloc[1] == bytes([30]) * fb
    assert out["payload"].iloc[5] == bytes([8]) * fb

    # wrong payload length is a hard error, not silent truncation
    bad = batch.copy()
    bad.loc[0, "n_frames"] = 11
    try:
        RawVideoFrameSampler(n_frames=4)(bad)
        assert False, "expected ValueError for mismatched payload length"
    except ValueError:
        pass

    # chains into RawRasterResizer with frame identity preserved
    resized = RawRasterResizer(target_h=4, target_w=4)(out)
    assert list(resized.columns) == [
        "media_id", "frame_idx", "frame_ts_ms", "payload",
        "height", "width", "channels",
    ]
    assert list(resized["frame_idx"]) == [0, 3, 6, 9, 0, 1]
    # constant frame stays constant through bilinear resize
    r1 = np.frombuffer(resized["payload"].iloc[1], dtype=np.uint8)
    assert (r1 == 30).all() and len(r1) == 4 * 4 * c


def test_raw_audio_featurizer_pinned():
    """Hand-computed PCM windows pin the RMS/ZCR kernel bit-exactly."""
    import numpy as np
    import pandas as pd

    from parquet_go_ray.stages.multimodal import RawAudioFeaturizer

    samples = np.array([0, 100, -100, 100, 0, 0, 0, 0, 7], dtype="<i2")
    batch = pd.DataFrame(
        {
            "media_id": pd.array([9], dtype="int64"),
            "payload": [samples.tobytes()],
            "sample_rate": pd.array([8000], dtype="int64"),
        }
    )
    out = RawAudioFeaturizer(window=4)(batch)
    # trailing partial window (the lone 7) dropped
    assert out["window_idx"].tolist() == [0, 1]
    # w0: rms = sqrt(7500)/32768 = 0.002643 -> 3 milli; signs [+,+,-,+]
    # cross twice in 3 steps -> 667 milli. w1: silence -> 0 / 0.
    assert out["rms_milli"].tolist() == [3, 0]
    assert out["zcr_milli"].tolist() == [667, 0]
    assert out["t0_sec"].tolist() == [0.0, 4 / 8000]
    assert out["media_id"].tolist() == [9, 9]
