"""Chunk-stats pruning (Search/Find parity) and bloom point lookup."""

import json

import numpy as np
import pytest

from parquet_go_ray.sources import webpages


@pytest.fixture(scope="module")
def encoded_store(ray_session, tmp_path_factory):
    import pyarrow.parquet as pq

    from parquet_go_ray.pipelines.encode import encode_job

    (shard,) = webpages.shard_files(webpages.ensure(0.001))
    root = tmp_path_factory.mktemp("store")
    # sf0.001 is a single shard: write it as 8 row-slice shards so the
    # store has multiple chunk FILES with disjoint stats ranges — the
    # thing file-level pruning needs to demonstrate
    t = pq.read_table(shard)
    step = -(-t.num_rows // 8)
    files = []
    for i in range(8):
        p = str(root / f"slice-{i:02d}.parquet")
        pq.write_table(t.slice(i * step, step), p)
        files.append(p)
    out = str(root / "enc")
    encode_job(files, out, rows_per_chunk=1024)
    return files, out


def test_stats_recorded(encoded_store):
    from parquet_go_ray.state import manifest

    _, out = encoded_store
    recs = [r for m in manifest.load_all(out) for r in m["records"]]
    ts = [r for r in recs if r["column"] == "warc_ts"]
    assert ts and all(r["vmin"] is not None for r in ts)
    assert all(json.loads(r["vmin"]) <= json.loads(r["vmax"]) for r in ts)
    urls = [r for r in recs if r["column"] == "url"]
    assert all(isinstance(json.loads(r["vmin"]), str) for r in urls)


def test_pruned_decode_matches_full_filter(ray_session, encoded_store):
    import ray.data

    from parquet_go_ray.pipelines.decode import (
        chunk_files,
        chunk_files_pruned,
        decode_dataset_pruned,
    )

    files, out = encoded_store
    src = ray.data.read_parquet(files).to_pandas()
    ts = np.sort(src["warc_ts"].astype("int64").to_numpy())
    lo, hi = int(ts[len(ts) // 4]), int(ts[len(ts) // 2])

    pruned = chunk_files_pruned(out, "warc_ts", lo, hi)
    assert len(pruned) < len(chunk_files(out))  # actually prunes

    got = decode_dataset_pruned(out, "warc_ts", lo, hi).to_pandas()
    want = src[(src["warc_ts"].astype("int64") >= lo) & (src["warc_ts"].astype("int64") <= hi)]
    assert len(got) == len(want)
    assert set(got["url"]) == set(want["url"])


def test_pruned_decode_distributed_matches(ray_session, encoded_store):
    """The fully distributed pruning path (manifest read as a Dataset,
    no driver-side file list) must return exactly the same rows as the
    driver-side path."""
    import ray.data

    from parquet_go_ray.pipelines.decode import decode_dataset_pruned_distributed

    files, out = encoded_store
    src = ray.data.read_parquet(files).to_pandas()
    ts = np.sort(src["warc_ts"].astype("int64").to_numpy())
    lo, hi = int(ts[len(ts) // 4]), int(ts[len(ts) // 2])
    got = decode_dataset_pruned_distributed(out, "warc_ts", lo, hi).to_pandas()
    want = src[
        (src["warc_ts"].astype("int64") >= lo)
        & (src["warc_ts"].astype("int64") <= hi)
    ]
    assert len(got) == len(want)
    assert set(got["url"]) == set(want["url"])


def test_point_lookup_bloom(ray_session, encoded_store):
    import ray.data

    from parquet_go_ray.pipelines.decode import point_lookup

    files, out = encoded_store
    src = ray.data.read_parquet(files).to_pandas()
    keys = list(src["url"].iloc[[3, 777, 4000]])
    got = point_lookup(out, "url", keys).to_pandas()
    assert set(got["url"]) == set(keys)
    assert len(got) == 3
    # text payloads round-trip bit-identically through the lookup
    want = src[src["url"].isin(keys)].sort_values("url")
    got = got.sort_values("url")
    assert list(got["text"]) == list(want["text"])


def test_salted_zstd_store_pruning(ray_session, tmp_path):
    """All features combined: salted-shuffle encode + zstd page layer +
    stats pruning + bloom lookup on the resulting store."""
    import ray.data

    from parquet_go_ray.pipelines.decode import (
        decode_dataset,
        decode_dataset_pruned,
        point_lookup,
    )
    from parquet_go_ray.pipelines.encode import encode_job
    from parquet_go_ray.pipelines.verify import verify_roundtrip

    files = webpages.shard_files(webpages.ensure(0.001))
    out = str(tmp_path / "combo")
    encode_job(files, out, mode="lang_salted", salts=2, compression="zstd")
    src_ds = ray.data.read_parquet(files)
    assert verify_roundtrip(src_ds, decode_dataset(out))["ok"]

    src = src_ds.to_pandas()
    ts = np.sort(src["warc_ts"].astype("int64").to_numpy())
    lo, hi = int(ts[100]), int(ts[400])
    got = decode_dataset_pruned(out, "warc_ts", lo, hi).to_pandas()
    want = src[(src["warc_ts"].astype("int64") >= lo) & (src["warc_ts"].astype("int64") <= hi)]
    assert set(got["url"]) == set(want["url"])

    keys = list(src["url"].iloc[[7, 1234]])
    found = point_lookup(out, "url", keys).to_pandas()
    assert set(found["url"]) == set(keys)


def test_point_lookup_missing_key(ray_session, encoded_store):
    from parquet_go_ray.pipelines.decode import point_lookup

    _, out = encoded_store
    ds = point_lookup(out, "url", ["https://nonexistent.example/x"])
    assert ds.count() == 0


def test_zorder_mode_prunes_both_columns(ray_session, tmp_path):
    """mode="zorder" clusters on the Morton interleave of two columns:
    a range predicate on EITHER column prunes chunk stats (vs a random
    layout where nothing prunes), and pruned decodes stay exact."""
    import os

    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq

    from parquet_go_ray.pipelines.decode import (
        chunk_groups_pruned,
        decode_dataset_pruned,
    )
    from parquet_go_ray.pipelines.encode import encode_job

    rng = np.random.default_rng(1)
    n = 40_000
    t = pa.table(
        {
            "doc_id": pa.array(rng.permutation(n).astype(np.int64)),
            "warc_ts": pa.array(
                rng.integers(0, 10_000, n).astype(np.int64)
            ),
            "n_chars": pa.array(
                rng.integers(0, 5_000, n).astype(np.int64)
            ),
        }
    )
    src = str(tmp_path / "src.parquet")
    pq.write_table(t, src)
    direct = str(tmp_path / "direct")
    zorder = str(tmp_path / "zorder")
    encode_job([src], direct, rows_per_chunk=1024, bloom_columns=())
    encode_job(
        [src],
        zorder,
        mode="zorder",
        rows_per_chunk=1024,
        bloom_columns=(),
        zorder_cols=("warc_ts", "n_chars"),
    )
    for col, lo, hi in [("warc_ts", 1000, 1500), ("n_chars", 2000, 2400)]:
        _, kept_d = chunk_groups_pruned(direct, col, lo, hi)
        _, kept_z = chunk_groups_pruned(zorder, col, lo, hi)
        # random layout: every chunk spans the range -> nothing prunes;
        # z-order: a small fraction survives ON BOTH columns
        assert len(kept_d) == 40
        assert len(kept_z) <= (len(kept_d) * 11) // 20, (col, len(kept_z))
        out = decode_dataset_pruned(zorder, col, lo, hi).to_pandas()
        vals = t[col].to_numpy()
        assert len(out) == int(((vals >= lo) & (vals <= hi)).sum())
        got = np.sort(out[col].to_numpy())
        exp = np.sort(vals[(vals >= lo) & (vals <= hi)])
        assert (got == exp).all()
