"""Store compaction: bin-packing small shards preserves every row,
is idempotent, and finishes a crashed run's deletion."""

import shutil
from pathlib import Path

import pytest

import ray.data

from parquet_go_ray.pipelines.compact import _plan_groups, compact_store
from parquet_go_ray.pipelines.decode import decode_dataset
from parquet_go_ray.pipelines.encode import encode_job
from parquet_go_ray.pipelines.verify import dataset_checksum

SF = "/root/testdata/sf0.001"


@pytest.fixture()
def store(ray_session, tmp_path):
    """A store of 6 small same-schema shards (the post-retry /
    skewed-input shape compaction exists for) plus one odd-schema shard
    that must be left alone."""
    import pyarrow.parquet as pq

    out = str(tmp_path / "store")
    t = pq.read_table(f"{SF}/documents.parquet")
    files = []
    step = max(1, t.num_rows // 6)
    for i in range(6):
        piece = t.slice(i * step, step)
        p = str(tmp_path / f"docs-{i:02d}.parquet")
        pq.write_table(piece, p)
        files.append(p)
    other = str(tmp_path / "events.parquet")
    pq.write_table(pq.read_table(f"{SF}/events.parquet"), other)
    encode_job(files + [other], out, resume=False)
    return out


def test_compact_preserves_rows_and_packs(store, ray_session):
    before_rows, before_sum = dataset_checksum(decode_dataset(store))
    n_shards_before = len(list((Path(store) / "data").iterdir()))
    res = compact_store(store, target_bytes=1 << 20)
    assert res["groups"] >= 1 and res["shards_removed"] >= 2
    n_shards_after = len(list((Path(store) / "data").iterdir()))
    assert n_shards_after < n_shards_before
    after_rows, after_sum = dataset_checksum(decode_dataset(store))
    assert (after_rows, after_sum) == (before_rows, before_sum)
    # idempotent: a second run finds nothing left to pack
    res2 = compact_store(store, target_bytes=1 << 20)
    assert res2["shards_removed"] == 0


def test_compact_resumes_crashed_deletion(store, ray_session):
    import json

    before = dataset_checksum(decode_dataset(store))
    plan = _plan_groups(store, 1 << 20, 2)
    group, members = plan[0]["group"], plan[0]["members"]
    victim = members[0]
    backup_data = str(Path(store).parent / "bk_data")
    shutil.copytree(Path(store) / "data" / victim, backup_data)
    bk_json = (Path(store) / "_manifest" / f"{victim}.json").read_text()
    compact_store(store, target_bytes=1 << 20)
    # simulate a crash between manifest commit and member deletion:
    # restore the member AND the group's intent log
    shutil.copytree(backup_data, Path(store) / "data" / victim)
    (Path(store) / "_manifest" / f"{victim}.json").write_text(bk_json)
    (Path(store) / "_manifest" / f"{group}.members.json").write_text(
        json.dumps(members)
    )
    res = compact_store(store, target_bytes=1 << 20)
    assert res["shards_removed"] >= 1 and res["rows"] == 0  # recovery only
    assert not (Path(store) / "data" / victim).exists()
    assert dataset_checksum(decode_dataset(store)) == before


def test_compact_rolls_back_uncommitted_group(store, ray_session):
    import json

    before = dataset_checksum(decode_dataset(store))
    # simulate a crash BEFORE the manifest commit: intent log + orphan
    # data dir, no shard manifest
    orphan = Path(store) / "data" / "compact-deadbeef0000"
    orphan.mkdir(parents=True)
    (orphan / "junk.parquet").write_bytes(b"not a real chunk file")
    (Path(store) / "_manifest" / "compact-deadbeef0000.members.json").write_text(
        json.dumps([])
    )
    compact_store(store, target_bytes=1 << 20)
    assert not orphan.exists()
    assert not (
        Path(store) / "_manifest" / "compact-deadbeef0000.members.json"
    ).exists()
    assert dataset_checksum(decode_dataset(store)) == before


def test_compact_nested_columns(ray_session, tmp_path):
    out = str(tmp_path / "nstore")
    encode_job([f"{SF}/embeddings.parquet"], out, resume=False, rows_per_chunk=64)
    n_before = decode_dataset(out).count()
    res = compact_store(out, target_bytes=1 << 20, min_group=1)
    # single input shard: nothing to pack unless min_group allows 1
    if res["groups"]:
        assert decode_dataset(out).count() == n_before


def test_compact_inconsistent_member_fails_loudly(store, ray_session):
    """A member whose chunk file is missing must FAIL the group and
    leave every member untouched — never silently compact the surviving
    subset and delete the evidence."""
    from parquet_go_ray.pipelines.compact import _plan_groups

    plan = _plan_groups(store, 1 << 20, 2)
    victim = plan[0]["members"][0]
    victims_files = sorted((Path(store) / "data" / victim).glob("*.parquet"))
    victims_files[0].unlink()
    with pytest.raises(Exception, match="inconsistent|decoded"):
        compact_store(store, target_bytes=1 << 20)
    # members (with manifests) are all still present
    for m in plan[0]["members"]:
        assert (Path(store) / "_manifest" / f"{m}.json").exists()


def test_compact_keeps_store_bloom_columns(ray_session, tmp_path):
    """Compaction rewrites with the bloom sidecars the store was encoded
    with (persisted in job meta), not the encoder default ("url",)."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from parquet_go_ray.sources import webpages

    files = []
    for i in range(3):
        p = str(tmp_path / f"web-{i:02d}.parquet")
        pq.write_table(webpages.generate_shard(0.001, i, 200), p)
        files.append(p)
    out = str(tmp_path / "bstore")
    encode_job(files, out, resume=False, bloom_columns=("url", "lang"))
    res = compact_store(out, target_bytes=1 << 20)
    assert res["groups"] == 1 and res["shards_removed"] == 3
    chunks = pa.concat_tables(
        pq.read_table(f, columns=["column", "bloom"])
        for f in sorted((Path(out) / "data").glob("*/*.parquet"))
    )
    bloomed = {
        c
        for c, b in zip(chunks["column"].to_pylist(), chunks["bloom"].to_pylist())
        if b is not None
    }
    assert bloomed == {"url", "lang"}
