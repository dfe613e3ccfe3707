"""Store fsck: clean stores pass; corruption, missing files, orphans
and leftover compaction intents are reported at the right severity."""

from pathlib import Path

import pytest

from parquet_go_ray.pipelines.encode import encode_job
from parquet_go_ray.pipelines.fsck import fsck_store

SF = "/root/testdata/sf0.001"


@pytest.fixture()
def store(ray_session, tmp_path):
    out = str(tmp_path / "store")
    files = sorted(str(p) for p in Path(SF).glob("*.parquet"))[:4]
    encode_job(files, out, resume=False)
    return out


def test_fsck_clean_store(store, ray_session):
    res = fsck_store(store)
    assert res["ok"] and not res["errors"] and not res["warnings"]
    assert res["info"]["shards"] == 4 and res["info"]["rows"] > 0


def test_fsck_finds_problems(store, ray_session):
    data = Path(store) / "data"
    shard_dirs = sorted(data.iterdir())
    # 1. corrupt one payload byte in one chunk file (past the parquet
    #    header, inside the page data region)
    victim = next(sorted(shard_dirs[0].glob("*.parquet")).__iter__())
    raw = bytearray(victim.read_bytes())
    raw[200] ^= 0xFF
    victim.write_bytes(bytes(raw))
    # 2. delete a whole chunk file of another shard
    gone = next(sorted(shard_dirs[1].glob("*.parquet")).__iter__())
    gone_name = f"{shard_dirs[1].name}/{gone.name}"
    gone.unlink()
    # 3. an orphan file and a leftover compaction intent
    (shard_dirs[2] / "deadbeef00000000.parquet").write_bytes(b"junk")
    (Path(store) / "_manifest" / "compact-aaaa.members.json").write_text("[]")

    res = fsck_store(store)
    assert not res["ok"]
    text = "\n".join(res["errors"])
    assert "crc mismatch" in text or "unreadable" in text
    assert f"missing chunk file {gone_name}" in text
    wtext = "\n".join(res["warnings"])
    assert "orphan data file" in wtext
    assert "leftover compaction intent" in wtext


def test_fsck_flags_each_chunk_corruption(store, ray_session):
    """fsck's full CRC pass flags a flipped payload body byte, a flipped
    trailer byte and another chunk's valid blob in a record's place, and
    names the chunk and the column."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    victim = sorted((Path(store) / "data").glob("*/*.parquet"))[0]
    original = victim.read_bytes()
    t = pq.read_table(victim)
    payloads = t.column("payload").to_pylist()
    i = next(k for k, c in enumerate(t.column("codec").to_pylist()) if c != "dict_page")
    j = next(k for k, p in enumerate(payloads) if p != payloads[i])
    where = f"crc mismatch chunk {t.column('chunk_id')[i].as_py()} column {t.column('column')[i].as_py()}"
    f = t.schema.get_field_index("payload")
    for kind in ("body", "trailer", "swapped"):
        blob = bytearray(payloads[i])
        if kind == "body":
            blob[len(blob) // 2] ^= 0x01
        elif kind == "trailer":
            blob[-1] ^= 0x01
        else:
            blob = payloads[j]
        bad = payloads[:i] + [bytes(blob)] + payloads[i + 1 :]
        pq.write_table(t.set_column(f, "payload", pa.array(bad, t.schema.field(f).type)), victim)
        res = fsck_store(store)
        assert not res["ok"], kind
        assert where in "\n".join(res["errors"]), (kind, res["errors"])
        victim.write_bytes(original)
    assert fsck_store(store)["ok"]
