"""Store compaction: bin-pack small shards into packed ones.

A Ray-native maintenance operation with no analogue in the reference
(parquet-go files are written once); it exists because THIS engine's
resumable jobs commit one shard per task — retries, crash-windows and
skewed inputs leave stores with many small shards, and at 10^6+ shards
the per-file open/footer cost starts to dominate reads (the same
pressure that motivates LSM compaction).

Shape: the driver plans from the manifests alone (KBs of JSON — never
row data), greedily packing small shards OF THE SAME SCHEMA into
groups of ~`target_bytes` encoded bytes (a store can hold several
logical tables; packing never unions columns across them); one Ray
task per group decodes its members' chunk files, re-encodes them as
ONE packed shard through the normal encode path (codec re-selection
included — a compacted shard's bigger chunks often pick better
tables), commits the new manifest in-task, and only then deletes the
member shards.

Crash-safety protocol (per group `compact-<hash(members)>`):
  1. write `_manifest/<group>.members.json` (atomic) — the intent log
  2. write the packed chunk file (atomic rename)
  3. commit the group's shard manifest
  4. delete member shards, then the members file
A rerun first runs RECOVERY over leftover members files: intent with a
committed manifest -> finish the deletions; intent without one -> roll
back (drop the orphan data dir; the manifest is the source of truth for
reads, so a crashed half-written group is invisible to decode either
way). Planning then sees a clean store, so compaction is idempotent
and never duplicates rows.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
from pathlib import Path

import pyarrow as pa
import pyarrow.parquet as pq

import ray
import ray.data

from ..state import manifest
from .tombstone import store_bloom_columns


def _plan_groups(
    store_dir: str, target_bytes: int, min_group: int
) -> list[dict]:
    shards = []
    covered: set[str] = set()
    lt = manifest.lineage_table(
        store_dir, columns=["shard", "column", "codec", "col_idx", "n", "enc_nbytes"]
    )
    if lt is not None and lt.num_rows:
        # columnar manifest scan: at 10^6+ shards this reads thin
        # columns instead of every shard's full JSON records
        df = lt.to_pandas()
        for shard, g in df.groupby("shard", sort=False):
            cols = tuple(sorted(set(g.loc[g["codec"] != "dict_page", "column"])))
            shards.append(
                {
                    "shard": shard,
                    "enc": int(g["enc_nbytes"].sum()),
                    "rows": int(g.loc[g["col_idx"] == 0, "n"].sum()),
                    "cols": cols,
                }
            )
            covered.add(shard)
    # json-only shards (legacy stores, or a mixed store where only some
    # shards carry the parquet lineage twin) — merged, not either/or
    for name in sorted(manifest.completed_shards(store_dir) - covered):
        m = manifest.load_shard(store_dir, name)
        recs = m.get("records", [])
        shards.append(
            {
                "shard": m["shard"],
                "enc": sum(r["enc_nbytes"] for r in recs),
                "rows": m.get("rows", 0),
                "cols": tuple(
                    sorted(
                        {r["column"] for r in recs if r["codec"] != "dict_page"}
                    )
                ),
            }
        )
    # only shards meaningfully below the target are compaction input;
    # already-packed (incl. previously compacted) shards are left alone
    small = sorted(
        (s for s in shards if s["enc"] < target_bytes // 2),
        key=lambda s: (s["cols"], s["shard"]),
    )
    groups, cur, cur_bytes = [], [], 0
    for s in small:
        if cur and (
            cur_bytes + s["enc"] > target_bytes or s["cols"] != cur[0]["cols"]
        ):
            groups.append(cur)
            cur, cur_bytes = [], 0
        cur.append(s)
        cur_bytes += s["enc"]
    if cur:
        groups.append(cur)
    out = []
    for g in groups:
        if len(g) < min_group:
            continue
        names = [s["shard"] for s in g]
        gid = hashlib.sha1("|".join(names).encode()).hexdigest()[:12]
        out.append(
            {
                "group": f"compact-{gid}",
                "members": names,
                "expect_rows": sum(s["rows"] for s in g),
            }
        )
    return out


def _drop_shard(store_dir: str, shard: str) -> None:
    shutil.rmtree(Path(store_dir) / "data" / shard, ignore_errors=True)
    for suffix in (".json", ".parquet"):
        p = manifest.manifest_dir(store_dir) / f"{shard}{suffix}"
        if p.exists():
            p.unlink()


def _write_members(store_dir: str, group: str, members: list[str]) -> None:
    d = manifest.manifest_dir(store_dir)
    d.mkdir(parents=True, exist_ok=True)
    tmp = d / f".{group}.members.tmp{os.getpid()}"
    tmp.write_text(json.dumps(members))
    os.replace(tmp, d / f"{group}.members.json")


def _recover(store_dir: str) -> int:
    """Finish or roll back crashed groups; returns shards cleaned up."""
    cleaned = 0
    for p in manifest.manifest_dir(store_dir).glob("*.members.json"):
        group = p.name[: -len(".members.json")]
        members = json.loads(p.read_text())
        if (manifest.manifest_dir(store_dir) / f"{group}.json").exists():
            # committed: member deletion is the only outstanding step
            for m in members:
                if (Path(store_dir) / "data" / m).exists():
                    cleaned += 1
                _drop_shard(store_dir, m)
        else:
            # not committed: roll back EVERYTHING the crashed task may
            # have written — the data dir AND the parquet lineage twin
            # (record_shard writes the twin before the json commit
            # marker, and the read planner trusts the twin)
            _drop_shard(store_dir, group)
        p.unlink()
    return cleaned


def compact_store(
    store_dir: str,
    target_bytes: int = 64 << 20,
    min_group: int = 2,
    rows_per_chunk: int = 4096,
    compression: str | None = None,
) -> dict:
    """Compact small shards; returns a summary dict. Safe to re-run."""
    manifest.check_format_version(store_dir, "compact")
    recovered = _recover(store_dir)
    plan = _plan_groups(store_dir, target_bytes, min_group)
    if not plan:
        return {"groups": 0, "shards_removed": recovered, "rows": 0}
    # the rewrite keeps the store's bloom sidecars (ADVICE r4 #2)
    bloom_columns = store_bloom_columns(store_dir)

    def compact_group(batch: pa.Table) -> pa.Table:
        from ..stages.decode import decode_chunk_table
        from ..stages.encode import ChunkEncoder

        out_rows = []
        for group, members, expect_rows in zip(
            batch.column("group").to_pylist(),
            batch.column("members").to_pylist(),
            batch.column("expect_rows").to_pylist(),
        ):
            if (manifest.manifest_dir(store_dir) / f"{group}.json").exists():
                # a previous attempt of THIS task (Ray retries tasks on
                # worker loss / block reconstruction) already committed
                # the group — re-encoding from the now partially deleted
                # members would overwrite the manifest with a subset.
                # Finish the deletions instead.
                for m in members:
                    _drop_shard(store_dir, m)
                mf = manifest.manifest_dir(store_dir) / f"{group}.members.json"
                if mf.exists():
                    mf.unlink()
                out_rows.append(
                    {"group": group, "members": len(members), "rows": 0}
                )
                continue
            _write_members(store_dir, group, list(members))
            parts = []
            for m in members:
                for f in sorted((Path(store_dir) / "data" / m).glob("*.parquet")):
                    parts.append(decode_chunk_table(pq.read_table(f)))
            parts = [p for p in parts if p.num_columns]
            rows = (
                pa.concat_tables(parts, promote_options="default")
                if parts
                else None
            )
            # cross-check against the members' manifests BEFORE any
            # deletion: a member with missing chunk files must fail the
            # group loudly (fsck territory), not silently compact the
            # surviving subset and then delete the evidence
            got = rows.num_rows if rows is not None else 0
            if got != expect_rows:
                raise RuntimeError(
                    f"compaction group {group}: decoded {got} rows but member "
                    f"manifests list {expect_rows} — store is inconsistent "
                    f"(run fsck); leaving members untouched"
                )
            if rows is None:  # expect_rows == 0: nothing to write
                for m in members:
                    _drop_shard(store_dir, m)
                (manifest.manifest_dir(store_dir) / f"{group}.members.json").unlink()
                out_rows.append(
                    {"group": group, "members": len(members), "rows": 0}
                )
                continue
            ChunkEncoder(
                output_dir=store_dir,
                rows_per_chunk=rows_per_chunk,
                skip_completed=False,
                compression=compression,
                bloom_columns=bloom_columns,
            ).encode_shard(rows, group)
            for m in members:
                _drop_shard(store_dir, m)
            (manifest.manifest_dir(store_dir) / f"{group}.members.json").unlink()
            out_rows.append(
                {"group": group, "members": len(members), "rows": rows.num_rows}
            )
        return pa.Table.from_pylist(
            out_rows,
            schema=pa.schema(
                [("group", pa.string()), ("members", pa.int64()), ("rows", pa.int64())]
            ),
        )

    ds = ray.data.from_items(plan, override_num_blocks=len(plan))
    res = ds.map_batches(
        compact_group, batch_format="pyarrow", batch_size=None
    ).to_pandas()
    return {
        "groups": len(res),
        "shards_removed": int(res["members"].sum()) + recovered,
        "rows": int(res["rows"].sum()),
    }
