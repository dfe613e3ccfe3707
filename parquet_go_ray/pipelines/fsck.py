"""Store consistency check (`fsck`): manifests vs data files vs CRCs.

The operational counterpart of the reference's file validation
(file.go's page checksum verification at read time, file_test.go's
corrupted-file cases): a resumable/compactable store accumulates state
across many task commits and crash windows, so operators need a cheap
way to answer "is this store internally consistent, and are its bytes
intact?" without running a full decode-verify against the source.

Three severity tiers:
- errors:   missing chunk files, chunk-record CRC mismatches, chunk
            payloads that fail to decode, format-version mismatches
- warnings: orphan data files no manifest references (stale partial
            runs — ignored by reads, but wasted bytes), leftover
            compaction intent logs (an interrupted compact_store run;
            the next run recovers them)
- info:     shard/chunk/row/byte totals

The per-shard payload scan is a Ray `map_batches` over manifest-listed
chunk files (one task per file, no shuffle); the driver only reads the
columnar lineage manifest (thin projected columns, falling back to
per-shard JSON for json-only stores). `deep=False` skips payload
decodes and just cross-checks structure + stored CRCs against the file
bytes.
"""

from __future__ import annotations

from pathlib import Path

import pyarrow as pa
import pyarrow.parquet as pq

import ray
import ray.data

from ..state import manifest


def fsck_store(store_dir: str, deep: bool = True) -> dict:
    """Check the store; returns {ok, errors, warnings, info}."""
    errors: list[str] = []
    warnings: list[str] = []

    try:
        manifest.check_format_version(store_dir, "fsck")
    except Exception as e:
        errors.append(str(e))

    data_root = Path(store_dir) / "data"
    referenced: set[str] = set()
    n_shards = n_chunks = n_rows = n_bytes = 0
    targets = []
    MAX_DETAIL = 1000
    suppressed = [0]

    def report(msg: str) -> None:
        # cap driver-side detail (a store with 10^6 lost files must not
        # build 10^6 strings); the suppressed count is kept exact
        if len(errors) < MAX_DETAIL:
            errors.append(msg)
        else:
            suppressed[0] += 1

    covered: set[str] = set()
    lt = manifest.lineage_table(
        store_dir,
        columns=["shard", "file", "codec", "col_idx", "n", "enc_nbytes"],
    )
    if lt is not None and lt.num_rows:
        # columnar manifest scan (thin columns, not per-shard JSON)
        df = lt.to_pandas()
        n_chunks += int((df["codec"] != "dict_page").sum())
        n_rows += int(df.loc[df["col_idx"] == 0, "n"].sum())
        n_bytes += int(df["enc_nbytes"].sum())
        n_shards += df["shard"].nunique()
        covered = set(df["shard"].unique())
        for (shard, fname), g in df.groupby(["shard", "file"], sort=False):
            rel = f"{shard}/{fname}.parquet"
            referenced.add(rel)
            path = data_root / rel
            if not path.exists():
                report(f"missing chunk file {rel} ({len(g)} records)")
                continue
            targets.append(
                {
                    "path": str(path),
                    "shard": shard,
                    "expect": int((g["codec"] != "dict_page").sum()),
                }
            )
    # json-only shards (legacy/mixed stores) — merged, not either/or
    for name in sorted(manifest.completed_shards(store_dir) - covered):
        m = manifest.load_shard(store_dir, name)
        shard = m["shard"]
        n_shards += 1
        n_rows += m.get("rows", 0)
        files: dict = {}
        for r in m.get("records", []):
            if r["codec"] != "dict_page":
                n_chunks += 1
            n_bytes += r.get("enc_nbytes", 0)
            files.setdefault(r["file"], []).append(r)
        for fname, recs in files.items():
            rel = f"{shard}/{fname}.parquet"
            referenced.add(rel)
            path = data_root / rel
            if not path.exists():
                report(f"missing chunk file {rel} ({len(recs)} records)")
                continue
            targets.append(
                {
                    "path": str(path),
                    "shard": shard,
                    "expect": len(
                        [r for r in recs if r["codec"] != "dict_page"]
                    ),
                }
            )

    on_disk = {
        str(p.relative_to(data_root))
        for p in data_root.glob("*/*.parquet")
    } if data_root.exists() else set()
    for orphan in sorted(on_disk - referenced):
        warnings.append(f"orphan data file {orphan} (no manifest references it)")
    for intent in sorted(manifest.manifest_dir(store_dir).glob("*.members.json")):
        warnings.append(
            f"leftover compaction intent {intent.name} (run compact_store to recover)"
        )

    if targets:
        def check_file(batch: pa.Table) -> pa.Table:
            from ..codecs import chunk as chunk_mod

            out = []
            for path, shard, expect in zip(
                batch.column("path").to_pylist(),
                batch.column("shard").to_pylist(),
                batch.column("expect").to_pylist(),
            ):
                errs = []
                try:
                    t = pq.read_table(path)
                    seen = 0
                    for cid, col, codec, crc, payload in zip(
                        t.column("chunk_id").to_pylist(),
                        t.column("column").to_pylist(),
                        t.column("codec").to_pylist(),
                        t.column("crc32").to_pylist(),
                        t.column("payload").to_pylist(),
                    ):
                        if codec != "dict_page":
                            seen += 1
                        if not chunk_mod.blob_intact(payload, crc):
                            errs.append(
                                f"{shard}: crc mismatch chunk {cid} column {col}"
                            )
                        elif deep and codec not in ("dict_shared",):
                            # dict_shared needs its file's dict page;
                            # full resolution is the decode path's job
                            try:
                                chunk_mod.decode_array(payload)
                            except Exception as e:
                                errs.append(
                                    f"{shard}: undecodable chunk {cid} "
                                    f"column {col}: {e}"
                                )
                    if seen != expect:
                        errs.append(
                            f"{shard}: {Path(path).name} holds {seen} chunk "
                            f"records, manifest lists {expect}"
                        )
                except Exception as e:
                    errs.append(f"{shard}: unreadable {Path(path).name}: {e}")
                out.append({"errs": errs})
            return pa.Table.from_pylist(
                out, schema=pa.schema([("errs", pa.list_(pa.string()))])
            )

        ds = ray.data.from_items(targets, override_num_blocks=len(targets))
        res = ds.map_batches(
            check_file, batch_format="pyarrow", batch_size=None
        ).to_pandas()
        # same driver-side detail cap as the planning phase
        for errs in res["errs"]:
            for e in errs:
                report(e)

    if suppressed[0]:
        errors.append(f"... and {suppressed[0]} more errors (detail capped)")
    return {
        "ok": not errors,
        "errors": errors,
        "warnings": warnings,
        "info": {
            "shards": n_shards,
            "chunks": n_chunks,
            "rows": n_rows,
            "enc_bytes": n_bytes,
        },
    }
