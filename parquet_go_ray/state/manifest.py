"""Per-partition lineage records + checkpoint manifest.

The north rule requires every partition to emit lineage (input chunk id,
codec chosen, compressed bytes, checksum) to a checkpoint store so an
interrupted job resumes mid-table. Layout:

    {output_dir}/
      data/{shard_stem}/{chunk_id}.parquet   # encoded chunk files
      _manifest/{shard_stem}.json            # written AFTER a shard's
                                             # chunks are all durable
      _manifest/_job.json                    # job-level config snapshot

A shard with a manifest file is complete; resume skips it. Manifest
writes are atomic (tmp + rename). Chunk files are idempotent: retries
rewrite the same content under the same id.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path


def manifest_dir(output_dir: str) -> Path:
    return Path(output_dir) / "_manifest"


def data_dir(output_dir: str) -> Path:
    return Path(output_dir) / "data"


def completed_shards(output_dir: str) -> set[str]:
    d = manifest_dir(output_dir)
    if not d.exists():
        return set()
    return {
        p.stem
        for p in d.glob("*.json")
        # skip job meta and compaction intent logs (<group>.members.json)
        if not p.name.startswith("_") and not p.name.endswith(".members.json")
    }


def record_shard_table(output_dir: str, shard: str, lineage) -> None:
    """record_shard over an Arrow lineage table (the in-task commit path:
    the encode task that owns a whole shard writes the manifest itself —
    no lineage shuffle anywhere in the job)."""
    record_shard(output_dir, shard, lineage.to_pylist())


def record_shard(output_dir: str, shard: str, records: list[dict]) -> None:
    """Atomically persist a completed shard's lineage records — JSON for
    humans/resume plus a parquet twin so pruning over huge manifests can
    use column projection + predicate pushdown instead of JSON parsing
    (at 10^12 docs the manifest itself is a queryable table)."""
    d = manifest_dir(output_dir)
    d.mkdir(parents=True, exist_ok=True)
    payload = {
        "shard": shard,
        "completed_at": time.time(),
        "n_chunks": len({r["chunk_id"] for r in records}),
        "rows": sum(r["n"] for r in records if r.get("col_idx") == 0),
        "records": records,
    }
    import pyarrow as pa
    import pyarrow.parquet as pq

    ptmp = d / f".{shard}.parquet.tmp"
    pq.write_table(pa.Table.from_pylist(records), ptmp)
    os.replace(ptmp, d / f"{shard}.parquet")
    tmp = d / f".{shard}.json.tmp"
    tmp.write_text(json.dumps(payload))
    os.replace(tmp, d / f"{shard}.json")


def _half_rewritten(d: Path) -> set[str]:
    """Shards whose parquet twin a reader must not see because a rewrite
    (compaction, purge, generation fold) crashed between its steps: the
    members of an intent log `<g>.members.json` once `<g>.json` is
    committed (their rows now live in `g`), and `g` itself while it is
    not (its twin may be written, its commit marker is not)."""
    hidden: set[str] = set()
    for p in d.glob("*.members.json"):
        group = p.name[: -len(".members.json")]
        if (d / f"{group}.json").exists():
            try:
                hidden.update(json.loads(p.read_text()))
            except FileNotFoundError:  # the rewrite finished meanwhile
                pass
        else:
            hidden.add(group)
    return hidden


def lineage_files(output_dir: str) -> list[Path]:
    """The parquet lineage twins a reader may trust, sorted: every
    committed shard's, none of a half-finished rewrite's. (A rewrite
    that commits while this runs can still be seen torn; only an
    ordered commit log closes that window.)"""
    d = manifest_dir(output_dir)
    files = sorted(p for p in d.glob("*.parquet") if not p.name.startswith("."))
    hidden = _half_rewritten(d)
    return [p for p in files if p.stem not in hidden]


def lineage_table(
    output_dir: str,
    columns: list[str] | None = None,
    filters=None,
):
    """All lineage records as one Arrow table (column-pruned, optionally
    row-filtered read of the parquet manifests — at 10^12 docs the
    manifest is itself a queryable table and predicate pushdown keeps
    only matching rows in memory)."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    tables = [
        pq.read_table(f, columns=columns, filters=filters)
        for f in lineage_files(output_dir)
    ]
    return pa.concat_tables(tables) if tables else None


def shard_file_map(
    output_dir: str, shards=None
) -> dict[str, list[str]]:
    """shard -> sorted absolute chunk-file paths, from the MANIFEST
    lineage — never from a directory glob. Rewrites (purge / compact)
    must fold in exactly the files a shard's commit recorded: a crashed
    task that wrote its data file but died before record_shard leaves
    an orphan in the shard dir, and a glob would resurrect it as
    duplicate rows while every manifest-driven reader correctly
    ignores it (fsck reaps orphans separately)."""
    from pathlib import Path

    wanted = set(shards) if shards is not None else None
    t = lineage_table(output_dir, columns=["shard", "file"])
    root = Path(output_dir) / "data"
    out: dict[str, set] = {}
    if t is not None:
        for s, f in zip(
            t.column("shard").to_pylist(), t.column("file").to_pylist()
        ):
            if wanted is not None and s not in wanted:
                continue
            out.setdefault(s, set()).add(str(root / s / f"{f}.parquet"))
    # legacy/json-only manifests have no parquet twin: fall back to the
    # shard's recorded JSON lineage before ever touching the filesystem
    missing = (wanted or set()) - set(out)
    if missing:
        missing -= _half_rewritten(manifest_dir(output_dir))
    for s in missing:
        p = manifest_dir(output_dir) / f"{s}.json"
        if p.exists():
            recs = json.loads(p.read_text())["records"]
            out[s] = {str(root / s / f"{r['file']}.parquet") for r in recs}
    return {s: sorted(fs) for s, fs in out.items()}


def load_shard(output_dir: str, shard: str) -> dict:
    return json.loads((manifest_dir(output_dir) / f"{shard}.json").read_text())


def load_all(output_dir: str) -> list[dict]:
    return [load_shard(output_dir, s) for s in sorted(completed_shards(output_dir))]


def write_job_meta(output_dir: str, meta: dict) -> None:
    d = manifest_dir(output_dir)
    d.mkdir(parents=True, exist_ok=True)
    tmp = d / "._job.json.tmp"
    tmp.write_text(json.dumps(meta))
    os.replace(tmp, d / "_job.json")


def load_job_meta(output_dir: str) -> dict | None:
    p = manifest_dir(output_dir) / "_job.json"
    if not p.exists():
        return None
    return json.loads(p.read_text())


def check_format_version(output_dir: str, context: str) -> None:
    """Refuse to mix chunk files written at a different FORMAT_VERSION
    into one store: a resumed or decoded store must match the running
    build (the chunk CRC covers encoded bytes, so a mis-versioned decode
    can pass the checksum yet misdecode — e.g. the v5->v6 delta-framing
    change)."""
    from ..codecs.registry import FORMAT_VERSION

    meta = load_job_meta(output_dir)
    if meta is None:
        return
    stored = meta.get("format_version")
    if stored is not None and stored != FORMAT_VERSION:
        raise ValueError(
            f"cannot {context} store {output_dir!r}: written at chunk format "
            f"version {stored}, this build is version {FORMAT_VERSION} — "
            f"re-encode into a fresh output dir"
        )


def codec_histogram(output_dir: str) -> dict[str, int]:
    """codec name -> chunk-column count, aggregated over all manifests."""
    hist: dict[str, int] = {}
    for m in load_all(output_dir):
        for r in m["records"]:
            hist[r["codec"]] = hist.get(r["codec"], 0) + 1
    return hist
