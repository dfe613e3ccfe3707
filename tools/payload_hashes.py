"""Byte-identity check for codec edits: SHA-256 of the chunk payloads
that `stages.encode.encode_table` writes for perfbench's generated input.

For seeds 21 and 11 it encodes 24 chunks of
`perfbench.gen.generate_shard(seed, i, 4096)` twice: cold (no selection
plan, so every chunk selects and trains on its own) and warm (one plan
filled from chunk 0 and read by all 24 chunks, as in one
`ChunkEncoder.encode_shard` call). The settings are fixed
so that two trees are always hashed alike. It prints one line per seed
and mode with one SHA-256 over all payloads in order, their byte count
and the codec of each column. A codec, selector or tokenizer edit that
should not move the bytes must print the same lines as the parent
commit:

    python tools/payload_hashes.py                      # this checkout
    python tools/payload_hashes.py --repo ../parent     # another checkout

`--repo` imports `parquet_go_ray` and `perfbench` from that checkout, so
one copy of this script can hash a tree that predates it. The cold lines
print first; the warm lines need a tree whose `encode_table` takes
`plan=`.
"""

from __future__ import annotations

import argparse
import collections
import hashlib
import sys
from pathlib import Path

SEEDS = (21, 11)
CHUNKS = 24
ROWS = 4096


def hash_payloads(seed: int, warm: bool) -> dict:
    from parquet_go_ray.stages.encode import encode_table
    from perfbench import gen

    h = hashlib.sha256()
    nbytes = 0
    codecs = collections.Counter()
    plan: dict = {}
    for i in range(CHUNKS):
        shard = gen.generate_shard(seed, i, ROWS)
        chunks = encode_table(shard, plan=plan) if warm else encode_table(shard)
        for column, codec, payload in zip(
            chunks.column("column").to_pylist(),
            chunks.column("codec").to_pylist(),
            chunks.column("payload").to_pylist(),
        ):
            h.update(payload)
            nbytes += len(payload)
            codecs[f"{column}:{codec}"] += 1
    return {"sha256": h.hexdigest(), "bytes": nbytes, "codecs": dict(sorted(codecs.items()))}


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--repo", default=str(Path(__file__).resolve().parents[1]))
    args = ap.parse_args()
    sys.path.insert(0, str(Path(args.repo).resolve()))
    for warm in (False, True):
        for seed in SEEDS:
            r = hash_payloads(seed, warm)
            mode = "warm" if warm else "cold"
            codecs = " ".join(f"{k}={v}" for k, v in r["codecs"].items())
            print(f"seed {seed} {mode} {CHUNKS}x{ROWS}: {r['sha256']} {r['bytes']} bytes  {codecs}")


if __name__ == "__main__":
    main()
