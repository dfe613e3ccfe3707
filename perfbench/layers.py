"""Per-layer metrics of a traced phase, computed from its spans.

Every value is per operation of the workload (one encode_job plus one
decode, one chunk, or one export plus its read-back), so runs that fit a
different number of operations into their time still compare. Layers a
workload does not reach read 0 (for example the Ray pipeline split on
``cold_chunks``).
"""

from __future__ import annotations

import statistics
from collections import defaultdict

from . import trace

# Codec ids that win on the F1 table; any other winner counts as "other".
CODECS = (
    "fsst",
    "dict",
    "dict_shared",
    "delta_binary_packed",
    "delta_length_byte_array",
    "delta_byte_array",
    "plain",
)
COLUMNS = ("url", "warc_ts", "html", "text", "lang")
PIPELINES = ("encode_job", "decode", "export")


def declared() -> list[tuple[str, str]]:
    """(name, unit) of every per-layer metric, in output order."""
    out = [
        ("codecs.select.calls", "count"),
        ("codecs.select.s", "s"),
        ("codecs.select.cache_hit_ratio", "ratio"),
        ("codecs.encode_array.calls", "count"),
    ]
    for c in CODECS + ("other",):
        out.append((f"codecs.encode_array.self_s.{c}", "s"))
    for c in CODECS + ("other",):
        out.append((f"codecs.decode_array.s.{c}", "s"))
    for c in CODECS + ("other",):
        out.append((f"codecs.codec_wins.{c}", "count"))
    out += [(f"codecs.enc_bytes.{c}", "bytes") for c in COLUMNS]
    out += [
        ("codecs.wire.select_encoding.calls", "count"),
        ("codecs.wire.select_encoding.s", "s"),
        ("codecs.wire.write_table.self_s", "s"),
        ("stages.encode_table.calls", "count"),
        ("stages.encode_table.self_s", "s"),
        ("stages.decode_chunk_table.calls", "count"),
        ("stages.decode_chunk_table.self_s", "s"),
        ("stages.path_read.s", "s"),
        ("stages.chunk_encoder.self_s", "s"),
        ("stages.chunk_file_read.s", "s"),
        ("stages.write_chunk_file.calls", "count"),
        ("stages.write_chunk_file.s", "s"),
        ("stages.write_chunk_file.bytes", "bytes"),
        ("state.manifest.record_shard_table.calls", "count"),
        ("state.manifest.record_shard_table.s", "s"),
    ]
    for p in PIPELINES:
        out += [
            (f"pipelines.{p}.wall_s", "s"),
            (f"pipelines.{p}.task_busy_s", "s"),
            (f"pipelines.{p}.overhead_s", "s"),
        ]
    out += [
        ("trace.spans", "count"),
        ("trace.untraced_op_s", "s"),
        ("trace.overhead_s", "s"),
        ("trace.overhead_pct", "%"),
    ]
    return out


def _codec_key(codec_id: int) -> str:
    from parquet_go_ray.codecs.registry import CODEC_NAMES

    name = CODEC_NAMES.get(codec_id, "other")
    return name if name in CODECS else "other"


def compute(spans: list[dict], ops: int, untraced_op_s: list[float], traced_op_s: list[float]) -> dict[str, float]:
    """Per-layer values (per operation) from the spans of ``ops`` traced
    operations, plus the tracing overhead: the median traced operation
    time minus the median untraced one."""
    selfs = trace.self_times(spans)
    calls = defaultdict(int)
    total = defaultdict(float)
    self_s = defaultdict(float)
    v = defaultdict(float)
    for s in spans:
        n, key = s["name"], (s["pid"], s["id"])
        dur = (s["t1"] - s["t0"]) / 1e9
        calls[n] += 1
        total[n] += dur
        self_s[n] += selfs[key]
        if n == "codecs.encode_array":
            c = _codec_key(s["codec"])
            v[f"codecs.encode_array.self_s.{c}"] += selfs[key]
            v[f"codecs.codec_wins.{c}"] += 1
        elif n == "codecs.decode_array":
            v[f"codecs.decode_array.s.{_codec_key(s['codec'])}"] += dur
        elif n == "stages.encode_table":
            for col, b in s["enc_bytes"].items():
                if col in COLUMNS:
                    v[f"codecs.enc_bytes.{col}"] += b
        elif n == "stages.write_chunk_file":
            v["stages.write_chunk_file.bytes"] += s["bytes"]

    v["codecs.select.calls"] = calls["codecs.select"]
    v["codecs.select.s"] = total["codecs.select"]
    v["codecs.encode_array.calls"] = calls["codecs.encode_array"]
    v["codecs.wire.select_encoding.calls"] = calls["codecs.wire.select_encoding"]
    v["codecs.wire.select_encoding.s"] = total["codecs.wire.select_encoding"]
    v["codecs.wire.write_table.self_s"] = self_s["codecs.wire.write_table"]
    for n in ("stages.encode_table", "stages.decode_chunk_table"):
        v[f"{n}.calls"] = calls[n]
        v[f"{n}.self_s"] = self_s[n]
    v["stages.path_read.s"] = self_s["stages.path_read"]
    v["stages.chunk_encoder.self_s"] = self_s["stages.chunk_encoder"]
    v["stages.chunk_file_read.s"] = self_s["stages.chunk_file_read"]
    v["stages.write_chunk_file.calls"] = calls["stages.write_chunk_file"]
    v["stages.write_chunk_file.s"] = total["stages.write_chunk_file"]
    n = "state.manifest.record_shard_table"
    v[f"{n}.calls"] = calls[n]
    v[f"{n}.s"] = total[n]
    for p in PIPELINES:
        wall = total[f"pipelines.{p}"]
        busy = total[trace.TASK_SPANS[f"pipelines.{p}"]]
        v[f"pipelines.{p}.wall_s"] = wall
        v[f"pipelines.{p}.task_busy_s"] = busy
        v[f"pipelines.{p}.overhead_s"] = wall - busy
    v["trace.spans"] = len(spans)

    out = {name: v[name] / ops for name, _ in declared() if not name.startswith(("trace.", "codecs.select.cache"))}
    encodes = calls["codecs.encode_array"]
    out["codecs.select.cache_hit_ratio"] = 1 - calls["codecs.select"] / encodes if encodes else 0.0
    out["trace.spans"] = len(spans) / ops
    base = statistics.median(untraced_op_s)
    out["trace.untraced_op_s"] = base
    out["trace.overhead_s"] = statistics.median(traced_op_s) - base
    out["trace.overhead_pct"] = 100 * out["trace.overhead_s"] / base
    return out
