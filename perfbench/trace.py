"""Spans around calls into the program's layers, recorded from outside.

``install`` replaces each traced name, in the module where its caller
looks it up, by a wrapper that records a span: name, start, end, parent
span, process id and a few attributes (the winning codec id, bytes
written). Spans stay in memory. In a Ray worker, ``worker_setup`` (run
through Ray's ``worker_process_setup_hook``) installs the same wrappers
and appends the worker's spans to ``<trace dir>/spans-<pid>.jsonl`` each
time one of its outermost spans (a task callable) ends.

``layers.compute`` turns the spans of one traced phase into the
per-layer metrics. A span's self time is its duration minus the time its
child spans cover. Times come from ``time.monotonic_ns``, one clock for
every process on the host, so worker spans are attributed to the main
process's operation whose interval contains them.
"""

from __future__ import annotations

import bisect
import functools
import importlib
import json
import os
import threading
import time
from collections import defaultdict
from pathlib import Path

ENV_DIR = "PERFBENCH_TRACE_DIR"

# (module, attribute, span name). Methods are patched on their class, so
# instances that Ray pickles into tasks pick the wrapper up by import.
TARGETS = (
    ("parquet_go_ray.codecs.selector", "select", "codecs.select"),
    ("parquet_go_ray.codecs.chunk", "encode_array", "codecs.encode_array"),
    ("parquet_go_ray.codecs.chunk", "decode_array", "codecs.decode_array"),
    ("parquet_go_ray.codecs.parquet_wire", "_select_encoding", "codecs.wire.select_encoding"),
    ("parquet_go_ray.codecs.parquet_wire", "write_table", "codecs.wire.write_table"),
    ("parquet_go_ray.stages.encode", "encode_table", "stages.encode_table"),
    ("parquet_go_ray.stages.encode", "write_chunk_file", "stages.write_chunk_file"),
    ("parquet_go_ray.stages.encode", "ChunkEncoder.__call__", "stages.chunk_encoder"),
    ("parquet_go_ray.stages.encode", "PathPlanEncoder.__call__", "stages.path_read"),
    ("parquet_go_ray.stages.decode", "decode_chunk_table", "stages.decode_chunk_table"),
    ("parquet_go_ray.stages.decode", "ChunkFileDecoder.__call__", "stages.chunk_file_read"),
    ("parquet_go_ray.state.manifest", "record_shard_table", "state.manifest.record_shard_table"),
    ("parquet_go_ray.pipelines.export", "_WireExporter.__call__", "pipelines.export.task"),
)

# The Ray task callable of each pipeline: the sum of its spans is the
# pipeline's task-busy time.
TASK_SPANS = {
    "pipelines.encode_job": "stages.path_read",
    "pipelines.decode": "stages.chunk_file_read",
    "pipelines.export": "pipelines.export.task",
}


def _attrs_encode_array(args, kwargs, out):
    return {"codec": out[4]}


def _attrs_decode_array(args, kwargs, out):
    return {"codec": (args[0] if args else kwargs["buf"])[4]}


def _attrs_encode_table(args, kwargs, out):
    cols = out.column("column").to_pylist()
    sizes = out.column("enc_nbytes").to_pylist()
    enc = defaultdict(int)
    for c, n in zip(cols, sizes):
        enc[c] += n
    return {"enc_bytes": dict(enc)}


def _attrs_write_chunk_file(args, kwargs, out):
    output_dir = args[1] if len(args) > 1 else kwargs["output_dir"]
    path = Path(output_dir, "data", out.column("shard")[0].as_py(), out.column("file")[0].as_py() + ".parquet")
    return {"bytes": path.stat().st_size}


ATTRS = {
    "codecs.encode_array": _attrs_encode_array,
    "codecs.decode_array": _attrs_decode_array,
    "stages.encode_table": _attrs_encode_table,
    "stages.write_chunk_file": _attrs_write_chunk_file,
}


class Tracer:
    """In-memory span recorder for one process. With ``sink`` set, the
    spans are appended to that file whenever an outermost span ends."""

    def __init__(self, sink: str | None = None):
        self.sink = sink
        self.spans: list[dict] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._next = 0
        self.pid = os.getpid()

    def _stack(self) -> list[int]:
        st = getattr(self._local, "stack", None)
        if st is None:
            st = self._local.stack = []
        return st

    def wrap(self, name: str, fn):
        attrs_of = ATTRS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            with self._lock:
                sid = self._next
                self._next += 1
            parent = stack[-1] if stack else None
            stack.append(sid)
            ok = False
            t0 = time.monotonic_ns()
            try:
                out = fn(*args, **kwargs)
                ok = True
                return out
            finally:
                t1 = time.monotonic_ns()
                stack.pop()
                span = {"id": sid, "parent": parent, "name": name, "pid": self.pid, "t0": t0, "t1": t1}
                if not ok:
                    span["error"] = True
                elif attrs_of is not None:
                    span.update(attrs_of(args, kwargs, out))
                with self._lock:
                    self.spans.append(span)
                if not stack and self.sink:
                    self.flush()

        traced.__wrapped_by_perfbench__ = True
        return traced

    def flush(self) -> None:
        with self._lock:
            spans, self.spans = self.spans, []
        if spans:
            with open(self.sink, "a") as f:
                f.write("".join(json.dumps(s) + "\n" for s in spans))


def install(tracer: Tracer) -> None:
    """Wrap every target name in this process."""
    for mod_name, attr, span in TARGETS:
        owner = importlib.import_module(mod_name)
        *path, leaf = attr.split(".")
        for part in path:
            owner = getattr(owner, part)
        fn = getattr(owner, leaf)
        if getattr(fn, "__wrapped_by_perfbench__", False):
            raise RuntimeError(f"{mod_name}.{attr} is already traced")
        setattr(owner, leaf, tracer.wrap(span, fn))


def worker_setup() -> None:
    """Ray ``worker_process_setup_hook``: trace this worker's calls."""
    install(Tracer(sink=str(Path(os.environ[ENV_DIR]) / f"spans-{os.getpid()}.jsonl")))


def load_spans(trace_dir: str | Path) -> list[dict]:
    spans = []
    for p in sorted(Path(trace_dir).glob("spans-*.jsonl")):
        with open(p) as f:
            spans.extend(json.loads(line) for line in f)
    return spans


def assign_requests(spans: list[dict], main_pid: int) -> None:
    """Label every span with the id of the main process's outermost span (one
    timed half of an operation) whose interval contains its start; worker
    spans are matched by time, the clock being shared by all processes."""
    roots = sorted((s["t0"], s["t1"], s["id"]) for s in spans if s["pid"] == main_pid and s["parent"] is None)
    starts = [r[0] for r in roots]
    for s in spans:
        i = bisect.bisect_right(starts, s["t0"]) - 1
        s["request"] = roots[i][2] if i >= 0 and s["t0"] <= roots[i][1] else None


def self_times(spans: list[dict]) -> dict[tuple[int, int], float]:
    """Seconds of each span not covered by its children, by (pid, id)."""
    child = defaultdict(int)
    for s in spans:
        if s["parent"] is not None:
            child[(s["pid"], s["parent"])] += s["t1"] - s["t0"]
    return {(s["pid"], s["id"]): (s["t1"] - s["t0"] - child[(s["pid"], s["id"])]) / 1e9 for s in spans}
