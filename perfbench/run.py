"""Benchmark entry point.

    python3 perfbench/run.py --workload store_roundtrip --seed 1 --seconds 15 --trace 0

Run from the root of a source checkout. The last line of standard output
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; the line before it is the run record (host facts, sample
counts, errors). ``--trace 0`` reports the end-to-end metrics, measured
with no tracing. ``--trace 1`` repeats the same number of operations
with spans recorded in the main process and in every Ray worker and reports
the per-layer metrics, including the tracing overhead.
``--planted-faults`` runs one good operation and one whose output was
corrupted before it is checked; the corrupted one must count as failed.

Everything the run writes stays inside the checkout: inputs and stores
under ``.bench_run/`` (removed at the end), compiled kernels under
``$CARGO_TARGET_DIR`` (default ``.bench_build``), and the full record
plus the spans of traced runs under ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench import gen, host, layers, trace  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402

OBJECT_STORE_BYTES = 400 << 20
MAX_SOCKET_PATH = 107  # AF_UNIX limit that Ray checks for its sockets
RAY_SOCKET_SUFFIX = len("/session_2026-01-01_00-00-00_000000_0000000/sockets/plasma_store")

_PROBE = """
import sys, time
sys.path.insert(0, sys.argv[1])
t0 = time.perf_counter()
import importlib
for m in sys.argv[2:]:
    importlib.import_module(m)
from perfbench import host
host.native_status()
print(time.perf_counter() - t0)
"""


def import_seconds(modules: tuple[str, ...]) -> float:
    """Seconds a fresh interpreter takes to import the program modules a
    workload uses and load its C kernels (compiling them on first use)."""
    out = subprocess.run(
        [sys.executable, "-c", _PROBE, str(ROOT), *modules],
        check=True, capture_output=True, text=True, timeout=600,
    ).stdout
    return float(out)


class RaySession:
    """One local Ray cluster sized to ``nproc``, its temp files inside the
    checkout when Ray's socket paths fit there."""

    def __init__(self, run_root: Path):
        temp = run_root / "ray"
        if len(str(temp)) + RAY_SOCKET_SUFFIX > MAX_SOCKET_PATH:
            # the checkout path is too long for Ray's unix sockets
            temp = Path(tempfile.mkdtemp(prefix="pbray"))
        self.temp = temp

    def start(self, trace_dir: Path | None = None) -> None:
        import ray
        from ray.data import DataContext

        from parquet_go_ray.tuning import apply_data_context_tuning

        kwargs = {}
        if trace_dir is not None:
            kwargs["runtime_env"] = {
                "worker_process_setup_hook": "perfbench.trace.worker_setup",
                "env_vars": {trace.ENV_DIR: str(trace_dir)},
            }
        ray.init(
            num_cpus=host.nproc(),
            object_store_memory=OBJECT_STORE_BYTES,
            include_dashboard=False,
            logging_level="ERROR",
            log_to_driver=False,
            _temp_dir=str(self.temp),
            **kwargs,
        )
        ctx = DataContext.get_current()
        ctx.enable_progress_bars = False
        ctx.execution_options.verbose_progress = False
        apply_data_context_tuning(ctx)

    @staticmethod
    def stop() -> None:
        import ray

        if ray.is_initialized():
            ray.shutdown()

    def remove(self) -> None:
        self.stop()
        shutil.rmtree(self.temp, ignore_errors=True)


def _describe(exc: Exception) -> str:
    """Exception type and the line of its message that names the cause:
    a Ray task error carries the remote traceback, whose first
    ``SomeError: ...`` line is the exception raised in the task."""
    lines = [ln.strip() for ln in str(exc).strip().splitlines()] or [""]
    causes = [ln for ln in lines if re.match(r"[\w.]*(Error|Exception): ", ln)]
    return f"{type(exc).__name__}: {(causes or lines[-1:])[0]}"[:400]


def run_ops(wl, count: int | None, seconds: float, deadline: float) -> dict:
    """Run operations until ``seconds`` of timed work and the workload's
    minimum sample count are reached (or exactly ``count`` operations)."""
    ops, errors = [], []
    attempted = failed = consecutive = 0
    busy = 0.0
    while time.monotonic() < deadline:
        if count is not None:
            if attempted >= count:
                break
        elif busy >= seconds and len(ops) >= wl.min_ops:
            break
        attempted += 1
        t0 = time.perf_counter()
        try:
            art, enc_s = wl.produce()
            try:
                dec_s = wl.consume(art)
                stored = wl.stored_bytes(art)
            finally:
                wl.discard(art)
        except Exception as exc:  # a failed operation is counted, not fatal
            failed += 1
            consecutive += 1
            errors.append(_describe(exc))
            busy += time.perf_counter() - t0
            if consecutive >= 3:
                break
            continue
        consecutive = 0
        busy += enc_s + dec_s
        ops.append({"enc_s": enc_s, "dec_s": dec_s, "raw": wl.raw_bytes, "stored": stored})
    return {"ops": ops, "attempted": attempted, "failed": failed, "errors": errors}


def end_to_end(ops: list[dict], setup: list[float], peak_rss_mb: float) -> dict:
    """The gated metrics. Throughputs are total bytes over total time,
    which on a host whose speed drifts spreads less from run to run than
    a per-operation median does."""
    raw = sum(o["raw"] for o in ops)
    return {
        "setup_s": (statistics.median(setup), "s"),
        "encode_mb_s": (raw / sum(o["enc_s"] for o in ops) / 1e6, "MB/s"),
        "decode_mb_s": (raw / sum(o["dec_s"] for o in ops) / 1e6, "MB/s"),
        "bytes_ratio": (sum(o["stored"] for o in ops) / raw, "ratio"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


def latencies(ops: list[dict]) -> dict:
    """Per-operation times for the run record: median and p75 of encode,
    median of decode, with the sample count."""
    enc = [o["enc_s"] * 1e3 for o in ops]
    dec = [o["dec_s"] * 1e3 for o in ops]
    return {
        "samples": len(ops),
        "encode_ms_p50": statistics.median(enc),
        "encode_ms_p75": statistics.quantiles(enc, n=4, method="inclusive")[2] if len(enc) > 1 else enc[0],
        "decode_ms_p50": statistics.median(dec),
    }


def planted_fault(wl) -> dict:
    """One operation whose output is corrupted before the check."""
    art, _ = wl.produce()
    try:
        art, what = wl.corrupt(art)
        try:
            wl.consume(art)
        except Exception as exc:
            return {"planted": what, "failed": True, "error": _describe(exc)}
        return {"planted": what, "failed": False, "error": None}
    finally:
        wl.discard(art)


def measure_setup(wl, session: RaySession | None) -> list[float]:
    """Set-up times: each is a fresh interpreter's import and kernel load,
    plus, for Ray workloads, a new Ray session and a warm-up job. The last
    session stays up for the measurement."""
    setup = []
    for i in range(wl.setup_repeats):
        sec = import_seconds(wl.imports)
        if session is not None:
            session.stop()
            t0 = time.perf_counter()
            session.start()
            wl.warmup()
            sec += time.perf_counter() - t0
        elif i == 0:
            wl.warmup()
        setup.append(sec)
    return setup


def traced_phase(wl, session: RaySession | None, run_dir: Path, untraced: list[dict], seconds: float):
    """Repeat the untraced run's operation count with spans recorded in
    the main process and, through a new Ray session, in every worker. Returns
    the run_ops summary, the spans and the per-layer values."""
    tdir = run_dir / "spans"
    tdir.mkdir()
    tracer = trace.Tracer()
    if session is not None:
        session.stop()
        session.start(trace_dir=tdir)
    trace.install(tracer)
    wl.tracer = tracer
    wl.warmup()
    tracer.spans.clear()
    for p in tdir.glob("*"):
        p.unlink()
    t = run_ops(wl, len(untraced), 0, time.monotonic() + 3 * seconds + 60)
    spans = tracer.spans + trace.load_spans(tdir)
    trace.assign_requests(spans, os.getpid())
    values = None
    if t["ops"]:
        values = layers.compute(
            spans,
            len(t["ops"]),
            [o["enc_s"] + o["dec_s"] for o in untraced],
            [o["enc_s"] + o["dec_s"] for o in t["ops"]],
        )
    return t, spans, values


def bench(args, run_root: Path, out_dir: Path) -> tuple[dict, dict]:
    cls = WORKLOADS[args.workload]
    run_dir = run_root / f"{args.workload}-{args.seed}-{os.getpid()}"
    run_dir.mkdir(parents=True)
    gen.self_check()
    detail: dict = {"workload": args.workload, "seed": args.seed, "trace": args.trace}

    import_seconds(cls.imports)  # compiles the C kernels on a fresh checkout
    wl = cls(run_dir / "data", args.seed)
    detail["host"] = host.record()

    session = RaySession(run_root) if cls.uses_ray else None
    try:
        setup = measure_setup(wl, session)
        detail["setup_s"] = setup

        if args.planted_faults:
            good = run_ops(wl, 1, 0, time.monotonic() + 120)
            fault = planted_fault(wl)
            detail.update(good_op=good, fault=fault)
            result = {
                "correct": good["failed"] == 0 and fault["failed"],
                "attempted": 2,
                "failed": good["failed"] + int(fault["failed"]),
                "metrics": {"planted_faults_counted": {"value": int(fault["failed"]), "unit": "count"}},
            }
            return result, detail

        rss = host.PeakRss()
        detail["rss_reset"] = rss.start()
        m = run_ops(wl, None, args.seconds, time.monotonic() + 2.5 * args.seconds + 30)
        peak = rss.stop()
        ops = m["ops"]
        detail.update(samples=len(ops), errors=m["errors"], ops=ops)
        correct = m["failed"] == 0 and len(ops) > 0
        attempted, failed = m["attempted"], m["failed"]
        metrics = {}
        if ops and not args.trace:
            metrics = end_to_end(ops, setup, peak)
            detail["latency"] = latencies(ops)
        elif ops:
            t, spans, values = traced_phase(wl, session, run_dir, ops, args.seconds)
            missing = sorted({*cls.spans} - {s["name"] for s in spans})
            detail.update(traced_samples=len(t["ops"]), traced_errors=t["errors"], spans_missing=missing)
            correct = correct and t["failed"] == 0 and not missing and values is not None
            attempted += t["attempted"]
            failed += t["failed"]
            if values is not None:
                metrics = {n: (values[n], u) for n, u in layers.declared()}
            with open(out_dir / f"spans-{args.workload}-seed{args.seed}.jsonl", "w") as f:
                f.write("".join(json.dumps(s) + "\n" for s in spans))
        result = {
            "correct": bool(correct),
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }
        return result, detail
    finally:
        if session is not None:
            session.remove()
        shutil.rmtree(run_dir, ignore_errors=True)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=15)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--planted-faults", action="store_true")
    args = p.parse_args(argv)

    if not (ROOT / "parquet_go_ray" / "__init__.py").is_file():
        print(f"no program sources under {ROOT}: run from a full checkout", file=sys.stderr)
        return 2
    if host.raylet_running():
        print("a raylet is already running on this host; stop it (ray stop) first", file=sys.stderr)
        return 2

    build = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    build = build if build.is_absolute() else ROOT / build
    os.environ["XDG_CACHE_HOME"] = str(build / "cache")
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT)] + [x for x in os.environ.get("PYTHONPATH", "").split(os.pathsep) if x]
    )
    run_root = ROOT / ".bench_run"
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)

    result, detail = bench(args, run_root, out_dir)
    with open(out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as f:
        json.dump({"result": result, "detail": detail}, f, indent=1)
    detail.pop("ops", None)
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:
        traceback.print_exc()
        sys.exit(1)
