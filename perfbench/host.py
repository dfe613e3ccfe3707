"""Host facts and process measurements for the benchmark record."""

from __future__ import annotations

import hashlib
import os
import statistics
import subprocess
import threading
import time
from pathlib import Path

import numpy as np


def _cmdline(pid: int) -> str:
    try:
        return Path(f"/proc/{pid}/cmdline").read_bytes().replace(b"\0", b" ").decode(errors="replace")
    except OSError:
        return ""


def raylet_running() -> bool:
    for p in Path("/proc").iterdir():
        if p.name.isdigit():
            try:
                if (p / "comm").read_text().strip() == "raylet":
                    return True
            except OSError:
                pass
    return False


def _children() -> dict[int, list[int]]:
    kids: dict[int, list[int]] = {}
    for p in Path("/proc").iterdir():
        if p.name.isdigit():
            try:
                ppid = int((p / "stat").read_text().rsplit(")", 1)[1].split()[1])
            except (OSError, IndexError, ValueError):
                continue
            kids.setdefault(ppid, []).append(int(p.name))
    return kids


def ray_workers(root: int) -> list[int]:
    """Ray worker processes started under this process's Ray session."""
    kids, out, todo = _children(), [], [root]
    while todo:
        pid = todo.pop()
        for c in kids.get(pid, ()):
            todo.append(c)
            cmd = _cmdline(c)
            if cmd.startswith("ray::") or "default_worker.py" in cmd:
                out.append(c)
    return out


def _hwm_kb(pid: int) -> int | None:
    try:
        for line in Path(f"/proc/{pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    except OSError:
        return None
    return None


def _reset_hwm(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/clear_refs", "w") as f:
            f.write("5")
        return True
    except OSError:
        return False


class PeakRss:
    """Peak resident memory of the main process plus its Ray workers.

    ``start`` resets each process's high-water mark (``clear_refs`` 5); a
    poller then keeps the largest ``VmHWM`` seen per process, so workers
    that exit during the run still count. The peak is the sum of those
    per-process marks, in MB."""

    INTERVAL_S = 0.2

    def __init__(self):
        self.me = os.getpid()
        self._peak: dict[int, int] = {}
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    def _pids(self) -> list[int]:
        return [self.me, *ray_workers(self.me)]

    def _poll(self) -> None:
        for pid in self._pids():
            kb = _hwm_kb(pid)
            if kb is not None and kb > self._peak.get(pid, 0):
                self._peak[pid] = kb

    def _loop(self) -> None:
        while not self._stop.wait(self.INTERVAL_S):
            self._poll()

    def start(self) -> bool:
        """Reset the marks and start polling; False if some mark could not
        be reset, so the peak may include memory used before the run."""
        reset = all([_reset_hwm(pid) for pid in self._pids()])
        self._thread = threading.Thread(target=self._loop, daemon=True)
        self._thread.start()
        return reset

    def stop(self) -> float:
        self._stop.set()
        self._thread.join()
        self._poll()
        return sum(self._peak.values()) / 1024.0


def calibration_ms() -> float:
    """Median time of a fixed CPU and memory workload (sort 2M int64,
    sha256 over 16 MB), so records from different hosts can be scaled."""
    rng = np.random.default_rng(12345)
    keys = rng.integers(0, 1 << 62, size=2_000_000)
    blob = rng.bytes(16 << 20)
    times = []
    for _ in range(5):
        t0 = time.perf_counter()
        np.sort(keys, kind="quicksort")
        hashlib.sha256(blob).digest()
        times.append(time.perf_counter() - t0)
    return statistics.median(times) * 1e3


def native_status() -> dict[str, bool]:
    """Whether each C kernel of the codecs package loads (a False means
    the codec runs its numpy fallback)."""
    from parquet_go_ray.codecs import fsst, native

    out = {}
    for src in sorted(Path(native.__file__).parent.glob("_*_native.c")):
        lib = fsst._native() if src.name == "_fsst_native.c" else native.load(src.name)
        out[src.name] = lib is not None
    return out


def nproc() -> int:
    """What ``nproc`` prints: the CPUs this process may use, lowered by
    ``OMP_NUM_THREADS`` where that is set."""
    try:
        return int(subprocess.run(["nproc"], capture_output=True, text=True, check=True).stdout)
    except (OSError, subprocess.CalledProcessError, ValueError):
        return len(os.sched_getaffinity(0))


def record() -> dict:
    import pyarrow
    import ray

    return {
        "nproc": nproc(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "ray": ray.__version__,
        "pyarrow": pyarrow.__version__,
        "numpy": np.__version__,
        "native": native_status(),
        "calibration_ms": round(calibration_ms(), 3),
    }
