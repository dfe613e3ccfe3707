"""Generic loader for the optional C hot-loop kernels.

Compiles a sibling .c file once per host with the system cc into a
per-user 0700 cache dir (sha-keyed by source, so edits recompile) and
dlopens it. Every kernel has a pure-numpy/Python fallback, several times
slower, so a kernel that does not load is not silent: its error is kept
per source file (``_ERRORS``) and the first one in a process raises a
RuntimeWarning naming the file and the tail of cc's stderr.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import subprocess
import warnings
from pathlib import Path

_LIBS: dict[str, object] = {}
_ERRORS: dict[str, str] = {}  # source file -> why it did not load
_WARNED = False


def _cache_dir() -> Path:
    base = Path(
        os.environ.get("XDG_CACHE_HOME", str(Path.home() / ".cache"))
    ) / "pgr_native"
    base.mkdir(parents=True, exist_ok=True, mode=0o700)
    st = base.stat()
    if st.st_uid != os.getuid() or (st.st_mode & 0o077):
        import tempfile

        base = Path(tempfile.mkdtemp(prefix="pgr_native_"))
    return base


def load(src_filename: str):
    """CDLL for the given sibling C source, or None if unavailable.
    Cached per process; never dlopens a file owned by another uid."""
    if src_filename in _LIBS:
        lib = _LIBS[src_filename]
        return lib or None
    lib = None
    try:
        src = Path(__file__).with_name(src_filename)
        key = hashlib.sha1(src.read_bytes() + b"::O3native").hexdigest()[:12]
        so = _cache_dir() / f"{src.stem}_{key}.so"
        if not so.exists():
            tmp = f"{so}.{os.getpid()}.tmp"
            # kernels are compiled on the host that runs them, so
            # -march=native is safe and buys SIMD in the hot loops
            # (measured 2.5x on the fused minhash); fall back for
            # compilers that reject it
            for flags in (["-O3", "-march=native"], ["-O2"]):
                try:
                    subprocess.run(
                        ["cc", *flags, "-shared", "-fPIC", "-o", tmp, str(src)],
                        check=True,
                        capture_output=True,
                        timeout=60,
                    )
                    break
                except subprocess.CalledProcessError:
                    if flags == ["-O2"]:
                        raise
            os.replace(tmp, so)
        if os.stat(so).st_uid == os.getuid():
            lib = ctypes.CDLL(str(so))
    except (OSError, subprocess.SubprocessError) as e:
        _fallback(src_filename, e)
    _LIBS[src_filename] = lib or False
    return lib


def _fallback(src_filename: str, err: Exception) -> None:
    """Record why a kernel did not load; warn on the first in a process."""
    global _WARNED
    why = f"{type(err).__name__}: {err}"
    stderr = getattr(err, "stderr", None)
    if stderr:
        if isinstance(stderr, bytes):
            stderr = stderr.decode(errors="replace")
        why += "\n" + "\n".join(stderr.strip().splitlines()[-8:])
    _ERRORS[src_filename] = why
    if not _WARNED:
        _WARNED = True
        warnings.warn(
            f"native kernel {src_filename} did not load; its codecs run the "
            f"slower numpy fallback. {why}",
            RuntimeWarning,
            stacklevel=3,
        )
