"""FSST symbol-table codec tests (paper-based; not in the reference)."""

import contextlib
import os
import shutil
import subprocess
from pathlib import Path

import numpy as np
import pytest

from parquet_go_ray.codecs import fsst, native


def test_roundtrip_text():
    rng = np.random.default_rng(0)
    words = ["the", "quick", "brown", "fox", "http://", "www", "compression"]
    texts = [" ".join(rng.choice(words, size=rng.integers(3, 40))) for _ in range(300)]
    data = "\n".join(texts).encode()
    table = fsst.train(data)
    enc = table.encode(data)
    assert table.decode(enc) == data
    assert len(enc) < len(data) // 2  # must actually compress natural text


def test_escape_bytes():
    data = b"\xff" * 100 + b"ab\xff\xffcd" + bytes(range(256))
    table = fsst.train(data)
    assert table.decode(table.encode(data)) == data


def test_empty_and_tiny():
    for data in [b"", b"a", b"ab", b"\xff"]:
        t = fsst.train(data)
        assert t.decode(t.encode(data)) == data


@pytest.mark.parametrize("seed", range(12))
def test_fuzz_random_alphabets(seed):
    r = np.random.default_rng(seed)
    alpha = int(r.integers(1, 256))
    raw = r.integers(0, alpha, int(r.integers(0, 4000))).astype(np.uint8).tobytes()
    t = fsst.train(raw)
    assert t.decode(t.encode(raw)) == raw


def test_byte_array_codec():
    rng = np.random.default_rng(3)
    strs = [b"", b"short", b"the same prefix " * 5, b"\x00\xff binary \x00"] * 40
    buf = b"".join(strs)
    off = np.cumsum([0] + [len(s) for s in strs])
    e = fsst.encode_byte_array(buf, off)
    d, o = fsst.decode_byte_array(e)
    assert d == buf
    assert np.array_equal(o, off)


def _require_native():
    if fsst._native() is None:
        pytest.skip("no system compiler available")


@contextlib.contextmanager
def _numpy_only():
    """Run the block with every FSST kernel on its numpy path."""
    saved = dict(native._LIBS)
    try:
        native._LIBS["_fsst_native.c"] = False
        yield
    finally:
        native._LIBS.update(saved)


def test_native_numpy_cross_compat():
    """The C hot loop and the numpy reference implementation must accept
    each other's streams (and produce equal-size output on this input)."""
    rng = np.random.default_rng(4)
    words = ["alpha", "beta", "gamma", "delta", " ", "the", "npj"]
    data = "".join(rng.choice(words, 3000)).encode() + bytes([255, 0, 255])
    table = fsst.train(data)
    _require_native()
    native_stream = table.encode(data)
    with _numpy_only():
        numpy_stream = table.encode(data)
        assert table.decode(native_stream) == data  # numpy decodes native
    assert table.decode(numpy_stream) == data  # native decodes numpy
    assert len(native_stream) == len(numpy_stream)


# every C kernel and the symbols its Python callers look up
_NATIVE_KERNELS = {
    "_delta_native.c": ("dba_decode",),
    "_fsst_native.c": ("fsst_encode", "fsst_decode", "fsst_train"),
    "_hash_native.c": (
        "fnv1a_segments",
        "xxhash64_segments",
        "winnow_segments",
        "simhash_accumulate",
        "minhash_segments",
    ),
    "_plain_native.c": ("plain_ba_offsets", "plain_ba_compact"),
}


@pytest.mark.parametrize("src_name", sorted(_NATIVE_KERNELS))
def test_native_kernel_loads_when_compiler_present(src_name):
    """With a compiler on PATH every C kernel must load: the numpy
    fallback would otherwise hide a C source that does not build."""
    if shutil.which("cc") is None:
        pytest.skip("no system compiler available")
    lib = native.load(src_name)
    if lib is None:
        src = Path(native.__file__).with_name(src_name)
        r = subprocess.run(
            ["cc", "-O2", "-shared", "-fPIC", "-o", os.devnull, str(src)],
            capture_output=True,
            text=True,
        )
        pytest.fail(f"{src_name} did not load; cc says:\n{r.stderr}")
    for fn in _NATIVE_KERNELS[src_name]:
        assert hasattr(lib, fn), fn


def _words(seed: int, n: int) -> bytes:
    rng = np.random.default_rng(seed)
    words = ["the", "quick", "brown", "fox", "http://", "www.", ".com/", "compression", "<div>", "\n"]
    return " ".join(rng.choice(words, n)).encode()


def _small_alphabet(seed: int) -> bytes:
    r = np.random.default_rng(seed)
    alpha = int(r.integers(1, 6))
    return r.integers(0, alpha, int(r.integers(1, 9000))).astype(np.uint8).tobytes()


_PARITY_CASES = {
    "text": _words(0, 8000),
    "empty": b"",
    "one_byte": b"a",
    "two_bytes": b"ab",
    "ff_run": b"\xff" * 300 + b"ab" + b"\xff" * 17,
    "zero_runs": b"".join(b"\x00" * k + b"x" for k in range(9, 40)),
    "random_over_sample": np.random.default_rng(1)
    .integers(0, 256, fsst.TRAIN_SAMPLE + 5000)
    .astype(np.uint8)
    .tobytes(),
    "block_boundary": b"z" * (fsst.BLOCK - 3) + _words(2, 400),
    **{f"small_alphabet_{seed}": _small_alphabet(seed) for seed in range(24)},
}


@pytest.mark.parametrize("name", sorted(_PARITY_CASES))
def test_native_trainer_matches_numpy(name):
    """The C trainer returns exactly the numpy trainer's symbol list."""
    _require_native()
    data = _PARITY_CASES[name]
    got = fsst.train(data).symbols
    with _numpy_only():
        assert fsst.train(data).symbols == got
    if len(data) > 1:
        assert got  # parity on an empty table would prove nothing


def test_native_trainer_gives_identical_chunk_bytes(monkeypatch):
    """encode_table writes the same payloads whichever trainer runs."""
    from parquet_go_ray.sources import webpages
    from parquet_go_ray.stages.encode import encode_table

    _require_native()
    t = webpages.generate_shard(0.001, 3, 1024)
    native_chunks = encode_table(t, bloom_columns=())
    monkeypatch.setattr(
        fsst, "_train_native", lambda lib, sample, m, it: fsst._train_numpy(sample, m, it)
    )
    numpy_chunks = encode_table(t, bloom_columns=())
    assert native_chunks.column("codec").to_pylist() == numpy_chunks.column("codec").to_pylist()
    assert "fsst" in native_chunks.column("codec").to_pylist()
    assert native_chunks.column("payload").equals(numpy_chunks.column("payload"))


def test_table_serialization():
    table = fsst.train(b"hello world hello world hello")
    blob = table.serialize()
    table2, pos = fsst.SymbolTable.deserialize(blob)
    assert pos == len(blob)
    assert table2.symbols == table.symbols
