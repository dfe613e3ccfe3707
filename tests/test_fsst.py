"""FSST symbol-table codec tests (paper-based; not in the reference)."""

import contextlib
import functools
import gc
import os
import shutil
import subprocess
import warnings
from pathlib import Path

import numpy as np
import pytest

from parquet_go_ray.codecs import fsst, native


def _roundtrip(table, data: bytes) -> bytes:
    return table.decode(table.encode(data), len(data)).tobytes()


def test_roundtrip_text():
    rng = np.random.default_rng(0)
    words = ["the", "quick", "brown", "fox", "http://", "www", "compression"]
    texts = [" ".join(rng.choice(words, size=rng.integers(3, 40))) for _ in range(300)]
    data = "\n".join(texts).encode()
    table = fsst.train(data)
    enc = table.encode(data)
    assert table.decode(enc, len(data)).tobytes() == data
    assert len(enc) < len(data) // 2  # must actually compress natural text


def test_escape_bytes():
    data = b"\xff" * 100 + b"ab\xff\xffcd" + bytes(range(256))
    table = fsst.train(data)
    assert _roundtrip(table, data) == data


def test_empty_and_tiny():
    for data in [b"", b"a", b"ab", b"\xff"]:
        t = fsst.train(data)
        assert _roundtrip(t, data) == data


@pytest.mark.parametrize("seed", range(12))
def test_fuzz_random_alphabets(seed):
    r = np.random.default_rng(seed)
    alpha = int(r.integers(1, 256))
    raw = r.integers(0, alpha, int(r.integers(0, 4000))).astype(np.uint8).tobytes()
    t = fsst.train(raw)
    assert _roundtrip(t, raw) == raw


def test_byte_array_codec():
    rng = np.random.default_rng(3)
    strs = [b"", b"short", b"the same prefix " * 5, b"\x00\xff binary \x00"] * 40
    buf = b"".join(strs)
    off = np.cumsum([0] + [len(s) for s in strs])
    e = fsst.encode_byte_array(buf, off)
    d, o = fsst.decode_byte_array(e, len(strs))
    assert d.dtype == np.uint8 and len(d) == len(buf)
    assert d.tobytes() == buf
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
        assert table.decode(native_stream, len(data)).tobytes() == data  # numpy decodes native
    assert table.decode(numpy_stream, len(data)).tobytes() == data  # native decodes numpy
    assert len(native_stream) == len(numpy_stream)


# every C kernel and the symbols its Python callers look up
_NATIVE_KERNELS = {
    "_delta_native.c": ("dba_decode", "dbp_encode", "dbp_decode"),
    "_fsst_native.c": (
        "fsst_lookup_size",
        "fsst_lookup_build",
        "fsst_hash_slot",
        "fsst_encode",
        "fsst_decode",
        "fsst_train",
    ),
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


# --------------------------------------------------- encoder lookup parity


def _slot_mates(k: int) -> list[bytes]:
    """k distinct 3-byte prefixes that the C lookup hashes to one slot
    (any k prefixes without a compiler, where the test skips)."""
    lib = fsst._native()
    if lib is None:
        return [b"abc"[:2] + bytes([120 + i]) for i in range(k)]
    slots: dict[int, list[bytes]] = {}
    for a in range(97, 123):
        for b in range(97, 123):
            for c in b"xyzq":
                prefix = bytes([a, b, c])
                mates = slots.setdefault(lib.fsst_hash_slot(prefix), [])
                mates.append(prefix)
                if len(mates) == k:
                    return mates
    raise AssertionError(f"no {k} prefixes share a slot")


def _straddling_blocks() -> bytes:
    """Blocks whose 8-byte symbol starts from 4 bytes before to 8 bytes
    after block_end - 8: the tail path must cut the ones that cross the
    block end. 13 blocks, not a multiple of the encoder's 4 lanes."""
    return b"".join(
        (b"-" * (fsst.BLOCK - 8 + d) + b"abcdefgh" * 2)[: fsst.BLOCK] for d in range(-4, 9)
    )


def _distinct_substrings(data: bytes, k: int) -> list[bytes]:
    out: dict[bytes, None] = {}
    pos = 0
    while len(out) < k:
        length = 1 + pos % 8
        out.setdefault(data[pos : pos + length], None)
        pos += 7
    return list(out)


_ZERO_FF_TABLE = [
    b"\x00",
    b"\x00\x00\x00",
    b"a\x00",
    b"\xff\xff",
    b"\xff" * 8,
    b"\x00\xff\x00",
]


@functools.cache
def _lookup_cases() -> dict[str, tuple[list[bytes] | None, bytes]]:
    """(symbol table or None to train one, input) per case."""
    text = _words(6, 3000)
    chain = [b"https://", b"https:/", b"https", b"http:", b"http", b"htt"]
    mates = _slot_mates(5)
    slot_syms = [p + b"12345"[:i] for i, p in enumerate(mates)]  # 3..7 bytes
    rng = np.random.default_rng(9)
    zero_ff = bytes(rng.choice([0, 0xFF, ord("a")], 3 * fsst.BLOCK + 5).astype(np.uint8))
    cases = {
        # six symbols share "htt": the two longest sit inline in the hash
        # slot, the other four on its overflow chain
        "shared_prefix_chain": (
            chain + [b"ht", b" "],
            b" ".join(chain + [b"htx", b"httpx", b"httpsx", b"ht", b"h"]) * 60,
        ),
        "one_hash_slot": (
            slot_syms,
            b"|".join(s[:k] for s in slot_syms for k in range(1, len(s) + 1)) * 40,
        ),
        "straddle_block_end": ([b"abcdefgh", b"abcd", b"ab", b"a", b"-" * 8, b"-"], _straddling_blocks()),
        # equal symbols: the highest code wins on both paths
        "duplicate_symbols": (
            [b"abcd", b"abc", b"abcd", b"ab", b"ab", b"a", b"abc", b"a"],
            b"abcde abcd abc ab a " * 30,
        ),
        "no_symbols": ([], text),
        "one_symbol": ([b"the "], text),
        "255_symbols": (_distinct_substrings(text, 255), text),
        "zero_and_ff": (_ZERO_FF_TABLE, zero_ff),
        # a block's last byte is "a" and its last two are 0x00 0x00:
        # zero padding must not complete "a\x00" or "\x00\x00\x00"
        "zero_and_ff_tail_a": (_ZERO_FF_TABLE, zero_ff[: fsst.BLOCK - 1] + b"a" + zero_ff + b"a"),
        "zero_and_ff_tail_00": (_ZERO_FF_TABLE, zero_ff + b"x\x00\x00"),
        **{
            f"tiny_{k}": ([b"ab", b"abc", b"abcdefgh", b"a", b"\x00\x00\x00", b"a\x00"], b"abcdefgha\x00"[:k])
            for k in range(10)
        },
        **{
            f"blocks_{k}": (None, (text * 3)[: k * fsst.BLOCK + 123])
            for k in (1, 2, 3, 5, 6, 7)
        },
    }
    return cases


@pytest.mark.parametrize("case", sorted(_lookup_cases()))
def test_native_encoder_matches_numpy(case):
    """The C encoder's lookup (short-code table, 3-byte-prefix hash with
    an overflow chain, 4 interleaved blocks, exact tail) picks the same
    symbols as the numpy reference, so the code streams are identical;
    and the C trainer returns the numpy trainer's table on each input."""
    _require_native()
    symbols, data = _lookup_cases()[case]
    table = fsst.SymbolTable(symbols) if symbols is not None else fsst.train(data)
    got = bytes(table.encode(data))
    lookup = fsst._LOOKUPS[table]  # built once, reused from the LRU
    assert bytes(table.encode(data)) == got and fsst._LOOKUPS[table] is lookup
    with _numpy_only():
        assert bytes(table.encode(data)) == got
    assert table.decode(got, len(data)).tobytes() == data
    trained = fsst.train(data).symbols
    with _numpy_only():
        assert fsst.train(data).symbols == trained


def test_native_lookups_are_bounded():
    """Lookups live in an LRU of MAX_LOOKUPS tables, not on the tables
    the selection plans keep: the least recently used one is dropped,
    a table whose lookup was dropped rebuilds it with the same bytes,
    and the LRU does not keep a table alive."""
    _require_native()
    data = b"lookup lru: the quick brown fox jumps over the lazy dog " * 40
    tables = [
        fsst.SymbolTable([b"the ", b"fox", bytes([65 + i]) * 3])
        for i in range(fsst.MAX_LOOKUPS + 4)
    ]
    streams = [bytes(t.encode(data)) for t in tables]
    assert len(fsst._LOOKUPS) == fsst.MAX_LOOKUPS
    assert tables[0] not in fsst._LOOKUPS and tables[-1] in fsst._LOOKUPS
    tables[4].encode(data)  # a hit moves the table to the recent end
    assert list(fsst._LOOKUPS)[-1] is tables[4]
    assert bytes(tables[0].encode(data)) == streams[0]
    assert tables[5] not in fsst._LOOKUPS and len(fsst._LOOKUPS) == fsst.MAX_LOOKUPS
    del tables  # every entry is one of these: dropped, they take it along
    gc.collect()
    assert len(fsst._LOOKUPS) == 0


def test_table_serialization():
    table = fsst.train(b"hello world hello world hello")
    blob = table.serialize()
    table2, pos = fsst.SymbolTable.deserialize(blob)
    assert pos == len(blob)
    assert table2.symbols == table.symbols


# ------------------------------------------------ decode into Arrow buffers

import zlib  # noqa: E402

import pyarrow as pa  # noqa: E402

from parquet_go_ray.codecs import chunk  # noqa: E402
from parquet_go_ray.codecs import registry as R  # noqa: E402
from parquet_go_ray.codecs._util import uvarint_encode  # noqa: E402

_PATHS = ["native", "numpy"]


@contextlib.contextmanager
def _path(name: str):
    if name == "native":
        _require_native()
        yield
    else:
        with _numpy_only():
            yield


def _fsst_chunk(arr: pa.Array, table: fsst.SymbolTable | None = None) -> bytes:
    return chunk.encode_array(arr, codec=R.FSST, ctx={"fsst_table": table} if table else None)


_DECODE_CASES = {
    "empty_column": (pa.array([], pa.string()), None),
    "all_empty_values": (pa.array([""] * 7, pa.string()), None),
    "single_value": (pa.array(["one value"], pa.string()), None),
    "nulls": (pa.array(["a", None, "bcd", None, None, "", "efgh" * 9, None]), None),
    # the last code is an 8-byte symbol that ends on the last output byte
    "eight_byte_symbol_last": (
        pa.array([b"x", b"abcdefgh", b"yabcdefgh"], pa.binary()),
        fsst.SymbolTable([b"abcdefgh"]),
    ),
    # the last code is a 1-byte symbol: its 8-byte store runs 7 bytes
    # into the slack
    "one_byte_symbol_last": (
        pa.array([b"abcdefgh", b"q"], pa.binary()),
        fsst.SymbolTable([b"abcdefgh", b"q"]),
    ),
    "several_blocks": (
        pa.array([w.decode() for w in _words(5, 6000).split(b" ")], pa.string()),
        None,
    ),
    "ff_and_zero_bytes": (
        pa.array([b"\xff" * k + b"\x00" * (k % 5) for k in range(60)] + [None], pa.large_binary()),
        None,
    ),
}


@pytest.mark.parametrize("case", sorted(_DECODE_CASES))
def test_decode_paths_agree(case):
    """decode_array gives the input back on the native and the numpy
    FSST decoder, from the same chunk bytes."""
    arr, table = _DECODE_CASES[case]
    blob = _fsst_chunk(arr, table)
    assert blob[4] == R.FSST
    got = {}
    for name in _PATHS:
        with _path(name):
            got[name] = chunk.decode_array(blob)
        assert got[name].equals(arr), name
        assert got[name].type == arr.type


def _stream(n_syms: int, codes: bytes, blocks: list[int] | bytes | None = None) -> tuple:
    """A symbol table of n_syms 2-byte symbols and a hand-built stream:
    a header from the block lengths (default: one block of all codes) or
    given as raw bytes, then the codes."""
    table = fsst.SymbolTable([bytes([65 + i, 97 + i]) for i in range(n_syms)])
    blocks = [len(codes)] if blocks is None else blocks
    if isinstance(blocks, bytes):
        return table, blocks + codes
    head = uvarint_encode(len(blocks)) + b"".join(uvarint_encode(b) for b in blocks)
    return table, head + codes


_CORRUPT_STREAMS = {
    # (n_syms, codes, block lengths or None, decoded size, message)
    "truncated_header": (1, b"", bytes([3, 5]), 2, "truncated"),
    "trailing_escape": (1, bytes([0, 255]), None, 3, "truncated"),
    "code_past_table": (2, bytes([0, 2]), None, 4, "outside the symbol table"),
    "decodes_past_size": (1, bytes([0, 0]), None, 3, "past the value lengths"),
    "decodes_short": (1, bytes([0, 255, 120]), None, 4, "short of the value lengths"),
    "block_lengths_off": (1, bytes([0, 0]), [1], 4, "block lengths"),
    "size_beyond_codes": (1, bytes([0]), None, 25, "cannot come from"),
}


@pytest.mark.parametrize("path", _PATHS)
@pytest.mark.parametrize("case", sorted(_CORRUPT_STREAMS))
def test_corrupt_stream_raises_chunk_error(case, path):
    n_syms, codes, blocks, size, msg = _CORRUPT_STREAMS[case]
    table, stream = _stream(n_syms, codes, blocks)
    with _path(path), pytest.raises(chunk.ChunkError, match=msg):
        table.decode(stream, size)


def test_hand_built_stream_decodes():
    """The hand-built streams above are well formed when not corrupted."""
    table, stream = _stream(2, bytes([0, 255, 0x7A, 1]))
    for path in _PATHS:
        with _path(path):
            assert table.decode(stream, 5).tobytes() == b"AazBb"


@pytest.mark.parametrize("path", _PATHS)
def test_corrupt_byte_array_payload_raises_chunk_error(path):
    data = _words(8, 300)
    off = np.array([0, 100, len(data)])
    table = fsst.train(data)
    good = fsst.encode_byte_array(data, off, table)
    with _path(path):
        assert fsst.decode_byte_array(good, 2)[0].tobytes() == data
        # truncated payload
        for cut in (1, 7, len(good) // 2, len(good) - 3):
            with pytest.raises(chunk.ChunkError):
                fsst.decode_byte_array(good[:cut], 2)
        # the value lengths do not sum to what the stream decodes to
        for last in (len(data) + 1, len(data) - 1):
            bad = fsst.encode_byte_array(data, np.array([0, 100, last]), table)
            with pytest.raises(chunk.ChunkError, match="value lengths"):
                fsst.decode_byte_array(bad, 2)
        # the lengths block holds another value count than the chunk
        with pytest.raises(chunk.ChunkError, match="lengths block"):
            fsst.decode_byte_array(good, 3)


def _fuzz_table() -> pa.Table:
    rng = np.random.default_rng(9)
    words = [w.decode() for w in _words(9, 900).split(b" ")]
    text = [" ".join(words[i : i + int(rng.integers(0, 12))]) for i in range(0, 900, 6)]
    text = [None if i % 7 == 3 else t for i, t in enumerate(text)]
    raw = [rng.integers(0, 256, int(rng.integers(0, 40))).astype(np.uint8).tobytes() for _ in text]
    return pa.table({"text": pa.array(text, pa.string()), "raw": pa.array(raw, pa.binary())})


def _flip_payload(blob: bytes, rng, k: int) -> bytes:
    """Flip k random payload bytes of a chunk and recompute its CRC."""
    hdr = chunk._HDR.unpack_from(blob, 0)
    type_len, validity_len, payload_len = hdr[7:10]
    start = chunk._HDR.size + type_len + validity_len
    body = bytearray(blob[:-4])
    for p in rng.integers(start, start + payload_len, k):
        body[p] ^= int(rng.integers(1, 256))
    return bytes(body) + zlib.crc32(body).to_bytes(4, "little")


@pytest.mark.parametrize("path", _PATHS)
@pytest.mark.parametrize("seed", range(3))
def test_fuzz_corrupt_payload(seed, path):
    """Random payload flips behind valid CRCs (the chunk's own and the
    chunk record's) either raise ChunkError or decode to exactly n
    values; they never crash the process. Run under -X faulthandler."""
    from parquet_go_ray.stages.decode import decode_chunk_table
    from parquet_go_ray.stages.encode import encode_table

    t = _fuzz_table()
    records = encode_table(t, codec_overrides={"text": R.FSST, "raw": R.FSST}, bloom_columns=())
    assert set(records.column("codec").to_pylist()) == {"fsst"}
    blobs = records.column("payload").to_pylist()
    rng = np.random.default_rng(seed)
    raised = 0
    with _path(path):
        for it in range(150):
            col = it % len(blobs)
            bad = list(blobs)
            bad[col] = _flip_payload(blobs[col], rng, int(rng.integers(1, 5)))
            crcs = [zlib.crc32(b) for b in bad]
            fuzzed = records.set_column(
                records.schema.get_field_index("payload"), "payload", pa.array(bad, pa.binary())
            ).set_column(
                records.schema.get_field_index("crc32"),
                "crc32",
                pa.array(crcs, records.schema.field("crc32").type),
            )
            try:
                out = decode_chunk_table(fuzzed)
            except chunk.ChunkError:
                raised += 1
                continue
            assert out.num_rows == t.num_rows
            out.validate(full=True)
    assert raised  # the flips did reach the checks


def test_failed_native_build_warns_and_falls_back(monkeypatch, tmp_path):
    """A C source that does not build gives None, keeps the error for
    that file, and warns once per process with the tail of cc's stderr."""

    def failing_cc(cmd, **kwargs):
        raise subprocess.CalledProcessError(1, cmd, stderr=b"x.c:1: error: planted failure\n")

    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    monkeypatch.setattr(native.subprocess, "run", failing_cc)
    monkeypatch.setattr(native, "_LIBS", {})
    monkeypatch.setattr(native, "_ERRORS", {})
    monkeypatch.setattr(native, "_WARNED", False)
    with pytest.warns(RuntimeWarning, match=r"_fsst_native\.c(.|\n)*planted failure"):
        assert native.load("_fsst_native.c") is None
    assert "planted failure" in native._ERRORS["_fsst_native.c"]
    # a second failure is recorded but does not warn again
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert native.load("_plain_native.c") is None
        assert native.load("_fsst_native.c") is None
    assert set(native._ERRORS) == {"_fsst_native.c", "_plain_native.c"}
