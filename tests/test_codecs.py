"""Codec kernel round-trip tests.

Ports the reference's encoding test strategy (SURVEY.md §5 / FIXTURES.md):
- F2: the shared test vectors from encoding/encoding_test.go:30-192,
  run against every codec that supports the type;
- F3: the size schedule from internal/quick/quick.go:12-26 (straddles
  RLE group (8), delta mini-block (32) and block (128) boundaries);
- F4: seeded fuzz-style random round-trips (encoding/fuzz/fuzz.go:128-158).
"""

import contextlib

import numpy as np
import pyarrow as pa
import pytest

from parquet_go_ray.codecs import (
    decode_array,
    encode_array,
)
from parquet_go_ray.codecs import registry as R

I8MAX = 127
I32MAX = 2**31 - 1
I32MIN = -(2**31)
I64MAX = 2**63 - 1
I64MIN = -(2**63)

# ---- F2 vectors (encoding_test.go:30-192) ----

BOOLEAN_VECTORS = [
    [],
    [True],
    [False],
    [True, False, True, False, True, True, False, False, True, False],
    [True] * 32,
    [True] * 33,
    [True, False] * 8,  # alternating x16
    ([True, False] * 8)[:-1],  # alternating x15
]

LEVELS_VECTORS = [
    [],
    [0],
    [1],
    [0, 1, 2, 3, 4, 5, 6, I8MAX],
    [42] * 24,
    list(range(32)),
    [v for v in range(10) for _ in range(4)],
]

INT32_VECTORS = [
    [],
    [0],
    [1],
    [-1, 0, 1, -2, 2, I32MAX, I32MIN],
    [I32MAX] * 24,
    list(range(33)),
    [v for v in range(10) for _ in range(4)],
    [-1, 0, 1, 2, 3, 4, I32MAX, I32MAX, 0],
    [24, 36, 47, 32, 29, 4, 9, 20, 2, 18],  # delta regression vector
]

INT64_VECTORS = [
    [],
    [0],
    [1],
    [-1, 0, 1, -2, 2, I64MAX, I64MIN],
    [I64MAX] * 24,
    list(range(33)),
    [v for v in range(10) for _ in range(4)],
    [I64MIN, I64MAX] * 16 * 5,  # 64-bit-width-forcing sequence
]

FLOAT_VECTORS = [[], [0.0], [1.0], [0.5, -1.5, 3.4e38, -3.4e38, 0.0]]
DOUBLE_VECTORS = [[], [0.0], [1.0], [0.5, -1.5, 1.7e308, -1.7e308, 0.0]]

BYTE_ARRAY_VECTORS = [
    [],
    [""],
    ["A", "B", "C"],
    ["hello world!", "1234567890" * 100],
]

FLBA_SIZES = [1, 2, 4, 8, 10, 16]

# F3 size schedule (internal/quick/quick.go:12-26)
SIZES = (
    list(range(40))
    + [99, 100, 101, 127, 128, 129, 255, 256, 257]
    + [1000, 1023, 1024, 1025, 2000, 2048, 2049, 2095, 4000, 4095, 4096, 4097]
)


def roundtrip(arr: pa.Array, codec=None):
    out = decode_array(encode_array(arr, codec))
    assert out.type == arr.type
    assert out.equals(arr), f"codec={codec} n={len(arr)}"


def each_codec(ptype):
    return R.SUPPORTED[ptype]


@pytest.mark.parametrize("vec", BOOLEAN_VECTORS)
def test_boolean_vectors(vec):
    arr = pa.array(vec, type=pa.bool_())
    for codec in each_codec(R.BOOLEAN):
        roundtrip(arr, codec)


@pytest.mark.parametrize("vec", LEVELS_VECTORS)
def test_levels_vectors(vec):
    from parquet_go_ray.codecs import rle

    levels = np.array(vec, dtype=np.uint8)
    width = max(1, int(levels.max()).bit_length()) if len(levels) else 1
    out = rle.decode_levels(rle.encode_levels(levels, width), width)
    assert np.array_equal(out, levels)


@pytest.mark.parametrize("vec", INT32_VECTORS)
def test_int32_vectors(vec):
    arr = pa.array(vec, type=pa.int32())
    for codec in each_codec(R.INT32):
        roundtrip(arr, codec)


@pytest.mark.parametrize("vec", INT64_VECTORS)
def test_int64_vectors(vec):
    arr = pa.array(vec, type=pa.int64())
    for codec in each_codec(R.INT64):
        roundtrip(arr, codec)


@pytest.mark.parametrize("vec", FLOAT_VECTORS)
def test_float_vectors(vec):
    arr = pa.array(np.array(vec, dtype=np.float32))
    for codec in each_codec(R.FLOAT):
        roundtrip(arr, codec)


@pytest.mark.parametrize("vec", DOUBLE_VECTORS)
def test_double_vectors(vec):
    arr = pa.array(np.array(vec, dtype=np.float64))
    for codec in each_codec(R.DOUBLE):
        roundtrip(arr, codec)


@pytest.mark.parametrize("vec", BYTE_ARRAY_VECTORS)
def test_byte_array_vectors(vec):
    arr = pa.array(vec, type=pa.string())
    for codec in each_codec(R.BYTE_ARRAY):
        roundtrip(arr, codec)


@pytest.mark.parametrize("size", FLBA_SIZES)
def test_flba_vectors(size):
    base = b"ABCDEFGHIJKLMNOP"
    values = [base[i % 8 : i % 8 + size].ljust(size, b"0") for i in range(10)]
    arr = pa.array(values, type=pa.binary(size))
    for codec in each_codec(R.FIXED_LEN_BYTE_ARRAY):
        roundtrip(arr, codec)


# ---- F3 + F4: seeded random round-trips over the size schedule ----


@pytest.mark.parametrize("size", SIZES[::3])  # every 3rd size to bound runtime
def test_random_int64_all_sizes(size):
    rng = np.random.default_rng(size)
    arr = pa.array(rng.integers(-(2**62), 2**62, size), type=pa.int64())
    for codec in each_codec(R.INT64):
        roundtrip(arr, codec)


@pytest.mark.parametrize("size", SIZES[::3])
def test_random_strings_all_sizes(size):
    rng = np.random.default_rng(size * 7 + 1)
    words = ["alpha", "beta", "gamma", "", "delta" * 20, "épsilon✓"]
    arr = pa.array([words[i] for i in rng.integers(0, len(words), size)])
    for codec in each_codec(R.BYTE_ARRAY):
        roundtrip(arr, codec)


@pytest.mark.parametrize("seed", range(8))
def test_fuzz_mixed_nulls(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(0, 500))
    mask = rng.random(n) < 0.2
    ints = rng.integers(-(10**9), 10**9, n)
    vals = [None if m else int(v) for m, v in zip(mask, ints)]
    roundtrip(pa.array(vals, type=pa.int64()))
    strs = [None if m else f"s{v % 100}" for m, v in zip(mask, ints)]
    roundtrip(pa.array(strs, type=pa.string()))
    floats = [None if m else float(v) / 3 for m, v in zip(mask, ints)]
    roundtrip(pa.array(floats, type=pa.float64()))


@pytest.mark.parametrize("compression", ["zstd", "snappy", "lz4", "gzip"])
def test_compression_layer(compression):
    rng = np.random.default_rng(3)
    cases = [
        pa.array([f"doc {i % 37} lorem ipsum" for i in range(2000)]),
        pa.array(rng.integers(0, 1000, 3000), type=pa.int64()),
        pa.array([1.5, None, 2.5] * 100, type=pa.float64()),
    ]
    for arr in cases:
        blob = encode_array(arr, compression=compression)
        assert decode_array(blob).equals(arr)


def test_crc_detects_corruption():
    arr = pa.array(list(range(100)), type=pa.int64())
    buf = bytearray(encode_array(arr))
    buf[len(buf) // 2] ^= 0xFF
    with pytest.raises(Exception):
        decode_array(bytes(buf))


def test_timestamp_and_nested():
    import datetime

    ts = pa.array(
        [datetime.datetime(2024, 1, 1) + datetime.timedelta(seconds=i) for i in range(100)],
        type=pa.timestamp("us"),
    )
    roundtrip(ts)
    lst = pa.array([[float(i), i + 0.5] for i in range(50)], type=pa.list_(pa.float32()))
    roundtrip(lst)


class TestDictionaryTypedInput:
    """Dictionary-typed ARROW input (round 5): the chunk header keeps
    the original logical type, so decode hands back a dictionary array
    instead of silently densifying."""

    def test_representation_exact_for_first_occurrence(self):
        import pyarrow as pa

        from parquet_go_ray.codecs import decode_array, encode_array

        for arr in (
            pa.array(["a", "b", "a", None]).dictionary_encode(),
            pa.array([1, 2, 2, None], type=pa.int64()).dictionary_encode(),
            pa.array([1.5, 2.5, 1.5]).dictionary_encode(),
            pa.DictionaryArray.from_arrays(
                pa.array([0, 1, 0], type=pa.int8()), pa.array(["p", "q"])
            ),
        ):
            out = decode_array(encode_array(arr))
            assert out.type == arr.type
            assert out.equals(arr)

    def test_logical_exact_for_arbitrary_dictionary_order(self):
        import pyarrow as pa

        from parquet_go_ray.codecs import decode_array, encode_array

        # non-first-occurrence order + an unused dictionary value:
        # logical equality holds; the re-derived indices are
        # first-occurrence (documented, same bar as the reference's
        # writer-ordered dictionary pages)
        arr = pa.DictionaryArray.from_arrays(
            pa.array([1, 0, 1], type=pa.int32()),
            pa.array(["a", "b", "unused"]),
        )
        out = decode_array(encode_array(arr))
        assert pa.types.is_dictionary(out.type)
        assert out.to_pylist() == arr.to_pylist()

    def test_chunked_dictionary_input(self):
        import pyarrow as pa

        from parquet_go_ray.codecs import decode_array, encode_array

        ca = pa.chunked_array(
            [
                pa.array(["x", "y"]).dictionary_encode(),
                pa.array(["y", "z"]).dictionary_encode(),
            ]
        )
        out = decode_array(encode_array(ca))
        assert out.equals(ca.combine_chunks())


class TestFloat16:
    """float16 routes through FLBA(2) (parquet FLOAT16 parity) instead
    of the arrow_ipc fallback; _cast_back's equal-bit-width view
    restores halffloat bit-exactly."""

    def _roundtrip_bits(self, arr):
        from parquet_go_ray.codecs import decode_array, encode_array

        out = decode_array(encode_array(arr))
        assert out.type == arr.type and len(out) == len(arr)
        a, b = arr.to_pandas(), out.to_pandas()
        assert a.isna().equals(b.isna())
        va = a.dropna().to_numpy(np.float16).view(np.uint16)
        vb = b.dropna().to_numpy(np.float16).view(np.uint16)
        assert np.array_equal(va, vb)

    def test_vectors(self):
        rng = np.random.default_rng(0)
        for arr in [
            pa.array(np.arange(4096).astype(np.float16)),
            pa.array(rng.normal(0, 0.3, 4096).astype(np.float16)),
            pa.array([np.float16(1.5), None, np.float16(2.5), None]),
            pa.array([], type=pa.float16()),
            # low cardinality: DICT encodes through the FLBA(2) view
            pa.array(
                np.array([0.5, -2.0, np.nan, 1024.0], dtype=np.float16)[
                    rng.integers(0, 4, 4096)
                ]
            ),
            pa.array(
                np.array(
                    [np.inf, -np.inf, np.nan, 0.0, -0.0, 65504.0],
                    dtype=np.float16,
                )
            ),
        ]:
            self._roundtrip_bits(arr)

    def test_dict(self):
        from parquet_go_ray.codecs import decode_array, encode_array
        from parquet_go_ray.codecs import registry as R

        vals = np.array([1.5, 0.0, 2.5, 1.5] * 1024, dtype=np.float16)
        arr = pa.array(vals, mask=np.arange(len(vals)) % 4 == 1)
        assert encode_array(arr)[4] == R.DICT
        self._roundtrip_bits(arr)
        self._roundtrip_bits(arr.slice(3))  # sliced input keeps its offset
        for codec in (R.DICT, R.PLAIN, R.BYTE_STREAM_SPLIT):
            blob = encode_array(arr, codec=codec)
            assert blob[4] == codec
            assert decode_array(blob).to_pylist() == arr.to_pylist()

    def test_physical_type_is_flba(self):
        from parquet_go_ray.codecs import registry as R
        from parquet_go_ray.codecs.chunk import physical_type

        assert physical_type(pa.float16()) == R.FIXED_LEN_BYTE_ARRAY

    def test_list_of_float16(self):
        from parquet_go_ray.codecs import decode_array, encode_array

        vals = np.random.default_rng(1).normal(0, 1, 64).astype(np.float16)
        arr = pa.ListArray.from_arrays(
            pa.array([0, 32, 32, 64], type=pa.int32()),
            pa.array(vals),
            mask=pa.array([False, True, False]),
        )
        out = decode_array(encode_array(arr))
        assert out.type == arr.type
        assert out.to_pylist() == arr.to_pylist()


@pytest.mark.parametrize(
    "block_size,miniblocks",
    [(0, 4), (128, 0), (100, 4), (128, 3), (128, 8)],
)
def test_delta_rejects_bad_block_header(block_size, miniblocks):
    """DELTA_BINARY_PACKED headers that break the spec's rules (block size
    a positive multiple of 128, miniblocks dividing it into multiples of
    32 values) raise instead of dividing by zero or misreading."""
    from parquet_go_ray.codecs import delta
    from parquet_go_ray.codecs._util import uvarint_encode

    good = delta.encode_binary_packed(np.arange(50, dtype=np.int32), 32)
    assert delta.decode_binary_packed(good, 32)[0].tolist() == list(range(50))
    # the writer's header starts with block size 128 (2 bytes), then 4
    bad = uvarint_encode(block_size) + uvarint_encode(miniblocks) + good[3:]
    with pytest.raises(ValueError, match="bad header"):
        delta.decode_binary_packed(bad, 32)


# ------------------------------------------- DELTA_BINARY_PACKED in C


def _dbp_native():
    from parquet_go_ray.codecs import delta

    if delta._native() is None:
        pytest.skip("no system compiler available")
    return delta


_DBP_SIZES = (0, 1, 2, 31, 32, 33, 128, 129, 4097)


@pytest.mark.parametrize("bits", (32, 64))
@pytest.mark.parametrize("n", _DBP_SIZES)
def test_dbp_native_matches_numpy(bits, n):
    """dbp_encode writes the numpy encoder's bytes: full-range random
    values (deltas that wrap), a sorted run, a constant run and small
    deltas around zero."""
    delta = _dbp_native()
    dtype = np.int32 if bits == 32 else np.int64
    info = np.iinfo(dtype)
    rng = np.random.default_rng(n * bits)
    for v in (
        rng.integers(info.min, info.max, n, dtype=dtype, endpoint=True),
        np.cumsum(rng.integers(0, 1000, n)).astype(dtype),
        np.full(n, -7, dtype=dtype),
        rng.integers(-3, 4, n).astype(dtype),
    ):
        got = delta.encode_binary_packed(v, bits)
        assert got == delta._encode_binary_packed_numpy(v, bits)
        assert np.array_equal(delta.decode_binary_packed(got, bits)[0], v)


@pytest.mark.parametrize("bits", (32, 64))
def test_dbp_native_wraparound_vectors(bits):
    """Deltas between the width's min and max wrap modulo 2**bits."""
    delta = _dbp_native()
    dtype = np.int32 if bits == 32 else np.int64
    lo, hi = np.iinfo(dtype).min, np.iinfo(dtype).max
    for vec in (
        [lo, hi] * 16 * 5,
        [hi, lo, 0, hi, -1, lo + 1],
        [lo] + [hi] * 200,
        list(range(hi - 300, hi)) + [lo],
    ):
        v = np.array(vec, dtype=dtype)
        got = delta.encode_binary_packed(v, bits)
        assert got == delta._encode_binary_packed_numpy(v, bits)
        assert np.array_equal(delta.decode_binary_packed(got, bits)[0], v)


@pytest.mark.parametrize(
    "dtype,bits",
    [
        (np.int32, 32),
        (np.uint32, 32),
        (np.int64, 64),
        (np.uint64, 64),
        (np.int32, 64),
        (np.uint32, 64),
        (np.int16, 64),
        (np.uint8, 64),
    ],
)
def test_dbp_native_input_dtypes(dtype, bits):
    """Every int dtype the callers hand over (int32/int64 from
    chunk._to_physical_values, alp and parquet_wire, and their unsigned
    views), contiguous or strided, gives the numpy encoder's bytes."""
    delta = _dbp_native()
    info = np.iinfo(dtype)
    v = np.random.default_rng(5).integers(info.min, info.max, 3001, dtype=dtype, endpoint=True)
    for x in (v, v[::3], v[::-2]):
        assert not x.flags.c_contiguous or x is v
        assert delta.encode_binary_packed(x, bits) == delta._encode_binary_packed_numpy(x, bits)


def test_dbp_callers_write_numpy_bytes(monkeypatch):
    """The codecs that carry a DELTA_BINARY_PACKED block (FSST lengths,
    DLBA, DBA, ints, ALP) write the same chunk bytes with the numpy
    encoder forced."""
    from parquet_go_ray.codecs import delta

    _dbp_native()
    strs = pa.array([f"https://host{i % 13}.example/p/{i * 7919 % 1000}" for i in range(1500)])
    cases = [
        (strs, R.FSST),
        (strs, R.DELTA_LENGTH_BYTE_ARRAY),
        (strs, R.DELTA_BYTE_ARRAY),
        (pa.array(np.cumsum(np.arange(3000) % 17), pa.int64()), R.DELTA_BINARY_PACKED),
        (pa.array(np.arange(3000, dtype=np.int32) * -3), R.DELTA_BINARY_PACKED),
        (pa.array(np.round(np.linspace(0, 99, 2000), 2)), R.ALP_FLOAT),
    ]
    native_blobs = [encode_array(arr, codec) for arr, codec in cases]
    monkeypatch.setattr(delta, "_native", lambda: None)
    for (arr, codec), blob in zip(cases, native_blobs):
        assert encode_array(arr, codec) == blob, R.CODEC_NAMES[codec]
        assert decode_array(blob).equals(arr)


# -------------------------------------- DELTA_BINARY_PACKED decode in C


@contextlib.contextmanager
def _delta_kernel_off():
    """Force delta.py's numpy paths, as a host without a compiler runs."""
    from parquet_go_ray.codecs import native

    saved = native._LIBS.get("_delta_native.c")
    native._LIBS["_delta_native.c"] = False
    try:
        yield
    finally:
        if saved is None:
            native._LIBS.pop("_delta_native.c", None)
        else:
            native._LIBS["_delta_native.c"] = saved


def _dbp_both(buf, bits, pos=0):
    """(C result, numpy result), each (values list, end) or the type of
    the exception it raised."""
    delta = _dbp_native()
    out = []
    for fn in (delta.decode_binary_packed, delta._decode_binary_packed_numpy):
        try:
            v, end = fn(buf, bits, pos)
            assert v.dtype == (np.int32 if bits == 32 else np.int64)
            out.append((v.tolist(), end))
        except Exception as e:  # noqa: BLE001 - the type is compared
            out.append(type(e))
    return out


def _dbp_stream(values, bits, block_size=128, miniblocks=4, junk=0, width=None):
    """A DELTA_BINARY_PACKED stream in any spec-legal layout, packed value
    by value in Python: `junk` is the width byte of every unneeded
    trailing miniblock (readers skip it, whatever it holds), `width`
    forces the width of every needed miniblock, and padding is 0."""
    from parquet_go_ray.codecs._util import svarint_encode, uvarint_encode

    mask = (1 << bits) - 1
    v = [int(x) & mask for x in values]
    out = bytearray(
        uvarint_encode(block_size) + uvarint_encode(miniblocks) + uvarint_encode(len(v))
        + svarint_encode(v[0] if v else 0, bits)
    )
    deltas = [(b - a) & mask for a, b in zip(v, v[1:])]
    mb = block_size // miniblocks
    for b0 in range(0, len(deltas), block_size):
        block = deltas[b0 : b0 + block_size]
        mn = min(d - (1 << bits) if d >> (bits - 1) else d for d in block)
        adj = [(d - mn) & mask for d in block]
        widths, body = [], bytearray()
        for m in range(miniblocks):
            part = adj[m * mb : (m + 1) * mb]
            if not part:
                widths.append(junk)
                continue
            w = max(part).bit_length() if width is None else width
            widths.append(w)
            body += sum(x << (i * w) for i, x in enumerate(part)).to_bytes(mb * w // 8, "little")
        out += svarint_encode(mn, bits) + bytes(widths) + body
    return bytes(out)


@pytest.mark.parametrize("bits", (32, 64))
@pytest.mark.parametrize("n", _DBP_SIZES)
def test_dbp_decode_native_matches_numpy(bits, n):
    """dbp_decode returns the numpy decoder's values and end position,
    for a stream at a nonzero offset with bytes after it, in bytes and in
    a memoryview."""
    delta = _dbp_native()
    dtype = np.int32 if bits == 32 else np.int64
    info = np.iinfo(dtype)
    rng = np.random.default_rng(n * bits + 1)
    for v in (
        rng.integers(info.min, info.max, n, dtype=dtype, endpoint=True),
        np.cumsum(rng.integers(0, 1000, n)).astype(dtype),
        np.full(n, -7, dtype=dtype),
        rng.integers(-3, 4, n).astype(dtype),
    ):
        stream = delta.encode_binary_packed(v, bits)
        buf = b"\x80junk" + stream + b"\xff\x01tail"
        for b in (buf, memoryview(buf)):
            got = _dbp_both(b, bits, 5)
            assert got[0] == got[1] == (v.tolist(), 5 + len(stream))


@pytest.mark.parametrize("bits", (32, 64))
def test_dbp_decode_wraparound_and_every_width(bits):
    """Deltas that wrap modulo 2**bits, and streams whose miniblocks are
    every width from 0 to 64 (above `bits`, the values wrap too)."""
    dtype = np.int32 if bits == 32 else np.int64
    lo, hi = np.iinfo(dtype).min, np.iinfo(dtype).max
    delta = _dbp_native()
    for vec in (
        [lo, hi] * 16 * 5,
        [hi, lo, 0, hi, -1, lo + 1],
        [lo] + [hi] * 200,
        list(range(hi - 300, hi)) + [lo],
    ):
        v = np.array(vec, dtype=dtype)
        stream = delta.encode_binary_packed(v, bits)
        assert _dbp_both(stream, bits) == [(v.tolist(), len(stream))] * 2
    rng = np.random.default_rng(bits)
    for w in range(65):
        d = rng.integers(0, 1 << min(w, bits - 1, 62), 300, dtype=np.int64) if w else np.zeros(300, np.int64)
        v = np.cumsum(d).astype(dtype)
        stream = _dbp_stream(v, bits, width=w)
        assert _dbp_both(stream, bits) == [(v.tolist(), len(stream))] * 2, w


@pytest.mark.parametrize(
    "block_size,miniblocks", [(256, 8), (1024, 8), (128, 1), (512, 4), (384, 3)]
)
@pytest.mark.parametrize("junk", (0, 9, 64, 255))
def test_dbp_decode_any_block_layout(block_size, miniblocks, junk):
    """Streams from other writers: any block size that is a multiple of
    128, any miniblock count that leaves multiples of 32 values, with
    garbage width bytes on the unneeded trailing miniblocks."""
    rng = np.random.default_rng(block_size + miniblocks + junk)
    for bits, dtype in ((32, np.int32), (64, np.int64)):
        for n in (1, 2, 33, block_size, block_size + 1, 2 * block_size + 40, 3001):
            v = np.cumsum(rng.integers(-500, 5000, n)).astype(dtype)
            stream = _dbp_stream(v, bits, block_size, miniblocks, junk=junk)
            assert _dbp_both(stream + b"\x07", bits) == [(v.tolist(), len(stream))] * 2


def test_dbp_decode_truncated_raises():
    """A stream cut at any byte raises IndexError on both decoders. (The
    numpy decoder used to return wrong values for a stream cut inside a
    block's width bytes: 300 int32 values in 422 bytes cut to 338.)"""
    delta = _dbp_native()
    rng = np.random.default_rng(0)
    v = np.cumsum(rng.integers(0, 1000, 300)).astype(np.int32)
    stream = delta.encode_binary_packed(v, 32)
    assert len(stream) == 422
    assert _dbp_both(stream[:338], 32) == [IndexError] * 2
    streams = [(stream, 32)]
    for bits, dtype in ((32, np.int32), (64, np.int64)):
        w = rng.integers(-(2**20), 2**20, 700).astype(dtype)
        streams += [(delta.encode_binary_packed(w, bits), bits), (_dbp_stream(w, bits, 256, 8, junk=200), bits)]
    for s, bits in streams:
        for cut in range(len(s)):
            assert _dbp_both(s[:cut], bits) == [IndexError] * 2, cut
            assert _dbp_both(memoryview(s)[:cut], bits) == [IndexError] * 2, cut


def test_dbp_decode_rejects_malformed_streams():
    """A needed miniblock wider than 64 bits, a min-delta varint beyond
    64 bits and a count the stream cannot hold raise on both decoders,
    the same type."""
    from parquet_go_ray.codecs._util import uvarint_encode

    v = np.arange(100, dtype=np.int64) * 3
    stream = _dbp_stream(v, 64)
    hdr = len(uvarint_encode(128) + uvarint_encode(4) + uvarint_encode(100)) + 1
    wide = bytearray(stream)
    wide[hdr + 1] = 65  # the block's min varint is 1 byte (6)
    assert _dbp_both(bytes(wide), 64) == [ValueError] * 2
    over = stream[:hdr] + b"\xff" * 10 + b"\x01" + stream[hdr + 1 :]
    assert _dbp_both(over, 64) == [ValueError] * 2
    many = uvarint_encode(128) + uvarint_encode(4) + uvarint_encode(10**9) + stream[hdr - 1 :]
    assert _dbp_both(many, 64) == [IndexError] * 2
    # a 32-bit layout field too large for Arrow's reader
    huge = uvarint_encode(128 << 32) + stream[2:]
    assert _dbp_both(huge, 64) == [ValueError] * 2


@pytest.mark.parametrize("seed", range(4))
def test_dbp_decode_corruption_fuzz(seed):
    """Random byte changes in valid streams: both decoders return the
    same values and end, or raise the same exception type; neither
    crashes. Run under -X faulthandler."""
    delta = _dbp_native()
    rng = np.random.default_rng(seed)
    for it in range(500):
        bits = (32, 64)[it % 2]
        n = int(rng.integers(0, 600))
        v = np.cumsum(rng.integers(-50, 1000, n)).astype(np.int32 if bits == 32 else np.int64)
        stream = bytearray(
            delta.encode_binary_packed(v, bits) if it % 3 else _dbp_stream(v, bits, 256, 8, junk=77)
        )
        for _ in range(int(rng.integers(1, 4))):
            i = int(rng.integers(0, len(stream)))
            stream[i] = int(rng.integers(0, 256)) if it % 4 else stream[i] ^ (1 << int(rng.integers(0, 8)))
        got = _dbp_both(bytes(stream), bits)
        assert got[0] == got[1], it
        assert got[0] in (IndexError, ValueError) or isinstance(got[0], tuple)


def test_dbp_callers_decode_alike_without_kernel(tmp_path):
    """Every DELTA_BINARY_PACKED decode caller gives the same result with
    the kernel and with native._LIBS["_delta_native.c"] = False: chunk
    codecs (FSST lengths, DLBA, DBA, int32/int64 DBP, ALP) and the wire
    reader on pyarrow-written DELTA_* pages."""
    import pyarrow.parquet as pq

    from parquet_go_ray.codecs import parquet_wire_read

    _dbp_native()
    strs = pa.array([f"https://host{i % 13}.example/p/{i * 7919 % 1000}" for i in range(1500)])
    cases = [
        (strs, R.FSST),
        (strs, R.DELTA_LENGTH_BYTE_ARRAY),
        (strs, R.DELTA_BYTE_ARRAY),
        (pa.array(np.cumsum(np.arange(3000) % 17), pa.int64()), R.DELTA_BINARY_PACKED),
        (pa.array(np.arange(3000, dtype=np.int32) * -3), R.DELTA_BINARY_PACKED),
        (pa.array(np.round(np.linspace(0, 99, 2000), 2)), R.ALP_FLOAT),
    ]
    blobs = [encode_array(arr, codec) for arr, codec in cases]
    assert [b[4] for b in blobs] == [c for _, c in cases]
    t = pa.table(
        {
            "i32": pa.array(np.cumsum(np.arange(5000) % 11).astype(np.int32)),
            "i64": pa.array(np.arange(5000, dtype=np.int64) * -(10**12)),
            "dlba": pa.array([f"value {i * 31 % 977}" for i in range(5000)]),
            "dba": pa.array([f"https://example.org/{i // 7}/{i}" for i in range(5000)]),
        }
    )
    path = str(tmp_path / "delta.parquet")
    pq.write_table(
        t,
        path,
        use_dictionary=False,
        column_encoding={
            "i32": "DELTA_BINARY_PACKED",
            "i64": "DELTA_BINARY_PACKED",
            "dlba": "DELTA_LENGTH_BYTE_ARRAY",
            "dba": "DELTA_BYTE_ARRAY",
        },
    )
    encodings = {
        pq.ParquetFile(path).metadata.row_group(0).column(i).encodings for i in range(4)
    }
    assert {e for es in encodings for e in es} >= {
        "DELTA_BINARY_PACKED", "DELTA_LENGTH_BYTE_ARRAY", "DELTA_BYTE_ARRAY"
    }
    native_out = [decode_array(b) for b in blobs], parquet_wire_read.read_table(path)
    with _delta_kernel_off():
        numpy_out = [decode_array(b) for b in blobs], parquet_wire_read.read_table(path)
    for (arr, codec), a, b in zip(cases, native_out[0], numpy_out[0]):
        assert a.equals(arr) and b.equals(arr), R.CODEC_NAMES[codec]
    for col in t.column_names:
        want = t.column(col).combine_chunks()
        for got in (native_out[1], numpy_out[1]):
            g = got.column(col).combine_chunks()
            assert g.cast(want.type).equals(want), col


# ----------------------------------------------- chunk-record CRC


_CRC_ARRAYS = {
    R.BOOLEAN: pa.array([True, None, False, True] * 40),
    R.INT32: pa.array(list(range(-50, 250)) + [None], pa.int32()),
    R.INT64: pa.array([3, 3, 9, None, 2**40] * 60, pa.int64()),
    R.FLOAT: pa.array([0.5, 1.25, None] * 40, pa.float32()),
    R.DOUBLE: pa.array([0.5, 1.25, None, 3.75] * 40, pa.float64()),
    R.BYTE_ARRAY: pa.array([f"doc {i % 17}" for i in range(300)] + [None]),
    R.FIXED_LEN_BYTE_ARRAY: pa.array([b"abcd", b"efgh", None] * 20, pa.binary(4)),
}


def _crc_blobs():
    for ptype, arr in _CRC_ARRAYS.items():
        for codec in R.SUPPORTED[ptype]:
            yield f"{R.PTYPE_NAMES[ptype]}:{R.CODEC_NAMES[codec]}", encode_array(arr, codec)
    yield "zstd", encode_array(_CRC_ARRAYS[R.INT64], compression="zstd")
    yield "list", encode_array(pa.array([[1, 2], None, [], [3]] * 20))
    yield "struct", encode_array(pa.array([{"a": 1, "b": "x"}, None, {"a": 2, "b": None}] * 9))
    yield "map", encode_array(pa.array([[("k", 1)], None, [("j", 2), ("k", 3)]] * 9, pa.map_(pa.string(), pa.int64())))
    yield "other", encode_array(pa.array([None, None], pa.null()))


def test_blob_crc32_is_body_crc():
    """chunk.blob_crc32 reads the trailer: zlib.crc32 of everything before
    it, for every codec and structural blob. zlib.crc32 of a whole blob is
    CRC-32's residue, one constant for every blob, so it names no blob."""
    import zlib

    from parquet_go_ray.codecs import chunk

    names = []
    for name, blob in _crc_blobs():
        assert chunk.blob_crc32(blob) == zlib.crc32(blob[:-4]), name
        assert zlib.crc32(blob) == chunk._WHOLE_BLOB_CRC, name
        names.append(name)
    assert len(names) == sum(map(len, (R.SUPPORTED[p] for p in _CRC_ARRAYS))) + 5


def test_chunk_record_crcs_are_body_crcs():
    """encode_table's records and a file-level dict page carry the CRC32
    of their payload's body, the payload's trailer, one per blob."""
    import zlib

    from parquet_go_ray.codecs.dictionary import DictState
    from parquet_go_ray.stages.encode import _dict_page_rows, encode_table

    t = pa.table(
        {
            "url": [f"https://h{i % 5}/{i}" for i in range(500)],
            "n": pa.array(range(500), pa.int64()),
            "tags": pa.array([[i % 3] for i in range(500)]),
        }
    )
    state = DictState()
    state.insert(pa.array(["en", "de", "fr"]))
    seen = set()
    for records in (encode_table(t), _dict_page_rows({"lang": state}, "s0", None)):
        for payload, crc in zip(records.column("payload").to_pylist(), records.column("crc32").to_pylist()):
            assert crc == zlib.crc32(payload[:-4]) == int.from_bytes(payload[-4:], "little")
            seen.add(crc)
    assert len(seen) == 4


# ------------------------------------ one CRC pass per chunk on decode


def _crc_groups():
    """Two chunk groups of the same shape (so a blob of one decodes in
    the other): url, a lang column with nulls, and ints."""
    from parquet_go_ray.stages.encode import encode_table

    def table(k):
        return pa.table(
            {
                "url": [f"https://h{(i + k) % 7}.example/{i * k}" for i in range(400)],
                "lang": [None if i % 9 == 0 else ["en", "de", "fr"][(i + k) % 3] for i in range(400)],
                "n": pa.array(np.arange(400) * (k + 1), pa.int64()),
            }
        )

    return encode_table(table(1), bloom_columns=()), encode_table(table(2), bloom_columns=())


def _corrupt_records(records, other, column: str, kind: str):
    """records with `column`'s payload corrupted: a flipped body byte, a
    flipped trailer byte, or the same column's blob from `other` (a valid
    blob with its valid trailer). The record's crc32 is left as is."""
    names = records.column("column").to_pylist()
    i = names.index(column)
    payloads = records.column("payload").to_pylist()
    blob = bytearray(payloads[i])
    if kind == "body":
        blob[len(blob) // 2] ^= 0x01
    elif kind == "trailer":
        blob[-1] ^= 0x01
    else:
        blob = other.column("payload")[other.column("column").to_pylist().index(column)].as_py()
        assert blob != payloads[i]
    payloads[i] = bytes(blob)
    j = records.schema.get_field_index("payload")
    return records.set_column(j, "payload", pa.array(payloads, records.schema.field(j).type))


_CORRUPTIONS = ("body", "trailer", "swapped")


def _crc_callers():
    """Every stages.decode reader that checks chunk CRCs, as
    (name, column it reads first, call)."""
    from parquet_go_ray.stages import decode as D

    return {
        "decode_chunk_table": ("url", D.decode_chunk_table),
        "isnull": ("lang", lambda t: D.isnull_chunk_table(t, "lang", set())),
        "isnull_output": ("n", lambda t: D.isnull_chunk_table(t, "lang", set(), ["n"])),
        "search_wanted": ("lang", lambda t: D.search_chunk_table(t, "lang", wanted=["de"])),
        "search_pred": (
            "lang",
            lambda t: D.search_chunk_table(t, "lang", pred=lambda a: pa.compute.equal(a, b"de")),
        ),
        "search_output": ("url", lambda t: D.search_chunk_table(t, "lang", wanted=["de"], columns=["url"])),
    }


@pytest.mark.parametrize("kind", _CORRUPTIONS)
@pytest.mark.parametrize("caller", sorted(_crc_callers()))
def test_one_crc_pass_refuses_corrupt_chunks(caller, kind):
    """A flipped body byte, a flipped trailer byte and another chunk's
    valid blob each raise ChunkError naming the column, through every
    reader that checks a chunk record's CRC."""
    from parquet_go_ray.codecs.chunk import ChunkError

    column, call = _crc_callers()[caller]
    records, other = _crc_groups()
    assert call(records).num_rows  # intact: reads rows
    with pytest.raises(ChunkError, match=f"checksum mismatch for column {column}"):
        call(_corrupt_records(records, other, column, kind))


def test_one_crc_pass_is_one_full_crc(monkeypatch):
    """decode_chunk_table runs zlib.crc32 over each blob once."""
    import zlib

    from parquet_go_ray.codecs import chunk
    from parquet_go_ray.stages.decode import decode_chunk_table

    records, _ = _crc_groups()
    sizes = []
    crc32 = zlib.crc32

    def counting_crc32(data, value=0):
        sizes.append(len(data))
        return crc32(data, value)

    monkeypatch.setattr(chunk.zlib, "crc32", counting_crc32)
    decode_chunk_table(records)
    blobs = records.column("payload").to_pylist()
    assert sorted(sizes) == sorted(len(b) - 4 for b in blobs)


def test_legacy_record_crc_still_reads():
    """A record from before records carried the trailer holds the CRC of
    the whole blob (the residue constant): it still decodes, and its
    blob's body is still checked."""
    import zlib

    from parquet_go_ray.codecs.chunk import ChunkError
    from parquet_go_ray.stages.decode import decode_chunk_table

    records, other = _crc_groups()
    legacy = [zlib.crc32(b) for b in records.column("payload").to_pylist()]
    j = records.schema.get_field_index("crc32")
    old = records.set_column(j, "crc32", pa.array(legacy, records.schema.field(j).type))
    assert decode_chunk_table(old).equals(decode_chunk_table(records))
    with pytest.raises(ChunkError, match="checksum mismatch for column url"):
        decode_chunk_table(_corrupt_records(old, other, "url", "body"))
