"""Codec kernel round-trip tests.

Ports the reference's encoding test strategy (SURVEY.md §5 / FIXTURES.md):
- F2: the shared test vectors from encoding/encoding_test.go:30-192,
  run against every codec that supports the type;
- F3: the size schedule from internal/quick/quick.go:12-26 (straddles
  RLE group (8), delta mini-block (32) and block (128) boundaries);
- F4: seeded fuzz-style random round-trips (encoding/fuzz/fuzz.go:128-158).
"""

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
