"""User-extension codec surface (SURVEY §2.7 / encoding.go:20 parity):
register a custom codec per process, select it per column, round-trip
through both the direct API and the Ray pipeline."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest


def _ipc_bytes(arr: pa.Array) -> bytes:
    t = pa.table({"c": arr})
    sink = pa.BufferOutputStream()
    with pa.ipc.new_stream(sink, t.schema) as w:
        w.write_table(t)
    return sink.getvalue().to_pybytes()


def _xor_encode(values: pa.Array) -> bytes:
    raw = np.frombuffer(_ipc_bytes(values), dtype=np.uint8)
    return (raw ^ np.uint8(0xB1)).tobytes()


def _xor_decode(payload: bytes, n: int) -> pa.Array:
    raw = (np.frombuffer(payload, dtype=np.uint8) ^ np.uint8(0xB1)).tobytes()
    with pa.ipc.open_stream(pa.py_buffer(raw)) as r:
        t = r.read_all()
    return t.column("c").combine_chunks()


def _register():
    from parquet_go_ray.codecs import registry as R

    R.register_codec(
        77,
        "xor_ipc",
        (R.INT64, R.BYTE_ARRAY),
        _xor_encode,
        _xor_decode,
    )


def test_extension_codec_direct_roundtrip():
    _register()
    from parquet_go_ray.codecs import registry as R
    from parquet_go_ray.codecs.chunk import decode_array, encode_array

    for arr in (
        pa.array([1, 2, None, 4], type=pa.int64()),
        pa.array(["a", None, "ccc"], type=pa.string()),
    ):
        blob = encode_array(arr, codec=R.CODEC_IDS["xor_ipc"])
        assert blob[4] == 77  # codec id in the chunk header
        assert decode_array(blob).equals(arr)


def test_extension_codec_rejects_wrong_ptype():
    _register()
    from parquet_go_ray.codecs import registry as R
    from parquet_go_ray.codecs.chunk import ChunkError, encode_array

    with pytest.raises(ChunkError):
        encode_array(
            pa.array([1.5, 2.5], type=pa.float64()),
            codec=R.CODEC_IDS["xor_ipc"],
        )


def test_extension_codec_unregistered_process_errors():
    _register()
    from parquet_go_ray.codecs import registry as R
    from parquet_go_ray.codecs.chunk import ChunkError, decode_array, encode_array

    blob = encode_array(pa.array(["x", "y"]), codec=R.CODEC_IDS["xor_ipc"])
    saved = R.EXTENSION_CODECS.pop(77)
    try:
        with pytest.raises(ChunkError, match="not registered"):
            decode_array(blob)
    finally:
        R.EXTENSION_CODECS[77] = saved



def test_extension_codec_through_ray_pipeline(ray_session):
    """Worker-side registration: everything the workers need is defined
    INSIDE this function so cloudpickle ships it by value — the same
    property a user's importable pipeline module gives them for free."""
    import ray.data

    def ipc_bytes(arr):
        t = pa.table({"c": arr})
        sink = pa.BufferOutputStream()
        with pa.ipc.new_stream(sink, t.schema) as w:
            w.write_table(t)
        return sink.getvalue().to_pybytes()

    def xor_encode(values):
        raw = np.frombuffer(ipc_bytes(values), dtype=np.uint8)
        return (raw ^ np.uint8(0xB1)).tobytes()

    def xor_decode(payload, n):
        raw = (np.frombuffer(payload, dtype=np.uint8) ^ np.uint8(0xB1)).tobytes()
        with pa.ipc.open_stream(pa.py_buffer(raw)) as r:
            t = r.read_all()
        return t.column("c").combine_chunks()

    class RegisteringRoundTrip:
        # registration runs in __init__, once per worker process — the
        # documented pattern (a Go user compiles their Encoding in)
        def __init__(self):
            from parquet_go_ray.codecs import registry as R

            R.register_codec(
                77, "xor_ipc", (R.INT64, R.BYTE_ARRAY), xor_encode, xor_decode
            )
            from parquet_go_ray.pipelines.roundtrip import RoundTrip

            self.rt = RoundTrip(codec_overrides={"text": "xor_ipc"})

        def __call__(self, batch):
            return self.rt(batch)

    df = pd.DataFrame(
        {"doc_id": np.arange(100, dtype=np.int64),
         "text": [f"doc {i} body" for i in range(100)]}
    )
    ds = ray.data.from_pandas(df).repartition(4)
    out = (
        ds.map_batches(
            RegisteringRoundTrip, batch_format="pyarrow", concurrency=2
        )
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(out, df)


def test_extension_codec_never_auto_selected(monkeypatch):
    """A registered extension codec only encodes the columns it is
    forced on: automatic selection keeps to the built-in codecs even when
    the extension's payload is the smallest."""
    from parquet_go_ray.codecs import registry as R
    from parquet_go_ray.codecs.chunk import decode_array, encode_array

    for name in ("SUPPORTED", "CODEC_NAMES", "CODEC_IDS", "EXTENSION_CODECS"):
        monkeypatch.setattr(R, name, dict(getattr(R, name)))
    R.register_codec(
        70, "tiny", (R.INT64,), lambda v: b"x",
        lambda payload, n: np.zeros(n, dtype=np.int64),
    )
    arr = pa.array(np.arange(4096, dtype=np.int64))
    blob = encode_array(arr)
    assert not R.is_extension(blob[4])
    assert decode_array(blob).equals(arr)
    assert encode_array(arr, codec=70)[4] == 70
