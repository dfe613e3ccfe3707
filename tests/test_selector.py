"""The one codec selector (codecs/selector.py) shared by the chunk store
and the wire writer: the sample it trial-encodes, and trial errors that
propagate instead of silently dropping a candidate."""

import numpy as np
import pyarrow as pa
import pytest

from parquet_go_ray.codecs import fsst, parquet_wire, selector
from parquet_go_ray.codecs import registry as R


def _numbered(n: int, lengths: np.ndarray) -> pa.Array:
    """Strings that start with their own row number."""
    return pa.array([f"{i:06d}".ljust(int(w), "x") for i, w in zip(range(n), lengths)])


@pytest.mark.parametrize("mean_len", [40, 300, 2000])
def test_byte_array_sample_strided_and_capped(mean_len):
    n = 4096
    lengths = np.random.default_rng(mean_len).integers(mean_len // 2, mean_len * 3 // 2, n)
    col = _numbered(n, lengths)
    s = selector.sample(col)
    rows = np.array([int(v[:6]) for v in s.to_pylist()])
    assert len(rows) >= selector.MIN_SAMPLE
    assert len(rows) <= selector.SAMPLE_VALUES
    # even strides across the whole column, not a head
    stride = -(-n // len(rows))
    assert set(np.diff(rows)) <= {stride - 1, stride}
    assert rows[0] == 0 and rows[-1] >= n - stride
    data = sum(len(v) for v in s.to_pylist())
    if len(rows) > selector.MIN_SAMPLE:
        assert data <= fsst.TRAIN_SAMPLE + lengths.max()


def test_numeric_sample_is_strided():
    col = pa.array(np.arange(4096, dtype=np.int64))
    s = selector.sample(col).to_numpy()
    assert len(s) == selector.SAMPLE_VALUES
    assert (np.diff(s) == 4096 // selector.SAMPLE_VALUES).all()
    short = pa.array(np.arange(selector.MIN_SAMPLE - 1))
    assert selector.sample(short) is short


def test_smallest_ties_go_to_earlier_candidate():
    sizes = {"a": 5, "b": 3, "c": 3}
    assert selector.smallest(None, ["a", "b", "c"], lambda s, c: sizes[c]) == "b"


def test_select_raises_trial_error(monkeypatch):
    from parquet_go_ray.codecs import chunk

    real = chunk._encode_payload

    def failing(values, ptype, codec, ctx=None):
        if codec == R.DELTA_BINARY_PACKED:
            raise RuntimeError("trial failed")
        return real(values, ptype, codec, ctx)

    monkeypatch.setattr(chunk, "_encode_payload", failing)
    with pytest.raises(RuntimeError, match="trial failed"):
        selector.select(pa.array(np.arange(1000, dtype=np.int64)), R.INT64)


def test_wire_select_raises_trial_error(monkeypatch):
    real = parquet_wire._encode_values

    def failing(arr, enc, ct):
        if enc == parquet_wire.E_DELTA_BYTE_ARRAY:
            raise RuntimeError("trial failed")
        return real(arr, enc, ct)

    monkeypatch.setattr(parquet_wire, "_encode_values", failing)
    col = pa.array([f"value-{i}" for i in range(1000)])
    with pytest.raises(RuntimeError, match="trial failed"):
        parquet_wire._select_encoding(col, parquet_wire._ColType(col.type))


def test_wire_dictionary_only_when_it_wins(monkeypatch):
    """The whole column is dictionary-encoded only after the sample's
    dictionary trial won."""
    calls = []
    real = parquet_wire._dictionary
    monkeypatch.setattr(parquet_wire, "_dictionary", lambda a: calls.append(len(a)) or real(a))
    unique = pa.array([f"u{i}" for i in range(5000)])
    enc, vals, _ = parquet_wire._column_encoding(unique, parquet_wire._ColType(unique.type), None)
    assert enc != parquet_wire.E_RLE_DICTIONARY and vals is None
    assert 5000 not in calls
    low = pa.array(["de", "en", "fr"] * 2000)
    enc, vals, idx = parquet_wire._column_encoding(low, parquet_wire._ColType(low.type), None)
    assert enc == parquet_wire.E_RLE_DICTIONARY
    assert len(vals) == 3 and len(idx) == 6000 and calls[-1] == 6000
