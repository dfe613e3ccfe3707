"""Per-chunk min/max/sum statistics (stages/encode.py `_stat_bounds`,
`_stat_sum`): every supported flat type gets its bounds or an explicit
None, and no type relies on a swallowed kernel error."""

import datetime
import decimal

import numpy as np
import pyarrow as pa
import pytest

from parquet_go_ray.stages.encode import _stat_bounds, _stat_sum

_INTS = ("int8", "int16", "int32", "int64", "uint8", "uint16", "uint32", "uint64")

# (type, values, expected (vmin, vmax), expected vsum)
_CASES = {
    **{
        name: (getattr(pa, name)(), [5, None, 1, 9], ("1", "9"), "15")
        for name in _INTS
    },
    "float16": (
        pa.float16(),
        np.array([1.5, -2.25, 4.0], dtype=np.float16),
        ("-2.25", "4.0"),
        "3.25",
    ),
    "float32": (pa.float32(), [1.5, None, -2.25], ("-2.25", "1.5"), "-0.75"),
    "float64": (pa.float64(), [1.5, None, -2.25], ("-2.25", "1.5"), "-0.75"),
    "bool": (pa.bool_(), [True, None, False, True], ("false", "true"), "2"),
    "date32": (
        pa.date32(),
        [datetime.date(2021, 3, 4), datetime.date(2020, 1, 2)],
        ('"2020-01-02"', '"2021-03-04"'),
        None,
    ),
    "date64": (
        pa.date64(),
        [datetime.date(2021, 3, 4), None, datetime.date(2020, 1, 2)],
        ('"2020-01-02"', '"2021-03-04"'),
        None,
    ),
    "time32": (pa.time32("s"), [3, 1], (None, None), None),
    "time64": (pa.time64("us"), [3, 1], (None, None), None),
    "timestamp_tz": (
        pa.timestamp("us", tz="Europe/Paris"),
        [7, None, 2],
        ("2", "7"),
        None,
    ),
    "duration": (pa.duration("ms"), [3, 1], (None, None), None),
    "decimal128": (
        pa.decimal128(6, 2),
        [decimal.Decimal("1.25"), decimal.Decimal("-3.50")],
        (None, None),
        None,
    ),
    "string": (pa.string(), ["pear", None, "apple"], ('"apple"', '"pear"'), None),
    "large_string": (
        pa.large_string(),
        ["pear", "apple"],
        ('"apple"', '"pear"'),
        None,
    ),
    "binary": (pa.binary(), [b"b", b"a"], (None, None), None),
    "fixed_size_binary": (pa.binary(2), [b"bb", b"aa"], (None, None), None),
}


@pytest.mark.parametrize("name", sorted(_CASES))
def test_stats_per_type(name):
    ty, values, bounds, vsum = _CASES[name]
    arr = pa.array(values, type=ty)
    assert _stat_bounds(arr) == bounds
    assert _stat_sum(arr) == vsum
    # an all-null chunk: no bounds, a zero sum
    nulls = pa.nulls(3, type=ty)
    assert _stat_bounds(nulls) == (None, None)
    assert _stat_sum(nulls) == "0"
