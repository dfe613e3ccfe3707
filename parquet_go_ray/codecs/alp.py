"""ALP: adaptive lossless floating-point compression (decimal path).

Spec lineage: ALP (Afroozeh & Boncz, SIGMOD/VLDB 2023, public)
observes that most real-world doubles are decimals — a price, a
percentage, a rounded measurement — so `v * 10^e` is an exact integer
for a small per-chunk exponent e, and the integers compress far better
than the IEEE bits (delta / frame-of-reference / bit-packing). This is
that decimal path, vectorized end to end:

  wire: u8 width | u8 e | u32 n | u32 n_exc |
        n_exc * (u32 pos) | n_exc * raw floats | delta-packed ints

- The exponent is chosen per chunk: the SMALLEST e in 0..MAX_E whose
  scaled values round-trip bit-exactly for every value (deterministic
  given the chunk); values that don't round-trip at the best e —
  non-finite, |d| too large, true high-entropy mantissas — become
  EXCEPTIONS stored verbatim at their positions (the paper's design;
  their slot in the int stream is filled with the previous valid int
  so the delta stream stays smooth).
- "Round-trips" means `d / 10^e` reproduces the ORIGINAL BITS, and
  decode performs exactly that division, so the codec is lossless by
  construction for every payload including -0.0 (NaN/inf ride the
  exception path).
- The integer stream reuses DELTA_BINARY_PACKED (delta.py), so ALP
  inherits its vectorized block packer and C decode hot loop.

The automatic selector only picks ALP when the measured bytes beat
PLAIN/DICT/BYTE_STREAM_SPLIT/XOR on the chunk sample: decimal data
wins big (2-decimal prices pack to ~2 B/value), random mantissas lose
(everything becomes an exception) and fall back automatically.
"""

from __future__ import annotations

import struct

import numpy as np

from . import delta

MAX_E = 14  # 10^14 < 2^53: scaled decimals stay exactly representable
_POW10 = 10.0 ** np.arange(MAX_E + 1)
# |d| bound: int64-safe AND exactly representable as a double
_D_MAX = float(2**53 - 1)


def _roundtrip_mask(v: np.ndarray, e: int) -> tuple[np.ndarray, np.ndarray]:
    """(mask of values that survive scale e losslessly, scaled ints)."""
    with np.errstate(invalid="ignore", over="ignore"):
        d = np.round(v * v.dtype.type(_POW10[e]))
        ok = np.isfinite(d) & (np.abs(d) <= _D_MAX)
        di = np.where(ok, d, 0.0).astype(np.int64)
        back = (di.astype(v.dtype) / v.dtype.type(_POW10[e])).astype(v.dtype)
    bits = np.uint32 if v.dtype == np.float32 else np.uint64
    ok &= back.view(bits) == v.view(bits)
    return ok, di


def _choose_e(v: np.ndarray) -> int:
    """Smallest e with zero exceptions; else the e with most survivors
    (ties to the smaller e). Deterministic given the values."""
    best_e, best_hits = 0, -1
    for e in range(MAX_E + 1):
        ok, _ = _roundtrip_mask(v, e)
        hits = int(ok.sum())
        if hits == len(v):
            return e
        if hits > best_hits:
            best_e, best_hits = e, hits
    return best_e


def encode(values: np.ndarray) -> bytes:
    width = values.dtype.itemsize
    if width not in (4, 8):
        raise ValueError(f"alp supports float32/float64, got {values.dtype}")
    n = len(values)
    if n == 0:
        return struct.pack("<BBII", width, 0, 0, 0)
    v = np.ascontiguousarray(values)
    e = _choose_e(v)
    ok, d = _roundtrip_mask(v, e)
    exc_pos = np.flatnonzero(~ok).astype(np.uint32)
    # fill exception slots with the previous valid int (first slot: the
    # first valid int) so the delta stream stays smooth
    if len(exc_pos):
        valid_idx = np.flatnonzero(ok)
        if len(valid_idx) == 0:
            d = np.zeros(n, dtype=np.int64)
        else:
            # index of the most recent valid position at or before i
            fill = np.searchsorted(valid_idx, np.arange(n), side="right") - 1
            d = d[valid_idx[np.clip(fill, 0, None)]]
    head = struct.pack("<BBII", width, e, n, len(exc_pos))
    packed = delta.encode_binary_packed(d, 64)
    return (
        head
        + exc_pos.tobytes()
        + v[exc_pos.astype(np.int64)].tobytes()
        + packed
    )


def decode(payload: bytes, dtype) -> np.ndarray:
    width, e, n, n_exc = struct.unpack_from("<BBII", payload, 0)
    dtype = np.dtype(dtype)
    if n and dtype.itemsize != width:
        raise ValueError(f"alp chunk is {width}-byte floats, requested {dtype}")
    if n == 0:
        return np.zeros(0, dtype=dtype)
    off = struct.calcsize("<BBII")
    exc_pos = np.frombuffer(payload, dtype=np.uint32, count=n_exc, offset=off)
    off += 4 * n_exc
    exc_val = np.frombuffer(payload, dtype=dtype, count=n_exc, offset=off)
    off += width * n_exc
    d, _ = delta.decode_binary_packed(payload, 64, off)
    out = (d[:n].astype(dtype) / dtype.type(_POW10[e])).astype(dtype)
    if n_exc:
        out[exc_pos.astype(np.int64)] = exc_val
    return out
