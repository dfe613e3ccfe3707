"""Codec selection by trial: sample the column chunk, encode the sample
with every candidate, keep the smallest.

This module is the only selector. The chunk store calls `select`; the
wire writer (`parquet_wire._select_encoding`) calls `sample` and
`smallest` with its own page encoders. A trial that raises makes the
selection raise.

This is the north rule's extension over the reference: parquet-go's
default encoding choice is static per type (node.go:417-433 — byte arrays
default to DELTA_LENGTH_BYTE_ARRAY, everything else PLAIN); here the
choice is data-driven per chunk, deterministic given the chunk bytes
(stride sampling, ties go to the earlier candidate).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from . import fsst
from . import registry as R
from .dictionary import _byte_array_buffers, is_byte_array

SAMPLE_VALUES = 512  # values sampled per trial
MIN_SAMPLE = 64


def sample(values: pa.Array) -> pa.Array:
    """Strided sample of at most SAMPLE_VALUES null-free values. Byte
    arrays are also capped near fsst.TRAIN_SAMPLE bytes (FSST trains on
    that many bytes anyway), but never below MIN_SAMPLE values."""
    n = len(values)
    if n < MIN_SAMPLE:
        return values
    k = min(n, SAMPLE_VALUES)
    offsets = _byte_array_buffers(values)[1] if is_byte_array(values.type) else None
    if offsets is not None and offsets[-1]:
        k = min(k, max(MIN_SAMPLE, fsst.TRAIN_SAMPLE * n // int(offsets[-1])))
    # evenly strided: deterministic, touches the whole chunk
    idx = np.arange(k) * n // k
    if offsets is not None:
        # keep the values up to the one that reaches TRAIN_SAMPLE bytes
        ends = np.cumsum(offsets[idx + 1] - offsets[idx])
        idx = idx[: max(MIN_SAMPLE, int(np.searchsorted(ends, fsst.TRAIN_SAMPLE)) + 1)]
    return values if len(idx) == n else values.take(pa.array(idx))


def smallest(sample: pa.Array, candidates, trial):
    """The candidate whose `trial(sample, candidate)` size is smallest;
    a tie goes to the earlier candidate."""
    best, best_size = candidates[0], None
    for cand in candidates:
        size = trial(sample, cand)
        if best_size is None or size < best_size:
            best, best_size = cand, size
    return best


def select(
    values: pa.Array,
    ptype: int,
    ctx: dict | None = None,
    compression: str | None = None,
) -> int:
    """values: null-free pa.Array. Returns the winning chunk-store codec id.

    When `ctx` is given, reusable trial artifacts are stored there (the
    FSST symbol table trained on the sample), so the final full-chunk
    encode does not redo the work. When a chunk-level `compression` is
    configured, candidates are judged by their size AFTER that codec —
    a cheap lightweight encoding + zstd can beat a heavier encoding.
    """
    from . import chunk as chunk_mod

    # extension codecs are chosen per column (codec_overrides), never here
    cands = [c for c in R.SUPPORTED[ptype] if not R.is_extension(c)]
    if len(cands) == 1 or len(values) == 0:
        return cands[0]
    s = sample(values)
    trial_ctx: dict = dict(ctx or {})
    if R.FSST in cands and "fsst_table" not in trial_ctx:
        trial_ctx["fsst_table"] = fsst.train(_byte_array_buffers(s)[0])
    codec_obj = pa.Codec(compression) if compression else None

    def size(s: pa.Array, codec: int) -> int:
        payload, _ = chunk_mod._encode_payload(s, ptype, codec, trial_ctx)
        return len(codec_obj.compress(payload, asbytes=True) if codec_obj else payload)

    best = smallest(s, cands, size)
    if ctx is not None:
        ctx.update(trial_ctx)
    return best
