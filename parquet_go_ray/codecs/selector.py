"""Automatic codec selection: sample each column chunk, trial-encode every
candidate codec valid for its physical type, pick minimum bytes-per-value.

This is the north rule's extension over the reference: parquet-go's
default encoding choice is static per type (node.go:417-433 — byte arrays
default to DELTA_LENGTH_BYTE_ARRAY, everything else PLAIN); here the
choice is data-driven per chunk, deterministic given the chunk bytes
(stride sampling, fixed tie-break by codec id order in the registry).
"""

from __future__ import annotations

import pyarrow as pa

from . import registry as R

SAMPLE_VALUES = 512  # values sampled per trial
MIN_SAMPLE = 64


def _sample(values: pa.Array, k: int = SAMPLE_VALUES) -> pa.Array:
    n = len(values)
    if n <= k:
        return values
    stride = n // k
    # strided head sample: deterministic, touches the whole chunk
    idx = pa.array(range(0, stride * k, stride))
    return values.take(idx)


def select(
    values: pa.Array,
    ptype: int,
    ctx: dict | None = None,
    compression: str | None = None,
) -> int:
    """values: null-free pa.Array. Returns the winning codec id.

    When `ctx` is given, reusable trial artifacts are stored there (the
    FSST symbol table trained on the sample), so the final full-chunk
    encode does not redo the work. When a chunk-level `compression` is
    configured, candidates are judged by their size AFTER that codec —
    a cheap lightweight encoding + zstd can beat a heavier encoding.
    """
    from . import chunk as chunk_mod

    candidates = R.SUPPORTED[ptype]
    if len(candidates) == 1 or len(values) == 0:
        return candidates[0]
    if len(values) < MIN_SAMPLE:
        sample = values
    else:
        sample = _sample(values)
    trial_ctx: dict = dict(ctx or {})
    if ptype == R.BYTE_ARRAY and R.FSST in candidates and "fsst_table" not in trial_ctx:
        from . import fsst
        from .dictionary import _byte_array_buffers

        data, _off = _byte_array_buffers(sample)
        trial_ctx["fsst_table"] = fsst.train(data)
    codec_obj = None
    if compression:
        import pyarrow as _pa

        codec_obj = _pa.Codec(compression)
    best_codec = candidates[0]
    best_size = None
    for codec in candidates:
        try:
            payload, _ = chunk_mod._encode_payload(sample, ptype, codec, trial_ctx)
        except Exception:
            continue
        size = (
            len(codec_obj.compress(payload, asbytes=True))
            if codec_obj is not None
            else len(payload)
        )
        if best_size is None or size < best_size:
            best_size = size
            best_codec = codec
    if ctx is not None:
        ctx.update(trial_ctx)
    return best_codec
