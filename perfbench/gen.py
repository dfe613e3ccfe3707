"""Seeded generator for the FIXTURES.md F1 web-page table.

The benchmark owns its inputs: this module does not import the program's
own fixture generator (``sources.webpages``), so a change to the program's
fixtures cannot change what the benchmark measures. The table follows the
F1 shape:

- ``url``: unique per row, host Zipf-skewed over 1000 domains.
- ``warc_ts``: near-monotonic microsecond timestamps with jitter and rare
  jumps.
- ``html``: binary, boilerplate template wrapping the text.
- ``text``: Zipf word frequencies, heavy-tailed (lognormal) lengths.
- ``lang``: 40 codes, Zipf-skewed with ``en`` far ahead.

Everything is drawn from one ``numpy.random.Generator`` per shard, seeded
from (seed, shard), so the same seed gives byte-identical shards.
"""

from __future__ import annotations

import functools
import hashlib

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

SCHEMA = pa.schema(
    [
        pa.field("url", pa.string()),
        pa.field("warc_ts", pa.timestamp("us")),
        pa.field("html", pa.binary()),
        pa.field("text", pa.string()),
        pa.field("lang", pa.string()),
    ]
)
COLUMNS = SCHEMA.names

LANGS = (
    "en de fr es ru ja zh pt it nl pl tr ar cs sv el he ko vi id th fa ro hu "
    "da fi no uk bg hr sk lt sl et lv ca sr ms bn hi"
).split()
TLDS = ("com", "org", "net", "io", "de", "co.uk")
HOSTS = 1000
VOCAB_SIZE = 4096
BASE_TS = 1_577_836_800_000_000  # 2020-01-01T00:00:00Z in microseconds


def _zipf(n: int, s: float) -> np.ndarray:
    p = 1.0 / np.power(np.arange(1, n + 1), s)
    return p / p.sum()


@functools.cache
def _vocab() -> list[bytes]:
    """The word list, the same for every seed: seeds vary the sample
    drawn from the language, not the language."""
    rng = np.random.default_rng(0xF1)
    consonants = np.frombuffer(b"bcdfghjklmnpqrstvwz", dtype=np.uint8)
    vowels = np.frombuffer(b"aeiou", dtype=np.uint8)
    words = []
    for n_syll in rng.integers(1, 5, size=VOCAB_SIZE):
        c = consonants[rng.integers(0, len(consonants), size=n_syll)]
        v = vowels[rng.integers(0, len(vowels), size=n_syll)]
        words.append(np.stack([c, v], axis=1).tobytes())
    return words


def _join_words(vocab: list[bytes], word_idx: np.ndarray, n_words: np.ndarray):
    """Space-joined rows of vocabulary words, built as one byte buffer.
    Returns (data, offsets) in Arrow string layout."""
    lens = np.array([len(w) for w in vocab], dtype=np.int64)
    flat = np.frombuffer(b"".join(vocab), dtype=np.uint8)
    starts = np.concatenate(([0], np.cumsum(lens)[:-1]))
    wl = lens[word_idx] + 1  # each word plus one separator byte
    total = int(wl.sum())
    ends = np.cumsum(wl)
    pos = np.arange(total, dtype=np.int64) - np.repeat(ends - wl, wl)
    src = np.repeat(starts[word_idx], wl) + pos
    is_sep = pos == np.repeat(wl - 1, wl)
    buf = flat[np.minimum(src, len(flat) - 1)].copy()
    buf[is_sep] = ord(" ")
    # drop the separator after each row's last word
    row_last = np.cumsum(n_words) - 1
    keep = np.ones(total, dtype=bool)
    keep[ends[row_last] - 1] = False
    row_bytes = np.add.reduceat(wl, np.concatenate(([0], row_last[:-1] + 1))) - 1
    offsets = np.concatenate(([0], np.cumsum(row_bytes))).astype(np.int32)
    return buf[keep].tobytes(), offsets


def generate_shard(seed: int, shard: int, n_rows: int) -> pa.Table:
    """One shard of the F1 table, a pure function of (seed, shard, n_rows)."""
    vocab = _vocab()
    rng = np.random.default_rng([seed, shard + 1])

    lang = np.array(LANGS, dtype=object)[
        rng.choice(len(LANGS), size=n_rows, p=_zipf(len(LANGS), 1.6))
    ]
    host = rng.choice(HOSTS, size=n_rows, p=_zipf(HOSTS, 1.07))
    w = rng.integers(0, VOCAB_SIZE, size=(n_rows, 2))
    url = [
        f"https://www.{vocab[a].decode()}{h:03d}.{TLDS[h % len(TLDS)]}/{vocab[b].decode()}/p{shard}-{i}"
        for i, (a, b, h) in enumerate(zip(w[:, 0], w[:, 1], host))
    ]

    jitter = rng.exponential(50_000, n_rows).astype(np.int64)
    jumps = (rng.random(n_rows) < 0.001) * rng.integers(0, 3_600_000_000, n_rows)
    ts = BASE_TS + shard * 86_400_000_000 + np.cumsum(jitter + jumps)

    n_words = np.clip(rng.lognormal(3.6, 0.8, n_rows), 5, 800).astype(np.int64)
    word_idx = rng.choice(VOCAB_SIZE, size=int(n_words.sum()), p=_zipf(VOCAB_SIZE, 1.07))
    data, offsets = _join_words(vocab, word_idx, n_words)
    text = pa.StringArray.from_buffers(
        n_rows, pa.py_buffer(offsets.tobytes()), pa.py_buffer(data)
    )
    url = pa.array(url, type=pa.string())
    html = pc.binary_join_element_wise(
        '<html><head><title>',
        pc.utf8_slice_codeunits(text, 0, 40),
        '</title><meta charset="utf-8"/></head><body><nav>home | about | contact</nav><article><p>',
        text,
        "</p></article><footer>&copy; 2020 ",
        url,
        "</footer></body></html>",
        "",
    ).cast(pa.binary())
    return pa.table(
        {
            "url": url,
            "warc_ts": pa.array(ts, type=pa.timestamp("us")),
            "html": html,
            "text": text,
            "lang": pa.array(lang.tolist(), type=pa.string()),
        },
        schema=SCHEMA,
    )


def generate(seed: int, rows: int, rows_per_shard: int) -> list[pa.Table]:
    """The whole table as a list of shards of ``rows_per_shard`` rows."""
    return [
        generate_shard(seed, s, min(rows_per_shard, rows - s * rows_per_shard))
        for s in range((rows + rows_per_shard - 1) // rows_per_shard)
    ]


def write_shards(shards: list[pa.Table], out_dir) -> list[str]:
    """Write shards as snappy parquet files with 2048-row row groups, the
    layout the program's encode and export jobs read."""
    paths = []
    for i, t in enumerate(shards):
        p = f"{out_dir}/shard-{i:05d}.parquet"
        pq.write_table(t, p, compression="snappy", row_group_size=2048)
        paths.append(p)
    return paths


def digest(t: pa.Table) -> str:
    """sha256 over the Arrow IPC stream of a table: equal digests mean
    byte-identical inputs."""
    sink = pa.BufferOutputStream()
    with pa.ipc.new_stream(sink, t.schema) as w:
        w.write_table(t)
    return hashlib.sha256(sink.getvalue().to_pybytes()).hexdigest()


def self_check(rows: int = 600) -> None:
    """Raise if the same seed does not give byte-identical input or two
    seeds give the same input."""
    a, b, c = (generate_shard(s, 3, rows) for s in (11, 11, 12))
    if digest(a) != digest(b):
        raise RuntimeError("generator: same seed gave different inputs")
    if digest(a) == digest(c):
        raise RuntimeError("generator: different seeds gave identical inputs")
