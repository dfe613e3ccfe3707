"""Inverted text index (pipelines/textindex.py): build + AND/OR search
vs a pandas oracle, hash-pruned I/O (non-queried buckets never open),
absent tokens, and the bucketed-store metadata contract."""

import os
import shutil
import stat

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from parquet_go_ray.functions.hashing import bucket_ids
from parquet_go_ray.pipelines.textindex import (
    build_text_index,
    lookup_postings,
    search_docs,
)

WORDS = ["alpha", "beta", "gamma", "delta", "epsilon", "zeta", "eta", "theta"]


@pytest.fixture()
def index(tmp_path, ray_session):
    rng = np.random.default_rng(11)
    texts = [
        " ".join(rng.choice(WORDS, size=rng.integers(3, 12)))
        for _ in range(800)
    ]
    t = pa.table(
        {
            "doc_id": pa.array(np.arange(800, dtype=np.int64)),
            "text": pa.array(texts),
        }
    )
    p = str(tmp_path / "docs.parquet")
    pq.write_table(t, p)
    out = str(tmp_path / "idx")
    info = build_text_index([p], out, num_buckets=8, rows_per_chunk=512)
    assert info["buckets"] >= 1 and info["postings"] > 0
    return out, t.to_pandas()


def _docs_with(df, *toks, any_=False):
    sets = [
        set(df[df["text"].map(lambda s: tok in s.split(" "))]["doc_id"])
        for tok in toks
    ]
    out = sets[0]
    for s in sets[1:]:
        out = out | s if any_ else out & s
    return out


def test_and_search_matches(index):
    out, df = index
    got = set(search_docs(out, ["alpha", "gamma"]).to_pandas()["doc_id"])
    assert got == _docs_with(df, "alpha", "gamma")


def test_or_search_matches(index):
    out, df = index
    got = set(
        search_docs(out, ["alpha", "gamma"], mode="or").to_pandas()["doc_id"]
    )
    assert got == _docs_with(df, "alpha", "gamma", any_=True)


def test_single_token(index):
    out, df = index
    got = set(search_docs(out, ["theta"]).to_pandas()["doc_id"])
    assert got == _docs_with(df, "theta")


def test_absent_token_empty(index):
    out, _ = index
    got = search_docs(out, ["nonexistentword"]).to_pandas()
    assert len(got) == 0


def _phrase_oracle(df, phrase):
    return set(
        df[df["text"].map(lambda s: f" {phrase} " in f" {s} ")]["doc_id"]
    )


def test_phrase_search_matches(index):
    from parquet_go_ray.pipelines.textindex import phrase_docs

    out, df = index
    for phrase in ("alpha gamma", "beta beta", "delta epsilon zeta"):
        got = set(phrase_docs(out, phrase).to_pandas()["doc_id"])
        want = _phrase_oracle(df, phrase)
        assert got == want, phrase
        # sanity: the phrase verify strictly prunes the AND candidates
        assert got <= _docs_with(df, *phrase.split(" "))


def test_phrase_planted_adjacency(tmp_path, ray_session):
    """Adjacency, not co-occurrence: docs with the tokens present but
    never consecutive (or in the wrong order, or split by another
    token) must NOT match; multi-space runs produce empty split pieces
    that break adjacency exactly like the single-space LIKE oracle."""
    from parquet_go_ray.pipelines.textindex import phrase_docs

    texts = [
        "the quick brown fox",  # 0: match
        "quick the brown fox",  # 1: wrong order
        "the slow quick brown",  # 2: "the quick" absent, tokens present
        "a the quick b the quick c",  # 3: match (twice)
        "the  quick",  # 4: double space -> empty piece between
        "the quick",  # 5: match
        "quick brown the",  # 6: tokens present, not adjacent
    ]
    t = pa.table(
        {
            "doc_id": pa.array(np.arange(len(texts), dtype=np.int64)),
            "text": pa.array(texts),
        }
    )
    p = str(tmp_path / "docs.parquet")
    pq.write_table(t, p)
    out = str(tmp_path / "idx")
    build_text_index([p], out, num_buckets=4, rows_per_chunk=512)
    got = set(phrase_docs(out, "the quick").to_pandas()["doc_id"])
    assert got == {0, 3, 5}
    got3 = set(phrase_docs(out, "the quick brown").to_pandas()["doc_id"])
    assert got3 == {0}


def test_postings_are_distinct_per_doc(index):
    """A doc repeating a token many times contributes ONE posting."""
    out, df = index
    posts = lookup_postings(out, ["alpha"]).to_pandas()
    assert posts.duplicated(["token", "doc_id"]).sum() == 0
    assert set(posts["doc_id"]) == _docs_with(df, "alpha")


def test_io_pruned_to_queried_buckets(index):
    """chmod-000 every bucket the queried token does NOT hash to; the
    search must still succeed — proof the non-queried buckets are never
    opened (hash-pruned I/O, the point of the bucketed layout)."""
    out, df = index
    tok = "alpha"
    b = int(bucket_ids(pa.array([tok]), 8)[0])
    data = os.path.join(out, "data")
    locked = []
    try:
        for d in os.listdir(data):
            if d != f"bucket={b:05d}":
                p = os.path.join(data, d)
                os.chmod(p, 0)
                locked.append(p)
        got = set(search_docs(out, [tok]).to_pandas()["doc_id"])
        assert got == _docs_with(df, tok)
    finally:
        for p in locked:
            os.chmod(p, stat.S_IRWXU)


def test_index_store_is_cobucketed(index):
    """The index IS a bucketed encode store: its meta satisfies the SPJ
    co-partitioning contract against itself."""
    from parquet_go_ray.pipelines.spj import check_cobucketed

    out, _ = index
    assert check_cobucketed(out, out) == 8


def test_rejects_non_index_store(tmp_path, ray_session, index):
    from parquet_go_ray.pipelines.encode import encode_job

    out, _ = index
    plain = str(tmp_path / "plain")
    encode_job(
        [str(tmp_path / "docs.parquet")], plain,
        rows_per_chunk=256, bloom_columns=(),
    )
    with pytest.raises(ValueError, match="not a text index"):
        search_docs(plain, ["alpha"])


def test_bm25_matches_duckdb(index, tmp_path):
    """Index-only BM25 must integer-match the corpus-side SQL."""
    import duckdb

    from parquet_go_ray.pipelines.textindex import search_ranked

    out, df = index
    terms = ("alpha", "gamma", "zeta")
    got = (
        search_ranked(out, list(terms))
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    con = duckdb.connect()
    con.register("documents", df)
    inlist = ",".join(f"'{t}'" for t in terms)
    ref = con.execute(
        "WITH toks AS (SELECT doc_id, unnest(string_split(text, ' ')) AS token "
        "FROM documents), "
        "dls AS (SELECT doc_id, len(string_split(text, ' ')) AS dl FROM documents), "
        f"tf AS (SELECT doc_id, token, count(*) AS c FROM toks WHERE token IN ({inlist}) GROUP BY 1, 2), "
        "df AS (SELECT token, count(DISTINCT doc_id) AS d FROM tf GROUP BY token), "
        "n AS (SELECT count(*) AS nn, sum(dl) AS dl_sum FROM dls), "
        "idf AS (SELECT token, CAST(floor(ln((nn - d + 0.5)/(d + 0.5) + 1) * 1000 + 0.5) AS BIGINT) AS idf_millis FROM df, n) "
        "SELECT tf.doc_id, CAST(sum(CAST(floor(idf.idf_millis * (tf.c * 2.2) / (tf.c + "
        "(1.2 * (0.25 + 0.75 * (dls.dl / (n.dl_sum / nn))))) * 1000.0 + 0.5) AS BIGINT)) AS BIGINT) AS score "
        "FROM tf JOIN idf USING (token) JOIN dls USING (doc_id), n "
        "GROUP BY tf.doc_id ORDER BY doc_id"
    ).df()
    assert len(got) == len(ref)
    assert (got["doc_id"].to_numpy() == ref["doc_id"].to_numpy()).all()
    assert (got["score"].to_numpy() == ref["score"].to_numpy()).all()


def test_bm25_topk(index):
    from parquet_go_ray.pipelines.textindex import search_ranked

    out, _ = index
    full = (
        search_ranked(out, ["alpha", "gamma"])
        .to_pandas()
        .sort_values(["score", "doc_id"], ascending=[False, True])
        .reset_index(drop=True)
    )
    top = search_ranked(out, ["alpha", "gamma"], k=5).to_pandas()
    assert len(top) == 5
    assert (top["doc_id"].to_numpy() == full.head(5)["doc_id"].to_numpy()).all()
    assert (top["score"].to_numpy() == full.head(5)["score"].to_numpy()).all()


def test_bm25_rejects_stale_index(index, tmp_path, ray_session):
    """An index whose meta lacks the BM25 constants must fail loudly."""
    import json

    from parquet_go_ray.pipelines.textindex import search_ranked
    from parquet_go_ray.state import manifest

    out, _ = index
    meta = manifest.load_job_meta(out)
    stale = {k: v for k, v in meta.items() if k not in ("n_docs", "dl_sum")}
    manifest.write_job_meta(out, stale)
    try:
        with pytest.raises(ValueError, match="rebuild"):
            search_ranked(out, ["alpha"])
    finally:
        manifest.write_job_meta(out, meta)


def _rank(out, terms):
    from parquet_go_ray.pipelines.textindex import search_ranked

    return (
        search_ranked(out, terms)
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )


def test_update_equals_rebuild(tmp_path, ray_session, index):
    """After replace+add increments, the updated index must score BM25
    identically to a fresh index over the updated corpus."""
    from parquet_go_ray.pipelines.textindex import (
        build_text_index,
        update_text_index,
    )

    out, df = index
    # increment: replace docs 0..49 with edited text, add 50 new docs
    rng = np.random.default_rng(5)
    rep = df.head(50).copy()
    rep["text"] = rep["text"] + " zeta zeta"
    newd = pd.DataFrame(
        {
            "doc_id": np.arange(10_000, 10_050, dtype=np.int64),
            "text": [
                " ".join(rng.choice(WORDS, size=5)) for _ in range(50)
            ],
        }
    )
    inc = pd.concat([rep, newd], ignore_index=True)
    incp = str(tmp_path / "inc.parquet")
    pq.write_table(pa.Table.from_pandas(inc, preserve_index=False), incp)
    info = update_text_index(out, [incp])
    assert info["replaced"] == 50 and info["added"] == 50

    updated = pd.concat([df.iloc[50:], inc], ignore_index=True)
    refp = str(tmp_path / "updated.parquet")
    pq.write_table(pa.Table.from_pandas(updated, preserve_index=False), refp)
    ref_idx = str(tmp_path / "refidx")
    build_text_index([refp], ref_idx, num_buckets=8, rows_per_chunk=512)

    terms = ["alpha", "zeta", "theta"]
    a, b = _rank(out, terms), _rank(ref_idx, terms)
    pd.testing.assert_frame_equal(a, b)
    # replaced docs must rank with their NEW text (zeta boost visible)
    assert set(a[a["doc_id"] < 50]["doc_id"]) == set(range(50))


def test_update_twice_is_consistent(tmp_path, ray_session, index):
    """A second increment touching the first increment's docs (purging a
    generation shard) stays exact."""
    from parquet_go_ray.pipelines.textindex import update_text_index

    out, df = index
    inc1 = pd.DataFrame(
        {"doc_id": np.array([1, 2], dtype=np.int64),
         "text": ["alpha beta", "gamma gamma delta"]}
    )
    p1 = str(tmp_path / "i1.parquet")
    pq.write_table(pa.Table.from_pandas(inc1, preserve_index=False), p1)
    update_text_index(out, [p1])
    inc2 = pd.DataFrame(
        {"doc_id": np.array([2, 3], dtype=np.int64),
         "text": ["epsilon", "alpha epsilon epsilon"]}
    )
    p2 = str(tmp_path / "i2.parquet")
    pq.write_table(pa.Table.from_pandas(inc2, preserve_index=False), p2)
    info = update_text_index(out, [p2])
    assert info["replaced"] == 2  # docs 2 and 3 both existed
    got = _rank(out, ["epsilon"])
    assert set(got["doc_id"]) >= {2, 3}
    # doc 2's first-increment text must be fully gone
    from parquet_go_ray.pipelines.textindex import lookup_postings

    posts = lookup_postings(out, ["gamma"]).to_pandas()
    assert 2 not in set(posts["doc_id"])


def test_purge_rename_preserves_bucket(ray_session):
    from parquet_go_ray.pipelines.spj import _BUCKET_RE
    from parquet_go_ray.pipelines.textindex import _purge_rename

    for shard in ("bucket=00004", "bucket=00004+gdeadbeef"):
        renamed = _purge_rename(shard)
        assert renamed != shard
        assert _BUCKET_RE.match(renamed)
        assert renamed.startswith("bucket=00004+g")
        assert _purge_rename(shard) == renamed  # deterministic


def test_probe_docs_finds_exact_ids(index):
    from parquet_go_ray.pipelines.textindex import _probe_docs

    out, df = index
    got = _probe_docs(out, [0, 5, 799, 12345])
    found = set(got.to_pandas()["doc_id"])
    assert found == {0, 5, 799}
    dl = got.to_pandas().set_index("doc_id")["dl"]
    assert int(dl[5]) == len(df.iloc[5]["text"].split(" "))


def test_compact_index_merges_generations(tmp_path, ray_session, index):
    """Two updates -> multi-generation buckets; compaction merges each
    bucket family to one shard and leaves every query answer unchanged."""
    from parquet_go_ray.pipelines.textindex import (
        compact_index,
        search_docs,
        update_text_index,
    )
    from parquet_go_ray.state import manifest

    out, df = index
    for j, ids in enumerate(([5, 6], [7, 8])):
        inc = pd.DataFrame(
            {"doc_id": np.array(ids, dtype=np.int64),
             "text": [f"alpha beta round{j}" for _ in ids]}
        )
        p = str(tmp_path / f"ci{j}.parquet")
        pq.write_table(pa.Table.from_pandas(inc, preserve_index=False), p)
        update_text_index(out, [p])
    before = _rank(out, ["alpha", "beta", "gamma"])
    n_shards_before = len(manifest.completed_shards(out))
    info = compact_index(out)
    assert info["buckets_compacted"] >= 1
    n_shards_after = len(manifest.completed_shards(out))
    assert n_shards_after < n_shards_before
    after = _rank(out, ["alpha", "beta", "gamma"])
    pd.testing.assert_frame_equal(before, after)
    # every bucket family now has exactly one shard
    bases = {}
    for s in manifest.completed_shards(out):
        bases.setdefault(s.split("+g")[0], []).append(s)
    assert all(len(v) == 1 for v in bases.values())
    # idempotent re-run
    info2 = compact_index(out)
    assert info2["buckets_compacted"] == 0


def test_compact_index_crash_rollback(tmp_path, ray_session, index):
    """A members intent file without its commit marker must roll back on
    the next compaction (_recover), leaving queries intact."""
    from parquet_go_ray.pipelines.compact import _write_members
    from parquet_go_ray.pipelines.textindex import compact_index

    out, _ = index
    before = _rank(out, ["alpha"])
    _write_members(out, "bucket=00000+gdeadbee0", ["bucket=99999"])
    compact_index(out)
    after = _rank(out, ["alpha"])
    pd.testing.assert_frame_equal(before, after)


def test_compact_index_ignores_orphan_chunk_files(tmp_path, ray_session, index):
    """Compaction folds in the files each member shard's commit recorded,
    not whatever its data dir holds: a stray copy of a generation's chunk
    file (readers ignore it) must not become duplicate postings."""
    from parquet_go_ray.pipelines.textindex import compact_index, update_text_index
    from parquet_go_ray.state import manifest

    out, _ = index
    inc = pd.DataFrame(
        {"doc_id": np.array([5, 6], dtype=np.int64),
         "text": ["alpha beta orphan" for _ in range(2)]}
    )
    p = str(tmp_path / "inc.parquet")
    pq.write_table(pa.Table.from_pandas(inc, preserve_index=False), p)
    update_text_index(out, [p])
    gens = [s for s in manifest.completed_shards(out) if "+g" in s]
    assert gens
    chunk = sorted((tmp_path / "idx" / "data" / gens[0]).glob("*.parquet"))[0]
    shutil.copy(chunk, chunk.with_name("orphan-" + chunk.name))

    tokens = WORDS + ["orphan"]
    before = lookup_postings(out, tokens).count()
    compact_index(out)
    assert lookup_postings(out, tokens).count() == before
