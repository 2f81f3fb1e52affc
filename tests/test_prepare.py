"""End-to-end training-data prep composite pipeline."""

import pyarrow.parquet as pq

import ray.data

from dots_ocr_ray.fixtures import make_pages_table
from dots_ocr_ray.pipelines.prepare import prepare_training_data


def test_prepare_training_data_end_to_end(ray_session, tmp_path):
    pages = make_pages_table(96, seed=21)
    out = str(tmp_path / "prep")
    counts = prepare_training_data(
        ray.data.from_arrow(pages),
        out,
        dedup="exact",
        chunk_tokens=16,
        overlap_tokens=2,
    )
    assert counts["extracted"] == 96
    assert counts["deduped"] is not None and counts["deduped"] <= counts["quality_kept"]
    assert counts["chunks_written"] > 0

    ds = ray.data.read_parquet(out)
    df = ds.to_pandas()
    assert set(df.split.unique()) <= {"train", "val"}
    # chunk lineage: offsets trace back into the scrubbed text
    assert (df.char_start <= df.char_end).all()
    # deterministic split: same doc always in same split
    per_doc = df.groupby("doc_id").split.nunique()
    assert (per_doc == 1).all()


def test_prepare_minhash_dedup_drops_near_dups(ray_session, tmp_path, exchange_tier):
    import pyarrow as pa

    BASE = (
        "alpha beta gamma delta epsilon zeta eta theta iota kappa lambda mu nu xi "
        "omicron pi rho sigma tau upsilon phi chi psi omega one two three four five six"
    )
    rows = []
    for i in range(12):
        # three identical copies of BASE among twelve docs
        text = BASE if i % 4 == 0 else f"{BASE} unique suffix {i} " + "pad " * i
        rows.append(
            {
                "url": f"https://p.test/{i}",
                "warc_ts": None,
                "html": f"<html><body><p>{text}</p></body></html>".encode(),
                "text": "",
                "lang": "en",
            }
        )
    pages = pa.Table.from_pylist(rows)
    out = str(tmp_path / "prep")
    counts = prepare_training_data(
        ray.data.from_arrow(pages), out, dedup="minhash", minhash_threshold=0.9,
        chunk_tokens=16, overlap_tokens=2,
    )
    df = ray.data.read_parquet(out).to_pandas()
    # the three identical docs collapse to one survivor
    assert df.url.nunique() <= 10
    assert counts["chunks_written"] == len(df)
    assert counts["deduped"] == df.url.nunique()

    # forcing the fully distributed keep path (the anti-join's keyed
    # exchange, zero driver-side id collection) must reproduce the
    # default run's output exactly on this corpus
    out2 = str(tmp_path / "prep2")
    exchange_tier()
    counts2 = prepare_training_data(
        ray.data.from_arrow(pages), out2, dedup="minhash", minhash_threshold=0.9,
        chunk_tokens=16, overlap_tokens=2,
    )
    df2 = ray.data.read_parquet(out2).to_pandas()
    a = df.sort_values(["doc_id", "chunk_id"]).reset_index(drop=True)
    b = df2.sort_values(["doc_id", "chunk_id"]).reset_index(drop=True)
    assert a.equals(b)


def test_prepare_persists_job_stats(ray_session, tmp_path):
    from dots_ocr_ray.state.manifest import read_job_stats

    pages = make_pages_table(24, seed=5)
    out = str(tmp_path / "prep")
    counts = prepare_training_data(
        ray.data.from_arrow(pages), out, dedup="exact", chunk_tokens=16, overlap_tokens=2
    )
    stats = read_job_stats(out)
    assert stats["job"] == "prepare_training_data"
    assert stats["counts"]["chunks_written"] == counts["chunks_written"]
    assert isinstance(stats["dataset_stats"], str) and "Operator" in stats["dataset_stats"]
    # the stats sidecar must not confuse the parquet read-back
    assert ray.data.read_parquet(out).count() == counts["chunks_written"]


def test_prepare_with_line_dedup_strips_boilerplate(ray_session, tmp_path):
    """line_dedup_min_count strips corpus-repeated lines (nav/footer
    remnants) from the prepared text while keeping url lineage."""
    pages = make_pages_table(96, seed=21)
    out_a = str(tmp_path / "with_ld")
    out_b = str(tmp_path / "without_ld")
    counts_a = prepare_training_data(
        ray.data.from_arrow(pages),
        out_a,
        dedup="exact",
        chunk_tokens=16,
        overlap_tokens=2,
        line_dedup_min_count=3,
    )
    counts_b = prepare_training_data(
        ray.data.from_arrow(pages),
        out_b,
        dedup="exact",
        chunk_tokens=16,
        overlap_tokens=2,
    )
    assert counts_a["extracted"] == counts_b["extracted"] == 96
    import ray.data as rd

    df_a = rd.read_parquet(out_a).to_pandas()
    df_b = rd.read_parquet(out_b).to_pandas()
    # same docs survive; the line-deduped corpus is never larger
    assert set(df_a.doc_id) == set(df_b.doc_id)
    assert df_a.chunk_text.str.len().sum() <= df_b.chunk_text.str.len().sum()
    assert df_a.url.notna().all()


def test_prepare_with_substring_dedup_cuts_repeated_spans(ray_session, tmp_path):
    """substring_dedup_k removes corpus-repeated k-token spans from
    the prepared text while keeping url lineage; total text never
    grows."""
    pages = make_pages_table(96, seed=33)
    out_a = str(tmp_path / "with_sub")
    out_b = str(tmp_path / "without_sub")
    counts_a = prepare_training_data(
        ray.data.from_arrow(pages),
        out_a,
        dedup="exact",
        chunk_tokens=16,
        overlap_tokens=2,
        substring_dedup_k=6,
    )
    counts_b = prepare_training_data(
        ray.data.from_arrow(pages),
        out_b,
        dedup="exact",
        chunk_tokens=16,
        overlap_tokens=2,
    )
    assert counts_a["extracted"] == counts_b["extracted"] == 96
    import ray.data as rd

    df_a = rd.read_parquet(out_a).to_pandas()
    df_b = rd.read_parquet(out_b).to_pandas()
    assert set(df_a.doc_id) <= set(df_b.doc_id)
    assert df_a.chunk_text.str.len().sum() <= df_b.chunk_text.str.len().sum()
    assert df_a.url.notna().all()


def test_prepare_token_ids_jsonl(ray_session, tmp_path):
    import glob
    import gzip
    import json
    import os

    import pyarrow.parquet as pq

    import ray.data

    from dots_ocr_ray.fixtures import make_pages_table
    from dots_ocr_ray.pipelines.prepare import prepare_training_data

    pages = ray.data.from_arrow(make_pages_table(48, seed=9))
    out = str(tmp_path / "prep")
    counts = prepare_training_data(
        pages,
        out,
        dedup="exact",
        emit_token_ids=True,
        vocab_size=64,
        output_format="jsonl",
    )
    assert counts["chunks_written"] > 0
    assert 0 < counts["vocab_size"] <= 64
    vocab = pq.read_table(os.path.join(out, "_vocab.parquet"))
    assert vocab.column_names == ["token", "token_id"]
    id_of = dict(zip(vocab.column("token").to_pylist(), vocab.column("token_id").to_pylist()))

    shards = glob.glob(os.path.join(out, "split=*", "*.jsonl.gz"))
    assert shards
    rows = []
    for s in shards:
        with gzip.open(s, "rt", encoding="utf-8") as f:
            rows += [json.loads(l) for l in f if l.strip()]
    assert len(rows) == counts["chunks_written"]
    r = next(r for r in rows if r["chunk_text"].split())
    toks = r["chunk_text"].split()
    assert len(r["token_ids"]) == len(toks)
    # ids agree with the persisted vocab (unknown -> 0)
    assert r["token_ids"] == [id_of.get(t, 0) for t in toks]


def test_prepare_with_decontamination_cuts_bench_spans(ray_session, tmp_path):
    import pyarrow as pa

    LEAK = "alpha beta gamma delta epsilon zeta eta theta"  # 8 tokens
    rows = []
    for i in range(8):
        body = (
            f"document body {i} with plenty of ordinary words here "
            + (LEAK if i % 2 == 0 else "no leaked content at all")
            + f" trailing words {i}"
        )
        rows.append(
            {
                "url": f"https://d.test/{i}",
                "warc_ts": None,
                "html": f"<html><body><p>{body}</p></body></html>".encode(),
                "text": "",
                "lang": "en",
            }
        )
    pages = pa.Table.from_pylist(rows)
    bench = ray.data.from_arrow(
        pa.table({"doc_id": pa.array([0], pa.int64()), "text": pa.array([LEAK])})
    )
    out = str(tmp_path / "decon")
    counts = prepare_training_data(
        ray.data.from_arrow(pages),
        out,
        dedup="none",
        chunk_tokens=64,
        overlap_tokens=0,
        decontaminate_bench=bench,
    )
    assert counts["chunks_written"] > 0
    df = ray.data.read_parquet(out).to_pandas()
    joined = " ".join(df.chunk_text)
    assert "alpha beta gamma delta epsilon zeta eta theta" not in joined
    # clean docs' words survive
    assert "ordinary words" in joined
