"""Tests for document-level merge / crawl dedup / salted domain
metrics (reference S8/O2/D3 analogs)."""

import datetime

import pyarrow as pa

import ray.data

from dots_ocr_ray.functions.viz import render_layout
from dots_ocr_ray.pipelines.document import (
    latest_page_per_url,
    merge_document_pages,
    metrics_by_domain,
)


def test_merge_document_pages_sorts_by_page_no(ray_session):
    rows = [
        {"doc_url": "d1", "page_no": 2, "extracted_text": "page two", "extracted_text_nohf": "p2"},
        {"doc_url": "d1", "page_no": 1, "extracted_text": "page one", "extracted_text_nohf": "p1"},
        {"doc_url": "d2", "page_no": 1, "extracted_text": "solo", "extracted_text_nohf": "solo"},
    ]
    out = merge_document_pages(ray.data.from_items(rows)).to_pandas().sort_values("doc_url")
    d1 = out[out.doc_url == "d1"].iloc[0]
    assert d1.extracted_text == "page one\n\npage two"  # page_no order, \n\n join
    assert d1.n_pages == 2
    assert out[out.doc_url == "d2"].iloc[0].extracted_text == "solo"


def test_latest_page_per_url(ray_session):
    t0 = datetime.datetime(2025, 1, 1)
    rows = [
        {"url": "u1", "warc_ts": t0, "html": b"old"},
        {"url": "u1", "warc_ts": t0 + datetime.timedelta(days=1), "html": b"new"},
        {"url": "u2", "warc_ts": t0, "html": b"only"},
    ]
    out = latest_page_per_url(ray.data.from_items(rows)).to_pandas().sort_values("url")
    assert len(out) == 2
    assert out[out.url == "u1"].iloc[0].html == b"new"


def test_metrics_by_domain(ray_session):
    """A hot domain (half the rows) folds to one exact row."""
    rows = []
    for i in range(100):
        domain = "hot.example.com" if i % 2 == 0 else f"site-{i % 5}.org"
        rows.append(
            {
                "url": f"https://{domain}/p{i}",
                "status": "finished" if i % 3 else "fallback",
                "bytes_in": 100,
            }
        )
    out = metrics_by_domain(ray.data.from_items(rows)).to_pandas()
    hot = out[out.domain == "hot.example.com"].iloc[0]
    assert hot.rows == 50
    assert hot.bytes_in == 5000
    assert out.rows.sum() == 100


def test_render_layout():
    spans = [
        {"category": "Title", "bbox": [0, 1, 10, 2], "text": "Hello"},
        {"category": "Text", "bbox": [0, 3, 99, 4], "text": "x" * 100},
    ]
    art = render_layout(spans)
    assert "[0] Title" in art and "(0,1,10,2)" in art
    assert "…" in art  # long text truncated


def test_pages_explode_merge_roundtrip(ray_session):
    """pages_from_multipage_docs ∘ merge_document_pages is word-level
    lossless for any n_pages (the S2 explode is the inverse of the
    S8/O2 merge up to the page-join separator)."""
    import ray.data

    from dots_ocr_ray.pipelines.document import (
        merge_document_pages,
        pages_from_multipage_docs,
    )

    rows = [
        {"doc_id": 1, "text": " ".join(f"w{i}" for i in range(17))},
        {"doc_id": 2, "text": "solo"},
        {"doc_id": 3, "text": ""},
    ]
    docs = ray.data.from_items(rows)
    merged = (
        merge_document_pages(pages_from_multipage_docs(docs, n_pages=3))
        .to_pandas()
        .sort_values("doc_url")
        .reset_index(drop=True)
    )
    assert merged.n_pages.tolist() == [3, 3, 3]
    # words survive in order (separators differ: " " within a page,
    # "\n\n" at page joins)
    for row, src in zip(merged.itertuples(), rows):
        assert row.extracted_text.split() == src["text"].split()


def test_crawl_diff(ray_session):
    import pyarrow as pa
    import ray.data

    from dots_ocr_ray.pipelines.document import crawl_diff

    def snap(rows):
        return ray.data.from_arrow(
            pa.table(
                {
                    "doc_id": pa.array([r[0] for r in rows], type=pa.int64()),
                    "content_md5": pa.array([r[1] for r in rows], type=pa.string()),
                }
            )
        )

    old = snap([(1, "a"), (2, "b"), (3, "c")])
    new = snap([(2, "b"), (3, "c2"), (4, "d")])
    got = {r["doc_id"]: r["change"] for r in crawl_diff(old, new).take_all()}
    assert got == {1: "removed", 2: "unchanged", 3: "changed", 4: "added"}


def _scd2_pandas_oracle(rows):
    """Sequential SCD2 mirror: rows = (url, ts_us:int, key)."""
    import pandas as pd

    df = pd.DataFrame(rows, columns=["url", "ts", "content_key"]).sort_values(
        ["url", "ts"]
    )
    out = []
    for url, g in df.groupby("url", sort=True):
        g = g.reset_index(drop=True)
        islands = []
        for _, r in g.iterrows():
            if islands and islands[-1]["content_key"] == r["content_key"]:
                islands[-1]["n_captures"] += 1
            else:
                islands.append(
                    {"url": url, "content_key": r["content_key"],
                     "valid_from": r["ts"], "n_captures": 1}
                )
        for i, isl in enumerate(islands):
            isl["version"] = i + 1
            isl["valid_to"] = (
                islands[i + 1]["valid_from"] if i + 1 < len(islands) else None
            )
            out.append(isl)
    return out


def test_scd2_history_matches_sequential_mirror(ray_session):
    """Many captures per url across MANY small, shuffled blocks (every
    url spread over several blocks) must equal the sequential mirror
    exactly; an empty capture table gives no rows."""
    import pyarrow as pa
    import ray.data

    from dots_ocr_ray.pipelines.document import scd2_history

    rows = []
    for u in range(7):
        url = f"https://site-{u}.com/"
        # capture stream: content changes every (u % 3 + 1) captures
        period = u % 3 + 1
        for k in range(11):
            rows.append((url, 1_000_000 * (u + 1) + k * 1000, f"{u}:v{k // period}"))
    tbl = pa.table(
        {
            "url": pa.array([r[0] for r in rows], type=pa.string()),
            "warc_ts": pa.array([r[1] for r in rows]).cast(pa.timestamp("us")),
            "content_key": pa.array([r[2] for r in rows], type=pa.string()),
        }
    )
    # shuffle input order; tiny blocks so every url spans boundaries
    got = (
        scd2_history(ray.data.from_arrow(tbl).random_shuffle(seed=7).repartition(16))
        .to_pandas()
        .sort_values(["url", "version"])
        .reset_index(drop=True)
    )
    exp = _scd2_pandas_oracle(rows)
    assert len(got) == len(exp)
    for g, e in zip(got.itertuples(), exp):
        assert g.url == e["url"] and g.content_key == e["content_key"]
        assert g.valid_from.value // 1000 == e["valid_from"]
        assert g.n_captures == e["n_captures"] and g.version == e["version"]
        if e["valid_to"] is None:
            assert g.valid_to is None or str(g.valid_to) == "NaT"
        else:
            assert g.valid_to.value // 1000 == e["valid_to"]
    assert scd2_history(ray.data.from_arrow(tbl.slice(0, 0))).count() == 0


def test_scd2_history_single_url_and_empty(ray_session):
    import pyarrow as pa
    import ray.data

    from dots_ocr_ray.pipelines.document import scd2_history

    tbl = pa.table(
        {
            "url": pa.array(["https://only.com/"] * 3, type=pa.string()),
            "warc_ts": pa.array([1, 2, 3]).cast(pa.timestamp("us")),
            "content_key": pa.array(["a", "a", "b"], type=pa.string()),
        }
    )
    got = scd2_history(ray.data.from_arrow(tbl)).to_pandas().sort_values("version")
    assert got["content_key"].tolist() == ["a", "b"]
    assert got["n_captures"].tolist() == [2, 1]
    assert got["valid_to"].isna().tolist() == [False, True]


def test_window_dedup(ray_session):
    import datetime

    import ray.data

    from dots_ocr_ray.pipelines.document import window_dedup

    d0 = datetime.datetime(2025, 1, 1)

    def t(hours):
        return d0 + datetime.timedelta(hours=hours)

    rows = [
        # url a: three captures in day 0, one in day 1 → 2 survivors
        {"url": "a", "warc_ts": t(1)},
        {"url": "a", "warc_ts": t(5)},
        {"url": "a", "warc_ts": t(23)},
        {"url": "a", "warc_ts": t(25)},
        # url b: one capture exactly at a window boundary
        {"url": "b", "warc_ts": t(24)},
        {"url": "b", "warc_ts": t(24.5)},
    ]
    out = window_dedup(ray.data.from_items(rows), window_s=86400).take_all()
    got = sorted((r["url"], r["win_id"], r["warc_ts"]) for r in out)
    d0_days = (d0 - datetime.datetime(1970, 1, 1)).days
    assert got == [
        ("a", d0_days, t(1)),
        ("a", d0_days + 1, t(25)),
        ("b", d0_days + 1, t(24)),
    ]
    # partitioning must not change survivors
    out2 = window_dedup(ray.data.from_items(rows).repartition(4), window_s=86400).take_all()
    assert sorted((r["url"], r["win_id"], r["warc_ts"]) for r in out2) == got


def test_aligned_page_pairs(ray_session):
    import ray.data

    from dots_ocr_ray.pipelines.document import aligned_page_pairs

    rows = [
        # key .../page-1: en + fr + de → 3 cross-lang pairs
        {"doc_id": 1, "lang": "en", "url": "https://a.com/en/page-1"},
        {"doc_id": 2, "lang": "fr", "url": "https://a.com/fr/page-1"},
        {"doc_id": 3, "lang": "de", "url": "https://a.com/de/page-1"},
        # key .../page-2: two SAME-lang pages → no pair
        {"doc_id": 4, "lang": "en", "url": "https://a.com/en/page-2"},
        {"doc_id": 5, "lang": "en", "url": "https://a.com/en/page-2?v=2"},
        # different host, same path → different key, no pair
        {"doc_id": 6, "lang": "fr", "url": "https://b.com/fr/page-1"},
        # key with 2 en docs + 1 fr doc → 2 pairs (the duplicate en
        # pages don't pair with each other)
        {"doc_id": 7, "lang": "en", "url": "https://c.com/en/page-3"},
        {"doc_id": 8, "lang": "en", "url": "https://c.com/en/page-3"},
        {"doc_id": 9, "lang": "fr", "url": "https://c.com/fr/page-3"},
    ]
    out = aligned_page_pairs(ray.data.from_items(rows)).take_all()
    got = sorted((r["lang_a"], r["doc_a"], r["lang_b"], r["doc_b"]) for r in out)
    assert got == [
        ("de", 3, "en", 1),
        ("de", 3, "fr", 2),
        ("en", 1, "fr", 2),
        ("en", 7, "fr", 9),
        ("en", 8, "fr", 9),
    ]
    # partition-invariant
    out2 = aligned_page_pairs(ray.data.from_items(rows).repartition(4)).take_all()
    assert sorted((r["lang_a"], r["doc_a"], r["lang_b"], r["doc_b"]) for r in out2) == got


def test_window_dedup_pre_epoch_floor(ray_session):
    """Negative epoch micros must FLOOR into the previous window (SQL
    // semantics), not truncate toward zero."""
    import datetime

    import ray.data

    from dots_ocr_ray.pipelines.document import window_dedup

    rows = [
        {"url": "a", "warc_ts": datetime.datetime(1969, 12, 31, 23, 0)},
        {"url": "a", "warc_ts": datetime.datetime(1970, 1, 1, 1, 0)},
    ]
    out = sorted(
        (r["win_id"], r["warc_ts"]) for r in window_dedup(ray.data.from_items(rows)).take_all()
    )
    assert [w for w, _ in out] == [-1, 0]  # both survive, distinct windows


def test_jsonld_records_kernel():
    from dots_ocr_ray.pipelines.document import jsonld_records

    html = (
        b'<html><body><script>var x=1;</script>'
        b'<script type="application/ld+json">{"@type": "Article", "wordCount": 42}</script>'
        b'<script type="application/ld+json">not json at all</script>'
        b'<script TYPE="application/ld+json">{"@type": "Recipe"}</script>'
        b"</body></html>"
    )
    recs = jsonld_records(html)
    assert [r.get("@type") for r in recs] == ["Article", "Recipe"]
    assert recs[0]["wordCount"] == 42
    assert jsonld_records(b"") == []
    assert jsonld_records(None) == []


def test_token_f1_kernel():
    from dots_ocr_ray.pipelines.document import token_f1

    assert token_f1("a b c", "a b c") == (3, 3, 3)
    assert token_f1("a a b", "a c") == (3, 2, 1)  # multiset min, not set
    assert token_f1("", "x y") == (0, 2, 0)
    assert token_f1(None, None) == (0, 0, 0)


def test_jsonld_hostile_value_types(ray_session):
    import pyarrow as pa

    import ray.data

    from dots_ocr_ray.pipelines.document import jsonld_from_pages

    html = (
        b'<script type="application/ld+json">'
        b'{"@type": ["NewsArticle", "Article"], "wordCount": "12", '
        b'"datePublished": {"@value": "2020"}}</script>'
    )
    pages = ray.data.from_arrow(
        pa.table({"doc_id": [1], "html": pa.array([html], pa.binary())})
    )
    out = jsonld_from_pages(pages).to_pandas()
    assert out["ld_type"].tolist() == ["NewsArticle"]
    assert out["word_count"].isna().all()  # string "12" rejected, not coerced
    assert out["date_published"].isna().all()


def test_url_templates_trap_detection(ray_session):
    import pyarrow as pa

    import ray.data

    from dots_ocr_ray.pipelines.document import url_templates

    urls = (
        [f"https://a.com/cal/2020/{m}/{d}" for m in range(1, 4) for d in range(1, 6)]
        + ["https://a.com/about", "https://b.com/about"]
    )
    out = (
        url_templates(ray.data.from_arrow(pa.table({"url": urls})).repartition(3))
        .to_pandas()
        .set_index("template")
    )
    assert out.loc["https://a.com/cal/N/N/N", "n_pages"] == 15
    assert out.loc["https://a.com/cal/N/N/N", "n_hosts"] == 1
    assert out.loc["https://a.com/about", "n_pages"] == 1
    assert out.loc["https://b.com/about", "n_hosts"] == 1


def test_robots_meta_flags_kernel():
    from dots_ocr_ray.pipelines.document import robots_meta_flags

    assert robots_meta_flags(b'<meta name="robots" content="noindex">') == (1, 1, 0)
    assert robots_meta_flags(b'<META NAME="robots" CONTENT="NOFOLLOW">') == (1, 0, 1)
    # directive tokens, not substrings
    assert robots_meta_flags(b'<meta name="robots" content="nofollowish">') == (1, 0, 0)
    assert robots_meta_flags(b'<meta name="robots" content=" NoIndex ,NOFOLLOW ">') == (1, 1, 1)
    assert robots_meta_flags(b"") == (0, 0, 0)


def test_hreflang_from_pages(ray_session):
    import functools

    import pyarrow as pa

    import ray.data

    from dots_ocr_ray.fixtures import pages_from_documents_batch
    from dots_ocr_ray.pipelines.document import hreflang_from_pages

    # doc 2: % 6 == 2 → 2 + 2%3 = 4 alternates starting at langs[(0+j)%6]
    # doc 3: not selected → nothing; doc 7: fallback class (7%23==7) but
    # 7%6=1 → not selected anyway; doc 8: %6==2, 8//6=1 → starts at 'de'
    docs = pa.table(
        {
            "doc_id": [2, 3, 8],
            "text": ["alpha", "beta", "gamma"],
            "lang": ["en", "en", "en"],
        }
    )
    pages = ray.data.from_arrow(docs).map_batches(
        functools.partial(pages_from_documents_batch, with_hreflang=True),
        batch_format="pyarrow",
    )
    out = hreflang_from_pages(pages).to_pandas()
    got2 = out[out.doc_id == 2].sort_values("hreflang")
    assert set(got2["hreflang"]) == {"en", "de", "fr", "es"}
    assert (out[out.doc_id == 3].shape[0]) == 0
    got8 = out[out.doc_id == 8]
    assert list(got8["hreflang"]) == ["de", "fr", "es", "ja"]
    assert got8.iloc[0]["href"] == "https://example-08.com/de/doc-000008"
