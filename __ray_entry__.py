"""Driver contract for the graft builder (Ray Data target).

The driver calls ``ray.init`` itself; nothing here (or in the library)
initialises or shuts down Ray.

``queries()`` exposes one callable per implemented pipeline/operator
(SURVEY.md §2 + the training-data ops); ``oracle_sql()`` gives the
DuckDB-equivalent SQL over the same parquet tables.  Column names match
between the two on every query (the driver hashes values after sorting
columns by name).

The extraction queries run the REAL Ray pipeline (documents wrapped
into Common-Crawl-style pages by a deterministic rule, then the
extraction kernel as a streaming task stage); the SQL mirrors the expected output of
that rule — see dots_ocr_ray/fixtures.py:page_row_from_document.
"""

from __future__ import annotations

from collections.abc import Callable
from typing import Any

# CASE expressions mirroring fixtures.page_row_from_document: which
# documents rows become fallback (script-only html) / failed (empty
# html+text) pages.  Keep in lockstep with FALLBACK_MOD/FAILED_MOD.
_STATUS_SQL = (
    "CASE WHEN doc_id % 31 = 11 THEN 'failed' "
    "WHEN doc_id % 23 = 7 THEN 'fallback' ELSE 'finished' END"
)
_TEXT_SQL = (
    "CASE WHEN doc_id % 31 = 11 THEN '' "
    "WHEN doc_id % 23 = 7 THEN trim(text) "
    "ELSE 'Doc ' || doc_id || chr(10) || chr(10) || trim(text) || chr(10) || chr(10) "
    "|| 'Footer ' || (doc_id % 40) END"
)
_TEXT_NOHF_SQL = (
    "CASE WHEN doc_id % 31 = 11 THEN '' "
    "WHEN doc_id % 23 = 7 THEN trim(text) "
    "ELSE 'Doc ' || doc_id || chr(10) || chr(10) || trim(text) END"
)
_NSPANS_SQL = "CASE WHEN doc_id % 31 = 11 THEN 0 WHEN doc_id % 23 = 7 THEN 1 ELSE 3 END"
# fixture link rule (fixtures.py nav): every normal page links (Home,
# Next) with arithmetic targets; ONE constant so the four link-family
# oracles (extract_links / crawl_frontier / frontier_schedule /
# inbound_anchors) can never drift apart on a fixture change
_LINKS_CTE_SQL = (
    "u AS (SELECT doc_id, "
    "'https://example-' || lpad(CAST(doc_id % 40 AS VARCHAR), 2, '0') "
    "|| '.com/doc-' || lpad(CAST(doc_id AS VARCHAR), 6, '0') AS url, "
    "'https://example-' || lpad(CAST(doc_id % 40 AS VARCHAR), 2, '0') || '.com/' AS home, "
    "'https://example-' || lpad(CAST((doc_id * 7) % 40 AS VARCHAR), 2, '0') "
    "|| '.com/doc-' || lpad(CAST((doc_id * 13) % 500 AS VARCHAR), 6, '0') AS next "
    "FROM documents WHERE doc_id % 23 <> 7 AND doc_id % 31 <> 11), "
    "links AS (SELECT url, home AS href, 'Home' AS anchor FROM u "
    "UNION ALL SELECT url, next, 'Next' FROM u), "
    "crawled AS (SELECT 'https://example-' || lpad(CAST(doc_id % 40 AS VARCHAR), 2, '0') "
    "|| '.com/doc-' || lpad(CAST(doc_id AS VARCHAR), 6, '0') AS url FROM documents), "
    "frontier AS (SELECT DISTINCT href AS url FROM links "
    "WHERE href NOT IN (SELECT url FROM crawled))"
)

# golden-parquet oracles (tools/make_golden.py) — the driver runs the
# oracle SQL at sf0.01, so the goldens are checked in for that sf
_GOLDEN_DIR = "/root/repo/golden/sf0.01"


def _extract_ds(sf_dir: str):
    from dots_ocr_ray.pipelines.extract import extract_pages
    from dots_ocr_ray.sources.pages import pages_from_documents

    pages = pages_from_documents(sf_dir, override_num_blocks=8)
    return extract_pages(pages, batch_size=64)


def _q_extract_text(sf_dir: str):
    ds = _extract_ds(sf_dir)
    return ds.select_columns(["doc_id", "extracted_text", "extracted_text_nohf", "status", "n_spans"])


def _q_extract_status_counts(sf_dir: str):
    from dots_ocr_ray.util import bucket_keyed_fold

    return bucket_keyed_fold(_extract_ds(sf_dir), ["lang", "status"], {"n": ("count", None)})


def _q_extract_span_stats(sf_dir: str):
    """Single-pass sum+count keyed fold — extraction runs ONCE (two
    separate groupbys would re-execute the whole upstream pipeline per
    consumer)."""
    from dots_ocr_ray.util import bucket_keyed_fold

    return bucket_keyed_fold(
        _extract_ds(sf_dir), "lang", {"sum_spans": ("sum", "n_spans"), "n_docs": ("count", None)}
    )


def _q_describe_docs(sf_dir: str):
    """A2 second-stage describe pool under the hard oracle: fixture
    pages carry alt-less <img> tags (IMAGE_MOD rule), extraction emits
    empty Picture spans, and the describe stage captions them with
    the deterministic fake captioner + re-serializes the markdown.
    Golden-parquet oracle (tools/make_golden.py:golden_describe_docs)."""
    from dots_ocr_ray.pipelines.extract import extract_pages
    from dots_ocr_ray.sources.pages import pages_from_documents
    from dots_ocr_ray.stages.describe import describe_pictures

    pages = pages_from_documents(sf_dir, override_num_blocks=8, with_images=True)
    extracted = extract_pages(pages, batch_size=64)
    described = describe_pictures(extracted, batch_size=64)
    return described.select_columns(["doc_id", "extracted_text", "n_spans", "status"])


def _q_template_strip(sf_dir: str):
    """Site-level template-block stripping (inter-page frequency prior
    over per-host DOM blocks): the fixture's per-host footer recurs on
    every normal page of its host, so it is stripped corpus-wide while
    the unique Title/body blocks survive.  Fully SQL-expressible — the
    oracle replays the exact integer frequency rule over the
    reconstructed (host, category, text) blocks."""
    from dots_ocr_ray.pipelines.template import template_block_strip
    from dots_ocr_ray.sources.pages import pages_from_documents

    pages = pages_from_documents(sf_dir, override_num_blocks=8)
    stripped = template_block_strip(
        pages, min_pages=3, min_frac_pct=60, keep_cols=("doc_id",)
    )
    return stripped.select_columns(["doc_id", "text_clean", "n_kept", "n_dropped"])


# ---------------------------------------------------------------------------
# dedup family (documents / embeddings tables)


def _q_dedup_exact(sf_dir: str):
    import ray.data

    from dots_ocr_ray.pipelines.dedup import exact_dedup

    docs = ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    return exact_dedup(docs).select_columns(["doc_id"])


def _q_dedup_minhash(sf_dir: str):
    import ray.data

    from dots_ocr_ray.pipelines.dedup import minhash_lsh_dedup

    docs = ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    return minhash_lsh_dedup(docs, threshold=0.8)


def _q_dedup_simhash(sf_dir: str):
    import ray.data

    from dots_ocr_ray.pipelines.dedup import simhash_dedup

    docs = ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    return simhash_dedup(docs, max_hamming=3)


def _q_dedup_ngram(sf_dir: str):
    import ray.data

    from dots_ocr_ray.pipelines.dedup import ngram_jaccard_dedup

    docs = ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    return ngram_jaccard_dedup(docs, threshold=0.9)


def _q_dedup_embedding(sf_dir: str):
    import ray.data

    from dots_ocr_ray.pipelines.dedup import embedding_dedup

    vecs = ray.data.read_parquet(f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"])
    return embedding_dedup(vecs, threshold=0.95)


# ---------------------------------------------------------------------------
# similarity search


def _scratch_dir(kind: str, sf_dir: str) -> tuple[str, bool]:
    """Deterministic per-(kind, sf_dir) scratch directory under /tmp
    with a completion marker: repeated driver/bench runs REUSE the
    finished layout instead of leaking one fresh mkdtemp full of table
    copies per invocation.  Returns (path, already_built)."""
    import os
    import shutil

    from dots_ocr_ray.kernel.textops import md5_hex

    base = os.path.join("/tmp", f"graft_{kind}_{md5_hex(os.path.abspath(sf_dir))[:10]}")
    marker = os.path.join(base, "_complete")
    if os.path.exists(marker):
        return base, True
    shutil.rmtree(base, ignore_errors=True)  # clear any partial build
    os.makedirs(base, exist_ok=True)
    return base, False


def _ann_inputs(sf_dir: str):
    """Shared ANN query-vector selection: the 4 lowest vec_ids' embeddings
    as a (4, d) float32 matrix, plus the column-pruned embeddings
    Dataset — one rule for all three ANN queries so they cannot drift."""
    import numpy as np
    import pyarrow.parquet as pq

    import ray.data

    t = pq.read_table(f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"])
    order = {v: i for i, v in enumerate(t.column("vec_id").to_pylist())}
    queries = np.array(
        [t.column("embedding")[order[v]].as_py() for v in sorted(order)[:4]],
        dtype=np.float32,
    )
    ds = ray.data.read_parquet(
        f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"]
    )
    return queries, ds


def _q_ann_topk(sf_dir: str):
    from dots_ocr_ray.pipelines.similarity import brute_force_topk

    queries, ds = _ann_inputs(sf_dir)
    out = brute_force_topk(ds, queries, k=5)
    # drop float scores from the hash-checked surface (f32 vs f64 noise)
    return out.select(["query_id", "vec_id", "rank"])


def _q_ann_lsh_topk(sf_dir: str):
    from dots_ocr_ray.pipelines.similarity import lsh_topk

    queries, ds = _ann_inputs(sf_dir)
    return lsh_topk(ds, queries, k=5).select(["query_id", "vec_id", "rank"])


# ---------------------------------------------------------------------------
# text analysis


def _q_token_stats(sf_dir: str):
    import ray.data

    from dots_ocr_ray.pipelines.text_analysis import annotate_documents
    from dots_ocr_ray.util import bucket_keyed_fold

    docs = ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text", "lang"])
    annotated = annotate_documents(docs, features=("tokens_ws",))
    return bucket_keyed_fold(
        annotated, "lang", {"sum_tokens_ws": ("sum", "n_tokens_ws"), "n_docs": ("count", None)}
    )


def _q_quality_stats(sf_dir: str):
    import ray.data

    from dots_ocr_ray.pipelines.text_analysis import annotate_documents
    from dots_ocr_ray.util import bucket_keyed_fold

    docs = ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text", "lang"])
    annotated = annotate_documents(docs, features=("quality",))
    return bucket_keyed_fold(annotated, "lang", {"n_keep": ("sum", "quality_keep"), "n_docs": ("count", None)})


def _q_lang_id(sf_dir: str):
    from dots_ocr_ray.pipelines.text_analysis import lang_id_confusion

    return lang_id_confusion(sf_dir)


def _q_fingerprint_dups(sf_dir: str):
    from dots_ocr_ray.pipelines.text_analysis import fingerprint_duplicates

    return fingerprint_duplicates(sf_dir)


# ---------------------------------------------------------------------------
# multimodal plumbing


def _q_media_features(sf_dir: str):
    """REAL pixel decode under the SQL oracle: each doc's text bytes
    are serialized as a genuine PNG (gray pixels, rotating scanline
    filters — `fixtures.text_png_payload`), and the actor-pool stage
    must run the full stdlib decode (chunk parse, zlib inflate,
    filter reconstruction: `kernel/png.py`) to recover the bytes whose
    md5 the DuckDB oracle computes as ``md5(text)``.  No golden — the
    decode is certified row-by-row by ANSI SQL arithmetic."""
    import json

    import pyarrow as pa

    import ray.data

    from dots_ocr_ray.fixtures import text_png_payload
    from dots_ocr_ray.stages.media import MediaFeatureActor

    docs = ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"], override_num_blocks=32)

    def _to_media(batch: pa.Table) -> pa.Table:
        texts = batch.column("text").to_pylist()
        return pa.table(
            {
                "media_id": batch.column("doc_id").cast(pa.int64()),
                "kind": pa.array(["image"] * len(texts), type=pa.string()),
                "payload": pa.array([text_png_payload(t) for t in texts], type=pa.binary()),
                "meta": pa.array(
                    [json.dumps({"len": len((t or "").encode("utf-8"))}) for t in texts],
                    type=pa.string(),
                ),
            }
        )

    def _feat(batch: pa.Table) -> pa.Table:
        # stateless decode: task dispatch (a 2-actor pool serializes
        # the whole corpus's decode behind two processes)
        return MediaFeatureActor(roundtrip=True)(batch)

    media = docs.map_batches(_to_media, batch_format="pyarrow")
    feats = media.map_batches(_feat, batch_format="pyarrow", batch_size=64)
    return feats.select_columns(["media_id", "n_bytes", "digest"])


# ---------------------------------------------------------------------------
# relational / window


def _q_pricing_summary(sf_dir: str):
    import pyarrow as pa
    import pyarrow.compute as pc

    from dots_ocr_ray.pipelines.relational import lineitem_pricing_summary

    tbl = pa.Table.from_pylist(lineitem_pricing_summary(sf_dir).take_all())
    for col in ["sum_qty", "sum_base_price", "sum_disc_price"]:
        tbl = tbl.set_column(tbl.column_names.index(col), col, pc.round(tbl.column(col), 2, round_mode="half_towards_infinity"))
    return tbl


def _q_orders_by_segment(sf_dir: str):
    import pyarrow as pa
    import pyarrow.compute as pc

    from dots_ocr_ray.pipelines.relational import orders_by_mktsegment

    tbl = pa.Table.from_pylist(orders_by_mktsegment(sf_dir).take_all())
    return tbl.set_column(
        tbl.column_names.index("total_price"), "total_price", pc.round(tbl.column("total_price"), 2, round_mode="half_towards_infinity")
    )


def _q_windowed_events(sf_dir: str):
    import pyarrow as pa
    import pyarrow.compute as pc

    from dots_ocr_ray.pipelines.relational import events_windowed_agg

    tbl = pa.Table.from_pylist(events_windowed_agg(sf_dir, window_minutes=60).take_all())
    return tbl.set_column(
        tbl.column_names.index("sum_value"), "sum_value", pc.round(tbl.column("sum_value"), 4, round_mode="half_towards_infinity")
    )


def _q_top_customers(sf_dir: str):
    from dots_ocr_ray.pipelines.relational import top_customers_by_spend

    return top_customers_by_spend(sf_dir, k=10)


def _q_customers_per_region(sf_dir: str):
    import pyarrow as pa

    import ray
    import ray.data

    from dots_ocr_ray.util import bucket_keyed_fold

    nation = ray.data.read_parquet(f"{sf_dir}/nation.parquet").to_pandas()
    region = ray.data.read_parquet(f"{sf_dir}/region.parquet").to_pandas()
    n2r = dict(zip(nation["n_nationkey"], nation["n_regionkey"]))
    r2name = dict(zip(region["r_regionkey"], region["r_name"]))
    lookup_ref = ray.put({nk: r2name[rk] for nk, rk in n2r.items()})

    customers = ray.data.read_parquet(f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_nationkey"])

    def _region(batch: pa.Table) -> pa.Table:
        from dots_ocr_ray.util import cached_object

        lookup = cached_object(lookup_ref)
        names = [lookup.get(k, "UNKNOWN") for k in batch.column("c_nationkey").to_pylist()]
        return pa.table({"r_name": pa.array(names, type=pa.string())})

    regions = customers.map_batches(_region, batch_format="pyarrow")
    return bucket_keyed_fold(regions, "r_name", {"n_customers": ("count", None)})


def _q_extract_category_counts(sf_dir: str):
    import pyarrow as pa

    from dots_ocr_ray.kernel.extract import MODE_LAYOUT_ONLY, ExtractConfig
    from dots_ocr_ray.pipelines.extract import extract_pages
    from dots_ocr_ray.sources.pages import pages_from_documents
    from dots_ocr_ray.util import bucket_keyed_fold

    pages = pages_from_documents(sf_dir, override_num_blocks=8)
    ds = extract_pages(pages, ExtractConfig(mode=MODE_LAYOUT_ONLY), batch_size=64)

    def _explode(batch: pa.Table) -> pa.Table:
        cats = []
        for spans in batch.column("spans").to_pylist():
            cats.extend(s["category"] for s in spans)
        return pa.table({"category": pa.array(cats, type=pa.string())})

    return bucket_keyed_fold(ds.map_batches(_explode, batch_format="pyarrow"), "category", {"n": ("count", None)})


def _q_crawl_dedup_latest(sf_dir: str):
    import datetime

    import pyarrow as pa

    import ray.data

    from dots_ocr_ray.pipelines.document import latest_page_per_url

    docs = ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id"])

    def _two_captures(batch: pa.Table) -> pa.Table:
        epoch = datetime.datetime(2025, 1, 1)
        urls, tss = [], []
        for doc_id in batch.column("doc_id").to_pylist():
            url = f"https://example-{doc_id % 40:02d}.com/doc-{doc_id:06d}"
            t0 = epoch + datetime.timedelta(seconds=137 * doc_id)
            urls.extend([url, url])
            tss.extend([t0, t0 + datetime.timedelta(days=1)])
        return pa.table(
            {"url": pa.array(urls, type=pa.string()), "warc_ts": pa.array(tss, type=pa.timestamp("us"))}
        )

    captures = docs.map_batches(_two_captures, batch_format="pyarrow")
    return latest_page_per_url(captures).select_columns(["url", "warc_ts"])


def _q_domain_stats(sf_dir: str):
    from dots_ocr_ray.pipelines.document import metrics_by_domain
    from dots_ocr_ray.pipelines.extract import extract_pages
    from dots_ocr_ray.sources.pages import pages_from_documents

    pages = pages_from_documents(sf_dir, override_num_blocks=8)
    extracted = extract_pages(pages, batch_size=64)
    out = metrics_by_domain(extracted)
    return out.select_columns(["domain", "rows", "ok"])


def _q_events_props_agg(sf_dir: str):
    import json as json_mod

    import pyarrow as pa

    import ray.data

    from dots_ocr_ray.util import bucket_keyed_fold

    events = ray.data.read_parquet(f"{sf_dir}/events.parquet", columns=["event_type", "props"])

    def _k(batch: pa.Table) -> pa.Table:
        ks = [json_mod.loads(p).get("k", 0) for p in batch.column("props").to_pylist()]
        return pa.table({"event_type": batch.column("event_type"), "k": pa.array(ks, type=pa.int64())})

    return bucket_keyed_fold(
        events.map_batches(_k, batch_format="pyarrow"), "event_type", {"sum_k": ("sum", "k"), "n": ("count", None)}
    )


def _q_merge_docs(sf_dir: str):
    """Multi-page doc merge (reference per-doc merge S8/O2): each
    document exploded into page rows (library S2 op), merged back per
    doc sorted by page_no.  Golden-parquet oracle (word-midpoint split
    is not worth mirroring in SQL)."""
    import ray.data

    from dots_ocr_ray.pipelines.document import merge_document_pages, pages_from_multipage_docs

    docs = ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    return merge_document_pages(pages_from_multipage_docs(docs, n_pages=2))


def _q_docs_outside_blocklist(sf_dir: str):
    """Broadcast ANTI-join: drop documents whose (synthetic) domain is
    on a blocklist — the exact small-side anti-join surface."""
    import pyarrow as pa

    import ray
    import ray.data

    from dots_ocr_ray.util import cached_object

    blocked = {f"example-{d:02d}.com" for d in (0, 7, 13, 21, 34)}
    block_ref = ray.put(blocked)
    docs = ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id"])

    def _anti(batch: pa.Table) -> pa.Table:
        bl = cached_object(block_ref)
        ids = batch.column("doc_id").to_pylist()
        keep = [f"example-{i % 40:02d}.com" not in bl for i in ids]
        return batch.filter(pa.array(keep, type=pa.bool_()))

    return docs.map_batches(_anti, batch_format="pyarrow")


def _q_nations_with_presence(sf_dir: str):
    """ds.union + distinct: nation keys present in customer OR
    supplier."""
    import pandas as pd

    import ray.data

    import numpy as np
    import pyarrow as pa

    # distinct via per-batch np.unique partials (a handful of rows per
    # batch) merged on the driver — Dataset.unique() would pay a full
    # keyed exchange over the union's many small blocks for the same
    # bounded result
    def _partial(b: pa.Table) -> pa.Table:
        keys = np.unique(b.column(b.column_names[0]).to_numpy(zero_copy_only=False))
        return pa.table({"nationkey": pa.array(keys.astype(np.int64), type=pa.int64())})

    c = ray.data.read_parquet(f"{sf_dir}/customer.parquet", columns=["c_nationkey"]).map_batches(
        _partial, batch_format="pyarrow"
    )
    s = ray.data.read_parquet(f"{sf_dir}/supplier.parquet", columns=["s_nationkey"]).map_batches(
        _partial, batch_format="pyarrow"
    )
    keys = sorted({r["nationkey"] for r in c.union(s).take_all()})
    return pd.DataFrame({"nationkey": pd.array(keys, dtype="int64")})


def _q_approx_distinct_users(sf_dir: str):
    """HLL distinct count over events.user_id — kilobytes move instead
    of keys; deterministic sketch → golden-parquet hard check."""
    import pandas as pd

    import ray.data

    from dots_ocr_ray.functions.sketches import approx_distinct

    events = ray.data.read_parquet(f"{sf_dir}/events.parquet", columns=["user_id"])
    n = approx_distinct(events, "user_id", p=12)
    return pd.DataFrame({"approx_distinct": pd.array([int(round(n))], dtype="int64")})


def _q_reservoir_doc_sample(sf_dir: str):
    """Deterministic priority-sample of doc ids — identical for any
    partitioning of the input, hence golden-checkable."""
    import pandas as pd

    import ray.data

    from dots_ocr_ray.functions.sketches import deterministic_sample

    docs = ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id"])
    keys = deterministic_sample(docs, "doc_id", k=32)
    return pd.DataFrame({"key": sorted(keys)})


def _q_event_gaps(sf_dir: str):
    """LAG/LEAD window surface: per-user inter-event gap (µs, -1 for
    the first) and next event type ('' for the last), (ts, event_id)
    order within the user partition — per-key groups, no global
    sort."""
    from dots_ocr_ray.pipelines.windows import event_gaps

    return event_gaps(sf_dir)


def _q_nearby_events(sf_dir: str):
    """Stream-stream windowed self-join, aggregated: per event, the
    count of same-user events within ±300 s — two vectorized
    searchsorted passes per user group; the quadratic match set never
    materializes."""
    from dots_ocr_ray.pipelines.windows import nearby_event_counts

    return nearby_event_counts(sf_dir, window_s=300)


def _q_user_event_seq(sf_dir: str):
    import pyarrow as pa
    import pyarrow.compute as pc

    from dots_ocr_ray.pipelines.windows import user_event_sequence

    # stay in Arrow: take_all() materializes row DICTS, which is ~25×
    # slower than batch concat for wide timestamp-bearing outputs
    tbl = pa.concat_tables(
        user_event_sequence(sf_dir).iter_batches(batch_format="pyarrow", batch_size=8192)
    )
    tbl = tbl.set_column(
        tbl.column_names.index("running_value"),
        "running_value",
        pc.round(tbl.column("running_value"), 4, round_mode="half_towards_infinity"),
    )
    return tbl.set_column(
        tbl.column_names.index("seq"), "seq", tbl.column("seq").cast(pa.int64())
    )


def _q_sliding_events(sf_dir: str):
    import pyarrow as pa
    import pyarrow.compute as pc

    from dots_ocr_ray.pipelines.windows import events_sliding_agg

    tbl = pa.concat_tables(
        events_sliding_agg(sf_dir, window_minutes=60, hop_minutes=15).iter_batches(
            batch_format="pyarrow", batch_size=8192
        )
    )
    return tbl.set_column(
        tbl.column_names.index("sum_value"), "sum_value", pc.round(tbl.column("sum_value"), 4, round_mode="half_towards_infinity")
    )


def _q_longest_per_lang(sf_dir: str):
    """Grouped top-k (windowed rank): top-3 longest documents per lang."""
    import ray.data

    from dots_ocr_ray.pipelines.relational import grouped_topk

    docs = ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "lang", "n_chars"])
    return grouped_topk(docs, key_col="lang", value_col="n_chars", id_col="doc_id", k=3)


def _q_chars_quantiles(sf_dir: str):
    """Exact discrete quantiles of n_chars via the value-counts walk
    (no global sort; one row per distinct value crosses the wire)."""
    import ray.data

    from dots_ocr_ray.pipelines.relational import exact_int_quantiles

    docs = ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=["n_chars"])
    return exact_int_quantiles(docs, "n_chars", [0.1, 0.25, 0.5, 0.75, 0.9, 0.99])


def _q_supplier_stats(sf_dir: str):
    from dots_ocr_ray.pipelines.relational import supplier_stats_by_nation

    return supplier_stats_by_nation(sf_dir)


def _q_part_stats(sf_dir: str):
    from dots_ocr_ray.pipelines.relational import part_stats_by_brand

    return part_stats_by_brand(sf_dir)


def _q_quality_filter_docs(sf_dir: str):
    """The quality keep-rule as a row filter (not just the aggregate):
    int/string output surface only, so the hash check is float-free."""
    from dots_ocr_ray.pipelines.text_analysis import quality_filter

    return quality_filter(sf_dir).select_columns(["doc_id", "lang", "n_tokens_ws"])


def _q_sessionize(sf_dir: str):
    import pyarrow as pa

    from dots_ocr_ray.pipelines.windows import sessionize

    ds = sessionize(sf_dir, gap_minutes=30)

    def _types(batch: pa.Table) -> pa.Table:
        idx = batch.column_names.index("n_events")
        return batch.set_column(idx, "n_events", batch.column("n_events").cast(pa.int64()))

    return ds.map_batches(_types, batch_format="pyarrow").select_columns(
        ["user_id", "session_id", "n_events", "session_start", "session_end"]
    )


def _q_asof_join(sf_dir: str):
    import pandas as pd

    from dots_ocr_ray.pipelines.windows import asof_last_event

    df = asof_last_event(sf_dir, "purchase", "click").to_pandas()
    # NaT-free integer surface for the value-hash compare
    prior = pd.to_datetime(df["prior_ts"]).astype("datetime64[us]")
    df["prior_us"] = prior.astype("int64").where(prior.notna(), -1).astype("int64")
    return df[["user_id", "ts", "prior_us"]]


def _q_sample_10pct(sf_dir: str):
    """Deterministic hash sampling (Knuth multiplicative): the
    training-data 'take a reproducible x% sample' op — same rows on
    every run and every engine."""
    import pyarrow as pa
    import pyarrow.compute as pc

    import ray.data

    docs = ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "lang", "n_chars"])

    def _sample(batch: pa.Table) -> pa.Table:
        # (doc_id * K) mod 2^32 via bitmask (pyarrow.compute has no mod)
        h = pc.bit_wise_and(pc.multiply(batch.column("doc_id").cast(pa.int64()), 2654435761), 0xFFFFFFFF)
        return batch.filter(pc.less(h, int(4294967296 * 0.10)))

    return docs.map_batches(_sample, batch_format="pyarrow")


def _q_longest_documents(sf_dir: str):
    """Global sort + limit over a data column (ds.sort/limit surface)."""
    import pyarrow as pa

    import ray.data

    docs = ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "lang", "n_chars"])
    top = docs.sort(["n_chars", "doc_id"], descending=[True, False]).limit(20)
    return pa.Table.from_pylist(top.take_all())


def _q_extract_grounding(sf_dir: str):
    """Grounding mode (prompt_grounding_ocr analog): extraction scoped
    to a bbox region — here the region covering only the <h1> block of
    the wrapped page, so exactly the Title span survives."""
    from dots_ocr_ray.kernel.extract import MODE_GROUNDING, ExtractConfig
    from dots_ocr_ray.pipelines.extract import extract_pages
    from dots_ocr_ray.sources.pages import pages_from_documents

    pages = pages_from_documents(sf_dir, override_num_blocks=8)
    # wrapped pages are single-line html, so block bboxes are column
    # spans on line 1.  The Title block always starts at column 136
    # (fixed wrapper prefix incl. the two-link nav) and ends before
    # column 148 for any doc_id < 10^7; the body <p> block starts at
    # column ≥ 150.  The region below therefore selects exactly the
    # Title span on every normal row.
    cfg = ExtractConfig(mode=MODE_GROUNDING, grounding_bbox=(0, 0, 148, 3))
    ds = extract_pages(pages, cfg, batch_size=64)
    return ds.select_columns(["doc_id", "extracted_text", "status", "n_spans"])


def _q_extract_links(sf_dir: str):
    """Crawl-graph construction: every <a href> per page, relative
    hrefs resolved absolute, anchors tag-stripped — the edge source a
    link-graph pipeline (host_degrees/pagerank/components) would run
    over real crawl HTML.  Zero exchange; one vectorizable pass."""
    import pyarrow as pa

    import ray.data

    from dots_ocr_ray.kernel.extract import _decode_html
    from dots_ocr_ray.kernel.html_parse import extract_links
    from dots_ocr_ray.sources.pages import pages_from_documents

    pages = pages_from_documents(sf_dir, override_num_blocks=8)

    def _links(batch: pa.Table) -> pa.Table:
        urls, hrefs, anchors = [], [], []
        for u, h in zip(
            batch.column("url").to_pylist(), batch.column("html").to_pylist()
        ):
            for link in extract_links(u, _decode_html(h)):
                urls.append(u)
                hrefs.append(link["href"])
                anchors.append(link["anchor"])
        return pa.table(
            {
                "url": pa.array(urls, type=pa.string()),
                "href": pa.array(hrefs, type=pa.string()),
                "anchor": pa.array(anchors, type=pa.string()),
            }
        )

    return pages.map_batches(_links, batch_format="pyarrow")


def _q_crawl_frontier(sf_dir: str):
    """Crawl frontier generation: distinct outgoing link targets NOT
    yet crawled — the next round's url list.  Link extraction streams
    zero-exchange; the crawled-set subtraction is a distributed anti
    hash-join on the url (no driver url set), then one keyed distinct."""
    import pyarrow as pa

    from dots_ocr_ray.pipelines.relational import hash_join
    from dots_ocr_ray.sources.pages import pages_from_documents
    from dots_ocr_ray.util import bucket_keyed_fold

    links = _q_extract_links(sf_dir)

    def _href_only(batch: pa.Table) -> pa.Table:
        return pa.table({"url": batch.column("href")})

    pages = pages_from_documents(sf_dir, override_num_blocks=8)

    def _url_only(batch: pa.Table) -> pa.Table:
        return batch.select(["url"])

    uncrawled = hash_join(
        links.map_batches(_href_only, batch_format="pyarrow"),
        pages.map_batches(_url_only, batch_format="pyarrow"),
        on="url",
        how="anti",
        left_schema=pa.schema([("url", pa.string())]),
        right_schema=pa.schema([("url", pa.string())]),
    )

    def _rename(batch: pa.Table) -> pa.Table:
        return batch.rename_columns(["href"])

    return bucket_keyed_fold(uncrawled.map_batches(_rename, batch_format="pyarrow"), "href", {})


def _q_frontier_schedule(sf_dir: str):
    """Politeness-aware fetch schedule over the crawl frontier: urls
    of one host get consecutive fetch waves (deterministic url order),
    so each wave touches a host at most once.  One groupby(host)
    exchange on top of the frontier's anti-join; inline SQL oracle via
    ROW_NUMBER() OVER (PARTITION BY host ORDER BY url)."""
    import pyarrow as pa

    from dots_ocr_ray.pipelines.graph import frontier_schedule

    frontier = _q_crawl_frontier(sf_dir)

    def _as_url(batch: pa.Table) -> pa.Table:
        return batch.rename_columns(["url"])

    return frontier_schedule(frontier.map_batches(_as_url, batch_format="pyarrow"))


def _q_inbound_anchors(sf_dir: str):
    """Inbound anchor-text rollup per link target: n_inbound links,
    distinct linking pages, distinct anchor texts and the most-frequent
    anchor — the external-description corpus a search/embedding
    pipeline builds from a crawl.  Bounded (href, anchor) / (href, src)
    partial-count exchanges; top anchor by a vectorized segment
    argmax inside one bucket exchange (no per-href Python)."""
    from dots_ocr_ray.pipelines.graph import inbound_anchor_stats

    return inbound_anchor_stats(_q_extract_links(sf_dir))


def _q_term_contexts(sf_dir: str):
    """KWIC concordance: first occurrence + ±24-char context of each
    broadcast probe term per document (lexicography / eval-probe
    extraction).  Zero exchange; vectorized find_substring prunes to
    matches before any per-row slicing."""
    import ray.data

    from dots_ocr_ray.pipelines.text_analysis import term_contexts

    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    )
    return term_contexts(docs, ["dup", "window", "merge"], width=24)


def _q_host_reputation(sf_dir: str):
    """Per-host reputation rollup over extraction output (domain filter
    list derivation): pages, finished pages, quality-kept pages,
    distinct languages, total extracted tokens — two bounded keyed
    exchanges, no per-host Python."""
    from dots_ocr_ray.pipelines.text_analysis import host_reputation

    return host_reputation(_extract_ds(sf_dir))


def _q_host_templates(sf_dir: str):
    """Per-host DOM-template detection over RAW pages (pre-extraction):
    content-blind tag-sequence fingerprints rolled up per host in one
    bucket exchange (pipelines/rollup.py).  Oracle: golden parquet from
    the independent sequential implementation sharing the pure
    fingerprint kernel."""
    from dots_ocr_ray.pipelines.text_analysis import host_template_stats
    from dots_ocr_ray.sources.pages import pages_from_documents

    return host_template_stats(pages_from_documents(sf_dir, override_num_blocks=8))


def _q_heavy_hitter_langs(sf_dir: str):
    """SpaceSaving heavy hitters over lang — with capacity ≫ distinct
    values the sketch is EXACT, so the SQL oracle checks it fully."""
    import pandas as pd

    import ray.data

    from dots_ocr_ray.functions.sketches import approx_heavy_hitters

    docs = ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=["lang"])
    top = approx_heavy_hitters(docs, "lang", k=3, capacity=256)
    return pd.DataFrame({"lang": [t[0] for t in top], "n": pd.array([t[1] for t in top], dtype="int64")})


def _q_distinct_langs(sf_dir: str):
    """Distinct over a key column (the `unique` operator surface)."""
    import pandas as pd

    import ray.data

    docs = ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=["lang"])
    return pd.DataFrame({"lang": sorted(docs.unique("lang"))})


def _q_train_val_split(sf_dir: str):
    """Deterministic train/val split (hash-based, engine-independent):
    the op every training-data pipeline ends with."""
    import pyarrow as pa
    import pyarrow.compute as pc

    import ray.data

    from dots_ocr_ray.util import bucket_keyed_fold

    docs = ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "lang"])

    def _split(batch: pa.Table) -> pa.Table:
        h = pc.bit_wise_and(pc.multiply(batch.column("doc_id").cast(pa.int64()), 2654435761), 0xFFFFFFFF)
        split = pc.if_else(pc.less(h, int(4294967296 * 0.9)), "train", "val")
        return batch.append_column("split", split)

    tagged = docs.map_batches(_split, batch_format="pyarrow")
    return bucket_keyed_fold(tagged, ["lang", "split"], {"n": ("count", None)})


def _q_chunk_stats(sf_dir: str):
    import ray.data

    from dots_ocr_ray.pipelines.chunking import chunk_documents
    from dots_ocr_ray.util import bucket_keyed_fold

    docs = ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    chunks = chunk_documents(docs, chunk_tokens=32, overlap_tokens=4)
    return bucket_keyed_fold(chunks, "doc_id", {"n_chunks": ("count", None)})


def _q_stratified_sample(sf_dir: str):
    """Balanced per-language sample: k docs per lang by deterministic
    hash priority (md5 of the doc id) — the stratified-sampling op a
    training-data pipeline uses to balance language mixes.  Rides
    grouped_topk's combiner (per-batch local top-k before the keyed
    shuffle); the oracle derives the same sample in SQL via
    row_number() over md5()."""
    import pyarrow as pa

    import ray.data

    from dots_ocr_ray.kernel.textops import md5_hex
    from dots_ocr_ray.pipelines.relational import grouped_topk

    docs = ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "lang"])

    def _pri(batch: pa.Table) -> pa.Table:
        pris = [md5_hex(str(d)) for d in batch.column("doc_id").to_pylist()]
        return batch.append_column("pri", pa.array(pris, type=pa.string()))

    out = grouped_topk(
        docs.map_batches(_pri, batch_format="pyarrow"),
        key_col="lang",
        value_col="pri",
        id_col="doc_id",
        k=5,
        ascending=True,
    )
    return out.select_columns(["lang", "doc_id"])


def _q_canonical_urls(sf_dir: str):
    """URL canonicalization (kernel.textops.normalize_url) over messy
    crawl URLs derived deterministically from doc_id — mixed-case
    hosts, default vs explicit ports, duplicate slashes, trailing
    slashes, tracking params, fragments.  The oracle derives the
    canonical form INDEPENDENTLY in SQL from the same doc_id rule, so
    the python URL parser is checked against a second implementation,
    not itself."""
    import pyarrow as pa

    import ray.data

    from dots_ocr_ray.kernel.textops import normalize_url

    docs = ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id"])

    def _messy(doc_id: int) -> str:
        host = f"Example-{doc_id % 40:02d}.COM"
        port = ":80" if doc_id % 3 == 0 else (":8080" if doc_id % 7 == 2 else "")
        path = f"/Docs//{doc_id}" + ("/" if doc_id % 2 else "")
        q = (
            f"?utm_source=feed&id={doc_id % 5}"
            if doc_id % 4 == 1
            else ("?utm_campaign=x" if doc_id % 4 == 2 else "")
        )
        frag = "#sec" if doc_id % 5 == 0 else ""
        return f"HTTP://{host}{port}{path}{q}{frag}"

    def _canon(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_pylist()
        return pa.table(
            {
                "doc_id": pa.array(ids, type=pa.int64()),
                "canonical_url": pa.array(
                    [normalize_url(_messy(i)) for i in ids], type=pa.string()
                ),
            }
        )

    return docs.map_batches(_canon, batch_format="pyarrow")


def _q_token_postings(sf_dir: str):
    """Inverted-index shape: (token, doc) pairs exploded per document
    (distinct within doc), one keyed fold by token → per-token
    document frequency + first posting.  The key is the token itself —
    uniformly spread by construction, and the explode is the only
    row-amplifying stage (bounded by tokens/doc)."""
    import pyarrow as pa

    import ray.data

    from dots_ocr_ray.util import bucket_keyed_fold

    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    )

    def _pairs(batch: pa.Table) -> pa.Table:
        import numpy as np
        import pyarrow.compute as pc

        # vectorized distinct (doc, token) explode: whitespace split →
        # flatten + parent indices → dictionary-encode tokens →
        # np.unique over (doc, code) pairs — no Python loop over rows
        lists = pc.utf8_split_whitespace(batch.column("text"))
        toks = pc.list_flatten(lists)
        parents = pc.list_parent_indices(lists)
        mask = pc.not_equal(toks, "")
        toks, parents = toks.filter(mask), parents.filter(mask)
        if isinstance(toks, pa.ChunkedArray):
            toks = toks.combine_chunks()
        doc_np = batch.column("doc_id").to_numpy(zero_copy_only=False)[
            parents.to_numpy(zero_copy_only=False)
        ]
        enc = toks.dictionary_encode()
        codes = enc.indices.to_numpy(zero_copy_only=False).astype(np.int64)
        uniq = np.unique(np.stack([doc_np, codes], axis=1), axis=0)
        return pa.table(
            {
                "token": enc.dictionary.take(pa.array(uniq[:, 1])),
                "doc_id": pa.array(uniq[:, 0], type=pa.int64()),
            }
        )

    pairs = docs.map_batches(_pairs, batch_format="pyarrow")
    return bucket_keyed_fold(pairs, "token", {"n_docs": ("count", None), "first_doc": ("min", "doc_id")})


def _q_chars_quantiles_approx(sf_dir: str):
    """Approximate quantiles via the mergeable log-histogram sketch —
    kilobyte partials, no sort/shuffle (the 10^12-row path where the
    exact value-counts walk no longer fits).  Golden oracle: the same
    deterministic sketch run sequentially."""
    import pyarrow as pa
    import pyarrow.compute as pc

    import ray.data

    from dots_ocr_ray.functions.sketches import approx_quantiles

    docs = ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=["text"])

    def _len(batch: pa.Table) -> pa.Table:
        return pa.table({"n_chars": pc.utf8_length(batch.column("text")).cast(pa.int64())})

    return approx_quantiles(
        docs.map_batches(_len, batch_format="pyarrow"), "n_chars", (0.5, 0.9, 0.99)
    )


def _q_top_tokens(sf_dir: str):
    """Corpus vocabulary heavy hitters: word explode → SpaceSaving
    partials per batch, tiny merge — the token-frequency scan a
    training-data pipeline runs before building a tokenizer.  The
    fixture vocabulary fits the sketch capacity, so counts are EXACT
    and the oracle is plain SQL."""
    import pyarrow as pa

    import ray.data

    from dots_ocr_ray.functions.sketches import approx_heavy_hitters

    docs = ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=["text"])

    def _tok(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        # vectorized explode; drop the boundary empties Arrow emits so
        # tokenization equals str.split() (and the SQL oracle's filter)
        toks = pc.list_flatten(pc.utf8_split_whitespace(batch.column("text")))
        return pa.table({"token": toks.filter(pc.not_equal(toks, ""))})

    top = approx_heavy_hitters(
        docs.map_batches(_tok, batch_format="pyarrow"), "token", k=10, capacity=1024
    )
    return pa.table(
        {
            "token": pa.array([t for t, _ in top], type=pa.string()),
            "n": pa.array([n for _, n in top], type=pa.int64()),
        }
    )


def _q_shuffled_positions(sf_dir: str):
    """Deterministic global shuffle positions (distributed
    zipWithIndex over md5(doc_id) order): bucket histogram → broadcast
    offsets → one bucket-keyed exchange.  The oracle is the SQL
    row_number over the same md5 ordering."""
    import ray.data

    from dots_ocr_ray.pipelines.packing import global_shuffle_index

    docs = ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id"])
    return global_shuffle_index(docs)


def _q_packed_sequences(sf_dir: str):
    """Concat-and-chunk sequence packing per lang stream at a 512-token
    budget: pack_id / pack_offset from a per-key running token sum."""
    import pyarrow as pa

    import ray.data

    from dots_ocr_ray.pipelines.packing import pack_sequences
    from dots_ocr_ray.pipelines.text_analysis import annotate_documents

    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text", "lang"]
    )
    annotated = annotate_documents(docs, features=("tokens_ws",))

    def _slim(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "doc_id": batch.column("doc_id"),
                "lang": batch.column("lang"),
                "n_tokens": batch.column("n_tokens_ws"),
            }
        )

    return pack_sequences(
        annotated.map_batches(_slim, batch_format="pyarrow"), budget=512
    )


def _q_grouped_split_docs(sf_dir: str):
    """Leakage-aware split: side chosen by md5(source) so a source's
    documents never straddle train/val."""
    import ray.data

    from dots_ocr_ray.pipelines.packing import grouped_split

    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "source"]
    )
    return grouped_split(docs)


def _q_repetition_stats(sf_dir: str):
    """Gopher-style per-doc repetition signals: distinct-token and
    top-bigram fractions, all batch-local and vectorized (zero
    exchange)."""
    import ray.data

    from dots_ocr_ray.pipelines.text_analysis import repetition_stats

    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    )
    return repetition_stats(docs)


def _q_mixture_rebalance(sf_dir: str):
    """Deterministic equal-weight mixture plan across langs: per-doc
    copy counts from md5-ordered ranks (one tiny count aggregate + one
    key-partitioned rank exchange)."""
    import ray.data

    from dots_ocr_ray.pipelines.packing import rebalance_mixture

    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "lang"]
    )
    return rebalance_mixture(docs)


def _q_contamination_check(sf_dir: str):
    """Benchmark decontamination: probes are the first-3-token prefixes
    of a deterministic benchmark subset (doc_id % 97 == 3 — a bounded
    eval-set stand-in), broadcast once; the corpus side is a single
    streaming vectorized substring scan."""
    import ray.data

    from dots_ocr_ray.pipelines.text_analysis import contamination_check

    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    )

    def _bench(batch):
        import pyarrow as pa

        ids = batch.column("doc_id").to_numpy(zero_copy_only=False)
        return batch.filter(pa.array(ids % 97 == 3))

    bench_rows = docs.map_batches(_bench, batch_format="pyarrow").take_all()
    probes = [
        (r["doc_id"], " ".join((r["text"] or "").split()[:3])) for r in bench_rows
    ]
    return contamination_check(docs, probes)


def _q_top_bigrams(sf_dir: str):
    """Top-20 bigram collocations with PMI — one read, one (kind, term)
    aggregate carrying unigram/bigram/total partials together."""
    import ray.data

    from dots_ocr_ray.pipelines.text_analysis import top_bigrams

    docs = ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=["text"])
    return top_bigrams(docs, k=20)


def _q_tfidf_top_terms(sf_dir: str):
    """Per-document top-3 TF-IDF terms over the corpus-level top-256
    vocabulary: two streaming passes plus ONE token-keyed aggregate for
    document frequencies — the vocabulary is a bounded table broadcast
    via ray.put, and per-doc scoring + top-k stays batch-local because
    documents are row-complete inside a batch."""
    import ray.data

    from dots_ocr_ray.pipelines.text_analysis import tfidf_top_terms

    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    )
    return tfidf_top_terms(docs, vocab_size=256, k=3)


def _q_lineitem_order_priority(sf_dir: str):
    """Skew-aware fact × fact join: lineitem ⨝ orders through
    relational.skew_join — order keys the SpaceSaving sketch flags as
    hot (≥ 7 lineitems here, so the broadcast path genuinely runs)
    join batch-locally against a ray.put right-side slice; the cold
    remainder takes the ordinary bucket exchange.  Rollup by order
    priority with the per-batch partial-aggregate combiner."""
    import pyarrow as pa

    import ray.data

    from dots_ocr_ray.pipelines.relational import skew_join
    from dots_ocr_ray.util import bucket_keyed_fold

    li = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet", columns=["l_orderkey", "l_quantity"]
    )

    def _rk(batch: pa.Table) -> pa.Table:
        return batch.rename_columns(["o_orderkey", "l_quantity"])

    orders = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet", columns=["o_orderkey", "o_orderpriority"]
    )
    # skew_join consumes its left side three times (sketch pass, hot
    # pass, cold pass) — materialize the narrow rename once
    left = li.map_batches(_rk, batch_format="pyarrow").materialize()
    joined = skew_join(
        left,
        orders,
        on="o_orderkey",
        hot_threshold=7,
        left_schema=pa.schema(
            [("o_orderkey", pa.int64()), ("l_quantity", pa.float64())]
        ),
        right_schema=pa.schema(
            [("o_orderkey", pa.int64()), ("o_orderpriority", pa.string())]
        ),
    )

    return bucket_keyed_fold(
        joined, "o_orderpriority", {"n_items": ("count", None), "sum_qty": ("sum", "l_quantity")}
    )


def _q_bucketed_customer_orders(sf_dir: str):
    """Co-partitioned bucketed-table pattern end-to-end: both sides
    written hash-bucketed by custkey once (the hash_join exchange,
    persisted), then joined with ZERO exchange (one task per bucket
    reading its two co-located file sets) — and because every batch
    holds ALL rows of its keys, the per-customer rollup is a per-batch
    group_by with NO groupby exchange either.  The 100-TB shape for a
    fact table joined repeatedly on one key."""
    import os

    import pyarrow as pa

    import ray.data

    from dots_ocr_ray.pipelines.bucketed import bucketed_join, write_bucketed

    base, built = _scratch_dir("bucketed", sf_dir)
    if not built:
        orders = ray.data.read_parquet(
            f"{sf_dir}/orders.parquet", columns=["o_custkey", "o_totalprice"]
        )

        def _rk(batch: pa.Table) -> pa.Table:
            return batch.rename_columns(["c_custkey", "o_totalprice"])

        customer = ray.data.read_parquet(
            f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_nationkey"]
        )
        write_bucketed(
            orders.map_batches(_rk, batch_format="pyarrow"),
            f"{base}/orders",
            key="c_custkey",
            num_buckets=16,
        )
        write_bucketed(customer, f"{base}/customer", key="c_custkey", num_buckets=16)
        with open(os.path.join(base, "_complete"), "w") as f:
            f.write("ok")
    joined = bucketed_join(f"{base}/orders", f"{base}/customer", on="c_custkey")

    def _rollup(batch: pa.Table) -> pa.Table:
        # globally correct WITHOUT an exchange: one batch == one
        # bucket == every row of its custkeys
        g = batch.group_by(["c_custkey", "c_nationkey"]).aggregate(
            [("o_totalprice", "sum"), ("o_totalprice", "count")]
        )
        return pa.table(
            {
                "c_custkey": g.column("c_custkey"),
                "c_nationkey": g.column("c_nationkey"),
                "n_orders": g.column("o_totalprice_count").cast(pa.int64()),
                "spend": g.column("o_totalprice_sum"),
            }
        )

    return joined.map_batches(_rollup, batch_format="pyarrow")


def _q_orders_customer_join(sf_dir: str):
    """Large × large equi-join without a broadcast side: orders ⨝
    customer through the hash-bucket exchange (relational.hash_join),
    then per-nation rollup via the partial-aggregate combiner."""
    import pyarrow as pa

    import ray.data

    from dots_ocr_ray.pipelines.relational import hash_join

    orders = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet", columns=["o_custkey", "o_totalprice"]
    )

    def _rename_key(batch: pa.Table) -> pa.Table:
        return batch.rename_columns(["c_custkey", "o_totalprice"])

    customer = ray.data.read_parquet(
        f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_nationkey"]
    )
    import pyarrow as _pa

    joined = hash_join(
        orders.map_batches(_rename_key, batch_format="pyarrow"),
        customer,
        on="c_custkey",
        # schemas passed explicitly: .schema() through the rename map
        # would execute a plan prefix (seconds of fixed cost)
        left_schema=_pa.schema(
            [("c_custkey", _pa.int64()), ("o_totalprice", _pa.float64())]
        ),
        right_schema=_pa.schema(
            [("c_custkey", _pa.int64()), ("c_nationkey", _pa.int64())]
        ),
    )

    from dots_ocr_ray.util import bucket_keyed_fold

    return bucket_keyed_fold(
        joined, "c_nationkey", {"n_orders": ("count", None), "total_spend": ("sum", "o_totalprice")}
    )


def _q_scrub_documents(sf_dir: str):
    import ray.data

    from dots_ocr_ray.functions.scrub import scrub_documents

    docs = ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    return scrub_documents(docs).select_columns(["doc_id", "text_scrubbed"])






def _q_model_quality_scores(sf_dir: str):
    """Fixed-weight logistic quality scorer (CCNet-style): vectorized
    features + one numpy sigmoid; independent SQL oracle mirrors the
    exact formula."""
    import ray.data

    from dots_ocr_ray.pipelines.text_analysis import quality_model_scores

    docs = ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    return quality_model_scores(docs)


def _q_normalized_texts(sf_dir: str):
    """NFC + lower + whitespace-collapse canonicalization; independent
    SQL oracle (nfc_normalize/lower/regexp_replace/trim)."""
    import ray.data

    from dots_ocr_ray.pipelines.text_analysis import normalize_text

    docs = ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    return normalize_text(docs)


def _q_kmeans_clusters(sf_dir: str):
    """Corpus-wide k-means cluster assignment over the embedding
    column (SemDeDup-style curation primitive): deterministic
    hash-sample training on the driver, broadcast centroids, zero
    exchange.  Golden-parquet oracle (make_golden.golden_kmeans_clusters
    — same sample / train / assign kernels, sequential)."""
    import ray.data

    from dots_ocr_ray.pipelines.similarity import kmeans_assign

    ds = ray.data.read_parquet(f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"])
    return kmeans_assign(ds)


def _q_silhouette_clusters(sf_dir: str):
    """Per-cluster simplified silhouette over the k-means cells:
    shared quantized per-point kernel, bounded (cluster, n, Σs) fold,
    integer floor-div means
    (pipelines/similarity.py:silhouette_by_cluster).  Golden-parquet
    oracle (make_golden.golden_silhouette_clusters)."""
    import ray.data

    from dots_ocr_ray.pipelines.similarity import silhouette_by_cluster

    ds = ray.data.read_parquet(
        f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"]
    )
    return silhouette_by_cluster(ds)


def _q_semdedup_docs(sf_dir: str):
    """SemDeDup semantic pruning (Abbas et al. 2023): k-means
    partition, then within-cluster cosine-threshold dedup keeping the
    min id of every near-duplicate neighborhood.  The raw embeddings
    table has no near-dup pairs, so a deterministic injection
    (fixtures.inject_near_dup_embeddings, shared with the golden)
    plants three ~19-member groups at sim ≈ 0.99.  Golden-parquet
    oracle (make_golden.golden_semdedup_docs)."""
    import pyarrow as pa

    import ray.data

    from dots_ocr_ray.fixtures import inject_near_dup_embeddings
    from dots_ocr_ray.pipelines.similarity import semdedup_prune
    from dots_ocr_ray.util import vec_matrix

    ds = ray.data.read_parquet(f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"])

    def _inject(batch: pa.Table) -> pa.Table:
        import numpy as np

        ids = batch.column("vec_id").to_numpy(zero_copy_only=False).astype(np.int64)
        mat = inject_near_dup_embeddings(ids, vec_matrix(batch.column("embedding"), dtype=np.float32))
        return pa.table(
            {
                "vec_id": batch.column("vec_id"),
                "embedding": pa.array(list(mat), type=pa.list_(pa.float32())),
            }
        )

    return semdedup_prune(ds.map_batches(_inject, batch_format="pyarrow"), threshold=0.95)


def _dsir_inputs(sf_dir: str):
    import pyarrow.compute as _pc

    import ray.data

    docs = ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])

    def _target(batch):
        ids = batch.column("doc_id")
        rem = _pc.subtract(ids, _pc.multiply(_pc.divide(ids, 11), 11))
        return batch.filter(_pc.equal(rem, 2))

    return docs, docs.map_batches(_target, batch_format="pyarrow")


def _q_dsir_scores(sf_dir: str):
    """DSIR importance log-weights (Xie et al. 2023): hashed-ngram
    distributions of raw corpus vs the doc_id%11==2 target domain in
    one mergeable-partial pass each, llr broadcast, zero-exchange
    scoring.  Golden-parquet oracle (make_golden.golden_dsir_scores,
    same pure kernels sequentially)."""
    from dots_ocr_ray.pipelines.curation import dsir_scores

    docs, target = _dsir_inputs(sf_dir)
    return dsir_scores(docs, target)


def _q_dsir_sample(sf_dir: str):
    """Gumbel-top-64 DSIR resample (sampling w/o replacement ∝ w,
    deterministic per-id Gumbel noise).  Golden-parquet oracle."""
    from dots_ocr_ray.pipelines.curation import dsir_resample

    docs, target = _dsir_inputs(sf_dir)
    return dsir_resample(docs, target, 64)


def _q_decontaminate_docs(sf_dir: str):
    """Benchmark n-gram decontamination (GPT-3 13-gram rule at k=8):
    every 8-token gram of the doc_id%97==3 benchmark set marks its
    covered span in the whole corpus; covered tokens are cut and the
    text rebuilt (bench docs self-erase, clean docs pass through
    normalized).  Inline SQL oracle: the same window-function k-gram
    construction as substring_dedup_docs, with the duplicate table
    replaced by the bench gram set."""
    import ray.data

    from dots_ocr_ray.pipelines.curation import ngram_decontaminate

    docs = ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])

    def _bench(batch):
        import pyarrow.compute as _pc

        ids = batch.column("doc_id")
        rem = _pc.subtract(ids, _pc.multiply(_pc.divide(ids, 97), 97))
        return batch.filter(_pc.equal(rem, 3))

    bench = docs.map_batches(_bench, batch_format="pyarrow")
    return ngram_decontaminate(docs, bench, k=8, mode="cut")


def _q_ann_ivf_topk(sf_dir: str):
    from dots_ocr_ray.pipelines.similarity import ivf_topk

    queries, ds = _ann_inputs(sf_dir)
    return ivf_topk(ds, queries, k=5).select(["query_id", "vec_id", "rank"])


def _q_ann_pq_topk(sf_dir: str):
    """Product-quantization ANN: per-subspace codebooks trained on the
    deterministic bottom-k hash sample (driver, tiny), corpus encoded
    to m-byte codes (zero-exchange broadcast stage, 32x smaller than
    float32), then ADC top-k via broadcast lookup tables + per-batch
    local top-k + tiny merge.  Oracle: golden parquet from the
    independent sequential mirror over the same pure kernels."""
    from dots_ocr_ray.pipelines.similarity import (
        hash_sample_matrix,
        pq_encode,
        pq_topk,
        pq_train_codebooks,
    )

    queries, ds = _ann_inputs(sf_dir)
    sample = hash_sample_matrix(ds, n=256)
    books = pq_train_codebooks(sample, m=8, n_codes=16, iters=5)
    codes = pq_encode(ds, books)
    return pq_topk(codes, books, queries, k=5).select(["query_id", "vec_id", "rank"])


def entry() -> Any:
    """Flagship pipeline: documents@sf0.001 → pages → streaming
    extraction tasks → result Dataset (rows >= 0, stable schema)."""
    ds = _extract_ds("/root/testdata/sf0.001")
    return ds.select_columns(
        ["url", "lang", "extracted_text", "extracted_text_nohf", "status", "n_spans", "bytes_in"]
    )


def _q_customers_without_orders(sf_dir: str):
    """Distributed ANTI join (hash-bucket form): customers with no
    URGENT order, counted per market segment.  The right side (orders)
    is the FACT table — too large to broadcast as a set at corpus
    scale, so the filter runs as the bucketed semi/anti hash join; the
    priority predicate is pushed into the parquet read."""
    import pyarrow as pa
    import pyarrow.dataset as pds

    import ray.data

    from dots_ocr_ray.pipelines.relational import hash_join
    from dots_ocr_ray.util import bucket_keyed_fold

    customer = ray.data.read_parquet(
        f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_mktsegment"]
    )
    orders = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet",
        columns=["o_custkey"],
        filter=(pds.field("o_orderpriority") == "1-URGENT"),
    )

    def _rename(batch: pa.Table) -> pa.Table:
        return batch.rename_columns(["c_custkey"])

    kept = hash_join(
        customer,
        orders.map_batches(_rename, batch_format="pyarrow"),
        on="c_custkey",
        how="anti",
        right_schema=pa.schema([("c_custkey", pa.int64())]),
    )

    return bucket_keyed_fold(kept, "c_mktsegment", {"n_customers": ("count", None)})


def _q_acctbal_price_band(sf_dir: str):
    """Band (interval) join — the non-equi join Ray Data lacks,
    expressed as the bucketed range_join operator: parts whose retail
    price falls within ±25 of a customer's account balance, aggregated
    per customer.  Interval endpoints are computed with the same
    float64 arithmetic DuckDB's BETWEEN uses, so the match set is
    bit-identical."""
    import pyarrow as pa
    import pyarrow.compute as pc

    import ray.data

    from dots_ocr_ray.pipelines.relational import interval_agg_join

    customer = ray.data.read_parquet(
        f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_acctbal"]
    )

    def _iv(batch: pa.Table) -> pa.Table:
        bal = batch.column("c_acctbal").cast(pa.float64())
        return pa.table(
            {
                "c_custkey": batch.column("c_custkey"),
                "lo": pc.subtract(bal, pa.scalar(25.0)),
                "hi": pc.add(bal, pa.scalar(25.0)),
            }
        )

    part = ray.data.read_parquet(f"{sf_dir}/part.parquet", columns=["p_retailprice"])
    # the downstream is an aggregate, so the aggregating band join
    # applies: per-bucket prefix sums turn every interval into two
    # searchsorted lookups and the (quadratic) match set never
    # materializes (the generic match-emitting form is range_join)
    agg = interval_agg_join(
        customer.map_batches(_iv, batch_format="pyarrow"),
        part,
        key="c_custkey",
        left_lo="lo",
        left_hi="hi",
        right_on="p_retailprice",
        bucket_width=50.0,
    )

    def _final(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "c_custkey": batch.column("c_custkey"),
                "n_parts": batch.column("agg_count").cast(pa.int64()),
                "sum_price": pc.round(batch.column("agg_sum"), 2, round_mode="half_towards_infinity"),
            }
        )

    return agg.map_batches(_final, batch_format="pyarrow")


def _q_len_quantiles_by_lang(sf_dir: str):
    """Per-group exact quantiles via the grouped value-counts walk —
    one (lang, n_chars) exchange, never a per-row sort."""
    import ray.data

    from dots_ocr_ray.pipelines.relational import exact_int_quantiles_by_key

    docs = ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=["lang", "n_chars"])
    return exact_int_quantiles_by_key(docs, "lang", "n_chars", [0.5, 0.9, 0.99])


def _q_jsonl_lang_counts(sf_dir: str):
    """Resilient JSONL source end-to-end: documents round-trip through
    newline-delimited JSON shards (written via Ray's JSON sink), one
    wholly corrupt shard is injected, and the reader recovers every
    valid row while counting the damage (sources/jsonl.py skips
    malformed lines per file instead of failing the shard).  Counts by
    lang must equal the parquet originals."""
    import json
    import os

    import pyarrow as pa

    import ray.data

    from dots_ocr_ray.sources.jsonl import read_jsonl
    from dots_ocr_ray.util import bucket_keyed_fold

    base, built = _scratch_dir("jsonl", sf_dir)
    if not built:
        docs = ray.data.read_parquet(
            f"{sf_dir}/documents.parquet", columns=["doc_id", "lang"]
        )
        docs.write_json(base)
        with open(os.path.join(base, "zz_corrupt.jsonl"), "wb") as f:
            f.write(b"{truncated \n\xff\xfe garbage\n[1,2]\n")
            f.write(json.dumps({"doc_id": -1, "lang": "xx"}).encode() + b"\n")
        with open(os.path.join(base, "_complete"), "w") as f:
            f.write("ok")
    paths = sorted(
        os.path.join(base, p) for p in os.listdir(base) if not p.startswith("_")
    )
    ds = read_jsonl(
        paths, schema=pa.schema([("doc_id", pa.int64()), ("lang", pa.string())])
    )

    def _valid(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        return batch.filter(pc.greater_equal(batch.column("doc_id"), 0))

    return bucket_keyed_fold(ds.map_batches(_valid, batch_format="pyarrow"), "lang", {"n": ("count", None)})


def _q_lang_source_rollup(sf_dir: str):
    """GROUP BY ROLLUP(lang, source) counts: one distributed pass at
    the finest level, coarser levels derived from the bounded result."""
    import ray.data

    from dots_ocr_ray.pipelines.relational import rollup_counts

    docs = ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=["lang", "source"])
    return rollup_counts(docs, ["lang", "source"])



def _q_line_dedup_docs(sf_dir: str):
    """C4/Falcon-style corpus-wide LINE dedup over the extracted pages:
    every line appearing >= 5 times corpus-wide (blank block
    separators, shared footers) is dropped from every document,
    remaining line order preserved.  Two-pass: frequent-line aggregate
    (pre-combined per batch) then a broadcast batch-local filter —
    text never reships; above the broadcast budget the operator
    switches to a distributed anti hash-join + reassembly."""
    from dots_ocr_ray.pipelines.dedup import line_dedup

    # line_dedup consumes its input twice (frequency pass + filter
    # pass) — materialize the narrow extraction output once so the
    # extraction actors run a single time
    ds = (
        _extract_ds(sf_dir)
        .select_columns(["doc_id", "extracted_text"])
        .materialize()
    )
    return line_dedup(ds, text_col="extracted_text", id_col="doc_id", min_count=5)


def _q_compression_ratios(sf_dir: str):
    """RefinedWeb-style repetitiveness signal: zlib compressed-size
    ratio per document (zero exchange; the codec is the per-row cost).
    Golden-parquet oracle (tools/make_golden.py:
    golden_compression_ratios, shared zlib kernel)."""
    import ray.data

    from dots_ocr_ray.pipelines.text_analysis import compression_ratios

    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    )
    return compression_ratios(docs)


def _q_bigram_lm_scores(sf_dir: str):
    """CCNet-style LM quality signal: add-one-smoothed bigram LM
    trained on the corpus itself (two count exchanges of per-batch
    np.unique partials), every document scored with its average bigram
    log-probability via a broadcast searchsorted pass (distributed
    hash-join tier above the budget)."""
    import ray.data

    from dots_ocr_ray.pipelines.text_analysis import bigram_lm_scores

    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    ).materialize()  # consumed three times (2 count passes + scoring)
    return bigram_lm_scores(docs, text_col="text", id_col="doc_id")


def _q_substring_dedup_docs(sf_dir: str):
    """Corpus-level EXACT-SUBSTRING dedup (Lee et al. 2022 ExactSubstr
    over token 8-grams, suffix array replaced by two streaming Ray
    passes): every 8-token gram occurring >= 2 times corpus-wide is
    removed from every position it covers; survivors re-join with
    single spaces.  Pass 1 = per-batch np.unique gram-hash partials +
    one groupby sum; pass 2 = broadcast sorted dup-hash array +
    searchsorted/difference-array coverage, batch-local rebuild (above
    the broadcast budget: semi hash-join + per-doc starts + one join
    back, fully distributed)."""
    import ray.data

    from dots_ocr_ray.pipelines.substring import substring_dedup

    # consumed twice (count pass + filter pass) — materialize the
    # narrow projection once
    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    ).materialize()
    return substring_dedup(docs, text_col="text", id_col="doc_id", k=8, min_count=2)


def _q_lang_diversity(sf_dir: str):
    """Simpson + inverse-Simpson (effective category count) of the
    language mix — the single number a mixture-rebalancing plan reads
    (pipelines/text_analysis.py:category_diversity).  All-integer
    ladder; one bounded category exchange."""
    import ray.data

    from dots_ocr_ray.pipelines.text_analysis import category_diversity

    docs = ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=["lang"])
    return category_diversity(docs, category_col="lang")


def _q_k_anonymity(sf_dir: str):
    """k-anonymity / l-diversity release audit over customer with
    quasi-identifiers (nation, market segment) and the acctbal
    thousand-band as the sensitive attribute
    (pipelines/profile.py:k_anonymity_audit): groups smaller than k=5
    re-identify members; low distinct-sensitive groups leak the
    attribute.  One coarse qi-hash exchange, five scalars per bucket.
    SQL oracle: GROUP BY qi + FILTER aggregates."""
    import pyarrow as pa
    import ray.data

    from dots_ocr_ray.pipelines.profile import k_anonymity_audit

    cust = ray.data.read_parquet(
        f"{sf_dir}/customer.parquet",
        columns=["c_nationkey", "c_mktsegment", "c_acctbal"],
    )

    def _band(batch):
        import numpy as np

        b = np.floor(
            batch.column("c_acctbal").to_numpy(zero_copy_only=False) / 1000.0
        ).astype(np.int64)
        return pa.table(
            {
                "c_nationkey": batch.column("c_nationkey"),
                "c_mktsegment": batch.column("c_mktsegment"),
                "sens_band": pa.array(b, type=pa.int64()),
            }
        )

    return k_anonymity_audit(
        cust.map_batches(_band, batch_format="pyarrow"),
        qi_cols=["c_nationkey", "c_mktsegment"],
        sensitive_col="sens_band",
        k=5,
    )


def _q_token_burstiness(sf_dir: str):
    """Top-20 bursty tokens (Church-Gale TF/DF at DF >= 5) — topical
    words repeat inside the documents that mention them
    (pipelines/text_analysis.py:token_burstiness).  One token-keyed
    exchange + local top-k partials; burst DESC, token ASC cutoff
    mirrored by the SQL oracle."""
    import ray.data

    from dots_ocr_ray.pipelines.text_analysis import token_burstiness

    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    )
    return token_burstiness(docs, min_df=5, k=20)


def _q_drift_js(sf_dir: str):
    """Jensen-Shannon drift between the crawl-snapshot halves — the
    symmetric bounded divergence a drift dashboard thresholds
    (pipelines/drift.py:distribution_drift_js).  Same Laplace
    smoothing + literal operand-order mirroring as drift_kl."""
    from dots_ocr_ray.pipelines.drift import distribution_drift_js

    return distribution_drift_js(sf_dir, category="lang")


def _q_vocab_coverage(sf_dir: str):
    """Good-Turing unseen-token mass + bias-corrected Chao1 vocabulary
    richness over the corpus — the crawl-planning statistic "how much
    language is still missing" (pipelines/text_analysis.py:
    vocab_coverage).  Entirely integer arithmetic from four exact
    scalars (N, V, hapax, dis); one token-hash count exchange.  SQL
    oracle: token groupby + FILTER counts + the same integer ladder."""
    import ray.data

    from dots_ocr_ray.pipelines.text_analysis import vocab_coverage

    docs = ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=["text"])
    return vocab_coverage(docs)


def _q_host_quality_shrunken(sf_dir: str):
    """Empirical-Bayes shrunken per-host quality keep-rates
    (beta-binomial method-of-moments prior over the fixture hosts
    doc_id % 97; kept = n_chars >= 200): a 1-of-2 host stops outranking
    a 480-of-1000 one (pipelines/text_analysis.py:eb_shrunken_rates).
    The moment fit consumes only exact integer sums (H, Σpm, Σpm²) and
    one fixed-association float expression, mirrored literally by the
    SQL oracle — bit-identical across partitionings."""
    import pyarrow as pa
    import ray.data

    from dots_ocr_ray.pipelines.text_analysis import eb_shrunken_rates

    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "n_chars"]
    )

    def _partials(batch):
        import numpy as np

        ids = batch.column("doc_id").to_numpy(zero_copy_only=False).astype(np.int64)
        nc = batch.column("n_chars").to_numpy(zero_copy_only=False).astype(np.int64)
        host = ids % 97
        kept = (nc >= 200).astype(np.int64)
        uniq, inv = np.unique(host, return_inverse=True)
        n = np.bincount(inv).astype(np.int64)
        k = np.bincount(inv, weights=kept).astype(np.int64)
        return pa.table(
            {
                "host": pa.array(uniq, type=pa.int64()),
                "n": pa.array(n, type=pa.int64()),
                "k": pa.array(k, type=pa.int64()),
            }
        )

    return eb_shrunken_rates(
        docs.map_batches(_partials, batch_format="pyarrow"), key_col="host"
    )


def _q_gram_novelty(sf_dir: str):
    """Cross-crawl n-gram NOVELTY rate — for every NEW document (the
    incremental-convention split doc_id % 37 != 3 vs the % 37 == 3
    archive), how many of its 8-gram positions carry a gram never seen
    in the archive (pipelines/substring.py:gram_novelty).  Archive
    grams reduce to one distinct-hash table (per-batch np.unique + a
    count exchange); under the broadcast budget the sorted hash array
    ships once and the new side scores zero-exchange via
    sorted_membership + bincounts; above it an anti hash_join on gram
    + a doc-keyed count fold.  SQL oracle: the repo's standard window
    k-gram assembly + NOT IN against the archive's distinct grams."""
    import ray.data

    from dots_ocr_ray.pipelines.substring import gram_novelty

    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    )
    def _split(want_old: bool):
        def _fn(batch):
            import numpy as np
            import pyarrow as pa_

            ids = batch.column("doc_id").to_numpy(zero_copy_only=False)
            m = (ids % 37) == 3
            return batch.filter(pa_.array(m if want_old else ~m))

        return _fn

    old = docs.map_batches(_split(True), batch_format="pyarrow")
    new = docs.map_batches(_split(False), batch_format="pyarrow")
    return gram_novelty(old, new, text_col="text", id_col="doc_id", k=8)


def _q_adaptive_length_filter(sf_dir: str):
    """Per-language adaptive length filter: keep documents whose
    n_chars is at or above their language's exact 10th percentile.
    Thresholds come from ONE (lang, n_chars)-level count exchange
    (rows per distinct value, never per doc); the tiny threshold
    table broadcasts into a stateless vectorized filter."""
    import numpy as np
    import pyarrow as pa
    import ray.data

    from dots_ocr_ray.pipelines.relational import exact_int_quantiles_by_key

    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "lang", "n_chars"]
    )
    thr_tbl = exact_int_quantiles_by_key(docs, "lang", "n_chars", [0.1])
    thresholds = {
        k: int(v)
        for k, v in zip(thr_tbl.column("lang").to_pylist(), thr_tbl.column("value").to_pylist())
    }
    thr_ref = ray.put(thresholds)

    from dots_ocr_ray.util import cached_object

    def _keep(batch: pa.Table) -> pa.Table:
        thr = cached_object(thr_ref)
        langs = batch.column("lang").to_pylist()
        chars = batch.column("n_chars").to_numpy(zero_copy_only=False)
        lo = np.fromiter((thr.get(l, 0) for l in langs), dtype=np.int64, count=len(langs))
        return batch.filter(pa.array(chars >= lo))

    return docs.map_batches(_keep, batch_format="pyarrow")


def _q_host_degrees(sf_dir: str):
    """Per-host in/out degree over the deterministic host link graph
    (one keyed exchange; per-batch bidirectional partials)."""
    from dots_ocr_ray.pipelines.graph import degree_table, host_edges_from_documents

    return degree_table(host_edges_from_documents(sf_dir))


def _q_host_components(sf_dir: str):
    """Connected components over the sparse host chain graph (25 path
    components of 16 hosts — 15-hop label propagation).  Ray side:
    cluster_assign (driver union-find under the pair budget,
    distributed min-label propagation above it); oracle: recursive-CTE
    closure over the identically derived edges."""
    from dots_ocr_ray.pipelines.graph import connected_hosts

    return connected_hosts(sf_dir)


def _q_host_pagerank(sf_dir: str):
    """Distributed PageRank (5 iterations, damping 0.85) over the host
    link graph; rank reported relative to uniform (mean 1.0).  Oracle:
    golden parquet from the independent sequential implementation."""
    import pyarrow as pa

    from dots_ocr_ray.pipelines.graph import host_edges_from_documents, pagerank

    tbl = pagerank(host_edges_from_documents(sf_dir), num_iters=5, damping=0.85)
    n = tbl.num_rows
    import pyarrow.compute as pc

    return tbl.set_column(
        tbl.schema.get_field_index("rank"),
        "rank_rel",
        pc.multiply(tbl.column("rank"), float(n)),
    )


def _q_window_distinct_users(sf_dir: str):
    """Tumbling 1h windows → exact distinct user count (batch-level
    pair pre-dedup, one keyed exchange)."""
    from dots_ocr_ray.pipelines.windows import window_distinct_users

    return window_distinct_users(sf_dir, window_minutes=60)


def _q_tokens_per_char_regression(sf_dir: str):
    """Per-language OLS fit of whitespace-token count against n_chars
    via mergeable sufficient statistics (one tiny keyed exchange);
    matches SQL regr_slope/intercept/r2."""
    import ray.data

    from dots_ocr_ray.pipelines.relational import linreg_by_key
    from dots_ocr_ray.pipelines.text_analysis import annotate_documents

    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text", "lang", "n_chars"]
    )
    annotated = annotate_documents(docs, features=("tokens_ws",))
    return linreg_by_key(annotated, key="lang", x="n_chars", y="n_tokens_ws")


def _q_doc_length_pct_rank(sf_dir: str):
    """SQL percent_rank() OVER (PARTITION BY lang ORDER BY n_chars)
    without a window shuffle: one (lang, value)-level count exchange,
    broadcast per-key CDF, batch-local searchsorted lookup."""
    import ray.data

    from dots_ocr_ray.pipelines.relational import percent_rank_by_key

    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "lang", "n_chars"]
    )
    return percent_rank_by_key(docs, key="lang", col="n_chars")


def _q_doc_validation(sf_dir: str):
    """Data-quality assertion gate: named vectorized rules → flat
    (doc_id, rule) violation stream, zero exchange.  Rules exercise
    both single-column and cross-column (n_chars vs len(text))
    consistency."""
    import pyarrow as pa
    import pyarrow.compute as pc

    import ray.data

    from dots_ocr_ray.functions.validate import validate_rows

    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text", "n_chars"]
    )

    def _short(b: pa.Table):
        return pc.less(b.column("n_chars"), 200)

    def _mismatch(b: pa.Table):
        return pc.not_equal(
            b.column("n_chars").cast(pa.int64()),
            pc.utf8_length(b.column("text")).cast(pa.int64()),
        )

    def _empty(b: pa.Table):
        t = b.column("text")
        return pc.or_(pc.is_null(t), pc.equal(t, ""))

    def _few_tokens(b: pa.Table):
        # null-safe (a NULL text row — which the sibling empty_text
        # rule exists to flag — must count 0 tokens, not crash the
        # whole validation query on NaN list lengths)
        from dots_ocr_ray.util import ws_token_counts_checked

        return pa.array(ws_token_counts_checked(b.column("text")) < 30)

    return validate_rows(
        docs,
        {
            "short_text": _short,
            "n_chars_mismatch": _mismatch,
            "empty_text": _empty,
            "few_tokens": _few_tokens,
        },
    )


def _q_lang_source_cube(sf_dir: str):
    """GROUP BY CUBE over (lang, source): one finest-level exchange,
    all four grouping sets derived from the bounded result."""
    import ray.data

    from dots_ocr_ray.pipelines.relational import cube_counts

    docs = ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=["lang", "source"])
    return cube_counts(docs, ["lang", "source"])


def _q_weighted_sample_docs(sf_dir: str):
    """Deterministic weight-proportional sampling without replacement
    (Efraimidis–Spirakis over the Knuth-hash uniform): top-16 docs by
    u^(1/n_chars) — longer docs proportionally likelier, reproducible
    across engines, one streaming pass with local top-k partials."""
    import ray.data

    from dots_ocr_ray.pipelines.relational import weighted_sample

    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "lang", "n_chars"]
    )
    return weighted_sample(docs, id_col="doc_id", weight_col="n_chars", k=16)


def _q_length_outliers(sf_dir: str):
    """Per-lang z-score outlier flagging over n_chars: sufficient-stats
    exchange → broadcast (mean, std) → batch-local flag."""
    import ray.data

    from dots_ocr_ray.pipelines.relational import zscore_outliers

    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "lang", "n_chars"]
    )
    return zscore_outliers(docs, key_col="lang", value_col="n_chars", z_thresh=1.8)


def _q_token_id_sample(sf_dir: str):
    """Tokenizer vocabulary build + text→id encoding: exact top-32
    whitespace vocabulary over the WHOLE corpus (one token exchange,
    local top-V partials), broadcast once, then vectorized index_in
    encoding of the doc_id%20==0 sample to (doc_id, pos, token_id)."""
    import pyarrow as pa

    import ray.data

    from dots_ocr_ray.pipelines.text_analysis import build_vocab, encode_token_ids

    docs = ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    vocab = build_vocab(docs, vocab_size=32)

    def _sample(batch: pa.Table) -> pa.Table:
        import numpy as np

        ids = batch.column("doc_id").to_numpy(zero_copy_only=False)
        return batch.filter(pa.array(ids % 20 == 0))

    return encode_token_ids(docs.map_batches(_sample, batch_format="pyarrow"), vocab)


def _q_incremental_dedup(sf_dir: str):
    """Recurring-crawl incremental exact dedup under the hard oracle:
    docs with doc_id%3==0 play yesterday's ARCHIVE (only their md5
    INDEX is read — the refresh_corpus shape), the rest are the new
    batch; docs with doc_id%5==2 carry one of 11 shared texts so the
    new batch collides both with the archive and within itself."""
    import pyarrow as pa

    import ray.data

    from dots_ocr_ray.pipelines.dedup import exact_dedup_incremental
    from dots_ocr_ray.kernel.textops import md5_hex

    docs = ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])

    def _shared_rule(batch: pa.Table) -> pa.Table:
        import numpy as np

        ids = batch.column("doc_id").to_numpy(zero_copy_only=False)
        texts = batch.column("text").to_pylist()
        out = [
            f"SHARED {i % 11}" if i % 5 == 2 else t for i, t in zip(ids, texts)
        ]
        return pa.table(
            {"doc_id": batch.column("doc_id"), "text": pa.array(out, type=pa.string())}
        )

    base = docs.map_batches(_shared_rule, batch_format="pyarrow")

    def _archive_index(batch: pa.Table) -> pa.Table:
        import numpy as np

        ids = batch.column("doc_id").to_numpy(zero_copy_only=False)
        arch = batch.filter(pa.array(ids % 3 == 0))
        hashes = [md5_hex(t or "") for t in arch.column("text").to_pylist()]
        return pa.table({"content_md5": pa.array(hashes, type=pa.string())})

    def _new_rows(batch: pa.Table) -> pa.Table:
        import numpy as np

        ids = batch.column("doc_id").to_numpy(zero_copy_only=False)
        return batch.filter(pa.array(ids % 3 != 0))

    index = base.map_batches(_archive_index, batch_format="pyarrow")
    new_batch = base.map_batches(_new_rows, batch_format="pyarrow")
    fresh = exact_dedup_incremental(
        new_batch,
        index,
        new_schema=pa.schema([("doc_id", pa.int64()), ("text", pa.string())]),
    )
    return fresh.select_columns(["doc_id", "text"])


def _q_incremental_minhash(sf_dir: str):
    """Incremental MinHash near-dup dedup under the hard oracle:
    archive = doc_id%3==0 contributes only its stored SIGNATURES; the
    new batch is the rest; docs with doc_id%7==4 form one planted
    near-dup family spanning both sides, so new members drop against
    the archive and within-new clusters keep their min id.
    Golden-parquet oracle (make_golden.golden_incremental_minhash —
    same MinHasher / band / hot-cap / est-jaccard kernels,
    sequential)."""
    import pyarrow as pa

    import ray.data

    from dots_ocr_ray.pipelines.dedup import (
        minhash_dedup_incremental,
        minhash_signatures,
    )

    docs = ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    base = " ".join(f"w{k:02d}" for k in range(60))

    def _plant(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_numpy(zero_copy_only=False)
        texts = batch.column("text").to_pylist()
        out = [
            f"{base} tail {i % 3}" if i % 7 == 4 else t for i, t in zip(ids, texts)
        ]
        return pa.table(
            {"doc_id": batch.column("doc_id"), "text": pa.array(out, type=pa.string())}
        )

    planted = docs.map_batches(_plant, batch_format="pyarrow")

    def _archive(batch: pa.Table) -> pa.Table:
        import numpy as np

        ids = batch.column("doc_id").to_numpy(zero_copy_only=False)
        return batch.filter(pa.array(ids % 3 == 0))

    def _new(batch: pa.Table) -> pa.Table:
        import numpy as np

        ids = batch.column("doc_id").to_numpy(zero_copy_only=False)
        return batch.filter(pa.array(ids % 3 != 0))

    index_sigs = minhash_signatures(
        planted.map_batches(_archive, batch_format="pyarrow")
    )
    new_ds = planted.map_batches(_new, batch_format="pyarrow")
    return minhash_dedup_incremental(new_ds, index_sigs, threshold=0.8)


def _q_composite_quality_filter(sf_dir: str):
    """FineWeb/RefinedWeb-style combined keep-filter in ONE zero-
    exchange pass: the heuristic quality gates (≥5 tokens, mean word
    length 1–15, alpha ratio ≥ 0.5 — the quality_filter_docs rules)
    AND the Gopher repetition gates (distinct-token fraction ≥ 0.3,
    top-bigram fraction ≤ 0.2).  Both feature families are batch-local
    (annotate_documents + repetition_stats with keep_cols
    passthrough); nothing shuffles."""
    import pyarrow as pa
    import pyarrow.compute as pc

    import ray.data

    from dots_ocr_ray.pipelines.text_analysis import (
        annotate_documents,
        repetition_stats,
    )

    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text", "lang"]
    )
    ann = annotate_documents(docs, features=("tokens_ws", "quality"))
    rep = repetition_stats(
        ann, keep_cols=("lang", "n_tokens_ws", "alpha_ratio", "mean_word_len")
    )

    def _keep(batch: pa.Table) -> pa.Table:
        keep = pc.and_(
            pc.and_(
                pc.and_(
                    pc.greater_equal(batch.column("n_tokens_ws"), 5),
                    pc.and_(
                        pc.greater_equal(batch.column("mean_word_len"), 1.0),
                        pc.less_equal(batch.column("mean_word_len"), 15.0),
                    ),
                ),
                pc.greater_equal(batch.column("alpha_ratio"), 0.5),
            ),
            pc.and_(
                pc.greater_equal(batch.column("distinct_frac"), 0.3),
                pc.less_equal(batch.column("top_bigram_frac"), 0.2),
            ),
        )
        return batch.filter(keep).select(
            ["doc_id", "lang", "n_tokens_ws", "distinct_frac", "top_bigram_frac"]
        )

    return rep.map_batches(_keep, batch_format="pyarrow")


def _q_perplexity_buckets(sf_dir: str):
    """CCNet-style perplexity bucketing: every doc lands in the
    head / middle / tail tercile of its LANGUAGE by bigram-LM score
    (the corpus-quality split CCNet uses KenLM perplexity for).
    Composition of two proven pieces — bigram_lm_scores (two count
    exchanges + broadcast scoring) and percent_rank_by_key (one
    (lang, score)-level count exchange + CDF broadcast, no window
    shuffle); lang joins in via the distributed hash_join on doc_id.
    Scores quantize to int64 micro-units (round half-away × 1e6) so
    rank keys are integer-exact across engines; the tercile compare
    is ``pr * 3 < k`` with percent_rank's (rank-1)/(n-1) formula on
    both sides."""
    import pyarrow as pa

    import ray.data

    from dots_ocr_ray.pipelines.relational import hash_join, percent_rank_by_key
    from dots_ocr_ray.pipelines.text_analysis import bigram_lm_scores
    from dots_ocr_ray.util import round_half_away

    # ONE column-pruned read, materialized: bigram_lm_scores consumes
    # its input three times (two count passes + scoring), and the lang
    # join below projects from the same table instead of a fourth read
    full = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text", "lang"]
    ).materialize()
    scores = bigram_lm_scores(full.select_columns(["doc_id", "text"]))

    def _quantize(batch: pa.Table) -> pa.Table:
        import numpy as np

        lp = batch.column("avg_logp").to_numpy(zero_copy_only=False)
        key = round_half_away(lp * 1_000_000.0, 0).astype(np.int64)
        return pa.table(
            {
                "doc_id": batch.column("doc_id"),
                "score_key": pa.array(key, type=pa.int64()),
            }
        )

    langs = full.select_columns(["doc_id", "lang"])
    keyed = hash_join(
        scores.map_batches(_quantize, batch_format="pyarrow"),
        langs,
        on="doc_id",
        left_schema=pa.schema([("doc_id", pa.int64()), ("score_key", pa.int64())]),
        right_schema=pa.schema([("doc_id", pa.int64()), ("lang", pa.string())]),
    )
    ranked = percent_rank_by_key(keyed, key="lang", col="score_key")

    def _bucket(batch: pa.Table) -> pa.Table:
        import numpy as np

        pr = batch.column("pct_rank").to_numpy(zero_copy_only=False)
        bucket = np.where(pr * 3.0 < 1.0, "head", np.where(pr * 3.0 < 2.0, "middle", "tail"))
        return pa.table(
            {
                "doc_id": batch.column("doc_id"),
                "lang": batch.column("lang"),
                "score_key": batch.column("score_key"),
                "bucket": pa.array(bucket, type=pa.string()),
            }
        )

    return ranked.map_batches(_bucket, batch_format="pyarrow")


def _q_crawl_diff_docs(sf_dir: str):
    """Snapshot diff between two crawls of one url space (added /
    removed / changed / unchanged per url) — the deterministic split:
    old crawl misses doc_id%4==0, new crawl misses doc_id%4==1, and
    the new crawl rewrote the text of doc_id%6==3."""
    import pyarrow as pa
    import pyarrow.compute as pc

    import ray.data

    from dots_ocr_ray.kernel.textops import md5_hex
    from dots_ocr_ray.pipelines.document import crawl_diff

    docs = ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])

    def _mod(col, m):
        return pc.subtract(col, pc.multiply(pc.divide(col, m), m))

    def _old(batch: pa.Table) -> pa.Table:
        batch = batch.filter(pc.not_equal(_mod(batch.column("doc_id"), 4), 0))
        hashes = [md5_hex(t or "") for t in batch.column("text").to_pylist()]
        return pa.table(
            {
                "doc_id": batch.column("doc_id"),
                "content_md5": pa.array(hashes, type=pa.string()),
            }
        )

    def _new(batch: pa.Table) -> pa.Table:
        batch = batch.filter(pc.not_equal(_mod(batch.column("doc_id"), 4), 1))
        ids = batch.column("doc_id").to_numpy(zero_copy_only=False)
        hashes = [
            md5_hex((t or "") + (" v2" if i % 6 == 3 else ""))
            for i, t in zip(ids, batch.column("text").to_pylist())
        ]
        return pa.table(
            {
                "doc_id": batch.column("doc_id"),
                "content_md5": pa.array(hashes, type=pa.string()),
            }
        )

    return crawl_diff(
        docs.map_batches(_old, batch_format="pyarrow"),
        docs.map_batches(_new, batch_format="pyarrow"),
    )


def _q_table_profile(sf_dir: str):
    """One-pass column profile of the documents table (null rates, HLL
    distinct, numeric/length stats) — mergeable partials, one tiny
    exchange.  Oracle: golden parquet from the independent sequential
    profiler sharing the HLL kernel."""
    import ray.data

    from dots_ocr_ray.pipelines.profile import profile_table

    return profile_table(ray.data.read_parquet(f"{sf_dir}/documents.parquet"))


def _q_bpe_merges(sf_dir: str):
    """BPE tokenizer training over the documents corpus: deterministic
    bottom-k hash sample → driver-side merge learning (training is
    inherently sequential; the sample bound is what scales) — the
    tokenizer artifact a training-data pipeline must produce.  Oracle:
    golden parquet from the sequential mirror sharing the bpe_train
    kernel (tools/make_golden.py:golden_bpe_merges)."""
    import ray.data

    from dots_ocr_ray.pipelines.tokenizer import train_bpe

    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    return train_bpe(ds)


def _q_bpe_token_stats(sf_dir: str):
    """Corpus-wide BPE application: per-document whitespace-token and
    BPE-piece counts under the trained merges (tokenizer fertility —
    the signal that gates a tokenizer before a training run).  Merges
    broadcast once; zero exchange; distinct-word memoized encode.
    Oracle: golden parquet from the sequential word-by-word encoder
    over the same kernels (make_golden.golden_bpe_token_stats)."""
    import ray.data

    from dots_ocr_ray.pipelines.tokenizer import bpe_token_stats, train_bpe

    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    merges = train_bpe(ds)
    return bpe_token_stats(ds, merges)


def _q_bpe_piece_vocab(sf_dir: str):
    """Top-64 BPE pieces by corpus frequency under the trained merges
    (vocabulary-usage report).  Exercises the distributed exploded
    encode: per-batch piece partials → ONE vocabulary-bounded groupby
    → per-block top-k → k×blocks driver merge.  Oracle: golden parquet
    from the sequential word-by-word Counter mirror
    (make_golden.golden_bpe_piece_vocab)."""
    import ray.data

    from dots_ocr_ray.pipelines.tokenizer import bpe_piece_vocab, train_bpe

    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    merges = train_bpe(ds)
    return bpe_piece_vocab(ds, merges)


def _q_logreg_weights(sf_dir: str):
    """Distributed full-corpus logistic-regression training (distill
    the heuristic quality keep-rule into a compact linear model —
    the fasttext-curation workflow): featurize once into a
    narrow materialized table, then 12 fixed gradient passes each
    shipping ONE int64-quantized (d+2)-value row per block — integer
    sums are layout-insensitive, so the weights exactly equal the
    sequential mirror's.  Oracle: golden parquet
    (make_golden.golden_logreg_weights)."""
    import numpy as np
    import pyarrow as pa

    import ray.data

    from dots_ocr_ray.pipelines.classifier import featurize_labeled, train_logreg
    from dots_ocr_ray.util import round_half_away

    ds = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    )
    w = train_logreg(featurize_labeled(ds))
    return pa.table(
        {
            "idx": pa.array(np.arange(len(w)), type=pa.int64()),
            "weight": pa.array(round_half_away(w, 6), type=pa.float64()),
        }
    )


def _q_logreg_scores(sf_dir: str):
    """Corpus-wide scoring under the trained classifier: (doc_id,
    score@6dp, pred, label) — train as in logreg_weights, then one
    zero-exchange broadcast scoring pass.  Oracle: golden parquet
    (make_golden.golden_logreg_scores)."""
    import ray.data

    from dots_ocr_ray.pipelines.classifier import (
        featurize_labeled,
        logreg_score,
        train_logreg,
    )

    ds = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    )
    feats = featurize_labeled(ds)
    w = train_logreg(feats)
    return logreg_score(feats, w)


def _q_packed_by_pieces(sf_dir: str):
    """Token-budget sequence packing under the TRAINED tokenizer:
    per-lang concat-and-chunk streams cut at a 512 BPE-PIECE budget —
    the layout a pretraining loader actually consumes (packed_sequences
    uses whitespace tokens; this composes the bpe fertility op in).
    Fertility stats carry lang through (zero-exchange keep_cols), one
    lang-keyed group exchange for the running sums.  Oracle: window
    cumsum in SQL over the golden fertility parquet joined to
    documents for lang."""
    import ray.data

    from dots_ocr_ray.pipelines.packing import pack_sequences
    from dots_ocr_ray.pipelines.tokenizer import bpe_token_stats, train_bpe

    ds = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text", "lang"]
    )
    merges = train_bpe(ds)
    stats = bpe_token_stats(ds, merges, keep_cols=("lang",))
    return pack_sequences(
        stats, key_col="lang", order_col="doc_id", token_col="n_pieces", budget=512
    )


def _q_classifier_eval(sf_dir: str):
    """Exact distributed eval of the trained quality classifier:
    accuracy / precision / recall / tie-aware Mann-Whitney AUC from
    per-score-value count partials (scores are 6-dp values in [0,1],
    so the count exchange is bounded at ≤1M rows at ANY corpus size).
    Oracle: inline DuckDB window-function rank-sum over the golden
    scores parquet — an INDEPENDENT AUC derivation, not a mirror."""
    import ray.data

    from dots_ocr_ray.pipelines.classifier import (
        classifier_eval,
        featurize_labeled,
        logreg_score,
        train_logreg,
    )

    ds = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    )
    feats = featurize_labeled(ds)
    w = train_logreg(feats)
    return classifier_eval(logreg_score(feats, w))


def _q_pca_components(sf_dir: str):
    """Distributed PCA fit over the embedding corpus: one
    (d + d² + 1)-int64 moment partial per block (per-row 2^-20
    quantization makes the fold exactly layout-insensitive), driver
    eigendecomposition with deterministic sign fixing.  Output:
    (component, idx, loading@6dp, eigval@6dp) long-form.  Oracle:
    golden parquet (make_golden.golden_pca_components)."""
    import numpy as np
    import pyarrow as pa

    import ray.data

    from dots_ocr_ray.pipelines.pca import fit_pca
    from dots_ocr_ray.util import round_half_away

    ds = ray.data.read_parquet(
        f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"]
    )
    _, comps, evals = fit_pca(ds)
    k, d = comps.shape
    return pa.table(
        {
            "component": pa.array(np.repeat(np.arange(k), d), type=pa.int64()),
            "idx": pa.array(np.tile(np.arange(d), k), type=pa.int64()),
            "loading": pa.array(round_half_away(comps.ravel(), 6), type=pa.float64()),
            "eigval": pa.array(
                round_half_away(np.repeat(evals, d), 6), type=pa.float64()
            ),
        }
    )


def _q_pca_projected(sf_dir: str):
    """Corpus-wide PCA projection to the top-8 components: fit as in
    pca_components, then one zero-exchange broadcast matmul pass →
    (vec_id, c0..c7 @6dp).  Oracle: golden parquet
    (make_golden.golden_pca_projected)."""
    import ray.data

    from dots_ocr_ray.pipelines.pca import fit_pca, pca_project

    ds = ray.data.read_parquet(
        f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"]
    )
    mean, comps, _ = fit_pca(ds)
    return pca_project(ds, mean, comps)


def _q_recrawl_priority(sf_dir: str):
    """Recrawl scheduling priority per host: change_rate (from the
    crawl_diff fixture split) × relative PageRank (host link graph) —
    the crawl-ordering composition.  Oracle: the diff classes and host
    mapping are SQL arithmetic; the rank joins from the checked-in
    host_pagerank golden parquet."""
    from dots_ocr_ray.pipelines.graph import host_edges_from_documents, pagerank
    from dots_ocr_ray.pipelines.refresh import recrawl_priority

    diff = _q_crawl_diff_docs(sf_dir)
    import pyarrow as pa
    import pyarrow.compute as pc

    ranks = pagerank(host_edges_from_documents(sf_dir), num_iters=5, damping=0.85)
    ranks = ranks.set_column(
        ranks.schema.get_field_index("rank"),
        "rank_rel",
        pc.multiply(ranks.column("rank"), float(ranks.num_rows)),
    )
    return recrawl_priority(diff, ranks)


def _q_event_funnel(sf_dir: str):
    """Ordered funnel over the events stream: signup → first view
    strictly after the signup → first purchase strictly after that
    view; one user-keyed exchange, driver sees 3 numbers."""
    import ray.data

    from dots_ocr_ray.pipelines.windows import funnel_counts

    events = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["user_id", "event_type", "ts"]
    )
    return funnel_counts(events, ["signup", "view", "purchase"])


def _q_shipping_priority(sf_dir: str):
    """TPC-H Q3 shape: three-table join (customer segment filter →
    orders semi-join → lineitem revenue rollup).  The segment filter
    is the exact semi-join dedup.semi_join_ids (hash_join's sorted-id
    broadcast under the size rule, one keyed exchange above it);
    lineitem is pre-filtered to the surviving order keys by the SAME
    semi-join BEFORE any rollup (two-sided Q3 pushdown), the per-order revenue reduces through ONE
    bucket-keyed exchange with a vectorized lexsort+reduceat fold
    (Python cost O(buckets), not O(orders) — the native per-key Sum
    measured ~6 s at 150k orders; cent-scale integer quantities make
    the deterministic-order sum reproducible), the tiny revenue⨝orders
    join is the distributed hash_join, and the top-10 reduces through
    per-batch local top-k partials — the driver never sees more than
    10 rows per block."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.compute as pc

    import ray.data

    from dots_ocr_ray.pipelines.dedup import semi_join_ids
    from dots_ocr_ray.pipelines.relational import hash_join
    from dots_ocr_ray.util import bucket_exchange

    cutoff = pa.scalar(__import__("datetime").datetime(1998, 1, 1))

    lineitem = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_orderkey", "l_extendedprice", "l_discount", "l_shipdate"],
    )

    def _rev_rows(batch: pa.Table) -> pa.Table:
        batch = batch.filter(pc.greater(batch.column("l_shipdate"), cutoff))
        rev = pc.multiply(
            batch.column("l_extendedprice"),
            pc.subtract(pa.scalar(1.0), batch.column("l_discount")),
        )
        return pa.table(
            {
                "l_orderkey": batch.column("l_orderkey").cast(pa.int64()),
                "rev": rev,
            }
        )

    def _rev_reduce(group: pa.Table) -> pa.Table:
        # vectorized per-order sum inside one bucket group; lexsort on
        # (rev, orderkey) fixes the float-addition order independent of
        # block arrival, so the sum is bit-reproducible across runs
        ok = group.column("l_orderkey").to_numpy(zero_copy_only=False)
        rv = group.column("rev").to_numpy(zero_copy_only=False)
        order = np.lexsort((rv, ok))
        ok, rv = ok[order], rv[order]
        new_ord = np.ones(len(ok), bool)
        new_ord[1:] = ok[1:] != ok[:-1]
        starts = np.nonzero(new_ord)[0]
        return pa.table(
            {
                "l_orderkey": pa.array(ok[starts], pa.int64()),
                "revenue": pa.array(np.add.reduceat(rv, starts), pa.float64()),
            }
        )

    customer = ray.data.read_parquet(
        f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_mktsegment"]
    )

    def _building(batch: pa.Table) -> pa.Table:
        batch = batch.filter(pc.equal(batch.column("c_mktsegment"), "BUILDING"))
        return batch.select(["c_custkey"])

    orders = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderkey", "o_custkey", "o_orderdate", "o_orderpriority"],
    )

    def _open_orders(batch: pa.Table) -> pa.Table:
        return batch.filter(pc.less(batch.column("o_orderdate"), cutoff))

    orders_building = semi_join_ids(
        orders.map_batches(_open_orders, batch_format="pyarrow"),
        customer.map_batches(_building, batch_format="pyarrow"),
        id_col="o_custkey",
        id_cols=("c_custkey",),
    ).materialize()

    # two-sided pushdown: only lineitems of surviving orders enter the
    # revenue rollup (the same exact semi-join)
    lineitem_kept = semi_join_ids(
        lineitem.map_batches(_rev_rows, batch_format="pyarrow"),
        orders_building,
        id_col="l_orderkey",
        id_cols=("o_orderkey",),
    )
    revenue = bucket_exchange(lineitem_kept, "l_orderkey", _rev_reduce, num_buckets=64)

    def _rename_ok(batch: pa.Table) -> pa.Table:
        return batch.select(
            ["o_orderkey", "o_orderdate", "o_orderpriority"]
        ).rename_columns(["l_orderkey", "o_orderdate", "o_orderpriority"])

    joined = hash_join(
        revenue,
        orders_building.map_batches(_rename_ok, batch_format="pyarrow"),
        on="l_orderkey",
        left_schema=pa.schema([("l_orderkey", pa.int64()), ("revenue", pa.float64())]),
        right_schema=pa.schema(
            [
                ("l_orderkey", pa.int64()),
                ("o_orderdate", pa.timestamp("us")),
                ("o_orderpriority", pa.string()),
            ]
        ),
    )

    def _local_topk(batch: pa.Table) -> pa.Table:
        order = pc.sort_indices(
            batch,
            sort_keys=[("revenue", "descending"), ("l_orderkey", "ascending")],
        )
        return batch.take(order[:10])

    merged = pa.concat_tables(
        joined.map_batches(_local_topk, batch_format="pyarrow").iter_batches(
            batch_format="pyarrow"
        )
    )
    order = pc.sort_indices(
        merged, sort_keys=[("revenue", "descending"), ("l_orderkey", "ascending")]
    )
    return merged.take(order[:10]).select(
        ["l_orderkey", "revenue", "o_orderdate", "o_orderpriority"]
    )


def _q_events_pivot_daily(sf_dir: str):
    """PIVOT events to one column pair per event type (daily count +
    value sum): batch-local pivot partials, one day-keyed exchange."""
    import pyarrow as pa
    import pyarrow.compute as pc

    import ray.data

    from dots_ocr_ray.pipelines.relational import pivot_agg

    events = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["ts", "event_type", "value"]
    )

    def _day(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "day": pc.floor_temporal(batch.column("ts"), unit="day"),
                "event_type": batch.column("event_type"),
                "value": batch.column("value"),
            }
        )

    return pivot_agg(
        events.map_batches(_day, batch_format="pyarrow"),
        key_col="day",
        pivot_col="event_type",
        categories=["click", "error", "purchase", "signup", "view"],
        value_col="value",
    )


def _q_approx_users_by_type(sf_dir: str):
    """Grouped HLL: approx COUNT(DISTINCT user_id) per event_type —
    each batch ships one 4-KB register blob per key instead of the
    (key, user) pairs; register max is partitioning-independent, so
    the sketch is deterministic → golden-parquet hard check."""
    import ray.data

    from dots_ocr_ray.functions.sketches import grouped_approx_distinct

    events = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["event_type", "user_id"]
    )
    return grouped_approx_distinct(events, key_col="event_type", val_col="user_id", p=12)


def _q_ngram_diversity(sf_dir: str):
    """Corpus n-gram diversity curve (n=1..3): per-batch HLL partials
    per n, one tiny n-keyed merge — exact distinct n-grams would be a
    corpus-sized exchange per n.  Golden-parquet oracle
    (make_golden.golden_ngram_diversity, same sketch kernel over
    sequential per-doc splits)."""
    import ray.data

    from dots_ocr_ray.pipelines.text_analysis import ngram_diversity

    docs = ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=["text"])
    return ngram_diversity(docs, max_n=3, p=14)


def _q_fuzzy_vocab_match(sf_dir: str):
    """Fuzzy vocabulary scan: every corpus token within edit distance 1
    of each probe — vocab-bounded groupby then a zero-exchange
    vectorized Levenshtein pass (DP advances across ALL candidates per
    numpy op).  Oracle: DuckDB levenshtein over the unnested vocab."""
    import ray.data

    from dots_ocr_ray.pipelines.text_analysis import fuzzy_vocab_match

    docs = ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=["text"])
    return fuzzy_vocab_match(
        docs,
        probes=["joins", "scam", "kery", "data", "dup"],
        text_col="text",
        max_dist=1,
    )


def _q_temperature_mixture(sf_dir: str):
    """Square-root temperature sampling plan across langs: integer
    isqrt weights (== FLOOR(SQRT) in SQL below 2^52), md5-ordered ±1
    assignment within each lang — one tiny count aggregate + one
    key-partitioned rank exchange."""
    import ray.data

    from dots_ocr_ray.pipelines.packing import temperature_mixture

    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "lang"]
    )
    return temperature_mixture(docs)


def _q_regional_supplier_volume(sf_dir: str):
    """TPC-H Q5 shape: per-nation revenue where customer and supplier
    share a nation inside one region — broadcast dims, supplier-map
    broadcast with batch-local tagging + order-group combiner, two
    fact-fact hash joins."""
    from dots_ocr_ray.pipelines.relational import regional_supplier_volume

    return regional_supplier_volume(
        sf_dir, region="ASIA", date_lo="1996-01-01", date_hi="1998-01-01"
    )


def _q_user_activity_buckets(sf_dir: str):
    """Frequency-of-frequencies: power-of-two histogram of events per
    user (one user-keyed count exchange + a ≤64-row bucket sum)."""
    import ray.data

    from dots_ocr_ray.pipelines.relational import grouped_count_histogram

    events = ray.data.read_parquet(f"{sf_dir}/events.parquet", columns=["user_id"])
    return grouped_count_histogram(events, key_col="user_id", out_count="n_users")


def _q_daily_anomalies(sf_dir: str):
    """Time-series anomaly scan: daily event counts per type, z-scored
    within the type (composition: tiny day×type count exchange feeding
    the sufficient-stats zscore_outliers operator)."""
    import pyarrow as pa
    import pyarrow.compute as pc

    import ray.data

    from dots_ocr_ray.pipelines.relational import zscore_outliers
    from dots_ocr_ray.util import bucket_keyed_fold

    events = ray.data.read_parquet(f"{sf_dir}/events.parquet", columns=["ts", "event_type"])

    def _day(batch: pa.Table) -> pa.Table:
        day = pc.floor_temporal(batch.column("ts"), unit="day").cast(pa.timestamp("us"))
        return pa.table({"day": day, "event_type": batch.column("event_type")})

    daily = bucket_keyed_fold(
        events.map_batches(_day, batch_format="pyarrow"), ["day", "event_type"], {"n": ("count", None)}
    )
    return zscore_outliers(daily, key_col="event_type", value_col="n", z_thresh=1.5)


def _q_cohort_retention(sf_dir: str):
    """Weekly cohort retention matrix over events (distinct user-weeks
    → vectorized per-user min → user-keyed hash join → tiny count)."""
    from dots_ocr_ray.pipelines.windows import cohort_retention

    return cohort_retention(sf_dir)


def _q_bm25_scores(sf_dir: str):
    """Okapi BM25 of every document against three probe terms: one
    corpus scan emitting match rows + in-band corpus-stats rows, then
    zero-exchange scoring with (df, N, avgdl) in the closure."""
    import ray.data

    from dots_ocr_ray.pipelines.text_analysis import bm25_scores

    docs = ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    return bm25_scores(docs, probes=["data", "join", "spark"])


def _q_host_triangles(sf_dir: str):
    """Exact triangle count over the host graph (multiplier edges +
    the (h, h+1) successor arm, which closes 8 triangles): degree
    orientation bounds the wedge set; closure via packed-pair semi
    join."""
    import numpy as np
    import pyarrow as pa

    import ray.data

    from dots_ocr_ray.pipelines.graph import (
        N_HOSTS,
        host_edges_from_documents,
        triangle_count,
    )

    docs = ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id"])

    def _succ(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_numpy(zero_copy_only=False).astype(np.int64)
        h = np.unique(ids % N_HOSTS)
        return pa.table(
            {
                "src": pa.array(h, type=pa.int64()),
                "dst": pa.array((h + 1) % N_HOSTS, type=pa.int64()),
            }
        )

    edges = host_edges_from_documents(sf_dir).union(
        docs.map_batches(_succ, batch_format="pyarrow")
    )
    return triangle_count(edges)


CMS_PROBES = ("the", "data", "join", "hash", "zqxzqx")


def _q_corpus_overlap(sf_dir: str):
    """HLL set-overlap between the customer key universe and the
    event-active user ids: |A|, |B|, |A∪B| from register-max union,
    |A∩B| by inclusion–exclusion — the entity-coverage audit (same
    mechanics as crawl-snapshot overlap) with zero exchange: per-batch
    register partials fold on the driver, never a semi-join.  Oracle:
    golden parquet from the bit-equal sequential build."""
    import pyarrow as pa

    import ray.data

    from dots_ocr_ray.functions.sketches import corpus_overlap

    def _as_key(col: str):
        def _fn(batch: pa.Table) -> pa.Table:
            return pa.table({"k": batch.column(col).cast(pa.string())})

        return _fn

    left = ray.data.read_parquet(
        f"{sf_dir}/customer.parquet", columns=["c_custkey"]
    ).map_batches(_as_key("c_custkey"), batch_format="pyarrow")
    right = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["user_id"]
    ).map_batches(_as_key("user_id"), batch_format="pyarrow")
    return corpus_overlap(left, right, col="k")


def _q_vocab_edit_pairs(sf_dir: str):
    """All customer-name pairs within edit distance 1 — the
    entity-resolution fuzzy SELF join (near-identical ids/names)
    fuzzy_vocab_match's fixed probe list can't express: SymSpell
    deletion-neighborhood blocking + self hash-join on the block key +
    candidate-proportional verification.  Oracle: DuckDB levenshtein
    self-join over the same names."""
    import ray.data

    from dots_ocr_ray.pipelines.text_analysis import vocab_edit_pairs

    names = ray.data.read_parquet(f"{sf_dir}/customer.parquet", columns=["c_name"])
    return vocab_edit_pairs(names, text_col="c_name", tokenize=False)


def _q_cms_token_counts(sf_dir: str):
    """Count-Min sketch point estimates for probe tokens over the
    corpus (whitespace tokens): per-batch 4x2048 int64 partial
    matrices fold on the driver — zero exchange, O(blocks) 64-KB
    blobs; estimate >= true always, overshoot bounded by (e/width)*N.
    Oracle: golden parquet from the sequential build of the SAME
    deterministic sketch (integer adds commute, so partitioning
    cannot change a cell)."""
    import ray.data

    from dots_ocr_ray.functions.sketches import cms_probe_counts

    docs = ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=["text"])
    return cms_probe_counts(docs, col="text", probes=list(CMS_PROBES))


def _q_host_kcore(sf_dir: str):
    """Undirected 4-core of the host link graph: iterative peeling
    until every surviving host keeps >= 4 distinct neighbors — the
    link-farm / tight-community density signal raw degree can't give.
    Oracle: golden parquet from an independent sequential set-based
    peel."""
    from dots_ocr_ray.pipelines.graph import host_edges_from_documents, kcore

    return kcore(host_edges_from_documents(sf_dir), k=4)


def _q_host_communities(sf_dir: str):
    """Label-propagation community detection over the
    planted-community host graph (25 dense 16-host blocks + weak
    bridges): synchronous neighbor-majority updates with a self-vote
    and smallest-label tie-break, 8 iterations.  Driver-array tier at
    this scale; distributed tier is one hash join + one bucket-keyed
    argmax exchange per iteration.  Oracle: golden parquet from an
    independent sequential per-node Counter loop."""
    from dots_ocr_ray.pipelines.graph import (
        community_edges_from_documents,
        label_propagation,
    )

    return label_propagation(community_edges_from_documents(sf_dir), num_iters=8)


def _q_token_pmi(sf_dir: str):
    """Token co-occurrence PMI over the exact top-32 whitespace
    vocabulary: document-frequency counts, pmi = ln(n_ab*N/(n_a*n_b)),
    pairs with n_ab >= 2, lexicographic token_a < token_b.  One vocab
    exchange, then zero-exchange V x V matrix partials folded on the
    driver.  Oracle: DuckDB distinct doc-token self-join."""
    import ray.data

    from dots_ocr_ray.pipelines.text_analysis import token_pmi

    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=["text"])
    return token_pmi(ds, top_v=32, min_pair=2)


def _q_keyword_search(sf_dir: str):
    """Lexical retrieval over a PERSISTED inverted index: postings
    (token, doc_id, tf) written hash-bucketed by token once (the token
    exchange persisted, pipelines/bucketed.py layout), then an AND
    query reads ONLY the bucket directories its terms hash into with a
    parquet token-IN filter — the read is bounded by the posting
    lists, never the corpus.  Oracle: DuckDB exploded token counts
    with HAVING count(*) = n_terms."""
    import ray.data

    from dots_ocr_ray.pipelines.retrieval import build_inverted_index, keyword_search

    base, built = _scratch_dir("invindex", sf_dir)
    import os

    if not built:
        docs = ray.data.read_parquet(
            f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
        )
        build_inverted_index(docs, f"{base}/index", num_buckets=32)
        with open(os.path.join(base, "_complete"), "w") as f:
            f.write("ok")
    return keyword_search(
        f"{base}/index", ["customer", "filter", "merge"], mode="and"
    )


def _q_host_random_walks(sf_dir: str):
    """Deterministic uniform random walks over the host link graph
    (2 walks x 4 steps per host, hash-derived choices so any work
    partitioning yields identical walks) — the DeepWalk/node2vec
    corpus-prep op.  Oracle: golden parquet from an independent
    sequential dict-adjacency walker sharing only the pure step
    hash."""
    from dots_ocr_ray.pipelines.graph import host_edges_from_documents, random_walks

    return random_walks(
        host_edges_from_documents(sf_dir), walks_per_node=2, walk_len=4, seed=7
    )


def _q_robots_allowed(sf_dir: str):
    """Robots-rules crawl gate: longest-prefix path match per host
    (equal-length allow beats disallow, no rule = allowed) over every
    crawled page url, with a deterministic per-host rule fixture
    (whole-host blocks, /doc-00 disallows, /doc-000 allow
    carve-outs).  Broadcast-rules tier here; the distributed tier is
    one host join + one url-keyed fold.  Oracle: DuckDB
    longest-match via ROW_NUMBER over joined rules."""
    import pyarrow as pa

    import ray.data

    from dots_ocr_ray.pipelines.graph import robots_filter
    from dots_ocr_ray.sources.pages import pages_from_documents

    rows = []
    for nn in range(40):
        host = f"example-{nn:02d}.com"
        if nn % 10 == 7:
            rows.append((host, "/", False))
        if nn % 3 == 0:
            rows.append((host, "/doc-00", False))
        if nn % 6 == 0:
            rows.append((host, "/doc-000", True))
    rules = ray.data.from_arrow(
        pa.table(
            {
                "host": pa.array([r[0] for r in rows], type=pa.string()),
                "prefix": pa.array([r[1] for r in rows], type=pa.string()),
                "allow": pa.array([r[2] for r in rows], type=pa.bool_()),
            }
        )
    )
    pages = pages_from_documents(sf_dir, override_num_blocks=8)

    def _url_only(batch: pa.Table) -> pa.Table:
        return batch.select(["url"])

    return robots_filter(pages.map_batches(_url_only, batch_format="pyarrow"), rules)


def _q_walk_skipgrams(sf_dir: str):
    """Skip-gram training pairs from the deterministic host walks:
    (center, context, n) for hosts within 2 steps on the same walk,
    both directions.  Two bucket-keyed exchanges (walk co-location,
    pair rollup).  Oracle: DuckDB self-join over the golden walks
    parquet."""
    from dots_ocr_ray.pipelines.graph import (
        host_edges_from_documents,
        random_walks,
        skipgram_pairs,
    )

    walks = random_walks(
        host_edges_from_documents(sf_dir), walks_per_node=2, walk_len=4, seed=7
    )
    return skipgram_pairs(walks, window=2)


def _q_community_modularity(sf_dir: str):
    """Modularity Q of the label-propagation communities over the
    planted-block host graph — the cluster-quality gate composing
    label_propagation + modularity.  Q is one exact integer numerator
    / one float division (9 dp), so it is bit-identical to the SQL
    mirror.  Oracle: DuckDB integer-arithmetic modularity over the
    edge CTE + the golden communities parquet."""
    from dots_ocr_ray.pipelines.graph import (
        community_edges_from_documents,
        label_propagation,
        modularity,
    )

    edges = community_edges_from_documents(sf_dir)
    comms = label_propagation(edges, num_iters=8)
    return modularity(edges, comms)


def _q_compact_roundtrip(sf_dir: str):
    """Small-file compaction end-to-end: the documents table written
    as 48 KB-scale files, bin-packed and rewritten as ~2 compacted
    files (data-then-marker commit, resume skips finished groups),
    read back in full.  Content must survive byte-exactly — the oracle
    is the original table itself."""
    import os

    import ray.data

    from dots_ocr_ray.pipelines.packing import compact_parquet

    base, built = _scratch_dir("compact", sf_dir)
    small = os.path.join(base, "small")
    out = os.path.join(base, "out")
    if not built:
        ray.data.read_parquet(f"{sf_dir}/documents.parquet").repartition(
            48
        ).write_parquet(small)
        stats = compact_parquet(small, out, target_bytes=8 << 20)
        assert stats["n_output_files"] < stats["n_input_files"]
        with open(os.path.join(base, "_complete"), "w") as f:
            f.write("ok")
    return ray.data.read_parquet(
        out,
        columns=["doc_id", "text", "lang", "source", "n_chars"],
        file_extensions=["parquet"],  # skip the .done commit markers
    )


def _q_nb_lang_predictions(sf_dir: str):
    """Multinomial Naive Bayes language ID: trained on doc_id%3<>0
    (top-64 vocab, add-one smoothing), predicting the held-out third.
    Log-probs quantized to int64 micro-units so scores are integer
    sums — argmax bit-identical to the SQL mirror; ties break to the
    smallest label.  Oracle: full DuckDB NB derivation."""
    import ray.data

    from dots_ocr_ray.pipelines.classifier import nb_predict, nb_train

    import pyarrow as pa
    import pyarrow.compute as pc

    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text", "lang"]
    )

    def _split(is_train: bool):
        def _f(batch: pa.Table) -> pa.Table:
            ids = batch.column("doc_id").to_numpy(zero_copy_only=False)
            keep = (ids % 3 != 0) if is_train else (ids % 3 == 0)
            return batch.filter(pa.array(keep))

        return _f

    train = docs.map_batches(_split(True), batch_format="pyarrow")
    test = docs.map_batches(_split(False), batch_format="pyarrow")
    model = nb_train(train, vocab_size=64)
    return nb_predict(test, model)


def _q_host_scc(sf_dir: str):
    """Strongly connected components of the directed host graph (20
    planted directed cycles + one-way chain bridges): scc_id = min
    member id.  Driver-tier iterative Tarjan at this scale; the
    distributed tier is Fleischer-Hendrickson-Pinar trim + forward/
    backward BFS rounds.  Oracle: golden parquet from an independent
    sequential Kosaraju."""
    from dots_ocr_ray.pipelines.graph import scc, scc_edges_from_documents

    return scc(scc_edges_from_documents(sf_dir))


def _q_lang_stratified_sample(sf_dir: str):
    """Deterministic stratified sample: the 5 docs per language with
    the smallest md5(doc_id || ':7') rank — exact-k-per-stratum eval
    draw, identical on every engine and rerun.  One bucket-keyed
    exchange.  Oracle: ROW_NUMBER over md5 rank per lang."""
    import ray.data

    from dots_ocr_ray.pipelines.relational import sample_per_key

    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "lang"]
    )
    return sample_per_key(docs, key_col="lang", id_col="doc_id", k=5, seed=7)


def _q_host_doc_gini(sf_dir: str):
    """Partitioning-skew diagnostic: Gini coefficient of per-host doc
    counts over the url fixture (the 'should I salt this key' number).
    Integer sums, one final division (9 dp) — bit-identical to the
    SQL window mirror."""
    import pyarrow as pa

    import ray.data

    from dots_ocr_ray.pipelines.relational import key_count_gini

    docs = ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id"])

    def _host(batch: pa.Table) -> pa.Table:
        import numpy as np

        ids = batch.column("doc_id").to_numpy(zero_copy_only=False)
        # skewed host rule: doc_id % 40 hosts, but half of all docs
        # pile onto host 0 (the hot-domain shape)
        host = np.where(ids % 2 == 0, 0, ids % 40)
        return pa.table({"host": pa.array(host.astype("int64"), type=pa.int64())})

    return key_count_gini(
        docs.map_batches(_host, batch_format="pyarrow"), key_col="host"
    )


def _q_order_value_histogram(sf_dir: str):
    """Equi-depth 8-bin histogram of order value: boundaries are the
    exact i/8 quantiles (quantile_disc semantics), bin = count of
    boundaries <= value, sums as integer cents — bit-identical to the
    SQL mirror.  ~3 quantile scans + one binning scan, zero
    exchanges."""
    import ray.data

    from dots_ocr_ray.pipelines.relational import equi_depth_histogram

    orders = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet", columns=["o_totalprice"]
    )
    return equi_depth_histogram(orders, "o_totalprice", n_bins=8)


def _q_ann_ivf_persisted(sf_dir: str):
    """IVF index PERSISTENCE roundtrip: build the hive-partitioned
    cell layout once (scratch-cached), query it reading ONLY the
    probed cells' files — results must be bit-equal to the in-memory
    ivf_topk run, so the oracle is the SAME golden parquet as
    ann_ivf_topk."""
    import os

    from dots_ocr_ray.pipelines.similarity import ivf_build_index, ivf_query_index

    queries, ds = _ann_inputs(sf_dir)
    base, built = _scratch_dir("ivfindex", sf_dir)
    idx = os.path.join(base, "index")
    if not built:
        ivf_build_index(ds, idx)
        with open(os.path.join(base, "_complete"), "w") as f:
            f.write("ok")
    return ivf_query_index(idx, queries, k=5).select(["query_id", "vec_id", "rank"])


def _q_diverse_top_docs(sf_dir: str):
    """Diversity-constrained global top-k (search-results rule: best
    20 docs by length with AT MOST 2 per host): one bucket-keyed
    top_per_key(2) exchange prunes to ≤ 2·hosts rows, then a tiny
    driver sort picks the global 20.  Oracle = ROW_NUMBER per host +
    global ORDER BY."""
    import pyarrow as pa

    import ray.data

    from dots_ocr_ray.pipelines.relational import top_per_key

    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "n_chars"]
    )

    def _host(batch: pa.Table) -> pa.Table:
        import numpy as np

        ids = batch.column("doc_id").to_numpy(zero_copy_only=False).astype(np.int64)
        host = pa.array([f"example-{i % 40:02d}" for i in ids], type=pa.string())
        return batch.append_column("host", host)

    capped = top_per_key(
        docs.map_batches(_host, batch_format="pyarrow"),
        key_col="host",
        k=2,
        desc_col="n_chars",
        tie_col="doc_id",
    )
    rows = (
        capped.drop_columns(["rk"])
        .sort(["n_chars", "doc_id"], descending=[True, False])
        .limit(20)
        .take_all()
    )
    return pa.table(
        {
            "doc_id": pa.array([r["doc_id"] for r in rows], type=pa.int64()),
            "host": pa.array([r["host"] for r in rows], type=pa.string()),
            "n_chars": pa.array([r["n_chars"] for r in rows], type=pa.int64()),
        }
    )


def _q_volume_shipping(sf_dir: str):
    """TPC-H Q7 shape: cross-nation shipped revenue by ship year,
    both directions between two nations.  Broadcast nation-filtered
    supplier/customer maps + order-group revenue combiner + ONE
    fact-fact hash join; final rollup is 2×2×years rows."""
    from dots_ocr_ray.pipelines.relational import volume_shipping

    return volume_shipping(sf_dir)


def _q_pseudonymized_events(sf_dir: str):
    """Keyed pseudonymization of the event stream's user ids
    (md5(salt:id) surrogate — joinable, unlinkable without the salt).
    Zero exchange, one digest per distinct id per batch; oracle =
    substr(md5(...)) in SQL."""
    import ray.data

    from dots_ocr_ray.functions.scrub import pseudonymize_ids

    events = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["event_id", "user_id"]
    )
    return pseudonymize_ids(events, id_col="user_id", salt="graft").select_columns(
        ["event_id", "user_id_pseud"]
    )


def _q_pii_scrub_audit(sf_dir: str):
    """PII redaction under the hard signal: the PII_MOD fixture rule
    injects one email + one IP + one URL into every 6th doc; the
    scrubber must replace EXACTLY those spans and count them.  Zero
    exchange; oracle = constant-suffix replacement arithmetic."""
    import pyarrow as pa

    import ray.data

    from dots_ocr_ray.fixtures import pii_text
    from dots_ocr_ray.functions.scrub import scrub_documents

    docs = ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])

    def _inject(batch: pa.Table) -> pa.Table:
        texts = [
            pii_text(d, t or "")
            for d, t in zip(batch.column("doc_id").to_pylist(), batch.column("text").to_pylist())
        ]
        return pa.table(
            {"doc_id": batch.column("doc_id"), "text": pa.array(texts, type=pa.string())}
        )

    out = scrub_documents(docs.map_batches(_inject, batch_format="pyarrow"))
    return out.select_columns(
        ["doc_id", "text_scrubbed", "n_email", "n_phone", "n_ip", "n_url"]
    )


def _q_zipf_fit(sf_dir: str):
    """Zipf's-law OLS fit (ln count vs ln rank, top-64 vocab) in exact
    micro-units — the corpus-health / scaling-law audit.  One token
    count exchange; fit = closed-form sufficient stats identical to
    SQL regr_slope/intercept/r2."""
    import ray.data

    from dots_ocr_ray.pipelines.text_analysis import zipf_fit

    docs = ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=["text"])
    return zipf_fit(docs, top_v=64)


def _q_cluster_leak_split(sf_dir: str):
    """Leakage-safe train/val split at the NEAR-DUP-CLUSTER level:
    the split key is md5(cluster_id), so near-duplicates can never
    straddle the boundary even across different hosts/sources (the
    failure mode a source-keyed split misses).  Minhash clustering +
    the zero-exchange grouped_split; oracle = SQL md5 rule over the
    golden cluster assignment."""
    import pyarrow as pa

    import ray.data

    from dots_ocr_ray.pipelines.dedup import minhash_lsh_dedup
    from dots_ocr_ray.pipelines.packing import grouped_split

    docs = ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    clusters = minhash_lsh_dedup(docs, threshold=0.8)

    def _key(batch: pa.Table) -> pa.Table:
        return batch.append_column(
            "cluster_key", batch.column("cluster_id").cast(pa.string())
        )

    keyed = clusters.map_batches(_key, batch_format="pyarrow")
    out = grouped_split(keyed, group_col="cluster_key")
    return out.select_columns(["doc_id", "cluster_id", "split"])


def _q_containment_pairs(sf_dir: str):
    """Quote-inclusion detection: the CONTAIN_MOD fixture rule plants
    (short base, base + unique tail) pairs; candidate pairs from the
    loose MinHash net verify with exact char-3-gram containment ≥ 0.9
    (integer micro-units).  Same distributed shape as the Jaccard
    dedup family; golden-parquet oracle
    (make_golden.golden_containment_pairs)."""
    import pyarrow as pa

    import ray.data

    from dots_ocr_ray.fixtures import containment_text
    from dots_ocr_ray.pipelines.dedup import containment_pairs

    docs = ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])

    def _inject(batch: pa.Table) -> pa.Table:
        texts = [
            containment_text(d, t or "")
            for d, t in zip(batch.column("doc_id").to_pylist(), batch.column("text").to_pylist())
        ]
        return pa.table(
            {"doc_id": batch.column("doc_id"), "text": pa.array(texts, type=pa.string())}
        )

    return containment_pairs(docs.map_batches(_inject, batch_format="pyarrow"))


def _q_hybrid_retrieval(sf_dir: str):
    """RAG-stack hybrid retrieval: BM25 lexical candidates (probe
    terms) and exact-cosine semantic candidates (query = embedding of
    vec_id 7) fused by integer reciprocal-rank fusion
    (10^9 // (60 + rank) per source), top-10.  Only the two ≤ 50-row
    candidate lists reach the driver; oracle = the same fusion in
    SQL."""
    import numpy as np
    import pyarrow.parquet as pq_mod

    import ray.data

    from dots_ocr_ray.pipelines.similarity import hybrid_rrf

    t = pq_mod.read_table(f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"])
    pos = t.column("vec_id").to_pylist().index(7)
    query_vec = np.asarray(t.column("embedding")[pos].as_py(), dtype=np.float64)

    docs = ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    embeds = ray.data.read_parquet(
        f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"]
    )
    return hybrid_rrf(docs, embeds, probes=["data", "join", "spark"], query_vec=query_vec)


def _q_aligned_page_pairs(sf_dir: str):
    """URL-pattern bitext alignment: fixture urls carry a locale path
    segment (``.../{lang}/page-{doc_id % 250}``, host keyed off the
    page so translations share it); pages equal after locale-strip
    with DIFFERENT langs pair up.  One scalar-regex strip pass + one
    bucket-keyed exchange; oracle = arithmetic self-join."""
    import pyarrow as pa

    import ray.data

    from dots_ocr_ray.pipelines.document import aligned_page_pairs

    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "lang"]
    )

    def _urls(batch: pa.Table) -> pa.Table:
        urls = [
            f"https://example-{(d % 250) % 40:02d}.com/{lg}/page-{d % 250:06d}"
            for d, lg in zip(
                batch.column("doc_id").to_pylist(), batch.column("lang").to_pylist()
            )
        ]
        return batch.append_column("url", pa.array(urls, type=pa.string()))

    pages = docs.map_batches(_urls, batch_format="pyarrow")
    return aligned_page_pairs(pages)


def _q_skipgram_cooc(sf_dir: str):
    """word2vec-style positional co-occurrence: ordered top-32-vocab
    token pairs within a ±3 window (distance over the full non-empty
    token stream).  One vocab exchange, then a zero-exchange V×V
    matrix fold; oracle = position self-join in SQL."""
    import ray.data

    from dots_ocr_ray.pipelines.text_analysis import skipgram_cooc

    docs = ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=["text"])
    return skipgram_cooc(docs, top_v=32, window=3)


def _q_dedup_best_survivors(sf_dir: str):
    """Quality-aware near-dup survivor selection: minhash clusters +
    the n_chars quality signal → the longest member per cluster (tie →
    min doc_id) — "keep the best copy, not the first one".  One
    doc-keyed hash join + one cluster-keyed top-1 bucket exchange on
    top of the LSH family; golden-parquet oracle
    (make_golden.golden_dedup_best_survivors)."""
    import ray.data

    from dots_ocr_ray.pipelines.dedup import best_survivor_per_cluster, minhash_lsh_dedup

    docs = ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    clusters = minhash_lsh_dedup(docs, threshold=0.8)
    quality = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "n_chars"]
    )
    return best_survivor_per_cluster(clusters, quality, quality_col="n_chars")


def _q_html_table_cells(sf_dir: str):
    """HTML <table> extraction to relational rows: fixture pages
    (TABLE_MOD rule plants a deterministic 2×3 table on normal docs)
    → one row per cell (doc_id, table_idx, row_idx, col_idx, cell).
    Zero-exchange flat explode through the same scanner as
    segment_html; the SQL mirror reproduces the fixture's cell
    arithmetic exactly."""
    import functools

    import ray.data

    from dots_ocr_ray.fixtures import pages_from_documents_batch
    from dots_ocr_ray.pipelines.document import table_cells_from_pages

    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text", "lang"]
    )
    pages = docs.map_batches(
        functools.partial(pages_from_documents_batch, with_tables=True),
        batch_format="pyarrow",
    )
    return table_cells_from_pages(pages)


def _q_recrawl_window_dedup(sf_dir: str):
    """Tumbling-window recrawl dedup: 3 synthetic captures per url
    (t0, +6 h, +30 h) collapse to the FIRST capture per (url, UTC
    day) — the "store at most one copy per url per day" crawl-budget
    rule.  One bucket exchange (sorted_group_first over the (url, day)
    key pair), window ids as exact integer µs arithmetic; oracle =
    ROW_NUMBER over (url, day)."""
    import datetime

    import pyarrow as pa

    import ray.data

    from dots_ocr_ray.pipelines.document import window_dedup

    docs = ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id"])

    def _captures(batch: pa.Table) -> pa.Table:
        epoch = datetime.datetime(2025, 1, 1)
        urls, tss = [], []
        for doc_id in batch.column("doc_id").to_pylist():
            url = f"https://example-{doc_id % 40:02d}.com/doc-{doc_id:06d}"
            t0 = epoch + datetime.timedelta(seconds=137 * doc_id)
            for off_s in (0, 21_600, 108_000):
                urls.append(url)
                tss.append(t0 + datetime.timedelta(seconds=off_s))
        return pa.table(
            {
                "url": pa.array(urls, type=pa.string()),
                "warc_ts": pa.array(tss, type=pa.timestamp("us")),
            }
        )

    captures = docs.map_batches(_captures, batch_format="pyarrow")
    return window_dedup(captures, key_col="url", ts_col="warc_ts", window_s=86400)


def _q_mad_outlier_scores(sf_dir: str):
    """Global robust (median/MAD) modified z-scores of document length
    in exact integer micro-units — the heavy-tail-safe length gate
    (median and MAD are immune to the outliers being hunted, unlike
    mean/std).  Two bounded distinct-value exchanges + a zero-exchange
    scoring pass; bit-identical to the SQL mirror (integer floor-div
    only, no float arithmetic)."""
    import ray.data

    from dots_ocr_ray.pipelines.relational import mad_robust_scores

    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "n_chars"]
    )
    return mad_robust_scores(docs, value_col="n_chars")


def _q_label_centroids(sf_dir: str):
    """Per-label embedding centroid sufficient statistics (label, dim,
    sum_q, n) with components quantized to round(x*2^20) int64 BEFORE
    summing — the exact distributed centroid-update input (k-means /
    IVF retraining, class-drift audits), bit-identical to the SQL
    mirror.  One labels*dims keyed exchange."""
    import ray.data

    from dots_ocr_ray.pipelines.similarity import label_centroid_stats

    ds = ray.data.read_parquet(
        f"{sf_dir}/embeddings.parquet", columns=["embedding", "label"]
    )
    return label_centroid_stats(ds)


def _q_chars_range_pruned(sf_dir: str):
    """Zone-map data skipping end-to-end: the documents table written
    SORTED by n_chars into per-file zones (one sort exchange, paid
    once), then a range predicate reads only the overlapping files +
    a parquet row filter.  Oracle: plain BETWEEN over the original
    table — pruning must be invisible to results."""
    import os

    import ray.data

    from dots_ocr_ray.pipelines.zonemap import read_range, write_sorted_zonemap

    base, built = _scratch_dir("zonemap", sf_dir)
    zdir = os.path.join(base, "zones")
    if not built:
        docs = ray.data.read_parquet(
            f"{sf_dir}/documents.parquet", columns=["doc_id", "n_chars"]
        )
        write_sorted_zonemap(docs, zdir, sort_col="n_chars", rows_per_file=64)
        with open(os.path.join(base, "_complete"), "w") as f:
            f.write("ok")
    return read_range(zdir, 500, 900, columns=["doc_id", "n_chars"])


def _q_csv_roundtrip(sf_dir: str):
    """CSV sink+source coverage: the documents table written to CSV
    (embedded newlines/quotes survive via quoting) and read back with
    newlines-in-values parsing.  Oracle: the original table — the
    format hop must be lossless."""
    import os

    import ray.data

    base, built = _scratch_dir("csvround", sf_dir)
    out = os.path.join(base, "csv")
    if not built:
        ray.data.read_parquet(
            f"{sf_dir}/documents.parquet",
            columns=["doc_id", "text", "lang", "source", "n_chars"],
        ).repartition(4).write_csv(out)
        with open(os.path.join(base, "_complete"), "w") as f:
            f.write("ok")
    from pyarrow import csv as pacsv

    return ray.data.read_csv(
        out,
        parse_options=pacsv.ParseOptions(newlines_in_values=True),
    )


def _q_zorder_keys(sf_dir: str):
    """Morton (Z-order) codes over (user_id, event day): the
    bit-interleaved clustering key behind multi-dimensional data
    skipping (Delta/Iceberg OPTIMIZE ZORDER).  Pure per-batch bit
    twiddling, zero exchanges; oracle: the generated SQL mirror of the
    same interleave, bit-identical."""
    import numpy as np
    import pyarrow as pa

    import ray.data

    from dots_ocr_ray.pipelines.zorder import interleave_bits2

    events = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["event_id", "user_id", "ts"]
    )

    def _keys(batch: pa.Table) -> pa.Table:
        u = batch.column("user_id").to_numpy(zero_copy_only=False)
        day = batch.column("ts").to_numpy(zero_copy_only=False).astype(
            np.int64
        ) // 86_400_000_000
        return pa.table(
            {
                "event_id": batch.column("event_id"),
                "zval": pa.array(interleave_bits2(u, day, bits=16), type=pa.int64()),
            }
        )

    return events.map_batches(_keys, batch_format="pyarrow")


# box predicate shared by the zorder_box_events query and its oracle:
# users 20..60, event days 2024-01-08 .. 2024-01-15 (epoch days)
_ZBOX_X = (20, 60)
_ZBOX_Y = (19730, 19737)


def _q_zorder_box_events(sf_dir: str):
    """Z-order clustering end-to-end: the events table clustered by
    the (user_id, day) Morton code into per-file 2-D zones (one sort
    exchange, paid once at write), then a 2-D box predicate reads only
    the files whose zones overlap the box + a parquet row filter.
    Oracle: plain WHERE over the original table — the layout must be
    invisible to results."""
    import os

    import numpy as np
    import pyarrow as pa

    import ray.data

    from dots_ocr_ray.pipelines.zorder import read_box, zorder_write

    base, built = _scratch_dir("zorder", sf_dir)
    zdir = os.path.join(base, "zones")
    if not built:
        events = ray.data.read_parquet(
            f"{sf_dir}/events.parquet", columns=["event_id", "user_id", "ts"]
        )

        def _day(batch: pa.Table) -> pa.Table:
            day = batch.column("ts").to_numpy(zero_copy_only=False).astype(
                np.int64
            ) // 86_400_000_000
            return pa.table(
                {
                    "event_id": batch.column("event_id"),
                    "user_id": batch.column("user_id"),
                    "day": pa.array(day, type=pa.int64()),
                }
            )

        zorder_write(
            events.map_batches(_day, batch_format="pyarrow"),
            zdir,
            col_x="user_id",
            col_y="day",
            rows_per_file=512,
        )
        with open(os.path.join(base, "_complete"), "w") as f:
            f.write("ok")
    return read_box(
        zdir, _ZBOX_X, _ZBOX_Y, columns=["event_id", "user_id", "day"]
    )


def _q_host_assortativity(sf_dir: str):
    """Degree-assortativity sufficient statistics of the host graph
    (n_edges, sum_deg, sum_deg_sq, sum_deg_prod over edge endpoints)
    — the hub-to-hub-linking health metric, exact int64 under any
    partitioning.  Oracle: degree self-join SQL."""
    from dots_ocr_ray.pipelines.graph import (
        degree_assortativity_stats,
        host_edges_from_documents,
    )

    return degree_assortativity_stats(host_edges_from_documents(sf_dir))


def _q_event_hourly_bars(sf_dir: str):
    """OHLC time-bar downsampling: hourly (open, high, low, close,
    n, cent-sum) per event type, open/close in deterministic (ts,
    event_id) order — 10^12 events collapse to a keys x bars table.
    Partials fold associatively; the one keyed exchange moves batch
    partials, never events.  Oracle: row_number window SQL."""
    import ray.data

    from dots_ocr_ray.pipelines.windows import ohlc_bars

    events = ray.data.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["event_id", "ts", "event_type", "value"],
    )
    return ohlc_bars(events)


def _q_host_link_prediction(sf_dir: str):
    """Link prediction over the host graph: common-neighbor counts for
    every NON-adjacent host pair with >= 2 shared neighbors — the
    crawl-frontier 'related host' candidate generator.  Two-tier
    (driver CSR pass under budget / bucketed wedge expansion + packed-
    key fold + exact anti-join above).  Oracle: adjacency self-join
    SQL."""
    from dots_ocr_ray.pipelines.graph import (
        common_neighbor_scores,
        host_edges_from_documents,
    )

    return common_neighbor_scores(
        host_edges_from_documents(sf_dir), min_common=2
    )


def _q_ipc_roundtrip(sf_dir: str):
    """Arrow IPC (Feather v2) sink+source coverage: the documents
    table written as per-batch .arrow files and streamed back via
    per-file read tasks.  Oracle: the original table — the format hop
    must be lossless."""
    import os

    import ray.data

    from dots_ocr_ray.sources.ipc import read_ipc, write_ipc

    base, built = _scratch_dir("ipcround", sf_dir)
    out = os.path.join(base, "ipc")
    if not built:
        write_ipc(
            ray.data.read_parquet(
                f"{sf_dir}/documents.parquet",
                columns=["doc_id", "text", "lang", "source", "n_chars"],
            ).repartition(4),
            out,
            rows_per_file=256,
        )
        with open(os.path.join(base, "_complete"), "w") as f:
            f.write("ok")
    return read_ipc(out)


def _build_timetravel_table(sf_dir: str) -> str:
    """Scratch snapshot-versioned table shared by the timetravel
    queries: v1 = documents (doc_id, text, lang) sorted by key; v2 =
    one copy-on-write merge applying a deterministic CDC batch —
    update text of doc_id%5==0 (' v2' suffix), delete doc_id%7==3,
    insert doc_id%50==0 as new keys at doc_id+1_000_000."""
    import os

    import pyarrow as pa
    import pyarrow.compute as pc

    import ray.data

    from dots_ocr_ray.pipelines.timetravel import create_table, merge_version

    base, built = _scratch_dir("timetravel", sf_dir)
    out = os.path.join(base, "table")
    if not built:
        docs = ray.data.read_parquet(
            f"{sf_dir}/documents.parquet", columns=["doc_id", "text", "lang"]
        )
        create_table(docs.repartition(4), out, key_col="doc_id", rows_per_file=128)

        full = pa.concat_tables(
            [b for b in docs.iter_batches(batch_format="pyarrow")]
        )  # sf0.01 fixture scale: the CDC batch is built driver-side
        ids = full.column("doc_id")

        def _mod(col, m):
            return pc.subtract(col, pc.multiply(pc.divide(col, m), m))

        upd = full.filter(pc.equal(_mod(ids, 5), pa.scalar(0, pa.int64())))
        upd = pa.table(
            {
                "doc_id": upd.column("doc_id"),
                "text": pc.binary_join_element_wise(
                    upd.column("text"), pa.scalar(" v2"), ""
                ),
                "lang": upd.column("lang"),
            }
        )
        ins = full.filter(pc.equal(_mod(ids, 50), pa.scalar(0, pa.int64())))
        ins = pa.table(
            {
                "doc_id": pc.add(ins.column("doc_id"), pa.scalar(1_000_000, pa.int64())),
                "text": pc.binary_join_element_wise(
                    pa.scalar("new doc "),
                    pc.cast(ins.column("doc_id"), pa.string()),
                    "",
                ),
                "lang": pa.array(["en"] * ins.num_rows, type=pa.string()),
            }
        )
        # delete set kept DISJOINT from the update set (merge_version
        # rejects overlapping upsert/delete keys as ambiguous)
        dels = full.filter(
            pc.and_(
                pc.equal(_mod(ids, 7), pa.scalar(3, pa.int64())),
                pc.not_equal(_mod(ids, 5), pa.scalar(0, pa.int64())),
            )
        )
        merge_version(
            out,
            upserts=pa.concat_tables([upd, ins]),
            delete_keys=dels.column("doc_id").to_pylist(),
        )
        with open(os.path.join(base, "_complete"), "w") as f:
            f.write("ok")
    return out


def _q_timetravel_v1(sf_dir: str):
    """Time-travel isolation: after the v2 copy-on-write merge, the
    as-of-v1 read must still be byte-exact the original table."""
    from dots_ocr_ray.pipelines.timetravel import read_version

    return read_version(_build_timetravel_table(sf_dir), 1)


def _q_timetravel_v2(sf_dir: str):
    """The merged v2 state: updates applied, deletes gone, inserts
    present — the oracle reconstructs the same CDC batch in SQL."""
    from dots_ocr_ray.pipelines.timetravel import read_version

    return read_version(_build_timetravel_table(sf_dir), 2)


def _q_scd2_url_history(sf_dir: str):
    """Type-2 SCD collapse over a 4-capture recrawl stream: runs of
    identical content per url become validity intervals
    (valid_from, valid_to, n_captures, version) — the recrawl lineage
    table.  Content generation per (doc_id, capture k) is the
    deterministic CASE the SQL oracle mirrors: doc_id%3==0 changes at
    k=1 and k=3, %3==1 changes at k=2, %3==2 never changes."""
    import numpy as np
    import pyarrow as pa

    import ray.data

    from dots_ocr_ray.pipelines.document import scd2_history

    docs = ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id"])
    EPOCH_US = np.datetime64("2025-01-01", "us").astype(np.int64)
    DAY_US = 86_400_000_000

    def _captures(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_numpy(zero_copy_only=False).astype(np.int64)
        d = np.repeat(ids, 4)
        k = np.tile(np.arange(4, dtype=np.int64), len(ids))
        mod3 = d % 3
        vers = np.where(
            mod3 == 0,
            np.where(k == 0, 1, np.where(k <= 2, 2, 3)),
            np.where(mod3 == 1, np.where(k <= 1, 1, 2), 1),
        )
        urls = [f"https://example-{i % 40:02d}.com/doc-{i:06d}" for i in d]
        keys = [f"{i}:v{v}" for i, v in zip(d, vers)]
        ts = EPOCH_US + d * 137_000_000 + k * DAY_US
        return pa.table(
            {
                "url": pa.array(urls, type=pa.string()),
                "warc_ts": pa.array(ts).cast(pa.timestamp("us")),
                "content_key": pa.array(keys, type=pa.string()),
            }
        )

    return scd2_history(docs.map_batches(_captures, batch_format="pyarrow"))


def _q_event_transitions(sf_dir: str):
    """Markov transition counts over per-user event streams: (type,
    next_type, n) for consecutive events in (ts, event_id) order — the
    behavioral-model / funnel-prior table, composing the LAG/LEAD
    machinery (event_gaps) with one tiny type-pair rollup.  Oracle:
    LEAD window SQL."""
    import pyarrow as pa

    import ray.data

    from dots_ocr_ray.pipelines.windows import event_gaps

    gaps = event_gaps(sf_dir)
    events = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["event_id", "event_type"]
    )
    from dots_ocr_ray.pipelines.relational import hash_join

    joined = hash_join(
        gaps,
        events,
        on="event_id",
        left_schema=pa.schema(
            [
                ("user_id", pa.int64()),
                ("event_id", pa.int64()),
                ("gap_us", pa.int64()),
                ("next_type", pa.string()),
            ]
        ),
        right_schema=pa.schema([("event_id", pa.int64()), ("event_type", pa.string())]),
    )

    def _pairs(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        keep = pc.not_equal(batch.column("next_type"), "")
        return batch.filter(keep).select(["event_type", "next_type"])

    from dots_ocr_ray.util import bucket_keyed_fold

    pairs = joined.map_batches(_pairs, batch_format="pyarrow")
    return bucket_keyed_fold(pairs, ["event_type", "next_type"], {"n": ("count", None)})


def _q_decayed_type_popularity(sf_dir: str):
    """Freshness-weighted event-type popularity: each event weighs
    2^(-age_days/7) relative to the corpus max timestamp, quantized to
    int64 micro-units per ROW before summing — integer totals,
    bit-identical to the SQL mirror.  Two stateless passes + one tiny
    keyed exchange."""
    import ray.data

    from dots_ocr_ray.pipelines.windows import decayed_counts

    events = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["event_type", "ts"]
    )
    return decayed_counts(events, key_col="event_type", half_life_days=7.0)


def _q_dedup_cluster_sizes(sf_dir: str):
    """Near-dup cluster-size histogram: power-of-two buckets of
    MinHash-LSH cluster sizes — the dedup-audit summary (how much of
    the corpus sits in 2-dup vs 1000-dup clusters) composing
    minhash_lsh_dedup with the frequency-of-frequencies operator.
    Oracle: SQL histogram over the golden cluster parquet."""
    from dots_ocr_ray.pipelines.dedup import minhash_lsh_dedup
    from dots_ocr_ray.pipelines.relational import grouped_count_histogram

    import ray.data

    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    )
    clusters = minhash_lsh_dedup(docs, threshold=0.8)
    return grouped_count_histogram(clusters, key_col="cluster_id")


def _q_returned_revenue_by_customer(sf_dir: str):
    """TPC-H Q10 shape: revenue lost to returned items per customer in
    one quarter, with nation name, top 20.  Returned-lineitem revenue
    pre-aggregates per order BEFORE any join (combiner); orders are
    date-filtered at the scan; the order→customer rollup is one
    distributed hash_join + custkey sum; the KB-sized nation dim
    joins batch-locally from a broadcast map; top-20 reduces through
    per-batch local top-k partials."""
    import datetime

    import pyarrow as pa
    import pyarrow.compute as pc

    import ray.data

    from dots_ocr_ray.pipelines.relational import hash_join
    from dots_ocr_ray.util import bounded_blocks, bucket_keyed_fold

    lo = pa.scalar(datetime.datetime(1997, 1, 1))
    hi = pa.scalar(datetime.datetime(1997, 7, 1))

    lineitem = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_orderkey", "l_returnflag", "l_extendedprice", "l_discount"],
    )

    def _rev_partial(batch: pa.Table) -> pa.Table:
        batch = batch.filter(pc.equal(batch.column("l_returnflag"), "R"))
        rev = pc.multiply(
            batch.column("l_extendedprice"),
            pc.subtract(pa.scalar(1.0), batch.column("l_discount")),
        )
        agg = (
            pa.table({"o_orderkey": batch.column("l_orderkey"), "revenue": rev})
            .group_by("o_orderkey")
            .aggregate([("revenue", "sum")])
        )
        return pa.table(
            {"o_orderkey": agg.column("o_orderkey"), "revenue": agg.column("revenue_sum")}
        )

    # NO per-orderkey exchange: the join key is unique on the orders
    # side, so joining the per-batch PARTIAL sums (1..k rows per
    # order) and summing at the custkey rollup is exactly equivalent —
    # one full sort exchange saved
    revenue = bounded_blocks(lineitem.map_batches(_rev_partial, batch_format="pyarrow"))

    orders = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet", columns=["o_orderkey", "o_custkey", "o_orderdate"]
    )

    def _quarter(batch: pa.Table) -> pa.Table:
        keep = pc.and_(
            pc.greater_equal(batch.column("o_orderdate"), lo),
            pc.less(batch.column("o_orderdate"), hi),
        )
        return batch.filter(keep).select(["o_orderkey", "o_custkey"])

    joined = hash_join(
        orders.map_batches(_quarter, batch_format="pyarrow"),
        revenue,
        on="o_orderkey",
        left_schema=pa.schema([("o_orderkey", pa.int64()), ("o_custkey", pa.int64())]),
        right_schema=pa.schema([("o_orderkey", pa.int64()), ("revenue", pa.float64())]),
    )

    per_cust = bucket_keyed_fold(joined, "o_custkey", {"revenue": ("sum", "revenue")})

    cust = ray.data.read_parquet(
        f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_name", "c_nationkey"]
    )
    nation_tbl = ray.data.read_parquet(
        f"{sf_dir}/nation.parquet", columns=["n_nationkey", "n_name"]
    ).to_pandas()
    nmap = dict(zip(nation_tbl["n_nationkey"], nation_tbl["n_name"]))
    import ray as _ray

    nref = _ray.put(nmap)

    def _with_nation(batch: pa.Table, _ref=nref) -> pa.Table:
        from dots_ocr_ray.util import cached_object

        m = cached_object(_ref)
        nk = batch.column("c_nationkey").to_pylist()
        return pa.table(
            {
                "c_custkey": batch.column("c_custkey").cast(pa.int64()),
                "c_name": batch.column("c_name"),
                "n_name": pa.array([m[k] for k in nk], type=pa.string()),
            }
        )

    def _rename_cust(batch: pa.Table) -> pa.Table:
        return batch.rename_columns(["c_custkey", "revenue"])

    final = hash_join(
        per_cust.map_batches(_rename_cust, batch_format="pyarrow"),
        cust.map_batches(_with_nation, batch_format="pyarrow"),
        on="c_custkey",
        left_schema=pa.schema([("c_custkey", pa.int64()), ("revenue", pa.float64())]),
        right_schema=pa.schema(
            [("c_custkey", pa.int64()), ("c_name", pa.string()), ("n_name", pa.string())]
        ),
    )

    def _local_top(batch: pa.Table) -> pa.Table:
        order = pc.sort_indices(
            batch,
            sort_keys=[("revenue", "descending"), ("c_custkey", "ascending")],
        )
        return batch.take(order[:20])

    merged = pa.concat_tables(
        [
            b
            for b in final.map_batches(_local_top, batch_format="pyarrow").iter_batches(
                batch_format="pyarrow"
            )
            if b.num_rows
        ]
        or [
            pa.table(
                {
                    "c_custkey": pa.array([], pa.int64()),
                    "revenue": pa.array([], pa.float64()),
                    "c_name": pa.array([], pa.string()),
                    "n_name": pa.array([], pa.string()),
                }
            )
        ]
    )
    order = pc.sort_indices(
        merged, sort_keys=[("revenue", "descending"), ("c_custkey", "ascending")]
    )
    top = merged.take(order[:20])
    return top.select(["c_custkey", "c_name", "n_name", "revenue"])


def _q_host_harmonic(sf_dir: str):
    """Seed-sampled harmonic centrality (4 deterministic seeds) over
    the host link graph: per-node sum of floor(1e6/d) over seed
    distances — integer contributions, bit-identical to the golden
    mirror.  One BFS per seed + one bucket-keyed fold."""
    from dots_ocr_ray.pipelines.graph import harmonic_centrality, host_edges_from_documents

    return harmonic_centrality(
        host_edges_from_documents(sf_dir), seeds=[0, 7, 13, 21]
    )


def _q_order_value_quantiles(sf_dir: str):
    """Per-priority EXACT float quantiles of order value (p50/p90/p99)
    via grouped histogram-refinement selection — zero exchanges, one
    histogram per (priority, q) per pass.  Oracle: DuckDB
    quantile_disc GROUP BY."""
    import ray.data

    from dots_ocr_ray.pipelines.relational import exact_float_quantiles_by_key

    ds = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet", columns=["o_orderpriority", "o_totalprice"]
    )
    return exact_float_quantiles_by_key(
        ds, "o_orderpriority", "o_totalprice", [0.5, 0.9, 0.99]
    )


def _q_price_quantiles(sf_dir: str):
    """EXACT float quantiles of l_extendedprice without a global sort:
    iterative histogram refinement (relational.exact_float_quantiles)
    — ~3 stateless column scans at any corpus size, driver folds
    num_bins-sized arrays.  Oracle: DuckDB quantile_disc."""
    import ray.data

    from dots_ocr_ray.pipelines.relational import exact_float_quantiles

    ds = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet", columns=["l_extendedprice"]
    )
    return exact_float_quantiles(ds, "l_extendedprice", [0.25, 0.5, 0.75, 0.95, 0.99])


def _q_cdc_dedup_stats(sf_dir: str):
    """Content-defined-chunking storage dedup: Gear-hash CDC chunks
    (64/256/1024 min/avg/max) over every document's text, corpus-wide
    chunk-hash rollup → one summary row (chunks, bytes, dedup ratio).
    Sub-document dedup signal: shared boilerplate/quoted bytes that
    document-level dedup can't see.  Oracle: golden parquet from the
    sequential implementation over the shared kernel/cdc.py."""
    import ray.data

    from dots_ocr_ray.pipelines.cdc import cdc_dedup_stats

    docs = ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=["text"])
    return cdc_dedup_stats(docs)


def _q_order_window_overlap(sf_dir: str):
    """Interval×interval overlap join: 28 overlapping 120-day report
    windows (90-day stride from 1992-01-01) against per-order
    fulfillment intervals [o_orderdate, o_orderdate + 7 days]; count
    and value per window.  Exercises relational.interval_overlap_join
    (overlap-start bucket ownership — each pair joined exactly once)
    plus a per-window rollup.  Oracle: SQL overlap predicate
    ``w_lo <= o_hi AND o_lo <= w_hi`` over the same derived windows."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.compute as pc

    import ray.data

    from dots_ocr_ray.pipelines.relational import interval_overlap_join

    day_us = 86_400_000_000
    base = np.datetime64("1992-01-01", "us").astype(np.int64)
    k = np.arange(28, dtype=np.int64)
    windows = ray.data.from_arrow(
        pa.table(
            {
                "window_id": pa.array(k, type=pa.int64()),
                "w_lo": pa.array(base + k * 90 * day_us, type=pa.int64()),
                "w_hi": pa.array(base + (k * 90 + 120) * day_us, type=pa.int64()),
            }
        )
    )

    def _intervals(batch: pa.Table) -> pa.Table:
        d = batch.column("o_orderdate").cast(pa.int64())
        return pa.table(
            {
                "o_lo": d,
                "o_hi": pc.add(d, 7 * day_us),
                "o_totalprice": batch.column("o_totalprice"),
            }
        )

    orders = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet", columns=["o_orderdate", "o_totalprice"]
    ).map_batches(_intervals, batch_format="pyarrow")

    joined = interval_overlap_join(
        windows,
        orders,
        left_lo="w_lo",
        left_hi="w_hi",
        right_lo="o_lo",
        right_hi="o_hi",
        bucket_width=float(90 * day_us),
        left_schema=pa.schema(
            [("window_id", pa.int64()), ("w_lo", pa.int64()), ("w_hi", pa.int64())]
        ),
        right_schema=pa.schema(
            [("o_lo", pa.int64()), ("o_hi", pa.int64()), ("o_totalprice", pa.float64())]
        ),
    )

    from dots_ocr_ray.util import bucket_keyed_fold

    return bucket_keyed_fold(
        joined, "window_id", {"n_orders": ("count", None), "total_value": ("sum", "o_totalprice")}
    )


def _q_host_trustrank(sf_dir: str):
    """Personalized PageRank (TrustRank shape): teleport and dangling
    mass go only to the trusted seed hosts (the crawl_depths seeds),
    so rank = random-walk proximity to the trust list — the spam-mass
    signal.  Oracle: golden parquet from the independent sequential
    implementation."""
    import pyarrow as pa
    import pyarrow.compute as pc

    from dots_ocr_ray.pipelines.graph import host_edges_from_documents, pagerank

    tbl = pagerank(
        host_edges_from_documents(sf_dir),
        num_iters=5,
        damping=0.85,
        seeds=CRAWL_SEEDS,
    )
    n = tbl.num_rows
    return pa.table(
        {
            "host": tbl.column("host"),
            "trust_rel": pc.round(
                pc.multiply(tbl.column("rank"), float(n)), ndigits=9
            ),
        }
    )


CRAWL_SEEDS = (1, 2)
CRAWL_MAX_DEPTH = 16


def _q_crawl_depths(sf_dir: str):
    """Multi-source BFS over the host link graph: shortest hop count
    from the seed hosts (crawl-priority / link-distance-from-trust
    signal).  Level-synchronous frontier expansion — one edge pass per
    level in the broadcast tier, three keyed exchanges per level
    distributed.  Oracle: recursive CTE closing the same derived
    edges with MIN(depth)."""
    from dots_ocr_ray.pipelines.graph import bfs_depths, host_edges_from_documents

    return bfs_depths(
        host_edges_from_documents(sf_dir),
        seeds=CRAWL_SEEDS,
        max_depth=CRAWL_MAX_DEPTH,
    )


def _q_host_hits(sf_dir: str):
    """Kleinberg HITS (5 iterations, L1-normalized) over the host link
    graph; hub/authority reported relative to uniform (mean 1.0), the
    rank_rel convention.  Oracle: golden parquet from the independent
    sequential implementation."""
    import pyarrow as pa
    import pyarrow.compute as pc

    from dots_ocr_ray.pipelines.graph import hits, host_edges_from_documents

    tbl = hits(host_edges_from_documents(sf_dir), num_iters=5)
    n = float(tbl.num_rows)
    # 9-dp rounding: the semdedup convention — collapses the ~1e-16
    # fold-order noise between the distributed and sequential engines
    # so exact-tied hosts sort identically on both sides
    return pa.table(
        {
            "host": tbl.column("host"),
            "hub_rel": pc.round(pc.multiply(tbl.column("hub"), n), ndigits=9),
            "auth_rel": pc.round(pc.multiply(tbl.column("authority"), n), ndigits=9),
        }
    )


def _q_trending_types(sf_dir: str):
    """Daily trending leaderboard: top-3 event types per day by count
    (ties → lexicographic type) — the windowed grouped top-k a feed
    pipeline materializes per period.  Exchange is O(batches × days ×
    types) partial count rows; the driver ranks a table bounded by
    days × types, never events.  Oracle: row_number window SQL over
    the same day bucketing."""
    import numpy as np
    import pandas as pd
    import pyarrow as pa

    import ray.data

    DAY_US = 86_400_000_000
    ds = ray.data.read_parquet(f"{sf_dir}/events.parquet", columns=["ts", "event_type"])

    def _partial(batch: pa.Table) -> pa.Table:
        us = batch.column("ts").cast(pa.int64()).to_numpy(zero_copy_only=False)
        day = us // DAY_US
        types = batch.column("event_type").to_numpy(zero_copy_only=False)
        g = (
            pd.DataFrame({"day": day, "event_type": types})
            .groupby(["day", "event_type"], sort=False)
            .size()
            .reset_index(name="n")
        )
        return pa.table(
            {
                "day": pa.array(g["day"].to_numpy(), type=pa.int64()),
                "event_type": pa.array(g["event_type"], type=pa.string()),
                "n": pa.array(g["n"].to_numpy().astype(np.int64), type=pa.int64()),
            }
        )

    fold: dict[tuple[int, str], int] = {}
    for b in ds.map_batches(_partial, batch_format="pyarrow").iter_batches(
        batch_format="pyarrow"
    ):
        for d, t, n in zip(
            b.column("day").to_pylist(),
            b.column("event_type").to_pylist(),
            b.column("n").to_pylist(),
        ):
            fold[(d, t)] = fold.get((d, t), 0) + n
    ranked = sorted(fold.items(), key=lambda kv: (kv[0][0], -kv[1], kv[0][1]))
    days, types, ns, rks = [], [], [], []
    prev_day, rk = None, 0
    for (d, t), n in ranked:
        rk = rk + 1 if d == prev_day else 1
        prev_day = d
        if rk <= 3:
            days.append(d)
            types.append(t)
            ns.append(n)
            rks.append(rk)
    return pa.table(
        {
            "day": pa.array(days, type=pa.int64()),
            "event_type": pa.array(types, type=pa.string()),
            "n": pa.array(ns, type=pa.int64()),
            "rk": pa.array(rks, type=pa.int64()),
        }
    )


def _q_bootstrap_ci(sf_dir: str):
    """Deterministic multiplier bootstrap over mean(n_chars): 32
    replicas whose per-doc integer weights (0/1/2, mean 1) come from
    two bits of a Knuth-style hash of (doc_id, replica) — the
    uncertainty band a curation pipeline attaches to a corpus
    statistic without a second pass.  Each batch emits 32 integer
    (sum_w, sum_wx) partials (exchange O(batches × replicas)); one
    float division at the end.  Oracle: the same hash bits in SQL over
    a documents × replicas cross join."""
    import numpy as np
    import pyarrow as pa

    import ray.data

    from dots_ocr_ray.util import round_half_away

    R = 32
    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "n_chars"])

    def _partial(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_numpy(zero_copy_only=False).astype(np.int64)
        x = batch.column("n_chars").to_numpy(zero_copy_only=False).astype(np.int64)
        reps = np.arange(R, dtype=np.int64)
        h = ((ids[:, None] * 33 + reps[None, :]) * 2654435761) % 4294967296
        w = (h % 2) + ((h // 2) % 2)
        return pa.table(
            {
                "replica": pa.array(reps, type=pa.int64()),
                "sum_w": pa.array(w.sum(axis=0).astype(np.int64), type=pa.int64()),
                "sum_wx": pa.array(
                    (w * x[:, None]).sum(axis=0).astype(np.int64), type=pa.int64()
                ),
            }
        )

    sw = np.zeros(R, dtype=np.int64)
    swx = np.zeros(R, dtype=np.int64)
    for b in ds.map_batches(_partial, batch_format="pyarrow").iter_batches(
        batch_format="pyarrow"
    ):
        rep = b.column("replica").to_numpy(zero_copy_only=False)
        np.add.at(sw, rep, b.column("sum_w").to_numpy(zero_copy_only=False))
        np.add.at(swx, rep, b.column("sum_wx").to_numpy(zero_copy_only=False))
    return pa.table(
        {
            "replica": pa.array(np.arange(R, dtype=np.int64), type=pa.int64()),
            "sum_w": pa.array(sw, type=pa.int64()),
            "sum_wx": pa.array(swx, type=pa.int64()),
            "mean_rep": pa.array(
                round_half_away(swx * 1.0 / sw, 6), type=pa.float64()
            ),
        }
    )


def _q_schema_evolution(sf_dir: str):
    """Additive schema evolution on the snapshot-versioned table: v1
    commits (doc_id, lang); a v2 copy-on-write merge upserts
    doc_id%10==3 rows carrying a NEW quality column.  The latest read
    unifies file footers and null-backfills rows that predate the
    column — no rewrite of untouched files.  Oracle: CASE-backfilled
    projection of the documents table."""
    import os

    import pyarrow as pa
    import pyarrow.compute as pc

    import ray.data

    from dots_ocr_ray.pipelines.timetravel import create_table, merge_version, read_version

    base, built = _scratch_dir("schemaevo", sf_dir)
    out = os.path.join(base, "table")
    if not built:
        docs = ray.data.read_parquet(
            f"{sf_dir}/documents.parquet", columns=["doc_id", "lang", "n_chars"]
        )
        create_table(
            docs.select_columns(["doc_id", "lang"]).repartition(4),
            out,
            key_col="doc_id",
            rows_per_file=128,
        )
        full = pa.concat_tables(
            [b for b in docs.iter_batches(batch_format="pyarrow")]
        )  # fixture scale: the evolution delta is built driver-side
        ids = full.column("doc_id")
        mod = pc.subtract(ids, pc.multiply(pc.divide(ids, 10), 10))
        delta = full.filter(pc.equal(mod, pa.scalar(3, pa.int64())))
        delta = pa.table(
            {
                "doc_id": delta.column("doc_id"),
                "lang": delta.column("lang"),
                "quality": delta.column("n_chars").cast(pa.int64()),
            }
        )
        merge_version(out, upserts=delta)
    return read_version(out).select_columns(["doc_id", "lang", "quality"])


def _q_epoch_schedule(sf_dir: str):
    """Multi-epoch data-loader schedule: an independent deterministic
    global permutation per training epoch (epoch-salted md5 order,
    exact dense positions via the distributed zipWithIndex) — each
    epoch sees every doc exactly once, in a different order, on any
    cluster size.  Oracle: per-epoch row_number over the same salted
    md5 ordering."""
    import pyarrow as pa

    import ray.data

    from dots_ocr_ray.pipelines.packing import global_shuffle_index

    docs = ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id"])
    parts = []
    for e in (1, 2, 3):
        idx = global_shuffle_index(docs, salt=f"e{e}")

        def _tag(batch: pa.Table, epoch=e) -> pa.Table:
            return batch.append_column(
                "epoch", pa.array([epoch] * batch.num_rows, type=pa.int64())
            )

        parts.append(idx.map_batches(_tag, batch_format="pyarrow"))
    out = parts[0].union(*parts[1:])
    return out.select_columns(["epoch", "doc_id", "shuffle_pos"])


def _q_host_cap_sample(sf_dir: str):
    """Per-host diversity cap kept by quality: at most 5 docs per host
    (doc_id % 40, the fixture URL rule), preferring the longest
    (n_chars desc, doc_id asc) — RefinedWeb's host-domination guard.
    ONE bucket-keyed exchange (relational.top_per_key).  Oracle:
    row_number() window SQL."""
    import pyarrow as pa

    import ray.data

    from dots_ocr_ray.pipelines.relational import top_per_key

    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "n_chars"])

    def _host(batch: pa.Table) -> pa.Table:
        import numpy as np

        ids = batch.column("doc_id").to_numpy(zero_copy_only=False).astype(np.int64)
        return batch.append_column("host", pa.array(ids % 40, type=pa.int64()))

    capped = top_per_key(
        ds.map_batches(_host, batch_format="pyarrow"),
        key_col="host",
        k=5,
        desc_col="n_chars",
        tie_col="doc_id",
    )
    return capped.select_columns(["host", "doc_id", "n_chars", "rk"])


def _q_sq8_recall(sf_dir: str):
    """Scalar-quantization recall audit: exact cosine top-5 vs the
    int8-quantized index (similarity.quantize_embeddings /
    dequantized_topk) on the shared ANN query rule — the eval a
    pipeline runs before swapping the 4×-smaller index in.  Oracle:
    golden parquet from the sequential mirror (same f32 kernels and
    (-score, vec_id) tie rule)."""
    import numpy as np
    import pyarrow as pa

    from dots_ocr_ray.pipelines.similarity import (
        brute_force_topk,
        dequantized_topk,
        quantize_embeddings,
    )
    from dots_ocr_ray.util import round_half_away

    k = 50
    queries, ds = _ann_inputs(sf_dir)
    exact = brute_force_topk(ds, queries, k=k)
    quantized, codebook = quantize_embeddings(ds)
    sq = dequantized_topk(quantized, codebook, queries, list(range(len(queries))), k=k)

    def _sets(tbl):
        out: dict[int, set[int]] = {}
        for q, v in zip(tbl.column("query_id").to_pylist(), tbl.column("vec_id").to_pylist()):
            out.setdefault(int(q), set()).add(int(v))
        return out

    ex, qz = _sets(exact), _sets(sq)
    qids = sorted(ex)
    overlap = np.array([len(ex[q] & qz.get(q, set())) for q in qids], dtype=np.int64)
    return pa.table(
        {
            "query_id": pa.array(qids, type=pa.int64()),
            "n_overlap": pa.array(overlap, type=pa.int64()),
            "recall": pa.array(
                round_half_away(overlap * 1.0 / k, 6), type=pa.float64()
            ),
        }
    )


def _q_isotonic_calibration(sf_dir: str):
    """Isotonic (PAV) calibration of the stopword-ratio English-ness
    score against the true lang=='en' label: bounded per-batch bin
    partials, driver-side integer-exact pool-adjacent-violators.
    Oracle: golden parquet from the sequential mirror (shared
    binning/PAV kernels)."""
    from dots_ocr_ray.pipelines.calibration import isotonic_calibration

    return isotonic_calibration(sf_dir)


def _q_bitext_mining(sf_dir: str):
    """Margin-based bitext mining (Artetxe & Schwenk 2019) between the
    label-0 and label-1 embedding sides: best margin-scored target per
    source vector, broadcast target side + bounded per-batch column
    top-k partials for the backward average.  Oracle: golden parquet
    from the sequential full-matrix mirror (shared kernels)."""
    from dots_ocr_ray.pipelines.bitext import mine_bitext

    return mine_bitext(sf_dir)


def _q_lexicon_flags(sf_dir: str):
    """Multi-term content-lexicon scan (C4-blocklist counting core):
    per term, containing-doc count + total occurrences via one Arrow
    count_substring kernel per (term, batch).  Oracle: contains() +
    the length-difference replace trick per term."""
    from dots_ocr_ray.pipelines.text_analysis import lexicon_scan

    return lexicon_scan(sf_dir)


def _q_late_events(sf_dir: str):
    """Watermark / out-of-order audit: per user, events whose
    event-time ts is older than the running high-water mark in ingest
    (event_id) order — one sorted-segment pass + a bucket-keyed
    rollup, all int64.  Oracle: MAX(ts) OVER (... ROWS BETWEEN
    UNBOUNDED PRECEDING AND 1 PRECEDING) window SQL."""
    from dots_ocr_ray.pipelines.windows import late_event_audit

    return late_event_audit(sf_dir)


def _q_drift_kl(sf_dir: str):
    """Distribution-drift audit between the two crawl-snapshot halves
    (doc_id parity): per-lang Laplace-smoothed KL / total-variation /
    chi-square contribution terms.  Exchange is O(batches × langs)
    partial count rows; the driver folds a bounded table.  Oracle: the
    same smoothed terms in SQL (operand-order-matched float math)."""
    from dots_ocr_ray.pipelines.drift import distribution_drift

    return distribution_drift(sf_dir, category="lang")


def _q_mojibake_repair(sf_dir: str):
    """Encoding repair under the hard signal: the MOJI_MOD fixture
    rule appends k copies of one mangled cp1252/UTF-8 signature to
    every 9th doc; the repairer must DETECT them from the real
    codepoints (Arrow count_substring per lexicon signature) and fix
    them via the reverse round-trip.  Zero exchange; oracle = the
    injection arithmetic on (doc_id, length(text))."""
    import pyarrow as pa

    import ray.data

    from dots_ocr_ray.fixtures import moji_text
    from dots_ocr_ray.functions.encoding import repair_mojibake

    docs = ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])

    def _inject(batch: pa.Table) -> pa.Table:
        texts = [
            moji_text(d, t or "")
            for d, t in zip(batch.column("doc_id").to_pylist(), batch.column("text").to_pylist())
        ]
        return pa.table(
            {"doc_id": batch.column("doc_id"), "text": pa.array(texts, type=pa.string())}
        )

    out = repair_mojibake(docs.map_batches(_inject, batch_format="pyarrow"))
    return out.select_columns(
        ["doc_id", "text_repaired", "n_mojibake", "chars_before", "chars_after"]
    )


def _q_price_quantity_corr(sf_dir: str):
    """Per-returnflag Pearson correlation of floored quantity vs
    floored extendedprice from exact integer sufficient stats —
    divide-by-n-first closed form so nothing approaches int64 range,
    operand order mirrored by the SQL oracle, micro-floored
    (pipelines/profile.py:pearson_by_key)."""
    import ray.data

    from dots_ocr_ray.pipelines.profile import pearson_by_key

    li = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_returnflag", "l_quantity", "l_extendedprice"],
    )
    return pearson_by_key(
        li, key_col="l_returnflag", x_col="l_quantity", y_col="l_extendedprice"
    )


def _q_chi2_lang_source(sf_dir: str):
    """Chi-square independence screen of documents lang x source:
    bounded per-batch contingency partials, one tiny groupby, driver
    closed form with operand order mirrored by the SQL oracle
    (pipelines/profile.py:chi2_independence)."""
    import ray.data

    from dots_ocr_ray.pipelines.profile import chi2_independence

    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["lang", "source"]
    )
    return chi2_independence(docs, a_col="lang", b_col="source")


def _q_mannwhitney_returned(sf_dir: str):
    """Mann-Whitney U rank-sum test of returned (l_returnflag='R') vs
    other lineitem quantities: bounded per-value count partials,
    doubled-integer midranks, tie-corrected z with operand order
    mirrored by the SQL oracle (pipelines/profile.py:mann_whitney_u)."""
    import ray.data

    from dots_ocr_ray.pipelines.profile import mann_whitney_u

    li = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet", columns=["l_quantity", "l_returnflag"]
    )
    return mann_whitney_u(
        li, value_col="l_quantity", group_col="l_returnflag", group_a="R"
    )


def _q_spearman_qty_discount(sf_dir: str):
    """Spearman rank correlation of lineitem quantity vs discount
    (x100 integer units): bounded joint-pair count partials, exact
    doubled midranks, HUGEINT-mirrored rank sufficient stats
    (pipelines/profile.py:spearman_corr)."""
    import ray.data

    from dots_ocr_ray.pipelines.profile import spearman_corr

    li = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet", columns=["l_quantity", "l_discount"]
    )
    return spearman_corr(
        li, x_col="l_quantity", y_col="l_discount", y_scale=100
    )


def _q_small_qty_revenue(sf_dir: str):
    """TPC-H Q17 shape: brand-filtered revenue below a correlated
    per-part quantity threshold — two streamed lineitem passes, sorted
    broadcast key set, zero row-level shuffle
    (pipelines/relational.py:small_quantity_revenue)."""
    from dots_ocr_ray.pipelines.relational import small_quantity_revenue

    return small_quantity_revenue(sf_dir, brand="Brand#12", frac=0.4)


def _q_large_volume_orders(sf_dir: str):
    """TPC-H Q18 shape: top-100 orders by header price among those with
    summed line quantity > 180 — partial per-order combiner, having
    filter, one hash_join, driver-merged partial top-k
    (pipelines/relational.py:large_volume_orders)."""
    from dots_ocr_ray.pipelines.relational import large_volume_orders

    return large_volume_orders(sf_dir, threshold=180.0, k=100)


def _q_waiting_suppliers(sf_dir: str):
    """TPC-H Q21 shape: suppliers solely blamed for returns on
    multi-supplier unfulfilled orders — distinct-pair fold, per-order
    exists/not-exists aggregates, semi hash_join on status-F orders,
    partial top-k (pipelines/relational.py:waiting_suppliers)."""
    from dots_ocr_ray.pipelines.relational import waiting_suppliers

    return waiting_suppliers(sf_dir, status="F", k=20)


def _q_dormant_rich_customers(sf_dir: str):
    """TPC-H Q22 shape: above-average-balance customers with no recent
    orders per nation — cent-exact scalar threshold broadcast +
    exact-at-scale anti_join_ids + bounded nation rollup
    (pipelines/relational.py:dormant_rich_customers)."""
    from dots_ocr_ray.pipelines.relational import dormant_rich_customers

    return dormant_rich_customers(sf_dir, cutoff="2000-07-01")


def _q_token_entropy(sf_dir: str):
    """Per-doc quantized unigram Shannon entropy: term-local floored
    int64 contributions (order-independent sums) + integer floor
    division, zero exchange
    (pipelines/text_analysis.py:token_entropy)."""
    import ray.data

    from dots_ocr_ray.pipelines.text_analysis import token_entropy

    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    )
    return token_entropy(docs)


def _q_acf_daily_events(sf_dir: str):
    """Lag-1/lag-7 autocorrelation of per-type daily event counts:
    calendar-bounded (type, day, n) fold, exact integer sufficient
    stats, divide-by-n-first Pearson closed form
    (pipelines/profile.py:autocorr_daily)."""
    import ray.data

    from dots_ocr_ray.pipelines.profile import autocorr_daily

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["ts", "event_type"]
    )
    return autocorr_daily(ev, ts_col="ts", key_col="event_type", lags=(1, 7))


def _q_ks_returned_qty(sf_dir: str):
    """Kolmogorov–Smirnov two-sample statistic, returned vs other
    lineitem quantities: bounded per-value counts, cross-multiplied
    integer ECDF gap, one mirrored division
    (pipelines/profile.py:ks_two_sample)."""
    import ray.data

    from dots_ocr_ray.pipelines.profile import ks_two_sample

    li = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet", columns=["l_quantity", "l_returnflag"]
    )
    return ks_two_sample(
        li, value_col="l_quantity", group_col="l_returnflag", group_a="R"
    )


def _q_cusum_daily_events(sf_dir: str):
    """One-sided CUSUM ramp detector per event type over zero-filled
    daily counts, prefix-min identity in exact micro-integers
    (pipelines/profile.py:cusum_daily)."""
    import ray.data

    from dots_ocr_ray.pipelines.profile import cusum_daily

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["ts", "event_type"]
    )
    return cusum_daily(ev, ts_col="ts", key_col="event_type")


def _q_deletion_vector_read(sf_dir: str):
    """Merge-on-read positional deletes end-to-end: documents written
    as an 8-file snapshot, rows with doc_id % 7 == 3 deleted via
    (file_path, pos) sidecars, scan drops them per file with zero
    exchange (pipelines/packing.py:write_position_deletes /
    read_with_position_deletes).  Oracle = the equivalent id filter."""
    import os

    import numpy as np
    import ray.data

    from dots_ocr_ray.pipelines.packing import (
        read_with_position_deletes,
        write_position_deletes,
    )

    base, built = _scratch_dir("posdel", sf_dir)
    snap = os.path.join(base, "snap")
    dels = os.path.join(base, "deletes")
    if not built:
        def _mod7_is_3(t):
            import numpy as _np
            import pyarrow as _pa

            d = t.column("doc_id").to_numpy(zero_copy_only=False).astype(_np.int64)
            return _pa.table({"doc_id": _pa.array(d[d % 7 == 3], _pa.int64())})

        ids = ray.data.read_parquet(
            f"{sf_dir}/documents.parquet", columns=["doc_id"]
        ).map_batches(_mod7_is_3, batch_format="pyarrow")
        del_ids = ids.to_pandas()["doc_id"].to_numpy(np.int64)
        ray.data.read_parquet(f"{sf_dir}/documents.parquet").repartition(
            8
        ).write_parquet(snap)
        stats = write_position_deletes(
            snap, id_col="doc_id", delete_ids=del_ids, out_dir=dels
        )
        assert stats["n_deletes"] == len(del_ids)
        with open(os.path.join(base, "_complete"), "w") as f:
            f.write("ok")
    return read_with_position_deletes(
        snap, dels, columns=["doc_id", "text", "lang", "source", "n_chars"]
    )


def _q_host_reciprocity(sf_dir: str):
    """Directed reciprocity of the 40-host link fixture: distinct
    self-loop-free edges oriented to (lo, hi) with direction flags in
    one keyed fold, exact integer mutual fraction
    (pipelines/graph.py:reciprocity).  Oracle: DISTINCT edge CTE +
    reversed self-join in SQL."""
    from dots_ocr_ray.pipelines.graph import host_edges_from_documents, reciprocity

    return reciprocity(host_edges_from_documents(sf_dir))


def _q_benford_audit(sf_dir: str):
    """Benford first-digit audit over order totals: vectorized decimal
    first digit of the cents-quantized values, bounded 9-row partial
    fold, expected counts and chi-square terms vs total·log10(1+1/d)
    with mirrored operand order (pipelines/profile.py)."""
    import ray.data

    from dots_ocr_ray.pipelines.profile import benford_audit

    orders = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet", columns=["o_totalprice"]
    )
    return benford_audit(orders)


def _q_welch_t(sf_dir: str):
    """Welch's unequal-variance t per language between the two
    crawl-snapshot halves (doc_id parity) on n_chars — the inferential
    companion to drift_kl.  Integer (n, Σx, Σx²) partials, driver
    closed form with a literally-mirrored operand order, micro-floored
    t and Welch–Satterthwaite df (pipelines/drift.py)."""
    import ray.data

    from dots_ocr_ray.pipelines.drift import welch_t_by_category

    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "lang", "n_chars"]
    )
    return welch_t_by_category(docs)


def _q_dedup_eval(sf_dir: str):
    """Dedup-quality eval against planted truth: semdedup runs on the
    near-dup-injected embeddings, its per-row pruned flag is scored
    against the injection rule (truth dup = planted member that is not
    its group's min id) — per-batch confusion partials, driver folds a
    bounded table, integer floor-div micro P/R/F1.  Golden oracle:
    sequential mirror over the same shared kernels and truth rule."""
    import pyarrow as pa

    import ray.data

    from dots_ocr_ray.fixtures import inject_near_dup_embeddings
    from dots_ocr_ray.pipelines.similarity import semdedup_prune
    from dots_ocr_ray.util import bucket_keyed_fold, vec_matrix

    ds = ray.data.read_parquet(f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"])

    def _inject(batch: pa.Table) -> pa.Table:
        import numpy as np

        ids = batch.column("vec_id").to_numpy(zero_copy_only=False).astype(np.int64)
        mat = inject_near_dup_embeddings(ids, vec_matrix(batch.column("embedding"), dtype=np.float32))
        return pa.table(
            {
                "vec_id": batch.column("vec_id"),
                "embedding": pa.array(list(mat), type=pa.list_(pa.float32())),
            }
        )

    flags = semdedup_prune(ds.map_batches(_inject, batch_format="pyarrow"), threshold=0.95)

    # group minima of the PLANTED ids (3 groups, bounded by the rule)
    def _planted(batch: pa.Table) -> pa.Table:
        import numpy as np

        ids = batch.column("vec_id").to_numpy(zero_copy_only=False).astype(np.int64)
        ids = ids[ids % 9 == 4]
        return pa.table({"g": pa.array((ids // 9) % 3, pa.int64()), "m": pa.array(ids, pa.int64())})

    planted = ds.select_columns(["vec_id"]).map_batches(_planted, batch_format="pyarrow")
    mins_tbl = bucket_keyed_fold(planted, "g", {"m": ("min", "m")}).to_pandas()
    group_min = {int(g): int(m) for g, m in zip(mins_tbl["g"], mins_tbl["m"])}

    def _confusion(batch: pa.Table) -> pa.Table:
        import numpy as np

        ids = batch.column("vec_id").to_numpy(zero_copy_only=False).astype(np.int64)
        pred = ~batch.column("kept").to_numpy(zero_copy_only=False)
        planted = ids % 9 == 4
        gmin = np.array([group_min.get(int(g), -1) for g in (ids // 9) % 3])
        truth = planted & (ids != gmin)
        return pa.table(
            {
                "tp": pa.array([int((truth & pred).sum())], pa.int64()),
                "fp": pa.array([int((~truth & pred).sum())], pa.int64()),
                "fn": pa.array([int((truth & ~pred).sum())], pa.int64()),
                "tn": pa.array([int((~truth & ~pred).sum())], pa.int64()),
            }
        )

    parts = flags.map_batches(_confusion, batch_format="pyarrow").to_pandas()
    tp, fp, fn, tn = (int(parts[c].sum()) for c in ("tp", "fp", "fn", "tn"))
    p = 0 if tp + fp == 0 else 1_000_000 * tp // (tp + fp)
    r = 0 if tp + fn == 0 else 1_000_000 * tp // (tp + fn)
    f1 = 0 if 2 * tp + fp + fn == 0 else 2_000_000 * tp // (2 * tp + fp + fn)
    return pa.table(
        {
            "tp": pa.array([tp], pa.int64()),
            "fp": pa.array([fp], pa.int64()),
            "fn": pa.array([fn], pa.int64()),
            "tn": pa.array([tn], pa.int64()),
            "precision_micro": pa.array([p], pa.int64()),
            "recall_micro": pa.array([r], pa.int64()),
            "f1_micro": pa.array([f1], pa.int64()),
        }
    )


def _q_robots_meta(sf_dir: str):
    """Page-level robots-meta compliance bits: every 6th doc's page
    carries a <meta name="robots"> whose directive list rotates by
    (doc_id // 6) % 4 (all / noindex / nofollow / both); the engine
    must token-parse the REAL attribute (pipelines/document.py:
    robots_meta_flags).  Zero exchange; oracle = rule arithmetic."""
    import pyarrow as pa

    import ray.data

    from dots_ocr_ray.pipelines.document import robots_meta_from_pages

    docs = ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id"])

    _DIRECTIVES = ("all", "noindex", "nofollow", "noindex, nofollow")

    def _pages(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_pylist()
        htmls = []
        for d in ids:
            meta = (
                f'<meta name="robots" content="{_DIRECTIVES[(d // 6) % 4]}">'
                if d % 6 == 1
                else ""
            )
            htmls.append(
                f"<html><head>{meta}</head><body><p>x</p></body></html>".encode()
            )
        return pa.table(
            {
                "doc_id": pa.array(ids, pa.int64()),
                "html": pa.array(htmls, pa.binary()),
            }
        )

    return robots_meta_from_pages(docs.map_batches(_pages, batch_format="pyarrow"))


def _q_shard_plan(sf_dir: str):
    """Load-aware shard planning: per-host n_chars weights folded in
    one groupby, then LPT greedy bin packing onto 8 workers — the
    skew-taming placement step stateless hashing can't do
    (functions/partitioning.py:plan_partitions).  Golden oracle:
    sequential mirror over the shared lpt_assign kernel."""
    import pyarrow as pa

    import ray.data

    from dots_ocr_ray.functions.partitioning import plan_partitions

    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "n_chars"]
    )

    def _host(batch: pa.Table) -> pa.Table:
        import numpy as np

        lut = np.array([f"example-{r:02d}.com" for r in range(40)])
        rem = batch.column("doc_id").to_numpy(zero_copy_only=False) % 40
        return pa.table(
            {
                "host": pa.array(lut[rem], type=pa.string()),
                "n_chars": batch.column("n_chars"),
            }
        )

    hosts = docs.map_batches(_host, batch_format="pyarrow")
    return plan_partitions(hosts, key_col="host", weight_col="n_chars", n_workers=8)


def _q_card_scrub(sf_dir: str):
    """Checksum-validated card redaction: the CARD_MOD rule injects a
    16-digit number whose Luhn validity is controlled by arithmetic;
    the scrubber must genuinely run Luhn and redact ONLY valid runs
    (functions/scrub.py:scrub_cards).  Zero exchange; oracle = the
    validity rule + constant-width length arithmetic."""
    import pyarrow as pa

    import ray.data

    from dots_ocr_ray.fixtures import card_text
    from dots_ocr_ray.functions.scrub import scrub_cards

    docs = ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])

    def _inject(batch: pa.Table) -> pa.Table:
        texts = [
            card_text(d, t or "")
            for d, t in zip(batch.column("doc_id").to_pylist(), batch.column("text").to_pylist())
        ]
        return pa.table(
            {"doc_id": batch.column("doc_id"), "text": pa.array(texts, type=pa.string())}
        )

    out = scrub_cards(docs.map_batches(_inject, batch_format="pyarrow"))
    return out.select_columns(
        ["doc_id", "n_cc_valid", "n_cc_invalid", "scrubbed_len"]
    )


def _q_url_templates(sf_dir: str):
    """Crawler-trap audit: urls built from a 4-shape path rule
    (product / calendar / article / static) collapse to digit-run
    templates via ONE vectorized RE2 replace; rollup = pages +
    distinct hosts per template (pipelines/document.py:url_templates).
    Oracle: the same construction + regexp_replace in SQL."""
    import pyarrow as pa

    import ray.data

    from dots_ocr_ray.pipelines.document import url_templates

    docs = ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id"])

    def _urls(batch: pa.Table) -> pa.Table:
        urls = []
        for d in batch.column("doc_id").to_pylist():
            host = f"example-{d % 40:02d}.com"
            shape = d % 4
            if shape == 0:
                path = f"/p/{d}"
            elif shape == 1:
                path = f"/cal/{2020 + d % 5}/{1 + d % 12}/{1 + d % 28}"
            elif shape == 2:
                path = f"/a-{d}/comments"
            else:
                path = "/static/about"
            urls.append(f"https://{host}{path}")
        return pa.table({"url": pa.array(urls, type=pa.string())})

    return url_templates(docs.map_batches(_urls, batch_format="pyarrow"))


def _q_extraction_f1(sf_dir: str):
    """Extraction-fidelity audit fused with extraction: the pure
    kernel runs on each page batch and is scored in the same pass
    against the naive crawler text (SQuAD-style multiset token F1,
    pure int64 floor-div micro).  Zero exchange, no join.  Oracle:
    _TEXT_SQL tokenized + a least()-min multiset join in SQL."""
    import ray.data

    from dots_ocr_ray.fixtures import pages_from_documents_batch
    from dots_ocr_ray.pipelines.document import extraction_f1_audit

    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text", "lang"]
    )
    pages = docs.map_batches(pages_from_documents_batch, batch_format="pyarrow")
    return extraction_f1_audit(pages)


def _q_host_failure_wilson(sf_dir: str):
    """Per-host extraction-health alerting: hosts from the REAL url
    column, per-batch partial failure counts, Wilson-score lower bound
    of the failure rate in micro units (pipelines/extract.py —
    reference G3's fail-ratio gate generalized host-level).  Oracle:
    the status residue rules + the literally-mirrored Wilson formula."""
    from dots_ocr_ray.pipelines.extract import host_failure_wilson

    return host_failure_wilson(_extract_ds(sf_dir))


def _q_hreflang_clusters(sf_dir: str):
    """i18n alternate-link extraction: fixture pages (HREFLANG_MOD rule
    plants 2-4 deterministic <link rel=alternate hreflang> head
    entries) → one row per alternate (doc_id, hreflang, href) via a
    compiled-regex scan (pipelines/document.py:hreflang_from_pages).
    Zero-exchange flat explode; the SQL mirror reproduces the fixture
    arithmetic and excludes the fallback/failed residue classes."""
    import functools

    import ray.data

    from dots_ocr_ray.fixtures import pages_from_documents_batch
    from dots_ocr_ray.pipelines.document import hreflang_from_pages

    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text", "lang"]
    )
    pages = docs.map_batches(
        functools.partial(pages_from_documents_batch, with_hreflang=True),
        batch_format="pyarrow",
    )
    return hreflang_from_pages(pages)


def _q_neyman_alloc(sf_dir: str):
    """Neyman-optimal allocation of a 1000-doc labeling budget across
    language strata by n_chars spread: bounded sufficient-stat fold,
    one quantization, integer largest-remainder split
    (pipelines/profile.py:neyman_allocation)."""
    import ray.data

    from dots_ocr_ray.pipelines.profile import neyman_allocation

    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["lang", "n_chars"]
    )
    return neyman_allocation(
        docs, group_col="lang", value_col="n_chars", total_n=1000
    )


def _q_redirect_chains(sf_dir: str):
    """Redirect-chain resolution over the deterministic fixture rule
    (doc_id % 8 in {1,2,3} redirects to doc_id − 1, so chains run up
    to 3 hops): every source resolves to its terminal target with hop
    count via the memoized driver tier / pointer-doubling scale tier
    (pipelines/graph.py:resolve_redirects).  The SQL mirror is the
    closed-form residue arithmetic."""
    import numpy as np
    import ray.data

    from dots_ocr_ray.pipelines.graph import resolve_redirects

    def _edges(t):
        import numpy as _np
        import pyarrow as _pa

        d = t.column("doc_id").to_numpy(zero_copy_only=False).astype(_np.int64)
        s = d[(d % 8 >= 1) & (d % 8 <= 3)]
        return _pa.table(
            {
                "src": _pa.array(s, _pa.int64()),
                "dst": _pa.array(s - 1, _pa.int64()),
            }
        )

    edges = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id"]
    ).map_batches(_edges, batch_format="pyarrow")
    return resolve_redirects(edges, src="src", dst="dst")


def _q_crawl_budget(sf_dir: str):
    """Max-min fair split of a capacity = |docs|//3 crawl budget over
    the 40 fixture hosts: bounded demand fold, integer water level
    from sorted prefix sums, key-ordered residual
    (pipelines/graph.py:fair_share_budget)."""
    import pyarrow.parquet as _pq

    import ray.data

    from dots_ocr_ray.pipelines.graph import fair_share_budget

    n_docs = _pq.read_metadata(f"{sf_dir}/documents.parquet").num_rows

    def _host_demand(t):
        import numpy as _np
        import pyarrow as _pa

        d = t.column("doc_id").to_numpy(zero_copy_only=False).astype(_np.int64)
        hosts = [f"example-{int(x) % 40:02d}.com" for x in d]
        return _pa.table(
            {
                "host": _pa.array(hosts, _pa.string()),
                "one": _pa.array(_np.ones(len(d), _np.int64), _pa.int64()),
            }
        )

    demands = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id"]
    ).map_batches(_host_demand, batch_format="pyarrow")
    return fair_share_budget(
        demands, key_col="host", demand_col="one", capacity=n_docs // 3
    )


def _q_wmedian_qty_by_flag(sf_dir: str):
    """Revenue-weighted median order quantity per returnflag: bounded
    (key, value, Σcents) fold, doubled-cumulative-weight integer rule
    (pipelines/profile.py:weighted_median_by_key)."""
    import ray.data

    from dots_ocr_ray.pipelines.profile import weighted_median_by_key

    li = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_returnflag", "l_quantity", "l_extendedprice"],
    )
    return weighted_median_by_key(
        li,
        key_col="l_returnflag",
        value_col="l_quantity",
        weight_col="l_extendedprice",
    )


def _q_theil_sources(sf_dir: str):
    """Theil T concentration of documents across sources: bounded
    count fold, term-local micro quantization (order-independent sum)
    (pipelines/profile.py:theil_index)."""
    import ray.data

    from dots_ocr_ray.pipelines.profile import theil_index

    docs = ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=["source"])
    return theil_index(docs, key_col="source")


def _q_fano_daily_events(sf_dir: str):
    """Per-type Fano factor (burstiness) of zero-filled daily event
    counts: observed-day sufficient stats + true span length, no
    generate_series needed (pipelines/profile.py:fano_daily)."""
    import ray.data

    from dots_ocr_ray.pipelines.profile import fano_daily

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["ts", "event_type"]
    )
    return fano_daily(ev, ts_col="ts", key_col="event_type")


def _q_jsonld_metadata(sf_dir: str):
    """Structured-metadata extraction: fixture pages (JSONLD_MOD rule
    plants a deterministic ld+json block on normal docs) → one row per
    parsed block (doc_id, ld_type, word_count, date_published) via a
    real compiled-regex scan + JSON parse (pipelines/document.py).
    Zero-exchange flat explode; the SQL mirror reproduces the fixture
    arithmetic and excludes the fallback/failed residue classes."""
    import functools

    import ray.data

    from dots_ocr_ray.fixtures import pages_from_documents_batch
    from dots_ocr_ray.pipelines.document import jsonld_from_pages

    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text", "lang"]
    )
    pages = docs.map_batches(
        functools.partial(pages_from_documents_batch, with_jsonld=True),
        batch_format="pyarrow",
    )
    return jsonld_from_pages(pages)


def _q_readability_scores(sf_dir: str):
    """Flesch-style readability per doc: three RE2 count kernels
    (words / sentence breaks / vowel-group syllables) + one
    operand-order-matched float expression, micro-FLOORED (no half-tie
    rule to disagree on).  Zero exchange; oracle = the identical
    regexp_extract_all counts and float expression in SQL."""
    import ray.data

    from dots_ocr_ray.pipelines.text_analysis import readability_scores

    docs = ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    return readability_scores(docs).select_columns(
        ["doc_id", "n_words", "n_sentences", "n_syllables", "flesch_micro"]
    )


def _q_nfkc_audit(sf_dir: str):
    """NFKC compatibility-normalization audit: the compat_text rule
    appends full-width / ligature / enclosed-digit characters; the
    engine must normalize from the REAL codepoints (vectorized
    non-ASCII prefilter + unicodedata on hit rows only).  Oracle = the
    injection arithmetic and the known NFKC images."""
    import pyarrow as pa

    import ray.data

    from dots_ocr_ray.fixtures import compat_text
    from dots_ocr_ray.functions.encoding import nfkc_normalize

    docs = ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])

    def _inject(batch: pa.Table) -> pa.Table:
        texts = [
            compat_text(d, t or "")
            for d, t in zip(batch.column("doc_id").to_pylist(), batch.column("text").to_pylist())
        ]
        return pa.table(
            {"doc_id": batch.column("doc_id"), "text": pa.array(texts, type=pa.string())}
        )

    out = nfkc_normalize(docs.map_batches(_inject, batch_format="pyarrow"))
    return out.select_columns(
        ["doc_id", "text_nfkc", "changed", "len_before", "len_after"]
    )


def _q_interval_coverage(sf_dir: str):
    """Per-user interval-union coverage (gaps-and-islands merge):
    deterministic event durations, overlapping intervals merged into
    islands, int64-µs covered-time rollup (pipelines/windows.py).
    One groupby exchange; oracle = the max-over-preceding window SQL."""
    import ray.data

    from dots_ocr_ray.pipelines.windows import interval_coverage

    events = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["user_id", "ts", "value"]
    )
    return interval_coverage(events)


def _q_host_betweenness(sf_dir: str):
    """Exact directed betweenness over the 40-host edge fixture,
    parallelized BY SOURCE (one Brandes BFS task slice per source
    block over a broadcast adjacency).  Per-source dependencies are
    micro-floored by the shared pure kernel before the integer
    cross-source sum, so the parallel result is bit-identical to the
    sequential golden (make_golden.golden_host_betweenness)."""
    from dots_ocr_ray.pipelines.graph import (
        betweenness_centrality,
        host_edges_from_documents,
    )

    return betweenness_centrality(host_edges_from_documents(sf_dir))


def _q_winsorized_stats(sf_dir: str):
    """Per-event-type winsorized sums in exact integer cents: cut
    points are rank-ceil(q·n) order statistics of the quantized
    values, tails clamped with an integer least/greatest — robust
    aggregation with a hash-exact SQL mirror (row_number ranks +
    clamp).  One bounded-cardinality groupby exchange."""
    import ray.data

    from dots_ocr_ray.pipelines.profile import winsorized_stats

    events = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["event_type", "value"]
    )
    return winsorized_stats(events)


def _q_orc_roundtrip(sf_dir: str):
    """ORC sink+source coverage (sources/orc.py): the documents table
    written as per-batch .orc files and streamed back via per-file
    read tasks with reader-level column projection.  Oracle: the
    original table minus the projected-away column — the format hop
    must be lossless."""
    import os

    import ray.data

    from dots_ocr_ray.sources.orc import read_orc, write_orc

    base, built = _scratch_dir("orcround", sf_dir)
    out = os.path.join(base, "orc")
    if not built:
        write_orc(
            ray.data.read_parquet(
                f"{sf_dir}/documents.parquet",
                columns=["doc_id", "text", "lang", "source", "n_chars"],
            ).repartition(4),
            out,
            rows_per_file=256,
        )
        with open(os.path.join(base, "_complete"), "w") as f:
            f.write("ok")
    return read_orc(out, columns=["doc_id", "lang", "source", "n_chars"])


def _q_hrw_assignment(sf_dir: str):
    """Rendezvous (HRW) hashing as the cluster-resize stability
    primitive: the 40-host fixture keyspace assigned to 8 and to 9
    buckets; every key that moves MUST land on the new bucket, and the
    expected moved fraction is 1/9 (functions/partitioning.py).  The
    oracle recomputes the same argmax-of-md5 independently in SQL
    (hex-string DESC == big-endian numeric DESC on equal length)."""
    import pyarrow as pa
    import pyarrow.compute as pc

    import ray.data

    from dots_ocr_ray.functions.partitioning import rendezvous_assign
    from dots_ocr_ray.util import bucket_keyed_fold

    docs = ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id"])

    def _host(batch: pa.Table) -> pa.Table:
        import numpy as np

        lut = np.array([f"example-{r:02d}.com" for r in range(40)])
        rem = batch.column("doc_id").to_numpy(zero_copy_only=False) % 40
        return pa.table({"host": pa.array(lut[rem], type=pa.string())})

    hosts = bucket_keyed_fold(docs.map_batches(_host, batch_format="pyarrow"), "host", {})
    out = rendezvous_assign(hosts, "host", 8, out_col="bucket8")
    out = rendezvous_assign(out, "host", 9, out_col="bucket9")

    def _moved(batch: pa.Table) -> pa.Table:
        return batch.append_column(
            "moved",
            pc.cast(
                pc.not_equal(batch.column("bucket8"), batch.column("bucket9")),
                pa.int64(),
            ),
        )

    return out.map_batches(_moved, batch_format="pyarrow")


def _q_script_mix(sf_dir: str):
    """Unicode script-mix detection: per-doc codepoint counts by
    script block, computed from the REAL codepoints in one numpy pass
    (concat → utf-32 view → searchsorted buckets → cumsum-diff per
    row; functions/scripts.py).  The script_text fixture rule appends
    deterministic Cyrillic/CJK/Greek runs (stackable) to the ASCII
    base; oracle = the injection arithmetic, n_latin = length(text)."""
    import pyarrow as pa

    import ray.data

    from dots_ocr_ray.fixtures import script_text
    from dots_ocr_ray.functions.scripts import script_counts

    docs = ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])

    def _inject(batch: pa.Table) -> pa.Table:
        texts = [
            script_text(d, t or "")
            for d, t in zip(batch.column("doc_id").to_pylist(), batch.column("text").to_pylist())
        ]
        return pa.table(
            {"doc_id": batch.column("doc_id"), "text": pa.array(texts, type=pa.string())}
        )

    out = script_counts(docs.map_batches(_inject, batch_format="pyarrow"))
    return out.select_columns(
        ["doc_id", "n_latin", "n_greek", "n_cyrillic", "n_cjk", "n_other"]
    )


def _q_skyline_orders(sf_dir: str):
    """Distributed 2-D skyline (Pareto frontier): orders undominated
    under (maximize o_totalprice, maximize o_orderdate) — the
    "recent AND high-value" frontier no weighted score can rank away.
    Two-phase: vectorized per-block local skylines, then the same
    kernel over the coalesced candidate union (pipelines/skyline.py).
    Oracle: NOT EXISTS dominance SQL — an independent O(n²) derivation
    of the same frontier."""
    import ray.data

    from dots_ocr_ray.pipelines.skyline import skyline_2d

    orders = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderkey", "o_totalprice", "o_orderdate"],
    )
    return skyline_2d(orders, "o_totalprice", "o_orderdate")


def _q_jw_vocab_pairs(sf_dir: str):
    """Jaro-Winkler near-match pairs over the corpus vocabulary (the
    record-linkage similarity, transposition-tolerant and
    prefix-weighted): vocab-bounded distinct fold, broadcast vocab,
    evenly distributed j>i all-pairs, O(V²) budget stated
    (pipelines/text_analysis.py:jw_vocab_pairs).  Golden oracle:
    sequential all-pairs over the same published-example-verified
    kernel."""
    import ray.data

    from dots_ocr_ray.pipelines.text_analysis import jw_vocab_pairs

    docs = ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=["text"])
    return jw_vocab_pairs(docs, threshold_micro=700_000)


def _q_kappa_lang_id(sf_dir: str):
    """Cohen's κ for the lang-id heuristic vs the declared label —
    chance-corrected agreement from the distributed confusion fold,
    arbitrary-precision integer closed form on the bounded table
    (pipelines/text_analysis.py:cohens_kappa).  Golden oracle:
    sequential confusion through the SAME kappa arithmetic."""
    from dots_ocr_ray.pipelines.text_analysis import cohens_kappa, lang_id_confusion

    return cohens_kappa(lang_id_confusion(sf_dir))


def _q_event_trigrams(sf_dir: str):
    """Frequent 3-step behavioral sequences per user stream in
    (ts, event_id) order — sequence mining one step past the Markov
    transition table; one user-keyed exchange + vectorized shifts
    (pipelines/windows.py:event_trigrams).  SQL oracle: double LEAD
    window."""
    import ray.data

    from dots_ocr_ray.pipelines.windows import event_trigrams

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["event_id", "user_id", "ts", "event_type"],
    )
    return event_trigrams(ev, min_count=2)


def _q_bot_regularity(sf_dir: str):
    """Behavioral bot screen over the event log: per-user inter-event
    gap coefficient of variation in exact µs sufficient stats
    (arbitrary-precision — Σgap² overflows int64 at day-long gaps),
    too-regular users flagged; one user-keyed exchange
    (pipelines/windows.py:bot_regularity_scores).  SQL oracle: lag
    gaps + HUGEINT stats + mirrored sqrt."""
    import ray.data

    from dots_ocr_ray.pipelines.windows import bot_regularity_scores

    ev = ray.data.read_parquet(f"{sf_dir}/events.parquet", columns=["user_id", "ts"])
    return bot_regularity_scores(ev)


def _q_postings_compression(sf_dir: str):
    """Delta+varint postings-size estimate (the gap-compression
    arithmetic an index budget starts from): zero-exchange postings
    stream, ONE token-bucketed exchange, vectorized run-aware gaps +
    exact LEB128 ladder — three scalars per bucket
    (pipelines/retrieval.py:postings_compression_audit).  SQL oracle:
    lag-window gaps + CASE ladder."""
    import ray.data

    from dots_ocr_ray.pipelines.retrieval import postings_compression_audit

    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    )
    return postings_compression_audit(docs)


def _q_cdx_status_counts(sf_dir: str):
    """CDXJ crawl-index source end-to-end: a deterministic CDX shard
    set is written from documents (status/length/malformed-line
    arithmetic rules), then read back through the streaming per-file
    source (sources/cdx.py — pyarrow.fs + incremental gzip + per-file
    skip counters) and rolled up by status.  The injected malformed
    lines must vanish from the counts.  SQL oracle: the same rules
    over documents directly."""
    import gzip
    import json
    import os

    import pyarrow as pa
    import pyarrow.parquet as _pq

    import ray.data

    from dots_ocr_ray.sources.cdx import read_cdx
    from dots_ocr_ray.util import bucket_keyed_fold

    base, built = _scratch_dir("cdx", sf_dir)
    if not built:
        t = _pq.read_table(
            f"{sf_dir}/documents.parquet", columns=["doc_id", "n_chars"]
        )
        # two shards, one gzipped — both paths of the source exercise
        lines: list[list[bytes]] = [[], []]
        for d, nc in zip(t.column("doc_id").to_pylist(), t.column("n_chars").to_pylist()):
            shard = int(d) % 2
            if d % 37 == 3:
                lines[shard].append(b"com,example)/broken " + str(d).encode())
                continue
            surt = f"com,example-{d % 40:02d})/page/{d}"
            ts = 20240101000000 + int(d)
            status = 404 if d % 17 == 3 else 200
            rec = {
                "url": f"https://example-{d % 40:02d}.com/page/{d}",
                "status": str(status),
                "digest": f"sha1:{d}",
                "length": int(nc),
            }
            lines[shard].append(f"{surt} {ts} {json.dumps(rec)}".encode())
        with open(os.path.join(base, "part0.cdx"), "wb") as f:
            f.write(b"\n".join(lines[0]) + b"\n")
        with gzip.open(os.path.join(base, "part1.cdx.gz"), "wb") as f:
            f.write(b"\n".join(lines[1]) + b"\n")
        with open(os.path.join(base, "_complete"), "w") as f:
            f.write("ok")
    ds = read_cdx(
        [os.path.join(base, "part0.cdx"), os.path.join(base, "part1.cdx.gz")]
    )

    def _lengths(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        # a record without a length adds nothing to SUM (the oracle's)
        return pa.table({"status": batch.column("status"), "length": pc.fill_null(batch.column("length"), 0)})

    return bucket_keyed_fold(
        ds.map_batches(_lengths, batch_format="pyarrow"),
        "status",
        {"total_len": ("sum", "length"), "n": ("count", None)},
    )


def _q_hac_dendrogram(sf_dir: str):
    """Hierarchical clustering over the flat k-means partition (the
    BIRCH-style scalable HAC recipe): corpus collapses to 8 cell
    centroids via ONE streamed int64-micro scatter-add pass, exact
    complete-linkage dendrogram on the bounded set — floats never
    cross partials (pipelines/similarity.py:hac_over_kmeans).  Golden
    oracle: sequential full-matrix mirror over shared kernels."""
    import ray.data

    from dots_ocr_ray.pipelines.similarity import hac_over_kmeans

    ds = ray.data.read_parquet(
        f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"]
    )
    return hac_over_kmeans(ds, n_clusters=8)


def _q_negative_samples(sf_dir: str):
    """Deterministic word2vec negative sampling: k=5 draws per corpus
    token from the unigram^0.75 noise distribution — 48-bit md5
    uniforms, pure-integer target arithmetic, broadcast cumulative
    table (pipelines/text_analysis.py:negative_samples).  SQL oracle:
    window cumsum + interval-containment join."""
    import ray.data

    from dots_ocr_ray.pipelines.text_analysis import negative_samples

    docs = ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=["text"])
    return negative_samples(docs, k=5)


def _q_kn_bigram_probs(sf_dir: str):
    """Interpolated Kneser-Ney bigram probabilities for the top-50
    corpus bigrams (continuation-count smoothing the add-k LM can't
    express); d=3/4 makes the whole estimate INTEGER arithmetic
    (pipelines/text_analysis.py:kn_bigram_probs).  SQL oracle: bigram
    self-join counts + HUGEINT mirror."""
    import ray.data

    from dots_ocr_ray.pipelines.text_analysis import kn_bigram_probs

    docs = ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=["text"])
    return kn_bigram_probs(docs, top_n=50)


def _q_coverage_select(sf_dir: str):
    """Greedy maximum-coverage selection of 8 docs over the word-
    bigram vocabulary (submodular (1−1/e) greedy — eval-set/lexicon
    seeding): k stateless streamed passes, covered-set broadcast
    bounded by the SELECTED docs' vocab, one partial row per batch
    (pipelines/curation.py:max_coverage_select).  Golden oracle:
    sequential dict greedy over the shared bigram-hash kernel."""
    import ray.data

    from dots_ocr_ray.pipelines.curation import max_coverage_select

    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    )
    return max_coverage_select(docs, k=8)


def _q_ri_orphan_events(sf_dir: str):
    """Referential-integrity audit: events whose user_id has no
    orders row (o_custkey) — the orphan check a pipeline runs before
    trusting an enrichment join; tiered exact anti-join + one count
    (pipelines/profile.py:ri_orphans).  SQL oracle: NOT IN count."""
    import ray.data

    from dots_ocr_ray.pipelines.profile import ri_orphans

    ev = ray.data.read_parquet(f"{sf_dir}/events.parquet", columns=["user_id"])
    orders = ray.data.read_parquet(f"{sf_dir}/orders.parquet", columns=["o_custkey"])
    return ri_orphans(
        ev, orders, child_key="user_id", parent_key="o_custkey",
        relation="events.user_id->orders.o_custkey",
    )


def _q_fd_check_lineitem(sf_dir: str):
    """Functional-dependency audit l_orderkey → l_suppkey over
    lineitem (does each order use one supplier? — profiling before a
    denormalization): distinct suppliers per order in one bucket
    exchange, two scalars per block to the driver
    (pipelines/profile.py:fd_violations).  SQL oracle:
    HAVING count(DISTINCT) > 1."""
    import ray.data

    from dots_ocr_ray.pipelines.profile import fd_violations

    li = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet", columns=["l_orderkey", "l_suppkey"]
    )
    return fd_violations(li, det_col="l_orderkey", dep_col="l_suppkey")


def _q_span_corrupted(sf_dir: str):
    """T5-style span corruption with no RNG: spans fire only at
    stride-aligned token slots (md5 rule), so the greedy sequential
    mask collapses to a position-local rule any corpus subset
    reproduces; zero exchange
    (pipelines/packing.py:span_corrupted_docs).  SQL oracle: windowed
    covered/cumulative-sentinel arithmetic over the token explode."""
    import ray.data

    from dots_ocr_ray.pipelines.packing import span_corrupted_docs

    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    )
    return span_corrupted_docs(docs)


def _q_dp_lang_counts(sf_dir: str):
    """ε-DP Laplace count release per language (seeded inverse-CDF
    noise from md5(key) — deterministic, reproducible, caveat
    documented at the kernel): bounded count fold + per-released-key
    noise (functions/scrub.py:dp_release_counts).  SQL oracle: same
    hex-derived uniform + one mirrored ln expression."""
    import ray.data

    from dots_ocr_ray.functions.scrub import dp_release_counts

    docs = ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=["lang"])
    return dp_release_counts(docs, key_col="lang")


def _q_phrase_search(sf_dir: str):
    """Exact phrase retrieval over a PERSISTED POSITIONAL inverted
    index: (token, doc_id, pos) postings bucketed by token; the query
    reads only its tokens' buckets (token-IN filter), one doc-keyed
    exchange, vectorized packed-key adjacency merge — overlap-safe
    match counts (pipelines/retrieval.py:phrase_search).  SQL oracle:
    token explode with ordinality self-joined on i+1."""
    import os

    import ray.data

    from dots_ocr_ray.pipelines.retrieval import build_positional_index, phrase_search

    base, built = _scratch_dir("posindex", sf_dir)
    if not built:
        docs = ray.data.read_parquet(
            f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
        )
        build_positional_index(docs, f"{base}/index", num_buckets=32)
        with open(os.path.join(base, "_complete"), "w") as f:
            f.write("ok")
    return phrase_search(f"{base}/index", "batch stream")


def _q_snm_dedup(sf_dir: str):
    """Sorted-neighborhood near-dup clustering (Hernández–Stolfo):
    normalized-prefix sort key, zipWithIndex ranks via the bucket-
    histogram idiom, window-group candidate pairs, shared exact-Jaccard
    verify, components (pipelines/dedup.py:snm_dedup).  Golden oracle:
    sequential sorted-window mirror over the same kernels."""
    import ray.data

    from dots_ocr_ray.pipelines.dedup import snm_dedup

    docs = ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    return snm_dedup(docs)


def _q_media_phash_dups(sf_dir: str):
    """Perceptual-hash near-dup clustering over REAL decoded pixels:
    every payload is a genuine PNG (`fixtures.media_png_payload` —
    planted near-identical group textures + text-pixel images), so the
    signature stage runs the full stdlib decode (zlib inflate + filter
    reconstruction + integer luma + area-mean 8×8 thumbnail) before
    the 64-bit average-hash, then the SHARED Hamming-radius core
    (pigeonhole blocks → bucket groupby → exact verify → components)
    behind SimHash text dedup (stages/media.py:phash64_png,
    pipelines/dedup.py:hash64_cluster).  Golden oracle: sequential
    mirror over the same pure kernels."""
    import pyarrow as pa

    import ray.data

    from dots_ocr_ray.fixtures import media_png_payload
    from dots_ocr_ray.pipelines.dedup import hash64_cluster
    from dots_ocr_ray.stages.media import phash64_png

    docs = ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"], override_num_blocks=32)
    # split the single-file read so the per-row PNG decode parallelizes

    def _sig(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_pylist()
        texts = batch.column("text").to_pylist()
        return pa.table(
            {
                "doc_id": batch.column("doc_id").cast(pa.int64()),
                "simhash": pa.array(
                    [phash64_png(media_png_payload(int(d), t)) for d, t in zip(ids, texts)],
                    type=pa.uint64(),
                ),
            }
        )

    sims = docs.map_batches(_sig, batch_format="pyarrow")
    out = hash64_cluster(
        docs.select_columns(["doc_id"]), sims, max_hamming=3, n_blocks=4
    )

    def _rename(batch: pa.Table) -> pa.Table:
        return batch.rename_columns(["media_id", "cluster_id"])

    return out.map_batches(_rename, batch_format="pyarrow")


def _q_video_keyframes(sf_dir: str):
    """REAL video frame grab under the SQL oracle: docs with
    ``doc_id % 6 == 2`` carry a genuine Y4M stream
    (`fixtures.video_y4m_payload` — ``1 + (doc_id//6) % 5`` frames of
    16×8 luma built from pure arithmetic), and the actor-pool stage
    parses the container for real (header, FRAME markers,
    chroma-offset plane slicing: `kernel/y4m.py:iter_y4m_luma`),
    sampling every 2nd frame with its exact integer mean luma.  The
    DuckDB oracle mirrors the pixel rule with generate_series sums —
    no golden, the frame grab is certified by ANSI SQL arithmetic."""
    import pyarrow as pa

    import ray.data

    from dots_ocr_ray.fixtures import VIDEO_MOD, VIDEO_REM, video_y4m_payload
    from dots_ocr_ray.stages.media import FrameSampleActor

    docs = ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id"])

    def _to_media(batch: pa.Table) -> pa.Table:
        ids = [int(d) for d in batch.column("doc_id").to_pylist() if d % VIDEO_MOD == VIDEO_REM]
        return pa.table(
            {
                "media_id": pa.array(ids, type=pa.int64()),
                "kind": pa.array(["video"] * len(ids), type=pa.string()),
                "payload": pa.array([video_y4m_payload(d) for d in ids], type=pa.binary()),
                "meta": pa.array(["{}"] * len(ids), type=pa.string()),
            }
        )

    def _frames(batch: pa.Table) -> pa.Table:
        # stateless container parse: task dispatch
        return FrameSampleActor(every_nth=2, fake_decode=False)(batch)

    media = docs.map_batches(_to_media, batch_format="pyarrow")
    frames = media.map_batches(_frames, batch_format="pyarrow", batch_size=64)
    return frames.select_columns(["media_id", "frame_idx", "mean_luma"])



def _sf_fingerprint(sf_dir: str, extra: str = "") -> str:
    """Content-aware cache tag for /tmp fixture dirs derived from a
    sf_dir: hashes the documents.parquet file SIZE + ROW COUNT +
    mtime alongside the path, so a regenerated testdata tree at the
    same path can never serve a stale fixture."""
    import hashlib as _hl
    import os as _os

    p = _os.path.join(sf_dir, "documents.parquet")
    try:
        st = _os.stat(p)
        import pyarrow.parquet as _pq

        n_rows = _pq.ParquetFile(p).metadata.num_rows
        ident = f"{_os.path.abspath(p)}:{st.st_size}:{int(st.st_mtime)}:{n_rows}:{extra}"
    except OSError:
        ident = f"{_os.path.abspath(p)}:missing:{extra}"
    return _hl.md5(ident.encode()).hexdigest()[:12]


def _q_warc_http_headers(sf_dir: str):
    """HTTP envelope parsing off REAL WARC bytes: each doc becomes a
    response record whose status line and Content-Type rotate by
    arithmetic (incl. a ``; charset=`` parameter the parser must
    strip), and the engine streams the records per shard task and
    parses the ACTUAL header blocks
    (sources/warc.py:parse_http_envelope) — the header half of the
    Common-Crawl ingest that `warc_extract_counts` exercises for
    bodies.  Oracle: the rotation arithmetic in SQL."""
    import hashlib
    import os
    import shutil

    import pyarrow as pa

    import ray
    import ray.data

    from dots_ocr_ray.sources.warc import make_warc_bytes

    tag = _sf_fingerprint(sf_dir, extra="http")
    warc_dir = f"/tmp/graft_warc_fixture/{tag}"
    done = os.path.join(warc_dir, "_DONE")
    statuses = (200, 301, 404, 503)
    ctypes = ("text/html", "text/html; charset=utf-8", "application/pdf", "text/plain")
    if not os.path.exists(done):
        shutil.rmtree(warc_dir, ignore_errors=True)
        os.makedirs(warc_dir, exist_ok=True)

        @ray.remote
        def _write_shard(shard: int) -> None:
            import pyarrow.parquet as pq_mod

            ids = sorted(
                int(d)
                for d in pq_mod.read_table(f"{sf_dir}/documents.parquet", columns=["doc_id"])
                .column("doc_id")
                .to_pylist()
                if d % 8 == shard
            )
            recs = [
                {
                    "url": f"https://example-{d % 40:02d}.com/doc-{d:06d}",
                    "date": "2025-01-01T00:00:00Z",
                    "html": b"x" * (10 + d % 50),
                    "status": statuses[(d // 6) % 4],
                    "ctype": ctypes[d % 4],
                }
                for d in ids
            ]
            with open(os.path.join(warc_dir, f"shard-{shard}.warc.gz"), "wb") as f:
                f.write(make_warc_bytes(recs, compress=True))

        ray.get([_write_shard.remote(s) for s in range(8)])
        with open(done, "w") as f:
            f.write("ok")

    import glob as globmod

    from dots_ocr_ray.util import file_sizes, packed_items

    paths = sorted(globmod.glob(os.path.join(warc_dir, "*.warc.gz")))
    work = packed_items([{"path": p} for p in paths], file_sizes(paths))

    def _headers(batch: pa.Table) -> pa.Table:
        from dots_ocr_ray.sources.warc import _open_warc, iter_warc_records, parse_http_envelope

        rows = []
        for path in batch.column("path").to_pylist():
            with _open_warc(path) as stream:
                for headers, block in iter_warc_records(stream):
                    if headers.get("warc-type") == "response":
                        rows.append(parse_http_envelope(block))
        status, ctype, body_len = zip(*rows) if rows else ((), (), ())
        return pa.table(
            {
                "status": pa.array(status, type=pa.int32()),
                "content_type": pa.array(ctype, type=pa.string()),
                "body_len": pa.array(body_len, type=pa.int64()),
            }
        )

    from dots_ocr_ray.util import bucket_keyed_fold

    return bucket_keyed_fold(
        work.map_batches(_headers, batch_format="pyarrow"),
        ["status", "content_type"],
        {"n": ("count", None), "body_bytes": ("sum", "body_len")},
    )


def _q_robots_txt_rules(sf_dir: str):
    """REAL robots.txt parsing (RFC 9309): each of the 40 fixture
    hosts serves a generated robots.txt — comments, a ``*`` group
    with Disallow + Crawl-delay + Sitemap, and for every third host a
    more specific ``GraftBot`` group (which must WIN outright, its
    empty ``Disallow:`` line contributing no rule) — and the engine
    parses the actual text per host in map_batches
    (functions/robots.py:parse_robots_txt).  Oracle: the grouping /
    precedence rules as generate_series arithmetic."""
    import pyarrow as pa

    import ray.data

    from dots_ocr_ray.functions.robots import parse_robots_txt

    hosts = ray.data.from_items([{"nn": nn} for nn in range(40)], override_num_blocks=8)

    def _robots_text(nn: int) -> str:
        lines = [
            "# crawl policy",
            "User-agent: *",
            f"Disallow: /private-{nn % 5}/",
            f"Crawl-delay: {1 + nn % 4}",
            f"Sitemap: https://example-{nn:02d}.com/sitemap.xml",
            "",
        ]
        if nn % 3 == 0:
            lines += [
                "User-agent: GraftBot",
                f"Disallow: /doc-00{nn % 10}",
                f"Allow: /doc-00{nn % 10}0",
                "Disallow:",  # empty value: no rule (must be skipped)
                "",
            ]
        return "\n".join(lines)

    def _parse(batch: pa.Table) -> pa.Table:
        host_out, prefix_out, allow_out, delay_out, idx_out = [], [], [], [], []
        for nn in batch.column("nn").to_pylist():
            nn = int(nn)
            parsed = parse_robots_txt(_robots_text(nn), agent="graftbot")
            delay = parsed["crawl_delay"]
            for i, (prefix, allow) in enumerate(parsed["rules"]):
                host_out.append(f"example-{nn:02d}.com")
                prefix_out.append(prefix)
                allow_out.append(allow)
                delay_out.append(-1 if delay is None else delay)
                idx_out.append(i)
        return pa.table(
            {
                "host": pa.array(host_out, type=pa.string()),
                "rule_idx": pa.array(idx_out, type=pa.int32()),
                "prefix": pa.array(prefix_out, type=pa.string()),
                "allow": pa.array(allow_out, type=pa.bool_()),
                "crawl_delay": pa.array(delay_out, type=pa.int64()),
            }
        )

    return hosts.map_batches(_parse, batch_format="pyarrow")


def _q_charset_counts(sf_dir: str):
    """Encoding sniffing over raw page bytes (the S4 fetch/normalize
    seam's charset half): docs plant a rotation of real declarations —
    ``doc_id % 19 == 6`` a UTF-16LE BOM (which must WIN over any meta
    tag per the sniffing precedence), ``doc_id % 7 == 4`` a
    ``<meta charset>`` rotating 4 labels incl. an alias the kernel
    must normalize — and the engine runs the simplified WHATWG sniff
    (kernel/html_parse.py:sniff_charset) on genuine bytes.  Oracle:
    the precedence rule as CASE arithmetic."""
    import pyarrow as pa

    import ray.data

    from dots_ocr_ray.kernel.html_parse import sniff_charset
    from dots_ocr_ray.util import bucket_keyed_fold

    labels = ("utf-8", "ISO-8859-1", "windows-1251", "GBK")
    docs = ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id"])

    def _sniff(batch: pa.Table) -> pa.Table:
        out = []
        for d in batch.column("doc_id").to_pylist():
            d = int(d)
            body = b"<html><head>"
            if d % 7 == 4:
                body += (
                    '<meta charset="%s">' % labels[(d // 7) % 4]
                ).encode("ascii")
            body += b"</head><body><p>x</p></body></html>"
            if d % 19 == 6:
                body = b"\xff\xfe" + body
            out.append(sniff_charset(body))
        return pa.table({"charset": pa.array(out, type=pa.string())})

    return bucket_keyed_fold(docs.map_batches(_sniff, batch_format="pyarrow"), "charset", {"n": ("count", None)})


def _q_sitemap_urls(sf_dir: str):
    """Crawl-frontier ingestion from REAL sitemap XML: the documents
    table is serialized as a gzipped ``<sitemapindex>`` + 4 shard
    ``<urlset>`` files (one Ray task per shard file, cached in /tmp),
    and the engine must genuinely parse the protocol — index
    expansion, W3C lastmod dates, priority validation (an out-of-range
    planted priority must become NULL) — via
    `sources/sitemap.py:read_sitemap`.  Every field is doc_id
    arithmetic, so the oracle is pure ANSI SQL."""
    import hashlib
    import os
    import shutil

    import pyarrow as pa

    import ray
    import ray.data

    from dots_ocr_ray.sources.sitemap import make_sitemap_bytes, read_sitemap

    tag = _sf_fingerprint(sf_dir, extra="sitemap")
    sm_dir = f"/tmp/graft_sitemap_fixture/{tag}"
    done = os.path.join(sm_dir, "_DONE")
    freqs = ("daily", "weekly", "monthly", "never")
    if not os.path.exists(done):
        shutil.rmtree(sm_dir, ignore_errors=True)
        os.makedirs(sm_dir, exist_ok=True)

        @ray.remote
        def _write_shard(shard: int) -> None:
            import pyarrow.parquet as pq_mod

            ids = sorted(
                int(d)
                for d in pq_mod.read_table(f"{sf_dir}/documents.parquet", columns=["doc_id"])
                .column("doc_id")
                .to_pylist()
                if d % 4 == shard
            )
            entries = []
            for d in ids:
                day = 1 + d % 28
                month = 1 + (d // 28) % 12
                entries.append(
                    {
                        "url": f"https://example-{d % 40:02d}.com/doc-{d:06d}",
                        "lastmod": f"2025-{month:02d}-{day:02d}",
                        "changefreq": freqs[(d // 7) % 4],
                        # doc_id % 29 == 3 plants an out-of-range
                        # priority the parser must reject to NULL
                        "priority": "2.5" if d % 29 == 3 else f"{(d % 11) / 10:.1f}",
                    }
                )
            with open(os.path.join(sm_dir, f"urls-{shard}.xml.gz"), "wb") as f:
                f.write(make_sitemap_bytes(entries, compress=True))

        ray.get([_write_shard.remote(s) for s in range(4)])
        index = make_sitemap_bytes(
            [{"loc": f"https://example.com/urls-{s}.xml.gz"} for s in range(4)], index=True
        )
        with open(os.path.join(sm_dir, "sitemap-index.xml"), "wb") as f:
            f.write(index)
        with open(done, "w") as f:
            f.write("ok")

    return read_sitemap(os.path.join(sm_dir, "sitemap-index.xml"))


def _q_layout_blocks(sf_dir: str):
    """SCANNED-PAGE layout analysis for real: each doc renders a
    synthetic page IMAGE (solid content rectangles — a wide title bar
    and a 1-or-2-column body grid placed by doc_id arithmetic),
    PNG-encodes it with rotating scanline filters, and the engine must
    genuinely decode the pixels and run recursive XY-cut on ink
    projection profiles (kernel/layout_detect.py:detect_blocks — the
    classic published block-segmentation algorithm standing in for the
    reference's layout model) to recover every block's EXACT tight
    bbox, classify it by the pure geometry heuristic, and order
    reading-wise.  Oracle: the paint rule's coordinates + rank
    arithmetic in ANSI SQL — detection is certified pixel-exact."""
    import numpy as np
    import pyarrow as pa

    import ray.data

    from dots_ocr_ray.kernel.layout_detect import classify_block, detect_blocks
    from dots_ocr_ray.kernel.png import decode_png, encode_png, gray_from_pixels

    W, H = 256, 192

    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id"], override_num_blocks=32
    )

    def _paint(d: int) -> np.ndarray:
        img = np.full((H, W), 255, np.uint8)
        img[8:24, 32:224] = 60  # title bar
        n = 1 + d % 4
        if n <= 2:
            for j in range(n):
                y = 48 + j * 44
                img[y : y + 32, 16:240] = 60
        else:
            for j in range(n):
                x0 = 16 if j % 2 == 0 else 140
                y = 48 + (j // 2) * 44
                img[y : y + 32, x0 : x0 + 100] = 60
        return img

    def _detect(batch: pa.Table) -> pa.Table:
        doc_out, rank_out, cat_out = [], [], []
        x1o, y1o, x2o, y2o = [], [], [], []
        for d in batch.column("doc_id").to_pylist():
            d = int(d)
            payload = encode_png(_paint(d), filter_mode="cover")  # real bytes
            gray = gray_from_pixels(decode_png(payload))  # real decode
            for rank, bbox in enumerate(detect_blocks(gray)):
                doc_out.append(d)
                rank_out.append(rank)
                cat_out.append(classify_block(bbox, W, H))
                x1o.append(bbox[0])
                y1o.append(bbox[1])
                x2o.append(bbox[2])
                y2o.append(bbox[3])
        return pa.table(
            {
                "doc_id": pa.array(doc_out, type=pa.int64()),
                "rank_ro": pa.array(rank_out, type=pa.int32()),
                "category": pa.array(cat_out, type=pa.string()),
                "x1": pa.array(x1o, type=pa.int32()),
                "y1": pa.array(y1o, type=pa.int32()),
                "x2": pa.array(x2o, type=pa.int32()),
                "y2": pa.array(y2o, type=pa.int32()),
            }
        )

    return docs.map_batches(_detect, batch_format="pyarrow")


def _q_scanned_page_ocr(sf_dir: str):
    """END-TO-END scanned-page TEXT recovery: each doc renders a
    two-line page image in the fixed-pitch glyph set ("DOC <id>" /
    "LANG <lang>"), PNG-encodes it with rotating filters, and the
    engine must decode the pixels, segment lines (projection XY-cut
    with the above-word-gap threshold) and template-read every
    character cell (kernel/glyphs.py — the classic pre-neural OCR
    baseline standing in for the reference's VLM).  The recovered
    STRINGS are the output, so a single mis-sliced pixel fails the
    hash.  Oracle: string arithmetic in ANSI SQL."""
    import numpy as np
    import pyarrow as pa

    import ray.data

    from dots_ocr_ray.kernel.glyphs import ocr_page_lines, render_text_line
    from dots_ocr_ray.kernel.png import decode_png, encode_png, gray_from_pixels

    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "lang"], override_num_blocks=32
    )

    def _ocr(batch: pa.Table) -> pa.Table:
        doc_out, idx_out, text_out = [], [], []
        for d, lang in zip(
            batch.column("doc_id").to_pylist(), batch.column("lang").to_pylist()
        ):
            d = int(d)
            lines = [f"DOC {d:06d}", f"LANG {(lang or '').upper()}"]
            page = np.full((36, 140), 255, np.uint8)
            for i, text in enumerate(lines):
                ink = render_text_line(text)
                y = 4 + i * 16  # 16-row line pitch: >= 8 blank rows between
                page[y : y + ink.shape[0], 4 : 4 + ink.shape[1]][ink] = 0
            payload = encode_png(page, filter_mode="cover")  # real bytes
            got = ocr_page_lines(gray_from_pixels(decode_png(payload)))
            for i, text in enumerate(got):
                doc_out.append(d)
                idx_out.append(i)
                text_out.append(text)
        return pa.table(
            {
                "doc_id": pa.array(doc_out, type=pa.int64()),
                "line_idx": pa.array(idx_out, type=pa.int32()),
                "ocr_text": pa.array(text_out, type=pa.string()),
            }
        )

    return docs.map_batches(_ocr, batch_format="pyarrow")


def _q_scanned_page_markdown(sf_dir: str):
    """The FULL reference pipeline shape on a scanned page, composed
    from the real kernels end-to-end: render a page image (wide title
    line + 1-3 body lines of glyph text), PNG-encode, then decode the
    pixels → segment blocks (projection XY-cut) → classify by the
    geometry heuristic (the title line is the only block wide enough)
    → template-OCR each block → serialize the spans with the SAME
    layout-to-markdown kernel the HTML path uses
    (kernel/serialize.py:spans_to_markdown — the reference's
    layoutjson2md).  Output is the final markdown string + the
    detected category sequence, both mirrored by string arithmetic in
    SQL — one wrong pixel, slice, class or join fails the hash."""
    import numpy as np
    import pyarrow as pa

    import ray.data

    from dots_ocr_ray.kernel.glyphs import ocr_page_lines, render_text_line
    from dots_ocr_ray.kernel.layout_detect import classify_block, detect_blocks
    from dots_ocr_ray.kernel.png import decode_png, encode_png, gray_from_pixels
    from dots_ocr_ray.kernel.serialize import spans_to_markdown

    W, H = 168, 72  # 4 glyph lines at 16-row pitch fit with margins

    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id"], override_num_blocks=32
    )

    def _render(d: int) -> np.ndarray:
        lines = [f"TITLE OF DOCUMENT {d:06d}"] + [
            f"BODY {j} {d % 1000}" for j in range(1 + d % 3)
        ]
        page = np.full((H, W), 255, np.uint8)
        for i, text in enumerate(lines):
            ink = render_text_line(text)
            y = 2 + i * 16
            page[y : y + ink.shape[0], 2 : 2 + ink.shape[1]][ink] = 0
        return page

    def _pipeline(batch: pa.Table) -> pa.Table:
        doc_out, md_out, cat_out = [], [], []
        for d in batch.column("doc_id").to_pylist():
            d = int(d)
            payload = encode_png(_render(d), filter_mode="cover")
            gray = gray_from_pixels(decode_png(payload))
            spans = []
            for bbox in detect_blocks(gray, min_gap=8):
                x1, y1, x2, y2 = bbox
                text = "\n".join(ocr_page_lines(gray[y1:y2, x1:x2], min_gap=8))
                spans.append(
                    {
                        "category": classify_block(bbox, W, H),
                        "bbox": list(bbox),
                        "text": text,
                    }
                )
            doc_out.append(d)
            md_out.append(spans_to_markdown(spans))
            cat_out.append("|".join(s["category"] for s in spans))
        return pa.table(
            {
                "doc_id": pa.array(doc_out, type=pa.int64()),
                "markdown": pa.array(md_out, type=pa.string()),
                "categories": pa.array(cat_out, type=pa.string()),
            }
        )

    return docs.map_batches(_pipeline, batch_format="pyarrow")


def _q_scan_page_tables(sf_dir: str):
    """The library scan pipeline's TABLE branch under the oracle:
    pages carry a wide title line plus a ruled 3×2 table whose cell
    contents are doc arithmetic, and `pipelines/scan.py:scan_pages`
    must classify the grid block as Table and serialize its
    template-OCR'd cells as pipe-markdown rows inside the page
    markdown.  Oracle: the full markdown string in SQL."""
    import numpy as np
    import pyarrow as pa

    import ray.data

    from dots_ocr_ray.kernel.glyphs import render_text_line
    from dots_ocr_ray.kernel.png import encode_png
    from dots_ocr_ray.pipelines.scan import scan_pages

    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id"], override_num_blocks=32
    )

    def _to_media(batch: pa.Table) -> pa.Table:
        ids, payloads = [], []
        for d in batch.column("doc_id").to_pylist():
            d = int(d)
            page = np.full((72, 170), 255, np.uint8)
            t_ink = render_text_line(f"TITLE OF DOCUMENT {d:06d}")
            page[2:9, 12 : 12 + t_ink.shape[1]][t_ink] = 0
            y0, x0 = 20, 12
            for i in range(4):
                page[y0 + i * 12, x0 : x0 + 131] = 0
            for j in range(3):
                page[y0 : y0 + 37, x0 + j * 65] = 0
            texts = {
                (0, 0): "ID",
                (0, 1): "VAL",
                (1, 0): "1",
                (1, 1): str(d % 100),
                (2, 0): "2",
                (2, 1): str((d * 3) % 100),
            }
            for (r, c), t in texts.items():
                ink = render_text_line(t)
                page[
                    y0 + r * 12 + 3 : y0 + r * 12 + 10,
                    x0 + c * 65 + 3 : x0 + c * 65 + 3 + ink.shape[1],
                ][ink] = 0
            payloads.append(encode_png(page, filter_mode="cover"))
            ids.append(d)
        return pa.table(
            {
                "doc_id": pa.array(ids, type=pa.int64()),
                "payload": pa.array(payloads, type=pa.binary()),
            }
        )

    out = scan_pages(docs.map_batches(_to_media, batch_format="pyarrow"), deskew=False)
    return out.select_columns(["doc_id", "status", "n_blocks", "markdown"])


def _q_scan_page_pictures(sf_dir: str):
    """The scan pipeline's PICTURE branch: pages carry a title, a
    dense dithered figure region (checkerboard ink no glyph matches),
    and a body line — the pipeline must classify the figure as
    Picture and serialize it as the reference's EMPTY markdown item
    (format_transformer.py:141-179: an undescribed Picture still
    contributes an item, so the page markdown contains the
    `\\n\\n\\n\\n` double-join).  Oracle: the exact markdown string,
    byte-subtlety included, in SQL."""
    import numpy as np
    import pyarrow as pa

    import ray.data

    from dots_ocr_ray.kernel.glyphs import render_text_line
    from dots_ocr_ray.kernel.png import encode_png
    from dots_ocr_ray.pipelines.scan import scan_pages

    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id"], override_num_blocks=32
    )

    def _to_media(batch: pa.Table) -> pa.Table:
        ids, payloads = [], []
        for d in batch.column("doc_id").to_pylist():
            d = int(d)
            page = np.full((72, 170), 255, np.uint8)
            t = render_text_line(f"TITLE OF DOCUMENT {d:06d}")
            page[2:9, 12 : 12 + t.shape[1]][t] = 0
            pw = 60 + d % 40  # figure width varies per doc
            yy, xx = np.mgrid[20:44, 12 : 12 + pw]
            page[20:44, 12 : 12 + pw][(yy + xx) % 2 == 0] = 40
            b = render_text_line(f"BODY 0 {d % 1000}")
            page[52:59, 12 : 12 + b.shape[1]][b] = 0
            payloads.append(encode_png(page, filter_mode="cover"))
            ids.append(d)
        return pa.table(
            {
                "doc_id": pa.array(ids, type=pa.int64()),
                "payload": pa.array(payloads, type=pa.binary()),
            }
        )

    out = scan_pages(docs.map_batches(_to_media, batch_format="pyarrow"), deskew=False)

    def _final(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc  # noqa: F401

        cats = [
            "|".join(s["category"] for s in spans)
            for spans in batch.column("spans").to_pylist()
        ]
        return pa.table(
            {
                "doc_id": batch.column("doc_id"),
                "categories": pa.array(cats, type=pa.string()),
                "markdown": batch.column("markdown"),
            }
        )

    return out.map_batches(_final, batch_format="pyarrow")


def _q_scanned_table_cells(sf_dir: str):
    """Table-STRUCTURE recognition on pixels (the reference's Table
    category, dots.ocr schema): each doc renders a ruled table image —
    1-px grid lines, ``2 + d%3`` data rows × 2 columns, glyph cell
    contents from arithmetic — and the engine must find the rule
    lines by projection coverage, slice the cell interiors, and
    template-OCR every cell
    (kernel/layout_detect.py:read_table_cells).  Oracle: the cell
    arithmetic in SQL; any mis-detected line or mis-sliced cell
    changes a string."""
    import numpy as np
    import pyarrow as pa

    import ray.data

    from dots_ocr_ray.kernel.glyphs import render_text_line
    from dots_ocr_ray.kernel.layout_detect import read_table_cells
    from dots_ocr_ray.kernel.png import decode_png, encode_png, gray_from_pixels

    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id"], override_num_blocks=32
    )

    def _cells(batch: pa.Table) -> pa.Table:
        doc_out, r_out, c_out, t_out = [], [], [], []
        for d in batch.column("doc_id").to_pylist():
            d = int(d)
            n_rows = 3 + d % 3  # header + 2..4 data rows
            img = np.full((1 + n_rows * 12, 1 + 2 * 65), 255, np.uint8)
            for i in range(n_rows + 1):
                img[i * 12, :] = 0
            for j in range(3):
                img[:, j * 65] = 0
            texts = {(0, 0): "ID", (0, 1): "VAL"}
            for r in range(1, n_rows):
                texts[(r, 0)] = str(r)
                texts[(r, 1)] = str((d + r * 7) % 100)
            for (r, c), t in texts.items():
                ink = render_text_line(t)
                y = r * 12 + 3
                x = c * 65 + 3
                img[y : y + 7, x : x + ink.shape[1]][ink] = 0
            payload = encode_png(img, filter_mode="cover")
            for r, c, t in read_table_cells(gray_from_pixels(decode_png(payload))):
                doc_out.append(d)
                r_out.append(r)
                c_out.append(c)
                t_out.append(t)
        return pa.table(
            {
                "doc_id": pa.array(doc_out, type=pa.int64()),
                "row": pa.array(r_out, type=pa.int32()),
                "col": pa.array(c_out, type=pa.int32()),
                "cell_text": pa.array(t_out, type=pa.string()),
            }
        )

    return docs.map_batches(_cells, batch_format="pyarrow")


def _q_scan_pipeline(sf_dir: str):
    """The LIBRARY scanned-page pipeline (pipelines/scan.py:scan_pages
    — the `dots_ocr_ray scan` CLI's engine) under the oracle: skewed
    glyph pages go in as media rows, and the full stage chain (decode
    → deskew → segment → classify → OCR → spans+markdown) must emit
    the exact status/skew/block-count/markdown the paint rule
    predicts.  Unlike `scanned_page_markdown` (a bespoke composition)
    this certifies the REUSABLE pipeline itself."""
    import numpy as np
    import pyarrow as pa

    import ray.data

    from dots_ocr_ray.kernel.glyphs import render_text_line
    from dots_ocr_ray.kernel.layout_detect import shear_rows
    from dots_ocr_ray.kernel.png import encode_png
    from dots_ocr_ray.pipelines.scan import scan_pages

    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id"], override_num_blocks=32
    )

    def _to_media(batch: pa.Table) -> pa.Table:
        ids, payloads = [], []
        for d in batch.column("doc_id").to_pylist():
            d = int(d)
            page = np.full((72, 170), 255, np.uint8)
            lines = [f"TITLE OF DOCUMENT {d:06d}", f"BODY 0 {d % 1000}"]
            for i, text in enumerate(lines):
                ink = render_text_line(text)
                page[2 + i * 16 : 9 + i * 16, 12 : 12 + ink.shape[1]][ink] = 0
            payloads.append(
                encode_png(shear_rows(page, d % 5 - 2), filter_mode="cover")
            )
            ids.append(d)
        return pa.table(
            {
                "doc_id": pa.array(ids, type=pa.int64()),
                "payload": pa.array(payloads, type=pa.binary()),
            }
        )

    out = scan_pages(docs.map_batches(_to_media, batch_format="pyarrow"))
    return out.select_columns(["doc_id", "status", "skew_px", "n_blocks", "markdown"])


def _q_noisy_page_ocr(sf_dir: str):
    """Scan-noise-tolerant OCR: the same two-line glyph pages as
    `scanned_page_ocr`, but every glyph is DEGRADED by up to two
    deterministic pixel flips (corner pins remapped so the line
    bounding box stays stable) before PNG encoding — exact template
    lookup now fails on most cells, and the engine must recover the
    text through the minimum-Hamming-distance classifier
    (kernel/glyphs.py:read_text_line(max_err=3); the glyph set's
    minimum pairwise distance is 7, so ≤3-bit noise decodes
    guaranteed-correct).  Oracle: the same string arithmetic — noise
    must change NOTHING."""
    import numpy as np
    import pyarrow as pa

    import ray.data

    from dots_ocr_ray.kernel.glyphs import GLYPH_H, GLYPH_W, PITCH, ocr_page_lines, render_text_line
    from dots_ocr_ray.kernel.png import decode_png, encode_png, gray_from_pixels

    _REMAP = {0: 17, 30: 18, 4: 16, 34: 19}  # corner pins stay inked

    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "lang"], override_num_blocks=32
    )

    def _ocr(batch: pa.Table) -> pa.Table:
        doc_out, idx_out, text_out = [], [], []
        for d, lang in zip(
            batch.column("doc_id").to_pylist(), batch.column("lang").to_pylist()
        ):
            d = int(d)
            lines = [f"DOC {d:06d}", f"LANG {(lang or '').upper()}"]
            page = np.full((36, 140), 255, np.uint8)
            for i, text in enumerate(lines):
                ink = render_text_line(text).copy()
                for p, ch in enumerate(text):
                    if ch == " ":
                        continue
                    for j in range((d + i + p) % 3):
                        pos = (d * 31 + p * 13 + j * 11) % 35
                        pos = _REMAP.get(pos, pos)
                        r, c = divmod(pos, GLYPH_W)
                        cc = p * PITCH + c
                        ink[r, cc] = not ink[r, cc]
                y = 4 + i * 16
                page[y : y + GLYPH_H, 4 : 4 + ink.shape[1]][ink] = 0
                page[y : y + GLYPH_H, 4 : 4 + ink.shape[1]][~ink] = 255
            payload = encode_png(page, filter_mode="cover")
            got = ocr_page_lines(gray_from_pixels(decode_png(payload)), max_err=3)
            for i, text in enumerate(got):
                doc_out.append(d)
                idx_out.append(i)
                text_out.append(text)
        return pa.table(
            {
                "doc_id": pa.array(doc_out, type=pa.int64()),
                "line_idx": pa.array(idx_out, type=pa.int32()),
                "ocr_text": pa.array(text_out, type=pa.string()),
            }
        )

    return docs.map_batches(_ocr, batch_format="pyarrow")


def _q_page_deskew(sf_dir: str):
    """Scan deskew for real: each doc's glyph page is SHEARED by a
    planted integer skew ``k = doc_id % 5 − 2`` before PNG encoding,
    and the engine must estimate k from the pixels alone
    (kernel/layout_detect.py:detect_shear — projection-profile
    variance maximization, the classic Baird-family method), invert
    the shear exactly, and template-OCR the RESTORED title line — so
    the output certifies estimation AND restoration in one string.
    Oracle: the planted-k and title-string arithmetic in SQL."""
    import numpy as np
    import pyarrow as pa

    import ray.data

    from dots_ocr_ray.kernel.glyphs import ocr_page_lines, render_text_line
    from dots_ocr_ray.kernel.layout_detect import detect_shear, shear_rows
    from dots_ocr_ray.kernel.png import decode_png, encode_png, gray_from_pixels

    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id"], override_num_blocks=32
    )

    def _deskew(batch: pa.Table) -> pa.Table:
        doc_out, k_out, title_out = [], [], []
        for d in batch.column("doc_id").to_pylist():
            d = int(d)
            page = np.full((72, 170), 255, np.uint8)
            lines = [f"TITLE OF DOCUMENT {d:06d}", f"BODY 0 {d % 1000}", f"BODY 1 {d % 1000}"]
            for i, text in enumerate(lines):
                ink = render_text_line(text)
                page[2 + i * 16 : 9 + i * 16, 12 : 12 + ink.shape[1]][ink] = 0
            k_true = d % 5 - 2
            payload = encode_png(shear_rows(page, k_true), filter_mode="cover")
            gray = gray_from_pixels(decode_png(payload))
            k_est = detect_shear(gray, k_range=2)
            restored = shear_rows(gray, k_est, invert=True)
            got = ocr_page_lines(restored, min_gap=8)
            doc_out.append(d)
            k_out.append(k_est)
            title_out.append(got[0] if got else "")
        return pa.table(
            {
                "doc_id": pa.array(doc_out, type=pa.int64()),
                "skew_px": pa.array(k_out, type=pa.int32()),
                "title": pa.array(title_out, type=pa.string()),
            }
        )

    return docs.map_batches(_deskew, batch_format="pyarrow")


def _q_sitemap_gap(sf_dir: str):
    """Frontier gap analysis: urls DECLARED in the (real, parsed)
    sitemap fixture but never crawled.  The declared side re-reads and
    re-parses the `sitemap_urls` XML shards; the crawled side is the
    corpus minus the planted-uncrawled docs (``doc_id % 9 == 5``);
    both sides key by a 63-bit url hash and the filter runs the EXACT
    anti-join (pipelines/dedup.py:anti_join_ids — hash_join's sorted
    broadcast when the keys fit, one keyed exchange above).  Oracle:
    the membership arithmetic in SQL."""
    import pyarrow as pa

    import ray.data

    from dots_ocr_ray.pipelines.dedup import anti_join_ids

    declared = _q_sitemap_urls(sf_dir)

    crawled = ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id"])

    def _crawled_urls(batch: pa.Table) -> pa.Table:
        ids = [int(d) for d in batch.column("doc_id").to_pylist() if d % 9 != 5]
        return pa.table(
            {
                "url_key": pa.array(
                    [hash_url(f"https://example-{d % 40:02d}.com/doc-{d:06d}") for d in ids],
                    type=pa.int64(),
                )
            }
        )

    def _keyed(batch: pa.Table) -> pa.Table:
        urls = batch.column("url").to_pylist()
        return pa.table(
            {
                "url": batch.column("url"),
                "url_key": pa.array([hash_url(u) for u in urls], type=pa.int64()),
            }
        )

    gap = anti_join_ids(
        declared.map_batches(_keyed, batch_format="pyarrow"),
        crawled.map_batches(_crawled_urls, batch_format="pyarrow"),
        id_col="url_key",
        id_cols=("url_key",),
    )
    return gap.select_columns(["url"])


def hash_url(url: str) -> int:
    """Deterministic 63-bit url key (blake2b) — the anti-join id for
    string keys (dedup.anti_join_ids takes int64 ids; 8 bytes a key
    beat shipping full urls through the join)."""
    import hashlib as _hashlib

    return int.from_bytes(
        _hashlib.blake2b(url.encode("utf-8"), digest_size=8).digest(), "big"
    ) >> 1


def _q_image_captions(sf_dir: str):
    """The describe-pool (A2) analog over REAL decoded pixels: docs
    with ``doc_id % 5 == 2`` (the IMAGE_MOD describe rule) carry a real
    PNG whose pixel field is pure arithmetic, and the caption stage
    must decode it (stdlib PNG tier) to report the exact dimensions
    and integer mean the caption embeds — a deterministic stand-in
    for the reference's InternVL captioner
    (app/utils/executor/ocr_task.py:150-203) whose output is
    certified row-by-row by generate_series SQL arithmetic."""
    import pyarrow as pa

    import ray.data

    from dots_ocr_ray.kernel.png import encode_png
    from dots_ocr_ray.stages.media import caption_image_real

    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id"], override_num_blocks=32
    )

    def _caption(batch: pa.Table) -> pa.Table:
        import numpy as np

        ids = [int(d) for d in batch.column("doc_id").to_pylist() if d % 5 == 2]
        captions = []
        for d in ids:
            w = 24 + d % 9
            h = 16 + d % 5
            y, x = np.mgrid[0:h, 0:w]
            img = ((7 * d + y * w + x) % 256).astype(np.uint8)
            captions.append(caption_image_real(encode_png(img, filter_mode="rotate")))
        return pa.table(
            {
                "doc_id": pa.array(ids, type=pa.int64()),
                "caption": pa.array(captions, type=pa.string()),
            }
        )

    return docs.map_batches(_caption, batch_format="pyarrow")


def _q_warc_extract_counts(sf_dir: str):
    """Common-Crawl-NATIVE extraction under the SQL oracle: the
    documents table is first serialized into real gzipped WARC shards
    (ISO 28500 response records, one gzip member each — 8 shards by
    doc_id, Ray task per shard, cached under /tmp), then the full
    WARC path runs for real — record parse, HTTP payload split,
    streaming gzip (sources/warc.py:read_warc) → streaming task extraction
    (pipelines/extract.py:extract_pages) → per-status rollup.  WARC
    records carry no crawler text column, so fallback-rule docs land
    in 'failed' — the oracle mirrors that with the same arithmetic as
    the extract_text rules."""
    import glob as globmod
    import hashlib
    import os
    import shutil

    import pyarrow as pa

    import ray
    import ray.data

    from dots_ocr_ray.fixtures import page_row_from_document
    from dots_ocr_ray.pipelines.extract import extract_pages
    from dots_ocr_ray.sources.warc import make_warc_bytes, read_warc
    from dots_ocr_ray.util import bucket_keyed_fold

    tag = _sf_fingerprint(sf_dir, extra="warc")
    warc_dir = f"/tmp/graft_warc_fixture/{tag}"
    done = os.path.join(warc_dir, "_DONE")
    if not os.path.exists(done):
        shutil.rmtree(warc_dir, ignore_errors=True)
        os.makedirs(warc_dir, exist_ok=True)

        @ray.remote
        def _write_shard(shard: int) -> None:
            import pyarrow.parquet as pq_mod

            tbl = pq_mod.read_table(
                f"{sf_dir}/documents.parquet", columns=["doc_id", "text", "lang"]
            )
            recs = []
            for d, t, lg in sorted(
                zip(
                    tbl.column("doc_id").to_pylist(),
                    tbl.column("text").to_pylist(),
                    tbl.column("lang").to_pylist(),
                )
            ):
                if d % 8 != shard:
                    continue
                row = page_row_from_document(int(d), t, lg)
                recs.append(
                    {"url": row["url"], "date": "2025-01-01T00:00:00Z", "html": row["html"]}
                )
            with open(os.path.join(warc_dir, f"shard-{shard}.warc.gz"), "wb") as f:
                f.write(make_warc_bytes(recs, compress=True))

        ray.get([_write_shard.remote(s) for s in range(8)])
        with open(done, "w") as f:
            f.write("ok")

    pages = read_warc(sorted(globmod.glob(os.path.join(warc_dir, "*.warc.gz"))))
    extracted = extract_pages(pages, batch_size=64)

    def _chars(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        lens = pc.utf8_length(pc.fill_null(batch.column("extracted_text"), ""))
        return pa.table({"status": batch.column("status"), "chars": lens})

    return bucket_keyed_fold(
        extracted.map_batches(_chars, batch_format="pyarrow"),
        "status",
        {"n_pages": ("count", None), "sum_chars": ("sum", "chars")},
    )


def _q_reading_order_sorted(sf_dir: str):
    """Geometric reading order for layout-mode (bbox) inputs: each doc
    presents its spans SCRAMBLED (span_id descending) with pixel
    bboxes — a full-width header over a two-column body grid — and
    the engine must recover column-aware reading order via the
    largest-gap recursive XY-cut kernel
    (kernel/geometry.py:reading_order — the deterministic counterpart
    of the reference's LayoutReader decode, reader_helper.py:89-121),
    including the identity-order fallback for docs planted with an
    inverted bbox (mirroring layout_service.py:232-235).  Oracle:
    pure rank arithmetic in ANSI SQL."""
    import pyarrow as pa

    import ray.data

    from dots_ocr_ray.kernel.geometry import reading_order

    docs = ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id"])

    def _rank(batch: pa.Table) -> pa.Table:
        doc_out, span_out, rank_out = [], [], []
        for d in batch.column("doc_id").to_pylist():
            d = int(d)
            n = 4 + 2 * (d % 3)
            # input order: span_id DESC (scrambled), so input position
            # of span s is n - s — the identity-fallback expectation
            span_ids = list(range(n, -1, -1))
            boxes = []
            for s in span_ids:
                if s == 0:
                    boxes.append([50, 20, 950, 80])  # full-width header
                else:
                    j = s - 1
                    x1 = 60 + (j % 2) * 480
                    y1 = 120 + (j // 2) * 110
                    boxes.append([x1, y1, x1 + 400, y1 + 90])
            if d % 13 == 4:
                # planted inverted bbox → kernel must fall back to
                # identity (input) order for the whole page
                boxes[0] = [boxes[0][2], boxes[0][3], boxes[0][0], boxes[0][1]]
            order = reading_order(boxes, 1000, 1000)
            for pos, inp_idx in enumerate(order):
                doc_out.append(d)
                span_out.append(span_ids[inp_idx])
                rank_out.append(pos)
        return pa.table(
            {
                "doc_id": pa.array(doc_out, type=pa.int64()),
                "span_id": pa.array(span_out, type=pa.int32()),
                "rank_ro": pa.array(rank_out, type=pa.int32()),
            }
        )

    return docs.map_batches(_rank, batch_format="pyarrow")


def _q_ucb_event_types(sf_dir: str):
    """UCB1 explore/exploit priorities per event type (the bandit
    scheduling rule a crawler uses to allocate fetches): exact integer
    cent partials + one mirrored float bonus expression
    (pipelines/profile.py:ucb_scores).  SQL oracle: same sufficient
    stats + sqrt/ln arithmetic."""
    import ray.data

    from dots_ocr_ray.pipelines.profile import ucb_scores

    ev = ray.data.read_parquet(f"{sf_dir}/events.parquet", columns=["event_type", "value"])
    return ucb_scores(ev, key_col="event_type", value_col="value")


def _q_ewma_daily_events(sf_dir: str):
    """Truncated-EWMA smoothing (α=1/2, 7 taps, integer weights) of
    each event type's zero-filled daily count series; shared
    calendar-bounded daily fold + vectorized shift-and-add, no window
    exchange (pipelines/profile.py:ewma_daily).  SQL oracle:
    generate_series zero-fill + bounded offset join with 1<<(6-j)
    weights."""
    import ray.data

    from dots_ocr_ray.pipelines.profile import ewma_daily

    ev = ray.data.read_parquet(f"{sf_dir}/events.parquet", columns=["ts", "event_type"])
    return ewma_daily(ev, ts_col="ts", key_col="event_type")


def _q_stemmed_vocab(sf_dir: str):
    """Stem-grouped vocabulary rollup: per-batch distinct-word
    memoized Porter stemming (the published 1980 algorithm as a pure
    kernel), one vocab-bounded pair groupby + one stem rollup, driver
    holds only the running top-20
    (pipelines/text_analysis.py:stemmed_vocab).  Golden oracle:
    sequential dict mirror over the same kernel."""
    import ray.data

    from dots_ocr_ray.pipelines.text_analysis import stemmed_vocab

    docs = ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=["text"])
    return stemmed_vocab(docs)


def _q_knn_outliers(sf_dir: str):
    """kNN-distance density outliers over embeddings: one streamed
    pass scoring every point against a broadcast 256-vector hash
    sample, per-batch local top-k partial + tiny driver merge
    (pipelines/similarity.py:knn_outliers).  Golden oracle: sequential
    full-matrix mirror over the shared micro-quantized kernel."""
    import ray.data

    from dots_ocr_ray.pipelines.similarity import knn_outliers

    ds = ray.data.read_parquet(
        f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"]
    )
    return knn_outliers(ds)


def _q_kcenter_prototypes(sf_dir: str):
    """Gonzalez greedy k-center coreset over the embedding corpus:
    k-1 stateless streamed passes, each folding every batch to one
    (max min-dist, tie -> min id) partial — diversity-first prototype
    selection with O(k·dim) driver state
    (pipelines/similarity.py:kcenter_greedy).  Golden oracle:
    sequential full-matrix mirror over the shared micro-quantized
    distance kernel."""
    import ray.data

    from dots_ocr_ray.pipelines.similarity import kcenter_greedy

    ds = ray.data.read_parquet(
        f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"]
    )
    return kcenter_greedy(ds, k=8)


def _q_mlm_masked(sf_dir: str):
    """Deterministic masked-LM example construction: token i of doc d
    masks iff md5(f"{d}:{i}")[0] < 0x26 (≈15%, position-keyed so any
    corpus subset reproduces identical masks); zero exchange
    (pipelines/packing.py:mlm_masked_docs).  SQL oracle: unnest +
    generate_subscripts + the same md5 hex-prefix rule."""
    import ray.data

    from dots_ocr_ray.pipelines.packing import mlm_masked_docs

    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    )
    return mlm_masked_docs(docs)


def _q_preference_pairs(sf_dir: str):
    """RLHF preference-pair construction: per (lang, source) group,
    the top-alpha-score doc (chosen, tie -> min id) paired with the
    bottom one (rejected, tie -> max id); bounded per-batch fold +
    tiny driver merge, zero exchange
    (pipelines/curation.py:preference_pairs).  SQL oracle: two QUALIFY
    row_number windows over the mirrored integer score."""
    import ray.data

    from dots_ocr_ray.pipelines.curation import preference_pairs

    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text", "lang", "source"]
    )
    return preference_pairs(docs)


def _q_part_affinity(sf_dir: str):
    """Market-basket association rules over (order, part) baskets:
    one bucket-keyed exchange co-locates each order's parts, pair
    emission vectorized per basket-size class, bounded rule table with
    integer-exact confidence/lift micros
    (pipelines/basket.py:association_rules).  SQL oracle: distinct
    self-join + integer-division mirror."""
    from dots_ocr_ray.pipelines.basket import part_affinity

    return part_affinity(sf_dir, min_support=2)


def queries() -> dict[str, Callable[[str], Any]]:
    return {
        # extraction (the flagship; SQL mirrors the deterministic wrapper)
        "extract_text": _q_extract_text,
        "extract_status_counts": _q_extract_status_counts,
        "extract_span_stats": _q_extract_span_stats,
        "describe_docs": _q_describe_docs,
        "template_strip": _q_template_strip,
        # dedup family
        "dedup_exact": _q_dedup_exact,
        "dedup_minhash": _q_dedup_minhash,
        "dedup_simhash": _q_dedup_simhash,
        "dedup_ngram": _q_dedup_ngram,
        "dedup_embedding": _q_dedup_embedding,
        "line_dedup_docs": _q_line_dedup_docs,
        "substring_dedup_docs": _q_substring_dedup_docs,
        "gram_novelty": _q_gram_novelty,
        "host_quality_shrunken": _q_host_quality_shrunken,
        "vocab_coverage": _q_vocab_coverage,
        "incremental_dedup": _q_incremental_dedup,
        "incremental_minhash": _q_incremental_minhash,
        "token_id_sample": _q_token_id_sample,
        "lang_source_cube": _q_lang_source_cube,
        "doc_validation": _q_doc_validation,
        "weighted_sample_docs": _q_weighted_sample_docs,
        "length_outliers": _q_length_outliers,
        "crawl_diff_docs": _q_crawl_diff_docs,
        "recrawl_priority": _q_recrawl_priority,
        "table_profile": _q_table_profile,
        "bpe_merges": _q_bpe_merges,
        "bpe_token_stats": _q_bpe_token_stats,
        "bpe_piece_vocab": _q_bpe_piece_vocab,
        "logreg_weights": _q_logreg_weights,
        "logreg_scores": _q_logreg_scores,
        "pca_components": _q_pca_components,
        "pca_projected": _q_pca_projected,
        "classifier_eval": _q_classifier_eval,
        "packed_by_pieces": _q_packed_by_pieces,
        "bigram_lm_scores": _q_bigram_lm_scores,
        "perplexity_buckets": _q_perplexity_buckets,
        "composite_quality_filter": _q_composite_quality_filter,
        "compression_ratios": _q_compression_ratios,
        "adaptive_length_filter": _q_adaptive_length_filter,
        # link-graph analytics
        "host_degrees": _q_host_degrees,
        "host_components": _q_host_components,
        "host_pagerank": _q_host_pagerank,
        "host_triangles": _q_host_triangles,
        "crawl_depths": _q_crawl_depths,
        "host_hits": _q_host_hits,
        "order_window_overlap": _q_order_window_overlap,
        "cdc_dedup_stats": _q_cdc_dedup_stats,
        "host_trustrank": _q_host_trustrank,
        "price_quantiles": _q_price_quantiles,
        "order_value_quantiles": _q_order_value_quantiles,
        "host_kcore": _q_host_kcore,
        "host_communities": _q_host_communities,
        "token_pmi": _q_token_pmi,
        "keyword_search": _q_keyword_search,
        "host_random_walks": _q_host_random_walks,
        "robots_allowed": _q_robots_allowed,
        "walk_skipgrams": _q_walk_skipgrams,
        "community_modularity": _q_community_modularity,
        "compact_roundtrip": _q_compact_roundtrip,
        "nb_lang_predictions": _q_nb_lang_predictions,
        "host_scc": _q_host_scc,
        "lang_stratified_sample": _q_lang_stratified_sample,
        "host_doc_gini": _q_host_doc_gini,
        "order_value_histogram": _q_order_value_histogram,
        "ann_ivf_persisted": _q_ann_ivf_persisted,
        "diverse_top_docs": _q_diverse_top_docs,
        "volume_shipping": _q_volume_shipping,
        "pseudonymized_events": _q_pseudonymized_events,
        "pii_scrub_audit": _q_pii_scrub_audit,
        "zipf_fit": _q_zipf_fit,
        "cluster_leak_split": _q_cluster_leak_split,
        "containment_pairs": _q_containment_pairs,
        "hybrid_retrieval": _q_hybrid_retrieval,
        "aligned_page_pairs": _q_aligned_page_pairs,
        "skipgram_cooc": _q_skipgram_cooc,
        "dedup_best_survivors": _q_dedup_best_survivors,
        "html_table_cells": _q_html_table_cells,
        "recrawl_window_dedup": _q_recrawl_window_dedup,
        "mad_outlier_scores": _q_mad_outlier_scores,
        "label_centroids": _q_label_centroids,
        "chars_range_pruned": _q_chars_range_pruned,
        "csv_roundtrip": _q_csv_roundtrip,
        "zorder_keys": _q_zorder_keys,
        "host_link_prediction": _q_host_link_prediction,
        "event_hourly_bars": _q_event_hourly_bars,
        "host_assortativity": _q_host_assortativity,
        "ipc_roundtrip": _q_ipc_roundtrip,
        "scd2_url_history": _q_scd2_url_history,
        "timetravel_v1": _q_timetravel_v1,
        "timetravel_v2": _q_timetravel_v2,
        "zorder_box_events": _q_zorder_box_events,
        "event_transitions": _q_event_transitions,
        "decayed_type_popularity": _q_decayed_type_popularity,
        "dedup_cluster_sizes": _q_dedup_cluster_sizes,
        "returned_revenue_by_customer": _q_returned_revenue_by_customer,
        "host_harmonic": _q_host_harmonic,
        "cms_token_counts": _q_cms_token_counts,
        "vocab_edit_pairs": _q_vocab_edit_pairs,
        "corpus_overlap": _q_corpus_overlap,
        # events analytics
        "cohort_retention": _q_cohort_retention,
        "daily_anomalies": _q_daily_anomalies,
        "user_activity_buckets": _q_user_activity_buckets,
        "regional_supplier_volume": _q_regional_supplier_volume,
        "bm25_scores": _q_bm25_scores,
        # similarity search
        "ann_topk": _q_ann_topk,
        "ann_lsh_topk": _q_ann_lsh_topk,
        "ann_ivf_topk": _q_ann_ivf_topk,
        "ann_pq_topk": _q_ann_pq_topk,
        "kmeans_clusters": _q_kmeans_clusters,
        "semdedup_docs": _q_semdedup_docs,
        "dsir_scores": _q_dsir_scores,
        "dsir_sample": _q_dsir_sample,
        "decontaminate_docs": _q_decontaminate_docs,
        "normalized_texts": _q_normalized_texts,
        "model_quality_scores": _q_model_quality_scores,
        # training-data prep
        "chunk_stats": _q_chunk_stats,
        "scrub_documents": _q_scrub_documents,
        "train_val_split": _q_train_val_split,
        "distinct_langs": _q_distinct_langs,
        "heavy_hitter_langs": _q_heavy_hitter_langs,
        # text analysis
        "token_stats": _q_token_stats,
        "quality_stats": _q_quality_stats,
        "lang_id_confusion": _q_lang_id,
        "fingerprint_dups": _q_fingerprint_dups,
        # multimodal plumbing
        "media_features": _q_media_features,
        # layout / document ops
        "extract_grounding": _q_extract_grounding,
        "extract_links": _q_extract_links,
        "crawl_frontier": _q_crawl_frontier,
        "frontier_schedule": _q_frontier_schedule,
        "inbound_anchors": _q_inbound_anchors,
        "term_contexts": _q_term_contexts,
        "host_reputation": _q_host_reputation,
        "host_templates": _q_host_templates,
        "extract_category_counts": _q_extract_category_counts,
        "crawl_dedup_latest": _q_crawl_dedup_latest,
        "domain_stats": _q_domain_stats,
        "merge_docs": _q_merge_docs,
        # relational / window / sampling / sort
        "orders_customer_join": _q_orders_customer_join,
        "shipping_priority": _q_shipping_priority,
        "events_pivot_daily": _q_events_pivot_daily,
        "event_funnel": _q_event_funnel,
        "bucketed_customer_orders": _q_bucketed_customer_orders,
        "lineitem_order_priority": _q_lineitem_order_priority,
        "supplier_stats": _q_supplier_stats,
        "part_stats": _q_part_stats,
        "part_affinity": _q_part_affinity,
        "preference_pairs": _q_preference_pairs,
        "mlm_masked": _q_mlm_masked,
        "kcenter_prototypes": _q_kcenter_prototypes,
        "knn_outliers": _q_knn_outliers,
        "stemmed_vocab": _q_stemmed_vocab,
        "ewma_daily_events": _q_ewma_daily_events,
        "ucb_event_types": _q_ucb_event_types,
        "media_phash_dups": _q_media_phash_dups,
        "video_keyframes": _q_video_keyframes,
        "reading_order_sorted": _q_reading_order_sorted,
        "warc_extract_counts": _q_warc_extract_counts,
        "image_captions": _q_image_captions,
        "sitemap_urls": _q_sitemap_urls,
        "sitemap_gap": _q_sitemap_gap,
        "layout_blocks": _q_layout_blocks,
        "scanned_page_ocr": _q_scanned_page_ocr,
        "scanned_page_markdown": _q_scanned_page_markdown,
        "page_deskew": _q_page_deskew,
        "noisy_page_ocr": _q_noisy_page_ocr,
        "scan_pipeline": _q_scan_pipeline,
        "scanned_table_cells": _q_scanned_table_cells,
        "scan_page_tables": _q_scan_page_tables,
        "scan_page_pictures": _q_scan_page_pictures,
        "charset_counts": _q_charset_counts,
        "robots_txt_rules": _q_robots_txt_rules,
        "warc_http_headers": _q_warc_http_headers,
        "snm_dedup": _q_snm_dedup,
        "phrase_search": _q_phrase_search,
        "dp_lang_counts": _q_dp_lang_counts,
        "span_corrupted": _q_span_corrupted,
        "fd_check_lineitem": _q_fd_check_lineitem,
        "ri_orphan_events": _q_ri_orphan_events,
        "coverage_select": _q_coverage_select,
        "kn_bigram_probs": _q_kn_bigram_probs,
        "negative_samples": _q_negative_samples,
        "hac_dendrogram": _q_hac_dendrogram,
        "cdx_status_counts": _q_cdx_status_counts,
        "postings_compression": _q_postings_compression,
        "bot_regularity": _q_bot_regularity,
        "event_trigrams": _q_event_trigrams,
        "kappa_lang_id": _q_kappa_lang_id,
        "jw_vocab_pairs": _q_jw_vocab_pairs,
        "quality_filter_docs": _q_quality_filter_docs,
        "docs_outside_blocklist": _q_docs_outside_blocklist,
        "nations_with_presence": _q_nations_with_presence,
        "approx_distinct_users": _q_approx_distinct_users,
        "reservoir_doc_sample": _q_reservoir_doc_sample,
        "chars_quantiles_approx": _q_chars_quantiles_approx,
        "top_tokens": _q_top_tokens,
        "tfidf_top_terms": _q_tfidf_top_terms,
        "contamination_check": _q_contamination_check,
        "top_bigrams": _q_top_bigrams,
        "repetition_stats": _q_repetition_stats,
        "mixture_rebalance": _q_mixture_rebalance,
        "temperature_mixture": _q_temperature_mixture,
        "approx_users_by_type": _q_approx_users_by_type,
        "ngram_diversity": _q_ngram_diversity,
        "fuzzy_vocab_match": _q_fuzzy_vocab_match,
        "shuffled_positions": _q_shuffled_positions,
        "packed_sequences": _q_packed_sequences,
        "grouped_split_docs": _q_grouped_split_docs,
        "canonical_urls": _q_canonical_urls,
        "token_postings": _q_token_postings,
        "stratified_sample": _q_stratified_sample,
        "sliding_events": _q_sliding_events,
        "window_distinct_users": _q_window_distinct_users,
        "user_event_seq": _q_user_event_seq,
        "event_gaps": _q_event_gaps,
        "nearby_events": _q_nearby_events,
        "longest_per_lang": _q_longest_per_lang,
        "chars_quantiles": _q_chars_quantiles,
        "sessionize": _q_sessionize,
        "asof_join": _q_asof_join,
        "sample_10pct": _q_sample_10pct,
        "longest_documents": _q_longest_documents,
        "events_props_agg": _q_events_props_agg,
        "pricing_summary": _q_pricing_summary,
        "orders_by_segment": _q_orders_by_segment,
        "windowed_events": _q_windowed_events,
        "top_customers": _q_top_customers,
        "customers_per_region": _q_customers_per_region,
        "customers_without_orders": _q_customers_without_orders,
        "acctbal_price_band": _q_acctbal_price_band,
        "len_quantiles_by_lang": _q_len_quantiles_by_lang,
        "tokens_per_char_regression": _q_tokens_per_char_regression,
        "doc_length_pct_rank": _q_doc_length_pct_rank,
        "lang_source_rollup": _q_lang_source_rollup,
        "jsonl_lang_counts": _q_jsonl_lang_counts,
        "drift_kl": _q_drift_kl,
        "drift_js": _q_drift_js,
        "token_burstiness": _q_token_burstiness,
        "k_anonymity": _q_k_anonymity,
        "lang_diversity": _q_lang_diversity,
        "late_events": _q_late_events,
        "lexicon_flags": _q_lexicon_flags,
        "bitext_mining": _q_bitext_mining,
        "isotonic_calibration": _q_isotonic_calibration,
        "sq8_recall": _q_sq8_recall,
        "host_cap_sample": _q_host_cap_sample,
        "epoch_schedule": _q_epoch_schedule,
        "schema_evolution": _q_schema_evolution,
        "bootstrap_ci": _q_bootstrap_ci,
        "trending_types": _q_trending_types,
        "skyline_orders": _q_skyline_orders,
        "mojibake_repair": _q_mojibake_repair,
        "script_mix": _q_script_mix,
        "hrw_assignment": _q_hrw_assignment,
        "orc_roundtrip": _q_orc_roundtrip,
        "winsorized_stats": _q_winsorized_stats,
        "host_betweenness": _q_host_betweenness,
        "interval_coverage": _q_interval_coverage,
        "nfkc_audit": _q_nfkc_audit,
        "readability_scores": _q_readability_scores,
        "jsonld_metadata": _q_jsonld_metadata,
        "host_failure_wilson": _q_host_failure_wilson,
        "extraction_f1": _q_extraction_f1,
        "url_templates": _q_url_templates,
        "card_scrub": _q_card_scrub,
        "shard_plan": _q_shard_plan,
        "robots_meta": _q_robots_meta,
        "dedup_eval": _q_dedup_eval,
        "welch_t": _q_welch_t,
        "benford_audit": _q_benford_audit,
        "host_reciprocity": _q_host_reciprocity,
        "price_quantity_corr": _q_price_quantity_corr,
        "chi2_lang_source": _q_chi2_lang_source,
        "mannwhitney_returned": _q_mannwhitney_returned,
        "spearman_qty_discount": _q_spearman_qty_discount,
        "small_qty_revenue": _q_small_qty_revenue,
        "large_volume_orders": _q_large_volume_orders,
        "waiting_suppliers": _q_waiting_suppliers,
        "dormant_rich_customers": _q_dormant_rich_customers,
        "token_entropy": _q_token_entropy,
        "acf_daily_events": _q_acf_daily_events,
        "ks_returned_qty": _q_ks_returned_qty,
        "cusum_daily_events": _q_cusum_daily_events,
        "deletion_vector_read": _q_deletion_vector_read,
        "hreflang_clusters": _q_hreflang_clusters,
        "neyman_alloc": _q_neyman_alloc,
        "redirect_chains": _q_redirect_chains,
        "crawl_budget": _q_crawl_budget,
        "wmedian_qty_by_flag": _q_wmedian_qty_by_flag,
        "theil_sources": _q_theil_sources,
        "fano_daily_events": _q_fano_daily_events,
        "silhouette_clusters": _q_silhouette_clusters,
    }


def oracle_sql() -> dict[str, str]:
    from dots_ocr_ray.pipelines.zorder import morton_sql_expr

    return {
        "extract_text": (
            f"SELECT doc_id, {_TEXT_SQL} AS extracted_text, "
            f"{_TEXT_NOHF_SQL} AS extracted_text_nohf, "
            f"{_STATUS_SQL} AS status, "
            f"CAST({_NSPANS_SQL} AS INT) AS n_spans FROM documents"
        ),
        "extract_status_counts": (
            "SELECT lang, status, CAST(count(*) AS BIGINT) AS n FROM "
            f"(SELECT lang, {_STATUS_SQL} AS status FROM documents) GROUP BY lang, status"
        ),
        "extract_span_stats": (
            f"SELECT lang, CAST(sum({_NSPANS_SQL}) AS BIGINT) AS sum_spans, "
            "CAST(count(*) AS BIGINT) AS n_docs FROM documents GROUP BY lang"
        ),
        # exact dedup: survivor = min doc_id per identical text
        "dedup_exact": "SELECT min(doc_id) AS doc_id FROM documents GROUP BY text",
        # incremental exact dedup: archive = doc_id%3==0 md5 index,
        # new batch = the rest; doc_id%5==2 rows carry shared texts
        "incremental_dedup": (
            "WITH base AS (SELECT doc_id, CASE WHEN doc_id % 5 = 2 "
            "THEN 'SHARED ' || CAST(doc_id % 11 AS VARCHAR) ELSE text END AS text "
            "FROM documents), "
            "newd AS (SELECT doc_id, text, md5(text) AS h FROM base WHERE doc_id % 3 <> 0), "
            "arch AS (SELECT DISTINCT md5(text) AS h FROM base WHERE doc_id % 3 = 0), "
            "fresh AS (SELECT * FROM newd WHERE h NOT IN (SELECT h FROM arch)) "
            "SELECT min(doc_id) AS doc_id, text FROM fresh GROUP BY text"
        ),
        # tokenizer vocab (exact top-32 by count desc, token asc) +
        # text->id encoding of the doc_id%20==0 sample; unk -> 0
        "token_id_sample": (
            "WITH toks AS (SELECT doc_id, list_filter(regexp_split_to_array(text, '\\s+'), "
            "t -> t <> '') AS arr FROM documents), "
            "cnt AS (SELECT unnest(arr) AS token FROM toks), "
            "vocab AS (SELECT token, row_number() OVER (ORDER BY n DESC, token) AS token_id "
            "FROM (SELECT token, count(*) AS n FROM cnt GROUP BY token) "
            "ORDER BY n DESC, token LIMIT 32), "
            "ex AS (SELECT doc_id, generate_subscripts(arr, 1) AS pos, unnest(arr) AS token "
            "FROM toks WHERE doc_id % 20 = 0) "
            "SELECT ex.doc_id, CAST(ex.pos AS BIGINT) AS pos, "
            "CAST(COALESCE(v.token_id, 0) AS BIGINT) AS token_id "
            "FROM ex LEFT JOIN vocab v USING (token)"
        ),
        # crawl snapshot diff: old misses doc_id%4==0, new misses
        # doc_id%4==1, new rewrote doc_id%6==3
        "table_profile": (
            "SELECT * FROM read_parquet('" + _GOLDEN_DIR + "/table_profile.parquet')"
        ),
        "bpe_merges": (
            f"SELECT rank, \"left\", \"right\" FROM read_parquet('{_GOLDEN_DIR}/bpe_merges.parquet')"
        ),
        "bpe_token_stats": (
            "SELECT doc_id, n_tokens, n_pieces "
            f"FROM read_parquet('{_GOLDEN_DIR}/bpe_token_stats.parquet')"
        ),
        "bpe_piece_vocab": (
            f"SELECT rank, piece, cnt FROM read_parquet('{_GOLDEN_DIR}/bpe_piece_vocab.parquet')"
        ),
        "logreg_weights": (
            f"SELECT idx, weight FROM read_parquet('{_GOLDEN_DIR}/logreg_weights.parquet')"
        ),
        "logreg_scores": (
            "SELECT doc_id, score, pred, label "
            f"FROM read_parquet('{_GOLDEN_DIR}/logreg_scores.parquet')"
        ),
        "pca_components": (
            "SELECT component, idx, loading, eigval "
            f"FROM read_parquet('{_GOLDEN_DIR}/pca_components.parquet')"
        ),
        "pca_projected": (
            f"SELECT * FROM read_parquet('{_GOLDEN_DIR}/pca_projected.parquet')"
        ),
        # classifier_eval: metrics re-derived INDEPENDENTLY in SQL from
        # the golden per-doc scores (window-function rank-sum AUC with
        # the standard tie correction), not read from a golden metrics
        # row
        "classifier_eval": (
            "WITH s AS (SELECT score, pred, label FROM read_parquet('"
            + _GOLDEN_DIR
            + "/logreg_scores.parquet')), "
            "ranked AS (SELECT label, RANK() OVER (ORDER BY score) "
            "+ (COUNT(*) OVER (PARTITION BY score) - 1) / 2.0 AS avg_rank FROM s), "
            "agg AS (SELECT COUNT(*) AS n, COUNT(*) FILTER (label) AS n_pos, "
            "ROUND(COUNT(*) FILTER (pred = label) * 1.0 / COUNT(*), 6) AS accuracy, "
            "ROUND(COUNT(*) FILTER (pred AND label) * 1.0 / NULLIF(COUNT(*) FILTER (pred), 0), 6) AS \"precision\", "
            "ROUND(COUNT(*) FILTER (pred AND label) * 1.0 / NULLIF(COUNT(*) FILTER (label), 0), 6) AS recall FROM s), "
            "aucq AS (SELECT ROUND((SUM(avg_rank) FILTER (label) "
            "- (COUNT(*) FILTER (label)) * ((COUNT(*) FILTER (label)) + 1) / 2.0) "
            "/ ((COUNT(*) FILTER (label)) * (COUNT(*) FILTER (NOT label))), 6) AS auc FROM ranked) "
            "SELECT n, n_pos, accuracy, \"precision\", recall, auc FROM agg, aucq"
        ),
        # packed_by_pieces: pack assignment re-derived in SQL as a
        # per-lang window cumsum over the golden fertility parquet
        "packed_by_pieces": (
            "WITH s AS (SELECT b.doc_id, d.lang, b.n_pieces "
            f"FROM read_parquet('{_GOLDEN_DIR}/bpe_token_stats.parquet') b "
            "JOIN documents d USING (doc_id)), "
            "c AS (SELECT doc_id, lang, n_pieces, "
            "COALESCE(SUM(n_pieces) OVER (PARTITION BY lang ORDER BY doc_id "
            "ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING), 0) AS strt FROM s) "
            "SELECT doc_id, lang, n_pieces, "
            "CAST(strt // 512 AS BIGINT) AS pack_id, "
            "CAST(strt % 512 AS BIGINT) AS pack_offset FROM c"
        ),
        # recrawl priority: diff classes + host mapping are SQL
        # arithmetic over the same fixture split as crawl_diff_docs;
        # importance joins from the host_pagerank golden parquet
        "recrawl_priority": (
            "WITH diff AS (SELECT doc_id, "
            "CASE WHEN doc_id % 4 = 0 THEN 'added' "
            "WHEN doc_id % 4 = 1 THEN 'removed' "
            "WHEN doc_id % 6 = 3 THEN 'changed' ELSE 'unchanged' END AS change "
            "FROM documents), "
            "per_host AS (SELECT doc_id % 40 AS host, "
            "CAST(sum(CASE WHEN change = 'added' THEN 1 ELSE 0 END) AS BIGINT) AS n_added, "
            "CAST(sum(CASE WHEN change = 'changed' THEN 1 ELSE 0 END) AS BIGINT) AS n_changed, "
            "CAST(sum(CASE WHEN change IN ('changed','unchanged') THEN 1 ELSE 0 END) AS BIGINT) AS n_compared "
            "FROM diff GROUP BY doc_id % 40) "
            "SELECT p.host, p.n_added, p.n_changed, p.n_compared, "
            "CAST(p.n_changed AS DOUBLE) / greatest(p.n_compared, 1) AS change_rate, "
            "r.rank_rel, "
            "(CAST(p.n_changed AS DOUBLE) / greatest(p.n_compared, 1)) * r.rank_rel AS priority "
            f"FROM per_host p JOIN read_parquet('{_GOLDEN_DIR}/host_pagerank.parquet') r "
            "ON p.host = r.host"
        ),
        "crawl_diff_docs": (
            "WITH c_old AS (SELECT doc_id, md5(text) AS h FROM documents "
            "WHERE doc_id % 4 <> 0), "
            "c_new AS (SELECT doc_id, md5(text || CASE WHEN doc_id % 6 = 3 "
            "THEN ' v2' ELSE '' END) AS h FROM documents WHERE doc_id % 4 <> 1) "
            "SELECT COALESCE(o.doc_id, n.doc_id) AS doc_id, "
            "CASE WHEN o.h IS NULL THEN 'added' WHEN n.h IS NULL THEN 'removed' "
            "WHEN o.h = n.h THEN 'unchanged' ELSE 'changed' END AS change "
            "FROM c_old o FULL OUTER JOIN c_new n ON o.doc_id = n.doc_id"
        ),
        # line dedup: independent SQL derivation — split the (SQL-derived)
        # extracted text into lines, drop lines appearing >=5x corpus-wide,
        # string_agg the remainder back in order
        "line_dedup_docs": (
            f"WITH ex AS (SELECT doc_id, {_TEXT_SQL} AS t FROM documents), "
            "lns AS (SELECT doc_id, unnest(string_split(t, chr(10))) AS line, "
            "generate_subscripts(string_split(t, chr(10)), 1) AS ord FROM ex), "
            "freq AS (SELECT line FROM lns GROUP BY line HAVING count(*) >= 5) "
            "SELECT l.doc_id, "
            "COALESCE(string_agg(l.line, chr(10) ORDER BY l.ord) "
            "FILTER (WHERE l.line NOT IN (SELECT line FROM freq)), '') AS text_dedup, "
            "CAST(count(*) FILTER (WHERE l.line NOT IN (SELECT line FROM freq)) AS BIGINT) AS n_kept, "
            "CAST(count(*) FILTER (WHERE l.line IN (SELECT line FROM freq)) AS BIGINT) AS n_dropped "
            "FROM lns l GROUP BY l.doc_id"
        ),
        "compression_ratios": (
            f"SELECT doc_id, comp_ratio, n_bytes "
            f"FROM read_parquet('{_GOLDEN_DIR}/compression_ratios.parquet')"
        ),
        # bigram LM: independent SQL derivation — string-keyed count
        # tables + window-free self-join on (doc_id, ord+1); the Ray
        # side keys on 64-bit hashes
        "bigram_lm_scores": (
            r"WITH toks AS (SELECT doc_id, t.tok, t.ord FROM documents, "
            r"LATERAL (SELECT unnest(list_filter(regexp_split_to_array(coalesce(text,''), '\s+'), x -> x <> '')) AS tok, "
            r"generate_subscripts(list_filter(regexp_split_to_array(coalesce(text,''), '\s+'), x -> x <> ''), 1) AS ord) t), "
            "uni AS (SELECT tok, count(*) AS c FROM toks GROUP BY tok), "
            "v AS (SELECT count(*) AS nv FROM uni), "
            "bigr AS (SELECT t1.doc_id, t1.tok AS w1, t2.tok AS w2 FROM toks t1 "
            "JOIN toks t2 ON t1.doc_id = t2.doc_id AND t2.ord = t1.ord + 1), "
            "bc AS (SELECT w1, w2, count(*) AS c FROM bigr GROUP BY w1, w2), "
            "scored AS (SELECT b.doc_id, ln((bc.c + 1.0) / (u.c + v.nv)) AS lp "
            "FROM bigr b JOIN bc ON b.w1 = bc.w1 AND b.w2 = bc.w2 "
            "JOIN uni u ON b.w1 = u.tok CROSS JOIN v) "
            "SELECT d.doc_id, coalesce(avg(s.lp), 0.0) AS avg_logp, "
            "CAST(count(s.lp) AS BIGINT) AS n_bigrams "
            "FROM documents d LEFT JOIN scored s ON d.doc_id = s.doc_id "
            "GROUP BY d.doc_id"
        ),
        # composite keep-filter: the quality_filter_docs rules AND the
        # repetition_stats thresholds, all in SQL
        "composite_quality_filter": (
            "WITH toks AS (SELECT doc_id, "
            "list_filter(regexp_split_to_array(text, '\\s+'), t -> t <> '') AS arr FROM documents), "
            "u AS (SELECT doc_id, len(arr) AS n_tokens, len(list_distinct(arr)) AS n_distinct FROM toks), "
            "big AS (SELECT doc_id, unnest(list_transform(generate_series(1, len(arr) - 1), "
            "i -> arr[i] || ' ' || arr[i + 1])) AS bg FROM toks WHERE len(arr) >= 2), "
            "bc AS (SELECT doc_id, bg, count(*) AS c FROM big GROUP BY doc_id, bg), "
            "bm AS (SELECT doc_id, max(c) AS maxc, sum(c) AS nbig FROM bc GROUP BY doc_id), "
            "rep AS (SELECT u.doc_id, "
            "round(CASE WHEN u.n_tokens = 0 THEN 0.0 ELSE u.n_distinct * 1.0 / u.n_tokens END, 4) AS distinct_frac, "
            "round(CASE WHEN bm.nbig IS NULL OR bm.nbig = 0 THEN 0.0 ELSE bm.maxc * 1.0 / bm.nbig END, 4) AS top_bigram_frac "
            "FROM u LEFT JOIN bm ON u.doc_id = bm.doc_id), "
            "q AS (SELECT doc_id, lang, "
            "len(string_split_regex(trim(text), '[ \t\n]+')) AS n_words, "
            "CASE WHEN len(string_split_regex(trim(text), '[ \t\n]+')) = 0 THEN 0.0 "
            "ELSE length(replace(text, ' ', '')) * 1.0 / len(string_split_regex(trim(text), '[ \t\n]+')) END AS mw, "
            "CASE WHEN length(text) = 0 THEN 0.0 "
            "ELSE length(regexp_replace(text, '[^A-Za-z]', '', 'g')) * 1.0 / length(text) END AS ar "
            "FROM documents) "
            "SELECT q.doc_id, q.lang, CAST(q.n_words AS BIGINT) AS n_tokens_ws, "
            "rep.distinct_frac, rep.top_bigram_frac "
            "FROM q JOIN rep ON q.doc_id = rep.doc_id "
            "WHERE q.n_words >= 5 AND q.mw BETWEEN 1.0 AND 15.0 AND q.ar >= 0.5 "
            "AND rep.distinct_frac >= 0.3 AND rep.top_bigram_frac <= 0.2"
        ),
        # perplexity terciles: the bigram-LM CTE quantized to int64
        # micro-units, percent_rank per lang, pr*3 tercile compare
        "perplexity_buckets": (
            r"WITH toks AS (SELECT doc_id, t.tok, t.ord FROM documents, "
            r"LATERAL (SELECT unnest(list_filter(regexp_split_to_array(coalesce(text,''), '\s+'), x -> x <> '')) AS tok, "
            r"generate_subscripts(list_filter(regexp_split_to_array(coalesce(text,''), '\s+'), x -> x <> ''), 1) AS ord) t), "
            "uni AS (SELECT tok, count(*) AS c FROM toks GROUP BY tok), "
            "v AS (SELECT count(*) AS nv FROM uni), "
            "bigr AS (SELECT t1.doc_id, t1.tok AS w1, t2.tok AS w2 FROM toks t1 "
            "JOIN toks t2 ON t1.doc_id = t2.doc_id AND t2.ord = t1.ord + 1), "
            "bc AS (SELECT w1, w2, count(*) AS c FROM bigr GROUP BY w1, w2), "
            "scored AS (SELECT b.doc_id, ln((bc.c + 1.0) / (u.c + v.nv)) AS lp "
            "FROM bigr b JOIN bc ON b.w1 = bc.w1 AND b.w2 = bc.w2 "
            "JOIN uni u ON b.w1 = u.tok CROSS JOIN v), "
            "avgs AS (SELECT d.doc_id, d.lang, "
            "CAST(round(coalesce(avg(s.lp), 0.0) * 1000000, 0) AS BIGINT) AS score_key "
            "FROM documents d LEFT JOIN scored s ON d.doc_id = s.doc_id "
            "GROUP BY d.doc_id, d.lang), "
            "ranked AS (SELECT doc_id, lang, score_key, "
            "percent_rank() OVER (PARTITION BY lang ORDER BY score_key) AS pr FROM avgs) "
            "SELECT doc_id, lang, score_key, "
            "CASE WHEN pr * 3 < 1 THEN 'head' WHEN pr * 3 < 2 THEN 'middle' "
            "ELSE 'tail' END AS bucket FROM ranked"
        ),
        # exact-substring dedup: independent SQL derivation — window
        # k-gram assembly + global HAVING count>=2 + interval coverage
        # via BETWEEN range join (the Ray side compares 64-bit gram
        # hashes; the SQL compares the gram strings themselves)
        "substring_dedup_docs": (
            r"WITH toks AS (SELECT doc_id, t.tok, t.ord FROM documents, "
            r"LATERAL (SELECT unnest(list_filter(regexp_split_to_array(coalesce(text,''), '\s+'), x -> x <> '')) AS tok, "
            r"generate_subscripts(list_filter(regexp_split_to_array(coalesce(text,''), '\s+'), x -> x <> ''), 1) AS ord) t), "
            "grams AS (SELECT doc_id, ord, list(tok) OVER (PARTITION BY doc_id "
            "ORDER BY ord ROWS BETWEEN CURRENT ROW AND 7 FOLLOWING) AS g FROM toks), "
            "g8 AS (SELECT doc_id, ord, array_to_string(g, ' ') AS gram FROM grams WHERE len(g) = 8), "
            "dup AS (SELECT gram FROM g8 GROUP BY gram HAVING count(*) >= 2), "
            "cov AS (SELECT DISTINCT t.doc_id, t.ord FROM toks t "
            "JOIN (SELECT doc_id, ord FROM g8 WHERE gram IN (SELECT gram FROM dup)) s "
            "ON t.doc_id = s.doc_id AND t.ord BETWEEN s.ord AND s.ord + 7), "
            "agg AS (SELECT t.doc_id, "
            "string_agg(t.tok, ' ' ORDER BY t.ord) FILTER (WHERE c.ord IS NULL) AS text_sub, "
            "count(*) FILTER (WHERE c.ord IS NULL) AS n_kept, "
            "count(*) FILTER (WHERE c.ord IS NOT NULL) AS n_dropped "
            "FROM toks t LEFT JOIN cov c ON t.doc_id = c.doc_id AND t.ord = c.ord "
            "GROUP BY t.doc_id) "
            "SELECT d.doc_id, coalesce(a.text_sub, '') AS text_sub, "
            "CAST(coalesce(a.n_kept, 0) AS BIGINT) AS n_kept, "
            "CAST(coalesce(a.n_dropped, 0) AS BIGINT) AS n_dropped "
            "FROM documents d LEFT JOIN agg a ON d.doc_id = a.doc_id"
        ),
        # Good-Turing / Chao1 coverage: all-integer ladder from four
        # exact scalars
        "vocab_coverage": (
            r"WITH toks AS (SELECT unnest(list_filter(regexp_split_to_array("
            r"coalesce(text,''), '\s+'), x -> x <> '')) AS tok FROM documents), "
            "c AS (SELECT tok, CAST(count(*) AS BIGINT) AS n FROM toks GROUP BY 1), "
            "s AS (SELECT CAST(sum(n) AS BIGINT) AS nn, CAST(count(*) AS BIGINT) AS v, "
            "CAST(count(*) FILTER (WHERE n = 1) AS BIGINT) AS n1, "
            "CAST(count(*) FILTER (WHERE n = 2) AS BIGINT) AS n2 FROM c) "
            "SELECT nn AS n_tokens, v AS vocab, n1 AS hapax, n2 AS dis, "
            "(1000000 * n1) // greatest(nn, 1) AS unseen_mass_micro, "
            "1000000 * v + (1000000 * n1 * (n1 - 1)) // (2 * (n2 + 1)) AS chao1_micro "
            "FROM s"
        ),
        # empirical-Bayes shrinkage: exact integer moment sums, one
        # fixed-association float expression (mirrors the engine)
        "host_quality_shrunken": (
            "WITH d AS (SELECT doc_id % 97 AS host, "
            "CASE WHEN n_chars >= 200 THEN 1 ELSE 0 END AS kept FROM documents), "
            "g AS (SELECT host, CAST(count(*) AS BIGINT) AS n, "
            "CAST(sum(kept) AS BIGINT) AS k FROM d GROUP BY 1), "
            "q AS (SELECT host, n, k, (1000000 * k) // greatest(n, 1) AS pm FROM g), "
            "s AS (SELECT CAST(count(*) AS BIGINT) AS h, CAST(sum(pm) AS BIGINT) AS s1, "
            "CAST(sum(pm * pm) AS BIGINT) AS s2 FROM q), "
            "p AS (SELECT h, s1 / (1000000.0 * h) AS m, "
            "s2 / (1000000000000.0 * h) - (s1 / (1000000.0 * h)) * (s1 / (1000000.0 * h)) AS v "
            "FROM s), "
            "c AS (SELECT h, m, v, CASE WHEN h < 2 OR v <= 0.0 OR v >= m * (1.0 - m) "
            "THEN 0.0 ELSE m * (1.0 - m) / v - 1.0 END AS common FROM p) "
            "SELECT q.host, q.n, q.k, q.pm AS raw_micro, "
            "CASE WHEN c.common = 0.0 THEN q.pm ELSE "
            "CAST(floor((1000000.0 * (q.k + c.m * c.common)) / (q.n + c.common)) AS BIGINT) "
            "END AS shrunk_micro "
            "FROM q CROSS JOIN c"
        ),
        # cross-crawl novelty: same k-gram window construction; the
        # archive's distinct grams gate every new-doc gram position
        "gram_novelty": (
            r"WITH toks AS (SELECT doc_id, t.tok, t.ord FROM documents, "
            r"LATERAL (SELECT unnest(list_filter(regexp_split_to_array(coalesce(text,''), '\s+'), x -> x <> '')) AS tok, "
            r"generate_subscripts(list_filter(regexp_split_to_array(coalesce(text,''), '\s+'), x -> x <> ''), 1) AS ord) t), "
            "grams AS (SELECT doc_id, ord, list(tok) OVER (PARTITION BY doc_id "
            "ORDER BY ord ROWS BETWEEN CURRENT ROW AND 7 FOLLOWING) AS g FROM toks), "
            "g8 AS (SELECT doc_id, ord, array_to_string(g, ' ') AS gram FROM grams WHERE len(g) = 8), "
            "old AS (SELECT DISTINCT gram FROM g8 WHERE doc_id % 37 = 3), "
            "agg AS (SELECT doc_id, CAST(count(*) AS BIGINT) AS n_grams, "
            "CAST(count(*) FILTER (WHERE gram NOT IN (SELECT gram FROM old)) AS BIGINT) AS n_novel "
            "FROM g8 WHERE doc_id % 37 <> 3 GROUP BY doc_id) "
            "SELECT d.doc_id, CAST(coalesce(a.n_grams, 0) AS BIGINT) AS n_grams, "
            "CAST(coalesce(a.n_novel, 0) AS BIGINT) AS n_novel, "
            "CAST(CASE WHEN coalesce(a.n_grams, 0) = 0 THEN 0 "
            "ELSE (1000000 * a.n_novel) // a.n_grams END AS BIGINT) AS novelty_micro "
            "FROM documents d LEFT JOIN agg a ON d.doc_id = a.doc_id "
            "WHERE d.doc_id % 37 <> 3"
        ),
        # n-gram decontamination: same k-gram window construction as
        # substring_dedup_docs, duplicate table → bench gram set
        "decontaminate_docs": (
            r"WITH toks AS (SELECT doc_id, t.tok, t.ord FROM documents, "
            r"LATERAL (SELECT unnest(list_filter(regexp_split_to_array(coalesce(text,''), '\s+'), x -> x <> '')) AS tok, "
            r"generate_subscripts(list_filter(regexp_split_to_array(coalesce(text,''), '\s+'), x -> x <> ''), 1) AS ord) t), "
            "grams AS (SELECT doc_id, ord, list(tok) OVER (PARTITION BY doc_id "
            "ORDER BY ord ROWS BETWEEN CURRENT ROW AND 7 FOLLOWING) AS g FROM toks), "
            "g8 AS (SELECT doc_id, ord, array_to_string(g, ' ') AS gram FROM grams WHERE len(g) = 8), "
            "bench AS (SELECT DISTINCT gram FROM g8 WHERE doc_id % 97 = 3), "
            "cov AS (SELECT DISTINCT t.doc_id, t.ord FROM toks t "
            "JOIN (SELECT doc_id, ord FROM g8 WHERE gram IN (SELECT gram FROM bench)) s "
            "ON t.doc_id = s.doc_id AND t.ord BETWEEN s.ord AND s.ord + 7), "
            "agg AS (SELECT t.doc_id, "
            "string_agg(t.tok, ' ' ORDER BY t.ord) FILTER (WHERE c.ord IS NULL) AS text_decon, "
            "count(*) FILTER (WHERE c.ord IS NULL) AS n_kept, "
            "count(*) FILTER (WHERE c.ord IS NOT NULL) AS n_dropped "
            "FROM toks t LEFT JOIN cov c ON t.doc_id = c.doc_id AND t.ord = c.ord "
            "GROUP BY t.doc_id) "
            "SELECT d.doc_id, coalesce(a.text_decon, '') AS text_decon, "
            "CAST(coalesce(a.n_kept, 0) AS BIGINT) AS n_kept, "
            "CAST(coalesce(a.n_dropped, 0) AS BIGINT) AS n_dropped "
            "FROM documents d LEFT JOIN agg a ON d.doc_id = a.doc_id"
        ),
        "adaptive_length_filter": (
            "WITH thr AS (SELECT lang, quantile_disc(n_chars, 0.1) AS lo "
            "FROM documents GROUP BY lang) "
            "SELECT d.doc_id, d.lang, d.n_chars FROM documents d "
            "JOIN thr ON d.lang = thr.lang WHERE d.n_chars >= thr.lo"
        ),
        # host link graph: edges derived independently by the same
        # deterministic rule (src = doc_id%40, dst = doc_id*m%40 for
        # m in 3,7,11)
        "host_degrees": (
            "WITH e AS ("
            "SELECT doc_id % 40 AS src, (doc_id * 3) % 40 AS dst FROM documents "
            "UNION ALL SELECT doc_id % 40, (doc_id * 7) % 40 FROM documents "
            "UNION ALL SELECT doc_id % 40, (doc_id * 11) % 40 FROM documents) "
            "SELECT host, CAST(sum(o) AS BIGINT) AS out_deg, "
            "CAST(sum(i) AS BIGINT) AS in_deg FROM ("
            "SELECT src AS host, 1 AS o, 0 AS i FROM e "
            "UNION ALL SELECT dst, 0, 1 FROM e) GROUP BY host"
        ),
        # connected components: independent derivation — recursive-CTE
        # reachability closure over the identically derived chain edges
        "host_components": (
            "WITH RECURSIVE hosts AS (SELECT DISTINCT doc_id % 400 AS h FROM documents), "
            "e AS (SELECT h AS a, h + 1 AS b FROM hosts WHERE h % 16 <> 15), "
            "und AS (SELECT a, b FROM e UNION SELECT b, a FROM e), "
            "reach(n, lbl) AS (SELECT h, h FROM hosts "
            "UNION SELECT u.b, r.lbl FROM reach r JOIN und u ON u.a = r.n) "
            "SELECT n AS host, CAST(min(lbl) AS BIGINT) AS component "
            "FROM reach GROUP BY n"
        ),
        "host_pagerank": (
            f"SELECT host, rank_rel FROM read_parquet('{_GOLDEN_DIR}/host_pagerank.parquet')"
        ),
        "window_distinct_users": (
            "SELECT make_timestamp((epoch_us(ts) // 3600000000) * 3600000000) "
            "AS window_start, CAST(count(DISTINCT user_id) AS BIGINT) AS n_users "
            "FROM events GROUP BY 1"
        ),
        "tokens_per_char_regression": (
            "SELECT lang, CAST(count(*) AS BIGINT) AS n, "
            "regr_slope(nt, n_chars) AS slope, "
            "regr_intercept(nt, n_chars) AS intercept, "
            "regr_r2(nt, n_chars) AS r2 FROM ("
            "SELECT lang, n_chars, "
            "len(string_split_regex(trim(text), '[ \t\n]+')) AS nt FROM documents"
            ") GROUP BY lang"
        ),
        "doc_length_pct_rank": (
            "SELECT doc_id, lang, n_chars, "
            "percent_rank() OVER (PARTITION BY lang ORDER BY n_chars) AS pct_rank "
            "FROM documents"
        ),
        "extract_category_counts": (
            "SELECT category, CAST(n AS BIGINT) AS n FROM ("
            "SELECT 'Title' AS category, count(*) FILTER (WHERE doc_id % 31 != 11 AND doc_id % 23 != 7) AS n FROM documents "
            "UNION ALL SELECT 'Page-footer', count(*) FILTER (WHERE doc_id % 31 != 11 AND doc_id % 23 != 7) FROM documents "
            "UNION ALL SELECT 'Text', count(*) FILTER (WHERE doc_id % 31 != 11) FROM documents"
            ") WHERE n > 0"
        ),
        "crawl_dedup_latest": (
            "SELECT 'https://example-' || lpad(CAST(doc_id % 40 AS VARCHAR), 2, '0') "
            "|| '.com/doc-' || lpad(CAST(doc_id AS VARCHAR), 6, '0') AS url, "
            "TIMESTAMP '2025-01-01' + doc_id * INTERVAL 137 SECOND + INTERVAL 1 DAY AS warc_ts "
            "FROM documents"
        ),
        "domain_stats": (
            "SELECT 'example-' || lpad(CAST(doc_id % 40 AS VARCHAR), 2, '0') || '.com' AS domain, "
            "CAST(count(*) AS BIGINT) AS rows, "
            "CAST(count(*) FILTER (WHERE doc_id % 31 != 11 AND doc_id % 23 != 7) AS BIGINT) AS ok "
            "FROM documents GROUP BY 1"
        ),
        "events_props_agg": (
            "SELECT event_type, CAST(sum(CAST(json_extract_string(props, '$.k') AS BIGINT)) AS BIGINT) AS sum_k, "
            "CAST(count(*) AS BIGINT) AS n FROM events GROUP BY event_type"
        ),
        "extract_grounding": (
            "SELECT doc_id, "
            "CASE WHEN doc_id % 31 = 11 THEN '' WHEN doc_id % 23 = 7 THEN trim(text) "
            "ELSE 'Doc ' || doc_id END AS extracted_text, "
            f"{_STATUS_SQL} AS status, "
            "CAST(CASE WHEN doc_id % 31 = 11 THEN 0 ELSE 1 END AS INT) AS n_spans "
            "FROM documents"
        ),
        # link extraction: independent SQL derivation — the fixture nav
        # carries exactly (Home, Next) per normal page with arithmetic
        # targets; fallback/failed pages have no anchors
        "extract_links": (
            f"WITH {_LINKS_CTE_SQL} "
            "SELECT url, href, anchor FROM links"
        ),
        # frontier = distinct link targets minus every crawled url
        # (failed/fallback pages were still crawled)
        "crawl_frontier": (
            f"WITH {_LINKS_CTE_SQL} "
            "SELECT url AS href FROM frontier"
        ),
        # frontier politeness schedule: wave = per-host ROW_NUMBER over
        # the same frontier derivation
        "frontier_schedule": (
            f"WITH {_LINKS_CTE_SQL} "
            "SELECT url, regexp_extract(url, '^[a-z]+://([^/]+)', 1) AS host, "
            "CAST(row_number() OVER (PARTITION BY regexp_extract(url, '^[a-z]+://([^/]+)', 1) "
            "ORDER BY url) - 1 AS BIGINT) AS wave FROM frontier"
        ),
        # inbound anchors: same arithmetic link derivation, rolled up
        # per target with mode-anchor tie-broken (count desc, anchor asc)
        "inbound_anchors": (
            f"WITH {_LINKS_CTE_SQL}, "
            "pc_ AS (SELECT href, anchor, count(*) AS c FROM links GROUP BY href, anchor), "
            "top_ AS (SELECT href, anchor, "
            "row_number() OVER (PARTITION BY href ORDER BY c DESC, anchor ASC) AS rn FROM pc_), "
            "agg AS (SELECT href, CAST(sum(c) AS BIGINT) AS n_inbound, "
            "CAST(count(*) AS BIGINT) AS n_anchors FROM pc_ GROUP BY href), "
            "srcs AS (SELECT href, CAST(count(DISTINCT url) AS BIGINT) AS n_sources FROM links GROUP BY href) "
            "SELECT agg.href AS href, n_inbound, n_sources, n_anchors, t.anchor AS top_anchor "
            "FROM agg JOIN srcs USING (href) JOIN top_ t ON t.href = agg.href AND t.rn = 1"
        ),
        # KWIC term contexts: strpos is 1-based chars == 0-based bytes+1
        # on this ASCII corpus
        "term_contexts": (
            "WITH terms(term) AS (VALUES ('dup'), ('window'), ('merge')), "
            "hits AS (SELECT doc_id, term, strpos(text, term) - 1 AS pos, text "
            "FROM documents, terms WHERE strpos(text, term) > 0) "
            "SELECT doc_id, term, CAST(pos AS BIGINT) AS pos, "
            "substr(text, greatest(pos - 24, 0) + 1, "
            "least(pos + length(term) + 24, length(text)) - greatest(pos - 24, 0)) AS context "
            "FROM hits"
        ),
        "host_templates": (
            "SELECT host, n_pages, n_templates, top_template, top_template_n "
            f"FROM read_parquet('{_GOLDEN_DIR}/host_templates.parquet')"
        ),
        # host reputation: host + extracted-nohf text + status by the
        # fixture arithmetic; quality rule == quality_filter's SQL but
        # whitespace-aware (the nohf text carries newlines)
        "host_reputation": (
            "WITH base AS (SELECT "
            "'example-' || lpad(CAST(doc_id % 40 AS VARCHAR), 2, '0') || '.com' AS host, "
            f"lang, {_STATUS_SQL} AS status, {_TEXT_NOHF_SQL} AS t FROM documents), "
            "feat AS (SELECT host, lang, status, "
            "CASE WHEN trim(t, ' ' || chr(9) || chr(10)) = '' THEN 0 "
            "ELSE len(string_split_regex(trim(t, ' ' || chr(9) || chr(10)), '[ \t\n]+')) END AS n_words, "
            "length(regexp_replace(t, '[ \t\n]', '', 'g')) AS nonws, "
            "CASE WHEN length(t) = 0 THEN 0.0 "
            "ELSE length(regexp_replace(t, '[^A-Za-z]', '', 'g')) * 1.0 / length(t) END AS ar "
            "FROM base), "
            "feat2 AS (SELECT host, lang, status, n_words, ar, "
            "CASE WHEN n_words = 0 THEN 0.0 ELSE nonws * 1.0 / n_words END AS mw FROM feat) "
            "SELECT host, CAST(count(*) AS BIGINT) AS n_pages, "
            "CAST(sum(CASE WHEN status = 'finished' THEN 1 ELSE 0 END) AS BIGINT) AS n_finished, "
            "CAST(sum(CASE WHEN n_words >= 5 AND mw BETWEEN 1.0 AND 15.0 AND ar >= 0.5 "
            "THEN 1 ELSE 0 END) AS BIGINT) AS n_quality_kept, "
            "CAST(sum(n_words) AS BIGINT) AS sum_tokens, "
            "CAST(count(DISTINCT lang) AS BIGINT) AS n_langs "
            "FROM feat2 GROUP BY host"
        ),
        "sessionize": (
            "WITH marked AS (SELECT user_id, ts, "
            "CASE WHEN ts - lag(ts) OVER (PARTITION BY user_id ORDER BY ts) "
            "> INTERVAL 30 MINUTES THEN 1 ELSE 0 END AS new_s FROM events), "
            "grouped AS (SELECT user_id, ts, sum(new_s) OVER (PARTITION BY user_id "
            "ORDER BY ts ROWS UNBOUNDED PRECEDING) AS sgrp FROM marked) "
            "SELECT user_id, CAST(sgrp + 1 AS INT) AS session_id, "
            "CAST(count(*) AS BIGINT) AS n_events, min(ts) AS session_start, "
            "max(ts) AS session_end FROM grouped GROUP BY user_id, sgrp"
        ),
        "asof_join": (
            "SELECT p.user_id, p.ts, "
            "COALESCE(CAST(epoch_us((SELECT max(c.ts) FROM events c "
            "WHERE c.user_id = p.user_id AND c.event_type = 'click' "
            "AND c.ts < p.ts)) AS BIGINT), -1) AS prior_us "
            "FROM events p WHERE p.event_type = 'purchase'"
        ),
        "sample_10pct": (
            "SELECT doc_id, lang, n_chars FROM documents "
            "WHERE (doc_id * 2654435761) % 4294967296 < CAST(4294967296 * 0.10 AS BIGINT)"
        ),
        "longest_documents": (
            "SELECT doc_id, lang, n_chars FROM documents "
            "ORDER BY n_chars DESC, doc_id LIMIT 20"
        ),
        # chunk count closed form: 1 + ceil((n_tokens - chunk)/(chunk - overlap))
        "chunk_stats": (
            "SELECT doc_id, CAST(CASE WHEN nt <= 32 THEN 1 "
            "ELSE 1 + CAST(ceil((nt - 32) / 28.0) AS BIGINT) END AS BIGINT) AS n_chunks "
            "FROM (SELECT doc_id, len(string_split_regex(trim(text), '[ \t\n]+')) AS nt "
            "FROM documents WHERE length(trim(text)) > 0)"
        ),
        # corpus contains no PII patterns → scrubbed text == text (the
        # redaction plumbing is regression-tested on synthetic PII in
        # tests/test_chunk_scrub_ivf.py)
        "scrub_documents": "SELECT doc_id, text AS text_scrubbed FROM documents",
        "distinct_langs": "SELECT DISTINCT lang FROM documents",
        "heavy_hitter_langs": (
            "SELECT lang, CAST(count(*) AS BIGINT) AS n FROM documents "
            "GROUP BY lang ORDER BY n DESC, lang LIMIT 3"
        ),
        "train_val_split": (
            "SELECT lang, CASE WHEN (doc_id * 2654435761) % 4294967296 "
            "< CAST(4294967296 * 0.9 AS BIGINT) THEN 'train' ELSE 'val' END AS split, "
            "CAST(count(*) AS BIGINT) AS n FROM documents GROUP BY lang, split"
        ),
        # approximate dedups / ANN / heuristic NLP / page-merge are not
        # SQL-expressible, so their oracle is a GOLDEN PARQUET computed
        # by an independent single-process sequential implementation
        # over the same pure kernels (tools/make_golden.py; regenerated
        # per sf, parity-tested every pytest run in tests/test_golden.py)
        # — DuckDB just reads the expected table.
        "describe_docs": (
            "SELECT doc_id, extracted_text, n_spans, status "
            f"FROM read_parquet('{_GOLDEN_DIR}/describe_docs.parquet')"
        ),
        # template strip: replay the integer frequency rule (a block is
        # chrome on ≥ max(3, ceil(60%·host_pages)) distinct pages of
        # its host) over the fixture's reconstructed blocks — normal
        # docs contribute (Title, Text, Page-footer), degradation docs
        # contribute none but still emit an empty output row
        "template_strip": (
            "WITH pages AS (SELECT doc_id, doc_id % 40 AS host, "
            "CASE WHEN doc_id % 31 = 11 OR doc_id % 23 = 7 THEN NULL "
            "ELSE trim(text) END AS body FROM documents), "
            "blocks AS ("
            "SELECT doc_id, host, 0 AS ord, 'Title' AS cat, 'Doc ' || doc_id AS btext "
            "FROM pages WHERE body IS NOT NULL "
            "UNION ALL SELECT doc_id, host, 1, 'Text', body FROM pages WHERE body IS NOT NULL "
            "UNION ALL SELECT doc_id, host, 2, 'Page-footer', 'Footer ' || host "
            "FROM pages WHERE body IS NOT NULL), "
            "hp AS (SELECT host, count(DISTINCT doc_id) AS n_pages FROM blocks GROUP BY host), "
            "freq AS (SELECT c.host, c.cat, c.btext FROM "
            "(SELECT host, cat, btext, count(DISTINCT doc_id) AS n "
            "FROM blocks GROUP BY host, cat, btext) c "
            "JOIN hp ON c.host = hp.host "
            "WHERE c.n >= 3 AND 100 * c.n >= 60 * hp.n_pages), "
            "kept AS (SELECT b.doc_id, b.ord, b.btext FROM blocks b "
            "WHERE NOT EXISTS (SELECT 1 FROM freq f WHERE f.host = b.host "
            "AND f.cat = b.cat AND f.btext = b.btext)) "
            "SELECT p.doc_id, "
            "COALESCE(string_agg(k.btext, chr(10) ORDER BY k.ord), '') AS text_clean, "
            "CAST(count(k.btext) AS BIGINT) AS n_kept, "
            "CAST(CASE WHEN p.body IS NULL THEN 0 ELSE 3 END - count(k.btext) AS BIGINT) "
            "AS n_dropped "
            "FROM pages p LEFT JOIN kept k USING (doc_id) GROUP BY p.doc_id, p.body"
        ),
        "dedup_minhash": f"SELECT doc_id, cluster_id FROM read_parquet('{_GOLDEN_DIR}/dedup_minhash.parquet')",
        "dedup_best_survivors": f"SELECT doc_id, cluster_id, n_chars FROM read_parquet('{_GOLDEN_DIR}/dedup_best_survivors.parquet')",
        "containment_pairs": f"SELECT a, b, cont_micro FROM read_parquet('{_GOLDEN_DIR}/containment_pairs.parquet')",
        # same split rule as grouped_split_docs, keyed on the golden
        # minhash cluster id instead of the source column
        "cluster_leak_split": (
            f"SELECT doc_id, cluster_id, CASE WHEN substr(md5(CAST(cluster_id AS VARCHAR)), 1, 1) "
            f"IN ('0', '1', '2', '3') THEN 'val' ELSE 'train' END AS split "
            f"FROM read_parquet('{_GOLDEN_DIR}/dedup_minhash.parquet')"
        ),
        "dedup_simhash": f"SELECT doc_id, cluster_id FROM read_parquet('{_GOLDEN_DIR}/dedup_simhash.parquet')",
        "dedup_ngram": f"SELECT doc_id, cluster_id FROM read_parquet('{_GOLDEN_DIR}/dedup_ngram.parquet')",
        "dedup_embedding": f"SELECT doc_id, cluster_id FROM read_parquet('{_GOLDEN_DIR}/dedup_embedding.parquet')",
        "ann_lsh_topk": f"SELECT query_id, vec_id, rank FROM read_parquet('{_GOLDEN_DIR}/ann_lsh_topk.parquet')",
        "ann_ivf_topk": f"SELECT query_id, vec_id, rank FROM read_parquet('{_GOLDEN_DIR}/ann_ivf_topk.parquet')",
        # the persisted-index roundtrip must be bit-equal to ivf_topk
        "ann_ivf_persisted": f"SELECT query_id, vec_id, rank FROM read_parquet('{_GOLDEN_DIR}/ann_ivf_topk.parquet')",
        "ann_pq_topk": f"SELECT query_id, vec_id, rank FROM read_parquet('{_GOLDEN_DIR}/ann_pq_topk.parquet')",
        "kmeans_clusters": f"SELECT vec_id, cluster_id, sim FROM read_parquet('{_GOLDEN_DIR}/kmeans_clusters.parquet')",
        "silhouette_clusters": f"SELECT cluster_id, n, mean_s_micro FROM read_parquet('{_GOLDEN_DIR}/silhouette_clusters.parquet')",
        "kcenter_prototypes": f"SELECT rank, vec_id, dist_micro FROM read_parquet('{_GOLDEN_DIR}/kcenter_prototypes.parquet')",
        "knn_outliers": f"SELECT vec_id, score_micro FROM read_parquet('{_GOLDEN_DIR}/knn_outliers.parquet')",
        "stemmed_vocab": f"SELECT stem, total, n_forms FROM read_parquet('{_GOLDEN_DIR}/stemmed_vocab.parquet')",
        "ewma_daily_events": (
            "WITH d AS (SELECT event_type AS k, CAST(CAST(date_trunc('day', ts) "
            "AS DATE) - DATE '1970-01-01' AS BIGINT) AS day, "
            "CAST(count(*) AS BIGINT) AS n FROM events GROUP BY 1, 2), "
            "b AS (SELECT k, min(day) AS d0, max(day) AS d1 FROM d GROUP BY k), "
            "g AS (SELECT b.k, unnest(generate_series(d0, d1)) AS day FROM b), "
            "z AS (SELECT g.k, g.day, coalesce(d.n, 0) AS n FROM g "
            "LEFT JOIN d ON d.k = g.k AND d.day = g.day), "
            "w AS (SELECT f.k, f.day, sum(g2.n * (1 << CAST(6 - (f.day - g2.day) "
            "AS INT))) AS num FROM z f JOIN z g2 ON f.k = g2.k "
            "AND g2.day BETWEEN f.day - 6 AND f.day GROUP BY 1, 2) "
            "SELECT k AS key, day, CAST((1000000::BIGINT * num) // 127 AS BIGINT) "
            "AS ewma_micro FROM w"
        ),
        "ucb_event_types": (
            "WITH s AS (SELECT event_type AS key, CAST(count(*) AS BIGINT) AS n, "
            "CAST(sum(CAST(floor(100 * value) AS BIGINT)) AS BIGINT) AS sx "
            "FROM events GROUP BY 1), "
            "tot AS (SELECT CAST(sum(n) AS BIGINT) AS tn FROM s) "
            "SELECT key, n, (1000000 * sx) // (100 * n) AS mean_micro, "
            "CAST(floor(1000000 * sqrt((2.0 * ln(tn)) / n)) AS BIGINT) AS bonus_micro, "
            "(1000000 * sx) // (100 * n) + "
            "CAST(floor(1000000 * sqrt((2.0 * ln(tn)) / n)) AS BIGINT) AS ucb_micro "
            "FROM s CROSS JOIN tot"
        ),
        "media_phash_dups": f"SELECT media_id, cluster_id FROM read_parquet('{_GOLDEN_DIR}/media_phash_dups.parquet')",
        "video_keyframes": (
            "SELECT d.doc_id AS media_id, CAST(f.f AS INTEGER) AS frame_idx, "
            "CAST(SUM((31*d.doc_id + 17*f.f + 13*y.y + 7*x.x) % 256) // 128 AS BIGINT) AS mean_luma "
            "FROM documents d "
            "JOIN generate_series(0, 4) AS f(f) ON f.f < 1 + (d.doc_id // 6) % 5 AND f.f % 2 = 0 "
            "CROSS JOIN generate_series(0, 7) AS y(y) "
            "CROSS JOIN generate_series(0, 15) AS x(x) "
            "WHERE d.doc_id % 6 = 2 "
            "GROUP BY d.doc_id, f.f"
        ),
        "reading_order_sorted": (
            "WITH d AS (SELECT doc_id, 4 + 2*(doc_id % 3) AS n FROM documents) "
            "SELECT d.doc_id, CAST(j.j AS INTEGER) AS span_id, "
            "CAST(CASE "
            "WHEN d.doc_id % 13 = 4 THEN d.n - j.j "
            "WHEN j.j = 0 THEN 0 "
            "WHEN (j.j - 1) % 2 = 0 THEN 1 + (j.j - 1) // 2 "
            "ELSE 1 + d.n // 2 + (j.j - 1) // 2 "
            "END AS INTEGER) AS rank_ro "
            "FROM d JOIN generate_series(0, 8) AS j(j) ON j.j <= d.n"
        ),
        "warc_http_headers": (
            "SELECT status, content_type, CAST(count(*) AS BIGINT) AS n, "
            "CAST(sum(10 + doc_id % 50) AS BIGINT) AS body_bytes FROM ("
            "SELECT doc_id, "
            "CAST(CASE (doc_id // 6) % 4 WHEN 0 THEN 200 WHEN 1 THEN 301 WHEN 2 THEN 404 ELSE 503 END AS INTEGER) AS status, "
            "CASE doc_id % 4 WHEN 0 THEN 'text/html' WHEN 1 THEN 'text/html' "
            "WHEN 2 THEN 'application/pdf' ELSE 'text/plain' END AS content_type "
            "FROM documents) GROUP BY status, content_type"
        ),
        "robots_txt_rules": (
            "WITH h AS (SELECT n.n AS nn FROM generate_series(0, 39) AS n(n)) "
            "SELECT 'example-' || lpad(CAST(nn AS VARCHAR), 2, '0') || '.com' AS host, "
            "CAST(r.i AS INTEGER) AS rule_idx, "
            "CASE WHEN nn % 3 = 0 THEN "
            "  CASE r.i WHEN 0 THEN '/doc-00' || (nn % 10) ELSE '/doc-00' || (nn % 10) || '0' END "
            "ELSE '/private-' || (nn % 5) || '/' END AS prefix, "
            "CAST(CASE WHEN nn % 3 = 0 AND r.i = 1 THEN TRUE ELSE FALSE END AS BOOLEAN) AS allow, "
            "CAST(CASE WHEN nn % 3 = 0 THEN -1 ELSE 1 + nn % 4 END AS BIGINT) AS crawl_delay "
            "FROM h JOIN generate_series(0, 1) AS r(i) "
            "ON r.i < CASE WHEN nn % 3 = 0 THEN 2 ELSE 1 END"
        ),
        "scan_page_pictures": (
            "SELECT doc_id, 'Title|Picture|Text' AS categories, "
            "'TITLE OF DOCUMENT ' || lpad(CAST(doc_id AS VARCHAR), 6, '0') "
            "|| chr(10)||chr(10) || chr(10)||chr(10) "
            "|| 'BODY 0 ' || (doc_id % 1000) AS markdown "
            "FROM documents"
        ),
        "scan_page_tables": (
            "SELECT doc_id, 'finished' AS status, CAST(2 AS INTEGER) AS n_blocks, "
            "'TITLE OF DOCUMENT ' || lpad(CAST(doc_id AS VARCHAR), 6, '0') "
            "|| chr(10)||chr(10)|| 'ID | VAL' "
            "|| chr(10) || '1 | ' || (doc_id % 100) "
            "|| chr(10) || '2 | ' || ((doc_id * 3) % 100) AS markdown "
            "FROM documents"
        ),
        "scanned_table_cells": (
            "WITH d AS (SELECT doc_id, 3 + doc_id % 3 AS nr FROM documents), "
            "g AS (SELECT doc_id, nr, r.r AS row_i, c.c AS col_i "
            "FROM d JOIN generate_series(0, 5) AS r(r) ON r.r < nr "
            "CROSS JOIN generate_series(0, 1) AS c(c)) "
            "SELECT doc_id, CAST(row_i AS INTEGER) AS row, CAST(col_i AS INTEGER) AS col, "
            "CASE WHEN row_i = 0 AND col_i = 0 THEN 'ID' "
            "WHEN row_i = 0 THEN 'VAL' "
            "WHEN col_i = 0 THEN CAST(row_i AS VARCHAR) "
            "ELSE CAST((doc_id + row_i * 7) % 100 AS VARCHAR) END AS cell_text "
            "FROM g"
        ),
        "scan_pipeline": (
            "SELECT doc_id, 'finished' AS status, "
            "CAST(doc_id % 5 - 2 AS INTEGER) AS skew_px, "
            "CAST(2 AS INTEGER) AS n_blocks, "
            "'TITLE OF DOCUMENT ' || lpad(CAST(doc_id AS VARCHAR), 6, '0') "
            "|| chr(10)||chr(10)||'BODY 0 ' || (doc_id % 1000) AS markdown "
            "FROM documents"
        ),
        "noisy_page_ocr": (
            "SELECT doc_id, CAST(i.i AS INTEGER) AS line_idx, "
            "CASE i.i WHEN 0 THEN 'DOC ' || lpad(CAST(doc_id AS VARCHAR), 6, '0') "
            "ELSE 'LANG ' || upper(lang) END AS ocr_text "
            "FROM documents CROSS JOIN generate_series(0, 1) AS i(i)"
        ),
        "page_deskew": (
            "SELECT doc_id, CAST(doc_id % 5 - 2 AS INTEGER) AS skew_px, "
            "'TITLE OF DOCUMENT ' || lpad(CAST(doc_id AS VARCHAR), 6, '0') AS title "
            "FROM documents"
        ),
        "scanned_page_markdown": (
            "SELECT doc_id, "
            "'TITLE OF DOCUMENT ' || lpad(CAST(doc_id AS VARCHAR), 6, '0') "
            "|| chr(10)||chr(10)||'BODY 0 ' || (doc_id % 1000) "
            "|| CASE WHEN 1 + doc_id % 3 >= 2 THEN chr(10)||chr(10)||'BODY 1 ' || (doc_id % 1000) ELSE '' END "
            "|| CASE WHEN 1 + doc_id % 3 >= 3 THEN chr(10)||chr(10)||'BODY 2 ' || (doc_id % 1000) ELSE '' END "
            "AS markdown, "
            "'Title' || repeat('|Text', 1 + doc_id % 3) AS categories "
            "FROM documents"
        ),
        "scanned_page_ocr": (
            "SELECT doc_id, CAST(i.i AS INTEGER) AS line_idx, "
            "CASE i.i WHEN 0 THEN 'DOC ' || lpad(CAST(doc_id AS VARCHAR), 6, '0') "
            "ELSE 'LANG ' || upper(lang) END AS ocr_text "
            "FROM documents CROSS JOIN generate_series(0, 1) AS i(i)"
        ),
        "layout_blocks": (
            "WITH d AS (SELECT doc_id, 1 + doc_id % 4 AS n FROM documents), "
            "r AS (SELECT doc_id, n, (n+1)//2 AS nl, s.r AS rk "
            "FROM d JOIN generate_series(0, 4) AS s(r) ON s.r <= n) "
            "SELECT doc_id, CAST(rk AS INTEGER) AS rank_ro, "
            "CASE WHEN rk = 0 THEN 'Title' ELSE 'Text' END AS category, "
            "CAST(CASE WHEN rk = 0 THEN 32 WHEN n <= 2 THEN 16 "
            "WHEN rk <= nl THEN 16 ELSE 140 END AS INTEGER) AS x1, "
            "CAST(CASE WHEN rk = 0 THEN 8 WHEN n <= 2 THEN 48 + (rk-1)*44 "
            "WHEN rk <= nl THEN 48 + (rk-1)*44 ELSE 48 + (rk-1-nl)*44 END AS INTEGER) AS y1, "
            "CAST(CASE WHEN rk = 0 THEN 224 WHEN n <= 2 THEN 240 "
            "WHEN rk <= nl THEN 116 ELSE 240 END AS INTEGER) AS x2, "
            "CAST(CASE WHEN rk = 0 THEN 24 WHEN n <= 2 THEN 80 + (rk-1)*44 "
            "WHEN rk <= nl THEN 80 + (rk-1)*44 ELSE 80 + (rk-1-nl)*44 END AS INTEGER) AS y2 "
            "FROM r"
        ),
        "sitemap_gap": (
            "SELECT 'https://example-' || lpad(CAST(doc_id % 40 AS VARCHAR), 2, '0') "
            "|| '.com/doc-' || lpad(CAST(doc_id AS VARCHAR), 6, '0') AS url "
            "FROM documents WHERE doc_id % 9 = 5"
        ),
        "charset_counts": (
            "SELECT charset, CAST(count(*) AS BIGINT) AS n FROM ("
            "SELECT CASE WHEN doc_id % 19 = 6 THEN 'utf-16-le' "
            "WHEN doc_id % 7 = 4 THEN "
            "CASE (doc_id // 7) % 4 WHEN 0 THEN 'utf-8' WHEN 1 THEN 'iso-8859-1' "
            "WHEN 2 THEN 'windows-1251' ELSE 'gb2312' END "
            "ELSE 'utf-8' END AS charset FROM documents) GROUP BY charset"
        ),
        "sitemap_urls": (
            "SELECT 'https://example-' || lpad(CAST(doc_id % 40 AS VARCHAR), 2, '0') "
            "|| '.com/doc-' || lpad(CAST(doc_id AS VARCHAR), 6, '0') AS url, "
            "CAST(make_date(2025, 1 + (doc_id // 28) % 12, 1 + doc_id % 28) AS TIMESTAMP) AS lastmod, "
            "CASE (doc_id // 7) % 4 WHEN 0 THEN 'daily' WHEN 1 THEN 'weekly' "
            "WHEN 2 THEN 'monthly' ELSE 'never' END AS changefreq, "
            "CAST(CASE WHEN doc_id % 29 = 3 THEN NULL ELSE (doc_id % 11) * 100 END AS INTEGER) AS priority_milli "
            "FROM documents"
        ),
        "image_captions": (
            "WITH dims AS (SELECT doc_id, 24 + doc_id % 9 AS w, 16 + doc_id % 5 AS h "
            "FROM documents WHERE doc_id % 5 = 2) "
            "SELECT d.doc_id, '[image ' || d.w || 'x' || d.h || ' mean ' || "
            "CAST(SUM((7*d.doc_id + p.p) % 256) // (d.w * d.h) AS BIGINT) || ']' AS caption "
            "FROM dims d JOIN generate_series(0, 639) AS p(p) ON p.p < d.w * d.h "
            "GROUP BY d.doc_id, d.w, d.h"
        ),
        "warc_extract_counts": (
            "SELECT status, CAST(count(*) AS BIGINT) AS n_pages, "
            "CAST(sum(chars) AS BIGINT) AS sum_chars FROM ("
            "SELECT CASE WHEN doc_id % 31 = 11 OR doc_id % 23 = 7 "
            "THEN 'failed' ELSE 'finished' END AS status, "
            "CASE WHEN doc_id % 31 = 11 OR doc_id % 23 = 7 THEN 0 "
            "ELSE length('Doc ' || doc_id || chr(10) || chr(10) || trim(text) "
            "|| chr(10) || chr(10) || 'Footer ' || (doc_id % 40)) END AS chars "
            "FROM documents) GROUP BY status"
        ),
        "snm_dedup": f"SELECT doc_id, cluster_id FROM read_parquet('{_GOLDEN_DIR}/snm_dedup.parquet')",
        "phrase_search": (
            "WITH toks AS (SELECT doc_id, string_split_regex(trim(text), '[ \t\n]+') "
            "AS tk FROM documents), "
            "ex AS (SELECT doc_id, unnest(tk) AS tok, generate_subscripts(tk, 1) AS i "
            "FROM toks) "
            "SELECT a.doc_id, CAST(count(*) AS BIGINT) AS n_matches "
            "FROM ex a JOIN ex b ON a.doc_id = b.doc_id AND b.i = a.i + 1 "
            "WHERE a.tok = 'batch' AND b.tok = 'stream' GROUP BY 1"
        ),
        "dp_lang_counts": (
            "WITH c AS (SELECT lang AS key, CAST(count(*) AS BIGINT) AS n "
            "FROM documents GROUP BY 1), "
            "u AS (SELECT key, n, (CAST(('0x' || substr(md5(key), 1, 12)) AS BIGINT) "
            "+ 0.5) / 281474976710656.0 AS uu FROM c) "
            "SELECT key, 1000000 * n + CAST(floor(1000000.0 * "
            "(-1.0 * (CASE WHEN uu >= 0.5 THEN 1.0 ELSE -1.0 END) * "
            "ln(1.0 - 2.0 * abs(uu - 0.5)))) AS BIGINT) AS noisy_count_micro FROM u"
        ),
        "span_corrupted": (
            "WITH toks AS (SELECT doc_id, string_split_regex(trim(text), '[ \t\n]+') "
            "AS tk FROM documents WHERE trim(text) <> ''), "
            "ex AS (SELECT doc_id, unnest(tk) AS tok, generate_subscripts(tk, 1) - 1 "
            "AS i FROM toks), "
            "f AS (SELECT doc_id, tok, i, CASE WHEN i % 4 = 0 AND "
            "substr(md5(CAST(doc_id AS VARCHAR) || '|' || CAST(i AS VARCHAR)), 1, 2) "
            "< '66' THEN 1 ELSE 0 END AS fired FROM ex), "
            "w AS (SELECT doc_id, tok, i, fired, max(fired) OVER (PARTITION BY doc_id "
            "ORDER BY i ROWS BETWEEN 2 PRECEDING AND CURRENT ROW) AS covered, "
            "sum(fired) OVER (PARTITION BY doc_id ORDER BY i ROWS BETWEEN UNBOUNDED "
            "PRECEDING AND CURRENT ROW) AS cum FROM f), "
            "agg AS (SELECT doc_id, string_agg(CASE WHEN fired = 1 THEN "
            "'<extra_id_' || CAST(cum - 1 AS VARCHAR) || '>' WHEN covered = 1 THEN NULL "
            "ELSE tok END, ' ' ORDER BY i) AS corrupted, "
            "string_agg(CASE WHEN fired = 1 THEN '<extra_id_' || CAST(cum - 1 AS VARCHAR) "
            "|| '> ' || tok WHEN covered = 1 THEN tok END, ' ' ORDER BY i) AS span_body, "
            "CAST(max(cum) AS BIGINT) AS n_spans FROM w GROUP BY doc_id) "
            "SELECT doc_id, coalesce(corrupted, '') AS corrupted, "
            "(CASE WHEN span_body IS NULL THEN '' ELSE span_body || ' ' END) || "
            "'<extra_id_' || CAST(n_spans AS VARCHAR) || '>' AS targets, n_spans "
            "FROM agg "
            "UNION ALL SELECT doc_id, '', '', 0 FROM documents WHERE trim(text) = ''"
        ),
        "fd_check_lineitem": (
            "WITH g AS (SELECT l_orderkey, count(DISTINCT l_suppkey) AS nd "
            "FROM lineitem GROUP BY 1) "
            "SELECT 'l_orderkey' AS det, 'l_suppkey' AS dep, "
            "CAST(count(*) AS BIGINT) AS n_keys, "
            "CAST(sum(CASE WHEN nd > 1 THEN 1 ELSE 0 END) AS BIGINT) AS n_violating "
            "FROM g"
        ),
        "ri_orphan_events": (
            "SELECT 'events.user_id->orders.o_custkey' AS relation, "
            "CAST((SELECT count(*) FROM events) AS BIGINT) AS n_child_rows, "
            "CAST((SELECT count(*) FROM events WHERE user_id NOT IN "
            "(SELECT o_custkey FROM orders)) AS BIGINT) AS n_orphans"
        ),
        "coverage_select": f"SELECT rank, doc_id, new_tokens, covered_total FROM read_parquet('{_GOLDEN_DIR}/coverage_select.parquet')",
        "kn_bigram_probs": (
            "WITH toks AS (SELECT doc_id, string_split_regex(trim(text), '[ \t\n]+') "
            "AS tk FROM documents WHERE trim(text) <> ''), "
            "ex AS (SELECT doc_id, unnest(tk) AS tok, generate_subscripts(tk, 1) AS i "
            "FROM toks), "
            "bg AS (SELECT a.tok AS w1, b.tok AS w2, CAST(count(*) AS BIGINT) AS c12 "
            "FROM ex a JOIN ex b ON a.doc_id = b.doc_id AND b.i = a.i + 1 GROUP BY 1, 2), "
            "top AS (SELECT * FROM bg ORDER BY c12 DESC, w1, w2 LIMIT 50), "
            "ctx AS (SELECT w1, CAST(sum(c12) AS BIGINT) AS c1, "
            "CAST(count(*) AS BIGINT) AS n1l FROM bg GROUP BY 1), "
            "cont AS (SELECT w2, CAST(count(*) AS BIGINT) AS n1r FROM bg GROUP BY 1), "
            "nt AS (SELECT CAST(count(*) AS BIGINT) AS n FROM bg) "
            "SELECT t.w1, t.w2, t.c12, "
            "CAST((1000000::HUGEINT * ((4 * t.c12 - 3) * nt.n + 3 * ctx.n1l * cont.n1r)) "
            "// (4 * ctx.c1 * nt.n) AS BIGINT) AS p_micro "
            "FROM top t JOIN ctx USING (w1) JOIN cont USING (w2) CROSS JOIN nt"
        ),
        "negative_samples": (
            "WITH toksl AS (SELECT string_split_regex(trim(text), '[ \t\n]+') AS tk "
            "FROM documents WHERE trim(text) <> ''), "
            "ex AS (SELECT unnest(tk) AS tok FROM toksl), "
            "c AS (SELECT tok, CAST(count(*) AS BIGINT) AS n FROM ex GROUP BY 1), "
            "w AS (SELECT tok, CAST(floor(1000000 * pow(n, 0.75)) AS BIGINT) AS wt "
            "FROM c), "
            "cw AS (SELECT tok, wt, CAST(sum(wt) OVER (ORDER BY tok ROWS BETWEEN "
            "UNBOUNDED PRECEDING AND CURRENT ROW) AS BIGINT) AS cum FROM w), "
            "tot AS (SELECT CAST(sum(wt) AS BIGINT) AS tw FROM w), "
            "draws AS (SELECT c2.tok AS center, j FROM c c2 CROSS JOIN "
            "(SELECT unnest(generate_series(0, 4)) AS j) u), "
            "tv AS (SELECT center, j, CAST((CAST(CAST(('0x' || substr(md5(center || '|' || "
            "CAST(j AS VARCHAR)), 1, 12)) AS BIGINT) AS HUGEINT) * tot.tw) // 281474976710656 "
            "AS BIGINT) AS t FROM draws CROSS JOIN tot) "
            "SELECT tv.center, CAST(tv.j AS BIGINT) AS j, cw.tok AS negative "
            "FROM tv JOIN cw ON tv.t >= cw.cum - cw.wt AND tv.t < cw.cum"
        ),
        "hac_dendrogram": f"SELECT step, cluster_a, cluster_b, dist_sq FROM read_parquet('{_GOLDEN_DIR}/hac_dendrogram.parquet')",
        "cdx_status_counts": (
            "SELECT CAST(CASE WHEN doc_id % 17 = 3 THEN 404 ELSE 200 END AS BIGINT) "
            "AS status, CAST(sum(n_chars) AS BIGINT) AS total_len, "
            "CAST(count(*) AS BIGINT) AS n "
            "FROM documents WHERE doc_id % 37 <> 3 GROUP BY 1"
        ),
        "postings_compression": (
            "WITH toks AS (SELECT doc_id, string_split_regex(trim(text), '[ \t\n]+') "
            "AS tk FROM documents WHERE trim(text) <> ''), "
            "ex AS (SELECT doc_id, unnest(tk) AS tok FROM toks), "
            "p AS (SELECT DISTINCT tok, doc_id FROM ex WHERE tok <> ''), "
            "g AS (SELECT tok, doc_id, coalesce(doc_id - lag(doc_id) OVER "
            "(PARTITION BY tok ORDER BY doc_id), doc_id) AS v FROM p) "
            "SELECT CAST(count(*) AS BIGINT) AS n_postings, "
            "CAST(8 * count(*) AS BIGINT) AS raw_bytes, "
            "CAST(sum(CASE WHEN v < 128 THEN 1 WHEN v < 16384 THEN 2 "
            "WHEN v < 2097152 THEN 3 WHEN v < 268435456 THEN 4 "
            "WHEN v < 34359738368 THEN 5 WHEN v < 4398046511104 THEN 6 "
            "WHEN v < 562949953421312 THEN 7 WHEN v < 72057594037927936 THEN 8 "
            "ELSE 9 END) AS BIGINT) "
            "AS varint_bytes FROM g"
        ),
        "bot_regularity": (
            "WITH g AS (SELECT user_id, CAST(date_diff('microsecond', "
            "lag(ts) OVER (PARTITION BY user_id ORDER BY ts), ts) AS BIGINT) AS gap "
            "FROM events), "
            "s AS (SELECT user_id, CAST(count(*) AS BIGINT) AS n_ev FROM events "
            "GROUP BY 1), "
            "st AS (SELECT user_id, CAST(count(gap) AS HUGEINT) AS n, "
            "CAST(sum(gap) AS HUGEINT) AS sg, sum(CAST(gap AS HUGEINT) * gap) AS sgg "
            "FROM g WHERE gap IS NOT NULL GROUP BY 1) "
            "SELECT s.user_id, s.n_ev AS n_events, "
            "CAST(CASE WHEN sg = 0 THEN 0 ELSE floor(1000000.0 * "
            "sqrt(CAST(n * sgg - sg * sg AS DOUBLE)) / sg) END AS BIGINT) AS cv_micro, "
            "CAST(CASE WHEN sg = 0 THEN 0 ELSE floor(1000000.0 * "
            "sqrt(CAST(n * sgg - sg * sg AS DOUBLE)) / sg) END AS BIGINT) < 200000 "
            "AS is_bot "
            "FROM s JOIN st USING (user_id) WHERE s.n_ev >= 5"
        ),
        "event_trigrams": (
            "WITH s AS (SELECT user_id, event_type AS t1, "
            "lead(event_type, 1) OVER w AS t2, lead(event_type, 2) OVER w AS t3 "
            "FROM events WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id)) "
            "SELECT t1, t2, t3, CAST(count(*) AS BIGINT) AS n FROM s "
            "WHERE t2 IS NOT NULL AND t3 IS NOT NULL "
            "GROUP BY 1, 2, 3 HAVING count(*) >= 2"
        ),
        "semdedup_docs": f"SELECT vec_id, cluster_id, kept FROM read_parquet('{_GOLDEN_DIR}/semdedup_docs.parquet')",
        "dsir_scores": f"SELECT doc_id, logw, n_feats FROM read_parquet('{_GOLDEN_DIR}/dsir_scores.parquet')",
        "incremental_minhash": f"SELECT doc_id, text FROM read_parquet('{_GOLDEN_DIR}/incremental_minhash.parquet')",
        "dsir_sample": f"SELECT doc_id, logw, key FROM read_parquet('{_GOLDEN_DIR}/dsir_sample.parquet')",
        "model_quality_scores": (
            "SELECT doc_id, round(1.0/(1.0+exp(-(-2.0 + 0.5*ln(1+nw) + 2.0*ar + 0.25*ln(1+nc)))), 4) AS score, "
            "(1.0/(1.0+exp(-(-2.0 + 0.5*ln(1+nw) + 2.0*ar + 0.25*ln(1+nc)))) >= 0.5) AS keep FROM ("
            "SELECT doc_id, len(string_split_regex(trim(text), '[ \t\n]+')) AS nw, "
            "CASE WHEN length(text) = 0 THEN 0.0 ELSE length(regexp_replace(text, '[^A-Za-z]', '', 'g')) * 1.0 / length(text) END AS ar, "
            "length(text) AS nc FROM documents)"
        ),
        "normalized_texts": (
            "SELECT doc_id, trim(regexp_replace(lower(nfc_normalize(text)), '\\s+', ' ', 'g')) AS norm_text, "
            "CAST(length(trim(regexp_replace(lower(nfc_normalize(text)), '\\s+', ' ', 'g'))) AS BIGINT) AS n_chars_norm "
            "FROM documents"
        ),
        "lang_id_confusion": f"SELECT lang, lang_pred, n FROM read_parquet('{_GOLDEN_DIR}/lang_id_confusion.parquet')",
        "kappa_lang_id": f"SELECT n, po_micro, pe_micro, kappa_micro FROM read_parquet('{_GOLDEN_DIR}/kappa_lang_id.parquet')",
        "jw_vocab_pairs": f"SELECT w1, w2, jw_micro FROM read_parquet('{_GOLDEN_DIR}/jw_vocab_pairs.parquet')",
        "fingerprint_dups": f"SELECT fingerprint, n_docs, min_doc_id FROM read_parquet('{_GOLDEN_DIR}/fingerprint_dups.parquet')",
        "merge_docs": (
            "SELECT doc_url, n_pages, extracted_text, extracted_text_nohf "
            f"FROM read_parquet('{_GOLDEN_DIR}/merge_docs.parquet')"
        ),
        "docs_outside_blocklist": (
            "SELECT doc_id FROM documents WHERE doc_id % 40 NOT IN (0, 7, 13, 21, 34)"
        ),
        "nations_with_presence": (
            "SELECT DISTINCT nationkey FROM ("
            "SELECT c_nationkey AS nationkey FROM customer "
            "UNION ALL SELECT s_nationkey FROM supplier)"
        ),
        "approx_distinct_users": (
            f"SELECT approx_distinct FROM read_parquet('{_GOLDEN_DIR}/approx_distinct_users.parquet')"
        ),
        "regional_supplier_volume": (
            "SELECT n_name, sum(l_extendedprice * (1 - l_discount)) AS revenue "
            "FROM customer, orders, lineitem, supplier, nation, region "
            "WHERE c_custkey = o_custkey AND l_orderkey = o_orderkey "
            "AND l_suppkey = s_suppkey AND c_nationkey = s_nationkey "
            "AND s_nationkey = n_nationkey AND n_regionkey = r_regionkey "
            "AND r_name = 'ASIA' AND o_orderdate >= TIMESTAMP '1996-01-01' "
            "AND o_orderdate < TIMESTAMP '1998-01-01' GROUP BY n_name"
        ),
        "user_activity_buckets": (
            "WITH c AS (SELECT user_id, count(*) AS n FROM events GROUP BY 1) "
            "SELECT CAST(floor(log2(n)) AS BIGINT) AS bucket, "
            "CAST(count(*) AS BIGINT) AS n_users FROM c GROUP BY 1"
        ),
        "daily_anomalies": (
            "WITH d AS (SELECT CAST(date_trunc('day', ts) AS TIMESTAMP) AS day, event_type, "
            "CAST(count(*) AS BIGINT) AS n FROM events GROUP BY 1, 2), "
            "stats AS (SELECT event_type, avg(n) AS m, stddev_pop(n) AS sd FROM d GROUP BY 1) "
            "SELECT day, d.event_type, n, "
            "round(CASE WHEN sd > 0 THEN (n - m) / sd ELSE 0 END, 4) AS z "
            "FROM d JOIN stats USING (event_type) "
            "WHERE sd > 0 AND abs((n - m) / sd) > 1.5"
        ),
        "cohort_retention": (
            "WITH uw AS (SELECT DISTINCT user_id, CAST(date_trunc('week', ts) AS TIMESTAMP) AS week FROM events), "
            "c AS (SELECT user_id, min(week) AS cohort_week FROM uw GROUP BY 1) "
            "SELECT c.cohort_week, date_diff('day', c.cohort_week, uw.week) // 7 AS offset_weeks, "
            "CAST(count(*) AS BIGINT) AS n_users "
            "FROM uw JOIN c USING (user_id) GROUP BY 1, 2"
        ),
        "bm25_scores": (
            "WITH tok2 AS (SELECT doc_id, w FROM "
            "(SELECT doc_id, unnest(regexp_split_to_array(text, '\\s+')) AS w FROM documents) "
            "WHERE w <> ''), "
            "dl AS (SELECT doc_id, count(*) AS dl FROM tok2 GROUP BY 1), "
            "corpus AS (SELECT (SELECT count(*) FROM documents) AS n, (SELECT count(*) FROM tok2) AS tot), "
            "tf AS (SELECT doc_id, w AS term, count(*) AS tf FROM tok2 "
            "WHERE w IN ('data', 'join', 'spark') GROUP BY 1, 2), "
            "df AS (SELECT term, count(*) AS df FROM tf GROUP BY 1) "
            "SELECT tf.doc_id, tf.term, CAST(tf.tf AS BIGINT) AS tf, "
            "round(ln(1 + (corpus.n - df.df + 0.5)/(df.df + 0.5)) * tf.tf*(1.2+1.0)/"
            "(tf.tf + 1.2*(1.0 - 0.75 + 0.75*dl.dl/(corpus.tot*1.0/corpus.n))), 4) AS bm25 "
            "FROM tf JOIN dl USING (doc_id) JOIN df USING (term), corpus"
        ),
        "host_triangles": (
            "WITH raw AS ("
            "SELECT doc_id % 40 AS s, (doc_id * 3) % 40 AS d FROM documents "
            "UNION ALL SELECT doc_id % 40, (doc_id * 7) % 40 FROM documents "
            "UNION ALL SELECT doc_id % 40, (doc_id * 11) % 40 FROM documents "
            "UNION ALL SELECT doc_id % 40, (doc_id % 40 + 1) % 40 FROM documents), "
            "e AS (SELECT DISTINCT least(s, d) AS a, greatest(s, d) AS b FROM raw WHERE s <> d) "
            "SELECT CAST(count(*) AS BIGINT) AS n_triangles "
            "FROM e e1 JOIN e e2 ON e1.a = e2.a AND e1.b < e2.b "
            "JOIN e e3 ON e3.a = e1.b AND e3.b = e2.b"
        ),
        "order_window_overlap": (
            "WITH w AS (SELECT CAST(k AS BIGINT) AS window_id, "
            "TIMESTAMP '1992-01-01' + (k * 90) * INTERVAL 1 DAY AS w_lo, "
            "TIMESTAMP '1992-01-01' + (k * 90 + 120) * INTERVAL 1 DAY AS w_hi "
            "FROM (SELECT unnest(range(28)) AS k)) "
            "SELECT w.window_id, CAST(count(*) AS BIGINT) AS n_orders, "
            "SUM(o.o_totalprice) AS total_value "
            "FROM w JOIN orders o "
            "ON w.w_lo <= o.o_orderdate + INTERVAL 7 DAY "
            "AND o.o_orderdate <= w.w_hi "
            "GROUP BY w.window_id"
        ),
        "crawl_depths": (
            "WITH RECURSIVE e AS ("
            "SELECT DISTINCT (doc_id % 40) AS src, ((doc_id * 3) % 40) AS dst FROM documents "
            "UNION SELECT DISTINCT (doc_id % 40), ((doc_id * 7) % 40) FROM documents "
            "UNION SELECT DISTINCT (doc_id % 40), ((doc_id * 11) % 40) FROM documents), "
            "r(host, depth) AS ("
            "SELECT host, 0 FROM (VALUES (1), (2)) AS seeds(host) "
            "UNION SELECT e.dst, r.depth + 1 FROM r JOIN e ON e.src = r.host "
            "WHERE r.depth < 16) "
            "SELECT CAST(host AS BIGINT) AS host, CAST(MIN(depth) AS BIGINT) AS depth "
            "FROM r GROUP BY host"
        ),
        "host_hits": (
            f"SELECT host, hub_rel, auth_rel FROM read_parquet('{_GOLDEN_DIR}/host_hits.parquet')"
        ),
        "cdc_dedup_stats": (
            f"SELECT * FROM read_parquet('{_GOLDEN_DIR}/cdc_dedup_stats.parquet')"
        ),
        "host_trustrank": (
            f"SELECT host, trust_rel FROM read_parquet('{_GOLDEN_DIR}/host_trustrank.parquet')"
        ),
        "price_quantiles": (
            "SELECT unnest([0.25, 0.5, 0.75, 0.95, 0.99]) AS q, "
            "unnest(quantile_disc(l_extendedprice, [0.25, 0.5, 0.75, 0.95, 0.99])) AS value "
            "FROM lineitem"
        ),
        "order_value_quantiles": (
            "SELECT o_orderpriority, unnest([0.5, 0.9, 0.99]) AS q, "
            "unnest(quantile_disc(o_totalprice, [0.5, 0.9, 0.99])) AS value "
            "FROM orders GROUP BY o_orderpriority"
        ),
        # token co-occurrence PMI: doc-frequency counts over the exact
        # top-32 whitespace vocabulary, ln rounded 9 dp on both engines
        # host-capped global top-k: per-host rank first, then global
        "diverse_top_docs": (
            "WITH h AS (SELECT doc_id, n_chars, "
            "'example-' || lpad(CAST(doc_id % 40 AS VARCHAR), 2, '0') AS host "
            "FROM documents), "
            "r AS (SELECT *, row_number() OVER (PARTITION BY host "
            "ORDER BY n_chars DESC, doc_id) AS rn FROM h) "
            "SELECT doc_id, host, n_chars FROM r WHERE rn <= 2 "
            "ORDER BY n_chars DESC, doc_id LIMIT 20"
        ),
        # TPC-H Q7: bidirectional two-nation trade volume by ship year
        "volume_shipping": (
            "SELECT supp_nation, cust_nation, year, sum(volume) AS revenue FROM ("
            "SELECT n1.n_name AS supp_nation, n2.n_name AS cust_nation, "
            "CAST(year(l_shipdate) AS BIGINT) AS year, "
            "l_extendedprice * (1 - l_discount) AS volume "
            "FROM supplier, lineitem, orders, customer, nation n1, nation n2 "
            "WHERE s_suppkey = l_suppkey AND o_orderkey = l_orderkey "
            "AND c_custkey = o_custkey AND s_nationkey = n1.n_nationkey "
            "AND c_nationkey = n2.n_nationkey "
            "AND ((n1.n_name = 'NATION_3' AND n2.n_name = 'NATION_7') "
            "OR (n1.n_name = 'NATION_7' AND n2.n_name = 'NATION_3')) "
            "AND l_shipdate >= TIMESTAMP '1996-01-01' "
            "AND l_shipdate < TIMESTAMP '1998-01-01') GROUP BY 1, 2, 3"
        ),
        "pseudonymized_events": (
            "SELECT event_id, substr(md5('graft:' || CAST(user_id AS VARCHAR)), 1, 16) "
            "AS user_id_pseud FROM events"
        ),
        # fixture: base text has no PII (asserted by scrub_documents'
        # identity oracle); injected spans redact to a constant suffix
        "pii_scrub_audit": (
            "SELECT doc_id, "
            "CASE WHEN doc_id % 6 = 1 THEN text || ' contact <EMAIL> or <IP> at <URL>' "
            "ELSE text END AS text_scrubbed, "
            "CAST(CASE WHEN doc_id % 6 = 1 THEN 1 ELSE 0 END AS BIGINT) AS n_email, "
            "CAST(0 AS BIGINT) AS n_phone, "
            "CAST(CASE WHEN doc_id % 6 = 1 THEN 1 ELSE 0 END AS BIGINT) AS n_ip, "
            "CAST(CASE WHEN doc_id % 6 = 1 THEN 1 ELSE 0 END AS BIGINT) AS n_url "
            "FROM documents"
        ),
        # Zipf OLS over top-64 (count, rank): same tokenization/rank
        # tie-break as build_vocab; micro-units via round()
        "zipf_fit": (
            "WITH cnt AS (SELECT w AS token, count(*) AS n FROM "
            "(SELECT unnest(regexp_split_to_array(text, '\\s+')) AS w FROM documents) "
            "WHERE w <> '' GROUP BY 1), "
            "top AS (SELECT n, row_number() OVER (ORDER BY n DESC, token) AS r "
            "FROM cnt QUALIFY r <= 64) "
            "SELECT CAST(count(*) AS BIGINT) AS v, "
            "CAST(round(regr_slope(ln(n), ln(r)) * 1000000) AS BIGINT) AS slope_micro, "
            "CAST(round(regr_intercept(ln(n), ln(r)) * 1000000) AS BIGINT) AS intercept_micro, "
            "CAST(round(regr_r2(ln(n), ln(r)) * 1000000) AS BIGINT) AS r2_micro "
            "FROM top"
        ),
        # RRF fusion of the bm25_scores lexical CTE (micro-int totals)
        # and DOUBLE-cosine semantic ranks; integer floor-div fusion
        "hybrid_retrieval": (
            "WITH tok2 AS (SELECT doc_id, w FROM "
            "(SELECT doc_id, unnest(regexp_split_to_array(text, '\\s+')) AS w FROM documents) "
            "WHERE w <> ''), "
            "dl AS (SELECT doc_id, count(*) AS dl FROM tok2 GROUP BY 1), "
            "corpus AS (SELECT (SELECT count(*) FROM documents) AS n, (SELECT count(*) FROM tok2) AS tot), "
            "tf AS (SELECT doc_id, w AS term, count(*) AS tf FROM tok2 "
            "WHERE w IN ('data', 'join', 'spark') GROUP BY 1, 2), "
            "df AS (SELECT term, count(*) AS df FROM tf GROUP BY 1), "
            "sc AS (SELECT tf.doc_id, CAST(round(round(ln(1 + (corpus.n - df.df + 0.5)/(df.df + 0.5)) "
            "* tf.tf*(1.2+1.0)/(tf.tf + 1.2*(1.0 - 0.75 + 0.75*dl.dl/(corpus.tot*1.0/corpus.n))), 4) "
            "* 10000) AS BIGINT) AS q "
            "FROM tf JOIN dl USING (doc_id) JOIN df USING (term), corpus), "
            "lex AS (SELECT doc_id, sum(q) AS s FROM sc GROUP BY 1), "
            "lexr AS (SELECT doc_id, row_number() OVER (ORDER BY s DESC, doc_id) AS r "
            "FROM lex QUALIFY r <= 50), "
            "qv AS (SELECT CAST(embedding AS DOUBLE[]) AS qe FROM embeddings WHERE vec_id = 7), "
            "annr AS (SELECT e.vec_id AS doc_id, row_number() OVER ("
            "ORDER BY list_cosine_similarity(qv.qe, CAST(e.embedding AS DOUBLE[])) DESC, e.vec_id) AS r "
            "FROM embeddings e, qv QUALIFY r <= 50), "
            "contrib AS (SELECT doc_id, 1000000000 // (60 + r) AS c FROM lexr "
            "UNION ALL SELECT doc_id, 1000000000 // (60 + r) FROM annr), "
            "f AS (SELECT doc_id, CAST(sum(c) AS BIGINT) AS rrf_q FROM contrib GROUP BY 1) "
            "SELECT doc_id, rrf_q, CAST(row_number() OVER (ORDER BY rrf_q DESC, doc_id) AS BIGINT) AS rank "
            "FROM f QUALIFY rank <= 10"
        ),
        # locale-stripped url = the alignment key; pairs need different
        # langs, emitted once with lang_a < lang_b
        "aligned_page_pairs": (
            "WITH u AS (SELECT doc_id, lang, "
            "'https://example-' || lpad(CAST((doc_id % 250) % 40 AS VARCHAR), 2, '0') "
            "|| '.com/page-' || lpad(CAST(doc_id % 250 AS VARCHAR), 6, '0') AS page_key "
            "FROM documents) "
            "SELECT a.page_key, a.lang AS lang_a, a.doc_id AS doc_a, "
            "b.lang AS lang_b, b.doc_id AS doc_b "
            "FROM u a JOIN u b ON a.page_key = b.page_key AND a.lang < b.lang"
        ),
        # positional skip-gram pairs: same tokenization/vocab as
        # token_pmi, distance = position delta over non-empty tokens
        "skipgram_cooc": (
            "WITH toks AS (SELECT doc_id, list_filter(regexp_split_to_array(text, '\\s+'), "
            "t -> t <> '') AS arr FROM documents), "
            "cnt AS (SELECT unnest(arr) AS token FROM toks), "
            "vocab AS (SELECT token FROM (SELECT token, count(*) AS n FROM cnt "
            "GROUP BY token) ORDER BY n DESC, token LIMIT 32), "
            "pos AS (SELECT doc_id, unnest(arr) AS w, generate_subscripts(arr, 1) AS p FROM toks), "
            "vp AS (SELECT doc_id, w, p FROM pos WHERE w IN (SELECT token FROM vocab)) "
            "SELECT a.w AS token_a, b.w AS token_b, CAST(count(*) AS BIGINT) AS n "
            "FROM vp a JOIN vp b ON a.doc_id = b.doc_id AND b.p - a.p BETWEEN 1 AND 3 "
            "GROUP BY a.w, b.w"
        ),
        "token_pmi": (
            "WITH toks AS (SELECT doc_id, list_filter(regexp_split_to_array(text, '\\s+'), "
            "t -> t <> '') AS arr FROM documents), "
            "cnt AS (SELECT unnest(arr) AS token FROM toks), "
            "vocab AS (SELECT token FROM (SELECT token, count(*) AS n FROM cnt "
            "GROUP BY token) ORDER BY n DESC, token LIMIT 32), "
            "dt AS (SELECT DISTINCT doc_id, token FROM "
            "(SELECT doc_id, unnest(arr) AS token FROM toks) "
            "WHERE token IN (SELECT token FROM vocab)), "
            "ca AS (SELECT token, count(*) AS c FROM dt GROUP BY token), "
            "pairs AS (SELECT a.token AS token_a, b.token AS token_b, count(*) AS n_ab "
            "FROM dt a JOIN dt b ON a.doc_id = b.doc_id AND a.token < b.token "
            "GROUP BY a.token, b.token) "
            "SELECT token_a, token_b, n_ab, "
            "round(ln(CAST(n_ab AS DOUBLE) * (SELECT count(*) FROM documents) "
            "/ (ca1.c * ca2.c)), 9) AS pmi "
            "FROM pairs JOIN ca ca1 ON pairs.token_a = ca1.token "
            "JOIN ca ca2 ON pairs.token_b = ca2.token WHERE n_ab >= 2"
        ),
        # inverted-index AND retrieval: distinct (doc, term) tf rows for
        # the probe terms, docs matching all three
        "keyword_search": (
            "WITH toks AS (SELECT doc_id, list_filter(regexp_split_to_array(text, '\\s+'), "
            "t -> t <> '') AS arr FROM documents), "
            "ex AS (SELECT doc_id, unnest(arr) AS token FROM toks), "
            "m AS (SELECT doc_id, token, count(*) AS tf FROM ex "
            "WHERE token IN ('customer', 'filter', 'merge') GROUP BY doc_id, token) "
            "SELECT doc_id, CAST(count(*) AS BIGINT) AS n_terms, "
            "CAST(sum(tf) AS BIGINT) AS total_tf "
            "FROM m GROUP BY doc_id HAVING count(*) = 3"
        ),
        "host_random_walks": (
            "SELECT start_host, walk_id, step, host FROM "
            f"read_parquet('{_GOLDEN_DIR}/host_random_walks.parquet')"
        ),
        # robots gate: longest-prefix wins, equal-length allow beats
        # disallow, no rule = allowed
        "robots_allowed": (
            "WITH pages AS (SELECT 'https://example-' || "
            "lpad(CAST(doc_id % 40 AS VARCHAR), 2, '0') || '.com/doc-' || "
            "lpad(CAST(doc_id AS VARCHAR), 6, '0') AS url, doc_id % 40 AS nn, "
            "'/doc-' || lpad(CAST(doc_id AS VARCHAR), 6, '0') AS path FROM documents), "
            "rules AS (SELECT nn, '/' AS prefix, FALSE AS allow FROM range(40) t(nn) "
            "WHERE nn % 10 = 7 "
            "UNION ALL SELECT nn, '/doc-00', FALSE FROM range(40) t(nn) WHERE nn % 3 = 0 "
            "UNION ALL SELECT nn, '/doc-000', TRUE FROM range(40) t(nn) WHERE nn % 6 = 0), "
            "m AS (SELECT p.url, r.allow, length(r.prefix) AS l FROM pages p "
            "JOIN rules r ON p.nn = r.nn AND starts_with(p.path, r.prefix)), "
            "best AS (SELECT url, allow, row_number() OVER "
            "(PARTITION BY url ORDER BY l DESC, allow DESC) AS rn FROM m) "
            "SELECT p.url, COALESCE(b.allow, TRUE) AS allowed FROM pages p "
            "LEFT JOIN (SELECT url, allow FROM best WHERE rn = 1) b USING (url)"
        ),
        "walk_skipgrams": (
            "WITH w AS (SELECT * FROM "
            f"read_parquet('{_GOLDEN_DIR}/host_random_walks.parquet')) "
            "SELECT a.host AS center, b.host AS context, count(*) AS n "
            "FROM w a JOIN w b ON a.start_host = b.start_host "
            "AND a.walk_id = b.walk_id "
            "AND abs(a.step - b.step) BETWEEN 1 AND 2 "
            "GROUP BY a.host, b.host"
        ),
        # modularity over the planted-community fixture: exact integer
        # numerator (4m*sum(ec) - sum(dsum^2)) / (4m^2), one division
        "community_modularity": (
            "WITH e0 AS ("
            "SELECT doc_id % 400 AS s, doc_id % 400 + 1 AS d FROM documents "
            "WHERE (doc_id % 400) % 16 < 15 "
            "UNION ALL SELECT doc_id % 400, doc_id % 400 + 2 FROM documents "
            "WHERE (doc_id % 400) % 16 < 14 "
            "UNION ALL SELECT doc_id % 400, (doc_id % 400 + 16) % 400 FROM documents "
            "WHERE doc_id % 89 = 0), "
            "e AS (SELECT DISTINCT least(s, d) AS a, greatest(s, d) AS b "
            "FROM e0 WHERE s <> d), "
            "c AS (SELECT host, community FROM "
            f"read_parquet('{_GOLDEN_DIR}/host_communities.parquet')), "
            "mm AS (SELECT count(*) AS m FROM e), "
            "intra AS (SELECT ca.community, count(*) AS ec FROM e "
            "JOIN c ca ON e.a = ca.host JOIN c cb ON e.b = cb.host "
            "WHERE ca.community = cb.community GROUP BY ca.community), "
            "deg AS (SELECT host, count(*) AS dg FROM "
            "(SELECT a AS host FROM e UNION ALL SELECT b FROM e) GROUP BY host), "
            "dc AS (SELECT community, CAST(sum(dg) AS BIGINT) AS dsum "
            "FROM deg JOIN c USING (host) GROUP BY community) "
            "SELECT CAST(mm.m AS BIGINT) AS n_edges, "
            "CAST((SELECT count(DISTINCT community) FROM c) AS BIGINT) AS n_communities, "
            "round((4 * mm.m * (SELECT CAST(sum(ec) AS BIGINT) FROM intra) "
            "- (SELECT CAST(sum(dsum * dsum) AS BIGINT) FROM dc)) "
            "/ (4.0 * mm.m * mm.m), 9) AS modularity FROM mm"
        ),
        # compaction must preserve content byte-exactly
        "compact_roundtrip": (
            "SELECT doc_id, text, lang, source, n_chars FROM documents"
        ),
        # Naive Bayes language ID, integer micro-unit scoring
        "nb_lang_predictions": (
            "WITH train AS (SELECT doc_id, lang, text FROM documents WHERE doc_id % 3 <> 0), "
            "test AS (SELECT doc_id, text FROM documents WHERE doc_id % 3 = 0), "
            "ttoks AS (SELECT lang, unnest(list_filter(regexp_split_to_array(text, '\\s+'), "
            "t -> t <> '')) AS token FROM train), "
            "vocab AS (SELECT token FROM (SELECT token, count(*) AS n FROM ttoks "
            "GROUP BY token) ORDER BY n DESC, token LIMIT 64), "
            "langs AS (SELECT DISTINCT lang FROM train), "
            "cnts AS (SELECT l.lang, v.token, "
            "(SELECT count(*) FROM ttoks tt WHERE tt.lang = l.lang AND tt.token = v.token) AS c "
            "FROM langs l CROSS JOIN vocab v), "
            "tot AS (SELECT lang, sum(c) AS t FROM cnts GROUP BY lang), "
            "logp AS (SELECT c.lang, c.token, CAST(floor(ln((c.c + 1.0) / "
            "(tot.t + (SELECT count(*) FROM vocab))) "
            "* 1000000) AS BIGINT) AS lp FROM cnts c JOIN tot USING (lang)), "
            "prior AS (SELECT lang, CAST(floor(ln(count(*) * 1.0 / "
            "(SELECT count(*) FROM train)) * 1000000) AS BIGINT) AS pm "
            "FROM train GROUP BY lang), "
            "dtoks AS (SELECT doc_id, token, count(*) AS tf FROM "
            "(SELECT doc_id, unnest(list_filter(regexp_split_to_array(text, '\\s+'), "
            "t -> t <> '')) AS token FROM test) "
            "WHERE token IN (SELECT token FROM vocab) GROUP BY doc_id, token), "
            "scores AS (SELECT t.doc_id, p.lang, p.pm + COALESCE(CAST(sum(d.tf * lg.lp) "
            "AS BIGINT), 0) AS sc FROM test t CROSS JOIN prior p "
            "LEFT JOIN dtoks d ON d.doc_id = t.doc_id "
            "LEFT JOIN logp lg ON lg.lang = p.lang AND lg.token = d.token "
            "GROUP BY t.doc_id, p.lang, p.pm), "
            "ranked AS (SELECT doc_id, lang, sc, row_number() OVER "
            "(PARTITION BY doc_id ORDER BY sc DESC, lang ASC) AS rn FROM scores) "
            "SELECT doc_id, lang AS pred_label, sc AS score_micro "
            "FROM ranked WHERE rn = 1"
        ),
        "host_scc": (
            "SELECT host, scc_id FROM "
            f"read_parquet('{_GOLDEN_DIR}/host_scc.parquet')"
        ),
        "lang_stratified_sample": (
            "SELECT doc_id, lang FROM (SELECT doc_id, lang, row_number() OVER "
            "(PARTITION BY lang ORDER BY md5(CAST(doc_id AS VARCHAR) || ':7')) AS rn "
            "FROM documents) WHERE rn <= 5"
        ),
        # Gini of per-host doc counts: integer sums, one division
        "host_doc_gini": (
            "WITH h AS (SELECT CASE WHEN doc_id % 2 = 0 THEN 0 "
            "ELSE doc_id % 40 END AS host FROM documents), "
            "cnts AS (SELECT host, count(*) AS c FROM h GROUP BY host), "
            "ranked AS (SELECT c, row_number() OVER (ORDER BY c, host) AS i FROM cnts) "
            "SELECT CAST((SELECT count(*) FROM cnts) AS BIGINT) AS n_keys, "
            "CAST((SELECT sum(c) FROM cnts) AS BIGINT) AS n_rows, "
            "round((2.0 * sum(i * c)) / ((SELECT count(*) FROM cnts) * (SELECT sum(c) FROM cnts)) "
            "- ((SELECT count(*) FROM cnts) + 1.0) / (SELECT count(*) FROM cnts), 9) AS gini "
            "FROM ranked"
        ),
        # equi-depth histogram: quantile_disc boundaries, right-closed
        # binning, integer-cents sums
        "order_value_histogram": (
            "WITH v AS (SELECT o_totalprice AS p FROM orders), "
            "bounds AS (SELECT quantile_disc(p, 1/8.0) AS b FROM v UNION ALL SELECT quantile_disc(p, 2/8.0) AS b FROM v UNION ALL SELECT quantile_disc(p, 3/8.0) AS b FROM v UNION ALL SELECT quantile_disc(p, 4/8.0) AS b FROM v UNION ALL SELECT quantile_disc(p, 5/8.0) AS b FROM v UNION ALL SELECT quantile_disc(p, 6/8.0) AS b FROM v UNION ALL SELECT quantile_disc(p, 7/8.0) AS b FROM v), "
            "binned AS (SELECT (SELECT count(*) FROM bounds WHERE b <= p) AS bin, p FROM v) "
            "SELECT CAST(bin AS BIGINT) AS bin, count(*) AS n, "
            "CAST(sum(CAST(round(p * 100) AS BIGINT)) AS BIGINT) AS sum_cents "
            "FROM binned GROUP BY bin"
        ),
        # fixture table rule: normal docs with doc_id%4==1 carry a 2x3
        # table whose cell (r,c) = 'r{r}c{c}-{(doc_id*(r*3+c+1))%97}'
        "html_table_cells": (
            "SELECT doc_id, CAST(0 AS BIGINT) AS table_idx, "
            "CAST(r AS BIGINT) AS row_idx, CAST(c AS BIGINT) AS col_idx, "
            "'r' || r || 'c' || c || '-' || CAST((doc_id * (r * 3 + c + 1)) % 97 AS VARCHAR) AS cell "
            "FROM documents "
            "CROSS JOIN generate_series(0, 1) tr(r) CROSS JOIN generate_series(0, 2) tc(c) "
            "WHERE doc_id % 4 = 1 AND doc_id % 31 <> 11 AND doc_id % 23 <> 7"
        ),
        # first capture per (url, UTC day); day = floor(epoch/86400)
        "recrawl_window_dedup": (
            "WITH caps AS (SELECT "
            "'https://example-' || lpad(CAST(doc_id % 40 AS VARCHAR), 2, '0') "
            "|| '.com/doc-' || lpad(CAST(doc_id AS VARCHAR), 6, '0') AS url, "
            "TIMESTAMP '2025-01-01' + doc_id * INTERVAL 137 SECOND + off * INTERVAL 1 SECOND AS warc_ts "
            "FROM documents CROSS JOIN (VALUES (0), (21600), (108000)) o(off)), "
            "w AS (SELECT url, warc_ts, "
            "CAST(epoch(warc_ts) AS BIGINT) // 86400 AS win_id FROM caps), "
            "r AS (SELECT url, warc_ts, win_id, "
            "row_number() OVER (PARTITION BY url, win_id ORDER BY warc_ts) AS rn FROM w) "
            "SELECT url, warc_ts, win_id FROM r WHERE rn = 1"
        ),
        # robust modified z in integer micro-units: floor-div only
        "mad_outlier_scores": (
            "WITH med AS (SELECT quantile_disc(n_chars, 0.5) AS m FROM documents), "
            "mad AS (SELECT quantile_disc(abs(n_chars - (SELECT m FROM med)), 0.5) AS d FROM documents) "
            "SELECT doc_id, CAST(n_chars AS BIGINT) AS n_chars, "
            "CAST(abs(n_chars - (SELECT m FROM med)) AS BIGINT) AS dev, "
            "CAST((6745 * abs(n_chars - (SELECT m FROM med)) * 100) // (SELECT d FROM mad) AS BIGINT) AS score_micro, "
            "CAST(CASE WHEN (6745 * abs(n_chars - (SELECT m FROM med)) * 100) // (SELECT d FROM mad) > 3500000 "
            "THEN 1 ELSE 0 END AS BIGINT) AS is_outlier "
            "FROM documents"
        ),
        # exact centroid sufficient stats: 2^20-quantized integer sums
        "label_centroids": (
            "WITH ex AS (SELECT CAST(label AS BIGINT) AS label, "
            "CAST(generate_subscripts(embedding, 1) - 1 AS BIGINT) AS dim, "
            "CAST(unnest(embedding) AS DOUBLE) AS x FROM embeddings) "
            "SELECT label, dim, "
            "CAST(sum(CAST(round(x * 1048576) AS BIGINT)) AS BIGINT) AS sum_q, "
            "CAST(count(*) AS BIGINT) AS n "
            "FROM ex GROUP BY label, dim"
        ),
        # zone-map pruning must not change results
        "chars_range_pruned": (
            "SELECT doc_id, n_chars FROM documents "
            "WHERE n_chars BETWEEN 500 AND 900"
        ),
        "csv_roundtrip": (
            "SELECT doc_id, text, lang, source, n_chars FROM documents"
        ),
        "ipc_roundtrip": (
            "SELECT doc_id, text, lang, source, n_chars FROM documents"
        ),
        "orc_roundtrip": (
            "SELECT doc_id, lang, source, n_chars FROM documents"
        ),
        "winsorized_stats": (
            "WITH c AS (SELECT event_type, CAST(round(value * 100) AS BIGINT) AS cents "
            "FROM events), "
            "r AS (SELECT event_type, cents, "
            "row_number() OVER (PARTITION BY event_type ORDER BY cents) AS rn, "
            "count(*) OVER (PARTITION BY event_type) AS n FROM c), "
            "b AS (SELECT event_type, "
            "max(CASE WHEN rn = CAST(ceil(0.05 * n) AS BIGINT) THEN cents END) AS lo, "
            "max(CASE WHEN rn = CAST(ceil(0.95 * n) AS BIGINT) THEN cents END) AS hi, "
            "CAST(max(n) AS BIGINT) AS n FROM r GROUP BY event_type) "
            "SELECT b.event_type, b.n, b.lo AS lo_cents, b.hi AS hi_cents, "
            "CAST(sum(c.cents) AS BIGINT) AS raw_sum_cents, "
            "CAST(sum(least(greatest(c.cents, b.lo), b.hi)) AS BIGINT) AS wins_sum_cents "
            "FROM c JOIN b USING (event_type) "
            "GROUP BY b.event_type, b.n, b.lo, b.hi"
        ),
        "host_betweenness": (
            "SELECT host, betweenness_micro FROM "
            f"read_parquet('{_GOLDEN_DIR}/host_betweenness.parquet')"
        ),
        "interval_coverage": (
            "WITH iv AS (SELECT user_id, epoch_us(ts) AS s, epoch_us(ts) + "
            "((abs(CAST(round(value * 100) AS BIGINT)) % 3600) + 60) * 1000000 AS e "
            "FROM events), "
            "m AS (SELECT user_id, s, e, max(e) OVER (PARTITION BY user_id "
            "ORDER BY s, e ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING) "
            "AS prev_max FROM iv), "
            "g AS (SELECT user_id, s, e, CASE WHEN prev_max IS NULL "
            "OR s > prev_max THEN 1 ELSE 0 END AS ni FROM m), "
            "i AS (SELECT user_id, s, e, sum(ni) OVER (PARTITION BY user_id "
            "ORDER BY s, e ROWS UNBOUNDED PRECEDING) AS island FROM g), "
            "isl AS (SELECT user_id, island, min(s) AS st, max(e) AS en, "
            "count(*) AS cnt FROM i GROUP BY user_id, island) "
            "SELECT user_id, CAST(sum(cnt) AS BIGINT) AS n_events, "
            "CAST(count(*) AS BIGINT) AS n_islands, "
            "CAST(sum(en - st) AS BIGINT) AS covered_us "
            "FROM isl GROUP BY user_id"
        ),
        "nfkc_audit": (
            # mirror of the compat_text injection: %13==6 → 'ＡＢ'
            # (NFKC 'AB'), %13==9 → ligature (NFKC 'fi'), %17==2 → '①'
            # (NFKC '1'); the 13-rules are exclusive, the 17-rule stacks
            "SELECT doc_id, "
            "text || CASE WHEN doc_id % 13 = 6 THEN 'AB' "
            "WHEN doc_id % 13 = 9 THEN 'fi' ELSE '' END || "
            "CASE WHEN doc_id % 17 = 2 THEN '1' ELSE '' END AS text_nfkc, "
            "CAST(CASE WHEN doc_id % 13 IN (6, 9) OR doc_id % 17 = 2 "
            "THEN 1 ELSE 0 END AS BIGINT) AS changed, "
            "CAST(length(text) + CASE WHEN doc_id % 13 = 6 THEN 2 "
            "WHEN doc_id % 13 = 9 THEN 1 ELSE 0 END + "
            "CASE WHEN doc_id % 17 = 2 THEN 1 ELSE 0 END AS BIGINT) AS len_before, "
            "CAST(length(text) + CASE WHEN doc_id % 13 IN (6, 9) THEN 2 ELSE 0 END + "
            "CASE WHEN doc_id % 17 = 2 THEN 1 ELSE 0 END AS BIGINT) AS len_after "
            "FROM documents"
        ),
        "readability_scores": (
            "WITH c AS (SELECT doc_id, "
            "CAST(len(regexp_extract_all(text, '\\S+')) AS BIGINT) AS w, "
            "CAST(greatest(len(regexp_extract_all(text, '[.!?]+')), 1) AS BIGINT) AS s, "
            "CAST(len(regexp_extract_all(text, '[aeiouyAEIOUY]+')) AS BIGINT) AS y "
            "FROM documents) "
            "SELECT doc_id, w AS n_words, s AS n_sentences, y AS n_syllables, "
            "CAST(floor(206835000.0 - 1015000.0 * w / s "
            "- 84600000.0 * y / greatest(w, 1)) AS BIGINT) AS flesch_micro FROM c"
        ),
        "jsonld_metadata": (
            # mirror of the JSONLD_MOD fixture arithmetic; failed
            # (%31==11) and fallback (%23==7) pages carry no block
            "SELECT doc_id, "
            "CASE ((doc_id // 8) % 3) WHEN 0 THEN 'Article' "
            "WHEN 1 THEN 'NewsArticle' ELSE 'BlogPosting' END AS ld_type, "
            "CAST((doc_id * 17) % 997 + 10 AS BIGINT) AS word_count, "
            "strftime(TIMESTAMP '2025-01-01 00:00:00' + "
            "doc_id * 137 * INTERVAL 1 SECOND, '%Y-%m-%dT%H:%M:%S') AS date_published "
            "FROM documents WHERE doc_id % 8 = 3 "
            "AND doc_id % 31 <> 11 AND doc_id % 23 <> 7"
        ),
        "host_failure_wilson": (
            # failure = the FAILED_MOD residue class; Wilson lower bound
            # mirrored operand-for-operand against the engine
            "WITH s AS (SELECT 'example-' || lpad(CAST(doc_id % 40 AS VARCHAR), 2, '0') "
            "|| '.com' AS host, CASE WHEN doc_id % 31 = 11 THEN 1 ELSE 0 END AS failed "
            "FROM documents), "
            "a AS (SELECT host, CAST(count(*) AS BIGINT) AS n, "
            "CAST(sum(failed) AS BIGINT) AS f FROM s GROUP BY host) "
            "SELECT host, n, f, CAST(floor(1000000 * ((f * 1.0 / n "
            "+ 1.96 * 1.96 / (2 * n) - 1.96 * sqrt(f * 1.0 / n * (1 - f * 1.0 / n) / n "
            "+ 1.96 * 1.96 / (4.0 * n * n))) / (1 + 1.96 * 1.96 / n))) AS BIGINT) "
            "AS wilson_lb_micro FROM a"
        ),
        # time travel: v1 is the untouched base table; v2 reconstructs
        # the CDC batch (update %5==0, delete %7==3 less the update
        # overlap, insert %50==0 at doc_id+1e6)
        "timetravel_v1": "SELECT doc_id, text, lang FROM documents",
        "timetravel_v2": (
            "SELECT doc_id, CASE WHEN doc_id % 5 = 0 THEN text || ' v2' "
            "ELSE text END AS text, lang FROM documents "
            "WHERE NOT (doc_id % 7 = 3 AND doc_id % 5 != 0) "
            "UNION ALL "
            "SELECT doc_id + 1000000 AS doc_id, "
            "'new doc ' || CAST(doc_id AS VARCHAR) AS text, 'en' AS lang "
            "FROM documents WHERE doc_id % 50 = 0"
        ),
        # SCD2: gaps-and-islands — LAG change mark, running-sum island
        # id, per-island MIN/COUNT, LEAD for valid_to
        "scd2_url_history": (
            "WITH caps AS ("
            "SELECT 'https://example-' || lpad(CAST(doc_id % 40 AS VARCHAR), 2, '0') "
            "|| '.com/doc-' || lpad(CAST(doc_id AS VARCHAR), 6, '0') AS url, "
            "TIMESTAMP '2025-01-01' + doc_id * INTERVAL 137 SECOND + k * INTERVAL 1 DAY AS warc_ts, "
            "CAST(doc_id AS VARCHAR) || ':v' || CAST("
            "CASE WHEN doc_id % 3 = 0 THEN (CASE WHEN k = 0 THEN 1 WHEN k <= 2 THEN 2 ELSE 3 END) "
            "WHEN doc_id % 3 = 1 THEN (CASE WHEN k <= 1 THEN 1 ELSE 2 END) "
            "ELSE 1 END AS VARCHAR) AS content_key "
            "FROM documents CROSS JOIN (SELECT UNNEST([0, 1, 2, 3]) AS k) t), "
            "mark AS (SELECT url, warc_ts, content_key, "
            "CASE WHEN content_key IS DISTINCT FROM "
            "LAG(content_key) OVER (PARTITION BY url ORDER BY warc_ts) "
            "THEN 1 ELSE 0 END AS chg FROM caps), "
            "isl AS (SELECT *, SUM(chg) OVER (PARTITION BY url ORDER BY warc_ts "
            "ROWS UNBOUNDED PRECEDING) AS island FROM mark), "
            "grp AS (SELECT url, island, MIN(content_key) AS content_key, "
            "MIN(warc_ts) AS valid_from, CAST(COUNT(*) AS BIGINT) AS n_captures "
            "FROM isl GROUP BY url, island) "
            "SELECT url, content_key, valid_from, "
            "LEAD(valid_from) OVER (PARTITION BY url ORDER BY island) AS valid_to, "
            "n_captures, CAST(island AS BIGINT) AS version FROM grp"
        ),
        # assortativity sufficient stats: exact integer endpoint-degree sums
        "host_assortativity": (
            "WITH raw AS ("
            "SELECT doc_id % 40 AS s, (doc_id * 3) % 40 AS d FROM documents "
            "UNION ALL SELECT doc_id % 40, (doc_id * 7) % 40 FROM documents "
            "UNION ALL SELECT doc_id % 40, (doc_id * 11) % 40 FROM documents), "
            "e AS (SELECT DISTINCT least(s, d) AS a, greatest(s, d) AS b "
            "FROM raw WHERE s <> d), "
            "adj AS (SELECT a AS node FROM e UNION ALL SELECT b FROM e), "
            "deg AS (SELECT node, CAST(count(*) AS BIGINT) AS deg FROM adj GROUP BY node), "
            "j AS (SELECT da.deg AS du, db.deg AS dv FROM e "
            "JOIN deg da ON da.node = e.a JOIN deg db ON db.node = e.b) "
            "SELECT CAST(count(*) AS BIGINT) AS n_edges, "
            "CAST(sum(du + dv) AS BIGINT) AS sum_deg, "
            "CAST(sum(du * du + dv * dv) AS BIGINT) AS sum_deg_sq, "
            "CAST(sum(du * dv) AS BIGINT) AS sum_deg_prod FROM j"
        ),
        # hourly OHLC bars: first/last by (ts, event_id), exact cents
        "event_hourly_bars": (
            "WITH b AS (SELECT event_type, epoch_us(ts) // 3600000000 AS bar, "
            "ts, event_id, value FROM events), "
            "w AS (SELECT event_type, bar, value, "
            "row_number() OVER (PARTITION BY event_type, bar ORDER BY ts, event_id) AS rn_a, "
            "row_number() OVER (PARTITION BY event_type, bar ORDER BY ts DESC, event_id DESC) AS rn_d "
            "FROM b), "
            "agg AS (SELECT event_type, bar, CAST(count(*) AS BIGINT) AS n, "
            "min(value) AS low, max(value) AS high, "
            "CAST(sum(CAST(round(value * 100) AS BIGINT)) AS BIGINT) AS sum_cents "
            "FROM b GROUP BY event_type, bar) "
            "SELECT agg.event_type, CAST(agg.bar AS BIGINT) AS bar, "
            "o.value AS open, agg.high, agg.low, c.value AS close, agg.n, agg.sum_cents "
            "FROM agg "
            "JOIN w o ON o.event_type = agg.event_type AND o.bar = agg.bar AND o.rn_a = 1 "
            "JOIN w c ON c.event_type = agg.event_type AND c.bar = agg.bar AND c.rn_d = 1"
        ),
        # common neighbors of non-adjacent host pairs (wedge self-join)
        "host_link_prediction": (
            "WITH raw AS ("
            "SELECT doc_id % 40 AS s, (doc_id * 3) % 40 AS d FROM documents "
            "UNION ALL SELECT doc_id % 40, (doc_id * 7) % 40 FROM documents "
            "UNION ALL SELECT doc_id % 40, (doc_id * 11) % 40 FROM documents), "
            "e AS (SELECT DISTINCT least(s, d) AS a, greatest(s, d) AS b "
            "FROM raw WHERE s <> d), "
            "adj AS (SELECT a AS c, b AS x FROM e UNION ALL SELECT b, a FROM e), "
            "cn AS (SELECT a1.x AS u, a2.x AS v, CAST(count(*) AS BIGINT) AS common_neighbors "
            "FROM adj a1 JOIN adj a2 ON a1.c = a2.c AND a1.x < a2.x "
            "GROUP BY a1.x, a2.x) "
            "SELECT u AS a, v AS b, common_neighbors FROM cn "
            "WHERE common_neighbors >= 2 AND NOT EXISTS "
            "(SELECT 1 FROM e WHERE e.a = cn.u AND e.b = cn.v)"
        ),
        # Morton-code mirror: generated bit-interleave expression
        "zorder_keys": (
            "WITH k AS (SELECT event_id, user_id & 65535 AS zx, "
            "(epoch_us(ts) // 86400000000) & 65535 AS zy FROM events) "
            "SELECT event_id, CAST("
            + morton_sql_expr("zx", "zy", 16)
            + " AS BIGINT) AS zval FROM k"
        ),
        # z-order layout must be invisible to box-predicate results
        "zorder_box_events": (
            "SELECT event_id, user_id, "
            "CAST(epoch_us(ts) // 86400000000 AS BIGINT) AS day FROM events "
            f"WHERE user_id BETWEEN {_ZBOX_X[0]} AND {_ZBOX_X[1]} "
            f"AND (epoch_us(ts) // 86400000000) BETWEEN {_ZBOX_Y[0]} AND {_ZBOX_Y[1]}"
        ),
        # Markov transitions via LEAD window
        "event_transitions": (
            "WITH w AS (SELECT event_type, lead(event_type) OVER "
            "(PARTITION BY user_id ORDER BY ts, event_id) AS next_type FROM events) "
            "SELECT event_type, next_type, count(*) AS n FROM w "
            "WHERE next_type IS NOT NULL GROUP BY event_type, next_type"
        ),
        # exponential time-decay popularity, int64 micro-unit weights
        "decayed_type_popularity": (
            "WITH mx AS (SELECT max(ts) AS m FROM events), "
            "w AS (SELECT event_type, CAST(floor(pow(2.0, "
            "-(epoch_us(mx.m) - epoch_us(ts)) / 86400000000.0 / 7.0) * 1000000) "
            "AS BIGINT) AS wm FROM events, mx) "
            "SELECT event_type, CAST(sum(wm) AS BIGINT) AS decayed_micro, "
            "CAST(count(*) AS BIGINT) AS n FROM w GROUP BY event_type"
        ),
        # cluster-size frequency-of-frequencies over the golden clusters
        "dedup_cluster_sizes": (
            "WITH c AS (SELECT cluster_id, count(*) AS n FROM "
            f"read_parquet('{_GOLDEN_DIR}/dedup_minhash.parquet') GROUP BY 1) "
            "SELECT CAST(floor(log2(n)) AS BIGINT) AS bucket, "
            "CAST(count(*) AS BIGINT) AS n_keys FROM c GROUP BY 1"
        ),
        # TPC-H Q10 shape
        "returned_revenue_by_customer": (
            "SELECT c_custkey, c_name, n_name, "
            "sum(l_extendedprice * (1 - l_discount)) AS revenue "
            "FROM customer, orders, lineitem, nation "
            "WHERE c_custkey = o_custkey AND l_orderkey = o_orderkey "
            "AND o_orderdate >= TIMESTAMP '1997-01-01' "
            "AND o_orderdate < TIMESTAMP '1997-07-01' "
            "AND l_returnflag = 'R' AND c_nationkey = n_nationkey "
            "GROUP BY c_custkey, c_name, n_name "
            "ORDER BY revenue DESC, c_custkey LIMIT 20"
        ),
        "host_harmonic": (
            "SELECT host, centrality_micro, n_seeds_reaching FROM "
            f"read_parquet('{_GOLDEN_DIR}/host_harmonic.parquet')"
        ),
        "host_communities": (
            "SELECT host, community FROM "
            f"read_parquet('{_GOLDEN_DIR}/host_communities.parquet')"
        ),
        "host_kcore": (
            f"SELECT host FROM read_parquet('{_GOLDEN_DIR}/host_kcore.parquet')"
        ),
        "cms_token_counts": (
            f"SELECT term, est_count FROM read_parquet('{_GOLDEN_DIR}/cms_token_counts.parquet')"
        ),
        "corpus_overlap": (
            f"SELECT * FROM read_parquet('{_GOLDEN_DIR}/corpus_overlap.parquet')"
        ),
        "vocab_edit_pairs": (
            "WITH v AS (SELECT c_name AS token, CAST(count(*) AS BIGINT) AS n "
            "FROM customer WHERE c_name IS NOT NULL AND c_name <> '' GROUP BY c_name) "
            "SELECT a.token AS tok_a, b.token AS tok_b, a.n AS n_a, b.n AS n_b "
            "FROM v a JOIN v b ON a.token < b.token "
            "AND levenshtein(a.token, b.token) <= 1"
        ),
        "approx_users_by_type": (
            f"SELECT event_type, approx_distinct FROM read_parquet('{_GOLDEN_DIR}/approx_users_by_type.parquet')"
        ),
        "ngram_diversity": (
            f"SELECT n, total_ngrams, approx_distinct, distinct_ratio FROM read_parquet('{_GOLDEN_DIR}/ngram_diversity.parquet')"
        ),
        "fuzzy_vocab_match": (
            "WITH v AS (SELECT w AS token, CAST(count(*) AS BIGINT) AS n_occurrences FROM "
            "(SELECT unnest(regexp_split_to_array(text, '\\s+')) AS w FROM documents) "
            "WHERE w <> '' GROUP BY w), "
            "p AS (SELECT unnest(['joins', 'scam', 'kery', 'data', 'dup']) AS probe) "
            "SELECT probe, token, CAST(levenshtein(token, probe) AS BIGINT) AS dist, n_occurrences "
            "FROM v, p WHERE levenshtein(token, probe) <= 1"
        ),
        "temperature_mixture": (
            "WITH n AS (SELECT lang, count(*) AS cnt FROM documents GROUP BY lang), "
            "s AS (SELECT sum(CAST(floor(sqrt(cnt)) AS BIGINT)) AS ssum, sum(cnt) AS total FROM n), "
            "t AS (SELECT lang, cnt, (s.total * CAST(floor(sqrt(cnt)) AS BIGINT)) // s.ssum AS target FROM n, s), "
            "r AS (SELECT doc_id, lang, "
            "row_number() OVER (PARTITION BY lang ORDER BY md5(CAST(doc_id AS VARCHAR)), doc_id) AS rk "
            "FROM documents) "
            "SELECT r.doc_id, r.lang, "
            "CAST(t.target // t.cnt + CASE WHEN r.rk <= t.target % t.cnt THEN 1 ELSE 0 END AS BIGINT) AS n_copies "
            "FROM r JOIN t USING (lang)"
        ),
        "reservoir_doc_sample": (
            f"SELECT key FROM read_parquet('{_GOLDEN_DIR}/reservoir_doc_sample.parquet')"
        ),
        "ann_topk": (
            "WITH q AS (SELECT vec_id AS query_id, embedding AS qe FROM embeddings WHERE vec_id < 4) "
            "SELECT CAST(q.query_id AS INT) AS query_id, e.vec_id, "
            "CAST(row_number() OVER (PARTITION BY q.query_id "
            "ORDER BY list_cosine_similarity(q.qe, e.embedding) DESC, e.vec_id) AS INT) AS rank "
            "FROM q CROSS JOIN embeddings e "
            "QUALIFY rank <= 5"
        ),
        "token_stats": (
            "SELECT lang, CAST(sum(len(string_split_regex(trim(text), '[ \t\n]+'))) AS BIGINT) "
            "AS sum_tokens_ws, CAST(count(*) AS BIGINT) AS n_docs FROM documents GROUP BY lang"
        ),
        "quality_stats": (
            "SELECT lang, CAST(sum(CASE WHEN n_words >= 5 AND mw BETWEEN 1.0 AND 15.0 "
            "AND ar >= 0.5 THEN 1 ELSE 0 END) AS BIGINT) AS n_keep, "
            "CAST(count(*) AS BIGINT) AS n_docs FROM ("
            "SELECT lang, len(string_split_regex(trim(text), '[ \t\n]+')) AS n_words, "
            "CASE WHEN len(string_split_regex(trim(text), '[ \t\n]+')) = 0 THEN 0.0 "
            "ELSE length(replace(text, ' ', '')) * 1.0 / len(string_split_regex(trim(text), '[ \t\n]+')) END AS mw, "
            "CASE WHEN length(text) = 0 THEN 0.0 "
            "ELSE length(regexp_replace(text, '[^A-Za-z]', '', 'g')) * 1.0 / length(text) END AS ar "
            "FROM documents) GROUP BY lang"
        ),
        "media_features": (
            "SELECT doc_id AS media_id, CAST(octet_length(encode(text)) AS BIGINT) AS n_bytes, "
            "md5(text) AS digest FROM documents"
        ),
        "pricing_summary": (
            "SELECT l_returnflag, l_linestatus, round(sum(l_quantity), 2) AS sum_qty, "
            "round(sum(l_extendedprice), 2) AS sum_base_price, "
            "round(sum(l_extendedprice * (1 - l_discount)), 2) AS sum_disc_price, "
            "CAST(count(*) AS BIGINT) AS count_order "
            "FROM lineitem GROUP BY l_returnflag, l_linestatus"
        ),
        "orders_by_segment": (
            "SELECT c_mktsegment, round(sum(o_totalprice), 2) AS total_price, "
            "CAST(count(*) AS BIGINT) AS n_orders "
            "FROM orders JOIN customer ON o_custkey = c_custkey GROUP BY c_mktsegment"
        ),
        "windowed_events": (
            "SELECT event_type, time_bucket(INTERVAL 60 MINUTES, ts) AS window_start, "
            "round(sum(value), 4) AS sum_value, CAST(count(*) AS BIGINT) AS n_events "
            "FROM events GROUP BY event_type, window_start"
        ),
        "top_customers": (
            "SELECT o_custkey, round(sum(o_totalprice), 2) AS total_spend "
            "FROM orders GROUP BY o_custkey ORDER BY sum(o_totalprice) DESC, o_custkey LIMIT 10"
        ),
        "customers_per_region": (
            "SELECT r_name, CAST(count(*) AS BIGINT) AS n_customers "
            "FROM customer JOIN nation ON c_nationkey = n_nationkey "
            "JOIN region ON n_regionkey = r_regionkey GROUP BY r_name"
        ),
        "stratified_sample": (
            "SELECT lang, doc_id FROM (SELECT lang, doc_id, row_number() OVER "
            "(PARTITION BY lang ORDER BY md5(CAST(doc_id AS VARCHAR)) ASC, doc_id ASC) AS rn "
            "FROM documents) WHERE rn <= 5"
        ),
        "canonical_urls": (
            # independent SQL derivation of the canonical form from the
            # same doc_id rule the engine feeds through normalize_url:
            # lowercased host, default :80 dropped / :8080 kept,
            # duplicate slash collapsed, trailing slash stripped,
            # utm_* params and #fragment removed, id= param kept
            "SELECT doc_id, 'http://example-' || lpad(CAST(doc_id % 40 AS VARCHAR), 2, '0') "
            "|| '.com' || CASE WHEN doc_id % 3 = 0 THEN '' WHEN doc_id % 7 = 2 THEN ':8080' ELSE '' END "
            "|| '/Docs/' || doc_id "
            "|| CASE WHEN doc_id % 4 = 1 THEN '?id=' || (doc_id % 5) ELSE '' END "
            "AS canonical_url FROM documents"
        ),
        "token_postings": (
            "SELECT token, CAST(count(*) AS BIGINT) AS n_docs, min(doc_id) AS first_doc "
            "FROM (SELECT DISTINCT doc_id, unnest(regexp_split_to_array(text, '\\s+')) AS token "
            "FROM documents) WHERE token <> '' GROUP BY token"
        ),
        "top_tokens": (
            "SELECT w AS token, CAST(count(*) AS BIGINT) AS n FROM "
            "(SELECT unnest(regexp_split_to_array(text, '\\s+')) AS w FROM documents) "
            "WHERE w <> '' GROUP BY w ORDER BY n DESC, token LIMIT 10"
        ),
        "repetition_stats": (
            "WITH toks AS (SELECT doc_id, "
            "list_filter(regexp_split_to_array(text, '\\s+'), t -> t <> '') AS arr FROM documents), "
            "u AS (SELECT doc_id, len(arr) AS n_tokens, len(list_distinct(arr)) AS n_distinct FROM toks), "
            "big AS (SELECT doc_id, unnest(list_transform(generate_series(1, len(arr) - 1), "
            "i -> arr[i] || ' ' || arr[i + 1])) AS bg FROM toks WHERE len(arr) >= 2), "
            "bc AS (SELECT doc_id, bg, count(*) AS c FROM big GROUP BY doc_id, bg), "
            "bm AS (SELECT doc_id, max(c) AS maxc, sum(c) AS nbig FROM bc GROUP BY doc_id) "
            "SELECT u.doc_id, CAST(u.n_tokens AS BIGINT) AS n_tokens, "
            "round(CASE WHEN u.n_tokens = 0 THEN 0.0 ELSE u.n_distinct * 1.0 / u.n_tokens END, 4) AS distinct_frac, "
            "round(CASE WHEN bm.nbig IS NULL OR bm.nbig = 0 THEN 0.0 ELSE bm.maxc * 1.0 / bm.nbig END, 4) AS top_bigram_frac "
            "FROM u LEFT JOIN bm ON u.doc_id = bm.doc_id"
        ),
        "mixture_rebalance": (
            "WITH c AS (SELECT count(*) AS total, count(DISTINCT lang) AS nl FROM documents), "
            "r AS (SELECT doc_id, lang, "
            "row_number() OVER (PARTITION BY lang ORDER BY md5(CAST(doc_id AS VARCHAR)), doc_id) AS rk, "
            "count(*) OVER (PARTITION BY lang) AS nlang FROM documents) "
            "SELECT doc_id, lang, "
            "CAST((c.total // c.nl) // nlang + CASE WHEN rk <= (c.total // c.nl) % nlang THEN 1 ELSE 0 END AS BIGINT) AS n_copies "
            "FROM r, c"
        ),
        "shuffled_positions": (
            "SELECT doc_id, CAST(row_number() OVER "
            "(ORDER BY md5(CAST(doc_id AS VARCHAR)), doc_id) AS BIGINT) AS shuffle_pos "
            "FROM documents"
        ),
        "packed_sequences": (
            "WITH t AS (SELECT doc_id, lang, "
            "len(string_split_regex(trim(text), '[ \t\n]+')) AS n_tokens FROM documents), "
            "r AS (SELECT doc_id, lang, n_tokens, "
            "sum(n_tokens) OVER (PARTITION BY lang ORDER BY doc_id ROWS UNBOUNDED PRECEDING) AS run "
            "FROM t) "
            "SELECT doc_id, lang, CAST(n_tokens AS BIGINT) AS n_tokens, "
            "CAST((run - n_tokens) // 512 AS BIGINT) AS pack_id, "
            "CAST((run - n_tokens) % 512 AS BIGINT) AS pack_offset FROM r"
        ),
        "grouped_split_docs": (
            "SELECT doc_id, source, CASE WHEN substr(md5(source), 1, 1) "
            "IN ('0', '1', '2', '3') THEN 'val' ELSE 'train' END AS split "
            "FROM documents"
        ),
        "contamination_check": (
            # independent derivation: probes = first-3-token prefix of
            # each benchmark doc (doc_id % 97 = 3), hit = substring
            # containment, first_bench_id = smallest matching bench id
            "WITH probes AS (SELECT doc_id AS bench_id, "
            "array_to_string(list_filter(regexp_split_to_array(text, '\\s+'), t -> t <> '')[1:3], ' ') AS probe "
            "FROM documents WHERE doc_id % 97 = 3) "
            "SELECT d.doc_id, CAST(count(*) AS BIGINT) AS n_probe_hits, "
            "min(p.bench_id) AS first_bench_id "
            "FROM documents d JOIN probes p ON contains(d.text, p.probe) "
            "GROUP BY d.doc_id"
        ),
        "top_bigrams": (
            # same whitespace tokenization as token_postings; bigrams =
            # adjacent token pairs within a document; PMI from unigram
            # and bigram totals; ranking by count only (floats can't
            # reorder rows)
            "WITH toks AS (SELECT list_filter(regexp_split_to_array(text, '\\s+'), t -> t <> '') AS arr "
            "FROM documents), "
            "uni AS (SELECT unnest(arr) AS w FROM toks), "
            "ucnt AS (SELECT w, CAST(count(*) AS DOUBLE) AS c FROM uni GROUP BY w), "
            "big AS (SELECT unnest(list_transform(generate_series(1, len(arr) - 1), "
            "i -> arr[i] || ' ' || arr[i + 1])) AS bg FROM toks WHERE len(arr) >= 2), "
            "bcnt AS (SELECT bg, CAST(count(*) AS DOUBLE) AS c FROM big GROUP BY bg), "
            "nu AS (SELECT CAST(sum(c) AS DOUBLE) AS n FROM ucnt), "
            "nb AS (SELECT CAST(sum(c) AS DOUBLE) AS n FROM bcnt), "
            "top AS (SELECT bg, c FROM bcnt ORDER BY c DESC, bg LIMIT 20) "
            "SELECT top.bg AS bigram, CAST(top.c AS BIGINT) AS n, "
            "round(ln((top.c / nb.n) / ((ua.c / nu.n) * (ub.c / nu.n))), 4) AS pmi "
            "FROM top, nu, nb "
            "JOIN ucnt ua ON ua.w = split_part(top.bg, ' ', 1) "
            "JOIN ucnt ub ON ub.w = split_part(top.bg, ' ', 2)"
        ),
        "tfidf_top_terms": (
            # independent SQL derivation: same whitespace tokenization as
            # token_postings, df over distinct (doc, token), top-256 vocab
            # by (df desc, token), score = tf * ln(n_docs / df), per-doc
            # rank by (score desc, token) limited to 3
            "WITH toks AS (SELECT doc_id, unnest(regexp_split_to_array(text, '\\s+')) AS token "
            "FROM documents), toks2 AS (SELECT doc_id, token FROM toks WHERE token <> ''), "
            "df AS (SELECT token, CAST(count(DISTINCT doc_id) AS DOUBLE) AS df "
            "FROM toks2 GROUP BY token), "
            "vocab AS (SELECT token, df FROM df ORDER BY df DESC, token LIMIT 256), "
            "tf AS (SELECT t.doc_id, t.token, CAST(count(*) AS DOUBLE) AS tf "
            "FROM toks2 t JOIN vocab v ON t.token = v.token GROUP BY t.doc_id, t.token), "
            "scored AS (SELECT tf.doc_id, tf.token, "
            "tf.tf * ln(CAST((SELECT count(*) FROM documents) AS DOUBLE) / v.df) AS s "
            "FROM tf JOIN vocab v ON tf.token = v.token) "
            "SELECT doc_id, token, "
            "CAST(row_number() OVER (PARTITION BY doc_id ORDER BY s DESC, token) AS BIGINT) AS rank, "
            "round(s, 4) AS score FROM scored "
            "QUALIFY row_number() OVER (PARTITION BY doc_id ORDER BY s DESC, token) <= 3"
        ),
        "chars_quantiles_approx": (
            "SELECT q, value "
            f"FROM read_parquet('{_GOLDEN_DIR}/chars_quantiles_approx.parquet')"
        ),
        "lineitem_order_priority": (
            "SELECT o_orderpriority, CAST(count(*) AS BIGINT) AS n_items, "
            "sum(l_quantity) AS sum_qty FROM lineitem "
            "JOIN orders ON l_orderkey = o_orderkey GROUP BY o_orderpriority"
        ),
        "bucketed_customer_orders": (
            "SELECT c_custkey, c_nationkey, CAST(count(*) AS BIGINT) AS n_orders, "
            "sum(o_totalprice) AS spend FROM orders "
            "JOIN customer ON o_custkey = c_custkey "
            "GROUP BY c_custkey, c_nationkey"
        ),
        "shipping_priority": (
            "SELECT l_orderkey, sum(l_extendedprice * (1 - l_discount)) AS revenue, "
            "o_orderdate, o_orderpriority "
            "FROM customer, orders, lineitem "
            "WHERE c_mktsegment = 'BUILDING' AND c_custkey = o_custkey "
            "AND l_orderkey = o_orderkey "
            "AND o_orderdate < TIMESTAMP '1998-01-01' "
            "AND l_shipdate > TIMESTAMP '1998-01-01' "
            "GROUP BY l_orderkey, o_orderdate, o_orderpriority "
            "ORDER BY revenue DESC, l_orderkey LIMIT 10"
        ),
        "events_pivot_daily": (
            "SELECT date_trunc('day', ts) AS day, "
            + ", ".join(
                f"CAST(count(*) FILTER (WHERE event_type = '{c}') AS BIGINT) AS {c}_n, "
                f"COALESCE(sum(value) FILTER (WHERE event_type = '{c}'), 0) AS {c}_sum"
                for c in ["click", "error", "purchase", "signup", "view"]
            )
            + " FROM events GROUP BY 1"
        ),
        "event_funnel": (
            "WITH s1 AS (SELECT user_id, min(ts) AS t FROM events "
            "WHERE event_type = 'signup' GROUP BY 1), "
            "s2 AS (SELECT e.user_id, min(e.ts) AS t FROM events e "
            "JOIN s1 ON e.user_id = s1.user_id AND e.ts > s1.t "
            "WHERE e.event_type = 'view' GROUP BY 1), "
            "s3 AS (SELECT e.user_id, min(e.ts) AS t FROM events e "
            "JOIN s2 ON e.user_id = s2.user_id AND e.ts > s2.t "
            "WHERE e.event_type = 'purchase' GROUP BY 1) "
            "SELECT CAST(1 AS BIGINT) AS stage_idx, 'signup' AS stage, "
            "CAST((SELECT count(*) FROM s1) AS BIGINT) AS users "
            "UNION ALL SELECT CAST(2 AS BIGINT), 'view', "
            "CAST((SELECT count(*) FROM s2) AS BIGINT) "
            "UNION ALL SELECT CAST(3 AS BIGINT), 'purchase', "
            "CAST((SELECT count(*) FROM s3) AS BIGINT)"
        ),
        "orders_customer_join": (
            "SELECT c_nationkey, CAST(count(*) AS BIGINT) AS n_orders, "
            "sum(o_totalprice) AS total_spend "
            "FROM orders JOIN customer ON o_custkey = c_custkey GROUP BY c_nationkey"
        ),
        "supplier_stats": (
            "SELECT n_name, round(sum(s_acctbal), 2) AS total_acctbal, "
            "CAST(count(*) AS BIGINT) AS n_suppliers "
            "FROM supplier JOIN nation ON s_nationkey = n_nationkey GROUP BY n_name"
        ),
        "part_stats": (
            "SELECT p_brand, CAST(count(*) AS BIGINT) AS n_parts, "
            "round(sum(p_retailprice) / count(*), 2) AS avg_price "
            "FROM part GROUP BY p_brand"
        ),
        "part_affinity": (
            "WITH op AS (SELECT DISTINCT l_orderkey, l_partkey FROM lineitem), "
            "pc AS (SELECT a.l_partkey AS item_a, b.l_partkey AS item_b, "
            "count(*) AS support FROM op a JOIN op b ON a.l_orderkey = b.l_orderkey "
            "AND a.l_partkey < b.l_partkey GROUP BY 1, 2 HAVING count(*) >= 2), "
            "ic AS (SELECT l_partkey, count(*) AS n_i FROM op GROUP BY 1), "
            "tot AS (SELECT count(DISTINCT l_orderkey) AS n FROM lineitem) "
            "SELECT item_a, item_b, support, "
            "CAST((1000000::HUGEINT * support) // ia.n_i AS BIGINT) AS conf_micro, "
            "CAST((1000000::HUGEINT * support * tot.n) // (ia.n_i * ib.n_i) AS BIGINT) "
            "AS lift_micro "
            "FROM pc JOIN ic ia ON pc.item_a = ia.l_partkey "
            "JOIN ic ib ON pc.item_b = ib.l_partkey CROSS JOIN tot"
        ),
        "preference_pairs": (
            "WITH s AS (SELECT doc_id, lang, source, "
            "CASE WHEN length(text) = 0 THEN 0 ELSE "
            "CAST((1000000::BIGINT * length(regexp_replace(text, '[^A-Za-z]', '', 'g'))) "
            "// length(text) AS BIGINT) END AS score FROM documents), "
            "g AS (SELECT lang, source, count(*) AS n FROM s GROUP BY 1, 2), "
            "c AS (SELECT lang, source, doc_id AS chosen_id, score AS cs FROM s "
            "QUALIFY row_number() OVER (PARTITION BY lang, source "
            "ORDER BY score DESC, doc_id) = 1), "
            "r AS (SELECT lang, source, doc_id AS rejected_id, score AS rs FROM s "
            "QUALIFY row_number() OVER (PARTITION BY lang, source "
            "ORDER BY score ASC, doc_id DESC) = 1) "
            "SELECT c.lang, c.source, chosen_id, rejected_id, cs - rs AS margin_micro "
            "FROM c JOIN r USING (lang, source) JOIN g USING (lang, source) "
            "WHERE g.n >= 2"
        ),
        "mlm_masked": (
            "WITH toks AS (SELECT doc_id, string_split_regex(trim(text), '[ \t\n]+') "
            "AS tk FROM documents WHERE trim(text) <> ''), "
            "ex AS (SELECT doc_id, unnest(tk) AS tok, generate_subscripts(tk, 1) AS i "
            "FROM toks), "
            "m AS (SELECT doc_id, i, CASE WHEN "
            "substr(md5(CAST(doc_id AS VARCHAR) || ':' || CAST(i - 1 AS VARCHAR)), 1, 2) "
            "< '26' THEN '[MASK]' ELSE tok END AS out_tok, CASE WHEN "
            "substr(md5(CAST(doc_id AS VARCHAR) || ':' || CAST(i - 1 AS VARCHAR)), 1, 2) "
            "< '26' THEN 1 ELSE 0 END AS masked FROM ex) "
            "SELECT doc_id, string_agg(out_tok, ' ' ORDER BY i) AS masked_text, "
            "CAST(count(*) AS BIGINT) AS n_tokens, CAST(sum(masked) AS BIGINT) AS n_masked "
            "FROM m GROUP BY doc_id "
            "UNION ALL SELECT doc_id, '', 0::BIGINT, 0::BIGINT FROM documents "
            "WHERE trim(text) = ''"
        ),
        "sliding_events": (
            "SELECT event_type, ws AS window_start, round(sum(value), 4) AS sum_value, "
            "CAST(count(*) AS BIGINT) AS n_events FROM ("
            "SELECT event_type, value, "
            "time_bucket(INTERVAL 15 MINUTES, ts) - j * INTERVAL 15 MINUTES AS ws "
            "FROM events CROSS JOIN (SELECT unnest(generate_series(0, 3)) AS j)"
            ") GROUP BY event_type, ws"
        ),
        "longest_per_lang": (
            "SELECT doc_id, lang, n_chars FROM documents "
            "QUALIFY row_number() OVER (PARTITION BY lang ORDER BY n_chars DESC, doc_id) <= 3"
        ),
        "user_event_seq": (
            "SELECT user_id, ts, "
            "CAST(row_number() OVER w AS BIGINT) AS seq, "
            "round(sum(value) OVER (PARTITION BY user_id ORDER BY ts, value "
            "ROWS UNBOUNDED PRECEDING), 4) AS running_value "
            "FROM events WINDOW w AS (PARTITION BY user_id ORDER BY ts, value)"
        ),
        "nearby_events": (
            "SELECT a.user_id, a.event_id, "
            "CAST(count(b.event_id) AS BIGINT) AS n_nearby "
            "FROM events a LEFT JOIN events b ON a.user_id = b.user_id "
            "AND b.event_id <> a.event_id "
            "AND b.ts BETWEEN a.ts - INTERVAL 300 SECONDS "
            "AND a.ts + INTERVAL 300 SECONDS "
            "GROUP BY a.user_id, a.event_id"
        ),
        "event_gaps": (
            "SELECT user_id, event_id, "
            "CAST(coalesce(epoch_us(ts) - lag(epoch_us(ts)) OVER w, -1) AS BIGINT) AS gap_us, "
            "coalesce(lead(event_type) OVER w, '') AS next_type "
            "FROM events WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id)"
        ),
        "chars_quantiles": (
            " UNION ALL ".join(
                f"SELECT CAST({q} AS DOUBLE) AS q, "
                f"CAST(quantile_disc(n_chars, {q}) AS BIGINT) AS value FROM documents"
                for q in [0.1, 0.25, 0.5, 0.75, 0.9, 0.99]
            )
        ),
        "quality_filter_docs": (
            "SELECT doc_id, lang, CAST(n_words AS BIGINT) AS n_tokens_ws FROM ("
            "SELECT doc_id, lang, len(string_split_regex(trim(text), '[ \t\n]+')) AS n_words, "
            "CASE WHEN len(string_split_regex(trim(text), '[ \t\n]+')) = 0 THEN 0.0 "
            "ELSE length(replace(text, ' ', '')) * 1.0 / len(string_split_regex(trim(text), '[ \t\n]+')) END AS mw, "
            "CASE WHEN length(text) = 0 THEN 0.0 "
            "ELSE length(regexp_replace(text, '[^A-Za-z]', '', 'g')) * 1.0 / length(text) END AS ar "
            "FROM documents) WHERE n_words >= 5 AND mw BETWEEN 1.0 AND 15.0 AND ar >= 0.5"
        ),
        "customers_without_orders": (
            "SELECT c_mktsegment, CAST(count(*) AS BIGINT) AS n_customers "
            "FROM customer WHERE c_custkey NOT IN "
            "(SELECT o_custkey FROM orders WHERE o_orderpriority = '1-URGENT') "
            "GROUP BY c_mktsegment"
        ),
        "acctbal_price_band": (
            "SELECT c_custkey, CAST(count(*) AS BIGINT) AS n_parts, "
            "round(sum(p_retailprice), 2) AS sum_price "
            "FROM customer JOIN part "
            "ON p_retailprice BETWEEN c_acctbal - 25.0 AND c_acctbal + 25.0 "
            "GROUP BY c_custkey"
        ),
        "len_quantiles_by_lang": (
            " UNION ALL ".join(
                f"SELECT lang, CAST({q} AS DOUBLE) AS q, "
                f"CAST(quantile_disc(n_chars, {q}) AS BIGINT) AS value "
                "FROM documents GROUP BY lang"
                for q in [0.5, 0.9, 0.99]
            )
        ),
        "jsonl_lang_counts": (
            "SELECT lang, CAST(count(*) AS BIGINT) AS n FROM documents GROUP BY lang"
        ),
        "lang_source_rollup": (
            "SELECT COALESCE(lang, '*') AS lang, COALESCE(source, '*') AS source, "
            "CAST(count(*) AS BIGINT) AS n_rows "
            "FROM documents GROUP BY ROLLUP(lang, source)"
        ),
        "lang_source_cube": (
            "SELECT COALESCE(lang, '*') AS lang, COALESCE(source, '*') AS source, "
            "CAST(count(*) AS BIGINT) AS n_rows "
            "FROM documents GROUP BY CUBE(lang, source)"
        ),
        "doc_validation": (
            "SELECT doc_id, 'short_text' AS rule FROM documents WHERE n_chars < 200 "
            "UNION ALL SELECT doc_id, 'n_chars_mismatch' FROM documents "
            "WHERE n_chars <> length(text) "
            "UNION ALL SELECT doc_id, 'empty_text' FROM documents "
            "WHERE text IS NULL OR text = '' "
            "UNION ALL SELECT doc_id, 'few_tokens' FROM documents "
            "WHERE len(list_filter(regexp_split_to_array(text, '\\s+'), t -> t <> '')) < 30"
        ),
        # Efraimidis-Spirakis weighted sample: u from the Knuth hash
        # (the sample_10pct convention), rank by u^(1/n_chars)
        "weighted_sample_docs": (
            "SELECT doc_id, lang, n_chars FROM ("
            "SELECT doc_id, lang, n_chars, "
            "pow((((doc_id * 2654435761) % 4294967296) + 0.5) / 4294967296.0, "
            "1.0 / n_chars) AS sample_key FROM documents) "
            "ORDER BY sample_key DESC, doc_id LIMIT 16"
        ),
        "length_outliers": (
            "WITH stats AS (SELECT lang, avg(n_chars) AS m, "
            "stddev_pop(n_chars) AS sd, count(*) AS n FROM documents GROUP BY lang) "
            "SELECT doc_id, d.lang, n_chars, "
            "round(CASE WHEN sd > 0 THEN (n_chars - m) / sd ELSE 0 END, 4) AS z "
            "FROM documents d JOIN stats USING (lang) "
            "WHERE sd > 0 AND abs((n_chars - m) / sd) > 1.8"
        ),
        # snapshot halves by doc_id parity; Laplace (+1) smoothing over
        # the K observed categories — operand order matches
        # pipelines/drift.py:distribution_drift exactly
        "lang_diversity": (
            "WITH c AS (SELECT lang, CAST(count(*) AS BIGINT) AS n FROM documents GROUP BY 1), "
            "s AS (SELECT CAST(count(*) AS BIGINT) AS k, CAST(sum(n) AS BIGINT) AS nn, "
            "CAST(sum(n * n) AS BIGINT) AS ssq, CAST(sum(n * (n - 1)) AS BIGINT) AS spair FROM c) "
            "SELECT k AS n_categories, nn AS n_rows, "
            "(1000000 * spair) // greatest(nn * (nn - 1), 1) AS simpson_micro, "
            "(1000000 * nn * nn) // greatest(ssq, 1) AS inv_simpson_micro FROM s"
        ),
        "k_anonymity": (
            "WITH d AS (SELECT c_nationkey, c_mktsegment, "
            "CAST(floor(c_acctbal / 1000.0) AS BIGINT) AS sens FROM customer), "
            "g AS (SELECT c_nationkey, c_mktsegment, CAST(count(*) AS BIGINT) AS n, "
            "CAST(count(DISTINCT sens) AS BIGINT) AS l FROM d GROUP BY 1, 2) "
            "SELECT CAST(count(*) AS BIGINT) AS n_groups, "
            "CAST(count(*) FILTER (WHERE n < 5) AS BIGINT) AS n_small_groups, "
            "CAST(coalesce(sum(n) FILTER (WHERE n < 5), 0) AS BIGINT) AS rows_at_risk, "
            "CAST(min(n) AS BIGINT) AS min_group_size, "
            "CAST(min(l) AS BIGINT) AS min_l_diversity FROM g"
        ),
        "token_burstiness": (
            r"WITH toks AS (SELECT doc_id, unnest(list_filter(regexp_split_to_array("
            r"coalesce(text,''), '\s+'), x -> x <> '')) AS token FROM documents), "
            "c AS (SELECT token, CAST(count(*) AS BIGINT) AS tf, "
            "CAST(count(DISTINCT doc_id) AS BIGINT) AS df FROM toks GROUP BY 1) "
            "SELECT token, tf, df, (1000000 * tf) // df AS burst_micro "
            "FROM c WHERE df >= 5 "
            "ORDER BY burst_micro DESC, token ASC LIMIT 20"
        ),
        "drift_js": (
            "WITH s AS (SELECT lang, "
            "count(*) FILTER (doc_id % 2 = 0) AS cp, "
            "count(*) FILTER (doc_id % 2 = 1) AS cc "
            "FROM documents GROUP BY lang), "
            "t AS (SELECT sum(cp) AS tp, sum(cc) AS tc, count(*) AS k FROM s) "
            "SELECT lang, CAST(cp AS BIGINT) AS cnt_prev, CAST(cc AS BIGINT) AS cnt_curr, "
            "ROUND(((cp + 1) * 1.0 / (tp + k)), 6) AS p_prev, "
            "ROUND(((cc + 1) * 1.0 / (tc + k)), 6) AS p_curr, "
            "ROUND((((cc + 1) * 1.0 / (tc + k)) * ln(((cc + 1) * 1.0 / (tc + k)) / (((((cp + 1) * 1.0 / (tp + k))) + (((cc + 1) * 1.0 / (tc + k)))) / 2)) + ((cp + 1) * 1.0 / (tp + k)) * ln(((cp + 1) * 1.0 / (tp + k)) / (((((cp + 1) * 1.0 / (tp + k))) + (((cc + 1) * 1.0 / (tc + k)))) / 2))) / 2, 6) AS js_term "
            "FROM s, t ORDER BY lang"
        ),
        "drift_kl": (
            "WITH s AS (SELECT lang, "
            "count(*) FILTER (doc_id % 2 = 0) AS cp, "
            "count(*) FILTER (doc_id % 2 = 1) AS cc "
            "FROM documents GROUP BY lang), "
            "t AS (SELECT sum(cp) AS tp, sum(cc) AS tc, count(*) AS k FROM s) "
            "SELECT lang, CAST(cp AS BIGINT) AS cnt_prev, CAST(cc AS BIGINT) AS cnt_curr, "
            "ROUND((cp + 1) * 1.0 / (tp + k), 6) AS p_prev, "
            "ROUND((cc + 1) * 1.0 / (tc + k), 6) AS p_curr, "
            "ROUND(((cc + 1) * 1.0 / (tc + k)) * ln(((cc + 1) * 1.0 / (tc + k)) / ((cp + 1) * 1.0 / (tp + k))), 6) AS kl_term, "
            "ROUND(abs(((cc + 1) * 1.0 / (tc + k)) - ((cp + 1) * 1.0 / (tp + k))) / 2, 6) AS tv_term, "
            "ROUND(pow(((cc + 1) * 1.0 / (tc + k)) - ((cp + 1) * 1.0 / (tp + k)), 2) / ((cp + 1) * 1.0 / (tp + k)), 6) AS chi2_term "
            "FROM s, t ORDER BY lang"
        ),
        # ingest order = event_id; watermark = running max event-time
        # over PRIOR arrivals per user — mirrors windows.late_event_audit
        "late_events": (
            "WITH w AS (SELECT user_id, event_id, ts, "
            "max(ts) OVER (PARTITION BY user_id ORDER BY event_id "
            "ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING) AS wm FROM events) "
            "SELECT user_id, CAST(count(*) AS BIGINT) AS n_events, "
            "CAST(count(*) FILTER (ts < wm) AS BIGINT) AS n_late, "
            "CAST(coalesce(max(CASE WHEN ts < wm THEN epoch_us(wm) - epoch_us(ts) END), 0) AS BIGINT) AS max_late_us "
            "FROM w GROUP BY user_id"
        ),
        # terms mirror text_analysis.LEXICON_TERMS (sorted); occurrence
        # count via the length-difference replace trick
        "lexicon_flags": (
            " UNION ALL ".join(
                f"SELECT '{t}' AS term, "
                f"CAST(count(*) FILTER (contains(text, '{t}')) AS BIGINT) AS n_docs, "
                f"CAST(coalesce(sum((length(text) - length(replace(text, '{t}', ''))) // {len(t)}), 0) AS BIGINT) AS n_occurrences "
                "FROM documents"
                for t in ("customer", "merge", "spark", "vector", "window")
            )
        ),
        "bitext_mining": (
            f"SELECT src_id, tgt_id, cos, margin "
            f"FROM read_parquet('{_GOLDEN_DIR}/bitext_mining.parquet')"
        ),
        "isotonic_calibration": (
            f"SELECT bin_id, n, n_pos, rate_raw, rate_iso "
            f"FROM read_parquet('{_GOLDEN_DIR}/isotonic_calibration.parquet')"
        ),
        "sq8_recall": (
            f"SELECT query_id, n_overlap, recall "
            f"FROM read_parquet('{_GOLDEN_DIR}/sq8_recall.parquet')"
        ),
        "host_cap_sample": (
            "SELECT host, doc_id, n_chars, rk FROM ("
            "SELECT doc_id % 40 AS host, doc_id, n_chars, "
            "row_number() OVER (PARTITION BY doc_id % 40 "
            "ORDER BY n_chars DESC, doc_id) AS rk FROM documents) WHERE rk <= 5"
        ),
        "epoch_schedule": (
            " UNION ALL ".join(
                f"SELECT CAST({e} AS BIGINT) AS epoch, doc_id, "
                "CAST(row_number() OVER "
                f"(ORDER BY md5(CAST(doc_id AS VARCHAR) || ':e{e}'), doc_id) AS BIGINT) "
                "AS shuffle_pos FROM documents"
                for e in (1, 2, 3)
            )
        ),
        "schema_evolution": (
            "SELECT doc_id, lang, "
            "CASE WHEN doc_id % 10 = 3 THEN n_chars END AS quality FROM documents"
        ),
        "bootstrap_ci": (
            "WITH r AS (SELECT unnest(generate_series(0, 31)) AS replica), "
            "w AS (SELECT r.replica, "
            "((d.doc_id * 33 + r.replica) * 2654435761) % 4294967296 AS h, d.n_chars "
            "FROM documents d CROSS JOIN r) "
            "SELECT replica, "
            "CAST(sum((h % 2) + ((h // 2) % 2)) AS BIGINT) AS sum_w, "
            "CAST(sum(((h % 2) + ((h // 2) % 2)) * n_chars) AS BIGINT) AS sum_wx, "
            "ROUND(sum(((h % 2) + ((h // 2) % 2)) * n_chars) * 1.0 / "
            "sum((h % 2) + ((h // 2) % 2)), 6) AS mean_rep "
            "FROM w GROUP BY replica ORDER BY replica"
        ),
        "trending_types": (
            "WITH c AS (SELECT epoch_us(ts) // 86400000000 AS day, event_type, "
            "count(*) AS n FROM events GROUP BY 1, 2) "
            "SELECT day, event_type, n, rk FROM ("
            "SELECT day, event_type, CAST(n AS BIGINT) AS n, "
            "CAST(row_number() OVER (PARTITION BY day ORDER BY n DESC, event_type) AS BIGINT) AS rk "
            "FROM c) WHERE rk <= 3"
        ),
        "skyline_orders": (
            "SELECT o_orderkey, o_totalprice, o_orderdate FROM orders o1 "
            "WHERE NOT EXISTS (SELECT 1 FROM orders o2 "
            "WHERE o2.o_totalprice >= o1.o_totalprice "
            "AND o2.o_orderdate >= o1.o_orderdate "
            "AND (o2.o_totalprice > o1.o_totalprice "
            "OR o2.o_orderdate > o1.o_orderdate))"
        ),
        "mojibake_repair": (
            # mirror of the MOJI_MOD injection arithmetic: sel picks the
            # signature (0: 2-char e-acute, 1: 3-char right-quote,
            # 2: 2-char u-umlaut), k = sel + 1 copies appended; each
            # signature repairs to exactly ONE character
            "WITH m AS (SELECT doc_id, text, "
            "CASE WHEN doc_id % 9 = 4 THEN (doc_id // 9) % 3 ELSE -1 END AS sel "
            "FROM documents) "
            "SELECT doc_id, "
            "text || CASE WHEN sel >= 0 THEN repeat("
            "CASE sel WHEN 0 THEN 'é' WHEN 1 THEN '’' ELSE 'ü' END, sel + 1) "
            "ELSE '' END AS text_repaired, "
            "CAST(CASE WHEN sel >= 0 THEN sel + 1 ELSE 0 END AS BIGINT) AS n_mojibake, "
            "CAST(length(text) + CASE WHEN sel >= 0 THEN (sel + 1) * "
            "(CASE sel WHEN 1 THEN 3 ELSE 2 END) ELSE 0 END AS BIGINT) AS chars_before, "
            "CAST(length(text) + CASE WHEN sel >= 0 THEN sel + 1 ELSE 0 END AS BIGINT) "
            "AS chars_after FROM m"
        ),
        "script_mix": (
            # mirror of the script_text injection arithmetic; the ASCII
            # base contributes length(text) Latin codepoints and nothing
            # else; the 7-rules are exclusive (elif), the 11-rule stacks
            "SELECT doc_id, CAST(length(text) AS BIGINT) AS n_latin, "
            "CAST(CASE WHEN doc_id % 11 = 3 THEN 3 ELSE 0 END AS BIGINT) AS n_greek, "
            "CAST(CASE WHEN doc_id % 7 = 2 THEN 6 * ((doc_id // 7) % 2 + 1) "
            "ELSE 0 END AS BIGINT) AS n_cyrillic, "
            "CAST(CASE WHEN doc_id % 7 = 5 THEN 4 ELSE 0 END AS BIGINT) AS n_cjk, "
            "CAST(0 AS BIGINT) AS n_other FROM documents"
        ),
        "hrw_assignment": (
            # independent SQL recomputation of the HRW argmax at n=8 and
            # n=9 over the 40-host fixture keyspace
            "WITH hosts AS (SELECT DISTINCT 'example-' || "
            "lpad(CAST(doc_id % 40 AS VARCHAR), 2, '0') || '.com' AS host FROM documents), "
            "hb AS (SELECT host, b, md5(host || '#' || CAST(b AS VARCHAR)) AS h "
            "FROM hosts CROSS JOIN (SELECT unnest(generate_series(0, 8)) AS b) t), "
            "r8 AS (SELECT host, b, row_number() OVER (PARTITION BY host "
            "ORDER BY h DESC, b) AS rn FROM hb WHERE b < 8), "
            "r9 AS (SELECT host, b, row_number() OVER (PARTITION BY host "
            "ORDER BY h DESC, b) AS rn FROM hb) "
            "SELECT h8.host, CAST(h8.b AS BIGINT) AS bucket8, "
            "CAST(h9.b AS BIGINT) AS bucket9, "
            "CAST(h8.b <> h9.b AS BIGINT) AS moved "
            "FROM (SELECT host, b FROM r8 WHERE rn = 1) h8 "
            "JOIN (SELECT host, b FROM r9 WHERE rn = 1) h9 USING (host)"
        ),
        "extraction_f1": (
            # naive side mirrors the PAGE text column, which the failed
            # fixture rule (%31==11) empties along with the html
            "WITH et AS (SELECT doc_id, " + _TEXT_SQL + " AS etext, "
            "CASE WHEN doc_id % 31 = 11 THEN '' ELSE text END AS text FROM documents), "
            "e AS (SELECT doc_id, unnest(regexp_split_to_array(etext, '\\s+')) AS w FROM et), "
            "nv AS (SELECT doc_id, unnest(regexp_split_to_array(text, '\\s+')) AS w FROM et), "
            "ec AS (SELECT doc_id, w, count(*) AS c FROM e WHERE w <> '' GROUP BY 1, 2), "
            "nc AS (SELECT doc_id, w, count(*) AS c FROM nv WHERE w <> '' GROUP BY 1, 2), "
            "t1 AS (SELECT doc_id, sum(c) AS n1 FROM ec GROUP BY 1), "
            "t2 AS (SELECT doc_id, sum(c) AS n2 FROM nc GROUP BY 1), "
            "cm AS (SELECT ec.doc_id, sum(least(ec.c, nc.c)) AS cmn "
            "FROM ec JOIN nc ON ec.doc_id = nc.doc_id AND ec.w = nc.w GROUP BY 1) "
            "SELECT d.doc_id, CAST(coalesce(t1.n1, 0) AS BIGINT) AS n_extracted, "
            "CAST(coalesce(t2.n2, 0) AS BIGINT) AS n_naive, "
            "CAST(coalesce(cm.cmn, 0) AS BIGINT) AS n_common, "
            "CAST(CASE WHEN coalesce(t1.n1, 0) + coalesce(t2.n2, 0) = 0 THEN 0 "
            "ELSE 2000000 * coalesce(cm.cmn, 0) // (coalesce(t1.n1, 0) + coalesce(t2.n2, 0)) "
            "END AS BIGINT) AS f1_micro "
            "FROM documents d LEFT JOIN t1 ON d.doc_id = t1.doc_id "
            "LEFT JOIN t2 ON d.doc_id = t2.doc_id "
            "LEFT JOIN cm ON d.doc_id = cm.doc_id"
        ),
        "url_templates": (
            "WITH u AS (SELECT doc_id, 'https://example-' || "
            "lpad(CAST(doc_id % 40 AS VARCHAR), 2, '0') || '.com' || "
            "CASE doc_id % 4 WHEN 0 THEN '/p/' || doc_id "
            "WHEN 1 THEN '/cal/' || (2020 + doc_id % 5) || '/' || (1 + doc_id % 12) "
            "|| '/' || (1 + doc_id % 28) "
            "WHEN 2 THEN '/a-' || doc_id || '/comments' "
            "ELSE '/static/about' END AS url FROM documents), "
            "t AS (SELECT regexp_replace(url, '[0-9]+', 'N', 'g') AS template, "
            "regexp_extract(url, '^https?://([^/]+)', 1) AS host FROM u) "
            "SELECT template, CAST(count(*) AS BIGINT) AS n_pages, "
            "CAST(count(DISTINCT host) AS BIGINT) AS n_hosts FROM t GROUP BY template"
        ),
        "card_scrub": (
            # CARD_MOD rule: ' card ' (6) + 16 digits appended; valid
            # (even quotient) cards redact to '<CC>' (4), a -12 delta
            "SELECT doc_id, "
            "CAST(CASE WHEN doc_id % 10 = 7 AND (doc_id // 10) % 2 = 0 "
            "THEN 1 ELSE 0 END AS BIGINT) AS n_cc_valid, "
            "CAST(CASE WHEN doc_id % 10 = 7 AND (doc_id // 10) % 2 = 1 "
            "THEN 1 ELSE 0 END AS BIGINT) AS n_cc_invalid, "
            "CAST(length(text) + CASE WHEN doc_id % 10 = 7 THEN 22 ELSE 0 END "
            "- CASE WHEN doc_id % 10 = 7 AND (doc_id // 10) % 2 = 0 THEN 12 "
            "ELSE 0 END AS BIGINT) AS scrubbed_len FROM documents"
        ),
        "shard_plan": (
            "SELECT host, worker, weight FROM "
            f"read_parquet('{_GOLDEN_DIR}/shard_plan.parquet')"
        ),
        "robots_meta": (
            "SELECT doc_id, "
            "CAST(CASE WHEN doc_id % 6 = 1 THEN 1 ELSE 0 END AS BIGINT) AS has_meta, "
            "CAST(CASE WHEN doc_id % 6 = 1 AND (doc_id // 6) % 4 IN (1, 3) "
            "THEN 1 ELSE 0 END AS BIGINT) AS noindex, "
            "CAST(CASE WHEN doc_id % 6 = 1 AND (doc_id // 6) % 4 IN (2, 3) "
            "THEN 1 ELSE 0 END AS BIGINT) AS nofollow FROM documents"
        ),
        "dedup_eval": (
            "SELECT tp, fp, fn, tn, precision_micro, recall_micro, f1_micro FROM "
            f"read_parquet('{_GOLDEN_DIR}/dedup_eval.parquet')"
        ),
        "welch_t": (
            # exact integer sufficient stats + literally-mirrored float
            # expression (se = ((sxx - sx*1.0*sx/n)/(n-1))/n)
            "WITH s AS (SELECT lang, doc_id % 2 AS half, "
            "CAST(count(*) AS BIGINT) AS n, CAST(sum(n_chars) AS BIGINT) AS sx, "
            "CAST(sum(n_chars * n_chars) AS BIGINT) AS sxx "
            "FROM documents GROUP BY lang, doc_id % 2), "
            "j AS (SELECT a.lang, a.n AS n0, a.sx AS sx0, a.sxx AS sxx0, "
            "b.n AS n1, b.sx AS sx1, b.sxx AS sxx1 "
            "FROM (SELECT * FROM s WHERE half = 0) a "
            "JOIN (SELECT * FROM s WHERE half = 1) b USING (lang) "
            "WHERE a.n >= 2 AND b.n >= 2), "
            "c AS (SELECT lang, n0, n1, "
            "(sxx0 - sx0 * 1.0 * sx0 / n0) / (n0 - 1) / n0 AS se0, "
            "(sxx1 - sx1 * 1.0 * sx1 / n1) / (n1 - 1) / n1 AS se1, "
            "sx0 * 1.0 / n0 AS m0, sx1 * 1.0 / n1 AS m1 FROM j) "
            "SELECT lang, n0, n1, "
            "CAST(floor(1000000 * ((m0 - m1) / sqrt(se0 + se1))) AS BIGINT) AS t_micro, "
            "CAST(floor(1000000 * ((se0 + se1) * (se0 + se1) / "
            "(se0 * se0 / (n0 - 1) + se1 * se1 / (n1 - 1)))) AS BIGINT) AS df_micro "
            "FROM c"
        ),
        "benford_audit": (
            "WITH c AS (SELECT CAST(substr(CAST(CAST(round(o_totalprice * 100) "
            "AS BIGINT) AS VARCHAR), 1, 1) AS BIGINT) AS digit FROM orders "
            "WHERE CAST(round(o_totalprice * 100) AS BIGINT) > 0), "
            "nd AS (SELECT digit, CAST(count(*) AS BIGINT) AS n FROM c GROUP BY digit), "
            "t AS (SELECT CAST(sum(n) AS BIGINT) AS total FROM nd) "
            "SELECT digit, n, "
            "CAST(floor(1000000 * (total * log10(1 + 1.0 / digit))) AS BIGINT) "
            "AS expected_micro, "
            "CAST(floor(1000000 * ((n - total * log10(1 + 1.0 / digit)) "
            "* (n - total * log10(1 + 1.0 / digit)) "
            "/ (total * log10(1 + 1.0 / digit)))) AS BIGINT) AS chi2_term_micro "
            "FROM nd, t"
        ),
        "host_reciprocity": (
            "WITH e AS (SELECT DISTINCT doc_id % 40 AS src, (doc_id * m) % 40 AS dst "
            "FROM documents CROSS JOIN (SELECT unnest([3, 7, 11]) AS m) mm "
            "WHERE doc_id % 40 <> (doc_id * m) % 40), "
            "n AS (SELECT CAST(count(*) AS BIGINT) AS n_edges FROM e), "
            "r AS (SELECT CAST(count(*) AS BIGINT) AS n_mutual FROM e a "
            "JOIN e b ON a.src = b.dst AND a.dst = b.src) "
            "SELECT n_edges, n_mutual, "
            "CAST(1000000 * n_mutual // n_edges AS BIGINT) AS reciprocity_micro "
            "FROM n, r"
        ),
        "price_quantity_corr": (
            "WITH s AS (SELECT l_returnflag, CAST(count(*) AS BIGINT) AS n, "
            "CAST(sum(CAST(floor(l_quantity) AS BIGINT)) AS BIGINT) AS sx, "
            "CAST(sum(CAST(floor(l_extendedprice) AS BIGINT)) AS BIGINT) AS sy, "
            "CAST(sum(CAST(floor(l_quantity) AS BIGINT) * CAST(floor(l_quantity) AS BIGINT)) AS BIGINT) AS sxx, "
            "CAST(sum(CAST(floor(l_extendedprice) AS BIGINT) * CAST(floor(l_extendedprice) AS BIGINT)) AS BIGINT) AS syy, "
            "CAST(sum(CAST(floor(l_quantity) AS BIGINT) * CAST(floor(l_extendedprice) AS BIGINT)) AS BIGINT) AS sxy "
            "FROM lineitem GROUP BY l_returnflag) "
            "SELECT l_returnflag, n, "
            "CAST(floor(1000000 * ((sxy * 1.0 / n - sx * 1.0 / n * (sy * 1.0 / n)) / "
            "sqrt((sxx * 1.0 / n - sx * 1.0 / n * (sx * 1.0 / n)) "
            "* (syy * 1.0 / n - sy * 1.0 / n * (sy * 1.0 / n))))) AS BIGINT) AS r_micro "
            "FROM s WHERE n >= 2"
        ),
        "chi2_lang_source": (
            "WITH c AS (SELECT lang, source, CAST(count(*) AS BIGINT) AS n "
            "FROM documents GROUP BY lang, source), "
            "rt AS (SELECT lang, CAST(sum(n) AS BIGINT) AS ra FROM c GROUP BY lang), "
            "ct AS (SELECT source, CAST(sum(n) AS BIGINT) AS cb FROM c GROUP BY source), "
            "tot AS (SELECT CAST(sum(n) AS BIGINT) AS total FROM c), "
            "x AS (SELECT rt.lang, ct.source, ra, cb, "
            "CAST(coalesce(c.n, 0) AS BIGINT) AS n FROM rt CROSS JOIN ct "
            "LEFT JOIN c ON c.lang = rt.lang AND c.source = ct.source) "
            "SELECT lang, source, n, "
            "CAST(floor(1000000 * (ra * 1.0 * cb / total)) AS BIGINT) AS expected_micro, "
            "CAST(floor(1000000 * ((n - ra * 1.0 * cb / total) "
            "* (n - ra * 1.0 * cb / total) / (ra * 1.0 * cb / total))) AS BIGINT) "
            "AS chi2_term_micro FROM x CROSS JOIN tot"
        ),
        "mannwhitney_returned": (
            "WITH v AS (SELECT CAST(floor(l_quantity) AS BIGINT) AS val, "
            "CASE WHEN l_returnflag = 'R' THEN 1 ELSE 0 END AS g FROM lineitem), "
            "c AS (SELECT val, CAST(sum(g) AS BIGINT) AS na_v, "
            "CAST(count(*) AS BIGINT) AS n_v FROM v GROUP BY val), "
            "r AS (SELECT val, na_v, n_v, 2 * (CAST(sum(n_v) OVER "
            "(ORDER BY val ROWS BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW) "
            "AS BIGINT) - n_v) + n_v + 1 AS midrank2 FROM c), "
            "s AS (SELECT CAST(sum(na_v * midrank2) AS BIGINT) AS r2a, "
            "CAST(sum(na_v) AS BIGINT) AS na, CAST(sum(n_v) AS BIGINT) AS n, "
            "CAST(sum(n_v * n_v * n_v - n_v) AS BIGINT) AS tie FROM r) "
            "SELECT na AS n_a, n - na AS n_b, r2a - na * (na + 1) AS u2_a, "
            "2 * na * (n - na) - (r2a - na * (na + 1)) AS u2_b, "
            "CAST(floor(1000000 * (((r2a - na * (na + 1)) / 2.0 "
            "- na * 1.0 * (n - na) / 2) / sqrt(na * 1.0 * (n - na) / 12 "
            "* ((n + 1) - tie * 1.0 / (n * 1.0 * (n - 1)))))) AS BIGINT) AS z_micro "
            "FROM s"
        ),
        "spearman_qty_discount": (
            "WITH p AS (SELECT CAST(floor(l_quantity) AS BIGINT) AS x, "
            "CAST(floor(l_discount * 100) AS BIGINT) AS y, "
            "CAST(count(*) AS BIGINT) AS c FROM lineitem GROUP BY x, y), "
            "xm AS (SELECT x, CAST(sum(c) AS BIGINT) AS cx FROM p GROUP BY x), "
            "ym AS (SELECT y, CAST(sum(c) AS BIGINT) AS cy FROM p GROUP BY y), "
            "xr AS (SELECT x, 2 * (CAST(sum(cx) OVER (ORDER BY x ROWS BETWEEN "
            "UNBOUNDED PRECEDING AND CURRENT ROW) AS BIGINT) - cx) + cx + 1 "
            "AS rx2 FROM xm), "
            "yr AS (SELECT y, 2 * (CAST(sum(cy) OVER (ORDER BY y ROWS BETWEEN "
            "UNBOUNDED PRECEDING AND CURRENT ROW) AS BIGINT) - cy) + cy + 1 "
            "AS ry2 FROM ym), "
            "s AS (SELECT CAST(sum(c) AS BIGINT) AS n, "
            "sum(CAST(c AS HUGEINT) * rx2) AS sx, "
            "sum(CAST(c AS HUGEINT) * ry2) AS sy, "
            "sum(CAST(c AS HUGEINT) * rx2 * rx2) AS sxx, "
            "sum(CAST(c AS HUGEINT) * ry2 * ry2) AS syy, "
            "sum(CAST(c AS HUGEINT) * rx2 * ry2) AS sxy "
            "FROM p JOIN xr USING (x) JOIN yr USING (y)) "
            "SELECT n, CAST(floor(1000000 * ((sxy * 1.0 / n - sx * 1.0 / n "
            "* (sy * 1.0 / n)) / sqrt((sxx * 1.0 / n - sx * 1.0 / n * (sx * 1.0 / n)) "
            "* (syy * 1.0 / n - sy * 1.0 / n * (sy * 1.0 / n))))) AS BIGINT) "
            "AS rho_micro FROM s"
        ),
        "small_qty_revenue": (
            "WITH pk AS (SELECT p_partkey FROM part WHERE p_brand = 'Brand#12'), "
            "th AS (SELECT l_partkey, sum(l_quantity) AS sq, "
            "CAST(count(*) AS BIGINT) AS cq FROM lineitem "
            "JOIN pk ON p_partkey = l_partkey GROUP BY l_partkey) "
            "SELECT CAST(count(*) AS BIGINT) AS n_items, "
            "CAST(coalesce(sum(CAST(round(l_extendedprice * 100) AS BIGINT)), 0) "
            "AS BIGINT) AS revenue_cents "
            "FROM lineitem JOIN th ON th.l_partkey = lineitem.l_partkey "
            "WHERE l_quantity < 0.4 * (sq * 1.0 / cq)"
        ),
        "large_volume_orders": (
            "WITH s AS (SELECT l_orderkey, sum(l_quantity) AS q FROM lineitem "
            "GROUP BY l_orderkey HAVING sum(l_quantity) > 180.0) "
            "SELECT c_name, o_orderkey, "
            "CAST(round(o_totalprice * 100) AS BIGINT) AS total_cents, "
            "CAST(round(q) AS BIGINT) AS sum_qty "
            "FROM s JOIN orders ON o_orderkey = l_orderkey "
            "JOIN customer ON c_custkey = o_custkey "
            "ORDER BY o_totalprice DESC, o_orderkey LIMIT 100"
        ),
        "waiting_suppliers": (
            "WITH os AS (SELECT l_orderkey, l_suppkey, "
            "max(CASE WHEN l_returnflag = 'R' THEN 1 ELSE 0 END) AS r "
            "FROM lineitem GROUP BY l_orderkey, l_suppkey), "
            "agg AS (SELECT l_orderkey, CAST(count(*) AS BIGINT) AS ns, "
            "CAST(sum(r) AS BIGINT) AS nr, "
            "min(CASE WHEN r = 1 THEN l_suppkey END) AS rs "
            "FROM os GROUP BY l_orderkey), "
            "b AS (SELECT rs, CAST(count(*) AS BIGINT) AS numwait FROM agg "
            "JOIN orders ON o_orderkey = l_orderkey "
            "WHERE o_orderstatus = 'F' AND ns > 1 AND nr = 1 GROUP BY rs) "
            "SELECT rs AS s_suppkey, s_name, numwait FROM b "
            "JOIN supplier ON s_suppkey = rs "
            "ORDER BY numwait DESC, rs LIMIT 20"
        ),
        "dormant_rich_customers": (
            "WITH thr AS (SELECT sum(CAST(round(c_acctbal * 100) AS BIGINT)) "
            "* 1.0 / (100 * count(*)) AS t FROM customer WHERE c_acctbal > 0), "
            "d AS (SELECT c_custkey, c_nationkey, c_acctbal FROM customer, thr "
            "WHERE c_acctbal > t AND NOT EXISTS (SELECT 1 FROM orders "
            "WHERE o_custkey = c_custkey "
            "AND o_orderdate >= TIMESTAMP '2000-07-01')) "
            "SELECT n_name, CAST(count(*) AS BIGINT) AS n_cust, "
            "CAST(sum(CAST(round(c_acctbal * 100) AS BIGINT)) AS BIGINT) "
            "AS total_cents "
            "FROM d JOIN nation ON n_nationkey = c_nationkey GROUP BY n_name"
        ),
        "token_entropy": (
            "WITH toks AS (SELECT doc_id, unnest(list_filter("
            "regexp_split_to_array(text, '\\s+'), t -> t <> '')) AS w "
            "FROM documents), "
            "c AS (SELECT doc_id, w, CAST(count(*) AS BIGINT) AS c "
            "FROM toks GROUP BY doc_id, w), "
            "s AS (SELECT doc_id, CAST(sum(c) AS BIGINT) AS n_tokens, "
            "CAST(sum(CAST(floor(1000000 * (c * log2(c))) AS BIGINT)) AS BIGINT) "
            "AS sl FROM c GROUP BY doc_id) "
            "SELECT doc_id, n_tokens, "
            "CAST(floor(1000000 * log2(n_tokens)) AS BIGINT) - sl // n_tokens "
            "AS entropy_micro FROM s WHERE n_tokens > 0"
        ),
        "acf_daily_events": (
            "WITH d AS (SELECT event_type, CAST(date_trunc('day', ts) AS DATE) "
            "AS day, CAST(count(*) AS BIGINT) AS n FROM events "
            "GROUP BY event_type, day), "
            "l AS (SELECT CAST(lag AS BIGINT) AS lag FROM "
            "(VALUES (1), (7)) AS t(lag)), "
            "p AS (SELECT a.event_type, l.lag, a.n AS x, b.n AS y "
            "FROM d a CROSS JOIN l JOIN d b ON b.event_type = a.event_type "
            "AND b.day = a.day + CAST(l.lag AS INTEGER)), "
            "s AS (SELECT event_type, lag, CAST(count(*) AS BIGINT) AS n, "
            "CAST(sum(x) AS BIGINT) AS sx, CAST(sum(y) AS BIGINT) AS sy, "
            "CAST(sum(x * x) AS BIGINT) AS sxx, CAST(sum(y * y) AS BIGINT) AS syy, "
            "CAST(sum(x * y) AS BIGINT) AS sxy FROM p GROUP BY event_type, lag) "
            "SELECT event_type AS key, lag, n AS n_pairs, "
            "CAST(floor(1000000 * ((sxy * 1.0 / n - sx * 1.0 / n * (sy * 1.0 / n)) "
            "/ sqrt((sxx * 1.0 / n - sx * 1.0 / n * (sx * 1.0 / n)) "
            "* (syy * 1.0 / n - sy * 1.0 / n * (sy * 1.0 / n))))) AS BIGINT) "
            "AS r_micro FROM s WHERE n >= 2 "
            "AND (sxx * 1.0 / n - sx * 1.0 / n * (sx * 1.0 / n)) > 0 "
            "AND (syy * 1.0 / n - sy * 1.0 / n * (sy * 1.0 / n)) > 0"
        ),
        "ks_returned_qty": (
            "WITH v AS (SELECT CAST(floor(l_quantity) AS BIGINT) AS val, "
            "CASE WHEN l_returnflag = 'R' THEN 1 ELSE 0 END AS g FROM lineitem), "
            "c AS (SELECT val, CAST(sum(g) AS BIGINT) AS ca, "
            "CAST(sum(1 - g) AS BIGINT) AS cb FROM v GROUP BY val), "
            "t AS (SELECT CAST(sum(ca) AS BIGINT) AS na, "
            "CAST(sum(cb) AS BIGINT) AS nb FROM c), "
            "w AS (SELECT CAST(sum(ca) OVER (ORDER BY val ROWS BETWEEN "
            "UNBOUNDED PRECEDING AND CURRENT ROW) AS BIGINT) AS cum_a, "
            "CAST(sum(cb) OVER (ORDER BY val ROWS BETWEEN UNBOUNDED PRECEDING "
            "AND CURRENT ROW) AS BIGINT) AS cum_b FROM c), "
            "m AS (SELECT CAST(max(abs(cum_a * nb - cum_b * na)) AS BIGINT) AS d2 "
            "FROM w, t) "
            "SELECT na AS n_a, nb AS n_b, d2, "
            "CAST(floor(1000000 * (d2 / (na * 1.0 * nb))) AS BIGINT) AS ks_micro "
            "FROM m, t"
        ),
        "cusum_daily_events": (
            "WITH d AS (SELECT event_type AS k, CAST(CAST(date_trunc('day', ts) "
            "AS DATE) - DATE '1970-01-01' AS BIGINT) AS day, "
            "CAST(count(*) AS BIGINT) AS n FROM events GROUP BY 1, 2), "
            "b AS (SELECT k, min(day) AS d0, max(day) AS d1, "
            "CAST(sum(n) AS BIGINT) AS total FROM d GROUP BY k), "
            "kk AS (SELECT k, d0, d1, 1000000 * total // (d1 - d0 + 1) AS kv "
            "FROM b), "
            "g AS (SELECT kk.k, kv, unnest(generate_series(d0, d1)) AS day "
            "FROM kk), "
            "z AS (SELECT g.k, g.day, g.kv, coalesce(d.n, 0) AS n FROM g "
            "LEFT JOIN d ON d.k = g.k AND d.day = g.day), "
            "c AS (SELECT k, day, kv, CAST(sum(1000000 * n - kv) OVER "
            "(PARTITION BY k ORDER BY day ROWS BETWEEN UNBOUNDED PRECEDING AND "
            "CURRENT ROW) AS BIGINT) AS cum FROM z), "
            "s AS (SELECT k, kv, day, cum - least(CAST(min(cum) OVER "
            "(PARTITION BY k ORDER BY day ROWS BETWEEN UNBOUNDED PRECEDING AND "
            "CURRENT ROW) AS BIGINT), 0) AS sv FROM c) "
            "SELECT k AS key, kv AS k_micro, CAST(max(sv) AS BIGINT) "
            "AS s_max_micro, coalesce(min(CASE WHEN sv >= 3000000 * kv // 1000000 "
            "THEN day END), -1) AS first_alarm_day FROM s GROUP BY k, kv"
        ),
        "deletion_vector_read": (
            "SELECT doc_id, text, lang, source, n_chars FROM documents "
            "WHERE doc_id % 7 <> 3"
        ),
        "hreflang_clusters": (
            # mirror of the HREFLANG_MOD fixture arithmetic; failed /
            # fallback residue classes carry no custom head markup
            "WITH base AS (SELECT doc_id FROM documents WHERE doc_id % 6 = 2 "
            "AND doc_id % 23 <> 7 AND doc_id % 31 <> 11), "
            "j AS (SELECT doc_id, unnest(generate_series(0, 1 + doc_id % 3)) "
            "AS jj FROM base), "
            "langs(i, l) AS (VALUES (0, 'en'), (1, 'de'), (2, 'fr'), "
            "(3, 'es'), (4, 'ja'), (5, 'zh')) "
            "SELECT doc_id, l AS hreflang, 'https://example-' || "
            "lpad(CAST(doc_id % 40 AS VARCHAR), 2, '0') || '.com/' || l || "
            "'/doc-' || lpad(CAST(doc_id AS VARCHAR), 6, '0') AS href "
            "FROM j JOIN langs ON i = (doc_id // 6 + jj) % 6"
        ),
        "neyman_alloc": (
            "WITH s AS (SELECT lang, CAST(count(*) AS BIGINT) AS n, "
            "CAST(sum(CAST(floor(n_chars) AS BIGINT)) AS BIGINT) AS sx, "
            "CAST(sum(CAST(floor(n_chars) AS BIGINT) "
            "* CAST(floor(n_chars) AS BIGINT)) AS BIGINT) AS sxx "
            "FROM documents GROUP BY lang), "
            "w AS (SELECT lang, n, CASE WHEN (sxx * 1.0 / n - sx * 1.0 / n "
            "* (sx * 1.0 / n)) > 0 THEN CAST(floor(1000000 * (n * sqrt(sxx * 1.0 "
            "/ n - sx * 1.0 / n * (sx * 1.0 / n)))) AS BIGINT) ELSE 0 END "
            "AS w_micro FROM s), "
            "t AS (SELECT CAST(sum(w_micro) AS BIGINT) AS sw FROM w), "
            "b AS (SELECT lang, n, w_micro, "
            "CAST(CAST(w_micro AS HUGEINT) * 1000 // sw AS BIGINT) AS base, "
            "CAST(CAST(w_micro AS HUGEINT) * 1000 % sw AS BIGINT) AS rem "
            "FROM w, t), "
            "r AS (SELECT lang, n, w_micro, base, "
            "row_number() OVER (ORDER BY rem DESC, lang) AS rk, "
            "(SELECT 1000 - sum(base) FROM b) AS leftover FROM b) "
            "SELECT lang, n AS stratum_n, w_micro, "
            "base + CASE WHEN rk <= leftover THEN 1 ELSE 0 END AS alloc FROM r"
        ),
        "redirect_chains": (
            # closed form of the fixture chain rule: residues 1-3 walk
            # down to the first non-source id below
            "SELECT doc_id AS src, doc_id - (doc_id % 8) AS final, "
            "doc_id % 8 AS hops FROM documents WHERE doc_id % 8 IN (1, 2, 3)"
        ),
        "crawl_budget": (
            "WITH dem AS (SELECT 'example-' || lpad(CAST(doc_id % 40 AS VARCHAR), "
            "2, '0') || '.com' AS host, CAST(count(*) AS BIGINT) AS d "
            "FROM documents GROUP BY 1), "
            "cap AS (SELECT CAST(count(*) // 3 AS BIGINT) AS c, "
            "CAST(count(*) AS BIGINT) AS total FROM documents), "
            "r AS (SELECT host, d, row_number() OVER (ORDER BY d, host) AS i, "
            "CAST(coalesce(sum(d) OVER (ORDER BY d, host ROWS BETWEEN UNBOUNDED "
            "PRECEDING AND 1 PRECEDING), 0) AS BIGINT) AS p, "
            "CAST(coalesce(lag(d) OVER (ORDER BY d, host), 0) AS BIGINT) AS lo, "
            "CAST(count(*) OVER () AS BIGINT) AS h FROM dem), "
            "tt AS (SELECT CASE WHEN (SELECT sum(d) FROM dem) <= c "
            "THEN (SELECT max(d) FROM dem) "
            "ELSE (SELECT max(CASE WHEN lo <= (c - p) // (h - i + 1) "
            "AND (c - p) // (h - i + 1) < d THEN (c - p) // (h - i + 1) END) "
            "FROM r) END AS t, c, "
            "CASE WHEN (SELECT sum(d) FROM dem) <= c THEN 0 ELSE 1 END AS scarce "
            "FROM cap), "
            "a AS (SELECT host, d, least(d, t) AS base, t, scarce, "
            "c - (SELECT sum(least(d, t)) FROM dem, tt) AS leftover FROM dem, tt), "
            "b AS (SELECT host, d, base, scarce, leftover, CASE WHEN d > "
            "(SELECT t FROM tt) THEN row_number() OVER (PARTITION BY (d > "
            "(SELECT t FROM tt)) ORDER BY host) END AS rk FROM a) "
            "SELECT host, d AS demand, base + CASE WHEN scarce = 1 "
            "AND rk IS NOT NULL AND rk <= leftover THEN 1 ELSE 0 END AS alloc "
            "FROM b"
        ),
        "wmedian_qty_by_flag": (
            "WITH p AS (SELECT l_returnflag AS k, "
            "CAST(floor(l_quantity) AS BIGINT) AS val, "
            "CAST(sum(CAST(round(l_extendedprice * 100) AS BIGINT)) AS BIGINT) "
            "AS w FROM lineitem GROUP BY 1, 2), "
            "c AS (SELECT k, val, CAST(sum(w) OVER (PARTITION BY k ORDER BY val "
            "ROWS BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW) AS BIGINT) AS cum, "
            "CAST(sum(w) OVER (PARTITION BY k) AS BIGINT) AS tot FROM p) "
            "SELECT k AS l_returnflag, "
            "min(CASE WHEN 2 * cum >= tot THEN val END) AS wmedian, "
            "min(tot) AS total_weight_cents FROM c GROUP BY k"
        ),
        "theil_sources": (
            "WITH dem AS (SELECT source, CAST(count(*) AS BIGINT) AS n "
            "FROM documents GROUP BY source), "
            "t AS (SELECT CAST(sum(n) AS BIGINT) AS total, "
            "CAST(count(*) AS BIGINT) AS h FROM dem) "
            "SELECT h AS n_keys, total, "
            "CAST(sum(CAST(floor(1000000 * ((n * 1.0 / total) "
            "* ln(n * 1.0 * h / total))) AS BIGINT)) AS BIGINT) AS theil_micro "
            "FROM dem, t GROUP BY h, total"
        ),
        "fano_daily_events": (
            "WITH d AS (SELECT event_type, CAST(CAST(date_trunc('day', ts) "
            "AS DATE) - DATE '1970-01-01' AS BIGINT) AS day, "
            "CAST(count(*) AS BIGINT) AS n FROM events GROUP BY 1, 2), "
            "s AS (SELECT event_type, max(day) - min(day) + 1 AS nd, "
            "CAST(sum(n) AS BIGINT) AS s1, CAST(sum(n * n) AS BIGINT) AS s2 "
            "FROM d GROUP BY event_type) "
            "SELECT event_type AS key, nd AS n_days, "
            "CAST(floor(1000000 * ((s2 * 1.0 / nd - (s1 * 1.0 / nd) "
            "* (s1 * 1.0 / nd)) / (s1 * 1.0 / nd))) AS BIGINT) AS fano_micro "
            "FROM s WHERE s1 > 0"
        ),
    }
