"""Document-level operators (reference S8/O2/D3 analogs).

* :func:`merge_document_pages` — multi-row documents (one row per page)
  merged into one row per document: pages sorted by page_no, markdown
  joined with ``"\\n\\n"`` — exactly the reference's per-doc merge
  (app/dotsocr_service.py:444-515: sort by page_no, concatenate md,
  assemble one JSON list).
* :func:`latest_page_per_url` — corpus-level url dedup across crawls:
  keep the newest ``warc_ts`` per url (the D3 analog of the
  reference's job-identity dedup, dotsocr_service.py:595-623).

Both are ONE keyed shuffle; the url/doc key is md5-uniform so no salting
is required for the group stage itself.  (Salting matters for
*aggregations* keyed by domain — see metrics_by_domain.)
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc

import ray.data


def split_words_midpoints(text: str, n_pages: int = 2) -> list[str]:
    """Word-level even split of a document's text into page texts —
    the pure splitting rule shared by the Ray explode and the golden
    oracle (word midpoint for n_pages=2)."""
    words = (text or "").split()
    out = []
    for p in range(n_pages):
        lo = (len(words) * p) // n_pages
        hi = (len(words) * (p + 1)) // n_pages
        out.append(" ".join(words[lo:hi]))
    return out


def pages_from_multipage_docs(
    docs: ray.data.Dataset,
    *,
    id_col: str = "doc_id",
    text_col: str = "text",
    n_pages: int = 2,
) -> ray.data.Dataset:
    """Doc → per-page rows (the reference S2 explode,
    dots_ocr/utils/doc_utils.py:51-71: one PDF → one task per page).

    Each document row becomes ``n_pages`` rows (doc_url, page_no,
    extracted_text, extracted_text_nohf) with the text split at word
    midpoints — a pure vectorizable flat explode (no shuffle), the
    inverse of :func:`merge_document_pages`."""

    def _split(batch: pa.Table) -> pa.Table:
        doc_urls, page_nos, mds = [], [], []
        for doc_id, text in zip(batch.column(id_col).to_pylist(), batch.column(text_col).to_pylist()):
            for page_no, chunk in enumerate(split_words_midpoints(text, n_pages), start=1):
                doc_urls.append(f"doc-{doc_id:06d}")
                page_nos.append(page_no)
                mds.append(chunk)
        return pa.table(
            {
                "doc_url": pa.array(doc_urls, type=pa.string()),
                "page_no": pa.array(page_nos, type=pa.int32()),
                "extracted_text": pa.array(mds, type=pa.string()),
                "extracted_text_nohf": pa.array(mds, type=pa.string()),
            }
        )

    return docs.map_batches(_split, batch_format="pyarrow")


def merge_document_pages(
    pages: ray.data.Dataset,
    *,
    doc_col: str = "doc_url",
    page_no_col: str = "page_no",
    md_col: str = "extracted_text",
    md_nohf_col: str = "extracted_text_nohf",
) -> ray.data.Dataset:
    """1 row per (doc, page) → 1 row per doc.

    Output: (doc_url, n_pages, extracted_text, extracted_text_nohf)
    with pages joined in page_no order by ``"\\n\\n"``."""

    # coarse 256-way exchange on hash(doc) + a fully vectorized fold:
    # the per-doc "\n\n" joins run as ONE pc.binary_join over a
    # run-offset ListArray — no Python call (and no arrow-table
    # overhead) per document, which at 10^12 docs is the difference
    # between a fold and a stall
    import numpy as np

    from dots_ocr_ray.util import bucket_exchange

    def _merge(group: pa.Table) -> pa.Table:
        group = group.sort_by(
            [(doc_col, "ascending"), (page_no_col, "ascending")]
        )
        n = group.num_rows
        urls = group.column(doc_col)
        if isinstance(urls, pa.ChunkedArray):
            urls = urls.combine_chunks()
        new_run = np.ones(n, dtype=bool)
        if n > 1:
            new_run[1:] = pc.not_equal(urls.slice(1), urls.slice(0, n - 1)).to_numpy(
                zero_copy_only=False
            )
        starts = np.flatnonzero(new_run)
        offsets = pa.array(np.concatenate([starts, [n]]).astype(np.int32))

        def _join(col: str) -> pa.Array:
            vals = group.column(col)
            if isinstance(vals, pa.ChunkedArray):
                vals = vals.combine_chunks()
            return pc.binary_join(
                pa.ListArray.from_arrays(offsets, pc.fill_null(vals, "")), "\n\n"
            )

        n_pages = np.diff(np.concatenate([starts, [n]]))
        return pa.table(
            {
                "doc_url": urls.take(pa.array(starts)),
                "n_pages": pa.array(n_pages.astype(np.int32), type=pa.int32()),
                "extracted_text": _join(md_col),
                "extracted_text_nohf": _join(md_nohf_col),
            }
        )

    return bucket_exchange(pages, doc_col, _merge, num_buckets=256)


def latest_page_per_url(pages: ray.data.Dataset, *, url_col: str = "url", ts_col: str = "warc_ts") -> ray.data.Dataset:
    """Crawl dedup: newest capture wins per url; deterministic tiebreak
    on the full row order after sort.

    A vectorized per-batch combiner (local latest-per-url) runs before
    the keyed exchange, so a crawl with many captures per url shuffles
    at most one row per (url, input block) instead of every capture."""

    def _local_latest(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return batch
        import pyarrow.compute as pc

        order = pc.sort_indices(
            batch, sort_keys=[(url_col, "ascending"), (ts_col, "descending")]
        )
        batch = batch.take(order)
        n = batch.num_rows
        if n == 1:
            return batch
        import numpy as np

        urls = batch.column(url_col).combine_chunks()
        neq = pc.not_equal(urls.slice(1, n - 1), urls.slice(0, n - 1))
        mask = np.empty(n, dtype=bool)
        mask[0] = True
        mask[1:] = np.asarray(neq)  # Array or ChunkedArray both convert
        return batch.filter(pa.array(mask))

    # the reduce is the SAME vectorized latest-per-url pass run once
    # per coarse hash bucket (urls partition across buckets), not one
    # Python call per url — corpus-scale url counts never pay per-key
    # Python
    from dots_ocr_ray.util import bucket_exchange

    def _latest_fold(group: pa.Table) -> pa.Table:
        return _local_latest(group.drop_columns(["__bucket"]))

    combined = pages.map_batches(_local_latest, batch_format="pyarrow")
    return bucket_exchange(combined, url_col, _latest_fold, num_buckets=256)


def window_dedup(
    ds: ray.data.Dataset,
    *,
    key_col: str = "url",
    ts_col: str = "warc_ts",
    window_s: int = 86400,
) -> ray.data.Dataset:
    """Tumbling-window recrawl dedup: keep only the FIRST capture per
    (key, window) — the crawl-politeness / storage-budget rule "at
    most one stored copy of a url per day (window)", the time-bounded
    complement of :func:`latest_page_per_url` (which keeps exactly one
    row per url across ALL time).

    The window id is exact integer arithmetic (epoch µs floor-divided
    by the window span) and the survivor per (key, window) is picked by
    :func:`~dots_ocr_ray.pipelines.dedup.sorted_group_first` — one
    bucket exchange on the two key columns, no per-group Python.
    Output = surviving rows with a ``win_id`` int64 column appended."""
    from dots_ocr_ray.pipelines.dedup import sorted_group_first

    window_us = window_s * 1_000_000

    def _prep(batch: pa.Table) -> pa.Table:
        import numpy as np

        # normalize the unit BEFORE the int cast: a timestamp[s]/[ms]
        # column would otherwise divide by a µs window span.  numpy //
        # FLOORS (matching SQL's epoch // window) — Arrow's divide
        # truncates toward zero and would misplace pre-1970 captures
        ts_us = batch.column(ts_col).cast(pa.timestamp("us")).cast(pa.int64())
        window = pa.array(
            ts_us.to_numpy(zero_copy_only=False) // window_us, type=pa.int64()
        )
        batch = batch.append_column("win_id", window)
        return batch.append_column("__ts_us", ts_us)

    first = sorted_group_first(
        ds.map_batches(_prep, batch_format="pyarrow"), [key_col, "win_id"], "__ts_us"
    )
    return first.drop_columns(["__ts_us"])


def table_cells_from_pages(
    pages: ray.data.Dataset, *, html_col: str = "html", id_col: str = "doc_id"
) -> ray.data.Dataset:
    """Pages → one row per <table> CELL: (id, table_idx, row_idx,
    col_idx, cell) — HTML tables turned into relational rows (the
    structured-data complement of the Table category's raw-HTML
    passthrough; reference format_transformer serializes tables as
    HTML strings, this makes them queryable).

    Pure flat explode through
    :func:`~dots_ocr_ray.kernel.html_parse.extract_table_cells` —
    zero exchanges; the html column is consumed and NOT carried into
    the output, so nothing heavy rides past this stage."""
    from dots_ocr_ray.kernel.html_parse import extract_table_cells

    def _explode(batch: pa.Table) -> pa.Table:
        ids, t_idx, r_idx, c_idx, cells = [], [], [], [], []
        for doc_id, html in zip(
            batch.column(id_col).to_pylist(), batch.column(html_col).to_pylist()
        ):
            if isinstance(html, bytes):
                html = html.decode("utf-8", errors="replace")
            for rec in extract_table_cells(html or ""):
                ids.append(doc_id)
                t_idx.append(rec["table_idx"])
                r_idx.append(rec["row_idx"])
                c_idx.append(rec["col_idx"])
                cells.append(rec["cell"])
        return pa.table(
            {
                id_col: pa.array(ids, type=pa.int64()),
                "table_idx": pa.array(t_idx, type=pa.int64()),
                "row_idx": pa.array(r_idx, type=pa.int64()),
                "col_idx": pa.array(c_idx, type=pa.int64()),
                "cell": pa.array(cells, type=pa.string()),
            }
        )

    return pages.map_batches(_explode, batch_format="pyarrow")


def aligned_page_pairs(
    ds: ray.data.Dataset,
    *,
    url_col: str = "url",
    lang_col: str = "lang",
    id_col: str = "doc_id",
    strip_segment: int = 3,
    num_buckets: int = 64,
) -> ray.data.Dataset:
    """URL-structure bitext page alignment: pages whose urls differ
    ONLY in the locale path segment (``.../en/page-1`` vs
    ``.../fr/page-1``) are translation candidates — the WMT-style
    URL-pattern miner that feeds parallel-corpus extraction (the
    structural complement of embedding-margin
    :func:`~dots_ocr_ray.pipelines.similarity.bitext_mining`).

    The locale segment (``strip_segment``-th ``/``-separated field; 3
    = first path segment) is stripped with ONE scalar-pattern C++
    regex kernel per batch to form the alignment key; candidate pairs
    then form in ONE bucket-keyed exchange — per bucket, rows lexsort
    by (key, lang, id) and cross-language pairs emit via shifted-run
    compares (the skip-gram trick: distance d = 1..run-1 inside each
    key run), so Python cost is O(buckets × langs-per-key), never
    O(pairs).  Same-language collisions (two pages of one locale
    sharing a key) are NOT pairs and drop out via the sorted
    ``lang_a < lang_b`` mask.

    Output: (page_key, lang_a, doc_a, lang_b, doc_b), one row per
    unordered cross-language pair."""
    import numpy as np
    import pyarrow.compute as pc

    from dots_ocr_ray.util import bucket_exchange

    pattern = r"^((?:[^/]*/){%d})[^/]+/" % strip_segment

    def _rows(batch: pa.Table) -> pa.Table:
        key = pc.replace_substring_regex(
            batch.column(url_col), pattern=pattern, replacement=r"\1"
        )
        return pa.table(
            {
                "page_key": key,
                "lang": batch.column(lang_col).cast(pa.string()),
                "doc_id": batch.column(id_col).cast(pa.int64()),
            }
        )

    def _fold(group: pa.Table) -> pa.Table:
        keys = group.column("page_key").to_numpy(zero_copy_only=False)
        langs = group.column("lang").to_numpy(zero_copy_only=False)
        ids = group.column("doc_id").to_numpy(zero_copy_only=False).astype(np.int64)
        order = np.lexsort((ids, langs, keys))
        keys, langs, ids = keys[order], langs[order], ids[order]
        n = len(keys)
        # longest key run bounds the shift distance
        if n:
            change = np.concatenate([[True], keys[1:] != keys[:-1]])
            starts = np.flatnonzero(change)
            max_run = int(np.max(np.diff(np.append(starts, n))))
        else:
            max_run = 0
        ka, la, ia, lb, ib = [], [], [], [], []
        for d in range(1, max_run):
            m = (keys[:-d] == keys[d:]) & (langs[:-d] != langs[d:])
            if m.any():
                ka.append(keys[:-d][m])
                la.append(langs[:-d][m])
                ia.append(ids[:-d][m])
                lb.append(langs[d:][m])
                ib.append(ids[d:][m])
        if not ka:
            return pa.table(
                {
                    "page_key": pa.array([], pa.string()),
                    "lang_a": pa.array([], pa.string()),
                    "doc_a": pa.array([], pa.int64()),
                    "lang_b": pa.array([], pa.string()),
                    "doc_b": pa.array([], pa.int64()),
                }
            )
        return pa.table(
            {
                "page_key": pa.array(np.concatenate(ka).tolist(), type=pa.string()),
                "lang_a": pa.array(np.concatenate(la).tolist(), type=pa.string()),
                "doc_a": pa.array(np.concatenate(ia), type=pa.int64()),
                "lang_b": pa.array(np.concatenate(lb).tolist(), type=pa.string()),
                "doc_b": pa.array(np.concatenate(ib), type=pa.int64()),
            }
        )

    return bucket_exchange(
        ds.map_batches(_rows, batch_format="pyarrow"),
        "page_key",
        _fold,
        num_buckets=num_buckets,
        rows_per_block=65536,
    )


def metrics_by_domain(extracted: ray.data.Dataset) -> ray.data.Dataset:
    """Per-domain status/bytes rollup: rows, finished rows and input
    bytes per url domain, as one keyed fold.  A hot domain (one can
    hold 30% of a crawl) needs no salting: the fold's per-batch
    combiner collapses it to one row per batch before the exchange."""
    from dots_ocr_ray.util import bucket_keyed_fold

    def _domains(batch: pa.Table) -> pa.Table:
        from urllib.parse import urlparse

        domains = []
        for u in batch.column("url").to_pylist():
            try:
                domains.append(urlparse(u).netloc or "unknown")
            except Exception:
                domains.append("unknown")
        return pa.table(
            {
                "domain": pa.array(domains, type=pa.string()),
                "ok": pc.equal(batch.column("status"), "finished").cast(pa.int64()),
                "bytes_in": batch.column("bytes_in"),
            }
        )

    return bucket_keyed_fold(
        extracted.map_batches(_domains, batch_format="pyarrow"),
        "domain",
        {"rows": ("count", None), "ok": ("sum", "ok"), "bytes_in": ("sum", "bytes_in")},
    )


def scd2_history(
    captures: ray.data.Dataset,
    *,
    url_col: str = "url",
    ts_col: str = "warc_ts",
    key_col: str = "content_key",
) -> ray.data.Dataset:
    """Type-2 slowly-changing-dimension history over crawl captures:
    consecutive captures of one url with the same content fingerprint
    collapse into ONE validity interval — the re-crawl lineage table
    (url, content_key, valid_from, valid_to, n_captures, version)
    where ``valid_to`` is the next change's timestamp (NULL while
    current) and ``version`` numbers a url's content generations.

    Plan: one :func:`~dots_ocr_ray.util.bucket_exchange` on url; each
    bucket sorts by (url, ts) and collapses every url fully vectorized
    (change-point mask → island starts → numpy gather; zero per-url
    Python)."""
    import numpy as np

    from dots_ocr_ray.util import _key_runs, bucket_exchange

    def _fold(group: pa.Table) -> pa.Table:
        perm, url_starts = _key_runs(group, [url_col], [ts_col])
        n = len(perm)
        rows = pa.array(perm)
        keys_np = np.asarray(group.column(key_col).take(rows).to_pylist(), dtype=object)
        ts_np = group.column(ts_col).take(rows).to_numpy()
        new_url = np.zeros(n, dtype=bool)
        new_url[url_starts] = True
        chg = new_url.copy()
        chg[1:] |= keys_np[1:] != keys_np[:-1]
        starts = np.flatnonzero(chg)
        valid_from = ts_np[starts]
        starts_new_url = new_url[starts]
        # version = island index within its url (islands of one url
        # are contiguous after the sort)
        first_island = np.flatnonzero(starts_new_url)
        version = np.arange(len(starts)) - first_island[np.cumsum(starts_new_url) - 1] + 1
        valid_to = np.append(valid_from[1:], valid_from[:1])
        valid_to[np.append(starts_new_url[1:], True)] = np.datetime64("NaT")
        return pa.table(
            {
                url_col: group.column(url_col).take(pa.array(perm[starts])).cast(pa.string()),
                key_col: pa.array(keys_np[starts], type=pa.string()),
                "valid_from": pa.array(valid_from),
                "valid_to": pa.array(valid_to),
                "n_captures": pa.array(np.diff(np.append(starts, n)), type=pa.int64()),
                "version": pa.array(version, type=pa.int64()),
            }
        )

    return bucket_exchange(captures, url_col, _fold)


def crawl_diff(
    old_ds: ray.data.Dataset,
    new_ds: ray.data.Dataset,
    *,
    id_col: str = "doc_id",
    hash_col: str = "content_md5",
    num_buckets: int = 64,
) -> ray.data.Dataset:
    """Snapshot diff between two crawls of the same url space: which
    pages were ``added``, ``removed``, ``changed`` or ``unchanged``
    between the old and new crawl — the recurring-ingest companion to
    :func:`~dots_ocr_ray.pipelines.refresh.refresh_corpus` (only
    changed/added pages need re-extraction next run).

    Both sides project to ``(id, content-hash)`` before the ONE
    hash-bucket exchange, so page text never moves; each bucket
    resolves its ids with one vectorized pandas outer merge
    (O(num_buckets) Python calls, not O(urls)).  Each side must carry
    at most one row per id (run
    :func:`~dots_ocr_ray.pipelines.document.latest_page_per_url`
    first when a crawl revisits urls).

    Returns ``(id_col, change)`` rows covering the union id space.
    """
    import numpy as np

    from dots_ocr_ray.util import bucket_exchange

    def _tag(side: int):
        def _fn(batch: pa.Table) -> pa.Table:
            return pa.table(
                {
                    id_col: batch.column(id_col),
                    hash_col: batch.column(hash_col),
                    "__side": pa.array(
                        np.full(batch.num_rows, side, np.int8), type=pa.int8()
                    ),
                }
            )

        return _fn

    sides = [
        old_ds.map_batches(_tag(0), batch_format="pyarrow"),
        new_ds.map_batches(_tag(1), batch_format="pyarrow"),
    ]

    def _diff(group: pa.Table) -> pa.Table:
        df = group.select([id_col, hash_col, "__side"]).to_pandas()
        old = df[df["__side"] == 0][[id_col, hash_col]]
        new = df[df["__side"] == 1][[id_col, hash_col]]
        m = old.merge(new, on=id_col, how="outer", suffixes=("_old", "_new"))
        h_old = m[hash_col + "_old"]
        h_new = m[hash_col + "_new"]
        change = np.where(
            h_old.isna(),
            "added",
            np.where(
                h_new.isna(),
                "removed",
                np.where(h_old == h_new, "unchanged", "changed"),
            ),
        )
        return pa.table(
            {
                id_col: pa.array(m[id_col].to_numpy()),
                "change": pa.array(change, type=pa.string()),
            }
        )

    return bucket_exchange(sides, id_col, _diff, num_buckets=num_buckets, rows_per_block=65536)


_JSONLD_RE = None  # compiled lazily once per worker process


def jsonld_records(html_bytes: bytes) -> list[dict]:
    """Parse every ``<script type="application/ld+json">`` block out of
    one page (pure kernel; compiled-regex scan + ``json.loads`` per
    block, malformed JSON skipped).  Returns dicts with whatever of
    ``@type`` / ``wordCount`` / ``datePublished`` each block carries —
    the structured-metadata sidecar real pages embed for search
    engines, and the cheapest label source a crawl pipeline has."""
    global _JSONLD_RE
    import json
    import re

    if _JSONLD_RE is None:
        _JSONLD_RE = re.compile(
            rb'<script[^>]*type="application/ld\+json"[^>]*>(.*?)</script>',
            re.DOTALL | re.IGNORECASE,
        )
    out = []
    for blob in _JSONLD_RE.findall(html_bytes or b""):
        try:
            rec = json.loads(blob.decode("utf-8", "replace"))
        except (ValueError, UnicodeDecodeError):
            continue
        if isinstance(rec, dict):
            out.append(rec)
    return out


def jsonld_from_pages(pages: "ray.data.Dataset") -> "ray.data.Dataset":
    """Flat-explode JSON-LD metadata: one output row per parsed block
    → ``(doc_id, ld_type, word_count, date_published)``.  Zero
    exchange; the regex hits are rare, so the JSON parse loop only
    touches matched blocks."""
    import pyarrow as pa

    def _explode(batch: pa.Table) -> pa.Table:
        ids, types, wcs, dates = [], [], [], []
        for doc_id, html in zip(
            batch.column("doc_id").to_pylist(), batch.column("html").to_pylist()
        ):
            for rec in jsonld_records(html):
                ids.append(doc_id)
                # real-world JSON-LD: @type may be a list (take the
                # first), any field may be a non-string — never let a
                # stray type kill the batch
                t = rec.get("@type")
                if isinstance(t, list):
                    t = t[0] if t else None
                types.append(t if isinstance(t, str) else None)
                wc = rec.get("wordCount")
                wcs.append(int(wc) if isinstance(wc, (int, float)) else None)
                dp = rec.get("datePublished")
                dates.append(dp if isinstance(dp, str) else None)
        return pa.table(
            {
                "doc_id": pa.array(ids, pa.int64()),
                "ld_type": pa.array(types, pa.string()),
                "word_count": pa.array(wcs, pa.int64()),
                "date_published": pa.array(dates, pa.string()),
            }
        )

    return pages.map_batches(_explode, batch_format="pyarrow")


_WS_RE = None


def token_f1(a: str, b: str) -> tuple[int, int, int]:
    """Multiset token overlap between two texts (pure kernel):
    returns (n_a, n_b, n_common) with common = Σ_t min(count_a,
    count_b) over whitespace tokens — the standard extraction-fidelity
    measure (SQuAD-style token F1)."""
    global _WS_RE
    import re
    from collections import Counter

    if _WS_RE is None:
        _WS_RE = re.compile(r"\S+")
    ca = Counter(_WS_RE.findall(a or ""))
    cb = Counter(_WS_RE.findall(b or ""))
    common = sum(min(n, cb[t]) for t, n in ca.items() if t in cb)
    return sum(ca.values()), sum(cb.values()), common


def extraction_f1_audit(pages: "ray.data.Dataset") -> "ray.data.Dataset":
    """Extraction-fidelity audit, FUSED with extraction itself: each
    batch runs the pure extraction kernel on its own pages and scores
    the result against the page's naive crawler ``text`` column in the
    same pass — zero exchange, nothing re-read, no join.  Output per
    page: token counts both sides, multiset-common count, and
    ``f1_micro = floor(2·common·10⁶ / (n_extracted + n_naive))`` —
    integer-exact (pure int64 floor-div, no float anywhere).

    This is the regression gate a layout-parser change runs before a
    full recrawl: a drop in corpus-level F1 against the previous
    extractor's text localizes to the hosts/pages that moved."""
    import pyarrow as pa

    from dots_ocr_ray.kernel import extract_page

    def _audit(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_pylist()
        urls = batch.column("url").to_pylist()
        htmls = batch.column("html").to_pylist()
        naives = batch.column("text").to_pylist()
        n1s, n2s, cs, f1s = [], [], [], []
        for url, html, naive in zip(urls, htmls, naives):
            res = extract_page(url, html, text=naive)
            n1, n2, c = token_f1(res.get("extracted_text") or "", naive or "")
            n1s.append(n1)
            n2s.append(n2)
            cs.append(c)
            f1s.append(0 if n1 + n2 == 0 else (2_000_000 * c) // (n1 + n2))
        return pa.table(
            {
                "doc_id": pa.array(ids, pa.int64()),
                "n_extracted": pa.array(n1s, pa.int64()),
                "n_naive": pa.array(n2s, pa.int64()),
                "n_common": pa.array(cs, pa.int64()),
                "f1_micro": pa.array(f1s, pa.int64()),
            }
        )

    return pages.map_batches(_audit, batch_format="pyarrow")


def url_templates(
    urls: "ray.data.Dataset", *, url_col: str = "url"
) -> "ray.data.Dataset":
    """URL path-template mining — the crawler-trap / infinite-space
    audit: digit runs in the url collapse to ``N`` with ONE vectorized
    RE2 kernel, and the rollup reports pages and distinct hosts per
    template.  A calendar trap (``/cal/2020/3/7`` × 10⁹) is one
    template row with a huge page count; frontier scheduling reads
    this table, not the url list.

    Shape: zero-exchange templating, then one groupby keyed by
    template (cardinality = distinct SHAPES, tiny by construction)
    with per-batch host dedup inside the partial — host strings never
    concentrate on one reducer."""
    import pyarrow as pa
    import pyarrow.compute as pc

    def _template(batch: pa.Table) -> pa.Table:
        u = batch.column(url_col)
        tpl = pc.replace_substring_regex(u, r"[0-9]+", "N")
        host = pc.extract_regex(u, r"^https?://(?P<host>[^/]+)").combine_chunks().field(
            "host"
        )
        # in-batch (template, host) dedup: the exchange moves one row
        # per distinct pair per batch, never one per page
        part = (
            pa.table({"template": tpl, "host": host})
            .group_by(["template", "host"])
            .aggregate([([], "count_all")])
        )
        return part.rename_columns(["template", "host", "n"])

    # coarse 256-way exchange on hash(template); one sorted run-length
    # fold per bucket sums pages (reduceat) and counts distinct hosts
    # (boundaries of the (template, host) lexsort) for EVERY template
    # at once — no Python call per template even if "tiny by
    # construction" turns out generous on an adversarial corpus
    import numpy as np

    from dots_ocr_ray.util import bucket_exchange

    def _fold(group: pa.Table) -> pa.Table:
        group = group.sort_by(
            [("template", "ascending"), ("host", "ascending")]
        )
        m = group.num_rows
        tpl = group.column("template")
        host = group.column("host")
        if isinstance(tpl, pa.ChunkedArray):
            tpl = tpl.combine_chunks()
        if isinstance(host, pa.ChunkedArray):
            host = host.combine_chunks()
        new_t = np.ones(m, dtype=bool)
        new_pair = np.ones(m, dtype=bool)
        if m > 1:
            neq_t = pc.not_equal(tpl.slice(1), tpl.slice(0, m - 1)).to_numpy(
                zero_copy_only=False
            )
            neq_h = pc.not_equal(host.slice(1), host.slice(0, m - 1)).to_numpy(
                zero_copy_only=False
            )
            new_t[1:] = neq_t
            new_pair[1:] = neq_t | neq_h
        starts = np.flatnonzero(new_t)
        nv = group.column("n").to_numpy(zero_copy_only=False).astype(np.int64)
        n_pages = np.add.reduceat(nv, starts)
        n_hosts = np.add.reduceat(new_pair.astype(np.int64), starts)
        return pa.table(
            {
                "template": tpl.take(pa.array(starts)),
                "n_pages": pa.array(n_pages.astype(np.int64), pa.int64()),
                "n_hosts": pa.array(n_hosts.astype(np.int64), pa.int64()),
            }
        )

    return bucket_exchange(
        urls.map_batches(_template, batch_format="pyarrow"), "template", _fold, num_buckets=256
    )


_ROBOTS_META_RE = None


def robots_meta_flags(html_bytes: bytes) -> tuple[int, int, int]:
    """Parse ``<meta name="robots" content="...">`` directives out of
    one page (pure kernel): returns (has_meta, noindex, nofollow) as
    0/1 ints.  Directive matching is token-based on the comma-split
    content list (case/whitespace-insensitive), so ``noindex, nofollow``
    and ``NOINDEX`` both count and ``nofollowish`` does not."""
    global _ROBOTS_META_RE
    import re

    if _ROBOTS_META_RE is None:
        _ROBOTS_META_RE = re.compile(
            rb'<meta[^>]*name="robots"[^>]*content="([^"]*)"', re.IGNORECASE
        )
    noindex = nofollow = has = 0
    for content in _ROBOTS_META_RE.findall(html_bytes or b""):
        has = 1
        toks = {t.strip().lower() for t in content.decode("utf-8", "replace").split(",")}
        if "noindex" in toks:
            noindex = 1
        if "nofollow" in toks:
            nofollow = 1
    return has, noindex, nofollow


def robots_meta_from_pages(pages: "ray.data.Dataset") -> "ray.data.Dataset":
    """Per-page robots-meta directives → (doc_id, has_meta, noindex,
    nofollow) — the page-level crawl-compliance bits (the page's own
    opt-out, complementing the host-level robots.txt pipeline).
    Zero-exchange per-batch scan."""
    import pyarrow as pa

    def _flags(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_pylist()
        triples = [robots_meta_flags(h) for h in batch.column("html").to_pylist()]
        return pa.table(
            {
                "doc_id": pa.array(ids, pa.int64()),
                "has_meta": pa.array([t[0] for t in triples], pa.int64()),
                "noindex": pa.array([t[1] for t in triples], pa.int64()),
                "nofollow": pa.array([t[2] for t in triples], pa.int64()),
            }
        )

    return pages.map_batches(_flags, batch_format="pyarrow")


_HREFLANG_RE = None


def hreflang_from_pages(pages: "ray.data.Dataset") -> "ray.data.Dataset":
    """Flat-explode ``<link rel="alternate" hreflang=..>`` entries —
    the i18n-cluster signal that groups a page with its translations
    (dedup across locales, bitext mining, per-language routing).

    One output row per alternate link: ``(doc_id, hreflang, href)``.
    Zero exchange; the compiled regex scans only the html head
    region's worth of matches (attribute order as emitted by real
    CMSes: rel, hreflang, href).  Pages without the markup emit
    nothing — reference analog is the link scanner in
    dots_ocr/utils/format_transformer.py's attribute walk, rebuilt as
    one vectorizable pass."""
    import re

    import pyarrow as pa

    global _HREFLANG_RE
    if _HREFLANG_RE is None:
        _HREFLANG_RE = re.compile(
            rb'<link\s+rel="alternate"\s+hreflang="([^"]+)"\s+href="([^"]+)"',
        )

    def _explode(batch: pa.Table) -> pa.Table:
        ids, langs, hrefs = [], [], []
        for doc_id, html in zip(
            batch.column("doc_id").to_pylist(), batch.column("html").to_pylist()
        ):
            if not html:
                continue
            for m in _HREFLANG_RE.finditer(html):
                ids.append(doc_id)
                langs.append(m.group(1).decode("utf-8", "replace"))
                hrefs.append(m.group(2).decode("utf-8", "replace"))
        return pa.table(
            {
                "doc_id": pa.array(ids, pa.int64()),
                "hreflang": pa.array(langs, pa.string()),
                "href": pa.array(hrefs, pa.string()),
            }
        )

    return pages.map_batches(_explode, batch_format="pyarrow")
