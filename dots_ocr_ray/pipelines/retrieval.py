"""Inverted-index build + keyword search — the lexical-retrieval
storage half of a RAG / search stack over the extracted corpus (the
scoring half is ``text_analysis.bm25_scores``).

Why an INDEX and not a scan: ``bm25_scores`` re-reads the whole corpus
per query batch, which is right for one-off scoring but wrong for a
served index at 10^12 documents.  ``build_inverted_index`` pays the
token exchange ONCE and persists postings hash-bucketed by token
(reusing the co-partitioned bucketed layout + manifest of
``pipelines/bucketed.py`` — same ``_stable_key_hash``, so the layout
is literally "the token exchange, persisted").  ``keyword_search``
then touches ONLY the ≤ len(terms) bucket directories its query terms
hash into — at 100 TB the read is bounded by the query's posting
lists, never the corpus — and prunes further with a parquet-level
``token IN terms`` row filter so only matching row groups decompress.

Postings are ``(token, doc_id, tf)`` with document-level term
frequency (one row per DISTINCT (doc, token)); tf supports downstream
ranked AND/OR retrieval without a second corpus pass.
"""

from __future__ import annotations

import json
import posixpath

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray.data

from dots_ocr_ray.pipelines.bucketed import (
    MANIFEST_NAME,
    _bucket_files,
    _bucket_of,
    write_bucketed,
)
from dots_ocr_ray.state.manifest import resolve_fs
from dots_ocr_ray.util import bucket_exchange, split_whitespace_checked


def postings_from_documents(
    ds: ray.data.Dataset,
    *,
    text_col: str = "text",
    id_col: str = "doc_id",
) -> ray.data.Dataset:
    """Zero-exchange postings stream: explode each document's
    whitespace tokens, fold duplicates WITHIN the doc to a term
    frequency (arrow ``group_by`` per batch — vectorized, and exact
    because a document never spans batches)."""

    def _postings(batch: pa.Table) -> pa.Table:
        toks = split_whitespace_checked(batch.column(text_col))
        flat = pc.list_flatten(toks)
        parent = pc.list_parent_indices(toks)
        keep = pc.not_equal(flat, "")
        flat = flat.filter(keep)
        parent = parent.filter(keep)
        ids = batch.column(id_col).take(parent)
        agg = (
            pa.table({"doc_id": ids, "token": flat})
            .group_by(["token", "doc_id"])
            .aggregate([("doc_id", "count")])
        )
        return pa.table(
            {
                "token": agg.column("token"),
                "doc_id": agg.column("doc_id").cast(pa.int64()),
                "tf": agg.column("doc_id_count").cast(pa.int64()),
            }
        )

    return ds.map_batches(_postings, batch_format="pyarrow")


def build_inverted_index(
    ds: ray.data.Dataset,
    out_dir: str,
    *,
    text_col: str = "text",
    id_col: str = "doc_id",
    num_buckets: int = 32,
) -> None:
    """Persist the postings of ``ds`` hash-bucketed by token under
    ``out_dir`` (hive layout + ``_buckets.json`` manifest)."""
    write_bucketed(
        postings_from_documents(ds, text_col=text_col, id_col=id_col),
        out_dir,
        key="token",
        num_buckets=num_buckets,
    )


def keyword_search(
    index_dir: str,
    terms: list[str],
    *,
    mode: str = "and",
) -> ray.data.Dataset:
    """Boolean keyword retrieval over a persisted inverted index →
    ``(doc_id, n_terms, total_tf)`` sorted nowhere (consume or sort
    downstream).

    ``mode="and"`` keeps docs matching EVERY term, ``"or"`` any term.
    Reads only the bucket directories the query terms hash into, with
    a parquet ``token IN terms`` filter so non-matching row groups
    never decompress; the per-doc fold is one bucket-keyed exchange
    over the (already query-pruned) posting rows."""
    if mode not in ("and", "or"):
        raise ValueError(f"unsupported mode={mode!r}")
    terms = sorted(set(terms))
    if not terms:
        raise ValueError("keyword_search needs at least one term")

    fs, root = resolve_fs(index_dir)
    with fs.open_input_stream(posixpath.join(root, MANIFEST_NAME)) as f:
        manifest = json.loads(f.read().decode())
    if manifest["key"] != "token":
        raise ValueError(f"not a token index: bucketed by {manifest['key']!r}")
    num_buckets = int(manifest["num_buckets"])

    term_arr = pa.array(terms, type=pa.string())
    want = set(_bucket_of(term_arr, num_buckets).tolist())
    files = _bucket_files(index_dir, num_buckets)
    paths = sorted(f.path for b in want for f in files.get(b, []))
    empty = pa.table(
        {
            "doc_id": pa.array([], pa.int64()),
            "n_terms": pa.array([], pa.int64()),
            "total_tf": pa.array([], pa.int64()),
        }
    )
    if not paths:
        return ray.data.from_arrow(empty)

    import pyarrow.dataset as pads

    postings = ray.data.read_parquet(
        paths,
        columns=["token", "doc_id", "tf"],
        filter=pads.field("token").isin(terms),
    )

    n_required = len(terms) if mode == "and" else 1

    def _required(batch: pa.Table) -> pa.Table:
        return batch.filter(pc.greater_equal(batch.column("n_terms"), n_required))

    from dots_ocr_ray.util import bucket_keyed_fold

    # terms are distinct per (doc, token) by construction, so counting
    # a doc's rows counts its distinct matched terms
    return bucket_keyed_fold(
        postings, "doc_id", {"n_terms": ("count", None), "total_tf": ("sum", "tf")}
    ).map_batches(_required, batch_format="pyarrow")


# --- positional phrase search -------------------------------------------------

def positional_postings_from_documents(
    ds: ray.data.Dataset,
    *,
    text_col: str = "text",
    id_col: str = "doc_id",
) -> ray.data.Dataset:
    """Positional postings stream — ``(token, doc_id, pos)`` with
    ``pos`` the 0-based whitespace-token index over the NON-EMPTY
    tokens (a run of 2+ whitespace chars does not leave a position
    gap — matching ``string_split_regex('[ \\t\\n]+')`` ordinality) —
    the index layout phrase queries need (tf-only postings can answer
    AND/OR, not adjacency).  Zero exchange; bucket by token at write
    time."""

    def _postings(batch: pa.Table) -> pa.Table:
        import numpy as np

        toks = split_whitespace_checked(batch.column(text_col))
        flat = pc.list_flatten(toks)
        parent = pc.list_parent_indices(toks).to_numpy(zero_copy_only=False)
        # filter empty tokens FIRST (whitespace runs produce "" splits),
        # then number positions over the survivors so adjacency in the
        # index equals adjacency in the visible token stream
        keep = pc.not_equal(flat, "").to_numpy(zero_copy_only=False)
        flat = flat.filter(pa.array(keep, type=pa.bool_()))
        parent = parent[keep]
        if len(parent):
            starts = np.concatenate([[0], np.nonzero(np.diff(parent))[0] + 1])
            run_start = np.zeros(len(parent), dtype=np.int64)
            run_start[starts] = starts
            run_start = np.maximum.accumulate(run_start)
            pos = np.arange(len(parent), dtype=np.int64) - run_start
        else:
            pos = np.zeros(0, dtype=np.int64)
        ids = batch.column(id_col).take(pa.array(parent)).cast(pa.int64())
        return pa.table(
            {
                "token": flat,
                "doc_id": ids,
                "pos": pa.array(pos, type=pa.int64()),
            }
        )

    return ds.map_batches(_postings, batch_format="pyarrow")


def build_positional_index(
    ds: ray.data.Dataset,
    out_dir: str,
    *,
    text_col: str = "text",
    id_col: str = "doc_id",
    num_buckets: int = 32,
) -> None:
    """Persist positional postings hash-bucketed by token (hive
    layout + manifest, same convention as :func:`build_inverted_index`)."""
    write_bucketed(
        positional_postings_from_documents(ds, text_col=text_col, id_col=id_col),
        out_dir,
        key="token",
        num_buckets=num_buckets,
    )


def phrase_search(index_dir: str, phrase: list[str] | str) -> pa.Table:
    """Exact phrase retrieval over a persisted POSITIONAL index →
    ``(doc_id, n_matches)`` for every doc containing the tokens
    adjacently, overlap-safe (each starting position counts once).

    Reads ONLY the query tokens' bucket directories with a parquet
    ``token IN phrase`` filter (non-matching row groups never
    decompress); one bucket-keyed exchange on doc id co-locates each
    doc's surviving postings; the in-bucket adjacency intersection is
    vectorized — (doc, pos) packs into one int64 key and each phrase
    step is a sorted-membership probe of ``key + 1`` (the classic
    positional-postings merge over dense group-local doc indices, so
    arbitrary doc-id widths and document lengths fit the packing)."""
    import numpy as np

    from dots_ocr_ray.util import sorted_membership

    tokens = phrase.split() if isinstance(phrase, str) else list(phrase)
    if len(tokens) < 2:
        raise ValueError("phrase_search needs a phrase of >= 2 tokens")

    fs, root = resolve_fs(index_dir)
    with fs.open_input_stream(posixpath.join(root, MANIFEST_NAME)) as f:
        manifest = json.loads(f.read().decode())
    if manifest["key"] != "token":
        raise ValueError(f"not a token index: bucketed by {manifest['key']!r}")
    num_buckets = int(manifest["num_buckets"])

    uniq_terms = sorted(set(tokens))
    term_arr = pa.array(uniq_terms, type=pa.string())
    want = set(_bucket_of(term_arr, num_buckets).tolist())
    files = _bucket_files(index_dir, num_buckets)
    paths = sorted(f.path for b in want for f in files.get(b, []))
    empty = pa.table(
        {
            "doc_id": pa.array([], pa.int64()),
            "n_matches": pa.array([], pa.int64()),
        }
    )
    if not paths:
        return empty

    import pyarrow.dataset as pads

    postings = ray.data.read_parquet(
        paths,
        columns=["token", "doc_id", "pos"],
        filter=pads.field("token").isin(uniq_terms),
    )

    def _adjacency(group: pa.Table) -> pa.Table:
        import numpy as np

        ids = group.column("doc_id").to_numpy(zero_copy_only=False).astype(np.int64)
        pos = group.column("pos").to_numpy(zero_copy_only=False).astype(np.int64)
        tok_arr = group.column("token")
        # pack (doc, pos) into one int64 with a DATA-DERIVED multiplier:
        # doc ids re-mapped to dense group-local indices (unique inverse)
        # and mult > max_pos + phrase_len, so any id width and any
        # document length fit, and surv + j can never carry into the
        # next document's key range
        uniq_ids, dense = np.unique(ids, return_inverse=True)
        mult = np.int64((pos.max() if len(pos) else 0) + len(tokens) + 1)
        keys = dense.astype(np.int64) * mult + pos
        # per phrase slot j, the sorted key set of its token
        slot_keys: list[np.ndarray] = []
        for t in tokens:
            mask = pc.equal(tok_arr, t).to_numpy(zero_copy_only=False)
            slot_keys.append(np.sort(keys[mask]))
        surv = slot_keys[0]
        for j in range(1, len(tokens)):
            surv = surv[sorted_membership(slot_keys[j], surv + j)]
        if not len(surv):
            return empty
        docs = uniq_ids[surv // mult]
        uniq, cnt = np.unique(docs, return_counts=True)
        return pa.table(
            {
                "doc_id": pa.array(uniq, type=pa.int64()),
                "n_matches": pa.array(cnt.astype(np.int64), type=pa.int64()),
            }
        )

    out = bucket_exchange(postings, "doc_id", _adjacency, num_buckets=64)
    parts = [b for b in out.iter_batches(batch_format="pyarrow") if b.num_rows]
    return pa.concat_tables(parts) if parts else empty


# --- postings compression audit --------------------------------------------------

def varint_len(v: "np.ndarray") -> "np.ndarray":
    """LEB128 byte length per non-negative int64 (vectorized ladder —
    no float log, so 2^7k boundaries are exact).  Pure kernel."""
    import numpy as np

    out = np.full(len(v), 1, dtype=np.int64)
    for k, bound in enumerate((1 << 7, 1 << 14, 1 << 21, 1 << 28, 1 << 35, 1 << 42, 1 << 49, 1 << 56, 1 << 63)):
        out[v >= bound] = k + 2
    return out


def postings_compression_audit(
    docs: ray.data.Dataset,
    *,
    text_col: str = "text",
    id_col: str = "doc_id",
) -> pa.Table:
    """Index-engineering estimate: how many bytes would the corpus'
    postings take delta+varint-encoded vs raw int64 — the
    gap-compression arithmetic every inverted-index budget starts
    from.  Encoding rule (mirrored by the SQL oracle): per token, doc
    ids sort ascending; the first posting stores the absolute id,
    later ones store the gap; each value costs its LEB128 length.

    Scale shape: the zero-exchange postings stream (distinct
    (token, doc) per batch), ONE token-bucketed exchange
    (hash(token) % 64 — a token's postings co-locate), per-bucket
    vectorized lexsort + run-aware gap + ladder lengths, three int64
    partials per bucket to the driver."""
    import numpy as np

    from dots_ocr_ray.functions.hashing import stable_u64

    postings = postings_from_documents(docs, text_col=text_col, id_col=id_col)

    def _tok_rows(batch: pa.Table) -> pa.Table:
        toks = batch.column("token").to_pylist()
        h = np.array([stable_u64(t) for t in toks], dtype=np.uint64)
        return pa.table(
            {
                "tok_h": pa.array(h.astype(np.int64), type=pa.int64()),
                "doc_id": batch.column("doc_id").cast(pa.int64()),
            }
        )

    def _audit(group: pa.Table) -> pa.Table:
        th = group.column("tok_h").to_numpy(zero_copy_only=False)
        ids = group.column("doc_id").to_numpy(zero_copy_only=False).astype(np.int64)
        order = np.lexsort((ids, th))
        th, ids = th[order], ids[order]
        # distinct (token, doc) — postings_from_documents dedups within
        # a batch only; cross-batch repeats collapse here
        keep = np.ones(len(th), dtype=bool)
        keep[1:] = (th[1:] != th[:-1]) | (ids[1:] != ids[:-1])
        th, ids = th[keep], ids[keep]
        first = np.ones(len(th), dtype=bool)
        first[1:] = th[1:] != th[:-1]
        vals = np.where(first, ids, ids - np.concatenate([[0], ids[:-1]]))
        return pa.table(
            {
                "n": pa.array([len(vals)], type=pa.int64()),
                "raw": pa.array([8 * len(vals)], type=pa.int64()),
                "varint": pa.array([int(varint_len(vals).sum())], type=pa.int64()),
            }
        )

    folded = bucket_exchange(
        postings.map_batches(_tok_rows, batch_format="pyarrow"), "tok_h", _audit, num_buckets=64
    ).to_pandas()
    return pa.table(
        {
            "n_postings": pa.array([int(folded["n"].sum())], type=pa.int64()),
            "raw_bytes": pa.array([int(folded["raw"].sum())], type=pa.int64()),
            "varint_bytes": pa.array([int(folded["varint"].sum())], type=pa.int64()),
        }
    )
