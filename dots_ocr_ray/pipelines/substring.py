"""Corpus-level exact-substring dedup: remove every token span that
appears (as an exact k-token gram) at least ``min_count`` times
corpus-wide — the ExactSubstr operation of Lee et al. 2022
("Deduplicating Training Data Makes Language Models Better"),
re-expressed as two streaming Ray Data passes instead of a suffix
array.

Reference analog: the per-page repetition dedup (M8,
dots_ocr/utils/output_cleaner.py:347-416 removes cells repeated >=5
times WITHIN one page); this is the corpus-wide, position-exact form a
training-data pipeline runs so boilerplate sentences shared across
pages are cut from every copy, not just deduplicated per page.

Semantics (deterministic, SQL-mirrorable):

* tokens = whitespace-split words (empty tokens dropped);
* a gram is ``k`` consecutive tokens inside one document; gram
  identity is the space-joined token string (hashed to 64 bits — the
  pipelines compare hashes, the oracle compares the strings; equal
  sequences always collide, unequal ones collide with ~2^-64
  probability);
* a gram is DUPLICATE if its total occurrence count corpus-wide
  (within-doc repeats included) is >= ``min_count``;
* every token position covered by any duplicate gram is dropped; the
  surviving tokens are re-joined with single spaces (whitespace is
  normalized — the per-token semantics make original inter-token
  whitespace unreconstructable by design);
* documents with fewer than ``k`` tokens have no grams and pass
  through (normalized) unchanged.

Scale shape — two passes over the corpus, one small exchange between:

1. COUNT: per-batch partial gram-hash counts (``np.unique`` inside
   ``map_batches``) -> one ``groupby(gram).sum`` keyed exchange over
   the partials -> filter ``>= min_count``.  Only the duplicate-gram
   table survives, which is small by construction (only corpus-
   repeated grams).
2. FILTER: two tiers on that table, the same budget rule as
   :func:`~dots_ocr_ray.pipelines.dedup.line_dedup`:

   * the table fits :func:`~dots_ocr_ray.util.broadcast_fits` — the
     sorted hash array broadcasts
     once via ``ray.put`` (per-worker cached); every batch marks
     covered positions with one ``searchsorted`` + difference-array
     cumsum and rebuilds locally.  Zero additional exchanges; text
     never reships.
   * above the cut — fully distributed: gram rows ``(doc_id, ord,
     gram)`` semi-:func:`~dots_ocr_ray.pipelines.relational.hash_join`
     against the duplicate table, duplicate starts re-keyed per doc
     (one ``groupby``), then one ``hash_join`` back onto the narrow
     text table and the same vectorized rebuild.  3 keyed exchanges,
     nothing driver-sized; the per-group Python cost is one call per
     DOC WITH DUPLICATES, not per gram.

Exchange budget: pass 1 moves one row per distinct gram per batch
(8/16 B each), never the text; the filter tier moves either nothing
(broadcast) or only duplicate-gram rows + one narrow text exchange.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray
import ray.data

from dots_ocr_ray import util
from dots_ocr_ray.functions.hashing import stable_u64
from dots_ocr_ray.util import (
    GOLDEN64,
    bucket_exchange,
    bucket_keyed_fold,
    cached_object,
    sorted_membership,
    split_whitespace_checked,
)

_GRAM_B = np.uint64(GOLDEN64)  # odd multiplier; u64 wraparound


def _tokens_from_batch(
    col: pa.ChunkedArray | pa.Array,
) -> tuple[pa.Array, np.ndarray, np.ndarray]:
    """Whitespace tokens for every row, vectorized: returns
    ``(values, offsets, doc_of)`` where ``values`` is the flat token
    string array (empties removed), ``offsets`` (len n_rows+1, int64)
    delimits each row's tokens, and ``doc_of[p]`` is the row index of
    flat token position ``p``."""
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    col = pc.fill_null(col, "")
    parts = split_whitespace_checked(col)
    if isinstance(parts, pa.ChunkedArray):
        parts = parts.combine_chunks()
    vals = parts.values
    counts = np.diff(parts.offsets.to_numpy(zero_copy_only=False)).astype(np.int64)
    row_of = np.repeat(np.arange(len(counts), dtype=np.int64), counts)
    keep = np.asarray(
        pc.not_equal(vals, "").to_numpy(zero_copy_only=False), dtype=bool
    )
    tok_vals = vals.filter(pa.array(keep))
    doc_of = row_of[keep]
    tok_counts = np.bincount(doc_of, minlength=len(counts)).astype(np.int64)
    offsets = np.concatenate([[0], np.cumsum(tok_counts)])
    return tok_vals, offsets, doc_of


def _hash_tokens(tok_vals: pa.Array) -> np.ndarray:
    """u64 hash per flat token.  Dictionary-encode first so the Python
    blake2b call runs once per DISTINCT token in the batch (natural
    text repeats stopwords heavily), then gather."""
    if len(tok_vals) == 0:
        return np.zeros(0, dtype=np.uint64)
    enc = tok_vals.dictionary_encode()
    uniq = enc.dictionary.to_pylist()
    uh = np.fromiter((stable_u64(u) for u in uniq), dtype=np.uint64, count=len(uniq))
    idx = enc.indices.to_numpy(zero_copy_only=False).astype(np.int64)
    return uh[idx]


def _flat_gram_hashes(
    tok_h: np.ndarray, offsets: np.ndarray, k: int
) -> tuple[np.ndarray, np.ndarray]:
    """(starts, hashes) of every VALID k-gram over the flat token-hash
    array — valid means the gram does not cross a document boundary.
    The combine is k shifted multiply-adds (no per-gram Python)."""
    n = len(tok_h)
    n_pos = n - k + 1
    if n_pos <= 0:
        return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.uint64)
    out = np.zeros(n_pos, dtype=np.uint64)
    for j in range(k):
        out = out * _GRAM_B + tok_h[j : j + n_pos]
    starts = np.arange(n_pos, dtype=np.int64)
    doc_of = np.searchsorted(offsets, starts, side="right") - 1
    valid = starts + k <= offsets[doc_of + 1]
    return starts[valid], out[valid]


def duplicate_grams(
    ds: ray.data.Dataset,
    *,
    text_col: str = "text",
    k: int = 8,
    min_count: int = 2,
) -> ray.data.Dataset:
    """(gram:int64, cnt:int64) table of k-gram hashes whose total
    corpus-wide occurrence count is >= ``min_count``.  One keyed
    exchange: per-batch ``np.unique`` partials, then ``groupby.sum``."""

    def _partials(batch: pa.Table) -> pa.Table:
        tok_vals, offsets, _ = _tokens_from_batch(batch.column(text_col))
        _, hashes = _flat_gram_hashes(_hash_tokens(tok_vals), offsets, k)
        uniq, cnt = np.unique(hashes, return_counts=True)
        return pa.table(
            {
                "gram": pa.array(uniq.view(np.int64), type=pa.int64()),
                "cnt": pa.array(cnt.astype(np.int64), type=pa.int64()),
            }
        )

    partials = ds.map_batches(_partials, batch_format="pyarrow")
    summed = bucket_keyed_fold(partials, "gram", {"cnt": ("sum", "cnt")})

    def _finalize(batch: pa.Table) -> pa.Table:
        return batch.filter(pc.greater_equal(batch.column("cnt"), min_count))

    return summed.map_batches(_finalize, batch_format="pyarrow")


def _rebuild(
    ids: pa.Array,
    tok_vals: pa.Array,
    offsets: np.ndarray,
    doc_of: np.ndarray,
    covered: np.ndarray,
    id_col: str,
) -> pa.Table:
    """Surviving tokens -> (id, text_sub, n_kept, n_dropped), all
    vectorized (filter + bincount + binary_join)."""
    n_rows = len(offsets) - 1
    kept = ~covered
    kept_counts = (
        np.bincount(doc_of[kept], minlength=n_rows).astype(np.int64)
        if len(doc_of)
        else np.zeros(n_rows, dtype=np.int64)
    )
    total_counts = np.diff(offsets).astype(np.int64)
    out_offsets = np.concatenate([[0], np.cumsum(kept_counts)])
    kept_vals = tok_vals.filter(pa.array(kept)) if len(doc_of) else tok_vals
    rebuilt = pa.ListArray.from_arrays(
        pa.array(out_offsets, type=pa.int32()), kept_vals
    )
    return pa.table(
        {
            id_col: ids.cast(pa.int64()),
            "text_sub": pc.binary_join(rebuilt, " "),
            "n_kept": pa.array(kept_counts, type=pa.int64()),
            "n_dropped": pa.array(total_counts - kept_counts, type=pa.int64()),
        }
    )


def _covered_mask(
    dup_starts: np.ndarray, n_tokens: int, k: int
) -> np.ndarray:
    """Difference-array union of [s, s+k) intervals over the flat
    token axis.  Valid grams never cross a doc boundary, so the global
    cumsum never bleeds coverage into a neighboring document."""
    covered = np.zeros(n_tokens, dtype=bool)
    if len(dup_starts) == 0 or n_tokens == 0:
        return covered
    diff = np.zeros(n_tokens + 1, dtype=np.int64)
    np.add.at(diff, dup_starts, 1)
    np.add.at(diff, np.minimum(dup_starts + k, n_tokens), -1)
    return np.cumsum(diff[:n_tokens]) > 0


def substring_dedup(
    ds: ray.data.Dataset,
    *,
    text_col: str = "text",
    id_col: str = "doc_id",
    k: int = 8,
    min_count: int = 2,
    keep_cols: tuple[str, ...] = (),
) -> ray.data.Dataset:
    """Corpus-wide duplicate k-gram span removal ->
    ``(id, text_sub, n_kept, n_dropped)`` (+ any ``keep_cols`` passed
    through).  See the module docstring for semantics and the two-tier
    scale shape.

    ``ds`` is consumed twice (count pass + filter pass) — pass a
    materialized narrow ``(id, text)`` dataset when the input is the
    output of an expensive upstream pipeline."""
    # materialize once: count() then iter_batches()/join would each
    # re-execute the lazy count pipeline from scratch otherwise
    dup = duplicate_grams(
        ds, text_col=text_col, k=k, min_count=min_count
    ).materialize()

    if util.broadcast_fits(dup.size_bytes()):
        chunks = [
            b.column("gram").to_numpy(zero_copy_only=False).astype(np.int64)
            for b in dup.iter_batches(batch_format="pyarrow")
            if b.num_rows
        ]
        dup_sorted = np.sort(np.concatenate(chunks)) if chunks else np.zeros(
            0, dtype=np.int64
        )
        dup_ref = ray.put(dup_sorted)

        def _local(batch: pa.Table) -> pa.Table:
            dup_arr = cached_object(dup_ref)
            tok_vals, offsets, doc_of = _tokens_from_batch(batch.column(text_col))
            starts, hashes = _flat_gram_hashes(_hash_tokens(tok_vals), offsets, k)
            if len(dup_arr) and len(hashes):
                dup_starts = starts[sorted_membership(dup_arr, hashes.view(np.int64))]
            else:
                dup_starts = np.zeros(0, dtype=np.int64)
            covered = _covered_mask(dup_starts, len(doc_of), k)
            ids = batch.column(id_col)
            if isinstance(ids, pa.ChunkedArray):
                ids = ids.combine_chunks()
            out = _rebuild(ids, tok_vals, offsets, doc_of, covered, id_col)
            for c in keep_cols:
                out = out.append_column(c, batch.column(c))
            return out

        return ds.map_batches(_local, batch_format="pyarrow")

    # distributed tier: gram rows -> semi-join -> per-doc starts -> one
    # join back onto the narrow text table -> vectorized rebuild
    from dots_ocr_ray.pipelines.relational import hash_join

    def _gram_rows(batch: pa.Table) -> pa.Table:
        tok_vals, offsets, doc_of = _tokens_from_batch(batch.column(text_col))
        starts, hashes = _flat_gram_hashes(_hash_tokens(tok_vals), offsets, k)
        g_doc = doc_of[starts] if len(starts) else np.zeros(0, dtype=np.int64)
        ids = batch.column(id_col).to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table(
            {
                id_col: pa.array(ids[g_doc], type=pa.int64()),
                "ord": pa.array(starts - offsets[g_doc], type=pa.int64()),
                "gram": pa.array(hashes.view(np.int64), type=pa.int64()),
            }
        )

    gram_schema = pa.schema(
        [(id_col, pa.int64()), ("ord", pa.int64()), ("gram", pa.int64())]
    )
    dup_schema = pa.schema([("gram", pa.int64()), ("cnt", pa.int64())])
    dup_starts = hash_join(
        ds.map_batches(_gram_rows, batch_format="pyarrow"),
        dup,
        on="gram",
        how="semi",
        left_schema=gram_schema,
        right_schema=dup_schema,
    ).select_columns([id_col, "ord"])

    # coarse 256-way exchange on hash(doc) + a vectorized fold: ALL
    # docs in a bucket get their comma-joined start strings from ONE
    # run-offset binary_join — no Python call per document.  (starts
    # ship as one comma-joined string per doc: a list<int64> column
    # would be re-encoded as a tensor extension through the
    # pandas-merge join and lose its list kernels)
    def _collect(group: pa.Table) -> pa.Table:
        ids = group.column(id_col).to_numpy(zero_copy_only=False).astype(np.int64)
        ords = group.column("ord").to_numpy(zero_copy_only=False).astype(np.int64)
        if not len(ids):
            return pa.table(
                {
                    id_col: pa.array([], type=pa.int64()),
                    "starts": pa.array([], type=pa.string()),
                }
            )
        order = np.lexsort((ords, ids))
        ids, ords = ids[order], ords[order]
        new_run = np.ones(len(ids), dtype=bool)
        new_run[1:] = ids[1:] != ids[:-1]
        starts = np.flatnonzero(new_run)
        offsets = pa.array(
            np.concatenate([starts, [len(ids)]]).astype(np.int32)
        )
        as_str = pc.cast(pa.array(ords, type=pa.int64()), pa.string())
        joined_str = pc.binary_join(pa.ListArray.from_arrays(offsets, as_str), ",")
        return pa.table(
            {
                id_col: pa.array(ids[starts], type=pa.int64()),
                "starts": joined_str,
            }
        )

    starts_per_doc = bucket_exchange(dup_starts, id_col, _collect, num_buckets=256)
    if keep_cols:
        sch = ds.schema()
        types = dict(zip(sch.names, sch.types))
        text_schema = pa.schema(
            [(id_col, pa.int64()), (text_col, pa.string())]
            + [(c, types[c]) for c in keep_cols]
        )
    else:
        text_schema = pa.schema([(id_col, pa.int64()), (text_col, pa.string())])
    starts_schema = pa.schema([(id_col, pa.int64()), ("starts", pa.string())])
    joined = hash_join(
        ds.select_columns([id_col, text_col, *keep_cols]),
        starts_per_doc,
        on=id_col,
        how="left",
        left_schema=text_schema,
        right_schema=starts_schema,
    )

    def _apply(batch: pa.Table) -> pa.Table:
        tok_vals, offsets, doc_of = _tokens_from_batch(batch.column(text_col))
        starts_col = batch.column("starts")
        if isinstance(starts_col, pa.ChunkedArray):
            starts_col = starts_col.combine_chunks()
        # decode the comma-joined doc-local starts and lift them to
        # global flat-token positions — vectorized (split + cast; the
        # left-join nulls and dup-free docs decode to zero starts)
        # a bucket with zero dup-start matches yields an all-null
        # column typed null — normalize to string before filling
        if pa.types.is_null(starts_col.type):
            filled = pa.array([""] * len(starts_col), type=pa.string())
        else:
            filled = pc.fill_null(starts_col, "")
        sparts = pc.split_pattern(filled, ",")
        if isinstance(sparts, pa.ChunkedArray):
            sparts = sparts.combine_chunks()
        svals = sparts.values
        s_counts_raw = np.diff(
            sparts.offsets.to_numpy(zero_copy_only=False)
        ).astype(np.int64)
        s_keep = np.asarray(
            pc.not_equal(svals, "").to_numpy(zero_copy_only=False), dtype=bool
        )
        if s_keep.any():
            local = (
                pc.cast(svals.filter(pa.array(s_keep)), pa.int64())
                .to_numpy(zero_copy_only=False)
                .astype(np.int64)
            )
            row_of_raw = np.repeat(
                np.arange(len(s_counts_raw), dtype=np.int64), s_counts_raw
            )
            dup_flat = offsets[row_of_raw[s_keep]] + local
        else:
            dup_flat = np.zeros(0, dtype=np.int64)
        covered = _covered_mask(dup_flat, len(doc_of), k)
        ids = batch.column(id_col)
        if isinstance(ids, pa.ChunkedArray):
            ids = ids.combine_chunks()
        out = _rebuild(ids, tok_vals, offsets, doc_of, covered, id_col)
        for c in keep_cols:
            out = out.append_column(c, batch.column(c))
        return out

    return joined.map_batches(_apply, batch_format="pyarrow")


def gram_novelty(
    old_ds: ray.data.Dataset,
    new_ds: ray.data.Dataset,
    *,
    text_col: str = "text",
    id_col: str = "doc_id",
    k: int = 8,
) -> ray.data.Dataset:
    """Cross-crawl n-gram NOVELTY rate — the corpus-freshness metric a
    recurring-crawl pipeline reads before deciding how much of a new
    snapshot is worth keeping: for every NEW document, how many of its
    token k-gram positions carry a gram never seen anywhere in the OLD
    corpus.

    Output per new doc: ``(doc_id, n_grams, n_novel, novelty_micro)``
    with ``novelty_micro = floor(1e6 · n_novel / n_grams)`` (0 when the
    doc has fewer than k tokens).  Position-based: every occurrence
    counts, so a doc that repeats one stale gram scores low even if
    the gram is its only distinct one.

    Scale shape: the old side reduces to its DISTINCT gram-hash table
    (:func:`duplicate_grams` with min_count=1 — per-batch np.unique
    partials, one count exchange).  When that table fits
    :func:`~dots_ocr_ray.util.broadcast_fits`, the sorted hash array ships once via ``ray.put`` and the
    new side scores zero-exchange (per-batch ``sorted_membership`` +
    two bincounts).  Above it: the new side emits per-(doc, gram)
    multiplicity rows, one ``hash_join(how="anti")`` on gram keeps the
    novel rows, a doc-keyed count fold sums them, and one left join
    attaches totals — nothing driver-sized either way."""
    old_grams = duplicate_grams(
        old_ds, text_col=text_col, k=k, min_count=1
    ).materialize()

    def _doc_grams(batch: pa.Table):
        tok_vals, offsets, _ = _tokens_from_batch(batch.column(text_col))
        starts, hashes = _flat_gram_hashes(_hash_tokens(tok_vals), offsets, k)
        doc_of_gram = np.searchsorted(offsets, starts, side="right") - 1
        n_rows = len(offsets) - 1
        return hashes, doc_of_gram, n_rows

    if util.broadcast_fits(old_grams.size_bytes()):
        chunks = [
            b.column("gram").to_numpy(zero_copy_only=False)
            for b in old_grams.iter_batches(batch_format="pyarrow")
            if b.num_rows
        ]
        old_sorted = (
            np.sort(np.concatenate(chunks)) if chunks else np.zeros(0, dtype=np.int64)
        )
        old_ref = ray.put(old_sorted)

        def _score(batch: pa.Table) -> pa.Table:
            hashes, doc_of_gram, n_rows = _doc_grams(batch)
            n_grams = np.bincount(doc_of_gram, minlength=n_rows).astype(np.int64)
            known = sorted_membership(cached_object(old_ref), hashes.view(np.int64))
            n_novel = np.bincount(
                doc_of_gram[~known], minlength=n_rows
            ).astype(np.int64)
            micro = (1_000_000 * n_novel) // np.maximum(n_grams, 1)
            return pa.table(
                {
                    id_col: batch.column(id_col).cast(pa.int64()),
                    "n_grams": pa.array(n_grams, type=pa.int64()),
                    "n_novel": pa.array(n_novel, type=pa.int64()),
                    "novelty_micro": pa.array(micro, type=pa.int64()),
                }
            )

        return new_ds.map_batches(_score, batch_format="pyarrow")

    # distributed tier
    from dots_ocr_ray.pipelines.relational import hash_join

    def _new_rows(batch: pa.Table) -> pa.Table:
        hashes, doc_of_gram, _ = _doc_grams(batch)
        ids = (
            batch.column(id_col)
            .to_numpy(zero_copy_only=False)
            .astype(np.int64)[doc_of_gram]
        )
        g = hashes.view(np.int64)
        order = np.lexsort((g, ids))
        ids, g = ids[order], g[order]
        new_pair = np.ones(len(ids), dtype=bool)
        new_pair[1:] = (ids[1:] != ids[:-1]) | (g[1:] != g[:-1])
        starts = np.flatnonzero(new_pair)
        m = np.diff(np.concatenate([starts, [len(ids)]]))
        return pa.table(
            {
                id_col: pa.array(ids[starts], type=pa.int64()),
                "gram": pa.array(g[starts], type=pa.int64()),
                "m": pa.array(m.astype(np.int64), type=pa.int64()),
            }
        )

    def _totals(batch: pa.Table) -> pa.Table:
        hashes, doc_of_gram, n_rows = _doc_grams(batch)
        n_grams = np.bincount(doc_of_gram, minlength=n_rows).astype(np.int64)
        return pa.table(
            {
                id_col: batch.column(id_col).cast(pa.int64()),
                "n_grams": pa.array(n_grams, type=pa.int64()),
            }
        )

    novel_rows = hash_join(
        new_ds.map_batches(_new_rows, batch_format="pyarrow"),
        old_grams.select_columns(["gram"]),
        on="gram",
        how="anti",
        left_schema=pa.schema(
            [(id_col, pa.int64()), ("gram", pa.int64()), ("m", pa.int64())]
        ),
        right_schema=pa.schema([("gram", pa.int64())]),
    )
    per_doc_novel = bucket_keyed_fold(novel_rows.select_columns([id_col, "m"]), id_col, {"m": ("sum", "m")})
    joined = hash_join(
        new_ds.map_batches(_totals, batch_format="pyarrow"),
        per_doc_novel,
        on=id_col,
        how="left",
        left_schema=pa.schema([(id_col, pa.int64()), ("n_grams", pa.int64())]),
        right_schema=pa.schema([(id_col, pa.int64()), ("m", pa.int64())]),
    )

    def _finalize(batch: pa.Table) -> pa.Table:
        n_grams = batch.column("n_grams").to_numpy(zero_copy_only=False).astype(np.int64)
        n_novel = (
            pc.fill_null(batch.column("m"), 0)
            .to_numpy(zero_copy_only=False)
            .astype(np.int64)
        )
        micro = (1_000_000 * n_novel) // np.maximum(n_grams, 1)
        return pa.table(
            {
                id_col: batch.column(id_col).cast(pa.int64()),
                "n_grams": pa.array(n_grams, type=pa.int64()),
                "n_novel": pa.array(n_novel, type=pa.int64()),
                "novelty_micro": pa.array(micro, type=pa.int64()),
            }
        )

    return joined.map_batches(_finalize, batch_format="pyarrow")
