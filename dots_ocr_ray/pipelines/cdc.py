"""Content-defined-chunking dedup over the corpus (pipelines/cdc.py).

Storage-level dedup stats: every document's text is CDC-chunked
(kernel/cdc.py — Gear rolling hash, so re-crawls sharing most bytes
share most chunk hashes), and the corpus-wide chunk-hash rollup says
how many bytes a chunk-addressed store would actually hold.  This is
the dedup signal BELOW document granularity — exact_dedup catches
identical docs, MinHash near-identical docs; CDC counts the shared
bytes inside partially-overlapping docs (boilerplate headers, quoted
threads, syndicated paragraphs).

Scale discipline: chunk rows never carry content — 16-byte hash +
two int64s — and each batch pre-aggregates its chunk multiset with
one ``pyarrow group_by`` before the SINGLE hash-keyed exchange; the
final corpus stats fold per-block partials into one row, so the
driver never sees per-chunk data.
"""

from __future__ import annotations

import pyarrow as pa

import ray
import ray.data

from dots_ocr_ray.kernel.cdc import cdc_chunks


def chunk_hash_counts(
    docs: ray.data.Dataset,
    *,
    text_col: str = "text",
    min_size: int = 64,
    avg_size: int = 256,
    max_size: int = 1024,
) -> ray.data.Dataset:
    """(chunk_hash, n_occurrences, chunk_bytes) per distinct chunk —
    one keyed fold over the chunk stream."""

    def _chunks(batch: pa.Table) -> pa.Table:
        hashes: list[str] = []
        lengths: list[int] = []
        for t in batch.column(text_col).to_pylist():
            data = (t or "").encode("utf-8", errors="replace")
            for _start, length, h in cdc_chunks(
                data, min_size=min_size, avg_size=avg_size, max_size=max_size
            ):
                hashes.append(h)
                lengths.append(length)
        return pa.table(
            {
                "chunk_hash": pa.array(hashes, type=pa.string()),
                "chunk_bytes": pa.array(lengths, type=pa.int64()),
            }
        )

    from dots_ocr_ray.util import bucket_keyed_fold

    counts = bucket_keyed_fold(
        docs.map_batches(_chunks, batch_format="pyarrow"),
        ["chunk_hash", "chunk_bytes"],
        {"n_occurrences": ("count", None)},
    )
    return counts.select_columns(["chunk_hash", "n_occurrences", "chunk_bytes"])


def cdc_dedup_stats(
    docs: ray.data.Dataset,
    *,
    text_col: str = "text",
    min_size: int = 64,
    avg_size: int = 256,
    max_size: int = 1024,
) -> pa.Table:
    """One-row corpus summary: how much a chunk-addressed store
    dedups this corpus.

    Output: (total_chunks, distinct_chunks, total_bytes,
    distinct_bytes, dedup_ratio) — dedup_ratio =
    distinct_bytes / total_bytes rounded to 6 dp.  The per-hash table
    folds into per-block scalar partials; the driver sums O(blocks)
    rows."""
    counts = chunk_hash_counts(
        docs, text_col=text_col, min_size=min_size, avg_size=avg_size, max_size=max_size
    )

    def _fold(batch: pa.Table) -> pa.Table:
        n = batch.column("n_occurrences").to_numpy(zero_copy_only=False)
        b = batch.column("chunk_bytes").to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "total_chunks": pa.array([int(n.sum())], type=pa.int64()),
                "distinct_chunks": pa.array([batch.num_rows], type=pa.int64()),
                "total_bytes": pa.array([int((n * b).sum())], type=pa.int64()),
                "distinct_bytes": pa.array([int(b.sum())], type=pa.int64()),
            }
        )

    tc = dc = tb = db = 0
    for r in counts.map_batches(_fold, batch_format="pyarrow").take_all():
        tc += r["total_chunks"]
        dc += r["distinct_chunks"]
        tb += r["total_bytes"]
        db += r["distinct_bytes"]
    ratio = round(db / tb, 6) if tb else 0.0
    return pa.table(
        {
            "total_chunks": pa.array([tc], type=pa.int64()),
            "distinct_chunks": pa.array([dc], type=pa.int64()),
            "total_bytes": pa.array([tb], type=pa.int64()),
            "distinct_bytes": pa.array([db], type=pa.int64()),
            "dedup_ratio": pa.array([ratio], type=pa.float64()),
        }
    )
