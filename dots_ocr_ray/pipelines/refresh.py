"""Recurring-crawl corpus refresh: yesterday's corpus never
reprocesses — its INDEX does.

The index directory persists two tables across runs:

* ``index_dir/md5/``  — ``(content_md5)`` of every document ever kept
  (the exact-dup gate, :func:`~dots_ocr_ray.pipelines.dedup.
  exact_dedup_incremental`);
* ``index_dir/sigs/`` — ``(doc_id, sig)`` MinHash signatures of every
  document ever kept (the near-dup gate, :func:`~dots_ocr_ray.
  pipelines.dedup.minhash_dedup_incremental`; the archive's TEXT is
  never re-shingled).

One refresh run: extract the new pages → status/quality gate →
exact-incremental → minhash-incremental → write the surviving
documents as partitioned parquet under ``out_dir`` AND append their
md5s + signatures to the index (new parquet files; existing index
files are never rewritten, so concurrent readers and resumes stay
consistent).  Reference analog: the md5-gated job skip (S9/J4,
app/utils/storage.py marker probes) generalized from per-page resume
to corpus-level recurring ingest.

Everything streams: the only driver-sized state is the NEW batch's id
array inside minhash_dedup_incremental (bounded by the refresh batch,
documented there)."""

from __future__ import annotations

import posixpath
import uuid

import pyarrow as pa
import pyarrow.compute as pc

import ray
import ray.data

from dots_ocr_ray import util
from dots_ocr_ray.kernel.textops import md5_hex
from dots_ocr_ray.state.manifest import resolve_fs


def _index_files(index_dir: str, sub: str) -> list[str]:
    from pyarrow.fs import FileSelector

    fs, root = resolve_fs(index_dir)
    path = posixpath.join(root, sub)
    try:
        infos = fs.get_file_info(FileSelector(path, recursive=True))
    except (FileNotFoundError, OSError):
        return []
    return sorted(f.path for f in infos if f.is_file and f.path.endswith(".parquet"))


def refresh_corpus(
    new_pages: ray.data.Dataset,
    index_dir: str,
    out_dir: str,
    *,
    minhash_threshold: float = 0.85,
    num_perm: int = 128,
) -> dict:
    """One recurring-crawl refresh run; returns lineage counts."""
    from dots_ocr_ray.pipelines.dedup import (
        exact_dedup_incremental,
        minhash_dedup_incremental,
        minhash_signatures,
    )
    from dots_ocr_ray.pipelines.extract import extract_pages

    extracted = extract_pages(new_pages)

    def _narrow(batch: pa.Table) -> pa.Table:
        # doc_id = h(url ‖ content): minhash_dedup_incremental REQUIRES
        # ids disjoint between the new batch and the stored index, and
        # a recrawl of url U with drifted content would reuse a plain
        # url-hash id — the archive sig and the new sig then collide on
        # one id, the cross-pair degenerates to a self-pair, and the
        # near-dup silently evades the gate.  Salting with the content
        # hash makes a changed recrawl a NEW node by construction,
        # while an identical recrawl never reaches this gate (the
        # exact-md5 gate drops it first).
        urls = batch.column("url").to_pylist()
        texts = batch.column("extracted_text_nohf").to_pylist()
        ids = [
            int(md5_hex(md5_hex(u) + md5_hex(t or ""))[:15], 16)
            for u, t in zip(urls, texts)
        ]
        return pa.table(
            {
                "doc_id": pa.array(ids, type=pa.int64()),
                "url": batch.column("url"),
                "text": batch.column("extracted_text_nohf"),
                "status": batch.column("status"),
            }
        )

    def _finished(batch: pa.Table) -> pa.Table:
        return batch.filter(
            pc.equal(batch.column("status"), "finished")
        ).drop_columns(["status"])

    docs = (
        extracted.map_batches(_narrow, batch_format="pyarrow")
        .map_batches(_finished, batch_format="pyarrow")
        .materialize()
    )
    counts: dict = {"extracted_ok": docs.count()}

    fs, root = resolve_fs(index_dir)
    md5_files = _index_files(index_dir, "md5")
    sig_files = _index_files(index_dir, "sigs")

    # exact gate (adds content_md5; collapses in-batch exact dups too)
    if md5_files:
        md5_index = ray.data.read_parquet(md5_files, columns=["content_md5"])
    else:
        md5_index = ray.data.from_arrow(
            pa.table({"content_md5": pa.array([], type=pa.string())})
        )
    fresh = exact_dedup_incremental(docs, md5_index).materialize()
    counts["after_exact"] = fresh.count()

    # near-dup gate against the stored signature archive
    if sig_files:
        sig_index = ray.data.read_parquet(sig_files, columns=["doc_id", "sig"])
        survivors = minhash_dedup_incremental(
            fresh.drop_columns(["content_md5"]),
            sig_index,
            threshold=minhash_threshold,
            num_perm=num_perm,
        ).materialize()
        # re-attach the md5 column for the index append (the ONE shared
        # content-identity convention, dedup.add_content_md5)
        from dots_ocr_ray.pipelines.dedup import add_content_md5

        survivors = add_content_md5(survivors, "text").materialize()
    else:
        # first run: within-batch near-dedup only
        from dots_ocr_ray.pipelines.dedup import minhash_lsh_dedup

        clusters = minhash_lsh_dedup(
            fresh, threshold=minhash_threshold, num_perm=num_perm
        )

        def _dup_ids(batch: pa.Table) -> pa.Table:
            m = pc.not_equal(batch.column("doc_id"), batch.column("cluster_id"))
            return batch.filter(m).select(["doc_id"])

        from dots_ocr_ray.pipelines.dedup import anti_join_ids

        # anti-join against the DUPLICATE ids: the smaller id side
        survivors = anti_join_ids(
            fresh,
            clusters.map_batches(_dup_ids, batch_format="pyarrow").materialize(),
            id_col="doc_id",
            id_cols=("doc_id",),
        ).materialize()
    counts["kept"] = survivors.count()

    # output + index append (new files only; never rewrite)
    survivors.select_columns(["doc_id", "url", "text"]).write_parquet(out_dir)
    run_id = uuid.uuid4().hex[:12]
    for sub in ("md5", "sigs"):
        fs.create_dir(posixpath.join(root, sub), recursive=True)
    import pyarrow.parquet as pq

    from dots_ocr_ray.util import collect_arrow_blocks

    md5_tbl = pa.concat_tables(
        collect_arrow_blocks(survivors.select_columns(["content_md5"]))
        or [pa.table({"content_md5": pa.array([], type=pa.string())})]
    )
    with fs.open_output_stream(
        posixpath.join(root, "md5", f"run-{run_id}.parquet")
    ) as f:
        pq.write_table(md5_tbl, f)
    sig_tbl = pa.concat_tables(
        collect_arrow_blocks(minhash_signatures(survivors, num_perm=num_perm))
        or [
            pa.table(
                {
                    "doc_id": pa.array([], type=pa.int64()),
                    "sig": pa.array([], type=pa.binary()),
                }
            )
        ]
    )
    with fs.open_output_stream(
        posixpath.join(root, "sigs", f"run-{run_id}.parquet")
    ) as f:
        pq.write_table(sig_tbl, f)

    from dots_ocr_ray.state.manifest import write_job_stats

    write_job_stats(
        out_dir,
        {"job": "refresh_corpus", "index_dir": index_dir, "counts": counts},
    )
    return counts


def recrawl_priority(
    diff: ray.data.Dataset,
    ranks: pa.Table | ray.data.Dataset,
    *,
    id_col: str = "doc_id",
    host_of=None,
    rank_col: str = "rank_rel",
) -> ray.data.Dataset:
    """Recrawl scheduling priority per host: combine a snapshot diff
    (:func:`~dots_ocr_ray.pipelines.document.crawl_diff` output — which
    urls changed between two crawls) with link-graph importance
    (:func:`~dots_ocr_ray.pipelines.graph.pagerank`) into the classic
    crawl-ordering signal ``priority = change_rate × rank`` — hosts
    that BOTH churn often and matter get refetched first; a static
    archive or an unimportant churner waits.

    Output per host: ``n_added``, ``n_changed``, ``n_compared``
    (changed+unchanged — pages seen in both snapshots),
    ``change_rate`` (= changed / max(compared, 1)), ``rank_rel``
    (relative PageRank), ``priority``.

    Scale shape: the diff streams through ONE bounded host-keyed fold
    of the per-class counts; the rank table joins on host through
    :func:`~dots_ocr_ray.pipelines.relational.hash_join` (a broadcast
    ``searchsorted`` gather when it fits, one keyed exchange above).

    ``host_of``: vectorized ``np.ndarray[int64] -> np.ndarray[int64]``
    mapping row ids to host ids (the driver fixture uses
    ``doc_id % 40``; a real crawl passes a url→host hash)."""
    import numpy as np

    from dots_ocr_ray.util import bucket_keyed_fold

    if host_of is None:
        host_of = lambda ids: ids % 40  # noqa: E731 — driver fixture rule

    def _classes(batch: pa.Table) -> pa.Table:
        ids = batch.column(id_col).to_numpy(zero_copy_only=False).astype(np.int64)
        change = batch.column("change")

        def _is(*classes: str) -> pa.Array:
            return pc.is_in(change, pa.array(classes)).cast(pa.int64())

        return pa.table(
            {
                "host": pa.array(host_of(ids), type=pa.int64()),
                "added": _is("added"),
                "changed": _is("changed"),
                "compared": _is("changed", "unchanged"),
            }
        )

    per_host = bucket_keyed_fold(
        diff.map_batches(_classes, batch_format="pyarrow"),
        "host",
        {"added": ("sum", "added"), "changed": ("sum", "changed"), "compared": ("sum", "compared")},
    )

    # LEFT join on host: hosts absent from the rank table score rank 0.0
    from dots_ocr_ray.pipelines.relational import hash_join

    rank_ds = ray.data.from_arrow(ranks) if isinstance(ranks, pa.Table) else ranks

    @util.rows_out(1)
    def _rank_norm(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "host": batch.column("host").cast(pa.int64()),
                "__rank": batch.column(rank_col).cast(pa.float64()),
            }
        )

    joined = hash_join(
        per_host,
        rank_ds.map_batches(_rank_norm, batch_format="pyarrow"),
        on="host",
        how="left",
        left_schema=pa.schema(
            [
                ("host", pa.int64()),
                ("added", pa.int64()),
                ("changed", pa.int64()),
                ("compared", pa.int64()),
            ]
        ),
        right_schema=pa.schema([("host", pa.int64()), ("__rank", pa.float64())]),
    )

    def _score_joined(batch: pa.Table) -> pa.Table:
        h = batch.column("host").to_numpy(zero_copy_only=False).astype(np.int64)
        added = batch.column("added").to_numpy(zero_copy_only=False)
        changed = batch.column("changed").to_numpy(zero_copy_only=False)
        compared = batch.column("compared").to_numpy(zero_copy_only=False)
        rank = (
            pc.fill_null(batch.column("__rank"), 0.0)
            .to_numpy(zero_copy_only=False)
            .astype(np.float64)
        )
        rate = changed / np.maximum(compared, 1)
        return pa.table(
            {
                "host": pa.array(h, type=pa.int64()),
                "n_added": pa.array(added, type=pa.int64()),
                "n_changed": pa.array(changed, type=pa.int64()),
                "n_compared": pa.array(compared, type=pa.int64()),
                "change_rate": pa.array(rate, type=pa.float64()),
                "rank_rel": pa.array(rank, type=pa.float64()),
                "priority": pa.array(rate * rank, type=pa.float64()),
            }
        )

    return joined.map_batches(_score_joined, batch_format="pyarrow")
