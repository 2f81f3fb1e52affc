"""End-to-end training-data preparation: the composite pipeline a user
of this engine runs over a web crawl.

    pages (parquet/WARC) ──extract (actor pool, zero-shuffle kernel)
      └─ keep status == finished            (degradation rows dropped HERE,
                                             never inside the kernel)
      └─ quality gate (heuristic features)  (map_batches, vectorized)
      └─ corpus dedup                       (exact | minhash — the only
                                             keyed exchanges in the job)
      └─ [optional] bench n-gram decontamination (broadcast bench
                                             grams, zero-exchange cut)
      └─ PII scrub                          (map_batches)
      └─ token chunking w/ char lineage     (flat explode)
      └─ deterministic train/val split      (Knuth hash on doc id)
      └─ write out_dir/split=train|val/     (partitioned parquet)

Everything before and after the dedup exchange streams with
backpressure.  The exact-dedup path consumes the survivor ROWS
directly (no keep filter at all); the minhash path anti-joins the
corpus against the DUPLICATE ids (``hash_join(how="anti")``: a sorted
broadcast when the ids fit, one keyed exchange above) — exact at
every scale, and no driver-side collection ever scales with the
survivor count.
Returns per-stage row counts (the job-level lineage the reference
tracks per job, dotsocr_service.py:430-443).
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc

import ray
import ray.data

from dots_ocr_ray.functions.scrub import scrub_documents
from dots_ocr_ray.kernel.textops import quality_features, quality_keep
from dots_ocr_ray.pipelines.chunking import chunk_documents
from dots_ocr_ray.pipelines.dedup import anti_join_ids, exact_dedup, minhash_lsh_dedup


def prepare_training_data(
    pages: ray.data.Dataset,
    out_dir: str,
    *,
    dedup: str = "exact",
    minhash_threshold: float = 0.85,
    chunk_tokens: int = 128,
    overlap_tokens: int = 16,
    train_fraction: float = 0.9,
    line_dedup_min_count: int | None = None,
    substring_dedup_k: int | None = None,
    decontaminate_bench: ray.data.Dataset | None = None,
    decontaminate_k: int = 8,
    emit_token_ids: bool = False,
    vocab_size: int = 1 << 15,
    output_format: str = "parquet",
) -> dict:
    """pages Dataset → chunked, deduped, scrubbed train/val parquet.

    ``dedup`` is "exact", "minhash", or "none".  Exact dedup yields the
    survivor rows directly; minhash yields duplicate ids (cluster
    members that are not the cluster min) that are anti-joined out of
    the corpus distributively and EXACTLY — either way, nothing
    survivor-proportional lands on the driver."""
    from dots_ocr_ray.pipelines.extract import extract_pages

    extracted = extract_pages(pages)

    def _narrow_with_id(batch: pa.Table) -> pa.Table:
        # stable doc id: the url hash used everywhere else in the engine
        from dots_ocr_ray.kernel.textops import md5_hex

        ids = [int(md5_hex(u)[:15], 16) for u in batch.column("url").to_pylist()]
        return pa.table(
            {
                "doc_id": pa.array(ids, type=pa.int64()),
                "url": batch.column("url"),
                "text": batch.column("extracted_text_nohf"),
                "status": batch.column("status"),
            }
        )

    narrow = extracted.map_batches(_narrow_with_id, batch_format="pyarrow")

    def _finished(batch: pa.Table) -> pa.Table:
        return batch.filter(pc.equal(batch.column("status"), "finished")).drop_columns(
            ["status"]
        )

    def _quality(batch: pa.Table) -> pa.Table:
        keep = [
            quality_keep(quality_features(t or "")) for t in batch.column("text").to_pylist()
        ]
        return batch.filter(pa.array(keep, type=pa.bool_()))

    counts = {"extracted": None, "quality_kept": None, "deduped": None}

    if dedup != "none":
        # the dedup pair machinery needs the corpus twice → materialize
        # the narrow table once (spill-backed); extraction executes
        # EXACTLY ONCE, and the lineage counters read the materialized
        # narrow rows instead of re-running the pipeline
        narrow = narrow.materialize()
        counts["extracted"] = narrow.count()
        docs = (
            narrow.map_batches(_finished, batch_format="pyarrow")
            .map_batches(_quality, batch_format="pyarrow")
            .materialize()
        )
        counts["quality_kept"] = docs.count()
        if dedup == "exact":
            # exact_dedup already RETURNS the survivor rows — no id
            # set, no second filter pass over the corpus at all
            docs = exact_dedup(docs).drop_columns(["content_md5"])
        elif dedup == "minhash":
            clusters = minhash_lsh_dedup(docs, threshold=minhash_threshold)

            def _dups(batch: pa.Table) -> pa.Table:
                m = pc.not_equal(batch.column("doc_id"), batch.column("cluster_id"))
                return batch.filter(m).select(["doc_id"])

            duplicates = clusters.map_batches(_dups, batch_format="pyarrow").materialize()
            # the keep filter is EXACT at every scale and inverted to
            # the SMALL side: anti-join the corpus against the
            # duplicate ids (dups << survivors ≈ corpus, so the
            # broadcast tier covers far larger corpora).  Nothing
            # survivor-proportional lands anywhere.
            docs = anti_join_ids(docs, duplicates, id_col="doc_id", id_cols=("doc_id",))
        else:
            raise ValueError(f"unknown dedup mode: {dedup}")
        docs = docs.materialize()
        counts["deduped"] = docs.count()
    else:
        # fully streaming: no materialization, no counters beyond the
        # final chunk count
        docs = narrow.map_batches(_finished, batch_format="pyarrow").map_batches(
            _quality, batch_format="pyarrow"
        )

    if line_dedup_min_count is not None:
        # C4/Falcon boilerplate-line strip AFTER doc-level dedup: lines
        # repeated corpus-wide (nav/footer remnants) drop from every
        # surviving document; url rides the passthrough seam
        from dots_ocr_ray.pipelines.dedup import line_dedup

        deduped_lines = line_dedup(
            docs,
            text_col="text",
            id_col="doc_id",
            min_count=line_dedup_min_count,
            keep_cols=("url",),
        )

        def _as_text(batch: pa.Table) -> pa.Table:
            return batch.select(["doc_id", "url", "text_dedup"]).rename_columns(
                ["doc_id", "url", "text"]
            )

        docs = deduped_lines.map_batches(_as_text, batch_format="pyarrow")

    if substring_dedup_k is not None:
        # Lee et al. ExactSubstr span removal AFTER line dedup: k-token
        # grams repeated corpus-wide are cut from every position.
        # substring_dedup consumes its input twice — materialize the
        # narrow survivors once
        from dots_ocr_ray.pipelines.substring import substring_dedup

        docs = docs.materialize()
        sub = substring_dedup(
            docs,
            text_col="text",
            id_col="doc_id",
            k=substring_dedup_k,
            keep_cols=("url",),
        )

        def _sub_as_text(batch: pa.Table) -> pa.Table:
            return batch.select(["doc_id", "url", "text_sub"]).rename_columns(
                ["doc_id", "url", "text"]
            )

        docs = sub.map_batches(_sub_as_text, batch_format="pyarrow")

    if decontaminate_bench is not None:
        # benchmark n-gram decontamination LAST among the text
        # surgeries: spans matching any bench k-gram are cut so eval
        # data cannot leak into training chunks.  One bench-gram
        # broadcast + zero-exchange batch-local corpus pass
        # (curation.py); url rides the keep_cols passthrough seam
        from dots_ocr_ray.pipelines.curation import ngram_decontaminate

        decon = ngram_decontaminate(
            docs,
            decontaminate_bench,
            text_col="text",
            id_col="doc_id",
            k=decontaminate_k,
            keep_cols=("url",),
        )

        def _decon_as_text(batch: pa.Table) -> pa.Table:
            return batch.select(["doc_id", "url", "text_decon"]).rename_columns(
                ["doc_id", "url", "text"]
            )

        docs = decon.map_batches(_decon_as_text, batch_format="pyarrow")

    scrubbed = scrub_documents(docs, text_col="text").select_columns(
        ["doc_id", "url", "text_scrubbed"]
    )

    def _rename(batch: pa.Table) -> pa.Table:
        return batch.rename_columns(["doc_id", "url", "text"])

    chunks = chunk_documents(
        scrubbed.map_batches(_rename, batch_format="pyarrow"),
        chunk_tokens=chunk_tokens,
        overlap_tokens=overlap_tokens,
        passthrough_cols=("url",),
    )

    def _split(batch: pa.Table) -> pa.Table:
        h = pc.bit_wise_and(
            pc.multiply(batch.column("doc_id").cast(pa.int64()), 2654435761), 0xFFFFFFFF
        )
        split = pc.if_else(
            pc.less(h, int(4294967296 * train_fraction)), "train", "val"
        )
        return batch.append_column("split", split)

    final = chunks.map_batches(_split, batch_format="pyarrow")

    if emit_token_ids:
        # vocabulary from the TRAIN split only (no val leakage into
        # token ranks), applied to both splits; the vocab itself is
        # persisted next to the data so inference re-uses it verbatim
        from dots_ocr_ray.pipelines.text_analysis import build_vocab, encode_token_ids

        final = final.materialize()  # consumed by vocab pass + encode + write

        def _train_only(batch: pa.Table) -> pa.Table:
            return batch.filter(pc.equal(batch.column("split"), "train"))

        vocab = build_vocab(
            final.map_batches(_train_only, batch_format="pyarrow"),
            text_col="chunk_text",
            vocab_size=vocab_size,
        )
        import pyarrow.parquet as pq

        from dots_ocr_ray.state.manifest import resolve_fs

        fs, root = resolve_fs(out_dir)
        fs.create_dir(root, recursive=True)
        # "_"-prefixed: parquet dataset discovery ignores it, so a
        # read_parquet(out_dir) over the partitioned data never mixes
        # the vocab schema in
        with fs.open_output_stream(f"{root}/_vocab.parquet") as f:
            pq.write_table(vocab, f)
        counts["vocab_size"] = vocab.num_rows
        final = encode_token_ids(final, vocab, text_col="chunk_text", as_list=True)

    if output_format == "jsonl":
        from dots_ocr_ray.sources.jsonl import write_jsonl

        def _one_split(name: str):
            def _fn(batch: pa.Table) -> pa.Table:
                return batch.filter(pc.equal(batch.column("split"), name))

            return _fn

        total = 0
        for name in ("train", "val"):
            manifest = write_jsonl(
                final.map_batches(_one_split(name), batch_format="pyarrow"),
                f"{out_dir}/split={name}",
            )
            total += sum(m["rows"] for m in manifest)
        counts["chunks_written"] = total
    else:
        final.write_parquet(out_dir, partition_cols=["split"])
        written = ray.data.read_parquet(out_dir)
        counts["chunks_written"] = written.count()
    if counts["quality_kept"] is None:
        counts["quality_kept"] = counts["chunks_written"]  # streamed straight through

    # per-run lineage + the executed plan's per-stage stats, persisted
    # with the output (reference tracing analog, app/utils/metrics.py)
    from dots_ocr_ray.state.manifest import write_job_stats

    write_job_stats(
        out_dir,
        {
            "job": "prepare_training_data",
            "dedup": dedup,
            "counts": counts,
            "dataset_stats": final.stats(),
        },
    )
    return counts
