"""The extraction stage (reference A1/A3/A4 seam).

The reference holds warm model state per worker (vLLM client /
lazy Paddle + LayoutLM singletons, layout_service.py:167-172,237-242);
here ``__init__`` is where such state would load, and ``__call__``
applies the kernel per Arrow batch.  The built-in kernel's state is
module-level (compiled regexes), so the package's own paths build one
instance per batch or shard inside stateless tasks; a model-backed
``kernel_fn`` runs as an actor pool via ``map_batches(ExtractorActor,
concurrency=N, batch_format="pyarrow")``.

Input batch: pages columns (url, html, text[, lang]).  Output batch:
RESULT_SCHEMA columns — the wide ``html`` payload is dropped on the way
out so downstream blocks stay small.
"""

from __future__ import annotations

import pyarrow as pa

from dots_ocr_ray.kernel.extract import ExtractConfig, extract_page
from dots_ocr_ray.schema import RESULT_SCHEMA, SPAN_TYPE


class ExtractorActor:
    """Stateful extraction stage for ``Dataset.map_batches``.

    One instance per actor; ``__init__`` is the construct-once seam
    (model load / regex compile in the reference).  ``__call__``
    processes one Arrow batch zero-copy in, Arrow out.
    """

    def __init__(
        self,
        config: ExtractConfig | None = None,
        partition_id: int | None = None,
        kernel_fn=None,
    ):
        """``kernel_fn(url, html, text, config) -> result dict`` swaps
        the extraction strategy — the reference's interchangeable-engine
        seam (PdfOcrTask vs PipeOcrTask behind one task API,
        app/utils/executor/ocr_task.py:247-361 vs :438-634, toggled by
        PARSE_WITH_PIPELINE).  Default: the built-in heuristic kernel.

        ``partition_id`` fills the output's ``partition_id`` column: the
        shard whose part file the rows are written to, or null for a
        streaming stage whose rows belong to no written partition."""
        self.config = config or ExtractConfig()
        self.partition_id = partition_id
        # None: the built-in kernel, whose result shape is trusted (its
        # own tests pin it); a CUSTOM kernel's result is validated per
        # row so one malformed span degrades that row instead of
        # poisoning the whole batch (the fail-soft contract below)
        self.kernel_fn = None if kernel_fn is extract_page else kernel_fn

    def __call__(self, batch: pa.Table) -> pa.Table:
        urls = batch.column("url").to_pylist()
        htmls = batch.column("html").to_pylist()
        texts = batch.column("text").to_pylist() if "text" in batch.column_names else [None] * len(urls)
        langs = batch.column("lang").to_pylist() if "lang" in batch.column_names else [""] * len(urls)

        rows = []  # (extracted_text, extracted_text_nohf, status, n_spans)
        # spans go into FLAT column lists (category, bbox, char_start,
        # char_end, text) that the built-in kernel's serialize walk fills
        # itself (extract_page's ``columns``): a dict per span, or
        # pa.array over list-of-list-of-dicts (measured 10x slower than
        # the whole kernel), is never built
        cols = ([], [], [], [], [])
        f_cat, f_bbox, f_start, f_end, f_text = cols
        span_offsets = [0]
        for url, html, text in zip(urls, htmls, texts):
            # row-level containment: a pathological row degrades, never
            # poisons the block (reference fail-soft stance, SURVEY §4)
            # — including a CUSTOM kernel returning a malformed result
            # (missing keys, non-4 bbox), validated/coerced inside the
            # same per-row try; a failed row's spans are cut off again
            marks = [len(col) for col in cols]
            try:
                if self.kernel_fn is None:
                    res = extract_page(url, html, text, self.config, columns=cols)
                else:
                    res = self.kernel_fn(url, html, text, self.config)
                    for sp in res["spans"]:
                        if len(sp["bbox"]) == 4:
                            f_cat.append(str(sp["category"]))
                            f_bbox.extend([int(v) for v in sp["bbox"]])
                            f_start.append(int(sp["char_start"]))
                            f_end.append(int(sp["char_end"]))
                            f_text.append(str(sp["text"]))
                rows.append((res["extracted_text"], res["extracted_text_nohf"], res["status"], len(f_cat) - marks[0]))
            except Exception:
                for col, mark in zip(cols, marks):
                    del col[mark:]
                rows.append(("", "", "failed", 0))
            span_offsets.append(len(f_cat))

        text_v, nohf_v, status_v, n_spans = zip(*rows) if rows else ((),) * 4
        bbox_child = pa.FixedSizeListArray.from_arrays(pa.array(f_bbox, type=pa.int32()), 4)
        span_struct = pa.StructArray.from_arrays(
            [
                pa.array(f_cat, type=pa.string()),
                bbox_child,
                pa.array(f_start, type=pa.int64()),
                pa.array(f_end, type=pa.int64()),
                pa.array(f_text, type=pa.string()),
            ],
            fields=list(SPAN_TYPE),
        )
        spans_arr = pa.ListArray.from_arrays(pa.array(span_offsets, type=pa.int32()), span_struct)
        arrays = [
            pa.array(urls, type=pa.string()),
            pa.array([lang or "" for lang in langs], type=pa.string()),
            pa.array(text_v, type=pa.string()),
            pa.array(nohf_v, type=pa.string()),
            spans_arr,
            pa.array(status_v, type=pa.string()),
            pa.array(n_spans, type=pa.int32()),
            pa.array([len(html) if html is not None else 0 for html in htmls], type=pa.int64()),
            pa.array([self.partition_id] * len(urls), type=pa.int32()),
        ]
        result = pa.Table.from_arrays(arrays, schema=RESULT_SCHEMA)
        # carry pass-through key columns (e.g. doc_id for SQL-checked
        # pipelines) that aren't part of RESULT_SCHEMA
        for name in batch.column_names:
            if name not in RESULT_SCHEMA.names and name not in ("html", "text", "warc_ts"):
                result = result.append_column(name, batch.column(name))
        return result
