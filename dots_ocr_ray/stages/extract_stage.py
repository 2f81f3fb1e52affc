"""The extraction actor-pool stage (reference A1/A3/A4 seam).

The reference holds warm model state per worker (vLLM client /
lazy Paddle + LayoutLM singletons, layout_service.py:167-172,237-242);
here the warm state is the compiled kernel configuration, constructed
once per actor in ``__init__`` and applied per Arrow batch in
``__call__`` — the ``map_batches(Cls, concurrency=N,
batch_format="pyarrow")`` pattern.

Input batch: pages columns (url, html, text[, lang]).  Output batch:
RESULT_SCHEMA columns — the wide ``html`` payload is dropped on the way
out so downstream blocks stay small.
"""

from __future__ import annotations

import hashlib

import pyarrow as pa

from dots_ocr_ray.kernel.extract import ExtractConfig, extract_page
from dots_ocr_ray.schema import RESULT_SCHEMA, SPAN_TYPE


def url_partition_id(url: str, num_partitions: int) -> int:
    """Deterministic url → partition mapping (md5-based, like the
    reference's md5 job identity, dotsocr_service.py:597-599).  Stable
    across processes — the resume/checkpoint key."""
    digest = hashlib.md5(url.encode("utf-8")).digest()
    return int.from_bytes(digest[:4], "big") % num_partitions


class ExtractorActor:
    """Stateful extraction stage for ``Dataset.map_batches``.

    One instance per actor; ``__init__`` is the construct-once seam
    (model load / regex compile in the reference).  ``__call__``
    processes one Arrow batch zero-copy in, Arrow out.
    """

    def __init__(
        self,
        config: ExtractConfig | None = None,
        num_partitions: int = 64,
        kernel_fn=None,
    ):
        """``kernel_fn(url, html, text, config) -> result dict`` swaps
        the extraction strategy — the reference's interchangeable-engine
        seam (PdfOcrTask vs PipeOcrTask behind one task API,
        app/utils/executor/ocr_task.py:247-361 vs :438-634, toggled by
        PARSE_WITH_PIPELINE).  Default: the built-in heuristic kernel."""
        self.config = config or ExtractConfig()
        self.num_partitions = num_partitions
        self.kernel_fn = kernel_fn or extract_page
        # the built-in kernel's result shape is trusted (its own tests
        # pin it); a CUSTOM kernel's result is validated per row so one
        # malformed span degrades that row instead of poisoning the
        # whole batch (the fail-soft contract below)
        self._trusted_kernel = kernel_fn is None or kernel_fn is extract_page

    def __call__(self, batch: pa.Table) -> pa.Table:
        urls = batch.column("url").to_pylist()
        htmls = batch.column("html").to_pylist()
        texts = batch.column("text").to_pylist() if "text" in batch.column_names else [None] * len(urls)
        langs = batch.column("lang").to_pylist() if "lang" in batch.column_names else [""] * len(urls)

        out = {name: [] for name in RESULT_SCHEMA.names if name != "spans"}
        # spans go into FLAT builders — constructing list<struct> via
        # pa.array(list-of-list-of-dicts) was measured 10x slower than
        # the whole extraction kernel; ListArray.from_arrays over flat
        # child arrays is near-free
        span_offsets = [0]
        f_cat: list[str] = []
        f_bbox: list[int] = []
        f_start: list[int] = []
        f_end: list[int] = []
        f_text: list[str] = []
        for url, html, text, lang in zip(urls, htmls, texts, langs):
            # row-level containment: a pathological row degrades, never
            # poisons the block (reference fail-soft stance, SURVEY §4)
            # — including a CUSTOM kernel returning a malformed result
            # (missing keys, non-4 bbox), which is validated/coerced
            # inside the same per-row try
            try:
                res = self.kernel_fn(url, html, text, self.config)
                text_v = res["extracted_text"]
                nohf_v = res["extracted_text_nohf"]
                status_v = res["status"]
                if self._trusted_kernel:
                    spans_v = res["spans"]
                else:
                    spans_v = [
                        {
                            "category": str(sp["category"]),
                            "bbox": [int(sp["bbox"][0]), int(sp["bbox"][1]),
                                     int(sp["bbox"][2]), int(sp["bbox"][3])],
                            "char_start": int(sp["char_start"]),
                            "char_end": int(sp["char_end"]),
                            "text": str(sp["text"]),
                        }
                        for sp in res["spans"]
                        if len(sp["bbox"]) == 4
                    ]
            except Exception:
                text_v, nohf_v, status_v, spans_v = "", "", "failed", []
            out["url"].append(url)
            out["lang"].append(lang or "")
            out["extracted_text"].append(text_v)
            out["extracted_text_nohf"].append(nohf_v)
            out["status"].append(status_v)
            out["n_spans"].append(len(spans_v))
            out["bytes_in"].append(len(html) if html is not None else 0)
            out["partition_id"].append(url_partition_id(url, self.num_partitions))
            for s in spans_v:
                f_cat.append(s["category"])
                f_bbox.extend(s["bbox"])
                f_start.append(s["char_start"])
                f_end.append(s["char_end"])
                f_text.append(s["text"])
            span_offsets.append(len(f_cat))

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
            pa.array(out["url"], type=pa.string()),
            pa.array(out["lang"], type=pa.string()),
            pa.array(out["extracted_text"], type=pa.string()),
            pa.array(out["extracted_text_nohf"], type=pa.string()),
            spans_arr,
            pa.array(out["status"], type=pa.string()),
            pa.array(out["n_spans"], type=pa.int32()),
            pa.array(out["bytes_in"], type=pa.int64()),
            pa.array(out["partition_id"], type=pa.int32()),
        ]
        result = pa.Table.from_arrays(arrays, schema=RESULT_SCHEMA)
        # carry pass-through key columns (e.g. doc_id for SQL-checked
        # pipelines) that aren't part of RESULT_SCHEMA
        for name in batch.column_names:
            if name not in RESULT_SCHEMA.names and name not in ("html", "text", "warc_ts"):
                result = result.append_column(name, batch.column(name))
        return result
