"""Second-stage Picture enrichment (reference A2).

The reference fans Picture cells out to a SECOND model pool after
layout parsing (`_describe_pictures_in_page`,
app/utils/executor/ocr_task.py:150-203: crop each Picture cell, call
the describe model, write the result into ``cell["text"]``).  Here the
same two-stage shape: extraction emits rows with Picture spans, then
this stage rewrites those spans' text — with the captioner itself
stubbed behind a deterministic fake (no vision model in this
environment; the seam is the ``caption_fn``).

Because span text changes, the markdown columns are re-serialized from
the updated spans — keeping the extracted_text ↔ spans invariant.
"""

from __future__ import annotations

import hashlib

import pyarrow as pa

from dots_ocr_ray.kernel.serialize import serialize_spans
from dots_ocr_ray.schema import SPAN_TYPE


def fake_caption(payload: str) -> str:
    """Deterministic stand-in for a captioning model: stable pseudo-
    caption derived from the span's identity."""
    h = hashlib.blake2b(payload.encode("utf-8"), digest_size=4).hexdigest()
    return f"[image:{h}]"


DESCRIBE_ALL_CATEGORIES = ("Picture", "Table", "Formula")
"""The reference's extended describe set: with the job-level
describe_picture flag it re-describes Picture AND Table AND Formula
cells (app/utils/executor/ocr_task.py:602-613)."""


class PictureDescribeActor:
    """map_batches stage: rewrite span text via caption_fn for the
    selected categories, then re-serialize the markdown columns.

    Defaults mirror the byte-identity-preserving round-1 behavior
    (Picture spans, fill only when empty).  ``categories=
    DESCRIBE_ALL_CATEGORIES, overwrite=True`` mirrors the reference's
    extended path, where the model's description REPLACES the cell
    text (`picture_block["text"] = future.result().strip()`,
    ocr_task.py:202)."""

    def __init__(self, caption_fn=None, categories=("Picture",), overwrite: bool = False):
        self.caption_fn = caption_fn or fake_caption
        self.categories = frozenset(categories)
        self.overwrite = overwrite

    def __call__(self, batch: pa.Table) -> pa.Table:
        spans_col = batch.column("spans").to_pylist()
        urls = batch.column("url").to_pylist()
        new_spans, new_md, new_nohf = [], [], []
        for url, spans in zip(urls, spans_col):
            spans = spans or []
            cats = [s["category"] for s in spans]
            texts = [s.get("text") or "" for s in spans]
            hits = [
                i for i, (c, t) in enumerate(zip(cats, texts)) if c in self.categories and (self.overwrite or not t)
            ]
            for i in hits:
                texts[i] = self.caption_fn(f"{url}#{i}")
            md = nohf = None
            if hits:
                # the kernel's own serialize step: markdown and offsets
                # can never drift from what extract_page wrote
                md, nohf, spans = serialize_spans(cats, [s["bbox"] for s in spans], texts)
            new_spans.append(spans)
            new_md.append(md)
            new_nohf.append(nohf)

        md_old = batch.column("extracted_text").to_pylist()
        nohf_old = batch.column("extracted_text_nohf").to_pylist()
        md_final = [m if m is not None else o for m, o in zip(new_md, md_old)]
        nohf_final = [m if m is not None else o for m, o in zip(new_nohf, nohf_old)]
        batch = batch.set_column(
            batch.column_names.index("extracted_text"),
            "extracted_text",
            pa.array(md_final, type=pa.string()),
        )
        batch = batch.set_column(
            batch.column_names.index("extracted_text_nohf"),
            "extracted_text_nohf",
            pa.array(nohf_final, type=pa.string()),
        )
        return batch.set_column(
            batch.column_names.index("spans"), "spans", pa.array(new_spans, type=pa.list_(SPAN_TYPE))
        )


def _describe_batch(batch: pa.Table, **kwargs) -> pa.Table:
    return PictureDescribeActor(**kwargs)(batch)


def describe_pictures(
    extracted,
    *,
    batch_size: int = 64,
    caption_fn=None,
    describe_special: bool = False,
):
    """Chain the describe stage after extraction (the reference's
    optional ``describe_picture`` job flag as a pipeline stage), as
    stateless tasks with a per-batch instance — construction is free for
    the deterministic captioner.  A model-backed captioner runs as an
    actor pool by passing :class:`PictureDescribeActor` to
    ``map_batches`` directly.

    ``describe_special=True`` extends the stage to Table and Formula
    spans and overwrites their text with the caption — the reference's
    category=["Picture","Table","Formula"] path (ocr_task.py:602-613).
    """
    kwargs = {"caption_fn": caption_fn}
    if describe_special:
        kwargs.update({"categories": DESCRIBE_ALL_CATEGORIES, "overwrite": True})
    return extracted.map_batches(
        _describe_batch,
        fn_kwargs=kwargs,
        batch_format="pyarrow",
        batch_size=batch_size,
    )
