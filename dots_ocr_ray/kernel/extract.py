"""The per-row extraction kernel (reference M6 ``post_process_output``
chain re-grounded on HTML pages).

One call = one page: html bytes → category-labeled spans in reading
order → markdown — with the reference's degradation ladder
(layout_utils.py:206-262 + inference.py:221-253):

  tier 1  structured parse: segment → prune boilerplate → span dedup
          (D1/D2 thresholds) → heading rebuild (J1) → serialize;
          status="finished".
  tier 2  fallback: whole-page tag-strip (the prompt_ocr analog) or the
          crawler ``text`` column, wrapped as ONE full-page Text span —
          exactly how the reference wraps its OCR fallback
          (inference.py:245-253); status="fallback".
  tier 3  nothing extractable: empty outputs, status="failed".

Never raises; row count is preserved by construction.  Pure and
deterministic — the distributed pipeline and the single-process oracle
both call :func:`extract_page`.

The benchmark's traced run (``perfbench/spans.py``) times each kernel
phase by replacing a name in this module's globals.  The phases pass
span columns (parallel lists: category, bbox tuple, text, ...), not a
dict per block, and :func:`extract_page` must keep calling
``segment_html``, ``prune_boilerplate`` (once per page with html each),
``remove_duplicate_pairs_and_bboxes`` and ``strip_tags`` through those
globals.  The stage must keep calling ``extract_page`` through
``stages.extract_stage``'s globals, once per row, with its flat span
columns as ``columns``; a dict per span is built only without them (the
oracle's API).  ``tests/test_trace_hooks.py`` fails when one is renamed
or bypassed.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress

from dots_ocr_ray.kernel.cleaner import remove_duplicate_pairs_and_bboxes
from dots_ocr_ray.kernel.headings import rebuild_directory_by_toc
from dots_ocr_ray.kernel.html_parse import prune_boilerplate, segment_html, strip_tags
from dots_ocr_ray.kernel.serialize import serialize_spans
from dots_ocr_ray.kernel.textops import fold_newlines

STATUS_FINISHED = "finished"
STATUS_FALLBACK = "fallback"
STATUS_FAILED = "failed"

# The four operating modes (reference prompt modes, prompts.py:1-34 /
# M3): full parse, layout detection only, plain text only, and
# bbox-scoped grounding.
MODE_PARSE_ALL = "parse_all"
MODE_LAYOUT_ONLY = "layout_only"
MODE_TEXT_ONLY = "text_only"
MODE_GROUNDING = "grounding"


@dataclass(frozen=True)
class ExtractConfig:
    mode: str = MODE_PARSE_ALL
    # reference flag describe_picture (job_executor_pool.py:78): fill
    # Picture span text from alt text (the A2 stand-in).
    describe_pictures: bool = False
    # reference flag rebuild_directory (job_executor_pool.py:79): J1
    # heading-level rebuild against the page's own <h*> outline.
    rebuild_directory: bool = False
    # grounding-mode region: blocks whose bbox intersects it are kept.
    grounding_bbox: tuple[int, int, int, int] | None = None
    # per-run blocklist extension (e.g. per-domain boilerplate classes,
    # the broadcast-config seam of SURVEY §2.4 J1); compiled once per
    # worker process
    extra_blocklist: tuple[str, ...] = ()


def _decode_html(html: bytes | str | None) -> str:
    if html is None:
        return ""
    if isinstance(html, bytes):
        # utf-8-sig strips a BOM when present; errors never raise
        return html.decode("utf-8-sig", errors="replace")
    return html.lstrip("﻿")


def extract_page(
    url: str,
    html: bytes | str | None,
    text: str | None = None,
    config: ExtractConfig = ExtractConfig(),
    *,
    columns: tuple[list, ...] | None = None,
) -> dict:
    """Extract one page.  Returns
    ``{url, extracted_text, extracted_text_nohf, spans, status}`` where
    spans carry char_start/char_end offsets into ``extracted_text``.

    With ``columns`` (five lists: category, bbox ints, char_start,
    char_end, text) each span's fields are appended there instead and
    ``spans`` is None (:func:`~dots_ocr_ray.kernel.serialize.serialize_spans`)."""
    html_text = _decode_html(html)
    has_html = bool(html_text.strip())
    spans = None  # (categories, bboxes, texts)
    status = STATUS_FINISHED

    if config.mode == MODE_TEXT_ONLY:
        # prompt_ocr analog: whole-page text, no layout.
        page_text = strip_tags(html_text) if has_html else fold_newlines(text or "")
        if page_text:
            spans = _full_page_span(page_text)
        else:
            status = STATUS_FAILED
    else:
        content = None
        if has_html:
            try:
                content = segment_html(html_text, config.extra_blocklist)
                content = prune_boilerplate(content, config.extra_blocklist)
            except Exception:
                content = None
        if content and config.mode == MODE_GROUNDING and config.grounding_bbox is not None:
            g = config.grounding_bbox
            keep = [not (b[2] <= g[0] or g[2] <= b[0] or b[3] <= g[1] or g[3] <= b[1]) for b in content[1]]
            content = tuple(list(compress(col, keep)) for col in content)
        if content and content[0]:
            spans = _finalize_spans(content, config)
        else:
            # tier 2: fallback ladder (inference.py:235-253 analog).
            fallback_text = strip_tags(html_text)
            if not fallback_text:
                fallback_text = fold_newlines(text or "")
            if fallback_text:
                spans = _full_page_span(fallback_text)
                status = STATUS_FALLBACK
            else:
                status = STATUS_FAILED

    cats, bboxes, texts = spans or ([], [], [])
    if config.mode == MODE_LAYOUT_ONLY:
        # detection-only mode: keep categories/bboxes, blank the text
        # (prompt_layout_only_en analog).
        texts = [""] * len(texts)

    extracted, extracted_nohf, out_spans = serialize_spans(cats, bboxes, texts, columns)
    return {
        "url": url,
        "extracted_text": extracted,
        "extracted_text_nohf": extracted_nohf,
        "spans": out_spans,
        "status": status,
    }


def _full_page_span(page_text: str) -> tuple[list, list, list]:
    """One whole-page Text span — how the reference wraps its fallback
    result (inference.py:245-253: single cell covering the page)."""
    return ["Text"], [(0, 0, max(1, len(page_text)), 1)], [page_text]


def _finalize_spans(content: tuple[list, ...], config: ExtractConfig) -> tuple[list, list, list]:
    """Tier-1 span post-processing in the reference's order
    (post_process_output, layout_utils.py:206-262): dedup → heading
    rebuild; order preserved throughout."""
    cats, bboxes, texts, _, _, alts = content
    if config.describe_pictures:
        texts = [alt if alt and cat == "Picture" else t for cat, t, alt in zip(cats, texts, alts)]
    # D1/D2 repetition dedup with the reference thresholds (≥5 identical
    # (category,text) pairs; ≥2 identical bboxes).
    keep = remove_duplicate_pairs_and_bboxes(cats, texts, bboxes)
    if len(keep) < len(cats):
        cats, bboxes, texts = ([col[i] for i in keep] for col in (cats, bboxes, texts))
    if config.rebuild_directory:
        try:
            rebuild_directory_by_toc(cats, bboxes, texts, _outline_from_spans(cats, bboxes, texts))
        except Exception:
            pass  # reference continues on rebuild errors (layout_utils.py:258-260)
    return cats, bboxes, texts


def _outline_from_spans(cats: list, bboxes: list, texts: list) -> list[dict]:
    """The HTML analog of the PDF TOC (pdf_extractor.py:94-121): the
    document's own heading outline.  Title → level 1, Section-header →
    level 2."""
    return [
        {"level": 1 if cat == "Title" else 2, "text": text, "to": [bbox[0], bbox[1]]}
        for cat, bbox, text in zip(cats, bboxes, texts)
        if cat == "Title" or cat == "Section-header"
    ]
