"""Layout-JSON → Markdown serialization (reference M9-M11).

Re-implements the reference's serialization semantics exactly
(dots_ocr/utils/format_transformer.py:6-179): per-category text
encodings (Formula → normalized ``$$`` block, Table → HTML passthrough,
Picture → empty item, everything else → cleaned Markdown), cells joined
with ``"\n\n"`` in list order.  This join order defines byte-identity.
"""

from __future__ import annotations

import re

_LATEX_PATTERNS = [
    re.compile(r"\$\$.*?\$\$", re.DOTALL),
    re.compile(r"\$[^$\n]+?\$", re.DOTALL),
    re.compile(r"\\begin\{.*?\}.*?\\end\{.*?\}", re.DOTALL),
    re.compile(r"\\[a-zA-Z]+\{.*?\}", re.DOTALL),
    re.compile(r"\\[a-zA-Z]+"),
    re.compile(r"\\\[.*?\\\]", re.DOTALL),
    re.compile(r"\\\(.*?\\\)", re.DOTALL),
]

_PREAMBLE_PATTERNS = [
    re.compile(r"\\documentclass\{[^}]+\}", re.IGNORECASE),
    re.compile(r"\\usepackage\{[^}]+\}", re.IGNORECASE),
    re.compile(r"\\usepackage\[[^\]]*\]\{[^}]+\}", re.IGNORECASE),
    re.compile(r"\\begin\{document\}", re.IGNORECASE),
    re.compile(r"\\end\{document\}", re.IGNORECASE),
]

_INLINE_FORMULA = re.compile(r"\$([^$]+)\$")
_BRACKET_DISPLAY = re.compile(r".*\\\[.*\\\].*")


def has_latex_markdown(text: str) -> bool:
    """LaTeX markup detector (reference format_transformer.py:6-35: same
    seven patterns)."""
    if not isinstance(text, str):
        return False
    return any(p.search(text) for p in _LATEX_PATTERNS)


def clean_latex_preamble(latex_text: str) -> str:
    """Strip \\documentclass / \\usepackage / document env markers
    (reference format_transformer.py:38-62)."""
    for p in _PREAMBLE_PATTERNS:
        latex_text = p.sub("", latex_text)
    return latex_text


def get_formula_in_markdown(text: str) -> str:
    """Normalize a formula into a ``$$\\n...\\n$$`` block (reference
    format_transformer.py:65-115, decision ladder preserved)."""
    text = text.strip()
    if text.startswith("$$") and text.endswith("$$"):
        inner = text[2:-2].strip()
        if "$" not in inner:
            return f"$$\n{inner}\n$$"
        return text
    if text.startswith("\\[") and text.endswith("\\]"):
        inner = text[2:-2].strip()
        return f"$$\n{inner}\n$$"
    if _BRACKET_DISPLAY.findall(text):
        return text
    if _INLINE_FORMULA.findall(text):
        return text
    if not has_latex_markdown(text):
        return text
    if "usepackage" in text:
        text = clean_latex_preamble(text)
    if text and text[0] == "`" and text[-1] == "`":
        text = text[1:-1]
    return f"$$\n{text}\n$$"


def clean_text(text: str) -> str:
    """Strip whitespace; unwrap `` `$...$` `` (reference
    format_transformer.py:118-138)."""
    text = text.strip()
    if text[:2] == "`$" and text[-2:] == "$`":
        text = text[1:-1]
    return text


def spans_to_markdown(spans: list[dict], no_page_hf: bool = False) -> str:
    """Serialize spans (reading order) to Markdown.

    Mirrors ``layoutjson2md`` (reference format_transformer.py:141-179)
    including its subtleties: with ``no_page_hf`` the Page-header /
    Page-footer cells are skipped entirely; Picture cells contribute
    their (possibly empty) text through the plain-text branch — an empty
    Picture adds an empty item, so the ``"\n\n"`` join reproduces the
    reference byte-for-byte.
    """
    items: list[str] = []
    for span in spans:
        text = span.get("text", "") or ""
        category = span.get("category", "Text")
        if no_page_hf and category in ("Page-header", "Page-footer"):
            continue
        elif category == "Formula":
            items.append(get_formula_in_markdown(text))
        else:
            items.append(clean_text(text))
    return "\n\n".join(items)


def serialize_spans(spans: list[dict], columns: tuple[list, ...] | None = None) -> tuple[str, str, list[dict] | None]:
    """One walk over spans in reading order → ``(markdown, markdown
    without Page-header/Page-footer, output spans)``.

    The two markdowns are byte-equal to :func:`spans_to_markdown` with
    and without ``no_page_hf``; each output span is ``{category, bbox,
    char_start, char_end, text}`` with the offsets of its item in the
    first markdown.  The bbox list is passed through, not copied.  With
    ``columns`` (five lists, one per field in that order) each span's
    fields are appended there instead, the bbox as its four ints, and
    the third result is None."""
    items: list[str] = []
    nohf: list[str] = []
    out = [] if columns is None else None
    cats, bboxes, starts, ends, texts = columns or ((),) * 5
    pos = 0
    for span in spans:
        text = span.get("text", "") or ""
        category = span.get("category", "Text")
        item = get_formula_in_markdown(text) if category == "Formula" else clean_text(text)
        items.append(item)
        if category not in ("Page-header", "Page-footer"):
            nohf.append(item)
        end = pos + len(item)
        if out is None:
            cats.append(category)
            bboxes.extend(span["bbox"])
            starts.append(pos)
            ends.append(end)
            texts.append(text)
        else:
            out.append({"category": category, "bbox": span["bbox"], "char_start": pos, "char_end": end, "text": text})
        pos = end + 2  # the "\n\n" joiner
    return "\n\n".join(items), "\n\n".join(nohf), out
