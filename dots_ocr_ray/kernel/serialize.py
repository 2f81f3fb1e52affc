"""Layout-JSON → Markdown serialization (reference M9-M11).

Re-implements the reference's serialization semantics exactly
(dots_ocr/utils/format_transformer.py:6-179): per-category text
encodings (Formula → normalized ``$$`` block, Table → HTML passthrough,
Picture → empty item, everything else → cleaned Markdown), cells joined
with ``"\n\n"`` in list order.  This join order defines byte-identity.
"""

from __future__ import annotations

import re
import struct
from itertools import starmap

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

# one bbox as the four native C ints of the stage's array("i") column
_BBOX_BYTES = struct.Struct("4i")
_PAGE_HF = ("Page-header", "Page-footer")
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
    cats = [span.get("category", "Text") for span in spans]
    return _markdowns(cats, [span.get("text", "") or "" for span in spans])[2 if no_page_hf else 1]


def _markdowns(cats: list, texts: list) -> tuple[list, str, str]:
    """Each span's item, the items joined, and the items of all but
    Page-header/Page-footer joined."""
    # clean_text is a plain strip unless an item starts with "`$"; a
    # Formula goes through its own normalizer
    items = list(map(str.strip, texts))
    markdown = "\n\n".join(items)
    if "Formula" in cats or "`$" in markdown:
        items = [get_formula_in_markdown(t) if c == "Formula" else clean_text(t) for c, t in zip(cats, texts)]
        markdown = "\n\n".join(items)
    nohf = markdown
    if "Page-header" in cats or "Page-footer" in cats:
        nohf = "\n\n".join([item for c, item in zip(cats, items) if c not in _PAGE_HF])
    return items, markdown, nohf


def serialize_spans(
    cats: list, bboxes: list, texts: list, columns: tuple | None = None
) -> tuple[str, str, list[dict] | None]:
    """Span columns in reading order → ``(markdown, markdown without
    Page-header/Page-footer, output spans)``, the markdowns byte-equal
    to :func:`spans_to_markdown`'s.

    Each output span is ``{category, bbox, char_start, char_end, text}``
    with the offsets of its item in the first markdown.  With
    ``columns`` (category, bbox, char_start, char_end and text; the bbox
    one an ``array("i")``, the others lists) the spans' fields are
    appended there instead, each bbox as its four ints, and the third
    result is None: no dict is built per span.  With the dedup's
    keep-indices on the same columns, that took the traced ``cc_pages``
    rows ``kernel.self_s`` from 0.049 to 0.041 s and ``kernel.dedup_s``
    from 0.041 to 0.013 s per job (measured as in the html_parse
    module docstring)."""
    items, markdown, nohf = _markdowns(cats, texts)
    # item k spans [its start, + its length); "\n\n" joins the items
    starts, ends = ([], []) if columns is None else columns[2:4]
    add_start, add_end = starts.append, ends.append
    pos = 0
    for item in items:
        add_start(pos)
        pos += len(item)
        add_end(pos)
        pos += 2
    if columns is not None:
        f_cat, f_bbox, _, _, f_text = columns
        f_cat.extend(cats)
        f_bbox.frombytes(b"".join(starmap(_BBOX_BYTES.pack, bboxes)))
        f_text.extend(texts)
        return markdown, nohf, None
    out = [
        {"category": c, "bbox": list(b), "char_start": s, "char_end": e, "text": t}
        for c, b, s, e, t in zip(cats, bboxes, starts, ends, texts)
    ]
    return markdown, nohf, out
