"""DOM-lite HTML block segmentation (the reference's layout-detection
analog, SURVEY.md §2.3 A3).

The reference segments a page image into category-labeled blocks with a
layout model (dots_ocr/model/layout_service.py:12-181) and aligns the
model's labels onto the fixed 11-category schema
(layout_service.py:44-57).  Here the "page" is an HTML document: a
single-pass regex tag scanner segments it into blocks, maps
tags/classes onto the same 11 categories, and applies
trafilatura-style boilerplate pruning (tag/class blocklists,
link-density).  The scanner is hand-rolled (not stdlib
``html.parser``) because this loop dominates extraction CPU at corpus
scale.  It is one loop over one token regex with no per-block objects
or closures, and it reads attributes, self-closing slashes and entities
only when a decision needs them.  A plain leaf block (an attribute-less
lowercase ``<p>``, ``<li>`` or ``<h1>``-``<h6>`` whose text holds no
``<``) is one token: open tag, text and close tag in one loop turn.
Blocks leave as six parallel span columns, not one dict per block:
on the benchmark's traced ``cc_pages`` job (``python3 perfbench/run.py
--trace 1``, seeds 7-9, Ray on 1 CPU of a shared VM, medians of 3
parent/change pairs) that took ``kernel.segment_html_s`` from 0.186 to
0.150 s per job and ``kernel.prune_boilerplate_s`` from 0.013 to 0.009 s.

Determinism: pure function of the input string; tolerant of
unclosed/truncated/malformed markup (a lone ``<`` is text, an unclosed
tag at EOF is dropped), mirroring the reference's repair-don't-crash
stance (output_cleaner.py).
"""

from __future__ import annotations

import functools
import html as html_mod
import re
from itertools import compress

from dots_ocr_ray.kernel.textops import fold_newlines

# Tag → category alignment (the M17 analog of layout_service.py:44-57).
TAG_CATEGORY = {
    "h1": "Title",
    "h2": "Section-header",
    "h3": "Section-header",
    "h4": "Section-header",
    "h5": "Section-header",
    "h6": "Section-header",
    "p": "Text",
    "blockquote": "Text",
    "pre": "Formula",  # code/display blocks serialize as formula-ish blocks
    "li": "List-item",
    "figcaption": "Caption",
    "header": "Page-header",
    "footer": "Page-footer",
    "math": "Formula",
}

# Subtrees that never contain main content — dropped outright.
DROP_TAGS = frozenset(
    ["script", "style", "nav", "aside", "noscript", "template", "iframe", "form", "button", "select", "svg"]
)
# script/style/template content is raw text (no nested markup parsing)
_RAWTEXT_TAGS = frozenset(["script", "style", "template"])
# precompiled case-insensitive close-tag finders: locating </script> must
# not lowercase the whole document per tag (O(n*tags) on script-heavy
# pages); a regex search from pos keeps offsets exact even for unicode
# whose str.lower() changes length
_RAWTEXT_CLOSE_RE = {t: re.compile(f"</{t}", re.IGNORECASE) for t in _RAWTEXT_TAGS}

# Class/id substrings marking boilerplate containers
# (trafilatura-style blocklist; FIXTURES.md §2).
BLOCKLIST_RE = re.compile(
    r"(?:^|[\s_-])(nav|menu|ads?|advert\w*|cookie|share|social|related|sidebar|banner|promo|breadcrumb|pagination|comment)s?(?:$|[\s_-])",
    re.IGNORECASE,
)

LINK_DENSITY_THRESHOLD = 0.5

_LEAF_TAGS = frozenset(TAG_CATEGORY)
_VOID_TAGS = frozenset(
    ["img", "br", "hr", "meta", "link", "input", "area", "base", "col", "embed", "source", "track", "wbr"]
)

# one token at each '<': a whole attribute-less lowercase leaf block
# whose text holds no '<' (groups: name, text), else a tag (groups:
# closing slash, name, attribute text), else a comment, else a
# declaration / processing instruction; a '<' none of them matches is
# text
_TOKEN_RE = re.compile(
    r"<(?:(p|li|h[1-6])>([^<]*)</\1>|(/?)([a-zA-Z][a-zA-Z0-9]*)((?:[^>'\"]|\"[^\"]*\"|'[^']*')*)>"
    r"|!--.*?-->|![^>]*>|\?[^>]*>)",
    re.DOTALL,
)
_ATTR_RE = re.compile(r"(class|id|alt)\s*=\s*(?:\"([^\"]*)\"|'([^']*)'|([^\s>]+))", re.IGNORECASE)
_HAS_ENTITY = re.compile(r"&[#a-zA-Z]")


def _classes_and_alt(attr_str: str) -> tuple[str, str]:
    """``class`` + ``id`` (space-joined) and ``alt`` of one tag; the
    first occurrence of each attribute wins."""
    low = attr_str.lower()
    if "class" not in low and "id" not in low and "alt" not in low:
        return "", ""
    found: dict[str, str] = {}
    for m in _ATTR_RE.finditer(attr_str):
        found.setdefault(m.group(1).lower(), m.group(2) or m.group(3) or m.group(4) or "")
    return " ".join(v for v in (found.get("class"), found.get("id")) if v), found.get("alt", "")


def _decode_text(raw: str) -> str:
    return html_mod.unescape(raw) if "&" in raw and _HAS_ENTITY.search(raw) else raw


@functools.lru_cache(maxsize=64)
def _extra_blocklist_re(classes: tuple[str, ...]):
    """Compile-once seam for per-run blocklist extensions (the warm
    per-worker state the reference holds in lazy singletons, A3/A4);
    cached per process so the kernel stays pure and cheap per row."""
    if not classes:
        return None
    joined = "|".join(re.escape(c) for c in classes)
    return re.compile(rf"(?:^|[\s_-])(?:{joined})(?:$|[\s_-])", re.IGNORECASE)


def _scan(html_text: str, extra_re=None) -> list[tuple]:
    """Single pass over the markup, emitting blocks in DOM order (= the
    natural reading order for HTML, the A4 analog).

    A block is ``(category, start_offset, classes, payload, link_chars)``;
    the payload is the raw text pieces, a Table's normalized tag/text
    token list, or a Picture's raw alt text."""
    blocks: list[tuple] = []
    emit = blocks.append
    cat = None  # category of the open block (None: text is dropped)
    start = link = 0
    classes = ""
    parts: list = []
    drop_depth = link_depth = table_depth = 0
    n = len(html_text)
    pos = 0
    search = _TOKEN_RE.search
    # every token ends in '>', so none starts past the last one (a '<'
    # there would otherwise scan to the end of the page, once per '<')
    last_gt = html_text.rfind(">") + 1
    while True:
        m = search(html_text, pos, last_gt)
        lt, end = (n, n) if m is None else m.span()
        if lt > pos and cat is not None and not drop_depth:
            data = html_text[pos:lt]
            if table_depth:
                # the token list keeps each lone '<' as its own token
                for i, piece in enumerate(data.split("<")):
                    if i:
                        parts.append("<")
                    piece = piece.strip()
                    if piece:
                        parts.append(piece)
            else:
                parts.append(data)
                if link_depth:
                    link += len(data)
        if m is None:
            break
        pos = end
        leaf, leaf_text, closing, tag, attr_str = m.groups()
        if leaf is not None:
            if not (drop_depth or table_depth):
                # the open tag, its text and its close in one turn
                if cat is not None:
                    emit((cat, start, classes, parts, link))
                    cat = None
                emit((TAG_CATEGORY[leaf], lt, "", [leaf_text], len(leaf_text) if link_depth else 0))
                continue
            # replayed as the plain open tag; its text and close follow
            pos = lt + len(leaf) + 2
            closing, tag, attr_str = "", leaf, ""
        elif tag is None:  # comment or declaration
            continue
        else:
            tag = tag.lower()

        if closing:
            if drop_depth:
                if tag not in _VOID_TAGS:
                    drop_depth -= 1
            elif table_depth:
                parts.append(f"</{tag}>")
                if tag == "table":
                    table_depth -= 1
                    if not table_depth:
                        emit((cat, start, classes, parts, 0))
                        cat = None
            elif tag == "a":
                if link_depth:
                    link_depth -= 1
            elif cat is not None and (tag in _LEAF_TAGS or tag == "small"):
                emit((cat, start, classes, parts, link))
                cat = None
            continue

        # rawtext elements: skip straight to the closing tag
        if tag in _RAWTEXT_TAGS:
            cm = _RAWTEXT_CLOSE_RE[tag].search(html_text, pos)
            pos = n if cm is None else (html_text.find(">", cm.start()) + 1 or n)
            continue
        if drop_depth:
            if tag not in _VOID_TAGS and not attr_str.rstrip().endswith("/"):
                drop_depth += 1
            continue
        tag_classes, alt = _classes_and_alt(attr_str) if attr_str else ("", "")
        if tag in DROP_TAGS or (
            tag_classes
            and (BLOCKLIST_RE.search(tag_classes) or (extra_re and extra_re.search(tag_classes)))
        ):
            if tag not in _VOID_TAGS and not attr_str.rstrip().endswith("/"):
                drop_depth = 1
            continue
        if table_depth:
            if tag == "table":
                table_depth += 1
            parts.append(f"<{tag}>")
            continue
        if tag == "a":
            link_depth += 1
            continue
        category = TAG_CATEGORY.get(tag)
        if category is not None:
            if tag_classes and "footnote" in tag_classes.lower():
                category = "Footnote"
        elif tag == "small":
            category = "Footnote"
        elif tag == "table":
            category = "Table"
            table_depth = 1
        elif tag == "img":
            if cat is not None:
                emit((cat, start, classes, parts, link))
                cat = None
            emit(("Picture", lt, tag_classes, alt, 0))
            continue
        else:
            continue  # generic containers (div/section/article/ul/ol/...): transparent
        if cat is not None:
            emit((cat, start, classes, parts, link))
        cat, start, classes, link = category, lt, tag_classes, 0
        parts = ["<table>"] if table_depth else []
    if cat is not None:
        emit((cat, start, classes, parts, link))
    return blocks


def segment_html(html_text: str, extra_blocklist: tuple[str, ...] = ()) -> tuple[list, ...]:
    """Segment an HTML document into category-labeled candidate blocks.

    Returns six parallel lists, one entry per block in DOM order:
    category, bbox, text, link density, classes and alt.  bbox is a
    deterministic source-position box ``(col, line, col+len(text),
    line+1)``.  ``extra_blocklist`` extends the boilerplate class
    blocklist per run (compiled once per process).  No pruning here —
    see :func:`prune_boilerplate`.
    """
    try:
        blocks = _scan(html_text, _extra_blocklist_re(extra_blocklist))
    except Exception:
        # guarantee no-raise regardless (repair-don't-crash stance)
        blocks = []
    cats, bboxes, texts, link_density, classes_col, alts = columns = ([], [], [], [], [], [])
    # blocks start in increasing offset order: count the newlines since
    # the previous block for the 1-based line, and keep the last one for
    # the column
    line, last_nl, prev = 1, -1, 0
    count, rfind = html_text.count, html_text.rfind
    for category, start, classes, payload, link in blocks:
        k = count("\n", prev, start)
        if k:
            line += k
            last_nl = rfind("\n", prev, start)
        prev = start
        alt = ""
        ld = 0.0
        if category == "Table":
            text = " ".join(payload)
        elif category == "Picture":
            text = ""
            alt = _decode_text(payload)
        else:
            raw = "".join(payload)
            text = fold_newlines(_decode_text(raw))
            if link:
                ld = link / len(raw)
        col = start - last_nl - 1
        cats.append(category)
        bboxes.append((col, line, col + (len(text) or 1), line + 1))
        texts.append(text)
        link_density.append(ld)
        classes_col.append(classes)
        alts.append(alt)
    return columns


def prune_boilerplate(spans: tuple[list, ...], extra_blocklist: tuple[str, ...] = ()) -> tuple[list, ...]:
    """Trafilatura-style pruning over :func:`segment_html`'s columns:
    blocklisted class/id, high link-density Text/List-item blocks, and
    empty non-Picture blocks are removed.  Order preserved; the columns
    come back unchanged when nothing is removed."""
    cats, _, texts, link_density, classes, _ = spans
    extra_re = _extra_blocklist_re(extra_blocklist)
    keep = [
        not (
            (cls and (BLOCKLIST_RE.search(cls) or (extra_re and extra_re.search(cls))))
            or (ld > LINK_DENSITY_THRESHOLD and cat in ("Text", "List-item"))
            or (cat != "Picture" and not text.strip())
        )
        for cat, text, ld, cls in zip(cats, texts, link_density, classes)
    ]
    if all(keep):
        return spans
    return tuple(list(compress(col, keep)) for col in spans)


_TAG_STRIP_RE = re.compile(r"<[^>]*>")
_SCRIPT_STYLE_RE = re.compile(r"<(script|style)\b[^>]*>.*?</\1\s*>", re.IGNORECASE | re.DOTALL)
_SCRIPT_STYLE_OPEN_RE = re.compile(r"<(script|style)\b", re.IGNORECASE)
_SCRIPT_STYLE_CLOSE_RE = re.compile(r"</(script|style)\s*>", re.IGNORECASE)
_ENTITY_RE = re.compile(r"&(amp|lt|gt|quot|#39|nbsp);")
_ENTITY_MAP = {"amp": "&", "lt": "<", "gt": ">", "quot": '"', "#39": "'", "nbsp": " "}


def strip_tags(html_text: str) -> str:
    """Whole-page tag strip — the fallback extractor (the analog of the
    reference's prompt_ocr whole-page-text fallback,
    dots_ocr/model/inference.py:235-253).

    Linear time, with the output of ``_SCRIPT_STYLE_RE.sub`` then
    ``_TAG_STRIP_RE.sub``: a tag match ends at a ``>``, so the tag pass
    stops at the page's last ``>`` (a bare ``<`` after it would
    otherwise scan to the end, once per ``<``)."""
    text = _sub_tags(_drop_script_style(html_text))
    text = _ENTITY_RE.sub(lambda m: _ENTITY_MAP[m.group(1)], text)
    return re.sub(r"\s+", " ", text).strip()


def _sub_tags(text: str) -> str:
    """``_TAG_STRIP_RE.sub(" ", text)`` in linear time: a tag match ends
    at a ``>``, so the pass stops at the last one."""
    last_gt = text.rfind(">") + 1
    return _TAG_STRIP_RE.sub(" ", text[:last_gt]) + text[last_gt:]


def _drop_script_style(html_text: str) -> str:
    """``_SCRIPT_STYLE_RE.sub(" ", html_text)`` in linear time.

    The plain sub tries every open tag, and one with no close after it
    scans to the end of the page.  Here an open tag is tried only when
    a close tag of its name starts after the open tag's ``>`` (the
    ``[^>]*`` cannot cross one); a match is still the regex's own.  The
    name is told by its length: IGNORECASE matches one character per
    pattern character, so ``script`` is 6 long and ``style`` 5."""
    last_close = {}
    for m in _SCRIPT_STYLE_CLOSE_RE.finditer(html_text):
        last_close[len(m.group(1))] = m.span()
    if not last_close:
        return html_text
    out = []
    pos = search = 0
    gt = -1
    while True:
        m = _SCRIPT_STYLE_OPEN_RE.search(html_text, search)
        if m is None:
            break
        if gt < m.end():
            gt = html_text.find(">", m.end())
            if gt < 0:
                break
        close = last_close.get(len(m.group(1)))
        if close is not None and close[0] > gt:
            hit = _SCRIPT_STYLE_RE.match(html_text, m.start(), close[1])
            if hit:
                out.append(html_text[pos : hit.start()])
                out.append(" ")
                pos = search = hit.end()
                continue
        search = m.start() + 1
    out.append(html_text[pos:])
    return "".join(out)


# ---------------------------------------------------------------------------
# link extraction (crawl-graph construction)

_ANCHOR_RE = re.compile(
    r"<a\b[^>]*?\bhref\s*=\s*(?:\"([^\"]*)\"|'([^']*)'|([^\s>]+))[^>]*>(.*?)</a>",
    re.IGNORECASE | re.DOTALL,
)
_ANCHOR_OPEN_RE = re.compile(r"<a\b", re.IGNORECASE)
_HREF_ATTR_RE = re.compile(r"\bhref\s*=\s*[^\s>]", re.IGNORECASE)


def _anchor_matches(html_text: str):
    """``_ANCHOR_RE.finditer(html_text)`` in linear time.

    The plain finditer tries every ``<a`` and each failure rescans to
    the end of the page: for ``(.*?)</a>`` when no close follows, and
    for the lazy attribute scan before ``href`` when no ``>`` does.  An
    open tag can match only if an ``href=`` with a value starts before
    the tag's first ``>`` and that ``>`` is not the page's last
    ``</a>``'s (a ``</a>`` must follow it).  Both positions only move
    forward, so each is searched once; a match is still the regex's
    own."""
    close = max(html_text.rfind("</a>"), html_text.rfind("</A>"))
    if close < 0:
        return
    end = close + 4
    search = 0
    gt = href = -1
    while True:
        m = _ANCHOR_OPEN_RE.search(html_text, search, close)
        if m is None:
            return
        start = m.start()
        if gt < start + 2:
            gt = html_text.find(">", start + 2, end)
        if href < start + 2:
            h = _HREF_ATTR_RE.search(html_text, start + 2, close)
            href = end if h is None else h.start()
        if href < gt < close:
            hit = _ANCHOR_RE.match(html_text, start, end)
            if hit:
                yield hit
                search = hit.end()
                continue
        search = start + 1


def extract_links(url: str, html_text: str) -> list[dict]:
    """Every <a href> in the page → ``[{"href": <absolute>, "anchor":
    <tag-stripped text>}]`` in document order.  Relative hrefs resolve
    against ``url`` (stdlib urljoin); anchors are entity-unescaped and
    whitespace-collapsed.  Boilerplate links are deliberately KEPT —
    link-graph construction wants the nav edges main-content
    extraction prunes."""
    from urllib.parse import urljoin

    out: list[dict] = []
    for m in _anchor_matches(html_text or ""):
        href = m.group(1) or m.group(2) or m.group(3) or ""
        href = html_mod.unescape(href.strip())
        if not href:
            continue
        try:
            absolute = urljoin(url, href)
        except ValueError:
            continue
        anchor = html_mod.unescape(_sub_tags(m.group(4)))
        anchor = re.sub(r"\s+", " ", anchor).strip()
        out.append({"href": absolute, "anchor": anchor})
    return out


# ---------------------------------------------------------------------------
# DOM structure fingerprinting (template detection)

_STRUCT_TAG_RE = re.compile(r"<\s*([a-zA-Z][a-zA-Z0-9-]*)")


def structure_fingerprint(html_text: str) -> str:
    """16-hex fingerprint of a page's TAG SEQUENCE (element names in
    document order, text ignored) — two pages rendered from the same
    server-side template share it even when their content differs.
    Per-host clusters of equal fingerprints are exactly the boilerplate
    templates a main-content extractor must strip; the rollup over this
    is the data-driven counterpart of the static tag-class blocklists
    in segment_html (trafilatura-style template detection).  Pure
    function shared by the Ray pipeline and the sequential golden
    oracle.  Empty / tagless input → ``"none"``."""
    from dots_ocr_ray.kernel.textops import md5_hex

    tags = _STRUCT_TAG_RE.findall(html_text or "")
    if not tags:
        return "none"
    return md5_hex(" ".join(t.lower() for t in tags))[:16]


_TABLE_TOKEN_TAG_RE = re.compile(r"^</?[a-z][a-z0-9]*>$")


def extract_table_cells(html_text: str) -> list[dict]:
    """Parse every <table> on a page into RELATIONAL cell records
    ``{table_idx, row_idx, col_idx, cell}`` — the structured-data
    complement of the Table category's HTML passthrough (the reference
    serializes Table blocks as raw HTML into markdown,
    dots_ocr/utils/format_transformer.py; this op turns them into rows
    a downstream query can aggregate).

    Runs over the same single-pass scanner as :func:`segment_html`
    (the Table block's normalized tag/text token stream), so
    boilerplate-dropped and rawtext regions can never leak cells.
    Only depth-1 structure counts rows/cells — a nested inner table's
    text folds into the enclosing cell (documented flattening).  A
    cell before any <tr> lands in row 0; inline markup inside a cell
    (<b>, <span>, inner tables) is transparent.  Never raises."""
    try:
        blocks = _scan(html_text or "")
    except Exception:
        return []
    out: list[dict] = []
    t_idx = -1
    for category, _, _, tokens, _ in blocks:
        if category != "Table":
            continue
        t_idx += 1
        depth = 0
        row = -1  # no row open yet; first <tr> (or stray cell) opens row 0
        col = -1
        in_cell = False
        parts: list[str] = []
        for tok in tokens:
            if _TABLE_TOKEN_TAG_RE.match(tok):
                if tok == "<table>":
                    depth += 1
                elif tok == "</table>":
                    depth = max(0, depth - 1)
                elif depth == 1 and tok == "<tr>":
                    if not in_cell:  # malformed <tr> inside an open cell: fold
                        # EVERY <tr> advances the row — an empty/spacer
                        # row still occupies an index
                        row = row + 1 if row >= 0 else 0
                        col = -1
                elif depth == 1 and tok in ("<td>", "<th>"):
                    if not in_cell:
                        in_cell = True
                        if row < 0:
                            row = 0
                        col += 1
                        parts = []
                elif depth == 1 and tok in ("</td>", "</th>"):
                    if in_cell:
                        out.append(
                            {
                                "table_idx": t_idx,
                                "row_idx": row,
                                "col_idx": col,
                                "cell": _decode_text(" ".join(parts)),
                            }
                        )
                    in_cell = False
                # other tags (inline markup) are transparent
            elif in_cell:
                parts.append(tok)
    return out


# ---------------------------------------------------------------------------
# Encoding sniffing (the S4 fetch/normalize seam's charset half)

_META_CHARSET_RE = re.compile(
    rb"""<meta[^>]+charset\s*=\s*["']?\s*([A-Za-z0-9_\-]+)""", re.IGNORECASE
)

_CHARSET_ALIASES = {
    "utf8": "utf-8",
    "latin-1": "iso-8859-1",
    "latin1": "iso-8859-1",
    "cp1251": "windows-1251",
    "gbk": "gb2312",
}


def sniff_charset(raw: bytes, *, scan_limit: int = 1024) -> str:
    """Simplified HTML5 encoding sniffing (the published WHATWG
    algorithm's deterministic core; the reference's universal input
    seam decodes bytes before parsing, doc_utils.py / S4):

    1. byte-order marks win outright (UTF-8 / UTF-16 LE / BE);
    2. else the first ``<meta … charset=…>`` declaration inside the
       first ``scan_limit`` bytes (covers both the HTML5 short form
       and the http-equiv content form, since the charset= token is
       scanned positionally);
    3. else the spec's modern default, ``utf-8``.

    Labels normalize case + common aliases; never raises."""
    raw = bytes(raw or b"")
    if raw[:3] == b"\xef\xbb\xbf":
        return "utf-8"
    if raw[:2] == b"\xff\xfe":
        return "utf-16-le"
    if raw[:2] == b"\xfe\xff":
        return "utf-16-be"
    m = _META_CHARSET_RE.search(raw[:scan_limit])
    if m:
        label = m.group(1).decode("ascii", "replace").strip().lower()
        return _CHARSET_ALIASES.get(label, label)
    return "utf-8"
