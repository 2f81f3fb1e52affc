"""Heading-level rebuild from a document outline (reference J1/O3/O4).

Re-implements ``SectionHeader`` / ``DirectoryStructure``
(dots_ocr/utils/directory_entry.py:15-215) with the same rules:

* level extraction: Title→0; ``#``-depth 1-6; ``**bold**``→7; bare→8;
  List-item→10+tt; other→20+tt (directory_entry.py:36-54).
* TOC matching: fuzzy-text gate (ratio<40 → ∞) then point-to-bbox
  euclidean distance; argmin over headers (directory_entry.py:100-122,
  188-199).
* unmatched headers re-leveled by rank with ``max_level = max(5, ·)``,
  List-item→8, cap 8 (directory_entry.py:203-215).
* text rewrite: level 1→``# `` + category "title"; 7→``**…**``; 8→bare
  List-item; else ``#``*level (directory_entry.py:62-90).

The fuzzy ratio is the InDel similarity (rapidfuzz ``fuzz.ratio``
definition: ``2*LCS/(len_a+len_b)*100``), implemented here directly with
a bit-parallel LCS, as rapidfuzz computes it, so the kernel stays
dependency-free and deterministic.  Each TOC entry tries the headers
nearest first and stops at the first that passes the gate, so a page
costs about one LCS per entry, not one per (entry, header) pair.
"""

from __future__ import annotations

import re

_HASH_PREFIX = re.compile(r"^(#{1,6})\s+")
_BOLD = re.compile(r"\*\*(.*?)\*\*")
_BOLD_WRAP = re.compile(r"^\*\*(.*?)\*\*$")
_NUM_PREFIX = re.compile(r"^[\d\.\s]+")

HEADER_CATEGORIES = ("Title", "Section-header", "List-item")


def lcs_length(a: str, b: str) -> int:
    """Longest-common-subsequence length, bit-parallel (Allison-Dix
    1986, Hyyrö 2004): a bit mask per character of the shorter string,
    one big-int step per character of the longer; each zero bit of ``v``
    is one LCS character."""
    if len(a) < len(b):
        a, b = b, a
    masks: dict[str, int] = {}
    for i, ch in enumerate(b):
        masks[ch] = masks.get(ch, 0) | 1 << i
    v = full = (1 << len(b)) - 1
    for ch in a:
        if u := v & masks.get(ch, 0):
            v = ((v + u) | (v - u)) & full
    return len(b) - v.bit_count()


def indel_ratio(a: str, b: str) -> float:
    """InDel similarity in [0,100]: 2*LCS(a,b)/(|a|+|b|)*100 — the
    definition of rapidfuzz ``fuzz.ratio``."""
    if not a and not b:
        return 100.0
    return 200.0 * lcs_length(a, b) / (len(a) + len(b))


class SectionHeader:
    """One heading candidate (directory_entry.py:15-97)."""

    def __init__(self, text: str, category: str, bbox, level: int | None = None):
        self.text = text
        self.category = category
        self.bbox = bbox
        self.level = level if level is not None else self._extract_level_from_text()
        self.new_level: int | None = None
        self.clean_text = self._clean_text()
        # the text the fuzzy gate compares: numbering and edge punctuation cut
        self.gate_text = _NUM_PREFIX.sub("", self.clean_text).strip(" .\t\n")

    def _extract_level_from_text(self) -> int:
        if self.category == "Title":
            return 0
        hash_match = _HASH_PREFIX.match(self.text)
        bold_match = _BOLD.search(self.text)
        tt = 8
        if hash_match:
            tt = len(hash_match.group(1))
        elif bold_match:
            tt = 7
        if self.category == "Section-header":
            return tt
        elif self.category == "List-item":
            return 10 + tt
        return 20 + tt

    def _clean_text(self) -> str:
        self.text = _HASH_PREFIX.sub("", self.text)
        self.text = _BOLD_WRAP.sub(r"\1", self.text.strip())
        return self.text

    def matches(self, text: str) -> bool:
        """The fuzzy gate (directory_entry.py:100-122): InDel ratio ≥ 40."""
        a = self.gate_text
        # the ratio is at most 200*min/(la+lb): below the gate, skip the LCS
        return 200 * min(len(a), len(text)) >= 40 * (len(a) + len(text)) and indel_ratio(a, text) >= 40

    def calc_dist(self, entry: dict) -> float:
        """Fuzzy gate then point-to-bbox distance
        (directory_entry.py:100-122)."""
        if not self.matches(entry["text"]):
            return float("inf")
        x, y = entry["to"][0], entry["to"][1]
        x1, y1, x2, y2 = self.bbox
        if x1 <= x <= x2 and y1 <= y <= y2:
            return 0.0
        dx = max(x1 - x, 0, x - x2)
        dy = max(y1 - y, 0, y - y2)
        return (dx**2 + dy**2) ** 0.5

    def reset_text_and_update(self) -> None:
        """Rewrite text/category from new_level (directory_entry.py:62-90)."""
        if self.new_level is None:
            return
        formatted = []
        for line in self.clean_text.split("\n"):
            if not line:
                continue
            if self.new_level == 1:
                self.category = "title"
                formatted.append("# " + line)
            elif self.new_level == 7:
                self.category = "Section-header"
                formatted.append("**" + line + "**")
            elif self.new_level == 8:
                self.category = "List-item"
                formatted.append(line)
            else:
                self.category = "Section-header"
                formatted.append("#" * self.new_level + " " + line)
        self.text = "\n".join(formatted)


def rebuild_directory_by_toc(cats: list, bboxes: list, texts: list, toc: list[dict]) -> None:
    """Adjust heading levels of Title/Section-header/List-item spans to a
    TOC/outline, rewriting the ``cats`` and ``texts`` columns in place
    (directory_entry.py:180-215 semantics, including the
    ``max_level = max(5, ·)`` floor and the cap at 8).

    ``toc`` entries are ``{"level": int, "text": str, "to": [x, y]}`` —
    for HTML the outline comes from the document's own ``<h*>`` tags, the
    analog of the PDF TOC (SURVEY.md §2.4 J1).
    """
    at = [i for i, cat in enumerate(cats) if cat in HEADER_CATEGORIES]
    headers = [SectionHeader(texts[i], cats[i], bboxes[i]) for i in at]
    if not headers:
        return
    boxes = [h.bbox for h in headers]
    max_level = 0
    for entry in toc:
        # calc_dist's argmin (directory_entry.py:188-199), first on a tie:
        # the headers nearest first until one passes the fuzzy gate, by
        # calc_dist's distance for an ordered bbox (x1 <= x2, y1 <= y2)
        x, y = entry["to"][0], entry["to"][1]
        dist = [
            (
                (x1 - x if x < x1 else x - x2 if x > x2 else 0) ** 2
                + (y1 - y if y < y1 else y - y2 if y > y2 else 0) ** 2
            )
            ** 0.5
            for x1, y1, x2, y2 in boxes
        ]
        for i in sorted(range(len(dist)), key=dist.__getitem__):
            if headers[i].matches(entry["text"]):
                headers[i].new_level = entry["level"]
                max_level = max(max_level, entry["level"])
                break
    max_level = max(5, max_level)
    level_set = sorted({h.level for h in headers if h.new_level is None})
    for h in headers:
        if h.new_level is None:
            if h.category == "List-item" or max_level == 0:
                h.new_level = 8
            else:
                h.new_level = min(8, max_level + level_set.index(h.level) + 1)
    for i, h in zip(at, headers):
        h.reset_text_and_update()
        texts[i], cats[i] = h.text, h.category
