"""Unit tests for the heading-level rebuild (reference J1 semantics,
directory_entry.py:15-215)."""

from hypothesis import given, settings
from hypothesis import strategies as st

from dots_ocr_ray.kernel.headings import (
    HEADER_CATEGORIES,
    SectionHeader,
    indel_ratio,
    lcs_length,
    rebuild_directory_by_toc,
)


def _rebuild(spans, toc):
    """rebuild_directory_by_toc over the spans' columns, its rewrites
    copied back into the span dicts."""
    cats = [s["category"] for s in spans]
    texts = [s["text"] for s in spans]
    rebuild_directory_by_toc(cats, [s["bbox"] for s in spans], texts, toc)
    for s, cat, text in zip(spans, cats, texts):
        s["category"], s["text"] = cat, text


def _table_indel_ratio(a: str, b: str) -> float:
    """The InDel ratio from a full LCS table, one row at a time: the
    reference for the bit-parallel LCS."""
    if not a and not b:
        return 100.0
    if not a or not b:
        return 0.0
    prev = [0] * (len(b) + 1)
    for ca in a:
        cur = [0]
        for j, cb in enumerate(b):
            if ca == cb:
                cur.append(prev[j] + 1)
            else:
                cur.append(max(prev[j + 1], cur[-1]))
        prev = cur
    return 200.0 * prev[-1] / (len(a) + len(b))


def test_level_extraction_rules():
    assert SectionHeader("Anything", "Title", [0, 0, 1, 1]).level == 0
    assert SectionHeader("## Two", "Section-header", [0, 0, 1, 1]).level == 2
    assert SectionHeader("**Bold**", "Section-header", [0, 0, 1, 1]).level == 7
    assert SectionHeader("Bare", "Section-header", [0, 0, 1, 1]).level == 8
    assert SectionHeader("# One", "List-item", [0, 0, 1, 1]).level == 11
    assert SectionHeader("Bare", "List-item", [0, 0, 1, 1]).level == 18


def test_clean_text_strips_markdown():
    h = SectionHeader("### My Header", "Section-header", [0, 0, 1, 1])
    assert h.clean_text == "My Header"
    h2 = SectionHeader("**Bold Head**", "Section-header", [0, 0, 1, 1])
    assert h2.clean_text == "Bold Head"


def test_indel_ratio():
    assert indel_ratio("abc", "abc") == 100.0
    assert indel_ratio("abc", "xyz") == 0.0
    assert 0 < indel_ratio("header one", "header two") < 100


def test_calc_dist_fuzzy_gate():
    h = SectionHeader("1.2 Introduction", "Section-header", [10, 10, 100, 20])
    # numeric prefix stripped before fuzzy match
    assert h.calc_dist({"text": "Introduction", "to": [50, 15]}) == 0.0
    assert h.calc_dist({"text": "Completely Different", "to": [50, 15]}) == float("inf")
    # outside the bbox → euclidean distance
    d = h.calc_dist({"text": "Introduction", "to": [10, 40]})
    assert d == 20.0


def test_rebuild_matched_header_gets_toc_level():
    spans = [
        {"category": "Section-header", "bbox": [0, 10, 100, 20], "text": "Overview"},
        {"category": "Text", "bbox": [0, 30, 100, 40], "text": "body"},
    ]
    toc = [{"level": 2, "text": "Overview", "to": [5, 15]}]
    _rebuild(spans, toc)
    assert spans[0]["text"] == "## Overview"
    assert spans[1]["text"] == "body"  # non-headers untouched


def test_rebuild_unmatched_releveled_with_max5_floor():
    spans = [
        {"category": "Section-header", "bbox": [0, 10, 100, 20], "text": "Matched"},
        {"category": "Section-header", "bbox": [0, 30, 100, 40], "text": "Unmatched"},
        {"category": "List-item", "bbox": [0, 50, 100, 60], "text": "item"},
    ]
    toc = [{"level": 1, "text": "Matched", "to": [5, 15]}]
    _rebuild(spans, toc)
    # matched → level 1 → "# " + title rewrite
    assert spans[0]["text"] == "# Matched"
    # unmatched Section-header: max_level=max(5,1)=5; rank 0 → level 6
    assert spans[1]["text"] == "###### Unmatched"
    # List-item → level 8 → bare text
    assert spans[2]["text"] == "item"
    assert spans[2]["category"] == "List-item"


def test_rebuild_level7_bold_rewrite():
    spans = [
        {"category": "Section-header", "bbox": [0, 0, 10, 10], "text": "A"},
        {"category": "Section-header", "bbox": [0, 20, 10, 30], "text": "B"},
    ]
    toc = [
        {"level": 6, "text": "A", "to": [5, 5]},
    ]
    _rebuild(spans, toc)
    assert spans[0]["text"] == "###### A"
    # unmatched: max_level=6, rank 0 → min(8, 6+1)=7 → bold rewrite
    assert spans[1]["text"] == "**B**"


# short alphabets force repeated characters; the unicode one mixes
# BMP and astral code points
_HEADING_TEXT = st.one_of(
    st.text(alphabet="ab", max_size=40),
    st.text(alphabet="aé€😀 ", max_size=40),
    st.text(max_size=80),
)


@settings(max_examples=500, deadline=None)
@given(_HEADING_TEXT, _HEADING_TEXT)
def test_indel_ratio_matches_lcs_table(a, b):
    assert indel_ratio(a, b) == _table_indel_ratio(a, b)
    assert lcs_length(a, b) == lcs_length(b, a)


def test_indel_ratio_edge_strings():
    for a, b in [("", ""), ("", "x"), ("aaaa", "aa"), ("x" * 300, "x" * 200), ("😀é", "é😀é"), ("abc", "cba")]:
        assert indel_ratio(a, b) == _table_indel_ratio(a, b), (a, b)


def _all_pairs_rebuild(spans, toc):
    """The reference's all-pairs rebuild (directory_entry.py:180-215):
    each entry takes the strict argmin of ``calc_dist`` over every
    header.  Returns the headers' (category, text) after the rewrite."""
    headers = [SectionHeader(s["text"], s["category"], s["bbox"]) for s in spans if s["category"] in HEADER_CATEGORIES]
    max_level = 0
    for entry in toc:
        closest, min_dist = None, float("inf")
        for h in headers:
            d = h.calc_dist(entry)
            if d < min_dist:
                closest, min_dist = h, d
        if closest is not None:
            closest.new_level = entry["level"]
            max_level = max(max_level, entry["level"])
    max_level = max(5, max_level)
    level_set = sorted({h.level for h in headers if h.new_level is None})
    for h in headers:
        if h.new_level is None:
            if h.category == "List-item":
                h.new_level = 8
            else:
                h.new_level = min(8, max_level + level_set.index(h.level) + 1)
        h.reset_text_and_update()
    return [(h.category, h.text) for h in headers]


# few distinct texts and a small grid force gate ties and distance ties
_SPAN = st.fixed_dictionaries(
    {
        "category": st.sampled_from(["Title", "Section-header", "List-item", "Text"]),
        "bbox": st.tuples(st.integers(0, 4), st.integers(0, 4), st.integers(0, 4), st.integers(0, 4)).map(
            lambda b: [min(b[0], b[2]), min(b[1], b[3]), max(b[0], b[2]) + 1, max(b[1], b[3]) + 1]
        ),
        "text": st.sampled_from(["Intro", "## Intro", "1.2 Intro", "**Setup**", "Setup", "Results", "x", ""]),
    }
)
_ENTRY = st.fixed_dictionaries(
    {
        "level": st.integers(1, 6),
        "text": st.sampled_from(["Intro", "Setup", "Result", "zzz", ""]),
        "to": st.tuples(st.integers(-1, 6), st.integers(-1, 6)).map(list),
    }
)


@settings(max_examples=300, deadline=None)
@given(st.lists(_SPAN, max_size=8), st.lists(_ENTRY, max_size=6))
def test_rebuild_matches_all_pairs_argmin(spans, toc):
    at = [i for i, s in enumerate(spans) if s["category"] in HEADER_CATEGORIES]
    want = _all_pairs_rebuild(spans, toc)
    _rebuild(spans, toc)
    assert [(spans[i]["category"], spans[i]["text"]) for i in at] == want
