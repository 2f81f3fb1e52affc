"""Unit tests for the HTML segmentation + per-row extraction kernel."""

import pytest

from dots_ocr_ray.kernel.extract import (
    MODE_GROUNDING,
    MODE_LAYOUT_ONLY,
    MODE_TEXT_ONLY,
    ExtractConfig,
    extract_page,
)
from dots_ocr_ray.kernel.html_parse import prune_boilerplate, segment_html, strip_tags

HTML = b"""<html><head><title>t</title><style>p{}</style></head><body>
<nav class="nav"><a href="/">Home</a><a href="/b">B</a></nav>
<div class="cookie"><p>We use cookies.</p></div>
<header class="page-header">Site header</header>
<h1>My Title</h1>
<h2>Intro</h2>
<p>First paragraph with words.</p>
<ul><li>Item one</li><li>Item two</li></ul>
<table><tr><td>a</td><td>b</td></tr></table>
<math>x^2</math>
<img src="x.png" alt="A picture">
<figcaption>The caption</figcaption>
<small class="footnote">A footnote</small>
<footer class="page-footer">The footer</footer>
</body></html>"""


def test_segment_categories_and_order():
    spans = prune_boilerplate(segment_html(HTML.decode()))
    cats = [s["category"] for s in spans]
    assert cats == [
        "Page-header",
        "Title",
        "Section-header",
        "Text",
        "List-item",
        "List-item",
        "Table",
        "Formula",
        "Picture",
        "Caption",
        "Footnote",
        "Page-footer",
    ]
    # nav link farm and cookie banner pruned
    assert not any("cookie" in (s["text"] or "").lower() for s in spans)
    table = [s for s in spans if s["category"] == "Table"][0]
    assert table["text"].startswith("<table>") and "</table>" in table["text"]


def test_extract_finished_and_nohf():
    out = extract_page("u", HTML, "naive text")
    assert out["status"] == "finished"
    assert out["extracted_text"].startswith("Site header\n\nMy Title\n\nIntro")
    assert out["extracted_text"].endswith("The footer")
    assert "Site header" not in out["extracted_text_nohf"]
    assert "The footer" not in out["extracted_text_nohf"]
    # char offsets agree with the serialized text
    for s in out["spans"]:
        seg = out["extracted_text"][s["char_start"] : s["char_end"]]
        if s["category"] == "Formula":
            assert s["text"].strip() and s["text"].strip() in seg
        elif s["category"] != "Picture":
            assert seg == s["text"].strip() or seg.startswith(s["text"].strip()[:10])


def test_fallback_to_tag_strip():
    # no block structure at all → tier-2 whole-page strip
    out = extract_page("u", b"just bare words, no tags at all?")
    assert out["status"] == "fallback"
    assert out["extracted_text"] == "just bare words, no tags at all?"
    assert len(out["spans"]) == 1 and out["spans"][0]["category"] == "Text"


def test_fallback_to_text_column():
    out = extract_page("u", b"<script>var x=1;</script>", "crawler text here")
    assert out["status"] == "fallback"
    assert out["extracted_text"] == "crawler text here"


def test_failed_row():
    out = extract_page("u", b"", "")
    assert out["status"] == "failed"
    assert out["extracted_text"] == ""
    assert out["spans"] == []


def test_truncated_html_never_raises():
    truncated = HTML[: len(HTML) * 2 // 3].rsplit(b"<", 1)[0] + b"<p>trunc"
    out = extract_page("u", truncated, "fallback")
    assert out["status"] in ("finished", "fallback")
    assert "My Title" in out["extracted_text"]


def test_repeated_blocks_trip_pair_dedup():
    dup = b"<p>Repeated boiler line.</p>" * 6
    page = b"<html><body><h1>T</h1>" + dup + b"</body></html>"
    out = extract_page("u", page)
    repeats = [s for s in out["spans"] if s["text"] == "Repeated boiler line."]
    assert len(repeats) == 1  # >=5 identical pairs → first kept


def test_text_only_mode():
    out = extract_page("u", HTML, config=ExtractConfig(mode=MODE_TEXT_ONLY))
    assert len(out["spans"]) == 1
    assert "My Title" in out["extracted_text"]
    assert "cookies" in out["extracted_text"]  # no boilerplate pruning in raw strip


def test_layout_only_mode():
    out = extract_page("u", HTML, config=ExtractConfig(mode=MODE_LAYOUT_ONLY))
    assert all(s["text"] == "" for s in out["spans"])
    assert len(out["spans"]) >= 10


def test_grounding_mode_filters_by_bbox():
    full = extract_page("u", HTML)
    # pick the Title span's bbox as the grounding region
    title = [s for s in full["spans"] if s["category"] == "Title"][0]
    cfg = ExtractConfig(mode=MODE_GROUNDING, grounding_bbox=tuple(title["bbox"]))
    out = extract_page("u", HTML, config=cfg)
    assert any(s["category"] == "Title" for s in out["spans"])
    assert len(out["spans"]) < len(full["spans"])


def test_describe_pictures_uses_alt():
    out = extract_page("u", HTML, config=ExtractConfig(describe_pictures=True))
    pic = [s for s in out["spans"] if s["category"] == "Picture"][0]
    assert pic["text"] == "A picture"


def test_strip_tags_entities():
    assert strip_tags("<p>a &amp; b</p>") == "a & b"


def test_extra_blocklist_config():
    page = b'<html><body><h1>T</h1><div class="weirdo"><p>custom boiler</p></div><p>real body</p></body></html>'
    base = extract_page("u", page)
    assert "custom boiler" in base["extracted_text"]
    cfg = ExtractConfig(extra_blocklist=("weirdo",))
    out = extract_page("u", page, config=cfg)
    assert "custom boiler" not in out["extracted_text"]
    assert "real body" in out["extracted_text"]


def test_extract_links_kernel():
    """Anchor scan: absolute resolution, entity unescape, nested-tag
    strip, href quote styles, damage tolerance."""
    from dots_ocr_ray.kernel.html_parse import extract_links

    html = (
        '<a href="/rel">Rel</a>'
        "<a href='https://abs.example/x'>Abs</a>"
        "<a href=bare.html>Bare <b>bold</b> &amp; tail</a>"
        '<a href="">empty href</a>'
        "<a>no href</a>"
        '<a href="/broken">never closed'
    )
    links = extract_links("https://h.example/dir/page", html)
    assert [l["href"] for l in links] == [
        "https://h.example/rel",
        "https://abs.example/x",
        "https://h.example/dir/bare.html",
    ]
    assert links[2]["anchor"] == "Bare bold & tail"
    assert extract_links("https://h.example/", "") == []
    assert extract_links("https://h.example/", "plain text no tags") == []


def test_extract_table_cells_basic_and_hostile():
    from dots_ocr_ray.kernel.html_parse import extract_table_cells

    cells = extract_table_cells(
        "<table><tr><td>a</td><th>b &amp; c</th></tr><tr><td>d</td></tr></table>"
        "<p>x</p><table><tr><td>second</td></tr></table>"
    )
    assert cells == [
        {"table_idx": 0, "row_idx": 0, "col_idx": 0, "cell": "a"},
        {"table_idx": 0, "row_idx": 0, "col_idx": 1, "cell": "b & c"},
        {"table_idx": 0, "row_idx": 1, "col_idx": 0, "cell": "d"},
        {"table_idx": 1, "row_idx": 0, "col_idx": 0, "cell": "second"},
    ]
    # nested table folds into the enclosing cell; inline markup is
    # transparent
    nested = extract_table_cells(
        "<table><tr><td><b>x</b> <table><tr><td>in</td></tr></table> y</td></tr></table>"
    )
    assert nested == [{"table_idx": 0, "row_idx": 0, "col_idx": 0, "cell": "x in y"}]
    # never raises, never emits from no-table / damaged input
    assert extract_table_cells("") == []
    assert extract_table_cells(None) == []
    assert extract_table_cells("<p>plain</p>") == []
    assert extract_table_cells("<table><tr><td>unclosed") == []
    # a boilerplate-dropped region cannot leak cells
    assert (
        extract_table_cells('<div class="nav"><table><tr><td>menu</td></tr></table></div>')
        == []
    )
    # cell before any <tr> lands in row 0
    assert extract_table_cells("<table><td>stray</td></table>") == [
        {"table_idx": 0, "row_idx": 0, "col_idx": 0, "cell": "stray"}
    ]
    # leaf blocks inside cells are cell text (the scanner replays them
    # tag by tag inside a table)
    assert extract_table_cells(
        "<table><tr><td><p>a</p></td><td><p>b &amp; c</p></td></tr>"
        "<tr><th><h2>h</h2></th></tr></table><p>after</p>"
    ) == [
        {"table_idx": 0, "row_idx": 0, "col_idx": 0, "cell": "a"},
        {"table_idx": 0, "row_idx": 0, "col_idx": 1, "cell": "b & c"},
        {"table_idx": 0, "row_idx": 1, "col_idx": 0, "cell": "h"},
    ]


def test_fixture_table_rule_roundtrip():
    from dots_ocr_ray.fixtures import (
        TABLE_COLS,
        TABLE_MOD,
        TABLE_REM,
        TABLE_ROWS,
        fixture_table_html,
        page_row_from_document,
    )
    from dots_ocr_ray.kernel.html_parse import extract_table_cells

    doc_id = TABLE_REM + TABLE_MOD * 3  # normal doc matching the rule
    page = page_row_from_document(doc_id, "body", "en", with_tables=True)
    cells = extract_table_cells(page["html"].decode())
    assert len(cells) == TABLE_ROWS * TABLE_COLS
    for rec in cells:
        r, c = rec["row_idx"], rec["col_idx"]
        assert rec["cell"] == f"r{r}c{c}-{(doc_id * (r * TABLE_COLS + c + 1)) % 97}"
    # default pages carry no table (existing extraction oracles intact)
    plain = page_row_from_document(doc_id, "body", "en")
    assert b"<table>" not in plain["html"]
    assert fixture_table_html(doc_id).count("<td>") == TABLE_ROWS * TABLE_COLS


def test_extract_table_cells_empty_row_advances_index():
    from dots_ocr_ray.kernel.html_parse import extract_table_cells

    cells = extract_table_cells(
        "<table><tr><td>a</td></tr><tr></tr><tr><td>b</td></tr></table>"
    )
    assert cells == [
        {"table_idx": 0, "row_idx": 0, "col_idx": 0, "cell": "a"},
        {"table_idx": 0, "row_idx": 2, "col_idx": 0, "cell": "b"},
    ]


def test_sniff_charset_precedence_and_aliases():
    """Simplified WHATWG encoding sniff: BOM beats meta, meta beats
    default, labels normalize, never raises."""
    from dots_ocr_ray.kernel.html_parse import sniff_charset

    assert sniff_charset(b"\xef\xbb\xbf<meta charset='gbk'>") == "utf-8"  # BOM wins
    assert sniff_charset(b"\xff\xfex\x00") == "utf-16-le"
    assert sniff_charset(b"\xfe\xffx\x00") == "utf-16-be"
    assert sniff_charset(b'<META CHARSET="Latin1">') == "iso-8859-1"
    assert (
        sniff_charset(b'<meta http-equiv="Content-Type" content="text/html; charset=UTF8">')
        == "utf-8"
    )
    # declaration past the scan window is ignored (spec prescan limit)
    far = b"<html>" + b" " * 2000 + b'<meta charset="gbk">'
    assert sniff_charset(far) == "utf-8"
    assert sniff_charset(b"") == "utf-8"
    assert sniff_charset(None) == "utf-8"


# The scanner takes an attribute-less lowercase <p>, <li> or <h1>-<h6>
# whose text holds no '<' in one token.  Each case's spans are the ones
# the tag-by-tag scan gives; the fast path must not change one of them.
_LEAF_CASES = {
    # dropped subtree: the block is replayed as a plain open tag
    "in_nav": (
        "<h2>T</h2><nav><p>x</p></nav><p>y</p>",
        [("Section-header", [0, 1, 1, 2], "T", 0.0), ("Text", [29, 1, 30, 2], "y", 0.0)],
    ),
    "in_table": (
        "<table><tr><td><p>x</p></td></tr></table>",
        [("Table", [0, 1, 49, 2], "<table> <tr> <td> <p> x </p> </td> </tr> </table>", 0.0)],
    ),
    # inside an unclosed <a> every char of the block is a link char
    "in_link": (
        "<li>a <a href=#><p>xy</p></li>",
        [("List-item", [0, 1, 1, 2], "a", 0.0), ("Text", [16, 1, 18, 2], "xy", 1.0)],
    ),
    "after_unclosed_h2": (
        "<h2>Head<p>x</p>",
        [("Section-header", [0, 1, 4, 2], "Head", 0.0), ("Text", [8, 1, 9, 2], "x", 0.0)],
    ),
    "entity": ("<p>a &amp; b</p>", [("Text", [0, 1, 5, 2], "a & b", 0.0)]),
    # not fast-path tokens: upper case, a space in the close tag, another close tag
    "upper_case": ("<P>x</P>", [("Text", [0, 1, 1, 2], "x", 0.0)]),
    "space_in_close": ("<p>x</p >", [("Text", [0, 1, 1, 2], "x", 0.0)]),
    "other_close": ("<p>x</li>", [("Text", [0, 1, 1, 2], "x", 0.0)]),
    "empty": ("<p></p><p>y</p>", [("Text", [0, 1, 1, 2], "", 0.0), ("Text", [7, 1, 8, 2], "y", 0.0)]),
}


@pytest.mark.parametrize("case", sorted(_LEAF_CASES))
def test_scan_leaf_block_spans(case):
    html, expected = _LEAF_CASES[case]
    got = [(s["category"], s["bbox"], s["text"], s["link_density"]) for s in segment_html(html)]
    assert got == expected


def test_scan_leaf_block_is_one_token():
    from dots_ocr_ray.kernel.html_parse import _TOKEN_RE

    assert _TOKEN_RE.match("<p>a &amp; b</p>").span() == (0, 16)
    assert _TOKEN_RE.match("<h3>x</h3>").span() == (0, 10)
    for html in ("<P>x</P>", "<p>x</p >", "<p>x</li>", "<p>a<b>c</b></p>", '<p class="c">x</p>'):
        assert _TOKEN_RE.match(html).group(1) is None, html
