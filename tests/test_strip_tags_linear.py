"""The kernel's entry points run in linear time on hostile input and
keep the output of their plain regex scans: ``strip_tags`` (the fallback
extractor), ``extract_page`` in every mode and ``extract_table_cells``
(the token scan), and ``extract_links`` (the anchor scan).

The plain scans are quadratic: every ``<`` with no later ``>`` scans to
the end of the page, every ``<script``/``<style`` open tag with no later
close does the same, and so does every ``<a`` with no later ``</a>`` or
no ``>``.  A quadratic scan misses the budget below by minutes at 1 MB,
so host noise does not matter."""

import random
import re
import time

import pytest

from dots_ocr_ray.kernel.html_parse import strip_tags
from tag_soup import TAG_SOUP_TOKENS, make_tag_soup

# the pre-linear implementation, kept verbatim as the oracle
_OLD_TAG = re.compile(r"<[^>]*>")
_OLD_SCRIPT = re.compile(r"<(script|style)\b[^>]*>.*?</\1\s*>", re.IGNORECASE | re.DOTALL)
_OLD_ENTITY = re.compile(r"&(amp|lt|gt|quot|#39|nbsp);")
_OLD_MAP = {"amp": "&", "lt": "<", "gt": ">", "quot": '"', "#39": "'", "nbsp": " "}


def _old_strip_tags(html_text: str) -> str:
    text = _OLD_TAG.sub(" ", _OLD_SCRIPT.sub(" ", html_text))
    text = _OLD_ENTITY.sub(lambda m: _OLD_MAP[m.group(1)], text)
    return re.sub(r"\s+", " ", text).strip()


MB = 1 << 20
FAMILIES = {
    "lone_lt": "<" * MB,
    "script_then_lt": "<script>" + "a<b" * (MB // 3),
    "open_scripts": "<script>" * (MB // 8),
    "open_styles_one_script_close": "<style x" * (MB // 8) + "</script>",
    "unterminated_open_tags": "<script " * (MB // 8) + "</script>",
}


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_strip_tags_1mb_budget(family):
    page = FAMILIES[family]
    t0 = time.perf_counter()
    strip_tags(page)
    assert time.perf_counter() - t0 <= 2.0, family


def _soup_with_raw_text(rng: random.Random, n_tokens: int) -> str:
    extra = (
        "<script>", "</script>", "</SCRIPT >", "<style>", "</style>", "<STYLE a=1>",
        "</script", "<scriptx>", "<ſcript>", "</ſcript>", "<scrıpt>", ">", "<",
    )
    pool = TAG_SOUP_TOKENS + extra
    return "".join(rng.choice(pool) for _ in range(n_tokens))


def test_strip_tags_lockstep_with_plain_regexes():
    docs = make_tag_soup(300, seed=42)
    rng = random.Random(7)
    docs += [_soup_with_raw_text(rng, rng.randint(0, 60)) for _ in range(3000)]
    alphabet = "<>/ascriptstyleSCRIPT ſı\n"
    docs += ["".join(rng.choice(alphabet) for _ in range(rng.randint(0, 40))) for _ in range(5000)]
    for doc in docs:
        assert strip_tags(doc) == _old_strip_tags(doc), doc


# ---------------------------------------------------------------------------
# the other kernel entry points: extract_page (its token scan),
# extract_links (its anchor scan) and extract_table_cells (the token scan)

from dots_ocr_ray.kernel.extract import (  # noqa: E402
    MODE_GROUNDING,
    MODE_LAYOUT_ONLY,
    MODE_PARSE_ALL,
    MODE_TEXT_ONLY,
    ExtractConfig,
    extract_page,
)
from dots_ocr_ray.kernel.html_parse import (  # noqa: E402
    _ANCHOR_RE,
    _TOKEN_RE,
    _anchor_matches,
    extract_links,
    extract_table_cells,
)


def _rep(token: str) -> str:
    return token * (MB // len(token))


KERNEL_FAMILIES = {
    **FAMILIES,
    "tag_without_gt": "<p>hello</p>" + _rep("<a x"),
    "unclosed_anchors": _rep('<a href="u">t'),
    "anchor_opens_one_close": _rep("<a ") + "</a>",
    "href_quotes_one_close": _rep('<a href="') + "</a>",
    "href_without_value": _rep("<a href") + ">x</a>",
    "lt_inside_anchor": "<a href=x>" + _rep("<") + "</a>",
    # tag-soup tokens that open a construct, repeated to 1 MB
    **{
        f"soup{i}": _rep(tok)
        for i, tok in enumerate(
            (
                "</", "<!--", "<style>", "<table>", '<a href="/x">', "<div data-x='>'>",
                '<p title="a > b">', "<nav>", "<td>", "a<b", "<3", "<table><tr><td>x",
            )
        )
    },
}

ENTRY_POINTS = {
    **{
        f"extract_page_{mode}": (lambda page, mode=mode: extract_page("http://x/", page, config=ExtractConfig(mode=mode)))
        for mode in (MODE_PARSE_ALL, MODE_LAYOUT_ONLY, MODE_TEXT_ONLY, MODE_GROUNDING)
    },
    "extract_links": lambda page: extract_links("http://x/", page),
    "extract_table_cells": extract_table_cells,
}


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
@pytest.mark.parametrize("family", sorted(KERNEL_FAMILIES))
def test_kernel_1mb_budget(family, entry):
    page = KERNEL_FAMILIES[family]
    t0 = time.perf_counter()
    ENTRY_POINTS[entry](page)
    assert time.perf_counter() - t0 <= 2.0, (family, entry)


def _old_extract_links(url: str, html_text: str) -> list:
    import html as html_mod
    from urllib.parse import urljoin

    out = []
    for m in _ANCHOR_RE.finditer(html_text):
        href = html_mod.unescape((m.group(1) or m.group(2) or m.group(3) or "").strip())
        if not href:
            continue
        try:
            absolute = urljoin(url, href)
        except ValueError:
            continue
        anchor = html_mod.unescape(_OLD_TAG.sub(" ", m.group(4)))
        out.append({"href": absolute, "anchor": re.sub(r"\s+", " ", anchor).strip()})
    return out


def _lockstep_docs() -> list:
    docs = make_tag_soup(300, seed=42)
    rng = random.Random(11)
    pool = TAG_SOUP_TOKENS + ("<a ", "<A HREF", "href", " href = ", '"', "'", ">", "</a>", "</A>", "</a", "=x")
    docs += ["".join(rng.choice(pool) for _ in range(rng.randint(0, 40))) for _ in range(3000)]
    alphabet = "<>/aAhref=\"' x\n"
    docs += ["".join(rng.choice(alphabet) for _ in range(rng.randint(0, 40))) for _ in range(8000)]
    return docs


def test_bounded_scans_lockstep_with_plain_regexes():
    for doc in _lockstep_docs():
        want = [(m.span(), m.groups()) for m in _ANCHOR_RE.finditer(doc)]
        assert [(m.span(), m.groups()) for m in _anchor_matches(doc)] == want, doc
        assert extract_links("http://x/a/", doc) == _old_extract_links("http://x/a/", doc), doc
        tokens = [m.span() for m in _TOKEN_RE.finditer(doc)]
        assert [m.span() for m in _TOKEN_RE.finditer(doc, 0, doc.rfind(">") + 1)] == tokens, doc
