"""``html_parse.strip_tags`` (the fallback extractor) runs in linear time
on hostile input and keeps the output of its two plain regex passes.

The plain passes are quadratic: every ``<`` with no later ``>`` scans to
the end of the page, and every ``<script``/``<style`` open tag with no
later close does the same.  A quadratic scan misses the budget below by
minutes at 1 MB, so host noise does not matter."""

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
