"""Golden-snapshot guard: the kernel's exact behavior on seeded corpora,
pinned as corpus-level md5 hashes of both markdown columns, the full
spans (category, bbox, offsets, text) and the statuses.

The byte-identity tests prove Ray == oracle, but both share the kernel
— a kernel behavior change would pass them silently.  These hashes make
any such change EXPLICIT: if you intentionally change extraction
semantics, update the constants in the same commit and say why.
"""

import json

import pytest

from dots_ocr_ray.fixtures import make_mega_page, make_pages_table
from dots_ocr_ray.kernel.extract import ExtractConfig, extract_page
from dots_ocr_ray.kernel.textops import md5_hex
from dots_ocr_ray.oracle import oracle_extract
from tag_soup import make_tag_soup

GOLDEN_TEXT_MD5 = "a1b243d4fd7a9d972249cdef80154d42"
GOLDEN_NOHF_MD5 = "d4815a699132077ea0b0c95969901e30"
GOLDEN_SPANS_MD5 = "56df3620612f846b54f16c84983806b8"
GOLDEN_STATUS_MD5 = "0267fa98f5686a0f9b553b563aea3b0e"

GOLDEN = {
    "cc_pages": "2e328722aeed8e11791fd79c01f545ab",
    "mega_page": "b1ac37d79e3e7f4e06a577b21b1b9325",
    "tag_soup": "f7872bbfb5aa60fe504929df9951f868",
    "tag_soup_config": "c6defd8b12c0a0c4a32d37623bbc8a47",
}


def _hashes(results: list[dict]) -> dict:
    return {
        "text": md5_hex("\x00".join(r["extracted_text"] for r in results)),
        "nohf": md5_hex("\x00".join(r["extracted_text_nohf"] for r in results)),
        "spans": md5_hex("\x00".join(json.dumps(r["spans"], sort_keys=True) for r in results)),
        "status": md5_hex(",".join(r["status"] for r in results)),
    }


def _digest(results: list[dict]) -> str:
    return md5_hex(json.dumps(_hashes(results), sort_keys=True))


def _oracle_results(pages) -> list[dict]:
    res = oracle_extract(pages)
    return [res[u] for u in sorted(res)]


def test_golden_corpus_hashes():
    h = _hashes(_oracle_results(make_pages_table(64, seed=42)))
    assert h == {
        "text": GOLDEN_TEXT_MD5,
        "nohf": GOLDEN_NOHF_MD5,
        "spans": GOLDEN_SPANS_MD5,
        "status": GOLDEN_STATUS_MD5,
    }


def test_golden_cc_pages_hashes():
    # the benchmark's Common-Crawl-sized pages (~6 KB each)
    assert _digest(_oracle_results(make_pages_table(64, seed=42, scale=12))) == GOLDEN["cc_pages"]


def test_golden_mega_page_hashes():
    page = make_mega_page(seed=42)
    assert _digest([extract_page(page["url"], page["html"], page["text"])]) == GOLDEN["mega_page"]


def test_golden_tag_soup_hashes():
    docs = make_tag_soup(300, seed=42)
    plain = [extract_page(f"https://soup.test/{i}", d) for i, d in enumerate(docs)]
    assert _digest(plain) == GOLDEN["tag_soup"]
    config = ExtractConfig(extra_blocklist=("lead",), describe_pictures=True, rebuild_directory=True)
    configured = [extract_page(f"https://soup.test/{i}", d, None, config) for i, d in enumerate(docs)]
    assert _digest(configured) == GOLDEN["tag_soup_config"]


# every mode on its own, so a change that only one mode sees is caught
MODES = {
    "text_only": ExtractConfig(mode="text_only"),
    "layout_only": ExtractConfig(mode="layout_only"),
    "grounding": ExtractConfig(mode="grounding", grounding_bbox=(0, 0, 10_000, 30)),
    "describe_pictures": ExtractConfig(describe_pictures=True),
    "rebuild_directory": ExtractConfig(rebuild_directory=True),
    "extra_blocklist": ExtractConfig(extra_blocklist=("lead", "page-header")),
}

GOLDEN_MODES = {
    "cc_pages/text_only": "e8b1475056cb26049eff37b18b2fbb1e",
    "mega_page/text_only": "4d971ec31de79b0f26447bbe183e4fe7",
    "tag_soup/text_only": "0b0e78b84d24c11b8b2db324174c01da",
    "cc_pages/layout_only": "df2b4c6aa3ab4b4b7894ff326c5dec11",
    "mega_page/layout_only": "89c4582bb7befb936aa1d8792a1377b2",
    "tag_soup/layout_only": "ec7f48e9224ceba93da97de8ef7ed4e7",
    "cc_pages/grounding": "e69fc8429ee9738a2a10d1ab662fbd9a",
    "mega_page/grounding": "9e07ca6aa262a9599eedea6c18f8a227",
    "tag_soup/grounding": "382c0f116565669ba285359c94336ac5",
    "cc_pages/describe_pictures": "084465fc9b84d5a7e8fd7adb72cdae30",
    "mega_page/describe_pictures": "b1ac37d79e3e7f4e06a577b21b1b9325",
    "tag_soup/describe_pictures": "2aacac5938376ce0f6ab9362b37461f4",
    "cc_pages/rebuild_directory": "23df634641c030d2bb859fb1ed968f03",
    "mega_page/rebuild_directory": "160beb6121fdd76a72483ca3767a549d",
    "tag_soup/rebuild_directory": "557f3e41f4f165516639adf5411ca192",
    "cc_pages/extra_blocklist": "afa582285073e142c9749076f37926be",
    "mega_page/extra_blocklist": "b1ac37d79e3e7f4e06a577b21b1b9325",
    "tag_soup/extra_blocklist": "7e1e1edea89ca63b6e2183ba2b176f41",
}


def _mode_rows(corpus: str) -> list[tuple]:
    """(url, html, text) of each page of a golden corpus."""
    if corpus == "cc_pages":
        return [(p["url"], p["html"], p["text"]) for p in make_pages_table(64, seed=42, scale=12).to_pylist()]
    if corpus == "mega_page":
        page = make_mega_page(seed=42)
        return [(page["url"], page["html"], page["text"])]
    return [(f"https://soup.test/{i}", d, None) for i, d in enumerate(make_tag_soup(300, seed=42))]


@pytest.mark.parametrize("key", sorted(GOLDEN_MODES))
def test_golden_mode_hashes(key):
    corpus, mode = key.split("/")
    config = MODES[mode]
    results = [extract_page(url, html, text, config) for url, html, text in _mode_rows(corpus)]
    assert _digest(results) == GOLDEN_MODES[key]
