"""Golden-snapshot guard: the kernel's exact behavior on seeded corpora,
pinned as corpus-level md5 hashes of both markdown columns, the full
spans (category, bbox, offsets, text) and the statuses.

The byte-identity tests prove Ray == oracle, but both share the kernel
— a kernel behavior change would pass them silently.  These hashes make
any such change EXPLICIT: if you intentionally change extraction
semantics, update the constants in the same commit and say why.
"""

import json

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
