"""Site-level template-block stripping: Ray pipeline vs a sequential
reference over the same per-page kernel, at every exchange tier."""

import math

import pyarrow as pa
import pytest

import ray.data

from dots_ocr_ray.fixtures import make_pages_table
from dots_ocr_ray.pipelines.template import _page_blocks, template_block_strip

N_ROWS = 160
MIN_PAGES = 3
MIN_FRAC = 60


def _sequential_reference(tbl: pa.Table) -> dict:
    """Pure-Python replay of the frequency rule, keyed by raw
    (host, category, text) tuples (no hashing at all) — any hash or
    exchange corruption in the pipeline diverges from this."""
    pages = list(zip(tbl.column("url").to_pylist(), tbl.column("html").to_pylist()))
    counts: dict = {}
    host_pages: dict = {}
    per_page = {}
    for url, html in pages:
        host, blocks = _page_blocks(url, html)
        per_page[url] = (host, blocks)
        if blocks:
            host_pages[host] = host_pages.get(host, 0) + 1
            for key in {(host, c, t) for c, t in blocks}:
                counts[key] = counts.get(key, 0) + 1
    frequent = {
        k
        for k, n in counts.items()
        if n >= MIN_PAGES and 100 * n >= MIN_FRAC * host_pages[k[0]]
    }
    expect = {}
    for url, (host, blocks) in per_page.items():
        kept = [t for c, t in blocks if (host, c, t) not in frequent]
        expect[url] = ("\n".join(kept), len(kept), len(blocks) - len(kept))
    return expect


@pytest.fixture(scope="module")
def corpus():
    tbl = make_pages_table(N_ROWS, seed=7)
    return tbl, _sequential_reference(tbl)


def _check(result: ray.data.Dataset, tbl: pa.Table, expect: dict):
    rows = result.take_all()
    assert len(rows) == tbl.num_rows  # every page survives, even empty ones
    stripped_something = 0
    for r in rows:
        want_text, want_kept, want_dropped = expect[r["url"]]
        assert r["text_clean"] == want_text, r["url"]
        assert r["n_kept"] == want_kept
        assert r["n_dropped"] == want_dropped
        stripped_something += bool(want_dropped)
    # the fixture's per-host chrome (site header / copyright footer)
    # must actually trip the rule, or the test proves nothing
    assert stripped_something >= N_ROWS // 4


def test_broadcast_tier(ray_session, corpus):
    tbl, expect = corpus
    ds = ray.data.from_arrow(tbl).map_batches(lambda b: b, batch_format="pyarrow")
    out = template_block_strip(
        ds, min_pages=MIN_PAGES, min_frac_pct=MIN_FRAC
    )
    _check(out, tbl, expect)


def test_distributed_tiers(ray_session, corpus, exchange_tier):
    """Forcing ``util.broadcast_fits`` to False takes the host
    hash_join tier AND the explode → anti-join → reassemble strip tier;
    full-range 64-bit gid/key hashes must survive both exchanges."""
    tbl, expect = corpus
    ds = ray.data.from_arrow(tbl).map_batches(lambda b: b, batch_format="pyarrow")
    exchange_tier()
    out = template_block_strip(ds, min_pages=MIN_PAGES, min_frac_pct=MIN_FRAC)
    _check(out, tbl, expect)


def test_threshold_is_integer_exact(ray_session):
    """A block on exactly ceil(60% · host_pages) pages is stripped; one
    fewer is kept — the integer-arithmetic boundary both engines share."""
    host_pages = 5  # 60% of 5 → needs ≥3 distinct pages
    need = math.ceil(MIN_FRAC * host_pages / 100)
    rows = []
    for i in range(host_pages):
        chrome = '<footer class="page-footer">chrome</footer>' if i < need else ""
        html = f"<html><body><h1>U{i}</h1><p>body {i} unique words</p>{chrome}</body></html>"
        rows.append((f"https://t.example.com/p{i}", html.encode()))
    tbl = pa.table(
        {
            "url": pa.array([r[0] for r in rows]),
            "html": pa.array([r[1] for r in rows], type=pa.binary()),
        }
    )
    out = template_block_strip(
        ray.data.from_arrow(tbl), min_pages=MIN_PAGES, min_frac_pct=MIN_FRAC
    ).take_all()
    by_url = {r["url"]: r for r in out}
    for i in range(need):
        assert by_url[f"https://t.example.com/p{i}"]["n_dropped"] == 1
    # drop ONE chrome page → 2 of 5 < both floors → everything kept
    tbl2 = tbl.slice(1)
    out2 = template_block_strip(
        ray.data.from_arrow(tbl2), min_pages=MIN_PAGES, min_frac_pct=MIN_FRAC
    ).take_all()
    assert all(r["n_dropped"] == 0 for r in out2)
