"""Tests for mega-page routing (skew handling)."""

import pyarrow as pa

import ray.data

from dots_ocr_ray.fixtures import make_mega_page, make_pages_table
from dots_ocr_ray.pipelines.extract import extract_pages
from dots_ocr_ray.stages.oversize import split_oversize, truncate_oversize


def _pages_with_mega(ray_session):
    normal = make_pages_table(16, seed=42)
    mega = pa.Table.from_pylist([make_mega_page()], schema=normal.schema)
    return ray.data.from_arrow(pa.concat_tables([normal, mega]))


def test_split_oversize(ray_session):
    ds = _pages_with_mega(ray_session)
    normal, oversize = split_oversize(ds, max_bytes=1 << 20)
    assert oversize.count() == 1
    assert normal.count() == 16
    # oversize stream still extracts fine at batch_size=1
    out = extract_pages(oversize, batch_size=1).to_pandas()
    assert out.status[0] == "finished"


def test_truncate_oversize(ray_session):
    ds = _pages_with_mega(ray_session)
    capped = truncate_oversize(ds, max_bytes=100_000)
    df = capped.to_pandas()
    assert df.truncated.sum() == 1
    assert max(len(h) for h in df.html) == 100_000
    # the kernel's repair ladder handles the cut-mid-tag tail: no raise
    out = extract_pages(ray.data.from_arrow(pa.Table.from_pandas(df[ds.schema().names])),
                        batch_size=4).to_pandas()
    assert len(out) == 17
    assert set(out.status) <= {"finished", "fallback", "failed"}


def test_split_oversize_null_html_not_lost(ray_session):
    """A null-html row must land in exactly one stream (normal), not
    silently vanish from both (null flags fail both filters)."""
    import pyarrow as pa

    import ray.data

    from dots_ocr_ray.stages.oversize import split_oversize

    ds = ray.data.from_arrow(
        pa.table(
            {
                "url": pa.array(["a", "b", "c"]),
                "html": pa.array([b"x" * 10, None, b"y" * 2000], type=pa.binary()),
            }
        )
    )
    normal, oversize = split_oversize(ds, max_bytes=1000)
    n_urls = sorted(r["url"] for r in normal.take_all())
    o_urls = sorted(r["url"] for r in oversize.take_all())
    assert n_urls == ["a", "b"] and o_urls == ["c"]
