"""Golden byte-identity + determinism + metrics tests for the Ray
extraction pipeline (SURVEY.md §5.2/5.5)."""

import pyarrow as pa
import pytest

import ray.data

from dots_ocr_ray.fixtures import make_mega_page, make_pages_table
from dots_ocr_ray.oracle import oracle_extract
from dots_ocr_ray.pipelines.extract import check_fail_gate, extract_pages, extract_shards
from dots_ocr_ray.schema import RESULT_SCHEMA


@pytest.fixture(scope="module")
def pages_table():
    return make_pages_table(64, seed=42)


def _run(pages: pa.Table, **kwargs):
    ds = ray.data.from_arrow(pages)
    return extract_pages(ds, batch_size=8, **kwargs)


def test_byte_identity_vs_oracle(ray_session, pages_table):
    """The north-rule gate: Ray output at parallelism >1 must be
    byte-identical per url to the sequential oracle."""
    expected = oracle_extract(pages_table)
    result = _run(pages_table).to_pandas()
    assert len(result) == pages_table.num_rows  # row-count preservation
    for row in result.itertuples():
        exp = expected[row.url]
        assert row.extracted_text == exp["extracted_text"], row.url
        assert row.extracted_text_nohf == exp["extracted_text_nohf"], row.url
        assert row.status == exp["status"], row.url
        got_spans = [dict(s) for s in row.spans]
        exp_spans = exp["spans"]
        assert len(got_spans) == len(exp_spans)
        for g, e in zip(got_spans, exp_spans):
            assert g["category"] == e["category"]
            assert list(g["bbox"]) == e["bbox"]
            assert g["char_start"] == e["char_start"] and g["char_end"] == e["char_end"]
            assert g["text"] == e["text"]


def test_determinism_under_parallelism(ray_session, pages_table):
    """Identical output regardless of block structure (catches
    order/state leaks; SURVEY §5.5)."""
    outs = []
    for n_blocks in (1, 8):
        ds = ray.data.from_arrow(pages_table).repartition(n_blocks)
        df = extract_pages(ds, batch_size=8).to_pandas()
        outs.append(df.sort_values("url").reset_index(drop=True)[["url", "extracted_text", "status"]])
    pa_0 = pa.Table.from_pandas(outs[0])
    pa_1 = pa.Table.from_pandas(outs[1])
    assert pa_0.equals(pa_1)


def test_output_schema(ray_session, pages_table):
    out = _run(pages_table)
    tbl = pa.Table.from_pylist(out.take(5))
    for name in RESULT_SCHEMA.names:
        assert name in tbl.column_names


def _shard_metrics(pages: pa.Table, tmp_path) -> pa.Table:
    """Metrics table of an extract_shards job over ``pages`` as one shard."""
    import pyarrow.parquet as pq

    src = str(tmp_path / "pages.parquet")
    pq.write_table(pages, src)
    return extract_shards([src], str(tmp_path / "out"), batch_size=8)


def test_metrics_and_fail_gate(ray_session, pages_table, tmp_path):
    metrics = _shard_metrics(pages_table, tmp_path)
    stats = check_fail_gate(metrics, threshold=0.5)
    assert stats["total"] == pages_table.num_rows
    assert stats["ok"] + stats["fallback"] + stats["failed"] == stats["total"]
    assert stats["ok"] > 0 and stats["failed"] > 0  # fixture includes failed rows


def test_fail_gate_raises_over_threshold(ray_session, tmp_path):
    # all-empty pages → 100% failed → gate must trip at the 10% default
    bad = pa.Table.from_pydict(
        {
            "url": [f"https://x.com/{i}" for i in range(10)],
            "warc_ts": [None] * 10,
            "html": [b""] * 10,
            "text": [""] * 10,
            "lang": ["en"] * 10,
        }
    )
    metrics = _shard_metrics(bad, tmp_path)
    with pytest.raises(RuntimeError, match="job failed"):
        check_fail_gate(metrics)


def test_degradation_rows_never_dropped(ray_session):
    """Malformed/truncated/empty html yields fallback/failed rows, never
    exceptions or dropped rows (SURVEY §5.3)."""
    rows = {
        "url": [f"https://d.com/{i}" for i in range(5)],
        "warc_ts": [None] * 5,
        "html": [
            b"\xff\xfe broken encoding <p>x",
            b"<div><div><p>unclosed everywhere",
            b"",
            b"<script>only script</script>",
            b"<p>" + b"A" * 100_000 + b"</p>",
        ],
        "text": ["", "", "", "crawler text", ""],
        "lang": ["en"] * 5,
    }
    out = _run(pa.Table.from_pydict(rows)).to_pandas()
    assert len(out) == 5
    assert set(out.status) <= {"finished", "fallback", "failed"}
    by_url = dict(zip(out.url, out.status))
    assert by_url["https://d.com/2"] == "failed"
    assert by_url["https://d.com/3"] == "fallback"


def test_mega_page_flows_through(ray_session):
    mega = make_mega_page()
    tbl = pa.Table.from_pylist([mega])
    out = _run(tbl).to_pandas()
    assert len(out) == 1
    assert out.status[0] == "finished"
    assert len(out.extracted_text[0]) > 1_000_000


def test_pluggable_extractor_strategy(ray_session):
    """Custom kernel_fn swaps the extraction engine behind the same
    stage API (the reference's PdfOcrTask/PipeOcrTask toggle)."""
    from dots_ocr_ray.stages.extract_stage import ExtractorActor

    def shouty_kernel(url, html, text, config):
        return {
            "url": url,
            "extracted_text": (text or "").upper(),
            "extracted_text_nohf": (text or "").upper(),
            "spans": [],
            "status": "finished",
        }

    pages = make_pages_table(8, seed=42)
    ds = ray.data.from_arrow(pages)
    out = ds.map_batches(
        ExtractorActor,
        fn_constructor_kwargs={"kernel_fn": shouty_kernel},
        batch_format="pyarrow",
        batch_size=4,
        concurrency=2,
    ).to_pandas()
    assert len(out) == 8
    assert all(t == t.upper() for t in out.extracted_text)


def test_host_failure_wilson_bounds(ray_session):
    import numpy as np
    import pyarrow as pa

    import ray.data

    from dots_ocr_ray.pipelines.extract import host_failure_wilson

    # host a: 1 failure / 2 pages (raw 50%); host b: 10/100 (raw 10%).
    # The Wilson LOWER bound shrinks small-n hosts toward 0, so a.com
    # (n=2) must NOT out-alarm b.com (n=100) despite the higher ratio.
    rows = (
        [("https://a.com/x%d" % i, "failed" if i == 0 else "finished") for i in range(2)]
        + [("https://b.com/x%d" % i, "failed" if i < 10 else "finished") for i in range(100)]
    )
    tbl = pa.table(
        {
            "url": [r[0] for r in rows],
            "status": [r[1] for r in rows],
        }
    )
    out = (
        host_failure_wilson(ray.data.from_arrow(tbl).repartition(4))
        .to_pandas()
        .set_index("host")
    )
    assert out.loc["a.com", "n"] == 2 and out.loc["a.com", "f"] == 1
    assert out.loc["b.com", "n"] == 100 and out.loc["b.com", "f"] == 10

    def wilson_lb(f, n, z=1.96):
        p = f / n
        z2 = z * z
        return (p + z2 / (2 * n) - z * np.sqrt(p * (1 - p) / n + z2 / (4.0 * n * n))) / (
            1 + z2 / n
        )

    assert out.loc["a.com", "wilson_lb_micro"] == int(np.floor(1e6 * wilson_lb(1, 2)))
    assert out.loc["b.com", "wilson_lb_micro"] == int(np.floor(1e6 * wilson_lb(10, 100)))
    # wilson_lb(1,2) ≈ 0.095 — far below the raw 0.5 ratio
    assert out.loc["a.com", "wilson_lb_micro"] < 150_000
