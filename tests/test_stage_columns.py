"""The stage's column path against the kernel's dict path.

With the built-in kernel, ``ExtractorActor`` has ``extract_page`` append
each span's fields straight into its flat column lists.  Every column
of its output, ``spans.text`` included, must equal the table built from
the span dicts ``extract_page`` returns without that keyword, for every
golden corpus and every mode.
"""

import pyarrow as pa
import pytest

from dots_ocr_ray.fixtures import make_mega_page, make_pages_table
from dots_ocr_ray.kernel.extract import ExtractConfig, extract_page
from dots_ocr_ray.schema import RESULT_SCHEMA
from dots_ocr_ray.stages.extract_stage import ExtractorActor
from tag_soup import make_tag_soup

MODES = {
    "parse_all": ExtractConfig(),
    "text_only": ExtractConfig(mode="text_only"),
    "layout_only": ExtractConfig(mode="layout_only"),
    "grounding": ExtractConfig(mode="grounding", grounding_bbox=(0, 0, 10_000, 30)),
    "describe_pictures": ExtractConfig(describe_pictures=True),
    "rebuild_directory": ExtractConfig(rebuild_directory=True),
    "extra_blocklist": ExtractConfig(extra_blocklist=("lead", "page-header")),
    # the tag-soup golden's second config
    "combined": ExtractConfig(extra_blocklist=("lead",), describe_pictures=True, rebuild_directory=True),
}


def _tag_soup_table() -> pa.Table:
    docs = make_tag_soup(300, seed=42)
    return pa.table(
        {
            "url": [f"https://soup.test/{i}" for i in range(len(docs))],
            "html": pa.array([d.encode("utf-8") for d in docs], pa.binary()),
            "text": pa.array([None] * len(docs), pa.string()),
            "lang": [""] * len(docs),
        }
    )


CORPORA = {
    "pages": lambda: make_pages_table(64, seed=42),
    "cc_pages": lambda: make_pages_table(64, seed=42, scale=12),
    "mega_page": lambda: pa.Table.from_pylist([make_mega_page(seed=42)]),
    "tag_soup": _tag_soup_table,
}


def _from_dicts(pages: pa.Table, config: ExtractConfig, partition_id: int) -> pa.Table:
    rows = []
    for page in pages.to_pylist():
        res = extract_page(page["url"], page["html"], page.get("text"), config)
        rows.append(
            {
                "url": page["url"],
                "lang": page.get("lang") or "",
                "extracted_text": res["extracted_text"],
                "extracted_text_nohf": res["extracted_text_nohf"],
                "spans": res["spans"],
                "status": res["status"],
                "n_spans": len(res["spans"]),
                "bytes_in": len(page["html"]) if page["html"] is not None else 0,
                "partition_id": partition_id,
            }
        )
    return pa.Table.from_pylist(rows, schema=RESULT_SCHEMA)


@pytest.mark.parametrize("mode", sorted(MODES))
@pytest.mark.parametrize("corpus", sorted(CORPORA))
def test_stage_columns_equal_kernel_dicts(corpus, mode):
    pages = CORPORA[corpus]()
    config = MODES[mode]
    got = ExtractorActor(config, partition_id=5)(pages)
    expected = _from_dicts(pages, config, 5)
    assert got.schema == RESULT_SCHEMA
    assert got.num_rows == pages.num_rows
    # ``spans`` compares every struct field, ``text`` included
    for name in RESULT_SCHEMA.names:
        assert got.column(name).equals(expected.column(name)), name


def test_failed_custom_kernel_row_leaves_no_spans():
    """A custom kernel that raises on one row, or returns a malformed
    span, degrades that row only; the other rows' spans keep their
    offsets in the flat columns."""

    def kernel(url, html, text, config):
        if url.endswith("/1"):
            raise RuntimeError("boom")
        spans = [{"category": "Text", "bbox": [0, 0, 1, 1], "char_start": 0, "char_end": 1, "text": url}]
        if url.endswith("/2"):
            spans.append({"category": "Text", "bbox": [0, 0, 1, 1], "char_start": "x", "char_end": 1, "text": ""})
        return {"extracted_text": url, "extracted_text_nohf": url, "spans": spans, "status": "finished"}

    pages = pa.table({"url": [f"u/{i}" for i in range(4)], "html": pa.array([b"<p>x</p>"] * 4, pa.binary())})
    out = ExtractorActor(kernel_fn=kernel)(pages)
    assert out.column("status").to_pylist() == ["finished", "failed", "failed", "finished"]
    assert out.column("n_spans").to_pylist() == [1, 0, 0, 1]
    assert [[s["text"] for s in row] for row in out.column("spans").to_pylist()] == [["u/0"], [], [], ["u/3"]]
