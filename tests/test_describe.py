"""Tests for the second-pool Picture description stage (A2 analog)."""

import ray.data

from dots_ocr_ray.fixtures import make_pages_table
from dots_ocr_ray.pipelines.extract import extract_pages
from dots_ocr_ray.stages.describe import describe_pictures


def test_describe_pictures_fills_empty_picture_spans(ray_session):
    pages = make_pages_table(64, seed=42)
    extracted = extract_pages(ray.data.from_arrow(pages), batch_size=16)
    described = describe_pictures(extracted).to_pandas()
    assert len(described) == 64
    had_pics = False
    for row in described.itertuples():
        for s in row.spans:
            if s["category"] == "Picture":
                had_pics = True
                assert s["text"].startswith("[image:")
                # markdown re-serialized: the caption appears in the text
                assert s["text"] in row.extracted_text
                # offsets still trace exactly
                seg = row.extracted_text[s["char_start"] : s["char_end"]]
                assert seg == s["text"]
    assert had_pics  # fixture corpus contains Picture blocks


def test_describe_is_deterministic(ray_session):
    pages = make_pages_table(32, seed=42)
    runs = []
    for _ in range(2):
        extracted = extract_pages(ray.data.from_arrow(pages), batch_size=8)
        df = describe_pictures(extracted).to_pandas()
        runs.append(df.sort_values("url").reset_index(drop=True).extracted_text.tolist())
    assert runs[0] == runs[1]


def test_describe_special_covers_table_and_formula(ray_session):
    """describe_special=True mirrors the reference's extended path
    (ocr_task.py:602-613): Picture AND Table AND Formula span text is
    REPLACED by the caption, and offsets stay exact."""
    pages = make_pages_table(128, seed=42)
    extracted = extract_pages(ray.data.from_arrow(pages), batch_size=16)
    described = describe_pictures(extracted, describe_special=True).to_pandas()
    seen = set()
    for row in described.itertuples():
        for s in row.spans:
            if s["category"] in ("Picture", "Table", "Formula"):
                seen.add(s["category"])
                assert s["text"].startswith("[image:")
                seg = row.extracted_text[s["char_start"] : s["char_end"]]
                assert s["text"] in seg  # Table spans serialize with wrappers
    assert "Picture" in seen and "Table" in seen


def test_describe_untouched_rows_pass_through(ray_session):
    # rows with no Picture spans keep their exact markdown
    pages = make_pages_table(16, seed=42)
    extracted = extract_pages(ray.data.from_arrow(pages), batch_size=8)
    before = extracted.to_pandas().sort_values("url").reset_index(drop=True)
    extracted2 = extract_pages(ray.data.from_arrow(pages), batch_size=8)
    after = describe_pictures(extracted2).to_pandas().sort_values("url").reset_index(drop=True)
    for b, a in zip(before.itertuples(), after.itertuples()):
        has_pic = any(s["category"] == "Picture" for s in b.spans)
        if not has_pic:
            assert a.extracted_text == b.extracted_text
