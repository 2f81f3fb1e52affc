"""Unit tests for the output repair / dedup ladder (reference
output_cleaner.py semantics, M7/M8/D1/D2)."""

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from dots_ocr_ray.kernel.cleaner import (
    clean_list_data,
    clean_model_output,
    clean_string_data,
    dedup_dict_substrings,
    dedup_items,
    ensure_json_format,
    fix_missing_delimiters,
    remove_duplicate_pairs_and_bboxes,
    truncate_last_incomplete_element,
)


def _cell(i, text="t"):
    return {"bbox": [i, i, i + 10, i + 10], "category": "Text", "text": text}


def test_fix_missing_delimiters():
    # the reference pattern (output_cleaner.py:39) rewrites `}{` only
    # when NOT followed by a quote (nested-dict boundary, not a new cell)
    s = '{"bbox": [1,2,3,4]} {bbox: [5,6,7,8]}'
    assert fix_missing_delimiters(s) == '{"bbox": [1,2,3,4]},{bbox: [5,6,7,8]}'
    s2 = '{"a": 1} {"b": 1}'
    assert fix_missing_delimiters(s2) == s2


def test_truncate_tail_only_when_multiple_elements():
    # single element, no ']' → never truncated away
    s = '[{"bbox": [1,2,3,4], "category": "Text", "text": "abc'
    assert truncate_last_incomplete_element(s) == s
    # two elements, missing ']' → last one dropped
    s2 = '[{"bbox": [1,2,3,4], "category": "Text"}, {"bbox": [5,6,7,8], "cat'
    out = truncate_last_incomplete_element(s2)
    assert out.endswith('}') and '"bbox": [5' not in out


def test_dedup_dict_substrings_preserves_order():
    a = json.dumps(_cell(1, "a"))
    b = json.dumps(_cell(2, "b"))
    s = f"[{a}, {b}, {a}]"
    out = dedup_dict_substrings(s)
    parsed = json.loads(ensure_json_format(out))
    assert parsed == [_cell(1, "a"), _cell(2, "b")]


def test_string_ladder_end_to_end():
    # malformed: truncated tail + missing closing bracket
    s = '[{"bbox": [1,2,3,4], "category": "Text", "text": "a"}, {"bbox": [5,6,7,8], "category": "Text", "text": "b"}, {"bbox": [9,9'
    out = clean_string_data(s)
    assert [c["text"] for c in out] == ["a", "b"]


def test_single_incomplete_dict_salvage():
    s = '[{"bbox": [10, 20, 30, 40], "category": "Table", "text": "partial tex'
    out = clean_string_data(s)
    # the bracket-fix step appends ']' before salvage (as the reference's
    # clean_string_data step 4 does), so the salvaged text carries it
    assert out == [{"bbox": [10, 20, 30, 40], "category": "Table", "text": "partial tex]"}]


def test_list_mode_three_coord_bbox():
    data = [
        {"bbox": [1, 2, 3], "category": "Text", "text": "keep me"},
        {"bbox": [1, 2, 3, 4], "category": "Text", "text": "normal"},
        {"bbox": "bad", "category": "Text", "text": "dropped"},
        {"category": "Text", "text": "no bbox kept"},
        {"text": "no category dropped"},
        "not a dict",
    ]
    out = clean_list_data(data)
    assert out == [
        {"category": "Text", "text": "keep me"},
        {"bbox": [1, 2, 3, 4], "category": "Text", "text": "normal"},
        {"category": "Text", "text": "no bbox kept"},
    ]


def test_pair_dedup_threshold_is_five():
    four = [dict(_cell(i), text="same") for i in range(4)]
    for i, c in enumerate(four):
        c["bbox"] = [i, 0, i + 1, 1]
    assert dedup_items(list(four)) == four  # 4 < 5 → kept
    five = four + [{"bbox": [9, 0, 10, 1], "category": "Text", "text": "same"}]
    out = dedup_items(five)
    assert len(out) == 1 and out[0] == five[0]  # first occurrence kept


def test_bbox_dedup_threshold_is_two():
    a = {"bbox": [0, 0, 5, 5], "category": "Text", "text": "x"}
    b = {"bbox": [0, 0, 5, 5], "category": "Title", "text": "y"}
    c = {"bbox": [9, 9, 10, 10], "category": "Text", "text": "z"}
    out = dedup_items([a, b, c])
    assert out == [a, c]


def test_dedup_keep_indices_over_columns():
    """The one dedup body: keep-indices over parallel category, text and
    bbox columns, as the kernel calls it with its span columns."""
    cats = ["Text"] * 6 + ["Title"]
    texts = ["same"] * 5 + ["other", "same"]
    bboxes = [(i, 0, i + 1, 1) for i in range(5)] + [(0, 0, 1, 1), (9, 9, 9, 9)]
    # pair 0 kept of its five; the bbox of 5 repeats 0's; a Title "same"
    # is another pair
    assert remove_duplicate_pairs_and_bboxes(cats, texts, bboxes) == [0, 6]
    assert remove_duplicate_pairs_and_bboxes(cats[4:], texts[4:], bboxes[4:]) == [0, 1, 2]
    assert remove_duplicate_pairs_and_bboxes([], [], []) == []


def test_clean_model_output_never_raises():
    assert clean_model_output(None) == []
    assert clean_model_output(12345) == []
    assert clean_model_output("") == []
    assert clean_model_output("complete garbage }{") == []


def _dedup_by_positions(data_list):
    """Reference: the reference's position-list form of the repetition
    dedup (output_cleaner.py:347-416)."""
    if not data_list or len(data_list) <= 1:
        return data_list
    pair_positions, bbox_positions = {}, {}
    for i, item in enumerate(data_list):
        if isinstance(item, dict) and "category" in item and "text" in item:
            pair_positions.setdefault((item["category"], item["text"]), []).append(i)
        if isinstance(item, dict) and isinstance(item.get("bbox"), (list, tuple)) and item["bbox"]:
            bbox_positions.setdefault(tuple(item["bbox"]), []).append(i)
    to_remove = set()
    for positions in pair_positions.values():
        if len(positions) >= 5:
            to_remove.update(positions[1:])
    for positions in bbox_positions.values():
        if len(positions) >= 2:
            to_remove.update(positions[1:])
    return [item for i, item in enumerate(data_list) if i not in to_remove]


_ITEMS = st.one_of(
    st.sampled_from([None, 3, "x"]),
    st.fixed_dictionaries(
        {},
        optional={
            "category": st.sampled_from(["Text", "Title"]),
            "text": st.sampled_from(["a", "b"]),
            "bbox": st.sampled_from([[1, 2, 3, 4], [1, 2, 3, 5], (1, 2, 3, 4), [], None, "ab"]),
        },
    ),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(_ITEMS, max_size=14))
def test_dedup_matches_position_reference(items):
    out = dedup_items(items)
    expected = _dedup_by_positions(items)
    assert [id(x) for x in out] == [id(x) for x in expected]
