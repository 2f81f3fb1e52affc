"""Output repair / cleaning ladder (reference M7/M8/D1/D2).

Re-implements the reference ``OutputCleaner``
(dots_ocr/utils/output_cleaner.py:32-435) as pure functions with the
same decision thresholds and the same order-preservation guarantees:

* string repair ladder (clean_string_data, output_cleaner.py:108-170):
  fix missing ``},{`` delimiters → truncate incomplete tail (len>50k or
  no ``]``; never when only one element) → order-preserving exact dedup
  of dict substrings → bracket fixing → parse with two fallbacks
  (extract valid dicts; salvage a single incomplete dict).
* list repair (clean_list_data, output_cleaner.py:43-107): 3-coordinate
  bboxes dropped keeping category/text; malformed items dropped.
* repetition dedup (output_cleaner.py:347-416): identical
  (category,text) appearing ≥5× keep first; identical bbox appearing
  ≥2× keep first; order preserved.

No printing, no exceptions escape: callers get a list (possibly empty)
or ``None`` when salvage is impossible.
"""

from __future__ import annotations

import json
import re
from collections import Counter

_DICT_PATTERN = re.compile(r'\{[^{}]*?"bbox"\s*:\s*\[[^\]]*?\][^{}]*?\}', re.DOTALL)
_BBOX_PATTERN = re.compile(r'"bbox"\s*:\s*\[([^\]]+)\]')
_MISSING_DELIMITER = re.compile(r'\}\s*\{(?!")')
_CATEGORY_PATTERN = re.compile(r'"category"\s*:\s*"([^"]+)"')
_TEXT_PREFIX_PATTERN = re.compile(r'"text"\s*:\s*"([^"]{0,10000})')

# Dedup thresholds — copied exactly (output_cleaner.py:380,393).
PAIR_DUP_THRESHOLD = 5
BBOX_DUP_THRESHOLD = 2
TRUNCATE_LEN_THRESHOLD = 50_000


def fix_missing_delimiters(text: str) -> str:
    """``} {`` (no following quote) → ``},{`` (output_cleaner.py:171-186)."""
    return _MISSING_DELIMITER.sub("},{", text)


def truncate_last_incomplete_element(text: str) -> str:
    """Drop the last ``{"bbox":`` element when the payload is very long
    (>50k) or doesn't end with ``]`` — but never when it is the only
    element (output_cleaner.py:188-220)."""
    needs_truncation = len(text) > TRUNCATE_LEN_THRESHOLD or not text.strip().endswith("]")
    if not needs_truncation:
        return text
    if text.count('{"bbox":') <= 1:
        return text
    last_pos = text.rfind('{"bbox":')
    if last_pos <= 0:
        return text
    truncated = text[:last_pos].rstrip()
    if truncated.endswith(","):
        truncated = truncated[:-1]
    return truncated


def dedup_dict_substrings(text: str) -> str:
    """Order-preserving exact dedup of complete dict substrings
    (output_cleaner.py:222-254)."""
    matches = list(_DICT_PATTERN.finditer(text))
    if not matches:
        return text
    unique, seen = [], set()
    dups = 0
    for m in matches:
        s = m.group()
        if s not in seen:
            unique.append(s)
            seen.add(s)
        else:
            dups += 1
    if dups:
        return "[" + ", ".join(unique) + "]"
    return text


def ensure_json_format(text: str) -> str:
    """Bracket fixing (output_cleaner.py:256-269)."""
    text = text.strip()
    if not text.startswith("["):
        text = "[" + text
    if not text.endswith("]"):
        text = text.rstrip(",").rstrip() + "]"
    return text


def _salvage_single_incomplete_dict(text: str) -> list[dict] | None:
    """Salvage ``[{"bbox": ...`` that was cut off mid-stream
    (output_cleaner.py:305-345)."""
    if not text.strip().startswith('[{"bbox":'):
        return None
    bbox_match = _BBOX_PATTERN.search(text)
    if not bbox_match:
        return None
    try:
        bbox = [int(x.strip()) for x in bbox_match.group(1).split(",")]
    except ValueError:
        return None
    if len(bbox) != 4:
        return None
    cat_match = _CATEGORY_PATTERN.search(text)
    category = cat_match.group(1) if cat_match else "Text"
    text_match = _TEXT_PREFIX_PATTERN.search(text)
    fixed: dict = {"bbox": bbox, "category": category}
    if text_match and text_match.group(1):
        fixed["text"] = text_match.group(1)
    return [fixed]


def parse_final_json(text: str) -> list[dict] | None:
    """json.loads with two fallbacks (output_cleaner.py:271-303)."""
    try:
        data = json.loads(text)
        if isinstance(data, list):
            return data
        return None
    except json.JSONDecodeError:
        valid = []
        for m in _DICT_PATTERN.finditer(text):
            try:
                valid.append(json.loads(m.group()))
            except Exception:
                continue
        if valid:
            return valid
        return _salvage_single_incomplete_dict(text)


def clean_list_data(data: list) -> list[dict]:
    """List repair (output_cleaner.py:43-107): 3-coord bbox → keep
    category/text only; 4-coord kept; other bbox shapes dropped; items
    without bbox kept iff they have a category; non-dicts dropped."""
    cleaned: list[dict] = []
    for item in data:
        if not isinstance(item, dict):
            continue
        if "bbox" in item:
            bbox = item["bbox"]
            if isinstance(bbox, list) and len(bbox) == 3:
                new_item = {}
                if "category" in item:
                    new_item["category"] = item["category"]
                if "text" in item:
                    new_item["text"] = item["text"]
                if new_item:
                    cleaned.append(new_item)
            elif isinstance(bbox, list) and len(bbox) == 4:
                cleaned.append(item.copy())
            # other bbox shapes: dropped
        elif "category" in item:
            cleaned.append(item.copy())
    return cleaned


def clean_string_data(data_str: str) -> list[dict] | None:
    """Five-step string repair ladder in the reference's order
    (output_cleaner.py:126-145)."""
    try:
        s = fix_missing_delimiters(data_str)
        s = truncate_last_incomplete_element(s)
        s = dedup_dict_substrings(s)
        s = ensure_json_format(s)
        return parse_final_json(s)
    except Exception:
        return None


def remove_duplicate_pairs_and_bboxes(cats: list, texts: list, bboxes: list) -> list[int]:
    """Repetition dedup (output_cleaner.py:347-416) as keep-indices over
    parallel columns: a (category, text) pair occurring ≥5 times keeps
    its first occurrence; a bbox (hashable) occurring ≥2 times keeps its
    first occurrence; original order preserved."""
    n = len(texts)
    # a key seen k times makes its set k-1 smaller than the list, and
    # pairs are at least as many as texts: when neither set is short
    # enough no key reaches its threshold (the usual page), no Counter
    if n - len(set(texts)) < PAIR_DUP_THRESHOLD - 1 and n - len(set(bboxes)) < BBOX_DUP_THRESHOLD - 1:
        return list(range(n))
    drop: set[int] = set()
    for keys, threshold in ((list(zip(cats, texts)), PAIR_DUP_THRESHOLD), (bboxes, BBOX_DUP_THRESHOLD)):
        counts = Counter(keys)
        first: dict = {}
        drop.update(i for i, key in enumerate(keys) if counts[key] >= threshold and first.setdefault(key, i) != i)
    return [i for i in range(n) if i not in drop]


def dedup_items(data_list: list) -> list:
    """:func:`remove_duplicate_pairs_and_bboxes` over a list of block
    dicts; returns ``data_list`` itself when nothing repeats.  An item
    with no category/text pair, or no non-empty list/tuple bbox, gets a
    key of its own there, which never repeats."""
    cats, texts, bboxes = [], [], []
    for item in data_list:
        if isinstance(item, dict) and "category" in item and "text" in item:
            cats.append(item["category"])
            texts.append(item["text"])
        else:
            cats.append(None)
            texts.append(object())
        bbox = item.get("bbox") if isinstance(item, dict) else None
        bboxes.append(tuple(bbox) if isinstance(bbox, (list, tuple)) and bbox else object())
    keep = remove_duplicate_pairs_and_bboxes(cats, texts, bboxes)
    return data_list if len(keep) == len(data_list) else [data_list[i] for i in keep]


def clean_model_output(model_output) -> list[dict]:
    """Top-level entry (output_cleaner.py:418-435): route list vs string,
    then apply repetition dedup.  Never raises; unsalvageable input
    yields ``[]``."""
    try:
        if isinstance(model_output, list):
            cleaned = clean_list_data(model_output)
        else:
            cleaned = clean_string_data(str(model_output))
        # keep dicts only (the reference lets scalars through here and
        # crashes downstream; we contain them at the source instead)
        cleaned = [c for c in (cleaned or []) if isinstance(c, dict)]
        if cleaned:
            cleaned = dedup_items(cleaned)
        return cleaned or []
    except Exception:
        return []
