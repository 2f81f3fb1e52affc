"""Structural guard: the keyed bucket exchange is written once.

``groupby("__bucket")`` may appear only in ``util.py`` (inside
``bucket_exchange``) and at the allowlisted sites below, each of which
carries a comment saying why it cannot route through the helper.  The
64-bit golden-ratio constant is spelled out only in ``util.py``
(``util.GOLDEN64``).  Scans the package and ``__ray_entry__.py``.
"""

import ast
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GOLDEN = 0x9E3779B97F4A7C15

# (file, top-level function, reason)
ALLOWED = {
    (
        "dots_ocr_ray/pipelines/relational.py",
        "range_join",
        "band join: a row is replicated into every range bucket it spans",
    ),
    (
        "dots_ocr_ray/pipelines/relational.py",
        "interval_overlap_join",
        "band join: a row is replicated into every range bucket it spans",
    ),
    (
        "dots_ocr_ray/pipelines/relational.py",
        "interval_agg_join",
        "band join: a row is replicated into every range bucket it spans",
    ),
}


def _sources():
    yield "__ray_entry__.py"
    for dirpath, dirnames, names in os.walk(os.path.join(ROOT, "dots_ocr_ray")):
        dirnames.sort()
        for n in sorted(names):
            if n.endswith(".py"):
                yield os.path.relpath(os.path.join(dirpath, n), ROOT)


def _top_level_function(tree: ast.Module, lineno: int) -> str:
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.lineno <= lineno <= node.end_lineno:
            return node.name
    return "<module>"


def _scan():
    bucket_sites, golden_sites = [], []
    for rel in _sources():
        with open(os.path.join(ROOT, rel)) as f:
            src = f.read()
        tree = ast.parse(src)
        lines = src.splitlines()
        for i, line in enumerate(lines, 1):
            if 'groupby("__bucket")' in line:
                bucket_sites.append((rel, _top_level_function(tree, i), i, lines[max(0, i - 4) : i]))
        for node in ast.walk(tree):
            if isinstance(node, ast.Constant) and node.value == GOLDEN:
                golden_sites.append((rel, node.lineno))
    return bucket_sites, golden_sites


def test_bucket_groupby_only_in_util_and_allowlist():
    bucket_sites, _ = _scan()
    allowed = {(f, fn) for f, fn, _ in ALLOWED}
    outside = [
        (rel, fn, ln)
        for rel, fn, ln, _ in bucket_sites
        if rel != "dots_ocr_ray/util.py" and (rel, fn) not in allowed
    ]
    assert not outside, f"hand-rolled bucket exchanges; route them through util.bucket_exchange: {outside}"
    for rel, fn, ln, before in bucket_sites:
        if rel == "dots_ocr_ray/util.py":
            assert fn == "bucket_exchange", (rel, fn, ln)
        else:
            assert any("not util.bucket_exchange" in b for b in before), (
                f"{rel}:{ln} ({fn}) needs a comment saying why it is not util.bucket_exchange"
            )


def test_allowlist_has_no_stale_entries():
    bucket_sites, _ = _scan()
    present = {(rel, fn) for rel, fn, _, _ in bucket_sites}
    stale = [(f, fn) for f, fn, _ in ALLOWED if (f, fn) not in present]
    assert not stale, f"allowlisted sites no longer hand-roll the exchange: {stale}"


def test_golden_constant_spelled_once():
    _, golden_sites = _scan()
    assert [rel for rel, _ in golden_sites] == ["dots_ocr_ray/util.py"], golden_sites
