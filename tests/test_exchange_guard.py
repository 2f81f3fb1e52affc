"""Structural guard: the keyed bucket exchange and the keyed aggregate
are each written once.

``groupby("__bucket")`` may appear only in ``util.py`` (inside
``bucket_exchange``) and at the allowlisted sites below, each of which
carries a comment saying why it cannot route through the helper.  A
native keyed aggregate — ``groupby(...)`` immediately followed by
``.sum/.count/.min/.max/.mean/.aggregate`` — and a string literal
spelling a Ray aggregate output name (``"sum(x)"``, ``"count()"``) may
appear only in ``util.py`` and at the ``AGG_ALLOWED`` sites, each with
a comment saying why it is not ``util.bucket_keyed_fold``; pandas
calls (which carry ``sort=`` or ``as_index=``) are skipped.  The 64-bit
golden-ratio constant is spelled out only in ``util.py``
(``util.GOLDEN64``).  Scans the package and ``__ray_entry__.py``.
"""

import ast
import os
import re

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


# (file, top-level function, reason): native keyed aggregates and Ray
# aggregate-name literals outside util.py; every keyed aggregate of the
# package routes through util.bucket_keyed_fold, so none is allowed
AGG_ALLOWED: set = set()
_AGG_METHODS = {"sum", "count", "min", "max", "mean", "aggregate"}
_RAY_AGG_NAME = re.compile(r"^(sum|count|min|max|mean|std)\([^()]*\)$")


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


def _aggregate_hits(tree: ast.Module) -> list:
    """Line of every native keyed aggregate call and every Ray
    aggregate-name literal in ``tree``."""
    hits = []
    for node in ast.walk(tree):
        call = (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in _AGG_METHODS
            and isinstance(node.func.value, ast.Call)
            and isinstance(node.func.value.func, ast.Attribute)
            and node.func.value.func.attr == "groupby"
            and not any(k.arg in ("sort", "as_index") for k in node.func.value.keywords)
        )
        literal = isinstance(node, ast.Constant) and isinstance(node.value, str) and _RAY_AGG_NAME.match(node.value)
        if call or literal:
            hits.append(node.lineno)
    return sorted(hits)


def _native_aggregates():
    """(file, function, line, preceding lines) of every hit."""
    sites = []
    for rel in _sources():
        with open(os.path.join(ROOT, rel)) as f:
            src = f.read()
        tree = ast.parse(src)
        lines = src.splitlines()
        for ln in _aggregate_hits(tree):
            sites.append((rel, _top_level_function(tree, ln), ln, lines[max(0, ln - 4) : ln]))
    return sites


def test_native_keyed_aggregates_only_in_util_and_allowlist():
    allowed = {(f, fn) for f, fn, _ in AGG_ALLOWED}
    outside = [
        (rel, fn, ln)
        for rel, fn, ln, _ in _native_aggregates()
        if rel != "dots_ocr_ray/util.py" and (rel, fn) not in allowed
    ]
    assert not outside, f"native keyed aggregates; route them through util.bucket_keyed_fold: {outside}"
    for rel, fn, ln, before in _native_aggregates():
        if rel != "dots_ocr_ray/util.py":
            assert any("not util.bucket_keyed_fold" in b for b in before), (
                f"{rel}:{ln} ({fn}) needs a comment saying why it is not util.bucket_keyed_fold"
            )


def test_aggregate_allowlist_has_no_stale_entries():
    present = {(rel, fn) for rel, fn, _, _ in _native_aggregates()}
    stale = [(f, fn) for f, fn, _ in AGG_ALLOWED if (f, fn) not in present]
    assert not stale, f"allowlisted sites no longer aggregate natively: {stale}"


def test_aggregate_guard_sees_the_patterns():
    """The scan flags a native sum, a native aggregate and both literal
    shapes; it skips pandas calls and prose."""
    src = (
        "def f(ds, df):\n"
        "    a = ds.groupby('k').sum('v')\n"
        "    b = ds.groupby(['k', 'j']).aggregate(Sum('v'))\n"
        "    c = df.groupby('k', sort=False).sum()\n"
        "    d = df.groupby('k', as_index=False)['v'].sum()\n"
        "    e = ('sum(v)',\n"
        "         'count()', 'sum of v')\n"
        "    return a, b, c, d, e\n"
    )
    assert _aggregate_hits(ast.parse(src)) == [2, 3, 6, 7]
