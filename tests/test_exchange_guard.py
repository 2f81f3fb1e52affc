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
(``util.GOLDEN64``).  A Dataset ``groupby(<key>).map_groups(...)``
on any other key than ``"__bucket"`` (a per-key Python fold) may appear
only in ``util.py`` and at the ``RAW_KEY_ALLOWED`` sites, and the
per-key scans that sort each key's rows and the per-key distinct
counts (``ONE_EXCHANGE``) each run exactly one ``bucket_exchange``,
with no Dataset sort and no raw-key fold.  A broadcast-or-exchange choice asks ``util.broadcast_fits``: no
function takes its own tier cut (a ``*_limit`` parameter from
``TIER_OPTION``, or any ``*_budget`` parameter outside
``BUDGET_ALLOWED``) or a ``method`` switch on ``TIER_SWITCH``
functions, and the deleted driver-side count merges stay gone.  A join
picks its own tier: no top-level function other than
``relational.hash_join`` both asks ``util.broadcast_fits`` and calls
``hash_join`` (a hand-rolled broadcast-or-join fork), outside the
``FORK_ALLOWED`` functions, whose broadcast tier is not a join.  Ray Data's
internal plan (``_logical_plan``, ``._plan.``, the
``ray.data._internal.logical`` operators) is read only inside
``util.row_bound``, so a Ray upgrade that moves it touches one
function.  Scans the package and ``__ray_entry__.py``.
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

# (file, top-level function, reason): raw-key groupby(k).map_groups
# folds outside util.py
RAW_KEY_ALLOWED = {
    (
        "dots_ocr_ray/pipelines/dedup.py",
        "embedding_dedup",
        "LSH bucket: the per-key work is pairwise cosine over the bucket's members",
    ),
    (
        "dots_ocr_ray/pipelines/dedup.py",
        "snm_dedup",
        "rank pass over at most 256 first-byte range buckets with broadcast offsets",
    ),
    (
        "dots_ocr_ray/pipelines/packing.py",
        "global_shuffle_index",
        "rank pass over at most 256 md5-prefix buckets with broadcast offsets",
    ),
    (
        "dots_ocr_ray/pipelines/packing.py",
        "pack_sequences",
        "per-key packer: sequential token cumsum over each key's documents",
    ),
    (
        "dots_ocr_ray/pipelines/packing.py",
        "rebalance_mixture",
        "per-key packer: md5-order copy assignment over a bounded set of mixture keys",
    ),
    (
        "dots_ocr_ray/pipelines/packing.py",
        "temperature_mixture",
        "per-key packer: md5-order copy assignment over a bounded set of mixture keys",
    ),
    (
        "dots_ocr_ray/pipelines/packing.py",
        "write_bytes_balanced_shards",
        "one group per output shard: the fold writes that shard's file",
    ),
    (
        "dots_ocr_ray/pipelines/text_analysis.py",
        "ngram_diversity",
        "HLL register merge per n-gram order, a handful of keys",
    ),
    (
        "dots_ocr_ray/pipelines/profile.py",
        "profile_table",
        "one group per column of the profiled table",
    ),
    (
        "dots_ocr_ray/pipelines/profile.py",
        "winsorized_stats",
        "order statistics per group over a bounded group set (event types, languages)",
    ),
    (
        "dots_ocr_ray/pipelines/similarity.py",
        "semdedup_prune",
        "per-cluster pairwise similarity over k-means clusters",
    ),
}

# (file, top-level function) → the one exchange call of each sorted
# per-key scan or distinct count: bucket_exchange, or the helper that
# wraps it
ONE_EXCHANGE = {
    ("dots_ocr_ray/pipelines/dedup.py", "sorted_group_first"): "bucket_exchange",
    ("dots_ocr_ray/pipelines/rollup.py", "keyed_top_rollup"): "bucket_exchange",
    ("dots_ocr_ray/pipelines/document.py", "scd2_history"): "bucket_exchange",
    ("dots_ocr_ray/pipelines/graph.py", "inbound_anchor_stats"): "bucket_exchange",
    ("dots_ocr_ray/pipelines/windows.py", "_sorted_user_apply"): "bucket_exchange",
    ("dots_ocr_ray/pipelines/windows.py", "sessionize"): "_sorted_user_apply",
    ("dots_ocr_ray/pipelines/windows.py", "user_event_sequence"): "_sorted_user_apply",
    ("dots_ocr_ray/pipelines/windows.py", "event_gaps"): "_sorted_user_apply",
    ("dots_ocr_ray/pipelines/windows.py", "late_event_audit"): "_sorted_user_apply",
    ("dots_ocr_ray/pipelines/windows.py", "window_distinct_users"): "bucket_distinct_counts",
    ("dots_ocr_ray/pipelines/profile.py", "fd_violations"): "bucket_distinct_counts",
    ("dots_ocr_ray/util.py", "bucket_distinct_counts"): "bucket_exchange",
}
# parameters that would pick a broadcast-or-exchange tier by a caller's
# option instead of util.broadcast_fits
TIER_OPTION = re.compile(
    r"^((broadcast|host_broadcast|broadcast_bytes|exact|driver_pair|driver|hot_right_rows|dedup_exact)_limit|\w+_budget)$"
)
# (file, top-level function, parameter): tier cuts still taken by an
# option; the list may only shrink
_GRAPH = "dots_ocr_ray/pipelines/graph.py"
BUDGET_ALLOWED = {
    (_GRAPH, "triangle_count", "pair_budget"): "open: ROADMAP item 7",
    (_GRAPH, "triangle_count", "wedge_budget"): "open: ROADMAP item 7",
    (_GRAPH, "common_neighbor_scores", "pair_budget"): "open: ROADMAP item 7",
    (_GRAPH, "common_neighbor_scores", "wedge_budget"): "open: ROADMAP item 7",
    (_GRAPH, "kcore", "edge_budget"): "open: ROADMAP item 7",
    (_GRAPH, "scc", "edge_budget"): "open: ROADMAP item 7",
    (_GRAPH, "resolve_redirects", "edge_budget"): "open: ROADMAP item 7",
}
TIER_SWITCH = {"cluster_assign", "connected_hosts"}

# (file, top-level function) → reason: functions that both ask
# util.broadcast_fits and call hash_join, because their broadcast tier
# is not a join; the list may only shrink
_IN_PLACE = "broadcast tier works on each {} in place; the exchange tier explodes {} to join them"
_ITERATIVE = "iterative: the broadcast tier keeps the algorithm's state on the driver"
FORK_ALLOWED = {
    ("dots_ocr_ray/pipelines/dedup.py", "line_dedup"): _IN_PLACE.format("document's lines", "lines"),
    ("dots_ocr_ray/pipelines/substring.py", "substring_dedup"): _IN_PLACE.format("document's grams", "grams"),
    ("dots_ocr_ray/pipelines/substring.py", "gram_novelty"): _IN_PLACE.format("document's grams", "grams"),
    ("dots_ocr_ray/pipelines/text_analysis.py", "bigram_lm_scores"): _IN_PLACE.format("document's bigrams", "bigrams"),
    ("dots_ocr_ray/pipelines/template.py", "template_block_strip"): _IN_PLACE.format("page's blocks", "blocks"),
    ("dots_ocr_ray/pipelines/graph.py", "robots_filter"): _IN_PLACE.format("page's host rules", "pages"),
    (_GRAPH, "pagerank"): _ITERATIVE,
    (_GRAPH, "bfs_depths"): _ITERATIVE,
    (_GRAPH, "hits"): _ITERATIVE,
    (_GRAPH, "label_propagation"): _ITERATIVE,
    (_GRAPH, "random_walks"): _ITERATIVE,
}
DELETED = ("merge_int_counts", "merge_pair_counts")
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


def _raw_key_hits(tree: ast.AST) -> list:
    """Line of every ``groupby(<key>).map_groups(...)`` call in ``tree``
    whose key is not the literal ``"__bucket"``."""
    hits = []
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "map_groups"
            and isinstance(node.func.value, ast.Call)
            and isinstance(node.func.value.func, ast.Attribute)
            and node.func.value.func.attr == "groupby"
        ):
            args = node.func.value.args
            if not (args and isinstance(args[0], ast.Constant) and args[0].value == "__bucket"):
                hits.append(node.lineno)
    return sorted(hits)


def _raw_key_sites():
    sites = []
    for rel in _sources():
        with open(os.path.join(ROOT, rel)) as f:
            tree = ast.parse(f.read())
        sites += [(rel, _top_level_function(tree, ln), ln) for ln in _raw_key_hits(tree)]
    return sites


def test_raw_key_folds_only_at_allowlist():
    allowed = {(f, fn) for f, fn, _ in RAW_KEY_ALLOWED}
    outside = [
        (rel, fn, ln)
        for rel, fn, ln in _raw_key_sites()
        if rel != "dots_ocr_ray/util.py" and (rel, fn) not in allowed
    ]
    assert not outside, f"raw-key map_groups folds; route them through util.bucket_exchange: {outside}"
    assert not allowed & set(ONE_EXCHANGE)


def test_raw_key_allowlist_has_no_stale_entries():
    present = {(rel, fn) for rel, fn, _ in _raw_key_sites()}
    stale = [(f, fn) for f, fn, _ in RAW_KEY_ALLOWED if (f, fn) not in present]
    assert not stale, f"allowlisted sites no longer fold by a raw key: {stale}"


def test_raw_key_guard_sees_the_pattern():
    """The scan flags a raw-key fold whatever the key expression; it
    skips the bucket exchange and a groupby without map_groups."""
    src = (
        "def f(ds, k):\n"
        "    a = ds.groupby('user_id').map_groups(g)\n"
        "    b = ds.groupby([k, 'bar']).map_groups(g, batch_format='pandas')\n"
        "    c = ds.groupby('__bucket').map_groups(g)\n"
        "    d = ds.groupby(k).count()\n"
        "    return (ds.groupby(k)\n"
        "            .map_groups(g))\n"
    )
    assert _raw_key_hits(ast.parse(src)) == [2, 3, 6]


def test_sorted_per_key_scans_run_one_bucket_exchange():
    for (rel, fn), exchange in sorted(ONE_EXCHANGE.items()):
        with open(os.path.join(ROOT, rel)) as f:
            tree = ast.parse(f.read())
        (node,) = [n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == fn]
        calls = [
            c.func.attr if isinstance(c.func, ast.Attribute) else getattr(c.func, "id", None)
            for c in ast.walk(node)
            if isinstance(c, ast.Call)
        ]
        assert calls.count(exchange) == 1, (rel, fn)
        assert not {"sort", "map_groups", "union", "materialize", "bucket_keyed_fold"} & set(calls), (rel, fn)


def _tier_option_hits(tree: ast.AST) -> list:
    """(line, parameter) of every ``TIER_OPTION`` parameter and of every
    ``method`` parameter of a ``TIER_SWITCH`` function in ``tree``."""
    hits = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            a = node.args
            for arg in filter(None, [*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg, a.kwarg]):
                if TIER_OPTION.match(arg.arg) or (arg.arg == "method" and getattr(node, "name", None) in TIER_SWITCH):
                    hits.append((arg.lineno, arg.arg))
    return sorted(hits)


def _deleted_name_hits(src: str) -> list:
    return [i for i, line in enumerate(src.splitlines(), 1) if any(n in line for n in DELETED)]


def test_no_per_function_tier_options():
    found, allowed = [], set()
    for rel in _sources():
        with open(os.path.join(ROOT, rel)) as f:
            src = f.read()
        tree = ast.parse(src)
        for ln, name in _tier_option_hits(tree):
            site = (rel, _top_level_function(tree, ln), name)
            if site in BUDGET_ALLOWED:
                allowed.add(site)
            else:
                found.append((rel, ln, name))
        found += [(rel, ln, "deleted count merge") for ln in _deleted_name_hits(src)]
    assert not found, f"tier choices go through util.broadcast_fits, not an option: {found}"
    stale = set(BUDGET_ALLOWED) - allowed
    assert not stale, f"no longer a tier option; drop from BUDGET_ALLOWED: {sorted(stale)}"


def test_tier_option_guard_sees_the_patterns():
    """The scan flags every tier-option spelling, in any parameter kind
    and in lambdas, the ``method`` switch of both switch functions, and
    the deleted names; it skips the guards and stopping rules that are
    not tier choices and a ``method`` elsewhere."""
    src = (
        "def f(ds, broadcast_limit=2, *, host_broadcast_limit=4, broadcast_bytes_limit=1):\n"
        "    g = lambda exact_limit=1, driver_pair_limit=2: 0\n"
        "def h(driver_limit, /, hot_right_rows_limit=0, dedup_exact_limit=None, *, edge_budget=2, budget=1):\n"
        "    pass\n"
        "def cluster_assign(ids, pairs, *, method='auto'):\n"
        "    pass\n"
        "def connected_hosts(sf_dir, method='auto', cdf_limit=4, collect_limit=8, delta_bytes_limit=1):\n"
        "    pass\n"
        "def pagerank(edges, method='x', num_buckets=64):\n"
        "    return merge_int_counts, util.merge_pair_counts\n"
    )
    assert _tier_option_hits(ast.parse(src)) == [
        (1, "broadcast_bytes_limit"),
        (1, "broadcast_limit"),
        (1, "host_broadcast_limit"),
        (2, "driver_pair_limit"),
        (2, "exact_limit"),
        (3, "dedup_exact_limit"),
        (3, "driver_limit"),
        (3, "edge_budget"),
        (3, "hot_right_rows_limit"),
        (5, "method"),
        (7, "method"),
    ]
    assert _deleted_name_hits(src) == [10]


RAY_PLAN_NAMES = ("_logical_plan", "._plan.", "ray.data._internal.logical")


def _ray_plan_hits(src: str) -> list:
    """(line, top-level function) of every line of ``src`` that spells
    one of ``RAY_PLAN_NAMES``."""
    tree = ast.parse(src)
    return [
        (i, _top_level_function(tree, i))
        for i, line in enumerate(src.splitlines(), 1)
        if any(n in line for n in RAY_PLAN_NAMES)
    ]


def test_ray_plan_read_only_in_row_bound():
    outside, inside = [], 0
    for rel in _sources():
        with open(os.path.join(ROOT, rel)) as f:
            for ln, fn in _ray_plan_hits(f.read()):
                if (rel, fn) == ("dots_ocr_ray/util.py", "row_bound"):
                    inside += 1
                else:
                    outside.append((rel, ln, fn))
    assert not outside, f"Ray's internal plan is read only in util.row_bound: {outside}"
    assert inside, "util.row_bound no longer reads the plan; drop this guard with it"


def test_ray_plan_guard_sees_the_patterns():
    """The scan flags each spelling, inside or outside a function."""
    src = (
        "from ray.data._internal.logical.operators.map_operator import MapBatches\n"
        "def f(ds):\n"
        "    dag = ds._plan._logical_plan.dag\n"
        "    return ds._plan.execute(), ds._logical_plan\n"
        "def row_bound(ds):\n"
        "    return ds.count()\n"
    )
    assert _ray_plan_hits(src) == [(1, "<module>"), (3, "f"), (4, "f")]


def _fork_hits(tree: ast.Module) -> list:
    """Top-level functions of ``tree`` whose body (nested functions
    included) both calls ``broadcast_fits`` and calls ``hash_join``."""
    hits = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            called = {
                c.func.attr if isinstance(c.func, ast.Attribute) else getattr(c.func, "id", None)
                for c in ast.walk(node)
                if isinstance(c, ast.Call)
            }
            if {"broadcast_fits", "hash_join"} <= called:
                hits.append(node.name)
    return hits


def test_join_forks_only_in_hash_join():
    found = set()
    for rel in _sources():
        with open(os.path.join(ROOT, rel)) as f:
            found |= {(rel, fn) for fn in _fork_hits(ast.parse(f.read()))}
    outside = sorted(found - set(FORK_ALLOWED))
    assert not outside, f"hand-rolled broadcast-or-join forks; call relational.hash_join, which picks the tier: {outside}"
    stale = sorted(set(FORK_ALLOWED) - found)
    assert not stale, f"no longer a broadcast-or-join fork; drop from FORK_ALLOWED: {stale}"


def test_join_fork_guard_sees_the_pattern():
    """The scan flags a function that forks on the size rule around a
    join, also when the two calls sit in nested functions; it skips a
    function that only joins or only asks the rule."""
    src = (
        "def fork(side, ds):\n"
        "    if util.broadcast_fits(side.size_bytes()):\n"
        "        return ds.map_batches(probe)\n"
        "    return relational.hash_join(ds, side, on='k')\n"
        "def nested(side, ds):\n"
        "    def _fits():\n"
        "        return broadcast_fits(1)\n"
        "    return [hash_join(ds, side, on='k') for _ in range(2)]\n"
        "def only_join(ds, side):\n"
        "    return hash_join(ds, side, on='k')\n"
        "def only_rule(side):\n"
        "    return util.broadcast_fits(side.size_bytes())\n"
    )
    assert _fork_hits(ast.parse(src)) == ["fork", "nested"]
