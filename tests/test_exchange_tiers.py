"""The two tiers of util.bucket_exchange: a small input (at most
65,536 rows and one block's bytes) is folded in one map task, a larger
one goes through the sort shuffle.  The rows and bytes come from the
lazy plan's bound (``util.row_bound``) when it gives one, else from
counting the materialized input.  All three ways must give the same
output on the same input; the tier is picked by
``util._fold_in_one_task`` alone, which the tests patch to force the
shuffle, and ``util.row_bound`` is patched to take the counting path."""

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

import ray.data

import dots_ocr_ray.util as util
from dots_ocr_ray.pipelines.dedup import sorted_group_first
from dots_ocr_ray.pipelines.windows import sessionize
from test_entry_contract import SF_DIR


def _record_tiers(monkeypatch) -> list:
    """The list that each ``_fold_in_one_task`` decision is appended to."""
    taken = []
    real = util._fold_in_one_task
    monkeypatch.setattr(util, "_fold_in_one_task", lambda *a: taken.append(real(*a)) or taken[-1])
    return taken


def _tiers(monkeypatch, make):
    """``make()`` three ways: under the defaults, where every exchange
    it runs must take the one-task tier on the plan's bound; with no
    bound, as behind an undeclared map, so each exchange counts its
    materialized input and still takes the one-task tier; then with the
    shuffle forced."""
    taken = _record_tiers(monkeypatch)
    bounds = []
    real_bound = util.row_bound
    monkeypatch.setattr(util, "row_bound", lambda ds: bounds.append(real_bound(ds)) or bounds[-1])
    lazy = make()
    assert bounds and None not in bounds, bounds
    assert len(taken) == len(bounds) and all(taken), taken
    monkeypatch.setattr(util, "row_bound", lambda ds: None)
    del taken[:]
    counted = make()
    assert taken and all(taken), taken
    monkeypatch.setattr(util, "_fold_in_one_task", lambda rows, nbytes, rows_per_block: False)
    return lazy, counted, make()


def _sorted_frame(ds, by):
    return ds.to_pandas().sort_values(by).reset_index(drop=True)


def _table(n: int, seed: int) -> pa.Table:
    rng = np.random.default_rng(seed)
    k = rng.integers(-300, 300, size=n).astype(np.int64)
    k[: n // 3] = 7  # a hot key
    return pa.table(
        {
            "node": pa.array(k),
            "k2": pa.array(rng.integers(0, 3, size=n).astype(np.int64)),
            "host": pa.array([f"h{x % 41}" for x in k.tolist()]),
            "v": pa.array(rng.integers(-(10**12), 10**12, size=n).astype(np.int64)),
            "x": pa.array(rng.random(n) * 100.0),
        }
    )


def _blocks(t: pa.Table, parts: int = 5) -> "ray.data.Dataset":
    step = -(-t.num_rows // parts)
    return ray.data.from_arrow([t.slice(i, step) for i in range(0, t.num_rows, step)])


AGGS = {
    "s": ("sum", "v"),
    "lo": ("min", "v"),
    "hi": ("max", "x"),
    "xlo": ("min", "x"),
    "n": ("count", None),
}


@pytest.mark.parametrize("keys", [["node"], ["host"], ["node", "k2"]], ids=["int", "string", "two-column"])
@pytest.mark.parametrize("aggs", [AGGS, {}], ids=["sum-min-max-count", "distinct"])
def test_keyed_fold_tiers_equal(ray_session, monkeypatch, keys, aggs):
    ds = _blocks(_table(6000, seed=len(keys) + len(aggs)))
    lazy, counted, shuffled = _tiers(monkeypatch, lambda: _sorted_frame(util.bucket_keyed_fold(ds, keys, aggs), keys))
    assert len(lazy) == len(shuffled) > 0
    assert lazy.equals(counted) and lazy.equals(shuffled)


def test_exchange_folds_each_bucket_once_in_ascending_order(ray_session, monkeypatch):
    """The one-task tier keeps the ``map_groups`` contract: one fold
    call per non-empty bucket, ascending, each with all of its rows and
    the ``__bucket`` column."""
    ds = _blocks(_table(3000, seed=3))

    def _fold(group: pa.Table) -> pa.Table:
        bkt = group.column("__bucket").to_numpy()
        assert (bkt == bkt[0]).all()
        return pa.table({"b": [int(bkt[0])], "n": [group.num_rows], "s": [int(np.sum(group.column("v")))]})

    def make():
        return util.bucket_exchange(ds, "node", _fold, num_buckets=16).to_pandas()

    lazy, counted, shuffled = _tiers(monkeypatch, make)
    for one in (lazy, counted):
        assert one["b"].is_monotonic_increasing and one["b"].is_unique
        assert int(one["n"].sum()) == 3000
    assert lazy.equals(counted)
    assert lazy.equals(shuffled.sort_values("b").reset_index(drop=True))


def test_sorted_group_first_tiers_equal(ray_session, monkeypatch):
    t = _table(4000, seed=5).append_column("doc_id", pa.array(np.arange(4000)[::-1].astype(np.int64)))
    ds = _blocks(t)
    lazy, counted, shuffled = _tiers(monkeypatch, lambda: _sorted_frame(sorted_group_first(ds, ["host", "k2"], "doc_id"), ["host", "k2"]))
    assert len(lazy) == 41 * 3
    assert lazy.equals(counted) and lazy.equals(shuffled)


def test_sessionize_tiers_equal(ray_session, monkeypatch, tmp_path):
    rng = np.random.default_rng(9)
    ts = rng.integers(0, 2 * 86_400_000_000, size=3000)  # two days, in us
    events = pa.table({"user_id": rng.integers(0, 80, size=3000), "ts": pa.array(ts, pa.timestamp("us"))})
    pq.write_table(events, str(tmp_path / "events.parquet"), row_group_size=700)
    by = ["user_id", "session_id"]
    lazy, counted, shuffled = _tiers(monkeypatch, lambda: _sorted_frame(sessionize(str(tmp_path), gap_minutes=30), by))
    assert 80 < len(lazy) < 3000
    assert lazy.equals(counted) and lazy.equals(shuffled)


def test_empty_input_tiers_equal(ray_session, monkeypatch):
    ds = ray.data.from_arrow(_table(10, seed=1).slice(0, 0))

    def make():
        out = util.bucket_keyed_fold(ds, "node", AGGS)
        return out.count(), out.take_all()

    assert _tiers(monkeypatch, make) == ((0, []),) * 3


@pytest.mark.parametrize("n", [70_000, 2_000_000])
def test_large_fold_takes_the_shuffle(ray_session, monkeypatch, n):
    """Every distinct key survives the combiner: more rows than one
    task folds (70k is inside one block's rows, past the row cut), so
    the fold keeps the sort shuffle."""
    taken = _record_tiers(monkeypatch)
    groupbys = []
    real_groupby = ray.data.Dataset.groupby
    monkeypatch.setattr(ray.data.Dataset, "groupby", lambda self, key, *a, **kw: groupbys.append(key) or real_groupby(self, key, *a, **kw))
    ds = ray.data.range(n, override_num_blocks=4).map_batches(
        lambda b: {"node": b["id"] * 3}, batch_format="numpy"
    )
    util.bucket_keyed_fold(ds, "node", {"n": ("count", None)})
    assert taken == [False]
    assert groupbys == ["__bucket"]


def test_one_task_rule():
    cap = ray.data.DataContext.get_current().target_max_block_size
    assert util._fold_in_one_task(0, 0, 1)
    assert util._fold_in_one_task(100, cap, 100)
    assert not util._fold_in_one_task(101, 1, 100)
    assert not util._fold_in_one_task(1, cap + 1, 100)
    # the row cut holds whatever rows_per_block the caller passes
    assert util._fold_in_one_task(65_536, 1, 1_048_576)
    assert not util._fold_in_one_task(65_537, 1, 1_048_576)


def _maps():
    """A map declared ``rows_out(2)`` and an undeclared one, defined
    here so that workers unpickle them by value."""

    @util.rows_out(2)
    def _twice(batch: pa.Table) -> pa.Table:
        return pa.concat_tables([batch, batch])

    def _same(batch: pa.Table) -> pa.Table:
        return batch

    return _twice, _same


def test_row_bound_per_source_and_operator(ray_session, tmp_path):
    """Each source gives its metadata's rows, each operator kind carries
    or scales it, and anything the bound cannot see through gives None.
    Nothing runs: the rows are the sources' own, never a count."""
    _twice, _same = _maps()
    t = _table(1000, seed=2)
    pq.write_table(t, str(tmp_path / "t.parquet"), row_group_size=300)
    read = ray.data.read_parquet(str(tmp_path / "t.parquet"))
    arrow = _blocks(t)
    items = ray.data.from_items([{"a": i} for i in range(7)])
    mat = arrow.materialize()
    rows = lambda ds: util.row_bound(ds)[0]  # noqa: E731
    assert rows(read) == rows(arrow) == 1000 and rows(items) == 7
    assert util.row_bound(mat) == (1000, mat.size_bytes())
    assert rows(read.select_columns(["node"])) == 1000
    assert rows(read.filter(lambda r: r["node"] > 0)) == 1000
    assert rows(read.union(arrow, items)) == 2007
    twice = read.map_batches(_twice, batch_format="pyarrow")
    assert util.row_bound(twice) == tuple(2 * x for x in util.row_bound(read))
    assert rows(twice.map_batches(_twice, batch_format="pyarrow")) == 4000
    for unbounded in (
        read.map_batches(_same, batch_format="pyarrow"),
        twice.union(read.map_batches(_same, batch_format="pyarrow")),
        read.random_shuffle(),
        read.sort("node"),
        read.join(arrow, join_type="inner", num_partitions=2, on=("node",)),
    ):
        assert util.row_bound(unbounded) is None


def test_undeclared_map_counts_the_materialized_input(ray_session, monkeypatch):
    """An undeclared map upstream hides the bound, so the exchange
    materializes and counts its input; the fold is the same."""
    _, _same = _maps()
    ds = _blocks(_table(6000, seed=4))
    fold = lambda d: _sorted_frame(util.bucket_keyed_fold(d, "node", AGGS), ["node"])  # noqa: E731
    lazy = fold(ds)
    materialized = []
    real = ray.data.Dataset.materialize
    monkeypatch.setattr(ray.data.Dataset, "materialize", lambda self: materialized.append(1) or real(self))
    assert fold(ds.map_batches(_same, batch_format="pyarrow")).equals(lazy)
    assert materialized == [1]


def test_understated_fan_out_raises(ray_session):
    """A map declared ``rows_out(1)`` that doubles its rows, each copy a
    new key, overruns the bound: the fold raises rather than return
    part of the answer."""

    @util.rows_out(1)
    def _lie(batch: pa.Table) -> pa.Table:
        return pa.concat_tables([batch, batch.set_column(0, "node", pa.compute.add(batch.column("node"), 10**6))])

    ds = ray.data.from_arrow(pa.table({"node": pa.array(np.arange(500, dtype=np.int64))}))
    with pytest.raises(Exception, match=r"RuntimeError: bucket_exchange: a batch of \d+ rows exceeds the plan's bound of 500 rows"):
        util.bucket_keyed_fold(ds.map_batches(_lie, batch_format="pyarrow"), "node", {"n": ("count", None)}).materialize()


# Dataset executions of each benchmark fold query, its result collected
# once as the benchmark does: one per query, where the plan bounds every
# exchange's input; host_assortativity materializes its distinct edges
# and its degree table, each read twice
EXECUTIONS = {
    "host_degrees": 1,
    "host_assortativity": 3,
    "fd_check_lineitem": 1,
    "dedup_exact": 1,
    "window_distinct_users": 1,
}


def test_fold_query_executions(ray_session, monkeypatch):
    import pandas as pd
    from ray.data._internal.execution.streaming_executor import StreamingExecutor

    import __ray_entry__ as entry

    count = [0]
    real = StreamingExecutor.execute

    def _counted(self, *a, **kw):
        count[0] += 1
        return real(self, *a, **kw)

    monkeypatch.setattr(StreamingExecutor, "execute", _counted)
    queries, seen = entry.queries(), {}
    for name in EXECUTIONS:
        count[0] = 0
        out = queries[name](SF_DIR)
        assert len(out if isinstance(out, pd.DataFrame) else out.to_pandas())
        seen[name] = count[0]
    assert seen == EXECUTIONS


def test_cached_object_lru_bounded(ray_session):
    """cached_object, which holds the broadcast side of every broadcast
    tier in a worker, keeps only a few broadcast objects per worker
    process (bounded LRU) instead of pinning every past job's
    broadcasts forever."""
    import ray

    util._BROADCAST_CACHE.clear()
    refs = [ray.put(f"obj-{i}") for i in range(util._BROADCAST_CACHE_SLOTS + 3)]
    for r in refs:
        assert util.cached_object(r).startswith("obj-")
    assert len(util._BROADCAST_CACHE) == util._BROADCAST_CACHE_SLOTS
    # most recent entries survive; the oldest were evicted
    assert util.cached_object(refs[-1]) == f"obj-{len(refs)-1}"
