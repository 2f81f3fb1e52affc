"""The two tiers of util.bucket_exchange: a small input (at most
65,536 rows and one block's bytes) is folded in one map task, a larger
one goes through the sort shuffle.  Both must give the same output on
the same input; the tier is picked by ``util._fold_in_one_task`` alone,
which the tests patch to force the shuffle."""

import numpy as np
import pyarrow as pa
import pytest

import ray.data

import dots_ocr_ray.util as util
from dots_ocr_ray.pipelines.dedup import sorted_group_first
from dots_ocr_ray.pipelines.windows import sessionize

def _record_tiers(monkeypatch) -> list:
    """The list that each ``_fold_in_one_task`` decision is appended to."""
    taken = []
    real = util._fold_in_one_task
    monkeypatch.setattr(util, "_fold_in_one_task", lambda *a: taken.append(real(*a)) or taken[-1])
    return taken


def _tiers(monkeypatch, make):
    """``make()`` under the defaults, where every exchange it runs must
    take the one-task tier, then with the shuffle forced."""
    taken = _record_tiers(monkeypatch)
    one = make()
    assert taken and all(taken), taken
    monkeypatch.setattr(util, "_fold_in_one_task", lambda rows, nbytes, rows_per_block: False)
    return one, make()


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
    one, shuffled = _tiers(monkeypatch, lambda: _sorted_frame(util.bucket_keyed_fold(ds, keys, aggs), keys))
    assert len(one) == len(shuffled) > 0
    assert one.equals(shuffled)


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

    one, shuffled = _tiers(monkeypatch, make)
    assert one["b"].is_monotonic_increasing and one["b"].is_unique
    assert int(one["n"].sum()) == 3000
    assert one.sort_values("b").reset_index(drop=True).equals(shuffled.sort_values("b").reset_index(drop=True))


def test_sorted_group_first_tiers_equal(ray_session, monkeypatch):
    t = _table(4000, seed=5).append_column("doc_id", pa.array(np.arange(4000)[::-1].astype(np.int64)))
    ds = _blocks(t)
    one, shuffled = _tiers(monkeypatch, lambda: _sorted_frame(sorted_group_first(ds, ["host", "k2"], "doc_id"), ["host", "k2"]))
    assert len(one) == 41 * 3
    assert one.equals(shuffled)


def test_sessionize_tiers_equal(ray_session, monkeypatch, tmp_path):
    import pyarrow.parquet as pq

    rng = np.random.default_rng(9)
    ts = rng.integers(0, 2 * 86_400_000_000, size=3000)  # two days, in us
    events = pa.table({"user_id": rng.integers(0, 80, size=3000), "ts": pa.array(ts, pa.timestamp("us"))})
    pq.write_table(events, str(tmp_path / "events.parquet"), row_group_size=700)
    by = ["user_id", "session_id"]
    one, shuffled = _tiers(monkeypatch, lambda: _sorted_frame(sessionize(str(tmp_path), gap_minutes=30), by))
    assert 80 < len(one) < 3000
    assert one.equals(shuffled)


def test_empty_input_tiers_equal(ray_session, monkeypatch):
    ds = ray.data.from_arrow(_table(10, seed=1).slice(0, 0))

    def make():
        out = util.bucket_keyed_fold(ds, "node", AGGS)
        return out.count(), out.take_all()

    one, shuffled = _tiers(monkeypatch, make)
    assert one == shuffled == (0, [])


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
