"""bucket_keyed_fold / bucket_exchange (util.py): the O(num_buckets)-Python
keyed aggregate must equal pyarrow's ``Table.group_by().aggregate`` on a
driver copy for every op, key shape and bucket count, and its bucket hash
must spread keys that share their low bits."""

import numpy as np
import pyarrow as pa
import pytest

import ray.data

from dots_ocr_ray.util import _fold_table, bucket_exchange, bucket_keyed_fold, key_buckets

_ARROW_OP = {"sum": "sum", "min": "min", "max": "max", "count": "count"}


def _sorted(t: pa.Table, keys: list) -> pa.Table:
    return t.sort_by([(k, "ascending") for k in keys])


def _fold(ds, keys, aggs, **kw) -> pa.Table:
    blocks = [b for b in ray.get(bucket_keyed_fold(ds, keys, aggs, **kw).to_arrow_refs()) if b.num_rows]
    names = list(keys) + list(aggs)
    if not blocks:
        return pa.table({n: [] for n in names})
    return _sorted(pa.concat_tables(blocks), keys).select(names)


def _want(t: pa.Table, keys, aggs) -> pa.Table:
    spec = [(col if op != "count" else keys[0], _ARROW_OP[op]) for op, col in aggs.values()]
    got = t.group_by(keys, use_threads=False).aggregate(spec)
    cols = {k: got.column(k) for k in keys}
    for out, (op, col) in aggs.items():
        src = f"{col if op != 'count' else keys[0]}_{_ARROW_OP[op]}"
        cols[out] = got.column(src)
    out = pa.table(cols)
    for k in keys:
        if pa.types.is_integer(out.column(k).type):
            out = out.set_column(out.column_names.index(k), k, out.column(k).cast(pa.int64()))
    return _sorted(out, keys)


def _table(n: int, seed: int) -> pa.Table:
    rng = np.random.default_rng(seed)
    k = rng.integers(-500, 500, size=n).astype(np.int64)
    k[: n // 2] = 42  # skew: half the rows on one hot key
    return pa.table(
        {
            "node": pa.array(k),
            "k2": pa.array(rng.integers(0, 3, size=n).astype(np.int64)),
            "host": pa.array([f"h{x % 37}" for x in k.tolist()]),
            "v": pa.array(rng.integers(-(10**12), 10**12, size=n).astype(np.int64)),
            "x": pa.array(rng.random(n) * 100.0),
        }
    )


ALL_OPS = {
    "s": ("sum", "v"),
    "lo": ("min", "v"),
    "hi": ("max", "v"),
    "n": ("count", None),
    "xs": ("sum", "x"),
    "xmin": ("min", "x"),
    "xmax": ("max", "x"),
}


@pytest.mark.parametrize("num_buckets", [1, 7, 64])
@pytest.mark.parametrize("keys", [["node"], ["host"], ["node", "k2"], ["host", "k2"]])
def test_fold_matches_arrow_group_by(ray_session, num_buckets, keys):
    t = _table(6_000, seed=7)
    ds = ray.data.from_arrow(t).repartition(9)
    got = _fold(ds, keys, ALL_OPS, num_buckets=num_buckets)
    want = _want(t, keys, ALL_OPS)
    for name in keys + ["s", "lo", "hi", "n", "xmin", "xmax"]:
        assert got.column(name).to_pylist() == want.column(name).to_pylist(), name
    assert got.schema.field("s").type == pa.int64()
    assert got.schema.field("n").type == pa.int64()
    assert got.schema.field("xs").type == pa.float64()
    # float sums differ from arrow's only by addition order
    np.testing.assert_allclose(got.column("xs").to_numpy(), want.column("xs").to_numpy(), rtol=1e-12)


@pytest.mark.parametrize("keys", [["node"], ["host"], ["node", "k2"]])
def test_fold_distinct(ray_session, keys):
    t = _table(3_000, seed=11)
    got = _fold(ray.data.from_arrow(t).repartition(5), keys, {}, num_buckets=7)
    assert got.column_names == keys
    want = _sorted(t.group_by(keys).aggregate([]), keys)
    for k in keys:
        assert got.column(k).to_pylist() == want.column(k).to_pylist()


def test_fold_int64_extremes(ray_session):
    big = np.iinfo(np.int64)
    k = np.array([big.min, big.max, -1, big.min, big.max], dtype=np.int64)
    v = np.array([big.min + 1, big.max, 0, 5, -7], dtype=np.int64)
    ds = ray.data.from_arrow(pa.table({"k": k, "v": v})).repartition(3)
    got = _fold(ds, ["k"], {"lo": ("min", "v"), "hi": ("max", "v")})
    assert got.column("k").to_pylist() == [big.min, -1, big.max]
    assert got.column("lo").to_pylist() == [big.min + 1, 0, -7]
    assert got.column("hi").to_pylist() == [5, 0, big.max]


def test_fold_empty_input(ray_session):
    t = pa.table({"k": pa.array([], pa.int64()), "v": pa.array([], pa.int64())})
    out = bucket_keyed_fold(ray.data.from_arrow(t), "k", {"s": ("sum", "v")})
    assert out.count() == 0


@pytest.mark.parametrize("num_buckets", [1, 7, 64])
def test_fold_sum_matches_native(ray_session, num_buckets):
    rng = np.random.default_rng(7)
    k = rng.integers(-500, 500, size=20_000).astype(np.int64)
    k[:10_000] = 42
    v = rng.integers(-(10**12), 10**12, size=20_000).astype(np.int64)
    ds = ray.data.from_arrow(pa.table({"node": pa.array(k), "deg": pa.array(v)})).repartition(9)

    got = _fold(ds, ["node"], {"deg": ("sum", "deg")}, num_buckets=num_buckets)
    want = _sorted(pa.Table.from_pandas(ds.groupby("node").sum("deg").to_pandas()), ["node"])
    assert got.column("node").to_pylist() == want.column("node").to_pylist()
    assert got.column("deg").to_pylist() == want.column("sum(deg)").to_pylist()


def test_fold_min_and_distinct(ray_session):
    rng = np.random.default_rng(11)
    k = rng.integers(0, 300, size=5_000).astype(np.int64)
    v = rng.integers(np.iinfo(np.int64).min + 1, np.iinfo(np.int64).max, size=5_000)
    ds = ray.data.from_arrow(
        pa.table({"node": pa.array(k), "label": pa.array(v.astype(np.int64))})
    ).repartition(5)

    got = _fold(ds, ["node"], {"label": ("min", "label")})
    want = _sorted(pa.Table.from_pandas(ds.groupby("node").min("label").to_pandas()), ["node"])
    assert got.column("node").to_pylist() == want.column("node").to_pylist()
    assert got.column("label").to_pylist() == want.column("min(label)").to_pylist()

    dist = _fold(ds, ["node"], {})
    assert dist.column_names == ["node"]
    assert dist.column("node").to_pylist() == sorted(set(k.tolist()))


def test_fold_rejects_bad_args(ray_session):
    ds = ray.data.from_items([{"node": 1, "v": 2}])
    with pytest.raises(ValueError):
        bucket_keyed_fold(ds, "node", {"m": ("median", "v")})
    with pytest.raises(ValueError):
        bucket_keyed_fold(ds, "node", {"s": ("sum", None)})


@pytest.mark.parametrize("shape", ["shifted", "multiple_of_64"])
def test_bucket_spread(shape):
    """Keys that differ only above their low bits must still reach every
    bucket: ``k * GOLDEN % 64`` put all multiples of 64 in one."""
    n = 100_000
    k = np.arange(n, dtype=np.int64)
    k = k << 32 if shape == "shifted" else k * 64
    bkt = key_buckets(pa.table({"k": k}), ["k"], 64)
    counts = np.bincount(bkt, minlength=64)
    assert (counts > 0).all()
    assert counts.max() < 2 * n / 64


def test_exchange_colocates_keys(ray_session):
    """Every row of a key reaches the same fold call."""
    t = _table(4_000, seed=3)

    def _fold_hosts(group: pa.Table) -> pa.Table:
        hosts = sorted(set(group.column("host").to_pylist()))
        return pa.table({"host": hosts, "rows": [group.num_rows] * len(hosts)})

    out = bucket_exchange(ray.data.from_arrow(t).repartition(6), "host", _fold_hosts, num_buckets=7)
    hosts = [r["host"] for r in out.take_all()]
    assert sorted(hosts) == sorted(set(t.column("host").to_pylist()))


def _both_fold_tiers(monkeypatch, make):
    """``make()`` once per :func:`bucket_exchange` tier: the one-task
    fold, then the forced sort shuffle."""
    from dots_ocr_ray import util

    out = []
    for one_task in (True, False):
        monkeypatch.setattr(util, "_fold_in_one_task", lambda *a, _t=one_task: _t)
        out.append(make())
    return out


def test_pair_sum_tiers_vs_pandas(ray_session, monkeypatch):
    """A two-int64-key sum fold ≡ pandas groupby-sum on (a, b), for BOTH
    fold tiers, over extreme / negative int64 keys."""
    import pandas as pd

    rng = np.random.RandomState(7)
    a = np.concatenate(
        [rng.randint(-5, 5, 300), np.array([1 << 62, -(1 << 62), 1 << 40] * 10)]
    ).astype(np.int64)
    b = np.concatenate(
        [rng.randint(-3, 3, 300), np.array([-(1 << 61), 1 << 55, 7] * 10)]
    ).astype(np.int64)
    c = rng.randint(1, 9, len(a)).astype(np.int64)
    t = pa.table(
        {
            "x": pa.array(a, type=pa.int64()),
            "y": pa.array(b, type=pa.int64()),
            "n": pa.array(c, type=pa.int64()),
        }
    )
    expect = (
        pd.DataFrame({"x": a, "y": b, "n": c})
        .groupby(["x", "y"], sort=True)["n"]
        .sum()
        .reset_index()
    )
    ds = ray.data.from_arrow(t).repartition(5)
    for got in _both_fold_tiers(
        monkeypatch,
        lambda: bucket_keyed_fold(ds, ["x", "y"], {"n": ("sum", "n")})
        .to_pandas()
        .sort_values(["x", "y"])
        .reset_index(drop=True),
    ):
        pd.testing.assert_frame_equal(got, expect.astype("int64"))


def test_int_sum_tiers(ray_session, monkeypatch):
    """An int64-key sum fold: both fold tiers agree with a plain numpy
    count."""
    rng = np.random.default_rng(5)
    k = rng.integers(-50, 50, 2_000).astype(np.int64)
    c = rng.integers(1, 4, 2_000).astype(np.int64)
    ds = ray.data.from_arrow(pa.table({"k": k, "c": c})).repartition(4)
    uniq, inv = np.unique(k, return_inverse=True)
    want = np.zeros(len(uniq), np.int64)
    np.add.at(want, inv, c)
    for got in _both_fold_tiers(
        monkeypatch, lambda: bucket_keyed_fold(ds, "k", {"c": ("sum", "c")}).to_pandas().sort_values("k")
    ):
        assert got["k"].tolist() == uniq.tolist()
        assert got["c"].tolist() == want.tolist()


def _typed_table(n: int, seed: int) -> pa.Table:
    """Key and value types the package's keyed aggregates use: timestamp,
    bool, string and int keys (some null); int32 and float32 values."""
    rng = np.random.default_rng(seed)
    day = rng.integers(0, 20, size=n)
    host = np.array([f"h{x}" for x in rng.integers(0, 9, size=n)], dtype=object)
    host[rng.random(n) < 0.1] = None
    lang = rng.integers(0, 4, size=n).astype(np.int64)
    return pa.table(
        {
            "ts": pa.array((day * 86_400_000_000).astype("datetime64[us]")),
            "flag": pa.array(rng.random(n) < 0.3),
            "host": pa.array(host.tolist(), type=pa.string()),
            "lang": pa.array(lang, mask=rng.random(n) < 0.05),
            "v32": pa.array(rng.integers(-(2**31), 2**31 - 1, size=n).astype(np.int32)),
            "f32": pa.array((rng.random(n) * 100).astype(np.float32)),
        }
    )


def _fill_null_keys(t: pa.Table, keys: list) -> pa.Table:
    for k in keys:
        col = t.column(k)
        fill = "<null>" if pa.types.is_string(col.type) else -1
        if col.null_count:
            t = t.set_column(t.column_names.index(k), k, col.fill_null(fill))
    return _sorted(t, keys)


TYPED_OPS = {
    "s": ("sum", "v32"),
    "lo": ("min", "v32"),
    "hi": ("max", "v32"),
    "n": ("count", None),
    "fs": ("sum", "f32"),
    "flo": ("min", "f32"),
    "fhi": ("max", "f32"),
}


@pytest.mark.parametrize(
    "keys",
    [["ts"], ["flag"], ["host"], ["lang"], ["ts", "flag"], ["host", "lang"], ["ts", "host", "flag"]],
)
def test_fold_key_and_value_types(ray_session, keys):
    t = _typed_table(4_000, seed=13)
    got = _fill_null_keys(_fold(ray.data.from_arrow(t).repartition(6), keys, TYPED_OPS, num_buckets=7), keys)
    # pyarrow 16's multi-column group_by splits a null-key group by the
    # values under its null slots, so the driver copy gets sentinel keys
    want = _want(_fill_null_keys(t, keys), keys, TYPED_OPS)
    assert got.num_rows == want.num_rows
    for name in keys + ["s", "lo", "hi", "n", "flo", "fhi"]:
        assert got.column(name).to_pylist() == want.column(name).to_pylist(), name
    assert got.schema.field("s").type == pa.int64()
    assert got.schema.field("fs").type == pa.float64()
    np.testing.assert_allclose(got.column("fs").to_numpy(), want.column("fs").to_numpy(), rtol=1e-5)


def test_fold_null_keys_group_as_one(ray_session):
    t = pa.table({"k": pa.array([1, None, 1, None, 2], pa.int64()), "v": pa.array([1, 2, 3, 4, 5], pa.int64())})
    got = _fold(ray.data.from_arrow(t).repartition(3), ["k"], {"s": ("sum", "v"), "n": ("count", None)})
    assert got.column("k").to_pylist() == [1, 2, None]
    assert got.column("s").to_pylist() == [4, 5, 6]
    assert got.column("n").to_pylist() == [2, 1, 2]


def test_fold_int_key_hash_ignores_nulls_in_batch():
    """A large int key hashes to the same bucket whether or not its batch
    also holds nulls (a null-bearing column must not round-trip through
    float64)."""
    big = (1 << 60) + 1
    plain = key_buckets(pa.table({"k": pa.array([big], pa.int64())}), ["k"], 64)
    mixed = key_buckets(pa.table({"k": pa.array([big, None], pa.int64())}), ["k"], 64)
    assert plain[0] == mixed[0]


@pytest.mark.parametrize("op", ["sum", "min", "max"])
@pytest.mark.parametrize("typ", [pa.int64(), pa.float64()])
def test_fold_rejects_null_values(ray_session, op, typ):
    """Ray's native Sum skips nulls; the fold would read a null int as
    garbage and a null float as nan, so it refuses them by name."""
    t = pa.table({"k": pa.array([1, 1], pa.int64()), "price": pa.array([5, None], typ)})
    with pytest.raises(ValueError, match="price"):
        _fold_table(t, ["k"], {"out": (op, "price")})
    # Ray Data re-raises a task's ValueError as a UserCodeException that
    # carries the original's type and message
    with pytest.raises(Exception, match=r"ValueError.*'price'"):
        bucket_keyed_fold(ray.data.from_arrow(t), "k", {"out": (op, "price")}).materialize()


def test_fold_counts_rows_with_null_values(ray_session):
    t = pa.table({"k": pa.array([1, 1], pa.int64()), "price": pa.array([5, None], pa.int64())})
    got = _fold(ray.data.from_arrow(t), ["k"], {"n": ("count", None)})
    assert got.column("n").to_pylist() == [2]


def _distinct_counts_table() -> pa.Table:
    """int, string and timestamp keys (the string key has nulls) over
    int64 values of 2^40 and below zero, some null."""
    rng = np.random.default_rng(17)
    n = 3_000
    k = rng.integers(-40, 40, size=n).astype(np.int64)
    host = np.array([f"h{x % 23}" for x in k.tolist()], dtype=object)
    host[rng.random(n) < 0.05] = None
    v = rng.choice(np.array([1 << 40, -(1 << 40), -7, 0, 3, 1 << 62], dtype=np.int64), size=n)
    v = v + rng.integers(0, 4, size=n)
    return pa.table(
        {
            "k": pa.array(k),
            "host": pa.array(host.tolist(), type=pa.string()),
            "ts": pa.array(((k % 11) * 3_600_000_000).astype("datetime64[us]")),
            "v": pa.array(v, mask=rng.random(n) < 0.1),
            "s": pa.array([f"u{x}" for x in (v % 50).tolist()], type=pa.string()),
        }
    )


def _distinct_counts(ds, key: str, col: str) -> pa.Table:
    from dots_ocr_ray.util import bucket_distinct_counts

    blocks = ray.get(bucket_distinct_counts(ds, key, col, "n").to_arrow_refs())
    return _sorted(pa.concat_tables(blocks), [key])


@pytest.mark.parametrize("key,col", [("k", "v"), ("host", "v"), ("ts", "v"), ("k", "s"), ("host", "s")])
def test_distinct_counts_vs_arrow(ray_session, monkeypatch, key, col):
    """COUNT(DISTINCT col) per key ≡ pyarrow's ``count_distinct`` (null
    values skipped, a null key one group) under both fold tiers."""
    t = _distinct_counts_table()
    want = t.group_by(key, use_threads=False).aggregate([(col, "count_distinct")])
    want = _sorted(pa.table({key: want.column(key), "n": want.column(f"{col}_count_distinct")}), [key])
    if pa.types.is_integer(want.column(key).type):
        want = want.set_column(0, key, want.column(key).cast(pa.int64()))
    ds = ray.data.from_arrow(t).repartition(7)
    for got in _both_fold_tiers(monkeypatch, lambda: _distinct_counts(ds, key, col)):
        assert got.column_names == [key, "n"]
        assert got.schema.field("n").type == pa.int64()
        assert got.column(key).to_pylist() == want.column(key).to_pylist()
        assert got.column("n").to_pylist() == want.column("n").to_pylist()


def test_distinct_counts_null_values_and_keys(ray_session, monkeypatch):
    """A key whose values are all null counts 0; null keys group as one."""
    t = pa.table(
        {
            "k": pa.array([1, 1, 1, 2, None, None, None, 3], pa.int64()),
            "v": pa.array([1 << 40, 1 << 40, None, None, -5, -5, 6, None], pa.int64()),
        }
    )
    ds = ray.data.from_arrow(t).repartition(3)
    for got in _both_fold_tiers(monkeypatch, lambda: _distinct_counts(ds, "k", "v")):
        assert got.column("k").to_pylist() == [1, 2, 3, None]
        assert got.column("n").to_pylist() == [1, 0, 0, 2]


def test_distinct_counts_empty_input(ray_session, monkeypatch):
    from dots_ocr_ray.util import bucket_distinct_counts

    t = pa.table({"k": pa.array([], pa.int64()), "v": pa.array([], pa.int64())})
    for n in _both_fold_tiers(
        monkeypatch, lambda: bucket_distinct_counts(ray.data.from_arrow(t), "k", "v", "n").count()
    ):
        assert n == 0
