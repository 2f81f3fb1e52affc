"""Tests for relational/window ops vs DuckDB ground truth."""

import duckdb
import pytest

from dots_ocr_ray.pipelines.relational import (
    events_windowed_agg,
    lineitem_pricing_summary,
    orders_by_mktsegment,
    top_customers_by_spend,
)

SF_DIR = "/root/testdata/sf0.001"


@pytest.fixture(scope="module")
def con():
    c = duckdb.connect()
    for t in ["lineitem", "orders", "customer", "events", "part", "supplier", "nation"]:
        c.execute(f"CREATE VIEW {t} AS SELECT * FROM '{SF_DIR}/{t}.parquet'")
    return c


def test_pricing_summary_matches_duckdb(ray_session, con):
    got = (
        lineitem_pricing_summary(SF_DIR)
        .to_pandas()
        .sort_values(["l_returnflag", "l_linestatus"])
        .reset_index(drop=True)
    )
    want = con.execute(
        """SELECT l_returnflag, l_linestatus, sum(l_quantity) AS sum_qty,
                  sum(l_extendedprice) AS sum_base_price,
                  sum(l_extendedprice*(1-l_discount)) AS sum_disc_price,
                  count(*) AS count_order
           FROM lineitem GROUP BY 1,2 ORDER BY 1,2"""
    ).df()
    assert len(got) == len(want)
    for col in ["sum_qty", "sum_base_price", "sum_disc_price"]:
        assert abs(got[col] - want[col]).max() < 1e-6
    assert (got.count_order == want.count_order).all()


def test_orders_by_mktsegment(ray_session, con):
    got = orders_by_mktsegment(SF_DIR).to_pandas().sort_values("c_mktsegment").reset_index(drop=True)
    want = con.execute(
        """SELECT c_mktsegment, sum(o_totalprice) AS total_price, count(*) AS n_orders
           FROM orders JOIN customer ON o_custkey = c_custkey
           GROUP BY 1 ORDER BY 1"""
    ).df()
    assert list(got.c_mktsegment) == list(want.c_mktsegment)
    assert abs(got.total_price - want.total_price).max() < 1e-6
    assert (got.n_orders == want.n_orders).all()


def test_events_windowed_agg(ray_session, con):
    got = (
        events_windowed_agg(SF_DIR, window_minutes=60)
        .to_pandas()
        .sort_values(["event_type", "window_start"])
        .reset_index(drop=True)
    )
    want = con.execute(
        """SELECT event_type, time_bucket(INTERVAL 60 MINUTES, ts) AS window_start,
                  sum(value) AS sum_value, count(*) AS n_events
           FROM events GROUP BY 1,2 ORDER BY 1,2"""
    ).df()
    assert len(got) == len(want)
    assert (got.n_events.values == want.n_events.values).all()
    assert abs(got.sum_value - want.sum_value).max() < 1e-6


def test_top_customers(ray_session, con):
    got = top_customers_by_spend(SF_DIR, k=10).to_pandas()
    want = con.execute(
        """SELECT o_custkey, round(sum(o_totalprice),2) AS total_spend
           FROM orders GROUP BY 1 ORDER BY sum(o_totalprice) DESC LIMIT 10"""
    ).df()
    assert list(got.o_custkey) == list(want.o_custkey)
    assert abs(got.total_spend - want.total_spend).max() < 0.01


def test_topk_tie_break_matches_duckdb(ray_session, tmp_path):
    """Manufactured ties at the k boundary: the engine's (spend DESC,
    custkey ASC) sort must pick exactly the rows DuckDB picks."""
    import duckdb
    import pyarrow as pa
    import pyarrow.parquet as pq

    rows = {"o_custkey": [], "o_totalprice": []}
    for ck in range(1, 21):
        rows["o_custkey"].append(ck)
        rows["o_totalprice"].append(100.0 if ck % 2 == 0 else 50.0)  # ten-way tie at 100
    sf = tmp_path / "sf"
    sf.mkdir()
    pq.write_table(pa.table(rows), str(sf / "orders.parquet"))

    got = top_customers_by_spend(str(sf), k=5)
    con2 = duckdb.connect()
    want = con2.execute(
        f"""SELECT o_custkey, round(sum(o_totalprice), 2) AS total_spend
            FROM '{sf}/orders.parquet' GROUP BY o_custkey
            ORDER BY sum(o_totalprice) DESC, o_custkey LIMIT 5"""
    ).df()
    assert got.column("o_custkey").to_pylist() == want["o_custkey"].tolist()
    assert got.column("total_spend").to_pylist() == want["total_spend"].tolist()


def test_grouped_topk_with_ties(ray_session):
    import ray.data

    from dots_ocr_ray.pipelines.relational import grouped_topk

    rows = [
        {"k": "a", "id": 1, "v": 10}, {"k": "a", "id": 2, "v": 10},
        {"k": "a", "id": 3, "v": 10}, {"k": "a", "id": 4, "v": 5},
        {"k": "b", "id": 5, "v": 1},
    ]
    out = (
        grouped_topk(ray.data.from_items(rows), key_col="k", value_col="v", id_col="id", k=2)
        .to_pandas()
        .sort_values(["k", "id"])
    )
    assert out[out.k == "a"].id.tolist() == [1, 2]  # tie broken by id asc
    assert out[out.k == "b"].id.tolist() == [5]


def test_exact_int_quantiles_matches_duckdb(ray_session, con):
    import ray.data

    from dots_ocr_ray.pipelines.relational import exact_int_quantiles

    docs = ray.data.read_parquet(f"{SF_DIR}/documents.parquet", columns=["n_chars"])
    got = exact_int_quantiles(docs, "n_chars", [0.1, 0.5, 0.9]).to_pydict()
    con2 = duckdb.connect()
    for q, v in zip(got["q"], got["value"]):
        want = con2.execute(
            f"SELECT quantile_disc(n_chars, {q}) FROM '{SF_DIR}/documents.parquet'"
        ).fetchone()[0]
        assert v == want, (q, v, want)


def test_hash_join_inner_and_left(ray_session, exchange_tier):
    """Both join tiers equal a pandas merge: inner and left semantics,
    overlapping non-key columns suffixed, keys split across many
    buckets/blocks."""
    import pandas as pd

    import ray.data

    from dots_ocr_ray.pipelines.relational import hash_join

    left_rows = [{"k": i % 37, "lv": i, "name": f"l{i}"} for i in range(500)]
    right_rows = [{"k": k, "rv": k * 10, "name": f"r{k}"} for k in range(0, 37, 2)]
    left = ray.data.from_items(left_rows).repartition(8)
    right = ray.data.from_items(right_rows).repartition(3)

    for forced, how in [(f, h) for f in (False, True) for h in ("inner", "left")]:
        exchange_tier(forced)
        got = (
            hash_join(left, right, on="k", how=how, num_buckets=16)
            .to_pandas()
            .sort_values(["k", "lv"])
            .reset_index(drop=True)
        )
        want = (
            pd.DataFrame(left_rows)
            .merge(pd.DataFrame(right_rows), on="k", how=how, suffixes=("", "_r"))
            .sort_values(["k", "lv"])
            .reset_index(drop=True)
        )
        assert list(got.columns) == list(want.columns)
        pd.testing.assert_frame_equal(got, want, check_dtype=False)


def test_hash_join_string_keys_deterministic(ray_session, exchange_tier):
    import ray.data

    from dots_ocr_ray.pipelines.relational import hash_join

    left = ray.data.from_items([{"u": f"url-{i%11}", "x": i} for i in range(100)])
    right = ray.data.from_items([{"u": f"url-{k}", "y": k} for k in range(0, 11, 3)])

    def run():
        return hash_join(left, right, on="u").to_pandas().sort_values(["u", "x"]).reset_index(drop=True)

    a = run()  # broadcast tier
    exchange_tier()
    b, c = run(), run()
    assert a.equals(b) and b.equals(c)
    assert set(a.u) == {f"url-{k}" for k in range(0, 11, 3)}


def test_grouped_topk_combiner_and_ascending(ray_session):
    """The per-batch local-top-k combiner must not change results, in
    either direction, across many blocks."""
    import pandas as pd

    import ray.data

    from dots_ocr_ray.pipelines.relational import grouped_topk

    rows = [{"g": f"g{i % 7}", "v": (i * 37) % 101, "i": i} for i in range(600)]
    ds = ray.data.from_items(rows).repartition(12)
    for asc in (False, True):
        got = (
            grouped_topk(ds, key_col="g", value_col="v", id_col="i", k=4, ascending=asc)
            .to_pandas()
            .sort_values(["g", "v", "i"])
            .reset_index(drop=True)
        )
        df = pd.DataFrame(rows)
        df = df.sort_values(["v", "i"], ascending=[asc, True]).groupby("g").head(4)
        want = df.sort_values(["g", "v", "i"]).reset_index(drop=True)
        pd.testing.assert_frame_equal(got[["g", "v", "i"]], want[["g", "v", "i"]], check_dtype=False)


def test_hash_join_semi_anti(ray_session, exchange_tier):
    """semi keeps exactly the matched left rows, anti the complement;
    left columns only, int dtypes restored; in both tiers."""
    import ray.data

    from dots_ocr_ray.pipelines.relational import hash_join

    left = ray.data.from_items([{"k": i, "v": i * 10} for i in range(20)])
    right = ray.data.from_items([{"k": i} for i in range(0, 20, 3)])  # 0,3,..,18
    for forced in (False, True):
        exchange_tier(forced)
        semi = hash_join(left, right, on="k", how="semi").to_pandas()
        anti = hash_join(left, right, on="k", how="anti").to_pandas()
        assert sorted(semi.k) == list(range(0, 20, 3))
        assert sorted(anti.k) == [i for i in range(20) if i % 3 != 0]
        assert list(semi.columns) == ["k", "v"] and list(anti.columns) == ["k", "v"]
        assert semi.k.dtype.kind == "i" and anti.v.dtype.kind == "i"
        assert (semi.v == semi.k * 10).all() and (anti.v == anti.k * 10).all()


def test_range_join_matches_bruteforce(ray_session):
    """Bucketed band join == brute-force interval containment,
    including negative values and bucket-boundary endpoints."""
    import numpy as np
    import ray.data

    from dots_ocr_ray.pipelines.relational import range_join

    rng = np.random.RandomState(7)
    lo = np.round(rng.uniform(-100, 100, 40), 2)
    hi = lo + np.round(rng.uniform(0, 30, 40), 2)
    vals = np.round(rng.uniform(-120, 130, 200), 2)
    left = ray.data.from_items(
        [{"lid": int(i), "lo": float(lo[i]), "hi": float(hi[i])} for i in range(40)]
    )
    right = ray.data.from_items(
        [{"rid": int(j), "val": float(vals[j])} for j in range(200)]
    )
    out = range_join(
        left, right, left_lo="lo", left_hi="hi", right_on="val", bucket_width=10.0
    ).to_pandas()
    got = set(zip(out.lid, out.rid))
    want = {
        (i, j)
        for i in range(40)
        for j in range(200)
        if lo[i] <= vals[j] <= hi[i]
    }
    assert got == want
    assert len(out) == len(want)  # one row per match, no bucket dups


def test_range_join_span_guard(ray_session):
    import pytest as _pytest
    import ray.data

    from dots_ocr_ray.pipelines.relational import range_join

    left = ray.data.from_items([{"lo": 0.0, "hi": 1e6}])
    right = ray.data.from_items([{"val": 5.0}])
    with _pytest.raises(Exception, match="max_buckets_per_row"):
        range_join(
            left, right, left_lo="lo", left_hi="hi", right_on="val", bucket_width=1.0
        ).materialize()


def test_exact_int_quantiles_by_key(ray_session):
    """Grouped quantile walk matches a per-group sorted-rank oracle."""
    import math

    import numpy as np
    import ray.data

    from dots_ocr_ray.pipelines.relational import exact_int_quantiles_by_key

    rng = np.random.RandomState(11)
    rows = [
        {"g": f"g{int(i % 3)}", "x": int(rng.randint(0, 50))} for i in range(999)
    ]
    out = exact_int_quantiles_by_key(
        ray.data.from_items(rows), "g", "x", [0.5, 0.9]
    ).to_pandas()
    by_g: dict = {}
    for r in rows:
        by_g.setdefault(r["g"], []).append(r["x"])
    for g, xs in by_g.items():
        xs = sorted(xs)
        for q in (0.5, 0.9):
            want = xs[max(1, math.ceil(q * len(xs))) - 1]
            got = out[(out.g == g) & (out.q == q)].value.iloc[0]
            assert got == want, (g, q)


def test_rollup_counts(ray_session):
    import ray.data

    from dots_ocr_ray.pipelines.relational import rollup_counts

    rows = (
        [{"a": "x", "b": "p"}] * 3
        + [{"a": "x", "b": "q"}] * 2
        + [{"a": "y", "b": "p"}] * 4
    )
    out = rollup_counts(ray.data.from_items(rows), ["a", "b"]).to_pandas()
    m = {(r.a, r.b): r.n_rows for r in out.itertuples()}
    assert m == {
        ("x", "p"): 3,
        ("x", "q"): 2,
        ("y", "p"): 4,
        ("x", "*"): 5,
        ("y", "*"): 4,
        ("*", "*"): 9,
    }


def test_linreg_by_key_matches_numpy(ray_session):
    import numpy as np
    import ray.data

    from dots_ocr_ray.pipelines.relational import linreg_by_key

    rng = np.random.default_rng(3)
    rows = []
    for g, slope, icpt in (("a", 2.0, 5.0), ("b", -1.5, 0.0)):
        x = rng.uniform(0, 100, 400)
        y = slope * x + icpt + rng.normal(0, 1.0, 400)
        rows += [{"g": g, "x": float(xv), "y": float(yv)} for xv, yv in zip(x, y)]
    ds = ray.data.from_items(rows)
    out = linreg_by_key(ds, key="g", x="x", y="y")
    got = {
        k: (s, i, r)
        for k, s, i, r in zip(
            out.column("g").to_pylist(),
            out.column("slope").to_pylist(),
            out.column("intercept").to_pylist(),
            out.column("r2").to_pylist(),
        )
    }
    for g in ("a", "b"):
        xs = np.array([r["x"] for r in rows if r["g"] == g])
        ys = np.array([r["y"] for r in rows if r["g"] == g])
        ref_s, ref_i = np.polyfit(xs, ys, 1)
        assert abs(got[g][0] - ref_s) < 1e-8
        assert abs(got[g][1] - ref_i) < 1e-8
        assert 0.9 < got[g][2] <= 1.0


def test_percent_rank_by_key_matches_pandas(ray_session):
    import numpy as np
    import pandas as pd
    import ray.data

    from dots_ocr_ray.pipelines.relational import percent_rank_by_key

    rng = np.random.default_rng(5)
    rows = [
        {"g": ["p", "q"][int(i % 2)], "id": int(i), "v": int(rng.integers(0, 30))}
        for i in range(500)
    ]
    rows.append({"g": "solo", "id": 999, "v": 7})  # single-row group -> rank 0
    ds = ray.data.from_items(rows)
    out = (
        percent_rank_by_key(ds, key="g", col="v")
        .to_pandas()
        .sort_values("id")
        .reset_index(drop=True)
    )
    df = pd.DataFrame(rows)
    df["ref"] = df.groupby("g")["v"].rank(method="min").sub(1) / (
        df.groupby("g")["v"].transform("size") - 1
    ).clip(lower=1)
    df = df.sort_values("id").reset_index(drop=True)
    assert np.allclose(out["pct_rank"].to_numpy(), df["ref"].to_numpy())


def test_percent_rank_cdf_limit(ray_session):
    import pytest
    import ray.data

    from dots_ocr_ray.pipelines.relational import percent_rank_by_key

    ds = ray.data.from_items([{"g": "a", "v": i} for i in range(100)])
    with pytest.raises(ValueError, match="cdf_limit"):
        percent_rank_by_key(ds, key="g", col="v", cdf_limit=10)


def test_interval_agg_join_matches_range_join(ray_session):
    """Aggregating band join == aggregate over the match-emitting
    range_join on the same inputs."""
    import numpy as np
    import pandas as pd
    import pyarrow as pa
    import ray.data

    from dots_ocr_ray.pipelines.relational import interval_agg_join, range_join

    rng = np.random.default_rng(11)
    lows = rng.uniform(0, 100, 60)
    left_rows = [
        {"k": int(i), "lo": float(lo), "hi": float(lo + rng.uniform(0, 20))}
        for i, lo in enumerate(lows)
    ]
    right_rows = [{"v": float(v)} for v in rng.uniform(-10, 130, 400)]
    left = ray.data.from_items(left_rows)
    right = ray.data.from_items(right_rows)

    agg = (
        interval_agg_join(
            left, right, key="k", left_lo="lo", left_hi="hi", right_on="v", bucket_width=10.0
        )
        .to_pandas()
        .sort_values("k")
        .reset_index(drop=True)
    )

    matches = range_join(
        left,
        right,
        left_lo="lo",
        left_hi="hi",
        right_on="v",
        bucket_width=10.0,
        left_schema=pa.schema([("k", pa.int64()), ("lo", pa.float64()), ("hi", pa.float64())]),
        right_schema=pa.schema([("v", pa.float64())]),
    ).to_pandas()
    ref = (
        matches.groupby("k")["v"]
        .agg(agg_sum="sum", agg_count="count")
        .reset_index()
        .sort_values("k")
        .reset_index(drop=True)
    )
    assert len(agg) == len(ref)
    assert (agg["k"].to_numpy() == ref["k"].to_numpy()).all()
    assert np.allclose(agg["agg_sum"].to_numpy(), ref["agg_sum"].to_numpy())
    assert (agg["agg_count"].to_numpy() == ref["agg_count"].to_numpy()).all()


def test_skew_join_matches_hash_join(ray_session):
    """Hot-key split parity: a synthetic corpus where one key holds
    half the rows must join identically through the skew path (hot
    broadcast + cold exchange) and the plain bucket exchange."""
    import numpy as np
    import pandas as pd
    import pyarrow as pa

    import ray.data

    from dots_ocr_ray.pipelines.relational import hash_join, skew_join

    rng = np.random.RandomState(7)
    n = 20_000
    keys = np.where(rng.rand(n) < 0.5, 42, rng.randint(0, 500, n)).astype(np.int64)
    left = ray.data.from_arrow(
        pa.table({"k": keys, "v": np.arange(n, dtype=np.int64)})
    )
    right = ray.data.from_arrow(
        pa.table(
            {
                "k": pa.array(np.arange(0, 500, dtype=np.int64)),
                "w": pa.array(np.arange(0, 500, dtype=np.int64) * 10),
            }
        )
    )

    def _canon(ds):
        df = ds.to_pandas()
        return df[sorted(df.columns)].sort_values(sorted(df.columns)).reset_index(drop=True)

    got = _canon(skew_join(left, right, on="k", hot_threshold=1000))
    ref = _canon(hash_join(left, right, on="k"))
    pd.testing.assert_frame_equal(got, ref, check_dtype=False)
    assert len(got) == n  # every key has a right match

    # threshold above every frequency -> pure hash_join path, same result
    got2 = _canon(skew_join(left, right, on="k", hot_threshold=10 * n))
    pd.testing.assert_frame_equal(got2, ref, check_dtype=False)


def test_pivot_agg(ray_session):
    import numpy as np
    import pandas as pd
    import pyarrow as pa
    import ray.data

    from dots_ocr_ray.pipelines.relational import pivot_agg

    rng = np.random.RandomState(7)
    n = 3000
    df = pd.DataFrame(
        {
            "k": rng.randint(0, 13, n),
            "cat": rng.choice(["a", "b", "c", "zz"], n),  # zz not requested
            "v": rng.rand(n).round(3),
        }
    )
    ds = ray.data.from_arrow(pa.Table.from_pandas(df)).repartition(8)
    out = (
        pivot_agg(ds, key_col="k", pivot_col="cat", categories=["a", "b", "c"], value_col="v")
        .to_pandas()
        .sort_values("k")
        .reset_index(drop=True)
    )
    kept = df[df["cat"].isin(["a", "b", "c"])]
    for c in ["a", "b", "c"]:
        sub = kept[kept["cat"] == c].groupby("k")["v"].agg(["size", "sum"])
        exp_n = sub["size"].reindex(out["k"], fill_value=0).to_numpy()
        assert (out[f"{c}_n"].to_numpy() == exp_n).all()
        exp_sum = sub["sum"].reindex(out["k"], fill_value=0.0).to_numpy()
        assert np.allclose(out[f"{c}_sum"].to_numpy(), exp_sum)


def test_cube_counts(ray_session):
    import itertools

    import numpy as np
    import pandas as pd
    import pyarrow as pa
    import ray.data

    from dots_ocr_ray.pipelines.relational import cube_counts

    rng = np.random.RandomState(3)
    df = pd.DataFrame(
        {
            "a": rng.choice(["x", "y", "z"], 500),
            "b": rng.choice(["p", "q"], 500),
        }
    )
    ds = ray.data.from_arrow(pa.Table.from_pandas(df)).repartition(4)
    out = cube_counts(ds, ["a", "b"]).to_pandas()
    # 4 grouping sets: (a,b), (a), (b), ()
    assert len(out) == 6 + 3 + 2 + 1
    total = out[(out["a"] == "*") & (out["b"] == "*")]["n_rows"].iloc[0]
    assert total == 500
    only_b = out[(out["a"] == "*") & (out["b"] == "p")]["n_rows"].iloc[0]
    assert only_b == (df["b"] == "p").sum()
    fine = out[(out["a"] != "*") & (out["b"] != "*")].set_index(["a", "b"])["n_rows"]
    exp = df.groupby(["a", "b"]).size()
    assert fine.sort_index().equals(exp.astype("int64").sort_index())


def test_weighted_sample(ray_session):
    import numpy as np
    import pyarrow as pa
    import ray.data

    from dots_ocr_ray.pipelines.relational import weighted_sample

    ids = np.arange(1, 401, dtype=np.int64)
    w = (ids % 37 + 1).astype(np.float64)
    ds = ray.data.from_arrow(
        pa.table({"doc_id": ids, "w": w})
    ).repartition(8)
    out = weighted_sample(ds, id_col="doc_id", weight_col="w", k=10)
    u = ((ids * 2654435761) & 0xFFFFFFFF) / 4294967296.0
    key = u ** (1.0 / w)
    exp = ids[np.lexsort((ids, -key))][:10]
    assert out.column("doc_id").to_pylist() == exp.tolist()
    assert "sample_key" not in out.column_names


def test_zscore_outliers(ray_session):
    import numpy as np
    import pandas as pd
    import pyarrow as pa
    import ray.data

    from dots_ocr_ray.pipelines.relational import zscore_outliers

    rng = np.random.RandomState(11)
    df = pd.DataFrame(
        {
            "k": rng.choice(["a", "b"], 600),
            "v": rng.normal(100, 10, 600).round(1),
        }
    )
    # plant extreme outliers
    df.loc[0, "v"] = 500.0
    df.loc[1, "v"] = -300.0
    ds = ray.data.from_arrow(pa.Table.from_pandas(df)).repartition(4)
    out = zscore_outliers(ds, key_col="k", value_col="v", z_thresh=3.0).to_pandas()
    g = df.groupby("k")["v"]
    m, sd = g.transform("mean"), g.transform(lambda s: s.std(ddof=0))
    z = (df["v"] - m) / sd
    exp = set(df.index[abs(z) > 3.0])
    got = set(out["v"])
    assert got == set(df.loc[list(exp), "v"])
    assert {500.0, -300.0} <= got


def test_hash_join_full_range_int64(ray_session, exchange_tier):
    """Non-key int64 columns must survive both tiers exactly: the
    exchange's typed-null padding once round-tripped them through
    float64 (lossy above 2^53), silently missing any subsequent join on
    that column — 60-bit md5-prefix doc_ids hit this."""
    import pyarrow as pa

    import ray.data

    from dots_ocr_ray.pipelines.relational import hash_join

    big = [(1 << 59) + i for i in (7, 8, 9)] + [(1 << 60) - 3]
    left = ray.data.from_arrow(
        pa.table(
            {
                "k": pa.array([1, 2, 3, 4], pa.int64()),
                "payload_id": pa.array(big, pa.int64()),
            }
        )
    )
    right = ray.data.from_arrow(
        pa.table({"k": pa.array([1, 2, 4], pa.int64()), "w": pa.array([10, 20, 40], pa.int64())})
    )
    for forced in (False, True):
        exchange_tier(forced)
        inner = {r["payload_id"]: r["w"] for r in hash_join(left, right, on="k").take_all()}
        assert inner == {big[0]: 10, big[1]: 20, big[3]: 40}
        left_rows = sorted(
            (r["k"], r["payload_id"], r["w"]) for r in hash_join(left, right, on="k", how="left").take_all()
        )
        assert left_rows == [(1, big[0], 10), (2, big[1], 20), (3, big[2], None), (4, big[3], 40)]


def test_range_and_skew_join_full_range_int64(ray_session):
    """The same above-2^53 exactness contract for the band join's
    passthrough columns and the skew join's hot broadcast path."""
    import pyarrow as pa

    import ray.data

    from dots_ocr_ray.pipelines.relational import range_join, skew_join

    big = [(1 << 59) + i for i in (1, 2, 3)]
    left = ray.data.from_arrow(
        pa.table(
            {
                "lo": pa.array([0.0, 10.0, 20.0]),
                "hi": pa.array([5.0, 15.0, 25.0]),
                "pid": pa.array(big, pa.int64()),
            }
        )
    )
    right = ray.data.from_arrow(
        pa.table({"val": pa.array([1.0, 12.0, 99.0]), "rid": pa.array([(1 << 60) - 7, (1 << 60) - 8, (1 << 60) - 9], pa.int64())})
    )
    got = sorted(
        (r["pid"], r["rid"]) for r in range_join(
            left, right, left_lo="lo", left_hi="hi", right_on="val", bucket_width=10.0
        ).take_all()
    )
    assert got == [(big[0], (1 << 60) - 7), (big[1], (1 << 60) - 8)]

    sl = ray.data.from_arrow(
        pa.table({"k": pa.array([1, 1, 2], pa.int64()), "pid": pa.array(big, pa.int64())})
    )
    sr = ray.data.from_arrow(
        pa.table({"k": pa.array([1, 3], pa.int64()), "rid": pa.array([(1 << 60) - 5, (1 << 60) - 6], pa.int64())})
    )
    out = sorted(
        (r["k"], r["pid"], r["rid"]) for r in skew_join(
            sl, sr, on="k", how="left", hot_threshold=2
        ).take_all()
    )
    assert out == [
        (1, big[0], (1 << 60) - 5),
        (1, big[1], (1 << 60) - 5),
        (2, big[2], None),
    ]


def test_hash_join_null_keys_follow_sql_semantics(ray_session, exchange_tier):
    """NULL join keys never match (SQL), in either tier: no fabricated
    null-x-null rows on inner, null-padded survival on left, kept on
    anti, dropped on semi."""
    import pyarrow as pa

    import ray.data

    from dots_ocr_ray.pipelines.relational import hash_join

    left = ray.data.from_arrow(
        pa.table(
            {
                "k": pa.array([1, None, 3], type=pa.int64()),
                "lv": pa.array([10, 20, 30], type=pa.int64()),
            }
        )
    )
    right = ray.data.from_arrow(
        pa.table(
            {
                "k": pa.array([1, None], type=pa.int64()),
                "rv": pa.array([100, 200], type=pa.int64()),
            }
        )
    )
    for forced in (False, True):
        exchange_tier(forced)
        inner = hash_join(left, right, on="k").take_all()
        assert [(r["k"], r["rv"]) for r in inner] == [(1, 100)]
        lj = sorted(hash_join(left, right, on="k", how="left").take_all(),
                    key=lambda r: r["lv"])
        assert len(lj) == 3 and lj[1]["k"] is None and lj[1]["rv"] is None
        semi = hash_join(left, right, on="k", how="semi").take_all()
        assert [r["lv"] for r in semi] == [10]
        anti = sorted(r["lv"] for r in hash_join(left, right, on="k", how="anti").take_all())
        assert anti == [20, 30]  # null left key kept (NOT EXISTS semantics)


def test_range_join_keeps_overlapping_right_columns(ray_session):
    """A right-side non-key column whose name overlaps the left must
    come through suffixed, not silently dropped."""
    import pyarrow as pa

    import ray.data

    from dots_ocr_ray.pipelines.relational import range_join

    left = ray.data.from_arrow(
        pa.table(
            {
                "lid": pa.array([1], type=pa.int64()),
                "lo": pa.array([0.0]),
                "hi": pa.array([10.0]),
                "tag": pa.array(["L"]),
            }
        )
    )
    right = ray.data.from_arrow(
        pa.table(
            {
                "rid": pa.array([7], type=pa.int64()),
                "val": pa.array([5.0]),
                "tag": pa.array(["R"]),
            }
        )
    )
    out = range_join(
        left, right, left_lo="lo", left_hi="hi", right_on="val", bucket_width=4.0
    ).take_all()
    assert len(out) == 1
    assert out[0]["tag"] == "L" and out[0]["tag_r"] == "R"


def test_rollup_and_cube_accept_integer_keys(ray_session):
    import ray.data

    from dots_ocr_ray.pipelines.relational import cube_counts, rollup_counts

    ds = ray.data.from_items(
        [{"year": 2024, "m": 1}, {"year": 2024, "m": 2}, {"year": 2025, "m": 1}]
    )
    r = rollup_counts(ds, ["year", "m"])
    total = [x for x in r.to_pylist() if x["year"] == "*" and x["m"] == "*"]
    assert total[0]["n_rows"] == 3
    c = cube_counts(ds, ["year", "m"])
    by_m = {x["m"]: x["n_rows"] for x in c.to_pylist() if x["year"] == "*" and x["m"] != "*"}
    assert by_m == {"1": 2, "2": 1}


def test_pivot_agg_null_values_and_null_keys(ray_session):
    import ray.data

    from dots_ocr_ray.pipelines.relational import pivot_agg

    ds = ray.data.from_items(
        [
            {"host": "a", "lang": "en", "v": 1.0},
            {"host": "a", "lang": "en", "v": None},  # must not NaN-poison the sum
            {"host": None, "lang": "de", "v": 2.0},  # null key: documented-dropped
        ]
    )
    out = {r["host"]: r for r in pivot_agg(ds, key_col="host", pivot_col="lang",
                                           categories=["en", "de"], value_col="v").take_all()}
    assert out["a"]["en_n"] == 2 and out["a"]["en_sum"] == 1.0
    assert None not in out  # dropped, never a crash or NaN poison


def test_exact_int_quantiles_empty_input(ray_session):
    import pyarrow as pa

    import ray.data

    from dots_ocr_ray.pipelines.relational import exact_int_quantiles

    empty = ray.data.from_arrow(pa.table({"x": pa.array([], type=pa.int64())}))
    out = exact_int_quantiles(empty, "x", [0.5]).to_pylist()
    assert out == [{"q": 0.5, "value": None}]


def test_weighted_sample_id_zero_can_be_sampled(ray_session):
    """u must be strictly inside (0,1): id 0 previously got key 0 and
    could never win regardless of weight."""
    import ray.data

    from dots_ocr_ray.pipelines.relational import weighted_sample

    rows = [{"doc_id": 0, "w": 1e9}] + [
        {"doc_id": i, "w": 1.0} for i in range(1, 40)
    ]
    out = weighted_sample(ray.data.from_items(rows), id_col="doc_id", weight_col="w", k=5)
    assert 0 in {r["doc_id"] for r in out.to_pylist()}


def test_regional_supplier_volume(ray_session):
    from dots_ocr_ray.pipelines.relational import regional_supplier_volume

    out = (
        regional_supplier_volume(SF_DIR, region="ASIA", date_lo="1996-01-01", date_hi="1998-01-01")
        .to_pandas()
        .sort_values("n_name")
        .reset_index(drop=True)
    )
    o = duckdb.sql(
        f"""SELECT n_name, sum(l_extendedprice * (1 - l_discount)) AS revenue
        FROM '{SF_DIR}/customer.parquet' c, '{SF_DIR}/orders.parquet' o,
             '{SF_DIR}/lineitem.parquet' l, '{SF_DIR}/supplier.parquet' s,
             '{SF_DIR}/nation.parquet' n, '{SF_DIR}/region.parquet' r
        WHERE c_custkey = o_custkey AND l_orderkey = o_orderkey AND l_suppkey = s_suppkey
        AND c_nationkey = s_nationkey AND s_nationkey = n_nationkey AND n_regionkey = r_regionkey
        AND r_name = 'ASIA' AND o_orderdate >= TIMESTAMP '1996-01-01'
        AND o_orderdate < TIMESTAMP '1998-01-01' GROUP BY n_name ORDER BY n_name"""
    ).df()
    assert list(out["n_name"]) == list(o["n_name"])
    import numpy as np

    assert np.allclose(out["revenue"], o["revenue"], rtol=1e-9)


def test_grouped_count_histogram(ray_session):
    import ray.data

    from dots_ocr_ray.pipelines.relational import grouped_count_histogram

    # keys with counts 1,2,3,4,8 → buckets 0,1,1,2,3
    rows = []
    for key, n in [("a", 1), ("b", 2), ("c", 3), ("d", 4), ("e", 8)]:
        rows += [{"k": key}] * n
    out = {
        r["bucket"]: r["n_keys"]
        for r in grouped_count_histogram(
            ray.data.from_items(rows).repartition(4), key_col="k"
        ).take_all()
    }
    assert out == {0: 1, 1: 2, 2: 1, 3: 1}


def test_attach_int_column_tier_parity(ray_session, exchange_tier):
    """Attaching an int column from a (key, value) side table gives the
    same rows in both tiers of ``hash_join``, including every match of
    a key the side table repeats (the fan-out a sorted gather of one
    position per key would drop)."""
    import ray.data

    from dots_ocr_ray.pipelines.relational import hash_join

    left = ray.data.from_items([{"k": i % 7, "x": i} for i in range(50)]).repartition(4)
    # keys 5,6 drop; key 1 repeats
    side = ray.data.from_items([{"k": k, "v": k * 10} for k in range(5)] + [{"k": 1, "v": 11}])
    import pyarrow as pa

    ls = pa.schema([("k", pa.int64()), ("x", pa.int64())])
    ss = pa.schema([("k", pa.int64()), ("v", pa.int64())])

    def run():
        out = hash_join(
            left, side, on="k", left_schema=ls, right_schema=ss,
        ).to_pandas().sort_values(["k", "x", "v"]).reset_index(drop=True)
        return out

    a = run()  # broadcast tier
    exchange_tier()
    b = run()  # exchange tier
    assert list(a.columns) == list(b.columns) == ["k", "x", "v"]
    assert (a.values == b.values).all()
    assert set(a["k"]) == {0, 1, 2, 3, 4}
    ones = a[a["k"] == 1]
    assert len(ones) == 2 * len(set(ones["x"])) and sorted(set(ones["v"])) == [10, 11]
    rest = a[a["k"] != 1]
    assert (rest["v"] == rest["k"] * 10).all()


def test_interval_overlap_join_matches_bruteforce(ray_session):
    """Interval×interval overlap join == brute-force closed-interval
    overlap, with negative domains and bucket-boundary endpoints;
    every pair exactly once (overlap-start ownership)."""
    import numpy as np
    import ray.data

    from dots_ocr_ray.pipelines.relational import interval_overlap_join

    rng = np.random.RandomState(11)
    nl, nr = 60, 90
    l_lo = np.round(rng.uniform(-100, 100, nl), 2)
    l_hi = l_lo + np.round(rng.uniform(0, 40, nl), 2)
    r_lo = np.round(rng.uniform(-120, 120, nr), 2)
    r_hi = r_lo + np.round(rng.uniform(0, 25, nr), 2)
    left = ray.data.from_items(
        [{"lid": int(i), "lo": float(l_lo[i]), "hi": float(l_hi[i])} for i in range(nl)]
    )
    right = ray.data.from_items(
        [{"rid": int(j), "lo": float(r_lo[j]), "hi": float(r_hi[j])} for j in range(nr)]
    )
    out = interval_overlap_join(
        left,
        right,
        left_lo="lo",
        left_hi="hi",
        right_lo="lo",
        right_hi="hi",
        bucket_width=10.0,
    ).to_pandas()
    pairs = list(zip(out.lid, out.rid))
    want = {
        (i, j)
        for i in range(nl)
        for j in range(nr)
        if l_lo[i] <= r_hi[j] and r_lo[j] <= l_hi[i]
    }
    assert set(pairs) == want
    assert len(pairs) == len(want)  # no duplicate rows from shared buckets
    # overlapping right column names come back suffixed with the payload intact
    assert {"lo_r", "hi_r"} <= set(out.columns)


def test_interval_overlap_join_boundary_and_degenerate(ray_session):
    import ray.data

    from dots_ocr_ray.pipelines.relational import interval_overlap_join

    # zero-width intervals, exact touch at endpoints, equality at a
    # bucket boundary (50.0 with width 50): closed-interval semantics
    left = ray.data.from_items(
        [
            {"lid": 0, "lo": 10.0, "hi": 10.0},
            {"lid": 1, "lo": 50.0, "hi": 50.0},
        ]
    )
    right = ray.data.from_items(
        [
            {"rid": 0, "lo": 10.0, "hi": 10.0},
            {"rid": 1, "lo": 0.0, "hi": 10.0},
            {"rid": 2, "lo": 50.0, "hi": 99.0},
            {"rid": 3, "lo": 10.5, "hi": 49.5},
        ]
    )
    out = interval_overlap_join(
        left,
        right,
        left_lo="lo",
        left_hi="hi",
        right_lo="lo",
        right_hi="hi",
        bucket_width=50.0,
    ).to_pandas()
    assert sorted(zip(out.lid, out.rid)) == [(0, 0), (0, 1), (1, 2)]


def test_exact_float_quantiles_matches_numpy_selection(ray_session):
    """Histogram-refinement selection == sorted order statistic
    (quantile_disc rank rule), including skew, mass ties, ties sitting
    exactly on a bin edge, and null/NaN dropping."""
    import math

    import numpy as np
    import pyarrow as pa
    import ray.data

    from dots_ocr_ray.pipelines.relational import exact_float_quantiles

    rng = np.random.RandomState(13)
    cases = {
        "skewed": list(rng.lognormal(0, 3, 20000)),
        "mass_tie": [5.0] * 8000 + [1.0, 9.0],
        "edge_tie": list(np.concatenate([np.full(6000, 7.25), rng.uniform(0, 1, 2000)])),
        "nulls": [1.0, float("nan"), 2.0, None, 3.0, 4.0],
    }
    for name, vals in cases.items():
        ds = ray.data.from_arrow(pa.table({"x": pa.array(vals, type=pa.float64())}))
        out = exact_float_quantiles(
            ds, "x", [0.1, 0.5, 0.9], num_bins=16, collect_limit=64
        )
        got = dict(zip(out.column("q").to_pylist(), out.column("value").to_pylist()))
        clean = np.sort(
            np.array(
                [
                    v
                    for v in vals
                    if v is not None and not (isinstance(v, float) and math.isnan(v))
                ]
            )
        )
        for q in (0.1, 0.5, 0.9):
            exp = float(clean[max(1, math.ceil(q * len(clean))) - 1])
            assert got[q] == exp, (name, q, got[q], exp)
    # empty input: null values, not a crash
    empty = ray.data.from_arrow(pa.table({"x": pa.array([], type=pa.float64())}))
    out = exact_float_quantiles(empty, "x", [0.5])
    assert out.column("value").to_pylist() == [None]


def test_exact_float_quantiles_by_key_matches_selection(ray_session):
    import math

    import numpy as np
    import pyarrow as pa
    import ray.data

    from dots_ocr_ray.pipelines.relational import exact_float_quantiles_by_key

    rng = np.random.RandomState(19)
    keys, vals = [], []
    data = {
        "a": list(rng.lognormal(0, 2, 9000)),
        "b": [3.25] * 5000 + [1.0],  # mass tie
        "c": [7.5],  # singleton group
    }
    for k, vs in data.items():
        keys += [k] * len(vs)
        vals += vs
    # a nan-value row (drops) — null KEYS are covered by the dedicated
    # null-group test below
    ds = ray.data.from_arrow(
        pa.table(
            {
                "k": pa.array(keys + ["a"], type=pa.string()),
                "x": pa.array(vals + [float("nan")], type=pa.float64()),
            }
        )
    )
    out = exact_float_quantiles_by_key(
        ds, "k", "x", [0.1, 0.9], num_bins=32, collect_limit=128
    ).to_pylist()
    got = {(r["k"], r["q"]): r["value"] for r in out}
    for k, vs in data.items():
        clean = np.sort(np.array(vs))
        for q in (0.1, 0.9):
            exp = float(clean[max(1, math.ceil(q * len(clean))) - 1])
            assert got[(k, q)] == exp, (k, q, got[(k, q)], exp)
    # key-count guard
    import pytest as _pytest

    with _pytest.raises(ValueError):
        exact_float_quantiles_by_key(ds, "k", "x", [0.5], max_keys=1)
    # the guard caps keys x qs, not keys alone
    with _pytest.raises(ValueError):
        exact_float_quantiles_by_key(ds, "k", "x", [0.1, 0.5, 0.9], max_keys=4)


def test_exact_float_quantiles_by_key_null_group(ray_session):
    """A NULL key is its own GROUP BY group — never merged with the
    literal string 'None' (SQL semantics; was a confirmed bug)."""
    import pyarrow as pa

    import ray.data

    from dots_ocr_ray.pipelines.relational import exact_float_quantiles_by_key

    ds = ray.data.from_arrow(
        pa.table(
            {
                "k": pa.array([None, None, None, "None", "None", "None"], type=pa.string()),
                "x": pa.array([1.0, 2.0, 3.0, 100.0, 200.0, 300.0], type=pa.float64()),
            }
        )
    )
    out = exact_float_quantiles_by_key(ds, "k", "x", [0.5], collect_limit=2, num_bins=8)
    got = {r["k"]: r["value"] for r in out.to_pylist()}
    assert got == {None: 2.0, "None": 200.0}


def test_sample_per_key_exact_k_and_determinism(ray_session):
    import hashlib

    import ray.data

    from dots_ocr_ray.pipelines.relational import sample_per_key

    rows = [{"doc_id": i, "lang": "abc"[i % 3]} for i in range(60)]
    ds = ray.data.from_items(rows)
    out = sample_per_key(ds, key_col="lang", id_col="doc_id", k=4, seed=9).take_all()
    by_lang = {}
    for r in out:
        by_lang.setdefault(r["lang"], set()).add(r["doc_id"])
    assert {k: len(v) for k, v in by_lang.items()} == {"a": 4, "b": 4, "c": 4}
    # brute-force expected: smallest md5 ranks per key
    for lang in "abc":
        ids = [i for i in range(60) if "abc"[i % 3] == lang]
        want = set(
            sorted(ids, key=lambda i: hashlib.md5(f"{i}:9".encode()).hexdigest())[:4]
        )
        assert by_lang[lang] == want
    # partitioning must not change the draw
    out2 = sample_per_key(
        ds.repartition(7), key_col="lang", id_col="doc_id", k=4, seed=9
    ).take_all()
    assert {(r["lang"], r["doc_id"]) for r in out2} == {
        (r["lang"], r["doc_id"]) for r in out
    }
    # k larger than the stratum keeps everything
    tiny = ray.data.from_items(rows[:5])
    assert len(sample_per_key(tiny, key_col="lang", id_col="doc_id", k=10).take_all()) == 5


def test_key_count_gini_known_values(ray_session):
    import ray.data

    from dots_ocr_ray.pipelines.relational import key_count_gini

    # perfectly balanced: gini == 0
    bal = ray.data.from_items([{"k": i % 4} for i in range(40)])
    t = key_count_gini(bal, key_col="k")
    assert t.column("gini")[0].as_py() == 0.0
    assert t.column("n_keys")[0].as_py() == 4
    assert t.column("n_rows")[0].as_py() == 40

    # counts 1,1,1,97: hand-computed G = 2*(1*1+2*1+3*1+4*97)/(4*100) - 5/4
    skew = ray.data.from_items(
        [{"k": 0}] * 97 + [{"k": 1}, {"k": 2}, {"k": 3}]
    ).repartition(5)
    t2 = key_count_gini(skew, key_col="k")
    expect = round(2 * (1 + 2 + 3 + 4 * 97) / (4 * 100) - 5 / 4, 9)
    assert t2.column("gini")[0].as_py() == expect


def test_equi_depth_histogram_vs_numpy(ray_session):
    import numpy as np

    import ray.data

    from dots_ocr_ray.pipelines.relational import equi_depth_histogram

    rng = np.random.RandomState(3)
    vals = np.round(rng.uniform(1, 1000, size=500), 2)
    ds = ray.data.from_items([{"v": float(x)} for x in vals]).repartition(7)
    t = equi_depth_histogram(ds, "v", n_bins=4)
    # reference: quantile_disc boundaries (rank ceil(q*n)) + right bins
    sv = np.sort(vals)
    bounds = np.array([sv[int(np.ceil(q * len(sv))) - 1] for q in (0.25, 0.5, 0.75)])
    bins = np.searchsorted(bounds, vals, side="right")
    got = {r["bin"]: (r["n"], r["sum_cents"]) for r in t.to_pylist()}
    for b in range(4):
        mask = bins == b
        assert got[b] == (
            int(mask.sum()),
            int(np.rint(vals[mask] * 100).astype(np.int64).sum()),
        )


def test_equi_depth_histogram_mass_ties(ray_session):
    import ray.data

    from dots_ocr_ray.pipelines.relational import equi_depth_histogram

    # 90% of the mass is one value: tied boundaries collapse bins but
    # counts must still total n and land deterministically
    vals = [5.0] * 90 + [float(i) for i in range(10)]
    ds = ray.data.from_items([{"v": v} for v in vals]).repartition(4)
    t = equi_depth_histogram(ds, "v", n_bins=4)
    rows = t.to_pylist()
    assert sum(r["n"] for r in rows) == 100
    assert sum(r["sum_cents"] for r in rows) == int(sum(v * 100 for v in vals))


def test_top_per_key_priority_and_partition_invariance(ray_session):
    import ray.data

    from dots_ocr_ray.pipelines.relational import top_per_key

    # key 0: values 10,20,30,40 → top-2 = ids of 40,30; tie on desc →
    # smaller id wins
    rows = [
        {"k": 0, "id": 1, "v": 10},
        {"k": 0, "id": 2, "v": 40},
        {"k": 0, "id": 3, "v": 30},
        {"k": 0, "id": 4, "v": 20},
        {"k": 1, "id": 5, "v": 7},
        {"k": 1, "id": 6, "v": 7},
        {"k": 1, "id": 7, "v": 7},
        {"k": 2, "id": 8, "v": 1},
    ]
    ds = ray.data.from_items(rows)
    out = top_per_key(ds, key_col="k", k=2, desc_col="v", tie_col="id").take_all()
    got = {(r["k"], r["id"], r["rk"]) for r in out}
    assert got == {(0, 2, 1), (0, 3, 2), (1, 5, 1), (1, 6, 2), (2, 8, 1)}
    # partitioning must not change the cap
    out2 = top_per_key(
        ds.repartition(5), key_col="k", k=2, desc_col="v", tie_col="id"
    ).take_all()
    assert {(r["k"], r["id"], r["rk"]) for r in out2} == got


def test_mad_robust_scores(ray_session):
    import ray.data

    from dots_ocr_ray.pipelines.relational import mad_robust_scores

    # values 1..9 plus a wild outlier: median 5 (of 10 values,
    # quantile_disc rank ceil(0.5*10)=5 → value 5), dev median = MAD
    rows = [{"id": i, "v": v} for i, v in enumerate([1, 2, 3, 4, 5, 6, 7, 8, 9, 1000])]
    ds = ray.data.from_items(rows)
    out = {r["id"]: r for r in mad_robust_scores(ds, value_col="v").take_all()}
    assert len(out) == 10
    # sequential mirror
    vals = sorted(r["v"] for r in rows)
    med = vals[4]  # rank ceil(0.5*10) = 5 → 1-indexed 5th
    devs = sorted(abs(r["v"] - med) for r in rows)
    mad = devs[4]
    for r in rows:
        dev = abs(r["v"] - med)
        score = (6745 * dev * 100) // mad
        assert out[r["id"]]["dev"] == dev
        assert out[r["id"]]["score_micro"] == score
        assert out[r["id"]]["is_outlier"] == int(score > 3_500_000)
    # the planted outlier is flagged, the bulk is not
    assert out[9]["is_outlier"] == 1
    assert sum(r["is_outlier"] for r in out.values()) == 1


def test_mad_robust_scores_degenerate_mad(ray_session):
    import ray.data

    from dots_ocr_ray.pipelines.relational import mad_robust_scores

    # >half the values identical → MAD == 0: convention is score 0 at
    # the median, flagged elsewhere
    ds = ray.data.from_items([{"id": i, "v": 7} for i in range(6)] + [{"id": 6, "v": 9}])
    out = {r["id"]: r for r in mad_robust_scores(ds, value_col="v").take_all()}
    assert all(out[i]["is_outlier"] == 0 and out[i]["score_micro"] == 0 for i in range(6))
    assert out[6]["is_outlier"] == 1


def test_volume_shipping_matches_duckdb(ray_session):
    """Q7 parity at sf0.001 including the cross-nation-only filter and
    both flow directions."""
    import duckdb

    from dots_ocr_ray.pipelines.relational import volume_shipping

    sf = "/root/testdata/sf0.001"
    eng = (
        volume_shipping(sf)
        .to_pandas()
        .sort_values(["supp_nation", "cust_nation", "year"])
        .reset_index(drop=True)
    )
    con = duckdb.connect()
    for t in ["supplier", "lineitem", "orders", "customer", "nation"]:
        con.execute(f"CREATE VIEW {t} AS SELECT * FROM '{sf}/{t}.parquet'")
    ora = con.execute(
        "SELECT supp_nation, cust_nation, year, sum(volume) AS revenue FROM ("
        "SELECT n1.n_name AS supp_nation, n2.n_name AS cust_nation, "
        "CAST(year(l_shipdate) AS BIGINT) AS year, "
        "l_extendedprice * (1 - l_discount) AS volume "
        "FROM supplier, lineitem, orders, customer, nation n1, nation n2 "
        "WHERE s_suppkey = l_suppkey AND o_orderkey = l_orderkey "
        "AND c_custkey = o_custkey AND s_nationkey = n1.n_nationkey "
        "AND c_nationkey = n2.n_nationkey "
        "AND ((n1.n_name = 'NATION_3' AND n2.n_name = 'NATION_7') "
        "OR (n1.n_name = 'NATION_7' AND n2.n_name = 'NATION_3')) "
        "AND l_shipdate >= TIMESTAMP '1996-01-01' "
        "AND l_shipdate < TIMESTAMP '1998-01-01') GROUP BY 1, 2, 3 ORDER BY 1, 2, 3"
    ).df()
    assert len(eng) == len(ora)
    for (_, e), (_, o) in zip(eng.iterrows(), ora.iterrows()):
        assert (e["supp_nation"], e["cust_nation"], e["year"]) == (
            o["supp_nation"],
            o["cust_nation"],
            o["year"],
        )
        assert abs(e["revenue"] - o["revenue"]) < 1e-6


def test_small_quantity_revenue_matches_duckdb(ray_session, con):
    from dots_ocr_ray.pipelines.relational import small_quantity_revenue

    got = small_quantity_revenue(SF_DIR, brand="Brand#12", frac=0.4).to_pandas()
    want = con.execute(
        "WITH pk AS (SELECT p_partkey FROM part WHERE p_brand = 'Brand#12'), "
        "th AS (SELECT l_partkey, sum(l_quantity) sq, count(*) cq FROM lineitem "
        "JOIN pk ON p_partkey = l_partkey GROUP BY l_partkey) "
        "SELECT count(*) n, coalesce(sum(CAST(round(l_extendedprice*100) AS BIGINT)),0) c "
        "FROM lineitem JOIN th ON th.l_partkey = lineitem.l_partkey "
        "WHERE l_quantity < 0.4 * (sq * 1.0 / cq)"
    ).fetchone()
    assert got.loc[0, "n_items"] == want[0]
    assert got.loc[0, "revenue_cents"] == want[1]


def test_large_volume_orders_matches_duckdb(ray_session, con):
    from dots_ocr_ray.pipelines.relational import large_volume_orders

    got = large_volume_orders(SF_DIR, threshold=180.0, k=10).to_pandas()
    want = con.execute(
        "WITH s AS (SELECT l_orderkey, sum(l_quantity) q FROM lineitem "
        "GROUP BY l_orderkey HAVING sum(l_quantity) > 180.0) "
        "SELECT c_name, o_orderkey, CAST(round(o_totalprice*100) AS BIGINT), "
        "CAST(round(q) AS BIGINT) FROM s JOIN orders ON o_orderkey = l_orderkey "
        "JOIN customer ON c_custkey = o_custkey "
        "ORDER BY o_totalprice DESC, o_orderkey LIMIT 10"
    ).fetchall()
    assert len(got) == len(want)
    for i, (name, ok, cents, q) in enumerate(want):
        assert got.loc[i, "c_name"] == name and got.loc[i, "o_orderkey"] == ok
        assert got.loc[i, "total_cents"] == cents and got.loc[i, "sum_qty"] == q


def test_waiting_suppliers_matches_duckdb(ray_session, con):
    from dots_ocr_ray.pipelines.relational import waiting_suppliers

    got = waiting_suppliers(SF_DIR, status="F", k=5).to_pandas()
    want = con.execute(
        "WITH os AS (SELECT l_orderkey, l_suppkey, "
        "max(CASE WHEN l_returnflag='R' THEN 1 ELSE 0 END) r "
        "FROM lineitem GROUP BY 1, 2), "
        "agg AS (SELECT l_orderkey, count(*) ns, sum(r) nr, "
        "min(CASE WHEN r=1 THEN l_suppkey END) rs FROM os GROUP BY 1), "
        "b AS (SELECT rs, count(*) numwait FROM agg "
        "JOIN orders ON o_orderkey = l_orderkey "
        "WHERE o_orderstatus='F' AND ns > 1 AND nr = 1 GROUP BY rs) "
        "SELECT rs, s_name, numwait FROM b JOIN supplier ON s_suppkey = rs "
        "ORDER BY numwait DESC, rs LIMIT 5"
    ).fetchall()
    assert len(got) == len(want)
    for i, (rs, name, nw) in enumerate(want):
        assert got.loc[i, "s_suppkey"] == rs and got.loc[i, "s_name"] == name
        assert got.loc[i, "numwait"] == nw


def test_dormant_rich_customers_matches_duckdb(ray_session, con):
    from dots_ocr_ray.pipelines.relational import dormant_rich_customers

    got = (
        dormant_rich_customers(SF_DIR, cutoff="2000-07-01")
        .to_pandas()
        .set_index("n_name")
    )
    want = con.execute(
        "WITH thr AS (SELECT sum(CAST(round(c_acctbal*100) AS BIGINT)) * 1.0 "
        "/ (100 * count(*)) t FROM customer WHERE c_acctbal > 0), "
        "d AS (SELECT c_custkey, c_nationkey, c_acctbal FROM customer, thr "
        "WHERE c_acctbal > t AND NOT EXISTS (SELECT 1 FROM orders "
        "WHERE o_custkey = c_custkey AND o_orderdate >= TIMESTAMP '2000-07-01')) "
        "SELECT n_name, count(*), sum(CAST(round(c_acctbal*100) AS BIGINT)) "
        "FROM d JOIN nation ON n_nationkey = c_nationkey GROUP BY n_name"
    ).fetchall()
    assert len(got) == len(want) and len(want) > 0
    for name, n, cents in want:
        assert got.loc[name, "n_cust"] == n
        assert got.loc[name, "total_cents"] == cents
