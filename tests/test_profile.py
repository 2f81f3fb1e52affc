"""profile_table: one-pass mergeable column profiling."""

import pyarrow as pa
import pytest

import ray.data

from dots_ocr_ray.pipelines.profile import profile_table


def test_profile_nulls_and_types(ray_session):
    tbl = pa.table(
        {
            "x": pa.array([1, None, 3, None, 5], type=pa.int64()),
            "s": pa.array(["ab", None, "", "abcd", "x"], type=pa.string()),
            "f": pa.array([1.5, 2.5, None, None, None], type=pa.float64()),
        }
    )
    out = (
        profile_table(ray.data.from_arrow(tbl).repartition(3))
        .to_pandas()
        .set_index("column")
    )
    assert out.loc["x", "n_rows"] == 5 and out.loc["x", "n_nulls"] == 2
    assert out.loc["x", "vmin"] == 1.0 and out.loc["x", "vmax"] == 5.0
    assert out.loc["x", "vmean"] == 3.0
    assert out.loc["x", "approx_distinct"] == 3  # exact regime at tiny n
    assert out.loc["s", "n_nulls"] == 1
    assert out.loc["s", "len_min"] == 0 and out.loc["s", "len_max"] == 4
    assert out.loc["s", "len_mean"] == round(7 / 4, 4)
    assert out.loc["f", "vmean"] == 2.0
    assert out.loc["f", "len_min"] == 0  # non-string default


def test_profile_all_null_column(ray_session):
    tbl = pa.table({"x": pa.array([None, None], type=pa.int64())})
    out = profile_table(ray.data.from_arrow(tbl)).to_pandas().set_index("column")
    assert out.loc["x", "n_nulls"] == 2
    assert out.loc["x", "approx_distinct"] == 0
    assert out.loc["x", "vmin"] == 0.0 and out.loc["x", "vmax"] == 0.0


def test_winsorized_stats_clamps_tails(ray_session):
    import numpy as np

    from dots_ocr_ray.pipelines.profile import winsorized_stats

    # group 'a': 20 values 1.00..20.00 → lo rank ceil(.05*20)=1 → 100,
    # hi rank ceil(.95*20)=19 → 1900; only the 2000 tail is clamped
    vals_a = [float(i) for i in range(1, 21)]
    tbl = pa.table(
        {
            "event_type": ["a"] * 20 + ["b"] * 3,
            "value": vals_a + [5.0, 5.0, 5.0],
        }
    )
    out = (
        winsorized_stats(ray.data.from_arrow(tbl).repartition(3))
        .to_pandas()
        .set_index("event_type")
    )
    assert out.loc["a", "n"] == 20
    assert out.loc["a", "lo_cents"] == 100 and out.loc["a", "hi_cents"] == 1900
    assert out.loc["a", "raw_sum_cents"] == sum(int(v * 100) for v in vals_a)
    assert (
        out.loc["a", "wins_sum_cents"]
        == out.loc["a", "raw_sum_cents"] - 100  # 2000 clamped to 1900
    )
    # constant group: clamping is a no-op
    assert out.loc["b", "raw_sum_cents"] == out.loc["b", "wins_sum_cents"] == 1500


def test_benford_audit(ray_session):
    import numpy as np

    from dots_ocr_ray.pipelines.profile import benford_audit

    # values engineered so first digits of cents are known:
    # 1.00→"100"→1, 25.00→"2500"→2, 0.09→"9"→9, 1.11→"111"→1
    tbl = pa.table({"o_totalprice": [1.00, 25.00, 0.09, 1.11]})
    out = (
        benford_audit(ray.data.from_arrow(tbl).repartition(2))
        .to_pandas()
        .set_index("digit")
    )
    assert out.loc[1, "n"] == 2 and out.loc[2, "n"] == 1 and out.loc[9, "n"] == 1
    e1 = 4 * np.log10(1 + 1.0 / 1)
    assert out.loc[1, "expected_micro"] == int(np.floor(1e6 * e1))
    assert out.loc[1, "chi2_term_micro"] == int(
        np.floor(1e6 * ((2 - e1) * (2 - e1) / e1))
    )


def test_pearson_by_key(ray_session):
    import numpy as np

    from dots_ocr_ray.pipelines.profile import pearson_by_key

    # key a: y = 2x exactly → r = 1; key b: y = -x → r = -1;
    # key c: constant y → dropped (zero variance); key d: n=1 → dropped
    tbl = pa.table(
        {
            "k": ["a"] * 4 + ["b"] * 3 + ["c"] * 2 + ["d"],
            "x": [1.0, 2.0, 3.0, 4.0, 1.0, 2.0, 3.0, 1.0, 2.0, 9.0],
            "y": [2.0, 4.0, 6.0, 8.0, 3.0, 2.0, 1.0, 5.0, 5.0, 1.0],
        }
    )
    out = (
        pearson_by_key(
            ray.data.from_arrow(tbl).repartition(3), key_col="k", x_col="x", y_col="y"
        )
        .to_pandas()
        .set_index("k")
    )
    assert out.loc["a", "r_micro"] == 1_000_000
    assert out.loc["b", "r_micro"] == -1_000_000
    assert "c" not in out.index and "d" not in out.index


def test_chi2_independence(ray_session):
    import numpy as np

    from dots_ocr_ray.pipelines.profile import chi2_independence

    # 2x2 table: a/x=30 a/y=10 b/x=10 b/y=30 → N=80, row/col totals 40
    tbl = pa.table(
        {
            "a": ["a"] * 40 + ["b"] * 40,
            "b": ["x"] * 30 + ["y"] * 10 + ["x"] * 10 + ["y"] * 30,
        }
    )
    out = (
        chi2_independence(
            ray.data.from_arrow(tbl).repartition(4), a_col="a", b_col="b"
        )
        .to_pandas()
        .set_index(["a", "b"])
    )
    assert len(out) == 4
    # every cell expects 40*40/80 = 20; term = (obs-20)^2/20 = 5.0
    assert (out["expected_micro"] == 20_000_000).all()
    assert (out["chi2_term_micro"] == 5_000_000).all()
    assert out.loc[("a", "x"), "n"] == 30 and out.loc[("b", "x"), "n"] == 10


def test_mann_whitney_u(ray_session):
    from dots_ocr_ray.pipelines.profile import mann_whitney_u

    # group a = {1,2,3}, group b = {2,3,4}: ranks with midranks
    # sorted: 1(a) 2 2 3 3 4(b); midrank2 for val 1 = 2*0+1+1 = 2,
    # val 2 = 2*1+2+1 = 5, val 3 = 2*3+2+1 = 9, val 4 = 2*5+1+1 = 12
    # R2_a = 2 + 5 + 9 = 16; U2_a = 16 - 3*4 = 4 → U_a = 2
    tbl = pa.table(
        {
            "v": [1.0, 2.0, 3.0, 2.0, 3.0, 4.0],
            "g": ["a", "a", "a", "b", "b", "b"],
        }
    )
    out = mann_whitney_u(
        ray.data.from_arrow(tbl).repartition(3),
        value_col="v",
        group_col="g",
        group_a="a",
    ).to_pandas()
    assert out.loc[0, "n_a"] == 3 and out.loc[0, "n_b"] == 3
    assert out.loc[0, "u2_a"] == 4 and out.loc[0, "u2_b"] == 14
    assert out.loc[0, "z_micro"] < 0  # group a shifted low


def test_spearman_corr(ray_session):
    from dots_ocr_ray.pipelines.profile import spearman_corr

    # perfectly monotone increasing (with a tie pair) → rho = 1
    tbl = pa.table(
        {
            "x": [1.0, 2.0, 3.0, 4.0, 5.0],
            "y": [0.01, 0.02, 0.03, 0.05, 0.09],
        }
    )
    out = spearman_corr(
        ray.data.from_arrow(tbl).repartition(2),
        x_col="x",
        y_col="y",
        y_scale=100,
    ).to_pandas()
    assert out.loc[0, "n"] == 5
    assert out.loc[0, "rho_micro"] == 1_000_000

    # monotone decreasing → rho = -1
    tbl2 = pa.table({"x": [1.0, 2.0, 3.0], "y": [9.0, 5.0, 1.0]})
    out2 = spearman_corr(
        ray.data.from_arrow(tbl2), x_col="x", y_col="y"
    ).to_pandas()
    assert out2.loc[0, "rho_micro"] == -1_000_000


def test_autocorr_daily(ray_session):
    import numpy as np
    import pandas as pd

    from dots_ocr_ray.pipelines.profile import autocorr_daily

    # type "up": strictly increasing daily counts → lag-1 r = 1
    # (counts 1..8 over 8 consecutive days: shifted pairs are two
    # perfectly correlated arithmetic sequences)
    days = pd.date_range("2024-01-01", periods=8, freq="D")
    rows_ts, rows_k = [], []
    for i, d in enumerate(days):
        for _ in range(i + 1):
            rows_ts.append(d)
            rows_k.append("up")
    # type "flat": constant counts → zero variance → dropped
    for d in days:
        rows_ts.append(d)
        rows_k.append("flat")
    tbl = pa.table({"ts": pa.array(rows_ts, pa.timestamp("us")), "event_type": rows_k})
    out = (
        autocorr_daily(
            ray.data.from_arrow(tbl).repartition(3),
            ts_col="ts",
            key_col="event_type",
            lags=(1, 7),
        )
        .to_pandas()
        .set_index(["key", "lag"])
    )
    assert out.loc[("up", 1), "n_pairs"] == 7
    assert out.loc[("up", 1), "r_micro"] == 1_000_000
    assert out.loc[("up", 7), "n_pairs"] == 1 if ("up", 7) in out.index else True
    assert "flat" not in out.index.get_level_values(0)


def test_ks_two_sample(ray_session):
    from dots_ocr_ray.pipelines.profile import ks_two_sample

    # a = {1,1,2,2}, b = {3,3,4,4}: disjoint supports → D = 1
    tbl = pa.table(
        {
            "v": [1.0, 1.0, 2.0, 2.0, 3.0, 3.0, 4.0, 4.0],
            "g": ["a"] * 4 + ["b"] * 4,
        }
    )
    out = ks_two_sample(
        ray.data.from_arrow(tbl).repartition(3),
        value_col="v",
        group_col="g",
        group_a="a",
    ).to_pandas()
    assert out.loc[0, "n_a"] == 4 and out.loc[0, "n_b"] == 4
    assert out.loc[0, "d2"] == 16  # cumA=4, cumB=0 at val 2 → |4·4−0·4|
    assert out.loc[0, "ks_micro"] == 1_000_000

    # identical distributions → D = 0
    tbl2 = pa.table({"v": [1.0, 2.0, 1.0, 2.0], "g": ["a", "a", "b", "b"]})
    out2 = ks_two_sample(
        ray.data.from_arrow(tbl2), value_col="v", group_col="g", group_a="a"
    ).to_pandas()
    assert out2.loc[0, "ks_micro"] == 0


def test_cusum_daily(ray_session):
    import pandas as pd

    from dots_ocr_ray.pipelines.profile import cusum_daily

    # 10 quiet days of 1 event, then 4 days of 20 → ramp alarm fires
    days = pd.date_range("2024-01-01", periods=14, freq="D")
    ts, ks = [], []
    for i, d in enumerate(days):
        for _ in range(1 if i < 10 else 20):
            ts.append(d)
            ks.append("ramp")
    tbl = pa.table({"ts": pa.array(ts, pa.timestamp("us")), "event_type": ks})
    out = (
        cusum_daily(
            ray.data.from_arrow(tbl).repartition(2),
            ts_col="ts",
            key_col="event_type",
        )
        .to_pandas()
        .set_index("key")
    )
    # k = 1e6 * 90 // 14; s grows ~20e6-k per ramp day → alarm inside the ramp
    k = 1_000_000 * 90 // 14
    assert out.loc["ramp", "k_micro"] == k
    alarm = out.loc["ramp", "first_alarm_day"]
    d0 = int(pd.Timestamp("2024-01-01").to_datetime64().astype("datetime64[D]").astype(int))
    assert d0 + 10 <= alarm <= d0 + 13  # fires during the ramp, not before
    assert out.loc["ramp", "s_max_micro"] > 0


def test_neyman_allocation(ray_session):
    from dots_ocr_ray.pipelines.profile import neyman_allocation

    # stratum a: values {0,10} repeated → sd 5, n=4 → w = 4·5 = 20e6
    # stratum b: values {0,30} repeated → sd 15, n=2 → w = 2·15 = 30e6
    # stratum c: constant → w 0, alloc 0
    tbl = pa.table(
        {
            "g": ["a"] * 4 + ["b"] * 2 + ["c"] * 3,
            "v": [0.0, 10.0, 0.0, 10.0, 0.0, 30.0, 7.0, 7.0, 7.0],
        }
    )
    out = (
        neyman_allocation(
            ray.data.from_arrow(tbl).repartition(3),
            group_col="g",
            value_col="v",
            total_n=10,
        )
        .to_pandas()
        .set_index("g")
    )
    assert out.loc["a", "w_micro"] == 20_000_000
    assert out.loc["b", "w_micro"] == 30_000_000
    assert out.loc["c", "w_micro"] == 0 and out.loc["c", "alloc"] == 0
    assert out.loc["a", "alloc"] == 4 and out.loc["b", "alloc"] == 6
    assert out["alloc"].sum() == 10


def test_stats_degenerate_inputs(ray_session):
    from dots_ocr_ray.pipelines.profile import (
        chi2_independence,
        ks_two_sample,
        mann_whitney_u,
        spearman_corr,
    )

    # group label absent → MW reports z=0, KS returns the empty result
    one_sided = pa.table({"v": [1.0, 2.0, 3.0], "g": ["b", "b", "b"]})
    mw = mann_whitney_u(
        ray.data.from_arrow(one_sided), value_col="v", group_col="g", group_a="a"
    ).to_pandas()
    assert mw.loc[0, "n_a"] == 0 and mw.loc[0, "z_micro"] == 0
    ks = ks_two_sample(
        ray.data.from_arrow(one_sided), value_col="v", group_col="g", group_a="a"
    ).to_pandas()
    assert len(ks) == 0

    # all values tied to one floor bucket → zero rank variance, z=0
    tied = pa.table({"v": [2.0, 2.0, 2.0, 2.0], "g": ["a", "a", "b", "b"]})
    mw2 = mann_whitney_u(
        ray.data.from_arrow(tied), value_col="v", group_col="g", group_a="a"
    ).to_pandas()
    assert mw2.loc[0, "z_micro"] == 0

    # constant axis → Spearman returns the empty result
    const = pa.table({"x": [1.0, 1.0, 1.0], "y": [1.0, 2.0, 3.0]})
    sp = spearman_corr(ray.data.from_arrow(const), x_col="x", y_col="y").to_pandas()
    assert len(sp) == 0

    # chi2 includes the zero-observed cell with term = expected
    skew = pa.table({"a": ["p", "p", "q"], "b": ["x", "y", "x"]})
    chi = (
        chi2_independence(ray.data.from_arrow(skew), a_col="a", b_col="b")
        .to_pandas()
        .set_index(["a", "b"])
    )
    assert ("q", "y") in chi.index
    assert chi.loc[("q", "y"), "n"] == 0
    # e = 1*1/3; term = e → both micro-floored to 333333
    assert chi.loc[("q", "y"), "expected_micro"] == 333333
    assert chi.loc[("q", "y"), "chi2_term_micro"] == 333333


def test_weighted_median_by_key(ray_session):
    from dots_ocr_ray.pipelines.profile import weighted_median_by_key

    # key a: values 1 (weight 1.00), 2 (0.50), 3 (0.10): W=160 cents,
    # cum at 1 = 100, 2·100 ≥ 160 → wmedian 1.  key b: equal weights
    # on {1,2}: cum at 1 = 100, 2·100 ≥ 200 → wmedian 1 (lower tie).
    tbl = pa.table(
        {
            "k": ["a", "a", "a", "b", "b"],
            "v": [1.0, 2.0, 3.0, 2.0, 1.0],
            "w": [1.00, 0.50, 0.10, 1.00, 1.00],
        }
    )
    out = (
        weighted_median_by_key(
            ray.data.from_arrow(tbl).repartition(2),
            key_col="k",
            value_col="v",
            weight_col="w",
        )
        .to_pandas()
        .set_index("k")
    )
    assert out.loc["a", "wmedian"] == 1 and out.loc["a", "total_weight_cents"] == 160
    assert out.loc["b", "wmedian"] == 1


def test_theil_index(ray_session):
    import numpy as np

    from dots_ocr_ray.pipelines.profile import theil_index

    # perfectly even: 3 keys × 2 rows → every term ln(1) = 0
    even = pa.table({"k": ["a", "a", "b", "b", "c", "c"]})
    out = theil_index(ray.data.from_arrow(even), key_col="k").to_pandas()
    assert out.loc[0, "theil_micro"] == 0 and out.loc[0, "n_keys"] == 3

    # concentrated: counts 4 and 1 → positive index, exact quantized sum
    skew = pa.table({"k": ["a"] * 4 + ["b"]})
    out2 = theil_index(ray.data.from_arrow(skew), key_col="k").to_pandas()
    want = int(np.floor(1e6 * (4 / 5 * np.log(4 * 2 / 5)))) + int(
        np.floor(1e6 * (1 / 5 * np.log(1 * 2 / 5)))
    )
    assert out2.loc[0, "theil_micro"] == want and want > 0


def test_fano_daily(ray_session):
    import pandas as pd

    from dots_ocr_ray.pipelines.profile import fano_daily

    # constant 2/day over 4 days → var 0 → fano 0; bursty 8 on one of
    # 4 days (zero-filled) → mean 2, var = (64/4 − 4) = 12 → fano 6
    days = pd.date_range("2024-01-01", periods=4, freq="D")
    ts, ks = [], []
    for d in days:
        for _ in range(2):
            ts.append(d)
            ks.append("flat")
    for _ in range(8):
        ts.append(days[0])
        ks.append("burst")
    ts.append(days[3])  # pin burst's span to 4 days with one extra event
    ks.append("burst")
    tbl = pa.table({"ts": pa.array(ts, pa.timestamp("us")), "event_type": ks})
    out = (
        fano_daily(
            ray.data.from_arrow(tbl).repartition(2), ts_col="ts", key_col="event_type"
        )
        .to_pandas()
        .set_index("key")
    )
    assert out.loc["flat", "fano_micro"] == 0
    # burst: counts [8,0,0,1] → s1=9, s2=65, nd=4, mean=2.25,
    # var=16.25−5.0625=11.1875 → fano≈4.9722
    assert out.loc["burst", "n_days"] == 4
    assert out.loc["burst", "fano_micro"] == int(1e6 * 11.1875 / 2.25)


# --- EWMA daily --------------------------------------------------------------

def test_ewma_daily_hand_computed():
    import pyarrow as pa
    import ray.data

    from dots_ocr_ray.pipelines.profile import ewma_daily

    # key 'a': day 0 -> 127 events, days 1-6 quiet, day 7 -> 127 events
    rows = []
    for _ in range(127):
        rows.append(("a", "2024-01-01T05:00:00"))
    for _ in range(127):
        rows.append(("a", "2024-01-08T09:30:00"))
    t = pa.table(
        {
            "event_type": pa.array([r[0] for r in rows], type=pa.string()),
            "ts": pa.array(
                [__import__("numpy").datetime64(r[1], "us") for r in rows],
                type=pa.timestamp("us"),
            ),
        }
    )
    out = {r["day"]: r["ewma_micro"] for r in ewma_daily(
        ray.data.from_arrow(t), ts_col="ts", key_col="event_type"
    ).to_pylist()}
    d0 = min(out)
    # day 0: 127·64/127 = 64; day j: 127·2^(6-j)/127 = 2^(6-j); day 7: spike
    # fell out of the 7-tap window of day 0's burst -> only the new burst: 64
    assert out[d0] == 64_000_000
    assert out[d0 + 1] == 32_000_000
    assert out[d0 + 6] == 1_000_000
    assert out[d0 + 7] == 64_000_000


def test_ewma_daily_partition_invariant():
    import numpy as np
    import pyarrow as pa
    import ray.data

    from dots_ocr_ray.pipelines.profile import ewma_daily

    rng = np.random.RandomState(5)
    ts = np.datetime64("2024-03-01") + rng.randint(0, 20, 500).astype("timedelta64[D]")
    t = pa.table(
        {
            "event_type": pa.array([f"t{i % 3}" for i in range(500)], type=pa.string()),
            "ts": pa.array(ts.astype("datetime64[us]"), type=pa.timestamp("us")),
        }
    )
    a = ewma_daily(ray.data.from_arrow(t).repartition(1), ts_col="ts", key_col="event_type").to_pylist()
    b = ewma_daily(ray.data.from_arrow(t).repartition(7), ts_col="ts", key_col="event_type").to_pylist()
    assert sorted(map(tuple, (r.values() for r in a))) == sorted(map(tuple, (r.values() for r in b)))


# --- UCB1 ---------------------------------------------------------------------

def test_ucb_scores_hand_computed():
    import math

    import pyarrow as pa
    import ray.data

    from dots_ocr_ray.pipelines.profile import ucb_scores

    t = pa.table(
        {
            "k": pa.array(["a"] * 4 + ["b"], type=pa.string()),
            "v": pa.array([1.0, 2.0, 3.0, 2.0, 10.0], type=pa.float64()),
        }
    )
    out = {r["key"]: r for r in ucb_scores(
        ray.data.from_arrow(t), key_col="k", value_col="v"
    ).to_pylist()}
    # a: n=4, sum cents=800 -> mean 2.0 = 2_000_000 micro
    assert out["a"]["mean_micro"] == 2_000_000
    assert out["a"]["bonus_micro"] == math.floor(1e6 * math.sqrt((2.0 * math.log(5)) / 4))
    assert out["a"]["ucb_micro"] == out["a"]["mean_micro"] + out["a"]["bonus_micro"]
    # b explores harder despite one pull: bonus dominates
    assert out["b"]["n"] == 1
    assert out["b"]["bonus_micro"] > out["a"]["bonus_micro"]


def test_ucb_scores_partition_invariant():
    import numpy as np
    import pyarrow as pa
    import ray.data

    from dots_ocr_ray.pipelines.profile import ucb_scores

    rng = np.random.RandomState(2)
    t = pa.table(
        {
            "k": pa.array([f"s{i % 4}" for i in range(300)], type=pa.string()),
            "v": pa.array(rng.rand(300) * 10, type=pa.float64()),
        }
    )
    a = ucb_scores(ray.data.from_arrow(t).repartition(1), key_col="k", value_col="v").to_pylist()
    b = ucb_scores(ray.data.from_arrow(t).repartition(6), key_col="k", value_col="v").to_pylist()
    assert a == b


# --- data-quality audits --------------------------------------------------------

def test_fd_violations_hand_computed(ray_session):
    import pyarrow as pa
    import ray.data

    from dots_ocr_ray.pipelines.profile import fd_violations

    # key 1 -> {10}, key 2 -> {10, 20} (violating), key 3 -> {30}
    t = pa.table(
        {
            "k": pa.array([1, 1, 2, 2, 2, 3], type=pa.int64()),
            "v": pa.array([10, 10, 10, 20, 20, 30], type=pa.int64()),
        }
    )
    out = fd_violations(
        ray.data.from_arrow(t).repartition(3), det_col="k", dep_col="v"
    ).to_pylist()[0]
    assert out["n_keys"] == 3 and out["n_violating"] == 1


def test_fd_violations_wide_ids_auto_fallback(ray_session):
    """Ids above 2^31 (and negative ids) give exact counts: the (det,
    dep) pairs are never packed."""
    import pyarrow as pa
    import ray.data

    from dots_ocr_ray.pipelines.profile import fd_violations

    big = 1 << 40
    # big -> {1, 2} violating; -5 -> {7}; 3 -> {big}
    t = pa.table(
        {
            "k": pa.array([big, big, big, -5, 3], type=pa.int64()),
            "v": pa.array([1, 2, 1, 7, big], type=pa.int64()),
        }
    )
    out = fd_violations(
        ray.data.from_arrow(t).repartition(3), det_col="k", dep_col="v"
    ).to_pylist()[0]
    assert out["n_keys"] == 3 and out["n_violating"] == 1


@pytest.mark.parametrize("ids", ["narrow", "wide"])
def test_fd_violations_vs_pandas_nunique(ray_session, ids):
    """n_keys and n_violating equal pandas ``groupby(det).nunique()``,
    on small ids and on ids of 2^40 and below zero."""
    import numpy as np
    import pandas as pd
    import pyarrow as pa
    import ray.data

    from dots_ocr_ray.pipelines.profile import fd_violations

    rng = np.random.default_rng(9)
    k = rng.integers(0, 300, 2_000).astype(np.int64)
    v = rng.integers(0, 4, 2_000).astype(np.int64) * (k % 3 == 0) + k
    if ids == "wide":
        k, v = k * (1 << 40) - 7, v - (1 << 41)
    nunique = pd.DataFrame({"k": k, "v": v}).groupby("k")["v"].nunique()
    t = pa.table({"k": pa.array(k), "v": pa.array(v)})
    out = fd_violations(ray.data.from_arrow(t).repartition(5), det_col="k", dep_col="v").to_pylist()[0]
    assert out["n_keys"] == len(nunique)
    assert out["n_violating"] == int((nunique > 1).sum()) > 0


def test_ri_orphans(ray_session):
    import pyarrow as pa
    import ray.data

    from dots_ocr_ray.pipelines.profile import ri_orphans

    child = pa.table({"fk": pa.array([1, 2, 3, 3, 9], type=pa.int64())})
    parent = pa.table({"pk": pa.array([1, 2, 3], type=pa.int64())})
    out = ri_orphans(
        ray.data.from_arrow(child).repartition(2),
        ray.data.from_arrow(parent),
        child_key="fk",
        parent_key="pk",
        relation="t",
    ).to_pylist()[0]
    assert out["n_child_rows"] == 5 and out["n_orphans"] == 1


def test_k_anonymity_audit_hand_computed(ray_session):
    import pyarrow as pa
    import ray.data

    from dots_ocr_ray.pipelines.profile import k_anonymity_audit

    # QI groups: (a,x) has 5 rows / 2 sens values; (a,y) 2 rows / 1;
    # (b,x) 1 row / 1  -> with k=5: 2 small groups, 3 rows at risk
    t = pa.table(
        {
            "q1": pa.array(["a"] * 5 + ["a", "a", "b"], type=pa.string()),
            "q2": pa.array(["x"] * 5 + ["y", "y", "x"], type=pa.string()),
            "s": pa.array([1, 1, 1, 2, 2, 7, 7, 9], type=pa.int64()),
        }
    )
    out = k_anonymity_audit(
        ray.data.from_arrow(t).repartition(3),
        qi_cols=["q1", "q2"],
        sensitive_col="s",
        k=5,
    ).to_pylist()[0]
    assert out["n_groups"] == 3
    assert out["n_small_groups"] == 2
    assert out["rows_at_risk"] == 3
    assert out["min_group_size"] == 1
    assert out["min_l_diversity"] == 1
