"""Tests for session windows and as-of join vs DuckDB window functions."""

import duckdb
import pytest

from dots_ocr_ray.pipelines.windows import asof_last_event, sessionize

SF_DIR = "/root/testdata/sf0.001"


@pytest.fixture(scope="module")
def con():
    c = duckdb.connect()
    c.execute(f"CREATE VIEW events AS SELECT * FROM '{SF_DIR}/events.parquet'")
    return c


def test_sessionize_matches_duckdb(ray_session, con):
    got = (
        sessionize(SF_DIR, gap_minutes=30)
        .to_pandas()
        .sort_values(["user_id", "session_id"])
        .reset_index(drop=True)
    )
    want = con.execute(
        """WITH marked AS (
             SELECT user_id, ts,
                    CASE WHEN ts - lag(ts) OVER (PARTITION BY user_id ORDER BY ts)
                              > INTERVAL 30 MINUTES THEN 1 ELSE 0 END AS new_s
             FROM events),
           grouped AS (
             SELECT user_id, ts,
                    sum(new_s) OVER (PARTITION BY user_id ORDER BY ts
                                     ROWS UNBOUNDED PRECEDING) AS sgrp
             FROM marked)
           SELECT user_id, CAST(sgrp + 1 AS INT) AS session_id,
                  count(*) AS n_events, min(ts) AS session_start, max(ts) AS session_end
           FROM grouped GROUP BY user_id, sgrp
           ORDER BY user_id, session_id"""
    ).df()
    assert len(got) == len(want)
    assert (got.user_id.values == want.user_id.values).all()
    assert (got.n_events.values == want.n_events.values).all()
    assert (got.session_start.values == want.session_start.values).all()


def test_asof_matches_duckdb(ray_session, con):
    got = (
        asof_last_event(SF_DIR, "purchase", "click")
        .to_pandas()
        .sort_values(["user_id", "ts"])
        .reset_index(drop=True)
    )
    want = con.execute(
        """SELECT p.user_id, p.ts,
                  (SELECT max(c.ts) FROM events c
                   WHERE c.user_id = p.user_id AND c.event_type = 'click'
                     AND c.ts < p.ts) AS prior_ts
           FROM events p WHERE p.event_type = 'purchase'
           ORDER BY p.user_id, p.ts"""
    ).df()
    assert len(got) == len(want)
    assert (got.ts.values == want.ts.values).all()
    # NaT-safe comparison
    import pandas as pd

    same = (got.prior_ts.values == want.prior_ts.values) | (
        pd.isna(got.prior_ts).values & pd.isna(want.prior_ts).values
    )
    assert same.all()


def test_sliding_window_each_event_in_k_windows(ray_session):
    """60min window / 15min hop: every event lands in exactly 4
    windows, and each window's count equals the events inside it."""
    from dots_ocr_ray.pipelines.windows import events_sliding_agg

    out = events_sliding_agg(SF_DIR, window_minutes=60, hop_minutes=15).to_pandas()
    import duckdb

    con = duckdb.connect()
    total = con.execute(f"SELECT count(*) FROM '{SF_DIR}/events.parquet'").fetchone()[0]
    assert out.n_events.sum() == 4 * total
    # spot-check one window against a direct range count
    row = out.iloc[0]
    lo = row.window_start
    import pandas as pd

    hi = lo + pd.Timedelta(minutes=60)
    want = con.execute(
        f"SELECT count(*) FROM '{SF_DIR}/events.parquet' "
        f"WHERE event_type = ? AND ts >= ? AND ts < ?",
        [row.event_type, lo.to_pydatetime(), hi.to_pydatetime()],
    ).fetchone()[0]
    assert row.n_events == want


def test_window_distinct_users_matches_pandas(ray_session, tmp_path):
    """Exact tumbling-window distinct vs a pandas groupby-nunique."""
    import numpy as np
    import pandas as pd
    import pyarrow as pa
    import pyarrow.parquet as pq

    from dots_ocr_ray.pipelines.windows import window_distinct_users

    rng = np.random.default_rng(7)
    n = 5000
    ts = pd.Timestamp("2025-01-01").value // 1000 + rng.integers(0, 3 * 3600 * 10**6, n)
    users = rng.integers(0, 50, n)
    tbl = pa.table(
        {
            "ts": pa.array(ts, type=pa.int64()).cast(pa.timestamp("us")),
            "user_id": pa.array(users, type=pa.int64()),
        }
    )
    pq.write_table(tbl, tmp_path / "events.parquet")

    out = (
        window_distinct_users(str(tmp_path), window_minutes=60)
        .to_pandas()
        .sort_values("window_start")
        .reset_index(drop=True)
    )
    df = tbl.to_pandas()
    df["window_start"] = df["ts"].dt.floor("h")
    ref = (
        df.groupby("window_start")["user_id"]
        .nunique()
        .reset_index(name="n_users")
        .sort_values("window_start")
        .reset_index(drop=True)
    )
    out["n_users"] = out["n_users"].astype("int64")
    ref["n_users"] = ref["n_users"].astype("int64")
    pd.testing.assert_frame_equal(out, ref)


def test_event_gaps(ray_session):
    """LAG/LEAD semantics: first event per user gets gap -1, last gets
    next_type '', and gaps equal the sorted inter-event deltas."""
    from dots_ocr_ray.pipelines.windows import event_gaps

    rows = event_gaps("/root/testdata/sf0.001").take_all()
    by_user = {}
    for r in rows:
        by_user.setdefault(r["user_id"], []).append(r)
    import pyarrow.parquet as pq

    ev = pq.read_table("/root/testdata/sf0.001/events.parquet").to_pandas()
    assert len(rows) == len(ev)
    for uid, urows in list(by_user.items())[:20]:
        g = ev[ev.user_id == uid].sort_values(["ts", "event_id"]).reset_index(drop=True)
        us = g["ts"].astype("datetime64[us]").astype("int64")
        exp_gaps = [-1] + list((us.values[1:] - us.values[:-1]))
        got = {r["event_id"]: r for r in urows}
        ordered = [got[e] for e in g["event_id"]]
        assert [r["gap_us"] for r in ordered] == exp_gaps
        assert ordered[-1]["next_type"] == ""
        assert [r["next_type"] for r in ordered[:-1]] == list(g["event_type"][1:])


def test_nearby_event_counts(ray_session):
    """±window self-join counts match a brute-force quadratic check on
    a sample of users; events with no neighbor report 0."""
    from dots_ocr_ray.pipelines.windows import nearby_event_counts

    rows = nearby_event_counts("/root/testdata/sf0.001", window_s=300).take_all()
    import pyarrow.parquet as pq

    ev = pq.read_table("/root/testdata/sf0.001/events.parquet").to_pandas()
    assert len(rows) == len(ev)
    got = {(r["user_id"], r["event_id"]): r["n_nearby"] for r in rows}
    for uid in sorted(ev.user_id.unique())[:10]:
        g = ev[ev.user_id == uid]
        us = g["ts"].astype("datetime64[us]").astype("int64")
        for eid, t in zip(g.event_id, us):
            exp = int(((us - t).abs() <= 300_000_000).sum()) - 1
            assert got[(uid, eid)] == exp, (uid, eid)


def test_funnel_counts(ray_session):
    import datetime

    import pyarrow as pa
    import ray.data

    from dots_ocr_ray.pipelines.windows import funnel_counts

    t0 = datetime.datetime(2024, 1, 1)

    def ev(user, kind, minute):
        return {
            "user_id": user,
            "event_type": kind,
            "ts": t0 + datetime.timedelta(minutes=minute),
        }

    rows = [
        # user 1 completes the full funnel in order
        ev(1, "signup", 0), ev(1, "view", 5), ev(1, "purchase", 9),
        # user 2: purchase BEFORE the view -> depth 2 only
        ev(2, "signup", 0), ev(2, "purchase", 1), ev(2, "view", 2),
        # user 3: view only, never signed up -> depth 0
        ev(3, "view", 4),
        # user 4: signup only
        ev(4, "signup", 7),
        # noise types are pruned before the exchange
        ev(1, "error", 1), ev(3, "click", 1),
    ]
    events = ray.data.from_items(rows)
    out = funnel_counts(events, ["signup", "view", "purchase"])
    assert isinstance(out, pa.Table)
    got = {r["stage"]: r["users"] for r in out.to_pylist()}
    assert got == {"signup": 3, "view": 2, "purchase": 1}


def test_window_distinct_users_large_user_ids(ray_session, tmp_path):
    """Exact distinct-user counts must hold for the full int64 user-id
    domain (the old packed key silently fabricated phantom windows for
    user_id >= 1_000_003)."""
    import datetime

    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq

    from dots_ocr_ray.pipelines.windows import window_distinct_users

    rng = np.random.default_rng(11)
    n = 30_000
    users = rng.integers(0, 5_000_000, n, dtype=np.int64)
    base = int(datetime.datetime(2024, 1, 1).timestamp() * 1e6)
    ts = base + rng.integers(0, 3 * 3600 * 1_000_000, n, dtype=np.int64)
    tbl = pa.table(
        {
            "ts": pa.array(ts, type=pa.int64()).cast(pa.timestamp("us")),
            "user_id": pa.array(users, type=pa.int64()),
            "event_id": pa.array(np.arange(n, dtype=np.int64)),
            "event_type": pa.array(["view"] * n),
            "value": pa.array(np.ones(n)),
        }
    )
    sf = str(tmp_path)
    pq.write_table(tbl, f"{sf}/events.parquet")
    got = {
        r["window_start"]: r["n_users"]
        for r in window_distinct_users(sf, window_minutes=60).take_all()
    }
    # brute-force oracle
    window_us = 3600 * 1_000_000
    import collections

    truth = collections.defaultdict(set)
    for t, u in zip(ts, users):
        truth[(t // window_us) * window_us].add(int(u))
    import datetime as _dt

    want = {
        _dt.datetime.utcfromtimestamp(w / 1e6): len(s_) for w, s_ in truth.items()
    }
    got_n = {k.replace(tzinfo=None) if hasattr(k, "replace") else k: v for k, v in got.items()}
    assert sorted(got_n.values()) == sorted(want.values())
    assert len(got_n) == len(want)


def test_cohort_retention_matches_duckdb(ray_session):
    from dots_ocr_ray.pipelines.windows import cohort_retention

    out = (
        cohort_retention(SF_DIR)
        .to_pandas()
        .sort_values(["cohort_week", "offset_weeks"])
        .reset_index(drop=True)
    )
    o = duckdb.sql(
        f"""WITH uw AS (SELECT DISTINCT user_id, CAST(date_trunc('week', ts) AS TIMESTAMP) AS week
        FROM '{SF_DIR}/events.parquet'),
        c AS (SELECT user_id, min(week) AS cohort_week FROM uw GROUP BY 1)
        SELECT c.cohort_week, date_diff('day', c.cohort_week, uw.week) // 7 AS offset_weeks,
        count(*) AS n_users FROM uw JOIN c USING (user_id) GROUP BY 1, 2 ORDER BY 1, 2"""
    ).df()
    assert (out.values == o.values).all()
    # week-0 row exists for every cohort (a user's first week is active)
    assert (out.groupby("cohort_week")["offset_weeks"].min() == 0).all()


def test_decayed_counts_hand_computed_and_partition_invariant(ray_session):
    import math

    import pyarrow as pa

    import ray.data

    from dots_ocr_ray.pipelines.windows import decayed_counts

    import datetime

    base = datetime.datetime(2026, 1, 15)
    rows = []
    for i, (k, days_ago) in enumerate(
        [("a", 0), ("a", 7), ("a", 14), ("b", 0), ("b", 3.5)]
    ):
        rows.append({"k": k, "ts": base - datetime.timedelta(days=days_ago)})
    ds = ray.data.from_items(rows)
    t = decayed_counts(ds, key_col="k", half_life_days=7.0)
    got = {r["k"]: (r["decayed_micro"], r["n"]) for r in t.to_pylist()}
    exp_a = sum(
        math.floor(2.0 ** (-d / 7.0) * 1e6) for d in (0, 7, 14)
    )  # 1e6 + 5e5 + 25e4
    exp_b = math.floor(1e6) + math.floor(2.0 ** (-0.5) * 1e6)
    assert got == {"a": (exp_a, 3), "b": (exp_b, 2)}

    t2 = decayed_counts(ds.repartition(5), key_col="k", half_life_days=7.0)
    assert t.equals(t2)


def test_ohlc_bars_hand_computed_and_partition_invariant(ray_session):
    import numpy as np
    import pyarrow as pa

    import ray.data

    from dots_ocr_ray.pipelines.windows import ohlc_bars

    us = 1_000_000
    # one key, two hourly bars; bar0 events out of id-order to prove
    # (ts, id) ordering decides open/close, including a ts tie
    t = pa.table(
        {
            "event_id": pa.array([5, 2, 9, 11, 12], type=pa.int64()),
            "ts": pa.array(
                np.array([100, 100, 3599, 3600, 7100], dtype=np.int64) * us
            ).cast(pa.timestamp("us")),
            "event_type": pa.array(["x"] * 5),
            "value": pa.array([4.25, 1.5, 3.0, 10.0, 7.5], type=pa.float64()),
        }
    )
    for parts in (1, 4):
        ds = ray.data.from_arrow(t)
        if parts > 1:
            ds = ds.repartition(parts)
        rows = sorted(ohlc_bars(ds).iter_rows(), key=lambda r: r["bar"])
        assert len(rows) == 2
        b0, b1 = rows
        # ts tie at 100: event_id 2 < 5 → open = 1.5
        assert (b0["open"], b0["high"], b0["low"], b0["close"]) == (1.5, 4.25, 1.5, 3.0)
        assert b0["n"] == 3 and b0["sum_cents"] == 425 + 150 + 300
        assert (b1["open"], b1["close"], b1["n"]) == (10.0, 7.5, 2)


def test_interval_coverage_islands(ray_session):
    import pyarrow as pa

    import ray.data

    from dots_ocr_ray.pipelines.windows import interval_coverage

    # value=0.00 → dur = 60 s.  user 1: events at t=0s and t=30s overlap
    # (one island, covered 90 s); event at t=1000s is its own island.
    base = 1_700_000_000_000_000  # µs
    tbl = pa.table(
        {
            "user_id": [1, 1, 1, 2],
            "ts": pa.array(
                [base, base + 30_000_000, base + 1_000_000_000, base],
                type=pa.timestamp("us"),
            ),
            "value": [0.0, 0.0, 0.0, 0.0],
        }
    )
    out = (
        interval_coverage(ray.data.from_arrow(tbl).repartition(2))
        .to_pandas()
        .set_index("user_id")
    )
    assert out.loc[1, "n_events"] == 3
    assert out.loc[1, "n_islands"] == 2
    assert out.loc[1, "covered_us"] == 90_000_000 + 60_000_000
    assert out.loc[2, "n_islands"] == 1 and out.loc[2, "covered_us"] == 60_000_000


# --- bot regularity ---------------------------------------------------------------

def test_bot_regularity_flags_metronome(ray_session):
    import numpy as np
    import pyarrow as pa
    import ray.data

    from dots_ocr_ray.pipelines.windows import bot_regularity_scores

    base = np.datetime64("2024-01-01T00:00:00", "us")
    rows_u, rows_t = [], []
    # user 1: perfectly regular 60 s gaps (bot, cv = 0)
    for i in range(10):
        rows_u.append(1)
        rows_t.append(base + np.timedelta64(60 * i, "s"))
    # user 2: highly irregular gaps (human)
    for off in [0, 5, 300, 301, 3000, 3001, 9000]:
        rows_u.append(2)
        rows_t.append(base + np.timedelta64(off, "s"))
    # user 3: too few events to judge
    rows_u += [3, 3]
    rows_t += [base, base + np.timedelta64(1, "s")]
    t = pa.table(
        {
            "user_id": pa.array(rows_u, type=pa.int64()),
            "ts": pa.array(rows_t, type=pa.timestamp("us")),
        }
    )
    out = {r["user_id"]: r for r in bot_regularity_scores(
        ray.data.from_arrow(t).repartition(3)
    ).to_pylist()}
    assert set(out) == {1, 2}
    assert out[1]["cv_micro"] == 0 and out[1]["is_bot"]
    assert out[2]["cv_micro"] > 200_000 and not out[2]["is_bot"]


def test_bot_regularity_partition_invariant(ray_session):
    import numpy as np
    import pyarrow as pa
    import ray.data

    from dots_ocr_ray.pipelines.windows import bot_regularity_scores

    rng = np.random.RandomState(8)
    base = np.datetime64("2024-01-01T00:00:00", "us")
    t = pa.table(
        {
            "user_id": pa.array(rng.randint(0, 10, 400), type=pa.int64()),
            "ts": pa.array(
                [base + np.timedelta64(int(x), "s") for x in rng.randint(0, 100000, 400)],
                type=pa.timestamp("us"),
            ),
        }
    )
    a = sorted(map(tuple, (r.values() for r in bot_regularity_scores(
        ray.data.from_arrow(t).repartition(1)).to_pylist())))
    b = sorted(map(tuple, (r.values() for r in bot_regularity_scores(
        ray.data.from_arrow(t).repartition(7)).to_pylist())))
    assert a == b


# --- event trigrams ----------------------------------------------------------------

def test_event_trigrams_hand_computed(ray_session):
    import numpy as np
    import pyarrow as pa
    import ray.data

    from dots_ocr_ray.pipelines.windows import event_trigrams

    base = np.datetime64("2024-01-01T00:00:00", "us")
    # user 1: a b c a b c -> (a,b,c) x2, (b,c,a) x1, (c,a,b) x1
    # user 2: a b c -> (a,b,c) x1 ; trigrams never span users
    rows = []
    for i, ty in enumerate(["a", "b", "c", "a", "b", "c"]):
        rows.append((1, i, ty))
    for i, ty in enumerate(["a", "b", "c"]):
        rows.append((2, 100 + i, ty))
    t = pa.table(
        {
            "user_id": pa.array([r[0] for r in rows], type=pa.int64()),
            "event_id": pa.array([r[1] for r in rows], type=pa.int64()),
            "ts": pa.array(
                [base + np.timedelta64(r[1], "s") for r in rows],
                type=pa.timestamp("us"),
            ),
            "event_type": pa.array([r[2] for r in rows], type=pa.string()),
        }
    )
    out = {(r["t1"], r["t2"], r["t3"]): r["n"] for r in event_trigrams(
        ray.data.from_arrow(t).repartition(3), min_count=1
    ).to_pylist()}
    assert out[("a", "b", "c")] == 3
    assert out[("b", "c", "a")] == 1 and out[("c", "a", "b")] == 1
    assert len(out) == 3
    # min_count filter
    out2 = event_trigrams(ray.data.from_arrow(t), min_count=2).to_pylist()
    assert [(r["t1"], r["t2"], r["t3"], r["n"]) for r in out2] == [("a", "b", "c", 3)]


def test_asof_fold_fuzz_vs_pandas(ray_session):
    """Random user/ts/type streams: the vectorized prefix-max fold must
    equal per-user pd.merge_asof(allow_exact_matches=False) exactly,
    including ts ties and users with missing sides."""
    import numpy as np
    import pandas as pd
    import pyarrow as pa
    import pyarrow.parquet as pq

    from dots_ocr_ray.pipelines.windows import asof_last_event

    rng = np.random.RandomState(11)
    n = 600
    df = pd.DataFrame(
        {
            "user_id": rng.randint(0, 25, n),
            # coarse grid forces plenty of exact-tie timestamps
            "ts": pd.to_datetime(rng.randint(0, 50, n) * 60_000_000, unit="us"),
            "event_type": rng.choice(["purchase", "click", "view"], n),
        }
    )
    import tempfile, os

    with tempfile.TemporaryDirectory() as td:
        pq.write_table(
            pa.Table.from_pandas(df, preserve_index=False).set_column(
                1, "ts", pa.Table.from_pandas(df, preserve_index=False).column("ts").cast(pa.timestamp("us"))
            ),
            os.path.join(td, "events.parquet"),
        )
        got = (
            asof_last_event(td)
            .to_pandas()
            .sort_values(["user_id", "ts", "prior_ts"])
            .reset_index(drop=True)
        )
    expect_rows = []
    for uid, g in df.groupby("user_id"):
        left = g[g.event_type == "purchase"].sort_values("ts")
        right = g[g.event_type == "click"].sort_values("ts")
        for t in left["ts"]:
            prior = right[right.ts < t]["ts"]
            expect_rows.append(
                (uid, t, prior.max() if len(prior) else pd.NaT)
            )
    expect = (
        pd.DataFrame(expect_rows, columns=["user_id", "ts", "prior_ts"])
        .sort_values(["user_id", "ts", "prior_ts"])
        .reset_index(drop=True)
    )
    for frame in (got, expect):
        frame["user_id"] = frame["user_id"].astype("int64")
        frame["ts"] = frame["ts"].astype("datetime64[us]")
        frame["prior_ts"] = frame["prior_ts"].astype("datetime64[us]")
    pd.testing.assert_frame_equal(got, expect, check_dtype=False)


def test_interval_coverage_fuzz_vs_sequential(ray_session):
    """Random events: the per-size-class cummax-islands fold must equal
    the sequential per-user interval-union computation."""
    import numpy as np
    import pandas as pd
    import pyarrow as pa

    import ray.data

    from dots_ocr_ray.pipelines.windows import interval_coverage

    rng = np.random.RandomState(5)
    n = 400
    t = pa.table(
        {
            "user_id": pa.array(rng.randint(0, 30, n), type=pa.int64()),
            "ts": pa.array(
                rng.randint(0, 10_000, n) * 1_000_000, type=pa.int64()
            ).cast(pa.timestamp("us")),
            "value": pa.array(rng.uniform(-50, 50, n).round(2), type=pa.float64()),
        }
    )
    got = {
        r["user_id"]: (r["n_events"], r["n_islands"], r["covered_us"])
        for r in interval_coverage(ray.data.from_arrow(t).repartition(4)).take_all()
    }
    df = t.to_pandas()
    df["ts_us"] = df["ts"].astype("datetime64[us]").astype("int64")
    for uid, g in df.groupby("user_id"):
        cents = np.round(g["value"].to_numpy() * 100).astype(np.int64)
        dur = ((np.abs(cents) % 3600) + 60) * 1_000_000
        ivals = sorted(zip(g["ts_us"].to_numpy(), g["ts_us"].to_numpy() + dur))
        islands = 0
        covered = 0
        cur_s = cur_e = None
        for s, e in ivals:
            if cur_e is None or s > cur_e:
                if cur_e is not None:
                    covered += cur_e - cur_s
                cur_s, cur_e = s, e
                islands += 1
            else:
                cur_e = max(cur_e, e)
        if cur_e is not None:
            covered += cur_e - cur_s
        assert got[uid] == (len(g), islands, covered), uid


def test_funnel_fold_fuzz_vs_sequential(ray_session):
    """Random event streams: the masked-min ladder fold must reproduce
    the sequential per-user depth walk histogram exactly."""
    import numpy as np
    import pandas as pd
    import pyarrow as pa

    import ray.data

    from dots_ocr_ray.pipelines.windows import funnel_counts

    stages = ["s0", "s1", "s2"]
    rng = np.random.RandomState(3)
    n = 500
    t = pa.table(
        {
            "user_id": pa.array(rng.randint(0, 40, n), type=pa.int64()),
            "event_type": pa.array(
                rng.choice(stages + ["noise"], n), type=pa.string()
            ),
            "ts": pa.array(
                rng.randint(0, 200, n) * 1_000_000, type=pa.int64()
            ).cast(pa.timestamp("us")),
        }
    )
    out = funnel_counts(
        ray.data.from_arrow(t).repartition(4), stages
    )
    got = dict(zip(out.column("stage_idx").to_pylist(), out.column("users").to_pylist()))
    df = t.to_pandas()
    df = df[df.event_type.isin(stages)]
    df["ts_us"] = df["ts"].astype("datetime64[us]").astype("int64")
    depths = []
    for _, g in df.groupby("user_id"):
        prev = -(2**62)
        depth = 0
        for i, s in enumerate(stages):
            sel = g[(g.event_type == s) & (g.ts_us > prev)]["ts_us"]
            if sel.empty:
                break
            prev = sel.min()
            depth += 1
        depths.append(depth)
    for i in range(len(stages)):
        expect = sum(1 for d in depths if d >= i + 1)
        assert got.get(i + 1, 0) == expect, (i, got, expect)


def _canon(df):
    import pandas as pd

    df = df[sorted(df.columns)].copy()
    for c in df.columns:
        if df[c].dtype.kind == "f":
            df[c] = df[c].round(2)
        elif df[c].dtype.kind == "M":
            df[c] = pd.to_datetime(df[c]).astype("datetime64[us]")
    return df.sort_values(list(df.columns)).reset_index(drop=True)


@pytest.mark.parametrize("query", ["user_event_seq", "event_gaps", "late_events", "sessionize"])
def test_per_event_windows_partition_invariant(ray_session, monkeypatch, query):
    """A per-event window query gives the same rows whether its events
    arrive as one block or shuffled over 16 blocks, with one user
    holding most rows, and both equal the query's DuckDB SQL."""
    import numpy as np
    import pandas as pd
    import pyarrow as pa
    import ray.data

    import __ray_entry__ as entry

    rng = np.random.RandomState(5)
    n = 3000
    user = np.where(rng.rand(n) < 0.6, 0, rng.randint(1, 40, n))
    etype = rng.choice(["view", "click", "purchase"], n).astype(object)
    etype[rng.rand(n) < 0.05] = None
    events = pa.table(
        {
            "event_id": pa.array(np.arange(n), type=pa.int64()),
            "ts": pa.array(1_700_000_000_000_000 + rng.randint(0, 86_400_000_000, n)).cast(pa.timestamp("us")),
            "user_id": pa.array(user, type=pa.int64()),
            "event_type": pa.array(etype, type=pa.string()),
            "value": pa.array(rng.randint(0, 1000, n) / 10.0, type=pa.float64()),
        }
    )
    blockings = {
        "one block": lambda: ray.data.from_arrow(events),
        "shuffled, 16 blocks": lambda: ray.data.from_arrow(events).random_shuffle(seed=3).repartition(16),
    }
    outs = {}
    for name, make in blockings.items():
        monkeypatch.setattr(ray.data, "read_parquet", lambda path, columns=None, **kw: make().select_columns(columns))
        out = entry.queries()[query]("unused")
        outs[name] = _canon(out.to_pandas())
    monkeypatch.undo()
    con = duckdb.connect()
    con.register("events", events)
    want = _canon(con.execute(entry.oracle_sql()[query]).df())
    one, shuffled = outs.values()
    pd.testing.assert_frame_equal(one, shuffled)
    assert len(one) == len(want)
    pd.testing.assert_frame_equal(one, want, check_dtype=False)


def test_segment_cumsum_bit_identical_to_per_segment_loop():
    """The length-class matrix cumsum gives the same float64 bits as one
    np.cumsum per segment (the sequential order the SQL window oracle
    sums in), on random values with one segment holding most rows."""
    import numpy as np

    from dots_ocr_ray.pipelines.windows import _segment_cumsum

    rng = np.random.RandomState(9)
    n = 20_000
    user = np.sort(np.where(rng.rand(n) < 0.7, 0, rng.randint(1, 500, n)))
    value = rng.standard_normal(n) * 10.0 ** rng.randint(-6, 7, n)
    starts = np.flatnonzero(np.diff(user, prepend=-1))
    bounds = np.append(starts, n)
    want = np.concatenate([np.cumsum(value[bounds[i] : bounds[i + 1]]) for i in range(len(starts))])
    got = _segment_cumsum(value, starts)
    assert got.dtype == np.float64
    assert np.array_equal(got, want)
    # the blunt cs - base form is NOT bit-exact on these values
    cs = np.cumsum(value)
    base = np.repeat(np.append(0.0, cs[starts[1:] - 1]), np.diff(bounds))
    assert not np.array_equal(cs - base, want)
    assert _segment_cumsum(np.empty(0), np.empty(0, dtype=np.int64)).shape == (0,)
