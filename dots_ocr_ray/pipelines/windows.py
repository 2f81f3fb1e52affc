"""Stream-shaped operators over the events table: session windows,
LAG/LEAD, cumulative windows and as-of joins.

Ray Data has no event-time windows.  Every keyed op here takes ONE
hash exchange on user (:func:`~dots_ocr_ray.util.bucket_exchange`)
and resolves EVERY user inside a bucket vectorized — one Python call
per bucket, never per user.  The per-event ops (``sessionize``,
``user_event_sequence``, ``event_gaps``, ``late_event_audit``) sort
their bucket by (user_id, order columns) and run segment logic over
the user runs (``_sorted_user_apply``); the per-user reduces
(``asof_last_event``, ``funnel_counts``, ``interval_coverage``,
``nearby_event_counts``) use per-run-size-class matrix passes
(prefix-max, masked-min ladders, row-wise cummax) or row-base-offset
flat searchsorted.  ``window_distinct_users`` exchanges on the window
instead: one :func:`~dots_ocr_ray.util.bucket_distinct_counts`, one
Python call per bucket, never per window.

Float caution, learned bit-exactly: running sums must accumulate in
the SAME order AND algorithm as the oracle — np.cumsum over a stitched
array (base-subtraction trick) drifts ~1e-13, and pandas
groupby.cumsum is Kahan-compensated; per-segment np.cumsum matches the
sequential SQL window accumulation.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

import ray.data

from dots_ocr_ray.util import _key_runs, bucket_distinct_counts, bucket_exchange, rows_out


def sessionize(
    sf_dir: str,
    gap_minutes: int = 30,
) -> ray.data.Dataset:
    """Gap-based session windows per user: a new session starts when
    the gap to the previous event EXCEEDS ``gap_minutes`` (events
    exactly ``gap_minutes`` apart stay in one session — strict ``>``
    break, the DuckDB-oracle-pinned convention).

    Output: (user_id, session_id, n_events, session_start, session_end)
    where session_id numbers a user's sessions in time order from 1.

    Scale shape: one bucket exchange on user_id; each bucket sorts by
    (user_id, ts) and sessionizes every user VECTORIZED (diff-based
    break detection + segment bounds) — no per-user Python call (see
    :func:`_sorted_user_apply`)."""
    events = ray.data.read_parquet(f"{sf_dir}/events.parquet", columns=["user_id", "ts"])
    gap_us = gap_minutes * 60_000_000
    TS = pa.timestamp("us")

    def _vec(batch: pa.Table, u: np.ndarray, new_user: np.ndarray) -> pa.Table:
        n = batch.num_rows
        ts = batch.column("ts").cast(pa.int64()).to_numpy()
        brk = new_user.copy()
        brk[1:] |= (ts[1:] - ts[:-1]) > gap_us
        ss = np.flatnonzero(brk)  # session starts (event index)
        useg = np.flatnonzero(new_user[ss])  # each user's first session
        counts = np.diff(np.append(useg, len(ss)))
        return pa.table(
            {
                "user_id": pa.array(u[ss], type=pa.int64()),
                "session_id": pa.array(np.arange(len(ss)) - np.repeat(useg, counts) + 1, type=pa.int64()),
                "n_events": pa.array(np.diff(np.append(ss, n)), type=pa.int64()),
                "session_start": pa.array(ts[ss]).cast(TS),
                "session_end": pa.array(ts[np.append(ss[1:], n) - 1]).cast(TS),
            }
        )

    return _sorted_user_apply(events, sort_cols=["ts"], vec_fn=_vec)


def _sorted_user_apply(events: "ray.data.Dataset", *, sort_cols: list[str], vec_fn) -> "ray.data.Dataset":
    """Per-event windowed transform without per-user Python: one bucket
    exchange on user_id; each bucket sorts by (user_id, *sort_cols) and
    ``vec_fn`` computes the output columns for every user in it at once
    (it receives the sorted bucket plus the user array and the
    user-start mask).  Shared scaffold for the LAG/LEAD / cumulative-
    window family."""

    def _fold(group: pa.Table) -> pa.Table:
        perm, starts = _key_runs(group, ["user_id"], sort_cols)
        batch = group.take(pa.array(perm))
        new_user = np.zeros(len(perm), dtype=bool)
        new_user[starts] = True
        u = batch.column("user_id").to_numpy().astype(np.int64)
        return vec_fn(batch, u, new_user)

    return bucket_exchange(events, "user_id", _fold)


def _segment_cumsum(value: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """Running sum of ``value`` restarting at each index in ``starts``
    (ascending, ``starts[0] == 0``), bit-identical to one ``np.cumsum``
    per segment.  Segments group by exact length and each length class
    is one ``np.cumsum(axis=1)`` over a (segments × length) matrix: an
    accumulate adds sequentially along its axis, so every row sums in
    the sequential order the SQL window oracle computes.  Not the
    vectorized ``cs - base`` trick (order-sensitive float addition
    drifts ~1e-13) nor pandas ``groupby.cumsum`` (Kahan-compensated,
    also drifts).  Python work is O(distinct lengths), not O(users)."""
    lengths = np.diff(np.append(starts, len(value)))
    running = np.empty(len(value), dtype=np.float64)
    for length in np.unique(lengths):
        idx = starts[lengths == length][:, None] + np.arange(length)
        running[idx] = np.cumsum(value[idx], axis=1)
    return running


def user_event_sequence(sf_dir: str) -> ray.data.Dataset:
    """Cumulative window per key: events numbered in time order per
    user with a running value sum — the ROW_NUMBER / cumulative-SUM
    OVER (PARTITION BY … ORDER BY …) surface.  Each user runs in
    (ts, value) order as a vectorized segment-cumsum inside its bucket
    (see :func:`_sorted_user_apply`).  Value is the tiebreak: two
    events at one timestamp would otherwise order arbitrarily (rows
    with equal (ts, value) are interchangeable, so the output multiset
    stays deterministic)."""
    events = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["user_id", "ts", "value"]
    )

    def _vec(batch: pa.Table, u: np.ndarray, new_user: np.ndarray) -> pa.Table:
        n = batch.num_rows
        value = batch.column("value").to_numpy(zero_copy_only=False).astype(np.float64)
        starts = np.flatnonzero(new_user)
        counts = np.diff(np.concatenate([starts, [n]]))
        seq = np.arange(n) - np.repeat(starts, counts) + 1
        running = _segment_cumsum(value, starts)
        return pa.table(
            {
                "user_id": pa.array(u, type=pa.int64()),
                "ts": batch.column("ts"),
                "seq": pa.array(seq, type=pa.int64()),
                "running_value": pa.array(running, type=pa.float64()),
            }
        )

    return _sorted_user_apply(events, sort_cols=["ts", "value"], vec_fn=_vec)


def events_sliding_agg(
    sf_dir: str,
    *,
    window_minutes: int = 60,
    hop_minutes: int = 15,
) -> ray.data.Dataset:
    """Sliding (hopping) window aggregate: per (event_type,
    window_start) count + value sum, where each event lands in
    ``window/hop`` overlapping windows.

    The explode-to-hops form: a vectorized ``map_batches`` replicates
    each row once per covering window (a pure flat map — no state, no
    shuffle), then ONE keyed fold over the derived (type, window) key.
    Window count per row is the constant window/hop, so the explode is
    bounded data amplification, not skew."""
    import numpy as np
    import pyarrow as pa

    if window_minutes % hop_minutes:
        raise ValueError("window_minutes must be a multiple of hop_minutes")
    k = window_minutes // hop_minutes
    hop_us = hop_minutes * 60 * 1_000_000
    window_us = window_minutes * 60 * 1_000_000

    def _explode(batch: pa.Table) -> pa.Table:
        ts = batch.column("ts").cast(pa.int64()).to_numpy(zero_copy_only=False)
        types = batch.column("event_type").to_numpy(zero_copy_only=False)
        values = batch.column("value").to_numpy(zero_copy_only=False)
        # newest window containing ts starts at floor(ts/hop)*hop; the
        # k-1 windows before it also contain ts (every one of the k
        # hops satisfies ts < start + window by construction, so each
        # event explodes to exactly k rows — no filtering needed)
        base = (ts // hop_us) * hop_us
        starts = (base[:, None] - hop_us * np.arange(k)[None, :]).ravel()  # (n*k,)
        idx = np.repeat(np.arange(len(ts)), k)
        return (
            pa.table(
                {
                    "event_type": pa.array(types[idx], type=pa.string()),
                    "window_start": pa.array(starts, type=pa.int64()).cast(
                        pa.timestamp("us")
                    ),
                    "value": pa.array(values[idx], type=pa.float64()),
                }
            )
        )

    from dots_ocr_ray.util import bucket_keyed_fold

    events = ray.data.read_parquet(f"{sf_dir}/events.parquet", columns=["ts", "event_type", "value"])
    return bucket_keyed_fold(
        events.map_batches(_explode, batch_format="pyarrow"),
        ["event_type", "window_start"],
        {"sum_value": ("sum", "value"), "n_events": ("count", None)},
    )


def asof_last_event(
    sf_dir: str,
    left_type: str = "purchase",
    right_type: str = "click",
) -> ray.data.Dataset:
    """As-of join within the events stream: for every ``left_type``
    event, the most recent strictly-earlier ``right_type`` event of the
    SAME user (backward as-of semantics, ``allow_exact_matches=False``).

    Output: (user_id, ts, prior_ts) — prior_ts is null when no earlier
    right-side event exists.

    Scale shape: rows filter to the two event types, ONE coarse
    256-way exchange on hash(user), and each bucket resolves every
    user with a single lexsort + per-user-run-size-class vectorized
    prefix-max (rights sort after lefts at equal ts, so the running
    right-max BEFORE a left row is exactly the strictly-earlier
    semantics) — no Python call and no pandas merge per user."""
    events = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["user_id", "ts", "event_type"]
    )
    TS_MIN = np.int64(np.iinfo(np.int64).min)

    def _two_types(batch: pa.Table) -> pa.Table:
        keep = pc.is_in(
            batch.column("event_type"),
            value_set=pa.array([left_type, right_type]),
        )
        return batch.filter(pc.fill_null(keep, False))

    def _asof_fold(group: pa.Table) -> pa.Table:
        ts_type = group.schema.field("ts").type
        empty = pa.table(
            {
                "user_id": pa.array([], type=pa.int64()),
                "ts": pa.array([], type=ts_type),
                "prior_ts": pa.array([], type=ts_type),
            }
        )
        if group.num_rows == 0:
            return empty
        u = group.column("user_id").to_numpy(zero_copy_only=False).astype(np.int64)
        ts = (
            group.column("ts")
            .to_numpy(zero_copy_only=False)
            .astype("datetime64[us]")
            .view(np.int64)
        )
        is_right = (
            pc.equal(group.column("event_type"), right_type)
            .to_numpy(zero_copy_only=False)
            .astype(np.int8)
        )
        # rights AFTER lefts at equal ts → the prefix max over rights
        # before a left row can never include a same-ts right
        order = np.lexsort((is_right, ts, u))
        u, ts, is_right = u[order], ts[order], is_right[order]
        new_run = np.ones(len(u), dtype=bool)
        new_run[1:] = u[1:] != u[:-1]
        starts = np.flatnonzero(new_run)
        lens = np.diff(np.concatenate([starts, [len(u)]]))
        out_u: list[np.ndarray] = []
        out_ts: list[np.ndarray] = []
        out_prior: list[np.ndarray] = []
        for size in np.unique(lens):
            runs = starts[lens == size]
            idx = runs[:, None] + np.arange(size)[None, :]
            mu, mt, mr = u[idx], ts[idx], is_right[idx].astype(bool)
            lr = np.where(mr, mt, TS_MIN)
            pm = np.maximum.accumulate(lr, axis=1)
            prefix = np.concatenate(
                [np.full((len(runs), 1), TS_MIN, dtype=np.int64), pm[:, :-1]],
                axis=1,
            )
            lmask = ~mr
            out_u.append(mu[lmask])
            out_ts.append(mt[lmask])
            out_prior.append(prefix[lmask])
        uu = np.concatenate(out_u)
        tts = np.concatenate(out_ts)
        pri = np.concatenate(out_prior)
        if not len(uu):
            return empty
        return pa.table(
            {
                "user_id": pa.array(uu, type=pa.int64()),
                "ts": pa.array(tts.view("datetime64[us]")).cast(ts_type),
                "prior_ts": pa.array(
                    pri.view("datetime64[us]"), mask=pri == TS_MIN
                ).cast(ts_type),
            }
        )

    return bucket_exchange(
        events.map_batches(_two_types, batch_format="pyarrow"),
        "user_id",
        _asof_fold,
        num_buckets=256,
    )


def window_distinct_users(
    sf_dir: str,
    *,
    window_minutes: int = 60,
) -> ray.data.Dataset:
    """Tumbling-window EXACT distinct users: per window_start, the
    number of distinct user_ids -> (window_start, n_users).

    Distinct-count is the classic shuffle trap — COUNT(DISTINCT) per
    key needs every (window, user) pair co-located.  Shape: each event
    maps to its int64 window start, then
    :func:`~dots_ocr_ray.util.bucket_distinct_counts` keeps each
    batch's distinct (window, user) pairs and counts them per window
    in ONE bucket exchange on the window — one Python call per bucket,
    never per window, and rows on the wire = distinct pairs per batch,
    never raw events.  The window start is cast to ``timestamp[us]`` in
    a map that fuses into the fold.  (The approximate counterpart at
    extreme user cardinality is the mergeable HLL in
    functions/sketches.py — see the approx_distinct_users query.)"""
    window_us = window_minutes * 60 * 1_000_000
    events = ray.data.read_parquet(f"{sf_dir}/events.parquet", columns=["ts", "user_id"])

    @rows_out(1)
    def _window(batch: pa.Table) -> pa.Table:
        ts = batch.column("ts").cast(pa.int64()).to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "window_start": pa.array(ts // window_us * window_us, type=pa.int64()),
                "user_id": batch.column("user_id"),
            }
        )

    def _as_timestamp(batch: pa.Table) -> pa.Table:
        ts = batch.column("window_start").cast(pa.timestamp("us"))
        return batch.set_column(0, "window_start", ts)

    return bucket_distinct_counts(
        events.map_batches(_window, batch_format="pyarrow"), "window_start", "user_id", "n_users"
    ).map_batches(_as_timestamp, batch_format="pyarrow")


def event_gaps(sf_dir: str) -> ray.data.Dataset:
    """LAG/LEAD window per key: microseconds since the previous event
    (-1 for the first) and the next event's type ('' for the last),
    per user in (ts, event_id) order — the LAG(...)/LEAD(...) OVER
    (PARTITION BY ... ORDER BY ...) surface.  Each user runs in
    (ts, event_id) order as vectorized shifts inside its bucket (see
    :func:`_sorted_user_apply`)."""
    events = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["user_id", "ts", "event_id", "event_type"]
    )

    def _vec(batch: pa.Table, u: np.ndarray, new_user: np.ndarray) -> pa.Table:
        n = batch.num_rows
        us = batch.column("ts").cast(pa.int64()).to_numpy(zero_copy_only=False)
        gap = np.empty(n, dtype=np.int64)
        gap[0] = -1
        if n > 1:
            gap[1:] = us[1:] - us[:-1]
        gap[new_user] = -1
        # nulls -> '' BEFORE the shift: SQL's coalesce(lead(event_type),
        # '') gives '' for a user's last event and for an event whose
        # successor's type is null
        etype = pc.fill_null(batch.column("event_type"), "")
        if isinstance(etype, pa.ChunkedArray):
            etype = etype.combine_chunks()
        # LEAD: next row's type, '' at user ends (positions where the
        # NEXT row starts a new user, and the batch's last row)
        last_of_user = np.zeros(n, dtype=bool)
        if n > 1:
            last_of_user[:-1] = new_user[1:]
        last_of_user[-1] = True
        next_type = pa.concat_arrays(
            [etype.slice(1), pa.array([""], type=pa.string())]
        )
        next_type = pa.array(
            np.where(
                last_of_user, "", next_type.to_numpy(zero_copy_only=False)
            ).astype(object),
            type=pa.string(),
        )
        return pa.table(
            {
                "user_id": pa.array(u, type=pa.int64()),
                "event_id": batch.column("event_id").cast(pa.int64()),
                "gap_us": pa.array(gap, type=pa.int64()),
                "next_type": next_type,
            }
        )

    return _sorted_user_apply(events, sort_cols=["ts", "event_id"], vec_fn=_vec)


def nearby_event_counts(
    sf_dir: str, *, window_s: int = 300
) -> ray.data.Dataset:
    """Stream-stream windowed self-join, aggregated: for every event,
    how many OTHER events of the same user fall within ± ``window_s``
    seconds — the `a JOIN b ON |a.ts-b.ts| <= w` surface, computed
    with two searchsorted passes instead of the quadratic match set
    (same never-materialize discipline as interval_agg_join).

    Shape: ONE coarse 256-way exchange on hash(user); inside a bucket
    every user's window counts come from TWO flat searchsorted passes
    over a row-base-offset view (each user-run's timestamps shift by
    run_index · (span + 2w + 1), keeping the flat array sorted and
    runs non-overlapping), so no Python executes per user.  If the
    offset arithmetic would overflow int64 (astronomically wide ts
    ranges × many runs) the fold falls back to a per-run searchsorted
    loop — same counts, stated not silent."""
    import numpy as np

    events = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["user_id", "ts", "event_id"]
    )
    w_us = np.int64(window_s * 1_000_000)

    def _nearby_fold(group: pa.Table) -> pa.Table:
        empty = pa.table(
            {
                "user_id": pa.array([], type=pa.int64()),
                "event_id": pa.array([], type=pa.int64()),
                "n_nearby": pa.array([], type=pa.int64()),
            }
        )
        if group.num_rows == 0:
            return empty
        u = group.column("user_id").to_numpy(zero_copy_only=False).astype(np.int64)
        ts = (
            group.column("ts")
            .to_numpy(zero_copy_only=False)
            .astype("datetime64[us]")
            .view(np.int64)
        )
        ev = group.column("event_id").to_numpy(zero_copy_only=False).astype(np.int64)
        order = np.lexsort((ev, ts, u))
        u, ts, ev = u[order], ts[order], ev[order]
        new_run = np.ones(len(u), dtype=bool)
        new_run[1:] = u[1:] != u[:-1]
        run_id = np.cumsum(new_run) - 1
        n_runs = int(run_id[-1]) + 1
        span = int(ts.max()) - int(ts.min())
        stride = span + 2 * int(w_us) + 1
        if n_runs * stride < (1 << 62):
            # shift each run into its own disjoint sorted range; the
            # flat array stays globally sorted so ONE searchsorted pair
            # answers every run at once
            base = ts.min()
            flat = (ts - base) + run_id * np.int64(stride)
            lo = np.searchsorted(flat, flat - w_us, side="left")
            hi = np.searchsorted(flat, flat + w_us, side="right")
            n_nearby = (hi - lo - 1).astype(np.int64)
        else:
            starts = np.flatnonzero(new_run)
            bounds = np.concatenate([starts, [len(u)]])
            n_nearby = np.empty(len(u), dtype=np.int64)
            for i in range(len(starts)):
                sl = slice(bounds[i], bounds[i + 1])
                us_ = ts[sl]
                lo = np.searchsorted(us_, us_ - w_us, side="left")
                hi = np.searchsorted(us_, us_ + w_us, side="right")
                n_nearby[sl] = hi - lo - 1
        return pa.table(
            {
                "user_id": pa.array(u, type=pa.int64()),
                "event_id": pa.array(ev, type=pa.int64()),
                "n_nearby": pa.array(n_nearby, type=pa.int64()),
            }
        )

    return bucket_exchange(events, "user_id", _nearby_fold, num_buckets=256)


def funnel_counts(
    events: ray.data.Dataset,
    stages: list[str],
    *,
    user_col: str = "user_id",
    type_col: str = "event_type",
    ts_col: str = "ts",
):
    """Ordered funnel analysis: how many users completed stage 1, then
    stage 2 strictly AFTER their first stage-1 event, and so on — the
    sequential `min(ts) > prior-stage min(ts)` ladder every product
    funnel query needs.

    Shape: one batch-local filter prunes events to the funnel's types
    before the only exchange (a ``user_col``-keyed group), each user's
    ladder walks vectorized numpy inside its group, and the per-user
    depth reduces through a bincount partial — so the exchange carries
    only funnel-typed events and the driver sees ``len(stages)``
    numbers, never user ids.  Returns a ``len(stages)``-row
    ``pyarrow.Table`` (stage_idx, stage, users) where ``users`` counts
    users reaching AT LEAST that stage.
    """
    import numpy as np
    import pyarrow as pa
    import pyarrow.compute as pc

    from dots_ocr_ray.util import bucket_keyed_fold

    n_stages = len(stages)
    stage_of = {s: i for i, s in enumerate(stages)}

    def _prune(batch: pa.Table) -> pa.Table:
        batch = batch.select([user_col, type_col, ts_col])
        return batch.filter(pc.is_in(batch.column(type_col), pa.array(stages)))

    # coarse 256-way exchange on hash(user); each bucket walks EVERY
    # user's ladder vectorized per user-run-size class (the stage loop
    # is len(stages) masked-min passes over (n_runs, size) matrices)
    # and emits one depth-histogram partial — no Python call per user
    TS_MIN = np.int64(np.iinfo(np.int64).min)
    TS_MAX = np.int64(np.iinfo(np.int64).max)

    def _depth_fold(group: pa.Table) -> pa.Table:
        hist = np.zeros(n_stages + 1, dtype=np.int64)
        if group.num_rows:
            u = group.column(user_col).to_numpy(zero_copy_only=False).astype(np.int64)
            ts = (
                group.column(ts_col)
                .to_numpy(zero_copy_only=False)
                .astype("datetime64[us]")
                .view(np.int64)
            )
            kind = pc.index_in(
                group.column(type_col), value_set=pa.array(stages)
            ).to_numpy(zero_copy_only=False).astype(np.int64)
            order = np.lexsort((ts, u))
            u, ts, kind = u[order], ts[order], kind[order]
            new_run = np.ones(len(u), dtype=bool)
            new_run[1:] = u[1:] != u[:-1]
            starts = np.flatnonzero(new_run)
            lens = np.diff(np.concatenate([starts, [len(u)]]))
            for size in np.unique(lens):
                runs = starts[lens == size]
                idx = runs[:, None] + np.arange(size)[None, :]
                mt, mk = ts[idx], kind[idx]
                prev = np.full(len(runs), TS_MIN, dtype=np.int64)
                depth = np.zeros(len(runs), dtype=np.int64)
                alive = np.ones(len(runs), dtype=bool)
                for i in range(n_stages):
                    cand = np.where((mk == i) & (mt > prev[:, None]), mt, TS_MAX)
                    m = cand.min(axis=1)
                    ok = alive & (m != TS_MAX)
                    prev = np.where(ok, m, prev)
                    depth += ok
                    alive = ok
                hist += np.bincount(depth, minlength=n_stages + 1)
        return pa.table(
            {
                "depth": pa.array(np.arange(n_stages + 1), type=pa.int64()),
                "n": pa.array(hist, type=pa.int64()),
            }
        )

    per_depth = bucket_keyed_fold(
        bucket_exchange(
            events.map_batches(_prune, batch_format="pyarrow"),
            user_col,
            _depth_fold,
            num_buckets=256,
            rows_per_block=65536,
        ),
        "depth",
        {"n": ("sum", "n")},
    )
    # bounded: n_stages+1 rows at most
    rows = {int(r["depth"]): int(r["n"]) for r in per_depth.take_all()}
    total = np.zeros(n_stages + 1, dtype=np.int64)
    for d, n in rows.items():
        total[d] = n
    at_least = np.cumsum(total[::-1])[::-1]  # users with depth >= i
    return pa.table(
        {
            "stage_idx": pa.array(np.arange(1, n_stages + 1), type=pa.int64()),
            "stage": pa.array(stages, type=pa.string()),
            "users": pa.array(at_least[1:], type=pa.int64()),
        }
    )


def cohort_retention(sf_dir: str) -> ray.data.Dataset:
    """Weekly cohort retention matrix: users grouped by their
    first-activity week (the cohort), counted in every later week they
    return — the product-analytics staple.

    Exchange budget at 10^12 events / 10^9 users:
    1. one DISTINCT (user_id, week) keyed fold — the input collapses
       to user-weeks BEFORE any join;
    2. per-user cohort = a ``min`` keyed fold over the user-week table
       (no per-group Python);
    3. user-week ⋈ cohort via :func:`~.relational.hash_join`
       (broadcast gather while the cohort table fits, one bucket-keyed
       exchange above — both sides are user-cardinality at 10^9
       users);
    4. final (cohort_week, offset) count: a ≤ weeks² keyed fold.

    Output: (cohort_week, offset_weeks, n_users); counts are exact
    because step 1's fold makes user-weeks globally distinct.
    Weeks travel as INT64 microseconds through every exchange — Ray's
    groupby/sort aggregators round-trip timestamp keys through numpy
    and lose the us unit (timestamp[s] blocks + schema-mismatch
    warnings); the cast back to timestamp happens once at the end."""
    import pyarrow as pa
    import pyarrow.compute as pc

    from dots_ocr_ray.pipelines.relational import hash_join
    from dots_ocr_ray.util import bucket_keyed_fold

    events = ray.data.read_parquet(f"{sf_dir}/events.parquet", columns=["user_id", "ts"])

    def _week(batch: pa.Table) -> pa.Table:
        week = pc.floor_temporal(batch.column("ts"), unit="week").cast(
            pa.timestamp("us")
        ).cast(pa.int64())
        return pa.table({"user_id": batch.column("user_id"), "week": week})

    uw = bucket_keyed_fold(events.map_batches(_week, batch_format="pyarrow"), ["user_id", "week"], {})
    cohort = bucket_keyed_fold(uw, "user_id", {"cohort_week": ("min", "week")})

    joined = hash_join(
        uw,
        cohort,
        on="user_id",
        left_schema=pa.schema([("user_id", pa.int64()), ("week", pa.int64())]),
        right_schema=pa.schema([("user_id", pa.int64()), ("cohort_week", pa.int64())]),
    )

    US_PER_WEEK = 7 * 86400 * 10**6

    def _count(batch: pa.Table) -> pa.Table:
        w = batch.column("week").to_numpy(zero_copy_only=False)
        c = batch.column("cohort_week").to_numpy(zero_copy_only=False)
        off = (w - c) // US_PER_WEEK
        return pa.table({"cohort_week": batch.column("cohort_week"), "offset_weeks": pa.array(off, type=pa.int64())})

    agg = bucket_keyed_fold(
        joined.map_batches(_count, batch_format="pyarrow"), ["cohort_week", "offset_weeks"], {"n_users": ("count", None)}
    )

    def _finish(batch: pa.Table) -> pa.Table:
        return batch.set_column(0, "cohort_week", batch.column("cohort_week").cast(pa.timestamp("us")))

    return agg.map_batches(_finish, batch_format="pyarrow")


def decayed_counts(
    ds: ray.data.Dataset,
    *,
    key_col: str,
    ts_col: str = "ts",
    half_life_days: float = 7.0,
    micro: int = 1_000_000,
) -> pa.Table:
    """Exponentially time-decayed counts per key → ``(key,
    decayed_micro, n)`` — the freshness-weighted popularity signal
    (recrawl priority, trending detection) where an event ``d`` days
    before the corpus max-timestamp contributes ``2^(-d/half_life)``.

    Exactness contract: each row's weight quantizes to
    ``floor(2^(-age/hl) · 1e6)`` int64 BEFORE summing (the micro-unit
    discipline), so per-key totals are integer sums — bit-identical
    to the SQL mirror and to any partitioning.  Two stateless passes:
    max-timestamp, then one keyed fold of the int64 weights."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.compute as pc

    # pass 1: corpus reference timestamp (µs)
    def _us(col: pa.ChunkedArray) -> pa.ChunkedArray:
        # pin the unit: [ns]/[s] inputs would silently scale ages
        return col.cast(pa.timestamp("us")).cast(pa.int64())

    ref_us = None
    for b in ds.map_batches(
        lambda t: pa.table(
            {"m": pa.array([pc.max(_us(t.column(ts_col))).as_py()], type=pa.int64())}
        ),
        batch_format="pyarrow",
    ).iter_batches(batch_format="pyarrow"):
        for r in range(b.num_rows):
            v = b.column("m")[r].as_py()
            if v is not None:
                ref_us = v if ref_us is None else max(ref_us, v)
    if ref_us is None:
        return pa.table(
            {
                key_col: pa.array([], pa.string()),
                "decayed_micro": pa.array([], pa.int64()),
                "n": pa.array([], pa.int64()),
            }
        )

    def _weights(batch: pa.Table, _ref=ref_us) -> pa.Table:
        us = (
            batch.column(ts_col)
            .cast(pa.timestamp("us"))
            .cast(pa.int64())
            .to_numpy(zero_copy_only=False)
        )
        age_days = (_ref - us) / 86400000000.0
        w = np.floor(np.power(2.0, -age_days / half_life_days) * micro).astype(np.int64)
        return pa.table({key_col: batch.column(key_col), "w": pa.array(w, type=pa.int64())})

    from dots_ocr_ray.util import bucket_keyed_fold

    agg = bucket_keyed_fold(
        ds.map_batches(_weights, batch_format="pyarrow"), key_col, {"decayed_micro": ("sum", "w"), "n": ("count", None)}
    )
    out = pa.concat_tables(
        [b for b in agg.iter_batches(batch_format="pyarrow") if b.num_rows]
        or [
            pa.table(
                {
                    key_col: pa.array([], pa.string()),
                    "decayed_micro": pa.array([], pa.int64()),
                    "n": pa.array([], pa.int64()),
                }
            )
        ]
    )

    return out.take(pc.sort_indices(out, sort_keys=[(key_col, "ascending")]))


def ohlc_bars(
    events: ray.data.Dataset,
    *,
    key_col: str = "event_type",
    ts_col: str = "ts",
    id_col: str = "event_id",
    val_col: str = "value",
    bar_us: int = 3_600_000_000,
) -> ray.data.Dataset:
    """Time-bar downsampling (OHLC resample): per (key, bar) emit
    open / high / low / close / n / integer-cent sum, where open and
    close are the values of the first / last event in deterministic
    (ts, id) order — the metrics-rollup / market-bar operator that
    turns 10^12 raw events into a bounded keys x bars table.

    Scale shape: every event becomes a one-event partial row carrying
    mergeable stats (open/close ride with their (ts, id) coordinate, so
    partials fold associatively under ANY partitioning), and one
    vectorized fold collapses partials per (key, bar): once per batch
    (a combiner, so the exchange moves partials, never events), then
    once per bucket of the single
    :func:`~dots_ocr_ray.util.bucket_exchange` — ``_key_runs`` over
    (key, bar) ordered by (ts, id), ``reduceat`` for high, low, n and
    cents.  Sums quantize to int64 cents BEFORE summing (the repo-wide
    micro-unit rule) so totals are bit-identical to the SQL mirror."""
    keys = [key_col, "bar"]

    def _events(batch: "pa.Table") -> "pa.Table":
        ts = batch.column(ts_col).to_numpy(zero_copy_only=False).astype(np.int64)
        eid = batch.column(id_col).to_numpy(zero_copy_only=False).astype(np.int64)
        val = batch.column(val_col).to_numpy(zero_copy_only=False).astype(np.float64)
        cents = np.round(val * 100).astype(np.int64)
        return pa.table(
            {
                key_col: batch.column(key_col),
                "bar": pa.array(ts // bar_us, type=pa.int64()),
                "open_ts": ts,
                "open_id": eid,
                "open": val,
                "close_ts": ts,
                "close_id": eid,
                "close": val,
                "lo": val,
                "hi": val,
                "sum_cents": cents,
                "n": np.ones(len(ts), np.int64),
            }
        )

    def _fold(t: "pa.Table") -> "pa.Table":
        if not t.num_rows:
            return t
        perm, starts = _key_runs(t, keys, ["open_ts", "open_id"])
        last = _key_runs(t, keys, ["close_ts", "close_id"])[0][np.append(starts[1:], t.num_rows) - 1]
        first = perm[starts]

        def _reduce(op, c):
            return pa.array(op.reduceat(t.column(c).to_numpy(zero_copy_only=False)[perm], starts))

        return pa.table(
            {
                **{c: t.column(c).take(first) for c in (*keys, "open_ts", "open_id", "open")},
                **{c: t.column(c).take(last) for c in ("close_ts", "close_id", "close")},
                "lo": _reduce(np.minimum, "lo"),
                "hi": _reduce(np.maximum, "hi"),
                "sum_cents": _reduce(np.add, "sum_cents"),
                "n": _reduce(np.add, "n"),
            }
        )

    def _bars(group: "pa.Table") -> "pa.Table":
        t = _fold(group).select([*keys, "open", "hi", "lo", "close", "n", "sum_cents"])
        return t.rename_columns([*keys, "open", "high", "low", "close", "n", "sum_cents"])

    combined = events.map_batches(lambda b: _fold(_events(b)), batch_format="pyarrow")
    return bucket_exchange(combined, keys, _bars)


def late_event_audit(sf_dir: str) -> "ray.data.Dataset":
    """Watermark / out-of-order audit — the late-data accounting a
    streaming ingest runs before choosing a watermark delay: per user,
    how many events ARRIVED (ingest order = ``event_id``) with an
    event-time ``ts`` older than the running event-time high-water
    mark, and by how much at worst.

    One bucket exchange on user_id sorted by event_id inside each
    bucket (``_sorted_user_apply``): the per-event watermark is a
    segmented cummax of the previous event's timestamp (one Cython
    ``groupby.cummax`` call per BUCKET, never per user), and the
    per-user rollup is a ``reduceat`` over the same user segments.
    Output: (user_id, n_events, n_late, max_late_us), all int64 —
    hash-exact against the SQL window oracle.
    """
    events = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["user_id", "event_id", "ts"]
    )

    def _vec(batch: pa.Table, u: np.ndarray, new_user: np.ndarray) -> pa.Table:
        n = batch.num_rows
        us = batch.column("ts").cast(pa.int64()).to_numpy()
        seg = np.cumsum(new_user) - 1
        prev = np.empty(n, dtype=np.float64)
        prev[0] = -np.inf
        prev[1:] = us[:-1]
        prev[new_user] = -np.inf
        wm = pd.Series(prev).groupby(seg).cummax().to_numpy()
        late = np.where(np.isfinite(wm), np.maximum(wm - us, 0), 0).astype(np.int64)
        starts = np.flatnonzero(new_user)
        return pa.table(
            {
                "user_id": pa.array(u[starts], type=pa.int64()),
                "n_events": pa.array(np.diff(np.append(starts, n)), type=pa.int64()),
                "n_late": pa.array(np.add.reduceat((late > 0).astype(np.int64), starts), type=pa.int64()),
                "max_late_us": pa.array(np.maximum.reduceat(late, starts), type=pa.int64()),
            }
        )

    return _sorted_user_apply(events, sort_cols=["event_id"], vec_fn=_vec)


def interval_coverage(
    events: "ray.data.Dataset",
    *,
    user_col: str = "user_id",
    ts_col: str = "ts",
    value_col: str = "value",
) -> "ray.data.Dataset":
    """Per-user interval UNION (gaps-and-islands merge): each event
    opens the interval ``[ts, ts + dur)`` with the deterministic
    duration ``((|cents| % 3600) + 60) seconds`` (cents = value·100
    rounded; the abs keeps numpy's floored ``%`` and SQL's
    sign-keeping ``%`` on the same non-negative operand, so negative
    values cannot silently diverge from the oracle or open an
    end-before-start interval); overlapping intervals merge into
    islands, and the rollup reports ``(user_id, n_events, n_islands,
    covered_us)`` — the distinct-busy-time aggregate interval joins
    can't express.

    Shape: ONE coarse 256-way exchange on hash(user); each bucket
    resolves every user with a single lexsort + per-user-run-size-class
    row-wise cummax (an island starts where start > cummax of previous
    ends; every run starts an island at column 0, so islands never span
    rows and the per-island covered spans reduce through one bincount)
    — identical in effect to the SQL mirror's ``max(e) OVER (... 1
    PRECEDING)`` windows, no Python call per user.  All int64 µs
    arithmetic — hash-exact under any partitioning."""
    import numpy as np
    import pyarrow as pa

    def _cover_fold(group: pa.Table) -> pa.Table:
        empty = pa.table(
            {
                user_col: pa.array([], type=pa.int64()),
                "n_events": pa.array([], pa.int64()),
                "n_islands": pa.array([], pa.int64()),
                "covered_us": pa.array([], pa.int64()),
            }
        )
        if group.num_rows == 0:
            return empty
        u = group.column(user_col).to_numpy(zero_copy_only=False).astype(np.int64)
        ts = group.column(ts_col).cast(pa.int64()).to_numpy(zero_copy_only=False)
        val = group.column(value_col).to_numpy(zero_copy_only=False)
        cents = np.round(val * 100).astype(np.int64)
        dur_us = ((np.abs(cents) % 3600) + 60) * 1_000_000
        s = ts
        e = ts + dur_us
        order = np.lexsort((e, s, u))
        u, s, e = u[order], s[order], e[order]
        new_run = np.ones(len(u), dtype=bool)
        new_run[1:] = u[1:] != u[:-1]
        rstarts = np.flatnonzero(new_run)
        lens = np.diff(np.concatenate([rstarts, [len(u)]]))
        out_u: list[np.ndarray] = []
        out_ev: list[np.ndarray] = []
        out_is: list[np.ndarray] = []
        out_cov: list[np.ndarray] = []
        for size in np.unique(lens):
            runs = rstarts[lens == size]
            idx = runs[:, None] + np.arange(size)[None, :]
            ms, me = s[idx], e[idx]
            run = np.maximum.accumulate(me, axis=1)
            new_island = np.empty_like(ms, dtype=bool)
            new_island[:, 0] = True
            if size > 1:
                new_island[:, 1:] = ms[:, 1:] > run[:, :-1]
            fm = new_island.ravel()
            fs = ms.ravel()
            frun = run.ravel()
            isl_starts = np.flatnonzero(fm)
            isl_ends = np.append(isl_starts[1:], len(fs)) - 1
            cov = frun[isl_ends] - fs[isl_starts]
            rows = isl_starts // int(size)
            out_u.append(u[runs])
            out_ev.append(np.full(len(runs), int(size), dtype=np.int64))
            out_is.append(np.bincount(rows, minlength=len(runs)).astype(np.int64))
            out_cov.append(
                np.bincount(rows, weights=cov, minlength=len(runs)).astype(np.int64)
            )
        return pa.table(
            {
                user_col: pa.array(np.concatenate(out_u), type=pa.int64()),
                "n_events": pa.array(np.concatenate(out_ev), pa.int64()),
                "n_islands": pa.array(np.concatenate(out_is), pa.int64()),
                "covered_us": pa.array(np.concatenate(out_cov), pa.int64()),
            }
        )

    return bucket_exchange(
        events.select_columns([user_col, ts_col, value_col]),
        user_col,
        _cover_fold,
        num_buckets=256,
    )


# --- timing-regularity bot detection ---------------------------------------------

def bot_regularity_scores(
    ds: "ray.data.Dataset",
    *,
    user_col: str = "user_id",
    ts_col: str = "ts",
    min_events: int = 5,
    cv_threshold_micro: int = 200_000,
):
    """Behavioral bot screen: a client whose inter-event gaps are TOO
    REGULAR (coefficient of variation below threshold) is a scheduler,
    not a human — the standard crawl-log heuristic.

    Exactness contract: per-user gap sufficient stats (n, Σgap, Σgap²)
    in exact int64 microseconds; ``cv_micro = floor(1e6 ·
    sqrt(n·Σg² − (Σg)²) / Σg)`` computed from ARBITRARY-PRECISION
    python ints on the bounded per-user fold (the int64 regime would
    overflow at Σg² ≈ 10^18 — day-long gaps do that in µs), one float
    sqrt mirrored by the SQL oracle's operand order.  Users with
    < ``min_events`` events (i.e. < min_events−1 gaps) are not
    judged.

    Scale shape: ONE user-keyed exchange; within each group a
    vectorized sort + diff; output one row per judged user."""
    import numpy as np
    import pyarrow as pa

    def _ut(batch: pa.Table) -> pa.Table:
        ts = (
            batch.column(ts_col)
            .to_numpy(zero_copy_only=False)
            .astype("datetime64[us]")
            .astype(np.int64)
        )
        return pa.table(
            {
                "u": batch.column(user_col).cast(pa.int64()),
                "t": pa.array(ts, type=pa.int64()),
            }
        )

    def _fold(group: pa.Table) -> pa.Table:
        import math

        u = group.column("u").to_numpy(zero_copy_only=False)
        t = group.column("t").to_numpy(zero_copy_only=False)
        order = np.lexsort((t, u))
        u, t = u[order], t[order]
        starts = np.concatenate([[0], np.nonzero(np.diff(u))[0] + 1])
        ends = np.concatenate([starts[1:], [len(u)]])
        users, ns, cvs, bots = [], [], [], []
        for s, e in zip(starts, ends):
            n_ev = e - s
            if n_ev < min_events:
                continue
            gaps = np.diff(t[s:e]).astype(object)  # python ints: exact Σg²
            n = len(gaps)
            sg = int(sum(gaps))
            sgg = int(sum(g * g for g in gaps))
            if sg == 0:
                cv = 0
            else:
                var_num = n * sgg - sg * sg  # ≥ 0 by Cauchy-Schwarz
                cv = int(math.floor(1_000_000.0 * math.sqrt(float(var_num)) / sg))
            users.append(int(u[s]))
            ns.append(int(n_ev))
            cvs.append(cv)
            bots.append(cv < cv_threshold_micro)
        return pa.table(
            {
                "user_id": pa.array(users, type=pa.int64()),
                "n_events": pa.array(ns, type=pa.int64()),
                "cv_micro": pa.array(cvs, type=pa.int64()),
                "is_bot": pa.array(bots, type=pa.bool_()),
            }
        )

    out = bucket_exchange(
        ds.select_columns([user_col, ts_col]).map_batches(_ut, batch_format="pyarrow"),
        "u",
        _fold,
        num_buckets=64,
    )
    parts = [b for b in out.iter_batches(batch_format="pyarrow") if b.num_rows]
    if not parts:
        return pa.table(
            {
                "user_id": pa.array([], type=pa.int64()),
                "n_events": pa.array([], type=pa.int64()),
                "cv_micro": pa.array([], type=pa.int64()),
                "is_bot": pa.array([], type=pa.bool_()),
            }
        )
    return pa.concat_tables(parts)


def event_trigrams(
    ds: "ray.data.Dataset",
    *,
    user_col: str = "user_id",
    ts_col: str = "ts",
    type_col: str = "event_type",
    id_col: str = "event_id",
    min_count: int = 2,
) -> pa.Table:
    """Frequent 3-step behavioral sequences: (t1, t2, t3, n) for
    consecutive event-type triples within a user's stream in
    (ts, event_id) order, kept when seen >= min_count times — the
    sequence-mining table one step past the Markov transition counts.

    Scale shape: ONE user-keyed exchange; per-group vectorized sort +
    two shifts emits the trigrams (a user's triples never span
    groups); one keyed fold counts them; min_count bounds the output."""
    import numpy as np
    import pyarrow as pa

    def _rows(batch: pa.Table) -> pa.Table:
        ts = (
            batch.column(ts_col)
            .to_numpy(zero_copy_only=False)
            .astype("datetime64[us]")
            .astype(np.int64)
        )
        return pa.table(
            {
                "u": batch.column(user_col).cast(pa.int64()),
                "t": pa.array(ts, type=pa.int64()),
                "e": batch.column(id_col).cast(pa.int64()),
                "ty": batch.column(type_col).cast(pa.string()),
            }
        )

    def _fold(group: pa.Table) -> pa.Table:
        u = group.column("u").to_numpy(zero_copy_only=False)
        t = group.column("t").to_numpy(zero_copy_only=False)
        e = group.column("e").to_numpy(zero_copy_only=False)
        ty = np.array(group.column("ty").to_pylist())
        order = np.lexsort((e, t, u))
        u, ty = u[order], ty[order]
        if len(u) < 3:
            return pa.table({"tri": pa.array([], type=pa.string())})
        same = (u[2:] == u[1:-1]) & (u[1:-1] == u[:-2])
        tris = np.array(
            [f"{a}\x1f{b}\x1f{c}" for a, b, c in zip(ty[:-2], ty[1:-1], ty[2:])]
        )[same]
        return pa.table({"tri": pa.array(tris.tolist(), type=pa.string())})

    from dots_ocr_ray.util import bucket_keyed_fold

    trigrams = bucket_exchange(
        ds.select_columns([user_col, ts_col, id_col, type_col]).map_batches(_rows, batch_format="pyarrow"),
        "u",
        _fold,
        num_buckets=64,
    )
    folded = bucket_keyed_fold(trigrams, "tri", {"n": ("count", None)}).to_pandas()
    folded = folded[folded["n"] >= min_count].sort_values("tri")
    parts = [s.split("\x1f") for s in folded["tri"]]
    return pa.table(
        {
            "t1": pa.array([p[0] for p in parts], type=pa.string()),
            "t2": pa.array([p[1] for p in parts], type=pa.string()),
            "t3": pa.array([p[2] for p in parts], type=pa.string()),
            "n": pa.array([int(x) for x in folded["n"]], type=pa.int64()),
        }
    )
