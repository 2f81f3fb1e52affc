"""Relational / windowed operators over the driver testdata tables —
the aggregate / join / sort / top-k surface of the engine (reference
aggregations G1-G3 generalized; SURVEY.md §2.5-2.6).

Patterns demonstrated:
* keyed aggregates through ``util.bucket_keyed_fold`` (a per-batch
  combiner, so no full-row shuffle for wide aggregations),
* one equi-join (:func:`hash_join`) that broadcasts a right side
  which fits and exchanges a larger one,
* tumbling-window aggregate over an event stream (a keyed fold over
  a derived window key),
* global top-k without a global sort (per-batch heap + tiny merge).
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc

import ray
import ray.data

from dots_ocr_ray import util
from dots_ocr_ray.util import bucket_exchange


def lineitem_pricing_summary(sf_dir: str) -> ray.data.Dataset:
    """TPC-H Q1-shaped pricing summary over lineitem: one keyed fold
    over (flag, status) — only per-batch partials move."""
    from dots_ocr_ray.util import bucket_keyed_fold

    ds = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_returnflag", "l_linestatus", "l_quantity", "l_extendedprice", "l_discount"],
    )

    def _disc_price(batch: pa.Table) -> pa.Table:
        disc_price = pc.multiply(
            batch.column("l_extendedprice"), pc.subtract(pa.scalar(1.0), batch.column("l_discount"))
        )
        return batch.append_column("disc_price", disc_price)

    return bucket_keyed_fold(
        ds.map_batches(_disc_price, batch_format="pyarrow"),
        ["l_returnflag", "l_linestatus"],
        {
            "sum_qty": ("sum", "l_quantity"),
            "sum_base_price": ("sum", "l_extendedprice"),
            "sum_disc_price": ("sum", "disc_price"),
            "count_order": ("count", None),
        },
    )


def orders_by_mktsegment(sf_dir: str) -> ray.data.Dataset:
    """orders ⋈ customer (broadcast small side) → per-segment totals.

    customer is the dimension table: shipped to the object store ONCE
    (ray.put) and read per actor — no shuffle join."""
    from dots_ocr_ray.util import bucket_keyed_fold

    customers = ray.data.read_parquet(
        f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_mktsegment"]
    ).to_pandas()
    lookup_ref = ray.put(dict(zip(customers["c_custkey"], customers["c_mktsegment"])))

    orders = ray.data.read_parquet(f"{sf_dir}/orders.parquet", columns=["o_custkey", "o_totalprice"])

    def _join(batch: pa.Table) -> pa.Table:
        from dots_ocr_ray.util import cached_object

        lookup = cached_object(lookup_ref)
        segs = [lookup.get(k, "UNKNOWN") for k in batch.column("o_custkey").to_pylist()]
        return batch.append_column("c_mktsegment", pa.array(segs, type=pa.string()))

    # stateless tasks + per-worker broadcast cache: no actor-pool ramp
    return bucket_keyed_fold(
        orders.map_batches(_join, batch_format="pyarrow"),
        "c_mktsegment",
        {"total_price": ("sum", "o_totalprice"), "n_orders": ("count", None)},
    )


def events_windowed_agg(sf_dir: str, window_minutes: int = 60) -> ray.data.Dataset:
    """Tumbling-window aggregate over the events table: per
    (event_type, window_start) count + value sum.

    Ray Data has no event-time windows; the window is a derived key
    (ts floored to the window), computed vectorized, then ONE keyed
    fold — the documented pattern for stream-shaped workloads."""
    from dots_ocr_ray.util import bucket_keyed_fold

    ds = ray.data.read_parquet(f"{sf_dir}/events.parquet", columns=["ts", "event_type", "value"])
    window_us = window_minutes * 60 * 1_000_000

    def _window(batch: pa.Table) -> pa.Table:
        import numpy as np

        # numpy floor_divide, NOT pc.divide: Arrow integer division
        # truncates toward zero, so a pre-epoch ts would land in the
        # wrong (higher) window instead of flooring
        ts_us = (
            batch.column("ts").cast(pa.int64()).to_numpy(zero_copy_only=False)
        )
        win = pa.array(
            np.floor_divide(ts_us, window_us) * window_us, type=pa.int64()
        )
        return batch.append_column("window_start", win.cast(pa.timestamp("us")))

    return bucket_keyed_fold(
        ds.map_batches(_window, batch_format="pyarrow"),
        ["event_type", "window_start"],
        {"sum_value": ("sum", "value"), "n_events": ("count", None)},
    )


def supplier_stats_by_nation(sf_dir: str) -> ray.data.Dataset:
    """supplier ⋈ nation (broadcast small side) → per-nation supplier
    count + account-balance total; same no-shuffle join shape as
    :func:`orders_by_mktsegment`."""
    from dots_ocr_ray.util import bucket_keyed_fold

    nation = ray.data.read_parquet(f"{sf_dir}/nation.parquet", columns=["n_nationkey", "n_name"]).to_pandas()
    lookup_ref = ray.put(dict(zip(nation["n_nationkey"], nation["n_name"])))

    suppliers = ray.data.read_parquet(
        f"{sf_dir}/supplier.parquet", columns=["s_nationkey", "s_acctbal"]
    )

    def _join(batch: pa.Table) -> pa.Table:
        from dots_ocr_ray.util import cached_object

        lookup = cached_object(lookup_ref)
        names = [lookup.get(k, "UNKNOWN") for k in batch.column("s_nationkey").to_pylist()]
        return batch.append_column("n_name", pa.array(names, type=pa.string()))

    agg = bucket_keyed_fold(
        suppliers.map_batches(_join, batch_format="pyarrow"),
        "n_name",
        {"total_acctbal": ("sum", "s_acctbal"), "n_suppliers": ("count", None)},
    )

    def _round(batch: pa.Table) -> pa.Table:
        return batch.set_column(
            1, "total_acctbal", pc.round(batch.column("total_acctbal"), 2, round_mode="half_towards_infinity")
        )

    return agg.map_batches(_round, batch_format="pyarrow")


def part_stats_by_brand(sf_dir: str) -> ray.data.Dataset:
    """Per-brand part count + average retail price — one keyed fold
    of sum + count, exact average at the finalize."""
    from dots_ocr_ray.util import bucket_keyed_fold

    parts = ray.data.read_parquet(f"{sf_dir}/part.parquet", columns=["p_brand", "p_retailprice"])
    agg = bucket_keyed_fold(parts, "p_brand", {"total": ("sum", "p_retailprice"), "n_parts": ("count", None)})

    def _finalize(batch: pa.Table) -> pa.Table:
        n = batch.column("n_parts")
        avg = pc.divide(batch.column("total"), n.cast(pa.float64()))
        return pa.table(
            {
                "p_brand": batch.column("p_brand"),
                "n_parts": n,
                "avg_price": pc.round(avg, 2, round_mode="half_towards_infinity"),
            }
        )

    return agg.map_batches(_finalize, batch_format="pyarrow")


def grouped_topk(
    ds: ray.data.Dataset,
    *,
    key_col: str,
    value_col: str,
    id_col: str,
    k: int,
    ascending: bool = False,
) -> ray.data.Dataset:
    """Per-group top-k rows by value (DESC by default, ASC with
    ``ascending`` — e.g. hash-priority stratified sampling), id ASC
    tiebreak — the windowed-rank operator (SQL ``row_number() OVER
    (PARTITION BY ...) QUALIFY <= k``).

    A per-batch COMBINER pre-filters each batch to its local top-k per
    key before the keyed shuffle (a row outside its batch-local top-k
    can never be in the global top-k), so the exchange moves at most
    k × keys × batches rows instead of the whole table."""
    direction = "ascending" if ascending else "descending"

    def _local_prune(batch: pa.Table) -> pa.Table:
        import numpy as np

        n = batch.num_rows
        if n == 0:
            return batch
        order = pc.sort_indices(
            batch,
            sort_keys=[(key_col, "ascending"), (value_col, direction), (id_col, "ascending")],
        )
        batch = batch.take(order)
        keys = batch.column(key_col)
        if isinstance(keys, pa.ChunkedArray):
            keys = keys.combine_chunks()
        change = np.ones(n, dtype=bool)
        if n > 1:
            change[1:] = pc.not_equal(keys.slice(1), keys.slice(0, n - 1)).to_numpy(
                zero_copy_only=False
            )
        starts_idx = np.flatnonzero(change)
        run_id = np.cumsum(change) - 1
        pos_in_run = np.arange(n) - starts_idx[run_id]
        return batch.filter(pa.array(pos_in_run < k, type=pa.bool_()))

    # the reduce is the SAME vectorized top-k-per-key pass run once per
    # coarse hash bucket (keys partition across buckets, so a bucket
    # holds every surviving candidate of its keys) — one Python call
    # per bucket, not per key, which is what lets per-HOST sampling
    # queries scale to corpus-sized key counts
    def _top_fold(group: pa.Table) -> pa.Table:
        return _local_prune(group.drop_columns(["__bucket"]))

    pruned = ds.map_batches(_local_prune, batch_format="pyarrow")
    return bucket_exchange(pruned, key_col, _top_fold, num_buckets=256)


def exact_float_quantiles(
    ds: ray.data.Dataset,
    col: str,
    qs: list[float],
    *,
    num_bins: int = 8192,
    collect_limit: int = 262_144,
    max_passes: int = 8,
) -> pa.Table:
    """EXACT quantiles of a FLOAT column without a global sort and
    without a per-distinct-value exchange (the continuous-domain
    complement of :func:`exact_int_quantiles`, whose value-counts
    trick needs distinct values ≪ rows).

    Iterative histogram refinement — the distributed selection
    algorithm: pass 0 computes (count, min, max); each later pass
    histograms every still-active quantile's CURRENT interval into
    ``num_bins`` buckets (per-batch ``np.histogram`` partials, driver
    folds ``num_bins``-sized arrays), then descends into the bucket
    containing the target rank — shrinking the candidate set ~8192×
    per pass.  When a quantile's interval holds ≤ ``collect_limit``
    values, ONE filtered collect pulls exactly those values and the
    driver selects by rank.  Total cost: ~3 streaming passes for any
    corpus size (8192² already cuts 10^12 rows to ~15k candidates) —
    each pass is a stateless column scan, no exchange at all.

    A mass-tie interval (every remaining value identical, so bins
    can't shrink it) IS the answer and resolves immediately.  Nulls
    and NaNs are dropped, matching SQL aggregate semantics.  Matches
    DuckDB ``quantile_disc``: the value at 1-indexed rank
    ``ceil(q * n)``."""
    import math

    import numpy as np

    # ---- pass 0: count + min + max ------------------------------------
    def _stats(batch: pa.Table) -> pa.Table:
        v = batch.column(col).to_numpy(zero_copy_only=False).astype(np.float64)
        v = v[~np.isnan(v)]
        if not len(v):
            return pa.table(
                {
                    "n": pa.array([0], type=pa.int64()),
                    "lo": pa.array([np.inf], type=pa.float64()),
                    "hi": pa.array([-np.inf], type=pa.float64()),
                }
            )
        return pa.table(
            {
                "n": pa.array([len(v)], type=pa.int64()),
                "lo": pa.array([float(v.min())], type=pa.float64()),
                "hi": pa.array([float(v.max())], type=pa.float64()),
            }
        )

    n = 0
    g_lo, g_hi = np.inf, -np.inf
    for r in ds.map_batches(_stats, batch_format="pyarrow").take_all():
        n += r["n"]
        g_lo = min(g_lo, r["lo"])
        g_hi = max(g_hi, r["hi"])
    if n == 0:
        return pa.table(
            {"q": pa.array(qs, type=pa.float64()), "value": pa.array([None] * len(qs), type=pa.float64())}
        )

    # per-quantile state: interval [lo, hi] (inclusive), target rank
    # WITHIN the interval, and the count of values inside it
    # hi_inc: whether the interval's upper end is inclusive — only the
    # global max / a last-bin descent keeps it closed.  Descending into
    # a non-last bin makes the upper end STRICT, which keeps a massive
    # tie sitting exactly on the bin edge out of the final collect.
    state = []
    for q in qs:
        rank = max(1, math.ceil(q * n))
        state.append(
            {"q": q, "lo": g_lo, "hi": g_hi, "hi_inc": True, "rank": rank, "count": n, "value": None}
        )

    for _ in range(max_passes):
        active = [st for st in state if st["value"] is None and st["count"] > collect_limit]
        if not active:
            break
        intervals = [(st["lo"], st["hi"], st["hi_inc"]) for st in active]

        def _hists(batch: pa.Table, _iv=intervals) -> pa.Table:
            v = batch.column(col).to_numpy(zero_copy_only=False).astype(np.float64)
            v = v[~np.isnan(v)]
            cols = {"bin": pa.array(np.arange(num_bins, dtype=np.int64), type=pa.int64())}
            for k, (lo, hi, hi_inc) in enumerate(_iv):
                sel = v[(v >= lo) & ((v <= hi) if hi_inc else (v < hi))]
                h, _ = np.histogram(sel, bins=num_bins, range=(lo, hi))
                cols[f"h{k}"] = pa.array(h.astype(np.int64), type=pa.int64())
            return pa.table(cols)

        # fold by the explicit bin column — downstream re-batching does
        # not preserve the per-task num_bins row grouping
        folded = [np.zeros(num_bins, dtype=np.int64) for _ in active]
        for b in ds.map_batches(_hists, batch_format="pyarrow").iter_batches(
            batch_format="pyarrow"
        ):
            if b.num_rows:
                bins = b.column("bin").to_numpy(zero_copy_only=False)
                for k in range(len(active)):
                    np.add.at(folded[k], bins, b.column(f"h{k}").to_numpy(zero_copy_only=False))

        for st, h in zip(active, folded):
            lo, hi = st["lo"], st["hi"]
            if not (hi > lo):  # mass tie: the interval IS one value
                st["value"] = lo
                continue
            cum = np.cumsum(h)
            bin_idx = int(np.searchsorted(cum, st["rank"]))
            edges = np.linspace(lo, hi, num_bins + 1)
            new_lo = float(edges[bin_idx])
            last_bin = bin_idx + 1 >= num_bins
            # np.histogram bins are half-open except the last (inclusive
            # of hi); the descent inherits exactly that boundary rule
            new_hi = hi if last_bin else float(edges[bin_idx + 1])
            new_inc = st["hi_inc"] if last_bin else False
            new_count = int(h[bin_idx])
            new_rank = st["rank"] - int(cum[bin_idx - 1]) if bin_idx else st["rank"]
            if new_count == st["count"] and new_lo == lo and new_hi == hi:
                # no shrink possible (pathological float spacing): fall
                # through to the collect regardless of size
                st["count"] = 0
            else:
                st["lo"], st["hi"], st["hi_inc"] = new_lo, new_hi, new_inc
                st["rank"], st["count"] = new_rank, new_count

    # ---- final: one filtered collect per unresolved quantile ----------
    pending = [st for st in state if st["value"] is None]
    if pending:
        ivals = [(st["lo"], st["hi"], st["hi_inc"]) for st in pending]

        def _collect(batch: pa.Table, _iv=ivals) -> pa.Table:
            v = batch.column(col).to_numpy(zero_copy_only=False).astype(np.float64)
            v = v[~np.isnan(v)]
            ks, vals = [], []
            for k, (lo, hi, hi_inc) in enumerate(_iv):
                sel = v[(v >= lo) & ((v <= hi) if hi_inc else (v < hi))]
                ks.append(np.full(len(sel), k, np.int64))
                vals.append(sel)
            return pa.table(
                {
                    "k": pa.array(np.concatenate(ks) if ks else [], type=pa.int64()),
                    "v": pa.array(np.concatenate(vals) if vals else [], type=pa.float64()),
                }
            )

        by_k: dict[int, list[np.ndarray]] = {k: [] for k in range(len(pending))}
        for b in ds.map_batches(_collect, batch_format="pyarrow").iter_batches(
            batch_format="pyarrow"
        ):
            if b.num_rows:
                kk = b.column("k").to_numpy(zero_copy_only=False)
                vv = b.column("v").to_numpy(zero_copy_only=False)
                for k in range(len(pending)):
                    by_k[k].append(vv[kk == k])
        for k, st in enumerate(pending):
            vals = np.sort(np.concatenate(by_k[k])) if by_k[k] else np.array([])
            st["value"] = float(vals[st["rank"] - 1]) if len(vals) else None

    order = {q: i for i, q in enumerate(qs)}
    state.sort(key=lambda st: order[st["q"]])
    return pa.table(
        {
            "q": pa.array([st["q"] for st in state], type=pa.float64()),
            "value": pa.array([st["value"] for st in state], type=pa.float64()),
        }
    )


def exact_float_quantiles_by_key(
    ds: ray.data.Dataset,
    key: str,
    col: str,
    qs: list[float],
    *,
    num_bins: int = 8192,
    collect_limit: int = 262_144,
    max_passes: int = 8,
    max_keys: int = 4096,
) -> pa.Table:
    """Per-group EXACT float quantiles — the grouped form of
    :func:`exact_float_quantiles`, for BOUNDED key domains (languages,
    priorities, sources: the per-group threshold tables curation
    filters broadcast).  Same histogram-refinement selection, with one
    histogram per ACTIVE (key, quantile) per pass, so a pass's driver
    fold is ``keys × qs`` fixed-size arrays and the data-side cost
    stays a stateless column scan — no keyed exchange at any point.

    Raises if observed ``keys × len(qs)`` exceeds ``max_keys`` — that
    product, not the key count alone, is what each pass's histogram
    state and the final collect scale with (a histogram per (key, q)
    per pass stops being "bounded state" on an unbounded domain — use
    :func:`exact_int_quantiles_by_key`'s value-counts exchange there
    instead).  Matches DuckDB ``quantile_disc(col, q) GROUP BY key``.
    Value nulls/NaNs drop per SQL aggregate semantics; a NULL KEY is
    its own group (SQL GROUP BY semantics — never merged with the
    literal string 'None').

    Output: (key, q, value) rows sorted by (key, q); non-null keys
    stringified, null keys null."""
    import math

    import numpy as np

    _NULL_KEY = "n"  # every non-null key encodes as "v"+str(x), so the
    # bare "n" cannot collide (NB: a NUL sentinel breaks — numpy's U
    # dtype strips trailing NULs, making "\x00" compare as "")

    def _enc_keys(batch: pa.Table) -> "np.ndarray":
        # ONE coercion pass per batch; nulls get a sentinel no string
        # key can collide with (all non-null encodings start with "v")
        return np.asarray(
            [
                _NULL_KEY if x is None else "v" + str(x)
                for x in batch.column(key).to_pylist()
            ],
            dtype=object,
        )

    # ---- pass 0: per-key count + min + max (tiny: one row per key
    # per block) ---------------------------------------------------------
    def _stats(batch: pa.Table) -> pa.Table:
        v = batch.column(col).to_numpy(zero_copy_only=False).astype(np.float64)
        ks = _enc_keys(batch)
        ok = ~np.isnan(v)
        ks, v = ks[ok], v[ok]
        out_k, out_n, out_lo, out_hi = [], [], [], []
        for k in np.unique(ks) if len(ks) else []:
            sel = v[ks == k]
            out_k.append(k)
            out_n.append(len(sel))
            out_lo.append(float(sel.min()))
            out_hi.append(float(sel.max()))
        return pa.table(
            {
                "k": pa.array(out_k, type=pa.string()),
                "n": pa.array(out_n, type=pa.int64()),
                "lo": pa.array(out_lo, type=pa.float64()),
                "hi": pa.array(out_hi, type=pa.float64()),
            }
        )

    agg: dict[str, list] = {}
    for r in ds.map_batches(_stats, batch_format="pyarrow").take_all():
        cur = agg.setdefault(r["k"], [0, np.inf, -np.inf])
        cur[0] += r["n"]
        cur[1] = min(cur[1], r["lo"])
        cur[2] = max(cur[2], r["hi"])
    if len(agg) * max(1, len(qs)) > max_keys:
        raise ValueError(
            f"exact_float_quantiles_by_key: {len(agg)} keys x {len(qs)} qs "
            f"> max_keys={max_keys} (per-pass state scales with the product)"
        )

    state = []
    for k in sorted(agg):
        n, g_lo, g_hi = agg[k]
        for q in qs:
            state.append(
                {
                    "key": k,
                    "q": q,
                    "lo": g_lo,
                    "hi": g_hi,
                    "hi_inc": True,
                    "rank": max(1, math.ceil(q * n)),
                    "count": n,
                    "value": None,
                }
            )

    for _ in range(max_passes):
        active = [st for st in state if st["value"] is None and st["count"] > collect_limit]
        if not active:
            break
        ivals = [(st["key"], st["lo"], st["hi"], st["hi_inc"]) for st in active]

        def _hists(batch: pa.Table, _iv=ivals) -> pa.Table:
            ks = _enc_keys(batch)
            v = batch.column(col).to_numpy(zero_copy_only=False).astype(np.float64)
            ok = ~np.isnan(v)
            ks, v = ks[ok], v[ok]
            cols = {"bin": pa.array(np.arange(num_bins, dtype=np.int64), type=pa.int64())}
            masks: dict[str, "np.ndarray"] = {}  # all qs of a key share it
            for i_q, (k, lo, hi, hi_inc) in enumerate(_iv):
                if k not in masks:
                    masks[k] = ks == k
                sel = v[masks[k] & (v >= lo) & ((v <= hi) if hi_inc else (v < hi))]
                h, _ = np.histogram(sel, bins=num_bins, range=(lo, hi))
                cols[f"h{i_q}"] = pa.array(h.astype(np.int64), type=pa.int64())
            return pa.table(cols)

        folded = [np.zeros(num_bins, dtype=np.int64) for _ in active]
        for b in ds.map_batches(_hists, batch_format="pyarrow").iter_batches(
            batch_format="pyarrow"
        ):
            if b.num_rows:
                bins = b.column("bin").to_numpy(zero_copy_only=False)
                for i_q in range(len(active)):
                    np.add.at(
                        folded[i_q], bins, b.column(f"h{i_q}").to_numpy(zero_copy_only=False)
                    )

        for st, h in zip(active, folded):
            lo, hi = st["lo"], st["hi"]
            if not (hi > lo):
                st["value"] = lo
                continue
            cum = np.cumsum(h)
            bin_idx = int(np.searchsorted(cum, st["rank"]))
            edges = np.linspace(lo, hi, num_bins + 1)
            last_bin = bin_idx + 1 >= num_bins
            new_lo = float(edges[bin_idx])
            new_hi = hi if last_bin else float(edges[bin_idx + 1])
            new_inc = st["hi_inc"] if last_bin else False
            new_count = int(h[bin_idx])
            new_rank = st["rank"] - int(cum[bin_idx - 1]) if bin_idx else st["rank"]
            if new_count == st["count"] and new_lo == lo and new_hi == hi:
                st["count"] = 0
            else:
                st["lo"], st["hi"], st["hi_inc"] = new_lo, new_hi, new_inc
                st["rank"], st["count"] = new_rank, new_count

    pending = [st for st in state if st["value"] is None]
    if pending:
        ivals = [(st["key"], st["lo"], st["hi"], st["hi_inc"]) for st in pending]

        def _collect(batch: pa.Table, _iv=ivals) -> pa.Table:
            ks = _enc_keys(batch)
            v = batch.column(col).to_numpy(zero_copy_only=False).astype(np.float64)
            ok = ~np.isnan(v)
            ks, v = ks[ok], v[ok]
            out_k, out_v = [], []
            masks: dict[str, "np.ndarray"] = {}
            for i_q, (k, lo, hi, hi_inc) in enumerate(_iv):
                if k not in masks:
                    masks[k] = ks == k
                sel = v[masks[k] & (v >= lo) & ((v <= hi) if hi_inc else (v < hi))]
                out_k.append(np.full(len(sel), i_q, np.int64))
                out_v.append(sel)
            return pa.table(
                {
                    "i": pa.array(
                        np.concatenate(out_k) if out_k else [], type=pa.int64()
                    ),
                    "v": pa.array(
                        np.concatenate(out_v) if out_v else [], type=pa.float64()
                    ),
                }
            )

        by_i: dict[int, list] = {i_q: [] for i_q in range(len(pending))}
        for b in ds.map_batches(_collect, batch_format="pyarrow").iter_batches(
            batch_format="pyarrow"
        ):
            if b.num_rows:
                ii = b.column("i").to_numpy(zero_copy_only=False)
                vv = b.column("v").to_numpy(zero_copy_only=False)
                for i_q in range(len(pending)):
                    by_i[i_q].append(vv[ii == i_q])
        for i_q, st in enumerate(pending):
            vals = np.sort(np.concatenate(by_i[i_q])) if by_i[i_q] else np.array([])
            st["value"] = float(vals[st["rank"] - 1]) if len(vals) else None

    state.sort(key=lambda st: (st["key"], st["q"]))
    return pa.table(
        {
            key: pa.array(
                [None if st["key"] == _NULL_KEY else st["key"][1:] for st in state],
                type=pa.string(),
            ),
            "q": pa.array([st["q"] for st in state], type=pa.float64()),
            "value": pa.array([st["value"] for st in state], type=pa.float64()),
        }
    )


def exact_int_quantiles(
    ds: ray.data.Dataset, col: str, qs: list[float]
) -> pa.Table:
    """EXACT discrete quantiles of an integer-valued column without a
    global sort: one keyed count per value → a small (distinct-value,
    count) table → cumulative walk on the driver.  Scales whenever
    distinct values ≪ rows (lengths, counts, scores) — the exchange
    moves one row per distinct value, not per row.  Matches DuckDB's
    ``quantile_disc``: the value at 1-indexed rank ``ceil(q * n)``."""
    from dots_ocr_ray.util import bucket_keyed_fold

    rows = bucket_keyed_fold(ds, col, {"n": ("count", None)}).take_all()
    if rows:
        tbl = pa.Table.from_pylist(rows)
        tbl = tbl.take(pc.sort_indices(tbl, sort_keys=[(col, "ascending")]))
        values = tbl.column(col).to_pylist()
        weights = tbl.column("n").to_pylist()
    else:  # empty input: every quantile is null, not a KeyError
        values, weights = [], []
    n = sum(weights)
    out_q, out_v = [], []
    import math

    for q in qs:
        rank = max(1, math.ceil(q * n))
        cum = 0
        val = values[-1] if values else None
        for v, w in zip(values, weights):
            cum += w
            if cum >= rank:
                val = v
                break
        out_q.append(q)
        out_v.append(val)
    return pa.table(
        {"q": pa.array(out_q, type=pa.float64()), "value": pa.array(out_v, type=pa.int64())}
    )


def top_customers_by_spend(sf_dir: str, k: int = 10) -> pa.Table:
    """Global top-k customers by total order value — a keyed fold then
    a sort of the per-customer totals; no global sort of the fact table."""
    from dots_ocr_ray.util import bucket_keyed_fold

    orders = ray.data.read_parquet(f"{sf_dir}/orders.parquet", columns=["o_custkey", "o_totalprice"])
    agg = bucket_keyed_fold(orders, "o_custkey", {"total_spend": ("sum", "o_totalprice")})
    # per-customer totals are |customers| rows — sort the small side
    # only; o_custkey tiebreak matches the oracle's ORDER BY so a tie
    # at the k boundary stays deterministic
    rows = agg.sort(["total_spend", "o_custkey"], descending=[True, False]).limit(k).take_all()
    if not rows:
        return pa.table(
            {
                "o_custkey": pa.array([], type=pa.int64()),
                "total_spend": pa.array([], type=pa.float64()),
            }
        )
    tbl = pa.Table.from_pylist(rows)
    return tbl.set_column(1, "total_spend", pc.round(tbl.column("total_spend"), 2, round_mode="half_towards_infinity"))


# ---------------------------------------------------------------------------
# equi-join: broadcast or one keyed exchange, by the right side's size


def _join_keys(col):
    """numpy array of a null-free key column that sorts and compares
    like the keys: int64 for any integer type, else numpy's own
    conversion (objects for strings)."""
    import numpy as np

    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    if pa.types.is_integer(col.type):
        return col.to_numpy(zero_copy_only=False).astype(np.int64)
    return col.to_numpy(zero_copy_only=False)


def _broadcast_probe(right, on: str, how: str, suffix: str, right_schema):
    """The broadcast tier of :func:`hash_join`: collect ``right`` once,
    sort it by key and ``ray.put`` it; return the ``map_batches``
    function that joins one left batch against it."""
    import numpy as np

    right = right.materialize()  # to_arrow_refs on a lazy plan runs it twice
    # an empty block keeps the side's columns when it has no rows; a
    # side with no typed block takes its declared schema (or the key alone)
    blocks = [b for b in ray.get(right.to_arrow_refs()) if on in b.column_names]
    if not blocks:
        schema = right_schema if right_schema is not None else right.schema()
        names, types = (schema.names, schema.types) if schema is not None else ([on], [pa.int64()])
        blocks = [pa.schema(list(zip(names, types))).empty_table()]
    side = pa.concat_tables(blocks, promote_options="default")
    side = side.filter(pc.is_valid(side.column(on)))
    keys = _join_keys(side.column(on))
    order = np.argsort(keys, kind="stable")
    payload = side.drop_columns([on]).take(order) if how in ("inner", "left") else None
    ref = ray.put((keys[order], payload))

    def _probe(batch: pa.Table) -> pa.Table:
        keys, payload = util.cached_object(ref)
        col = batch.column(on)
        is_valid = pc.is_valid(col)
        valid = is_valid.to_numpy(zero_copy_only=False)
        probe = _join_keys(col.filter(is_valid))
        lo = np.zeros(batch.num_rows, dtype=np.int64)
        n = np.zeros(batch.num_rows, dtype=np.int64)
        lo[valid] = np.searchsorted(keys, probe, side="left")
        n[valid] = np.searchsorted(keys, probe, side="right") - lo[valid]
        if how in ("semi", "anti"):
            return batch.filter(pa.array(n > 0 if how == "semi" else n == 0))
        # one output row per match; a left join keeps an unmatched row once
        reps = n if how == "inner" else np.maximum(n, 1)
        starts = np.cumsum(reps) - reps
        ri = np.repeat(lo - starts, reps) + np.arange(int(reps.sum()), dtype=np.int64)
        miss = np.repeat(n == 0, reps)
        out = batch.take(pa.array(np.repeat(np.arange(batch.num_rows), reps)))
        gathered = payload.take(pa.array(ri, mask=miss) if miss.any() else pa.array(ri))
        for name, column in zip(gathered.column_names, gathered.columns):
            out = out.append_column(name + suffix if name in batch.column_names else name, column)
        return out

    return util.rows_out(1)(_probe) if how in ("semi", "anti") else _probe


def hash_join(
    left: ray.data.Dataset,
    right: ray.data.Dataset,
    *,
    on: str,
    how: str = "inner",
    num_buckets: int = 64,
    suffix: str = "_r",
    left_schema: pa.Schema | None = None,
    right_schema: pa.Schema | None = None,
) -> ray.data.Dataset:
    """The package's one equi-join: ``left`` ⋈ ``right`` on ``on``,
    in the tier that the right side's size picks.

    * Broadcast tier — the right side fits
      :func:`~dots_ocr_ray.util.broadcast_fits`: it is collected once,
      its null keys dropped, sorted by key and shipped with
      ``ray.put``; every left batch is probed in one ``map_batches``
      (``searchsorted`` for each key's run, Arrow ``take`` to gather),
      with no exchange.
    * Exchange tier — above the cut: both sides tag each row with a
      side marker and meet in ONE keyed exchange
      (:func:`~dots_ocr_ray.util.bucket_exchange`), one vectorized
      pandas merge per bucket, so Python cost is O(num_buckets), not
      O(distinct keys).  A single HOT KEY still lands whole in one
      bucket (:func:`skew_join` splits those off).  Size
      ``num_buckets`` ≥ 2× task slots.

    The side's bytes come from :func:`~dots_ocr_ray.util.row_bound`
    when the lazy plan bounds them; otherwise the side is materialized
    and its ``size_bytes()`` read.  Both tiers give the same rows:
    ``how`` is "inner", "left", "semi" or "anti" (semi/anti return
    LEFT columns only); every match of a repeated right key is
    returned; left joins pad rows without a match with typed nulls;
    overlapping non-key right columns get ``suffix``; int64 values
    stay exact above 2^53.  NULL join keys follow SQL semantics: they
    never match (dropped on inner/semi, null-padded on left, kept on
    anti).  Only row order differs: the broadcast tier keeps the left
    side's order.

    ``left_schema`` / ``right_schema`` spare the exchange tier a
    ``.schema()`` call, which EXECUTES a prefix of a plan with maps in
    it.  (Ray's built-in Dataset.join is avoided: its hash-shuffle
    aggregator actors carry multi-second fixed costs and can deadlock
    against busy actor pools on small CPU counts.)
    """
    if how not in ("inner", "left", "semi", "anti"):
        raise ValueError(f"unsupported how={how!r}")
    bound = util.row_bound(right)
    if bound is None:
        right = right.materialize()
    if util.broadcast_fits(right.size_bytes() if bound is None else bound[1]):
        return left.map_batches(_broadcast_probe(right, on, how, suffix, right_schema), batch_format="pyarrow")

    def _tag(side: int):
        drop_null_keys = side == 1 or how in ("inner", "semi")

        def _fn(batch: pa.Table) -> pa.Table:
            import numpy as np
            import pyarrow.compute as pc

            if drop_null_keys:
                batch = batch.filter(pc.is_valid(batch.column(on)))
            return batch.append_column(
                "__side", pa.array(np.full(batch.num_rows, side, np.int8), type=pa.int8())
            )

        return _fn

    # .schema() on a dataset with map_batches upstream EXECUTES a
    # prefix of the plan (seconds of fixed cost per call) — callers
    # that wrap reads in maps should pass the schemas explicitly
    if left_schema is None:
        left_schema = left.schema()
    if right_schema is None:
        right_schema = right.schema()
    left_cols = list(left_schema.names)
    right_cols = list(right_schema.names)
    types: dict[str, pa.DataType] = {
        n: t for n, t in zip(left_schema.names, left_schema.types)
    }
    for n, t in zip(right_schema.names, right_schema.types):
        types.setdefault(n, t)
    # union requires identical schemas: pad each side with the other's
    # columns as TYPED nulls (dropped again inside the merge)
    import pandas as pd

    def _merge(group: pa.Table) -> pa.Table:
        # Arrow-backed pandas dtypes: an int64 column carrying the
        # other side's null padding stays int64[pyarrow] instead of
        # round-tripping through float64 — full-range 64-bit ids (60-bit
        # md5-prefix doc_ids, blake2 hash keys) would otherwise corrupt
        # above 2^53 and silently MISS a subsequent join on that column
        df = group.to_pandas(types_mapper=pd.ArrowDtype)
        lhs = df[df["__side"] == 0][left_cols]
        rhs = df[df["__side"] == 1][right_cols]
        if how in ("semi", "anti"):
            hit = lhs[on].isin(rhs[on].unique())
            out = lhs[hit if how == "semi" else ~hit]
        else:
            out = lhs.merge(rhs, on=on, how=how, suffixes=("", suffix))
        # drop the pandas-metadata blob so downstream schema hashing /
        # union sees clean identical schemas across buckets
        return pa.Table.from_pandas(out, preserve_index=False).replace_schema_metadata(None)

    def _pad(cols_present: list[str], all_cols: list[str]):
        def _fn(batch: pa.Table) -> pa.Table:
            for c in all_cols:
                if c not in cols_present:
                    batch = batch.append_column(c, pa.nulls(batch.num_rows, type=types[c]))
            return batch.select(all_cols + ["__side"])

        return _fn

    all_cols = left_cols + [c for c in right_cols if c not in left_cols]
    sides = [
        left.map_batches(_tag(0), batch_format="pyarrow").map_batches(
            _pad(left_cols, all_cols), batch_format="pyarrow"
        ),
        right.map_batches(_tag(1), batch_format="pyarrow").map_batches(
            _pad(right_cols, all_cols), batch_format="pyarrow"
        ),
    ]
    return bucket_exchange(sides, on, _merge, num_buckets=num_buckets, rows_per_block=262144)


# ---------------------------------------------------------------------------
# distributed band (interval) join


def range_join(
    left: ray.data.Dataset,
    right: ray.data.Dataset,
    *,
    left_lo: str,
    left_hi: str,
    right_on: str,
    bucket_width: float,
    suffix: str = "_r",
    max_buckets_per_row: int = 64,
    left_schema: pa.Schema | None = None,
    right_schema: pa.Schema | None = None,
) -> ray.data.Dataset:
    """Distributed band join: left rows carry an interval
    ``[left_lo, left_hi]``, right rows a value ``right_on``; emits one
    joined row per (interval ∋ value) match — the non-equi join Ray
    Data's API lacks (``l.val BETWEEN r.lo AND r.hi`` in SQL).

    Partitioning: the numeric domain is cut into ``bucket_width``-wide
    buckets.  Each RIGHT row lands in exactly one bucket
    (``floor(val / width)``); each LEFT row is replicated to every
    bucket its interval overlaps.  A match is discovered only in the
    bucket of the right VALUE, so no dedup pass is needed.  Inside a
    bucket the candidate set is pruned with one vectorized
    ``lo <= val <= hi`` filter over the bucket-local cross product.

    Scale assumptions (documented contract): interval spans must be
    bounded — a row spanning more than ``max_buckets_per_row`` buckets
    raises (replication factor = span / width + 1); pick
    ``bucket_width`` near the TYPICAL span so replication stays O(1)
    per row.  A value hot-spot still lands whole in one bucket —
    salt or pre-aggregate hot value ranges upstream, as with any hash
    join.  One keyed exchange total; per-bucket work is vectorized."""
    import numpy as np
    import pandas as pd

    if left_schema is None:  # see hash_join: schema() can execute a plan prefix
        left_schema = left.schema()
    if right_schema is None:
        right_schema = right.schema()
    left_cols = list(left_schema.names)
    right_cols = list(right_schema.names)
    types: dict[str, pa.DataType] = {n: t for n, t in zip(left_schema.names, left_schema.types)}
    for n, t in zip(right_schema.names, right_schema.types):
        types.setdefault(n, t)
    all_cols = left_cols + [c for c in right_cols if c not in left_cols]
    inv_w = 1.0 / float(bucket_width)

    def _tag_left(batch: pa.Table) -> pa.Table:
        lo = batch.column(left_lo).to_numpy(zero_copy_only=False).astype(np.float64)
        hi = batch.column(left_hi).to_numpy(zero_copy_only=False).astype(np.float64)
        b0 = np.floor(lo * inv_w).astype(np.int64)
        b1 = np.floor(hi * inv_w).astype(np.int64)
        span = b1 - b0 + 1
        if span.size and int(span.max()) > max_buckets_per_row:
            raise ValueError(
                f"interval spans {int(span.max())} buckets > max_buckets_per_row="
                f"{max_buckets_per_row}; raise bucket_width or split wide intervals"
            )
        idx = np.repeat(np.arange(batch.num_rows), span)
        # per-row bucket sequence b0[i] .. b1[i], flattened
        offsets = np.concatenate([[0], np.cumsum(span)])[:-1]
        flat = np.arange(int(span.sum())) - np.repeat(offsets, span) + np.repeat(b0, span)
        out = batch.take(pa.array(idx))
        for c in right_cols:
            if c not in left_cols:
                out = out.append_column(c, pa.nulls(out.num_rows, type=types[c]))
        out = out.select(all_cols)
        out = out.append_column("__bucket", pa.array(flat, type=pa.int64()))
        return out.append_column(
            "__side", pa.array(np.zeros(out.num_rows, np.int8), type=pa.int8())
        )

    def _tag_right(batch: pa.Table) -> pa.Table:
        val = batch.column(right_on).to_numpy(zero_copy_only=False).astype(np.float64)
        b = np.floor(val * inv_w).astype(np.int64)
        out = batch
        for c in left_cols:
            if c not in right_cols:
                out = out.append_column(c, pa.nulls(out.num_rows, type=types[c]))
        out = out.select(all_cols)
        out = out.append_column("__bucket", pa.array(b, type=pa.int64()))
        return out.append_column(
            "__side", pa.array(np.ones(out.num_rows, np.int8), type=pa.int8())
        )

    def _merge(group: pa.Table) -> pa.Table:
        # sorted interval match, NOT a cross product: sort the bucket's
        # right values once, then two vectorized searchsorted calls per
        # bucket find each interval's matching run — work and memory are
        # O(n log n + matches), where the cross-product merge this
        # replaced was O(nl × nr) rows materialized per bucket.
        # Arrow-backed dtypes: int64 passthrough columns carrying the
        # other side's null padding must not round-trip through float64
        # (lossy above 2^53 — the hash_join rule)
        df = group.to_pandas(types_mapper=pd.ArrowDtype)
        lhs = df[df["__side"] == 0][left_cols].reset_index(drop=True)
        rhs = df[df["__side"] == 1][right_cols].reset_index(drop=True)
        val_col = right_on if right_on not in left_cols else right_on + suffix
        order = np.argsort(rhs[right_on].to_numpy(), kind="stable")
        rhs = rhs.iloc[order].reset_index(drop=True)
        v = rhs[right_on].to_numpy(dtype=np.float64)
        lo = lhs[left_lo].to_numpy(dtype=np.float64)
        hi = lhs[left_hi].to_numpy(dtype=np.float64)
        start = np.searchsorted(v, lo, side="left")
        end = np.searchsorted(v, hi, side="right")
        cnt = np.maximum(end - start, 0)
        li = np.repeat(np.arange(len(lhs)), cnt)
        offsets = np.concatenate([[0], np.cumsum(cnt)])[:-1]
        ri = np.arange(int(cnt.sum())) - np.repeat(offsets, cnt) + np.repeat(start, cnt)
        out = pd.concat(
            [
                lhs.iloc[li].reset_index(drop=True),
                rhs.iloc[ri]
                .reset_index(drop=True)
                .rename(columns={c: c + suffix for c in right_cols if c in left_cols}),
            ],
            axis=1,
        )
        # keep every right column under its (possibly suffixed) output
        # name — dropping "not in all_cols" also threw away suffixed
        # right data columns, silently losing the right side's payload
        # whenever a non-key column name overlapped the left
        keep = set(all_cols) | {
            c + suffix if c in left_cols else c for c in right_cols
        }
        out = out.drop(columns=[c for c in out.columns if c not in keep])
        return pa.Table.from_pandas(out, preserve_index=False).replace_schema_metadata(None)

    from dots_ocr_ray.util import bounded_blocks

    tagged = left.map_batches(_tag_left, batch_format="pyarrow").union(
        right.map_batches(_tag_right, batch_format="pyarrow")
    )
    tagged = bounded_blocks(tagged, rows_per_block=262144)
    # not util.bucket_exchange: a band row is replicated into every range
    # bucket it spans and the fold reads the band id, which a key hash cannot tag
    return tagged.groupby("__bucket").map_groups(_merge, batch_format="pyarrow")


def interval_overlap_join(
    left: ray.data.Dataset,
    right: ray.data.Dataset,
    *,
    left_lo: str,
    left_hi: str,
    right_lo: str,
    right_hi: str,
    bucket_width: float,
    suffix: str = "_r",
    max_buckets_per_row: int = 64,
    left_schema: pa.Schema | None = None,
    right_schema: pa.Schema | None = None,
) -> ray.data.Dataset:
    """Distributed interval×interval OVERLAP join: emits one row per
    pair of CLOSED intervals with ``l_lo <= r_hi AND r_lo <= l_hi``
    (SQL's canonical overlap predicate) — the session×incident /
    availability×demand join :func:`range_join` (interval ∋ point)
    cannot express.

    Partitioning: BOTH sides replicate each interval to every
    ``bucket_width``-wide domain bucket it touches, ONE keyed exchange
    co-locates them.  A pair overlapping several shared buckets would
    match in each, so every pair is OWNED by exactly one bucket — the
    one containing the overlap's start ``max(l_lo, r_lo)`` (a point
    both intervals cover, hence both rows are present there):

    * direction A (``r_lo >= l_lo``, owner = bucket of ``r_lo``): with
      the bucket's right rows sorted by ``r_lo``, each left interval's
      matches are the contiguous run ``max(l_lo, bucket_lo) <= r_lo
      <= min(l_hi, bucket_end)`` — two ``searchsorted`` calls;
      ``r_hi >= l_lo`` holds automatically (``r_hi >= r_lo >= l_lo``).
    * direction B (``r_lo < l_lo``, owner = bucket of ``l_lo``): the
      mirrored sweep over left rows sorted by ``l_lo``, with a STRICT
      lower bound so an ``l_lo == r_lo`` pair isn't double-counted.

    Per-bucket work is O(n log n + matches) — no cross product, no
    post-hoc dedup exchange.  Same scale contract as
    :func:`range_join`: spans must fit ``max_buckets_per_row`` (pick
    ``bucket_width`` near the typical span), and an overlap HOT SPOT
    (many intervals stabbing one domain region) lands in one bucket —
    split such regions upstream.  Bounds are compared as float64, so
    integer bounds must fit 2^53 exactly (timestamps in µs do)."""
    import numpy as np
    import pandas as pd

    if left_schema is None:  # see hash_join: schema() can execute a plan prefix
        left_schema = left.schema()
    if right_schema is None:
        right_schema = right.schema()
    left_cols = list(left_schema.names)
    right_cols = list(right_schema.names)
    types: dict[str, pa.DataType] = {n: t for n, t in zip(left_schema.names, left_schema.types)}
    for n, t in zip(right_schema.names, right_schema.types):
        types.setdefault(n, t)
    all_cols = left_cols + [c for c in right_cols if c not in left_cols]
    out_right = {c: (c + suffix if c in left_cols else c) for c in right_cols}
    inv_w = 1.0 / float(bucket_width)
    width = float(bucket_width)

    def _tag(side: int, lo_col: str, hi_col: str, own_cols: list[str]):
        def _fn(batch: pa.Table) -> pa.Table:
            lo = batch.column(lo_col).to_numpy(zero_copy_only=False).astype(np.float64)
            hi = batch.column(hi_col).to_numpy(zero_copy_only=False).astype(np.float64)
            ok = ~(np.isnan(lo) | np.isnan(hi))  # SQL: a NULL bound never matches
            if not ok.all():
                batch = batch.filter(pa.array(ok))
                lo, hi = lo[ok], hi[ok]
            b0 = np.floor(lo * inv_w).astype(np.int64)
            b1 = np.floor(hi * inv_w).astype(np.int64)
            span = b1 - b0 + 1
            if span.size and int(span.max()) > max_buckets_per_row:
                raise ValueError(
                    f"interval spans {int(span.max())} buckets > max_buckets_per_row="
                    f"{max_buckets_per_row}; raise bucket_width or split wide intervals"
                )
            idx = np.repeat(np.arange(batch.num_rows), span)
            offsets = np.concatenate([[0], np.cumsum(span)])[:-1]
            flat = np.arange(int(span.sum())) - np.repeat(offsets, span) + np.repeat(b0, span)
            out = batch.take(pa.array(idx))
            for c in all_cols:
                if c not in own_cols:
                    out = out.append_column(c, pa.nulls(out.num_rows, type=types[c]))
            out = out.select(all_cols)
            out = out.append_column("__bucket", pa.array(flat, type=pa.int64()))
            return out.append_column(
                "__side", pa.array(np.full(out.num_rows, side, np.int8), type=pa.int8())
            )

        return _fn

    def _runs_to_pairs(starts, ends):
        cnt = np.maximum(ends - starts, 0)
        rep = np.repeat(np.arange(len(starts)), cnt)
        offsets = np.concatenate([[0], np.cumsum(cnt)])[:-1]
        pos = np.arange(int(cnt.sum())) - np.repeat(offsets, cnt) + np.repeat(starts, cnt)
        return rep, pos

    def _merge(group: pa.Table) -> pa.Table:
        df = group.to_pandas(types_mapper=pd.ArrowDtype)
        bucket = int(df["__bucket"].iloc[0])
        lhs = df[df["__side"] == 0][left_cols].reset_index(drop=True)
        rhs = df[df["__side"] == 1][right_cols].reset_index(drop=True)
        if not len(lhs) or not len(rhs):
            cols = {c: pa.array([], type=t) for c, t in zip(left_schema.names, left_schema.types)}
            cols.update(
                {
                    out_right[c]: pa.array([], type=t)
                    for c, t in zip(right_schema.names, right_schema.types)
                }
            )
            return pa.table(cols)
        l_order = np.argsort(lhs[left_lo].to_numpy(dtype=np.float64), kind="stable")
        lhs = lhs.iloc[l_order].reset_index(drop=True)
        r_order = np.argsort(rhs[right_lo].to_numpy(dtype=np.float64), kind="stable")
        rhs = rhs.iloc[r_order].reset_index(drop=True)
        llo = lhs[left_lo].to_numpy(dtype=np.float64)
        lhi = lhs[left_hi].to_numpy(dtype=np.float64)
        rlo = rhs[right_lo].to_numpy(dtype=np.float64)
        rhi = rhs[right_hi].to_numpy(dtype=np.float64)
        # ownership membership derives from the SAME floor(x * inv_w)
        # function replication used — float boundary arithmetic
        # (bucket * width vs floor(x / width)) can disagree at the
        # edges and silently drop pairs.  floor(lo) is monotone in the
        # lo-sorted arrays, so the in-bucket index window is two
        # searchsorted calls on the bucket ids.
        fb_r = np.floor(rlo * inv_w).astype(np.int64)
        fb_l = np.floor(llo * inv_w).astype(np.int64)
        r_in0 = int(np.searchsorted(fb_r, bucket, side="left"))
        r_in1 = int(np.searchsorted(fb_r, bucket, side="right"))
        l_in0 = int(np.searchsorted(fb_l, bucket, side="left"))
        l_in1 = int(np.searchsorted(fb_l, bucket, side="right"))

        # direction A: r_lo >= l_lo, r_lo <= l_hi, bucket(r_lo) == this
        a_start = np.maximum(np.searchsorted(rlo, llo, side="left"), r_in0)
        a_end = np.minimum(np.searchsorted(rlo, lhi, side="right"), r_in1)
        li_a, ri_a = _runs_to_pairs(a_start, a_end)
        # direction B: l_lo > r_lo, l_lo <= r_hi, bucket(l_lo) == this
        b_start = np.maximum(np.searchsorted(llo, rlo, side="right"), l_in0)
        b_end_idx = np.minimum(np.searchsorted(llo, rhi, side="right"), l_in1)
        ri_b, li_b = _runs_to_pairs(b_start, b_end_idx)
        li = np.concatenate([li_a, li_b])
        ri = np.concatenate([ri_a, ri_b])
        out = pd.concat(
            [
                lhs.iloc[li].reset_index(drop=True),
                rhs.iloc[ri].reset_index(drop=True).rename(columns=out_right),
            ],
            axis=1,
        )
        return pa.Table.from_pandas(out, preserve_index=False).replace_schema_metadata(None)

    from dots_ocr_ray.util import bounded_blocks

    tagged = left.map_batches(_tag(0, left_lo, left_hi, left_cols), batch_format="pyarrow").union(
        right.map_batches(_tag(1, right_lo, right_hi, right_cols), batch_format="pyarrow")
    )
    tagged = bounded_blocks(tagged, rows_per_block=262144)
    # not util.bucket_exchange: a band row is replicated into every range
    # bucket it spans and the fold reads the band id, which a key hash cannot tag
    return tagged.groupby("__bucket").map_groups(_merge, batch_format="pyarrow")


def exact_int_quantiles_by_key(
    ds: ray.data.Dataset, key: str, col: str, qs: list[float]
) -> pa.Table:
    """Per-group EXACT discrete quantiles — the grouped form of
    :func:`exact_int_quantiles`.  One keyed count per (key, value)
    moves a row per distinct (group, value) — never a row per input
    row — then the cumulative-rank walk runs on the driver over that
    small table.  Matches DuckDB ``quantile_disc`` per group (value at
    1-indexed rank ``ceil(q * n)``)."""
    import math

    import numpy as np

    from dots_ocr_ray.util import bucket_keyed_fold

    rows = bucket_keyed_fold(ds, [key, col], {"n": ("count", None)}).take_all()
    if rows:
        tbl = pa.Table.from_pylist(rows)
        tbl = tbl.take(pc.sort_indices(tbl, sort_keys=[(key, "ascending"), (col, "ascending")]))
        keys = tbl.column(key).to_pylist()
        values = np.asarray(tbl.column(col).to_pylist(), dtype=np.int64)
        weights = np.asarray(tbl.column("n").to_pylist(), dtype=np.int64)
    else:  # empty input: zero output rows, not a KeyError
        keys, values, weights = [], np.zeros(0, np.int64), np.zeros(0, np.int64)
    out_k, out_q, out_v = [], [], []
    i = 0
    while i < len(keys):
        j = i
        while j < len(keys) and keys[j] == keys[i]:
            j += 1
        cum = np.cumsum(weights[i:j])
        n = int(cum[-1])
        for q in qs:
            rank = max(1, math.ceil(q * n))
            out_k.append(keys[i])
            out_q.append(q)
            out_v.append(int(values[i:j][int(np.searchsorted(cum, rank))]))
        i = j
    return pa.table(
        {
            key: pa.array(out_k),
            "q": pa.array(out_q, type=pa.float64()),
            "value": pa.array(out_v, type=pa.int64()),
        }
    )


def rollup_counts(
    ds: ray.data.Dataset, keys: list[str], *, sentinel: str = "*"
) -> pa.Table:
    """GROUP BY ROLLUP(keys...) row counts: one keyed fold at the
    FINEST level, then every coarser level is derived from that
    bounded result on the driver — the rollup hierarchy costs one
    exchange total, not one per level.  Coarsened key columns carry
    ``sentinel`` (callers' key domains must not contain it)."""
    from dots_ocr_ray.util import bucket_keyed_fold

    def _as_strings(batch: pa.Table) -> pa.Table:
        # keys cast to string up front: the coarser levels carry the
        # string sentinel, and concat with a typed (e.g. int64) fine
        # level would otherwise raise ArrowTypeError
        return pa.table({k: batch.column(k).cast(pa.string()) for k in keys})

    fine = bucket_keyed_fold(ds.map_batches(_as_strings, batch_format="pyarrow"), keys, {"n_rows": ("count", None)})
    frows = fine.take_all()  # ≤ product of key cardinalities
    if not frows:
        return pa.table(
            {**{k: pa.array([], type=pa.string()) for k in keys},
             "n_rows": pa.array([], type=pa.int64())}
        )
    # the fold's output is not key-ordered: sort the finest level
    tbl = pa.Table.from_pylist(frows).sort_by([(k, "ascending") for k in keys])
    frames = [tbl]
    import pandas as pd

    df = tbl.to_pandas()
    for level in range(len(keys) - 1, -1, -1):
        kept = keys[:level]
        if kept:
            coarse = df.groupby(kept, as_index=False)["n_rows"].sum()
        else:
            coarse = pd.DataFrame({"n_rows": [df["n_rows"].sum()]})
        for k in keys[level:]:
            coarse[k] = sentinel
        frames.append(pa.Table.from_pandas(coarse[keys + ["n_rows"]], preserve_index=False))
    out = pa.concat_tables(frames, promote_options="default")
    return out.set_column(
        out.column_names.index("n_rows"), "n_rows", out.column("n_rows").cast(pa.int64())
    )


def linreg_by_key(
    ds: ray.data.Dataset, *, key: str, x: str, y: str
) -> pa.Table:
    """Per-group ordinary-least-squares fit y ~ x via MERGEABLE
    sufficient statistics: one keyed fold of (n, Σx, Σy, Σxx, Σyy, Σxy)
    per key, and the slope / intercept / r²
    finalization runs on the bounded per-key result — the same
    partial-then-tiny-reduce shape as every aggregate in this repo
    (nothing row-scaled ever reaches the driver).  Matches SQL
    ``regr_slope / regr_intercept / regr_r2``."""
    import numpy as np

    def _products(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as _pc

        # SQL regr_* skip rows where either coordinate is null — one
        # NaN would otherwise poison every sufficient statistic of its
        # whole key.  Null KEYS are dropped too (fill upstream to keep
        # those rows).
        batch = batch.filter(
            _pc.and_(
                _pc.and_(_pc.is_valid(batch.column(x)), _pc.is_valid(batch.column(y))),
                _pc.is_valid(batch.column(key)),
            )
        )
        xv = batch.column(x).to_numpy(zero_copy_only=False).astype(np.float64)
        yv = batch.column(y).to_numpy(zero_copy_only=False).astype(np.float64)
        return pa.table(
            {key: batch.column(key), "x": xv, "y": yv, "xx": xv * xv, "yy": yv * yv, "xy": xv * yv}
        )

    from dots_ocr_ray.util import bucket_keyed_fold

    summed = bucket_keyed_fold(
        ds.map_batches(_products, batch_format="pyarrow"),
        key,
        {
            "n": ("count", None),
            "sx": ("sum", "x"),
            "sy": ("sum", "y"),
            "sxx": ("sum", "xx"),
            "syy": ("sum", "yy"),
            "sxy": ("sum", "xy"),
        },
    )
    srows = summed.take_all()
    if not srows:  # empty input: typed empty result, not a KeyError
        return pa.table(
            {
                key: pa.array([], type=pa.string()),
                "n": pa.array([], type=pa.int64()),
                "slope": pa.array([], type=pa.float64()),
                "intercept": pa.array([], type=pa.float64()),
                "r2": pa.array([], type=pa.float64()),
            }
        )
    tbl = pa.Table.from_pylist(srows)
    n = np.asarray(tbl.column("n").to_pylist(), dtype=np.float64)
    sx, sy, sxx, syy, sxy = (np.asarray(tbl.column(c).to_pylist()) for c in ("sx", "sy", "sxx", "syy", "sxy"))
    cov = sxy - sx * sy / n
    var_x = sxx - sx * sx / n
    var_y = syy - sy * sy / n
    with np.errstate(divide="ignore", invalid="ignore"):
        slope = cov / var_x
        intercept = sy / n - slope * sx / n
        r2 = np.where(var_y > 0, (cov * cov) / (var_x * var_y), np.nan)
    out = pa.table(
        {
            key: tbl.column(key),
            "n": pa.array(n.astype(np.int64), type=pa.int64()),
            "slope": pa.array(slope, type=pa.float64()),
            "intercept": pa.array(intercept, type=pa.float64()),
            "r2": pa.array(r2, type=pa.float64()),
        }
    )
    return out.take(pc.sort_indices(out, sort_keys=[(key, "ascending")]))


def percent_rank_by_key(
    ds: ray.data.Dataset,
    *,
    key: str,
    col: str,
    out_col: str = "pct_rank",
    cdf_limit: int = 4_000_000,
) -> ray.data.Dataset:
    """Per-row SQL ``percent_rank() OVER (PARTITION BY key ORDER BY
    col)`` WITHOUT a per-key sort: one keyed count per (key, value)
    moves a row per DISTINCT (group, value), the per-key cumulative
    distribution (sorted values + ranks) broadcasts once, and a
    stateless batch map looks each row up via searchsorted — rows
    never reship, no window shuffle.

    The broadcast is O(distinct (key, value) pairs) and guarded by
    ``cdf_limit`` — above it, callers should quantize values first
    (e.g. LogHistogram buckets) or fall back to a per-key sort."""
    import numpy as np

    from dots_ocr_ray.util import bucket_keyed_fold

    rows = bucket_keyed_fold(ds, [key, col], {"n": ("count", None)}).take_all()
    if not rows:
        return ds  # empty input: nothing to rank (no rows to carry out_col)
    tbl = pa.Table.from_pylist(rows)
    if tbl.num_rows > cdf_limit:
        raise ValueError(
            f"distinct ({key},{col}) pairs = {tbl.num_rows} exceed cdf_limit={cdf_limit}; "
            "quantize values first or use a per-key sort"
        )
    tbl = tbl.take(pc.sort_indices(tbl, sort_keys=[(key, "ascending"), (col, "ascending")]))
    keys = tbl.column(key).to_pylist()
    values = np.asarray(tbl.column(col).to_pylist(), dtype=np.int64)
    weights = np.asarray(tbl.column("n").to_pylist(), dtype=np.int64)
    cdf: dict = {}
    i = 0
    while i < len(keys):
        j = i
        while j < len(keys) and keys[j] == keys[i]:
            j += 1
        w = weights[i:j]
        below = np.concatenate([[0], np.cumsum(w)[:-1]])  # rows strictly less
        n = int(w.sum())
        denom = max(n - 1, 1)
        cdf[keys[i]] = (values[i:j], below / denom)
        i = j

    import ray as _ray

    cdf_ref = _ray.put(cdf)
    from dots_ocr_ray.util import cached_object

    def _rank(batch: pa.Table) -> pa.Table:
        lookup = cached_object(cdf_ref)
        ks = batch.column(key).to_pylist()
        vs = batch.column(col).to_numpy(zero_copy_only=False).astype(np.int64)
        out = np.zeros(len(ks))
        # group row indices by key so each key costs ONE searchsorted
        order: dict = {}
        for idx, k in enumerate(ks):
            order.setdefault(k, []).append(idx)
        for k, idxs in order.items():
            vals, ranks = lookup[k]
            out[np.asarray(idxs)] = ranks[np.searchsorted(vals, vs[np.asarray(idxs)])]
        return batch.append_column(out_col, pa.array(out, type=pa.float64()))

    return ds.map_batches(_rank, batch_format="pyarrow")


def interval_agg_join(
    left: ray.data.Dataset,
    right: ray.data.Dataset,
    *,
    key: str,
    left_lo: str,
    left_hi: str,
    right_on: str,
    bucket_width: float,
    max_buckets_per_row: int = 64,
) -> ray.data.Dataset:
    """Aggregating band join: for each left interval ``[lo, hi]``
    (identified by ``key``, which must be unique per left row AND an
    integer column — enforced, because the partials carry it as int64
    and a silent float→int truncation would merge distinct keys'
    aggregates), the SUM and COUNT of right ``right_on`` values inside
    it → ``(key, agg_sum, agg_count)``, inner semantics (zero-match
    keys absent).

    Same domain-bucket exchange as :func:`range_join`, but the
    per-bucket reduce never materializes matches: right values sort
    once per bucket, a prefix-sum array turns every interval into TWO
    searchsorted lookups (count = end-start, sum = pref[end]-pref[start]),
    and only per-(key, bucket) partial rows move into a final tiny
    keyed sum.  Use this instead of ``range_join`` whenever the
    downstream is an aggregate — the match set can be quadratically
    larger than either input (wide intervals × dense values) and never
    needs to exist."""
    import numpy as np

    inv_w = 1.0 / float(bucket_width)

    def _tag_left(batch: pa.Table) -> pa.Table:
        if not pa.types.is_integer(batch.schema.field(key).type):
            raise TypeError(
                f"interval_agg_join key column {key!r} must be integer "
                f"(got {batch.schema.field(key).type}); a float/string key "
                "would silently truncate and merge distinct keys"
            )
        lo = batch.column(left_lo).to_numpy(zero_copy_only=False).astype(np.float64)
        hi = batch.column(left_hi).to_numpy(zero_copy_only=False).astype(np.float64)
        keys = batch.column(key).to_numpy(zero_copy_only=False).astype(np.int64)
        b0 = np.floor(lo * inv_w).astype(np.int64)
        b1 = np.floor(hi * inv_w).astype(np.int64)
        span = b1 - b0 + 1
        if span.size and int(span.max()) > max_buckets_per_row:
            raise ValueError(
                f"interval spans {int(span.max())} buckets > max_buckets_per_row="
                f"{max_buckets_per_row}; raise bucket_width or split wide intervals"
            )
        idx = np.repeat(np.arange(batch.num_rows), span)
        offsets = np.concatenate([[0], np.cumsum(span)])[:-1]
        flat = np.arange(int(span.sum())) - np.repeat(offsets, span) + np.repeat(b0, span)
        return pa.table(
            {
                "__bucket": pa.array(flat, type=pa.int64()),
                "__side": pa.array(np.zeros(len(idx), np.int8), type=pa.int8()),
                key: pa.array(keys[idx], type=pa.int64()),
                "lo": pa.array(lo[idx], type=pa.float64()),
                "hi": pa.array(hi[idx], type=pa.float64()),
                "val": pa.array(np.zeros(len(idx)), type=pa.float64()),
            }
        )

    def _tag_right(batch: pa.Table) -> pa.Table:
        val = batch.column(right_on).to_numpy(zero_copy_only=False).astype(np.float64)
        b = np.floor(val * inv_w).astype(np.int64)
        n = len(val)
        return pa.table(
            {
                "__bucket": pa.array(b, type=pa.int64()),
                "__side": pa.array(np.ones(n, np.int8), type=pa.int8()),
                key: pa.array(np.zeros(n, np.int64), type=pa.int64()),
                "lo": pa.array(np.zeros(n), type=pa.float64()),
                "hi": pa.array(np.zeros(n), type=pa.float64()),
                "val": pa.array(val, type=pa.float64()),
            }
        )

    def _partials(group: pa.Table) -> pa.Table:
        side = group.column("__side").to_numpy(zero_copy_only=False)
        keys = group.column(key).to_numpy(zero_copy_only=False)[side == 0]
        lo = group.column("lo").to_numpy(zero_copy_only=False)[side == 0]
        hi = group.column("hi").to_numpy(zero_copy_only=False)[side == 0]
        v = np.sort(group.column("val").to_numpy(zero_copy_only=False)[side == 1])
        empty = pa.table(
            {
                key: pa.array([], type=pa.int64()),
                "s": pa.array([], type=pa.float64()),
                "n": pa.array([], type=pa.int64()),
            }
        )
        if not len(v) or not len(keys):
            return empty
        pref = np.concatenate([[0.0], np.cumsum(v)])
        start = np.searchsorted(v, lo, side="left")
        end = np.searchsorted(v, hi, side="right")
        cnt = (end - start).astype(np.int64)
        hit = cnt > 0
        if not hit.any():
            return empty
        return pa.table(
            {
                key: pa.array(keys[hit].astype(np.int64), type=pa.int64()),
                "s": pa.array(pref[end[hit]] - pref[start[hit]], type=pa.float64()),
                "n": pa.array(cnt[hit], type=pa.int64()),
            }
        )

    from dots_ocr_ray.util import bounded_blocks, bucket_keyed_fold

    tagged = left.map_batches(_tag_left, batch_format="pyarrow").union(
        right.map_batches(_tag_right, batch_format="pyarrow")
    )
    tagged = bounded_blocks(tagged, rows_per_block=262144)
    # not util.bucket_exchange: a band row is replicated into every range
    # bucket it spans, which a key hash cannot tag
    partials = tagged.groupby("__bucket").map_groups(_partials, batch_format="pyarrow")
    return bucket_keyed_fold(partials, key, {"agg_sum": ("sum", "s"), "agg_count": ("sum", "n")})


# keys the hot-key sketch of :func:`skew_join` keeps per batch
_SKETCH_CAPACITY = 256


def skew_join(
    left: ray.data.Dataset,
    right: ray.data.Dataset,
    *,
    on: str,
    how: str = "inner",
    suffix: str = "_r",
    hot_threshold: int = 1_000_000,
    left_schema: pa.Schema | None = None,
    right_schema: pa.Schema | None = None,
) -> ray.data.Dataset:
    """Skew-aware large × large equi-join: HOT keys (a per-batch top-M
    sketch estimates per-key frequency without a groupby) join apart
    from the cold remainder, each half through :func:`hash_join`.  The
    hot half's right rows are few, so they take the broadcast tier and
    join batch-locally with zero exchange; a single mega-key no longer
    lands whole in one bucket of the cold exchange and holds the join
    wave hostage.

    Correctness never depends on the sketch: ANY hot-key set yields
    the same exact join output (both halves are exact joins over a
    disjoint split of the keys), so the approximate detection affects
    only performance.

    ``left`` is consumed three times (frequency scan + hot pass + cold
    pass), so it is materialized here if it isn't already — an
    expensive un-materialized upstream would otherwise re-execute in
    full per pass.  ``how`` is "inner" or "left"."""
    import numpy as np

    if how not in ("inner", "left"):
        raise ValueError(f"unsupported how={how!r}")
    from ray.data.dataset import MaterializedDataset

    if not isinstance(left, MaterializedDataset):
        left = left.materialize()
    if left_schema is None:
        left_schema = left.schema()
    # .names/.types work on both pa.Schema and Ray's Schema wrapper
    key_type = dict(zip(left_schema.names, left_schema.types))[on]

    # hot-key detection: vectorized per-batch top-M value counts
    # (Arrow C++ value_counts, no per-row Python) merged on the driver
    # — ≤ M rows per batch move.  A key can evade detection by
    # spreading thin across batches, but hot keys concentrate by
    # definition, and correctness never depends on the hot set.
    def _vc_partial(batch: pa.Table) -> pa.Table:
        vc = pc.value_counts(batch.column(on))
        keys, counts = vc.field("values"), vc.field("counts")
        if len(vc) > _SKETCH_CAPACITY:
            cn = counts.to_numpy(zero_copy_only=False)
            idx = np.argpartition(cn, len(cn) - _SKETCH_CAPACITY)[-_SKETCH_CAPACITY:]
            take = pa.array(np.sort(idx))
            keys, counts = keys.take(take), counts.take(take)
        return pa.table({"k": keys, "c": counts.cast(pa.int64())})

    vc_parts = util.collect_arrow_blocks(
        left.select_columns([on]).map_batches(_vc_partial, batch_format="pyarrow", batch_size=65536)
    )
    join = dict(on=on, how=how, suffix=suffix, left_schema=left_schema, right_schema=right_schema)
    if not vc_parts:
        return hash_join(left, right, **join)
    merged = pa.concat_tables(vc_parts).group_by("k").aggregate([("c", "sum")])
    hot_keys = merged.filter(pc.greater_equal(merged.column("c_sum"), hot_threshold)).column("k")
    if not len(hot_keys):
        return hash_join(left, right, **join)
    hot_keys = hot_keys.combine_chunks().cast(key_type)

    def _filter_keys(invert: bool):
        def _fn(batch: pa.Table) -> pa.Table:
            mask = pc.is_in(batch.column(on), value_set=hot_keys)
            return batch.filter(pc.invert(mask) if invert else mask)

        return _fn

    def _half(invert: bool) -> ray.data.Dataset:
        return hash_join(
            left.map_batches(_filter_keys(invert), batch_format="pyarrow"),
            right.map_batches(_filter_keys(invert), batch_format="pyarrow"),
            **join,
        )

    return _half(False).union(_half(True))


def pivot_agg(
    ds: ray.data.Dataset,
    *,
    key_col: str,
    pivot_col: str,
    categories: list[str],
    value_col: str | None = None,
) -> ray.data.Dataset:
    """PIVOT: one output column pair per category of ``pivot_col``
    (``{cat}_n`` row count, plus ``{cat}_sum`` of ``value_col`` when
    given), one row per ``key_col`` — the
    ``count(*) FILTER (WHERE pivot = cat)`` surface.

    ``categories`` is explicit (schema fixed up front, rows of other
    categories are dropped): each row is pivoted to its category's
    columns (0 elsewhere) inside its batch, then one keyed fold sums
    the columns per key.
    """
    import numpy as np
    import pyarrow.compute as pc

    from dots_ocr_ray.util import bucket_keyed_fold

    def _pivot(batch: pa.Table) -> pa.Table:
        batch = batch.filter(pc.is_in(batch.column(pivot_col), pa.array(categories)))
        # null keys are DROPPED (documented): fill upstream to keep them
        batch = batch.filter(pc.is_valid(batch.column(key_col)))
        piv = batch.column(pivot_col)
        hits = [pc.equal(piv, c) for c in categories]
        cols = {key_col: batch.column(key_col)}
        for c, hit in zip(categories, hits):
            cols[f"{c}_n"] = hit.cast(pa.int64())
        if value_col is not None:
            # null values contribute 0 to the sum (SQL FILTER-sum skips
            # them); without the mask one NaN poisons the whole cell
            vals = np.nan_to_num(
                batch.column(value_col).to_numpy(zero_copy_only=False).astype(np.float64),
                nan=0.0,
            )
            for c, hit in zip(categories, hits):
                cols[f"{c}_sum"] = pc.if_else(hit, pa.array(vals), 0.0)
        return pa.table(cols)

    aggs = {f"{c}_n": ("sum", f"{c}_n") for c in categories}
    if value_col is not None:
        aggs.update({f"{c}_sum": ("sum", f"{c}_sum") for c in categories})
    return bucket_keyed_fold(ds.map_batches(_pivot, batch_format="pyarrow"), key_col, aggs)


def cube_counts(
    ds: ray.data.Dataset, keys: list[str], *, sentinel: str = "*"
) -> pa.Table:
    """GROUP BY CUBE(keys...) row counts — :func:`rollup_counts`'
    all-subsets sibling.  Same cost model: ONE distributed exchange at
    the finest grouping level, every one of the 2^len(keys) coarser
    levels derived from that bounded result on the driver."""
    import itertools

    import pandas as pd

    from dots_ocr_ray.util import bucket_keyed_fold

    def _as_strings(batch: pa.Table) -> pa.Table:
        # string keys: see rollup_counts
        return pa.table({k: batch.column(k).cast(pa.string()) for k in keys})

    fine = bucket_keyed_fold(ds.map_batches(_as_strings, batch_format="pyarrow"), keys, {"n_rows": ("count", None)})
    frows = fine.take_all()  # ≤ product of key cardinalities
    if not frows:
        return pa.table(
            {**{k: pa.array([], type=pa.string()) for k in keys},
             "n_rows": pa.array([], type=pa.int64())}
        )
    # the fold's output is not key-ordered: sort the finest level
    tbl = pa.Table.from_pylist(frows).sort_by([(k, "ascending") for k in keys])
    df = tbl.to_pandas()
    frames = [tbl]
    for r in range(len(keys) - 1, -1, -1):
        for kept in itertools.combinations(keys, r):
            kept = list(kept)
            if kept:
                coarse = df.groupby(kept, as_index=False)["n_rows"].sum()
            else:
                coarse = pd.DataFrame({"n_rows": [df["n_rows"].sum()]})
            for k in keys:
                if k not in kept:
                    coarse[k] = sentinel
            frames.append(
                pa.Table.from_pandas(coarse[keys + ["n_rows"]], preserve_index=False)
            )
    out = pa.concat_tables(frames, promote_options="default")
    return out.set_column(
        out.column_names.index("n_rows"), "n_rows", out.column("n_rows").cast(pa.int64())
    )


def weighted_sample(
    ds: ray.data.Dataset,
    *,
    id_col: str,
    weight_col: str,
    k: int,
) -> pa.Table:
    """Deterministic weight-proportional sample WITHOUT replacement
    (Efraimidis–Spirakis A-ES): each row draws u from the Knuth
    multiplicative hash of its id (reproducible across runs/engines,
    the sample_10pct convention) and ranks by u^(1/weight); the global
    top-k by that key is a weighted sample.  One streaming pass with
    per-block local top-k partials — the driver merges k rows per
    block."""
    import numpy as np
    import pyarrow.compute as pc

    def _local_top(batch: pa.Table) -> pa.Table:
        ids = batch.column(id_col).to_numpy(zero_copy_only=False).astype(np.int64)
        w = batch.column(weight_col).to_numpy(zero_copy_only=False).astype(np.float64)
        # (h + 0.5) / 2^32 keeps u strictly inside (0, 1): A-ES breaks
        # at u == 0 (key 0 regardless of weight — id 0 would never be
        # sampled); same endpoint convention as curation.gumbel_keys,
        # mirrored in the SQL oracle
        u = (((ids * 2654435761) & 0xFFFFFFFF) + 0.5) / 4294967296.0
        with np.errstate(divide="ignore"):
            key = np.where(w > 0, u ** (1.0 / np.maximum(w, 1e-300)), -1.0)
        batch = batch.append_column("sample_key", pa.array(key, type=pa.float64()))
        order = pc.sort_indices(
            batch, sort_keys=[("sample_key", "descending"), (id_col, "ascending")]
        )
        return batch.take(order[:k])

    parts = list(
        ds.map_batches(_local_top, batch_format="pyarrow").iter_batches(
            batch_format="pyarrow"
        )
    )
    if not parts:  # empty input: concat_tables([]) would raise
        return pa.table({})
    merged = pa.concat_tables(parts)
    import pyarrow.compute as pc2

    order = pc2.sort_indices(
        merged, sort_keys=[("sample_key", "descending"), (id_col, "ascending")]
    )
    return merged.take(order[:k]).drop_columns(["sample_key"])


def zscore_outliers(
    ds: ray.data.Dataset,
    *,
    key_col: str,
    value_col: str,
    z_thresh: float = 2.0,
) -> ray.data.Dataset:
    """Per-key z-score outlier flagging: rows whose ``value_col``
    deviates from the KEY's mean by more than ``z_thresh`` population
    standard deviations — the distribution-aware data-cleaning filter.

    Mergeable sufficient statistics (count, sum, sum-of-squares) reduce
    through one tiny keyed exchange; the per-key (mean, std) table
    broadcasts once and the flagging pass is batch-local vectorized —
    the value column never reshuffles."""
    import numpy as np
    import pyarrow.compute as pc

    import ray as _ray

    from dots_ocr_ray.util import bucket_keyed_fold, cached_object

    def _squares(batch: pa.Table) -> pa.Table:
        batch = batch.filter(
            pc.and_(
                pc.is_valid(batch.column(value_col)),
                pc.is_valid(batch.column(key_col)),  # null keys are not flagged
            )
        )
        v = batch.column(value_col).to_numpy(zero_copy_only=False).astype(np.float64)
        return pa.table({key_col: batch.column(key_col), "v": v, "v2": v * v})

    stats = bucket_keyed_fold(
        ds.map_batches(_squares, batch_format="pyarrow"),
        key_col,
        {"n": ("count", None), "s": ("sum", "v"), "s2": ("sum", "v2")},
    )
    mean_std: dict = {}
    for r in stats.take_all():  # bounded: one row per key
        n, s, s2 = r["n"], r["s"], r["s2"]
        mean = s / n
        var = max(s2 / n - mean * mean, 0.0)
        mean_std[r[key_col]] = (mean, var**0.5)
    ref = _ray.put(mean_std)

    def _flag(batch: pa.Table) -> pa.Table:
        import pandas as pd

        ms = cached_object(ref)
        # O(distinct-keys-in-batch) Python, not O(rows); factorize
        # handles null keys (np.unique raises on None in objects)
        inv, uk = pd.factorize(batch.column(key_col).to_pandas(), use_na_sentinel=False)
        v = batch.column(value_col).to_numpy(zero_copy_only=False).astype(np.float64)
        mean = np.array([ms.get(k, (np.nan, 0.0))[0] for k in uk])[inv] if len(uk) else np.zeros(0)
        std = np.array([ms.get(k, (np.nan, 0.0))[1] for k in uk])[inv] if len(uk) else np.zeros(0)
        with np.errstate(divide="ignore", invalid="ignore"):
            z = np.where(std > 0, (v - mean) / std, 0.0)
        batch = batch.append_column("z", pa.array(np.round(z, 4), type=pa.float64()))
        return batch.filter(pa.array(np.abs(z) > z_thresh))

    return ds.map_batches(_flag, batch_format="pyarrow")


def mad_robust_scores(
    ds: ray.data.Dataset,
    *,
    value_col: str,
    scale_num: int = 6745,
    z_micro_thresh: int = 3_500_000,
) -> ray.data.Dataset:
    """Global robust outlier scoring of an integer column via
    median/MAD — the modified z-score 0.6745·|x − median| / MAD
    (Iglewicz & Hoaglin), kept in EXACT integer micro-units
    ``(6745 · dev · 100) // MAD`` so every engine computes
    bit-identical scores (no float division anywhere).

    Unlike :func:`zscore_outliers` (mean/std, key-partitioned), this is
    the GLOBAL heavy-tail-safe variant a length/score cleaning gate
    wants: median and MAD are immune to the very outliers being
    hunted.  Two bounded (distinct-value)-level exchanges compute the
    exact median then the exact MAD through
    :func:`exact_int_quantiles` — the exchange moves one row per
    DISTINCT value, never per row — and the scoring pass is
    zero-exchange batch-local arithmetic with the two scalars riding
    the task closure.  ``ds`` is consumed twice (median pass + dev
    pass); pass a re-readable source or materialize upstream.

    MAD == 0 (over half the values equal the median) degenerates by
    convention: score 0 at the median, flagged elsewhere."""
    import numpy as np

    med_tbl = exact_int_quantiles(ds, value_col, [0.5])
    med = med_tbl.column("value")[0].as_py()
    if med is None:  # empty input
        med = 0

    def _dev(batch: pa.Table) -> pa.Table:
        v = batch.column(value_col).to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table({"dev": pa.array(np.abs(v - med), type=pa.int64())})

    mad_tbl = exact_int_quantiles(
        ds.map_batches(_dev, batch_format="pyarrow"), "dev", [0.5]
    )
    mad = mad_tbl.column("value")[0].as_py() or 0

    def _score(batch: pa.Table) -> pa.Table:
        v = batch.column(value_col).to_numpy(zero_copy_only=False).astype(np.int64)
        dev = np.abs(v - med)
        if mad > 0:
            score = (scale_num * dev * 100) // mad
        else:
            score = np.where(dev == 0, 0, z_micro_thresh + 1).astype(np.int64)
        batch = batch.append_column("dev", pa.array(dev, type=pa.int64()))
        batch = batch.append_column("score_micro", pa.array(score, type=pa.int64()))
        return batch.append_column(
            "is_outlier",
            pa.array((score > z_micro_thresh).astype(np.int64), type=pa.int64()),
        )

    return ds.map_batches(_score, batch_format="pyarrow")


def regional_supplier_volume(
    sf_dir: str,
    *,
    region: str = "ASIA",
    date_lo: str = "1996-01-01",
    date_hi: str = "1997-01-01",
) -> ray.data.Dataset:
    """TPC-H Q5 shape: per-nation revenue within one region for order
    lines whose SUPPLIER and ordering CUSTOMER share the nation — the
    canonical multi-way star join.

    Join strategy by side size (the 100-TB plan):
    * region/nation — driver-read dimension rows (KBs), closed into an
      in-region nationkey set that rides the task closures;
    * supplier — suppkey→nationkey map broadcast ONCE via ``ray.put``
      (10^7 suppliers ≈ 160 MB, inside the broadcast budget); lineitem
      tags its supplier nation batch-locally and pre-aggregates per
      (orderkey, nation) — the combiner that keeps the join input at
      order-line-group, not line, granularity;
    * orders ⋈ customer and lineitem ⋈ orders — :func:`hash_join`
      (both sides fact-sized; one keyed exchange each).

    The final per-nation aggregate is one keyed fold.  Output: (n_name, revenue) — revenue =
    sum(l_extendedprice·(1−l_discount)), matching the SQL oracle."""
    import numpy as np
    import pyarrow.parquet as _pq

    from dots_ocr_ray.util import bucket_keyed_fold, cached_object

    nation = _pq.read_table(
        f"{sf_dir}/nation.parquet", columns=["n_nationkey", "n_name", "n_regionkey"]
    )
    region_tbl = _pq.read_table(f"{sf_dir}/region.parquet")
    region_keys = {
        r["r_regionkey"] for r in region_tbl.to_pylist() if r["r_name"] == region
    }
    nat_names = {
        r["n_nationkey"]: r["n_name"]
        for r in nation.to_pylist()
        if r["n_regionkey"] in region_keys
    }
    in_region = np.array(sorted(nat_names), dtype=np.int64)

    sup = _pq.read_table(f"{sf_dir}/supplier.parquet", columns=["s_suppkey", "s_nationkey"])
    sup_keys = sup.column("s_suppkey").to_numpy().astype(np.int64)
    sup_nats = sup.column("s_nationkey").to_numpy().astype(np.int64)
    sup_order = np.argsort(sup_keys, kind="stable")  # searchsorted needs ascending keys
    sup_ref = ray.put((sup_keys[sup_order], sup_nats[sup_order]))

    lo = np.datetime64(date_lo, "us")
    hi = np.datetime64(date_hi, "us")

    def _orders(batch: pa.Table) -> pa.Table:
        ts = batch.column("o_orderdate").to_numpy(zero_copy_only=False)
        keep = (ts >= lo) & (ts < hi)
        batch = batch.filter(pa.array(keep))
        return pa.table(
            {
                "o_orderkey": batch.column("o_orderkey"),
                "custkey": batch.column("o_custkey"),
            }
        )

    orders = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet", columns=["o_orderkey", "o_custkey", "o_orderdate"]
    ).map_batches(_orders, batch_format="pyarrow")

    def _cust(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "custkey": batch.column("c_custkey").cast(pa.int64()),
                "c_nation": batch.column("c_nationkey").cast(pa.int64()),
            }
        )

    customer = ray.data.read_parquet(
        f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_nationkey"]
    ).map_batches(_cust, batch_format="pyarrow")

    orders_cust = hash_join(
        orders,
        customer,
        on="custkey",
        left_schema=pa.schema([("o_orderkey", pa.int64()), ("custkey", pa.int64())]),
        right_schema=pa.schema([("custkey", pa.int64()), ("c_nation", pa.int64())]),
    ).select_columns(["o_orderkey", "c_nation"])

    def _lines(batch: pa.Table) -> pa.Table:
        keys, nats = cached_object(sup_ref)
        supp = batch.column("l_suppkey").to_numpy(zero_copy_only=False).astype(np.int64)
        pos = np.searchsorted(keys, supp)
        pos = np.clip(pos, 0, len(keys) - 1)
        s_nation = np.where(keys[pos] == supp, nats[pos], -1)
        keep = np.isin(s_nation, in_region)
        rev = (
            batch.column("l_extendedprice").to_numpy(zero_copy_only=False)
            * (1.0 - batch.column("l_discount").to_numpy(zero_copy_only=False))
        )[keep]
        t = pa.table(
            {
                "o_orderkey": batch.column("l_orderkey").filter(pa.array(keep)),
                "s_nation": pa.array(s_nation[keep], type=pa.int64()),
                "rev": pa.array(rev, type=pa.float64()),
            }
        )
        # combiner: order-line-group granularity into the join exchange
        return t.group_by(["o_orderkey", "s_nation"]).aggregate([("rev", "sum")])

    lines = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_orderkey", "l_suppkey", "l_extendedprice", "l_discount"],
    ).map_batches(_lines, batch_format="pyarrow")

    joined = hash_join(
        lines,
        orders_cust,
        on="o_orderkey",
        left_schema=pa.schema(
            [("o_orderkey", pa.int64()), ("s_nation", pa.int64()), ("rev_sum", pa.float64())]
        ),
        right_schema=pa.schema([("o_orderkey", pa.int64()), ("c_nation", pa.int64())]),
    )

    def _same_nation(batch: pa.Table) -> pa.Table:
        m = pc.equal(batch.column("s_nation"), batch.column("c_nation"))
        return batch.filter(m)

    agg = bucket_keyed_fold(
        joined.map_batches(_same_nation, batch_format="pyarrow"), "s_nation", {"revenue": ("sum", "rev_sum")}
    )

    def _finish(batch: pa.Table) -> pa.Table:
        nats = batch.column("s_nation").to_pylist()
        return pa.table(
            {
                "n_name": pa.array([nat_names[n] for n in nats], type=pa.string()),
                "revenue": batch.column("revenue"),
            }
        )

    return agg.map_batches(_finish, batch_format="pyarrow")


def grouped_count_histogram(
    ds: ray.data.Dataset,
    *,
    key_col: str,
    out_key: str = "bucket",
    out_count: str = "n_keys",
) -> ray.data.Dataset:
    """Power-of-two histogram of per-key row counts (events-per-user /
    docs-per-host frequency-of-frequencies): bucket = floor(log2(n)).

    Two keyed folds: a count per key (the unavoidable co-location of a
    key's count), then a count per bucket (≤ 64 rows).  Bucket
    ids come from the float64 log2, which is exact at every power-of-2
    boundary — bit-equal to SQL ``floor(log2(n))``."""
    import numpy as np

    from dots_ocr_ray.util import bucket_keyed_fold

    counts = bucket_keyed_fold(ds, key_col, {"n": ("count", None)})

    def _bucket(batch: pa.Table) -> pa.Table:
        n = batch.column("n").to_numpy(zero_copy_only=False).astype(np.float64)
        bucket = np.floor(np.log2(np.maximum(n, 1.0))).astype(np.int64)
        return pa.table({out_key: pa.array(bucket, type=pa.int64())})

    return bucket_keyed_fold(counts.map_batches(_bucket, batch_format="pyarrow"), out_key, {out_count: ("count", None)})


def _first_k_per_run(sorted_keys, k: int):
    """(keep_mask, pos) over an array sorted so equal keys are
    adjacent: ``pos`` is the 0-based position inside each key run,
    ``keep`` is ``pos < k`` — the shared gaps-and-islands slice behind
    the k-per-key operators (:func:`sample_per_key`,
    :func:`top_per_key`)."""
    import numpy as np

    n = len(sorted_keys)
    if n == 0:
        return np.zeros(0, dtype=bool), np.zeros(0, dtype=np.int64)
    change = np.concatenate([[True], sorted_keys[1:] != sorted_keys[:-1]])
    starts = np.flatnonzero(change)
    run_start = np.repeat(starts, np.diff(np.append(starts, n)))
    pos = np.arange(n) - run_start
    return pos < k, pos


def sample_per_key(
    ds: ray.data.Dataset,
    *,
    key_col: str,
    id_col: str,
    k: int,
    seed: int = 0,
    num_buckets: int = 64,
) -> ray.data.Dataset:
    """Deterministic stratified sample: the ``k`` rows per key with the
    smallest ``md5(id || ':' || seed)`` rank — the exact-k-per-stratum
    eval-set / debugging draw (every engine and every rerun picks the
    SAME rows, the md5-order rule temperature_mixture already uses).

    ONE bucket-keyed exchange on hash(key); the per-bucket fold sorts
    its rows by (key, rank) and slices the first k of each key run
    vectorized — Python cost O(num_buckets), driver holds nothing."""
    import hashlib

    import numpy as np

    def _tag(batch: pa.Table) -> pa.Table:
        ids = batch.column(id_col).to_numpy(zero_copy_only=False)
        ranks = [
            hashlib.md5(f"{i}:{seed}".encode()).hexdigest() for i in ids
        ]
        return batch.append_column("__rank", pa.array(ranks, type=pa.string()))

    def _fold(group: pa.Table) -> pa.Table:
        keys = group.column(key_col).to_numpy(zero_copy_only=False)
        ranks = group.column("__rank").to_numpy(zero_copy_only=False)
        order = np.lexsort((ranks, keys))
        keep, _ = _first_k_per_run(keys[order], k)
        return group.take(order[keep]).drop_columns(["__rank", "__bucket"])

    return bucket_exchange(
        ds.map_batches(_tag, batch_format="pyarrow"), key_col, _fold, num_buckets=num_buckets
    )


def key_count_gini(
    ds: ray.data.Dataset,
    *,
    key_col: str,
    num_buckets: int = 64,
) -> pa.Table:
    """Skew diagnostic: the Gini coefficient of per-key row counts →
    one row ``(n_keys, n_rows, gini)`` — the number a 100-TB pipeline
    checks BEFORE choosing its partitioning key (G≈0 balanced keys,
    G→1 one hot key owns the table; the 'should I salt this groupby'
    signal).

    Exactness: with counts sorted ascending, G = (2·Σ i·c_i) /
    (n·Σc) − (n+1)/n — both terms integer until ONE final division
    (rounded 9 dp), so the value is bit-identical to the SQL window
    mirror.  One bucket-keyed count exchange (per-key partial counts
    fold per bucket); the driver sees one (key, count) pair per key —
    the diagnostic's own output size."""
    import numpy as np

    from dots_ocr_ray.util import bucket_keyed_fold

    counts_chunks = []
    for b in bucket_keyed_fold(
        ds, key_col, {"c": ("count", None)}, num_buckets=num_buckets
    ).iter_batches(batch_format="pyarrow"):
        if b.num_rows:
            counts_chunks.append(b.column("c").to_numpy(zero_copy_only=False))
    if not counts_chunks:
        return pa.table(
            {
                "n_keys": pa.array([0], pa.int64()),
                "n_rows": pa.array([0], pa.int64()),
                "gini": pa.array([0.0], pa.float64()),
            }
        )
    c = np.sort(np.concatenate(counts_chunks).astype(np.int64))
    n = len(c)
    total = int(c.sum())
    weighted = int((np.arange(1, n + 1, dtype=np.int64) * c).sum())
    gini = round((2.0 * weighted) / (n * total) - (n + 1.0) / n, 9)
    return pa.table(
        {
            "n_keys": pa.array([n], pa.int64()),
            "n_rows": pa.array([total], pa.int64()),
            "gini": pa.array([gini], pa.float64()),
        }
    )


def equi_depth_histogram(
    ds: ray.data.Dataset,
    col: str,
    *,
    n_bins: int = 8,
    cents: int = 100,
) -> pa.Table:
    """Equi-depth histogram of a float column → one row per non-empty
    bin ``(bin, n, sum_cents)`` — the optimizer-statistics /
    distribution-audit op (equal-probability bins expose skew that
    equal-WIDTH bins hide).

    Bin boundaries are the EXACT ``i/n_bins`` quantiles
    (:func:`exact_float_quantiles`, ``quantile_disc`` semantics);
    ``bin(v) = #{boundaries <= v}`` (searchsorted-right), so mass ties
    land wholly on one side — deterministic, though tied boundaries
    then make some bins shallower than n/n_bins.  Values aggregate as
    integer ``round(v·cents)`` sums, so outputs are bit-identical to
    the SQL mirror (float sums would be association-order-dependent).

    Cost: the quantile passes (~3 stateless scans, zero exchange) +
    ONE binning scan emitting ≤ n_bins partial rows per block, folded
    on the driver."""
    import numpy as np

    import ray as _ray

    from dots_ocr_ray.util import cached_object as _cached

    qtbl = exact_float_quantiles(ds, col, [i / n_bins for i in range(1, n_bins)])
    bounds = np.sort(
        np.asarray(qtbl.column("value").to_pylist(), dtype=np.float64)
    )
    bounds_ref = _ray.put(bounds)

    def _partial(batch: pa.Table, _ref=bounds_ref) -> pa.Table:
        b = _cached(_ref)
        v = batch.column(col).to_numpy(zero_copy_only=False).astype(np.float64)
        v = v[~np.isnan(v)]
        if not len(v):
            return pa.table(
                {
                    "bin": pa.array([], pa.int64()),
                    "n": pa.array([], pa.int64()),
                    "s": pa.array([], pa.int64()),
                }
            )
        bins = np.searchsorted(b, v, side="right").astype(np.int64)
        c = np.rint(v * cents).astype(np.int64)
        uniq, inv = np.unique(bins, return_inverse=True)
        n_part = np.bincount(inv, minlength=len(uniq)).astype(np.int64)
        s_part = np.zeros(len(uniq), dtype=np.int64)
        np.add.at(s_part, inv, c)
        return pa.table(
            {
                "bin": pa.array(uniq, type=pa.int64()),
                "n": pa.array(n_part, type=pa.int64()),
                "s": pa.array(s_part, type=pa.int64()),
            }
        )

    acc_bin, acc_n, acc_s = [], [], []
    for bt in ds.map_batches(_partial, batch_format="pyarrow").iter_batches(
        batch_format="pyarrow"
    ):
        if bt.num_rows:
            acc_bin.append(bt.column("bin").to_numpy(zero_copy_only=False))
            acc_n.append(bt.column("n").to_numpy(zero_copy_only=False))
            acc_s.append(bt.column("s").to_numpy(zero_copy_only=False))
    if not acc_bin:
        return pa.table(
            {
                "bin": pa.array([], pa.int64()),
                "n": pa.array([], pa.int64()),
                "sum_cents": pa.array([], pa.int64()),
            }
        )
    bins = np.concatenate(acc_bin)
    ns = np.concatenate(acc_n)
    ss = np.concatenate(acc_s)
    uniq, inv = np.unique(bins, return_inverse=True)
    n_tot = np.zeros(len(uniq), dtype=np.int64)
    s_tot = np.zeros(len(uniq), dtype=np.int64)
    np.add.at(n_tot, inv, ns)
    np.add.at(s_tot, inv, ss)
    return pa.table(
        {
            "bin": pa.array(uniq, type=pa.int64()),
            "n": pa.array(n_tot, type=pa.int64()),
            "sum_cents": pa.array(s_tot, type=pa.int64()),
        }
    )


def top_per_key(
    ds: ray.data.Dataset,
    *,
    key_col: str,
    k: int,
    desc_col: str,
    tie_col: str,
    num_buckets: int = 64,
) -> ray.data.Dataset:
    """Grouped top-k by an explicit priority — the per-host diversity
    cap (RefinedWeb's "no host may dominate" rule, kept-by-quality
    variant): at most ``k`` rows per key, the ones with the largest
    ``desc_col`` (ties → smallest ``tie_col``), plus their within-key
    rank ``rk`` (1-based).

    Same exchange discipline as :func:`sample_per_key`: ONE
    bucket-keyed exchange on hash(key); each bucket lexsorts its rows
    by (key, -desc, tie) and slices the first k of every key run
    vectorized — Python cost O(num_buckets), never O(keys), and the
    driver holds nothing."""
    import numpy as np

    def _fold(group: pa.Table) -> pa.Table:
        keys = group.column(key_col).to_numpy(zero_copy_only=False)
        desc = group.column(desc_col).to_numpy(zero_copy_only=False)
        tie = group.column(tie_col).to_numpy(zero_copy_only=False)
        order = np.lexsort((tie, -desc, keys))
        keep, pos = _first_k_per_run(keys[order], k)
        out = group.take(order[keep]).drop_columns(["__bucket"])
        return out.append_column("rk", pa.array((pos[keep] + 1).astype(np.int64), type=pa.int64()))

    return bucket_exchange(ds, key_col, _fold, num_buckets=num_buckets)


def volume_shipping(
    sf_dir: str,
    *,
    nation_a: str = "NATION_3",
    nation_b: str = "NATION_7",
    date_lo: str = "1996-01-01",
    date_hi: str = "1998-01-01",
) -> ray.data.Dataset:
    """TPC-H Q7 shape: shipped revenue BETWEEN two nations (supplier in
    one, ordering customer in the other, both directions) by ship
    year — the bidirectional trade-volume star join.

    Join strategy mirrors :func:`regional_supplier_volume`'s 100-TB
    plan: nation is a driver-read KB dim; the supplier and customer
    maps are FILTERED to the two nations before broadcast (two of 25
    nations ≈ 8% of each table — 10^7 customers × 8% ≈ 13 MB, inside
    the broadcast budget; above it, swap the customer gather for one
    more hash_join — same seam as the Q5 docstring documents).
    lineitem tags its supplier nation batch-locally and PRE-AGGREGATES
    revenue per (orderkey, supp_nation, year) — the order-group
    combiner that bounds the one fact-fact
    :func:`hash_join` (lineitem partials ⋈ orders) by order count, not
    line count.  Final rollup is a tiny (2 × 2 × years) keyed fold."""
    import datetime

    import numpy as np

    from dots_ocr_ray.util import bucket_keyed_fold, cached_object

    nations = ray.data.read_parquet(
        f"{sf_dir}/nation.parquet", columns=["n_nationkey", "n_name"]
    ).to_pandas()
    name_of = dict(zip(nations["n_nationkey"], nations["n_name"]))
    want_keys = {k for k, v in name_of.items() if v in (nation_a, nation_b)}

    supp = ray.data.read_parquet(
        f"{sf_dir}/supplier.parquet", columns=["s_suppkey", "s_nationkey"]
    ).to_pandas()
    supp = supp[supp["s_nationkey"].isin(want_keys)]
    supp_map_ref = ray.put(dict(zip(supp["s_suppkey"], supp["s_nationkey"])))

    cust = ray.data.read_parquet(
        f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_nationkey"]
    ).to_pandas()
    cust = cust[cust["c_nationkey"].isin(want_keys)]
    cust_map_ref = ray.put(dict(zip(cust["c_custkey"], cust["c_nationkey"])))

    lo = datetime.datetime.fromisoformat(date_lo)
    hi = datetime.datetime.fromisoformat(date_hi)

    lineitem = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_orderkey", "l_suppkey", "l_extendedprice", "l_discount", "l_shipdate"],
    )

    def _tag_supp(batch: pa.Table) -> pa.Table:
        smap = cached_object(supp_map_ref)
        ship = batch.column("l_shipdate").to_pandas()
        keep = (ship >= lo) & (ship < hi)
        batch = batch.filter(pa.array(keep.to_numpy()))
        if batch.num_rows == 0:
            return pa.table(
                {
                    "l_orderkey": pa.array([], pa.int64()),
                    "supp_nation": pa.array([], pa.int64()),
                    "year": pa.array([], pa.int64()),
                    "revenue": pa.array([], pa.float64()),
                }
            )
        sk = batch.column("l_suppkey").to_pylist()
        nk = np.array([smap.get(s, -1) for s in sk], dtype=np.int64)
        m = nk >= 0
        batch = batch.filter(pa.array(m))
        nk = nk[m]
        rev = (
            batch.column("l_extendedprice").to_numpy(zero_copy_only=False)
            * (1.0 - batch.column("l_discount").to_numpy(zero_copy_only=False))
        )
        years = (
            batch.column("l_shipdate").to_pandas().dt.year.to_numpy().astype(np.int64)
        )
        t = pa.table(
            {
                "l_orderkey": batch.column("l_orderkey").cast(pa.int64()),
                "supp_nation": pa.array(nk, type=pa.int64()),
                "year": pa.array(years, type=pa.int64()),
                "revenue": pa.array(rev, type=pa.float64()),
            }
        )
        agg = t.group_by(["l_orderkey", "supp_nation", "year"]).aggregate(
            [("revenue", "sum")]
        )
        return agg.rename_columns(["l_orderkey", "supp_nation", "year", "revenue"])

    partials = lineitem.map_batches(_tag_supp, batch_format="pyarrow")

    orders = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet", columns=["o_orderkey", "o_custkey"]
    )

    def _orders_side(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "l_orderkey": batch.column("o_orderkey").cast(pa.int64()),
                "o_custkey": batch.column("o_custkey").cast(pa.int64()),
            }
        )

    joined = hash_join(
        partials,
        orders.map_batches(_orders_side, batch_format="pyarrow"),
        on="l_orderkey",
        left_schema=pa.schema(
            [
                ("l_orderkey", pa.int64()),
                ("supp_nation", pa.int64()),
                ("year", pa.int64()),
                ("revenue", pa.float64()),
            ]
        ),
        right_schema=pa.schema([("l_orderkey", pa.int64()), ("o_custkey", pa.int64())]),
    )

    def _tag_cust(batch: pa.Table) -> pa.Table:
        cmap = cached_object(cust_map_ref)
        ck = batch.column("o_custkey").to_pylist()
        nk = np.array([cmap.get(c, -1) for c in ck], dtype=np.int64)
        sn = batch.column("supp_nation").to_numpy(zero_copy_only=False).astype(np.int64)
        m = (nk >= 0) & (nk != sn)  # cross-nation flows only
        batch = batch.filter(pa.array(m))
        nk = nk[m]
        return pa.table(
            {
                "supp_nation": pa.array(
                    [name_of[int(s)] for s in batch.column("supp_nation").to_pylist()],
                    type=pa.string(),
                ),
                "cust_nation": pa.array([name_of[int(c)] for c in nk], type=pa.string()),
                "year": batch.column("year").cast(pa.int64()),
                "revenue": batch.column("revenue").cast(pa.float64()),
            }
        )

    flows = joined.map_batches(_tag_cust, batch_format="pyarrow")
    return bucket_keyed_fold(flows, ["supp_nation", "cust_nation", "year"], {"revenue": ("sum", "revenue")})


def small_quantity_revenue(
    sf_dir: str,
    *,
    brand: str = "Brand#12",
    frac: float = 0.4,
) -> pa.Table:
    """TPC-H Q17 shape: revenue from SMALL-quantity line items of one
    brand, where "small" is a correlated per-part threshold
    (``l_quantity < frac * avg(l_quantity) over that part``) — the
    correlated-aggregate-subquery operator.

    100-TB plan: the brand's part keys are ~1/|brands| of the part
    table (sorted int64 broadcast, 8 B/key); pass 1 streams lineitem
    once to build the bounded per-part (Σqty, n) threshold table
    (exchange ∝ brand part count); pass 2 streams lineitem again,
    filters batch-locally against the broadcast thresholds with a
    fixed ``frac * (sq * 1.0 / cq)`` operand order mirrored by the SQL
    oracle, and folds cent-exact revenue partials.  No row-level
    shuffle at any point — both passes are read → filter → partial."""
    import numpy as np

    from dots_ocr_ray.util import bucket_keyed_fold, cached_object

    part = ray.data.read_parquet(
        f"{sf_dir}/part.parquet", columns=["p_partkey", "p_brand"]
    )
    keys = (
        part.map_batches(
            lambda t: t.filter(pc.equal(t.column("p_brand"), brand)).select(
                ["p_partkey"]
            ),
            batch_format="pyarrow",
        )
        .to_pandas()["p_partkey"]
        .to_numpy()
        .astype(np.int64)
    )
    keys.sort()
    keys_ref = ray.put(keys)

    def _member(col: pa.ChunkedArray, sorted_keys: np.ndarray) -> np.ndarray:
        vals = col.to_numpy(zero_copy_only=False).astype(np.int64)
        idx = np.searchsorted(sorted_keys, vals)
        idx[idx >= len(sorted_keys)] = 0
        return sorted_keys[idx] == vals if len(sorted_keys) else np.zeros(len(vals), bool)

    def _pass1(batch: pa.Table) -> pa.Table:
        sk = cached_object(keys_ref)
        m = _member(batch.column("l_partkey"), sk)
        batch = batch.filter(pa.array(m))
        return pa.table(
            {
                "pk": batch.column("l_partkey").cast(pa.int64()),
                "q": batch.column("l_quantity").cast(pa.float64()),
            }
        )

    thr = (
        bucket_keyed_fold(
            ray.data.read_parquet(f"{sf_dir}/lineitem.parquet", columns=["l_partkey", "l_quantity"]).map_batches(
                _pass1, batch_format="pyarrow"
            ),
            "pk",
            {"sq": ("sum", "q"), "cq": ("count", None)},
        )
        .to_pandas()
        .sort_values("pk")
    )
    thr_ref = ray.put(
        (
            thr["pk"].to_numpy().astype(np.int64),
            thr["sq"].to_numpy().astype(np.float64),
            thr["cq"].to_numpy().astype(np.int64),
        )
    )

    def _pass2(batch: pa.Table) -> pa.Table:
        pks, sqs, cqs = cached_object(thr_ref)
        vals = batch.column("l_partkey").to_numpy(zero_copy_only=False).astype(np.int64)
        idx = np.searchsorted(pks, vals)
        idx_c = np.clip(idx, 0, max(len(pks) - 1, 0))
        m = (pks[idx_c] == vals) if len(pks) else np.zeros(len(vals), bool)
        q = batch.column("l_quantity").to_numpy(zero_copy_only=False)
        small = np.zeros(len(vals), bool)
        if m.any():
            sq = sqs[idx_c[m]]
            cq = cqs[idx_c[m]]
            small[m] = q[m] < frac * (sq * 1.0 / cq)
        cents = np.round(
            batch.column("l_extendedprice").to_numpy(zero_copy_only=False)[small] * 100
        ).astype(np.int64)
        return pa.table(
            {
                "n_items": pa.array([int(small.sum())], pa.int64()),
                "revenue_cents": pa.array([int(cents.sum())], pa.int64()),
            }
        )

    parts = (
        ray.data.read_parquet(
            f"{sf_dir}/lineitem.parquet",
            columns=["l_partkey", "l_quantity", "l_extendedprice"],
        )
        .map_batches(_pass2, batch_format="pyarrow")
        .to_pandas()
    )
    return pa.table(
        {
            "n_items": pa.array([int(parts["n_items"].sum())], pa.int64()),
            "revenue_cents": pa.array([int(parts["revenue_cents"].sum())], pa.int64()),
        }
    )


def large_volume_orders(
    sf_dir: str,
    *,
    threshold: float = 180.0,
    k: int = 100,
) -> pa.Table:
    """TPC-H Q18 shape: the top-k largest-quantity orders (orders whose
    summed line quantity exceeds a threshold), with their customer and
    order header — the having-filter + join-back operator.

    100-TB plan: ONE bucket-keyed exchange co-locates each order's
    lines and a vectorized per-bucket reduceat computes Σqty + HAVING
    (integer-valued doubles, so the float sum is exact and
    order-independent); the survivor set after the HAVING filter is
    rare by construction and attaches to a streamed orders scan via
    :func:`hash_join` (sorted-array broadcast + searchsorted when it
    fits — ZERO exchange — one keyed exchange above it); top-k is per-batch partial heaps
    merged on the driver (no global sort), and only the ≤k winners'
    customer rows are probe-read with a pushed-down filter."""
    import numpy as np
    import pyarrow.dataset as pads

    def _rows(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "ok": batch.column("l_orderkey").cast(pa.int64()),
                "q": batch.column("l_quantity").cast(pa.float64()),
            }
        )

    def _reduce(group: pa.Table) -> pa.Table:
        # vectorized per-order sum + HAVING inside one bucket group —
        # Python cost O(buckets), not O(orders) (native per-key Sum
        # measured ~6 s for 150k orders on this path)
        ok = group.column("ok").to_numpy(zero_copy_only=False).astype(np.int64)
        q = group.column("q").to_numpy(zero_copy_only=False)
        order = np.argsort(ok, kind="stable")
        ok, q = ok[order], q[order]
        new_ord = np.ones(len(ok), bool)
        new_ord[1:] = ok[1:] != ok[:-1]
        starts = np.nonzero(new_ord)[0]
        sums = np.add.reduceat(q, starts)  # integer-valued doubles: exact
        keep = sums > threshold
        return pa.table(
            {
                "l_orderkey": pa.array(ok[starts][keep], pa.int64()),
                "sum_qty": pa.array(np.round(sums[keep]).astype(np.int64), pa.int64()),
            }
        )

    survivors = bucket_exchange(
        ray.data.read_parquet(
            f"{sf_dir}/lineitem.parquet", columns=["l_orderkey", "l_quantity"]
        ).map_batches(_rows, batch_format="pyarrow"),
        "ok",
        _reduce,
        num_buckets=64,
    )

    orders = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderkey", "o_custkey", "o_totalprice"],
    ).map_batches(
        lambda t: t.rename_columns(["l_orderkey", "o_custkey", "o_totalprice"]),
        batch_format="pyarrow",
    )
    joined = hash_join(
        orders,
        survivors,
        on="l_orderkey",
        left_schema=pa.schema(
            [
                ("l_orderkey", pa.int64()),
                ("o_custkey", pa.int64()),
                ("o_totalprice", pa.float64()),
            ]
        ),
        right_schema=pa.schema(
            [("l_orderkey", pa.int64()), ("sum_qty", pa.int64())]
        ),
    )

    def _local_topk(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        df = df.sort_values(
            ["o_totalprice", "l_orderkey"], ascending=[False, True]
        ).head(k)
        return pa.Table.from_pandas(df, preserve_index=False)

    top = (
        joined.map_batches(_local_topk, batch_format="pyarrow")
        .to_pandas()
        .sort_values(["o_totalprice", "l_orderkey"], ascending=[False, True])
        .head(k)
        .reset_index(drop=True)
    )
    custkeys = sorted(set(top["o_custkey"].astype(int).tolist()))
    cust = (
        pads.dataset(f"{sf_dir}/customer.parquet")
        .to_table(
            columns=["c_custkey", "c_name"],
            filter=pads.field("c_custkey").isin(custkeys),
        )
        .to_pandas()
    )
    name_of = dict(zip(cust["c_custkey"].astype(int), cust["c_name"]))
    return pa.table(
        {
            "c_name": pa.array(
                [name_of[int(c)] for c in top["o_custkey"]], pa.string()
            ),
            "o_orderkey": pa.array(top["l_orderkey"].astype(int), pa.int64()),
            "total_cents": pa.array(
                np.round(top["o_totalprice"].to_numpy() * 100).astype(np.int64),
                pa.int64(),
            ),
            "sum_qty": pa.array(top["sum_qty"].astype(int), pa.int64()),
        }
    )


def waiting_suppliers(
    sf_dir: str,
    *,
    status: str = "F",
    k: int = 20,
    num_buckets: int = 64,
) -> pa.Table:
    """TPC-H Q21 shape: for unfulfilled orders served by MULTIPLE
    suppliers, find suppliers who were the ONLY one whose lines came
    back returned — the exists / not-exists double-correlation
    operator, rephrased over the columns this schema carries
    (return-flag in place of receipt-vs-commit lateness).

    100-TB plan: ONE bucket-keyed exchange (hash(orderkey) %
    ``num_buckets``, every order's lines co-located) and a fully
    VECTORIZED per-bucket reduce — lexsort → pair-boundary dedup →
    order-boundary reduceat for (n_suppliers, n_returned, min returned
    supplier) — so Python cost is O(buckets), never O(orders) (the
    native per-key aggregate measured ~9 s for 150k orders; this form
    is the engine's standard fix, see dedup.exact_distinct_pairs).
    The status-'F' restriction is the exact
    :func:`dedup.semi_join_ids` (a :func:`hash_join` semi-join).  Per-supplier blame counts fold to a driver-merged partial
    top-k; winner names are a ≤k pushed-down probe read."""
    import numpy as np
    import pyarrow.dataset as pads

    from dots_ocr_ray.pipelines.dedup import semi_join_ids

    BIG = np.int64(2**62)

    def _rows(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "ok": batch.column("l_orderkey").cast(pa.int64()),
                "sk": batch.column("l_suppkey").cast(pa.int64()),
                "r": pc.cast(pc.equal(batch.column("l_returnflag"), "R"), pa.int8()),
            }
        )

    def _reduce(group: pa.Table) -> pa.Table:
        ok = group.column("ok").to_numpy(zero_copy_only=False).astype(np.int64)
        sk = group.column("sk").to_numpy(zero_copy_only=False).astype(np.int64)
        r = group.column("r").to_numpy(zero_copy_only=False).astype(np.int64)
        order = np.lexsort((sk, ok))
        ok, sk, r = ok[order], sk[order], r[order]
        # distinct (order, supplier) pairs with any-returned flag
        new_pair = np.ones(len(ok), bool)
        new_pair[1:] = (ok[1:] != ok[:-1]) | (sk[1:] != sk[:-1])
        starts = np.nonzero(new_pair)[0]
        pair_r = np.add.reduceat(r, starts) > 0
        p_ok, p_sk = ok[starts], sk[starts]
        # per-order reduceat over the (sorted) distinct pairs
        new_ord = np.ones(len(p_ok), bool)
        new_ord[1:] = p_ok[1:] != p_ok[:-1]
        ostarts = np.nonzero(new_ord)[0]
        ns = np.add.reduceat(np.ones(len(p_ok), np.int64), ostarts)
        nr = np.add.reduceat(pair_r.astype(np.int64), ostarts)
        rs = np.minimum.reduceat(np.where(pair_r, p_sk, BIG), ostarts)
        return pa.table(
            {
                "l_orderkey": pa.array(p_ok[ostarts], pa.int64()),
                "ns": pa.array(ns, pa.int64()),
                "nr": pa.array(nr, pa.int64()),
                "rs": pa.array(rs, pa.int64()),
            }
        )

    per_order = bucket_exchange(
        ray.data.read_parquet(
            f"{sf_dir}/lineitem.parquet",
            columns=["l_orderkey", "l_suppkey", "l_returnflag"],
        ).map_batches(_rows, batch_format="pyarrow"),
        "ok",
        _reduce,
        num_buckets=num_buckets,
    )

    orders_f = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet", columns=["o_orderkey", "o_orderstatus"]
    ).map_batches(
        lambda t: pa.table(
            {
                "o_orderkey": t.filter(
                    pc.equal(t.column("o_orderstatus"), status)
                ).column("o_orderkey").cast(pa.int64())
            }
        ),
        batch_format="pyarrow",
    )
    blamed = semi_join_ids(
        per_order, orders_f, id_col="l_orderkey", id_cols=("o_orderkey",)
    ).map_batches(
        lambda t: t.filter(
            pc.and_(pc.greater(t.column("ns"), 1), pc.equal(t.column("nr"), 1))
        ).select(["rs"]),
        batch_format="pyarrow",
    )

    from dots_ocr_ray.util import bucket_keyed_fold

    counts = bucket_keyed_fold(blamed, "rs", {"numwait": ("count", None)})

    def _local_topk(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        return pa.Table.from_pandas(
            df.sort_values(["numwait", "rs"], ascending=[False, True]).head(k),
            preserve_index=False,
        )

    top = (
        counts.map_batches(_local_topk, batch_format="pyarrow")
        .to_pandas()
        .sort_values(["numwait", "rs"], ascending=[False, True])
        .head(k)
        .reset_index(drop=True)
    )
    suppkeys = sorted(set(top["rs"].astype(int).tolist()))
    supp = (
        pads.dataset(f"{sf_dir}/supplier.parquet")
        .to_table(
            columns=["s_suppkey", "s_name"],
            filter=pads.field("s_suppkey").isin(suppkeys),
        )
        .to_pandas()
    )
    name_of = dict(zip(supp["s_suppkey"].astype(int), supp["s_name"]))
    return pa.table(
        {
            "s_suppkey": pa.array(top["rs"].astype(int), pa.int64()),
            "s_name": pa.array([name_of[int(s)] for s in top["rs"]], pa.string()),
            "numwait": pa.array(top["numwait"].astype(int), pa.int64()),
        }
    )


def dormant_rich_customers(
    sf_dir: str,
    *,
    cutoff: str = "2000-07-01",
) -> pa.Table:
    """TPC-H Q22 shape: customers with above-average positive balance
    and NO recent orders, rolled up per nation — the scalar-subquery
    threshold + anti-join operator (phone-prefix country codes
    replaced by the nation dimension this schema carries).

    100-TB plan: the balance threshold folds from cent-exact (Σcents,
    n) partials to ONE driver scalar (fixed ``scents * 1.0 /
    (100 * n)`` operand order mirrored by the oracle); recent-orderer
    ids flow into :func:`dedup.anti_join_ids` — exact at every scale
    (a :func:`hash_join` anti-join: sorted ids broadcast when they fit,
    one keyed exchange above); the survivor rollup is a
    bounded per-nation groupby decorated from the KB nation dim."""
    import datetime

    import numpy as np

    from dots_ocr_ray.pipelines.dedup import anti_join_ids

    cust_cols = ["c_custkey", "c_nationkey", "c_acctbal"]

    def _bal_partial(batch: pa.Table) -> pa.Table:
        bal = batch.column("c_acctbal").to_numpy(zero_copy_only=False)
        pos = bal[bal > 0]
        cents = np.round(pos * 100).astype(np.int64)
        return pa.table(
            {
                "scents": pa.array([int(cents.sum())], pa.int64()),
                "n": pa.array([len(pos)], pa.int64()),
            }
        )

    customer = ray.data.read_parquet(f"{sf_dir}/customer.parquet", columns=cust_cols)
    bal = customer.map_batches(_bal_partial, batch_format="pyarrow").to_pandas()
    scents, npos = int(bal["scents"].sum()), int(bal["n"].sum())
    thr = scents * 1.0 / (100 * npos)

    cut = datetime.datetime.fromisoformat(cutoff)
    recent = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet", columns=["o_custkey", "o_orderdate"]
    ).map_batches(
        lambda t: t.filter(pc.greater_equal(t.column("o_orderdate"), cut)).select(
            ["o_custkey"]
        ),
        batch_format="pyarrow",
    )

    rich = customer.map_batches(
        lambda t: t.filter(pc.greater(t.column("c_acctbal"), thr)),
        batch_format="pyarrow",
    )
    dormant = anti_join_ids(rich, recent, id_col="c_custkey", id_cols=("o_custkey",))

    def _cents(batch: pa.Table) -> pa.Table:
        cents = np.round(
            batch.column("c_acctbal").to_numpy(zero_copy_only=False) * 100
        ).astype(np.int64)
        return pa.table({"c_nationkey": batch.column("c_nationkey"), "cents": pa.array(cents, pa.int64())})

    from dots_ocr_ray.util import bucket_keyed_fold

    per_nation = (
        bucket_keyed_fold(
            dormant.map_batches(_cents, batch_format="pyarrow"),
            "c_nationkey",
            {"n_cust": ("count", None), "total_cents": ("sum", "cents")},
        )
        .to_pandas()
        .sort_values("c_nationkey")
        .reset_index(drop=True)
    )
    nations = ray.data.read_parquet(
        f"{sf_dir}/nation.parquet", columns=["n_nationkey", "n_name"]
    ).to_pandas()
    name_of = dict(zip(nations["n_nationkey"].astype(int), nations["n_name"]))
    return pa.table(
        {
            "n_name": pa.array(
                [name_of[int(x)] for x in per_nation["c_nationkey"]], pa.string()
            ),
            "n_cust": pa.array(per_nation["n_cust"].astype(int), pa.int64()),
            "total_cents": pa.array(per_nation["total_cents"].astype(int), pa.int64()),
        }
    )
