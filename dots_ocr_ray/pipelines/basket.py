"""Market-basket association-rule mining over co-occurring keys — the
"parts bought together" / "tokens co-cited together" affinity signal a
curation pipeline uses to find correlated sources, co-linked hosts, or
co-ordered items (Agrawal et al. 1993's support/confidence/lift,
re-expressed as bounded count folds).

Scale shape: ONE bucket-keyed exchange co-locates each basket's items
(bucket = hash(basket_id), so a basket is never split), then pair
emission is vectorized per run-length class inside the bucket fold —
Python cost O(distinct basket sizes), never O(baskets).  Pair counts
and per-item counts leave the fold as int64 partials and merge through
one ``util.bucket_keyed_fold`` sum each.  The surviving-rule table is bounded
by ``min_support`` — only pairs seen ≥ min_support times ever reach
the driver join, and the per-item counts gathered for lift are only
those appearing in surviving pairs (``sorted_lookup``), so nothing
scales with the item vocabulary.

Pair keys pack as ``a << 32 | b`` when both ids fit in 31 bits (exact;
TPC-H partkeys at any tested SF).  Wider ids fall back to a two-column
distributed groupby — documented, not silent.

No reference counterpart (the reference mines nothing); this is a
first-class training-data addition in the repo's exchange-budget
discipline.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

import ray.data

from dots_ocr_ray.util import bucket_exchange, bucket_keyed_fold, sorted_lookup

_PACK_LIMIT = np.int64(1) << np.int64(31)


def _pair_partials(
    batch: pa.Table, basket_col: str, item_col: str, *, packed: bool = True
) -> pa.Table:
    """Within one co-located bucket: distinct (basket, item), then
    vectorized pair emission per basket-size class.  Emits rows of
    (kind, key, cnt) when ``packed`` (kind 0 = ``a<<32|b`` pair count,
    kind 1 = per-item basket count, kind 2 = distinct-basket count);
    when not packed (wide ids), pairs keep TWO key columns
    ``(kind, key_a, key_b, cnt)`` — exact at any id magnitude."""
    b = batch.column(basket_col).to_numpy(zero_copy_only=False).astype(np.int64)
    it = batch.column(item_col).to_numpy(zero_copy_only=False).astype(np.int64)
    out_kind: list[np.ndarray] = []
    out_key: list[np.ndarray] = []
    out_key_b: list[np.ndarray] = []
    out_cnt: list[np.ndarray] = []
    if len(b):
        # distinct (basket, item) via lexsort-based unique (id-width
        # agnostic)
        order = np.lexsort((it, b))
        b, it = b[order], it[order]
        keep = np.ones(len(b), dtype=bool)
        keep[1:] = (b[1:] != b[:-1]) | (it[1:] != it[:-1])
        b, it = b[keep], it[keep]
        # run lengths per basket
        starts = np.concatenate([[0], np.nonzero(np.diff(b))[0] + 1])
        lens = np.diff(np.concatenate([starts, [len(b)]]))
        # per-item basket counts (each (basket,item) now unique)
        uniq_it, it_cnt = np.unique(it, return_counts=True)
        out_kind.append(np.ones(len(uniq_it), dtype=np.int8))
        out_key.append(uniq_it)
        out_key_b.append(np.zeros(len(uniq_it), dtype=np.int64))
        out_cnt.append(it_cnt.astype(np.int64))
        # distinct baskets in this bucket (buckets partition baskets,
        # so the global distinct is the plain sum of these)
        out_kind.append(np.array([2], dtype=np.int8))
        out_key.append(np.array([0], dtype=np.int64))
        out_key_b.append(np.array([0], dtype=np.int64))
        out_cnt.append(np.array([len(starts)], dtype=np.int64))
        # pairs, one vectorized block per basket-size class
        for size in np.unique(lens):
            if size < 2:
                continue
            runs = starts[lens == size]
            # (n_runs, size) matrix of item ids, ascending within a row
            mat = it[(runs[:, None] + np.arange(size)[None, :])]
            iu, ju = np.triu_indices(int(size), k=1)
            a = mat[:, iu].ravel()
            c = mat[:, ju].ravel()
            out_kind.append(np.zeros(len(a), dtype=np.int8))
            if packed:
                out_key.append((a << np.int64(32)) | c)
                out_key_b.append(np.zeros(len(a), dtype=np.int64))
            else:
                out_key.append(a)
                out_key_b.append(c)
            out_cnt.append(np.ones(len(a), dtype=np.int64))
    kind = np.concatenate(out_kind) if out_kind else np.array([], dtype=np.int8)
    key = np.concatenate(out_key) if out_key else np.array([], dtype=np.int64)
    cnt = np.concatenate(out_cnt) if out_cnt else np.array([], dtype=np.int64)
    cols = {
        "kind": pa.array(kind, type=pa.int8()),
        "key": pa.array(key, type=pa.int64()),
    }
    if not packed:
        key_b = np.concatenate(out_key_b) if out_key_b else np.array([], dtype=np.int64)
        cols["key_b"] = pa.array(key_b, type=pa.int64())
    cols["cnt"] = pa.array(cnt, type=pa.int64())
    return pa.table(cols)


def association_rules(
    ds: ray.data.Dataset,
    *,
    basket_col: str,
    item_col: str,
    min_support: int = 2,
    num_buckets: int = 64,
    wide_ids: bool | None = None,
) -> pa.Table:
    """Frequent item PAIRS with support, confidence and lift.

    Returns an Arrow table ``(item_a, item_b, support, conf_micro,
    lift_micro)`` for every unordered pair co-occurring in
    ``>= min_support`` distinct baskets, with ``item_a < item_b``,
    ``conf_micro = floor(1e6 * support / n_a)`` (confidence of
    a => b) and ``lift_micro = floor(1e6 * support * n_baskets /
    (n_a * n_b))`` — integer-exact micro units, no float crosses
    groups.  The rule table is bounded by min_support; raise it for
    bigger corpora.

    ``wide_ids``: item ids ≥ 2^31 (or negative) can't use the packed
    ``a<<32|b`` pair key; the wide path keeps pairs as two int64
    columns and merges on both — same exchange discipline, ~1.5× pair-partial bytes.  ``None``
    (default) probes the item-id range with one column-pruned pass and
    picks automatically; pass True/False to skip the probe.
    """
    import pyarrow.compute as pc

    if wide_ids is None:
        # one cheap column-pruned scan: per-batch (min, max) partials
        def _minmax(batch: pa.Table) -> pa.Table:
            its = batch.column(item_col).to_numpy(zero_copy_only=False).astype(np.int64)
            if not len(its):
                return pa.table(
                    {"lo": pa.array([], pa.int64()), "hi": pa.array([], pa.int64())}
                )
            return pa.table(
                {
                    "lo": pa.array([int(its.min())], pa.int64()),
                    "hi": pa.array([int(its.max())], pa.int64()),
                }
            )

        mm = ds.map_batches(_minmax, batch_format="pyarrow").take_all()
        wide_ids = bool(mm) and (
            min(r["lo"] for r in mm) < 0 or max(r["hi"] for r in mm) >= int(_PACK_LIMIT)
        )

    def _ids(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                basket_col: batch.column(basket_col).cast(pa.int64()),
                item_col: batch.column(item_col).cast(pa.int64()),
            }
        )

    packed = not wide_ids
    partials = bucket_exchange(
        ds.map_batches(_ids, batch_format="pyarrow"),
        basket_col,
        lambda g: _pair_partials(g, basket_col, item_col, packed=packed),
        num_buckets=num_buckets,
    ).materialize()

    keys = ["key"] if packed else ["key", "key_b"]
    pair_counts = bucket_keyed_fold(
        partials.filter(expr="kind == 0").select_columns([*keys, "cnt"]), keys, {"cnt": ("sum", "cnt")}
    )
    # surviving pairs only (bounded by min_support)
    surv = pair_counts.filter(expr=f"cnt >= {int(min_support)}").materialize()
    pair_a_np: list[np.ndarray] = []
    pair_b_np: list[np.ndarray] = []
    pair_cnt_np: list[np.ndarray] = []
    for b in surv.iter_batches(batch_format="pyarrow"):
        if b.num_rows:
            k = b.column("key").to_numpy(zero_copy_only=False)
            if packed:
                pair_a_np.append(k >> np.int64(32))
                pair_b_np.append(k & np.int64(0xFFFFFFFF))
            else:
                pair_a_np.append(k)
                pair_b_np.append(b.column("key_b").to_numpy(zero_copy_only=False))
            pair_cnt_np.append(b.column("cnt").to_numpy(zero_copy_only=False))
    if not pair_cnt_np:
        return pa.table(
            {
                "item_a": pa.array([], type=pa.int64()),
                "item_b": pa.array([], type=pa.int64()),
                "support": pa.array([], type=pa.int64()),
                "conf_micro": pa.array([], type=pa.int64()),
                "lift_micro": pa.array([], type=pa.int64()),
            }
        )
    item_a = np.concatenate(pair_a_np)
    item_b = np.concatenate(pair_b_np)
    sup = np.concatenate(pair_cnt_np).astype(np.int64)

    item_counts = bucket_keyed_fold(
        partials.filter(expr="kind == 1").select_columns(["key", "cnt"]), "key", {"cnt": ("sum", "cnt")}
    )
    # gather only the items that appear in surviving pairs
    need = np.unique(np.concatenate([item_a, item_b]))
    need_counts = np.zeros(len(need), dtype=np.int64)
    for b in item_counts.iter_batches(batch_format="pyarrow"):
        if not b.num_rows:
            continue
        k = b.column("key").to_numpy(zero_copy_only=False)
        c = b.column("cnt").to_numpy(zero_copy_only=False)
        hit, idx = sorted_lookup(need, k)
        need_counts[idx[hit]] += c[hit]

    n_baskets = 0
    for b in partials.filter(expr="kind == 2").iter_batches(batch_format="pyarrow"):
        if b.num_rows:
            n_baskets += int(
                pc.sum(b.column("cnt")).as_py() or 0
            )

    _, ia = sorted_lookup(need, item_a)
    _, ib = sorted_lookup(need, item_b)
    na = need_counts[ia]
    nb = need_counts[ib]
    # Python-int math on the bounded rule table: exact at any magnitude
    conf = np.array(
        [(1_000_000 * int(s)) // int(x) for s, x in zip(sup, na)], dtype=np.int64
    )
    lift = np.array(
        [
            (1_000_000 * int(s) * int(n_baskets)) // (int(x) * int(y))
            for s, x, y in zip(sup, na, nb)
        ],
        dtype=np.int64,
    )
    order = np.lexsort((item_b, item_a))
    return pa.table(
        {
            "item_a": pa.array(item_a[order], type=pa.int64()),
            "item_b": pa.array(item_b[order], type=pa.int64()),
            "support": pa.array(sup[order], type=pa.int64()),
            "conf_micro": pa.array(conf[order], type=pa.int64()),
            "lift_micro": pa.array(lift[order], type=pa.int64()),
        }
    )


def part_affinity(sf_dir: str, *, min_support: int = 2) -> pa.Table:
    """Parts co-ordered together: association rules over (order,
    part) baskets from lineitem, support >= min_support.  The
    wide-id decision comes from parquet column STATISTICS (row-group
    min/max, no data read) instead of association_rules' scan probe."""
    from dots_ocr_ray.util import parquet_int_minmax

    mm = parquet_int_minmax(f"{sf_dir}/lineitem.parquet", ["l_partkey"])
    wide = None if mm is None else bool(mm[0] < 0 or mm[1] >= int(_PACK_LIMIT))
    li = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet", columns=["l_orderkey", "l_partkey"]
    )
    return association_rules(
        li,
        basket_col="l_orderkey",
        item_col="l_partkey",
        min_support=min_support,
        wide_ids=wide,
    )
