"""Generic keyed top-rollup in ONE bucket exchange.

Given partial count rows ``(key, sub, c)`` (callers pre-aggregate per
batch so hot keys collapse before anything moves), compute per key:
``total`` (sum of c), ``n_distinct`` (distinct sub values), ``top_sub``
(the sub with the largest summed c, ties → lexicographically smallest)
and ``top_n`` (that count) — the rollup shape shared by inbound-anchor
stats, per-host template detection, and any "what dominates this key"
question at crawl scale.

Scale shape: one :func:`~dots_ocr_ray.util.bucket_exchange` on key puts
every key whole in one bucket; each bucket sorts by (key, sub),
combines equal (key, sub) runs with ``np.add.reduceat`` and computes
every key's stats vectorized over the key segments — one Python call
per bucket, never per key.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

import ray
import ray.data

from dots_ocr_ray.util import _key_runs, _sort_codes, bucket_exchange


def keyed_top_rollup(
    partials: ray.data.Dataset,
    *,
    key_col: str = "key",
    sub_col: str = "sub",
    count_col: str = "c",
) -> ray.data.Dataset:
    """``(key, sub, c)`` partial counts → one row per key:
    ``(key, total, n_distinct, top_sub, top_n)``.  Exactly one
    corpus-sized exchange; see module docstring."""

    def _norm(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "key": batch.column(key_col).cast(pa.string()),
                "sub": batch.column(sub_col).cast(pa.string()),
                "c": batch.column(count_col).cast(pa.int64()),
            }
        )

    def _fold(group: pa.Table) -> pa.Table:
        # key segments, sub ascending inside each; runs of equal (key, sub)
        perm, key_starts = _key_runs(group, ["key"], ["sub"])
        sub = _sort_codes(group.column("sub").take(pa.array(perm)))
        key_start = np.zeros(len(perm), dtype=bool)
        key_start[key_starts] = True
        new_run = key_start.copy()
        new_run[1:] |= sub[1:] != sub[:-1]
        run_starts = np.flatnonzero(new_run)
        c_run = np.add.reduceat(group.column("c").to_numpy()[perm], run_starts)
        rows = pa.array(perm[run_starts])
        k_run = group.column("key").take(rows)
        s_run = group.column("sub").take(rows)
        m = len(run_starts)

        new_seg = key_start[run_starts]
        seg_starts = np.flatnonzero(new_seg)
        seg_id = np.cumsum(new_seg) - 1

        max_c = np.maximum.reduceat(c_run, seg_starts)
        cand = c_run == max_c[seg_id]
        first_cand = np.minimum.reduceat(np.where(cand, np.arange(m), m), seg_starts)
        return pa.table(
            {
                "key": k_run.take(pa.array(seg_starts)),
                "total": pa.array(np.add.reduceat(c_run, seg_starts), type=pa.int64()),
                "n_distinct": pa.array(np.diff(np.append(seg_starts, m)), type=pa.int64()),
                "top_sub": s_run.take(pa.array(first_cand)),
                "top_n": pa.array(max_c, type=pa.int64()),
            }
        )

    return bucket_exchange(partials.map_batches(_norm, batch_format="pyarrow"), "key", _fold)
