"""Rendezvous (highest-random-weight) hashing: stable key→bucket
assignment that survives cluster resizes.

Hash-mod assignment reshuffles ~(1 - 1/n) of all keys when the bucket
count changes; rendezvous hashing moves EXACTLY the keys whose new
bucket wins — an expected 1/(n+1) fraction on grow, and every moved
key lands on the NEW bucket (never between old ones).  That property
is what a fixed-size multi-node pipeline wants for host→worker or
shard→node placement: adding nodes drains a minimal, targeted slice
of the keyspace instead of re-dealing everything.

Definition used here (SQL-mirrorable): ``bucket(key, n) = argmax over
b in [0, n) of md5(f"{key}#{b}")`` compared as the lowercase hex
string — equal-length hex compares identically as text and as the
big-endian integer, so DuckDB's ``ORDER BY md5(...) DESC`` is the
same argmax.

Cost shape: n md5 calls per key per batch, embarrassingly parallel,
zero exchange.  For bucket counts in the hundreds this is ~µs/key;
assign once per key (dedup first) when keys repeat heavily.
"""

from __future__ import annotations

import hashlib

import pyarrow as pa

import ray.data


def rendezvous_bucket(key: str, n_buckets: int, *, salt: str = "") -> int:
    """HRW bucket of one key (pure; shared with tests/oracles)."""
    best_b = 0
    best_h = ""
    for b in range(n_buckets):
        h = hashlib.md5(f"{salt}{key}#{b}".encode()).hexdigest()
        if h > best_h:
            best_h, best_b = h, b
    return best_b


def rendezvous_assign(
    ds: ray.data.Dataset,
    key_col: str,
    n_buckets: int,
    *,
    out_col: str = "bucket",
    salt: str = "",
) -> ray.data.Dataset:
    """Adds ``out_col`` = HRW bucket of ``key_col`` (int64)."""

    def _assign(batch: pa.Table) -> pa.Table:
        keys = batch.column(key_col).to_pylist()
        # memoize within the batch: repeated keys hash once
        memo: dict[str, int] = {}
        buckets = []
        for k in keys:
            k = k or ""
            if k not in memo:
                memo[k] = rendezvous_bucket(k, n_buckets, salt=salt)
            buckets.append(memo[k])
        return batch.append_column(out_col, pa.array(buckets, type=pa.int64()))

    return ds.map_batches(_assign, batch_format="pyarrow")


def lpt_assign(weights: list[tuple[str, int]], n_workers: int) -> list[tuple[str, int, int]]:
    """Longest-processing-time greedy bin packing (pure kernel, shared
    with the sequential golden): keys sorted by (weight desc, key asc)
    each go to the least-loaded worker (tie → lowest id).  LPT's
    makespan is ≤ 4/3 · OPT — the classic answer to "40 hosts, 8
    workers, one host is 30% of the corpus; who gets what?"

    Returns (key, worker, weight) in input-key-sorted order."""
    import heapq

    loads = [(0, w) for w in range(n_workers)]
    heapq.heapify(loads)
    out = []
    for key, weight in sorted(weights, key=lambda kv: (-kv[1], kv[0])):
        load, worker = heapq.heappop(loads)
        out.append((key, worker, weight))
        heapq.heappush(loads, (load + int(weight), worker))
    return sorted(out)


LPT_KEY_BUDGET = 1_000_000


def plan_partitions(
    ds: ray.data.Dataset,
    *,
    key_col: str,
    weight_col: str,
    n_workers: int,
) -> ray.data.Dataset:
    """Load-aware partition planning: one keyed fold sums per-key int64
    weights (the only corpus-sized pass), then the BOUNDED key table
    (≤ ``LPT_KEY_BUDGET`` asserted — a plan bigger than that is not a
    plan) runs the LPT kernel and ships back as a Dataset of
    ``(key, worker, weight)`` placement rows.  The stateless
    complement is :func:`rendezvous_assign` (no weights, no driver
    table); use THIS one when the key histogram is skewed enough that
    stateless hashing leaves stragglers."""
    import pyarrow.compute as pc

    from dots_ocr_ray.util import bucket_keyed_fold

    folded = bucket_keyed_fold(ds, key_col, {"weight": ("sum", weight_col)}).materialize()
    n_keys = folded.count()
    assert n_keys <= LPT_KEY_BUDGET, "plan_partitions: key table exceeds plan budget"
    tables = [ray.get(r) for r in folded.to_arrow_refs()]
    tables = [t for t in tables if t.num_rows]
    if not tables:
        return ray.data.from_arrow(
            pa.table(
                {
                    key_col: pa.array([], pa.string()),
                    "worker": pa.array([], pa.int64()),
                    "weight": pa.array([], pa.int64()),
                }
            )
        )
    tbl = pa.concat_tables(tables)
    weights = list(
        zip(
            (str(k) for k in tbl.column(key_col).to_pylist()),
            (int(w) for w in pc.cast(tbl.column("weight"), pa.int64()).to_pylist()),
        )
    )
    placed = lpt_assign(weights, n_workers)
    return ray.data.from_arrow(
        pa.table(
            {
                key_col: pa.array([p[0] for p in placed], pa.string()),
                "worker": pa.array([p[1] for p in placed], pa.int64()),
                "weight": pa.array([p[2] for p in placed], pa.int64()),
            }
        )
    )
