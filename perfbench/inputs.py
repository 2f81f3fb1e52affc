"""Seeded benchmark inputs and their expected outputs.

Every input is a pure function of (kind, seed): the pages corpora come
from ``dots_ocr_ray.fixtures``, the fold-query tables from a numpy
generator below.  The expected outputs are computed once per corpus --
the single-process ``oracle.oracle_extract`` for pages, DuckDB over
``__ray_entry__.oracle_sql()`` for fold queries -- and cached with the
corpus, keyed by a digest of the sources that produce them, so a
changed kernel or generator never reads a stale oracle.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import time

import pyarrow as pa
import pyarrow.parquet as pq

# pages corpora: (shards, pages per shard, fixtures scale, mega-page shard)
PAGES = {
    # Common-Crawl-sized pages (~6 KB of html each) plus the ~2 MB page
    "cc": (16, 40, 12, True),
}
# the warm-up slice: enough one-task shards that the first wave of tasks
# reaches every worker (Ray leases one worker per concurrent task), so
# each one has imported the kernel before the first timed job, up to
# ``num_cpus`` = 8
WARMUP_SHARDS, WARMUP_ROWS = 8, 2

# the fold-query list: every one goes through a keyed fold
# (groupby("__bucket") or util.bucket_keyed_fold) and has a SQL oracle
# that reads only the generated tables; the value is the table it reads
FOLD_QUERIES = {
    "host_degrees": "documents",
    "host_assortativity": "documents",
    "fd_check_lineitem": "lineitem",
    "dedup_exact": "documents",
    "window_distinct_users": "events",
}


def source_digest(root: str) -> str:
    """Digest of the package and entry sources (the checkout has no git)."""
    h = hashlib.sha1()
    files = [os.path.join(root, "__ray_entry__.py")]
    for dirpath, dirnames, names in os.walk(os.path.join(root, "dots_ocr_ray")):
        dirnames.sort()
        files.extend(os.path.join(dirpath, n) for n in sorted(names) if n.endswith(".py"))
    files.append(os.path.abspath(__file__))
    for path in files:
        h.update(os.path.relpath(path, root).encode())
        with open(path, "rb") as f:
            h.update(f.read())
    return h.hexdigest()[:12]


def _cached(cache_root: str, key: str, build) -> str:
    """Directory ``cache_root/key``, built by ``build(tmp_dir)`` on a miss
    and published with one rename."""
    final = os.path.join(cache_root, key)
    if os.path.exists(os.path.join(final, "meta.json")):
        return final
    tmp = f"{final}.tmp-{os.getpid()}"
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(tmp)
    build(tmp)
    shutil.rmtree(final, ignore_errors=True)
    os.replace(tmp, final)
    return final


def pages_corpus(cache_root: str, kind: str, seed: int, digest: str) -> str:
    """``<dir>/shards/*.parquet``, ``<dir>/warmup/*.parquet`` and
    ``<dir>/oracle.parquet`` (url → expected texts) for one seed.

    ``meta.json`` also holds ``kernel_docs_per_s``: the oracle pass is a
    single-process ``extract_page`` loop over the corpus, the engine-free
    control."""
    n_shards, per_shard, scale, mega = PAGES[kind]

    def build(d: str) -> None:
        from dots_ocr_ray import fixtures
        from dots_ocr_ray.oracle import oracle_extract

        os.makedirs(f"{d}/shards")
        os.makedirs(f"{d}/warmup")
        tables = []
        for s in range(n_shards):
            t = fixtures.pages_batch(range(s * per_shard, (s + 1) * per_shard), seed=seed, scale=scale)
            pq.write_table(t, f"{d}/shards/shard-{s:05d}.parquet")
            tables.append(t)
        if mega:
            t = pa.Table.from_pylist([fixtures.make_mega_page(seed=seed)], schema=tables[0].schema)
            pq.write_table(t, f"{d}/shards/shard-{n_shards:05d}.parquet")
            tables.append(t)
        pages = pa.concat_tables(tables)
        # the warm-up slice: the corpus's first rows, in shards of their own
        for s in range(WARMUP_SHARDS):
            pq.write_table(pages.slice(s * WARMUP_ROWS, WARMUP_ROWS), f"{d}/warmup/shard-{s:05d}.parquet")
        t0 = time.perf_counter()
        expected = oracle_extract(pages)
        elapsed = time.perf_counter() - t0
        urls = list(expected)
        pq.write_table(
            pa.table(
                {
                    "url": urls,
                    "extracted_text": [expected[u]["extracted_text"] for u in urls],
                    "extracted_text_nohf": [expected[u]["extracted_text_nohf"] for u in urls],
                }
            ),
            f"{d}/oracle.parquet",
        )
        meta = {
            "rows": pages.num_rows,
            "units": len(tables),
            "rows_per_unit": [t.num_rows for t in tables],
            "kernel_docs_per_s": pages.num_rows / elapsed,
        }
        with open(f"{d}/meta.json", "w") as f:
            json.dump(meta, f)

    return _cached(cache_root, f"{kind}-s{seed}-{digest}", build)


def _fold_tables(seed: int, n_docs: int, n_events: int, n_lines: int) -> dict[str, pa.Table]:
    """documents / events / lineitem in the schemas of the sf test tables."""
    import numpy as np

    rng = np.random.default_rng(seed)
    words = np.array(
        "key agg row scan slow fast table value part hash join batch spark order "
        "data column merge line sort window query small big customer the a".split()
    )
    texts = [" ".join(rng.choice(words, size=int(rng.integers(6, 30)))) for _ in range(n_docs)]
    for i in range(n_docs):  # exact duplicates for dedup_exact
        if i and rng.random() < 0.1:
            texts[i] = texts[int(rng.integers(0, i))]
    documents = pa.table(
        {
            "doc_id": pa.array(np.arange(n_docs), pa.int64()),
            "text": texts,
            "lang": [("en", "de", "fr", "zh")[int(k)] for k in rng.integers(0, 4, n_docs)],
            "source": [f"src{int(k)}" for k in rng.integers(0, 5, n_docs)],
            "n_chars": pa.array([len(t) for t in texts], pa.int64()),
        }
    )
    start_us = 1_704_067_200_000_000  # 2024-01-01
    ts = np.sort(start_us + rng.integers(0, 30 * 86_400_000_000, n_events))
    events = pa.table(
        {
            "event_id": pa.array(np.arange(n_events), pa.int64()),
            "ts": pa.array(ts, pa.timestamp("us")),
            "user_id": pa.array(rng.integers(0, 200, n_events), pa.int64()),
            "event_type": [("click", "view", "error", "buy")[int(k)] for k in rng.integers(0, 4, n_events)],
            "value": pa.array(np.round(rng.random(n_events) * 20, 2), pa.float64()),
            "props": [f'{{"k": {int(k)}}}' for k in rng.integers(0, 100, n_events)],
        }
    )
    orderkey = rng.integers(0, n_lines // 4, n_lines)
    # mostly one supplier per order, so the FD audit finds some violations
    suppkey = np.where(rng.random(n_lines) < 0.9, orderkey % 100, rng.integers(0, 100, n_lines))
    lineitem = pa.table(
        {
            "l_orderkey": pa.array(orderkey, pa.int64()),
            "l_partkey": pa.array(rng.integers(0, 2000, n_lines), pa.int64()),
            "l_suppkey": pa.array(suppkey, pa.int64()),
            "l_linenumber": pa.array(rng.integers(1, 8, n_lines), pa.int32()),
            "l_quantity": pa.array(rng.integers(1, 51, n_lines).astype(float), pa.float64()),
            "l_extendedprice": pa.array(rng.integers(100, 100_000, n_lines).astype(float), pa.float64()),
            "l_discount": pa.array(rng.integers(0, 11, n_lines) / 100, pa.float64()),
            "l_tax": pa.array(rng.integers(0, 9, n_lines) / 100, pa.float64()),
            "l_returnflag": [("A", "N", "R")[int(k)] for k in rng.integers(0, 3, n_lines)],
            "l_linestatus": [("F", "O")[int(k)] for k in rng.integers(0, 2, n_lines)],
            "l_shipdate": pa.array(
                694_224_000_000_000 + rng.integers(0, 2500, n_lines) * 86_400_000_000, pa.timestamp("us")
            ),
        }
    )
    return {"documents": documents, "events": events, "lineitem": lineitem}


def canon_hash(df) -> str:
    """Order- and float-noise-insensitive digest of a query result,
    via ``tools/selfcheck.py``'s ``canon`` and ``value_hash``."""
    from selfcheck import canon, value_hash

    return value_hash(canon(df))


def fold_tables(cache_root: str, seed: int, digest: str) -> str:
    """``<dir>/tables`` (the sf-style tables) and ``<dir>/warmup``
    (smaller tables from the same generator), with ``meta.json`` holding
    each query's expected result digest and each table's row count."""

    def build(d: str) -> None:
        import duckdb

        import __ray_entry__ as entry

        for sub, sizes in (("tables", (2000, 10000, 20000)), ("warmup", (100, 500, 1000))):
            os.makedirs(f"{d}/{sub}")
            for name, t in _fold_tables(seed, *sizes).items():
                pq.write_table(t, f"{d}/{sub}/{name}.parquet")
        con = duckdb.connect()
        rows = {}
        for name in set(FOLD_QUERIES.values()):
            path = f"{d}/tables/{name}.parquet"
            con.execute(f"CREATE VIEW {name} AS SELECT * FROM '{path}'")
            rows[name] = pq.ParquetFile(path).metadata.num_rows
        sqls = entry.oracle_sql()
        expected = {q: canon_hash(con.execute(sqls[q]).df()) for q in FOLD_QUERIES}
        con.close()
        with open(f"{d}/meta.json", "w") as f:
            json.dump({"expected": expected, "table_rows": rows}, f)

    return _cached(cache_root, f"fold-s{seed}-{digest}", build)
