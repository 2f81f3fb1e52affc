"""Mini-driver: run every queries() entry AND its oracle_sql() side by
side at sf0.01 and report rows/schema/value-hash matches — a local
stand-in for the driver's CORRECTNESS gate.

    python tools/selfcheck.py [sf_dir] [query_name ...]
    python tools/selfcheck.py [sf_dir] --rotate R [K]

With query names, only those queries run (fast targeted re-check after
touching one pipeline); with none, the full sweep runs.  ``--rotate R
[K]`` runs the R-th deterministic slice of K queries (seed-42 shuffled
stable order) — run rounds R=0,1,2,… to give every query a verified
row within ceil(N/K) rounds without paying the full sweep each time.
"""

from __future__ import annotations

import hashlib
import os
import sys
import time

import duckdb
import pandas as pd

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from dots_ocr_ray.util import make_quiet_hook as _make_quiet
from dots_ocr_ray.util import quiet_ray_data_schema_warnings as _quiet

TABLES = [
    "region", "nation", "customer", "supplier", "part", "orders",
    "lineitem", "events", "documents", "embeddings",
]


def canon(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)].copy()
    for c in df.columns:
        if df[c].dtype.kind == "f":
            df[c] = df[c].round(2)
    return df.sort_values(list(df.columns)).reset_index(drop=True)


def value_hash(df: pd.DataFrame) -> str:
    return hashlib.md5(df.to_csv(index=False).encode()).hexdigest()


def main() -> None:
    sf_dir = sys.argv[1] if len(sys.argv) > 1 else "/root/testdata/sf0.01"
    import ray

    if not ray.is_initialized():
        _quiet()
        # the host's own CPU count: more worker slots than cores only
        # adds contention noise to the per-query times
        ray.init(address="local", num_cpus=os.cpu_count(), include_dashboard=False, logging_level="ERROR", runtime_env={"worker_process_setup_hook": _make_quiet()})
    n_cpus = int(ray.cluster_resources().get("CPU", 0))
    import logging

    logging.getLogger("ray.data").setLevel(logging.ERROR)
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False
    import ray.data

    import __ray_entry__ as entry

    con = duckdb.connect()
    for t in TABLES:
        con.execute(f"CREATE VIEW {t} AS SELECT * FROM '{sf_dir}/{t}.parquet'")

    qs, sqls = entry.queries(), entry.oracle_sql()
    args = sys.argv[2:]
    if args and args[0] == "--rotate":
        # rotating driver-style sample: --rotate R [K] picks the R-th
        # deterministic slice of K queries from a seed-42-shuffled
        # stable order, so consecutive rounds R=0,1,2,… cover every
        # query within ceil(N/K) rounds (the CORRECTNESS-sample
        # rotation VERDICT r3 asked the harness to provide)
        import random

        r = int(args[1])
        k = int(args[2]) if len(args) > 2 else 60
        names = sorted(qs)
        random.Random(42).shuffle(names)
        n_slices = max(1, -(-len(names) // k))
        picked = names[(r % n_slices) * k : (r % n_slices) * k + k]
        print(f"rotation slice {r % n_slices}/{n_slices} ({len(picked)} queries)")
        qs = {k_: v for k_, v in qs.items() if k_ in set(picked)}
    else:
        only = set(args)
        if only:
            unknown = only - set(qs)
            if unknown:
                print(f"unknown queries: {sorted(unknown)}")
            qs = {k: v for k, v in qs.items() if k in only}
    n_pass = n_fail = n_no_oracle = 0
    sweep_s = 0.0
    for name, fn in qs.items():
        # engine wall time: the query call plus materializing its result
        t0 = time.perf_counter()
        try:
            out = fn(sf_dir)
            eng = out.to_pandas() if hasattr(out, "to_pandas") else out
        except Exception as exc:  # noqa: BLE001
            print(f"{name}: ENGINE ERROR {exc}")
            n_fail += 1
            continue
        finally:
            secs = time.perf_counter() - t0
            sweep_s += secs
        if name not in sqls:
            print(f"{name}: no_oracle rows={len(eng)} ({secs:.2f} s)")
            n_no_oracle += 1
            continue
        try:
            ora = con.execute(sqls[name]).df()
        except Exception as exc:  # noqa: BLE001
            print(f"{name}: ORACLE ERROR {exc}")
            n_fail += 1
            continue
        e, o = canon(eng), canon(ora)
        rows = len(e) == len(o)
        schema = list(e.columns) == list(o.columns)
        hmatch = rows and schema and value_hash(e) == value_hash(o)
        ok = rows and schema and hmatch
        n_pass += ok
        n_fail += not ok
        if not ok:
            print(f"{name}: FAIL rows={rows}({len(e)}/{len(o)}) schema={schema} hash={hmatch} ({secs:.2f} s)")
            if schema and rows:
                neq = (e != o) & ~(e.isna() & o.isna())
                bad = neq.any(axis=1)
                print(e[bad].head(3))
                print(o[bad].head(3))
            elif not schema:
                print("  engine:", list(e.columns))
                print("  oracle:", list(o.columns))
        else:
            print(f"{name}: ok ({len(e)} rows, {secs:.2f} s)")
    print(f"\nPASS {n_pass}  FAIL {n_fail}  NO_ORACLE {n_no_oracle}")
    print(f"engine time {sweep_s:.1f} s over {len(qs)} queries on {n_cpus} CPUs")
    ray.shutdown()


if __name__ == "__main__":
    main()
