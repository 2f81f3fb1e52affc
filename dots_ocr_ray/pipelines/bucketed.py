"""Co-partitioned bucketed storage: write a table hash-bucketed by a
join key ONCE, then join it against any other table bucketed the same
way with ZERO exchange — the bucketed-table pattern every warehouse
uses to amortize shuffles across repeated joins (Hive/Iceberg bucket
transform; Spark bucketBy).

At 100 TB this is the difference between paying the all-to-all
exchange on EVERY join and paying it once at ingest: a fact table
bucketed by ``custkey`` joins against every similarly bucketed
dimension/fact bucket by bucket, each bucket reading exactly its two
co-located file sets — no block ever moves between workers.

Layout: ``out_dir/__bucket=<i>/…parquet`` (hive-partitioned via Ray's
``write_parquet(partition_cols)``) plus ``out_dir/_buckets.json``
recording the bucket count, key and hash so a join can verify both
sides are genuinely co-partitioned (a mismatch silently produces
garbage in systems that skip the check).  Paths resolve through
``pyarrow.fs`` (same seam as state/manifest.py), so ``s3://…`` layouts
work unchanged.

The bucket hash is :func:`~dots_ocr_ray.util._stable_key_hash` — the
SAME function the on-line :func:`~dots_ocr_ray.util.bucket_exchange`
(and so ``hash_join``) buckets one key column with, so a bucketed
write is exactly "the hash_join exchange, persisted".
"""

from __future__ import annotations

import json
import posixpath

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

import ray
import ray.data

from dots_ocr_ray.state.manifest import resolve_fs

MANIFEST_NAME = "_buckets.json"


def _bucket_of(col: pa.ChunkedArray | pa.Array, num_buckets: int) -> np.ndarray:
    from dots_ocr_ray.util import _stable_key_hash

    return (_stable_key_hash(col) % np.uint64(num_buckets)).astype(np.int32)


def write_bucketed(
    ds: ray.data.Dataset,
    out_dir: str,
    *,
    key: str,
    num_buckets: int = 64,
) -> None:
    """Write ``ds`` hash-bucketed by ``key`` under ``out_dir`` (one
    hive partition directory per bucket) and record the bucketing
    manifest.  One keyed append per batch (stateless, streaming); the
    write itself is Ray's partitioned parquet sink."""

    def _tag(batch: pa.Table) -> pa.Table:
        return batch.append_column(
            "__bucket",
            pa.array(_bucket_of(batch.column(key), num_buckets), type=pa.int32()),
        )

    ds.map_batches(_tag, batch_format="pyarrow").write_parquet(
        out_dir, partition_cols=["__bucket"]
    )
    fs, root = resolve_fs(out_dir)
    manifest = {"key": key, "num_buckets": num_buckets, "hash": "stable_key_hash"}
    with fs.open_output_stream(posixpath.join(root, MANIFEST_NAME)) as f:
        f.write(json.dumps(manifest).encode())


def _read_manifest(path: str) -> dict:
    fs, root = resolve_fs(path)
    with fs.open_input_stream(posixpath.join(root, MANIFEST_NAME)) as f:
        return json.loads(f.read().decode())


def _bucket_files(path: str, num_buckets: int) -> dict[int, list]:
    """Each bucket's parquet ``FileInfo`` entries (path and byte size),
    sorted by path."""
    from pyarrow.fs import FileSelector

    fs, root = resolve_fs(path)
    out: dict[int, list] = {i: [] for i in range(num_buckets)}
    for i in range(num_buckets):
        sub = posixpath.join(root, f"__bucket={i}")
        try:
            infos = fs.get_file_info(FileSelector(sub, recursive=True))
        except (FileNotFoundError, OSError):
            continue
        out[i] = sorted(
            (f for f in infos if f.is_file and f.path.endswith(".parquet")), key=lambda f: f.path
        )
    return out


def bucketed_join(
    left_dir: str,
    right_dir: str,
    *,
    on: str,
    how: str = "inner",
    suffix: str = "_r",
) -> ray.data.Dataset:
    """Join two bucketed layouts with ZERO exchange: buckets are packed
    by their files' byte size into about two tasks per CPU slot
    (:func:`~dots_ocr_ray.util.packed_items`); each bucket reads its
    two co-located file lists directly through ``pyarrow`` and merges
    locally (same pandas-merge semantics as ``relational.hash_join``'s
    per-bucket reduce).

    Raises if the two manifests disagree on bucket count or hash —
    co-partitioning is a CONTRACT, not a hope."""
    ml, mr = _read_manifest(left_dir), _read_manifest(right_dir)
    if (ml["num_buckets"], ml["hash"]) != (mr["num_buckets"], mr["hash"]):
        raise ValueError(
            f"bucket layouts are not co-partitioned: {ml} vs {mr}"
        )
    if how not in ("inner", "left"):
        raise ValueError(f"unsupported how={how!r}")
    num_buckets = ml["num_buckets"]
    lf = _bucket_files(left_dir, num_buckets)
    rf = _bucket_files(right_dir, num_buckets)
    todo = [i for i in range(num_buckets) if lf[i]]
    specs = [{"left": [f.path for f in lf[i]], "right": [f.path for f in rf[i]]} for i in todo]

    # right-side schema read ONCE on the driver (from any non-empty
    # bucket): buckets whose right file list is empty still emit the
    # full joined schema on a left join, instead of per-bucket schema
    # drift (missing right columns) that poisons the downstream union
    rfs_drv, _ = resolve_fs(right_dir)
    sample_right = next(
        (rf[i][0].path for i in range(num_buckets) if rf[i]), None
    )
    right_schema = (
        pq.read_schema(sample_right, filesystem=rfs_drv)
        if sample_right is not None
        else None
    )

    def _join_bucket(batch: pa.Table):
        import pandas as pd

        lfs, _ = resolve_fs(left_dir)
        rfs, _ = resolve_fs(right_dir)
        for row in batch.to_pylist():
            lpaths, rpaths = row["left"], row["right"]
            # Arrow-backed dtypes (the hash_join rule): a left join's
            # unmatched rows pad the right side with nulls, and plain
            # to_pandas would upcast its int64 ids/hashes to float64 —
            # lossy above 2^53 and schema-inconsistent across buckets
            lt = pa.concat_tables(
                [pq.read_table(p, filesystem=lfs) for p in lpaths]
            ).to_pandas(types_mapper=pd.ArrowDtype)
            if rpaths:
                rt = pa.concat_tables(
                    [pq.read_table(p, filesystem=rfs) for p in rpaths]
                ).to_pandas(types_mapper=pd.ArrowDtype)
            elif right_schema is not None:
                # typed EMPTY right: the merge below then emits the
                # same joined schema as every other bucket
                rt = right_schema.empty_table().to_pandas(
                    types_mapper=pd.ArrowDtype
                )
            else:
                rt = None
            if how == "inner" and (rt is None or not len(rt)):
                continue
            if rt is None:  # left join, right layout entirely empty:
                merged = lt.copy()  # no right columns exist anywhere
            else:
                merged = lt.merge(
                    rt, on=on, how=how, suffixes=("", suffix), sort=False
                )
            merged = merged.drop(
                columns=[c for c in merged.columns if c.startswith("__bucket")]
            )
            if len(merged):
                yield pa.Table.from_pandas(
                    merged, preserve_index=False
                ).replace_schema_metadata(None)

    from dots_ocr_ray.util import packed_items

    weights = [sum(f.size for f in lf[i] + rf[i]) for i in todo]
    paths = pa.list_(pa.string())
    return packed_items(specs, weights, schema=pa.schema([("left", paths), ("right", paths)])).map_batches(
        _join_bucket, batch_size=None, batch_format="pyarrow"
    )
