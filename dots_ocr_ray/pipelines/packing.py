"""Training-set assembly operators: deterministic global shuffle
positions, sequence packing, and leakage-aware grouped splitting.

These are the last-mile ops between a cleaned corpus and a training
run.  All three follow the engine's standard scale shapes: per-row
work stays inside vectorized ``map_batches``, the only exchanges are
key-bounded ``groupby`` ops, and anything the driver touches is
provably bounded (a 256-row bucket histogram, never the corpus).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

import ray
import ray.data

from dots_ocr_ray.kernel.textops import md5_hex
from dots_ocr_ray.util import bounded_blocks, cached_object, packed_items

_N_BUCKETS = 256


def global_shuffle_index(
    ds: ray.data.Dataset,
    *,
    id_col: str = "doc_id",
    salt: str | None = None,
) -> ray.data.Dataset:
    """Deterministic global shuffle with EXACT positions — the
    distributed zipWithIndex Ray Data lacks.

    The shuffle order is md5(id) (then id, though md5 ties cannot occur
    on distinct ids), so the permutation is reproducible across runs
    and cluster sizes — the property a resumable training job needs
    from its example order.  Three stages, none corpus-sized on the
    driver:

    1. key pass — md5 hex + top-byte bucket per row (256 buckets;
       bucket order == md5-string order prefix);
    2. bucket histogram — one tiny keyed fold → 256 counts on the
       driver → exclusive prefix offsets broadcast via ``ray.put``;
    3. positions — ONE bucket-keyed exchange: each bucket group sorts
       by (md5, id) locally and emits offset[bucket] + arange.

    Only (id, 32-byte hex, bucket) rows ever move — at 10^12 docs the
    exchange ships keys, not documents; join positions back by id.

    Output: (id_col, shuffle_pos) with shuffle_pos 1..N dense."""

    def _keys(batch: pa.Table) -> pa.Table:
        ids = batch.column(id_col).to_pylist()
        # salt varies the permutation per epoch (multi-epoch loader
        # schedules) without changing the unsalted legacy order
        if salt is None:
            hexes = [md5_hex(str(i)) for i in ids]
        else:
            hexes = [md5_hex(f"{i}:{salt}") for i in ids]
        buckets = np.array([int(h[:2], 16) for h in hexes], dtype=np.int64)
        return pa.table(
            {
                id_col: batch.column(id_col),
                "h": pa.array(hexes, type=pa.string()),
                "bucket": pa.array(buckets, type=pa.int64()),
            }
        )

    keys = bounded_blocks(ds.map_batches(_keys, batch_format="pyarrow"))

    from dots_ocr_ray.util import bucket_keyed_fold

    hist = bucket_keyed_fold(keys, "bucket", {"n": ("count", None)})
    counts = np.zeros(_N_BUCKETS, dtype=np.int64)
    for row in hist.take_all():  # ≤256 rows — bounded by construction
        counts[row["bucket"]] = row["n"]
    offsets = np.concatenate([[0], np.cumsum(counts)[:-1]])
    offsets_ref = ray.put(offsets)

    def _positions(group: pa.Table) -> pa.Table:
        offs = cached_object(offsets_ref)
        bucket = group.column("bucket")[0].as_py()
        order = group.select(["h", id_col]).to_pandas()
        idx = np.lexsort(
            (order[id_col].to_numpy(), order["h"].to_numpy(dtype=object))
        )
        pos = np.empty(len(idx), dtype=np.int64)
        pos[idx] = offs[bucket] + np.arange(1, len(idx) + 1)
        return pa.table(
            {
                id_col: group.column(id_col),
                "shuffle_pos": pa.array(pos, type=pa.int64()),
            }
        )

    return keys.groupby("bucket").map_groups(_positions, batch_format="pyarrow")


def pack_sequences(
    ds: ray.data.Dataset,
    *,
    key_col: str = "lang",
    order_col: str = "doc_id",
    token_col: str = "n_tokens",
    budget: int = 512,
) -> ray.data.Dataset:
    """Sequence packing: concatenate each key's documents (in
    ``order_col`` order) into one token stream and cut it at ``budget``
    boundaries — the concat-and-chunk packing step of LLM pretraining.

    Per key: running token sum → a document starting at stream offset
    s lands in pack ``s // budget`` at offset ``s % budget``.  One
    key-bounded exchange (``groupby(key).map_groups``), cumsum
    vectorized inside the group, no global sort.

    Output: (order_col, key_col, token_col, pack_id, pack_offset)."""

    def _pack(group: pd.DataFrame) -> pd.DataFrame:
        g = group.sort_values(order_col).reset_index(drop=True)
        start = g[token_col].cumsum() - g[token_col]
        g["pack_id"] = (start // budget).astype("int64")
        g["pack_offset"] = (start % budget).astype("int64")
        return g[[order_col, key_col, token_col, "pack_id", "pack_offset"]]

    return ds.groupby(key_col).map_groups(_pack, batch_format="pandas")


def rebalance_mixture(
    ds: ray.data.Dataset,
    *,
    key_col: str = "lang",
    id_col: str = "doc_id",
) -> ray.data.Dataset:
    """Deterministic data-mixture rebalancing to an equal-weight
    target: each key (language/source) gets total // n_keys example
    slots, filled by repeating or subsampling that key's documents.

    n_copies per doc = base ± 1 where base = target // n_key_docs and
    the first (target % n_key_docs) documents in md5(id) order take the
    extra copy — so up/down-sampling is reproducible across runs and
    cluster layouts (the same property as :func:`global_shuffle_index`,
    and the md5 order makes the subsample unbiased w.r.t. id order).

    Exchanges: one tiny per-key count aggregate (driver sees ≤ n_keys
    rows, broadcast back), one key-partitioned ``map_groups`` that
    ranks locally.  Emitting the physically repeated rows is a
    ``flat_map`` on n_copies the caller applies when materializing the
    mix; this op returns the plan (doc_id, key, n_copies), which is
    what a resumable job should checkpoint anyway.

    Output: (id_col, key_col, n_copies) — n_copies may be 0
    (downsampled out)."""
    from dots_ocr_ray.util import bucket_keyed_fold

    counts = {r[key_col]: r["n"] for r in bucket_keyed_fold(ds, key_col, {"n": ("count", None)}).take_all()}
    n_keys = len(counts)
    total = sum(counts.values())
    target = total // max(n_keys, 1)
    plan_ref = ray.put({k: (target // n, target % n) for k, n in counts.items()})

    def _assign(group: pa.Table) -> pa.Table:
        base_rem = cached_object(plan_ref)
        key = group.column(key_col)[0].as_py()
        base, rem = base_rem[key]
        ids = group.column(id_col).to_pylist()
        hexes = np.array([md5_hex(str(i)) for i in ids], dtype=object)
        idx = np.lexsort((np.array(ids), hexes))
        rank = np.empty(len(idx), dtype=np.int64)
        rank[idx] = np.arange(1, len(idx) + 1)
        n_copies = base + (rank <= rem)
        return pa.table(
            {
                id_col: group.column(id_col),
                key_col: group.column(key_col),
                "n_copies": pa.array(n_copies, type=pa.int64()),
            }
        )

    return ds.groupby(key_col).map_groups(_assign, batch_format="pyarrow")


def temperature_mixture(
    ds: ray.data.Dataset,
    *,
    key_col: str = "lang",
    id_col: str = "doc_id",
) -> ray.data.Dataset:
    """Square-root temperature data-mixture plan (the multilingual-LM
    sampling rule: key weight ∝ sqrt(key size), so head languages are
    downweighted and tail languages upweighted without equalizing).

    All arithmetic is INTEGER so the plan is bit-reproducible across
    engines and cluster layouts: s_k = isqrt(count_k) (== FLOOR(SQRT)
    in SQL for any count < 2^52 — IEEE sqrt is correctly rounded),
    target_k = total·s_k // Σs, and within a key n_copies = base ± 1
    assigned in md5(id) order exactly as :func:`rebalance_mixture`.

    Exchanges: one tiny per-key count aggregate (driver sees ≤ n_keys
    rows) + one key-partitioned ``map_groups`` that ranks locally.

    Output: (id_col, key_col, n_copies) — the checkpointable plan; the
    physical repeat/drop is a ``flat_map`` at materialization time."""
    import math

    from dots_ocr_ray.util import bucket_keyed_fold

    counts = {r[key_col]: r["n"] for r in bucket_keyed_fold(ds, key_col, {"n": ("count", None)}).take_all()}
    total = sum(counts.values())
    ssum = sum(math.isqrt(n) for n in counts.values())
    plan: dict[str, tuple[int, int]] = {}
    for k, n in counts.items():
        target = total * math.isqrt(n) // max(ssum, 1)
        plan[k] = (target // n, target % n)
    plan_ref = ray.put(plan)

    def _assign(group: pa.Table) -> pa.Table:
        base_rem = cached_object(plan_ref)
        key = group.column(key_col)[0].as_py()
        base, rem = base_rem[key]
        ids = group.column(id_col).to_pylist()
        hexes = np.array([md5_hex(str(i)) for i in ids], dtype=object)
        idx = np.lexsort((np.array(ids), hexes))
        rank = np.empty(len(idx), dtype=np.int64)
        rank[idx] = np.arange(1, len(idx) + 1)
        n_copies = base + (rank <= rem)
        return pa.table(
            {
                id_col: group.column(id_col),
                key_col: group.column(key_col),
                "n_copies": pa.array(n_copies, type=pa.int64()),
            }
        )

    return ds.groupby(key_col).map_groups(_assign, batch_format="pyarrow")


def grouped_split(
    ds: ray.data.Dataset,
    *,
    group_col: str = "source",
    val_hex_digits: str = "0123",
) -> ray.data.Dataset:
    """Leakage-aware train/val split: the split is a function of the
    GROUP key (domain/source), so every document of a group lands in
    the same side — near-duplicates within a domain can never straddle
    the train/val boundary and leak eval data into training.

    split = "val" iff the first hex digit of md5(group) is in
    ``val_hex_digits`` (default 4/16 = 25% of groups).  Pure streaming
    map — no exchange, no state."""
    val_set = frozenset(val_hex_digits)

    def _split(batch: pa.Table) -> pa.Table:
        groups = batch.column(group_col).to_pylist()
        split = [
            "val" if md5_hex(g or "")[0] in val_set else "train" for g in groups
        ]
        return batch.append_column("split", pa.array(split, type=pa.string()))

    return ds.map_batches(_split, batch_format="pyarrow")


def _row_bytes(batch: pa.Table) -> np.ndarray:
    """Per-row byte-size estimate: exact value bytes for string/binary
    columns (offset-buffer diffs via ``binary_length``), fixed width for
    primitives — the accounting a byte-balanced writer needs without
    serializing anything."""
    import pyarrow.compute as pc

    n = batch.num_rows
    total = np.zeros(n, dtype=np.int64)
    for col in batch.columns:
        t = col.type
        if pa.types.is_string(t) or pa.types.is_large_string(t):
            total += (
                pc.binary_length(pc.fill_null(col, "")).to_numpy(zero_copy_only=False)
                + 4
            )
        elif pa.types.is_binary(t) or pa.types.is_large_binary(t):
            total += (
                pc.binary_length(pc.fill_null(col, b"")).to_numpy(zero_copy_only=False)
                + 4
            )
        elif pa.types.is_list(t) or pa.types.is_large_list(t):
            counts = (
                pc.list_value_length(pc.fill_null(col, []))
                .cast(pa.int64())
                .to_numpy(zero_copy_only=False)
            )
            vt = t.value_type
            try:
                width = vt.bit_width // 8 or 8
            except ValueError:  # variable-width child (list<string>, ...)
                width = None
            if width is not None:
                total += counts * width + 4
            elif (
                pa.types.is_string(vt)
                or pa.types.is_large_string(vt)
                or pa.types.is_binary(vt)
                or pa.types.is_large_binary(vt)
            ):
                # exact child bytes per row: flatten once, sum the child
                # value lengths back to their parent rows
                arr = col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
                lens = pc.binary_length(pc.list_flatten(arr)).to_numpy(
                    zero_copy_only=False
                )
                parents = pc.list_parent_indices(arr).to_numpy(zero_copy_only=False)
                per_row = np.bincount(
                    parents, weights=np.nan_to_num(lens.astype(np.float64)), minlength=n
                )
                total += per_row.astype(np.int64) + counts * 4 + 4
            else:  # nested child without a fixed width: coarse estimate
                total += counts * 16 + 4
        else:
            try:
                total += max(t.bit_width // 8, 1)
            except ValueError:  # nested/variadic type without a fixed width
                total += 16
    return total


def write_bytes_balanced_shards(
    ds: ray.data.Dataset,
    out_dir: str,
    *,
    target_bytes: int = 256 << 20,
    id_col: str = "doc_id",
    n_buckets: int = 4096,
) -> list[dict]:
    """Write the corpus as byte-BALANCED parquet shards — one file +
    completion marker per shard, each holding ≈ ``target_bytes`` of raw
    row payload (resumable-output rule: never one giant file, never a
    long tail of tiny ones; ``repartition(n)`` balances ROWS, which
    mega-document skew defeats).

    Scale shape (the same bounded-histogram plan as
    :func:`global_shuffle_index`):

    1. rows hash into ``n_buckets`` deterministic id-keyed buckets and
       one keyed fold sums their bytes per bucket — the only
       full-corpus pass;
    2. the ≤``n_buckets``-row histogram lands on the driver, a prefix
       sum packs CONTIGUOUS buckets into shards of ≈ ``target_bytes``
       (bucket→shard is the broadcast plan: granularity is
       corpus/``n_buckets``, so size error per shard is one bucket);
    3. ONE shard-keyed exchange co-locates each shard's rows; the
       per-group reduce sorts by id (byte-stable output) and writes via
       :func:`~dots_ocr_ray.state.manifest.write_partition_atomic` —
       workers write, the driver only sees the manifest rows.

    Returns the manifest: one dict (shard, rows, est_bytes, path) per
    shard."""
    from dots_ocr_ray.util import GOLDEN64, _mix64, bucket_keyed_fold
    from dots_ocr_ray.state.manifest import partition_file, write_partition_atomic

    ds = ds.materialize()  # sized in pass 1, shuffled in pass 3

    def _bucket_of(batch: pa.Table) -> np.ndarray:
        ids = batch.column(id_col).to_numpy(zero_copy_only=False).astype(np.int64)
        return (_mix64(ids, GOLDEN64) % n_buckets).astype(np.int64)

    def _sizes(batch: pa.Table) -> pa.Table:
        return pa.table({"bucket": _bucket_of(batch), "b": _row_bytes(batch)})

    hist = bucket_keyed_fold(ds.map_batches(_sizes, batch_format="pyarrow"), "bucket", {"b": ("sum", "b")})
    bucket_bytes = np.zeros(n_buckets, dtype=np.int64)
    for row in hist.take_all():  # ≤ n_buckets rows — bounded
        bucket_bytes[row["bucket"]] = row["b"]
    # contiguous buckets pack into shards: shard id = how many full
    # target_bytes fit before the bucket's cumulative midpoint
    csum = np.cumsum(bucket_bytes)
    shard_of_bucket = ((csum - bucket_bytes // 2) // max(target_bytes, 1)).astype(
        np.int64
    )
    shard_ref = ray.put(shard_of_bucket)

    def _assign(batch: pa.Table) -> pa.Table:
        sh = cached_object(shard_ref)
        return batch.append_column(
            "__shard", pa.array(sh[_bucket_of(batch)], type=pa.int64())
        )

    def _write_one(group: pa.Table) -> pa.Table:
        shard = int(group.column("__shard")[0].as_py())
        table = group.drop_columns(["__shard"]).sort_by(id_col)
        est = int(_row_bytes(table).sum())
        write_partition_atomic(
            out_dir, shard, table, md5_hex(str(table.num_rows) + ":" + str(est))
        )
        return pa.table(
            {
                "shard": pa.array([shard], type=pa.int64()),
                "rows": pa.array([table.num_rows], type=pa.int64()),
                "est_bytes": pa.array([est], type=pa.int64()),
            }
        )

    manifest = (
        ds.map_batches(_assign, batch_format="pyarrow")
        .groupby("__shard")
        .map_groups(_write_one, batch_format="pyarrow")
        .take_all()
    )
    return [
        {**m, "path": partition_file(out_dir, m["shard"])}
        for m in sorted(manifest, key=lambda m: m["shard"])
    ]


def compact_parquet(
    in_dir: str,
    out_dir: str,
    *,
    target_bytes: int = 128 << 20,
    columns: list[str] | None = None,
) -> dict:
    """Small-file compaction: bin-pack a directory of parquet files
    into ~``target_bytes`` outputs and rewrite each group as ONE file
    — the maintenance op every long-running ingest needs (a 100-TB
    corpus written by thousands of streaming tasks decays into
    millions of KB-files whose open/footer overhead dominates reads;
    Iceberg/Delta ship the same op as `rewrite_data_files`).

    Plan: files list once through ``pyarrow.fs`` (so ``s3://…`` works,
    the state/manifest.py seam), greedy first-fit over the
    path-sorted list (deterministic plan); groups are packed by bytes
    into about two tasks per CPU slot
    (:func:`~dots_ocr_ray.util.packed_items`), and each group reads
    only ITS files and writes one
    ``compact-{i:05d}.parquet`` with a data-then-marker commit —
    re-running after a crash skips finished groups, the resume
    contract of the extract sink.  The driver holds the file LIST
    (O(files) names, never data).

    Returns ``{"n_input_files", "n_output_files", "bytes_in",
    "rows"}``."""
    from pyarrow.fs import FileSelector

    from dots_ocr_ray.state.manifest import resolve_fs

    fs, root = resolve_fs(in_dir)
    infos = [
        f
        for f in fs.get_file_info(FileSelector(root, recursive=True))
        if f.is_file and f.path.endswith(".parquet")
    ]
    infos.sort(key=lambda f: f.path)
    groups: list[list[str]] = []
    sizes: list[int] = []
    for f in infos:
        if groups and sizes[-1] + f.size <= target_bytes:
            groups[-1].append(f.path)
            sizes[-1] += f.size
        else:
            groups.append([f.path])
            sizes.append(f.size)
    out_fs, out_root = resolve_fs(out_dir)
    out_fs.create_dir(out_root, recursive=True)

    def _compact(batch: pa.Table) -> pa.Table:
        import pyarrow.parquet as pq

        from dots_ocr_ray.state.manifest import resolve_fs as _rfs

        ofs, oroot = _rfs(out_dir)
        ifs, _ = _rfs(in_dir)
        rows = []
        for gid, paths in zip(batch.column("gid").to_pylist(), batch.column("paths").to_pylist()):
            data_name = f"{oroot}/compact-{gid:05d}.parquet"
            marker = f"{oroot}/compact-{gid:05d}.done"
            if ofs.get_file_info(marker).type.name != "NotFound":
                rows.append(pq.read_metadata(data_name, filesystem=ofs).num_rows)
                continue
            tables = [pq.read_table(p, filesystem=ifs, columns=columns) for p in paths]
            merged = pa.concat_tables(tables, promote_options="default")
            pq.write_table(merged, data_name, filesystem=ofs, compression="zstd")
            with ofs.open_output_stream(marker) as mf:
                mf.write(b"ok")
            rows.append(merged.num_rows)
        return pa.table({"rows": pa.array(rows, pa.int64())})

    total_rows = 0
    if groups:
        plan = packed_items([{"gid": i, "paths": g} for i, g in enumerate(groups)], sizes)
        total_rows = int(plan.map_batches(_compact, batch_size=None, batch_format="pyarrow").sum("rows"))
    return {
        "n_input_files": len(infos),
        "n_output_files": len(groups),
        "bytes_in": int(sum(f.size for f in infos)),
        "rows": total_rows,
    }


def write_position_deletes(
    table_dir: str,
    *,
    id_col: str,
    delete_ids: np.ndarray,
    out_dir: str,
) -> dict:
    """Write Iceberg/Delta-style POSITIONAL delete files for a parquet
    snapshot: one (file_path, pos) row per deleted record, so deletes
    are a metadata-sized sidecar and the data files stay immutable
    (merge-on-read, no copy-on-write rewrite of 100-TB data).

    Plan: the file list comes once through ``pyarrow.fs`` (object-store
    ready), the files are packed by size into about two tasks per CPU
    slot (:func:`dots_ocr_ray.util.packed_items`), each file is read for
    its id column only (row order in a parquet file is the position
    order), membership is a
    vectorized ``searchsorted`` against the broadcast sorted delete-id
    array (deletes are the designed-small side; for a delete set past
    the broadcast budget, swap in ``dedup.anti_join_ids``, whose
    ``hash_join`` exchanges a side that large), and each task commits its
    delete file data-then-marker so a crashed run resumes by skipping
    finished files.  Returns ``{"n_files", "n_deletes"}``."""
    import json as _json

    from pyarrow.fs import FileSelector

    from dots_ocr_ray.state.manifest import resolve_fs

    fs, root = resolve_fs(table_dir)
    files = sorted(
        (f.path, f.size)
        for f in fs.get_file_info(FileSelector(root, recursive=True))
        if f.is_file and f.path.endswith(".parquet")
    )
    paths = [p for p, _ in files]
    out_fs, out_root = resolve_fs(out_dir)
    out_fs.create_dir(out_root, recursive=True)
    ids_sorted = np.sort(np.asarray(delete_ids, dtype=np.int64))
    # the per-file .done markers only make a rerun with the SAME
    # delete set resumable; a different set into the same sidecar dir
    # would silently return stale deletes — refuse it instead
    digest = md5_hex(ids_sorted.tobytes())[:16]
    digest_marker = f"{out_root}/_deleteset-{digest}"
    existing = [
        f.base_name
        for f in out_fs.get_file_info(FileSelector(out_root, recursive=False))
        if f.is_file and f.base_name.startswith("_deleteset-")
    ]
    if existing and existing != [f"_deleteset-{digest}"]:
        raise ValueError(
            f"{out_dir} already holds delete sidecars for a different "
            f"delete-id set ({existing[0]}); write to a fresh directory"
        )
    if not existing:
        with out_fs.open_output_stream(digest_marker) as f:
            f.write(b"ok")
    ids_ref = ray.put(ids_sorted)

    items = [{"fid": i, "path": p} for i, p in enumerate(paths)]

    def _one_file(batch: pa.Table) -> pa.Table:
        import pyarrow.parquet as pq

        from dots_ocr_ray.state.manifest import resolve_fs as _rfs

        ofs, oroot = _rfs(out_dir)
        dfs, _ = _rfs(table_dir)
        counts = []
        for row in batch.to_pylist():
            fid, path = int(row["fid"]), row["path"]
            data_name = f"{oroot}/delete-{fid:05d}.parquet"
            marker = f"{oroot}/delete-{fid:05d}.done"
            if ofs.get_file_info(marker).type.name != "NotFound":
                meta = pq.read_table(data_name, filesystem=ofs)
                counts.append(meta.num_rows)
                continue
            ids = (
                pq.read_table(path, columns=[id_col], filesystem=dfs)
                .column(id_col)
                .to_numpy(zero_copy_only=False)
                .astype(np.int64)
            )
            dels = cached_object(ids_ref)
            idx = np.searchsorted(dels, ids)
            idx_c = np.clip(idx, 0, max(len(dels) - 1, 0))
            hit = (dels[idx_c] == ids) if len(dels) else np.zeros(len(ids), bool)
            pos = np.nonzero(hit)[0].astype(np.int64)
            t = pa.table(
                {
                    "file_path": pa.array([path] * len(pos), pa.string()),
                    "pos": pa.array(pos, pa.int64()),
                }
            )
            with ofs.open_output_stream(data_name) as f:
                pq.write_table(t, f)
            with ofs.open_output_stream(marker) as f:
                f.write(b"ok")
            counts.append(len(pos))
        return pa.table({"n_deletes": pa.array(counts, pa.int64())})

    folded = (
        packed_items(items, [size for _, size in files])
        .map_batches(_one_file, batch_size=None, batch_format="pyarrow")
        .to_pandas()
    )
    return {"n_files": len(paths), "n_deletes": int(folded["n_deletes"].sum())}


def read_with_position_deletes(
    table_dir: str,
    deletes_dir: str,
    *,
    columns: list[str] | None = None,
) -> ray.data.Dataset:
    """Merge-on-read scan of a parquet snapshot with positional delete
    sidecars (:func:`write_position_deletes`): each data file is read
    with ONLY its own delete rows (predicate pushdown on ``file_path``
    against the KB-scale delete sidecars) and drops the deleted
    positions with a boolean mask — zero exchange, deletes never touch
    the driver.  Files are packed by size into about two tasks per CPU
    slot (:func:`dots_ocr_ray.util.packed_items`); each task opens the
    sidecar dataset once for all of its files."""
    from pyarrow.fs import FileSelector

    from dots_ocr_ray.state.manifest import resolve_fs

    fs, root = resolve_fs(table_dir)
    files = sorted(
        (f.path, f.size)
        for f in fs.get_file_info(FileSelector(root, recursive=True))
        if f.is_file and f.path.endswith(".parquet")
    )
    del_fs0, del_root0 = resolve_fs(deletes_dir)
    sidecars = sorted(
        f.path
        for f in del_fs0.get_file_info(FileSelector(del_root0, recursive=True))
        if f.is_file and f.path.endswith(".parquet")
    )
    items = [{"path": p} for p, _ in files]

    def _scan(batch: pa.Table) -> pa.Table:
        import pyarrow.dataset as pads
        import pyarrow.parquet as pq

        from dots_ocr_ray.state.manifest import resolve_fs as _rfs

        dfs, _ = _rfs(table_dir)
        del_fs, _ = _rfs(deletes_dir)
        del_ds = pads.dataset(sidecars, filesystem=del_fs)
        out: list[pa.Table] = []
        for path in batch.column("path").to_pylist():
            t = pq.read_table(path, columns=columns, filesystem=dfs)
            pos = (
                del_ds.to_table(filter=pads.field("file_path") == path)
                .column("pos")
                .to_numpy(zero_copy_only=False)
                .astype(np.int64)
            )
            keep = np.ones(t.num_rows, bool)
            keep[pos] = False
            out.append(t.filter(pa.array(keep)))
        return pa.concat_tables(out)

    return packed_items(items, [size for _, size in files]).map_batches(
        _scan, batch_size=None, batch_format="pyarrow"
    )


# --- deterministic MLM masking ---------------------------------------------

_WS_SPLIT_RE = None  # compiled lazily so import stays cheap


def mlm_mask_text(doc_id: int, text: str) -> tuple[str, int, int]:
    """BERT-style masked-LM example from one document: token i is
    replaced by ``[MASK]`` iff the first byte of md5(f"{doc_id}:{i}")
    is < 0x26 (38/256 ≈ 14.8% — the classic 15% rate, made exactly
    reproducible with no RNG).  Tokenization is the engine-standard
    whitespace regex split of the trimmed text (mirrors the oracle's
    string_split_regex).  Returns (masked_text, n_tokens, n_masked);
    empty/whitespace-only text → ("", 0, 0).  Pure kernel, shared by
    the Ray op and any sequential mirror."""
    global _WS_SPLIT_RE
    if _WS_SPLIT_RE is None:
        import re

        _WS_SPLIT_RE = re.compile(r"[ \t\n]+")
    stripped = text.strip()
    if not stripped:
        return "", 0, 0
    toks = _WS_SPLIT_RE.split(stripped)
    import hashlib

    prefix = f"{doc_id}:".encode()
    out = list(toks)
    n_masked = 0
    for i in range(len(toks)):
        if hashlib.md5(prefix + str(i).encode()).digest()[0] < 0x26:
            out[i] = "[MASK]"
            n_masked += 1
    return " ".join(out), len(toks), n_masked


def mlm_masked_docs(docs: ray.data.Dataset) -> ray.data.Dataset:
    """Deterministic masked-LM training examples over the corpus:
    (doc_id, masked_text, n_tokens, n_masked).  Zero exchange — the
    per-token md5 is the op's inherent compute (one digest per token,
    position-keyed so any subset of the corpus reproduces identical
    masks, which is what makes resharding/resume safe)."""

    def _apply(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_pylist()
        texts = batch.column("text").to_pylist()
        masked, n_tok, n_m = [], [], []
        for d, t in zip(ids, texts):
            m, nt, nm = mlm_mask_text(int(d), t or "")
            masked.append(m)
            n_tok.append(nt)
            n_m.append(nm)
        return pa.table(
            {
                "doc_id": pa.array(ids, type=pa.int64()),
                "masked_text": pa.array(masked, type=pa.string()),
                "n_tokens": pa.array(n_tok, type=pa.int64()),
                "n_masked": pa.array(n_m, type=pa.int64()),
            }
        )

    return docs.map_batches(_apply, batch_format="pyarrow")


def span_corrupt_text(
    doc_id: int, text: str, *, stride: int = 4, span_len: int = 3
) -> tuple[str, str, int]:
    """T5-style span corruption with NO RNG: a span of ``span_len``
    tokens starts at token position i iff ``i % stride == 0`` and
    md5(f"{doc_id}|{i}")[0] < 0x66 (≈40% of aligned slots ⇒ ~30% of
    tokens masked at stride 4 × span 3).  Aligned starts can never
    overlap when ``span_len <= stride``, so the greedy sequential rule
    collapses to a position-local one — which is what makes the SQL
    oracle expressible and any corpus subset reproducible.

    Returns (corrupted, targets, n_spans) in the T5 convention:
    corrupted = text with each span replaced by ``<extra_id_K>``,
    targets = sentinel-delimited span contents + closing sentinel.
    Empty/whitespace-only text → ("", "", 0)."""
    global _WS_SPLIT_RE
    if _WS_SPLIT_RE is None:
        import re

        _WS_SPLIT_RE = re.compile(r"[ \t\n]+")
    if span_len > stride:
        raise ValueError("span_len > stride would re-introduce overlap")
    stripped = text.strip()
    if not stripped:
        return "", "", 0
    toks = _WS_SPLIT_RE.split(stripped)
    import hashlib

    out: list[str] = []
    targets: list[str] = []
    k = 0
    i = 0
    n = len(toks)
    while i < n:
        fires = (
            i % stride == 0
            and hashlib.md5(f"{doc_id}|{i}".encode()).digest()[0] < 0x66
        )
        if fires:
            out.append(f"<extra_id_{k}>")
            targets.append(f"<extra_id_{k}>")
            targets.extend(toks[i : i + span_len])
            k += 1
            i += span_len
        else:
            out.append(toks[i])
            i += 1
    targets.append(f"<extra_id_{k}>")
    return " ".join(out), " ".join(targets), k


def span_corrupted_docs(docs: ray.data.Dataset) -> ray.data.Dataset:
    """Deterministic T5 span-corruption examples over the corpus:
    (doc_id, corrupted, targets, n_spans).  Zero exchange; one md5 per
    aligned slot is the op's inherent compute."""

    def _apply(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_pylist()
        texts = batch.column("text").to_pylist()
        cs, ts, ks = [], [], []
        for d, t in zip(ids, texts):
            c, tg, k = span_corrupt_text(int(d), t or "")
            cs.append(c)
            ts.append(tg)
            ks.append(k)
        return pa.table(
            {
                "doc_id": pa.array(ids, type=pa.int64()),
                "corrupted": pa.array(cs, type=pa.string()),
                "targets": pa.array(ts, type=pa.string()),
                "n_spans": pa.array(ks, type=pa.int64()),
            }
        )

    return docs.map_batches(_apply, batch_format="pyarrow")
