"""Resilient JSONL source: stream newline-delimited JSON shards into
an Arrow Dataset, SKIPPING malformed lines instead of failing the
shard — crawl dumps and API exports routinely contain truncated tails,
interleaved log lines, and encoding damage, and a 100-TB ingest cannot
abort on row 10^9 (reference analog: the universal input
normalization, S4, dots_ocr/utils/image_utils.py:23-43 accepts every
input form rather than raising).

Shape: files packed by size into about two streaming tasks per CPU
slot, each reading its files in turn (``ray.data.read_binary_files`` is
deliberately avoided — it materializes whole files as single rows; we
map over FILE PATHS and read through ``pyarrow.fs`` incrementally, the
same seam as sources/warc.py), with per-batch vectorized JSON parse.
Every output batch carries the source file and the running skip count
so damage is observable per shard, not silently absorbed
(``_skipped`` column; the WARC source's resync counters follow the
same rule).

Columns are projected to ``columns`` with type coercion to the given
schema; rows missing a field get nulls (JSON is schemaless — a strict
reader would reject half of every real-world dump)."""

from __future__ import annotations

import json

import pyarrow as pa

import ray.data


def _parse_lines(
    raw: bytes, columns: list[str], types: dict[str, pa.DataType]
) -> tuple[dict[str, list], int]:
    """(column lists, skipped count) for one chunk of complete lines."""
    cols: dict[str, list] = {c: [] for c in columns}
    skipped = 0
    for line in raw.split(b"\n"):
        line = line.strip()
        if not line:
            continue
        try:
            obj = json.loads(line)
            if not isinstance(obj, dict):
                raise ValueError("not an object")
        except (ValueError, UnicodeDecodeError):
            skipped += 1
            continue
        for c in columns:
            cols[c].append(obj.get(c))
    return cols, skipped


def read_jsonl(
    paths: list[str] | str,
    *,
    schema: pa.Schema,
    chunk_bytes: int = 8 << 20,
) -> ray.data.Dataset:
    """JSONL file(s) → Dataset with ``schema``'s columns plus
    ``_source`` (file path) and ``_skipped`` (malformed lines dropped
    so far in that file — the final batch of a file always carries
    the exact file total, including malformed lines after the last
    valid row, so ``max(_skipped) GROUP BY _source`` is the true
    damage count).  Files are packed by size into streaming tasks
    (:func:`dots_ocr_ray.util.packed_items`); ~``chunk_bytes`` per
    output block so a mega-shard never materializes whole."""
    if isinstance(paths, str):
        paths = [paths]
    columns = list(schema.names)
    types = {n: t for n, t in zip(schema.names, schema.types)}
    out_schema = pa.schema(
        list(zip(schema.names, schema.types))
        + [("_source", pa.string()), ("_skipped", pa.int64())]
    )

    def _read_file(row: dict):
        from dots_ocr_ray.state.manifest import resolve_fs

        path = row["path"]
        fs, local = resolve_fs(path)
        skipped_total = 0
        buf = b""
        # compression=None: pyarrow auto-gunzips `.gz` by extension
        # otherwise; stdlib gzip must own the decode (incremental,
        # multi-member tolerant — the WARC source's seam)
        raw = fs.open_input_stream(local, compression=None)
        if local.endswith(".gz"):
            import gzip

            f_ctx = gzip.GzipFile(fileobj=raw)
        else:
            f_ctx = raw
        def _emit(cols: dict, n: int, skip_count: int) -> pa.Table:
            arrays = [pa.array(cols[c], type=types[c]) for c in columns] + [
                pa.array([path] * n, type=pa.string()),
                pa.array([skip_count] * n, type=pa.int64()),
            ]
            return pa.table(dict(zip(out_schema.names, arrays)), schema=out_schema)

        # the last parsed block is held back and stamped at EOF so the
        # file's FINAL block always carries the exact per-file skip
        # total (malformed lines after the last valid row included)
        pending: tuple[dict, int, int] | None = None
        try:
            with f_ctx as f:
                while True:
                    chunk = f.read(chunk_bytes)
                    at_eof = not chunk
                    buf += chunk
                    if at_eof:
                        complete, buf = buf, b""
                    else:
                        # hold back the trailing partial line
                        nl = buf.rfind(b"\n")
                        if nl < 0:
                            continue
                        complete, buf = buf[: nl + 1], buf[nl + 1 :]
                    cols, skipped = _parse_lines(complete, columns, types)
                    skipped_total += skipped
                    n = len(cols[columns[0]]) if columns else 0
                    if n:
                        if pending is not None:
                            yield _emit(*pending)
                        pending = (cols, n, skipped_total)
                    if at_eof:
                        break
            if pending is not None:
                cols, n, _ = pending
                yield _emit(cols, n, skipped_total)
        finally:
            raw.close()  # GzipFile.close() leaves the fileobj open

    def _read_batch(batch: pa.Table):
        for row in batch.to_pylist():
            yield from _read_file(row)

    from dots_ocr_ray.util import file_sizes, packed_items

    work = packed_items([{"path": p} for p in paths], file_sizes(paths))
    return work.map_batches(_read_batch, batch_size=None, batch_format="pyarrow")


def write_jsonl(
    ds: ray.data.Dataset,
    out_dir: str,
    *,
    compress: bool = True,
    prefix: str = "part",
) -> list[str]:
    """Dataset → newline-delimited JSON shards (optionally gzip) —
    the export format most training loaders consume.  One file per
    block, written streaming through ``pyarrow.fs`` (object-store URIs
    work, same seam as the readers); file names are content-addressed
    by the block's md5 so re-running a finished export is byte-stable
    and idempotent.  Returns a manifest of ``{"path", "rows"}`` dicts
    sorted by path.

    The per-block map is a bounded streaming pass: each task holds one
    block's JSON bytes, never the dataset.  (A 100-TB export is
    therefore as parallel as its block count — ``repartition`` first
    if blocks are too coarse.)"""
    import gzip
    import posixpath

    from dots_ocr_ray.kernel.textops import md5_hex
    from dots_ocr_ray.state.manifest import resolve_fs

    fs, root = resolve_fs(out_dir)
    fs.create_dir(root, recursive=True)
    suffix = ".jsonl.gz" if compress else ".jsonl"

    def _write_block(batch: pa.Table) -> pa.Table:
        rows = batch.to_pylist()
        if not rows:  # no empty shard files, no "" payload collisions
            return pa.table(
                {
                    "path": pa.array([], type=pa.string()),
                    "rows": pa.array([], type=pa.int64()),
                }
            )
        payload = "\n".join(
            json.dumps(r, ensure_ascii=False, sort_keys=True, default=str)
            for r in rows
        )
        data = (payload + "\n").encode("utf-8")
        if compress:
            data = gzip.compress(data, mtime=0)  # mtime=0: byte-stable
        name = f"{prefix}-{md5_hex(payload)[:16]}{suffix}"
        path = posixpath.join(root, name)
        # compression=None: pyarrow would otherwise auto-gzip the `.gz`
        # extension ON TOP of our deterministic mtime=0 member
        with fs.open_output_stream(path, compression=None) as f:
            f.write(data)
        return pa.table({"path": pa.array([path]), "rows": pa.array([len(rows)], type=pa.int64())})

    manifest = ds.map_batches(
        _write_block, batch_format="pyarrow", batch_size=None
    ).take_all()
    # Two DISTINCT blocks with byte-identical content (legit in a
    # dup-heavy corpus) content-address to the SAME file: without a
    # fix-up one copy of the rows silently vanishes while the manifest
    # double-counts.  The colliding blocks are byte-identical by
    # construction, so materializing the extra copies under
    # deterministic `-dupN` names restores row fidelity AND keeps the
    # re-run byte-stable (same data → same collisions → same names).
    by_path: dict[str, int] = {}
    fixed = []
    for m in manifest:
        k = by_path.get(m["path"], 0)
        by_path[m["path"]] = k + 1
        if k == 0:
            fixed.append(m)
            continue
        stem, sfx = m["path"], ""
        if stem.endswith(suffix):
            stem, sfx = stem[: -len(suffix)], suffix
        dup_path = f"{stem}-dup{k}{sfx}"
        with fs.open_input_stream(m["path"], compression=None) as src:
            data = src.read()
        with fs.open_output_stream(dup_path, compression=None) as dst:
            dst.write(data)
        fixed.append({"path": dup_path, "rows": m["rows"]})
    return sorted(fixed, key=lambda r: r["path"])
