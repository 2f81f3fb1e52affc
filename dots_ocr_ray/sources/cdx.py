"""CDXJ crawl-index source: stream Common-Crawl-style index lines
(``<surt urlkey> <14-digit timestamp> <json>``) into an Arrow Dataset,
SKIPPING malformed lines with a per-file damage counter — the same
resilience contract as sources/jsonl.py and the WARC resync path (a
100-TB index scan cannot abort on one truncated line).

The CDX(J) layout is the standard pointer table next to WARC shards:
a phrase like "which captures of host X returned 200 after T" is an
index scan here, never a WARC decompress.  Output columns:
``(urlkey, ts, url, status, digest, length, _source, _skipped)``;
``_skipped`` is the malformed-line count so far in that file, and the
file's final block always carries the exact per-file total (so
``max(_skipped) GROUP BY _source`` is the true damage count; a file
with zero valid rows yields no rows and reports no count);
``ts`` parses the 14-digit YYYYMMDDHHMMSS stamp to int64 (kept raw —
calendar ops live downstream), ``status``/``length`` coerce to int64
with nulls for absent fields.

Shape: files packed by size into about two streaming tasks per CPU
slot (:func:`dots_ocr_ray.util.packed_items`), read through
``pyarrow.fs`` (s3://…
works like file://…), incremental gzip for ``.gz`` shards,
~``chunk_bytes`` per output block.
"""

from __future__ import annotations

import json

import pyarrow as pa

import ray.data

_COLUMNS = ["urlkey", "ts", "url", "status", "digest", "length"]


def parse_cdx_lines(raw: bytes) -> tuple[dict[str, list], int]:
    """(column lists, skipped count) for one chunk of complete lines.
    Pure kernel (shared with tests/oracles)."""
    cols: dict[str, list] = {c: [] for c in _COLUMNS}
    skipped = 0
    for line in raw.split(b"\n"):
        line = line.strip()
        if not line:
            continue
        try:
            head = line.split(b" ", 2)
            if len(head) != 3:
                raise ValueError("short line")
            urlkey = head[0].decode("utf-8")
            ts_raw = head[1].decode("ascii")
            if len(ts_raw) != 14 or not ts_raw.isdigit():
                raise ValueError("bad timestamp")
            obj = json.loads(head[2])
            if not isinstance(obj, dict):
                raise ValueError("not an object")
        except (ValueError, UnicodeDecodeError):
            skipped += 1
            continue
        cols["urlkey"].append(urlkey)
        cols["ts"].append(int(ts_raw))
        cols["url"].append(obj.get("url"))
        status = obj.get("status")
        try:
            cols["status"].append(int(status) if status is not None else None)
        except (TypeError, ValueError):
            cols["status"].append(None)
        cols["digest"].append(obj.get("digest"))
        length = obj.get("length")
        try:
            cols["length"].append(int(length) if length is not None else None)
        except (TypeError, ValueError):
            cols["length"].append(None)
    return cols, skipped


def read_cdx(
    paths: list[str] | str,
    *,
    chunk_bytes: int = 8 << 20,
) -> ray.data.Dataset:
    """CDXJ file(s) → Dataset; see module docstring for the schema
    and resilience contract."""
    if isinstance(paths, str):
        paths = [paths]
    types = {
        "urlkey": pa.string(),
        "ts": pa.int64(),
        "url": pa.string(),
        "status": pa.int64(),
        "digest": pa.string(),
        "length": pa.int64(),
    }
    out_schema = pa.schema(
        [(c, types[c]) for c in _COLUMNS]
        + [("_source", pa.string()), ("_skipped", pa.int64())]
    )

    def _read_file(row: dict):
        from dots_ocr_ray.state.manifest import resolve_fs

        path = row["path"]
        fs, local = resolve_fs(path)
        skipped_total = 0
        buf = b""
        raw = fs.open_input_stream(local, compression=None)
        if local.endswith(".gz"):
            import gzip

            f_ctx = gzip.GzipFile(fileobj=raw)
        else:
            f_ctx = raw

        def _emit(cols: dict, n: int, skip_count: int) -> pa.Table:
            arrays = [pa.array(cols[c], type=types[c]) for c in _COLUMNS] + [
                pa.array([path] * n, type=pa.string()),
                pa.array([skip_count] * n, type=pa.int64()),
            ]
            return pa.table(dict(zip(out_schema.names, arrays)), schema=out_schema)

        # the last parsed block is held back and stamped at EOF so the
        # file's FINAL block always carries the exact per-file skip
        # total (malformed lines after the last valid row included);
        # earlier blocks carry the running skipped-so-far count
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
                        nl = buf.rfind(b"\n")
                        if nl < 0:
                            continue
                        complete, buf = buf[: nl + 1], buf[nl + 1 :]
                    cols, skipped = parse_cdx_lines(complete)
                    skipped_total += skipped
                    n = len(cols["urlkey"])
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
            raw.close()

    def _read_batch(batch: pa.Table):
        for row in batch.to_pylist():
            yield from _read_file(row)

    from dots_ocr_ray.util import file_sizes, packed_items

    work = packed_items([{"path": p} for p in paths], file_sizes(paths))
    return work.map_batches(_read_batch, batch_size=None, batch_format="pyarrow")
