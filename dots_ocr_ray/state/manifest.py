"""Partitioned, resumable output layout (reference S9/S10/J4 analogs).

The reference gates whole jobs on an ``.md5`` marker next to the
outputs (dotsocr_service.py:253-384, storage.py:165-228); here the unit
is one output partition, which is one input shard (or one row-group run
of an oversized shard):

    out_dir/
      part-00007.parquet        # the data
      part-00007.done           # marker, written AFTER the data file

Markers commit atomically *after* the partition file (write to a temp
name, ``os.replace``, then marker) so a crashed run never leaves a
marker for a half-written partition — resume skips exactly the
partitions whose markers exist and parse and whose part file's footer
holds the marker's row count (SURVEY.md §7.4 hard part 5).

All IO goes through ``pyarrow.fs`` so ``out_dir`` may be a filesystem
URI (the reference's S6 object storage, storage.py:22-163): a bare path
resolves to LocalFileSystem, an ``s3://…``-style URI to the matching
FileSystem.  Every file (data, marker, ``_job_stats.json``) commits
through :func:`_commit`: tmp name + ``os.replace`` on a local path, one
PUT (already atomic) on an object store; the marker, written last,
remains the commit point either way.

A part file is zstd-compressed.  Dictionary encoding is kept for the
columns whose values repeat (``lang``, ``status`` and the span
``category``) and statistics for the scalar columns a reader may filter
on (``url``, ``lang``, ``status``, ``n_spans``, ``bytes_in``,
``partition_id``).  The text columns, the span offsets and the bboxes
are nearly all distinct: a dictionary there is built, outgrows its page
and is thrown away, and their min/max statistics prune nothing, so
both would only cost writer CPU and bytes.  Over the 17 part files of
the benchmark's ``cc_pages`` job (seed 7, one pyarrow thread, median of
21 interleaved passes) this took ``pq.write_table`` from 0.169 to
0.125 s of CPU and the bytes from 4.44 to 4.18 MB.  Any other table
written here (a packed pages shard) gets the same settings by column
name.
"""

from __future__ import annotations

import json
import os
import re

import pyarrow as pa
import pyarrow.fs as pafs
import pyarrow.parquet as pq

# the part-file writer settings (see the module docstring)
_DICTIONARY_COLUMNS = ["lang", "status", "spans.list.element.category"]
_STATISTICS_COLUMNS = ["url", "lang", "status", "n_spans", "bytes_in", "partition_id"]

# \d{5,}: {pid:05d} spills past five digits above 99,999 partitions
# (the petabyte shard-count design point) — a fixed-width match would
# make those partitions invisible to resume and read-back
_MARKER_RE = re.compile(r"^part-(\d{5,})\.done$")
_PART_RE = re.compile(r"^part-(\d{5,})\.parquet$")


def resolve_fs(path: str) -> tuple[pafs.FileSystem, str]:
    """(filesystem, fs-local path) for a bare path or URI."""
    if "://" in path:
        return pafs.FileSystem.from_uri(path)
    return pafs.LocalFileSystem(), path


def partition_file(out_dir: str, partition_id: int) -> str:
    return os.path.join(out_dir, f"part-{partition_id:05d}.parquet")


def _list_names(out_dir: str) -> dict[str, pafs.FileInfo]:
    fs, root = resolve_fs(out_dir)
    try:
        infos = fs.get_file_info(pafs.FileSelector(root, recursive=False))
    except (FileNotFoundError, OSError):
        return {}
    return {os.path.basename(fi.path): fi for fi in infos if fi.type == pafs.FileType.File}


def completed_partitions(out_dir: str) -> set[int]:
    """Scan markers → set of finished partition ids (the S10 analog:
    regex-scan of the output prefix, storage.py:199-228).  One listing
    call serves both the marker and the data-file existence check."""
    names = _list_names(out_dir)
    done = set()
    for name in names:
        m = _MARKER_RE.match(name)
        if m and f"part-{m.group(1)}.parquet" in names:
            done.add(int(m.group(1)))
    return done


def list_partition_files(out_dir: str) -> list[str]:
    """Final partition files under out_dir (full paths/URIs), in
    NUMERIC partition order (lexicographic order breaks once ids spill
    past the 5-digit padding)."""
    names = _list_names(out_dir)
    sep = "/" if "://" in out_dir else os.sep
    matched = [(int(m.group(1)), n) for n in names if (m := _PART_RE.match(n))]
    return [out_dir.rstrip(sep) + sep + n for _, n in sorted(matched)]


def _commit(fs: pafs.FileSystem, path: str, write) -> None:
    """Commit one file atomically: ``write(stream)`` fills it under a
    tmp name that is then renamed on a local path, or in one PUT on an
    object store."""
    local = isinstance(fs, pafs.LocalFileSystem)
    with fs.open_output_stream(path + ".tmp" if local else path) as out:
        write(out)
    if local:
        os.replace(path + ".tmp", path)


def write_partition_atomic(
    out_dir: str,
    partition_id: int,
    table: pa.Table,
    content_hash: str,
    extra: dict | None = None,
) -> None:
    """Data file first, marker last — marker presence implies a
    complete, readable partition.  ``extra`` fields (e.g. status counts)
    ride in the marker so resumed runs can rebuild the metrics table
    without re-reading data."""
    fs, root = resolve_fs(out_dir)
    fs.create_dir(root, recursive=True)
    _commit(
        fs,
        f"{root}/part-{partition_id:05d}.parquet",
        lambda out: pq.write_table(
            table,
            out,
            compression="zstd",
            use_dictionary=_DICTIONARY_COLUMNS,
            write_statistics=_STATISTICS_COLUMNS,
        ),
    )
    meta = {"partition_id": partition_id, "rows": table.num_rows, "content_md5": content_hash, **(extra or {})}
    payload = json.dumps(meta).encode("utf-8")
    _commit(fs, f"{root}/part-{partition_id:05d}.done", lambda out: out.write(payload))


def write_job_stats(out_dir: str, payload: dict) -> str:
    """Persist per-run execution stats next to the output partitions
    (`_job_stats.json`) — the engine's analog of the reference's
    tracing/metrics exporters (app/utils/metrics.py:9-26,
    app/utils/tracing.py): the Ray Data per-stage stats string plus
    job-level totals, so a slow 100-TB run can be diagnosed from the
    manifest alone, after the driver is gone."""
    fs, root = resolve_fs(out_dir)
    fs.create_dir(root, recursive=True)
    target = f"{root}/_job_stats.json"
    data = json.dumps(payload, indent=2, default=str).encode("utf-8")
    _commit(fs, target, lambda out: out.write(data))
    return target


def read_job_stats(out_dir: str) -> dict | None:
    fs, root = resolve_fs(out_dir)
    target = f"{root}/_job_stats.json"
    if fs.get_file_info(target).type != pafs.FileType.File:
        return None
    with fs.open_input_stream(target) as f:
        return json.loads(f.read().decode("utf-8"))


def read_marker(out_dir: str, partition_id: int) -> dict | None:
    """The marker's fields, or None when it is missing or does not
    parse (a truncated or corrupt marker means "not done")."""
    fs, root = resolve_fs(out_dir)
    marker = f"{root}/part-{partition_id:05d}.done"
    info = fs.get_file_info(marker)
    if info.type != pafs.FileType.File:
        return None
    with fs.open_input_stream(marker) as f:
        raw = f.read()
    try:
        meta = json.loads(raw.decode("utf-8"))
    except ValueError:  # JSONDecodeError and UnicodeDecodeError
        return None
    return meta if isinstance(meta, dict) else None


def partition_rows(out_dir: str, partition_id: int) -> int | None:
    """The row count in the part file's footer, or None when the file
    is missing or its footer does not read (a truncated write)."""
    fs, root = resolve_fs(out_dir)
    try:
        return pq.read_metadata(f"{root}/part-{partition_id:05d}.parquet", filesystem=fs).num_rows
    except (OSError, pa.ArrowInvalid):
        return None
