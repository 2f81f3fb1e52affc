"""The flagship extraction pipeline (SURVEY.md §7.1).

    shard files (parquet / warc) ──units packed by bytes into ~2 blocks
    per CPU slot (util.packed_items)──▶ Dataset
      └─ [resume] skip units whose done marker parses and whose part
         file's footer holds the marker's row count
      └─ map_batches(_run_shard_task): one task per block; per unit,
         read the shard one batch at a time through ExtractorActor →
         part-XXXXX.parquet + .done marker → one METRICS row
      └─ fold in the metrics of resumed units from their markers
      └─ _job_stats.json: job totals + the Ray Data per-stage stats
      └─ fail gate: failed/total > 10% raises (reference configs.py:79)

A unit's input is read one batch at a time, but its output rows stay in
memory until its part file is written, so a worker's peak heap grows
with the unit's output, not only with the batch.

:func:`extract_shards` is the only path that writes extraction output.
:func:`extract_pages` is the same kernel as a streaming stage over a
pages Dataset (read with ``ray.data.read_parquet``), for queries and
pipelines that consume the result directly.  The ``html`` payload
column is dropped inside the extract stage so only narrow result blocks
move downstream.
"""

from __future__ import annotations

import hashlib
import time

import pyarrow as pa
import pyarrow.compute as pc

import ray.data

from dots_ocr_ray.kernel.extract import ExtractConfig
from dots_ocr_ray.schema import METRICS_SCHEMA, RESULT_SCHEMA, TASK_FAIL_THRESHOLD
from dots_ocr_ray.stages.extract_stage import ExtractorActor
from dots_ocr_ray.state.manifest import completed_partitions, write_partition_atomic

# a unit's counters, named once for its metrics row, its marker, the
# resume fold and the job totals
_STATUS_COUNTS = {"ok": "finished", "fallback": "fallback", "failed": "failed"}
_COUNTS = (*_STATUS_COUNTS, "bytes_in")


def _extract_batch(batch: pa.Table, *, config: ExtractConfig) -> pa.Table:
    """One pages batch through the extraction stage (module-level so Ray
    pickles it by reference).  Building the extractor is free: its
    ``__init__`` only stores the config and kernel."""
    return ExtractorActor(config=config)(batch)


def extract_pages(
    pages: ray.data.Dataset,
    config: ExtractConfig | None = None,
    *,
    batch_size: int = 64,
) -> ray.data.Dataset:
    """Run the extraction stage over a pages Dataset as stateless tasks
    and return the extracted Dataset, streaming and unwritten.

    A model-backed kernel whose ``__init__`` loads weights runs as an
    actor pool by passing :class:`ExtractorActor` (with its
    ``kernel_fn``) to ``map_batches`` directly.

    ``batch_size`` is deliberately small: one row can carry MBs of html,
    and batch × parallelism must fit the worker heap (SURVEY §7.4).
    """
    return pages.map_batches(
        _extract_batch,
        fn_kwargs={"config": config or ExtractConfig()},
        batch_format="pyarrow",
        batch_size=batch_size,
    )


def _shard_record_batches(path: str, batch_size: int, row_groups: list[int] | None = None):
    """Stream a shard file as pages tables of at most ``batch_size``
    rows: parquet shards read column-pruned, one batch at a time
    (optionally only the listed row groups — the mega-shard split
    unit); ``*.warc`` / ``*.warc.gz`` shards stream through the
    pure-Python WARC walker (sources/warc.py) — the flagship's
    partition == input-shard layout is format-agnostic."""
    import pyarrow.parquet as pq

    cols = ["url", "html", "text", "lang"]
    if path.endswith((".warc", ".warc.gz")):
        from dots_ocr_ray.sources.warc import _warc_file_batches

        for tbl in _warc_file_batches(path, frozenset({"response"}), batch_size):
            yield tbl.select(cols)
        return
    for batch in pq.ParquetFile(path).iter_batches(batch_size, row_groups=row_groups, columns=cols):
        yield pa.Table.from_batches([batch])


def _shard_units(shard_files: list[str], max_rows_per_task: int | None) -> list[tuple[str, list[int] | None, int]]:
    """Deterministic work-unit list of ``(path, row_groups, bytes)``:
    one unit per shard file, except parquet shards above
    ``max_rows_per_task`` rows, which split into runs of whole row
    groups (the mega-shard straggler guard, SURVEY §7.4 hard part 6 —
    one 10× shard no longer holds a wave hostage).  ``bytes`` is the
    unit's share of its file on storage (the file size, or a run's
    compressed column chunks), the weight the task planner packs by.
    Unit ids (= partition ids) depend only on the file list and the
    split threshold, so resume stays exact."""
    import pyarrow.parquet as pq

    from dots_ocr_ray.util import file_sizes

    units: list[tuple[str, list[int] | None, int]] = []
    for p, size in zip(shard_files, file_sizes(shard_files)):
        # warc shards stream; no cheap row metadata
        if max_rows_per_task is None or p.endswith((".warc", ".warc.gz")):
            units.append((p, None, size))
            continue
        md = pq.ParquetFile(p).metadata
        if md.num_rows <= max_rows_per_task or md.num_row_groups <= 1:
            units.append((p, None, size))
            continue
        run: list[int] = []
        run_rows = run_bytes = 0
        for rg in range(md.num_row_groups):
            meta = md.row_group(rg)
            if run and run_rows + meta.num_rows > max_rows_per_task:
                units.append((p, run, run_bytes))
                run, run_rows, run_bytes = [], 0, 0
            run.append(rg)
            run_rows += meta.num_rows
            run_bytes += sum(meta.column(c).total_compressed_size for c in range(meta.num_columns))
        if run:
            units.append((p, run, run_bytes))
    return units


def _process_one_shard(
    shard: int,
    path: str,
    out_dir: str,
    config: ExtractConfig,
    batch_size: int,
    row_groups: list[int] | None = None,
) -> dict:
    """One work unit → final partition file + marker; returns the
    partition's metrics row.  An empty unit still commits its 0-row
    partition and marker, so resume sees it as finished."""
    # honor the task's 1-CPU allocation: pyarrow's internal pool would
    # otherwise fan compression/decompression across every PHYSICAL
    # core, silently oversubscribing the node (and faking scaling
    # numbers on a shared box)
    if pa.cpu_count() != 1:
        pa.set_cpu_count(1)
        pa.set_io_thread_count(2)

    t0 = time.perf_counter()
    extractor = ExtractorActor(config=config, partition_id=shard)
    # the md5 of the unit's extracted_text values joined, one batch at a time
    content = hashlib.md5()
    outs = []
    for batch in _shard_record_batches(path, batch_size, row_groups):
        outs.append(extractor(batch))
        content.update("".join(outs[-1].column("extracted_text").to_pylist()).encode("utf-8"))
    group = pa.concat_tables(outs) if outs else RESULT_SCHEMA.empty_table()
    status = group.column("status")
    counts = {c: pc.sum(pc.equal(status, s)).as_py() or 0 for c, s in _STATUS_COUNTS.items()}
    counts["bytes_in"] = pc.sum(group.column("bytes_in")).as_py() or 0
    write_partition_atomic(out_dir, shard, group, content.hexdigest(), extra=counts)
    return {
        "partition_id": shard,
        "input_rows": group.num_rows,
        **counts,
        "wall_ms": int((time.perf_counter() - t0) * 1000),
    }


# _run_shard_task's input: one row per unit
_UNIT_SCHEMA = pa.schema([("shard", pa.int64()), ("path", pa.string()), ("row_groups", pa.list_(pa.int64()))])


def _run_shard_task(
    batch: pa.Table,
    *,
    out_dir: str,
    config: ExtractConfig,
    batch_size: int,
) -> pa.Table:
    """map_batches wrapper around :func:`_process_one_shard`, one call
    per packed block, looping over its units (module-level so Ray
    pickles it by reference and worker processes keep the imported
    module warm across tasks)."""
    rows = [
        _process_one_shard(u["shard"], u["path"], out_dir, config, batch_size, u["row_groups"])
        for u in batch.to_pylist()
    ]
    return pa.Table.from_pylist(rows, schema=METRICS_SCHEMA)


def extract_shards(
    shard_files: list[str],
    out_dir: str,
    config: ExtractConfig | None = None,
    *,
    batch_size: int = 256,
    resume: bool = True,
    max_rows_per_task: int | None = None,
) -> pa.Table:
    """Zero-shuffle flagship: output partition == input shard.  The only
    path that writes extraction output.

    A Dataset OF SHARD PATHS (parquet or ``*.warc``/``*.warc.gz``) fans
    out over the task slots; for each of its units a task reads the
    shard, runs the extraction kernel, writes the final
    ``part-{shard:05d}.parquet`` + done marker and returns the
    partition's METRICS_SCHEMA row.  No exchange at all: rows keep
    input-file order (deterministic), checkpointing is input-aligned
    (the reference's md5 skip gate operates at exactly this unit — one
    input document, dotsocr_service.py:253-348), and scaling is linear
    in shards.

    Tasks are planned from the cluster's CPU slots, not from the file
    count: units pack longest-first by input bytes into about two
    size-balanced blocks per slot (:func:`dots_ocr_ray.util.pack_bins`),
    one task per block, and each task loops over its units.  A unit
    bigger than the rest sits alone in its block; a single oversized
    parquet shard still straggles, so set ``max_rows_per_task`` to
    split it into row-group runs (deterministic unit ids, so resume is
    exact as long as the file list and threshold are unchanged).

    With ``resume``, a unit whose done marker exists and parses, and
    whose part file's footer holds the marker's ``rows``, is skipped and
    its metrics row is rebuilt from the marker; a corrupt marker, or a
    part file that lost rows or its footer, means the unit is extracted
    again.  Returns the metrics table for ALL partitions and writes
    ``_job_stats.json`` next to them.
    """
    import functools

    from dots_ocr_ray.state.manifest import partition_rows, read_marker, write_job_stats
    from dots_ocr_ray.util import packed_items, task_slots

    cfg = config or ExtractConfig()
    units = _shard_units(shard_files, max_rows_per_task)
    done = completed_partitions(out_dir) if resume else set()
    # each marker and its part file's footer are read once, here: a
    # marker that does not parse, or a part file whose footer does not
    # read or disagrees with the marker's rows, leaves its unit to be
    # redone instead of being kept short or crashing the fold below
    markers = {
        pid: meta
        for pid in sorted(done)
        if (meta := read_marker(out_dir, pid)) is not None and meta.get("rows") == partition_rows(out_dir, pid)
    }
    todo = [i for i in range(len(units)) if i not in markers]

    fresh = []
    dataset_stats = None
    slots = task_slots()
    tasks = 0
    if todo:
        # STATELESS tasks (not an actor pool): the extractor holds no
        # heavy per-worker state (compiled regexes are module-level,
        # the reference's lazy-singleton seam A3/A4), and tasks reuse
        # warm worker processes with zero pool-ramp cost per run.
        work = packed_items(
            [{"shard": i, "path": units[i][0], "row_groups": units[i][1]} for i in todo],
            [units[i][2] for i in todo],
            slots,
            schema=_UNIT_SCHEMA,
        )
        tasks = work.num_blocks()
        fn = functools.partial(
            _run_shard_task,
            out_dir=out_dir,
            config=cfg,
            batch_size=batch_size,
        )
        metrics_ds = work.map_batches(fn, batch_size=None, batch_format="pyarrow")
        fresh = metrics_ds.take_all()
        dataset_stats = metrics_ds.stats()

    # fold in already-completed partitions from their markers (resume)
    for pid, meta in markers.items():
        fresh.append({"partition_id": pid, "input_rows": meta["rows"], **{c: meta.get(c, 0) for c in _COUNTS}, "wall_ms": 0})
    tbl = pa.Table.from_pylist(sorted(fresh, key=lambda r: r["partition_id"]), schema=METRICS_SCHEMA)

    # persist per-run execution stats next to the outputs (the
    # reference's tracing/metrics analog, app/utils/metrics.py:9-26):
    # job totals and the Ray Data per-stage stats string (None when
    # every unit was resumed and nothing ran)
    write_job_stats(
        out_dir,
        {
            "job": "extract_shards",
            "num_units": len(units),
            "resumed_partitions": len(markers),
            "fresh_partitions": len(todo),
            "slots": slots,
            "tasks": tasks,
            "totals": {
                c: int(pc.sum(tbl.column(c)).as_py() or 0)
                for c in ("input_rows", *_COUNTS, "wall_ms")
            },
            "dataset_stats": dataset_stats,
        },
    )
    return tbl


def check_fail_gate(metrics: pa.Table, threshold: float = TASK_FAIL_THRESHOLD) -> dict:
    """Job-level fail-ratio gate (reference dotsocr_service.py:430-443,
    threshold configs.py:79) over the METRICS table that
    :func:`extract_shards` returns; returns the totals; raises when
    breached."""
    total = pc.sum(metrics.column("input_rows")).as_py() or 0
    failed = pc.sum(metrics.column("failed")).as_py() or 0
    stats = {
        "total": total,
        "ok": pc.sum(metrics.column("ok")).as_py() or 0,
        "fallback": pc.sum(metrics.column("fallback")).as_py() or 0,
        "failed": failed,
    }
    if total and failed / total > threshold:
        raise RuntimeError(
            f"job failed: {failed}/{total} rows failed "
            f"(> {threshold:.0%} threshold, reference configs.py:79)"
        )
    return stats


def host_failure_wilson(
    extracted: ray.data.Dataset,
    *,
    url_col: str = "url",
    status_col: str = "status",
    z: float = 1.96,
) -> ray.data.Dataset:
    """Per-host extraction-health ranking: failure count, total, and
    the Wilson-score LOWER bound of the failure rate in micro units —
    the alerting statistic that won't page on a 1-failure/2-page host
    the way a raw ratio does (reference analog: the fail-ratio gate,
    G3, generalized from job-level to host-level).

    Shape: hosts come from the REAL url column (one vectorized
    ``extract_regex``), per-batch partial (n, failed) counts keyed by
    host, one bounded groupby fold, then the closed-form Wilson bound
    with a FIXED operand order mirrored literally by the SQL oracle
    (exact integer counts → identical IEEE doubles → micro-floor)."""
    import numpy as np

    from dots_ocr_ray.util import bucket_keyed_fold

    def _rows(batch: pa.Table) -> pa.Table:
        hosts = pc.extract_regex(
            batch.column(url_col), r"^https?://(?P<host>[^/]+)"
        ).combine_chunks().field("host")
        failed = pc.cast(
            pc.equal(batch.column(status_col), "failed"), pa.int64()
        )
        return pa.table({"host": hosts, "f": failed})

    # the Wilson bound is evaluated VECTORIZED per folded batch with the
    # same elementwise IEEE operand order the scalar form (and the SQL
    # oracle) uses
    def _wilson(batch: pa.Table) -> pa.Table:
        n = batch.column("n").to_numpy(zero_copy_only=False).astype(np.float64)
        f = batch.column("f").to_numpy(zero_copy_only=False).astype(np.float64)
        p = f * 1.0 / n
        z2 = z * z
        arg = p * (1.0 - p) / n + z2 / (4.0 * n * n)
        lb = (p + z2 / (2 * n) - z * np.sqrt(arg)) / (1 + z2 / n)
        return batch.append_column(
            "wilson_lb_micro", pa.array(np.floor(1000000 * lb).astype(np.int64), pa.int64())
        )

    return bucket_keyed_fold(
        extracted.map_batches(_rows, batch_format="pyarrow"),
        "host",
        {"n": ("count", None), "f": ("sum", "f")},
        num_buckets=256,
    ).map_batches(_wilson, batch_format="pyarrow")
