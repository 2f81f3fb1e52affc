"""Small shared runtime helpers."""

from __future__ import annotations

import ray


def _arrow_unicode_warmup() -> None:
    """Fill Arrow's lazily-initialized unicode lookup tables while the
    importing thread holds the module import lock.

    Arrow's utf8 string kernels build their unicode tables on FIRST
    use; inside a multi-threaded Ray worker that first call can race
    the lazy init and silently return wrong results (observed here:
    ``utf8_split_whitespace(" ") -> [" "]`` — the space not recognized
    as whitespace — on a worker's first batch, ~once per hundreds of
    fresh workers).  One single-threaded call per process makes every
    later kernel call see completed tables.  This module is imported
    (directly or transitively) by every pipeline UDF, so unpickling a
    UDF in a worker runs the warmup before the UDF can touch a kernel.
    """
    try:  # pragma: no cover - trivial, but must never break import
        import pyarrow as _pa
        import pyarrow.compute as _pc

        _pc.utf8_split_whitespace(_pa.array([" a\tb\nc "]))
        _pc.utf8_is_alpha(_pa.array(["aé1"]))
        _pc.utf8_lower(_pa.array(["ÁB"]))
    except Exception:
        pass


_arrow_unicode_warmup()


def split_whitespace_checked(col):
    """``pc.utf8_split_whitespace`` with an IN-CALL canary and a pure-
    Python fallback.

    Rarely, an Arrow utf8 kernel invocation inside a Ray worker
    misclassifies whitespace (observed: ``utf8_split_whitespace(" ")
    -> [" "]`` — the space not split — on isolated calls, ~1 in
    thousands; a separate canary call can PASS while the real call is
    corrupted, so the canary rows are appended to the batch and split
    IN THE SAME kernel invocation).  On canary mismatch the whole
    batch is split in Python with the same per-whitespace-char
    structure (boundary/interior empties preserved) so downstream
    empty-filtering arithmetic is unchanged.

    Nulls are treated as "" (every caller's ``t or ""`` convention).
    The result is REBUILT (offsets + trimmed child) rather than sliced,
    because ``.values`` on a sliced ListArray ignores the slice window
    and would leak the canary tokens to offset-based consumers like
    substring._tokens_from_batch."""
    import re

    import pyarrow as pa
    import pyarrow.compute as pc

    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    if not pa.types.is_string(col.type) and not pa.types.is_large_string(col.type):
        col = col.cast(pa.string())  # e.g. an all-null block infers type null
    col = pc.fill_null(col, "")
    canary = pa.array([" ", "\n\n", "\ta\n b  c ", ""], type=col.type)
    lists = pc.utf8_split_whitespace(pa.concat_arrays([col, canary]))
    n = len(col)
    tail = lists.slice(n, 4).to_pylist()
    ok = (
        len(tail) == 4
        and all(t == "" for t in tail[0])
        and len(tail[0]) >= 2
        and all(t == "" for t in tail[1])
        and len(tail[1]) >= 2
        and [t for t in tail[2] if t] == ["a", "b", "c"]
        and tail[3] == [""]
    )
    if ok:
        offsets = lists.offsets.slice(0, n + 1)
        end = offsets[-1].as_py() if n else 0
        return pa.ListArray.from_arrays(offsets, lists.values.slice(0, end))
    py = [re.split(r"\s", t) for t in col.to_pylist()]
    return pa.array(py, type=pa.list_(pa.string()))


def ws_token_counts_checked(col):
    """Vectorized ``len(text.split())`` per row with an END-TO-END
    in-call canary over the full kernel chain (split → value_length →
    flatten → parent_indices → equal → filter), because any single
    link can be the one that misbehaves on a given invocation.  Canary
    rows ride the same batch through the same chain; if their final
    counts are wrong the whole batch recomputes in Python.  Returns an
    int64 numpy array aligned to the input (nulls count 0)."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.compute as pc

    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    if not pa.types.is_string(col.type) and not pa.types.is_large_string(col.type):
        col = col.cast(pa.string())  # e.g. an all-null block infers type null
    n_rows = len(col)
    canary = pa.array([" ", "\n\n", "\ta\n b  c ", "", "x"], type=col.type)
    full = pa.concat_arrays([pc.fill_null(col, "").cast(col.type), canary])
    lists = pc.utf8_split_whitespace(full)
    n = pc.list_value_length(lists).to_numpy(zero_copy_only=False).astype(np.int64)
    toks = pc.list_flatten(lists)
    parents = pc.list_parent_indices(lists)
    empt = pc.equal(toks, "")
    empty_parents = parents.filter(empt).to_numpy(zero_copy_only=False)
    if len(empty_parents):
        n -= np.bincount(empty_parents, minlength=len(n)).astype(np.int64)
    if list(n[n_rows:]) == [0, 0, 3, 0, 1]:
        return n[:n_rows]
    return np.array(
        [len(t.split()) if t else 0 for t in col.to_pylist()], dtype=np.int64
    )


def default_pool_size(reserve: int = 1, floor: int = 2) -> int:
    """Actor-pool size that leaves CPU headroom for the read/write
    stages — a pool reserving every CPU starves the other operators and
    the pipeline deadlocks under backpressure (ray_guide pitfall)."""
    try:
        ncpu = int(ray.cluster_resources().get("CPU", 4))
    except Exception:
        ncpu = 4
    return max(floor, ncpu - reserve)


def autoscale_pool(reserve: int = 1, floor: int = 2) -> tuple[int, int]:
    """(min, max) actor-pool bounds: small jobs spin 1 actor instead of
    paying a full-width pool ramp; big jobs scale to CPUs-1."""
    return (1, default_pool_size(reserve, floor))


_BROADCAST_CACHE: dict = {}
_BROADCAST_CACHE_SLOTS = 4


def cached_object(ref):
    """Per-worker-process cache for ``ray.put`` broadcast objects used
    from stateless TASKS: the first task on a worker pays one
    ``ray.get`` + deserialize, later tasks reuse the warm object.
    Lets broadcast-lookup stages run as plain tasks (zero pool-ramp
    cost) instead of actor pools whose per-execution ramp costs
    seconds (see memory: ~3-4 s at 30 actors).

    Bounded LRU (a few slots): long-lived worker processes would
    otherwise pin every broadcast object of every past job — root
    maps, keep-sets, payload arrays up to the 1 GiB broadcast budget —
    in the heap forever, compounding the object-store copy."""
    import ray as _ray

    key = ref.hex() if hasattr(ref, "hex") else str(ref)
    if key in _BROADCAST_CACHE:
        _BROADCAST_CACHE[key] = _BROADCAST_CACHE.pop(key)  # refresh LRU order
    else:
        _BROADCAST_CACHE[key] = _ray.get(ref)
        while len(_BROADCAST_CACHE) > _BROADCAST_CACHE_SLOTS:
            _BROADCAST_CACHE.pop(next(iter(_BROADCAST_CACHE)))
    return _BROADCAST_CACHE[key]


def collect_arrow_blocks(ds) -> list:
    """Driver-side fetch of a Dataset's blocks as Arrow tables via
    ``to_arrow_refs`` + one ``ray.get`` — zero-copy plasma reads,
    measured ~50× faster than ``iter_batches``'s iterator machinery on
    multi-million-row pulls (4.3 s → 0.08 s for 6.5M pairs, round 5).
    Use for bounded driver-side collections (side tables, pair lists,
    partial aggregates); empty blocks are dropped.  The dataset is
    materialized first: ``to_arrow_refs`` on a lazy plan runs it twice."""
    import ray as _ray

    return [t for t in _ray.get(ds.materialize().to_arrow_refs()) if t.num_rows]


def bounded_blocks(ds, rows_per_block: int = 65536):
    """Materialize ``ds`` and cap its block count at
    max(cpus, rows/rows_per_block).

    Sort-based exchanges (groupby / map_groups / sort) launch one map
    task per input block: a dataset fragmented into hundreds of tiny
    blocks (from_items, a selective filter, a previous wide op) makes
    the next shuffle pay hundreds of task dispatches for kilobytes of
    data.  Coalescing to a row-proportional block count keeps small
    exchanges at fixed cost while leaving big datasets partitioned for
    full parallelism.  (:func:`bucket_exchange` folds an input of at
    most 65,536 rows and one block's bytes in one task, with no shuffle
    to bound; when :func:`row_bound` shows that from the plan, the
    input is not materialized either.)"""
    import math

    ds = ds.materialize()
    rows = ds.count()
    if rows == 0:
        return ds
    target = max(default_pool_size(), math.ceil(rows / rows_per_block))
    if ds.num_blocks() > 2 * target:
        ds = ds.repartition(target).materialize()
    return ds


# Blocks planned per task slot for a fan-out over files: two waves, so a
# slow first unit is absorbed by the second wave, while the engine's
# per-block cost (~10-20 ms a block) is paid per wave, not per file.
BLOCKS_PER_SLOT = 2


def task_slots() -> int:
    """The Ray cluster's CPU slots.  Needs Ray up; never
    ``os.cpu_count()``, which counts the host, not what Ray schedules."""
    return max(1, int(ray.cluster_resources().get("CPU", 1)))


def file_sizes(paths: list[str]) -> list[int]:
    """Byte size of each local path or URI through ``pyarrow.fs``
    (0 when it cannot be stat-ed)."""
    import pyarrow.fs as pafs

    from dots_ocr_ray.state.manifest import resolve_fs

    sizes = []
    for p in paths:
        fs, local = resolve_fs(p)
        info = fs.get_file_info(local)
        sizes.append(info.size if info.type == pafs.FileType.File else 0)
    return sizes


def pack_bins(weights: list[int], slots: int) -> list[list[int]]:
    """Indices of ``weights`` in ``min(n, BLOCKS_PER_SLOT * slots)``
    bins: longest first (ties by index) into the lightest bin (ties by
    fewer members, then bin index), so one heavy unit sits alone
    instead of stretching a bin into a straggler.  Each bin lists its
    indices in ascending order; the plan is deterministic and no bin is
    empty."""
    import heapq

    k = min(len(weights), BLOCKS_PER_SLOT * max(1, slots))
    bins: list[list[int]] = [[] for _ in range(k)]
    heap = [(0, 0, b) for b in range(k)]
    for i in sorted(range(len(weights)), key=lambda i: (-weights[i], i)):
        load, members, b = heapq.heappop(heap)
        bins[b].append(i)
        heapq.heappush(heap, (load + weights[i], members + 1, b))
    return [sorted(b) for b in bins]


def packed_items(rows: list[dict], weights: list[int], slots: int | None = None, schema=None) -> "ray.data.Dataset":
    """``rows`` as a Dataset of size-balanced blocks (one per
    :func:`pack_bins` bin over ``slots``, by default
    :func:`task_slots`; rows in their original order inside a block),
    so a ``map_batches`` over it runs one task per bin, not per row."""
    import pyarrow as pa
    import ray.data

    bins = pack_bins(weights, task_slots() if slots is None else slots)
    return ray.data.from_arrow([pa.Table.from_pylist([rows[i] for i in b], schema=schema) for b in bins])


def vec_matrix(col, dtype=None):
    """(n, d) numpy matrix from an Arrow list/fixed_size_list column
    without the to_pylist() Python round-trip (~10× on wide embedding
    columns): flatten() yields the child values respecting offsets, and
    for a rectangular embedding column a reshape is all that's left.
    Nulls are not supported (embedding columns are dense by contract).
    """
    import numpy as np
    import pyarrow as pa

    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    n = len(col)
    flat = col.flatten()
    values = flat.to_numpy(zero_copy_only=False)
    if dtype is not None:
        values = np.asarray(values, dtype=dtype)
    d = len(values) // max(1, n)
    if n * d != len(values):
        raise ValueError("vec_matrix requires a rectangular list column")
    return values.reshape(n, d)


def round_half_away(x, decimals: int = 4):
    """SQL-style round half AWAY from zero (numpy's np.round is
    half-even and diverges from DuckDB on exact ties like 0.40625)."""
    import numpy as np

    p = 10.0**decimals
    return np.sign(x) * np.floor(np.abs(x) * p + 0.5) / p


def parquet_int_minmax(path: str, cols: list[str]):
    """(lo, hi) across ``cols`` from parquet ROW-GROUP STATISTICS —
    no data read.  Returns None when any row group lacks min/max
    stats (caller falls back to a scan probe).  The zero-cost way to
    pick packed-vs-wide integer-key paths at the planning step."""
    import pyarrow.parquet as pq

    meta = pq.ParquetFile(path)
    lo = hi = None
    for col in cols:
        idx = meta.schema_arrow.get_field_index(col)
        for rg in range(meta.metadata.num_row_groups):
            st = meta.metadata.row_group(rg).column(idx).statistics
            if st is None or not st.has_min_max:
                return None
            lo = st.min if lo is None else min(lo, st.min)
            hi = st.max if hi is None else max(hi, st.max)
    return (lo, hi)


def quiet_ray_data_schema_warnings() -> None:
    """Silence Ray Data's benign "Failed to hash the schemas (for
    deduplication): unhashable type: 'dict'" warning in this process,
    and the INFO lines that Ray Data's executor and its dataset-logger
    registration print at every execution (their warnings and errors
    still pass; ``Dataset.stats()`` is unaffected).

    Root cause: parquet files written through pandas carry a
    ``b'pandas'`` schema-metadata blob whose payload makes
    ``pyarrow.Schema.__hash__`` raise; Ray's ``unify_schemas`` then
    logs a WARNING every time its ``set()``-dedup fast path fails and
    falls back to the full unify (same result, trivial cost).

    A plain ``setLevel`` does NOT stick: Ray Data re-applies
    ``logging.config.dictConfig`` at every execution (and in every
    worker via ``update_dataset_logger_for_worker``), which resets the
    level of every existing child of ``ray.data`` to NOTSET.  It keeps
    a logger's filters, so a ``logging.Filter`` on the noisy logger
    that drops that one message survives every re-configure, at no
    per-execution cost (a ``RAY_DATA_LOGGING_CONFIG`` file would be
    re-parsed at every execution).  Call it in the driver and pass
    :func:`make_quiet_hook` as the worker_process_setup_hook for the
    workers; it is idempotent.

    An exchange that carries whole parquet rows can strip the metadata
    at the source instead (``dedup.sorted_group_first`` does it in its
    per-batch combiner, in front of its bucket exchange); this covers
    the long tail of reads whose ``count()`` fast path a blanket
    strip-map would destroy."""
    make_quiet_hook()()


def make_quiet_hook():
    """Worker-side variant of :func:`quiet_ray_data_schema_warnings`
    for ``runtime_env={"worker_process_setup_hook": make_quiet_hook()}``.

    Returns a CLOSURE, which cloudpickle serializes self-contained —
    the setup hook deserializes during early worker startup, before the
    driver's sys.path reaches the worker, so a plain module function
    (pickled by reference) would die with ModuleNotFoundError."""

    def _hook():
        import logging

        class _DropSchemaHashWarning(logging.Filter):
            def filter(self, record):
                return not record.getMessage().startswith("Failed to hash the schemas")

        class _DropInfo(logging.Filter):
            def filter(self, record):
                return record.levelno > logging.INFO

        # the schema-hash warning, and the INFO lines ("Registered
        # dataset logger", "Starting execution", "Execution plan",
        # "execution finished") printed at every Dataset execution
        for name, drop in (
            ("ray.data._internal.arrow_ops.transform_pyarrow", _DropSchemaHashWarning),
            ("ray.data._internal.logging", _DropInfo),
            ("ray.data._internal.execution.streaming_executor", _DropInfo),
        ):
            log = logging.getLogger(name)
            if not any(type(f).__name__ == drop.__name__ for f in log.filters):
                log.addFilter(drop())

    return _hook


def sorted_lookup(sorted_arr, vals):
    """Vectorized probe of ``vals`` against an ASCENDING-sorted numpy
    array: ``(hit_mask, idx)`` where ``hit_mask[i]`` says whether
    ``vals[i]`` appears in ``sorted_arr`` and ``idx[i]`` is its
    position when it does (clamped but meaningless where ``hit_mask``
    is False — gather side arrays with ``side[idx[hit]]``).
    searchsorted + clamp + equality: the one canonical copy of a
    pattern that otherwise re-grows slightly-divergent clones at every
    broadcast-lookup site.  Empty ``sorted_arr`` → all-False mask."""
    import numpy as np

    vals = np.asarray(vals)
    if len(sorted_arr) == 0:
        return np.zeros(len(vals), dtype=bool), np.zeros(len(vals), dtype=np.int64)
    idx = np.searchsorted(sorted_arr, vals)
    if idx.size:
        np.minimum(idx, len(sorted_arr) - 1, out=idx)
    return sorted_arr[idx] == vals, idx


def sorted_membership(sorted_arr, vals):
    """Bool membership mask of ``vals`` in an ASCENDING-sorted numpy
    array (:func:`sorted_lookup` without the gather index)."""
    return sorted_lookup(sorted_arr, vals)[0]


GOLDEN64 = 0x9E3779B97F4A7C15
"""2^64 / golden ratio, odd: the seed of the splitmix64 key hash and the
multiplier of the package's rolling gram and shingle hashes.  This is
the one place it is spelled out."""


def _mix64(vals, seed: int):
    """Vectorized splitmix64 finalizer over uint64 (deterministic,
    C-speed, wraps mod 2^64)."""
    import numpy as np

    z = vals.astype(np.uint64) + np.uint64(seed)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def _stable_key_hash(col):
    """Deterministic per-process-stable uint64 hash of a key column:
    splitmix64 for integer keys, pandas' fixed-key murmur
    (``pd.util.hash_array``) for strings — both reproducible across
    workers and runs (Python's builtin ``hash`` is salted per process
    and must never key an exchange)."""
    import numpy as np
    import pandas as pd
    import pyarrow as pa

    if pa.types.is_integer(col.type):
        # nulls hash as 0: through float64 a large key would hash apart
        # from itself in a batch without nulls
        return _mix64(col.fill_null(0).to_numpy(zero_copy_only=False).astype(np.int64), GOLDEN64)
    return pd.util.hash_array(np.asarray(col.to_pylist(), dtype=object))


def key_buckets(batch, keys: list, num_buckets: int):
    """int32 bucket of every row of ``batch`` from its ``keys`` columns.

    One key column buckets as ``_stable_key_hash(key) % num_buckets``,
    the layout ``pipelines/bucketed.py`` writes to disk; each further
    column is folded in through one more splitmix64 round.  Every bit
    of the key reaches the bucket, so keys that share their low bits
    (multiples of 64, ``det << 32 | dep`` packings) still spread."""
    import numpy as np

    h = _stable_key_hash(batch.column(keys[0]))
    for k in keys[1:]:
        h = _mix64(h ^ _stable_key_hash(batch.column(k)), GOLDEN64)
    return (h % np.uint64(num_buckets)).astype(np.int32)


# The most rows :func:`bucket_exchange` folds in one task.  The fold
# queries exchange 40 to 20k rows, where one task beats the shuffle's
# task rounds; at 1M rows on 4 CPUs the two tiers were level, and more
# CPUs give the shuffle's reduce more parallelism, so the cut sits far
# below that crossover.
_ONE_TASK_ROWS = 65_536


def _fold_in_one_task(rows: int, nbytes: int, rows_per_block: int) -> bool:
    """The tier rule of :func:`bucket_exchange`: at most
    ``_ONE_TASK_ROWS`` and ``rows_per_block`` rows, and at most one
    block's bytes (Ray's ``target_max_block_size``; unset means no byte
    cap)."""
    from ray.data import DataContext

    cap = DataContext.get_current().target_max_block_size
    return rows <= min(_ONE_TASK_ROWS, rows_per_block) and (cap is None or nbytes <= cap)


def rows_out(k: int):
    """Declare that a ``map_batches`` function returns at most ``k``
    rows per row in, so :func:`row_bound` can carry a bound through it.
    Declare only a body that has been checked: an understated fan-out
    makes :func:`bucket_exchange` raise when a batch overruns the
    bound, but a combiner between the map and the exchange can shrink
    the overrun out of sight."""

    def declare(fn):
        fn.rows_out = k
        return fn

    return declare


def row_bound(ds):
    """An upper bound ``(rows, nbytes)`` on what ``ds`` yields, read
    off its lazy plan without running anything; ``None`` when the plan
    gives none.

    Rows are a bound: block metadata of a materialized or in-memory
    source, parquet footers of a read, the sum over a union, the input's
    through a projection or a filter, and ``k`` times the input's
    through a map declared ``@rows_out(k)``.  Any other operator (an
    undeclared map, a shuffle, a join) gives ``None``.  Bytes are Ray's
    in-memory estimate scaled the same way: they guard one task's
    memory, and no answer depends on them.

    Every Ray-internal name the package reads to plan an exchange is in
    this function; if Ray moves one, the bound is ``None`` and
    :func:`bucket_exchange` counts the input instead."""
    try:
        from ray.data._internal.logical.operators.from_operators import AbstractFrom
        from ray.data._internal.logical.operators.input_data_operator import InputData
        from ray.data._internal.logical.operators.map_operator import Filter, MapBatches, Project
        from ray.data._internal.logical.operators.n_ary_operator import Union
        from ray.data._internal.logical.operators.read_operator import Read

        def bound(op):
            if isinstance(op, (Read, InputData, AbstractFrom)):
                meta = op.infer_metadata()
                known = meta.num_rows is not None and meta.size_bytes is not None
                return (meta.num_rows, int(meta.size_bytes)) if known else None
            if isinstance(op, Union):
                sides = [bound(o) for o in op.input_dependencies]
                return None if None in sides else tuple(map(sum, zip(*sides)))
            k = getattr(op._fn, "rows_out", None) if isinstance(op, MapBatches) else 1
            if not isinstance(op, (Project, Filter, MapBatches)) or k is None:
                return None
            b = bound(op.input_dependencies[0])
            return None if b is None else (k * b[0], k * b[1])

        return bound(ds._plan._logical_plan.dag)
    except (ImportError, AttributeError):
        return None


# The largest side a function broadcasts (``ray.put`` or a driver
# collect) instead of running an exchange: the budget
# :func:`cached_object` names.  At (int64, int64) rows it is 64M rows.
_BROADCAST_BYTES = 1 << 30


def broadcast_fits(nbytes: int) -> bool:
    """The package's one broadcast-or-exchange rule: a side of at most
    ``_BROADCAST_BYTES`` bytes (the materialized side's
    ``size_bytes()``) is broadcast or collected to the driver; a larger
    one goes through an exchange.  Every broadcast tier holds its side
    as numpy or Arrow arrays, so bytes, not rows, are what it costs."""
    return nbytes <= _BROADCAST_BYTES


def bucket_exchange(ds, keys, fold, *, num_buckets: int = 64, rows_per_block: int = 1_048_576):
    """The package's one keyed exchange: hash ``keys`` (one column name
    or a list; int or string columns) into an int32 ``__bucket``
    column, then fold each bucket.

    ``ds`` may be a list of datasets with the same schema (the sides of
    a join or diff): each is tagged where it is produced, then they are
    unioned, so the tag fuses into each side's own map tasks.

    Every row of a key lands in one bucket, so ``fold`` — called once
    per non-empty bucket, in ascending bucket order, with a pyarrow
    table that still carries ``__bucket`` — sees all of that key's
    rows.  Python cost is O(num_buckets) fold calls, never O(distinct
    keys); ``fold`` should be one vectorized pass (sort, then reduce
    runs).  Returns the lazy folded dataset.

    The tier is chosen by :func:`_fold_in_one_task` from the tagged
    input's rows and bytes.  A small input (at most 65,536 and
    ``rows_per_block`` rows, and at most Ray's ``target_max_block_size``
    bytes) is folded by one ``map_batches`` task that stable-sorts
    every row by ``__bucket`` and folds each bucket, skipping the sort
    shuffle's sample, map and reduce rounds; a larger input bounds its
    block count (:func:`bounded_blocks`) and runs
    ``groupby("__bucket").map_groups``.

    The rows and bytes come from :func:`row_bound` when the lazy plan
    bounds them: the fold is then one more lazy map in the execution
    that produces its input, which Ray may fuse with the maps in front
    of it.  A batch of more rows than the bound (a ``rows_out``
    declaration upstream understated its fan-out) raises
    ``RuntimeError`` instead of being folded.  Without a bound, or
    past the cut, the tagged input is materialized and its exact count
    from block metadata picks the tier.  The result is lazy either way:
    a caller that reads it twice materializes it first."""
    import pyarrow as pa

    keys = [keys] if isinstance(keys, str) else list(keys)

    @rows_out(1)
    def _tag(batch: "pa.Table") -> "pa.Table":
        bkt = key_buckets(batch, keys, num_buckets)
        return batch.append_column("__bucket", pa.array(bkt, type=pa.int32()))

    tagged = [d.map_batches(_tag, batch_format="pyarrow") for d in (ds if isinstance(ds, list) else [ds])]
    tagged = tagged[0].union(*tagged[1:]) if len(tagged) > 1 else tagged[0]
    bound = row_bound(tagged)
    one_task = bound is not None and _fold_in_one_task(*bound, rows_per_block)
    if not one_task:
        tagged = tagged.materialize()
        bound = (tagged.count(), tagged.size_bytes())
        one_task = _fold_in_one_task(*bound, rows_per_block)
    rows = bound[0]

    def _fold_buckets(table: "pa.Table"):
        # Ray forms a batch past the bound only when a rows_out
        # declaration understated its fan-out
        if table.num_rows > rows:
            raise RuntimeError(f"bucket_exchange: a batch of {table.num_rows} rows exceeds the plan's bound of {rows} rows")
        # an int column without nulls sorts by value: ascending buckets
        perm, starts = _key_runs(table, ["__bucket"])
        table = table.take(perm)
        for start, end in zip(starts, [*starts[1:], table.num_rows]):
            yield fold(table.slice(start, end - start))

    if one_task:
        return tagged.map_batches(_fold_buckets, batch_size=rows + 1, batch_format="pyarrow")
    return (
        bounded_blocks(tagged, rows_per_block=rows_per_block)
        .groupby("__bucket")
        .map_groups(fold, batch_format="pyarrow")
    )


_FOLD_OPS = {"sum": "add", "min": "minimum", "max": "maximum", "count": None}


def _sort_codes(col):
    """A numpy array whose equal entries are exactly the equal keys of
    ``col``: the int64 values, or dictionary codes (nulls encoded as
    one more value) for strings and null-bearing columns."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.compute as pc

    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    if pa.types.is_integer(col.type) and not col.null_count:
        return col.to_numpy().astype(np.int64)
    enc = pc.dictionary_encode(col, null_encoding="encode")
    return enc.indices.to_numpy().astype(np.int64)


def _order_codes(col):
    """A numpy array that sorts like ``col`` ascending, nulls last: the
    int64 values of a null-free integer or timestamp column, else
    Arrow's dense rank."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.compute as pc

    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    if (pa.types.is_integer(col.type) or pa.types.is_timestamp(col.type)) and not col.null_count:
        return col.cast(pa.int64()).to_numpy().astype(np.int64)
    return pc.rank(col, sort_keys="ascending", null_placement="at_end", tiebreaker="dense").to_numpy()


def _key_runs(table, keys: list, order: list = ()):
    """Stable sort of ``table`` by ``keys``, then by the ``order``
    columns ascending within each key: ``(perm, starts)``, the row
    permutation and the sorted positions where a new key begins.

    Keys sort by :func:`_sort_codes` (equal keys adjacent, key order
    unspecified); order columns by value.  The sort and run-start body
    of :func:`_fold_table` and of every per-key fold that runs inside
    :func:`bucket_exchange`."""
    import numpy as np

    codes = [_sort_codes(table.column(k)) for k in keys]
    cols = codes + [_order_codes(table.column(c)) for c in order]
    perm = np.argsort(cols[0], kind="stable") if len(cols) == 1 else np.lexsort(cols[::-1])
    new = np.zeros(table.num_rows, dtype=bool)
    new[:1] = True
    for c in codes:
        c = c[perm]
        new[1:] |= c[1:] != c[:-1]
    return perm, np.flatnonzero(new)


def _fold_table(table, keys: list, aggs: dict):
    """The fold body of :func:`bucket_keyed_fold` on one pyarrow table:
    stable sort by ``keys``, then one numpy ``reduceat`` per aggregate
    over the key runs.  Output: the key columns (signed integer keys as
    int64), then one column per ``aggs`` entry — int64 for counts
    and integer values, float64 for floating values."""
    import numpy as np
    import pyarrow as pa

    n = table.num_rows
    order, starts = _key_runs(table, keys)
    out = {}
    for k in keys:
        col = table.column(k).take(order[starts])
        out[k] = col.cast(pa.int64()) if pa.types.is_signed_integer(col.type) else col
    for name, (op, col) in aggs.items():
        if op == "count":
            out[name] = pa.array(np.diff(np.append(starts, n)), type=pa.int64())
            continue
        vals = table.column(col)
        if vals.null_count:
            raise ValueError(f"{op}({col!r}) for {name!r}: the value column has nulls; fill or filter them first")
        typ = pa.float64() if pa.types.is_floating(vals.type) else pa.int64()
        v = vals.to_numpy(zero_copy_only=False).astype(typ.to_pandas_dtype())[order]
        folded = getattr(np, _FOLD_OPS[op]).reduceat(v, starts) if n else v
        out[name] = pa.array(folded, type=typ)
    return pa.table(out)


def bucket_keyed_fold(
    ds,
    keys,
    aggs: dict,
    *,
    num_buckets: int = 64,
    rows_per_block: int = 1_048_576,
):
    """The package's one keyed aggregate: ``SELECT keys, op(col) AS out
    ... GROUP BY keys`` as one :func:`bucket_exchange` — Python cost
    O(num_buckets), never O(distinct keys).  Every keyed sum, count,
    min and max outside this module routes through it.

    ``keys`` is one column name or a list; key columns may be integer,
    string, bool or timestamp, and a null key groups as one key.
    ``aggs`` maps each output column to ``(op, col)`` with ``op`` one
    of ``"sum"``, ``"min"``, ``"max"`` (over integer, floating or bool
    values) or ``"count"`` (rows per key; ``col`` unused).  An empty
    ``aggs`` is SELECT DISTINCT keys.  Output columns are the keys
    (signed integer keys as int64) then the ``aggs`` names; counts and
    integer or bool values are int64, floating values float64.  The
    output is not key-ordered.

    Nulls: a ``sum``/``min``/``max`` value column holding a null raises
    ``ValueError`` naming it (SQL skips null values, a numpy fold would
    read them as garbage), so callers fill or filter them first;
    ``count`` counts rows, nulls included.

    Each input batch is folded first (a combiner: the exchange moves one
    row per distinct key per batch), then each bucket folds the
    partials, with ``count`` merging as a sum.  Both passes are the
    same numpy body (sort, ``reduceat``).

    Ray's native ``groupby(key).sum/min/count`` pays per DISTINCT KEY
    on the reduce: measured **178 s for a 3M-key degree sum** (the
    triangle-count profile) vs ~2 s for this fold."""
    keys = [keys] if isinstance(keys, str) else list(keys)
    for out, (op, col) in aggs.items():
        if op not in _FOLD_OPS:
            raise ValueError(f"unsupported op={op!r} for {out!r}")
        if op != "count" and col is None:
            raise ValueError(f"op={op!r} for {out!r} needs a value column")
    merge = {out: ("sum" if op == "count" else op, out) for out, (op, _) in aggs.items()}

    @rows_out(1)
    def _combine(batch: "pa.Table") -> "pa.Table":
        return _fold_table(batch, keys, aggs)

    def _merge(group: "pa.Table") -> "pa.Table":
        return _fold_table(group, keys, merge)

    return bucket_exchange(
        ds.map_batches(_combine, batch_format="pyarrow"),
        keys,
        _merge,
        num_buckets=num_buckets,
        rows_per_block=rows_per_block,
    )


def bucket_distinct_counts(ds, key: str, col: str, out: str):
    """``SELECT key, COUNT(DISTINCT col) AS out ... GROUP BY key`` as one
    :func:`bucket_exchange` on ``key``.

    Each input batch keeps its distinct (key, col) pairs (a combiner);
    each bucket then drops the pairs repeated across batches and counts
    the non-null pairs per key.  Null ``col`` values are skipped, as SQL
    does, so a key whose values are all null counts 0; a null key
    groups as one key.  The pairs stay two columns, so any int64 or
    string values count exactly.  Output: ``key`` (signed integer keys
    as int64), then ``out`` (int64); not key-ordered."""
    import pyarrow.compute as pc

    @rows_out(1)
    def _pairs(batch: "pa.Table") -> "pa.Table":
        return _fold_table(batch, [key, col], {})

    def _count(group: "pa.Table") -> "pa.Table":
        pairs = _fold_table(group, [key, col], {})
        pairs = pairs.append_column("__valid", pc.is_valid(pairs.column(col)))
        return _fold_table(pairs, [key], {out: ("sum", "__valid")})

    return bucket_exchange(ds.map_batches(_pairs, batch_format="pyarrow"), key, _count)
