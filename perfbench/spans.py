"""Layer-boundary tracing for the traced benchmark run.

The package is never edited: each wrapper replaces a module-level name
where its caller looks it up (``dots_ocr_ray.kernel.extract.segment_html``,
not ``html_parse.segment_html``), so the wrapped call is exactly the call
the untraced job makes.  Names called in the benchmark process are
patched there; worker-side names are patched in every Ray worker by the
``worker_process_setup_hook`` that :func:`make_trace_hook` builds.

A span is ``(job, id, parent, name, start_ns, end_ns, attr)``.  Spans stay
in a process-local list while traced code runs.  The benchmark keeps its
spans until the run ends; a worker appends its buffer to
``<spans_dir>/<pid>.jsonl`` when its outermost span closes (the end of
one Ray task), because worker processes are killed without an exit hook.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import threading
import time


class Recorder:
    """In-memory span buffer for one process."""

    def __init__(self, spans_dir: str | None = None):
        self.spans_dir = spans_dir
        self.job = ""
        self.spans: list[tuple] = []
        self._local = threading.local()
        self._next = 0
        self._prefix = f"{os.getpid()}-"

    def _stack(self) -> list:
        st = getattr(self._local, "stack", None)
        if st is None:
            st = self._local.stack = []
        return st

    def open(self, name: str) -> tuple:
        stack = self._stack()
        self._next += 1
        sid = self._prefix + str(self._next)
        parent = stack[-1] if stack else None
        stack.append(sid)
        return (sid, parent, name, time.perf_counter_ns())

    def close(self, token: tuple, attr=None) -> None:
        end = time.perf_counter_ns()
        sid, parent, name, start = token
        stack = self._stack()
        stack.pop()
        self.spans.append((self.job, sid, parent, name, start, end, attr))
        if not stack and self.spans_dir is not None:
            self.flush()

    @contextlib.contextmanager
    def span(self, name: str):
        token = self.open(name)
        try:
            yield
        finally:
            self.close(token)

    def flush(self) -> None:
        """Append the buffer to this process's spans file, then clear it."""
        if not self.spans:
            return
        t0 = time.perf_counter_ns()
        lines = [json.dumps(s) for s in self.spans]
        self.spans.clear()
        with open(os.path.join(self.spans_dir, f"{os.getpid()}.jsonl"), "a") as f:
            f.write("\n".join(lines) + "\n")
            # the flush is tracer cost, not engine time: recorded so the
            # engine-overhead figure can leave it out
            flush = (self.job, f"{self._prefix}flush-{t0}", None, "trace.flush", t0, time.perf_counter_ns(), None)
            f.write(json.dumps(flush) + "\n")


def wrap(rec: Recorder, name: str, fn, attr_of=None):
    """``fn`` inside a span; ``attr_of(result)`` (optional) is stored on it."""

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        token = rec.open(name)
        try:
            out = fn(*args, **kwargs)
        except BaseException:
            rec.close(token, "raised")
            raise
        rec.close(token, attr_of(out) if attr_of is not None else None)
        return out

    return traced


def patch(rec: Recorder, module, attr: str, name: str, attr_of=None) -> None:
    setattr(module, attr, wrap(rec, name, getattr(module, attr), attr_of))


def _read_span_source(rec: Recorder, gen_fn):
    """The shard reader is a generator: time each ``next`` (the parquet
    read and slicing), and record the bytes of each yielded batch."""

    @functools.wraps(gen_fn)
    def traced(*args, **kwargs):
        it = gen_fn(*args, **kwargs)
        while True:
            token = rec.open("pipelines.read")
            try:
                batch = next(it)
            except StopIteration:
                rec.close(token, 0)
                return
            rec.close(token, batch.nbytes)
            yield batch

    return traced


def install_worker(rec: Recorder) -> None:
    """Wrap the names that the shard task, the stage and the kernel call."""
    import dots_ocr_ray.kernel.extract as kx
    import dots_ocr_ray.pipelines.extract as px
    import dots_ocr_ray.stages.extract_stage as sx

    task = px._run_shard_task

    @functools.wraps(task)
    def traced_task(batch, **kwargs):
        # one extraction job per out_dir: its name is the job id
        rec.job = os.path.basename(os.path.normpath(kwargs["out_dir"]))
        token = rec.open("pipelines.task")
        try:
            return task(batch, **kwargs)
        finally:
            rec.close(token)

    px._run_shard_task = traced_task
    patch(rec, px, "_process_one_shard", "pipelines.unit")
    px._shard_record_batches = _read_span_source(rec, px._shard_record_batches)
    patch(rec, px, "write_partition_atomic", "state.write_partition")
    sx.ExtractorActor.__call__ = wrap(rec, "stages.call", sx.ExtractorActor.__call__)
    patch(rec, sx, "extract_page", "kernel.extract_page", attr_of=lambda r: r["status"])
    patch(rec, kx, "segment_html", "kernel.segment_html")
    patch(rec, kx, "prune_boilerplate", "kernel.prune_boilerplate")
    patch(rec, kx, "strip_tags", "kernel.strip_tags")
    patch(rec, kx, "remove_duplicate_pairs_and_bboxes", "kernel.dedup")


def install_local(rec: Recorder) -> None:
    """Wrap the names called in this process: the shard job, the resume scan, the
    marker reads, the job-stats write and the keyed-fold planners."""
    import ray.data

    import dots_ocr_ray.pipelines.extract as px
    import dots_ocr_ray.state.manifest as mf
    import dots_ocr_ray.util as util

    patch(rec, px, "extract_shards", "pipelines.extract_shards")
    patch(rec, px, "completed_partitions", "state.completed_partitions")
    # extract_shards imports these two from the manifest module at call time
    patch(rec, mf, "read_marker", "state.read_marker")
    patch(rec, mf, "write_job_stats", "state.write_job_stats")
    patch(rec, util, "bucket_keyed_fold", "util.bucket_keyed_fold")

    groupby = ray.data.Dataset.groupby

    @functools.wraps(groupby)
    def traced_groupby(self, key, *args, **kwargs):
        if key == "__bucket":
            token = rec.open("pipelines.bucket_groupby")
            rec.close(token)
        return groupby(self, key, *args, **kwargs)

    ray.data.Dataset.groupby = traced_groupby


def make_trace_hook(root: str, bench_dir: str, spans_dir: str, chained):
    """A by-value ``worker_process_setup_hook``: run ``chained`` (the
    package's quiet hook), then install the worker wrappers.  The paths
    travel inside the closure because the hook runs before the main process's
    ``sys.path`` reaches the worker."""

    def _hook():
        import sys

        chained()
        for p in (root, bench_dir):
            if p not in sys.path:
                sys.path.insert(0, p)
        import spans

        spans.install_worker(spans.Recorder(spans_dir))

    return _hook


def load(spans_dir: str) -> list[tuple]:
    """Every span the workers wrote under ``spans_dir``."""
    out = []
    for name in sorted(os.listdir(spans_dir)):
        with open(os.path.join(spans_dir, name)) as f:
            out.extend(tuple(json.loads(line)) for line in f if line.strip())
    return out
