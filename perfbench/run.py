"""The repository benchmark: the ``dots_ocr_ray.cli extract`` job (and a
list of keyed-fold queries) on seeded inputs, one job at a time.

    python3 perfbench/run.py --workload cc_pages --seed 1 --seconds 8 --trace 0

Run from the root of a checkout.  The benchmark starts Ray itself with
``num_cpus`` = ``nproc``, so the CLI's own guarded ``ray.init`` is
skipped, then calls ``cli.main(["extract", ...])`` in-process (closed
loop, one client) until ``--seconds`` of timed jobs have run.  Each job
writes to a fresh ``--out`` directory, and its output is compared per
url with the single-process oracle.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs
untraced jobs for half the time, restarts Ray with the tracing hook
(``spans.py``), runs traced jobs for the other half and prints the
per-layer metrics listed in ``LAYERS.md``.  The last stdout line is the
result object; the line before it records the host and per-run detail.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import glob
import json
import math
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORK = os.path.join(ROOT, ".perfbench")

# set-ups per run (ray.init, every worker started, a warm-up job);
# setup_s is their median
SETUPS = 2
# share of the units (rounded up) a traced extraction run deletes before
# its resume re-run
RESUME_SHARE = 0.1
# the jobs' working set is a few MB; keep Ray's shared-memory store small
OBJECT_STORE_BYTES = 512 << 20
# Ray's session files stay in the checkout, unless the path is too deep
# for the 107-byte limit of the unix sockets Ray creates under it; then
# Ray's default temp dir is used
RAY_TEMP = os.path.join(WORK, "ray") if len(WORK) <= 40 else None


def nproc() -> int:
    """What ``nproc`` prints: honours OMP_NUM_THREADS and the affinity mask."""
    try:
        return int(subprocess.run(["nproc"], capture_output=True, text=True, check=True).stdout)
    except (OSError, ValueError, subprocess.CalledProcessError):
        return len(os.sched_getaffinity(0))


class Run:
    """One benchmark run: its Ray sessions, job directories and, in the
    traced half of a traced run, the benchmark process's span recorder."""

    def __init__(self, args, num_cpus: int, digest: str):
        self.args = args
        self.num_cpus = num_cpus
        self.digest = digest
        self.dir = os.path.join(WORK, f"run-{os.getpid()}")
        self.spans_dir = os.path.join(self.dir, "spans")
        os.makedirs(self.spans_dir)
        self.jobs = 0
        self.workers = 0
        self.rec = None

    def setup(self, w: "Workload", traced: bool = False) -> float:
        """Start Ray, start every worker with the workload's modules
        imported, and run one untimed warm-up job: the time until the
        first timed job may start."""
        import ray
        from ray.data import DataContext

        from dots_ocr_ray.util import make_quiet_hook, quiet_ray_data_schema_warnings

        t0 = time.perf_counter()
        hook = make_quiet_hook()
        if traced:
            import spans

            hook = spans.make_trace_hook(ROOT, BENCH_DIR, self.spans_dir, hook)
        quiet_ray_data_schema_warnings()
        ray.init(
            address="local",
            num_cpus=self.num_cpus,
            include_dashboard=False,
            logging_level="ERROR",
            object_store_memory=OBJECT_STORE_BYTES,
            _temp_dir=RAY_TEMP,
            runtime_env={"worker_process_setup_hook": hook},
        )
        DataContext.get_current().enable_progress_bars = False
        self.workers = warm_workers(self.num_cpus, w.worker_modules)
        w.warmup()
        return time.perf_counter() - t0

    def job_dir(self) -> str:
        self.jobs += 1
        return os.path.join(self.dir, f"job-{self.jobs:04d}")

    def close(self) -> None:
        shutdown_ray()
        shutil.rmtree(self.dir, ignore_errors=True)
        if RAY_TEMP:
            shutil.rmtree(RAY_TEMP, ignore_errors=True)


class Workload:
    """Inputs, a warm-up job and a timed job, plus what the timed jobs
    recorded: wall times, time windows (for matching spans), bytes
    written and the correctness tally."""

    rows_per_job = 0
    control_docs_per_s = 0.0
    # what the workers of a job import
    worker_modules = ("pyarrow.parquet", "ray.data")

    def __init__(self, run: Run):
        self.run = run
        self.attempted = 0
        self.failed = 0
        self.job_s: list[float] = []
        self.windows: list[tuple[int, int]] = []
        self.out_bytes: list[int] = []

    def record(self, t0_ns: int, t1_ns: int, out_bytes: int) -> None:
        self.job_s.append((t1_ns - t0_ns) / 1e9)
        self.windows.append((t0_ns, t1_ns))
        self.out_bytes.append(out_bytes)

    def warmup(self) -> None:
        raise NotImplementedError

    def job(self) -> None:
        raise NotImplementedError

    def traced_extra(self) -> dict:
        """Per-layer metrics from traced jobs other than the timed ones."""
        return {}

    def median_job_s(self, first: int = 0) -> float:
        """Median time of the timed jobs from the ``first``-th on."""
        return statistics.median(self.job_s[first:])


def warm_workers(num_cpus: int, modules: tuple[str, ...]) -> int:
    """Start all ``num_cpus`` workers and import ``modules`` in each;
    returns how many distinct workers did.  A warm-up job alone leaves
    some workers cold: its short tasks reuse one leased worker, and the
    first timed job then pays the others' start and imports."""
    import ray

    @ray.remote(num_cpus=1)
    def load(mods):
        import importlib

        for m in mods:
            importlib.import_module(m)
        # hold the slot, so each concurrent task leases its own worker
        time.sleep(0.5)
        return os.getpid()

    return len(set(ray.get([load.remote(modules) for _ in range(num_cpus)])))


def cli_extract(run: Run, shards: str, out_dir: str) -> tuple[int, int]:
    """One CLI extraction job; returns its start and end (perf_counter_ns)."""
    from dots_ocr_ray import cli

    if run.rec is not None:
        run.rec.job = os.path.basename(out_dir)
    t0 = time.perf_counter_ns()
    with contextlib.redirect_stdout(sys.stderr):
        rc = cli.main(["extract", "--input", f"{shards}/*.parquet", "--out", out_dir])
    t1 = time.perf_counter_ns()
    if rc != 0:
        raise RuntimeError(f"extract exited with {rc}")
    return t0, t1


def count_wrong(out_dir: str, oracle: dict) -> int:
    """Input urls missing from the output, duplicated in it, or whose
    texts differ from the oracle, plus output urls that are not inputs.
    A kernel ``status="failed"`` row is not wrong: the oracle has it too."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    parts = sorted(glob.glob(f"{out_dir}/part-*.parquet"))
    cols = ["url", "extracted_text", "extracted_text_nohf"]
    got: dict[str, list] = collections.defaultdict(list)
    if parts:
        t = pa.concat_tables([pq.read_table(p, columns=cols) for p in parts])
        for u, a, b in zip(*(t.column(c).to_pylist() for c in cols)):
            got[u].append((a, b))
    wrong = sum(1 for u, want in oracle.items() if got.get(u) != [want])
    return wrong + sum(1 for u in got if u not in oracle)


def bytes_written(out_dir: str, since_ns: int) -> int:
    """Bytes of the files under ``out_dir`` written at or after ``since_ns``."""
    total = 0
    for dirpath, _, names in os.walk(out_dir):
        for n in names:
            st = os.stat(os.path.join(dirpath, n))
            if st.st_mtime_ns >= since_ns:
                total += st.st_size
    return total


class Extraction(Workload):
    """The CLI extract job over one seeded pages corpus.  In a traced run
    the last timed output also takes a resume re-run: a seeded 10% of
    its units lose part file and marker (what a crashed run leaves), and
    the re-run must redo exactly those units."""

    worker_modules = Workload.worker_modules + ("dots_ocr_ray.pipelines.extract",)

    def __init__(self, run: Run, kind: str):
        import pyarrow.parquet as pq

        import inputs

        super().__init__(run)
        self.corpus = inputs.pages_corpus(os.path.join(WORK, "cache"), kind, run.args.seed, run.digest)
        with open(f"{self.corpus}/meta.json") as f:
            self.meta = json.load(f)
        self.rows_per_job = self.meta["rows"]
        self.control_docs_per_s = self.meta["kernel_docs_per_s"]
        t = pq.read_table(f"{self.corpus}/oracle.parquet")
        self.oracle = dict(
            zip(
                t.column("url").to_pylist(),
                zip(t.column("extracted_text").to_pylist(), t.column("extracted_text_nohf").to_pylist()),
            )
        )
        self.last_out = None

    def warmup(self) -> None:
        cli_extract(self.run, f"{self.corpus}/warmup", self.run.job_dir())

    def extract(self, out: str) -> tuple[int, int, int]:
        """Run one job into ``out`` and check it; returns (start, end, bytes written)."""
        since = time.time_ns()
        t0, t1 = cli_extract(self.run, f"{self.corpus}/shards", out)
        self.attempted += self.meta["rows"]
        self.failed += count_wrong(out, self.oracle)
        return t0, t1, bytes_written(out, since)

    def job(self) -> None:
        if self.last_out is not None:
            shutil.rmtree(self.last_out)
        self.last_out = self.run.job_dir()
        self.record(*self.extract(self.last_out))

    def traced_extra(self) -> dict:
        units = self.meta["units"]
        removed = random.Random(self.run.args.seed).sample(range(units), math.ceil(units * RESUME_SHARE))
        for i in removed:
            for ext in ("parquet", "done"):
                os.remove(os.path.join(self.last_out, f"part-{i:05d}.{ext}"))
        # a directory of its own gives the re-run its own job id
        damaged = self.run.job_dir()
        os.rename(self.last_out, damaged)
        self.last_out = damaged
        t0, t1, _ = self.extract(damaged)
        row = layer_row(self.run, t0, t1, resumed=True)
        keep = ("state.completed_partitions_s", "state.markers_read", "state.read_marker_s", "pipelines.units_redone")
        out = {k: row[k] for k in keep}
        out["pipelines.units_removed"] = (len(removed), "count")
        return out


class FoldQueries(Workload):
    """One pass over the keyed-fold query list per job, each result
    collected into this process and checked against its SQL oracle."""

    worker_modules = Workload.worker_modules + (
        "pandas",
        *(f"dots_ocr_ray.pipelines.{m}" for m in ("dedup", "graph", "profile", "windows")),
    )

    def __init__(self, run: Run):
        import inputs

        super().__init__(run)
        self.dir = inputs.fold_tables(os.path.join(WORK, "cache"), run.args.seed, run.digest)
        with open(f"{self.dir}/meta.json") as f:
            self.meta = json.load(f)
        self.names = list(inputs.FOLD_QUERIES)
        self.rows_per_job = sum(self.meta["table_rows"][t] for t in inputs.FOLD_QUERIES.values())
        self.query_s: list[list[float]] = []

    def median_job_s(self, first: int = 0) -> float:
        """The sum over the queries of each one's median time.  Stalls of
        a few seconds hit single queries of single passes: a median pass
        time is spoilt once two of a run's four or so passes hold one,
        a query's median only once that query stalls in half of them."""
        passes = self.query_s[first:]
        return sum(statistics.median(p[i] for p in passes) for i in range(len(self.names)))

    def one_pass(self, tables: str, names: list[str]) -> tuple[int, int, list, list]:
        """Run ``names`` in turn; returns start, end, results and each
        query's own time."""
        import pandas as pd

        import __ray_entry__ as entry

        queries = entry.queries()
        rec = self.run.rec
        if rec is not None:
            self.run.jobs += 1
            rec.job = f"pass-{self.run.jobs:04d}"
        results, took = [], []
        t0 = time.perf_counter_ns()
        for name in names:
            q0 = time.perf_counter()
            with rec.span(f"query.{name}") if rec is not None else contextlib.nullcontext():
                out = queries[name](tables)
                results.append(out if isinstance(out, pd.DataFrame) else out.to_pandas())
            took.append(time.perf_counter() - q0)
        return t0, time.perf_counter_ns(), results, took

    def warmup(self) -> None:
        # every query once, over small tables: each imports its own
        # pipeline modules in the workers on first use
        self.one_pass(f"{self.dir}/warmup", self.names)

    def job(self) -> None:
        import inputs

        t0, t1, results, took = self.one_pass(f"{self.dir}/tables", self.names)
        self.query_s.append(took)
        for name, df in zip(self.names, results):
            self.attempted += 1
            self.failed += inputs.canon_hash(df) != self.meta["expected"][name]
        self.record(t0, t1, sum(int(df.memory_usage(deep=True).sum()) for df in results))


WORKLOADS = {
    "cc_pages": lambda run: Extraction(run, "cc"),
    "fold_queries": FoldQueries,
}


def cpu_jiffies() -> list[int]:
    """The aggregate ``cpu`` line of /proc/stat (user, nice, system, idle,
    iowait, irq, softirq, steal, ...)."""
    with open("/proc/stat") as f:
        return [int(v) for v in f.readline().split()[1:]]


def timed_loop(seconds: float, w: Workload) -> None:
    """Run ``w.job()`` back to back for about ``seconds``: at least once,
    and no new job once less than half the last job's time is left."""
    end = time.perf_counter() + seconds
    w.job()
    while end - time.perf_counter() > w.job_s[-1] / 2:
        w.job()


def descendants() -> list[int]:
    """Live (not zombie) processes started by this one, at any depth."""
    parent, state = {}, {}
    for pid in filter(str.isdigit, os.listdir("/proc")):
        try:
            with open(f"/proc/{pid}/stat") as f:
                fields = f.read().rsplit(")", 1)[1].split()
        except (OSError, IndexError):
            continue
        parent[int(pid)], state[int(pid)] = int(fields[1]), fields[0]
    me = os.getpid()

    def ours(pid: int) -> bool:
        while pid > 1:
            pid = parent.get(pid, 0)
            if pid == me:
                return True
        return False

    return [pid for pid in parent if state[pid] != "Z" and ours(pid)]


def shutdown_ray(timeout: float = 30.0) -> None:
    """``ray.shutdown()`` signals Ray's processes without waiting for
    them: wait until they have ended, and kill what outlives ``timeout``."""
    import ray

    # listed before the shutdown: a worker whose raylet exits first is
    # re-parented and no longer looks like ours
    started = descendants()
    ray.shutdown()
    end = time.perf_counter() + timeout
    while (left := [p for p in started if alive(p)]) and time.perf_counter() < end:
        time.sleep(0.05)
    for pid in left:
        with contextlib.suppress(OSError):
            os.kill(pid, signal.SIGKILL)


def alive(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat") as f:
            return f.read().rsplit(")", 1)[1].split()[0] != "Z"
    except (OSError, IndexError):
        return False


def worker_peak_rss_mb() -> float:
    """Largest VmHWM over the Ray worker processes this run started."""
    peak_kb = 0
    for pid in descendants():
        try:
            with open(f"/proc/{pid}/cmdline", "rb") as f:
                cmd = f.read()
            if not (cmd.startswith(b"ray::") or b"default_worker.py" in cmd):
                continue
            with open(f"/proc/{pid}/status") as f:
                for line in f:
                    if line.startswith("VmHWM:"):
                        peak_kb = max(peak_kb, int(line.split()[1]))
        except (OSError, ValueError):
            continue
    return peak_kb / 1024


def untraced_run(run: Run, w: Workload) -> tuple[dict, dict]:
    """``SETUPS`` Ray sessions, each set up and then timed for an equal
    share of the run, so that the medians span more than one session."""
    setups = []
    for i in range(SETUPS):
        if i:
            shutdown_ray()
        setups.append(run.setup(w))
        timed_loop(run.args.seconds / SETUPS, w)
    job_s = w.median_job_s()
    metrics = {
        "job_s": (job_s, "s"),
        "docs_per_s": (w.rows_per_job / job_s, "1/s"),
        "setup_s": (statistics.median(setups), "s"),
        "worker_peak_rss_mb": (worker_peak_rss_mb(), "MB"),
        "out_mb": (statistics.median(w.out_bytes) / 1e6, "MB"),
    }
    return metrics, {"setups_s": setups, "warm_workers": run.workers}


def traced_run(run: Run, w: Workload) -> tuple[dict, dict]:
    """Half the time untraced, then Ray restarted with the tracing hook
    and the wrappers in this process, and half the time traced."""
    import spans

    run.setup(w)
    timed_loop(run.args.seconds / 2, w)
    untraced = w.median_job_s()
    first = len(w.job_s)
    shutdown_ray()
    run.rec = spans.Recorder()
    spans.install_local(run.rec)
    run.setup(w, traced=True)
    timed_loop(run.args.seconds / 2, w)
    rows = [layer_row(run, lo, hi) for lo, hi in w.windows[first:]]
    metrics = {k: (statistics.median(r[k][0] for r in rows), unit) for k, (_, unit) in rows[0].items()}
    traced = w.median_job_s(first)
    metrics["control.kernel_docs_per_s"] = (w.control_docs_per_s, "1/s")
    metrics["control.trace_overhead_share"] = ((traced - untraced) / untraced, "ratio")
    metrics.update(w.traced_extra())
    return metrics, {"untraced_jobs": first, "warm_workers": run.workers}


def layer_row(run: Run, lo: int, hi: int, resumed: bool = False) -> dict:
    """Layer figures of the job that ran from ``lo`` to ``hi``: jobs run
    one at a time, so its spans are the ones inside that window."""
    import inputs
    import spans

    job = [s for s in spans.load(run.spans_dir) + run.rec.spans if lo <= s[4] and s[5] <= hi]
    dur = collections.defaultdict(float)
    count = collections.Counter()
    for s in job:
        dur[s[3]] += (s[5] - s[4]) / 1e9
        count[s[3]] += 1
    kernel_ids = {s[1] for s in job if s[3] == "kernel.extract_page"}
    child_s = sum((s[5] - s[4]) / 1e9 for s in job if s[2] in kernel_ids)
    calls = count["kernel.extract_page"]
    finished = sum(1 for s in job if s[3] == "kernel.extract_page" and s[6] == "finished")
    read_bytes = sum(s[6] or 0 for s in job if s[3] == "pipelines.read")
    busy = dur["pipelines.task"]
    job_s = (hi - lo) / 1e9
    row = {
        "kernel.calls": (calls, "count"),
        "kernel.extract_page_s": (dur["kernel.extract_page"], "s"),
        "kernel.segment_html_s": (dur["kernel.segment_html"], "s"),
        "kernel.prune_boilerplate_s": (dur["kernel.prune_boilerplate"], "s"),
        "kernel.dedup_s": (dur["kernel.dedup"], "s"),
        "kernel.strip_tags_s": (dur["kernel.strip_tags"], "s"),
        "kernel.self_s": (dur["kernel.extract_page"] - child_s, "s"),
        "kernel.finished_share": (finished / calls if calls else 0.0, "ratio"),
        "stages.batches": (count["stages.call"], "count"),
        "stages.call_s": (dur["stages.call"], "s"),
        "stages.arrow_build_s": (dur["stages.call"] - dur["kernel.extract_page"], "s"),
        "pipelines.units": (count["pipelines.unit"], "count"),
        "pipelines.read_s": (dur["pipelines.read"], "s"),
        "pipelines.read_mb": (read_bytes / 1e6, "MB"),
        "pipelines.worker_busy_s": (busy, "s"),
        # writing spans out is tracer cost, neither busy nor engine time
        "pipelines.engine_overhead_s": (job_s - (busy + dur["trace.flush"]) / run.num_cpus if busy else 0.0, "s"),
        "pipelines.bucket_groupbys": (count["pipelines.bucket_groupby"], "count"),
        "state.partitions_written": (count["state.write_partition"], "count"),
        "state.write_partition_s": (dur["state.write_partition"], "s"),
        "state.write_job_stats_s": (dur["state.write_job_stats"], "s"),
        "state.completed_partitions_s": (dur["state.completed_partitions"], "s"),
        "state.markers_read": (count["state.read_marker"], "count"),
        "state.read_marker_s": (dur["state.read_marker"], "s"),
        "pipelines.units_redone": (count["pipelines.unit"] if resumed else 0, "count"),
        "pipelines.units_removed": (0, "count"),
        "util.bucket_keyed_fold_calls": (count["util.bucket_keyed_fold"], "count"),
    }
    for name in inputs.FOLD_QUERIES:
        row[f"query.{name}_s"] = (dur[f"query.{name}"], "s")
    return row


def host_info(num_cpus: int, seed: int, digest: str) -> dict:
    import pyarrow
    import ray

    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = None  # a benchmark checkout is not a git repository
    return {
        "nproc": nproc(),
        "os_cpu_count": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "ray_num_cpus": num_cpus,
        "python": platform.python_version(),
        "ray": ray.__version__,
        "pyarrow": pyarrow.__version__,
        "commit": commit,
        "source_digest": digest,
        "seed": seed,
    }


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    sys.path[:0] = [ROOT, os.path.join(ROOT, "tools")]
    try:
        import dots_ocr_ray  # noqa: F401
        import selfcheck  # noqa: F401
    except ImportError as exc:
        print(f"run.py: not at the root of a dots_ocr_ray checkout: {exc}", file=sys.stderr)
        return 2
    import inputs

    num_cpus = nproc()
    digest = inputs.source_digest(ROOT)
    os.makedirs(WORK, exist_ok=True)
    run = Run(args, num_cpus, digest)
    before = cpu_jiffies()
    try:
        w = WORKLOADS[args.workload](run)
        metrics, detail = (traced_run if args.trace else untraced_run)(run, w)
    finally:
        run.close()
    delta = [b - a for a, b in zip(before, cpu_jiffies())]
    detail["job_s"] = w.job_s
    # share of CPU time the hypervisor gave to other guests during the
    # run: a high value marks a run slowed by a noisy neighbour
    detail["steal_share"] = delta[7] / max(1, sum(delta))
    print(json.dumps({"host": host_info(num_cpus, args.seed, digest), "workload": args.workload, "detail": detail}))
    result = {
        "correct": w.failed == 0,
        "attempted": w.attempted,
        "failed": w.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
