"""Guard for the benchmark's layer tracing (``perfbench/spans.py``).

The traced benchmark run wraps module-level names where their callers
look them up (``kernel.extract.segment_html``,
``stages.extract_stage.extract_page``, ...).  A refactor that renames
one crashes every traced run; one that bypasses it leaves its layer
row at zero.  Both fail here instead.
"""

import importlib.util
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", os.path.join(ROOT, "perfbench", "spans.py"))
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


@pytest.fixture
def patched_namespaces():
    """Every namespace the installers patch, restored afterwards."""
    import ray.data

    import dots_ocr_ray.kernel.extract as kx
    import dots_ocr_ray.pipelines.extract as px
    import dots_ocr_ray.state.manifest as mf
    import dots_ocr_ray.stages.extract_stage as sx
    import dots_ocr_ray.util as util

    targets = [kx, px, mf, sx, util, sx.ExtractorActor, ray.data.Dataset]
    saved = [(t, dict(vars(t))) for t in targets]
    yield
    for t, before in saved:
        for name, value in list(vars(t).items()):
            if before.get(name, value) is not value:
                setattr(t, name, before[name])


def test_kernel_layers_recorded(patched_namespaces):
    spans = _load_spans()
    rec = spans.Recorder()
    spans.install_worker(rec)
    spans.install_local(rec)

    import dots_ocr_ray.stages.extract_stage as sx
    from dots_ocr_ray.fixtures import make_pages_table

    # row 0 runs the structured parse; row 9 (empty html) falls back
    pages = make_pages_table(10, seed=42)
    out = sx.ExtractorActor()(pages)
    assert set(out.column("status").to_pylist()) == {"finished", "fallback"}
    names = [s[3] for s in rec.spans]
    for name in (
        "stages.call",
        "kernel.extract_page",
        "kernel.segment_html",
        "kernel.prune_boilerplate",
        "kernel.dedup",
        "kernel.strip_tags",
    ):
        assert name in names, name
    # the stage's column path still makes one kernel call per row, and
    # the kernel one segmentation and one prune per row with html
    with_html = sum(1 for h in pages.column("html").to_pylist() if h and h.strip())
    assert 0 < with_html < pages.num_rows
    assert names.count("kernel.extract_page") == pages.num_rows
    assert names.count("kernel.segment_html") == with_html
    assert names.count("kernel.prune_boilerplate") == with_html


def test_shard_task_layers_recorded(patched_namespaces, tmp_path):
    """The shard task as the Ray job calls it, in-process: the task,
    unit, read and partition-write layers must all be recorded."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    spans = _load_spans()
    rec = spans.Recorder()
    spans.install_worker(rec)

    import dots_ocr_ray.pipelines.extract as px
    from dots_ocr_ray.kernel.extract import ExtractConfig
    from dots_ocr_ray.fixtures import make_pages_table

    src = str(tmp_path / "shard.parquet")
    pq.write_table(make_pages_table(6, seed=42), src)
    out_dir = str(tmp_path / "job")
    work = pa.table({"shard": [0], "path": [src], "row_groups": pa.array([None], pa.list_(pa.int64()))})
    cpus, io = pa.cpu_count(), pa.io_thread_count()
    try:
        metrics = px._run_shard_task(work, out_dir=out_dir, config=ExtractConfig(), batch_size=4)
    finally:  # the task pins pyarrow to one thread for its process
        pa.set_cpu_count(cpus)
        pa.set_io_thread_count(io)
    assert metrics.column("input_rows").to_pylist() == [6]
    assert os.path.exists(os.path.join(out_dir, "part-00000.done"))
    names = [s[3] for s in rec.spans]
    for name in ("pipelines.task", "pipelines.unit", "pipelines.read", "state.write_partition", "stages.call"):
        assert name in names, name
    assert names.count("pipelines.read") == 3  # two batches, then the exhausted generator
    assert {s[0] for s in rec.spans} == {"job"}  # job id = the out_dir's name


def test_fold_layers_recorded(ray_session, patched_namespaces, monkeypatch):
    """The keyed-fold queries of the benchmark's ``fold_queries``
    workload: their exchanges must still be seen by the
    ``util.bucket_keyed_fold`` and ``pipelines.bucket_groupby`` hooks, so
    their per-pass counts stay meaningful (``fd_violations`` runs one
    ``bucket_distinct_counts`` exchange and no keyed fold).  These 5-row
    inputs are folded in one task, so the exchange is forced for the
    ``groupby`` counts; under the defaults the same queries record the
    same folds and no ``groupby``."""
    import pyarrow as pa

    import ray.data

    import dots_ocr_ray.util as util

    spans = _load_spans()
    rec = spans.Recorder()
    spans.install_local(rec)

    from dots_ocr_ray.pipelines.graph import degree_assortativity_stats
    from dots_ocr_ray.pipelines.profile import fd_violations

    def assortativity():
        edges = ray.data.from_arrow(pa.table({"src": [1, 2, 3, 3, 4], "dst": [2, 3, 1, 4, 1]}))
        assert degree_assortativity_stats(edges).num_rows == 1

    def fd_check():
        rows = ray.data.from_arrow(pa.table({"k": [1, 1, 2, 3, 3], "v": [10, 11, 20, 30, 30]}))
        out = fd_violations(rows, det_col="k", dep_col="v")
        assert out.column("n_keys").to_pylist() == [3]
        assert out.column("n_violating").to_pylist() == [1]

    def spans_of(query):
        rec.spans.clear()
        query()
        return [s[3] for s in rec.spans]

    default = [spans_of(assortativity), spans_of(fd_check)]
    monkeypatch.setattr(util, "_fold_in_one_task", lambda rows, nbytes, rows_per_block: False)

    names = spans_of(assortativity)
    assert "util.bucket_keyed_fold" in names
    assert "pipelines.bucket_groupby" in names
    forced = [names]

    names = spans_of(fd_check)
    assert names.count("util.bucket_keyed_fold") == 0
    assert names.count("pipelines.bucket_groupby") == 1
    forced.append(names)

    for d, f in zip(default, forced):
        assert d.count("pipelines.bucket_groupby") == 0
        assert d.count("util.bucket_keyed_fold") == f.count("util.bucket_keyed_fold")
