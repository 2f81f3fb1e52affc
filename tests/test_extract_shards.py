"""Tests for the zero-shuffle shard-aligned extraction pipeline."""

import glob
import os

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from dots_ocr_ray.fixtures import make_pages_table
from dots_ocr_ray.oracle import oracle_extract
from dots_ocr_ray.pipelines.extract import check_fail_gate, extract_shards
from dots_ocr_ray.state.manifest import completed_partitions


@pytest.fixture()
def shard_files(tmp_path):
    pages = make_pages_table(48, seed=42)
    files = []
    for s in range(4):
        f = str(tmp_path / f"shard-{s:02d}.parquet")
        pq.write_table(pages.slice(s * 12, 12), f)
        files.append(f)
    return files, pages


def _read_out(out_dir):
    parts = sorted(glob.glob(os.path.join(out_dir, "part-*.parquet")))
    return pa.concat_tables([pq.read_table(p) for p in parts])


def test_shard_pipeline_byte_identity(ray_session, shard_files, tmp_path):
    files, pages = shard_files
    out_dir = str(tmp_path / "out")
    metrics = extract_shards(files, out_dir)
    assert metrics.num_rows == 4
    out = _read_out(out_dir)
    assert out.num_rows == 48
    expected = oracle_extract(pages)
    for row in out.to_pylist():
        assert row["extracted_text"] == expected[row["url"]]["extracted_text"]
    stats = check_fail_gate(metrics, threshold=0.5)
    assert stats["total"] == 48


def test_shard_resume_skips_done(ray_session, shard_files, tmp_path):
    files, _ = shard_files
    out_dir = str(tmp_path / "out")
    m1 = extract_shards(files, out_dir)
    full = _read_out(out_dir)
    assert completed_partitions(out_dir) == {0, 1, 2, 3}
    # drop shard 2; rerun must recompute ONLY it, others untouched
    os.remove(os.path.join(out_dir, "part-00002.parquet"))
    os.remove(os.path.join(out_dir, "part-00002.done"))
    mtimes = {p: os.path.getmtime(os.path.join(out_dir, f"part-{p:05d}.parquet")) for p in (0, 1, 3)}
    m2 = extract_shards(files, out_dir)
    for p in (0, 1, 3):
        assert os.path.getmtime(os.path.join(out_dir, f"part-{p:05d}.parquet")) == mtimes[p]
    assert _read_out(out_dir).equals(full)  # byte-equal content after resume
    # metrics identical whether computed fresh or folded back from markers
    a = sorted(m1.to_pylist(), key=lambda r: r["partition_id"])
    b = sorted(m2.to_pylist(), key=lambda r: r["partition_id"])
    for ra, rb in zip(a, b):
        for k in ("partition_id", "input_rows", "ok", "fallback", "failed", "bytes_in"):
            assert ra[k] == rb[k], (ra, rb)


def test_mega_shard_split_by_row_groups(ray_session, tmp_path):
    """max_rows_per_task splits an oversized parquet shard into
    row-group runs: more partitions, identical total output, exact
    resume on the split units."""
    import pyarrow.parquet as pq

    from dots_ocr_ray.fixtures import make_pages_table
    from dots_ocr_ray.pipelines.extract import extract_shards
    from dots_ocr_ray.state.manifest import completed_partitions, list_partition_files

    pages = make_pages_table(96, seed=11)
    big = tmp_path / "big.parquet"
    pq.write_table(pages, str(big), row_group_size=16)  # 6 row groups
    small = tmp_path / "small.parquet"
    pq.write_table(make_pages_table(8, seed=12), str(small))

    out_a = tmp_path / "whole"
    m_a = extract_shards([str(big), str(small)], str(out_a), batch_size=16)
    out_b = tmp_path / "split"
    m_b = extract_shards([str(big), str(small)], str(out_b), batch_size=16, max_rows_per_task=40)
    assert m_a.num_rows == 2
    assert m_b.num_rows == 4  # 3 runs of ≤40 rows (16+16, 16+16, 16+16) + small
    assert sum(m_b.column("input_rows").to_pylist()) == 104

    def _all_rows(d):
        tbls = [pq.read_table(f) for f in list_partition_files(str(d))]
        import pyarrow as pa

        return pa.concat_tables(tbls).sort_by("url")

    a, b = _all_rows(out_a), _all_rows(out_b)
    assert a.column("extracted_text").to_pylist() == b.column("extracted_text").to_pylist()

    # resume on split units: drop one unit, rerun, only that unit redone
    import os

    victim = 1
    os.remove(str(out_b / f"part-{victim:05d}.parquet"))
    os.remove(str(out_b / f"part-{victim:05d}.done"))
    m_b2 = extract_shards([str(big), str(small)], str(out_b), batch_size=16, max_rows_per_task=40)
    assert completed_partitions(str(out_b)) == {0, 1, 2, 3}
    redone = [r for r in m_b2.to_pylist() if r["wall_ms"] > 0]
    assert len(redone) == 1 and redone[0]["partition_id"] == victim


def test_extract_shards_persists_job_stats(ray_session, tmp_path, shard_files):
    """Every run leaves _job_stats.json next to the partitions: job
    totals, and the Ray Data per-stage stats string of the run."""
    from dots_ocr_ray.state.manifest import read_job_stats

    files, _ = shard_files
    out = str(tmp_path / "out")
    metrics = extract_shards(files, out, batch_size=64)
    stats = read_job_stats(out)
    assert stats["job"] == "extract_shards"
    assert stats["fresh_partitions"] == 4 and stats["resumed_partitions"] == 0
    assert stats["totals"]["input_rows"] == sum(metrics.column("input_rows").to_pylist())
    assert isinstance(stats["dataset_stats"], str) and stats["dataset_stats"]
    # the packing it ran: the session's 4 CPU slots allow 8 blocks, 4 units fill 4
    assert stats["slots"] == 4 and stats["tasks"] == 4

    # resumed run: stats rewritten, zero fresh partitions, nothing run
    extract_shards(files, out, batch_size=64)
    stats2 = read_job_stats(out)
    assert stats2["fresh_partitions"] == 0 and stats2["resumed_partitions"] == 4
    assert stats2["slots"] == 4 and stats2["tasks"] == 0
    assert stats2["totals"]["input_rows"] == stats["totals"]["input_rows"]


def test_truncated_marker_redoes_partition(ray_session, shard_files, tmp_path):
    """A done marker cut short (a crash mid-write on a store without
    atomic rename) must not crash resume: its partition counts as not
    done and is extracted again, not folded in from the bad marker."""
    from dots_ocr_ray.state.manifest import read_marker

    files, _ = shard_files
    out_dir = str(tmp_path / "out")
    m1 = extract_shards(files, out_dir)
    full = _read_out(out_dir)
    marker = os.path.join(out_dir, "part-00001.done")
    with open(marker, "rb") as f:
        raw = f.read()
    with open(marker, "wb") as f:
        f.write(raw[: len(raw) // 2])
    assert read_marker(out_dir, 1) is None

    m2 = extract_shards(files, out_dir)
    redone = [r["partition_id"] for r in m2.to_pylist() if r["wall_ms"] > 0]
    assert redone == [1]
    assert read_marker(out_dir, 1)["rows"] == 12
    assert _read_out(out_dir).equals(full)
    for k in ("partition_id", "input_rows", "ok", "fallback", "failed", "bytes_in"):
        assert m2.column(k).to_pylist() == m1.column(k).to_pylist(), k


def test_packed_job_many_small_shards(ray_session, tmp_path):
    """20 tiny shards on 4 CPU slots run as 8 packed tasks; the output
    equals the oracle with every url once, and a resume after 3 lost
    units plans and redoes only those 3."""
    from dots_ocr_ray.state.manifest import read_job_stats

    pages = make_pages_table(60, seed=8)
    files = []
    for s in range(20):
        f = str(tmp_path / f"shard-{s:02d}.parquet")
        pq.write_table(pages.slice(s * 3, 3), f)
        files.append(f)
    out_dir = str(tmp_path / "out")
    extract_shards(files, out_dir)
    stats = read_job_stats(out_dir)
    assert stats["tasks"] == 8 and stats["fresh_partitions"] == 20
    out = _read_out(out_dir)
    urls = out.column("url").to_pylist()
    assert sorted(urls) == sorted(pages.column("url").to_pylist())
    assert len(set(urls)) == len(urls) == 60
    expected = oracle_extract(pages)
    for row in out.to_pylist():
        assert row["extracted_text"] == expected[row["url"]]["extracted_text"]
    full = out

    lost = (2, 11, 17)
    for pid in lost:
        for ext in ("parquet", "done"):
            os.remove(os.path.join(out_dir, f"part-{pid:05d}.{ext}"))
    kept = {p: os.path.getmtime(os.path.join(out_dir, f"part-{p:05d}.parquet")) for p in range(20) if p not in lost}
    extract_shards(files, out_dir)
    stats2 = read_job_stats(out_dir)
    assert stats2["tasks"] == 3 and stats2["fresh_partitions"] == 3 and stats2["resumed_partitions"] == 17
    for p, mtime in kept.items():
        assert os.path.getmtime(os.path.join(out_dir, f"part-{p:05d}.parquet")) == mtime
    assert completed_partitions(out_dir) == set(range(20))
    assert _read_out(out_dir).equals(full)


def test_marker_content_md5_is_the_units_texts(ray_session, shard_files, tmp_path):
    """A unit's marker carries the md5 of its extracted_text values
    joined, in part-file order."""
    import hashlib

    from dots_ocr_ray.state.manifest import read_marker

    files, _ = shard_files
    out_dir = str(tmp_path / "out")
    extract_shards(files, out_dir)
    for p in range(len(files)):
        texts = pq.read_table(os.path.join(out_dir, f"part-{p:05d}.parquet")).column("extracted_text").to_pylist()
        assert read_marker(out_dir, p)["content_md5"] == hashlib.md5("".join(texts).encode("utf-8")).hexdigest()


def test_worker_heap_frozen_after_one_shard_task(ray_session, shard_files, tmp_path):
    """The first shard task in a Ray worker freezes the collector's view
    of its imports (Ray, pyarrow, the package); the worker setup hook
    stays a by-value closure that loads where the package does not."""
    import subprocess
    import sys

    import ray
    from ray import cloudpickle

    import dots_ocr_ray.pipelines.extract as px
    from dots_ocr_ray.kernel.extract import ExtractConfig
    from dots_ocr_ray.util import make_quiet_hook

    @ray.remote(num_cpus=1)
    def one_shard_task(path, out_dir):
        import gc

        work = pa.table({"shard": [0], "path": [path], "row_groups": pa.array([None], pa.list_(pa.int64()))})
        px._run_shard_task(work, out_dir=out_dir, config=ExtractConfig(), batch_size=8)
        return gc.get_freeze_count()

    files, _ = shard_files
    assert ray.get(one_shard_task.remote(files[0], str(tmp_path / "out"))) >= 100_000

    load = "import pickle, sys; pickle.loads(sys.stdin.buffer.read())(); print('ok')"
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "-c", load],
        input=cloudpickle.dumps(make_quiet_hook()),
        cwd=str(tmp_path),
        env=env,
        capture_output=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout.decode().strip() == "ok"
