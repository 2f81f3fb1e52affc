"""Resumable-output tests (reference S9/J4 md5-gate analog,
SURVEY.md §5.4): rerun after partial completion recomputes only the
missing partitions and bytes match; markers, their content hash, and
the manifest layer."""

import glob
import os

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

import ray
import ray.data

from dots_ocr_ray.fixtures import make_pages_table
from dots_ocr_ray.pipelines.extract import extract_pages, extract_shards
from dots_ocr_ray.state.manifest import completed_partitions, read_marker


@pytest.fixture()
def out_dir(tmp_path):
    return str(tmp_path / "out")


def _write_shards(tmp_path, pages: pa.Table, n_shards: int) -> list[str]:
    files = []
    per = -(-pages.num_rows // n_shards)
    for s in range(n_shards):
        f = str(tmp_path / f"in-{s:02d}.parquet")
        pq.write_table(pages.slice(s * per, per), f)
        files.append(f)
    return files


def _read_all(out_dir):
    tables = [pq.read_table(p) for p in sorted(glob.glob(os.path.join(out_dir, "part-*.parquet")))]
    return pa.concat_tables(tables).sort_by("url")


def test_resume_skips_completed_partitions(ray_session, tmp_path, out_dir):
    pages = make_pages_table(64, seed=42)
    files = _write_shards(tmp_path, pages, 8)
    extract_shards(files, out_dir, batch_size=8)
    full = _read_all(out_dir)
    assert full.num_rows == 64
    done = completed_partitions(out_dir)
    assert done == set(range(8))

    # simulate a crash: delete half the partitions (data + marker)
    victims = sorted(done)[: len(done) // 2]
    survivors = sorted(done)[len(done) // 2 :]
    mtimes_before = {}
    for pid in victims:
        os.remove(os.path.join(out_dir, f"part-{pid:05d}.parquet"))
        os.remove(os.path.join(out_dir, f"part-{pid:05d}.done"))
    for pid in survivors:
        mtimes_before[pid] = os.path.getmtime(os.path.join(out_dir, f"part-{pid:05d}.parquet"))

    # rerun: only the missing partitions may be (re)written
    metrics = extract_shards(files, out_dir, batch_size=8)
    for pid in survivors:
        assert os.path.getmtime(os.path.join(out_dir, f"part-{pid:05d}.parquet")) == mtimes_before[pid]
    assert completed_partitions(out_dir) == done
    assert metrics.num_rows == 8 and sum(metrics.column("input_rows").to_pylist()) == 64
    resumed = _read_all(out_dir)
    assert resumed.equals(full)  # byte-equal content after resume


def test_marker_carries_content_hash(ray_session, tmp_path, out_dir):
    """Each marker's ``content_md5`` is the md5 of its part file's
    ``extracted_text`` values joined: for a unit read in several batches,
    for a row-group run of a split shard and for an empty unit."""
    import hashlib

    pages = make_pages_table(28, seed=42)
    whole = str(tmp_path / "in-0.parquet")  # one row group, 16 rows: four batches of 5
    pq.write_table(pages.slice(0, 16), whole)
    split = str(tmp_path / "in-1.parquet")  # three row groups of 4: runs [0, 1] and [2]
    pq.write_table(pages.slice(16, 12), split, row_group_size=4)
    empty = str(tmp_path / "in-2.parquet")
    pq.write_table(pages.slice(0, 0), empty)
    extract_shards([whole, split, empty], out_dir, batch_size=5, max_rows_per_task=8)
    assert completed_partitions(out_dir) == {0, 1, 2, 3}
    rows = {}
    for pid in range(4):
        meta = read_marker(out_dir, pid)
        texts = pq.read_table(os.path.join(out_dir, f"part-{pid:05d}.parquet")).column("extracted_text").to_pylist()
        assert meta["content_md5"] == hashlib.md5("".join(texts).encode("utf-8")).hexdigest()
        rows[pid] = meta["rows"]
    assert rows == {0: 16, 1: 8, 2: 4, 3: 0}
    assert read_marker(out_dir, 3)["content_md5"] == hashlib.md5(b"").hexdigest()


@pytest.mark.parametrize("damage", ["fewer_rows", "truncated"])
def test_resume_redoes_a_part_file_that_disagrees_with_its_marker(ray_session, tmp_path, out_dir, damage):
    """A marked partition whose part file has lost rows, or whose footer
    no longer reads, is extracted again on resume; the others are kept."""
    files = _write_shards(tmp_path, make_pages_table(32, seed=42), 4)
    extract_shards(files, out_dir, batch_size=8)
    full = _read_all(out_dir)
    part = os.path.join(out_dir, "part-00002.parquet")
    if damage == "fewer_rows":
        pq.write_table(pq.read_table(part).slice(0, 3), part)
    else:
        with open(part, "r+b") as f:
            f.truncate(os.path.getsize(part) // 2)
    kept = {pid: os.path.getmtime(os.path.join(out_dir, f"part-{pid:05d}.parquet")) for pid in (0, 1, 3)}
    metrics = extract_shards(files, out_dir, batch_size=8)
    assert sum(metrics.column("input_rows").to_pylist()) == 32
    assert {pid: os.path.getmtime(os.path.join(out_dir, f"part-{pid:05d}.parquet")) for pid in kept} == kept
    assert read_marker(out_dir, 2)["rows"] == 8
    assert _read_all(out_dir).equals(full)


def test_empty_shard_gets_marker_and_metrics_row(ray_session, tmp_path, out_dir):
    """An empty input shard still commits a 0-row partition and its done
    marker, and reports a 0-row metrics row: without the marker, every
    resume of a finished job would re-read the shard."""
    from dots_ocr_ray.schema import RESULT_SCHEMA

    empty = _write_shards(tmp_path, make_pages_table(0, seed=1), 1)
    metrics = extract_shards(empty, out_dir, batch_size=8)
    assert metrics.drop_columns(["wall_ms"]).to_pylist() == [
        {"partition_id": 0, "input_rows": 0, "ok": 0, "fallback": 0, "failed": 0, "bytes_in": 0}
    ]
    assert completed_partitions(out_dir) == {0}
    meta = read_marker(out_dir, 0)
    assert meta["rows"] == 0 and meta["failed"] == 0
    part = pq.read_table(os.path.join(out_dir, "part-00000.parquet"))
    assert part.num_rows == 0 and part.schema.names == RESULT_SCHEMA.names
    # resume: folded back from the marker, nothing re-run
    again = extract_shards(empty, out_dir, batch_size=8)
    assert again.column("input_rows").to_pylist() == [0]
    assert again.column("wall_ms").to_pylist() == [0]


def test_corrupt_marker_reads_as_none(tmp_path):
    """A marker that does not parse reads as absent, never raises."""
    d = str(tmp_path)
    for pid, payload in ((1, b'{"partition_id": 1, "ro'), (2, b"\xff\xfe"), (3, b"[1, 2]")):
        with open(os.path.join(d, f"part-{pid:05d}.done"), "wb") as f:
            f.write(payload)
        assert read_marker(d, pid) is None
    assert read_marker(d, 9) is None  # missing


def test_no_marker_for_missing_data(tmp_path):
    # a marker without its data file must not count as completed
    d = str(tmp_path)
    with open(os.path.join(d, "part-00003.done"), "w") as f:
        f.write("{}")
    assert completed_partitions(d) == set()


def test_manifest_via_filesystem_uri(tmp_path):
    """Manifests resolve through pyarrow.fs: a file:// URI behaves
    exactly like a bare local path (the S6 object-storage seam)."""
    from dots_ocr_ray.state.manifest import (
        list_partition_files,
        write_partition_atomic,
    )

    uri = f"file://{tmp_path}/out"
    tbl = pa.table({"url": ["u1", "u2"], "extracted_text": ["a", "b"]})
    write_partition_atomic(uri, 3, tbl, "x" * 32, extra={"ok": 2})
    assert completed_partitions(uri) == {3}
    assert completed_partitions(str(tmp_path / "out")) == {3}  # same dir, bare path
    meta = read_marker(uri, 3)
    assert meta["rows"] == 2 and meta["ok"] == 2
    files = list_partition_files(uri)
    assert len(files) == 1 and files[0].startswith("file://")
    assert pq.read_table(files[0]).num_rows == 2


def test_part_file_writer_settings(tmp_path):
    """A part file keeps dictionary pages only on the repeating columns
    and statistics only on the scalar columns, reads back equal to the
    table written, and its footer still gives the row count."""
    from dots_ocr_ray.stages.extract_stage import ExtractorActor
    from dots_ocr_ray.state.manifest import partition_file, partition_rows, write_partition_atomic

    d = str(tmp_path / "out")
    tbl = ExtractorActor(partition_id=4)(make_pages_table(16, seed=42))
    write_partition_atomic(d, 4, tbl, "x" * 32)
    meta = pq.read_metadata(partition_file(d, 4))
    assert meta.num_row_groups >= 1
    for g in range(meta.num_row_groups):
        chunks = [meta.row_group(g).column(c) for c in range(meta.num_columns)]
        assert {c.path_in_schema for c in chunks if c.has_dictionary_page} == {
            "lang",
            "status",
            "spans.list.element.category",
        }
        assert {c.path_in_schema for c in chunks if c.is_stats_set} == {
            "url",
            "lang",
            "status",
            "n_spans",
            "bytes_in",
            "partition_id",
        }
    assert pq.read_table(partition_file(d, 4)).equals(tbl)
    assert partition_rows(d, 4) == tbl.num_rows == 16


def test_extract_pages_with_uri_out_dir(ray_session, tmp_path):
    """A file:// URI out_dir for the writer gives the same rows as the
    streaming extract_pages stage over the same pages (partition_id
    aside: the writer sets it to the input shard)."""
    pages = make_pages_table(16, seed=42)
    files = _write_shards(tmp_path, pages, 4)
    uri = f"file://{tmp_path}/out"
    metrics = extract_shards(files, uri, batch_size=8)
    assert sum(metrics.column("input_rows").to_pylist()) == 16
    assert completed_partitions(uri) == {0, 1, 2, 3}
    written = _read_all(str(tmp_path / "out"))
    streamed = extract_pages(ray.data.from_arrow(pages), batch_size=8).materialize()
    assert streamed.count() == 16
    streamed = pa.concat_tables(ray.get(streamed.to_arrow_refs())).sort_by("url")
    assert written.drop_columns(["partition_id"]).to_pylist() == streamed.drop_columns(["partition_id"]).to_pylist()
