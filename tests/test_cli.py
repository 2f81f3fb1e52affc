"""Tests for the ray-job-submit CLI entry point (in-process; the
session fixture owns Ray, cli's guarded init is a no-op)."""

import glob
import json
import os

import pyarrow.parquet as pq
import pytest

from dots_ocr_ray.cli import main
from dots_ocr_ray.fixtures import make_pages_table


@pytest.fixture()
def shard_dir(tmp_path):
    pages = make_pages_table(32, seed=42)
    d = tmp_path / "pages"
    d.mkdir()
    for s in range(4):
        pq.write_table(pages.slice(s * 8, 8), str(d / f"shard-{s:02d}.parquet"))
    return str(d)


def test_cli_extract_shard_mode(ray_session, shard_dir, tmp_path, capsys):
    out_dir = str(tmp_path / "out")
    rc = main(
        ["extract", "--input", f"{shard_dir}/*.parquet", "--out", out_dir, "--fail-threshold", "0.5"]
    )
    assert rc == 0
    summary = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert summary["total"] == 32 and summary["partitions"] == 4
    assert len(glob.glob(os.path.join(out_dir, "part-*.parquet"))) == 4
    # resume: second run skips everything but still reports all partitions
    rc2 = main(
        ["extract", "--input", f"{shard_dir}/*.parquet", "--out", out_dir, "--fail-threshold", "0.5"]
    )
    assert rc2 == 0
    summary2 = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert summary2["total"] == 32


def test_cli_no_input(ray_session, tmp_path, capsys):
    rc = main(["extract", "--input", str(tmp_path / "none-*.parquet"), "--out", str(tmp_path / "o")])
    assert rc == 2


def test_cli_fail_gate_trips(ray_session, tmp_path, capsys):
    import pyarrow as pa

    bad = pa.table(
        {
            "url": [f"https://x/{i}" for i in range(8)],
            "warc_ts": [None] * 8,
            "html": [b""] * 8,
            "text": [""] * 8,
            "lang": ["en"] * 8,
        }
    )
    src = tmp_path / "bad.parquet"
    pq.write_table(bad.cast(make_pages_table(1).schema), str(src))
    with pytest.raises(RuntimeError, match="job failed"):
        main(["extract", "--input", str(src), "--out", str(tmp_path / "o3")])


def test_cli_extract_from_warc(ray_session, tmp_path, capsys):
    """A .warc.gz input goes through the same shard job as parquet:
    one output partition per WARC file, with markers, and resume."""
    from dots_ocr_ray.cli import main
    from dots_ocr_ray.sources.warc import make_warc_bytes

    for s in range(2):
        recs = [{"url": f"https://w.test/{s}/{i}", "html": f"<p>warc body {s} {i}</p>"} for i in range(3)]
        (tmp_path / f"in-{s}.warc.gz").write_bytes(make_warc_bytes(recs, compress=True))
    out = str(tmp_path / "out")
    argv = ["extract", "--input", f"{tmp_path}/*.warc.gz", "--out", out]
    assert main(argv) == 0
    summary = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert summary["total"] == 6 and summary["partitions"] == 2
    parts = sorted(glob.glob(os.path.join(out, "part-*.parquet")))
    assert [os.path.basename(p) for p in parts] == ["part-00000.parquet", "part-00001.parquet"]
    assert [pq.read_table(p).num_rows for p in parts] == [3, 3]
    assert len(glob.glob(os.path.join(out, "part-*.done"))) == 2

    # resume: only the unit whose part file is gone runs again
    os.remove(os.path.join(out, "part-00001.parquet"))
    mtime0 = os.path.getmtime(parts[0])
    assert main(argv) == 0
    summary2 = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert summary2["total"] == 6
    assert os.path.getmtime(parts[0]) == mtime0
    assert pq.read_table(parts[1]).num_rows == 3


def test_cli_prepare_from_warc(tmp_path):
    from dots_ocr_ray.cli import main
    from dots_ocr_ray.sources.warc import make_warc_bytes

    body = "the quick brown fox jumps over the lazy dog and keeps running through fields " * 3
    recs = [{"url": f"https://w.test/{i}", "html": f"<html><body><p>{body} doc {i}</p></body></html>"} for i in range(8)]
    warc = tmp_path / "in.warc.gz"
    warc.write_bytes(make_warc_bytes(recs, compress=True))
    out = tmp_path / "prep"
    rc = main([
        "prepare", "--input", str(warc), "--input-format", "warc", "--out", str(out),
        "--dedup", "exact", "--chunk-tokens", "16", "--overlap-tokens", "2",
    ])
    assert rc == 0
    import ray.data

    df = ray.data.read_parquet(str(out)).to_pandas()
    assert len(df) > 0 and "chunk_text" in df.columns and "url" in df.columns


def test_cli_refresh(ray_session, shard_dir, tmp_path, capsys):
    index = str(tmp_path / "idx")
    out1 = str(tmp_path / "r1")
    rc = main(["refresh", "--input", f"{shard_dir}/*.parquet", "--index", index, "--out", out1])
    assert rc == 0
    c1 = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert c1["kept"] > 0
    # second run over the SAME pages: the index gates everything out
    out2 = str(tmp_path / "r2")
    rc2 = main(["refresh", "--input", f"{shard_dir}/*.parquet", "--index", index, "--out", out2])
    assert rc2 == 0
    c2 = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert c2["kept"] == 0
