"""WARC source tests: pure-Python record walker, gzip members, pages
schema, and end-to-end extraction from WARC input."""

import io

import pytest

import ray.data

from dots_ocr_ray.sources.warc import (
    PAGES_SCHEMA,
    http_payload,
    iter_warc_records,
    make_warc_bytes,
    read_warc,
)

RECORDS = [
    {"url": "https://a.test/x", "date": "2025-03-01T10:00:00Z", "html": "<html><body><h1>T</h1><p>hello world</p></body></html>"},
    {"url": "https://b.test/y", "date": "2025-03-02T11:30:00Z", "html": "<p>second page body text</p>"},
    {"url": "https://c.test/z", "date": "2025-03-03T12:45:00Z", "html": b"<p>bytes \xc3\xa9</p>"},
]


def _write(tmp_path, name, compress):
    p = tmp_path / name
    p.write_bytes(make_warc_bytes(RECORDS, compress=compress))
    return str(p)


def test_record_walker_plain_and_gzip(tmp_path):
    import gzip

    for compress in (False, True):
        raw = make_warc_bytes(RECORDS, compress=compress)
        stream = io.BytesIO(gzip.decompress(raw) if False else raw)
        if compress:
            stream = gzip.open(io.BytesIO(raw), "rb")
        recs = list(iter_warc_records(stream))
        assert len(recs) == 3
        assert recs[0][0]["warc-target-uri"] == "https://a.test/x"
        assert http_payload(recs[0][1]).startswith(b"<html>")


def test_read_warc_schema_and_rows(ray_session, tmp_path):
    path = _write(tmp_path, "t.warc", compress=False)
    ds = read_warc(path)
    tbl = ds.to_pandas().sort_values("url").reset_index(drop=True)
    assert list(tbl.columns) == [f.name for f in PAGES_SCHEMA]
    assert len(tbl) == 3
    assert tbl.url[0] == "https://a.test/x"
    assert bytes(tbl.html[0]).startswith(b"<html>")
    assert str(tbl.warc_ts[0]) == "2025-03-01 10:00:00"


def test_read_warc_gz_and_glob(ray_session, tmp_path):
    _write(tmp_path, "a.warc.gz", compress=True)
    _write(tmp_path, "b.warc.gz", compress=True)
    ds = read_warc(f"{tmp_path}/*.warc.gz")
    assert ds.count() == 6  # 3 records × 2 files


def test_extract_from_warc_end_to_end(ray_session, tmp_path):
    from dots_ocr_ray.pipelines.extract import extract_pages

    path = _write(tmp_path, "t.warc.gz", compress=True)
    out = extract_pages(read_warc(path), batch_size=8).to_pandas()
    assert len(out) == 3
    by_url = dict(zip(out.url, out.extracted_text))
    assert "hello world" in by_url["https://a.test/x"]
    assert set(out.status) <= {"finished", "fallback", "failed"}


def test_truncated_and_empty_inputs(ray_session, tmp_path):
    p = tmp_path / "trunc.warc"
    raw = make_warc_bytes(RECORDS)
    p.write_bytes(raw[: len(raw) - 40])  # cut inside the last block
    ds = read_warc(str(p))
    assert ds.count() == 2  # truncated tail record dropped, no raise
    assert read_warc([]).count() == 0


def test_extract_shards_from_warc(ray_session, tmp_path):
    """Zero-shuffle flagship over WARC shards: partition == warc file,
    markers/resume identical to the parquet path."""
    from dots_ocr_ray.pipelines.extract import extract_shards
    from dots_ocr_ray.state.manifest import completed_partitions

    files = []
    for i in range(3):
        recs = [
            {"url": f"https://s{i}.test/p{j}", "html": f"<h1>H{j}</h1><p>shard {i} page {j} body</p>"}
            for j in range(4)
        ]
        p = tmp_path / f"shard-{i}.warc.gz"
        p.write_bytes(make_warc_bytes(recs, compress=True))
        files.append(str(p))
    out = tmp_path / "out"
    metrics = extract_shards(files, str(out), batch_size=2)
    assert metrics.num_rows == 3
    assert sum(metrics.column("input_rows").to_pylist()) == 12
    assert completed_partitions(str(out)) == {0, 1, 2}
    # resume: nothing recomputed
    import pyarrow.compute as pc

    m2 = extract_shards(files, str(out), batch_size=2)
    assert pc.sum(m2.column("wall_ms")).as_py() == 0


def test_corrupt_record_framing_degrades(ray_session, tmp_path):
    """Garbage bytes mid-stream (broken framing / bad gzip member):
    records before the damage survive, the task never raises."""
    import gzip

    good = make_warc_bytes(RECORDS[:2], compress=False)
    p = tmp_path / "corrupt.warc"
    p.write_bytes(good + b"NOT A WARC HEADER\r\njunk" * 10)
    assert read_warc(str(p)).count() == 2

    g = tmp_path / "corrupt.warc.gz"
    g.write_bytes(make_warc_bytes(RECORDS[:2], compress=True) + b"\x1f\x8b\x08garbagegarbage")
    assert read_warc(str(g)).count() == 2


def test_midfile_corruption_resyncs_to_later_records(ray_session, tmp_path):
    """Damage in the MIDDLE of an uncompressed WARC: the reader resyncs
    to the next record magic, so records after the damage are kept (not
    silently dropped with the tail) and the resync is counted."""
    good_head = make_warc_bytes(RECORDS[:1], compress=False)
    good_tail = make_warc_bytes(RECORDS[1:], compress=False)
    p = tmp_path / "mid.warc"
    p.write_bytes(good_head + b"GARBAGE NOT A RECORD\r\nmore junk\r\n" + good_tail)
    df = read_warc(str(p)).to_pandas()
    assert sorted(df.url) == sorted(r["url"] for r in RECORDS)  # all 3 survive

    counters = {}
    with open(p, "rb") as f:
        recs = list(iter_warc_records(f, counters))
    assert len(recs) == 3
    assert counters["resynced"] >= 1 and counters["truncated"] == 0


def test_warc_via_file_uri_and_extract_shards(ray_session, tmp_path):
    """WARC shards addressed by filesystem URI stream through the same
    pyarrow.fs seam as the parquet manifests (S6): read_warc and the
    zero-shuffle flagship both accept file:// paths end-to-end."""
    from dots_ocr_ray.pipelines.extract import extract_shards
    from dots_ocr_ray.state.manifest import completed_partitions

    p = tmp_path / "u.warc.gz"
    p.write_bytes(make_warc_bytes(RECORDS, compress=True))
    uri = f"file://{p}"
    assert read_warc(uri).count() == 3

    out_uri = f"file://{tmp_path}/out"
    metrics = extract_shards([uri], out_uri, batch_size=2)
    assert metrics.num_rows == 1
    assert sum(metrics.column("input_rows").to_pylist()) == 3
    assert completed_partitions(out_uri) == {0}


def test_uri_glob_expansion(ray_session, tmp_path):
    """Wildcard file:// URIs expand via a pyarrow.fs directory listing
    (the object-store glob analog)."""
    for name in ("g1.warc.gz", "g2.warc.gz"):
        (tmp_path / name).write_bytes(make_warc_bytes(RECORDS, compress=True))
    (tmp_path / "other.txt").write_bytes(b"not a warc")
    ds = read_warc(f"file://{tmp_path}/*.warc.gz")
    assert ds.count() == 6


def test_parse_http_envelope_fields():
    from dots_ocr_ray.sources.warc import make_warc_bytes, parse_http_envelope

    block = (
        b"HTTP/1.1 301 Moved Permanently\r\n"
        b"Content-Type: text/html; charset=UTF-8\r\n"
        b"Location: https://x.test/\r\n\r\nbody!"
    )
    assert parse_http_envelope(block) == (301, "text/html", 5)
    # non-HTTP block: status 0, whole block is the body
    assert parse_http_envelope(b"raw bytes") == (0, "", 9)
    # malformed status line never raises
    assert parse_http_envelope(b"HTTP/1.1 abc\r\n\r\nxy")[0] == 0
    # headers without body separator
    assert parse_http_envelope(b"HTTP/1.1 200 OK\r\nContent-Type: a/b") == (200, "a/b", 0)


def test_make_warc_bytes_custom_status_roundtrip():
    import io

    from dots_ocr_ray.sources.warc import (
        iter_warc_records,
        make_warc_bytes,
        parse_http_envelope,
    )

    raw = make_warc_bytes(
        [
            {"url": "https://a.test/1", "html": b"abc", "status": 404, "ctype": "text/plain"},
            {"url": "https://a.test/2", "html": b"defg"},
        ]
    )
    recs = list(iter_warc_records(io.BufferedReader(io.BytesIO(raw))))
    assert parse_http_envelope(recs[0][1]) == (404, "text/plain", 3)
    assert parse_http_envelope(recs[1][1]) == (200, "text/html", 4)
