"""WARC source: Common-Crawl-native input for the extraction pipeline.

The reference ingests documents through a universal fetch/normalize
seam (S4, `dots_ocr/utils/doc_utils.py` + `app/utils/storage.py`); at
100 TB the natural on-disk form of a web corpus is WARC (ISO 28500 —
the public Common Crawl format), so this module provides a pure-Python
reader that turns ``*.warc`` / ``*.warc.gz`` files into the engine's
pages schema ``(url, warc_ts, html, text, lang)``.

Scale shape:
- one TASK per WARC file (the shard unit — same zero-exchange layout
  as :func:`pipelines.extract.extract_shards`), scheduled by the
  streaming executor with backpressure;
- each task STREAMS its file record-by-record (never whole-file in
  memory; gzip members decode incrementally via the stdlib) and yields
  Arrow batches of ``batch_rows`` rows, so block size stays bounded
  no matter how large one WARC is;
- malformed records are never fatal (the kernel's never-raise
  discipline): on the uncompressed stream the reader RESYNCS to the
  next ``WARC/`` magic (losing only the damaged record); a broken gzip
  member truncates to the parsed prefix (the compressed stream cannot
  be resynchronized).  Both events are counted and logged per file;
- paths resolve through ``pyarrow.fs`` (state/manifest.py:resolve_fs),
  so shards may live on object storage (``s3://…``) as well as local
  disk; glob expansion applies to bare local paths, URIs are literal.
"""

from __future__ import annotations

import gzip
import io
from collections.abc import Iterator
from datetime import datetime

import pyarrow as pa

import ray.data

PAGES_SCHEMA = pa.schema(
    [
        ("url", pa.string()),
        ("warc_ts", pa.timestamp("us")),
        ("html", pa.binary()),
        ("text", pa.string()),
        ("lang", pa.string()),
    ]
)

_CRLF = b"\r\n"


def _read_headers(stream, first_line: bytes | None = None) -> dict[str, str] | None:
    """Read a WARC header block (terminated by an empty line).  Returns
    None at EOF.  ``first_line`` supplies a version line that was
    already consumed (the resync path)."""
    version = first_line if first_line is not None else stream.readline()
    while version in (_CRLF, b"\n"):  # skip inter-record blank lines
        version = stream.readline()
    if not version:
        return None
    if not version.startswith(b"WARC/"):
        raise ValueError(f"not a WARC record header: {version[:40]!r}")
    headers: dict[str, str] = {}
    last_key: str | None = None
    while True:
        line = stream.readline()
        if not line or line in (_CRLF, b"\n"):
            break
        if line[:1] in (b" ", b"\t") and last_key is not None:
            # folded header continuation (ISO 28500 §4: LWS-prefixed
            # lines extend the previous field value)
            headers[last_key] += " " + line.decode("utf-8", "replace").strip()
            continue
        if b":" in line:
            k, v = line.split(b":", 1)
            last_key = k.decode("ascii", "replace").strip().lower()
            headers[last_key] = v.decode("utf-8", "replace").strip()
    return headers


def http_payload(block: bytes) -> bytes:
    """Strip the HTTP response envelope from a ``response`` record
    block → the body bytes.  A block that is not an HTTP message is
    returned unchanged."""
    if block[:5] in (b"HTTP/", b"http/"):
        sep = block.find(b"\r\n\r\n")
        if sep != -1:
            return block[sep + 4 :]
    return block


def parse_http_envelope(block: bytes) -> tuple[int, str, int]:
    """Parse a response record's HTTP envelope → (status_code,
    content_type, body_len).  The status comes from the REAL status
    line, content-type from the REAL header block (parameters like
    ``; charset=`` stripped, lowercased).  Non-HTTP blocks report
    status 0 with the whole block as body.  Never raises."""
    if block[:5] not in (b"HTTP/", b"http/"):
        return 0, "", len(block)
    sep = block.find(b"\r\n\r\n")
    head = block[: sep if sep != -1 else len(block)]
    body_len = len(block) - (sep + 4) if sep != -1 else 0
    lines = head.split(b"\r\n")
    status = 0
    parts = lines[0].split(None, 2)
    if len(parts) >= 2:
        try:
            status = int(parts[1])
        except ValueError:
            status = 0
    ctype = ""
    for line in lines[1:]:
        if line[:13].lower() == b"content-type:":
            ctype = (
                line.split(b":", 1)[1].split(b";", 1)[0].decode("ascii", "replace").strip().lower()
            )
            break
    return status, ctype, body_len


def parse_warc_date(value: str) -> datetime | None:
    try:
        return datetime.fromisoformat(value.replace("Z", "+00:00")).replace(tzinfo=None)
    except ValueError:
        return None


def iter_warc_records(
    stream, counters: dict | None = None
) -> Iterator[tuple[dict[str, str], bytes]]:
    """Stream (headers, block) pairs off a binary WARC stream.  The
    block is read exactly per Content-Length; the record trailer
    (CRLF CRLF) is consumed.

    Damage handling (never-raise discipline, per-event counted in
    ``counters``):

    * bad record framing on the UNCOMPRESSED stream (non-WARC magic,
      unparseable Content-Length) → resync by scanning forward to the
      next line starting with ``WARC/`` and continue from there
      (``counters["resynced"]``) — mid-file corruption loses only the
      damaged record(s), not the shard tail;
    * a truncated final record, or a broken gzip member (the compressed
      stream cannot be resynchronized past a bad member) → stop,
      keeping everything parsed so far (``counters["truncated"]``).
    """
    if counters is None:
        counters = {}
    counters.setdefault("resynced", 0)
    counters.setdefault("truncated", 0)
    pending: bytes | None = None  # a version line found during resync
    while True:
        try:
            headers = _read_headers(stream, first_line=pending)
            pending = None
            if headers is None:
                return
            length = int(headers.get("content-length", "0"))
            block = stream.read(length)
        except ValueError:
            # framing damage on a seekable/uncompressed stream: scan
            # forward for the next record magic at a line start
            counters["resynced"] += 1
            try:
                while True:
                    line = stream.readline()
                    if not line:
                        return
                    if line.startswith(b"WARC/"):
                        pending = line
                        break
            except (EOFError, OSError):
                counters["truncated"] += 1
                return
            continue
        except (EOFError, OSError):
            # broken gzip member: later members are unreachable once
            # the decompressor dies — degrade to the parsed prefix
            counters["truncated"] += 1
            return
        if len(block) < length:
            counters["truncated"] += 1
            return  # truncated tail record
        yield headers, block


def _open_warc(path: str):
    """Open a (possibly gzipped) WARC for streaming reads through
    ``pyarrow.fs`` — a bare path resolves to the local filesystem, a
    ``file://`` / ``s3://``-style URI to the matching FileSystem
    (the same S6 object-storage seam as the parquet manifests,
    state/manifest.py:resolve_fs; reference app/utils/storage.py:22-163).
    """
    from dots_ocr_ray.state.manifest import resolve_fs

    fs, local = resolve_fs(path)
    # compression=None: pyarrow would otherwise auto-gunzip `.gz`
    # streams itself; stdlib gzip must own the decode because its
    # member-concatenation semantics (one member per Common-Crawl
    # record) and per-member error surface are what the resync /
    # truncate handling is built on
    raw = fs.open_input_stream(local, compression=None)
    if path.endswith(".gz"):
        # Common Crawl gzips each record as its own member; the stdlib
        # reader concatenates members transparently and decompresses
        # incrementally — no whole-file buffering.
        return gzip.open(raw, "rb")
    return io.BufferedReader(raw)


def _warc_file_batches(path: str, record_types: frozenset[str], batch_rows: int):
    import logging

    urls, tss, htmls = [], [], []
    counters: dict[str, int] = {}
    with _open_warc(path) as stream:
        for headers, block in iter_warc_records(stream, counters):
            if headers.get("warc-type", "") not in record_types:
                continue
            url = headers.get("warc-target-uri", "")
            if not url:
                continue
            urls.append(url)
            tss.append(parse_warc_date(headers.get("warc-date", "")))
            htmls.append(http_payload(block))
            if len(urls) >= batch_rows:
                yield _pages_table(urls, tss, htmls)
                urls, tss, htmls = [], [], []
    if urls:
        yield _pages_table(urls, tss, htmls)
    if counters.get("resynced") or counters.get("truncated"):
        logging.getLogger(__name__).warning(
            "WARC %s: damaged input degraded (resynced=%d, truncated=%d)",
            path,
            counters.get("resynced", 0),
            counters.get("truncated", 0),
        )


def _pages_table(urls, tss, htmls) -> pa.Table:
    n = len(urls)
    return pa.table(
        {
            "url": pa.array(urls, type=pa.string()),
            "warc_ts": pa.array(tss, type=pa.timestamp("us")),
            "html": pa.array(htmls, type=pa.binary()),
            "text": pa.array([""] * n, type=pa.string()),
            "lang": pa.array([""] * n, type=pa.string()),
        }
    )


def read_warc(
    paths: str | list[str],
    *,
    record_types: tuple[str, ...] = ("response",),
    batch_rows: int = 256,
) -> ray.data.Dataset:
    """WARC file(s) → pages Dataset ``(url, warc_ts, html, text,
    lang)``.  ``paths`` may be a glob, a single path, or a list; files
    are packed by size into about two streaming tasks per CPU slot
    (:func:`dots_ocr_ray.util.packed_items`)."""
    if isinstance(paths, str):
        if "://" in paths:
            expanded = _expand_uri_glob(paths)
        else:
            import glob as globmod

            expanded = sorted(globmod.glob(paths)) or [paths]
    else:
        expanded = list(paths)
    if not expanded:
        return ray.data.from_arrow(PAGES_SCHEMA.empty_table())
    types = frozenset(record_types)

    def _parse(batch: pa.Table) -> Iterator[pa.Table]:
        emitted = False
        for path in batch.column("path").to_pylist():
            for tbl in _warc_file_batches(path, types, batch_rows):
                emitted = True
                yield tbl
        if not emitted:
            yield PAGES_SCHEMA.empty_table()

    from dots_ocr_ray.util import file_sizes, packed_items

    work = packed_items([{"path": p} for p in expanded], file_sizes(expanded))
    return work.map_batches(_parse, batch_size=1, batch_format="pyarrow")


def _expand_uri_glob(uri: str) -> list[str]:
    """Expand a ``scheme://…/prefix*.warc.gz``-style URI by listing the
    parent directory through ``pyarrow.fs`` and fnmatch-filtering the
    basename — the object-store analog of local glob (one LIST call,
    no wildcard pushed to the store)."""
    import fnmatch
    import posixpath

    import pyarrow.fs as pafs

    from dots_ocr_ray.state.manifest import resolve_fs

    if not any(ch in uri for ch in "*?["):
        return [uri]
    fs, local = resolve_fs(uri)
    scheme = uri.split("://", 1)[0]
    base, pattern = posixpath.dirname(local), posixpath.basename(local)
    try:
        infos = fs.get_file_info(pafs.FileSelector(base, recursive=False))
    except (FileNotFoundError, OSError):
        return []
    names = sorted(
        fi.path
        for fi in infos
        if fi.type == pafs.FileType.File and fnmatch.fnmatch(posixpath.basename(fi.path), pattern)
    )
    return [f"{scheme}://{p}" for p in names]


def make_warc_bytes(records: list[dict], *, compress: bool = False) -> bytes:
    """Build WARC bytes from ``{url, date, html}`` dicts — the test /
    fixture writer (each record its own gzip member when compressed,
    Common-Crawl style)."""
    out = io.BytesIO()
    for rec in records:
        body = rec["html"] if isinstance(rec["html"], bytes) else rec["html"].encode("utf-8")
        status = int(rec.get("status", 200))
        reason = {200: "OK", 301: "Moved Permanently", 404: "Not Found", 503: "Service Unavailable"}.get(status, "Status")
        ctype = rec.get("ctype", "text/html")
        http = (
            f"HTTP/1.1 {status} {reason}\r\nContent-Type: {ctype}\r\n\r\n".encode("ascii")
            + body
        )
        head = (
            b"WARC/1.0\r\n"
            b"WARC-Type: response\r\n"
            + f"WARC-Target-URI: {rec['url']}\r\n".encode()
            + f"WARC-Date: {rec.get('date', '2025-01-01T00:00:00Z')}\r\n".encode()
            + f"Content-Length: {len(http)}\r\n".encode()
            + b"\r\n"
        )
        payload = head + http + b"\r\n\r\n"
        out.write(gzip.compress(payload) if compress else payload)
    return out.getvalue()
