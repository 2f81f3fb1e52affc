"""Sitemap source: the crawl-frontier companion to the WARC/CDXJ
readers (sitemaps.org protocol — the public XML format every crawler
ingests alongside robots.txt).

The reference's universal input seam (S4) normalizes whatever the
crawler hands it; at corpus scale the url frontier itself arrives as
sitemap XML — ``<urlset>`` leaves and ``<sitemapindex>`` trees, often
gzipped.  This module reads both with the stdlib parser:

- one streaming TASK per sitemap file (same zero-exchange shard shape
  as `sources/warc.py`);
- ``<sitemapindex>`` files expand to their referenced sitemaps at
  plan time (driver-side LIST, data read stays distributed);
- malformed XML or unparsable entries degrade per-file/per-entry
  (counted, never fatal) — the kernel's never-raise discipline;
- output schema ``(url:string, lastmod:timestamp[us],
  changefreq:string, priority_milli:int32)`` — priority is scaled to
  integer thousandths so downstream arithmetic is exact.
"""

from __future__ import annotations

import gzip
import os
import xml.etree.ElementTree as ET
from datetime import datetime, timezone

import pyarrow as pa

import ray.data

SITEMAP_SCHEMA = pa.schema(
    [
        ("url", pa.string()),
        ("lastmod", pa.timestamp("us")),
        ("changefreq", pa.string()),
        ("priority_milli", pa.int32()),
    ]
)

_NS = "{http://www.sitemaps.org/schemas/sitemap/0.9}"


def _open_bytes(path: str) -> bytes:
    with open(path, "rb") as f:
        raw = f.read()
    if raw[:2] == b"\x1f\x8b":
        try:
            raw = gzip.decompress(raw)
        except (OSError, EOFError):
            # broken gzip member: recover the readable prefix (raw
            # deflate past the 10-byte header) — usually still not a
            # complete XML document, so the parser degrades it to
            # "invalid" and the FILE is skipped, never the job
            import zlib

            try:
                raw = zlib.decompressobj(wbits=-zlib.MAX_WBITS).decompress(raw[10:])
            except zlib.error:
                return b""
    return raw


def parse_lastmod(value: str | None) -> datetime | None:
    """W3C datetime (the sitemap lastmod format): date-only or full
    timestamp with Z / ±hh:mm offset.  None on anything else."""
    if not value:
        return None
    v = value.strip()
    try:
        if len(v) == 10:
            return datetime.strptime(v, "%Y-%m-%d")
        v = v.replace("Z", "+00:00")
        dt = datetime.fromisoformat(v)
        if dt.tzinfo is not None:
            dt = dt.astimezone(timezone.utc).replace(tzinfo=None)
        return dt
    except ValueError:
        return None


def _parse_priority(value: str | None) -> int | None:
    if not value:
        return None
    try:
        p = float(value.strip())
    except ValueError:
        return None
    if not (0.0 <= p <= 1.0):
        return None
    return int(round(p * 1000))


def parse_sitemap(raw: bytes) -> tuple[str, list[dict]]:
    """Parse one sitemap document → (kind, entries); kind is
    ``"urlset"`` / ``"index"`` / ``"invalid"``.  urlset entries are
    row dicts; index entries are ``{"loc": ...}`` references."""
    try:
        root = ET.fromstring(raw)
    except ET.ParseError:
        return "invalid", []
    tag = root.tag
    if tag == f"{_NS}sitemapindex" or tag == "sitemapindex":
        out = []
        for sm in root:
            loc = sm.findtext(f"{_NS}loc") or sm.findtext("loc")
            if loc:
                out.append({"loc": loc.strip()})
        return "index", out
    if tag == f"{_NS}urlset" or tag == "urlset":
        rows = []
        for u in root:
            loc = u.findtext(f"{_NS}loc") or u.findtext("loc")
            if not loc:
                continue
            rows.append(
                {
                    "url": loc.strip(),
                    "lastmod": parse_lastmod(u.findtext(f"{_NS}lastmod") or u.findtext("lastmod")),
                    "changefreq": (u.findtext(f"{_NS}changefreq") or u.findtext("changefreq") or "").strip(),
                    "priority_milli": _parse_priority(u.findtext(f"{_NS}priority") or u.findtext("priority")),
                }
            )
        return "urlset", rows
    return "invalid", []


def _expand_index(paths: list[str]) -> list[str]:
    """Expand sitemapindex files to their referenced sitemaps (one
    level, local-path resolution relative to the index's directory —
    remote loc urls resolve by basename next to the index, the
    mirror-download layout).  Leaves plain urlsets untouched."""
    out: list[str] = []
    for p in paths:
        kind, entries = parse_sitemap(_open_bytes(p))
        if kind != "index":
            out.append(p)
            continue
        base = os.path.dirname(p)
        for e in entries:
            loc = e["loc"]
            cand = loc if os.path.isabs(loc) and os.path.exists(loc) else os.path.join(base, os.path.basename(loc))
            if os.path.exists(cand):
                out.append(cand)
    return out


def read_sitemap(paths: str | list[str]) -> ray.data.Dataset:
    """Sitemap file(s) → url-frontier Dataset (SITEMAP_SCHEMA).
    ``paths`` may be a glob, one path, or a list; index files expand."""
    if isinstance(paths, str):
        import glob as globmod

        expanded = sorted(globmod.glob(paths)) or [paths]
    else:
        expanded = list(paths)
    expanded = _expand_index(expanded)
    if not expanded:
        return ray.data.from_arrow(SITEMAP_SCHEMA.empty_table())

    def _parse(batch: pa.Table) -> pa.Table:
        rows: list[dict] = []
        for path in batch.column("path").to_pylist():
            kind, entries = parse_sitemap(_open_bytes(path))
            if kind == "urlset":
                rows.extend(entries)
        return pa.Table.from_pylist(rows, schema=SITEMAP_SCHEMA)

    from dots_ocr_ray.util import file_sizes, packed_items

    work = packed_items([{"path": p} for p in expanded], file_sizes(expanded))
    return work.map_batches(_parse, batch_size=1, batch_format="pyarrow")


def make_sitemap_bytes(entries: list[dict], *, index: bool = False, compress: bool = False) -> bytes:
    """Fixture/test writer: serialize entries as real sitemap XML.
    urlset entries: ``{url, lastmod?, changefreq?, priority?}``;
    index entries: ``{loc}``."""
    if index:
        body = "".join(f"<sitemap><loc>{e['loc']}</loc></sitemap>" for e in entries)
        xml = (
            '<?xml version="1.0" encoding="UTF-8"?>'
            '<sitemapindex xmlns="http://www.sitemaps.org/schemas/sitemap/0.9">'
            f"{body}</sitemapindex>"
        )
    else:
        parts = []
        for e in entries:
            fields = [f"<loc>{e['url']}</loc>"]
            if e.get("lastmod"):
                fields.append(f"<lastmod>{e['lastmod']}</lastmod>")
            if e.get("changefreq"):
                fields.append(f"<changefreq>{e['changefreq']}</changefreq>")
            if e.get("priority") is not None:
                fields.append(f"<priority>{e['priority']}</priority>")
            parts.append("<url>" + "".join(fields) + "</url>")
        xml = (
            '<?xml version="1.0" encoding="UTF-8"?>'
            '<urlset xmlns="http://www.sitemaps.org/schemas/sitemap/0.9">'
            + "".join(parts)
            + "</urlset>"
        )
    raw = xml.encode("utf-8")
    return gzip.compress(raw) if compress else raw
