"""Site-level template-block stripping over raw crawl pages.

:func:`~dots_ocr_ray.pipelines.text_analysis.host_template_stats`
DETECTS template-driven hosts (content-blind tag-sequence
fingerprints); this module APPLIES the inter-page frequency prior to
the blocks themselves: a block whose (category, text) recurs on many
pages of the SAME host is chrome (header variants, footers, cookie
banners, related-article rails) even when no static class blocklist
matches it — the data-driven complement to the trafilatura-style
rules in ``kernel/html_parse.py``.

Reference analog: the per-page repetition dedup (M8,
dots_ocr/utils/output_cleaner.py:347-416) removes repeats WITHIN one
page; this is the cross-page, per-host form a crawl pipeline runs
(same relationship line_dedup has to M8 at whole-corpus scope, but
host-scoped and over DOM blocks, pre-serialization).

Scale shape (3 streaming passes over pages, segmentation recomputed
rather than block text shipped — CPU is local, exchanges are not):

1. count pass — rows ``(is_host, key, host_key)`` where
   ``key = blake2b64(host ⊕ category ⊕ text)`` deduped per page, plus
   one host row per page with ≥1 block → ONE keyed fold counting them,
   whose rows are 32 B regardless of block text size.
2. threshold — hosts table broadcast when it fits
   :func:`~dots_ocr_ray.util.broadcast_fits` (vectorized searchsorted
   gather), distributed hash_join above it;
   ``frequent`` keeps keys seen on ≥ max(min_pages,
   ceil(min_frac_pct% · host_pages)) DISTINCT pages — integer
   arithmetic only, so the Ray side and any SQL oracle agree exactly.
   Frequent is small by construction (only cross-page-repeated
   blocks survive).
3. strip pass — frequent keys broadcast once under the same rule
   (per-page searchsorted membership, zero exchange); above it the line_dedup-shaped distributed tier:
   explode blocks to (gid, ord, key, text) rows + a never-frequent
   sentinel per page, anti hash_join on key, groupby(gid) reassembly,
   totals joined back.
"""

from __future__ import annotations

import re

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray
import ray.data

from dots_ocr_ray import util
from dots_ocr_ray.util import (
    bucket_exchange,
    cached_object,
    sorted_lookup,
    sorted_membership,
)

_HOST_RE = re.compile(r"^[a-z]+://([^/]+)")

# sentinel key namespace for the distributed tier: one synthetic block
# per page (unique corpus-wide → never frequent) keeps fully-stripped
# and zero-block pages from vanishing in the anti-join round trip
_SENT_PREFIX = "\x00tpl-sentinel:"


def _page_blocks(url: str, html) -> tuple[str, list[tuple[str, str]]]:
    """(host, [(category, text), ...]) of the page's pruned non-Picture
    blocks — the shared per-page kernel of both passes (and of the
    tests' sequential reference)."""
    from dots_ocr_ray.kernel.html_parse import prune_boilerplate, segment_html

    if isinstance(html, (bytes, bytearray, memoryview)):
        text = bytes(html).decode("utf-8", errors="replace")
    else:
        text = html or ""
    m = _HOST_RE.match(url or "")
    host = m.group(1) if m else ""
    cats, _, texts, *_ = prune_boilerplate(segment_html(text))
    # Picture blocks have empty text and would all collide per host —
    # media is never template-stripped here (a frequency rule on empty
    # strings says nothing about chrome)
    return host, [(c, t) for c, t in zip(cats, texts) if c != "Picture"]


def _block_keys(host: str, blocks: list[tuple[str, str]]) -> np.ndarray:
    from dots_ocr_ray.functions.hashing import stable_u64

    if not blocks:
        return np.empty(0, dtype=np.int64)
    ks = np.fromiter(
        (stable_u64(f"{host}\x00{c}\x00{t}") for c, t in blocks),
        dtype=np.uint64,
        count=len(blocks),
    )
    return ks.view(np.int64)


def _host_key(host: str) -> int:
    from dots_ocr_ray.functions.hashing import stable_u64

    return int(np.uint64(stable_u64(host)).view(np.int64))


def template_block_strip(
    pages: ray.data.Dataset,
    *,
    url_col: str = "url",
    html_col: str = "html",
    min_pages: int = 3,
    min_frac_pct: int = 60,
    keep_cols: tuple[str, ...] = (),
) -> ray.data.Dataset:
    """Strip per-host template blocks from every page.

    A (category, text) block is dropped from a page when it appears on
    at least ``max(min_pages, ceil(min_frac_pct% · host_pages))``
    DISTINCT pages of the same host (``host_pages`` counts the host's
    pages with ≥1 block).  The threshold compare is pure integer
    arithmetic (``100·n ≥ min_frac_pct·host_pages``) so no float-ceil
    boundary can diverge between engines.  ``min_pages`` is clamped to
    ≥2 (a threshold of 1 would strip every block including the
    sentinel-protected singletons).

    Returns one row per input page:
    ``(*keep_cols, url, text_clean, n_kept, n_dropped)`` where
    ``text_clean`` joins the surviving blocks' text with ``\\n`` in DOM
    order and the counts cover non-Picture blocks.  Pages with no
    blocks at all (empty / script-only html) survive with empty text
    and zero counts.

    ``pages`` is consumed twice (count pass + strip pass) — pass a
    re-executable or materialized dataset, as with
    :func:`~dots_ocr_ray.pipelines.dedup.line_dedup`.
    """
    min_pages = max(2, int(min_pages))
    if not (0 < min_frac_pct <= 100):
        raise ValueError(f"min_frac_pct must be in (0, 100]: {min_frac_pct}")

    def _page_rows(batch: pa.Table) -> pa.Table:
        # one row per (page, distinct block key) and one per page
        keys_out: list[np.ndarray] = []
        hosts_out: list[np.ndarray] = []
        page_hosts: list[int] = []
        for u, h in zip(batch.column(url_col).to_pylist(), batch.column(html_col).to_pylist()):
            host, blocks = _page_blocks(u, h)
            keys = np.unique(_block_keys(host, blocks))  # distinct per PAGE
            if keys.size == 0:
                continue
            hk = _host_key(host)
            keys_out.append(keys)
            hosts_out.append(np.full(keys.size, hk, dtype=np.int64))
            page_hosts.append(hk)
        block_keys = np.concatenate(keys_out) if keys_out else np.empty(0, dtype=np.int64)
        block_hosts = np.concatenate(hosts_out) if hosts_out else np.empty(0, dtype=np.int64)
        hk_arr = np.array(page_hosts, dtype=np.int64)
        return pa.table(
            {
                "is_host": pa.array(
                    np.concatenate([np.zeros(block_keys.size, np.int64), np.ones(hk_arr.size, np.int64)])
                ),
                "key": pa.array(np.concatenate([block_keys, hk_arr])),
                "host_key": pa.array(np.concatenate([block_hosts, hk_arr])),
            }
        )

    from dots_ocr_ray.util import bucket_keyed_fold

    # ONE fold for both row kinds; host_key is functionally
    # determined by (is_host, key) so the group cardinality is
    # exactly distinct blocks + distinct hosts
    agg = bucket_keyed_fold(
        pages.map_batches(_page_rows, batch_format="pyarrow"),
        ["is_host", "key", "host_key"],
        {"n": ("count", None)},
    ).materialize()

    def _split(want_host: int):
        def _fn(batch: pa.Table) -> pa.Table:
            return batch.filter(pc.equal(batch.column("is_host"), want_host)).drop_columns(
                ["is_host"]
            )

        return _fn

    hosts_ds = agg.map_batches(_split(1), batch_format="pyarrow").materialize()
    blocks_ds = agg.map_batches(_split(0), batch_format="pyarrow")

    frac = int(min_frac_pct)
    floor = int(min_pages)

    if util.broadcast_fits(hosts_ds.size_bytes()):
        hk_parts, hn_parts = [], []
        for b in hosts_ds.iter_batches(batch_format="pyarrow"):
            if b.num_rows:
                hk_parts.append(b.column("key").to_numpy(zero_copy_only=False))
                hn_parts.append(b.column("n").to_numpy(zero_copy_only=False))
        hk = np.concatenate(hk_parts) if hk_parts else np.empty(0, np.int64)
        hn = np.concatenate(hn_parts) if hn_parts else np.empty(0, np.int64)
        order = np.argsort(hk)
        hosts_ref = ray.put((hk[order], hn[order]))

        def _threshold(batch: pa.Table) -> pa.Table:
            hkeys, hpages = cached_object(hosts_ref)
            bh = batch.column("host_key").to_numpy(zero_copy_only=False)
            n = batch.column("n").to_numpy(zero_copy_only=False)
            found, pos = sorted_lookup(hkeys, bh)
            hp = np.where(found, hpages[pos] if hkeys.size else 0, 0)
            keep = (n >= floor) & (100 * n >= frac * hp) & (hp > 0)
            return batch.filter(pa.array(keep)).select(["key"])

        frequent = blocks_ds.map_batches(_threshold, batch_format="pyarrow")
    else:
        # 10^8+-host tier: join page counts in, then the same filter.
        # hash_join's union pads non-key columns with typed nulls, which
        # round-trips int64 through pandas float64 (lossy above 2^53) —
        # full-range hash values must ride as two 32-bit halves (the
        # text_analysis.py substring-exchange convention)
        from dots_ocr_ray.pipelines.relational import hash_join

        def _split_key(batch: pa.Table) -> pa.Table:
            k = batch.column("key").to_numpy(zero_copy_only=False).view(np.uint64)
            return pa.table(
                {
                    "key_hi": pa.array((k >> np.uint64(32)).astype(np.int64)),
                    "key_lo": pa.array(
                        (k & np.uint64(0xFFFFFFFF)).astype(np.int64)
                    ),
                    "host_key": batch.column("host_key"),
                    "n": batch.column("n"),
                }
            )

        joined = hash_join(
            blocks_ds.map_batches(_split_key, batch_format="pyarrow"),
            hosts_ds.select_columns(["key", "n"]).map_batches(
                lambda b: b.rename_columns(["host_key", "host_pages"]),
                batch_format="pyarrow",
            ),
            on="host_key",
            left_schema=pa.schema(
                [
                    ("key_hi", pa.int64()),
                    ("key_lo", pa.int64()),
                    ("host_key", pa.int64()),
                    ("n", pa.int64()),
                ]
            ),
            right_schema=pa.schema([("host_key", pa.int64()), ("host_pages", pa.int64())]),
        )

        def _threshold_joined(batch: pa.Table) -> pa.Table:
            n = batch.column("n").to_numpy(zero_copy_only=False)
            hp = batch.column("host_pages").to_numpy(zero_copy_only=False)
            keep = (n >= floor) & (100 * n >= frac * hp)
            hi = batch.column("key_hi").to_numpy(zero_copy_only=False).astype(np.uint64)
            lo = batch.column("key_lo").to_numpy(zero_copy_only=False).astype(np.uint64)
            key = ((hi << np.uint64(32)) | lo).view(np.int64)
            return pa.table({"key": pa.array(key[keep])})

        frequent = joined.map_batches(_threshold_joined, batch_format="pyarrow")

    frequent = frequent.materialize()  # consumed by count() + one tier

    if util.broadcast_fits(frequent.size_bytes()):
        fk_parts = [
            b.column("key").to_numpy(zero_copy_only=False)
            for b in frequent.iter_batches(batch_format="pyarrow")
            if b.num_rows
        ]
        fk = np.sort(np.concatenate(fk_parts)) if fk_parts else np.empty(0, np.int64)
        freq_ref = ray.put(fk)

        def _strip_local(batch: pa.Table) -> pa.Table:
            fkeys = cached_object(freq_ref)
            urls = batch.column(url_col).to_pylist()
            htmls = batch.column(html_col).to_pylist()
            texts, n_kept, n_dropped = [], [], []
            for u, h in zip(urls, htmls):
                host, blocks = _page_blocks(u, h)
                keys = _block_keys(host, blocks)
                if keys.size and fkeys.size:
                    drop = sorted_membership(fkeys, keys)
                else:
                    drop = np.zeros(keys.size, dtype=bool)
                kept = [b[1] for b, d in zip(blocks, drop) if not d]
                texts.append("\n".join(kept))
                n_kept.append(len(kept))
                n_dropped.append(int(drop.sum()))
            out = pa.table(
                {
                    url_col: batch.column(url_col).cast(pa.string()),
                    "text_clean": pa.array(texts, type=pa.string()),
                    "n_kept": pa.array(n_kept, type=pa.int64()),
                    "n_dropped": pa.array(n_dropped, type=pa.int64()),
                }
            )
            for c in keep_cols:
                out = out.append_column(c, batch.column(c))
            return out

        return pages.map_batches(_strip_local, batch_format="pyarrow")

    # distributed strip tier: explode → anti-join on key → reassemble
    from dots_ocr_ray.functions.hashing import stable_u64
    from dots_ocr_ray.pipelines.relational import hash_join

    # full-range page-id hashes cannot ride the anti-join as a non-key
    # int64 (typed-null padding → pandas float64, lossy above 2^53) —
    # ship gid as two 32-bit halves, recombined after the exchange
    def _explode(batch: pa.Table) -> pa.Table:
        urls = batch.column(url_col).to_pylist()
        htmls = batch.column(html_col).to_pylist()
        ghi, glo, ords, keys, txts = [], [], [], [], []
        for u, h in zip(urls, htmls):
            g = int(stable_u64(u or ""))
            host, blocks = _page_blocks(u, h)
            bk = _block_keys(host, blocks)
            rows = [(j, int(bk[j]), t) for j, (_, t) in enumerate(blocks)]
            rows.append(
                (-1, int(np.uint64(stable_u64(f"{_SENT_PREFIX}{u}")).view(np.int64)), "")
            )
            for j, k, t in rows:
                ghi.append(g >> 32)
                glo.append(g & 0xFFFFFFFF)
                ords.append(j)
                keys.append(k)
                txts.append(t)
        return pa.table(
            {
                "gid_hi": pa.array(ghi, type=pa.int64()),
                "gid_lo": pa.array(glo, type=pa.int64()),
                "ord": pa.array(ords, type=pa.int64()),
                "key": pa.array(keys, type=pa.int64()),
                "block_text": pa.array(txts, type=pa.string()),
            }
        )

    exploded = pages.map_batches(_explode, batch_format="pyarrow")
    kept = hash_join(
        exploded,
        frequent,
        on="key",
        how="anti",
        left_schema=pa.schema(
            [
                ("gid_hi", pa.int64()),
                ("gid_lo", pa.int64()),
                ("ord", pa.int64()),
                ("key", pa.int64()),
                ("block_text", pa.string()),
            ]
        ),
        right_schema=pa.schema([("key", pa.int64())]),
    )

    # coarse 256-way exchange on the mixed (gid_hi, gid_lo) hash + one
    # run-offset binary_join per bucket — no Python call per page
    # (same fold as dedup.line_dedup's reassembly)
    def _reassemble(group: pa.Table) -> pa.Table:
        hi = group.column("gid_hi").to_numpy(zero_copy_only=False).astype(np.int64)
        lo = group.column("gid_lo").to_numpy(zero_copy_only=False).astype(np.int64)
        ords = group.column("ord").to_numpy(zero_copy_only=False).astype(np.int64)
        texts = group.column("block_text")
        if isinstance(texts, pa.ChunkedArray):
            texts = texts.combine_chunks()
        order = np.lexsort((ords, lo, hi))
        hi, lo, ords = hi[order], lo[order], ords[order]
        texts = texts.take(pa.array(order))
        new_run = np.ones(len(hi), dtype=bool)
        new_run[1:] = (hi[1:] != hi[:-1]) | (lo[1:] != lo[:-1])
        starts = np.flatnonzero(new_run)
        # sentinels (ord = -1, one per page) sort first in each run
        real = ords >= 0
        values = texts.take(pa.array(np.flatnonzero(real)))
        creal = np.concatenate([[0], np.cumsum(real)])
        off = creal[np.concatenate([starts, [len(hi)]])]
        joined = pc.binary_join(
            pa.ListArray.from_arrays(
                pa.array(off.astype(np.int32)), pc.fill_null(values, "")
            ),
            "\n",
        )
        with np.errstate(over="ignore"):
            gid = (
                (hi[starts].astype(np.uint64) << np.uint64(32))
                | lo[starts].astype(np.uint64)
            ).astype(np.int64)
        return pa.table(
            {
                "gid": pa.array(gid, type=pa.int64()),
                "text_clean": joined,
                "n_kept": pa.array(np.diff(off).astype(np.int64), type=pa.int64()),
            }
        )

    reassembled = bucket_exchange(
        kept.drop_columns(["key"]),
        ["gid_hi", "gid_lo"],
        _reassemble,
        num_buckets=256,
        rows_per_block=262144,
    )

    def _totals(batch: pa.Table) -> pa.Table:
        urls = batch.column(url_col).to_pylist()
        htmls = batch.column(html_col).to_pylist()
        gids, totals = [], []
        for u, h in zip(urls, htmls):
            gids.append(int(np.uint64(stable_u64(u or "")).view(np.int64)))
            totals.append(len(_page_blocks(u, h)[1]))
        out = pa.table(
            {
                "gid": pa.array(gids, type=pa.int64()),
                url_col: batch.column(url_col).cast(pa.string()),
                "n_total": pa.array(totals, type=pa.int64()),
            }
        )
        for c in keep_cols:
            out = out.append_column(c, batch.column(c))
        return out

    totals = pages.map_batches(_totals, batch_format="pyarrow")
    right_schema = pa.schema(
        [("gid", pa.int64()), ("text_clean", pa.string()), ("n_kept", pa.int64())]
    )
    joined = hash_join(
        totals,
        reassembled,
        on="gid",
        how="left",
        right_schema=right_schema,
    )

    def _finish(batch: pa.Table) -> pa.Table:
        n_kept = pc.fill_null(batch.column("n_kept"), 0).cast(pa.int64())
        n_total = batch.column("n_total").cast(pa.int64())
        out = pa.table(
            {
                url_col: batch.column(url_col).cast(pa.string()),
                "text_clean": pc.fill_null(batch.column("text_clean"), "").cast(pa.string()),
                "n_kept": n_kept,
                "n_dropped": pc.subtract(n_total, n_kept),
            }
        )
        for c in keep_cols:
            out = out.append_column(c, batch.column(c))
        return out

    return joined.map_batches(_finish, batch_format="pyarrow")
