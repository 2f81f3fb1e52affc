"""Link-graph pipelines: degree rollups and PageRank over an edge
Dataset — the host-graph analytics a crawl-scale corpus pipeline runs
(seed-host scoring, spam-mass style weighting of extraction output).

The reference engine has no graph ops; these are first-class
training-data additions in the same scale discipline as the dedup
family:

* edges are the ONLY corpus-sized table and they stream through
  ``map_batches`` with per-batch partial aggregation — each exchange
  moves one row per distinct key, never one per edge;
* per-iteration rank state follows the package's one broadcast rule
  (:func:`~dots_ocr_ray.util.broadcast_fits`): a node table that fits
  it lives in ONE broadcast numpy array (``ray.put`` once, per-worker
  cached); above it every
  iteration is fully distributed — one :func:`~dots_ocr_ray.pipelines.
  relational.hash_join` of edges with ranks on ``src`` plus one
  ``groupby(dst)`` contribution sum, nothing driver-sized.

Multi-edges act as weights: every edge row carries one unit of its
source's rank, so out-degree is the edge-row count per source.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray
import ray.data

from dots_ocr_ray import util
from dots_ocr_ray.util import GOLDEN64, bounded_blocks, bucket_exchange, cached_object


def _endpoints(pairs: ray.data.Dataset, col: str) -> ray.data.Dataset:
    """Both endpoints of every (a, b) pair row, as one int64 column."""

    @util.rows_out(2)
    def _ends(batch: pa.Table) -> pa.Table:
        a = batch.column("a").to_numpy(zero_copy_only=False)
        b = batch.column("b").to_numpy(zero_copy_only=False)
        return pa.table({col: pa.array(np.concatenate([a, b]), type=pa.int64())})

    return pairs.map_batches(_ends, batch_format="pyarrow")


def _distinct_nodes(pairs: ray.data.Dataset, num_buckets: int) -> ray.data.Dataset:
    """The distinct endpoints of an (a, b) pair dataset, as ``host``."""
    from dots_ocr_ray.util import bucket_keyed_fold

    return bucket_keyed_fold(
        _endpoints(pairs, "host"), "host", {}, num_buckets=num_buckets
    ).materialize()


def _node_degrees(pairs: ray.data.Dataset) -> ray.data.Dataset:
    """(node, deg): the number of (a, b) rows each endpoint is in."""
    from dots_ocr_ray.util import bucket_keyed_fold

    # native groupby("node").sum pays per DISTINCT NODE on the reduce —
    # profiled at 178 s of triangle_count's ~193 s total at 3M nodes;
    # the bucket fold does the same sum in ~2 s
    return bucket_keyed_fold(_endpoints(pairs, "node"), "node", {"deg": ("count", None)})


def degree_table(
    edges: ray.data.Dataset, *, src: str = "src", dst: str = "dst", num_buckets: int = 64
) -> ray.data.Dataset:
    """Per-node (out_deg, in_deg) from an edge Dataset in ONE
    :func:`~dots_ocr_ray.util.bucket_keyed_fold`: each edge yields a
    (src, 1, 0) and a (dst, 0, 1) row, summed per host.  A native
    ``groupby(host).sum`` pays per DISTINCT NODE on the reduce
    (measured ~12 s at 10^6 nodes; web graphs have 10^9)."""
    from dots_ocr_ray.util import bucket_keyed_fold

    @util.rows_out(2)
    def _ends(batch: pa.Table) -> pa.Table:
        s = batch.column(src).to_numpy(zero_copy_only=False).astype(np.int64)
        d = batch.column(dst).to_numpy(zero_copy_only=False).astype(np.int64)
        n = len(s)
        return pa.table(
            {
                "host": pa.array(np.concatenate([s, d]), type=pa.int64()),
                "o": pa.array(np.repeat([1, 0], n), type=pa.int64()),
                "i": pa.array(np.repeat([0, 1], n), type=pa.int64()),
            }
        )

    return bucket_keyed_fold(
        edges.map_batches(_ends, batch_format="pyarrow"),
        "host",
        {"out_deg": ("sum", "o"), "in_deg": ("sum", "i")},
        num_buckets=num_buckets,
        rows_per_block=262144,
    )


def _collect_int_col(ds: ray.data.Dataset, col: str) -> np.ndarray:
    chunks = [
        b.column(col).to_numpy(zero_copy_only=False).astype(np.int64)
        for b in ds.iter_batches(batch_format="pyarrow")
        if b.num_rows
    ]
    return np.concatenate(chunks) if chunks else np.array([], np.int64)


def pagerank(
    edges: ray.data.Dataset,
    *,
    src: str = "src",
    dst: str = "dst",
    num_iters: int = 5,
    damping: float = 0.85,
    seeds=None,
) -> pa.Table:
    """PageRank over an integer-keyed edge Dataset → ``(host, rank)``
    (ranks sum to 1; dangling mass redistributed uniformly).

    ``seeds`` switches to PERSONALIZED PageRank (TrustRank shape):
    teleport and dangling mass go ONLY to the seed hosts — rank then
    measures random-walk proximity to a trusted seed list, the
    spam-mass / crawl-trust signal.  Seed sets are small by nature
    (hand-audited hosts), so they ride the task closures in both
    tiers; every other exchange is unchanged.

    Broadcast tier (node table fits
    :func:`~dots_ocr_ray.util.broadcast_fits`): the node/out-degree
    arrays broadcast once; every iteration streams the edges through a
    stateless ``map_batches`` that bins contributions per destination
    WITHIN the batch (searchsorted + bincount), then one
    ``groupby(node)`` sums partials into the next rank vector — the
    per-iteration driver state is O(nodes).

    Distributed tier (above the cut): ranks live in a Dataset;
    each iteration is ``hash_join(edges, ranks, on=src)`` →
    per-batch contribution partials → ``groupby(dst).sum`` →
    left-join back onto the node table (zero-in-degree nodes keep the
    base rank).  The dangling-rank scalar is the only per-iteration
    driver value.
    """
    # the edge table is consumed once per iteration — pin it to the
    # object store so the upstream plan (reads, derivations) executes
    # exactly once, not once per iteration
    from dots_ocr_ray.util import bounded_blocks as _bb

    edges = _bb(edges.select_columns([src, dst]), rows_per_block=1_048_576).materialize()
    degrees = degree_table(edges, src=src, dst=dst).materialize()
    n_nodes = degrees.count()
    if n_nodes == 0:
        return pa.table({"host": pa.array([], pa.int64()), "rank": pa.array([], pa.float64())})

    if util.broadcast_fits(degrees.size_bytes()):
        hosts_chunks, deg_chunks = [], []
        for b in degrees.iter_batches(batch_format="pyarrow"):
            if b.num_rows:
                hosts_chunks.append(
                    b.column("host").to_numpy(zero_copy_only=False).astype(np.int64)
                )
                deg_chunks.append(
                    b.column("out_deg").to_numpy(zero_copy_only=False).astype(np.int64)
                )
        hosts = np.concatenate(hosts_chunks)
        out_deg = np.concatenate(deg_chunks)
        order = np.argsort(hosts)
        hosts, out_deg = hosts[order], out_deg[order]
        n = len(hosts)
        ranks = np.full(n, 1.0 / n)
        base = (1.0 - damping) / n
        tele = None
        if seeds is not None:
            seed_arr = np.asarray(sorted({int(x) for x in seeds}), dtype=np.int64)
            seed_mask = np.isin(hosts, seed_arr)
            n_s = int(seed_mask.sum())
            if n_s == 0:
                raise ValueError("personalized pagerank: no seed host in the graph")
            tele = seed_mask.astype(np.float64) / n_s
            ranks = tele.copy()
            base = (1.0 - damping) * tele

        for _ in range(num_iters):
            share = np.where(out_deg > 0, ranks / np.maximum(out_deg, 1), 0.0)
            state_ref = ray.put((hosts, share))

            def _contrib(batch: pa.Table, _ref=state_ref) -> pa.Table:
                h, sh = cached_object(_ref)
                s = batch.column(src).to_numpy(zero_copy_only=False).astype(np.int64)
                d = batch.column(dst).to_numpy(zero_copy_only=False).astype(np.int64)
                d_nodes = np.unique(d)
                sums = np.zeros(len(d_nodes))
                np.add.at(sums, np.searchsorted(d_nodes, d), sh[np.searchsorted(h, s)])
                return pa.table(
                    {
                        "host": pa.array(d_nodes, type=pa.int64()),
                        "c": pa.array(sums, type=pa.float64()),
                    }
                )

            # partials are already per-destination-unique within each
            # batch (≤ |nodes| rows) and the driver legitimately holds
            # O(nodes) state in this tier — summing them here skips a
            # keyed exchange per iteration
            contrib = np.zeros(n)
            for b in edges.map_batches(_contrib, batch_format="pyarrow").iter_batches(
                batch_format="pyarrow"
            ):
                if b.num_rows:
                    idx = np.searchsorted(
                        hosts, b.column("host").to_numpy(zero_copy_only=False).astype(np.int64)
                    )
                    np.add.at(contrib, idx, b.column("c").to_numpy(zero_copy_only=False))
            dangling = float(ranks[out_deg == 0].sum())
            if tele is None:
                ranks = base + damping * (contrib + dangling / n)
            else:  # dangling mass teleports by the personalization vector
                ranks = base + damping * (contrib + dangling * tele)

        return pa.table(
            {"host": pa.array(hosts, type=pa.int64()), "rank": pa.array(ranks, type=pa.float64())}
        )

    # ---- distributed tier: ranks as a Dataset, one join + one groupby
    # per iteration ----------------------------------------------------
    from dots_ocr_ray.pipelines.relational import hash_join

    deg_schema = pa.schema([("host", pa.int64()), ("out_deg", pa.int64()), ("in_deg", pa.int64())])
    rank_schema = pa.schema([("host", pa.int64()), ("rank", pa.float64()), ("out_deg", pa.int64())])
    from dots_ocr_ray.util import sorted_membership as _member

    seed_sorted = None
    n_s = 0
    if seeds is not None:
        seed_sorted = np.asarray(sorted({int(x) for x in seeds}), dtype=np.int64)
        # seed sets are tiny (hand-audited hosts) — one bounded scan
        # over the node table counts how many are actually present
        for b in degrees.iter_batches(batch_format="pyarrow"):
            if b.num_rows:
                h = b.column("host").to_numpy(zero_copy_only=False).astype(np.int64)
                n_s += int(_member(seed_sorted, h).sum())
        if n_s == 0:
            raise ValueError("personalized pagerank: no seed host in the graph")
    init = 1.0 / n_nodes
    base = (1.0 - damping) / n_nodes

    def _init(batch: pa.Table) -> pa.Table:
        if seed_sorted is None:
            rank = np.full(batch.num_rows, init)
        else:
            h = batch.column("host").to_numpy(zero_copy_only=False).astype(np.int64)
            rank = np.where(_member(seed_sorted, h), 1.0 / n_s, 0.0)
        return pa.table(
            {
                "host": batch.column("host").cast(pa.int64()),
                "rank": pa.array(rank, type=pa.float64()),
                "out_deg": batch.column("out_deg").cast(pa.int64()),
            },
            schema=rank_schema,
        )

    ranks_ds = degrees.map_batches(_init, batch_format="pyarrow").materialize()
    edges_schema = pa.schema([(src, pa.int64()), (dst, pa.int64())])

    for _ in range(num_iters):
        # dangling mass: one scalar aggregate
        def _dangling(batch: pa.Table) -> pa.Table:
            mask = pc.equal(batch.column("out_deg"), 0)
            s = pc.sum(batch.filter(mask).column("rank")).as_py() or 0.0
            return pa.table({"d": pa.array([float(s)], type=pa.float64())})

        dangling = sum(
            r["d"]
            for r in ranks_ds.map_batches(_dangling, batch_format="pyarrow").take_all()
        )

        def _as_src(batch: pa.Table) -> pa.Table:
            return batch.rename_columns(
                [src if n == "host" else n for n in batch.column_names]
            )

        joined = hash_join(
            edges,
            ranks_ds.map_batches(_as_src, batch_format="pyarrow"),
            on=src,
            left_schema=edges_schema,
            right_schema=pa.schema(
                [(src, pa.int64()), ("rank", pa.float64()), ("out_deg", pa.int64())]
            ),
        )

        def _contrib_d(batch: pa.Table) -> pa.Table:
            d = batch.column(dst).to_numpy(zero_copy_only=False).astype(np.int64)
            r = batch.column("rank").to_numpy(zero_copy_only=False)
            o = batch.column("out_deg").to_numpy(zero_copy_only=False).astype(np.int64)
            share = np.where(o > 0, r / np.maximum(o, 1), 0.0)
            d_nodes = np.unique(d)
            sums = np.zeros(len(d_nodes))
            np.add.at(sums, np.searchsorted(d_nodes, d), share)
            return pa.table(
                {
                    "host": pa.array(d_nodes, type=pa.int64()),
                    "c": pa.array(sums, type=pa.float64()),
                }
            )

        from dots_ocr_ray.util import bucket_keyed_fold

        contribs = bucket_keyed_fold(
            joined.map_batches(_contrib_d, batch_format="pyarrow"), "host", {"c": ("sum", "c")}
        )

        merged = hash_join(
            degrees,
            contribs,
            on="host",
            how="left",
            left_schema=deg_schema,
            right_schema=pa.schema([("host", pa.int64()), ("c", pa.float64())]),
        )

        extra = dangling / n_nodes

        def _next(batch: pa.Table, _extra=extra, _dang=dangling) -> pa.Table:
            c = batch.column("c").to_numpy(zero_copy_only=False)
            c = np.nan_to_num(np.asarray(c, dtype=np.float64), nan=0.0)
            if seed_sorted is None:
                new_rank = base + damping * (c + _extra)
            else:
                h = batch.column("host").to_numpy(zero_copy_only=False).astype(np.int64)
                t = np.where(_member(seed_sorted, h), 1.0 / n_s, 0.0)
                new_rank = (1.0 - damping) * t + damping * (c + _dang * t)
            return pa.table(
                {
                    "host": batch.column("host").cast(pa.int64()),
                    "rank": pa.array(new_rank, type=pa.float64()),
                    "out_deg": batch.column("out_deg").cast(pa.int64()),
                },
                schema=rank_schema,
            )

        ranks_ds = merged.map_batches(_next, batch_format="pyarrow").materialize()

    out = pa.concat_tables(
        [
            pa.table(
                {
                    "host": b.column("host").cast(pa.int64()),
                    "rank": b.column("rank").cast(pa.float64()),
                }
            )
            for b in ranks_ds.iter_batches(batch_format="pyarrow")
            if b.num_rows
        ]
        or [pa.table({"host": pa.array([], pa.int64()), "rank": pa.array([], pa.float64())})]
    )
    return out.take(pc.sort_indices(out, sort_keys=[("host", "ascending")]))


# ---------------------------------------------------------------------------
# deterministic host-edge fixture (driver-query input; SQL-mirrorable)

EDGE_MULTIPLIERS = (3, 7, 11)
N_HOSTS = 40


def host_edges_from_documents(sf_dir: str) -> ray.data.Dataset:
    """Deterministic host link graph derived from the documents table —
    the driver-query edge fixture (same pattern as ``canonical_urls``:
    the SQL oracle derives the identical edges independently).  Each
    document emits one edge per multiplier:
    ``src = doc_id % 40, dst = (doc_id * m) % 40``."""
    docs = ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id"])

    @util.rows_out(len(EDGE_MULTIPLIERS))
    def _edges(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_numpy(zero_copy_only=False).astype(np.int64)
        srcs = np.concatenate([ids % N_HOSTS for _ in EDGE_MULTIPLIERS])
        dsts = np.concatenate([(ids * m) % N_HOSTS for m in EDGE_MULTIPLIERS])
        return pa.table(
            {
                "src": pa.array(srcs, type=pa.int64()),
                "dst": pa.array(dsts, type=pa.int64()),
            }
        )

    return docs.map_batches(_edges, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# connected components as a first-class graph query

CHAIN_HOSTS = 400
CHAIN_BLOCK = 16


def host_chain_edges_from_documents(sf_dir: str) -> ray.data.Dataset:
    """Deterministic sparse host graph for the components query: every
    document contributes the chain edge ``(h, h+1)`` for
    ``h = doc_id % 400`` unless ``h % 16 == 15`` — 25 path components
    of 16 hosts each, the worst case for label propagation (15 hops).
    The SQL oracle re-derives the same edges and closes them with a
    recursive CTE.  Duplicate edges (several docs on one host) ship
    as-is: connected components is idempotent under edge multiplicity."""
    docs = ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id"])

    def _edges(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_numpy(zero_copy_only=False).astype(np.int64)
        h = np.unique(ids % CHAIN_HOSTS)  # in-batch dedup: shuffle bytes, not docs
        h = h[h % CHAIN_BLOCK != CHAIN_BLOCK - 1]
        return pa.table(
            {
                "a": pa.array(h, type=pa.int64()),
                "b": pa.array(h + 1, type=pa.int64()),
            }
        )

    return docs.map_batches(_edges, batch_format="pyarrow")


def connected_hosts(sf_dir: str) -> ray.data.Dataset:
    """(host, component) over the chain fixture — the dedup family's
    :func:`~dots_ocr_ray.pipelines.dedup.cluster_assign` (driver
    union-find when the pairs fit the broadcast rule, distributed
    min-label propagation above it) exposed as a first-class graph
    operator; component = min host id of the component."""
    from dots_ocr_ray.pipelines.dedup import cluster_assign
    from dots_ocr_ray.util import bucket_keyed_fold

    docs = ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id"])

    def _hosts(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table({"host": pa.array(ids % CHAIN_HOSTS, type=pa.int64())})

    hosts = bucket_keyed_fold(docs.map_batches(_hosts, batch_format="pyarrow"), "host", {})
    assigned = cluster_assign(hosts, host_chain_edges_from_documents(sf_dir), id_col="host")

    def _rename(batch: pa.Table) -> pa.Table:
        return batch.rename_columns(["host", "component"])

    return assigned.map_batches(_rename, batch_format="pyarrow")


def inbound_anchor_stats(
    links: ray.data.Dataset,
    *,
    src_col: str = "url",
    dst_col: str = "href",
    anchor_col: str = "anchor",
) -> ray.data.Dataset:
    """Per-link-target anchor-text rollup — the inbound-anchor corpus a
    search / embedding pipeline builds from a crawl (anchor text is the
    classic EXTERNAL description of a document): for every ``href``,
    ``n_inbound`` (link rows), ``n_sources`` (distinct linking pages),
    ``n_anchors`` (distinct anchor texts) and ``top_anchor`` (most
    frequent anchor, ties → lexicographically smallest).

    Scale shape — ONE corpus-sized exchange total.  A single pass over
    the link table emits two kinds of per-batch partial rows into one
    tagged table: ``kind=0`` rows are (href, anchor, count) partial
    anchor counts, ``kind=1`` rows are per-batch-distinct (href, src)
    pairs (so a hot target like "/" collapses inside every batch before
    anything moves).  One :func:`~dots_ocr_ray.util.bucket_exchange` on
    href then puts everything about an href in one bucket; each bucket
    sorts by (href, kind, key2) and computes every href's four stats
    VECTORIZED over the runs (``np.add.reduceat`` sums, segment
    lengths, masked ``np.maximum.reduceat`` argmax with
    tie→first-in-anchor-order).  This replaces the previous 7-exchange
    plan (two groupbys + sort + two-stage distinct count + two hash
    joins) — at 10^12 links the partials are the only thing that
    moves, and the kind=1 half of them is the exact COUNT DISTINCT
    payload (swap in the HLL sketch from functions/sketches.py when
    approximate source counts suffice)."""
    from dots_ocr_ray.util import _key_runs, _sort_codes

    def _partials(batch: pa.Table) -> pa.Table:
        df = batch.select([src_col, dst_col, anchor_col]).to_pandas()
        vc = (
            df.groupby([dst_col, anchor_col], sort=False).size().reset_index(name="c")
        )
        sp = df[[dst_col, src_col]].drop_duplicates()
        return pa.table(
            {
                "href": pa.array(
                    list(vc[dst_col].astype(str)) + list(sp[dst_col].astype(str)),
                    type=pa.string(),
                ),
                "kind": pa.array(
                    [0] * len(vc) + [1] * len(sp), type=pa.int8()
                ),
                "key2": pa.array(
                    list(vc[anchor_col].astype(str)) + list(sp[src_col].astype(str)),
                    type=pa.string(),
                ),
                "c": pa.array(
                    list(vc["c"].to_numpy().astype(np.int64)) + [1] * len(sp),
                    type=pa.int64(),
                ),
            }
        )

    def _fold(group: pa.Table) -> pa.Table:
        # href segments, (kind, key2) ascending inside each; runs of
        # equal (href, kind, key2)
        perm, href_starts = _key_runs(group, ["href"], ["kind", "key2"])
        rows = pa.array(perm)
        kind = group.column("kind").to_numpy().astype(np.int64)[perm]
        key2 = _sort_codes(group.column("key2").take(rows))
        new_href = np.zeros(len(perm), dtype=bool)
        new_href[href_starts] = True
        new_run = new_href.copy()
        new_run[1:] |= (kind[1:] != kind[:-1]) | (key2[1:] != key2[:-1])
        run_starts = np.flatnonzero(new_run)
        c_run = np.add.reduceat(group.column("c").to_numpy()[perm], run_starts)
        k2_run = group.column("key2").take(pa.array(perm[run_starts]))
        is_anchor = kind[run_starts] == 0
        m = len(run_starts)

        new_seg = new_href[run_starts]
        seg_starts = np.flatnonzero(new_seg)
        seg_id = np.cumsum(new_seg) - 1
        max_c = np.maximum.reduceat(np.where(is_anchor, c_run, -1), seg_starts)
        cand = is_anchor & (c_run == max_c[seg_id])
        first_cand = np.minimum.reduceat(np.where(cand, np.arange(m), m), seg_starts)
        # a segment with no anchor rows can't appear (every href has at
        # least one link row → one kind-0 partial), but guard the take
        top_idx = np.where(first_cand < m, first_cand, 0)
        return pa.table(
            {
                "href": group.column("href").take(pa.array(perm[run_starts[seg_starts]])),
                "n_inbound": pa.array(np.add.reduceat(np.where(is_anchor, c_run, 0), seg_starts), type=pa.int64()),
                "n_sources": pa.array(np.add.reduceat((~is_anchor).astype(np.int64), seg_starts), type=pa.int64()),
                "n_anchors": pa.array(np.add.reduceat(is_anchor.astype(np.int64), seg_starts), type=pa.int64()),
                "top_anchor": k2_run.take(pa.array(top_idx)),
            }
        )

    return bucket_exchange(links.map_batches(_partials, batch_format="pyarrow"), "href", _fold)


def frontier_schedule(
    frontier: ray.data.Dataset,
    *,
    url_col: str = "url",
) -> ray.data.Dataset:
    """Politeness-aware fetch schedule for a crawl frontier: urls of
    the same host are assigned consecutive fetch WAVES (0, 1, 2, … in
    deterministic url order), so executing wave w touches every host
    at most once — the per-host rate limit every polite crawler needs,
    expressed as data instead of scheduler state.

    ONE coarse 256-way exchange on hash(host); every host in a bucket
    ranks in a single vectorized pass (sort by (host, url), wave =
    position within the host run) — no Python call per host, so even
    trillion-url frontiers over hundreds of millions of domains never
    pay per-key dispatch.  Output: (url, host, wave int64); consume
    with a filter on ``wave == w`` per fetch round, or sort by
    (wave, host) for a flat politeness-ordered fetch list.
    """
    import re as _re

    _host_re = _re.compile(r"^[a-z]+://([^/]+)")

    def _with_host(batch: pa.Table) -> pa.Table:
        urls = batch.column(url_col).to_pylist()
        hosts = []
        for u in urls:
            m = _host_re.match(u or "")
            hosts.append(m.group(1) if m else "")
        return pa.table(
            {
                url_col: batch.column(url_col).cast(pa.string()),
                "host": pa.array(hosts, type=pa.string()),
            }
        )

    def _rank(group: pa.Table) -> pa.Table:
        group = group.sort_by([("host", "ascending"), (url_col, "ascending")])
        n = group.num_rows
        hosts = group.column("host")
        if isinstance(hosts, pa.ChunkedArray):
            hosts = hosts.combine_chunks()
        new_run = np.ones(n, dtype=bool)
        if n > 1:
            new_run[1:] = pc.not_equal(hosts.slice(1), hosts.slice(0, n - 1)).to_numpy(
                zero_copy_only=False
            )
        starts = np.flatnonzero(new_run)
        lens = np.diff(np.concatenate([starts, [n]]))
        wave = np.arange(n, dtype=np.int64) - np.repeat(starts, lens)
        return pa.table(
            {
                url_col: group.column(url_col),
                "host": hosts,
                "wave": pa.array(wave, type=pa.int64()),
            }
        )

    with_host = frontier.map_batches(_with_host, batch_format="pyarrow")
    return bucket_exchange(with_host, "host", _rank, num_buckets=256, rows_per_block=262144)


def triangle_count(
    edges: ray.data.Dataset,
    *,
    src: str = "src",
    dst: str = "dst",
    pair_budget: int = 2_000_000,
    wedge_budget: int = 50_000_000,
) -> "pa.Table":
    """Exact triangle count over an undirected graph — the
    compact-forward / degree-orientation algorithm, the clustering
    signal for link-spam and community detection at web scale.

    1. canonical distinct edges: per-batch (min,max) partial unique →
       one multi-key groupby (the edge exchange);
    2. degrees from those edges (one keyed sum — the
       :func:`degree_table` partials pattern);
    3. each edge oriented low→high by (degree, id) via two
       :func:`~.relational.hash_join` degree attachments — hot stars
       become SOURCES of at most O(sqrt(m)) out-edges, so the wedge
       set is O(m^1.5) worst-case instead of Σdeg²;
    4. wedges = oriented self-join on the source + strict hi<hi2
       filter; each triangle yields EXACTLY one wedge whose endpoints
       close it;
    5. closure test = semi hash_join of wedge endpoint pairs against
       the edge set on an exact packed int64 key (requires node ids
       < 2^31 — checked per batch, ``ValueError`` otherwise).

    Two tiers, the :func:`cluster_assign` discipline: below
    ``pair_budget`` distinct edges the count runs on the DRIVER as one
    fully-vectorized numpy pass (sorted-CSR wedge enumeration — no
    per-node Python; a 2M-edge graph is ~50 MB and the 5-exchange
    distributed plan would spend seconds of fixed exchange cost on
    it); above the budget the distributed plan runs and the driver
    never sees an edge.  The driver tier additionally guards the
    ORIENTED wedge count (≤ ``wedge_budget``) before materializing
    wedge arrays, falling through to the distributed path on a graph
    whose wedge set is too hot even under the edge budget.

    Returns a one-row Arrow table (n_triangles:int64) — the count is
    an action, so the caller gets a value, not a plan."""
    import numpy as np

    from dots_ocr_ray.pipelines.relational import hash_join

    def _canon(batch: pa.Table) -> pa.Table:
        s = batch.column(src).to_numpy(zero_copy_only=False).astype(np.int64)
        d = batch.column(dst).to_numpy(zero_copy_only=False).astype(np.int64)
        keep = s != d
        s, d = s[keep], d[keep]
        a = np.minimum(s, d)
        b = np.maximum(s, d)
        if not ((a >= 0).all() and (b < 2**31).all()):
            raise ValueError("triangle_count: node ids must fit 31 bits for exact pair packing")
        pairs = np.unique(a << np.int64(32) | b)
        return pa.table(
            {
                "a": pa.array(pairs >> np.int64(32), type=pa.int64()),
                "b": pa.array(pairs & np.int64(0xFFFFFFFF), type=pa.int64()),
            }
        )

    from dots_ocr_ray.pipelines.dedup import exact_distinct_pairs

    # exact distinct via 64-bucket exchange + per-bucket np.unique —
    # a native multi-key groupby pays per-DISTINCT-GROUP reduce cost
    # (~12 s at 1.2M pairs); exactness matters here because duplicate
    # edges would duplicate wedges and overcount closures
    E = exact_distinct_pairs(
        edges.map_batches(_canon, batch_format="pyarrow")
    ).materialize()  # consumed twice: degrees + closure probe

    if E.count() <= pair_budget:
        from dots_ocr_ray.util import sorted_membership

        a = _collect_int_col(E, "a")
        b = _collect_int_col(E, "b")
        if len(a) == 0:
            return pa.table({"n_triangles": pa.array([0], type=pa.int64())})
        nodes = np.unique(np.concatenate([a, b]))
        ai = np.searchsorted(nodes, a)
        bi = np.searchsorted(nodes, b)
        n = len(nodes)
        deg = np.bincount(ai, minlength=n) + np.bincount(bi, minlength=n)
        # orient low→high by (degree, id) — compaction preserves id
        # order, so this matches the distributed tier's convention
        a_first = (deg[ai] < deg[bi]) | ((deg[ai] == deg[bi]) & (ai < bi))
        so = np.where(a_first, ai, bi)
        do = np.where(a_first, bi, ai)
        order = np.lexsort((do, so))
        so, do = so[order], do[order]
        odeg = np.bincount(so, minlength=n)
        n_wedges = int((odeg.astype(np.int64) * (odeg - 1) // 2).sum())
        if n_wedges <= wedge_budget:
            # sorted-CSR wedge enumeration: position q in its source's
            # run pairs with every LATER position of the same run —
            # rem/offset index arithmetic, no per-node Python
            m = len(so)
            row_end = np.cumsum(odeg)[so]  # end position of each edge's run
            pos = np.arange(m)
            rem = row_end - pos - 1
            total = int(rem.sum())
            if total == 0:
                return pa.table({"n_triangles": pa.array([0], type=pa.int64())})
            first = np.repeat(pos, rem)
            offsets = np.concatenate([[0], np.cumsum(rem)])[:-1]
            second = np.arange(total) - np.repeat(offsets, rem) + first + 1
            x, y = do[first], do[second]
            lo = np.minimum(x, y)
            hi = np.maximum(x, y)
            ekeys = np.sort((ai.astype(np.int64) << np.int64(32)) | bi.astype(np.int64))
            wkeys = (lo.astype(np.int64) << np.int64(32)) | hi.astype(np.int64)
            closed = int(sorted_membership(ekeys, wkeys).sum())
            return pa.table({"n_triangles": pa.array([closed], type=pa.int64())})
        # wedge set too hot even under the edge budget → distributed

    degrees = _node_degrees(E)

    def _deg_named(name: str):
        def _fn(batch: pa.Table) -> pa.Table:
            return batch.rename_columns([name, f"deg_{name}"])

        return _fn

    i64 = pa.int64()
    with_da = hash_join(
        E,
        degrees.map_batches(_deg_named("a"), batch_format="pyarrow"),
        on="a",
        left_schema=pa.schema([("a", i64), ("b", i64)]),
        right_schema=pa.schema([("a", i64), ("deg_a", i64)]),
    )
    with_deg = hash_join(
        with_da,
        degrees.map_batches(_deg_named("b"), batch_format="pyarrow"),
        on="b",
        left_schema=pa.schema([("a", i64), ("b", i64), ("deg_a", i64)]),
        right_schema=pa.schema([("b", i64), ("deg_b", i64)]),
    )

    def _orient(batch: pa.Table) -> pa.Table:
        a = batch.column("a").to_numpy(zero_copy_only=False)
        b = batch.column("b").to_numpy(zero_copy_only=False)
        da = batch.column("deg_a").to_numpy(zero_copy_only=False)
        db = batch.column("deg_b").to_numpy(zero_copy_only=False)
        a_first = (da < db) | ((da == db) & (a < b))
        return pa.table(
            {
                "lo": pa.array(np.where(a_first, a, b), type=i64),
                "hi": pa.array(np.where(a_first, b, a), type=i64),
            }
        )

    O = with_deg.map_batches(_orient, batch_format="pyarrow").materialize()

    def _rename_hi2(batch: pa.Table) -> pa.Table:
        return batch.rename_columns(["lo", "hi2"])

    wedges = hash_join(
        O,
        O.map_batches(_rename_hi2, batch_format="pyarrow"),
        on="lo",
        left_schema=pa.schema([("lo", i64), ("hi", i64)]),
        right_schema=pa.schema([("lo", i64), ("hi2", i64)]),
    )

    def _wedge_keys(batch: pa.Table) -> pa.Table:
        v = batch.column("hi").to_numpy(zero_copy_only=False)
        w = batch.column("hi2").to_numpy(zero_copy_only=False)
        keep = v < w
        v, w = v[keep], w[keep]
        lo2, hi2 = np.minimum(v, w), np.maximum(v, w)
        return pa.table({"pair": pa.array(lo2 << np.int64(32) | hi2, type=i64)})

    def _edge_keys(batch: pa.Table) -> pa.Table:
        a = batch.column("a").to_numpy(zero_copy_only=False)
        b = batch.column("b").to_numpy(zero_copy_only=False)
        return pa.table({"pair": pa.array(a << np.int64(32) | b, type=i64)})

    closed = hash_join(
        wedges.map_batches(_wedge_keys, batch_format="pyarrow"),
        E.map_batches(_edge_keys, batch_format="pyarrow"),
        on="pair",
        how="semi",
        left_schema=pa.schema([("pair", i64)]),
        right_schema=pa.schema([("pair", i64)]),
    )
    return pa.table({"n_triangles": pa.array([closed.count()], type=i64)})


# ---------------------------------------------------------------------------
# k-core decomposition


def kcore(
    edges: ray.data.Dataset,
    *,
    k: int,
    src: str = "src",
    dst: str = "dst",
    edge_budget: int = 2_000_000,
    max_rounds: int = 64,
) -> ray.data.Dataset:
    """Nodes of the UNDIRECTED k-core → ``(host,)``: the maximal
    subgraph where every node keeps ≥ ``k`` distinct neighbors after
    everyone below the bar is iteratively peeled — the density signal
    that separates tight link communities (and link farms) from chains
    and stars that raw degree can't tell apart.

    Edges are canonicalized first (undirected, self-loops dropped,
    multi-edges collapsed EXACTLY via
    :func:`~dots_ocr_ray.pipelines.dedup.exact_distinct_pairs` —
    near-distinct boundary stragglers would inflate degrees and leak
    sub-k nodes into the core).  Two tiers on the DISTINCT-EDGE budget
    (the ``cluster_assign`` rule):

    * driver tier (distinct edges ≤ ``edge_budget``): the edge arrays
      land once and the whole peel is vectorized numpy rounds
      (bincount degrees over compacted ids, boolean kill mask) — no
      per-round cluster work at all;
    * distributed tier: per round, TWO semi hash-joins restrict the
      edge set to live endpoints, one :func:`degree_table` exchange
      recounts, and the < k nodes drop.  Rounds = peeling depth (small
      on real link graphs; a pure chain is the worst case), bounded by
      ``max_rounds`` — hitting the bound raises instead of returning a
      wrong partial core."""
    def _canon(batch: pa.Table) -> pa.Table:
        a = batch.column(src).to_numpy(zero_copy_only=False).astype(np.int64)
        b = batch.column(dst).to_numpy(zero_copy_only=False).astype(np.int64)
        keep = a != b
        a, b = a[keep], b[keep]
        lo = np.minimum(a, b)
        hi = np.maximum(a, b)
        u = np.unique(np.stack([lo, hi], axis=1), axis=0)
        return pa.table(
            {
                "a": pa.array(u[:, 0], type=pa.int64()),
                "b": pa.array(u[:, 1], type=pa.int64()),
            }
        )

    from dots_ocr_ray.pipelines.dedup import exact_distinct_pairs

    undirected = exact_distinct_pairs(
        edges.map_batches(_canon, batch_format="pyarrow")
    ).materialize()
    n_edges = undirected.count()
    empty = pa.table({"host": pa.array([], pa.int64())})
    if n_edges == 0:
        return ray.data.from_arrow(empty)

    if n_edges <= edge_budget:
        a = _collect_int_col(undirected, "a")
        b = _collect_int_col(undirected, "b")
        nodes = np.unique(np.concatenate([a, b]))
        ai = np.searchsorted(nodes, a)
        bi = np.searchsorted(nodes, b)
        alive = np.ones(len(nodes), dtype=bool)
        e_alive = np.ones(len(a), dtype=bool)
        while True:
            deg = np.bincount(ai[e_alive], minlength=len(nodes)) + np.bincount(
                bi[e_alive], minlength=len(nodes)
            )
            kill = alive & (deg < k)
            if not kill.any():
                break
            alive &= ~kill
            e_alive &= alive[ai] & alive[bi]
        return ray.data.from_arrow(
            pa.table({"host": pa.array(nodes[alive], type=pa.int64())})
        )

    # ---- distributed tier: peel in rounds ------------------------------
    from dots_ocr_ray.pipelines.relational import hash_join

    pair_schema = pa.schema([("a", pa.int64()), ("b", pa.int64())])
    live_edges = undirected
    alive_count = None
    for _ in range(max_rounds):
        degs = degree_table(live_edges, src="a", dst="b")
        alive = (
            degs.map_batches(
                lambda t: t.filter(
                    pc.greater_equal(pc.add(t.column("out_deg"), t.column("in_deg")), k)
                ).select(["host"]),
                batch_format="pyarrow",
            )
        ).materialize()
        n_alive = alive.count()
        if n_alive == alive_count:
            return alive
        alive_count = n_alive
        if n_alive == 0:
            return ray.data.from_arrow(empty)

        def _as(colname: str):
            def _fn(batch: pa.Table) -> pa.Table:
                return batch.rename_columns([colname])

            return _fn

        live_edges = hash_join(
            hash_join(
                live_edges,
                alive.map_batches(_as("a"), batch_format="pyarrow"),
                on="a",
                how="semi",
                left_schema=pair_schema,
                right_schema=pa.schema([("a", pa.int64())]),
            ),
            alive.map_batches(_as("b"), batch_format="pyarrow"),
            on="b",
            how="semi",
            left_schema=pair_schema,
            right_schema=pa.schema([("b", pa.int64())]),
        ).materialize()
    raise ValueError(
        f"k-core peeling did not converge within max_rounds={max_rounds}"
    )


# ---------------------------------------------------------------------------
# multi-source BFS: shortest-hop crawl depth from a seed set


def bfs_depths(
    edges: ray.data.Dataset,
    *,
    seeds,
    src: str = "src",
    dst: str = "dst",
    max_depth: int = 16,
) -> ray.data.Dataset:
    """Multi-source BFS over an integer-keyed edge Dataset →
    ``(host, depth)`` — depth = minimum hop count from ANY seed,
    seeds at depth 0, unreachable nodes omitted (SQL-reachability
    semantics).  The crawl-scheduling primitive: link distance from a
    trusted seed list is the classic crawl-priority / spam-distance
    signal (the same shape OPIC / TrustRank seeding uses).

    Two tiers on the node table (the :func:`pagerank` discipline):

    * broadcast tier (it fits :func:`~dots_ocr_ray.util.broadcast_fits`)
      — the frontier is
      a sorted numpy array broadcast once per LEVEL (``ray.put``,
      per-worker cached); each level streams the edges through ONE
      stateless ``map_batches`` that emits the batch-unique successors
      of frontier sources, and the driver keeps the O(reachable)
      visited/depth arrays.  Per level: one edge pass,
      zero exchanges.
    * distributed tier — frontier and visited live in Datasets; each
      level is ``hash_join(edges, frontier, on=src, how="semi")`` →
      per-batch unique dst partials → ``groupby(dst)`` distinct →
      ``hash_join(..., visited, how="anti")`` → union into visited.
      Per level: three keyed exchanges, nothing driver-sized.

    Levels are inherently sequential (level d+1 needs the full level-d
    frontier); ``max_depth`` bounds the loop, so the exchange budget
    is ``max_depth × 3`` in the distributed tier.  Duplicate edges are
    harmless (successor sets are uniqued per batch and per level)."""
    edges = bounded_blocks(
        edges.select_columns([src, dst]), rows_per_block=1_048_576
    ).materialize()
    seed_arr = np.unique(np.asarray(sorted(set(int(s) for s in seeds)), dtype=np.int64))
    if len(seed_arr) == 0:
        return ray.data.from_arrow(
            pa.table({"host": pa.array([], pa.int64()), "depth": pa.array([], pa.int64())})
        )
    nodes = degree_table(edges, src=src, dst=dst).materialize()

    from dots_ocr_ray.util import sorted_membership

    if util.broadcast_fits(nodes.size_bytes()):
        hosts = [seed_arr]
        depths = [np.zeros(len(seed_arr), dtype=np.int64)]
        visited = seed_arr  # sorted
        frontier = seed_arr
        for d in range(max_depth):
            f_ref = ray.put(frontier)

            def _succ(batch: pa.Table, _ref=f_ref) -> pa.Table:
                f = cached_object(_ref)
                s = batch.column(src).to_numpy(zero_copy_only=False).astype(np.int64)
                t = batch.column(dst).to_numpy(zero_copy_only=False).astype(np.int64)
                return pa.table(
                    {"host": pa.array(np.unique(t[sorted_membership(f, s)]), type=pa.int64())}
                )

            # batch-unique partials; the driver union is O(reachable),
            # inside this tier's budget by construction
            new_chunks = [
                b.column("host").to_numpy(zero_copy_only=False).astype(np.int64)
                for b in edges.map_batches(_succ, batch_format="pyarrow").iter_batches(
                    batch_format="pyarrow"
                )
                if b.num_rows
            ]
            new = np.unique(np.concatenate(new_chunks)) if new_chunks else np.array([], np.int64)
            new = new[~sorted_membership(visited, new)]
            if len(new) == 0:
                break
            hosts.append(new)
            depths.append(np.full(len(new), d + 1, dtype=np.int64))
            visited = np.sort(np.concatenate([visited, new]))
            frontier = new
        return ray.data.from_arrow(
            pa.table(
                {
                    "host": pa.array(np.concatenate(hosts), type=pa.int64()),
                    "depth": pa.array(np.concatenate(depths), type=pa.int64()),
                }
            )
        )

    # ---- distributed tier --------------------------------------------
    from dots_ocr_ray.pipelines.relational import hash_join

    host_schema = pa.schema([("host", pa.int64())])
    vis_schema = pa.schema([("host", pa.int64()), ("depth", pa.int64())])
    seed_tbl = pa.table({"host": pa.array(seed_arr, type=pa.int64())})
    frontier_ds = ray.data.from_arrow(seed_tbl)
    visited_ds = ray.data.from_arrow(
        pa.table(
            {
                "host": pa.array(seed_arr, type=pa.int64()),
                "depth": pa.array(np.zeros(len(seed_arr), np.int64), type=pa.int64()),
            }
        )
    ).materialize()

    def _as_src(batch: pa.Table) -> pa.Table:
        return batch.rename_columns([src])

    def _dst_partial(batch: pa.Table) -> pa.Table:
        t = batch.column(dst).to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table({"host": pa.array(np.unique(t), type=pa.int64())})

    edges_schema = pa.schema([(src, pa.int64()), (dst, pa.int64())])
    for d in range(max_depth):
        touched = hash_join(
            edges,
            frontier_ds.map_batches(_as_src, batch_format="pyarrow"),
            on=src,
            how="semi",
            left_schema=edges_schema,
            right_schema=pa.schema([(src, pa.int64())]),
        )
        from dots_ocr_ray.util import bucket_keyed_fold as _bkf

        candidates = _bkf(touched.map_batches(_dst_partial, batch_format="pyarrow"), "host", {})
        new_ds = hash_join(
            candidates,
            visited_ds,
            on="host",
            how="anti",
            left_schema=host_schema,
            right_schema=vis_schema,
        ).materialize()
        if new_ds.count() == 0:
            break

        def _tag(batch: pa.Table, _d=d + 1) -> pa.Table:
            return pa.table(
                {
                    "host": batch.column("host").cast(pa.int64()),
                    "depth": pa.array(np.full(batch.num_rows, _d, np.int64), type=pa.int64()),
                },
                schema=vis_schema,
            )

        tagged = new_ds.map_batches(_tag, batch_format="pyarrow")
        visited_ds = visited_ds.union(tagged).materialize()
        frontier_ds = new_ds
    return visited_ds


# ---------------------------------------------------------------------------
# HITS hubs/authorities


def hits(
    edges: ray.data.Dataset,
    *,
    src: str = "src",
    dst: str = "dst",
    num_iters: int = 5,
) -> pa.Table:
    """Kleinberg HITS over an integer-keyed edge Dataset →
    ``(host, hub, authority)``, each vector L1-normalized (sums to 1).
    The complementary centrality to :func:`pagerank`: authorities are
    link targets endorsed by good hubs (directory/spam-farm detection
    reads the hub side, seed-quality scoring the authority side).

    Broadcast tier (node table fits
    :func:`~dots_ocr_ray.util.broadcast_fits`): node array
    broadcast once; each iteration makes TWO edge passes (HITS needs
    both directions per round — ``auth = Eᵀ·hub`` then
    ``hub = E·auth``), each a stateless ``map_batches`` binning
    contributions per endpoint within the batch; the driver folds
    O(nodes) partials, as :func:`pagerank`'s broadcast tier does.
    Multi-edges act as weights, matching pagerank's convention.

    Distributed tier: each half-update is one
    ``hash_join(edges, values, on=endpoint)`` + per-batch partials +
    ``groupby(other endpoint).sum`` — 2 joins + 2 keyed exchanges per
    iteration; the L1 norm is the only per-iteration driver scalar."""
    edges = bounded_blocks(
        edges.select_columns([src, dst]), rows_per_block=1_048_576
    ).materialize()
    degrees = degree_table(edges, src=src, dst=dst).materialize()
    n_nodes = degrees.count()
    empty = pa.table(
        {
            "host": pa.array([], pa.int64()),
            "hub": pa.array([], pa.float64()),
            "authority": pa.array([], pa.float64()),
        }
    )
    if n_nodes == 0:
        return empty

    if util.broadcast_fits(degrees.size_bytes()):
        hosts = np.sort(_collect_int_col(degrees, "host"))
        n = len(hosts)
        hub = np.full(n, 1.0 / n)
        auth = np.zeros(n)

        def _edge_sum(values_ref, from_col: str, to_col: str):
            def _fn(batch: pa.Table) -> pa.Table:
                h, vals = cached_object(values_ref)
                f = batch.column(from_col).to_numpy(zero_copy_only=False).astype(np.int64)
                t = batch.column(to_col).to_numpy(zero_copy_only=False).astype(np.int64)
                t_nodes = np.unique(t)
                sums = np.zeros(len(t_nodes))
                np.add.at(sums, np.searchsorted(t_nodes, t), vals[np.searchsorted(h, f)])
                return pa.table(
                    {
                        "host": pa.array(t_nodes, type=pa.int64()),
                        "c": pa.array(sums, type=pa.float64()),
                    }
                )

            return _fn

        def _fold(mapped: ray.data.Dataset) -> np.ndarray:
            out = np.zeros(n)
            for b in mapped.iter_batches(batch_format="pyarrow"):
                if b.num_rows:
                    idx = np.searchsorted(
                        hosts,
                        b.column("host").to_numpy(zero_copy_only=False).astype(np.int64),
                    )
                    np.add.at(out, idx, b.column("c").to_numpy(zero_copy_only=False))
            return out

        for _ in range(num_iters):
            ref = ray.put((hosts, hub))
            auth = _fold(
                edges.map_batches(_edge_sum(ref, src, dst), batch_format="pyarrow")
            )
            s = auth.sum()
            auth = auth / s if s > 0 else auth
            ref = ray.put((hosts, auth))
            hub = _fold(edges.map_batches(_edge_sum(ref, dst, src), batch_format="pyarrow"))
            s = hub.sum()
            hub = hub / s if s > 0 else hub

        return pa.table(
            {
                "host": pa.array(hosts, type=pa.int64()),
                "hub": pa.array(hub, type=pa.float64()),
                "authority": pa.array(auth, type=pa.float64()),
            }
        )

    # ---- distributed tier: values as a Dataset -----------------------
    from dots_ocr_ray.pipelines.relational import hash_join

    val_schema = pa.schema([("host", pa.int64()), ("v", pa.float64())])
    edges_schema = pa.schema([(src, pa.int64()), (dst, pa.int64())])
    init = 1.0 / n_nodes

    def _init(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "host": batch.column("host").cast(pa.int64()),
                "v": pa.array(np.full(batch.num_rows, init), type=pa.float64()),
            },
            schema=val_schema,
        )

    def _zeros(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "host": batch.column("host").cast(pa.int64()),
                "v": pa.array(np.zeros(batch.num_rows), type=pa.float64()),
            },
            schema=val_schema,
        )

    hub_ds = degrees.map_batches(_init, batch_format="pyarrow").materialize()
    nodes_ds = degrees.select_columns(["host"]).materialize()

    def _half_update(values_ds: ray.data.Dataset, from_col: str, to_col: str):
        """values on ``from_col`` pushed along edges, summed per
        ``to_col``; zero-in-edge nodes kept at 0 via left join."""

        def _as_from(batch: pa.Table) -> pa.Table:
            return batch.rename_columns(
                [from_col if c == "host" else c for c in batch.column_names]
            )

        joined = hash_join(
            edges,
            values_ds.map_batches(_as_from, batch_format="pyarrow"),
            on=from_col,
            left_schema=edges_schema,
            right_schema=pa.schema([(from_col, pa.int64()), ("v", pa.float64())]),
        )

        def _partial(batch: pa.Table) -> pa.Table:
            t = batch.column(to_col).to_numpy(zero_copy_only=False).astype(np.int64)
            v = batch.column("v").to_numpy(zero_copy_only=False)
            t_nodes = np.unique(t)
            sums = np.zeros(len(t_nodes))
            np.add.at(sums, np.searchsorted(t_nodes, t), v)
            return pa.table(
                {
                    "host": pa.array(t_nodes, type=pa.int64()),
                    "c": pa.array(sums, type=pa.float64()),
                }
            )

        from dots_ocr_ray.util import bucket_keyed_fold

        summed = bucket_keyed_fold(
            joined.map_batches(_partial, batch_format="pyarrow"), "host", {"c": ("sum", "c")}
        )

        merged = hash_join(
            nodes_ds,
            summed,
            on="host",
            how="left",
            left_schema=pa.schema([("host", pa.int64())]),
            right_schema=pa.schema([("host", pa.int64()), ("c", pa.float64())]),
        )

        def _clean(batch: pa.Table) -> pa.Table:
            c = np.nan_to_num(
                np.asarray(
                    batch.column("c").to_numpy(zero_copy_only=False), dtype=np.float64
                ),
                nan=0.0,
            )
            return pa.table(
                {
                    "host": batch.column("host").cast(pa.int64()),
                    "v": pa.array(c, type=pa.float64()),
                },
                schema=val_schema,
            )

        out = merged.map_batches(_clean, batch_format="pyarrow").materialize()
        total = sum(
            r["s"]
            for r in out.map_batches(
                lambda b: pa.table(
                    {"s": pa.array([float(pc.sum(b.column("v")).as_py() or 0.0)])}
                ),
                batch_format="pyarrow",
            ).take_all()
        )
        if total > 0:

            def _norm(batch: pa.Table, _t=total) -> pa.Table:
                return pa.table(
                    {
                        "host": batch.column("host").cast(pa.int64()),
                        "v": pc.divide(batch.column("v").cast(pa.float64()), _t),
                    },
                    schema=val_schema,
                )

            out = out.map_batches(_norm, batch_format="pyarrow").materialize()
        return out

    auth_ds = degrees.map_batches(_zeros, batch_format="pyarrow").materialize()
    for _ in range(num_iters):
        auth_ds = _half_update(hub_ds, src, dst)
        hub_ds = _half_update(auth_ds, dst, src)

    # final assembly: both vectors are node-sized; stream-merge via join
    def _as_auth(batch: pa.Table) -> pa.Table:
        return batch.rename_columns(
            ["authority" if c == "v" else c for c in batch.column_names]
        )

    def _as_hub(batch: pa.Table) -> pa.Table:
        return batch.rename_columns(["hub" if c == "v" else c for c in batch.column_names])

    combined = hash_join(
        hub_ds.map_batches(_as_hub, batch_format="pyarrow"),
        auth_ds.map_batches(_as_auth, batch_format="pyarrow"),
        on="host",
        left_schema=pa.schema([("host", pa.int64()), ("hub", pa.float64())]),
        right_schema=pa.schema([("host", pa.int64()), ("authority", pa.float64())]),
    )
    out = pa.concat_tables(
        [
            pa.table(
                {
                    "host": b.column("host").cast(pa.int64()),
                    "hub": b.column("hub").cast(pa.float64()),
                    "authority": b.column("authority").cast(pa.float64()),
                }
            )
            for b in combined.iter_batches(batch_format="pyarrow")
            if b.num_rows
        ]
        or [empty]
    )
    return out.take(pc.sort_indices(out, sort_keys=[("host", "ascending")]))


# ---------------------------------------------------------------------------
# label-propagation community detection


def community_edges_from_documents(sf_dir: str) -> ray.data.Dataset:
    """Deterministic host graph with planted community structure for
    the ``host_communities`` driver query: 25 blocks of 16 hosts
    (``h = doc_id % 400``, block = ``h // 16``) wired densely inside
    each block — ring edge ``(h, h+1)`` and skip edge ``(h, h+2)``
    when both endpoints share the block — plus a WEAK cross-block
    bridge ``(h, (h+16) % 400)`` on every ``doc_id % 89 == 0``
    document.  Dense intra-block votes should dominate the single
    bridge vote, so label propagation recovers the blocks; the golden
    oracle pins the exact outcome."""
    docs = ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id"])

    def _edges(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_numpy(zero_copy_only=False).astype(np.int64)
        h = ids % 400
        ring_src = h[h % 16 < 15]
        skip_src = h[h % 16 < 14]
        bridge_src = h[ids % 89 == 0]
        src = np.concatenate([ring_src, skip_src, bridge_src])
        dst = np.concatenate([ring_src + 1, skip_src + 2, (bridge_src + 16) % 400])
        return pa.table(
            {
                "src": pa.array(src, type=pa.int64()),
                "dst": pa.array(dst, type=pa.int64()),
            }
        )

    return docs.map_batches(_edges, batch_format="pyarrow")


def label_propagation(
    edges: ray.data.Dataset,
    *,
    src: str = "src",
    dst: str = "dst",
    num_iters: int = 10,
    num_buckets: int = 64,
) -> ray.data.Dataset:
    """Synchronous label-propagation community detection over an
    integer-keyed edge Dataset → ``(host, community)`` — the
    host-clustering / link-farm grouping signal (Raghavan et al. 2007,
    made deterministic).

    Exact update rule (the golden oracle mirrors it bit-for-bit):
    edges are undirected, self-loops dropped, multi-edges collapsed
    EXACTLY via :func:`~dots_ocr_ray.pipelines.dedup.
    exact_distinct_pairs` (a doubled edge would double a neighbor's
    vote); labels start as the node id; every iteration each node
    SIMULTANEOUSLY adopts the most frequent label among its neighbors
    plus ONE self-vote for its current label (the damping that keeps
    synchronous updates from oscillating on bipartite structure),
    ties broken toward the SMALLEST label.  After ``num_iters`` the
    label is the community id.

    Driver tier (node table fits
    :func:`~dots_ocr_ray.util.broadcast_fits`): node and endpoint
    index arrays build once; each iteration is one vectorized
    (node, label)-pair count + lexsort argmax on the driver — O(edges)
    numpy work, zero exchanges.

    Distributed tier: labels live in a Dataset; each iteration is
    ``hash_join(directed_edges, labels, on=src)`` (neighbor votes) ∪
    self-votes → ONE bucket-keyed exchange whose per-bucket fold
    counts (node, label) pairs and picks the per-node argmax with the
    same tie rule — Python cost O(num_buckets) per iteration, driver
    state zero.
    """
    from dots_ocr_ray.pipelines.dedup import exact_distinct_pairs

    def _canon(batch: pa.Table) -> pa.Table:
        s = batch.column(src).to_numpy(zero_copy_only=False).astype(np.int64)
        d = batch.column(dst).to_numpy(zero_copy_only=False).astype(np.int64)
        keep = s != d
        s, d = s[keep], d[keep]
        return pa.table(
            {
                "a": pa.array(np.minimum(s, d), type=pa.int64()),
                "b": pa.array(np.maximum(s, d), type=pa.int64()),
            }
        )

    und = exact_distinct_pairs(
        edges.map_batches(_canon, batch_format="pyarrow")
    ).materialize()
    empty = pa.table(
        {"host": pa.array([], pa.int64()), "community": pa.array([], pa.int64())}
    )
    if und.count() == 0:
        return ray.data.from_arrow(empty)

    node_ds = _distinct_nodes(und, num_buckets)

    if util.broadcast_fits(node_ds.size_bytes()):
        hosts = np.sort(_collect_int_col(node_ds, "host"))
        n = len(hosts)
        ia_chunks, ib_chunks = [], []
        for b in und.iter_batches(batch_format="pyarrow"):
            if b.num_rows:
                ia_chunks.append(
                    np.searchsorted(hosts, b.column("a").to_numpy(zero_copy_only=False))
                )
                ib_chunks.append(
                    np.searchsorted(hosts, b.column("b").to_numpy(zero_copy_only=False))
                )
        ia = np.concatenate(ia_chunks)
        ib = np.concatenate(ib_chunks)
        # both directions + the self-vote row per node
        voter = np.concatenate([ia, ib, np.arange(n)])
        votee_label_src = np.concatenate([ib, ia, np.arange(n)])
        lab_idx = np.arange(n)  # label == hosts[lab_idx]
        for _ in range(num_iters):
            votes = lab_idx[votee_label_src]
            key = voter.astype(np.int64) * n + votes
            uniq, counts = np.unique(key, return_counts=True)
            node = uniq // n
            lab = uniq % n
            order = np.lexsort((lab, -counts, node))
            node_o, first = np.unique(node[order], return_index=True)
            new = lab_idx.copy()
            new[node_o] = lab[order][first]
            lab_idx = new
        return ray.data.from_arrow(
            pa.table(
                {
                    "host": pa.array(hosts, type=pa.int64()),
                    "community": pa.array(hosts[lab_idx], type=pa.int64()),
                }
            )
        )

    # ---- distributed tier: one join + one keyed argmax exchange per
    # iteration ---------------------------------------------------------
    from dots_ocr_ray.pipelines.relational import hash_join

    def _directed(batch: pa.Table) -> pa.Table:
        a = batch.column("a").to_numpy(zero_copy_only=False)
        b = batch.column("b").to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "s": pa.array(np.concatenate([a, b]), type=pa.int64()),
                "d": pa.array(np.concatenate([b, a]), type=pa.int64()),
            }
        )

    directed = bounded_blocks(
        und.map_batches(_directed, batch_format="pyarrow"), rows_per_block=1_048_576
    ).materialize()

    def _init_labels(batch: pa.Table) -> pa.Table:
        h = batch.column("host").cast(pa.int64())
        return pa.table({"host": h, "label": h})

    labels = node_ds.map_batches(_init_labels, batch_format="pyarrow").materialize()
    lab_schema = pa.schema([("host", pa.int64()), ("label", pa.int64())])
    edge_schema = pa.schema([("s", pa.int64()), ("d", pa.int64())])

    def _as_src(batch: pa.Table) -> pa.Table:
        return pa.table({"s": batch.column("host").cast(pa.int64()), "label": batch.column("label").cast(pa.int64())})

    def _vote_rows(batch: pa.Table) -> pa.Table:
        # (d, label) neighbor-vote rows from the joined edge table
        return pa.table(
            {
                "host": batch.column("d").cast(pa.int64()),
                "label": batch.column("label").cast(pa.int64()),
            }
        )

    def _argmax_fold(group: pa.Table) -> pa.Table:
        node = group.column("host").to_numpy(zero_copy_only=False).astype(np.int64)
        lab = group.column("label").to_numpy(zero_copy_only=False).astype(np.int64)
        pair = np.stack([node, lab], axis=1)
        uniq, counts = np.unique(pair, axis=0, return_counts=True)
        order = np.lexsort((uniq[:, 1], -counts, uniq[:, 0]))
        node_o, first = np.unique(uniq[order][:, 0], return_index=True)
        return pa.table(
            {
                "host": pa.array(node_o, type=pa.int64()),
                "label": pa.array(uniq[order][:, 1][first], type=pa.int64()),
            }
        )

    for _ in range(num_iters):
        joined = hash_join(
            directed,
            labels.map_batches(_as_src, batch_format="pyarrow"),
            on="s",
            left_schema=edge_schema,
            right_schema=pa.schema([("s", pa.int64()), ("label", pa.int64())]),
        )
        votes = joined.map_batches(_vote_rows, batch_format="pyarrow").union(labels)
        labels = bucket_exchange(
            votes, "host", _argmax_fold, num_buckets=num_buckets
        ).materialize()

    def _rename(batch: pa.Table) -> pa.Table:
        return batch.rename_columns(
            ["community" if c == "label" else c for c in batch.column_names]
        )

    return labels.map_batches(_rename, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# deterministic random walks (graph-embedding / node2vec corpus prep)


def _mix64(x: np.ndarray) -> np.ndarray:
    """SplitMix64 finalizer — vectorized, wraps mod 2^64 (numpy uint64
    arithmetic); the shared walk-step hash (tools/make_golden.py's
    sequential mirror imports THIS function, so both derivations hash
    identically by construction)."""
    x = np.asarray(x, dtype=np.uint64)
    with np.errstate(over="ignore"):  # wrap-around IS the hash
        x = (x ^ (x >> np.uint64(33))) * np.uint64(0xFF51AFD7ED558CCD)
        x = (x ^ (x >> np.uint64(33))) * np.uint64(0xC4CEB9FE1A85EC53)
    return x ^ (x >> np.uint64(33))


def _walk_choice_hash(cur: np.ndarray, walk: np.ndarray, step: int, seed: int) -> np.ndarray:
    with np.errstate(over="ignore"):  # wrap-around IS the hash
        mixed = (
            cur.astype(np.uint64) * np.uint64(GOLDEN64)
            ^ walk.astype(np.uint64) * np.uint64(0xC2B2AE3D27D4EB4F)
            ^ np.uint64(step) * np.uint64(0xD6E8FEB86659FD93)
            ^ np.uint64(seed)
        )
    return _mix64(mixed)


def random_walks(
    edges: ray.data.Dataset,
    *,
    src: str = "src",
    dst: str = "dst",
    walks_per_node: int = 2,
    walk_len: int = 4,
    seed: int = 0,
    num_buckets: int = 64,
) -> ray.data.Dataset:
    """Deterministic uniform random walks over the DIRECTED edge
    Dataset → ``(start_host, walk_id, step, host)`` — the walk-corpus
    generator feeding skip-gram graph embeddings (DeepWalk/node2vec
    shape) and random-walk-based sampling.

    Exact rule (the golden oracle mirrors it through the SHARED
    :func:`_walk_choice_hash`): adjacency is the exact-distinct
    directed edge set with each node's out-neighbors sorted ascending;
    walk ``w`` of node ``v`` starts at step 0 on ``v`` and at step
    ``s`` moves to ``nbrs(cur)[hash(cur, w, s, seed) % deg(cur)]``; a
    node with no out-edges ends the walk early.  Pseudo-randomness is
    a pure hash of (position, walk, step) — no RNG state, so any
    partitioning of the work produces identical walks.

    Broadcast tier (node table fits
    :func:`~dots_ocr_ray.util.broadcast_fits`): the CSR adjacency
    broadcasts once and every walk runs START-TO-END inside one
    stateless ``map_batches`` over the seed rows — ``walk_len``
    vectorized gathers per batch, ZERO exchanges.

    Distributed tier: adjacency lives in a Dataset of (node, sorted
    neighbor list) rows built with one bucket-keyed exchange; each
    step is one ``hash_join(frontier, adj, on=cur)`` + vectorized
    pick — ``walk_len`` keyed exchanges total, driver state zero."""
    from dots_ocr_ray.pipelines.dedup import exact_distinct_pairs

    def _as_pair(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "a": batch.column(src).cast(pa.int64()),
                "b": batch.column(dst).cast(pa.int64()),
            }
        )

    # exact distinct DIRECTED edges (exact_distinct_pairs is direction-
    # preserving: it dedups (a, b) tuples as given)
    dedges = exact_distinct_pairs(edges.map_batches(_as_pair, batch_format="pyarrow"))

    node_ds = _distinct_nodes(dedges, num_buckets)
    n_nodes = node_ds.count()
    empty = pa.table(
        {
            "start_host": pa.array([], pa.int64()),
            "walk_id": pa.array([], pa.int64()),
            "step": pa.array([], pa.int64()),
            "host": pa.array([], pa.int64()),
        }
    )
    if n_nodes == 0:
        return ray.data.from_arrow(empty)

    def _seed_rows(batch: pa.Table) -> pa.Table:
        h = batch.column("host").to_numpy(zero_copy_only=False).astype(np.int64)
        starts = np.repeat(h, walks_per_node)
        walks = np.tile(np.arange(walks_per_node, dtype=np.int64), len(h))
        return pa.table(
            {
                "start_host": pa.array(starts, type=pa.int64()),
                "walk_id": pa.array(walks, type=pa.int64()),
            }
        )

    seeds_ds = node_ds.map_batches(_seed_rows, batch_format="pyarrow")

    if util.broadcast_fits(node_ds.size_bytes()):
        # CSR: sorted edges give per-node contiguous neighbor runs
        ed = dedges.materialize()
        a_chunks, b_chunks = [], []
        for bt in ed.iter_batches(batch_format="pyarrow"):
            if bt.num_rows:
                a_chunks.append(bt.column("a").to_numpy(zero_copy_only=False).astype(np.int64))
                b_chunks.append(bt.column("b").to_numpy(zero_copy_only=False).astype(np.int64))
        ea = np.concatenate(a_chunks)
        eb = np.concatenate(b_chunks)
        order = np.lexsort((eb, ea))
        ea, eb = ea[order], eb[order]
        hosts = np.sort(
            np.concatenate(
                [
                    b.column("host").to_numpy(zero_copy_only=False).astype(np.int64)
                    for b in node_ds.iter_batches(batch_format="pyarrow")
                    if b.num_rows
                ]
            )
        )
        starts_idx = np.searchsorted(ea, hosts, side="left")
        ends_idx = np.searchsorted(ea, hosts, side="right")
        csr_ref = ray.put((hosts, starts_idx, ends_idx, eb))

        def _walk(batch: pa.Table, _ref=csr_ref) -> pa.Table:
            hosts_s, st, en, nbr = cached_object(_ref)
            start = batch.column("start_host").to_numpy(zero_copy_only=False).astype(np.int64)
            walk = batch.column("walk_id").to_numpy(zero_copy_only=False).astype(np.int64)
            n = len(start)
            out_start = [start]
            out_walk = [walk]
            out_step = [np.zeros(n, dtype=np.int64)]
            out_host = [start]
            cur = start.copy()
            alive = np.ones(n, dtype=bool)
            for s in range(1, walk_len + 1):
                idx = np.searchsorted(hosts_s, cur)
                deg = en[idx] - st[idx]
                alive = alive & (deg > 0)
                if not alive.any():
                    break
                pick = _walk_choice_hash(cur[alive], walk[alive], s, seed) % deg[
                    alive
                ].astype(np.uint64)
                cur = cur.copy()
                cur[alive] = nbr[st[idx[alive]] + pick.astype(np.int64)]
                k = int(alive.sum())
                out_start.append(start[alive])
                out_walk.append(walk[alive])
                out_step.append(np.full(k, s, dtype=np.int64))
                out_host.append(cur[alive])
            return pa.table(
                {
                    "start_host": pa.array(np.concatenate(out_start), type=pa.int64()),
                    "walk_id": pa.array(np.concatenate(out_walk), type=pa.int64()),
                    "step": pa.array(np.concatenate(out_step), type=pa.int64()),
                    "host": pa.array(np.concatenate(out_host), type=pa.int64()),
                }
            )

        return seeds_ds.map_batches(_walk, batch_format="pyarrow")

    # ---- distributed tier: adjacency rows + one join per step --------
    from dots_ocr_ray.pipelines.relational import hash_join

    def _adj_fold(group: pa.Table) -> pa.Table:
        a = group.column("a").to_numpy(zero_copy_only=False).astype(np.int64)
        b = group.column("b").to_numpy(zero_copy_only=False).astype(np.int64)
        order = np.lexsort((b, a))
        a, b = a[order], b[order]
        uniq, starts = np.unique(a, return_index=True)
        ends = np.append(starts[1:], len(a))
        return pa.table(
            {
                "cur": pa.array(uniq, type=pa.int64()),
                "nbrs": pa.array(
                    [b[s:e] for s, e in zip(starts, ends)], type=pa.list_(pa.int64())
                ),
            }
        )

    adj = bucket_exchange(dedges, "a", _adj_fold, num_buckets=num_buckets).materialize()
    adj_schema = pa.schema([("cur", pa.int64()), ("nbrs", pa.list_(pa.int64()))])

    def _init_frontier(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "start_host": batch.column("start_host"),
                "walk_id": batch.column("walk_id"),
                "cur": batch.column("start_host"),
            }
        )

    frontier = seeds_ds.map_batches(_init_frontier, batch_format="pyarrow").materialize()
    frontier_schema = pa.schema(
        [("start_host", pa.int64()), ("walk_id", pa.int64()), ("cur", pa.int64())]
    )
    out_parts = [
        frontier.map_batches(
            lambda t: pa.table(
                {
                    "start_host": t.column("start_host"),
                    "walk_id": t.column("walk_id"),
                    "step": pa.array(np.zeros(t.num_rows, dtype=np.int64), type=pa.int64()),
                    "host": t.column("cur"),
                }
            ),
            batch_format="pyarrow",
        )
    ]
    for s in range(1, walk_len + 1):
        joined = hash_join(
            frontier,
            adj,
            on="cur",
            left_schema=frontier_schema,
            right_schema=adj_schema,
        )

        def _advance(batch: pa.Table, _s=s) -> pa.Table:
            if batch.num_rows == 0:
                return pa.table(
                    {
                        "start_host": pa.array([], pa.int64()),
                        "walk_id": pa.array([], pa.int64()),
                        "cur": pa.array([], pa.int64()),
                    }
                )
            cur = batch.column("cur").to_numpy(zero_copy_only=False).astype(np.int64)
            walk = batch.column("walk_id").to_numpy(zero_copy_only=False).astype(np.int64)
            nbrs = batch.column("nbrs")
            flat = pc.list_flatten(nbrs).to_numpy(zero_copy_only=False).astype(np.int64)
            lens = pc.list_value_length(nbrs).to_numpy(zero_copy_only=False)
            lens = np.nan_to_num(lens.astype(np.float64), nan=0).astype(np.int64)
            alive = lens > 0
            offs = np.concatenate([[0], np.cumsum(lens)])[:-1]
            pick = _walk_choice_hash(cur[alive], walk[alive], _s, seed) % lens[
                alive
            ].astype(np.uint64)
            nxt = flat[offs[alive] + pick.astype(np.int64)]
            return pa.table(
                {
                    "start_host": batch.column("start_host").filter(pa.array(alive)),
                    "walk_id": batch.column("walk_id").filter(pa.array(alive)),
                    "cur": pa.array(nxt, type=pa.int64()),
                }
            )

        frontier = joined.map_batches(_advance, batch_format="pyarrow").materialize()
        out_parts.append(
            frontier.map_batches(
                lambda t, _s=s: pa.table(
                    {
                        "start_host": t.column("start_host"),
                        "walk_id": t.column("walk_id"),
                        "step": pa.array(np.full(t.num_rows, _s, dtype=np.int64), type=pa.int64()),
                        "host": t.column("cur"),
                    }
                ),
                batch_format="pyarrow",
            )
        )
    out = out_parts[0]
    for p in out_parts[1:]:
        out = out.union(p)
    return out


# ---------------------------------------------------------------------------
# robots-rules path filtering (crawl-policy gate)


def robots_filter(
    pages: ray.data.Dataset,
    rules: ray.data.Dataset,
    *,
    url_col: str = "url",
    num_buckets: int = 64,
) -> ray.data.Dataset:
    """Apply robots.txt-style path rules to a page Dataset → the input
    rows plus an ``allowed`` bool — the crawl-policy gate every
    fetch/refresh pipeline needs before touching a host.

    ``rules`` rows are ``(host, prefix, allow)``; the match rule is
    the robots standard's: among the rules of the page's host whose
    prefix starts the url PATH, the LONGEST prefix wins, an
    equal-length allow beats a disallow, and a page with no matching
    rule is allowed.

    Broadcast tier (rule table fits
    :func:`~dots_ocr_ray.util.broadcast_fits`): the rule table, sorted
    by host, ships once (``ray.put`` + per-worker cache); each batch
    finds its own hosts' rule runs with one ``index_in`` and tests only
    those rules — zero exchanges, and a batch pays for the rules of the
    hosts it holds, not for the whole table.  Distributed tier
    (web-scale per-host rule sets): one ``hash_join(pages, rules,
    on=host)`` co-locates each page with its host's rules, then one
    bucket-keyed fold per url resolves the longest match — two keyed
    exchanges, nothing driver-sized."""
    import posixpath as _pp  # noqa: F401  (kept out of the hot path)
    import re

    host_re = re.compile(r"^[A-Za-z][A-Za-z0-9+.-]*://([^/]+)(/.*)?$")

    def _split(batch: pa.Table):
        urls = batch.column(url_col).to_pylist()
        hosts, paths = [], []
        for u in urls:
            m = host_re.match(u or "")
            if m:
                hosts.append(m.group(1))
                paths.append(m.group(2) or "/")
            else:
                hosts.append("")
                paths.append(u or "")
        return np.asarray(hosts, dtype=object), np.asarray(paths, dtype=object)

    rules = rules.materialize()
    if util.broadcast_fits(rules.size_bytes()):
        schema = pa.schema([("host", pa.string()), ("prefix", pa.string()), ("allow", pa.bool_())])
        tbl = pa.concat_tables(
            [t.select(schema.names) for t in util.collect_arrow_blocks(rules)] or [schema.empty_table()]
        )
        # a rule without host or prefix matches no page (as in the
        # distributed tier)
        tbl = tbl.filter(pc.and_(pc.is_valid(tbl.column("host")), pc.is_valid(tbl.column("prefix"))))
        tbl = tbl.sort_by("host")
        r_host = tbl.column("host").combine_chunks()
        change = pc.not_equal(r_host[1:], r_host[:-1]).to_numpy(zero_copy_only=False)
        run_starts = np.flatnonzero(np.r_[len(r_host) > 0, change])
        rules_ref = ray.put((r_host.take(run_starts), np.r_[run_starts, len(r_host)], tbl))

        def _gate(batch: pa.Table, _ref=rules_ref) -> pa.Table:
            run_host, run_bounds, rt = cached_object(_ref)
            hosts, paths = _split(batch)
            best_len = np.full(len(hosts), -1, dtype=np.int64)
            best_allow = np.ones(len(hosts), dtype=bool)
            uniq, inv = np.unique(hosts, return_inverse=True)
            run = pc.index_in(pa.array(uniq.tolist(), type=pa.string()), value_set=run_host)
            run = run.fill_null(-1).to_numpy(zero_copy_only=False)
            for j in np.flatnonzero(run >= 0):
                rows = np.flatnonzero(inv == j)
                lo, hi = run_bounds[run[j]], run_bounds[run[j] + 1]
                sub = rt.slice(lo, hi - lo)
                for p, a in zip(sub.column("prefix").to_pylist(), sub.column("allow").to_pylist()):
                    starts = np.array([s.startswith(p) for s in paths[rows]], dtype=bool)
                    if not starts.any():
                        continue
                    idx = rows[starts]
                    plen = len(p)
                    # longest wins; equal-length allow beats disallow
                    upgrade = (plen > best_len[idx]) | (
                        (plen == best_len[idx]) & bool(a) & ~best_allow[idx]
                    )
                    tgt = idx[upgrade]
                    best_len[tgt] = plen
                    best_allow[tgt] = bool(a)
            return batch.append_column("allowed", pa.array(best_allow, type=pa.bool_()))

        return pages.map_batches(_gate, batch_format="pyarrow")

    # ---- distributed tier: join on host, fold per url -----------------
    from dots_ocr_ray.pipelines.relational import hash_join

    def _page_key(batch: pa.Table) -> pa.Table:
        hosts, paths = _split(batch)
        return pa.table(
            {
                url_col: batch.column(url_col),
                "host": pa.array(hosts.tolist(), type=pa.string()),
                "path": pa.array(paths.tolist(), type=pa.string()),
            }
        )

    keyed = pages.map_batches(_page_key, batch_format="pyarrow")
    joined = hash_join(
        keyed,
        rules,
        on="host",
        how="left",
        left_schema=pa.schema(
            [(url_col, pa.string()), ("host", pa.string()), ("path", pa.string())]
        ),
        right_schema=pa.schema(
            [("host", pa.string()), ("prefix", pa.string()), ("allow", pa.bool_())]
        ),
    )

    def _match_rows(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as _pc

        urls = batch.column(url_col)
        path = batch.column("path")
        prefix = batch.column("prefix")
        allow = batch.column("allow")
        pre_filled = _pc.fill_null(prefix, "")
        # variable-prefix startswith has no single arrow kernel — the
        # per-row object pass is bounded by rules-per-host fan-out
        p_np = np.asarray(path.to_pylist(), dtype=object)
        pre_np = np.asarray(pre_filled.to_pylist(), dtype=object)
        valid = np.asarray(_pc.is_valid(prefix).to_pylist(), dtype=bool)
        starts = np.array(
            [bool(v) and s.startswith(pr) for s, pr, v in zip(p_np, pre_np, valid)],
            dtype=bool,
        )
        mlen = np.where(starts, [len(x) for x in pre_np], -1).astype(np.int64)
        allow_np = np.asarray(_pc.fill_null(allow, True).to_pylist(), dtype=bool)
        return pa.table(
            {
                url_col: urls,
                "mlen": pa.array(mlen, type=pa.int64()),
                "mallow": pa.array(allow_np, type=pa.bool_()),
            }
        )

    def _resolve(group: pa.Table) -> pa.Table:
        urls = np.asarray(group.column(url_col).to_pylist(), dtype=object)
        mlen = group.column("mlen").to_numpy(zero_copy_only=False)
        mallow = group.column("mallow").to_numpy(zero_copy_only=False)
        order = np.lexsort((~mallow, -mlen, urls))
        uniq, first = np.unique(urls[order], return_index=True)
        lead_len = mlen[order][first]
        lead_allow = mallow[order][first]
        allowed = np.where(lead_len >= 0, lead_allow, True)
        return pa.table(
            {
                url_col: pa.array(uniq.tolist(), type=pa.string()),
                "allowed": pa.array(allowed, type=pa.bool_()),
            }
        )

    verdicts = bucket_exchange(
        joined.map_batches(_match_rows, batch_format="pyarrow"),
        url_col,
        _resolve,
        num_buckets=num_buckets,
    )
    return hash_join(
        pages,
        verdicts,
        on=url_col,
        how="left",
        right_schema=pa.schema([(url_col, pa.string()), ("allowed", pa.bool_())]),
    )


def skipgram_pairs(
    walks: ray.data.Dataset,
    *,
    window: int = 2,
    num_buckets: int = 64,
) -> ray.data.Dataset:
    """(center, context, n) skip-gram co-occurrence counts from a walk
    Dataset (:func:`random_walks` output schema) — the training-pair
    extraction between walk generation and a skip-gram embedding fit.

    A pair is two hosts on the SAME walk within ``window`` steps
    (both directions, distance ≥ 1), counted once per occurrence.

    Scale shape: walks are ≤ walk_len+1 rows but may be split across
    blocks, so pairing needs co-location — ONE bucket-keyed exchange
    on hash(start_host, walk_id) co-locates each walk, and the
    per-bucket fold pairs all its walks at once with ``window``
    vectorized shift-alignment passes (Python cost O(buckets ×
    window)).  The count rollup is a second bucket-keyed fold on the
    pair key.  Total: two exchanges, output bounded by |hosts|² cells.
    """

    from dots_ocr_ray.util import bucket_keyed_fold

    def _pair_fold(group: pa.Table) -> pa.Table:
        s = group.column("start_host").to_numpy(zero_copy_only=False).astype(np.int64)
        w = group.column("walk_id").to_numpy(zero_copy_only=False).astype(np.int64)
        st = group.column("step").to_numpy(zero_copy_only=False).astype(np.int64)
        h = group.column("host").to_numpy(zero_copy_only=False).astype(np.int64)
        order = np.lexsort((st, w, s))
        s, w, st, h = s[order], w[order], st[order], h[order]
        centers, contexts = [], []
        for d in range(1, window + 1):
            same = (
                (s[d:] == s[:-d]) & (w[d:] == w[:-d]) & (st[d:] == st[:-d] + d)
            ) if len(s) > d else np.zeros(0, dtype=bool)
            a = h[:-d][same] if len(s) > d else np.array([], dtype=np.int64)
            b = h[d:][same] if len(s) > d else np.array([], dtype=np.int64)
            centers += [a, b]
            contexts += [b, a]
        if not centers:
            return pa.table(
                {
                    "center": pa.array([], pa.int64()),
                    "context": pa.array([], pa.int64()),
                    "n": pa.array([], pa.int64()),
                }
            )
        c = np.concatenate(centers)
        x = np.concatenate(contexts)
        pair = np.stack([c, x], axis=1)
        uniq, counts = np.unique(pair, axis=0, return_counts=True)
        return pa.table(
            {
                "center": pa.array(uniq[:, 0], type=pa.int64()),
                "context": pa.array(uniq[:, 1], type=pa.int64()),
                "n": pa.array(counts.astype(np.int64), type=pa.int64()),
            }
        )

    per_walk = bucket_exchange(
        walks, ["start_host", "walk_id"], _pair_fold, num_buckets=num_buckets
    )
    return bucket_keyed_fold(
        per_walk, ["center", "context"], {"n": ("sum", "n")}, num_buckets=num_buckets
    )


def modularity(
    edges: ray.data.Dataset,
    communities: ray.data.Dataset,
    *,
    src: str = "src",
    dst: str = "dst",
    num_buckets: int = 64,
) -> pa.Table:
    """Newman modularity Q of a community assignment over the
    undirected simple graph → one row ``(n_edges, n_communities,
    modularity)`` — the quality score that tells you whether
    :func:`label_propagation`'s clusters actually beat random
    expectation (Q≈0 random, Q>0.3 strong structure).

    Exactness: Q = Σ_c (e_c/m − (D_c/2m)²) is computed as ONE integer
    numerator ``(4m·Σe_c − ΣD_c²) / (4m²)`` — all counting in int64,
    one float division at the end (rounded 9 dp), so the result is
    bit-identical across engines and association orders.

    Broadcast tier (assignment fits
    :func:`~dots_ocr_ray.util.broadcast_fits`): the
    (host, label) arrays ship once; each edge batch bins intra-
    community edges and endpoint degrees per label vectorized; the
    driver folds per-label partial rows (O(labels) driver state — the
    same budget the assignment broadcast already implies).
    Distributed tier (see :func:`_modularity_distributed`): two
    ``hash_join``s attach endpoint labels, one label-bucketed fold
    completes per-community e_c and D_c, and each bucket ships three
    scalars — driver state is O(num_buckets), bit-identical to the
    broadcast tier."""
    from dots_ocr_ray.pipelines.dedup import exact_distinct_pairs

    def _canon(batch: pa.Table) -> pa.Table:
        s = batch.column(src).to_numpy(zero_copy_only=False).astype(np.int64)
        d = batch.column(dst).to_numpy(zero_copy_only=False).astype(np.int64)
        keep = s != d
        s, d = s[keep], d[keep]
        return pa.table(
            {
                "a": pa.array(np.minimum(s, d), type=pa.int64()),
                "b": pa.array(np.maximum(s, d), type=pa.int64()),
            }
        )

    und = exact_distinct_pairs(
        edges.map_batches(_canon, batch_format="pyarrow")
    ).materialize()
    m = und.count()
    empty = pa.table(
        {
            "n_edges": pa.array([0], pa.int64()),
            "n_communities": pa.array([0], pa.int64()),
            "modularity": pa.array([0.0], pa.float64()),
        }
    )
    if m == 0:
        return empty

    communities = communities.materialize()
    if not util.broadcast_fits(communities.size_bytes()):
        return _modularity_distributed(und, communities, m, num_buckets=num_buckets)
    hosts_chunks, lab_chunks = [], []
    for b in communities.iter_batches(batch_format="pyarrow"):
        if b.num_rows:
            hosts_chunks.append(
                b.column("host").to_numpy(zero_copy_only=False).astype(np.int64)
            )
            lab_chunks.append(
                b.column("community").to_numpy(zero_copy_only=False).astype(np.int64)
            )
    hosts = np.concatenate(hosts_chunks)
    labs = np.concatenate(lab_chunks)
    order = np.argsort(hosts)
    hosts, labs = hosts[order], labs[order]
    asg_ref = ray.put((hosts, labs))

    def _partials(batch: pa.Table, _ref=asg_ref) -> pa.Table:
        h, l = cached_object(_ref)
        a = batch.column("a").to_numpy(zero_copy_only=False).astype(np.int64)
        b = batch.column("b").to_numpy(zero_copy_only=False).astype(np.int64)
        la = l[np.searchsorted(h, a)]
        lb = l[np.searchsorted(h, b)]
        # intra-community edge partials
        intra = la[la == lb]
        iu, ic = np.unique(intra, return_counts=True)
        # endpoint-degree partials (both endpoints, any community)
        du, dc = np.unique(np.concatenate([la, lb]), return_counts=True)
        lab_all = np.concatenate([iu, du])
        e_part = np.concatenate([ic, np.zeros(len(du), dtype=np.int64)])
        d_part = np.concatenate([np.zeros(len(iu), dtype=np.int64), dc])
        return pa.table(
            {
                "label": pa.array(lab_all, type=pa.int64()),
                "ec": pa.array(e_part.astype(np.int64), type=pa.int64()),
                "dc": pa.array(d_part.astype(np.int64), type=pa.int64()),
            }
        )

    parts = und.map_batches(_partials, batch_format="pyarrow")
    all_lab, all_ec, all_dc = [], [], []
    for b in parts.iter_batches(batch_format="pyarrow"):
        if b.num_rows:
            all_lab.append(b.column("label").to_numpy(zero_copy_only=False))
            all_ec.append(b.column("ec").to_numpy(zero_copy_only=False))
            all_dc.append(b.column("dc").to_numpy(zero_copy_only=False))
    lab = np.concatenate(all_lab)
    ec = np.concatenate(all_ec)
    dc = np.concatenate(all_dc)
    uniq, inv = np.unique(lab, return_inverse=True)
    e_c = np.zeros(len(uniq), dtype=np.int64)
    d_c = np.zeros(len(uniq), dtype=np.int64)
    np.add.at(e_c, inv, ec)
    np.add.at(d_c, inv, dc)
    num = 4 * m * int(e_c.sum()) - int((d_c.astype(object) ** 2).sum())
    q = round(num / (4.0 * m * m), 9)
    return pa.table(
        {
            "n_edges": pa.array([m], pa.int64()),
            "n_communities": pa.array([len(np.unique(labs))], pa.int64()),
            "modularity": pa.array([q], pa.float64()),
        }
    )


def _modularity_distributed(
    und: ray.data.Dataset,
    communities: ray.data.Dataset,
    m: int,
    *,
    num_buckets: int = 64,
) -> pa.Table:
    """Above-budget modularity tier: two :func:`hash_join`s attach
    endpoint labels to the undirected edge stream, one label-bucketed
    fold completes each community's e_c and D_c inside its bucket
    (every partial of a label lands in exactly one bucket), and each
    bucket ships THREE scalars to the driver — Σe_c, ΣD_c² (as a
    decimal string so >int64 squares survive the wire) and its
    distinct-label count from the assignment — so driver state is
    O(num_buckets), never O(communities).  Computes the SAME exact
    integer numerator ``4m·Σe_c − ΣD_c²`` as the broadcast tier, so
    the two tiers are bit-identical."""
    from dots_ocr_ray.pipelines.relational import hash_join
    from dots_ocr_ray.util import bucket_keyed_fold

    def _rename(host_out: str, lab_out: str):
        def _fn(batch: pa.Table) -> pa.Table:
            return pa.table(
                {
                    host_out: batch.column("host").cast(pa.int64()),
                    lab_out: batch.column("community").cast(pa.int64()),
                }
            )

        return _fn

    und_schema = pa.schema([("a", pa.int64()), ("b", pa.int64())])
    lab_a_schema = pa.schema([("a", pa.int64()), ("la", pa.int64())])
    lab_b_schema = pa.schema([("b", pa.int64()), ("lb", pa.int64())])
    lab_a = communities.map_batches(_rename("a", "la"), batch_format="pyarrow")
    lab_b = communities.map_batches(_rename("b", "lb"), batch_format="pyarrow")
    j1 = hash_join(
        und,
        lab_a,
        on="a",
        num_buckets=num_buckets,
        left_schema=und_schema,
        right_schema=lab_a_schema,
    )
    j2 = hash_join(
        j1,
        lab_b,
        on="b",
        num_buckets=num_buckets,
        left_schema=pa.schema([("a", pa.int64()), ("b", pa.int64()), ("la", pa.int64())]),
        right_schema=lab_b_schema,
    )

    def _ends(batch: pa.Table) -> pa.Table:
        la = batch.column("la").to_numpy(zero_copy_only=False).astype(np.int64)
        lb = batch.column("lb").to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table(
            {
                "label": pa.array(np.concatenate([la, lb]), type=pa.int64()),
                "ec": pa.array(np.concatenate([la == lb, np.zeros(len(lb), bool)]).astype(np.int64)),
            }
        )

    def _label_sums(batch: pa.Table) -> pa.Table:
        e_c = batch.column("ec").to_numpy(zero_copy_only=False)
        d_c = batch.column("dc").to_numpy(zero_copy_only=False)
        s_dsq = int((d_c.astype(object) ** 2).sum())
        return pa.table(
            {
                "s_ec": pa.array([int(e_c.sum())], type=pa.int64()),
                "s_dsq": pa.array([str(s_dsq)], type=pa.string()),
            }
        )

    # per label: e_c intra-community edges, D_c its degree sum
    folds = bucket_keyed_fold(
        j2.map_batches(_ends, batch_format="pyarrow"),
        "label",
        {"ec": ("sum", "ec"), "dc": ("count", None)},
        num_buckets=num_buckets,
    ).map_batches(_label_sums, batch_format="pyarrow")
    sum_ec = 0
    sum_dsq = 0
    for r in folds.take_all():
        sum_ec += int(r["s_ec"])
        sum_dsq += int(r["s_dsq"])

    # n_communities comes from the ASSIGNMENT (a community of edge-less
    # hosts still counts)
    n_comm = bucket_keyed_fold(
        communities, "community", {}, num_buckets=num_buckets
    ).count()

    num = 4 * m * sum_ec - sum_dsq
    q = round(num / (4.0 * m * m), 9)
    return pa.table(
        {
            "n_edges": pa.array([m], pa.int64()),
            "n_communities": pa.array([n_comm], pa.int64()),
            "modularity": pa.array([q], pa.float64()),
        }
    )


# ---------------------------------------------------------------------------
# strongly connected components


def _tarjan_scc(src_arr: np.ndarray, dst_arr: np.ndarray) -> dict[int, int]:
    """Iterative Tarjan over int arrays → {node: scc_id} with scc_id =
    min node id of the component.  Pure-Python stack machine (no
    recursion limit); O(V+E) — the driver-tier workhorse under the
    edge budget."""
    order = np.lexsort((dst_arr, src_arr))
    s, d = src_arr[order], dst_arr[order]
    nodes = np.unique(np.concatenate([s, d]))
    starts = np.searchsorted(s, nodes, side="left")
    ends = np.searchsorted(s, nodes, side="right")
    n = len(nodes)
    idx_of = {int(v): i for i, v in enumerate(nodes)}
    succ = [d[starts[i] : ends[i]] for i in range(n)]

    index = [-1] * n
    low = [0] * n
    on_stack = [False] * n
    stack: list[int] = []
    result: dict[int, int] = {}
    counter = 0
    for root in range(n):
        if index[root] != -1:
            continue
        work = [(root, 0)]
        while work:
            v, pi = work[-1]
            if pi == 0:
                index[v] = low[v] = counter
                counter += 1
                stack.append(v)
                on_stack[v] = True
            advanced = False
            nbrs = succ[v]
            while pi < len(nbrs):
                w = idx_of[int(nbrs[pi])]
                pi += 1
                if index[w] == -1:
                    work[-1] = (v, pi)
                    work.append((w, 0))
                    advanced = True
                    break
                if on_stack[w]:
                    low[v] = min(low[v], index[w])
            if advanced:
                continue
            work.pop()
            if low[v] == index[v]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    comp.append(w)
                    if w == v:
                        break
                cid = int(nodes[min(comp, key=lambda i: nodes[i])])
                for w in comp:
                    result[int(nodes[w])] = cid
            if work:
                p, _ = work[-1]
                low[p] = min(low[p], low[v])
    return result


def scc(
    edges: ray.data.Dataset,
    *,
    src: str = "src",
    dst: str = "dst",
    edge_budget: int = 2_000_000,
    max_rounds: int = 64,
) -> ray.data.Dataset:
    """Strongly connected components of the DIRECTED host graph →
    ``(host, scc_id)`` with scc_id = min member id — the link-ring /
    spam-loop detector (mutual-reachability cliques) that undirected
    CC can't see.

    Driver tier (distinct edges ≤ ``edge_budget``): iterative Tarjan
    over the collected edge arrays — O(V+E), one pass, exact.

    Distributed tier (Fleischer–Hendrickson–Pinar forward–backward):
    repeat — (a) TRIM: nodes with zero remaining in- or out-degree are
    singleton SCCs, peeled iteratively (one degree exchange per peel
    round, the :func:`kcore` shape); (b) PIVOT the minimum remaining
    node id, forward-BFS and backward-BFS from it
    (:func:`bfs_depths` both directions); the intersection is the
    pivot's SCC (scc_id = pivot, the min remaining id); remove it and
    recurse on what's left.  Each round peels ≥1 SCC; ``max_rounds``
    RAISES rather than returning a wrong partial answer (the kcore
    honesty rule) — FW–BW is the standard distributed SCC shape, but a
    graph with many large SCCs needs rounds proportional to their
    count."""
    from dots_ocr_ray.pipelines.dedup import exact_distinct_pairs

    def _as_pair(batch: pa.Table) -> pa.Table:
        s = batch.column(src).to_numpy(zero_copy_only=False).astype(np.int64)
        d = batch.column(dst).to_numpy(zero_copy_only=False).astype(np.int64)
        keep = s != d  # self-loops never change SCC membership
        return pa.table(
            {
                "a": pa.array(s[keep], type=pa.int64()),
                "b": pa.array(d[keep], type=pa.int64()),
            }
        )

    dedges = exact_distinct_pairs(
        edges.map_batches(_as_pair, batch_format="pyarrow")
    ).materialize()
    empty = pa.table(
        {"host": pa.array([], pa.int64()), "scc_id": pa.array([], pa.int64())}
    )
    m = dedges.count()
    if m == 0:
        return ray.data.from_arrow(empty)

    if m <= edge_budget:
        a_chunks, b_chunks = [], []
        for bt in dedges.iter_batches(batch_format="pyarrow"):
            if bt.num_rows:
                a_chunks.append(bt.column("a").to_numpy(zero_copy_only=False).astype(np.int64))
                b_chunks.append(bt.column("b").to_numpy(zero_copy_only=False).astype(np.int64))
        assign = _tarjan_scc(np.concatenate(a_chunks), np.concatenate(b_chunks))
        hosts = np.array(sorted(assign), dtype=np.int64)
        return ray.data.from_arrow(
            pa.table(
                {
                    "host": pa.array(hosts, type=pa.int64()),
                    "scc_id": pa.array(
                        np.array([assign[int(h)] for h in hosts], dtype=np.int64),
                        type=pa.int64(),
                    ),
                }
            )
        )

    # ---- distributed tier: trim + forward-backward rounds -------------
    from dots_ocr_ray.pipelines.relational import hash_join

    pair_schema = pa.schema([("a", pa.int64()), ("b", pa.int64())])
    assigned_parts: list[ray.data.Dataset] = []
    cur = dedges

    def _rename_ab(batch: pa.Table) -> pa.Table:
        return pa.table({"src": batch.column("a"), "dst": batch.column("b")})

    def _rename_ba(batch: pa.Table) -> pa.Table:
        return pa.table({"src": batch.column("b"), "dst": batch.column("a")})

    for _ in range(max_rounds):
        if cur.count() == 0:
            break
        # (a) trim: zero-in or zero-out nodes are singleton SCCs
        while True:
            degs = degree_table(cur, src="a", dst="b").materialize()
            if degs.count() == 0:
                break

            def _trim_rows(batch: pa.Table) -> pa.Table:
                o = batch.column("out_deg").to_numpy(zero_copy_only=False)
                i = batch.column("in_deg").to_numpy(zero_copy_only=False)
                h = batch.column("host")
                keep = (o == 0) | (i == 0)
                hh = h.filter(pa.array(keep))
                return pa.table({"host": hh, "scc_id": hh})

            trimmed = degs.map_batches(_trim_rows, batch_format="pyarrow").materialize()
            if trimmed.count() == 0:
                break
            assigned_parts.append(trimmed)
            keep_nodes = hash_join(
                degs,
                trimmed,
                on="host",
                how="anti",
                left_schema=pa.schema(
                    [("host", pa.int64()), ("out_deg", pa.int64()), ("in_deg", pa.int64())]
                ),
                right_schema=pa.schema([("host", pa.int64()), ("scc_id", pa.int64())]),
            ).select_columns(["host"])

            def _as_a(batch: pa.Table) -> pa.Table:
                return pa.table({"a": batch.column("host")})

            def _as_b(batch: pa.Table) -> pa.Table:
                return pa.table({"b": batch.column("host")})

            cur = hash_join(
                cur,
                keep_nodes.map_batches(_as_a, batch_format="pyarrow"),
                on="a",
                how="semi",
                left_schema=pair_schema,
                right_schema=pa.schema([("a", pa.int64())]),
            )
            cur = hash_join(
                cur,
                keep_nodes.map_batches(_as_b, batch_format="pyarrow"),
                on="b",
                how="semi",
                left_schema=pair_schema,
                right_schema=pa.schema([("b", pa.int64())]),
            ).materialize()
            if cur.count() == 0:
                break
        if cur.count() == 0:
            break
        # (b) forward-backward from the min remaining node
        pivot = int(cur.min("a"))
        fwd = bfs_depths(
            cur.map_batches(_rename_ab, batch_format="pyarrow"),
            seeds=[pivot],
            max_depth=1_000_000_000,
        ).select_columns(["host"])
        bwd = bfs_depths(
            cur.map_batches(_rename_ba, batch_format="pyarrow"),
            seeds=[pivot],
            max_depth=1_000_000_000,
        ).select_columns(["host"])
        members = hash_join(
            fwd,
            bwd,
            on="host",
            how="semi",
            left_schema=pa.schema([("host", pa.int64())]),
            right_schema=pa.schema([("host", pa.int64())]),
        ).materialize()

        def _assign(batch: pa.Table, _p=pivot) -> pa.Table:
            return pa.table(
                {
                    "host": batch.column("host"),
                    "scc_id": pa.array(
                        np.full(batch.num_rows, _p, dtype=np.int64), type=pa.int64()
                    ),
                }
            )

        assigned_parts.append(
            members.map_batches(_assign, batch_format="pyarrow").materialize()
        )
        mem_schema = pa.schema([("host", pa.int64())])
        for col, ren in (("a", "_as_a2"), ("b", "_as_b2")):
            def _as_col(batch: pa.Table, _c=col) -> pa.Table:
                return pa.table({_c: batch.column("host")})

            cur = hash_join(
                cur,
                members.map_batches(_as_col, batch_format="pyarrow"),
                on=col,
                how="anti",
                left_schema=pair_schema,
                right_schema=pa.schema([(col, pa.int64())]),
            )
        cur = cur.materialize()
    else:
        raise RuntimeError(
            f"scc: not converged in {max_rounds} FW-BW rounds — raise max_rounds "
            "(many large SCCs need rounds proportional to their count)"
        )

    # final sweep: a node whose last edge vanished via a neighbor's
    # trim (e.g. the middle of a pure chain) never re-enters the
    # degree table — it is provably a singleton SCC (a mutual-cycle
    # partner's edges could not have been removed without it), so
    # assign it to itself from the ORIGINAL node set
    all_nodes = _distinct_nodes(dedges, 64)
    if not assigned_parts:
        assigned = ray.data.from_arrow(empty)
    else:
        assigned = assigned_parts[0]
        for p in assigned_parts[1:]:
            assigned = assigned.union(p)
        assigned = assigned.materialize()
    missing = hash_join(
        all_nodes,
        assigned,
        on="host",
        how="anti",
        left_schema=pa.schema([("host", pa.int64())]),
        right_schema=pa.schema([("host", pa.int64()), ("scc_id", pa.int64())]),
    )

    def _self_assign(batch: pa.Table) -> pa.Table:
        h = batch.column("host").cast(pa.int64())
        return pa.table({"host": h, "scc_id": h})

    return assigned.union(
        missing.map_batches(_self_assign, batch_format="pyarrow")
    )


def scc_edges_from_documents(sf_dir: str) -> ray.data.Dataset:
    """Deterministic directed host graph for the ``host_scc`` query:
    20 blocks of 20 hosts (``h = doc_id % 400``), each wired as a
    directed CYCLE (``h → h+1``, block-last → block-first) = 20
    size-20 SCCs, plus one-way bridges block-last → next-block-first
    on every ``doc_id % 7 == 0`` document (a chain, never a ring — so
    bridges add reachability but merge nothing)."""
    docs = ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id"])

    def _edges(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_numpy(zero_copy_only=False).astype(np.int64)
        h = ids % 400
        cyc_dst = np.where(h % 20 == 19, h - 19, h + 1)
        bridge_mask = (ids % 7 == 0) & (h % 20 == 19) & (h < 399)
        bh = h[bridge_mask]
        return pa.table(
            {
                "src": pa.array(np.concatenate([h, bh]), type=pa.int64()),
                "dst": pa.array(np.concatenate([cyc_dst, bh + 1]), type=pa.int64()),
            }
        )

    return docs.map_batches(_edges, batch_format="pyarrow")


def harmonic_centrality(
    edges: ray.data.Dataset,
    *,
    seeds,
    src: str = "src",
    dst: str = "dst",
    micro: int = 1_000_000,
    max_depth: int = 64,
    num_buckets: int = 64,
) -> ray.data.Dataset:
    """Seed-sampled harmonic centrality → ``(host, centrality_micro,
    n_seeds_reaching)``: for each node, Σ over seed sources of
    ``1/d(seed, node)`` — the sampled closeness/influence estimate
    (Boldi–Vigna's harmonic variant, which handles disconnected
    graphs; exact when ``seeds`` = all nodes, an unbiased sample
    estimate otherwise — sampling is how web-scale centrality is
    actually run).

    Exactness: each contribution quantizes to ``floor(micro/d)`` int64
    (1/d is rational — no float sums), so totals are bit-identical to
    the golden mirror under any partitioning.  Cost: one
    :func:`bfs_depths` per seed (levels × one edge pass in the
    broadcast tier) + ONE bucket-keyed fold over the ≤ |seeds|·|nodes|
    contribution rows.  Seeds at distance 0 contribute nothing."""
    edges = bounded_blocks(
        edges.select_columns([src, dst]), rows_per_block=1_048_576
    ).materialize()
    parts = []
    for s in sorted(set(int(x) for x in seeds)):
        depths = bfs_depths(edges, seeds=[s], src=src, dst=dst, max_depth=max_depth)

        def _contrib(batch: pa.Table) -> pa.Table:
            d = batch.column("depth").to_numpy(zero_copy_only=False).astype(np.int64)
            h = batch.column("host").to_numpy(zero_copy_only=False).astype(np.int64)
            keep = d > 0
            d, h = d[keep], h[keep]
            return pa.table(
                {
                    "host": pa.array(h, type=pa.int64()),
                    "c": pa.array(micro // d, type=pa.int64()),
                }
            )

        parts.append(depths.map_batches(_contrib, batch_format="pyarrow"))
    if not parts:
        return ray.data.from_arrow(
            pa.table(
                {
                    "host": pa.array([], pa.int64()),
                    "centrality_micro": pa.array([], pa.int64()),
                    "n_seeds_reaching": pa.array([], pa.int64()),
                }
            )
        )
    allc = parts[0]
    for p in parts[1:]:
        allc = allc.union(p)

    from dots_ocr_ray.util import bucket_keyed_fold

    return bucket_keyed_fold(
        allc,
        "host",
        {"centrality_micro": ("sum", "c"), "n_seeds_reaching": ("count", None)},
        num_buckets=num_buckets,
    )


# ---------------------------------------------------------------------------
# link prediction: common-neighbor scores for non-adjacent pairs


def common_neighbor_scores(
    edges: ray.data.Dataset,
    *,
    src: str = "src",
    dst: str = "dst",
    min_common: int = 2,
    pair_budget: int = 2_000_000,
    wedge_budget: int = 50_000_000,
    star_cap: int | None = None,
    num_buckets: int = 64,
) -> ray.data.Dataset:
    """Link prediction by common-neighbor counting: for every
    NON-adjacent pair (a, b) with at least ``min_common`` shared
    neighbors, emit (a, b, common_neighbors) — the classic
    crawl-frontier / related-host candidate generator (Liben-Nowell &
    Kleinberg's strongest unsupervised baseline).

    Same two-tier discipline as :func:`triangle_count`:

    * DRIVER tier (distinct edges <= ``pair_budget``, wedges <=
      ``wedge_budget``): one vectorized numpy pass — sorted-CSR wedge
      enumeration centered at every node, packed-key ``np.unique``
      counting, sorted-membership anti-filter against the edge set.
    * DISTRIBUTED tier: adjacency rows bucket by a deterministic hash
      of the CENTER node (one exchange), each bucket expands its
      wedges with the same rem/offset index arithmetic and pre-counts
      locally; a :func:`~dots_ocr_ray.util.bucket_keyed_fold` sums
      partial counts per packed pair key (second exchange); existing
      edges are removed with the exact
      :func:`~dots_ocr_ray.pipelines.dedup.anti_join_ids`.
      The driver never holds an edge.

    ``star_cap`` (distributed tier only): a mega-hub of degree D
    contributes D^2/2 wedges; capping each center at its ``star_cap``
    smallest-id neighbors bounds the blow-up deterministically at the
    cost of undercounting pairs seen ONLY through capped hubs — the
    same declared approximation as the dedup family's
    HOT_BUCKET_CAP.  Default None = exact (required by the oracle).

    Node ids must fit 31 bits (``ValueError`` otherwise) — pairs pack
    into one int64 key for counting and the anti join."""
    from dots_ocr_ray.pipelines.dedup import anti_join_ids, exact_distinct_pairs

    def _canon(batch: pa.Table) -> pa.Table:
        s = batch.column(src).to_numpy(zero_copy_only=False).astype(np.int64)
        d = batch.column(dst).to_numpy(zero_copy_only=False).astype(np.int64)
        keep = s != d
        s, d = s[keep], d[keep]
        a = np.minimum(s, d)
        b = np.maximum(s, d)
        if not ((a >= 0).all() and (b < 2**31).all()):
            raise ValueError("common_neighbor_scores: node ids must fit 31 bits")
        pairs = np.unique(a << np.int64(32) | b)
        return pa.table(
            {
                "a": pa.array(pairs >> np.int64(32), type=pa.int64()),
                "b": pa.array(pairs & np.int64(0xFFFFFFFF), type=pa.int64()),
            }
        )

    out_schema = pa.schema(
        [("a", pa.int64()), ("b", pa.int64()), ("common_neighbors", pa.int64())]
    )

    E = exact_distinct_pairs(
        edges.map_batches(_canon, batch_format="pyarrow")
    ).materialize()

    def _wedge_pairs(c: np.ndarray, x: np.ndarray):
        """All unordered neighbor pairs per center from adjacency rows
        (c, x), returned as packed int64 keys (u < v guaranteed by the
        per-run ascending sort).  Shared by both tiers."""
        order = np.lexsort((x, c))
        c, x = c[order], x[order]
        _, run_len = np.unique(c, return_counts=True)
        run_end = np.repeat(np.cumsum(run_len), run_len)
        pos = np.arange(len(c))
        rem = run_end - pos - 1
        total = int(rem.sum())
        if total == 0:
            return np.empty(0, dtype=np.int64)
        first = np.repeat(pos, rem)
        offsets = np.concatenate([[0], np.cumsum(rem)])[:-1]
        second = np.arange(total) - np.repeat(offsets, rem) + first + 1
        return (x[first] << np.int64(32)) | x[second]

    if E.count() <= pair_budget:
        from dots_ocr_ray.util import sorted_membership

        a = _collect_int_col(E, "a")
        b = _collect_int_col(E, "b")
        if len(a) == 0:
            return ray.data.from_arrow(out_schema.empty_table())
        deg_nodes, deg = np.unique(np.concatenate([a, b]), return_counts=True)
        n_wedges = int((deg.astype(np.int64) * (deg - 1) // 2).sum())
        if n_wedges <= wedge_budget:
            keys = _wedge_pairs(
                np.concatenate([a, b]), np.concatenate([b, a])
            )
            uniq, cnt = np.unique(keys, return_counts=True)
            ekeys = np.sort((a << np.int64(32)) | b)
            keep = (~sorted_membership(ekeys, uniq)) & (cnt >= min_common)
            uniq, cnt = uniq[keep], cnt[keep]
            return ray.data.from_arrow(
                pa.table(
                    {
                        "a": pa.array(uniq >> np.int64(32), type=pa.int64()),
                        "b": pa.array(uniq & np.int64(0xFFFFFFFF), type=pa.int64()),
                        "common_neighbors": pa.array(
                            cnt.astype(np.int64), type=pa.int64()
                        ),
                    }
                )
            )
        # wedge set too hot even under the edge budget → distributed

    def _adj(batch: pa.Table) -> pa.Table:
        a = batch.column("a").to_numpy(zero_copy_only=False)
        b = batch.column("b").to_numpy(zero_copy_only=False)
        c = np.concatenate([a, b]).astype(np.int64)
        x = np.concatenate([b, a]).astype(np.int64)
        return pa.table({"c": pa.array(c, type=pa.int64()), "x": pa.array(x, type=pa.int64())})

    def _expand(group: pa.Table) -> pa.Table:
        c = group.column("c").to_numpy(zero_copy_only=False).astype(np.int64)
        x = group.column("x").to_numpy(zero_copy_only=False).astype(np.int64)
        if star_cap is not None and len(c):
            # deterministic cap: keep each center's star_cap smallest-x
            # neighbors (declared approximation for mega-hubs)
            order = np.lexsort((x, c))
            c, x = c[order], x[order]
            _, run_len = np.unique(c, return_counts=True)
            run_start = np.repeat(np.cumsum(run_len) - run_len, run_len)
            keep = (np.arange(len(c)) - run_start) < star_cap
            c, x = c[keep], x[keep]
        keys = _wedge_pairs(c, x)
        uniq, cnt = np.unique(keys, return_counts=True)
        return pa.table(
            {
                "key": pa.array(uniq, type=pa.int64()),
                "cn": pa.array(cnt.astype(np.int64), type=pa.int64()),
            }
        )

    from dots_ocr_ray.util import bucket_keyed_fold

    partials = bucket_exchange(
        E.map_batches(_adj, batch_format="pyarrow"), "c", _expand, num_buckets=num_buckets
    )
    counts = bucket_keyed_fold(partials, "key", {"cn": ("sum", "cn")})

    def _edge_keys(batch: pa.Table) -> pa.Table:
        a = batch.column("a").to_numpy(zero_copy_only=False).astype(np.int64)
        b = batch.column("b").to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table({"id": pa.array((a << np.int64(32)) | b, type=pa.int64())})

    non_edges = anti_join_ids(
        counts,
        E.map_batches(_edge_keys, batch_format="pyarrow"),
        id_col="key",
    )

    def _unpack(batch: pa.Table) -> pa.Table:
        k = batch.column("key").to_numpy(zero_copy_only=False).astype(np.int64)
        cn = batch.column("cn").to_numpy(zero_copy_only=False).astype(np.int64)
        keep = cn >= min_common
        k, cn = k[keep], cn[keep]
        return pa.table(
            {
                "a": pa.array(k >> np.int64(32), type=pa.int64()),
                "b": pa.array(k & np.int64(0xFFFFFFFF), type=pa.int64()),
                "common_neighbors": pa.array(cn, type=pa.int64()),
            }
        )

    return non_edges.map_batches(_unpack, batch_format="pyarrow")


def degree_assortativity_stats(
    edges: ray.data.Dataset,
    *,
    src: str = "src",
    dst: str = "dst",
) -> "pa.Table":
    """Degree-assortativity SUFFICIENT STATISTICS over the distinct
    undirected graph: one row (n_edges, sum_deg, sum_deg_sq,
    sum_deg_prod) where the sums run over edge ENDPOINT degrees —
    everything Newman's assortativity coefficient needs, kept in
    int64 so the result is exact and bit-identical under any
    partitioning (r = (S3/m - (S1/2m)^2) / (S2/2m - (S1/2m)^2)).

    Plan: exact distinct edges (one bucket exchange), degrees via
    :func:`~dots_ocr_ray.util.bucket_keyed_fold` (one more),
    materialized once, then two
    :func:`~dots_ocr_ray.pipelines.relational.hash_join` degree
    attachments — each a broadcast map when the degree table fits
    :func:`~dots_ocr_ray.util.broadcast_fits`, else one keyed
    exchange — then a per-batch integer partial reduced
    on the driver; edge count never driver-resident.  Host ids may be
    any int64."""
    from dots_ocr_ray.pipelines.dedup import exact_distinct_pairs
    from dots_ocr_ray.pipelines.relational import hash_join

    @util.rows_out(1)
    def _canon(batch: pa.Table) -> pa.Table:
        # orient each pair and drop self-loops; the distinct fold's
        # combiner removes the duplicates
        s = batch.column(src).to_numpy(zero_copy_only=False).astype(np.int64)
        d = batch.column(dst).to_numpy(zero_copy_only=False).astype(np.int64)
        keep = s != d
        s, d = s[keep], d[keep]
        return pa.table({"a": np.minimum(s, d), "b": np.maximum(s, d)})

    def _probe(names: list):
        return lambda batch: batch.rename_columns(names)

    E = exact_distinct_pairs(edges.map_batches(_canon, batch_format="pyarrow")).materialize()
    degrees = _node_degrees(E).materialize()
    # the probe side is renamed, not the materialized degree table, so
    # each join broadcasts the table as it is: (node, b, deg), then
    # (a, node, deg_a, deg)
    with_da = hash_join(E.map_batches(_probe(["node", "b"]), batch_format="pyarrow"), degrees, on="node")
    with_deg = hash_join(with_da.map_batches(_probe(["a", "node", "deg_a"]), batch_format="pyarrow"), degrees, on="node")
    i64 = pa.int64()

    def _stats(batch: pa.Table) -> pa.Table:
        da = batch.column("deg_a").to_numpy(zero_copy_only=False).astype(np.int64)
        db = batch.column("deg").to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table(
            {
                "n_edges": pa.array([len(da)], type=i64),
                "sum_deg": pa.array([int((da + db).sum())], type=i64),
                "sum_deg_sq": pa.array([int((da * da + db * db).sum())], type=i64),
                "sum_deg_prod": pa.array([int((da * db).sum())], type=i64),
            }
        )

    totals = np.zeros(4, dtype=np.int64)
    for b in with_deg.map_batches(_stats, batch_format="pyarrow").iter_batches(
        batch_format="pyarrow"
    ):
        for i, c in enumerate(("n_edges", "sum_deg", "sum_deg_sq", "sum_deg_prod")):
            totals[i] += int(pc.sum(b.column(c)).as_py() or 0)
    return pa.table(
        {
            "n_edges": pa.array([int(totals[0])], type=i64),
            "sum_deg": pa.array([int(totals[1])], type=i64),
            "sum_deg_sq": pa.array([int(totals[2])], type=i64),
            "sum_deg_prod": pa.array([int(totals[3])], type=i64),
        }
    )


# ---------------------------------------------------------------------------
# betweenness centrality (per-source-parallel exact Brandes)


def brandes_source_dependency(
    adj: dict[int, list[int]], source: int, *, micro: int = 1_000_000
) -> dict[int, int]:
    """One source's Brandes dependency, micro-floored: BFS from
    ``source`` over the directed adjacency (neighbor lists MUST be
    sorted — the fixed iteration order makes the float accumulation
    bit-deterministic), then the reverse-order accumulation
    ``delta[v] += sigma[v]/sigma[w] * (1 + delta[w])``; returns
    ``{v: floor(delta[v]·micro)}`` for interior v with delta > 0.

    The micro-floor happens PER SOURCE, so cross-source totals are
    integer sums — bit-identical between the parallel pipeline and the
    sequential golden regardless of partitioning or sum order.  This
    is the shared pure kernel both import (make_golden pattern)."""
    from collections import deque

    dist: dict[int, int] = {source: 0}
    sigma: dict[int, int] = {source: 1}
    order: list[int] = []
    q = deque([source])
    while q:
        v = q.popleft()
        order.append(v)
        for w in adj.get(v, ()):
            if w not in dist:
                dist[w] = dist[v] + 1
                sigma[w] = 0
                q.append(w)
            if dist[w] == dist[v] + 1:
                sigma[w] += sigma[v]
    delta: dict[int, float] = {v: 0.0 for v in order}
    for w in reversed(order):
        for x in adj.get(w, ()):
            if dist.get(x) == dist[w] + 1:
                delta[w] += sigma[w] / sigma[x] * (1.0 + delta[x])
    out: dict[int, int] = {}
    for v, d in delta.items():
        if v != source and d > 0:
            out[v] = int(d * micro)
    return out


BETWEENNESS_EDGE_BUDGET = 5_000_000


def betweenness_centrality(
    edges: ray.data.Dataset,
    *,
    src: str = "src",
    dst: str = "dst",
    micro: int = 1_000_000,
) -> ray.data.Dataset:
    """Exact directed betweenness → ``(host, betweenness_micro)``,
    parallelized BY SOURCE: the distinct self-loop-free edge set is
    folded once (one keyed fold), broadcast via ``ray.put``
    (per-worker cached), and each Ray task runs the shared Brandes
    kernel for a slice of source nodes — |V| independent O(E) BFS
    passes, the textbook scale-out for exact betweenness.  Totals are
    integer sums of per-source micro-floored dependencies (see
    :func:`brandes_source_dependency`), so the result is
    partition-invariant and golden-checkable.

    Bounded tier ONLY by design: exact betweenness needs all-pairs
    shortest paths, so the edge set must fit a worker
    (``BETWEENNESS_EDGE_BUDGET``, ``ValueError`` past it).  For open
    web graphs use the sampled :func:`harmonic_centrality` family
    instead."""
    from dots_ocr_ray.util import bucket_keyed_fold, cached_object

    def _canon(batch: pa.Table) -> pa.Table:
        s = batch.column(src).to_numpy(zero_copy_only=False).astype(np.int64)
        d = batch.column(dst).to_numpy(zero_copy_only=False).astype(np.int64)
        keep = s != d
        s, d = s[keep], d[keep]
        if len(s) and not (s.min() >= 0 and d.min() >= 0 and max(s.max(), d.max()) < 2**31):
            raise ValueError("betweenness_centrality: node ids must fit 31 bits (packed pairs)")
        u = np.unique(s << np.int64(32) | (d & np.int64(0xFFFFFFFF)))
        return pa.table(
            {
                "src": pa.array(u >> np.int64(32), type=pa.int64()),
                "dst": pa.array(u & np.int64(0xFFFFFFFF), type=pa.int64()),
            }
        )

    # materialize so the budget count and the driver collect execute the
    # dedup exchange ONCE (blocks stay in the object store either way)
    pruned = bucket_keyed_fold(
        edges.select_columns([src, dst]).map_batches(_canon, batch_format="pyarrow"), ["src", "dst"], {}
    ).materialize()
    n_edges = pruned.count()  # metadata-only on a materialized dataset
    if n_edges > BETWEENNESS_EDGE_BUDGET:
        raise ValueError("betweenness_centrality: distinct edges exceed the bounded tier")
    if n_edges == 0:
        return ray.data.from_arrow(
            pa.table(
                {
                    "host": pa.array([], pa.int64()),
                    "betweenness_micro": pa.array([], pa.int64()),
                }
            )
        )
    tables = [ray.get(r) for r in pruned.to_arrow_refs()]
    tbl = pa.concat_tables([t for t in tables if t.num_rows])
    s_arr = tbl.column("src").to_numpy(zero_copy_only=False).astype(np.int64)
    d_arr = tbl.column("dst").to_numpy(zero_copy_only=False).astype(np.int64)
    adj: dict[int, list[int]] = {}
    for a, b in zip(s_arr.tolist(), d_arr.tolist()):
        adj.setdefault(a, []).append(b)
    for v in adj:
        adj[v].sort()
    nodes = sorted(set(s_arr.tolist()) | set(d_arr.tolist()))
    adj_ref = ray.put(adj)

    sources = ray.data.from_arrow(
        pa.table({"source": pa.array(nodes, type=pa.int64())})
    ).repartition(min(len(nodes), 16))

    def _deps(batch: pa.Table, ref=adj_ref, mic=micro) -> pa.Table:
        a = cached_object(ref)
        hosts: list[int] = []
        cs: list[int] = []
        for s0 in batch.column("source").to_pylist():
            for v, c in brandes_source_dependency(a, int(s0), micro=mic).items():
                hosts.append(v)
                cs.append(c)
        return pa.table(
            {
                "host": pa.array(hosts, type=pa.int64()),
                "c": pa.array(cs, type=pa.int64()),
            }
        )

    parts = sources.map_batches(_deps, batch_format="pyarrow")
    return bucket_keyed_fold(parts, "host", {"betweenness_micro": ("sum", "c")})


def reciprocity(
    edges: ray.data.Dataset,
    *,
    src: str = "src",
    dst: str = "dst",
) -> ray.data.Dataset:
    """Directed-graph reciprocity: the fraction of distinct self-loop-
    free edges whose reverse edge also exists — the link-farm /
    mutual-citation signal (a host graph where everyone links back is
    a very different crawl neighborhood than a one-way citation DAG).

    Exact integer output: one row ``(n_edges, n_mutual,
    reciprocity_micro = 10⁶·n_mutual // n_edges)``.  Shape: each edge
    is oriented to ``(lo, hi)`` with a forward or backward flag, one
    :func:`~dots_ocr_ray.util.bucket_keyed_fold` on ``(lo, hi)`` keeps
    the max of each flag, and per-batch partials of Σ(fwd + bwd) and
    2·#(fwd ∧ bwd) are summed on the driver.  Host ids may be any
    int64."""
    from dots_ocr_ray.util import bucket_keyed_fold

    @util.rows_out(1)
    def _orient(batch: pa.Table) -> pa.Table:
        s = batch.column(src).to_numpy(zero_copy_only=False).astype(np.int64)
        d = batch.column(dst).to_numpy(zero_copy_only=False).astype(np.int64)
        keep = s != d
        s, d = s[keep], d[keep]
        fwd = (s < d).astype(np.int64)
        return pa.table({"lo": np.minimum(s, d), "hi": np.maximum(s, d), "fwd": fwd, "bwd": 1 - fwd})

    def _totals(batch: pa.Table) -> pa.Table:
        f = batch.column("fwd").to_numpy(zero_copy_only=False)
        b = batch.column("bwd").to_numpy(zero_copy_only=False)
        return pa.table({"n_edges": [int((f + b).sum())], "n_mutual": [2 * int((f & b).sum())]})

    pairs = bucket_keyed_fold(
        edges.select_columns([src, dst]).map_batches(_orient, batch_format="pyarrow"),
        ["lo", "hi"],
        {"fwd": ("max", "fwd"), "bwd": ("max", "bwd")},
    )
    n_edges = n_mutual = 0
    for t in util.collect_arrow_blocks(pairs.map_batches(_totals, batch_format="pyarrow")):
        n_edges += pc.sum(t.column("n_edges")).as_py()
        n_mutual += pc.sum(t.column("n_mutual")).as_py()
    return ray.data.from_arrow(
        pa.table(
            {
                "n_edges": pa.array([n_edges], pa.int64()),
                "n_mutual": pa.array([n_mutual], pa.int64()),
                "reciprocity_micro": pa.array([1_000_000 * n_mutual // max(n_edges, 1)], pa.int64()),
            }
        )
    )


def resolve_redirects(
    edges: ray.data.Dataset,
    *,
    src: str = "src",
    dst: str = "dst",
    edge_budget: int = 2_000_000,
    max_rounds: int | None = None,
) -> ray.data.Dataset:
    """Resolve every redirect SOURCE to its terminal target over a
    functional graph of (src → dst) redirect edges — the canonical-url
    chase a crawler runs before frontier dedup (301 chains, meta
    refresh, URL shorteners).  Output ``(src, final, hops)``; a chain
    that enters a CYCLE gets ``final = hops = -1`` (the crawler's
    "redirect loop" verdict).  Duplicate src rows resolve to the MIN
    dst (deterministic under re-crawled shards).

    Driver tier (edges ≤ ``edge_budget``): memoized iterative chase
    with on-stack cycle marking — O(V), exact.

    Distributed tier: POINTER DOUBLING — each round one
    :func:`relational.hash_join` of the pointer table against itself
    advances every unresolved pointer to its 2^k-th successor and adds
    the successor's accumulated hop count, so ANY chain resolves in
    ≤ log2(longest chain) exchanges; ``max_rounds`` defaults to
    ``ceil(log2(edges)) + 1`` — an acyclic chain cannot be longer than
    the edge count, so rows still matching a source after that many
    doublings can only be on/into a cycle and are marked -1 (no wrong
    partial answer)."""
    def _as_pair(batch: pa.Table) -> pa.Table:
        s = batch.column(src).to_numpy(zero_copy_only=False).astype(np.int64)
        d = batch.column(dst).to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table(
            {"a": pa.array(s, pa.int64()), "b": pa.array(d, pa.int64())}
        )

    from dots_ocr_ray.util import bucket_keyed_fold

    ptr = bucket_keyed_fold(edges.map_batches(_as_pair, batch_format="pyarrow"), "a", {"b": ("min", "b")}).materialize()
    empty = pa.table(
        {
            "src": pa.array([], pa.int64()),
            "final": pa.array([], pa.int64()),
            "hops": pa.array([], pa.int64()),
        }
    )
    m = ptr.count()
    if m == 0:
        return ray.data.from_arrow(empty)

    if m <= edge_budget:
        nxt: dict[int, int] = {}
        for bt in ptr.iter_batches(batch_format="pyarrow"):
            for a, b in zip(
                bt.column("a").to_pylist(), bt.column("b").to_pylist()
            ):
                nxt[int(a)] = int(b)
        final: dict[int, tuple[int, int]] = {}
        for start in nxt:
            if start in final:
                continue
            stack: list[int] = []
            on_stack: set[int] = set()
            v = start
            while v in nxt and v not in final and v not in on_stack:
                stack.append(v)
                on_stack.add(v)
                v = nxt[v]
            if v in on_stack:  # walked into a new cycle
                res: tuple[int, int] = (-1, -1)
            elif v in final:
                res = final[v]
            else:  # v is terminal (not a source)
                res = (v, 0)
            while stack:
                u = stack.pop()
                if res[0] == -1:
                    final[u] = (-1, -1)
                else:
                    final[u] = (res[0], res[1] + 1)
                    res = final[u]
        srcs = sorted(final)
        return ray.data.from_arrow(
            pa.table(
                {
                    "src": pa.array(srcs, pa.int64()),
                    "final": pa.array([final[s][0] for s in srcs], pa.int64()),
                    "hops": pa.array([final[s][1] for s in srcs], pa.int64()),
                }
            )
        )

    from dots_ocr_ray.pipelines.relational import hash_join

    state = ptr.map_batches(
        lambda t: pa.table(
            {
                "node": t.column("a").cast(pa.int64()),
                "key": t.column("b").cast(pa.int64()),
                "hops": pa.array(np.ones(t.num_rows, np.int64), pa.int64()),
            }
        ),
        batch_format="pyarrow",
    ).materialize()
    right_schema = pa.schema([("key", pa.int64()), ("r_nxt", pa.int64()), ("r_hops", pa.int64())])
    left_schema = pa.schema([("node", pa.int64()), ("key", pa.int64()), ("hops", pa.int64())])
    if max_rounds is None:
        max_rounds = int(np.ceil(np.log2(max(m, 2)))) + 1
    cyclic = False
    for _ in range(max_rounds):
        right = state.map_batches(
            lambda t: pa.table(
                {
                    "key": t.column("node").cast(pa.int64()),
                    "r_nxt": t.column("key").cast(pa.int64()),
                    "r_hops": t.column("hops").cast(pa.int64()),
                }
            ),
            batch_format="pyarrow",
        )
        joined = hash_join(
            state,
            right,
            on="key",
            how="left",
            left_schema=left_schema,
            right_schema=right_schema,
        )

        def _advance(t: pa.Table) -> pa.Table:
            matched = ~pc.is_null(t.column("r_nxt")).to_numpy(
                zero_copy_only=False
            )
            key = t.column("key").to_numpy(zero_copy_only=False).astype(np.int64)
            hops = t.column("hops").to_numpy(zero_copy_only=False).astype(np.int64)
            # fill_null keeps the path int64 end-to-end: a float round
            # trip would corrupt ids above 2^53 (hash-derived 60-bit
            # node ids are the normal case at scale)
            nxt2 = (
                t.column("r_nxt")
                .combine_chunks()
                .fill_null(0)
                .to_numpy(zero_copy_only=False)
                .astype(np.int64)
            )
            h2 = (
                t.column("r_hops")
                .combine_chunks()
                .fill_null(0)
                .to_numpy(zero_copy_only=False)
                .astype(np.int64)
            )
            new_key = np.where(matched, nxt2, key)
            new_hops = hops + np.where(matched, h2, 0)
            return pa.table(
                {
                    "node": t.column("node").cast(pa.int64()),
                    "key": pa.array(new_key, pa.int64()),
                    "hops": pa.array(new_hops, pa.int64()),
                    "moved": pa.array(matched.astype(np.int64), pa.int64()),
                }
            )

        advanced = joined.map_batches(_advance, batch_format="pyarrow").materialize()
        moved = advanced.sum("moved")
        state = advanced.drop_columns(["moved"]).materialize()
        if not moved:
            break
    else:
        cyclic = True

    def _finalize(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "src": t.column("node").cast(pa.int64()),
                "final": t.column("key").cast(pa.int64()),
                "hops": t.column("hops").cast(pa.int64()),
            }
        )

    out = state.map_batches(_finalize, batch_format="pyarrow")
    if cyclic:
        # rows whose pointer still targets a source are on/into a cycle
        srcs_ds = state.map_batches(
            lambda t: pa.table({"sid": t.column("node").cast(pa.int64())}),
            batch_format="pyarrow",
        )
        from dots_ocr_ray.pipelines.dedup import semi_join_ids

        looped = semi_join_ids(
            out, srcs_ds, id_col="final", id_cols=("sid",)
        ).map_batches(
            lambda t: pa.table(
                {
                    "src": t.column("src").cast(pa.int64()),
                    "final": pa.array(np.full(t.num_rows, -1, np.int64), pa.int64()),
                    "hops": pa.array(np.full(t.num_rows, -1, np.int64), pa.int64()),
                }
            ),
            batch_format="pyarrow",
        )
        from dots_ocr_ray.pipelines.dedup import anti_join_ids

        clean = anti_join_ids(out, srcs_ds, id_col="final", id_cols=("sid",))
        out = clean.union(looped)
    return out


def fair_share_budget(
    demands: ray.data.Dataset,
    *,
    key_col: str,
    demand_col: str,
    capacity: int,
) -> pa.Table:
    """Max-min fair (water-filling) division of a fixed crawl budget
    across hosts: every host gets its full demand if it fits under the
    water level t, everyone larger gets t — the politeness-constrained
    scheduler split that neither starves small hosts nor lets a mega
    host eat the budget.

    Integer-exact: t is the LARGEST integer with ``Σ min(d_h, t) ≤ C``
    found from the demand-sorted prefix sums (for each sorted row i,
    candidate ``(C − P_{i−1}) // (H−i+1)``, valid when it lands in
    ``[d_{i−1}, d_i)``); the residual ``C − Σ min(d_h, t)`` (provably
    < #unsaturated) goes +1 each to the unsaturated hosts in key
    order.  Shape: one bounded (key, demand) fold; the driver loop and
    the SQL oracle's window form compute the identical closed form."""
    from dots_ocr_ray.util import bucket_keyed_fold

    folded = (
        bucket_keyed_fold(demands.select_columns([key_col, demand_col]), key_col, {"d": ("sum", demand_col)})
        .to_pandas()
        .sort_values(["d", key_col])
        .reset_index(drop=True)
    )
    d = folded["d"].astype(int).tolist()
    keys = folded[key_col].tolist()
    H = len(d)
    total = sum(d)
    if total <= capacity:
        t = d[-1] if d else 0
        alloc = list(d)
    else:
        prefix = 0
        t = 0
        for i in range(H):  # row i+1 in the 1-indexed closed form
            rem = H - i
            cand = (capacity - prefix) // rem
            lo = d[i - 1] if i > 0 else 0
            if lo <= cand < d[i]:
                t = cand
                break
            prefix += d[i]
        alloc = [min(x, t) for x in d]
        leftover = capacity - sum(alloc)
        bonus_order = sorted(
            (i for i in range(H) if d[i] > t), key=lambda i: keys[i]
        )
        for i in bonus_order[:leftover]:
            alloc[i] += 1
    out = sorted(zip(keys, d, alloc))
    return pa.table(
        {
            key_col: pa.array([k for k, _, _ in out], pa.string()),
            "demand": pa.array([x for _, x, _ in out], pa.int64()),
            "alloc": pa.array([a for _, _, a in out], pa.int64()),
        }
    )
