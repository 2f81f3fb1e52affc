"""Corpus-level deduplication pipelines (SURVEY.md §2.7 D3 + the
large-scale training-data ops).

The reference's only corpus-level dedup is exact (md5 job identity +
md5-gated skip, dotsocr_service.py:595-623); a 100 TB training-data
engine needs the full family:

* :func:`exact_dedup` — hash-partitioned groupby, first-by-key.
* :func:`minhash_lsh_dedup` — shingle → minhash signature → banded LSH
  buckets → candidate pairs → distributed verification → components.
* :func:`simhash_dedup` — 64-bit simhash, pigeonhole block index,
  Hamming-distance verification.
* :func:`ngram_jaccard_dedup` — LSH candidates verified with exact
  character-n-gram Jaccard (texts joined to pairs distributively).
* :func:`embedding_dedup` — random-hyperplane LSH buckets + cosine
  verification over an embedding column.

Scale notes (single-node test, multi-node design):
- every stage is ``map_batches`` (vectorized; stateless tasks with
  module-warm lazy singletons — no actor-pool ramps) and the
  all-to-all exchanges are keyed by content hash — uniformly
  distributed by construction.
- LSH band rows carry ONLY (band_id, band_key, doc_id) — never the
  full signature.  Shipping the 1 KB signature through every band's
  groupby would amplify the shuffle 32× at num_perm=128/bands=32;
  instead candidate pairs are verified AFTER the bucket stage against
  the signature side-table, which is first cut to candidate endpoints
  (:func:`filter_payload_to_pair_endpoints`) and then joined to the
  pairs (:func:`attach_pair_payloads`: two ``hash_join`` calls, each a
  broadcast when the side fits and one keyed exchange above).
- candidate-pair volume is tamed twice: star-linking caps hot buckets
  at O(n), and :func:`distinct_pairs` collapses cross-band duplicates
  with a sort + vectorized per-block unique (duplicate pairs are
  idempotent everywhere downstream, so the ≤ blocks-1 boundary
  stragglers are harmless).
- connected components run distributed by default above a pair-count
  cutoff (:func:`cluster_assign`): iterative min-label propagation as
  a Dataset loop (2 keyed exchanges over edges+labels per round,
  O(component diameter) rounds — near-dup components are stars/cliques
  in practice, so 2-3 rounds).  Below the cutoff a driver union-find
  over the PAIRS ONLY builds a small root map that is broadcast
  (``ray.put``) and applied in a streaming ``map_batches`` — the
  corpus ids themselves never materialize on the driver in either
  path.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray
import ray.data

from dots_ocr_ray import util
from dots_ocr_ray.functions.hashing import (
    MinHasher,
    char_ngram_hashes,
    jaccard_hashes,
    shingles,
    simhash64,
    simhash_block_keys,
)
from dots_ocr_ray.kernel.textops import md5_hex
from dots_ocr_ray.util import (
    bounded_blocks,
    bucket_exchange,
    cached_object,
    sorted_lookup,
    sorted_membership,
    vec_matrix,
)


HOT_BUCKET_CAP = 64
"""Above this size a candidate bucket switches from full pairwise
emission (O(n^2)) to star-linking vs its min doc (O(n)) — the hot-key
guard for duplicate-heavy corpora (SURVEY §7.4 hard part 6)."""

# ---------------------------------------------------------------------------
# exact dedup
def sorted_group_first(
    ds: ray.data.Dataset, key_col, order_col: str
) -> ray.data.Dataset:
    """EXACT first row per key (min ``order_col``), whole rows kept:
    the ``first`` keyed op.  ``key_col`` is one column name or a list.

    One :func:`~dots_ocr_ray.util.bucket_exchange`: each input batch
    first keeps its own first row per key (a combiner, so a hot key
    moves one row per batch), then each bucket sorts by (key, order)
    and keeps every key run's first row — one vectorized pass per
    bucket, no per-key Python."""
    from dots_ocr_ray.util import _key_runs

    keys = [key_col] if isinstance(key_col, str) else list(key_col)

    def _first(table: pa.Table) -> pa.Table:
        perm, starts = _key_runs(table, keys, [order_col])
        return table.take(perm[starts])

    @util.rows_out(1)
    def _combine(batch: pa.Table) -> pa.Table:
        # parquet-read blocks carry a `pandas` schema-metadata blob
        # that pyarrow can't hash; dropping it here (schema-only, zero
        # copy) keeps Ray's schema dedup quiet through the exchange
        return _first(batch.replace_schema_metadata(None))

    def _fold(group: pa.Table) -> pa.Table:
        return _first(group).drop_columns(["__bucket"])

    return bucket_exchange(ds.map_batches(_combine, batch_format="pyarrow"), keys, _fold)


def add_content_md5(
    ds: ray.data.Dataset, text_col: str = "text"
) -> ray.data.Dataset:
    """Append ``content_md5 = md5(text or "")`` — THE content-identity
    convention shared by exact dedup, its incremental sibling and the
    refresh index append; one copy so the hashing rule (null handling,
    no normalization) can never diverge between the index and a later
    corpus pass."""

    @util.rows_out(1)
    def _add(batch: pa.Table) -> pa.Table:
        hashes = [md5_hex(t or "") for t in batch.column(text_col).to_pylist()]
        return batch.append_column("content_md5", pa.array(hashes, type=pa.string()))

    return ds.map_batches(_add, batch_format="pyarrow")


def exact_dedup(
    ds: ray.data.Dataset, text_col: str = "text", id_col: str = "doc_id"
) -> ray.data.Dataset:
    """Exact dedup: content-hash + first-per-hash (min id), survivors
    keep their full rows.

    Vectorized hash inside map_batches, then :func:`sorted_group_first`
    keyed by md5(text) — one bucket exchange, uniformly distributed
    (identical content IS the key), and no per-distinct-text Python
    reduce."""
    return sorted_group_first(add_content_md5(ds, text_col), "content_md5", id_col)


# ---------------------------------------------------------------------------
# candidate-pair plumbing shared by the whole near-dup family


def _empty_pairs() -> pa.Table:
    return pa.table({"a": pa.array([], type=pa.int64()), "b": pa.array([], type=pa.int64())})


_TRIU_CACHE: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def _triu(k: int) -> tuple[np.ndarray, np.ndarray]:
    """Cached upper-triangle index pair for bucket sizes ≤ the hot cap
    (row-major — the same (i, j<i) order a nested loop emits)."""
    if k not in _TRIU_CACHE:
        _TRIU_CACHE[k] = np.triu_indices(k, 1)
    return _TRIU_CACHE[k]


def _pairs_table(a: np.ndarray, b: np.ndarray) -> pa.Table:
    return pa.table(
        {"a": pa.array(a, type=pa.int64()), "b": pa.array(b, type=pa.int64())}
    )


def _popcount64(x: np.ndarray) -> np.ndarray:
    """Vectorized SWAR popcount over uint64 (Hamming weights for the
    simhash verification matrix)."""
    x = x.astype(np.uint64)
    x = x - ((x >> np.uint64(1)) & np.uint64(0x5555555555555555))
    x = (x & np.uint64(0x3333333333333333)) + ((x >> np.uint64(2)) & np.uint64(0x3333333333333333))
    x = (x + (x >> np.uint64(4))) & np.uint64(0x0F0F0F0F0F0F0F0F)
    return ((x * np.uint64(0x0101010101010101)) >> np.uint64(56)).astype(np.int64)


def exact_distinct_pairs(
    pairs_ds: ray.data.Dataset, *, num_buckets: int = 64
) -> ray.data.Dataset:
    """EXACT distinct int64 (a, b) pairs: ONE
    :func:`~dots_ocr_ray.util.bucket_keyed_fold` distinct on the pair —
    Python cost O(num_buckets), never O(distinct pairs).

    :func:`distinct_pairs` (sort + per-block unique) is cheaper but
    leaves ≤ num_blocks−1 boundary stragglers, fine for idempotent
    consumers (CC, verification).  Use THIS form where multiplicity
    changes semantics — degree counts in k-core, wedge enumeration in
    triangle counting — and a native multi-key ``groupby().count()``
    would pay per-DISTINCT-GROUP reduce cost (measured ~12 s for 1.2M
    distinct pairs vs <1 s for the 64-bucket form)."""
    from dots_ocr_ray.util import bucket_keyed_fold

    return bucket_keyed_fold(pairs_ds, ["a", "b"], {}, num_buckets=num_buckets)


def distinct_pairs(pairs_ds: ray.data.Dataset) -> ray.data.Dataset:
    """Near-distinct (a, b) candidate pairs: global sort by (a, b) +
    vectorized per-block unique.

    After the range-partitioned sort, duplicates of a pair are adjacent
    and per-block ``np.unique`` removes all but at most
    ``num_blocks - 1`` boundary stragglers.  Downstream consumers —
    payload join, pair verification, connected components — are all
    idempotent under duplicate pairs, so the stragglers are harmless;
    what matters is the ~bands× volume cut.  A keyed-aggregate exact
    distinct pays per-GROUP Python on the reduce side (measured 157 s
    for 27M rows → 1M distinct pairs on a duplicate-heavy corpus); the
    sort form costs the sort alone."""

    def _uniq_local(batch: pa.Table) -> pa.Table:
        # pre-shuffle combiner: collapse within-batch duplicates BEFORE
        # the sort exchange — on a duplicate-heavy corpus the same pair
        # reaches a block through many bands, so this cuts the sort's
        # input several-fold for one vectorized np.unique per batch
        if batch.num_rows == 0:
            return _empty_pairs()
        an = batch.column("a").to_numpy(zero_copy_only=False).astype(np.int64)
        bn = batch.column("b").to_numpy(zero_copy_only=False).astype(np.int64)
        uniq = np.unique(np.stack([an, bn], axis=1), axis=0)
        return pa.table(
            {
                "a": pa.array(uniq[:, 0], type=pa.int64()),
                "b": pa.array(uniq[:, 1], type=pa.int64()),
            }
        )

    def _uniq(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return _empty_pairs()
        an = batch.column("a").to_numpy(zero_copy_only=False).astype(np.int64)
        bn = batch.column("b").to_numpy(zero_copy_only=False).astype(np.int64)
        # rows arrive sorted by (a, b): a row is a duplicate iff it
        # equals its predecessor
        keep = np.empty(len(an), dtype=bool)
        keep[0] = True
        np.logical_or(an[1:] != an[:-1], bn[1:] != bn[:-1], out=keep[1:])
        return pa.table(
            {
                "a": pa.array(an[keep], type=pa.int64()),
                "b": pa.array(bn[keep], type=pa.int64()),
            }
        )

    return (
        pairs_ds.map_batches(_uniq_local, batch_format="pyarrow")
        .sort(["a", "b"])
        .map_batches(_uniq, batch_format="pyarrow")
    )


def _int_col(batch: pa.Table, name: str) -> np.ndarray:
    return batch.column(name).to_numpy(zero_copy_only=False).astype(np.int64)


def _collect_sorted_ids(
    ids_ds: ray.data.Dataset, id_cols: tuple[str, ...]
) -> np.ndarray:
    """Distinct ids of a (small, materialized) id table as ONE sorted
    int64 array — the broadcast payload of the driver tier."""
    from dots_ocr_ray.util import collect_arrow_blocks

    chunks: list[np.ndarray] = []
    for b in collect_arrow_blocks(ids_ds):
        for col in id_cols:
            chunks.append(_int_col(b, col))
    return np.unique(np.concatenate(chunks)) if chunks else np.array([], np.int64)


def _ids_as(ids_ds: ray.data.Dataset, id_col: str, id_cols: tuple[str, ...]) -> ray.data.Dataset:
    """Every id of ``ids_ds``'s ``id_cols`` as one int64 ``id_col``
    column: the right side of :func:`semi_join_ids` /
    :func:`anti_join_ids`."""

    @util.rows_out(len(id_cols))
    def _flat(batch: pa.Table) -> pa.Table:
        return pa.table({id_col: pa.array(np.concatenate([_int_col(batch, c) for c in id_cols]), type=pa.int64())})

    return ids_ds.map_batches(_flat, batch_format="pyarrow")


def semi_join_ids(
    payload_ds: ray.data.Dataset,
    ids_ds: ray.data.Dataset,
    *,
    id_col: str,
    id_cols: tuple[str, ...] = ("id",),
) -> ray.data.Dataset:
    """Exact semi-join: keep payload rows whose ``id_col`` value
    appears in any of ``ids_ds``'s ``id_cols`` columns —
    :func:`~dots_ocr_ray.pipelines.relational.hash_join`
    ``how="semi"`` against the flattened ids, so the ids broadcast
    when they fit and meet the payload in one exchange when not."""
    from dots_ocr_ray.pipelines.relational import hash_join  # lazy: avoid cycle

    return hash_join(payload_ds, _ids_as(ids_ds, id_col, id_cols), on=id_col, how="semi")


def anti_join_ids(
    payload_ds: ray.data.Dataset,
    ids_ds: ray.data.Dataset,
    *,
    id_col: str,
    id_cols: tuple[str, ...] = ("id",),
) -> ray.data.Dataset:
    """Exact anti-join: drop payload rows whose ``id_col`` value
    appears in any of ``ids_ds``'s ``id_cols`` — the OUTPUT-defining
    keep filter of dedup (it must drop exactly the duplicate set);
    :func:`semi_join_ids`'s complement, tiered the same way."""
    from dots_ocr_ray.pipelines.relational import hash_join  # lazy: avoid cycle

    return hash_join(payload_ds, _ids_as(ids_ds, id_col, id_cols), on=id_col, how="anti")


def filter_payload_to_pair_endpoints(
    payload_ds: ray.data.Dataset,
    pairs_ds: ray.data.Dataset,
    *,
    id_col: str,
) -> ray.data.Dataset:
    """Shrink the (id, payload) side-table to rows whose id is a
    candidate-pair endpoint BEFORE the attach exchange — the side-table
    then shuffles O(pairs) payloads instead of the whole corpus.
    ``pairs_ds`` must be materialized (it is the small side by LSH
    construction).  Tiering per :func:`semi_join_ids`."""
    return semi_join_ids(
        payload_ds,
        pairs_ds.select_columns(["a", "b"]),
        id_col=id_col,
        id_cols=("a", "b"),
    )


def attach_pair_payloads(
    pairs_ds: ray.data.Dataset,
    payload_ds: ray.data.Dataset,
    *,
    id_col: str,
    payload_col: str,
    payload_type: pa.DataType,
) -> ray.data.Dataset:
    """(a, b) pairs + (id, payload) side-table → (a, b, payload_a,
    payload_b): two :func:`~dots_ocr_ray.pipelines.relational.hash_join`
    calls, pairs ⋈ payload on ``a``, then on ``b``.  The side table is
    shaped and materialized once; each join broadcasts it when it fits
    (searchsorted + Arrow take, zero exchanges) and runs one keyed
    exchange when not.  The side table has usually been cut to
    candidate endpoints first (:func:`filter_payload_to_pair_endpoints`).

    Pairs whose endpoint is missing from the side-table are dropped
    (inner joins); a payload id that repeats matches every copy.
    Duplicate candidate pairs — allowed upstream — pass through
    duplicated, which every consumer (vectorized verify, connected
    components) treats idempotently."""
    from dots_ocr_ray.pipelines.relational import hash_join  # lazy: avoid cycle

    i64 = pa.int64()

    def _side(batch: pa.Table) -> pa.Table:
        return pa.table({"__id": batch.column(id_col).cast(i64), "__pay": batch.column(payload_col).cast(payload_type)})

    side = payload_ds.map_batches(_side, batch_format="pyarrow").materialize()
    side_schema = pa.schema([("__id", i64), ("__pay", payload_type)])

    def _cols(names: dict):
        # the endpoint to join on travels as __id; renames fuse into the
        # probe tasks, so the side is the only thing materialized
        return lambda batch: pa.table({new: batch.column(old) for new, old in names.items()})

    with_a = hash_join(
        pairs_ds.map_batches(_cols({"__id": "a", "b": "b"}), batch_format="pyarrow"),
        side,
        on="__id",
        left_schema=pa.schema([("__id", i64), ("b", i64)]),
        right_schema=side_schema,
    ).map_batches(_cols({"a": "__id", "__id": "b", "payload_a": "__pay"}), batch_format="pyarrow")
    return hash_join(
        with_a,
        side,
        on="__id",
        left_schema=pa.schema([("a", i64), ("__id", i64), ("payload_a", payload_type)]),
        right_schema=side_schema,
    ).map_batches(_cols({"a": "a", "b": "__id", "payload_a": "payload_a", "payload_b": "__pay"}), batch_format="pyarrow")


# ---------------------------------------------------------------------------
# connected components over candidate pairs
class _UnionFind:
    def __init__(self):
        self.parent: dict[int, int] = {}

    def find(self, x: int) -> int:
        self.parent.setdefault(x, x)
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, a: int, b: int) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            # deterministic: smaller id wins as root
            lo, hi = (ra, rb) if ra < rb else (rb, ra)
            self.parent[hi] = lo


def _root_map_from_pairs(pairs: list[tuple[int, int]]) -> dict[int, int]:
    """node → min id of its component, for nodes appearing in pairs.
    Dict union-find — kept as the INDEPENDENT sequential reference
    (tools/make_golden.py builds oracles through it); the engine's
    driver path runs :func:`_min_labels_numpy` instead, so the two
    implementations cross-check through the golden gate."""
    uf = _UnionFind()
    for a, b in pairs:
        uf.union(a, b)
    roots: dict[int, int] = {}
    for node in uf.parent:
        r = uf.find(node)
        roots[r] = min(roots.get(r, node), node)
    return {node: roots[uf.find(node)] for node in uf.parent}


def _min_labels_numpy(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized connected components over pair arrays → (nodes,
    min-id label per node), both sorted by node.

    Min-label propagation with pointer jumping, every round a handful
    of O(E) numpy kernels — the driver path stops being a serial
    Python dict walk (measured ~20 s for 1M pairs) and becomes
    milliseconds-per-round vectorized work.  Converges in
    O(log diameter) rounds; near-dup graphs (stars/cliques) take 2-3.
    """
    ends = np.concatenate([a, b])
    nodes, inv = np.unique(ends, return_inverse=True)
    ea, eb = inv[: len(a)], inv[len(a) :]
    label = np.arange(len(nodes), dtype=np.int64)
    while True:
        new = label.copy()
        np.minimum.at(new, ea, label[eb])
        np.minimum.at(new, eb, label[ea])
        new = np.minimum(new[new], new)  # pointer jump + keep monotone
        if np.array_equal(new, label):
            break
        label = new
    return nodes, nodes[label]


def _propagate_labels(pairs_ds: ray.data.Dataset, max_rounds: int) -> ray.data.Dataset:
    """Distributed min-label propagation over the candidate-pair graph
    → (node, label) with label = min node id of the component.

    Each round is two keyed exchanges (send own label along every edge,
    then min-combine per node) over the edges+labels only — never the
    corpus.  Converges in O(component diameter) rounds; the label sum
    is strictly decreasing until the fixpoint, which is the
    convergence test."""

    def _edges(batch: pa.Table) -> pa.Table:
        an = batch.column("a").to_numpy(zero_copy_only=False).astype(np.int64)
        bn = batch.column("b").to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table(
            {
                "src": pa.array(np.concatenate([an, bn]), type=pa.int64()),
                "dst": pa.array(np.concatenate([bn, an]), type=pa.int64()),
            }
        )

    edges = bounded_blocks(pairs_ds.map_batches(_edges, batch_format="pyarrow"), rows_per_block=262144)

    def _nodes(batch: pa.Table) -> pa.Table:
        return pa.table({"node": batch.column("src")})

    def _self_label(batch: pa.Table) -> pa.Table:
        return pa.table({"node": batch.column("node"), "label": batch.column("node")})

    from dots_ocr_ray.util import bucket_keyed_fold as _bkf

    # bucket-fold distinct/min instead of native per-distinct-node
    # groupby reduces: at 3M nodes the native path costs minutes PER
    # ROUND (the triangle-count profile measured 178 s for one such
    # reduce); the fold is O(num_buckets) Python
    labels = (
        _bkf(edges.map_batches(_nodes, batch_format="pyarrow"), "node", {})
        .map_batches(_self_label, batch_format="pyarrow")
        .materialize()
    )

    def _edge_as_node(batch: pa.Table) -> pa.Table:
        return pa.table(
            {"node": batch.column("src"), "dst": batch.column("dst")}
        )

    # edges re-enter the join every round: materialize the keyed form
    # once instead of re-deriving it per round
    edges_keyed = edges.map_batches(_edge_as_node, batch_format="pyarrow").materialize()
    edge_schema = pa.schema([("node", pa.int64()), ("dst", pa.int64())])
    label_schema = pa.schema([("node", pa.int64()), ("label", pa.int64())])

    def _msgs(batch: pa.Table) -> pa.Table:
        return pa.table(
            {"node": batch.column("dst"), "label": batch.column("label")}
        )

    from dots_ocr_ray.pipelines.relational import hash_join

    prev_total = None
    for _ in range(max_rounds):
        # send own label along every out-edge: ONE keyed join (labels
        # are unique per node, so each edge matches exactly one label
        # row) — fully vectorized per bucket, no Python per node (the
        # per-group _send this replaced paid ~0.1-0.2 ms of Python per
        # NODE per round, the distinct_pairs pathology, on the very
        # path that only engages above the driver union-find's budget)
        sent = hash_join(
            edges_keyed,
            labels,
            on="node",
            num_buckets=32,  # per-round fixed cost: fewer, fatter
            # buckets — the per-bucket merge is vectorized, so 1/32nd
            # of even a 100M-edge round is fine for one pandas merge
            left_schema=edge_schema,
            right_schema=label_schema,
        )
        labels = _bkf(
            sent.map_batches(_msgs, batch_format="pyarrow").union(labels),
            "node",
            {"label": ("min", "label")},
        ).materialize()
        # pointer jumping: label ← label(label).  One more keyed join
        # per round turns O(diameter) convergence into O(log diameter)
        # — the classic fix for the chain worst case (a 15-hop path
        # converges in ~4 rounds instead of 15).
        def _as_ptr(batch: pa.Table) -> pa.Table:
            return pa.table(
                {"label": batch.column("node"), "label2": batch.column("label")}
            )

        jumped = hash_join(
            labels,
            labels.map_batches(_as_ptr, batch_format="pyarrow"),
            on="label",
            num_buckets=32,
            left_schema=label_schema,
            right_schema=pa.schema([("label", pa.int64()), ("label2", pa.int64())]),
        )

        def _min2(batch: pa.Table) -> pa.Table:
            lab = np.minimum(_int_col(batch, "label"), _int_col(batch, "label2"))
            return pa.table(
                {
                    "node": batch.column("node"),
                    "label": pa.array(lab, type=pa.int64()),
                }
            )

        labels = jumped.map_batches(_min2, batch_format="pyarrow").materialize()
        total = labels.sum("label")
        if total == prev_total:
            return labels
        prev_total = total
    raise RuntimeError(
        f"label propagation did not converge in {max_rounds} rounds "
        "(pathological component diameter — raise max_rounds)"
    )


def cluster_assign(
    ids_ds: ray.data.Dataset,
    pairs_ds: ray.data.Dataset,
    *,
    id_col: str = "doc_id",
    max_rounds: int = 64,
) -> ray.data.Dataset:
    """(doc_id, cluster_id) for EVERY id in ``ids_ds``; cluster_id =
    min doc id of the candidate-pair component (singletons map to
    themselves).

    Pairs that fit :func:`~dots_ocr_ray.util.broadcast_fits`:
    vectorized min-label pointer-jumping over the pairs only (never the
    corpus ids, :func:`_min_labels_numpy`) on the driver → small root
    map broadcast via ``ray.put`` → streaming ``map_batches``
    assignment.  Larger: min-label propagation
    (:func:`_propagate_labels`) then one keyed min-combine of (ids ∪
    labels); nothing driver-sized depends on the corpus row count."""
    pairs_ds = bounded_blocks(pairs_ds, rows_per_block=262144)
    n_pairs = pairs_ds.count()

    if n_pairs == 0:

        def _identity(batch: pa.Table) -> pa.Table:
            ids = batch.column(id_col).cast(pa.int64())
            return pa.table({"doc_id": ids, "cluster_id": ids})

        return ids_ds.map_batches(_identity, batch_format="pyarrow")

    if util.broadcast_fits(pairs_ds.size_bytes()):
        # the dup-heavy stress's 6.55M pairs (105 MB) run here: 4.4 s
        # against 15.9 s on the propagation tier (4 CPUs)
        # fetch the (materialized, bounded) pair blocks as zero-copy
        # object-store refs — iter_batches' iterator machinery costs
        # ~4.3 s for 6.5M pairs where the direct block fetch is 0.08 s
        # (measured round 5)
        from dots_ocr_ray.util import collect_arrow_blocks

        blocks = collect_arrow_blocks(pairs_ds)
        a_chunks = [_int_col(t, "a") for t in blocks]
        b_chunks = [_int_col(t, "b") for t in blocks]
        if not a_chunks:
            a_chunks, b_chunks = [np.zeros(0, dtype=np.int64)], [np.zeros(0, dtype=np.int64)]
        nodes, labels = _min_labels_numpy(
            np.concatenate(a_chunks), np.concatenate(b_chunks)
        )
        roots_ref = ray.put((nodes, labels))

        def _assign(batch: pa.Table) -> pa.Table:
            nodes_l, labels_l = cached_object(roots_ref)
            ids = _int_col(batch, id_col)
            out = ids.copy()
            if len(nodes_l):
                hit, idx = sorted_lookup(nodes_l, ids)
                out[hit] = labels_l[idx[hit]]
            return pa.table(
                {
                    "doc_id": pa.array(ids, type=pa.int64()),
                    "cluster_id": pa.array(out, type=pa.int64()),
                }
            )

        return ids_ds.map_batches(_assign, batch_format="pyarrow")

    labels = _propagate_labels(pairs_ds, max_rounds)

    def _ids_as_labels(batch: pa.Table) -> pa.Table:
        ids = batch.column(id_col).cast(pa.int64())
        return pa.table({"doc_id": ids, "label": ids})

    def _labels_renamed(batch: pa.Table) -> pa.Table:
        return pa.table({"doc_id": batch.column("node"), "label": batch.column("label")})

    unioned = ids_ds.map_batches(_ids_as_labels, batch_format="pyarrow").union(
        labels.map_batches(_labels_renamed, batch_format="pyarrow")
    )

    from dots_ocr_ray.util import bucket_keyed_fold

    return bucket_keyed_fold(unioned, "doc_id", {"cluster_id": ("min", "label")})


# ---------------------------------------------------------------------------
# MinHash + LSH
_HASHER_CACHE: dict[int, MinHasher] = {}
_PLANES_CACHE: dict = {}


def _warm_planes(dim: int, n_planes: int, seed: int) -> np.ndarray:
    key = (dim, n_planes, seed)
    if key not in _PLANES_CACHE:
        rng = np.random.RandomState(seed)
        _PLANES_CACHE[key] = rng.standard_normal((dim, n_planes)).astype(np.float32)
    return _PLANES_CACHE[key]


def _warm_hasher(num_perm: int) -> MinHasher:
    """Module-level lazy singleton: worker processes stay warm across
    tasks, so the permutation tables are built once per worker with no
    actor-pool ramp (the reference's lazy-singleton model seam A3/A4).
    """
    if num_perm not in _HASHER_CACHE:
        _HASHER_CACHE[num_perm] = MinHasher(num_perm=num_perm)
    return _HASHER_CACHE[num_perm]


def _signature_batch(
    batch: pa.Table, *, text_col: str, id_col: str, num_perm: int, shingle_k: int
) -> pa.Table:
    hasher = _warm_hasher(num_perm)
    sigs = [
        hasher.signature(shingles(t or "", shingle_k)).astype(np.uint64).tobytes()
        for t in batch.column(text_col).to_pylist()
    ]
    return pa.table(
        {
            "doc_id": batch.column(id_col).cast(pa.int64()),
            "sig": pa.array(sigs, type=pa.binary()),
        }
    )


def minhash_candidate_pairs(
    ds: ray.data.Dataset,
    *,
    text_col: str = "text",
    id_col: str = "doc_id",
    num_perm: int = 128,
    bands: int = 32,
    shingle_k: int = 5,
    threshold: float = 0.8,
    concurrency: int | tuple[int, int] | None = None,
) -> ray.data.Dataset:
    """Verified MinHash near-dup pairs → (a, b) with est-Jaccard ≥
    threshold.

    shingle→minhash per batch (stateless tasks with a module-warm
    hasher; signatures materialized once as the side-table — at extreme
    scale persist them to parquet instead) → lite (band_id, band_key,
    doc_id) rows → bucket groupby emitting UNVERIFIED candidate pairs
    (star-capped on hot buckets) → near-distinct → signature join
    (:func:`attach_pair_payloads`) → vectorized est-Jaccard filter.

    ``concurrency`` is accepted for API compatibility but unused (the
    stages are stateless tasks scheduled by the streaming executor)."""
    import functools

    sigs = ds.map_batches(
        functools.partial(
            _signature_batch,
            text_col=text_col,
            id_col=id_col,
            num_perm=num_perm,
            shingle_k=shingle_k,
        ),
        batch_format="pyarrow",
    )
    # materialize + coalesce: the signature table is the side-table for
    # verification AND the band-explode input; tiny-block inputs (e.g.
    # from_items) would otherwise fan every downstream exchange into
    # hundreds of per-block tasks
    sigs = bounded_blocks(sigs)
    return minhash_pairs_from_sigs(sigs, bands=bands, threshold=threshold)


def minhash_pairs_from_sigs(
    sigs: ray.data.Dataset,
    *,
    bands: int = 32,
    threshold: float = 0.8,
    pair_filter=None,
) -> ray.data.Dataset:
    """Verified near-dup pairs from a PRECOMPUTED (doc_id, sig)
    signature table — the seam that lets incremental refreshes reuse a
    stored index instead of re-shingling the archive.  ``sigs`` must be
    materialized/coalesced (callers: ``bounded_blocks``).

    ``pair_filter`` (an Arrow batch → batch over candidate (a, b)
    rows) is applied BEFORE the endpoint semi-join / payload attach /
    verification, so callers that only care about a pair subset (the
    incremental path discards archive × archive pairs) never pay the
    attach exchange or the signature compare for the rest."""

    def _explode_bands(batch: pa.Table) -> pa.Table:
        sig_col = batch.column("sig")
        if batch.num_rows:
            widths = {len(b) for b in sig_col.to_pylist()}
            if len(widths) > 1:
                # mixed num_perm (e.g. an index stored at 64 perms fed
                # alongside fresh 128-perm sigs) would silently bucket
                # nothing together — a no-op dedup — or misalign the
                # est-Jaccard reshape; fail loudly instead
                raise ValueError(
                    f"mixed MinHash signature widths {sorted(widths)} bytes — "
                    "all sigs must use one num_perm"
                )
        band_ids, band_keys, doc_ids = [], [], []
        for doc_id, sig_bytes in zip(batch.column("doc_id").to_pylist(), sig_col.to_pylist()):
            sig = np.frombuffer(sig_bytes, dtype=np.uint64)
            for b, key in enumerate(MinHasher.band_keys(sig, bands)):
                band_ids.append(b)
                band_keys.append(key)
                doc_ids.append(doc_id)
        return pa.table(
            {
                "band_id": pa.array(band_ids, type=pa.int32()),
                "band_key": pa.array(band_keys, type=pa.uint64()),
                "doc_id": pa.array(doc_ids, type=pa.int64()),
            }
        )

    bands_ds = sigs.map_batches(_explode_bands, batch_format="pyarrow")

    # ONE coarse 64-way exchange (hash of the band bucket) instead of a
    # full range-sort on (band_id, band_key): each coarse group holds
    # complete band buckets, which a single lexsort + run-length pass
    # then emits pairs from — Python cost O(distinct bucket sizes) per
    # coarse group, not O(buckets).  Semantics identical to the old
    # per-bucket map_groups: ≤ HOT_BUCKET_CAP → all pairs (verified
    # downstream), hot buckets → star-link to the bucket's min doc
    # (other bands' buckets recover pairs a star misses).
    def _bucket_pairs(group: pa.Table) -> pa.Table:
        bid = group.column("band_id").to_numpy(zero_copy_only=False).astype(np.int64)
        key = group.column("band_key").to_numpy(zero_copy_only=False).astype(np.int64)
        docs = group.column("doc_id").to_numpy(zero_copy_only=False).astype(np.int64)
        if len(docs) < 2:
            return _empty_pairs()
        order = np.lexsort((docs, key, bid))
        bid, key, docs = bid[order], key[order], docs[order]
        new_run = np.ones(len(docs), dtype=bool)
        new_run[1:] = (bid[1:] != bid[:-1]) | (key[1:] != key[:-1])
        starts = np.flatnonzero(new_run)
        lens = np.diff(np.concatenate([starts, [len(docs)]]))
        out_a: list[np.ndarray] = []
        out_b: list[np.ndarray] = []
        for size in np.unique(lens):
            if size < 2:
                continue
            runs = starts[lens == size]
            # (n_runs, size) doc matrix, ascending within a row
            mat = docs[runs[:, None] + np.arange(size)[None, :]]
            if size <= HOT_BUCKET_CAP:
                iu, ju = _triu(int(size))
                out_a.append(mat[:, iu].ravel())
                out_b.append(mat[:, ju].ravel())
            else:
                out_a.append(np.repeat(mat[:, 0], int(size) - 1))
                out_b.append(mat[:, 1:].ravel())
        if not out_a:
            return _empty_pairs()
        return _pairs_table(np.concatenate(out_a), np.concatenate(out_b))

    # 256 coarse buckets: the fold's parallelism ceiling on a
    # multi-node cluster, still trivially few Python calls
    cand = bucket_exchange(bands_ds, ["band_id", "band_key"], _bucket_pairs, num_buckets=256)
    if pair_filter is not None:
        cand = cand.map_batches(pair_filter, batch_format="pyarrow")
    cand = bounded_blocks(distinct_pairs(cand), rows_per_block=262144)
    sig_side = filter_payload_to_pair_endpoints(sigs, cand, id_col="doc_id")
    with_sigs = attach_pair_payloads(
        cand, sig_side, id_col="doc_id", payload_col="sig", payload_type=pa.binary()
    )

    def _verify(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return _empty_pairs()
        # vectorized est-jaccard: signatures are fixed-width uint64
        # blobs, so each side reshapes to (n, num_perm) and one
        # elementwise-equal mean replaces a Python loop per pair
        # (measured 80 µs/pair → the whole batch in one C pass)
        n = batch.num_rows
        sa = np.frombuffer(
            b"".join(batch.column("payload_a").to_pylist()), dtype=np.uint64
        ).reshape(n, -1)
        sb = np.frombuffer(
            b"".join(batch.column("payload_b").to_pylist()), dtype=np.uint64
        ).reshape(n, -1)
        keep = (sa == sb).mean(axis=1) >= threshold
        return batch.select(["a", "b"]).filter(pa.array(keep, type=pa.bool_()))

    return with_sigs.map_batches(_verify, batch_format="pyarrow")


def minhash_lsh_dedup(
    ds: ray.data.Dataset,
    *,
    text_col: str = "text",
    id_col: str = "doc_id",
    num_perm: int = 128,
    bands: int = 32,
    shingle_k: int = 5,
    threshold: float = 0.8,
    concurrency: int | tuple[int, int] | None = None,
) -> ray.data.Dataset:
    """MinHash+LSH near-dup clustering → (doc_id, cluster_id).

    Candidate pairs via :func:`minhash_candidate_pairs`; components via
    :func:`cluster_assign` (driver union-find under the pair cutoff,
    distributed min-label propagation above it).  Docs with no near-dup
    get cluster_id == doc_id."""
    pairs = minhash_candidate_pairs(
        ds,
        text_col=text_col,
        id_col=id_col,
        num_perm=num_perm,
        bands=bands,
        shingle_k=shingle_k,
        threshold=threshold,
        concurrency=concurrency,
    )
    return cluster_assign(ds.select_columns([id_col]), pairs, id_col=id_col)


# ---------------------------------------------------------------------------
# SimHash
def simhash_dedup(
    ds: ray.data.Dataset,
    *,
    text_col: str = "text",
    id_col: str = "doc_id",
    max_hamming: int = 3,
    n_blocks: int = 4,
) -> ray.data.Dataset:
    """SimHash near-dup clustering → (doc_id, cluster_id).

    64-bit simhash per row; pigeonhole block index (any pair within
    Hamming ≤ n_blocks-1 shares a block key) → bucket groupby → exact
    Hamming verification in-bucket (the payload is 8 bytes — unlike
    minhash signatures it is cheap to ship through the band exchange)
    → distinct pairs → components."""
    def _sim(batch: pa.Table) -> pa.Table:
        hs = [simhash64(t or "") for t in batch.column(text_col).to_pylist()]
        return pa.table(
            {
                "doc_id": batch.column(id_col).cast(pa.int64()),
                "simhash": pa.array(hs, type=pa.uint64()),
            }
        )

    sims = ds.map_batches(_sim, batch_format="pyarrow")
    return hash64_cluster(
        ds.select_columns([id_col]),
        sims,
        id_col=id_col,
        max_hamming=max_hamming,
        n_blocks=n_blocks,
    )


def hash64_cluster(
    ids_ds: ray.data.Dataset,
    sims: ray.data.Dataset,
    *,
    id_col: str = "doc_id",
    max_hamming: int = 3,
    n_blocks: int = 4,
) -> ray.data.Dataset:
    """Hamming-radius clustering of any 64-bit signature column —
    the shared core behind SimHash text dedup and perceptual-hash
    media dedup.  ``sims`` must carry ``(doc_id int64, simhash
    uint64)``; pigeonhole block keys → bucket groupby → exact Hamming
    verification in-bucket → distinct pairs → components."""
    if max_hamming > n_blocks - 1:
        # the pigeonhole index only guarantees a shared block for pairs
        # within Hamming ≤ n_blocks-1; a larger radius would silently
        # lose recall rather than honor the caller's threshold
        raise ValueError(
            f"max_hamming={max_hamming} needs n_blocks >= {max_hamming + 1} "
            f"(got {n_blocks}): pairs above Hamming n_blocks-1 may share no block key"
        )

    def _explode(batch: pa.Table) -> pa.Table:
        blk, key, ids, hs = [], [], [], []
        for doc_id, h in zip(batch.column("doc_id").to_pylist(), batch.column("simhash").to_pylist()):
            for b, v in simhash_block_keys(h, n_blocks):
                blk.append(b)
                key.append(v)
                ids.append(doc_id)
                hs.append(h)
        return pa.table(
            {
                "block": pa.array(blk, type=pa.int32()),
                "key": pa.array(key, type=pa.uint64()),
                "doc_id": pa.array(ids, type=pa.int64()),
                "simhash": pa.array(hs, type=pa.uint64()),
            }
        )

    # ONE coarse 256-way exchange (hash of the pigeonhole bucket)
    # instead of a range-sort over every distinct (block, key) and a
    # Python call per bucket — the same fold rework as the MinHash
    # band exchange; Hamming verification runs vectorized per
    # bucket-SIZE class inside the coarse group
    def _pairs(group: pa.Table) -> pa.Table:
        blk = group.column("block").to_numpy(zero_copy_only=False).astype(np.int64)
        key = group.column("key").to_numpy(zero_copy_only=False).astype(np.int64)
        docs = group.column("doc_id").to_numpy(zero_copy_only=False).astype(np.int64)
        hs = group.column("simhash").to_numpy(zero_copy_only=False).astype(np.uint64)
        if len(docs) < 2:
            return _empty_pairs()
        order = np.lexsort((docs, key, blk))
        blk, key, docs, hs = blk[order], key[order], docs[order], hs[order]
        new_run = np.ones(len(docs), dtype=bool)
        new_run[1:] = (blk[1:] != blk[:-1]) | (key[1:] != key[:-1])
        starts = np.flatnonzero(new_run)
        lens = np.diff(np.concatenate([starts, [len(docs)]]))
        out_a: list[np.ndarray] = []
        out_b: list[np.ndarray] = []
        for size in np.unique(lens):
            if size < 2:
                continue
            runs = starts[lens == size]
            idx = runs[:, None] + np.arange(size)[None, :]
            md = docs[idx]  # (n_runs, size), ascending per row
            mh = hs[idx]
            if size <= HOT_BUCKET_CAP:
                ii, jj = _triu(int(size))
                hd = _popcount64(mh[:, ii] ^ mh[:, jj])
                keep = (hd <= max_hamming) & (md[:, ii] != md[:, jj])
                out_a.append(md[:, ii][keep])
                out_b.append(md[:, jj][keep])
            else:
                # hot bucket: star-link vs the run's min doc (col 0)
                hd = _popcount64(mh ^ mh[:, :1])
                keep = (hd <= max_hamming) & (md != md[:, :1])
                out_a.append(np.broadcast_to(md[:, :1], md.shape)[keep])
                out_b.append(md[keep])
        if not out_a:
            return _empty_pairs()
        da = np.concatenate(out_a)
        db = np.concatenate(out_b)
        return _pairs_table(np.minimum(da, db), np.maximum(da, db))

    # duplicate pairs across pigeonhole blocks are harmless to both CC
    # paths (union-find and min-propagation are idempotent), so no
    # distinct barrier here
    pairs = bucket_exchange(
        sims.map_batches(_explode, batch_format="pyarrow"),
        ["block", "key"],
        _pairs,
        num_buckets=256,
        rows_per_block=262144,
    )
    return cluster_assign(ids_ds, pairs, id_col=id_col)


# ---------------------------------------------------------------------------
# n-gram Jaccard (LSH candidates + exact verification)
def ngram_jaccard_dedup(
    ds: ray.data.Dataset,
    *,
    text_col: str = "text",
    id_col: str = "doc_id",
    n: int = 3,
    threshold: float = 0.8,
    concurrency: int | tuple[int, int] | None = None,
) -> ray.data.Dataset:
    """Character-n-gram Jaccard near-dup clustering → (doc_id,
    cluster_id).  Candidates come from a loose MinHash pass (recall
    net); each candidate pair is verified with EXACT n-gram Jaccard —
    the two texts are joined to the pair distributively
    (:func:`attach_pair_payloads`), so no candidate text ever lands on
    the driver."""
    cand = minhash_candidate_pairs(
        ds,
        text_col=text_col,
        id_col=id_col,
        threshold=max(0.3, threshold - 0.3),
        concurrency=concurrency,
    )
    verified = jaccard_verify_pairs(
        cand, ds, id_col=id_col, text_col=text_col, n=n, threshold=threshold
    )
    return cluster_assign(ds.select_columns([id_col]), verified, id_col=id_col)


# ---------------------------------------------------------------------------
# embedding cosine near-dup
def embedding_dedup(
    ds: ray.data.Dataset,
    *,
    vec_col: str = "embedding",
    id_col: str = "vec_id",
    threshold: float = 0.95,
    n_planes: int = 12,
    seed: int = 42,
) -> ray.data.Dataset:
    """Embedding near-dup clustering → (doc_id, cluster_id).

    Random-hyperplane LSH (seeded, built once per actor) buckets the
    vectors; within-bucket exact cosine ≥ threshold → pairs →
    components.  n_planes trades recall vs bucket size (12 planes →
    4096 buckets).  Unlike minhash, each doc lands in exactly ONE
    bucket, so the unit-vector payload ships through the exchange just
    once — no amplification, in-bucket verification is the right
    shape."""

    def _bucketize(batch: pa.Table) -> pa.Table:
        vecs = vec_matrix(batch.column(vec_col), dtype=np.float32)
        planes = _warm_planes(vecs.shape[1], n_planes, seed)
        bits = (vecs @ planes) > 0
        keys = bits @ (1 << np.arange(n_planes, dtype=np.int64))
        norms = np.linalg.norm(vecs, axis=1, keepdims=True)
        norms[norms == 0] = 1.0
        unit = vecs / norms
        return pa.table(
            {
                "bucket": pa.array(keys, type=pa.int64()),
                "doc_id": batch.column(id_col).cast(pa.int64()),
                "unit": pa.array([v.tobytes() for v in unit], type=pa.binary()),
            }
        )

    buckets = bounded_blocks(ds.map_batches(_bucketize, batch_format="pyarrow"))

    def _pairs(group: pa.Table) -> pa.Table:
        docs = group.column("doc_id").to_numpy(zero_copy_only=False).astype(np.int64)
        k = len(docs)
        if k < 2:
            return _empty_pairs()
        units = group.column("unit")
        if isinstance(units, pa.ChunkedArray):
            units = units.combine_chunks()
        mat = np.frombuffer(b"".join(units.to_pylist()), dtype=np.float32).reshape(k, -1)
        if k <= HOT_BUCKET_CAP:
            sims = mat @ mat.T
            ii, jj = _triu(k)
            keep = sims[ii, jj] >= threshold
            da, db = docs[ii][keep], docs[jj][keep]
        else:
            # hot bucket: CHUNKED full pairwise — unlike minhash, each
            # doc lands in exactly ONE bucket, so a pair skipped here
            # is lost for good (a star-vs-min-pivot shortcut silently
            # dropped real near-dups whose cluster didn't include the
            # pivot).  Row-chunks cap the sims slab at ~64 MB; flops
            # stay O(k²·d) but fully vectorized, and 0.95-cosine
            # buckets this hot are rare by construction (12 planes).
            chunk = max(1, (64 << 20) // (4 * k))
            das, dbs = [], []
            for c0 in range(0, k, chunk):
                c1 = min(c0 + chunk, k)
                sims = mat[c0:c1] @ mat.T
                ci, cj = np.nonzero(sims >= threshold)
                gi = ci + c0
                m = gi < cj  # upper triangle only: each pair once
                das.append(docs[gi[m]])
                dbs.append(docs[cj[m]])
            da = np.concatenate(das) if das else np.zeros(0, np.int64)
            db = np.concatenate(dbs) if dbs else np.zeros(0, np.int64)
        return _pairs_table(np.minimum(da, db), np.maximum(da, db))

    pairs = buckets.groupby("bucket").map_groups(_pairs, batch_format="pyarrow")
    return cluster_assign(ds.select_columns([id_col]), pairs, id_col=id_col)


# ---------------------------------------------------------------------------
# line-level corpus dedup (C4/Falcon-style boilerplate-line removal)


def frequent_lines(
    ds: ray.data.Dataset,
    *,
    text_col: str = "text",
    min_count: int = 5,
) -> ray.data.Dataset:
    """Lines (``\\n``-separated) appearing in the corpus at least
    ``min_count`` times → one row ``(line, n)`` per frequent line.

    One pass: every batch explodes its texts with the vectorized Arrow
    split kernel, then one line-keyed fold counts them (lines cross
    the wire pre-combined per batch, once).  The result is small by construction (only
    lines that repeat corpus-wide survive the HAVING filter)."""

    from dots_ocr_ray.util import bucket_keyed_fold

    def _lines(batch: pa.Table) -> pa.Table:
        col = batch.column(text_col)
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        return pa.table({"line": pc.list_flatten(pc.split_pattern(col, "\n"))})

    counts = bucket_keyed_fold(ds.map_batches(_lines, batch_format="pyarrow"), "line", {"n": ("count", None)})

    def _having(batch: pa.Table) -> pa.Table:
        return batch.filter(pc.greater_equal(batch.column("n"), min_count))

    return counts.map_batches(_having, batch_format="pyarrow")


# sentinel prefix for the distributed path: one synthetic line per doc
# (unique corpus-wide, so never frequent) keeps fully-deduped docs from
# vanishing in the anti-join → reassembly round trip
_LINE_SENTINEL = "\x00doc:"


def line_dedup(
    ds: ray.data.Dataset,
    *,
    text_col: str = "text",
    id_col: str = "doc_id",
    min_count: int = 5,
    keep_cols: tuple[str, ...] = (),
) -> ray.data.Dataset:
    """C4/Falcon-style line-level corpus dedup: drop every line that
    appears at least ``min_count`` times corpus-wide, preserving the
    remaining lines' order → ``(id, text_dedup, n_kept, n_dropped)``
    (+ any ``keep_cols`` passed through; in the distributed tier the
    passthrough is one extra keyed join rather than shipping wide
    payload columns through the line-level exchange).

    Reference analog: the per-page repetition dedup (M8,
    output_cleaner.py:347-416) removes repeats WITHIN a page; this is
    the corpus-wide form a training-data pipeline runs to strip
    navigation/footer boilerplate that survives extraction.

    Two tiers on the frequent-line table (which is small by
    construction — only corpus-repeated lines):

    * the table fits :func:`~dots_ocr_ray.util.broadcast_fits` — the
      lines broadcast once via ``ray.put`` (per-worker cached) and
      every batch filters locally with one hashed ``is_in`` + vectorized list rebuild +
      ``binary_join``: zero additional exchange, text never reships.
    * above the cut — fully distributed: texts explode to
      ``(id, ord, line)`` rows, an anti :func:`~dots_ocr_ray.pipelines.
      relational.hash_join` against the frequent table drops the
      repeated lines, and one groupby(id) reassembles in ``ord`` order
      (2 keyed exchanges, nothing driver-sized).
    """
    # materialize once: count() then iter_batches()/join would each
    # re-execute the lazy frequency pipeline from scratch otherwise
    freq = frequent_lines(ds, text_col=text_col, min_count=min_count).materialize()

    out_schema = pa.schema(
        [
            (id_col, pa.int64()),
            ("text_dedup", pa.string()),
            ("n_kept", pa.int64()),
            ("n_dropped", pa.int64()),
        ]
    )

    def _rebuild(ids: pa.Array, parts: pa.ListArray, keep: np.ndarray) -> pa.Table:
        counts = np.diff(parts.offsets.to_numpy(zero_copy_only=False)).astype(np.int64)
        row_ids = np.repeat(np.arange(len(counts)), counts)
        kept_counts = np.bincount(row_ids[keep], minlength=len(counts)).astype(np.int64)
        offsets = np.concatenate([[0], np.cumsum(kept_counts)])
        kept_lines = parts.values.filter(pa.array(keep))
        rebuilt = pa.ListArray.from_arrays(pa.array(offsets, type=pa.int32()), kept_lines)
        return pa.table(
            {
                id_col: ids.cast(pa.int64()),
                "text_dedup": pc.binary_join(rebuilt, "\n"),
                "n_kept": pa.array(kept_counts, type=pa.int64()),
                "n_dropped": pa.array(counts - kept_counts, type=pa.int64()),
            },
            schema=out_schema,
        )

    if util.broadcast_fits(freq.size_bytes()):
        chunks = [
            chunk
            for b in freq.iter_batches(batch_format="pyarrow")
            if b.num_rows
            for chunk in b.column("line").chunks
        ]
        lines_arr = (
            pa.concat_arrays(chunks) if chunks else pa.array([], pa.string())
        )
        freq_ref = ray.put(lines_arr)

        def _local(batch: pa.Table) -> pa.Table:
            value_set = cached_object(freq_ref)
            col = batch.column(text_col)
            if isinstance(col, pa.ChunkedArray):
                col = col.combine_chunks()
            parts = pc.split_pattern(col, "\n")
            if isinstance(parts, pa.ChunkedArray):
                parts = parts.combine_chunks()
            keep = np.asarray(
                pc.invert(pc.is_in(parts.values, value_set=value_set)).to_numpy(
                    zero_copy_only=False
                ),
                dtype=bool,
            )
            ids = batch.column(id_col)
            if isinstance(ids, pa.ChunkedArray):
                ids = ids.combine_chunks()
            out = _rebuild(ids, parts, keep)
            for c in keep_cols:
                out = out.append_column(c, batch.column(c))
            return out

        return ds.map_batches(_local, batch_format="pyarrow")

    # distributed tier: explode → anti-join → reassemble
    from dots_ocr_ray.pipelines.relational import hash_join

    def _explode(batch: pa.Table) -> pa.Table:
        col = batch.column(text_col)
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        parts = pc.split_pattern(col, "\n")
        if isinstance(parts, pa.ChunkedArray):
            parts = parts.combine_chunks()
        counts = np.diff(parts.offsets.to_numpy(zero_copy_only=False)).astype(np.int64)
        ids = batch.column(id_col).to_numpy(zero_copy_only=False).astype(np.int64)
        row_ids = np.repeat(ids, counts)
        ords = np.arange(int(counts.sum()), dtype=np.int64) - np.repeat(
            np.concatenate([[0], np.cumsum(counts)])[:-1], counts
        )
        exploded = pa.table(
            {
                id_col: pa.array(row_ids, type=pa.int64()),
                "ord": pa.array(ords, type=pa.int64()),
                "line": parts.values,
            }
        )
        # sentinel row per doc (ord = -1, filtered out at reassembly)
        sent = pa.table(
            {
                id_col: pa.array(ids, type=pa.int64()),
                "ord": pa.array(np.full(len(ids), -1, np.int64), type=pa.int64()),
                "line": pa.array([f"{_LINE_SENTINEL}{i}" for i in ids], type=pa.string()),
            }
        )
        return pa.concat_tables([exploded, sent])

    exploded = ds.map_batches(_explode, batch_format="pyarrow")
    kept = hash_join(
        exploded,
        freq.select_columns(["line"]),
        on="line",
        how="anti",
        left_schema=pa.schema([(id_col, pa.int64()), ("ord", pa.int64()), ("line", pa.string())]),
        right_schema=pa.schema([("line", pa.string())]),
    )

    # coarse 256-way exchange on hash(doc): ALL docs in a bucket
    # reassemble with ONE lexsort + run-offset binary_join — no Python
    # call per document (the merge_document_pages fold discipline)
    def _reassemble(group: pa.Table) -> pa.Table:
        ids = group.column(id_col).to_numpy(zero_copy_only=False).astype(np.int64)
        ords = group.column("ord").to_numpy(zero_copy_only=False).astype(np.int64)
        lines = group.column("line")
        if isinstance(lines, pa.ChunkedArray):
            lines = lines.combine_chunks()
        order = np.lexsort((ords, ids))
        ids, ords = ids[order], ords[order]
        lines = lines.take(pa.array(order))
        new_run = np.ones(len(ids), dtype=bool)
        new_run[1:] = ids[1:] != ids[:-1]
        starts = np.flatnonzero(new_run)
        # sentinel rows (ord = -1, exactly one per doc, always kept by
        # the anti-join) sort FIRST within a doc; the join runs over a
        # real-only values array with offsets taken from the prefix
        # count of real rows at each run boundary
        real = ords >= 0
        values = lines.take(pa.array(np.flatnonzero(real)))
        creal = np.concatenate([[0], np.cumsum(real)])
        run_bounds = np.concatenate([starts, [len(ids)]])
        off = creal[run_bounds]
        offsets = pa.array(off.astype(np.int32))
        joined = pc.binary_join(
            pa.ListArray.from_arrays(offsets, pc.fill_null(values, "")), "\n"
        )
        n_kept = np.diff(off)
        return pa.table(
            {
                id_col: pa.array(ids[starts], type=pa.int64()),
                "text_dedup": joined,
                "n_kept": pa.array(n_kept.astype(np.int64), type=pa.int64()),
                "n_dropped": pa.array(
                    np.zeros(len(starts), np.int64), type=pa.int64()
                ),  # patched below
            },
            schema=out_schema,
        )

    # n_dropped is recomputed distributively: per-doc totals from the
    # explode side joined back to the kept counts.
    def _totals(batch: pa.Table) -> pa.Table:
        col = batch.column(text_col)
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        parts = pc.split_pattern(col, "\n")
        if isinstance(parts, pa.ChunkedArray):
            parts = parts.combine_chunks()
        counts = np.diff(parts.offsets.to_numpy(zero_copy_only=False)).astype(np.int64)
        out = pa.table(
            {
                id_col: batch.column(id_col).cast(pa.int64()),
                "n_total": pa.array(counts, type=pa.int64()),
            }
        )
        for c in keep_cols:  # passthrough rides the small totals join
            out = out.append_column(c, batch.column(c))
        return out

    reassembled = bucket_exchange(
        kept, id_col, _reassemble, num_buckets=256, rows_per_block=262144
    )
    totals = ds.map_batches(_totals, batch_format="pyarrow")
    keep_types: dict[str, pa.DataType] = {}
    if keep_cols:
        src_schema = ds.schema()
        keep_types = {
            n: t for n, t in zip(src_schema.names, src_schema.types) if n in keep_cols
        }
    joined = hash_join(
        reassembled,
        totals,
        on=id_col,
        left_schema=out_schema,
        right_schema=pa.schema(
            [(id_col, pa.int64()), ("n_total", pa.int64())]
            + [(c, keep_types[c]) for c in keep_cols]
        ),
    )

    def _fix(batch: pa.Table) -> pa.Table:
        n_total = batch.column("n_total")
        n_kept = batch.column("n_kept")
        fixed = pc.subtract(n_total, n_kept)
        idx = batch.schema.get_field_index("n_dropped")
        return batch.set_column(idx, "n_dropped", fixed).select(
            [id_col, "text_dedup", "n_kept", "n_dropped", *keep_cols]
        )

    return joined.map_batches(_fix, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# incremental dedup against a prior corpus index


def exact_dedup_incremental(
    new_ds: ray.data.Dataset,
    index_ds: ray.data.Dataset,
    *,
    text_col: str = "text",
    id_col: str = "doc_id",
    index_hash_col: str = "content_md5",
    new_schema: pa.Schema | None = None,
) -> ray.data.Dataset:
    """Incremental exact dedup: keep only NEW rows whose content hash
    does not already exist in a prior corpus index (the recurring-crawl
    shape — yesterday's corpus never reprocesses, its hash manifest
    does).  ``index_ds`` is the stored index table carrying
    ``index_hash_col`` (e.g. the ``content_md5`` column that
    :func:`exact_dedup` survivors keep, re-read from parquet).

    One distributed anti :func:`~dots_ocr_ray.pipelines.relational.
    hash_join` on the content hash — both sides stream; neither the new
    batch nor the index ever collects on the driver.  In-batch
    duplicates within the NEW data itself are then collapsed with the
    same :func:`sorted_group_first` pass exact_dedup uses.

    Pass ``new_schema`` (the schema of ``new_ds``) when ``new_ds`` has
    map stages upstream: without it the join introspects the schema by
    EXECUTING a prefix of the plan (seconds of fixed cost, and the
    upstream maps run one extra time)."""
    from dots_ocr_ray.pipelines.relational import hash_join

    hashed = add_content_md5(new_ds, text_col)

    def _as_key(batch: pa.Table) -> pa.Table:
        col = batch.column(index_hash_col)
        return pa.table({"content_md5": col.cast(pa.string())})

    left_schema = None
    if new_schema is not None:
        left_schema = new_schema.append(pa.field("content_md5", pa.string()))
    fresh = hash_join(
        hashed,
        index_ds.map_batches(_as_key, batch_format="pyarrow"),
        on="content_md5",
        how="anti",
        left_schema=left_schema,
        right_schema=pa.schema([("content_md5", pa.string())]),
    )
    return sorted_group_first(fresh, "content_md5", id_col)


def minhash_signatures(
    ds: ray.data.Dataset,
    *,
    text_col: str = "text",
    id_col: str = "doc_id",
    num_perm: int = 128,
    shingle_k: int = 5,
) -> ray.data.Dataset:
    """(doc_id, sig) signature table — the storable MinHash INDEX of a
    corpus (persist to parquet; an incremental refresh re-reads it
    instead of re-shingling yesterday's text)."""
    import functools

    return bounded_blocks(
        ds.map_batches(
            functools.partial(
                _signature_batch,
                text_col=text_col,
                id_col=id_col,
                num_perm=num_perm,
                shingle_k=shingle_k,
            ),
            batch_format="pyarrow",
        )
    )


def minhash_dedup_incremental(
    new_ds: ray.data.Dataset,
    index_sigs: ray.data.Dataset,
    *,
    text_col: str = "text",
    id_col: str = "doc_id",
    num_perm: int = 128,
    bands: int = 32,
    shingle_k: int = 5,
    threshold: float = 0.8,
) -> ray.data.Dataset:
    """Incremental MinHash near-dup dedup: NEW rows that near-match
    the stored archive index are dropped; near-dup clusters WITHIN the
    new batch keep their min id — the recurring-crawl shape
    (:func:`exact_dedup_incremental`'s near-dup sibling).  Returns the
    surviving new rows.

    Doc ids must be disjoint between the new batch and the index
    (refresh_corpus salts them with the content hash for exactly this
    reason).

    Only the NEW text is shingled (the archive contributes its stored
    signatures); candidate generation runs the ordinary banded-LSH
    bucket exchange over the UNION signature table, so archive bands
    re-explode but archive text never reships.  Pairs that touch no
    new id are discarded BEFORE the attach/verify exchanges
    (``pair_filter``): in a mature archive the archive × archive
    candidates dominate, and they are re-derivations of already-
    deduped content.  The post-verify driver pass is bounded by pairs
    TOUCHING the refresh batch — O(new × matches), never O(archive)."""
    # materialized once: the id collect below and the union both
    # consume the signatures; lazy, the corpus would re-shingle twice
    new_sigs = minhash_signatures(
        new_ds, text_col=text_col, id_col=id_col, num_perm=num_perm, shingle_k=shingle_k
    ).materialize()
    probe = index_sigs.take(1)
    if probe and len(probe[0]["sig"]) != num_perm * 8:
        raise ValueError(
            f"signature index width {len(probe[0]['sig'])} B != num_perm={num_perm} "
            f"({num_perm * 8} B) — rebuild the index or pass the index's num_perm"
        )
    new_ids_arr = _collect_sorted_ids(new_sigs, ("doc_id",))
    new_ref = ray.put(new_ids_arr)

    def _is_new(vals: np.ndarray, arr: np.ndarray) -> np.ndarray:
        return sorted_membership(arr, vals)

    def _touches_new(batch: pa.Table) -> pa.Table:
        arr = cached_object(new_ref)
        a = _int_col(batch, "a")
        b = _int_col(batch, "b")
        keep = _is_new(a, arr) | _is_new(b, arr)
        return batch.filter(pa.array(keep, type=pa.bool_()))

    union_sigs = bounded_blocks(new_sigs.union(index_sigs))
    pairs = minhash_pairs_from_sigs(
        union_sigs, bands=bands, threshold=threshold, pair_filter=_touches_new
    )
    pairs = bounded_blocks(pairs, rows_per_block=262144).materialize()

    # new ids near-matching ANY archive doc drop outright
    arch_dup: set[int] = set()
    new_pairs_a: list[np.ndarray] = []
    new_pairs_b: list[np.ndarray] = []
    for b in pairs.iter_batches(batch_format="pyarrow"):
        a = _int_col(b, "a")
        bb = _int_col(b, "b")
        na, nb = _is_new(a, new_ids_arr), _is_new(bb, new_ids_arr)
        cross = na ^ nb
        arch_dup.update(a[cross & na].tolist())
        arch_dup.update(bb[cross & nb].tolist())
        both = na & nb
        new_pairs_a.append(a[both])
        new_pairs_b.append(bb[both])
    # within-new clusters keep their min id (pairs here are bounded by
    # the refresh batch, so the driver pass is O(new), never O(archive))
    drop = set(arch_dup)
    if new_pairs_a:
        aa = np.concatenate(new_pairs_a)
        bb2 = np.concatenate(new_pairs_b)
        if len(aa):
            nodes, labels = _min_labels_numpy(aa, bb2)
            drop.update(int(n) for n, l in zip(nodes, labels) if n != l)
    keep_mask_ref = ray.put(np.sort(np.array(sorted(drop), dtype=np.int64)))

    def _keep(batch: pa.Table) -> pa.Table:
        arr = cached_object(keep_mask_ref)
        ids = _int_col(batch, id_col)
        return batch.filter(pa.array(~_is_new(ids, arr), type=pa.bool_()))

    return new_ds.map_batches(_keep, batch_format="pyarrow")


def best_survivor_per_cluster(
    clusters: ray.data.Dataset,
    quality: ray.data.Dataset,
    *,
    id_col: str = "doc_id",
    cluster_col: str = "cluster_id",
    quality_col: str = "quality",
) -> ray.data.Dataset:
    """Quality-aware survivor selection over near-dup clusters: keep
    the HIGHEST-``quality_col`` member of every cluster (tie →
    smallest id) instead of the min-id convention — the curation rule
    "when documents collide, keep the best copy, not the first one"
    (longest / highest-scoring page wins across mirror sites).

    Input ``clusters`` is any (id, cluster_id) assignment
    (:func:`minhash_lsh_dedup`, :func:`simhash_dedup`, ...); singleton
    clusters pass through unchanged, so the output has exactly one row
    per cluster.  Two bounded exchanges: one doc-keyed
    :func:`~dots_ocr_ray.pipelines.relational.hash_join` attaches the
    quality column (both sides are corpus-sized — no broadcast), one
    cluster-keyed bucket exchange picks the argmax via
    :func:`~dots_ocr_ray.pipelines.relational.top_per_key` (k=1,
    vectorized per-bucket run slicing — no per-cluster Python)."""
    from dots_ocr_ray.pipelines.relational import hash_join, top_per_key

    joined = hash_join(
        clusters,
        quality,
        on=id_col,
        left_schema=pa.schema([(id_col, pa.int64()), (cluster_col, pa.int64())]),
        right_schema=pa.schema([(id_col, pa.int64()), (quality_col, pa.int64())]),
    )

    def _typed(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                id_col: batch.column(id_col).cast(pa.int64()),
                cluster_col: batch.column(cluster_col).cast(pa.int64()),
                quality_col: batch.column(quality_col).cast(pa.int64()),
            }
        )

    best = top_per_key(
        joined.map_batches(_typed, batch_format="pyarrow"),
        key_col=cluster_col,
        k=1,
        desc_col=quality_col,
        tie_col=id_col,
    )
    return best.drop_columns(["rk"])


def containment_pairs(
    ds: ray.data.Dataset,
    *,
    text_col: str = "text",
    id_col: str = "doc_id",
    n: int = 3,
    threshold_micro: int = 900_000,
    candidate_threshold: float = 0.5,
    concurrency: int | tuple[int, int] | None = None,
) -> ray.data.Dataset:
    """Quote-inclusion detection: candidate pairs whose SMALLER n-gram
    set is ≥ ``threshold_micro``/10^6 contained in the larger — the
    asymmetric complement of :func:`ngram_jaccard_dedup` (a page
    embedding a short document verbatim has low Jaccard but
    containment ≈ 1, so symmetric dedup misses it).

    Same distributed shape as the Jaccard family: loose MinHash
    candidates → endpoint-filtered text side → budgeted/distributed
    pair-payload join → batch-local vectorized verification
    (:func:`~dots_ocr_ray.functions.hashing.containment_micro`, exact
    integer micro-units).  Output (a, b, cont_micro), one row per
    surviving candidate pair.

    Recall caveat (documented contract): candidates still come from
    MinHash on symmetric Jaccard, so containment pairs with EXTREME
    length skew (tiny quote inside a huge page → Jaccard below the
    loose net) can be missed; a shingle-sampled inverted index is the
    full-recall path if that regime matters."""
    from dots_ocr_ray.functions.hashing import char_ngram_hashes, containment_micro

    cand = minhash_candidate_pairs(
        ds,
        text_col=text_col,
        id_col=id_col,
        threshold=candidate_threshold,
        concurrency=concurrency,
    )
    cand = bounded_blocks(cand, rows_per_block=262144)
    cand = exact_distinct_pairs(cand)
    text_side = filter_payload_to_pair_endpoints(
        ds.select_columns([id_col, text_col]), cand, id_col=id_col
    )
    with_texts = attach_pair_payloads(
        cand,
        text_side,
        id_col=id_col,
        payload_col=text_col,
        payload_type=pa.string(),
    )

    def _verify(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return pa.table(
                {
                    "a": pa.array([], type=pa.int64()),
                    "b": pa.array([], type=pa.int64()),
                    "cont_micro": pa.array([], type=pa.int64()),
                }
            )
        grams: dict[int, np.ndarray] = {}

        def _g(doc: int, text: str | None) -> np.ndarray:
            if doc not in grams:
                grams[doc] = char_ngram_hashes(text or "", n)
            return grams[doc]

        cont = np.array(
            [
                containment_micro(_g(da, ta), _g(db, tb))
                for da, db, ta, tb in zip(
                    batch.column("a").to_pylist(),
                    batch.column("b").to_pylist(),
                    batch.column("payload_a").to_pylist(),
                    batch.column("payload_b").to_pylist(),
                )
            ],
            dtype=np.int64,
        )
        keep = cont >= threshold_micro
        out = batch.select(["a", "b"]).filter(pa.array(keep, type=pa.bool_()))
        return out.append_column("cont_micro", pa.array(cont[keep], type=pa.int64()))

    return with_texts.map_batches(_verify, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# sorted-neighborhood dedup (SNM)

def snm_sort_key(text: str | None, *, prefix_len: int = 24) -> str:
    """Sorted-neighborhood blocking key: lowercase, keep [a-z0-9],
    first ``prefix_len`` chars — records with near-identical openings
    sort adjacent.  Pure kernel shared with the sequential golden."""
    out = []
    for ch in (text or "").lower():
        if ("a" <= ch <= "z") or ("0" <= ch <= "9"):
            out.append(ch)
            if len(out) >= prefix_len:
                break
    return "".join(out)


def jaccard_verify_pairs(
    cand: ray.data.Dataset,
    ds: ray.data.Dataset,
    *,
    id_col: str,
    text_col: str,
    n: int,
    threshold: float,
) -> ray.data.Dataset:
    """Exact char-n-gram Jaccard verification of candidate (a, b)
    pairs: texts joined to the pairs distributively (endpoint filter +
    budgeted/distributed attach), per-batch gram-hash memoization —
    the shared verify tail of :func:`ngram_jaccard_dedup` and
    :func:`snm_dedup`."""
    cand = bounded_blocks(cand, rows_per_block=262144)
    text_side = filter_payload_to_pair_endpoints(
        ds.select_columns([id_col, text_col]), cand, id_col=id_col
    )
    with_texts = attach_pair_payloads(
        cand,
        text_side,
        id_col=id_col,
        payload_col=text_col,
        payload_type=pa.string(),
    )

    def _verify(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return _empty_pairs()
        grams: dict[int, np.ndarray] = {}

        def _g(doc: int, text: str | None) -> np.ndarray:
            if doc not in grams:
                grams[doc] = char_ngram_hashes(text or "", n)
            return grams[doc]

        keep = [
            jaccard_hashes(_g(da, ta), _g(db, tb)) >= threshold
            for da, db, ta, tb in zip(
                batch.column("a").to_pylist(),
                batch.column("b").to_pylist(),
                batch.column("payload_a").to_pylist(),
                batch.column("payload_b").to_pylist(),
            )
        ]
        return batch.select(["a", "b"]).filter(pa.array(keep, type=pa.bool_()))

    return with_texts.map_batches(_verify, batch_format="pyarrow")


def snm_dedup(
    ds: ray.data.Dataset,
    *,
    text_col: str = "text",
    id_col: str = "doc_id",
    window: int = 4,
    n: int = 3,
    threshold: float = 0.8,
) -> ray.data.Dataset:
    """Sorted-neighborhood near-dup clustering (Hernández & Stolfo
    1995) → (doc_id, cluster_id): sort the corpus by a normalized
    prefix key, compare only records within ``window`` positions, then
    exact n-gram Jaccard verification and components.  The
    hashing-free blocking complement of MinHash/SimHash — catches
    prefix-anchored near-dups with O(n·window) candidates.

    Scale shape (no corpus rows on the driver):
    1. key pass — (id, sortkey, first-byte bucket) rows only;
    2. bucket histogram → 256 counts on the driver → exclusive prefix
       offsets broadcast (the global_shuffle_index zipWithIndex idiom,
       keyed by SORT ORDER instead of md5);
    3. ONE bucket-keyed exchange assigns dense ranks (local lexsort by
       (sortkey, id) + broadcast offset);
    4. each row lands in window-groups rank//window and +1 (so every
       pair within ``window`` shares a group); in-group pairs with
       |Δrank| < window — ≤ 2·window rows per group;
    5. shared exact-Jaccard verify + connected components.

    Skew note: buckets are first-byte key ranges — a corpus whose keys
    concentrate in one byte (all docs same opening) degrades to one
    bucket; the fallback is salting the key pass by a wider prefix,
    documented here rather than silently applied."""

    def _keys(batch: pa.Table) -> pa.Table:
        ids = batch.column(id_col).cast(pa.int64())
        sks = [snm_sort_key(t) for t in batch.column(text_col).to_pylist()]
        buckets = np.array([ord(s[0]) if s else 0 for s in sks], dtype=np.int64)
        np.minimum(buckets, 255, out=buckets)
        return pa.table(
            {
                "doc_id": ids,
                "sk": pa.array(sks, type=pa.string()),
                "bucket": pa.array(buckets, type=pa.int64()),
            }
        )

    keys = bounded_blocks(ds.map_batches(_keys, batch_format="pyarrow"))

    from dots_ocr_ray.util import bucket_keyed_fold

    hist = bucket_keyed_fold(keys, "bucket", {"n": ("count", None)})
    counts = np.zeros(256, dtype=np.int64)
    for row in hist.take_all():  # ≤256 rows — bounded by construction
        counts[row["bucket"]] = row["n"]
    offsets = np.concatenate([[0], np.cumsum(counts)[:-1]])
    offsets_ref = ray.put(offsets)

    def _ranks(group: pa.Table) -> pa.Table:
        offs = cached_object(offsets_ref)
        bucket = group.column("bucket")[0].as_py()
        ids = group.column("doc_id").to_numpy(zero_copy_only=False).astype(np.int64)
        sks = group.column("sk").to_numpy(zero_copy_only=False)
        idx = np.lexsort((ids, sks))
        pos = np.empty(len(idx), dtype=np.int64)
        pos[idx] = offs[bucket] + np.arange(len(idx))
        return pa.table(
            {
                "doc_id": group.column("doc_id"),
                "rank": pa.array(pos, type=pa.int64()),
            }
        )

    ranks = keys.groupby("bucket").map_groups(_ranks, batch_format="pyarrow")

    def _window_explode(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_numpy(zero_copy_only=False).astype(np.int64)
        rk = batch.column("rank").to_numpy(zero_copy_only=False).astype(np.int64)
        wg = rk // window
        return pa.table(
            {
                "wg": pa.array(np.concatenate([wg, wg + 1]), type=pa.int64()),
                "doc_id": pa.array(np.concatenate([ids, ids]), type=pa.int64()),
                "rank": pa.array(np.concatenate([rk, rk]), type=pa.int64()),
            }
        )

    # coarse 256-way exchange over hashed window groups (the same fold
    # rework as the MinHash band exchange): one Python call per coarse
    # bucket, triu adjacency vectorized per window-size class — never
    # one call per window group (corpus-scale count)
    def _pairs(group: pa.Table) -> pa.Table:
        wg = group.column("wg").to_numpy(zero_copy_only=False).astype(np.int64)
        ids = group.column("doc_id").to_numpy(zero_copy_only=False).astype(np.int64)
        rk = group.column("rank").to_numpy(zero_copy_only=False).astype(np.int64)
        if len(ids) < 2:
            return _empty_pairs()
        order = np.lexsort((ids, rk, wg))
        wg, ids, rk = wg[order], ids[order], rk[order]
        new_run = np.ones(len(ids), dtype=bool)
        new_run[1:] = wg[1:] != wg[:-1]
        starts = np.flatnonzero(new_run)
        lens = np.diff(np.concatenate([starts, [len(ids)]]))
        out_a: list[np.ndarray] = []
        out_b: list[np.ndarray] = []
        for size in np.unique(lens):
            if size < 2:
                continue
            runs = starts[lens == size]
            idx = runs[:, None] + np.arange(size)[None, :]
            mi = ids[idx]
            mr = rk[idx]
            ii, jj = _triu(int(size))
            keep = (np.abs(mr[:, ii] - mr[:, jj]) < window) & (mi[:, ii] != mi[:, jj])
            out_a.append(mi[:, ii][keep])
            out_b.append(mi[:, jj][keep])
        if not out_a:
            return _empty_pairs()
        da = np.concatenate(out_a)
        db = np.concatenate(out_b)
        return _pairs_table(np.minimum(da, db), np.maximum(da, db))

    cand = bucket_exchange(
        ranks.map_batches(_window_explode, batch_format="pyarrow"),
        "wg",
        _pairs,
        num_buckets=256,
        rows_per_block=262144,
    )
    verified = jaccard_verify_pairs(
        cand, ds, id_col=id_col, text_col=text_col, n=n, threshold=threshold
    )
    return cluster_assign(ds.select_columns([id_col]), verified, id_col=id_col)
