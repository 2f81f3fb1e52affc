"""Approximate-nearest-neighbor search over an embedding column.

* :func:`brute_force_topk` — the exact baseline: the query matrix is
  broadcast once (``ray.put``), each batch does one numpy matmul and
  emits its LOCAL top-k (the combiner), and a single tiny reduce merges
  the per-batch candidates — no full-corpus shuffle, no driver-side
  scoring loop.
* :func:`lsh_topk` — the scale path: random-hyperplane buckets built
  once per actor; only buckets that contain a query's key (and its
  single-bit neighbors, multiprobe) are scored.
"""

from __future__ import annotations

import heapq

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray
import ray.data

from dots_ocr_ray.util import autoscale_pool, cached_object, round_half_away, vec_matrix


def _normalize_rows(mat: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(mat, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    return mat / norms


def _merge_topk(partials: ray.data.Dataset, k: int) -> pa.Table:
    """Driver-side k-merge of per-batch candidates (n_queries × k ×
    n_batches rows — tiny); ties prefer the smaller vec_id."""
    heaps: dict[int, list] = {}
    for row in partials.iter_rows():
        h = heaps.setdefault(row["query_id"], [])
        item = (row["score"], -row["vec_id"])
        if len(h) < k:
            heapq.heappush(h, item)
        elif item > h[0]:
            heapq.heapreplace(h, item)
    q_out, v_out, s_out, r_out = [], [], [], []
    for qi in sorted(heaps):
        ranked = sorted(heaps[qi], key=lambda t: (-t[0], -t[1]))
        for rank, (score, neg_id) in enumerate(ranked, 1):
            q_out.append(qi)
            v_out.append(-neg_id)
            s_out.append(score)
            r_out.append(rank)
    return pa.table(
        {
            "query_id": pa.array(q_out, type=pa.int32()),
            "vec_id": pa.array(v_out, type=pa.int64()),
            "score": pa.array(s_out, type=pa.float64()),
            "rank": pa.array(r_out, type=pa.int32()),
        }
    )


def _brute_topk_batch(batch: pa.Table, *, queries_ref, k: int, vec_col: str, id_col: str) -> pa.Table:
    """Task stage (no actor pool — per-execution pool ramp costs more
    than this whole query): query matrix fetched from the object store
    once per WORKER via the broadcast cache, one matmul per batch,
    local top-k out.  Batching-invariant: every global-top-k row is in
    its own batch's top-k, so the downstream merge is exact."""
    queries = _normalize_rows(np.asarray(cached_object(queries_ref), dtype=np.float32))
    vecs = _normalize_rows(vec_matrix(batch.column(vec_col), dtype=np.float32))
    ids = batch.column(id_col).to_numpy(zero_copy_only=False).astype(np.int64)
    sims = queries @ vecs.T  # (n_queries, batch)
    k = min(k, sims.shape[1])
    top = np.argpartition(-sims, k - 1, axis=1)[:, :k]
    q_out, id_out, score_out = [], [], []
    for qi in range(sims.shape[0]):
        for ci in top[qi]:
            q_out.append(qi)
            id_out.append(int(ids[ci]))
            score_out.append(float(sims[qi, ci]))
    return pa.table(
        {
            "query_id": pa.array(q_out, type=pa.int32()),
            "vec_id": pa.array(id_out, type=pa.int64()),
            "score": pa.array(score_out, type=pa.float64()),
        }
    )


def brute_force_topk(
    ds: ray.data.Dataset,
    queries: np.ndarray,
    k: int = 10,
    *,
    vec_col: str = "embedding",
    id_col: str = "vec_id",
    concurrency: int | None = None,
) -> pa.Table:
    """Exact cosine top-k for each query row → (query_id, vec_id, score,
    rank), deterministically tie-broken by vec_id."""
    queries_ref = ray.put(np.asarray(queries, dtype=np.float32))
    partials = ds.map_batches(
        _brute_topk_batch,
        fn_kwargs={"queries_ref": queries_ref, "k": k, "vec_col": vec_col, "id_col": id_col},
        batch_format="pyarrow",
    )
    return _merge_topk(partials, k)


def knuth_hash32(ids: np.ndarray) -> np.ndarray:
    """Deterministic 32-bit multiplicative hash of int64 ids (the
    engine-wide sampling hash, engine-independent)."""
    return (ids * 2654435761) & 0xFFFFFFFF


def train_kmeans(sample: np.ndarray, n_cells: int, iters: int) -> np.ndarray:
    """Deterministic spherical k-means: seeded init from evenly spaced
    sample points, fixed iteration count.  Pure — shared by the Ray
    pipeline and the sequential golden oracle."""
    idx = np.linspace(0, len(sample) - 1, n_cells).astype(int)
    centroids = sample[idx].copy()
    for _ in range(iters):
        assign = np.argmax(sample @ centroids.T, axis=1)
        for c in range(n_cells):
            members = sample[assign == c]
            if len(members):
                centroids[c] = members.mean(axis=0)
        centroids = _normalize_rows(centroids)
    return centroids


def _ivf_train(
    ds: "ray.data.Dataset",
    *,
    vec_col: str,
    id_col: str,
    n_cells: int,
    train_sample: int,
    kmeans_iters: int,
) -> np.ndarray:
    """Shared IVF centroid training (ivf_topk AND ivf_build_index —
    ONE implementation so the stored-index bit-equality contract can
    never desynchronize): deterministic bottom-k Knuth-hash sample of
    the corpus (per-batch partial bottom-k, tiny driver merge, order-
    insensitive), then seeded spherical k-means."""

    def _bottomk(batch: pa.Table) -> pa.Table:
        ids = batch.column(id_col).to_numpy(zero_copy_only=False).astype(np.int64)
        h = knuth_hash32(ids)
        take = np.argsort(h, kind="stable")[:train_sample]
        sub = batch.take(pa.array(np.sort(take)))
        hh = knuth_hash32(sub.column(id_col).to_numpy(zero_copy_only=False).astype(np.int64))
        return sub.append_column("_h", pa.array(hh, type=pa.int64()))

    sample_tbl = pa.Table.from_pylist(
        ds.map_batches(_bottomk, batch_format="pyarrow").take_all()
    )
    order = pc.sort_indices(sample_tbl, sort_keys=[("_h", "ascending"), (id_col, "ascending")])
    sample_tbl = sample_tbl.take(order).slice(0, train_sample)
    sample = _normalize_rows(vec_matrix(sample_tbl.column(vec_col), dtype=np.float32))
    return train_kmeans(sample, n_cells, kmeans_iters)


def ivf_topk(
    ds: ray.data.Dataset,
    queries: np.ndarray,
    k: int = 10,
    *,
    vec_col: str = "embedding",
    id_col: str = "vec_id",
    n_cells: int = 16,
    n_probe: int = 4,
    train_sample: int = 512,
    kmeans_iters: int = 5,
    seed: int = 42,
    concurrency: int | tuple[int, int] | None = None,
) -> pa.Table:
    """IVF (inverted-file) approximate top-k — the classic scale path:

    1. TRAIN (driver, tiny): deterministic k-means over a uniform
       hash-sample — the ``train_sample`` rows with the smallest Knuth
       multiplicative hash of their id (a distributed bottom-k sketch:
       per-batch partial bottom-k, tiny driver merge).  Unlike
       ``limit(train_sample)`` this is insensitive to input order, so a
       corpus sorted/clustered by content still trains unbiased
       centroids.  Seeded init from evenly spaced sample points.
    2. ASSIGN+SCORE (distributed): the centroid matrix is broadcast;
       each batch assigns its vectors to cells and scores ONLY vectors
       whose cell is among each query's ``n_probe`` nearest cells.
    3. tiny merge, same output schema as :func:`brute_force_topk`.

    Recall < 1 by design; raise n_probe toward n_cells for exactness.
    """
    queries = np.asarray(queries, dtype=np.float32)

    centroids = _ivf_train(
        ds,
        vec_col=vec_col,
        id_col=id_col,
        n_cells=n_cells,
        train_sample=train_sample,
        kmeans_iters=kmeans_iters,
    )

    qn = _normalize_rows(queries)
    probe_cells = np.argsort(-(qn @ centroids.T), axis=1)[:, :n_probe]  # (nq, n_probe)

    state_ref = ray.put((centroids, probe_cells, qn))

    partials = ds.map_batches(
        _ivf_score_batch,
        fn_kwargs={"state_ref": state_ref, "k": k, "vec_col": vec_col, "id_col": id_col},
        batch_format="pyarrow",
    )
    return _merge_topk(partials, k)


def _ivf_score_batch(batch: pa.Table, *, state_ref, k: int, vec_col: str, id_col: str) -> pa.Table:
    """Task stage (no actor pool — the broadcast state is three tiny
    arrays, fetched once per WORKER via the broadcast cache; a pool
    ramp per execution would dominate the query): assign each vector
    to its centroid cell, score only vectors whose cell is probed by
    each query, emit per-batch partial top-k."""
    centroids, probe, queries = cached_object(state_ref)
    vecs = _normalize_rows(vec_matrix(batch.column(vec_col), dtype=np.float32))
    ids = batch.column(id_col).to_numpy(zero_copy_only=False).astype(np.int64)
    cells = np.argmax(vecs @ centroids.T, axis=1)
    q_out, id_out, s_out = [], [], []
    for qi in range(len(queries)):
        mask = np.isin(cells, probe[qi])
        if not mask.any():
            continue
        sims = vecs[mask] @ queries[qi]
        sub_ids = ids[mask]
        kk = min(k, len(sims))
        # lexsort, not argpartition: equal scores at the batch
        # top-k boundary must resolve by vec_id so the stored-
        # index path (different batching) stays bit-equal
        top = np.lexsort((sub_ids, -sims))[:kk]
        for ci in top:
            q_out.append(qi)
            id_out.append(int(sub_ids[ci]))
            s_out.append(float(sims[ci]))
    return pa.table(
        {
            "query_id": pa.array(q_out, type=pa.int32()),
            "vec_id": pa.array(id_out, type=pa.int64()),
            "score": pa.array(s_out, type=pa.float64()),
        }
    )


def lsh_topk(
    ds: ray.data.Dataset,
    queries: np.ndarray,
    k: int = 10,
    *,
    vec_col: str = "embedding",
    id_col: str = "vec_id",
    n_planes: int = 8,
    seed: int = 42,
    concurrency: int | None = None,
) -> pa.Table:
    """Approximate top-k: score only vectors whose hyperplane bucket
    matches a query bucket or differs in one bit (multiprobe).  Same
    output schema as brute_force_topk; recall < 1 by design."""
    queries = np.asarray(queries, dtype=np.float32)

    queries_ref = ray.put(queries)
    partials = ds.map_batches(
        _lsh_score_batch,
        fn_kwargs={
            "queries_ref": queries_ref,
            "k": k,
            "vec_col": vec_col,
            "id_col": id_col,
            "n_planes": n_planes,
            "seed": seed,
        },
        batch_format="pyarrow",
    )
    return _merge_topk(partials, k)


def _lsh_score_batch(
    batch: pa.Table, *, queries_ref, k: int, vec_col: str, id_col: str, n_planes: int, seed: int
) -> pa.Table:
    """Task stage for :func:`lsh_topk` (no actor pool — the pool ramp
    per execution costs more than the query).  The derived state
    (seeded planes + query buckets + multiprobe set) is a few hundred
    floats; rebuilding it per batch is microseconds, and the raw query
    matrix comes from the per-worker broadcast cache."""
    q = _normalize_rows(np.asarray(cached_object(queries_ref), dtype=np.float32))
    rng = np.random.RandomState(seed)
    planes = rng.standard_normal((q.shape[1], n_planes)).astype(np.float32)
    powers = 1 << np.arange(n_planes, dtype=np.int64)
    qbits = (q @ planes) > 0
    probe_keys = {int(key) for key in qbits @ powers}
    for key in list(probe_keys):
        for bit in range(n_planes):
            probe_keys.add(int(key) ^ (1 << bit))

    vecs = vec_matrix(batch.column(vec_col), dtype=np.float32)
    ids = batch.column(id_col).to_numpy(zero_copy_only=False).astype(np.int64)
    bits = (vecs @ planes) > 0
    keys = bits @ powers
    mask = np.fromiter((int(key) in probe_keys for key in keys), dtype=bool, count=len(keys))
    if not mask.any():
        return pa.table(
            {
                "query_id": pa.array([], type=pa.int32()),
                "vec_id": pa.array([], type=pa.int64()),
                "score": pa.array([], type=pa.float64()),
            }
        )
    unit = _normalize_rows(vecs[mask])
    sub_ids = ids[mask]
    sims = q @ unit.T
    kk = min(k, sims.shape[1])
    top = np.argpartition(-sims, kk - 1, axis=1)[:, :kk]
    q_out, id_out, s_out = [], [], []
    for qi in range(sims.shape[0]):
        for ci in top[qi]:
            q_out.append(qi)
            id_out.append(int(sub_ids[ci]))
            s_out.append(float(sims[qi, ci]))
    return pa.table(
        {
            "query_id": pa.array(q_out, type=pa.int32()),
            "vec_id": pa.array(id_out, type=pa.int64()),
            "score": pa.array(s_out, type=pa.float64()),
        }
    )


def hash_sample_matrix(
    ds: ray.data.Dataset,
    *,
    vec_col: str = "embedding",
    id_col: str = "vec_id",
    n: int = 512,
) -> np.ndarray:
    """Deterministic uniform sample of ``n`` vectors: the rows with the
    smallest Knuth multiplicative hash of their id (distributed
    bottom-k — per-batch partial bottom-k, tiny driver merge), so the
    sample is insensitive to input order and block layout.  Returns a
    row-normalized float32 matrix."""

    def _bottomk(batch: pa.Table) -> pa.Table:
        ids = batch.column(id_col).to_numpy(zero_copy_only=False).astype(np.int64)
        h = knuth_hash32(ids)
        take = np.argsort(h, kind="stable")[:n]
        sub = batch.select([id_col, vec_col]).take(pa.array(np.sort(take)))
        hh = knuth_hash32(sub.column(id_col).to_numpy(zero_copy_only=False).astype(np.int64))
        return sub.append_column("_h", pa.array(hh, type=pa.int64()))

    import pyarrow as _pa

    sample_tbl = _pa.concat_tables(
        ds.map_batches(_bottomk, batch_format="pyarrow").iter_batches(
            batch_format="pyarrow", batch_size=None
        )
    )
    order = pc.sort_indices(sample_tbl, sort_keys=[("_h", "ascending"), (id_col, "ascending")])
    sample_tbl = sample_tbl.take(order).slice(0, n)
    return _normalize_rows(vec_matrix(sample_tbl.column(vec_col), dtype=np.float32))


def assign_clusters_matrix(mat: np.ndarray, centroids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Pure cluster assignment shared by the Ray stage and the
    sequential golden oracle: cosine similarity in float64, rounded to
    9 decimals BEFORE the argmax so batch shape / BLAS summation order
    cannot flip near-ties (argmax then breaks exact ties toward the
    lower cluster id in both paths).  Returns (cluster_id int32,
    similarity float64 rounded half-away to 4 decimals)."""
    unit = _normalize_rows(mat.astype(np.float64))
    sims = np.round(unit @ centroids.astype(np.float64).T, 9)
    cid = np.argmax(sims, axis=1).astype(np.int32)
    best = sims[np.arange(len(cid)), cid]
    return cid, round_half_away(best, 4)


def kmeans_assign(
    ds: ray.data.Dataset,
    *,
    vec_col: str = "embedding",
    id_col: str = "vec_id",
    n_clusters: int = 8,
    train_sample: int = 512,
    kmeans_iters: int = 5,
    concurrency: int | tuple[int, int] | None = None,
) -> ray.data.Dataset:
    """Corpus-wide k-means cluster assignment — the SemDeDup /
    cluster-balanced-sampling primitive (reference has no counterpart;
    this is part of the training-data layer):

    1. TRAIN (driver, tiny): deterministic spherical k-means
       (:func:`train_kmeans`) over the bottom-``train_sample``
       hash-sample (:func:`hash_sample_matrix`) — O(sample) driver
       memory regardless of corpus size.
    2. ASSIGN (distributed, zero exchange): centroids broadcast via
       ``ray.put`` once; each batch does one float64 matmul
       (:func:`assign_clusters_matrix`).

    Output: (id_col, cluster_id int32, sim float64@4dp), one row per
    input vector, streaming — never materialized."""
    sample = hash_sample_matrix(ds, vec_col=vec_col, id_col=id_col, n=train_sample)
    centroids = train_kmeans(sample, n_clusters, kmeans_iters)
    centroids_ref = ray.put(centroids)

    from dots_ocr_ray.util import cached_object

    def _assign(batch: pa.Table) -> pa.Table:
        cents = cached_object(centroids_ref)
        mat = vec_matrix(batch.column(vec_col), dtype=np.float32)
        cid, sim = assign_clusters_matrix(mat, cents)
        return pa.table(
            {
                id_col: batch.column(id_col),
                "cluster_id": pa.array(cid, type=pa.int32()),
                "sim": pa.array(sim, type=pa.float64()),
            }
        )

    return ds.map_batches(_assign, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# int8 embedding quantization (4x memory cut for the 100 TB ANN path)


def embedding_scale_stats(
    ds: ray.data.Dataset, *, vec_col: str = "embedding"
) -> tuple[np.ndarray, np.ndarray]:
    """Per-dimension (min, max) over an embedding column via mergeable
    per-batch partials — one row per batch moves, never a vector."""
    def _partial(batch: pa.Table) -> pa.Table:
        mat = vec_matrix(batch.column(vec_col), dtype=np.float32)
        return pa.table(
            {
                "mins": pa.array([mat.min(axis=0).tobytes()], type=pa.binary()),
                "maxs": pa.array([mat.max(axis=0).tobytes()], type=pa.binary()),
            }
        )

    mins, maxs = None, None
    for b in ds.map_batches(_partial, batch_format="pyarrow").iter_batches(
        batch_format="pyarrow"
    ):
        for lo_b, hi_b in zip(b.column("mins").to_pylist(), b.column("maxs").to_pylist()):
            lo = np.frombuffer(lo_b, dtype=np.float32)
            hi = np.frombuffer(hi_b, dtype=np.float32)
            mins = lo if mins is None else np.minimum(mins, lo)
            maxs = hi if maxs is None else np.maximum(maxs, hi)
    if mins is None:
        raise ValueError("empty embedding dataset")
    return mins.astype(np.float64), maxs.astype(np.float64)


def quantize_embeddings(
    ds: ray.data.Dataset,
    *,
    vec_col: str = "embedding",
    id_col: str = "vec_id",
) -> tuple[ray.data.Dataset, dict]:
    """Asymmetric int8 quantization of an embedding column →
    (Dataset with ``q`` binary column, codebook dict).

    Two passes: a per-dimension (min, max) partial aggregate (bytes per
    batch, not per row), then a stateless vectorized encode
    ``q = round((v - min) / scale) - 128`` per batch.  The codebook
    (min/scale per dim) is a few KB and rides with the output metadata
    — at 10^9 vectors the quantized column is 4× smaller than float32,
    which is the difference between an in-memory IVF index per node and
    object-store spill."""
    mins, maxs = embedding_scale_stats(ds, vec_col=vec_col)
    scale = (maxs - mins) / 255.0
    scale[scale == 0] = 1.0
    codebook = {"mins": mins, "scale": scale}
    cb_ref = ray.put((mins.astype(np.float32), scale.astype(np.float32)))

    from dots_ocr_ray.util import cached_object

    def _encode(batch: pa.Table) -> pa.Table:
        lo, sc = cached_object(cb_ref)
        mat = vec_matrix(batch.column(vec_col), dtype=np.float32)
        q = np.clip(np.rint((mat - lo) / sc), 0, 255).astype(np.uint8)
        return pa.table(
            {
                id_col: batch.column(id_col).cast(pa.int64()),
                "q": pa.array([row.tobytes() for row in q], type=pa.binary()),
            }
        )

    return ds.map_batches(_encode, batch_format="pyarrow"), codebook


def dequantized_topk(
    quantized: ray.data.Dataset,
    codebook: dict,
    queries: np.ndarray,
    query_ids: list[int],
    *,
    id_col: str = "vec_id",
    k: int = 5,
) -> pa.Table:
    """Brute-force cosine top-k over the int8-quantized column:
    per-batch dequantize (one fused multiply-add) + matmul + local
    top-k, tiny global merge — the same shape as
    :func:`brute_force_topk`, at a quarter of the object-store bytes."""
    qmat = _normalize_rows(np.asarray(queries, dtype=np.float32))
    state_ref = ray.put(
        (
            qmat,
            np.asarray(codebook["mins"], dtype=np.float32),
            np.asarray(codebook["scale"], dtype=np.float32),
        )
    )

    from dots_ocr_ray.util import cached_object

    def _local(batch: pa.Table) -> pa.Table:
        qm, lo, sc = cached_object(state_ref)
        ids = batch.column(id_col).to_numpy(zero_copy_only=False).astype(np.int64)
        raw = batch.column("q")
        if isinstance(raw, pa.ChunkedArray):
            raw = raw.combine_chunks()
        flat = np.frombuffer(b"".join(raw.to_pylist()), dtype=np.uint8)
        mat = flat.reshape(len(ids), -1).astype(np.float32) * sc + lo
        mat = _normalize_rows(mat)
        sims = qm @ mat.T  # (nq, nb)
        kk = min(k, sims.shape[1])
        top = np.argpartition(-sims, kk - 1, axis=1)[:, :kk]
        rows_q, rows_v, rows_s = [], [], []
        for qi in range(sims.shape[0]):
            rows_q += [qi] * kk
            rows_v += ids[top[qi]].tolist()
            rows_s += sims[qi, top[qi]].tolist()
        return pa.table(
            {
                "qi": pa.array(rows_q, type=pa.int32()),
                "vec_id": pa.array(rows_v, type=pa.int64()),
                "sim": pa.array(rows_s, type=pa.float64()),
            }
        )

    cands = quantized.map_batches(_local, batch_format="pyarrow")
    best: dict[int, list[tuple[float, int]]] = {i: [] for i in range(len(query_ids))}
    for b in cands.iter_batches(batch_format="pyarrow"):
        for qi, vid, s in zip(
            b.column("qi").to_pylist(), b.column("vec_id").to_pylist(), b.column("sim").to_pylist()
        ):
            heapq.heappush(best[qi], (s, -vid))
            if len(best[qi]) > k:
                heapq.heappop(best[qi])
    out_q, out_v, out_r = [], [], []
    for qi in range(len(query_ids)):
        ranked = sorted(best[qi], key=lambda t: (-t[0], -t[1]))
        for r, (s, nvid) in enumerate(ranked, 1):
            out_q.append(int(query_ids[qi]))
            out_v.append(int(-nvid))
            out_r.append(r)
    return pa.table(
        {
            "query_id": pa.array(out_q, type=pa.int32()),
            "vec_id": pa.array(out_v, type=pa.int64()),
            "rank": pa.array(out_r, type=pa.int32()),
        }
    )


# ---------------------------------------------------------------------------
# SemDeDup: semantic dedup by within-cluster embedding similarity


def semdedup_flags(ids: np.ndarray, mat: np.ndarray, threshold: float, block: int = 2048) -> np.ndarray:
    """Pure SemDeDup flag kernel shared by the Ray stage and the
    sequential golden oracle (Abbas et al. 2023, arXiv:2303.09540):
    within one cluster, a vector is a semantic duplicate when ANY
    lower-id vector's cosine similarity reaches ``threshold`` — the
    min-id-survivor convention every dedup family in this repo uses.

    Determinism contract: float64 unit vectors, sims rounded to 9
    decimals BEFORE the compare (the assign_clusters_matrix rule), id
    order via stable argsort — so block shape / BLAS summation order
    cannot flip boundary pairs between engines.  Blocked matmul keeps
    peak extra memory at ``block × n`` floats for any cluster size.

    Returns a bool array aligned to the INPUT order (True = duplicate).
    """
    n = len(ids)
    if n == 0:
        return np.zeros(0, dtype=bool)
    order = np.argsort(ids, kind="stable")
    unit = _normalize_rows(mat[order].astype(np.float64))
    dup_sorted = np.zeros(n, dtype=bool)
    for s in range(0, n, block):
        e = min(s + block, n)
        blk = unit[s:e]
        if s > 0:
            sims = np.round(blk @ unit[:s].T, 9)
            dup_sorted[s:e] |= (sims >= threshold).any(axis=1)
        intra = np.round(blk @ blk.T, 9)
        dup_sorted[s:e] |= (np.tril(intra, -1) >= threshold).any(axis=1)
    out = np.zeros(n, dtype=bool)
    out[order] = dup_sorted
    return out


def semdedup_prune(
    ds: ray.data.Dataset,
    *,
    vec_col: str = "embedding",
    id_col: str = "vec_id",
    n_clusters: int = 8,
    threshold: float = 0.96,
    train_sample: int = 512,
    kmeans_iters: int = 5,
) -> ray.data.Dataset:
    """SemDeDup over an embedding column: k-means partition, then
    within-cluster cosine-threshold pruning (keep the min id of every
    near-duplicate neighborhood).

    Scale shape: the centroid TRAIN is the same O(sample) driver step
    as :func:`kmeans_assign`; the ASSIGN is a zero-exchange broadcast
    matmul; the prune is ONE groupby(cluster_id) exchange that ships
    each vector exactly once, then a blocked in-group matmul.  The
    partitioning assumption (documented per the custom-operator rule):
    one CLUSTER must fit a worker's heap — size ``n_clusters`` ∝
    corpus (SemDeDup's own regime, ~100k clusters at 100M+ docs) so
    groups stay ~constant-size; a pathological hot cluster degrades to
    a longer blocked loop, never to OOM-by-pairwise-matrix.

    Output: one row per input vector — (id_col, cluster_id int32,
    kept bool); row count is preserved so downstream semi-joins can
    consume either side of the flag.
    """
    sample = hash_sample_matrix(ds, vec_col=vec_col, id_col=id_col, n=train_sample)
    centroids = train_kmeans(sample, n_clusters, kmeans_iters)
    centroids_ref = ray.put(centroids)

    from dots_ocr_ray.util import cached_object, vec_matrix

    def _assign(batch: pa.Table) -> pa.Table:
        cents = cached_object(centroids_ref)
        mat = vec_matrix(batch.column(vec_col), dtype=np.float32)
        cid, _ = assign_clusters_matrix(mat, cents)
        return pa.table(
            {
                id_col: batch.column(id_col),
                "cluster_id": pa.array(cid, type=pa.int32()),
                vec_col: batch.column(vec_col),
            }
        )

    def _prune(group: pa.Table) -> pa.Table:
        ids = group.column(id_col).to_numpy(zero_copy_only=False).astype(np.int64)
        mat = vec_matrix(group.column(vec_col), dtype=np.float32)
        dup = semdedup_flags(ids, mat, threshold)
        return pa.table(
            {
                id_col: pa.array(ids, type=pa.int64()),
                "cluster_id": group.column("cluster_id"),
                "kept": pa.array(~dup, type=pa.bool_()),
            }
        )

    from dots_ocr_ray.util import bounded_blocks

    assigned = ds.map_batches(_assign, batch_format="pyarrow")
    return (
        bounded_blocks(assigned, rows_per_block=65536)
        .groupby("cluster_id")
        .map_groups(_prune, batch_format="pyarrow")
    )


def label_centroid_stats(
    ds: ray.data.Dataset,
    *,
    vec_col: str = "embedding",
    label_col: str = "label",
    quant: int = 1 << 20,
) -> pa.Table:
    """Per-label vector-sum sufficient statistics → ``(label, dim,
    sum_q, n)`` — the exact distributed input to centroid updates
    (k-means/IVF retraining, semdedup seeding, per-class embedding
    drift audits): centroid = sum_q / (n · quant).

    Exactness contract (the PCA discipline): each component quantizes
    to ``round(x · 2^20)`` int64 BEFORE summing, so partials fold
    layout-insensitively and the output is bit-identical to the SQL
    mirror — float mean aggregation would be association-order-
    dependent.  Per-batch partial = labels × dims int64 rows (zero-
    copy ``vec_matrix``), ONE tiny keyed fold."""
    import pyarrow.compute as pc

    from dots_ocr_ray.util import bucket_keyed_fold, vec_matrix

    def _partial(batch: pa.Table) -> pa.Table:
        mat = vec_matrix(batch.column(vec_col), dtype=np.float64)
        # SQL round() is half-AWAY-from-zero; np.rint would diverge on
        # exact binary ties (float32 components CAN hit them at 2^20)
        scaled = mat * quant
        q = (np.sign(scaled) * np.floor(np.abs(scaled) + 0.5)).astype(np.int64)
        labs = batch.column(label_col).to_numpy(zero_copy_only=False).astype(np.int64)
        uniq, inv = np.unique(labs, return_inverse=True)
        d = q.shape[1]
        sums = np.zeros((len(uniq), d), dtype=np.int64)
        np.add.at(sums, inv, q)
        ns = np.bincount(inv, minlength=len(uniq)).astype(np.int64)
        return pa.table(
            {
                "label": pa.array(np.repeat(uniq, d), type=pa.int64()),
                "dim": pa.array(np.tile(np.arange(d, dtype=np.int64), len(uniq)), type=pa.int64()),
                "sum_q": pa.array(sums.ravel(), type=pa.int64()),
                "n": pa.array(np.repeat(ns, d), type=pa.int64()),
            }
        )

    agg = bucket_keyed_fold(
        ds.map_batches(_partial, batch_format="pyarrow"), ["label", "dim"], {"sum_q": ("sum", "sum_q"), "n": ("sum", "n")}
    )
    out = pa.concat_tables(
        [b for b in agg.iter_batches(batch_format="pyarrow") if b.num_rows]
        or [
            pa.table(
                {
                    "label": pa.array([], pa.int64()),
                    "dim": pa.array([], pa.int64()),
                    "sum_q": pa.array([], pa.int64()),
                    "n": pa.array([], pa.int64()),
                }
            )
        ]
    )
    return out.take(
        pc.sort_indices(out, sort_keys=[("label", "ascending"), ("dim", "ascending")])
    )


# ---------------------------------------------------------------------------
# Product quantization (PQ): subspace codebooks + asymmetric-distance search


def pq_train_codebooks(
    sample: np.ndarray, m: int = 8, n_codes: int = 16, iters: int = 5
) -> np.ndarray:
    """Train PQ codebooks on a (row-normalized) sample matrix: split
    each vector into ``m`` contiguous subspaces and run seeded Lloyd
    k-means with ``n_codes`` centroids per subspace.  Pure numpy in
    float64 with distances rounded to 9 decimals before every argmin,
    so the Ray stage and the sequential golden oracle produce the SAME
    codebooks regardless of BLAS blocking.  Returns (m, n_codes, dsub).

    Memory story at 10^9 vectors: 64-dim float32 = 256 B/vec; 8
    subspaces x 16 codes = 8 x 4-bit-ish uint8 codes = 8 B/vec (32x),
    which is the difference between an in-RAM index per node and
    object-store spill."""
    sample = np.asarray(sample, dtype=np.float64)
    n, d = sample.shape
    if d % m:
        raise ValueError(f"dim {d} not divisible by m={m} subspaces")
    dsub = d // m
    books = np.empty((m, n_codes, dsub), dtype=np.float64)
    for j in range(m):
        sub = sample[:, j * dsub : (j + 1) * dsub]
        # seeded init: evenly spaced sample rows (the train_kmeans rule)
        idx = np.linspace(0, n - 1, n_codes).astype(np.int64)
        cent = sub[idx].copy()
        for _ in range(iters):
            d2 = np.round(
                (sub * sub).sum(axis=1, keepdims=True)
                - 2.0 * (sub @ cent.T)
                + (cent * cent).sum(axis=1),
                9,
            )
            assign = np.argmin(d2, axis=1)
            for c in range(n_codes):
                members = sub[assign == c]
                if len(members):
                    cent[c] = members.mean(axis=0)
        books[j] = cent
    return books


def pq_encode_matrix(mat: np.ndarray, books: np.ndarray) -> np.ndarray:
    """Encode a (n, d) matrix to (n, m) uint8 codes: per-subspace
    nearest codeword, float64 distances rounded to 9 decimals before
    argmin (batch-shape-independent).  Pure; shared by the Ray stage
    and the golden oracle."""
    mat = np.asarray(mat, dtype=np.float64)
    m, n_codes, dsub = books.shape
    codes = np.empty((len(mat), m), dtype=np.uint8)
    for j in range(m):
        sub = mat[:, j * dsub : (j + 1) * dsub]
        cent = books[j]
        d2 = np.round(
            (sub * sub).sum(axis=1, keepdims=True)
            - 2.0 * (sub @ cent.T)
            + (cent * cent).sum(axis=1),
            9,
        )
        codes[:, j] = np.argmin(d2, axis=1).astype(np.uint8)
    return codes


def pq_adc_lut(queries_unit: np.ndarray, books: np.ndarray) -> np.ndarray:
    """Asymmetric-distance lookup tables: (nq, m, n_codes) of query-
    subvector . codeword dot products, float64.  Computed ONCE per
    query set; scoring a vector is then m table gathers + a fixed
    m-term sum, independent of batch shape."""
    nq = len(queries_unit)
    m, n_codes, dsub = books.shape
    lut = np.empty((nq, m, n_codes), dtype=np.float64)
    for j in range(m):
        qsub = np.asarray(queries_unit, dtype=np.float64)[:, j * dsub : (j + 1) * dsub]
        lut[:, j, :] = qsub @ books[j].T
    return lut


def pq_adc_scores(codes: np.ndarray, lut_q: np.ndarray) -> np.ndarray:
    """Scores of (n, m) codes against ONE query's (m, n_codes) LUT:
    sum over subspaces of the gathered entries, rounded to 9 decimals
    so ranking ties are stable across partitionings."""
    n, m = codes.shape
    acc = np.zeros(n, dtype=np.float64)
    for j in range(m):
        acc += lut_q[j, codes[:, j]]
    return np.round(acc, 9)


def pq_encode(
    ds: ray.data.Dataset,
    books: np.ndarray,
    *,
    vec_col: str = "embedding",
    id_col: str = "vec_id",
) -> ray.data.Dataset:
    """Distributed PQ encode: codebooks broadcast once (``ray.put`` +
    per-worker cache), one vectorized encode per batch → (id, ``code``
    binary of m bytes).  Zero exchanges."""
    books_ref = ray.put(np.asarray(books, dtype=np.float64))

    from dots_ocr_ray.util import cached_object

    def _enc(batch: pa.Table) -> pa.Table:
        bk = cached_object(books_ref)
        # normalize in float32 (the storage dtype) so the sequential
        # golden mirror sees bitwise-identical unit vectors
        mat = _normalize_rows(vec_matrix(batch.column(vec_col), dtype=np.float32))
        codes = pq_encode_matrix(mat, bk)
        return pa.table(
            {
                id_col: batch.column(id_col).cast(pa.int64()),
                "code": pa.array([row.tobytes() for row in codes], type=pa.binary()),
            }
        )

    return ds.map_batches(_enc, batch_format="pyarrow")


def pq_topk(
    codes_ds: ray.data.Dataset,
    books: np.ndarray,
    queries: np.ndarray,
    k: int = 10,
    *,
    id_col: str = "vec_id",
) -> pa.Table:
    """ADC top-k over the PQ-encoded corpus: the (nq, m, n_codes) LUT
    is broadcast; each batch does m uint8 gathers + one m-term sum per
    query and emits its LOCAL top-k; a tiny driver merge finishes.
    Same output schema/tie-break as :func:`brute_force_topk`
    (query_id, vec_id, score, rank).  Approximate by construction —
    recall depends on m x n_codes; raise either toward exactness."""
    queries_unit = _normalize_rows(np.asarray(queries, dtype=np.float32))
    lut_ref = ray.put(pq_adc_lut(queries_unit, np.asarray(books, dtype=np.float64)))

    from dots_ocr_ray.util import cached_object

    def _score(batch: pa.Table) -> pa.Table:
        lut = cached_object(lut_ref)
        ids = batch.column(id_col).to_numpy(zero_copy_only=False).astype(np.int64)
        raw = batch.column("code")
        if isinstance(raw, pa.ChunkedArray):
            raw = raw.combine_chunks()
        m = lut.shape[1]
        codes = np.frombuffer(b"".join(raw.to_pylist()), dtype=np.uint8).reshape(
            len(ids), m
        )
        q_out, id_out, s_out = [], [], []
        for qi in range(lut.shape[0]):
            scores = pq_adc_scores(codes, lut[qi])
            kk = min(k, len(scores))
            if not kk:
                continue
            top = np.argpartition(-scores, kk - 1)[:kk]
            q_out += [qi] * kk
            id_out += ids[top].tolist()
            s_out += scores[top].tolist()
        return pa.table(
            {
                "query_id": pa.array(q_out, type=pa.int32()),
                "vec_id": pa.array(id_out, type=pa.int64()),
                "score": pa.array(s_out, type=pa.float64()),
            }
        )

    partials = codes_ds.map_batches(_score, batch_format="pyarrow")
    return _merge_topk(partials, k)


def hybrid_rrf(
    docs: ray.data.Dataset,
    embeds: ray.data.Dataset,
    *,
    probes: list[str],
    query_vec: np.ndarray,
    k: int = 10,
    k_cand: int = 50,
    rrf_k: int = 60,
    text_col: str = "text",
    id_col: str = "doc_id",
    vec_col: str = "embedding",
    vec_id_col: str = "vec_id",
) -> pa.Table:
    """Hybrid retrieval with reciprocal-rank fusion: the lexical
    (Okapi BM25 over probe terms) and semantic (exact f64 cosine vs a
    query vector) candidate lists merge by
    ``score = Σ_source 10^9 // (rrf_k + rank_source)`` — the standard
    RAG-stack fusion rule, in EXACT integer arithmetic so every engine
    agrees bit-for-bit.

    Scale shape: the lexical side rides
    :func:`~dots_ocr_ray.pipelines.text_analysis.bm25_scores` (one
    corpus scan; per-doc totals sum 4dp-micro-int scores so float
    addition order cannot flip ranks), the semantic side is one
    broadcast-query matmul pass with per-batch local top-k partials
    (f64 so the SQL mirror's DOUBLE cosine ranks identically); only
    the two ≤ ``k_cand``-row candidate lists ever reach the driver,
    where the fusion is a dictionary fold.

    Output: top-``k`` fused ``(doc_id, rrf_q, rank)``."""
    from dots_ocr_ray.pipelines.text_analysis import bm25_scores
    from dots_ocr_ray.util import bucket_keyed_fold
    from dots_ocr_ray.util import vec_matrix as _vm

    # ---- lexical candidates: micro-int BM25 totals, top-k_cand
    scored = bm25_scores(docs, probes=probes, text_col=text_col, id_col=id_col)

    def _micro(batch: pa.Table) -> pa.Table:
        q = np.round(
            batch.column("bm25").to_numpy(zero_copy_only=False) * 10_000.0
        ).astype(np.int64)
        return pa.table({id_col: batch.column(id_col), "q": pa.array(q, type=pa.int64())})

    lex_rows = (
        bucket_keyed_fold(scored.map_batches(_micro, batch_format="pyarrow"), id_col, {"s": ("sum", "q")})
        .sort(["s", id_col], descending=[True, False])
        .limit(k_cand)
        .take_all()
    )
    lex_rank = {r[id_col]: i + 1 for i, r in enumerate(lex_rows)}

    # ---- semantic candidates: exact f64 cosine, per-batch local top-k
    q = np.asarray(query_vec, dtype=np.float64)
    q = q / (np.linalg.norm(q) or 1.0)
    q_ref = ray.put(q)

    def _local_top(batch: pa.Table) -> pa.Table:
        from dots_ocr_ray.util import cached_object

        qv = cached_object(q_ref)
        mat = _vm(batch.column(vec_col), dtype=np.float64)
        norms = np.linalg.norm(mat, axis=1)
        norms[norms == 0] = 1.0
        sims = (mat @ qv) / norms
        ids = batch.column(vec_id_col).to_numpy(zero_copy_only=False).astype(np.int64)
        kk = min(k_cand, len(ids))
        # lexsort for deterministic tied-boundary selection (ties →
        # smallest vec_id survives, matching the SQL oracle's rank)
        top = np.lexsort((ids, -sims))[:kk] if kk else np.array([], np.int64)
        return pa.table(
            {
                "vec_id": pa.array(ids[top], type=pa.int64()),
                "sim": pa.array(sims[top], type=pa.float64()),
            }
        )

    sem_parts = embeds.map_batches(_local_top, batch_format="pyarrow").take_all()
    sem_sorted = sorted(sem_parts, key=lambda r: (-r["sim"], r["vec_id"]))[:k_cand]
    sem_rank = {r["vec_id"]: i + 1 for i, r in enumerate(sem_sorted)}

    # ---- fusion (≤ 2·k_cand candidates)
    fused: dict[int, int] = {}
    for rank_map in (lex_rank, sem_rank):
        for i, r in rank_map.items():
            fused[i] = fused.get(i, 0) + 10**9 // (rrf_k + r)
    ranked = sorted(fused.items(), key=lambda kv: (-kv[1], kv[0]))[:k]
    return pa.table(
        {
            "doc_id": pa.array([i for i, _ in ranked], type=pa.int64()),
            "rrf_q": pa.array([s for _, s in ranked], type=pa.int64()),
            "rank": pa.array(list(range(1, len(ranked) + 1)), type=pa.int64()),
        }
    )


def ivf_build_index(
    ds: ray.data.Dataset,
    index_dir: str,
    *,
    vec_col: str = "embedding",
    id_col: str = "vec_id",
    n_cells: int = 16,
    train_sample: int = 512,
    kmeans_iters: int = 5,
) -> np.ndarray:
    """Build a PERSISTENT IVF index: train centroids exactly as
    :func:`ivf_topk` (deterministic bottom-k hash sample), assign every
    vector to its cell, and write the corpus as hive-partitioned
    parquet (``data/cell=N/``) plus a ``centroids.parquet`` manifest —
    the build-once / query-many layout a 10^9-vector serving path
    needs (queries touch only the probed cells' FILES; the unprobed
    corpus is never read).

    Deterministic: rebuilding from the same corpus yields identical
    centroids and assignments, so queries against the stored index are
    bit-equal to an in-memory :func:`ivf_topk` run with the same
    parameters.  Returns the centroid matrix."""
    import os

    import pyarrow.parquet as pq_mod

    centroids = _ivf_train(
        ds,
        vec_col=vec_col,
        id_col=id_col,
        n_cells=n_cells,
        train_sample=train_sample,
        kmeans_iters=kmeans_iters,
    )

    cent_ref = ray.put(centroids)

    def _assign(batch: pa.Table) -> pa.Table:
        from dots_ocr_ray.util import cached_object

        cent = cached_object(cent_ref)
        vecs = _normalize_rows(vec_matrix(batch.column(vec_col), dtype=np.float32))
        cells = np.argmax(vecs @ cent.T, axis=1).astype(np.int32)
        out = batch.select([id_col, vec_col])
        out = out.append_column("cell_id", pa.array(cells, type=pa.int32()))
        # partition_cols consumes "cell"; cell_id stays IN the files so
        # a subdir read needs no hive-column reconstruction
        return out.append_column("cell", pa.array(cells, type=pa.int32()))

    ds.map_batches(_assign, batch_format="pyarrow").write_parquet(
        os.path.join(index_dir, "data"), partition_cols=["cell"]
    )
    pq_mod.write_table(
        pa.table(
            {
                "cell": pa.array(np.arange(len(centroids)), type=pa.int32()),
                "centroid": pa.array(
                    [row.tolist() for row in centroids], type=pa.list_(pa.float32())
                ),
            }
        ),
        os.path.join(index_dir, "centroids.parquet"),
    )
    return centroids


def ivf_query_index(
    index_dir: str,
    queries: np.ndarray,
    k: int = 10,
    *,
    n_probe: int = 4,
    vec_col: str = "embedding",
    id_col: str = "vec_id",
    concurrency: int | tuple[int, int] | None = None,
) -> pa.Table:
    """Query a stored :func:`ivf_build_index` layout: read ONLY the
    probed cells' partition directories (file-level data skipping —
    with n_probe=4 of 16 cells, 75% of the corpus is never opened),
    score batch-locally against the broadcast queries, tiny merge.
    Output schema and values match :func:`ivf_topk` with the same
    parameters."""
    import os

    import pyarrow.parquet as pq_mod

    cent_tbl = pq_mod.read_table(os.path.join(index_dir, "centroids.parquet"))
    order = pc.sort_indices(cent_tbl, sort_keys=[("cell", "ascending")])
    cent_tbl = cent_tbl.take(order)
    centroids = vec_matrix(cent_tbl.column("centroid"), dtype=np.float32)

    qn = _normalize_rows(np.asarray(queries, dtype=np.float32))
    probe_cells = np.argsort(-(qn @ centroids.T), axis=1)[:, :n_probe]
    needed = sorted({int(c) for c in probe_cells.ravel()})
    # a multi-path read_parquet wants FILES; expand each probed cell
    # directory (unprobed cells' files are never listed or opened)
    import glob

    paths = [
        f
        for c in needed
        for f in sorted(glob.glob(os.path.join(index_dir, "data", f"cell={c}", "*.parquet")))
    ]
    if not paths:
        return _merge_topk(
            ray.data.from_items([]).map_batches(lambda b: b, batch_format="pyarrow"), k
        )
    part = ray.data.read_parquet(paths, columns=[id_col, vec_col, "cell_id"])

    state_ref = ray.put((probe_cells, qn))

    partials = part.map_batches(
        _ivf_index_score_batch,
        fn_kwargs={"state_ref": state_ref, "k": k, "vec_col": vec_col, "id_col": id_col},
        batch_format="pyarrow",
    )
    return _merge_topk(partials, k)


def _ivf_index_score_batch(batch: pa.Table, *, state_ref, k: int, vec_col: str, id_col: str) -> pa.Table:
    """Task stage for :func:`ivf_query_index` — like
    :func:`_ivf_score_batch` but cells come from the stored index's
    ``cell_id`` column instead of a centroid argmax."""
    probe, queries = cached_object(state_ref)
    vecs = _normalize_rows(vec_matrix(batch.column(vec_col), dtype=np.float32))
    ids = batch.column(id_col).to_numpy(zero_copy_only=False).astype(np.int64)
    cells = batch.column("cell_id").to_numpy(zero_copy_only=False).astype(np.int64)
    q_out, id_out, s_out = [], [], []
    for qi in range(len(queries)):
        mask = np.isin(cells, probe[qi])
        if not mask.any():
            continue
        sims = vecs[mask] @ queries[qi]
        sub_ids = ids[mask]
        kk = min(k, len(sims))
        # lexsort, not argpartition: equal scores at the batch
        # top-k boundary must resolve by vec_id so the stored-
        # index path (different batching) stays bit-equal
        top = np.lexsort((sub_ids, -sims))[:kk]
        for ci in top:
            q_out.append(qi)
            id_out.append(int(sub_ids[ci]))
            s_out.append(float(sims[ci]))
    return pa.table(
        {
            "query_id": pa.array(q_out, type=pa.int32()),
            "vec_id": pa.array(id_out, type=pa.int64()),
            "score": pa.array(s_out, type=pa.float64()),
        }
    )


def silhouette_terms_matrix(
    mat: np.ndarray, centroids: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Pure simplified-silhouette kernel shared by the Ray stage and
    the sequential golden oracle: cosine distance to the OWN centroid
    (a) vs the nearest OTHER centroid (b), ``s = (b − a) / max(a, b)``
    quantized per point to ``floor(1e6·s)`` so downstream sums are
    order-independent.  Same round-to-9 tie discipline as
    :func:`assign_clusters_matrix`.  Returns (cluster_id int32,
    s_micro int64)."""
    unit = _normalize_rows(mat.astype(np.float64))
    sims = np.round(unit @ centroids.astype(np.float64).T, 9)
    cid = np.argmax(sims, axis=1).astype(np.int32)
    idx = np.arange(len(cid))
    own = sims[idx, cid]
    masked = sims.copy()
    masked[idx, cid] = -np.inf
    second = masked.max(axis=1)
    a = 1.0 - own
    b = 1.0 - second
    denom = np.maximum(a, b)
    s = np.where(denom > 0, (b - a) / np.where(denom > 0, denom, 1.0), 0.0)
    return cid, np.floor(1e6 * s).astype(np.int64)


def silhouette_by_cluster(
    ds: ray.data.Dataset,
    *,
    vec_col: str = "embedding",
    id_col: str = "vec_id",
    n_clusters: int = 8,
    train_sample: int = 512,
    kmeans_iters: int = 5,
) -> pa.Table:
    """Per-cluster SIMPLIFIED silhouette score — the clustering-quality
    eval that says which k-means cells are tight vs mush, without the
    O(n²) pairwise matrix of the full silhouette (a = own-centroid
    distance, b = nearest-other-centroid distance; Hartigan-style
    centroid surrogate).

    Same train seam as :func:`kmeans_assign` (deterministic bottom-k
    hash sample, broadcast centroids); each row's quantized term comes
    from the shared kernel (:func:`silhouette_terms_matrix`), one keyed
    fold sums (n, Σs_micro) per cluster, and the driver's per-cluster
    mean is integer floor division — no float crosses rows anywhere."""
    sample = hash_sample_matrix(ds, vec_col=vec_col, id_col=id_col, n=train_sample)
    centroids = train_kmeans(sample, n_clusters, kmeans_iters)
    centroids_ref = ray.put(centroids)

    from dots_ocr_ray.util import bucket_keyed_fold, cached_object, vec_matrix

    def _partials(batch: pa.Table) -> pa.Table:
        cents = cached_object(centroids_ref)
        mat = vec_matrix(batch.column(vec_col), dtype=np.float32)
        cid, s_micro = silhouette_terms_matrix(mat, cents)
        return pa.table({"cluster_id": pa.array(cid, pa.int64()), "s": pa.array(s_micro, pa.int64())})

    folded = (
        bucket_keyed_fold(
            ds.map_batches(_partials, batch_format="pyarrow"),
            "cluster_id",
            {"n": ("count", None), "ssum": ("sum", "s")},
        )
        .to_pandas()
        .sort_values("cluster_id")
        .reset_index(drop=True)
    )
    return pa.table(
        {
            "cluster_id": pa.array(folded["cluster_id"].astype(int), pa.int32()),
            "n": pa.array(folded["n"].astype(int), pa.int64()),
            "mean_s_micro": pa.array(
                [int(s) // int(n) for s, n in zip(folded["ssum"], folded["n"])],
                pa.int64(),
            ),
        }
    )


# --- k-center greedy coreset (Gonzalez) -------------------------------------

def kcenter_min_dist_micro(mat: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """Per-point min squared-euclidean distance to any center, in
    micro units: floor(1e6 * min_c ||x - c||²), float64 row-wise (so
    the value is independent of batch shape).  Pure kernel shared by
    the Ray passes and the sequential golden."""
    m = mat.astype(np.float64, copy=False)
    best = None
    for c in centers.astype(np.float64, copy=False):
        d = ((m - c[None, :]) ** 2).sum(axis=1)
        best = d if best is None else np.minimum(best, d)
    return np.floor(1e6 * best).astype(np.int64)


def kcenter_greedy(
    ds: ray.data.Dataset,
    *,
    vec_col: str = "embedding",
    id_col: str = "vec_id",
    k: int = 8,
) -> pa.Table:
    """Gonzalez greedy k-center coreset selection — the
    diversity-first data-selection primitive (pick k prototypes whose
    covering radius 2-approximates the optimum; used for active
    labeling / eval-set construction over embedding corpora).

    Scale shape: the first center is the min-id vector; each of the
    remaining k-1 rounds is ONE stateless streamed pass — broadcast
    the ≤k chosen centers, fold each batch to a single (max min-dist,
    tie -> min id, winning vector) partial row, tiny driver merge.
    No per-point state persists between rounds (resume-friendly), no
    exchange; driver memory is O(k · dim).  Ties and floats are pinned
    by the shared micro-quantized kernel.

    Output: (rank, vec_id, dist_micro) where dist_micro is the
    point's min distance to the previously chosen centers (0 for rank
    0) — dist_micro of rank r is the covering radius of the first r
    centers."""
    narrow = ds.select_columns([id_col, vec_col]).materialize()

    def _first(batch: pa.Table) -> pa.Table:
        ids = batch.column(id_col).to_numpy(zero_copy_only=False).astype(np.int64)
        if len(ids) == 0:
            return pa.table({id_col: pa.array([], type=pa.int64()), vec_col: batch.column(vec_col)})
        j = int(np.argmin(ids))
        return batch.take([j]).select([id_col, vec_col])

    seed_parts = [
        b
        for b in narrow.map_batches(_first, batch_format="pyarrow").iter_batches(
            batch_format="pyarrow"
        )
        if b.num_rows
    ]
    seed_rows = _first(pa.concat_tables(seed_parts)) if seed_parts else None
    if seed_rows is None or seed_rows.num_rows == 0:
        return pa.table(
            {
                "rank": pa.array([], type=pa.int64()),
                id_col: pa.array([], type=pa.int64()),
                "dist_micro": pa.array([], type=pa.int64()),
            }
        )
    centers = [vec_matrix(seed_rows.column(vec_col), dtype=np.float32)[0]]
    chosen = [(0, int(seed_rows.column(id_col)[0].as_py()), 0)]

    for rank in range(1, k):
        cents = np.stack(centers)
        cents_ref = ray.put(cents)

        def _partial(batch: pa.Table) -> pa.Table:
            from dots_ocr_ray.util import cached_object

            ids = batch.column(id_col).to_numpy(zero_copy_only=False).astype(np.int64)
            if len(ids) == 0:
                return pa.table(
                    {
                        id_col: pa.array([], type=pa.int64()),
                        "d": pa.array([], type=pa.int64()),
                        vec_col: batch.column(vec_col),
                    }
                )
            mat = vec_matrix(batch.column(vec_col), dtype=np.float32)
            d = kcenter_min_dist_micro(mat, cached_object(cents_ref))
            # batch-local winner: max d, tie -> min id
            order = np.lexsort((ids, -d))
            j = int(order[0])
            return pa.table(
                {
                    id_col: pa.array([ids[j]], type=pa.int64()),
                    "d": pa.array([d[j]], type=pa.int64()),
                    vec_col: batch.column(vec_col).take(pa.array([j])),
                }
            )

        best = None  # (d, id, vec)
        for b in narrow.map_batches(_partial, batch_format="pyarrow").iter_batches(
            batch_format="pyarrow"
        ):
            for r in range(b.num_rows):
                d = int(b.column("d")[r].as_py())
                i = int(b.column(id_col)[r].as_py())
                if best is None or (d, -i) > (best[0], -best[1]):
                    best = (d, i, vec_matrix(b.column(vec_col), dtype=np.float32)[r])
        chosen.append((rank, best[1], best[0]))
        centers.append(best[2])

    return pa.table(
        {
            "rank": pa.array([c[0] for c in chosen], type=pa.int64()),
            id_col: pa.array([c[1] for c in chosen], type=pa.int64()),
            "dist_micro": pa.array([c[2] for c in chosen], type=pa.int64()),
        }
    )


# --- kNN-distance outliers ---------------------------------------------------

def hash_sample_with_ids(
    ds: ray.data.Dataset,
    *,
    vec_col: str = "embedding",
    id_col: str = "vec_id",
    n: int = 256,
) -> tuple[np.ndarray, np.ndarray]:
    """:func:`hash_sample_matrix` variant returning (ids, RAW float32
    matrix) — no row normalization — for distance-based ops that must
    exclude self-matches."""

    def _bottomk(batch: pa.Table) -> pa.Table:
        ids = batch.column(id_col).to_numpy(zero_copy_only=False).astype(np.int64)
        h = knuth_hash32(ids)
        take = np.argsort(h, kind="stable")[:n]
        sub = batch.select([id_col, vec_col]).take(pa.array(np.sort(take)))
        hh = knuth_hash32(sub.column(id_col).to_numpy(zero_copy_only=False).astype(np.int64))
        return sub.append_column("_h", pa.array(hh, type=pa.int64()))

    sample_tbl = pa.concat_tables(
        ds.map_batches(_bottomk, batch_format="pyarrow").iter_batches(
            batch_format="pyarrow", batch_size=None
        )
    )
    order = pc.sort_indices(sample_tbl, sort_keys=[("_h", "ascending"), (id_col, "ascending")])
    sample_tbl = sample_tbl.take(order).slice(0, n)
    return (
        sample_tbl.column(id_col).to_numpy(zero_copy_only=False).astype(np.int64),
        vec_matrix(sample_tbl.column(vec_col), dtype=np.float32),
    )


def knn_outlier_scores_matrix(
    ids: np.ndarray,
    mat: np.ndarray,
    sample_ids: np.ndarray,
    sample_mat: np.ndarray,
    k: int,
) -> np.ndarray:
    """Mean squared-euclidean distance to the k nearest SAMPLE vectors
    (self-matches excluded by id), micro-floored int64.  Distances are
    computed one sample vector at a time with row-wise float64 sums —
    partition-invariant, no GEMM blocking in the float path.  Pure
    kernel shared by the Ray op and the sequential golden."""
    m = mat.astype(np.float64, copy=False)
    d = np.empty((len(ids), len(sample_ids)), dtype=np.float64)
    for j, c in enumerate(sample_mat.astype(np.float64, copy=False)):
        d[:, j] = ((m - c[None, :]) ** 2).sum(axis=1)
    # exclude self: a point that is itself in the sample
    for j, sid in enumerate(sample_ids):
        d[ids == sid, j] = np.inf
    kk = min(k, d.shape[1] - 1) if d.shape[1] > 1 else 1
    kk = max(kk, 1)
    d.sort(axis=1)
    topk = d[:, :kk]
    finite = np.isfinite(topk)
    sums = np.where(finite, topk, 0.0).sum(axis=1)
    cnts = finite.sum(axis=1)
    out = np.zeros(len(ids), dtype=np.int64)
    nz = cnts > 0
    out[nz] = np.floor(1e6 * (sums[nz] / cnts[nz])).astype(np.int64)
    return out


def knn_outliers(
    ds: ray.data.Dataset,
    *,
    vec_col: str = "embedding",
    id_col: str = "vec_id",
    k: int = 8,
    sample_n: int = 256,
    top_n: int = 32,
) -> pa.Table:
    """Density outliers over the embedding corpus: each point's score
    is its mean distance to the k nearest of a broadcast deterministic
    ``sample_n``-vector hash sample (the classic kNN-distance outlier
    estimator, sample-approximated so the pass is O(n·sample) with no
    pairwise exchange).  Returns the top ``top_n`` outliers
    (vec_id, score_micro), largest first, ties -> min id.

    Scale shape: ONE streamed pass; per-batch local top-k partial +
    tiny driver merge (the engine-wide top-k idiom); the sample ships
    once via ray.put."""
    sample_ids, sample_mat = hash_sample_with_ids(
        ds, vec_col=vec_col, id_col=id_col, n=sample_n
    )
    ref = ray.put((sample_ids, sample_mat))

    from dots_ocr_ray.util import cached_object

    def _partial(batch: pa.Table) -> pa.Table:
        s_ids, s_mat = cached_object(ref)
        ids = batch.column(id_col).to_numpy(zero_copy_only=False).astype(np.int64)
        if len(ids) == 0:
            return pa.table(
                {
                    id_col: pa.array([], type=pa.int64()),
                    "score_micro": pa.array([], type=pa.int64()),
                }
            )
        mat = vec_matrix(batch.column(vec_col), dtype=np.float32)
        s = knn_outlier_scores_matrix(ids, mat, s_ids, s_mat, k)
        order = np.lexsort((ids, -s))[:top_n]
        return pa.table(
            {
                id_col: pa.array(ids[order], type=pa.int64()),
                "score_micro": pa.array(s[order], type=pa.int64()),
            }
        )

    rows_i: list[np.ndarray] = []
    rows_s: list[np.ndarray] = []
    for b in ds.map_batches(_partial, batch_format="pyarrow").iter_batches(
        batch_format="pyarrow"
    ):
        if b.num_rows:
            rows_i.append(b.column(id_col).to_numpy(zero_copy_only=False))
            rows_s.append(b.column("score_micro").to_numpy(zero_copy_only=False))
    if not rows_i:
        return pa.table(
            {
                id_col: pa.array([], type=pa.int64()),
                "score_micro": pa.array([], type=pa.int64()),
            }
        )
    ids = np.concatenate(rows_i)
    s = np.concatenate(rows_s)
    order = np.lexsort((ids, -s))[:top_n]
    return pa.table(
        {
            id_col: pa.array(ids[order], type=pa.int64()),
            "score_micro": pa.array(s[order], type=pa.int64()),
        }
    )


# --- hierarchical agglomerative clustering (over k-means cells) -----------------

def hac_merge_dendrogram(
    centroids: np.ndarray, *, linkage: str = "complete"
) -> list[tuple[int, int, int, int]]:
    """Complete/single-linkage agglomerative merge sequence over a
    BOUNDED set of vectors (k-means cell centroids — never raw corpus
    rows): returns (step, cluster_a, cluster_b, dist_sq) with
    clusters named by their MIN member index and distances as EXACT
    integer squared euclidean over the int64 micro-quantized vectors
    (unit micro², no float ever).  Ties break on (dist, a, b).
    Pure kernel shared with the sequential golden."""
    if linkage not in ("complete", "single"):
        raise ValueError(f"unsupported linkage={linkage!r}")
    n = len(centroids)
    m = centroids.astype(np.int64, copy=False)
    d = np.zeros((n, n), dtype=np.int64)
    for j in range(n):
        diff = m - m[j][None, :]
        d[:, j] = (diff * diff).sum(axis=1)
    members: dict[int, list[int]] = {i: [i] for i in range(n)}
    merges: list[tuple[int, int, int, int]] = []
    step = 0
    while len(members) > 1:
        best = None
        keys = sorted(members)
        for ai in range(len(keys)):
            for bi in range(ai + 1, len(keys)):
                a, b = keys[ai], keys[bi]
                pair_d = [
                    int(d[x, y]) for x in members[a] for y in members[b]
                ]
                dist = max(pair_d) if linkage == "complete" else min(pair_d)
                key = (dist, a, b)
                if best is None or key < best:
                    best = key
        dist, a, b = best
        merges.append((step, a, b, dist))
        members[a] = members[a] + members[b]
        del members[b]
        step += 1
    return merges


def hac_over_kmeans(
    ds: ray.data.Dataset,
    *,
    vec_col: str = "embedding",
    id_col: str = "vec_id",
    n_clusters: int = 8,
    train_sample: int = 512,
    kmeans_iters: int = 5,
    linkage: str = "complete",
) -> pa.Table:
    """Hierarchical structure OVER the flat k-means partition — the
    scalable HAC recipe (BIRCH/"HAC on cluster features"): the corpus
    collapses to ``n_clusters`` cell centroids via the existing
    deterministic k-means seam, then the exact dendrogram is computed
    on that BOUNDED set.  Output: (step, cluster_a, cluster_b,
    dist_sq) — n_clusters−1 merge rows (dist in micro² units).

    Scale shape: k-means train on the hash sample (driver, tiny);
    cell centroids from ONE streamed scatter-add pass (per-batch
    float64 partials per cell); the O(k³) dendrogram runs on k ≤
    dozens of centroids, never corpus rows."""
    sample = hash_sample_matrix(ds, vec_col=vec_col, id_col=id_col, n=train_sample)
    cents = train_kmeans(sample, n_clusters, kmeans_iters)
    cents_ref = ray.put(cents)

    from dots_ocr_ray.util import cached_object

    def _partials(batch: pa.Table) -> pa.Table:
        cc = cached_object(cents_ref)
        mat = vec_matrix(batch.column(vec_col), dtype=np.float32)
        cid, _ = assign_clusters_matrix(mat, cc)
        # int64 micro quantization BEFORE the sum: partial adds are
        # order-independent, so driver merge order cannot leak floats
        mat_q = np.floor(1e6 * mat.astype(np.float64)).astype(np.int64)
        sums = np.zeros((len(cc), mat.shape[1]), dtype=np.int64)
        np.add.at(sums, cid, mat_q)
        cnt = np.bincount(cid, minlength=len(cc)).astype(np.int64)
        return pa.table(
            {
                "cell": pa.array(np.arange(len(cc)), type=pa.int32()),
                "s": pa.array(sums.tolist(), type=pa.list_(pa.int64())),
                "n": pa.array(cnt, type=pa.int64()),
            }
        )

    dim = None
    sums = None
    cnts = None
    for b in ds.map_batches(_partials, batch_format="pyarrow").iter_batches(
        batch_format="pyarrow"
    ):
        for r in range(b.num_rows):
            cell = int(b.column("cell")[r].as_py())
            v = np.array(b.column("s")[r].as_py(), dtype=np.int64)
            if sums is None:
                dim = len(v)
                sums = np.zeros((n_clusters, dim), dtype=np.int64)
                cnts = np.zeros(n_clusters, dtype=np.int64)
            sums[cell] += v
            cnts[cell] += int(b.column("n")[r].as_py())
    if sums is None:
        return pa.table(
            {
                "step": pa.array([], type=pa.int64()),
                "cluster_a": pa.array([], type=pa.int64()),
                "cluster_b": pa.array([], type=pa.int64()),
                "dist_sq": pa.array([], type=pa.int64()),
            }
        )
    # empty cells keep the trained centroid (micro-quantized the same
    # way); occupied cells use the exact integer floor-div mean
    cell_cents = np.floor(1e6 * cents.astype(np.float64)).astype(np.int64)
    occ = cnts > 0
    # floor division toward -inf matches np.floor semantics for
    # negative sums (python-int floor div on int64 arrays)
    cell_cents[occ] = np.floor_divide(sums[occ], cnts[occ][:, None])
    merges = hac_merge_dendrogram(cell_cents, linkage=linkage)
    return pa.table(
        {
            "step": pa.array([x[0] for x in merges], type=pa.int64()),
            "cluster_a": pa.array([x[1] for x in merges], type=pa.int64()),
            "cluster_b": pa.array([x[2] for x in merges], type=pa.int64()),
            "dist_sq": pa.array([x[3] for x in merges], type=pa.int64()),
        }
    )
