"""DSIR-style data selection: hashed n-gram importance resampling
(Xie et al. 2023, arXiv:2302.03169).

Select raw-corpus documents that look like a TARGET domain: learn
bag-of-hashed-ngram distributions for the raw corpus (q) and the
target (p), score every raw document with its importance log-weight
``log w(x) = Σ_f c_f(x) · (log p_f − log q_f)``, and resample the
top-k under deterministic Gumbel perturbation (Gumbel-top-k ==
sampling without replacement ∝ w).

Scale shape (nothing here ever shuffles):

* both distributions are ONE streaming pass of mergeable ``dim``-sized
  integer count partials (the HLL-partial idiom from
  functions/sketches.py) — the driver merge handles n_blocks × dim
  int64 rows, kilobytes at the paper's dim=10k regardless of corpus;
* the log-likelihood-ratio vector broadcasts once via ``ray.put``;
* scoring is a zero-exchange ``map_batches`` gather-sum;
* resampling is per-batch local top-k + a tiny driver merge
  (n_blocks × k rows), the engine-wide top-k idiom.

Determinism contract (both the Ray path and the sequential golden):
distribution counts are exact int64; per-document scores sum
``llr[feats]`` in document feature order (fixed by the shared
tokenizer, independent of batch shape); the Gumbel noise is a pure
function of the doc id (Knuth hash → uniform → −log(−log u)), never a
RNG.  Reference has no counterpart — this module belongs to the
training-data layer, like pipelines/dedup.py.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

import ray
import ray.data

from dots_ocr_ray.functions.hashing import stable_u64
from dots_ocr_ray.util import GOLDEN64, cached_object, round_half_away, sorted_membership

_BIGRAM_B = np.uint64(GOLDEN64)  # odd multiplier, u64 wraparound


def hashed_ngram_features(text: str, dim: int) -> np.ndarray:
    """Hashed unigram+bigram feature ids of one document, in document
    order (unigrams first) — the pure kernel shared by the Ray stages
    and the sequential golden.  One blake2b per WORD; bigrams combine
    word hashes with a numpy multiply-add (the shingles() idiom)."""
    words = (text or "").lower().split()
    if not words:
        return np.empty(0, dtype=np.int64)
    wh = np.fromiter((stable_u64(w) for w in words), dtype=np.uint64, count=len(words))
    uni = wh % np.uint64(dim)
    if len(words) > 1:
        bi = (wh[:-1] * _BIGRAM_B + wh[1:]) % np.uint64(dim)
        return np.concatenate([uni, bi]).astype(np.int64)
    return uni.astype(np.int64)


def ngram_distribution(
    ds: ray.data.Dataset, *, text_col: str = "text", dim: int = 8192
) -> np.ndarray:
    """Exact hashed-ngram count vector of a corpus: per-batch int64
    bincount partials, summed on the driver (n_blocks × dim int64 —
    kilobytes, never corpus-proportional)."""

    def _partial(batch: pa.Table) -> pa.Table:
        counts = np.zeros(dim, dtype=np.int64)
        for t in batch.column(text_col).to_pylist():
            feats = hashed_ngram_features(t, dim)
            if feats.size:
                counts += np.bincount(feats, minlength=dim)
        return pa.table({"counts": pa.array([counts], type=pa.list_(pa.int64()))})

    total = np.zeros(dim, dtype=np.int64)
    for b in ds.map_batches(_partial, batch_format="pyarrow").iter_batches(
        batch_format="pyarrow"
    ):
        for row in b.column("counts").to_pylist():
            total += np.asarray(row, dtype=np.int64)
    return total


def log_likelihood_ratio(
    target_counts: np.ndarray, raw_counts: np.ndarray, *, alpha: float = 1.0
) -> np.ndarray:
    """Laplace-smoothed ``log p_f − log q_f`` (float64)."""
    dim = len(raw_counts)
    p = (target_counts + alpha) / (target_counts.sum() + alpha * dim)
    q = (raw_counts + alpha) / (raw_counts.sum() + alpha * dim)
    return np.log(p) - np.log(q)


def gumbel_keys(ids: np.ndarray) -> np.ndarray:
    """Deterministic per-id Gumbel(0,1) noise: Knuth multiplicative
    hash → uniform (i+0.5)/2^32 → −log(−log u).  Engine-independent
    (no RNG), so Gumbel-top-k resampling is reproducible anywhere."""
    h = (ids.astype(np.int64) * 2654435761) & 0xFFFFFFFF
    u = (h.astype(np.float64) + 0.5) / 4294967296.0
    return -np.log(-np.log(u))


def dsir_scores(
    docs: ray.data.Dataset,
    target: ray.data.Dataset,
    *,
    text_col: str = "text",
    id_col: str = "doc_id",
    dim: int = 8192,
    alpha: float = 1.0,
) -> ray.data.Dataset:
    """Importance log-weight per raw document (id, logw, n_feats);
    ``logw`` is rounded half-away to 6 decimals for cross-engine
    stability.  ``docs`` is consumed twice (distribution + scoring) —
    pass a re-executable dataset."""
    raw_counts = ngram_distribution(docs, text_col=text_col, dim=dim)
    target_counts = ngram_distribution(target, text_col=text_col, dim=dim)
    llr_ref = ray.put(log_likelihood_ratio(target_counts, raw_counts, alpha=alpha))

    def _score(batch: pa.Table) -> pa.Table:
        llr = cached_object(llr_ref)
        logw, nf = [], []
        for t in batch.column(text_col).to_pylist():
            feats = hashed_ngram_features(t, dim)
            logw.append(float(llr[feats].sum()) if feats.size else 0.0)
            nf.append(int(feats.size))
        return pa.table(
            {
                id_col: batch.column(id_col),
                "logw": pa.array(round_half_away(np.asarray(logw), 6), type=pa.float64()),
                "n_feats": pa.array(nf, type=pa.int64()),
            }
        )

    return docs.map_batches(_score, batch_format="pyarrow")


def dsir_resample(
    docs: ray.data.Dataset,
    target: ray.data.Dataset,
    k: int,
    *,
    text_col: str = "text",
    id_col: str = "doc_id",
    dim: int = 8192,
    alpha: float = 1.0,
) -> pa.Table:
    """Gumbel-top-k importance resampling: the k raw docs with the
    largest ``logw + gumbel(id)`` — equivalent to sampling k docs
    without replacement with probability ∝ w.  Per-batch local top-k,
    merged on the driver (n_blocks × k rows).  Returns
    (id_col, logw, key) sorted by key desc, id asc on ties."""
    scored = dsir_scores(
        docs, target, text_col=text_col, id_col=id_col, dim=dim, alpha=alpha
    )

    def _local_topk(batch: pa.Table) -> pa.Table:
        ids = batch.column(id_col).to_numpy(zero_copy_only=False).astype(np.int64)
        logw = batch.column("logw").to_numpy(zero_copy_only=False)
        key = round_half_away(logw + gumbel_keys(ids), 6)
        order = np.lexsort((ids, -key))[:k]
        return pa.table(
            {
                id_col: pa.array(ids[order], type=pa.int64()),
                "logw": pa.array(logw[order], type=pa.float64()),
                "key": pa.array(key[order], type=pa.float64()),
            }
        )

    parts = []
    for b in scored.map_batches(_local_topk, batch_format="pyarrow").iter_batches(
        batch_format="pyarrow"
    ):
        if b.num_rows:
            parts.append(b)
    merged = pa.concat_tables(parts) if parts else _local_topk(pa.table({id_col: pa.array([], pa.int64()), "logw": pa.array([], pa.float64())}))
    ids = merged.column(id_col).to_numpy(zero_copy_only=False)
    key = merged.column("key").to_numpy(zero_copy_only=False)
    order = np.lexsort((ids, -key))[:k]
    return merged.take(pa.array(order, type=pa.int64()))


# ---------------------------------------------------------------------------
# benchmark n-gram decontamination (GPT-3 appendix-C style)


def bench_gram_hashes(
    bench: ray.data.Dataset, *, text_col: str = "text", k: int = 8
) -> np.ndarray:
    """Sorted distinct k-gram hashes of a benchmark corpus: per-batch
    ``np.unique`` partials, merged once on the driver.  Benchmarks are
    small by nature (the whole point of decontamination), so the
    driver holds one u64 per DISTINCT bench gram — megabytes for any
    real eval suite."""
    from dots_ocr_ray.pipelines.substring import (
        _flat_gram_hashes,
        _hash_tokens,
        _tokens_from_batch,
    )

    def _partial(batch: pa.Table) -> pa.Table:
        tok_vals, offsets, _ = _tokens_from_batch(batch.column(text_col))
        _, hashes = _flat_gram_hashes(_hash_tokens(tok_vals), offsets, k)
        return pa.table(
            {"gram": pa.array(np.unique(hashes).view(np.int64), type=pa.int64())}
        )

    parts = [
        b.column("gram").to_numpy(zero_copy_only=False)
        for b in bench.map_batches(_partial, batch_format="pyarrow").iter_batches(
            batch_format="pyarrow"
        )
        if b.num_rows
    ]
    if not parts:
        return np.empty(0, dtype=np.int64)
    return np.unique(np.concatenate(parts))


def ngram_decontaminate(
    docs: ray.data.Dataset,
    bench: ray.data.Dataset,
    *,
    text_col: str = "text",
    id_col: str = "doc_id",
    k: int = 8,
    mode: str = "cut",
    keep_cols: tuple[str, ...] = (),
) -> ray.data.Dataset:
    """Remove benchmark contamination from a training corpus: any
    k-token gram that appears anywhere in ``bench`` marks its covered
    token span (GPT-3's 13-gram rule; ``k`` configurable).  Gram
    identity is the substring_dedup hash contract — equal sequences
    always collide, unequal collide at ~2^-64.

    ``mode="cut"`` removes every covered token and rebuilds the text
    (Lee-et-al-style span surgery → ``(id, text_decon, n_kept,
    n_dropped)``); ``mode="flag"`` only reports ``(id, n_hits,
    contaminated)`` where ``n_hits`` counts matching gram positions.

    Scale shape: ONE broadcast of the sorted bench-gram array
    (``ray.put``, per-worker cached) + one zero-exchange streaming
    pass over the corpus — per batch, a vectorized searchsorted
    membership probe and (cut mode) the difference-array coverage
    cumsum substring_dedup uses.  The corpus text never reships."""
    if mode not in ("cut", "flag"):
        raise ValueError(f"unknown mode: {mode}")
    from dots_ocr_ray.pipelines.substring import (
        _covered_mask,
        _flat_gram_hashes,
        _hash_tokens,
        _rebuild,
        _tokens_from_batch,
    )

    grams_ref = ray.put(bench_gram_hashes(bench, text_col=text_col, k=k))

    def _apply(batch: pa.Table) -> pa.Table:
        bg = cached_object(grams_ref)
        tok_vals, offsets, doc_of = _tokens_from_batch(batch.column(text_col))
        starts, hashes = _flat_gram_hashes(_hash_tokens(tok_vals), offsets, k)
        if bg.size and hashes.size:
            hit = sorted_membership(bg, hashes.view(np.int64))
        else:
            hit = np.zeros(hashes.size, dtype=bool)
        ids = batch.column(id_col)
        if mode == "flag":
            n_rows = batch.num_rows
            gram_doc = (
                np.searchsorted(offsets, starts, side="right") - 1
                if starts.size
                else np.zeros(0, dtype=np.int64)
            )
            hits_per_doc = np.bincount(
                gram_doc[hit], minlength=n_rows
            ).astype(np.int64) if starts.size else np.zeros(n_rows, np.int64)
            return pa.table(
                {
                    id_col: ids.cast(pa.int64()),
                    "n_hits": pa.array(hits_per_doc, type=pa.int64()),
                    "contaminated": pa.array(hits_per_doc > 0, type=pa.bool_()),
                }
            )
        covered = _covered_mask(starts[hit], len(doc_of), k)
        out = _rebuild(ids, tok_vals, offsets, doc_of, covered, id_col)
        out = out.rename_columns([id_col, "text_decon", "n_kept", "n_dropped"])
        for c in keep_cols:  # batch-local pass, row order preserved
            out = out.append_column(c, batch.column(c))
        return out

    return docs.map_batches(_apply, batch_format="pyarrow")


# --- preference-pair construction -----------------------------------------

def alpha_score_micro(texts: pa.ChunkedArray | pa.Array) -> np.ndarray:
    """Integer-exact quality proxy: floor(1e6 * alpha_chars / chars)
    per text (0 for empty).  Pure Arrow kernels (count_substring_regex
    + utf8_length) shared by the Ray fold and mirrored literally by
    the SQL oracle's regexp_replace/length arithmetic."""
    import pyarrow.compute as pc

    n_alpha = pc.count_substring_regex(texts, "[A-Za-z]").to_numpy(
        zero_copy_only=False
    ).astype(np.int64)
    n_chars = pc.utf8_length(texts).to_numpy(zero_copy_only=False).astype(np.int64)
    out = np.zeros(len(n_chars), dtype=np.int64)
    nz = n_chars > 0
    out[nz] = (1_000_000 * n_alpha[nz]) // n_chars[nz]
    return out


def _pref_fold(keys: np.ndarray, score: np.ndarray, ids: np.ndarray):
    """(key -> n, best_score/best_id, worst_score/worst_id) with the
    deterministic tie rules: chosen = max score then MIN id; rejected
    = min score then MAX id.  Vectorized run-start selection over two
    lexsorts; mergeable (fold of folds = fold)."""
    order = np.lexsort((ids, -score, keys))
    k_s, s_s, i_s = keys[order], score[order], ids[order]
    starts = np.concatenate([[0], np.nonzero(np.diff(k_s))[0] + 1])
    uniq = k_s[starts]
    n = np.diff(np.concatenate([starts, [len(k_s)]]))
    best_s, best_i = s_s[starts], i_s[starts]
    order2 = np.lexsort((-ids, score, keys))
    s2, i2 = score[order2], ids[order2]
    starts2 = np.concatenate([[0], np.nonzero(np.diff(keys[order2]))[0] + 1])
    worst_s, worst_i = s2[starts2], i2[starts2]
    return uniq, n, best_s, best_i, worst_s, worst_i


def preference_pairs(
    docs: "ray.data.Dataset",
    *,
    group_cols: tuple[str, str] = ("lang", "source"),
    id_col: str = "doc_id",
    text_col: str = "text",
) -> pa.Table:
    """RLHF-style preference-pair construction: within every
    (lang, source) group, pair the highest-quality document (chosen)
    with the lowest-quality one (rejected) under the integer alpha
    score; groups with fewer than 2 docs emit nothing.

    Scale shape: per-batch vectorized fold to ONE row per group per
    batch (group cardinality is bounded — langs × sources), tiny
    driver merge; zero exchange.  Output: (lang, source, chosen_id,
    rejected_id, margin_micro)."""
    ga, gb = group_cols

    def _partials(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return pa.table(
                {
                    ga: pa.array([], type=pa.string()),
                    gb: pa.array([], type=pa.string()),
                    "n": pa.array([], type=pa.int64()),
                    "best_s": pa.array([], type=pa.int64()),
                    "best_i": pa.array([], type=pa.int64()),
                    "worst_s": pa.array([], type=pa.int64()),
                    "worst_i": pa.array([], type=pa.int64()),
                }
            )
        a = batch.column(ga).to_pylist()
        b = batch.column(gb).to_pylist()
        combo = np.array([f"{x}\x1f{y}" for x, y in zip(a, b)])
        uniq_c, codes = np.unique(combo, return_inverse=True)
        score = alpha_score_micro(batch.column(text_col))
        ids = batch.column(id_col).to_numpy(zero_copy_only=False).astype(np.int64)
        uniq, n, bs, bi, ws, wi = _pref_fold(codes.astype(np.int64), score, ids)
        la, sb = zip(*(uniq_c[u].split("\x1f", 1) for u in uniq))
        return pa.table(
            {
                ga: pa.array(list(la), type=pa.string()),
                gb: pa.array(list(sb), type=pa.string()),
                "n": pa.array(n, type=pa.int64()),
                "best_s": pa.array(bs, type=pa.int64()),
                "best_i": pa.array(bi, type=pa.int64()),
                "worst_s": pa.array(ws, type=pa.int64()),
                "worst_i": pa.array(wi, type=pa.int64()),
            }
        )

    parts = docs.map_batches(_partials, batch_format="pyarrow")
    rows: list[dict] = []
    for t in parts.iter_batches(batch_format="pyarrow"):
        rows.extend(t.to_pylist())
    if not rows:
        return pa.table(
            {
                ga: pa.array([], type=pa.string()),
                gb: pa.array([], type=pa.string()),
                "chosen_id": pa.array([], type=pa.int64()),
                "rejected_id": pa.array([], type=pa.int64()),
                "margin_micro": pa.array([], type=pa.int64()),
            }
        )
    # driver merge of the bounded partial table with the same tie rules
    merged: dict[tuple[str, str], list] = {}
    for r in rows:
        key = (r[ga], r[gb])
        m = merged.get(key)
        if m is None:
            merged[key] = [
                r["n"], r["best_s"], r["best_i"], r["worst_s"], r["worst_i"]
            ]
            continue
        m[0] += r["n"]
        if (r["best_s"], -r["best_i"]) > (m[1], -m[2]):
            m[1], m[2] = r["best_s"], r["best_i"]
        if (r["worst_s"], -r["worst_i"]) < (m[3], -m[4]):
            m[3], m[4] = r["worst_s"], r["worst_i"]
    out = {ga: [], gb: [], "chosen_id": [], "rejected_id": [], "margin_micro": []}
    for (x, y) in sorted(merged):
        n, bs, bi, ws, wi = merged[(x, y)]
        if n < 2:
            continue
        out[ga].append(x)
        out[gb].append(y)
        out["chosen_id"].append(bi)
        out["rejected_id"].append(wi)
        out["margin_micro"].append(bs - ws)
    return pa.table(
        {
            ga: pa.array(out[ga], type=pa.string()),
            gb: pa.array(out[gb], type=pa.string()),
            "chosen_id": pa.array(out["chosen_id"], type=pa.int64()),
            "rejected_id": pa.array(out["rejected_id"], type=pa.int64()),
            "margin_micro": pa.array(out["margin_micro"], type=pa.int64()),
        }
    )


# --- greedy max-coverage selection ------------------------------------------

def doc_token_hashes(text: str) -> np.ndarray:
    """Sorted distinct u64 WORD-BIGRAM hashes of a document (stable
    blake2b over "w1 w2") — the set representation the coverage
    selector counts over; bigrams give a vocabulary rich enough that
    no single page saturates it (unigrams on a web corpus are
    dominated by a tiny head).  Pure kernel shared with the golden."""
    words = (text or "").split()
    if len(words) < 2:
        return np.zeros(0, dtype=np.uint64)
    return np.unique(
        np.array(
            [stable_u64(f"{a} {b}") for a, b in zip(words, words[1:])],
            dtype=np.uint64,
        )
    )


def max_coverage_select(
    docs: "ray.data.Dataset",
    *,
    id_col: str = "doc_id",
    text_col: str = "text",
    k: int = 8,
) -> pa.Table:
    """Greedy maximum-coverage document selection (the classic
    (1−1/e)-approximate submodular greedy): pick ``k`` documents that
    together cover the most distinct vocabulary — the eval-set /
    lexicon-seed construction that diversity sampling by embeddings
    cannot guarantee.

    Scale shape: ``k`` stateless streamed passes; each round
    broadcasts the covered-token array (bounded by the UNION OF
    SELECTED DOCS' vocab — O(k · doc vocab), never the corpus vocab),
    every batch folds to one (max uncovered count, tie → min id,
    winning token set) partial row, tiny driver merge.  No per-doc
    state between rounds; floats never appear.

    Output: (rank, doc_id, new_tokens, covered_total)."""
    from dots_ocr_ray.util import cached_object

    narrow = docs.select_columns([id_col, text_col]).materialize()
    covered = np.zeros(0, dtype=np.uint64)
    out_rank: list[int] = []
    out_id: list[int] = []
    out_new: list[int] = []
    out_total: list[int] = []

    for rank in range(k):
        covered_ref = ray.put(covered)

        def _partial(batch: pa.Table) -> pa.Table:
            cov = cached_object(covered_ref)
            ids = batch.column(id_col).to_numpy(zero_copy_only=False).astype(np.int64)
            best = None  # (gain, -id, hashes)
            for j in range(len(ids)):
                h = doc_token_hashes(batch.column(text_col)[j].as_py())
                if len(cov):
                    idx = np.searchsorted(cov, h)
                    np.minimum(idx, len(cov) - 1, out=idx) if len(idx) else None
                    gain = int((cov[idx] != h).sum()) if len(h) else 0
                else:
                    gain = len(h)
                key = (gain, -int(ids[j]))
                if best is None or key > best[0]:
                    best = (key, h)
            if best is None:
                return pa.table(
                    {
                        id_col: pa.array([], type=pa.int64()),
                        "gain": pa.array([], type=pa.int64()),
                        "toks": pa.array([], type=pa.list_(pa.uint64())),
                    }
                )
            (gain, neg_id), h = best
            return pa.table(
                {
                    id_col: pa.array([-neg_id], type=pa.int64()),
                    "gain": pa.array([gain], type=pa.int64()),
                    "toks": pa.array([h.tolist()], type=pa.list_(pa.uint64())),
                }
            )

        best = None
        for b in narrow.map_batches(_partial, batch_format="pyarrow").iter_batches(
            batch_format="pyarrow"
        ):
            for r in range(b.num_rows):
                g = int(b.column("gain")[r].as_py())
                i = int(b.column(id_col)[r].as_py())
                if best is None or (g, -i) > (best[0], -best[1]):
                    best = (g, i, np.array(b.column("toks")[r].as_py(), dtype=np.uint64))
        if best is None:
            break
        covered = np.union1d(covered, best[2])
        out_rank.append(rank)
        out_id.append(best[1])
        out_new.append(best[0])
        out_total.append(len(covered))

    return pa.table(
        {
            "rank": pa.array(out_rank, type=pa.int64()),
            id_col: pa.array(out_id, type=pa.int64()),
            "new_tokens": pa.array(out_new, type=pa.int64()),
            "covered_total": pa.array(out_total, type=pa.int64()),
        }
    )
