"""Trained logistic-regression quality/label classifier.

`text_analysis.quality_model_scores` is the PRETRAINED-weights shape
(CCNet/RedPajama's fasttext scorer); this module is the missing other
half — TRAINING the linear model on the corpus itself, distributed:

    featurize — ONE pass builds the narrow (id, x0..x3, y) feature
                table (Arrow kernels, zero exchange) and materializes
                it: every gradient pass then reads 48-byte rows, not
                documents
    train     — full-batch NEWTON / IRLS, fixed iteration count
                (second-order handles the ill-conditioned uncentered
                feature scales that stall first-order GD; 8 rounds
                reach the ridge optimum).  Per iteration the ONLY
                thing that moves is one (d + d² + 1)-int64 row per
                block: each ROW's gradient and Hessian contributions
                are quantized to int64 micro-units (half-away
                rounding) and summed — integer addition is
                associative, so the totals are EXACTLY layout- and
                order-insensitive and a sequential mirror over the
                same rows reproduces them bit-for-bit (the same
                int64-quantization trick perplexity_buckets uses for
                cross-engine rank exactness).  The driver folds block
                sums in arbitrary-precision Python int (no int64
                overflow at any corpus size), solves the tiny d×d
                ridge system, and re-broadcasts the d-float weight
                vector.
    score     — zero exchange: final weights broadcast once, one numpy
                expression per batch.

The per-row margin x·w is rounded to 9 dp before the sigmoid so BLAS
row-gather order can never flip a quantized gradient unit between the
batched and sequential paths (d is tiny; this is belt-and-braces).

Reference analog: none — the reference ships fixed model weights
(dots_ocr/model/inference.py); a training-data engine must also fit
its curation scorers.  Algorithm is textbook logistic regression
(public knowledge).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray
import ray.data

from dots_ocr_ray.util import round_half_away

# int64 micro-units per gradient/Hessian unit.  Per-row |contribution|
# ≤ max|x_i·x_j| (~21² ≈ 440) → ≤ 440·2^32 ≈ 2^40.8 per row; a
# 2^20-row slice sums to < 2^61 (int64-safe); cross-slice/block folding
# is Python int (exact at any scale).
_GRAD_SCALE = float(1 << 32)


def logreg_features(col: pa.ChunkedArray | pa.Array) -> np.ndarray:
    """(n, 4) float64 design matrix [1, ln1p(n_words), alpha_ratio,
    ln1p(n_chars)] — the same cheap signals quality_model_scores uses,
    via the same Arrow kernels.  Shared by the Ray stage and the
    sequential golden mirror."""
    from dots_ocr_ray.util import ws_token_counts_checked

    if not pa.types.is_string(col.type) and not pa.types.is_large_string(col.type):
        col = col.cast(pa.string())
    col = pc.fill_null(col, "")
    n_words = ws_token_counts_checked(col)
    n_chars = pc.utf8_length(col).to_numpy(zero_copy_only=False).astype(np.int64)
    n_alpha = (
        pc.utf8_length(pc.replace_substring_regex(col, "[^A-Za-z]", ""))
        .to_numpy(zero_copy_only=False)
        .astype(np.int64)
    )
    ar = np.where(n_chars > 0, n_alpha / np.maximum(n_chars, 1), 0.0)
    return np.column_stack(
        [
            np.ones(len(n_chars), dtype=np.float64),
            np.log1p(np.asarray(n_words, dtype=np.float64)),
            ar,
            np.log1p(n_chars.astype(np.float64)),
        ]
    )


def quality_label(
    col: pa.ChunkedArray | pa.Array,
    *,
    min_words: int = 50,
    min_alpha: float = 0.81,
    max_mwl: float = 15.0,
) -> np.ndarray:
    """Vectorized quality keep-rule (the kernel.textops.quality_keep
    shape — word count / alpha ratio / mean word length thresholds)
    as a float64 {0,1} label vector — the distillation target the
    trained model imitates (heuristic-labels → compact-model is the
    standard fasttext curation workflow).  Default thresholds are
    calibrated to BITE on the synthetic corpus (~50/50 split; the
    kernel's C4 defaults pass every fixture doc, which would train on
    a degenerate all-positive label).  The conjunction of half-planes
    is NOT linearly separable, so the learned model is a genuine
    approximation, not a re-encoding.  Shared by the Ray stage and the
    sequential golden mirror."""
    from dots_ocr_ray.util import ws_token_counts_checked

    if not pa.types.is_string(col.type) and not pa.types.is_large_string(col.type):
        col = col.cast(pa.string())
    col = pc.fill_null(col, "")
    n_words = np.asarray(ws_token_counts_checked(col), dtype=np.int64)
    n_chars = pc.utf8_length(col).to_numpy(zero_copy_only=False).astype(np.int64)
    n_alpha = (
        pc.utf8_length(pc.replace_substring_regex(col, "[^A-Za-z]", ""))
        .to_numpy(zero_copy_only=False)
        .astype(np.int64)
    )
    n_nonws = (
        pc.utf8_length(pc.replace_substring_regex(col, r"\s", ""))
        .to_numpy(zero_copy_only=False)
        .astype(np.int64)
    )
    mwl = np.where(n_words > 0, n_nonws / np.maximum(n_words, 1), 0.0)
    ar = np.where(n_chars > 0, n_alpha / np.maximum(n_chars, 1), 0.0)
    keep = (n_words >= min_words) & (mwl <= max_mwl) & (ar >= min_alpha)
    return keep.astype(np.float64)


def _int64_colsum(q: np.ndarray) -> list[int]:
    """Exact column sums of an int64 matrix: fold ≤2^20-row slice sums
    (each < 2^61 given per-row |q| ≤ ~2^41) through Python ints."""
    total = [0] * q.shape[1]
    for i in range(0, len(q), 1 << 20):
        s = q[i : i + (1 << 20)].sum(axis=0, dtype=np.int64)
        for j in range(len(total)):
            total[j] += int(s[j])
    return total


def _quantize(M: np.ndarray) -> np.ndarray:
    return (np.sign(M) * np.floor(np.abs(M) * _GRAD_SCALE + 0.5)).astype(np.int64)


def _quantized_newton_row(
    X: np.ndarray, y: np.ndarray, w: np.ndarray
) -> tuple[list[int], list[int], int]:
    """One block's exact int64 Newton partials: per-ROW gradient
    contributions (p − y)·x and Hessian contributions p(1−p)·x·xᵀ,
    each quantized half-away to _GRAD_SCALE units, then summed.
    Returns (d ints, d² ints row-major, n_rows).  Pure — shared by the
    Ray stage and the sequential mirror (which calls it on the full
    matrix; the integer totals are identical either way)."""
    d = X.shape[1]
    z = np.round(X @ w, 9)
    p = 1.0 / (1.0 + np.exp(-z))
    G = X * (p - y)[:, None]
    R = p * (1.0 - p)
    H_rows = (X[:, :, None] * X[:, None, :]) * R[:, None, None]
    return (
        _int64_colsum(_quantize(G)),
        _int64_colsum(_quantize(H_rows.reshape(len(X), d * d))),
        len(X),
    )


def logreg_update(
    w: np.ndarray, gsum: list[int], hsum: list[int], n: int, *, l2: float
) -> np.ndarray:
    """Driver-side Newton step from the exact integer sums —
    deterministic float math given identical integers: solve
    (H/n + l2·I) Δ = g/n + l2·w."""
    if n == 0:
        return w
    d = len(w)
    grad = np.array([g / _GRAD_SCALE for g in gsum], dtype=np.float64) / n + l2 * w
    H = (
        np.array([h / _GRAD_SCALE for h in hsum], dtype=np.float64).reshape(d, d) / n
        + l2 * np.eye(d)
    )
    return w - np.linalg.solve(H, grad)


def train_logreg(
    feats: ray.data.Dataset,
    *,
    iters: int = 8,
    l2: float = 1e-3,
) -> np.ndarray:
    """Full-corpus ridge logistic regression (Newton/IRLS) over a
    materialized feature dataset with columns x0..x3 (float64) and y
    (float64 in {0,1}).  Each iteration ships ONE (d + d² + 1)-int64
    row per block."""
    d = 4

    def _newton_partial(w_ref):
        def _g(batch: pa.Table) -> pa.Table:
            from dots_ocr_ray.util import cached_object

            w = cached_object(w_ref)
            X = np.column_stack(
                [
                    batch.column(f"x{j}").to_numpy(zero_copy_only=False)
                    for j in range(d)
                ]
            )
            y = batch.column("y").to_numpy(zero_copy_only=False).astype(np.float64)
            gsum, hsum, n = _quantized_newton_row(X, y, w)
            return pa.table(
                {
                    **{f"g{j}": pa.array([gsum[j]], type=pa.int64()) for j in range(d)},
                    **{
                        f"h{j}": pa.array([hsum[j]], type=pa.int64())
                        for j in range(d * d)
                    },
                    "n": pa.array([n], type=pa.int64()),
                }
            )

        return _g

    w = np.zeros(d, dtype=np.float64)
    for _ in range(iters):
        w_ref = ray.put(w)
        parts = feats.map_batches(
            _newton_partial(w_ref), batch_format="pyarrow"
        ).take_all()
        gsum = [sum(int(r[f"g{j}"]) for r in parts) for j in range(d)]
        hsum = [sum(int(r[f"h{j}"]) for r in parts) for j in range(d * d)]
        n = sum(int(r["n"]) for r in parts)
        w = logreg_update(w, gsum, hsum, n, l2=l2)
    return w


def featurize_labeled(
    ds: ray.data.Dataset,
    *,
    text_col: str = "text",
    id_col: str = "doc_id",
    label_expr=None,
) -> ray.data.Dataset:
    """One documents pass → materialized narrow feature table
    (id, x0..x3, y).  ``label_expr(batch) -> float64 {0,1}`` defaults
    to the heuristic quality keep-rule (:func:`quality_label`)."""

    def _default_label(batch: pa.Table) -> np.ndarray:
        return quality_label(batch.column(text_col))

    label_fn = label_expr or _default_label

    def _feat(batch: pa.Table) -> pa.Table:
        X = logreg_features(batch.column(text_col))
        y = label_fn(batch)
        return pa.table(
            {
                id_col: batch.column(id_col).cast(pa.int64()),
                **{
                    f"x{j}": pa.array(X[:, j], type=pa.float64())
                    for j in range(X.shape[1])
                },
                "y": pa.array(y, type=pa.float64()),
            }
        )

    return ds.map_batches(_feat, batch_format="pyarrow").materialize()


def classifier_eval(scored: ray.data.Dataset) -> pa.Table:
    """Exact evaluation of a scored corpus — ONE row: (n, n_pos,
    accuracy, precision, recall, auc), each @6dp.

    AUC is the tie-aware Mann-Whitney statistic computed EXACTLY from
    per-score-value (n_pos, n_neg) counts: scores are 6-dp values in
    [0, 1], so the count table is bounded at 1,000,001 rows REGARDLESS
    of corpus size — per-batch np.unique partials are the only
    exchange, and the driver merge + rank-sum is O(distinct scores).
    Confusion counts ride the same partials."""

    def _partial(batch: pa.Table) -> pa.Table:
        s = batch.column("score").to_numpy(zero_copy_only=False)
        micro = np.floor(s * 1e6 + 0.5).astype(np.int64)
        lab = batch.column("label").to_numpy(zero_copy_only=False).astype(bool)
        pred = batch.column("pred").to_numpy(zero_copy_only=False).astype(bool)
        key = micro * 2 + lab  # (score, label) composite
        u, c = np.unique(key, return_counts=True)
        out = pa.table(
            {
                "k": pa.array(u, type=pa.int64()),
                "c": pa.array(c, type=pa.int64()),
            }
        )
        conf = pa.table(
            {
                "k": pa.array([-1, -2, -3, -4], type=pa.int64()),  # tp fp fn tn
                "c": pa.array(
                    [
                        int(np.sum(pred & lab)),
                        int(np.sum(pred & ~lab)),
                        int(np.sum(~pred & lab)),
                        int(np.sum(~pred & ~lab)),
                    ],
                    type=pa.int64(),
                ),
            }
        )
        return pa.concat_tables([out, conf])

    from dots_ocr_ray.util import bucket_keyed_fold

    merged = bucket_keyed_fold(scored.map_batches(_partial, batch_format="pyarrow"), "k", {"c": ("sum", "c")})
    rows = merged.take_all()
    k = np.array([r["k"] for r in rows], dtype=np.int64)
    c = np.array([r["c"] for r in rows], dtype=np.int64)
    conf = {int(kk): int(cc) for kk, cc in zip(k[k < 0], c[k < 0])}
    tp, fp, fn, tn = (conf.get(i, 0) for i in (-1, -2, -3, -4))
    sk, sc = k[k >= 0], c[k >= 0]
    micro = sk >> 1
    is_pos = (sk & 1).astype(bool)
    order = np.argsort(micro, kind="stable")
    micro, is_pos, sc = micro[order], is_pos[order], sc[order]
    # collapse to per-score (n_pos, n_neg)
    uniq, inv = np.unique(micro, return_inverse=True)
    p_g = np.zeros(len(uniq), dtype=np.int64)
    n_g = np.zeros(len(uniq), dtype=np.int64)
    np.add.at(p_g, inv[is_pos], sc[is_pos])
    np.add.at(n_g, inv[~is_pos], sc[~is_pos])
    c_g = p_g + n_g
    start = np.concatenate([[0], np.cumsum(c_g)[:-1]]).astype(np.float64)
    avg_rank = start + (c_g + 1) / 2.0
    n_pos, n_neg = int(p_g.sum()), int(n_g.sum())
    if n_pos and n_neg:
        r_pos = float(np.sum(p_g * avg_rank))
        auc = (r_pos - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)
    else:
        auc = 0.0
    n = n_pos + n_neg
    acc = (tp + tn) / n if n else 0.0
    prec = tp / (tp + fp) if (tp + fp) else 0.0
    rec = tp / (tp + fn) if (tp + fn) else 0.0
    return pa.table(
        {
            "n": pa.array([n], type=pa.int64()),
            "n_pos": pa.array([n_pos], type=pa.int64()),
            "accuracy": pa.array([float(round_half_away(acc, 6))], type=pa.float64()),
            "precision": pa.array([float(round_half_away(prec, 6))], type=pa.float64()),
            "recall": pa.array([float(round_half_away(rec, 6))], type=pa.float64()),
            "auc": pa.array([float(round_half_away(auc, 6))], type=pa.float64()),
        }
    )


def logreg_score(
    feats: ray.data.Dataset,
    w: np.ndarray,
    *,
    id_col: str = "doc_id",
) -> ray.data.Dataset:
    """Zero-exchange scoring: (id, score float64@6dp, pred bool, y
    bool) per row under the trained weights."""
    w_ref = ray.put(np.asarray(w, dtype=np.float64))

    def _score(batch: pa.Table) -> pa.Table:
        from dots_ocr_ray.util import cached_object

        ww = cached_object(w_ref)
        X = np.column_stack(
            [batch.column(f"x{j}").to_numpy(zero_copy_only=False) for j in range(len(ww))]
        )
        z = np.round(X @ ww, 9)
        score = round_half_away(1.0 / (1.0 + np.exp(-z)), 6)
        y = batch.column("y").to_numpy(zero_copy_only=False)
        return pa.table(
            {
                id_col: batch.column(id_col),
                "score": pa.array(score, type=pa.float64()),
                "pred": pa.array(score >= 0.5, type=pa.bool_()),
                "label": pa.array(y >= 0.5, type=pa.bool_()),
            }
        )

    return feats.map_batches(_score, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# multinomial Naive Bayes (count-based, integer-exact scoring)

_NB_MICRO = 1_000_000


def nb_train(
    train: ray.data.Dataset,
    *,
    text_col: str = "text",
    label_col: str = "lang",
    vocab_size: int = 64,
) -> dict:
    """Multinomial Naive Bayes trainer over whitespace tokens →
    broadcastable model dict — the classic count-based text
    classifier (language ID, spam/quality gating) whose training IS
    aggregation, so it distributes exactly.

    Features are the exact top-``vocab_size`` train-corpus tokens
    (count desc, token asc — the :func:`~dots_ocr_ray.pipelines.
    text_analysis.build_vocab` rule); out-of-vocab tokens are ignored
    at train AND score time.  Add-one smoothing over the vocab.

    Integer-exact contract: per-(token, label) log-probs and label
    priors are quantized to int64 MICRO-UNITS (``floor(ln(p)·1e6)``),
    so downstream scores are integer sums — argmax is bit-identical
    across engines and association orders (the bigram-LM /
    classifier-eval precedent).

    Exchanges: one vocab fold + one (token, label) count fold (both
    bounded by vocab × labels, never the corpus) + one tiny
    label-prior count."""
    from dots_ocr_ray.pipelines.text_analysis import build_vocab
    from dots_ocr_ray.util import bucket_keyed_fold, split_whitespace_checked

    vocab_tbl = build_vocab(train, text_col=text_col, vocab_size=vocab_size)
    vocab = sorted(vocab_tbl.column("token").to_pylist())
    v = len(vocab)
    if v == 0:
        raise ValueError("nb_train: empty training vocabulary")
    value_set = pa.array(vocab, type=pa.string())

    def _counts(batch: pa.Table) -> pa.Table:
        toks = split_whitespace_checked(batch.column(text_col))
        flat = pc.list_flatten(toks)
        parent = pc.list_parent_indices(toks)
        idx = pc.index_in(flat, value_set)
        keep = pc.is_valid(idx)
        labs = batch.column(label_col).take(parent.filter(keep))
        return pa.table({"label": labs, "ti": idx.filter(keep).cast(pa.int64())})

    counts = bucket_keyed_fold(train.map_batches(_counts, batch_format="pyarrow"), ["label", "ti"], {"c": ("count", None)})
    labels_set: set[str] = set()
    rows: list[tuple[str, int, int]] = []
    for b in counts.iter_batches(batch_format="pyarrow"):
        for r in range(b.num_rows):
            lab = b.column("label")[r].as_py()
            labels_set.add(lab)
            rows.append(
                (lab, int(b.column("ti")[r].as_py()), int(b.column("c")[r].as_py()))
            )

    prior_counts: dict[str, int] = {}
    for b in bucket_keyed_fold(train, label_col, {"n": ("count", None)}).iter_batches(batch_format="pyarrow"):
        for r in range(b.num_rows):
            lab = b.column(label_col)[r].as_py()
            prior_counts[lab] = int(b.column("n")[r].as_py())
            labels_set.add(lab)

    labels = sorted(labels_set)
    li = {l: i for i, l in enumerate(labels)}
    cnt = np.zeros((v, len(labels)), dtype=np.int64)
    for lab, ti, c in rows:
        cnt[ti, li[lab]] = c
    tot = cnt.sum(axis=0)
    n_train = sum(prior_counts.values())
    logp = np.floor(
        np.log((cnt + 1.0) / (tot + v)[None, :]) * _NB_MICRO
    ).astype(np.int64)
    prior = np.floor(
        np.log(
            np.array([prior_counts.get(l, 0) for l in labels], dtype=np.float64)
            / n_train
        )
        * _NB_MICRO
    ).astype(np.int64)
    return {"vocab": vocab, "labels": labels, "logp": logp, "prior": prior}


def nb_predict(
    ds: ray.data.Dataset,
    model: dict,
    *,
    text_col: str = "text",
    id_col: str = "doc_id",
) -> ray.data.Dataset:
    """Zero-exchange NB scoring → ``(doc_id, pred_label,
    score_micro)``: the model broadcasts once; each batch builds its
    docs × V term-frequency matrix (one ``index_in`` probe) and one
    integer matmul against the V × L micro-log-prob matrix scores
    every (doc, label) pair; argmax ties break to the
    lexicographically smallest label."""
    from dots_ocr_ray.util import split_whitespace_checked

    model_ref = ray.put(
        (model["vocab"], model["labels"], model["logp"], model["prior"])
    )

    def _score(batch: pa.Table, _ref=model_ref) -> pa.Table:
        from dots_ocr_ray.util import cached_object

        vocab, labels, logp, prior = cached_object(_ref)
        value_set = pa.array(vocab, type=pa.string())
        v = len(vocab)
        toks = split_whitespace_checked(batch.column(text_col))
        flat = pc.list_flatten(toks)
        parent = pc.list_parent_indices(toks)
        idx = pc.index_in(flat, value_set)
        keep = pc.is_valid(idx)
        rows_np = parent.filter(keep).to_numpy(zero_copy_only=False).astype(np.int64)
        cols_np = idx.filter(keep).to_numpy(zero_copy_only=False).astype(np.int64)
        tf = np.zeros((batch.num_rows, v), dtype=np.int64)
        np.add.at(tf, (rows_np, cols_np), 1)
        scores = tf @ logp + prior[None, :]
        best = np.argmax(scores, axis=1)  # first max = smallest label (sorted)
        return pa.table(
            {
                id_col: batch.column(id_col).cast(pa.int64()),
                "pred_label": pa.array(
                    [labels[i] for i in best], type=pa.string()
                ),
                "score_micro": pa.array(
                    scores[np.arange(len(best)), best], type=pa.int64()
                ),
            }
        )

    return ds.map_batches(_score, batch_format="pyarrow", batch_size=4096)
