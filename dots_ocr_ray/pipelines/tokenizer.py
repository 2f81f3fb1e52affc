"""BPE tokenizer training + distributed application.

The shape every real training-data pipeline uses (and the only shape
that works at 10^12 docs): the merge table is TRAINED on a bounded
deterministic sample on the driver (BPE training is inherently
sequential — each merge depends on the last — so distributing it buys
nothing; bounding the sample buys everything), then APPLIED corpus-wide
as a zero-exchange broadcast stage:

    sample     — bottom-k by Knuth hash of doc_id (order-insensitive,
                 engine-independent; same sketch train_kmeans uses),
                 per-batch partial bottom-k → tiny driver merge
    train      — kernel/bpe.py:bpe_train over the sample's word-
                 frequency table (driver; bounded by the sample)
    apply      — merges broadcast once via ray.put; per batch the
                 DISTINCT words are encoded (np.unique + per-worker
                 memo — Zipf makes distinct << total), counts/pieces
                 map back to rows vectorized

Reference analog: the reference loads a fixed pretrained tokenizer
with its model weights (dots_ocr/model/inference.py); an engine that
PRODUCES training data must also produce the tokenizer artifact.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray
import ray.data

from dots_ocr_ray.kernel.bpe import bpe_encode_word, bpe_train, word_counts_from_texts
from dots_ocr_ray.util import cached_object, split_whitespace_checked


def bottomk_sample_table(
    ds: ray.data.Dataset,
    *,
    id_col: str,
    cols: tuple[str, ...],
    k: int,
) -> pa.Table:
    """Deterministic uniform sample: the ``k`` rows with the smallest
    (knuth_hash32(id), id) key, insensitive to block layout and input
    order.

    Scale shape (the payload columns never ride the selection): per
    batch a 16-byte (id, h) bottom-k partial → one repartition(1)
    reduce of those ≤ k × n_batches tiny rows picks the global winner
    ids (the driver sees exactly k of them) → ONE broadcast-filter pass
    gathers the k payload rows.  Two passes over the input, but the
    driver and the exchange carry ids, not documents."""
    from dots_ocr_ray.pipelines.similarity import knuth_hash32

    want = list(cols)
    if id_col not in want:
        want = [id_col, *want]

    def _hid_bottomk(batch: pa.Table) -> pa.Table:
        ids_col = batch.column(id_col) if id_col in batch.column_names else batch.column(0)
        ids = ids_col.to_numpy(zero_copy_only=False).astype(np.int64)
        h = (
            batch.column("_h").to_numpy(zero_copy_only=False).astype(np.int64)
            if "_h" in batch.column_names
            else knuth_hash32(ids)
        )
        # tie-break equal hashes by id WITHIN the batch too, so the
        # partial bottom-k is a superset of the global (h, id) bottom-k
        # even under 32-bit hash collisions at the cut boundary
        take = np.lexsort((ids, h))[:k]
        return pa.table(
            {
                id_col: pa.array(ids[take], type=pa.int64()),
                "_h": pa.array(h[take], type=pa.int64()),
            }
        )

    winner_rows = (
        ds.select_columns([id_col])
        .map_batches(_hid_bottomk, batch_format="pyarrow")
        .repartition(1)
        .map_batches(_hid_bottomk, batch_format="pyarrow")
        .take_all()
    )
    if not winner_rows:
        sch = pa.schema(
            [(c, pa.int64() if c == id_col else pa.string()) for c in want]
        )
        return sch.empty_table()
    order = np.lexsort(
        (
            np.array([r[id_col] for r in winner_rows], dtype=np.int64),
            np.array([r["_h"] for r in winner_rows], dtype=np.int64),
        )
    )[:k]
    winner_ids = np.array([winner_rows[i][id_col] for i in order], dtype=np.int64)
    winner_sorted = np.sort(winner_ids)

    def _gather(batch: pa.Table) -> pa.Table:
        ids = batch.column(id_col).to_numpy(zero_copy_only=False).astype(np.int64)
        keep = np.isin(ids, winner_sorted, assume_unique=False)
        return batch.select(want).filter(pa.array(keep))

    sample = pa.Table.from_pylist(
        ds.map_batches(_gather, batch_format="pyarrow").take_all()
    )
    if sample.num_rows == 0:
        sch = pa.schema(
            [(c, pa.int64() if c == id_col else pa.string()) for c in want]
        )
        return sch.empty_table()
    sample = sample.select(want)
    sids = sample.column(id_col).to_numpy(zero_copy_only=False).astype(np.int64)
    pos = {int(i): p for p, i in enumerate(winner_ids)}
    return sample.take(
        pa.array(np.argsort([pos[int(i)] for i in sids], kind="stable"))
    )


def train_bpe(
    ds: ray.data.Dataset,
    *,
    text_col: str = "text",
    id_col: str = "doc_id",
    num_merges: int = 160,
    sample_docs: int = 256,
) -> pa.Table:
    """Train a BPE merge table on a deterministic corpus sample.
    Returns (rank:int64 starting at 0, left:string, right:string)."""
    sample = bottomk_sample_table(ds, id_col=id_col, cols=(text_col,), k=sample_docs)
    texts = [t or "" for t in sample.column(text_col).to_pylist()]
    merges = bpe_train(word_counts_from_texts(texts), num_merges)
    return pa.table(
        {
            "rank": pa.array(np.arange(len(merges)), type=pa.int64()),
            "left": pa.array([m[0] for m in merges], type=pa.string()),
            "right": pa.array([m[1] for m in merges], type=pa.string()),
        }
    )


def ranks_from_merges(merges: pa.Table) -> dict[tuple[str, str], int]:
    return {
        (l, r): i
        for i, (l, r) in enumerate(
            zip(merges.column("left").to_pylist(), merges.column("right").to_pylist())
        )
    }


# per-worker word→pieces memo, keyed by the broadcast ref so two jobs
# with different merge tables never cross-contaminate; bounded so a
# long-lived worker cannot accumulate the corpus vocabulary
_MEMO_CAP = 500_000
_WORD_MEMO: dict[str, dict[str, list[str]]] = {}


def _encode_words(words: np.ndarray, ranks: dict, memo_key: str) -> list[list[str]]:
    memo = _WORD_MEMO.setdefault(memo_key, {})
    if len(memo) > _MEMO_CAP:
        memo.clear()
    out = []
    for w in words:
        p = memo.get(w)
        if p is None:
            p = bpe_encode_word(w, ranks)
            memo[w] = p
        out.append(p)
    return out


def _batch_token_rows(batch: pa.Table, text_col: str):
    """(flat tokens, row index per token, n_rows) — whitespace tokens
    with empties removed, positions aligned to str.split()."""
    lists = split_whitespace_checked(batch.column(text_col))
    flat = pc.list_flatten(lists)
    lens = pc.list_value_length(lists).to_numpy(zero_copy_only=False)
    row_idx = np.repeat(np.arange(len(lens)), lens)
    keep = pc.not_equal(flat, "").to_numpy(zero_copy_only=False)
    return flat.filter(pa.array(keep)), row_idx[keep], len(lens)


def bpe_token_stats(
    ds: ray.data.Dataset,
    merges: pa.Table,
    *,
    text_col: str = "text",
    id_col: str = "doc_id",
    keep_cols: tuple[str, ...] = (),
) -> ray.data.Dataset:
    """Per-document BPE statistics: (doc_id, [keep_cols...], n_tokens,
    n_pieces) — whitespace token count and total BPE piece count under
    the trained merges (the fertility signal a tokenizer eval tracks).
    Zero exchange; merges broadcast once; distinct-word memoized
    encode; ``keep_cols`` ride through so downstream stages (e.g.
    piece-budget packing) need no join."""
    ranks = ranks_from_merges(merges)
    ranks_ref = ray.put(ranks)

    def _stats(batch: pa.Table) -> pa.Table:
        flat, row_idx, n_rows = _batch_token_rows(batch, text_col)
        words = flat.to_numpy(zero_copy_only=False)
        n_tokens = np.bincount(row_idx, minlength=n_rows).astype(np.int64)
        if len(words):
            uniq, inv = np.unique(words, return_inverse=True)
            rk = cached_object(ranks_ref)
            piece_lens = np.array(
                [len(p) for p in _encode_words(uniq, rk, ranks_ref.hex())],
                dtype=np.int64,
            )
            n_pieces = np.bincount(
                row_idx, weights=piece_lens[inv], minlength=n_rows
            ).astype(np.int64)
        else:
            n_pieces = np.zeros(n_rows, dtype=np.int64)
        return pa.table(
            {
                id_col: batch.column(id_col).cast(pa.int64()),
                **{c: batch.column(c) for c in keep_cols},
                "n_tokens": pa.array(n_tokens, type=pa.int64()),
                "n_pieces": pa.array(n_pieces, type=pa.int64()),
            }
        )

    return ds.map_batches(_stats, batch_format="pyarrow")


def bpe_piece_vocab(
    ds: ray.data.Dataset,
    merges: pa.Table,
    *,
    text_col: str = "text",
    id_col: str = "doc_id",
    k: int = 64,
) -> pa.Table:
    """Top-``k`` BPE pieces by corpus frequency: (rank, piece, cnt),
    rank 0-based in (cnt desc, piece asc) order — the vocabulary-usage
    report a tokenizer eval reads next to fertility.

    Scale shape: the exploded piece stream never converges anywhere —
    ONE piece-keyed fold counts it (its per-batch combiner bounds the
    exchange at distinct-pieces-per-batch rows; vocabulary-bounded,
    not corpus-bounded), per-block top-k keeps the
    driver merge at k × n_blocks rows."""
    import pyarrow.compute as pc

    enc = bpe_encode(ds, merges, text_col=text_col, id_col=id_col)

    from dots_ocr_ray.util import bucket_keyed_fold

    totals = bucket_keyed_fold(enc.select_columns(["piece"]), "piece", {"cnt": ("count", None)})

    def _topk(t: pa.Table) -> pa.Table:
        order = pc.sort_indices(
            t, sort_keys=[("cnt", "descending"), ("piece", "ascending")]
        )
        return t.take(order).slice(0, k)

    parts = pa.Table.from_pylist(
        [r for r in totals.map_batches(_topk, batch_format="pyarrow").take_all()],
        schema=pa.schema([("piece", pa.string()), ("cnt", pa.int64())]),
    )
    order = pc.sort_indices(
        parts, sort_keys=[("cnt", "descending"), ("piece", "ascending")]
    )
    out = parts.take(order).slice(0, k)
    return out.add_column(
        0, "rank", pa.array(np.arange(out.num_rows), type=pa.int64())
    )


def bpe_encode(
    ds: ray.data.Dataset,
    merges: pa.Table,
    *,
    text_col: str = "text",
    id_col: str = "doc_id",
) -> ray.data.Dataset:
    """Exploded (doc_id, pos, piece) rows — pos is the 1-based piece
    position within the document.  The per-unique-word piece lists are
    gathered back to token occurrences with one Arrow list-take, so
    the only Python loop is over DISTINCT words (memoized across
    batches per worker)."""
    ranks = ranks_from_merges(merges)
    ranks_ref = ray.put(ranks)

    def _encode(batch: pa.Table) -> pa.Table:
        flat, row_idx, n_rows = _batch_token_rows(batch, text_col)
        doc_ids = batch.column(id_col).to_numpy(zero_copy_only=False).astype(np.int64)
        words = flat.to_numpy(zero_copy_only=False)
        if not len(words):
            return pa.table(
                {
                    id_col: pa.array([], type=pa.int64()),
                    "pos": pa.array([], type=pa.int64()),
                    "piece": pa.array([], type=pa.string()),
                }
            )
        uniq, inv = np.unique(words, return_inverse=True)
        rk = cached_object(ranks_ref)
        pieces = _encode_words(uniq, rk, ranks_ref.hex())
        uniq_lists = pa.array(pieces, type=pa.list_(pa.string()))
        occ_lists = uniq_lists.take(pa.array(inv))
        piece_col = pc.list_flatten(occ_lists)
        occ_lens = pc.list_value_length(occ_lists).to_numpy(zero_copy_only=False)
        piece_row = np.repeat(row_idx, occ_lens)
        # 1-based position within each document's pieces
        per_row = np.bincount(piece_row, minlength=n_rows)
        starts = np.zeros(n_rows, dtype=np.int64)
        np.cumsum(per_row[:-1], out=starts[1:])
        pos = np.arange(len(piece_row), dtype=np.int64) - starts[piece_row] + 1
        return pa.table(
            {
                id_col: pa.array(doc_ids[piece_row], type=pa.int64()),
                "pos": pa.array(pos, type=pa.int64()),
                "piece": piece_col,
            }
        )

    return ds.map_batches(_encode, batch_format="pyarrow")
