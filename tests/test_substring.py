"""Exact-substring dedup (pipelines/substring.py): both tiers vs an
independent sequential reference, plus the edge semantics the module
docstring promises (sub-k docs pass through, within-doc repeats count,
whitespace normalization, empty/None text)."""

from collections import Counter

import pyarrow as pa
import pytest

import ray.data

from dots_ocr_ray.pipelines.substring import duplicate_grams, substring_dedup

K = 8


def seq_substring_dedup(docs, k=K, min_count=2):
    """Independent sequential reference: literal token-tuple counting,
    per-position interval marking (no hashing, no vectorization)."""
    toks = {i: (t or "").split() for i, t in docs}
    cnt = Counter()
    for tk in toks.values():
        for p in range(len(tk) - k + 1):
            cnt[tuple(tk[p : p + k])] += 1
    dup = {g for g, c in cnt.items() if c >= min_count}
    out = {}
    for i, tk in toks.items():
        cov = [False] * len(tk)
        for p in range(len(tk) - k + 1):
            if tuple(tk[p : p + k]) in dup:
                for q in range(p, p + k):
                    cov[q] = True
        kept = [t for t, c in zip(tk, cov) if not c]
        out[i] = (" ".join(kept), len(kept), len(tk) - len(kept))
    return out


DOCS = [
    (0, "the quick brown fox jumps over the lazy dog again and again ok"),
    (1, "prefix words the quick brown fox jumps over the lazy dog tail"),
    (2, "short doc"),
    (3, ""),
    (4, None),
    (5, "rep rep rep rep rep rep rep rep rep rep rep rep rep rep rep rep"),
    (6, "unique tokens only here nothing repeats in this document at all"),
    (7, "  leading   and trailing whitespace doc with irregular   spacing here now  "),
]


def _docs_ds():
    return ray.data.from_arrow(
        pa.table(
            {
                "doc_id": pa.array([d[0] for d in DOCS], type=pa.int64()),
                "text": pa.array([d[1] for d in DOCS], type=pa.string()),
            }
        )
    )


@pytest.mark.parametrize("exchange", [False, True], ids=["broadcast", "exchange"])
def test_substring_dedup_matches_sequential(ray_session, exchange_tier, exchange):
    exp = seq_substring_dedup(DOCS)
    exchange_tier(exchange)
    got = {
        r["doc_id"]: (r["text_sub"], r["n_kept"], r["n_dropped"])
        for r in substring_dedup(_docs_ds(), k=K, min_count=2).take_all()
    }
    assert got == exp
    # the fixture exercises every promised edge: a shared 10-token
    # span IS removed from both docs, the within-doc repeat doc
    # empties entirely, sub-k and empty docs pass through
    assert got[0][2] > 0 and got[1][2] > 0
    assert got[5] == ("", 0, 16)
    assert got[2] == ("short doc", 2, 0)
    assert got[3] == ("", 0, 0) and got[4] == ("", 0, 0)
    # whitespace normalizes (per-token semantics)
    assert "  " not in got[7][0] and got[7][2] == 0


def test_substring_dedup_tier_parity_on_corpus(ray_session, exchange_tier):
    """Both tiers over the real sf0.001 documents table produce
    identical outputs (the scale path's 3-exchange join pipeline is
    semantics-equal to the broadcast filter)."""
    ds = ray.data.read_parquet(
        "/root/testdata/sf0.001/documents.parquet", columns=["doc_id", "text"]
    ).materialize()
    rows_b = {
        r["doc_id"]: (r["text_sub"], r["n_kept"], r["n_dropped"])
        for r in substring_dedup(ds, k=K, min_count=2).take_all()
    }
    exchange_tier()
    rows_d = {
        r["doc_id"]: (r["text_sub"], r["n_kept"], r["n_dropped"])
        for r in substring_dedup(ds, k=K, min_count=2).take_all()
    }
    assert rows_b == rows_d
    assert len(rows_b) == ds.count()
    # the synthetic corpus contains near-dup replicas — the operator
    # must actually fire on it
    assert sum(v[2] for v in rows_b.values()) > 0


def test_duplicate_grams_counts(ray_session):
    """Total occurrence counting (within-doc repeats included): a
    16x'rep' doc alone yields one duplicate gram with count 9."""
    ds = ray.data.from_arrow(
        pa.table({"doc_id": [0], "text": ["rep " * 15 + "rep"]})
    )
    rows = duplicate_grams(ds, k=K, min_count=2).take_all()
    assert len(rows) == 1 and rows[0]["cnt"] == 9


def test_gram_novelty_hand_computed_and_tier_parity(ray_session, exchange_tier):
    """Novelty vs a tiny archive: positions of new docs whose 3-gram
    never appears in the old corpus; both tiers bit-identical."""
    import pyarrow as pa
    import ray.data

    from dots_ocr_ray.pipelines.substring import gram_novelty

    old = ray.data.from_arrow(
        pa.table(
            {
                "doc_id": pa.array([100], type=pa.int64()),
                "text": pa.array(["a b c d"], type=pa.string()),
            }
        )
    )
    # archive 3-grams: "a b c", "b c d"
    new = ray.data.from_arrow(
        pa.table(
            {
                "doc_id": pa.array([1, 2, 3, 4], type=pa.int64()),
                "text": pa.array(
                    [
                        "a b c d e",   # grams: abc(old) bcd(old) cde(new) -> 1/3
                        "x y z",       # xyz new -> 1/1
                        "a b",         # < k tokens -> 0 grams
                        "a b c a b c d",  # abc ca? grams: abc(old) bca bcd? positions: [a b c](old) [b c a] [c a b] [a b c](old) [b c d](old) -> 2/5 novel
                    ],
                    type=pa.string(),
                ),
            }
        )
    ).repartition(2)

    def _rows(ds):
        return {
            r["doc_id"]: (r["n_grams"], r["n_novel"], r["novelty_micro"])
            for r in ds.take_all()
        }

    got = _rows(gram_novelty(old, new, k=3))
    assert got[1] == (3, 1, 333_333)
    assert got[2] == (1, 1, 1_000_000)
    assert got[3] == (0, 0, 0)
    assert got[4] == (5, 2, 400_000)
    # forced distributed tier must agree exactly
    exchange_tier()
    got_d = _rows(gram_novelty(old, new, k=3))
    assert got == got_d
