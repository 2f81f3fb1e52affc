"""Tests for the dedup family (exact, minhash-LSH, simhash, n-gram
Jaccard, embedding cosine)."""

import numpy as np
import pyarrow as pa
import pytest

import ray.data

from dots_ocr_ray.pipelines.dedup import (
    embedding_dedup,
    exact_dedup,
    minhash_lsh_dedup,
    ngram_jaccard_dedup,
    simhash_dedup,
)

BASE = (
    "the quick brown fox jumps over the lazy dog while the cat watches from "
    "the warm windowsill and the birds sing in the garden under a bright sun"
)
OTHER = (
    "completely different content about distributed query engines shuffling "
    "arrow record batches between worker processes with backpressure control"
)


@pytest.fixture(scope="module")
def docs():
    rows = [
        {"doc_id": 0, "text": BASE},
        {"doc_id": 1, "text": BASE},  # exact dup of 0
        {"doc_id": 2, "text": BASE.replace("lazy", "sleepy")},  # near dup of 0
        {"doc_id": 3, "text": OTHER},
        {"doc_id": 4, "text": OTHER + " extra tail words here"},  # near dup of 3
        {"doc_id": 5, "text": "tiny"},
        {"doc_id": 6, "text": ""},
    ]
    return ray.data.from_items(rows)


def test_exact_dedup(ray_session, docs):
    out = exact_dedup(docs).to_pandas().sort_values("doc_id")
    # doc 1 (exact dup of 0) removed; everything else kept
    assert sorted(out.doc_id) == [0, 2, 3, 4, 5, 6]


def test_minhash_lsh_clusters_near_dups(ray_session, docs):
    out = minhash_lsh_dedup(docs, threshold=0.5).to_pandas()
    cl = dict(zip(out.doc_id, out.cluster_id))
    assert len(out) == 7  # every doc assigned
    assert cl[0] == cl[1] == cl[2] == 0  # exact + near dup cluster
    assert cl[3] == cl[4] == 3
    assert cl[5] == 5 and cl[6] == 6  # singletons untouched


def test_minhash_deterministic(ray_session, docs):
    a = minhash_lsh_dedup(docs, threshold=0.5).to_pandas().sort_values("doc_id").reset_index(drop=True)
    b = minhash_lsh_dedup(docs, threshold=0.5).to_pandas().sort_values("doc_id").reset_index(drop=True)
    assert a.equals(b)


def test_simhash_clusters(ray_session, docs):
    out = simhash_dedup(docs, max_hamming=3).to_pandas()
    cl = dict(zip(out.doc_id, out.cluster_id))
    assert cl[0] == cl[1]  # identical text → identical simhash
    assert cl[3] != cl[0]


def test_ngram_jaccard_verification_tightens(ray_session, docs):
    loose = minhash_lsh_dedup(docs, threshold=0.5).to_pandas()
    tight = ngram_jaccard_dedup(docs, threshold=0.99).to_pandas()
    cl = dict(zip(tight.doc_id, tight.cluster_id))
    # at 0.99 only the EXACT dup pair survives verification
    assert cl[0] == cl[1]
    assert cl[2] == 2  # near-dup fails 0.99 exact-jaccard bar
    n_loose = (loose.doc_id != loose.cluster_id).sum()
    n_tight = (tight.doc_id != tight.cluster_id).sum()
    assert n_tight <= n_loose


def test_embedding_dedup(ray_session):
    rng = np.random.RandomState(7)
    base = rng.standard_normal(64).astype(np.float32)
    rows = [
        {"vec_id": 0, "embedding": base.tolist()},
        {"vec_id": 1, "embedding": (base * 2.0).tolist()},  # same direction → cos=1
        {"vec_id": 2, "embedding": (base + rng.standard_normal(64) * 0.05).tolist()},  # near
        {"vec_id": 3, "embedding": rng.standard_normal(64).tolist()},  # far
    ]
    out = embedding_dedup(ray.data.from_items(rows), threshold=0.95).to_pandas()
    cl = dict(zip(out.doc_id, out.cluster_id))
    assert cl[0] == cl[1] == cl[2] == 0
    assert cl[3] == 3


def test_distributed_cc_matches_driver(ray_session, docs, exchange_tier):
    """cluster_assign's distributed min-label propagation must produce
    exactly the clusters of the driver union-find path — on the LSH
    fixture corpus AND on a chain graph (worst-case diameter)."""
    from dots_ocr_ray.pipelines.dedup import cluster_assign, minhash_candidate_pairs

    pairs = minhash_candidate_pairs(docs, threshold=0.5)
    ids = docs.select_columns(["doc_id"])
    a = cluster_assign(ids, pairs).to_pandas().sort_values("doc_id").reset_index(drop=True)
    exchange_tier()
    b = cluster_assign(ids, pairs).to_pandas().sort_values("doc_id").reset_index(drop=True)
    assert a.equals(b)

    # chain 10-11-12-...-19 plus a disjoint clique {30,31,32}
    chain = [{"a": i, "b": i + 1} for i in range(10, 19)]
    clique = [{"a": 30, "b": 31}, {"a": 30, "b": 32}, {"a": 31, "b": 32}]
    pairs2 = ray.data.from_items(chain + clique)
    ids2 = ray.data.from_items([{"doc_id": i} for i in list(range(10, 20)) + [25, 30, 31, 32]])
    out = cluster_assign(ids2, pairs2).to_pandas()
    cl = dict(zip(out.doc_id, out.cluster_id))
    assert all(cl[i] == 10 for i in range(10, 20))  # whole chain collapses
    assert cl[25] == 25  # singleton untouched
    assert cl[30] == cl[31] == cl[32] == 30


def test_hot_duplicate_cluster_is_linear(ray_session):
    """A duplicate cluster holding 30% of the corpus must not trigger
    O(n^2) pairwise verification in its LSH buckets (star-link guard)."""
    import time

    rows = []
    for i in range(2000):
        if i % 3 == 0:
            rows.append({"doc_id": i, "text": BASE})  # ~667 identical docs
        else:
            rows.append({"doc_id": i, "text": f"{OTHER} variant {i} " + "pad " * (i % 7)})
    t0 = time.perf_counter()
    out = minhash_lsh_dedup(ray.data.from_items(rows), threshold=0.8).to_pandas()
    elapsed = time.perf_counter() - t0
    cl = dict(zip(out.doc_id, out.cluster_id))
    heavy = [i for i in range(2000) if i % 3 == 0]
    assert all(cl[i] == 0 for i in heavy)  # whole hot cluster collapses to min id
    assert elapsed < 60  # star-linking keeps hot buckets O(n)


def test_attach_distributed_path_matches_broadcast(ray_session, exchange_tier):
    """The pair-payload join's two ``hash_join`` calls give the same
    rows in the exchange tier (forced by patching
    ``util.broadcast_fits``) as in the broadcast tier, including every
    match of a payload id that repeats."""
    import pyarrow as pa

    from dots_ocr_ray.pipelines.dedup import attach_pair_payloads

    pairs = ray.data.from_items([{"a": 1, "b": 2}, {"a": 2, "b": 5}, {"a": 3, "b": 9}])
    payload = ray.data.from_items(
        [{"doc_id": i, "blob": bytes([i]) * 8} for i in (1, 2, 3, 5)]  # 9 missing
        + [{"doc_id": 5, "blob": b"\x06" * 8}]  # id 5 repeats
    )

    def _run():
        out = attach_pair_payloads(
            pairs, payload, id_col="doc_id", payload_col="blob", payload_type=pa.binary()
        ).to_pandas()
        return out.sort_values(["a", "b", "payload_b"]).reset_index(drop=True)

    fast = _run()
    exchange_tier()
    dist = _run()
    assert len(fast) == 3  # (3,9) dropped: endpoint 9 has no payload; (2,5) twice
    assert fast.equals(dist)
    assert bytes(fast.payload_a[0]) == b"\x01" * 8 and bytes(fast.payload_b[0]) == b"\x02" * 8
    assert sorted(bytes(p) for p in fast.payload_b[1:]) == [b"\x05" * 8, b"\x06" * 8]


def test_endpoint_filter_exact_at_both_tiers(ray_session, exchange_tier):
    """The endpoint semi-join keeps exactly the payload rows whose id is
    a pair endpoint, once each, in the broadcast tier and in the
    exchange tier."""
    from dots_ocr_ray.pipelines.dedup import filter_payload_to_pair_endpoints

    pairs = ray.data.from_items([{"a": i, "b": i + 100} for i in range(50)]).materialize()
    payload = ray.data.from_items([{"doc_id": i, "sig": b"x"} for i in range(300)])
    want = list(range(50)) + list(range(100, 150))
    for forced in (False, True):
        exchange_tier(forced)
        out = filter_payload_to_pair_endpoints(payload, pairs, id_col="doc_id").to_pandas()
        assert sorted(out.doc_id) == want


def test_attach_distributed_path_tolerates_duplicate_pairs(ray_session, exchange_tier):
    """Duplicate candidate pairs (allowed upstream: distinct_pairs
    boundary stragglers, undeduped simhash/ngram pairs) must still
    produce their joined rows in the SCALE path — an earlier positional
    side check silently dropped any pair appearing more than once.
    Contract (same as the broadcast fast path): one joined row per pair
    COPY; every consumer treats duplicates idempotently."""
    import pyarrow as pa

    from dots_ocr_ray.pipelines.dedup import attach_pair_payloads

    pairs = ray.data.from_items(
        [{"a": 1, "b": 2}, {"a": 1, "b": 2}, {"a": 1, "b": 2}, {"a": 2, "b": 5}]
    )
    payload = ray.data.from_items(
        [{"doc_id": i, "blob": bytes([i]) * 4} for i in (1, 2, 5)]
    )
    exchange_tier()  # force the distributed hash-join path
    out = attach_pair_payloads(
        pairs, payload, id_col="doc_id", payload_col="blob", payload_type=pa.binary()
    ).to_pandas()
    got = sorted(map(tuple, out[["a", "b"]].values.tolist()))
    assert got == [(1, 2), (1, 2), (1, 2), (2, 5)]  # per-copy, never dropped
    for _, row in out[(out.a == 1) & (out.b == 2)].iterrows():
        assert bytes(row.payload_a) == b"\x01" * 4 and bytes(row.payload_b) == b"\x02" * 4


def test_sorted_group_first_exact(ray_session):
    """sorted_group_first must equal a pandas first-per-key on a
    shuffled, duplicate-heavy corpus whose keys span many blocks (no
    duplicate or missing survivors), and give no rows on an empty
    input."""
    import numpy as np

    from dots_ocr_ray.pipelines.dedup import sorted_group_first

    rng = np.random.RandomState(3)
    keys = [f"k{rng.randint(0, 40):03d}" for _ in range(5000)]  # ~125 rows/key
    rows = [{"k": k, "doc_id": i, "v": i * 2} for i, k in enumerate(keys)]
    ds = ray.data.from_items(rows).random_shuffle(seed=5).repartition(16)
    out = sorted_group_first(ds, "k", "doc_id").to_pandas().sort_values("k").reset_index(drop=True)
    expect = (
        ds.to_pandas()
        .sort_values(["k", "doc_id"])
        .groupby("k", as_index=False)
        .first()
        .sort_values("k")
        .reset_index(drop=True)
    )
    assert out[["k", "doc_id", "v"]].equals(expect[["k", "doc_id", "v"]])
    assert sorted_group_first(ds.limit(0), "k", "doc_id").count() == 0


def test_semi_join_ids_tiers_match(ray_session, exchange_tier):
    """The broadcast and exchange tiers of ``hash_join(how="semi")``
    keep exactly the member rows."""
    from dots_ocr_ray.pipelines.dedup import semi_join_ids

    ids = ray.data.from_items([{"id": i} for i in range(0, 400, 4)]).materialize()
    payload = ray.data.from_items([{"doc_id": i, "x": i} for i in range(400)])
    broadcast = semi_join_ids(payload, ids, id_col="doc_id").to_pandas()
    assert sorted(broadcast.doc_id) == list(range(0, 400, 4))
    exchange_tier()
    exchanged = semi_join_ids(payload, ids, id_col="doc_id").to_pandas()
    assert sorted(exchanged.doc_id) == list(range(0, 400, 4))


def test_min_labels_numpy_matches_dict_union_find():
    """The vectorized driver CC must equal the dict union-find on
    random graphs (chains, cliques, singleton-free pair soup)."""
    import numpy as np

    from dots_ocr_ray.pipelines.dedup import _min_labels_numpy, _root_map_from_pairs

    rng = np.random.RandomState(7)
    for trial in range(20):
        n_pairs = rng.randint(1, 400)
        a = rng.randint(0, 120, size=n_pairs).astype(np.int64)
        b = rng.randint(0, 120, size=n_pairs).astype(np.int64)
        nodes, labels = _min_labels_numpy(a, b)
        want = _root_map_from_pairs(list(zip(a.tolist(), b.tolist())))
        got = dict(zip(nodes.tolist(), labels.tolist()))
        assert got == want
    # worst-case diameter: a long chain
    a = np.arange(0, 3000, dtype=np.int64)
    b = a + 1
    nodes, labels = _min_labels_numpy(a, b)
    assert (labels == 0).all()


def test_char_ngram_hashes_matches_set_semantics():
    """char_ngram_hashes/jaccard_hashes are the vectorized twin of
    char_ngrams/jaccard — identical Jaccard on unicode + edge cases."""
    from dots_ocr_ray.functions.hashing import (
        char_ngram_hashes,
        char_ngrams,
        jaccard,
        jaccard_hashes,
    )

    cases = ["", "a", "ab", "abc", "abcabcabc", "héllo wörld 中文字符串", BASE, OTHER]
    for a in cases:
        for b in cases:
            want = jaccard(char_ngrams(a), char_ngrams(b))
            got = jaccard_hashes(char_ngram_hashes(a), char_ngram_hashes(b))
            assert abs(want - got) < 1e-12, (a, b)
    for t in cases:
        assert len(char_ngram_hashes(t)) == len(char_ngrams(t))


def test_line_dedup_tiers_match(ray_session, exchange_tier):
    """Broadcast and distributed line-dedup tiers agree; frequent lines
    drop, order is preserved, fully-deduped and empty docs survive."""
    import pandas as pd
    import ray.data

    from dots_ocr_ray.pipelines.dedup import line_dedup

    rows = [
        {"doc_id": i, "text": f"header common\nunique body {i}\nfooter common"}
        for i in range(40)
    ]
    rows.append({"doc_id": 100, "text": ""})
    rows.append({"doc_id": 101, "text": "header common\nfooter common"})
    ds = ray.data.from_items(rows)

    def run():
        return (
            line_dedup(ds, min_count=5)
            .to_pandas()
            .sort_values("doc_id")
            .reset_index(drop=True)
            .astype({"doc_id": "int64", "n_kept": "int64", "n_dropped": "int64"})
        )

    broadcast = run()
    exchange_tier()
    distributed = run()
    pd.testing.assert_frame_equal(broadcast, distributed)
    assert broadcast.loc[broadcast.doc_id == 3, "text_dedup"].item() == "unique body 3"
    assert broadcast.loc[broadcast.doc_id == 3, "n_dropped"].item() == 2
    # fully-deduped doc stays, with empty text
    assert broadcast.loc[broadcast.doc_id == 101, "text_dedup"].item() == ""
    assert broadcast.loc[broadcast.doc_id == 101, "n_kept"].item() == 0
    # empty doc: one empty line, unique-ish? '' appears once per empty doc
    assert len(broadcast) == 42


def test_frequent_lines_threshold(ray_session):
    import ray.data

    from dots_ocr_ray.pipelines.dedup import frequent_lines

    ds = ray.data.from_items(
        [{"text": "a\nb"}, {"text": "a\nc"}, {"text": "a\nb"}]
    )
    out = {
        r["line"]: r["n"]
        for r in frequent_lines(ds, min_count=2).take_all()
    }
    assert out == {"a": 3, "b": 2}


def test_exact_dedup_incremental(ray_session):
    """Incremental exact dedup: rows already hashed into the prior
    index drop; fresh rows survive with in-batch dup collapse."""
    import ray.data

    from dots_ocr_ray.kernel.textops import md5_hex
    from dots_ocr_ray.pipelines.dedup import exact_dedup_incremental

    index = ray.data.from_items(
        [{"content_md5": md5_hex(t)} for t in ("old one", "old two")]
    )
    new = ray.data.from_items(
        [
            {"doc_id": 1, "text": "old one"},     # already indexed -> drop
            {"doc_id": 2, "text": "fresh a"},
            {"doc_id": 3, "text": "fresh a"},     # in-batch dup -> min id survives
            {"doc_id": 4, "text": "fresh b"},
            {"doc_id": 5, "text": "old two"},     # already indexed -> drop
        ]
    )
    out = exact_dedup_incremental(new, index)
    rows = {r["doc_id"]: r["text"] for r in out.take_all()}
    assert rows == {2: "fresh a", 4: "fresh b"}


def test_minhash_dedup_incremental_matches_full_run(ray_session):
    """Incremental refresh parity: given the archive's stored
    signature index, the surviving NEW rows must be exactly the new
    docs whose full-corpus minhash cluster (a) contains no archive doc
    and (b) has them as its min new id."""
    import pyarrow as pa

    import ray.data

    from dots_ocr_ray.pipelines.dedup import (
        minhash_dedup_incremental,
        minhash_lsh_dedup,
        minhash_signatures,
    )

    base = "the quick brown fox jumps over the lazy dog near the riverbank today "
    archive_docs = [(i, base + f"archive marker {i} " + "alpha beta gamma " * 3) for i in range(10)]
    new_docs = [
        (100, archive_docs[0][1]),                       # exact copy of archive
        (101, archive_docs[1][1] + "tiny tail"),         # near-copy of archive
        (102, "completely different fresh content " * 6 + "one"),
        (103, "completely different fresh content " * 6 + "two"),  # near-dup of 102
        (104, "another unique new document with its own words entirely " * 4),
    ]
    arch_ds = ray.data.from_arrow(
        pa.table({"doc_id": [d[0] for d in archive_docs], "text": [d[1] for d in archive_docs]})
    )
    new_ds = ray.data.from_arrow(
        pa.table({"doc_id": [d[0] for d in new_docs], "text": [d[1] for d in new_docs]})
    )
    index = minhash_signatures(arch_ds)
    survivors = {
        r["doc_id"]
        for r in minhash_dedup_incremental(new_ds, index, threshold=0.7).take_all()
    }

    # expected from a full-corpus run over archive ∪ new
    full = ray.data.from_arrow(
        pa.table(
            {
                "doc_id": [d[0] for d in archive_docs + new_docs],
                "text": [d[1] for d in archive_docs + new_docs],
            }
        )
    )
    clusters = {}
    for r in minhash_lsh_dedup(full, threshold=0.7).take_all():
        clusters.setdefault(r["cluster_id"], []).append(r["doc_id"])
    expected = set()
    for members in clusters.values():
        if any(m < 100 for m in members):
            continue  # cluster touches the archive -> every new member drops
        expected.add(min(members))
    assert survivors == expected
    assert 102 in survivors and 104 in survivors
    assert 100 not in survivors and 101 not in survivors and 103 not in survivors


def test_attach_pair_payloads_scale_path_full_range_ids(ray_session, exchange_tier):
    """Above the broadcast budget the pair-payload join must be exact
    for 60-bit md5-prefix doc ids: the old float64 round-trip silently
    dropped every pair whose second endpoint exceeded 2^53."""
    import numpy as np
    import pyarrow as pa

    import ray.data

    from dots_ocr_ray.pipelines.dedup import attach_pair_payloads

    ids = np.array(
        [(1 << 59) + 7, (1 << 59) + 8, (1 << 59) + 9, (1 << 60) - 3], dtype=np.int64
    )
    pairs = pa.table(
        {
            "a": pa.array([ids[0], ids[2]], type=pa.int64()),
            "b": pa.array([ids[1], ids[3]], type=pa.int64()),
        }
    )
    payload = pa.table(
        {
            "doc_id": pa.array(ids, type=pa.int64()),
            "sig": pa.array([f"s{i}" for i in range(4)], type=pa.string()),
        }
    )
    exchange_tier()  # force the distributed scale path
    out = attach_pair_payloads(
        ray.data.from_arrow(pairs),
        ray.data.from_arrow(payload),
        id_col="doc_id",
        payload_col="sig",
        payload_type=pa.string(),
    ).take_all()
    got = sorted((r["a"], r["b"], r["payload_a"], r["payload_b"]) for r in out)
    assert got == [
        (int(ids[0]), int(ids[1]), "s0", "s1"),
        (int(ids[2]), int(ids[3]), "s2", "s3"),
    ]


def test_anti_join_ids_exact_at_both_tiers(ray_session, exchange_tier):
    """anti_join_ids is the OUTPUT-defining dedup keep-filter: both the
    broadcast tier and the exchange tier of ``hash_join(how="anti")``
    must drop exactly the member rows — no over-keep (a duplicate
    leaking into training data) and no over-drop (a survivor lost)."""
    from dots_ocr_ray.pipelines.dedup import anti_join_ids

    big = 2**60  # ids above 2^53: the join must stay int64-exact
    dups = ray.data.from_items(
        [{"id": big + i} for i in range(0, 400, 4)]
    ).materialize()
    payload = ray.data.from_items(
        [{"doc_id": big + i, "x": i} for i in range(400)]
    ).materialize()
    want = sorted(big + i for i in range(400) if i % 4 != 0)

    exact = anti_join_ids(payload, dups, id_col="doc_id", id_cols=("id",))
    assert sorted(r["doc_id"] for r in exact.take_all()) == want

    exchange_tier()
    scale = anti_join_ids(payload, dups, id_col="doc_id", id_cols=("id",))
    assert sorted(r["doc_id"] for r in scale.take_all()) == want


def test_prepare_minhash_scale_tier_is_exact(ray_session, tmp_path, exchange_tier):
    """Forcing the anti-join exchange tier must yield the same deduped
    doc set as the broadcast tier."""
    from dots_ocr_ray.pipelines.dedup import anti_join_ids, minhash_lsh_dedup

    import pyarrow.compute as pc

    base = " ".join(f"tok{i} word{i} alpha{i}" for i in range(60))
    rows = []
    for d in range(30):
        if d % 3 == 0:  # near-dup family of doc d-? no: make pairs
            text = base + f" tail{d % 2}"
        else:
            text = f"unique doc {d} " + " ".join(f"u{d}_{i}" for i in range(50))
        rows.append({"doc_id": 10_000 + d, "text": text})
    docs = ray.data.from_items(rows).materialize()
    clusters = minhash_lsh_dedup(docs, threshold=0.7)

    def _dups(b):
        m = pc.not_equal(b.column("doc_id"), b.column("cluster_id"))
        return b.filter(m).select(["doc_id"])

    duplicates = clusters.map_batches(_dups, batch_format="pyarrow").materialize()
    a = anti_join_ids(docs, duplicates, id_col="doc_id", id_cols=("doc_id",))
    exchange_tier()
    b = anti_join_ids(docs, duplicates, id_col="doc_id", id_cols=("doc_id",))
    ida = sorted(r["doc_id"] for r in a.take_all())
    idb = sorted(r["doc_id"] for r in b.take_all())
    assert ida == idb and 0 < len(ida) < 30


def test_semi_join_ids_exact_scale_tier(ray_session, exchange_tier):
    """The semi-join's exchange tier returns precisely the member rows,
    ids above 2^53 included."""
    from dots_ocr_ray.pipelines.dedup import semi_join_ids

    big = 2**61
    ids = ray.data.from_items([{"id": big + i} for i in range(0, 300, 3)]).materialize()
    payload = ray.data.from_items(
        [{"doc_id": big + i, "x": i} for i in range(300)]
    ).materialize()
    exchange_tier()
    out = semi_join_ids(payload, ids, id_col="doc_id", id_cols=("id",))
    got = sorted(r["doc_id"] for r in out.take_all())
    assert got == [big + i for i in range(0, 300, 3)]


def test_embedding_dedup_hot_bucket_keeps_all_pairs(ray_session):
    """A hot LSH bucket (> HOT_BUCKET_CAP members) must still find
    near-dup pairs that do NOT involve the bucket's min-id doc: each
    vector lives in exactly one bucket, so a star-vs-pivot shortcut
    would lose those clusters permanently."""
    import numpy as np

    from dots_ocr_ray.pipelines.dedup import HOT_BUCKET_CAP, embedding_dedup

    rng = np.random.default_rng(3)
    d = 16
    # one dominant direction so every vector lands in the same bucket
    base = np.ones(d, dtype=np.float32)
    rows = []
    n = HOT_BUCKET_CAP + 40
    for i in range(n):
        v = base + 0.03 * rng.standard_normal(d).astype(np.float32)
        rows.append({"vec_id": 1000 + i, "embedding": (v / np.linalg.norm(v)).tolist()})
    # a tight duplicate pair far from the min id: ids 1000+n-2, 1000+n-1
    dup = base + 0.001 * rng.standard_normal(d).astype(np.float32)
    dup = dup / np.linalg.norm(dup)
    rows[-2]["embedding"] = dup.tolist()
    rows[-1]["embedding"] = (dup + 1e-4).tolist()
    ds = ray.data.from_items(rows)
    out = {
        r["doc_id"]: r["cluster_id"]
        for r in embedding_dedup(ds, threshold=0.999).take_all()
    }
    hi_a, hi_b = 1000 + n - 2, 1000 + n - 1
    assert out[hi_b] == out[hi_a]  # the non-pivot duplicate pair clusters


def test_simhash_dedup_rejects_unreachable_hamming_radius(ray_session):
    from dots_ocr_ray.pipelines.dedup import simhash_dedup

    ds = ray.data.from_items([{"doc_id": 1, "text": "a"}])
    with pytest.raises(ValueError, match="max_hamming"):
        simhash_dedup(ds, max_hamming=4, n_blocks=4)


def test_minhash_pairs_rejects_mixed_signature_widths(ray_session):
    import numpy as np

    from dots_ocr_ray.pipelines.dedup import minhash_pairs_from_sigs

    sig64 = np.arange(64, dtype=np.uint64).tobytes()
    sig128 = np.arange(128, dtype=np.uint64).tobytes()
    sigs = ray.data.from_items(
        [{"doc_id": 1, "sig": sig64}, {"doc_id": 2, "sig": sig128}]
    ).repartition(1)
    with pytest.raises(Exception, match="signature widths"):
        minhash_pairs_from_sigs(sigs).materialize()


def test_incremental_minhash_rejects_wrong_index_width(ray_session):
    import numpy as np

    from dots_ocr_ray.pipelines.dedup import minhash_dedup_incremental

    index = ray.data.from_items(
        [{"doc_id": 5, "sig": np.arange(64, dtype=np.uint64).tobytes()}]
    )
    new = ray.data.from_items([{"doc_id": 9, "text": "hello world tokens here"}])
    with pytest.raises(ValueError, match="index width"):
        minhash_dedup_incremental(new, index, num_perm=128)


def test_best_survivor_per_cluster(ray_session):
    import ray.data

    from dots_ocr_ray.pipelines.dedup import best_survivor_per_cluster

    clusters = ray.data.from_items(
        [
            # cluster 1: quality argmax is NOT the min id
            {"doc_id": 1, "cluster_id": 1},
            {"doc_id": 2, "cluster_id": 1},
            {"doc_id": 3, "cluster_id": 1},
            # cluster 4: quality tie → min id wins
            {"doc_id": 4, "cluster_id": 4},
            {"doc_id": 5, "cluster_id": 4},
            # singleton passes through
            {"doc_id": 6, "cluster_id": 6},
        ]
    )
    quality = ray.data.from_items(
        [
            {"doc_id": 1, "quality": 10},
            {"doc_id": 2, "quality": 99},
            {"doc_id": 3, "quality": 50},
            {"doc_id": 4, "quality": 7},
            {"doc_id": 5, "quality": 7},
            {"doc_id": 6, "quality": 1},
        ]
    )
    out = best_survivor_per_cluster(clusters, quality).take_all()
    got = sorted((r["cluster_id"], r["doc_id"], r["quality"]) for r in out)
    assert got == [(1, 2, 99), (4, 4, 7), (6, 6, 1)]


def test_containment_micro_kernel():
    import numpy as np

    from dots_ocr_ray.functions.hashing import char_ngram_hashes, containment_micro

    base = "the quick brown fox jumps over the lazy dog"
    a = char_ngram_hashes(base, 3)
    b = char_ngram_hashes(base + " with a long unique tail appended here", 3)
    # the smaller set is (almost) fully contained in the larger
    assert containment_micro(a, b) >= 950_000
    # symmetric Jaccard is strictly lower (the signal containment adds)
    from dots_ocr_ray.functions.hashing import jaccard_hashes

    assert jaccard_hashes(a, b) < containment_micro(a, b) / 1_000_000
    # disjoint sets
    c = char_ngram_hashes("0123456789" * 3, 3)
    assert containment_micro(a, c) == 0
    # empty conventions
    e = np.empty(0, dtype=np.uint64)
    assert containment_micro(e, e) == 1_000_000
    assert containment_micro(e, a) == 0


def test_containment_pairs_planted(ray_session):
    import ray.data

    from dots_ocr_ray.pipelines.dedup import containment_pairs

    base = "alpha beta gamma delta epsilon zeta eta theta iota kappa " * 4
    rows = [
        {"doc_id": 1, "text": base},
        {"doc_id": 2, "text": base + " unique closing tail words here"},
        {"doc_id": 3, "text": "completely different content about other things entirely"},
    ]
    out = containment_pairs(ray.data.from_items(rows)).take_all()
    got = {(r["a"], r["b"]) for r in out}
    assert (1, 2) in got
    assert all({a, b} <= {1, 2} for a, b in got)
    for r in out:
        assert r["cont_micro"] >= 900_000


# --- sorted-neighborhood ------------------------------------------------------

def _snm_fixture(num_blocks: int = 1):
    import pyarrow as pa
    import ray.data

    texts = {
        1: "alpha beta gamma delta epsilon zeta",
        2: "alpha beta gamma delta epsilon zeta!",   # near-dup of 1, same prefix
        3: "alpha beta gamma delta epsilon zetas",   # near-dup, tiny suffix edit
        4: "omega psi chi phi upsilon tau",
        5: "zzz completely different text here",
        6: "omega psi chi phi upsilon tau sigma",    # near-dup of 4
    }
    t = pa.table(
        {
            "doc_id": pa.array(list(texts), type=pa.int64()),
            "text": pa.array(list(texts.values()), type=pa.string()),
        }
    )
    return ray.data.from_arrow(t).repartition(num_blocks)


def test_snm_sort_key():
    from dots_ocr_ray.pipelines.dedup import snm_sort_key

    assert snm_sort_key("Alpha, Beta! 42") == "alphabeta42"
    assert snm_sort_key("") == ""
    assert snm_sort_key(None) == ""
    assert len(snm_sort_key("x" * 100)) == 24


def test_snm_dedup_clusters_prefix_neighbors(ray_session):
    from dots_ocr_ray.pipelines.dedup import snm_dedup

    out = snm_dedup(_snm_fixture(), window=3, threshold=0.7).to_pandas()
    cl = dict(zip(out["doc_id"], out["cluster_id"]))
    assert cl[1] == cl[2] == cl[3]
    assert cl[4] == cl[6]
    assert cl[5] not in (cl[1], cl[4])


def test_snm_dedup_partition_invariant(ray_session):
    from dots_ocr_ray.pipelines.dedup import snm_dedup

    a = snm_dedup(_snm_fixture(1), window=3, threshold=0.7).to_pandas().sort_values("doc_id")
    b = snm_dedup(_snm_fixture(5), window=3, threshold=0.7).to_pandas().sort_values("doc_id")
    assert a.values.tolist() == b.values.tolist()
