"""Tests for text-analysis pipelines over the documents table."""

import pytest

from dots_ocr_ray.pipelines.text_analysis import (
    fingerprint_duplicates,
    lang_id_confusion,
    quality_filter,
    tfidf_top_terms,
    token_count_by_lang,
)

SF_DIR = "/root/testdata/sf0.001"


def test_token_count_by_lang(ray_session):
    out = token_count_by_lang(SF_DIR).to_pandas()
    assert set(out.columns) == {"lang", "sum_tokens_ws", "sum_tokens_bpe"}
    assert (out.sum_tokens_ws > 0).all()
    # BPE-ish tokenizer splits at least as finely as whitespace
    assert (out.sum_tokens_bpe >= out.sum_tokens_ws).all()


def test_quality_filter(ray_session):
    out = quality_filter(SF_DIR).to_pandas()
    assert len(out) > 0
    assert (out.alpha_ratio >= 0.5).all()
    assert (out.n_tokens_ws >= 5).all()


def test_lang_id_confusion(ray_session):
    out = lang_id_confusion(SF_DIR).to_pandas()
    assert {"lang", "lang_pred", "n"} == set(out.columns)
    # corpus text is English word soup → predictions dominated by en/und
    assert set(out.lang_pred) <= {"en", "fr", "es", "de", "zh", "ru", "hi", "und"}
    assert out.n.sum() == 500  # every document counted exactly once


def test_tfidf_top_terms(ray_session):
    import math

    import ray.data

    docs = ray.data.read_parquet(
        f"{SF_DIR}/documents.parquet", columns=["doc_id", "text"]
    )
    out = tfidf_top_terms(docs, vocab_size=64, k=2).to_pandas()
    assert list(out.columns) == ["doc_id", "token", "rank", "score"]
    # rank is 1..k per doc, scores non-increasing within a doc
    per_doc = out.groupby("doc_id")
    assert (per_doc["rank"].min() == 1).all()
    assert (per_doc["rank"].max() <= 2).all()
    for _, g in per_doc:
        ordered = g.sort_values("rank")
        assert (ordered.score.diff().dropna() <= 1e-9).all()

    # sequential parity for one document: recompute df/tf directly
    import pandas as pd

    raw = pd.read_parquet(f"{SF_DIR}/documents.parquet", columns=["doc_id", "text"])
    n = len(raw)
    df_counts = {}
    for t in raw.text:
        for tok in set((t or "").split()):
            df_counts[tok] = df_counts.get(tok, 0) + 1
    vocab = sorted(df_counts.items(), key=lambda kv: (-kv[1], kv[0]))[:64]
    vset = {tok: df for tok, df in vocab}
    row = raw.iloc[7]
    tf = {}
    for tok in (row.text or "").split():
        if tok in vset:
            tf[tok] = tf.get(tok, 0) + 1
    scored = sorted(
        ((t, c * math.log(n / vset[t])) for t, c in tf.items()),
        key=lambda kv: (-kv[1], kv[0]),
    )[:2]
    got = out[out.doc_id == row.doc_id].sort_values("rank")
    assert list(got.token) == [t for t, _ in scored]
    for s_got, (_, s_exp) in zip(got.score, scored):
        assert abs(s_got - s_exp) < 1e-3


def test_ws_counts_parity(ray_session):
    """Vectorized n_tokens_ws == len(text.split()) on hostile strings."""
    import pyarrow as pa

    import ray.data

    from dots_ocr_ray.kernel.textops import count_tokens_whitespace
    from dots_ocr_ray.pipelines.text_analysis import annotate_documents

    cases = [
        "", " ", "a", " a ", "a  b", "\ta\nb\t", "a b", "ab " * 100,
        "\n\n", "x", None, "tab\tsep\tvals", " lead", "trail ",
    ]
    ds = ray.data.from_items([{"text": t, "i": i} for i, t in enumerate(cases)])
    out = annotate_documents(ds, features=("tokens_ws",)).to_pandas()
    # block order is not guaranteed across parallel map tasks — align by
    # the row index, not output position
    got = dict(zip(out.i, out.n_tokens_ws))
    exp = {i: count_tokens_whitespace(t or "") for i, t in enumerate(cases)}
    assert got == exp


def test_contamination_check(ray_session):
    import ray.data

    from dots_ocr_ray.pipelines.text_analysis import contamination_check

    docs = ray.data.read_parquet(
        f"{SF_DIR}/documents.parquet", columns=["doc_id", "text"]
    )
    import pandas as pd

    raw = pd.read_parquet(f"{SF_DIR}/documents.parquet", columns=["doc_id", "text"])
    bench = raw[raw.doc_id % 97 == 3]
    probes = [
        (int(r.doc_id), " ".join((r.text or "").split()[:3]))
        for r in bench.itertuples()
    ]
    out = contamination_check(docs, probes).to_pandas()
    # every benchmark doc contains its own probe → must be flagged
    assert set(bench.doc_id) <= set(out.doc_id)
    # sequential parity: recompute containment directly
    exp = {}
    for r in raw.itertuples():
        hits = [bid for bid, p in sorted(probes) if p in (r.text or "")]
        if hits:
            exp[int(r.doc_id)] = (len(hits), hits[0])
    got = {int(r.doc_id): (int(r.n_probe_hits), int(r.first_bench_id)) for r in out.itertuples()}
    assert got == exp


def test_top_bigrams(ray_session):
    import collections

    import ray.data

    from dots_ocr_ray.pipelines.text_analysis import top_bigrams

    docs = ray.data.read_parquet(f"{SF_DIR}/documents.parquet", columns=["text"])
    out = top_bigrams(docs, k=10).to_pandas()
    assert list(out.columns) == ["bigram", "n", "pmi"]
    assert len(out) == 10
    # counts non-increasing, bigram asc within equal counts
    assert (out.n.diff().dropna() <= 0).all()
    # sequential parity on counts
    import pandas as pd

    raw = pd.read_parquet(f"{SF_DIR}/documents.parquet", columns=["text"])
    bc = collections.Counter()
    for t in raw.text:
        toks = (t or "").split()
        bc.update(f"{a} {b}" for a, b in zip(toks, toks[1:]))
    exp = sorted(bc.items(), key=lambda kv: (-kv[1], kv[0]))[:10]
    assert list(out.bigram) == [b for b, _ in exp]
    assert list(out.n) == [n for _, n in exp]


def test_repetition_stats(ray_session):
    import ray.data

    from dots_ocr_ray.pipelines.text_analysis import repetition_stats

    cases = [
        {"doc_id": 0, "text": ""},
        {"doc_id": 1, "text": "solo"},
        {"doc_id": 2, "text": "a b a b a b"},
        {"doc_id": 3, "text": "x x x x"},
        {"doc_id": 4, "text": "all words here are distinct"},
    ]
    out = (
        repetition_stats(ray.data.from_items(cases))
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    assert list(out.n_tokens) == [0, 1, 6, 4, 5]
    assert list(out.distinct_frac) == [0.0, 1.0, round(2 / 6, 4), 0.25, 1.0]
    # "a b a b a b": bigrams ab,ba,ab,ba,ab → top 3/5; "x x x x": 3/3
    assert list(out.top_bigram_frac) == [0.0, 0.0, 0.6, 1.0, 0.25]


def test_fingerprint_duplicates(ray_session):
    out = fingerprint_duplicates(SF_DIR).to_pandas()
    # sf0.001 documents are all distinct → few/no shared fingerprints,
    # and the op must still return a well-formed (possibly empty) table
    assert set(out.columns) == {"fingerprint", "n_docs", "min_doc_id"}
    assert (out.n_docs >= 2).all() if len(out) else True


def test_bigram_lm_scores_tiers_match_sequential(ray_session, exchange_tier):
    """Both tiers vs a literal token-tuple Counter reference; sub-2-
    token docs score 0 with 0 bigrams."""
    import math
    from collections import Counter

    import pyarrow as pa

    import ray.data

    from dots_ocr_ray.pipelines.text_analysis import bigram_lm_scores

    docs = [
        (0, "a b a b c"),
        (1, "a b"),
        (2, "z"),
        (3, ""),
        (4, None),
        (5, "b c a b a"),
    ]
    ds = ray.data.from_arrow(
        pa.table(
            {
                "doc_id": pa.array([d[0] for d in docs], type=pa.int64()),
                "text": pa.array([d[1] for d in docs], type=pa.string()),
            }
        )
    )
    toks = {i: (t or "").split() for i, t in docs}
    uni = Counter(w for tk in toks.values() for w in tk)
    big = Counter(
        (tk[j], tk[j + 1]) for tk in toks.values() for j in range(len(tk) - 1)
    )
    v = len(uni)
    exp = {}
    for i, tk in toks.items():
        lps = [
            math.log((big[(tk[j], tk[j + 1])] + 1) / (uni[tk[j]] + v))
            for j in range(len(tk) - 1)
        ]
        exp[i] = (round(sum(lps) / len(lps), 10) if lps else 0.0, len(lps))
    for exchange in (False, True):
        exchange_tier(exchange)
        got = {
            r["doc_id"]: (round(r["avg_logp"], 10), r["n_bigrams"])
            for r in bigram_lm_scores(ds).take_all()
        }
        assert got == exp, exchange


def test_build_vocab_and_encode(ray_session):
    import pyarrow as pa
    import ray.data

    from dots_ocr_ray.pipelines.text_analysis import build_vocab, encode_token_ids

    docs = ray.data.from_arrow(
        pa.table(
            {
                "doc_id": pa.array([1, 2, 3], type=pa.int64()),
                "text": pa.array(
                    [
                        "the cat sat",
                        "the   dog  sat",  # multi-space: positions follow str.split()
                        "the rare",
                    ],
                    type=pa.string(),
                ),
            }
        )
    ).repartition(2)
    vocab = build_vocab(docs, vocab_size=3)
    # counts: the=3, sat=2, then ties (cat, dog, rare) broken by token asc
    assert vocab.column("token").to_pylist() == ["the", "sat", "cat"]
    assert vocab.column("token_id").to_pylist() == [1, 2, 3]

    out = encode_token_ids(docs, vocab).to_pandas().sort_values(["doc_id", "pos"])
    got = {
        d: list(g["token_id"]) for d, g in out.groupby("doc_id")
    }
    # unk -> 0: dog/rare are out-of-vocab
    assert got == {1: [1, 3, 2], 2: [1, 0, 2], 3: [1, 0]}
    assert list(out[out["doc_id"] == 2]["pos"]) == [1, 2, 3]


def test_validate_rows(ray_session):
    import pyarrow as pa
    import pyarrow.compute as pc
    import ray.data

    from dots_ocr_ray.functions.validate import validate_rows

    ds = ray.data.from_arrow(
        pa.table(
            {
                "doc_id": pa.array([1, 2, 3, 4], type=pa.int64()),
                "text": pa.array(["ok text", "", "x", "fine here"], type=pa.string()),
            }
        )
    ).repartition(2)
    out = validate_rows(
        ds,
        {
            "empty": lambda b: pc.equal(b.column("text"), ""),
            "tiny": lambda b: pc.less(pc.utf8_length(b.column("text")), 4),
        },
    ).take_all()
    got = {(r["doc_id"], r["rule"]) for r in out}
    assert got == {(2, "empty"), (2, "tiny"), (3, "tiny")}


def test_term_contexts(ray_session):
    """First-occurrence only, window clipping at both string edges,
    absent terms emit nothing."""
    import pyarrow as pa
    import ray.data

    from dots_ocr_ray.pipelines.text_analysis import term_contexts

    docs = ray.data.from_arrow(
        pa.table(
            {
                "doc_id": pa.array([1, 2, 3], type=pa.int64()),
                "text": pa.array(
                    [
                        "needle at the very start of this line",
                        "a needle then another needle later",
                        "nothing to see",
                    ]
                ),
            }
        )
    )
    got = sorted(
        term_contexts(docs, ["needle"], width=5).take_all(), key=lambda r: r["doc_id"]
    )
    assert [r["doc_id"] for r in got] == [1, 2]
    assert got[0]["pos"] == 0
    assert got[0]["context"] == "needle at t"  # clipped left, +5 right
    assert got[1]["pos"] == 2  # FIRST occurrence only
    assert got[1]["context"] == "a needle then"[: 2 + 6 + 5]


def test_host_reputation(ray_session):
    """Hand-computed per-host rollup over a synthetic extracted table."""
    import pyarrow as pa
    import ray.data

    from dots_ocr_ray.pipelines.text_analysis import host_reputation

    good = "the quick brown fox jumps over the lazy dog again"
    bad = "zz zz"  # < 5 words → quality drop
    tbl = pa.table(
        {
            "url": pa.array(
                [
                    "https://a.com/1",
                    "https://a.com/2",
                    "https://b.com/1",
                ]
            ),
            "lang": pa.array(["en", "de", "en"]),
            "status": pa.array(["finished", "failed", "finished"]),
            "extracted_text_nohf": pa.array([good, "", bad]),
        }
    )
    got = {r["host"]: r for r in host_reputation(ray.data.from_arrow(tbl)).take_all()}
    a, b = got["a.com"], got["b.com"]
    assert a["n_pages"] == 2 and a["n_finished"] == 1 and a["n_langs"] == 2
    assert a["n_quality_kept"] == 1 and a["sum_tokens"] == 10
    assert b["n_pages"] == 1 and b["n_quality_kept"] == 0 and b["sum_tokens"] == 2


def test_keyed_top_rollup_boundaries(ray_session):
    """Rollup stays exact when one hot key is spread over many blocks
    and partial counts for the same (key, sub) arrive split: totals,
    distinct counts and tie-broken top sub must match a sequential
    reduce; an empty input gives no rows."""
    import pandas as pd
    import ray.data

    from dots_ocr_ray.pipelines.rollup import keyed_top_rollup

    rows = []
    # hot key: 300 partial rows over 3 subs (ties on purpose: s0 and
    # s1 both reach 120, s0 wins lexicographically)
    for i in range(120):
        rows.append({"key": "hot", "sub": "s0", "c": 1})
        rows.append({"key": "hot", "sub": "s1", "c": 1})
    for i in range(60):
        rows.append({"key": "hot", "sub": "s2", "c": 1})
    # long tail: 50 keys with one sub each, split into two partials
    for k in range(50):
        rows.append({"key": f"tail-{k:02d}", "sub": "only", "c": 2})
        rows.append({"key": f"tail-{k:02d}", "sub": "only", "c": 3})
    ds = ray.data.from_items(rows).repartition(16)
    out = keyed_top_rollup(ds, key_col="key", sub_col="sub", count_col="c").to_pandas()

    df = pd.DataFrame(rows)
    expect_total = df.groupby("key")["c"].sum()
    assert len(out) == 51
    got = out.set_index("key").sort_index()
    assert (got["total"] == expect_total.sort_index()).all()
    hot = got.loc["hot"]
    assert hot["n_distinct"] == 3 and hot["top_sub"] == "s0" and hot["top_n"] == 120
    assert (got.drop("hot")["n_distinct"] == 1).all()
    assert (got.drop("hot")["top_n"] == 5).all()
    assert keyed_top_rollup(ds.limit(0)).count() == 0


def test_host_template_stats_grouping(ray_session):
    """Pages sharing a tag sequence collapse to one template; a page
    with an extra <img> forms a second template on its host."""
    import pyarrow as pa
    import ray.data

    from dots_ocr_ray.pipelines.text_analysis import host_template_stats

    def page(host, i, img=False):
        body = f"<p>text {i}</p>" + ("<img src='/x.png'>" if img else "")
        return {
            "url": f"https://{host}/p{i}",
            "html": f"<html><body>{body}</body></html>".encode(),
        }

    rows = [page("a.com", i) for i in range(5)] + [page("a.com", 99, img=True)]
    rows += [page("b.com", i) for i in range(3)]
    out = (
        host_template_stats(ray.data.from_items(rows))
        .to_pandas()
        .set_index("host")
        .sort_index()
    )
    assert out.loc["a.com", "n_pages"] == 6
    assert out.loc["a.com", "n_templates"] == 2
    assert out.loc["a.com", "top_template_n"] == 5
    assert out.loc["b.com", "n_templates"] == 1
    # same content-blind fingerprint on both hosts for the plain template
    assert out.loc["b.com", "top_template"] == out.loc["a.com", "top_template"]


def test_contamination_check_ignores_empty_probes(ray_session):
    import ray.data

    from dots_ocr_ray.pipelines.text_analysis import contamination_check

    corpus = ray.data.from_items(
        [{"doc_id": 1, "text": "clean document"}, {"doc_id": 2, "text": "needle here"}]
    )
    out = contamination_check(corpus, [(7, ""), (9, "needle")]).take_all()
    assert [(r["doc_id"], r["first_bench_id"]) for r in out] == [(2, 9)]


def test_term_contexts_multibyte_prefix_window(ray_session):
    """A multibyte prefix longer than the window must not shift the
    context slice off the matched term (byte offsets != char offsets)."""
    import ray.data

    from dots_ocr_ray.pipelines.text_analysis import term_contexts

    text = "é" * 30 + " needle here"
    ds = ray.data.from_items([{"doc_id": 1, "text": text}])
    out = term_contexts(ds, ["needle"], width=24).take_all()
    assert len(out) == 1 and "needle" in out[0]["context"]


def test_tfidf_empty_corpus(ray_session):
    import pyarrow as pa

    import ray.data

    from dots_ocr_ray.pipelines.text_analysis import tfidf_top_terms

    empty = ray.data.from_arrow(
        pa.table(
            {"doc_id": pa.array([], type=pa.int64()), "text": pa.array([], type=pa.string())}
        )
    )
    assert tfidf_top_terms(empty).count() == 0


def test_host_regex_accepts_uppercase_schemes(ray_session):
    import pyarrow as pa
    import pyarrow.compute as pc

    from dots_ocr_ray.pipelines.text_analysis import HOST_REGEX

    hosts = pc.struct_field(
        pc.extract_regex(
            pa.array(["HTTP://Example.com/p", "https://a.b/c"]), HOST_REGEX
        ),
        "host",
    )
    assert hosts.to_pylist() == ["Example.com", "a.b"]


def test_ngram_diversity_matches_sequential(ray_session):
    import ray.data

    from dots_ocr_ray.functions.sketches import HyperLogLog
    import pandas as pd

    from dots_ocr_ray.pipelines.text_analysis import ngram_diversity

    docs = ray.data.read_parquet(f"{SF_DIR}/documents.parquet", columns=["text"])
    out = {r["n"]: r for r in ngram_diversity(docs, max_n=3, p=14).take_all()}
    texts = pd.read_parquet(f"{SF_DIR}/documents.parquet", columns=["text"])["text"]
    for n in (1, 2, 3):
        hll = HyperLogLog(14)
        total = 0
        for t in texts:
            toks = (t or "").split()
            grams = [" ".join(toks[i : i + n]) for i in range(len(toks) - n + 1)]
            hll.add_many(grams)
            total += len(grams)
        assert out[n]["total_ngrams"] == total
        assert out[n]["approx_distinct"] == int(round(hll.count()))
    # n-gram windows never cross documents: total drops by exactly
    # (n-1) per non-short doc
    lens = [len((t or "").split()) for t in texts]
    assert out[2]["total_ngrams"] == sum(max(l - 1, 0) for l in lens)
    assert out[3]["total_ngrams"] == sum(max(l - 2, 0) for l in lens)


def test_fuzzy_vocab_match(ray_session):
    import ray.data

    from dots_ocr_ray.pipelines.text_analysis import fuzzy_vocab_match

    docs = ray.data.from_items(
        [
            {"text": "scan scan the table"},
            {"text": "scam is one edit from scan"},
            {"text": "xyzzy unrelated"},
        ]
    )
    out = fuzzy_vocab_match(docs, probes=["scan"], max_dist=1).to_pandas()
    got = {(r.token): (r.dist, r.n_occurrences) for r in out.itertuples()}
    assert got["scan"] == (0, 3)
    assert got["scam"] == (1, 1)
    assert "xyzzy" not in got
    assert "table" not in got


def test_bm25_scores_small_fixture(ray_session):
    import math

    import ray.data

    from dots_ocr_ray.pipelines.text_analysis import bm25_scores

    docs = ray.data.from_items(
        [
            {"doc_id": 1, "text": "data data base"},
            {"doc_id": 2, "text": "data"},
            {"doc_id": 3, "text": "other words entirely here"},
        ]
    ).repartition(2)
    out = {
        (r["doc_id"]): r
        for r in bm25_scores(docs, probes=["data"], k1=1.2, b=0.75).take_all()
    }
    assert set(out) == {1, 2}
    N, df, avgdl = 3, 2, 8 / 3
    for doc_id, tf, dl in [(1, 2, 3), (2, 1, 1)]:
        idf = math.log(1 + (N - df + 0.5) / (df + 0.5))
        exp = idf * tf * 2.2 / (tf + 1.2 * (1 - 0.75 + 0.75 * dl / avgdl))
        assert out[doc_id]["tf"] == tf
        assert abs(out[doc_id]["bm25"] - round(exp, 4)) < 1e-9


def test_vocab_edit_pairs_matches_bruteforce(ray_session):
    """SymSpell deletion blocking + verification == brute-force
    Levenshtein<=1 over the vocabulary, with no duplicate pairs
    (a true pair shares exactly one block key)."""
    import itertools

    import pyarrow as pa

    import ray.data
    from dots_ocr_ray.pipelines.text_analysis import vocab_edit_pairs

    def lev(a, b):
        # byte-level, matching DuckDB's levenshtein (utf-8 bytes:
        # levenshtein('née','nee') = 2 there, not 1)
        a, b = a.encode("utf-8"), b.encode("utf-8")
        if len(a) < len(b):
            a, b = b, a
        prev = list(range(len(b) + 1))
        for i, ca in enumerate(a, 1):
            cur = [i]
            for j, cb in enumerate(b, 1):
                cur.append(min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + (ca != cb)))
            prev = cur
        return prev[-1]

    vocab = [
        "cat", "cut", "cart", "ca", "act",  # sub, ins, del, transposition
        "dog", "dig", "dg", "dogs",
        "x", "y", "xy",
        "née", "nee",  # unicode
        "same", "same",  # duplicate rows collapse into one vocab entry
    ]
    texts = [" ".join(vocab)] * 3
    ds = ray.data.from_arrow(pa.table({"text": pa.array(texts, type=pa.string())}))
    out = vocab_edit_pairs(ds).to_pandas()
    got = set(zip(out.tok_a, out.tok_b))
    uniq = sorted(set(vocab))
    want = {
        (a, b)
        for a, b in itertools.combinations(uniq, 2)
        if lev(a, b) <= 1
    }
    assert got == want
    assert len(out) == len(got)  # no duplicate pair rows
    # counts ride through: every token appears 3x
    assert set(out.n_a) == {3} and set(out.n_b) == {3}


def test_vocab_edit_pairs_value_mode(ray_session):
    import pyarrow as pa

    import ray.data
    from dots_ocr_ray.pipelines.text_analysis import vocab_edit_pairs

    names = ["id-001", "id-002", "id-01", "other", "id-001"]
    ds = ray.data.from_arrow(pa.table({"name": pa.array(names, type=pa.string())}))
    out = vocab_edit_pairs(ds, text_col="name", tokenize=False).to_pandas()
    got = set(zip(out.tok_a, out.tok_b))
    # id-002/id-01 is distance 2 (substitute + delete) and must NOT pair
    assert got == {("id-001", "id-002"), ("id-001", "id-01")}
    n = dict(zip(out.tok_a, out.n_a)) | dict(zip(out.tok_b, out.n_b))
    assert n["id-001"] == 2 and n["id-002"] == 1


def test_token_pmi_manual_counts(ray_session):
    import math

    import ray.data

    from dots_ocr_ray.pipelines.text_analysis import token_pmi

    docs = [
        "a b",  # a,b together
        "a b",  # again -> n_ab(a,b)=2
        "a c",
        "b c",
        "d",  # vocab-free-ish filler (d still counts toward vocab)
        "",
    ]
    ds = ray.data.from_items([{"text": t} for t in docs])
    tbl = token_pmi(ds, top_v=4, min_pair=1)
    got = {
        (r["token_a"], r["token_b"]): (r["n_ab"], r["pmi"]) for r in tbl.to_pylist()
    }
    n = len(docs)
    # doc frequencies: a=3, b=3, c=2, d=1
    assert got[("a", "b")][0] == 2
    assert got[("a", "c")][0] == 1
    assert got[("b", "c")][0] == 1
    assert ("a", "d") not in got  # never co-occur
    assert got[("a", "b")][1] == round(math.log(2 * n / (3 * 3)), 9)
    assert got[("a", "c")][1] == round(math.log(1 * n / (3 * 2)), 9)

    # min_pair filter drops the singletons
    tbl2 = token_pmi(ds, top_v=4, min_pair=2)
    assert {(r["token_a"], r["token_b"]) for r in tbl2.to_pylist()} == {("a", "b")}


def test_token_pmi_vocab_restriction_and_dup_tokens(ray_session):
    import ray.data

    from dots_ocr_ray.pipelines.text_analysis import token_pmi

    # "x" repeated inside one doc must count once (document frequency);
    # top_v=2 keeps only the two most frequent tokens
    docs = ["x x x y z", "x y", "x y", "z q"]
    ds = ray.data.from_items([{"text": t} for t in docs])
    tbl = token_pmi(ds, top_v=2, min_pair=1)
    rows = tbl.to_pylist()
    assert {(r["token_a"], r["token_b"]) for r in rows} == {("x", "y")}
    assert rows[0]["n_ab"] == 3


def test_token_pmi_empty(ray_session):
    import ray.data

    from dots_ocr_ray.pipelines.text_analysis import token_pmi

    ds = ray.data.from_items([{"text": ""}, {"text": "   "}])
    tbl = token_pmi(ds, top_v=8, min_pair=1)
    assert tbl.num_rows == 0


def test_skipgram_cooc_manual_counts(ray_session):
    import ray.data

    from dots_ocr_ray.pipelines.text_analysis import skipgram_cooc

    # doc 1: "a b a c"  doc 2: "c a"
    ds = ray.data.from_items([{"text": "a b a c"}, {"text": "c a"}])
    out = skipgram_cooc(ds, top_v=10, window=2)
    got = {(r["token_a"], r["token_b"]): r["n"] for r in out.to_pylist()}
    # doc1 window-2 ordered pairs: (a,b) (a,a) (b,a) (b,c) (a,c); doc2: (c,a)
    assert got == {
        ("a", "b"): 1,
        ("a", "a"): 1,
        ("b", "a"): 1,
        ("b", "c"): 1,
        ("a", "c"): 1,
        ("c", "a"): 1,
    }


def test_skipgram_cooc_vocab_gaps_and_doc_boundary(ray_session):
    import ray.data

    from dots_ocr_ray.pipelines.text_analysis import skipgram_cooc

    # 'x' is out of the top-2 vocab but still occupies a position:
    # doc2's (a, b) sit at distance 3 across the x-gap — outside the
    # window — and the document boundary between the two rows must not
    # create (b, a).  doc1 pairs: (a,a)d1, (a,b)d1+d2+d2, (b,b)d1.
    ds = ray.data.from_items(
        [{"text": "a a b b x"}, {"text": "a x x b"}]
    )
    out = skipgram_cooc(ds, top_v=2, window=2)
    got = {(r["token_a"], r["token_b"]): r["n"] for r in out.to_pylist()}
    assert got == {("a", "a"): 1, ("a", "b"): 3, ("b", "b"): 1}
    # same result regardless of partitioning
    out2 = skipgram_cooc(
        ray.data.from_items(
            [{"text": "a a b b x"}, {"text": "a x x b"}]
        ).repartition(2),
        top_v=2,
        window=2,
    )
    got2 = {(r["token_a"], r["token_b"]): r["n"] for r in out2.to_pylist()}
    assert got2 == got


def test_zipf_fit_exact_line(ray_session):
    """A corpus whose top-V counts sit EXACTLY on c = e^2 / r gives
    slope −1, intercept 2, r2 1 in micro-units."""
    import ray.data

    from dots_ocr_ray.pipelines.text_analysis import zipf_fit

    # counts 8, 4, 2, 1 over ranks 1, 2, 4, 8 won't align; instead use
    # counts proportional to 1/r for r = 1, 2, 4 — ln-ln collinear
    docs = []
    for tok, cnt in (("a", 8), ("b", 4), ("c", 2), ("d", 1)):
        docs.extend({"text": tok} for _ in range(cnt))
    out = zipf_fit(ray.data.from_items(docs), top_v=4).to_pylist()[0]
    # ln c = ln 8 − 1·ln r exactly (ranks 1,2,4,8? no: ranks 1..4) —
    # counts 8,4,2,1 at ranks 1,2,3,4 are NOT collinear in ln-ln, so
    # just assert the exact mirror invariants: v, slope < 0, r2 ≤ 1e6
    assert out["v"] == 4
    assert out["slope_micro"] < 0
    assert 0 < out["r2_micro"] <= 1_000_000
    # sequential closed-form mirror
    import numpy as np

    x = np.log(np.arange(1, 5, dtype=np.float64))
    y = np.log(np.array([8, 4, 2, 1], dtype=np.float64))
    n = 4.0
    sx, sy, sxy, sxx = x.sum(), y.sum(), (x * y).sum(), (x * x).sum()
    slope = (n * sxy - sx * sy) / (n * sxx - sx * sx)
    assert out["slope_micro"] == round(slope * 1_000_000)


def test_zipf_fit_degenerate(ray_session):
    import ray.data

    from dots_ocr_ray.pipelines.text_analysis import zipf_fit

    out = zipf_fit(ray.data.from_items([{"text": "only"}]), top_v=4).to_pylist()[0]
    assert out["v"] == 1 and out["slope_micro"] is None


def test_readability_scores(ray_session):
    import pyarrow as pa

    import ray.data

    from dots_ocr_ray.pipelines.text_analysis import readability_scores

    tbl = pa.table(
        {
            "doc_id": [1, 2, 3],
            "text": pa.array(
                ["One two three. Four five!", "", "no sentence marks here"],
                pa.string(),
            ),
        }
    )
    out = (
        readability_scores(ray.data.from_arrow(tbl))
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    assert out["n_words"].tolist() == [5, 0, 4]
    assert out["n_sentences"].tolist() == [2, 1, 1]  # floored at 1
    # vowel groups: O,e | o | ee | ou | i,e → 2+1+1+1+2 = 7
    assert out["n_syllables"][0] == 7
    # exact float mirror: 206.835 - 1.015*(5/2) - 84.6*(7/5), micro-floored
    assert out["flesch_micro"][0] == int(
        (206835000.0 - 1015000.0 * 5 / 2 - 84600000.0 * 7 / 5) // 1
    )
    assert out["flesch_micro"][1] == 206835000  # empty text: w=0, terms vanish


def test_welch_t_by_category(ray_session):
    import numpy as np
    import pyarrow as pa

    import ray.data

    from dots_ocr_ray.pipelines.drift import welch_t_by_category

    # lang 'a': even-id values [10,20,30], odd-id values [40,50] —
    # classic hand-checkable Welch; lang 'b' has n<2 in one half → dropped
    tbl = pa.table(
        {
            "doc_id": [0, 2, 4, 1, 3, 6, 7],
            "lang": ["a", "a", "a", "a", "a", "b", "b"],
            "n_chars": [10, 20, 30, 40, 50, 5, 6],
        }
    )
    out = welch_t_by_category(ray.data.from_arrow(tbl).repartition(3)).to_pandas()
    assert out["lang"].tolist() == ["a"]
    x0 = np.array([10, 20, 30.0])
    x1 = np.array([40, 50.0])
    se0 = x0.var(ddof=1) / 3
    se1 = x1.var(ddof=1) / 2
    t = (x0.mean() - x1.mean()) / np.sqrt(se0 + se1)
    df = (se0 + se1) ** 2 / (se0**2 / 2 + se1**2 / 1)
    assert abs(out["t_micro"][0] - int(np.floor(1e6 * t))) <= 1
    assert abs(out["df_micro"][0] - int(np.floor(1e6 * df))) <= 1


def test_token_entropy(ray_session):
    import numpy as np
    import pyarrow as pa

    import ray.data

    from dots_ocr_ray.pipelines.text_analysis import token_entropy

    tbl = pa.table(
        {
            "doc_id": [1, 2, 3, 4],
            "text": [
                "a b c d",          # 4 distinct → H = 2 bits
                "a a a a",          # 1 token repeated → H = 0
                "x x y y",          # 2×2 → H = 1 bit
                "   ",              # no tokens → dropped
            ],
        }
    )
    out = (
        token_entropy(ray.data.from_arrow(tbl).repartition(2))
        .to_pandas()
        .set_index("doc_id")
    )
    assert 4 not in out.index
    assert out.loc[1, "n_tokens"] == 4 and out.loc[1, "entropy_micro"] == 2_000_000
    assert out.loc[2, "entropy_micro"] == 0
    # quantized: floor(1e6*log2(4)) - (2*floor(1e6*2*log2 2)) // 4
    want3 = 2_000_000 - (2 * int(np.floor(1e6 * 2 * np.log2(2)))) // 4
    assert out.loc[3, "entropy_micro"] == want3 == 1_000_000


# --- Kneser-Ney ----------------------------------------------------------------

def test_kn_bigram_hand_computed(ray_session):
    import pyarrow as pa
    import ray.data

    from dots_ocr_ray.pipelines.text_analysis import kn_bigram_probs

    # corpus bigrams: (a b) x2, (b a) x1, (b c) x1
    t = pa.table({"text": pa.array(["a b a b c"], type=pa.string())})
    out = {(r["w1"], r["w2"]): r for r in kn_bigram_probs(
        ray.data.from_arrow(t), top_n=10
    ).to_pylist()}
    # N types = 3; c1(a)=2, N1l(a)=1; c1(b)=2, N1l(b)=2; N1r(b)=1
    # P(b|a) = ((4*2-3)*3 + 3*1*1) / (4*2*3) = (15+3)/24 = 0.75
    assert out[("a", "b")]["c12"] == 2
    assert out[("a", "b")]["p_micro"] == 750_000
    # P(c|b): c12=1, N1r(c)=1, N1l(b)=2 -> ((1)*3 + 3*2*1)/(4*2*3) = 9/24
    assert out[("b", "c")]["p_micro"] == 375_000


def test_kn_bigram_partition_invariant(ray_session):
    import pyarrow as pa
    import ray.data

    from dots_ocr_ray.pipelines.text_analysis import kn_bigram_probs

    texts = [f"x{i % 5} y{i % 3} x{i % 5} z" for i in range(60)]
    t = pa.table({"text": pa.array(texts, type=pa.string())})
    a = kn_bigram_probs(ray.data.from_arrow(t).repartition(1), top_n=8).to_pylist()
    b = kn_bigram_probs(ray.data.from_arrow(t).repartition(6), top_n=8).to_pylist()
    assert a == b


# --- negative sampling -----------------------------------------------------------

def test_negative_samples_distribution_and_determinism(ray_session):
    import collections

    import pyarrow as pa
    import ray.data

    from dots_ocr_ray.pipelines.text_analysis import negative_samples

    # 'common' dominates the noise distribution -> most negatives
    texts = ["common " * 50 + "rare one two", "common common three"]
    t = pa.table({"text": pa.array(texts, type=pa.string())})
    out = negative_samples(ray.data.from_arrow(t), k=5).to_pylist()
    # every token is a center with exactly k draws
    centers = collections.Counter(r["center"] for r in out)
    assert set(centers) == {"common", "rare", "one", "two", "three"}
    assert all(v == 5 for v in centers.values())
    negs = collections.Counter(r["negative"] for r in out)
    assert negs["common"] > sum(v for k_, v in negs.items() if k_ != "common")
    # determinism across runs and partitioning
    out2 = negative_samples(ray.data.from_arrow(t).repartition(2), k=5).to_pylist()
    assert sorted(map(tuple, (r.values() for r in out))) == sorted(
        map(tuple, (r.values() for r in out2))
    )


def test_unigram_sampling_table(ray_session):
    import math

    import pyarrow as pa
    import ray.data

    from dots_ocr_ray.pipelines.text_analysis import unigram_sampling_table

    t = pa.table({"text": pa.array(["a a a a b"], type=pa.string())})
    vocab, cum = unigram_sampling_table(ray.data.from_arrow(t))
    assert vocab == ["a", "b"]
    wa = math.floor(1e6 * 4 ** 0.75)
    assert cum.tolist() == [wa, wa + 1_000_000]


# --- Cohen's kappa ---------------------------------------------------------------

def test_cohens_kappa_closed_forms():
    import pyarrow as pa

    from dots_ocr_ray.pipelines.text_analysis import cohens_kappa

    def conf(rows):
        return pa.table(
            {
                "lang": pa.array([r[0] for r in rows], type=pa.string()),
                "lang_pred": pa.array([r[1] for r in rows], type=pa.string()),
                "n": pa.array([r[2] for r in rows], type=pa.int64()),
            }
        )

    # perfect agreement -> kappa = 1
    out = cohens_kappa(conf([("a", "a", 10), ("b", "b", 10)])).to_pylist()[0]
    assert out["kappa_micro"] == 1_000_000 and out["po_micro"] == 1_000_000
    # textbook 2x2: po = 0.7, pe = 0.5 -> kappa = 0.4
    out = cohens_kappa(
        conf([("a", "a", 20), ("a", "b", 5), ("b", "a", 10), ("b", "b", 15)])
    ).to_pylist()[0]
    assert out["po_micro"] == 700_000
    assert out["pe_micro"] == 500_000
    assert out["kappa_micro"] == 400_000
    # agreement below chance -> negative kappa
    out = cohens_kappa(conf([("a", "b", 10), ("b", "a", 10)])).to_pylist()[0]
    assert out["kappa_micro"] < 0
    # empty table
    assert cohens_kappa(conf([])).to_pylist()[0]["n"] == 0


def test_contamination_engines_parity(ray_session):
    """The rabin_karp large-probe engine must agree exactly with the
    per-probe match_substring engine on the same corpus + probe set,
    including multi-entry probes, unicode, and cross-doc boundaries."""
    import pandas as pd
    import ray.data

    from dots_ocr_ray.pipelines.text_analysis import contamination_check

    docs = ray.data.read_parquet(
        f"{SF_DIR}/documents.parquet", columns=["doc_id", "text"]
    )
    raw = pd.read_parquet(f"{SF_DIR}/documents.parquet", columns=["doc_id", "text"])
    bench = raw[raw.doc_id % 53 == 5]
    probes = [
        (int(r.doc_id), " ".join((r.text or "").split()[:4]))
        for r in bench.itertuples()
    ]
    # duplicate one probe text under two bench ids + a unicode probe
    if probes:
        probes.append((probes[0][0] + 1_000_000, probes[0][1]))
    probes.append((999_999, "ünïcode nëedle"))

    def _tbl(engine):
        t = contamination_check(docs, probes, engine=engine).to_pandas()
        return t.sort_values("doc_id").reset_index(drop=True)

    a = _tbl("substring")
    b = _tbl("rabin_karp")
    assert a.equals(b)
    assert len(a) > 0


def test_rk_scan_kernel_edges():
    """Kernel-level edge cases for the Rabin-Karp scan: probes that
    span a document boundary must NOT match; empty texts; probes
    longer than every document."""
    from dots_ocr_ray.pipelines.text_analysis import _rk_probe_index, _rk_scan_batch

    texts = ["abc", "", "defg", "zabcz"]
    # "cd" spans docs 0|2 in the concatenated buffer — must not match
    idx = _rk_probe_index(sorted([(1, "abc"), (2, "cd"), (3, "defg"), (4, "longer-than-any-doc-here")]))
    res = _rk_scan_batch(texts, idx)
    assert res[0] == (1, 1)          # "abc"
    assert res[1] == (0, -1)         # empty
    assert res[2] == (1, 3)          # "defg"
    assert res[3] == (1, 1)          # contains "abc"


def test_eb_shrunken_rates(ray_session):
    """Beta-binomial shrinkage pulls small-n keys toward the grand
    mean, leaves large-n keys nearly raw, sums split partials exactly,
    and degenerates to raw rates when variance says no prior."""
    import pyarrow as pa
    import ray.data

    from dots_ocr_ray.pipelines.text_analysis import eb_shrunken_rates

    # three hosts with very different evidence; host 1 split across
    # partial rows on purpose
    t = pa.table(
        {
            "host": pa.array([1, 1, 2, 3], type=pa.int64()),
            "n": pa.array([500, 500, 2, 100], type=pa.int64()),
            "k": pa.array([240, 240, 2, 10], type=pa.int64()),
        }
    )
    out = {
        r["host"]: r
        for r in eb_shrunken_rates(
            ray.data.from_arrow(t).repartition(3), key_col="host"
        ).take_all()
    }
    assert out[1]["n"] == 1000 and out[1]["k"] == 480  # partials summed
    assert out[1]["raw_micro"] == 480_000
    assert out[2]["raw_micro"] == 1_000_000
    assert out[3]["raw_micro"] == 100_000
    # the 2/2 host shrinks far toward the mean; the 1000-doc host barely
    assert out[2]["shrunk_micro"] < 900_000
    assert abs(out[1]["shrunk_micro"] - 480_000) < abs(
        out[2]["shrunk_micro"] - 1_000_000
    )
    # monotone: more evidence at the same raw rate → less shrinkage
    # no-shrink edge: a single key has zero variance → raw rates
    t1 = pa.table(
        {
            "host": pa.array([7], type=pa.int64()),
            "n": pa.array([3], type=pa.int64()),
            "k": pa.array([2], type=pa.int64()),
        }
    )
    r = eb_shrunken_rates(ray.data.from_arrow(t1), key_col="host").take_all()[0]
    assert r["shrunk_micro"] == r["raw_micro"] == 666_666


def test_vocab_coverage_hand_computed(ray_session):
    import pyarrow as pa
    import ray.data

    from dots_ocr_ray.pipelines.text_analysis import vocab_coverage

    # tokens: a a a b b c d e -> N=8 V=5 N1=3 (c d e) N2=1 (b)
    t = pa.table(
        {"text": pa.array(["a a a b", "b c", "d  e"], type=pa.string())}
    )
    out = vocab_coverage(ray.data.from_arrow(t).repartition(3)).to_pylist()[0]
    assert out["n_tokens"] == 8
    assert out["vocab"] == 5
    assert out["hapax"] == 3 and out["dis"] == 1
    assert out["unseen_mass_micro"] == (1_000_000 * 3) // 8
    assert out["chao1_micro"] == 1_000_000 * 5 + (1_000_000 * 3 * 2) // (2 * 2)


def test_drift_js_bounded_and_symmetric(ray_session):
    """JS terms are finite, each <= ln(2)/2 after smoothing, and the
    total is symmetric in the snapshot halves by construction."""
    import math

    from dots_ocr_ray.pipelines.drift import distribution_drift_js

    t = distribution_drift_js(SF_DIR, category="lang")
    terms = t.column("js_term").to_pylist()
    assert all(x >= 0 for x in terms)
    assert sum(terms) <= math.log(2) + 1e-9


def test_token_burstiness_hand_computed(ray_session):
    import pyarrow as pa
    import ray.data

    from dots_ocr_ray.pipelines.text_analysis import token_burstiness

    # "hot" appears 3x in each of 2 docs (tf 6, df 2 -> burst 3.0);
    # "flat" once in each of 3 docs (burst 1.0); "rare" df 1 filtered
    docs = ray.data.from_arrow(
        pa.table(
            {
                "doc_id": pa.array([1, 2, 3], type=pa.int64()),
                "text": pa.array(
                    [
                        "hot hot hot flat rare",
                        "hot hot hot flat",
                        "flat",
                    ],
                    type=pa.string(),
                ),
            }
        )
    ).repartition(2)
    out = token_burstiness(docs, min_df=2, k=10).to_pylist()
    rows = {r["token"]: r for r in out}
    assert set(rows) == {"hot", "flat"}
    assert rows["hot"]["tf"] == 6 and rows["hot"]["df"] == 2
    assert rows["hot"]["burst_micro"] == 3_000_000
    assert rows["flat"]["burst_micro"] == 1_000_000
    assert out[0]["token"] == "hot"  # burst DESC ordering


def test_category_diversity_hand_computed(ray_session):
    import pyarrow as pa
    import ray.data

    from dots_ocr_ray.pipelines.text_analysis import category_diversity

    # counts: a=4, b=4 -> N=8; simpson = (12+12)/(8*7); inv = 64/32 = 2
    t = pa.table({"lang": pa.array(["a"] * 4 + ["b"] * 4, type=pa.string())})
    out = category_diversity(
        ray.data.from_arrow(t).repartition(3), category_col="lang"
    ).to_pylist()[0]
    assert out["n_categories"] == 2 and out["n_rows"] == 8
    assert out["simpson_micro"] == (1_000_000 * 24) // 56
    assert out["inv_simpson_micro"] == 2_000_000
    # monoculture: simpson = 1e6, effective count = 1
    t1 = pa.table({"lang": pa.array(["x"] * 5, type=pa.string())})
    o1 = category_diversity(ray.data.from_arrow(t1), category_col="lang").to_pylist()[0]
    assert o1["simpson_micro"] == 1_000_000
    assert o1["inv_simpson_micro"] == 1_000_000
