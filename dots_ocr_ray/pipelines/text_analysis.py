"""Text-analysis pipelines over the documents table: language ID,
quality scoring, token counting, fingerprinting — the per-document
annotation ops a training-data pipeline runs at corpus scale.

All are a single stateless vectorizable ``map_batches`` (regexes are
module-level compiled = warm on every worker); aggregates are keyed
folds (``util.bucket_keyed_fold``).
"""

from __future__ import annotations

import pyarrow as pa

import ray.data

from dots_ocr_ray import util
from dots_ocr_ray.kernel.textops import (
    count_tokens_bpeish,
    count_tokens_whitespace,
    detect_lang,
    fingerprint,
    quality_features,
    quality_keep,
)
from dots_ocr_ray.util import GOLDEN64, split_whitespace_checked

# one shared host-extraction rule: schemes are case-insensitive per
# RFC 3986 and raw crawl urls do arrive uppercase — a lowercase-only
# match silently merged those pages into a junk "" host bucket
HOST_REGEX = r"^[A-Za-z][A-Za-z0-9+.-]*://(?P<host>[^/]+)"


ALL_FEATURES = ("lang", "tokens", "quality", "fingerprint")
"""Feature families: "tokens" computes both counters; "tokens_ws" /
"tokens_bpe" select a single counter."""


def annotate_documents(
    ds: ray.data.Dataset,
    text_col: str = "text",
    *,
    features: tuple[str, ...] = ALL_FEATURES,
) -> ray.data.Dataset:
    """Add lang_pred / quality / token-count / fingerprint columns.

    ``features`` selects which (heuristic, per-string Python) feature
    families to compute — an aggregate that needs only token counts
    should not pay for language-ID and winnowing fingerprints on every
    document (they are the dominant per-row cost at corpus scale)."""
    want = frozenset(features)

    def _ws_counts(col: pa.ChunkedArray | pa.Array) -> pa.Array:
        """Vectorized len(text.split()) via the end-to-end canaried
        kernel chain (util.ws_token_counts_checked).  Parity with
        ``count_tokens_whitespace`` is pinned by test_text_analysis."""
        from dots_ocr_ray.util import ws_token_counts_checked

        return pa.array(ws_token_counts_checked(col), type=pa.int64())

    def _annotate(batch: pa.Table) -> pa.Table:
        # Python string list only for the per-string heuristic families;
        # a tokens_ws-only annotate stays fully vectorized
        if want - {"tokens_ws"}:
            texts = [t or "" for t in batch.column(text_col).to_pylist()]
        if "lang" in want:
            batch = batch.append_column(
                "lang_pred", pa.array([detect_lang(t) for t in texts], type=pa.string())
            )
        if "tokens" in want or "tokens_ws" in want:
            batch = batch.append_column("n_tokens_ws", _ws_counts(batch.column(text_col)))
        if "tokens" in want or "tokens_bpe" in want:
            batch = batch.append_column(
                "n_tokens_bpe", pa.array([count_tokens_bpeish(t) for t in texts], type=pa.int64())
            )
        if "quality" in want:
            feats = [quality_features(t) for t in texts]
            batch = (
                batch.append_column("punct_ratio", pa.array([f["punct_ratio"] for f in feats], type=pa.float64()))
                .append_column("alpha_ratio", pa.array([f["alpha_ratio"] for f in feats], type=pa.float64()))
                .append_column("stopword_ratio", pa.array([f["stopword_ratio"] for f in feats], type=pa.float64()))
                .append_column("mean_word_len", pa.array([f["mean_word_len"] for f in feats], type=pa.float64()))
                .append_column("quality_keep", pa.array([quality_keep(f) for f in feats], type=pa.bool_()))
            )
        if "fingerprint" in want:
            batch = batch.append_column(
                "fingerprint", pa.array([fingerprint(t) for t in texts], type=pa.uint64())
            )
        return batch

    return ds.map_batches(_annotate, batch_format="pyarrow")


def token_count_by_lang(sf_dir: str) -> ray.data.Dataset:
    """Per-lang token totals (whitespace tokenizer) over documents."""
    from dots_ocr_ray.util import bucket_keyed_fold

    docs = ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text", "lang"])
    annotated = annotate_documents(docs, features=("tokens",))
    return bucket_keyed_fold(
        annotated, "lang", {"sum_tokens_ws": ("sum", "n_tokens_ws"), "sum_tokens_bpe": ("sum", "n_tokens_bpe")}
    )


def quality_filter(sf_dir: str) -> ray.data.Dataset:
    """Documents that pass the quality keep-rule, with their features."""
    docs = ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text", "lang"])
    annotated = annotate_documents(docs, features=("tokens_ws", "quality"))

    def _keep(batch: pa.Table) -> pa.Table:
        return batch.filter(batch.column("quality_keep"))

    return annotated.map_batches(_keep, batch_format="pyarrow").select_columns(
        ["doc_id", "lang", "n_tokens_ws", "alpha_ratio", "mean_word_len"]
    )


def lang_id_confusion(sf_dir: str) -> ray.data.Dataset:
    """(declared lang, predicted lang, count) — a confusion table for
    the n-gram language-ID heuristic."""
    from dots_ocr_ray.util import bucket_keyed_fold

    docs = ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text", "lang"])
    annotated = annotate_documents(docs, features=("lang",))
    return bucket_keyed_fold(annotated, ["lang", "lang_pred"], {"n": ("count", None)})


def fingerprint_duplicates(sf_dir: str) -> ray.data.Dataset:
    """Groups of documents sharing a winnowing fingerprint (shift-robust
    near-dup signal): (fingerprint, n_docs, min_doc_id) for groups >1."""
    docs = ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    annotated = annotate_documents(docs, features=("fingerprint",))

    # coarse 256-way exchange on hash(fingerprint) + a vectorized
    # run-length fold (lexsort, filter runs > 1, min doc = run head) —
    # one Python call per coarse bucket, never per fingerprint group
    import numpy as np

    from dots_ocr_ray.util import bucket_exchange

    def _group(group: pa.Table) -> pa.Table:
        fp = group.column("fingerprint").to_numpy(zero_copy_only=False).astype(np.uint64)
        ids = group.column("doc_id").to_numpy(zero_copy_only=False).astype(np.int64)
        empty = pa.table(
            {
                "fingerprint": pa.array([], type=pa.uint64()),
                "n_docs": pa.array([], type=pa.int64()),
                "min_doc_id": pa.array([], type=pa.int64()),
            }
        )
        if len(fp) < 2:
            return empty
        order = np.lexsort((ids, fp))
        fp, ids = fp[order], ids[order]
        new_run = np.ones(len(fp), dtype=bool)
        new_run[1:] = fp[1:] != fp[:-1]
        starts = np.flatnonzero(new_run)
        lens = np.diff(np.concatenate([starts, [len(fp)]]))
        keep = lens > 1
        if not keep.any():
            return empty
        return pa.table(
            {
                "fingerprint": pa.array(fp[starts[keep]], type=pa.uint64()),
                "n_docs": pa.array(lens[keep].astype(np.int64), type=pa.int64()),
                "min_doc_id": pa.array(ids[starts[keep]], type=pa.int64()),
            }
        )

    return bucket_exchange(
        annotated.select_columns(["fingerprint", "doc_id"]), "fingerprint", _group, num_buckets=256
    )


_RK_BASE = 0x100000001B3  # odd → invertible mod 2^64 (FNV prime)


def _rk_probe_index(plist: list[tuple[int, str]]):
    """Driver-side prep for the multi-pattern Rabin-Karp engine:
    unique probes grouped by byte length; per length a SORTED uint64
    hash array plus a hash → [(probe_bytes, [bench_ids])] collision
    map for exact verification."""
    import numpy as np

    by_probe: dict[bytes, list[int]] = {}
    for bench_id, probe in plist:  # ascending bench_id
        by_probe.setdefault(probe.encode("utf-8"), []).append(bench_id)
    by_len: dict[int, dict] = {}
    B = _RK_BASE
    for pb, benches in by_probe.items():
        L = len(pb)
        h = 0
        for byte in pb:
            h = (h * B + byte) & 0xFFFFFFFFFFFFFFFF
        ent = by_len.setdefault(L, {"hashes": [], "verify": {}})
        ent["hashes"].append(h)
        ent["verify"].setdefault(h, []).append((pb, benches))
    classes = {}
    for L, ent in by_len.items():
        classes[L] = (
            np.sort(np.array(sorted(set(ent["hashes"])), dtype=np.uint64)),
            ent["verify"],
        )
    return {"classes": classes, "benches": by_probe}


def _rk_scan_batch(
    texts: list, probe_index: dict
) -> list[tuple[int, int]]:
    """Vectorized multi-pattern scan of one batch: texts concatenate
    into ONE byte buffer (0x00-separated; candidates crossing a
    boundary are killed at verification), a single cumulative
    power-weighted prefix sum serves EVERY probe-length class — window
    hash(i, L) = (S[i+L-1] − S[i-1]) · B^{i+L-1} with S[j] =
    Σ_{t≤j} byte[t]·B^{−t} (mod 2^64, B odd so invertible) against the
    class's sorted probe hashes — and only hash hits pay a Python
    verify.  Returns per-doc (n_probe_hits, first_bench_id) with the
    same semantics as the per-probe ``match_substring`` loop."""
    import numpy as np

    from dots_ocr_ray.util import sorted_membership

    classes = probe_index["classes"]
    benches_of = probe_index["benches"]
    bufs = [(t or "").encode("utf-8") for t in texts]
    results = [(0, -1)] * len(bufs)
    if not classes:
        return results
    big = b"\x00".join(bufs)
    n = len(big)
    if n == 0:
        return results
    data = np.frombuffer(big, dtype=np.uint8).astype(np.uint64)
    # doc k occupies [starts[k], starts[k] + len(bufs[k]))
    lens = np.array([len(b) for b in bufs], dtype=np.int64)
    starts = np.concatenate([[0], np.cumsum(lens[:-1] + 1)])
    B = np.uint64(_RK_BASE)
    Binv = np.uint64(pow(_RK_BASE, -1, 1 << 64))
    with np.errstate(over="ignore"):
        # pow_f[j] = B^j, pow_i[j] = B^-j (mod 2^64, wraparound exact)
        pow_f = np.ones(n, dtype=np.uint64)
        pow_f[1:] = B
        np.cumprod(pow_f, out=pow_f)
        pow_i = np.ones(n, dtype=np.uint64)
        pow_i[1:] = Binv
        np.cumprod(pow_i, out=pow_i)
        # S[i] = Σ_{j<=i} data[j]·B^{-j}; hash(i,L) = (S[i+L-1]−S[i-1])·B^{i+L-1}
        S = np.cumsum(data * pow_i, dtype=np.uint64)
    matched: dict[int, set[bytes]] = {}
    for L, (hash_sorted, verify) in classes.items():
        if L > n:
            continue
        with np.errstate(over="ignore"):
            tails = S[L - 1 :]
            heads = np.concatenate([np.zeros(1, dtype=np.uint64), S[: n - L]])
            win = (tails - heads) * pow_f[L - 1 :]
        cand = np.flatnonzero(sorted_membership(hash_sorted, win))
        for p in cand.tolist():
            # kill windows that cross a document boundary
            k = int(np.searchsorted(starts, p, side="right")) - 1
            if p + L > starts[k] + lens[k]:
                continue
            frag = big[p : p + L]
            h = int(win[p])
            for pb, benches in verify.get(h, ()):
                if pb == frag:
                    matched.setdefault(k, set()).add(pb)
    # per-doc rollup with per-entry multiplicity parity:
    # n_probe_hits counts probe ENTRIES, first = min matching bench_id
    out = list(results)
    for k, probes_hit in matched.items():
        n_hits = 0
        first = -1
        for pb in probes_hit:
            benches = benches_of[pb]
            n_hits += len(benches)
            first = benches[0] if first < 0 else min(first, benches[0])
        out[k] = (n_hits, first)
    return out


def contamination_check(
    corpus: ray.data.Dataset,
    probes: list[tuple[int, str]],
    *,
    text_col: str = "text",
    id_col: str = "doc_id",
    engine: str = "auto",
) -> ray.data.Dataset:
    """Benchmark decontamination scan: flag corpus documents containing
    any benchmark probe string (the n-gram-overlap test a training-data
    pipeline runs against eval sets before training).

    ``probes`` is a list of (bench_id, probe_text), broadcast once via
    ``ray.put``.  Two exact engines behind one contract:

    * ``substring`` — one vectorized ``pc.match_substring`` kernel
      pass per probe (zero Python per row).  Right for small suites;
      cost grows O(probes · corpus bytes).
    * ``rabin_karp`` — the large-probe path: multi-pattern Rabin-Karp
      (one O(n) rolling-hash pass per distinct probe-LENGTH class over
      each batch's concatenated bytes, sorted-array membership for the
      whole probe set at once, Python only on verified hash hits).
      The classic Aho-Corasick automaton answers the same query in one
      pass but its per-character state transitions cannot vectorize in
      numpy — RK fingerprinting is the vectorizable equivalent, exact
      after verification.
    * ``auto`` (default) — ``substring`` under 256 probes, else
      ``rabin_karp``.

    Output: (doc_id, n_probe_hits, first_bench_id) for contaminated
    docs only — n_probe_hits counts matching probe entries,
    first_bench_id is the smallest matching bench_id."""
    import numpy as np
    import pyarrow.compute as pc

    import ray

    from dots_ocr_ray.util import cached_object

    # empty probe strings match every document (pc.match_substring('',
    # any) is True) — one blank bench row would flag the whole corpus
    probes = [(b, p) for b, p in probes if p]
    if engine == "auto":
        engine = "substring" if len(probes) < 256 else "rabin_karp"
    if engine not in ("substring", "rabin_karp"):
        raise ValueError(f"unknown engine {engine!r}")

    if engine == "rabin_karp":
        index_ref = ray.put(_rk_probe_index(sorted(probes)))

        def _scan_rk(batch: pa.Table) -> pa.Table:
            probe_index = cached_object(index_ref)
            texts = batch.column(text_col).to_pylist()
            res = _rk_scan_batch(texts, probe_index)
            hits = np.array([r[0] for r in res], dtype=np.int64)
            first = np.array([r[1] for r in res], dtype=np.int64)
            keep = hits > 0
            return pa.table(
                {
                    "doc_id": batch.column(id_col).filter(pa.array(keep)),
                    "n_probe_hits": pa.array(hits[keep], type=pa.int64()),
                    "first_bench_id": pa.array(first[keep], type=pa.int64()),
                }
            )

        return corpus.map_batches(_scan_rk, batch_format="pyarrow")

    probes_ref = ray.put(sorted(probes))

    def _scan(batch: pa.Table) -> pa.Table:
        plist = cached_object(probes_ref)
        texts = batch.column(text_col)
        n = len(texts)
        hits = np.zeros(n, dtype=np.int64)
        first = np.full(n, -1, dtype=np.int64)
        for bench_id, probe in plist:  # ascending bench_id
            m = pc.fill_null(pc.match_substring(texts, probe), False)
            mask = m.to_numpy(zero_copy_only=False).astype(bool)
            hits += mask
            first = np.where(mask & (first < 0), bench_id, first)
        keep = hits > 0
        return pa.table(
            {
                "doc_id": batch.column(id_col).filter(pa.array(keep)),
                "n_probe_hits": pa.array(hits[keep], type=pa.int64()),
                "first_bench_id": pa.array(first[keep], type=pa.int64()),
            }
        )

    return corpus.map_batches(_scan, batch_format="pyarrow")


def top_bigrams(
    ds: ray.data.Dataset,
    *,
    text_col: str = "text",
    k: int = 20,
) -> pa.Table:
    """Top-k bigram collocations with PMI — the phrase-mining scan run
    before tokenizer/vocab construction.

    ONE read and ONE term-keyed fold: each batch emits its unigrams
    (kind "u"), in-document adjacent bigrams (kind "b"), and two
    sentinel total rows (kind "tu"/"tb"), all summed per (kind, term).  Totals therefore ride the same
    aggregate instead of a second pass.  The driver touches only the
    bounded pieces: top-k bigram rows (sort on the aggregated side +
    limit) and the ≤2k component-token unigram counts (semi-join by
    broadcast token set).

    PMI = ln( (c_ab/N_bigrams) / ((c_a/N_tokens)·(c_b/N_tokens)) ),
    rounded to 4 decimals; ranking is by count (desc, bigram asc) so
    float noise can never reorder rows."""
    import numpy as np
    import pyarrow.compute as pc

    import ray

    from dots_ocr_ray.util import bucket_keyed_fold, cached_object

    def _partials(batch: pa.Table) -> pa.Table:
        lists = split_whitespace_checked(batch.column(text_col))
        toks = pc.list_flatten(lists)
        parents = pc.list_parent_indices(lists)
        mask = pc.not_equal(toks, "")
        toks, parents = toks.filter(mask), parents.filter(mask)
        if isinstance(toks, pa.ChunkedArray):
            toks = toks.combine_chunks()
        par_np = parents.to_numpy(zero_copy_only=False)
        n = len(toks)
        # bigrams: adjacent positions sharing a parent doc
        adj = pa.array(par_np[:-1] == par_np[1:] if n >= 2 else np.zeros(0, bool))
        left = toks.slice(0, max(n - 1, 0)).filter(adj)
        right = toks.slice(1, max(n - 1, 0)).filter(adj)
        bigrams = pc.binary_join_element_wise(left, right, " ")
        nb = len(bigrams)
        return pa.table(
            {
                "kind": pa.concat_arrays(
                    [pa.repeat("u", n), pa.repeat("b", nb), pa.array(["tu", "tb"])]
                ),
                "term": pa.concat_arrays([toks, bigrams, pa.array(["", ""], type=pa.string())]),
                "n": pa.concat_arrays(
                    [pa.repeat(1, n + nb).cast(pa.int64()), pa.array([n, nb], type=pa.int64())]
                ),
            }
        )

    # materialize once: the aggregate is traversed three times below
    # (totals, top-k bigrams, component unigrams) and is term-level —
    # vocabulary-bounded, far smaller than the corpus
    agg = bucket_keyed_fold(
        ds.map_batches(_partials, batch_format="pyarrow"), ["kind", "term"], {"n": ("sum", "n")}
    ).materialize()

    def _kind(batch: pa.Table, which: str) -> pa.Table:
        return batch.filter(pc.equal(batch.column("kind"), which))

    totals = {
        r["kind"]: r["n"]
        for r in agg.map_batches(
            lambda b: b.filter(pc.is_in(b.column("kind"), value_set=pa.array(["tu", "tb"]))),
            batch_format="pyarrow",
        ).take_all()
    }
    top = (
        agg.map_batches(lambda b: _kind(b, "b"), batch_format="pyarrow")
        .sort(["n", "term"], descending=[True, False])
        .limit(k)
        .take_all()
    )
    comp_tokens = sorted({t for r in top for t in r["term"].split(" ")})
    tok_ref = ray.put(pa.array(comp_tokens, type=pa.string()))

    def _components(batch: pa.Table) -> pa.Table:
        vs = cached_object(tok_ref)
        b = _kind(batch, "u")
        return b.filter(pc.is_in(b.column("term"), value_set=vs))

    ucnt = {
        r["term"]: r["n"]
        for r in agg.map_batches(_components, batch_format="pyarrow").take_all()
    }
    n_uni, n_big = float(totals.get("tu", 0)), float(totals.get("tb", 0))
    bigram_col, n_col, pmi_col = [], [], []
    for r in top:
        a, b = r["term"].split(" ")
        c_ab = float(r["n"])
        pmi = np.log((c_ab / n_big) / ((ucnt[a] / n_uni) * (ucnt[b] / n_uni)))
        bigram_col.append(r["term"])
        n_col.append(int(r["n"]))
        pmi_col.append(round(float(pmi), 4))
    return pa.table(
        {
            "bigram": pa.array(bigram_col, type=pa.string()),
            "n": pa.array(n_col, type=pa.int64()),
            "pmi": pa.array(pmi_col, type=pa.float64()),
        }
    )


def ngram_diversity(
    ds: ray.data.Dataset,
    *,
    text_col: str = "text",
    max_n: int = 3,
    p: int = 14,
) -> ray.data.Dataset:
    """Corpus n-gram diversity curve — approx distinct n-grams and the
    type/token ratio for n = 1..max_n, the dataset-health statistic
    behind scaling-law data audits (how fast does novelty decay as the
    corpus grows).

    Exact distinct-n-gram counting is a corpus-sized exchange PER n;
    here each batch emits max_n rows of (n, 2^p-byte HLL register
    blob, token total), so the exchange is max_n × batches tiny rows
    and the merge is one ``np.maximum`` reduce per n.  Register max is
    partitioning-independent → golden-checkable.

    Output: (n, total_ngrams:int64, approx_distinct:int64,
    distinct_ratio:double rounded 6dp), one row per n."""
    import numpy as np
    import pyarrow.compute as pc

    from dots_ocr_ray.functions.sketches import HyperLogLog

    def _partials(batch: pa.Table) -> pa.Table:
        lists = split_whitespace_checked(batch.column(text_col))
        toks = pc.list_flatten(lists)
        parents = pc.list_parent_indices(lists)
        mask = pc.not_equal(toks, "")
        toks, parents = toks.filter(mask), parents.filter(mask)
        if isinstance(toks, pa.ChunkedArray):
            toks = toks.combine_chunks()
        par_np = parents.to_numpy(zero_copy_only=False)
        n_tok = len(toks)
        ns, blobs, totals = [], [], []
        grams = toks  # n=1 grams; extended by one join per n
        for n in range(1, max_n + 1):
            if n > 1:
                if n_tok >= n:
                    # append the n-th token to each (n-1)-gram whose
                    # window stays inside one document
                    grams = pc.binary_join_element_wise(
                        grams.slice(0, n_tok - n + 1), toks.slice(n - 1), " "
                    )
                else:
                    grams = pa.array([], type=pa.string())
            valid = (
                par_np[: n_tok - n + 1] == par_np[n - 1 :] if n_tok >= n else np.array([], dtype=bool)
            )
            sel = grams.filter(pa.array(valid)) if n > 1 else grams
            hll = HyperLogLog(p)
            hll.add_many([g for g in sel.to_pylist()])
            ns.append(n)
            blobs.append(hll.serialize())
            totals.append(len(sel))
            # `grams` stays UNFILTERED: the (n+1)-gram join extends the
            # positional prefix chain; document validity is re-checked
            # per n via the endpoint-parent mask (parents are sorted,
            # so equal endpoints imply an equal window)
        return pa.table(
            {
                "n": pa.array(ns, type=pa.int64()),
                "sketch": pa.array(blobs, type=pa.binary()),
                "total": pa.array(totals, type=pa.int64()),
            }
        )

    def _merge(group: pa.Table) -> pa.Table:
        regs = np.stack(
            [
                np.frombuffer(b[1:], dtype=np.uint8)
                for b in group.column("sketch").to_pylist()
            ]
        )
        hll = HyperLogLog(p)
        hll.registers = np.maximum.reduce(regs)
        total = int(pc.sum(group.column("total")).as_py() or 0)
        distinct = int(round(hll.count()))
        return pa.table(
            {
                "n": group.column("n").slice(0, 1),
                "total_ngrams": pa.array([total], type=pa.int64()),
                "approx_distinct": pa.array([distinct], type=pa.int64()),
                "distinct_ratio": pa.array(
                    [round(distinct / total, 6) if total else 0.0],
                    type=pa.float64(),
                ),
            }
        )

    return (
        ds.map_batches(_partials, batch_format="pyarrow")
        .groupby("n")
        .map_groups(_merge, batch_format="pyarrow")
    )


def _vocab_counts(
    ds: ray.data.Dataset, *, text_col: str, tokenize: bool = True
) -> ray.data.Dataset:
    """(token, n) vocabulary table: ONE vocabulary-bounded keyed fold —
    the shared stage behind :func:`fuzzy_vocab_match` and
    :func:`vocab_edit_pairs`.  With ``tokenize=False`` the column's
    values are the vocabulary."""
    import pyarrow.compute as pc

    from dots_ocr_ray.util import bucket_keyed_fold

    def _tokens(batch: pa.Table) -> pa.Table:
        if tokenize:
            lists = split_whitespace_checked(batch.column(text_col))
            toks = pc.list_flatten(lists)
        else:
            toks = batch.column(text_col).combine_chunks().cast(pa.string())
        toks = toks.filter(pc.not_equal(toks, ""))  # null mask entries drop too
        return pa.table({"token": toks})

    return bucket_keyed_fold(ds.map_batches(_tokens, batch_format="pyarrow"), "token", {"n": ("count", None)})


def fuzzy_vocab_match(
    ds: ray.data.Dataset,
    *,
    probes: list[str],
    text_col: str = "text",
    max_dist: int = 1,
) -> ray.data.Dataset:
    """Corpus-scale fuzzy string matching: every vocabulary token
    within edit distance ``max_dist`` of each probe term — the
    spell-variant / query-correction scan (and the corpus-side half of
    title-based benchmark decontamination) run as two bounded stages
    instead of a corpus × probes cross join.

    1. vocabulary: per-batch token count partials → ONE token-keyed
       groupby (vocabulary-bounded, the same exchange build_vocab
       pays);
    2. match: zero-exchange ``map_batches`` over the vocab table —
       per probe a LENGTH prefilter (|len−len(probe)| ≤ max_dist)
       then :func:`kernel.textops.levenshtein_many`, whose DP is
       vectorized ACROSS candidates (O(len·m) numpy ops per batch,
       no per-token Python).

    Probes ride the task closure (a few strings — far under broadcast
    territory).  Output: (probe, token, dist:int64,
    n_occurrences:int64), exact Levenshtein semantics = SQL
    ``levenshtein``."""
    import numpy as np
    import pyarrow.compute as pc

    from dots_ocr_ray.kernel.textops import levenshtein_many

    probes = list(probes)

    vocab = _vocab_counts(ds, text_col=text_col)

    def _match(batch: pa.Table) -> pa.Table:
        toks = np.asarray(batch.column("token").to_pylist(), dtype=object)
        counts = batch.column("n").to_numpy(zero_copy_only=False)
        lens = np.fromiter((len(t) for t in toks), dtype=np.int64, count=len(toks))
        p_out, t_out, d_out, n_out = [], [], [], []
        for probe in probes:
            cand = np.nonzero(np.abs(lens - len(probe)) <= max_dist)[0]
            if len(cand) == 0:
                continue
            dists = levenshtein_many(toks[cand], probe)
            hit = dists <= max_dist
            idx = cand[hit]
            p_out.extend([probe] * len(idx))
            t_out.extend(toks[idx])
            d_out.extend(dists[hit])
            n_out.extend(counts[idx])
        return pa.table(
            {
                "probe": pa.array(p_out, type=pa.string()),
                "token": pa.array(t_out, type=pa.string()),
                "dist": pa.array(np.asarray(d_out, dtype=np.int64), type=pa.int64()),
                "n_occurrences": pa.array(
                    np.asarray(n_out, dtype=np.int64), type=pa.int64()
                ),
            }
        )

    return vocab.map_batches(_match, batch_format="pyarrow")


def vocab_edit_pairs(
    ds: ray.data.Dataset,
    *,
    text_col: str = "text",
    tokenize: bool = True,
    min_count: int = 1,
    max_token_len: int = 64,
) -> ray.data.Dataset:
    """ALL unordered pairs of distinct vocabulary tokens within edit
    distance 1 — the spell-variant / tokenizer-noise audit as a SELF
    join, where :func:`fuzzy_vocab_match` only probes a fixed list.

    SymSpell deletion blocking: every token emits its deletion
    neighborhood {token} ∪ {token minus one char} as block keys.  Two
    distinct tokens are within distance 1 **iff** they share a key,
    and a TRUE pair shares EXACTLY ONE key (a substitution pair meets
    only at the substituted position's deletion; a length-±1 pair
    only at the shorter token itself), so the verified output needs
    no dedup pass.  False candidates (e.g. transpositions like
    ab/ba) die in verification.

    Plan: one vocabulary-bounded token exchange → per-batch deletion
    explode (≤ len+1 keys per token) → SELF
    :func:`~dots_ocr_ray.pipelines.relational.hash_join` on the key
    (vectorized per-bucket merge; a deletion key is structurally
    shared by at most ~alphabet × len tokens, so no hot-bucket cap is
    needed) → per-batch distance-≤1 verification whose cost is
    CANDIDATE-proportional, i.e. output-proportional — never vocab².
    Tokens longer than ``max_token_len`` are skipped (they cannot be
    near-misses of real words and would bloat the key explode).

    Distance is computed over UTF-8 BYTES — exactly DuckDB's
    ``levenshtein`` semantics (there ``levenshtein('née','nee') = 2``)
    — and blocking keys delete CHARACTERS, a superset of byte
    deletions, so no byte-level pair can be missed.

    Output: (tok_a, tok_b, n_a, n_b) with tok_a < tok_b; token counts
    use the same whitespace tokenization as the SQL oracle.  With
    ``tokenize=False`` the column's VALUES are the vocabulary — the
    entity-resolution form (near-identical names/ids across a
    dimension or crawl snapshot)."""
    import numpy as np
    import pyarrow.compute as pc

    from dots_ocr_ray.pipelines.relational import hash_join

    vocab = _vocab_counts(ds, text_col=text_col, tokenize=tokenize)

    def _explode(batch: pa.Table) -> pa.Table:
        toks = batch.column("token").to_pylist()
        counts = batch.column("n").to_numpy(zero_copy_only=False)
        keys_out: list[str] = []
        tok_out: list[str] = []
        n_out: list[int] = []
        for t, n in zip(toks, counts):
            if n < min_count or len(t) > max_token_len:
                continue
            neigh = {t}
            neigh.update(t[:i] + t[i + 1 :] for i in range(len(t)))
            for key in neigh:
                keys_out.append(key)
                tok_out.append(t)
                n_out.append(int(n))
        return pa.table(
            {
                "key": pa.array(keys_out, type=pa.string()),
                "token": pa.array(tok_out, type=pa.string()),
                "n": pa.array(n_out, type=pa.int64()),
            }
        )

    keyed = vocab.map_batches(_explode, batch_format="pyarrow").materialize()
    key_schema = pa.schema([("key", pa.string()), ("token", pa.string()), ("n", pa.int64())])
    cand = hash_join(
        keyed,
        keyed,
        on="key",
        left_schema=key_schema,
        right_schema=key_schema,
    )

    def _ins_ok(a: str, b: str) -> bool:
        # |a| + 1 == |b|: is a == b minus one char?
        i = 0
        la = len(a)
        while i < la and a[i] == b[i]:
            i += 1
        return a[i:] == b[i + 1 :]

    def _verify(batch: pa.Table) -> pa.Table:
        a = batch.column("token").to_pylist()
        b = batch.column("token_r").to_pylist()
        na = batch.column("n").to_numpy(zero_copy_only=False)
        nb = batch.column("n_r").to_numpy(zero_copy_only=False)
        n_rows = len(a)
        if n_rows == 0:
            return pa.table(
                {
                    "tok_a": pa.array([], type=pa.string()),
                    "tok_b": pa.array([], type=pa.string()),
                    "n_a": pa.array([], type=pa.int64()),
                    "n_b": pa.array([], type=pa.int64()),
                }
            )
        # vectorized: zero-padded byte matrices.  Lengths and the
        # A < B order come from the ORIGINAL bytes — numpy's S dtype
        # silently strips trailing NULs, which would corrupt both for
        # tokens ending in \x00 (the padded MATRICES are unaffected:
        # NUL padding coincides with the stripped bytes)
        enc_a = [x.encode("utf-8") for x in a]
        enc_b = [x.encode("utf-8") for x in b]
        la = np.fromiter((len(x) for x in enc_a), dtype=np.int64, count=n_rows)
        lb = np.fromiter((len(x) for x in enc_b), dtype=np.int64, count=n_rows)
        width = max(int(la.max()), int(lb.max()))
        A = np.asarray(enc_a, dtype=f"S{width}")
        B = np.asarray(enc_b, dtype=f"S{width}")
        Au = np.frombuffer(A.tobytes(), np.uint8).reshape(n_rows, width)
        Bu = np.frombuffer(B.tobytes(), np.uint8).reshape(n_rows, width)
        order = np.fromiter(
            (x < y for x, y in zip(enc_a, enc_b)), dtype=bool, count=n_rows
        )
        keep = np.zeros(n_rows, dtype=bool)
        # substitution case fully vectorized: exactly one differing byte
        sub = order & (la == lb)
        if sub.any():
            idx = np.nonzero(sub)[0]
            keep[idx] = (Au[idx] != Bu[idx]).sum(axis=1) == 1
        # insertion case: candidate-proportional short Python walks
        ins = order & (np.abs(la - lb) == 1)
        for i in np.nonzero(ins)[0]:
            x, y = (a[i], b[i]) if la[i] < lb[i] else (b[i], a[i])
            keep[i] = _ins_ok(x, y)
        kept = np.nonzero(keep)[0]
        return pa.table(
            {
                "tok_a": pa.array([a[i] for i in kept], type=pa.string()),
                "tok_b": pa.array([b[i] for i in kept], type=pa.string()),
                "n_a": pa.array(na[kept].astype(np.int64), type=pa.int64()),
                "n_b": pa.array(nb[kept].astype(np.int64), type=pa.int64()),
            }
        )

    return cand.map_batches(_verify, batch_format="pyarrow")


def repetition_stats(
    ds: ray.data.Dataset,
    *,
    text_col: str = "text",
    id_col: str = "doc_id",
    keep_cols: tuple[str, ...] = (),
) -> ray.data.Dataset:
    """Per-document intra-repetition signals (the Gopher/RefinedWeb
    repetition filters): distinct-token fraction and top-bigram
    fraction.  Documents dominated by one repeated phrase score a high
    top_bigram_frac and get dropped before training.

    Purely batch-local and fully vectorized — token codes from one
    dictionary-encode, per-doc aggregation via ``np.bincount`` /
    ``np.maximum.at`` over parent indices; no exchange at all.

    Output: (doc_id, n_tokens, distinct_frac, top_bigram_frac),
    fractions rounded to 4 decimals, 0.0 for empty streams."""
    import numpy as np
    import pyarrow.compute as pc

    def _stats(batch: pa.Table) -> pa.Table:
        nrows = batch.num_rows
        lists = split_whitespace_checked(pc.fill_null(batch.column(text_col), ""))
        toks = pc.list_flatten(lists)
        parents = pc.list_parent_indices(lists)
        mask = pc.not_equal(toks, "")
        toks, parents = toks.filter(mask), parents.filter(mask)
        if isinstance(toks, pa.ChunkedArray):
            toks = toks.combine_chunks()
        par = parents.to_numpy(zero_copy_only=False).astype(np.int64)
        enc = toks.dictionary_encode()
        codes = enc.indices.to_numpy(zero_copy_only=False).astype(np.int64)
        vsize = len(enc.dictionary)

        n_tokens = np.bincount(par, minlength=nrows).astype(np.int64)
        # distinct tokens per doc: unique (parent, code) pairs
        uniq_pc = np.unique(np.stack([par, codes], axis=1), axis=0)
        n_distinct = np.bincount(uniq_pc[:, 0], minlength=nrows).astype(np.int64)
        # bigrams: adjacent positions sharing a parent; key packs the
        # code pair into one int64 (safe: vsize^2 < 2^63 for any batch)
        maxc = np.zeros(nrows, dtype=np.int64)
        n_big = np.zeros(nrows, dtype=np.int64)
        if len(par) >= 2:
            adj = par[:-1] == par[1:]
            bpar = par[:-1][adj]
            bkey = codes[:-1][adj] * max(vsize, 1) + codes[1:][adj]
            n_big = np.bincount(bpar, minlength=nrows).astype(np.int64)
            if len(bpar):
                pairs, cnt = np.unique(
                    np.stack([bpar, bkey], axis=1), axis=0, return_counts=True
                )
                np.maximum.at(maxc, pairs[:, 0], cnt)
        with np.errstate(divide="ignore", invalid="ignore"):
            distinct_frac = np.where(n_tokens > 0, n_distinct / np.maximum(n_tokens, 1), 0.0)
            top_bigram_frac = np.where(n_big > 0, maxc / np.maximum(n_big, 1), 0.0)
        from dots_ocr_ray.util import round_half_away

        distinct_frac = round_half_away(distinct_frac, 4)
        top_bigram_frac = round_half_away(top_bigram_frac, 4)
        out = pa.table(
            {
                "doc_id": batch.column(id_col),
                "n_tokens": pa.array(n_tokens, type=pa.int64()),
                "distinct_frac": pa.array(distinct_frac, type=pa.float64()),
                "top_bigram_frac": pa.array(top_bigram_frac, type=pa.float64()),
            }
        )
        for c in keep_cols:  # batch-local pass, row order preserved
            out = out.append_column(c, batch.column(c))
        return out

    return ds.map_batches(_stats, batch_format="pyarrow")


def tfidf_top_terms(
    ds: ray.data.Dataset,
    *,
    text_col: str = "text",
    id_col: str = "doc_id",
    vocab_size: int = 256,
    k: int = 3,
) -> ray.data.Dataset:
    """Per-document top-k TF-IDF terms over a bounded vocabulary.

    Scale shape (one exchange total):

    1. document frequencies — per-batch DISTINCT (doc, token) explode
       (vectorized: arrow split → dictionary-encode → np.unique on
       (doc, code) pairs) → ONE token-keyed fold;
    2. vocabulary — top ``vocab_size`` tokens by df (ties by token) —
       a BOUNDED table sorted on the aggregated (token-level) side and
       broadcast via ray.put (at larger corpora swap the exact df agg
       for a SpaceSaving sketch; the contract downstream is identical);
    3. scoring — a second streaming pass: per-batch (doc, token) term
       counts restricted to the vocabulary (searchsorted), score =
       tf * ln(n_docs / df), and per-doc top-k computed locally —
       documents are row-complete inside a batch, so no second
       exchange exists.

    Output: (doc_id, token, rank, score) with rank 1..k per doc
    (score desc, token asc tiebreak — deterministic)."""
    import numpy as np
    import pyarrow.compute as pc

    import ray

    from dots_ocr_ray.util import bucket_keyed_fold, cached_object

    n_docs = ds.count()

    def _doc_tokens(batch: pa.Table) -> tuple:
        lists = split_whitespace_checked(batch.column(text_col))
        toks = pc.list_flatten(lists)
        parents = pc.list_parent_indices(lists)
        mask = pc.not_equal(toks, "")
        toks, parents = toks.filter(mask), parents.filter(mask)
        if isinstance(toks, pa.ChunkedArray):
            toks = toks.combine_chunks()
        doc_np = batch.column(id_col).to_numpy(zero_copy_only=False)[
            parents.to_numpy(zero_copy_only=False)
        ]
        enc = toks.dictionary_encode()
        codes = enc.indices.to_numpy(zero_copy_only=False).astype(np.int64)
        return enc.dictionary, doc_np, codes

    def _doc_token_pairs(batch: pa.Table) -> pa.Table:
        vocab, doc_np, codes = _doc_tokens(batch)
        uniq = np.unique(np.stack([doc_np, codes], axis=1), axis=0)
        return pa.table({"token": vocab.take(pa.array(uniq[:, 1]))})

    df_agg = bucket_keyed_fold(ds.map_batches(_doc_token_pairs, batch_format="pyarrow"), "token", {"df": ("count", None)})
    # token-level result; take only the bounded top-V to the driver
    top = df_agg.sort(["df", "token"], descending=[True, False]).limit(vocab_size)
    trows = top.take_all()
    if not trows:  # empty/all-whitespace corpus: typed empty, not KeyError
        return ray.data.from_arrow(
            pa.table(
                {
                    "doc_id": pa.array([], type=pa.int64()),
                    "token": pa.array([], type=pa.string()),
                    "rank": pa.array([], type=pa.int64()),
                    "score": pa.array([], type=pa.float64()),
                }
            )
        )
    vtbl = pa.Table.from_pylist(trows)
    vtok = np.asarray(vtbl.column("token").to_pylist(), dtype=object)
    vdf = np.asarray(vtbl.column("df").to_pylist(), dtype=np.float64)
    order = np.argsort(vtok.astype(str))
    vtok_sorted = vtok[order].astype(str)
    idf_sorted = np.log(float(n_docs) / vdf[order])
    vocab_ref = ray.put((vtok_sorted, idf_sorted))

    def _score(batch: pa.Table) -> pa.Table:
        vtoks, idfs = cached_object(vocab_ref)
        vocab, doc_np, codes = _doc_tokens(batch)
        # map batch-local dictionary codes → vocab slots (or -1)
        from dots_ocr_ray.util import sorted_lookup

        dict_np = np.asarray(vocab.to_pylist(), dtype=object).astype(str)
        hit, pos = sorted_lookup(vtoks, dict_np)
        slot = np.where(hit, pos, -1)[codes]
        keep = slot >= 0
        doc_np, slot = doc_np[keep], slot[keep]
        if len(doc_np) == 0:
            return pa.table(
                {
                    "doc_id": pa.array([], type=pa.int64()),
                    "token": pa.array([], type=pa.string()),
                    "rank": pa.array([], type=pa.int64()),
                    "score": pa.array([], type=pa.float64()),
                }
            )
        from dots_ocr_ray.util import round_half_away

        pairs, tf = np.unique(np.stack([doc_np, slot], axis=1), axis=0, return_counts=True)
        score = tf.astype(np.float64) * idfs[pairs[:, 1]]
        # per-doc top-k: sort (doc asc, score desc, token asc) then
        # rank-within-doc via first-occurrence offsets — fully vectorized
        tok_sorted_keys = vtok_sorted[pairs[:, 1]]
        ordr = np.lexsort((tok_sorted_keys, -score, pairs[:, 0]))
        d = pairs[ordr, 0]
        first = np.concatenate([[True], d[1:] != d[:-1]])
        grp_start = np.maximum.accumulate(np.where(first, np.arange(len(d)), 0))
        rank = np.arange(len(d)) - grp_start + 1
        kmask = rank <= k
        sel = ordr[kmask]
        return pa.table(
            {
                "doc_id": pa.array(pairs[sel, 0], type=pa.int64()),
                "token": pa.array(vtok_sorted[pairs[sel, 1]], type=pa.string()),
                "rank": pa.array(rank[kmask], type=pa.int64()),
                "score": pa.array(
                    round_half_away(score[sel], 4), type=pa.float64()
                ),
            }
        )

    return ds.map_batches(_score, batch_format="pyarrow")


def normalize_text(
    ds: ray.data.Dataset,
    *,
    text_col: str = "text",
    id_col: str = "doc_id",
) -> ray.data.Dataset:
    """Unicode/text canonicalization (the standard pre-dedup cleanup):
    NFC normalize → lowercase → collapse whitespace runs → trim.

    Entirely zero-exchange and vectorized — Arrow compute kernels per
    batch (RE2 regex, utf8proc case map), with a narrow Python
    unicodedata fallback for the non-ASCII rows only.  Output:
    (id_col, norm_text, n_chars_norm)."""
    import numpy as np
    import pyarrow.compute as pc

    def _norm(batch: pa.Table) -> pa.Table:
        col = batch.column(text_col)
        if not pa.types.is_string(col.type) and not pa.types.is_large_string(col.type):
            col = col.cast(pa.string())  # e.g. an all-null block infers type null
        s = pc.fill_null(col, "")
        # NFC: identity on ASCII (the vast majority of web text after
        # boilerplate strip), so only non-ASCII rows pay the Python
        # unicodedata call — pyarrow 16's utf8_normalize(form="NFC")
        # does not compose (emits NFD), so it cannot be used here
        non_ascii = pc.invert(pc.string_is_ascii(s))
        if pc.any(non_ascii).as_py():
            import unicodedata

            idx = np.flatnonzero(non_ascii.to_numpy(zero_copy_only=False))
            if isinstance(s, pa.ChunkedArray):
                s = s.combine_chunks()
            vals = s.to_pylist()
            for i in idx:
                vals[i] = unicodedata.normalize("NFC", vals[i])
            s = pa.array(vals, type=pa.string())
        # in-call canary over the lower→collapse→trim chain: the same
        # transient Arrow unicode-kernel corruption guarded in
        # util.split_whitespace_checked (whitespace/case tables) would
        # silently change normalized bytes; canary rows ride the same
        # kernel invocations, python fallback on mismatch
        n_real = len(s)
        if isinstance(s, pa.ChunkedArray):
            s = s.combine_chunks()
        s = pa.concat_arrays([s, pa.array([" A\tB  c ", ""], type=s.type)])
        s = pc.utf8_lower(s)
        s = pc.replace_substring_regex(s, r"\s+", " ")
        s = pc.utf8_trim_whitespace(s)
        tail = s.slice(n_real, 2).to_pylist()
        if tail == ["a b c", ""]:
            offsets_ok = s.slice(0, n_real)
            out_s = pa.concat_arrays([offsets_ok])  # compact the slice
        else:
            import re as _re

            vals = pc.fill_null(col, "").to_pylist()
            if pc.any(non_ascii).as_py():
                import unicodedata as _ud

                vals = [
                    _ud.normalize("NFC", v) if v and not v.isascii() else v
                    for v in vals
                ]
            out_s = pa.array(
                # RE2's \s == [\t\n\f\r ] (ASCII, no \v): the fallback
                # must match the Arrow kernel path byte-for-byte or a
                # transient canary failure silently changes dedup keys
                [
                    _re.sub(r"[\t\n\f\r ]+", " ", v.lower()).strip("\t\n\f\r ")
                    for v in vals
                ],
                type=pa.string(),
            )
        return pa.table(
            {
                id_col: batch.column(id_col),
                "norm_text": out_s,
                "n_chars_norm": pc.utf8_length(out_s).cast(pa.int64()),
            }
        )

    return ds.map_batches(_norm, batch_format="pyarrow")


def quality_model_scores(
    ds: ray.data.Dataset,
    *,
    text_col: str = "text",
    id_col: str = "doc_id",
    weights: tuple[float, float, float, float] = (-2.0, 0.5, 2.0, 0.25),
) -> ray.data.Dataset:
    """Pretrained-style linear quality classifier (the fasttext-scorer
    shape used by CCNet/RedPajama curation): a fixed-weight logistic
    model over cheap per-doc features —

        score = sigmoid(w0 + w1·ln(1+n_words) + w2·alpha_ratio
                        + w3·ln(1+n_chars))

    Zero exchange, fully vectorized (Arrow kernels for the features,
    one numpy expression for the model); model "load" is just the
    weight tuple, so the stage stays a stateless task.  Output:
    (id_col, score float64@4dp, keep bool at 0.5)."""
    import numpy as np
    import pyarrow.compute as pc

    from dots_ocr_ray.util import round_half_away

    w0, w1, w2, w3 = weights

    def _score(batch: pa.Table) -> pa.Table:
        col = batch.column(text_col)
        if not pa.types.is_string(col.type) and not pa.types.is_large_string(col.type):
            col = col.cast(pa.string())  # e.g. an all-null block infers type null
        col = pc.fill_null(col, "")
        from dots_ocr_ray.util import ws_token_counts_checked

        n = ws_token_counts_checked(col)
        n_chars = pc.utf8_length(col).to_numpy(zero_copy_only=False).astype(np.int64)
        n_alpha = (
            pc.utf8_length(pc.replace_substring_regex(col, "[^A-Za-z]", ""))
            .to_numpy(zero_copy_only=False)
            .astype(np.int64)
        )
        ar = np.where(n_chars > 0, n_alpha / np.maximum(n_chars, 1), 0.0)
        z = w0 + w1 * np.log1p(n) + w2 * ar + w3 * np.log1p(n_chars)
        score = round_half_away(1.0 / (1.0 + np.exp(-z)), 4)
        return pa.table(
            {
                id_col: batch.column(id_col),
                "score": pa.array(score, type=pa.float64()),
                "keep": pa.array(score >= 0.5, type=pa.bool_()),
            }
        )

    return ds.map_batches(_score, batch_format="pyarrow")


def bigram_lm_scores(
    ds: ray.data.Dataset,
    *,
    text_col: str = "text",
    id_col: str = "doc_id",
) -> ray.data.Dataset:
    """CCNet-style language-model quality signal: train an add-one-
    smoothed bigram LM on the corpus itself, then score every document
    with its average bigram log-probability — ``(id, avg_logp,
    n_bigrams)``.  ``logp(w2|w1) = ln((B(w1,w2)+1) / (U(w1)+V))`` with
    V = corpus distinct-token count; documents with < 2 tokens score
    0.0.  Low scores flag gibberish / boilerplate the way CCNet uses
    a KenLM perplexity bucket.

    Two count exchanges (unigram, bigram — per-batch np.unique
    partials, rows per DISTINCT key per batch), then two tiers for the
    scoring lookup, the same budget rule as ``substring_dedup``:

    * combined count tables fit :func:`~dots_ocr_ray.util.broadcast_fits`
      — sorted hash
      arrays broadcast once (ray.put, per-worker cached), scoring is
      one stateless searchsorted pass, zero additional exchange;
    * above it — fully distributed: per-doc bigram rows hash-join the
      bigram and unigram tables, then one keyed fold by id re-aggregates
      (3 keyed exchanges, nothing driver-sized).

    Tokens and bigrams key on 64-bit hashes (collisions merge counts
    with ~2^-64 probability; the SQL oracle compares the strings)."""
    import numpy as np
    import pyarrow.compute as pc

    import ray

    from dots_ocr_ray.pipelines.substring import (
        _hash_tokens,
        _tokens_from_batch,
    )
    from dots_ocr_ray.util import bucket_keyed_fold, cached_object

    _B = np.uint64(GOLDEN64)

    def _doc_grams(batch: pa.Table):
        """(token hashes, offsets) plus per-position bigram keys."""
        tok_vals, offsets, doc_of = _tokens_from_batch(batch.column(text_col))
        th = _hash_tokens(tok_vals)
        n = len(th)
        if n >= 2:
            big = th[:-1] * _B + th[1:]
            starts = np.arange(n - 1, dtype=np.int64)
            d = np.searchsorted(offsets, starts, side="right") - 1
            valid = starts + 1 < offsets[d + 1]
        else:
            big = np.zeros(0, dtype=np.uint64)
            valid = np.zeros(0, dtype=bool)
            d = np.zeros(0, dtype=np.int64)
        return th, offsets, doc_of, big[valid], th[:-1][valid] if n >= 2 else np.zeros(0, np.uint64), d[valid]

    def _uni_partials(batch: pa.Table) -> pa.Table:
        tok_vals, _, _ = _tokens_from_batch(batch.column(text_col))
        u, c = np.unique(_hash_tokens(tok_vals), return_counts=True)
        return pa.table(
            {
                "h": pa.array(u.view(np.int64), type=pa.int64()),
                "cnt": pa.array(c.astype(np.int64), type=pa.int64()),
            }
        )

    def _big_partials(batch: pa.Table) -> pa.Table:
        _, _, _, big, _, _ = _doc_grams(batch)
        u, c = np.unique(big, return_counts=True)
        return pa.table(
            {
                "h": pa.array(u.view(np.int64), type=pa.int64()),
                "cnt": pa.array(c.astype(np.int64), type=pa.int64()),
            }
        )

    def _counts(partials):
        parts = ds.map_batches(partials, batch_format="pyarrow")
        return bucket_keyed_fold(parts, "h", {"cnt": ("sum", "cnt")}).materialize()

    uni, big = _counts(_uni_partials), _counts(_big_partials)
    n_vocab = uni.count()

    def _collect_sorted(tbl: ray.data.Dataset) -> tuple[np.ndarray, np.ndarray]:
        hs, cs = [], []
        for b in tbl.iter_batches(batch_format="pyarrow"):
            hs.append(b.column("h").to_numpy(zero_copy_only=False).astype(np.int64))
            cs.append(b.column("cnt").to_numpy(zero_copy_only=False).astype(np.int64))
        h = np.concatenate(hs) if hs else np.zeros(0, np.int64)
        c = np.concatenate(cs) if cs else np.zeros(0, np.int64)
        order = np.argsort(h)
        return h[order], c[order]

    out_schema = pa.schema(
        [(id_col, pa.int64()), ("avg_logp", pa.float64()), ("n_bigrams", pa.int64())]
    )

    if util.broadcast_fits(uni.size_bytes() + big.size_bytes()):
        uni_ref = ray.put(_collect_sorted(uni))
        big_ref = ray.put(_collect_sorted(big))

        def _score(batch: pa.Table) -> pa.Table:
            uh, uc = cached_object(uni_ref)
            bh, bcnt = cached_object(big_ref)
            _, offsets, _, bigk, w1h, d = _doc_grams(batch)
            n_rows = len(offsets) - 1
            if len(bigk):
                from dots_ocr_ray.util import sorted_lookup

                # sorted_lookup, not raw searchsorted: a gram the count
                # pass never saw (e.g. a transient tokenize-fallback
                # divergence) must smooth to count 0, not IndexError
                # or silently charge a neighboring gram's count
                bhit, bi = sorted_lookup(bh, bigk.view(np.int64))
                uhit, ui = sorted_lookup(uh, w1h.view(np.int64))
                bc = np.where(bhit, bcnt[bi] if len(bh) else 0, 0)
                un = np.where(uhit, uc[ui] if len(uh) else 0, 0)
                lp = np.log((bc + 1.0) / (un + float(n_vocab)))
                sums = np.bincount(d, weights=lp, minlength=n_rows)
                cnts = np.bincount(d, minlength=n_rows).astype(np.int64)
            else:
                sums = np.zeros(n_rows)
                cnts = np.zeros(n_rows, dtype=np.int64)
            avg = np.where(cnts > 0, sums / np.maximum(cnts, 1), 0.0)
            ids = batch.column(id_col)
            if isinstance(ids, pa.ChunkedArray):
                ids = ids.combine_chunks()
            return pa.table(
                {
                    id_col: ids.cast(pa.int64()),
                    "avg_logp": pa.array(avg, type=pa.float64()),
                    "n_bigrams": pa.array(cnts, type=pa.int64()),
                },
                schema=out_schema,
            )

        return ds.map_batches(_score, batch_format="pyarrow")

    # distributed tier: per-doc bigram rows ⨝ bigram counts ⨝ unigram
    # counts, then one keyed fold by id
    from dots_ocr_ray.pipelines.relational import hash_join

    # the w1 hash survives join 1 as a plain int64 passthrough column:
    # hash_join merges through Arrow-backed pandas dtypes, so non-key
    # int64 columns stay exact (no float64 round-trip above 2^53)
    def _gram_rows(batch: pa.Table) -> pa.Table:
        _, _, _, bigk, w1h, d = _doc_grams(batch)
        ids = batch.column(id_col).to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table(
            {
                id_col: pa.array(ids[d], type=pa.int64()),
                "h": pa.array(bigk.view(np.int64), type=pa.int64()),
                "h1": pa.array(w1h.view(np.int64), type=pa.int64()),
            }
        )

    rows_schema = pa.schema(
        [
            (id_col, pa.int64()),
            ("h", pa.int64()),
            ("h1", pa.int64()),
        ]
    )
    cnt_schema = pa.schema([("h", pa.int64()), ("cnt", pa.int64())])
    with_big = hash_join(
        ds.map_batches(_gram_rows, batch_format="pyarrow"),
        big,
        on="h",
        left_schema=rows_schema,
        right_schema=cnt_schema,
    )

    def _rekey(batch: pa.Table) -> pa.Table:
        bcnt = (
            batch.column("cnt").to_numpy(zero_copy_only=False).astype(np.int64)
        )
        return pa.table(
            {
                id_col: batch.column(id_col).cast(pa.int64()),
                "h": batch.column("h1").cast(pa.int64()),
                "bcnt": pa.array(bcnt, type=pa.int64()),
            }
        )

    with_uni = hash_join(
        with_big.map_batches(_rekey, batch_format="pyarrow"),
        uni,
        on="h",
        left_schema=pa.schema(
            [(id_col, pa.int64()), ("h", pa.int64()), ("bcnt", pa.int64())]
        ),
        right_schema=cnt_schema,
    )

    def _logp(batch: pa.Table) -> pa.Table:
        bcnt = batch.column("bcnt").to_numpy(zero_copy_only=False).astype(np.float64)
        ucnt = batch.column("cnt").to_numpy(zero_copy_only=False).astype(np.float64)
        lp = np.log((bcnt + 1.0) / (ucnt + float(n_vocab)))
        return pa.table({id_col: batch.column(id_col).cast(pa.int64()), "lp": pa.array(lp, type=pa.float64())})

    scored = bucket_keyed_fold(
        with_uni.map_batches(_logp, batch_format="pyarrow"), id_col, {"lp_sum": ("sum", "lp"), "n": ("count", None)}
    )

    # docs with < 2 tokens have no scored row: a LEFT join (one more
    # keyed exchange — per-doc rows never touch the driver) restores
    # them with score 0.0
    ids_only = ds.select_columns([id_col])
    joined = hash_join(
        ids_only,
        scored,
        on=id_col,
        how="left",
        left_schema=pa.schema([(id_col, pa.int64())]),
        right_schema=pa.schema(
            [(id_col, pa.int64()), ("lp_sum", pa.float64()), ("n", pa.int64())]
        ),
    )

    def _emit(batch: pa.Table) -> pa.Table:
        ids = batch.column(id_col).to_numpy(zero_copy_only=False).astype(np.int64)
        s = batch.column("lp_sum").to_numpy(zero_copy_only=False).astype(np.float64)
        n = batch.column("n").to_numpy(zero_copy_only=False)
        n = np.nan_to_num(n.astype(np.float64), nan=0.0).astype(np.int64)
        s = np.nan_to_num(s, nan=0.0)
        avg = np.where(n > 0, s / np.maximum(n, 1), 0.0)
        return pa.table(
            {
                id_col: pa.array(ids, type=pa.int64()),
                "avg_logp": pa.array(avg, type=pa.float64()),
                "n_bigrams": pa.array(n, type=pa.int64()),
            },
            schema=out_schema,
        )

    return joined.map_batches(_emit, batch_format="pyarrow")


def compression_ratios(
    ds: ray.data.Dataset, *, text_col: str = "text", id_col: str = "doc_id"
) -> ray.data.Dataset:
    """(id, comp_ratio, n_bytes) per document — zero exchange; zlib is
    C-speed per doc, so the per-row loop costs what the codec costs."""
    from dots_ocr_ray.kernel.textops import compression_ratio

    def _ratios(batch: pa.Table) -> pa.Table:
        texts = batch.column(text_col).to_pylist()
        return pa.table(
            {
                id_col: batch.column(id_col).cast(pa.int64()),
                "comp_ratio": pa.array(
                    [compression_ratio(t) for t in texts], type=pa.float64()
                ),
                "n_bytes": pa.array(
                    [len((t or "").encode("utf-8", errors="replace")) for t in texts],
                    type=pa.int64(),
                ),
            }
        )

    return ds.map_batches(_ratios, batch_format="pyarrow")


def build_vocab(
    ds: ray.data.Dataset,
    *,
    text_col: str = "text",
    vocab_size: int = 1 << 15,
    with_counts: bool = False,
) -> pa.Table:
    """Corpus-ranked tokenizer vocabulary: the ``vocab_size`` most
    frequent whitespace tokens, id 1..V by (count DESC, token ASC);
    id 0 is reserved for unknowns.

    EXACT counts through one token-keyed fold, then the
    top-V reduces through per-block local top-V partials — the driver
    holds V rows per block, never the corpus vocabulary."""
    import pyarrow.compute as pc

    from dots_ocr_ray.util import bucket_keyed_fold

    def _tokens(batch: pa.Table) -> pa.Table:
        toks = pc.list_flatten(split_whitespace_checked(batch.column(text_col)))
        return pa.table({"token": toks.filter(pc.not_equal(toks, ""))})

    counts = bucket_keyed_fold(ds.map_batches(_tokens, batch_format="pyarrow"), "token", {"n": ("count", None)})

    def _local_top(batch: pa.Table) -> pa.Table:
        order = pc.sort_indices(
            batch, sort_keys=[("n", "descending"), ("token", "ascending")]
        )
        return batch.take(order[:vocab_size])

    merged = pa.concat_tables(
        list(
            counts.map_batches(_local_top, batch_format="pyarrow").iter_batches(
                batch_format="pyarrow"
            )
        )
        # an all-whitespace corpus yields zero count batches
        or [pa.table({"token": pa.array([], pa.string()), "n": pa.array([], pa.int64())})]
    )
    order = pc.sort_indices(
        merged, sort_keys=[("n", "descending"), ("token", "ascending")]
    )
    top = merged.take(order[:vocab_size])
    import numpy as np

    cols = {
        "token": top.column("token"),
        "token_id": pa.array(np.arange(1, top.num_rows + 1), type=pa.int64()),
    }
    if with_counts:
        cols["n"] = top.column("n").cast(pa.int64())
    return pa.table(cols)


def encode_token_ids(
    ds: ray.data.Dataset,
    vocab: pa.Table,
    *,
    text_col: str = "text",
    id_col: str = "doc_id",
    as_list: bool = False,
) -> ray.data.Dataset:
    """Encode documents against a built vocabulary — the text→ids step
    every training pipeline runs after :func:`build_vocab`.  Unknown
    tokens → 0.  Default output is exploded (doc_id, pos, token_id)
    rows (pos 1-based); ``as_list=True`` instead appends a
    ``token_ids`` list<int64> column to the input rows (the form a
    training loader consumes).

    The vocab broadcasts once (``ray.put`` + per-worker cache); the
    encode is batch-local ``pc.index_in`` against the id-ordered token
    array — one vectorized hash lookup per batch, no exchange, no
    per-token Python."""
    import numpy as np
    import pyarrow.compute as pc

    import ray

    from dots_ocr_ray.util import cached_object

    vocab_ref = ray.put(vocab.column("token").combine_chunks())

    def _encode(batch: pa.Table) -> pa.Table:
        tokens_list = split_whitespace_checked(batch.column(text_col))
        flat = pc.list_flatten(tokens_list)
        # per-row token counts BEFORE empty-filtering, then subtract
        # the empties per row to keep pos aligned with str.split()
        keep = pc.not_equal(flat, "")
        lens = pc.list_value_length(tokens_list).to_numpy(zero_copy_only=False)
        row_idx = np.repeat(np.arange(len(lens)), lens)
        keep_np = keep.to_numpy(zero_copy_only=False)
        row_idx = row_idx[keep_np]
        flat = flat.filter(keep)
        # 1-based positions within each row's kept tokens
        kept_per_row = np.bincount(row_idx, minlength=len(lens))
        starts = np.zeros(len(lens), dtype=np.int64)
        np.cumsum(kept_per_row[:-1], out=starts[1:])
        pos = np.arange(len(row_idx)) - starts[row_idx] + 1
        vocab_tokens = cached_object(vocab_ref)
        idx = pc.index_in(flat, value_set=vocab_tokens)
        token_id = pc.add(pc.fill_null(idx, -1), 1).cast(pa.int64())
        if as_list:
            offsets = np.zeros(len(lens) + 1, dtype=np.int32)
            np.cumsum(kept_per_row, out=offsets[1:])
            ids_list = pa.ListArray.from_arrays(
                pa.array(offsets), token_id.combine_chunks() if isinstance(token_id, pa.ChunkedArray) else token_id
            )
            return batch.append_column("token_ids", ids_list)
        doc_ids = batch.column(id_col).to_numpy(zero_copy_only=False)
        return pa.table(
            {
                id_col: pa.array(doc_ids[row_idx], type=pa.int64()),
                "pos": pa.array(pos, type=pa.int64()),
                "token_id": token_id,
            }
        )

    return ds.map_batches(_encode, batch_format="pyarrow")


def term_contexts(
    ds: ray.data.Dataset,
    terms: list[str],
    *,
    text_col: str = "text",
    id_col: str = "doc_id",
    width: int = 24,
) -> ray.data.Dataset:
    """KWIC concordance over a broadcast probe-term list: for every
    document containing a term, the FIRST occurrence's byte offset and
    a ±``width``-character context window — the term-in-context corpus
    a lexicography / word-sense / eval-probe pipeline extracts from a
    crawl (same broadcast-probe shape as :func:`contamination_check`).

    Zero exchange.  The per-term scan is one vectorized Arrow
    ``find_substring`` pass over the column; only MATCHED rows pay the
    per-row context slice (bounded by match count — probe terms are
    rare by construction; for dense terms cap the input with an
    upstream sample).  Offsets are byte offsets (== character offsets
    for ASCII corpora; Arrow reports code-unit positions).
    """
    import numpy as np
    import pyarrow.compute as pc

    probe = [t for t in terms if t]

    def _scan(batch: pa.Table) -> pa.Table:
        ids_out: list = []
        terms_out: list[str] = []
        pos_out: list[int] = []
        ctx_out: list[str] = []
        col = batch.column(text_col)
        if not (pa.types.is_string(col.type) or pa.types.is_large_string(col.type)):
            col = col.cast(pa.string())
        col = pc.fill_null(col, "")
        ids = batch.column(id_col)
        for term in probe:
            pos = pc.find_substring(col, term)
            mask = pc.greater_equal(pos, 0)
            if pc.sum(mask.cast(pa.int8())).as_py() == 0:
                continue
            hit_idx = np.flatnonzero(mask.to_numpy(zero_copy_only=False))
            hit_pos = pos.to_numpy(zero_copy_only=False)[hit_idx]
            texts = col.take(pa.array(hit_idx)).to_pylist()
            hit_ids = ids.take(pa.array(hit_idx)).to_pylist()
            term_b = term.encode("utf-8")
            for i, p, t in zip(hit_ids, hit_pos, texts):
                # p is a BYTE offset (pc.find_substring): slice in byte
                # space and decode with boundary-safe "ignore", or a
                # multibyte prefix longer than the window would shift
                # the slice off the matched term entirely
                p = int(p)
                tb = t.encode("utf-8")
                start = max(0, p - width)
                stop = min(len(tb), p + len(term_b) + width)
                ids_out.append(i)
                terms_out.append(term)
                pos_out.append(p)
                ctx_out.append(tb[start:stop].decode("utf-8", "ignore"))
        return pa.table(
            {
                id_col: pa.array(ids_out, type=pa.int64()),
                "term": pa.array(terms_out, type=pa.string()),
                "pos": pa.array(pos_out, type=pa.int64()),
                "context": pa.array(ctx_out, type=pa.string()),
            }
        )

    return ds.select_columns([id_col, text_col]).map_batches(
        _scan, batch_format="pyarrow"
    )


def host_reputation(
    extracted: ray.data.Dataset,
    *,
    url_col: str = "url",
    text_col: str = "extracted_text_nohf",
) -> ray.data.Dataset:
    """Per-HOST multi-signal reputation rollup over extraction output —
    the domain-level filter list a RefinedWeb-style pipeline derives
    before document-level filtering (drop/keep whole hosts by extraction
    health + quality keep-rate + language spread).

    Signals per host: ``n_pages``, ``n_finished`` (extraction status),
    ``n_quality_kept`` (the C4-ish keep rule over the extracted text),
    ``n_langs`` (distinct declared languages), ``sum_tokens``
    (whitespace tokens of extracted text).

    Scale shape: host parsed from the url with one vectorized
    ``extract_regex`` pass; ONE keyed fold by (host, lang) (bounded by
    hosts × languages); the per-host fold is a second fold over that
    bounded table with ``n_langs`` = its row count per host — no
    per-host Python anywhere, so 10^8 hosts cost two vectorized
    exchanges over bounded tables.
    """
    import pyarrow.compute as pc

    annotated = annotate_documents(
        extracted.select_columns([url_col, "lang", "status", text_col]),
        text_col=text_col,
        features=("tokens_ws", "quality"),
    )

    def _signals(batch: pa.Table) -> pa.Table:
        hosts = pc.extract_regex(
            pc.fill_null(batch.column(url_col), ""), HOST_REGEX
        )
        return pa.table(
            {
                "host": pc.fill_null(pc.struct_field(hosts, "host"), ""),
                # a null lang is its own language, as in the oracle
                "lang": pc.fill_null(batch.column("lang"), ""),
                "fin": pc.equal(batch.column("status"), "finished").cast(pa.int64()),
                # a page with no text keeps nothing and adds no tokens
                "kept": pc.fill_null(batch.column("quality_keep").cast(pa.int64()), 0),
                "tok": pc.fill_null(batch.column("n_tokens_ws"), 0),
            }
        )

    from dots_ocr_ray.util import bucket_keyed_fold

    by_host_lang = bucket_keyed_fold(
        annotated.map_batches(_signals, batch_format="pyarrow"),
        ["host", "lang"],
        {
            "n_pages": ("count", None),
            "n_finished": ("sum", "fin"),
            "n_quality_kept": ("sum", "kept"),
            "sum_tokens": ("sum", "tok"),
        },
    )
    # one surviving (host, lang) row per language: n_langs is its count
    return bucket_keyed_fold(
        by_host_lang,
        "host",
        {
            "n_pages": ("sum", "n_pages"),
            "n_finished": ("sum", "n_finished"),
            "n_quality_kept": ("sum", "n_quality_kept"),
            "sum_tokens": ("sum", "sum_tokens"),
            "n_langs": ("count", None),
        },
    )


def host_template_stats(
    pages: ray.data.Dataset,
    *,
    url_col: str = "url",
    html_col: str = "html",
) -> ray.data.Dataset:
    """Per-host DOM-template detection over raw crawl pages: fingerprint
    each page's tag sequence (:func:`~dots_ocr_ray.kernel.html_parse.
    structure_fingerprint` — content-blind, so pages rendered from the
    same server template collide) and roll up per host: ``n_pages``,
    ``n_templates`` (distinct fingerprints), ``top_template`` and
    ``top_template_n`` (the dominant template and how many pages share
    it).  A host whose top template covers most of its pages is a
    template-driven site — the strongest prior a boilerplate stripper
    has (anything constant within the template is chrome, not content);
    a host with ~one template per page is hand-authored.

    Scale shape: fingerprinting streams (regex scan per page, the same
    per-row cost class as extraction); each batch pre-aggregates
    (host, fingerprint) counts, then :func:`~dots_ocr_ray.pipelines.
    rollup.keyed_top_rollup` finishes in ONE bucket exchange over the
    bounded partial-count table — no per-host Python at 10^8-host
    cardinality."""
    import pyarrow.compute as pc

    from dots_ocr_ray.kernel.html_parse import structure_fingerprint
    from dots_ocr_ray.pipelines.rollup import keyed_top_rollup

    def _partials(batch: pa.Table) -> pa.Table:
        import pandas as pd

        hosts = pc.extract_regex(
            pc.fill_null(batch.column(url_col).cast(pa.string()), ""),
            HOST_REGEX,
        )
        host = pc.fill_null(pc.struct_field(hosts, "host"), "")
        htmls = batch.column(html_col).to_pylist()
        fps = [
            structure_fingerprint(
                h.decode("utf-8", errors="replace") if isinstance(h, bytes) else (h or "")
            )
            for h in htmls
        ]
        df = pd.DataFrame({"host": host.to_pandas(), "template": fps})
        vc = df.groupby(["host", "template"], sort=False).size().reset_index(name="c")
        return pa.table(
            {
                "host": pa.array(vc["host"], type=pa.string()),
                "template": pa.array(vc["template"], type=pa.string()),
                "c": pa.array(vc["c"].to_numpy().astype("int64"), type=pa.int64()),
            }
        )

    rolled = keyed_top_rollup(
        pages.map_batches(_partials, batch_format="pyarrow"),
        key_col="host",
        sub_col="template",
        count_col="c",
    )

    def _rename(batch: pa.Table) -> pa.Table:
        return batch.rename_columns(
            ["host", "n_pages", "n_templates", "top_template", "top_template_n"]
        )

    return rolled.map_batches(_rename, batch_format="pyarrow")


def bm25_scores(
    ds: ray.data.Dataset,
    *,
    probes: list[str],
    text_col: str = "text",
    id_col: str = "doc_id",
    k1: float = 1.2,
    b: float = 0.75,
) -> ray.data.Dataset:
    """Okapi BM25 relevance of every document against a handful of
    probe terms — the lexical-retrieval half of a RAG stack, run as
    ONE corpus scan plus tiny aggregates.

    The scan emits (doc, term, tf, dl) rows ONLY for docs containing a
    probe (vectorized: one ``pc.equal`` + ``np.bincount`` per probe)
    plus one per-batch corpus-stats row (n_docs, total token count)
    diverted in-band.  The match table is materialized ONCE (bounded
    by probe-matching docs, spillable) and consumed three times:
    df(term) = tiny per-term count, corpus (N, avgdl) = O(blocks)
    driver sum, and the zero-exchange scoring pass with (df, N, avgdl)
    in the task closure.

    score = ln(1 + (N - df + 0.5)/(df + 0.5)) · tf·(k1+1) /
    (tf + k1·(1 − b + b·dl/avgdl)), rounded 4dp — term-order-exact
    with the SQL oracle."""
    import numpy as np
    import pyarrow.compute as pc

    probes = list(probes)

    def _scan(batch: pa.Table) -> pa.Table:
        lists = split_whitespace_checked(batch.column(text_col))
        toks = pc.list_flatten(lists)
        parents = pc.list_parent_indices(lists)
        mask = pc.not_equal(toks, "")
        toks, parents = toks.filter(mask), parents.filter(mask)
        par = parents.to_numpy(zero_copy_only=False)
        n = batch.num_rows
        dl = np.bincount(par, minlength=n).astype(np.int64)
        ids = batch.column(id_col)
        out_id, out_term, out_tf, out_dl = [], [], [], []
        for term in probes:
            hit = pc.equal(toks, term).to_numpy(zero_copy_only=False)
            tf = np.bincount(par[hit], minlength=n).astype(np.int64)
            nz = np.flatnonzero(tf)
            out_id.append(ids.take(pa.array(nz)))
            out_term.extend([term] * len(nz))
            out_tf.append(tf[nz])
            out_dl.append(dl[nz])
        matches = pa.table(
            {
                id_col: pa.concat_arrays(
                    [a.combine_chunks() if isinstance(a, pa.ChunkedArray) else a for a in out_id]
                )
                if out_id
                else pa.array([], type=ids.type),
                "term": pa.array(out_term, type=pa.string()),
                "tf": pa.array(
                    np.concatenate(out_tf) if out_tf else np.array([], np.int64)
                ),
                "dl": pa.array(
                    np.concatenate(out_dl) if out_dl else np.array([], np.int64)
                ),
                "__stat": pa.array([False] * len(out_term), type=pa.bool_()),
            }
        )
        stat = pa.table(
            {
                id_col: pa.array([None], type=ids.type),
                "term": pa.array([""], type=pa.string()),
                "tf": pa.array([n], type=pa.int64()),
                "dl": pa.array([int(dl.sum())], type=pa.int64()),
                "__stat": pa.array([True], type=pa.bool_()),
            }
        )
        return pa.concat_tables([matches, stat])

    marked = ds.map_batches(_scan, batch_format="pyarrow").materialize()

    stats = marked.filter(
        expr="__stat == True"
    )
    n_docs = total_tokens = 0
    for r in stats.select_columns(["tf", "dl"]).take_all():  # O(blocks) rows
        n_docs += r["tf"]
        total_tokens += r["dl"]
    avgdl = total_tokens / n_docs if n_docs else 1.0

    from dots_ocr_ray.util import bucket_keyed_fold

    matches = marked.filter(expr="__stat == False")
    df = {
        r["term"]: r["n"]
        for r in bucket_keyed_fold(matches, "term", {"n": ("count", None)}).take_all()  # ≤ len(probes) rows
    }

    def _score(batch: pa.Table) -> pa.Table:
        tf = batch.column("tf").to_numpy(zero_copy_only=False).astype(np.float64)
        dl = batch.column("dl").to_numpy(zero_copy_only=False).astype(np.float64)
        dfv = np.array(
            [df.get(t, 0) for t in batch.column("term").to_pylist()], dtype=np.float64
        )
        idf = np.log(1.0 + (n_docs - dfv + 0.5) / (dfv + 0.5))
        score = idf * tf * (k1 + 1.0) / (tf + k1 * (1.0 - b + b * dl / avgdl))
        return pa.table(
            {
                id_col: batch.column(id_col),
                "term": batch.column("term"),
                "tf": batch.column("tf"),
                "bm25": pa.array(np.round(score, 4), type=pa.float64()),
            }
        )

    return matches.map_batches(_score, batch_format="pyarrow")


def token_pmi(
    ds: ray.data.Dataset,
    *,
    text_col: str = "text",
    top_v: int = 32,
    min_pair: int = 2,
) -> pa.Table:
    """Document-level token co-occurrence PMI over the EXACT top-V
    whitespace vocabulary — the collocation / topic-coherence signal
    (``pmi = ln(n_ab · N / (n_a · n_b))`` with document-frequency
    counts) a curation pipeline uses to spot boilerplate phrase pairs
    and topic clusters.

    Scale shape: after the :func:`build_vocab` token exchange, the
    whole co-occurrence computation is ZERO-exchange — each batch
    builds its docs × V membership matrix with one vectorized
    ``pc.index_in`` probe against the broadcast vocabulary and emits a
    single V×V int64 matrix row (``M.T @ M``, ≤ 8 KB at V=32); the
    driver folds O(blocks) matrices.  V is a parameter, not the corpus
    vocabulary — the V² cell grid must stay broadcast-sized (V ≤ ~2k),
    which is exactly the regime PMI collocation scans run at.

    Output: ``(token_a, token_b, n_ab, pmi)`` for lexicographic
    ``token_a < token_b`` with ``n_ab >= min_pair``; ``pmi`` rounded
    to 9 dp for cross-engine float determinism; N = TOTAL document
    count (vocab-free documents dilute pairs, as in the SQL mirror).
    """
    import numpy as np
    import pyarrow.compute as pc

    import ray

    vocab_tbl = build_vocab(ds, text_col=text_col, vocab_size=top_v)
    vs = np.sort(np.asarray(vocab_tbl.column("token").to_pylist(), dtype=object))
    v = len(vs)
    empty = pa.table(
        {
            "token_a": pa.array([], pa.string()),
            "token_b": pa.array([], pa.string()),
            "n_ab": pa.array([], pa.int64()),
            "pmi": pa.array([], pa.float64()),
        }
    )
    if v == 0:
        return empty
    value_set = pa.array(vs.tolist(), type=pa.string())

    def _partial(batch: pa.Table) -> pa.Table:
        toks = split_whitespace_checked(batch.column(text_col))
        flat = pc.list_flatten(toks)
        parent = pc.list_parent_indices(toks)
        idx = pc.index_in(flat, value_set)
        keep = pc.is_valid(idx)
        rows = parent.filter(keep).to_numpy(zero_copy_only=False).astype(np.int64)
        cols = idx.filter(keep).to_numpy(zero_copy_only=False).astype(np.int64)
        key = np.unique(rows * v + cols)
        m = np.zeros((batch.num_rows, v), dtype=np.int64)
        m[key // v, key % v] = 1
        c = m.T @ m
        return pa.table(
            {
                "mat": pa.array([c.ravel()], type=pa.list_(pa.int64())),
                "ndocs": pa.array([batch.num_rows], type=pa.int64()),
            }
        )

    c_total = np.zeros(v * v, dtype=np.int64)
    n_docs = 0
    # batch_size bounds the docs × V membership matrix (~1 MB at 4096×32)
    for b in ds.map_batches(
        _partial, batch_format="pyarrow", batch_size=4096
    ).iter_batches(batch_format="pyarrow"):
        for i in range(b.num_rows):
            c_total += np.asarray(b.column("mat")[i].as_py(), dtype=np.int64)
            n_docs += int(b.column("ndocs")[i].as_py())

    c = c_total.reshape(v, v)
    diag = np.diag(c)
    ii, jj = np.triu_indices(v, k=1)
    n_ab = c[ii, jj]
    keep = n_ab >= min_pair
    ii, jj, n_ab = ii[keep], jj[keep], n_ab[keep]
    with np.errstate(divide="ignore"):
        pmi = np.round(
            np.log(n_ab.astype(np.float64) * n_docs / (diag[ii] * diag[jj]).astype(np.float64)),
            9,
        )
    return pa.table(
        {
            "token_a": pa.array(vs[ii].tolist(), type=pa.string()),
            "token_b": pa.array(vs[jj].tolist(), type=pa.string()),
            "n_ab": pa.array(n_ab, type=pa.int64()),
            "pmi": pa.array(pmi, type=pa.float64()),
        }
    )


def skipgram_cooc(
    ds: ray.data.Dataset,
    *,
    text_col: str = "text",
    top_v: int = 32,
    window: int = 3,
    min_pair: int = 1,
) -> pa.Table:
    """POSITIONAL skip-gram co-occurrence counts over the exact top-V
    vocabulary: every ordered token pair ``(w_i, w_{i+d})`` with
    ``1 <= d <= window`` inside a document — the word2vec / GloVe
    co-occurrence-matrix builder (and the windowed complement of
    :func:`token_pmi`, which counts document-level SET co-occurrence
    with no position information).

    Distance is measured over the non-empty whitespace token stream
    (non-vocab tokens still occupy positions — the standard context-
    window convention, and exactly what the SQL mirror's position
    self-join computes).  Scale shape mirrors token_pmi: after the
    :func:`build_vocab` token exchange the whole computation is
    ZERO-exchange — per batch, one vectorized ``pc.index_in`` probe +
    ``window`` shifted-compare passes fold into a single V×V int64
    matrix row (≤ 8 KB at V=32); the driver sums O(blocks) matrices.
    Pairs never cross documents (the parent-index mask) or batches
    (documents are whole rows).

    Output: ``(token_a, token_b, n)`` for ordered pairs with
    ``n >= min_pair``, both tokens in-vocab."""
    import numpy as np
    import pyarrow.compute as pc

    vocab_tbl = build_vocab(ds, text_col=text_col, vocab_size=top_v)
    vs = np.sort(np.asarray(vocab_tbl.column("token").to_pylist(), dtype=object))
    v = len(vs)
    if v == 0:
        return pa.table(
            {
                "token_a": pa.array([], pa.string()),
                "token_b": pa.array([], pa.string()),
                "n": pa.array([], pa.int64()),
            }
        )
    value_set = pa.array(vs.tolist(), type=pa.string())

    def _partial(batch: pa.Table) -> pa.Table:
        toks = split_whitespace_checked(batch.column(text_col))
        flat = pc.list_flatten(toks)
        parent = pc.list_parent_indices(toks)
        nonempty = pc.not_equal(flat, "")
        flat = flat.filter(nonempty)
        parent = parent.filter(nonempty).to_numpy(zero_copy_only=False).astype(np.int64)
        ids = (
            pc.index_in(flat, value_set)
            .cast(pa.int64())
            .fill_null(-1)
            .to_numpy(zero_copy_only=False)
            .astype(np.int64)
        )
        c = np.zeros(v * v, dtype=np.int64)
        n = len(ids)
        for d in range(1, window + 1):
            if n <= d:
                break
            a, b = ids[:-d], ids[d:]
            m = (parent[:-d] == parent[d:]) & (a >= 0) & (b >= 0)
            if m.any():
                c += np.bincount(a[m] * v + b[m], minlength=v * v)
        return pa.table(
            {"mat": pa.array([c], type=pa.list_(pa.int64()))}
        )

    c_total = np.zeros(v * v, dtype=np.int64)
    # batch_size bounds the flat token arrays, not the V×V row
    for b in ds.map_batches(
        _partial, batch_format="pyarrow", batch_size=4096
    ).iter_batches(batch_format="pyarrow"):
        for i in range(b.num_rows):
            c_total += np.asarray(b.column("mat")[i].as_py(), dtype=np.int64)

    c = c_total.reshape(v, v)
    ii, jj = np.nonzero(c >= min_pair)
    return pa.table(
        {
            "token_a": pa.array(vs[ii].tolist(), type=pa.string()),
            "token_b": pa.array(vs[jj].tolist(), type=pa.string()),
            "n": pa.array(c[ii, jj], type=pa.int64()),
        }
    )


def zipf_fit(
    ds: ray.data.Dataset, *, text_col: str = "text", top_v: int = 64
) -> pa.Table:
    """Zipf's-law fit of the corpus frequency distribution: OLS of
    ln(count) against ln(rank) over the exact top-V vocabulary — the
    scaling-law / corpus-health audit (natural text sits near slope
    −1; template-heavy or synthetic corpora drift).

    One token-keyed count exchange (:func:`build_vocab`) reduces the
    corpus to V (count, rank) points; the fit itself is driver-side
    closed-form sufficient statistics identical to SQL
    ``regr_slope/intercept/r2``, emitted in round-half-away micro-units
    so the mirror is bit-exact.  Output: one row
    (v, slope_micro, intercept_micro, r2_micro)."""
    import numpy as np

    vocab = build_vocab(ds, text_col=text_col, vocab_size=top_v, with_counts=True)
    c = vocab.column("n").to_numpy(zero_copy_only=False).astype(np.float64)
    v = len(c)
    if v < 2:
        return pa.table(
            {
                "v": pa.array([v], type=pa.int64()),
                "slope_micro": pa.array([None], type=pa.int64()),
                "intercept_micro": pa.array([None], type=pa.int64()),
                "r2_micro": pa.array([None], type=pa.int64()),
            }
        )
    x = np.log(np.arange(1, v + 1, dtype=np.float64))
    y = np.log(c)
    n = float(v)
    sx, sy = x.sum(), y.sum()
    sxy, sxx, syy = (x * y).sum(), (x * x).sum(), (y * y).sum()
    denom = n * sxx - sx * sx
    slope = (n * sxy - sx * sy) / denom
    intercept = (sy - slope * sx) / n
    var_y = n * syy - sy * sy
    r2 = ((n * sxy - sx * sy) ** 2 / (denom * var_y)) if var_y > 0 else 1.0

    def _micro(val: float) -> int:
        # round-half-away (SQL round), not numpy's half-even
        import math

        return int(math.floor(val * 1_000_000 + 0.5)) if val >= 0 else -int(
            math.floor(-val * 1_000_000 + 0.5)
        )

    return pa.table(
        {
            "v": pa.array([v], type=pa.int64()),
            "slope_micro": pa.array([_micro(slope)], type=pa.int64()),
            "intercept_micro": pa.array([_micro(intercept)], type=pa.int64()),
            "r2_micro": pa.array([_micro(r2)], type=pa.int64()),
        }
    )


LEXICON_TERMS = ("customer", "merge", "spark", "vector", "window")


def lexicon_scan(
    sf_dir: str, *, terms: tuple[str, ...] = LEXICON_TERMS
) -> pa.Table:
    """Multi-term content-lexicon scan — the badword/topic-lexicon
    gate (C4's blocklist, Gopher's keyword filters) reduced to its
    counting core: per term, how many documents contain it and how
    many occurrences the corpus holds.

    Per batch, ONE ``pyarrow.compute.count_substring`` kernel per term
    (C++-vectorized over the whole column — never a Python row loop),
    folded into a bounded (|lexicon| × batches) partial table the
    driver sums.  This is the right shape for a bounded lexicon; a
    10^5-pattern lexicon would swap the per-term kernel loop for one
    Aho-Corasick automaton in an actor pool (same partial/fold
    contract), which is the documented scale path.
    """
    import numpy as np
    import pyarrow.compute as pc

    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=["text"])
    terms = tuple(sorted(terms))

    def _partial(batch: pa.Table) -> pa.Table:
        col = pc.fill_null(batch.column("text"), "")
        n_docs = np.zeros(len(terms), dtype=np.int64)
        n_occ = np.zeros(len(terms), dtype=np.int64)
        for i, t in enumerate(terms):
            c = pc.count_substring(col, pattern=t)
            n_occ[i] = pc.sum(c).as_py() or 0
            n_docs[i] = pc.sum(pc.cast(pc.greater(c, 0), pa.int64())).as_py() or 0
        return pa.table(
            {
                "term": pa.array(list(terms), type=pa.string()),
                "n_docs": pa.array(n_docs, type=pa.int64()),
                "n_occurrences": pa.array(n_occ, type=pa.int64()),
            }
        )

    n_docs = np.zeros(len(terms), dtype=np.int64)
    n_occ = np.zeros(len(terms), dtype=np.int64)
    idx = {t: i for i, t in enumerate(terms)}
    for b in ds.map_batches(_partial, batch_format="pyarrow").iter_batches(
        batch_format="pyarrow"
    ):
        for t, d, o in zip(
            b.column("term").to_pylist(),
            b.column("n_docs").to_pylist(),
            b.column("n_occurrences").to_pylist(),
        ):
            n_docs[idx[t]] += d
            n_occ[idx[t]] += o
    return pa.table(
        {
            "term": pa.array(list(terms), type=pa.string()),
            "n_docs": pa.array(n_docs, type=pa.int64()),
            "n_occurrences": pa.array(n_occ, type=pa.int64()),
        }
    )


def readability_scores(
    ds: "ray.data.Dataset", *, text_col: str = "text"
) -> "ray.data.Dataset":
    """Flesch-reading-ease-style readability per document, fully
    vectorized: words / sentence-breaks / vowel-group syllable proxies
    are three Arrow ``count_substring_regex`` kernels (RE2, the same
    regex engine DuckDB binds, so the SQL mirror counts identically),
    and the score is one float64 expression with the SAME operand
    order as the oracle, micro-FLOORED (floor has no half-tie rule to
    disagree on, unlike round).  Zero exchange.

    The vowel-group syllable count is the standard cheap proxy (one
    group ≈ one syllable); the point is a deterministic, corpus-scale
    difficulty score for curriculum bucketing, not linguistics."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.compute as pc

    def _score(batch: pa.Table) -> pa.Table:
        col = pc.fill_null(batch.column(text_col), "")
        w = pc.count_substring_regex(col, r"\S+").cast(pa.int64()).to_numpy(
            zero_copy_only=False
        )
        s = pc.count_substring_regex(col, r"[.!?]+").cast(pa.int64()).to_numpy(
            zero_copy_only=False
        )
        y = pc.count_substring_regex(col, r"[aeiouyAEIOUY]+").cast(
            pa.int64()
        ).to_numpy(zero_copy_only=False)
        s = np.maximum(s, 1)
        wd = np.maximum(w, 1).astype(np.float64)
        flesch = np.floor(
            206835000.0 - 1015000.0 * w / s.astype(np.float64) - 84600000.0 * y / wd
        ).astype(np.int64)
        return batch.append_column("n_words", pa.array(w)).append_column(
            "n_sentences", pa.array(s)
        ).append_column("n_syllables", pa.array(y)).append_column(
            "flesch_micro", pa.array(flesch)
        )

    return ds.map_batches(_score, batch_format="pyarrow")


def token_entropy(ds: ray.data.Dataset) -> ray.data.Dataset:
    """Per-document unigram (whitespace-token) Shannon entropy — the
    lexical-diversity quality signal that separates natural prose from
    keyword-stuffed or template spam at a glance.

    The entropy is QUANTIZED for engine-independent exactness: each
    distinct token's contribution ``floor(1e6 · c·log2(c))`` is an
    int64 (term-local floors make the per-doc sum order-independent —
    no float accumulation crosses rows), and
    ``entropy_micro = floor(1e6·log2(n)) − Σterms // n`` uses integer
    floor division, mirrored literally by the SQL oracle.  One
    stateless map_batches, zero exchange: documents are row-complete
    inside a batch."""
    import numpy as np
    import pandas as pd
    import pyarrow.compute as pc

    def _entropy(batch: pa.Table) -> pa.Table:
        doc_ids = batch.column("doc_id").to_numpy(zero_copy_only=False).astype(np.int64)
        toks = split_whitespace_checked(batch.column("text"))
        lens = pc.list_value_length(toks).to_numpy(zero_copy_only=False).astype(np.int64)
        didx = np.repeat(np.arange(len(doc_ids), dtype=np.int64), lens)
        flat = pc.list_flatten(toks)
        keep = pc.not_equal(flat, "").to_numpy(zero_copy_only=False)
        didx = didx[keep]
        if len(didx) == 0:
            return pa.table(
                {
                    "doc_id": pa.array([], pa.int64()),
                    "n_tokens": pa.array([], pa.int64()),
                    "entropy_micro": pa.array([], pa.int64()),
                }
            )
        tcodes = pd.factorize(flat.filter(pa.array(keep)).to_numpy(zero_copy_only=False))[0]
        n_codes = int(tcodes.max()) + 1
        key = didx * n_codes + tcodes
        uk, counts = np.unique(key, return_counts=True)
        udoc = uk // n_codes
        c = counts.astype(np.float64)
        terms = np.floor(1e6 * (c * np.log2(c))).astype(np.int64)
        n_docs = len(doc_ids)
        s = np.zeros(n_docs, np.int64)
        np.add.at(s, udoc, terms)
        n_tok = np.zeros(n_docs, np.int64)
        np.add.at(n_tok, didx, 1)
        has = n_tok > 0
        ent = (
            np.floor(1e6 * np.log2(n_tok[has].astype(np.float64))).astype(np.int64)
            - s[has] // n_tok[has]
        )
        return pa.table(
            {
                "doc_id": pa.array(doc_ids[has], pa.int64()),
                "n_tokens": pa.array(n_tok[has], pa.int64()),
                "entropy_micro": pa.array(ent, pa.int64()),
            }
        )

    return ds.map_batches(_entropy, batch_format="pyarrow")


# --- stemmed vocabulary ------------------------------------------------------

def stemmed_vocab(
    docs: "ray.data.Dataset",
    *,
    text_col: str = "text",
    top_n: int = 20,
) -> pa.Table:
    """Stem-grouped vocabulary rollup (the morphology-collapsing
    vocabulary scan run before lexicon construction): tokens are
    ``[a-z]+`` runs of the lowercased text, stemmed with the shared
    Porter kernel; output the ``top_n`` stems by total occurrences
    (tie -> stem asc) with their corpus-wide distinct surface-form
    counts.

    Scale shape: per-batch np.unique memoizes the stemmer to DISTINCT
    words (Python cost O(batch vocab), not O(tokens)); one
    vocab-bounded keyed fold sums (stem, word) pair counts exactly; a
    second bounded fold rolls stems up; the driver holds only a
    running top-``top_n``.  Golden-mirrored sequentially."""
    import re

    import numpy as np

    from dots_ocr_ray.functions.stem import porter_stem
    from dots_ocr_ray.util import bucket_keyed_fold

    tok_re = re.compile(r"[a-z]+")

    def _pairs(batch: pa.Table) -> pa.Table:
        words: list[str] = []
        for t in batch.column(text_col).to_pylist():
            if t:
                words.extend(tok_re.findall(t.lower()))
        if not words:
            return pa.table(
                {"sw": pa.array([], type=pa.string()), "cnt": pa.array([], type=pa.int64())}
            )
        arr = np.array(words)
        uniq, cnt = np.unique(arr, return_counts=True)
        keys = [f"{porter_stem(w)}\x1f{w}" for w in uniq]
        return pa.table(
            {
                "sw": pa.array(keys, type=pa.string()),
                "cnt": pa.array(cnt.astype(np.int64), type=pa.int64()),
            }
        )

    pair_counts = bucket_keyed_fold(docs.map_batches(_pairs, batch_format="pyarrow"), "sw", {"cnt": ("sum", "cnt")})

    def _split(batch: pa.Table) -> pa.Table:
        stems = [s.split("\x1f", 1)[0] for s in batch.column("sw").to_pylist()]
        return pa.table({"stem": pa.array(stems, type=pa.string()), "cnt": batch.column("cnt")})

    stems = bucket_keyed_fold(
        pair_counts.map_batches(_split, batch_format="pyarrow"),
        "stem",
        {"cnt": ("sum", "cnt"), "forms": ("count", None)},
    )
    # driver fold: O(top_n) memory over the streamed stem table
    best: list[tuple[int, str, int]] = []  # (-cnt, stem, forms) sorted asc
    for b in stems.iter_batches(batch_format="pyarrow"):
        for r in b.to_pylist():
            best.append((-int(r["cnt"]), r["stem"], int(r["forms"])))
        best.sort()
        del best[top_n:]
    return pa.table(
        {
            "stem": pa.array([s for _, s, _ in best], type=pa.string()),
            "total": pa.array([-c for c, _, _ in best], type=pa.int64()),
            "n_forms": pa.array([f for _, _, f in best], type=pa.int64()),
        }
    )


# --- Kneser-Ney bigram probabilities ------------------------------------------

def kn_bigram_probs(
    docs: "ray.data.Dataset",
    *,
    text_col: str = "text",
    top_n: int = 50,
    discount_quarters: int = 3,  # d = 3/4, the classic KN discount
) -> pa.Table:
    """Interpolated Kneser-Ney bigram probabilities for the corpus'
    ``top_n`` bigrams — the smoothing family add-k LMs (the CCNet-
    style ``bigram_lm_scores``) cannot express: continuation
    probability ``Pcont(w2) = N1+(·w2)/N1+(··)`` backs off by how many
    CONTEXTS a word follows, not how often it occurs.

    Integer-exact: with d = 3/4 and observed bigrams (c12 ≥ 1 ⇒
    max(c12−d,0) = c12−d), ``p_micro = (1e6·((4·c12−3)·N +
    3·N1l(w1)·N1r(w2))) // (4·c1(w1)·N)`` — no float ever appears, so
    the SQL oracle mirrors it with HUGEINT arithmetic.

    Scale shape: ONE vocab-bounded bigram count exchange; the driver
    stream-folds a top_n heap (O(top_n) memory); the per-context
    totals (c1, N1l) and continuation counts (N1r, N) for the ≤top_n
    winners come from one more streamed pass over the materialized
    bigram table with the winner key sets broadcast — bounded partials,
    never the vocabulary, on the driver."""
    import numpy as np

    from dots_ocr_ray.util import bucket_keyed_fold

    def _bigrams(batch: pa.Table) -> pa.Table:
        pairs: list[str] = []
        for t in batch.column(text_col).to_pylist():
            w = (t or "").split()
            pairs.extend(f"{a}\x1f{b}" for a, b in zip(w, w[1:]))
        return pa.table({"bg": pa.array(pairs, type=pa.string())})

    bg = bucket_keyed_fold(docs.map_batches(_bigrams, batch_format="pyarrow"), "bg", {"n": ("count", None)}).materialize()

    # driver stream-fold: top_n by (count desc, bigram asc)
    best: list[tuple[int, str]] = []
    for b in bg.iter_batches(batch_format="pyarrow"):
        for key, cnt in zip(b.column("bg").to_pylist(), b.column("n").to_pylist()):
            best.append((-int(cnt), key))
        best.sort()
        del best[top_n:]
    winners = [(k.split("\x1f", 1)[0], k.split("\x1f", 1)[1], -c) for c, k in best]
    w1_set = sorted({w[0] for w in winners})
    w2_set = sorted({w[1] for w in winners})
    import ray as _ray

    from dots_ocr_ray.util import cached_object

    sets_ref = _ray.put((w1_set, w2_set))

    def _context_partials(batch: pa.Table) -> pa.Table:
        w1s, w2s = cached_object(sets_ref)
        w1_idx = {w: i for i, w in enumerate(w1s)}
        w2_idx = {w: i for i, w in enumerate(w2s)}
        c1 = np.zeros(len(w1s), dtype=np.int64)
        n1l = np.zeros(len(w1s), dtype=np.int64)
        n1r = np.zeros(len(w2s), dtype=np.int64)
        total_types = 0
        for key, cnt in zip(b2 := batch.column("bg").to_pylist(), batch.column("n").to_pylist()):
            a, bword = key.split("\x1f", 1)
            total_types += 1
            i = w1_idx.get(a)
            if i is not None:
                c1[i] += int(cnt)
                n1l[i] += 1
            j = w2_idx.get(bword)
            if j is not None:
                n1r[j] += 1
        return pa.table(
            {
                "c1": pa.array([c1.tolist()], type=pa.list_(pa.int64())),
                "n1l": pa.array([n1l.tolist()], type=pa.list_(pa.int64())),
                "n1r": pa.array([n1r.tolist()], type=pa.list_(pa.int64())),
                "nt": pa.array([total_types], type=pa.int64()),
            }
        )

    c1 = np.zeros(len(w1_set), dtype=np.int64)
    n1l = np.zeros(len(w1_set), dtype=np.int64)
    n1r = np.zeros(len(w2_set), dtype=np.int64)
    n_types = 0
    for b in bg.map_batches(_context_partials, batch_format="pyarrow").iter_batches(
        batch_format="pyarrow"
    ):
        for r in range(b.num_rows):
            c1 += np.array(b.column("c1")[r].as_py(), dtype=np.int64)
            n1l += np.array(b.column("n1l")[r].as_py(), dtype=np.int64)
            n1r += np.array(b.column("n1r")[r].as_py(), dtype=np.int64)
            n_types += int(b.column("nt")[r].as_py())

    w1_pos = {w: i for i, w in enumerate(w1_set)}
    w2_pos = {w: i for i, w in enumerate(w2_set)}
    d = discount_quarters
    rows = {"w1": [], "w2": [], "c12": [], "p_micro": []}
    for a, bword, c12 in winners:
        cc1 = int(c1[w1_pos[a]])
        nl = int(n1l[w1_pos[a]])
        nr = int(n1r[w2_pos[bword]])
        p_micro = (1_000_000 * ((4 * c12 - d) * n_types + d * nl * nr)) // (
            4 * cc1 * n_types
        )
        rows["w1"].append(a)
        rows["w2"].append(bword)
        rows["c12"].append(c12)
        rows["p_micro"].append(p_micro)
    return pa.table(
        {
            "w1": pa.array(rows["w1"], type=pa.string()),
            "w2": pa.array(rows["w2"], type=pa.string()),
            "c12": pa.array(rows["c12"], type=pa.int64()),
            "p_micro": pa.array(rows["p_micro"], type=pa.int64()),
        }
    )


# --- word2vec negative sampling -------------------------------------------------

def unigram_sampling_table(
    docs: "ray.data.Dataset", *, text_col: str = "text"
) -> tuple[list[str], "np.ndarray"]:
    """(vocab sorted asc, cumulative unigram^0.75 weights) — the
    classic word2vec noise distribution, weights quantized to
    ``floor(1e6 · cnt^0.75)`` so the table is integer-exact.  One
    vocab-bounded count exchange; the table broadcasts once (the same
    in-memory unigram-table budget word2vec itself assumes — cap the
    vocabulary upstream with a min-count filter when it outgrows a
    worker)."""
    import math

    import numpy as np

    from dots_ocr_ray.util import bucket_keyed_fold

    def _tokens(batch: pa.Table) -> pa.Table:
        toks: list[str] = []
        for t in batch.column(text_col).to_pylist():
            toks.extend((t or "").split())
        return pa.table({"tok": pa.array(toks, type=pa.string())})

    folded = (
        bucket_keyed_fold(docs.map_batches(_tokens, batch_format="pyarrow"), "tok", {"n": ("count", None)})
        .to_pandas()
        .sort_values("tok")
    )
    vocab = [str(t) for t in folded["tok"]]
    w = np.array(
        [math.floor(1_000_000 * float(c) ** 0.75) for c in folded["n"]],
        dtype=np.int64,
    )
    return vocab, np.cumsum(w)


def negative_samples(
    docs: "ray.data.Dataset",
    *,
    text_col: str = "text",
    k: int = 5,
) -> pa.Table:
    """Deterministic word2vec negative sampling: for every corpus
    token as a center, draw ``k`` negatives from the unigram^0.75
    noise distribution — the sampled-softmax denominators a skip-gram
    trainer needs.  NO RNG: draw j for a center uses the 48-bit
    md5-derived uniform of ``f"{center}|{j}"``, target =
    ``(v · W) >> 48`` (pure integer), negative = the token whose
    cumulative-weight interval contains the target.  Center==negative
    collisions pass through (the classic implementation resamples;
    determinism wins here, stated not hidden).

    Scale shape: one vocab-bounded count exchange builds the
    broadcast cum table; the sampling pass is stateless map_batches
    over the vocab (one searchsorted per draw)."""
    import hashlib

    import numpy as np

    import ray as _ray

    from dots_ocr_ray.util import cached_object

    vocab, cum = unigram_sampling_table(docs, text_col=text_col)
    if not vocab:
        return pa.table(
            {
                "center": pa.array([], type=pa.string()),
                "j": pa.array([], type=pa.int64()),
                "negative": pa.array([], type=pa.string()),
            }
        )
    table_ref = _ray.put((vocab, cum))
    centers_ds = ray.data.from_arrow(
        pa.table({"center": pa.array(vocab, type=pa.string())})
    )

    def _draw(batch: pa.Table) -> pa.Table:
        vo, cu = cached_object(table_ref)
        total = int(cu[-1])
        cs, js, negs = [], [], []
        for c in batch.column("center").to_pylist():
            for j in range(k):
                v = int(hashlib.md5(f"{c}|{j}".encode()).hexdigest()[:12], 16)
                t = (v * total) >> 48
                idx = int(np.searchsorted(cu, t, side="right"))
                cs.append(c)
                js.append(j)
                negs.append(vo[min(idx, len(vo) - 1)])
        return pa.table(
            {
                "center": pa.array(cs, type=pa.string()),
                "j": pa.array(js, type=pa.int64()),
                "negative": pa.array(negs, type=pa.string()),
            }
        )

    parts = [
        b
        for b in centers_ds.map_batches(_draw, batch_format="pyarrow").iter_batches(
            batch_format="pyarrow"
        )
        if b.num_rows
    ]
    return pa.concat_tables(parts) if parts else pa.table(
        {
            "center": pa.array([], type=pa.string()),
            "j": pa.array([], type=pa.int64()),
            "negative": pa.array([], type=pa.string()),
        }
    )


def cohens_kappa(confusion: pa.Table | "ray.data.Dataset") -> pa.Table:
    """Cohen's κ from a (label, prediction, n) confusion table — the
    chance-corrected agreement metric a classifier eval reports next
    to raw accuracy: ``κ_micro = floor(1e6·(N·Σdiag − Σᵢ rᵢ·cᵢ) /
    (N² − Σᵢ rᵢ·cᵢ))`` — arbitrary-precision integer arithmetic on the
    BOUNDED confusion table (label² rows), no float ever.  Pure
    driver arithmetic by design: the distributed work is the
    confusion fold upstream."""
    import numpy as np

    if hasattr(confusion, "iter_batches"):
        parts = [b for b in confusion.iter_batches(batch_format="pyarrow") if b.num_rows]
        confusion = pa.concat_tables(parts) if parts else pa.table(
            {"lang": pa.array([], pa.string()), "lang_pred": pa.array([], pa.string()),
             "n": pa.array([], pa.int64())}
        )
    labels = confusion.column(0).to_pylist()
    preds = confusion.column(1).to_pylist()
    ns = [int(x) for x in confusion.column(2).to_pylist()]
    total = sum(ns)
    if total == 0:
        return pa.table(
            {
                "n": pa.array([0], type=pa.int64()),
                "po_micro": pa.array([0], type=pa.int64()),
                "pe_micro": pa.array([0], type=pa.int64()),
                "kappa_micro": pa.array([0], type=pa.int64()),
            }
        )
    diag = sum(n for l, p, n in zip(labels, preds, ns) if l == p)
    row: dict[str, int] = {}
    col: dict[str, int] = {}
    for l, p, n in zip(labels, preds, ns):
        row[l] = row.get(l, 0) + n
        col[p] = col.get(p, 0) + n
    cross = sum(row[k] * col.get(k, 0) for k in row)
    po_micro = (1_000_000 * diag) // total
    pe_micro = (1_000_000 * cross) // (total * total)
    denom = total * total - cross
    kappa_micro = (
        1_000_000 if denom == 0 else (1_000_000 * (total * diag - cross)) // denom
    )
    return pa.table(
        {
            "n": pa.array([total], type=pa.int64()),
            "po_micro": pa.array([po_micro], type=pa.int64()),
            "pe_micro": pa.array([pe_micro], type=pa.int64()),
            "kappa_micro": pa.array([kappa_micro], type=pa.int64()),
        }
    )


# --- Jaro-Winkler vocabulary linkage ----------------------------------------------

def jw_vocab_pairs(
    docs: "ray.data.Dataset",
    *,
    text_col: str = "text",
    threshold_micro: int = 700_000,
) -> pa.Table:
    """Jaro-Winkler near-match pairs over the corpus vocabulary — the
    record-linkage view of vocab variants (typos, inflections,
    transpositions) that edit distance under-ranks and n-gram Jaccard
    ignores ordering for.  Output (w1, w2, jw_micro) with w1 < w2 and
    jw >= threshold.

    Scale shape: one vocab-bounded distinct fold; the sorted vocab
    broadcasts once and each vocab partition compares ITS words
    against the broadcast tail (j > i) — the all-pairs work
    distributes evenly and the driver holds only surviving pairs.
    O(V²) comparisons by design: cap or block the vocabulary upstream
    (min-count / first-char blocking) when V outgrows the budget —
    stated, not silent."""

    import ray as _ray

    from dots_ocr_ray.functions.strsim import jaro_winkler_micro
    from dots_ocr_ray.util import bucket_keyed_fold, cached_object

    def _tokens(batch: pa.Table) -> pa.Table:
        toks: list[str] = []
        for t in batch.column(text_col).to_pylist():
            toks.extend((t or "").split())
        return pa.table({"tok": pa.array(toks, type=pa.string())})

    vocab_rows = bucket_keyed_fold(docs.map_batches(_tokens, batch_format="pyarrow"), "tok", {}).to_pandas()
    vocab = sorted(str(t) for t in vocab_rows["tok"])
    if not vocab:
        return pa.table(
            {
                "w1": pa.array([], type=pa.string()),
                "w2": pa.array([], type=pa.string()),
                "jw_micro": pa.array([], type=pa.int64()),
            }
        )
    vocab_ref = _ray.put(vocab)
    idx_ds = ray.data.range(len(vocab))

    def _pairs(batch) -> pa.Table:
        vo = cached_object(vocab_ref)
        w1s, w2s, ss = [], [], []
        for i in batch["id"].tolist():
            a = vo[int(i)]
            for j in range(int(i) + 1, len(vo)):
                s = jaro_winkler_micro(a, vo[j])
                if s >= threshold_micro:
                    w1s.append(a)
                    w2s.append(vo[j])
                    ss.append(s)
        return pa.table(
            {
                "w1": pa.array(w1s, type=pa.string()),
                "w2": pa.array(w2s, type=pa.string()),
                "jw_micro": pa.array(ss, type=pa.int64()),
            }
        )

    out = idx_ds.map_batches(_pairs, batch_format="numpy")
    parts = [b for b in out.iter_batches(batch_format="pyarrow") if b.num_rows]
    if not parts:
        return pa.table(
            {
                "w1": pa.array([], type=pa.string()),
                "w2": pa.array([], type=pa.string()),
                "jw_micro": pa.array([], type=pa.int64()),
            }
        )
    t = pa.concat_tables(parts)
    import pyarrow.compute as pc

    return t.take(pc.sort_indices(t, sort_keys=[("w1", "ascending"), ("w2", "ascending")]))


# --- empirical-Bayes rate shrinkage ----------------------------------------------

def eb_shrunken_rates(
    counts: "ray.data.Dataset",
    *,
    key_col: str = "host",
    n_col: str = "n",
    k_col: str = "k",
) -> "ray.data.Dataset":
    """Empirical-Bayes (beta-binomial, method-of-moments) shrinkage of
    per-key success rates — the domain-prior statistic a host-level
    curation list needs so a 1/2-kept host doesn't outrank a 480/1000
    one (the same pathology :func:`~dots_ocr_ray.pipelines.extract.
    host_failure_wilson` guards with an interval; this guards it with
    a fitted prior).

    Input: PARTIAL ``(key, n, k)`` rows (any number per key — they sum
    exactly).  Output per key: ``(key, n, k, raw_micro, shrunk_micro)``
    with ``raw_micro = (1e6·k)//n`` and ``shrunk_micro =
    floor(1e6·(k + m·C) / (n + C))`` where ``m`` is the across-key mean
    of the micro-quantized rates and ``C = m(1−m)/v − 1`` the
    beta-binomial pseudo-count from their variance (no shrinkage —
    C = 0, shrunk = raw — when keys < 2, v ≤ 0, or v ≥ m(1−m)).

    Determinism: the moment fit consumes ONLY exact integer sums
    (H, Σpm, Σpm²) — addition order can't perturb it — and the final
    float expression is written in one fixed association mirrored
    literally by the SQL oracle, so results are bit-identical across
    partitionings and engines.

    Scale shape: one coarse 256-way exchange folds partials to exact
    per-key (n, k) (reduceat, no per-key Python); per-bucket integer
    moment partials reduce to THREE driver scalars; the fitted (m, C)
    broadcast back over the folded table for the final map."""
    import numpy as np

    from dots_ocr_ray.util import bucket_keyed_fold

    folded = bucket_keyed_fold(
        counts,
        key_col,
        {"n": ("sum", n_col), "k": ("sum", k_col)},
        num_buckets=256,
        rows_per_block=65536,
    ).materialize()

    # exact integer moment partials — three scalars per bucket
    def _moments(batch: pa.Table) -> pa.Table:
        nv = batch.column("n").to_numpy(zero_copy_only=False).astype(np.int64)
        kv = batch.column("k").to_numpy(zero_copy_only=False).astype(np.int64)
        pm = (1_000_000 * kv) // np.maximum(nv, 1)
        return pa.table(
            {
                "h": pa.array([len(nv)], type=pa.int64()),
                "s1": pa.array([int(pm.sum())], type=pa.int64()),
                "s2": pa.array([int((pm.astype(object) ** 2).sum())], type=pa.int64()),
            }
        )

    H = S1 = S2 = 0
    for r in folded.map_batches(_moments, batch_format="pyarrow").take_all():
        H += int(r["h"])
        S1 += int(r["s1"])
        S2 += int(r["s2"])
    if H:
        mean = S1 / (1_000_000.0 * H)
        var = S2 / (1_000_000_000_000.0 * H) - (S1 / (1_000_000.0 * H)) * (
            S1 / (1_000_000.0 * H)
        )
    else:
        mean = var = 0.0
    if H < 2 or var <= 0.0 or var >= mean * (1.0 - mean):
        common = 0.0
    else:
        common = mean * (1.0 - mean) / var - 1.0

    def _shrink(batch: pa.Table) -> pa.Table:
        nv = batch.column("n").to_numpy(zero_copy_only=False).astype(np.int64)
        kv = batch.column("k").to_numpy(zero_copy_only=False).astype(np.int64)
        raw = (1_000_000 * kv) // np.maximum(nv, 1)
        if common == 0.0:
            shrunk = raw
        else:
            shrunk = np.floor(
                (1_000_000.0 * (kv + mean * common)) / (nv + common)
            ).astype(np.int64)
        return pa.table(
            {
                key_col: batch.column(key_col),
                "n": batch.column("n"),
                "k": batch.column("k"),
                "raw_micro": pa.array(raw, type=pa.int64()),
                "shrunk_micro": pa.array(shrunk, type=pa.int64()),
            }
        )

    return folded.map_batches(_shrink, batch_format="pyarrow")


# --- vocabulary coverage (Good-Turing / Chao1) -----------------------------------

def vocab_coverage(
    docs: "ray.data.Dataset",
    *,
    text_col: str = "text",
) -> pa.Table:
    """Vocabulary-coverage estimate for crawl planning: one row
    ``(n_tokens, vocab, hapax, dis, unseen_mass_micro, chao1_micro)``
    where ``unseen_mass_micro = (1e6·N₁)//N`` is the Good-Turing
    probability mass of UNSEEN tokens (Turing estimator — how much of
    the language the corpus still misses) and ``chao1_micro = 1e6·V +
    (1e6·N₁(N₁−1))//(2(N₂+1))`` the bias-corrected Chao1 richness
    estimate (how many token types exist including unseen ones).
    Entirely integer arithmetic — hash-exact under any partitioning.

    Scale shape: per-batch token-hash count partials (np.unique) → ONE
    :func:`~dots_ocr_ray.util.bucket_keyed_fold` exchange → per-batch
    frequency-of-frequencies partials (N, V, N₁, N₂) → four driver
    scalars.  Token identity is the 64-bit stable hash (the oracle
    counts strings; distinct tokens collide with ~2⁻⁶⁴ probability,
    the substring-dedup convention)."""
    import numpy as np

    from dots_ocr_ray.util import bucket_keyed_fold

    def _partials(batch: pa.Table) -> pa.Table:
        from dots_ocr_ray.pipelines.substring import _hash_tokens, _tokens_from_batch

        tok_vals, _, _ = _tokens_from_batch(batch.column(text_col))
        h = _hash_tokens(tok_vals).view(np.int64)
        uniq, cnt = np.unique(h, return_counts=True)
        return pa.table(
            {
                "tok_h": pa.array(uniq, type=pa.int64()),
                "cnt": pa.array(cnt.astype(np.int64), type=pa.int64()),
            }
        )

    partials = docs.map_batches(_partials, batch_format="pyarrow")
    counts = bucket_keyed_fold(partials, "tok_h", {"cnt": ("sum", "cnt")})

    def _fof(batch: pa.Table) -> pa.Table:
        c = batch.column("cnt").to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table(
            {
                "n": pa.array([int(c.sum())], type=pa.int64()),
                "v": pa.array([len(c)], type=pa.int64()),
                "n1": pa.array([int((c == 1).sum())], type=pa.int64()),
                "n2": pa.array([int((c == 2).sum())], type=pa.int64()),
            }
        )

    N = V = N1 = N2 = 0
    for r in counts.map_batches(_fof, batch_format="pyarrow").take_all():
        N += int(r["n"])
        V += int(r["v"])
        N1 += int(r["n1"])
        N2 += int(r["n2"])
    unseen = (1_000_000 * N1) // max(N, 1)
    chao1 = 1_000_000 * V + (1_000_000 * N1 * (N1 - 1)) // (2 * (N2 + 1))
    return pa.table(
        {
            "n_tokens": pa.array([N], type=pa.int64()),
            "vocab": pa.array([V], type=pa.int64()),
            "hapax": pa.array([N1], type=pa.int64()),
            "dis": pa.array([N2], type=pa.int64()),
            "unseen_mass_micro": pa.array([unseen], type=pa.int64()),
            "chao1_micro": pa.array([chao1], type=pa.int64()),
        }
    )


# --- token burstiness (Church–Gale TF/DF) ----------------------------------------

def token_burstiness(
    docs: "ray.data.Dataset",
    *,
    text_col: str = "text",
    id_col: str = "doc_id",
    min_df: int = 5,
    k: int = 20,
) -> pa.Table:
    """Top-k BURSTY tokens — mean occurrences per containing document
    (``burst_micro = (1e6·TF)//DF``, the Church–Gale burstiness
    signal): topical words repeat within the documents that mention
    them, function words spread evenly, so high burstiness at
    ``DF ≥ min_df`` ranks keyword-like vocabulary without any model.

    Scale shape: per-batch (token, tf, df) partials (documents are
    whole rows, so per-batch df sums exactly) → ONE token-keyed fold
    → per-batch local top-k partials over the
    folded vocab table → the driver merges ≤ k × batches rows and
    takes the global top-k (burst DESC, token ASC tie-break — the
    deterministic cutoff the SQL oracle mirrors)."""
    import numpy as np

    from dots_ocr_ray.util import bucket_keyed_fold

    def _partials(batch: pa.Table) -> pa.Table:
        from dots_ocr_ray.pipelines.substring import _tokens_from_batch

        tok_vals, offsets, doc_of = _tokens_from_batch(batch.column(text_col))
        if len(doc_of) == 0:
            return pa.table(
                {
                    "token": pa.array([], type=pa.string()),
                    "tf": pa.array([], type=pa.int64()),
                    "df": pa.array([], type=pa.int64()),
                }
            )
        enc = tok_vals.dictionary_encode()
        tok_idx = enc.indices.to_numpy(zero_copy_only=False).astype(np.int64)
        n_tok = len(enc.dictionary)
        tf = np.bincount(tok_idx, minlength=n_tok).astype(np.int64)
        # df: distinct (doc, token) pairs per batch
        pair = doc_of * np.int64(n_tok) + tok_idx
        uniq_pairs = np.unique(pair)
        df = np.bincount(
            (uniq_pairs % np.int64(n_tok)).astype(np.int64), minlength=n_tok
        ).astype(np.int64)
        return pa.table(
            {
                "token": enc.dictionary,
                "tf": pa.array(tf, type=pa.int64()),
                "df": pa.array(df, type=pa.int64()),
            }
        )

    folded = bucket_keyed_fold(
        docs.map_batches(_partials, batch_format="pyarrow"), "token", {"tf": ("sum", "tf"), "df": ("sum", "df")}
    )

    def _local_top(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        tf = batch.column("tf").to_numpy(zero_copy_only=False).astype(np.int64)
        df = batch.column("df").to_numpy(zero_copy_only=False).astype(np.int64)
        keep = df >= min_df
        if not keep.any():
            return pa.table(
                {
                    "token": pa.array([], type=pa.string()),
                    "tf": pa.array([], type=pa.int64()),
                    "df": pa.array([], type=pa.int64()),
                    "burst_micro": pa.array([], type=pa.int64()),
                }
            )
        toks = batch.column("token").filter(pa.array(keep))
        tf, df = tf[keep], df[keep]
        burst = (1_000_000 * tf) // df
        t = pa.table(
            {
                "token": toks,
                "tf": pa.array(tf, type=pa.int64()),
                "df": pa.array(df, type=pa.int64()),
                "burst_micro": pa.array(burst, type=pa.int64()),
            }
        )
        t = t.take(
            pc.sort_indices(
                t, sort_keys=[("burst_micro", "descending"), ("token", "ascending")]
            )
        )
        return t.slice(0, k)

    parts = [
        b
        for b in folded.map_batches(_local_top, batch_format="pyarrow").iter_batches(
            batch_format="pyarrow"
        )
        if b.num_rows
    ]
    if not parts:
        return pa.table(
            {
                "token": pa.array([], type=pa.string()),
                "tf": pa.array([], type=pa.int64()),
                "df": pa.array([], type=pa.int64()),
                "burst_micro": pa.array([], type=pa.int64()),
            }
        )
    import pyarrow.compute as pc

    merged = pa.concat_tables(parts)
    merged = merged.take(
        pc.sort_indices(
            merged, sort_keys=[("burst_micro", "descending"), ("token", "ascending")]
        )
    )
    return merged.slice(0, k)


# --- categorical diversity indices -----------------------------------------------

def category_diversity(
    ds: "ray.data.Dataset",
    *,
    category_col: str = "lang",
) -> pa.Table:
    """Diversity of a categorical mix (language, source, host tier) in
    one row: ``(n_categories, n_rows, simpson_micro,
    inv_simpson_micro)`` — Simpson's index ``Σnᵢ(nᵢ−1)/(N(N−1))`` (the
    probability two random docs share the category; 1e6 = monoculture)
    and the inverse-Simpson EFFECTIVE category count ``⌊1e6·N²/Σnᵢ²⌋``
    (how many equally-sized categories the mix behaves like — the
    number a mixture-rebalancing plan actually cares about).  All
    integer arithmetic, hash-exact.

    Scale shape: one bounded category-keyed fold → four integer
    scalars on the driver."""
    from dots_ocr_ray.util import bucket_keyed_fold

    folded = bucket_keyed_fold(ds, category_col, {"n": ("count", None)})
    counts = [int(r["n"]) for r in folded.take_all()]  # bounded categories
    N = sum(counts)
    k = len(counts)
    ssq = sum(c * c for c in counts)
    spair = sum(c * (c - 1) for c in counts)
    simpson = (1_000_000 * spair) // max(N * (N - 1), 1)
    inv_simpson = (1_000_000 * N * N) // max(ssq, 1)
    return pa.table(
        {
            "n_categories": pa.array([k], type=pa.int64()),
            "n_rows": pa.array([N], type=pa.int64()),
            "simpson_micro": pa.array([simpson], type=pa.int64()),
            "inv_simpson_micro": pa.array([inv_simpson], type=pa.int64()),
        }
    )
