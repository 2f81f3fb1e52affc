"""Property tests: the kernel NEVER raises and never loses the row,
whatever bytes arrive (the degradation-without-data-loss invariant,
SURVEY.md §7.4 hard part 2)."""

from hypothesis import given, settings
from hypothesis import strategies as st

from dots_ocr_ray.kernel.cleaner import clean_model_output
from dots_ocr_ray.kernel.extract import ExtractConfig, extract_page
from dots_ocr_ray.kernel.html_parse import segment_html, strip_tags
from dots_ocr_ray.kernel.serialize import spans_to_markdown
from tag_soup import TAG_SOUP_TOKENS


@settings(max_examples=200, deadline=None)
@given(st.binary(max_size=2048), st.text(max_size=256))
def test_extract_page_total(html, text):
    out = extract_page("https://x.test/p", html, text)
    assert out["status"] in ("finished", "fallback", "failed")
    assert isinstance(out["extracted_text"], str)
    # offsets are consistent with the serialized text
    for s in out["spans"]:
        assert 0 <= s["char_start"] <= s["char_end"] <= len(out["extracted_text"])


@settings(max_examples=200, deadline=None)
@given(st.lists(st.sampled_from(TAG_SOUP_TOKENS), max_size=60), st.booleans(), st.booleans())
def test_tag_soup_serialization_lockstep(tokens, describe, rebuild):
    """Tag soup reaches the structured parse (random bytes rarely do):
    both markdown columns equal serialize.spans_to_markdown over the
    returned spans, and each span's offsets slice out its own item."""
    config = ExtractConfig(describe_pictures=describe, rebuild_directory=rebuild)
    out = extract_page("https://x.test/p", "".join(tokens), None, config)
    spans = out["spans"]
    text = out["extracted_text"]
    assert text == spans_to_markdown(spans)
    assert out["extracted_text_nohf"] == spans_to_markdown(spans, no_page_hf=True)
    pos = 0
    for s in spans:
        assert s["char_start"] == pos
        assert text[s["char_start"] : s["char_end"]] == spans_to_markdown([s])
        pos = s["char_end"] + 2


@settings(max_examples=200, deadline=None)
@given(st.text(max_size=1024))
def test_segment_and_strip_total(html_text):
    spans = segment_html(html_text)
    assert len({len(col) for col in spans}) == 1  # parallel columns
    for cat in spans[0]:
        assert cat in {
            "Caption", "Footnote", "Formula", "List-item", "Page-footer",
            "Page-header", "Picture", "Section-header", "Table", "Text", "Title",
        }
    assert isinstance(strip_tags(html_text), str)


@settings(max_examples=150, deadline=None)
@given(st.text(max_size=512))
def test_cleaner_total(s):
    out = clean_model_output(s)
    assert isinstance(out, list)
    assert all(isinstance(c, dict) for c in out)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.one_of(st.none(), st.integers(), st.dictionaries(st.text(max_size=5), st.integers(), max_size=3)), max_size=8))
def test_cleaner_list_total(lst):
    out = clean_model_output(lst)
    assert isinstance(out, list)


@settings(max_examples=100, deadline=None)
@given(st.text(max_size=400), st.integers(8, 64), st.integers(0, 7))
def test_chunk_offsets_always_trace_back(text, chunk_tokens, overlap):
    from dots_ocr_ray.pipelines.chunking import chunk_text

    chunks = chunk_text(text, chunk_tokens, overlap)
    joined_tokens = 0
    for s, e, c in chunks:
        assert text[s:e] == c
        joined_tokens += len(c.split())
    if text.split():
        assert chunks  # non-empty text always yields at least one chunk
        # full coverage: last chunk ends at the last token's end
        assert chunks[-1][2].split()[-1] == text.split()[-1]


@settings(max_examples=100, deadline=None)
@given(st.text(max_size=300))
def test_scrub_idempotent(text):
    from dots_ocr_ray.functions.scrub import scrub_text

    once, _ = scrub_text(text)
    twice, counts = scrub_text(once)
    assert twice == once or counts  # re-scrubbing stable output changes nothing


@settings(max_examples=100, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(0, 30), st.integers(0, 30)).filter(lambda p: p[0] != p[1]),
        max_size=25,
    )
)
def test_union_find_root_map_invariants(pairs):
    """_root_map_from_pairs: every node maps to the min id of its
    connected component (checked against a brute-force BFS)."""
    from dots_ocr_ray.pipelines.dedup import _root_map_from_pairs

    roots = _root_map_from_pairs(pairs)
    nodes = {n for p in pairs for n in p}
    assert set(roots) == nodes
    # brute-force components
    adj = {n: set() for n in nodes}
    for a, b in pairs:
        adj[a].add(b)
        adj[b].add(a)
    seen = set()
    for start in nodes:
        if start in seen:
            continue
        comp, stack = set(), [start]
        while stack:
            n = stack.pop()
            if n in comp:
                continue
            comp.add(n)
            stack.extend(adj[n])
        seen |= comp
        m = min(comp)
        for n in comp:
            assert roots[n] == m


@settings(max_examples=50, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.text(st.characters(min_codepoint=33, max_codepoint=126), min_size=1, max_size=40),
            st.binary(max_size=200),
        ),
        max_size=10,
    )
)
def test_warc_roundtrip_property(records):
    """make_warc_bytes → iter_warc_records is lossless for any urls and
    payload bytes, plain and gzip."""
    import gzip
    import io

    from dots_ocr_ray.sources.warc import http_payload, iter_warc_records, make_warc_bytes

    recs = [{"url": f"https://t.test/{u}", "html": h} for u, h in records]
    for compress in (False, True):
        raw = make_warc_bytes(recs, compress=compress)
        stream = gzip.open(io.BytesIO(raw), "rb") if compress else io.BytesIO(raw)
        out = list(iter_warc_records(stream))
        assert len(out) == len(recs)
        for (headers, block), rec in zip(out, recs):
            assert headers["warc-target-uri"] == rec["url"]
            assert http_payload(block) == rec["html"]


@given(st.text(max_size=200))
def test_normalize_url_total_and_idempotent(url):
    from dots_ocr_ray.kernel.textops import normalize_url

    out = normalize_url(url)
    assert isinstance(out, str)
    assert normalize_url(out) == out  # canonical form is a fixpoint


@given(st.lists(st.integers(min_value=-(2**62), max_value=2**62), min_size=1, max_size=300))
def test_bloom_int_no_false_negatives(keys):
    import numpy as np

    from dots_ocr_ray.functions.bloom import BloomFilter

    arr = np.array(keys, dtype=np.int64)
    bf = BloomFilter(capacity=max(1, len(keys)), fp_rate=0.01)
    bf.add_int_array(arr)
    assert bf.contains_int_array(arr).all()
    # partial build with shared params ORs to the same filter
    p1 = BloomFilter.from_params(bf.n_bits, bf.n_hashes)
    p2 = BloomFilter.from_params(bf.n_bits, bf.n_hashes)
    mid = len(arr) // 2
    p1.add_int_array(arr[:mid])
    p2.add_int_array(arr[mid:])
    p1.merge_bits(p2.bits)
    assert bytes(p1.bits) == bytes(bf.bits)


@given(
    st.lists(st.floats(min_value=0.0, max_value=1e9, allow_nan=False), min_size=1, max_size=400),
    st.integers(1, 5),
)
def test_log_histogram_partition_invariant(vals, n_parts):
    import numpy as np

    from dots_ocr_ray.functions.sketches import LogHistogram

    arr = np.array(vals, dtype=np.float64)
    whole = LogHistogram()
    whole.add_array(arr)
    merged = LogHistogram()
    for chunk in np.array_split(arr, n_parts):
        part = LogHistogram()
        part.add_array(chunk)
        merged = merged.merge(part)
    assert np.array_equal(merged.counts, whole.counts)
    q = merged.quantile(0.5)
    assert q >= whole.lo or q != q  # within domain (nan only when empty)


@given(
    st.lists(
        st.tuples(
            st.integers(min_value=-(2**62), max_value=2**62),
            st.integers(min_value=-(2**62), max_value=2**62),
            st.integers(min_value=1, max_value=5),
        ),
        max_size=60,
    )
)
@settings(max_examples=40, deadline=None)
def test_rk_probe_hash_distinct_per_probe(pairs):
    # sanity: the probe index round-trips every probe (no drops) and
    # groups multiplicities correctly
    from dots_ocr_ray.pipelines.text_analysis import _rk_probe_index

    probes = [(i, f"p{a}x{b}") for i, (a, b, _) in enumerate(pairs)]
    idx = _rk_probe_index(sorted(probes))
    n_entries = sum(len(v) for v in idx["benches"].values())
    assert n_entries == len(probes)


@given(
    st.lists(st.text(alphabet="ab ", max_size=24), min_size=1, max_size=12),
    st.lists(st.text(alphabet="ab", min_size=1, max_size=4), min_size=1, max_size=6),
)
@settings(max_examples=80, deadline=None)
def test_rk_scan_matches_python_containment(texts, probe_texts):
    """_rk_scan_batch ≡ sequential `probe in text` containment over a
    tiny alphabet (maximizes overlaps, repeats, boundary adjacency)."""
    from dots_ocr_ray.pipelines.text_analysis import _rk_probe_index, _rk_scan_batch

    probes = sorted((i, p) for i, p in enumerate(probe_texts) if p)
    idx = _rk_probe_index(probes)
    got = _rk_scan_batch(texts, idx)
    for k, t in enumerate(texts):
        hits = [bid for bid, p in probes if p in (t or "")]
        expect = (len(hits), hits[0] if hits else -1)
        assert got[k] == expect, (k, t, got[k], expect)
