"""Scalar text utilities (the reference's small scalar function library,
SURVEY.md §2.8).

Everything here is pure, deterministic and locale-independent — these
functions sit on the byte-identity path.
"""

from __future__ import annotations

import hashlib
import re

# Newline folding applied to native text: single newlines become spaces,
# paragraph breaks (blank lines) survive.  Regex taken verbatim from the
# reference (pdf_extractor.py:55-56) — byte-identity-relevant.
_SINGLE_NEWLINE = re.compile(r"(?<!\n)\n(?!\n)")


def fold_newlines(text: str) -> str:
    """Fold intra-paragraph newlines to spaces and strip.

    Mirrors the reference's native-text normalization
    (dots_ocr/utils/pdf_extractor.py:55-56).
    """
    if "\n" in text:
        text = _SINGLE_NEWLINE.sub(" ", text)
    return text.strip()


def md5_hex(data: bytes | str) -> str:
    """md5 content hash (reference app/utils/hash.py:4-15) — used for job
    identity, idempotent resume markers and exact dedup keys."""
    if isinstance(data, str):
        data = data.encode("utf-8")
    return hashlib.md5(data).hexdigest()


# --- token counting -------------------------------------------------------
# BPE-ish pre-tokenizer: words with optional leading space, numbers,
# punctuation runs — a deterministic stand-in for a GPT-2-style regex.
_TOKEN_RE = re.compile(
    r"""[A-Za-z]+|[0-9]{1,3}|[^\sA-Za-z0-9]+|\s+""",
    re.UNICODE,
)


def count_tokens_whitespace(text: str) -> int:
    """Whitespace token count."""
    return len(text.split())


def count_tokens_bpeish(text: str) -> int:
    """BPE-style pre-token count: alpha runs, ≤3-digit number chunks,
    punctuation runs (whitespace runs excluded from the count)."""
    return sum(1 for m in _TOKEN_RE.finditer(text) if not m.group().isspace())


# --- quality scoring ------------------------------------------------------
_STOPWORDS = frozenset(
    "the a an and or of to in is are was were be for on with as at by it this that".split()
)
_PUNCT_RE = re.compile(r"[.!?,;:]")
_ALPHA_RE = re.compile(r"[A-Za-z]")


def quality_features(text: str) -> dict:
    """Length / punctuation / stopword heuristics for document quality
    filtering (Gopher/C4-style rules, reduced to deterministic ratios)."""
    n_chars = len(text)
    words = text.split()
    n_words = len(words)
    n_punct = len(_PUNCT_RE.findall(text))
    n_alpha = len(_ALPHA_RE.findall(text))
    n_stop = sum(1 for w in words if w.lower() in _STOPWORDS)
    mean_word_len = (sum(len(w) for w in words) / n_words) if n_words else 0.0
    return {
        "n_chars": n_chars,
        "n_words": n_words,
        "punct_ratio": (n_punct / n_chars) if n_chars else 0.0,
        "alpha_ratio": (n_alpha / n_chars) if n_chars else 0.0,
        "stopword_ratio": (n_stop / n_words) if n_words else 0.0,
        "mean_word_len": mean_word_len,
    }


def quality_keep(feats: dict) -> bool:
    """C4-ish keep rule over quality_features output."""
    return (
        feats["n_words"] >= 5
        and 1.0 <= feats["mean_word_len"] <= 15.0
        and feats["alpha_ratio"] >= 0.5
    )


# --- language id ----------------------------------------------------------
# Tiny character-frequency heuristic over common function words /
# script ranges; deterministic, dependency-free.  Targets the langs that
# appear in the synthetic corpora (en fr es de zh ru hi).
_LANG_MARKERS = {
    "en": (" the ", " and ", " of ", " is ", " to "),
    "fr": (" le ", " la ", " et ", " les ", " des "),
    "es": (" el ", " los ", " las ", " una ", " que "),
    "de": (" der ", " die ", " und ", " das ", " ist "),
    "ru": (),
    "zh": (),
    "hi": (),
}


def detect_lang(text: str) -> str:
    """n-gram/marker language-ID heuristic.  Script ranges first (CJK,
    Cyrillic, Devanagari), then function-word marker hits; 'und' when
    nothing matches."""
    if not text:
        return "und"
    sample = text[:2000]
    n_cjk = sum(1 for c in sample if "一" <= c <= "鿿")
    n_cyr = sum(1 for c in sample if "Ѐ" <= c <= "ӿ")
    n_dev = sum(1 for c in sample if "ऀ" <= c <= "ॿ")
    n = len(sample)
    if n_cjk / n > 0.1:
        return "zh"
    if n_cyr / n > 0.2:
        return "ru"
    if n_dev / n > 0.2:
        return "hi"
    padded = " " + sample.lower() + " "
    best, best_hits = "und", 0
    for lang in ("en", "fr", "es", "de"):
        hits = sum(padded.count(m) for m in _LANG_MARKERS[lang])
        if hits > best_hits:
            best, best_hits = lang, hits
    return best


# --- document fingerprinting ----------------------------------------------
_FP_BASE = 1_000_003
_FP_MOD = (1 << 61) - 1


def rolling_hashes(text: str, window: int = 16) -> list[int]:
    """Rolling polynomial hashes over character windows (Rabin-Karp)."""
    n = len(text)
    if n < window:
        return [_poly_hash(text)] if text else []
    out = []
    h = 0
    pow_w = pow(_FP_BASE, window - 1, _FP_MOD)
    for i, c in enumerate(text):
        if i >= window:
            h = (h - ord(text[i - window]) * pow_w) % _FP_MOD
        h = (h * _FP_BASE + ord(c)) % _FP_MOD
        if i >= window - 1:
            out.append(h)
    return out


def _poly_hash(s: str) -> int:
    h = 0
    for c in s:
        h = (h * _FP_BASE + ord(c)) % _FP_MOD
    return h


def fingerprint(text: str, window: int = 16, stride: int = 8) -> int:
    """Winnowing-style document fingerprint: min rolling hash over strided
    windows.  Equal fingerprints are a strong near-dup signal for
    shifted/prefixed copies."""
    hashes = rolling_hashes(text, window)
    if not hashes:
        return 0
    return min(hashes[::stride] or hashes)


def normalize_url(url: str) -> str:
    """Canonicalize a URL for crawl identity (the web-pipeline analog
    of the reference's input-path normalization seam, S4
    dots_ocr/utils/doc_utils.py): lowercase scheme/host, drop default
    ports and fragments and credentials, collapse duplicate slashes,
    strip a trailing slash on non-root paths, and remove tracking
    query parameters (utm_*, gclid, fbclid) while preserving the rest
    in order.  Pure and total: un-parseable input comes back stripped
    but otherwise untouched."""
    from urllib.parse import parse_qsl, urlencode, urlsplit, urlunsplit

    # Strip unicode whitespace AND C0 controls to a FIXPOINT: urlsplit
    # itself strips C0-and-space at the edges (WHATWG rule), so a lone
    # .strip() (which misses e.g. \x1b but takes \xa0) would let
    # urlsplit expose fresh whitespace that only the NEXT call removes,
    # breaking idempotency (hypothesis counterexample: "\x1b\xa00").
    c0 = "".join(chr(c) for c in range(0x21)) + "\x7f"
    url, prev = (url or ""), None
    while prev != url:
        prev = url
        url = url.strip().strip(c0)
    if not url:
        return url
    try:
        parts = urlsplit(url)
        port = parts.port  # raises ValueError on junk ports
    except ValueError:
        return url
    scheme = parts.scheme.lower()
    host = (parts.hostname or "").lower()
    netloc = host
    if port is not None and not (
        (scheme == "http" and port == 80) or (scheme == "https" and port == 443)
    ):
        netloc += f":{port}"
    path = parts.path or "/"
    while "//" in path:
        path = path.replace("//", "/")
    if len(path) > 1 and path.endswith("/"):
        path = path[:-1]
    kept = [
        (k, v)
        for k, v in parse_qsl(parts.query, keep_blank_values=True)
        if not (k.lower().startswith("utm_") or k.lower() in ("gclid", "fbclid"))
    ]
    out = urlunsplit((scheme, netloc, path, urlencode(kept), ""))
    # dropping the fragment/query can expose interior whitespace at the
    # new string edge ("0 #" → "0 "); re-run the edge strip so the
    # canonical form is a true fixpoint
    prev = None
    while prev != out:
        prev = out
        out = out.strip().strip(c0)
    return out


def compression_ratio(text: str) -> float:
    """zlib-compressed size over raw utf-8 size (level 6) — the
    RefinedWeb-style repetitiveness signal: boilerplate and template
    spam compress far below natural prose.  Empty text → 1.0."""
    import zlib

    raw = (text or "").encode("utf-8", errors="replace")
    if not raw:
        return 1.0
    return len(zlib.compress(raw, 6)) / len(raw)


def levenshtein_many(tokens, probe: str):
    """Plain Levenshtein distance from ``probe`` to EVERY string in
    ``tokens``, vectorized across the candidate axis: the DP advances
    one (character-position, probe-position) cell per numpy op over
    the whole batch, so cost is O(max_len × len(probe)) VECTOR ops —
    never a Python loop per candidate.  Matches SQL ``levenshtein``
    (case-sensitive, unit costs; transposition = 2).

    Returns an int64 array aligned with ``tokens``."""
    import numpy as np

    toks = [t or "" for t in tokens]
    n = len(toks)
    m = len(probe)
    lens = np.fromiter((len(t) for t in toks), dtype=np.int64, count=n)
    res = np.full(n, m, dtype=np.int64)  # length-0 candidates
    if n == 0:
        return res
    lmax = int(lens.max())
    if lmax == 0:
        return res
    # UCS4 codepoint matrix, zero-padded (numpy unicode layout)
    mat = np.array(toks, dtype=f"U{lmax}").view(np.uint32).reshape(n, lmax)
    pcodes = (
        np.array([probe], dtype=f"U{max(m, 1)}").view(np.uint32)[:m]
        if m
        else np.empty(0, dtype=np.uint32)
    )
    prev = np.broadcast_to(np.arange(m + 1, dtype=np.int64), (n, m + 1)).copy()
    for i in range(1, lmax + 1):
        ci = mat[:, i - 1]
        cur = np.empty_like(prev)
        cur[:, 0] = i
        for j in range(1, m + 1):
            sub = prev[:, j - 1] + (ci != pcodes[j - 1])
            np.minimum(prev[:, j] + 1, cur[:, j - 1] + 1, out=cur[:, j])
            np.minimum(cur[:, j], sub, out=cur[:, j])
        done = lens == i
        if done.any():
            res[done] = cur[done, m]
        prev = cur
    return res
