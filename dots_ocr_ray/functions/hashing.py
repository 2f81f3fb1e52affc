"""Vectorized hashing primitives for dedup / similarity pipelines.

All seeds are fixed constants — every hash here is a pure function of
its input, so re-running any pipeline (or resuming it) reproduces the
same keys on every worker.
"""

from __future__ import annotations

import hashlib

import numpy as np

from dots_ocr_ray.util import GOLDEN64

_MERSENNE = (1 << 61) - 1
_MAX_HASH = (1 << 32) - 1


def stable_u64(s: str) -> int:
    """Deterministic 64-bit hash (never Python's salted hash())."""
    return int.from_bytes(hashlib.blake2b(s.encode("utf-8"), digest_size=8).digest(), "big")


_SHINGLE_B = np.uint64(GOLDEN64)  # odd multiplier; u64 wraparound


def shingles(text: str, k: int = 5) -> set[int]:
    """k-word shingle hash set.

    Vectorized: one blake2b per WORD, then the k-gram combine is k
    numpy multiply-adds over the word-hash array (hashing every joined
    shingle string was the minhash pipeline's hot spot)."""
    words = text.split()
    if not words:
        return set()
    if len(words) < k:
        return {stable_u64(" ".join(words))}
    wh = np.fromiter((stable_u64(w) for w in words), dtype=np.uint64, count=len(words))
    n_out = len(words) - k + 1
    out = np.zeros(n_out, dtype=np.uint64)
    for j in range(k):
        out = out * _SHINGLE_B + wh[j : j + n_out]
    return set(out.tolist())


def char_ngrams(text: str, n: int = 3) -> set[str]:
    if len(text) < n:
        return {text} if text else set()
    return {text[i : i + n] for i in range(len(text) - n + 1)}


_FNV_PRIME = np.uint64(1099511628211)
_FMIX_1 = np.uint64(0xFF51AFD7ED558CCD)
_FMIX_2 = np.uint64(0xC4CEB9FE1A85EC53)
_SHIFT_33 = np.uint64(33)


def _fmix64(h: np.ndarray) -> np.ndarray:
    """MurmurHash3 finalizer — full-avalanche mix of a u64 array."""
    h = h ^ (h >> _SHIFT_33)
    h = h * _FMIX_1
    h = h ^ (h >> _SHIFT_33)
    h = h * _FMIX_2
    return h ^ (h >> _SHIFT_33)


def char_ngram_hashes(text: str, n: int = 3) -> np.ndarray:
    """Sorted unique u64 hashes of the character n-gram SET — the
    vectorized twin of :func:`char_ngrams`.

    Codepoints come out of one ``utf-32-le`` encode (exact unicode
    n-gram boundaries, unlike utf-8 bytes), the n-gram combine is n
    numpy multiply-adds, and the finalizer is a full-avalanche fmix64.
    Set semantics are exact up to 64-bit collisions (P < 1e-7 for a
    million-gram document), which is the documented contract of the
    n-gram Jaccard verifier built on top."""
    if not text:
        return np.empty(0, dtype=np.uint64)
    cp = np.frombuffer(text.encode("utf-32-le"), dtype=np.uint32).astype(np.uint64)
    k = max(1, len(cp) - n + 1) if len(cp) >= n else 1
    if len(cp) < n:
        # mirror char_ngrams: a short text is its own single gram
        k, n = 1, len(cp)
    acc = np.zeros(k, dtype=np.uint64)
    for j in range(n):
        acc = acc * _FNV_PRIME + cp[j : j + k]
    return np.unique(_fmix64(acc))


def jaccard_hashes(a: np.ndarray, b: np.ndarray) -> float:
    """Jaccard over two sorted-unique hash arrays (C intersection)."""
    if len(a) == 0 and len(b) == 0:
        return 1.0
    if len(a) == 0 or len(b) == 0:
        return 0.0
    # both inputs are sorted-unique (char_ngram_hashes contract):
    # binary-search the smaller into the larger instead of
    # intersect1d's concat+sort of BOTH arrays per call
    small, big = (a, b) if len(a) <= len(b) else (b, a)
    pos = np.searchsorted(big, small)
    pos[pos == len(big)] = len(big) - 1
    inter = int(np.count_nonzero(big[pos] == small))
    return inter / (len(a) + len(b) - inter)


class MinHasher:
    """Classic (a*x+b) mod p minhash over shingle hashes — numpy
    vectorized, fixed seed.  num_perm permutations grouped into
    ``bands`` bands of ``rows`` rows for LSH (num_perm = bands*rows)."""

    def __init__(self, num_perm: int = 128, seed: int = 42):
        rng = np.random.RandomState(seed)
        self.num_perm = num_perm
        self.a = rng.randint(1, _MERSENNE, size=num_perm, dtype=np.uint64)
        self.b = rng.randint(0, _MERSENNE, size=num_perm, dtype=np.uint64)

    def signature(self, shingle_hashes: set[int]) -> np.ndarray:
        """uint32 signature of length num_perm; empty set → all-max."""
        if not shingle_hashes:
            return np.full(self.num_perm, _MAX_HASH, dtype=np.uint64)
        x = np.fromiter(shingle_hashes, dtype=np.uint64)
        # (a * x + b) mod p, then fold to 32 bits
        phv = (
            (np.outer(self.a, x) + self.b[:, None]) % _MERSENNE
        ) & _MAX_HASH
        return phv.min(axis=1)

    @staticmethod
    def band_keys(sig: np.ndarray, bands: int) -> list[int]:
        """Hash each band of the signature to a bucket key."""
        rows = len(sig) // bands
        keys = []
        for b in range(bands):
            chunk = sig[b * rows : (b + 1) * rows].tobytes()
            h = hashlib.blake2b(chunk, digest_size=8).digest()
            keys.append(int.from_bytes(h, "big"))
        return keys

    @staticmethod
    def jaccard_estimate(sig_a: np.ndarray, sig_b: np.ndarray) -> float:
        return float(np.mean(sig_a == sig_b))


def simhash64(text: str) -> int:
    """64-bit SimHash over whitespace tokens (vectorized bit spread)."""
    tokens = text.split()
    if not tokens:
        return 0
    hs = np.fromiter((stable_u64(t) for t in tokens), dtype=np.uint64, count=len(tokens))
    bits = (hs[:, None] >> np.arange(64, dtype=np.uint64)) & np.uint64(1)  # (n, 64)
    acc = (2 * bits.astype(np.int64) - 1).sum(axis=0)
    out = 0
    for i in range(64):
        if acc[i] > 0:
            out |= 1 << i
    return out


def hamming64(a: int, b: int) -> int:
    return bin(a ^ b).count("1")


def simhash_block_keys(h: int, n_blocks: int = 4) -> list[tuple[int, int]]:
    """Split a 64-bit simhash into n 16-bit blocks → (block_idx, value)
    keys.  Two hashes within Hamming distance n_blocks-1 share at least
    one block key (pigeonhole) — the standard near-dup index."""
    width = 64 // n_blocks
    mask = (1 << width) - 1
    return [(i, (h >> (i * width)) & mask) for i in range(n_blocks)]


def jaccard(a: set, b: set) -> float:
    if not a and not b:
        return 1.0
    if not a or not b:
        return 0.0
    inter = len(a & b)
    return inter / (len(a) + len(b) - inter)


def containment_micro(a: np.ndarray, b: np.ndarray) -> int:
    """ASYMMETRIC set containment of the smaller gram set in the
    larger, in exact integer micro-units:
    ``(|A∩B| * 10^6) // min(|A|, |B|)`` over two sorted-unique hash
    arrays — the quote-inclusion / excerpt signal Jaccard misses when
    document lengths are skewed (a page quoting a short doc verbatim
    has low Jaccard but containment ≈ 1).  Empty-vs-empty is full
    containment; empty-vs-nonempty is zero."""
    if len(a) == 0 and len(b) == 0:
        return 1_000_000
    if len(a) == 0 or len(b) == 0:
        return 0
    small, big = (a, b) if len(a) <= len(b) else (b, a)
    pos = np.searchsorted(big, small)
    pos[pos == len(big)] = len(big) - 1
    inter = int(np.count_nonzero(big[pos] == small))
    return (inter * 1_000_000) // len(small)
