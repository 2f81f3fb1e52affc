"""PII scrubbing for web corpora: regex redaction of emails, phone
numbers, IP addresses and URLs — deterministic, vectorizable per batch
(compiled patterns are module-level = warm on every worker).

Patterns are deliberately conservative (precision over recall): a
training-data pipeline wants predictable masking, not NLP guessing.
"""

from __future__ import annotations

import re

import pyarrow as pa

import ray.data

EMAIL_RE = re.compile(r"\b[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}\b")
PHONE_RE = re.compile(r"\b(?:\+?\d{1,3}[ .-]?)?(?:\(\d{2,4}\)[ .-]?)?\d{3}[ .-]\d{3,4}[ .-]?\d{0,4}\b")
IPV4_RE = re.compile(r"\b(?:(?:25[0-5]|2[0-4]\d|1\d\d|[1-9]?\d)\.){3}(?:25[0-5]|2[0-4]\d|1\d\d|[1-9]?\d)\b")
URL_RE = re.compile(r"\bhttps?://[^\s<>\"]+")

MASKS = {
    "email": (EMAIL_RE, "<EMAIL>"),
    "phone": (PHONE_RE, "<PHONE>"),
    "ip": (IPV4_RE, "<IP>"),
    "url": (URL_RE, "<URL>"),
}


def scrub_text(text: str, kinds: tuple[str, ...] = ("email", "phone", "ip", "url")) -> tuple[str, dict]:
    """Redact; returns (scrubbed, {kind: n_redactions})."""
    counts = {}
    for kind in kinds:
        pattern, mask = MASKS[kind]
        text, n = pattern.subn(mask, text)
        counts[kind] = n
    return text, counts


def scrub_documents(
    ds: ray.data.Dataset,
    *,
    text_col: str = "text",
    kinds: tuple[str, ...] = ("email", "phone", "ip", "url"),
) -> ray.data.Dataset:
    """Adds ``{text_col}_scrubbed`` and per-kind redaction-count columns."""

    def _scrub(batch: pa.Table) -> pa.Table:
        scrubbed, count_cols = [], {k: [] for k in kinds}
        for t in batch.column(text_col).to_pylist():
            s, counts = scrub_text(t or "", kinds)
            scrubbed.append(s)
            for k in kinds:
                count_cols[k].append(counts[k])
        batch = batch.append_column(f"{text_col}_scrubbed", pa.array(scrubbed, type=pa.string()))
        for k in kinds:
            batch = batch.append_column(f"n_{k}", pa.array(count_cols[k], type=pa.int32()))
        return batch

    return ds.map_batches(_scrub, batch_format="pyarrow")


def pseudonymize_ids(
    ds: ray.data.Dataset,
    *,
    id_col: str = "user_id",
    salt: str = "graft",
    out_col: str | None = None,
    hex_digits: int = 16,
) -> ray.data.Dataset:
    """Deterministic keyed pseudonymization of an identifier column:
    ``md5(salt || ':' || id)[:hex_digits]`` — the PII-safe surrogate a
    corpus needs before sharing event/user tables (same id → same
    pseudonym for joinability, original unrecoverable without the
    salt; rotate the salt to unlink releases).

    Zero exchange; md5 is computed once per DISTINCT value per batch
    (a per-batch memo), so hot-user event streams pay one digest per
    user per batch, not per row.  Null ids stay null.  Values hash
    from their Python repr (``to_pylist``), never a numpy cast — an
    int64 column with one null would otherwise float-convert and hash
    ``'42.0'`` in null-carrying batches but ``'42'`` elsewhere,
    splitting one user across two pseudonyms."""
    import hashlib

    out_name = out_col or f"{id_col}_pseud"

    def _pseud(batch: pa.Table) -> pa.Table:
        memo: dict = {}
        out = []
        for v in batch.column(id_col).to_pylist():
            if v is None:
                out.append(None)
                continue
            if v not in memo:
                memo[v] = hashlib.md5(f"{salt}:{v}".encode()).hexdigest()[:hex_digits]
            out.append(memo[v])
        return batch.append_column(out_name, pa.array(out, type=pa.string()))

    return ds.map_batches(_pseud, batch_format="pyarrow")


CC_RE = re.compile(r"\b\d{16}\b")


def luhn_valid(digits: str) -> bool:
    """Luhn mod-10 checksum (pure; the validity test that separates a
    real card number from 16 random digits — redacting only validated
    runs keeps order ids / tracking numbers readable)."""
    total = 0
    for i, ch in enumerate(reversed(digits)):
        d = ord(ch) - 48
        if i % 2 == 1:
            d *= 2
            if d > 9:
                d -= 9
        total += d
    return total % 10 == 0


def luhn_check_digit(digits15: str) -> str:
    """The check digit that makes ``digits15 + c`` Luhn-valid (shared
    by the card fixture rule and tests)."""
    for c in "0123456789":
        if luhn_valid(digits15 + c):
            return c
    raise AssertionError("unreachable: some digit always validates")


def scrub_cards(
    ds: ray.data.Dataset, *, text_col: str = "text"
) -> ray.data.Dataset:
    """Credit-card redaction with CHECKSUM validation: 16-digit runs
    are found per batch (compiled regex, warm per worker), each run is
    Luhn-validated, and only VALID runs are replaced by ``<CC>`` —
    invalid runs are counted but left untouched.  Adds
    ``{text_col}_scrubbed``, ``n_cc_valid``, ``n_cc_invalid``,
    ``scrubbed_len``.  Zero exchange."""

    def _scrub(batch: pa.Table) -> pa.Table:
        scrubbed, n_valid, n_invalid = [], [], []
        for t in batch.column(text_col).to_pylist():
            t = t or ""
            nv = ni = 0

            def _sub(m):
                nonlocal nv, ni
                if luhn_valid(m.group(0)):
                    nv += 1
                    return "<CC>"
                ni += 1
                return m.group(0)

            out = CC_RE.sub(_sub, t)
            scrubbed.append(out)
            n_valid.append(nv)
            n_invalid.append(ni)
        scrub_arr = pa.array(scrubbed, type=pa.string())
        import pyarrow.compute as pc

        return (
            batch.append_column(f"{text_col}_scrubbed", scrub_arr)
            .append_column("n_cc_valid", pa.array(n_valid, type=pa.int64()))
            .append_column("n_cc_invalid", pa.array(n_invalid, type=pa.int64()))
            .append_column(
                "scrubbed_len", pc.utf8_length(scrub_arr).cast(pa.int64())
            )
        )

    return ds.map_batches(_scrub, batch_format="pyarrow")


# --- differentially-private count release --------------------------------------

def dp_laplace_noise_micro(key: str, *, epsilon_micro: int = 1_000_000) -> int:
    """Deterministic Laplace(1/ε) noise for a count release, in micro
    units: the uniform comes from md5(key) (48 hex-derived bits), so
    the release is exactly reproducible — the inverse-CDF transform
    ``-b·sign(u−½)·ln(1−2|u−½|)`` with b = 1/ε is computed as ONE
    float expression mirrored literally by the SQL oracle.

    NOTE the privacy caveat, stated rather than hidden: a
    hash-derived "noise" is deterministic given the key, so this
    release is DP with respect to an adversary who cannot evaluate
    the hash chain — the standard seeded-noise compromise every
    reproducible pipeline makes.  Swap in true randomness at this
    seam for a production release."""
    import hashlib
    import math

    v = int(hashlib.md5(key.encode()).hexdigest()[:12], 16)
    u = (v + 0.5) / float(1 << 48)
    b = 1_000_000.0 / epsilon_micro
    s = 1.0 if u >= 0.5 else -1.0
    noise = -b * s * math.log(1.0 - 2.0 * abs(u - 0.5))
    return int(math.floor(1_000_000.0 * noise))


def dp_release_counts(
    ds,
    *,
    key_col: str,
    epsilon_micro: int = 1_000_000,
):
    """ε-DP noisy count release per key (Dwork et al. Laplace
    mechanism, sensitivity 1 for disjoint counts): one tiny keyed
    count fold, then the deterministic noise
    kernel per released key.  Output (key, noisy_count_micro) —
    noisy = 1e6·count + noise_micro, integer-exact."""
    import pyarrow as pa

    from dots_ocr_ray.util import bucket_keyed_fold

    def _keys(batch: pa.Table) -> pa.Table:
        return pa.table({"key": batch.column(key_col).cast(pa.string())})

    folded = bucket_keyed_fold(
        ds.select_columns([key_col]).map_batches(_keys, batch_format="pyarrow"), "key", {"n": ("count", None)}
    ).to_pandas()
    keys, noisy = [], []
    for _, r in folded.sort_values("key").iterrows():
        k = str(r["key"])
        keys.append(k)
        noisy.append(
            1_000_000 * int(r["n"])
            + dp_laplace_noise_micro(k, epsilon_micro=epsilon_micro)
        )
    return pa.table(
        {
            "key": pa.array(keys, type=pa.string()),
            "noisy_count_micro": pa.array(noisy, type=pa.int64()),
        }
    )
