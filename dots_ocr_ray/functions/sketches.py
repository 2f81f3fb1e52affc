"""Mergeable sketches for corpus-scale approximate aggregates.

The pattern (per ray_guide "Aggregation at scale"): each batch emits
ONE serialized sketch, a tiny second stage merges them — so a distinct
count / heavy-hitter / sample query over 10^12 rows moves kilobytes,
not keys.

All sketches are deterministic (blake2b hashing, seeded reservoirs) so
re-runs and resumed runs produce identical results.

* :class:`HyperLogLog` — distinct count, standard 2^p registers with
  small-range linear counting correction.
* :class:`SpaceSaving` — top-k heavy hitters with overestimate bounds.
* :class:`Reservoir` — uniform k-sample; weighted variant of
  Vitter's R using per-item deterministic priorities (hash-seeded), so
  the merged reservoir equals a global priority-sample.
"""

from __future__ import annotations

import hashlib
import math
import struct

import numpy as np
import pyarrow as pa

import ray.data

from dots_ocr_ray.util import _key_runs, bucket_exchange


def _h64(key: str, seed: int = 0) -> int:
    digest = hashlib.blake2b(key.encode("utf-8"), digest_size=8, salt=seed.to_bytes(8, "big")).digest()
    return int.from_bytes(digest, "big")


def _h64_many(keys: list[str], seed: int = 0) -> np.ndarray:
    """Batch form of :func:`_h64` → uint64 array (identical values).
    One joined-bytes ``frombuffer`` pass replaces per-key int
    conversion; the blake2b digests themselves are unchanged, so every
    sketch built through the batch path is byte-identical to the
    per-item path."""
    salt = seed.to_bytes(8, "big")
    blob = b"".join(
        hashlib.blake2b(k.encode("utf-8"), digest_size=8, salt=salt).digest() for k in keys
    )
    return np.frombuffer(blob, dtype=">u8").astype(np.uint64)


def _bit_length_u64(v: np.ndarray) -> np.ndarray:
    """Exact vectorized ``int.bit_length`` for uint64 (no float log2 —
    53-bit mantissa rounding would mis-rank values above 2^53)."""
    v = v.copy()
    out = np.zeros(v.shape, dtype=np.uint8)
    for shift in (32, 16, 8, 4, 2, 1):
        m = v >= np.uint64(1 << shift)
        out[m] += np.uint8(shift)
        v[m] >>= np.uint64(shift)
    out[v == 1] += np.uint8(1)
    return out


# ---------------------------------------------------------------------------
class HyperLogLog:
    def __init__(self, p: int = 12):
        if not 4 <= p <= 18:
            raise ValueError("p must be in [4, 18]")
        self.p = p
        self.m = 1 << p
        self.registers = np.zeros(self.m, dtype=np.uint8)

    def add(self, key: str) -> None:
        h = _h64(key)
        idx = h >> (64 - self.p)
        rest = h & ((1 << (64 - self.p)) - 1)
        # rank = leading zeros of the remaining bits + 1
        rank = (64 - self.p) - rest.bit_length() + 1
        if rank > self.registers[idx]:
            self.registers[idx] = rank

    def add_many(self, keys: list[str]) -> None:
        """Vectorized bulk add — identical registers to per-item
        :meth:`add` (same digests; idx/rank/max all numpy)."""
        if not keys:
            return
        h = _h64_many(keys)
        idx = (h >> np.uint64(64 - self.p)).astype(np.int64)
        rest = h & np.uint64((1 << (64 - self.p)) - 1)
        rank = np.uint8(64 - self.p) - _bit_length_u64(rest) + np.uint8(1)
        np.maximum.at(self.registers, idx, rank)

    def merge(self, other: "HyperLogLog") -> "HyperLogLog":
        if other.p != self.p:
            raise ValueError("incompatible precisions")
        out = HyperLogLog(self.p)
        out.registers = np.maximum(self.registers, other.registers)
        return out

    def count(self) -> float:
        return float(_hll_counts(self.registers[None, :])[0])

    def serialize(self) -> bytes:
        return struct.pack("<B", self.p) + self.registers.tobytes()

    @classmethod
    def deserialize(cls, data: bytes) -> "HyperLogLog":
        p = struct.unpack("<B", data[:1])[0]
        hll = cls(p)
        hll.registers = np.frombuffer(data[1:], dtype=np.uint8).copy()
        return hll


def _hll_counts(registers: np.ndarray) -> np.ndarray:
    """:meth:`HyperLogLog.count` of each row of a (sketches, 2^p)
    register matrix: the raw estimate, or linear counting in the small
    range when a register is still zero.  The log runs through
    ``math.log`` once per distinct zero count (at most 2^p), because
    ``np.log`` can differ from it in the last bit."""
    m = registers.shape[1]
    alpha = 0.7213 / (1 + 1.079 / m)
    est = alpha * m * m / np.sum(2.0 ** -registers.astype(np.float64), axis=1)
    zeros = np.count_nonzero(registers == 0, axis=1)
    uz, inv = np.unique(zeros, return_inverse=True)
    linear = np.array([m * math.log(m / z) if z else 0.0 for z in uz.tolist()])[inv.reshape(-1)]
    return np.where((est <= 2.5 * m) & (zeros > 0), linear, est)


def approx_distinct(ds: ray.data.Dataset, col: str, p: int = 12) -> float:
    """Approximate COUNT(DISTINCT col): one HLL per batch, merged."""

    def _sketch(batch: pa.Table) -> pa.Table:
        hll = HyperLogLog(p)
        hll.add_many([str(v) for v in batch.column(col).to_pylist()])
        return pa.table({"sketch": pa.array([hll.serialize()], type=pa.binary())})

    merged = HyperLogLog(p)
    for row in ds.map_batches(_sketch, batch_format="pyarrow").iter_rows():
        merged = merged.merge(HyperLogLog.deserialize(row["sketch"]))
    return merged.count()


def grouped_approx_distinct(
    ds: ray.data.Dataset,
    *,
    key_col: str,
    val_col: str,
    p: int = 12,
) -> ray.data.Dataset:
    """Approximate COUNT(DISTINCT val_col) GROUP BY key_col.

    The exact form of this query ships every (key, value) pair through
    a shuffle — at 10^12 events × 10^9 users that is the corpus itself.
    Here each batch emits ONE 2^p-byte register blob per key it
    contains, so the keyed exchange
    (:func:`~dots_ocr_ray.util.bucket_exchange`) moves (batches ×
    keys-per-batch) 4-KB rows; each bucket stacks its registers and
    merges every key run with one ``np.maximum.reduceat`` (register
    max is commutative/idempotent, so the result is independent of
    partitioning — golden-checkable).

    Output: (key_col, approx_distinct:int64), exact when the per-key
    cardinality is far below 2^p (linear-counting regime)."""

    def _partials(batch: pa.Table) -> pa.Table:
        enc = batch.column(key_col).combine_chunks().dictionary_encode()
        codes = enc.indices.to_numpy(zero_copy_only=False)
        vals = np.asarray(
            [str(v) for v in batch.column(val_col).to_pylist()], dtype=object
        )
        keys_out: list = []
        blobs: list[bytes] = []
        for code in np.unique(codes):
            hll = HyperLogLog(p)
            hll.add_many(list(vals[codes == code]))
            keys_out.append(enc.dictionary[int(code)].as_py())
            blobs.append(hll.serialize())
        return pa.table(
            {
                key_col: pa.array(keys_out),
                "sketch": pa.array(blobs, type=pa.binary()),
            }
        )

    def _merge(group: pa.Table) -> pa.Table:
        perm, starts = _key_runs(group, [key_col])
        sketches = group.column("sketch").take(perm).to_pylist()
        regs = np.stack([np.frombuffer(b[1:], dtype=np.uint8) for b in sketches])
        counts = np.round(_hll_counts(np.maximum.reduceat(regs, starts, axis=0)))
        return pa.table(
            {
                key_col: group.column(key_col).take(perm[starts]),
                "approx_distinct": pa.array(counts.astype(np.int64), type=pa.int64()),
            }
        )

    return bucket_exchange(ds.map_batches(_partials, batch_format="pyarrow"), key_col, _merge)


def corpus_overlap(
    left: ray.data.Dataset,
    right: ray.data.Dataset,
    *,
    col: str,
    p: int = 14,
) -> "pa.Table":
    """Approximate set-overlap between two corpora on a key column —
    the recurring-crawl audit ("how much of snapshot N+1 is already in
    snapshot N") WITHOUT the exact semi-join: one HLL per side folded
    from per-batch register partials (zero exchange, O(blocks) 2^p-
    byte blobs), union = register max, and by inclusion–exclusion
    ``|A∩B| ≈ |A| + |B| − |A∪B|``.

    Output (one row): n_left, n_right, n_union, n_intersect (all
    rounded estimates, int64; n_intersect floored at 0) and
    jaccard:float64 rounded to 6 dp.  Deterministic — blake2b-hashed
    registers make every fold bit-equal to the sequential build, so
    the row is golden-checkable exactly.  Standard error ~1.04/√2^p
    (0.8% at p=14) on each cardinality; the intersection inherits the
    absolute error of the union, so treat small overlaps as "below
    noise", which is exactly how the crawl-refresh decision uses it."""

    def _sketch(ds: ray.data.Dataset) -> HyperLogLog:
        def _partial(batch: pa.Table) -> pa.Table:
            hll = HyperLogLog(p)
            hll.add_many([str(v) for v in batch.column(col).to_pylist() if v is not None])
            return pa.table({"sketch": pa.array([hll.serialize()], type=pa.binary())})

        merged = HyperLogLog(p)
        for row in ds.map_batches(_partial, batch_format="pyarrow").iter_rows():
            merged = merged.merge(HyperLogLog.deserialize(row["sketch"]))
        return merged

    ha, hb = _sketch(left), _sketch(right)
    na, nb = ha.count(), hb.count()
    nu = ha.merge(hb).count()
    ni = max(0.0, na + nb - nu)
    denom = nu if nu > 0 else 1.0
    return pa.table(
        {
            "n_left": pa.array([int(round(na))], type=pa.int64()),
            "n_right": pa.array([int(round(nb))], type=pa.int64()),
            "n_union": pa.array([int(round(nu))], type=pa.int64()),
            "n_intersect": pa.array([int(round(ni))], type=pa.int64()),
            "jaccard": pa.array([round(ni / denom, 6)], type=pa.float64()),
        }
    )


# ---------------------------------------------------------------------------
class CountMin:
    """Count-Min sketch: mergeable per-key frequency estimates in
    ``depth × width`` int64 cells — point lookups over key spaces far
    too large for an exact count table (every token / url / shingle of
    a 10^12-row corpus in a few hundred KB).

    Guarantees (classic CM): ``estimate >= true`` always, and
    ``estimate <= true + (e/width) * N`` with probability
    ``1 - e^-depth`` (N = total added count).  Rows hash with
    independent blake2b seeds (deterministic — no RNG, so partials
    built anywhere merge into the SAME sketch and the result is
    golden-checkable); merge = elementwise add, commutative and
    layout-insensitive."""

    def __init__(self, width: int = 2048, depth: int = 4):
        self.width = width
        self.depth = depth
        self.counts = np.zeros((depth, width), dtype=np.int64)

    def add_many(self, keys: list[str], counts: np.ndarray | None = None) -> None:
        if not keys:
            return
        c = (
            np.ones(len(keys), dtype=np.int64)
            if counts is None
            else np.asarray(counts, dtype=np.int64)
        )
        for d in range(self.depth):
            idx = (_h64_many(keys, seed=d) % np.uint64(self.width)).astype(np.int64)
            np.add.at(self.counts[d], idx, c)

    def merge(self, other: "CountMin") -> "CountMin":
        assert (self.width, self.depth) == (other.width, other.depth)
        out = CountMin(self.width, self.depth)
        out.counts = self.counts + other.counts
        return out

    def estimate_many(self, keys: list[str]) -> np.ndarray:
        if not keys:
            return np.zeros(0, dtype=np.int64)
        est = np.full((self.depth, len(keys)), np.iinfo(np.int64).max, dtype=np.int64)
        for d in range(self.depth):
            idx = (_h64_many(keys, seed=d) % np.uint64(self.width)).astype(np.int64)
            est[d] = self.counts[d][idx]
        return est.min(axis=0)

    def serialize(self) -> bytes:
        head = self.depth.to_bytes(2, "big") + self.width.to_bytes(4, "big")
        return head + self.counts.astype(">i8").tobytes()

    @classmethod
    def deserialize(cls, blob: bytes) -> "CountMin":
        depth = int.from_bytes(blob[:2], "big")
        width = int.from_bytes(blob[2:6], "big")
        out = cls(width, depth)
        out.counts = (
            np.frombuffer(blob[6:], dtype=">i8").astype(np.int64).reshape(depth, width)
        )
        return out


def cms_probe_counts(
    ds: ray.data.Dataset,
    *,
    col: str,
    probes: list[str],
    width: int = 2048,
    depth: int = 4,
    tokenize: bool = True,
) -> "pa.Table":
    """(term, est_count) Count-Min estimates for ``probes`` over a
    text (``tokenize=True``, whitespace split) or key column.  One
    stateless pass builds per-batch partial sketches; the driver folds
    O(blocks) fixed-size matrices — no exchange, no per-key state."""

    def _sketch(batch: pa.Table) -> pa.Table:
        cm = CountMin(width, depth)
        if tokenize:
            toks: list[str] = []
            for t in batch.column(col).to_pylist():
                toks.extend((t or "").split())
            # collapse to (distinct token, count): one hash per distinct
            u, c = np.unique(np.asarray(toks, dtype=object), return_counts=True)
            cm.add_many(list(u), c.astype(np.int64))
        else:
            vals = [str(v) for v in batch.column(col).to_pylist()]
            u, c = np.unique(np.asarray(vals, dtype=object), return_counts=True)
            cm.add_many(list(u), c.astype(np.int64))
        return pa.table({"sketch": pa.array([cm.serialize()], type=pa.binary())})

    merged = CountMin(width, depth)
    for row in ds.map_batches(_sketch, batch_format="pyarrow").iter_rows():
        merged = merged.merge(CountMin.deserialize(row["sketch"]))
    est = merged.estimate_many(probes)
    return pa.table(
        {
            "term": pa.array(probes, type=pa.string()),
            "est_count": pa.array(est, type=pa.int64()),
        }
    )


# ---------------------------------------------------------------------------
class SpaceSaving:
    """Misra-Gries/SpaceSaving heavy hitters: guaranteed to contain
    every key with frequency > n/capacity; counts are overestimates by
    at most the stored error."""

    def __init__(self, capacity: int = 64):
        self.capacity = capacity
        self.counts: dict[str, int] = {}
        self.errors: dict[str, int] = {}

    def add_many(self, keys: list[str]) -> None:
        """Batch add with per-batch pre-aggregation: a Counter pass
        (C-speed) collapses repeats so a batch of 4096 rows over a few
        distinct values costs a few weighted adds, not 4096 dict
        updates.  In the exact regime (capacity ≥ distinct keys — no
        evictions) the result is identical to per-item adds; under
        eviction pressure it is an equally valid SpaceSaving summary
        (weighted batch insertion is the standard formulation) but may
        order-differ from strict per-row insertion."""
        from collections import Counter

        for k, w in Counter(keys).items():
            self.add(k, w)

    def add(self, key: str, weight: int = 1) -> None:
        if key in self.counts:
            self.counts[key] += weight
        elif len(self.counts) < self.capacity:
            self.counts[key] = weight
            self.errors[key] = 0
        else:
            victim = min(self.counts, key=lambda k: (self.counts[k], k))
            base = self.counts.pop(victim)
            self.errors.pop(victim)
            self.counts[key] = base + weight
            self.errors[key] = base

    def merge(self, other: "SpaceSaving") -> "SpaceSaving":
        out = SpaceSaving(self.capacity)
        combined: dict[str, int] = dict(self.counts)
        errors: dict[str, int] = dict(self.errors)
        for k, v in other.counts.items():
            combined[k] = combined.get(k, 0) + v
            errors[k] = errors.get(k, 0) + other.errors.get(k, 0)
        top = sorted(combined, key=lambda k: (-combined[k], k))[: self.capacity]
        out.counts = {k: combined[k] for k in top}
        out.errors = {k: errors.get(k, 0) for k in top}
        return out

    def top(self, k: int) -> list[tuple[str, int]]:
        return sorted(self.counts.items(), key=lambda kv: (-kv[1], kv[0]))[:k]


def approx_heavy_hitters(ds: ray.data.Dataset, col: str, k: int = 10, capacity: int = 256) -> list[tuple[str, int]]:
    """Top-k frequent values without a full groupby shuffle."""
    import pickle

    def _sketch(batch: pa.Table) -> pa.Table:
        ss = SpaceSaving(capacity)
        ss.add_many([str(v) for v in batch.column(col).to_pylist()])
        return pa.table({"sketch": pa.array([pickle.dumps((ss.counts, ss.errors))], type=pa.binary())})

    merged = SpaceSaving(capacity)
    for row in ds.map_batches(_sketch, batch_format="pyarrow").iter_rows():
        other = SpaceSaving(capacity)
        other.counts, other.errors = pickle.loads(row["sketch"])
        merged = merged.merge(other)
    return merged.top(k)


# ---------------------------------------------------------------------------
class Reservoir:
    """Deterministic k-sample: each item gets priority = hash(key); the
    reservoir keeps the k SMALLEST priorities.  Merging reservoirs is
    exact (same result as a single global pass), and the sample is
    identical across runs and partitionings."""

    def __init__(self, k: int = 64):
        self.k = k
        self.items: list[tuple[int, str]] = []  # (priority, key), sorted

    def add(self, key: str) -> None:
        self.add_many([key])

    def add_many(self, keys: list[str]) -> None:
        """Bulk add: hash all keys, ONE sort + truncate per batch
        (identical result to per-item add-sort-truncate, which paid an
        O(k log k) Python sort per row)."""
        if not keys:
            return
        pris = _h64_many(keys, seed=1)
        self.items.extend(zip((int(p) for p in pris), keys))
        self.items.sort()
        del self.items[self.k :]

    def merge(self, other: "Reservoir") -> "Reservoir":
        out = Reservoir(self.k)
        out.items = sorted(set(self.items) | set(other.items))[: self.k]
        return out

    def sample(self) -> list[str]:
        return [k for _, k in self.items]


def deterministic_sample(ds: ray.data.Dataset, col: str, k: int = 64) -> list[str]:
    """k-element deterministic uniform sample of a column (priority
    sampling; identical result for any partitioning)."""
    import pickle

    def _sketch(batch: pa.Table) -> pa.Table:
        r = Reservoir(k)
        r.add_many([str(v) for v in batch.column(col).to_pylist()])
        return pa.table({"sketch": pa.array([pickle.dumps(r.items)], type=pa.binary())})

    merged = Reservoir(k)
    for row in ds.map_batches(_sketch, batch_format="pyarrow").iter_rows():
        other = Reservoir(k)
        other.items = pickle.loads(row["sketch"])
        merged = merged.merge(other)
    return merged.sample()


# ---------------------------------------------------------------------------
class LogHistogram:
    """Mergeable log-bucketed histogram for approximate quantiles of
    non-negative values — the sketch path where exact quantiles would
    need a global sort (or the value-counts walk of
    ``relational.exact_int_quantiles``, which only suits low-cardinality
    ints).  Fixed geometric bins => deterministic, merge = vector add,
    relative value error ≤ half a bin (~3.7% at 28 bins/decade).

    Values below ``lo`` land in an underflow bin reported as ``lo``;
    the top bin catches everything ≥ ``hi``."""

    def __init__(self, lo: float = 1.0, hi: float = 1e12, bins_per_decade: int = 28):
        self.lo = float(lo)
        self.hi = float(hi)
        self.bins_per_decade = bins_per_decade
        self.n_bins = int(math.ceil(math.log10(hi / lo) * bins_per_decade)) + 2
        self.counts = np.zeros(self.n_bins, dtype=np.int64)

    def _bucket(self, vals: np.ndarray) -> np.ndarray:
        vals = np.asarray(vals, dtype=np.float64)
        idx = np.zeros(len(vals), dtype=np.int64)  # underflow bin 0
        pos = vals >= self.lo
        idx[pos] = (
            np.floor(np.log10(vals[pos] / self.lo) * self.bins_per_decade).astype(np.int64)
            + 1
        )
        return np.clip(idx, 0, self.n_bins - 1)

    def add_array(self, vals: np.ndarray) -> None:
        if len(vals):
            np.add.at(self.counts, self._bucket(vals), 1)

    def merge(self, other: "LogHistogram") -> "LogHistogram":
        if (other.lo, other.hi, other.bins_per_decade) != (self.lo, self.hi, self.bins_per_decade):
            raise ValueError("incompatible histogram parameters")
        out = LogHistogram(self.lo, self.hi, self.bins_per_decade)
        out.counts = self.counts + other.counts
        return out

    def quantile(self, q: float) -> float:
        total = int(self.counts.sum())
        if total == 0:
            return float("nan")
        target = q * (total - 1)
        cum = np.cumsum(self.counts)
        b = int(np.searchsorted(cum, target, side="right"))
        b = min(b, self.n_bins - 1)
        if b == 0:
            return self.lo
        # geometric midpoint of the bucket
        lo_edge = self.lo * 10 ** ((b - 1) / self.bins_per_decade)
        hi_edge = self.lo * 10 ** (b / self.bins_per_decade)
        return float(math.sqrt(lo_edge * hi_edge))

    def serialize(self) -> bytes:
        head = struct.pack("<ddi", self.lo, self.hi, self.bins_per_decade)
        return head + self.counts.tobytes()

    @classmethod
    def deserialize(cls, data: bytes) -> "LogHistogram":
        lo, hi, bpd = struct.unpack("<ddi", data[:20])
        h = cls(lo, hi, bpd)
        h.counts = np.frombuffer(data[20:], dtype=np.int64).copy()
        return h


def approx_quantiles(
    ds: ray.data.Dataset,
    col: str,
    qs: tuple[float, ...] = (0.5, 0.9, 0.99),
    *,
    lo: float = 1.0,
    hi: float = 1e12,
    bins_per_decade: int = 28,
) -> "pa.Table":
    """Approximate quantiles of a numeric column: one histogram per
    batch, kilobyte partials merged — no sort, no shuffle."""

    def _sketch(batch: pa.Table) -> pa.Table:
        h = LogHistogram(lo, hi, bins_per_decade)
        h.add_array(batch.column(col).to_numpy(zero_copy_only=False))
        return pa.table({"sketch": pa.array([h.serialize()], type=pa.binary())})

    merged = LogHistogram(lo, hi, bins_per_decade)
    for row in ds.map_batches(_sketch, batch_format="pyarrow").iter_rows():
        merged = merged.merge(LogHistogram.deserialize(row["sketch"]))
    return pa.table(
        {
            "q": pa.array(list(qs), type=pa.float64()),
            "value": pa.array([merged.quantile(q) for q in qs], type=pa.float64()),
        }
    )
