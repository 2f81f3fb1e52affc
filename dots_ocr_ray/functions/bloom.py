"""Deterministic Bloom filter behind the distributed semi/anti joins.

At 10^12 documents the "completed urls" / "already-seen keys" side of a
resume or dedup anti-join no longer fits as a plain Python set in every
task.  A Bloom filter keeps the broadcast payload at ~1.2 GB per 10^9
keys at 1% false positives.  Membership is APPROXIMATE in one
direction: a false positive claims ~fp_rate of the not-in-set keys, so
``dedup.semi_join_ids`` / ``anti_join_ids`` exact-verify the possible
members; false negatives never occur.

Pure numpy + blake2b: deterministic across processes, ships through
``ray.put`` once, read per actor/task.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np

from dots_ocr_ray.util import GOLDEN64, _mix64


class BloomFilter:
    def __init__(self, capacity: int, fp_rate: float = 0.01):
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self.fp_rate = fp_rate
        n_bits, n_hashes = self.params(capacity, fp_rate)
        self.n_bits = n_bits
        self.n_hashes = n_hashes
        self.bits = np.zeros((n_bits + 7) // 8, dtype=np.uint8)

    @staticmethod
    def params(capacity: int, fp_rate: float = 0.01) -> tuple[int, int]:
        """(n_bits, n_hashes) for a capacity/fp target — computable
        WITHOUT allocating the bit array, so distributed partial-bloom
        builders can agree on parameters before any bits exist."""
        n_bits = max(8, int(-capacity * math.log(fp_rate) / (math.log(2) ** 2)))
        n_hashes = max(1, round(n_bits / capacity * math.log(2)))
        return n_bits, n_hashes

    @classmethod
    def from_params(cls, n_bits: int, n_hashes: int) -> "BloomFilter":
        """Empty filter with EXPLICIT parameters (partial-bloom
        combiner pattern: every partial must share bit layout so a
        bitwise OR of the arrays is the union filter)."""
        bf = cls.__new__(cls)
        bf.capacity = 0
        bf.fp_rate = 0.0
        bf.n_bits = n_bits
        bf.n_hashes = n_hashes
        bf.bits = np.zeros((n_bits + 7) // 8, dtype=np.uint8)
        return bf

    def _int_positions(self, vals: np.ndarray, i: int) -> np.ndarray:
        h1 = _mix64(vals, GOLDEN64)
        h2 = _mix64(vals, 0xC2B2AE3D27D4EB4F) | np.uint64(1)
        return (h1 + np.uint64(i) * h2) % np.uint64(self.n_bits)

    def add_int_array(self, vals: np.ndarray) -> None:
        """Vectorized bulk add of int64 keys.  NOTE: int keys live in a
        separate hash domain from the string :meth:`add` — query them
        only via :meth:`contains_int_array`."""
        vals = np.asarray(vals, dtype=np.int64)
        if len(vals) == 0:
            return
        for i in range(self.n_hashes):
            pos = self._int_positions(vals, i)
            np.bitwise_or.at(
                self.bits,
                (pos >> np.uint64(3)).astype(np.int64),
                np.left_shift(np.uint8(1), (pos & np.uint64(7)).astype(np.uint8)),
            )

    def contains_int_array(self, vals: np.ndarray) -> np.ndarray:
        """Vectorized membership for int64 keys → bool mask."""
        vals = np.asarray(vals, dtype=np.int64)
        mask = np.ones(len(vals), dtype=bool)
        for i in range(self.n_hashes):
            pos = self._int_positions(vals, i)
            byte = self.bits[(pos >> np.uint64(3)).astype(np.int64)]
            bit = (byte >> (pos & np.uint64(7)).astype(np.uint8)) & np.uint8(1)
            mask &= bit.astype(bool)
        return mask

    def merge_bits(self, other_bits: bytes | np.ndarray) -> None:
        arr = np.frombuffer(other_bits, dtype=np.uint8) if isinstance(other_bits, bytes) else other_bits
        np.bitwise_or(self.bits, arr, out=self.bits)

    def _positions(self, key: str) -> list[int]:
        # double hashing from one 16-byte digest: h1 + i*h2 (Kirsch-
        # Mitzenmacher), deterministic everywhere
        digest = hashlib.blake2b(key.encode("utf-8"), digest_size=16).digest()
        h1 = int.from_bytes(digest[:8], "big")
        h2 = int.from_bytes(digest[8:], "big") | 1
        return [(h1 + i * h2) % self.n_bits for i in range(self.n_hashes)]

    def add(self, key: str) -> None:
        for p in self._positions(key):
            self.bits[p >> 3] |= 1 << (p & 7)

    def __contains__(self, key: str) -> bool:
        return all(self.bits[p >> 3] & (1 << (p & 7)) for p in self._positions(key))

    @classmethod
    def build(cls, keys, fp_rate: float = 0.01) -> "BloomFilter":
        keys = list(keys)
        bf = cls(max(1, len(keys)), fp_rate)
        for k in keys:
            bf.add(k)
        return bf
