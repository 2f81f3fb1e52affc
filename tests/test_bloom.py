"""Tests for the Bloom filter behind the distributed semi/anti joins."""

import ray.data

from dots_ocr_ray.functions.bloom import BloomFilter


def test_bloom_no_false_negatives():
    keys = [f"https://x.com/{i}" for i in range(5000)]
    bf = BloomFilter.build(keys, fp_rate=0.01)
    assert all(k in bf for k in keys)  # zero false negatives, always


def test_bloom_fp_rate_in_range():
    keys = [f"https://x.com/{i}" for i in range(5000)]
    bf = BloomFilter.build(keys, fp_rate=0.01)
    others = [f"https://y.org/{i}" for i in range(5000)]
    fp = sum(1 for k in others if k in bf) / len(others)
    assert fp < 0.03  # ~1% nominal, generous bound


def test_bloom_deterministic():
    a = BloomFilter.build(["k1", "k2", "k3"])
    b = BloomFilter.build(["k1", "k2", "k3"])
    assert (a.bits == b.bits).all()


def test_int_array_api_and_partial_merge():
    """Vectorized int-key add/contains; OR-merging partial filters with
    shared params equals one filter built from all keys."""
    import numpy as np

    from dots_ocr_ray.functions.bloom import BloomFilter

    keys = np.arange(0, 5000, 7, dtype=np.int64)
    whole = BloomFilter(capacity=len(keys), fp_rate=0.01)
    whole.add_int_array(keys)
    assert whole.contains_int_array(keys).all()  # no false negatives
    absent = np.arange(1, 5000, 7, dtype=np.int64)
    assert whole.contains_int_array(absent).mean() < 0.05  # fp bounded

    p1 = BloomFilter.from_params(whole.n_bits, whole.n_hashes)
    p2 = BloomFilter.from_params(whole.n_bits, whole.n_hashes)
    p1.add_int_array(keys[: len(keys) // 2])
    p2.add_int_array(keys[len(keys) // 2 :])
    p1.merge_bits(p2.bits)
    assert bytes(p1.bits) == bytes(whole.bits)


def test_build_bloom_distributed(ray_session):
    """The distributed partial-bloom build (map + tree OR-reduce) must
    equal a single-process build over the same keys."""
    import numpy as np
    import ray.data

    from dots_ocr_ray.functions.bloom import BloomFilter
    from dots_ocr_ray.pipelines.dedup import build_bloom_distributed

    rows = [{"a": i, "b": i + 1000} for i in range(2000)]
    ds = ray.data.from_items(rows).repartition(8)
    bf = build_bloom_distributed(ds, ("a", "b"), capacity=4000, fp_rate=0.001)
    ref = BloomFilter.from_params(bf.n_bits, bf.n_hashes)
    ref.add_int_array(np.arange(0, 2000, dtype=np.int64))
    ref.add_int_array(np.arange(1000, 3000, dtype=np.int64))
    assert bytes(bf.bits) == bytes(ref.bits)


def test_cached_object_lru_bounded(ray_session):
    """cached_object keeps only a few broadcast objects per worker
    process (bounded LRU) instead of pinning every past job's
    broadcasts forever."""
    import ray

    from dots_ocr_ray import util

    util._BROADCAST_CACHE.clear()
    refs = [ray.put(f"obj-{i}") for i in range(util._BROADCAST_CACHE_SLOTS + 3)]
    for r in refs:
        assert util.cached_object(r).startswith("obj-")
    assert len(util._BROADCAST_CACHE) == util._BROADCAST_CACHE_SLOTS
    # most recent entries survive; the oldest were evicted
    assert util.cached_object(refs[-1]) == f"obj-{len(refs)-1}"
