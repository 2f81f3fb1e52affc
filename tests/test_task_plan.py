"""Tests for the task planner behind the file fan-outs
(``util.pack_bins``): units packed by bytes into about two blocks per
task slot."""

import random

import pytest

from dots_ocr_ray.util import BLOCKS_PER_SLOT, pack_bins


@pytest.mark.parametrize("n,slots", [(1, 1), (5, 1), (17, 1), (20, 4), (3, 4), (200, 3)])
def test_every_unit_in_exactly_one_bin(n, slots):
    weights = [random.Random(n).randint(0, 10_000) for _ in range(n)]
    bins = pack_bins(weights, slots)
    assert sorted(i for b in bins for i in b) == list(range(n))
    assert len(bins) == min(n, BLOCKS_PER_SLOT * slots)
    assert all(b and b == sorted(b) for b in bins)


def test_plan_is_deterministic():
    rng = random.Random(3)
    weights = [rng.choice([10, 20, 30]) for _ in range(50)]  # many ties
    assert pack_bins(weights, 4) == pack_bins(list(weights), 4)


def test_heavy_unit_sits_alone():
    weights = [100] * 19
    weights[7] = 1000  # 10x the others
    bins = pack_bins(weights, 4)
    assert len(bins) == 8
    assert [7] in bins


def test_zero_weights_spread_over_all_bins():
    bins = pack_bins([0] * 10, 2)
    assert len(bins) == 4 and sorted(len(b) for b in bins) == [2, 2, 3, 3]


def test_bins_balance_by_bytes_not_count():
    # longest-first into the lightest bin; a count-balanced split of
    # the sorted list (6,4,2,2,1 | 5,3,2,1,1) would load 15 and 12
    bins = pack_bins([6, 5, 4, 3, 2, 2, 2, 1, 1, 1], 1)  # 2 bins
    loads = sorted(sum([6, 5, 4, 3, 2, 2, 2, 1, 1, 1][i] for i in b) for b in bins)
    assert loads == [13, 14]


def test_packed_job_keeps_unit_ids(ray_session, tmp_path):
    """Unit ids come from the file list, not from the packing: every
    metrics row and part file keeps the id of its unit's position."""
    import pyarrow.parquet as pq

    from dots_ocr_ray.fixtures import make_pages_table
    from dots_ocr_ray.pipelines.extract import _shard_units, extract_shards
    from dots_ocr_ray.state.manifest import read_marker

    pages = make_pages_table(24, seed=5)
    files = []
    for s, rows in enumerate([1, 1, 12, 1, 1, 1, 7]):  # one shard 10x the rest
        f = str(tmp_path / f"s{s}.parquet")
        pq.write_table(pages.slice(s, rows), f)
        files.append(f)
    units = _shard_units(files, None)
    assert [(u[0], u[1]) for u in units] == [(f, None) for f in files]
    out = str(tmp_path / "out")
    metrics = extract_shards(files, out)
    assert metrics.column("partition_id").to_pylist() == list(range(len(files)))
    for pid, f in enumerate(files):
        assert read_marker(out, pid)["rows"] == pq.read_metadata(f).num_rows
