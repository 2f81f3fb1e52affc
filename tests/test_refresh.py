"""Recurring-crawl refresh (pipelines/refresh.py): round 1 builds the
index, round 2 over the SAME pages keeps nothing, round 3 with a mix
of exact dups / near dups / fresh docs keeps exactly the fresh ones —
and the index grows by appended files only."""

import os

import pyarrow as pa
import pytest

import ray.data

from dots_ocr_ray.fixtures import make_pages_table
from dots_ocr_ray.pipelines.refresh import refresh_corpus


def _pages(n, seed):
    return ray.data.from_arrow(make_pages_table(n, seed=seed))


def test_refresh_rounds(ray_session, tmp_path):
    index = str(tmp_path / "index")
    out1, out2, out3 = (str(tmp_path / f"out{i}") for i in (1, 2, 3))

    c1 = refresh_corpus(_pages(64, 5), index, out1)
    assert c1["kept"] > 0
    kept1 = ray.data.read_parquet(out1)
    assert kept1.count() == c1["kept"]

    # same pages again: exact gate drops everything
    c2 = refresh_corpus(_pages(64, 5), index, out2)
    assert c2["after_exact"] == 0 and c2["kept"] == 0

    # fresh seed: different texts survive, dup-of-archive texts do not
    c3 = refresh_corpus(_pages(48, 99), index, out3)
    assert c3["kept"] > 0
    # index grew by appended run files (md5 + sigs per round)
    md5_files = os.listdir(os.path.join(index, "md5"))
    sig_files = os.listdir(os.path.join(index, "sigs"))
    assert len(md5_files) == 3 and len(sig_files) == 3

    # the true archive invariant: no kept round-3 TEXT exactly matches
    # anything the archive already holds (ids may legitimately repeat —
    # the synthetic url space overlaps across seeds with fresh content)
    texts1 = {r["text"] for r in kept1.take_all()}
    texts3 = [r["text"] for r in ray.data.read_parquet(out3).take_all()]
    assert not (texts1 & set(texts3))
    assert len(set(texts3)) == len(texts3)  # round 3 is internally exact-deduped
    assert os.path.exists(os.path.join(out3, "_job_stats.json"))


def test_recrawl_priority(ray_session):
    """priority = change_rate × rank; hosts absent from the rank table
    score 0; added/removed rows never count as compared."""
    import pyarrow as pa
    import ray.data

    from dots_ocr_ray.pipelines.refresh import recrawl_priority

    diff = ray.data.from_items(
        # host 0 (ids 0,40,80,120): 2 compared, 1 changed, 1 added
        [
            {"doc_id": 0, "change": "changed"},
            {"doc_id": 40, "change": "unchanged"},
            {"doc_id": 80, "change": "added"},
            {"doc_id": 120, "change": "removed"},
            # host 1: compared-only, never changed
            {"doc_id": 1, "change": "unchanged"},
            {"doc_id": 41, "change": "unchanged"},
            # host 2: no rank row → rank 0
            {"doc_id": 2, "change": "changed"},
        ]
    )
    ranks = pa.table(
        {
            "host": pa.array([0, 1], type=pa.int64()),
            "rank_rel": pa.array([2.0, 1.0], type=pa.float64()),
        }
    )
    out = recrawl_priority(diff, ranks).to_pandas().set_index("host").sort_index()
    assert out.loc[0, "n_added"] == 1
    assert out.loc[0, "n_changed"] == 1
    assert out.loc[0, "n_compared"] == 2
    assert out.loc[0, "change_rate"] == 0.5
    assert out.loc[0, "priority"] == 1.0
    assert out.loc[1, "priority"] == 0.0
    assert out.loc[2, "rank_rel"] == 0.0 and out.loc[2, "priority"] == 0.0


def test_refresh_recrawl_near_dup_is_dropped(ray_session, tmp_path):
    """A recrawl of the SAME url with drifted near-duplicate content
    must be caught by the minhash gate: the refresh doc_id is salted
    with the content hash precisely so the archived signature and the
    new signature never collide on one id (which would degrade the
    cross-pair to an invisible self-pair)."""
    import datetime

    import pyarrow as pa

    def pages(texts):
        n = len(texts)
        return ray.data.from_arrow(
            pa.table(
                {
                    "url": pa.array([f"http://s.com/p{i}" for i in range(n)]),
                    "warc_ts": pa.array(
                        [datetime.datetime(2026, 1, 1)] * n, type=pa.timestamp("us")
                    ),
                    "html": pa.array(
                        [
                            ("<html><body><p>" + t + "</p></body></html>").encode()
                            for t in texts
                        ],
                        type=pa.binary(),
                    ),
                    "text": pa.array(texts),
                    "lang": pa.array(["en"] * n),
                }
            )
        )

    base = str(tmp_path / "recrawl")
    words = " ".join(f"word{i} token{i} alpha{i} beta{i}" for i in range(40))
    c1 = refresh_corpus(
        pages([words]), f"{base}/index", f"{base}/out1", minhash_threshold=0.7
    )
    assert c1["kept"] == 1

    # same url, one word removed: near-duplicate content
    near = words.replace("word5 ", "")
    c2 = refresh_corpus(
        pages([near]), f"{base}/index", f"{base}/out2", minhash_threshold=0.7
    )
    assert c2["after_exact"] == 1  # passes the exact gate (new md5)
    assert c2["kept"] == 0  # but the near-dup gate drops it

    # byte-identical recrawl: the exact gate drops it first
    c3 = refresh_corpus(
        pages([words]), f"{base}/index", f"{base}/out3", minhash_threshold=0.7
    )
    assert c3["after_exact"] == 0


def test_recrawl_priority_tier_parity(ray_session, exchange_tier):
    """Forcing ``util.broadcast_fits`` to False takes the distributed hash_join rank-attach;
    it must agree with the broadcast searchsorted gather, including
    hosts with no rank row (rank 0)."""
    import pyarrow as pa
    import ray.data

    from dots_ocr_ray.pipelines.refresh import recrawl_priority

    diff = ray.data.from_items(
        [
            {"doc_id": i, "change": c}
            for i, c in zip(
                range(0, 200),
                ["changed", "unchanged", "added", "removed"] * 50,
            )
        ]
    ).repartition(4)
    ranks = pa.table(
        {
            "host": pa.array(list(range(0, 30)), type=pa.int64()),
            "rank_rel": pa.array([1.0 + 0.1 * h for h in range(30)], type=pa.float64()),
        }
    )
    base = recrawl_priority(diff, ranks).to_pandas().set_index("host").sort_index()
    exchange_tier()
    dist = (
        recrawl_priority(diff, ranks)
        .to_pandas()
        .set_index("host")
        .sort_index()
    )
    assert base.equals(dist)
    assert (base.loc[30:, "rank_rel"] == 0).all()  # hosts 30..39 unranked
    # a Dataset rank table takes either tier too
    for force in (True, False):
        exchange_tier(force)
        got = recrawl_priority(diff, ray.data.from_arrow(ranks)).to_pandas().set_index("host").sort_index()
        assert got.equals(base)
