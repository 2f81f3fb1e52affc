"""Unit tests for the round-3 clustering / scoring / normalization ops
(the driver-contract SQL+golden oracles cover them end-to-end; these
pin the kernels and the scale-shape invariants)."""

import numpy as np
import pyarrow as pa
import pytest

import ray.data

SF = "/root/testdata/sf0.001"


def test_round_half_away():
    from dots_ocr_ray.util import round_half_away

    assert round_half_away(np.float64(0.40625), 4) == 0.4063
    assert round_half_away(np.float64(-0.40625), 4) == -0.4063
    assert list(round_half_away(np.array([0.03125, 2.5e-5]), 4)) == [0.0313, 0.0]


def test_assign_clusters_batch_invariance():
    """Assignment must not depend on batch shape (the argmax-tie guard)."""
    from dots_ocr_ray.pipelines.similarity import assign_clusters_matrix

    rng = np.random.RandomState(7)
    mat = rng.standard_normal((200, 16)).astype(np.float32)
    cents = rng.standard_normal((4, 16)).astype(np.float32)
    cid_full, sim_full = assign_clusters_matrix(mat, cents)
    for lo, hi in [(0, 50), (50, 137), (137, 200)]:
        cid, sim = assign_clusters_matrix(mat[lo:hi], cents)
        assert (cid == cid_full[lo:hi]).all()
        assert (sim == sim_full[lo:hi]).all()


def test_kmeans_assign_covers_corpus(ray_session):
    from dots_ocr_ray.pipelines.similarity import kmeans_assign

    ds = ray.data.read_parquet(f"{SF}/embeddings.parquet", columns=["vec_id", "embedding"])
    out = pa.Table.from_pylist(kmeans_assign(ds, n_clusters=4).take_all())
    n = ds.count()
    assert out.num_rows == n
    assert len(set(out.column("vec_id").to_pylist())) == n
    cids = set(out.column("cluster_id").to_pylist())
    assert cids <= set(range(4)) and len(cids) >= 2


def test_normalize_text_hostile(ray_session):
    from dots_ocr_ray.pipelines.text_analysis import normalize_text

    cases = ["  A\t\nB  ", "", None, "Café  NFD: Café", "x   y"]
    ds = ray.data.from_items([{"doc_id": i, "text": t} for i, t in enumerate(cases)])
    out = normalize_text(ds).to_pandas().set_index("doc_id")
    assert out.loc[0, "norm_text"] == "a b"
    assert out.loc[1, "norm_text"] == ""
    assert out.loc[2, "norm_text"] == ""
    # NFD é composes to NFC then lowercases identically
    assert "café nfd: café" == out.loc[3, "norm_text"]
    assert int(out.loc[4, "n_chars_norm"]) == len(out.loc[4, "norm_text"])


def test_quality_model_scores_monotone(ray_session):
    from dots_ocr_ray.pipelines.text_analysis import quality_model_scores

    cases = ["", "zz.", "The quick brown fox jumps over the lazy dog " * 20]
    ds = ray.data.from_items([{"doc_id": i, "text": t} for i, t in enumerate(cases)])
    out = quality_model_scores(ds).to_pandas().set_index("doc_id")
    assert 0.0 <= out.score.min() and out.score.max() <= 1.0
    assert out.loc[2, "score"] > out.loc[0, "score"]
    assert bool(out.loc[2, "keep"])
