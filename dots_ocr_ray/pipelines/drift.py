"""Distribution-drift audit between two crawl snapshots — the
dataset-shift gate a training-data pipeline runs when a new crawl drop
lands: has the language (or source / domain) mix moved enough to
re-balance the training mixture?

The two snapshots are the deterministic halves of the corpus
(``doc_id`` parity: even = previous crawl, odd = current crawl — the
same snapshot rule the recrawl/CDC family uses), and the drift report
is one row per category with Laplace-smoothed probabilities plus the
three standard divergence terms:

* ``kl_term``  — the category's contribution to KL(current‖previous);
* ``tv_term``  — its contribution to total-variation distance;
* ``chi2_term`` — its contribution to the chi-square statistic.

Scale shape (the 100-TB contract): each batch emits ONE partial count
row per (category, snapshot) seen in the batch, so the exchange is
O(batches × categories) scalar rows regardless of corpus size; the
driver folds a bounded (categories × 2) count table and computes the
smoothed divergence terms in one numpy pass.  Laplace (+1) smoothing
keeps every term finite when a category is absent from one snapshot.
No reference counterpart (the reference has no corpus statistics);
this is a first-class training-data addition in the repo's
exchange-budget discipline.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

import ray.data

from dots_ocr_ray.util import round_half_away


def category_snapshot_counts(
    ds: ray.data.Dataset, *, category: str = "lang", id_col: str = "doc_id"
) -> tuple[list[str], np.ndarray, np.ndarray]:
    """Fold (category → count) per snapshot half.  Returns
    ``(categories_sorted, cnt_prev, cnt_curr)``; the driver-side fold
    is bounded by category cardinality × batches, never corpus rows."""

    def _partial(batch: pa.Table) -> pa.Table:
        cat = batch.column(category).to_numpy(zero_copy_only=False)
        ids = batch.column(id_col).to_numpy(zero_copy_only=False).astype(np.int64)
        curr = (ids % 2).astype(np.int64)
        uniq, inv = np.unique(cat.astype("U"), return_inverse=True)
        counts = np.zeros((len(uniq), 2), dtype=np.int64)
        np.add.at(counts, (inv, curr), 1)
        return pa.table(
            {
                "category": pa.array(uniq.astype(object), type=pa.string()),
                "cnt_prev": pa.array(counts[:, 0], type=pa.int64()),
                "cnt_curr": pa.array(counts[:, 1], type=pa.int64()),
            }
        )

    fold: dict[str, list[int]] = {}
    for b in ds.map_batches(_partial, batch_format="pyarrow").iter_batches(
        batch_format="pyarrow"
    ):
        for c, p, q in zip(
            b.column("category").to_pylist(),
            b.column("cnt_prev").to_pylist(),
            b.column("cnt_curr").to_pylist(),
        ):
            e = fold.setdefault(c, [0, 0])
            e[0] += p
            e[1] += q
    cats = sorted(fold)
    prev = np.array([fold[c][0] for c in cats], dtype=np.int64)
    curr = np.array([fold[c][1] for c in cats], dtype=np.int64)
    return cats, prev, curr


def distribution_drift(sf_dir: str, *, category: str = "lang") -> pa.Table:
    """Per-category drift report between the two snapshot halves.

    The float math mirrors the DuckDB oracle operand-for-operand
    (``(cnt + 1) * 1.0 / (tot + K)``, libm ``log``, half-away ROUND to
    6) so the driver's value hash is exact.
    """
    ds = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", category]
    )
    cats, cnt_prev, cnt_curr = category_snapshot_counts(ds, category=category)
    k = len(cats)
    tp = int(cnt_prev.sum())
    tc = int(cnt_curr.sum())
    p_prev = (cnt_prev + 1) * 1.0 / (tp + k)
    p_curr = (cnt_curr + 1) * 1.0 / (tc + k)
    kl_term = p_curr * np.log(p_curr / p_prev)
    tv_term = np.abs(p_curr - p_prev) / 2
    chi2_term = (p_curr - p_prev) ** 2 / p_prev
    return pa.table(
        {
            category: pa.array(cats, type=pa.string()),
            "cnt_prev": pa.array(cnt_prev, type=pa.int64()),
            "cnt_curr": pa.array(cnt_curr, type=pa.int64()),
            "p_prev": pa.array(round_half_away(p_prev, 6), type=pa.float64()),
            "p_curr": pa.array(round_half_away(p_curr, 6), type=pa.float64()),
            "kl_term": pa.array(round_half_away(kl_term, 6), type=pa.float64()),
            "tv_term": pa.array(round_half_away(tv_term, 6), type=pa.float64()),
            "chi2_term": pa.array(round_half_away(chi2_term, 6), type=pa.float64()),
        }
    )


def distribution_drift_js(sf_dir: str, *, category: str = "lang") -> pa.Table:
    """Jensen-Shannon drift between the snapshot halves — the
    symmetric, [0, ln 2]-bounded divergence a drift dashboard can
    threshold (KL is unbounded and asymmetric).  Per category:
    ``js_term = (p_curr·ln(p_curr/m) + p_prev·ln(p_prev/m)) / 2`` with
    ``m = (p_prev + p_curr) / 2``; smoothing and float operand order
    mirror :func:`distribution_drift` / the SQL oracle literally."""
    ds = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", category]
    )
    cats, cnt_prev, cnt_curr = category_snapshot_counts(ds, category=category)
    k = len(cats)
    tp = int(cnt_prev.sum())
    tc = int(cnt_curr.sum())
    p_prev = (cnt_prev + 1) * 1.0 / (tp + k)
    p_curr = (cnt_curr + 1) * 1.0 / (tc + k)
    m = (p_prev + p_curr) / 2
    js_term = (p_curr * np.log(p_curr / m) + p_prev * np.log(p_prev / m)) / 2
    return pa.table(
        {
            category: pa.array(cats, type=pa.string()),
            "cnt_prev": pa.array(cnt_prev, type=pa.int64()),
            "cnt_curr": pa.array(cnt_curr, type=pa.int64()),
            "p_prev": pa.array(round_half_away(p_prev, 6), type=pa.float64()),
            "p_curr": pa.array(round_half_away(p_curr, 6), type=pa.float64()),
            "js_term": pa.array(round_half_away(js_term, 6), type=pa.float64()),
        }
    )


def welch_t_by_category(
    ds: ray.data.Dataset,
    *,
    category: str = "lang",
    value_col: str = "n_chars",
    id_col: str = "doc_id",
) -> ray.data.Dataset:
    """Welch's unequal-variance t between the two snapshot halves
    (``doc_id`` parity) per category — the inferential companion to the
    count-mix drift report: "did mean document LENGTH move, beyond
    what the sample sizes explain?".

    Exactness contract: one keyed fold sums integer (n, Σx, Σx²) per
    (category, half) — O(categories) rows — and the
    driver computes t and the Welch–Satterthwaite df from the exact
    integer sums with a FIXED operand order mirrored literally in the
    SQL oracle, micro-floored.  Categories with n < 2 in either half
    are dropped (variance undefined)."""

    def _halves(batch: pa.Table) -> pa.Table:
        ids = batch.column(id_col).to_numpy(zero_copy_only=False).astype(np.int64)
        vals = batch.column(value_col).to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table({category: batch.column(category), "half": ids % 2, "x": vals, "xx": vals * vals})

    from dots_ocr_ray.util import bucket_keyed_fold

    folded = bucket_keyed_fold(
        ds.select_columns([id_col, category, value_col]).map_batches(_halves, batch_format="pyarrow"),
        [category, "half"],
        {"n": ("count", None), "sx": ("sum", "x"), "sxx": ("sum", "xx")},
    ).to_pandas()
    rows = {"lang": [], "n0": [], "n1": [], "t_micro": [], "df_micro": []}
    by_cat: dict[str, dict[int, tuple[int, int, int]]] = {}
    for _, r in folded.iterrows():
        by_cat.setdefault(r[category], {})[int(r["half"])] = (
            int(r["n"]),
            int(r["sx"]),
            int(r["sxx"]),
        )
    for cat in sorted(by_cat):
        halves = by_cat[cat]
        if 0 not in halves or 1 not in halves:
            continue
        (n0, sx0, sxx0), (n1, sx1, sxx1) = halves[0], halves[1]
        if n0 < 2 or n1 < 2:
            continue
        m0 = sx0 * 1.0 / n0
        m1 = sx1 * 1.0 / n1
        v0 = (sxx0 - sx0 * 1.0 * sx0 / n0) / (n0 - 1)
        v1 = (sxx1 - sx1 * 1.0 * sx1 / n1) / (n1 - 1)
        se0 = v0 / n0
        se1 = v1 / n1
        t = (m0 - m1) / np.sqrt(se0 + se1)
        df = (se0 + se1) * (se0 + se1) / (
            se0 * se0 / (n0 - 1) + se1 * se1 / (n1 - 1)
        )
        rows["lang"].append(cat)
        rows["n0"].append(n0)
        rows["n1"].append(n1)
        rows["t_micro"].append(int(np.floor(1000000 * t)))
        rows["df_micro"].append(int(np.floor(1000000 * df)))
    return pa.table(
        {
            category: pa.array(rows["lang"], pa.string()),
            "n0": pa.array(rows["n0"], pa.int64()),
            "n1": pa.array(rows["n1"], pa.int64()),
            "t_micro": pa.array(rows["t_micro"], pa.int64()),
            "df_micro": pa.array(rows["df_micro"], pa.int64()),
        }
    )
