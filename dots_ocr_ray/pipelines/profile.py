"""One-pass distributed table profiling — the data-quality
reconnaissance step a pipeline runs before committing 100 TB of compute
to a new crawl drop: per column, null rate, approximate distinct
cardinality, and numeric / string-length summary stats.

Scale shape: each batch emits ONE partial row per column (scalar
min/max/sum partials + a 4 KB HyperLogLog register block — all
mergeable), so the exchange is (columns × batches) tiny rows
regardless of corpus size; the final merge is one Python call per
COLUMN (bounded by schema width, not data).  The sketch rides
``functions/sketches.py:HyperLogLog`` — the same mergeable-sketch
combiner pattern as ``approx_distinct``.

No reference counterpart (the reference profiles nothing); this is a
first-class training-data addition in the repo's exchange-budget
discipline.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray
import ray.data

from dots_ocr_ray.functions.sketches import HyperLogLog
from dots_ocr_ray.util import bounded_blocks

PROFILE_HLL_P = 12


def _is_numeric(t: pa.DataType) -> bool:
    return pa.types.is_integer(t) or pa.types.is_floating(t)


def _is_string(t: pa.DataType) -> bool:
    return pa.types.is_string(t) or pa.types.is_large_string(t)


def column_partial(name: str, col, p: int = PROFILE_HLL_P) -> dict:
    """Mergeable profile partial for one column chunk.  Pure function
    shared by the Ray pipeline and the sequential golden oracle (the
    HLL keys are the Arrow string casts of non-null values, so both
    sides hash identical key strings)."""
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    t = col.type
    valid = col.drop_null()
    hll = HyperLogLog(p)
    if len(valid):
        hll.add_many(pc.cast(valid, pa.string()).to_pylist())
    row = {
        "column": name,
        "dtype": str(t),
        "n": len(col),
        "nulls": col.null_count,
        "hll": hll.serialize(),
        "vmin": float("inf"),
        "vmax": float("-inf"),
        "vsum": 0.0,
        "lmin": int(2**62),
        "lmax": int(-1),
        "lsum": 0,
    }
    if _is_numeric(t) and len(valid):
        v = valid.to_numpy(zero_copy_only=False).astype(np.float64)
        v = v[~np.isnan(v)]
        if len(v):
            row["vmin"] = float(v.min())
            row["vmax"] = float(v.max())
            row["vsum"] = float(v.sum())
    if _is_string(t) and len(valid):
        lens = pc.binary_length(valid).to_numpy(zero_copy_only=False).astype(np.int64)
        row["lmin"] = int(lens.min())
        row["lmax"] = int(lens.max())
        row["lsum"] = int(lens.sum())
    return row


def merge_partials(column: str, rows: list[dict], p: int = PROFILE_HLL_P) -> dict:
    """Fold partial rows for one column into the final profile row.
    Means are rounded to 4 decimals so the result is stable under any
    partial-merge order (float sums reassociate across batches)."""
    hll = HyperLogLog(p)
    regs = np.zeros(hll.m, dtype=np.uint8)
    n = nulls = lsum = 0
    vmin, vmax, vsum = float("inf"), float("-inf"), 0.0
    lmin, lmax = int(2**62), -1
    dtype = rows[0]["dtype"]
    for r in rows:
        n += int(r["n"])
        nulls += int(r["nulls"])
        regs = np.maximum(regs, np.frombuffer(bytes(r["hll"])[1:], dtype=np.uint8))
        vmin = min(vmin, float(r["vmin"]))
        vmax = max(vmax, float(r["vmax"]))
        vsum += float(r["vsum"])
        lmin = min(lmin, int(r["lmin"]))
        lmax = max(lmax, int(r["lmax"]))
        lsum += int(r["lsum"])
    hll.registers = regs
    n_valid = max(n - nulls, 1)
    numeric = np.isfinite(vmin)
    stringy = lmax >= 0
    return {
        "column": column,
        "dtype": dtype,
        "n_rows": n,
        "n_nulls": nulls,
        "approx_distinct": int(round(hll.count())) if n > nulls else 0,
        "vmin": float(vmin) if numeric else 0.0,
        "vmax": float(vmax) if numeric else 0.0,
        "vmean": round(vsum / n_valid, 4) if numeric else 0.0,
        "len_min": int(lmin) if stringy else 0,
        "len_max": int(lmax) if stringy else 0,
        "len_mean": round(lsum / n_valid, 4) if stringy else 0.0,
    }


_OUT_SCHEMA = pa.schema(
    [
        ("column", pa.string()),
        ("dtype", pa.string()),
        ("n_rows", pa.int64()),
        ("n_nulls", pa.int64()),
        ("approx_distinct", pa.int64()),
        ("vmin", pa.float64()),
        ("vmax", pa.float64()),
        ("vmean", pa.float64()),
        ("len_min", pa.int64()),
        ("len_max", pa.int64()),
        ("len_mean", pa.float64()),
    ]
)

_PARTIAL_SCHEMA = pa.schema(
    [
        ("column", pa.string()),
        ("dtype", pa.string()),
        ("n", pa.int64()),
        ("nulls", pa.int64()),
        ("hll", pa.binary()),
        ("vmin", pa.float64()),
        ("vmax", pa.float64()),
        ("vsum", pa.float64()),
        ("lmin", pa.int64()),
        ("lmax", pa.int64()),
        ("lsum", pa.int64()),
    ]
)


def profile_table(ds: ray.data.Dataset, *, hll_p: int = PROFILE_HLL_P) -> ray.data.Dataset:
    """Distributed one-pass profile of every column of ``ds`` (see
    module docstring).  Returns one row per column."""

    def _partials(batch: pa.Table) -> pa.Table:
        rows = [column_partial(name, batch.column(name), hll_p) for name in batch.column_names]
        return pa.Table.from_pylist(rows, schema=_PARTIAL_SCHEMA)

    def _merge(group: pa.Table) -> pa.Table:
        rows = group.to_pylist()
        return pa.Table.from_pylist(
            [merge_partials(rows[0]["column"], rows, hll_p)], schema=_OUT_SCHEMA
        )

    partials = bounded_blocks(ds.map_batches(_partials, batch_format="pyarrow"))
    return partials.groupby("column").map_groups(_merge, batch_format="pyarrow")


def winsorized_stats(
    ds: ray.data.Dataset,
    *,
    group_col: str = "event_type",
    value_col: str = "value",
    lo_q: float = 0.05,
    hi_q: float = 0.95,
) -> ray.data.Dataset:
    """Per-group winsorized (clamped-tail) sums in exact integer cents
    — the robust aggregate that keeps a handful of fat-finger outliers
    from dominating a mean.

    Cut points are ORDER STATISTICS, not interpolated quantiles:
    rank ``ceil(q·n)`` (1-indexed) of the cents-quantized values, so
    the result is integer-exact and SQL-mirrorable (``row_number``
    + ``least/greatest`` clamp).  Shape: one ``groupby(group_col)``
    exchange; per-group work is a numpy sort inside ``map_groups`` —
    the right tool while group cardinality is bounded (event types,
    languages); for unbounded keys use the mergeable-sketch quantile
    path (``chars_quantiles_approx``) instead.
    """

    def _group_stats(group: pa.Table) -> pa.Table:
        vals = group.column(value_col).to_numpy(zero_copy_only=False)
        cents = np.round(vals * 100).astype(np.int64)
        s = np.sort(cents)
        n = len(s)
        lo = int(s[max(0, int(np.ceil(lo_q * n)) - 1)])
        hi = int(s[max(0, int(np.ceil(hi_q * n)) - 1)])
        return pa.table(
            {
                group_col: [group.column(group_col)[0].as_py()],
                "n": pa.array([n], pa.int64()),
                "lo_cents": pa.array([lo], pa.int64()),
                "hi_cents": pa.array([hi], pa.int64()),
                "raw_sum_cents": pa.array([int(cents.sum())], pa.int64()),
                "wins_sum_cents": pa.array(
                    [int(np.clip(cents, lo, hi).sum())], pa.int64()
                ),
            }
        )

    return ds.groupby(group_col).map_groups(_group_stats, batch_format="pyarrow")


def benford_audit(
    ds: ray.data.Dataset, *, value_col: str = "o_totalprice"
) -> ray.data.Dataset:
    """Benford's-law first-digit audit over a positive money column —
    the forensic data-quality screen for synthetic/fabricated numeric
    feeds: observed first-digit counts vs the Benford expectation
    ``total·log10(1 + 1/d)`` with per-digit chi-square terms.

    Shape: cents-quantized values → vectorized first digit (decimal
    string head, no float log tricks) → one tiny keyed fold (≤ 9
    rows); the driver computes the 9 expected /
    chi-square terms with a FIXED operand order mirrored by the SQL
    oracle, micro-floored."""
    from dots_ocr_ray.util import bucket_keyed_fold

    def _digits(batch: pa.Table) -> pa.Table:
        vals = batch.column(value_col).to_numpy(zero_copy_only=False)
        cents = np.round(vals * 100).astype(np.int64)
        cents = cents[cents > 0]
        return pa.table({"digit": pa.array(cents.astype("U1").astype(np.int64), pa.int64())})

    folded = bucket_keyed_fold(
        ds.select_columns([value_col]).map_batches(_digits, batch_format="pyarrow"), "digit", {"n": ("count", None)}
    ).to_pandas()
    folded = folded.sort_values("digit")
    digits = folded["digit"].astype(int).tolist()
    ns = folded["n"].astype(int).tolist()
    total = int(sum(ns))
    exp_micro, chi_micro = [], []
    for d, n in zip(digits, ns):
        e = total * np.log10(1 + 1.0 / d)
        exp_micro.append(int(np.floor(1000000 * e)))
        chi_micro.append(int(np.floor(1000000 * ((n - e) * (n - e) / e))))
    return pa.table(
        {
            "digit": pa.array(digits, pa.int64()),
            "n": pa.array(ns, pa.int64()),
            "expected_micro": pa.array(exp_micro, pa.int64()),
            "chi2_term_micro": pa.array(chi_micro, pa.int64()),
        }
    )


def chi2_independence(
    ds: ray.data.Dataset,
    *,
    a_col: str,
    b_col: str,
) -> pa.Table:
    """Pearson chi-square test of independence between two categorical
    columns — the drift screen for "did the language mix shift per
    source between crawl drops" style questions.

    Shape: one tiny keyed fold counts the |A|x|B| contingency table
    (no Python row loop), and the
    driver computes row/column marginals and the per-cell expected
    count ``ra * 1.0 * cb / N`` (double BEFORE the cross product so
    the SQL mirror cannot overflow BIGINT) plus the chi-square term
    ``(n - e)^2 / e`` in a FIXED operand order mirrored literally by
    the oracle; both are micro-floored."""
    from dots_ocr_ray.util import bucket_keyed_fold

    folded = (
        bucket_keyed_fold(ds.select_columns([a_col, b_col]), [a_col, b_col], {"n": ("count", None)})
        .to_pandas()
        .sort_values([a_col, b_col])
        .reset_index(drop=True)
    )
    row_tot = folded.groupby(a_col)["n"].sum().to_dict()
    col_tot = folded.groupby(b_col)["n"].sum().to_dict()
    total = int(folded["n"].sum())
    observed = {
        (row[a_col], row[b_col]): int(row["n"]) for _, row in folded.iterrows()
    }
    # the statistic needs EVERY marginal cell: a zero-observed cell
    # contributes its full expected count ((0−e)²/e = e) — exactly the
    # strong-drift case the screen exists for
    a_keys, b_keys, ns, exp_micro, chi_micro = [], [], [], [], []
    for a in sorted(row_tot):
        for b in sorted(col_tot):
            ra, cb = int(row_tot[a]), int(col_tot[b])
            n = observed.get((a, b), 0)
            e = ra * 1.0 * cb / total
            a_keys.append(a)
            b_keys.append(b)
            ns.append(n)
            exp_micro.append(int(np.floor(1000000 * e)))
            chi_micro.append(int(np.floor(1000000 * ((n - e) * (n - e) / e))))
    return pa.table(
        {
            a_col: pa.array(a_keys, pa.string()),
            b_col: pa.array(b_keys, pa.string()),
            "n": pa.array(ns, pa.int64()),
            "expected_micro": pa.array(exp_micro, pa.int64()),
            "chi2_term_micro": pa.array(chi_micro, pa.int64()),
        }
    )


def mann_whitney_u(
    ds: ray.data.Dataset,
    *,
    value_col: str,
    group_col: str,
    group_a: str,
) -> pa.Table:
    """Mann-Whitney U rank-sum test between one group and the rest —
    the nonparametric "did this source's length distribution shift"
    screen that tolerates the heavy tails a t-test can't.

    Shape: values are FLOORED to integer units, one keyed fold counts
    (n_a, n) per distinct floored value (exchange ∝ distinct values,
    not rows), and the driver assigns
    tie-midranks from the cumulative counts in DOUBLED integer units
    (midrank2 = 2·cum_before + n_v + 1, always odd-exact) so U is
    integer-exact: U2_a = Σ n_a(v)·midrank2(v) − n_a(n_a+1).  The
    tie-corrected normal z uses Σ(n_v³−n_v) exact and a FIXED operand
    order mirrored by the SQL oracle, micro-floored.  Integer-exact to
    ~2·10⁹ rows (U ~ N² approaches int64 range beyond that)."""
    def _floored(batch: pa.Table) -> pa.Table:
        vals = np.floor(
            batch.column(value_col).to_numpy(zero_copy_only=False).astype(np.float64)
        ).astype(np.int64)
        # a null group is not group_a (the oracle's CASE WHEN)
        grp = pc.fill_null(pc.equal(batch.column(group_col), group_a), False)
        return pa.table({"val": pa.array(vals, pa.int64()), "is_a": grp.cast(pa.int64())})

    from dots_ocr_ray.util import bucket_keyed_fold

    folded = (
        bucket_keyed_fold(
            ds.select_columns([value_col, group_col]).map_batches(_floored, batch_format="pyarrow"),
            "val",
            {"na_v": ("sum", "is_a"), "n_v": ("count", None)},
        )
        .to_pandas()
        .sort_values("val")
        .reset_index(drop=True)
    )
    cum_before = folded["n_v"].cumsum().shift(fill_value=0).astype(int)
    midrank2 = 2 * cum_before + folded["n_v"].astype(int) + 1
    na = int(folded["na_v"].sum())
    n = int(folded["n_v"].sum())
    nb = n - na
    r2a = int((folded["na_v"].astype(int) * midrank2).sum())
    u2_a = r2a - na * (na + 1)
    u2_b = 2 * na * nb - u2_a
    tie = int((folded["n_v"].astype(int) ** 3 - folded["n_v"].astype(int)).sum())
    # degenerate inputs (one group empty, n<2, or every value tied to
    # one floor bucket) have zero rank variance: report z = 0 rather
    # than dividing by it — the statistic carries no signal there
    if na == 0 or nb == 0 or n < 2:
        var = 0.0
    else:
        var = na * 1.0 * nb / 12 * ((n + 1) - tie * 1.0 / (n * 1.0 * (n - 1)))
    z = (u2_a / 2.0 - na * 1.0 * nb / 2) / np.sqrt(var) if var > 0 else 0.0
    return pa.table(
        {
            "n_a": pa.array([na], pa.int64()),
            "n_b": pa.array([nb], pa.int64()),
            "u2_a": pa.array([u2_a], pa.int64()),
            "u2_b": pa.array([u2_b], pa.int64()),
            "z_micro": pa.array([int(np.floor(1000000 * z))], pa.int64()),
        }
    )


def spearman_corr(
    ds: ray.data.Dataset,
    *,
    x_col: str,
    y_col: str,
    x_scale: int = 1,
    y_scale: int = 1,
) -> pa.Table:
    """Spearman rank correlation between two bounded-cardinality
    numeric columns — the monotone-association screen that survives
    the outliers Pearson can't (quantity vs discount tiering, length
    vs quality score).

    Shape: both columns are floored to integer units (optionally
    pre-scaled, e.g. discount×100), one keyed fold counts the (x, y)
    pairs (exchange ∝ distinct value PAIRS, not rows), and the driver assigns doubled tie-midranks per axis from
    the marginal counts, then folds the ≤|X|·|Y| pair table into
    EXACT arbitrary-precision rank sufficient stats (the SQL mirror
    uses HUGEINT for the same sums).  The closed form divides by n
    before every cross product, fixed operand order, micro-floored."""
    def _floored(batch: pa.Table) -> pa.Table:
        x = np.floor(
            batch.column(x_col).to_numpy(zero_copy_only=False).astype(np.float64)
            * x_scale
        ).astype(np.int64)
        y = np.floor(
            batch.column(y_col).to_numpy(zero_copy_only=False).astype(np.float64)
            * y_scale
        ).astype(np.int64)
        return pa.table({"x": x, "y": y})

    from dots_ocr_ray.util import bucket_keyed_fold

    pairs = (
        bucket_keyed_fold(
            ds.select_columns([x_col, y_col]).map_batches(_floored, batch_format="pyarrow"),
            ["x", "y"],
            {"c": ("count", None)},
        )
        .to_pandas()
        .sort_values(["x", "y"])
        .reset_index(drop=True)
    )

    def _midrank2(marginal: "pd.Series") -> dict:
        vals = marginal.sort_index()
        cum_before = vals.cumsum().shift(fill_value=0).astype(int)
        return dict(zip(vals.index, (2 * cum_before + vals.astype(int) + 1)))

    import pandas as pd  # noqa: F401 (annotation aid)

    rx = _midrank2(pairs.groupby("x")["c"].sum())
    ry = _midrank2(pairs.groupby("y")["c"].sum())
    n = sx = sy = sxx = syy = sxy = 0
    for _, row in pairs.iterrows():
        c, a, b = int(row["c"]), rx[int(row["x"])], ry[int(row["y"])]
        n += c
        sx += c * a
        sy += c * b
        sxx += c * a * a
        syy += c * b * b
        sxy += c * a * b
    empty = pa.table(
        {"n": pa.array([], pa.int64()), "rho_micro": pa.array([], pa.int64())}
    )
    if n < 2:
        return empty
    cov = sxy * 1.0 / n - sx * 1.0 / n * (sy * 1.0 / n)
    vx = sxx * 1.0 / n - sx * 1.0 / n * (sx * 1.0 / n)
    vy = syy * 1.0 / n - sy * 1.0 / n * (sy * 1.0 / n)
    if vx <= 0 or vy <= 0:
        # a constant axis after flooring has no rank order to correlate
        return empty
    rho = cov / np.sqrt(vx * vy)
    return pa.table(
        {
            "n": pa.array([n], pa.int64()),
            "rho_micro": pa.array([int(np.floor(1000000 * rho))], pa.int64()),
        }
    )


def pearson_by_key(
    ds: ray.data.Dataset,
    *,
    key_col: str,
    x_col: str,
    y_col: str,
) -> pa.Table:
    """Per-group Pearson correlation from exact integer sufficient
    stats: x and y are FLOORED to integer units first (correlation is
    scale-invariant, and floor has no half-tie rule), one keyed fold
    sums (n, Σx, Σy, Σx², Σy², Σxy) as int64 per key, and the final
    closed form divides by n BEFORE any cross product so nothing
    approaches int64 range (Σy² bounds the regime: |y| ≤ 10⁵ units
    holds to ~10⁹ rows per group).  Operand order is mirrored
    literally by the SQL oracle; r is micro-floored."""

    from dots_ocr_ray.util import bucket_keyed_fold

    def _floored(batch: pa.Table) -> pa.Table:
        x = np.floor(
            batch.column(x_col).to_numpy(zero_copy_only=False).astype(np.float64)
        ).astype(np.int64)
        y = np.floor(
            batch.column(y_col).to_numpy(zero_copy_only=False).astype(np.float64)
        ).astype(np.int64)
        return pa.table(
            {
                key_col: batch.column(key_col).cast(pa.string()),
                "x": x,
                "y": y,
                "xx": x * x,
                "yy": y * y,
                "xy": x * y,
            }
        )

    folded = (
        bucket_keyed_fold(
            ds.select_columns([key_col, x_col, y_col]).map_batches(_floored, batch_format="pyarrow"),
            key_col,
            {
                "n": ("count", None),
                "sx": ("sum", "x"),
                "sy": ("sum", "y"),
                "sxx": ("sum", "xx"),
                "syy": ("sum", "yy"),
                "sxy": ("sum", "xy"),
            },
        )
        .to_pandas()
        .sort_values(key_col)
    )
    keys, ns, rs = [], [], []
    for _, row in folded.iterrows():
        n, sx, sy, sxx, syy, sxy = (
            int(row[c]) for c in ("n", "sx", "sy", "sxx", "syy", "sxy")
        )
        if n < 2:
            continue
        cov = sxy * 1.0 / n - sx * 1.0 / n * (sy * 1.0 / n)
        vx = sxx * 1.0 / n - sx * 1.0 / n * (sx * 1.0 / n)
        vy = syy * 1.0 / n - sy * 1.0 / n * (sy * 1.0 / n)
        if vx <= 0 or vy <= 0:
            continue
        r = cov / np.sqrt(vx * vy)
        keys.append(row[key_col])
        ns.append(n)
        rs.append(int(np.floor(1000000 * r)))
    return pa.table(
        {
            key_col: pa.array(keys, pa.string()),
            "n": pa.array(ns, pa.int64()),
            "r_micro": pa.array(rs, pa.int64()),
        }
    )


def _daily_counts(
    ds: ray.data.Dataset, *, ts_col: str, key_col: str
) -> "pd.DataFrame":
    """Shared calendar-bounded (key, epoch-day, n) fold for the daily
    time-series detectors (:func:`autocorr_daily`, :func:`cusum_daily`)
    — one place owns the day-bucketing rule."""
    import pandas as pd  # noqa: F401 (return type)

    def _days(batch: pa.Table) -> pa.Table:
        days = (
            batch.column(ts_col)
            .to_numpy(zero_copy_only=False)
            .astype("datetime64[D]")
            .astype(np.int64)
        )
        return pa.table({"k": batch.column(key_col).cast(pa.string()), "day": pa.array(days, pa.int64())})

    from dots_ocr_ray.util import bucket_keyed_fold

    return (
        bucket_keyed_fold(
            ds.select_columns([key_col, ts_col]).map_batches(_days, batch_format="pyarrow"),
            ["k", "day"],
            {"n": ("count", None)},
        )
        .to_pandas()
        .sort_values(["k", "day"])
        .reset_index(drop=True)
    )


def autocorr_daily(
    ds: ray.data.Dataset,
    *,
    ts_col: str,
    key_col: str,
    lags: tuple[int, ...] = (1, 7),
) -> pa.Table:
    """Per-key lag-k autocorrelation of the DAILY event-count series —
    the seasonality probe (lag 1 = day-to-day persistence, lag 7 =
    weekly rhythm) a crawl scheduler reads before smoothing traffic.

    Shape: one bounded exchange folds (key, day, n) partials (pyarrow
    group_by per batch — exchange ∝ keys × days, calendar-bounded);
    the driver pairs each day with day+k (missing days drop out, a
    self-join semantics the SQL oracle mirrors literally) and computes
    Pearson r from EXACT int64 sufficient stats with the same
    divide-by-n-first closed form as :func:`pearson_by_key`,
    micro-floored.  Zero-variance or <2-pair series are dropped."""
    daily = _daily_counts(ds, ts_col=ts_col, key_col=key_col)
    keys_out, lags_out, ns_out, rs_out = [], [], [], []
    for key, grp in daily.groupby("k"):
        series = dict(zip(grp["day"].astype(int), grp["n"].astype(int)))
        for lag in lags:
            xs, ys = [], []
            for day, x in series.items():
                y = series.get(day + lag)
                if y is not None:
                    xs.append(x)
                    ys.append(y)
            n = len(xs)
            if n < 2:
                continue
            sx, sy = sum(xs), sum(ys)
            sxx = sum(v * v for v in xs)
            syy = sum(v * v for v in ys)
            sxy = sum(a * b for a, b in zip(xs, ys))
            vx = sxx * 1.0 / n - sx * 1.0 / n * (sx * 1.0 / n)
            vy = syy * 1.0 / n - sy * 1.0 / n * (sy * 1.0 / n)
            if vx <= 0 or vy <= 0:
                continue
            r = (sxy * 1.0 / n - sx * 1.0 / n * (sy * 1.0 / n)) / np.sqrt(vx * vy)
            keys_out.append(key)
            lags_out.append(lag)
            ns_out.append(n)
            rs_out.append(int(np.floor(1000000 * r)))
    return pa.table(
        {
            "key": pa.array(keys_out, pa.string()),
            "lag": pa.array(lags_out, pa.int64()),
            "n_pairs": pa.array(ns_out, pa.int64()),
            "r_micro": pa.array(rs_out, pa.int64()),
        }
    )


def ks_two_sample(
    ds: ray.data.Dataset,
    *,
    value_col: str,
    group_col: str,
    group_a: str,
) -> pa.Table:
    """Kolmogorov–Smirnov two-sample statistic between one group and
    the rest — the distribution-shift detector that sees SHAPE changes
    (bimodality, tail growth) a mean/variance test misses.

    Shape: same bounded per-floored-value count partials as
    :func:`mann_whitney_u` (exchange ∝ distinct values); the driver
    computes the ECDF gap in CROSS-MULTIPLIED integer units —
    ``D2 = max |cumA·nB − cumB·nA|`` — so the supremum is exact, then
    one micro-floored division ``D2 / (nA·1.0·nB)`` mirrored by the
    SQL oracle's window-cumsum form.  Integer-exact while
    nA·nB < 2⁶³ (~3·10⁹ rows per side)."""
    def _floored(batch: pa.Table) -> pa.Table:
        vals = np.floor(
            batch.column(value_col).to_numpy(zero_copy_only=False).astype(np.float64)
        ).astype(np.int64)
        # a null group is not group_a (the oracle's CASE WHEN)
        grp = pc.fill_null(pc.equal(batch.column(group_col), group_a), False)
        return pa.table({"val": pa.array(vals, pa.int64()), "is_a": grp.cast(pa.int64())})

    from dots_ocr_ray.util import bucket_keyed_fold

    folded = (
        bucket_keyed_fold(
            ds.select_columns([value_col, group_col]).map_batches(_floored, batch_format="pyarrow"),
            "val",
            {"ca": ("sum", "is_a"), "n": ("count", None)},
        )
        .to_pandas()
        .sort_values("val")
        .reset_index(drop=True)
    )
    folded["cb"] = folded["n"] - folded["ca"]
    na = int(folded["ca"].sum()) if len(folded) else 0
    nb = int(folded["cb"].sum()) if len(folded) else 0
    if na == 0 or nb == 0:
        # one side empty (absent group label / empty input): there is
        # no two-sample comparison to make — return the empty result
        return pa.table(
            {
                "n_a": pa.array([], pa.int64()),
                "n_b": pa.array([], pa.int64()),
                "d2": pa.array([], pa.int64()),
                "ks_micro": pa.array([], pa.int64()),
            }
        )
    cum_a = folded["ca"].cumsum().astype(int)
    cum_b = folded["cb"].cumsum().astype(int)
    d2 = int((cum_a * nb - cum_b * na).abs().max())
    return pa.table(
        {
            "n_a": pa.array([na], pa.int64()),
            "n_b": pa.array([nb], pa.int64()),
            "d2": pa.array([d2], pa.int64()),
            "ks_micro": pa.array(
                [int(np.floor(1000000 * (d2 / (na * 1.0 * nb))))], pa.int64()
            ),
        }
    )


def cusum_daily(
    ds: ray.data.Dataset,
    *,
    ts_col: str,
    key_col: str,
    drift_micro: int | None = None,
    threshold_mult_micro: int = 3_000_000,
) -> pa.Table:
    """One-sided upper CUSUM change-point detection over each key's
    DAILY count series — "which event types ramped, and when" — using
    the prefix-minimum identity ``S_t = cum_t − min_{j≤t} cum_j``
    (the recursive ``max(0, S+x−k)`` unrolled), so the whole detector
    is window arithmetic the SQL oracle mirrors with cumulative sums.

    All in exact MICRO-integer units: the reference value k defaults
    to each key's own mean daily count (``floor(1e6·total // n_days``
    integer division) and the alarm threshold to ``mult × k``.
    Shape: one calendar-bounded (key, day, n) fold; per-key driver
    arithmetic over its day list.  Missing days count as 0 — a silent
    day pulls the statistic DOWN, which is the operationally right
    reading for traffic ramps."""
    daily = _daily_counts(ds, ts_col=ts_col, key_col=key_col)
    keys, s_max, alarm_day, kvals = [], [], [], []
    for key, grp in daily.groupby("k"):
        grp = grp.sort_values("day")
        d0, d1 = int(grp["day"].min()), int(grp["day"].max())
        counts = dict(zip(grp["day"].astype(int), grp["n"].astype(int)))
        n_days = d1 - d0 + 1
        total = int(grp["n"].sum())
        k = (
            drift_micro
            if drift_micro is not None
            else 1000000 * total // n_days
        )
        h = threshold_mult_micro * k // 1000000
        cum = 0
        run_min = 0
        best = 0
        first_alarm = -1
        for day in range(d0, d1 + 1):
            cum += 1000000 * counts.get(day, 0) - k
            # min over cum_0..cum_t with cum_0 = 0 → s = max(0, s+x−k)
            if cum < run_min:
                run_min = cum
            s = cum - run_min
            if s > best:
                best = s
            if first_alarm < 0 and s >= h:
                first_alarm = day
        keys.append(key)
        s_max.append(best)
        alarm_day.append(first_alarm)
        kvals.append(k)
    return pa.table(
        {
            "key": pa.array(keys, pa.string()),
            "k_micro": pa.array(kvals, pa.int64()),
            "s_max_micro": pa.array(s_max, pa.int64()),
            "first_alarm_day": pa.array(alarm_day, pa.int64()),
        }
    )


def neyman_allocation(
    ds: ray.data.Dataset,
    *,
    group_col: str,
    value_col: str,
    total_n: int,
) -> pa.Table:
    """Neyman-optimal stratified sample allocation — how many docs to
    sample from each stratum so a fixed labeling/eval budget minimizes
    the estimator variance: ``n_h ∝ N_h · S_h`` (stratum size × spread).

    Shape: one bounded keyed fold of per-stratum int64 sufficient stats
    (n, Σx, Σx² of the floored values); the driver computes each
    stratum weight ``floor(1e6 · n·sqrt(var))`` (ONE quantization —
    after it every step is integer arithmetic, so no float sum ever
    crosses groups), then splits ``total_n`` by largest-remainder:
    base ``total·w // Σw`` plus one extra for the largest
    ``total·w % Σw`` (ties to the smaller group key), mirrored by the
    SQL oracle's HUGEINT window form."""
    from dots_ocr_ray.util import bucket_keyed_fold

    def _floored(batch: pa.Table) -> pa.Table:
        x = np.floor(
            batch.column(value_col).to_numpy(zero_copy_only=False).astype(np.float64)
        ).astype(np.int64)
        return pa.table({group_col: batch.column(group_col).cast(pa.string()), "x": x, "xx": x * x})

    folded = (
        bucket_keyed_fold(
            ds.select_columns([group_col, value_col]).map_batches(_floored, batch_format="pyarrow"),
            group_col,
            {"n": ("count", None), "sx": ("sum", "x"), "sxx": ("sum", "xx")},
        )
        .to_pandas()
        .sort_values(group_col)
        .reset_index(drop=True)
    )
    keys, ns, ws = [], [], []
    for _, row in folded.iterrows():
        n, sx, sxx = int(row["n"]), int(row["sx"]), int(row["sxx"])
        vx = sxx * 1.0 / n - sx * 1.0 / n * (sx * 1.0 / n)
        w = int(np.floor(1000000 * (n * np.sqrt(vx)))) if vx > 0 else 0
        keys.append(row[group_col])
        ns.append(n)
        ws.append(w)
    sw = sum(ws)
    if sw == 0:
        return pa.table(
            {
                group_col: pa.array(keys, pa.string()),
                "stratum_n": pa.array(ns, pa.int64()),
                "w_micro": pa.array(ws, pa.int64()),
                "alloc": pa.array([0] * len(keys), pa.int64()),
            }
        )
    base = [total_n * w // sw for w in ws]
    rem = [total_n * w % sw for w in ws]
    left = total_n - sum(base)
    order = sorted(range(len(keys)), key=lambda i: (-rem[i], keys[i]))
    alloc = list(base)
    for i in order[:left]:
        alloc[i] += 1
    return pa.table(
        {
            group_col: pa.array(keys, pa.string()),
            "stratum_n": pa.array(ns, pa.int64()),
            "w_micro": pa.array(ws, pa.int64()),
            "alloc": pa.array(alloc, pa.int64()),
        }
    )


def weighted_median_by_key(
    ds: ray.data.Dataset,
    *,
    key_col: str,
    value_col: str,
    weight_col: str,
) -> pa.Table:
    """Per-group WEIGHTED median over a bounded-cardinality value
    column (e.g. the revenue-weighted median order quantity): the
    robust center that answers "where does the money sit" rather than
    "where do the rows sit".

    Shape: one bounded (key, value, Σweight) fold (values floored to
    integer units, weights to cents); the median is the smallest value
    whose doubled cumulative weight reaches the total
    (``2·cum ≥ W``) — all-integer, mirrored by the SQL oracle's
    window-cumsum form."""
    def _floored(batch: pa.Table) -> pa.Table:
        vals = np.floor(
            batch.column(value_col).to_numpy(zero_copy_only=False).astype(np.float64)
        ).astype(np.int64)
        w = np.round(
            batch.column(weight_col).to_numpy(zero_copy_only=False).astype(np.float64)
            * 100
        ).astype(np.int64)
        return pa.table({"k": batch.column(key_col).cast(pa.string()), "val": vals, "w": w})

    from dots_ocr_ray.util import bucket_keyed_fold

    folded = (
        bucket_keyed_fold(
            ds.select_columns([key_col, value_col, weight_col]).map_batches(_floored, batch_format="pyarrow"),
            ["k", "val"],
            {"w": ("sum", "w")},
        )
        .to_pandas()
        .sort_values(["k", "val"])
    )
    keys, medians, totals = [], [], []
    for key, grp in folded.groupby("k", sort=True):
        total = int(grp["w"].sum())
        if total <= 0:
            continue
        cum = grp["w"].cumsum()
        med = int(grp.loc[(2 * cum >= total).idxmax(), "val"])
        keys.append(key)
        medians.append(med)
        totals.append(total)
    return pa.table(
        {
            key_col: pa.array(keys, pa.string()),
            "wmedian": pa.array(medians, pa.int64()),
            "total_weight_cents": pa.array(totals, pa.int64()),
        }
    )


def theil_index(
    ds: ray.data.Dataset,
    *,
    key_col: str,
) -> pa.Table:
    """Theil T inequality index of the per-key row-count distribution
    — the decomposable concentration measure ("how unevenly is the
    corpus spread over hosts") that complements the Gini the repo
    already ships.

    Quantized for engine-independent exactness (the entropy trick):
    each key's term ``floor(1e6 · (n_h/X)·ln(n_h·H/X))`` is an int64,
    so the final sum is order-independent; mirrored literally by the
    SQL oracle.  One bounded (key, n) fold."""
    from dots_ocr_ray.util import bucket_keyed_fold

    folded = (
        bucket_keyed_fold(ds.select_columns([key_col]), key_col, {"n": ("count", None)})
        .to_pandas()
        .sort_values(key_col)
    )
    total = int(folded["n"].sum())
    h = len(folded)
    if total == 0 or h == 0:
        return pa.table(
            {
                "n_keys": pa.array([], pa.int64()),
                "total": pa.array([], pa.int64()),
                "theil_micro": pa.array([], pa.int64()),
            }
        )
    terms = 0
    for n in folded["n"].astype(int):
        terms += int(np.floor(1e6 * ((n * 1.0 / total) * np.log(n * 1.0 * h / total))))
    return pa.table(
        {
            "n_keys": pa.array([h], pa.int64()),
            "total": pa.array([total], pa.int64()),
            "theil_micro": pa.array([terms], pa.int64()),
        }
    )


def fano_daily(
    ds: ray.data.Dataset,
    *,
    ts_col: str,
    key_col: str,
) -> pa.Table:
    """Per-key Fano factor (index of dispersion, var/mean) of the
    ZERO-FILLED daily count series — burstiness in one number: ≈1 is
    Poisson-like arrivals, ≫1 is bursty crawl traffic.

    Zero days need no generate_series: they add nothing to Σn or Σn²
    and the day span ``d1 − d0 + 1`` is the true series length, so the
    whole statistic folds from the observed (key, day, n) rows
    (:func:`_daily_counts`).  Population variance, divide-first,
    micro-floored, operand order mirrored by the SQL oracle."""
    daily = _daily_counts(ds, ts_col=ts_col, key_col=key_col)
    keys, spans, fanos = [], [], []
    for key, grp in daily.groupby("k", sort=True):
        d0, d1 = int(grp["day"].min()), int(grp["day"].max())
        nd = d1 - d0 + 1
        s1 = int(grp["n"].sum())
        s2 = int((grp["n"].astype(int) ** 2).sum())
        if s1 == 0:
            continue
        mean = s1 * 1.0 / nd
        var = s2 * 1.0 / nd - mean * mean
        keys.append(key)
        spans.append(nd)
        fanos.append(int(np.floor(1000000 * (var / mean))))
    return pa.table(
        {
            "key": pa.array(keys, pa.string()),
            "n_days": pa.array(spans, pa.int64()),
            "fano_micro": pa.array(fanos, pa.int64()),
        }
    )


def ewma_daily(
    ds: ray.data.Dataset,
    *,
    ts_col: str,
    key_col: str,
    horizon: int = 6,
) -> pa.Table:
    """Truncated exponential moving average of each key's zero-filled
    DAILY count series — the smoothed-traffic signal recrawl
    schedulers threshold on.  α = 1/2 truncated at ``horizon`` lags
    keeps everything integer-exact: weight of lag j is 2^(horizon−j),
    so ``ewma_micro(t) = floor(1e6 · Σ_j c(t−j)·2^(horizon−j) /
    (2^(horizon+1) − 1))`` with c = 0 outside the key's observed span
    (calendar zero-fill, same convention as :func:`cusum_daily`).

    Shape: the shared calendar-bounded (key, day, n) fold, then a
    vectorized (horizon+1)-tap shift-and-add per key — no window
    exchange, no recursion."""
    daily = _daily_counts(ds, ts_col=ts_col, key_col=key_col)
    denom = (1 << (horizon + 1)) - 1
    out_k: list[str] = []
    out_day: list[int] = []
    out_v: list[int] = []
    for key, grp in daily.groupby("k"):
        d0, d1 = int(grp["day"].min()), int(grp["day"].max())
        series = np.zeros(d1 - d0 + 1, dtype=np.int64)
        series[grp["day"].astype(int).to_numpy() - d0] = grp["n"].astype(int).to_numpy()
        num = np.zeros_like(series)
        for j in range(horizon + 1):
            w = 1 << (horizon - j)
            if j == 0:
                num += w * series
            else:
                num[j:] += w * series[:-j]
        vals = (1_000_000 * num) // denom
        out_k.extend([key] * len(series))
        out_day.extend(range(d0, d1 + 1))
        out_v.extend(int(v) for v in vals)
    return pa.table(
        {
            "key": pa.array(out_k, pa.string()),
            "day": pa.array(out_day, pa.int64()),
            "ewma_micro": pa.array(out_v, pa.int64()),
        }
    )


def ucb_scores(
    ds: ray.data.Dataset,
    *,
    key_col: str,
    value_col: str,
) -> pa.Table:
    """UCB1 bandit scores per key (Auer et al. 2002) — the
    explore/exploit priority a crawl scheduler assigns to sources:
    ``ucb = mean_reward + sqrt(2·ln(N)/n)``.

    Exactness contract: rewards quantize to cents (floor(100·x),
    non-negative inputs) so per-key (n, Σcents) partials are exact
    int64; the driver computes ``mean_micro = (1e6·Σ)//(100·n)``
    integer-exactly and the exploration bonus with ONE float
    expression ``floor(1e6·sqrt((2·ln(N))/n))`` mirrored literally by
    the SQL oracle.  One bounded keyed fold."""
    import math

    from dots_ocr_ray.util import bucket_keyed_fold

    def _cents(batch: pa.Table) -> pa.Table:
        cents = np.floor(
            100.0 * batch.column(value_col).to_numpy(zero_copy_only=False)
        ).astype(np.int64)
        return pa.table({"key": batch.column(key_col), "cents": cents})

    folded = bucket_keyed_fold(
        ds.select_columns([key_col, value_col]).map_batches(_cents, batch_format="pyarrow"),
        "key",
        {"n": ("count", None), "sx": ("sum", "cents")},
    ).to_pandas()
    total_n = int(folded["n"].sum())
    keys, ns, means, bonuses, ucbs = [], [], [], [], []
    for _, r in folded.sort_values("key").iterrows():
        n = int(r["n"])
        sx = int(r["sx"])
        mean_micro = (1_000_000 * sx) // (100 * n)
        bonus_micro = int(math.floor(1_000_000 * math.sqrt((2.0 * math.log(total_n)) / n)))
        keys.append(r["key"])
        ns.append(n)
        means.append(mean_micro)
        bonuses.append(bonus_micro)
        ucbs.append(mean_micro + bonus_micro)
    return pa.table(
        {
            "key": pa.array(keys, pa.string()),
            "n": pa.array(ns, pa.int64()),
            "mean_micro": pa.array(means, pa.int64()),
            "bonus_micro": pa.array(bonuses, pa.int64()),
            "ucb_micro": pa.array(ucbs, pa.int64()),
        }
    )


def fd_violations(
    ds: ray.data.Dataset,
    *,
    det_col: str,
    dep_col: str,
) -> pa.Table:
    """Functional-dependency audit (profiling: does ``det_col →
    dep_col`` hold?): the number of determinant keys mapping to more
    than one distinct dependent value, plus total distinct keys.

    Scale shape: ONE :func:`~dots_ocr_ray.util.bucket_distinct_counts`
    (distinct dependents per determinant, one bucket exchange), then a
    map that leaves two scalars per block for the driver.  The (det,
    dep) pairs stay two columns, so any int64 or string ids count
    exactly; a null dependent is skipped, as COUNT(DISTINCT) does."""
    from dots_ocr_ray.util import bucket_distinct_counts

    def _totals(batch: pa.Table) -> pa.Table:
        n = batch.column("n").to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "n_keys": pa.array([len(n)], type=pa.int64()),
                "n_violating": pa.array([int((n > 1).sum())], type=pa.int64()),
            }
        )

    folded = (
        bucket_distinct_counts(ds.select_columns([det_col, dep_col]), det_col, dep_col, "n")
        .map_batches(_totals, batch_format="pyarrow")
        .to_pandas()
    )
    return pa.table(
        {
            "det": pa.array([det_col], type=pa.string()),
            "dep": pa.array([dep_col], type=pa.string()),
            "n_keys": pa.array([int(folded["n_keys"].sum())], type=pa.int64()),
            "n_violating": pa.array([int(folded["n_violating"].sum())], type=pa.int64()),
        }
    )


def ri_orphans(
    child_ds: ray.data.Dataset,
    parent_ds: ray.data.Dataset,
    *,
    child_key: str,
    parent_key: str,
    relation: str,
) -> pa.Table:
    """Referential-integrity audit: how many child rows point at a
    missing parent key (the orphan count a pipeline checks before
    trusting a join).  Orphans come from the exact anti-join
    (:func:`~dots_ocr_ray.pipelines.dedup.anti_join_ids` — broadcast
    sorted ids when they fit, one keyed exchange above), then ONE
    count aggregate; the driver sees three scalars."""
    from dots_ocr_ray.pipelines.dedup import anti_join_ids

    n_child = child_ds.count()
    orphans = anti_join_ids(
        child_ds.select_columns([child_key]),
        parent_ds.select_columns([parent_key]),
        id_col=child_key,
        id_cols=(parent_key,),
    )
    n_orphans = orphans.count()
    return pa.table(
        {
            "relation": pa.array([relation], type=pa.string()),
            "n_child_rows": pa.array([int(n_child)], type=pa.int64()),
            "n_orphans": pa.array([int(n_orphans)], type=pa.int64()),
        }
    )


# --- privacy: k-anonymity / l-diversity audit --------------------------------------

def k_anonymity_audit(
    ds: ray.data.Dataset,
    *,
    qi_cols: list[str],
    sensitive_col: str,
    k: int = 5,
) -> pa.Table:
    """Privacy-risk audit before a data release: group rows by the
    QUASI-IDENTIFIER columns and report one row
    ``(n_groups, n_small_groups, rows_at_risk, min_group_size,
    min_l_diversity)`` — a group smaller than ``k`` re-identifies its
    members (k-anonymity), and a group whose ``sensitive_col`` takes
    few distinct values leaks the attribute even at size ≥ k
    (l-diversity).

    Scale shape: per-batch partials carry (qi-key, n) counts AND
    distinct (qi-key, sensitive) pairs; ONE coarse 256-way exchange on
    hash(qi-key) co-locates each group's partials; the per-bucket fold
    sums counts and counts sensitive-pair boundaries vectorized
    (lexsort + run-length), then ships FIVE scalars — driver state is
    O(buckets) regardless of group cardinality."""
    import numpy as np

    from dots_ocr_ray.util import bucket_exchange

    def _partials(batch: pa.Table) -> pa.Table:
        import pandas as pd

        cols = {c: batch.column(c).to_pylist() for c in qi_cols}
        key = pd.Series(
            ["\x1f".join("" if v is None else str(v) for v in row) for row in zip(*cols.values())]
        )
        sens = pd.Series(
            ["" if v is None else str(v) for v in batch.column(sensitive_col).to_pylist()]
        )
        df = pd.DataFrame({"key": key, "sens": sens})
        cnt = df.groupby("key", sort=False).size().reset_index(name="n")
        pairs = df.drop_duplicates()
        n_tbl = pa.table(
            {
                "key": pa.array(cnt["key"], type=pa.string()),
                "sens": pa.array([""] * len(cnt), type=pa.string()),
                "n": pa.array(cnt["n"].astype("int64"), type=pa.int64()),
                "kind": pa.array(np.zeros(len(cnt), dtype=np.int8), type=pa.int8()),
            }
        )
        p_tbl = pa.table(
            {
                "key": pa.array(pairs["key"], type=pa.string()),
                "sens": pa.array(pairs["sens"], type=pa.string()),
                "n": pa.array(np.zeros(len(pairs), dtype=np.int64), type=pa.int64()),
                "kind": pa.array(np.ones(len(pairs), dtype=np.int8), type=pa.int8()),
            }
        )
        return pa.concat_tables([n_tbl, p_tbl])

    def _fold(group: pa.Table) -> pa.Table:
        import pandas as pd

        kind = group.column("kind").to_numpy(zero_copy_only=False)
        cnt_part = group.filter(pa.array(kind == 0))
        pair_part = group.filter(pa.array(kind == 1))
        # exact per-group sizes
        cdf = pd.DataFrame(
            {
                "key": cnt_part.column("key").to_pylist(),
                "n": cnt_part.column("n").to_numpy(zero_copy_only=False),
            }
        )
        sizes = cdf.groupby("key", sort=True)["n"].sum()
        # exact per-group distinct sensitive values
        pdf = pd.DataFrame(
            {
                "key": pair_part.column("key").to_pylist(),
                "sens": pair_part.column("sens").to_pylist(),
            }
        ).drop_duplicates()
        ldiv = pdf.groupby("key", sort=True)["sens"].nunique()
        n = sizes.to_numpy()
        l = ldiv.reindex(sizes.index).fillna(0).to_numpy().astype(np.int64)
        small = n < k
        return pa.table(
            {
                "n_groups": pa.array([len(n)], type=pa.int64()),
                "n_small_groups": pa.array([int(small.sum())], type=pa.int64()),
                "rows_at_risk": pa.array([int(n[small].sum())], type=pa.int64()),
                "min_group_size": pa.array(
                    [int(n.min()) if len(n) else 0], type=pa.int64()
                ),
                "min_l_diversity": pa.array(
                    [int(l.min()) if len(l) else 0], type=pa.int64()
                ),
            }
        )

    folds = bucket_exchange(
        ds.map_batches(_partials, batch_format="pyarrow"),
        "key",
        _fold,
        num_buckets=256,
        rows_per_block=65536,
    )
    n_groups = n_small = at_risk = 0
    min_g = min_l = None
    for r in folds.take_all():
        n_groups += int(r["n_groups"])
        n_small += int(r["n_small_groups"])
        at_risk += int(r["rows_at_risk"])
        if int(r["n_groups"]):
            g = int(r["min_group_size"])
            lv = int(r["min_l_diversity"])
            min_g = g if min_g is None else min(min_g, g)
            min_l = lv if min_l is None else min(min_l, lv)
    return pa.table(
        {
            "n_groups": pa.array([n_groups], type=pa.int64()),
            "n_small_groups": pa.array([n_small], type=pa.int64()),
            "rows_at_risk": pa.array([at_risk], type=pa.int64()),
            "min_group_size": pa.array([min_g or 0], type=pa.int64()),
            "min_l_diversity": pa.array([min_l or 0], type=pa.int64()),
        }
    )
