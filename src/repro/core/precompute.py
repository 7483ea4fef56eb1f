"""Pipeline module (a): per-explanation aggregated series via Spark.

The data cube the paper assumes ("data cube is typically maintained in
memory") is computed here as one Catalyst aggregation, built with
``DataFrame.groupingSets``; in SQL terms

    SELECT T, A_1..A_k, grouping(A_i).., f(M)
    FROM R GROUP BY GROUPING SETS ((T), (T,A_1), .., (T,A_i,A_j), ..)

with one grouping set per attribute subset of size 0..beta_max. The size-0
set yields the overall aggregated time series ts(R); every other row belongs
to one candidate explanation's series ts(sigma_E R). The result is pivoted to
an eps x n matrix for the downstream numpy/DP stages; the support filter runs
on that matrix (:mod:`repro.core.filtering`). ``series_matrix_pandas`` is the
pure-pandas mirror used by driver-side jobs and as the cube's test oracle.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import reduce
from typing import List, Optional, Sequence, Tuple

import numpy as np
import pandas as pd
from pyspark.sql import Column, DataFrame
from pyspark.sql import functions as F
from pyspark.sql.types import IntegralType

from repro.core.types import Explanation

VAL = "__val"
TIME = "__t"


def _gcol(attr: str) -> str:
    return f"__g_{attr}"


def _attr_subsets(attrs: Sequence[str], beta_max: int) -> List[Tuple[str, ...]]:
    """All explain-by subsets of size 0..beta_max (the grouping sets)."""
    out: List[Tuple[str, ...]] = [()]
    for r in range(1, min(beta_max, len(attrs)) + 1):
        out.extend(itertools.combinations(attrs, r))
    return out


def _q(name: str) -> str:
    """Backtick-quote a column name so spaces, dashes and dots stay literal."""
    return "`" + name.replace("`", "``") + "`"


def grouping_sets_agg(
    df: DataFrame,
    attrs: Sequence[str],
    measure_expr: str,
    agg: str = "sum",
    beta_max: int = 3,
    time_col: Optional[str] = None,
) -> DataFrame:
    """One aggregation row per (grouping set, group) — the candidate cube.

    Output columns: [TIME if time_col] + attrs + grouping flags + VAL. The
    grouping flags distinguish "attribute not in this grouping set" (1) from a
    genuine NULL value (0 with null), so explanations over NULL-able data stay
    well-defined.

    The input is read through ``coalesce(defaultParallelism)``: one task per
    core. Coalesce is narrow (no shuffle; an input with fewer partitions is
    left as it is), and partial aggregation shrinks each task's rows to its
    group count before the exchange, so a many-partition input no longer pays
    Spark's per-task cost on every partition.
    """
    if agg not in ("sum", "count"):
        raise ValueError(f"unsupported aggregate {agg!r} (decomposable only)")
    prefix = [F.col(_q(time_col))] if time_col else []
    cols = [F.col(_q(a)) for a in attrs]
    sets = [
        prefix + [F.col(_q(a)) for a in sub] for sub in _attr_subsets(attrs, beta_max)
    ]
    fn = F.sum if agg == "sum" else F.count
    df = df.coalesce(df.sparkSession.sparkContext.defaultParallelism)
    out = df.groupingSets(sets, *prefix, *cols).agg(
        *[F.grouping(c).alias(_gcol(a)) for a, c in zip(attrs, cols)],
        fn(F.expr(measure_expr)).alias(VAL),
    )
    return out.withColumnRenamed(time_col, TIME) if time_col else out


def order_col(attrs: Sequence[str]) -> Column:
    """Explanation order of a cube row = number of concrete attributes."""
    return reduce(
        lambda a, b: a + b, [1 - F.col(_q(_gcol(a))) for a in attrs], F.lit(0)
    )


def candidate_series(
    df: DataFrame,
    time_col: str,
    attrs: Sequence[str],
    measure_expr: str,
    agg: str = "sum",
    beta_max: int = 3,
) -> DataFrame:
    """Per-explanation + overall aggregated time series, sorted by time."""
    cube = grouping_sets_agg(
        df, attrs, measure_expr, agg, beta_max, time_col=time_col
    )
    return cube.withColumn("__order", order_col(attrs)).orderBy(TIME)


def to_pandas(df: DataFrame) -> pd.DataFrame:
    """``df.toPandas()`` with integer columns kept integer.

    ``toPandas`` turns an integer column that holds a NULL into float64, and
    every attribute column of a cube holds NULLs (the grouping sets without
    that attribute), so its slices would be labelled ``h=1.0``. Such a column
    comes back as pandas' nullable ``Int64``.
    """
    pdf = df.toPandas()
    for f in df.schema.fields:
        if isinstance(f.dataType, IntegralType) and pdf[f.name].dtype.kind == "f":
            pdf[f.name] = pdf[f.name].astype("Int64")
    return pdf


def _labels(attrs: Sequence[str], keys: pd.Index) -> List[Explanation]:
    """One explanation per pivot row key over ``attrs``; a NULL key (None,
    NaN or pandas' NA) is the value None."""
    out = []
    for key in keys:
        key_t = key if isinstance(key, tuple) else (key,)
        preds = ((a, None if pd.isna(v) else v) for a, v in zip(attrs, key_t))
        out.append(Explanation(tuple(preds)))
    return out


@dataclass
class SeriesMatrix:
    """Pivoted cube: one row of ``S`` per candidate explanation."""

    S: np.ndarray  # (eps, n)
    labels: List[Explanation]
    total: np.ndarray  # (n,)
    times: List  # sorted distinct time values
    attrs: Tuple[str, ...]

    @property
    def n(self) -> int:
        return len(self.times)

    @property
    def epsilon(self) -> int:
        return len(self.labels)


def to_matrix(pdf: pd.DataFrame, attrs: Sequence[str]) -> SeriesMatrix:
    """Pivot collected cube rows (pandas) into a SeriesMatrix.

    The time axis is the sorted distinct time values of the rows: a time
    value with no rows at all is absent from the axis, not a zero column.
    Missing (explanation, t) combinations mean "no rows in that slice at t"
    and become 0, which is exact for SUM/COUNT. A NULL VAL (SUM over a slice
    whose measure is NULL in every row) also becomes 0, so the slice stays a
    candidate, as in :func:`series_matrix_pandas` and for COUNT. Collect the
    rows with :func:`to_pandas`, so integer keys label slices as integers.
    """
    pdf = pdf.fillna({VAL: 0.0})
    gcols = [_gcol(a) for a in attrs]
    times = sorted(pdf[TIME].unique())
    t_index = {t: i for i, t in enumerate(times)}
    n = len(times)

    is_total = (
        reduce(lambda a, b: a & b, [pdf[g] == 1 for g in gcols])
        if gcols
        else pd.Series(True, index=pdf.index)
    )
    total = np.zeros(n)
    trows = pdf[is_total]
    total[[t_index[t] for t in trows[TIME]]] = trows[VAL].to_numpy(dtype=float)

    labels: List[Explanation] = []
    mats: List[np.ndarray] = []
    cand = pdf[~is_total]
    for pattern, sub in cand.groupby(gcols, sort=True):
        if not isinstance(pattern, tuple):
            pattern = (pattern,)
        sel = [a for a, g in zip(attrs, pattern) if g == 0]
        # groupby, not pivot_table: pivot_table drops NULL keys, and with
        # dropna=False it fills in the cartesian product of the key levels.
        piv = (
            sub.groupby([*sel, TIME], dropna=False)[VAL]
            .first()
            .unstack(TIME, fill_value=0.0)
            .reindex(columns=times, fill_value=0.0)
        )
        labels += _labels(sel, piv.index)
        mats.append(piv.to_numpy(dtype=float))
    S = np.vstack(mats) if mats else np.zeros((0, n))
    return SeriesMatrix(S=S, labels=labels, total=total, times=list(times), attrs=tuple(attrs))


def series_matrix_pandas(
    pdf: pd.DataFrame,
    time_col: str,
    attrs: Sequence[str],
    measure_col: str,
    agg: str = "sum",
    beta_max: int = 3,
) -> SeriesMatrix:
    """Pure-pandas mirror of the Spark cube, for driver-side jobs/tests.

    Semantically identical to :func:`series_matrix` (asserted by tests);
    ``measure_col`` must be a concrete column (pre-compute derived measures).
    As there, the time axis is the sorted distinct time values: a time value
    with no rows is absent, not a zero column.
    """
    if agg not in ("sum", "count"):
        raise ValueError(f"unsupported aggregate {agg!r}")
    times = sorted(pdf[time_col].unique())
    t_index = {t: i for i, t in enumerate(times)}
    n = len(times)

    def agg_series(sub: pd.DataFrame) -> np.ndarray:
        g = sub.groupby(time_col)[measure_col]
        ser = g.sum() if agg == "sum" else g.count()
        out = np.zeros(n)
        out[[t_index[t] for t in ser.index]] = ser.to_numpy(dtype=float)
        return out

    total = agg_series(pdf)
    labels: List[Explanation] = []
    mats: List[np.ndarray] = []
    for sub_attrs in _attr_subsets(attrs, beta_max):
        if not sub_attrs:
            continue
        grp = pdf.groupby([time_col, *sub_attrs], dropna=False)[measure_col]
        ser = grp.sum() if agg == "sum" else grp.count()
        piv = ser.unstack(level=0).reindex(columns=times).fillna(0.0)
        labels += _labels(sub_attrs, piv.index)
        mats.append(piv.to_numpy(dtype=float))
    S = np.vstack(mats) if mats else np.zeros((0, n))
    return SeriesMatrix(
        S=S, labels=labels, total=total, times=list(times), attrs=tuple(attrs)
    )


def series_matrix(
    df: DataFrame,
    time_col: str,
    attrs: Sequence[str],
    measure_expr: str,
    agg: str = "sum",
    beta_max: int = 3,
) -> SeriesMatrix:
    """End-to-end module (a): Spark cube → matrix."""
    cand = candidate_series(df, time_col, attrs, measure_expr, agg, beta_max)
    pdf = to_pandas(
        cand.select(*[F.col(_q(c)) for c in (TIME, *attrs, *map(_gcol, attrs), VAL)])
    )
    return to_matrix(pdf, attrs)
