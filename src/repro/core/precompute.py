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
in-memory cube, used by driver-side jobs and as the Spark cube's test oracle.
Both cubes pivot through one binning kernel, :func:`_bin`, so they return
the same labels in the same order, and so the same candidate ids. The
in-memory path needs only numpy and pandas; pyspark is imported only by the
functions that run on Spark.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import reduce
from typing import TYPE_CHECKING, Iterable, List, Optional, Sequence, Tuple

import numpy as np
import pandas as pd

from repro.core.types import Explanation

if TYPE_CHECKING:
    from pyspark.sql import Column, DataFrame

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
    from pyspark.sql import functions as F

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
    from pyspark.sql import functions as F

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
    """Per-explanation + overall aggregated time series, sorted by time.

    The presentation view of the cube: :func:`grouping_sets_agg` plus an
    ``__order`` column (explanation order) and a global sort by time, for
    callers that read the rows themselves. :func:`series_matrix` does not go
    through it: ``to_matrix`` orders the time axis and the labels itself, so
    the sort (a range-partitioning exchange) and the extra column (one more
    analysis of the input's plan) would be spent for nothing there.
    """
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
    from pyspark.sql.types import IntegralType

    pdf = df.toPandas()
    for f in df.schema.fields:
        if isinstance(f.dataType, IntegralType) and pdf[f.name].dtype.kind == "f":
            pdf[f.name] = pdf[f.name].astype("Int64")
    return pdf


def _labels(attrs: Sequence[str], keys: Iterable) -> List[Explanation]:
    """One explanation per row key (a value, or a tuple over ``attrs``); a
    NULL key (None, NaN or pandas' NA) is the value None."""
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


def _bin(
    pdf: pd.DataFrame,
    time_col: str,
    attrs: Sequence[str],
    measure_col: str,
    agg: str,
    sets: Iterable[Tuple[Tuple[str, ...], object]],
) -> SeriesMatrix:
    """The binning kernel of both pivots: one block of S per ``(grouping
    set, rows)`` pair, in the order given, where ``rows`` indexes the set's
    rows of ``pdf``; the empty set's rows give ``total``.

    The time axis is the sorted distinct time values: a time value with no
    rows is absent, not a zero column, and a NULL time is a ``ValueError``.
    SUM adds the measure with NULL as 0, COUNT its non-NULL rows, so an
    all-NULL slice is a zero row. Each attribute is factorized once over all
    rows, in sorted order with NULL (None, NaN or NA) as the last code. A
    set's slices are the distinct code tuples of its attributes among its
    rows, in lexicographic order, so labels come out sorted by value with
    NULL last; its (slices x n) block is one ``bincount`` over
    ``slice * n + t``.
    """
    t, times = pd.factorize(pdf[time_col], sort=True)
    if (t < 0).any():
        raise ValueError(f"time column {time_col!r} holds NULL")
    n = len(times)
    val = pdf[measure_col].to_numpy(dtype=float, na_value=np.nan)
    null = np.isnan(val)
    w = np.where(null, 0.0, val) if agg == "sum" else (~null).astype(float)
    keys = {a: pd.factorize(pdf[a], sort=True, use_na_sentinel=False) for a in attrs}

    total = np.zeros(n)
    labels: List[Explanation] = []
    mats: List[np.ndarray] = []
    for sub, rows in sets:
        # Each row's slice id and each slice's codes, one attribute at a
        # time. Factorizing the key (sorted) re-densifies it after each
        # attribute, so it stays below (#slices so far) x (#values of the
        # attribute), and drops the codes no row of the set holds.
        row, sub_codes = 0, []
        for a in sub:
            codes, values = keys[a]
            k = len(values)
            row, key = pd.factorize(row * k + codes[rows], sort=True)
            sub_codes = [c[key // k] for c in sub_codes] + [key % k]
        g = len(sub_codes[0]) if sub else 1
        mat = np.bincount(row * n + t[rows], weights=w[rows], minlength=g * n).reshape(g, n)
        if not sub:
            total = mat[0]
            continue
        mats.append(mat)
        cols = [keys[a][1][col].tolist() for a, col in zip(sub, sub_codes)]
        labels += _labels(sub, zip(*cols))
    S = np.vstack(mats) if mats else np.zeros((0, n))
    return SeriesMatrix(S=S, labels=labels, total=total, times=times.tolist(), attrs=tuple(attrs))


def to_matrix(pdf: pd.DataFrame, attrs: Sequence[str]) -> SeriesMatrix:
    """Pivot collected cube rows (pandas) into a SeriesMatrix.

    The pivot of :func:`series_matrix_pandas`, through the same kernel
    :func:`_bin`, over rows that are already aggregated: the time axis, the
    labels and their order are that function's, and the result does not
    depend on the order of the rows. A row's grouping set is read from its
    flags, and the sets present are binned in :func:`_attr_subsets` order;
    the rows with every flag set are ``total``. Missing (explanation, t)
    combinations mean "no rows in that slice at t" and become 0, which is
    exact for SUM/COUNT. A NULL VAL (SUM over a slice whose measure is NULL
    in every row) also becomes 0, so the slice stays a candidate. Collect
    the rows with :func:`to_pandas`, so integer keys label slices as
    integers.
    """
    # Bit i of a row's mask is set when attrs[i] is in its grouping set
    # (flag 0). Spark groups by at most 64 columns, the time column
    # included, so the mask fits in 64 bits.
    inset = pdf[[_gcol(a) for a in attrs]].to_numpy() == 0
    bits = np.uint64(1) << np.arange(len(attrs), dtype=np.uint64)
    masks, row_set = np.unique(inset @ bits, return_inverse=True)
    members = [[i for i in range(len(attrs)) if m >> i & 1] for m in masks.tolist()]
    sets = [
        (tuple(attrs[i] for i in members[j]), np.flatnonzero(row_set == j))
        for j in sorted(range(len(masks)), key=lambda j: (len(members[j]), members[j]))
    ]
    return _bin(pdf, TIME, attrs, VAL, "sum", sets)


def series_matrix_pandas(
    pdf: pd.DataFrame,
    time_col: str,
    attrs: Sequence[str],
    measure_col: str,
    agg: str = "sum",
    beta_max: int = 3,
) -> SeriesMatrix:
    """In-memory cube: the Spark cube's semantics in numpy and pandas.

    Semantically identical to :func:`series_matrix`, labels and their order
    included (asserted by tests); ``measure_col`` must be a concrete column
    (pre-compute derived measures). :func:`_bin` bins every grouping set of
    size 0..beta_max over all rows, in :func:`_attr_subsets` order.
    """
    if agg not in ("sum", "count"):
        raise ValueError(f"unsupported aggregate {agg!r}")
    sets = ((sub, slice(None)) for sub in _attr_subsets(attrs, beta_max))
    return _bin(pdf, time_col, attrs, measure_col, agg, sets)


def series_matrix(
    df: DataFrame,
    time_col: str,
    attrs: Sequence[str],
    measure_expr: str,
    agg: str = "sum",
    beta_max: int = 3,
) -> SeriesMatrix:
    """End-to-end module (a): Spark cube → matrix.

    The cube of :func:`grouping_sets_agg` is collected as Spark builds it,
    in no row order and with no projection: ``to_matrix`` orders the time
    axis and the labels itself and reads its columns by name, so the sort
    and ``__order`` column of :func:`candidate_series` are not paid here.
    A NULL time value is a ``ValueError``, as in :func:`series_matrix_pandas`.
    """
    cube = grouping_sets_agg(df, attrs, measure_expr, agg, beta_max, time_col=time_col)
    pdf = to_pandas(cube)
    if pdf[TIME].isna().any():
        raise ValueError(f"time column {time_col!r} holds NULL")
    return to_matrix(pdf, attrs)
