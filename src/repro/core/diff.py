"""Two-relations diff (paper Sec. 3.1.1).

Given a test relation R_t and a control relation R_c, compute the
absolute-change difference score gamma(E) (Def. 3.2) and the change effect
tau(E) (Def. 3.3) for every candidate explanation of order <= beta_max. For
decomposable SUM/COUNT, removing E's records changes f(R_t) - f(R_c) by
exactly f(sigma_E R_t) - f(sigma_E R_c), so

    gamma(E) = | f(M, sigma_E R_t) - f(M, sigma_E R_c) |
    tau(E)   = sign( f(M, sigma_E R_t) - f(M, sigma_E R_c) )

That is the pipeline's own cube over a time axis of two points, control and
test. :func:`topm_for_relations` cubes each relation with
``grouping_sets_agg``, collects both cubes, pivots them with one
``to_matrix`` (control at time 0, test at time 1) and subtracts the two
columns on the driver; the Cascading Analysts DP then picks the top list.
:func:`two_relation_diff` computes the same diff as one Spark DataFrame (both
cubes, the control negated, summed per key); it is the DuckDB-checked
oracle of the fast path.
"""
from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from repro.core.cascading import topm_nonoverlapping
from repro.core.precompute import (
    TIME,
    VAL,
    _gcol,
    _q,
    grouping_sets_agg,
    order_col,
    to_matrix,
    to_pandas,
)
from repro.core.space import ExplanationSpace
from repro.core.types import Explanation


def _validate(agg: str, beta_max: int, m: Optional[int] = None) -> None:
    """Raise ``ValueError`` naming the first argument out of range, before
    any Spark job."""
    if agg not in ("sum", "count"):
        raise ValueError(f"agg must be 'sum' or 'count' (decomposable only), got {agg!r}")
    if beta_max < 1:
        raise ValueError(f"beta_max must be >= 1, got {beta_max}")
    if m is not None and m < 1:
        raise ValueError(f"m must be >= 1, got {m}")


def _signed_cube(test_df, control_df, attrs, measure_expr, agg, beta_max) -> DataFrame:
    """[attrs..., grouping flags..., VAL] with VAL = f(sigma_E R_t) - f(sigma_E R_c);
    a missing key or an all-NULL measure counts as 0 on its side."""
    keys = [F.col(_q(k)) for k in (*attrs, *map(_gcol, attrs))]

    def side(df: DataFrame, sign: int) -> DataFrame:
        cube = grouping_sets_agg(df, attrs, measure_expr, agg, beta_max)
        return cube.select(*keys, (F.coalesce(F.col(VAL), F.lit(0.0)) * sign).alias(VAL))

    both = side(test_df, 1).unionByName(side(control_df, -1))
    return both.groupBy(*keys).agg(F.sum(VAL).alias(VAL))


def two_relation_diff(
    test_df: DataFrame,
    control_df: DataFrame,
    attrs: Sequence[str],
    measure_expr: str,
    agg: str = "sum",
    beta_max: int = 3,
) -> DataFrame:
    """DataFrame of [attrs..., grouping flags..., gamma, tau, __order].

    Includes the order-0 row (the overall difference f(R_t) - f(R_c)) unless
    both relations are empty, which gives no rows.
    """
    _validate(agg, beta_max)
    d = _signed_cube(test_df, control_df, attrs, measure_expr, agg, beta_max)
    gamma, tau = F.abs(VAL), F.signum(VAL).cast("int")
    return d.withColumns({"gamma": gamma, "tau": tau, "__order": order_col(attrs)}).drop(VAL)


def _signed_diff(
    test_df, control_df, attrs, measure_expr, agg, beta_max
) -> Tuple[List[Explanation], np.ndarray, float]:
    """The candidate explanations, each one's f(sigma_E R_t) - f(sigma_E R_c),
    and the overall f(R_t) - f(R_c).

    A relation with no rows has no cube rows, so its time point is absent
    from the pivot and counts as a zero column; with both empty there are
    no candidates and the overall diff is 0.
    """
    sides = []
    for t, df in enumerate((control_df, test_df)):
        pdf = to_pandas(grouping_sets_agg(df, attrs, measure_expr, agg, beta_max))
        pdf[TIME] = t
        sides.append(pdf)
    sm = to_matrix(pd.concat(sides), attrs)
    # Rows: the candidates, then the overall; columns: control, test.
    both = np.zeros((sm.epsilon + 1, 2))
    both[:, sm.times] = np.vstack([sm.S, sm.total])
    d = both[:, 1] - both[:, 0]
    return sm.labels, d[:-1], float(d[-1])


def topm_for_relations(
    test_df: DataFrame,
    control_df: DataFrame,
    attrs: Sequence[str],
    measure_expr: str,
    agg: str = "sum",
    beta_max: int = 3,
    m: int = 3,
) -> List[Tuple[Explanation, float, int]]:
    """Top-m non-overlapping explanations of the two-relation difference:
    the diff feeds the Cascading Analysts DP (Def. 3.5). Two empty
    relations give an empty list."""
    _validate(agg, beta_max, m)
    labels, d, _ = _signed_diff(test_df, control_df, attrs, measure_expr, agg, beta_max)
    space = ExplanationSpace(labels, attrs)
    # Candidates take ids 0 .. eps-1 in label order; closure nodes keep 0.
    diff = np.zeros(space.n_nodes)
    diff[: len(labels)] = d
    gamma = np.abs(diff)
    res = topm_nonoverlapping(space, gamma, m)
    return [(space.explanations[i], float(gamma[i]), int(np.sign(diff[i]))) for i in res.ids]
