"""Two-relations diff (paper Sec. 3.1.1) as a pure DataFrame operation.

Given a test relation R_t and a control relation R_c, compute the
absolute-change difference score gamma(E) (Def. 3.2) and the change effect
tau(E) (Def. 3.3) for every candidate explanation of order <= beta_max. For
decomposable SUM/COUNT, removing E's records changes f(R_t) - f(R_c) by
exactly f(sigma_E R_t) - f(sigma_E R_c), so

    gamma(E) = | f(M, sigma_E R_t) - f(M, sigma_E R_c) |
    tau(E)   = sign( f(M, sigma_E R_t) - f(M, sigma_E R_c) )

computed as one aggregation: cube both relations, negate the control cube,
union the two and sum per (attribute, grouping-flag) key; ``groupBy`` groups
NULL keys together. The top-m path pivots those rows with ``to_matrix``.
"""
from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np
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

    Includes the order-0 row (the overall difference f(R_t) - f(R_c)).
    """
    d = _signed_cube(test_df, control_df, attrs, measure_expr, agg, beta_max)
    gamma, tau = F.abs(VAL), F.signum(VAL).cast("int")
    return d.withColumns({"gamma": gamma, "tau": tau, "__order": order_col(attrs)}).drop(VAL)


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
    the diff feeds the Cascading Analysts DP (Def. 3.5)."""
    rows = _signed_cube(test_df, control_df, attrs, measure_expr, agg, beta_max)
    pdf = to_pandas(rows)
    pdf[TIME] = 0  # one time point: the diff
    sm = to_matrix(pdf, attrs)
    space = ExplanationSpace(sm.labels, attrs)
    # Candidates take ids 0 .. eps-1 in label order; closure nodes keep 0.
    # S has one column, or none when both relations are empty.
    diff = np.zeros(space.n_nodes)
    diff[: sm.epsilon] = sm.S.sum(axis=1)
    gamma = np.abs(diff)
    res = topm_nonoverlapping(space, gamma, m)
    return [(space.explanations[i], float(gamma[i]), int(np.sign(diff[i]))) for i in res.ids]
